//! # `beer_cluster`: a fingerprint-sharded multi-node recovery cluster
//!
//! One [`RecoveryService`] dedups perfectly but solves on one machine.
//! This crate shards the work across N nodes with a consistent-hash
//! [`Ring`] over [`ProfileTrace::fingerprint`]: every fingerprint has
//! exactly one owning node, so the cluster keeps the single-service
//! guarantee that matters — *a given profile is solved once* — while
//! unique profiles scale across machines.
//!
//! ```text
//!              Ring (epoch e): fingerprint ──▶ owning node
//!   client ──submit──▶ owner          (ring-aware: routed directly)
//!   client ──submit──▶ non-owner ──SubmitForwarded──▶ owner
//!                         │  (trace in hand: proxied, loop-guarded)
//!                         └──WrongNode{owner}──▶ client re-dials
//!                            (no trace uploaded: typed redirect)
//! ```
//!
//! Three cooperating pieces:
//!
//! * [`Cluster`] — launches N [`NetServer`]s over their services, binds
//!   them, then installs the epoch-1 [`Ring`] built from the bound
//!   addresses on every node (two-phase: addresses exist only after
//!   bind). [`Cluster::install_ring`] swaps membership at a higher
//!   epoch; connected peers learn of it via `RingChanged` pushes.
//! * Server-side forwarding (in `beer_net`) — a non-owner node holding
//!   the trace proxies the submit to the owner over beer-wire and
//!   relays events and the result back; the proxied submit travels as
//!   `SubmitForwarded`, which an un-owning receiver answers with a
//!   typed [`ErrorKind::WrongNode`] instead of forwarding again — the
//!   loop guard.
//! * [`ClusterClient`] — routes each submit to the fingerprint's owner
//!   using the ring learned at Hello, follows `WrongNode` redirects
//!   (bounded hops), and when the owner is unreachable fails over to
//!   any reachable member by uploading the trace there first, which
//!   engages the server-side forwarding path.
//!
//! See DESIGN.md §"Cluster architecture" and the `cluster_throughput`
//! bench for the scaling methodology.

use beer_core::trace::{Fingerprint, ProfileTrace, VerifiedTrace};
use beer_net::{
    Client, ClientConfig, ClientError, ClusterConfig, ErrorKind, NetServer, NetServerConfig,
    RemoteJob, Ring, RingError, RingMember, WireResult,
};
use beer_service::{Priority, RecoveryService, ServiceStats};
use std::collections::HashMap;
use std::fmt;
use std::io;
use std::sync::Arc;
use std::time::Duration;

/// Virtual nodes per member when [`Cluster::launch`] builds the ring.
pub const DEFAULT_VNODES: u32 = 64;
/// `WrongNode` redirects a [`ClusterClient`] follows per submit before
/// giving up (a stable ring resolves in one).
const MAX_REDIRECTS: usize = 3;

// ---------------------------------------------------------------------------
// Cluster: N nodes, one ring
// ---------------------------------------------------------------------------

/// One launched node: its service, its network edge, and its ring name.
pub struct ClusterNode {
    /// Ring member name (`node-<i>` when launched by [`Cluster::launch`]).
    pub name: String,
    service: Arc<RecoveryService>,
    server: NetServer,
}

impl ClusterNode {
    /// The node's recovery service (shared; stays up after shutdown of
    /// the network edge).
    pub fn service(&self) -> &Arc<RecoveryService> {
        &self.service
    }

    /// The node's network edge.
    pub fn server(&self) -> &NetServer {
        &self.server
    }

    /// The node's bound address as a dialable string.
    pub fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }
}

/// Errors launching a [`Cluster`].
#[derive(Debug)]
pub enum LaunchError {
    /// A cluster needs at least one service.
    NoServices,
    /// Binding a node's listener failed.
    Io(io::Error),
    /// The generated membership was rejected by [`Ring::new`].
    Ring(RingError),
}

impl fmt::Display for LaunchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaunchError::NoServices => write!(f, "a cluster needs at least one service"),
            LaunchError::Io(e) => write!(f, "binding a cluster node failed: {e}"),
            LaunchError::Ring(e) => write!(f, "cluster membership rejected: {e}"),
        }
    }
}

impl std::error::Error for LaunchError {}

impl From<io::Error> for LaunchError {
    fn from(e: io::Error) -> LaunchError {
        LaunchError::Io(e)
    }
}

impl From<RingError> for LaunchError {
    fn from(e: RingError) -> LaunchError {
        LaunchError::Ring(e)
    }
}

/// N recovery nodes sharing one consistent-hash ring (see the module
/// docs). Owns the network edges; the services are shared.
pub struct Cluster {
    nodes: Vec<ClusterNode>,
    ring: Ring,
}

impl Cluster {
    /// Launches one [`NetServer`] per service on ephemeral loopback
    /// ports, then installs the epoch-1 ring over the bound addresses
    /// on every node. Node `i` becomes ring member `node-i`.
    ///
    /// # Errors
    ///
    /// [`LaunchError::NoServices`] for an empty service list; bind and
    /// ring-validation failures otherwise.
    pub fn launch(services: Vec<Arc<RecoveryService>>) -> Result<Cluster, LaunchError> {
        Cluster::launch_with(services, NetServerConfig::new(), DEFAULT_VNODES)
    }

    /// [`Cluster::launch`] with a base server configuration and an
    /// explicit virtual-node count. Each node's cluster `member` is set
    /// to its ring name; the base's peer tenant and token (see
    /// [`ClusterConfig::with_peer_auth`]) are kept, so nodes with a
    /// closed tenant set can authenticate forwards to each other.
    pub fn launch_with(
        services: Vec<Arc<RecoveryService>>,
        base: NetServerConfig,
        vnodes: u32,
    ) -> Result<Cluster, LaunchError> {
        if services.is_empty() {
            return Err(LaunchError::NoServices);
        }
        // Phase 1: bind every node. Addresses exist only after bind, so
        // the ring cannot be built (or installed) before this completes.
        let mut nodes = Vec::with_capacity(services.len());
        for (i, service) in services.into_iter().enumerate() {
            let name = format!("node-{i}");
            let mut cluster = base
                .cluster
                .clone()
                .unwrap_or_else(|| ClusterConfig::new(""));
            cluster.member = name.clone();
            let config = base
                .clone()
                .with_server_name(name.clone())
                .with_cluster(cluster);
            let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0", config)?;
            nodes.push(ClusterNode {
                name,
                service,
                server,
            });
        }
        // Phase 2: build the epoch-1 ring from the bound addresses and
        // install it everywhere.
        let members: Vec<RingMember> = nodes
            .iter()
            .map(|node| RingMember {
                name: node.name.clone(),
                addr: node.addr(),
            })
            .collect();
        let ring = Ring::new(1, vnodes, members)?;
        for node in &nodes {
            node.server.set_ring(ring.clone());
        }
        Ok(Cluster { nodes, ring })
    }

    /// The launched nodes.
    pub fn nodes(&self) -> &[ClusterNode] {
        &self.nodes
    }

    /// Every node's dialable address, in node order — a client's seed
    /// list.
    pub fn addrs(&self) -> Vec<String> {
        self.nodes.iter().map(ClusterNode::addr).collect()
    }

    /// The currently installed ring.
    pub fn ring(&self) -> &Ring {
        &self.ring
    }

    /// Installs `ring` on every node (connected peers are pushed a
    /// `RingChanged`). The caller owns epoch discipline: clients only
    /// adopt rings with a *higher* epoch than the one they hold.
    pub fn install_ring(&mut self, ring: Ring) {
        for node in &self.nodes {
            node.server.set_ring(ring.clone());
        }
        self.ring = ring;
    }

    /// Shuts down every node's network edge (draining up to `drain`
    /// each). The services are left running — they are shared.
    pub fn shutdown(self, drain: Duration) {
        for node in self.nodes {
            node.server.shutdown(drain);
        }
    }
}

// ---------------------------------------------------------------------------
// ClusterClient: ring-aware routing
// ---------------------------------------------------------------------------

/// Errors from a [`ClusterClient`].
#[derive(Debug)]
pub enum ClusterError {
    /// The client has no members to talk to.
    NoMembers,
    /// Every route to the fingerprint's owner failed; the last error is
    /// attached.
    Unreachable {
        /// The owner that could not be reached.
        owner: String,
        /// The error from the final attempt.
        last: ClientError,
    },
    /// The cluster kept redirecting (`WrongNode`) past the hop bound —
    /// membership is churning faster than the client can follow.
    RedirectLoop {
        /// The fingerprint being routed.
        fingerprint: Fingerprint,
    },
    /// A non-routing client error (refusal, protocol violation, ...).
    Client(ClientError),
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::NoMembers => write!(f, "no cluster members to talk to"),
            ClusterError::Unreachable { owner, last } => {
                write!(
                    f,
                    "owner {owner} unreachable and no forwarding route: {last}"
                )
            }
            ClusterError::RedirectLoop { fingerprint } => {
                write!(f, "redirect loop routing {fingerprint}: ring is churning")
            }
            ClusterError::Client(e) => write!(f, "cluster client error: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ClientError> for ClusterError {
    fn from(e: ClientError) -> ClusterError {
        ClusterError::Client(e)
    }
}

/// A job accepted somewhere in the cluster: the node that acked it (the
/// owner, or a proxying non-owner) and the job handle there.
#[derive(Clone, Debug)]
pub struct ClusterJob {
    /// Address of the node that acked the submit — where to watch.
    pub addr: String,
    /// The job handle on that node.
    pub job: RemoteJob,
}

/// A ring-aware client: routes each submit straight to the owning node,
/// follows [`ErrorKind::WrongNode`] redirects when its ring is stale,
/// and falls back to any reachable member (engaging server-side
/// forwarding) when the owner is unreachable.
pub struct ClusterClient {
    tenant: String,
    token: String,
    config: ClientConfig,
    seeds: Vec<String>,
    ring: Option<Ring>,
    clients: HashMap<String, Client>,
}

impl ClusterClient {
    /// Connects to the first reachable seed and adopts the ring from
    /// its HelloAck.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoMembers`] for an empty seed list; the last
    /// connect error when no seed is reachable.
    pub fn connect(
        seeds: Vec<String>,
        tenant: impl Into<String>,
        token: impl Into<String>,
    ) -> Result<ClusterClient, ClusterError> {
        ClusterClient::connect_with(seeds, tenant, token, ClientConfig::new())
    }

    /// [`ClusterClient::connect`] with an explicit per-node client
    /// configuration.
    pub fn connect_with(
        seeds: Vec<String>,
        tenant: impl Into<String>,
        token: impl Into<String>,
        config: ClientConfig,
    ) -> Result<ClusterClient, ClusterError> {
        if seeds.is_empty() {
            return Err(ClusterError::NoMembers);
        }
        let mut cluster = ClusterClient {
            tenant: tenant.into(),
            token: token.into(),
            config,
            seeds: seeds.clone(),
            ring: None,
            clients: HashMap::new(),
        };
        let mut last = None;
        for seed in seeds {
            match cluster.client(&seed) {
                Ok(_) => return Ok(cluster),
                Err(e) => last = Some(e),
            }
        }
        Err(ClusterError::Unreachable {
            owner: cluster.seeds.join(","),
            last: last.expect("at least one seed was tried"),
        })
    }

    /// The ring the client is currently routing with.
    pub fn ring(&self) -> Option<&Ring> {
        self.ring.as_ref()
    }

    /// The connected client for `addr`, dialing if necessary, adopting
    /// any newer ring the node advertises in its HelloAck.
    fn client(&mut self, addr: &str) -> Result<&mut Client, ClientError> {
        if !self.clients.contains_key(addr) {
            let client = Client::connect_with(
                addr,
                self.tenant.clone(),
                self.token.clone(),
                self.config.clone(),
            )?;
            self.adopt(client.ring().cloned());
            self.clients.insert(addr.to_string(), client);
        }
        Ok(self.clients.get_mut(addr).expect("just inserted"))
    }

    /// Adopts `ring` if it is newer than the one held.
    fn adopt(&mut self, ring: Option<Ring>) {
        if let Some(ring) = ring {
            let newer = match &self.ring {
                Some(held) => ring.epoch() > held.epoch(),
                None => true,
            };
            if newer {
                self.ring = Some(ring);
            }
        }
    }

    /// Where a submit for `fingerprint` should go first: the ring owner
    /// when a ring is held, otherwise the first seed.
    fn route(&self, fingerprint: Fingerprint) -> String {
        match &self.ring {
            Some(ring) => ring.owner(fingerprint).addr.clone(),
            None => self.seeds[0].clone(),
        }
    }

    /// Submits `trace` with [`Priority::Normal`] and no deadline.
    ///
    /// # Errors
    ///
    /// As [`ClusterClient::submit_with`].
    pub fn submit(&mut self, trace: &ProfileTrace) -> Result<ClusterJob, ClusterError> {
        self.submit_with(trace, Priority::Normal, None)
    }

    /// Submits `trace` to the owning node: routed by the held ring,
    /// following up to 3 `WrongNode` redirects (adopting any fresher
    /// ring pushed along the way), and failing over to the remaining
    /// members — upload first, so the non-owner proxies the submit to
    /// the owner — when the owner itself is unreachable.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Unreachable`] when every route fails;
    /// [`ClusterError::RedirectLoop`] past the hop bound; any non-routing
    /// refusal as [`ClusterError::Client`].
    pub fn submit_with(
        &mut self,
        trace: &ProfileTrace,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<ClusterJob, ClusterError> {
        // Hashed once: the same fingerprint routes the submit and keys
        // every upload and submit below.
        let trace = VerifiedTrace::from(trace.clone());
        let fingerprint = trace.fingerprint();
        let mut addr = self.route(fingerprint);
        let mut transport_error = None;
        for _ in 0..=MAX_REDIRECTS {
            let outcome = match self.client(&addr) {
                Ok(client) => client.submit_verified(&trace, priority, deadline),
                Err(e) => {
                    transport_error = Some((addr.clone(), e));
                    break;
                }
            };
            match outcome {
                Ok(job) => {
                    let ring = self.clients.get(&addr).and_then(|c| c.ring().cloned());
                    self.adopt(ring);
                    return Ok(ClusterJob { addr, job });
                }
                Err(ClientError::Refused {
                    kind: ErrorKind::WrongNode { owner },
                    ..
                }) => {
                    // Our ring was stale: the node told us who owns the
                    // fingerprint now. Adopt whatever fresher ring it
                    // pushed, then follow the redirect.
                    let ring = self.clients.get(&addr).and_then(|c| c.ring().cloned());
                    self.adopt(ring);
                    if owner.is_empty() || owner == addr {
                        return Err(ClusterError::RedirectLoop { fingerprint });
                    }
                    addr = owner;
                }
                Err(e @ (ClientError::Io(_) | ClientError::Disconnected)) => {
                    transport_error = Some((addr.clone(), e));
                    break;
                }
                Err(e) => return Err(ClusterError::Client(e)),
            }
        }
        let Some((owner, last)) = transport_error else {
            return Err(ClusterError::RedirectLoop { fingerprint });
        };
        // The owner is unreachable from here. Any member holding the
        // trace will proxy the submit over its own link, so stage the
        // trace on each remaining member until one accepts.
        self.clients.remove(&owner);
        let mut last = last;
        let fallbacks: Vec<String> = self
            .seeds
            .iter()
            .filter(|seed| **seed != owner)
            .cloned()
            .collect();
        for fallback in fallbacks {
            let outcome = self.client(&fallback).and_then(|client| {
                client.upload_verified(&trace)?;
                client.submit_verified(&trace, priority, deadline)
            });
            match outcome {
                Ok(job) => {
                    return Ok(ClusterJob {
                        addr: fallback,
                        job,
                    })
                }
                Err(e) => last = e,
            }
        }
        Err(ClusterError::Unreachable { owner, last })
    }

    /// Blocks until `job` completes on the node that acked it.
    ///
    /// # Errors
    ///
    /// Transport and refusal errors as [`ClusterError::Client`].
    pub fn wait(&mut self, job: &ClusterJob) -> Result<WireResult, ClusterError> {
        let client = self.client(&job.addr)?;
        Ok(client.wait(job.job)?)
    }

    /// [`ClusterClient::wait`] delivering every streamed event.
    ///
    /// # Errors
    ///
    /// As [`ClusterClient::wait`].
    pub fn wait_with(
        &mut self,
        job: &ClusterJob,
        on_event: impl FnMut(&beer_net::WireEvent),
    ) -> Result<WireResult, ClusterError> {
        let client = self.client(&job.addr)?;
        Ok(client.wait_with(job.job, on_event)?)
    }

    /// The service stats of the node at `addr` (see [`Client::stats`]).
    ///
    /// # Errors
    ///
    /// As [`ClusterClient::wait`].
    pub fn stats(&mut self, addr: &str) -> Result<ServiceStats, ClusterError> {
        Ok(self.client(addr)?.stats()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn launch_refuses_an_empty_cluster() {
        match Cluster::launch(Vec::new()) {
            Err(LaunchError::NoServices) => {}
            other => panic!("expected NoServices, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn connect_refuses_an_empty_seed_list() {
        match ClusterClient::connect(Vec::new(), "t", "") {
            Err(ClusterError::NoMembers) => {}
            other => panic!("expected NoMembers, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn route_falls_back_to_the_first_seed_without_a_ring() {
        let client = ClusterClient {
            tenant: "t".to_string(),
            token: String::new(),
            config: ClientConfig::new(),
            seeds: vec!["127.0.0.1:9".to_string(), "127.0.0.1:10".to_string()],
            ring: None,
            clients: HashMap::new(),
        };
        assert_eq!(client.route(Fingerprint(42)), "127.0.0.1:9");
    }

    #[test]
    fn route_follows_the_ring_owner() {
        let members = vec![
            RingMember {
                name: "a".to_string(),
                addr: "127.0.0.1:1".to_string(),
            },
            RingMember {
                name: "b".to_string(),
                addr: "127.0.0.1:2".to_string(),
            },
        ];
        let ring = Ring::new(1, 64, members).expect("valid ring");
        let client = ClusterClient {
            tenant: "t".to_string(),
            token: String::new(),
            config: ClientConfig::new(),
            seeds: vec!["127.0.0.1:1".to_string()],
            ring: Some(ring.clone()),
            clients: HashMap::new(),
        };
        for raw in [1u128, 7, 1 << 77, u128::MAX] {
            let fp = Fingerprint(raw);
            assert_eq!(client.route(fp), ring.owner(fp).addr);
        }
    }

    #[test]
    fn adopt_keeps_the_newest_epoch() {
        let member = |name: &str| RingMember {
            name: name.to_string(),
            addr: format!("127.0.0.1:{}", name.len()),
        };
        let mut client = ClusterClient {
            tenant: "t".to_string(),
            token: String::new(),
            config: ClientConfig::new(),
            seeds: vec!["127.0.0.1:1".to_string()],
            ring: None,
            clients: HashMap::new(),
        };
        client.adopt(Some(Ring::new(3, 8, vec![member("a")]).unwrap()));
        assert_eq!(client.ring().unwrap().epoch(), 3);
        // An older ring is ignored...
        client.adopt(Some(Ring::new(2, 8, vec![member("bb")]).unwrap()));
        assert_eq!(client.ring().unwrap().epoch(), 3);
        assert_eq!(client.ring().unwrap().members()[0].name, "a");
        // ...a newer one replaces.
        client.adopt(Some(Ring::new(4, 8, vec![member("cc")]).unwrap()));
        assert_eq!(client.ring().unwrap().members()[0].name, "cc");
        client.adopt(None);
        assert_eq!(client.ring().unwrap().epoch(), 4);
    }
}
