//! The network edge: an event-driven TCP server fronting a
//! [`RecoveryService`].
//!
//! ```text
//!  clients ──TCP──▶ listener ─┐
//!                             ▼            one reactor thread (epoll)
//!                   ┌──────────────────────────────────────────────┐
//!                   │ accept → slab slot (over limit: typed Busy)  │
//!                   │ per-connection state machine:                │
//!                   │   handshake ─▶ ready ─▶ watching ─▶ ready…   │
//!                   │ pooled read buffers → incremental decode     │
//!                   │ pooled write queue  → vectored flush         │
//!                   └──────────▲───────────────────────────────────┘
//!                              │ eventfd wake
//!                   service workers ── JobEvent fanout notify hook
//! ```
//!
//! Design rules:
//!
//! * **One thread, any number of connections.** Every socket is
//!   nonblocking and multiplexed by a single reactor thread over epoll
//!   ([`crate::reactor`]); server thread count is O(service workers +
//!   1), never O(connections). A thousand idle watchers cost a thousand
//!   fds and nothing else.
//! * **Events push, nothing polls.** A watching connection is woken
//!   through the service's fanout notify hook
//!   ([`RecoveryService::subscribe_notified`]) and an eventfd, not a
//!   50 ms poll loop; a peer hangup is an `EPOLLRDHUP` readiness event,
//!   not a periodic liveness probe.
//! * **Load shedding, not dropped sockets.** Every admission failure —
//!   full queue, oversized job, bad tenant, drain — crosses the wire as a
//!   typed [`Message::Error`] frame mirroring
//!   [`Rejected`](beer_service::Rejected), so a client can distinguish
//!   backpressure from network failure. A peer that stops draining its
//!   socket overflows its bounded write queue and gets a typed
//!   [`ErrorKind::Busy`] before the disconnect.
//! * **Buffers are pooled.** Frames encode via
//!   [`Message::encode_into`] into buffers from a reactor-owned
//!   [`BufPool`] — the hot frames (Event, SubmitAck, cache-hit Done)
//!   allocate nothing in steady state — and partial writes resume from
//!   a queue of whole frames flushed with `write_vectored`.
//! * **One job table per connection.** Every id a connection may
//!   `Watch` or `Cancel` lives in one map, local or proxied. A local
//!   job's id is the service's [`JobId`]; a submit this cluster node
//!   forwards to the fingerprint's owner gets an id the edge mints from
//!   the upper half of the id space, so the two never collide, and the
//!   owner's own id stays inside the forwarder. Watching either kind is
//!   the same streaming state, and an entry leaves the table once its
//!   terminal frame is queued.
//! * **Graceful drain.** [`NetServer::shutdown`] stops admitting new
//!   submissions (they get [`ErrorKind::ShuttingDown`]), waits on the
//!   service's idle condvar, then waits for watchers to collect their
//!   terminal frames and write queues to flush — condvar wakeups
//!   throughout, no sleep loops.

use crate::client::{Client, ClientConfig, ClientError};
use crate::reactor::{BufPool, Event, Poller, Waker, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::ring::Ring;
use crate::wire::{
    self, ErrorKind, Message, WireError, WireEvent, WireJobError, WireOutcome, WireOutput,
    WireRecord, WireResult,
};
use beer_core::recovery::lock_unpoisoned;
use beer_core::trace::{Fingerprint, TraceAssembler, VerifiedTrace};
use beer_obs::{Counter, Histogram, TraceId};
use beer_service::{
    CodeEntry, JobEvent, JobId, JobRequest, Priority, RecoveryService, ServiceObs, ServiceStats,
};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cluster-mode settings: the node's identity on the hash [`Ring`] and
/// how it reaches peers when proxying misrouted submissions (see
/// `beer_cluster` and DESIGN.md §"Cluster architecture").
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// This node's ring member name. A submit whose fingerprint this
    /// member does not own is forwarded to the owner (trace in hand) or
    /// redirected with a typed [`ErrorKind::WrongNode`].
    pub member: String,
    /// Tenant that node-to-node forwarded submissions authenticate as
    /// on the owning peer.
    pub peer_tenant: String,
    /// Auth token for `peer_tenant` (empty for open services).
    pub peer_token: String,
}

impl ClusterConfig {
    /// Cluster settings for the named ring member, with the default
    /// peer tenant (`"cluster"`, empty token).
    pub fn new(member: impl Into<String>) -> Self {
        ClusterConfig {
            member: member.into(),
            peer_tenant: "cluster".to_string(),
            peer_token: String::new(),
        }
    }

    /// Overrides the tenant/token used for node-to-node forwarding.
    pub fn with_peer_auth(mut self, tenant: impl Into<String>, token: impl Into<String>) -> Self {
        self.peer_tenant = tenant.into();
        self.peer_token = token.into();
        self
    }
}

/// Configuration of a [`NetServer`].
#[derive(Clone, Debug)]
pub struct NetServerConfig {
    /// Concurrent connections; over the limit, new connections get a
    /// typed [`ErrorKind::Busy`] frame and a clean close (never a
    /// silently dropped socket).
    pub max_connections: usize,
    /// Total size cap for one chunked trace upload.
    pub max_trace_bytes: u64,
    /// Bound on one connection's queued-but-unflushed reply bytes. Past
    /// it the queue is dropped, a typed [`ErrorKind::Busy`] goes out,
    /// and the connection closes — a slow reader can stall only itself.
    pub max_write_buffer: usize,
    /// Entries one registry query page may carry (a larger page would
    /// outgrow the peer's frame cap). A client's requested page limit is
    /// clamped to it; the cursor resumes past it, so nothing truncates.
    pub max_query_entries: usize,
    /// Human-readable server identity sent in HelloAck.
    pub server_name: String,
    /// Cluster mode: when set, submits for fingerprints this node does
    /// not own on the current [`Ring`] are forwarded or redirected.
    pub cluster: Option<ClusterConfig>,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            max_connections: 128,
            max_trace_bytes: 16 << 20,
            max_write_buffer: 1 << 20,
            max_query_entries: 256,
            server_name: "beer_net".to_string(),
            cluster: None,
        }
    }
}

impl NetServerConfig {
    /// The default configuration (see the field docs).
    pub fn new() -> Self {
        NetServerConfig::default()
    }

    /// Overrides the connection limit.
    pub fn with_max_connections(mut self, max: usize) -> Self {
        self.max_connections = max;
        self
    }

    /// Overrides the per-connection write queue bound.
    pub fn with_max_write_buffer(mut self, max: usize) -> Self {
        self.max_write_buffer = max;
        self
    }

    /// Overrides the registry query page cap.
    pub fn with_max_query_entries(mut self, max: usize) -> Self {
        self.max_query_entries = max;
        self
    }

    /// Overrides the server identity string.
    pub fn with_server_name(mut self, name: impl Into<String>) -> Self {
        self.server_name = name.into();
        self
    }

    /// Enables cluster mode (see [`ClusterConfig`]).
    pub fn with_cluster(mut self, cluster: ClusterConfig) -> Self {
        self.cluster = Some(cluster);
        self
    }
}

/// Uploaded traces shared across connections, keyed by their verified
/// fingerprint, with FIFO eviction past the capacity bound.
struct Uploads {
    by_fingerprint: HashMap<Fingerprint, VerifiedTrace>,
    order: VecDeque<Fingerprint>,
    capacity: usize,
}

impl Uploads {
    fn insert(&mut self, trace: VerifiedTrace) {
        let fingerprint = trace.fingerprint();
        if self.by_fingerprint.insert(fingerprint, trace).is_none() {
            self.order.push_back(fingerprint);
            while self.by_fingerprint.len() > self.capacity {
                if let Some(evicted) = self.order.pop_front() {
                    self.by_fingerprint.remove(&evicted);
                }
            }
        }
    }

    fn get(&self, fingerprint: Fingerprint) -> Option<VerifiedTrace> {
        self.by_fingerprint.get(&fingerprint).cloned()
    }
}

/// `(active watches, unflushed reply bytes)` published by the reactor
/// while draining; `GAUGE_UNPUBLISHED` until the first publish so a
/// drain cannot succeed against a stale zero.
type DrainGauge = (usize, usize);
const GAUGE_UNPUBLISHED: DrainGauge = (usize::MAX, usize::MAX);

/// The reactor's doorbell: an eventfd plus the tokens of watching
/// connections whose job gained events. Kept in its own `Arc`, apart
/// from [`Shared`], because notify hooks capturing it are stored inside
/// the service's fanout — if they captured [`Shared`] (which holds the
/// service `Arc`) that would be a reference cycle keeping the service
/// alive after shutdown.
struct WakeHub {
    /// Wakes the reactor out of `epoll_wait` from any thread.
    waker: Waker,
    /// Tokens of watching connections whose job gained events.
    watch_wakeups: Mutex<Vec<u64>>,
    /// Progress of proxied (forwarded) submissions, posted by forwarder
    /// threads and drained by the reactor, which relays them to the
    /// originating connection.
    forward_updates: Mutex<Vec<ForwardUpdate>>,
}

/// State shared between the reactor thread and the [`NetServer`] handle.
struct Shared {
    service: Arc<RecoveryService>,
    config: NetServerConfig,
    uploads: Mutex<Uploads>,
    /// Draining: submissions are refused, everything else still answers.
    draining: AtomicBool,
    /// Stopped: the reactor closes everything and exits.
    stopped: AtomicBool,
    active_connections: AtomicUsize,
    wake: Arc<WakeHub>,
    drain_gauge: Mutex<DrainGauge>,
    drain_cv: Condvar,
    /// The cluster hash ring (cluster mode only; epoch-numbered, swapped
    /// whole by [`NetServer::set_ring`]).
    ring: Mutex<Option<Arc<Ring>>>,
    /// A new ring is waiting to be pushed to peers as `RingChanged`.
    ring_push: AtomicBool,
    /// Forwarding work queue (cluster mode only).
    forward: Option<Arc<ForwardHub>>,
}

impl Shared {
    /// The forwarding hub, present on every cluster node.
    fn forward_hub(&self) -> &ForwardHub {
        self.forward.as_ref().expect("cluster implies hub")
    }
}

// ---------------------------------------------------------------------------
// Cluster forwarding
// ---------------------------------------------------------------------------

/// Forwarder threads relaying misrouted submissions to their owners.
/// Each proxied job occupies one forwarder for its lifetime, so this
/// bounds concurrent cross-node proxying.
const FORWARDERS: usize = 2;
/// Forward tasks one reactor may queue before answering typed Busy.
const MAX_PENDING_FORWARDS: usize = 1024;
/// Pooled idle peer clients kept per owner address.
const MAX_POOLED_PEER_CLIENTS: usize = 4;
/// Events buffered for a proxied job before its Watch arrives.
const MAX_BUFFERED_FORWARD_EVENTS: usize = 256;
/// Proxied job ids are minted by the edge from the upper half of the id
/// space (`PROXIED_JOB_IDS | seq`); service [`JobId`]s count up from 0,
/// so the two can never collide in one connection's job table.
const PROXIED_JOB_IDS: u64 = 1 << 63;

/// A misrouted submission handed to the forwarder pool: proxy it to the
/// owning node and relay the answer back to connection `token` under
/// the edge-minted id `job`.
struct ForwardTask {
    token: u64,
    job: u64,
    trace: VerifiedTrace,
    priority: Priority,
    deadline_ms: Option<u64>,
    owner_name: String,
    owner_addr: String,
    epoch: u64,
    /// The job's trace id, minted at the forward decision so the origin
    /// node's flight recorder and the owner's job share one id.
    trace_id: u128,
}

/// What a forwarder learned about a proxied job, relayed to the
/// originating connection by the reactor. The owner's own job id never
/// leaves the forwarder: the client only ever sees the edge-minted id.
enum ForwardOutcome {
    /// The owner accepted: the client gets its `SubmitAck`.
    Ack,
    Event(WireEvent),
    Done(WireResult),
    /// The owner refused with a typed error (queue full, wrong node
    /// after a ring change, ...): relayed verbatim.
    Refused {
        kind: ErrorKind,
        detail: String,
    },
    /// The owner was unreachable or the proxy transport failed.
    Failed {
        owner: String,
        detail: String,
    },
}

struct ForwardUpdate {
    token: u64,
    job: u64,
    outcome: ForwardOutcome,
}

/// The forwarding work queue shared by the reactor (producer) and the
/// forwarder threads (consumers). Holds the [`WakeHub`] — never
/// [`Shared`] — so detached forwarder threads cannot pin the service
/// alive after shutdown (same rule as the watch notify hooks).
struct ForwardHub {
    cluster: ClusterConfig,
    wake: Arc<WakeHub>,
    tasks: Mutex<VecDeque<ForwardTask>>,
    task_cv: Condvar,
    stopped: AtomicBool,
    /// Idle peer clients pooled per owner address: the steady-state
    /// cross-node path reuses connections instead of re-dialing.
    idle: Mutex<HashMap<String, Vec<Client>>>,
    /// The service's observability surface (a standalone Arc — holding
    /// it does not pin the service alive, preserving the no-`Shared`
    /// rule above).
    obs: Arc<ServiceObs>,
    /// Forward round-trips, submit to ack (`net_forward_rtt_ns`).
    forward_rtt: Arc<Histogram>,
    /// Submissions proxied to their owner ([`ServiceStats::FORWARDED_JOBS`]).
    forwarded_jobs: Arc<Counter>,
    /// Failed or refused forwards ([`ServiceStats::FORWARD_ERRORS`]).
    forward_errors: Arc<Counter>,
}

impl ForwardHub {
    fn new(cluster: ClusterConfig, wake: Arc<WakeHub>, obs: Arc<ServiceObs>) -> ForwardHub {
        let registry = obs.registry();
        ForwardHub {
            cluster,
            wake,
            tasks: Mutex::new(VecDeque::new()),
            task_cv: Condvar::new(),
            stopped: AtomicBool::new(false),
            idle: Mutex::new(HashMap::new()),
            forward_rtt: registry.histogram("net_forward_rtt_ns"),
            forwarded_jobs: registry.counter(ServiceStats::FORWARDED_JOBS),
            forward_errors: registry.counter(ServiceStats::FORWARD_ERRORS),
            obs,
        }
    }

    /// Queues a task for the forwarder pool; `false` when the queue is
    /// at its bound (the caller answers typed Busy).
    fn submit(&self, task: ForwardTask) -> bool {
        let mut tasks = lock_unpoisoned(&self.tasks);
        if tasks.len() >= MAX_PENDING_FORWARDS {
            return false;
        }
        tasks.push_back(task);
        drop(tasks);
        self.task_cv.notify_one();
        true
    }

    fn stop(&self) {
        self.stopped.store(true, Ordering::SeqCst);
        self.task_cv.notify_all();
    }

    fn post(&self, task: &ForwardTask, outcome: ForwardOutcome) {
        let update = ForwardUpdate {
            token: task.token,
            job: task.job,
            outcome,
        };
        lock_unpoisoned(&self.wake.forward_updates).push(update);
        self.wake.waker.wake();
    }

    fn take_client(&self, addr: &str) -> Result<Client, ClientError> {
        if let Some(client) = lock_unpoisoned(&self.idle).get_mut(addr).and_then(Vec::pop) {
            return Ok(client);
        }
        Client::connect_with(
            addr,
            self.cluster.peer_tenant.clone(),
            self.cluster.peer_token.clone(),
            ClientConfig::new().with_reconnect(2, Duration::from_millis(10)),
        )
    }

    fn put_client(&self, addr: String, client: Client) {
        let mut idle = lock_unpoisoned(&self.idle);
        let pool = idle.entry(addr).or_default();
        if pool.len() < MAX_POOLED_PEER_CLIENTS {
            pool.push(client);
        }
    }

    /// One forwarder thread: pop tasks, proxy each to its owner over
    /// beer-wire, post progress back through the [`WakeHub`].
    fn run(self: &Arc<ForwardHub>) {
        loop {
            let task = {
                let mut tasks = lock_unpoisoned(&self.tasks);
                loop {
                    if let Some(task) = tasks.pop_front() {
                        break Some(task);
                    }
                    if self.stopped.load(Ordering::SeqCst) {
                        break None;
                    }
                    tasks = self.task_cv.wait(tasks).unwrap_or_else(|p| p.into_inner());
                }
            };
            let Some(task) = task else { return };
            self.proxy(task);
        }
    }

    fn proxy(&self, task: ForwardTask) {
        let mut client = match self.take_client(&task.owner_addr) {
            Ok(client) => client,
            Err(e) => {
                let detail = format!("owner {} unreachable: {e}", task.owner_name);
                let owner = task.owner_addr.clone();
                self.post(&task, ForwardOutcome::Failed { owner, detail });
                return;
            }
        };
        let deadline = task.deadline_ms.map(Duration::from_millis);
        let rtt_start = Instant::now();
        let submitted = client.submit_forwarded(
            &task.trace,
            task.priority,
            deadline,
            task.epoch,
            task.trace_id,
        );
        // The forward round-trip is submit-to-ack (or typed refusal) —
        // the owner's solve time is its own series, not this one.
        if self.obs.enabled() {
            self.forward_rtt.record_duration(rtt_start.elapsed());
        }
        let job = match submitted {
            Ok(job) => job,
            Err(ClientError::Refused { kind, detail }) => {
                self.post(&task, ForwardOutcome::Refused { kind, detail });
                return;
            }
            Err(e) => {
                let detail = format!("forwarding to {} failed: {e}", task.owner_name);
                let owner = task.owner_addr.clone();
                self.post(&task, ForwardOutcome::Failed { owner, detail });
                return;
            }
        };
        self.post(&task, ForwardOutcome::Ack);
        let waited = client.wait_with(job, |event| {
            self.post(&task, ForwardOutcome::Event(event.clone()));
        });
        match waited {
            Ok(result) => {
                self.post(&task, ForwardOutcome::Done(result));
                self.put_client(task.owner_addr, client);
            }
            Err(e) => {
                // The ack is already out, so the originating client is
                // owed a terminal answer for this job id: a typed job
                // error, not a dangling watch.
                let message = format!("proxied job lost on owner {}: {e}", task.owner_name);
                self.post(
                    &task,
                    ForwardOutcome::Done(Err(WireJobError::Recovery { message })),
                );
            }
        }
    }
}

/// A TCP server exposing a [`RecoveryService`] over `beer-wire` (see
/// the module docs).
pub struct NetServer {
    shared: Arc<Shared>,
    local_addr: SocketAddr,
    reactor_thread: Option<JoinHandle<()>>,
}

impl NetServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts the
    /// reactor thread accepting connections for `service`.
    ///
    /// # Errors
    ///
    /// Propagates bind and epoll-setup errors.
    pub fn bind(
        service: Arc<RecoveryService>,
        addr: impl ToSocketAddrs,
        config: NetServerConfig,
    ) -> io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let poller = Poller::new()?;
        let wake = Arc::new(WakeHub {
            waker: Waker::new()?,
            watch_wakeups: Mutex::new(Vec::new()),
            forward_updates: Mutex::new(Vec::new()),
        });
        poller.add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN)?;
        poller.add(wake.waker.fd(), TOKEN_WAKER, EPOLLIN)?;
        let forward = config.cluster.clone().map(|cluster| {
            let hub = Arc::new(ForwardHub::new(
                cluster,
                Arc::clone(&wake),
                Arc::clone(service.obs()),
            ));
            // Detached: a forwarder blocked on a long remote job must not
            // stall shutdown; it holds only the hub and the wake hub, so
            // it cannot pin the service (or this server) alive.
            for i in 0..FORWARDERS {
                let hub = Arc::clone(&hub);
                let _ = std::thread::Builder::new()
                    .name(format!("beer-net-forwarder-{i}"))
                    .spawn(move || hub.run());
            }
            hub
        });
        let shared = Arc::new(Shared {
            service,
            uploads: Mutex::new(Uploads {
                by_fingerprint: HashMap::new(),
                order: VecDeque::new(),
                capacity: UPLOAD_CAPACITY,
            }),
            config,
            draining: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            active_connections: AtomicUsize::new(0),
            wake,
            drain_gauge: Mutex::new(GAUGE_UNPUBLISHED),
            drain_cv: Condvar::new(),
            ring: Mutex::new(None),
            ring_push: AtomicBool::new(false),
            forward,
        });
        let reactor = Reactor {
            shared: Arc::clone(&shared),
            listener,
            poller,
            pool: BufPool::new(1024, 64 << 10),
            conns: Vec::new(),
            gens: Vec::new(),
            free: Vec::new(),
        };
        let reactor_thread = std::thread::Builder::new()
            .name("beer-net-reactor".to_string())
            .spawn(move || reactor.run())
            .expect("spawn reactor thread");
        Ok(NetServer {
            shared,
            local_addr,
            reactor_thread: Some(reactor_thread),
        })
    }

    /// The bound address (the actual port when bound with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Connections currently being served.
    pub fn active_connections(&self) -> usize {
        self.shared.active_connections.load(Ordering::SeqCst)
    }

    /// Installs (or replaces) the cluster hash ring. Takes effect for
    /// the next frame on every connection; every authed peer is also
    /// pushed a `RingChanged` frame. Rings carry an epoch so clients
    /// can recognize staleness; installing an older epoch is allowed
    /// (the server trusts its operator) but clients will not adopt it.
    pub fn set_ring(&self, ring: Ring) {
        *lock_unpoisoned(&self.shared.ring) = Some(Arc::new(ring));
        self.shared.ring_push.store(true, Ordering::SeqCst);
        self.shared.wake.waker.wake();
    }

    /// The currently installed cluster ring, if any.
    pub fn ring(&self) -> Option<Arc<Ring>> {
        lock_unpoisoned(&self.shared.ring).clone()
    }

    /// Stops admitting new submissions (they get
    /// [`ErrorKind::ShuttingDown`]) but keeps serving queries and event
    /// streams while in-flight jobs finish — for up to `drain`. Then
    /// closes the listener and every connection and joins the reactor.
    /// The underlying [`RecoveryService`] is shared and stays up; shut it
    /// down separately.
    ///
    /// The whole drain is event-driven: a condvar wait on the service
    /// going idle, then a condvar wait on the reactor reporting zero
    /// active watches and zero unflushed bytes. No sleep loops.
    pub fn shutdown(mut self, drain: Duration) {
        self.shutdown_impl(drain);
    }

    fn shutdown_impl(&mut self, drain: Duration) {
        if self.reactor_thread.is_none() {
            return;
        }
        let deadline = Instant::now() + drain;
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.wake.waker.wake();
        let _ = self
            .shared
            .service
            .wait_idle(deadline.saturating_duration_since(Instant::now()));
        // Wait for watchers to collect their terminal frames and for
        // write queues to flush, as reported by the reactor.
        {
            let mut gauge = lock_unpoisoned(&self.shared.drain_gauge);
            while *gauge != (0, 0) {
                let Some(remaining) = deadline
                    .checked_duration_since(Instant::now())
                    .filter(|d| !d.is_zero())
                else {
                    break;
                };
                let (g, _) = self
                    .shared
                    .drain_cv
                    .wait_timeout(gauge, remaining)
                    .unwrap_or_else(|p| p.into_inner());
                gauge = g;
            }
        }
        if let Some(hub) = &self.shared.forward {
            hub.stop();
        }
        self.shared.stopped.store(true, Ordering::SeqCst);
        self.shared.wake.waker.wake();
        if let Some(handle) = self.reactor_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.shutdown_impl(Duration::from_secs(0));
    }
}

// ---------------------------------------------------------------------------
// Reactor
// ---------------------------------------------------------------------------

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// Per-connection read deadline: an idle peer with nothing in flight
/// (no watch, no pending writes) is disconnected after this long
/// without a frame.
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// Per-connection write deadline: a peer that stops draining its socket
/// is disconnected once its write queue has been blocked this long.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);
/// Uploaded traces retained for submit-by-fingerprint, shared across
/// connections (FIFO eviction). Reconnecting clients re-attach to
/// in-flight work without re-uploading while their trace is retained.
const UPLOAD_CAPACITY: usize = 1024;
/// Read-buffer ceiling: one frame at the wire's size cap plus headroom
/// (a larger declared frame is refused before then).
const READ_BUFFER_CAP: usize = wire::DEFAULT_MAX_FRAME_BYTES + 4 + (64 << 10);
/// Read-budget per connection per readiness event, for fairness.
const READ_BUDGET: usize = 256 << 10;
/// Frames gathered into one `write_vectored` call.
const WRITE_BATCH: usize = 64;
/// Concurrent in-progress uploads one connection may hold.
const MAX_CONCURRENT_UPLOADS: usize = 4;
/// Refused-upload fingerprints remembered per connection.
const MAX_REJECTED_UPLOADS: usize = 1024;

fn conn_token(generation: u32, idx: usize) -> u64 {
    ((generation as u64) << 32) | idx as u64
}

/// A job this connection may watch or cancel, keyed in `Conn::jobs` by
/// the id its `SubmitAck` carried. The entry leaves the table once the
/// job's terminal frame is queued.
enum JobEntry {
    /// Submitted to this node's service: the key is its [`JobId`].
    Local,
    /// Proxied to its owning cluster node under an edge-minted id (see
    /// [`PROXIED_JOB_IDS`]). Events and the result stream in from a
    /// forwarder thread and buffer here until a watch drains them
    /// (events bounded, oldest dropped — they are advisory; the result
    /// is what matters).
    Proxied {
        events: VecDeque<WireEvent>,
        result: Option<WireResult>,
    },
}

/// The job a watching connection streams: a local job drains its
/// service fanout, a proxied one its [`JobEntry::Proxied`] buffer.
enum WatchState {
    Local {
        id: JobId,
        rx: mpsc::Receiver<JobEvent>,
    },
    Proxied {
        job: u64,
    },
}

/// One connection's state machine: `authed == false` is the handshake
/// state (only Hello is legal), `watch.is_some()` is the streaming state
/// (incoming frames buffer unparsed until the watch ends).
struct Conn {
    stream: TcpStream,
    token: u64,
    authed: bool,
    tenant: String,
    /// Unfinished jobs submitted on this connection — the only ids it
    /// may watch or cancel (tenancy isolation at the wire edge).
    jobs: HashMap<u64, JobEntry>,
    /// Proxied job ids minted so far (the low half of the next one).
    proxied_minted: u64,
    /// In-progress chunked uploads.
    assemblies: HashMap<Fingerprint, TraceAssembler>,
    /// Uploads already refused with a typed error. Later chunks of a
    /// refused upload are dropped *silently*: the sender streams its
    /// chunks before reading the refusal, and answering each one would
    /// desynchronize its request/response pairing.
    rejected_uploads: HashSet<Fingerprint>,
    /// Pooled read buffer: raw bytes in, frames decoded incrementally
    /// from `rpos` without per-frame allocation.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Pooled write queue: whole encoded frames, flushed with
    /// `write_vectored`; `out_offset` is the written prefix of the
    /// front frame, `out_bytes` the unwritten total.
    outbox: VecDeque<Vec<u8>>,
    out_offset: usize,
    out_bytes: usize,
    watch: Option<WatchState>,
    /// Currently registered epoll interest bits.
    interest: u32,
    last_activity: Instant,
    /// When the write queue first failed to flush (slow peer).
    blocked_since: Option<Instant>,
    /// The peer sent FIN: no more requests will arrive.
    peer_eof: bool,
    /// Close once the outbox flushes (typed refusal already queued).
    close_after_flush: bool,
    /// The write queue overflowed: only the final Busy frame remains.
    overflowed: bool,
    /// Transport failure: close immediately, flush nothing.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream, token: u64, rbuf: Vec<u8>) -> Conn {
        Conn {
            stream,
            token,
            authed: false,
            tenant: String::new(),
            jobs: HashMap::new(),
            proxied_minted: 0,
            assemblies: HashMap::new(),
            rejected_uploads: HashSet::new(),
            rbuf,
            rpos: 0,
            outbox: VecDeque::new(),
            out_offset: 0,
            out_bytes: 0,
            watch: None,
            interest: EPOLLIN | EPOLLRDHUP,
            last_activity: Instant::now(),
            blocked_since: None,
            peer_eof: false,
            close_after_flush: false,
            overflowed: false,
            dead: false,
        }
    }

    /// Bounds the refusal memory. Clearing drops the silent-absorb
    /// guarantee for any *still-streaming* refused upload (its remaining
    /// chunks would each earn an error frame again), but only a client
    /// cycling through >1024 refused uploads on one connection can reach
    /// this, and bounded memory wins over its framing.
    fn bound_rejected_uploads(&mut self) {
        if self.rejected_uploads.len() > MAX_REJECTED_UPLOADS {
            self.rejected_uploads.clear();
        }
    }

    /// Encodes `message` into a pooled buffer and queues it. Past the
    /// write-queue bound the queue is dropped (keeping a half-written
    /// front frame so the stream stays framed), one typed Busy goes out,
    /// and the connection is marked to close: a peer that stops reading
    /// stalls only itself.
    fn queue(&mut self, pool: &mut BufPool, config: &NetServerConfig, message: &Message) {
        if self.dead || self.overflowed {
            return;
        }
        let mut buf = pool.take();
        message.encode_into(&mut buf);
        if self.out_bytes + buf.len() > config.max_write_buffer {
            pool.put(buf);
            let keep = usize::from(self.out_offset > 0);
            while self.outbox.len() > keep {
                let dropped = self.outbox.pop_back().expect("len > keep");
                self.out_bytes -= dropped.len();
                pool.put(dropped);
            }
            self.overflowed = true;
            self.watch = None;
            self.close_after_flush = true;
            let mut busy = pool.take();
            Message::Error {
                kind: ErrorKind::Busy,
                detail: format!(
                    "write queue overflowed {} bytes: the peer is not draining its socket",
                    config.max_write_buffer
                ),
            }
            .encode_into(&mut busy);
            self.out_bytes += busy.len();
            self.outbox.push_back(busy);
            return;
        }
        self.out_bytes += buf.len();
        self.outbox.push_back(buf);
    }

    fn queue_error(
        &mut self,
        pool: &mut BufPool,
        config: &NetServerConfig,
        kind: ErrorKind,
        detail: impl Into<String>,
    ) {
        self.queue(
            pool,
            config,
            &Message::Error {
                kind,
                detail: detail.into(),
            },
        );
    }

    /// Vectored flush of as many queued frames as the socket takes;
    /// fully written frames return their buffers to the pool.
    fn flush(&mut self, pool: &mut BufPool) -> io::Result<()> {
        while !self.outbox.is_empty() {
            let mut slices: Vec<IoSlice<'_>> =
                Vec::with_capacity(self.outbox.len().min(WRITE_BATCH));
            let mut iter = self.outbox.iter();
            let front = iter.next().expect("outbox nonempty");
            slices.push(IoSlice::new(&front[self.out_offset..]));
            for frame in iter.take(WRITE_BATCH - 1) {
                slices.push(IoSlice::new(frame));
            }
            let mut n = match self.stream.write_vectored(&slices) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if self.blocked_since.is_none() {
                        self.blocked_since = Some(Instant::now());
                    }
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            self.out_bytes -= n;
            while n > 0 {
                let front_remaining =
                    self.outbox.front().expect("bytes imply frames").len() - self.out_offset;
                if n >= front_remaining {
                    n -= front_remaining;
                    self.out_offset = 0;
                    pool.put(self.outbox.pop_front().expect("front exists"));
                } else {
                    self.out_offset += n;
                    n = 0;
                }
            }
        }
        self.blocked_since = None;
        Ok(())
    }

    /// Reads available bytes into the pooled buffer, up to the fairness
    /// budget and [`READ_BUFFER_CAP`] (a frame-and-a-bit; a larger
    /// declared frame is refused as [`WireError::FrameTooLarge`] before
    /// then).
    fn fill(&mut self) -> io::Result<()> {
        let mut budget = READ_BUDGET;
        while budget > 0 && !self.peer_eof && self.rbuf.len() < READ_BUFFER_CAP {
            let old = self.rbuf.len();
            let want = (READ_BUFFER_CAP - old).min(16 << 10).min(budget);
            self.rbuf.resize(old + want, 0);
            match self.stream.read(&mut self.rbuf[old..]) {
                Ok(0) => {
                    self.rbuf.truncate(old);
                    self.peer_eof = true;
                }
                Ok(n) => {
                    self.rbuf.truncate(old + n);
                    self.last_activity = Instant::now();
                    budget -= n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.rbuf.truncate(old);
                    break;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    self.rbuf.truncate(old);
                }
                Err(e) => {
                    self.rbuf.truncate(old);
                    return Err(e);
                }
            }
        }
        Ok(())
    }

    /// The epoll interest this connection's state wants right now.
    fn desired_interest(&self) -> u32 {
        let mut bits = EPOLLRDHUP;
        if !self.peer_eof && self.rbuf.len() < READ_BUFFER_CAP {
            bits |= EPOLLIN;
        }
        if !self.outbox.is_empty() {
            bits |= EPOLLOUT;
        }
        bits
    }
}

struct Reactor {
    shared: Arc<Shared>,
    listener: TcpListener,
    poller: Poller,
    pool: BufPool,
    conns: Vec<Option<Conn>>,
    /// Per-slot generation, bumped on close so a stale token (an event
    /// or watch wakeup for a recycled slot) is recognizably stale.
    gens: Vec<u32>,
    free: Vec<usize>,
}

impl Reactor {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        let mut last_sweep = Instant::now();
        let obs = Arc::clone(self.shared.service.obs());
        // Time spent servicing each non-empty readiness batch — the
        // reactor's "how long was the loop busy" series. Idle 500 ms
        // timeout wakeups are not ticks; recording them would drown the
        // signal in timer noise.
        let tick_histogram = obs
            .enabled()
            .then(|| obs.registry().histogram("net_reactor_tick_ns"));
        loop {
            events.clear();
            let _ = self
                .poller
                .wait(&mut events, Some(Duration::from_millis(500)));
            if self.shared.stopped.load(Ordering::SeqCst) {
                self.close_all();
                return;
            }
            let tick_start = (!events.is_empty()).then(Instant::now);
            for ev in events.drain(..) {
                match ev.token {
                    TOKEN_WAKER => self.shared.wake.waker.drain(),
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.conn_ready(token, ev),
                }
            }
            let woken: Vec<u64> =
                std::mem::take(&mut *lock_unpoisoned(&self.shared.wake.watch_wakeups));
            for token in woken {
                self.watch_ready(token);
            }
            let updates: Vec<ForwardUpdate> =
                std::mem::take(&mut *lock_unpoisoned(&self.shared.wake.forward_updates));
            for update in updates {
                self.apply_forward_update(update);
            }
            if self.shared.ring_push.swap(false, Ordering::SeqCst) {
                self.broadcast_ring();
            }
            if let (Some(histogram), Some(start)) = (&tick_histogram, tick_start) {
                histogram.record_duration(start.elapsed());
            }
            if last_sweep.elapsed() >= Duration::from_secs(1) {
                last_sweep = Instant::now();
                self.sweep_timeouts();
            }
            if self.shared.draining.load(Ordering::SeqCst) {
                self.publish_drain_gauge();
            }
        }
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => self.admit(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failure (e.g. fd exhaustion): the next
                // readiness event retries.
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        // Bounded slab: over the limit, the peer gets a typed Busy frame
        // and a clean close instead of a dropped socket.
        if self.shared.active_connections.load(Ordering::SeqCst)
            >= self.shared.config.max_connections
        {
            let mut frame = self.pool.take();
            Message::Error {
                kind: ErrorKind::Busy,
                detail: format!(
                    "connection limit of {} reached; retry later",
                    self.shared.config.max_connections
                ),
            }
            .encode_into(&mut frame);
            let _ = stream.set_nonblocking(true);
            let _ = (&stream).write(&frame);
            self.pool.put(frame);
            return;
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let idx = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.gens.push(0);
            self.conns.len() - 1
        });
        let token = conn_token(self.gens[idx], idx);
        let conn = Conn::new(stream, token, self.pool.take());
        if self
            .poller
            .add(conn.stream.as_raw_fd(), token, conn.interest)
            .is_err()
        {
            self.free.push(idx);
            return;
        }
        self.conns[idx] = Some(conn);
        self.shared
            .active_connections
            .fetch_add(1, Ordering::SeqCst);
    }

    /// Resolves a token to its live slot index, refusing stale tokens.
    fn resolve(&self, token: u64) -> Option<usize> {
        let idx = (token & u32::MAX as u64) as usize;
        (idx < self.conns.len()
            && conn_token(self.gens[idx], idx) == token
            && self.conns[idx].is_some())
        .then_some(idx)
    }

    fn conn_ready(&mut self, token: u64, ev: Event) {
        let Some(idx) = self.resolve(token) else {
            return;
        };
        {
            let conn = self.conns[idx].as_mut().expect("resolved");
            if ev.writable() && conn.flush(&mut self.pool).is_err() {
                conn.dead = true;
            }
            if !conn.dead && (ev.readable() || ev.closed()) && conn.fill().is_err() {
                conn.dead = true;
            }
        }
        self.drive(idx);
        self.finish(idx);
    }

    fn watch_ready(&mut self, token: u64) {
        let Some(idx) = self.resolve(token) else {
            return;
        };
        self.drive(idx);
        self.finish(idx);
    }

    /// Relays one forwarder-thread update to its originating connection.
    /// A stale token (the peer hung up while its job was proxied) drops
    /// the update; the owner finishes the job regardless.
    fn apply_forward_update(&mut self, update: ForwardUpdate) {
        let Some(idx) = self.resolve(update.token) else {
            return;
        };
        let shared = Arc::clone(&self.shared);
        let config = &shared.config;
        let pool = &mut self.pool;
        let conn = self.conns[idx].as_mut().expect("resolved");
        let job = update.job;
        let entry = conn.jobs.get_mut(&job);
        match (update.outcome, entry) {
            (ForwardOutcome::Ack, _) => {
                let entry = JobEntry::Proxied {
                    events: VecDeque::new(),
                    result: None,
                };
                conn.jobs.insert(job, entry);
                conn.queue(pool, config, &Message::SubmitAck { job });
            }
            (ForwardOutcome::Event(event), Some(JobEntry::Proxied { events, .. })) => {
                if events.len() >= MAX_BUFFERED_FORWARD_EVENTS {
                    events.pop_front();
                }
                events.push_back(event);
            }
            (ForwardOutcome::Done(done), Some(JobEntry::Proxied { result, .. })) => {
                *result = Some(done);
            }
            (ForwardOutcome::Refused { kind, detail }, _) => {
                shared.forward_hub().forward_errors.inc();
                conn.queue_error(pool, config, kind, detail);
            }
            (ForwardOutcome::Failed { owner, detail }, _) => {
                shared.forward_hub().forward_errors.inc();
                conn.queue_error(pool, config, ErrorKind::WrongNode { owner }, detail);
            }
            // No proxied entry under this id: nothing to file.
            _ => {}
        }
        // A watch on this job drains what was just filed.
        self.drive(idx);
        self.finish(idx);
    }

    /// Pushes the freshly installed ring to every authed peer.
    fn broadcast_ring(&mut self) {
        let Some(ring) = lock_unpoisoned(&self.shared.ring).clone() else {
            return;
        };
        let config = self.shared.config.clone();
        for idx in 0..self.conns.len() {
            let queued = match self.conns[idx].as_mut() {
                Some(conn) if conn.authed && !conn.dead => {
                    conn.queue(
                        &mut self.pool,
                        &config,
                        &Message::RingChanged {
                            ring: (*ring).clone(),
                        },
                    );
                    true
                }
                _ => false,
            };
            if queued {
                self.finish(idx);
            }
        }
    }

    /// Advances the connection's state machine: pumps an active watch,
    /// then decodes and handles buffered frames until it blocks on input,
    /// enters a watch, or is marked to close.
    fn drive(&mut self, idx: usize) {
        let shared = Arc::clone(&self.shared);
        let pool = &mut self.pool;
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        loop {
            if conn.dead {
                break;
            }
            if conn.watch.is_some() {
                pump_watch(conn, pool, &shared);
                if conn.watch.is_some() {
                    break; // still streaming: buffer input, do not parse
                }
            }
            if conn.close_after_flush {
                break;
            }
            let avail = conn.rbuf.len() - conn.rpos;
            if avail < 4 {
                break;
            }
            let declared = u32::from_be_bytes(
                conn.rbuf[conn.rpos..conn.rpos + 4]
                    .try_into()
                    .expect("4 bytes"),
            ) as usize;
            if declared > wire::DEFAULT_MAX_FRAME_BYTES {
                // Refused before any buffering, mirroring read_message.
                let e = WireError::FrameTooLarge {
                    len: declared as u64,
                    limit: wire::DEFAULT_MAX_FRAME_BYTES as u64,
                };
                conn.queue_error(pool, &shared.config, ErrorKind::BadRequest, e.to_string());
                conn.close_after_flush = true;
                break;
            }
            if avail < 4 + declared {
                break;
            }
            let decoded = Message::decode_body(&conn.rbuf[conn.rpos + 4..conn.rpos + 4 + declared]);
            conn.rpos += 4 + declared;
            match decoded {
                Ok(message) => handle_frame(conn, pool, &shared, message),
                Err(e) => {
                    // A peer sending garbage gets one typed diagnosis,
                    // then the connection closes (framing may be
                    // unrecoverable).
                    conn.queue_error(pool, &shared.config, ErrorKind::BadRequest, e.to_string());
                    conn.close_after_flush = true;
                    break;
                }
            }
        }
        // Compact the consumed prefix once per drive, not per frame.
        if conn.rpos > 0 {
            conn.rbuf.drain(..conn.rpos);
            conn.rpos = 0;
        }
    }

    /// Flushes queued replies, closes the connection if its state says
    /// so, and otherwise re-arms epoll interest to match.
    fn finish(&mut self, idx: usize) {
        let Some(conn) = self.conns[idx].as_mut() else {
            return;
        };
        if !conn.dead && conn.flush(&mut self.pool).is_err() {
            conn.dead = true;
        }
        let flushed = conn.outbox.is_empty();
        let close = conn.dead
            || (conn.close_after_flush && flushed)
            // A watcher that hung up releases its slot now; the job
            // keeps running (a reconnecting client re-attaches by
            // fingerprint).
            || (conn.peer_eof && conn.watch.is_some())
            // Clean EOF: no more requests can arrive, replies are out.
            // Any unparsed leftover is a frame that can never complete.
            || (conn.peer_eof && conn.watch.is_none() && flushed);
        if close {
            self.close_conn(idx);
            return;
        }
        let desired = conn.desired_interest();
        if desired != conn.interest
            && self
                .poller
                .modify(conn.stream.as_raw_fd(), conn.token, desired)
                .is_ok()
        {
            conn.interest = desired;
        }
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(mut conn) = self.conns[idx].take() else {
            return;
        };
        let _ = self.poller.delete(conn.stream.as_raw_fd());
        self.pool.put(std::mem::take(&mut conn.rbuf));
        for frame in conn.outbox.drain(..) {
            self.pool.put(frame);
        }
        // Dropping conn.watch drops the receiver; the fanout prunes the
        // subscriber (and its notify hook) on the next publish.
        self.gens[idx] = self.gens[idx].wrapping_add(1);
        self.free.push(idx);
        self.shared
            .active_connections
            .fetch_sub(1, Ordering::SeqCst);
    }

    /// Disconnects idle peers (nothing in flight, no frame for the read
    /// deadline) and stalled writers (queue blocked past the write
    /// deadline). Watching connections are exempt from the idle deadline:
    /// a watch legitimately carries no traffic while its job runs.
    fn sweep_timeouts(&mut self) {
        for idx in 0..self.conns.len() {
            let Some(conn) = self.conns[idx].as_ref() else {
                continue;
            };
            let stalled = conn
                .blocked_since
                .is_some_and(|since| since.elapsed() >= WRITE_TIMEOUT);
            let idle = conn.watch.is_none()
                && conn.outbox.is_empty()
                && conn.last_activity.elapsed() >= READ_TIMEOUT
                // A proxied job legitimately carries no local traffic
                // while the owning node solves it.
                && !conn.jobs.values().any(|e| matches!(e, JobEntry::Proxied { .. }));
            if stalled || idle {
                self.close_conn(idx);
            }
        }
    }

    fn publish_drain_gauge(&self) {
        let watches = self
            .conns
            .iter()
            .flatten()
            .filter(|c| c.watch.is_some())
            .count();
        let unflushed: usize = self.conns.iter().flatten().map(|c| c.out_bytes).sum();
        *lock_unpoisoned(&self.shared.drain_gauge) = (watches, unflushed);
        self.shared.drain_cv.notify_all();
    }

    /// Stop: best-effort Bye to every peer, then close everything.
    fn close_all(&mut self) {
        let pool = &mut self.pool;
        for slot in self.conns.iter_mut() {
            if let Some(conn) = slot.as_mut() {
                conn.queue(pool, &self.shared.config, &Message::Bye);
                let _ = conn.flush(pool);
            }
        }
        for idx in 0..self.conns.len() {
            if self.conns[idx].is_some() {
                self.close_conn(idx);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Frame handling
// ---------------------------------------------------------------------------

/// Handles one decoded request frame, queueing any reply.
fn handle_frame(conn: &mut Conn, pool: &mut BufPool, shared: &Arc<Shared>, message: Message) {
    let config = &shared.config;
    conn.last_activity = Instant::now();
    // Handshake state: the first frame must be a Hello that negotiates
    // and authenticates.
    if !conn.authed {
        match message {
            Message::Hello {
                min_version,
                max_version,
                tenant,
                token,
            } => {
                let Some(version) = wire::negotiate(min_version, max_version) else {
                    conn.queue_error(
                        pool,
                        config,
                        ErrorKind::UnsupportedVersion {
                            min: wire::WIRE_VERSION,
                            max: wire::WIRE_VERSION,
                        },
                        format!(
                            "no common version: client speaks {min_version}..={max_version}, \
                             server speaks {}",
                            wire::WIRE_VERSION
                        ),
                    );
                    conn.close_after_flush = true;
                    return;
                };
                if !shared.service.authenticate(&tenant, &token) {
                    conn.queue_error(
                        pool,
                        config,
                        ErrorKind::AuthFailed,
                        format!("tenant {tenant:?} refused"),
                    );
                    conn.close_after_flush = true;
                    return;
                }
                let ring = lock_unpoisoned(&shared.ring).clone().map(|r| (*r).clone());
                conn.queue(
                    pool,
                    config,
                    &Message::HelloAck {
                        version,
                        server: config.server_name.clone(),
                        ring,
                    },
                );
                conn.tenant = tenant;
                conn.authed = true;
            }
            _ => {
                conn.queue_error(
                    pool,
                    config,
                    ErrorKind::BadRequest,
                    "first frame must be Hello",
                );
                conn.close_after_flush = true;
            }
        }
        return;
    }
    match message {
        Message::TraceBegin {
            fingerprint,
            total_chunks,
            total_bytes,
        } => {
            // Bound what one connection may buffer: a restarted upload
            // for a known fingerprint replaces its assembly, but brand-new
            // concurrent assemblies are capped (every other buffer in the
            // stack is bounded; this must be too).
            if !conn.assemblies.contains_key(&fingerprint)
                && conn.assemblies.len() >= MAX_CONCURRENT_UPLOADS
            {
                conn.rejected_uploads.insert(fingerprint);
                conn.bound_rejected_uploads();
                conn.queue_error(
                    pool,
                    config,
                    ErrorKind::BadChunk,
                    format!(
                        "too many concurrent uploads on one connection \
                         (limit {MAX_CONCURRENT_UPLOADS}); finish one first"
                    ),
                );
                return;
            }
            match TraceAssembler::new(
                fingerprint,
                total_chunks,
                total_bytes,
                config.max_trace_bytes,
            ) {
                Ok(assembler) => {
                    // A restarted upload for the same fingerprint replaces
                    // the stale assembly (and clears any earlier refusal).
                    conn.rejected_uploads.remove(&fingerprint);
                    conn.assemblies.insert(fingerprint, assembler);
                }
                Err(e) => {
                    conn.rejected_uploads.insert(fingerprint);
                    conn.bound_rejected_uploads();
                    conn.queue_error(pool, config, ErrorKind::BadChunk, e.to_string());
                }
            }
        }
        Message::TraceChunk {
            fingerprint,
            index,
            data,
        } => {
            let Some(assembler) = conn.assemblies.get_mut(&fingerprint) else {
                // One refusal per upload: the begin/first-bad-chunk error
                // already went out, so the rest of an already-refused
                // stream is absorbed without a reply.
                if !conn.rejected_uploads.contains(&fingerprint) {
                    conn.queue_error(
                        pool,
                        config,
                        ErrorKind::BadChunk,
                        format!("no upload in progress for {fingerprint} (send TraceBegin first)"),
                    );
                }
                return;
            };
            match assembler.accept(index, data) {
                Ok(None) => {}
                Ok(Some(trace)) => {
                    conn.assemblies.remove(&fingerprint);
                    lock_unpoisoned(&shared.uploads).insert(trace);
                    conn.queue(pool, config, &Message::TraceAck { fingerprint });
                }
                Err(e) => {
                    conn.assemblies.remove(&fingerprint);
                    conn.rejected_uploads.insert(fingerprint);
                    conn.bound_rejected_uploads();
                    conn.queue_error(pool, config, ErrorKind::BadChunk, e.to_string());
                }
            }
        }
        Message::Submit {
            fingerprint,
            priority,
            deadline_ms,
            trace_id,
        } => {
            if shared.draining.load(Ordering::SeqCst) {
                conn.queue_error(
                    pool,
                    config,
                    ErrorKind::ShuttingDown,
                    "server is draining; no new submissions",
                );
                return;
            }
            // Cluster routing: a fingerprint this node does not own is
            // proxied to its owner (trace in hand) or redirected with a
            // typed WrongNode so a ring-aware client can re-dial.
            if let (Some(cluster), Some(ring)) =
                (&config.cluster, lock_unpoisoned(&shared.ring).clone())
            {
                let owner = ring.owner(fingerprint);
                if owner.name != cluster.member {
                    let owner_name = owner.name.clone();
                    let owner_addr = owner.addr.clone();
                    match lock_unpoisoned(&shared.uploads).get(fingerprint) {
                        Some(trace) => {
                            // Mint here if the client did not: the id
                            // must exist before the hop so both nodes'
                            // flight recorders stitch to one trace.
                            let trace_id = trace_id.unwrap_or_else(|| TraceId::mint().0);
                            let obs = shared.service.obs();
                            obs.flight(
                                "forward",
                                Some(TraceId(trace_id)),
                                format!("{fingerprint} to {owner_name} at {owner_addr}"),
                            );
                            let job = PROXIED_JOB_IDS | conn.proxied_minted;
                            conn.proxied_minted += 1;
                            let hub = shared.forward_hub();
                            let queued = hub.submit(ForwardTask {
                                token: conn.token,
                                job,
                                trace,
                                priority,
                                deadline_ms,
                                owner_name,
                                owner_addr,
                                epoch: ring.epoch(),
                                trace_id,
                            });
                            if queued {
                                // The ack (or a typed failure) arrives
                                // asynchronously from the forwarder pool.
                                hub.forwarded_jobs.inc();
                            } else {
                                conn.queue_error(
                                    pool,
                                    config,
                                    ErrorKind::Busy,
                                    "forwarding queue is full; retry later",
                                );
                            }
                        }
                        None => {
                            conn.queue_error(
                                pool,
                                config,
                                ErrorKind::WrongNode {
                                    owner: owner_addr.clone(),
                                },
                                format!(
                                    "fingerprint {fingerprint} is owned by \
                                     {owner_name} at {owner_addr}"
                                ),
                            );
                        }
                    }
                    return;
                }
            }
            submit_local(
                conn,
                pool,
                shared,
                fingerprint,
                priority,
                deadline_ms,
                trace_id,
            );
        }
        Message::SubmitForwarded {
            fingerprint,
            priority,
            deadline_ms,
            epoch,
            trace_id,
        } => {
            // The cluster's loop guard: an already-forwarded submit is
            // never forwarded again. A node that does not own the
            // fingerprint answers a typed WrongNode (counted as a
            // forward error) — the sender's ring was stale.
            let Some(cluster) = &config.cluster else {
                conn.queue_error(
                    pool,
                    config,
                    ErrorKind::BadRequest,
                    "not a cluster node: forwarded submits are not accepted",
                );
                return;
            };
            if shared.draining.load(Ordering::SeqCst) {
                conn.queue_error(
                    pool,
                    config,
                    ErrorKind::ShuttingDown,
                    "server is draining; no new submissions",
                );
                return;
            }
            let ring = lock_unpoisoned(&shared.ring).clone();
            let owned = ring
                .as_ref()
                .is_some_and(|r| r.owns(&cluster.member, fingerprint));
            if !owned {
                shared.forward_hub().forward_errors.inc();
                let (owner, local_epoch) = ring
                    .as_ref()
                    .map(|r| (r.owner(fingerprint).addr.clone(), r.epoch()))
                    .unwrap_or_default();
                conn.queue_error(
                    pool,
                    config,
                    ErrorKind::WrongNode { owner },
                    format!(
                        "already-forwarded submit for a fingerprint this node \
                         does not own (sender epoch {epoch}, local epoch {local_epoch})"
                    ),
                );
                return;
            }
            submit_local(
                conn,
                pool,
                shared,
                fingerprint,
                priority,
                deadline_ms,
                Some(trace_id),
            );
        }
        Message::Watch { job } => match conn.jobs.get(&job) {
            Some(JobEntry::Local) => start_watch(conn, pool, shared, JobId(job)),
            // The drive loop pumps the entry's buffer right away.
            Some(JobEntry::Proxied { .. }) => conn.watch = Some(WatchState::Proxied { job }),
            None => conn.queue_error(
                pool,
                config,
                ErrorKind::UnknownJob { job },
                "not an unfinished job submitted on this connection",
            ),
        },
        Message::Cancel { job } => {
            let cancelled = match conn.jobs.get(&job) {
                Some(JobEntry::Local) => shared.service.cancel(JobId(job)),
                // Remote cancellation is not proxied: the owner solves
                // on (dedup makes the work reusable anyway). Honest
                // answer: not cancelled.
                Some(JobEntry::Proxied { .. }) => false,
                None => {
                    conn.queue_error(
                        pool,
                        config,
                        ErrorKind::UnknownJob { job },
                        "not an unfinished job submitted on this connection",
                    );
                    return;
                }
            };
            conn.queue(pool, config, &Message::CancelAck { job, cancelled });
        }
        Message::QueryFingerprint { fingerprint } => {
            let record = shared
                .service
                .lookup_fingerprint(fingerprint)
                .map(|r| WireRecord {
                    tenant: r.tenant,
                    outcome: WireOutcome::from_outcome(&r.outcome),
                });
            conn.queue(
                pool,
                config,
                &Message::FingerprintInfo {
                    fingerprint,
                    record,
                },
            );
        }
        Message::QueryDimsPage {
            n,
            k,
            cursor,
            limit,
        } => {
            let after = match cursor.as_deref().map(|c| parse_dims_cursor(c, n, k)) {
                None => None,
                Some(Ok(position)) => Some(position),
                Some(Err(why)) => {
                    conn.queue_error(pool, config, ErrorKind::BadRequest, why);
                    return;
                }
            };
            let (entries, next) = shared.service.lookup_dims_page(
                n as usize,
                k as usize,
                after,
                page_limit(config, limit),
            );
            conn.queue(
                pool,
                config,
                &Message::DimsPage {
                    entries: entries.iter().map(wire_entry).collect(),
                    next_cursor: next.map(|position| mint_dims_cursor(n, k, position)),
                },
            );
        }
        Message::QueryHashPage {
            hash,
            cursor,
            limit,
        } => {
            let after = match cursor.as_deref().map(|c| parse_hash_cursor(c, hash)) {
                None => None,
                Some(Ok(idx)) => Some(idx),
                Some(Err(why)) => {
                    conn.queue_error(pool, config, ErrorKind::BadRequest, why);
                    return;
                }
            };
            let (entries, next) =
                shared
                    .service
                    .lookup_hash_page(hash, after, page_limit(config, limit));
            conn.queue(
                pool,
                config,
                &Message::HashPage {
                    entries: entries.iter().map(wire_entry).collect(),
                    next_cursor: next.map(|idx| mint_hash_cursor(hash, idx)),
                },
            );
        }
        Message::QueryMetrics { tail } => {
            let text = shared.service.metrics_text(tail as usize);
            conn.queue(pool, config, &Message::MetricsInfo { text });
        }
        Message::Bye => {
            conn.queue(pool, config, &Message::Bye);
            conn.close_after_flush = true;
        }
        // Server-to-client frames arriving at the server are protocol
        // violations.
        Message::Hello { .. }
        | Message::HelloAck { .. }
        | Message::TraceAck { .. }
        | Message::SubmitAck { .. }
        | Message::Event { .. }
        | Message::Done { .. }
        | Message::CancelAck { .. }
        | Message::FingerprintInfo { .. }
        | Message::DimsPage { .. }
        | Message::HashPage { .. }
        | Message::MetricsInfo { .. }
        | Message::RingChanged { .. }
        | Message::Error { .. } => {
            conn.queue_error(
                pool,
                config,
                ErrorKind::BadRequest,
                "unexpected frame direction",
            );
        }
    }
}

/// The local submit path shared by `Submit` (owned fingerprints) and
/// `SubmitForwarded` (ownership already verified): uploads lookup →
/// service submit → typed ack or refusal.
fn submit_local(
    conn: &mut Conn,
    pool: &mut BufPool,
    shared: &Arc<Shared>,
    fingerprint: Fingerprint,
    priority: Priority,
    deadline_ms: Option<u64>,
    trace_id: Option<u128>,
) {
    let config = &shared.config;
    let Some(trace) = lock_unpoisoned(&shared.uploads).get(fingerprint) else {
        conn.queue_error(
            pool,
            config,
            ErrorKind::UnknownFingerprint { fingerprint },
            "upload the trace before submitting it",
        );
        return;
    };
    // The upload cache's verified trace is shared into the job: the
    // dedup hot path (many submissions of one profile) never copies
    // the trace nor re-hashes it.
    let mut request = JobRequest::shared_trace(&conn.tenant, trace).with_priority(priority);
    if let Some(ms) = deadline_ms {
        request = request.with_deadline(Duration::from_millis(ms));
    }
    // A wire-carried id (client mint, or a forwarding peer passing the
    // origin's id through) wins; otherwise the service mints one at
    // admission.
    if let Some(trace_id) = trace_id {
        request = request.with_trace_id(TraceId(trace_id));
    }
    // Load shedding: service backpressure crosses the wire as a
    // typed error frame, never a dropped socket.
    match shared.service.submit(request) {
        Ok(JobId(job)) => {
            conn.jobs.insert(job, JobEntry::Local);
            conn.queue(pool, config, &Message::SubmitAck { job });
        }
        Err(rejected) => {
            conn.queue_error(
                pool,
                config,
                ErrorKind::from_rejected(&rejected),
                rejected.to_string(),
            );
        }
    }
}

/// Begins streaming a job's events: subscribes with a notify hook that
/// wakes this connection through the reactor, then (only then) checks
/// for an already-terminal result so no terminal event can slip between
/// the check and the subscription.
fn start_watch(conn: &mut Conn, pool: &mut BufPool, shared: &Arc<Shared>, id: JobId) {
    let token = conn.token;
    // The hook captures the WakeHub, not Shared: hooks outlive the watch
    // inside the fanout, and must not pin the service (see WakeHub).
    let hook_wake = Arc::clone(&shared.wake);
    let rx = shared.service.subscribe_notified(
        id,
        Arc::new(move || {
            lock_unpoisoned(&hook_wake.watch_wakeups).push(token);
            hook_wake.waker.wake();
        }),
    );
    if let Some(result) = shared.service.result(id) {
        queue_done(conn, pool, &shared.config, id.0, wire_result(&result));
        return;
    }
    let Some(rx) = rx else {
        // Evicted or never known; result() above also found nothing.
        conn.jobs.remove(&id.0);
        conn.queue_error(
            pool,
            &shared.config,
            ErrorKind::UnknownJob { job: id.0 },
            "job expired from the retention window",
        );
        return;
    };
    conn.watch = Some(WatchState::Local { id, rx });
    // The caller's drive loop pumps immediately, catching events (or a
    // terminal result) that landed while we subscribed.
}

/// Drains ready events for an active watch into the write queue and ends
/// the watch with the terminal frame once the job is done: a local job
/// drains its service fanout, a proxied job its buffered entry.
fn pump_watch(conn: &mut Conn, pool: &mut BufPool, shared: &Arc<Shared>) {
    let id = match conn.watch {
        Some(WatchState::Local { id, .. }) => id,
        Some(WatchState::Proxied { job }) => return pump_proxied(conn, pool, &shared.config, job),
        None => return,
    };
    loop {
        let received = match conn.watch.as_mut() {
            Some(WatchState::Local { rx, .. }) => rx.try_recv(),
            _ => return,
        };
        match received {
            Ok(event) => {
                if let Some(wire_event) = wire_event(&event) {
                    let frame = Message::Event {
                        job: id.0,
                        event: wire_event,
                    };
                    conn.queue(pool, &shared.config, &frame);
                    if conn.overflowed {
                        return; // queue() already tore the watch down
                    }
                }
            }
            Err(mpsc::TryRecvError::Empty) => break,
            Err(mpsc::TryRecvError::Disconnected) => {
                // The job's event fan-out is gone: it was evicted from
                // the retention window (or the service stopped). One
                // final result check, then a typed answer either way.
                conn.watch = None;
                conn.jobs.remove(&id.0);
                match shared.service.result(id) {
                    Some(result) => {
                        queue_done(conn, pool, &shared.config, id.0, wire_result(&result))
                    }
                    None => conn.queue_error(
                        pool,
                        &shared.config,
                        ErrorKind::UnknownJob { job: id.0 },
                        "job expired from the retention window before its result was read",
                    ),
                }
                return;
            }
        }
    }
    // Result is set before the terminal event publishes (same lock), so
    // when the last notify fired this check concludes the watch.
    if let Some(result) = shared.service.result(id) {
        queue_done(conn, pool, &shared.config, id.0, wire_result(&result));
    }
}

/// Streams a proxied job's buffered events, then its Done once the
/// forwarder has filed the result.
fn pump_proxied(conn: &mut Conn, pool: &mut BufPool, config: &NetServerConfig, job: u64) {
    let Some(JobEntry::Proxied { events, result }) = conn.jobs.get_mut(&job) else {
        return;
    };
    let events = std::mem::take(events);
    let result = result.take();
    for event in events {
        conn.queue(pool, config, &Message::Event { job, event });
        if conn.overflowed {
            return; // queue() already tore the watch down
        }
    }
    if let Some(result) = result {
        queue_done(conn, pool, config, job, result);
    }
}

/// Queues a job's Done frame and retires the job: the watch ends and the
/// id leaves the job table, so a later Watch or Cancel of it is an
/// `UnknownJob`.
fn queue_done(
    conn: &mut Conn,
    pool: &mut BufPool,
    config: &NetServerConfig,
    job: u64,
    result: WireResult,
) {
    conn.watch = None;
    conn.jobs.remove(&job);
    conn.queue(pool, config, &Message::Done { job, result });
}

/// A service job's result as it crosses the wire.
fn wire_result(result: &beer_service::JobResult) -> WireResult {
    match result {
        Ok(output) => Ok(WireOutput {
            outcome: WireOutcome::from_outcome(&output.outcome),
            from_cache: output.from_cache,
            coalesced_into: output.coalesced_into.map(|JobId(j)| j),
        }),
        Err(e) => Err(WireJobError::from_error(e)),
    }
}

// ---------------------------------------------------------------------------
// Pagination cursors
// ---------------------------------------------------------------------------
//
// A cursor is opaque to the client but self-validating to the server:
// `kind ‖ query params ‖ position ‖ FNV-1a checksum`. Embedding the query
// params binds a cursor to the query that minted it, and the checksum
// turns random or bit-rotted bytes into a typed BadRequest instead of a
// silently wrong page. The position is the registry's stable resume
// point — dims runs are append-only and hash buckets never reorder, so a
// cursor stays valid across compactions and concurrent appends.

const CURSOR_DIMS: u8 = 1;
const CURSOR_HASH: u8 = 2;

fn fnv1a(bytes: &[u8]) -> u32 {
    let mut hash: u32 = 0x811c_9dc5;
    for &b in bytes {
        hash ^= u32::from(b);
        hash = hash.wrapping_mul(0x0100_0193);
    }
    hash
}

fn mint_dims_cursor(n: u32, k: u32, (hash, idx): (u64, u32)) -> Vec<u8> {
    let mut c = Vec::with_capacity(25);
    c.push(CURSOR_DIMS);
    c.extend_from_slice(&n.to_be_bytes());
    c.extend_from_slice(&k.to_be_bytes());
    c.extend_from_slice(&hash.to_be_bytes());
    c.extend_from_slice(&idx.to_be_bytes());
    let sum = fnv1a(&c);
    c.extend_from_slice(&sum.to_be_bytes());
    c
}

fn parse_dims_cursor(c: &[u8], n: u32, k: u32) -> Result<(u64, u32), &'static str> {
    if c.len() != 25 {
        return Err("malformed dims cursor");
    }
    if fnv1a(&c[..21]) != u32::from_be_bytes(c[21..25].try_into().unwrap()) {
        return Err("dims cursor checksum mismatch");
    }
    if c[0] != CURSOR_DIMS
        || u32::from_be_bytes(c[1..5].try_into().unwrap()) != n
        || u32::from_be_bytes(c[5..9].try_into().unwrap()) != k
    {
        return Err("cursor does not belong to this query");
    }
    Ok((
        u64::from_be_bytes(c[9..17].try_into().unwrap()),
        u32::from_be_bytes(c[17..21].try_into().unwrap()),
    ))
}

fn mint_hash_cursor(hash: u64, idx: u32) -> Vec<u8> {
    let mut c = Vec::with_capacity(17);
    c.push(CURSOR_HASH);
    c.extend_from_slice(&hash.to_be_bytes());
    c.extend_from_slice(&idx.to_be_bytes());
    let sum = fnv1a(&c);
    c.extend_from_slice(&sum.to_be_bytes());
    c
}

fn parse_hash_cursor(c: &[u8], hash: u64) -> Result<u32, &'static str> {
    if c.len() != 17 {
        return Err("malformed hash cursor");
    }
    if fnv1a(&c[..13]) != u32::from_be_bytes(c[13..17].try_into().unwrap()) {
        return Err("hash cursor checksum mismatch");
    }
    if c[0] != CURSOR_HASH || u64::from_be_bytes(c[1..9].try_into().unwrap()) != hash {
        return Err("cursor does not belong to this query");
    }
    Ok(u32::from_be_bytes(c[9..13].try_into().unwrap()))
}

/// The server-side page size: a client limit of 0 means "server's cap",
/// anything else is clamped to it.
fn page_limit(config: &NetServerConfig, limit: u32) -> usize {
    let cap = config.max_query_entries.max(1);
    if limit == 0 {
        cap
    } else {
        (limit as usize).min(cap)
    }
}

fn wire_entry(entry: &CodeEntry) -> wire::WireCodeEntry {
    wire::WireCodeEntry {
        hash: entry.hash,
        code: entry.code.clone(),
        fingerprints: entry.fingerprints.clone(),
    }
}

/// Maps a service event to its wire twin (session progress flattens to a
/// rendered detail line).
fn wire_event(event: &JobEvent) -> Option<WireEvent> {
    Some(match event {
        JobEvent::Submitted { tenant, .. } => WireEvent::Submitted {
            tenant: tenant.clone(),
        },
        JobEvent::StateChanged { state, .. } => WireEvent::State { state: *state },
        JobEvent::Coalesced { primary, .. } => WireEvent::Coalesced { primary: primary.0 },
        JobEvent::CacheHit { .. } => WireEvent::CacheHit,
        JobEvent::Requeued { .. } => WireEvent::Requeued,
        JobEvent::Progress { event, .. } => WireEvent::Progress {
            detail: format!("{event:?}"),
        },
    })
}
