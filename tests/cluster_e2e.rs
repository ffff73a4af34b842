//! End-to-end cluster semantics over real loopback sockets: a submit to
//! a non-owner is proxied to the owning node and solved there exactly
//! once, an already-forwarded submit arriving at a non-owner is a typed
//! `WrongNode` (never forwarded again — the loop guard), a client with
//! a stale ring follows the typed redirect and lands exactly one job,
//! and duplicate submissions from clients on *different* nodes coalesce
//! onto one solve with both receiving the terminal result. One
//! connection may hold local and proxied jobs at once, and each id
//! answers with its own profile's result; nodes with closed tenant sets
//! forward under the peer credentials the cluster was launched with.

use beer::cluster::{Cluster, ClusterClient, DEFAULT_VNODES};
use beer::net::{Client, ClientError, ClusterConfig, ErrorKind, NetServerConfig, Ring, RingMember};
use beer::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn record_trace(code: &LinearCode) -> ProfileTrace {
    let patterns = PatternSet::OneTwo.patterns(code.k());
    let mut backend = AnalyticBackend::new(code.clone());
    ProfileTrace::record(&mut backend, &patterns, &CollectionPlan::quick())
}

fn start_service() -> Arc<RecoveryService> {
    Arc::new(RecoveryService::start(ServiceConfig::new().with_workers(2)).expect("start service"))
}

fn two_node_cluster() -> Cluster {
    Cluster::launch(vec![start_service(), start_service()]).expect("launch cluster")
}

/// A trace whose fingerprint the named ring member owns (distinct seeds
/// give distinct profiles, so both owners appear within a few tries).
fn trace_owned_by(ring: &Ring, name: &str) -> ProfileTrace {
    for seed in 0..64 {
        let code = hamming::random_sec(8, &mut StdRng::seed_from_u64(seed));
        let trace = record_trace(&code);
        if ring.owner(trace.fingerprint()).name == name {
            return trace;
        }
    }
    panic!("no trace owned by {name} in 64 tries — ring balance is broken");
}

fn unique_code(result: beer::net::WireResult) -> LinearCode {
    let output = result.expect("job solves");
    match output.outcome {
        WireOutcome::Unique(code) => code,
        other => panic!("expected a unique recovery, got {other:?}"),
    }
}

/// The tentpole forwarding path: a client that only speaks to a
/// non-owner still gets its profile solved — by the owner, via the
/// node-to-node proxy — and the gauges on both nodes say so.
#[test]
fn forwarded_submit_solves_on_owner() {
    let cluster = two_node_cluster();
    let trace = trace_owned_by(cluster.ring(), "node-1");

    // Speak only to node-0, the non-owner; stage the trace there so the
    // submit takes the forward path instead of a redirect.
    let mut client = Client::connect(cluster.addrs()[0].clone(), "alice", "").expect("connect");
    client.upload_trace(&trace).expect("upload to non-owner");
    let job = client.submit(&trace).expect("forwarded submit acks");
    let code = unique_code(client.wait(job).expect("forwarded watch completes"));

    let secret_profile = trace.fingerprint();
    let owner = cluster.nodes()[1].service().stats();
    let proxy = cluster.nodes()[0].service().stats();
    assert_eq!(owner.submitted, 1, "the owner solves the job");
    assert_eq!(proxy.submitted, 0, "the non-owner must not solve locally");
    assert_eq!(proxy.forwarded_jobs, 1, "the proxy counts its forward");
    assert_eq!(proxy.forward_errors, 0);
    // The owner's registry answers for the fingerprint — the solve
    // landed where the ring says it lives.
    let record = cluster.nodes()[1]
        .service()
        .lookup_fingerprint(secret_profile)
        .expect("owner registry holds the fingerprint");
    match record.outcome {
        CodeOutcome::Unique(owned) => {
            assert_eq!(owned.parity_submatrix(), code.parity_submatrix());
        }
        other => panic!("expected a unique registry record, got {other:?}"),
    }
    cluster.shutdown(Duration::from_secs(2));
}

/// Cross-node trace correlation: the trace id minted at
/// submission rides the forward hop, so querying metrics on the origin
/// *and* the owner finds the same 32-hex id — the origin's "forward"
/// flight event and the owner's admission/dispatch events stitch into
/// one trace. The owner additionally reports non-empty per-stage
/// pipeline histograms for the solve it ran.
#[test]
fn forwarded_job_reports_one_trace_id_on_both_nodes() {
    let cluster = two_node_cluster();
    let trace = trace_owned_by(cluster.ring(), "node-1");

    let mut client = Client::connect(cluster.addrs()[0].clone(), "alice", "").expect("connect");
    client.upload_trace(&trace).expect("upload to non-owner");
    let job = client.submit(&trace).expect("forwarded submit acks");
    let trace_id = job.trace_id;
    unique_code(client.wait(job).expect("forwarded watch completes"));

    let hex = format!("{trace_id:032x}");
    let origin_metrics = client.query_metrics(64).expect("origin metrics");
    let mut owner =
        Client::connect(cluster.addrs()[1].clone(), "alice", "").expect("connect owner");
    let owner_metrics = owner.query_metrics(64).expect("owner metrics");
    assert!(
        origin_metrics.contains(&hex),
        "the origin's flight recorder must name the trace id {hex}:\n{origin_metrics}"
    );
    assert!(
        owner_metrics.contains(&hex),
        "the owner's flight recorder must name the same trace id {hex}:\n{owner_metrics}"
    );
    assert!(
        origin_metrics.contains("flight") && origin_metrics.contains("forward"),
        "the origin records the forward hop:\n{origin_metrics}"
    );

    // The per-stage pipeline breakdown (paper Fig. 6 style) lands where
    // the solve ran: every stage histogram on the owner has samples.
    for series in [
        "pipeline_collect_ns",
        "pipeline_preprocess_ns",
        "pipeline_encode_ns",
        "pipeline_solve_ns",
        "service_queue_wait_ns",
        "service_solve_ns",
    ] {
        assert!(
            owner_metrics.contains(&format!("histogram {series} count=")),
            "owner exposition is missing {series}:\n{owner_metrics}"
        );
        assert!(
            !owner_metrics.contains(&format!("histogram {series} count=0 ")),
            "owner ran the solve, so {series} must have samples:\n{owner_metrics}"
        );
    }
    cluster.shutdown(Duration::from_secs(2));
}

/// The loop guard: a node receiving an *already-forwarded* submit for a
/// fingerprint it does not own answers a typed `WrongNode` carrying the
/// true owner, counts a forward error, and never forwards again.
#[test]
fn already_forwarded_misroute_is_typed() {
    let cluster = two_node_cluster();
    let trace = trace_owned_by(cluster.ring(), "node-1");
    let owner_addr = cluster.addrs()[1].clone();

    let mut client = Client::connect(cluster.addrs()[0].clone(), "mallory", "").expect("connect");
    let misrouted = client.submit_forwarded(
        &VerifiedTrace::from(trace),
        Priority::Normal,
        None,
        1,
        0x7E57,
    );
    match misrouted {
        Err(ClientError::Refused {
            kind: ErrorKind::WrongNode { owner },
            ..
        }) => assert_eq!(owner, owner_addr, "the redirect names the true owner"),
        other => panic!("expected a WrongNode refusal, got {other:?}"),
    }

    let node0 = cluster.nodes()[0].service().stats();
    let node1 = cluster.nodes()[1].service().stats();
    assert_eq!(node0.forward_errors, 1, "the misroute is counted");
    assert_eq!(node0.forwarded_jobs, 0, "and is never forwarded again");
    assert_eq!(node0.submitted, 0);
    assert_eq!(node1.submitted, 0, "the owner never hears about it");
    cluster.shutdown(Duration::from_secs(2));
}

/// A client holding a stale ring follows the typed `WrongNode` redirect
/// to the new owner, adopts the pushed epoch-2 ring, and exactly one
/// job lands in the cluster.
#[test]
fn stale_epoch_redirect_lands_one_job() {
    let mut cluster = two_node_cluster();
    let trace = record_trace(&hamming::shortened(8));
    let fingerprint = trace.fingerprint();

    // Connect while epoch 1 is installed: the client adopts it.
    let mut client = ClusterClient::connect(cluster.addrs(), "alice", "").expect("connect");
    assert_eq!(client.ring().expect("ring from HelloAck").epoch(), 1);
    let stale_owner = cluster.ring().owner(fingerprint).name.clone();

    // Move ownership of *everything* to the other node at epoch 2. The
    // client still routes with its stale epoch-1 ring, so its submit
    // hits a non-owner and must come back as a redirect.
    let new_owner = usize::from(stale_owner == "node-0");
    let epoch2 = Ring::new(
        2,
        64,
        vec![RingMember {
            name: cluster.nodes()[new_owner].name.clone(),
            addr: cluster.nodes()[new_owner].addr(),
        }],
    )
    .expect("single-member ring");
    cluster.install_ring(epoch2);

    let job = client.submit(&trace).expect("redirected submit lands");
    assert_eq!(
        job.addr,
        cluster.nodes()[new_owner].addr(),
        "the job landed on the epoch-2 owner"
    );
    unique_code(client.wait(&job).expect("watch completes"));
    assert_eq!(
        client.ring().expect("ring").epoch(),
        2,
        "the redirect carried the fresher ring"
    );

    let landed = cluster.nodes()[new_owner].service().stats();
    let stale = cluster.nodes()[1 - new_owner].service().stats();
    assert_eq!(landed.submitted, 1, "exactly one job in the cluster");
    assert_eq!(stale.submitted, 0);
    assert_eq!(stale.forwarded_jobs, 0, "a redirect is not a forward");
    cluster.shutdown(Duration::from_secs(2));
}

/// The cluster keeps the single-service dedup guarantee across nodes:
/// the same profile submitted through *different* nodes is solved once,
/// and both clients receive the identical terminal result.
#[test]
fn cross_node_duplicate_coalesces_to_one_solve() {
    let cluster = two_node_cluster();
    let trace = trace_owned_by(cluster.ring(), "node-0");

    // Client A speaks to the owner directly (ring-aware routing).
    let mut alice = ClusterClient::connect(cluster.addrs(), "alice", "").expect("connect alice");
    // Client B speaks only to the non-owner and stages the trace there,
    // so its duplicate travels the cross-node forward path.
    let mut bob = Client::connect(cluster.addrs()[1].clone(), "bob", "").expect("connect bob");
    bob.upload_trace(&trace).expect("upload to non-owner");

    let job_a = alice.submit(&trace).expect("owner submit");
    assert_eq!(job_a.addr, cluster.addrs()[0], "alice routed to the owner");
    let job_b = bob.submit(&trace).expect("forwarded duplicate");

    let code_a = unique_code(alice.wait(&job_a).expect("alice terminal result"));
    let code_b = unique_code(bob.wait(job_b).expect("bob terminal result"));
    assert_eq!(
        code_a.parity_submatrix(),
        code_b.parity_submatrix(),
        "both clients recover the identical code"
    );

    let owner = cluster.nodes()[0].service().stats();
    let proxy = cluster.nodes()[1].service().stats();
    assert_eq!(owner.submitted, 2, "both submissions reach the owner");
    assert_eq!(
        owner.cache_hits + owner.coalesced,
        1,
        "exactly one of the two is actually solved"
    );
    assert_eq!(proxy.submitted, 0);
    assert_eq!(proxy.forwarded_jobs, 1);
    cluster.shutdown(Duration::from_secs(2));
}

/// One connection, two kinds of job: a client on node-1 submits a
/// profile node-1 owns (solved locally) and a staged profile node-0
/// owns (proxied). The two acks must name different jobs, and each wait
/// must return its own profile's code — a proxied job's id can never
/// alias a local one on the same connection.
#[test]
fn local_and_proxied_jobs_on_one_connection_keep_their_own_results() {
    let cluster = two_node_cluster();
    let local = trace_owned_by(cluster.ring(), "node-1");
    let proxied = trace_owned_by(cluster.ring(), "node-0");

    let mut client = Client::connect(cluster.addrs()[1].clone(), "alice", "").expect("connect");
    let local_job = client.submit(&local).expect("local submit acks");
    client.upload_trace(&proxied).expect("stage on non-owner");
    let proxied_job = client.submit(&proxied).expect("forwarded submit acks");
    let local_code = unique_code(client.wait(local_job).expect("local watch completes"));
    let proxied_code = unique_code(client.wait(proxied_job).expect("proxied watch completes"));
    for (node, trace, code) in [(1, &local, &local_code), (0, &proxied, &proxied_code)] {
        let record = cluster.nodes()[node]
            .service()
            .lookup_fingerprint(trace.fingerprint())
            .expect("the owner's registry holds the fingerprint");
        match record.outcome {
            CodeOutcome::Unique(owned) => assert!(
                equivalent(code, &owned),
                "a wait on node-{node}'s job returned another profile's code"
            ),
            other => panic!("expected a unique registry record, got {other:?}"),
        }
    }
    assert!(
        proxied_job.id >= 1 << 63,
        "proxied ids come from the upper half of the id space, got {}",
        proxied_job.id
    );
    assert_ne!(
        local_job.id, proxied_job.id,
        "a proxied job must not share an id with a local job on one connection"
    );
    cluster.shutdown(Duration::from_secs(2));
}

/// Peer credentials given to `Cluster::launch_with` reach every node:
/// two nodes whose closed tenant sets include the peer tenant forward a
/// staged submit and solve it on the owner.
#[test]
fn closed_tenant_nodes_forward_with_the_configured_peer_auth() {
    let tenants = [("alice", "alice-token"), ("peers", "peer-token")];
    let services = (0..2)
        .map(|_| {
            let config = ServiceConfig::new().with_workers(2).with_tenants(tenants);
            Arc::new(RecoveryService::start(config).expect("start service"))
        })
        .collect();
    let base = NetServerConfig::new()
        .with_cluster(ClusterConfig::new("any").with_peer_auth("peers", "peer-token"));
    let cluster = Cluster::launch_with(services, base, DEFAULT_VNODES).expect("launch cluster");
    let trace = trace_owned_by(cluster.ring(), "node-1");

    let mut client =
        Client::connect(cluster.addrs()[0].clone(), "alice", "alice-token").expect("connect");
    client.upload_trace(&trace).expect("upload to non-owner");
    let job = client.submit(&trace).expect("forwarded submit acks");
    unique_code(client.wait(job).expect("forwarded watch completes"));

    let owner = cluster.nodes()[1].service().stats();
    let proxy = cluster.nodes()[0].service().stats();
    assert_eq!(owner.submitted, 1, "the owner solves the job");
    assert_eq!(proxy.submitted, 0);
    assert_eq!(proxy.forwarded_jobs, 1);
    assert_eq!(proxy.forward_errors, 0, "the owner accepts the peer tenant");
    cluster.shutdown(Duration::from_secs(2));
}
