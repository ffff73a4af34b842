//! End-to-end semantics of the network edge: a remote submission recovers
//! the same code as a local session (bit-identical), duplicate
//! submissions from distinct clients coalesce onto one job with both
//! receiving the streamed terminal event, a dropped connection resumes by
//! fingerprint without re-solving, typed backpressure crosses the wire,
//! and a restarted server answers from the replayed registry.

use beer::net::wire::{self, ErrorKind, Message};
use beer::net::{Client, ClientConfig, ClientError, NetServer, NetServerConfig, WireOutcome};
use beer::prelude::*;
use rand::SeedableRng;
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn record_trace(code: &LinearCode) -> ProfileTrace {
    let patterns = PatternSet::OneTwo.patterns(code.k());
    let mut backend = AnalyticBackend::new(code.clone());
    ProfileTrace::record(&mut backend, &patterns, &CollectionPlan::quick())
}

fn temp_registry(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("beer_net_{name}_{}.log", std::process::id()))
}

/// A backend that parks its single unit until released — holds a worker
/// busy so queueing and coalescing decisions are deterministic.
#[derive(Clone)]
struct GateSource {
    released: Arc<AtomicBool>,
    running: Arc<AtomicBool>,
}

impl GateSource {
    fn new() -> Self {
        GateSource {
            released: Arc::new(AtomicBool::new(false)),
            running: Arc::new(AtomicBool::new(false)),
        }
    }
}

impl ProfileSource for GateSource {
    fn k(&self) -> usize {
        8
    }

    fn label(&self) -> String {
        "gate".to_string()
    }

    fn num_units(&self, _patterns: &[ChargedSet], _plan: &CollectionPlan) -> usize {
        1
    }

    fn run_unit(
        &mut self,
        _unit: usize,
        _patterns: &[ChargedSet],
        _plan: &CollectionPlan,
        _profile: &mut MiscorrectionProfile,
    ) -> Result<(), EngineError> {
        self.running.store(true, Ordering::SeqCst);
        while !self.released.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(())
    }
}

fn wait_flag(flag: &AtomicBool, what: &str) {
    for _ in 0..5000 {
        if flag.load(Ordering::SeqCst) {
            return;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    panic!("timed out waiting for {what}");
}

/// The headline acceptance property: a trace submitted over the wire
/// recovers the *bit-identical* canonical code a local session recovers
/// from the same trace.
#[test]
fn remote_recovery_is_bit_identical_to_local() {
    let secret = hamming::shortened(8);
    let trace = record_trace(&secret);

    // Local: a RecoverySession over the same trace.
    let mut local_backend = ReplayBackend::new(trace.clone());
    let report = RecoveryConfig::new()
        .session(&mut local_backend)
        .run_to_completion()
        .expect("local session");
    let RecoveryOutcome::Unique(local_code) = report.outcome else {
        panic!("local session must be unique, got {:?}", report.outcome);
    };
    let local_canonical = canonicalize(&local_code);

    // Remote: the same trace through the full network stack.
    let service =
        Arc::new(RecoveryService::start(ServiceConfig::new().with_workers(2)).expect("start"));
    let server =
        NetServer::bind(Arc::clone(&service), "127.0.0.1:0", NetServerConfig::new()).expect("bind");
    let mut client =
        Client::connect(server.local_addr().to_string(), "alice", "").expect("connect");
    let job = client.submit(&trace).expect("submit");
    assert_eq!(job.fingerprint, trace.fingerprint());
    let output = client
        .wait(job)
        .expect("watch completes")
        .expect("clean profile solves");
    let WireOutcome::Unique(remote_code) = output.outcome else {
        panic!("remote recovery must be unique, got {:?}", output.outcome);
    };

    assert_eq!(
        remote_code.parity_submatrix(),
        local_canonical.parity_submatrix(),
        "remote and local recoveries must be bit-identical"
    );
    assert!(equivalent(&remote_code, &secret));
    server.shutdown(Duration::from_secs(2));
}

/// Duplicate submissions from two distinct clients coalesce onto one
/// in-flight job; both receive the streamed terminal event and the same
/// code; only one solve happens.
#[test]
fn duplicate_submissions_from_distinct_clients_coalesce() {
    let secret = hamming::shortened(8);
    let trace = record_trace(&secret);

    let service =
        Arc::new(RecoveryService::start(ServiceConfig::new().with_workers(1)).expect("start"));
    let server =
        NetServer::bind(Arc::clone(&service), "127.0.0.1:0", NetServerConfig::new()).expect("bind");
    let addr = server.local_addr().to_string();

    // Hold the single worker busy so both remote jobs are in flight
    // together and the second deterministically coalesces.
    let gate = GateSource::new();
    let gate_job = service
        .submit(JobRequest::source("warden", "gate", Box::new(gate.clone())))
        .expect("gate admitted");
    wait_flag(&gate.running, "gate to start");

    let mut alice = Client::connect(&addr, "alice", "").expect("alice connects");
    let mut bob = Client::connect(&addr, "bob", "").expect("bob connects");
    let job_a = alice.submit(&trace).expect("alice submits");
    let job_b = bob
        .submit(&trace)
        .expect("bob attaches to the same fingerprint");
    assert_ne!(job_a.id, job_b.id, "each submission gets its own job id");
    assert_eq!(job_a.fingerprint, job_b.fingerprint);

    let (tx, rx) = std::sync::mpsc::channel();
    let watcher = std::thread::spawn(move || {
        let mut saw_terminal = false;
        let result = bob
            .wait_with(job_b, |event| {
                if matches!(
                    event,
                    beer::net::WireEvent::State {
                        state: JobState::Done
                    }
                ) {
                    saw_terminal = true;
                }
            })
            .expect("bob's watch completes")
            .expect("bob's job completes");
        tx.send((result, saw_terminal)).expect("send");
    });
    // Let bob's Watch frame register server-side while the job is still
    // gated, so the terminal event deterministically streams through it.
    std::thread::sleep(Duration::from_millis(300));
    gate.released.store(true, Ordering::SeqCst);
    let _ = service.wait(gate_job);

    let out_a = alice
        .wait(job_a)
        .expect("alice watch")
        .expect("alice completes");
    let (out_b, bob_saw_terminal) = rx.recv_timeout(Duration::from_secs(30)).expect("bob");
    watcher.join().expect("watcher thread");

    let code_a = out_a.outcome.unique_code().expect("unique").clone();
    let code_b = out_b.outcome.unique_code().expect("unique").clone();
    assert_eq!(
        code_a.parity_submatrix(),
        code_b.parity_submatrix(),
        "both clients share one recovery"
    );
    assert!(bob_saw_terminal, "the waiter streams the terminal event");
    assert_eq!(
        out_b.coalesced_into,
        Some(job_a.id),
        "bob's job coalesced onto alice's"
    );

    let stats = service.stats();
    assert_eq!(stats.coalesced, 1, "exactly one coalesce");
    assert_eq!(stats.cache_hits, 0, "no cache on a fresh service");
    server.shutdown(Duration::from_secs(2));
}

/// A client that loses its connection mid-wait reconnects and re-attaches
/// to the in-flight job by fingerprint — nothing is re-solved.
#[test]
fn dropped_connection_resumes_by_fingerprint() {
    let secret = hamming::shortened(8);
    let trace = record_trace(&secret);

    let service =
        Arc::new(RecoveryService::start(ServiceConfig::new().with_workers(1)).expect("start"));
    let server =
        NetServer::bind(Arc::clone(&service), "127.0.0.1:0", NetServerConfig::new()).expect("bind");
    let addr = server.local_addr();

    // Hold the worker so the remote job stays in flight across the drop.
    let gate = GateSource::new();
    let gate_job = service
        .submit(JobRequest::source("warden", "gate", Box::new(gate.clone())))
        .expect("gate admitted");
    wait_flag(&gate.running, "gate to start");

    let mut client = Client::connect_with(
        addr.to_string(),
        "alice",
        "",
        ClientConfig::new().with_reconnect(20, Duration::from_millis(100)),
    )
    .expect("connect");
    let job = client.submit(&trace).expect("submit");

    let waiter = std::thread::spawn(move || client.wait(job));

    // Kill the network edge mid-watch (the service keeps running), then
    // bring a new server up on the same address.
    std::thread::sleep(Duration::from_millis(200));
    drop(server);
    let server2 = {
        let mut last_err = None;
        let mut bound = None;
        for _ in 0..100 {
            match NetServer::bind(Arc::clone(&service), addr, NetServerConfig::new()) {
                Ok(s) => {
                    bound = Some(s);
                    break;
                }
                Err(e) => {
                    last_err = Some(e);
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        }
        bound.unwrap_or_else(|| panic!("rebind failed: {last_err:?}"))
    };

    // Let the client's reconnect find the new server, then release the
    // solve.
    std::thread::sleep(Duration::from_millis(300));
    gate.released.store(true, Ordering::SeqCst);
    let _ = service.wait(gate_job);

    let output = waiter
        .join()
        .expect("waiter thread")
        .expect("resumed wait completes")
        .expect("resumed job solves");
    let code = output.outcome.unique_code().expect("unique");
    assert!(equivalent(code, &secret));

    let stats = service.stats();
    // The resume re-attached (coalesce on the in-flight job or a cache
    // hit if the solve finished first) — it never solved a second time.
    assert_eq!(
        stats.coalesced + stats.cache_hits,
        1,
        "resume must re-attach, not re-solve: {stats:?}"
    );
    server2.shutdown(Duration::from_secs(2));
}

/// Admission backpressure crosses the wire as typed error frames — load
/// shedding, not dropped sockets.
#[test]
fn backpressure_is_typed_on_the_wire() {
    let service = Arc::new(
        RecoveryService::start(
            ServiceConfig::new()
                .with_workers(1)
                .with_queue_capacity(1)
                .with_tenants([("alice", "hunter2")]),
        )
        .expect("start"),
    );
    let server =
        NetServer::bind(Arc::clone(&service), "127.0.0.1:0", NetServerConfig::new()).expect("bind");
    let addr = server.local_addr().to_string();

    // Wrong token: a typed auth refusal at Hello time.
    match Client::connect(&addr, "alice", "wrong") {
        Err(ClientError::Refused {
            kind: ErrorKind::AuthFailed,
            ..
        }) => {}
        Err(other) => panic!("expected AuthFailed, got {other:?}"),
        Ok(_) => panic!("wrong token must not connect"),
    }
    // Unknown tenant: same gate.
    match Client::connect(&addr, "mallory", "hunter2") {
        Err(ClientError::Refused {
            kind: ErrorKind::AuthFailed,
            ..
        }) => {}
        Err(other) => panic!("expected AuthFailed, got {other:?}"),
        Ok(_) => panic!("unknown tenant must not connect"),
    }

    let mut client = Client::connect(&addr, "alice", "hunter2").expect("right token connects");

    // Fill the queue: the gate occupies the worker, one trace queues,
    // the next distinct trace is typed QueueFull.
    let gate = GateSource::new();
    let gate_job = service
        .submit(JobRequest::source("alice", "gate", Box::new(gate.clone())))
        .expect("gate admitted");
    wait_flag(&gate.running, "gate to start");

    let mut rng = rand::rngs::StdRng::seed_from_u64(0xB00);
    let trace1 = record_trace(&hamming::random_sec(8, &mut rng));
    let trace2 = record_trace(&hamming::random_sec(8, &mut rng));
    let queued = client.submit(&trace1).expect("fills the queue");
    match client.submit(&trace2) {
        Err(
            e @ ClientError::Refused {
                kind: ErrorKind::QueueFull { capacity: 1 },
                ..
            },
        ) => assert!(e.is_backpressure()),
        other => panic!("expected QueueFull, got {other:?}"),
    }

    gate.released.store(true, Ordering::SeqCst);
    let _ = service.wait(gate_job);
    let _ = client
        .wait(queued)
        .expect("queued watch")
        .expect("queued job completes");
    server.shutdown(Duration::from_secs(2));
}

/// Raw-socket protocol behavior: version negotiation refusals, submits
/// for unuploaded fingerprints, foreign job ids, and garbage frames are
/// all typed errors.
#[test]
fn protocol_violations_are_typed_errors() {
    let service =
        Arc::new(RecoveryService::start(ServiceConfig::new().with_workers(1)).expect("start"));
    let server =
        NetServer::bind(Arc::clone(&service), "127.0.0.1:0", NetServerConfig::new()).expect("bind");
    let addr = server.local_addr();
    let max = wire::DEFAULT_MAX_FRAME_BYTES;

    // A client from the past (a v4, v5 or v6 build) or the future: no
    // common version. A v5 peer is turned away here, at Hello, not by
    // an unknown stats tag mid-session.
    for (min_version, max_version) in [(1, 4), (5, 5), (6, 6), (8, 9)] {
        let mut stream = TcpStream::connect(addr).expect("connect");
        wire::write_message(
            &mut stream,
            &Message::Hello {
                min_version,
                max_version,
                tenant: "t".to_string(),
                token: String::new(),
            },
        )
        .expect("send");
        match wire::read_message(&mut stream, max) {
            Ok(Message::Error {
                kind: ErrorKind::UnsupportedVersion { min, max },
                ..
            }) => {
                assert_eq!((min, max), (wire::WIRE_VERSION, wire::WIRE_VERSION));
            }
            other => panic!("expected UnsupportedVersion, got {other:?}"),
        }
    }

    // Submit before upload, watch/cancel of a foreign id, then garbage.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        wire::write_message(
            &mut stream,
            &Message::Hello {
                min_version: wire::WIRE_VERSION,
                max_version: wire::WIRE_VERSION,
                tenant: "t".to_string(),
                token: String::new(),
            },
        )
        .expect("send hello");
        assert!(matches!(
            wire::read_message(&mut stream, max),
            Ok(Message::HelloAck {
                version: wire::WIRE_VERSION,
                ..
            })
        ));

        let fingerprint = Fingerprint(42);
        wire::write_message(
            &mut stream,
            &Message::Submit {
                fingerprint,
                priority: Priority::Normal,
                deadline_ms: None,
                trace_id: None,
            },
        )
        .expect("send submit");
        match wire::read_message(&mut stream, max) {
            Ok(Message::Error {
                kind: ErrorKind::UnknownFingerprint { fingerprint: fp },
                ..
            }) => assert_eq!(fp, fingerprint),
            other => panic!("expected UnknownFingerprint, got {other:?}"),
        }

        wire::write_message(&mut stream, &Message::Watch { job: 999 }).expect("send watch");
        assert!(matches!(
            wire::read_message(&mut stream, max),
            Ok(Message::Error {
                kind: ErrorKind::UnknownJob { job: 999 },
                ..
            })
        ));

        // A frame with an unknown tag: one typed diagnosis, then close.
        use std::io::Write as _;
        stream
            .write_all(&[0, 0, 0, 1, 250])
            .expect("send future frame");
        assert!(matches!(
            wire::read_message(&mut stream, max),
            Ok(Message::Error {
                kind: ErrorKind::BadRequest,
                ..
            })
        ));
    }

    // A corrupt chunked upload: typed BadChunk (wrong fingerprint).
    {
        let secret = hamming::random_sec(8, &mut rand::rngs::StdRng::seed_from_u64(7));
        let trace = record_trace(&secret);
        let (fp, chunks) = trace.to_chunks(64);
        let total_bytes: u64 = chunks.iter().map(|c| c.len() as u64).sum();
        let wrong = Fingerprint(fp.0 ^ 1);

        let mut stream = TcpStream::connect(addr).expect("connect");
        wire::write_message(
            &mut stream,
            &Message::Hello {
                min_version: wire::WIRE_VERSION,
                max_version: wire::WIRE_VERSION,
                tenant: "t".to_string(),
                token: String::new(),
            },
        )
        .expect("hello");
        let _ = wire::read_message(&mut stream, max).expect("ack");
        wire::write_message(
            &mut stream,
            &Message::TraceBegin {
                fingerprint: wrong,
                total_chunks: chunks.len() as u32,
                total_bytes,
            },
        )
        .expect("begin");
        for (i, data) in chunks.into_iter().enumerate() {
            wire::write_message(
                &mut stream,
                &Message::TraceChunk {
                    fingerprint: wrong,
                    index: i as u32,
                    data,
                },
            )
            .expect("chunk");
        }
        match wire::read_message(&mut stream, max) {
            Ok(Message::Error {
                kind: ErrorKind::BadChunk,
                detail,
            }) => assert!(detail.contains("fingerprint"), "got {detail}"),
            other => panic!("expected BadChunk, got {other:?}"),
        }
    }
    server.shutdown(Duration::from_secs(2));
}

/// A restarted server (fresh process state, same registry file) answers
/// the same fingerprint from the replayed registry without re-solving.
#[test]
fn restarted_server_answers_from_replayed_registry() {
    let registry_path = temp_registry("restart");
    let _ = std::fs::remove_file(&registry_path);
    let _ = std::fs::remove_dir_all(&registry_path);
    let secret = hamming::shortened(8);
    let trace = record_trace(&secret);
    let fingerprint = trace.fingerprint();

    let first_code = {
        let service = Arc::new(
            RecoveryService::start(
                ServiceConfig::new()
                    .with_workers(1)
                    .with_registry_path(&registry_path),
            )
            .expect("start"),
        );
        let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0", NetServerConfig::new())
            .expect("bind");
        let mut client =
            Client::connect(server.local_addr().to_string(), "alice", "").expect("connect");
        let job = client.submit(&trace).expect("submit");
        let output = client.wait(job).expect("watch").expect("solves");
        assert!(!output.from_cache);
        let code = output.outcome.unique_code().expect("unique").clone();
        server.shutdown(Duration::from_secs(2));
        drop(client);
        Arc::try_unwrap(service)
            .ok()
            .expect("server released its handle")
            .shutdown();
        code
    };

    // A new service + server over the same registry file: the upload
    // cache is empty (the client transparently re-uploads), but the
    // answer comes from the replayed registry, not a solve.
    let service = Arc::new(
        RecoveryService::start(
            ServiceConfig::new()
                .with_workers(1)
                .with_registry_path(&registry_path),
        )
        .expect("restart"),
    );
    let server =
        NetServer::bind(Arc::clone(&service), "127.0.0.1:0", NetServerConfig::new()).expect("bind");
    let mut client = Client::connect(server.local_addr().to_string(), "bob", "").expect("connect");

    // The registry already knows the fingerprint, remotely queryable.
    let record = client
        .query_fingerprint(fingerprint)
        .expect("query")
        .expect("replayed record");
    assert_eq!(record.tenant, "alice");

    let job = client.submit(&trace).expect("resubmit");
    let output = client.wait(job).expect("watch").expect("cache answers");
    assert!(output.from_cache, "restart must answer from the registry");
    let code = output.outcome.unique_code().expect("unique");
    assert_eq!(
        code.parity_submatrix(),
        first_code.parity_submatrix(),
        "the replayed answer is bit-identical"
    );

    // Registry queries by dims and canonical hash agree.
    let entries = client
        .query_dims_all(code.n() as u32, code.k() as u32)
        .expect("dims");
    assert!(entries.iter().any(|e| equivalent(&e.code, code)));
    let hash = entries[0].hash;
    let by_hash = client.query_hash_all(hash).expect("hash");
    assert_eq!(by_hash.len(), 1);
    assert!(by_hash[0].fingerprints.contains(&fingerprint));

    let stats = client.stats().expect("stats");
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.completed, 1);
    server.shutdown(Duration::from_secs(2));
    let _ = std::fs::remove_file(&registry_path);
    let _ = std::fs::remove_dir_all(&registry_path);
}

/// `Client::stats` reads the node's metrics exposition through the same
/// name table as `RecoveryService::stats`, so the two agree field for
/// field — also with the optional observability series switched off.
#[test]
fn remote_stats_equal_local_stats_with_observability_off() {
    let trace = record_trace(&hamming::shortened(8));
    // 16 + 120 one- and two-bit patterns: over the 100-pattern ceiling.
    let too_large = record_trace(&hamming::shortened(16));
    let service = Arc::new(
        RecoveryService::start(
            ServiceConfig::new()
                .with_workers(1)
                .with_max_patterns(100)
                .with_observability(false),
        )
        .expect("start"),
    );
    let server =
        NetServer::bind(Arc::clone(&service), "127.0.0.1:0", NetServerConfig::new()).expect("bind");
    let mut client =
        Client::connect(server.local_addr().to_string(), "alice", "").expect("connect");

    // One solve, then the same profile again as a cache hit.
    for from_cache in [false, true] {
        let job = client.submit(&trace).expect("submit");
        let output = client.wait(job).expect("watch").expect("solves");
        assert_eq!(output.from_cache, from_cache);
    }
    // One rejection.
    match client.submit(&too_large) {
        Err(ClientError::Refused {
            kind: ErrorKind::TooLarge { .. },
            ..
        }) => {}
        other => panic!("expected a TooLarge refusal, got {other:?}"),
    }

    let local = service.stats();
    assert_eq!(client.stats().expect("stats"), local);
    assert_eq!(
        (local.submitted, local.completed, local.cache_hits),
        (2, 2, 1)
    );
    assert_eq!(local.rejected.too_large, 1);
    assert_eq!((local.queued, local.running), (0, 0));
    server.shutdown(Duration::from_secs(2));
}

/// A refused chunked upload must not desynchronize the connection: the
/// server answers the refusal once and silently absorbs the rest of the
/// already-written chunk stream, so later requests still pair with their
/// own responses.
#[test]
fn refused_upload_does_not_desync_the_connection() {
    use beer::net::NetServerConfig;
    let secret = hamming::shortened(8);
    let trace = record_trace(&secret);

    let service =
        Arc::new(RecoveryService::start(ServiceConfig::new().with_workers(1)).expect("start"));
    // A server whose upload ceiling is far below the trace: every upload
    // is refused at TraceBegin.
    let mut config = NetServerConfig::new();
    config.max_trace_bytes = 64;
    let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0", config).expect("bind");

    let mut client = Client::connect_with(
        server.local_addr().to_string(),
        "alice",
        "",
        // Small chunks so the refused upload leaves many chunk frames in
        // flight behind the refusal.
        ClientConfig::new().with_chunk_bytes(16),
    )
    .expect("connect");
    match client.submit(&trace) {
        Err(ClientError::Refused {
            kind: ErrorKind::BadChunk,
            detail,
        }) => assert!(detail.contains("limit"), "got {detail}"),
        other => panic!("expected BadChunk refusal, got {other:?}"),
    }
    // The connection still pairs requests with responses.
    let stats = client.stats().expect("stats still answers");
    assert_eq!(stats.submitted, 0, "nothing was admitted");
    assert!(
        client
            .query_fingerprint(trace.fingerprint())
            .expect("query")
            .is_none(),
        "registry has no record"
    );
    server.shutdown(Duration::from_secs(2));
}
