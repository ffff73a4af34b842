//! Reactor-edge behaviors the blocking suites cannot see:
//! readiness-driven hangup detection, finished jobs leaving the job
//! table, bounded write queues shedding slow readers, typed
//! admission-control refusals, and event-driven drain latency. Connection scaling without threads has its own binary,
//! `net_reactor_threads`.

mod net_support;

use beer::net::reactor::raise_nofile_limit;
use beer::net::wire::{read_message, write_message, ErrorKind, Message, RecvError};
use beer::net::{Client, NetServer, NetServerConfig};
use beer::prelude::*;
use net_support::{handshake, park_worker, record_trace, submit, upload, MAX_FRAME};
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A watcher that hangs up mid-watch is detected by readiness (RDHUP),
/// not a liveness poll: its slot frees within a reactor tick while the
/// watched job keeps running.
#[test]
fn closed_watcher_releases_slot_within_one_tick() {
    let secret = hamming::shortened(8);
    let trace = record_trace(&secret);

    let service =
        Arc::new(RecoveryService::start(ServiceConfig::new().with_workers(1)).expect("start"));
    let server =
        NetServer::bind(Arc::clone(&service), "127.0.0.1:0", NetServerConfig::new()).expect("bind");
    let addr = server.local_addr().to_string();

    // Park the worker so the watched job stays queued (the watch stays
    // live instead of completing instantly).
    let gate = park_worker(&service);

    let mut stream = handshake(&addr, "alice");
    let fingerprint = upload(&mut stream, &trace);
    let job = submit(&mut stream, fingerprint);
    write_message(&mut stream, &Message::Watch { job }).expect("watch");
    assert_eq!(server.active_connections(), 1);

    // Hang up mid-watch. The old edge needed a periodic zero-byte
    // liveness peek to notice; the reactor sees the FIN as a readiness
    // event and must release the slot within one tick.
    drop(stream);
    let deadline = Instant::now() + Duration::from_millis(500);
    while server.active_connections() != 0 {
        assert!(
            Instant::now() < deadline,
            "hung-up watcher still holds its slot after 500ms"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // The job was unaffected: it finishes once the worker frees up.
    gate.release();
    let _ = service.wait(gate.job);
    let output = service.wait(JobId(job)).expect("job survives its watcher");
    assert!(equivalent(
        output.outcome.unique_code().expect("unique"),
        &secret
    ));
    server.shutdown(Duration::from_secs(5));
}

/// A job leaves its connection's job table once its Done frame is
/// queued: the table stays bounded on a long-lived connection, and a
/// later Watch or Cancel of the finished id is a typed `UnknownJob`.
#[test]
fn finished_job_leaves_the_job_table() {
    let trace = record_trace(&hamming::shortened(8));
    let service =
        Arc::new(RecoveryService::start(ServiceConfig::new().with_workers(1)).expect("start"));
    let server =
        NetServer::bind(Arc::clone(&service), "127.0.0.1:0", NetServerConfig::new()).expect("bind");

    let mut stream = handshake(&server.local_addr().to_string(), "alice");
    let fingerprint = upload(&mut stream, &trace);
    let job = submit(&mut stream, fingerprint);
    write_message(&mut stream, &Message::Watch { job }).expect("watch");
    loop {
        match read_message(&mut stream, MAX_FRAME).expect("watch answered") {
            Message::Event { .. } => {}
            Message::Done { job: done, result } => {
                assert_eq!(done, job);
                assert!(result.is_ok(), "the job solves: {result:?}");
                break;
            }
            other => panic!("expected Event or Done, got {other:?}"),
        }
    }
    for again in [Message::Watch { job }, Message::Cancel { job }] {
        write_message(&mut stream, &again).expect("send");
        match read_message(&mut stream, MAX_FRAME).expect("answered") {
            Message::Error {
                kind: ErrorKind::UnknownJob { job: unknown },
                ..
            } => assert_eq!(unknown, job),
            other => panic!("expected UnknownJob after Done for {again:?}, got {other:?}"),
        }
    }
    server.shutdown(Duration::from_secs(5));
}

/// Over the connection limit, a new peer gets a typed Busy frame and a
/// clean close — never a silently dropped socket.
#[test]
fn over_limit_connection_gets_typed_busy() {
    let service =
        Arc::new(RecoveryService::start(ServiceConfig::new().with_workers(1)).expect("start"));
    let server = NetServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetServerConfig::new().with_max_connections(1),
    )
    .expect("bind");
    let addr = server.local_addr().to_string();

    let held = handshake(&addr, "alice");
    let mut refused = TcpStream::connect(&addr).expect("connect");
    refused
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    match read_message(&mut refused, MAX_FRAME).expect("refusal frame") {
        Message::Error {
            kind: ErrorKind::Busy,
            detail,
        } => assert!(detail.contains("connection limit"), "detail: {detail}"),
        other => panic!("expected Busy, got {other:?}"),
    }
    match read_message(&mut refused, MAX_FRAME) {
        Err(RecvError::Closed) => {}
        other => panic!("expected clean close after refusal, got {other:?}"),
    }
    drop(held);
    server.shutdown(Duration::from_secs(5));
}

/// A peer that pipelines thousands of requests but never reads its
/// responses overflows its bounded write queue: it gets a typed Busy
/// frame and a disconnect, while a healthy connection on the same
/// reactor keeps round-tripping unstalled.
#[test]
fn slow_reader_is_shed_without_stalling_others() {
    let idle_conns = 62usize; // + 1 slow + 1 healthy = 64 on one reactor
    let _ = raise_nofile_limit();

    let service =
        Arc::new(RecoveryService::start(ServiceConfig::new().with_workers(1)).expect("start"));
    let server = NetServer::bind(
        Arc::clone(&service),
        "127.0.0.1:0",
        NetServerConfig::new()
            .with_max_connections(256)
            .with_max_write_buffer(32 << 10),
    )
    .expect("bind");
    let addr = server.local_addr().to_string();

    // A crowd of idle authed connections: the shed must not touch them.
    let idle: Vec<TcpStream> = (0..idle_conns).map(|_| handshake(&addr, "crowd")).collect();
    let mut healthy = Client::connect(&addr, "alice", "").expect("connect");

    // The slow reader floods pipelined QueryMetrics requests (9 bytes
    // each, answers of a few KiB) without ever reading: kernel buffers
    // fill, then the server-side queue hits its 32 KiB bound.
    let mut slow = handshake(&addr, "sloth");
    slow.set_write_timeout(Some(Duration::from_millis(200)))
        .expect("timeout");
    let mut one = Vec::new();
    Message::QueryMetrics { tail: 0 }.encode_into(&mut one);
    let frame_len = one.len();
    let batch = one.repeat(1000);
    let send_deadline = Instant::now() + Duration::from_secs(10);
    let mut sent = 0usize;
    while sent < 64_000 && Instant::now() < send_deadline {
        match slow.write(&batch) {
            Ok(n) => sent += n / frame_len,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            // Reset: the server already shed us mid-send. Also proof.
            Err(_) => break,
        }
        // The healthy connection round-trips while the flood is active.
        let t0 = Instant::now();
        healthy.stats().expect("healthy round-trip");
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "healthy connection stalled behind the slow reader"
        );
    }

    // Drain what the server managed to flush: complete frames, then the
    // typed overflow refusal, then a close. (Framing survives the shed —
    // the queue is cut at frame boundaries.)
    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut answered = 0usize;
    let mut shed = false;
    loop {
        match read_message(&mut slow, MAX_FRAME) {
            Ok(Message::MetricsInfo { .. }) => answered += 1,
            Ok(Message::Error {
                kind: ErrorKind::Busy,
                detail,
            }) => {
                assert!(detail.contains("write queue"), "detail: {detail}");
                shed = true;
            }
            Ok(other) => panic!("unexpected frame {other:?}"),
            Err(RecvError::Closed) => break,
            Err(e) => panic!("transport error instead of clean shed: {e:?}"),
        }
    }
    assert!(shed, "slow reader was never sent the typed Busy refusal");
    assert!(
        answered < sent,
        "every request answered ({answered}/{sent}): the queue never overflowed; \
         raise the flood size"
    );

    // The crowd and the healthy connection are untouched.
    healthy.stats().expect("healthy survives the shed");
    drop(idle);
    drop(healthy);
    server.shutdown(Duration::from_secs(5));
}

/// Drain latency is event-driven: once in-flight work finishes and the
/// watcher collects its result, shutdown returns promptly (condvar
/// wakeups, not sleep loops).
#[test]
fn drain_returns_promptly_after_service_goes_idle() {
    let secret = hamming::shortened(8);
    let trace = record_trace(&secret);

    let service =
        Arc::new(RecoveryService::start(ServiceConfig::new().with_workers(1)).expect("start"));
    let server =
        NetServer::bind(Arc::clone(&service), "127.0.0.1:0", NetServerConfig::new()).expect("bind");
    let addr = server.local_addr().to_string();

    let gate = park_worker(&service);

    let mut client = Client::connect(&addr, "alice", "").expect("connect");
    let queued = client.submit(&trace).expect("queued behind the gate");
    let watcher = std::thread::spawn(move || {
        let output = client
            .wait(queued)
            .expect("watch survives the drain")
            .expect("job finishes during drain");
        assert!(equivalent(
            output.outcome.unique_code().expect("unique"),
            &secret
        ));
    });

    let drainer = std::thread::spawn(move || {
        let t0 = Instant::now();
        server.shutdown(Duration::from_secs(30));
        t0.elapsed()
    });
    std::thread::sleep(Duration::from_millis(100)); // let draining latch

    let released_at = Instant::now();
    gate.release();
    let _ = service.wait(gate.job);
    watcher.join().expect("watcher thread");
    let drained_in = drainer.join().expect("drain completes");
    let after_release = released_at.elapsed();
    assert!(
        after_release < Duration::from_secs(2),
        "drain took {after_release:?} after the gate released; \
         the idle/flush waits must be event-driven"
    );
    assert!(
        drained_in >= Duration::from_millis(100),
        "drain saw the gate"
    );
}
