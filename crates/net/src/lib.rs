//! # `beer_net`: the BEER recovery service, on the network
//!
//! BEER's end product — a recovered on-die ECC function — is a shared
//! artifact: a few functions are provisioned across millions of chips
//! (paper §1, §7), so the natural deployment is *one* service answering
//! *many* remote clients, most of whom ask about profiles somebody else
//! already solved. This crate is that network edge, in three layers:
//!
//! * [`wire`] — `beer-wire`, a versioned, length-prefixed binary
//!   format hand-rolled over `std`: Hello/HelloAck version checking,
//!   chunked trace upload keyed by
//!   [`ProfileTrace::fingerprint`](beer_core::trace::ProfileTrace::fingerprint),
//!   submit/watch/cancel, registry queries, the node's metrics
//!   exposition (`QueryMetrics`/`MetricsInfo`, which also carries the
//!   service stats [`Client::stats`] reads), and typed error frames
//!   mirroring the service's [`Rejected`](beer_service::Rejected)
//!   backpressure. Decoding is total — corrupt, truncated, oversized,
//!   and unknown-future frames are typed [`wire::WireError`]s, never
//!   panics.
//! * [`server`] — [`NetServer`], an event-driven TCP
//!   front for a [`RecoveryService`](beer_service::RecoveryService): one
//!   [`reactor`] thread multiplexes every connection over epoll
//!   (nonblocking sockets, per-connection state machines, pooled frame
//!   buffers, vectored writes), so thousands of idle watchers cost no
//!   threads. Per-tenant auth from the service config, load shedding as
//!   wire errors (never dropped sockets), bounded per-connection write
//!   queues, and graceful drain on shutdown.
//! * [`reactor`] — the readiness layer: a dependency-free epoll wrapper
//!   ([`reactor::Poller`]), an eventfd [`reactor::Waker`] that delivers
//!   job events to watching connections without polling, and the
//!   [`reactor::BufPool`] of reusable frame buffers.
//! * [`ring`] — the cluster hash [`Ring`]: epoch-numbered
//!   consistent-hash membership over trace fingerprints, shared by the
//!   server (ownership checks, forwarding), the client (direct routing),
//!   and `beer_cluster`. The wire carries it in `HelloAck` and pushes
//!   changes as `RingChanged`.
//! * [`client`] — [`Client`], a typed blocking client
//!   that retains submitted traces and *resumes by fingerprint* after a
//!   dropped connection: the service's dedup re-attaches it to the
//!   in-flight job (or its cached result) instead of re-solving.
//!
//! # Example
//!
//! ```
//! use beer_core::collect::CollectionPlan;
//! use beer_core::engine::AnalyticBackend;
//! use beer_core::pattern::PatternSet;
//! use beer_core::trace::ProfileTrace;
//! use beer_ecc::{equivalence, hamming};
//! use beer_net::client::Client;
//! use beer_net::server::{NetServer, NetServerConfig};
//! use beer_service::{RecoveryService, ServiceConfig};
//! use std::sync::Arc;
//!
//! // A profile recorded against a chip (here: the analytic model).
//! let secret = hamming::shortened(8);
//! let patterns = PatternSet::OneTwo.patterns(8);
//! let mut chip = AnalyticBackend::new(secret.clone());
//! let trace = ProfileTrace::record(&mut chip, &patterns, &CollectionPlan::quick());
//!
//! // Service + network edge on an ephemeral loopback port.
//! let service = Arc::new(RecoveryService::start(ServiceConfig::new().with_workers(2))?);
//! let server = NetServer::bind(Arc::clone(&service), "127.0.0.1:0", NetServerConfig::new())?;
//!
//! // A remote tenant submits the trace and waits for the recovery.
//! let mut client = Client::connect(server.local_addr().to_string(), "alice", "")?;
//! let job = client.submit(&trace)?;
//! let output = client.wait(job)?.expect("clean profile solves");
//! let code = output.outcome.unique_code().expect("unique recovery");
//! assert!(equivalence::equivalent(code, &secret));
//! # server.shutdown(std::time::Duration::from_secs(1));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! See `DESIGN.md` §"The wire protocol" for the frame grammar and
//! `EXPERIMENTS.md` for the `net_throughput` methodology.

pub mod client;
pub mod reactor;
pub mod ring;
pub mod server;
pub mod wire;

pub use client::{backoff_delay, Client, ClientConfig, ClientError, RemoteJob};
pub use ring::{Ring, RingError, RingMember};
pub use server::{ClusterConfig, NetServer, NetServerConfig};
pub use wire::{
    ErrorKind, Message, RecvError, WireCodeEntry, WireError, WireEvent, WireJobError, WireOutcome,
    WireOutput, WireRecord, WireResult, WIRE_MAGIC, WIRE_VERSION,
};
