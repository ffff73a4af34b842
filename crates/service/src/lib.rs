//! # `beer_service`: a multi-tenant BEER recovery service
//!
//! BEER's end product — the recovered parity-check function of a chip
//! family — is a *reusable artifact*: manufacturers provision a small set
//! of on-die ECC functions across many chips (paper §1, §8), so most
//! recovery requests a production system sees are repeats. This crate
//! turns the one-shot [`RecoverySession`](beer_core::recovery) pipeline
//! into a long-running service shaped around that reuse:
//!
//! * **Job scheduling** ([`RecoveryService`]): a bounded, tenant-fair
//!   priority queue feeding a fixed worker pool; typed
//!   [`Rejected`] admission backpressure; per-job cancellation and
//!   submission-to-completion deadlines; per-job and service-wide
//!   [`JobEvent`] streams.
//! * **Fingerprint dedup**: submissions are keyed by the
//!   [`Fingerprint`](beer_core::trace::Fingerprint) of the normalized
//!   profile trace; identical in-flight profiles coalesce onto one
//!   running job, and completed profiles are answered from cache in O(1).
//! * **Persistent code registry** ([`Registry`]): an append-only log of
//!   job records and recovered canonical codes (deduplicated by
//!   [`canonical_hash`](beer_ecc::equivalence::canonical_hash)), with
//!   crash-tolerant replay on open and snapshot/compaction — a restarted
//!   service answers from history.
//!
//! # Example
//!
//! Two tenants, three submissions, one distinct profile solved once:
//!
//! ```
//! use beer_core::collect::CollectionPlan;
//! use beer_core::engine::AnalyticBackend;
//! use beer_core::pattern::PatternSet;
//! use beer_core::trace::ProfileTrace;
//! use beer_ecc::{equivalence, hamming};
//! use beer_service::{JobRequest, RecoveryService, ServiceConfig};
//!
//! // A tenant profiles a chip (here: the analytic model of a known code)
//! // and submits the recorded trace.
//! let secret = hamming::shortened(8);
//! let patterns = PatternSet::OneTwo.patterns(8);
//! let mut chip = AnalyticBackend::new(secret.clone());
//! let trace = ProfileTrace::record(&mut chip, &patterns, &CollectionPlan::quick());
//!
//! let service = RecoveryService::start(ServiceConfig::new().with_workers(2))?;
//! let a = service.submit(JobRequest::trace("alice", trace.clone())).unwrap();
//! let b = service.submit(JobRequest::trace("bob", trace.clone())).unwrap();
//! for id in [a, b] {
//!     let output = service.wait(id).expect("clean profile");
//!     let code = output.outcome.unique_code().expect("unique recovery");
//!     assert!(equivalence::equivalent(code, &secret));
//! }
//! // The profile was solved at most once: the duplicate either coalesced
//! // onto the in-flight job or hit the result cache.
//! let stats = service.stats();
//! assert_eq!(stats.coalesced + stats.cache_hits, 1);
//! # Ok::<(), std::io::Error>(())
//! ```
//!
//! See `DESIGN.md` §"The recovery service" for the architecture.

mod job;
mod queue;
mod registry;
mod service;

pub use job::{
    CodeOutcome, JobError, JobEvent, JobId, JobInput, JobOutput, JobRequest, JobResult, JobState,
    Priority, Rejected,
};
pub use registry::{CodeEntry, JobRecord, Registry, REGISTRY_HEADER};
pub use service::{
    ConfigError, RecoveryService, RejectionStats, ServiceConfig, ServiceObs, ServiceStats,
    StartError,
};
