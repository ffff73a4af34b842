//! BEER: Bit-Exact ECC Recovery (Patel et al., MICRO 2020).
//!
//! BEER determines the full on-die ECC function of a DRAM chip — its
//! parity-check matrix — using only the chip's external data interface. It
//! needs no hardware tools, no knowledge of the chip internals, and no ECC
//! metadata. The three steps (paper §5):
//!
//! 1. **Induce miscorrections** ([`engine::ChipBackend`], [`collect`],
//!    [`layout_probe`]): write carefully crafted CHARGED/DISCHARGED test
//!    patterns ([`pattern`]), pause DRAM refresh to induce uncorrectable
//!    data-retention errors, and record which data bits suffer
//!    *miscorrections* for each pattern. The same backend can execute each
//!    trial through a cycle-accurate controller clock
//!    ([`engine::ChipBackend::with_params`]) to meter what the campaign
//!    costs in simulated DRAM time.
//! 2. **Analyze post-correction errors** ([`profile`]): accumulate
//!    observations into a [`MiscorrectionProfile`] and apply a threshold
//!    filter to reject transient noise (§5.2).
//! 3. **Solve for the ECC function** ([`solve`]): encode the profile as a
//!    SAT instance over the unknown parity-check matrix and enumerate every
//!    consistent function; a unique solution identifies the chip's code up
//!    to parity-bit relabeling (§4.2.1).
//!
//! The three steps are tied together by the [`recovery`] session — the
//! typed entry point for the whole pipeline: a [`recovery::RecoveryConfig`]
//! owns every knob, and a [`recovery::RecoverySession`] drives any
//! [`engine::ProfileSource`] backend — live chip, exact analytic model,
//! EINSim Monte-Carlo, or a recorded [`trace`] — through parallel batched
//! collection and an incremental SAT session so collection and solving
//! interleave, stopping at the first unique solution (§6.3), with
//! cancellation, budgets, progress events, trace checkpointing, and a
//! [`recovery::RecoveryFleet`] batch runner on top.
//!
//! [`analytic`] computes exact profiles from known codes (the simulation
//! methodology of §6.1), and [`runtime`] models experiment runtimes
//! (§6.3).
//!
//! # Examples
//!
//! Recovering a known code progressively from its analytic backend:
//!
//! ```
//! use beer_core::engine::AnalyticBackend;
//! use beer_core::recovery::RecoveryConfig;
//! use beer_ecc::{equivalence, hamming};
//!
//! let secret = hamming::eq1_code();
//! let mut backend = AnalyticBackend::new(secret.clone());
//! let report = RecoveryConfig::new()
//!     .with_chunked_schedule(4)
//!     .session(&mut backend)
//!     .run_to_completion()
//!     .expect("analytic backends cannot fail");
//! let code = report.outcome.unique_code().expect("unique recovery");
//! assert!(equivalence::equivalent(code, &secret));
//! ```

pub mod analytic;
pub mod collect;
pub mod direct;
pub mod engine;
pub mod layout_probe;
pub mod pattern;
pub mod profile;
pub mod recovery;
pub mod runtime;
pub mod solve;
pub mod trace;

pub use engine::{
    try_collect_traced, try_collect_with, AnalyticBackend, ChipBackend, EinsimBackend, EngineError,
    EngineOptions, ProfileSource,
};
pub use pattern::{ChargedSet, PatternSet};
pub use profile::{MiscorrectionProfile, Observation, ProfileConstraints, ThresholdFilter};
pub use recovery::{
    lock_unpoisoned, run_session_guarded, BudgetReason, CancelToken, FamilyCostEstimate, Fanout,
    FanoutNotify, FleetMember, FleetOutcome, PatternSchedule, RecoveryConfig, RecoveryError,
    RecoveryEvent, RecoveryFleet, RecoveryOutcome, RecoveryReport, RecoverySession, RecoveryStats,
    RoundPhases, ScheduleCostModel, ScheduleCostReport, SessionHooks, SessionStatus,
    TimedCostModel,
};
pub use solve::{solve_profile, BeerSolverOptions, SolveReport};
pub use trace::{
    ChunkError, Fingerprint, ProfileTrace, ReplayBackend, TraceAssembler, TraceParseError,
    VerifiedTrace,
};

/// The former name of a clocked [`ChipBackend`], kept only so existing
/// benchmark code still compiles. New code calls
/// [`ChipBackend::with_params`]; beware that `new` through this alias
/// builds an *untimed* backend.
pub type TimedChipBackend = ChipBackend;
