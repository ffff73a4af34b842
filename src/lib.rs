//! # BEER: Bit-Exact ECC Recovery
//!
//! A full Rust reproduction of *"Bit-Exact ECC Recovery (BEER): Determining
//! DRAM On-Die ECC Functions by Exploiting DRAM Data Retention
//! Characteristics"* (Patel, Kim, Shahroodi, Hassan, Mutlu — MICRO 2020),
//! including every substrate the paper depends on: a CDCL SAT solver, GF(2)
//! linear algebra, SEC Hamming codes, a simulated LPDDR4 chip population
//! with on-die ECC, an EINSim-style Monte-Carlo simulator, and the BEEP
//! error profiler built on top of BEER.
//!
//! This crate is a facade: it re-exports the workspace crates as modules
//! and offers a [`prelude`] for the common types. See `DESIGN.md` for the
//! architecture and `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! ## Quickstart
//!
//! The whole pipeline — craft patterns, profile retention miscorrections,
//! solve for the consistent ECC functions — runs through one typed entry
//! point: a [`beer_core::recovery::RecoveryConfig`] owns every knob, and
//! the [`beer_core::recovery::RecoverySession`] it starts drives any
//! backend to a typed [`beer_core::recovery::RecoveryOutcome`]:
//!
//! ```
//! use beer::prelude::*;
//!
//! // A chip whose on-die ECC function we pretend not to know.
//! let chip = SimChip::new(ChipConfig::small_test_chip(7));
//! let secret = chip.reveal_code().clone();
//! let knowledge = ChipKnowledge::uniform(
//!     chip.config().word_layout,
//!     CellType::True,
//!     chip.geometry().total_rows(),
//! );
//! let mut backend = ChipBackend::new(Box::new(chip), knowledge);
//!
//! // Steps 1–3, interleaved: batches of patterns are collected (sharded
//! // across worker threads), threshold-filtered, and streamed into an
//! // incremental SAT session until the ECC function is pinned down.
//! let report = RecoveryConfig::new()
//!     .with_parity_bits(secret.parity_bits())
//!     .session(&mut backend)
//!     .run_to_completion()
//!     .expect("simulated chips cannot fail collection");
//! match report.outcome {
//!     RecoveryOutcome::Unique(code) => assert!(equivalent(&code, &secret)),
//!     other => panic!("expected a unique recovery, got {other:?}"),
//! }
//! ```
//!
//! The low-level steps (`try_collect_with`, `solve_profile`,
//! `ProgressiveSolver`) remain available for experiments that need to
//! drive one stage in isolation — see the README's low-level API appendix.

pub use beer_beep as beep;
pub use beer_cluster as cluster;
pub use beer_core as core;
pub use beer_dram as dram;
pub use beer_ecc as ecc;
pub use beer_einsim as einsim;
pub use beer_gf2 as gf2;
pub use beer_net as net;
pub use beer_obs as obs;
pub use beer_sat as sat;
pub use beer_service as service;
pub use beer_timing as timing;

/// The commonly used types and functions, one `use` away.
pub mod prelude {
    pub use beer_beep::{
        code_from_outcome, evaluate, profile_recovered_word, profile_word, BeepConfig, BeepResult,
        DramWordTarget, EvalConfig, RecoveredCodeError, SimWordTarget, WordTarget,
    };
    pub use beer_cluster::{Cluster, ClusterClient, ClusterJob};
    pub use beer_core::analytic::{analytic_profile, code_matches_constraints};
    pub use beer_core::collect::{ChipKnowledge, CollectionPlan};
    pub use beer_core::direct::extract_by_injection;
    pub use beer_core::solve::{progressive_batches, ProgressiveSolver, SolveError};
    pub use beer_core::{
        run_session_guarded, solve_profile, try_collect_traced, try_collect_with, AnalyticBackend,
        BeerSolverOptions, BudgetReason, CancelToken, ChargedSet, ChipBackend, EinsimBackend,
        EngineError, EngineOptions, FamilyCostEstimate, Fanout, Fingerprint, FleetMember,
        FleetOutcome, MiscorrectionProfile, Observation, PatternSchedule, PatternSet,
        ProfileConstraints, ProfileSource, ProfileTrace, RecoveryConfig, RecoveryError,
        RecoveryEvent, RecoveryFleet, RecoveryOutcome, RecoveryReport, RecoverySession,
        RecoveryStats, ReplayBackend, ScheduleCostModel, ScheduleCostReport, SessionHooks,
        SessionStatus, SolveReport, ThresholdFilter, TimedCostModel, TraceParseError,
        VerifiedTrace,
    };
    pub use beer_dram::{
        CellLayout, CellType, ChipConfig, ControllerReport, DramInterface, Geometry, RankLevelEcc,
        RetentionModel, SimChip, TransientNoise, WordLayout,
    };
    pub use beer_ecc::design::{vendor_code, Manufacturer};
    pub use beer_ecc::equivalence::{canonicalize, equivalent};
    pub use beer_ecc::{hamming, miscorrection, Correction, DecodeResult, LinearCode};
    pub use beer_einsim::{simulate, simulate_batches, ErrorModel, PerBitStats, SimConfig};
    pub use beer_gf2::{BitMatrix, BitVec, SynMask};
    pub use beer_net::{
        Client, ClientConfig, ClientError, NetServer, NetServerConfig, RemoteJob, Ring, RingMember,
        WireOutcome, WireResult,
    };
    pub use beer_obs::{
        FlightEvent, FlightRecorder, Histogram, HistogramSnapshot, MetricsRegistry, TraceId,
    };
    pub use beer_service::{
        CodeOutcome, ConfigError, JobError, JobEvent, JobId, JobInput, JobOutput, JobRequest,
        JobResult, JobState, Priority, RecoveryService, Rejected, RejectionStats, ServiceConfig,
        ServiceObs, ServiceStats, StartError,
    };
    pub use beer_timing::{
        ArrayGeometry, Command, MemController, TimingError, TimingParams, TrialCost,
    };
}
