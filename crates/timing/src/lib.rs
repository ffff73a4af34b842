//! `beer_timing` — cycle-accurate DDR4-style command/timing model for
//! costing BEER profiling campaigns.
//!
//! The BEER methodology (Patel et al., MICRO 2020) prices its experiments
//! in *DRAM time*: every retention trial pins the array for a full refresh
//! window — seconds to tens of minutes — while the host-side solve takes
//! milliseconds. This crate makes that cost a first-class, executed
//! quantity instead of a back-of-envelope estimate:
//!
//! - [`TimingParams`] holds one speed bin's constraint table
//!   (tRCD/tRP/tRAS/tRC, tCCD/tRRD, tWR/tRTP, CL/CWL, tRFC/tREFI) in
//!   integer clock cycles over an integer picosecond clock, so all
//!   simulated durations are exact and deterministic.
//! - [`MemController`] executes command streams ([`Command`]) against
//!   per-bank state machines ([`BankState`]) under *execute-and-stall*
//!   semantics: issuing a command advances simulated time to its
//!   earliest-legal cycle; there is no side-effect-free "what would this
//!   cost" query, so estimation and execution can never disagree.
//! - Refresh is part of the stream: the controller injects `REFab` every
//!   tREFI while enabled, and a retention trial's refresh window is the
//!   *emergent* time measured between [`MemController::pause_refresh`] and
//!   [`MemController::resume_refresh`] — the error profile and the
//!   simulated nanoseconds of a trial come from the same execution.
//! - [`campaign`] builds the §5.1 trial streams (program sweep →
//!   refresh-paused decay → readback sweep) and prices plans by executing
//!   them on scratch controllers ([`trial_cost`], [`plan_cost_ns`]).
//!
//! `beer_core` builds on this: `ChipBackend::with_params` gives its chip
//! backend a controller clock that meters simulated wall-clock per unit,
//! and `TimedCostModel` prices rounds for the cost-aware pattern
//! scheduler. This crate depends only on `beer_dram` for geometry.

pub mod bank;
pub mod campaign;
pub mod controller;
pub mod params;

pub use bank::{BankPhase, BankState};
pub use campaign::{
    execute_trial, plan_cost_ns, sweep_read, sweep_write, trial_cost, ArrayGeometry, TrialCost,
};
pub use controller::{
    Command, ControllerStats, IssueInfo, IssuedCommand, MemController, TimingError,
};
pub use params::TimingParams;
