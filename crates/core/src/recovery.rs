//! The unified recovery session: one typed entry point for the whole BEER
//! pipeline.
//!
//! The paper's methodology is a single conceptual loop — craft patterns,
//! profile retention miscorrections, solve for the consistent ECC
//! functions, act on the recovered code — and this module packages it as
//! one: a [`RecoveryConfig`] builder owns every knob the pipeline has
//! (backend-agnostic pattern schedule, collection plan, threshold filter,
//! solver options, thread budget, wall-clock deadline), and a
//! [`RecoverySession`] drives any [`ProfileSource`] from the first batch
//! to a typed terminal [`RecoveryOutcome`]:
//!
//! * **Step-wise execution.** [`RecoverySession::advance`] runs one
//!   collect → push → check round, exactly the interleaving of the §6.3
//!   progressive optimization; [`RecoverySession::run_to_completion`]
//!   loops it to the end.
//! * **Deadline and cancellation.** A wall-clock deadline and a shareable
//!   [`CancelToken`] both terminate the session with
//!   [`RecoveryOutcome::BudgetExhausted`] carrying the partial candidate
//!   set — both are honored *mid-batch* (the engine checks between
//!   collection units).
//! * **Observability.** A [`RecoveryEvent`] observer replaces ad-hoc
//!   progress printing: batch collected, facts pushed, distinctness
//!   counterexamples repaired, check completed.
//! * **Checkpointing.** With [`RecoveryConfig::with_trace_recording`],
//!   the session accumulates every collected unit into a
//!   [`ProfileTrace`]; replaying it through
//!   [`crate::trace::ReplayBackend`] reproduces the outcome bit for bit.
//!
//! The free functions [`crate::engine::try_collect_with`] and
//! [`crate::solve::solve_profile`] remain as low-level entry points for
//! experiments that drive one stage in isolation.
//!
//! # Examples
//!
//! ```
//! use beer_core::engine::AnalyticBackend;
//! use beer_core::recovery::{RecoveryConfig, RecoveryOutcome};
//! use beer_ecc::{equivalence, hamming};
//!
//! let secret = hamming::shortened(11);
//! let mut backend = AnalyticBackend::new(secret.clone());
//! let report = RecoveryConfig::new()
//!     .with_chunked_schedule(8)
//!     .session(&mut backend)
//!     .run_to_completion()
//!     .expect("analytic backends cannot fail");
//! match report.outcome {
//!     RecoveryOutcome::Unique(code) => {
//!         assert!(equivalence::equivalent(&code, &secret));
//!     }
//!     other => panic!("expected a unique recovery, got {other:?}"),
//! }
//! ```

use crate::collect::CollectionPlan;
use crate::engine::{collect_inner, EngineError, EngineOptions, ProfileSource};
use crate::pattern::{ChargedSet, PatternSet};
use crate::profile::ThresholdFilter;
use crate::solve::{
    progressive_batches, BeerSolverOptions, ProgressiveSolver, SolveError, SolveReport,
};
use crate::trace::{ProfileTrace, UnitTrace};
use beer_ecc::{hamming, LinearCode};
use beer_sat::SolverStats;
use beer_timing::{plan_cost_ns, ArrayGeometry, TimingParams};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Locks a mutex, recovering from poisoning.
///
/// The shared structures of `beer_core`, `beer_service` and `beer_net`
/// hold plain counting/slot/queue state that is valid after any partial
/// update, and session panics are already surfaced as typed per-job
/// errors — so a poisoned lock must not cascade into aborting unrelated
/// jobs or connections.
pub fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

// ---------------------------------------------------------------------------
// Errors, outcomes, events
// ---------------------------------------------------------------------------

/// A typed error from a recovery session: either the collection engine
/// failed (worker panic, exhausted trace) or the solver rejected the
/// constraints (unsupported pattern order, dataword mismatch).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RecoveryError {
    /// The collection engine failed.
    Engine(EngineError),
    /// The SAT encoding rejected the constraints.
    Solve(SolveError),
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::Engine(e) => write!(f, "collection failed: {e}"),
            RecoveryError::Solve(e) => write!(f, "solving failed: {e}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<EngineError> for RecoveryError {
    fn from(e: EngineError) -> Self {
        RecoveryError::Engine(e)
    }
}

impl From<SolveError> for RecoveryError {
    fn from(e: SolveError) -> Self {
        RecoveryError::Solve(e)
    }
}

/// Which budget terminated a session early.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetReason {
    /// The wall-clock deadline expired.
    Deadline,
    /// The session's [`CancelToken`] was cancelled.
    Cancelled,
}

/// The terminal state of a recovery session.
#[derive(Clone, Debug)]
pub enum RecoveryOutcome {
    /// Exactly one ECC function (equivalence class) is consistent with
    /// everything collected — BEER's success case.
    Unique(LinearCode),
    /// The full schedule ran and several functions remain consistent
    /// (expected for shortened codes under 1-CHARGED only, Figure 5).
    Ambiguous {
        /// Number of witnesses found; a lower bound when `truncated`.
        count: usize,
        /// True if enumeration stopped at the solver's solution cap.
        truncated: bool,
        /// The consistent functions, as enumerated.
        witnesses: Vec<LinearCode>,
    },
    /// No function is consistent — noise (or a corrupt trace) made the
    /// profile contradictory.
    Inconsistent,
    /// A budget terminated the session before the schedule decided.
    BudgetExhausted {
        /// Which budget fired.
        reason: BudgetReason,
        /// The candidates consistent with everything collected so far
        /// (empty if no check completed).
        partial: Vec<LinearCode>,
    },
}

impl RecoveryOutcome {
    /// The uniquely recovered code, if the session succeeded.
    pub fn unique_code(&self) -> Option<&LinearCode> {
        match self {
            RecoveryOutcome::Unique(code) => Some(code),
            _ => None,
        }
    }

    /// True for [`RecoveryOutcome::Unique`].
    pub fn is_unique(&self) -> bool {
        matches!(self, RecoveryOutcome::Unique(_))
    }
}

/// Progress notifications emitted by a session (see the module docs).
#[derive(Clone, Debug)]
pub enum RecoveryEvent {
    /// A pattern batch finished collecting.
    BatchCollected {
        /// 1-based round number.
        round: usize,
        /// Patterns in the batch.
        patterns: usize,
        /// Raw miscorrection observations in the batch.
        observations: u64,
        /// Trials recorded across the batch's patterns.
        trials: u64,
    },
    /// The batch's thresholded facts entered the live SAT session.
    FactsPushed {
        /// 1-based round number.
        round: usize,
        /// Definite facts this batch contributed.
        new_facts: usize,
        /// Definite facts accepted so far.
        total_facts: usize,
        /// `P` variables the SAT solver holds fixed at decision level 0
        /// after this push.
        pinned_vars: usize,
    },
    /// The lazy column-distinctness loop repaired counterexamples during
    /// the round's check.
    CounterexampleRepaired {
        /// 1-based round number.
        round: usize,
        /// Column pairs constrained.
        pairs: usize,
    },
    /// A uniqueness check finished.
    CheckCompleted {
        /// 1-based round number.
        round: usize,
        /// Consistent functions found (up to the solver's cap).
        solutions: usize,
        /// True if enumeration stopped at the cap.
        truncated: bool,
        /// Wall-clock time of the check.
        elapsed: Duration,
        /// Per-phase wall-clock breakdown of the whole round (the
        /// paper's Fig. 6 stage split, live).
        phases: RoundPhases,
        /// Simulated DRAM nanoseconds the round's collection executed
        /// (`0` for sources that do not model time) — the campaign-cost
        /// counterpart of `phases.collect`, which is host time.
        sim_ns: u64,
        /// Solver statistics after the check (vars/clauses/learnts,
        /// conflicts, decisions, propagations).
        solver: SolverStats,
    },
}

/// The wall-clock breakdown of one collect → push → check round,
/// carried on [`RecoveryEvent::CheckCompleted`]. `solve` is the same
/// duration as the event's `elapsed`; the other three cover the round's
/// earlier phases, so `collect + preprocess + encode + solve` is the
/// round's total pipeline time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RoundPhases {
    /// Collecting the batch's miscorrection profile from the backend.
    pub collect: Duration,
    /// Recording the batch's order-1 facts into the column relations
    /// that decide which implied negative facts the encoding skips
    /// ([`ProgressiveSolver::last_push_times`](crate::solve::ProgressiveSolver::last_push_times)).
    pub preprocess: Duration,
    /// Encoding the thresholded facts into CNF, which adds each clause to
    /// the live solver as it is built.
    pub encode: Duration,
    /// The SAT uniqueness check (enumeration + lazy repairs).
    pub solve: Duration,
}

/// Cooperative cancellation handle: clone it, hand it to another thread,
/// and [`CancelToken::cancel`] terminates the session at the next unit
/// boundary with [`BudgetReason::Cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Requests cancellation (idempotent).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// A wakeup callback attached to a [`Fanout`] subscriber: invoked after
/// each value lands in that subscriber's queue, from the publishing
/// thread. Keep it cheap and non-blocking — its job is to *signal* (wake
/// an event loop, set a flag), never to consume.
pub type FanoutNotify = Arc<dyn Fn() + Send + Sync>;

struct FanoutSubscriber<T> {
    tx: mpsc::Sender<T>,
    /// Optional readiness signal for subscribers that cannot block on the
    /// receiver (e.g. an epoll reactor parking thousands of watchers).
    notify: Option<FanoutNotify>,
}

/// A cloneable broadcast channel: every value published is delivered to
/// every live subscriber, and subscribers whose receiver was dropped are
/// pruned on the next publish. `beer_service` streams its per-job events
/// to tenants through one.
pub struct Fanout<T: Clone + Send> {
    subscribers: Arc<Mutex<Vec<FanoutSubscriber<T>>>>,
}

impl<T: Clone + Send> Clone for Fanout<T> {
    fn clone(&self) -> Self {
        Fanout {
            subscribers: Arc::clone(&self.subscribers),
        }
    }
}

impl<T: Clone + Send> Default for Fanout<T> {
    fn default() -> Self {
        Fanout {
            subscribers: Arc::new(Mutex::new(Vec::new())),
        }
    }
}

impl<T: Clone + Send> Fanout<T> {
    /// A fan-out with no subscribers yet.
    pub fn new() -> Self {
        Fanout::default()
    }

    /// Registers a subscriber; values published from now on arrive on the
    /// returned receiver.
    pub fn subscribe(&self) -> mpsc::Receiver<T> {
        let (tx, rx) = mpsc::channel();
        lock_unpoisoned(&self.subscribers).push(FanoutSubscriber { tx, notify: None });
        rx
    }

    /// Registers a subscriber with a wakeup callback: `notify` runs after
    /// each value is queued, so an event loop that multiplexes many
    /// receivers can sleep until one of them actually has something,
    /// instead of polling each with a timeout.
    pub fn subscribe_with_notify(&self, notify: FanoutNotify) -> mpsc::Receiver<T> {
        let (tx, rx) = mpsc::channel();
        lock_unpoisoned(&self.subscribers).push(FanoutSubscriber {
            tx,
            notify: Some(notify),
        });
        rx
    }

    /// Delivers `value` to every live subscriber, pruning dead ones and
    /// firing each surviving subscriber's wakeup callback.
    pub fn publish(&self, value: &T) {
        lock_unpoisoned(&self.subscribers).retain(|sub| {
            if sub.tx.send(value.clone()).is_err() {
                return false;
            }
            if let Some(notify) = &sub.notify {
                notify();
            }
            true
        });
    }
}

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// How a session schedules test patterns into collect → check batches.
#[derive(Clone, Debug)]
pub enum PatternSchedule {
    /// The standard progressive schedule: all 1-CHARGED patterns first,
    /// then 2-CHARGED patterns in chunks of the given size
    /// ([`progressive_batches`]).
    Progressive {
        /// 2-CHARGED patterns per batch.
        chunk: usize,
    },
    /// One pattern family as a single batch (one-shot recovery).
    Family(PatternSet),
    /// Explicit batches, collected and checked in order.
    Batches(Vec<Vec<ChargedSet>>),
}

impl Default for PatternSchedule {
    fn default() -> Self {
        PatternSchedule::Progressive { chunk: 64 }
    }
}

impl PatternSchedule {
    /// Materializes the schedule for a `k`-bit dataword.
    ///
    /// # Panics
    ///
    /// Panics if the schedule is empty or `k` is too small for the family.
    pub fn resolve(&self, k: usize) -> Vec<Vec<ChargedSet>> {
        let batches = match self {
            PatternSchedule::Progressive { chunk } => progressive_batches(k, *chunk),
            PatternSchedule::Family(set) => vec![set.patterns(k)],
            PatternSchedule::Batches(batches) => batches.clone(),
        };
        assert!(
            !batches.is_empty() && batches.iter().all(|b| !b.is_empty()),
            "pattern schedule must contain at least one non-empty batch"
        );
        batches
    }

    /// Builds a schedule that orders `families` by **facts per simulated
    /// second** — projected definite facts divided by the simulated DRAM
    /// time one collection round costs under `model` — so a progressive
    /// session reaches a decisive profile in the fewest simulated hours.
    ///
    /// A pattern's projected yield is its count of DISCHARGED data bits
    /// (`k − order`): each is a position where the round can assert a
    /// definite miscorrection/no-miscorrection fact (§4.2.2). The round's
    /// denominator comes from the cost model *executing* the plan's
    /// refresh-window sweep (see [`TimedCostModel`]), so the ordering and
    /// the absolute per-round cost quoted in the report derive from the
    /// same command streams the timed backend will run. Ties (and the
    /// common case of one shared plan, where the denominator is uniform)
    /// fall back to yield order, preserving the input order among equals.
    ///
    /// Returns the schedule (one batch per family, best throughput first)
    /// and the per-family estimates in that chosen order.
    ///
    /// # Panics
    ///
    /// Panics if `families` is empty or `k` is too small for a family.
    pub fn cost_aware(
        families: &[PatternSet],
        k: usize,
        plan: &CollectionPlan,
        model: &dyn ScheduleCostModel,
    ) -> (PatternSchedule, ScheduleCostReport) {
        assert!(!families.is_empty(), "no pattern families to schedule");
        let round_sim_ns = model.round_sim_ns(plan);
        let mut estimates: Vec<(Vec<ChargedSet>, FamilyCostEstimate)> = families
            .iter()
            .map(|&family| {
                let patterns = family.patterns(k);
                let projected_facts: u64 = patterns.iter().map(|p| (k - p.order()) as u64).sum();
                let facts_per_sim_second = if round_sim_ns == 0 {
                    f64::INFINITY
                } else {
                    projected_facts as f64 / (round_sim_ns as f64 / 1e9)
                };
                let estimate = FamilyCostEstimate {
                    family,
                    patterns: patterns.len(),
                    projected_facts,
                    round_sim_ns,
                    facts_per_sim_second,
                };
                (patterns, estimate)
            })
            .collect();
        // Stable sort: equal-throughput families keep their input order.
        estimates.sort_by(|a, b| {
            b.1.projected_facts
                .cmp(&a.1.projected_facts)
                .then_with(|| a.1.round_sim_ns.cmp(&b.1.round_sim_ns))
        });
        let (batches, families): (Vec<_>, Vec<_>) = estimates.into_iter().unzip();
        (
            PatternSchedule::Batches(batches),
            ScheduleCostReport { families },
        )
    }
}

/// Prices one collection round in simulated DRAM time. The contract is
/// execute-and-stall: implementations obtain the cost by *running* the
/// plan's refresh-window sweep on a (scratch) cycle-accurate controller,
/// never from a closed-form latency estimate — so the number quoted for
/// scheduling is the number a timed backend will actually accrue.
pub trait ScheduleCostModel {
    /// Simulated nanoseconds one full collection round under `plan` costs
    /// (every refresh window, `trials_per_step` trials each).
    fn round_sim_ns(&self, plan: &CollectionPlan) -> u64;
}

/// A [`ScheduleCostModel`] pricing collection rounds by executing the
/// plan's trial streams on scratch `beer_timing` controllers.
///
/// Because a clocked [`crate::engine::ChipBackend`] (see
/// [`crate::engine::ChipBackend::with_params`]) runs every unit on a fresh
/// controller with the same parameters, this model's per-round figure
/// equals the backend meter's accrual for that round *exactly* — not
/// approximately.
#[derive(Clone, Copy, Debug)]
pub struct TimedCostModel {
    params: TimingParams,
    geom: ArrayGeometry,
}

impl TimedCostModel {
    /// A model over an explicit speed bin and array shape.
    pub fn new(params: TimingParams, geom: ArrayGeometry) -> Self {
        TimedCostModel { params, geom }
    }

    /// A model for a chip's geometry.
    pub fn for_chip(params: TimingParams, geometry: &beer_dram::Geometry) -> Self {
        TimedCostModel::new(params, ArrayGeometry::of_chip(geometry))
    }
}

impl ScheduleCostModel for TimedCostModel {
    fn round_sim_ns(&self, plan: &CollectionPlan) -> u64 {
        plan_cost_ns(
            &self.params,
            &self.geom,
            &plan.trefw_schedule,
            plan.trials_per_step,
        )
    }
}

/// One family's entry in a [`ScheduleCostReport`].
#[derive(Clone, Copy, Debug)]
pub struct FamilyCostEstimate {
    /// The pattern family.
    pub family: PatternSet,
    /// Patterns the family materializes at the scheduled `k`.
    pub patterns: usize,
    /// Projected definite facts: Σ over patterns of their DISCHARGED
    /// data-bit count (`k − order`).
    pub projected_facts: u64,
    /// Simulated nanoseconds one collection round costs under the plan.
    pub round_sim_ns: u64,
    /// The scheduling key: `projected_facts / (round_sim_ns / 1e9)`.
    pub facts_per_sim_second: f64,
}

/// How [`PatternSchedule::cost_aware`] ordered the families, carried
/// alongside the schedule so reports (e.g. `SolveReport::sim_ns` read
/// next to a session's outcome) can show *why* the campaign ran in the
/// order it did.
#[derive(Clone, Debug)]
pub struct ScheduleCostReport {
    /// Per-family estimates, in the chosen (best-throughput-first) order.
    pub families: Vec<FamilyCostEstimate>,
}

/// Every knob of the BEER pipeline in one typed builder (see the module
/// docs). `Default`/[`RecoveryConfig::new`] reproduce the paper's standard
/// methodology: progressive {1,2}-CHARGED schedule, the quick collection
/// plan, the §5.2 threshold filter, and the default solver options.
#[derive(Clone, Debug, Default)]
pub struct RecoveryConfig {
    parity_bits: Option<usize>,
    schedule: PatternSchedule,
    plan: CollectionPlan,
    filter: ThresholdFilter,
    solver: BeerSolverOptions,
    engine: EngineOptions,
    deadline: Option<Duration>,
    record_trace: bool,
}

impl RecoveryConfig {
    /// The paper-standard configuration.
    pub fn new() -> Self {
        RecoveryConfig::default()
    }

    /// Overrides the parity-bit count (default: the smallest SEC Hamming
    /// parity count for the source's dataword length,
    /// [`hamming::parity_bits_for`]).
    pub fn with_parity_bits(mut self, parity_bits: usize) -> Self {
        self.parity_bits = Some(parity_bits);
        self
    }

    /// Uses an explicit pattern schedule.
    pub fn with_schedule(mut self, schedule: PatternSchedule) -> Self {
        self.schedule = schedule;
        self
    }

    /// Collects one pattern family as a single batch (one-shot recovery).
    pub fn with_pattern_family(self, set: PatternSet) -> Self {
        self.with_schedule(PatternSchedule::Family(set))
    }

    /// Uses the progressive {1,2}-CHARGED schedule with the given
    /// 2-CHARGED chunk size.
    pub fn with_chunked_schedule(self, chunk: usize) -> Self {
        self.with_schedule(PatternSchedule::Progressive { chunk })
    }

    /// Uses explicit pattern batches.
    pub fn with_batches(self, batches: Vec<Vec<ChargedSet>>) -> Self {
        self.with_schedule(PatternSchedule::Batches(batches))
    }

    /// Overrides the refresh-window sweep.
    pub fn with_plan(mut self, plan: CollectionPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Overrides the §5.2 threshold filter.
    pub fn with_filter(mut self, filter: ThresholdFilter) -> Self {
        self.filter = filter;
        self
    }

    /// Overrides the full solver option block.
    pub fn with_solver_options(mut self, solver: BeerSolverOptions) -> Self {
        self.solver = solver;
        self
    }

    /// Overrides the solution-enumeration cap only.
    pub fn with_max_solutions(mut self, max_solutions: usize) -> Self {
        self.solver.max_solutions = max_solutions;
        self
    }

    /// Collection worker threads (`0` = available parallelism).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.engine = EngineOptions::with_threads(threads);
        self
    }

    /// Terminates the session once this much wall-clock time has elapsed
    /// since it started (honored mid-batch).
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Records every collected unit into an exportable [`ProfileTrace`]
    /// (see [`RecoverySession::export_trace`]).
    pub fn with_trace_recording(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }

    /// Starts a session over `source`.
    ///
    /// # Panics
    ///
    /// Panics if the schedule resolves to no patterns for the source's
    /// dataword length, or the dataword length is zero.
    pub fn session<'s>(&self, source: &'s mut dyn ProfileSource) -> RecoverySession<'s> {
        let k = source.k();
        let parity_bits = self
            .parity_bits
            .unwrap_or_else(|| hamming::parity_bits_for(k));
        let batches = self.schedule.resolve(k);
        let patterns_available = batches.iter().map(|b| b.len()).sum();
        RecoverySession {
            solver: ProgressiveSolver::new(k, parity_bits, self.solver),
            source,
            parity_bits,
            batches,
            plan: self.plan.clone(),
            filter: self.filter,
            engine: self.engine,
            deadline: self.deadline,
            cancel: CancelToken::new(),
            observer: None,
            started: Instant::now(),
            next_batch: 0,
            rounds: 0,
            patterns_used: 0,
            patterns_available,
            sim_ns_total: 0,
            last_check: None,
            outcome: None,
            error: None,
            trace: self.record_trace.then(|| TraceLog {
                patterns: Vec::new(),
                units: Vec::new(),
            }),
        }
    }

    /// Patterns the configured schedule would collect for a `k`-bit
    /// dataword — what a full session over such a source costs. Admission
    /// control in `beer_service` sizes live-backend jobs with this.
    ///
    /// # Panics
    ///
    /// Panics under the conditions of [`PatternSchedule::resolve`].
    pub fn scheduled_patterns(&self, k: usize) -> usize {
        self.schedule.resolve(k).iter().map(|b| b.len()).sum()
    }
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

/// Whether a session has more work to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionStatus {
    /// More batches remain and no terminal outcome was reached.
    Running,
    /// The session reached a [`RecoveryOutcome`].
    Finished,
}

/// Bookkeeping of a session's progress.
#[derive(Clone, Debug)]
pub struct RecoveryStats {
    /// Collect → check rounds executed.
    pub rounds: usize,
    /// Batches in the full schedule.
    pub batches_total: usize,
    /// Patterns actually collected.
    pub patterns_used: usize,
    /// Patterns the full schedule would collect.
    pub patterns_available: usize,
    /// Definite facts accepted, including the implied order-1 negative facts the SAT encoding skips.
    pub facts_encoded: usize,
    /// `P` variables the SAT solver holds fixed at decision level 0.
    pub pinned_vars: usize,
    /// Wall-clock time since the session started.
    pub elapsed: Duration,
    /// Simulated DRAM nanoseconds the session's collections executed so
    /// far (`0` for sources that do not model time).
    pub dram_sim_ns: u64,
}

/// The final product of a session: the typed outcome, progress statistics,
/// the last uniqueness check's [`SolveReport`], and (if recording was
/// enabled) the replayable trace.
#[derive(Debug)]
pub struct RecoveryReport {
    /// The terminal outcome.
    pub outcome: RecoveryOutcome,
    /// Progress bookkeeping.
    pub stats: RecoveryStats,
    /// The last check's report (absent if no round completed).
    pub last_check: Option<SolveReport>,
    /// Everything collected, replayable through
    /// [`crate::trace::ReplayBackend`] (present iff recording was on).
    pub trace: Option<ProfileTrace>,
}

struct TraceLog {
    patterns: Vec<ChargedSet>,
    units: Vec<UnitTrace>,
}

/// The BEER pipeline as a resumable state machine over one
/// [`ProfileSource`] (see the module docs).
pub struct RecoverySession<'s> {
    source: &'s mut dyn ProfileSource,
    parity_bits: usize,
    batches: Vec<Vec<ChargedSet>>,
    plan: CollectionPlan,
    filter: ThresholdFilter,
    engine: EngineOptions,
    deadline: Option<Duration>,
    solver: ProgressiveSolver,
    cancel: CancelToken,
    #[allow(clippy::type_complexity)]
    observer: Option<Box<dyn FnMut(&RecoveryEvent) + 's>>,
    started: Instant,
    next_batch: usize,
    rounds: usize,
    patterns_used: usize,
    patterns_available: usize,
    /// Simulated DRAM nanoseconds accumulated across the session's
    /// collections (deltas of [`ProfileSource::sim_elapsed_ns`]).
    sim_ns_total: u64,
    last_check: Option<SolveReport>,
    outcome: Option<RecoveryOutcome>,
    error: Option<RecoveryError>,
    trace: Option<TraceLog>,
}

impl<'s> RecoverySession<'s> {
    /// Dataword length.
    pub fn k(&self) -> usize {
        self.solver.k()
    }

    /// Parity bits the solver searches over.
    pub fn parity_bits(&self) -> usize {
        self.parity_bits
    }

    /// Installs a progress observer (replaces any previous one).
    pub fn with_observer(mut self, observer: impl FnMut(&RecoveryEvent) + 's) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    /// Uses an externally created cancellation token (replaces the
    /// session's own). This lets a caller — e.g. a service holding one
    /// token per job — arm cancellation *before* the session exists, so a
    /// job cancelled while still queued never starts collecting.
    pub fn with_cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// A cancellation handle for this session (clone freely).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// The terminal outcome, once reached.
    pub fn outcome(&self) -> Option<&RecoveryOutcome> {
        self.outcome.as_ref()
    }

    /// The most recent uniqueness check's report.
    pub fn last_check(&self) -> Option<&SolveReport> {
        self.last_check.as_ref()
    }

    /// Progress so far.
    pub fn stats(&self) -> RecoveryStats {
        RecoveryStats {
            rounds: self.rounds,
            batches_total: self.batches.len(),
            patterns_used: self.patterns_used,
            patterns_available: self.patterns_available,
            facts_encoded: self.solver.facts_encoded(),
            pinned_vars: self.solver.pinned_vars(),
            elapsed: self.started.elapsed(),
            dram_sim_ns: self.sim_ns_total,
        }
    }

    /// Everything collected so far as a replayable [`ProfileTrace`]
    /// (`None` unless [`RecoveryConfig::with_trace_recording`] was set).
    /// Valid at any point — a budget-exhausted session's checkpoint
    /// replays exactly the rounds that ran.
    pub fn export_trace(&self) -> Option<ProfileTrace> {
        self.trace.as_ref().map(|log| ProfileTrace {
            k: self.k(),
            patterns: log.patterns.clone(),
            units: log.units.clone(),
        })
    }

    fn emit(&mut self, event: RecoveryEvent) {
        if let Some(observer) = &mut self.observer {
            observer(&event);
        }
    }

    fn budget_reason(&self) -> Option<BudgetReason> {
        if self.cancel.is_cancelled() {
            return Some(BudgetReason::Cancelled);
        }
        if self
            .deadline
            .is_some_and(|deadline| self.started.elapsed() >= deadline)
        {
            return Some(BudgetReason::Deadline);
        }
        None
    }

    fn finish_exhausted(&mut self, reason: BudgetReason) {
        let partial = self
            .last_check
            .as_ref()
            .map(|r| r.solutions.clone())
            .unwrap_or_default();
        self.outcome = Some(RecoveryOutcome::BudgetExhausted { reason, partial });
    }

    /// Runs one collect → push → check round; returns whether the session
    /// reached a terminal outcome. Calling `advance` on a finished session
    /// is a no-op returning [`SessionStatus::Finished`].
    ///
    /// # Errors
    ///
    /// Returns a [`RecoveryError`] if the engine fails the batch or the
    /// solver rejects its constraints. A failed session is terminal:
    /// every later `advance` returns the same error.
    pub fn advance(&mut self) -> Result<SessionStatus, RecoveryError> {
        if let Some(err) = &self.error {
            return Err(err.clone());
        }
        match self.advance_impl() {
            Ok(status) => Ok(status),
            Err(err) => {
                self.error = Some(err.clone());
                Err(err)
            }
        }
    }

    fn advance_impl(&mut self) -> Result<SessionStatus, RecoveryError> {
        if self.outcome.is_some() {
            return Ok(SessionStatus::Finished);
        }
        if let Some(reason) = self.budget_reason() {
            self.finish_exhausted(reason);
            return Ok(SessionStatus::Finished);
        }

        // Collect the next batch, checking deadline/cancellation between
        // units so budgets are honored mid-batch. Each batch is consumed
        // exactly once, so take it instead of cloning it.
        let batch = std::mem::take(&mut self.batches[self.next_batch]);
        let cancel = self.cancel.clone();
        let deadline_at = self.deadline.map(|d| self.started + d);
        let interrupt =
            move || cancel.is_cancelled() || deadline_at.is_some_and(|at| Instant::now() >= at);
        let record = self.trace.is_some();
        let collect_start = Instant::now();
        let sim_before = self.source.sim_elapsed_ns().unwrap_or(0);
        let collected = collect_inner(
            self.source,
            &batch,
            &self.plan,
            &self.engine,
            record,
            Some(&interrupt),
        )?;
        let collect_time = collect_start.elapsed();
        let round_sim_ns = self
            .source
            .sim_elapsed_ns()
            .unwrap_or(0)
            .saturating_sub(sim_before);
        self.sim_ns_total += round_sim_ns;
        if collected.interrupted {
            // The partial batch is discarded: which units completed
            // depends on scheduling, and a partial profile would assert
            // false NoMiscorrection facts.
            let reason = if self.cancel.is_cancelled() {
                BudgetReason::Cancelled
            } else {
                BudgetReason::Deadline
            };
            self.finish_exhausted(reason);
            return Ok(SessionStatus::Finished);
        }
        if let Some(log) = &mut self.trace {
            let offset = log.patterns.len();
            log.patterns.extend(batch.iter().cloned());
            for mut unit in collected.units {
                unit.offset_patterns(offset);
                log.units.push(unit);
            }
        }
        self.rounds += 1;
        self.next_batch += 1;
        self.patterns_used += batch.len();
        let round = self.rounds;
        let observations: u64 = collected.profile.per_bit_totals().iter().sum();
        let trials: u64 = (0..batch.len())
            .map(|pi| collected.profile.trials(pi))
            .sum();
        self.emit(RecoveryEvent::BatchCollected {
            round,
            patterns: batch.len(),
            observations,
            trials,
        });

        // Push the thresholded facts into the live SAT session.
        let constraints = collected.profile.to_constraints(&self.filter);
        let facts_before = self.solver.facts_encoded();
        self.solver.push_constraints(&constraints)?;
        let (encode_time, preprocess_time) = self.solver.last_push_times();
        let total_facts = self.solver.facts_encoded();
        let pinned_vars = self.solver.pinned_vars();
        self.emit(RecoveryEvent::FactsPushed {
            round,
            new_facts: total_facts - facts_before,
            total_facts,
            pinned_vars,
        });

        // Check uniqueness over everything pushed so far.
        let mut report = self.solver.check();
        report.sim_ns = self.sim_ns_total;
        if report.distinctness_repairs > 0 {
            self.emit(RecoveryEvent::CounterexampleRepaired {
                round,
                pairs: report.distinctness_repairs,
            });
        }
        self.emit(RecoveryEvent::CheckCompleted {
            round,
            solutions: report.solutions.len(),
            truncated: report.truncated,
            elapsed: report.total_time,
            phases: RoundPhases {
                collect: collect_time,
                preprocess: preprocess_time,
                encode: encode_time,
                solve: report.total_time,
            },
            sim_ns: round_sim_ns,
            solver: report.solver_stats,
        });

        let schedule_done = self.next_batch >= self.batches.len();
        if report.is_unique() {
            self.outcome = Some(RecoveryOutcome::Unique(report.solutions[0].clone()));
        } else if report.solutions.is_empty() {
            self.outcome = Some(RecoveryOutcome::Inconsistent);
        } else if schedule_done {
            self.outcome = Some(RecoveryOutcome::Ambiguous {
                count: report.solutions.len(),
                truncated: report.truncated,
                witnesses: report.solutions.clone(),
            });
        }
        self.last_check = Some(report);
        Ok(if self.outcome.is_some() {
            SessionStatus::Finished
        } else {
            SessionStatus::Running
        })
    }

    /// Advances until the session finishes, then returns the report.
    ///
    /// # Errors
    ///
    /// The conditions of [`RecoverySession::advance`].
    pub fn run_to_completion(mut self) -> Result<RecoveryReport, RecoveryError> {
        while self.advance()? == SessionStatus::Running {}
        Ok(self.into_report())
    }

    /// Consumes a finished session into its report.
    ///
    /// # Panics
    ///
    /// Panics if the session has not finished (no terminal outcome yet).
    pub fn into_report(mut self) -> RecoveryReport {
        let stats = self.stats();
        let trace = self.export_trace();
        let outcome = self
            .outcome
            .take()
            .expect("into_report called on an unfinished session");
        RecoveryReport {
            outcome,
            stats,
            last_check: self.last_check.take(),
            trace,
        }
    }
}

// ---------------------------------------------------------------------------
// Guarded execution
// ---------------------------------------------------------------------------

/// Runs one configured session over `source` to completion, armed with
/// `cancel` and reporting progress to `observer`, converting a panicking
/// backend into a typed [`RecoveryError`] attributed to `label` instead of
/// unwinding into the caller.
///
/// This is the execution core of the `beer_service` job workers: one
/// misbehaving job must not take down its siblings or the worker that ran
/// it. Even a panic *payload* whose `Drop` panics again is contained here.
pub fn run_session_guarded(
    config: &RecoveryConfig,
    label: &str,
    source: &mut dyn ProfileSource,
    cancel: CancelToken,
    observer: impl FnMut(&RecoveryEvent),
) -> Result<RecoveryReport, RecoveryError> {
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        config
            .session(source)
            .with_cancel_token(cancel)
            .with_observer(observer)
            .run_to_completion()
    }));
    match run {
        Ok(result) => result,
        Err(payload) => {
            let message = crate::engine::panic_message(payload.as_ref());
            // A payload whose Drop panics must not unwind out of the
            // worker (it would poison shared locks and abort siblings).
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(payload)));
            Err(RecoveryError::Engine(EngineError::Backend {
                backend: label.to_string(),
                message,
            }))
        }
    }
}
