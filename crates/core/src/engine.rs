//! The unified profiling engine: pluggable DRAM backends and parallel
//! batched collection.
//!
//! BEER's step 1+2 — induce miscorrections and accumulate them into a
//! [`MiscorrectionProfile`] — originally ran against one hard-wired data
//! source (a simulated chip driven serially). The engine generalizes both
//! axes:
//!
//! * **Backends.** A [`ProfileSource`] is anything that can contribute
//!   miscorrection observations: a (simulated or physical) DRAM chip behind
//!   [`beer_dram::DramInterface`] ([`ChipBackend`]), the exact analytic
//!   model of a known code ([`AnalyticBackend`]), an EINSim-style
//!   Monte-Carlo simulation ([`EinsimBackend`]), or a recorded trace
//!   replayed offline ([`crate::trace::ReplayBackend`]). The collection
//!   driver, BEEP's ECC-function input, and the experiment harness all
//!   consume this one trait.
//! * **Parallel batch collection.** A source partitions its work into
//!   *units* — independent, deterministically numbered batches (for a chip:
//!   one retention trial of the refresh-window sweep). [`try_collect_with`]
//!   shards units across worker threads, each accumulating into a local
//!   profile, and merges the shards. Because units are deterministic and
//!   profile merging is commutative counting, the merged profile is
//!   **bit-identical** to a serial run regardless of thread count.
//!   Failures — a worker panic, a replayed trace that cannot serve the
//!   requested patterns — surface as typed [`EngineError`]s;
//!   [`try_collect_traced`] additionally records per-unit traces for
//!   checkpointing. [`crate::recovery::RecoverySession`] is the high-level
//!   driver over all of this.

use crate::collect::{
    read_word_from_image, validate_patterns, write_word_into_image, ChipKnowledge, CollectionPlan,
};
use crate::pattern::ChargedSet;
use crate::profile::MiscorrectionProfile;
use crate::trace::UnitTrace;
use beer_dram::{CellType, DramInterface};
use beer_ecc::{miscorrection, LinearCode};
use beer_einsim::{simulate, ErrorModel, SimConfig};
use beer_gf2::BitVec;
use beer_timing::{execute_trial, ArrayGeometry, MemController, TimingParams};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A typed error from the collection engine.
///
/// Collection drives external state — worker threads, recorded traces,
/// real hardware — so failures surface as values that the
/// [`crate::recovery`] session routes into its error path instead of
/// aborting the process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EngineError {
    /// A parallel collection worker panicked. The shard context names the
    /// units the worker covered (`shard`, `shard + stride`, … up to
    /// `units`).
    WorkerPanicked {
        /// The worker's shard index.
        shard: usize,
        /// The stride between the shard's units (the worker count).
        stride: usize,
        /// Total units in the collection.
        units: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A replayed trace cannot serve a requested pattern — the session
    /// asked for evidence the recording never collected.
    TraceMissingPattern {
        /// Display form of the missing pattern.
        pattern: String,
        /// Number of patterns the trace does contain.
        recorded: usize,
    },
    /// A backend-specific failure serving the collection.
    Backend {
        /// The backend's [`ProfileSource::label`].
        backend: String,
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::WorkerPanicked {
                shard,
                stride,
                units,
                message,
            } => {
                // Name only units the shard actually covers.
                if shard + stride < *units {
                    write!(
                        f,
                        "collection worker {shard} panicked covering units \
                         {shard}, {}, … of {units}: {message}",
                        shard + stride
                    )
                } else {
                    write!(
                        f,
                        "collection worker {shard} panicked covering unit \
                         {shard} of {units}: {message}"
                    )
                }
            }
            EngineError::TraceMissingPattern { pattern, recorded } => write!(
                f,
                "replay trace lacks pattern {pattern} (the recording covers \
                 {recorded} patterns); the trace cannot serve this schedule"
            ),
            EngineError::Backend { backend, message } => {
                write!(f, "{backend} backend failed: {message}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// A source of miscorrection observations (see the module docs).
///
/// Implementations split their work into `num_units` independent units and
/// must guarantee that `run_unit(u)` records the same observations no
/// matter which worker executes it or in which order — the contract that
/// makes parallel collection deterministic.
pub trait ProfileSource {
    /// Dataword length of the source.
    fn k(&self) -> usize;

    /// Human-readable backend name for reports and logs.
    fn label(&self) -> String;

    /// Number of independent work units for this pattern set and plan.
    fn num_units(&self, patterns: &[ChargedSet], plan: &CollectionPlan) -> usize;

    /// Executes unit `unit`, accumulating observations into `profile`
    /// (which is always created over exactly `patterns`).
    ///
    /// # Errors
    ///
    /// Backends over external state (recorded traces, hardware) report
    /// failures as [`EngineError`]s; in-memory backends are infallible.
    fn run_unit(
        &mut self,
        unit: usize,
        patterns: &[ChargedSet],
        plan: &CollectionPlan,
        profile: &mut MiscorrectionProfile,
    ) -> Result<(), EngineError>;

    /// An independent handle for a parallel worker, if the source supports
    /// one. Returning `None` (the default) makes [`try_collect_with`] fall back
    /// to serial collection.
    fn fork(&self) -> Option<Box<dyn ProfileSource + Send>> {
        None
    }

    /// Notifies the source that a collection over `patterns` is about to
    /// start — called once per collection, on the primary source, before
    /// any forking. Sources with sampling state re-synchronize it here
    /// (e.g. a chip driven directly between collections has consumed trial
    /// indices the backend hasn't seen); sources backed by recordings
    /// validate that they can serve `patterns` at all. Default: no-op.
    fn begin_collection(
        &mut self,
        _patterns: &[ChargedSet],
        _plan: &CollectionPlan,
    ) -> Result<(), EngineError> {
        Ok(())
    }

    /// Notifies the source that a collection of `units` units finished —
    /// called once per collection, on the primary source only. Sources
    /// with sampling state advance it here so the *next* collection draws
    /// independent samples instead of replaying this one's stream.
    /// Default: no-op (stateless backends).
    fn finish_collection(&mut self, _units: usize) {}

    /// Cumulative *simulated* DRAM nanoseconds this source has executed, if
    /// it models time at all. This is a meter of work already performed —
    /// never a side-effect-free cost query — so reading it cannot disagree
    /// with execution. Clocked chip backends
    /// ([`ChipBackend::with_params`]) share one meter across forks;
    /// untimed backends return `None` (the default).
    fn sim_elapsed_ns(&self) -> Option<u64> {
        None
    }
}

/// Execution options for [`try_collect_with`].
#[derive(Clone, Copy, Debug, Default)]
pub struct EngineOptions {
    /// Worker threads: `0` uses the machine's available parallelism.
    pub threads: usize,
}

impl EngineOptions {
    /// Single-threaded collection.
    pub fn serial() -> Self {
        EngineOptions { threads: 1 }
    }

    /// Collection with exactly `threads` workers.
    pub fn with_threads(threads: usize) -> Self {
        EngineOptions { threads }
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        }
    }
}

/// Optional stop predicate checked between units (deadline/cancellation).
pub(crate) type InterruptFn<'a> = dyn Fn() -> bool + Sync + 'a;

/// Extracts a human-readable message from a caught panic payload.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// Everything one collection run produced.
pub(crate) struct Collected {
    /// The merged profile (bit-identical to a serial run).
    pub profile: MiscorrectionProfile,
    /// Per-unit traces in unit order (empty unless recording was asked
    /// for, or the run was interrupted — an interrupted recording is
    /// incomplete and therefore discarded).
    pub units: Vec<UnitTrace>,
    /// True if the interrupt predicate stopped the run before every unit
    /// executed; the partial profile must then be discarded by the caller
    /// (which units completed depends on worker scheduling).
    pub interrupted: bool,
}

/// The collection-wide parameters every shard shares.
struct ShardJob<'a> {
    patterns: &'a [ChargedSet],
    plan: &'a CollectionPlan,
    k: usize,
    units: usize,
    record_units: bool,
    interrupt: Option<&'a InterruptFn<'a>>,
}

/// One shard's yield: its local profile, recorded unit traces, and
/// whether the interrupt predicate stopped it early.
type ShardYield = (MiscorrectionProfile, Vec<(usize, UnitTrace)>, bool);

/// One worker's share of a collection: units `shard`, `shard + stride`, …
fn run_shard(
    worker: &mut dyn ProfileSource,
    shard: usize,
    stride: usize,
    job: &ShardJob<'_>,
) -> Result<ShardYield, EngineError> {
    let mut local = MiscorrectionProfile::new(job.k, job.patterns.to_vec());
    let mut traces: Vec<(usize, UnitTrace)> = Vec::new();
    for unit in (shard..job.units).step_by(stride.max(1)) {
        if job.interrupt.is_some_and(|stop| stop()) {
            return Ok((local, traces, true));
        }
        if job.record_units {
            let mut scratch = MiscorrectionProfile::new(job.k, job.patterns.to_vec());
            worker.run_unit(unit, job.patterns, job.plan, &mut scratch)?;
            traces.push((unit, UnitTrace::from_profile(&scratch)));
            local.merge(&scratch);
        } else {
            worker.run_unit(unit, job.patterns, job.plan, &mut local)?;
        }
    }
    Ok((local, traces, false))
}

/// The collection driver behind every public entry point: shards units
/// across threads when the source forks, optionally records per-unit
/// traces, and honors an interrupt predicate between units.
pub(crate) fn collect_inner(
    source: &mut dyn ProfileSource,
    patterns: &[ChargedSet],
    plan: &CollectionPlan,
    options: &EngineOptions,
    record_units: bool,
    interrupt: Option<&InterruptFn>,
) -> Result<Collected, EngineError> {
    let k = validate_patterns(patterns);
    assert_eq!(
        k,
        source.k(),
        "pattern length does not match the source's dataword size"
    );
    source.begin_collection(patterns, plan)?;
    let units = source.num_units(patterns, plan);
    let mut profile = MiscorrectionProfile::new(k, patterns.to_vec());
    let threads = options.effective_threads().min(units.max(1));
    let job = ShardJob {
        patterns,
        plan,
        k,
        units,
        record_units,
        interrupt,
    };

    // Every worker (including the first) runs on a fork so the shards are
    // fully independent; a single-thread request or a source that cannot
    // fork takes the serial path.
    let workers: Option<Vec<Box<dyn ProfileSource + Send>>> = if threads > 1 {
        (0..threads).map(|_| source.fork()).collect()
    } else {
        None
    };
    let (shards, interrupted) = match workers {
        Some(workers) => {
            let job = &job;
            let results = std::thread::scope(|scope| {
                let handles: Vec<_> = workers
                    .into_iter()
                    .enumerate()
                    .map(|(w, mut worker)| {
                        scope.spawn(move || run_shard(worker.as_mut(), w, threads, job))
                    })
                    .collect();
                handles
                    .into_iter()
                    .enumerate()
                    .map(|(w, h)| {
                        h.join().unwrap_or_else(|payload| {
                            Err(EngineError::WorkerPanicked {
                                shard: w,
                                stride: threads,
                                units,
                                message: panic_message(payload.as_ref()),
                            })
                        })
                    })
                    .collect::<Vec<_>>()
            });
            // Shards merge in worker order, so the outcome (success or
            // the first error by shard index) is deterministic.
            let mut shards = Vec::with_capacity(results.len());
            let mut interrupted = false;
            for result in results {
                let (shard, traces, stopped) = result?;
                interrupted |= stopped;
                shards.push((shard, traces));
            }
            (shards, interrupted)
        }
        None => {
            let (shard, traces, stopped) = run_shard(source, 0, 1, &job)?;
            (vec![(shard, traces)], stopped)
        }
    };

    let mut unit_traces: Vec<(usize, UnitTrace)> = Vec::new();
    for (shard, traces) in shards {
        profile.merge(&shard);
        unit_traces.extend(traces);
    }
    unit_traces.sort_by_key(|&(unit, _)| unit);
    source.finish_collection(units);
    Ok(Collected {
        profile,
        // An interrupted recording is missing units — never expose it.
        units: if interrupted {
            Vec::new()
        } else {
            unit_traces.into_iter().map(|(_, t)| t).collect()
        },
        interrupted,
    })
}

/// Collects a miscorrection profile from any backend, sharding work units
/// across threads when the source supports forking.
///
/// The result is bit-identical to a serial run for every thread count.
///
/// # Errors
///
/// Returns an [`EngineError`] if a parallel worker panics or the backend
/// cannot serve the request (e.g. a replayed trace lacks a requested
/// pattern).
///
/// # Panics
///
/// Panics if `patterns` is empty, their dataword lengths differ, or they
/// disagree with `source.k()`.
pub fn try_collect_with(
    source: &mut dyn ProfileSource,
    patterns: &[ChargedSet],
    plan: &CollectionPlan,
    options: &EngineOptions,
) -> Result<MiscorrectionProfile, EngineError> {
    collect_inner(source, patterns, plan, options, false, None).map(|c| c.profile)
}

/// Collects a profile *and* its per-unit [`UnitTrace`]s, so the run can be
/// checkpointed into a [`crate::trace::ProfileTrace`] and replayed later.
/// Parallelizes like [`try_collect_with`]; the traces come back in unit
/// order regardless of scheduling.
///
/// # Errors
///
/// The same conditions as [`try_collect_with`].
///
/// # Panics
///
/// The same conditions as [`try_collect_with`].
pub fn try_collect_traced(
    source: &mut dyn ProfileSource,
    patterns: &[ChargedSet],
    plan: &CollectionPlan,
    options: &EngineOptions,
) -> Result<(MiscorrectionProfile, Vec<UnitTrace>), EngineError> {
    collect_inner(source, patterns, plan, options, true, None).map(|c| (c.profile, c.units))
}

// ---------------------------------------------------------------------------
// Chip backend
// ---------------------------------------------------------------------------

/// A [`ProfileSource`] driving a DRAM chip through
/// [`beer_dram::DramInterface`] — the §5.1 experimental methodology. One
/// unit is one retention trial of the plan's refresh-window sweep: program
/// every word, pause refresh, read back, and record every unambiguous
/// miscorrection.
///
/// Only **true-cell** words are profiled, exactly as the paper does ("the
/// data is taken from the true-cell regions", §5.1.3): in anti-cell words
/// the encoder charges the *complement* of the parity pattern, so the
/// 1-CHARGED reasoning about reachable syndromes does not transfer.
/// Anti-cell words are programmed with a fully data-DISCHARGED background
/// and ignored.
///
/// [`ChipBackend::with_params`] adds a controller clock: every trial then
/// executes through a cycle-accurate `beer_timing::MemController` (program
/// sweep, refresh-paused decay, readback sweep), the trial's error profile
/// sees the **emergent** refresh window — the simulated time the command
/// stream actually spent with refresh paused, cycle-quantized — and the
/// backend meters cumulative simulated time
/// ([`ProfileSource::sim_elapsed_ns`]), which recovery sessions thread onto
/// `RecoveryEvent::CheckCompleted`, `RecoveryStats::dram_sim_ns`, and
/// `SolveReport::sim_ns`. Timing changes a campaign's cost, never its
/// facts. [`crate::recovery::TimedCostModel`] prices a round by executing
/// the same streams, so estimate and meter agree exactly.
///
/// Forking requires the chip to support [`DramInterface::fork`] (simulated
/// chips do; physical chips run serially). Forks share one simulated-time
/// meter, and each clocked unit executes on a *fresh* controller from
/// power-up state, so a unit's simulated cost is independent of scheduling
/// order — parallel collection accrues exactly the serial total.
pub struct ChipBackend {
    chip: Box<dyn DramInterface + Send>,
    knowledge: ChipKnowledge,
    /// Trial-counter offset of the *next* collection: every unit seeks
    /// `trial_base + unit`, and `finish_collection` advances the base so
    /// successive collections draw independent transient-noise samples.
    trial_base: u64,
    /// The controller clock trials execute under, if any.
    clock: Option<Clock>,
}

/// A [`ChipBackend`]'s controller clock: the speed bin, the array shape
/// trials sweep, and the simulated-time meter shared across forks.
#[derive(Clone)]
struct Clock {
    params: TimingParams,
    geom: ArrayGeometry,
    sim_ns: Arc<AtomicU64>,
}

impl ChipBackend {
    /// Wraps a chip and the experimenter's knowledge about it, resuming
    /// the noise stream from the chip's current trial counter. Trials
    /// model no time.
    pub fn new(chip: Box<dyn DramInterface + Send>, knowledge: ChipKnowledge) -> Self {
        let trial_base = chip.trial_counter();
        ChipBackend {
            chip,
            knowledge,
            trial_base,
            clock: None,
        }
    }

    /// Wraps a chip like [`ChipBackend::new`], executing every trial
    /// through a cycle-accurate controller under the speed bin `params`
    /// (see the type docs).
    ///
    /// # Panics
    ///
    /// Panics if `params` is not a valid speed bin.
    pub fn with_params(
        chip: Box<dyn DramInterface + Send>,
        knowledge: ChipKnowledge,
        params: TimingParams,
    ) -> Self {
        params.validate();
        let geom = ArrayGeometry::of_chip(&chip.geometry());
        ChipBackend {
            clock: Some(Clock {
                params,
                geom,
                sim_ns: Arc::new(AtomicU64::new(0)),
            }),
            ..ChipBackend::new(chip, knowledge)
        }
    }

    /// The wrapped chip (e.g. to continue driving it after collection).
    pub fn chip_mut(&mut self) -> &mut dyn DramInterface {
        self.chip.as_mut()
    }

    /// The experimenter's knowledge.
    pub fn knowledge(&self) -> &ChipKnowledge {
        &self.knowledge
    }
}

impl ProfileSource for ChipBackend {
    fn k(&self) -> usize {
        self.knowledge.word_layout.word_bytes() * 8
    }

    fn label(&self) -> String {
        "chip".to_string()
    }

    fn num_units(&self, _patterns: &[ChargedSet], plan: &CollectionPlan) -> usize {
        plan.num_trials()
    }

    fn run_unit(
        &mut self,
        unit: usize,
        patterns: &[ChargedSet],
        plan: &CollectionPlan,
        profile: &mut MiscorrectionProfile,
    ) -> Result<(), EngineError> {
        self.chip.set_temperature(plan.celsius);
        let mut trefw = plan.trefw_schedule[unit / plan.trials_per_step];
        if let Some(clock) = &self.clock {
            // A fresh controller per unit: the unit's simulated cost depends
            // only on (params, geometry, window), never on which worker ran
            // the units before it.
            let mut ctrl = MemController::new(clock.params, clock.geom.banks);
            let cost =
                execute_trial(&mut ctrl, &clock.geom, trefw).map_err(|e| EngineError::Backend {
                    backend: self.label(),
                    message: e.to_string(),
                })?;
            clock.sim_ns.fetch_add(cost.total_ns(), Ordering::Relaxed);
            // The trial decays for the window the command stream spent.
            trefw = cost.window_seconds;
        }
        run_collection_trial(
            self.chip.as_mut(),
            &self.knowledge,
            patterns,
            trefw,
            unit,
            self.trial_base,
            profile,
        );
        Ok(())
    }

    fn fork(&self) -> Option<Box<dyn ProfileSource + Send>> {
        let chip = self.chip.fork()?;
        Some(Box::new(ChipBackend {
            chip,
            knowledge: self.knowledge.clone(),
            trial_base: self.trial_base,
            clock: self.clock.clone(),
        }))
    }

    fn begin_collection(
        &mut self,
        _patterns: &[ChargedSet],
        _plan: &CollectionPlan,
    ) -> Result<(), EngineError> {
        // The chip may have been driven directly since the last collection
        // (its counter advanced past our base); resume from wherever the
        // noise stream actually is.
        self.trial_base = self.trial_base.max(self.chip.trial_counter());
        Ok(())
    }

    fn finish_collection(&mut self, units: usize) {
        self.trial_base += units as u64;
        // Keep the wrapped chip's own counter in step, so interleaving
        // engine collections with direct chip driving stays independent.
        self.chip.seek_trial(self.trial_base);
    }

    fn sim_elapsed_ns(&self) -> Option<u64> {
        self.clock
            .as_ref()
            .map(|clock| clock.sim_ns.load(Ordering::Relaxed))
    }
}

/// Runs one retention trial with refresh paused for `trefw` seconds: program
/// every word, pause refresh, read back, and record every unambiguous
/// miscorrection into `profile`.
///
/// `unit` indexes the plan's flattened (refresh-window × trial) grid; it
/// doubles as the pattern-assignment rotation and, offset by `trial_base`,
/// the chip's trial-counter position — so any scheduling order
/// (serial sweep or sharded workers) produces bit-identical observations,
/// while distinct collections (different bases) draw independent noise.
///
/// # Panics
///
/// Panics if the chip has no true-cell words.
fn run_collection_trial(
    chip: &mut dyn DramInterface,
    knowledge: &ChipKnowledge,
    patterns: &[ChargedSet],
    trefw: f64,
    unit: usize,
    trial_base: u64,
    profile: &mut MiscorrectionProfile,
) {
    let k = patterns[0].k();
    let rotation = unit;
    let num_words = knowledge.num_words(chip);
    let total_bytes = chip.geometry().total_bytes();

    // Profile only true-cell words (see the `ChipBackend` docs).
    let true_words: Vec<usize> = (0..num_words)
        .filter(|&w| knowledge.cell_type_of_word(chip, w) == CellType::True)
        .collect();
    assert!(
        !true_words.is_empty(),
        "chip has no true-cell words; BEER's test patterns need true-cell regions"
    );
    let anti_background = BitVec::ones(k); // data cells DISCHARGED in anti words

    // Program every word: anti words get the discharged background, each
    // true word its rotation-assigned pattern.
    let mut image = vec![0u8; total_bytes];
    for word in 0..num_words {
        if knowledge.cell_type_of_word(chip, word) == CellType::Anti {
            write_word_into_image(&mut image, &knowledge.word_layout, word, &anti_background);
        }
    }
    let mut assigned: Vec<usize> = Vec::with_capacity(true_words.len());
    for (idx, &word) in true_words.iter().enumerate() {
        let pi = (idx + rotation) % patterns.len();
        assigned.push(pi);
        let data = patterns[pi].to_dataword(CellType::True);
        write_word_into_image(&mut image, &knowledge.word_layout, word, &data);
    }
    chip.write_bytes(0, &image);

    chip.seek_trial(trial_base + unit as u64);
    chip.retention_test(trefw);

    let read = chip.read_bytes(0, total_bytes);
    for (idx, &word) in true_words.iter().enumerate() {
        let pi = assigned[idx];
        let written = patterns[pi].to_dataword(CellType::True);
        let observed = read_word_from_image(&read, &knowledge.word_layout, word, k);
        if observed != written {
            for j in 0..k {
                if observed.get(j) != written.get(j) && !patterns[pi].is_charged(j) {
                    // An error at a DISCHARGED bit: unambiguously a
                    // miscorrection (§4.2.2).
                    profile.record_miscorrection(pi, j);
                }
            }
        }
        profile.record_trials(pi, 1);
    }
}

// ---------------------------------------------------------------------------
// Analytic backend
// ---------------------------------------------------------------------------

/// A [`ProfileSource`] computing the exact profile of a *known* code with
/// the closed-form observable-miscorrection predicate — the simulation
/// methodology of §6.1. One unit is one pattern.
///
/// Each possible miscorrection is recorded `emphasis` times so the
/// resulting counts clear any reasonable [`crate::profile::ThresholdFilter`].
#[derive(Clone)]
pub struct AnalyticBackend {
    code: LinearCode,
    emphasis: u64,
}

impl AnalyticBackend {
    /// A backend for the given code.
    pub fn new(code: LinearCode) -> Self {
        AnalyticBackend { code, emphasis: 8 }
    }

    /// Overrides how many observations each possible miscorrection records.
    pub fn with_emphasis(mut self, emphasis: u64) -> Self {
        assert!(emphasis > 0, "emphasis must be positive");
        self.emphasis = emphasis;
        self
    }

    /// The underlying code.
    pub fn code(&self) -> &LinearCode {
        &self.code
    }
}

impl ProfileSource for AnalyticBackend {
    fn k(&self) -> usize {
        self.code.k()
    }

    fn label(&self) -> String {
        "analytic".to_string()
    }

    fn num_units(&self, patterns: &[ChargedSet], _plan: &CollectionPlan) -> usize {
        patterns.len()
    }

    fn run_unit(
        &mut self,
        unit: usize,
        patterns: &[ChargedSet],
        _plan: &CollectionPlan,
        profile: &mut MiscorrectionProfile,
    ) -> Result<(), EngineError> {
        let pattern = &patterns[unit];
        for j in 0..self.code.k() {
            if !pattern.is_charged(j)
                && miscorrection::miscorrection_possible_at(&self.code, pattern.bits(), j)
            {
                profile.record_miscorrections(unit, j, self.emphasis);
            }
        }
        profile.record_trials(unit, self.emphasis);
        Ok(())
    }

    fn fork(&self) -> Option<Box<dyn ProfileSource + Send>> {
        Some(Box::new(self.clone()))
    }
}

// ---------------------------------------------------------------------------
// EINSim backend
// ---------------------------------------------------------------------------

/// A [`ProfileSource`] running EINSim-style Monte-Carlo simulation of a
/// known code under the §3.2 retention error model — the §5.1.3
/// cross-check methodology. One unit is one pattern, simulated across a
/// sweep of raw bit error rates.
///
/// Each unit's RNG is seeded from `(seed, unit, ber index)` only, so the
/// observations are deterministic under any work sharding.
#[derive(Clone)]
pub struct EinsimBackend {
    code: LinearCode,
    words_per_ber: u64,
    bers: Vec<f64>,
    seed: u64,
}

impl EinsimBackend {
    /// A backend simulating `words_per_ber` words per pattern at each of
    /// the default raw-BER sweep points (mirroring
    /// [`CollectionPlan::quick`]'s targets).
    pub fn new(code: LinearCode, words_per_ber: u64, seed: u64) -> Self {
        EinsimBackend {
            code,
            words_per_ber,
            bers: vec![0.1, 0.25, 0.4, 0.499],
            seed,
        }
    }

    /// Overrides the raw-BER sweep.
    ///
    /// # Panics
    ///
    /// Panics if `bers` is empty.
    pub fn with_bers(mut self, bers: Vec<f64>) -> Self {
        assert!(!bers.is_empty(), "need at least one BER point");
        self.bers = bers;
        self
    }

    /// The underlying code.
    pub fn code(&self) -> &LinearCode {
        &self.code
    }
}

impl ProfileSource for EinsimBackend {
    fn k(&self) -> usize {
        self.code.k()
    }

    fn label(&self) -> String {
        "einsim".to_string()
    }

    fn num_units(&self, patterns: &[ChargedSet], _plan: &CollectionPlan) -> usize {
        patterns.len()
    }

    fn run_unit(
        &mut self,
        unit: usize,
        patterns: &[ChargedSet],
        _plan: &CollectionPlan,
        profile: &mut MiscorrectionProfile,
    ) -> Result<(), EngineError> {
        let pattern = &patterns[unit];
        let data = pattern.to_dataword(CellType::True);
        for (bi, &ber) in self.bers.iter().enumerate() {
            let mut rng = SmallRng::seed_from_u64(
                self.seed
                    ^ (unit as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    ^ (bi as u64).wrapping_mul(0xD1B5_4A32_D192_ED03),
            );
            let cfg = SimConfig {
                words: self.words_per_ber,
                model: ErrorModel::Retention { ber },
            };
            let stats = simulate(&self.code, &data, &cfg, &mut rng);
            for j in 0..self.code.k() {
                if pattern.is_charged(j) {
                    continue;
                }
                // A decoder flip at an error-free DISCHARGED data bit is an
                // observable miscorrection — identical semantics to the
                // chip experiment's post-correction comparison.
                profile.record_miscorrections(unit, j, stats.miscorrections[j]);
            }
            profile.record_trials(unit, self.words_per_ber);
        }
        Ok(())
    }

    fn fork(&self) -> Option<Box<dyn ProfileSource + Send>> {
        Some(Box::new(self.clone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::analytic_profile;
    use crate::pattern::PatternSet;
    use crate::profile::ThresholdFilter;
    use crate::recovery::{ScheduleCostModel, TimedCostModel};
    use beer_dram::{ChipConfig, Geometry, SimChip, TransientNoise};

    fn chip(seed: u64) -> SimChip {
        SimChip::new(ChipConfig::small_test_chip(seed).with_geometry(Geometry::new(1, 128, 128)))
    }

    fn knowledge_for(chip: &SimChip) -> ChipKnowledge {
        ChipKnowledge::uniform(
            chip.config().word_layout,
            CellType::True,
            chip.geometry().total_rows(),
        )
    }

    fn small_chip_backend(seed: u64) -> (ChipBackend, LinearCode) {
        let chip = chip(seed);
        let secret = chip.reveal_code().clone();
        let knowledge = knowledge_for(&chip);
        (ChipBackend::new(Box::new(chip), knowledge), secret)
    }

    /// A chip backend under the DDR4-3200 controller clock.
    fn timed_backend(chip: SimChip) -> ChipBackend {
        let knowledge = knowledge_for(&chip);
        ChipBackend::with_params(Box::new(chip), knowledge, TimingParams::ddr4_3200())
    }

    fn collect(
        source: &mut dyn ProfileSource,
        patterns: &[ChargedSet],
        plan: &CollectionPlan,
        threads: usize,
    ) -> MiscorrectionProfile {
        try_collect_with(
            source,
            patterns,
            plan,
            &EngineOptions::with_threads(threads),
        )
        .expect("in-memory backends cannot fail collection")
    }

    /// Raw per-(pattern, bit) counts plus per-pattern trials — the full
    /// observable content of a profile, for bit-identity assertions.
    fn raw_counts(profile: &MiscorrectionProfile) -> Vec<Vec<u64>> {
        (0..profile.patterns().len())
            .map(|pi| {
                let mut row: Vec<u64> = (0..profile.k()).map(|j| profile.count(pi, j)).collect();
                row.push(profile.trials(pi));
                row
            })
            .collect()
    }

    #[test]
    fn timed_profile_matches_untimed_backend() {
        let patterns = PatternSet::One.patterns(32);
        let plan = CollectionPlan::quick();

        let (mut plain, _) = small_chip_backend(91);
        let mut timed = timed_backend(chip(91));
        let a = collect(&mut plain, &patterns, &plan, 1);
        let b = collect(&mut timed, &patterns, &plan, 1);
        assert_eq!(
            raw_counts(&a),
            raw_counts(&b),
            "timing must change cost, never facts"
        );
        assert!(timed.sim_elapsed_ns().unwrap() > 0);
    }

    #[test]
    fn estimator_matches_meter_exactly() {
        let c = chip(92);
        let patterns = PatternSet::Checkered.patterns(32);
        let plan = CollectionPlan::quick();

        let estimated =
            TimedCostModel::for_chip(TimingParams::ddr4_3200(), &c.geometry()).round_sim_ns(&plan);
        let mut timed = timed_backend(c);
        collect(&mut timed, &patterns, &plan, 1);
        assert_eq!(timed.sim_elapsed_ns().unwrap(), estimated);
    }

    #[test]
    fn parallel_collection_accrues_serial_sim_time() {
        let patterns = PatternSet::One.patterns(32);
        let plan = CollectionPlan::quick();

        let mut serial = timed_backend(chip(93));
        let mut parallel = timed_backend(chip(93));
        let a = collect(&mut serial, &patterns, &plan, 1);
        let b = collect(&mut parallel, &patterns, &plan, 4);
        assert_eq!(raw_counts(&a), raw_counts(&b));
        assert_eq!(serial.sim_elapsed_ns(), parallel.sim_elapsed_ns());
    }

    #[test]
    fn successive_collections_draw_fresh_trials_in_both_clock_modes() {
        let patterns = PatternSet::One.patterns(32);
        let plan = CollectionPlan::quick();
        let units = plan.num_trials() as u64;
        // A noisy chip whose trial counter starts at `at`: transient noise
        // is the only observation that depends on the counter.
        let noisy = |at: u64| {
            let mut chip = SimChip::new(
                ChipConfig::small_test_chip(96)
                    .with_geometry(Geometry::new(1, 128, 128))
                    .with_noise(TransientNoise {
                        flip_probability: 1e-4,
                    }),
            );
            chip.seek_trial(at);
            chip
        };
        for timed in [false, true] {
            let backend = |chip: SimChip| {
                if timed {
                    timed_backend(chip)
                } else {
                    let knowledge = knowledge_for(&chip);
                    ChipBackend::new(Box::new(chip), knowledge)
                }
            };
            let mut one = backend(noisy(0));
            let first = collect(&mut one, &patterns, &plan, 1);
            assert_eq!(one.chip_mut().trial_counter(), units, "timed={timed}");
            let second = collect(&mut one, &patterns, &plan, 1);
            assert_eq!(one.chip_mut().trial_counter(), 2 * units, "timed={timed}");
            assert_ne!(
                raw_counts(&first),
                raw_counts(&second),
                "timed={timed}: the second collection replayed the first's noise"
            );
            let fresh = collect(&mut backend(noisy(units)), &patterns, &plan, 1);
            assert_eq!(raw_counts(&second), raw_counts(&fresh), "timed={timed}");

            // Driving the chip directly advances its counter past the
            // backend's base; the next collection resumes from there.
            for _ in 0..3 {
                one.chip_mut().retention_test(plan.trefw_schedule[0]);
            }
            let third = collect(&mut one, &patterns, &plan, 1);
            let fresh = collect(&mut backend(noisy(2 * units + 3)), &patterns, &plan, 1);
            assert_eq!(raw_counts(&third), raw_counts(&fresh), "timed={timed}");
        }
    }

    #[test]
    fn analytic_backend_reproduces_analytic_profile() {
        let (_, code) = small_chip_backend(92);
        let patterns = PatternSet::One.patterns(code.k());
        let mut backend = AnalyticBackend::new(code.clone());
        let profile = collect(&mut backend, &patterns, &CollectionPlan::quick(), 1);
        assert_eq!(
            profile.to_constraints(&ThresholdFilter::default()),
            analytic_profile(&code, &patterns)
        );
    }

    #[test]
    fn analytic_backend_supports_high_order_pattern_families() {
        // RANDOM-t (beyond the subset-search range), CHECKERED, and
        // ALL-charged all flow through the engine: the analytic predicate
        // switches to its GF(2) span check for large orders.
        let (_, code) = small_chip_backend(95);
        let k = code.k();
        let mut patterns = PatternSet::RandomT {
            t: k - 2,
            count: 4,
            seed: 3,
        }
        .patterns(k);
        patterns.extend(PatternSet::Checkered.patterns(k));
        patterns.extend(PatternSet::All.patterns(k));
        let mut backend = AnalyticBackend::new(code.clone());
        let profile = collect(&mut backend, &patterns, &CollectionPlan::quick(), 1);
        assert_eq!(
            profile.to_constraints(&ThresholdFilter::default()),
            analytic_profile(&code, &patterns)
        );
        // The ALL-charged pattern has no discharged bit to observe.
        let all_idx = patterns.len() - 1;
        assert!((0..k).all(|j| profile.count(all_idx, j) == 0));
    }

    #[test]
    fn einsim_backend_observes_only_possible_miscorrections() {
        let (_, code) = small_chip_backend(93);
        let patterns = PatternSet::One.patterns(code.k());
        let mut backend = EinsimBackend::new(code.clone(), 2000, 7);
        let profile = collect(&mut backend, &patterns, &CollectionPlan::quick(), 1);
        let truth = analytic_profile(&code, &patterns);
        for (pi, (pattern, obs)) in truth.entries.iter().enumerate() {
            for (j, &o) in obs.iter().enumerate() {
                if profile.count(pi, j) > 0 {
                    assert_eq!(
                        o,
                        crate::profile::Observation::Miscorrection,
                        "impossible observation at {pattern} bit {j}"
                    );
                }
            }
        }
    }

    /// A backend whose forks blow up on one specific unit.
    #[derive(Clone)]
    struct PanickyBackend;

    impl ProfileSource for PanickyBackend {
        fn k(&self) -> usize {
            4
        }

        fn label(&self) -> String {
            "panicky".to_string()
        }

        fn num_units(&self, _patterns: &[ChargedSet], _plan: &CollectionPlan) -> usize {
            4
        }

        fn run_unit(
            &mut self,
            unit: usize,
            _patterns: &[ChargedSet],
            _plan: &CollectionPlan,
            profile: &mut MiscorrectionProfile,
        ) -> Result<(), EngineError> {
            if unit == 2 {
                panic!("injected failure");
            }
            profile.record_trials(0, 1);
            Ok(())
        }

        fn fork(&self) -> Option<Box<dyn ProfileSource + Send>> {
            Some(Box::new(self.clone()))
        }
    }

    #[test]
    fn worker_panic_is_a_typed_error_with_shard_context() {
        let patterns = vec![ChargedSet::new(vec![0], 4)];
        let err = try_collect_with(
            &mut PanickyBackend,
            &patterns,
            &CollectionPlan::quick(),
            &EngineOptions::with_threads(2),
        )
        .expect_err("the shard covering unit 2 panics");
        match &err {
            EngineError::WorkerPanicked {
                shard,
                stride,
                units,
                message,
            } => {
                assert_eq!(*shard, 0, "unit 2 belongs to shard 0 under stride 2");
                assert_eq!(*stride, 2);
                assert_eq!(*units, 4);
                assert_eq!(message, "injected failure");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
        let display = err.to_string();
        assert!(display.contains("worker 0"), "got {display}");
        assert!(display.contains("units 0, 2"), "got {display}");

        // A shard covering a single unit must not name nonexistent units.
        let single = EngineError::WorkerPanicked {
            shard: 1,
            stride: 2,
            units: 2,
            message: "boom".to_string(),
        };
        let display = single.to_string();
        assert!(display.contains("unit 1 of 2"), "got {display}");
        assert!(!display.contains("3"), "got {display}");
    }

    #[test]
    fn parallel_equals_serial_for_every_backend() {
        let patterns = PatternSet::One.patterns(32);
        let plan = CollectionPlan::quick();
        let run = |backend: &mut dyn ProfileSource, threads: usize| {
            collect(backend, &patterns, &plan, threads)
        };

        let (mut chips, code) = small_chip_backend(94);
        let serial = run(&mut chips, 1);
        let (mut chipp, _) = small_chip_backend(94);
        let parallel = run(&mut chipp, 4);
        for pi in 0..patterns.len() {
            assert_eq!(serial.trials(pi), parallel.trials(pi));
            for j in 0..32 {
                assert_eq!(serial.count(pi, j), parallel.count(pi, j));
            }
        }

        for backend in [
            &mut AnalyticBackend::new(code.clone()) as &mut dyn ProfileSource,
            &mut EinsimBackend::new(code, 500, 11),
        ] {
            let serial = run(backend, 1);
            let parallel = run(backend, 3);
            for pi in 0..patterns.len() {
                for j in 0..32 {
                    assert_eq!(serial.count(pi, j), parallel.count(pi, j));
                }
            }
        }
    }
}
