//! Solving for the ECC function (paper §5.3).
//!
//! The unknown is the `(n−k) × k` parity sub-matrix `P` (§4.2.1 fixes
//! standard form, so `H = [P | I]`). The SAT instance contains:
//!
//! 1. *Basic linear code properties*: every data column of `H` has weight
//!    ≥ 2 (distinct from the zero syndrome and the identity columns) and
//!    data columns are pairwise distinct — exactly what single-error
//!    correction requires. Distinctness is enforced *lazily*: models are
//!    checked for duplicate columns and only offending pairs get a
//!    constraint, a counterexample-guided loop that keeps the k = 128
//!    encoding free of the `O(k²·p)` pairwise XOR grid.
//! 2. *Canonical form*: rows of `P` in non-decreasing lexicographic order.
//!    This is a complete symmetry break for the parity-bit relabeling
//!    freedom (see `beer_ecc::equivalence`), so each *equivalence class*
//!    of codes corresponds to exactly one SAT model and BEER's uniqueness
//!    check counts classes, as the paper intends.
//! 3. *The miscorrection profile*: for every pattern `A` and bit `j` with
//!    a definite observation, the closed-form predicate
//!    `∃x ⊆ A: supp(P_j ⊕ ⊕_{a∈x} P_a) ⊆ supp(⊕_{a∈A} P_a)`
//!    is asserted (observed) or refuted (not observed). The pattern's
//!    order picks one of two encodings:
//!
//!    * **Subset representatives** (`|A| ≤ 3`) — enumerate the
//!      `2^{|A|−1}` complement-classes of `x` explicitly. Compact for the
//!      paper's low orders, exponential beyond.
//!    * **Linear (polynomial)** (`|A| > 3`) — the predicate only
//!      constrains rows outside `supp(w)`, so it asks whether `P_j`, masked
//!      to those rows, lies in the span of the masked charged columns. A
//!      positive fact is a selector circuit (the solver picks `x`); a
//!      negative fact asserts a GF(2) *dual witness* `y` orthogonal to
//!      every masked charged column but not to `P_j` — such a `y` exists
//!      iff `P_j` is outside the span. Both are `O(p·|A|)` and encode the
//!      §5.2 RANDOM and ALL-charged patterns at any order.
//!
//!    An order-1 `NoMiscorrection` fact that the other observed order-1
//!    facts imply is left out of the CNF
//!    ([`ProgressiveSolver::push_constraints`] has the rules and why the
//!    solution set stays the same); the flagship (136, 128) profile needs
//!    only a few hundred of its ~14.8k negative facts.
//!
//! Uniqueness checking enumerates models with blocking clauses until UNSAT
//! or a caller-set cap — "Check Uniqueness" in Figure 6 — and re-verifies
//! every model against the closed-form profile. There is one
//! implementation of the whole procedure, [`ProgressiveSolver`];
//! [`solve_profile`] is a single push followed by a single check.

use crate::pattern::ChargedSet;
use crate::profile::{Observation, ProfileConstraints};
use beer_ecc::LinearCode;
use beer_gf2::{BitMatrix, BitVec};
use beer_sat::{CnfBuilder, Lit, SatResult, SolverStats, Var};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::{Duration, Instant};

/// Patterns up to this order use the subset-representative encoding, higher
/// ones the polynomial one (EXPERIMENTS.md, "Observation encodings", has the
/// per-order measurements behind the choice).
const SUBSET_REPS_MAX_ORDER: usize = 3;

/// A typed error from the solve entry points.
///
/// Pattern data reaches the encoder from the outside world (traces,
/// replayed experiments, caller-built constraint sets), so unsupported
/// inputs surface as values instead of panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// The constraints' (or one entry's) dataword length disagrees with
    /// the solver's.
    DatawordMismatch {
        /// The solver's dataword length.
        expected: usize,
        /// The offending dataword length.
        found: usize,
    },
    /// An entry has a definite observation at one of its CHARGED bits,
    /// where no miscorrection can be observed (§4.2.1): only DISCHARGED
    /// bits are tested.
    ChargedBitObserved {
        /// Index of the entry within the pushed constraints.
        entry: usize,
        /// The CHARGED bit.
        bit: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::DatawordMismatch { expected, found } => {
                write!(f, "constraint dataword length {found}, expected {expected}")
            }
            SolveError::ChargedBitObserved { entry, bit } => write!(
                f,
                "entry {entry} has a definite observation at its CHARGED bit {bit}"
            ),
        }
    }
}

impl std::error::Error for SolveError {}

/// Options for [`solve_profile`].
#[derive(Clone, Copy, Debug)]
pub struct BeerSolverOptions {
    /// Stop after this many solutions (2 suffices to decide uniqueness;
    /// Figure 5 uses a larger cap to count ambiguity).
    pub max_solutions: usize,
    /// Canonical row ordering (on by default; turning it off makes every
    /// parity-bit relabeling appear as a separate solution).
    pub symmetry_breaking: bool,
}

impl Default for BeerSolverOptions {
    fn default() -> Self {
        BeerSolverOptions {
            max_solutions: 2,
            symmetry_breaking: true,
        }
    }
}

/// The result of a BEER solve.
#[derive(Debug)]
pub struct SolveReport {
    /// Every ECC function found (canonical representatives), up to the cap.
    pub solutions: Vec<LinearCode>,
    /// True if enumeration stopped at the cap (more solutions may exist).
    pub truncated: bool,
    /// Time to the first solution or UNSAT ("Determine Function").
    pub determine_time: Duration,
    /// Total time including uniqueness checking.
    pub total_time: Duration,
    /// CNF size: variables (including lazily added repair clauses' gates).
    pub num_vars: usize,
    /// CNF size: clauses.
    pub num_clauses: usize,
    /// Column pairs constrained by the lazy-distinctness repair loop
    /// during this solve.
    pub distinctness_repairs: usize,
    /// Simulated DRAM nanoseconds the collections feeding this check
    /// executed (`0` unless the profile came from a timed source through
    /// a recovery session) — the campaign-cost context the paper prices
    /// experiments in, next to the host-side `total_time`.
    pub sim_ns: u64,
    /// Final solver statistics (includes the memory estimate).
    pub solver_stats: SolverStats,
}

impl SolveReport {
    /// True if exactly one ECC function (equivalence class) matches.
    pub fn is_unique(&self) -> bool {
        self.solutions.len() == 1 && !self.truncated
    }
}

/// The encoded instance: builder plus the `P`-matrix variables
/// (`vars[r * k + c]` is `P[r][c]`).
struct EncodedProblem {
    /// CNF under construction.
    cnf: CnfBuilder,
    /// The matrix variables, row-major.
    p_vars: Vec<Var>,
    /// Parity bits (rows of `P`).
    parity_bits: usize,
    /// Data bits (columns of `P`).
    k: usize,
    /// Column pairs whose distinctness constraint has been emitted.
    distinct_done: HashSet<(usize, usize)>,
}

impl EncodedProblem {
    fn p_lit(&self, r: usize, c: usize) -> Lit {
        self.p_vars[r * self.k + c].positive()
    }

    /// Number of `P` variables the solver holds fixed at decision level 0.
    /// Every public solver call leaves the solver at the root (adding a
    /// clause backtracks there), so an assigned variable is a fixed one.
    fn pinned_vars(&self) -> usize {
        let solver = self.cnf.solver();
        self.p_vars
            .iter()
            .filter(|&&v| solver.value(v).is_some())
            .count()
    }

    /// Asserts an always-false constraint (the instance is UNSAT).
    fn contradiction(&mut self) {
        let t = self.cnf.lit_true();
        self.cnf.add_clause(&[!t]);
    }

    /// Emits the pairwise-distinctness constraint for one column pair (the
    /// lazy repair loop's unit of work): some row differs.
    fn encode_pair_distinct(&mut self, c1: usize, c2: usize) {
        let key = (c1.min(c2), c1.max(c2));
        if !self.distinct_done.insert(key) {
            return;
        }
        let diffs: Vec<Lit> = (0..self.parity_bits)
            .map(|r| {
                let (a, b) = (self.p_lit(r, c1), self.p_lit(r, c2));
                self.cnf.xor(a, b)
            })
            .collect();
        self.cnf.add_clause(&diffs);
    }
}

/// Encodes the profile-independent part of the instance (constraints 1–2):
/// column weights (distinctness is repaired lazily) and, if enabled, the
/// canonical row order.
///
/// # Panics
///
/// Panics if `parity_bits < 2` or `k == 0`.
fn encode_base(k: usize, parity_bits: usize, options: &BeerSolverOptions) -> EncodedProblem {
    assert!(k > 0, "k must be positive");
    assert!(parity_bits >= 2, "a SEC code needs at least 2 parity bits");
    let mut cnf = CnfBuilder::new();
    let p_vars: Vec<Var> = (0..parity_bits * k).map(|_| cnf.new_var()).collect();
    let mut problem = EncodedProblem {
        cnf,
        p_vars,
        parity_bits,
        k,
        distinct_done: HashSet::new(),
    };
    encode_column_weights(&mut problem);
    if options.symmetry_breaking {
        encode_row_order(&mut problem);
    }
    problem
}

/// Constraint 1, up front: data columns have weight ≥ 2 (distinctness is
/// added pair by pair from counterexamples during enumeration).
fn encode_column_weights(problem: &mut EncodedProblem) {
    let (p, k) = (problem.parity_bits, problem.k);
    for c in 0..k {
        let col: Vec<Lit> = (0..p).map(|r| problem.p_lit(r, c)).collect();
        // At least two set bits: at least one overall, and at least one in
        // every leave-one-out subset.
        problem.cnf.at_least_one(&col);
        for skip in 0..p {
            let rest: Vec<Lit> = (0..p)
                .filter(|&r| r != skip)
                .map(|r| problem.p_lit(r, c))
                .collect();
            problem.cnf.at_least_one(&rest);
        }
    }
}

/// Constraint 2: rows of `P` in non-decreasing lexicographic order
/// (bit 0 most significant, matching `BitVec::lex_cmp`).
fn encode_row_order(problem: &mut EncodedProblem) {
    let (p, k) = (problem.parity_bits, problem.k);
    for r in 0..p.saturating_sub(1) {
        let row_a: Vec<Lit> = (0..k).map(|c| problem.p_lit(r, c)).collect();
        let row_b: Vec<Lit> = (0..k).map(|c| problem.p_lit(r + 1, c)).collect();
        problem.cnf.lex_le(&row_a, &row_b);
    }
}

/// Encodes one pattern's observations (constraint 3 above, one entry at a
/// time). The caller has checked the entry's dataword length.
fn encode_observation_entry(
    problem: &mut EncodedProblem,
    pattern: &ChargedSet,
    observations: &[Observation],
) {
    let p = problem.parity_bits;
    let charged = pattern.bits();
    let t = charged.len();
    if observations.iter().all(|&o| o == Observation::Unknown) {
        return;
    }
    if t == 0 {
        // An all-DISCHARGED pattern experiences no retention errors at
        // all, so the decoder never acts: a claimed miscorrection is
        // physically impossible (the instance is unsatisfiable), and a
        // NoMiscorrection fact is vacuous (weight ≥ 2 already forbids the
        // only matrix that could miscorrect, P_j = 0).
        if observations.contains(&Observation::Miscorrection) {
            problem.contradiction();
        }
        return;
    }

    // w_r = ⊕_{a∈A} P[r][a]: the CHARGED parity-bit indicator (shared by
    // every observation of the entry).
    let w: Vec<Lit> = (0..p)
        .map(|r| {
            let terms: Vec<Lit> = charged.iter().map(|&a| problem.p_lit(r, a)).collect();
            problem.cnf.xor_many(&terms)
        })
        .collect();

    for (j, &obs) in observations.iter().enumerate() {
        if obs == Observation::Unknown {
            continue;
        }
        if t <= SUBSET_REPS_MAX_ORDER {
            encode_fact_subset_reps(problem, charged, &w, j, obs);
        } else {
            encode_fact_linear(problem, charged, &w, j, obs);
        }
    }
}

/// The subset-representative encoding of one (pattern, bit) fact.
///
/// Assignments `x` and their complements induce identical conditions, so
/// only `2^{|A|−1}` representatives (those with `x₀ = 0`) are encoded.
fn encode_fact_subset_reps(
    problem: &mut EncodedProblem,
    charged: &[usize],
    w: &[Lit],
    j: usize,
    obs: Observation,
) {
    let p = problem.parity_bits;
    let t = charged.len();
    let reps: Vec<u32> = if t == 1 {
        vec![0]
    } else {
        (0u32..(1 << t)).filter(|x| x & 1 == 0).collect()
    };
    // v^x_r = P[r][j] ⊕ ⊕_{x_i=1} P[r][a_i].
    let v_for = |problem: &mut EncodedProblem, x: u32| -> Vec<Lit> {
        (0..p)
            .map(|r| {
                let mut terms = vec![problem.p_lit(r, j)];
                for (i, &a) in charged.iter().enumerate() {
                    if x >> i & 1 == 1 {
                        terms.push(problem.p_lit(r, a));
                    }
                }
                problem.cnf.xor_many(&terms)
            })
            .collect()
    };

    match obs {
        Observation::Miscorrection => {
            // ∃ representative x with ∀r (v_r → w_r).
            let vs: Vec<Vec<Lit>> = reps.iter().map(|&x| v_for(problem, x)).collect();
            if let [v] = vs.as_slice() {
                for (&vr, &wr) in v.iter().zip(w) {
                    problem.cnf.add_clause(&[!vr, wr]);
                }
                return;
            }
            let mut guards = Vec::with_capacity(vs.len());
            for v in &vs {
                let g = problem.cnf.new_lit();
                for (&vr, &wr) in v.iter().zip(w) {
                    problem.cnf.add_clause(&[!g, !vr, wr]);
                }
                guards.push(g);
            }
            problem.cnf.at_least_one(&guards);
        }
        Observation::NoMiscorrection => {
            // Every representative must fail: ∃r (v_r ∧ ¬w_r).
            for &x in &reps {
                let v = v_for(problem, x);
                let witnesses: Vec<Lit> = v
                    .iter()
                    .zip(w)
                    .map(|(&vr, &wr)| {
                        let h = problem.cnf.new_lit();
                        problem.cnf.add_clause(&[!h, vr]);
                        problem.cnf.add_clause(&[!h, !wr]);
                        h
                    })
                    .collect();
                problem.cnf.add_clause(&witnesses);
            }
        }
        Observation::Unknown => unreachable!(),
    }
}

/// The polynomial encoding of one (pattern, bit) fact (`O(p·|A|)` gates).
///
/// `supp(v) ⊆ supp(w)` constrains `v` only where `w` is zero, so the
/// predicate is span membership of the masked columns:
///
/// * *Miscorrection*: selector bits `s_i` choose `x`; the accumulated
///   `v = P_j ⊕ ⊕ s_i·P_{a_i}` must vanish on every row where `w` is
///   false.
/// * *NoMiscorrection*: a dual witness `y` supported on `w`'s zero rows
///   with `y·P_a = 0` for every charged column and `y·P_j = 1` — over
///   GF(2) such a functional exists iff `P_j` is outside the span.
fn encode_fact_linear(
    problem: &mut EncodedProblem,
    charged: &[usize],
    w: &[Lit],
    j: usize,
    obs: Observation,
) {
    match obs {
        Observation::Miscorrection => {
            let sels: Vec<Lit> = charged.iter().map(|_| problem.cnf.new_lit()).collect();
            for (r, &wr) in w.iter().enumerate() {
                let mut terms = vec![problem.p_lit(r, j)];
                for (&sel, &a) in sels.iter().zip(charged) {
                    let entry = problem.p_lit(r, a);
                    terms.push(problem.cnf.and(&[sel, entry]));
                }
                let acc = problem.cnf.xor_many(&terms);
                problem.cnf.add_clause(&[wr, !acc]);
            }
        }
        Observation::NoMiscorrection => {
            // y_r may be set only on rows outside supp(w).
            let ys: Vec<Lit> = w
                .iter()
                .map(|&wr| {
                    let y = problem.cnf.new_lit();
                    problem.cnf.add_clause(&[!y, !wr]);
                    y
                })
                .collect();
            let dot = |problem: &mut EncodedProblem, col: usize| -> Lit {
                let terms: Vec<Lit> = ys
                    .iter()
                    .enumerate()
                    .map(|(r, &y)| {
                        let entry = problem.p_lit(r, col);
                        problem.cnf.and(&[y, entry])
                    })
                    .collect();
                problem.cnf.xor_many(&terms)
            };
            for &a in charged {
                let parity = dot(problem, a);
                problem.cnf.add_clause(&[!parity]);
            }
            let parity = dot(problem, j);
            problem.cnf.add_clause(&[parity]);
        }
        Observation::Unknown => unreachable!(),
    }
}

/// Extracts the raw `P` assignment from a satisfying model.
fn extract_matrix(
    value: impl Fn(Var) -> Option<bool>,
    p_vars: &[Var],
    parity_bits: usize,
    k: usize,
) -> BitMatrix {
    let mut m = BitMatrix::zeros(parity_bits, k);
    for r in 0..parity_bits {
        for c in 0..k {
            if value(p_vars[r * k + c]) == Some(true) {
                m.set(r, c, true);
            }
        }
    }
    m
}

/// Column pairs of `m` with identical values (one pair per duplicate,
/// anchored at the first occurrence) — the counterexamples the lazy
/// distinctness scheme repairs.
fn duplicate_column_pairs(m: &BitMatrix) -> Vec<(usize, usize)> {
    let mut first: HashMap<BitVec, usize> = HashMap::new();
    let mut dups = Vec::new();
    for c in 0..m.cols() {
        match first.entry(m.col(c)) {
            std::collections::hash_map::Entry::Occupied(e) => dups.push((*e.get(), c)),
            std::collections::hash_map::Entry::Vacant(e) => {
                e.insert(c);
            }
        }
    }
    dups
}

/// Runs BEER's step 3 end to end: encode the profile, find every ECC
/// function consistent with it (up to `options.max_solutions`), and report
/// runtimes and solver statistics.
///
/// This is one [`ProgressiveSolver::push_constraints`] of the whole profile
/// into a fresh solver followed by one [`ProgressiveSolver::check`]; the
/// report's `determine_time` and `total_time` include the encoding.
///
/// A report with exactly one solution means the profile uniquely
/// identifies the chip's ECC function up to parity-bit relabeling.
///
/// # Errors
///
/// Returns a [`SolveError`] under the conditions of
/// [`ProgressiveSolver::push_constraints`]; unsatisfiable or contradictory
/// profiles are *not* errors — they yield an empty solution list.
///
/// # Panics
///
/// Panics if `parity_bits < 2`, `k == 0`, or a solution fails
/// re-verification (which would indicate an encoding bug).
pub fn solve_profile(
    k: usize,
    parity_bits: usize,
    constraints: &ProfileConstraints,
    options: &BeerSolverOptions,
) -> Result<SolveReport, SolveError> {
    let start = Instant::now();
    let mut solver = ProgressiveSolver::new(k, parity_bits, *options);
    solver.push_constraints(constraints)?;
    let encode_time = start.elapsed();
    let mut report = solver.check();
    report.determine_time += encode_time;
    report.total_time += encode_time;
    Ok(report)
}

// ---------------------------------------------------------------------------
// Progressive solving
// ---------------------------------------------------------------------------

/// Every order-1 fact pushed so far, as support containment between
/// columns (§4.2.2: pattern `{a}` miscorrects bit `j` iff
/// `supp(P_j) ⊆ supp(P_a)`; "⊆" below means support containment).
struct ContainmentFacts {
    /// Row `a` holds every `j` with `P_j ⊆ P_a` observed.
    inside: BitMatrix,
    /// Row `a` holds every `j` with `P_j ⊄ P_a` observed.
    outside: BitMatrix,
    /// Row `j` holds every `a` with `P_j ⊆ P_a` observed (`inside`
    /// transposed).
    covers: BitMatrix,
    /// Row `j` holds every `a` with `P_j ⊄ P_a` observed (`outside`
    /// transposed).
    misses: BitMatrix,
}

impl ContainmentFacts {
    fn new(k: usize) -> Self {
        ContainmentFacts {
            inside: BitMatrix::zeros(k, k),
            outside: BitMatrix::zeros(k, k),
            covers: BitMatrix::zeros(k, k),
            misses: BitMatrix::zeros(k, k),
        }
    }

    /// Records the observations of pattern `{a}`.
    fn record(&mut self, a: usize, observations: &[Observation]) {
        for (j, &obs) in observations.iter().enumerate() {
            let (by_a, by_j) = match obs {
                Observation::Miscorrection => (&mut self.inside, &mut self.covers),
                Observation::NoMiscorrection => (&mut self.outside, &mut self.misses),
                Observation::Unknown => continue,
            };
            by_a.set(a, j, true);
            by_j.set(j, a, true);
        }
    }

    /// True if the observed fact `P_j ⊄ P_a` need not be encoded, because
    /// another observed negative fact and an encoded positive one imply it:
    ///
    /// 1. some `b` has `P_a ⊆ P_b` and `P_j ⊄ P_b`, or
    /// 2. some `i` has `P_i ⊆ P_j` and `P_i ⊄ P_a`.
    ///
    /// Facts at CHARGED bits are refused at push time, so `b` and `i` are
    /// never `a` or `j`. The justifying negative fact may itself be
    /// skipped: see [`ProgressiveSolver::push_constraints`] for why every
    /// chain of justifications ends at an encoded fact.
    fn implies_outside(&self, a: usize, j: usize) -> bool {
        self.covers.row(a).intersects(self.misses.row(j))
            || self.inside.row(j).intersects(self.outside.row(a))
    }
}

/// An incremental BEER solver: constraints stream in pattern by pattern and
/// are pushed into a live SAT session, so each uniqueness check reuses the
/// encoding *and* every clause the solver learned in earlier rounds,
/// instead of re-encoding from scratch (the paper's §6.3 runtime
/// optimization).
///
/// Each uniqueness check solves under one fresh guard assumption and adds
/// its blocking clauses as `¬guard ∨ …`; asserting `¬guard` at the end of
/// the check retracts them, so they never leak into later rounds. Lazily
/// derived distinctness constraints are permanent — they are implied by
/// code validity.
///
/// # Examples
///
/// ```
/// use beer_core::pattern::PatternSet;
/// use beer_core::solve::{BeerSolverOptions, ProgressiveSolver};
/// use beer_core::analytic::analytic_profile;
/// use beer_ecc::{equivalence, hamming};
///
/// let secret = hamming::eq1_code();
/// let profile = analytic_profile(&secret, &PatternSet::One.patterns(4));
/// let mut solver = ProgressiveSolver::new(4, 3, BeerSolverOptions::default());
/// solver.push_constraints(&profile).unwrap();
/// let report = solver.check();
/// assert!(report.is_unique());
/// assert!(equivalence::equivalent(&report.solutions[0], &secret));
/// ```
pub struct ProgressiveSolver {
    /// The encoding, whose builder owns the live solver.
    problem: EncodedProblem,
    options: BeerSolverOptions,
    /// Every definite fact pushed so far (kept for solution verification),
    /// including the order-1 negative facts the encoding skips.
    accumulated: ProfileConstraints,
    /// The order-1 part of `accumulated`, as column relations.
    containments: ContainmentFacts,
    facts_encoded: usize,
    /// Wall-clock split of the most recent [`ProgressiveSolver::push_constraints`]:
    /// `(encode, record)`. Surfaced per round through
    /// [`RecoveryEvent::CheckCompleted`](crate::recovery::RecoveryEvent).
    last_push_times: (Duration, Duration),
}

impl ProgressiveSolver {
    /// Creates a solver for `k` data bits and `parity_bits` parity bits,
    /// with the base constraints (code validity + canonical form) already
    /// encoded.
    ///
    /// # Panics
    ///
    /// Panics if `parity_bits < 2` or `k == 0`.
    pub fn new(k: usize, parity_bits: usize, options: BeerSolverOptions) -> Self {
        ProgressiveSolver {
            problem: encode_base(k, parity_bits, &options),
            options,
            accumulated: ProfileConstraints {
                k,
                entries: Vec::new(),
            },
            containments: ContainmentFacts::new(k),
            facts_encoded: 0,
            last_push_times: (Duration::ZERO, Duration::ZERO),
        }
    }

    /// Dataword length.
    pub fn k(&self) -> usize {
        self.problem.k
    }

    /// Number of definite facts accepted so far, whether or not the
    /// encoding needed them.
    pub fn facts_encoded(&self) -> usize {
        self.facts_encoded
    }

    /// Number of `P` variables the SAT solver holds fixed at decision
    /// level 0 (derived from the pushed facts and every clause learnt so
    /// far).
    pub fn pinned_vars(&self) -> usize {
        self.problem.pinned_vars()
    }

    /// Current CNF size as `(variables, clauses)`.
    pub fn cnf_size(&self) -> (usize, usize) {
        (self.problem.cnf.num_vars(), self.problem.cnf.num_clauses())
    }

    /// Streams new constraints into the live session: records the order-1
    /// facts into the column relations, then encodes every entry. Patterns
    /// already pushed should not be pushed again (their clauses would be
    /// encoded twice — harmless but wasteful).
    ///
    /// An order-1 `NoMiscorrection` fact that other observed facts imply
    /// (the two rules of `ContainmentFacts::implies_outside`) is recorded
    /// but not encoded; the relations include this push's facts. This
    /// leaves the solution set unchanged. [`ProgressiveSolver::check`]
    /// accepts only models with distinct columns. In such a model a
    /// violated skipped fact `P_j ⊄ P_a` forces its justifying negative
    /// fact to be violated too, with `|P_x| − |P_y|` strictly larger (rule
    /// 1: `P_a ⊊ P_b`; rule 2: `P_i ⊊ P_j`). So every chain of
    /// justifications ends at a violated encoded fact, which no model has.
    ///
    /// # Errors
    ///
    /// Returns a [`SolveError`] if the constraints' or an entry's dataword
    /// length differs from `k`, or an entry has a definite observation at
    /// one of its CHARGED bits. Every entry is checked before any is
    /// encoded, so a refused push leaves the solver unchanged.
    pub fn push_constraints(&mut self, constraints: &ProfileConstraints) -> Result<(), SolveError> {
        let k = self.problem.k;
        let entry_lengths = constraints
            .entries
            .iter()
            .flat_map(|(pattern, observations)| [pattern.k(), observations.len()]);
        if let Some(found) = std::iter::once(constraints.k)
            .chain(entry_lengths)
            .find(|&n| n != k)
        {
            return Err(SolveError::DatawordMismatch { expected: k, found });
        }
        for (entry, (pattern, observations)) in constraints.entries.iter().enumerate() {
            let mut charged = pattern.bits().iter();
            if let Some(&bit) = charged.find(|&&b| observations[b] != Observation::Unknown) {
                return Err(SolveError::ChargedBitObserved { entry, bit });
            }
        }
        let record_start = Instant::now();
        for (pattern, observations) in &constraints.entries {
            if let &[a] = pattern.bits() {
                self.containments.record(a, observations);
            }
        }
        let record_time = record_start.elapsed();
        let encode_start = Instant::now();
        for (pattern, observations) in &constraints.entries {
            if let &[a] = pattern.bits() {
                let needed: Vec<Observation> = observations
                    .iter()
                    .enumerate()
                    .map(|(j, &obs)| match obs {
                        Observation::NoMiscorrection if self.containments.implies_outside(a, j) => {
                            Observation::Unknown
                        }
                        _ => obs,
                    })
                    .collect();
                encode_observation_entry(&mut self.problem, pattern, &needed);
            } else {
                encode_observation_entry(&mut self.problem, pattern, observations);
            }
            self.facts_encoded += observations
                .iter()
                .filter(|&&o| o != Observation::Unknown)
                .count();
            self.accumulated
                .entries
                .push((pattern.clone(), observations.clone()));
        }
        self.last_push_times = (encode_start.elapsed(), record_time);
        Ok(())
    }

    /// Wall-clock `(encode, record)` split of the most recent
    /// [`ProgressiveSolver::push_constraints`] call: encoding the entries
    /// into CNF, and recording the order-1 facts into the column relations
    /// that decide which negative facts are skipped.
    pub fn last_push_times(&self) -> (Duration, Duration) {
        self.last_push_times
    }

    /// Runs a uniqueness check over everything pushed so far: enumerates
    /// consistent ECC functions up to `options.max_solutions`, with the
    /// blocking clauses retracted afterwards so the solver stays clean for
    /// the next round.
    ///
    /// # Panics
    ///
    /// Panics if a solution violates the accumulated constraints, or a
    /// model repeats a column pair the repair loop already constrained
    /// (both are encoding bugs).
    pub fn check(&mut self) -> SolveReport {
        let start = Instant::now();
        let mut solutions: Vec<LinearCode> = Vec::new();
        let mut truncated = false;
        let mut determine_time = None;
        let mut repairs = 0usize;

        if self.problem.cnf.solver().is_ok() {
            // The guard is a fresh variable of the encoding, so no
            // constraint pushed later can mention it.
            let guard = self.problem.cnf.new_var().positive();
            loop {
                let solver = self.problem.cnf.solver_mut();
                if solver.solve_with_assumptions(&[guard]) != SatResult::Sat {
                    break;
                }
                let m = extract_matrix(
                    |v| solver.value(v),
                    &self.problem.p_vars,
                    self.problem.parity_bits,
                    self.problem.k,
                );
                let dups = duplicate_column_pairs(&m);
                if !dups.is_empty() {
                    // Lazy distinctness repair: these constraints are
                    // implied by validity, so they go in permanently (not
                    // under the guard). No model repeats a pair that is
                    // already constrained, so every pair must be new; an
                    // old one would make this loop find the same model
                    // forever.
                    let before = self.problem.distinct_done.len();
                    repairs += dups.len();
                    for &(c1, c2) in &dups {
                        self.problem.encode_pair_distinct(c1, c2);
                    }
                    assert_eq!(
                        self.problem.distinct_done.len(),
                        before + dups.len(),
                        "lazy repair met an already constrained pair — encoding bug"
                    );
                    continue;
                }
                let code = LinearCode::from_parity_submatrix(m)
                    .expect("SAT constraints guarantee a valid SEC code");
                assert!(
                    crate::analytic::code_matches_constraints(&code, &self.accumulated),
                    "SAT solution violates the profile — encoding bug"
                );
                determine_time.get_or_insert_with(|| start.elapsed());
                solutions.push(code);
                if solutions.len() >= self.options.max_solutions {
                    truncated = true;
                    break;
                }
                let mut block = vec![!guard];
                block.extend(
                    self.problem
                        .p_vars
                        .iter()
                        .map(|&v| v.lit(solver.value(v) != Some(true))),
                );
                if !solver.add_clause(&block) {
                    break;
                }
            }
            // Retract this check's blocking clauses.
            self.problem.cnf.solver_mut().add_clause(&[!guard]);
        }

        let (num_vars, num_clauses) = self.cnf_size();
        SolveReport {
            solutions,
            truncated,
            determine_time: determine_time.unwrap_or_else(|| start.elapsed()),
            total_time: start.elapsed(),
            num_vars,
            num_clauses,
            distinctness_repairs: repairs,
            sim_ns: 0,
            solver_stats: self.problem.cnf.solver().stats(),
        }
    }
}

/// The standard progressive batch schedule: all 1-CHARGED patterns first
/// (they carry the most information per pattern, §4.2.4), then 2-CHARGED
/// patterns in chunks of `chunk`.
///
/// # Panics
///
/// Panics if `k < 2` or `chunk == 0`.
pub fn progressive_batches(k: usize, chunk: usize) -> Vec<Vec<ChargedSet>> {
    assert!(chunk > 0, "chunk must be positive");
    let mut batches = vec![crate::pattern::one_charged(k)];
    for c in crate::pattern::two_charged(k).chunks(chunk) {
        batches.push(c.to_vec());
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::analytic_profile;
    use crate::pattern::PatternSet;
    use beer_ecc::{design, equivalence, hamming};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn recover(code: &LinearCode, set: PatternSet, max_solutions: usize) -> SolveReport {
        let profile = analytic_profile(code, &set.patterns(code.k()));
        solve_profile(
            code.k(),
            code.parity_bits(),
            &profile,
            &BeerSolverOptions {
                max_solutions,
                ..BeerSolverOptions::default()
            },
        )
        .expect("valid profile")
    }

    #[test]
    fn recovers_eq1_code_uniquely_from_1charged() {
        // Eq. 1 is full length, so 1-CHARGED alone must suffice (§4.2.4).
        let code = hamming::eq1_code();
        let report = recover(&code, PatternSet::One, 8);
        assert_eq!(report.solutions.len(), 1, "expected a unique solution");
        assert!(report.is_unique());
        assert!(equivalence::equivalent(&report.solutions[0], &code));
    }

    #[test]
    fn recovers_full_length_p4_code() {
        let code = hamming::full_length(4); // (15, 11)
        let report = recover(&code, PatternSet::One, 4);
        assert_eq!(report.solutions.len(), 1);
        assert!(equivalence::equivalent(&report.solutions[0], &code));
    }

    #[test]
    fn recovers_random_shortened_codes_with_12charged() {
        let mut rng = StdRng::seed_from_u64(2024);
        for k in [5usize, 8, 12, 16] {
            let code = hamming::random_sec(k, &mut rng);
            let report = recover(&code, PatternSet::OneTwo, 4);
            assert_eq!(
                report.solutions.len(),
                1,
                "k={k}: {{1,2}}-CHARGED must be unique (Fig. 5)"
            );
            assert!(
                equivalence::equivalent(&report.solutions[0], &code),
                "k={k}: wrong code recovered"
            );
        }
    }

    #[test]
    fn every_option_combination_agrees() {
        // With and without the row-order symmetry break, and at any cap,
        // the solver must describe the same codes: the unbroken run finds
        // every row permutation of each canonical solution and nothing
        // else. The unknown-only k = 4 profile is the input on which the
        // lazy scheme repairs duplicate columns.
        let mut rng = StdRng::seed_from_u64(99);
        let code = hamming::random_sec(7, &mut rng);
        let inputs = [
            (
                code.parity_bits(),
                analytic_profile(&code, &PatternSet::OneTwo.patterns(7)),
            ),
            (
                3,
                ProfileConstraints {
                    k: 4,
                    entries: vec![],
                },
            ),
        ];
        for (parity_bits, profile) in &inputs {
            let k = profile.k;
            let solve = |max_solutions, symmetry_breaking| {
                let report = solve_profile(
                    k,
                    *parity_bits,
                    profile,
                    &BeerSolverOptions {
                        max_solutions,
                        symmetry_breaking,
                    },
                )
                .expect("valid profile");
                let matrices: HashSet<BitMatrix> = report
                    .solutions
                    .iter()
                    .map(|s| s.parity_submatrix().clone())
                    .collect();
                assert_eq!(matrices.len(), report.solutions.len(), "a solution repeats");
                (matrices, report.truncated)
            };
            let (canonical, truncated) = solve(4096, true);
            assert!(!truncated && !canonical.is_empty(), "k={k}");
            for m in &canonical {
                assert_eq!(&m.with_sorted_rows(), m, "k={k}: rows out of order");
            }
            let (all, truncated) = solve(4096, false);
            assert!(!truncated, "k={k}");
            assert!(all.len() > canonical.len(), "k={k}");
            let sorted: HashSet<BitMatrix> = all.iter().map(BitMatrix::with_sorted_rows).collect();
            assert_eq!(sorted, canonical, "k={k}: symmetry break disagrees");
            for (symmetry_breaking, full) in [(true, &canonical), (false, &all)] {
                let (capped, truncated) = solve(2, symmetry_breaking);
                assert_eq!(capped.len(), full.len().min(2), "k={k}");
                assert_eq!(truncated, full.len() >= 2, "k={k}");
                assert!(capped.is_subset(full), "k={k}: capped run disagrees");
            }
        }
    }

    #[test]
    fn duplicate_columns_are_keyed_by_every_row() {
        // Columns {row 0}, {row 64} and a copy of {row 0}: a 64-bit key
        // would overflow at row 64 (or wrap it onto row 0).
        let mut m = BitMatrix::zeros(65, 3);
        m.set(0, 0, true);
        m.set(64, 1, true);
        m.set(0, 2, true);
        assert_eq!(duplicate_column_pairs(&m), vec![(0, 2)]);
    }

    #[test]
    fn shortened_codes_may_be_ambiguous_under_1charged() {
        // Fig. 5: 1-CHARGED alone sometimes leaves multiple candidates for
        // shortened codes. Find a seed exhibiting ambiguity to demonstrate.
        let mut rng = StdRng::seed_from_u64(7);
        let mut seen_ambiguous = false;
        for _ in 0..30 {
            let code = hamming::random_sec(6, &mut rng);
            let report = recover(&code, PatternSet::One, 50);
            assert!(!report.solutions.is_empty());
            // The true code must always be among the solutions.
            assert!(
                report
                    .solutions
                    .iter()
                    .any(|s| equivalence::equivalent(s, &code)),
                "true code missing from solution set"
            );
            if report.solutions.len() > 1 {
                seen_ambiguous = true;
            }
        }
        assert!(
            seen_ambiguous,
            "no ambiguity in 30 shortened k=6 codes — unexpected for 1-CHARGED"
        );
    }

    #[test]
    fn vendor_codes_recover_uniquely() {
        for m in design::Manufacturer::ALL {
            let code = design::vendor_code(m, 11, 3);
            let report = recover(&code, PatternSet::OneTwo, 4);
            assert_eq!(report.solutions.len(), 1, "manufacturer {m}");
            assert!(equivalence::equivalent(&report.solutions[0], &code));
        }
    }

    #[test]
    fn without_symmetry_breaking_row_permutations_multiply() {
        let code = hamming::eq1_code();
        let profile = analytic_profile(&code, &PatternSet::One.patterns(4));
        let report = solve_profile(
            4,
            3,
            &profile,
            &BeerSolverOptions {
                max_solutions: 50,
                symmetry_breaking: false,
            },
        )
        .expect("valid profile");
        // All solutions must be equivalent to the original, and there must
        // be several of them (row permutations).
        assert!(report.solutions.len() > 1);
        for s in &report.solutions {
            assert!(equivalence::equivalent(s, &code));
        }
    }

    #[test]
    fn unknown_only_profile_is_wildly_ambiguous() {
        // With no facts, every valid SEC code matches. For k=4, p=3 all
        // four candidate columns {011,101,110,111} must be used; the 4! = 24
        // column assignments fall into 4 equivalence classes under the
        // row-permutation group (order 6), and the solver must find all of
        // them and no more.
        let profile = ProfileConstraints {
            k: 4,
            entries: vec![],
        };
        let report = solve_profile(
            4,
            3,
            &profile,
            &BeerSolverOptions {
                max_solutions: 100,
                ..BeerSolverOptions::default()
            },
        )
        .expect("valid profile");
        assert_eq!(report.solutions.len(), 4);
        assert!(!report.truncated);
        // With no facts, only the lazy repair loop separates columns, so
        // this check creates variables while the solver holds a model.
        assert!(report.distinctness_repairs > 0);
        // All solutions are pairwise inequivalent.
        for i in 0..report.solutions.len() {
            for j in (i + 1)..report.solutions.len() {
                assert!(!equivalence::equivalent(
                    &report.solutions[i],
                    &report.solutions[j]
                ));
            }
        }
        // A cap below the class count stops the enumeration there.
        let capped =
            solve_profile(4, 3, &profile, &BeerSolverOptions::default()).expect("valid profile");
        assert_eq!(capped.solutions.len(), 2);
        assert!(capped.truncated);
    }

    /// Asserts that no code matches `profile` (for `p = 3`).
    fn assert_unsat(profile: &ProfileConstraints) {
        let report = solve_profile(profile.k, 3, profile, &BeerSolverOptions::default())
            .expect("well-formed constraints");
        assert!(report.solutions.is_empty(), "profile must be UNSAT");
        assert!(!report.truncated);
    }

    /// Pattern `{a}` observed to miscorrect each bit in `bits`.
    fn miscorrects(a: usize, bits: &[usize], k: usize) -> (ChargedSet, Vec<Observation>) {
        let mut obs = vec![Observation::Unknown; k];
        for &j in bits {
            obs[j] = Observation::Miscorrection;
        }
        (ChargedSet::new(vec![a], k), obs)
    }

    #[test]
    fn contradictory_profile_is_unsat() {
        // Claim: every 1-CHARGED pattern miscorrects every other bit. For
        // k=4, p=3 that forces supp(P_j) ⊆ supp(P_a) for all pairs — i.e.
        // all supports equal, contradicting column distinctness.
        let code = hamming::eq1_code();
        let base = analytic_profile(&code, &PatternSet::One.patterns(4));
        let all_miscorrect = ProfileConstraints {
            k: 4,
            entries: base
                .entries
                .iter()
                .map(|(p, obs)| {
                    let forced = obs
                        .iter()
                        .map(|&o| match o {
                            Observation::Unknown => Observation::Unknown,
                            _ => Observation::Miscorrection,
                        })
                        .collect();
                    (p.clone(), forced)
                })
                .collect(),
        };
        assert_unsat(&all_miscorrect);
    }

    #[test]
    fn mutual_containment_is_unsat() {
        // {0} miscorrects bit 1 and {1} bit 0: P_0 = P_1, impossible for
        // distinct columns.
        assert_unsat(&ProfileConstraints {
            k: 4,
            entries: vec![miscorrects(0, &[1], 4), miscorrects(1, &[0], 4)],
        });
    }

    #[test]
    fn overfull_containment_is_unsat() {
        // {0} miscorrects 5 bits: 5 distinct weight-≥2 columns inside
        // supp(P_0) besides P_0 itself, where p = 3 has only 4 such
        // columns in all.
        assert_unsat(&ProfileConstraints {
            k: 6,
            entries: vec![miscorrects(0, &[1, 2, 3, 4, 5], 6)],
        });
    }

    #[test]
    fn order_zero_patterns_are_handled_not_panicked() {
        // A 0-CHARGED pattern cannot produce any retention error, so its
        // NoMiscorrection facts are vacuous and a Miscorrection fact makes
        // the instance unsatisfiable. Neither may abort the process.
        let code = hamming::eq1_code();
        let empty = ChargedSet::new(vec![], 4);

        // Vacuous: the profile of the real code plus an all-NoMiscorrection
        // order-0 entry recovers the code as if the entry were absent.
        let mut profile = analytic_profile(&code, &PatternSet::One.patterns(4));
        profile
            .entries
            .push((empty.clone(), vec![Observation::NoMiscorrection; 4]));
        let report = solve_profile(4, 3, &profile, &BeerSolverOptions::default())
            .expect("order-0 must not error");
        assert_eq!(report.solutions.len(), 1);
        assert!(equivalence::equivalent(&report.solutions[0], &code));

        // Impossible: a claimed miscorrection under 0-CHARGED is UNSAT.
        let mut obs = vec![Observation::Unknown; 4];
        obs[1] = Observation::Miscorrection;
        let impossible = ProfileConstraints {
            k: 4,
            entries: vec![(empty, obs)],
        };
        let report = solve_profile(4, 3, &impossible, &BeerSolverOptions::default())
            .expect("order-0 must not error");
        assert!(report.solutions.is_empty());
    }

    #[test]
    fn order_18_pattern_solves_at_k24() {
        // Orders past the subset-representative range go to the polynomial
        // encoding, which has no order cap.
        let k = 24;
        let code = hamming::shortened(k);
        let big = ChargedSet::new((0..18).collect(), k);
        let profile = analytic_profile(&code, std::slice::from_ref(&big));
        let options = BeerSolverOptions::default();
        let report = solve_profile(k, code.parity_bits(), &profile, &options)
            .expect("high orders must encode");
        assert!(!report.solutions.is_empty());
    }

    #[test]
    fn refused_push_leaves_the_solver_unchanged() {
        // Every entry is validated before any is encoded: a push whose last
        // entry is over another dataword length encodes nothing, not the
        // valid prefix.
        let k = 24;
        let code = hamming::shortened(k);
        let valid = analytic_profile(&code, &PatternSet::One.patterns(k));
        let mut mixed = valid.clone();
        mixed.entries.push((
            ChargedSet::new(vec![0], k + 1),
            vec![Observation::NoMiscorrection; k + 1],
        ));
        let mut solver = ProgressiveSolver::new(
            k,
            code.parity_bits(),
            BeerSolverOptions {
                max_solutions: 8,
                ..BeerSolverOptions::default()
            },
        );
        let (facts, size) = (solver.facts_encoded(), solver.cnf_size());
        assert_eq!(
            solver.push_constraints(&mixed),
            Err(SolveError::DatawordMismatch {
                expected: k,
                found: k + 1
            })
        );
        assert_eq!(solver.facts_encoded(), facts);
        assert_eq!(solver.cnf_size(), size);

        solver.push_constraints(&valid).unwrap();
        let report = solver.check();
        assert!(report
            .solutions
            .iter()
            .any(|s| equivalence::equivalent(s, &code)));
    }

    #[test]
    fn charged_bit_observations_are_refused_at_push_time() {
        // A CHARGED bit is never tested, so a definite fact there is
        // malformed input: a Miscorrection would reach the re-verification
        // in `check()` and a NoMiscorrection would make the instance UNSAT.
        let code = hamming::eq1_code();
        let profile = analytic_profile(&code, &PatternSet::One.patterns(4));
        let entry = profile
            .entries
            .iter()
            .position(|(pattern, _)| pattern.bits() == [0])
            .expect("pattern {0} is 1-CHARGED");
        let mut solver = ProgressiveSolver::new(4, 3, BeerSolverOptions::default());
        let (facts, size) = (solver.facts_encoded(), solver.cnf_size());
        for obs in [Observation::Miscorrection, Observation::NoMiscorrection] {
            let mut bad = profile.clone();
            bad.entries[entry].1[0] = obs;
            assert_eq!(
                solver.push_constraints(&bad),
                Err(SolveError::ChargedBitObserved { entry, bit: 0 }),
                "{obs:?}"
            );
            assert_eq!(solver.facts_encoded(), facts, "{obs:?}");
            assert_eq!(solver.cnf_size(), size, "{obs:?}");
        }
        solver.push_constraints(&profile).unwrap();
        assert!(solver.check().is_unique());
    }

    /// A pattern-`{a}` entry over `k = 6` with one definite fact, at bit
    /// `j`: `Miscorrection` observes `P_j ⊆ P_a`, `NoMiscorrection`
    /// observes `P_j ⊄ P_a` (supports).
    fn order1_fact(a: usize, j: usize, obs: Observation) -> Entry {
        let mut observations = vec![Observation::Unknown; 6];
        observations[j] = obs;
        (ChargedSet::new(vec![a], 6), observations)
    }

    type Entry = (ChargedSet, Vec<Observation>);

    /// CNF size of a fresh (p, k) = (4, 6) solver after each of `pushes`.
    fn cnf_sizes<const N: usize>(pushes: [Vec<Entry>; N]) -> [(usize, usize); N] {
        let mut solver = ProgressiveSolver::new(6, 4, BeerSolverOptions::default());
        pushes.map(|entries| {
            solver
                .push_constraints(&ProfileConstraints { k: 6, entries })
                .unwrap();
            solver.cnf_size()
        })
    }

    /// Rule 1 with b = 1: P_0 ⊆ P_1 and P_2 ⊄ P_1 imply P_2 ⊄ P_0.
    fn superset_justification() -> Vec<Entry> {
        vec![
            order1_fact(1, 0, Observation::Miscorrection),
            order1_fact(1, 2, Observation::NoMiscorrection),
        ]
    }

    #[test]
    fn negative_fact_implied_through_a_superset_is_not_encoded() {
        // The implied fact comes first in the push: the relations hold the
        // whole push before anything is encoded.
        let mut with_fact = vec![order1_fact(0, 2, Observation::NoMiscorrection)];
        with_fact.extend(superset_justification());
        assert_eq!(
            cnf_sizes([with_fact]),
            cnf_sizes([superset_justification()])
        );
    }

    #[test]
    fn negative_fact_implied_through_a_subset_is_not_encoded() {
        // Rule 2 with i = 3: P_3 ⊆ P_2 and P_3 ⊄ P_0 imply P_2 ⊄ P_0.
        let justification = vec![
            order1_fact(2, 3, Observation::Miscorrection),
            order1_fact(0, 3, Observation::NoMiscorrection),
        ];
        let mut with_fact = vec![order1_fact(0, 2, Observation::NoMiscorrection)];
        with_fact.extend(justification.clone());
        assert_eq!(cnf_sizes([with_fact]), cnf_sizes([justification]));
    }

    #[test]
    fn justification_from_an_earlier_push_still_skips_the_fact() {
        let [before, after] = cnf_sizes([
            superset_justification(),
            vec![order1_fact(0, 2, Observation::NoMiscorrection)],
        ]);
        assert_eq!(after, before);
    }

    #[test]
    fn reversed_containment_does_not_justify_a_skip() {
        // P_1 ⊆ P_0 and P_2 ⊄ P_1 do not imply P_2 ⊄ P_0 (P_2 may sit in
        // P_0 outside P_1), so the fact must be encoded. (Pushed together,
        // the fact would instead justify skipping P_2 ⊄ P_1, by rule 1.)
        let [(vars, clauses), (vars_after, clauses_after)] = cnf_sizes([
            vec![
                order1_fact(0, 1, Observation::Miscorrection),
                order1_fact(1, 2, Observation::NoMiscorrection),
            ],
            vec![order1_fact(0, 2, Observation::NoMiscorrection)],
        ]);
        assert!(vars_after > vars, "{vars_after} vars vs {vars}");
        assert!(clauses_after > clauses, "{clauses_after} vs {clauses}");
    }

    #[test]
    fn dataword_mismatch_is_a_typed_error() {
        let profile = ProfileConstraints {
            k: 5,
            entries: vec![],
        };
        let err =
            solve_profile(4, 3, &profile, &BeerSolverOptions::default()).expect_err("k mismatch");
        assert_eq!(
            err,
            SolveError::DatawordMismatch {
                expected: 4,
                found: 5
            }
        );
        let mut progressive = ProgressiveSolver::new(4, 3, BeerSolverOptions::default());
        assert!(progressive.push_constraints(&profile).is_err());
        // An entry whose pattern is over another dataword length is
        // refused too, not encoded with out-of-range columns.
        let stray = ProfileConstraints {
            k: 4,
            entries: vec![(
                ChargedSet::new(vec![0], 5),
                vec![Observation::NoMiscorrection; 5],
            )],
        };
        assert_eq!(
            progressive.push_constraints(&stray),
            Err(SolveError::DatawordMismatch {
                expected: 4,
                found: 5
            })
        );
    }

    #[test]
    fn high_order_patterns_recover_codes_via_linear_encoding() {
        // RANDOM-t patterns with t far beyond the subset cap still solve,
        // and their facts genuinely constrain the instance.
        let mut rng = StdRng::seed_from_u64(515);
        let k = 12;
        let code = hamming::random_sec(k, &mut rng);
        let mut patterns = PatternSet::One.patterns(k);
        patterns.extend(crate::pattern::random_t_charged(k, 9, 8, 77));
        let profile = analytic_profile(&code, &patterns);
        let report = solve_profile(
            k,
            code.parity_bits(),
            &profile,
            &BeerSolverOptions {
                max_solutions: 8,
                ..BeerSolverOptions::default()
            },
        )
        .expect("high orders must encode");
        assert!(report
            .solutions
            .iter()
            .any(|s| equivalence::equivalent(s, &code)));
    }

    #[test]
    fn report_metadata_is_populated() {
        let code = hamming::eq1_code();
        let report = recover(&code, PatternSet::One, 2);
        assert!(report.num_vars >= 12);
        assert!(report.num_clauses > 0);
        assert!(report.total_time >= report.determine_time);
        assert!(report.solver_stats.memory_bytes > 0);
    }

    #[test]
    fn progressive_checks_are_repeatable_and_monotone() {
        // Pushing the same profile in two halves: the intermediate check
        // may be ambiguous, the final one must match the one-shot result,
        // and blocking clauses must not leak between checks.
        let code = hamming::shortened(8);
        let profile = analytic_profile(&code, &PatternSet::OneTwo.patterns(8));
        let mid = profile.entries.len() / 2;

        let mut solver = ProgressiveSolver::new(
            8,
            code.parity_bits(),
            BeerSolverOptions {
                max_solutions: 16,
                ..BeerSolverOptions::default()
            },
        );
        solver
            .push_constraints(&ProfileConstraints {
                k: 8,
                entries: profile.entries[..mid].to_vec(),
            })
            .unwrap();
        let first = solver.check();
        assert!(
            !first.solutions.is_empty(),
            "half profile must be satisfiable"
        );
        // A second check over identical constraints re-finds the same count
        // (the previous round's blocking clauses were retracted).
        let again = solver.check();
        assert_eq!(first.solutions.len(), again.solutions.len());

        solver
            .push_constraints(&ProfileConstraints {
                k: 8,
                entries: profile.entries[mid..].to_vec(),
            })
            .unwrap();
        let last = solver.check();
        assert!(last.solutions.len() <= first.solutions.len());
        assert_eq!(last.solutions.len(), 1, "full profile must be unique");
        assert!(equivalence::equivalent(&last.solutions[0], &code));
    }

    #[test]
    fn progressive_agrees_with_one_shot_for_random_codes() {
        // The whole profile in one push (`solve_profile`) and one push per
        // entry must find the same code: an implied order-1 negative fact is
        // skipped only once its justification has arrived, so the two CNFs
        // differ.
        let mut rng = StdRng::seed_from_u64(515);
        for k in [5usize, 8, 11] {
            let code = hamming::random_sec(k, &mut rng);
            let profile = analytic_profile(&code, &PatternSet::OneTwo.patterns(k));
            let oneshot = solve_profile(
                k,
                code.parity_bits(),
                &profile,
                &BeerSolverOptions::default(),
            )
            .unwrap();

            let mut solver =
                ProgressiveSolver::new(k, code.parity_bits(), BeerSolverOptions::default());
            for entry in &profile.entries {
                solver
                    .push_constraints(&ProfileConstraints {
                        k,
                        entries: vec![entry.clone()],
                    })
                    .unwrap();
            }
            let progressive = solver.check();
            assert_eq!(
                progressive.solutions.len(),
                oneshot.solutions.len(),
                "k={k}"
            );
            assert!(equivalence::equivalent(
                &progressive.solutions[0],
                &oneshot.solutions[0]
            ));
        }
    }

    #[test]
    fn chunked_session_stops_before_the_full_schedule() {
        use crate::engine::AnalyticBackend;
        use crate::recovery::RecoveryConfig;

        let code = hamming::shortened(11);
        let mut backend = AnalyticBackend::new(code.clone());
        let report = RecoveryConfig::new()
            .with_parity_bits(code.parity_bits())
            .with_chunked_schedule(8)
            .with_threads(1)
            .session(&mut backend)
            .run_to_completion()
            .expect("analytic backends cannot fail");
        let check = report.last_check.expect("at least one round ran");
        assert!(check.is_unique());
        assert!(equivalence::equivalent(&check.solutions[0], &code));
        assert!(
            report.stats.patterns_used < report.stats.patterns_available,
            "progressive run used the whole schedule ({} of {})",
            report.stats.patterns_used,
            report.stats.patterns_available
        );
        assert!(report.stats.rounds >= 1);
        assert!(report.stats.facts_encoded > 0);
    }

    #[test]
    fn contradictory_push_reports_unsat_cleanly() {
        let mut solver = ProgressiveSolver::new(4, 3, BeerSolverOptions::default());
        // A directly contradictory pair: the same pattern observed both
        // ways at the same bit.
        let pattern = ChargedSet::new(vec![0], 4);
        let yes = vec![
            Observation::Unknown,
            Observation::Miscorrection,
            Observation::NoMiscorrection,
            Observation::NoMiscorrection,
        ];
        let mut no = yes.clone();
        no[1] = Observation::NoMiscorrection;
        solver
            .push_constraints(&ProfileConstraints {
                k: 4,
                entries: vec![(pattern.clone(), yes), (pattern, no)],
            })
            .unwrap();
        let report = solver.check();
        assert!(report.solutions.is_empty());
        assert!(!report.truncated);
    }

    #[test]
    fn pinned_vars_are_the_root_fixed_entries_of_the_solution() {
        let code = hamming::eq1_code();
        let profile = analytic_profile(&code, &PatternSet::One.patterns(4));
        let mut solver = ProgressiveSolver::new(4, 3, BeerSolverOptions::default());
        assert_eq!(solver.pinned_vars(), 0);
        solver.push_constraints(&profile).unwrap();
        let report = solver.check();
        assert!(report.is_unique());
        let solution = report.solutions[0].parity_submatrix();
        let root = solver.problem.cnf.solver();
        let mut fixed = 0;
        for r in 0..3 {
            for c in 0..4 {
                if let Some(value) = root.value(solver.problem.p_vars[r * 4 + c]) {
                    assert_eq!(value, solution.get(r, c), "P[{r}][{c}]");
                    fixed += 1;
                }
            }
        }
        // The check leaves learnt root facts behind (8 entries here).
        assert!(fixed > 0, "no P entry fixed at the root");
        assert_eq!(solver.pinned_vars(), fixed);
    }
}
