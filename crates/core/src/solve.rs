//! Solving for the ECC function (paper §5.3).
//!
//! The unknown is the `(n−k) × k` parity sub-matrix `P` (§4.2.1 fixes
//! standard form, so `H = [P | I]`). The SAT instance contains:
//!
//! 1. *Basic linear code properties*: every data column of `H` has weight
//!    ≥ 2 (distinct from the zero syndrome and the identity columns) and
//!    data columns are pairwise distinct — exactly what single-error
//!    correction requires. Distinctness is encoded either eagerly (the
//!    classic `O(k²·p)` pairwise XOR grid) or *lazily*: models are checked
//!    for duplicate columns and only offending pairs get a constraint, a
//!    counterexample-guided loop that keeps the k = 128 encoding small.
//! 2. *Canonical form*: rows of `P` in non-decreasing lexicographic order.
//!    This is a complete symmetry break for the parity-bit relabeling
//!    freedom (see `beer_ecc::equivalence`), so each *equivalence class*
//!    of codes corresponds to exactly one SAT model and BEER's uniqueness
//!    check counts classes, as the paper intends.
//! 3. *The miscorrection profile*: for every pattern `A` and bit `j` with
//!    a definite observation, the closed-form predicate
//!    `∃x ⊆ A: supp(P_j ⊕ ⊕_{a∈x} P_a) ⊆ supp(⊕_{a∈A} P_a)`
//!    is asserted (observed) or refuted (not observed), via one of two
//!    [`ObservationEncoding`]s:
//!
//!    * **Subset representatives** — enumerate the `2^{|A|−1}`
//!      complement-classes of `x` explicitly. Compact for the paper's
//!      `|A| ≤ 3` patterns, exponential beyond.
//!    * **Linear (polynomial)** — the predicate only constrains rows
//!      outside `supp(w)`, so it asks whether `P_j`, masked to those rows,
//!      lies in the span of the masked charged columns. A positive fact is
//!      a selector circuit (the solver picks `x`); a negative fact asserts
//!      a GF(2) *dual witness* `y` orthogonal to every masked charged
//!      column but not to `P_j` — such a `y` exists iff `P_j` is outside
//!      the span. Both are `O(p·|A|)` and encode the §5.2 RANDOM and
//!      ALL-charged patterns at any order.
//!
//! After each batch of facts is encoded, an optional [`crate::preprocess`]
//! pass mines everything accumulated for pinned `P` entries and per-column
//! weight bounds; pins are asserted as units and constant-folded out of the
//! observation circuits of *later* batches.
//!
//! Uniqueness checking enumerates models with blocking clauses until UNSAT
//! or a caller-set cap — "Check Uniqueness" in Figure 6. There is one
//! implementation of the whole procedure, [`ProgressiveSolver`];
//! [`solve_profile`] is a single push followed by a single check.

use crate::pattern::ChargedSet;
use crate::preprocess::{preprocess, Preprocessed};
use crate::profile::{Observation, ProfileConstraints};
use beer_ecc::LinearCode;
use beer_gf2::BitMatrix;
use beer_sat::{CnfBuilder, Lit, SatResult, SolverSession, SolverStats, Var};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::time::{Duration, Instant};

/// Largest pattern order the subset-representative encoding accepts
/// (`2^{t−1}` representatives are materialized).
pub const MAX_SUBSET_ORDER: usize = 16;

/// A typed error from the solve entry points.
///
/// Pattern data reaches the encoder from the outside world (traces,
/// replayed experiments, caller-built constraint sets), so unsupported
/// inputs surface as values instead of panics.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveError {
    /// The selected [`ObservationEncoding`] cannot express a pattern of
    /// this order (the subset-representative encoding is exponential and
    /// capped at [`MAX_SUBSET_ORDER`]).
    PatternOrderUnsupported {
        /// The offending pattern's order.
        order: usize,
        /// The largest order the selected encoding supports.
        max: usize,
    },
    /// The constraints' (or one entry's) dataword length disagrees with
    /// the solver's.
    DatawordMismatch {
        /// The solver's dataword length.
        expected: usize,
        /// The offending dataword length.
        found: usize,
    },
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::PatternOrderUnsupported { order, max } => write!(
                f,
                "pattern order {order} exceeds the selected encoding's maximum {max} \
                 (use ObservationEncoding::Linear for high-order patterns)"
            ),
            SolveError::DatawordMismatch { expected, found } => {
                write!(f, "constraint dataword length {found}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for SolveError {}

/// How profile facts are turned into clauses (constraint 3 above).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ObservationEncoding {
    /// Per-order choice: subset representatives for the paper's low
    /// orders, the polynomial encoding beyond.
    #[default]
    Auto,
    /// Always enumerate `2^{t−1}` subset representatives (orders up to
    /// [`MAX_SUBSET_ORDER`] only).
    SubsetReps,
    /// Always use the polynomial selector/dual-witness encoding.
    Linear,
}

impl ObservationEncoding {
    /// Auto switches to the polynomial encoding above this order (the
    /// representative count `2^{t−1}` overtakes the `O(p·t)` circuit).
    const AUTO_SUBSET_MAX: usize = 3;

    fn effective(self, order: usize) -> ObservationEncoding {
        match self {
            ObservationEncoding::Auto => {
                if order <= Self::AUTO_SUBSET_MAX {
                    ObservationEncoding::SubsetReps
                } else {
                    ObservationEncoding::Linear
                }
            }
            other => other,
        }
    }
}

/// How pairwise column distinctness is enforced (constraint 1 above).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ColumnDistinctness {
    /// Lazily: solve, detect duplicate columns in the model, constrain
    /// only the offending pairs, repeat. Removes the `O(k²·p)` grid from
    /// the encoding; real profiles separate almost all columns anyway.
    #[default]
    Lazy,
    /// Eagerly: the full pairwise XOR grid, up front.
    Eager,
}

/// Options for [`solve_profile`].
#[derive(Clone, Copy, Debug)]
pub struct BeerSolverOptions {
    /// Stop after this many solutions (2 suffices to decide uniqueness;
    /// Figure 5 uses a larger cap to count ambiguity).
    pub max_solutions: usize,
    /// Canonical row ordering (on by default; turning it off makes every
    /// parity-bit relabeling appear as a separate solution).
    pub symmetry_breaking: bool,
    /// Re-verify each solution against the profile with the closed-form
    /// predicate (cheap, and guards the encoding against itself).
    pub verify_solutions: bool,
    /// Observation-to-clause translation.
    pub encoding: ObservationEncoding,
    /// Column-distinctness scheme.
    pub distinctness: ColumnDistinctness,
    /// Run the GF(2) propagation pass over 1-CHARGED facts after each
    /// push and pin `P` variables for the pushes that follow (see
    /// [`crate::preprocess`]).
    pub preprocess: bool,
}

impl Default for BeerSolverOptions {
    fn default() -> Self {
        BeerSolverOptions {
            max_solutions: 2,
            symmetry_breaking: true,
            verify_solutions: true,
            encoding: ObservationEncoding::Auto,
            distinctness: ColumnDistinctness::Lazy,
            preprocess: true,
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
    /// during this solve (0 under the eager scheme).
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

/// A literal with constant folding: pinned `P` entries become constants so
/// preprocessing prunes gates before the CNF ever sees them.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum FLit {
    Const(bool),
    Is(Lit),
}

impl FLit {
    fn negate(self) -> FLit {
        match self {
            FLit::Const(b) => FLit::Const(!b),
            FLit::Is(l) => FLit::Is(!l),
        }
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
    /// Preprocessing pins, row-major (`None` = free variable).
    pins: Vec<Option<bool>>,
    /// Weight lower bound already encoded per column.
    encoded_lb: Vec<usize>,
    /// Column pairs whose distinctness constraint has been emitted.
    distinct_done: HashSet<(usize, usize)>,
}

impl EncodedProblem {
    fn p_lit(&self, r: usize, c: usize) -> Lit {
        self.p_vars[r * self.k + c].positive()
    }

    /// The folded view of `P[r][c]`.
    fn f_p(&self, r: usize, c: usize) -> FLit {
        match self.pins[r * self.k + c] {
            Some(b) => FLit::Const(b),
            None => FLit::Is(self.p_lit(r, c)),
        }
    }

    /// Number of `P` variables pinned by preprocessing.
    fn pinned_vars(&self) -> usize {
        self.pins.iter().filter(|p| p.is_some()).count()
    }

    /// Asserts an always-false constraint (the instance is UNSAT).
    fn contradiction(&mut self) {
        let t = self.cnf.lit_true();
        self.cnf.add_clause(&[!t]);
    }

    /// XOR with constant folding.
    fn fxor(&mut self, terms: &[FLit]) -> FLit {
        let mut parity = false;
        let mut lits: Vec<Lit> = Vec::with_capacity(terms.len());
        for &t in terms {
            match t {
                FLit::Const(b) => parity ^= b,
                FLit::Is(l) => lits.push(l),
            }
        }
        if lits.is_empty() {
            return FLit::Const(parity);
        }
        let x = self.cnf.xor_many(&lits);
        FLit::Is(if parity { !x } else { x })
    }

    /// AND with constant folding.
    fn fand(&mut self, a: FLit, b: FLit) -> FLit {
        match (a, b) {
            (FLit::Const(false), _) | (_, FLit::Const(false)) => FLit::Const(false),
            (FLit::Const(true), x) | (x, FLit::Const(true)) => x,
            (FLit::Is(la), FLit::Is(lb)) => FLit::Is(self.cnf.and(&[la, lb])),
        }
    }

    /// Adds a clause with constant folding; an empty residue is a
    /// contradiction.
    fn fclause(&mut self, lits: &[FLit]) {
        let mut out: Vec<Lit> = Vec::with_capacity(lits.len());
        for &l in lits {
            match l {
                FLit::Const(true) => return,
                FLit::Const(false) => {}
                FLit::Is(l) => out.push(l),
            }
        }
        if out.is_empty() {
            self.contradiction();
        } else {
            self.cnf.add_clause(&out);
        }
    }

    /// Installs preprocessing output: unit-asserts new pins and tightens
    /// per-column weight bounds. Sound for any constraint stream because
    /// every pin/bound is implied by validity plus the observations.
    fn apply_preprocessing(&mut self, pre: &Preprocessed) {
        if pre.unsat {
            self.contradiction();
            return;
        }
        for idx in 0..self.pins.len() {
            if let (None, Some(v)) = (self.pins[idx], pre.pinned[idx]) {
                self.pins[idx] = Some(v);
                let lit = self.p_vars[idx].lit(v);
                self.cnf.assert_lit(lit);
            }
        }
        for c in 0..self.k {
            if pre.col_weight_lb[c] > self.encoded_lb[c] {
                let bound = pre.col_weight_lb[c];
                self.encode_column_weight(c, bound);
                self.encoded_lb[c] = bound;
            }
        }
    }

    /// Asserts weight ≥ `bound` for column `c`, folding pinned entries.
    fn encode_column_weight(&mut self, c: usize, bound: usize) {
        let p = self.parity_bits;
        let mut ones = 0usize;
        let mut free: Vec<Lit> = Vec::new();
        for r in 0..p {
            match self.f_p(r, c) {
                FLit::Const(true) => ones += 1,
                FLit::Const(false) => {}
                FLit::Is(l) => free.push(l),
            }
        }
        let need = bound.saturating_sub(ones);
        if need == 0 {
            return;
        }
        if need > free.len() {
            self.contradiction();
            return;
        }
        self.cnf.at_least_k(&free, need);
    }

    /// Emits the pairwise-distinctness constraint for one column pair
    /// (shared by the eager grid and the lazy repair loop). Pinned rows
    /// fold: a pinned disagreeing row discharges the pair entirely.
    fn encode_pair_distinct(&mut self, c1: usize, c2: usize) {
        let key = (c1.min(c2), c1.max(c2));
        if !self.distinct_done.insert(key) {
            return;
        }
        let p = self.parity_bits;
        let mut diffs: Vec<FLit> = Vec::with_capacity(p);
        for r in 0..p {
            let a = self.f_p(r, c1);
            let b = self.f_p(r, c2);
            let d = match (a, b) {
                (FLit::Const(x), FLit::Const(y)) => FLit::Const(x != y),
                (FLit::Const(x), FLit::Is(l)) | (FLit::Is(l), FLit::Const(x)) => {
                    FLit::Is(if x { !l } else { l })
                }
                (FLit::Is(la), FLit::Is(lb)) => FLit::Is(self.cnf.xor(la, lb)),
            };
            diffs.push(d);
        }
        self.fclause(&diffs);
    }
}

/// Encodes the profile-independent part of the instance (constraints 1–2):
/// code validity and, if enabled, the canonical row order.
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
        pins: vec![None; parity_bits * k],
        encoded_lb: vec![2; k],
        distinct_done: HashSet::new(),
    };
    encode_code_validity(&mut problem, options);
    if options.symmetry_breaking {
        encode_row_order(&mut problem);
    }
    problem
}

/// Constraint 1: data columns have weight ≥ 2 and are pairwise distinct
/// (the latter only when the eager scheme is selected; the lazy scheme
/// adds pairs from counterexamples during enumeration).
fn encode_code_validity(problem: &mut EncodedProblem, options: &BeerSolverOptions) {
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
    if options.distinctness == ColumnDistinctness::Eager {
        for c1 in 0..k {
            for c2 in (c1 + 1)..k {
                problem.encode_pair_distinct(c1, c2);
            }
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
/// time). The caller has validated the entry with [`check_entry`].
fn encode_observation_entry(
    problem: &mut EncodedProblem,
    pattern: &ChargedSet,
    observations: &[Observation],
    options: &BeerSolverOptions,
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
    let encoding = options.encoding.effective(t);

    // w_r = ⊕_{a∈A} P[r][a]: the CHARGED parity-bit indicator (shared by
    // every observation of the entry).
    let w: Vec<FLit> = (0..p)
        .map(|r| {
            let terms: Vec<FLit> = charged.iter().map(|&a| problem.f_p(r, a)).collect();
            problem.fxor(&terms)
        })
        .collect();

    for (j, &obs) in observations.iter().enumerate() {
        if obs == Observation::Unknown {
            continue;
        }
        match encoding {
            ObservationEncoding::SubsetReps => {
                encode_fact_subset_reps(problem, charged, &w, j, obs);
            }
            ObservationEncoding::Linear => {
                encode_fact_linear(problem, charged, &w, j, obs);
            }
            ObservationEncoding::Auto => unreachable!("effective() resolves Auto"),
        }
    }
}

/// Refuses an entry the encoder cannot take: a dataword length other than
/// `k`, or a pattern order beyond the selected encoding's cap (checked only
/// for entries that carry a definite fact, since others encode nothing).
fn check_entry(
    k: usize,
    pattern: &ChargedSet,
    observations: &[Observation],
    encoding: ObservationEncoding,
) -> Result<(), SolveError> {
    for found in [pattern.k(), observations.len()] {
        if found != k {
            return Err(SolveError::DatawordMismatch { expected: k, found });
        }
    }
    let t = pattern.order();
    if observations.iter().any(|&o| o != Observation::Unknown)
        && encoding.effective(t) == ObservationEncoding::SubsetReps
        && t > MAX_SUBSET_ORDER
    {
        return Err(SolveError::PatternOrderUnsupported {
            order: t,
            max: MAX_SUBSET_ORDER,
        });
    }
    Ok(())
}

/// The subset-representative encoding of one (pattern, bit) fact.
///
/// Assignments `x` and their complements induce identical conditions, so
/// only `2^{|A|−1}` representatives (those with `x₀ = 0`) are encoded.
fn encode_fact_subset_reps(
    problem: &mut EncodedProblem,
    charged: &[usize],
    w: &[FLit],
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
    // v^x_r = P[r][j] ⊕ ⊕_{x_i=1} P[r][a_i], folded.
    let v_for = |problem: &mut EncodedProblem, x: u32| -> Vec<FLit> {
        (0..p)
            .map(|r| {
                let mut terms = vec![problem.f_p(r, j)];
                for (i, &a) in charged.iter().enumerate() {
                    if x >> i & 1 == 1 {
                        terms.push(problem.f_p(r, a));
                    }
                }
                problem.fxor(&terms)
            })
            .collect()
    };

    match obs {
        Observation::Miscorrection => {
            // ∃ representative x with ∀r (v_r → w_r).
            let mut surviving: Vec<Vec<Vec<FLit>>> = Vec::new();
            for &x in &reps {
                let v = v_for(problem, x);
                let mut clauses: Vec<Vec<FLit>> = Vec::new();
                let mut dead = false;
                for r in 0..p {
                    match (v[r], w[r]) {
                        (FLit::Const(false), _) | (_, FLit::Const(true)) => {}
                        (FLit::Const(true), FLit::Const(false)) => {
                            dead = true;
                            break;
                        }
                        (vr, wr) => clauses.push(vec![vr.negate(), wr]),
                    }
                }
                if dead {
                    continue;
                }
                if clauses.is_empty() {
                    // This representative is unconditionally fine: the
                    // whole fact is already satisfied.
                    return;
                }
                surviving.push(clauses);
            }
            match surviving.len() {
                0 => problem.contradiction(),
                1 => {
                    for clause in &surviving[0] {
                        problem.fclause(clause);
                    }
                }
                _ => {
                    let mut guards = Vec::with_capacity(surviving.len());
                    for clauses in &surviving {
                        let g = problem.cnf.new_lit();
                        for clause in clauses {
                            let mut guarded = vec![FLit::Is(!g)];
                            guarded.extend_from_slice(clause);
                            problem.fclause(&guarded);
                        }
                        guards.push(g);
                    }
                    problem.cnf.at_least_one(&guards);
                }
            }
        }
        Observation::NoMiscorrection => {
            // Every representative must fail: ∃r (v_r ∧ ¬w_r).
            for &x in &reps {
                let v = v_for(problem, x);
                let mut witnesses: Vec<FLit> = Vec::with_capacity(p);
                let mut satisfied = false;
                for r in 0..p {
                    match (v[r], w[r]) {
                        (FLit::Const(true), FLit::Const(false)) => {
                            satisfied = true;
                            break;
                        }
                        (FLit::Const(false), _) | (_, FLit::Const(true)) => {}
                        (FLit::Const(true), wr) => witnesses.push(wr.negate()),
                        (vr, FLit::Const(false)) => witnesses.push(vr),
                        (FLit::Is(vl), FLit::Is(wl)) => {
                            let h = problem.cnf.new_lit();
                            problem.cnf.add_clause(&[!h, vl]);
                            problem.cnf.add_clause(&[!h, !wl]);
                            witnesses.push(FLit::Is(h));
                        }
                    }
                }
                if satisfied {
                    continue;
                }
                problem.fclause(&witnesses);
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
    w: &[FLit],
    j: usize,
    obs: Observation,
) {
    let p = problem.parity_bits;
    match obs {
        Observation::Miscorrection => {
            let sels: Vec<Lit> = charged.iter().map(|_| problem.cnf.new_lit()).collect();
            for (r, &wr) in w.iter().enumerate().take(p) {
                if wr == FLit::Const(true) {
                    continue;
                }
                let mut terms = vec![problem.f_p(r, j)];
                for (i, &a) in charged.iter().enumerate() {
                    let sel = FLit::Is(sels[i]);
                    let entry = problem.f_p(r, a);
                    let prod = problem.fand(sel, entry);
                    terms.push(prod);
                }
                let acc = problem.fxor(&terms);
                problem.fclause(&[wr, acc.negate()]);
            }
        }
        Observation::NoMiscorrection => {
            // y_r exists only on rows that can be outside supp(w).
            let ys: Vec<FLit> = (0..p)
                .map(|r| match w[r] {
                    FLit::Const(true) => FLit::Const(false),
                    FLit::Const(false) => FLit::Is(problem.cnf.new_lit()),
                    FLit::Is(wl) => {
                        let y = problem.cnf.new_lit();
                        problem.cnf.add_clause(&[!y, !wl]);
                        FLit::Is(y)
                    }
                })
                .collect();
            let dot = |problem: &mut EncodedProblem, col: usize| -> FLit {
                let mut terms: Vec<FLit> = Vec::with_capacity(p);
                for (r, &y) in ys.iter().enumerate() {
                    let entry = problem.f_p(r, col);
                    let prod = problem.fand(y, entry);
                    terms.push(prod);
                }
                problem.fxor(&terms)
            };
            for &a in charged {
                let parity = dot(problem, a);
                problem.fclause(&[parity.negate()]);
            }
            let parity = dot(problem, j);
            problem.fclause(&[parity]);
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
    let mut first: HashMap<u64, usize> = HashMap::new();
    let mut dups = Vec::new();
    for c in 0..m.cols() {
        let mut value = 0u64;
        for r in 0..m.rows() {
            if m.get(r, c) {
                value |= 1 << r;
            }
        }
        match first.entry(value) {
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

/// An incremental BEER solver: constraints stream in pattern by pattern and
/// are pushed into a live SAT session, so each uniqueness check reuses the
/// encoding *and* every clause the solver learned in earlier rounds,
/// instead of re-encoding from scratch (the paper's §6.3 runtime
/// optimization).
///
/// Each push re-runs the GF(2) preprocessing pass over everything
/// accumulated (when enabled), asserting any newly derived pins so the SAT
/// search space shrinks as evidence accumulates.
///
/// Blocking clauses from uniqueness checks live in an assumption scope that
/// is retracted after each check ([`beer_sat::SolverSession`]), so they
/// never leak into later rounds. Lazily derived distinctness constraints
/// are permanent — they are implied by code validity.
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
    problem: EncodedProblem,
    session: SolverSession,
    options: BeerSolverOptions,
    /// Every definite fact pushed so far (kept for solution verification
    /// and incremental preprocessing).
    accumulated: ProfileConstraints,
    facts_encoded: usize,
    root_conflict: bool,
    /// Wall-clock split of the most recent [`ProgressiveSolver::push_constraints`]:
    /// `(encode, preprocess)`. Surfaced per round through
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
        let mut problem = encode_base(k, parity_bits, &options);
        let mut session = SolverSession::new();
        let ok = problem.cnf.flush_into(session.solver_mut());
        ProgressiveSolver {
            problem,
            session,
            options,
            accumulated: ProfileConstraints {
                k,
                entries: Vec::new(),
            },
            facts_encoded: 0,
            root_conflict: !ok,
            last_push_times: (Duration::ZERO, Duration::ZERO),
        }
    }

    /// Dataword length.
    pub fn k(&self) -> usize {
        self.problem.k
    }

    /// Number of definite facts encoded so far.
    pub fn facts_encoded(&self) -> usize {
        self.facts_encoded
    }

    /// Number of `P` variables pinned by preprocessing so far.
    pub fn pinned_vars(&self) -> usize {
        self.problem.pinned_vars()
    }

    /// Current CNF size as `(variables, clauses)`.
    pub fn cnf_size(&self) -> (usize, usize) {
        (self.problem.cnf.num_vars(), self.problem.cnf.num_clauses())
    }

    /// Streams new constraints into the live session: encodes every entry,
    /// then (when enabled) re-runs preprocessing over everything pushed so
    /// far. Patterns already pushed should not be pushed again (their
    /// clauses would be encoded twice — harmless but wasteful).
    ///
    /// # Errors
    ///
    /// Returns a [`SolveError`] if the constraints' or an entry's dataword
    /// length differs from `k`, or an entry's pattern order is unsupported
    /// by the selected encoding. Every entry is checked before any is
    /// encoded, so a refused push leaves the solver unchanged.
    pub fn push_constraints(&mut self, constraints: &ProfileConstraints) -> Result<(), SolveError> {
        let k = self.problem.k;
        if constraints.k != k {
            return Err(SolveError::DatawordMismatch {
                expected: k,
                found: constraints.k,
            });
        }
        for (pattern, observations) in &constraints.entries {
            check_entry(k, pattern, observations, self.options.encoding)?;
        }
        let encode_start = Instant::now();
        for (pattern, observations) in &constraints.entries {
            encode_observation_entry(&mut self.problem, pattern, observations, &self.options);
            self.facts_encoded += observations
                .iter()
                .filter(|&&o| o != Observation::Unknown)
                .count();
            self.accumulated
                .entries
                .push((pattern.clone(), observations.clone()));
        }
        let encode_time = encode_start.elapsed();
        let preprocess_start = Instant::now();
        if self.options.preprocess {
            let pre = preprocess(self.problem.k, self.problem.parity_bits, &self.accumulated);
            self.problem.apply_preprocessing(&pre);
        }
        let preprocess_time = preprocess_start.elapsed();
        if !self.problem.cnf.flush_into(self.session.solver_mut()) {
            self.root_conflict = true;
        }
        self.last_push_times = (encode_time, preprocess_time);
        Ok(())
    }

    /// Wall-clock `(encode, preprocess)` split of the most recent
    /// [`ProgressiveSolver::push_constraints`] call.
    pub fn last_push_times(&self) -> (Duration, Duration) {
        self.last_push_times
    }

    /// Runs a uniqueness check over everything pushed so far: enumerates
    /// consistent ECC functions up to `options.max_solutions`, with the
    /// blocking clauses retracted afterwards so the session stays clean for
    /// the next round.
    ///
    /// # Panics
    ///
    /// Panics if `options.verify_solutions` is set and a solution violates
    /// the accumulated constraints (an encoding bug).
    pub fn check(&mut self) -> SolveReport {
        let start = Instant::now();
        let mut solutions: Vec<LinearCode> = Vec::new();
        let mut truncated = false;
        let mut determine_time = None;
        let mut repairs = 0usize;

        if !self.root_conflict {
            // The guard comes from the *encoder's* variable space so future
            // constraint pushes can never collide with it.
            let guard = self.problem.cnf.new_var().positive();
            self.session
                .solver_mut()
                .reserve_vars(self.problem.cnf.num_vars());
            let scope = self.session.push_scope_with_guard(guard);
            loop {
                let result = self.session.solve();
                if result != SatResult::Sat {
                    break;
                }
                let m = extract_matrix(
                    |v| self.session.value(v),
                    &self.problem.p_vars,
                    self.problem.parity_bits,
                    self.problem.k,
                );
                let dups = duplicate_column_pairs(&m);
                if !dups.is_empty() {
                    // Lazy distinctness repair: these constraints are
                    // implied by validity, so they go in permanently (not
                    // into the retractable scope).
                    repairs += dups.len();
                    for (c1, c2) in dups {
                        self.problem.encode_pair_distinct(c1, c2);
                    }
                    if !self.problem.cnf.flush_into(self.session.solver_mut()) {
                        self.root_conflict = true;
                        break;
                    }
                    continue;
                }
                let code = LinearCode::from_parity_submatrix(m)
                    .expect("SAT constraints guarantee a valid SEC code");
                if self.options.verify_solutions {
                    assert!(
                        crate::analytic::code_matches_constraints(&code, &self.accumulated),
                        "SAT solution violates the profile — encoding bug"
                    );
                }
                determine_time.get_or_insert_with(|| start.elapsed());
                solutions.push(code);
                if solutions.len() >= self.options.max_solutions {
                    truncated = true;
                    break;
                }
                let block: Vec<Lit> = self
                    .problem
                    .p_vars
                    .iter()
                    .map(|&v| v.lit(self.session.value(v) != Some(true)))
                    .collect();
                if !self.session.add_scoped_clause(scope, &block) {
                    break;
                }
            }
            self.session.pop_scope(scope);
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
            solver_stats: self.session.stats(),
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
        // The encodings, distinctness schemes, and preprocessing must all
        // accept exactly the same codes.
        let mut rng = StdRng::seed_from_u64(99);
        let code = hamming::random_sec(7, &mut rng);
        let profile = analytic_profile(&code, &PatternSet::OneTwo.patterns(7));
        let mut baseline: Option<Vec<BitMatrix>> = None;
        for encoding in [
            ObservationEncoding::Auto,
            ObservationEncoding::SubsetReps,
            ObservationEncoding::Linear,
        ] {
            for distinctness in [ColumnDistinctness::Lazy, ColumnDistinctness::Eager] {
                for preprocess in [true, false] {
                    let report = solve_profile(
                        7,
                        code.parity_bits(),
                        &profile,
                        &BeerSolverOptions {
                            max_solutions: 64,
                            encoding,
                            distinctness,
                            preprocess,
                            ..BeerSolverOptions::default()
                        },
                    )
                    .expect("valid profile");
                    let mut matrices: Vec<BitMatrix> = report
                        .solutions
                        .iter()
                        .map(|s| s.parity_submatrix().clone())
                        .collect();
                    matrices.sort_by_key(|m| format!("{m:?}"));
                    match &baseline {
                        None => baseline = Some(matrices),
                        Some(b) => assert_eq!(
                            b, &matrices,
                            "{encoding:?}/{distinctness:?}/pre={preprocess} disagrees"
                        ),
                    }
                }
            }
        }
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
                ..BeerSolverOptions::default()
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
        // All solutions are pairwise inequivalent.
        for i in 0..report.solutions.len() {
            for j in (i + 1)..report.solutions.len() {
                assert!(!equivalence::equivalent(
                    &report.solutions[i],
                    &report.solutions[j]
                ));
            }
        }
    }

    #[test]
    fn contradictory_profile_is_unsat() {
        // Claim: every 1-CHARGED pattern miscorrects every other bit. For
        // k=4, p=3 that forces supp(P_j) ⊆ supp(P_a) for all pairs — i.e.
        // all supports equal, contradicting column distinctness. The
        // preprocessing pass catches this before SAT; with it disabled the
        // solver must reach the same answer.
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
        for preprocess in [true, false] {
            let report = solve_profile(
                4,
                3,
                &all_miscorrect,
                &BeerSolverOptions {
                    verify_solutions: false,
                    preprocess,
                    ..BeerSolverOptions::default()
                },
            )
            .expect("well-formed constraints");
            assert!(
                report.solutions.is_empty(),
                "mutual containment must be UNSAT (preprocess={preprocess})"
            );
        }
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
        let report = solve_profile(
            4,
            3,
            &profile,
            &BeerSolverOptions {
                verify_solutions: false,
                ..BeerSolverOptions::default()
            },
        )
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
        let report = solve_profile(
            4,
            3,
            &impossible,
            &BeerSolverOptions {
                verify_solutions: false,
                ..BeerSolverOptions::default()
            },
        )
        .expect("order-0 must not error");
        assert!(report.solutions.is_empty());
    }

    #[test]
    fn oversized_orders_error_only_under_subset_reps() {
        let k = 24;
        let code = hamming::shortened(k);
        let big = ChargedSet::new((0..18).collect(), k);
        let profile = analytic_profile(&code, std::slice::from_ref(&big));
        let err = solve_profile(
            k,
            code.parity_bits(),
            &profile,
            &BeerSolverOptions {
                encoding: ObservationEncoding::SubsetReps,
                ..BeerSolverOptions::default()
            },
        )
        .expect_err("order 18 exceeds the subset-representative cap");
        assert_eq!(
            err,
            SolveError::PatternOrderUnsupported {
                order: 18,
                max: MAX_SUBSET_ORDER
            }
        );
        assert!(err.to_string().contains("order 18"));
        // The default (Auto) encoding handles the same entry fine.
        let report = solve_profile(
            k,
            code.parity_bits(),
            &profile,
            &BeerSolverOptions {
                verify_solutions: false,
                ..BeerSolverOptions::default()
            },
        )
        .expect("Auto must route high orders to the Linear encoding");
        assert!(!report.solutions.is_empty());
    }

    #[test]
    fn refused_push_leaves_the_solver_unchanged() {
        // Every entry is validated before any is encoded: a push whose last
        // entry exceeds the subset-representative cap encodes nothing, not
        // the valid prefix.
        let k = 24;
        let code = hamming::shortened(k);
        let valid = analytic_profile(&code, &PatternSet::One.patterns(k));
        let big = ChargedSet::new((0..18).collect(), k);
        let mut mixed = valid.clone();
        mixed
            .entries
            .extend(analytic_profile(&code, std::slice::from_ref(&big)).entries);
        let mut solver = ProgressiveSolver::new(
            k,
            code.parity_bits(),
            BeerSolverOptions {
                encoding: ObservationEncoding::SubsetReps,
                max_solutions: 8,
                ..BeerSolverOptions::default()
            },
        );
        let (facts, size) = (solver.facts_encoded(), solver.cnf_size());
        assert_eq!(
            solver.push_constraints(&mixed),
            Err(SolveError::PatternOrderUnsupported {
                order: 18,
                max: MAX_SUBSET_ORDER
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
        // entry must find the same code: pins derived after each push fold
        // into later entries only, so the two CNFs differ.
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
        let mut solver = ProgressiveSolver::new(
            4,
            3,
            BeerSolverOptions {
                verify_solutions: false,
                ..BeerSolverOptions::default()
            },
        );
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
    fn preprocessing_reports_pinned_variables() {
        // Eq. 1's 1-CHARGED profile pins column 0 to all-ones.
        let code = hamming::eq1_code();
        let profile = analytic_profile(&code, &PatternSet::One.patterns(4));
        let mut solver = ProgressiveSolver::new(4, 3, BeerSolverOptions::default());
        assert_eq!(solver.pinned_vars(), 0);
        solver.push_constraints(&profile).unwrap();
        assert!(solver.pinned_vars() >= 3, "column 0 must be pinned");
        let report = solver.check();
        assert!(report.is_unique());
    }
}
