//! GF(2) propagation preprocessing: pin `P`-matrix variables before SAT.
//!
//! The 1-CHARGED observations carry strong structure the SAT solver would
//! otherwise rediscover clause by clause: a `Miscorrection` fact for
//! pattern `{a}` at bit `j` says `supp(P_j) ⊆ supp(P_a)` (§4.2.2 reduces
//! the closed-form predicate to support containment for order 1). This
//! pass mines that structure *symbolically*:
//!
//! 1. **Containment closure.** Containment is transitive, so the observed
//!    relation is closed before anything else is derived.
//! 2. **Counting bounds.** Everything contained in `supp(P_a)` is a
//!    distinct weight-≥2 column, and a `w`-row support holds at most
//!    `2^w − w − 1` of those — a per-column weight lower bound. A bound of
//!    `p` rows pins the whole column to ones.
//! 3. **Row propagation.** Pinned entries flow through containment
//!    (`P[r][a] = 0 ⇒ P[r][j] = 0`, `P[r][j] = 1 ⇒ P[r][a] = 1`), weight
//!    bounds (`lb` remaining rows must all be ones), and `NoMiscorrection`
//!    facts whose violating row has become unique.
//! 4. **Elimination.** Every derived fact is a GF(2) linear equation over
//!    the `p·k` matrix variables; [`beer_gf2::BitMatrix::rref`] reduces
//!    the system, merging facts from different derivation paths, exposing
//!    the pinned variables, and detecting inconsistency (`0 = 1`).
//!
//! Every derivation is an implication of code validity (weight ≥ 2,
//! distinct columns) plus the observation facts, so the pass never changes
//! the solution set — the encoder asserts the pins as unit clauses and
//! constant-folds them out of the observation circuits.

use crate::profile::{Observation, ProfileConstraints};
use beer_gf2::{BitMatrix, BitVec};

/// One GF(2) linear fact over the `P`-matrix variables:
/// `⊕_{v ∈ vars} P[v] = rhs`, with variables indexed row-major
/// (`r * k + c`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LinearFact {
    /// Variable indices with coefficient 1.
    pub vars: Vec<usize>,
    /// Right-hand side.
    pub rhs: bool,
}

/// The result of [`preprocess`].
#[derive(Clone, Debug)]
pub struct Preprocessed {
    /// Dataword length.
    pub k: usize,
    /// Parity bits.
    pub parity_bits: usize,
    /// Per-variable pins, row-major (`r * k + c`); `None` = free.
    pub pinned: Vec<Option<bool>>,
    /// Per-column Hamming-weight lower bounds (always ≥ 2).
    pub col_weight_lb: Vec<usize>,
    /// True if the facts contradict code validity: the instance has no
    /// solution and need not reach the solver at all.
    pub unsat: bool,
    /// Linear facts extracted (before elimination).
    pub facts_extracted: usize,
}

impl Preprocessed {
    /// Number of pinned variables.
    pub fn pinned_vars(&self) -> usize {
        self.pinned.iter().filter(|p| p.is_some()).count()
    }
}

/// Smallest weight `w ≥ 2` whose support can contain `needed` distinct
/// weight-≥2 columns, or `None` if even `w = p` cannot.
fn weight_lower_bound(needed: usize, p: usize) -> Option<usize> {
    (2..=p).find(|&w| {
        let capacity = (1u128 << w) - w as u128 - 1;
        capacity >= needed as u128
    })
}

/// Reduces a system of [`LinearFact`]s with Gauss–Jordan elimination over
/// GF(2) and reads back the unit rows as variable pins.
///
/// Returns `(pins, inconsistent)`: a reduced row `0 = 1` marks the system
/// (and therefore the SAT instance it would feed) unsatisfiable.
pub fn eliminate_facts(num_vars: usize, facts: &[LinearFact]) -> (Vec<Option<bool>>, bool) {
    let mut pins = vec![None; num_vars];
    if facts.is_empty() {
        return (pins, false);
    }
    let rows: Vec<BitVec> = facts
        .iter()
        .map(|f| {
            let mut row = BitVec::zeros(num_vars + 1);
            for &v in &f.vars {
                // Coefficients cancel in pairs over GF(2).
                row.set(v, !row.get(v));
            }
            row.set(num_vars, f.rhs);
            row
        })
        .collect();
    let (rref, _, _) = BitMatrix::from_rows(&rows).rref();
    let mut inconsistent = false;
    for row in rref.iter_rows() {
        let mut vars = (0..num_vars).filter(|&v| row.get(v));
        match (vars.next(), vars.next()) {
            (None, _) => {
                if row.get(num_vars) {
                    inconsistent = true;
                }
            }
            (Some(v), None) => pins[v] = Some(row.get(num_vars)),
            // A residual multi-variable relation: sound to drop (it is
            // re-implied by the clauses that produced it), kept out of the
            // pin set.
            (Some(_), Some(_)) => {}
        }
    }
    (pins, inconsistent)
}

/// Runs the propagation pass over a constraint set (see the module docs).
///
/// Only 1-CHARGED entries contribute facts today; other orders pass
/// through untouched. The output is always sound: every pin and bound is
/// implied by code validity plus the definite observations, so encoding
/// them is a pure strengthening that preserves the solution set exactly.
///
/// # Panics
///
/// Panics if `constraints.k != k`.
pub fn preprocess(k: usize, parity_bits: usize, constraints: &ProfileConstraints) -> Preprocessed {
    assert_eq!(constraints.k, k, "constraint dataword length mismatch");
    let p = parity_bits;

    // -- Gather 1-CHARGED facts -------------------------------------------
    // contain[a] = bits j with supp(P_j) ⊆ supp(P_a) (Miscorrection facts).
    let mut contain: Vec<BitVec> = (0..k).map(|_| BitVec::zeros(k)).collect();
    let mut no_contain: Vec<(usize, usize)> = Vec::new();
    let mut unsat = false;
    for (pattern, obs) in &constraints.entries {
        if pattern.order() != 1 {
            continue;
        }
        let a = pattern.bits()[0];
        for (j, &o) in obs.iter().enumerate() {
            match o {
                Observation::Miscorrection => contain[a].set(j, true),
                Observation::NoMiscorrection => no_contain.push((a, j)),
                Observation::Unknown => {}
            }
        }
    }
    // Directly contradictory facts for the same (pattern, bit) pair.
    for &(a, j) in &no_contain {
        if contain[a].get(j) {
            unsat = true;
        }
    }

    // -- Transitive closure -----------------------------------------------
    let mut changed = true;
    while changed {
        changed = false;
        for a in 0..k {
            let mut merged = contain[a].clone();
            for j in contain[a].iter_ones().collect::<Vec<_>>() {
                merged |= &contain[j];
            }
            if merged != contain[a] {
                contain[a] = merged;
                changed = true;
            }
        }
    }
    // Mutual containment of distinct columns means equal columns —
    // impossible for a valid code.
    for a in 0..k {
        for j in contain[a].iter_ones() {
            if j != a && contain[j].get(a) {
                unsat = true;
            }
        }
        // A self-loop only arises through a mutual cycle, caught above.
    }

    // -- Counting bounds ---------------------------------------------------
    let mut col_weight_lb = vec![2usize; k];
    for c in 0..k {
        // Everything contained in supp(P_c), plus P_c itself, are distinct
        // weight-≥2 columns living inside that support.
        let needed = contain[c].iter_ones().filter(|&j| j != c).count() + 1;
        match weight_lower_bound(needed, p) {
            Some(w) => col_weight_lb[c] = w.max(2),
            None => {
                unsat = true;
                col_weight_lb[c] = p;
            }
        }
    }

    // -- Row propagation to fixpoint --------------------------------------
    let mut pin: Vec<Option<bool>> = vec![None; p * k];
    let mut facts: Vec<LinearFact> = Vec::new();
    // set() records every derivation as a linear fact — including ones
    // that conflict with an earlier pin, so the elimination stage sees the
    // contradiction as a reduced `0 = 1` row and is the authoritative
    // inconsistency check (the eager `unsat` flag just short-circuits the
    // fixpoint loop).
    let set = |pin: &mut Vec<Option<bool>>,
               facts: &mut Vec<LinearFact>,
               unsat: &mut bool,
               r: usize,
               c: usize,
               v: bool|
     -> bool {
        let idx = r * k + c;
        match pin[idx] {
            Some(existing) if existing == v => false,
            Some(_) => {
                facts.push(LinearFact {
                    vars: vec![idx],
                    rhs: v,
                });
                *unsat = true;
                false
            }
            None => {
                pin[idx] = Some(v);
                facts.push(LinearFact {
                    vars: vec![idx],
                    rhs: v,
                });
                true
            }
        }
    };

    let mut changed = true;
    while changed && !unsat {
        changed = false;
        // Weight bound p pins the column; tight bounds pin the remainder.
        for c in 0..k {
            let zeros = (0..p).filter(|&r| pin[r * k + c] == Some(false)).count();
            let possible = p - zeros;
            if possible < col_weight_lb[c] {
                unsat = true;
                break;
            }
            if possible == col_weight_lb[c] {
                for r in 0..p {
                    if pin[r * k + c].is_none() {
                        changed |= set(&mut pin, &mut facts, &mut unsat, r, c, true);
                    }
                }
            }
        }
        if unsat {
            break;
        }
        // Containment flows pins row-wise.
        for a in 0..k {
            for j in contain[a].iter_ones().collect::<Vec<_>>() {
                if j == a {
                    continue;
                }
                for r in 0..p {
                    if pin[r * k + a] == Some(false) && pin[r * k + j] != Some(false) {
                        changed |= set(&mut pin, &mut facts, &mut unsat, r, j, false);
                    }
                    if pin[r * k + j] == Some(true) && pin[r * k + a] != Some(true) {
                        changed |= set(&mut pin, &mut facts, &mut unsat, r, a, true);
                    }
                }
            }
        }
        // A NoMiscorrection fact needs a witness row with P[r][j] = 1 and
        // P[r][a] = 0; once only one candidate row remains, it is forced.
        for &(a, j) in &no_contain {
            let satisfied =
                (0..p).any(|r| pin[r * k + j] == Some(true) && pin[r * k + a] == Some(false));
            if satisfied {
                continue;
            }
            let candidates: Vec<usize> = (0..p)
                .filter(|&r| pin[r * k + j] != Some(false) && pin[r * k + a] != Some(true))
                .collect();
            match candidates.len() {
                0 => unsat = true,
                1 => {
                    let r = candidates[0];
                    changed |= set(&mut pin, &mut facts, &mut unsat, r, j, true);
                    changed |= set(&mut pin, &mut facts, &mut unsat, r, a, false);
                }
                _ => {}
            }
        }
    }

    // -- Elimination -------------------------------------------------------
    let facts_extracted = facts.len();
    let (pinned, inconsistent) = eliminate_facts(p * k, &facts);
    unsat |= inconsistent;
    // On consistent systems elimination must reproduce the propagation
    // pins exactly (conflicting systems reduce to `0 = 1` rows instead).
    debug_assert!(
        unsat || pinned == pin,
        "elimination disagrees with propagation"
    );

    Preprocessed {
        k,
        parity_bits: p,
        pinned,
        col_weight_lb,
        unsat,
        facts_extracted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::analytic_profile;
    use crate::pattern::{ChargedSet, PatternSet};
    use beer_ecc::hamming;

    #[test]
    fn eq1_code_pins_its_all_ones_column() {
        // Table 2: pattern {0} miscorrects bits 1, 2, 3 — so supp(P_0)
        // holds 4 distinct weight-≥2 columns, forcing weight 3 = p and
        // pinning column 0 to all-ones (its true value in Eq. 1).
        let code = hamming::eq1_code();
        let prof = analytic_profile(&code, &PatternSet::One.patterns(4));
        let pre = preprocess(4, 3, &prof);
        assert!(!pre.unsat);
        assert_eq!(pre.col_weight_lb[0], 3);
        for r in 0..3 {
            assert_eq!(pre.pinned[r * 4], Some(true), "row {r} of column 0");
        }
        assert!(pre.facts_extracted >= 3);
        assert!(pre.pinned_vars() >= 3);
    }

    #[test]
    fn full_length_code_pins_only_the_all_ones_column() {
        let code = hamming::full_length(4); // (15, 11)
        let prof = analytic_profile(&code, &PatternSet::One.patterns(11));
        let pre = preprocess(11, 4, &prof);
        assert!(!pre.unsat);
        // Exactly one column of a full-length code has full support.
        let full_cols: Vec<usize> = (0..11)
            .filter(|&c| (0..4).all(|r| pre.pinned[r * 11 + c] == Some(true)))
            .collect();
        assert_eq!(full_cols.len(), 1);
        let c = full_cols[0];
        assert_eq!(code.data_column(c).weight(), 4);
    }

    #[test]
    fn pins_agree_with_the_true_code() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(2025);
        for k in [8usize, 16, 32] {
            let code = hamming::random_sec(k, &mut rng);
            let p = code.parity_bits();
            let prof = analytic_profile(&code, &PatternSet::One.patterns(k));
            let pre = preprocess(k, p, &prof);
            assert!(!pre.unsat, "k={k}");
            // All-ones-column pins are row-permutation invariant, so they
            // must match the generating code directly.
            for c in 0..k {
                if (0..p).all(|r| pre.pinned[r * k + c] == Some(true)) {
                    assert_eq!(
                        code.data_column(c).weight() as usize,
                        p,
                        "k={k} column {c} wrongly pinned to all-ones"
                    );
                }
                assert!(
                    code.data_column(c).weight() as usize >= pre.col_weight_lb[c],
                    "k={k} column {c}: bound exceeds the true weight"
                );
            }
        }
    }

    #[test]
    fn mutual_containment_is_unsat() {
        // Patterns {0} and {1} each claiming a miscorrection at the other
        // bit force P_0 = P_1 — impossible for distinct columns.
        let mk = |a: usize, j: usize| {
            let mut obs = vec![Observation::Unknown; 4];
            obs[j] = Observation::Miscorrection;
            (ChargedSet::new(vec![a], 4), obs)
        };
        let constraints = ProfileConstraints {
            k: 4,
            entries: vec![mk(0, 1), mk(1, 0)],
        };
        let pre = preprocess(4, 3, &constraints);
        assert!(pre.unsat);
    }

    #[test]
    fn contradictory_observation_pair_is_unsat() {
        let pattern = ChargedSet::new(vec![0], 4);
        let mut yes = vec![Observation::Unknown; 4];
        yes[2] = Observation::Miscorrection;
        let mut no = vec![Observation::Unknown; 4];
        no[2] = Observation::NoMiscorrection;
        let constraints = ProfileConstraints {
            k: 4,
            entries: vec![(pattern.clone(), yes), (pattern, no)],
        };
        let pre = preprocess(4, 3, &constraints);
        assert!(pre.unsat);
    }

    #[test]
    fn overfull_containment_is_unsat() {
        // Pattern {0} claiming miscorrections at 5 other bits needs
        // 2^p − p − 1 ≥ 6 candidate columns inside supp(P_0); with p = 3
        // only 4 exist.
        let mut obs = vec![Observation::Miscorrection; 6];
        obs[0] = Observation::Unknown;
        let constraints = ProfileConstraints {
            k: 6,
            entries: vec![(ChargedSet::new(vec![0], 6), obs)],
        };
        let pre = preprocess(6, 3, &constraints);
        assert!(pre.unsat);
    }

    #[test]
    fn elimination_merges_and_detects_conflicts() {
        let facts = vec![
            LinearFact {
                vars: vec![0],
                rhs: true,
            },
            LinearFact {
                vars: vec![0, 1],
                rhs: true,
            },
        ];
        let (pins, bad) = eliminate_facts(3, &facts);
        assert!(!bad);
        assert_eq!(pins[0], Some(true));
        assert_eq!(pins[1], Some(false));
        assert_eq!(pins[2], None);

        let conflict = vec![
            LinearFact {
                vars: vec![2],
                rhs: true,
            },
            LinearFact {
                vars: vec![2],
                rhs: false,
            },
        ];
        let (_, bad) = eliminate_facts(3, &conflict);
        assert!(bad);
    }

    #[test]
    fn empty_constraints_pin_nothing() {
        let constraints = ProfileConstraints {
            k: 5,
            entries: vec![],
        };
        let pre = preprocess(5, 4, &constraints);
        assert!(!pre.unsat);
        assert_eq!(pre.pinned_vars(), 0);
        assert!(pre.col_weight_lb.iter().all(|&b| b == 2));
    }
}
