//! An independent oracle for BEER's answer: the set of ECC functions
//! consistent with a profile (§5.3, Fig. 6 "Check Uniqueness"; Figure 5's
//! ambiguity counts are the size of the same set).
//!
//! For small shapes the oracle enumerates every parity sub-matrix `P` with
//! distinct weight-≥2 columns and rows in non-decreasing `BitVec::lex_cmp`
//! order — exactly one representative per class of codes equal up to
//! parity-bit relabeling — and keeps each `P` whose closed-form predicate
//! (`miscorrection_possible_at`) agrees with every definite fact. The
//! solver, with a cap above the set's size, must report exactly that set:
//!
//! * in one push (`solve_profile`), and
//! * through a `ProgressiveSolver` fed the 1-CHARGED entries first and the
//!   rest second, checking after each push, so the second push encodes into
//!   a solver that has already searched and learnt, and the first check's
//!   blocking clauses must not leak into the second.
//!
//! No code is shared with the SAT encoding, so a bug that drops a valid code
//! — in either observation encoding, the row-order symmetry break or the
//! lazy distinctness repair — shows up as a set difference, and one that
//! admits an invalid code trips the solver's own re-verification.

use beer::prelude::*;
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// A parity sub-matrix as its column masks (bit `r` of entry `c` is
/// `P[r][c]`).
type Matrix = Vec<u64>;

/// The `(p, k)` shapes of the debug tier; larger ones are `#[ignore]`d.
const SHAPES: [(usize, usize); 4] = [(3, 4), (4, 5), (4, 6), (5, 4)];
const LARGE_SHAPES: [(usize, usize); 2] = [(4, 7), (5, 6)];

/// Calls `visit` with every `P` of `p` rows and `k` columns whose columns
/// are distinct with weight ≥ 2 and whose rows are non-decreasing, reading
/// each row with column 0 as the most significant bit.
fn for_each_canonical_matrix(p: usize, k: usize, visit: &mut impl FnMut(&[u64])) {
    let columns: Vec<u64> = (0u64..1 << p).filter(|v| v.count_ones() >= 2).collect();
    // Bit r of `tied` is set while rows r and r + 1 agree on every column
    // placed so far; only tied rows still constrain the next column.
    fn extend(
        columns: &[u64],
        k: usize,
        placed: &mut Vec<u64>,
        tied: u64,
        visit: &mut impl FnMut(&[u64]),
    ) {
        if placed.len() == k {
            visit(placed);
            return;
        }
        for &col in columns {
            let falls = col & !(col >> 1); // row r has 1, row r + 1 has 0
            if falls & tied != 0 || placed.contains(&col) {
                continue;
            }
            let rises = !col & (col >> 1);
            placed.push(col);
            extend(columns, k, placed, tied & !rises, visit);
            placed.pop();
        }
    }
    let all_tied = (1 << (p - 1)) - 1;
    extend(&columns, k, &mut Vec::with_capacity(k), all_tied, visit);
}

/// True if `code` produces every definite fact of `profile`.
fn agrees(code: &LinearCode, profile: &ProfileConstraints) -> bool {
    profile.entries.iter().all(|(pattern, observations)| {
        observations.iter().enumerate().all(|(j, &obs)| match obs {
            Observation::Unknown => true,
            Observation::Miscorrection => {
                miscorrection::miscorrection_possible_at(code, pattern.bits(), j)
            }
            Observation::NoMiscorrection => {
                !miscorrection::miscorrection_possible_at(code, pattern.bits(), j)
            }
        })
    })
}

/// The oracle: for each profile, the set of canonical `P` it admits. One
/// enumeration pass serves every profile of the shape.
fn oracle_sets(p: usize, k: usize, profiles: &[&ProfileConstraints]) -> Vec<BTreeSet<Matrix>> {
    let mut sets = vec![BTreeSet::new(); profiles.len()];
    for_each_canonical_matrix(p, k, &mut |cols| {
        let code = hamming::from_column_values(p, cols).expect("distinct weight-≥2 columns");
        for (set, profile) in sets.iter_mut().zip(profiles) {
            if agrees(&code, profile) {
                set.insert(cols.to_vec());
            }
        }
    });
    sets
}

/// Options whose cap lies above the oracle's count, so the solver must
/// prove the set complete rather than stop at the cap.
fn cap_above(count: usize) -> BeerSolverOptions {
    BeerSolverOptions {
        max_solutions: count + 1,
        ..BeerSolverOptions::default()
    }
}

fn assert_same_set(report: &SolveReport, expected: &BTreeSet<Matrix>, what: &str) {
    assert!(!report.truncated, "{what}: solver stopped at its cap");
    let found: Vec<Matrix> = report
        .solutions
        .iter()
        .map(|code| (0..code.k()).map(|c| code.data_column(c).bits()).collect())
        .collect();
    let found_set: BTreeSet<Matrix> = found.iter().cloned().collect();
    assert_eq!(found.len(), found_set.len(), "{what}: a solution repeats");
    let missing = expected.difference(&found_set).count();
    let extra = found_set.difference(expected).count();
    assert!(
        missing == 0 && extra == 0,
        "{what}: solver found {} codes, oracle {}; {missing} missing, {extra} extra",
        found_set.len(),
        expected.len()
    );
}

/// A named profile of one shape, with the split the progressive run uses.
struct Case {
    name: String,
    profile: ProfileConstraints,
    first: ProfileConstraints,
    rest: ProfileConstraints,
}

impl Case {
    fn new(name: impl Into<String>, profile: ProfileConstraints) -> Case {
        let k = profile.k;
        let (first, rest): (Vec<_>, Vec<_>) = profile
            .entries
            .iter()
            .cloned()
            .partition(|(pattern, _)| pattern.order() == 1);
        Case {
            name: name.into(),
            profile,
            first: ProfileConstraints { k, entries: first },
            rest: ProfileConstraints { k, entries: rest },
        }
    }
}

/// Checks every case of one shape against the oracle, in both push modes.
fn check_cases(p: usize, k: usize, cases: &[Case]) {
    let profiles: Vec<&ProfileConstraints> =
        cases.iter().flat_map(|c| [&c.profile, &c.first]).collect();
    let sets = oracle_sets(p, k, &profiles);
    for (case, expected) in cases.iter().zip(sets.chunks(2)) {
        let (full, first) = (&expected[0], &expected[1]);
        let what = format!("(p, k) = ({p}, {k}), {}", case.name);

        let report = solve_profile(k, p, &case.profile, &cap_above(full.len()))
            .expect("well-formed profile");
        assert_same_set(&report, full, &format!("{what}, one push"));

        let mut solver = ProgressiveSolver::new(k, p, cap_above(first.len().max(full.len())));
        solver.push_constraints(&case.first).unwrap();
        assert_same_set(&solver.check(), first, &format!("{what}, 1-CHARGED push"));
        solver.push_constraints(&case.rest).unwrap();
        assert_same_set(&solver.check(), full, &format!("{what}, second push"));
    }
}

/// `profile` with its `i`-th definite fact replaced by `map(fact)` for
/// every `i` that `pick(i)` accepts.
fn rewrite(
    profile: &ProfileConstraints,
    mut pick: impl FnMut(usize) -> bool,
    map: impl Fn(Observation) -> Observation,
) -> ProfileConstraints {
    let mut out = profile.clone();
    let definite = out
        .entries
        .iter_mut()
        .flat_map(|(_, observations)| observations.iter_mut())
        .filter(|obs| **obs != Observation::Unknown);
    for (i, obs) in definite.enumerate() {
        if pick(i) {
            *obs = map(*obs);
        }
    }
    out
}

/// Order-1 patterns plus three RANDOM-t patterns for each `t` in
/// `2..=min(5, k − 1)`: every entry leaves a bit DISCHARGED, so each order
/// carries facts.
fn mixed_patterns(k: usize, seed: u64) -> Vec<ChargedSet> {
    let mut patterns = PatternSet::One.patterns(k);
    for t in 2..=5.min(k - 1) {
        patterns.extend(
            PatternSet::RandomT {
                t,
                count: 3,
                seed: seed ^ t as u64,
            }
            .patterns(k),
        );
    }
    patterns
}

fn true_cases(p: usize, k: usize, seed: u64) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cases = Vec::new();
    for i in 0..2 {
        let code = hamming::random_sec_with_parity(k, p, &mut rng);
        for set in [PatternSet::One, PatternSet::OneTwo] {
            let profile = analytic_profile(&code, &set.patterns(k));
            cases.push(Case::new(format!("true {set:?} #{i}"), profile));
        }
    }
    cases
}

fn weakened_cases(p: usize, k: usize, seed: u64) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cases = Vec::new();
    for rate in [0.25, 0.5] {
        let code = hamming::random_sec_with_parity(k, p, &mut rng);
        let profile = analytic_profile(&code, &PatternSet::OneTwo.patterns(k));
        let weakened = rewrite(
            &profile,
            |_| rng.random_bool(rate),
            |_| Observation::Unknown,
        );
        cases.push(Case::new(format!("weakened {rate}"), weakened));
    }
    cases
}

/// The profile with no definite fact: every code of the shape survives and
/// only the lazy repair separates columns.
fn all_unknown_case(k: usize) -> Case {
    let profile = ProfileConstraints {
        k,
        entries: PatternSet::OneTwo
            .patterns(k)
            .into_iter()
            .map(|pattern| (pattern, vec![Observation::Unknown; k]))
            .collect(),
    };
    Case::new("all Unknown", profile)
}

fn corrupted_cases(p: usize, k: usize, seed: u64) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(seed);
    let families = [
        (PatternSet::One.patterns(k), 1),
        (PatternSet::OneTwo.patterns(k), 1),
        (mixed_patterns(k, seed), 2),
        (mixed_patterns(k, seed + 1), 3),
    ];
    families
        .iter()
        .enumerate()
        .map(|(i, (patterns, flips))| {
            let profile =
                analytic_profile(&hamming::random_sec_with_parity(k, p, &mut rng), patterns);
            let flips = sample(&mut rng, profile.definite_facts(), *flips).into_vec();
            let corrupted = rewrite(
                &profile,
                |f| flips.contains(&f),
                |obs| match obs {
                    Observation::Miscorrection => Observation::NoMiscorrection,
                    _ => Observation::Miscorrection,
                },
            );
            Case::new(format!("corrupted #{i}, {} flips", flips.len()), corrupted)
        })
        .collect()
}

/// Mixed-order profiles; in all but the first, half the facts of order
/// ≤ 3 are hidden, so the polynomial encoding's facts (order ≥ 4) decide
/// which codes survive.
fn mixed_cases(p: usize, k: usize, seed: u64) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..3u64)
        .map(|i| {
            let code = hamming::random_sec_with_parity(k, p, &mut rng);
            let (low, high): (Vec<_>, Vec<_>) = mixed_patterns(k, seed + i)
                .into_iter()
                .partition(|pattern| pattern.order() <= 3);
            let hide = if i == 0 { 0.0 } else { 0.5 };
            let mut profile = rewrite(
                &analytic_profile(&code, &low),
                |_| rng.random_bool(hide),
                |_| Observation::Unknown,
            );
            profile
                .entries
                .extend(analytic_profile(&code, &high).entries);
            Case::new(format!("mixed orders #{i}"), profile)
        })
        .collect()
}

fn seed_of(p: usize, k: usize) -> u64 {
    0x0AC1_E000 + (p * 100 + k) as u64
}

#[test]
fn true_profiles_match_the_oracle() {
    for (p, k) in SHAPES {
        check_cases(p, k, &true_cases(p, k, seed_of(p, k)));
    }
}

#[test]
fn weakened_profiles_match_the_oracle() {
    for (p, k) in SHAPES {
        let mut cases = weakened_cases(p, k, seed_of(p, k) + 1);
        if p == 3 {
            cases.push(all_unknown_case(k));
        }
        check_cases(p, k, &cases);
    }
}

#[test]
fn corrupted_profiles_match_the_oracle() {
    for (p, k) in SHAPES {
        check_cases(p, k, &corrupted_cases(p, k, seed_of(p, k) + 2));
    }
}

/// Facts on both sides of the subset-representative / polynomial switch:
/// at k ≥ 5 every profile carries facts of order 4 (and 5 at k = 6).
#[test]
fn mixed_order_profiles_match_the_oracle() {
    for (p, k) in SHAPES {
        check_cases(p, k, &mixed_cases(p, k, seed_of(p, k) + 3));
    }
}

/// Order-0 and ALL-charged entries ride along without changing anything:
/// they carry no (satisfiable) information for a valid profile.
#[test]
fn degenerate_orders_are_neutral_for_true_profiles() {
    let (p, k) = (4, 5);
    let code = hamming::random_sec_with_parity(k, p, &mut StdRng::seed_from_u64(9));
    let base = analytic_profile(&code, &PatternSet::One.patterns(k));
    let mut extended = base.clone();
    // ALL-charged: every bit charged ⇒ all observations Unknown.
    extended
        .entries
        .extend(analytic_profile(&code, &PatternSet::All.patterns(k)).entries);
    // Order 0: all bits discharged ⇒ vacuous NoMiscorrection facts.
    extended.entries.push((
        ChargedSet::new(vec![], k),
        vec![Observation::NoMiscorrection; k],
    ));
    let sets = oracle_sets(p, k, &[&base, &extended]);
    assert_eq!(sets[0], sets[1]);
    check_cases(p, k, &[Case::new("1-CHARGED + ALL + order 0", extended)]);
}

/// Larger shapes, every profile kind, and the all-Unknown profile where
/// its class count stays in the thousands (release builds).
#[test]
#[ignore = "release-only: about 1.4M candidate matrices at (5, 6)"]
fn larger_shapes_match_the_oracle() {
    for (p, k) in LARGE_SHAPES {
        let seed = seed_of(p, k);
        let mut cases = true_cases(p, k, seed);
        cases.extend(weakened_cases(p, k, seed + 1));
        cases.extend(corrupted_cases(p, k, seed + 2));
        cases.extend(mixed_cases(p, k, seed + 3));
        check_cases(p, k, &cases);
    }
    for (p, k) in [(4, 5), (5, 4)] {
        check_cases(p, k, &[all_unknown_case(k)]);
    }
}
