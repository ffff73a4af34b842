//! Pins the lazy column-distinctness repair to one answer however its
//! repairs arrive.
//!
//! Distinctness is never encoded up front: each model with duplicate
//! columns gets those pairs constrained and the search resumes. The
//! constraints are permanent, so a `ProgressiveSolver` that checks after
//! every push repairs early, on weak profiles, and carries those repairs
//! into later rounds, while `solve_profile` repairs once against the whole
//! profile. Both must accept exactly the same `P` matrices, each with
//! pairwise distinct columns. `tests/solution_oracle.rs` checks the same
//! sets against brute force on smaller shapes.

use beer::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// High enough that no final check stops at the cap.
const CAP: usize = 4096;

fn options() -> BeerSolverOptions {
    BeerSolverOptions {
        max_solutions: CAP,
        ..BeerSolverOptions::default()
    }
}

/// The accepted matrices as column masks, after checking the report is
/// complete, repeats nothing and has distinct columns everywhere.
fn solution_set(report: &SolveReport, what: &str) -> BTreeSet<Vec<u64>> {
    assert!(!report.truncated, "{what}: solver stopped at its cap");
    let set: BTreeSet<Vec<u64>> = report
        .solutions
        .iter()
        .map(|code| (0..code.k()).map(|c| code.data_column(c).bits()).collect())
        .collect();
    assert_eq!(
        set.len(),
        report.solutions.len(),
        "{what}: a solution repeats"
    );
    for columns in &set {
        let distinct: BTreeSet<u64> = columns.iter().copied().collect();
        assert_eq!(distinct.len(), columns.len(), "{what}: duplicate columns");
    }
    set
}

/// Deterministic spot check: one repair pass against the whole 1-CHARGED
/// profile vs repairs spread over two rounds of three patterns.
#[test]
fn distinctness_schemes_accept_the_same_matrices() {
    let mut progressive_repairs = 0;
    for seed in 0u64..8 {
        let k = 6;
        let code = hamming::random_sec(k, &mut StdRng::seed_from_u64(seed));
        let p = code.parity_bits();
        let profile = analytic_profile(&code, &PatternSet::One.patterns(k));
        let what = format!("seed {seed}");

        let once = solve_profile(k, p, &profile, &options()).expect("valid profile");
        let once = solution_set(&once, &format!("{what}, one push"));
        assert!(!once.is_empty(), "{what}: the true code must be accepted");

        let mut solver = ProgressiveSolver::new(k, p, options());
        let mut last = None;
        for entries in profile.entries.chunks(3) {
            solver
                .push_constraints(&ProfileConstraints {
                    k,
                    entries: entries.to_vec(),
                })
                .expect("valid profile");
            let report = solver.check();
            progressive_repairs += report.distinctness_repairs;
            last = Some(report);
        }
        let spread = solution_set(&last.expect("k > 0 entries"), &format!("{what}, spread"));
        assert_eq!(once, spread, "distinctness repairs disagree, {what}");
    }
    assert!(progressive_repairs > 0, "no round needed the repair");
}
