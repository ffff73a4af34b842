//! Randomized cross-validation of the CDCL solver against brute force.
//!
//! Small random CNF instances are solved both by exhaustive truth-table
//! evaluation and by the solver; answers must agree, and any model the
//! solver returns must satisfy every clause.

use beer_sat::{Lit, SatResult, Solver, Var};
use proptest::prelude::*;

/// A random clause set over `n_vars` variables.
fn clauses_strategy(n_vars: usize, max_clauses: usize) -> impl Strategy<Value = Vec<Vec<Lit>>> {
    let clause = prop::collection::vec(
        (0..n_vars, any::<bool>()).prop_map(|(v, pos)| Lit::new(Var::new(v), pos)),
        1..=3,
    );
    prop::collection::vec(clause, 0..=max_clauses)
}

fn brute_force_sat(n_vars: usize, clauses: &[Vec<Lit>]) -> bool {
    'outer: for mask in 0u64..(1 << n_vars) {
        for c in clauses {
            let sat = c.iter().any(|l| {
                let val = mask >> l.var().index() & 1 == 1;
                if l.is_positive() {
                    val
                } else {
                    !val
                }
            });
            if !sat {
                continue 'outer;
            }
        }
        return true;
    }
    false
}

fn count_models_brute(n_vars: usize, clauses: &[Vec<Lit>]) -> usize {
    (0u64..(1 << n_vars))
        .filter(|mask| {
            clauses.iter().all(|c| {
                c.iter().any(|l| {
                    let val = mask >> l.var().index() & 1 == 1;
                    if l.is_positive() {
                        val
                    } else {
                        !val
                    }
                })
            })
        })
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn solver_agrees_with_brute_force(clauses in clauses_strategy(8, 30)) {
        let expected = brute_force_sat(8, &clauses);
        let mut s = Solver::new();
        for _ in 0..8 {
            s.new_var();
        }
        for c in &clauses {
            s.add_clause(c);
        }
        let got = s.solve() == SatResult::Sat;
        prop_assert_eq!(got, expected);
        if got {
            for c in &clauses {
                prop_assert!(
                    c.iter().any(|&l| s.lit_value(l) == Some(true)),
                    "model violates clause {:?}", c
                );
            }
        }
    }

    #[test]
    fn enumeration_matches_brute_force_count(clauses in clauses_strategy(6, 18)) {
        // The loop BEER's uniqueness check runs: solve under a fresh guard
        // and block each model with ¬guard ∨ …; then assert ¬guard, which
        // must retract every block and nothing else.
        let expected = count_models_brute(6, &clauses);
        let mut s = Solver::new();
        let vars: Vec<Var> = (0..6).map(|_| s.new_var()).collect();
        for c in &clauses {
            s.add_clause(c);
        }
        let guard = s.new_var().positive();
        let mut got = 0;
        while s.solve_with_assumptions(&[guard]) == SatResult::Sat {
            got += 1;
            prop_assert!(got <= expected, "a blocked model came back");
            let mut block = vec![!guard];
            block.extend(vars.iter().map(|&v| v.lit(s.value(v) != Some(true))));
            s.add_clause(&block);
        }
        prop_assert_eq!(got, expected);
        // With a model left outside the guard, exhausting the blocks is not
        // a root conflict.
        prop_assert!(expected == 0 || s.is_ok());
        s.add_clause(&[!guard]);
        prop_assert_eq!(s.solve() == SatResult::Sat, expected > 0);
    }

    #[test]
    fn answers_stable_across_incremental_resolves(clauses in clauses_strategy(7, 25)) {
        // Solving twice (with learnt clauses persisting) must not change the
        // answer; adding one clause of the formula late must also agree with
        // solving everything upfront.
        let mut s = Solver::new();
        for _ in 0..7 {
            s.new_var();
        }
        let (last, rest) = match clauses.split_last() {
            Some(x) => x,
            None => return Ok(()),
        };
        for c in rest {
            s.add_clause(c);
        }
        let _ = s.solve();
        s.add_clause(last);
        let incremental = s.solve() == SatResult::Sat;
        prop_assert_eq!(incremental, brute_force_sat(7, &clauses));
    }
}
