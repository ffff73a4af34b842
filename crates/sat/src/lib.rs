//! A from-scratch CDCL SAT solver with a Tseitin circuit layer.
//!
//! The BEER paper (Patel et al., MICRO 2020) formulates on-die ECC recovery
//! as a satisfiability problem and solves it with Z3. This crate provides
//! the equivalent substrate for the reproduction:
//!
//! * [`Solver`] — a conflict-driven clause-learning (CDCL) solver with
//!   two-watched-literal propagation, first-UIP clause learning, VSIDS
//!   branching with phase saving, Luby restarts, and learnt-clause database
//!   reduction. Clauses may be added between [`Solver::solve`] calls, which
//!   is how BEER enumerates every parity-check matrix consistent with a
//!   miscorrection profile (each found model is blocked and the solver is
//!   re-run).
//! * [`CnfBuilder`] — a circuit-to-CNF layer with memoized Tseitin gates
//!   (AND/OR/XOR/IFF), cardinality constraints, and the lexicographic row
//!   ordering used to canonicalize parity-check matrices. The builder owns
//!   its solver and streams every clause into it, so encoding can resume
//!   after any solve with the gate memo intact. That is the substrate of
//!   BEER's progressive collect-and-solve pipeline (§6.3): each uniqueness
//!   check solves under one fresh guard assumption, adds its blocking
//!   clauses as `¬guard ∨ …`, and retracts them by asserting `¬guard`,
//!   while everything the solver learned persists.
//!
//! # Examples
//!
//! ```
//! use beer_sat::{CnfBuilder, SatResult};
//!
//! let mut cnf = CnfBuilder::new();
//! let a = cnf.new_lit();
//! let b = cnf.new_lit();
//! let y = cnf.xor(a, b);
//! cnf.assert_lit(y); // a XOR b must hold
//! cnf.assert_lit(a);
//!
//! let mut solver = cnf.into_solver();
//! assert_eq!(solver.solve(), SatResult::Sat);
//! assert!(solver.lit_value(a).unwrap());
//! assert!(!solver.lit_value(b).unwrap()); // forced by the XOR
//! ```

mod cnf;
mod solver;
mod types;

pub use cnf::CnfBuilder;
pub use solver::{SatResult, Solver, SolverStats};
pub use types::{LBool, Lit, Var};

/// Pins the guarded enumeration loop of BEER's uniqueness check at this layer.
#[cfg(test)]
mod enumerate {
    use crate::{SatResult, Solver, Var};

    /// Counts the models of `solver` projected onto `vars`, at most `max`,
    /// under one fresh guard: each is blocked with `¬guard ∨ …`, and
    /// asserting `¬guard` at the end retracts every block.
    pub(crate) fn guarded(
        solver: &mut Solver,
        vars: &[Var],
        max: usize,
        mut on_model: impl FnMut(&[bool]),
    ) -> usize {
        let guard = solver.new_var().positive();
        let mut found = 0;
        while found < max && solver.solve_with_assumptions(&[guard]) == SatResult::Sat {
            let model: Vec<bool> = vars
                .iter()
                .map(|&v| solver.value(v) == Some(true))
                .collect();
            on_model(&model);
            found += 1;
            assert!(found <= 1 << vars.len(), "a blocked model came back");
            let mut block = vec![!guard];
            block.extend(vars.iter().zip(&model).map(|(&v, &b)| v.lit(!b)));
            solver.add_clause(&block);
        }
        solver.add_clause(&[!guard]);
        found
    }

    mod tests {
        use super::*;

        #[test]
        fn enumerates_exact_model_count() {
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..3).map(|_| s.new_var()).collect();
            // x0 ∨ x1, no constraint on x2; projected onto (x0, x1): 3 models.
            s.add_clause(&[vars[0].positive(), vars[1].positive()]);
            assert_eq!(guarded(&mut s, &vars[..2], 100, |_| {}), 3);
        }

        #[test]
        fn respects_max_cap() {
            let mut s = Solver::new();
            let vars: Vec<Var> = (0..4).map(|_| s.new_var()).collect();
            assert_eq!(guarded(&mut s, &vars, 5, |_| {}), 5);
            // The truncated round's blocks are retracted with the guard.
            assert_eq!(guarded(&mut s, &vars, 100, |_| {}), 16);
        }

        #[test]
        fn unsat_formula_yields_zero() {
            let mut s = Solver::new();
            let v = s.new_var();
            s.add_clause(&[v.positive()]);
            s.add_clause(&[v.negative()]);
            assert_eq!(guarded(&mut s, &[v], 10, |_| {}), 0);
        }

        #[test]
        fn projection_dedupes_full_models() {
            let mut s = Solver::new();
            let a = s.new_var();
            let _free = s.new_var(); // unconstrained, not projected
            s.add_clause(&[a.positive()]);
            let mut models = Vec::new();
            let n = guarded(&mut s, &[a], 10, |m| models.push(m.to_vec()));
            assert_eq!(n, 1);
            assert_eq!(models, vec![vec![true]]);
        }

        #[test]
        fn empty_projection_reports_once() {
            let mut s = Solver::new();
            let _ = s.new_var();
            assert_eq!(guarded(&mut s, &[], 10, |_| {}), 1);
        }
    }
}
