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
//!   ordering used to canonicalize parity-check matrices. Builders can
//!   flush incrementally into a live solver ([`CnfBuilder::flush_into`]),
//!   keeping their gate memoization across flushes.
//! * [`SolverSession`] — incremental solving with assumption-scoped,
//!   retractable constraint groups: the substrate of BEER's progressive
//!   collect-and-solve pipeline (§6.3), where each uniqueness check's
//!   blocking clauses are retracted while learned clauses persist.
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
mod enumerate;
mod session;
mod solver;
mod types;

pub use cnf::CnfBuilder;
pub use enumerate::enumerate_models;
pub use session::{ScopeId, SolverSession};
pub use solver::{SatResult, Solver, SolverStats};
pub use types::{LBool, Lit, Var};
