//! Circuit-to-CNF construction with memoized Tseitin gates.

use crate::solver::Solver;
use crate::types::{Lit, Var};
use std::collections::HashMap;

/// Structural key for gate memoization.
#[derive(Clone, PartialEq, Eq, Hash)]
enum GateKey {
    And(Vec<usize>),
    Xor(Vec<usize>),
}

/// A CNF formula under construction, with a Tseitin gate library.
///
/// `CnfBuilder` owns the [`Solver`] it encodes into: every variable it
/// creates is a solver variable, and every clause goes straight to
/// [`Solver::add_clause`]. Structurally identical gates are memoized so
/// that BEER's large encodings (hundreds of thousands of XOR/AND terms
/// over the same parity-check matrix entries, §5.3) stay compact, and the
/// memo outlives every solve: constraints encoded after a
/// [`Solver::solve`] reuse the gates built before it. That is BEER's
/// progressive solving (paper §6.3). Solve through
/// [`CnfBuilder::solver_mut`], or take the solver with
/// [`CnfBuilder::into_solver`].
///
/// All gate outputs are full biconditional (both-polarity) encodings, so
/// gate literals may be used under any polarity, including inside negative
/// constraints.
///
/// # Examples
///
/// ```
/// use beer_sat::{CnfBuilder, SatResult};
///
/// let mut cnf = CnfBuilder::new();
/// let bits: Vec<_> = (0..4).map(|_| cnf.new_lit()).collect();
/// let parity = cnf.xor_many(&bits);
/// cnf.assert_lit(parity);
/// let mut s = cnf.into_solver();
/// assert_eq!(s.solve(), SatResult::Sat);
/// let ones = bits.iter().filter(|&&b| s.lit_value(b) == Some(true)).count();
/// assert_eq!(ones % 2, 1);
/// ```
pub struct CnfBuilder {
    solver: Solver,
    /// Clauses added through the builder (blocking clauses added to the
    /// solver directly are not counted).
    num_clauses: usize,
    gate_cache: HashMap<GateKey, Lit>,
    const_true: Option<Lit>,
}

impl Default for CnfBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CnfBuilder {
    /// Creates an empty builder over an empty solver.
    pub fn new() -> Self {
        CnfBuilder {
            solver: Solver::new(),
            num_clauses: 0,
            gate_cache: HashMap::new(),
            const_true: None,
        }
    }

    /// Creates a fresh solver variable.
    pub fn new_var(&mut self) -> Var {
        self.solver.new_var()
    }

    /// Creates a fresh variable and returns its positive literal.
    pub fn new_lit(&mut self) -> Lit {
        self.new_var().positive()
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.solver.num_vars()
    }

    /// Number of clauses added through the builder so far.
    pub fn num_clauses(&self) -> usize {
        self.num_clauses
    }

    /// Adds a raw clause (a disjunction of literals) to the solver. A
    /// clause that leaves the formula unsatisfiable at the root shows as
    /// `!self.solver().is_ok()`.
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.num_clauses += 1;
        self.solver.add_clause(lits);
    }

    /// Asserts that a literal holds (adds a unit clause).
    pub fn assert_lit(&mut self, l: Lit) {
        self.add_clause(&[l]);
    }

    /// A literal constrained to be true (for building constant inputs).
    pub fn lit_true(&mut self) -> Lit {
        if let Some(t) = self.const_true {
            return t;
        }
        let t = self.new_lit();
        self.assert_lit(t);
        self.const_true = Some(t);
        t
    }

    fn sorted_codes(lits: &[Lit]) -> Vec<usize> {
        let mut v: Vec<usize> = lits.iter().map(|l| l.code()).collect();
        v.sort_unstable();
        v
    }

    /// Returns a literal equivalent to the AND of `lits`.
    ///
    /// Memoized: the same input set yields the same output literal.
    ///
    /// # Panics
    ///
    /// Panics if `lits` is empty (an empty AND is a constant; use
    /// [`CnfBuilder::lit_true`]).
    pub fn and(&mut self, lits: &[Lit]) -> Lit {
        assert!(!lits.is_empty(), "AND of zero literals");
        if lits.len() == 1 {
            return lits[0];
        }
        let key = GateKey::And(Self::sorted_codes(lits));
        if let Some(&y) = self.gate_cache.get(&key) {
            return y;
        }
        let y = self.new_lit();
        // y → li for each i; (⋀ li) → y.
        let mut long: Vec<Lit> = Vec::with_capacity(lits.len() + 1);
        for &l in lits {
            self.add_clause(&[!y, l]);
            long.push(!l);
        }
        long.push(y);
        self.add_clause(&long);
        self.gate_cache.insert(key, y);
        y
    }

    /// Returns a literal equivalent to `a XOR b`. Memoized.
    pub fn xor(&mut self, a: Lit, b: Lit) -> Lit {
        let key = GateKey::Xor(Self::sorted_codes(&[a, b]));
        if let Some(&y) = self.gate_cache.get(&key) {
            return y;
        }
        let y = self.new_lit();
        // y ↔ a ⊕ b, full four-clause biconditional.
        self.add_clause(&[!y, a, b]);
        self.add_clause(&[!y, !a, !b]);
        self.add_clause(&[y, a, !b]);
        self.add_clause(&[y, !a, b]);
        self.gate_cache.insert(key, y);
        y
    }

    /// Returns a literal equivalent to the XOR of all `lits` (parity).
    ///
    /// The empty XOR is the constant false.
    pub fn xor_many(&mut self, lits: &[Lit]) -> Lit {
        match lits.len() {
            0 => !self.lit_true(),
            1 => lits[0],
            _ => {
                let mut acc = lits[0];
                for &l in &lits[1..] {
                    acc = self.xor(acc, l);
                }
                acc
            }
        }
    }

    /// Returns a literal equivalent to `a ↔ b`.
    pub fn iff(&mut self, a: Lit, b: Lit) -> Lit {
        !self.xor(a, b)
    }

    /// Asserts that at least one of `lits` holds.
    ///
    /// # Panics
    ///
    /// Panics if `lits` is empty (that would be an unsatisfiable empty
    /// clause; assert it explicitly if intended).
    pub fn at_least_one(&mut self, lits: &[Lit]) {
        assert!(!lits.is_empty(), "at_least_one of zero literals");
        self.add_clause(lits);
    }

    /// Asserts `a ≤lex b` where index 0 is the most significant bit — the
    /// row-ordering constraint that canonicalizes parity-check matrices
    /// (DESIGN.md §2, symmetry breaking).
    ///
    /// # Panics
    ///
    /// Panics if the rows have different lengths.
    pub fn lex_le(&mut self, a: &[Lit], b: &[Lit]) {
        assert_eq!(a.len(), b.len(), "lex_le rows of different lengths");
        if a.is_empty() {
            return;
        }
        // eq_prefix = "a[..i] == b[..i]"; start with the empty prefix (true).
        let mut eq_prefix = self.lit_true();
        for i in 0..a.len() {
            // eq_prefix ∧ a[i] → b[i]  (no 1-over-0 at the first difference)
            self.add_clause(&[!eq_prefix, !a[i], b[i]]);
            if i + 1 < a.len() {
                let bits_equal = self.iff(a[i], b[i]);
                eq_prefix = self.and(&[eq_prefix, bits_equal]);
            }
        }
    }

    /// The solver holding the formula (read a model or its statistics).
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// The solver holding the formula, to solve it or to add clauses the
    /// builder does not count, such as model-blocking clauses.
    ///
    /// # Examples
    ///
    /// Enumerate models under a guard, then retract the blocking clauses:
    ///
    /// ```
    /// use beer_sat::{CnfBuilder, SatResult};
    ///
    /// let mut cnf = CnfBuilder::new();
    /// let a = cnf.new_lit();
    /// let b = cnf.new_lit();
    /// cnf.add_clause(&[a, b]);
    ///
    /// let guard = cnf.new_lit();
    /// let s = cnf.solver_mut();
    /// let mut models = 0;
    /// while s.solve_with_assumptions(&[guard]) == SatResult::Sat {
    ///     models += 1;
    ///     let block = [
    ///         !guard,
    ///         a.var().lit(s.lit_value(a) != Some(true)),
    ///         b.var().lit(s.lit_value(b) != Some(true)),
    ///     ];
    ///     s.add_clause(&block);
    /// }
    /// assert_eq!(models, 3);
    /// s.add_clause(&[!guard]);
    /// // With the blocking clauses retracted the formula is satisfiable again.
    /// assert_eq!(s.solve(), SatResult::Sat);
    /// ```
    pub fn solver_mut(&mut self) -> &mut Solver {
        &mut self.solver
    }

    /// Consumes the builder and returns the solver holding the formula.
    pub fn into_solver(self) -> Solver {
        self.solver
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SatResult;

    /// Exhaustively checks that a gate matches a boolean function on all
    /// inputs, by solving with each input combination asserted.
    fn check_gate<F>(n_inputs: usize, build: impl Fn(&mut CnfBuilder, &[Lit]) -> Lit, f: F)
    where
        F: Fn(&[bool]) -> bool,
    {
        for mask in 0..(1u32 << n_inputs) {
            let mut cnf = CnfBuilder::new();
            let inputs: Vec<Lit> = (0..n_inputs).map(|_| cnf.new_lit()).collect();
            let out = build(&mut cnf, &inputs);
            let in_vals: Vec<bool> = (0..n_inputs).map(|i| mask >> i & 1 == 1).collect();
            for (l, v) in inputs.iter().zip(&in_vals) {
                cnf.assert_lit(if *v { *l } else { !*l });
            }
            let mut s = cnf.into_solver();
            assert_eq!(s.solve(), SatResult::Sat);
            assert_eq!(
                s.lit_value(out),
                Some(f(&in_vals)),
                "gate mismatch on input {in_vals:?}"
            );
        }
    }

    #[test]
    fn and_gate_semantics() {
        check_gate(3, |c, ins| c.and(ins), |v| v.iter().all(|&b| b));
    }

    #[test]
    fn xor_gate_semantics() {
        check_gate(2, |c, ins| c.xor(ins[0], ins[1]), |v| v[0] ^ v[1]);
    }

    #[test]
    fn xor_many_is_parity() {
        check_gate(
            4,
            |c, ins| c.xor_many(ins),
            |v| v.iter().fold(false, |a, &b| a ^ b),
        );
    }

    #[test]
    fn iff_gate_semantics() {
        check_gate(2, |c, ins| c.iff(ins[0], ins[1]), |v| v[0] == v[1]);
    }

    #[test]
    fn gates_are_memoized() {
        let mut cnf = CnfBuilder::new();
        let a = cnf.new_lit();
        let b = cnf.new_lit();
        let y1 = cnf.xor(a, b);
        let y2 = cnf.xor(b, a);
        assert_eq!(y1, y2, "XOR must memoize independent of argument order");
        let z1 = cnf.and(&[a, b]);
        let z2 = cnf.and(&[b, a]);
        assert_eq!(z1, z2);
        let vars_before = cnf.num_vars();
        let _ = cnf.xor(a, b);
        assert_eq!(cnf.num_vars(), vars_before, "cache hit must not allocate");
    }

    #[test]
    fn encoding_continues_after_a_solve() {
        let mut cnf = CnfBuilder::new();
        let a = cnf.new_lit();
        let b = cnf.new_lit();
        let x = cnf.xor(a, b);
        cnf.assert_lit(x);
        assert_eq!(cnf.solver_mut().solve(), SatResult::Sat);

        // Keep encoding into the solved solver: the memoized XOR gate is
        // reused, and a new clause reaches the solver at once.
        let before = cnf.num_clauses();
        assert_eq!(cnf.xor(a, b), x, "gate must be memoized across solves");
        assert_eq!(cnf.num_clauses(), before);
        cnf.assert_lit(a);
        assert_eq!(cnf.num_clauses(), before + 1);
        assert_eq!(cnf.solver_mut().solve(), SatResult::Sat);
        assert_eq!(cnf.solver().lit_value(b), Some(false), "forced by x ∧ a");
    }

    #[test]
    fn lex_le_orders_rows() {
        // Two 3-bit rows: number of pairs (a, b) with a ≤lex b is
        // C(8,2) + 8 = 36 (ordered pairs with a ≤ b).
        let mut cnf = CnfBuilder::new();
        let a: Vec<Lit> = (0..3).map(|_| cnf.new_lit()).collect();
        let b: Vec<Lit> = (0..3).map(|_| cnf.new_lit()).collect();
        cnf.lex_le(&a, &b);
        let mut s = cnf.into_solver();
        let mut count = 0;
        let all: Vec<Lit> = a.iter().chain(b.iter()).copied().collect();
        while s.solve() == SatResult::Sat {
            count += 1;
            assert!(count <= 36);
            let val = |lits: &[Lit]| -> u32 {
                lits.iter()
                    .fold(0, |acc, &l| acc << 1 | u32::from(s.lit_value(l).unwrap()))
            };
            assert!(val(&a) <= val(&b), "lex order violated");
            let block: Vec<Lit> = all
                .iter()
                .map(|&l| if s.lit_value(l).unwrap() { !l } else { l })
                .collect();
            s.add_clause(&block);
        }
        assert_eq!(count, 36);
    }

    #[test]
    fn constants_are_fixed() {
        let mut cnf = CnfBuilder::new();
        let t = cnf.lit_true();
        let f = !cnf.lit_true();
        let mut s = cnf.into_solver();
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.lit_value(t), Some(true));
        assert_eq!(s.lit_value(f), Some(false));
    }
}
