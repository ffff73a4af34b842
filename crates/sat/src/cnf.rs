//! Circuit-to-CNF construction with memoized Tseitin gates.

use crate::solver::Solver;
use crate::types::{Lit, Var};
use std::collections::HashMap;

/// Structural key for gate memoization.
#[derive(Clone, PartialEq, Eq, Hash)]
enum GateKey {
    And(Vec<usize>),
    Or(Vec<usize>),
    Xor(Vec<usize>),
}

/// A CNF formula under construction, with a Tseitin gate library.
///
/// `CnfBuilder` accumulates variables and clauses, memoizing structurally
/// identical gates so that BEER's large encodings (hundreds of thousands of
/// XOR/AND terms over the same parity-check matrix entries, §5.3) stay
/// compact. Call [`CnfBuilder::into_solver`] to obtain a loaded [`Solver`];
/// further clauses (e.g. model-blocking clauses) can then be added directly
/// to the solver.
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
/// cnf.at_most_k(&bits, 2);
/// cnf.at_least_one(&bits);
/// let mut s = cnf.into_solver();
/// assert_eq!(s.solve(), SatResult::Sat);
/// let ones = bits.iter().filter(|&&b| s.lit_value(b) == Some(true)).count();
/// assert!((1..=2).contains(&ones));
/// ```
pub struct CnfBuilder {
    num_vars: usize,
    /// Clauses not yet shipped to a solver.
    clauses: Vec<Vec<Lit>>,
    /// How many clauses [`CnfBuilder::flush_into`] has shipped (and
    /// dropped from `clauses`).
    shipped: usize,
    gate_cache: HashMap<GateKey, Lit>,
    const_true: Option<Lit>,
}

impl Default for CnfBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CnfBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        CnfBuilder {
            num_vars: 0,
            clauses: Vec::new(),
            shipped: 0,
            gate_cache: HashMap::new(),
            const_true: None,
        }
    }

    /// Creates a fresh variable.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.num_vars);
        self.num_vars += 1;
        v
    }

    /// Creates a fresh variable and returns its positive literal.
    pub fn new_lit(&mut self) -> Lit {
        self.new_var().positive()
    }

    /// Number of variables allocated so far.
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of clauses added so far, shipped or pending.
    pub fn num_clauses(&self) -> usize {
        self.shipped + self.clauses.len()
    }

    /// Adds a raw clause (a disjunction of literals).
    pub fn add_clause(&mut self, lits: &[Lit]) {
        self.clauses.push(lits.to_vec());
    }

    /// Asserts that a literal holds (adds a unit clause).
    pub fn assert_lit(&mut self, l: Lit) {
        self.add_clause(&[l]);
    }

    /// Adds the implication `premise → (⋁ conclusion)`.
    pub fn add_implication(&mut self, premise: Lit, conclusion: &[Lit]) {
        let mut c = Vec::with_capacity(conclusion.len() + 1);
        c.push(!premise);
        c.extend_from_slice(conclusion);
        self.add_clause(&c);
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

    /// A literal constrained to be false.
    pub fn lit_false(&mut self) -> Lit {
        !self.lit_true()
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

    /// Returns a literal equivalent to the OR of `lits`. Memoized.
    ///
    /// # Panics
    ///
    /// Panics if `lits` is empty.
    pub fn or(&mut self, lits: &[Lit]) -> Lit {
        assert!(!lits.is_empty(), "OR of zero literals");
        if lits.len() == 1 {
            return lits[0];
        }
        let key = GateKey::Or(Self::sorted_codes(lits));
        if let Some(&y) = self.gate_cache.get(&key) {
            return y;
        }
        let y = self.new_lit();
        let mut long: Vec<Lit> = Vec::with_capacity(lits.len() + 1);
        for &l in lits {
            self.add_clause(&[y, !l]);
            long.push(l);
        }
        long.push(!y);
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
            0 => self.lit_false(),
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

    /// Returns a literal equivalent to `if sel { then_branch } else { else_branch }`.
    pub fn mux(&mut self, sel: Lit, then_branch: Lit, else_branch: Lit) -> Lit {
        let a = self.and(&[sel, then_branch]);
        let b = self.and(&[!sel, else_branch]);
        self.or(&[a, b])
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

    /// Asserts that at most one of `lits` holds (pairwise encoding).
    pub fn at_most_one(&mut self, lits: &[Lit]) {
        for i in 0..lits.len() {
            for j in (i + 1)..lits.len() {
                self.add_clause(&[!lits[i], !lits[j]]);
            }
        }
    }

    /// Asserts that exactly one of `lits` holds.
    ///
    /// # Panics
    ///
    /// Panics if `lits` is empty.
    pub fn exactly_one(&mut self, lits: &[Lit]) {
        self.at_least_one(lits);
        self.at_most_one(lits);
    }

    /// Asserts that at most `k` of `lits` hold, using a sequential counter.
    pub fn at_most_k(&mut self, lits: &[Lit], k: usize) {
        if lits.len() <= k {
            return;
        }
        if k == 0 {
            for &l in lits {
                self.assert_lit(!l);
            }
            return;
        }
        // s[i][j] = "at least j+1 of the first i+1 literals are true".
        let n = lits.len();
        let mut s = vec![vec![Lit::from_code(0); k]; n];
        for (i, row) in s.iter_mut().enumerate() {
            for cell in row.iter_mut().take(k) {
                *cell = self.new_lit();
            }
            let _ = i;
        }
        self.add_clause(&[!lits[0], s[0][0]]);
        for &cell in &s[0][1..k] {
            self.assert_lit(!cell);
        }
        for i in 1..n {
            self.add_clause(&[!lits[i], s[i][0]]);
            self.add_clause(&[!s[i - 1][0], s[i][0]]);
            for j in 1..k {
                self.add_clause(&[!lits[i], !s[i - 1][j - 1], s[i][j]]);
                self.add_clause(&[!s[i - 1][j], s[i][j]]);
            }
            self.add_clause(&[!lits[i], !s[i - 1][k - 1]]);
        }
    }

    /// Asserts that at least `k` of `lits` hold (via at-most on negations).
    ///
    /// # Panics
    ///
    /// Panics if `k > lits.len()` (trivially unsatisfiable; assert false
    /// explicitly if intended).
    pub fn at_least_k(&mut self, lits: &[Lit], k: usize) {
        assert!(k <= lits.len(), "at_least_k with k > number of literals");
        if k == 0 {
            return;
        }
        let negated: Vec<Lit> = lits.iter().map(|&l| !l).collect();
        self.at_most_k(&negated, lits.len() - k);
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

    /// Consumes the builder and returns a solver loaded with the formula.
    ///
    /// # Panics
    ///
    /// If the builder was already flushed: the shipped clauses are gone,
    /// so the new solver would silently miss them.
    pub fn into_solver(mut self) -> Solver {
        assert_eq!(
            self.shipped, 0,
            "into_solver on a flushed CnfBuilder would drop its shipped clauses"
        );
        let mut solver = Solver::new();
        self.flush_into(&mut solver);
        solver
    }

    /// Ships every clause added since the last flush into a live solver,
    /// creating any new variables first. This keeps the builder usable as
    /// an *incremental* encoder: Tseitin gates built before the flush stay
    /// memoized, so constraints added later reuse them instead of
    /// re-encoding — the mechanism behind BEER's progressive solving
    /// (paper §6.3).
    ///
    /// Returns `false` if the solver derived a top-level conflict while
    /// absorbing the new clauses (the formula is then permanently UNSAT).
    ///
    /// Shipped clauses are dropped from the builder, which keeps only
    /// their count.
    pub fn flush_into(&mut self, solver: &mut Solver) -> bool {
        solver.reserve_vars(self.num_vars);
        let pending = std::mem::take(&mut self.clauses);
        self.shipped += pending.len();
        let mut ok = true;
        for c in pending {
            ok &= solver.add_clause(&c);
        }
        ok
    }

    /// Number of clauses not yet shipped by [`CnfBuilder::flush_into`].
    pub fn pending_clauses(&self) -> usize {
        self.clauses.len()
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
    fn or_gate_semantics() {
        check_gate(3, |c, ins| c.or(ins), |v| v.iter().any(|&b| b));
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
    fn mux_gate_semantics() {
        check_gate(
            3,
            |c, ins| c.mux(ins[0], ins[1], ins[2]),
            |v| if v[0] { v[1] } else { v[2] },
        );
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
    fn exactly_one_enumerates_n_models() {
        let mut cnf = CnfBuilder::new();
        let bits: Vec<Lit> = (0..5).map(|_| cnf.new_lit()).collect();
        cnf.exactly_one(&bits);
        let mut s = cnf.into_solver();
        let mut count = 0;
        while s.solve() == SatResult::Sat {
            count += 1;
            assert!(count <= 5);
            assert_eq!(
                bits.iter()
                    .filter(|&&b| s.lit_value(b) == Some(true))
                    .count(),
                1
            );
            let block: Vec<Lit> = bits
                .iter()
                .map(|&l| if s.lit_value(l).unwrap() { !l } else { l })
                .collect();
            s.add_clause(&block);
        }
        assert_eq!(count, 5);
    }

    #[test]
    fn at_most_k_counts_models() {
        // C(4,0)+C(4,1)+C(4,2) = 1+4+6 = 11 assignments with ≤ 2 ones.
        let mut cnf = CnfBuilder::new();
        let bits: Vec<Lit> = (0..4).map(|_| cnf.new_lit()).collect();
        cnf.at_most_k(&bits, 2);
        let mut s = cnf.into_solver();
        let mut count = 0;
        while s.solve() == SatResult::Sat {
            count += 1;
            assert!(count <= 11);
            let ones = bits
                .iter()
                .filter(|&&b| s.lit_value(b) == Some(true))
                .count();
            assert!(ones <= 2, "model has {ones} ones");
            let block: Vec<Lit> = bits
                .iter()
                .map(|&l| if s.lit_value(l).unwrap() { !l } else { l })
                .collect();
            s.add_clause(&block);
        }
        assert_eq!(count, 11);
    }

    #[test]
    fn at_least_k_counts_models() {
        // C(4,3)+C(4,4) = 4+1 = 5 assignments with ≥ 3 ones.
        let mut cnf = CnfBuilder::new();
        let bits: Vec<Lit> = (0..4).map(|_| cnf.new_lit()).collect();
        cnf.at_least_k(&bits, 3);
        let mut s = cnf.into_solver();
        let mut count = 0;
        while s.solve() == SatResult::Sat {
            count += 1;
            assert!(count <= 5);
            let ones = bits
                .iter()
                .filter(|&&b| s.lit_value(b) == Some(true))
                .count();
            assert!(ones >= 3);
            let block: Vec<Lit> = bits
                .iter()
                .map(|&l| if s.lit_value(l).unwrap() { !l } else { l })
                .collect();
            s.add_clause(&block);
        }
        assert_eq!(count, 5);
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
    #[should_panic(expected = "into_solver on a flushed CnfBuilder")]
    fn into_solver_refuses_a_flushed_builder() {
        let mut cnf = CnfBuilder::new();
        let a = cnf.new_lit();
        cnf.assert_lit(a);
        let mut solver = Solver::new();
        assert!(cnf.flush_into(&mut solver));
        assert_eq!((cnf.num_clauses(), cnf.pending_clauses()), (1, 0));
        let _ = cnf.into_solver();
    }

    #[test]
    fn constants_are_fixed() {
        let mut cnf = CnfBuilder::new();
        let t = cnf.lit_true();
        let f = cnf.lit_false();
        let mut s = cnf.into_solver();
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.lit_value(t), Some(true));
        assert_eq!(s.lit_value(f), Some(false));
    }
}
