//! The CDCL solver core.
//!
//! A conventional MiniSat-style architecture: clauses live in a slotted
//! arena, propagation uses two watched literals with a blocker fast path,
//! conflicts are analyzed to the first unique implication point (1UIP) with
//! reason-based clause minimization, branching uses exponential VSIDS with
//! phase saving, and restarts follow the Luby sequence.

use crate::types::{LBool, Lit, Var};

/// Index of a clause in the solver's arena.
type ClauseRef = u32;
const CREF_UNDEF: ClauseRef = u32::MAX;

#[derive(Debug)]
struct Clause {
    lits: Vec<Lit>,
    learnt: bool,
    deleted: bool,
    activity: f64,
}

#[derive(Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    /// Some other literal of the clause; if it is already true the clause is
    /// satisfied and the watcher list walk can skip loading the clause.
    blocker: Lit,
}

/// Result of a [`Solver::solve`] call.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SatResult {
    /// A satisfying assignment was found; read it with [`Solver::value`].
    Sat,
    /// The formula is unsatisfiable.
    Unsat,
}

/// Running counters and a memory estimate for a [`Solver`].
///
/// `memory_bytes` approximates the heap owned by the solver (clause arena,
/// watch lists, per-variable metadata); BEER's Figure 6 reports it as the
/// SAT-solver memory usage.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverStats {
    /// Number of variables created.
    pub vars: usize,
    /// Number of problem (non-learnt) clauses added.
    pub clauses: usize,
    /// Number of learnt clauses currently in the database.
    pub learnts: usize,
    /// Total conflicts encountered.
    pub conflicts: u64,
    /// Total decisions made.
    pub decisions: u64,
    /// Total literal propagations.
    pub propagations: u64,
    /// Total restarts performed.
    pub restarts: u64,
    /// Approximate heap memory owned by the solver, in bytes.
    pub memory_bytes: usize,
}

/// A CDCL SAT solver.
///
/// Clauses can be added at any point between `solve()` calls; the solver
/// automatically backtracks to the root level first. This supports the
/// model-enumeration loop BEER uses to check solution uniqueness (§5.3 of
/// the paper): solve, block the model, solve again.
///
/// # Examples
///
/// ```
/// use beer_sat::{SatResult, Solver};
///
/// let mut s = Solver::new();
/// let a = s.new_var().positive();
/// let b = s.new_var().positive();
/// s.add_clause(&[a, b]);
/// s.add_clause(&[!a]);
/// assert_eq!(s.solve(), SatResult::Sat);
/// assert_eq!(s.lit_value(b), Some(true));
/// s.add_clause(&[!b]);
/// assert_eq!(s.solve(), SatResult::Unsat);
/// ```
pub struct Solver {
    clauses: Vec<Clause>,
    free_list: Vec<ClauseRef>,
    learnt_refs: Vec<ClauseRef>,
    watches: Vec<Vec<Watcher>>,

    assigns: Vec<LBool>,
    polarity: Vec<bool>,
    level: Vec<u32>,
    reason: Vec<ClauseRef>,

    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,

    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    order_heap: IndexedHeap,

    seen: Vec<bool>,
    analyze_toclear: Vec<Var>,

    /// False once a top-level conflict is derived; the instance is then
    /// permanently unsatisfiable.
    ok: bool,

    stats: SolverStats,
    max_learnts_base: f64,
}

impl Default for Solver {
    fn default() -> Self {
        Self::new()
    }
}

impl Solver {
    /// Creates an empty solver.
    pub fn new() -> Self {
        Solver {
            clauses: Vec::new(),
            free_list: Vec::new(),
            learnt_refs: Vec::new(),
            watches: Vec::new(),
            assigns: Vec::new(),
            polarity: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            order_heap: IndexedHeap::new(),
            seen: Vec::new(),
            analyze_toclear: Vec::new(),
            ok: true,
            stats: SolverStats::default(),
            max_learnts_base: 4000.0,
        }
    }

    /// Creates a fresh variable and returns it.
    pub fn new_var(&mut self) -> Var {
        let v = Var::new(self.assigns.len());
        self.assigns.push(LBool::Undef);
        self.polarity.push(false);
        self.level.push(0);
        self.reason.push(CREF_UNDEF);
        self.activity.push(0.0);
        self.seen.push(false);
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.order_heap.insert(v, &self.activity);
        self.stats.vars += 1;
        v
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.assigns.len()
    }

    /// Current value of a variable under the last model (after a `Sat`
    /// result) or the current partial assignment.
    pub fn value(&self, v: Var) -> Option<bool> {
        self.assigns[v.index()].to_option()
    }

    /// Current value of a literal (see [`Solver::value`]).
    pub fn lit_value(&self, l: Lit) -> Option<bool> {
        self.value(l.var())
            .map(|b| if l.is_positive() { b } else { !b })
    }

    /// Returns `true` if no top-level conflict has been derived yet.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Solver statistics, with a current memory estimate.
    pub fn stats(&self) -> SolverStats {
        let mut s = self.stats;
        s.memory_bytes = self.estimate_memory();
        s
    }

    fn estimate_memory(&self) -> usize {
        use std::mem::size_of;
        let mut bytes = 0usize;
        bytes += self.clauses.capacity() * size_of::<Clause>();
        for c in &self.clauses {
            bytes += c.lits.capacity() * size_of::<Lit>();
        }
        bytes += self.watches.capacity() * size_of::<Vec<Watcher>>();
        for w in &self.watches {
            bytes += w.capacity() * size_of::<Watcher>();
        }
        bytes += self.assigns.capacity() * size_of::<LBool>();
        bytes += self.polarity.capacity();
        bytes += self.level.capacity() * 4;
        bytes += self.reason.capacity() * 4;
        bytes += self.trail.capacity() * size_of::<Lit>();
        bytes += self.activity.capacity() * 8;
        bytes += self.order_heap.heap.capacity() * size_of::<Var>();
        bytes += self.order_heap.indices.capacity() * 4;
        bytes += self.seen.capacity();
        bytes
    }

    #[inline]
    fn lit_val(&self, l: Lit) -> LBool {
        let v = self.assigns[l.var().index()];
        if l.is_positive() {
            v
        } else {
            v.negate()
        }
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// Adds a clause. Returns `false` if the formula became trivially
    /// unsatisfiable at the root level.
    ///
    /// Duplicate literals are removed, tautologies are dropped, and
    /// literals already false at the root level are stripped. May be called
    /// between `solve()` invocations (the solver backtracks to the root).
    ///
    /// # Panics
    ///
    /// Panics if a literal refers to a variable that was never created.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        if !self.ok {
            return false;
        }
        self.cancel_until(0);

        let mut ls: Vec<Lit> = lits.to_vec();
        for &l in &ls {
            assert!(
                l.var().index() < self.num_vars(),
                "literal {l:?} refers to an unknown variable"
            );
        }
        ls.sort_unstable();
        ls.dedup();
        // Tautology or satisfied-at-root check, then strip false-at-root lits.
        let mut i = 0;
        while i + 1 < ls.len() {
            if ls[i].var() == ls[i + 1].var() {
                return true; // contains l and ¬l: tautology
            }
            i += 1;
        }
        let mut filtered = Vec::with_capacity(ls.len());
        for &l in &ls {
            match self.lit_val(l) {
                LBool::True => return true, // already satisfied forever
                LBool::False => {}          // root-level false: drop
                LBool::Undef => filtered.push(l),
            }
        }
        match filtered.len() {
            0 => {
                self.ok = false;
                false
            }
            1 => {
                self.unchecked_enqueue(filtered[0], CREF_UNDEF);
                if self.propagate().is_some() {
                    self.ok = false;
                }
                self.ok
            }
            _ => {
                self.attach_new_clause(filtered, false);
                self.stats.clauses += 1;
                true
            }
        }
    }

    fn attach_new_clause(&mut self, lits: Vec<Lit>, learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let clause = Clause {
            lits,
            learnt,
            deleted: false,
            activity: 0.0,
        };
        let cref = if let Some(slot) = self.free_list.pop() {
            self.clauses[slot as usize] = clause;
            slot
        } else {
            self.clauses.push(clause);
            (self.clauses.len() - 1) as ClauseRef
        };
        let (l0, l1) = {
            let c = &self.clauses[cref as usize];
            (c.lits[0], c.lits[1])
        };
        self.watches[(!l0).code()].push(Watcher { cref, blocker: l1 });
        self.watches[(!l1).code()].push(Watcher { cref, blocker: l0 });
        if learnt {
            self.learnt_refs.push(cref);
            self.stats.learnts += 1;
        }
        cref
    }

    #[inline]
    fn unchecked_enqueue(&mut self, l: Lit, from: ClauseRef) {
        debug_assert_eq!(self.lit_val(l), LBool::Undef);
        let vi = l.var().index();
        self.assigns[vi] = LBool::from_bool(l.is_positive());
        self.level[vi] = self.decision_level();
        self.reason[vi] = from;
        self.trail.push(l);
    }

    /// Propagates all enqueued assignments. Returns the conflicting clause
    /// if a conflict is found.
    fn propagate(&mut self) -> Option<ClauseRef> {
        let mut conflict = None;
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;

            let mut ws = std::mem::take(&mut self.watches[p.code()]);
            let mut i = 0;
            let mut j = 0;
            'watchers: while i < ws.len() {
                let w = ws[i];
                i += 1;
                // Blocker fast path.
                if self.lit_val(w.blocker) == LBool::True {
                    ws[j] = w;
                    j += 1;
                    continue;
                }
                let cref = w.cref;
                if self.clauses[cref as usize].deleted {
                    continue; // drop watcher of a deleted clause
                }
                // Make sure the false literal (¬p) is at position 1.
                let false_lit = !p;
                {
                    let c = &mut self.clauses[cref as usize];
                    if c.lits[0] == false_lit {
                        c.lits.swap(0, 1);
                    }
                    debug_assert_eq!(c.lits[1], false_lit);
                }
                let first = self.clauses[cref as usize].lits[0];
                let w_new = Watcher {
                    cref,
                    blocker: first,
                };
                if first != w.blocker && self.lit_val(first) == LBool::True {
                    ws[j] = w_new;
                    j += 1;
                    continue;
                }
                // Look for a new literal to watch.
                let len = self.clauses[cref as usize].lits.len();
                for k in 2..len {
                    let lk = self.clauses[cref as usize].lits[k];
                    if self.lit_val(lk) != LBool::False {
                        let c = &mut self.clauses[cref as usize];
                        c.lits.swap(1, k);
                        self.watches[(!lk).code()].push(w_new);
                        continue 'watchers;
                    }
                }
                // Clause is unit or conflicting.
                ws[j] = w_new;
                j += 1;
                if self.lit_val(first) == LBool::False {
                    // Conflict: copy back remaining watchers and stop.
                    while i < ws.len() {
                        ws[j] = ws[i];
                        j += 1;
                        i += 1;
                    }
                    self.qhead = self.trail.len();
                    conflict = Some(cref);
                } else {
                    self.unchecked_enqueue(first, cref);
                }
            }
            ws.truncate(j);
            debug_assert!(self.watches[p.code()].is_empty());
            self.watches[p.code()] = ws;
            if conflict.is_some() {
                break;
            }
        }
        conflict
    }

    /// Analyzes a conflict to the first UIP; returns the learnt clause
    /// (asserting literal first) and the backtrack level.
    fn analyze(&mut self, mut confl: ClauseRef) -> (Vec<Lit>, u32) {
        let mut learnt: Vec<Lit> = vec![Lit::from_code(0)]; // placeholder
        let mut path_c: u32 = 0;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();

        loop {
            debug_assert_ne!(confl, CREF_UNDEF, "reason missing during analyze");
            if self.clauses[confl as usize].learnt {
                self.bump_clause_activity(confl);
            }
            let start = usize::from(p.is_some());
            let clen = self.clauses[confl as usize].lits.len();
            for k in start..clen {
                let q = self.clauses[confl as usize].lits[k];
                let qv = q.var();
                if !self.seen[qv.index()] && self.level[qv.index()] > 0 {
                    self.bump_var_activity(qv);
                    self.seen[qv.index()] = true;
                    if self.level[qv.index()] >= self.decision_level() {
                        path_c += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            p = Some(pl);
            confl = self.reason[pl.var().index()];
            self.seen[pl.var().index()] = false;
            path_c -= 1;
            if path_c == 0 {
                break;
            }
        }
        learnt[0] = !p.expect("1UIP literal");

        // Reason-based minimization: drop literals implied by the rest.
        self.analyze_toclear.clear();
        for l in &learnt {
            self.analyze_toclear.push(l.var());
        }
        for l in &learnt[1..] {
            self.seen[l.var().index()] = true;
        }
        let mut minimized = Vec::with_capacity(learnt.len());
        minimized.push(learnt[0]);
        for &l in &learnt[1..] {
            if !self.literal_is_redundant(l) {
                minimized.push(l);
            }
        }
        for v in &self.analyze_toclear {
            self.seen[v.index()] = false;
        }
        let learnt = minimized;

        // Backtrack level: highest level below the current one.
        let bt = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            self.level[learnt[max_i].var().index()]
        };
        let mut learnt = learnt;
        if learnt.len() > 1 {
            // Put a literal of the backtrack level in position 1 (second watch).
            let mut max_i = 1;
            for i in 2..learnt.len() {
                if self.level[learnt[i].var().index()] > self.level[learnt[max_i].var().index()] {
                    max_i = i;
                }
            }
            learnt.swap(1, max_i);
        }
        (learnt, bt)
    }

    /// A literal is redundant in the learnt clause if its reason clause
    /// consists only of literals already in the clause (or at level 0).
    fn literal_is_redundant(&self, l: Lit) -> bool {
        let r = self.reason[l.var().index()];
        if r == CREF_UNDEF {
            return false;
        }
        let c = &self.clauses[r as usize];
        for &q in &c.lits[1..] {
            let qi = q.var().index();
            if !self.seen[qi] && self.level[qi] > 0 {
                return false;
            }
        }
        true
    }

    fn cancel_until(&mut self, target: u32) {
        if self.decision_level() <= target {
            return;
        }
        let bound = self.trail_lim[target as usize];
        while self.trail.len() > bound {
            let l = self.trail.pop().expect("trail non-empty");
            let vi = l.var().index();
            self.polarity[vi] = l.is_positive();
            self.assigns[vi] = LBool::Undef;
            self.reason[vi] = CREF_UNDEF;
            self.order_heap.insert(l.var(), &self.activity);
        }
        self.qhead = bound;
        self.trail_lim.truncate(target as usize);
    }

    fn bump_var_activity(&mut self, v: Var) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        self.order_heap.update(v, &self.activity);
    }

    fn bump_clause_activity(&mut self, cref: ClauseRef) {
        let c = &mut self.clauses[cref as usize];
        c.activity += self.cla_inc;
        if c.activity > 1e20 {
            for r in &self.learnt_refs {
                self.clauses[*r as usize].activity *= 1e-20;
            }
            self.cla_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= 0.95;
        self.cla_inc /= 0.999;
    }

    fn pick_branch_var(&mut self) -> Option<Var> {
        while let Some(v) = self.order_heap.pop(&self.activity) {
            if self.assigns[v.index()] == LBool::Undef {
                return Some(v);
            }
        }
        None
    }

    /// Removes the worst half of the learnt clauses (by activity), keeping
    /// clauses that are the reason for a current assignment and binary
    /// clauses.
    fn reduce_db(&mut self) {
        let mut refs = std::mem::take(&mut self.learnt_refs);
        refs.sort_by(|&a, &b| {
            let ca = &self.clauses[a as usize];
            let cb = &self.clauses[b as usize];
            ca.activity
                .partial_cmp(&cb.activity)
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let limit = refs.len() / 2;
        let mut kept = Vec::with_capacity(refs.len());
        for (i, &cref) in refs.iter().enumerate() {
            let keep = {
                let c = &self.clauses[cref as usize];
                i >= limit || c.lits.len() == 2 || self.is_locked(cref)
            };
            if keep {
                kept.push(cref);
            } else {
                // Detach both watchers eagerly: the slot is recycled, so no
                // stale watcher may keep pointing at it.
                let (l0, l1) = {
                    let c = &self.clauses[cref as usize];
                    (c.lits[0], c.lits[1])
                };
                self.watches[(!l0).code()].retain(|w| w.cref != cref);
                self.watches[(!l1).code()].retain(|w| w.cref != cref);
                self.clauses[cref as usize].deleted = true;
                self.clauses[cref as usize].lits = Vec::new();
                self.free_list.push(cref);
                self.stats.learnts -= 1;
            }
        }
        self.learnt_refs = kept;
    }

    fn is_locked(&self, cref: ClauseRef) -> bool {
        let c = &self.clauses[cref as usize];
        if c.lits.is_empty() {
            return false;
        }
        let l0 = c.lits[0];
        self.lit_val(l0) == LBool::True && self.reason[l0.var().index()] == cref
    }

    /// Solves the current formula.
    ///
    /// After `Sat`, the full model is available through [`Solver::value`] /
    /// [`Solver::lit_value`] until the next clause is added. After `Unsat`
    /// the instance stays unsatisfiable forever (clause addition included).
    pub fn solve(&mut self) -> SatResult {
        self.solve_with_assumptions(&[])
    }

    /// Solves under temporary assumptions: literals treated as decisions
    /// that the search may never undo. `Unsat` here means *unsatisfiable
    /// under the assumptions*; the formula itself stays usable (unlike an
    /// `Unsat` from [`Solver::solve`], which is permanent).
    ///
    /// # Panics
    ///
    /// Panics if an assumption refers to an unknown variable.
    pub fn solve_with_assumptions(&mut self, assumptions: &[Lit]) -> SatResult {
        for &a in assumptions {
            assert!(
                a.var().index() < self.num_vars(),
                "assumption {a:?} refers to an unknown variable"
            );
        }
        if !self.ok {
            return SatResult::Unsat;
        }
        self.cancel_until(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SatResult::Unsat;
        }

        let mut restarts: u64 = 0;
        let restart_base: u64 = 100;
        let mut conflicts_until_restart = restart_base * luby(restarts);
        let mut max_learnts = (self.max_learnts_base + 0.3 * self.stats.clauses as f64).max(1000.0);

        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatResult::Unsat;
                }
                let (learnt, bt) = self.analyze(confl);
                self.cancel_until(bt);
                if learnt.len() == 1 {
                    self.unchecked_enqueue(learnt[0], CREF_UNDEF);
                } else {
                    let asserting = learnt[0];
                    let cref = self.attach_new_clause(learnt, true);
                    self.bump_clause_activity(cref);
                    self.unchecked_enqueue(asserting, cref);
                }
                self.decay_activities();
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
            } else {
                if conflicts_until_restart == 0 {
                    restarts += 1;
                    self.stats.restarts += 1;
                    conflicts_until_restart = restart_base * luby(restarts);
                    self.cancel_until(0);
                    continue;
                }
                if self.learnt_refs.len() as f64 >= max_learnts + self.trail.len() as f64 {
                    self.reduce_db();
                    max_learnts *= 1.1;
                }
                // Re-take any assumptions the last backtrack undid before
                // making free decisions (MiniSat-style assumption levels).
                let mut assumed = false;
                while (self.decision_level() as usize) < assumptions.len() {
                    let a = assumptions[self.decision_level() as usize];
                    match self.lit_val(a) {
                        LBool::True => {
                            // Already satisfied: open a dummy level so the
                            // index keeps advancing.
                            self.trail_lim.push(self.trail.len());
                        }
                        LBool::False => {
                            // The formula forces ¬a: UNSAT under assumptions.
                            self.cancel_until(0);
                            return SatResult::Unsat;
                        }
                        LBool::Undef => {
                            self.trail_lim.push(self.trail.len());
                            self.unchecked_enqueue(a, CREF_UNDEF);
                            assumed = true;
                            break;
                        }
                    }
                }
                if assumed {
                    continue;
                }
                match self.pick_branch_var() {
                    None => return SatResult::Sat,
                    Some(v) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        let phase = self.polarity[v.index()];
                        self.unchecked_enqueue(v.lit(phase), CREF_UNDEF);
                    }
                }
            }
        }
    }
}

fn luby(mut x: u64) -> u64 {
    // Find the finite subsequence that contains index x, then the position
    // of x within it (MiniSat's formulation, base 2).
    let mut size: u64 = 1;
    let mut seq: u32 = 0;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) >> 1;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

/// Max-heap over variables ordered by activity, with a position index for
/// O(log n) increase-key.
struct IndexedHeap {
    heap: Vec<Var>,
    indices: Vec<i32>,
}

impl IndexedHeap {
    fn new() -> Self {
        IndexedHeap {
            heap: Vec::new(),
            indices: Vec::new(),
        }
    }

    fn contains(&self, v: Var) -> bool {
        v.index() < self.indices.len() && self.indices[v.index()] >= 0
    }

    fn insert(&mut self, v: Var, act: &[f64]) {
        if self.indices.len() <= v.index() {
            self.indices.resize(v.index() + 1, -1);
        }
        if self.contains(v) {
            return;
        }
        self.indices[v.index()] = self.heap.len() as i32;
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, act);
    }

    fn update(&mut self, v: Var, act: &[f64]) {
        if self.contains(v) {
            let i = self.indices[v.index()] as usize;
            self.sift_up(i, act);
        }
    }

    fn pop(&mut self, act: &[f64]) -> Option<Var> {
        if self.heap.is_empty() {
            return None;
        }
        let top = self.heap[0];
        let last = self.heap.pop().expect("non-empty");
        self.indices[top.index()] = -1;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.indices[last.index()] = 0;
            self.sift_down(0, act);
        }
        Some(top)
    }

    fn sift_up(&mut self, mut i: usize, act: &[f64]) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if act[self.heap[i].index()] <= act[self.heap[parent].index()] {
                break;
            }
            self.swap(i, parent);
            i = parent;
        }
    }

    fn sift_down(&mut self, mut i: usize, act: &[f64]) {
        loop {
            let l = 2 * i + 1;
            let r = 2 * i + 2;
            let mut best = i;
            if l < self.heap.len() && act[self.heap[l].index()] > act[self.heap[best].index()] {
                best = l;
            }
            if r < self.heap.len() && act[self.heap[r].index()] > act[self.heap[best].index()] {
                best = r;
            }
            if best == i {
                break;
            }
            self.swap(i, best);
            i = best;
        }
    }

    fn swap(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.indices[self.heap[a].index()] = a as i32;
        self.indices[self.heap[b].index()] = b as i32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(solver: &mut Solver, n: usize) -> Vec<Lit> {
        (0..n).map(|_| solver.new_var().positive()).collect()
    }

    #[test]
    fn empty_formula_is_sat() {
        let mut s = Solver::new();
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn unit_propagation_chain() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause(&[v[0]]);
        s.add_clause(&[!v[0], v[1]]);
        s.add_clause(&[!v[1], v[2]]);
        s.add_clause(&[!v[2], v[3]]);
        assert_eq!(s.solve(), SatResult::Sat);
        for l in &v {
            assert_eq!(s.lit_value(*l), Some(true));
        }
    }

    #[test]
    fn direct_contradiction_is_unsat() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        assert!(s.add_clause(&[a]));
        assert!(!s.add_clause(&[!a]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    fn tautologies_are_ignored() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        assert!(s.add_clause(&[a, !a]));
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn duplicate_literals_are_merged() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        s.add_clause(&[a, a, b, b]);
        s.add_clause(&[!a]);
        s.add_clause(&[!b, !a]);
        assert_eq!(s.solve(), SatResult::Sat);
        assert_eq!(s.lit_value(b), Some(true));
    }

    #[test]
    fn simple_conflict_requires_learning() {
        // (a ∨ b) ∧ (a ∨ ¬b) ∧ (¬a ∨ c) ∧ (¬a ∨ ¬c) is UNSAT.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[v[0], !v[1]]);
        s.add_clause(&[!v[0], v[2]]);
        s.add_clause(&[!v[0], !v[2]]);
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole_3_into_2_is_unsat() {
        // p[i][j]: pigeon i in hole j. Each pigeon somewhere; no two share.
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..3).map(|_| lits(&mut s, 2)).collect();
        for row in &p {
            s.add_clause(row);
        }
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    s.add_clause(&[!p[i1][j], !p[i2][j]]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn pigeonhole_5_into_4_is_unsat() {
        let n = 5;
        let mut s = Solver::new();
        let p: Vec<Vec<Lit>> = (0..n).map(|_| lits(&mut s, n - 1)).collect();
        for row in &p {
            s.add_clause(row);
        }
        for j in 0..n - 1 {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    s.add_clause(&[!p[i1][j], !p[i2][j]]);
                }
            }
        }
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(s.stats().conflicts > 0);
    }

    #[test]
    fn incremental_solving_with_blocking_clauses() {
        // 3 free variables: enumerate all 8 models via blocking.
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[v[0], !v[0]]); // no-op to make the formula non-empty
        let mut count = 0;
        while s.solve() == SatResult::Sat {
            count += 1;
            assert!(count <= 8, "more models than the space allows");
            let block: Vec<Lit> = v
                .iter()
                .map(|&l| {
                    if s.lit_value(l).expect("assigned") {
                        !l
                    } else {
                        l
                    }
                })
                .collect();
            s.add_clause(&block);
        }
        assert_eq!(count, 8);
    }

    #[test]
    fn model_respects_all_clauses() {
        // Random-ish structured instance: a chain of implications + XOR-like
        // constraints; verify the returned model satisfies every clause.
        let mut s = Solver::new();
        let v = lits(&mut s, 8);
        let clauses: Vec<Vec<Lit>> = vec![
            vec![v[0], v[1], v[2]],
            vec![!v[0], v[3]],
            vec![!v[1], v[4]],
            vec![!v[2], v[5]],
            vec![!v[3], !v[4]],
            vec![!v[5], v[6]],
            vec![v[6], v[7]],
            vec![!v[6], !v[7]],
        ];
        for c in &clauses {
            s.add_clause(c);
        }
        assert_eq!(s.solve(), SatResult::Sat);
        for c in &clauses {
            assert!(
                c.iter().any(|&l| s.lit_value(l) == Some(true)),
                "clause {c:?} unsatisfied"
            );
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let expect = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..expect.len() as u64).map(luby).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn stats_track_activity() {
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[!v[0], v[2]]);
        s.solve();
        let st = s.stats();
        assert_eq!(st.vars, 4);
        assert_eq!(st.clauses, 2);
        assert!(st.memory_bytes > 0);
    }

    #[test]
    fn assumptions_restrict_without_committing() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[v[0], v[1], v[2]]);
        // Assume everything false except nothing: UNSAT under assumptions.
        assert_eq!(
            s.solve_with_assumptions(&[!v[0], !v[1], !v[2]]),
            SatResult::Unsat
        );
        // But the formula itself is still satisfiable.
        assert_eq!(s.solve(), SatResult::Sat);
        // And different assumptions steer the model.
        assert_eq!(s.solve_with_assumptions(&[!v[0], !v[1]]), SatResult::Sat);
        assert_eq!(s.lit_value(v[2]), Some(true));
    }

    #[test]
    fn contradictory_assumptions_are_unsat() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        s.add_clause(&[a, b]);
        assert_eq!(s.solve_with_assumptions(&[a, !a]), SatResult::Unsat);
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn assumptions_already_implied_are_fine() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        s.add_clause(&[a]);
        s.add_clause(&[!a, b]);
        assert_eq!(s.solve_with_assumptions(&[a, b]), SatResult::Sat);
        assert_eq!(s.lit_value(a), Some(true));
        assert_eq!(s.lit_value(b), Some(true));
    }

    #[test]
    fn assumption_driven_enumeration_partitions_models() {
        // Models with x0=T plus models with x0=F must equal all models.
        let mut s = Solver::new();
        let v = lits(&mut s, 4);
        s.add_clause(&[v[0], v[1]]);
        s.add_clause(&[v[2], v[3]]);
        let count_under = |s: &mut Solver, assumption: Lit| -> usize {
            let mut blocked: Vec<Vec<Lit>> = Vec::new();
            let mut count = 0;
            while s.solve_with_assumptions(&[assumption]) == SatResult::Sat {
                count += 1;
                assert!(count <= 16);
                let block: Vec<Lit> = v
                    .iter()
                    .map(|&l| if s.lit_value(l).unwrap() { !l } else { l })
                    .collect();
                blocked.push(block.clone());
                s.add_clause(&block);
            }
            count
        };
        let with_true = count_under(&mut s, v[0]);
        let with_false = count_under(&mut s, !v[0]);
        // (x0∨x1)∧(x2∨x3) has 9 models over 4 vars.
        assert_eq!(with_true + with_false, 9);
    }

    #[test]
    fn unsat_stays_unsat_after_more_clauses() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let b = s.new_var().positive();
        s.add_clause(&[a]);
        s.add_clause(&[!a]);
        assert_eq!(s.solve(), SatResult::Unsat);
        assert!(!s.add_clause(&[b]));
        assert_eq!(s.solve(), SatResult::Unsat);
    }

    /// Counts the models of `v` under a fresh guard, blocking each with
    /// `¬guard ∨ …`, then retracts the blocks by asserting `¬guard`.
    fn count_guarded(s: &mut Solver, v: &[Lit]) -> usize {
        let vars: Vec<Var> = v.iter().map(|l| l.var()).collect();
        crate::enumerate::guarded(s, &vars, usize::MAX, |_| {})
    }

    #[test]
    fn guarded_blocking_is_retractable() {
        let mut s = Solver::new();
        let v = lits(&mut s, 2);
        s.add_clause(&[v[0], v[1]]);
        for _round in 0..3 {
            assert_eq!(count_guarded(&mut s, &v), 3, "every round re-enumerates");
        }
        assert_eq!(s.solve(), SatResult::Sat);
    }

    #[test]
    fn permanent_clauses_narrow_later_guarded_rounds() {
        let mut s = Solver::new();
        let v = lits(&mut s, 3);
        s.add_clause(&[v[0], v[1], v[2]]);
        assert_eq!(count_guarded(&mut s, &v), 7);
        // A permanent constraint added between rounds takes effect...
        s.add_clause(&[!v[0]]);
        assert_eq!(count_guarded(&mut s, &v), 3);
        // ...and more constraints keep narrowing.
        s.add_clause(&[!v[1]]);
        assert_eq!(count_guarded(&mut s, &v), 1);
    }

    #[test]
    fn guarded_unsat_does_not_poison_the_solver() {
        let mut s = Solver::new();
        let a = s.new_var().positive();
        let guard = s.new_var().positive();
        assert!(s.add_clause(&[!guard, a]));
        assert!(s.add_clause(&[!guard, !a]));
        assert_eq!(s.solve_with_assumptions(&[guard]), SatResult::Unsat);
        assert!(
            s.is_ok(),
            "UNSAT under the guard alone is not a root conflict"
        );
        assert!(s.add_clause(&[!guard]));
        assert_eq!(s.solve(), SatResult::Sat);
    }
}
