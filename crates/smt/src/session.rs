//! Incremental solving sessions.
//!
//! A [`SolveSession`] amortizes the expensive tail of Algorithm 3 across a
//! *sequence* of related formulas: one persistent [`SatSolver`] accumulates
//! the Tseitin clauses (and learnt clauses) of every formula solved so far,
//! and one persistent [`SessionBlaster`] memoizes the `TermId → Lit`
//! translation so shared subterms bit-blast exactly once. Each query is then
//! an assumption-guarded incremental SAT call — the formula's root literal
//! *is* the assumption — instead of a cold solver construction.
//!
//! Soundness of reuse rests on two facts:
//!
//! 1. Every definitional clause emitted by the blaster is a full
//!    biconditional (gate output ⟺ gate function) or, for div/rem, a
//!    constraint with a solution for every input assignment. So the clauses
//!    of formula *A* never constrain the input variables of formula *B*:
//!    any model of *B* extends to the gate variables of *A* by evaluating
//!    the definitions. `tests/blast_exhaustive.rs` checks this at width 4
//!    for every operator, operand shape and input.
//! 2. Learnt clauses produced under assumptions are consequences of the
//!    permanent clause database alone — first-UIP resolution never resolves
//!    on decision (assumption) literals, it only negates them into the
//!    learnt clause. Retaining them across queries is therefore sound.
//!
//! Note what is *not* cached: path conditions. The session caches encodings
//! of formulas it is explicitly asked to solve, which is exactly the
//! paper's §3.2.2 discipline — see DESIGN.md, "Incremental sessions".

use crate::bitblast::SessionBlaster;
use crate::preprocess::preprocess;
use crate::sat::{SatBudget, SatOutcome, SatSolver};
use crate::solver::{Model, SatResult, SolveStats, SolverConfig};
use crate::term::{Sort, TermId, TermPool};
use std::collections::HashMap;
use std::time::Instant;

/// Cumulative statistics of a [`SolveSession`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SessionStats {
    /// Formulas solved through this session.
    pub queries: u64,
    /// Queries decided by preprocessing alone (no SAT call).
    pub preprocess_decided: u64,
    /// Definitional clauses pushed into the persistent solver so far.
    pub clauses_added: u64,
}

/// A persistent incremental solving context. See the module docs.
///
/// The session's memo tables are keyed by [`TermId`], so a session is tied
/// to one append-only [`TermPool`] epoch: callers that reset or swap their
/// pool must drop the session and start a new one.
#[derive(Debug)]
pub struct SolveSession {
    solver: SatSolver,
    blaster: SessionBlaster,
    /// Cumulative session statistics.
    pub stats: SessionStats,
}

impl Default for SolveSession {
    fn default() -> Self {
        SolveSession::new()
    }
}

impl SolveSession {
    /// Creates an empty session.
    pub fn new() -> SolveSession {
        SolveSession {
            solver: SatSolver::empty(),
            blaster: SessionBlaster::new(),
            stats: SessionStats::default(),
        }
    }

    /// Number of permanent (definitional) clauses in the session solver.
    pub fn permanent_clauses(&self) -> usize {
        self.solver.permanent_clauses()
    }

    /// Number of learnt clauses currently retained by the session solver.
    pub fn learnt_clauses(&self) -> usize {
        self.solver.learnt_clauses()
    }

    /// Total SAT conflicts across all queries in this session.
    pub fn conflicts(&self) -> u64 {
        self.solver.stats.conflicts
    }

    /// Number of CNF variables allocated so far.
    pub fn cnf_vars(&self) -> u32 {
        self.blaster.num_cnf_vars()
    }

    /// Solves `formula` incrementally. Mirrors
    /// [`crate::solver::smt_solve`] — preprocess, constant short-circuit,
    /// bit-blast, SAT — but the blast step reuses the session memo and the
    /// SAT step reuses the persistent solver, guarding the query with the
    /// formula's root literal as the sole assumption. Verdicts are identical
    /// to a fresh `smt_solve` whenever the budget does not expire (both
    /// procedures are complete decision procedures).
    ///
    /// # Panics
    ///
    /// Panics if `formula` is not boolean-sorted.
    pub fn solve_formula(
        &mut self,
        pool: &mut TermPool,
        formula: TermId,
        config: &SolverConfig,
    ) -> (SatResult, SolveStats) {
        assert_eq!(
            pool.sort(formula),
            Sort::Bool,
            "solve_formula: formula must be Bool"
        );
        self.stats.queries += 1;
        let start = Instant::now();
        let deadline = config.timeout.map(|t| start + t);
        let mut stats = SolveStats {
            size_before: pool.dag_size(formula),
            ..Default::default()
        };
        let processed = if config.skip_preprocessing {
            formula
        } else {
            let pre = preprocess(pool, formula);
            stats.preprocess_rounds = pre.rounds;
            pre.term
        };
        stats.size_after = pool.dag_size(processed);
        if let Some(b) = pool.as_bool_const(processed) {
            stats.preprocess_decided = true;
            self.stats.preprocess_decided += 1;
            stats.duration = start.elapsed();
            let result = if b {
                SatResult::Sat(Model::default())
            } else {
                SatResult::Unsat
            };
            return (result, stats);
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            stats.duration = start.elapsed();
            return (SatResult::Unknown, stats);
        }
        // Incremental blast: only subterms not seen in this session emit
        // new gates; the root literal doubles as the activation assumption.
        let root = self.blaster.blast_root(pool, processed);
        let drained = self.blaster.drain_into(&mut self.solver);
        self.stats.clauses_added += drained as u64;
        stats.cnf_clauses = drained;
        let budget = SatBudget {
            max_conflicts: config.max_conflicts,
            deadline,
        };
        let before = self.solver.stats;
        let outcome = self.solver.solve_under_assumptions(&[root], budget);
        stats.sat_conflicts = self.solver.stats.conflicts - before.conflicts;
        stats.sat_decisions = self.solver.stats.decisions - before.decisions;
        stats.duration = start.elapsed();
        let result = match outcome {
            SatOutcome::Sat(model) => {
                let mut values = HashMap::new();
                for v in pool.free_vars(processed) {
                    if let Some(val) = self.blaster.map().value(v, &model) {
                        values.insert(v, val);
                    }
                }
                SatResult::Sat(Model::from_values(values))
            }
            SatOutcome::Unsat => SatResult::Unsat,
            SatOutcome::Unknown => SatResult::Unknown,
        };
        (result, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::smt_solve;
    use crate::term::{BvOp, BvPred, Value};

    #[test]
    fn session_matches_fresh_solver_on_sequence() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Sort::Bv(8));
        let c3 = pool.bv_const(3, 8);
        let c10 = pool.bv_const(10, 8);
        let sum = pool.bv(BvOp::Add, x, c3);
        let f1 = pool.eq(sum, c10); // x = 7: sat
        let c11 = pool.bv_const(11, 8);
        let e2 = pool.eq(sum, c11);
        let f2 = pool.and2(f1, e2); // contradictory: unsat
        let sq = pool.bv(BvOp::Mul, x, x);
        let c4 = pool.bv_const(4, 8);
        let f3 = pool.eq(sq, c4); // sat

        let mut session = SolveSession::new();
        let cfg = SolverConfig::default();
        for &f in &[f1, f2, f3, f1] {
            let mut cold_pool = pool.clone();
            let (cold, _) = smt_solve(&mut cold_pool, f, &cfg);
            let (inc, _) = session.solve_formula(&mut pool, f, &cfg);
            assert_eq!(
                inc.is_sat(),
                cold.is_sat(),
                "sat disagreement on {f:?}: inc={inc:?} cold={cold:?}"
            );
            assert_eq!(inc.is_unsat(), cold.is_unsat(), "unsat disagreement");
            // NB: no model-eval check against the *original* formula here —
            // preprocessing may eliminate variables (see `Model` docs), in
            // which case the model only covers the surviving ones. The
            // skip_preprocessing tests below check models directly.
        }
        assert_eq!(session.stats.queries, 4);
    }

    #[test]
    fn unsat_under_assumption_does_not_poison_session() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Sort::Bv(8));
        let c1 = pool.bv_const(1, 8);
        let c2 = pool.bv_const(2, 8);
        let e1 = pool.eq(x, c1);
        let e2 = pool.eq(x, c2);
        // Defeat the constant-propagation preprocessor with a nonlinear
        // wrapper so the contradiction reaches the SAT layer.
        let sq = pool.bv(BvOp::Mul, x, x);
        let sq1 = pool.eq(sq, c1);
        let contradiction = pool.and(&[e1, e2, sq1]);
        let cfg = SolverConfig {
            skip_preprocessing: true,
            ..Default::default()
        };
        let mut session = SolveSession::new();
        let (r1, _) = session.solve_formula(&mut pool, contradiction, &cfg);
        assert!(r1.is_unsat());
        // The same session must still answer Sat for a satisfiable query.
        let (r2, _) = session.solve_formula(&mut pool, e1, &cfg);
        assert!(r2.is_sat(), "session poisoned by prior unsat: {r2:?}");
        let (r3, _) = session.solve_formula(&mut pool, contradiction, &cfg);
        assert!(r3.is_unsat());
    }

    #[test]
    fn shared_subterms_blast_once() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Sort::Bv(16));
        let y = pool.var("y", Sort::Bv(16));
        let prod = pool.bv(BvOp::Mul, x, y); // the expensive shared gate
        let c6 = pool.bv_const(6, 16);
        let f1 = pool.eq(prod, c6);
        let c12 = pool.bv_const(12, 16);
        let f2 = pool.eq(prod, c12);
        let cfg = SolverConfig {
            skip_preprocessing: true,
            ..Default::default()
        };
        let mut session = SolveSession::new();
        let (r1, s1) = session.solve_formula(&mut pool, f1, &cfg);
        assert!(r1.is_sat());
        let (r2, s2) = session.solve_formula(&mut pool, f2, &cfg);
        assert!(r2.is_sat());
        // Second query reuses the multiplier: it only emits the clauses of
        // the new equality, a small fraction of the first query's.
        assert!(
            s2.cnf_clauses * 4 < s1.cnf_clauses,
            "expected clause reuse: first={} second={}",
            s1.cnf_clauses,
            s2.cnf_clauses
        );
    }

    #[test]
    fn budget_exhaustion_returns_unknown_and_recovers() {
        let mut pool = TermPool::new();
        let x = pool.var("x", Sort::Bv(16));
        let y = pool.var("y", Sort::Bv(16));
        let prod = pool.bv(BvOp::Mul, x, y);
        let c = pool.bv_const(0x8001, 16);
        let two = pool.bv_const(2, 16);
        let f1 = pool.eq(prod, c);
        let xg = pool.pred(BvPred::Ult, two, x);
        let yg = pool.pred(BvPred::Ult, two, y);
        let hard = pool.and(&[f1, xg, yg]);
        let mut session = SolveSession::new();
        let tight = SolverConfig {
            max_conflicts: Some(1),
            skip_preprocessing: true,
            ..Default::default()
        };
        let (r1, _) = session.solve_formula(&mut pool, hard, &tight);
        // Either solved within one conflict or unknown — never wrong.
        if let SatResult::Sat(m) = &r1 {
            assert_eq!(m.eval(&pool, hard), Value::Bool(true));
        }
        // A later call with a real budget must not be starved by the
        // cumulative conflict count of the first call.
        let roomy = SolverConfig {
            skip_preprocessing: true,
            ..Default::default()
        };
        let (r2, _) = session.solve_formula(&mut pool, hard, &roomy);
        assert!(r2.is_sat() || r2.is_unsat(), "budget not per-call: {r2:?}");
    }
}
