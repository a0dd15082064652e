//! The end-to-end SMT pipeline of Algorithm 3.
//!
//! `smt_solve(φ)`: preprocess (§4's pass list, [`crate::preprocess`]); if
//! the result is a constant, answer immediately — the paper reports 21% of
//! its 310k instances are decided here; otherwise bit-blast
//! ([`crate::bitblast`]) and run the CDCL SAT solver ([`crate::sat`]).
//! Every call carries a budget mirroring the paper's 10-second per-query
//! limit.

use crate::bitblast::blast;
use crate::egraph::{EGraphConfig, EGraphStats};
use crate::preprocess::preprocess_ext;
use crate::sat::{SatBudget, SatOutcome, SatSolver};
use crate::term::{Sort, TermId, TermPool, Value, VarIdx};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Configuration of one solver call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverConfig {
    /// Wall-clock limit for the whole call (preprocessing + SAT).
    pub timeout: Option<Duration>,
    /// Conflict limit handed to the SAT backend.
    pub max_conflicts: Option<u64>,
    /// Skip the preprocessing phase entirely (used to model a solver
    /// deprived of the paper's optimizations in ablations).
    pub skip_preprocessing: bool,
    /// E-graph simplification leg of preprocessing (equality saturation +
    /// cost-based extraction, [`crate::egraph`]).
    pub egraph: EGraphConfig,
}

impl SolverConfig {
    /// The absolute deadline implied by [`SolverConfig::timeout`], anchored
    /// at `start`. Engines compute this once at the top of `check_paths` so
    /// the budget covers slicing / translation / instantiation too, not
    /// just the final SMT query.
    pub fn deadline_from(&self, start: Instant) -> Option<Instant> {
        self.timeout.map(|t| start + t)
    }

    /// A copy of this config whose timeout is shrunk to the wall-clock
    /// remaining until `deadline`. Returns `None` when the deadline has
    /// already passed — the caller must degrade to an unknown verdict
    /// instead of starting the query.
    pub fn with_remaining(&self, deadline: Option<Instant>) -> Option<SolverConfig> {
        match deadline {
            None => Some(*self),
            Some(d) => {
                let now = Instant::now();
                if now >= d {
                    None
                } else {
                    Some(SolverConfig {
                        timeout: Some(d - now),
                        ..*self
                    })
                }
            }
        }
    }
}

/// `true` once `deadline` (if any) has passed. Polled inside engine
/// instantiation loops so a stuck query degrades instead of stalling.
pub fn deadline_expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// A satisfying assignment for the *preprocessed* formula.
///
/// Variables eliminated during preprocessing (e.g. unconstrained ones) are
/// absent; by construction some value for them exists, but it is not
/// reconstructed. Bug-finding only consumes the sat/unsat verdict, so this
/// is sufficient — and it is exactly what the fused design needs.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    values: HashMap<VarIdx, u64>,
}

impl Model {
    /// Builds a model from a variable → value map (used by the incremental
    /// session pipeline; the cold pipeline constructs it directly).
    pub(crate) fn from_values(values: HashMap<VarIdx, u64>) -> Model {
        Model { values }
    }

    /// The value assigned to `v`, if it survived preprocessing.
    pub fn value(&self, v: VarIdx) -> Option<u64> {
        self.values.get(&v).copied()
    }

    /// Number of assigned variables.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the model assigns no variables.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Evaluates a term under this model (unassigned variables read as 0).
    pub fn eval(&self, pool: &TermPool, t: TermId) -> Value {
        pool.eval(t, &self.values)
    }
}

/// The verdict of a solver call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// Budget exhausted.
    Unknown,
}

impl SatResult {
    /// `true` for [`SatResult::Sat`].
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// `true` for [`SatResult::Unsat`].
    pub fn is_unsat(&self) -> bool {
        matches!(self, SatResult::Unsat)
    }
}

/// Statistics of one solver call (feeds the Fig. 11 harness).
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveStats {
    /// Whether preprocessing alone decided the query (no bit-blasting).
    pub preprocess_decided: bool,
    /// Fixpoint rounds spent in preprocessing.
    pub preprocess_rounds: u32,
    /// DAG size of the formula before preprocessing.
    pub size_before: usize,
    /// DAG size after preprocessing.
    pub size_after: usize,
    /// CNF clauses produced by bit-blasting (0 when decided early).
    pub cnf_clauses: usize,
    /// SAT conflicts.
    pub sat_conflicts: u64,
    /// SAT decisions.
    pub sat_decisions: u64,
    /// Total wall-clock duration of the call.
    pub duration: Duration,
    /// E-graph saturation counters (zeroed when the leg is disabled).
    pub egraph: EGraphStats,
}

/// Solves `formula` (Algorithm 3). Returns the verdict and call statistics.
///
/// # Panics
///
/// Panics if `formula` is not boolean-sorted.
pub fn smt_solve(
    pool: &mut TermPool,
    formula: TermId,
    config: &SolverConfig,
) -> (SatResult, SolveStats) {
    assert_eq!(
        pool.sort(formula),
        Sort::Bool,
        "smt_solve: formula must be Bool"
    );
    let start = Instant::now();
    let deadline = config.timeout.map(|t| start + t);
    let mut stats = SolveStats {
        size_before: pool.dag_size(formula),
        ..Default::default()
    };
    let processed = if config.skip_preprocessing {
        formula
    } else {
        let (pre, eg) = preprocess_ext(pool, formula, &config.egraph);
        stats.preprocess_rounds = pre.rounds;
        stats.egraph = eg;
        pre.term
    };
    stats.size_after = pool.dag_size(processed);
    if let Some(b) = pool.as_bool_const(processed) {
        stats.preprocess_decided = true;
        stats.duration = start.elapsed();
        let result = if b {
            SatResult::Sat(Model::default())
        } else {
            SatResult::Unsat
        };
        return (result, stats);
    }
    // Deadline check between stages: bit-blasting can itself be large, so
    // a call whose budget was consumed by preprocessing degrades to
    // Unknown here instead of stalling in `blast`.
    if deadline.is_some_and(|d| Instant::now() >= d) {
        stats.duration = start.elapsed();
        return (SatResult::Unknown, stats);
    }
    // Specific solver: bit-blast and hand to the SAT backend.
    let (cnf, map) = blast(pool, processed);
    stats.cnf_clauses = cnf.num_clauses();
    let budget = SatBudget {
        max_conflicts: config.max_conflicts,
        deadline,
    };
    let mut sat = SatSolver::new(&cnf);
    let outcome = sat.solve(budget);
    stats.sat_conflicts = sat.stats.conflicts;
    stats.sat_decisions = sat.stats.decisions;
    stats.duration = start.elapsed();
    let result = match outcome {
        SatOutcome::Sat(model) => {
            let mut values = HashMap::new();
            for v in pool.free_vars(processed) {
                if let Some(val) = map.value(v, &model) {
                    values.insert(v, val);
                }
            }
            SatResult::Sat(Model { values })
        }
        SatOutcome::Unsat => SatResult::Unsat,
        SatOutcome::Unknown => SatResult::Unknown,
    };
    (result, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::{BvOp, BvPred};

    #[test]
    fn decides_in_preprocessing() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(32));
        let y = p.var("y", Sort::Bv(32));
        let f = p.pred(BvPred::Slt, x, y);
        let (r, s) = smt_solve(&mut p, f, &SolverConfig::default());
        assert!(r.is_sat());
        assert!(s.preprocess_decided);
        assert_eq!(s.cnf_clauses, 0);
    }

    #[test]
    fn falls_through_to_sat() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let c3 = p.bv_const(3, 8);
        let sq = p.bv(BvOp::Mul, x, x);
        let f = p.eq(sq, c3); // x² = 3 mod 256: no solution (3 mod 8 ≠ 0,1,4)
        let (r, s) = smt_solve(&mut p, f, &SolverConfig::default());
        assert!(r.is_unsat());
        assert!(!s.preprocess_decided);
        assert!(s.cnf_clauses > 0);
    }

    #[test]
    fn sat_model_satisfies_preprocessed_formula() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let sq = p.bv(BvOp::Mul, x, x);
        let c4 = p.bv_const(4, 8);
        let f = p.eq(sq, c4);
        let (r, _) = smt_solve(&mut p, f, &SolverConfig::default());
        match r {
            SatResult::Sat(m) => {
                assert_eq!(m.eval(&p, f), Value::Bool(true));
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn unsat_conjunction() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let c1 = p.bv_const(1, 8);
        let c2 = p.bv_const(2, 8);
        let e1 = p.eq(x, c1);
        let e2 = p.eq(x, c2);
        let f = p.and2(e1, e2);
        let (r, s) = smt_solve(&mut p, f, &SolverConfig::default());
        assert!(r.is_unsat());
        // Constant propagation alone decides this.
        assert!(s.preprocess_decided);
    }

    #[test]
    fn respects_conflict_budget() {
        // A multiplication constraint hard enough to need conflicts.
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(16));
        let y = p.var("y", Sort::Bv(16));
        let prod = p.bv(BvOp::Mul, x, y);
        let c = p.bv_const(0x8001, 16);
        let f1 = p.eq(prod, c);
        let two = p.bv_const(2, 16);
        let xg = p.pred(BvPred::Ult, two, x);
        let yg = p.pred(BvPred::Ult, two, y);
        let f = p.and(&[f1, xg, yg]);
        let cfg = SolverConfig {
            max_conflicts: Some(1),
            ..Default::default()
        };
        let (r, _) = smt_solve(&mut p, f, &cfg);
        // Either solved within one conflict or unknown — never wrong.
        if let SatResult::Sat(m) = &r {
            assert_eq!(m.eval(&p, f), Value::Bool(true));
        }
    }

    #[test]
    fn exhausted_timeout_degrades_to_unknown() {
        // A formula that survives preprocessing, solved with an
        // already-expired wall-clock budget: must answer Unknown, never
        // stall or guess.
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(16));
        let y = p.var("y", Sort::Bv(16));
        let prod = p.bv(BvOp::Mul, x, y);
        let c = p.bv_const(0x8001, 16);
        let f = p.eq(prod, c);
        let cfg = SolverConfig {
            timeout: Some(Duration::ZERO),
            ..Default::default()
        };
        let (r, s) = smt_solve(&mut p, f, &cfg);
        assert_eq!(r, SatResult::Unknown);
        assert!(!s.preprocess_decided);
    }

    #[test]
    fn skip_preprocessing_flag() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let y = p.var("y", Sort::Bv(8));
        let f = p.pred(BvPred::Slt, x, y);
        let cfg = SolverConfig {
            skip_preprocessing: true,
            ..Default::default()
        };
        let (r, s) = smt_solve(&mut p, f, &cfg);
        assert!(r.is_sat());
        assert!(!s.preprocess_decided);
        assert!(s.cnf_clauses > 0);
    }
}
