//! Heavyweight tactics used by the Pinpoint baseline variants.
//!
//! The paper's evaluation arms Pinpoint with three Z3 tactics to try to tame
//! condition growth:
//!
//! * **QE** (`qe`) — quantifier elimination of callee-internal variables
//!   from summaries ([`quantifier_eliminate`]). Bit-level Shannon expansion
//!   is doubly-exponential-prone; exactly as the paper observes, it "may
//!   take a lot of time but notably enlarge the condition size", so the
//!   implementation carries a hard node budget and reports blow-ups.
//! * **LFS** (`simplify`) — local rewriting; this is
//!   [`crate::preprocess::simplify`].
//! * **HFS** (`ctx-solver-simplify`) — context-dependent simplification
//!   that calls the solver per subterm ([`ctx_solver_simplify`]); cheap on
//!   formulas, expensive in solver calls, again mirroring the evaluation.

use crate::dense::VarMap;
use crate::preprocess::conjuncts_into;
use crate::solver::{smt_solve, SolverConfig};
use crate::term::{BvOp, Sort, TermId, TermKind, TermPool, VarIdx};
use std::error::Error;
use std::fmt;

/// QE exceeded its node budget — the formula blew up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QeBlowup {
    /// Nodes allocated when the budget tripped.
    pub nodes: usize,
    /// The configured budget.
    pub budget: usize,
}

impl fmt::Display for QeBlowup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "quantifier elimination exceeded its node budget ({} > {})",
            self.nodes, self.budget
        )
    }
}

impl Error for QeBlowup {}

/// Eliminates the existentially quantified `vars` from `formula`.
///
/// Strategy: first `solve-eqs` (substitute variables defined by a top-level
/// equality — cheap); remaining variables are eliminated by bit-level
/// Shannon expansion `∃x.φ ≡ ∃x'. φ[x := 2x'] ∨ φ[x := 2x'+1]`, which
/// doubles the formula per bit and is the deliberate blow-up the paper
/// measures.
///
/// # Errors
///
/// Returns [`QeBlowup`] when the working formula's DAG exceeds
/// `node_budget`.
pub fn quantifier_eliminate(
    pool: &mut TermPool,
    formula: TermId,
    vars: &[VarIdx],
    node_budget: usize,
) -> Result<TermId, QeBlowup> {
    quantifier_eliminate_impl(pool, formula, vars, node_budget, true)
}

/// [`quantifier_eliminate`] without the solve-eqs fast path: pure bit-level
/// Shannon expansion, as the bit-vector `qe` tactic of the Z3 version the
/// paper used behaves. This is the variant whose blow-ups the evaluation
/// observes (Pinpoint+QE exhausting memory on all but the smallest
/// subject).
///
/// # Errors
///
/// Returns [`QeBlowup`] when the working formula's DAG exceeds
/// `node_budget` — which, for 32-bit variables not eliminated by
/// simplification, is the common case.
pub fn quantifier_eliminate_expansion(
    pool: &mut TermPool,
    formula: TermId,
    vars: &[VarIdx],
    node_budget: usize,
) -> Result<TermId, QeBlowup> {
    quantifier_eliminate_impl(pool, formula, vars, node_budget, false)
}

fn quantifier_eliminate_impl(
    pool: &mut TermPool,
    formula: TermId,
    vars: &[VarIdx],
    node_budget: usize,
    solve_eqs: bool,
) -> Result<TermId, QeBlowup> {
    // Cheap phase: targeted solve-eqs. Only the *requested* variables may
    // be eliminated — interface variables of a summary must survive — so a
    // defining top-level equality `v = t` (with `v` not free in `t`) is
    // substituted only for `v ∈ vars`.
    let mut t = formula;
    let mut cs = Vec::new();
    'vars: for &v in vars {
        if !solve_eqs {
            break;
        }
        let vt = pool.var_term(v);
        conjuncts_into(pool, t, &mut cs);
        for &c in &cs {
            let TermKind::Eq(a, b) = *pool.kind(c) else {
                continue;
            };
            let rhs = if a == vt {
                b
            } else if b == vt {
                a
            } else {
                continue;
            };
            if pool.mentions(rhs, v) {
                continue;
            }
            let mut m = VarMap::new();
            m.insert(v, rhs);
            t = pool.substitute(t, &m);
            continue 'vars;
        }
    }
    for &v in vars {
        if !pool.mentions(t, v) {
            continue; // already gone
        }
        let Sort::Bv(w) = pool.var_sort(v) else {
            // Boolean variable: ∃b.φ ≡ φ[b:=⊤] ∨ φ[b:=⊥].
            let tt = pool.tt();
            let ff = pool.ff();
            let mut m = VarMap::new();
            m.insert(v, tt);
            let a = pool.substitute(t, &m);
            m.insert(v, ff);
            let b = pool.substitute(t, &m);
            t = pool.or2(a, b);
            continue;
        };
        // Shannon expansion, one bit at a time: `∃v.φ` becomes
        // `∃v'. φ[v := 2v' + 0] ∨ φ[v := 2v' + 1]` with a fresh `v'` per
        // round. After `w` rounds the residual variable contributes only
        // `2^w · v_w ≡ 0`, so it is pinned to zero.
        let mut cur = v;
        for round in 0..=w {
            if !pool.mentions(t, cur) {
                break;
            }
            let mut m = VarMap::new();
            if round == w {
                let zero = pool.bv_const(0, w);
                m.insert(cur, zero);
                t = pool.substitute(t, &m);
                break;
            }
            let next = pool.fresh_var("qe", Sort::Bv(w));
            let TermKind::Var(next_v) = *pool.kind(next) else {
                unreachable!()
            };
            let one = pool.bv_const(1, w);
            let shifted = pool.bv(BvOp::Shl, next, one);
            let odd = pool.bv(BvOp::Or, shifted, one);
            m.insert(cur, shifted);
            let even_case = pool.substitute(t, &m);
            m.insert(cur, odd);
            let odd_case = pool.substitute(t, &m);
            t = pool.or2(even_case, odd_case);
            cur = next_v;
            let nodes = pool.dag_size(t);
            if nodes > node_budget {
                return Err(QeBlowup {
                    nodes,
                    budget: node_budget,
                });
            }
        }
    }
    Ok(t)
}

/// Statistics from one [`ctx_solver_simplify`] run.
#[derive(Debug, Clone, Copy, Default)]
pub struct CtxSimplifyStats {
    /// Solver calls performed.
    pub solver_calls: u64,
    /// Conjuncts replaced by `true`.
    pub simplified: u64,
    /// Whether the whole formula was shown unsatisfiable.
    pub proved_false: bool,
}

/// Context-dependent simplification (Z3's `ctx-solver-simplify`).
///
/// For each top-level conjunct `cᵢ`, let `C` be the conjunction of the
/// others; if `C ⊨ cᵢ` (checked with a solver call on `C ∧ ¬cᵢ`), then
/// `cᵢ` is redundant and is dropped; if `C ⊨ ¬cᵢ`, the formula is
/// unsatisfiable. Iterates until no conjunct changes. The per-conjunct
/// solver calls are the "extra SMT solving procedures" that make HFS
/// expensive in the paper's evaluation.
pub fn ctx_solver_simplify(
    pool: &mut TermPool,
    formula: TermId,
    per_call: &SolverConfig,
) -> (TermId, CtxSimplifyStats) {
    let mut stats = CtxSimplifyStats::default();
    let mut parts = Vec::new();
    conjuncts_into(pool, formula, &mut parts);
    if parts.len() < 2 {
        return (formula, stats);
    }
    let mut changed = true;
    let mut rounds = 0;
    while changed && rounds < 4 {
        changed = false;
        rounds += 1;
        let mut i = 0;
        while i < parts.len() {
            let ci = parts[i];
            let others: Vec<TermId> = parts
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, &c)| c)
                .collect();
            let context = pool.and(&others);
            // C ⊨ cᵢ ?
            let nci = pool.not(ci);
            let q = pool.and2(context, nci);
            stats.solver_calls += 1;
            let (r, _) = smt_solve(pool, q, per_call);
            if r.is_unsat() {
                stats.simplified += 1;
                parts.remove(i);
                changed = true;
                continue;
            }
            // C ⊨ ¬cᵢ ?
            let q2 = pool.and2(context, ci);
            stats.solver_calls += 1;
            let (r2, _) = smt_solve(pool, q2, per_call);
            if r2.is_unsat() {
                stats.proved_false = true;
                return (pool.ff(), stats);
            }
            i += 1;
        }
    }
    (pool.and(&parts), stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::BvPred;

    #[test]
    fn qe_via_solve_eqs_is_cheap() {
        // ∃y. y = x + 1 ∧ y < 10  →  x + 1 < 10
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let y = p.var("y", Sort::Bv(8));
        let TermKind::Var(vy) = *p.kind(y) else {
            unreachable!()
        };
        let one = p.bv_const(1, 8);
        let c10 = p.bv_const(10, 8);
        let xp1 = p.bv(BvOp::Add, x, one);
        let def = p.eq(y, xp1);
        let lt = p.pred(BvPred::Ult, y, c10);
        let f = p.and2(def, lt);
        let r = quantifier_eliminate(&mut p, f, &[vy], 10_000).unwrap();
        assert!(!p.free_vars(r).contains(&vy));
    }

    #[test]
    fn qe_bool_expansion() {
        let mut p = TermPool::new();
        let b = p.var("b", Sort::Bool);
        let c = p.var("c", Sort::Bool);
        let TermKind::Var(vb) = *p.kind(b) else {
            unreachable!()
        };
        let f = p.and2(b, c);
        let r = quantifier_eliminate(&mut p, f, &[vb], 10_000).unwrap();
        assert_eq!(r, c); // ∃b. b ∧ c ≡ c
    }

    #[test]
    fn qe_blowup_is_reported() {
        // A variable under a multiplication with another variable cannot be
        // solved by equalities; Shannon expansion must blow the budget.
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(32));
        let y = p.var("y", Sort::Bv(32));
        let z = p.var("z", Sort::Bv(32));
        let TermKind::Var(vx) = *p.kind(x) else {
            unreachable!()
        };
        let prod = p.bv(BvOp::Mul, x, y);
        let lt = p.pred(BvPred::Ult, prod, z);
        let gt = p.pred(BvPred::Ult, z, x);
        let f = p.and2(lt, gt);
        let err = quantifier_eliminate(&mut p, f, &[vx], 200).unwrap_err();
        assert!(err.nodes > err.budget);
    }

    #[test]
    fn ctx_simplify_drops_implied_conjunct() {
        // x < 5 ∧ x < 10: the second conjunct is implied.
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let c5 = p.bv_const(5, 8);
        let c10 = p.bv_const(10, 8);
        let a = p.pred(BvPred::Ult, x, c5);
        let b = p.pred(BvPred::Ult, x, c10);
        let f = p.and2(a, b);
        let (r, stats) = ctx_solver_simplify(&mut p, f, &SolverConfig::default());
        assert_eq!(r, a);
        assert!(stats.solver_calls >= 2);
        assert_eq!(stats.simplified, 1);
    }

    #[test]
    fn ctx_simplify_detects_contradiction() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let c5 = p.bv_const(5, 8);
        let a = p.pred(BvPred::Ult, x, c5);
        let b = p.pred(BvPred::Ult, c5, x);
        let f = p.and2(a, b);
        let (r, stats) = ctx_solver_simplify(&mut p, f, &SolverConfig::default());
        assert_eq!(p.as_bool_const(r), Some(false));
        assert!(stats.proved_false);
    }

    #[test]
    fn ctx_simplify_keeps_independent_conjuncts() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let y = p.var("y", Sort::Bv(8));
        let c5 = p.bv_const(5, 8);
        let a = p.pred(BvPred::Ult, x, c5);
        let b = p.pred(BvPred::Ult, y, c5);
        let f = p.and2(a, b);
        let (r, _) = ctx_solver_simplify(&mut p, f, &SolverConfig::default());
        assert_eq!(r, f);
    }
}
