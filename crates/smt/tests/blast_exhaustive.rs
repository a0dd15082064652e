//! Exhaustive check of the bit-blaster at width 4, without preprocessing.
//!
//! For every operator (the 11 `BvOp`s, the 4 `BvPred`s and `Eq`), every
//! operand shape — `(x, y)`, `(x, x)`, `(x, k)` and `(k, x)` for every
//! constant `k` — and every input, `op(lhs, rhs) == z` is blasted through
//! a [`SessionBlaster`] (a predicate's or `Eq`'s output is compared with a
//! Boolean `z`). A unit clause pins the inputs: it asserts the root of
//! `x == a ∧ y == b`. Then the formula's root is solved as an assumption,
//! the way a session solves a query. The check:
//!
//! * the answer is `Sat`, and `z` read back from the model equals
//!   [`TermPool::eval`] of `op(lhs, rhs)`;
//! * except for `Udiv` and `Urem`, whose quotient and remainder are fresh
//!   variables that only search can fix, the solve takes no decision and
//!   no conflict: unit propagation from the inputs fixes every gate. That
//!   is the full-biconditional property session reuse rests on.
//!
//! `smt_solve` would fold the pinned constants away in preprocessing before
//! anything is blasted, so this goes to the blaster directly: a constant
//! operand reaches the gates' constant folding, and `(x, x)` their
//! repeated-input folding.

use fusion_smt::bitblast::SessionBlaster;
use fusion_smt::sat::{SatBudget, SatOutcome, SatSolver};
use fusion_smt::term::{BvOp, BvPred, Sort, TermId, TermPool, Value};
use std::collections::HashMap;

const WIDTH: u32 = 4;
const VALUES: u64 = 1 << WIDTH;

const BV_OPS: [BvOp; 11] = [
    BvOp::Add,
    BvOp::Sub,
    BvOp::Mul,
    BvOp::Udiv,
    BvOp::Urem,
    BvOp::And,
    BvOp::Or,
    BvOp::Xor,
    BvOp::Shl,
    BvOp::Lshr,
    BvOp::Ashr,
];

const PREDS: [BvPred; 4] = [BvPred::Ult, BvPred::Ule, BvPred::Slt, BvPred::Sle];

#[derive(Debug, Clone, Copy)]
enum Op {
    Bv(BvOp),
    Pred(BvPred),
    Eq,
}

impl Op {
    fn build(self, pool: &mut TermPool, a: TermId, b: TermId) -> TermId {
        match self {
            Op::Bv(op) => pool.bv(op, a, b),
            Op::Pred(p) => pool.pred(p, a, b),
            Op::Eq => pool.eq(a, b),
        }
    }

    fn output_sort(self) -> Sort {
        match self {
            Op::Bv(_) => Sort::Bv(WIDTH),
            Op::Pred(_) | Op::Eq => Sort::Bool,
        }
    }

    /// Whether the encoding has fresh variables that propagation from the
    /// inputs does not fix.
    fn searches(self) -> bool {
        matches!(self, Op::Bv(BvOp::Udiv | BvOp::Urem))
    }
}

#[derive(Debug, Clone, Copy)]
enum Shape {
    /// `(x, y)`.
    Vars,
    /// `(x, x)`.
    Same,
    /// `(x, k)`.
    VarConst(u64),
    /// `(k, x)`.
    ConstVar(u64),
}

/// Blasts `op(lhs, rhs) == z` for one shape, pins `x = xv` (and `y = yv`
/// for [`Shape::Vars`]), solves, and checks the answer.
fn check(op: Op, shape: Shape, xv: u64, yv: u64) {
    let mut pool = TermPool::new();
    let x = pool.var("x", Sort::Bv(WIDTH));
    let y = pool.var("y", Sort::Bv(WIDTH));
    let (lhs, rhs) = match shape {
        Shape::Vars => (x, y),
        Shape::Same => (x, x),
        Shape::VarConst(k) => (x, pool.bv_const(k, WIDTH)),
        Shape::ConstVar(k) => (pool.bv_const(k, WIDTH), x),
    };
    let out = op.build(&mut pool, lhs, rhs);
    let z = pool.var("z", op.output_sort());
    let formula = pool.eq(out, z);
    let xk = pool.bv_const(xv, WIDTH);
    let mut pin = pool.eq(x, xk);
    if let Shape::Vars = shape {
        let yk = pool.bv_const(yv, WIDTH);
        let pin_y = pool.eq(y, yk);
        pin = pool.and2(pin, pin_y);
    }

    let mut blaster = SessionBlaster::new();
    let root = blaster.blast_root(&pool, formula);
    let pin_root = blaster.blast_root(&pool, pin);
    let mut solver = SatSolver::empty();
    blaster.drain_into(&mut solver);
    solver.add_clause_incremental(&[pin_root]);
    let outcome = solver.solve_under_assumptions(&[root], SatBudget::default());

    let case = format!("{op:?} {shape:?} x={xv} y={yv}");
    let SatOutcome::Sat(model) = outcome else {
        panic!("{case}: expected Sat, got {outcome:?}");
    };
    let [xi, yi, zi] = [x, y, z].map(|t| pool.free_vars(t)[0]);
    let env = HashMap::from([(xi, xv), (yi, yv)]);
    let want = match pool.eval(out, &env) {
        Value::Bv(v) => v,
        Value::Bool(b) => u64::from(b),
    };
    assert_eq!(blaster.map().value(zi, &model), Some(want), "{case}: z");
    if !op.searches() {
        assert_eq!(
            (solver.stats.decisions, solver.stats.conflicts),
            (0, 0),
            "{case}: the inputs do not fix every gate by propagation"
        );
    }
}

/// Every shape and input for `op`.
fn check_all(op: Op) {
    for xv in 0..VALUES {
        check(op, Shape::Same, xv, 0);
        for v in 0..VALUES {
            check(op, Shape::Vars, xv, v);
            check(op, Shape::VarConst(v), xv, 0);
            check(op, Shape::ConstVar(v), xv, 0);
        }
    }
}

#[test]
fn bv_ops_blast_exactly() {
    for op in BV_OPS {
        check_all(Op::Bv(op));
    }
}

#[test]
fn predicates_and_eq_blast_exactly() {
    for p in PREDS {
        check_all(Op::Pred(p));
    }
    check_all(Op::Eq);
}
