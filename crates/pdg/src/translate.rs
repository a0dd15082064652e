//! The linear allotropic transformation (Rules 4–8 of Fig. 8) plus the
//! context-sensitive cloning of Algorithm 4.
//!
//! Given a [`Slice`], this module produces the first-order path condition
//! `φ_Π`. Context-sensitivity is achieved exactly as §3.2.1 describes:
//! "we clone the callee function at each call site", i.e. every sliced
//! vertex is instantiated once per *calling context* (call string), with
//! call/return parenthesis labels resolved into parameter- and
//! return-binding equations (Rules 7–8).
//!
//! The number of instances is exponential in call depth in the worst case —
//! that is the condition-cloning cost the paper eliminates — so translation
//! carries an instance budget and reports blow-ups like a memory-out.

use crate::slice::{Constraint, ConstraintKind, Slice};
use fusion_ir::ssa::{CallSiteId, DefKind, FuncId, Op, Program, VarId, WORD_BITS};
use fusion_smt::dense::CtxMap;
use fusion_smt::term::{BvOp, BvPred, CtxId, Sort, TermId, TermPool, VarIdx, VarKey};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;

/// Cloning exceeded the instance budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CloneBlowup {
    /// Instances materialized when the budget tripped.
    pub instances: usize,
    /// The configured budget.
    pub budget: usize,
}

impl fmt::Display for CloneBlowup {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "context-sensitive cloning exceeded the instance budget ({} > {})",
            self.instances, self.budget
        )
    }
}

impl Error for CloneBlowup {}

/// Options for [`translate`].
#[derive(Debug, Clone, Copy)]
pub struct TranslateOptions {
    /// Maximum number of `(context, function)` instances to clone.
    pub max_instances: usize,
}

impl Default for TranslateOptions {
    fn default() -> Self {
        Self {
            max_instances: 1 << 16,
        }
    }
}

/// The produced path condition and its size accounting.
#[derive(Debug, Clone, Copy)]
pub struct Translation {
    /// The path condition `φ_Π`.
    pub formula: TermId,
    /// `(context, function)` instances materialized (clones).
    pub instances: usize,
    /// Equations emitted across all instances.
    pub equations: usize,
}

/// Encodes an IR operator over 32-bit terms, with C-style 0/1 booleans for
/// predicates (matching [`fusion_ir::ssa::Op::eval`] exactly).
pub fn encode_op(pool: &mut TermPool, op: Op, a: TermId, b: TermId) -> TermId {
    let w = WORD_BITS;
    let as01 = |pool: &mut TermPool, cond: TermId| {
        let one = pool.bv_const(1, w);
        let zero = pool.bv_const(0, w);
        pool.ite(cond, one, zero)
    };
    match op {
        Op::Add => pool.bv(BvOp::Add, a, b),
        Op::Sub => pool.bv(BvOp::Sub, a, b),
        Op::Mul => pool.bv(BvOp::Mul, a, b),
        Op::Udiv => pool.bv(BvOp::Udiv, a, b),
        Op::Urem => pool.bv(BvOp::Urem, a, b),
        Op::And => pool.bv(BvOp::And, a, b),
        Op::Or => pool.bv(BvOp::Or, a, b),
        Op::Xor => pool.bv(BvOp::Xor, a, b),
        Op::Shl => pool.bv(BvOp::Shl, a, b),
        Op::Lshr => pool.bv(BvOp::Lshr, a, b),
        Op::Ashr => pool.bv(BvOp::Ashr, a, b),
        Op::Slt => {
            let c = pool.pred(BvPred::Slt, a, b);
            as01(pool, c)
        }
        Op::Sle => {
            let c = pool.pred(BvPred::Sle, a, b);
            as01(pool, c)
        }
        Op::Ult => {
            let c = pool.pred(BvPred::Ult, a, b);
            as01(pool, c)
        }
        Op::Ule => {
            let c = pool.pred(BvPred::Ule, a, b);
            as01(pool, c)
        }
        Op::Eq => {
            let c = pool.eq(a, b);
            as01(pool, c)
        }
        Op::Ne => {
            let c = pool.ne(a, b);
            as01(pool, c)
        }
    }
}

/// The "is true" reading of a word-valued condition: `v ≠ 0`.
pub fn truthy(pool: &mut TermPool, v: TermId) -> TermId {
    let zero = pool.bv_const(0, WORD_BITS);
    pool.ne(v, zero)
}

/// The SMT variable for IR variable `var` of `func` under calling context
/// `ctx` — the renamed clone the paper's instantiation produces. Its key
/// ([`VarKey::Instance`]) records the IR definition it clones, which
/// [`instance_origin`] reads back.
pub fn instance_var(pool: &mut TermPool, ctx: CtxId, func: FuncId, var: VarId) -> TermId {
    let key = VarKey::Instance {
        func: func.0,
        ctx,
        var: var.0,
    };
    pool.keyed_var(key, Sort::Bv(WORD_BITS))
}

/// The IR definition an instance variable ([`instance_var`]) clones.
///
/// Abstract facts are memoized per *function* (never per call site), so
/// every clone of one definition shares one fact; this is what lets a
/// solver seed formula preprocessing with those per-function facts on
/// first contact (the §3.2.3 preprocessing discipline).
pub fn instance_origin(pool: &TermPool, v: VarIdx) -> Option<(FuncId, VarId)> {
    match pool.var_key(v)? {
        VarKey::Instance { func, var, .. } => Some((FuncId(func), VarId(var))),
        VarKey::Local { .. } => None,
    }
}

/// The pool's id of a calling context given as a call string.
pub fn intern_ctx(pool: &mut TermPool, ctx: &[CallSiteId]) -> CtxId {
    ctx.iter().fold(CtxId::ROOT, |c, s| pool.ctx_push(c, s.0))
}

/// The `(context, function)` instances a translation clones, each
/// scheduled once and handed out in scheduling order.
#[derive(Debug, Default)]
pub struct Instances {
    scheduled: CtxMap<()>,
    work: VecDeque<(CtxId, FuncId)>,
}

impl Instances {
    /// Forgets every instance, keeping the buffers.
    pub fn clear(&mut self) {
        self.scheduled.clear();
        self.work.clear();
    }

    /// Schedules `func` under `ctx` unless it was scheduled before.
    pub fn schedule(&mut self, ctx: CtxId, func: FuncId) {
        if self.scheduled.insert_new(ctx, func.0, ()) {
            self.work.push_back((ctx, func));
        }
    }

    /// The next scheduled instance to translate.
    pub fn pop(&mut self) -> Option<(CtxId, FuncId)> {
        self.work.pop_front()
    }

    /// Number of instances scheduled so far.
    pub fn len(&self) -> usize {
        self.scheduled.len()
    }

    /// Whether no instance was scheduled.
    pub fn is_empty(&self) -> bool {
        self.scheduled.is_empty()
    }
}

/// Translates a slice to its path condition (Rules 4–8 + cloning).
///
/// # Errors
///
/// Returns [`CloneBlowup`] if more than `options.max_instances` clones are
/// required.
pub fn translate(
    program: &Program,
    slice: &Slice,
    pool: &mut TermPool,
    options: &TranslateOptions,
) -> Result<Translation, CloneBlowup> {
    let mut parts: Vec<TermId> = Vec::new();
    let mut equations = 0usize;
    let mut instances = Instances::default();

    // Rule 4/5 + Rule 1 gates: the context-tagged path constraints.
    for Constraint { ctx, func, kind } in &slice.constraints {
        let ctx = intern_ctx(pool, ctx);
        instances.schedule(ctx, *func);
        let f = program.func(*func);
        match kind {
            ConstraintKind::BranchTrue { branch } => {
                let DefKind::Branch { cond } = f.def(*branch).kind else {
                    unreachable!("guards are branches")
                };
                let cv = instance_var(pool, ctx, *func, cond);
                parts.push(truthy(pool, cv));
            }
            ConstraintKind::IteGate { ite, taken_then } => {
                let DefKind::Ite { cond, .. } = f.def(*ite).kind else {
                    unreachable!("gated vertices are ites")
                };
                let cv = instance_var(pool, ctx, *func, cond);
                let t = truthy(pool, cv);
                parts.push(if *taken_then { t } else { pool.not(t) });
            }
        }
        equations += 1;
    }

    // Rules 6–8 per instance, scheduling callees (down) and callers (up).
    while let Some((ctx, fid)) = instances.pop() {
        if instances.len() > options.max_instances {
            return Err(CloneBlowup {
                instances: instances.len(),
                budget: options.max_instances,
            });
        }
        let Some(fs) = slice.funcs.get(&fid) else {
            continue;
        };
        let func = program.func(fid);
        for &v in &fs.verts {
            let def = func.def(v);
            let lhs = instance_var(pool, ctx, fid, v);
            let equation = match &def.kind {
                DefKind::Param { index } => {
                    // Rule 7: bind to the actual at the instantiating call
                    // site; the outermost frame's parameters are free.
                    let Some((caller_ctx, site)) = pool.ctx_pop(ctx) else {
                        continue;
                    };
                    let cs = program.call_site(CallSiteId(site));
                    let caller = program.func(cs.caller);
                    let DefKind::Call { args, .. } = &caller.def(cs.stmt).kind else {
                        unreachable!("call sites point at calls")
                    };
                    let actual = args[*index];
                    let rhs = instance_var(pool, caller_ctx, cs.caller, actual);
                    instances.schedule(caller_ctx, cs.caller);
                    pool.eq(lhs, rhs)
                }
                DefKind::Const { value, .. } => {
                    let k = pool.bv_const(*value as u64, WORD_BITS);
                    pool.eq(lhs, k)
                }
                DefKind::Copy { src } | DefKind::Return { src } => {
                    let rhs = instance_var(pool, ctx, fid, *src);
                    pool.eq(lhs, rhs)
                }
                DefKind::Binary { op, lhs: a, rhs: b } => {
                    let ta = instance_var(pool, ctx, fid, *a);
                    let tb = instance_var(pool, ctx, fid, *b);
                    let rhs = encode_op(pool, *op, ta, tb);
                    pool.eq(lhs, rhs)
                }
                DefKind::Ite {
                    cond,
                    then_v,
                    else_v,
                } => {
                    let tc = instance_var(pool, ctx, fid, *cond);
                    let tt = instance_var(pool, ctx, fid, *then_v);
                    let te = instance_var(pool, ctx, fid, *else_v);
                    let c = truthy(pool, tc);
                    let rhs = pool.ite(c, tt, te);
                    pool.eq(lhs, rhs)
                }
                DefKind::Call { callee, site, .. } => {
                    let callee_f = program.func(*callee);
                    if callee_f.is_extern {
                        // Empty function: unconstrained result.
                        continue;
                    }
                    // Rule 8: dst = callee's return under the deeper
                    // context. This is the cloning point.
                    let sub_ctx = pool.ctx_push(ctx, site.0);
                    let ret = callee_f.ret.expect("non-extern has a return");
                    let rhs = instance_var(pool, sub_ctx, *callee, ret);
                    instances.schedule(sub_ctx, *callee);
                    pool.eq(lhs, rhs)
                }
                DefKind::Branch { .. } => continue, // Rule 6 "others": true
            };
            equations += 1;
            parts.push(equation);
        }
    }

    let formula = pool.and(&parts);
    Ok(Translation {
        formula,
        instances: instances.len(),
        equations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{Pdg, Vertex};
    use crate::paths::{DependencePath, Link};
    use crate::slice::compute_slice;
    use fusion_ir::{compile, CompileOptions};
    use fusion_smt::solver::{smt_solve, SolverConfig};

    fn setup(src: &str) -> (Program, Pdg) {
        let p = compile(src, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        (p, g)
    }

    /// Builds the null → gated-ite chain → return path in `foo`.
    fn null_return_path(p: &Program, foo_name: &str) -> DependencePath {
        let foo = p.func_by_name(foo_name).unwrap();
        let null_def = foo
            .defs
            .iter()
            .find(|d| matches!(d.kind, DefKind::Const { is_null: true, .. }))
            .expect("null source");
        let mut path = DependencePath::unit(Vertex::new(foo.id, null_def.var));
        // Greedy walk: repeatedly step to a user that is an ite taking the
        // current vertex as an input, ending at the return.
        let mut cur = null_def.var;
        loop {
            let next = foo.defs.iter().find(|d| match &d.kind {
                DefKind::Ite { then_v, else_v, .. } => *then_v == cur || *else_v == cur,
                DefKind::Return { src } => *src == cur,
                _ => false,
            });
            match next {
                Some(d) => {
                    path.push(Link::Local, Vertex::new(foo.id, d.var));
                    cur = d.var;
                    if matches!(d.kind, DefKind::Return { .. }) {
                        break;
                    }
                }
                None => break,
            }
        }
        path
    }

    #[test]
    fn figure1_condition_is_satisfiable() {
        // The paper's running example: the null pointer escapes when
        // c < d, i.e. bar(a) < bar(b) — satisfiable.
        let (p, g) = setup(
            "fn bar(x) { let y = x * 2; let z = y; return z; }\n\
             fn foo(a, b) {\n\
               let pp = null;\n\
               let c = bar(a);\n\
               let d = bar(b);\n\
               if (c < d) { return pp; }\n\
               return 1;\n\
             }",
        );
        let path = null_return_path(&p, "foo");
        assert!(path.nodes.len() >= 3, "path: {path:?}");
        let slice = compute_slice(&p, &g, &[path]);
        let mut pool = TermPool::new();
        let tr = translate(&p, &slice, &mut pool, &TranslateOptions::default()).unwrap();
        // bar is cloned at both call sites: instances = foo + 2×bar.
        assert_eq!(tr.instances, 3);
        let (r, _) = smt_solve(&mut pool, tr.formula, &SolverConfig::default());
        assert!(r.is_sat());
    }

    #[test]
    fn infeasible_path_is_unsat() {
        // The branch condition contradicts itself: x > 5 && x < 3.
        let (p, g) = setup(
            "fn foo(x) {\n\
               let pp = null;\n\
               if (x > 5) { if (x < 3) { return pp; } }\n\
               return 1;\n\
             }",
        );
        let path = null_return_path(&p, "foo");
        let slice = compute_slice(&p, &g, &[path]);
        let mut pool = TermPool::new();
        let tr = translate(&p, &slice, &mut pool, &TranslateOptions::default()).unwrap();
        let (r, _) = smt_solve(&mut pool, tr.formula, &SolverConfig::default());
        assert!(r.is_unsat());
    }

    #[test]
    fn feasible_concrete_branch() {
        let (p, g) = setup(
            "fn foo(x) {\n\
               let pp = null;\n\
               let y = x * 2;\n\
               if (y == 14) { return pp; }\n\
               return 1;\n\
             }",
        );
        let path = null_return_path(&p, "foo");
        let slice = compute_slice(&p, &g, &[path]);
        let mut pool = TermPool::new();
        let tr = translate(&p, &slice, &mut pool, &TranslateOptions::default()).unwrap();
        let (r, _) = smt_solve(&mut pool, tr.formula, &SolverConfig::default());
        assert!(r.is_sat()); // x = 7
    }

    #[test]
    fn clone_count_grows_with_call_sites() {
        // Chain of functions each calling the next twice: instance count
        // is exponential in depth — the condition-cloning problem.
        let src = "\
            fn leaf(x) { return x + 1; }\n\
            fn mid1(x) { return leaf(x) + leaf(x + 1); }\n\
            fn mid2(x) { return mid1(x) + mid1(x + 1); }\n\
            fn foo(a) {\n\
              let pp = null;\n\
              if (mid2(a) == 9) { return pp; }\n\
              return 1;\n\
            }";
        let (p, g) = setup(src);
        let path = null_return_path(&p, "foo");
        let slice = compute_slice(&p, &g, &[path]);
        let mut pool = TermPool::new();
        let tr = translate(&p, &slice, &mut pool, &TranslateOptions::default()).unwrap();
        // foo + mid2 + 2×mid1 + 4×leaf = 8 instances.
        assert_eq!(tr.instances, 8);
        // And the budget trips when set below that.
        let mut pool2 = TermPool::new();
        let err = translate(
            &p,
            &slice,
            &mut pool2,
            &TranslateOptions { max_instances: 4 },
        )
        .unwrap_err();
        assert!(err.instances > 4);
    }

    #[test]
    fn empty_slice_translates_to_true() {
        let (p, _) = setup("fn f(x) { return x; }");
        let slice = Slice::default();
        let mut pool = TermPool::new();
        let tr = translate(&p, &slice, &mut pool, &TranslateOptions::default()).unwrap();
        assert_eq!(pool.as_bool_const(tr.formula), Some(true));
    }
}
