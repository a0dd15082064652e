//! Pinpoint+AR: the abstraction-refinement baseline.
//!
//! "This AR method does not immediately compute a full path condition ...
//! it firstly computes and solves an intra-procedural condition and
//! gradually extends the condition by adding conditions from callers and
//! callees until the condition satisfiability can be decided." (§5.1)
//!
//! Dropping inter-procedural bindings *over-approximates* feasibility
//! (freed parameters and call results can take any value), so:
//!
//! * UNSAT at any abstraction level ⇒ truly infeasible (early exit);
//! * SAT at the *full* depth ⇒ truly feasible;
//! * SAT at a truncated depth ⇒ refine: include one more level of clones
//!   and solve again — the repeated solver invocations that make AR slow.

use fusion::engine::{CheckOutcome, Feasibility, FeasibilityEngine, SolveRecord};
use fusion::memory::{Category, MemoryAccountant, BYTES_PER_TERM_NODE};
use fusion_ir::ssa::{CallSiteId, DefKind, FuncId, Program};
use fusion_pdg::graph::Pdg;
use fusion_pdg::paths::DependencePath;
use fusion_pdg::slice::{compute_slice, Constraint, ConstraintKind, Slice};
use fusion_pdg::translate::{instance_var, intern_ctx, truthy, Instances};
use fusion_smt::solver::{deadline_expired, smt_solve, SatResult, SolverConfig};
use fusion_smt::term::{CtxId, TermId, TermPool};

/// The abstraction-refinement engine.
#[derive(Debug)]
pub struct ArEngine {
    /// Per-refinement-iteration SMT budget.
    pub per_call: SolverConfig,
    /// Hard cap on refinement iterations (then Unknown).
    pub max_refinements: usize,
    /// Instance budget per iteration.
    pub max_instances: usize,
    memory: MemoryAccountant,
    records: Vec<SolveRecord>,
}

impl ArEngine {
    /// Creates the engine.
    pub fn new(per_call: SolverConfig) -> Self {
        Self {
            per_call,
            max_refinements: 16,
            max_instances: 1 << 14,
            memory: MemoryAccountant::new(),
            records: Vec::new(),
        }
    }

    /// Emits the condition truncated at context depth `depth`: instances
    /// with longer call strings are not materialized, leaving their
    /// interface variables free (the abstraction). Returns `(formula,
    /// instances, complete)` where `complete` means nothing was truncated.
    fn emit(
        program: &Program,
        slice: &Slice,
        pool: &mut TermPool,
        depth: usize,
        max_instances: usize,
    ) -> Option<(TermId, usize, bool)> {
        let mut parts: Vec<TermId> = Vec::new();
        let mut instances = Instances::default();
        let mut complete = true;
        let schedule = |pool: &TermPool,
                        instances: &mut Instances,
                        complete: &mut bool,
                        ctx: CtxId,
                        f: FuncId| {
            if pool.ctx_depth(ctx) > depth {
                *complete = false; // truncated by the abstraction
                return;
            }
            instances.schedule(ctx, f);
        };
        for Constraint { ctx, func, kind } in &slice.constraints {
            // Constraint instances are always materialized (they sit at
            // the abstraction's root).
            let ctx = intern_ctx(pool, ctx);
            instances.schedule(ctx, *func);
            let f = program.func(*func);
            match kind {
                ConstraintKind::BranchTrue { branch } => {
                    let DefKind::Branch { cond } = f.def(*branch).kind else {
                        unreachable!("guards are branches")
                    };
                    let cv = instance_var(pool, ctx, *func, cond);
                    let t = truthy(pool, cv);
                    parts.push(t);
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
        }
        while let Some((ctx, fid)) = instances.pop() {
            if instances.len() > max_instances {
                return None;
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
                        schedule(pool, &mut instances, &mut complete, caller_ctx, cs.caller);
                        pool.eq(lhs, rhs)
                    }
                    DefKind::Const { value, .. } => {
                        let k = pool.bv_const(*value as u64, fusion_ir::ssa::WORD_BITS);
                        pool.eq(lhs, k)
                    }
                    DefKind::Copy { src } | DefKind::Return { src } => {
                        let rhs = instance_var(pool, ctx, fid, *src);
                        pool.eq(lhs, rhs)
                    }
                    DefKind::Binary { op, lhs: a, rhs: b } => {
                        let ta = instance_var(pool, ctx, fid, *a);
                        let tb = instance_var(pool, ctx, fid, *b);
                        let rhs = fusion_pdg::translate::encode_op(pool, *op, ta, tb);
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
                            continue;
                        }
                        if pool.ctx_depth(ctx) + 1 > depth {
                            complete = false; // dst left free
                            continue;
                        }
                        let sub_ctx = pool.ctx_push(ctx, site.0);
                        let ret = callee_f.ret.expect("non-extern has a return");
                        let rhs = instance_var(pool, sub_ctx, *callee, ret);
                        schedule(pool, &mut instances, &mut complete, sub_ctx, *callee);
                        pool.eq(lhs, rhs)
                    }
                    DefKind::Branch { .. } => continue,
                };
                parts.push(equation);
            }
        }
        Some((pool.and(&parts), instances.len(), complete))
    }
}

impl FeasibilityEngine for ArEngine {
    fn name(&self) -> &'static str {
        "pinpoint+ar"
    }

    fn check_paths(
        &mut self,
        program: &Program,
        pdg: &Pdg,
        paths: &[DependencePath],
    ) -> CheckOutcome {
        let start = std::time::Instant::now();
        // One deadline for the *whole* call: AR's repeated refinement
        // rounds share the budget, so a query that keeps refining degrades
        // to Unknown when the budget runs out instead of stalling a worker
        // for max_refinements × timeout.
        let deadline = self.per_call.deadline_from(start);
        let slice = compute_slice(program, pdg, paths);
        let base_depth = slice
            .constraints
            .iter()
            .map(|c| c.ctx.len())
            .max()
            .unwrap_or(0);
        let mut last_instances = 0usize;
        let mut decided = false;
        for round in 0..self.max_refinements {
            if deadline_expired(deadline) {
                break; // budget exhausted mid-refinement → Unknown
            }
            let depth = base_depth + round;
            // Fresh pool per refinement: AR recomputes the growing
            // condition each round (its cost signature).
            let mut pool = TermPool::new();
            let Some((formula, instances, complete)) =
                Self::emit(program, &slice, &mut pool, depth, self.max_instances)
            else {
                break; // instance blow-up
            };
            last_instances = instances;
            let Some(cfg) = self.per_call.with_remaining(deadline) else {
                break; // budget exhausted after emission → Unknown
            };
            let (result, stats) = smt_solve(&mut pool, formula, &cfg);
            let transient = pool.len() as u64 * BYTES_PER_TERM_NODE + stats.cnf_clauses as u64 * 16;
            self.memory.charge(Category::SolverState, transient);
            self.memory.release(Category::SolverState, transient);
            decided = stats.preprocess_decided;
            let feasibility = match result {
                SatResult::Unsat => Some(Feasibility::Infeasible),
                SatResult::Sat(_) if complete => Some(Feasibility::Feasible),
                SatResult::Sat(_) => None, // refine
                SatResult::Unknown => Some(Feasibility::Unknown),
            };
            if let Some(f) = feasibility {
                let outcome = CheckOutcome {
                    feasibility: f,
                    duration: start.elapsed(),
                    condition_nodes: pool.dag_size(formula) as u64,
                    instances,
                    preprocess_decided: decided,
                };
                self.records.push(SolveRecord::from_outcome(&outcome));
                return outcome;
            }
        }
        let outcome = CheckOutcome {
            feasibility: Feasibility::Unknown,
            duration: start.elapsed(),
            condition_nodes: 0,
            instances: last_instances,
            preprocess_decided: decided,
        };
        self.records.push(SolveRecord::from_outcome(&outcome));
        outcome
    }

    fn memory(&self) -> &MemoryAccountant {
        &self.memory
    }

    fn records(&self) -> &[SolveRecord] {
        &self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion::checkers::Checker;
    use fusion::engine::{analyze, AnalysisOptions};
    use fusion::graph_solver::FusionSolver;
    use fusion_ir::{compile, CompileOptions};

    fn run_with(src: &str, engine: &mut dyn FeasibilityEngine) -> (usize, usize) {
        let p = compile(src, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let run = analyze(
            &p,
            &g,
            &Checker::null_deref(),
            engine,
            &AnalysisOptions::new(),
        );
        (run.reports.len(), run.suppressed)
    }

    #[test]
    fn ar_agrees_with_fusion() {
        let src = "extern fn deref(p);\n\
            fn bar(x) { return x * 2; }\n\
            fn f1(a, b) { let q = null; let r = 1; if (bar(a) < bar(b)) { r = q; } deref(r); return 0; }\n\
            fn f2(x) { let q = null; let r = 1; if (x > 5) { if (x < 3) { r = q; } } deref(r); return 0; }\n\
            fn f3() { let q = null; let r = 1; if (bar(3) > 100) { r = q; } deref(r); return 0; }";
        let mut ar = ArEngine::new(SolverConfig::default());
        let mut fused = FusionSolver::new(SolverConfig::default());
        assert_eq!(run_with(src, &mut ar), run_with(src, &mut fused));
    }

    #[test]
    fn ar_exits_early_on_intra_unsat() {
        // The contradiction is intra-procedural: AR must decide at depth 0
        // without descending into the callee.
        let src = "extern fn deref(p);\n\
            fn deep(x) { return x + 1; }\n\
            fn f(x) { let q = null; let r = 1; \
              if (x > 5) { if (x < 3) { if (deep(x) > 0) { r = q; } } } \
              deref(r); return 0; }";
        let p = compile(src, CompileOptions::default()).unwrap();
        let g = Pdg::build(&p);
        let mut ar = ArEngine::new(SolverConfig::default());
        let run = analyze(
            &p,
            &g,
            &Checker::null_deref(),
            &mut ar,
            &AnalysisOptions::new(),
        );
        assert_eq!(run.suppressed, 1);
        // The record shows a small instance count (no deep clone needed).
        assert!(ar.records()[0].condition_nodes > 0);
    }

    #[test]
    fn ar_refines_to_feasible() {
        let src = "extern fn deref(p);\n\
            fn two(x) { return x * 2; }\n\
            fn f(a) { let q = null; let r = 1; if (two(a) == 14) { r = q; } deref(r); return 0; }";
        let mut ar = ArEngine::new(SolverConfig::default());
        assert_eq!(run_with(src, &mut ar), (1, 0));
    }
}
