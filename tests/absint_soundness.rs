//! Soundness properties of the abstract-interpretation triage
//! (`fusion::absint`).
//!
//! Three contracts, each checked against an independent oracle:
//!
//! 1. **Over-approximation** — on arbitrary generated programs and
//!    arbitrary concrete arguments, every definition's concrete value is
//!    admitted by its abstract fact: the interval contains it, the known
//!    bits agree with it, and the Const/Affine shape (when not Opaque)
//!    predicts it exactly. The oracle is the concrete core evaluator,
//!    which shares no code with the abstract transfer functions.
//! 2. **Refutations are genuine** — every dependence path the triage
//!    refutes is independently proven infeasible by Algorithm 4 (the
//!    unoptimized clone-everything graph solver), which never sees the
//!    abstract facts: its `translate()` pipeline is unseeded by design.
//! 3. **Refute-only invisibility** — the full fused analysis produces
//!    *byte-identical* per-checker reports with triage on and off, on a
//!    borrowed engine and at thread counts 1–8, with and without the
//!    verdict cache, with and without incremental sessions. Triage may
//!    only make the scan cheaper, never different.

use fusion::absint::ProgramFacts;
use fusion::cache::VerdictCache;
use fusion::checkers::{CheckKind, Checker, CheckerSet};
use fusion::engine::{
    analyze_multi_streaming_with_cache, analyze_multi_with_cache, AnalysisOptions, Feasibility,
    FeasibilityEngine, MultiAnalysisRun,
};
use fusion::graph_solver::{FusionSolver, UnoptimizedGraphSolver};
use fusion::propagate::{discover, PropagateOptions};
use fusion_ir::interp::eval_core;
use fusion_ir::{compile, compile_ast, CompileOptions, Program};
use fusion_pdg::graph::Pdg;
use fusion_smt::solver::SolverConfig;
use fusion_workloads::{generate, GenConfig};
use proptest::prelude::*;

/// Deterministic argument material (splitmix64).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mixed small/large argument values: small ones exercise the interval
/// component near its bounds, large ones the wrapping paths.
fn gen_args(n: usize, state: &mut u64) -> Vec<u32> {
    (0..n)
        .map(|_| {
            let raw = splitmix(state);
            match raw & 3 {
                0 => (raw >> 8) as u32 % 7,
                1 => u32::MAX - ((raw >> 8) as u32 % 5),
                _ => (raw >> 16) as u32,
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn abstract_facts_over_approximate_concrete_evaluation(
        seed in 0u64..100_000,
        arg_seed in 0u64..100_000,
    ) {
        let cfg = GenConfig { seed, functions: 10, ..Default::default() };
        let mut subject = generate(&cfg);
        let program =
            compile_ast(&subject.surface, &mut subject.interner, CompileOptions::default())
                .expect("compile");
        let facts = ProgramFacts::compute(&program);
        prop_assert!(facts.matches(&program));
        let mut state = seed ^ (arg_seed << 17) ^ 0xabcd_ef01;
        for func in &program.functions {
            if func.is_extern {
                continue;
            }
            for _trial in 0..4 {
                let args = gen_args(func.params.len(), &mut state);
                let Ok((ev, _)) = eval_core(&program, func.id, &args, 100_000) else {
                    continue; // pathological speculative call tree
                };
                for def in &func.defs {
                    let v = ev.values[def.var.index()];
                    let av = facts.value(func.id, def.var);
                    prop_assert!(
                        av.contains(v),
                        "seed {seed}: {}:{} = {v} outside {av:?}",
                        program.name(func.name),
                        def.var
                    );
                    prop_assert!(
                        av.shape_matches(v, &args),
                        "seed {seed}: {}:{} = {v} contradicts shape {av:?} (args {args:?})",
                        program.name(func.name),
                        def.var
                    );
                }
                prop_assert!(
                    facts.ret_fact(func.id).contains(ev.ret),
                    "seed {seed}: return fact of {} excludes {}",
                    program.name(func.name),
                    ev.ret
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn triage_refutations_are_unsat_under_algorithm_4(seed in 0u64..100_000) {
        let cfg = GenConfig { seed, functions: 10, ..Default::default() };
        let mut subject = generate(&cfg);
        let program =
            compile_ast(&subject.surface, &mut subject.interner, CompileOptions::default())
                .expect("compile");
        let pdg = Pdg::build(&program);
        let facts = ProgramFacts::compute(&program);
        // Algorithm 4 never sees the facts: `translate()` is unseeded by
        // design, so its verdicts are an independent oracle.
        let mut unopt = UnoptimizedGraphSolver::new(SolverConfig::default());
        for checker in [Checker::null_deref(), Checker::cwe23(), Checker::cwe402()] {
            let candidates = discover(&program, &pdg, &checker, &PropagateOptions::default());
            for cand in &candidates {
                for path in &cand.paths {
                    if !facts.path_refuted(&program, path, checker.kind) {
                        continue;
                    }
                    let out = unopt.check_paths(&program, &pdg, std::slice::from_ref(path));
                    prop_assert_eq!(
                        out.feasibility,
                        Feasibility::Infeasible,
                        "seed {}: triage refuted a path Algorithm 4 calls {:?} ({})",
                        seed,
                        out.feasibility,
                        checker.kind
                    );
                }
            }
        }
    }
}

/// Flows for all three default checkers with guards the triage *can*
/// refute (`flag * 2 == 5` fails on parity) next to guards it cannot
/// (`flag > k`, `flag * flag == 3` — the square's bits are unknown), so
/// both the triaged and the solver-decided code paths are exercised.
fn subject() -> (Program, Pdg) {
    let mut src = String::from(
        "extern fn deref(p); extern fn gets(); extern fn fopen(p);\n\
         extern fn getpass(); extern fn sendmsg(x); extern fn send(x);\n",
    );
    for i in 0..3 {
        let lo = i * 2;
        src.push_str(&format!(
            "fn n{i}(flag) {{\n\
               let q = null; let r = 1; let s = 1; let u = 1;\n\
               if (flag > {lo}) {{ r = q; }}\n\
               if (flag * 2 == 5) {{ s = q; }}\n\
               if (flag * flag == 3) {{ u = q; }}\n\
               deref(r); deref(s); deref(u);\n\
               return 0;\n\
             }}\n\
             fn t{i}(flag) {{\n\
               let a = gets();\n\
               let c = 1; let d = 1;\n\
               if (flag > {lo}) {{ c = a + {i}; }}\n\
               if (flag * 2 == 5) {{ d = a + {i}; }}\n\
               fopen(c); fopen(d);\n\
               return 0;\n\
             }}\n\
             fn p{i}(flag) {{\n\
               let a = getpass();\n\
               let c = 1; let d = 1;\n\
               if (flag > {lo}) {{ c = a * 2; }}\n\
               if (flag * 2 == 5) {{ d = a * 2; }}\n\
               sendmsg(c); send(d);\n\
               return 0;\n\
             }}\n",
        ));
    }
    let program = compile(&src, CompileOptions::default()).expect("compile");
    let pdg = Pdg::build(&program);
    (program, pdg)
}

type ReportKey = (
    fusion_pdg::graph::Vertex,
    fusion_pdg::graph::Vertex,
    Feasibility,
    Vec<fusion_pdg::graph::Vertex>,
);

fn breakdown_keys(run: &MultiAnalysisRun) -> Vec<(CheckKind, Vec<ReportKey>, usize)> {
    run.checkers
        .iter()
        .map(|b| {
            (
                b.kind,
                b.reports
                    .iter()
                    .map(|r| (r.source, r.sink, r.verdict, r.path.nodes.clone()))
                    .collect(),
                b.suppressed,
            )
        })
        .collect()
}

fn factory(incremental: bool) -> impl Fn() -> Box<dyn FeasibilityEngine> + Sync {
    move || {
        let mut engine = FusionSolver::new(SolverConfig::default());
        engine.incremental = incremental;
        Box::new(engine)
    }
}

#[test]
fn triage_on_equals_triage_off_across_all_drivers() {
    let (program, pdg) = subject();
    let set = CheckerSet::all();

    for use_cache in [true, false] {
        for incremental in [true, false] {
            let base = if use_cache {
                AnalysisOptions::new()
            } else {
                AnalysisOptions::without_cache()
            };
            let mut on = base.clone();
            on.absint = true;
            let mut off = base.clone();
            off.absint = false;

            // Reference: a borrowed engine with triage OFF — the pure
            // solver pipeline, no abstract facts anywhere.
            let off_cache = VerdictCache::new();
            let mut engine = FusionSolver::new(SolverConfig::default());
            engine.incremental = incremental;
            let reference = analyze_multi_with_cache(
                &program,
                &pdg,
                &set,
                &mut engine,
                &off,
                use_cache.then_some(&off_cache),
            );
            let want = breakdown_keys(&reference);
            assert!(
                want.iter().all(|(_, k, s)| !k.is_empty() && *s > 0),
                "subject must both report and suppress for every checker"
            );
            assert_eq!(
                reference.stages.triaged_paths, 0,
                "triage disabled must do zero triage"
            );

            // Borrowed engine with triage ON: identical bytes, nonzero
            // triage.
            let on_cache = VerdictCache::new();
            let mut engine = FusionSolver::new(SolverConfig::default());
            engine.incremental = incremental;
            let triaged = analyze_multi_with_cache(
                &program,
                &pdg,
                &set,
                &mut engine,
                &on,
                use_cache.then_some(&on_cache),
            );
            assert_eq!(
                breakdown_keys(&triaged),
                want,
                "triage changed borrowed-engine reports at cache={use_cache} \
                 incremental={incremental}"
            );
            assert!(
                triaged.stages.triaged_paths > 0,
                "the parity guards must be triaged"
            );
            assert!(
                triaged.stages.triaged_candidates > 0,
                "fully-refuted candidates must skip the solver entirely"
            );

            // Factory-built engines, triage on and off, every thread
            // count.
            for threads in 1..=8 {
                for (label, opts) in [("on", &on), ("off", &off)] {
                    let run_cache = VerdictCache::new();
                    let run = analyze_multi_streaming_with_cache(
                        &program,
                        &pdg,
                        &set,
                        &factory(incremental),
                        threads,
                        opts,
                        use_cache.then_some(&run_cache),
                    );
                    assert_eq!(
                        breakdown_keys(&run),
                        want,
                        "absint={label} diverged at threads={threads} \
                         cache={use_cache} incremental={incremental}"
                    );
                }
            }
        }
    }
}

#[test]
fn triage_counters_report_avoided_work() {
    let (program, pdg) = subject();
    let set = CheckerSet::all();
    let cache = VerdictCache::new();
    let mut engine = FusionSolver::new(SolverConfig::default());
    let run = analyze_multi_with_cache(
        &program,
        &pdg,
        &set,
        &mut engine,
        &AnalysisOptions::new(),
        Some(&cache),
    );
    // Fully-triaged candidates skip their slice closure; their groups may
    // skip the session.
    assert!(run.stages.triaged_paths >= run.stages.triaged_candidates);
    assert!(run.stages.slices_skipped > 0);
    // Triage never *adds* queries: every triaged candidate with all paths
    // refuted contributes zero queries.
    let mut engine_off = FusionSolver::new(SolverConfig::default());
    let mut off = AnalysisOptions::new();
    off.absint = false;
    let cache_off = VerdictCache::new();
    let run_off = analyze_multi_with_cache(
        &program,
        &pdg,
        &set,
        &mut engine_off,
        &off,
        Some(&cache_off),
    );
    let q_on: usize = run.checkers.iter().map(|b| b.queries).sum();
    let q_off: usize = run_off.checkers.iter().map(|b| b.queries).sum();
    assert!(
        q_on < q_off,
        "triage must strictly reduce solver queries ({q_on} vs {q_off})"
    );
    assert!(
        run.stages.sessions_opened <= run_off.stages.sessions_opened,
        "triage must never open more sessions"
    );
    assert!(
        run.stages.slices_computed < run_off.stages.slices_computed,
        "fully-triaged candidates must skip slice closures"
    );
}
