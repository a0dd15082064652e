//! The fused multi-client pass must be invisible in the output.
//!
//! `analyze_multi*` runs every checker of a [`CheckerSet`] in **one**
//! pass: one discovery traversal fans out over `(checker, source)` work
//! items, sink groups are keyed on the sink function alone so queries
//! from different checkers share solver sessions and slice closures, and
//! one verdict cache covers the whole set. None of that fusion may reach
//! the user: on a borrowed engine and at every thread count (1–8), with
//! and without the verdict cache, with and without incremental
//! sessions, each checker's reports must be
//! *byte-identical* — same sources, sinks, verdicts, witness paths, in
//! the same order — to running that checker alone the old way, one
//! single-checker pass per checker. This is the contract DESIGN.md
//! ("Multi-client fusion") claims and the CLI's `--checker all` relies
//! on.
//!
//! The second half pins the *sharing* down: the verdict-cache key is
//! checker-independent (feasibility depends on path conditions, never on
//! the client fact), so when two different checkers query the same
//! dependence paths, the second answers entirely from the cache.

use fusion::cache::VerdictCache;
use fusion::checkers::{CheckKind, Checker, CheckerSet};
use fusion::engine::{
    analyze_multi_streaming_with_cache, analyze_multi_with_cache, AnalysisOptions,
    FeasibilityEngine, MultiAnalysisRun,
};
use fusion::graph_solver::FusionSolver;
use fusion::Feasibility;
use fusion_ir::{compile, CompileOptions, Program};
use fusion_pdg::graph::Pdg;
use fusion_smt::solver::SolverConfig;

/// Flows for all three default checkers, mixing feasible and infeasible
/// paths (`x * x == 3` has no solution modulo a power of two) and
/// several distinct sink functions so the driver has real groups to
/// schedule.
fn subject() -> (Program, Pdg) {
    let mut src = String::from(
        "extern fn deref(p); extern fn gets(); extern fn fopen(p);\n\
         extern fn getpass(); extern fn sendmsg(x); extern fn send(x);\n",
    );
    for i in 0..3 {
        let lo = i * 2;
        src.push_str(&format!(
            "fn n{i}(flag) {{\n\
               let q = null; let r = 1; let s = 1;\n\
               if (flag > {lo}) {{ r = q; }}\n\
               if (flag * flag == 3) {{ s = q; }}\n\
               deref(r); deref(s);\n\
               return 0;\n\
             }}\n\
             fn t{i}(flag) {{\n\
               let a = gets();\n\
               let c = 1; let d = 1;\n\
               if (flag > {lo}) {{ c = a + {i}; }}\n\
               if (flag * flag == 3) {{ d = a + {i}; }}\n\
               fopen(c); fopen(d);\n\
               return 0;\n\
             }}\n\
             fn p{i}(flag) {{\n\
               let a = getpass();\n\
               let c = 1; let d = 1;\n\
               if (flag > {lo}) {{ c = a * 2; }}\n\
               if (flag * flag == 3) {{ d = a * 2; }}\n\
               sendmsg(c); send(d);\n\
               return 0;\n\
             }}\n",
        ));
    }
    let program = compile(&src, CompileOptions::default()).expect("compile");
    let pdg = Pdg::build(&program);
    (program, pdg)
}

/// Everything that reaches the user, in a comparable form.
type ReportKey = (
    fusion_pdg::graph::Vertex,
    fusion_pdg::graph::Vertex,
    Feasibility,
    Vec<fusion_pdg::graph::Vertex>,
);

fn keys<'a>(reports: impl IntoIterator<Item = &'a fusion::BugReport>) -> Vec<ReportKey> {
    reports
        .into_iter()
        .map(|r| (r.source, r.sink, r.verdict, r.path.nodes.clone()))
        .collect()
}

/// Per-checker `(kind, report keys, suppressed)` of a fused run.
fn breakdown_keys(run: &MultiAnalysisRun) -> Vec<(CheckKind, Vec<ReportKey>, u64)> {
    run.checkers
        .iter()
        .map(|b| (b.kind, keys(&b.reports), b.stats.suppressed))
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
fn fused_equals_per_checker_loop_1_to_8_threads() {
    let (program, pdg) = subject();
    let set = CheckerSet::all();

    for use_cache in [false, true] {
        for incremental in [true, false] {
            let opts = if use_cache {
                AnalysisOptions::new()
            } else {
                AnalysisOptions::without_cache()
            };

            // The old way: one single-checker pass per checker, sharing
            // one verdict cache across the loop (as the CLI used to).
            let loop_cache = VerdictCache::new();
            let cache = use_cache.then_some(&loop_cache);
            let mut want = Vec::new();
            for checker in set.checkers() {
                let mut engine = FusionSolver::new(SolverConfig::default());
                engine.incremental = incremental;
                let single = CheckerSet::single(checker.clone());
                let run =
                    analyze_multi_with_cache(&program, &pdg, &single, &mut engine, &opts, cache)
                        .into_single();
                want.push((checker.kind, keys(&run.reports), run.suppressed as u64));
            }
            assert!(
                want.iter().all(|(_, k, s)| !k.is_empty() && *s > 0),
                "every checker must both report and suppress: {:?}",
                want.iter()
                    .map(|(kind, k, s)| (*kind, k.len(), *s))
                    .collect::<Vec<_>>()
            );

            // Fused, borrowed engine.
            let seq_cache = VerdictCache::new();
            let mut engine = FusionSolver::new(SolverConfig::default());
            engine.incremental = incremental;
            let fused = analyze_multi_with_cache(
                &program,
                &pdg,
                &set,
                &mut engine,
                &opts,
                use_cache.then_some(&seq_cache),
            );
            assert_eq!(
                breakdown_keys(&fused),
                want,
                "fused borrowed engine diverged at cache={use_cache} incremental={incremental}"
            );

            // Fused, factory-built engines, every thread count.
            for threads in 1..=8 {
                let run_cache = VerdictCache::new();
                let run = analyze_multi_streaming_with_cache(
                    &program,
                    &pdg,
                    &set,
                    &factory(incremental),
                    threads,
                    &opts,
                    use_cache.then_some(&run_cache),
                );
                assert_eq!(
                    breakdown_keys(&run),
                    want,
                    "fused run diverged at threads={threads} cache={use_cache} \
                     incremental={incremental}"
                );
            }
        }
    }
}

#[test]
fn cross_checker_queries_share_the_verdict_cache() {
    // Two checkers of different kinds over the *same* source and sink
    // functions: their candidates have byte-identical dependence paths,
    // so the verdict-cache key — a pure function of path content, with
    // no checker identity — must let the second checker answer every
    // query from the first checker's verdicts.
    let src = "extern fn gets(); extern fn fopen(p);\n\
         fn a(flag) {\n\
           let t = gets();\n\
           let c = 1; let d = 1;\n\
           if (flag > 1) { c = t + 1; }\n\
           if (flag * flag == 3) { d = t + 1; }\n\
           fopen(c); fopen(d);\n\
           return 0;\n\
         }";
    let program = compile(src, CompileOptions::default()).expect("compile");
    let pdg = Pdg::build(&program);
    let spec = |kind: CheckKind| Checker {
        kind,
        source_fns: vec!["gets".into()],
        sink_fns: vec!["fopen".into()],
        through_binary: true,
        through_extern: true,
        sanitizer_fns: Vec::new(),
    };
    let set = CheckerSet::new(vec![spec(CheckKind::Cwe23), spec(CheckKind::Cwe402)]);

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

    let [first, second] = &run.checkers[..] else {
        panic!("two breakdowns expected");
    };
    assert_eq!(first.stats.candidates, second.stats.candidates);
    assert!(
        first.stats.candidates > 0,
        "subject must discover candidates"
    );
    // The first client pays the solves...
    assert!(
        first.stats.queries > 0,
        "first checker must query the engine"
    );
    assert_eq!(
        first.stats.cache_hits, 0,
        "nothing cached before the first client"
    );
    // ...the second answers entirely from the shared cache: identical
    // path content, identical key, zero engine queries.
    assert_eq!(
        second.stats.queries, 0,
        "second checker must not re-solve shared paths"
    );
    assert!(
        second.stats.cache_hits > 0,
        "second checker must hit the cache"
    );
    assert_eq!(second.stats.cache_misses, 0);
    // And the verdicts are verbatim the same: same findings, same
    // suppressions, independent of the client fact.
    assert_eq!(keys(&first.reports), keys(&second.reports));
    assert_eq!(first.stats.suppressed, second.stats.suppressed);
    assert!(first.stats.suppressed > 0, "subject must suppress");
    assert!(!first.reports.is_empty(), "subject must report");
}
