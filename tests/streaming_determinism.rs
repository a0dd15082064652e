//! Thread count must be invisible in the output.
//!
//! The analysis has one driver. On a borrowed engine, or one thread, it
//! discovers each source and solves its sink groups inline; on more
//! threads, discovery producers stream sink groups through bounded
//! queues into sticky solve workers while later sources are still being
//! explored. None of that scheduling may reach the user: for every
//! thread count, with and without the verdict cache, with and without
//! incremental sessions, the reports must be *byte-identical* — same
//! sources, sinks, verdicts, witness paths, in the same order — to a
//! borrowed-engine run. This is the contract DESIGN.md ("Analysis
//! pipeline") claims and the CLI's `--threads` relies on.

use fusion::cache::VerdictCache;
use fusion::checkers::{Checker, CheckerSet};
use fusion::engine::{
    analyze, analyze_multi_streaming_with_cache, analyze_multi_with_cache, AnalysisOptions,
    AnalysisRun, Feasibility, FeasibilityEngine, MultiAnalysisRun,
};
use fusion::graph_solver::FusionSolver;
use fusion_ir::{compile, CompileOptions, Program};
use fusion_pdg::graph::Pdg;
use fusion_smt::solver::SolverConfig;
use std::time::Duration;

/// Several source functions across several sink functions, mixing
/// feasible and infeasible flows (`x * x == 3` has no solution modulo a
/// power of two), so streaming has real groups to overlap and verdicts
/// are non-trivial.
fn subject() -> (Program, Pdg, Checker) {
    let mut src = String::from("extern fn getpass(); extern fn sendmsg(x);\n");
    for i in 0..6 {
        let lo = i * 2;
        src.push_str(&format!(
            "fn f{i}(flag) {{\n\
               let a = getpass();\n\
               let c = 1; let d = 1; let e = 1;\n\
               if (flag > {lo}) {{ c = a + {i}; }}\n\
               if (flag * flag == 3) {{ d = a + {i}; }}\n\
               if (flag < {hi}) {{ e = a * 2; }}\n\
               sendmsg(c);\n\
               sendmsg(d);\n\
               sendmsg(e);\n\
               return 0;\n\
             }}\n",
            hi = lo + 5,
        ));
    }
    let program = compile(&src, CompileOptions::default()).expect("compile");
    let pdg = Pdg::build(&program);
    (program, pdg, Checker::cwe402())
}

/// Everything that reaches the user, in a comparable form.
type ReportKey = (
    fusion_pdg::graph::Vertex,
    fusion_pdg::graph::Vertex,
    Feasibility,
    Vec<fusion_pdg::graph::Vertex>,
);

fn keys(run: &AnalysisRun) -> Vec<ReportKey> {
    run.reports
        .iter()
        .map(|r| (r.source, r.sink, r.verdict, r.path.nodes.clone()))
        .collect()
}

fn factory(incremental: bool) -> impl Fn() -> Box<dyn FeasibilityEngine> + Sync {
    move || {
        let mut engine = FusionSolver::new(SolverConfig::default());
        engine.incremental = incremental;
        Box::new(engine)
    }
}

/// One checker on `threads` factory-built engines.
fn threaded(
    program: &Program,
    pdg: &Pdg,
    checker: &Checker,
    factory: &(dyn Fn() -> Box<dyn FeasibilityEngine> + Sync),
    threads: usize,
    opts: &AnalysisOptions,
    cache: Option<&VerdictCache>,
) -> AnalysisRun {
    let set = CheckerSet::single(checker.clone());
    analyze_multi_streaming_with_cache(program, pdg, &set, factory, threads, opts, cache)
        .into_single()
}

#[test]
fn one_driver_matches_borrowed_engine_1_to_8_threads() {
    let (program, pdg, checker) = subject();

    for use_cache in [false, true] {
        for incremental in [true, false] {
            let opts = if use_cache {
                AnalysisOptions::new()
            } else {
                AnalysisOptions::without_cache()
            };
            // The borrowed-engine run is the reference transcript.
            let mut reference_engine = FusionSolver::new(SolverConfig::default());
            reference_engine.incremental = incremental;
            let reference = analyze(&program, &pdg, &checker, &mut reference_engine, &opts);
            assert!(!reference.reports.is_empty(), "subject must report");
            assert!(reference.suppressed > 0, "subject must suppress");
            let want = keys(&reference);

            for threads in 1..=8 {
                // A fresh cache per run: each configuration must stand alone.
                let run_cache = VerdictCache::new();
                let run = threaded(
                    &program,
                    &pdg,
                    &checker,
                    &factory(incremental),
                    threads,
                    &opts,
                    use_cache.then_some(&run_cache),
                );
                assert_eq!(
                    keys(&run),
                    want,
                    "diverged at threads={threads} cache={use_cache} \
                     incremental={incremental}"
                );
                assert_eq!(run.suppressed, reference.suppressed);
                assert_eq!(run.candidates, reference.candidates);
            }
        }
    }
}

/// Every counter of a fused run except wall-clock times, in a
/// comparable form.
fn counters(run: &MultiAnalysisRun) -> String {
    let mut stages = run.stages;
    stages.discover_wall = Duration::ZERO;
    stages.slice_wall = Duration::ZERO;
    stages.translate_wall = Duration::ZERO;
    stages.solve_wall = Duration::ZERO;
    let checkers: Vec<_> = run
        .checkers
        .iter()
        .map(|b| {
            (
                b.kind,
                b.reports.len(),
                b.suppressed,
                b.candidates,
                b.queries,
                b.cache_hits,
                b.cache_misses,
                b.discovery_steps,
            )
        })
        .collect();
    format!(
        "candidates={} queries={} peak={} cache={:?} slice={:?} stages={stages:?} \
         checkers={checkers:?}",
        run.candidates, run.queries, run.peak_memory, run.cache, run.slice
    )
}

#[test]
fn borrowed_engine_run_matches_one_thread_factory_run() {
    // A borrowed engine and one factory-built engine run the same inline
    // loop, so reports, the memory peak and every non-wall counter must
    // be *equal*, not merely close.
    let (program, pdg, checker) = subject();
    let set = CheckerSet::single(checker);
    for use_cache in [false, true] {
        // Fresh options per run: `AnalysisOptions::new()` carries a fresh
        // slice memo, so neither run warms the other's.
        let opts = || {
            if use_cache {
                AnalysisOptions::new()
            } else {
                AnalysisOptions::without_cache()
            }
        };
        let borrowed_cache = VerdictCache::new();
        let mut engine = FusionSolver::new(SolverConfig::default());
        let borrowed = analyze_multi_with_cache(
            &program,
            &pdg,
            &set,
            &mut engine,
            &opts(),
            use_cache.then_some(&borrowed_cache),
        );
        let built_cache = VerdictCache::new();
        let built = analyze_multi_streaming_with_cache(
            &program,
            &pdg,
            &set,
            &factory(true),
            1,
            &opts(),
            use_cache.then_some(&built_cache),
        );
        let reports = |run: &MultiAnalysisRun| {
            run.all_reports()
                .map(|r| (r.source, r.sink, r.verdict, r.path.nodes.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(reports(&borrowed), reports(&built), "cache={use_cache}");
        assert!(borrowed.peak_memory > 0);
        assert_eq!(counters(&borrowed), counters(&built), "cache={use_cache}");
    }
}

#[test]
fn slice_memo_is_shared_across_runs() {
    // `AnalysisOptions::new()` carries one shared slice cache; a second
    // run over the same program with a *fresh* verdict cache re-issues
    // every query but must answer every closure request from the memo.
    let (program, pdg, checker) = subject();
    let opts = AnalysisOptions::new();

    let cold_cache = VerdictCache::new();
    let cold = threaded(
        &program,
        &pdg,
        &checker,
        &factory(true),
        4,
        &opts,
        Some(&cold_cache),
    );
    assert!(
        cold.stages.slices_computed > 0,
        "cold run must compute closures"
    );
    assert!(cold.stages.discovery_shards >= 1);

    let warm_cache = VerdictCache::new();
    let warm = threaded(
        &program,
        &pdg,
        &checker,
        &factory(true),
        4,
        &opts,
        Some(&warm_cache),
    );
    assert_eq!(keys(&cold), keys(&warm));
    assert!(warm.queries > 0, "fresh verdict cache must re-query");
    assert_eq!(
        warm.stages.slices_computed, 0,
        "warm run must answer every closure request from the shared memo \
         (reused {} of {} queries)",
        warm.stages.slices_reused, warm.queries
    );
    assert!(warm.stages.slices_reused > 0);
    assert!(warm.slice.hits > 0, "slice-cache hits must be observable");
}
