//! Property test: PDG compaction is report-preserving on arbitrary
//! generated subjects.
//!
//! The pre-discovery graph-reduction pass (frontier pruning, summary-
//! chain collapse, isomorphic-verdict sharing — DESIGN.md "PDG
//! compaction") removes *work*, never *findings*: for any generated
//! program, on a borrowed engine and at any thread count 1–8, with and
//! without the verdict cache, with and without incremental sessions,
//! with and without abstract-interpretation triage, the compacted scan
//! must produce per-checker reports byte-identical — same sources,
//! sinks, verdicts, witness paths, in the same order — to the
//! uncompacted borrowed-engine scan.
//!
//! The second assertion pins the replay layer down: a collapsed summary
//! chain is re-expanded into the *original* vertex sequence when a path
//! is recorded, so the [`path_set_key`] of every reported witness path
//! is bit-for-bit the key plain discovery would have produced. This is
//! what lets compacted and uncompacted runs share one verdict-cache
//! population.

use fusion::cache::VerdictCache;
use fusion::checkers::CheckerSet;
use fusion::engine::{
    analyze_multi_streaming_with_cache, analyze_multi_with_cache, AnalysisOptions,
    FeasibilityEngine, MultiAnalysisRun,
};
use fusion::graph_solver::FusionSolver;
use fusion::{path_set_key, Feasibility, Key128};
use fusion_ir::{compile_ast, CompileOptions, Program};
use fusion_pdg::graph::Pdg;
use fusion_smt::solver::SolverConfig;
use fusion_workloads::{generate, GenConfig};
use proptest::prelude::*;

/// Everything that reaches the user, plus the verdict-cache key of the
/// witness path — the latter must survive chain collapse bit-for-bit.
type ReportKey = (
    fusion_pdg::graph::Vertex,
    fusion_pdg::graph::Vertex,
    Feasibility,
    Vec<fusion_pdg::graph::Vertex>,
    Key128,
);

fn breakdown_keys(program: &Program, run: &MultiAnalysisRun) -> Vec<Vec<ReportKey>> {
    run.checkers
        .iter()
        .map(|b| {
            b.reports
                .iter()
                .map(|r| {
                    (
                        r.source,
                        r.sink,
                        r.verdict,
                        r.path.nodes.clone(),
                        path_set_key(program, std::slice::from_ref(&r.path)),
                    )
                })
                .collect()
        })
        .collect()
}

/// One `(cache, incremental, absint)` configuration and its options.
fn options(cache: bool, absint: bool, compact: bool) -> AnalysisOptions {
    let base = if cache {
        AnalysisOptions::new()
    } else {
        AnalysisOptions::without_cache()
    };
    AnalysisOptions {
        absint,
        compact,
        ..base
    }
}

fn factory(incremental: bool) -> impl Fn() -> Box<dyn FeasibilityEngine> + Sync {
    move || {
        let mut engine = FusionSolver::new(SolverConfig::default());
        engine.incremental = incremental;
        Box::new(engine)
    }
}

fn borrowed(
    program: &Program,
    pdg: &Pdg,
    set: &CheckerSet,
    incremental: bool,
    opts: &AnalysisOptions,
    cache: Option<&VerdictCache>,
) -> MultiAnalysisRun {
    let mut engine = FusionSolver::new(SolverConfig::default());
    engine.incremental = incremental;
    analyze_multi_with_cache(program, pdg, set, &mut engine, opts, cache)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn compaction_preserves_reports_everywhere(seed in 0u64..100_000) {
        let cfg = GenConfig { seed, functions: 8, ..Default::default() };
        let mut subject = generate(&cfg);
        let program =
            compile_ast(&subject.surface, &mut subject.interner, CompileOptions::default())
                .expect("compile");
        let pdg = Pdg::build(&program);
        let set = CheckerSet::all();

        // All (cache, incremental, absint) configurations. The
        // uncompacted borrowed-engine run of each is the reference its
        // compacted runs must reproduce.
        let combos: Vec<(bool, bool, bool)> = (0..8)
            .map(|i| (i & 1 != 0, i & 2 != 0, i & 4 != 0))
            .collect();
        let mut wants = Vec::new();
        for &(use_cache, incremental, absint) in &combos {
            let plain_cache = VerdictCache::new();
            let plain = borrowed(
                &program,
                &pdg,
                &set,
                incremental,
                &options(use_cache, absint, false),
                use_cache.then_some(&plain_cache),
            );
            let want = breakdown_keys(&program, &plain);
            prop_assert_eq!(plain.stages.vertices_pruned, 0);

            let on_cache = VerdictCache::new();
            let compacted = borrowed(
                &program,
                &pdg,
                &set,
                incremental,
                &options(use_cache, absint, true),
                use_cache.then_some(&on_cache),
            );
            prop_assert_eq!(
                breakdown_keys(&program, &compacted),
                want.clone(),
                "borrowed engine diverged at seed {} cache={} incremental={} absint={}",
                seed, use_cache, incremental, absint
            );
            wants.push(want);
        }

        // Factory-built engines, every thread count 1–8, rotating
        // through the configurations so the sweep covers all of them.
        for threads in 1..=8usize {
            let (use_cache, incremental, absint) = combos[threads - 1];
            let want = &wants[threads - 1];
            let opts = options(use_cache, absint, true);
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
            prop_assert_eq!(
                &breakdown_keys(&program, &run),
                want,
                "diverged at seed {} threads={} cache={} incremental={} absint={}",
                seed, threads, use_cache, incremental, absint
            );
        }
    }
}
