//! The steps of a partitioned scan must be invisible in the output.
//!
//! `fusion-scan` no longer runs partitioned scans; the steps stay only
//! for the end-to-end benchmark's `sharded-scan` workload, and these
//! tests drive them the way that workload does: snapshot the program,
//! plan K shards, run each shard that owns a function against the
//! snapshot with only its closure materialized, merge the outcomes and
//! replay them over the full program. On arbitrary generated
//! multi-module programs the merged report must be *byte-identical* —
//! same checkers, sources, sinks, verdicts, witness paths, and
//! inter-procedural links, in the same order — to the unsharded
//! pipeline, across K ∈ {1, 2, 4, 8}, thread counts 1–8 and three
//! cache/absint/incremental corners. The merge must be a *pure
//! replay*: zero solver queries after the shards hand in their
//! outcomes. And on a multi-module subject whose modules share only
//! extern declarations, every shard must peak below the unsharded scan.

use fusion::cache::VerdictCache;
use fusion::checkers::CheckerSet;
use fusion::engine::{
    analyze_multi_streaming_with_cache, AnalysisOptions, Feasibility, FeasibilityEngine,
    MultiAnalysisRun,
};
use fusion::graph_solver::FusionSolver;
use fusion::partition::ShardPlan;
use fusion::shard::{merge_outcomes, replay_merged, run_shard, scan_snapshot};
use fusion::slice_cache::SliceCache;
use fusion::snapshot::{open_bytes, CallGraphInfo};
use fusion_ir::{compile, CompileOptions, Program};
use fusion_pdg::graph::Pdg;
use fusion_pdg::paths::Link;
use fusion_smt::solver::SolverConfig;
use fusion_workloads::{generate_multi, GenConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// Everything that reaches the user, in a comparable form, per checker —
/// including the inter-procedural links of the witness path.
type ReportKey = (
    usize,
    fusion_pdg::graph::Vertex,
    fusion_pdg::graph::Vertex,
    Feasibility,
    Vec<fusion_pdg::graph::Vertex>,
    Vec<Link>,
);

fn keys(run: &MultiAnalysisRun) -> Vec<ReportKey> {
    run.checkers
        .iter()
        .enumerate()
        .flat_map(|(i, b)| {
            b.reports.iter().map(move |r| {
                (
                    i,
                    r.source,
                    r.sink,
                    r.verdict,
                    r.path.nodes.clone(),
                    r.path.links.clone(),
                )
            })
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

fn options(use_cache: bool, absint: bool) -> AnalysisOptions {
    let mut o = if use_cache {
        AnalysisOptions::new()
    } else {
        AnalysisOptions::without_cache()
    };
    o = o.with_slice_cache(Arc::new(SliceCache::new()));
    o.absint = absint;
    o
}

fn compile_src(src: &str) -> Program {
    compile(src, CompileOptions::default()).expect("compile")
}

fn subject(seed: u64, modules: usize) -> String {
    let cfg = GenConfig {
        seed,
        functions: 6,
        ..Default::default()
    };
    generate_multi(&cfg, modules)
}

/// A K-way partitioned scan, step by step.
struct Sharded {
    /// The merged outcomes replayed over the full program.
    run: MultiAnalysisRun,
    /// Functions each shard that ran owned, summed.
    owned: u64,
    /// Summaries the shards imported, summed.
    imported: u64,
    /// Tracked peak of each shard that ran, bytes.
    peaks: Vec<u64>,
}

/// One shared verdict cache serves every shard and the replay.
fn sharded(
    program: &Program,
    set: &CheckerSet,
    make: &(dyn Fn() -> Box<dyn FeasibilityEngine> + Sync),
    threads: usize,
    opts: &AnalysisOptions,
    cache: Option<&VerdictCache>,
    k: usize,
) -> Sharded {
    let snap = open_bytes(scan_snapshot(program, opts)).expect("fresh snapshot opens");
    let info = CallGraphInfo::of_program(program);
    let plan = ShardPlan::compute(&info, k);
    let (mut owned, mut imported) = (0, 0);
    let mut peaks = Vec::new();
    let mut parts = Vec::new();
    for s in (0..plan.k()).filter(|&s| !plan.owned(s).is_empty()) {
        owned += plan.owned(s).len() as u64;
        let out = run_shard(&snap, &info, &plan, s, set, make, threads, opts, cache)
            .expect("shard reads its snapshot");
        imported += out.imported;
        peaks.push(out.peak_memory);
        parts.push(out.outcomes);
    }
    let merged = merge_outcomes(parts);
    let run = replay_merged(program, set, make, threads, opts, cache, &merged);
    Sharded {
        run,
        owned,
        imported,
        peaks,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Random multi-module program: the merged report equals the
    /// unsharded streaming report at every K, thread count, and flag
    /// corner — and the merge replays without a single solver query.
    #[test]
    fn sharded_report_equals_unsharded(seed in 0u64..100_000, modules in 2usize..4) {
        let src = subject(seed, modules);
        let program = compile_src(&src);
        let pdg = Pdg::build(&program);
        let set = CheckerSet::new(fusion::checkers::default_checkers());
        let non_extern = program.functions.iter().filter(|f| !f.is_extern).count() as u64;

        // (use_cache, absint, incremental): the full
        // default stack, everything off, and a mixed corner.
        let configs = [
            (true, true, true),
            (false, false, false),
            (true, false, false),
        ];
        for (use_cache, absint, incremental) in configs {
            for threads in [1usize, 2, 4, 8] {
                let base_opts = options(use_cache, absint);
                let base_cache = VerdictCache::new();
                let base = analyze_multi_streaming_with_cache(
                    &program, &pdg, &set, &factory(incremental), threads,
                    &base_opts, use_cache.then_some(&base_cache),
                );
                let base_keys = keys(&base);
                for k in [1usize, 2, 4, 8] {
                    let opts = options(use_cache, absint);
                    let cache = VerdictCache::new();
                    let got = sharded(
                        &program, &set, &factory(incremental), threads,
                        &opts, use_cache.then_some(&cache), k,
                    );
                    prop_assert_eq!(
                        &base_keys, &keys(&got.run),
                        "sharded diverged at seed {} modules {} k {} threads {} \
                         cache={} absint={} incremental={}",
                        seed, modules, k, threads,
                        use_cache, absint, incremental
                    );
                    prop_assert_eq!(
                        got.run.queries, 0,
                        "the merge replay must not query the solver"
                    );
                    prop_assert_eq!(got.owned, non_extern, "ownership is a partition");
                    // Demand-driven imports: a shard imports at most its
                    // closure minus what it owns — never the program.
                    prop_assert!(
                        got.imported < non_extern.max(1) * k as u64,
                        "imported {} summaries with {} functions at k={}",
                        got.imported, non_extern, k
                    );
                }
            }
        }
    }
}

/// On a small instance of eight disconnected modules that share only
/// extern declarations, a shard's closure holds only the modules it
/// owns, so at K = 4 every shard peaks strictly below the unsharded
/// scan, while the merged report stays identical and replays with zero
/// queries. One thread keeps every tracked peak deterministic.
#[test]
fn four_shards_of_eight_modules_each_peak_below_the_unsharded_scan() {
    let cfg = GenConfig {
        seed: 0x5AAD,
        functions: 12,
        stmts_per_function: 60,
        branch_density: 0.3,
        null_feasible: 4,
        null_infeasible: 12,
        cwe23_feasible: 2,
        cwe23_infeasible: 6,
        cwe402_feasible: 2,
        cwe402_infeasible: 6,
        ..Default::default()
    };
    let program = compile_src(&generate_multi(&cfg, 8));
    let set = CheckerSet::new(fusion::checkers::default_checkers());
    let make = factory(true);
    let base_cache = VerdictCache::new();
    let base = analyze_multi_streaming_with_cache(
        &program,
        &Pdg::build(&program),
        &set,
        &make,
        1,
        &options(true, true),
        Some(&base_cache),
    );
    let cache = VerdictCache::new();
    let got = sharded(
        &program,
        &set,
        &make,
        1,
        &options(true, true),
        Some(&cache),
        4,
    );
    assert!(!keys(&base).is_empty(), "the subject has findings");
    assert_eq!(keys(&got.run), keys(&base));
    assert_eq!(got.run.queries, 0, "the merge replay must not query");
    assert_eq!(got.peaks.len(), 4, "every shard owns a module");
    for (s, &peak) in got.peaks.iter().enumerate() {
        assert!(
            peak < base.peak_memory,
            "shard {s} peaked at {peak} bytes, not below the unsharded {}",
            base.peak_memory
        );
    }
}
