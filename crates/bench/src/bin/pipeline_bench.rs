//! `pipeline_bench` — the slice-memo perf harness
//! (`BENCH_pipeline.json`).
//!
//! Over a fixed corpus (a synthetic many-source hot-sink program plus two
//! scaled workload subjects), a cold `THREADS`-thread run against a
//! second run sharing the same [`SliceCache`]: the warm run must answer
//! its closure requests from the memo; both runs' reports are asserted
//! byte-identical against a one-engine reference run.
//!
//! Output: `BENCH_pipeline.json` in the working directory (override with
//! `FUSION_BENCH_OUT`). With `FUSION_BENCH_ENFORCE=1` the process exits
//! non-zero when the slice memo records no hits — the CI regression gate.

use fusion::cache::VerdictCache;
use fusion::checkers::{Checker, CheckerSet};
use fusion::engine::{
    analyze_multi_streaming_with_cache, analyze_multi_with_cache, AnalysisOptions,
    FeasibilityEngine, MultiAnalysisRun,
};
use fusion::graph_solver::FusionSolver;
use fusion::slice_cache::SliceCache;
use fusion_bench::{banner, build_subject, default_budget, report, scale_from_env};
use fusion_ir::{compile, CompileOptions, Program};
use fusion_pdg::graph::Pdg;
use fusion_workloads::SUBJECTS;
use std::fmt::Write as _;
use std::sync::Arc;

/// Thread count of the memoized runs.
const THREADS: usize = 4;

/// Synthetic subject: `funcs` functions, each holding one opaque
/// nonlinear core guarding `sinks` null-deref candidates — many sources
/// across many sink groups, so discovery producers and solve workers
/// both have real work to overlap.
fn hot_sink_source(funcs: usize, sinks: usize) -> String {
    let mut s = String::from("extern fn deref(p);\n");
    for f in 0..funcs {
        let _ = writeln!(
            s,
            "fn churn{f}(a, b) {{ let t = a * b; let u = t * t + a; \
             let v = u * b + t; let z = v * v + u; return z; }}"
        );
        let _ = writeln!(s, "fn hot{f}(x, y) {{");
        let _ = writeln!(s, "  let w = churn{f}(x, y);");
        for k in 0..sinks {
            let target = 77 + 2 * k + f;
            let _ = writeln!(
                s,
                "  let q{k} = null; let r{k} = 1; if (w == {target}) {{ r{k} = q{k}; }} deref(r{k});"
            );
        }
        let _ = writeln!(
            s,
            "  let qz = null; let rz = 1; if (x * x == 3) {{ rz = qz; }} deref(rz);"
        );
        let _ = writeln!(s, "  return 0;\n}}");
    }
    s
}

struct Entry {
    name: String,
    program: Program,
    pdg: Pdg,
}

fn corpus() -> Vec<Entry> {
    let mut entries = Vec::new();
    let hot = hot_sink_source(8, 12);
    let program = compile(&hot, CompileOptions::default()).expect("corpus compiles");
    let pdg = Pdg::build(&program);
    entries.push(Entry {
        name: "hot-sinks".into(),
        program,
        pdg,
    });
    let scale = scale_from_env();
    for spec in &SUBJECTS[..2] {
        let subject = build_subject(spec, scale);
        entries.push(Entry {
            name: spec.name.to_string(),
            program: subject.program,
            pdg: subject.pdg,
        });
    }
    entries
}

fn factory() -> impl Fn() -> Box<dyn FeasibilityEngine> + Sync {
    let budget = default_budget();
    move || Box::new(FusionSolver::new(budget)) as Box<dyn FeasibilityEngine>
}

type ReportKey = (
    fusion_pdg::graph::Vertex,
    fusion_pdg::graph::Vertex,
    fusion::engine::Feasibility,
    Vec<fusion_pdg::graph::Vertex>,
);

fn keys(run: &MultiAnalysisRun) -> Vec<ReportKey> {
    run.all_reports()
        .map(|r| (r.source, r.sink, r.verdict, r.path.nodes.clone()))
        .collect()
}

fn main() {
    banner(
        "pipeline_bench: slice memo",
        "same corpus, same threads; reports asserted identical to one engine",
    );
    let budget = default_budget();
    let set = CheckerSet::single(Checker::null_deref());
    let make = factory();

    let mut reports_identical = true;
    let mut slices_cold: u64 = 0;
    let mut slices_warm: u64 = 0;
    let mut slice_hits: u64 = 0;
    let mut slice_requests: u64 = 0;

    for entry in corpus() {
        // One-engine reference transcript (fresh caches).
        let mut seq_engine = FusionSolver::new(budget);
        let seq_cache = VerdictCache::new();
        let seq = analyze_multi_with_cache(
            &entry.program,
            &entry.pdg,
            &set,
            &mut seq_engine,
            &AnalysisOptions::new(),
            Some(&seq_cache),
        );
        let want = keys(&seq);

        // Slice memoization: cold run vs warm run sharing one SliceCache
        // (fresh verdict caches both, so the warm run re-queries).
        let shared = Arc::new(SliceCache::new());
        let opts = AnalysisOptions::new().with_slice_cache(Arc::clone(&shared));
        let cold_cache = VerdictCache::new();
        let cold = analyze_multi_streaming_with_cache(
            &entry.program,
            &entry.pdg,
            &set,
            &make,
            THREADS,
            &opts,
            Some(&cold_cache),
        );
        let warm_cache = VerdictCache::new();
        let warm = analyze_multi_streaming_with_cache(
            &entry.program,
            &entry.pdg,
            &set,
            &make,
            THREADS,
            &opts,
            Some(&warm_cache),
        );
        if keys(&cold) != want || keys(&warm) != want {
            reports_identical = false;
        }
        slices_cold += cold.stages.engine.slices_computed;
        slices_warm += warm.stages.engine.slices_computed;
        slice_hits += warm.slice.hits;
        slice_requests += warm.slice.hits + warm.slice.misses;

        println!(
            "  {:<16} slices cold/warm={}/{}",
            entry.name, cold.stages.engine.slices_computed, warm.stages.engine.slices_computed,
        );
    }
    assert!(
        reports_identical,
        "memoized runs must report byte-identically"
    );

    let hit_rate = if slice_requests == 0 {
        0.0
    } else {
        slice_hits as f64 / slice_requests as f64
    };

    println!("--------------------------------------------------------------");
    println!(
        "slices:    cold {} -> memoized {} ({}x reduction); warm hit rate {:.2}",
        slices_cold,
        slices_warm,
        if slices_warm == 0 {
            slices_cold as f64
        } else {
            slices_cold as f64 / slices_warm as f64
        },
        hit_rate,
    );

    let json = format!(
        "{{\n  \"scale\": {},\n  \"threads\": {THREADS},\n  \
         \"slices_computed_cold\": {slices_cold},\n  \
         \"slices_computed_memoized\": {slices_warm},\n  \
         \"slice_warm_hit_rate\": {hit_rate:.4},\n  \
         \"reports_identical\": {reports_identical}\n}}\n",
        scale_from_env(),
    );
    report::write("BENCH_pipeline.json", &json);

    // CI gate: the memo must hit.
    let gate = report::Gate::from_env();
    gate.require(slice_hits > 0, || {
        "slice memo recorded no hits on the warm runs".into()
    });
    gate.pass("slice memo hit");
}
