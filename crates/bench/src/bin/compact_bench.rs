//! `compact_bench` — the PDG-compaction perf harness
//! (`BENCH_compact.json`).
//!
//! One comparison over a synthetic corpus: the fused multi-client scan
//! **with** pre-discovery graph compaction (`AnalysisOptions::compact =
//! true`, the default) against the same scan **without** it (the CLI's
//! `--no-compact`). Both measured sides run the sequential pipeline over
//! the same program, and their per-checker reports are asserted
//! byte-identical against an uncompacted sequential reference —
//! compaction removes work, never findings. A streaming compacted run
//! is checked against the same reference so the parallel drivers stay
//! honest too.
//!
//! The corpus mixes three populations, one per compaction layer:
//!
//! * **dead flows** — source facts whose forward cone never reaches any
//!   checker sink; frontier pruning deletes them before discovery walks
//!   a single step;
//! * **identity corridors** — single-entry/single-exit callees
//!   (`id(v) { return v; }`) whose Enter→Local→Exit summary chains
//!   collapse into composite edges replayed at zero step cost;
//! * **isomorphic families** — byte-identical function bodies under
//!   different names; their dependence-path fragments share one solver
//!   verdict through the content-hash memo instead of re-querying.
//!
//! Output: `BENCH_compact.json` in the working directory (override with
//! `FUSION_BENCH_OUT`). With `FUSION_BENCH_ENFORCE=1` the process exits
//! non-zero unless the compacted run took strictly fewer discovery
//! steps, issued strictly fewer solver queries, and finished within
//! 100% of the uncompacted wall with byte-identical reports — the CI
//! regression gate for the compaction layer.

use fusion::cache::VerdictCache;
use fusion::checkers::CheckerSet;
use fusion::engine::{
    analyze_multi_streaming_with_cache, analyze_multi_with_cache, AnalysisOptions,
    FeasibilityEngine, MultiAnalysisRun,
};
use fusion::graph_solver::FusionSolver;
use fusion::slice_cache::SliceCache;
use fusion_bench::{banner, default_budget, report, scale_from_env};
use fusion_ir::{compile, CompileOptions};
use fusion_pdg::graph::Pdg;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Thread count the streaming identity check runs at.
const THREADS: usize = 4;
/// Wall-clock measurements take the best of this many repetitions.
const ITERS: usize = 3;

/// Synthetic subject with dead flows, identity corridors and
/// isomorphic function families for all three default checkers.
fn compact_corpus(funcs: usize, per: usize) -> String {
    let mut s = String::from(
        "extern fn deref(p); extern fn gets(); extern fn fopen(p);\n\
         extern fn getpass(); extern fn sendmsg(x);\n",
    );
    for f in 0..funcs {
        // Identity corridor: collapses to one composite summary edge.
        let _ = writeln!(s, "fn id{f}(v) {{ return v; }}");
        // Dead helper: real def-use structure, no reachable sink — the
        // whole cone is pruned before discovery starts.
        let _ = writeln!(
            s,
            "fn dead{f}(y) {{ let z = y + 1; let w = z * 2; \
             let v = w + z; return v; }}"
        );
        // Isomorphic family: `per` byte-identical bodies under fresh
        // names. Their exact cache keys differ (names differ) but their
        // iso keys coincide, so one solver verdict serves the family.
        for k in 0..per {
            let _ = writeln!(
                s,
                "fn iso{f}x{k}(x) {{ let q = null; let r = 1; \
                 if (x > 0) {{ r = q; }} deref(r); return 0; }}"
            );
        }
        // Driver: routes a null fact through the corridor, feeds the
        // dead helper, and exercises the other two checkers so every
        // client of the fused pass sees this function.
        let _ = writeln!(s, "fn drive{f}(c) {{");
        let _ = writeln!(s, "  let q = null; let t = gets(); let p = getpass();");
        let _ = writeln!(s, "  let u = id{f}(q); let n = dead{f}(c);");
        let _ = writeln!(s, "  if (c > n) {{ deref(u); }}");
        let _ = writeln!(s, "  let a = 1; if (c > 1) {{ a = t; }} fopen(a);");
        let _ = writeln!(s, "  let b = 1; if (c > 2) {{ b = p * 2; }} sendmsg(b);");
        let _ = writeln!(s, "  return 0;\n}}");
    }
    s
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

fn breakdown_keys(run: &MultiAnalysisRun) -> Vec<Vec<ReportKey>> {
    run.checkers
        .iter()
        .map(|b| {
            b.reports
                .iter()
                .map(|r| (r.source, r.sink, r.verdict, r.path.nodes.clone()))
                .collect()
        })
        .collect()
}

/// One measured side: best wall plus the counters of the best iteration.
#[derive(Default)]
struct Side {
    wall_us: u128,
    steps: u64,
    queries: usize,
    vertices_pruned: u64,
    edges_pruned: u64,
    chains_collapsed: u64,
    iso_hits: u64,
}

fn measure(
    program: &fusion_ir::Program,
    pdg: &Pdg,
    set: &CheckerSet,
    compact: bool,
    want: &[Vec<ReportKey>],
    identical: &mut bool,
) -> Side {
    let budget = default_budget();
    let mut best = Side {
        wall_us: u128::MAX,
        ..Default::default()
    };
    for _ in 0..ITERS {
        let cache = VerdictCache::new();
        let mut engine = FusionSolver::new(budget);
        let mut opts = AnalysisOptions::new().with_slice_cache(Arc::new(SliceCache::new()));
        opts.compact = compact;
        let t = Instant::now();
        let run = analyze_multi_with_cache(program, pdg, set, &mut engine, &opts, Some(&cache));
        let wall = t.elapsed().as_micros();
        if breakdown_keys(&run) != want {
            *identical = false;
        }
        if wall < best.wall_us {
            best = Side {
                wall_us: wall,
                steps: run.stages.discovery_steps,
                queries: run.queries,
                vertices_pruned: run.stages.vertices_pruned,
                edges_pruned: run.stages.edges_pruned,
                chains_collapsed: run.stages.chains_collapsed,
                iso_hits: run.stages.iso_hits,
            };
        }
    }
    best
}

fn main() {
    banner(
        "compact_bench: PDG compaction vs --no-compact",
        "same corpus, sequential; reports asserted byte-identical",
    );
    let src = compact_corpus(5, 6);
    let program = compile(&src, CompileOptions::default()).expect("corpus compiles");
    let pdg = Pdg::build(&program);
    let set = CheckerSet::all();

    // Reference transcript: sequential, compaction off — the plain
    // discovery the compacted runs must reproduce byte-for-byte.
    let seq_cache = VerdictCache::new();
    let mut seq_engine = FusionSolver::new(default_budget());
    let mut seq_opts = AnalysisOptions::new();
    seq_opts.compact = false;
    let reference = analyze_multi_with_cache(
        &program,
        &pdg,
        &set,
        &mut seq_engine,
        &seq_opts,
        Some(&seq_cache),
    );
    let want = breakdown_keys(&reference);
    assert!(
        want.iter().all(|k| !k.is_empty()),
        "every checker must report"
    );

    let mut identical = true;
    let off = measure(&program, &pdg, &set, false, &want, &mut identical);
    let on = measure(&program, &pdg, &set, true, &want, &mut identical);

    // The parallel drivers consume the same compacted graph; one
    // streaming run keeps them pinned to the sequential reference.
    let make = factory();
    let stream_cache = VerdictCache::new();
    let mut stream_opts = AnalysisOptions::new().with_slice_cache(Arc::new(SliceCache::new()));
    stream_opts.compact = true;
    let streamed = analyze_multi_streaming_with_cache(
        &program,
        &pdg,
        &set,
        &make,
        THREADS,
        &stream_opts,
        Some(&stream_cache),
    );
    if breakdown_keys(&streamed) != want {
        identical = false;
    }
    assert!(
        identical,
        "compaction on/off reports must be byte-identical to the sequential reference"
    );

    let pct = if off.wall_us == 0 {
        0.0
    } else {
        100.0 * on.wall_us as f64 / off.wall_us as f64
    };

    println!("--------------------------------------------------------------");
    println!(
        "wall:     off {:>9.3}ms   on {:>9.3}ms   ({pct:.1}% of uncompacted)",
        off.wall_us as f64 / 1000.0,
        on.wall_us as f64 / 1000.0,
    );
    println!(
        "steps:    off {} -> on {}   ({} vertex(es) pruned, {} edge(s) pruned)",
        off.steps, on.steps, on.vertices_pruned, on.edges_pruned
    );
    println!(
        "queries:  off {} -> on {}   ({} iso hit(s), {} chain(s) collapsed)",
        off.queries, on.queries, on.iso_hits, on.chains_collapsed
    );

    let json = format!(
        "{{\n  \"scale\": {},\n  \"threads\": {THREADS},\n  \"iters\": {ITERS},\n  \
         \"uncompacted_wall_us\": {},\n  \"compacted_wall_us\": {},\n  \
         \"compacted_pct_of_uncompacted\": {pct:.2},\n  \
         \"uncompacted_steps\": {},\n  \"compacted_steps\": {},\n  \
         \"uncompacted_queries\": {},\n  \"compacted_queries\": {},\n  \
         \"vertices_pruned\": {},\n  \"edges_pruned\": {},\n  \
         \"chains_collapsed\": {},\n  \"iso_hits\": {},\n  \
         \"reports_identical\": {identical}\n}}\n",
        scale_from_env(),
        off.wall_us,
        on.wall_us,
        off.steps,
        on.steps,
        off.queries,
        on.queries,
        on.vertices_pruned,
        on.edges_pruned,
        on.chains_collapsed,
        on.iso_hits,
    );
    report::write("BENCH_compact.json", &json);

    // CI gates: compaction must avoid real work — strictly fewer
    // discovery steps, strictly fewer solver queries, and no wall
    // regression (≤ 100% of the uncompacted run).
    let gate = report::Gate::from_env();
    gate.require(on.steps < off.steps, || {
        format!(
            "compacted run took {} discovery steps, uncompacted took {}",
            on.steps, off.steps
        )
    });
    gate.require(on.queries < off.queries, || {
        format!(
            "compacted run issued {} queries, uncompacted issued {}",
            on.queries, off.queries
        )
    });
    gate.require(on.wall_us <= off.wall_us, || {
        format!(
            "compacted wall {}us exceeds uncompacted wall {}us",
            on.wall_us, off.wall_us
        )
    });
    gate.pass(
        "compaction took fewer steps, issued fewer queries, \
         and did not regress wall",
    );
}
