//! `serve_bench` — the warm-analysis-service perf harness
//! (`BENCH_serve.json`).
//!
//! Measures the tentpole claim of the service mode: after one
//! single-function edit, a warm `rescan` (resident PDG, facts, slice
//! closures, verdict cache, and recorded work-item outcomes; dirtiness
//! tracking evicts only what the edit reaches) beats a cold scan of the
//! edited program — at 1–8 threads, with reports asserted byte-identical
//! and invalidated-vs-retained counts recorded.
//!
//! Corpus: the pipeline harness's many-source hot-sink program plus two
//! scaled workload subjects, each edited by inserting one statement into
//! one middle function.
//!
//! Output: `BENCH_serve.json` (override with `FUSION_BENCH_OUT`). With
//! `FUSION_BENCH_ENFORCE=1` the process exits non-zero unless, at 4
//! threads, the warm rescan (a) takes at most 50% of the cold wall,
//! (b) issues strictly fewer solver queries, and (c) reports
//! byte-identically — the CI regression gate.

use fusion::checkers::CheckerSet;
use fusion::engine::{AnalysisOptions, FeasibilityEngine, MultiAnalysisRun};
use fusion::graph_solver::FusionSolver;
use fusion::incremental::{AnalysisSession, InvalidationStats};
use fusion::slice_cache::SliceCache;
use fusion_bench::{banner, default_budget, report, scale_from_env};
use fusion_ir::{compile, CompileOptions, Program};
use fusion_workloads::{generate, SUBJECTS};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Thread count the CI gate is applied at.
const GATE_THREADS: usize = 4;
/// Wall-clock measurements take the best of this many repetitions.
const ITERS: usize = 3;
/// Thread counts measured and recorded.
const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Same shape as the pipeline harness's synthetic subject: many
/// independent hot functions, so an edit to one retains the others.
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

/// Inserts one content-changing statement at the start of the body of
/// the middle non-extern function (spliced after the header's `{`, so
/// single-line function bodies are edited correctly too).
fn edit_middle_function(source: &str) -> String {
    let headers: Vec<usize> = source
        .lines()
        .enumerate()
        .filter(|(_, l)| l.starts_with("fn "))
        .map(|(i, _)| i)
        .collect();
    assert!(!headers.is_empty(), "subject has no functions");
    let line_idx = headers[headers.len() / 2];
    let mut out = String::new();
    for (i, l) in source.lines().enumerate() {
        if i == line_idx {
            let brace = l.find('{').expect("function header opens a body");
            out.push_str(&l[..=brace]);
            out.push_str(" let zq_serve_bench_edit = 9;");
            out.push_str(&l[brace + 1..]);
        } else {
            out.push_str(l);
        }
        out.push('\n');
    }
    out
}

struct Entry {
    name: String,
    base: String,
    edited: String,
}

fn corpus() -> Vec<Entry> {
    let mut entries = Vec::new();
    let hot = hot_sink_source(8, 12);
    entries.push(Entry {
        name: "hot-sinks".into(),
        edited: edit_middle_function(&hot),
        base: hot,
    });
    let scale = scale_from_env();
    for spec in &SUBJECTS[..2] {
        let src = generate(&spec.gen_config(scale)).to_source();
        entries.push(Entry {
            name: spec.name.to_string(),
            edited: edit_middle_function(&src),
            base: src,
        });
    }
    entries
}

fn compile_src(src: &str) -> Program {
    compile(src, CompileOptions::default()).expect("corpus compiles")
}

fn factory() -> impl Fn() -> Box<dyn FeasibilityEngine> + Sync {
    let budget = default_budget();
    move || Box::new(FusionSolver::new(budget)) as Box<dyn FeasibilityEngine>
}

fn options() -> AnalysisOptions {
    AnalysisOptions::new().with_slice_cache(Arc::new(SliceCache::new()))
}

type ReportKey = (
    String,
    fusion_pdg::graph::Vertex,
    fusion_pdg::graph::Vertex,
    fusion::engine::Feasibility,
    Vec<fusion_pdg::graph::Vertex>,
);

fn keys(run: &MultiAnalysisRun) -> Vec<ReportKey> {
    run.checkers
        .iter()
        .flat_map(|b| {
            b.reports.iter().map(move |r| {
                (
                    b.kind.to_string(),
                    r.source,
                    r.sink,
                    r.verdict,
                    r.path.nodes.clone(),
                )
            })
        })
        .collect()
}

/// One thread count's aggregated measurements over the corpus.
#[derive(Default)]
struct Row {
    threads: usize,
    cold_us: u128,
    warm_us: u128,
    cold_queries: u64,
    warm_queries: u64,
    candidates_total: u64,
    inv: InvalidationStats,
    reports_identical: bool,
}

fn main() {
    banner(
        "serve_bench: warm rescan-after-one-edit vs cold scan",
        "resident caches + dirtiness tracking; reports asserted identical",
    );
    let set = CheckerSet::new(fusion::checkers::default_checkers());
    let make = factory();
    let entries = corpus();
    let mut rows: Vec<Row> = Vec::new();

    for &threads in &THREAD_COUNTS {
        let mut row = Row {
            threads,
            reports_identical: true,
            ..Default::default()
        };
        for entry in &entries {
            // Cold: a fresh session scanning the edited program — the
            // same driver the warm path uses, nothing resident. Best of
            // ITERS; each repetition is fully cold.
            let mut best_cold = u128::MAX;
            let mut cold_run = None;
            for _ in 0..ITERS {
                let mut session = AnalysisSession::new(set.clone(), options(), threads);
                let t = Instant::now();
                let run = session.scan(compile_src(&entry.edited), &make);
                best_cold = best_cold.min(t.elapsed().as_micros());
                cold_run = Some(run);
            }
            let cold_run = cold_run.expect("ITERS > 0");

            // Warm: scan the base (untimed), then time the rescan of the
            // edited program. Each repetition rebuilds the resident state
            // so every timed rescan performs real invalidation work.
            let mut best_warm = u128::MAX;
            let mut warm_run = None;
            let mut inv = InvalidationStats::default();
            for _ in 0..ITERS {
                let mut session = AnalysisSession::new(set.clone(), options(), threads);
                session.scan(compile_src(&entry.base), &make);
                let t = Instant::now();
                let run = session.rescan(compile_src(&entry.edited), &make);
                best_warm = best_warm.min(t.elapsed().as_micros());
                inv = session.last_invalidation();
                warm_run = Some(run);
            }
            let warm_run = warm_run.expect("ITERS > 0");

            if keys(&warm_run) != keys(&cold_run) {
                row.reports_identical = false;
            }
            row.cold_us += best_cold;
            row.warm_us += best_warm;
            row.cold_queries += cold_run.queries as u64;
            row.warm_queries += warm_run.queries as u64;
            row.candidates_total += warm_run.candidates as u64;
            row.inv.add(&inv);

            if threads == GATE_THREADS {
                println!(
                    "  {:<16} cold={:>8}us warm={:>8}us reanalyzed {}/{} candidates \
                     (verdicts {} evicted / {} kept)",
                    entry.name,
                    best_cold,
                    best_warm,
                    inv.candidates_reanalyzed,
                    warm_run.candidates,
                    inv.verdicts_invalidated,
                    inv.verdicts_retained,
                );
            }
        }
        rows.push(row);
    }

    println!("--------------------------------------------------------------");
    for row in &rows {
        let pct = if row.cold_us == 0 {
            0.0
        } else {
            100.0 * row.warm_us as f64 / row.cold_us as f64
        };
        println!(
            "threads={}: cold {:>9.3}ms  warm {:>9.3}ms  ({pct:.1}% of cold)  \
             queries {} -> {}",
            row.threads,
            row.cold_us as f64 / 1000.0,
            row.warm_us as f64 / 1000.0,
            row.cold_queries,
            row.warm_queries,
        );
    }

    let mut per_threads = String::new();
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            per_threads.push_str(",\n    ");
        }
        let pct = if row.cold_us == 0 {
            0.0
        } else {
            100.0 * row.warm_us as f64 / row.cold_us as f64
        };
        let _ = write!(
            per_threads,
            "{{\"threads\": {}, \"cold_wall_us\": {}, \"warm_wall_us\": {}, \
             \"warm_pct_of_cold\": {pct:.2}, \"cold_queries\": {}, \"warm_queries\": {}, \
             \"candidates_total\": {}, \"candidates_reanalyzed\": {}, \
             \"functions_edited\": {}, \"functions_affected\": {}, \
             \"facts_invalidated\": {}, \"facts_retained\": {}, \
             \"slices_invalidated\": {}, \"slices_retained\": {}, \
             \"verdicts_invalidated\": {}, \"verdicts_retained\": {}, \
             \"reports_identical\": {}}}",
            row.threads,
            row.cold_us,
            row.warm_us,
            row.cold_queries,
            row.warm_queries,
            row.candidates_total,
            row.inv.candidates_reanalyzed,
            row.inv.functions_edited,
            row.inv.functions_affected,
            row.inv.facts_invalidated,
            row.inv.facts_retained,
            row.inv.slices_invalidated,
            row.inv.slices_retained,
            row.inv.verdicts_invalidated,
            row.inv.verdicts_retained,
            row.reports_identical,
        );
    }

    let gate_row = rows
        .iter()
        .find(|r| r.threads == GATE_THREADS)
        .expect("gate thread count is measured");
    let gate_pct = if gate_row.cold_us == 0 {
        0.0
    } else {
        100.0 * gate_row.warm_us as f64 / gate_row.cold_us as f64
    };
    let all_identical = rows.iter().all(|r| r.reports_identical);

    let json = format!(
        "{{\n  \"scale\": {},\n  \"threads\": {GATE_THREADS},\n  \"iters\": {ITERS},\n  \
         \"per_threads\": [\n    {per_threads}\n  ],\n  \
         \"warm_pct_of_cold_at_gate\": {gate_pct:.2},\n  \
         \"reports_identical\": {all_identical}\n}}\n",
        scale_from_env(),
    );
    report::write("BENCH_serve.json", &json);

    // CI gates at GATE_THREADS: warm ≤ 50% of cold wall, strictly fewer
    // queries, byte-identical reports.
    let gate = report::Gate::from_env();
    gate.require(all_identical, || {
        "warm rescan reports diverged from the cold scan".into()
    });
    gate.require(gate_row.warm_us * 2 <= gate_row.cold_us, || {
        format!(
            "warm rescan wall {}us exceeds 50% of cold wall {}us at {GATE_THREADS} threads",
            gate_row.warm_us, gate_row.cold_us
        )
    });
    gate.require(gate_row.warm_queries < gate_row.cold_queries, || {
        format!(
            "warm rescan issued {} queries, not strictly fewer than cold's {}",
            gate_row.warm_queries, gate_row.cold_queries
        )
    });
    gate.pass("warm rescan ≤ 50% of cold, fewer queries, identical reports");
}
