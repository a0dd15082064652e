//! `multicheck_bench` — the fused multi-client perf harness
//! (`BENCH_multicheck.json`).
//!
//! One comparison over a synthetic multi-client corpus: running three
//! checkers as **one fused pass** (`analyze_multi_streaming_with_cache`
//! over the whole [`CheckerSet`]) against the old way — a **per-checker
//! loop** of three independent single-checker scans, each with its own
//! fresh engine, verdict cache, and slice memo (three separate tool
//! invocations). Both sides run the streaming pipeline at the same
//! thread count, and the fused per-checker reports are asserted
//! byte-identical to single-checker sequential runs.
//!
//! The corpus is built so the clients genuinely overlap: checker A taints
//! `gets → fopen`, checker B taints `getpass → send`, and checker C (an
//! "audit" client) watches *both* pairs — so every one of C's dependence
//! paths is byte-identical to one of A's or B's. The fused pass answers
//! C entirely from the shared checker-independent verdict cache, opens
//! no sessions and computes no slice closures for it, while the loop
//! pays a third full scan.
//!
//! Output: `BENCH_multicheck.json` in the working directory (override
//! with `FUSION_BENCH_OUT`). With `FUSION_BENCH_ENFORCE=1` the process
//! exits non-zero unless the fused pass opens strictly fewer solver
//! sessions, computes strictly fewer slice closures, and finishes within
//! 90% of the per-checker loop's wall — the CI regression gate for the
//! multi-client fusion.

use fusion::cache::VerdictCache;
use fusion::checkers::{CheckKind, Checker, CheckerSet};
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

/// Thread count both sides run at (the ISSUE's "at 4 threads"
/// acceptance point).
const THREADS: usize = 4;
/// Wall-clock measurements take the best of this many repetitions.
const ITERS: usize = 3;

/// Synthetic multi-client subject: `funcs` functions, each tainting
/// `gets → fopen` and `getpass → send` through one opaque nonlinear
/// core, mixing feasible and infeasible guards (`x * x == 3` has no
/// solution modulo a power of two).
fn multi_client_source(funcs: usize, per: usize) -> String {
    let mut s = String::from(
        "extern fn gets(); extern fn fopen(p);\n\
         extern fn getpass(); extern fn send(x);\n",
    );
    for f in 0..funcs {
        let _ = writeln!(
            s,
            "fn churn{f}(a, b) {{ let t = a * b; let u = t * t + a; \
             let v = u * b + t; let z = v * v + u; return z; }}"
        );
        let _ = writeln!(s, "fn client{f}(x, y) {{");
        let _ = writeln!(s, "  let w = churn{f}(x, y);");
        let _ = writeln!(s, "  let t = gets(); let p = getpass();");
        for k in 0..per {
            let ta = 77 + 2 * k + f;
            let tb = 131 + 2 * k + f;
            let _ = writeln!(
                s,
                "  let c{k} = 1; if (w == {ta}) {{ c{k} = t + {k}; }} fopen(c{k});"
            );
            let _ = writeln!(
                s,
                "  let d{k} = 1; if (w == {tb}) {{ d{k} = p + {k}; }} send(d{k});"
            );
        }
        let _ = writeln!(s, "  let cz = 1; if (x * x == 3) {{ cz = t; }} fopen(cz);");
        let _ = writeln!(s, "  return 0;\n}}");
    }
    s
}

fn spec(kind: CheckKind, sources: &[&str], sinks: &[&str]) -> Checker {
    Checker {
        kind,
        source_fns: sources.iter().map(|s| s.to_string()).collect(),
        sink_fns: sinks.iter().map(|s| s.to_string()).collect(),
        through_binary: true,
        through_extern: true,
        sanitizer_fns: Vec::new(),
    }
}

/// The three clients: two narrow checkers plus an audit checker whose
/// `(source, sink)` universe is exactly their union, so its paths
/// duplicate theirs byte-for-byte.
fn clients() -> Vec<Checker> {
    vec![
        spec(CheckKind::Cwe23, &["gets"], &["fopen"]),
        spec(CheckKind::Cwe402, &["getpass"], &["send"]),
        spec(CheckKind::Cwe23, &["gets", "getpass"], &["fopen", "send"]),
    ]
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

fn keys<'a>(reports: impl IntoIterator<Item = &'a fusion::BugReport>) -> Vec<ReportKey> {
    reports
        .into_iter()
        .map(|r| (r.source, r.sink, r.verdict, r.path.nodes.clone()))
        .collect()
}

fn breakdown_keys(run: &MultiAnalysisRun) -> Vec<Vec<ReportKey>> {
    run.checkers.iter().map(|b| keys(&b.reports)).collect()
}

fn main() {
    banner(
        "multicheck_bench: fused multi-client pass vs per-checker loop",
        "same corpus, same threads; per-checker reports asserted identical",
    );
    let budget = default_budget();
    let src = multi_client_source(6, 8);
    let program = compile(&src, CompileOptions::default()).expect("corpus compiles");
    let pdg = Pdg::build(&program);
    let checkers = clients();
    let set = CheckerSet::new(checkers.clone());
    let make = factory();

    // Reference transcripts: one sequential fused run, split per checker
    // (itself asserted against the single-checker wrappers by the test
    // suite; here it pins the parallel runs).
    let seq_cache = VerdictCache::new();
    let mut seq_engine = FusionSolver::new(budget);
    let reference = analyze_multi_with_cache(
        &program,
        &pdg,
        &set,
        &mut seq_engine,
        &AnalysisOptions::new(),
        Some(&seq_cache),
    );
    let want = breakdown_keys(&reference);
    assert!(
        want.iter().all(|k| !k.is_empty()),
        "every client must report"
    );

    let mut reports_identical = true;
    let mut loop_wall_us = u128::MAX;
    let mut fused_wall_us = u128::MAX;
    let mut loop_sessions = 0u64;
    let mut fused_sessions = 0u64;
    let mut loop_slices = 0u64;
    let mut fused_slices = 0u64;
    let mut loop_reused = 0u64;
    let mut fused_reused = 0u64;

    for _ in 0..ITERS {
        // Per-checker loop: three independent scans, fresh engine +
        // verdict cache + slice memo each — the old checker-at-a-time
        // deployment (three tool invocations).
        let t = Instant::now();
        let mut rep_sessions = 0u64;
        let mut rep_slices = 0u64;
        let mut rep_reused = 0u64;
        let mut rep_keys = Vec::new();
        for checker in &checkers {
            let cache = VerdictCache::new();
            let opts = AnalysisOptions::new().with_slice_cache(Arc::new(SliceCache::new()));
            let run = analyze_multi_streaming_with_cache(
                &program,
                &pdg,
                &CheckerSet::single(checker.clone()),
                &make,
                THREADS,
                &opts,
                Some(&cache),
            )
            .into_single();
            rep_sessions += run.stages.sessions_opened;
            rep_slices += run.stages.slices_computed;
            rep_reused += run.stages.slices_reused;
            rep_keys.push(keys(&run.reports));
        }
        let wall = t.elapsed().as_micros();
        if rep_keys != want {
            reports_identical = false;
        }
        if wall < loop_wall_us {
            loop_wall_us = wall;
            loop_sessions = rep_sessions;
            loop_slices = rep_slices;
            loop_reused = rep_reused;
        }

        // Fused pass: the whole set in one streaming run, one verdict
        // cache and one slice memo across all clients.
        let cache = VerdictCache::new();
        let opts = AnalysisOptions::new().with_slice_cache(Arc::new(SliceCache::new()));
        let t = Instant::now();
        let run = analyze_multi_streaming_with_cache(
            &program,
            &pdg,
            &set,
            &make,
            THREADS,
            &opts,
            Some(&cache),
        );
        let wall = t.elapsed().as_micros();
        if breakdown_keys(&run) != want {
            reports_identical = false;
        }
        if wall < fused_wall_us {
            fused_wall_us = wall;
            fused_sessions = run.stages.sessions_opened;
            fused_slices = run.stages.slices_computed;
            fused_reused = run.stages.slices_reused;
        }
    }
    assert!(
        reports_identical,
        "fused and per-checker reports must be byte-identical"
    );

    let fused_pct = if loop_wall_us == 0 {
        0.0
    } else {
        100.0 * fused_wall_us as f64 / loop_wall_us as f64
    };

    println!("--------------------------------------------------------------");
    println!(
        "wall:     loop {:>9.3}ms   fused {:>9.3}ms   ({fused_pct:.1}% of loop)",
        loop_wall_us as f64 / 1000.0,
        fused_wall_us as f64 / 1000.0,
    );
    println!("sessions: loop {loop_sessions} opened -> fused {fused_sessions}");
    println!(
        "slices:   loop {loop_slices} computed / {loop_reused} reused -> \
         fused {fused_slices} computed / {fused_reused} reused"
    );

    let json = format!(
        "{{\n  \"scale\": {},\n  \"threads\": {THREADS},\n  \"iters\": {ITERS},\n  \
         \"checkers\": {},\n  \
         \"loop_wall_us\": {loop_wall_us},\n  \"fused_wall_us\": {fused_wall_us},\n  \
         \"fused_pct_of_loop\": {fused_pct:.2},\n  \
         \"loop_sessions_opened\": {loop_sessions},\n  \
         \"fused_sessions_opened\": {fused_sessions},\n  \
         \"loop_slices_computed\": {loop_slices},\n  \
         \"fused_slices_computed\": {fused_slices},\n  \
         \"loop_slices_reused\": {loop_reused},\n  \
         \"fused_slices_reused\": {fused_reused},\n  \
         \"reports_identical\": {reports_identical}\n}}\n",
        scale_from_env(),
        set.len(),
    );
    report::write("BENCH_multicheck.json", &json);

    // CI gates: the fused pass must share for real — strictly fewer
    // sessions, strictly fewer slice closures, and ≤ 90% of the
    // loop's wall at the bench thread count.
    let gate = report::Gate::from_env();
    gate.require(fused_sessions < loop_sessions, || {
        format!(
            "fused pass opened {fused_sessions} sessions, \
             per-checker loop opened {loop_sessions}"
        )
    });
    gate.require(fused_slices < loop_slices, || {
        format!(
            "fused pass computed {fused_slices} slice closures, \
             per-checker loop computed {loop_slices}"
        )
    });
    gate.require(fused_wall_us as f64 <= loop_wall_us as f64 * 0.90, || {
        format!(
            "fused wall {fused_wall_us}us exceeds 90% of \
             loop wall {loop_wall_us}us"
        )
    });
    gate.pass(
        "fused opened fewer sessions, computed fewer slices, \
         and ran within 90% of the loop",
    );
}
