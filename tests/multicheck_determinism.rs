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

/// A taint client of `kind` from `sources` to `sinks`.
fn client(kind: CheckKind, sources: &[&str], sinks: &[&str]) -> Checker {
    Checker {
        kind,
        source_fns: sources.iter().map(|s| s.to_string()).collect(),
        sink_fns: sinks.iter().map(|s| s.to_string()).collect(),
        through_binary: true,
        through_extern: true,
        sanitizer_fns: Vec::new(),
    }
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
    let set = CheckerSet::new(vec![
        client(CheckKind::Cwe23, &["gets"], &["fopen"]),
        client(CheckKind::Cwe402, &["gets"], &["fopen"]),
    ]);

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

/// `funcs` functions, each tainting `gets → fopen` and `getpass → send`
/// through one opaque nonlinear core under `per` guards of each kind,
/// plus one infeasible guard (`x * x == 3`).
fn multi_client_source(funcs: usize, per: usize) -> String {
    let mut s = String::from(
        "extern fn gets(); extern fn fopen(p);\n\
         extern fn getpass(); extern fn send(x);\n",
    );
    for f in 0..funcs {
        s.push_str(&format!(
            "fn churn{f}(a, b) {{ let t = a * b; let u = t * t + a; return u; }}\n\
             fn client{f}(x, y) {{\n  let w = churn{f}(x, y);\n  let t = gets(); let p = getpass();\n"
        ));
        for k in 0..per {
            let (ta, tb) = (77 + 2 * k + f, 131 + 2 * k + f);
            s.push_str(&format!(
                "  let c{k} = 1; if (w == {ta}) {{ c{k} = t + {k}; }} fopen(c{k});\n\
                 \x20 let d{k} = 1; if (w == {tb}) {{ d{k} = p + {k}; }} send(d{k});\n"
            ));
        }
        s.push_str("  let cz = 1; if (x * x == 3) { cz = t; } fopen(cz);\n  return 0;\n}\n");
    }
    s
}

#[test]
fn fused_pass_shares_sessions_and_slice_closures_across_clients() {
    // Two narrow clients and an audit client whose `(source, sink)`
    // universe is exactly their union: every audit path is byte-identical
    // to a narrow client's. One fused pass shares one verdict cache and
    // one slice memo across the three, so the audit client answers from
    // the cache, opening no session and computing no closure; a loop of
    // three single-checker scans, each with fresh caches, pays all three.
    let program = compile(&multi_client_source(3, 2), CompileOptions::default()).expect("compile");
    let pdg = Pdg::build(&program);
    let clients = vec![
        client(CheckKind::Cwe23, &["gets"], &["fopen"]),
        client(CheckKind::Cwe402, &["getpass"], &["send"]),
        client(CheckKind::Cwe23, &["gets", "getpass"], &["fopen", "send"]),
    ];
    let run = |set: &CheckerSet| {
        let cache = VerdictCache::new();
        let opts = AnalysisOptions::new();
        analyze_multi_streaming_with_cache(
            &program,
            &pdg,
            set,
            &factory(true),
            1,
            &opts,
            Some(&cache),
        )
    };
    let fused = run(&CheckerSet::new(clients.clone()));
    let (mut loop_sessions, mut loop_slices, mut loop_keys) = (0, 0, Vec::new());
    for checker in &clients {
        let single = run(&CheckerSet::single(checker.clone()));
        loop_sessions += single.stages.engine.sessions_opened;
        loop_slices += single.stages.engine.slices_computed;
        loop_keys.push(keys(&single.checkers[0].reports));
    }
    let fused_keys: Vec<_> = fused.checkers.iter().map(|b| keys(&b.reports)).collect();
    assert_eq!(fused_keys, loop_keys);
    assert!(
        fused_keys.iter().all(|k| !k.is_empty()),
        "every client must report"
    );
    assert_eq!(
        (fused.stages.engine.sessions_opened, loop_sessions),
        (6, 9),
        "sessions opened: fused pass, per-checker loop"
    );
    assert_eq!(
        (fused.stages.engine.slices_computed, loop_slices),
        (15, 30),
        "slice closures computed: fused pass, per-checker loop"
    );
    let audit = &fused.checkers[2].stats;
    assert_eq!((audit.queries, audit.cache_misses), (0, 0));
}
