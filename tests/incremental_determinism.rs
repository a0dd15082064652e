//! Incremental sessions must be invisible in the output.
//!
//! The `FusionSolver` ships with assumption-based incremental solving
//! enabled (`incremental = true`): queries within a slice group share one
//! `SolveSession`, bit-blast memo, and learnt-clause database. Turning it
//! off (`--no-incremental` on the CLI) falls back to a cold `smt_solve`
//! per query. Both are complete decision procedures, so under an ample
//! budget the *reports must be byte-identical* — same sources, sinks,
//! verdicts, and witness paths — for every thread count, and identical to
//! a borrowed-engine run. This is the determinism contract claimed in
//! DESIGN.md ("Incremental sessions") and enforced here for 1–8 threads.

use fusion::cache::VerdictCache;
use fusion::checkers::{Checker, CheckerSet};
use fusion::engine::{
    analyze, analyze_multi_streaming_with_cache, AnalysisOptions, AnalysisRun, Feasibility,
    FeasibilityEngine,
};
use fusion::graph_solver::FusionSolver;
use fusion_ir::{compile, CompileOptions, Program};
use fusion_pdg::graph::Pdg;
use fusion_smt::solver::SolverConfig;

/// Several sink functions — so the group-batching driver has real groups
/// to steal — each mixing a feasible flow with an infeasible one
/// (`x * x == 3` has no solution modulo a power of two: squares are
/// 0 or 1 mod 4).
fn subject() -> (Program, Pdg, Checker) {
    let mut src = String::from("extern fn getpass(); extern fn sendmsg(x);\n");
    for i in 0..4 {
        let lo = i * 3;
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
            hi = lo + 7,
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
fn parallel_reports_identical_between_incremental_and_cold_1_to_8_threads() {
    let (program, pdg, checker) = subject();
    let opts = AnalysisOptions::without_cache();

    // A cold borrowed-engine run is the reference transcript.
    let mut reference_engine = FusionSolver::new(SolverConfig::default());
    reference_engine.incremental = false;
    let reference = analyze(&program, &pdg, &checker, &mut reference_engine, &opts);
    assert!(
        !reference.reports.is_empty(),
        "subject must produce reports for the comparison to mean anything"
    );
    assert!(
        reference.suppressed > 0,
        "subject must contain infeasible flows so verdicts are non-trivial"
    );
    let want = keys(&reference);

    for threads in 1..=8 {
        let cold = threaded(
            &program,
            &pdg,
            &checker,
            &factory(false),
            threads,
            &opts,
            None,
        );
        let inc = threaded(
            &program,
            &pdg,
            &checker,
            &factory(true),
            threads,
            &opts,
            None,
        );
        assert_eq!(
            keys(&cold),
            want,
            "cold run diverged from the borrowed engine at {threads} threads"
        );
        assert_eq!(
            keys(&inc),
            want,
            "incremental run diverged from the borrowed engine at {threads} threads"
        );
        assert_eq!(
            inc.suppressed, reference.suppressed,
            "suppression count changed at {threads} threads"
        );
        assert_eq!(
            inc.candidates, reference.candidates,
            "candidate discovery must not depend on the engine mode"
        );
    }
}

#[test]
fn sequential_incremental_matches_sequential_cold() {
    // The same contract without worker threads in the loop: one
    // borrowed engine per mode, identical transcript.
    let (program, pdg, checker) = subject();
    let opts = AnalysisOptions::without_cache();
    let mut cold_engine = FusionSolver::new(SolverConfig::default());
    cold_engine.incremental = false;
    let mut inc_engine = FusionSolver::new(SolverConfig::default());
    assert!(inc_engine.incremental, "incremental is the default");
    let cold = analyze(&program, &pdg, &checker, &mut cold_engine, &opts);
    let inc = analyze(&program, &pdg, &checker, &mut inc_engine, &opts);
    assert_eq!(keys(&cold), keys(&inc));
    assert_eq!(cold.suppressed, inc.suppressed);
    assert_eq!(cold.queries, inc.queries);
}
