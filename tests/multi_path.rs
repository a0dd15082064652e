//! The conjunction semantics of Algorithm 2: `⋀_{π ∈ Π} φ_π`.
//!
//! §3.1's Example 3.2: to check whether `send(c, d)` leaks, *two*
//! dependence paths must be simultaneously feasible. The engines accept a
//! path set Π; these tests exercise genuinely multi-path queries, including
//! a case where each path is individually feasible but their conjunction is
//! not.

use fusion::cache::VerdictCache;
use fusion::checkers::{Checker, CheckerSet};
use fusion::engine::{analyze_multi_with_cache, AnalysisOptions, Feasibility, FeasibilityEngine};
use fusion::graph_solver::{FusionSolver, UnoptimizedGraphSolver};
use fusion::propagate::{discover, PropagateOptions};
use fusion_baselines::PinpointEngine;
use fusion_ir::{compile, CompileOptions, Program};
use fusion_pdg::graph::Pdg;
use fusion_pdg::paths::DependencePath;
use fusion_smt::solver::SolverConfig;

fn paths_to_sink(program: &Program, pdg: &Pdg, checker: &Checker) -> Vec<DependencePath> {
    discover(program, pdg, checker, &PropagateOptions::default())
        .into_iter()
        .map(|c| c.paths[0].clone())
        .collect()
}

fn verdicts(program: &Program, pdg: &Pdg, paths: &[DependencePath]) -> Vec<Feasibility> {
    let cfg = SolverConfig::default();
    let mut out = Vec::new();
    let mut engines: Vec<Box<dyn FeasibilityEngine>> = vec![
        Box::new(FusionSolver::new(cfg)),
        Box::new(UnoptimizedGraphSolver::new(cfg)),
        Box::new(PinpointEngine::new(cfg)),
    ];
    for e in &mut engines {
        out.push(e.check_paths(program, pdg, paths).feasibility);
    }
    out
}

#[test]
fn simultaneous_taint_pair_feasible() {
    // Example 3.2's shape: both password and address must reach send.
    let src = "extern fn getpass(); extern fn user_ip(); extern fn sendmsg(x);\n\
        fn f(flag) {\n\
          let a = getpass();\n\
          let b = user_ip();\n\
          let c = 1; let d = 1;\n\
          if (flag > 0) { c = a + 0; }\n\
          if (flag > 10) { d = b + 0; }\n\
          sendmsg(c);\n\
          sendmsg(d);\n\
          return 0;\n\
        }";
    let program = compile(src, CompileOptions::default()).expect("compile");
    let pdg = Pdg::build(&program);
    let mut checker = Checker::cwe402();
    checker.source_fns.push("user_ip".into());
    let paths = paths_to_sink(&program, &pdg, &checker);
    assert_eq!(paths.len(), 2, "two source→sink flows expected");
    // Conjunction: flag > 0 AND flag > 10 — satisfiable together.
    for v in verdicts(&program, &pdg, &paths) {
        assert_eq!(v, Feasibility::Feasible);
    }
}

#[test]
fn individually_feasible_jointly_infeasible() {
    // Each flow is gated on an opposite sign of the same flag: each path
    // alone is feasible, the conjunction is not. Only a path-set query
    // can see this.
    let src = "extern fn getpass(); extern fn user_ip(); extern fn sendmsg(x);\n\
        fn f(flag) {\n\
          let a = getpass();\n\
          let b = user_ip();\n\
          let c = 1; let d = 1;\n\
          if (flag > 10) { c = a + 0; }\n\
          if (flag < 5) { d = b + 0; }\n\
          sendmsg(c);\n\
          sendmsg(d);\n\
          return 0;\n\
        }";
    let program = compile(src, CompileOptions::default()).expect("compile");
    let pdg = Pdg::build(&program);
    let mut checker = Checker::cwe402();
    checker.source_fns.push("user_ip".into());
    let paths = paths_to_sink(&program, &pdg, &checker);
    assert_eq!(paths.len(), 2);
    // Individually feasible:
    for p in &paths {
        for v in verdicts(&program, &pdg, std::slice::from_ref(p)) {
            assert_eq!(v, Feasibility::Feasible);
        }
    }
    // Jointly infeasible:
    for v in verdicts(&program, &pdg, &paths) {
        assert_eq!(v, Feasibility::Infeasible, "conjunction must be unsat");
    }
}

#[test]
fn repeated_analysis_hits_the_verdict_cache() {
    // A multi-path subject analyzed twice through one shared cache: the
    // second run's feasibility queries are answered from the cache — the
    // hit counters are surfaced on the AnalysisRun — and the reports are
    // identical.
    let src = "extern fn getpass(); extern fn user_ip(); extern fn sendmsg(x);\n\
        fn f(flag) {\n\
          let a = getpass();\n\
          let b = user_ip();\n\
          let c = 1; let d = 1;\n\
          if (flag > 0) { c = a + 0; }\n\
          if (flag > 10) { d = b + 0; }\n\
          sendmsg(c);\n\
          sendmsg(d);\n\
          return 0;\n\
        }";
    let program = compile(src, CompileOptions::default()).expect("compile");
    let pdg = Pdg::build(&program);
    let mut checker = Checker::cwe402();
    checker.source_fns.push("user_ip".into());
    let cache = VerdictCache::new();
    let mut engine = FusionSolver::new(SolverConfig::default());
    let opts = AnalysisOptions::new();
    let set = CheckerSet::single(checker);
    let mut run = || {
        analyze_multi_with_cache(&program, &pdg, &set, &mut engine, &opts, Some(&cache))
            .into_single()
    };
    let first = run();
    let second = run();
    assert!(
        first.cache.misses > 0,
        "first run fills the cache: {:?}",
        first.cache
    );
    assert_eq!(first.cache.hits, 0, "nothing to hit yet");
    assert!(
        second.cache.hits > 0,
        "second run must hit: {:?}",
        second.cache
    );
    assert_eq!(second.queries, 0, "every verdict served from the cache");
    let keys = |run: &fusion::engine::AnalysisRun| {
        run.reports
            .iter()
            .map(|r| (r.source, r.sink))
            .collect::<Vec<_>>()
    };
    assert_eq!(keys(&first), keys(&second));
}

#[test]
fn empty_path_set_is_trivially_feasible() {
    let src = "fn f(x) { return x; }";
    let program = compile(src, CompileOptions::default()).expect("compile");
    let pdg = Pdg::build(&program);
    for v in verdicts(&program, &pdg, &[]) {
        assert_eq!(v, Feasibility::Feasible);
    }
}
