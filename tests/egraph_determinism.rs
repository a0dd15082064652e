//! The e-graph simplification leg must be invisible in the output.
//!
//! Equality saturation with cost-based extraction rewrites each
//! fragment's local condition into a cheaper equivalent before the
//! solver sees it — fewer bit-blasted terms, fewer CNF clauses — but it
//! may never change a verdict, a witness path, a suppression count, or
//! their order. This pins the contract end to end: on a borrowed engine
//! and at every thread count 1–8, with and without the verdict cache, incremental sessions, abstract-
//! interpretation triage, and PDG compaction, the reports of an
//! egraph-on run are *byte-identical* to an egraph-off run. This is the
//! invariant `extract_bench` enforces on its corpus and the CLI's
//! `--egraph`/`--no-egraph` pair relies on.

use fusion::cache::VerdictCache;
use fusion::checkers::{Checker, CheckerSet};
use fusion::engine::{
    analyze, analyze_multi_streaming_with_cache, AnalysisOptions, AnalysisRun, Feasibility,
    FeasibilityEngine,
};
use fusion::graph_solver::FusionSolver;
use fusion_ir::{compile, CompileOptions, Program};
use fusion_pdg::graph::Pdg;
use fusion_smt::egraph::EGraphConfig;
use fusion_smt::solver::SolverConfig;

/// Guards chosen so the e-graph has real work on the feasible *and* the
/// infeasible side: a nonlinear common subexpression (`x*(y*z)` vs
/// `(x*y)*z` — Gaussian elimination cannot touch it, only AC
/// reassociation merges the multipliers), a constant multiply the
/// shift-add decomposition rewrites, and a parity-infeasible equality
/// (`x*4 == x + x + odd` forces `x ≡ odd (mod 2)`, impossible) that
/// must stay suppressed with the pass on or off.
fn subject() -> (Program, Pdg, Checker) {
    let mut src = String::from("extern fn getpass(); extern fn sendmsg(x);\n");
    for i in 0..3 {
        src.push_str(&format!(
            "fn f{i}(x, y, z) {{\n\
               let s = getpass();\n\
               let p = x * y * z;\n\
               let q = x * (y * z);\n\
               let a = 1; let b = 1; let c = 1;\n\
               if (p + 5 == q + {k1}) {{ a = s + {i}; }}\n\
               if (x * 6 + y == {k2}) {{ b = s * 2; }}\n\
               if (x * 4 == x + x + {odd}) {{ c = s + 1; }}\n\
               sendmsg(a);\n\
               sendmsg(b);\n\
               sendmsg(c);\n\
               return 0;\n\
             }}\n",
            k1 = 5 + i,
            k2 = 77 + 2 * i,
            odd = 7 + 2 * i,
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

/// Solver config with the e-graph explicitly on or off — explicit so
/// the matrix is exercised identically under the CI leg that exports
/// `FUSION_NO_EGRAPH=1` (which only flips the *default*).
fn solver_config(egraph: bool) -> SolverConfig {
    SolverConfig {
        egraph: if egraph {
            EGraphConfig {
                enabled: true,
                ..EGraphConfig::default()
            }
        } else {
            EGraphConfig::disabled()
        },
        ..SolverConfig::default()
    }
}

fn factory(egraph: bool, incremental: bool) -> impl Fn() -> Box<dyn FeasibilityEngine> + Sync {
    move || {
        let mut engine = FusionSolver::new(solver_config(egraph));
        engine.incremental = incremental;
        Box::new(engine)
    }
}

#[test]
fn egraph_on_equals_egraph_off_across_the_full_matrix() {
    let (program, pdg, checker) = subject();
    let set = CheckerSet::single(checker.clone());

    for use_cache in [false, true] {
        for incremental in [true, false] {
            for absint in [true, false] {
                for compact in [true, false] {
                    let mut opts = if use_cache {
                        AnalysisOptions::new()
                    } else {
                        AnalysisOptions::without_cache()
                    };
                    opts.absint = absint;
                    opts.compact = compact;
                    let ctx = format!(
                        "cache={use_cache} incremental={incremental} \
                         absint={absint} compact={compact}"
                    );

                    // Reference transcript: borrowed engine, e-graph OFF.
                    let mut off_engine = FusionSolver::new(solver_config(false));
                    off_engine.incremental = incremental;
                    let reference = analyze(&program, &pdg, &checker, &mut off_engine, &opts);
                    assert!(!reference.reports.is_empty(), "subject must report ({ctx})");
                    assert!(
                        reference.suppressed > 0,
                        "subject must suppress the parity guard ({ctx})"
                    );
                    let want = keys(&reference);

                    // Borrowed engine, e-graph ON.
                    let mut on_engine = FusionSolver::new(solver_config(true));
                    on_engine.incremental = incremental;
                    let on = analyze(&program, &pdg, &checker, &mut on_engine, &opts);
                    assert_eq!(keys(&on), want, "borrowed engine diverged ({ctx})");
                    assert_eq!(on.suppressed, reference.suppressed, "{ctx}");
                    assert_eq!(on.candidates, reference.candidates, "{ctx}");

                    // Factory-built engines, e-graph ON, every thread count.
                    for threads in 1..=8 {
                        let run_cache = VerdictCache::new();
                        let run = analyze_multi_streaming_with_cache(
                            &program,
                            &pdg,
                            &set,
                            &factory(true, incremental),
                            threads,
                            &opts,
                            use_cache.then_some(&run_cache),
                        )
                        .into_single();
                        assert_eq!(keys(&run), want, "diverged at threads={threads} ({ctx})");
                        assert_eq!(run.suppressed, reference.suppressed);
                    }
                }
            }
        }
    }
}

#[test]
fn egraph_actually_fires_on_the_subject() {
    // Guard against the matrix above passing vacuously: on this subject
    // the pass must build e-classes and apply rewrites, and the solver
    // must hand back strictly smaller preprocessed formulas than the
    // egraph-off run.
    let (program, pdg, checker) = subject();
    let opts = AnalysisOptions::without_cache();

    let mut on_engine = FusionSolver::new(solver_config(true));
    let on = analyze(&program, &pdg, &checker, &mut on_engine, &opts);
    assert!(
        on.stages.egraph_classes > 0,
        "e-graph must build classes on this subject"
    );
    assert!(
        on.stages.egraph_rewrites > 0,
        "e-graph must rewrite on this subject"
    );

    let mut off_engine = FusionSolver::new(solver_config(false));
    let off = analyze(&program, &pdg, &checker, &mut off_engine, &opts);
    assert_eq!(off.stages.egraph_classes, 0);
    assert_eq!(keys(&on), keys(&off));
}
