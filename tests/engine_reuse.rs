//! A borrowed engine answers each program with that program's conditions.
//!
//! Engines keep program-scoped state between queries: `FusionSolver` its
//! preprocessed local conditions, instantiations and quick-path facts,
//! `PinpointEngine` its per-function summaries. Two programs that differ
//! only in a constant have the same shape (function count and size), so a
//! shape check cannot tell them apart; every run therefore starts with
//! `FeasibilityEngine::begin_run`, which drops that state. Each program
//! here is run through one engine after another program and must get the
//! verdicts a fresh engine gives it.

use fusion::checkers::Checker;
use fusion::engine::{analyze, AnalysisOptions, FeasibilityEngine};
use fusion::graph_solver::FusionSolver;
use fusion_baselines::PinpointEngine;
use fusion_ir::{compile, CompileOptions};
use fusion_pdg::graph::Pdg;
use fusion_smt::solver::SolverConfig;

/// A null reaches `deref` when `x * x == c`: feasible for `c = 4`, never
/// for `c = 6` (no square is 2 mod 4).
fn square_guard(c: u32) -> String {
    format!(
        "extern fn deref(p); fn f(x) {{ let p = null; let r = 1; \
         if (x * x == {c}) {{ r = p; }} deref(r); return 0; }}"
    )
}

/// [`square_guard`] with one more function, so another shape; `f` keeps
/// its id.
fn square_guard_and_helper(c: u32) -> String {
    format!("{}\nfn helper(y) {{ return y + 1; }}", square_guard(c))
}

/// Bugs reported by a null-dereference run of `src` on `engine`.
fn bugs(engine: &mut dyn FeasibilityEngine, src: &str) -> usize {
    let program = compile(src, CompileOptions::default()).expect("compile");
    let pdg = Pdg::build(&program);
    let run = analyze(
        &program,
        &pdg,
        &Checker::null_deref(),
        engine,
        &AnalysisOptions::new(),
    );
    run.reports.len()
}

fn fusion() -> Box<dyn FeasibilityEngine> {
    Box::new(FusionSolver::new(SolverConfig::default()))
}

fn pinpoint() -> Box<dyn FeasibilityEngine> {
    Box::new(PinpointEngine::new(SolverConfig::default()))
}

/// Runs `first` then `second` through one engine from `make` and checks
/// each against a fresh engine's answer.
fn check_in_order(make: fn() -> Box<dyn FeasibilityEngine>, first: &str, second: &str) {
    let want = (bugs(&mut *make(), first), bugs(&mut *make(), second));
    let mut engine = make();
    let got = (bugs(&mut *engine, first), bugs(&mut *engine, second));
    assert_eq!(got, want, "{} engine reused", engine.name());
}

#[test]
fn fresh_engines_decide_the_square_guards() {
    for make in [fusion, pinpoint] {
        assert_eq!(bugs(&mut *make(), &square_guard(4)), 1);
        assert_eq!(bugs(&mut *make(), &square_guard(6)), 0);
    }
}

#[test]
fn a_reused_fusion_solver_answers_each_program() {
    let (four, six) = (square_guard(4), square_guard(6));
    check_in_order(fusion, &four, &six);
    check_in_order(fusion, &six, &four);
}

#[test]
fn a_reused_pinpoint_engine_answers_each_program() {
    let (four, six) = (square_guard(4), square_guard(6));
    check_in_order(pinpoint, &four, &six);
    check_in_order(pinpoint, &six, &four);
}

#[test]
fn a_reused_pinpoint_engine_answers_programs_of_another_shape() {
    let (four, six) = (square_guard(4), square_guard_and_helper(6));
    assert_eq!(bugs(&mut *pinpoint(), &six), 0);
    check_in_order(pinpoint, &four, &six);
    check_in_order(pinpoint, &six, &four);
}
