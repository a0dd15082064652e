//! # fusion-bench
//!
//! The evaluation harness: one binary per table/figure of the paper (run
//! with `cargo run -p fusion-bench --release --bin <name>`), plus the
//! Criterion `ablation` bench (experiment E9). This library holds the
//! shared plumbing: subject construction, engine runners, and table
//! formatting.
//!
//! Scale is controlled by the `FUSION_SCALE` environment variable — the
//! fraction of each subject's paper line count to generate (default
//! `0.002`, i.e. wine ≈ 8 K statements). Reproduced numbers are printed
//! beside the paper's so shape comparisons are direct.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fusion::checkers::Checker;
use fusion::engine::{analyze, AnalysisOptions, AnalysisRun, FeasibilityEngine};
use fusion_ir::{compile_ast, CompileOptions, Program};
use fusion_pdg::graph::Pdg;
use fusion_smt::solver::SolverConfig;
use fusion_workloads::{generate, SeededBug, SubjectSpec};
use std::time::Duration;

/// A generated, compiled subject ready for analysis.
pub struct CompiledSubject {
    /// The paper's reference numbers.
    pub spec: &'static SubjectSpec,
    /// The lowered program.
    pub program: Program,
    /// Its dependence graph.
    pub pdg: Pdg,
    /// Seeded ground truth.
    pub bugs: Vec<SeededBug>,
}

/// Reads the scale factor from `FUSION_SCALE` (default 0.002).
pub fn scale_from_env() -> f64 {
    std::env::var("FUSION_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.002)
}

/// Generates and compiles one subject at the given scale.
///
/// # Panics
///
/// Panics if the generated program fails to compile — a bug in the
/// generator, not an input condition.
pub fn build_subject(spec: &'static SubjectSpec, scale: f64) -> CompiledSubject {
    let cfg = spec.gen_config(scale);
    let mut subject = generate(&cfg);
    let program = compile_ast(
        &subject.surface,
        &mut subject.interner,
        CompileOptions::default(),
    )
    .expect("generated subjects always compile");
    let pdg = Pdg::build(&program);
    CompiledSubject {
        spec,
        program,
        pdg,
        bugs: subject.bugs,
    }
}

/// The per-query solver budget used by every engine in the harnesses
/// (mirrors the paper's 10-second per-call cap, shrunk for scaled runs).
pub fn default_budget() -> SolverConfig {
    SolverConfig {
        timeout: Some(Duration::from_secs(10)),
        max_conflicts: Some(200_000),
        ..Default::default()
    }
}

/// Runs one checker with one engine over a compiled subject.
pub fn run_checker(
    subject: &CompiledSubject,
    checker: &Checker,
    engine: &mut dyn FeasibilityEngine,
) -> AnalysisRun {
    analyze(
        &subject.program,
        &subject.pdg,
        checker,
        engine,
        &AnalysisOptions::new(),
    )
}

/// Formats a duration as fractional seconds.
pub fn fmt_secs(d: Duration) -> String {
    format!("{:.3}s", d.as_secs_f64())
}

/// Formats an `x`-factor ratio, guarding division by zero.
pub fn fmt_ratio(num: f64, den: f64) -> String {
    if den <= f64::EPSILON {
        "-".into()
    } else {
        format!("{:.1}x", num / den)
    }
}

/// Prints a header for one experiment binary.
pub fn banner(title: &str, detail: &str) {
    println!("==============================================================");
    println!("{title}");
    println!("{detail}");
    println!("scale = {} (set FUSION_SCALE to change)", scale_from_env());
    println!("==============================================================");
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion::graph_solver::FusionSolver;
    use fusion_workloads::SUBJECTS;

    #[test]
    fn build_and_analyze_smallest_subject() {
        let subject = build_subject(&SUBJECTS[0], 0.002);
        let mut engine = FusionSolver::new(default_budget());
        let run = run_checker(&subject, &Checker::null_deref(), &mut engine);
        assert!(run.candidates > 0);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ratio(10.0, 2.0), "5.0x");
        assert_eq!(fmt_ratio(10.0, 0.0), "-");
        assert!(fmt_secs(Duration::from_millis(1500)).starts_with("1.5"));
    }
}
