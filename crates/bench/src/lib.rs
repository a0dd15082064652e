//! # fusion-bench
//!
//! The evaluation harness: one binary per table/figure of the paper (run
//! with `cargo run -p fusion-bench --release --bin <name>`), plus Criterion
//! micro-benchmarks. This library holds the shared plumbing: subject
//! construction, engine runners, and table formatting.
//!
//! Scale is controlled by the `FUSION_SCALE` environment variable — the
//! fraction of each subject's paper line count to generate (default
//! `0.002`, i.e. wine ≈ 8 K statements). Reproduced numbers are printed
//! beside the paper's so shape comparisons are direct.

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

/// Shared report plumbing for the `*_bench` binaries: every harness writes
/// one JSON file (path from `FUSION_BENCH_OUT`, falling back to a
/// per-binary default) and, when `FUSION_BENCH_ENFORCE=1`, applies its CI
/// regression gates with a uniform `REGRESSION:` / `enforce: … — ok`
/// protocol the workflow greps for.
pub mod report {
    /// Writes `json` to `FUSION_BENCH_OUT` (default `default_name`) and
    /// announces the path on stdout.
    ///
    /// # Panics
    ///
    /// Panics when the output file cannot be written — a broken CI
    /// workspace, not an input condition.
    pub fn write(default_name: &str, json: &str) {
        let out = std::env::var("FUSION_BENCH_OUT").unwrap_or_else(|_| default_name.into());
        std::fs::write(&out, json).unwrap_or_else(|e| panic!("write {out}: {e}"));
        println!("wrote {out}");
    }

    /// The CI regression gate. Disarmed (every check a no-op) unless
    /// `FUSION_BENCH_ENFORCE=1`.
    pub struct Gate {
        armed: bool,
    }

    impl Gate {
        /// Reads `FUSION_BENCH_ENFORCE` and arms the gate on `"1"`.
        pub fn from_env() -> Self {
            Gate {
                armed: std::env::var("FUSION_BENCH_ENFORCE").as_deref() == Ok("1"),
            }
        }

        /// True when the gate is armed.
        pub fn armed(&self) -> bool {
            self.armed
        }

        /// When armed and `ok` is false, prints `REGRESSION: <msg>` to
        /// stderr and exits with status 1.
        pub fn require(&self, ok: bool, msg: impl FnOnce() -> String) {
            if self.armed && !ok {
                eprintln!("REGRESSION: {}", msg());
                std::process::exit(1);
            }
        }

        /// When armed, prints the all-checks-passed line.
        pub fn pass(&self, summary: &str) {
            if self.armed {
                println!("enforce: {summary} — ok");
            }
        }
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
