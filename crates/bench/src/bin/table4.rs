//! Table 4 — taint analyses (CWE-23, CWE-402) on the industrial-sized
//! subjects: Fusion vs Pinpoint time and memory. Both engines work with
//! the same precision, so the binary exits 1 when they report different
//! `(source, sink)` sets on any subject.

use fusion::checkers::Checker;
use fusion::graph_solver::FusionSolver;
use fusion_baselines::PinpointEngine;
use fusion_bench::{
    banner, build_subject, default_budget, exit_on_disagreement, fmt_ratio, reported_pairs,
    run_checker, scale_from_env,
};
use fusion_workloads::large_subjects;

fn main() {
    banner(
        "Table 4: taint analysis on the industrial-sized projects",
        "CWE-23 (relative path traversal) and CWE-402 (private resource transmission)",
    );
    let scale = scale_from_env();
    let mut disagreements = Vec::new();
    for (label, checker) in [("CWE-23", Checker::cwe23()), ("CWE-402", Checker::cwe402())] {
        println!("\n--- {label} ---");
        println!(
            "{:>2} {:>8} | {:>10} {:>10} | {:>10} {:>10} | {:>7} {:>7} | {:>8}",
            "ID",
            "program",
            "fus-mem",
            "fus-time",
            "pin-mem",
            "pin-time",
            "mem-x",
            "time-x",
            "fus=pin?"
        );
        for spec in large_subjects() {
            let subject = build_subject(spec, scale);
            let mut fusion_engine = FusionSolver::new(default_budget());
            let fusion_run = run_checker(&subject, &checker, &mut fusion_engine);
            let mut pinpoint_engine = PinpointEngine::new(default_budget());
            let pinpoint_run = run_checker(&subject, &checker, &mut pinpoint_engine);
            let same = reported_pairs(&fusion_run) == reported_pairs(&pinpoint_run);
            if !same {
                disagreements.push(format!("{} ({label})", spec.name));
            }
            println!(
                "{:>2} {:>8} | {:>9}K {:>9.1}ms | {:>9}K {:>9.1}ms | {:>7} {:>7} | {:>8}",
                spec.id,
                spec.name,
                fusion_run.peak_memory / 1024,
                fusion_run.total_time().as_secs_f64() * 1e3,
                pinpoint_run.peak_memory / 1024,
                pinpoint_run.total_time().as_secs_f64() * 1e3,
                fmt_ratio(
                    pinpoint_run.peak_memory as f64,
                    fusion_run.peak_memory as f64
                ),
                fmt_ratio(
                    pinpoint_run.total_time().as_secs_f64(),
                    fusion_run.total_time().as_secs_f64()
                ),
                if same { "yes" } else { "NO!" },
            );
        }
    }
    println!("\npaper: ~10x speedup, ~11% of memory on average; one memory-out (wine, CWE-23).");
    exit_on_disagreement(&disagreements);
}
