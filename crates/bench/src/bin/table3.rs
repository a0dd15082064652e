//! Table 3 — time and memory: Fusion vs Pinpoint (null-dereference
//! checking on all sixteen subjects).
//!
//! The claim under test: Fusion uses a fraction of Pinpoint's memory
//! (paper: 3%-20%) and is faster (paper: 2x-48x), with both reporting the
//! same bugs. The binary exits 1 when the two engines report different
//! `(source, sink)` sets on any subject.

use fusion::checkers::Checker;
use fusion::graph_solver::FusionSolver;
use fusion_baselines::PinpointEngine;
use fusion_bench::{
    banner, build_subject, default_budget, exit_on_disagreement, fmt_ratio, reported_pairs,
    run_checker, scale_from_env,
};
use fusion_workloads::SUBJECTS;

fn main() {
    banner(
        "Table 3: performance compared to Pinpoint (null exceptions)",
        "memory = peak tracked bytes; time = wall clock; same reports required",
    );
    let scale = scale_from_env();
    println!(
        "{:>2} {:>8} | {:>10} {:>10} {:>8} | {:>10} {:>10} {:>8} | {:>6} {:>6} | {:>10}",
        "ID",
        "program",
        "fus-mem",
        "pin-mem",
        "mem-x",
        "fus-time",
        "pin-time",
        "time-x",
        "paper",
        "paper",
        "reports"
    );
    println!(
        "{:>2} {:>8} | {:>10} {:>10} {:>8} | {:>10} {:>10} {:>8} | {:>6} {:>6} | {:>10}",
        "", "", "(KiB)", "(KiB)", "", "(ms)", "(ms)", "", "mem-x", "time-x", "fus=pin?"
    );
    let checker = Checker::null_deref();
    let mut disagreements = Vec::new();
    for spec in &SUBJECTS {
        let subject = build_subject(spec, scale);
        let mut fusion_engine = FusionSolver::new(default_budget());
        let fusion_run = run_checker(&subject, &checker, &mut fusion_engine);
        let mut pinpoint_engine = PinpointEngine::new(default_budget());
        let pinpoint_run = run_checker(&subject, &checker, &mut pinpoint_engine);
        let same = reported_pairs(&fusion_run) == reported_pairs(&pinpoint_run);
        if !same {
            disagreements.push(spec.name.to_string());
        }
        println!(
            "{:>2} {:>8} | {:>10} {:>10} {:>8} | {:>10.1} {:>10.1} {:>8} | {:>6} {:>6} | {:>4} {}",
            spec.id,
            spec.name,
            fusion_run.peak_memory / 1024,
            pinpoint_run.peak_memory / 1024,
            fmt_ratio(
                pinpoint_run.peak_memory as f64,
                fusion_run.peak_memory as f64
            ),
            fusion_run.total_time().as_secs_f64() * 1e3,
            pinpoint_run.total_time().as_secs_f64() * 1e3,
            fmt_ratio(
                pinpoint_run.total_time().as_secs_f64(),
                fusion_run.total_time().as_secs_f64()
            ),
            fmt_ratio(spec.pinpoint_mem_gb, spec.fusion_mem_gb),
            fmt_ratio(spec.pinpoint_time_s, spec.fusion_time_s),
            fusion_run.reports.len(),
            if same { "= yes" } else { "= NO!" },
        );
    }
    println!("\nexpected shape: pin-mem/fus-mem and pin-time/fus-time > 1 throughout,");
    println!("growing with subject size; reports identical (same precision).");
    exit_on_disagreement(&disagreements);
}
