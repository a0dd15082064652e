//! Human-readable rendering of bug reports and witness paths.
//!
//! A report's dependence path is a sequence of PDG vertices with call and
//! return crossings; this module renders it as a step-by-step trace —
//! what a code reviewer needs to triage the finding — and renders whole
//! report batches grouped by function.

use crate::engine::{BugReport, Feasibility, MultiAnalysisRun};
use fusion_ir::ssa::{DefKind, Program};
use fusion_pdg::paths::Link;
use std::fmt::Write as _;

fn describe_def(program: &Program, func: fusion_ir::FuncId, var: fusion_ir::VarId) -> String {
    let f = program.func(func);
    match &f.def(var).kind {
        DefKind::Param { index } => format!("parameter #{index}"),
        DefKind::Const { is_null: true, .. } => "the null constant".to_owned(),
        DefKind::Const { value, .. } => format!("constant {value}"),
        DefKind::Copy { .. } => "a copy".to_owned(),
        DefKind::Binary { op, .. } => format!("a {op:?} expression"),
        DefKind::Ite { .. } => "a branch merge (ite)".to_owned(),
        DefKind::Call { callee, .. } => {
            format!("a call to `{}`", program.name(program.func(*callee).name))
        }
        DefKind::Branch { .. } => "a branch".to_owned(),
        DefKind::Return { .. } => "the return value".to_owned(),
    }
}

/// Renders one report as a multi-line trace.
pub fn render_report(program: &Program, report: &BugReport) -> String {
    let mut out = String::new();
    let verdict = match report.verdict {
        Feasibility::Feasible => "feasible",
        Feasibility::Unknown => "undecided (budget exhausted)",
        Feasibility::Infeasible => "infeasible", // not reported in practice
    };
    let src_fn = program.name(program.func(report.source.func).name);
    let sink_fn = program.name(program.func(report.sink.func).name);
    let _ = writeln!(
        out,
        "{verdict}: value born in `{src_fn}` reaches a sink in `{sink_fn}` \
         ({} dependence steps)",
        report.path.nodes.len()
    );
    for (i, node) in report.path.nodes.iter().enumerate() {
        let fname = program.name(program.func(node.func).name);
        let what = describe_def(program, node.func, node.var);
        let arrow = if i == 0 {
            "source".to_owned()
        } else {
            match report.path.links[i - 1] {
                Link::Local => "flows to".to_owned(),
                Link::Enter(s) => format!("enters callee via call site {s}"),
                Link::Exit(s) => format!("returns to caller via call site {s}"),
            }
        };
        let _ = writeln!(out, "  {i:>2}. [{arrow}] {fname}:{} — {what}", node.var);
    }
    out
}

/// Renders a batch of reports, grouped by the source's function, with a
/// one-line summary header.
pub fn render_reports(program: &Program, reports: &[BugReport]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{} finding(s)", reports.len());
    let mut sorted: Vec<&BugReport> = reports.iter().collect();
    sorted.sort_by_key(|r| (r.source, r.sink));
    for r in sorted {
        out.push_str(&render_report(program, r));
        out.push('\n');
    }
    out
}

/// Renders a fused multi-checker run: one section per checker (in
/// [`CheckerSet`][crate::checkers::CheckerSet] order) with that
/// checker's finding count, suppression count, and traces, plus a
/// whole-run summary header.
pub fn render_multi(program: &Program, run: &MultiAnalysisRun) -> String {
    let mut out = String::new();
    let total: usize = run.checkers.iter().map(|b| b.reports.len()).sum();
    let _ = writeln!(
        out,
        "{total} finding(s) across {} checker(s) [{}]",
        run.checkers.len(),
        run.engine
    );
    for b in &run.checkers {
        let _ = writeln!(
            out,
            "== {}: {} finding(s), {} suppressed, {} candidate(s), {} query(ies)",
            b.kind,
            b.reports.len(),
            b.suppressed,
            b.candidates,
            b.queries
        );
        let mut sorted: Vec<&BugReport> = b.reports.iter().collect();
        sorted.sort_by_key(|r| (r.source, r.sink));
        for r in sorted {
            out.push_str(&render_report(program, r));
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::Checker;
    use crate::engine::{analyze, AnalysisOptions};
    use crate::graph_solver::FusionSolver;
    use fusion_ir::{compile, CompileOptions};
    use fusion_pdg::graph::Pdg;
    use fusion_smt::solver::SolverConfig;

    fn reports_for(src: &str) -> (Program, Vec<BugReport>) {
        let program = compile(src, CompileOptions::default()).expect("compile");
        let pdg = Pdg::build(&program);
        let mut engine = FusionSolver::new(SolverConfig::default());
        let run = analyze(
            &program,
            &pdg,
            &Checker::null_deref(),
            &mut engine,
            &AnalysisOptions::new(),
        );
        (program, run.reports)
    }

    #[test]
    fn trace_mentions_every_step() {
        let (program, reports) = reports_for(
            "extern fn deref(p);\n\
             fn id(x) { return x; }\n\
             fn f() { let q = null; let r = id(q); deref(r); return 0; }",
        );
        assert_eq!(reports.len(), 1);
        let text = render_report(&program, &reports[0]);
        assert!(text.contains("feasible"), "{text}");
        assert!(text.contains("the null constant"), "{text}");
        assert!(text.contains("enters callee via call site"), "{text}");
        assert!(text.contains("returns to caller via call site"), "{text}");
        assert!(text.contains("a call to `deref`"), "{text}");
        // One line per path vertex plus the header.
        assert_eq!(text.lines().count(), reports[0].path.nodes.len() + 1);
    }

    #[test]
    fn multi_rendering_sections_per_checker() {
        use crate::checkers::CheckerSet;
        use crate::engine::analyze_multi_with_cache;
        let src = "extern fn deref(p);\n\
             extern fn gets(p);\n\
             extern fn fopen(p);\n\
             fn a() { let q = null; deref(q); return 0; }\n\
             fn b(x) { let t = gets(x); fopen(t); return 0; }";
        let program = compile(src, CompileOptions::default()).expect("compile");
        let pdg = Pdg::build(&program);
        let mut engine = FusionSolver::new(SolverConfig::default());
        let set = CheckerSet::all();
        let run = analyze_multi_with_cache(
            &program,
            &pdg,
            &set,
            &mut engine,
            &AnalysisOptions::new(),
            None,
        );
        let text = render_multi(&program, &run);
        assert!(text.contains("across 3 checker(s)"), "{text}");
        let nd = text.find("== null-deref:").expect("null-deref section");
        let c23 = text.find("== cwe-23:").expect("cwe-23 section");
        let c402 = text.find("== cwe-402:").expect("cwe-402 section");
        assert!(nd < c23 && c23 < c402, "sections in CheckerSet order");
        assert!(text.contains("== null-deref: 1 finding(s)"), "{text}");
        assert!(text.contains("== cwe-23: 1 finding(s)"), "{text}");
        assert!(text.contains("== cwe-402: 0 finding(s)"), "{text}");
        let total: usize = run.checkers.iter().map(|b| b.reports.len()).sum();
        assert!(text.starts_with(&format!("{total} finding(s)")), "{text}");
    }

    #[test]
    fn batch_rendering_sorts_and_counts() {
        let (program, reports) = reports_for(
            "extern fn deref(p);\n\
             fn g() { let q = null; deref(q); return 0; }\n\
             fn h() { let q = null; deref(q); return 0; }",
        );
        assert_eq!(reports.len(), 2);
        let text = render_reports(&program, &reports);
        assert!(text.starts_with("2 finding(s)"));
        let g_pos = text.find("`g`").expect("g present");
        let h_pos = text.find("`h`").expect("h present");
        assert!(g_pos < h_pos, "sorted by source");
    }
}
