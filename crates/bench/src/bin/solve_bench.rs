//! `solve_bench` — the incremental-session perf harness (`BENCH_solve.json`).
//!
//! Replays the exact query stream the analysis issues over a fixed corpus
//! (the examples programs, a family of synthetic hot-sink subjects, and two
//! scaled workload subjects) through two solving modes:
//!
//! * **cold** — every query pays the full pipeline from scratch: fresh
//!   `TermPool`, re-translate, re-preprocess, re-bitblast, brand-new
//!   `SatSolver` (the pre-session behavior);
//! * **session** — one persistent `TermPool` + [`SolveSession`] per
//!   program: translation hash-conses shared slices, shared subterms
//!   bit-blast once, and learnt clauses carry across queries.
//!
//! Verdicts are asserted identical per query. The harness also runs the
//! end-to-end engine (`FusionSolver` with `incremental` on/off) over the
//! same corpus and asserts byte-identical reports.
//!
//! Output: `BENCH_solve.json` in the working directory (override with
//! `FUSION_BENCH_OUT`). With `FUSION_BENCH_ENFORCE=1` the process exits
//! non-zero when session mode is more than 10% slower than cold mode on
//! the corpus aggregate — the CI regression gate.

use fusion::checkers::Checker;
use fusion::engine::{analyze, AnalysisOptions, AnalysisRun, Feasibility};
use fusion::graph_solver::FusionSolver;
use fusion::propagate::{discover, Candidate, PropagateOptions};
use fusion_bench::{banner, build_subject, default_budget, report, scale_from_env};
use fusion_ir::{compile, CompileOptions, Program};
use fusion_pdg::graph::Pdg;
use fusion_pdg::slice::compute_slice;
use fusion_pdg::translate::{translate, TranslateOptions};
use fusion_smt::session::SolveSession;
use fusion_smt::solver::{smt_solve, SatResult};
use fusion_smt::term::TermPool;
use fusion_workloads::SUBJECTS;
use std::fmt::Write as _;
use std::time::Instant;

/// Aggregate counters for one solving mode.
#[derive(Debug, Default, Clone, Copy)]
struct ModeTotals {
    wall_us: u128,
    terms_built: u64,
    cnf_clauses: u64,
    sat_conflicts: u64,
    queries: u64,
    preprocess_decided: u64,
    sat: u64,
    unsat: u64,
    unknown: u64,
}

impl ModeTotals {
    fn per_query_us(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.wall_us as f64 / self.queries as f64
        }
    }

    fn count(&mut self, r: &SatResult) {
        match r {
            SatResult::Sat(_) => self.sat += 1,
            SatResult::Unsat => self.unsat += 1,
            SatResult::Unknown => self.unknown += 1,
        }
    }
}

/// The Fig. 1 running example (same program the examples use).
const FIG1: &str = "extern fn deref(p);\n\
    fn bar(x) { let y = x * 2; let z = y; return z; }\n\
    fn foo(a, b) {\n\
      let pp = null;\n\
      let c = bar(a);\n\
      let d = bar(b);\n\
      let r = 1;\n\
      if (c < d) { r = pp; }\n\
      deref(r);\n\
      return 0;\n\
    }";

/// An interprocedural mix: constant and affine callees, one infeasible
/// guard pair.
const INTERPROC: &str = "extern fn deref(p);\n\
    fn ten() { return 10; }\n\
    fn inc(x) { return x + 1; }\n\
    fn foo(a) {\n\
      let pp = null;\n\
      let r = 1;\n\
      if (ten() > 5) { r = pp; }\n\
      deref(r);\n\
      let qq = null;\n\
      let s = 1;\n\
      if (inc(a) > 3) { if (inc(a) < 2) { s = qq; } }\n\
      deref(s);\n\
      return 0;\n\
    }";

/// Synthetic hot-sink subjects: `funcs` functions, each with one shared
/// nonlinear core (`w = x * y` via an opaque callee) guarding `sinks`
/// null-deref candidates. Candidates against one sink function share
/// almost all of their slice — exactly the redundancy the session layer
/// amortizes — and the `x * y == k` guards survive preprocessing, so the
/// shared multiplier must be bit-blasted (once per session, once per
/// query when cold).
fn hot_sink_source(funcs: usize, sinks: usize) -> String {
    let mut s = String::from("extern fn deref(p);\n");
    for f in 0..funcs {
        let _ = writeln!(
            s,
            "fn churn{f}(a, b) {{ let t = a * b; let u = t * t + a; \
             let v = u * b + t; let z = v * v + u; return z; }}"
        );
        let _ = writeln!(s, "fn hot{f}(x, y) {{");
        let _ = writeln!(s, "  let w = churn{f}(x, y);");
        for k in 0..sinks {
            let target = 77 + 2 * k + f;
            let _ = writeln!(
                s,
                "  let q{k} = null; let r{k} = 1; if (w == {target}) {{ r{k} = q{k}; }} deref(r{k});"
            );
        }
        // One unsatisfiable guard per function: x² = 3 has no solution
        // modulo a power of two, so the session sees UNSAT-after-SAT.
        let _ = writeln!(
            s,
            "  let qz = null; let rz = 1; if (x * x == 3) {{ rz = qz; }} deref(rz);"
        );
        let _ = writeln!(s, "  return 0;\n}}");
    }
    s
}

/// One corpus entry: a compiled program with its dependence graph.
struct Entry {
    name: String,
    program: Program,
    pdg: Pdg,
}

fn corpus() -> Vec<Entry> {
    let mut entries = Vec::new();
    let mut push_src = |name: &str, src: &str| {
        let program = compile(src, CompileOptions::default()).expect("corpus compiles");
        let pdg = Pdg::build(&program);
        entries.push(Entry {
            name: name.to_string(),
            program,
            pdg,
        });
    };
    push_src("fig1", FIG1);
    push_src("interproc", INTERPROC);
    let hot = hot_sink_source(6, 20);
    push_src("hot-sinks", &hot);
    // Two scaled workload subjects for realism (scale via FUSION_SCALE).
    let scale = scale_from_env();
    for spec in &SUBJECTS[..2] {
        let subject = build_subject(spec, scale);
        entries.push(Entry {
            name: spec.name.to_string(),
            program: subject.program,
            pdg: subject.pdg,
        });
    }
    entries
}

/// The query stream of one program, batched into slice groups the way the
/// analysis driver batches each work item's candidates: grouped by sink
/// function (first-occurrence order), candidate order within a group,
/// every path of every candidate.
fn query_groups(candidates: &[Candidate]) -> Vec<Vec<(usize, usize)>> {
    let mut order: Vec<(u64, Vec<usize>)> = Vec::new();
    for (i, c) in candidates.iter().enumerate() {
        let key = c.sink.func.0 as u64;
        match order.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(i),
            None => order.push((key, vec![i])),
        }
    }
    order
        .into_iter()
        .map(|(_, idxs)| {
            idxs.into_iter()
                .flat_map(|i| (0..candidates[i].paths.len()).map(move |p| (i, p)))
                .collect()
        })
        .collect()
}

fn main() {
    banner(
        "solve_bench: cold vs incremental-session solving",
        "same query stream, two pipelines; verdicts asserted identical",
    );
    let budget = default_budget();
    let opts = TranslateOptions::default();
    let checker = Checker::null_deref();
    let mut cold = ModeTotals::default();
    let mut session_t = ModeTotals::default();
    let mut engine_cold_us: u128 = 0;
    let mut engine_inc_us: u128 = 0;
    let mut engine_cold_terms: u64 = 0;
    let mut engine_inc_terms: u64 = 0;
    let mut reports_identical = true;

    for entry in corpus() {
        let candidates = discover(
            &entry.program,
            &entry.pdg,
            &checker,
            &PropagateOptions::default(),
        );
        let groups = query_groups(&candidates);
        let stream: Vec<(usize, usize)> = groups.iter().flatten().copied().collect();

        // ---- cold: fresh pool + cold pipeline per query ----
        let t0 = Instant::now();
        let mut cold_verdicts = Vec::with_capacity(stream.len());
        for &(ci, pi) in &stream {
            let path = std::slice::from_ref(&candidates[ci].paths[pi]);
            let slice = compute_slice(&entry.program, &entry.pdg, path);
            let mut pool = TermPool::new();
            let Ok(tr) = translate(&entry.program, &slice, &mut pool, &opts) else {
                cold_verdicts.push(SatResult::Unknown);
                continue;
            };
            let (r, stats) = smt_solve(&mut pool, tr.formula, &budget);
            cold.terms_built += pool.len() as u64;
            cold.cnf_clauses += stats.cnf_clauses as u64;
            cold.sat_conflicts += stats.sat_conflicts;
            cold.preprocess_decided += u64::from(stats.preprocess_decided);
            cold.queries += 1;
            cold.count(&r);
            cold_verdicts.push(r);
        }
        cold.wall_us += t0.elapsed().as_micros();

        // ---- session: one pool per program, one SolveSession per slice
        // group (exactly the engine's epoch discipline: queries in a group
        // share almost everything; across groups a persistent session
        // would only grow the CDCL universe every query must re-search).
        let t1 = Instant::now();
        let mut pool = TermPool::new();
        let mut sess_verdicts = Vec::with_capacity(stream.len());
        for group in &groups {
            let mut session = SolveSession::new();
            for &(ci, pi) in group {
                let path = std::slice::from_ref(&candidates[ci].paths[pi]);
                let slice = compute_slice(&entry.program, &entry.pdg, path);
                let before = pool.len();
                let Ok(tr) = translate(&entry.program, &slice, &mut pool, &opts) else {
                    sess_verdicts.push(SatResult::Unknown);
                    continue;
                };
                let (r, stats) = session.solve_formula(&mut pool, tr.formula, &budget);
                session_t.terms_built += (pool.len() - before) as u64;
                session_t.cnf_clauses += stats.cnf_clauses as u64;
                session_t.sat_conflicts += stats.sat_conflicts;
                session_t.preprocess_decided += u64::from(stats.preprocess_decided);
                session_t.queries += 1;
                session_t.count(&r);
                sess_verdicts.push(r);
            }
        }
        session_t.wall_us += t1.elapsed().as_micros();

        for (i, (a, b)) in cold_verdicts.iter().zip(&sess_verdicts).enumerate() {
            let agree = matches!(
                (a, b),
                (SatResult::Sat(_), SatResult::Sat(_))
                    | (SatResult::Unsat, SatResult::Unsat)
                    | (SatResult::Unknown, SatResult::Unknown)
            );
            assert!(
                agree,
                "{}: query {i} verdict mismatch: cold={a:?} session={b:?}",
                entry.name
            );
        }

        // ---- end-to-end engine: incremental on vs off ----
        let run_engine = |incremental: bool| -> (AnalysisRun, u64, u128) {
            let mut engine = FusionSolver::new(budget);
            engine.incremental = incremental;
            let t = Instant::now();
            let run = analyze(
                &entry.program,
                &entry.pdg,
                &checker,
                &mut engine,
                &AnalysisOptions::without_cache(),
            );
            let us = t.elapsed().as_micros();
            (run, engine.metrics().terms_built, us)
        };
        let (run_c, terms_c, us_c) = run_engine(false);
        let (run_i, terms_i, us_i) = run_engine(true);
        engine_cold_us += us_c;
        engine_inc_us += us_i;
        engine_cold_terms += terms_c;
        engine_inc_terms += terms_i;
        let key =
            |r: &fusion::engine::BugReport| (r.source, r.sink, r.verdict, r.path.nodes.clone());
        let a: Vec<_> = run_c.reports.iter().map(key).collect();
        let b: Vec<_> = run_i.reports.iter().map(key).collect();
        if a != b || run_c.suppressed != run_i.suppressed {
            reports_identical = false;
        }
        println!(
            "  {:<12} queries={:<4} sat/unsat/unk={}/{}/{} reports={} (identical: {})",
            entry.name,
            stream.len(),
            run_i
                .reports
                .iter()
                .filter(|r| r.verdict == Feasibility::Feasible)
                .count(),
            run_i.suppressed,
            run_i
                .reports
                .iter()
                .filter(|r| r.verdict == Feasibility::Unknown)
                .count(),
            run_i.reports.len(),
            a == b,
        );
    }
    assert!(reports_identical, "incremental mode changed engine reports");

    let pct = |cold: f64, new: f64| -> f64 {
        if cold <= 0.0 {
            0.0
        } else {
            100.0 * (cold - new) / cold
        }
    };
    let wall_pct = pct(cold.wall_us as f64, session_t.wall_us as f64);
    let terms_pct = pct(cold.terms_built as f64, session_t.terms_built as f64);
    let clause_pct = pct(cold.cnf_clauses as f64, session_t.cnf_clauses as f64);

    println!("--------------------------------------------------------------");
    println!(
        "cold:    wall={:>9.3}ms terms={:<9} clauses={:<8} conflicts={:<6} {:.1}us/q",
        cold.wall_us as f64 / 1000.0,
        cold.terms_built,
        cold.cnf_clauses,
        cold.sat_conflicts,
        cold.per_query_us()
    );
    println!(
        "session: wall={:>9.3}ms terms={:<9} clauses={:<8} conflicts={:<6} {:.1}us/q",
        session_t.wall_us as f64 / 1000.0,
        session_t.terms_built,
        session_t.cnf_clauses,
        session_t.sat_conflicts,
        session_t.per_query_us()
    );
    println!("reduction: wall {wall_pct:.1}% | terms {terms_pct:.1}% | clauses {clause_pct:.1}%");
    println!(
        "engine (analyze, no cache): cold {:.3}ms / incremental {:.3}ms, terms {} -> {}",
        engine_cold_us as f64 / 1000.0,
        engine_inc_us as f64 / 1000.0,
        engine_cold_terms,
        engine_inc_terms,
    );

    let mode_json = |m: &ModeTotals| -> String {
        format!(
            "{{\"wall_us\": {}, \"terms_built\": {}, \"cnf_clauses\": {}, \
             \"sat_conflicts\": {}, \"queries\": {}, \"per_query_us\": {:.2}, \
             \"preprocess_decided\": {}, \"sat\": {}, \"unsat\": {}, \"unknown\": {}}}",
            m.wall_us,
            m.terms_built,
            m.cnf_clauses,
            m.sat_conflicts,
            m.queries,
            m.per_query_us(),
            m.preprocess_decided,
            m.sat,
            m.unsat,
            m.unknown
        )
    };
    let json = format!(
        "{{\n  \"scale\": {},\n  \"threads\": 1,\n  \"iters\": 1,\n  \
         \"cold\": {},\n  \"session\": {},\n  \
         \"reduction\": {{\"wall_pct\": {wall_pct:.2}, \"terms_pct\": {terms_pct:.2}, \
         \"clauses_pct\": {clause_pct:.2}}},\n  \
         \"engine\": {{\"cold_us\": {engine_cold_us}, \"incremental_us\": {engine_inc_us}, \
         \"cold_terms_built\": {engine_cold_terms}, \"incremental_terms_built\": {engine_inc_terms}, \
         \"reports_identical\": {reports_identical}}}\n}}\n",
        scale_from_env(),
        mode_json(&cold),
        mode_json(&session_t),
    );
    report::write("BENCH_solve.json", &json);

    // CI gate: session must never be >10% slower than cold.
    let gate = report::Gate::from_env();
    gate.require(
        session_t.wall_us as f64 <= cold.wall_us as f64 * 1.10,
        || {
            format!(
                "session wall {}us exceeds 110% of cold wall {}us",
                session_t.wall_us, cold.wall_us
            )
        },
    );
    gate.pass("session within 110% of cold");
}
