//! The warm analysis service must be invisible in the output.
//!
//! `AnalysisSession::rescan` diffs an edited program against resident
//! per-function content fingerprints, evicts exactly the absint facts,
//! slice closures and verdicts the edit reaches, and re-runs only the
//! affected `(checker, source)` work items — replaying recorded outcomes
//! for the rest. None of that may reach the user: on
//! arbitrary generated programs with arbitrary single-function edits,
//! the warm rescan's reports must be *byte-identical* — same checkers,
//! sources, sinks, verdicts, witness paths, in the same order — to a
//! cold batch scan of the edited program, on a borrowed engine and at
//! thread counts 1–8, and every cache/absint/incremental combination
//! exercised here.
//! And the invalidation must be *strict*: an edit touching nothing
//! reachable from any source re-solves zero candidates.

use fusion::cache::VerdictCache;
use fusion::checkers::CheckerSet;
use fusion::engine::{
    analyze_multi_streaming_with_cache, analyze_multi_with_cache, AnalysisOptions, Feasibility,
    FeasibilityEngine, MultiAnalysisRun,
};
use fusion::graph_solver::FusionSolver;
use fusion::incremental::AnalysisSession;
use fusion::slice_cache::SliceCache;
use fusion_ir::{compile, CompileOptions, Program};
use fusion_pdg::graph::Pdg;
use fusion_smt::solver::SolverConfig;
use fusion_workloads::{generate, GenConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// Everything that reaches the user, in a comparable form, per checker.
type ReportKey = (
    String,
    fusion_pdg::graph::Vertex,
    fusion_pdg::graph::Vertex,
    Feasibility,
    Vec<fusion_pdg::graph::Vertex>,
);

fn keys(run: &MultiAnalysisRun) -> Vec<ReportKey> {
    run.checkers
        .iter()
        .flat_map(|b| {
            b.reports.iter().map(move |r| {
                (
                    b.kind.to_string(),
                    r.source,
                    r.sink,
                    r.verdict,
                    r.path.nodes.clone(),
                )
            })
        })
        .collect()
}

fn factory(incremental: bool) -> impl Fn() -> Box<dyn FeasibilityEngine> + Sync {
    move || {
        let mut engine = FusionSolver::new(SolverConfig::default());
        engine.incremental = incremental;
        Box::new(engine)
    }
}

/// Fresh analysis options (own slice cache) for one run or session.
fn options(use_cache: bool, absint: bool) -> AnalysisOptions {
    let mut o = if use_cache {
        AnalysisOptions::new()
    } else {
        AnalysisOptions::without_cache()
    };
    o = o.with_slice_cache(Arc::new(SliceCache::new()));
    o.absint = absint;
    o
}

/// Inserts one harmless-but-content-changing statement right after the
/// header of the `pick`-th non-extern function, returning the edited
/// source and the edited function's name. The generator's pretty-printer
/// puts every `fn name(args) {` header on its own line.
fn edit_one_function(source: &str, pick: usize) -> (String, String) {
    let headers: Vec<(usize, &str)> = source
        .lines()
        .enumerate()
        .filter(|(_, l)| l.starts_with("fn "))
        .collect();
    assert!(!headers.is_empty(), "generated subject has no functions");
    let (line_idx, header) = headers[pick % headers.len()];
    let name = header["fn ".len()..]
        .split('(')
        .next()
        .expect("function header has `(`")
        .to_string();
    let mut out = String::new();
    for (i, l) in source.lines().enumerate() {
        out.push_str(l);
        out.push('\n');
        if i == line_idx {
            out.push_str("    let zq_serve_edit = 41;\n");
        }
    }
    (out, name)
}

fn compile_src(src: &str) -> Program {
    compile(src, CompileOptions::default()).expect("compile")
}

/// Cold scans of the edited program, with fresh caches: one on a
/// borrowed engine, one on `threads` factory-built engines.
fn cold_runs(
    program: &Program,
    set: &CheckerSet,
    use_cache: bool,
    absint: bool,
    incremental: bool,
    threads: usize,
) -> Vec<(&'static str, MultiAnalysisRun)> {
    let pdg = Pdg::build(program);
    let mut out = Vec::new();
    let borrowed_opts = options(use_cache, absint);
    let borrowed_cache = VerdictCache::new();
    let mut engine = factory(incremental)();
    out.push((
        "borrowed",
        analyze_multi_with_cache(
            program,
            &pdg,
            set,
            engine.as_mut(),
            &borrowed_opts,
            use_cache.then_some(&borrowed_cache),
        ),
    ));
    let threaded_opts = options(use_cache, absint);
    let threaded_cache = VerdictCache::new();
    out.push((
        "threaded",
        analyze_multi_streaming_with_cache(
            program,
            &pdg,
            set,
            &factory(incremental),
            threads,
            &threaded_opts,
            use_cache.then_some(&threaded_cache),
        ),
    ));
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random program, random single-function edit: the warm rescan's
    /// transcript equals every cold scan's over the edited program.
    #[test]
    fn warm_rescan_equals_cold_scan(seed in 0u64..100_000, pick in 0usize..64) {
        let cfg = GenConfig { seed, functions: 10, ..Default::default() };
        let base_src = generate(&cfg).to_source();
        let (edited_src, _edited_fn) = edit_one_function(&base_src, pick);
        let set = CheckerSet::new(fusion::checkers::default_checkers());

        // (use_cache, absint, incremental): the full
        // default stack, everything off, and two mixed corners.
        let configs = [
            (true, true, true),
            (false, false, false),
            (true, false, false),
            (false, true, true),
        ];
        for (use_cache, absint, incremental) in configs {
            for threads in [1usize, 2, 4, 8] {
                let mut session = AnalysisSession::new(
                    set.clone(),
                    options(use_cache, absint),
                    threads,
                );
                session.scan(compile_src(&base_src), &factory(incremental));
                let warm = session.rescan(compile_src(&edited_src), &factory(incremental));
                let warm_keys = keys(&warm);
                for (driver, cold) in cold_runs(
                    &compile_src(&edited_src), &set,
                    use_cache, absint, incremental, threads,
                ) {
                    prop_assert_eq!(
                        &warm_keys, &keys(&cold),
                        "warm rescan diverged from cold {} at seed {} pick {} threads {} \
                         cache={} absint={} incremental={}",
                        driver, seed, pick, threads,
                        use_cache, absint, incremental
                    );
                    prop_assert_eq!(warm.candidates, cold.candidates);
                }
                let inv = session.last_invalidation();
                prop_assert!(
                    inv.candidates_reanalyzed <= warm.candidates as u64,
                    "reanalyzed {} of {} candidates", inv.candidates_reanalyzed, warm.candidates
                );
                prop_assert_eq!(inv.functions_edited, 1, "exactly one function was edited");
            }
        }
    }

    /// A rescan with *no* textual change replays everything: zero engine
    /// queries, zero candidates re-analyzed, identical transcript.
    #[test]
    fn unchanged_rescan_is_pure_replay(seed in 0u64..100_000) {
        let cfg = GenConfig { seed, functions: 10, ..Default::default() };
        let src = generate(&cfg).to_source();
        let set = CheckerSet::new(fusion::checkers::default_checkers());
        for threads in [1usize, 4] {
            let mut session = AnalysisSession::new(set.clone(), options(true, true), threads);
            let cold = session.scan(compile_src(&src), &factory(true));
            let warm = session.rescan(compile_src(&src), &factory(true));
            prop_assert_eq!(keys(&cold), keys(&warm), "seed {} threads {}", seed, threads);
            prop_assert_eq!(warm.queries, 0, "replay must not query the engine");
            prop_assert_eq!(session.last_invalidation().candidates_reanalyzed, 0);
            prop_assert_eq!(session.last_invalidation().verdicts_invalidated, 0);
        }
    }
}

/// Strict invalidation: an edit to a function that no source's component
/// reaches re-solves *zero* candidates and evicts nothing.
#[test]
fn edit_outside_source_components_resolves_zero_candidates() {
    let base = "extern fn deref(p); extern fn getpass(); extern fn sendmsg(x);\n\
        fn buggy(x) { let q = null; let r = 1; if (x > 0) { r = q; } deref(r); return 0; }\n\
        fn leaky(f) { let a = getpass(); let c = 1; if (f > 3) { c = a + 1; } sendmsg(c); return 0; }\n\
        fn inert(z) { let w = z + 1; return w * 2; }";
    // Only `inert` changes; it calls nothing, is called by nothing, and
    // contains no source of any checker.
    let edited = base.replace("let w = z + 1", "let w = z + 2");
    assert_ne!(base, edited);
    let set = CheckerSet::new(fusion::checkers::default_checkers());
    for threads in [1usize, 2, 8] {
        let mut session = AnalysisSession::new(set.clone(), options(true, true), threads);
        let cold = session.scan(compile_src(base), &factory(true));
        assert!(cold.candidates > 0, "subject must have candidates");
        let warm = session.rescan(compile_src(&edited), &factory(true));
        assert_eq!(keys(&cold), keys(&warm), "threads={threads}");
        let inv = session.last_invalidation();
        assert_eq!(inv.functions_edited, 1);
        assert_eq!(inv.functions_affected, 1, "inert is its own component");
        assert_eq!(
            inv.candidates_reanalyzed, 0,
            "an edit outside every source's component must re-solve nothing"
        );
        assert_eq!(inv.verdicts_invalidated, 0);
        assert_eq!(inv.slices_invalidated, 0);
        assert_eq!(
            warm.queries, 0,
            "no engine query on a fully-replayed rescan"
        );
        // The counters surface through the run's stage stats too.
        assert_eq!(warm.stages.candidates_reanalyzed, 0);
        assert_eq!(warm.stages.verdicts_invalidated, 0);
    }
}

/// End-to-end through the serve protocol: a warm `rescan` response's
/// findings are identical to a cold one-shot `scan_source` of the edited
/// program, for a generated subject over the line-delimited JSON loop.
#[test]
fn serve_loop_warm_findings_match_cold_scan_source() {
    use fusion_cli::json;
    use std::io::Cursor;

    let cfg = GenConfig {
        seed: 2024,
        functions: 10,
        ..Default::default()
    };
    let base_src = generate(&cfg).to_source();
    let (edited_src, edited_fn) = edit_one_function(&base_src, 3);
    for threads in [1usize, 4] {
        let opts = fusion_cli::Options {
            serve: true,
            threads,
            ..Default::default()
        };
        let requests = format!(
            "{{\"cmd\": \"scan\", \"source\": \"{}\"}}\n\
             {{\"cmd\": \"rescan\", \"source\": \"{}\", \"edited_fns\": [\"{}\"]}}\n",
            json::escape(&base_src),
            json::escape(&edited_src),
            json::escape(&edited_fn),
        );
        let mut out = Vec::new();
        let code = fusion_cli::serve::serve_loop(&opts, Cursor::new(requests), &mut out);
        assert_eq!(code, 0);
        let text = String::from_utf8(out).unwrap();
        let responses: Vec<json::Value> = text
            .lines()
            .map(|l| json::Value::parse(l).expect("valid response JSON"))
            .collect();
        assert_eq!(responses.len(), 2);
        let warm = responses[1].get("report").expect("rescan returns a report");
        let cold = fusion_cli::scan_source(
            &edited_src,
            &fusion_cli::Options {
                threads,
                ..Default::default()
            },
        )
        .expect("cold scan");
        // Byte-level comparison of the findings arrays: serialize the
        // cold findings through the same JSON path.
        let cold_json = json::Value::parse(&cold.to_json()).expect("valid cold JSON");
        assert_eq!(
            warm.get("findings").unwrap(),
            cold_json.get("findings").unwrap(),
            "threads={threads}"
        );
        assert_eq!(
            responses[1].get("functions_edited").unwrap().as_f64(),
            Some(1.0)
        );
    }
}
