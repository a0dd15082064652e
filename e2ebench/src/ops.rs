//! The operations the workloads repeat, each a sequence of calls into
//! the layers' public functions, and the checks of their verdicts.
//!
//! Every operation runs the same calls whether tracing is on or off; with
//! tracing on, each call also records a span named after its layer.
//! Layers a batch entry point runs internally are timed by
//! [`graph_layers`], outside the operation's wall.

use crate::engine::{timed_factory, QueryLog, QueryTotals};
use crate::subjects::{HotSink, SeedKey};
use crate::trace::Tracer;
use fusion::absint::ProgramFacts;
use fusion::cache::VerdictCache;
use fusion::checkers::CheckerSet;
use fusion::compact::CompactPdg;
use fusion::engine::{
    analyze_multi_streaming_with_cache, AnalysisOptions, Feasibility, FeasibilityEngine,
    MultiAnalysisRun,
};
use fusion::graph_solver::FusionSolver;
use fusion::incremental::{AnalysisSession, InvalidationStats};
use fusion::partition::ShardPlan;
use fusion::propagate::discover_all_multi_compact;
use fusion::shard::{merge_outcomes, replay_merged, run_shard, scan_snapshot};
use fusion::slice_cache::SliceCache;
use fusion::snapshot::{open_bytes, CallGraphInfo};
use fusion_baselines::pinpoint::PinpointEngine;
use fusion_ir::ssa::{DefKind, Program};
use fusion_ir::{compile_ast, parser, CompileOptions, Interner};
use fusion_pdg::graph::Pdg;
use fusion_smt::solver::SolverConfig;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

/// Analysis threads of every driver call. On a two-core machine two
/// threads scanned no faster than one, while the seed-to-seed spread of
/// `scan_s` and the resident peak grew several-fold (load balance of the
/// two sticky solve workers, per-thread allocator arenas), so the load
/// is one process driving one analysis thread.
pub const THREADS: usize = 1;
/// Shards of a partitioned scan.
pub const SHARDS: usize = 4;

/// The per-query budget every engine gets (the harnesses' default).
fn budget() -> SolverConfig {
    SolverConfig {
        timeout: Some(Duration::from_secs(10)),
        max_conflicts: Some(200_000),
        ..Default::default()
    }
}

fn fusion_engine() -> Box<dyn FeasibilityEngine> {
    Box::new(FusionSolver::new(budget()))
}

fn pinpoint_engine() -> Box<dyn FeasibilityEngine> {
    Box::new(PinpointEngine::new(budget()))
}

/// Fresh options per operation: a run-local slice memo keeps every scan
/// cold.
pub fn options() -> AnalysisOptions {
    AnalysisOptions::new().with_slice_cache(Arc::new(SliceCache::new()))
}

/// Parses and lowers `text` (spans `ir.parse`, `ir.lower`).
pub fn compile(tracer: &Arc<Tracer>, parent: Option<usize>, text: &str) -> Program {
    let mut interner = Interner::new();
    let ast = tracer
        .span("ir.parse", parent, |_| parser::parse(text, &mut interner))
        .expect("generated source parses");
    tracer
        .span("ir.lower", parent, |_| {
            compile_ast(&ast, &mut interner, CompileOptions::default())
        })
        .expect("generated source compiles")
}

/// What a cold scan leaves for the checks and the per-layer counters.
pub struct ScanOut {
    pub program: Program,
    pub pdg: Pdg,
    pub run: MultiAnalysisRun,
    pub queries: QueryTotals,
}

/// One cold batch scan from source text to reports (root span `scan`).
pub fn scan(tracer: &Arc<Tracer>, set: &CheckerSet, text: &str) -> ScanOut {
    let log = QueryLog::new();
    let (program, pdg, run) = tracer.span("scan", None, |root| {
        let program = compile(tracer, root, text);
        let pdg = tracer.span("pdg.build", root, |_| Pdg::build(&program));
        let run = tracer.span("engine.drive", root, |drive| {
            let make = timed_factory(fusion_engine, &log, tracer, drive, "graph_solver.check");
            analyze_multi_streaming_with_cache(
                &program,
                &pdg,
                set,
                &make,
                THREADS,
                &options(),
                Some(&VerdictCache::new()),
            )
        });
        (program, pdg, run)
    });
    ScanOut {
        program,
        pdg,
        run,
        queries: log.totals(),
    }
}

/// Times, each on its own (root spans `absint.compute`, `compact.build`,
/// `propagate.discover`), the layers the batch driver runs inside
/// `engine.drive` before solving: abstract facts, the compacted view,
/// and discovery over that view. Called after a traced scan, outside its
/// wall.
pub fn graph_layers(tracer: &Arc<Tracer>, set: &CheckerSet, program: &Program, pdg: &Pdg) {
    let propagate = AnalysisOptions::new().propagate;
    tracer.span("absint.compute", None, |_| {
        std::hint::black_box(ProgramFacts::compute(program))
    });
    let compact = tracer.span("compact.build", None, |_| {
        CompactPdg::build(program, pdg, set, &propagate)
    });
    tracer.span("propagate.discover", None, |_| {
        std::hint::black_box(discover_all_multi_compact(
            program,
            pdg,
            set,
            &propagate,
            THREADS,
            Some(&compact),
        ))
    });
}

/// A warm session over `text` after its cold scan (root span
/// `session.scan`).
pub fn open_session(tracer: &Arc<Tracer>, set: &CheckerSet, text: &str) -> AnalysisSession {
    let log = QueryLog::new();
    tracer.span("session.scan", None, |root| {
        let program = compile(tracer, root, text);
        let mut session = AnalysisSession::new(set.clone(), options(), THREADS);
        let make = timed_factory(fusion_engine, &log, tracer, root, "session.check");
        session.scan(program, &make);
        session
    })
}

pub struct RescanOut {
    pub run: MultiAnalysisRun,
    pub queries: QueryTotals,
    pub invalidation: InvalidationStats,
    pub defs: usize,
}

/// Compiles the edited `text` and rescans it warm (root span `rescan`).
pub fn rescan(tracer: &Arc<Tracer>, session: &mut AnalysisSession, text: &str) -> RescanOut {
    let log = QueryLog::new();
    let run = tracer.span("rescan", None, |root| {
        let program = compile(tracer, root, text);
        tracer.span("incremental.rescan", root, |span| {
            let make = timed_factory(fusion_engine, &log, tracer, span, "graph_solver.check");
            session.rescan(program, &make)
        })
    });
    RescanOut {
        run,
        queries: log.totals(),
        invalidation: session.last_invalidation(),
        defs: session.program().map_or(0, Program::size),
    }
}

pub struct ShardedOut {
    pub program: Program,
    pub run: MultiAnalysisRun,
    pub queries: QueryTotals,
    pub shard_peaks: Vec<u64>,
    pub snapshot_bytes: u64,
    pub summaries_imported: u64,
}

/// One `SHARDS`-way partitioned scan from source text to the merged
/// report (root span `sharded_scan`), in memory. These are the steps of
/// `analyze_sharded` without a snapshot directory, called one by one so
/// each is a span of its own.
pub fn sharded_scan(tracer: &Arc<Tracer>, set: &CheckerSet, text: &str) -> ShardedOut {
    let log = QueryLog::new();
    let opts = options();
    let cache = VerdictCache::new();
    tracer.span("sharded_scan", None, |root| {
        let program = compile(tracer, root, text);
        let bytes = tracer.span("snapshot.write", root, |_| scan_snapshot(&program, &opts));
        let snapshot_bytes = bytes.len() as u64;
        let snap = open_bytes(bytes).expect("fresh snapshot opens");
        let (info, plan) = tracer.span("partition.plan", root, |_| {
            let info = CallGraphInfo::of_program(&program);
            let plan = ShardPlan::compute(&info, SHARDS);
            (info, plan)
        });
        let mut parts = Vec::new();
        let mut shard_peaks = Vec::new();
        let mut summaries_imported = 0;
        for s in (0..plan.k()).filter(|&s| !plan.owned(s).is_empty()) {
            let out = tracer.span("shard.run", root, |span| {
                let make = timed_factory(fusion_engine, &log, tracer, span, "graph_solver.check");
                run_shard(
                    &snap,
                    &info,
                    &plan,
                    s,
                    set,
                    &make,
                    THREADS,
                    &opts,
                    Some(&cache),
                )
                .expect("shard reads its snapshot")
            });
            summaries_imported += out.imported;
            shard_peaks.push(out.peak_memory);
            parts.push(out.outcomes);
        }
        let run = tracer.span("shard.merge_replay", root, |span| {
            let make = timed_factory(fusion_engine, &log, tracer, span, "graph_solver.check");
            let merged = merge_outcomes(parts);
            replay_merged(&program, set, &make, THREADS, &opts, Some(&cache), &merged)
        });
        ShardedOut {
            program,
            run,
            queries: log.totals(),
            shard_peaks,
            snapshot_bytes,
            summaries_imported,
        }
    })
}

/// The Table 3 comparison: the same cold driver over the same program,
/// once with Fusion's solver and once with the Pinpoint engine in its
/// place (root span `baseline`). Returns the summed `check_paths` time
/// of each, Fusion first.
pub fn baseline(tracer: &Arc<Tracer>, set: &CheckerSet, text: &str) -> (Duration, Duration) {
    tracer.span("baseline", None, |root| {
        let program = compile(tracer, root, text);
        let pdg = Pdg::build(&program);
        let drive = |make: fn() -> Box<dyn FeasibilityEngine>, name| {
            let log = QueryLog::new();
            let make = timed_factory(make, &log, tracer, root, name);
            analyze_multi_streaming_with_cache(
                &program,
                &pdg,
                set,
                &make,
                THREADS,
                &options(),
                Some(&VerdictCache::new()),
            );
            log.totals().check_time()
        };
        let fusion = drive(fusion_engine, "baselines.fusion_check");
        let pinpoint = drive(pinpoint_engine, "baselines.pinpoint_check");
        (fusion, pinpoint)
    })
}

/// How a run's verdicts compare with the answer key.
#[derive(Debug, Default, Clone, Copy)]
pub struct Verdicts {
    /// Expected reports missing plus unexpected reports.
    pub mismatches: usize,
    /// Reports whose verdict is `Unknown` (budget exhausted).
    pub unknown: usize,
}

impl Verdicts {
    pub fn ok(&self) -> bool {
        self.mismatches == 0 && self.unknown == 0
    }
}

fn unknown(run: &MultiAnalysisRun) -> usize {
    run.all_reports()
        .filter(|r| r.verdict == Feasibility::Unknown)
        .count()
}

/// Seeded-bug check: the reported `(checker, source function)` pairs
/// must be exactly the feasible seeds, matched by resolved name.
pub fn check_seeded(program: &Program, run: &MultiAnalysisRun, key: &SeedKey) -> Verdicts {
    let reported: BTreeSet<(String, String)> = run
        .checkers
        .iter()
        .flat_map(|b| {
            b.reports.iter().map(move |r| {
                let f = program.func(r.source.func);
                (b.kind.to_string(), program.name(f.name).to_string())
            })
        })
        .collect();
    Verdicts {
        mismatches: reported.symmetric_difference(&key.feasible).count(),
        unknown: unknown(run),
    }
}

/// Position of every `deref` call among its function's `deref` calls.
fn deref_positions(
    program: &Program,
) -> std::collections::HashMap<fusion_pdg::graph::Vertex, (String, usize)> {
    let mut out = std::collections::HashMap::new();
    for f in &program.functions {
        let mut k = 0;
        for d in &f.defs {
            if let DefKind::Call { callee, .. } = &d.kind {
                if program.name(program.func(*callee).name) == "deref" {
                    let v = fusion_pdg::graph::Vertex::new(f.id, d.var);
                    out.insert(v, (program.name(f.name).to_string(), k));
                    k += 1;
                }
            }
        }
    }
    out
}

/// Hot-sink check: the reported sinks must be exactly the feasible ones.
pub fn check_hot(program: &Program, run: &MultiAnalysisRun, sinks: &[HotSink]) -> Verdicts {
    let at = deref_positions(program);
    let reported: BTreeSet<(String, usize)> = run
        .all_reports()
        .map(|r| at.get(&r.sink).cloned().unwrap_or_default())
        .collect();
    let expected: BTreeSet<(String, usize)> = sinks
        .iter()
        .filter(|s| s.witness.is_some())
        .map(|s| (s.func.clone(), s.index))
        .collect();
    Verdicts {
        mismatches: reported.symmetric_difference(&expected).count(),
        unknown: unknown(run),
    }
}

/// Confirms the hot-sink key without the analysis: running each
/// function on a feasible sink's witness through the reference
/// interpreter must pass null to that sink. Returns the sinks that fail.
pub fn replay_hot_witnesses(program: &Program, sinks: &[HotSink]) -> usize {
    sinks
        .iter()
        .filter_map(|s| Some((s, s.witness?)))
        .filter(|(s, x)| {
            let f = program.func_by_name(&s.func).expect("hot function exists");
            let Ok((_, trace)) = fusion_ir::interp::eval_core(program, f.id, &[*x], 1 << 20) else {
                return true;
            };
            let derefs: Vec<u32> = trace
                .extern_calls
                .iter()
                .filter(|(callee, _)| program.name(*callee) == "deref")
                .map(|(_, args)| args[0])
                .collect();
            derefs.get(s.index) != Some(&0)
        })
        .count()
}

/// The report as comparable keys (checker, source, sink, verdict, path),
/// for the warm-equals-cold check.
pub fn report_keys(run: &MultiAnalysisRun) -> Vec<String> {
    run.checkers
        .iter()
        .flat_map(|b| {
            b.reports.iter().map(move |r| {
                format!(
                    "{} {:?} {:?} {:?} {:?}",
                    b.kind, r.source, r.sink, r.verdict, r.path.nodes
                )
            })
        })
        .collect()
}
