//! # fusion-cli
//!
//! `fusion-scan`: a command-line whole-program bug scanner built on the
//! Fusion analysis — the deployment story the paper motivates ("analyzing
//! millions of lines of code in a common personal computer").
//!
//! ```sh
//! fusion-scan [OPTIONS] FILE...
//!     --checker null|cwe23|cwe402|all    which checkers to run (default: all)
//!     --list-checkers                    print every checker's sources, sinks,
//!                                        sanitizers, and propagation policy
//!     --engine fusion|unopt|pinpoint|ar  feasibility engine (default: fusion)
//!     --timeout-secs N                   per-query SMT budget (default: 10)
//!     --solver-timeout-ms N              per-query SMT budget, millisecond precision
//!     --json                             machine-readable output
//!     --stats                            print PDG and cost statistics
//!     --serve                            long-lived analysis service: line-delimited
//!                                        JSON requests on stdin (scan / rescan /
//!                                        query / stats / shutdown), responses on
//!                                        stdout, with the PDG, facts, caches, and
//!                                        verdicts resident between requests
//!     --threads N                        analysis threads: above 1, discovery
//!                                        streams into parallel solve workers
//!     --cache / --no-cache               shared feasibility-verdict cache (default: on)
//!     --no-incremental                   disable incremental solver sessions (fusion engine)
//!     --absint / --no-absint             abstract-interpretation triage and solver
//!                                        seeding (default: on; refute-only, findings
//!                                        are identical either way)
//!     --validate                         check the compiled IR against the full
//!                                        invariant suite before analyzing
//!     --dot FILE                         export the PDG in Graphviz format
//!     --source NAME                      extra taint-source function (repeatable)
//!     --sink NAME                        extra taint-sink function (repeatable)
//!     --unroll N                         loop/recursion unroll factor (default 2)
//!     --sanitizer NAME                   extra taint-killing function (repeatable)
//!     --shards K                         partition the call graph into K shards and
//!                                        analyze each against an on-disk snapshot;
//!                                        the merged report is byte-identical to the
//!                                        unsharded scan
//!     --shard-workers N                  run shards in N separate fusion-scan
//!                                        --shard-worker processes (out-of-core:
//!                                        no process ever holds the whole program)
//!     --snapshot-dir DIR                 where the partitioned scan keeps its
//!                                        snapshot containers (default: temp dir)
//! ```
//!
//! Multiple files are concatenated into one translation unit, so flows may
//! cross files — the cross-file reasoning Table 5 highlights.
//!
//! `--checker all` (the default) runs all three checkers as **one fused
//! multi-client pass**: one discovery traversal fans out over every
//! `(checker, source)` pair, sink groups are keyed on the sink function
//! alone so queries from different checkers share solver sessions and
//! slice closures, and one verdict cache is shared across every checker
//! (and, with `--threads`, every worker), so identical dependence paths
//! are solved once — even when two different checkers ask. The findings
//! are byte-identical to running each checker alone; `--stats` and
//! `--json` report them per checker.

#![warn(missing_docs)]

pub mod json;
pub mod serve;
pub mod shards;

use fusion::cache::VerdictCache;
use fusion::checkers::{CheckKind, Checker, CheckerSet};
use fusion::engine::{
    analyze_multi_streaming_with_cache, AnalysisOptions, Feasibility, FeasibilityEngine,
    MultiAnalysisRun,
};
use fusion::graph_solver::{FusionSolver, UnoptimizedGraphSolver};
use fusion::slice_cache::SliceCache;
use fusion_baselines::{ArEngine, PinpointEngine};
use fusion_ir::{compile, CompileOptions};
use fusion_pdg::graph::Pdg;
use fusion_smt::solver::SolverConfig;
use std::fmt;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Duration;

/// Which feasibility engine to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineChoice {
    /// Algorithm 6 (the paper's contribution).
    Fusion,
    /// Algorithm 4 (clone-everything graph solver).
    Unopt,
    /// The conventional Pinpoint-style baseline.
    Pinpoint,
    /// Abstraction refinement.
    Ar,
}

/// Which checkers to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckerChoice {
    /// Null dereference only.
    Null,
    /// CWE-23 only.
    Cwe23,
    /// CWE-402 only.
    Cwe402,
    /// All three.
    All,
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input files, in order.
    pub files: Vec<String>,
    /// Engine selection.
    pub engine: EngineChoice,
    /// Checker selection.
    pub checker: CheckerChoice,
    /// Per-query solver budget.
    pub timeout: Duration,
    /// Emit JSON instead of text.
    pub json: bool,
    /// Print statistics.
    pub stats: bool,
    /// Analysis threads (1 = inline on one engine). Above one, discovery
    /// producers stream each source's sink groups straight into solve
    /// workers; findings are byte-identical at any count.
    pub threads: usize,
    /// Share one feasibility-verdict cache across checkers and workers.
    pub use_cache: bool,
    /// Incremental solver sessions for the fusion engine: queries in one
    /// slice group share a persistent SAT solver and bit-blast memo.
    /// `--no-incremental` forces a cold solve per query (the other engines
    /// are always cold, so the flag is a no-op for them).
    pub incremental: bool,
    /// Abstract-interpretation triage and solver seeding: per-function
    /// interval/known-bits facts refute candidates before the solver runs
    /// and seed its preprocessing. Refute-only — `--no-absint` produces
    /// byte-identical findings, just with more solver work.
    pub absint: bool,
    /// Pre-discovery PDG compaction: frontier reachability pruning,
    /// summary-chain collapse, and isomorphic-fragment verdict sharing.
    /// `--no-compact` (or the `FUSION_NO_COMPACT` environment variable)
    /// disables it; findings are byte-identical either way, compaction
    /// just removes discovery steps and solver queries.
    pub compact: bool,
    /// Validate the compiled IR against the full invariant suite
    /// ([`fusion_ir::validate::check_program`]) before analyzing, and
    /// fail with every diagnostic when it is malformed.
    pub validate: bool,
    /// Write the PDG as Graphviz DOT to this path.
    pub dot: Option<String>,
    /// Extra taint-source function names (added to both taint checkers).
    pub extra_sources: Vec<String>,
    /// Extra taint-sink function names (added to both taint checkers).
    pub extra_sinks: Vec<String>,
    /// Loop and recursion unroll factor.
    pub unroll: usize,
    /// Extra taint-sanitizer function names.
    pub extra_sanitizers: Vec<String>,
    /// Print the checker catalog (kind, sources, sinks, sanitizers,
    /// propagation policy) and exit without scanning.
    pub list_checkers: bool,
    /// Run as a long-lived analysis service: read line-delimited JSON
    /// requests from stdin (`scan`, `rescan`, `query`, `stats`,
    /// `shutdown`) and write one JSON response line per request, keeping
    /// the PDG, compacted view, absint facts, slice closures, and
    /// verdict cache resident between requests so a `rescan` after an
    /// edit re-analyzes only what the edit reaches.
    pub serve: bool,
    /// Partition the call graph into this many shards and analyze each
    /// against an on-disk snapshot, merging per-shard outcomes into a
    /// report byte-identical to the unsharded scan. 0 (the default)
    /// disables partitioning.
    pub shards: usize,
    /// Run shards as separate `fusion-scan --shard-worker` processes
    /// instead of in-process (requires `--shards`). 0 (the default)
    /// keeps every shard in this process.
    pub shard_workers: usize,
    /// Directory for the on-disk snapshot a partitioned scan routes its
    /// program, facts, and per-shard outcomes through. Defaults to a
    /// scan-scoped directory under the system temp dir.
    pub snapshot_dir: Option<String>,
    /// Run as a shard worker: read one line-delimited JSON job
    /// (`{"snapshot", "shard", "shards", "out"}`) from stdin, analyze
    /// that shard of the snapshot, write its outcomes to `out`, and
    /// respond with the shard's counters. Spawned by the coordinator;
    /// not meant for interactive use.
    pub shard_worker: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self {
            files: Vec::new(),
            engine: EngineChoice::Fusion,
            checker: CheckerChoice::All,
            timeout: Duration::from_secs(10),
            json: false,
            stats: false,
            threads: 1,
            use_cache: true,
            incremental: true,
            absint: true,
            compact: std::env::var_os("FUSION_NO_COMPACT").is_none(),
            validate: false,
            dot: None,
            extra_sources: Vec::new(),
            extra_sinks: Vec::new(),
            unroll: 2,
            extra_sanitizers: Vec::new(),
            list_checkers: false,
            serve: false,
            shards: 0,
            shard_workers: 0,
            snapshot_dir: None,
            shard_worker: false,
        }
    }
}

/// A CLI error with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// Parses command-line arguments (excluding `argv[0]`).
///
/// # Errors
///
/// Returns [`CliError`] on unknown flags, missing values, or no input
/// files.
pub fn parse_args(args: &[String]) -> Result<Options, CliError> {
    let mut opts = Options::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--engine" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError("--engine needs a value".into()))?;
                opts.engine = match v.as_str() {
                    "fusion" => EngineChoice::Fusion,
                    "unopt" => EngineChoice::Unopt,
                    "pinpoint" => EngineChoice::Pinpoint,
                    "ar" => EngineChoice::Ar,
                    other => return Err(CliError(format!("unknown engine `{other}`"))),
                };
            }
            "--checker" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError("--checker needs a value".into()))?;
                opts.checker = match v.as_str() {
                    "null" => CheckerChoice::Null,
                    "cwe23" => CheckerChoice::Cwe23,
                    "cwe402" => CheckerChoice::Cwe402,
                    "all" => CheckerChoice::All,
                    other => return Err(CliError(format!("unknown checker `{other}`"))),
                };
            }
            "--timeout-secs" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError("--timeout-secs needs a value".into()))?;
                let secs: u64 = v
                    .parse()
                    .map_err(|_| CliError(format!("invalid timeout `{v}`")))?;
                opts.timeout = Duration::from_secs(secs);
            }
            "--solver-timeout-ms" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError("--solver-timeout-ms needs a value".into()))?;
                let ms: u64 = v
                    .parse()
                    .map_err(|_| CliError(format!("invalid timeout `{v}`")))?;
                opts.timeout = Duration::from_millis(ms);
            }
            "--threads" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError("--threads needs a value".into()))?;
                opts.threads = v
                    .parse()
                    .map_err(|_| CliError(format!("invalid thread count `{v}`")))?;
                if opts.threads == 0 {
                    return Err(CliError("--threads must be at least 1".into()));
                }
            }
            "--dot" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError("--dot needs a value".into()))?;
                opts.dot = Some(v.clone());
            }
            "--source" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError("--source needs a value".into()))?;
                opts.extra_sources.push(v.clone());
            }
            "--sink" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError("--sink needs a value".into()))?;
                opts.extra_sinks.push(v.clone());
            }
            "--sanitizer" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError("--sanitizer needs a value".into()))?;
                opts.extra_sanitizers.push(v.clone());
            }
            "--unroll" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError("--unroll needs a value".into()))?;
                opts.unroll = v
                    .parse()
                    .map_err(|_| CliError(format!("invalid unroll factor `{v}`")))?;
                if opts.unroll == 0 {
                    return Err(CliError("--unroll must be at least 1".into()));
                }
            }
            "--json" => opts.json = true,
            "--stats" => opts.stats = true,
            "--cache" => opts.use_cache = true,
            "--no-cache" => opts.use_cache = false,
            "--no-incremental" => opts.incremental = false,
            "--absint" => opts.absint = true,
            "--no-absint" => opts.absint = false,
            "--compact" => opts.compact = true,
            "--no-compact" => opts.compact = false,
            "--validate" => opts.validate = true,
            "--list-checkers" => opts.list_checkers = true,
            "--serve" => opts.serve = true,
            "--shards" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError("--shards needs a value".into()))?;
                opts.shards = v
                    .parse()
                    .map_err(|_| CliError(format!("invalid shard count `{v}`")))?;
                if opts.shards == 0 {
                    return Err(CliError("--shards must be at least 1".into()));
                }
            }
            "--shard-workers" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError("--shard-workers needs a value".into()))?;
                opts.shard_workers = v
                    .parse()
                    .map_err(|_| CliError(format!("invalid worker count `{v}`")))?;
            }
            "--snapshot-dir" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError("--snapshot-dir needs a value".into()))?;
                opts.snapshot_dir = Some(v.clone());
            }
            "--shard-worker" => opts.shard_worker = true,
            "--help" | "-h" => {
                return Err(CliError(
                    "usage: fusion-scan [--engine fusion|unopt|pinpoint|ar] \
                     [--checker null|cwe23|cwe402|all] [--list-checkers] \
                     [--timeout-secs N] \
                     [--solver-timeout-ms N] [--threads N] [--cache|--no-cache] \
                     [--no-incremental] \
                     [--absint|--no-absint] [--compact|--no-compact] \
                     [--validate] [--dot FILE] \
                     [--shards K] [--shard-workers N] [--snapshot-dir DIR] \
                     [--json] [--stats] [--serve] FILE..."
                        .into(),
                ))
            }
            flag if flag.starts_with("--") => {
                return Err(CliError(format!("unknown flag `{flag}`")))
            }
            file => opts.files.push(file.to_owned()),
        }
    }
    if opts.serve && !opts.files.is_empty() {
        return Err(CliError(
            "--serve reads programs from stdin requests; no input files allowed".into(),
        ));
    }
    if opts.shard_workers > 0 && opts.shards == 0 {
        return Err(CliError("--shard-workers requires --shards".into()));
    }
    if opts.shard_worker && !opts.files.is_empty() {
        return Err(CliError(
            "--shard-worker reads its job from stdin; no input files allowed".into(),
        ));
    }
    if opts.shard_worker && opts.serve {
        return Err(CliError("--shard-worker conflicts with --serve".into()));
    }
    if opts.files.is_empty() && !opts.list_checkers && !opts.serve && !opts.shard_worker {
        return Err(CliError("no input files (try --help)".into()));
    }
    Ok(opts)
}

/// Expands the `--checker` choice into the fused [`CheckerSet`], applying
/// the `--source`/`--sink`/`--sanitizer` extensions to the taint
/// checkers, and collects user-facing warnings — in particular when those
/// extensions cannot apply because only the null checker was selected
/// (the null checker seeds from `null` constants, not function names).
pub fn effective_checkers(opts: &Options) -> (CheckerSet, Vec<String>) {
    let mut checkers: Vec<Checker> = match opts.checker {
        CheckerChoice::Null => vec![Checker::null_deref()],
        CheckerChoice::Cwe23 => vec![Checker::cwe23()],
        CheckerChoice::Cwe402 => vec![Checker::cwe402()],
        CheckerChoice::All => fusion::checkers::default_checkers(),
    };
    let mut warnings = Vec::new();
    let mut ignored = Vec::new();
    if !opts.extra_sources.is_empty() {
        ignored.push("--source");
    }
    if !opts.extra_sinks.is_empty() {
        ignored.push("--sink");
    }
    if !opts.extra_sanitizers.is_empty() {
        ignored.push("--sanitizer");
    }
    if !ignored.is_empty() && checkers.iter().all(|c| c.kind == CheckKind::NullDeref) {
        warnings.push(format!(
            "{} only extend the taint checkers (cwe23, cwe402) and are \
             ignored under `--checker null`; the null checker seeds from \
             `null` constants, not function names",
            ignored.join("/")
        ));
    }
    for c in &mut checkers {
        if c.kind != CheckKind::NullDeref {
            c.source_fns.extend(opts.extra_sources.iter().cloned());
            c.sink_fns.extend(opts.extra_sinks.iter().cloned());
            c.sanitizer_fns
                .extend(opts.extra_sanitizers.iter().cloned());
        }
    }
    (CheckerSet::new(checkers), warnings)
}

/// Renders the `--list-checkers` catalog: each default checker's kind,
/// source/sink/sanitizer function names, and propagation policy.
pub fn list_checkers_text() -> String {
    let mut out = String::new();
    for c in fusion::checkers::default_checkers() {
        let _ = writeln!(out, "{}", c.kind);
        let sources = if c.source_fns.is_empty() {
            "null constants".to_owned()
        } else {
            c.source_fns.join(", ")
        };
        let sanitizers = if c.sanitizer_fns.is_empty() {
            "(none)".to_owned()
        } else {
            c.sanitizer_fns.join(", ")
        };
        let _ = writeln!(out, "  sources:     {sources}");
        let _ = writeln!(out, "  sinks:       {}", c.sink_fns.join(", "));
        let _ = writeln!(out, "  sanitizers:  {sanitizers}");
        let _ = writeln!(
            out,
            "  propagation: through-arithmetic={}, through-extern-calls={}",
            c.through_binary, c.through_extern
        );
    }
    out
}

/// One finding in machine-readable form.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Checker that produced the finding.
    pub checker: String,
    /// Function containing the source.
    pub source_function: String,
    /// Function containing the sink.
    pub sink_function: String,
    /// `feasible` or `undecided` (solver budget exhausted).
    pub verdict: String,
    /// Number of dependence graph vertices on the witness path.
    pub path_length: usize,
}

/// One checker's share of a fused scan, for `--stats` and `--json`.
#[derive(Debug, Clone, Default)]
pub struct CheckerScanStats {
    /// Checker name (`null-deref`, `cwe-23`, `cwe-402`).
    pub checker: String,
    /// Findings reported by this checker.
    pub findings: usize,
    /// This checker's candidates proven infeasible.
    pub suppressed: usize,
    /// Candidates discovered for this checker.
    pub candidates: usize,
    /// Feasibility queries issued for this checker (cache hits excluded).
    pub queries: usize,
    /// Verdict-cache hits while deciding this checker's candidates.
    pub cache_hits: u64,
    /// Verdict-cache misses while deciding this checker's candidates.
    pub cache_misses: u64,
    /// Discovery DFS steps spent on this checker's sources.
    pub discovery_steps: u64,
    /// Engine milliseconds answering this checker's queries.
    pub solve_ms: f64,
}

/// Machine-readable scan result.
#[derive(Debug, Clone, Default)]
pub struct ScanReport {
    /// All findings across checkers.
    pub findings: Vec<Finding>,
    /// Candidates proven infeasible (suppressed).
    pub suppressed: usize,
    /// Per-checker breakdowns, in checker order.
    pub checkers: Vec<CheckerScanStats>,
    /// User-facing warnings (e.g. extras ignored under `--checker null`).
    pub warnings: Vec<String>,
    /// Incremental solver sessions opened across the scan (fusion
    /// engine; 0 for the always-cold engines).
    pub sessions_opened: u64,
    /// PDG vertex count.
    pub vertices: usize,
    /// PDG edge count.
    pub edges: usize,
    /// Total wall-clock milliseconds.
    pub elapsed_ms: f64,
    /// Peak tracked memory in bytes.
    pub peak_memory_bytes: u64,
    /// Verdict-cache hits across the whole scan (0 with `--no-cache`).
    pub cache_hits: u64,
    /// Verdict-cache misses across the whole scan.
    pub cache_misses: u64,
    /// Bytes retained by the shared verdict cache at the end of the scan.
    pub cache_bytes: u64,
    /// Wall-clock milliseconds of candidate discovery (summed over runs;
    /// overlaps solving with `--threads` > 1).
    pub discover_ms: f64,
    /// Engine milliseconds computing slice closures and constraints
    /// (summed over workers and runs).
    pub slice_ms: f64,
    /// Engine milliseconds building terms and instances.
    pub translate_ms: f64,
    /// Engine milliseconds deciding satisfiability.
    pub solve_ms: f64,
    /// Slice closures computed from scratch across the scan.
    pub slices_computed: u64,
    /// Slice closures reused (per-candidate union or shared memo).
    pub slices_reused: u64,
    /// Bytes retained by the shared slice-closure cache at scan end.
    pub slice_cache_bytes: u64,
    /// Dependence paths refuted by abstract-interpretation triage before
    /// any solver work (0 with `--no-absint`).
    pub triaged_paths: u64,
    /// Candidates whose *every* path was triaged away — decided with zero
    /// slice, translation, or solver work.
    pub triaged_candidates: u64,
    /// Sink groups whose solver session never opened because triage
    /// answered all their queries.
    pub sessions_skipped: u64,
    /// Slice-closure computations avoided by fully-triaged candidates.
    pub slices_skipped: u64,
    /// Assembled solver queries refuted by seeded known-bits
    /// preprocessing before bit-blasting.
    pub absint_refutes: u64,
    /// PDG vertices removed by compaction's frontier reachability pruning,
    /// summed per checker (0 with `--no-compact`).
    pub vertices_pruned: u64,
    /// Checker-taken PDG edges with a pruned endpoint, summed per checker.
    pub edges_pruned: u64,
    /// Summary corridors collapsed into composite chains, summed per
    /// checker.
    pub chains_collapsed: u64,
    /// Solver queries answered by compaction's isomorphic-fragment
    /// verdict memo instead of the engine.
    pub iso_hits: u64,
    /// Per-function absint fact sets recomputed by a warm `rescan`'s
    /// dirtiness invalidation (0 for batch scans and cold `scan`s).
    pub facts_invalidated: u64,
    /// Slice closures evicted by warm-rescan invalidation.
    pub slices_invalidated: u64,
    /// Cached verdicts evicted by warm-rescan invalidation.
    pub verdicts_invalidated: u64,
    /// Candidates the run actually re-discovered and re-solved: in
    /// service mode, the affected work items' candidates (the rest
    /// replayed recorded outcomes); 0 in the batch drivers.
    pub candidates_reanalyzed: u64,
    /// Shards the partitioned scan was split into (0 for unsharded
    /// scans).
    pub shards: u64,
    /// Owned-function summaries the shards produced for the cross-shard
    /// interface.
    pub summaries_exported: u64,
    /// Facts/summaries shards imported from the snapshot instead of
    /// recomputing (non-owned closure functions).
    pub summaries_imported: u64,
    /// Bytes of snapshot containers written by the partitioned scan.
    pub snapshot_bytes_written: u64,
    /// Bytes of snapshot sections actually read back (lazy loading makes
    /// this less than what was written).
    pub snapshot_bytes_read: u64,
}

impl ScanReport {
    /// Renders the report as pretty-printed JSON (stable member order).
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\n      \"checker\": \"{}\",\n      \"source_function\": \"{}\",\
                 \n      \"sink_function\": \"{}\",\n      \"verdict\": \"{}\",\
                 \n      \"path_length\": {}\n    }}",
                json::escape(&f.checker),
                json::escape(&f.source_function),
                json::escape(&f.sink_function),
                json::escape(&f.verdict),
                f.path_length
            );
        }
        if !self.findings.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n  \"checkers\": [");
        for (i, c) in self.checkers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\n      \"checker\": \"{}\",\n      \"findings\": {},\
                 \n      \"suppressed\": {},\n      \"candidates\": {},\
                 \n      \"queries\": {},\n      \"cache_hits\": {},\
                 \n      \"cache_misses\": {},\n      \"discovery_steps\": {},\
                 \n      \"solve_ms\": {}\n    }}",
                json::escape(&c.checker),
                c.findings,
                c.suppressed,
                c.candidates,
                c.queries,
                c.cache_hits,
                c.cache_misses,
                c.discovery_steps,
                c.solve_ms
            );
        }
        if !self.checkers.is_empty() {
            s.push_str("\n  ");
        }
        s.push_str("],\n  \"warnings\": [");
        for (i, w) in self.warnings.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{}\"", json::escape(w));
        }
        let _ = write!(
            s,
            "],\n  \"sessions_opened\": {},\n  \"suppressed\": {},\n  \"vertices\": {},\n  \"edges\": {},\
             \n  \"elapsed_ms\": {},\n  \"peak_memory_bytes\": {},\
             \n  \"cache_hits\": {},\n  \"cache_misses\": {},\n  \"cache_bytes\": {},\
             \n  \"discover_ms\": {},\n  \"slice_ms\": {},\n  \"translate_ms\": {},\
             \n  \"solve_ms\": {},\n  \"slices_computed\": {},\n  \"slices_reused\": {},\
             \n  \"slice_cache_bytes\": {},\n  \"triaged_paths\": {},\
             \n  \"triaged_candidates\": {},\n  \"sessions_skipped\": {},\
             \n  \"slices_skipped\": {},\n  \"absint_refutes\": {},\
             \n  \"vertices_pruned\": {},\n  \"edges_pruned\": {},\
             \n  \"chains_collapsed\": {},\n  \"iso_hits\": {},\
             \n  \"facts_invalidated\": {},\
             \n  \"slices_invalidated\": {},\n  \"verdicts_invalidated\": {},\
             \n  \"candidates_reanalyzed\": {},\n  \"shards\": {},\
             \n  \"summaries_exported\": {},\n  \"summaries_imported\": {},\
             \n  \"snapshot_bytes_written\": {},\n  \"snapshot_bytes_read\": {}\n}}",
            self.sessions_opened,
            self.suppressed,
            self.vertices,
            self.edges,
            self.elapsed_ms,
            self.peak_memory_bytes,
            self.cache_hits,
            self.cache_misses,
            self.cache_bytes,
            self.discover_ms,
            self.slice_ms,
            self.translate_ms,
            self.solve_ms,
            self.slices_computed,
            self.slices_reused,
            self.slice_cache_bytes,
            self.triaged_paths,
            self.triaged_candidates,
            self.sessions_skipped,
            self.slices_skipped,
            self.absint_refutes,
            self.vertices_pruned,
            self.edges_pruned,
            self.chains_collapsed,
            self.iso_hits,
            self.facts_invalidated,
            self.slices_invalidated,
            self.verdicts_invalidated,
            self.candidates_reanalyzed,
            self.shards,
            self.summaries_exported,
            self.summaries_imported,
            self.snapshot_bytes_written,
            self.snapshot_bytes_read
        );
        s
    }
}

fn make_engine(
    choice: EngineChoice,
    timeout: Duration,
    incremental: bool,
) -> Box<dyn FeasibilityEngine> {
    let cfg = SolverConfig {
        timeout: Some(timeout),
        ..Default::default()
    };
    match choice {
        EngineChoice::Fusion => {
            let mut engine = FusionSolver::new(cfg);
            engine.incremental = incremental;
            Box::new(engine)
        }
        EngineChoice::Unopt => Box::new(UnoptimizedGraphSolver::new(cfg)),
        EngineChoice::Pinpoint => Box::new(PinpointEngine::new(cfg)),
        EngineChoice::Ar => Box::new(ArEngine::new(cfg)),
    }
}

/// Copies a run's stage counters, per-checker breakdowns, and findings
/// into `report` (shared by the one-shot scan and the `--serve` loop).
fn fill_report(report: &mut ScanReport, program: &fusion_ir::ssa::Program, run: &MultiAnalysisRun) {
    report.cache_hits = run.cache.hits;
    report.cache_misses = run.cache.misses;
    report.discover_ms = run.stages.discover_wall.as_secs_f64() * 1e3;
    report.slice_ms = run.stages.slice_wall.as_secs_f64() * 1e3;
    report.translate_ms = run.stages.translate_wall.as_secs_f64() * 1e3;
    report.solve_ms = run.stages.solve_wall.as_secs_f64() * 1e3;
    report.slices_computed = run.stages.slices_computed;
    report.slices_reused = run.stages.slices_reused;
    report.sessions_opened = run.stages.sessions_opened;
    report.triaged_paths = run.stages.triaged_paths;
    report.triaged_candidates = run.stages.triaged_candidates;
    report.sessions_skipped = run.stages.sessions_skipped;
    report.slices_skipped = run.stages.slices_skipped;
    report.absint_refutes = run.stages.absint_refutes;
    report.vertices_pruned = run.stages.vertices_pruned;
    report.edges_pruned = run.stages.edges_pruned;
    report.chains_collapsed = run.stages.chains_collapsed;
    report.iso_hits = run.stages.iso_hits;
    report.facts_invalidated = run.stages.facts_invalidated;
    report.slices_invalidated = run.stages.slices_invalidated;
    report.verdicts_invalidated = run.stages.verdicts_invalidated;
    report.candidates_reanalyzed = run.stages.candidates_reanalyzed;
    report.shards = run.stages.shards;
    report.summaries_exported = run.stages.summaries_exported;
    report.summaries_imported = run.stages.summaries_imported;
    report.snapshot_bytes_written = run.stages.snapshot_bytes_written;
    report.snapshot_bytes_read = run.stages.snapshot_bytes_read;
    // One true whole-scan peak: every engine live during the single fused
    // pass plus the graph and caches — not a max over per-checker passes.
    report.peak_memory_bytes = run.peak_memory;
    for b in &run.checkers {
        report.suppressed += b.suppressed;
        report.checkers.push(CheckerScanStats {
            checker: b.kind.to_string(),
            findings: b.reports.len(),
            suppressed: b.suppressed,
            candidates: b.candidates,
            queries: b.queries,
            cache_hits: b.cache_hits,
            cache_misses: b.cache_misses,
            discovery_steps: b.discovery_steps,
            solve_ms: b.solve_wall.as_secs_f64() * 1e3,
        });
        for r in &b.reports {
            report.findings.push(Finding {
                checker: b.kind.to_string(),
                source_function: program.name(program.func(r.source.func).name).to_owned(),
                sink_function: program.name(program.func(r.sink.func).name).to_owned(),
                verdict: match r.verdict {
                    Feasibility::Feasible => "feasible".into(),
                    Feasibility::Unknown => "undecided".into(),
                    Feasibility::Infeasible => unreachable!("not reported"),
                },
                path_length: r.path.nodes.len(),
            });
        }
    }
}

/// Runs a scan over already-loaded source text.
///
/// # Errors
///
/// Returns [`CliError`] for compile errors (with position information).
pub fn scan_source(source: &str, opts: &Options) -> Result<ScanReport, CliError> {
    let started = std::time::Instant::now();
    let compile_opts = CompileOptions {
        loop_unroll: opts.unroll,
        recursion_unroll: opts.unroll,
    };
    let program =
        compile(source, compile_opts).map_err(|e| CliError(format!("compile error: {e}")))?;
    if opts.validate {
        let errs = fusion_ir::validate::check_program(&program);
        if !errs.is_empty() {
            let mut msg = format!("IR validation failed with {} diagnostic(s):", errs.len());
            for e in &errs {
                let _ = write!(msg, "\n  {e}");
            }
            return Err(CliError(msg));
        }
    }
    let pdg = Pdg::build(&program);
    let (set, warnings) = effective_checkers(opts);
    let mut report = ScanReport {
        vertices: pdg.stats().vertices,
        edges: pdg.stats().edges(),
        warnings,
        ..Default::default()
    };
    if let Some(path) = &opts.dot {
        let dot = fusion_pdg::dot::pdg_to_dot(&program, &pdg, None);
        std::fs::write(path, dot).map_err(|e| CliError(format!("cannot write `{path}`: {e}")))?;
    }
    // One verdict cache and one slice-closure cache for the whole scan,
    // shared across checkers and, in parallel runs, across workers; the
    // whole checker set runs as one fused multi-client pass.
    let shared_cache = VerdictCache::new();
    let cache = opts.use_cache.then_some(&shared_cache);
    let slice_cache = Arc::new(SliceCache::new());
    let mut analysis_opts = AnalysisOptions::new().with_slice_cache(Arc::clone(&slice_cache));
    analysis_opts.absint = opts.absint;
    analysis_opts.compact = opts.compact;
    let (engine_choice, timeout, incremental) = (opts.engine, opts.timeout, opts.incremental);
    let factory = move || make_engine(engine_choice, timeout, incremental);
    let run: MultiAnalysisRun = if opts.shards > 0 {
        let sharded = if opts.shard_workers > 0 {
            shards::analyze_sharded_multiprocess(
                &program,
                &set,
                &factory,
                opts,
                &analysis_opts,
                cache,
            )?
        } else {
            fusion::shard::analyze_sharded(
                &program,
                &set,
                &factory,
                opts.threads,
                &analysis_opts,
                cache,
                opts.shards,
                opts.snapshot_dir.as_deref().map(std::path::Path::new),
            )
            .map_err(|e| CliError(format!("partitioned scan failed: {e}")))?
        };
        sharded.run
    } else {
        analyze_multi_streaming_with_cache(
            &program,
            &pdg,
            &set,
            &factory,
            opts.threads,
            &analysis_opts,
            cache,
        )
    };
    fill_report(&mut report, &program, &run);
    report.elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    report.cache_bytes = cache.map(|c| c.bytes()).unwrap_or(0);
    report.slice_cache_bytes = slice_cache.bytes();
    Ok(report)
}

/// Loads the input files, runs the scan, and renders output to `out`.
///
/// Returns the process exit code: 0 for a clean scan, 1 when findings
/// exist, 2 on errors.
pub fn run(args: &[String], out: &mut dyn std::io::Write) -> i32 {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(e) => {
            let _ = writeln!(out, "{e}");
            return 2;
        }
    };
    if opts.list_checkers {
        let _ = write!(out, "{}", list_checkers_text());
        return 0;
    }
    if opts.serve {
        let stdin = std::io::stdin();
        return serve::serve_loop(&opts, stdin.lock(), out);
    }
    if opts.shard_worker {
        let stdin = std::io::stdin();
        return shards::shard_worker_loop(&opts, stdin.lock(), out);
    }
    let mut source = String::new();
    for f in &opts.files {
        match std::fs::read_to_string(f) {
            Ok(s) => {
                source.push_str(&s);
                source.push('\n');
            }
            Err(e) => {
                let _ = writeln!(out, "cannot read `{f}`: {e}");
                return 2;
            }
        }
    }
    let report = match scan_source(&source, &opts) {
        Ok(r) => r,
        Err(e) => {
            let _ = writeln!(out, "{e}");
            return 2;
        }
    };
    if opts.json {
        let _ = writeln!(out, "{}", report.to_json());
    } else {
        for w in &report.warnings {
            let _ = writeln!(out, "warning: {w}");
        }
        for f in &report.findings {
            let _ = writeln!(
                out,
                "[{}] {} flow: {} -> {} ({} vertices)",
                f.verdict, f.checker, f.source_function, f.sink_function, f.path_length
            );
        }
        let _ = writeln!(
            out,
            "{} finding(s), {} candidate(s) suppressed as infeasible",
            report.findings.len(),
            report.suppressed
        );
        if opts.stats {
            let _ = writeln!(
                out,
                "pdg: {} vertices, {} edges; {:.1} ms; peak {} KiB \
                 (cache {} B, {} hit / {} miss); {} session(s) opened",
                report.vertices,
                report.edges,
                report.elapsed_ms,
                report.peak_memory_bytes / 1024,
                report.cache_bytes,
                report.cache_hits,
                report.cache_misses,
                report.sessions_opened
            );
            for c in &report.checkers {
                let _ = writeln!(
                    out,
                    "checker {}: {} finding(s), {} suppressed, {} candidate(s), \
                     {} query(ies) ({} hit / {} miss), {} discovery step(s), \
                     solve {:.1} ms",
                    c.checker,
                    c.findings,
                    c.suppressed,
                    c.candidates,
                    c.queries,
                    c.cache_hits,
                    c.cache_misses,
                    c.discovery_steps,
                    c.solve_ms
                );
            }
            let _ = writeln!(
                out,
                "stages: discover {:.1} ms; slice {:.1} ms \
                 ({} computed / {} reused, {} B retained); \
                 translate {:.1} ms; solve {:.1} ms",
                report.discover_ms,
                report.slice_ms,
                report.slices_computed,
                report.slices_reused,
                report.slice_cache_bytes,
                report.translate_ms,
                report.solve_ms
            );
            // Avoided work: what the abstract-interpretation triage
            // answered before the solver pipeline ever ran.
            let _ = writeln!(
                out,
                "avoided: {} path(s) triaged, {} candidate(s) fully refuted pre-solve",
                report.triaged_paths, report.triaged_candidates
            );
            let _ = writeln!(
                out,
                "avoided: {} session(s) skipped, {} slice closure(s) skipped, \
                 {} seeded solver refutation(s)",
                report.sessions_skipped, report.slices_skipped, report.absint_refutes
            );
            // Compaction: dead graph the pre-discovery pass removed and
            // solver queries answered by isomorphic-fragment sharing.
            let _ = writeln!(
                out,
                "compaction: {} vertex(es) pruned, {} edge(s) pruned, \
                 {} chain(s) collapsed, {} iso hit(s)",
                report.vertices_pruned,
                report.edges_pruned,
                report.chains_collapsed,
                report.iso_hits
            );
            // Service mode: dirtiness-driven invalidation (all zero for
            // one-shot batch scans).
            let _ = writeln!(
                out,
                "incremental: {} fact set(s), {} slice(s), {} verdict(s) \
                 invalidated; {} candidate(s) reanalyzed",
                report.facts_invalidated,
                report.slices_invalidated,
                report.verdicts_invalidated,
                report.candidates_reanalyzed
            );
            // Partitioned scans: the out-of-core sharding counters (all
            // zero for unsharded scans).
            let _ = writeln!(
                out,
                "sharding: {} shard(s), {} summary(ies) exported / {} imported; \
                 snapshot {} B written, {} B read",
                report.shards,
                report.summaries_exported,
                report.summaries_imported,
                report.snapshot_bytes_written,
                report.snapshot_bytes_read
            );
        }
    }
    if report.findings.is_empty() {
        0
    } else {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_defaults() {
        let o = parse_args(&args(&["a.fus"])).unwrap();
        assert_eq!(o.engine, EngineChoice::Fusion);
        assert_eq!(o.checker, CheckerChoice::All);
        assert!(!o.json);
        assert_eq!(o.files, vec!["a.fus"]);
    }

    #[test]
    fn parses_flags() {
        let o = parse_args(&args(&[
            "--engine",
            "pinpoint",
            "--checker",
            "cwe23",
            "--timeout-secs",
            "3",
            "--json",
            "--stats",
            "x.fus",
            "y.fus",
        ]))
        .unwrap();
        assert_eq!(o.engine, EngineChoice::Pinpoint);
        assert_eq!(o.checker, CheckerChoice::Cwe23);
        assert_eq!(o.timeout, Duration::from_secs(3));
        assert!(o.json && o.stats);
        assert_eq!(o.files.len(), 2);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(parse_args(&args(&[])).is_err());
        assert!(parse_args(&args(&["--engine"])).is_err());
        assert!(parse_args(&args(&["--engine", "z3", "a"])).is_err());
        assert!(parse_args(&args(&["--nope", "a"])).is_err());
    }

    #[test]
    fn scan_reports_and_suppresses() {
        let src = "extern fn deref(p);\n\
            fn f(x) { let q = null; let r = 1; if (x > 0) { r = q; } deref(r); return 0; }\n\
            fn g(x) { let q = null; let r = 1; if (x * 2 == 7) { r = q; } deref(r); return 0; }";
        let opts = Options {
            checker: CheckerChoice::Null,
            ..Default::default()
        };
        let report = scan_source(src, &opts).unwrap();
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.suppressed, 1);
        assert_eq!(report.findings[0].source_function, "f");
        assert_eq!(report.findings[0].verdict, "feasible");
    }

    #[test]
    fn scan_all_checkers() {
        let src = "extern fn deref(p); extern fn gets(); extern fn fopen(p);\n\
            fn f() { let q = null; deref(q); let i = gets(); fopen(i); return 0; }";
        let opts = Options::default();
        let report = scan_source(src, &opts).unwrap();
        let kinds: Vec<&str> = report.findings.iter().map(|f| f.checker.as_str()).collect();
        assert!(kinds.contains(&"null-deref"));
        assert!(kinds.contains(&"cwe-23"));
    }

    #[test]
    fn compile_errors_are_reported() {
        let opts = Options::default();
        let err = scan_source("fn f( {", &opts).unwrap_err();
        assert!(err.0.contains("compile error"));
    }

    #[test]
    fn run_returns_exit_codes() {
        let mut out = Vec::new();
        // 2: no files
        assert_eq!(run(&[], &mut out), 2);
        // Write a temp file with a clean program.
        let dir = std::env::temp_dir();
        let clean = dir.join("fusion_cli_clean.fus");
        std::fs::write(&clean, "fn f(x) { return x; }").unwrap();
        let mut out = Vec::new();
        assert_eq!(run(&[clean.display().to_string()], &mut out), 0);
        // 1: findings present.
        let buggy = dir.join("fusion_cli_buggy.fus");
        std::fs::write(
            &buggy,
            "extern fn deref(p); fn f() { let q = null; deref(q); return 0; }",
        )
        .unwrap();
        let mut out = Vec::new();
        assert_eq!(run(&[buggy.display().to_string()], &mut out), 1);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("null-deref"));
    }

    #[test]
    fn custom_sources_and_sinks() {
        let src = "extern fn fetch(); extern fn exfil(x);\n\
            fn f() { let d = fetch(); exfil(d); return 0; }";
        let opts = Options {
            checker: CheckerChoice::Cwe402,
            extra_sources: vec!["fetch".into()],
            extra_sinks: vec!["exfil".into()],
            ..Default::default()
        };
        let report = scan_source(src, &opts).unwrap();
        assert_eq!(report.findings.len(), 1);
        // Without the extensions nothing is flagged.
        let plain = Options {
            checker: CheckerChoice::Cwe402,
            ..Default::default()
        };
        assert!(scan_source(src, &plain).unwrap().findings.is_empty());
    }

    #[test]
    fn unroll_factor_changes_reachability() {
        // The guard i == 4 needs four loop iterations: invisible at the
        // default unroll of 2, found at 4.
        let src = "extern fn deref(p);\n\
            fn f(n) { let q = null; let r = 1; let i = 0;\n\
              while (i < n) { i = i + 1; }\n\
              if (i == 4) { r = q; } deref(r); return 0; }";
        let shallow = Options {
            checker: CheckerChoice::Null,
            ..Default::default()
        };
        assert_eq!(scan_source(src, &shallow).unwrap().findings.len(), 0);
        let deep = Options {
            checker: CheckerChoice::Null,
            unroll: 4,
            ..Default::default()
        };
        assert_eq!(scan_source(src, &deep).unwrap().findings.len(), 1);
    }

    #[test]
    fn sanitizer_flag_parses_and_applies() {
        let o = parse_args(&args(&["--sanitizer", "scrub", "a.fus"])).unwrap();
        assert_eq!(o.extra_sanitizers, vec!["scrub"]);
        let src = "extern fn gets(); extern fn scrub(x); extern fn fopen(p);\n\
            fn f() { let i = gets(); let c = scrub(i); fopen(c); return 0; }";
        let opts = Options {
            checker: CheckerChoice::Cwe23,
            extra_sanitizers: vec!["scrub".into()],
            ..Default::default()
        };
        assert!(scan_source(src, &opts).unwrap().findings.is_empty());
        // Without the sanitizer registration the flow is reported.
        let plain = Options {
            checker: CheckerChoice::Cwe23,
            ..Default::default()
        };
        assert_eq!(scan_source(src, &plain).unwrap().findings.len(), 1);
    }

    #[test]
    fn extras_under_null_checker_warn() {
        // parse_args accepts the combination; the scan carries a warning.
        let o = parse_args(&args(&["--checker", "null", "--source", "fetch", "a.fus"])).unwrap();
        assert_eq!(o.checker, CheckerChoice::Null);
        assert_eq!(o.extra_sources, vec!["fetch"]);
        let (set, warnings) = effective_checkers(&o);
        assert_eq!(set.len(), 1);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("--source"), "{warnings:?}");
        assert!(warnings[0].contains("--checker null"), "{warnings:?}");
        // No warning when a taint checker is in the set.
        let all = Options {
            extra_sources: vec!["fetch".into()],
            ..Default::default()
        };
        assert!(effective_checkers(&all).1.is_empty());
        // No warning without extras.
        let plain = Options {
            checker: CheckerChoice::Null,
            ..Default::default()
        };
        assert!(effective_checkers(&plain).1.is_empty());
        // End to end: run() surfaces the warning on the text output, and
        // the scan result carries it for --json consumers.
        let dir = std::env::temp_dir();
        let clean = dir.join("fusion_cli_warn.fus");
        std::fs::write(&clean, "fn f(x) { return x; }").unwrap();
        let mut out = Vec::new();
        let code = run(
            &args(&[
                "--checker",
                "null",
                "--sink",
                "exfil",
                &clean.display().to_string(),
            ]),
            &mut out,
        );
        assert_eq!(code, 0);
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("warning:"), "{text}");
        assert!(text.contains("--sink"), "{text}");
    }

    #[test]
    fn list_checkers_prints_catalog() {
        let o = parse_args(&args(&["--list-checkers"])).unwrap();
        assert!(o.list_checkers);
        assert!(o.files.is_empty(), "no files required with --list-checkers");
        let mut out = Vec::new();
        let code = run(&args(&["--list-checkers"]), &mut out);
        assert_eq!(code, 0);
        let text = String::from_utf8(out).unwrap();
        for needle in [
            "null-deref",
            "cwe-23",
            "cwe-402",
            "null constants",
            "gets",
            "fopen",
            "getpass",
            "sendmsg",
            "realpath",
            "hash",
            "through-arithmetic=false",
            "through-arithmetic=true",
        ] {
            assert!(text.contains(needle), "missing `{needle}` in:\n{text}");
        }
    }

    #[test]
    fn json_reports_per_checker_stats_and_warnings() {
        let src = "extern fn deref(p); extern fn gets(); extern fn fopen(p);\n\
            fn f() { let q = null; deref(q); let i = gets(); fopen(i); return 0; }";
        let report = scan_source(src, &Options::default()).unwrap();
        let v = json::Value::parse(&report.to_json()).expect("valid json");
        let checkers = v.get("checkers").unwrap().as_array().unwrap();
        assert_eq!(checkers.len(), 3);
        assert_eq!(
            checkers[0].get("checker").unwrap().as_str(),
            Some("null-deref")
        );
        assert_eq!(checkers[0].get("findings").unwrap().as_f64(), Some(1.0));
        assert_eq!(checkers[1].get("checker").unwrap().as_str(), Some("cwe-23"));
        assert_eq!(checkers[1].get("findings").unwrap().as_f64(), Some(1.0));
        assert_eq!(
            checkers[2].get("checker").unwrap().as_str(),
            Some("cwe-402")
        );
        assert!(checkers[0].get("queries").unwrap().as_f64().is_some());
        assert!(checkers[0]
            .get("discovery_steps")
            .unwrap()
            .as_f64()
            .is_some());
        assert!(v.get("sessions_opened").unwrap().as_f64().is_some());
        assert_eq!(v.get("warnings").unwrap().as_array().unwrap().len(), 0);
        // A warning-producing scan round-trips the message through JSON.
        let warned = scan_source(
            "fn f(x) { return x; }",
            &Options {
                checker: CheckerChoice::Null,
                extra_sources: vec!["fetch".into()],
                ..Default::default()
            },
        )
        .unwrap();
        let v = json::Value::parse(&warned.to_json()).expect("valid json");
        assert_eq!(v.get("warnings").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn json_output_is_valid() {
        let dir = std::env::temp_dir();
        let buggy = dir.join("fusion_cli_json.fus");
        std::fs::write(
            &buggy,
            "extern fn deref(p); fn f() { let q = null; deref(q); return 0; }",
        )
        .unwrap();
        let mut out = Vec::new();
        run(&[buggy.display().to_string(), "--json".into()], &mut out);
        let text = String::from_utf8(out).unwrap();
        let v = json::Value::parse(text.trim()).expect("valid json");
        let findings = v.get("findings").unwrap().as_array().unwrap();
        assert_eq!(findings.len(), 1);
        assert_eq!(
            findings[0].get("checker").unwrap().as_str(),
            Some("null-deref")
        );
        assert_eq!(
            findings[0].get("verdict").unwrap().as_str(),
            Some("feasible")
        );
        // The cache counters are part of the machine-readable surface.
        assert!(v.get("cache_hits").unwrap().as_f64().is_some());
        assert!(v.get("cache_misses").unwrap().as_f64().is_some());
        assert!(v.get("cache_bytes").unwrap().as_f64().is_some());
        // So are the pipeline stage counters.
        assert!(v.get("discover_ms").unwrap().as_f64().is_some());
        assert!(v.get("slice_ms").unwrap().as_f64().is_some());
        assert!(v.get("translate_ms").unwrap().as_f64().is_some());
        assert!(v.get("solve_ms").unwrap().as_f64().is_some());
        assert!(v.get("slices_computed").unwrap().as_f64().is_some());
        assert!(v.get("slices_reused").unwrap().as_f64().is_some());
        assert!(v.get("slice_cache_bytes").unwrap().as_f64().is_some());
    }

    #[test]
    fn threaded_scan_matches_one_thread_scan() {
        let src = "extern fn deref(p);\n\
            fn a(x) { let q = null; let r = 1; if (x > 1) { r = q; } deref(r); return 0; }\n\
            fn b(x) { let q = null; let r = 1; if (x * 2 == 5) { r = q; } deref(r); return 0; }\n\
            fn c(x) { let q = null; let r = 1; if (x < 0) { r = q; } deref(r); return 0; }";
        let key = |r: &ScanReport| {
            r.findings
                .iter()
                .map(|f| {
                    (
                        f.checker.clone(),
                        f.source_function.clone(),
                        f.sink_function.clone(),
                        f.verdict.clone(),
                        f.path_length,
                    )
                })
                .collect::<Vec<_>>()
        };
        let seq = scan_source(
            src,
            &Options {
                checker: CheckerChoice::Null,
                ..Default::default()
            },
        )
        .unwrap();
        for threads in 2..=8 {
            let threaded = scan_source(
                src,
                &Options {
                    checker: CheckerChoice::Null,
                    threads,
                    ..Default::default()
                },
            )
            .unwrap();
            assert_eq!(key(&seq), key(&threaded), "threads={threads}");
            assert_eq!(seq.suppressed, threaded.suppressed, "threads={threads}");
        }
    }

    #[test]
    fn json_output_with_no_findings_is_valid() {
        let report = scan_source("fn f(x) { return x; }", &Options::default()).unwrap();
        let v = json::Value::parse(&report.to_json()).expect("valid json");
        assert_eq!(v.get("findings").unwrap().as_array().unwrap().len(), 0);
    }

    #[test]
    fn cache_flags_parse() {
        let o = parse_args(&args(&["a.fus"])).unwrap();
        assert!(o.use_cache);
        let o = parse_args(&args(&["--no-cache", "a.fus"])).unwrap();
        assert!(!o.use_cache);
        let o = parse_args(&args(&["--no-cache", "--cache", "a.fus"])).unwrap();
        assert!(o.use_cache);
    }

    #[test]
    fn incremental_flag_parses_and_scan_is_unchanged() {
        let o = parse_args(&args(&["a.fus"])).unwrap();
        assert!(o.incremental, "incremental sessions are the default");
        let o = parse_args(&args(&["--no-incremental", "a.fus"])).unwrap();
        assert!(!o.incremental);
        // Determinism contract: the flag must not change the findings,
        // sequentially or in parallel.
        let src = "extern fn deref(p);\n\
            fn a(x) { let q = null; let r = 1; if (x > 1) { r = q; } deref(r); return 0; }\n\
            fn b(x) { let q = null; let r = 1; if (x * 2 == 5) { r = q; } deref(r); return 0; }";
        for threads in [1, 3] {
            let on = Options {
                checker: CheckerChoice::Null,
                threads,
                ..Default::default()
            };
            let off = Options {
                checker: CheckerChoice::Null,
                threads,
                incremental: false,
                ..Default::default()
            };
            let r1 = scan_source(src, &on).unwrap();
            let r2 = scan_source(src, &off).unwrap();
            let key = |r: &ScanReport| {
                r.findings
                    .iter()
                    .map(|f| {
                        (
                            f.checker.clone(),
                            f.source_function.clone(),
                            f.sink_function.clone(),
                            f.verdict.clone(),
                            f.path_length,
                        )
                    })
                    .collect::<Vec<_>>()
            };
            assert_eq!(key(&r1), key(&r2), "threads={threads}");
            assert_eq!(r1.suppressed, r2.suppressed);
        }
    }

    #[test]
    fn absint_flags_parse_and_triage_preserves_findings() {
        let o = parse_args(&args(&["a.fus"])).unwrap();
        assert!(o.absint, "absint triage is the default");
        let o = parse_args(&args(&["--no-absint", "a.fus"])).unwrap();
        assert!(!o.absint);
        let o = parse_args(&args(&["--no-absint", "--absint", "a.fus"])).unwrap();
        assert!(o.absint);
        // Refute-only contract: triage never changes what is reported —
        // only how much work it took. `g`'s guard (2x == 5) is refuted by
        // parity, so with triage on it never reaches the solver.
        let src = "extern fn deref(p);\n\
            fn a(x) { let q = null; let r = 1; if (x > 1) { r = q; } deref(r); return 0; }\n\
            fn b(x) { let q = null; let r = 1; if (x * 2 == 5) { r = q; } deref(r); return 0; }";
        let key = |r: &ScanReport| {
            r.findings
                .iter()
                .map(|f| {
                    (
                        f.checker.clone(),
                        f.source_function.clone(),
                        f.sink_function.clone(),
                        f.verdict.clone(),
                        f.path_length,
                    )
                })
                .collect::<Vec<_>>()
        };
        for threads in [1, 3] {
            let on = Options {
                checker: CheckerChoice::Null,
                threads,
                ..Default::default()
            };
            let off = Options {
                checker: CheckerChoice::Null,
                threads,
                absint: false,
                ..Default::default()
            };
            let r1 = scan_source(src, &on).unwrap();
            let r2 = scan_source(src, &off).unwrap();
            assert_eq!(key(&r1), key(&r2), "threads={threads}");
            assert_eq!(r1.suppressed, r2.suppressed, "threads={threads}");
            assert!(r1.triaged_paths > 0, "triage fires on the parity guard");
            assert_eq!(r2.triaged_paths, 0, "--no-absint disables triage");
            assert_eq!(r2.absint_refutes, 0);
        }
    }

    #[test]
    fn compact_flags_parse_and_compaction_preserves_findings() {
        // The default tracks FUSION_NO_COMPACT so the CI matrix can run
        // the whole suite uncompacted.
        let o = parse_args(&args(&["a.fus"])).unwrap();
        assert_eq!(
            o.compact,
            std::env::var_os("FUSION_NO_COMPACT").is_none(),
            "compaction is the default unless FUSION_NO_COMPACT is set"
        );
        let o = parse_args(&args(&["--no-compact", "a.fus"])).unwrap();
        assert!(!o.compact);
        let o = parse_args(&args(&["--no-compact", "--compact", "a.fus"])).unwrap();
        assert!(o.compact);
        // Report-preserving contract: compaction removes work, never
        // findings. `dead` has no sink reachable from its source and is
        // pruned; `id` is a single-entry/single-exit corridor and
        // collapses.
        let src = "extern fn deref(p);\n\
            fn id(v) { return v; }\n\
            fn dead(x) { let q = null; let y = q; return y; }\n\
            fn a(x) { let q = null; let r = 1; if (x > 1) { r = id(q); } deref(r); return 0; }";
        let key = |r: &ScanReport| {
            r.findings
                .iter()
                .map(|f| {
                    (
                        f.checker.clone(),
                        f.source_function.clone(),
                        f.sink_function.clone(),
                        f.verdict.clone(),
                        f.path_length,
                    )
                })
                .collect::<Vec<_>>()
        };
        for threads in [1, 3] {
            let on = Options {
                checker: CheckerChoice::Null,
                threads,
                compact: true,
                ..Default::default()
            };
            let off = Options {
                checker: CheckerChoice::Null,
                threads,
                compact: false,
                ..Default::default()
            };
            let r1 = scan_source(src, &on).unwrap();
            let r2 = scan_source(src, &off).unwrap();
            assert_eq!(key(&r1), key(&r2), "threads={threads}");
            assert_eq!(r1.suppressed, r2.suppressed, "threads={threads}");
            assert!(r1.vertices_pruned > 0, "dead flow is pruned");
            assert!(r1.chains_collapsed > 0, "id corridor collapses");
            assert_eq!(r2.vertices_pruned, 0, "--no-compact disables pruning");
            assert_eq!(r2.chains_collapsed, 0);
        }
    }

    #[test]
    fn json_reports_compaction_counters() {
        let src = "extern fn deref(p);\n\
            fn dead(x) { let q = null; let y = q; return y; }\n\
            fn a(x) { let q = null; let r = 1; if (x > 1) { r = q; } deref(r); return 0; }";
        let opts = Options {
            checker: CheckerChoice::Null,
            compact: true,
            ..Default::default()
        };
        let report = scan_source(src, &opts).unwrap();
        let v = json::Value::parse(&report.to_json()).expect("valid json");
        assert!(v.get("vertices_pruned").unwrap().as_f64().unwrap() > 0.0);
        assert!(v.get("edges_pruned").unwrap().as_f64().is_some());
        assert!(v.get("chains_collapsed").unwrap().as_f64().is_some());
        assert!(v.get("iso_hits").unwrap().as_f64().is_some());
        // The text --stats surface carries the compaction line.
        let dir = std::env::temp_dir();
        let f = dir.join("fusion_cli_compact.fus");
        std::fs::write(&f, src).unwrap();
        let mut out = Vec::new();
        run(
            &args(&["--checker", "null", "--stats", &f.display().to_string()]),
            &mut out,
        );
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("compaction:"), "{text}");
    }

    #[test]
    fn validate_flag_parses_and_passes_on_lowered_ir() {
        let o = parse_args(&args(&["--validate", "a.fus"])).unwrap();
        assert!(o.validate);
        let opts = Options {
            validate: true,
            ..Default::default()
        };
        let report = scan_source("fn f(x) { return x; }", &opts).unwrap();
        assert!(report.findings.is_empty());
    }

    #[test]
    fn json_reports_avoided_work() {
        let src = "extern fn deref(p);\n\
            fn b(x) { let q = null; let r = 1; if (x * 2 == 5) { r = q; } deref(r); return 0; }";
        let opts = Options {
            checker: CheckerChoice::Null,
            ..Default::default()
        };
        let report = scan_source(src, &opts).unwrap();
        let v = json::Value::parse(&report.to_json()).expect("valid json");
        assert!(v.get("triaged_paths").unwrap().as_f64().unwrap() > 0.0);
        assert!(v.get("triaged_candidates").unwrap().as_f64().is_some());
        assert!(v.get("sessions_skipped").unwrap().as_f64().is_some());
        assert!(v.get("slices_skipped").unwrap().as_f64().is_some());
        assert!(v.get("absint_refutes").unwrap().as_f64().is_some());
        // The text --stats surface carries the avoided-work lines.
        let dir = std::env::temp_dir();
        let f = dir.join("fusion_cli_avoided.fus");
        std::fs::write(&f, src).unwrap();
        let mut out = Vec::new();
        run(
            &args(&["--checker", "null", "--stats", &f.display().to_string()]),
            &mut out,
        );
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("avoided:"), "{text}");
        assert!(text.contains("triaged"), "{text}");
    }

    #[test]
    fn solver_timeout_ms_parses() {
        let o = parse_args(&args(&["--solver-timeout-ms", "250", "a.fus"])).unwrap();
        assert_eq!(o.timeout, Duration::from_millis(250));
        assert!(parse_args(&args(&["--solver-timeout-ms", "x", "a.fus"])).is_err());
        assert!(parse_args(&args(&["--solver-timeout-ms"])).is_err());
    }

    #[test]
    fn cached_scan_matches_uncached() {
        // Two structurally identical functions: the second candidate's
        // feasibility queries hit the cache, with no effect on findings.
        let src = "extern fn deref(p);\n\
            fn a(x) { let q = null; let r = 1; if (x > 0) { r = q; } deref(r); return 0; }\n\
            fn b(x) { let q = null; let r = 1; if (x * 2 == 5) { r = q; } deref(r); return 0; }";
        let cached = Options {
            checker: CheckerChoice::Null,
            ..Default::default()
        };
        let uncached = Options {
            checker: CheckerChoice::Null,
            use_cache: false,
            ..Default::default()
        };
        let r1 = scan_source(src, &cached).unwrap();
        let r2 = scan_source(src, &uncached).unwrap();
        assert_eq!(r1.findings.len(), r2.findings.len());
        assert_eq!(r1.suppressed, r2.suppressed);
        assert!(r1.cache_misses > 0);
        assert!(r1.cache_bytes > 0);
        assert_eq!(r2.cache_hits, 0);
        assert_eq!(r2.cache_misses, 0);
        assert_eq!(r2.cache_bytes, 0);
    }
}
