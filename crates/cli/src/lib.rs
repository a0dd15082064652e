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
//!     --stats                            print every counter under its --json key
//!     --serve                            long-lived analysis service: line-delimited
//!                                        JSON requests on stdin (scan / rescan /
//!                                        query / stats / shutdown), responses on
//!                                        stdout, with the PDG, facts, caches, and
//!                                        verdicts resident between requests
//!     --threads N                        analysis threads, 1 to 256: above 1, discovery
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
//!     --unroll N                         loop/recursion unroll factor, 1 to 256 (default 2)
//!     --sanitizer NAME                   extra taint-killing function (repeatable)
//!     --help, -h                         print the usage line and exit 0
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

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod lines;
pub mod serve;

use fusion::cache::VerdictCache;
use fusion::checkers::{CheckKind, Checker, CheckerSet};
use fusion::counters::{Table, Value};
use fusion::engine::{
    analyze_multi_streaming_with_cache, AnalysisOptions, CheckerStats, Feasibility,
    FeasibilityEngine, MultiAnalysisRun, StageStats,
};
use fusion::graph_solver::{FusionSolver, UnoptimizedGraphSolver};
use fusion::slice_cache::SliceCache;
use fusion_baselines::{ArEngine, PinpointEngine};
use fusion_ir::parser::MAX_NESTING;
use fusion_ir::ssa::Program;
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
    /// the PDG, absint facts, slice closures, and verdict cache resident
    /// between requests so a `rescan` after an edit re-analyzes only what
    /// the edit reaches.
    pub serve: bool,
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
            validate: false,
            dot: None,
            extra_sources: Vec::new(),
            extra_sinks: Vec::new(),
            unroll: 2,
            extra_sanitizers: Vec::new(),
            list_checkers: false,
            serve: false,
        }
    }
}

/// The most analysis threads `--threads` accepts. The driver starts no
/// more solve workers than a scan has work items, but a larger request
/// shows a mistake, not a machine.
pub const MAX_THREADS: usize = 256;

/// A CLI error with a user-facing message.
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

/// The `--help` text: every flag [`parse_args`] accepts.
const USAGE: &str = "usage: fusion-scan [--engine fusion|unopt|pinpoint|ar] \
     [--checker null|cwe23|cwe402|all] [--list-checkers] \
     [--timeout-secs N] [--solver-timeout-ms N] [--threads N] \
     [--cache|--no-cache] [--no-incremental] \
     [--absint|--no-absint] \
     [--validate] [--dot FILE] [--source NAME]... [--sink NAME]... \
     [--sanitizer NAME]... [--unroll N] \
     [--json] [--stats] [--serve] [--help|-h] FILE...";

/// Parses command-line arguments (excluding `argv[0]`).
///
/// # Errors
///
/// Returns [`CliError`] on unknown flags, missing values, or no input
/// files, and the usage text for `--help` or `-h`.
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
                let n: u64 = v
                    .parse()
                    .map_err(|_| CliError(format!("invalid thread count `{v}`")))?;
                if !(1..=MAX_THREADS as u64).contains(&n) {
                    return Err(CliError(format!(
                        "--threads must be between 1 and {MAX_THREADS}"
                    )));
                }
                opts.threads = n as usize;
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
                // Each unrolled iteration nests one level deeper, so a
                // factor past the source nesting bound would overflow the
                // stack in lowering.
                if !(1..=MAX_NESTING).contains(&opts.unroll) {
                    return Err(CliError(format!(
                        "--unroll must be between 1 and {MAX_NESTING}"
                    )));
                }
            }
            "--json" => opts.json = true,
            "--stats" => opts.stats = true,
            "--cache" => opts.use_cache = true,
            "--no-cache" => opts.use_cache = false,
            "--no-incremental" => opts.incremental = false,
            "--absint" => opts.absint = true,
            "--no-absint" => opts.absint = false,
            "--validate" => opts.validate = true,
            "--list-checkers" => opts.list_checkers = true,
            "--serve" => opts.serve = true,
            "--help" | "-h" => return Err(CliError(USAGE.into())),
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
    if opts.files.is_empty() && !opts.list_checkers && !opts.serve {
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

fusion::counters! {
    /// The scan-level counters only the scan driver knows; the run's own
    /// counters are [`ScanReport::stages`] and [`ScanReport::checkers`].
    #[derive(Debug, Clone, Copy, Default)]
    pub struct ScanStats {
        /// Candidates proven infeasible (suppressed), over all checkers.
        pub suppressed: u64 => "suppressed",
        /// PDG vertex count.
        pub vertices: u64 => "vertices",
        /// PDG edge count.
        pub edges: u64 => "edges",
        /// Total wall-clock time.
        pub elapsed: Duration => "elapsed_ms",
        /// Peak tracked memory in bytes.
        pub peak_memory_bytes: u64 => "peak_memory_bytes",
        /// Verdict-cache hits across the whole scan (0 with `--no-cache`).
        pub cache_hits: u64 => "cache_hits",
        /// Verdict-cache misses across the whole scan.
        pub cache_misses: u64 => "cache_misses",
        /// Bytes retained by the shared verdict cache at the end of the scan.
        pub cache_bytes: u64 => "cache_bytes",
        /// Bytes retained by the shared slice-closure cache at scan end.
        pub slice_cache_bytes: u64 => "slice_cache_bytes",
    }
}

/// Machine-readable scan result.
#[derive(Debug, Clone, Default)]
pub struct ScanReport {
    /// All findings across checkers.
    pub findings: Vec<Finding>,
    /// Per-checker counters, in checker order, keyed by checker name
    /// (`null-deref`, `cwe-23`, `cwe-402`).
    pub checkers: Vec<(String, CheckerStats)>,
    /// User-facing warnings (e.g. extras ignored under `--checker null`).
    pub warnings: Vec<String>,
    /// Scan-level counters.
    pub scan: ScanStats,
    /// The run's stage counters.
    pub stages: StageStats,
}

impl ScanReport {
    /// The report of one run: its findings and counters, plus the
    /// scan-level counters the run and its PDG know. The caller sets the
    /// elapsed time and the cache sizes.
    fn new(program: &Program, pdg: &Pdg, run: &MultiAnalysisRun, warnings: Vec<String>) -> Self {
        let mut report = ScanReport {
            warnings,
            scan: ScanStats {
                vertices: pdg.stats().vertices as u64,
                edges: pdg.stats().edges() as u64,
                // One true whole-scan peak: every engine live during the
                // single fused pass plus the graph and caches.
                peak_memory_bytes: run.peak_memory,
                cache_hits: run.cache.hits,
                cache_misses: run.cache.misses,
                ..ScanStats::default()
            },
            stages: run.stages,
            ..ScanReport::default()
        };
        for b in &run.checkers {
            report.scan.suppressed += b.stats.suppressed;
            report.checkers.push((b.kind.to_string(), b.stats));
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
        report
    }

    /// Renders the report as pretty-printed JSON (stable member order:
    /// findings, per-checker counters, warnings, then the scan-level and
    /// stage counters in table row order).
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
        for (i, (name, stats)) in self.checkers.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "\n    {{\n      \"checker\": \"{}\",\n      {}\n    }}",
                json::escape(name),
                json::members(stats, ",\n      ")
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
            "],\n  {},\n  {}\n}}",
            json::members(&self.scan, ",\n  "),
            json::members(&self.stages, ",\n  ")
        );
        s
    }

    /// Renders every counter for `--stats`, under its `--json` key: one
    /// `label: key=value …` block per table, wrapped at 100 columns.
    pub fn stats_text(&self) -> String {
        let mut s = String::new();
        stats_block(&mut s, "scan", &self.scan);
        for (name, stats) in &self.checkers {
            stats_block(&mut s, &format!("checker {name}"), stats);
        }
        stats_block(&mut s, "stages", &self.stages);
        s
    }
}

/// Appends `table`'s printed rows to `out` as `key=value` pairs after
/// `label:`, milliseconds to one decimal, continuation lines indented.
fn stats_block(out: &mut String, label: &str, table: &dyn Table) {
    let mut line = format!("{label}:");
    table.visit(&mut |key, value| {
        let pair = match value {
            Value::Count(n) => format!("{key}={n}"),
            Value::Ms(ms) => format!("{key}={ms:.1}"),
        };
        if line.len() + 1 + pair.len() > 100 {
            out.push_str(&line);
            out.push('\n');
            line = String::from(" ");
        }
        line.push(' ');
        line.push_str(&pair);
    });
    out.push_str(&line);
    out.push('\n');
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
    let (engine_choice, timeout, incremental) = (opts.engine, opts.timeout, opts.incremental);
    let factory = move || make_engine(engine_choice, timeout, incremental);
    let run = analyze_multi_streaming_with_cache(
        &program,
        &pdg,
        &set,
        &factory,
        opts.threads,
        &analysis_opts,
        cache,
    );
    let mut report = ScanReport::new(&program, &pdg, &run, warnings);
    report.scan.elapsed = started.elapsed();
    report.scan.cache_bytes = cache.map(|c| c.bytes()).unwrap_or(0);
    report.scan.slice_cache_bytes = slice_cache.bytes();
    Ok(report)
}

/// Loads the input files, runs the scan, and renders output to `out`.
///
/// Returns the process exit code: 0 for a clean scan or `--help`, 1 when
/// findings exist, 2 on errors.
pub fn run(args: &[String], out: &mut dyn std::io::Write) -> i32 {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(e) => {
            let _ = writeln!(out, "{e}");
            return if e.0 == USAGE { 0 } else { 2 };
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
            report.scan.suppressed
        );
        if opts.stats {
            let _ = write!(out, "{}", report.stats_text());
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
    fn thread_counts_past_the_bound_exit_2_before_reading_input() {
        let max = MAX_THREADS.to_string();
        assert_eq!(
            parse_args(&args(&["--threads", &max, "a"]))
                .unwrap()
                .threads,
            MAX_THREADS
        );
        let over = (MAX_THREADS + 1).to_string();
        // The file does not exist: the answer must be the bound, not the
        // read error, so no input is read and no thread is started.
        for n in ["0", over.as_str(), "100000", "18446744073709551615"] {
            let mut out = Vec::new();
            let code = run(&args(&["--threads", n, "/nonexistent/in.fus"]), &mut out);
            assert_eq!(code, 2, "--threads {n}");
            let text = String::from_utf8(out).unwrap();
            assert_eq!(
                text,
                format!("--threads must be between 1 and {MAX_THREADS}\n")
            );
        }
        // Past `usize`, the number does not parse.
        let mut out = Vec::new();
        let code = run(&args(&["--threads", "18446744073709551616", "a"]), &mut out);
        assert_eq!(code, 2);
        assert!(String::from_utf8(out)
            .unwrap()
            .starts_with("invalid thread count"));
    }

    /// Every flag `parse_args` matches on, read from its match arms.
    fn accepted_flags() -> Vec<&'static str> {
        let src = include_str!("lib.rs");
        let body = &src[src.find("pub fn parse_args").unwrap()..];
        let body = &body[..body.find("\n}\n").unwrap()];
        body.lines()
            .filter_map(|line| line.trim().split_once(" =>"))
            .filter(|(pattern, _)| pattern.starts_with("\"-"))
            .flat_map(|(pattern, _)| pattern.split(" | "))
            .map(|flag| flag.trim_matches('"'))
            .collect()
    }

    /// Whether `flag` is a whole word of `text`.
    fn names(text: &str, flag: &str) -> bool {
        text.split(|c: char| c.is_whitespace() || "[]|,".contains(c))
            .any(|word| word == flag)
    }

    #[test]
    fn help_lists_every_flag_and_exits_zero() {
        let flags = accepted_flags();
        assert!(flags.len() > 20, "{flags:?}");
        let crate_doc: String = include_str!("lib.rs")
            .lines()
            .filter_map(|line| line.strip_prefix("//!"))
            .collect::<Vec<_>>()
            .join("\n");
        for &flag in &flags {
            // The extraction must find real flags: each is accepted
            // (with a value, where it takes one).
            if let Err(e) = parse_args(&args(&[flag, "1", "a.fus"])) {
                assert!(!e.0.contains("unknown flag"), "{flag}: {e}");
            }
            assert!(names(USAGE, flag), "usage text lacks `{flag}`");
            assert!(names(&crate_doc, flag), "crate doc lacks `{flag}`");
        }
        for help in ["--help", "-h"] {
            let mut out = Vec::new();
            assert_eq!(run(&args(&[help]), &mut out), 0);
            assert_eq!(String::from_utf8(out).unwrap(), format!("{USAGE}\n"));
        }
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
        assert_eq!(report.scan.suppressed, 1);
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
    fn unroll_factor_is_bounded_by_the_nesting_limit() {
        let max = MAX_NESTING.to_string();
        let o = parse_args(&args(&["--unroll", &max, "a.fus"])).unwrap();
        assert_eq!(o.unroll, MAX_NESTING);
        for bad in ["0", "257", "14000"] {
            let err = parse_args(&args(&["--unroll", bad, "a.fus"])).unwrap_err();
            assert_eq!(
                err.0, "--unroll must be between 1 and 256",
                "--unroll {bad}"
            );
        }
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
            assert_eq!(
                seq.scan.suppressed, threaded.scan.suppressed,
                "threads={threads}"
            );
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
            assert_eq!(r1.scan.suppressed, r2.scan.suppressed);
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
            assert_eq!(r1.scan.suppressed, r2.scan.suppressed, "threads={threads}");
            assert!(
                r1.stages.triaged_paths > 0,
                "triage fires on the parity guard"
            );
            assert_eq!(r2.stages.triaged_paths, 0, "--no-absint disables triage");
            assert_eq!(r2.stages.engine.absint_refutes, 0);
        }
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
        // The text --stats surface carries the avoided-work counters.
        let dir = std::env::temp_dir();
        let f = dir.join("fusion_cli_avoided.fus");
        std::fs::write(&f, src).unwrap();
        let mut out = Vec::new();
        run(
            &args(&["--checker", "null", "--stats", &f.display().to_string()]),
            &mut out,
        );
        let text = String::from_utf8(out).unwrap();
        for key in [
            "triaged_paths=",
            "triaged_candidates=",
            "sessions_skipped=",
            "slices_skipped=",
            "absint_refutes=",
        ] {
            assert!(text.contains(key), "missing `{key}` in:\n{text}");
        }
    }

    /// The member names of a JSON object, in source order (duplicates
    /// kept).
    fn keys_of(v: &json::Value) -> Vec<&str> {
        match v {
            json::Value::Obj(members) => members.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    const SCAN_KEYS: &[&str] = &[
        "suppressed",
        "vertices",
        "edges",
        "elapsed_ms",
        "peak_memory_bytes",
        "cache_hits",
        "cache_misses",
        "cache_bytes",
        "slice_cache_bytes",
    ];

    const CHECKER_KEYS: &[&str] = &[
        "findings",
        "suppressed",
        "candidates",
        "queries",
        "cache_hits",
        "cache_misses",
        "discovery_steps",
        "solve_ms",
        "unknown_queries",
    ];

    const STAGE_KEYS: &[&str] = &[
        "discover_ms",
        "discovery_steps",
        "discovery_shards",
        "slice_ms",
        "translate_ms",
        "solve_ms",
        "slices_computed",
        "slices_reused",
        "sessions_opened",
        "absint_refutes",
        "triaged_paths",
        "triaged_candidates",
        "sessions_skipped",
        "slices_skipped",
        "facts_invalidated",
        "slices_invalidated",
        "verdicts_invalidated",
        "candidates_reanalyzed",
        "adjacency_functions",
        "fact_functions",
        "ret_fact_functions",
    ];

    #[test]
    fn output_schema_is_pinned_to_the_tables() {
        let src = "extern fn deref(p); extern fn gets(); extern fn fopen(p);\n\
            fn f(x) { let q = null; let r = 1; if (x > 0) { r = q; } deref(r); \
            let i = gets(); fopen(i); return 0; }";
        let report = scan_source(src, &Options::default()).unwrap();
        let v = json::Value::parse(&report.to_json()).expect("valid json");
        let top: Vec<&str> = ["findings", "checkers", "warnings"]
            .into_iter()
            .chain(SCAN_KEYS.iter().copied())
            .chain(STAGE_KEYS.iter().copied())
            .collect();
        assert_eq!(keys_of(&v), top);
        let checker: Vec<&str> = std::iter::once("checker")
            .chain(CHECKER_KEYS.iter().copied())
            .collect();
        let checkers = v.get("checkers").unwrap().as_array().unwrap();
        assert_eq!(checkers.len(), 3);
        for c in checkers {
            assert_eq!(keys_of(c), checker);
        }

        // `--stats` names every key of every table exactly once, in one
        // block per table.
        let mut blocks: Vec<(String, Vec<String>)> = Vec::new();
        for line in report.stats_text().lines() {
            let (label, pairs) = match line.strip_prefix("  ") {
                Some(rest) => (None, rest),
                None => {
                    let (label, rest) = line.split_once(": ").expect("`label: pairs`");
                    (Some(label), rest)
                }
            };
            if let Some(label) = label {
                blocks.push((label.to_owned(), Vec::new()));
            }
            let keys = &mut blocks.last_mut().expect("a block").1;
            for pair in pairs.split(' ') {
                let (key, value) = pair.split_once('=').expect("`key=value`");
                assert!(value.parse::<f64>().is_ok(), "{pair}");
                keys.push(key.to_owned());
            }
        }
        let mut want: Vec<(String, &[&str])> = vec![("scan".into(), SCAN_KEYS)];
        for name in ["null-deref", "cwe-23", "cwe-402"] {
            want.push((format!("checker {name}"), CHECKER_KEYS));
        }
        want.push(("stages".into(), STAGE_KEYS));
        assert_eq!(blocks.len(), want.len());
        for ((label, keys), (want_label, want_keys)) in blocks.iter().zip(&want) {
            assert_eq!(label, want_label);
            assert_eq!(keys, want_keys, "{label}");
        }

        // Serve `stats`: the resident counters, then `last_invalidation`.
        let mut out = Vec::new();
        let input = format!(
            "{{\"cmd\": \"scan\", \"source\": \"{}\"}}\n{{\"cmd\": \"stats\"}}\n",
            json::escape(src)
        );
        serve::serve_loop(&Options::default(), std::io::Cursor::new(input), &mut out);
        let text = String::from_utf8(out).unwrap();
        let stats = json::Value::parse(text.lines().nth(1).unwrap()).unwrap();
        assert_eq!(
            keys_of(&stats),
            [
                "ok",
                "event",
                "resident",
                "functions",
                "vertices",
                "edges",
                "verdicts_resident",
                "slices_resident",
                "items_resident",
                "cache_bytes",
                "slice_cache_bytes",
                "adjacency_functions",
                "fact_functions",
                "ret_fact_functions",
                "snapshot_bytes_written",
                "snapshot_bytes_read",
                "last_invalidation",
            ]
        );
        assert_eq!(
            keys_of(stats.get("last_invalidation").unwrap()),
            [
                "functions_edited",
                "functions_affected",
                "facts_invalidated",
                "facts_retained",
                "slices_invalidated",
                "slices_retained",
                "verdicts_invalidated",
                "verdicts_retained",
                "candidates_reanalyzed",
            ]
        );
    }

    #[test]
    fn budget_exhausted_queries_are_counted_per_checker() {
        // `x * y == 32769` survives preprocessing and triage, so at a zero
        // budget the solver's deadline check answers `Unknown`; at the
        // default budget the same query is decided.
        let src = "extern fn deref(p);\n\
            fn f(x, y) { let q = null; let r = 1; if (x * y == 32769) { r = q; } deref(r); return 0; }";
        let unknowns = |timeout| {
            let opts = Options {
                checker: CheckerChoice::Null,
                timeout,
                ..Default::default()
            };
            let report = scan_source(src, &opts).unwrap();
            let v = json::Value::parse(&report.to_json()).expect("valid json");
            let checkers = v.get("checkers").unwrap().as_array().unwrap();
            let n = checkers[0]
                .get("unknown_queries")
                .unwrap()
                .as_f64()
                .unwrap();
            assert!(report
                .stats_text()
                .contains(&format!("unknown_queries={n}")));
            (n, report.findings[0].verdict.clone())
        };
        let (n, verdict) = unknowns(Duration::ZERO);
        assert!(n > 0.0, "a zero budget must surface its Unknown answers");
        assert_eq!(verdict, "undecided");
        assert_eq!(
            unknowns(Options::default().timeout),
            (0.0, "feasible".into())
        );
    }

    #[test]
    fn largest_timeout_scans_like_the_default_on_every_engine() {
        // A timeout past what an `Instant` can hold is no deadline; every
        // engine once panicked adding it to the query's start.
        let o = parse_args(&args(&["--timeout-secs", "18446744073709551615", "a.fus"])).unwrap();
        let src = "extern fn deref(p);\n\
            fn f(x, y) { let q = null; let r = 1; if (x * y == 32769) { r = q; } deref(r); return 0; }";
        let findings = |engine, timeout| {
            let opts = Options {
                engine,
                checker: CheckerChoice::Null,
                timeout,
                ..Default::default()
            };
            let report = scan_source(src, &opts).unwrap();
            let f = &report.findings;
            (f.len(), f.first().map(|f| f.verdict.clone()))
        };
        for engine in [
            EngineChoice::Fusion,
            EngineChoice::Unopt,
            EngineChoice::Pinpoint,
            EngineChoice::Ar,
        ] {
            let want = findings(engine, Options::default().timeout);
            assert_eq!(want, (1, Some("feasible".into())), "{engine:?}");
            assert_eq!(findings(engine, o.timeout), want, "{engine:?}");
        }
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
        assert_eq!(r1.scan.suppressed, r2.scan.suppressed);
        assert!(r1.scan.cache_misses > 0);
        assert!(r1.scan.cache_bytes > 0);
        assert_eq!(r2.scan.cache_hits, 0);
        assert_eq!(r2.scan.cache_misses, 0);
        assert_eq!(r2.scan.cache_bytes, 0);
    }
}
