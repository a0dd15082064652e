//! Multi-process partitioned scans: the `--shard-workers` coordinator
//! and the `--shard-worker` loop it spawns.
//!
//! The coordinator writes the program+facts snapshot to disk once, then
//! hands each shard to a worker process as one line-delimited JSON job
//! (`{"snapshot", "shard", "shards", "out"}`) on the worker's stdin.
//! A worker never parses source and never materializes the whole
//! program: it reads the call-graph summary section, recomputes the
//! same deterministic [`ShardPlan`], lazily loads only its closure's
//! function and fact sections, and writes its owned outcomes — remapped
//! to global identities — to `out` as a standalone snapshot container.
//! The coordinator merges the containers and replays them over the full
//! program, so the report is byte-identical to the unsharded (and the
//! in-process sharded) pipeline. Only dependence structure and verdicts
//! cross the process boundary — never a path condition (§3.2.2).

use crate::json::{self, escape};
use crate::lines::{bounded_lines, MAX_LINE_BYTES};
use crate::{effective_checkers, make_engine, CheckerChoice, CliError, EngineChoice, Options};
use fusion::cache::VerdictCache;
use fusion::checkers::CheckerSet;
use fusion::engine::{AnalysisOptions, FeasibilityEngine, ItemOutcomes};
use fusion::shard::{
    merge_outcomes, outcomes_container, replay_merged, run_shard, scan_snapshot, ShardedRun,
};
use fusion::snapshot::{self, open_file, CallGraphInfo};
use fusion::ShardPlan;
use fusion_ir::ssa::Program;
use std::io::{BufRead, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes concurrent partitioned scans inside one process (the
/// test harness runs many), so their default snapshot dirs never
/// collide.
static SCAN_SEQ: AtomicU64 = AtomicU64::new(0);

/// Runs the `--shard-worker` loop: one JSON job per stdin line, one
/// JSON response line per job, until EOF or a read error. A line that is
/// not UTF-8 or is longer than [`MAX_LINE_BYTES`] is answered as a
/// `malformed job`. Returns the process exit code (0 — job failures are
/// reported in-band so the coordinator can surface them).
pub fn shard_worker_loop(opts: &Options, input: impl BufRead, out: &mut dyn Write) -> i32 {
    for line in bounded_lines(input, MAX_LINE_BYTES) {
        let job = match &line {
            Ok(line) if line.trim().is_empty() => continue,
            Ok(line) => run_worker_job(opts, line.trim()),
            Err(e) => Err(CliError(format!("malformed job: {e}"))),
        };
        let resp = match job {
            Ok(resp) => resp,
            Err(e) => format!("{{\"ok\": false, \"error\": \"{}\"}}", escape(&e.0)),
        };
        let _ = writeln!(out, "{resp}");
        let _ = out.flush();
    }
    0
}

fn run_worker_job(opts: &Options, line: &str) -> Result<String, CliError> {
    let req = json::Value::parse(line).map_err(|e| CliError(format!("malformed job: {e}")))?;
    let snapshot_path = req
        .get("snapshot")
        .and_then(|v| v.as_str())
        .ok_or_else(|| CliError("job needs a string `snapshot` member".into()))?;
    let shard = job_index(&req, "shard")?;
    let k = job_index(&req, "shards")?;
    if shard >= k {
        return Err(CliError(format!(
            "malformed job: shard {shard} is out of range for {k} shard(s)"
        )));
    }
    let out_path = req
        .get("out")
        .and_then(|v| v.as_str())
        .ok_or_else(|| CliError("job needs a string `out` member".into()))?;
    let snap = open_file(Path::new(snapshot_path))
        .map_err(|e| CliError(format!("open snapshot `{snapshot_path}`: {e}")))?;
    // The worker recomputes the plan from the snapshot's call-graph
    // summary alone; it is a pure function of (call graph, K), so the
    // coordinator and every worker agree on ownership without any
    // plan ever crossing the wire.
    let info =
        snapshot::read_callgraph(&snap).map_err(|e| CliError(format!("read call graph: {e}")))?;
    let plan = ShardPlan::compute(&info, k);
    let (set, _) = effective_checkers(opts);
    let mut analysis_opts = AnalysisOptions::new();
    analysis_opts.absint = opts.absint;
    analysis_opts.compact = opts.compact;
    let (engine_choice, timeout, incremental) = (opts.engine, opts.timeout, opts.incremental);
    let factory = move || make_engine(engine_choice, timeout, incremental);
    let shared_cache = VerdictCache::new();
    let cache = opts.use_cache.then_some(&shared_cache);
    let output = run_shard(
        &snap,
        &info,
        &plan,
        shard,
        &set,
        &factory,
        opts.threads,
        &analysis_opts,
        cache,
    )
    .map_err(|e| CliError(format!("shard {shard} failed: {e}")))?;
    let container = outcomes_container(&output.outcomes);
    let outcome_bytes = container.len() as u64;
    std::fs::write(out_path, container)
        .map_err(|e| CliError(format!("write `{out_path}`: {e}")))?;
    Ok(format!(
        "{{\"ok\": true, \"shard\": {shard}, \"exported\": {}, \"imported\": {}, \
         \"peak_memory\": {}, \"queries\": {}, \"snapshot_bytes_read\": {}, \
         \"outcome_bytes_written\": {outcome_bytes}}}",
        output.exported,
        output.imported,
        output.peak_memory,
        output.queries,
        snap.bytes_read()
    ))
}

/// Reads a job's `shard` or `shards` member: a non-negative integer that
/// fits in `usize`, read exactly from its text, so the worker plans with
/// the coordinator's `--shards` even above 2^53. Anything else (negative,
/// fractional, exponent-form such as `1e300`, or too large) is a
/// malformed job.
fn job_index(req: &json::Value, key: &str) -> Result<usize, CliError> {
    let Some(v @ json::Value::Num(text)) = req.get(key) else {
        return Err(CliError(format!("job needs a numeric `{key}` member")));
    };
    v.as_u64()
        .and_then(|n| usize::try_from(n).ok())
        .ok_or_else(|| {
            CliError(format!(
                "malformed job: `{key}` must be a non-negative integer, got {text}"
            ))
        })
}

/// Locates the `fusion-scan` binary to spawn as a shard worker:
/// `FUSION_SCAN_BIN` wins, then the current executable when it *is*
/// `fusion-scan`, then a `fusion-scan` next to (or one level above) the
/// current executable — which finds the built binary from inside a test
/// harness under `target/*/deps/`.
pub fn worker_binary() -> Result<PathBuf, CliError> {
    if let Some(p) = std::env::var_os("FUSION_SCAN_BIN") {
        return Ok(PathBuf::from(p));
    }
    if let Ok(exe) = std::env::current_exe() {
        if exe
            .file_stem()
            .is_some_and(|s| s.to_string_lossy() == "fusion-scan")
        {
            return Ok(exe);
        }
        for dir in [exe.parent(), exe.parent().and_then(Path::parent)]
            .into_iter()
            .flatten()
        {
            let candidate = dir.join("fusion-scan");
            if candidate.is_file() {
                return Ok(candidate);
            }
        }
    }
    Err(CliError(
        "cannot locate the fusion-scan binary for shard workers; set FUSION_SCAN_BIN".into(),
    ))
}

fn engine_name(e: EngineChoice) -> &'static str {
    match e {
        EngineChoice::Fusion => "fusion",
        EngineChoice::Unopt => "unopt",
        EngineChoice::Pinpoint => "pinpoint",
        EngineChoice::Ar => "ar",
    }
}

fn checker_name(c: CheckerChoice) -> &'static str {
    match c {
        CheckerChoice::Null => "null",
        CheckerChoice::Cwe23 => "cwe23",
        CheckerChoice::Cwe402 => "cwe402",
        CheckerChoice::All => "all",
    }
}

/// Forwards every analysis-relevant flag to a worker so its shard runs
/// under exactly the coordinator's configuration.
fn push_analysis_flags(cmd: &mut Command, opts: &Options) {
    cmd.arg("--engine").arg(engine_name(opts.engine));
    cmd.arg("--checker").arg(checker_name(opts.checker));
    cmd.arg("--solver-timeout-ms")
        .arg(opts.timeout.as_millis().to_string());
    cmd.arg("--threads").arg(opts.threads.to_string());
    cmd.arg(if opts.use_cache {
        "--cache"
    } else {
        "--no-cache"
    });
    if !opts.incremental {
        cmd.arg("--no-incremental");
    }
    cmd.arg(if opts.absint {
        "--absint"
    } else {
        "--no-absint"
    });
    cmd.arg(if opts.compact {
        "--compact"
    } else {
        "--no-compact"
    });
    for s in &opts.extra_sources {
        cmd.arg("--source").arg(s);
    }
    for s in &opts.extra_sinks {
        cmd.arg("--sink").arg(s);
    }
    for s in &opts.extra_sanitizers {
        cmd.arg("--sanitizer").arg(s);
    }
}

/// Runs a partitioned scan with `--shard-workers` separate worker
/// processes: snapshot the program to `--snapshot-dir` (or a scan-scoped
/// temp dir), distribute the non-empty shards round-robin over the
/// workers, merge the outcome containers they write, and replay the
/// merged set over the full program. The replayed report is
/// byte-identical to the unsharded scan.
#[allow(clippy::too_many_arguments)]
pub fn analyze_sharded_multiprocess(
    program: &Program,
    set: &CheckerSet,
    factory: &(dyn Fn() -> Box<dyn FeasibilityEngine> + Sync),
    opts: &Options,
    analysis_opts: &AnalysisOptions,
    cache: Option<&VerdictCache>,
) -> Result<ShardedRun, CliError> {
    let k = opts.shards;
    let (dir, ephemeral) = match &opts.snapshot_dir {
        Some(d) => (PathBuf::from(d), false),
        None => {
            let seq = SCAN_SEQ.fetch_add(1, Ordering::Relaxed);
            let d =
                std::env::temp_dir().join(format!("fusion-shards-{}-{seq}", std::process::id()));
            (d, true)
        }
    };
    std::fs::create_dir_all(&dir)
        .map_err(|e| CliError(format!("create `{}`: {e}", dir.display())))?;
    let result = coordinate(program, set, factory, opts, analysis_opts, cache, k, &dir);
    if ephemeral {
        let _ = std::fs::remove_dir_all(&dir);
    }
    result
}

#[allow(clippy::too_many_arguments)]
fn coordinate(
    program: &Program,
    set: &CheckerSet,
    factory: &(dyn Fn() -> Box<dyn FeasibilityEngine> + Sync),
    opts: &Options,
    analysis_opts: &AnalysisOptions,
    cache: Option<&VerdictCache>,
    k: usize,
    dir: &Path,
) -> Result<ShardedRun, CliError> {
    let bytes = scan_snapshot(program, analysis_opts);
    let mut bytes_written = bytes.len() as u64;
    let snap_path = dir.join("scan.fsnp");
    std::fs::write(&snap_path, &bytes)
        .map_err(|e| CliError(format!("write `{}`: {e}", snap_path.display())))?;
    drop(bytes);
    let info = CallGraphInfo::of_program(program);
    let plan = ShardPlan::compute(&info, k);
    let non_empty = plan.owning_shards();
    let worker_bin = worker_binary()?;
    let n_workers = opts.shard_workers.min(non_empty.len()).max(1);

    // Spawn every worker with its whole job list up front; each worker
    // streams one response line per job, so closing its stdin after the
    // last job lets it drain and exit.
    let mut children = Vec::new();
    for w in 0..n_workers {
        let jobs: Vec<usize> = non_empty
            .iter()
            .copied()
            .skip(w)
            .step_by(n_workers)
            .collect();
        if jobs.is_empty() {
            continue;
        }
        let mut cmd = Command::new(&worker_bin);
        cmd.arg("--shard-worker");
        push_analysis_flags(&mut cmd, opts);
        cmd.stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        let mut child = cmd
            .spawn()
            .map_err(|e| CliError(format!("spawn `{}`: {e}", worker_bin.display())))?;
        let mut stdin = child.stdin.take().expect("stdin piped");
        for &s in &jobs {
            let out_path = dir.join(format!("shard-{s}.fsnp"));
            writeln!(
                stdin,
                "{{\"snapshot\": \"{}\", \"shard\": {s}, \"shards\": {k}, \"out\": \"{}\"}}",
                escape(&snap_path.display().to_string()),
                escape(&out_path.display().to_string())
            )
            .map_err(|e| CliError(format!("send job to shard worker: {e}")))?;
        }
        drop(stdin);
        children.push((child, jobs));
    }

    let mut exported = 0u64;
    let mut imported = 0u64;
    let mut bytes_read = 0u64;
    let mut peaks: Vec<(usize, u64)> = Vec::new();
    for (child, jobs) in children {
        let output = child
            .wait_with_output()
            .map_err(|e| CliError(format!("wait for shard worker: {e}")))?;
        let text = String::from_utf8_lossy(&output.stdout);
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        for &s in &jobs {
            let line = lines.next().ok_or_else(|| {
                CliError(format!("shard worker exited without answering shard {s}"))
            })?;
            let resp = json::Value::parse(line)
                .map_err(|e| CliError(format!("malformed worker response: {e}")))?;
            if resp.get("ok") != Some(&json::Value::Bool(true)) {
                let msg = resp
                    .get("error")
                    .and_then(|v| v.as_str())
                    .unwrap_or("unknown error");
                return Err(CliError(format!("shard {s} failed: {msg}")));
            }
            let num = |key: &str| resp.get(key).and_then(json::Value::as_u64).unwrap_or(0);
            exported += num("exported");
            imported += num("imported");
            bytes_read += num("snapshot_bytes_read");
            bytes_written += num("outcome_bytes_written");
            peaks.push((s, num("peak_memory")));
        }
    }
    peaks.sort_unstable();

    // Merge the per-shard containers and replay over the full program.
    let mut parts: Vec<ItemOutcomes> = Vec::new();
    for &s in &non_empty {
        let out_path = dir.join(format!("shard-{s}.fsnp"));
        let container =
            open_file(&out_path).map_err(|e| CliError(format!("open shard {s} outcomes: {e}")))?;
        parts.push(
            snapshot::read_outcomes(&container)
                .map_err(|e| CliError(format!("read shard {s} outcomes: {e}")))?,
        );
        bytes_read += container.bytes_read();
    }
    let merged = merge_outcomes(parts);
    let mut run = replay_merged(
        program,
        set,
        factory,
        opts.threads,
        analysis_opts,
        cache,
        &merged,
    );
    run.stages.shards = k as u64;
    run.stages.summaries_exported = exported;
    run.stages.summaries_imported = imported;
    run.stages.snapshot_bytes_written = bytes_written;
    run.stages.snapshot_bytes_read = bytes_read;
    Ok(ShardedRun {
        run,
        shard_peaks: peaks.into_iter().map(|(_, p)| p).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{scan_source, Options};
    use std::io::Cursor;

    const SRC: &str = "extern fn deref(p);\n\
        fn leaf(x) { let b = x & 7; return b; }\n\
        fn use_a(p) { let v = leaf(p); let q = null; let r = 1; if (v > 2) { r = q; } deref(r); return 0; }\n\
        fn iso_b(z) { let q = null; let r = 1; if (z < 1) { r = q; } deref(r); return 0; }";

    /// Writes `SRC`'s scan snapshot into a fresh directory and returns the
    /// directory and a job line for shard 0 of 2.
    fn job_fixture(opts: &Options) -> (PathBuf, String) {
        let dir = std::env::temp_dir().join(format!(
            "fusion-worker-loop-{}-{}",
            std::process::id(),
            SCAN_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let program = fusion_ir::compile(SRC, fusion_ir::CompileOptions::default()).unwrap();
        let mut analysis_opts = AnalysisOptions::new();
        analysis_opts.absint = opts.absint;
        analysis_opts.compact = opts.compact;
        let snap_path = dir.join("scan.fsnp");
        std::fs::write(&snap_path, scan_snapshot(&program, &analysis_opts)).unwrap();
        let job = format!(
            "{{\"snapshot\": \"{}\", \"shard\": 0, \"shards\": 2, \"out\": \"{}\"}}",
            escape(&snap_path.display().to_string()),
            escape(&dir.join("shard-0.fsnp").display().to_string())
        );
        (dir, job)
    }

    /// Runs the worker loop over `input` and parses its response lines.
    fn run_worker(opts: &Options, input: Vec<u8>) -> Vec<json::Value> {
        let mut out = Vec::new();
        assert_eq!(shard_worker_loop(opts, Cursor::new(input), &mut out), 0);
        let text = String::from_utf8(out).unwrap();
        text.lines()
            .map(|l| json::Value::parse(l).unwrap())
            .collect()
    }

    /// Drives the worker loop in-process (no child process needed): the
    /// job protocol itself is what's under test here.
    #[test]
    fn worker_loop_answers_jobs_and_reports_errors() {
        let opts = Options::default();
        let (dir, job) = job_fixture(&opts);
        let resp = run_worker(&opts, format!("{job}\nnot json\n").into_bytes());
        assert_eq!(resp.len(), 2);
        assert_eq!(resp[0].get("ok"), Some(&json::Value::Bool(true)));
        assert!(resp[0].get("exported").unwrap().as_f64().unwrap() >= 1.0);
        assert!(
            dir.join("shard-0.fsnp").is_file(),
            "worker wrote its outcome container"
        );
        assert_eq!(resp[1].get("ok"), Some(&json::Value::Bool(false)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_loop_answers_the_job_after_a_non_utf8_line() {
        let opts = Options::default();
        let (dir, job) = job_fixture(&opts);
        let mut input = b"\xff\n".to_vec();
        input.extend_from_slice(job.as_bytes());
        let resp = run_worker(&opts, input);
        assert_eq!(resp.len(), 2);
        assert_eq!(resp[0].get("ok"), Some(&json::Value::Bool(false)));
        let err = resp[0].get("error").unwrap().as_str().unwrap();
        assert!(err.starts_with("malformed job: line is not UTF-8"), "{err}");
        assert_eq!(resp[1].get("ok"), Some(&json::Value::Bool(true)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_loop_refuses_bad_shard_numbers_and_answers_the_next_job() {
        let opts = Options::default();
        let (dir, job) = job_fixture(&opts);
        let good = "\"shard\": 0, \"shards\": 2";
        assert!(job.contains(good));
        let mut input = String::new();
        for bad in [
            "\"shard\": 0, \"shards\": 1e300",
            "\"shard\": -3, \"shards\": 2",
            "\"shard\": 1.5, \"shards\": 2",
            "\"shard\": 5, \"shards\": 2",
        ] {
            input.push_str(&job.replace(good, bad));
            input.push('\n');
        }
        input.push_str(&job);
        let resp = run_worker(&opts, input.into_bytes());
        assert_eq!(resp.len(), 5);
        for r in &resp[..4] {
            assert_eq!(r.get("ok"), Some(&json::Value::Bool(false)), "{r:?}");
            let err = r.get("error").unwrap().as_str().unwrap();
            assert!(err.starts_with("malformed job: "), "{err}");
        }
        assert_eq!(resp[4].get("ok"), Some(&json::Value::Bool(true)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn worker_loop_reads_shard_numbers_above_2_pow_53_exactly() {
        let opts = Options::default();
        let (dir, job) = job_fixture(&opts);
        let n = "9007199254740993"; // 2^53 + 1: an f64 reads ...992
        let input = job.replace(
            "\"shard\": 0, \"shards\": 2",
            &format!("\"shard\": {n}, \"shards\": {n}"),
        );
        let resp = run_worker(&opts, input.into_bytes());
        let err = resp[0].get("error").unwrap().as_str().unwrap();
        assert_eq!(
            err,
            format!("malformed job: shard {n} is out of range for {n} shard(s)")
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multiprocess_scan_matches_unsharded_when_binary_available() {
        if worker_binary().is_err() {
            eprintln!("skipping: no fusion-scan binary (set FUSION_SCAN_BIN)");
            return;
        }
        let base = scan_source(SRC, &Options::default()).unwrap();
        let sharded = scan_source(
            SRC,
            &Options {
                shards: 2,
                shard_workers: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(base.findings.len(), sharded.findings.len());
        for (a, b) in base.findings.iter().zip(&sharded.findings) {
            assert_eq!(a.checker, b.checker);
            assert_eq!(a.source_function, b.source_function);
            assert_eq!(a.sink_function, b.sink_function);
            assert_eq!(a.verdict, b.verdict);
            assert_eq!(a.path_length, b.path_length);
        }
        assert_eq!(sharded.stages.shards, 2);
        assert!(sharded.stages.snapshot_bytes_written > 0);
        assert!(sharded.stages.snapshot_bytes_read > 0);
    }
}
