//! The `--serve` loop: a long-lived analysis service speaking
//! line-delimited JSON over stdin/stdout.
//!
//! One request per input line, one response line per request. The
//! [`AnalysisSession`] behind the loop keeps the PDG,
//! abstract-interpretation facts, slice closures, cached verdicts, and
//! per-work-item outcomes resident between requests, so a `rescan`
//! after an edit re-analyzes only the work the edit reaches — with
//! findings byte-identical to a cold batch scan of the edited program.
//!
//! ## Requests
//!
//! ```json
//! {"cmd": "scan",   "source": "<program text>"}
//! {"cmd": "rescan", "source": "<program text>", "edited_fns": ["f"]}
//! {"cmd": "query",  "source": "f", "sink": "g"}
//! {"cmd": "save",   "path": "/tmp/session.fsnp"}
//! {"cmd": "load",   "path": "/tmp/session.fsnp"}
//! {"cmd": "stats"}
//! {"cmd": "shutdown"}
//! ```
//!
//! `scan` flushes all resident state and analyzes cold; `rescan` diffs
//! the new text against the resident program's per-function content
//! fingerprints and re-analyzes incrementally (`edited_fns` is an
//! optional client hint, accepted for protocol compatibility — real
//! edits are always self-detected from the fingerprint diff, so a wrong
//! or missing hint cannot cause a stale result). `query` filters the
//! resident findings by source and/or sink function name without
//! re-analyzing. `save` persists the whole resident session — program,
//! PDG, facts, outcomes, verdicts, provenance; never a path condition —
//! to a [`fusion::snapshot`] container; `load` restores it, so a
//! `rescan` of the unchanged program after a process restart replays
//! every recorded outcome without a single solver query. `stats`
//! reports resident-state and last-invalidation counters. `shutdown`
//! (or stdin EOF, or a read error) ends the loop.
//!
//! ## Responses
//!
//! Every response is one line: `{"ok": true, ...}` on success with an
//! `event` echoing the command, or `{"ok": false, "error": "..."}`. A
//! failed request leaves the resident state untouched and the loop
//! running: a line that is not UTF-8 or is longer than
//! [`MAX_LINE_BYTES`] (skipped up to its newline without being
//! buffered), a parse error, or a compile error.

use crate::json::{self, escape};
use crate::lines::{bounded_lines, MAX_LINE_BYTES};
use crate::{effective_checkers, make_engine, Finding, Options, ScanReport};
use fusion::engine::AnalysisOptions;
use fusion::incremental::{AnalysisSession, ResidentStats};
use fusion::slice_cache::SliceCache;
use fusion_ir::{compile, CompileOptions};
use std::fmt::Write as _;
use std::io::{BufRead, Write};
use std::sync::Arc;

/// Collapses the pretty-printed report JSON onto one line (JSON
/// whitespace is insignificant, and every string value is escaped, so
/// dropping the newline + indent of each line is safe).
fn one_line(pretty: &str) -> String {
    pretty.lines().map(str::trim_start).collect()
}

fn finding_json(f: &Finding) -> String {
    format!(
        "{{\"checker\": \"{}\", \"source_function\": \"{}\", \"sink_function\": \"{}\", \
         \"verdict\": \"{}\", \"path_length\": {}}}",
        escape(&f.checker),
        escape(&f.source_function),
        escape(&f.sink_function),
        escape(&f.verdict),
        f.path_length
    )
}

fusion::counters! {
    /// The counters of serve `stats`: what the session holds resident and
    /// the loop's last snapshot traffic.
    #[derive(Clone, Copy, Default)]
    struct ServeStats {
        /// The session's resident counts and bytes.
        resident: ResidentStats => ..,
        /// Bytes the last `save` wrote.
        snapshot_bytes_written: u64 => "snapshot_bytes_written",
        /// Bytes the last `load` read.
        snapshot_bytes_read: u64 => "snapshot_bytes_read",
    }
}

fn respond(out: &mut dyn Write, line: &str) {
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

fn respond_err(out: &mut dyn Write, msg: &str) {
    respond(
        out,
        &format!("{{\"ok\": false, \"error\": \"{}\"}}", escape(msg)),
    );
}

/// Runs the service loop until `shutdown` or EOF. Returns the process
/// exit code (0: clean shutdown; read errors end the loop cleanly too,
/// since a vanished client is the normal way such a service dies). A
/// line that is not UTF-8 or is too long is answered and skipped.
pub fn serve_loop(opts: &Options, input: impl BufRead, out: &mut dyn Write) -> i32 {
    let (set, warnings) = effective_checkers(opts);
    let mut analysis_opts = AnalysisOptions::new().with_slice_cache(Arc::new(SliceCache::new()));
    analysis_opts.absint = opts.absint;
    let mut session = AnalysisSession::new(set, analysis_opts, opts.threads);
    let (engine_choice, timeout, incremental) = (opts.engine, opts.timeout, opts.incremental);
    let factory = move || make_engine(engine_choice, timeout, incremental);
    let compile_opts = CompileOptions {
        loop_unroll: opts.unroll,
        recursion_unroll: opts.unroll,
    };
    let mut last_report: Option<ScanReport> = None;
    let mut served = ServeStats::default();
    for line in bounded_lines(input, MAX_LINE_BYTES) {
        let line = match line {
            Ok(line) => line,
            Err(e) => {
                respond_err(out, &format!("malformed request: {e}"));
                continue;
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let req = match json::Value::parse(line.trim()) {
            Ok(v) => v,
            Err(e) => {
                respond_err(out, &format!("malformed request: {e}"));
                continue;
            }
        };
        let cmd = req.get("cmd").and_then(|v| v.as_str()).unwrap_or("");
        match cmd {
            "scan" | "rescan" => {
                let Some(source) = req.get("source").and_then(|v| v.as_str()) else {
                    respond_err(out, &format!("`{cmd}` needs a string `source` member"));
                    continue;
                };
                let program = match compile(source, compile_opts) {
                    Ok(p) => p,
                    Err(e) => {
                        respond_err(out, &format!("compile error: {e}"));
                        continue;
                    }
                };
                if opts.validate {
                    let errs = fusion_ir::validate::check_program(&program);
                    if !errs.is_empty() {
                        respond_err(
                            out,
                            &format!("IR validation failed with {} diagnostic(s)", errs.len()),
                        );
                        continue;
                    }
                }
                let started = std::time::Instant::now();
                let run = if cmd == "scan" {
                    session.scan(program, &factory)
                } else {
                    session.rescan(program, &factory)
                };
                let mut report = ScanReport::new(
                    session.program().expect("resident after run"),
                    session.pdg().expect("resident after run"),
                    &run,
                    warnings.clone(),
                );
                report.scan.elapsed = started.elapsed();
                let resident = session.resident();
                report.scan.cache_bytes = resident.cache_bytes;
                report.scan.slice_cache_bytes = resident.slice_cache_bytes;
                let inv = session.last_invalidation();
                let mut s = format!(
                    "{{\"ok\": true, \"event\": \"{cmd}\", \"functions_edited\": {}, \
                     \"functions_affected\": {}, \"report\": ",
                    inv.functions_edited, inv.functions_affected
                );
                s.push_str(&one_line(&report.to_json()));
                s.push('}');
                respond(out, &s);
                last_report = Some(report);
            }
            "query" => {
                let Some(report) = &last_report else {
                    respond_err(out, "no resident scan; send `scan` first");
                    continue;
                };
                let want_source = req.get("source").and_then(|v| v.as_str());
                let want_sink = req.get("sink").and_then(|v| v.as_str());
                let hits: Vec<&Finding> = report
                    .findings
                    .iter()
                    .filter(|f| {
                        want_source.is_none_or(|s| f.source_function == s)
                            && want_sink.is_none_or(|s| f.sink_function == s)
                    })
                    .collect();
                let mut s = String::from("{\"ok\": true, \"event\": \"query\", \"findings\": [");
                for (i, f) in hits.iter().enumerate() {
                    if i > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&finding_json(f));
                }
                s.push_str("]}");
                respond(out, &s);
            }
            "save" => {
                let Some(path) = req.get("path").and_then(|v| v.as_str()) else {
                    respond_err(out, "`save` needs a string `path` member");
                    continue;
                };
                match session.save(std::path::Path::new(path)) {
                    Ok(bytes) => {
                        served.snapshot_bytes_written = bytes;
                        respond(
                            out,
                            &format!(
                                "{{\"ok\": true, \"event\": \"save\", \"bytes_written\": {bytes}}}"
                            ),
                        );
                    }
                    Err(e) => respond_err(out, &format!("save failed: {e}")),
                }
            }
            "load" => {
                let Some(path) = req.get("path").and_then(|v| v.as_str()) else {
                    respond_err(out, "`load` needs a string `path` member");
                    continue;
                };
                match session.load(std::path::Path::new(path)) {
                    Ok(bytes) => {
                        served.snapshot_bytes_read = bytes;
                        // Findings are reassembled by the next (re)scan's
                        // replay; a stale query answer would be worse
                        // than none.
                        last_report = None;
                        let resident = session.resident();
                        respond(
                            out,
                            &format!(
                                "{{\"ok\": true, \"event\": \"load\", \"bytes_read\": {bytes}, \
                                 \"items_resident\": {}, \"verdicts_resident\": {}}}",
                                resident.items_resident, resident.verdicts_resident
                            ),
                        );
                    }
                    Err(e) => respond_err(out, &format!("load failed: {e}")),
                }
            }
            "stats" => {
                let mut s = format!(
                    "{{\"ok\": true, \"event\": \"stats\", \"resident\": {}, ",
                    session.is_resident()
                );
                if let Some(p) = session.program() {
                    let _ = write!(s, "\"functions\": {}, ", p.functions.len());
                }
                if let Some(pdg) = session.pdg() {
                    let _ = write!(
                        s,
                        "\"vertices\": {}, \"edges\": {}, ",
                        pdg.stats().vertices,
                        pdg.stats().edges()
                    );
                }
                served.resident = session.resident();
                let _ = write!(
                    s,
                    "{}, \"last_invalidation\": {{{}}}}}",
                    json::members(&served, ", "),
                    json::members(&session.last_invalidation(), ", ")
                );
                respond(out, &s);
            }
            "shutdown" => {
                respond(out, "{\"ok\": true, \"event\": \"shutdown\"}");
                return 0;
            }
            "" => respond_err(out, "request needs a string `cmd` member"),
            other => respond_err(
                out,
                &format!(
                    "unknown cmd `{other}` (scan, rescan, query, save, load, stats, shutdown)"
                ),
            ),
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const BASE: &str = "extern fn deref(p);\n\
        fn f(x) { let q = null; let r = 1; if (x > 0) { r = q; } deref(r); return 0; }\n\
        fn g(y) { let q = null; let r = 1; if (y > 2) { r = q; } deref(r); return 0; }";

    // `g`'s guard becomes unsatisfiable: the warm rescan must drop g's
    // finding without touching `f`'s work.
    const EDIT: &str = "extern fn deref(p);\n\
        fn f(x) { let q = null; let r = 1; if (x > 0) { r = q; } deref(r); return 0; }\n\
        fn g(y) { let q = null; let r = 1; if (y * 2 == 5) { r = q; } deref(r); return 0; }";

    fn request(cmd: &str, source: Option<&str>) -> String {
        match source {
            Some(src) => format!("{{\"cmd\": \"{cmd}\", \"source\": \"{}\"}}", escape(src)),
            None => format!("{{\"cmd\": \"{cmd}\"}}"),
        }
    }

    fn drive(opts: &Options, requests: &[String]) -> (i32, Vec<json::Value>) {
        let input = requests.join("\n");
        let mut out = Vec::new();
        let code = serve_loop(opts, Cursor::new(input), &mut out);
        let text = String::from_utf8(out).unwrap();
        let responses = text
            .lines()
            .map(|l| json::Value::parse(l).expect("each response line is valid JSON"))
            .collect();
        (code, responses)
    }

    #[test]
    fn scan_rescan_query_stats_shutdown_round_trip() {
        let opts = Options {
            serve: true,
            ..Default::default()
        };
        let (code, resp) = drive(
            &opts,
            &[
                request("scan", Some(BASE)),
                request("rescan", Some(EDIT)),
                "{\"cmd\": \"query\", \"source\": \"f\"}".into(),
                request("stats", None),
                request("shutdown", None),
            ],
        );
        assert_eq!(code, 0);
        assert_eq!(resp.len(), 5);
        for r in &resp {
            assert_eq!(r.get("ok"), Some(&json::Value::Bool(true)));
        }
        // Cold scan: both f and g report under null-deref.
        let cold = resp[0].get("report").unwrap();
        let cold_findings = cold.get("findings").unwrap().as_array().unwrap();
        assert_eq!(
            cold_findings
                .iter()
                .filter(|f| f.get("checker").unwrap().as_str() == Some("null-deref"))
                .count(),
            2
        );
        // Warm rescan after g's edit: g's finding gone, only one edit
        // detected, and only g's component re-analyzed.
        let warm = resp[1].get("report").unwrap();
        let warm_findings = warm.get("findings").unwrap().as_array().unwrap();
        assert_eq!(
            warm_findings
                .iter()
                .filter(|f| f.get("checker").unwrap().as_str() == Some("null-deref"))
                .count(),
            1
        );
        assert_eq!(resp[1].get("functions_edited").unwrap().as_f64(), Some(1.0));
        assert!(warm.get("candidates_reanalyzed").unwrap().as_f64().unwrap() >= 1.0);
        // Query narrows to f's findings only.
        let hits = resp[2].get("findings").unwrap().as_array().unwrap();
        assert!(!hits.is_empty());
        assert!(hits
            .iter()
            .all(|f| f.get("source_function").unwrap().as_str() == Some("f")));
        // Stats reflect a resident program.
        assert_eq!(resp[3].get("resident"), Some(&json::Value::Bool(true)));
        assert!(resp[3].get("functions").unwrap().as_f64().unwrap() >= 3.0);
        assert!(resp[3]
            .get("last_invalidation")
            .unwrap()
            .get("functions_edited")
            .is_some());
        assert_eq!(resp[4].get("event").unwrap().as_str(), Some("shutdown"));
    }

    #[test]
    fn non_utf8_request_is_answered_and_resident_state_survives() {
        let opts = Options {
            serve: true,
            ..Default::default()
        };
        let mut input = request("scan", Some(BASE)).into_bytes();
        input.extend_from_slice(b"\n\xff\n");
        input.extend_from_slice(request("stats", None).as_bytes());
        input.push(b'\n');
        input.extend_from_slice(request("shutdown", None).as_bytes());
        let mut out = Vec::new();
        assert_eq!(serve_loop(&opts, Cursor::new(input), &mut out), 0);
        let text = String::from_utf8(out).unwrap();
        let resp: Vec<json::Value> = text
            .lines()
            .map(|l| json::Value::parse(l).unwrap())
            .collect();
        assert_eq!(resp.len(), 4);
        assert_eq!(resp[0].get("ok"), Some(&json::Value::Bool(true)));
        assert_eq!(resp[1].get("ok"), Some(&json::Value::Bool(false)));
        let err = resp[1].get("error").unwrap().as_str().unwrap();
        assert!(
            err.starts_with("malformed request: line is not UTF-8"),
            "{err}"
        );
        assert_eq!(resp[2].get("event").unwrap().as_str(), Some("stats"));
        assert_eq!(resp[2].get("resident"), Some(&json::Value::Bool(true)));
        assert_eq!(resp[3].get("event").unwrap().as_str(), Some("shutdown"));
    }

    #[test]
    fn warm_rescan_report_matches_cold_scan_report() {
        // The whole point: after an edit, the warm report's findings are
        // byte-identical to a cold batch scan of the edited program.
        for threads in [1usize, 4] {
            let opts = Options {
                serve: true,
                threads,
                ..Default::default()
            };
            let (_, resp) = drive(
                &opts,
                &[request("scan", Some(BASE)), request("rescan", Some(EDIT))],
            );
            let warm = resp[1].get("report").unwrap();
            let cold = crate::scan_source(
                EDIT,
                &Options {
                    threads,
                    ..Default::default()
                },
            )
            .unwrap();
            let warm_findings = warm.get("findings").unwrap().as_array().unwrap();
            assert_eq!(
                warm_findings.len(),
                cold.findings.len(),
                "threads={threads}"
            );
            for (w, c) in warm_findings.iter().zip(&cold.findings) {
                assert_eq!(w.get("checker").unwrap().as_str(), Some(c.checker.as_str()));
                assert_eq!(
                    w.get("source_function").unwrap().as_str(),
                    Some(c.source_function.as_str())
                );
                assert_eq!(
                    w.get("sink_function").unwrap().as_str(),
                    Some(c.sink_function.as_str())
                );
                assert_eq!(w.get("verdict").unwrap().as_str(), Some(c.verdict.as_str()));
                assert_eq!(
                    w.get("path_length").unwrap().as_f64(),
                    Some(c.path_length as f64)
                );
            }
        }
    }

    #[test]
    fn save_load_across_restart_replays_without_queries() {
        let path =
            std::env::temp_dir().join(format!("fusion_serve_save_{}.fsnp", std::process::id()));
        let path_s = path.display().to_string();
        let opts = Options {
            serve: true,
            ..Default::default()
        };
        // First service life: scan, save, shutdown.
        let (_, resp) = drive(
            &opts,
            &[
                request("scan", Some(BASE)),
                format!("{{\"cmd\": \"save\", \"path\": \"{}\"}}", escape(&path_s)),
                request("shutdown", None),
            ],
        );
        assert_eq!(resp[1].get("ok"), Some(&json::Value::Bool(true)));
        assert!(resp[1].get("bytes_written").unwrap().as_f64().unwrap() > 0.0);
        let cold = resp[0].get("report").unwrap();
        let cold_findings = cold.get("findings").unwrap().as_array().unwrap().len();
        // Second service life (a fresh loop stands in for a process
        // restart): load, then rescan the unchanged program — pure
        // replay, zero candidates reanalyzed, zero solver queries.
        let (_, resp2) = drive(
            &opts,
            &[
                format!("{{\"cmd\": \"load\", \"path\": \"{}\"}}", escape(&path_s)),
                request("rescan", Some(BASE)),
                request("stats", None),
            ],
        );
        assert_eq!(resp2[0].get("ok"), Some(&json::Value::Bool(true)));
        assert!(resp2[0].get("bytes_read").unwrap().as_f64().unwrap() > 0.0);
        assert!(resp2[0].get("items_resident").unwrap().as_f64().unwrap() >= 1.0);
        let warm = resp2[1].get("report").unwrap();
        assert_eq!(
            warm.get("findings").unwrap().as_array().unwrap().len(),
            cold_findings
        );
        assert_eq!(
            warm.get("candidates_reanalyzed").unwrap().as_f64(),
            Some(0.0)
        );
        for c in warm.get("checkers").unwrap().as_array().unwrap() {
            assert_eq!(c.get("queries").unwrap().as_f64(), Some(0.0));
        }
        assert_eq!(
            resp2[1].get("functions_edited").unwrap().as_f64(),
            Some(0.0)
        );
        assert!(
            resp2[2]
                .get("snapshot_bytes_read")
                .unwrap()
                .as_f64()
                .unwrap()
                > 0.0
        );
        // Error paths: loading a missing file fails; saving with no
        // resident program fails; neither kills the loop.
        let (_, resp3) = drive(
            &opts,
            &[
                format!(
                    "{{\"cmd\": \"load\", \"path\": \"{}.gone\"}}",
                    escape(&path_s)
                ),
                format!("{{\"cmd\": \"save\", \"path\": \"{}\"}}", escape(&path_s)),
                request("save", None),
            ],
        );
        assert_eq!(resp3[0].get("ok"), Some(&json::Value::Bool(false)));
        assert_eq!(resp3[1].get("ok"), Some(&json::Value::Bool(false)));
        assert_eq!(resp3[2].get("ok"), Some(&json::Value::Bool(false)));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn deeply_nested_request_is_refused_and_serving_continues() {
        // A line nested past `json::MAX_DEPTH` is refused like any other
        // malformed request, and the resident scan survives it.
        let opts = Options {
            serve: true,
            ..Default::default()
        };
        let (code, resp) = drive(
            &opts,
            &[
                request("scan", Some(BASE)),
                "[".repeat(1_000_000),
                request("stats", None),
                request("shutdown", None),
            ],
        );
        assert_eq!(code, 0);
        assert_eq!(resp.len(), 4);
        assert_eq!(resp[1].get("ok"), Some(&json::Value::Bool(false)));
        let err = resp[1].get("error").unwrap().as_str().unwrap();
        assert!(
            err.starts_with("malformed request: nesting deeper than"),
            "{err}"
        );
        assert_eq!(resp[2].get("ok"), Some(&json::Value::Bool(true)));
        assert_eq!(resp[2].get("resident"), Some(&json::Value::Bool(true)));
        assert!(resp[2].get("functions").unwrap().as_f64().unwrap() >= 3.0);
        assert_eq!(resp[3].get("event").unwrap().as_str(), Some("shutdown"));
    }

    #[test]
    fn errors_leave_resident_state_untouched() {
        let opts = Options {
            serve: true,
            ..Default::default()
        };
        let (code, resp) = drive(
            &opts,
            &[
                "not json at all".into(),
                request("query", None),
                request("scan", Some(BASE)),
                request("scan", Some("fn broken( {")),
                request("nope", None),
                "{\"cmd\": \"query\", \"sink\": \"g\"}".into(),
            ],
        );
        assert_eq!(code, 0, "EOF without shutdown still exits cleanly");
        assert_eq!(resp.len(), 6);
        assert_eq!(resp[0].get("ok"), Some(&json::Value::Bool(false)));
        // Query before any scan is an error.
        assert_eq!(resp[1].get("ok"), Some(&json::Value::Bool(false)));
        assert_eq!(resp[2].get("ok"), Some(&json::Value::Bool(true)));
        // A compile error reports but does not evict the resident scan...
        assert_eq!(resp[3].get("ok"), Some(&json::Value::Bool(false)));
        assert!(resp[3]
            .get("error")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("compile error"));
        assert_eq!(resp[4].get("ok"), Some(&json::Value::Bool(false)));
        // ...so the query still answers from the BASE scan (the sink
        // vertex of a null-deref finding lives in the function that
        // calls `deref`, here `g`).
        assert_eq!(resp[5].get("ok"), Some(&json::Value::Bool(true)));
        let hits = resp[5].get("findings").unwrap().as_array().unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].get("source_function").unwrap().as_str(), Some("g"));
    }
}
