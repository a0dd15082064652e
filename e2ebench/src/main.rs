//! `e2ebench` — the end-to-end and per-layer benchmark of the Fusion
//! pipeline. See `e2ebench/README.md` for the workloads and metrics.
//!
//! ```text
//! e2ebench --workload <paper-scan|hot-sinks|edit-rescan|sharded-scan>
//!          --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a human-readable report, then as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 1 when any verdict check fails, 2 on a usage error.

mod engine;
mod ops;
mod subjects;
mod trace;

use crate::engine::QueryTotals;
use crate::ops::{Verdicts, THREADS};
use crate::subjects::{HotSink, Rng, SeedKey};
use crate::trace::Tracer;
use fusion::checkers::CheckerSet;
use fusion::engine::MultiAnalysisRun;
use fusion::incremental::AnalysisSession;
use fusion_ir::ssa::Program;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fraction of wine's 4.1 MLoC in the `paper-scan` subject (~158K lines,
/// 7,122 functions, about one second per scan).
const PAPER_SCALE: f64 = 0.02;
/// Shape of the `hot-sinks` subject.
const HOT_FUNCS: usize = 12;
const HOT_SINKS: usize = 9;
/// Filler functions per module of the multi-module subject.
const MULTI_FUNCS: usize = 12;
/// Every run repeats its operation at least this often, and scans every
/// subject of its pool at least once, however long one takes.
const MIN_OPS: usize = 3;
/// Set-up is repeated in slices of `SETUP_SLICE` (at least one set-up)
/// between operations, for at most `SETUP_SHARE` of the operations' time
/// and at least `SETUP_MIN_REPS` times, and the fastest is reported: the
/// median of a set-up of about a millisecond (hot-sinks) was 1.5 times
/// higher in some runs than in others, while its minimum over
/// repetitions spread across the run stayed within a few percent.
const SETUP_MIN_REPS: usize = 3;
const SETUP_SHARE: f64 = 0.2;
const SETUP_SLICE: Duration = Duration::from_millis(25);

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    PaperScan,
    HotSinks,
    EditRescan,
    ShardedScan,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::PaperScan,
        Workload::HotSinks,
        Workload::EditRescan,
        Workload::ShardedScan,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::PaperScan => "paper-scan",
            Workload::HotSinks => "hot-sinks",
            Workload::EditRescan => "edit-rescan",
            Workload::ShardedScan => "sharded-scan",
        }
    }

    /// Subjects a run scans in turn, each drawn from its own seed derived
    /// from `--seed`. The solver's work on one subject depends on its
    /// seed: in one process, six hot-sinks seeds took 0.75 to 0.94 s per
    /// scan and six paper-scan seeds 0.72 to 0.84 s. A run therefore
    /// averages over a pool, which narrows the seed-to-seed spread.
    fn pool(self) -> usize {
        match self {
            Workload::PaperScan => 6,
            Workload::HotSinks => 12,
            Workload::EditRescan | Workload::ShardedScan => 1,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut map = BTreeMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => {
                map.insert(flag.trim_start_matches("--").to_string(), value.clone());
            }
            _ => return Err(format!("unexpected arguments {pair:?}")),
        }
    }
    let get = |k: &str| map.get(k).ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.name() == workload)
        .ok_or_else(|| format!("unknown workload `{workload}`"))?;
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("--{k} takes a whole number"))
    };
    let seconds = num("seconds")?.max(1);
    let trace = match num("trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };
    if map.len() != 4 {
        return Err("expected exactly --workload, --seed, --seconds and --trace".into());
    }
    Ok(Args {
        workload,
        seed: num("seed")?,
        seconds,
        trace,
    })
}

/// The answer key of a workload's subject.
enum Key {
    Seeded(SeedKey),
    Hot(Vec<HotSink>),
}

impl Key {
    fn check(&self, program: &Program, run: &MultiAnalysisRun) -> Verdicts {
        match self {
            Key::Seeded(key) => ops::check_seeded(program, run, key),
            Key::Hot(sinks) => ops::check_hot(program, run, sinks),
        }
    }
}

/// Everything one run measured.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    unknown: u64,
    /// Answer-key entries the interpreter could not confirm.
    key_errors: u64,
    /// Set-up walls (seconds).
    setup: Vec<f64>,
    /// Cold scan walls (seconds) measured during set-up.
    setup_scans: Vec<f64>,
    /// Operation walls (seconds) with tracing off and on.
    ops: Vec<f64>,
    traced_ops: Vec<f64>,
    /// Pool subject of each entry of `ops`.
    op_subjects: Vec<usize>,
    /// Reference wall (seconds) beside each entry of `ops`: the mean of
    /// the reference runs just before and just after the operation.
    op_refs: Vec<f64>,
    /// Tracked peaks (MiB) of untraced operations.
    peaks: Vec<f64>,
    /// Per-layer samples, one per operation that measured the layer.
    layers: BTreeMap<String, Vec<f64>>,
    /// First operation of the traced run's coverage pass, once it began.
    coverage_from: Option<u64>,
    /// Samples of the coverage pass; a layer's metric comes from here
    /// only when the workload's own operations did not measure it.
    coverage: BTreeMap<String, Vec<f64>>,
}

impl Tally {
    fn sample(&mut self, name: &str, value: f64) {
        self.sample_to(self.coverage_from.is_some(), name, value);
    }

    fn sample_to(&mut self, coverage: bool, name: &str, value: f64) {
        if value.is_finite() {
            let map = if coverage {
                &mut self.coverage
            } else {
                &mut self.layers
            };
            map.entry(name.to_string()).or_default().push(value);
        }
    }

    /// Runs one operation; it fails if it panics or its checks fail.
    fn attempt(&mut self, op: impl FnOnce(&mut Tally) -> Verdicts) {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| op(self))) {
            Ok(v) => {
                self.unknown += v.unknown as u64;
                if !v.ok() {
                    self.failed += 1;
                }
            }
            Err(_) => self.failed += 1,
        }
    }

    /// Samples the query log of one operation.
    fn queries(&mut self, q: &QueryTotals) {
        let mut ms: Vec<f64> = q.latencies.iter().map(|d| d.as_secs_f64() * 1e3).collect();
        ms.sort_by(f64::total_cmp);
        if !ms.is_empty() {
            self.sample("graph_solver.query_ms_p50", quantile(&ms, 0.5));
            self.sample("graph_solver.query_ms_p99", quantile(&ms, 0.99));
            self.sample(
                "graph_solver.preprocess_decided_ratio",
                q.preprocess_decided as f64 / ms.len() as f64,
            );
        }
        let s = &q.stages;
        self.sample("engine.queries", q.queries() as f64);
        self.sample("graph_solver.sessions_opened", s.sessions_opened as f64);
        self.sample("slice_cache.slice_s", s.slice_wall.as_secs_f64());
        self.sample("slice_cache.computed", s.slices_computed as f64);
        self.sample("slice_cache.reused", s.slices_reused as f64);
        self.sample("smt.translate_s", s.translate_wall.as_secs_f64());
        self.sample("smt.solve_s", s.solve_wall.as_secs_f64());
        self.sample("smt.egraph_classes", s.egraph_classes as f64);
        self.sample("smt.egraph_nodes_saved", s.egraph_nodes_saved as f64);
    }

    fn run_counters(&mut self, run: &MultiAnalysisRun) {
        let lookups = run.cache.hits + run.cache.misses;
        if lookups > 0 {
            self.sample(
                "engine.cache_hit_ratio",
                run.cache.hits as f64 / lookups as f64,
            );
        }
    }
}

/// Linear-interpolated quantile of sorted values.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Mean over the pool's subjects of each subject's median value, so
/// every subject weighs the same however often it was scanned.
fn pooled_median(values: &[f64], subjects: &[usize]) -> f64 {
    let mut by_subject: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for (&v, &s) in values.iter().zip(subjects) {
        by_subject.entry(s).or_default().push(v);
    }
    let medians: Vec<f64> = by_subject.values().map(|v| median(v)).collect();
    medians.iter().sum::<f64>() / medians.len() as f64
}

const MIB: f64 = 1024.0 * 1024.0;

/// The process's resident high-water mark, MiB.
fn rss_peak_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Runs one set-up and records its time.
fn setup_rep<T>(tally: &mut Tally, f: &mut impl FnMut(&mut Tally) -> T) -> T {
    let (secs, out) = timed(|| f(tally));
    tally.setup.push(secs);
    out
}

/// Between two operations: one slice of set-up repetitions, unless
/// set-up already took its share of the run.
fn setup_between<T>(tally: &mut Tally, f: &mut impl FnMut(&mut Tally) -> T) {
    let spent: f64 = tally.setup.iter().sum();
    let ops: f64 = tally.ops.iter().chain(&tally.traced_ops).sum();
    if spent > SETUP_SHARE * ops {
        return;
    }
    let start = Instant::now();
    while {
        setup_rep(tally, f);
        start.elapsed() < SETUP_SLICE
    } {}
}

/// Runs `op` until `seconds` have passed (and at least `MIN_OPS` times,
/// and until every subject of a pool of `pool` was scanned untraced),
/// calling `between` and then [`reference_s`] after each operation, so
/// every untraced wall has a reference wall on either side. `op` gets the
/// pool subject to
/// scan and returns the wall of the timed part of its operation, `None`
/// if it panicked. In a traced run the operations alternate traced and
/// untraced, and each subject is scanned once each way in turn, so the
/// tracing overhead is measured in the same run on the same subjects.
fn timed_loop(
    tally: &mut Tally,
    tracer: &Arc<Tracer>,
    args: &Args,
    pool: usize,
    mut op: impl FnMut(&mut Tally, usize) -> Option<f64>,
    mut between: impl FnMut(&mut Tally),
) {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let per_subject = if args.trace { 2 } else { 1 };
    let min_ops = MIN_OPS.max(pool * per_subject);
    let mut n = 0;
    let mut speed_before = reference_s();
    while n < min_ops || Instant::now() < deadline {
        let traced = args.trace && n % 2 == 0;
        let subject = (n / per_subject) % pool;
        tracer.set_enabled(traced);
        tracer.begin_op();
        let wall = op(tally, subject);
        tracer.set_enabled(false);
        between(tally);
        let speed_after = reference_s();
        if let Some(wall) = wall {
            if traced {
                tally.traced_ops.push(wall);
            } else {
                tally.ops.push(wall);
                tally.op_subjects.push(subject);
                tally.op_refs.push(0.5 * (speed_before + speed_after));
            }
        }
        speed_before = speed_after;
        n += 1;
    }
    tracer.set_enabled(args.trace);
}

/// Wall (seconds) of the reference computation `scan_s` is rescaled by:
/// the same fixed work every time, none of it the program's.
/// Filling, sorting and indexing a few MiB moves with the machine's
/// memory speed as the scans do: over a 90 s hot-sinks run, per-scan
/// walls and adjacent reference walls correlated at 0.74, and the
/// spread of the scan/reference ratio across 8-scan windows was a third
/// of the spread of the raw walls.
fn reference_s() -> f64 {
    timed(|| {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut v: Vec<u64> = (0..400_000)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        v.sort_unstable();
        let mut index = BTreeMap::new();
        for (i, k) in v.iter().enumerate().take(200_000) {
            index.insert(k % 100_003, i);
        }
        std::hint::black_box(index.len() as u64 + v[7])
    })
    .0
}

/// The reference computation's wall on the machine `scan_s` is scaled
/// to (a 2-vCPU Xeon VM at its usual speed): `scan_s` is the scan wall
/// times (`REFERENCE_S` over the reference's wall measured beside it) to
/// the power `REFERENCE_POWER`.
const REFERENCE_S: f64 = 0.035;
/// The scans slow down more than the reference does. Over ten 45 s runs
/// on each gated workload, log median scan wall against log median
/// reference wall had slope 1.22 (hot-sinks, correlation 0.99) and 1.28
/// (paper-scan, correlation 0.95); with power 1 the rescaled `scan_s`
/// still rose in slow spells.
const REFERENCE_POWER: f64 = 1.25;

/// `wall` rescaled to the reference speed, given the reference wall
/// `reference` measured beside it.
fn rescale(wall: f64, reference: f64) -> f64 {
    wall * (REFERENCE_S / reference).powf(REFERENCE_POWER)
}

/// Seconds `f` took, and its result.
fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// One cold scan; returns its wall. A traced scan is followed by the
/// layers the batch driver runs internally, each timed on its own.
fn scan_op(
    tally: &mut Tally,
    tracer: &Arc<Tracer>,
    set: &CheckerSet,
    text: &str,
    key: &Key,
) -> Option<f64> {
    let mut wall = None;
    tally.attempt(|t| {
        let (secs, out) = timed(|| ops::scan(tracer, set, text));
        wall = Some(secs);
        if tracer.enabled() {
            ops::graph_layers(tracer, set, &out.program, &out.pdg);
        }
        let run = &out.run;
        if !tracer.enabled() {
            t.peaks.push(run.peak_memory as f64 / MIB);
        }
        let pdg = out.pdg.stats();
        t.sample("ir.defs", out.program.size() as f64);
        t.sample("pdg.vertices", pdg.vertices as f64);
        t.sample("pdg.edges", pdg.edges() as f64);
        t.sample(
            "absint.triaged_candidates",
            run.stages.triaged_candidates as f64,
        );
        t.sample("compact.vertices_pruned", run.stages.vertices_pruned as f64);
        t.sample(
            "compact.chains_collapsed",
            run.stages.chains_collapsed as f64,
        );
        t.sample("compact.iso_hits", run.stages.iso_hits as f64);
        t.sample("propagate.steps", run.stages.discovery_steps as f64);
        t.sample("propagate.candidates", run.candidates as f64);
        t.queries(&out.queries);
        t.run_counters(run);
        key.check(&out.program, run)
    });
    wall
}

/// One partitioned scan; returns its wall.
fn sharded_op(
    tally: &mut Tally,
    tracer: &Arc<Tracer>,
    set: &CheckerSet,
    text: &str,
    key: &Key,
) -> Option<f64> {
    let mut wall = None;
    tally.attempt(|t| {
        let (secs, out) = timed(|| ops::sharded_scan(tracer, set, text));
        wall = Some(secs);
        if !tracer.enabled() {
            let peak = out.shard_peaks.iter().copied().max().unwrap_or(0);
            t.peaks.push(peak as f64 / MIB);
        }
        t.sample("snapshot.bytes", out.snapshot_bytes as f64);
        t.sample("shard.summaries_imported", out.summaries_imported as f64);
        t.queries(&out.queries);
        key.check(&out.program, &out.run)
    });
    wall
}

/// Compile + warm rescan of the edited `text`; returns its wall and the
/// warm report's keys.
fn rescan_op(
    tally: &mut Tally,
    tracer: &Arc<Tracer>,
    session: &mut AnalysisSession,
    text: &str,
    key: &Key,
) -> (Option<f64>, Option<Vec<String>>) {
    let mut wall = None;
    let mut keys = None;
    tally.attempt(|t| {
        let (secs, out) = timed(|| ops::rescan(tracer, session, text));
        wall = Some(secs);
        if !tracer.enabled() {
            t.peaks.push(out.run.peak_memory as f64 / MIB);
        }
        let inv = out.invalidation;
        t.sample("ir.defs", out.defs as f64);
        t.sample(
            "incremental.functions_affected",
            inv.functions_affected as f64,
        );
        t.sample(
            "incremental.candidates_reanalyzed",
            inv.candidates_reanalyzed as f64,
        );
        let verdicts = inv.verdicts_retained + inv.verdicts_invalidated;
        if verdicts > 0 {
            t.sample(
                "incremental.verdicts_retained_ratio",
                inv.verdicts_retained as f64 / verdicts as f64,
            );
        }
        t.queries(&out.queries);
        t.run_counters(&out.run);
        keys = Some(ops::report_keys(&out.run));
        key.check(
            session.program().expect("rescan leaves a resident program"),
            &out.run,
        )
    });
    (wall, keys)
}

/// A warm report must equal a cold scan of the same text.
fn check_warm_equals_cold(
    tally: &mut Tally,
    set: &CheckerSet,
    text: &str,
    warm: Option<Vec<String>>,
) {
    let Some(warm) = warm else { return };
    let cold = ops::scan(&Arc::new(Tracer::new(false)), set, text);
    if ops::report_keys(&cold.run) != warm {
        eprintln!("warm rescan report differs from a cold scan of the same text");
        tally.failed = (tally.failed + 1).min(tally.attempted);
    }
}

/// The traced run also runs one operation of every kind the workload
/// lacks, on the workload's own subject, so every layer reports a
/// measured value on every workload. Their samples only fill layers the
/// workload's own operations left unmeasured.
fn coverage(
    tally: &mut Tally,
    tracer: &Arc<Tracer>,
    set: &CheckerSet,
    text: &str,
    key: &Key,
    w: Workload,
    seed: u64,
) {
    tracer.set_enabled(true);
    tally.coverage_from = Some(tracer.op() + 1);
    if !matches!(w, Workload::PaperScan | Workload::HotSinks) {
        tracer.begin_op();
        scan_op(tally, tracer, set, text, key);
    }
    if w != Workload::EditRescan {
        tracer.begin_op();
        let mut session = ops::open_session(tracer, set, text);
        let edited = subjects::edit_one_function(text, &mut Rng::new(seed), 1);
        tracer.begin_op();
        rescan_op(tally, tracer, &mut session, &edited, key);
    }
    if w != Workload::ShardedScan {
        tracer.begin_op();
        sharded_op(tally, tracer, set, text, key);
    }
    tracer.begin_op();
    let (fusion, pinpoint) = ops::baseline(tracer, set, text);
    tally.sample("baselines.pinpoint_check_s", pinpoint.as_secs_f64());
    tally.sample(
        "baselines.pinpoint_speedup",
        pinpoint.as_secs_f64() / fusion.as_secs_f64(),
    );
}

/// One pool subject: its source, its answer key, and for edit-rescan
/// the warm session the edits go to.
struct Subject {
    text: String,
    key: Key,
    session: Option<AnalysisSession>,
}

/// The seeds of a run's pool subjects, drawn from `--seed`.
fn pool_seeds(seed: u64, pool: usize) -> Vec<u64> {
    if pool == 1 {
        return vec![seed];
    }
    let mut rng = Rng::new(seed ^ 0x9001);
    (0..pool).map(|_| rng.next() >> 16).collect()
}

/// One set-up: the source and answer key of the subject drawn from
/// `seed`, and for edit-rescan the warm session the edits go to.
fn setup(w: Workload, seed: u64, set: &CheckerSet, t: &mut Tally) -> Subject {
    let (text, key, session) = match w {
        Workload::PaperScan => {
            let s = subjects::paper(seed, PAPER_SCALE);
            (s.text, Key::Seeded(s.key), None)
        }
        Workload::HotSinks => {
            let s = subjects::hot_sinks(seed, HOT_FUNCS, HOT_SINKS);
            let program = ops::compile(&Arc::new(Tracer::new(false)), None, &s.text);
            let errors = ops::replay_hot_witnesses(&program, &s.sinks) as u64;
            t.key_errors = t.key_errors.max(errors);
            (s.text, Key::Hot(s.sinks), None)
        }
        // Set-up is the source plus the initial cold scan of the session
        // the edits go to.
        Workload::EditRescan => {
            let s = subjects::multi(seed, MULTI_FUNCS);
            let before = reference_s();
            let (secs, session) =
                timed(|| ops::open_session(&Arc::new(Tracer::new(false)), set, &s.text));
            let reference = 0.5 * (before + reference_s());
            t.setup_scans.push(rescale(secs, reference));
            (s.text, Key::Seeded(s.key), Some(session))
        }
        Workload::ShardedScan => {
            let s = subjects::multi(seed, MULTI_FUNCS);
            (s.text, Key::Seeded(s.key), None)
        }
    };
    Subject { text, key, session }
}

fn run(args: &Args, tracer: &Arc<Tracer>) -> (Tally, String) {
    let set = CheckerSet::all();
    let w = args.workload;
    let mut tally = Tally::default();
    let seeds = pool_seeds(args.seed, w.pool());
    let mut pool: Vec<Subject> = seeds
        .iter()
        .map(|&seed| setup_rep(&mut tally, &mut |t| setup(w, seed, &set, t)))
        .collect();
    // Set-ups between operations go through the pool's seeds in turn.
    let mut next = 0;
    let mut again = |t: &mut Tally| {
        next = (next + 1) % seeds.len();
        drop(setup(w, seeds[next], &set, t));
    };
    let between = |t: &mut Tally| setup_between(t, &mut again);
    let mut text = pool[0].text.clone();
    match w {
        Workload::PaperScan | Workload::HotSinks => {
            timed_loop(
                &mut tally,
                tracer,
                args,
                pool.len(),
                |t, s| scan_op(t, tracer, &set, &pool[s].text, &pool[s].key),
                between,
            );
        }
        Workload::ShardedScan => {
            timed_loop(
                &mut tally,
                tracer,
                args,
                pool.len(),
                |t, s| sharded_op(t, tracer, &set, &pool[s].text, &pool[s].key),
                between,
            );
        }
        Workload::EditRescan => {
            let mut session = pool[0].session.take().expect("set-up opens the session");
            let key = &pool[0].key;
            let mut rng = Rng::new(args.seed ^ 0xED17);
            let mut edits = 0;
            let mut last = None;
            timed_loop(
                &mut tally,
                tracer,
                args,
                1,
                |t, _| {
                    edits += 1;
                    text = subjects::edit_one_function(&text, &mut rng, edits);
                    let (wall, keys) = rescan_op(t, tracer, &mut session, &text, key);
                    last = keys;
                    wall
                },
                between,
            );
            check_warm_equals_cold(&mut tally, &set, &text, last);
        }
    }
    while tally.setup.len() < SETUP_MIN_REPS {
        setup_rep(&mut tally, &mut again);
    }
    if args.trace {
        coverage(
            &mut tally,
            tracer,
            &set,
            &text,
            &pool[0].key,
            args.workload,
            args.seed,
        );
    }
    (tally, text)
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

/// Quantile `q` of the untraced operation walls, in ms.
fn op_ms(t: &Tally, q: f64) -> f64 {
    let mut ops = t.ops.clone();
    ops.sort_by(f64::total_cmp);
    quantile(&ops, q) * 1e3
}

/// Each untraced operation's wall, rescaled by the reference wall beside
/// it.
fn rescaled(t: &Tally) -> Vec<f64> {
    t.ops.iter().zip(&t.op_refs).map(|(&w, &r)| rescale(w, r)).collect()
}

fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::NAN, f64::min)
}

/// The metrics `BENCHMARK.json` names. The operation latency quantiles
/// are only printed: outside edit-rescan the median is `scan_s` again.
fn end_to_end(args: &Args, t: &Tally) -> Vec<Metric> {
    let scan_s = if args.workload == Workload::EditRescan {
        median(&t.setup_scans)
    } else {
        pooled_median(&rescaled(t), &t.op_subjects)
    };
    let metric = |name, unit, value| Metric { name, unit, value };
    vec![
        metric("setup_s", "s", fastest(&t.setup)),
        metric("scan_s", "s", scan_s),
        metric("peak_tracked_mib", "MiB", median(&t.peaks)),
        metric("rss_peak_mib", "MiB", rss_peak_mib()),
    ]
}

/// Every per-layer metric, in the order the table prints them.
const PER_LAYER: [(&str, &str); 44] = [
    ("ir.parse_s", "s"),
    ("ir.lower_s", "s"),
    ("ir.defs", "count"),
    ("pdg.build_s", "s"),
    ("pdg.vertices", "count"),
    ("pdg.edges", "count"),
    ("absint.compute_s", "s"),
    ("absint.triaged_candidates", "count"),
    ("compact.build_s", "s"),
    ("compact.vertices_pruned", "count"),
    ("compact.chains_collapsed", "count"),
    ("compact.iso_hits", "count"),
    ("propagate.discover_s", "s"),
    ("propagate.steps", "count"),
    ("propagate.candidates", "count"),
    ("engine.drive_s", "s"),
    ("engine.queries", "count"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.parallelism", "ratio"),
    ("graph_solver.check_s", "s"),
    ("graph_solver.query_ms_p50", "ms"),
    ("graph_solver.query_ms_p99", "ms"),
    ("graph_solver.preprocess_decided_ratio", "ratio"),
    ("graph_solver.sessions_opened", "count"),
    ("slice_cache.slice_s", "s"),
    ("slice_cache.computed", "count"),
    ("slice_cache.reused", "count"),
    ("smt.translate_s", "s"),
    ("smt.solve_s", "s"),
    ("smt.egraph_classes", "count"),
    ("smt.egraph_nodes_saved", "count"),
    ("incremental.rescan_s", "s"),
    ("incremental.functions_affected", "count"),
    ("incremental.candidates_reanalyzed", "count"),
    ("incremental.verdicts_retained_ratio", "ratio"),
    ("snapshot.write_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("partition.plan_s", "s"),
    ("shard.run_s", "s"),
    ("shard.merge_replay_s", "s"),
    ("shard.summaries_imported", "count"),
    ("baselines.pinpoint_check_s", "s"),
    ("baselines.pinpoint_speedup", "ratio"),
    ("trace.overhead_s", "s"),
];

/// Folds the recorded spans into per-layer samples: each span name's
/// summed duration per operation (`<name>_s`), plus the solver's share
/// of the driver's wall per traced scan.
fn per_layer(t: &mut Tally, spans: &[trace::Span]) -> Vec<Metric> {
    for (op, layers) in trace::per_op_totals(spans) {
        let coverage = t.coverage_from.is_some_and(|c| op >= c);
        for (name, secs) in &layers {
            t.sample_to(coverage, &format!("{name}_s"), *secs);
        }
        if let (Some(check), Some(drive)) =
            (layers.get("graph_solver.check"), layers.get("engine.drive"))
        {
            t.sample_to(coverage, "engine.parallelism", check / drive);
        }
    }
    if !t.traced_ops.is_empty() && !t.ops.is_empty() {
        let overhead = median(&t.traced_ops) - median(&t.ops);
        t.sample_to(false, "trace.overhead_s", overhead);
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: t
                .layers
                .get(name)
                .or_else(|| t.coverage.get(name))
                .map_or(f64::NAN, |v| median(v)),
        })
        .collect()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <paper-scan|hot-sinks|edit-rescan|sharded-scan> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let tracer = Arc::new(Tracer::new(args.trace));
    let (mut tally, text) = run(&args, &tracer);

    let mut report = String::new();
    let _ = writeln!(
        report,
        "e2ebench workload={} seed={} seconds={} trace={} threads={THREADS} \
         available_parallelism={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let _ = writeln!(
        report,
        "subjects: {} in the pool, the first {} lines, {} bytes; {} set-ups \
         (median {:.6} s), {} untraced + {} traced operations",
        args.workload.pool(),
        text.lines().count(),
        text.len(),
        tally.setup.len(),
        median(&tally.setup),
        tally.ops.len(),
        tally.traced_ops.len(),
    );
    let metrics = if args.trace {
        let spans = tracer.spans();
        let table = trace::self_time_table(&spans);
        let _ = writeln!(report, "per-layer self time:\n{table}");
        let out = std::path::Path::new("e2ebench").join("out");
        let stem = format!("{}-{}", args.workload.name(), args.seed);
        let written = std::fs::create_dir_all(&out)
            .and_then(|_| {
                std::fs::write(
                    out.join(format!("trace-{stem}.json")),
                    trace::trace_event_json(&spans),
                )
            })
            .and_then(|_| std::fs::write(out.join(format!("selftime-{stem}.txt")), &table));
        match written {
            Ok(()) => {
                let _ = writeln!(
                    report,
                    "wrote {}/{{trace,selftime}}-{stem}.*",
                    out.display()
                );
            }
            Err(e) => eprintln!("e2ebench: could not write trace files: {e}"),
        }
        per_layer(&mut tally, &spans)
    } else {
        end_to_end(&args, &tally)
    };
    for m in &metrics {
        let _ = writeln!(
            report,
            "{:<40} {:>16} {}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    if !args.trace {
        let walls: Vec<String> = tally
            .ops
            .iter()
            .zip(&tally.op_subjects)
            .map(|(w, s)| format!("{w:.4}@{s}"))
            .collect();
        let _ = writeln!(
            report,
            "operation walls (s@pool subject): {}",
            walls.join(" ")
        );
        let _ = writeln!(
            report,
            "{:<40} {:>16} s (pooled median wall, not rescaled)",
            "scan_wall_s",
            json_number(pooled_median(&tally.ops, &tally.op_subjects)),
        );
        let _ = writeln!(
            report,
            "{:<40} {:>16} s (median; scan_s scales to {REFERENCE_S} s)",
            "reference_s",
            json_number(median(&tally.op_refs)),
        );
        for (name, q) in [("op_ms_p50", 0.5), ("op_ms_p90", 0.9)] {
            let _ = writeln!(
                report,
                "{:<40} {:>16} ms ({} operations)",
                name,
                json_number(op_ms(&tally, q)),
                tally.ops.len()
            );
        }
    }
    let ratio = tally.failed as f64 / tally.attempted.max(1) as f64;
    let _ = writeln!(
        report,
        "{:<40} {:>16} count",
        "unknown_verdicts", tally.unknown
    );
    let _ = writeln!(
        report,
        "{:<40} {:>16} ratio ({} of {} operations)",
        "ops_failed_ratio", ratio, tally.failed, tally.attempted
    );
    if tally.key_errors > 0 {
        let _ = writeln!(
            report,
            "answer key: {} witnesses failed to replay",
            tally.key_errors
        );
    }
    print!("{report}");

    let correct = tally.failed == 0 && tally.unknown == 0 && tally.key_errors == 0;
    let mut json = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.attempted, tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            json.push_str(", ");
        }
        let _ = write!(
            json,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    if !correct {
        std::process::exit(1);
    }
}
