//! The span recorder of the traced run.
//!
//! A span is one call into a layer's public function, timed from the
//! benchmark: name, start, end, the span that caused it, the operation
//! it belongs to, and the recording thread. Spans stay in memory until
//! the run ends, then go out as trace-event JSON (loadable in any
//! Chrome-trace viewer) and as a per-layer self-time table. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Duration,
    pub dur: Duration,
    pub parent: Option<SpanId>,
    pub op: u64,
    pub tid: u64,
}

impl Span {
    fn end(&self) -> Duration {
        self.start + self.dur
    }
}

pub struct Tracer {
    enabled: AtomicBool,
    t0: Instant,
    op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

fn thread_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    thread_local! {
        static TAG: u64 = NEXT.fetch_add(1, Ordering::Relaxed);
    }
    TAG.with(|t| *t)
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled: AtomicBool::new(enabled),
            t0: Instant::now(),
            op: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off between operations (the traced run
    /// interleaves untraced operations to measure the tracing overhead).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Starts a new operation; later spans carry its id.
    pub fn begin_op(&self) {
        self.op.fetch_add(1, Ordering::Relaxed);
    }

    /// The id of the current operation.
    pub fn op(&self) -> u64 {
        self.op.load(Ordering::Relaxed)
    }

    /// Runs `f` inside a span named `name`; `f` gets the new span's id
    /// to parent its own children (`None` when not recording).
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        f: impl FnOnce(Option<SpanId>) -> R,
    ) -> R {
        if !self.enabled() {
            return f(None);
        }
        let start = Instant::now();
        let id = {
            let mut spans = self.spans.lock().expect("span lock");
            spans.push(Span {
                name,
                start: start - self.t0,
                dur: Duration::ZERO,
                parent,
                op: self.op(),
                tid: thread_tag(),
            });
            spans.len() - 1
        };
        let out = f(Some(id));
        let dur = start.elapsed();
        self.spans.lock().expect("span lock")[id].dur = dur;
        out
    }

    /// Records a finished span (for calls timed elsewhere, such as the
    /// engine wrapper's queries on solver threads).
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        start: Instant,
        dur: Duration,
    ) {
        if !self.enabled() {
            return;
        }
        let span = Span {
            name,
            start: start - self.t0,
            dur,
            parent,
            op: self.op(),
            tid: thread_tag(),
        };
        self.spans.lock().expect("span lock").push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span lock").clone()
    }
}

/// Self time of every span, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut iv: Vec<(Duration, Duration)> = children[i]
                .iter()
                .map(|&c| (spans[c].start.max(s.start), spans[c].end().min(s.end())))
                .filter(|(a, b)| a < b)
                .collect();
            iv.sort();
            let mut covered = Duration::ZERO;
            let mut cur: Option<(Duration, Duration)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur.saturating_sub(covered)
        })
        .collect()
}

/// Total duration of each span name within each operation:
/// `op → name → seconds`.
pub fn per_op_totals(spans: &[Span]) -> BTreeMap<u64, BTreeMap<&'static str, f64>> {
    let mut out: BTreeMap<u64, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for s in spans {
        *out.entry(s.op).or_default().entry(s.name).or_default() += s.dur.as_secs_f64();
    }
    out
}

/// The spans as Chrome trace-event JSON (`ph: "X"` complete events,
/// microsecond timestamps).
pub fn trace_event_json(spans: &[Span]) -> String {
    let mut s = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, sp) in spans.iter().enumerate() {
        if i > 0 {
            s.push_str(",\n");
        }
        let parent = sp.parent.map_or(-1, |p| p as i64);
        let _ = write!(
            s,
            "{{\"name\":\"{}\",\"cat\":\"layer\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
             \"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
            sp.name,
            sp.start.as_secs_f64() * 1e6,
            sp.dur.as_secs_f64() * 1e6,
            sp.tid,
            sp.op,
        );
    }
    s.push_str("\n]}\n");
    s
}

/// Per-layer self time, grouped by the kind of operation (the name of
/// the root span) each span ran under: `root → layer → (calls, total
/// seconds, self seconds)`, plus each root's summed duration.
pub type SelfTimes = BTreeMap<&'static str, (f64, BTreeMap<&'static str, (u64, f64, f64)>)>;

pub fn self_times_by_root(spans: &[Span]) -> SelfTimes {
    let selfs = self_times(spans);
    let root_of = |mut i: usize| {
        while let Some(p) = spans[i].parent {
            i = p;
        }
        spans[i].name
    };
    let mut out = SelfTimes::new();
    for (i, (s, own)) in spans.iter().zip(&selfs).enumerate() {
        let group = out.entry(root_of(i)).or_default();
        if s.parent.is_none() {
            group.0 += s.dur.as_secs_f64();
        }
        let row = group.1.entry(s.name).or_default();
        row.0 += 1;
        row.1 += s.dur.as_secs_f64();
        row.2 += own.as_secs_f64();
    }
    out
}

/// The self-time table: one section per operation kind, each layer's
/// self time also as a share of that kind's total duration.
pub fn self_time_table(spans: &[Span]) -> String {
    let mut out = String::new();
    for (root, (root_total, rows)) in self_times_by_root(spans) {
        let _ = writeln!(out, "[{root}] total {root_total:.6}s");
        let _ = writeln!(
            out,
            "  {:<28} {:>7} {:>11} {:>11} {:>7}",
            "layer", "calls", "total_s", "self_s", "self%"
        );
        let mut rows: Vec<_> = rows.into_iter().collect();
        rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
        for (name, (calls, total, own)) in rows {
            let share = 100.0 * own / root_total.max(f64::MIN_POSITIVE);
            let _ = writeln!(
                out,
                "  {name:<28} {calls:>7} {total:>11.6} {own:>11.6} {share:>6.2}%"
            );
        }
    }
    out
}
