//! # fusion-crit
//!
//! A minimal stand-in for the parts of the `criterion` crate this
//! workspace uses. The workspace renames this crate to `criterion` (see
//! the root `Cargo.toml`), so bench files keep the idiomatic
//! `use criterion::{criterion_group, criterion_main, Criterion};` while
//! building in an environment with no registry access.
//!
//! The harness is deliberately simple: each benchmark is timed with a
//! fixed number of wall-clock samples (default 20, see
//! [`BenchmarkGroup::sample_size`]) after a warm-up run, and the median,
//! minimum, and maximum per-iteration times are printed. There is no
//! statistical regression analysis. Benches honor the standard
//! `--bench` / `--test` harness flags enough for `cargo bench` and
//! `cargo test --benches` to run them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::time::{Duration, Instant};

/// Formats a per-iteration duration with an adaptive unit.
fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.3} s", ns as f64 / 1e9)
    }
}

/// Opaque benchmark identifier (`BenchmarkId::from_parameter(...)`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// Build an id whose display form is the parameter itself.
    pub fn from_parameter(param: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: param.to_string(),
        }
    }

    /// Build an id from a function name and a parameter.
    pub fn new(function: impl Into<String>, param: impl std::fmt::Display) -> Self {
        BenchmarkId {
            name: format!("{}/{}", function.into(), param),
        }
    }
}

/// Anything acceptable as a benchmark name.
pub trait IntoBenchmarkId {
    /// Render the display name.
    fn into_name(self) -> String;
}

impl IntoBenchmarkId for &str {
    fn into_name(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_name(self) -> String {
        self
    }
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_name(self) -> String {
        self.name
    }
}

/// The per-benchmark timing loop handle.
pub struct Bencher {
    samples: usize,
    /// Collected per-sample durations (one closure call per sample).
    results: Vec<Duration>,
}

impl Bencher {
    /// Time `routine`: one warm-up call, then `samples` timed calls.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up (also primes caches/allocator).
        let _ = routine();
        for _ in 0..self.samples {
            let start = Instant::now();
            let out = routine();
            self.results.push(start.elapsed());
            drop(out);
        }
    }
}

fn run_one(name: &str, samples: usize, f: impl FnOnce(&mut Bencher)) {
    let mut b = Bencher {
        samples,
        results: Vec::with_capacity(samples),
    };
    f(&mut b);
    if b.results.is_empty() {
        println!("{name:<40} (no samples)");
        return;
    }
    b.results.sort();
    let median = b.results[b.results.len() / 2];
    let min = b.results[0];
    let max = b.results[b.results.len() - 1];
    println!(
        "{name:<40} median {:>12}   min {:>12}   max {:>12}   ({} samples)",
        fmt_duration(median),
        fmt_duration(min),
        fmt_duration(max),
        b.results.len()
    );
}

/// A named group of benchmarks sharing a sample size.
pub struct BenchmarkGroup<'c> {
    name: String,
    samples: usize,
    criterion: &'c Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Run a benchmark in this group.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into_name());
        if self.criterion.matches(&label) {
            run_one(&label, self.effective_samples(), f);
        }
        self
    }

    /// Run a benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        f: F,
    ) -> &mut Self
    where
        F: FnOnce(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.into_name());
        if self.criterion.matches(&label) {
            run_one(&label, self.effective_samples(), |b| f(b, input));
        }
        self
    }

    /// Finish the group (upstream flushes reports here; we print a blank line).
    pub fn finish(&mut self) {
        println!();
    }

    fn effective_samples(&self) -> usize {
        if self.criterion.quick {
            1
        } else {
            self.samples
        }
    }
}

/// The top-level harness handle.
pub struct Criterion {
    filter: Option<String>,
    /// Smoke mode: one sample per bench (used when running under
    /// `cargo test --benches`).
    quick: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        // Parse the arguments cargo's bench/test harness protocol passes.
        // `cargo bench -- <filter>` → time normally, restricted to matches.
        // `cargo test --benches` passes `--test` (smoke mode: 1 sample).
        let mut filter = None;
        let mut quick = false;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => quick = true,
                "--bench" => {}
                s if s.starts_with("--") => {}
                s => filter = Some(s.to_string()),
            }
        }
        Criterion { filter, quick }
    }
}

impl Criterion {
    /// Start a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            samples: 20,
            criterion: self,
        }
    }

    /// Run a standalone benchmark.
    pub fn bench_function<F>(&mut self, id: impl IntoBenchmarkId, f: F) -> &mut Self
    where
        F: FnOnce(&mut Bencher),
    {
        let label = id.into_name();
        if self.matches(&label) {
            let samples = if self.quick { 1 } else { 20 };
            run_one(&label, samples, f);
        }
        self
    }

    fn matches(&self, label: &str) -> bool {
        self.filter.as_deref().is_none_or(|f| label.contains(f))
    }
}

/// An opaque value the optimizer is prevented from reasoning about.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Declare a group of benchmark functions, mirroring upstream.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declare the bench entry point, mirroring upstream.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_collects_requested_samples() {
        let mut b = Bencher {
            samples: 5,
            results: Vec::new(),
        };
        let mut calls = 0u32;
        b.iter(|| calls += 1);
        assert_eq!(b.results.len(), 5);
        assert_eq!(calls, 6, "warm-up plus five timed samples");
    }

    #[test]
    fn group_runs_and_respects_sample_size() {
        let mut c = Criterion {
            filter: None,
            quick: false,
        };
        let mut group = c.benchmark_group("g");
        group.sample_size(3);
        let mut calls = 0u32;
        group.bench_function("inner", |b| b.iter(|| calls += 1));
        group.finish();
        assert_eq!(calls, 4, "warm-up plus three samples");
    }

    #[test]
    fn filter_skips_non_matching_benchmarks() {
        let mut c = Criterion {
            filter: Some("wanted".into()),
            quick: false,
        };
        let mut ran = false;
        c.bench_function("other", |b| {
            ran = true;
            b.iter(|| ());
        });
        assert!(!ran);
        c.bench_function("wanted/case", |b| b.iter(|| ran = true));
        assert!(ran);
    }

    #[test]
    fn ids_render_names() {
        assert_eq!(BenchmarkId::from_parameter("gcc").into_name(), "gcc");
        assert_eq!(BenchmarkId::new("compile", 3).into_name(), "compile/3");
    }
}
