//! Categorized memory accounting.
//!
//! The paper's evaluation is as much about *memory* as about time: Fig. 1(c)
//! shows path conditions taking ≥72% of a conventional analyzer's RSS, and
//! Tables 3–5 report per-run memory. Rather than sampling process RSS (noisy
//! and allocator-dependent), every analysis engine in this reproduction
//! charges an accountant for the bytes it *retains*, per category, and the
//! peak per category is what the benchmark harnesses report.

use std::fmt;

/// What a retained byte is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Category {
    /// Computed path conditions (formula nodes retained by an engine).
    PathConditions,
    /// Cached function summaries (Pinpoint-style `(π, tr, φ)` triples).
    Summaries,
    /// The program dependence graph / IR itself.
    Graph,
    /// Transient solver state (CNF, SAT solver).
    SolverState,
    /// The shared feasibility-verdict cache (see `crate::cache`).
    Cache,
}

/// All categories, for iteration.
pub const CATEGORIES: [Category; 5] = [
    Category::PathConditions,
    Category::Summaries,
    Category::Graph,
    Category::SolverState,
    Category::Cache,
];

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Category::PathConditions => "path-conditions",
            Category::Summaries => "summaries",
            Category::Graph => "graph",
            Category::SolverState => "solver-state",
            Category::Cache => "cache",
        };
        f.write_str(s)
    }
}

/// Approximate bytes per hash-consed term node (kind + sort + consing
/// entry); used to convert node counts to bytes uniformly across engines.
pub const BYTES_PER_TERM_NODE: u64 = 48;

/// Approximate bytes per IR definition (kind + guard + name + adjacency).
pub const BYTES_PER_DEF: u64 = 64;

/// Tracks current and peak retained bytes per category.
#[derive(Debug, Clone, Default)]
pub struct MemoryAccountant {
    current: [u64; CATEGORIES.len()],
    peak: [u64; CATEGORIES.len()],
}

impl MemoryAccountant {
    /// A fresh accountant with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    fn idx(cat: Category) -> usize {
        CATEGORIES
            .iter()
            .position(|c| *c == cat)
            .expect("category listed")
    }

    /// Records `bytes` newly retained in `cat`.
    pub fn charge(&mut self, cat: Category, bytes: u64) {
        let i = Self::idx(cat);
        self.current[i] += bytes;
        if self.current[i] > self.peak[i] {
            self.peak[i] = self.current[i];
        }
    }

    /// Records `bytes` released from `cat` (saturating).
    pub fn release(&mut self, cat: Category, bytes: u64) {
        let i = Self::idx(cat);
        self.current[i] = self.current[i].saturating_sub(bytes);
    }

    /// Sets the current retained amount of `cat` absolutely (for counters
    /// observed from outside, e.g. a term pool's node count).
    pub fn set(&mut self, cat: Category, bytes: u64) {
        let i = Self::idx(cat);
        self.current[i] = bytes;
        if bytes > self.peak[i] {
            self.peak[i] = bytes;
        }
    }

    /// Currently retained bytes in `cat`.
    pub fn current(&self, cat: Category) -> u64 {
        self.current[Self::idx(cat)]
    }

    /// Peak retained bytes in `cat`.
    pub fn peak(&self, cat: Category) -> u64 {
        self.peak[Self::idx(cat)]
    }

    /// Peak of the sum across categories observed so far (conservative:
    /// sums per-category peaks, an upper bound on the true joint peak).
    pub fn peak_total(&self) -> u64 {
        self.peak.iter().sum()
    }

    /// Share of the peak total attributed to `cat`, in `[0, 1]`.
    pub fn peak_share(&self, cat: Category) -> f64 {
        let total = self.peak_total();
        if total == 0 {
            0.0
        } else {
            self.peak(cat) as f64 / total as f64
        }
    }

    /// Merges another accountant's peaks (e.g. from a sub-run).
    pub fn absorb(&mut self, other: &MemoryAccountant) {
        for (i, _) in CATEGORIES.iter().enumerate() {
            self.peak[i] = self.peak[i].max(other.peak[i]);
            self.current[i] += other.current[i];
        }
    }

    /// Adds another accountant that was live *concurrently* with this one
    /// (e.g. a parallel worker's engine): both currents and peaks sum,
    /// because the two retained their memory at the same time.
    pub fn add_concurrent(&mut self, other: &MemoryAccountant) {
        for (i, _) in CATEGORIES.iter().enumerate() {
            self.peak[i] += other.peak[i];
            self.current[i] += other.current[i];
        }
    }
}

/// The single accounting path every analysis run goes through, inline or
/// threaded: sum the engine accountants that were live concurrently (one
/// for an inline run, one per worker for a threaded run), then charge the
/// structures retained for the whole run — the PDG/IR under
/// [`Category::Graph`] and the shared verdict cache under
/// [`Category::Cache`] — into both current and peak, since they coexist
/// with every engine's peak.
///
/// One function for every run keeps inline and threaded peak numbers
/// directly comparable: a 1-thread run reports exactly the same peak as
/// a run on a borrowed engine of the same kind.
///
/// Fused multi-client runs also route through here, so a
/// `--checker all` scan reports one *true whole-scan peak* — every
/// engine accountant that was live during the single fused pass, plus
/// the graph and caches charged once — rather than the max over three
/// independent per-checker passes (which would under-count nothing but
/// also share nothing).
pub fn run_accounting<'a>(
    engines: impl IntoIterator<Item = &'a MemoryAccountant>,
    graph_bytes: u64,
    cache_bytes: u64,
) -> MemoryAccountant {
    let mut acct = MemoryAccountant::new();
    for engine in engines {
        acct.add_concurrent(engine);
    }
    let gi = MemoryAccountant::idx(Category::Graph);
    acct.current[gi] += graph_bytes;
    acct.peak[gi] += graph_bytes;
    let ci = MemoryAccountant::idx(Category::Cache);
    acct.current[ci] += cache_bytes;
    acct.peak[ci] += cache_bytes;
    acct
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_release_tracks_peak() {
        let mut m = MemoryAccountant::new();
        m.charge(Category::PathConditions, 100);
        m.charge(Category::PathConditions, 50);
        m.release(Category::PathConditions, 120);
        assert_eq!(m.current(Category::PathConditions), 30);
        assert_eq!(m.peak(Category::PathConditions), 150);
    }

    #[test]
    fn set_updates_peak() {
        let mut m = MemoryAccountant::new();
        m.set(Category::SolverState, 10);
        m.set(Category::SolverState, 500);
        m.set(Category::SolverState, 5);
        assert_eq!(m.current(Category::SolverState), 5);
        assert_eq!(m.peak(Category::SolverState), 500);
    }

    #[test]
    fn shares_sum_to_one() {
        let mut m = MemoryAccountant::new();
        m.charge(Category::PathConditions, 720);
        m.charge(Category::Graph, 280);
        let s: f64 = CATEGORIES.iter().map(|&c| m.peak_share(c)).sum();
        assert!((s - 1.0).abs() < 1e-9);
        assert!((m.peak_share(Category::PathConditions) - 0.72).abs() < 1e-9);
    }

    #[test]
    fn release_saturates() {
        let mut m = MemoryAccountant::new();
        m.charge(Category::Summaries, 10);
        m.release(Category::Summaries, 100);
        assert_eq!(m.current(Category::Summaries), 0);
    }

    #[test]
    fn run_accounting_one_engine_equals_engine_plus_shared() {
        // One engine (an inline run, on a borrowed or factory-built engine):
        // the run's peak is exactly the engine's peak plus the structures
        // retained for the whole run.
        let mut e = MemoryAccountant::new();
        e.charge(Category::SolverState, 100);
        e.release(Category::SolverState, 100);
        e.charge(Category::Summaries, 40);
        let run = run_accounting(std::iter::once(&e), 1000, 64);
        assert_eq!(run.peak_total(), e.peak_total() + 1000 + 64);
        assert_eq!(run.peak(Category::Graph), 1000);
        assert_eq!(run.peak(Category::Cache), 64);
        assert_eq!(run.current(Category::Cache), 64);
    }

    #[test]
    fn run_accounting_sums_concurrent_workers() {
        // N workers live at once: their peaks sum; the graph and cache are
        // charged once, not per worker.
        let mut w1 = MemoryAccountant::new();
        w1.charge(Category::SolverState, 70);
        let mut w2 = MemoryAccountant::new();
        w2.charge(Category::SolverState, 30);
        let run = run_accounting([&w1, &w2], 500, 16);
        assert_eq!(run.peak(Category::SolverState), 100);
        assert_eq!(run.peak(Category::Graph), 500);
        assert_eq!(run.peak(Category::Cache), 16);
        assert_eq!(run.peak_total(), 100 + 500 + 16);
    }
}
