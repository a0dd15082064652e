//! The analysis driver: propagate facts sparsely, then decide feasibility.
//!
//! This is the outer loop of Algorithm 5: sparse propagation collects Π
//! (with **no** conditions), and a pluggable [`FeasibilityEngine`] answers
//! `ir_based_smt_solve(Π)`. Engines implement the fused designs of this
//! crate or the conventional baselines of `fusion-baselines`; the driver,
//! reports and accounting are shared so comparisons are apples-to-apples.

use crate::absint::ProgramFacts;
use crate::cache::{path_set_key, CacheStats, Key128, VerdictCache};
use crate::checkers::{CheckKind, Checker, CheckerId, CheckerSet};
use crate::compact::CompactPdg;
use crate::memory::{run_accounting, Category, MemoryAccountant, BYTES_PER_DEF};
use crate::propagate::{
    discover_source_for_compact, multi_source_vertices, Candidate, PropagateOptions,
};
use crate::slice_cache::{SliceCache, SliceCacheStats};
use crate::stream::{BoundedQueue, CloseGuard};
use fusion_ir::ssa::Program;
use fusion_pdg::graph::{Pdg, Vertex};
use fusion_pdg::paths::DependencePath;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The verdict on one path set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Feasibility {
    /// Some execution takes the paths: a real flow.
    Feasible,
    /// No execution can take the paths.
    Infeasible,
    /// Budget exhausted before a verdict.
    Unknown,
}

/// Everything a feasibility query reports back.
#[derive(Debug, Clone, Copy)]
pub struct CheckOutcome {
    /// The verdict.
    pub feasibility: Feasibility,
    /// Wall-clock time of the query.
    pub duration: Duration,
    /// DAG node count of the condition the engine built (0 if none).
    pub condition_nodes: u64,
    /// `(context, function)` clones materialized.
    pub instances: usize,
    /// Whether preprocessing alone decided the query.
    pub preprocess_decided: bool,
}

/// A per-query record kept for the Fig. 11 scatter plot.
#[derive(Debug, Clone, Copy)]
pub struct SolveRecord {
    /// The verdict.
    pub feasibility: Feasibility,
    /// Query duration.
    pub duration: Duration,
    /// Whether preprocessing decided it.
    pub preprocess_decided: bool,
    /// Condition size (DAG nodes).
    pub condition_nodes: u64,
}

impl SolveRecord {
    /// Extracts the record from an outcome.
    pub fn from_outcome(o: &CheckOutcome) -> SolveRecord {
        SolveRecord {
            feasibility: o.feasibility,
            duration: o.duration,
            preprocess_decided: o.preprocess_decided,
            condition_nodes: o.condition_nodes,
        }
    }
}

/// A path-feasibility decision procedure — the pluggable half of the fused
/// design. Implementations must not require the caller to compute any
/// condition: they receive the dependence paths and the graph only.
pub trait FeasibilityEngine {
    /// A short identifier for tables.
    fn name(&self) -> &'static str;

    /// Decides whether the conjunction of the given paths' conditions is
    /// satisfiable (`⋀_{π ∈ Π} φ_π` of Algorithm 2).
    fn check_paths(
        &mut self,
        program: &Program,
        pdg: &Pdg,
        paths: &[DependencePath],
    ) -> CheckOutcome;

    /// Announces a *slice-group* boundary: the driver is about to issue a
    /// batch of related queries (same sink function, key `group`). Engines
    /// that retain per-epoch state (pools, sessions) may use this point to
    /// bound it; verdicts must not depend on where boundaries fall. The
    /// default does nothing.
    fn begin_group(&mut self, _group: u64) {}

    /// Announces that the next queries are the **alternative paths of one
    /// candidate** with canonical content key `key` and full path set
    /// `paths`. Engines may use this to compute the backward closure
    /// *once* for the union of the paths and reuse it for every
    /// alternative (the closure of a superset contains every definitional
    /// equation a subset needs, and extra definitional equations over
    /// acyclic SSA never change satisfiability — constraints are only
    /// asserted for the queried path). Valid until the next
    /// `begin_candidate` or `begin_group`. The default does nothing,
    /// which is what keeps the conventional baselines
    /// (`UnoptimizedGraphSolver`, Pinpoint, AR) faithful to the paper's
    /// per-query slicing: they bypass both the per-candidate reuse and
    /// the [`SliceCache`].
    fn begin_candidate(
        &mut self,
        _program: &Program,
        _pdg: &Pdg,
        _key: Key128,
        _paths: &[DependencePath],
    ) {
    }

    /// Hands the engine a shared slice-closure memo. Engines that slice
    /// per query may consult it; the default ignores it (baselines
    /// bypass the cache so their numbers stay faithful to the
    /// conventional design).
    fn attach_slice_cache(&mut self, _cache: Arc<SliceCache>) {}

    /// Hands the engine the program's abstract-interpretation facts
    /// ([`crate::absint::ProgramFacts`]), memoized once per function.
    /// Engines may use them to *seed* formula preprocessing (known-bits
    /// facts fire on first contact instead of being rediscovered per
    /// instance) — a refute-only optimization that never changes which
    /// candidates are reported. The default ignores them (baselines stay
    /// faithful to the conventional design).
    fn attach_absint(&mut self, _facts: Arc<crate::absint::ProgramFacts>) {}

    /// Cumulative per-stage wall/counter totals over the engine's
    /// lifetime (monotonic). The default reports zeros for engines that
    /// do not instrument their stages.
    fn stage_totals(&self) -> EngineStages {
        EngineStages::default()
    }

    /// The engine's memory accountant.
    fn memory(&self) -> &MemoryAccountant;

    /// Per-query records collected so far.
    fn records(&self) -> &[SolveRecord];
}

/// Cumulative stage totals an instrumented engine reports via
/// [`FeasibilityEngine::stage_totals`]: how query wall-time splits into
/// slicing, translation (term/clause building), and solving, plus how
/// often a slice closure was computed from scratch versus reused (from
/// the per-candidate union or the shared [`SliceCache`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStages {
    /// Wall-time spent computing slice closures and constraints.
    pub slice_wall: Duration,
    /// Wall-time spent building terms/instances from the slice.
    pub translate_wall: Duration,
    /// Wall-time spent deciding satisfiability.
    pub solve_wall: Duration,
    /// Closures computed from scratch.
    pub slices_computed: u64,
    /// Closures served by per-candidate reuse or the shared memo.
    pub slices_reused: u64,
    /// Incremental solver sessions opened (0 for engines that solve
    /// cold). The multi-client bench uses this to show that queries from
    /// different checkers landing on the same sink share one session.
    pub sessions_opened: u64,
    /// Assembled queries the engine refuted by *seeded* known-bits
    /// preprocessing (abstract program facts attached via
    /// [`FeasibilityEngine::attach_absint`]) before opening a session or
    /// bit-blasting anything.
    pub absint_refutes: u64,
    /// E-classes built by equality-saturation simplification of local
    /// conditions, summed across passes.
    pub egraph_classes: u64,
    /// Rewrites (rule-driven e-class unions) applied by the e-graph.
    pub egraph_rewrites: u64,
    /// E-graph passes that reached saturation (a change-free iteration)
    /// within budget.
    pub egraph_saturated: u64,
    /// E-graph passes abandoned by the e-node/rebuild caps (the input
    /// term was used unchanged).
    pub egraph_cap_hits: u64,
    /// Term-DAG nodes removed by cost-based extraction (input minus
    /// extracted size, summed; the extracted-term delta).
    pub egraph_nodes_saved: u64,
}

impl EngineStages {
    /// Sums another engine's totals into this one.
    pub fn add(&mut self, other: &EngineStages) {
        self.slice_wall += other.slice_wall;
        self.translate_wall += other.translate_wall;
        self.solve_wall += other.solve_wall;
        self.slices_computed += other.slices_computed;
        self.slices_reused += other.slices_reused;
        self.sessions_opened += other.sessions_opened;
        self.absint_refutes += other.absint_refutes;
        self.egraph_classes += other.egraph_classes;
        self.egraph_rewrites += other.egraph_rewrites;
        self.egraph_saturated += other.egraph_saturated;
        self.egraph_cap_hits += other.egraph_cap_hits;
        self.egraph_nodes_saved += other.egraph_nodes_saved;
    }

    /// Deltas relative to an `earlier` snapshot of the same engine.
    pub fn since(&self, earlier: &EngineStages) -> EngineStages {
        EngineStages {
            slice_wall: self.slice_wall.saturating_sub(earlier.slice_wall),
            translate_wall: self.translate_wall.saturating_sub(earlier.translate_wall),
            solve_wall: self.solve_wall.saturating_sub(earlier.solve_wall),
            slices_computed: self.slices_computed - earlier.slices_computed,
            slices_reused: self.slices_reused - earlier.slices_reused,
            sessions_opened: self.sessions_opened - earlier.sessions_opened,
            absint_refutes: self.absint_refutes - earlier.absint_refutes,
            egraph_classes: self.egraph_classes - earlier.egraph_classes,
            egraph_rewrites: self.egraph_rewrites - earlier.egraph_rewrites,
            egraph_saturated: self.egraph_saturated - earlier.egraph_saturated,
            egraph_cap_hits: self.egraph_cap_hits - earlier.egraph_cap_hits,
            egraph_nodes_saved: self.egraph_nodes_saved - earlier.egraph_nodes_saved,
        }
    }

    /// Sums one e-graph pass's counters into the engine totals.
    pub fn absorb_egraph(&mut self, eg: &fusion_smt::egraph::EGraphStats) {
        self.egraph_classes += eg.classes;
        self.egraph_rewrites += eg.rewrites;
        self.egraph_saturated += eg.saturated;
        self.egraph_cap_hits += eg.cap_hits;
        self.egraph_nodes_saved += eg.nodes_saved();
    }
}

/// Per-stage wall/counter breakdown of one analysis run
/// (discover → slice → translate → solve), surfaced by the CLI's
/// `--stats`/`--json`. Engine stage walls are summed across workers in
/// parallel runs (CPU-time-like); `discover_wall` is the wall-clock
/// span of the discovery stage.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageStats {
    /// Wall-clock span of the discovery stage, compaction included. At
    /// more than one thread this overlaps the solve stage; inline it is
    /// the summed per-item discovery wall.
    pub discover_wall: Duration,
    /// Total DFS steps taken by discovery.
    pub discovery_steps: u64,
    /// Discovery producer count (1 for an inline run).
    pub discovery_shards: usize,
    /// Engine time computing slice closures/constraints (summed over
    /// workers).
    pub slice_wall: Duration,
    /// Engine time building terms/instances (summed over workers).
    pub translate_wall: Duration,
    /// Engine time deciding satisfiability (summed over workers).
    pub solve_wall: Duration,
    /// Slice closures computed from scratch.
    pub slices_computed: u64,
    /// Slice closures reused (per-candidate union or shared memo).
    pub slices_reused: u64,
    /// Incremental solver sessions opened across all workers.
    pub sessions_opened: u64,
    /// Candidates whose *every* path was refuted by abstract-interpretation
    /// triage: suppressed with zero cache, slice, or solver work.
    pub triaged_candidates: u64,
    /// Individual dependence paths refuted by abstract-interpretation
    /// triage before any cache lookup or engine query.
    pub triaged_paths: u64,
    /// Sink groups that issued no engine query because triage refuted
    /// paths in them — each is an incremental session the run never had to
    /// open.
    pub sessions_skipped: u64,
    /// Union slice closures never computed because the whole candidate was
    /// triaged away (one per fully-triaged candidate).
    pub slices_skipped: u64,
    /// Assembled queries the engines refuted by seeded known-bits
    /// preprocessing (solver-side absint seeding, distinct from the
    /// driver-side path triage above).
    pub absint_refutes: u64,
    /// Vertices removed by the compaction pass's frontier reachability
    /// pruning, summed per checker (zero when compaction is off).
    pub vertices_pruned: u64,
    /// Checker-taken PDG edges with a pruned endpoint, summed per checker.
    pub edges_pruned: u64,
    /// Single-entry/single-exit summary corridors collapsed into
    /// composite chains, summed per checker.
    pub chains_collapsed: u64,
    /// Solver queries answered by the compaction pass's isomorphic-
    /// fragment verdict memo instead of the engine (after an exact-key
    /// cache miss).
    pub iso_hits: u64,
    /// E-classes built by equality-saturation simplification of local
    /// conditions (zero when the e-graph leg is disabled).
    pub egraph_classes: u64,
    /// Rewrites (rule-driven e-class unions) applied by the e-graph.
    pub egraph_rewrites: u64,
    /// E-graph passes that saturated (reached a change-free iteration)
    /// within budget.
    pub egraph_saturated: u64,
    /// E-graph passes abandoned by the e-node/rebuild caps.
    pub egraph_cap_hits: u64,
    /// Term-DAG nodes removed by cost-based extraction (the
    /// extracted-term delta).
    pub egraph_nodes_saved: u64,
    /// Functions whose memoized absint facts a warm session run evicted
    /// (zero outside incremental re-analysis).
    pub facts_invalidated: u64,
    /// Slice closures a warm session run evicted because their function
    /// span intersected the edit's affected set.
    pub slices_invalidated: u64,
    /// Cached path verdicts a warm session run evicted via recorded
    /// `path_set_key → functions` provenance.
    pub verdicts_invalidated: u64,
    /// Candidates actually re-discovered and re-solved by a session run
    /// (retained work items replay without touching the engine); zero
    /// for every run outside the warm analysis service and the shards.
    pub candidates_reanalyzed: u64,
    /// Call-graph shards a partitioned scan ran (zero for unsharded).
    pub shards: u64,
    /// Function summaries (absint facts + return summary) exported by
    /// shards for their owned functions.
    pub summaries_exported: u64,
    /// Function summaries imported by shards for closure functions they
    /// analyze but don't own — demand-driven, so across any one shard
    /// this stays below the total function count.
    pub summaries_imported: u64,
    /// Snapshot-container bytes written by a partitioned scan or a serve
    /// `save`.
    pub snapshot_bytes_written: u64,
    /// Snapshot-container bytes read (lazily, per section) by shard
    /// workers or a serve `load`.
    pub snapshot_bytes_read: u64,
}

impl StageStats {
    fn add_engine(&mut self, e: &EngineStages) {
        self.slice_wall += e.slice_wall;
        self.translate_wall += e.translate_wall;
        self.solve_wall += e.solve_wall;
        self.slices_computed += e.slices_computed;
        self.slices_reused += e.slices_reused;
        self.sessions_opened += e.sessions_opened;
        self.absint_refutes += e.absint_refutes;
        self.egraph_classes += e.egraph_classes;
        self.egraph_rewrites += e.egraph_rewrites;
        self.egraph_saturated += e.egraph_saturated;
        self.egraph_cap_hits += e.egraph_cap_hits;
        self.egraph_nodes_saved += e.egraph_nodes_saved;
    }
}

/// One reported bug.
#[derive(Debug, Clone)]
pub struct BugReport {
    /// The fact's origin.
    pub source: Vertex,
    /// The sink statement.
    pub sink: Vertex,
    /// The verdict that triggered the report ([`Feasibility::Feasible`] or,
    /// conservatively, [`Feasibility::Unknown`]).
    pub verdict: Feasibility,
    /// The witnessing (or undecided) path.
    pub path: DependencePath,
}

/// Aggregate results of one analysis run.
#[derive(Debug, Clone)]
pub struct AnalysisRun {
    /// Engine name. Runs on a borrowed engine use the engine's own name;
    /// factory-built runs keep it and suffix the thread count (e.g.
    /// `"fusion×4"`).
    pub engine: String,
    /// Bug reports (feasible or undecided candidates).
    pub reports: Vec<BugReport>,
    /// Candidates whose every path was proven infeasible.
    pub suppressed: usize,
    /// Total candidates discovered by propagation.
    pub candidates: usize,
    /// Feasibility queries actually issued to an engine (cache hits are
    /// counted in [`AnalysisRun::cache`], not here).
    pub queries: usize,
    /// Wall-clock duration: propagation phase.
    pub propagate_time: Duration,
    /// Wall-clock duration: solving phase.
    pub solve_time: Duration,
    /// Peak tracked memory, bytes (all categories).
    pub peak_memory: u64,
    /// Verdict-cache traffic attributable to this run (all zeros when the
    /// run was uncached).
    pub cache: CacheStats,
    /// Slice-closure memo traffic attributable to this run (all zeros
    /// when no [`SliceCache`] was configured).
    pub slice: SliceCacheStats,
    /// Per-stage wall/counter breakdown (discover/slice/translate/solve).
    pub stages: StageStats,
}

impl AnalysisRun {
    /// Total wall-clock time. `solve_time` is defined as `run wall −
    /// discovery span` (the two overlap at more than one thread), so this
    /// is the true end-to-end wall at any thread count.
    pub fn total_time(&self) -> Duration {
        self.propagate_time + self.solve_time
    }
}

/// One checker's share of a fused multi-client run: its reports (in the
/// exact order a single-checker run would produce them) and its solve-side
/// tallies. Stage *walls* other than `solve_wall` are whole-run quantities
/// and live on [`MultiAnalysisRun::stages`]; everything here is
/// attributable per candidate (candidates carry their [`CheckerId`]).
#[derive(Debug, Clone)]
pub struct CheckerBreakdown {
    /// The client's bug class.
    pub kind: CheckKind,
    /// Bug reports for this checker, in canonical candidate order.
    pub reports: Vec<BugReport>,
    /// This checker's candidates whose every path was proven infeasible.
    pub suppressed: usize,
    /// Candidates discovered for this checker.
    pub candidates: usize,
    /// Feasibility queries issued to an engine for this checker's
    /// candidates (verdict-cache hits excluded).
    pub queries: usize,
    /// Verdict-cache hits while deciding this checker's candidates.
    pub cache_hits: u64,
    /// Verdict-cache misses while deciding this checker's candidates.
    pub cache_misses: u64,
    /// DFS steps the fused discovery spent on this checker's sources.
    pub discovery_steps: u64,
    /// Engine wall-time spent answering this checker's queries (summed
    /// over workers).
    pub solve_wall: Duration,
}

/// Aggregate results of one **fused multi-client run**: every checker in
/// the [`CheckerSet`] analyzed in a single pass over the shared PDG — one
/// discovery traversal, one set of sink groups (keyed on the sink function
/// only, so queries from different checkers share solver sessions and
/// slice closures), and **one true whole-scan memory peak** instead of a
/// max over per-checker passes.
#[derive(Debug, Clone)]
pub struct MultiAnalysisRun {
    /// Engine name (same convention as [`AnalysisRun::engine`]).
    pub engine: String,
    /// Per-checker breakdowns, in [`CheckerSet`] order.
    pub checkers: Vec<CheckerBreakdown>,
    /// Total candidates across all checkers.
    pub candidates: usize,
    /// Total engine queries across all checkers.
    pub queries: usize,
    /// Wall-clock duration: propagation phase (all checkers fused).
    pub propagate_time: Duration,
    /// Wall-clock duration: solving phase (all checkers fused).
    pub solve_time: Duration,
    /// Peak tracked memory of the whole fused scan, bytes.
    pub peak_memory: u64,
    /// Verdict-cache traffic attributable to this run.
    pub cache: CacheStats,
    /// Slice-memo traffic attributable to this run.
    pub slice: SliceCacheStats,
    /// Whole-run per-stage breakdown (checker-attributable counters are
    /// on the [`CheckerBreakdown`]s).
    pub stages: StageStats,
}

impl MultiAnalysisRun {
    /// Total wall-clock time (same semantics as
    /// [`AnalysisRun::total_time`]).
    pub fn total_time(&self) -> Duration {
        self.propagate_time + self.solve_time
    }

    /// All reports across checkers, in checker-major canonical order.
    pub fn all_reports(&self) -> impl Iterator<Item = &BugReport> {
        self.checkers.iter().flat_map(|b| b.reports.iter())
    }

    /// Flattens into a single-checker [`AnalysisRun`] — exact for the
    /// singleton set [`analyze`] uses; for larger sets the reports
    /// concatenate in checker order and `suppressed` sums.
    pub fn into_single(self) -> AnalysisRun {
        let mut reports = Vec::new();
        let mut suppressed = 0usize;
        for b in self.checkers {
            reports.extend(b.reports);
            suppressed += b.suppressed;
        }
        AnalysisRun {
            engine: self.engine,
            reports,
            suppressed,
            candidates: self.candidates,
            queries: self.queries,
            propagate_time: self.propagate_time,
            solve_time: self.solve_time,
            peak_memory: self.peak_memory,
            cache: self.cache,
            slice: self.slice,
            stages: self.stages,
        }
    }
}

/// Configuration of the analysis driver ([`analyze`],
/// [`analyze_multi_with_cache`], [`analyze_multi_streaming_with_cache`]).
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Propagation limits.
    pub propagate: PropagateOptions,
    /// Whether [`analyze`] memoizes path verdicts in a run-local
    /// [`VerdictCache`] (on by default). The `*_with_cache` entry points
    /// take the cache explicitly instead, so one cache can be shared
    /// across runs or checkers.
    pub use_cache: bool,
    /// Shared slice-closure memo handed to engines that support it (the
    /// `FusionSolver`; baselines bypass it). `Some` by default with a
    /// run-local cache; pass a shared `Arc` to memoize closures across
    /// runs, checkers, and engines, or `None` to disable memoization
    /// entirely (engines still reuse one closure across the alternative
    /// paths of a single candidate).
    pub slice_cache: Option<Arc<SliceCache>>,
    /// Abstract-interpretation triage (on by default): per-function
    /// Const/Affine/Interval/KnownBits facts refute candidate paths before
    /// any cache lookup, slice closure, or solver session, and seed the
    /// engine's formula preprocessing. Triage may only *refute* — it never
    /// claims feasibility — so reports are byte-identical with it off (the
    /// CLI exposes `--no-absint`).
    pub absint: bool,
    /// Pre-discovery PDG compaction (on by default unless the
    /// `FUSION_NO_COMPACT` environment variable is set; the CLI exposes
    /// `--no-compact`): frontier reachability pruning, summary-chain
    /// collapse, and isomorphic-fragment verdict sharing. Reports are
    /// byte-identical with it off whenever the propagation step/path
    /// budgets do not bind (compaction only makes discovery cheaper, so a
    /// binding budget can cut the uncompacted walk earlier); discovery
    /// steps and solver queries only ever shrink.
    pub compact: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        Self {
            propagate: PropagateOptions::default(),
            use_cache: true,
            slice_cache: Some(Arc::new(SliceCache::new())),
            absint: true,
            compact: std::env::var_os("FUSION_NO_COMPACT").is_none(),
        }
    }
}

impl AnalysisOptions {
    /// Default options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Default options with verdict caching *and* slice memoization
    /// disabled — the fully conventional per-query configuration.
    pub fn without_cache() -> Self {
        Self {
            use_cache: false,
            slice_cache: None,
            ..Self::default()
        }
    }

    /// Replaces the slice-closure memo (e.g. with one shared across
    /// checkers or runs).
    pub fn with_slice_cache(mut self, cache: Arc<SliceCache>) -> Self {
        self.slice_cache = Some(cache);
        self
    }
}

/// The outcome for one candidate: either all paths were proven
/// infeasible (suppressed) or a report was produced. `Clone` so a warm
/// session run can replay recorded outcomes of unaffected work items
/// without re-solving them.
#[derive(Clone)]
pub(crate) enum CandVerdict {
    Suppressed,
    Report(BugReport),
}

/// Per-checker solve-side tallies a worker accumulates while deciding
/// candidates (each candidate carries its [`CheckerId`], so attribution
/// is exact even when workers interleave checkers).
#[derive(Debug, Clone, Copy, Default)]
struct CandTally {
    queries: usize,
    cache_hits: u64,
    cache_misses: u64,
    solve_wall: Duration,
    /// Paths refuted by abstract-interpretation triage (no cache lookup,
    /// no engine query).
    triaged_paths: u64,
    /// Candidates whose every path was triaged away (suppressed with zero
    /// solver-side work).
    triaged_candidates: u64,
    /// Union slice closures skipped because the whole candidate was
    /// triaged (one per fully-triaged candidate).
    slices_skipped: u64,
    /// Queries answered by the compaction pass's isomorphic-fragment
    /// verdict memo (no engine work, counted after an exact cache miss).
    iso_hits: u64,
}

impl CandTally {
    fn add(&mut self, other: &CandTally) {
        self.queries += other.queries;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.solve_wall += other.solve_wall;
        self.triaged_paths += other.triaged_paths;
        self.triaged_candidates += other.triaged_candidates;
        self.slices_skipped += other.slices_skipped;
        self.iso_hits += other.iso_hits;
    }
}

/// `(total queries issued, total triaged paths)` across a tally set —
/// the group-boundary snapshot a worker uses to count sink groups whose
/// incremental session was never opened because triage refuted paths.
fn tally_totals(tallies: &[CandTally]) -> (usize, u64) {
    (
        tallies.iter().map(|t| t.queries).sum(),
        tallies.iter().map(|t| t.triaged_paths).sum(),
    )
}

/// Debug-build contract check at the driver's entry: the sparse
/// analyses, the PDG construction and the abstract interpreter all assume
/// the IR invariants of [`fusion_ir::validate::check_program`] (acyclic
/// gated SSA, consistent call-site table, unrolled call graph). Release
/// builds skip the walk; the CLI exposes the same check as `--validate`.
fn debug_validate(program: &Program) {
    #[cfg(debug_assertions)]
    {
        let errs = fusion_ir::validate::check_program(program);
        assert!(
            errs.is_empty(),
            "IR validation failed with {} diagnostic(s); first: {}",
            errs.len(),
            errs[0]
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = program;
}

/// Copies the summed triage counters of a run's tallies into its
/// [`StageStats`].
fn fill_triage_stats(stages: &mut StageStats, tallies: &[CandTally], sessions_skipped: u64) {
    stages.triaged_paths = tallies.iter().map(|t| t.triaged_paths).sum();
    stages.triaged_candidates = tallies.iter().map(|t| t.triaged_candidates).sum();
    stages.slices_skipped = tallies.iter().map(|t| t.slices_skipped).sum();
    stages.sessions_skipped = sessions_skipped;
    stages.iso_hits = tallies.iter().map(|t| t.iso_hits).sum();
}

/// Copies a compacted view's pruning counters into a run's
/// [`StageStats`] (no-op when compaction was off).
fn fill_compact_stats(stages: &mut StageStats, compact: Option<&CompactPdg>) {
    if let Some(c) = compact {
        let cs = c.stats();
        stages.vertices_pruned = cs.vertices_pruned;
        stages.edges_pruned = cs.edges_pruned;
        stages.chains_collapsed = cs.chains_collapsed;
    }
}

/// Everything one run shares, by reference, between its discovery side
/// and its solve workers.
struct RunCtx<'a> {
    program: &'a Program,
    pdg: &'a Pdg,
    set: &'a CheckerSet,
    options: &'a AnalysisOptions,
    cache: Option<&'a VerdictCache>,
    facts: Option<&'a Arc<ProgramFacts>>,
    compact: Option<&'a CompactPdg>,
    prov: Option<&'a crate::incremental::SessionProvenance>,
    /// The `(checker, source)` work list in canonical order
    /// ([`multi_source_vertices`]).
    items: &'a [(CheckerId, Vertex)],
}

/// The candidates of one `(work item, sink function)` pair: the unit a
/// solve worker decides back-to-back, tagged for the deterministic merge.
struct SinkGroup {
    item: usize,
    /// The sink function, the group key. It ignores the candidate's
    /// [`CheckerId`], so candidates of different checkers that land on
    /// one sink function share the engine's group-scoped state (session,
    /// slice closure, translation cache) — the point of fusing clients.
    sink_key: u64,
    /// `(candidate index within the work item, candidate)`.
    cands: Vec<(usize, Candidate)>,
}

/// What discovery leaves behind, per producer (one for an inline run).
#[derive(Default)]
struct Discovered {
    /// `(work-item index, DFS steps)` for every item discovered.
    steps: Vec<(usize, u64)>,
    /// Transient visited-set bytes, charged and released per item.
    memory: MemoryAccountant,
}

impl RunCtx<'_> {
    /// Discovers work item `i` and splits its candidates into sink groups
    /// in first-occurrence order; candidate indices stay ascending within
    /// a group, so merging results by `(item, index)` restores discovery
    /// order exactly.
    fn discover(&self, i: usize, found: &mut Discovered) -> Vec<SinkGroup> {
        let (id, src) = self.items[i];
        let d = discover_source_for_compact(
            self.program,
            self.pdg,
            self.set.get(id),
            id,
            &self.options.propagate,
            src,
            self.compact,
        );
        found.memory.charge(Category::Graph, d.state_bytes);
        found.memory.release(Category::Graph, d.state_bytes);
        found.steps.push((i, d.steps));
        let mut groups: Vec<SinkGroup> = Vec::new();
        for (local, cand) in d.candidates.into_iter().enumerate() {
            let key = cand.sink.func.0 as u64;
            match groups.iter_mut().find(|g| g.sink_key == key) {
                Some(g) => g.cands.push((local, cand)),
                None => groups.push(SinkGroup {
                    item: i,
                    sink_key: key,
                    cands: vec![(local, cand)],
                }),
            }
        }
        groups
    }
}

/// One solve worker: an engine plus what it has decided so far.
struct Worker<'e> {
    engine: &'e mut dyn FeasibilityEngine,
    /// Engine totals when the run began (a borrowed engine may have run
    /// before), so the run reports its own stage deltas.
    stages_before: EngineStages,
    /// Sink key of the last group announced to the engine.
    last_key: Option<u64>,
    /// `((work-item index, candidate index), outcome)` pairs.
    results: Vec<((usize, usize), CandVerdict)>,
    /// Per-checker tallies (indexed by `CheckerId.0`).
    tallies: Vec<CandTally>,
    /// Sink groups this worker never issued a query for because triage
    /// refuted paths in them.
    sessions_skipped: u64,
}

/// A finished worker's share of the run.
struct WorkerOut {
    name: &'static str,
    results: Vec<((usize, usize), CandVerdict)>,
    tallies: Vec<CandTally>,
    memory: MemoryAccountant,
    stages: EngineStages,
    sessions_skipped: u64,
}

impl<'e> Worker<'e> {
    fn new(ctx: &RunCtx, engine: &'e mut dyn FeasibilityEngine) -> Self {
        if let Some(sc) = &ctx.options.slice_cache {
            engine.attach_slice_cache(Arc::clone(sc));
        }
        if let Some(f) = ctx.facts {
            engine.attach_absint(Arc::clone(f));
        }
        Worker {
            stages_before: engine.stage_totals(),
            engine,
            last_key: None,
            results: Vec::new(),
            tallies: vec![CandTally::default(); ctx.set.len()],
            sessions_skipped: 0,
        }
    }

    /// Decides one sink group. A group boundary is announced only when
    /// the sink key changes, so the engine's group-scoped state spans
    /// consecutive fragments of one sink function — from different work
    /// items and checkers alike. Verdicts never depend on where
    /// boundaries fall ([`FeasibilityEngine::begin_group`]'s contract).
    fn solve_group(&mut self, ctx: &RunCtx, group: &SinkGroup) {
        if self.last_key != Some(group.sink_key) {
            self.engine.begin_group(group.sink_key);
            self.last_key = Some(group.sink_key);
        }
        let (q_before, tr_before) = tally_totals(&self.tallies);
        for (local, cand) in &group.cands {
            let tally = &mut self.tallies[cand.checker.0];
            let v = solve_candidate(ctx, &mut *self.engine, cand, tally);
            self.results.push(((group.item, *local), v));
        }
        let (q_after, tr_after) = tally_totals(&self.tallies);
        if q_after == q_before && tr_after > tr_before {
            self.sessions_skipped += 1;
        }
    }

    fn finish(self) -> WorkerOut {
        WorkerOut {
            name: self.engine.name(),
            results: self.results,
            tallies: self.tallies,
            memory: self.engine.memory().clone(),
            stages: self.engine.stage_totals().since(&self.stages_before),
            sessions_skipped: self.sessions_skipped,
        }
    }
}

/// Decides one candidate: query each alternative path until one is
/// feasible. With a cache, each path's verdict is looked up by canonical
/// key first and engine misses are stored back (Unknown is never stored).
/// `tally.queries` counts only queries actually issued to the engine;
/// hits/misses/solve-wall accumulate alongside so solve effort is
/// attributed per checker.
///
/// When abstract facts are supplied, each path is first checked against
/// them ([`ProgramFacts::path_refuted`]): a refuted path is infeasible in
/// every execution, so it is skipped with zero cache or engine work, and a
/// candidate whose *every* path is refuted short-circuits to suppression
/// before [`FeasibilityEngine::begin_candidate`] — no session is touched
/// and no slice closure is ever computed for it. Triage may only refute,
/// never claim feasibility, so reports are byte-identical either way.
///
/// With a compacted view, a path whose exact key misses is additionally
/// looked up in the isomorphic-fragment memo ([`CompactPdg::iso_key`])
/// before the engine is queried: a hit replays the definite verdict of a
/// structurally identical path already decided (renaming of functions
/// and call sites cannot change satisfiability — no identity reaches the
/// solver), so the query is skipped entirely. Unknown verdicts are never
/// memoized, so budget-dependent outcomes never leak between fragments.
///
/// When a session provenance is supplied (warm analysis service), every
/// verdict-cache and iso-memo *insert* also records the inserted key's
/// on-path function span — the `path_set_key → functions` index the
/// dirtiness tracker later uses to evict exactly the entries an edit can
/// reach. The record holds function ids and content hashes only, never a
/// condition (§3.2.2).
fn solve_candidate(
    ctx: &RunCtx,
    engine: &mut dyn FeasibilityEngine,
    cand: &Candidate,
    tally: &mut CandTally,
) -> CandVerdict {
    let program = ctx.program;
    let kind = ctx.set.get(cand.checker).kind;
    // Abstract-interpretation triage: refute paths against per-function
    // facts before any cache lookup or solver work.
    let triaged: Vec<bool> = match ctx.facts {
        Some(f) => cand
            .paths
            .iter()
            .map(|p| f.path_refuted(program, p, kind))
            .collect(),
        None => vec![false; cand.paths.len()],
    };
    let refuted = triaged.iter().filter(|&&t| t).count();
    tally.triaged_paths += refuted as u64;
    if refuted == cand.paths.len() {
        tally.triaged_candidates += 1;
        tally.slices_skipped += 1;
        return CandVerdict::Suppressed;
    }
    // Announce the candidate so the engine can compute the backward
    // closure once for the union of the alternative paths (lazily — a
    // candidate fully answered by the verdict cache never slices). The
    // full path set is announced even when some paths were triaged: the
    // union closure of a superset is sound for every subset, and keeping
    // the canonical key independent of triage keeps the slice memo shared
    // between triaged and untriaged runs.
    let cand_key = path_set_key(program, &cand.paths);
    engine.begin_candidate(program, ctx.pdg, cand_key, &cand.paths);
    let mut verdict = Feasibility::Infeasible;
    let mut witness: Option<&DependencePath> = None;
    for (path, &is_triaged) in cand.paths.iter().zip(&triaged) {
        if is_triaged {
            continue;
        }
        let slice = std::slice::from_ref(path);
        let feasibility = match ctx.cache {
            Some(c) => {
                let key = VerdictCache::key(program, slice);
                match c.get(key) {
                    Some(v) => {
                        tally.cache_hits += 1;
                        v
                    }
                    None => {
                        tally.cache_misses += 1;
                        let v = query_with_iso(ctx, engine, slice, tally);
                        c.insert(key, v);
                        if let Some(p) = ctx.prov {
                            p.verdicts.record(key, slice);
                        }
                        v
                    }
                }
            }
            None => query_with_iso(ctx, engine, slice, tally),
        };
        match feasibility {
            Feasibility::Feasible => {
                verdict = Feasibility::Feasible;
                witness = Some(path);
                break;
            }
            Feasibility::Unknown => {
                verdict = Feasibility::Unknown;
                witness.get_or_insert(path);
            }
            Feasibility::Infeasible => {}
        }
    }
    match verdict {
        Feasibility::Infeasible => CandVerdict::Suppressed,
        v => CandVerdict::Report(BugReport {
            source: cand.source,
            sink: cand.sink,
            verdict: v,
            path: witness.expect("non-infeasible verdict has a path").clone(),
        }),
    }
}

/// Decides one path's feasibility, consulting the compacted view's
/// isomorphic-fragment memo before the engine (see [`solve_candidate`]).
fn query_with_iso(
    ctx: &RunCtx,
    engine: &mut dyn FeasibilityEngine,
    slice: &[DependencePath],
    tally: &mut CandTally,
) -> Feasibility {
    let iso = ctx.compact.map(|cp| (cp.iso(), cp.iso_key(slice)));
    if let Some(v) = iso.as_ref().and_then(|(memo, key)| memo.get(*key)) {
        tally.iso_hits += 1;
        return v;
    }
    tally.queries += 1;
    let o = engine.check_paths(ctx.program, ctx.pdg, slice);
    tally.solve_wall += o.duration;
    if let Some((memo, key)) = iso {
        memo.insert(key, o.feasibility);
        if let Some(p) = ctx.prov {
            p.iso.record(key, slice);
        }
    }
    o.feasibility
}

/// Splits the canonical `(checker, verdict)` sequence of a fused run
/// into per-checker breakdowns. Because the fused candidate order is
/// checker-major (`(checker_idx, source_idx)`), each checker's report
/// subsequence is exactly what a single-checker run produces.
fn assemble_breakdowns(
    set: &CheckerSet,
    ordered: Vec<(CheckerId, CandVerdict)>,
    tallies: &[CandTally],
    per_checker_steps: &[u64],
) -> Vec<CheckerBreakdown> {
    let mut out: Vec<CheckerBreakdown> = set
        .iter()
        .map(|(id, c)| CheckerBreakdown {
            kind: c.kind,
            reports: Vec::new(),
            suppressed: 0,
            candidates: 0,
            queries: tallies[id.0].queries,
            cache_hits: tallies[id.0].cache_hits,
            cache_misses: tallies[id.0].cache_misses,
            discovery_steps: per_checker_steps.get(id.0).copied().unwrap_or(0),
            solve_wall: tallies[id.0].solve_wall,
        })
        .collect();
    for (id, v) in ordered {
        let b = &mut out[id.0];
        b.candidates += 1;
        match v {
            CandVerdict::Suppressed => b.suppressed += 1,
            CandVerdict::Report(r) => b.reports.push(r),
        }
    }
    out
}

/// Runs one checker over a program with the given feasibility engine.
///
/// A candidate is reported when *any* of its alternative paths is feasible;
/// it is suppressed only when every path is proven infeasible; undecided
/// candidates are reported conservatively (matching how bug detectors treat
/// solver timeouts). Allocates a run-local verdict cache per
/// [`AnalysisOptions::use_cache`]; the engine stays the caller's, so its
/// [`FeasibilityEngine::records`] and memory can be read afterwards.
pub fn analyze(
    program: &Program,
    pdg: &Pdg,
    checker: &Checker,
    engine: &mut dyn FeasibilityEngine,
    options: &AnalysisOptions,
) -> AnalysisRun {
    let local = VerdictCache::new();
    let cache = options.use_cache.then_some(&local);
    let set = CheckerSet::single(checker.clone());
    analyze_multi_with_cache(program, pdg, &set, engine, options, cache).into_single()
}

/// Runs a whole [`CheckerSet`] in **one fused pass** on the caller's
/// engine: one discovery traversal over every `(checker, source)` work
/// item, each item's sink groups solved as soon as it is discovered.
/// Sink groups are keyed on the sink function only, so candidates from
/// different checkers landing on the same sink share the engine's
/// group-scoped state (sessions, instance memos) and the slice memo.
/// `cache` is the (possibly shared) verdict cache, `None` for none; the
/// returned [`MultiAnalysisRun::cache`] counters are scoped to this run
/// even when the cache is shared.
pub fn analyze_multi_with_cache(
    program: &Program,
    pdg: &Pdg,
    set: &CheckerSet,
    engine: &mut dyn FeasibilityEngine,
    options: &AnalysisOptions,
    cache: Option<&VerdictCache>,
) -> MultiAnalysisRun {
    let engines = Engines::Borrowed(engine);
    drive(program, pdg, set, engines, options, cache, None).0
}

/// Runs a whole [`CheckerSet`] with `threads` engines built by
/// `factory`. At one thread the run is inline, exactly as
/// [`analyze_multi_with_cache`]. At more, discovery producers steal
/// `(checker, source)` work items and stream each item's sink groups
/// through bounded queues into sticky solve workers: a group goes to
/// worker `sink function % threads`, so a sink function targeted by
/// several items or checkers lands on one engine, which keeps one warm
/// session and instance memo across all of them. Solving overlaps
/// discovery. Results merge by `(work item, candidate)` index, so the
/// reports are byte-identical at any thread count. The run is named
/// `"{engine}×{threads}"` (e.g. `"fusion×4"`).
///
/// Timing: `propagate_time` is the span until the last work item was
/// discovered (compaction included); `solve_time` is the rest of the
/// run's wall, so [`MultiAnalysisRun::total_time`] is the true
/// end-to-end wall.
pub fn analyze_multi_streaming_with_cache(
    program: &Program,
    pdg: &Pdg,
    set: &CheckerSet,
    factory: &(dyn Fn() -> Box<dyn FeasibilityEngine> + Sync),
    threads: usize,
    options: &AnalysisOptions,
    cache: Option<&VerdictCache>,
) -> MultiAnalysisRun {
    let engines = Engines::Built(factory, threads.max(1));
    drive(program, pdg, set, engines, options, cache, None).0
}

/// Recorded outcomes of one session run, keyed by `(checker, source)`
/// work item: the canonical per-candidate verdicts and the discovery
/// steps the item took. A later warm run replays the record of every
/// work item the edit cannot reach — byte-identically, because a work
/// item whose call-graph component contains no edited function discovers
/// the same candidates and receives the same verdicts as a cold run of
/// the edited program (dependence paths, slice closures, and compaction
/// liveness never leave the component). Only outcomes are recorded —
/// never a path condition (§3.2.2).
#[derive(Default)]
pub struct ItemOutcomes {
    map: std::collections::HashMap<(usize, Vertex), ItemRecord>,
}

#[derive(Clone, Default)]
pub(crate) struct ItemRecord {
    pub(crate) verdicts: Vec<CandVerdict>,
    pub(crate) steps: u64,
}

impl ItemOutcomes {
    pub(crate) fn get(&self, id: CheckerId, src: Vertex) -> Option<&ItemRecord> {
        self.map.get(&(id.0, src))
    }

    /// Number of recorded `(checker, source)` work items.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no work item has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates the recorded items (snapshot serialization sorts them
    /// before writing, so map order never leaks into bytes).
    pub(crate) fn records(&self) -> impl Iterator<Item = (&(usize, Vertex), &ItemRecord)> {
        self.map.iter()
    }

    /// Inserts (or overwrites) one recorded item. Used by the snapshot
    /// reader and the shard merge, which combine per-shard outcome sets
    /// into one replayable whole.
    pub(crate) fn insert_record(&mut self, key: (usize, Vertex), rec: ItemRecord) {
        self.map.insert(key, rec);
    }
}

/// Resident-state inputs of [`analyze_multi_streaming_session`]. A cold
/// session scan passes no retained outcomes and no affected mask, so
/// every work item runs live; a warm rescan passes the session's
/// resident facts, compacted view, recorded outcomes, the edit's
/// affected-function mask, and the provenance recorder.
#[derive(Default)]
pub(crate) struct SessionParams<'a> {
    /// Precomputed abstract facts (`None` = absint off for this run).
    /// A session run never computes facts itself — the resident session
    /// owns them and recomputes only dirty functions.
    pub(crate) facts: Option<Arc<ProgramFacts>>,
    /// Resident compacted view (`None` = compaction off).
    pub(crate) compact: Option<&'a CompactPdg>,
    /// Outcomes recorded by the previous session run.
    pub(crate) retained: Option<&'a ItemOutcomes>,
    /// Per-function "the edit can reach this" mask — the connected
    /// component of the edited functions over the symmetric
    /// caller∪callee adjacency (of the old and new programs). A work
    /// item whose source function is unaffected replays its retained
    /// record instead of re-running discovery and solving.
    pub(crate) affected: Option<&'a [bool]>,
    /// Provenance recorder for verdict/iso-memo inserts (the
    /// `path_set_key → functions` index the next edit's invalidation
    /// uses).
    pub(crate) prov: Option<&'a crate::incremental::SessionProvenance>,
}

/// The session run behind the warm analysis service and the shards:
/// [`analyze_multi_streaming_with_cache`] over only the **live**
/// `(checker, source)` work items — those the edit's affected set can
/// reach, or that have no retained record — while every other item
/// replays its recorded outcome. Returns the run plus the refreshed
/// [`ItemOutcomes`] for the next rescan.
///
/// Reports are byte-identical to a cold scan of the same program at any
/// thread count: live items go through the exact cold machinery, and
/// replayed items are sound because an unaffected component is
/// untouched by the edit. Counters differ by design: replayed items
/// contribute their recorded candidates and discovery steps, but zero
/// queries, cache traffic, and engine wall, and
/// [`StageStats::candidates_reanalyzed`] counts the live candidates.
#[allow(clippy::too_many_arguments)] // the streaming entry point plus session state
pub(crate) fn analyze_multi_streaming_session(
    program: &Program,
    pdg: &Pdg,
    set: &CheckerSet,
    factory: &(dyn Fn() -> Box<dyn FeasibilityEngine> + Sync),
    threads: usize,
    options: &AnalysisOptions,
    cache: Option<&VerdictCache>,
    params: SessionParams<'_>,
) -> (MultiAnalysisRun, ItemOutcomes) {
    let engines = Engines::Built(factory, threads.max(1));
    let (run, outcomes) = drive(program, pdg, set, engines, options, cache, Some(params));
    (run, outcomes.expect("session runs record outcomes"))
}

/// Where a run's engines come from.
enum Engines<'a> {
    /// The caller's engine: the run is inline and keeps its name.
    Borrowed(&'a mut dyn FeasibilityEngine),
    /// `threads` (≥ 1) factory-built engines: inline at one thread,
    /// the producer/consumer pipeline at more.
    Built(&'a (dyn Fn() -> Box<dyn FeasibilityEngine> + Sync), usize),
}

/// The one analysis driver (the outer loop of Algorithm 5). Each
/// `(checker, source)` work item either replays a retained record
/// (session runs only) or is discovered and its sink groups solved —
/// [`inline`] on one engine or through the [`pipeline`] on several.
/// Both paths share [`RunCtx::discover`] and [`Worker::solve_group`],
/// and every run ends in the one merge and accounting step below.
///
/// A cold run (`session == None`) computes abstract facts before the
/// clock starts and builds the compacted view inside the discovery span;
/// a session run takes both from the resident state, and is the only
/// kind that records [`ItemOutcomes`] and counts
/// [`StageStats::candidates_reanalyzed`].
fn drive(
    program: &Program,
    pdg: &Pdg,
    set: &CheckerSet,
    engines: Engines<'_>,
    options: &AnalysisOptions,
    cache: Option<&VerdictCache>,
    session: Option<SessionParams<'_>>,
) -> (MultiAnalysisRun, Option<ItemOutcomes>) {
    debug_validate(program);
    let cold = session.is_none();
    let session = session.unwrap_or_default();
    // Facts are computed once per run (memoized per function inside) and
    // shared by driver-side triage and engine-side seeding.
    let facts = if cold {
        options
            .absint
            .then(|| Arc::new(ProgramFacts::compute(program)))
    } else {
        session.facts
    };
    let items = multi_source_vertices(program, set);
    // An item replays iff its source function is provably unaffected by
    // the edit *and* a retained record exists. Out-of-range functions
    // (the program grew) count as affected.
    let replay: Vec<Option<ItemRecord>> = items
        .iter()
        .map(|(id, src)| {
            let unaffected = session
                .affected
                .is_some_and(|a| !a.get(src.func.index()).copied().unwrap_or(true));
            unaffected
                .then(|| session.retained.and_then(|r| r.get(*id, *src)).cloned())
                .flatten()
        })
        .collect();
    let live: Vec<usize> = (0..items.len()).filter(|&i| replay[i].is_none()).collect();

    let slice_before = options
        .slice_cache
        .as_ref()
        .map(|c| c.stats())
        .unwrap_or_default();
    let cache_before = cache.map(|c| c.stats()).unwrap_or_default();

    let t0 = Instant::now();
    let built =
        (cold && options.compact).then(|| CompactPdg::build(program, pdg, set, &options.propagate));
    let compact_wall = t0.elapsed();
    let ctx = RunCtx {
        program,
        pdg,
        set,
        options,
        cache,
        facts: facts.as_ref(),
        compact: session.compact.or(built.as_ref()),
        prov: session.prov,
        items: &items,
    };
    let threads = match engines {
        Engines::Borrowed(_) => None,
        Engines::Built(_, threads) => Some(threads),
    };
    let (workers, discovered, propagate_time) = match engines {
        Engines::Borrowed(engine) => inline(&ctx, &live, engine, compact_wall),
        Engines::Built(factory, 1) => inline(&ctx, &live, factory().as_mut(), compact_wall),
        Engines::Built(factory, threads) => pipeline(&ctx, &live, factory, threads, t0),
    };
    let solve_time = t0.elapsed().saturating_sub(propagate_time);
    let name = workers[0].name;

    // Merge in (work item, candidate) order — the canonical discovery
    // order, checker-major since the work list is, and independent of
    // which worker decided what.
    let mut tallies = vec![CandTally::default(); set.len()];
    let mut memories: Vec<MemoryAccountant> = Vec::with_capacity(workers.len());
    let mut stages = StageStats::default();
    let mut sessions_skipped = 0u64;
    let mut merged: Vec<((usize, usize), CandVerdict)> = Vec::new();
    for o in workers {
        for (t, wt) in tallies.iter_mut().zip(&o.tallies) {
            t.add(wt);
        }
        memories.push(o.memory);
        stages.add_engine(&o.stages);
        sessions_skipped += o.sessions_skipped;
        merged.extend(o.results);
    }
    merged.sort_by_key(|(key, _)| *key);
    let live_candidates = merged.len() as u64;
    // The canonical per-item records: replayed ones verbatim, live ones
    // rebuilt from the merged results and the discovery steps.
    let mut per_item: Vec<ItemRecord> = replay.into_iter().map(Option::unwrap_or_default).collect();
    for ((item, _), v) in merged {
        per_item[item].verdicts.push(v);
    }
    for &(i, steps) in discovered.iter().flat_map(|d| &d.steps) {
        per_item[i].steps = steps;
    }
    let outcomes = (!cold).then(|| ItemOutcomes {
        map: items
            .iter()
            .zip(&per_item)
            .map(|(&(id, src), rec)| ((id.0, src), rec.clone()))
            .collect(),
    });

    let mut per_checker_steps = vec![0u64; set.len()];
    for (&(id, _), rec) in items.iter().zip(&per_item) {
        per_checker_steps[id.0] += rec.steps;
    }
    stages.discover_wall = propagate_time;
    stages.discovery_steps = per_checker_steps.iter().sum();
    stages.discovery_shards = discovered.len();
    if !cold {
        stages.candidates_reanalyzed = live_candidates;
    }
    fill_triage_stats(&mut stages, &tallies, sessions_skipped);
    fill_compact_stats(&mut stages, ctx.compact);

    // The graph and the caches are retained for the whole run; every
    // engine and every discovery producer is live concurrently. Because
    // the whole checker set runs in one pass, this is the true
    // whole-scan peak — not a max over per-checker passes.
    let graph_bytes = program.size() as u64 * BYTES_PER_DEF;
    let cache_bytes = cache.map(|c| c.bytes()).unwrap_or(0)
        + options.slice_cache.as_ref().map(|c| c.bytes()).unwrap_or(0);
    let mem = run_accounting(
        memories.iter().chain(discovered.iter().map(|d| &d.memory)),
        graph_bytes,
        cache_bytes,
    );
    let cache_stats = cache
        .map(|c| c.stats().since(&cache_before))
        .unwrap_or_default();
    let slice_stats = options
        .slice_cache
        .as_ref()
        .map(|c| c.stats().since(&slice_before))
        .unwrap_or_default();

    let candidates = per_item.iter().map(|r| r.verdicts.len()).sum();
    let ordered: Vec<(CheckerId, CandVerdict)> = items
        .iter()
        .zip(per_item)
        .flat_map(|(&(id, _), rec)| rec.verdicts.into_iter().map(move |v| (id, v)))
        .collect();
    let queries = tallies.iter().map(|t| t.queries).sum();
    let checkers = assemble_breakdowns(set, ordered, &tallies, &per_checker_steps);

    let run = MultiAnalysisRun {
        engine: match threads {
            Some(threads) => format!("{name}×{threads}"),
            None => name.to_string(),
        },
        checkers,
        candidates,
        queries,
        propagate_time,
        solve_time,
        peak_memory: mem.peak_total(),
        cache: cache_stats,
        slice: slice_stats,
        stages,
    };
    (run, outcomes)
}

/// Runs the live items on one engine: each item is discovered and its
/// sink groups solved before the next item starts. The discovery span is
/// `before` (the compaction build) plus the summed per-item discovery
/// wall.
fn inline(
    ctx: &RunCtx,
    live: &[usize],
    engine: &mut dyn FeasibilityEngine,
    before: Duration,
) -> (Vec<WorkerOut>, Vec<Discovered>, Duration) {
    let mut worker = Worker::new(ctx, engine);
    let mut found = Discovered::default();
    let mut discover_wall = before;
    for &i in live {
        let t = Instant::now();
        let groups = ctx.discover(i, &mut found);
        discover_wall += t.elapsed();
        for group in &groups {
            worker.solve_group(ctx, group);
        }
    }
    (vec![worker.finish()], vec![found], discover_wall)
}

/// Runs the live items through the streaming pipeline on `threads` ≥ 2
/// factory-built engines. Producers (one per thread, at most one per
/// live item) steal work items off a cursor and send each item's sink
/// groups to the bounded queue of worker `sink function % threads`; each
/// worker drains its own queue. Sticky routing keeps every group of one
/// sink function on one engine, so its session and instance memo
/// amortize across the per-item fragments, and solving overlaps
/// discovery. The discovery span runs from `t0` until the last producer
/// finished.
fn pipeline(
    ctx: &RunCtx,
    live: &[usize],
    factory: &(dyn Fn() -> Box<dyn FeasibilityEngine> + Sync),
    threads: usize,
    t0: Instant,
) -> (Vec<WorkerOut>, Vec<Discovered>, Duration) {
    let producers = threads.min(live.len()).max(1);
    let queues: Vec<BoundedQueue<SinkGroup>> = (0..threads)
        .map(|_| BoundedQueue::new(2, producers))
        .collect();
    let cursor = AtomicUsize::new(0);
    let (queues, cursor) = (&queues, &cursor);
    std::thread::scope(|scope| {
        let producer_handles: Vec<_> = (0..producers)
            .map(|_| {
                scope.spawn(move || {
                    let mut found = Discovered::default();
                    // Cleared when a send is refused: some worker's queue
                    // closed (it panicked), so the pipeline cannot
                    // complete — stop discovering, but still run the
                    // shutdown protocol below so every queue learns this
                    // producer is done.
                    let mut consumers_live = true;
                    while consumers_live {
                        let Some(&i) = live.get(cursor.fetch_add(1, Ordering::Relaxed)) else {
                            break;
                        };
                        for group in ctx.discover(i, &mut found) {
                            if !queues[group.sink_key as usize % threads].send(group) {
                                consumers_live = false;
                                break;
                            }
                        }
                    }
                    let done = t0.elapsed();
                    for queue in queues {
                        queue.producer_done();
                    }
                    (found, done)
                })
            })
            .collect();
        let worker_handles: Vec<_> = queues
            .iter()
            .map(|queue| {
                scope.spawn(move || {
                    let mut engine = factory();
                    let mut worker = Worker::new(ctx, engine.as_mut());
                    // Liveness: if this worker dies mid-solve (a panicking
                    // engine), the guard closes its queue on unwind, so
                    // producers parked on the bounded `not_full` condvar
                    // wake up, observe the refusal, and wind down — the
                    // panic then propagates through the join instead of
                    // deadlocking it. Harmless on orderly exit: the queue
                    // is already drained when the guard fires.
                    let _close_guard = CloseGuard::new(queue);
                    while let Some(group) = queue.recv() {
                        worker.solve_group(ctx, &group);
                    }
                    worker.finish()
                })
            })
            .collect();
        let workers = worker_handles
            .into_iter()
            .map(|h| h.join().expect("solve worker"))
            .collect();
        let (discovered, done): (Vec<_>, Vec<_>) = producer_handles
            .into_iter()
            .map(|h| h.join().expect("discovery producer"))
            .unzip();
        let span = done.into_iter().max().unwrap_or_default();
        (workers, discovered, span)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_solver::FusionSolver;
    use fusion_ir::{compile, CompileOptions};
    use fusion_smt::solver::SolverConfig;

    fn run(src: &str) -> AnalysisRun {
        let p = compile(src, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let mut engine = FusionSolver::new(SolverConfig::default());
        analyze(
            &p,
            &g,
            &Checker::null_deref(),
            &mut engine,
            &AnalysisOptions::new(),
        )
    }

    #[test]
    fn reports_feasible_and_suppresses_infeasible() {
        let run = run(
            "extern fn deref(p);\n\
             fn feasible(x) { let q = null; let r = 1; if (x > 0) { r = q; } deref(r); return 0; }\n\
             fn infeasible(x) { let q = null; let r = 1; if (x > 5) { if (x < 3) { r = q; } } deref(r); return 0; }",
        );
        assert_eq!(run.candidates, 2);
        assert_eq!(run.reports.len(), 1);
        assert_eq!(run.suppressed, 1);
        assert_eq!(run.reports[0].verdict, Feasibility::Feasible);
    }

    #[test]
    fn unconditional_flow_is_reported() {
        let run = run("extern fn deref(p); fn f() { let q = null; deref(q); return 0; }");
        assert_eq!(run.reports.len(), 1);
        assert_eq!(run.suppressed, 0);
    }

    #[test]
    fn clean_program_reports_nothing() {
        let run = run("extern fn deref(p); fn f(x) { deref(x); return 0; }");
        assert_eq!(run.candidates, 0);
        assert!(run.reports.is_empty());
    }

    #[test]
    fn timings_and_memory_are_populated() {
        let run = run("extern fn deref(p); fn f() { let q = null; deref(q); return 0; }");
        assert!(run.peak_memory > 0);
        assert!(run.queries >= 1);
    }

    const MULTI_SRC: &str = "extern fn deref(p);\n\
         fn a(x) { let q = null; let r = 1; if (x > 1) { r = q; } deref(r); return 0; }\n\
         fn b(x) { let q = null; let r = 1; if (x * 2 == 5) { r = q; } deref(r); return 0; }\n\
         fn c(x) { let q = null; let r = 1; if (x == 9) { r = q; } deref(r); return 0; }";

    fn fusion_factory() -> Box<dyn FeasibilityEngine> {
        Box::new(FusionSolver::new(SolverConfig::default()))
    }

    /// A fused run on a borrowed engine, with a run-local verdict cache
    /// per [`AnalysisOptions::use_cache`].
    fn fused(p: &Program, g: &Pdg, set: &CheckerSet, opts: &AnalysisOptions) -> MultiAnalysisRun {
        let cache = VerdictCache::new();
        let mut engine = FusionSolver::new(SolverConfig::default());
        analyze_multi_with_cache(
            p,
            g,
            set,
            &mut engine,
            opts,
            opts.use_cache.then_some(&cache),
        )
    }

    #[test]
    fn engine_name_keeps_base_and_thread_count() {
        let p = compile(MULTI_SRC, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let set = CheckerSet::single(Checker::null_deref());
        let opts = AnalysisOptions::new();
        for threads in [1usize, 4] {
            let run = analyze_multi_streaming_with_cache(
                &p,
                &g,
                &set,
                &fusion_factory,
                threads,
                &opts,
                None,
            );
            assert_eq!(run.engine, format!("fusion×{threads}"));
        }
        // A borrowed engine keeps its own name.
        assert_eq!(fused(&p, &g, &set, &opts).engine, "fusion");
    }

    #[test]
    fn borrowed_and_threaded_accounting_agree() {
        let p = compile(MULTI_SRC, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let set = CheckerSet::single(Checker::null_deref());
        let opts = AnalysisOptions::without_cache();
        let borrowed = fused(&p, &g, &set, &opts);
        let threaded = |threads| {
            analyze_multi_streaming_with_cache(&p, &g, &set, &fusion_factory, threads, &opts, None)
        };
        // One thread runs the same inline loop on a factory-built engine:
        // the accounting must yield the exact borrowed-engine peak.
        assert_eq!(
            borrowed.peak_memory,
            threaded(1).peak_memory,
            "1-thread parity"
        );
        // Many workers: each retains its own engine state, so the summed
        // peak is bounded below by the one-engine peak and above by
        // `threads` of them.
        let par4 = threaded(4);
        assert!(par4.peak_memory >= borrowed.peak_memory);
        assert!(par4.peak_memory <= borrowed.peak_memory * 4);
    }

    #[test]
    fn cached_runs_report_hits_and_identical_reports() {
        let p = compile(MULTI_SRC, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let set = CheckerSet::single(Checker::null_deref());
        let uncached = fused(&p, &g, &set, &AnalysisOptions::without_cache());
        assert_eq!(uncached.cache, crate::cache::CacheStats::default());

        // Two runs sharing one cache: the second run is all hits.
        let shared = VerdictCache::new();
        let opts = AnalysisOptions::new();
        let run = || {
            let mut e = FusionSolver::new(SolverConfig::default());
            analyze_multi_with_cache(&p, &g, &set, &mut e, &opts, Some(&shared))
        };
        let first = run();
        assert!(first.cache.misses > 0);
        assert!(first.cache.inserts > 0);
        let second = run();
        assert!(second.cache.hits > 0, "warm cache must hit");
        assert_eq!(second.queries, 0, "every verdict came from the cache");

        for cached in [&first, &second] {
            let a: Vec<_> = uncached.all_reports().map(report_key).collect();
            let b: Vec<_> = cached.all_reports().map(report_key).collect();
            assert_eq!(a, b, "cache must not change reports");
            assert_eq!(
                uncached.checkers[0].suppressed,
                cached.checkers[0].suppressed
            );
        }
    }

    const FUSED_SRC: &str = "extern fn deref(p); extern fn gets(); extern fn fopen(x);\n\
         extern fn getpass(); extern fn sendmsg(y);\n\
         fn a(c) { let q = null; let r = 1; if (c > 0) { r = q; } deref(r); return 0; }\n\
         fn b(c) { let t = gets(); if (c > 1) { fopen(t); } return 0; }\n\
         fn d() { let s = getpass(); sendmsg(s); return 0; }";

    fn report_key(r: &BugReport) -> (Vertex, Vertex, Feasibility, Vec<Vertex>) {
        (r.source, r.sink, r.verdict, r.path.nodes.clone())
    }

    #[test]
    fn fused_multi_matches_per_checker_runs() {
        let p = compile(FUSED_SRC, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let set = CheckerSet::all();
        let fused = fused(&p, &g, &set, &AnalysisOptions::new());
        assert_eq!(fused.checkers.len(), 3);
        assert_eq!(
            fused.checkers.iter().map(|b| b.candidates).sum::<usize>(),
            fused.candidates
        );
        assert_eq!(
            fused.checkers.iter().map(|b| b.queries).sum::<usize>(),
            fused.queries
        );
        for (id, checker) in set.iter() {
            let mut e = FusionSolver::new(SolverConfig::default());
            let single = analyze(&p, &g, checker, &mut e, &AnalysisOptions::new());
            let b = &fused.checkers[id.0];
            assert_eq!(b.kind, checker.kind);
            assert_eq!(b.candidates, single.candidates, "candidates for {id}");
            assert_eq!(b.suppressed, single.suppressed, "suppressed for {id}");
            let av: Vec<_> = single.reports.iter().map(report_key).collect();
            let bv: Vec<_> = b.reports.iter().map(report_key).collect();
            assert_eq!(av, bv, "reports for {id}");
        }
        // The flattened view concatenates per-checker reports.
        assert_eq!(
            fused.all_reports().count(),
            fused
                .checkers
                .iter()
                .map(|b| b.reports.len())
                .sum::<usize>()
        );
    }

    #[test]
    fn fused_threaded_runs_match_fused_borrowed_run() {
        let p = compile(FUSED_SRC, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let set = CheckerSet::all();
        let opts = AnalysisOptions::new();
        let reference = fused(&p, &g, &set, &opts);
        for threads in 1..=8 {
            let run = analyze_multi_streaming_with_cache(
                &p,
                &g,
                &set,
                &fusion_factory,
                threads,
                &opts,
                None,
            );
            assert_eq!(run.candidates, reference.candidates, "threads={threads}");
            for (sb, rb) in reference.checkers.iter().zip(&run.checkers) {
                assert_eq!(sb.kind, rb.kind);
                assert_eq!(sb.suppressed, rb.suppressed, "threads={threads}");
                // Not just set equality: identical order and contents.
                let a: Vec<_> = sb.reports.iter().map(report_key).collect();
                let b: Vec<_> = rb.reports.iter().map(report_key).collect();
                assert_eq!(a, b, "threads={threads} kind={}", sb.kind);
            }
        }
    }

    #[test]
    fn compaction_preserves_reports_and_shrinks_work() {
        // `dead` gives pruning something to remove, the `id` corridor
        // collapses to a chain, and the byte-identical bodies of `f` and
        // `g` exercise the isomorphic verdict memo: the compacted run
        // must produce the same reports with strictly fewer discovery
        // steps and strictly fewer solver queries.
        let src = "extern fn deref(p);\n\
             fn dead(y) { let z = y + 1; return z; }\n\
             fn id(x) { return x; }\n\
             fn f(x) { let q = null; let r = 1; if (x > 0) { r = q; } deref(r); return 0; }\n\
             fn g(x) { let q = null; let r = 1; if (x > 0) { r = q; } deref(r); return 0; }\n\
             fn h(c) { let q = null; let u = id(q); let n = dead(c); if (c > n) { deref(u); } return 0; }";
        let p = compile(src, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let set = CheckerSet::all();
        let off = AnalysisOptions {
            compact: false,
            ..AnalysisOptions::new()
        };
        let on = AnalysisOptions {
            compact: true,
            ..AnalysisOptions::new()
        };
        let plain = fused(&p, &g, &set, &off);
        let compacted = fused(&p, &g, &set, &on);
        for (pb, cb) in plain.checkers.iter().zip(&compacted.checkers) {
            assert_eq!(pb.kind, cb.kind);
            assert_eq!(pb.candidates, cb.candidates);
            assert_eq!(pb.suppressed, cb.suppressed);
            let a: Vec<_> = pb.reports.iter().map(report_key).collect();
            let b: Vec<_> = cb.reports.iter().map(report_key).collect();
            assert_eq!(a, b, "reports must be byte-identical for {}", pb.kind);
        }
        assert_eq!(plain.stages.vertices_pruned, 0, "off ⇒ no pruning stats");
        assert!(compacted.stages.vertices_pruned > 0);
        assert!(compacted.stages.edges_pruned > 0);
        assert!(compacted.stages.chains_collapsed > 0);
        assert!(
            compacted.stages.discovery_steps < plain.stages.discovery_steps,
            "compacted discovery {} must undercut plain {}",
            compacted.stages.discovery_steps,
            plain.stages.discovery_steps
        );
        assert!(compacted.stages.iso_hits > 0, "f/g paths are isomorphic");
        assert!(
            compacted.queries < plain.queries,
            "iso sharing must drop queries ({} vs {})",
            compacted.queries,
            plain.queries
        );
    }

    #[test]
    fn fused_pass_shares_sessions_and_discovery() {
        // Three per-checker passes open at least one session per checker
        // with candidates; the fused pass shares groups keyed on the sink
        // function only, so it can never open more sessions than the sum.
        let p = compile(FUSED_SRC, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let set = CheckerSet::all();
        let fused = fused(&p, &g, &set, &AnalysisOptions::without_cache());
        assert!(fused.stages.sessions_opened >= 1);
        let mut loop_sessions = 0u64;
        let mut loop_steps = 0u64;
        for (_, checker) in set.iter() {
            let mut e = FusionSolver::new(SolverConfig::default());
            let run = analyze(&p, &g, checker, &mut e, &AnalysisOptions::without_cache());
            loop_sessions += run.stages.sessions_opened;
            loop_steps += run.stages.discovery_steps;
        }
        assert!(fused.stages.sessions_opened <= loop_sessions);
        // Discovery work is identical — it is the redundant *passes* the
        // fusion removes, not steps.
        assert_eq!(fused.stages.discovery_steps, loop_steps);
        assert_eq!(
            fused
                .checkers
                .iter()
                .map(|b| b.discovery_steps)
                .sum::<u64>(),
            fused.stages.discovery_steps
        );
    }

    #[test]
    fn single_checker_analyze_rides_the_fused_path() {
        // The single-checker entry point must report exactly what the
        // fused driver's breakdown holds.
        let p = compile(MULTI_SRC, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let set = CheckerSet::single(Checker::null_deref());
        let multi = fused(&p, &g, &set, &AnalysisOptions::new());
        let mut e2 = FusionSolver::new(SolverConfig::default());
        let single = analyze(
            &p,
            &g,
            &Checker::null_deref(),
            &mut e2,
            &AnalysisOptions::new(),
        );
        assert_eq!(multi.checkers.len(), 1);
        let a: Vec<_> = multi.checkers[0].reports.iter().map(report_key).collect();
        let b: Vec<_> = single.reports.iter().map(report_key).collect();
        assert_eq!(a, b);
        assert_eq!(multi.candidates, single.candidates);
        assert_eq!(multi.queries, single.queries);
    }
}
