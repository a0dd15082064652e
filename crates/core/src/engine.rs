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
use crate::incremental::Provenance;
use crate::memory::{run_accounting, Category, MemoryAccountant, BYTES_PER_DEF};
use crate::propagate::{discover_item, Candidate, CheckerRoles, PropagateOptions};
use crate::slice_cache::{SliceCache, SliceCacheStats};
use fusion_ir::ssa::Program;
use fusion_pdg::graph::{Pdg, Vertex};
use fusion_pdg::paths::DependencePath;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
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

    /// Announces that a run over `program` starts: every driver calls this
    /// once per engine, before attaching the run's caches and facts and
    /// before the first query. Engines that keep program-scoped state
    /// (memoized local conditions or summaries, instantiations, quick-path
    /// facts) drop it here, so a borrowed engine never answers one
    /// program's queries with another's conditions — a shape check
    /// (function count and size) cannot tell two programs apart that differ
    /// only in a constant. The default does nothing.
    fn begin_run(&mut self, _program: &Program) {}

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

crate::counters! {
    /// Cumulative stage totals an instrumented engine reports via
    /// [`FeasibilityEngine::stage_totals`]: how query wall-time splits into
    /// slicing, translation (term/clause building), and solving, plus how
    /// often a slice closure was computed from scratch versus reused (from
    /// the per-candidate union or the shared [`SliceCache`]). Summed over
    /// workers in a run's [`StageStats::engine`].
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct EngineStages {
        /// Wall-time spent computing slice closures and constraints.
        pub slice_wall: Duration => "slice_ms",
        /// Wall-time spent building terms/instances from the slice.
        pub translate_wall: Duration => "translate_ms",
        /// Wall-time spent deciding satisfiability.
        pub solve_wall: Duration => "solve_ms",
        /// Closures computed from scratch.
        pub slices_computed: u64 => "slices_computed",
        /// Closures served by per-candidate reuse or the shared memo.
        pub slices_reused: u64 => "slices_reused",
        /// Incremental solver sessions opened (0 for engines that solve
        /// cold). Queries from different checkers landing on the same sink
        /// share one session, so a fused pass opens fewer than a
        /// per-checker loop.
        pub sessions_opened: u64 => "sessions_opened",
        /// Assembled queries the engine refuted by *seeded* known-bits
        /// preprocessing (abstract program facts attached via
        /// [`FeasibilityEngine::attach_absint`]) before opening a session or
        /// bit-blasting anything.
        pub absint_refutes: u64 => "absint_refutes",
        /// Always 0, so never printed. This and `egraph_nodes_saved`
        /// counted the e-graph simplification layer, which was removed;
        /// both stay only because `e2ebench/src/main.rs` samples them by
        /// name as the `smt.egraph_classes` and `smt.egraph_nodes_saved`
        /// rows. A benchmark change drops those two rows first, then these
        /// two fields.
        pub egraph_classes: u64 => _,
        /// Always 0; kept for the benchmark, as `egraph_classes` says.
        pub egraph_nodes_saved: u64 => _,
    }
}

crate::counters! {
    /// Per-stage wall/counter breakdown of one analysis run
    /// (discover → slice → translate → solve), surfaced by the CLI's
    /// `--stats`/`--json`. Engine stage walls are summed across workers in
    /// parallel runs (CPU-time-like); `discover_wall` is the wall-clock
    /// span of the discovery stage.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct StageStats {
        /// Wall-clock span of the discovery stage. At more than one thread
        /// this overlaps the solve stage; inline it is the summed per-item
        /// discovery wall.
        pub discover_wall: Duration => "discover_ms",
        /// Total DFS steps taken by discovery.
        pub discovery_steps: u64 => "discovery_steps",
        /// Discovery producer count (1 for an inline run).
        pub discovery_shards: u64 => "discovery_shards",
        /// The engines' stage totals, summed over workers.
        pub engine: EngineStages => ..,
        /// Individual dependence paths refuted by abstract-interpretation
        /// triage before any cache lookup or engine query.
        pub triaged_paths: u64 => "triaged_paths",
        /// Candidates whose *every* path was refuted by abstract-interpretation
        /// triage: suppressed with zero cache, slice, or solver work.
        pub triaged_candidates: u64 => "triaged_candidates",
        /// Sink groups that issued no engine query because triage refuted
        /// paths in them — each is an incremental session the run never had to
        /// open.
        pub sessions_skipped: u64 => "sessions_skipped",
        /// Union slice closures never computed because the whole candidate was
        /// triaged away (one per fully-triaged candidate).
        pub slices_skipped: u64 => "slices_skipped",
        /// Always 0, so never printed. It counted the vertices frontier
        /// pruning removed, and no pipeline prunes any more; it stays only
        /// because `e2ebench/src/main.rs` samples it by name as the
        /// `compact.vertices_pruned` row, until the benchmark PR of
        /// ROADMAP item 1(c) drops that row.
        pub vertices_pruned: u64 => _,
        /// Always 0, so never printed. This and `iso_hits` counted the
        /// summary-chain collapse and isomorphic-verdict memo layers of
        /// compaction, which were removed; both stay only because
        /// `e2ebench/src/main.rs` samples them by name as the
        /// `compact.chains_collapsed` and `compact.iso_hits` rows. A
        /// benchmark change drops those two rows first, then these two
        /// fields.
        pub chains_collapsed: u64 => _,
        /// Always 0; kept for the benchmark, as `chains_collapsed` says.
        pub iso_hits: u64 => _,
        /// Functions whose memoized absint facts a warm session run evicted
        /// (zero outside incremental re-analysis).
        pub facts_invalidated: u64 => "facts_invalidated",
        /// Slice closures a warm session run evicted because their function
        /// span intersected the edit's affected set.
        pub slices_invalidated: u64 => "slices_invalidated",
        /// Cached path verdicts a warm session run evicted via recorded
        /// `path_set_key → functions` provenance.
        pub verdicts_invalidated: u64 => "verdicts_invalidated",
        /// Candidates actually re-discovered and re-solved by a session run
        /// (retained work items replay without touching the engine); zero
        /// for every run outside the warm analysis service and the shards.
        pub candidates_reanalyzed: u64 => "candidates_reanalyzed",
        /// How much of the program the run's graph and facts hold built
        /// at its end.
        pub demand: DemandStats => ..,
    }
}

crate::counters! {
    /// How much of a program the analysis demanded: the functions whose
    /// PDG adjacency and abstract facts are built. The graph and the facts
    /// build a function's part the first time a read needs it, so these
    /// are the functions discovery stepped into and triage, seeding and
    /// the quick paths read. Each counts filled memo cells, so it is the
    /// same at any thread count. A warm session's counts include the cells
    /// it kept from earlier runs.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DemandStats {
        /// Functions whose PDG adjacency is built
        /// ([`Pdg::built_functions`]).
        pub adjacency_functions: u64 => "adjacency_functions",
        /// Functions whose whole abstract fact vector is evaluated
        /// ([`ProgramFacts::functions_evaluated`]; 0 with absint off).
        pub fact_functions: u64 => "fact_functions",
        /// Functions whose abstract return fact is evaluated
        /// ([`ProgramFacts::returns_evaluated`]; 0 with absint off).
        pub ret_fact_functions: u64 => "ret_fact_functions",
    }
}

impl DemandStats {
    /// The built cells of `pdg` and, when absint is on, `facts`.
    pub fn of(pdg: &Pdg, facts: Option<&ProgramFacts>) -> DemandStats {
        DemandStats {
            adjacency_functions: pdg.built_functions() as u64,
            fact_functions: facts.map_or(0, |f| f.functions_evaluated() as u64),
            ret_fact_functions: facts.map_or(0, |f| f.returns_evaluated() as u64),
        }
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

crate::counters! {
    /// One checker's counters in a fused multi-client run. Stage *walls*
    /// other than `solve_wall` are whole-run quantities and live on
    /// [`MultiAnalysisRun::stages`]; everything here is attributable per
    /// candidate (candidates carry their [`CheckerId`], so attribution is
    /// exact even when workers interleave checkers).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CheckerStats {
        /// Bug reports for this checker.
        pub findings: u64 => "findings",
        /// This checker's candidates whose every path was proven infeasible.
        pub suppressed: u64 => "suppressed",
        /// Candidates discovered for this checker.
        pub candidates: u64 => "candidates",
        /// Feasibility queries issued to an engine for this checker's
        /// candidates (verdict-cache hits excluded).
        pub queries: u64 => "queries",
        /// Verdict-cache hits while deciding this checker's candidates.
        pub cache_hits: u64 => "cache_hits",
        /// Verdict-cache misses while deciding this checker's candidates.
        pub cache_misses: u64 => "cache_misses",
        /// DFS steps the fused discovery spent on this checker's sources.
        pub discovery_steps: u64 => "discovery_steps",
        /// Engine wall-time spent answering this checker's queries (summed
        /// over workers).
        pub solve_wall: Duration => "solve_ms",
        /// Engine queries answered `Unknown` (budget exhausted). The
        /// verdict cache never stores `Unknown`, so each comes from an
        /// engine; a later feasible path of the same candidate can hide it
        /// from the reports, never from this count.
        pub unknown_queries: u64 => "unknown_queries",
    }
}

/// One checker's share of a fused multi-client run: its reports (in the
/// exact order a single-checker run would produce them) and its counters.
#[derive(Debug, Clone)]
pub struct CheckerBreakdown {
    /// The client's bug class.
    pub kind: CheckKind,
    /// Bug reports for this checker, in canonical candidate order.
    pub reports: Vec<BugReport>,
    /// This checker's counters.
    pub stats: CheckerStats,
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
            suppressed += b.stats.suppressed as usize;
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
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        Self {
            propagate: PropagateOptions::default(),
            use_cache: true,
            slice_cache: Some(Arc::new(SliceCache::new())),
            absint: true,
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

/// Everything one run shares, by reference, between its discovery side
/// and its solve workers.
struct RunCtx<'a> {
    program: &'a Program,
    pdg: &'a Pdg,
    set: &'a CheckerSet,
    options: &'a AnalysisOptions,
    cache: Option<&'a VerdictCache>,
    facts: Option<&'a Arc<ProgramFacts>>,
    prov: Option<&'a Provenance>,
    /// Each checker's sources, sinks and sanitizers, resolved once.
    roles: &'a CheckerRoles,
    /// The `(checker, source)` work list in canonical order
    /// ([`CheckerRoles::sources`]).
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
        let d = discover_item(
            self.program,
            self.pdg,
            self.set.get(id),
            self.roles,
            id,
            &self.options.propagate,
            src,
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
    /// Per-checker counters (indexed by `CheckerId.0`).
    tallies: Vec<CheckerStats>,
    /// Run-wide counters: triage, sessions skipped, and (once finished)
    /// the engine's stage deltas.
    stages: StageStats,
}

/// A finished worker's share of the run.
struct WorkerOut {
    name: &'static str,
    results: Vec<((usize, usize), CandVerdict)>,
    tallies: Vec<CheckerStats>,
    memory: MemoryAccountant,
    stages: StageStats,
}

impl<'e> Worker<'e> {
    fn new(ctx: &RunCtx, engine: &'e mut dyn FeasibilityEngine) -> Self {
        engine.begin_run(ctx.program);
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
            tallies: vec![CheckerStats::default(); ctx.set.len()],
            stages: StageStats::default(),
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
        // A group that issued no query because triage refuted paths in
        // it is a session the run never had to open.
        let queries = |tallies: &[CheckerStats]| tallies.iter().map(|t| t.queries).sum::<u64>();
        let (q_before, tr_before) = (queries(&self.tallies), self.stages.triaged_paths);
        for (local, cand) in &group.cands {
            let tally = &mut self.tallies[cand.checker.0];
            let v = solve_candidate(ctx, &mut *self.engine, cand, tally, &mut self.stages);
            self.results.push(((group.item, *local), v));
        }
        if queries(&self.tallies) == q_before && self.stages.triaged_paths > tr_before {
            self.stages.sessions_skipped += 1;
        }
    }

    fn finish(mut self) -> WorkerOut {
        self.stages.engine = self.engine.stage_totals().since(&self.stages_before);
        WorkerOut {
            name: self.engine.name(),
            results: self.results,
            tallies: self.tallies,
            memory: self.engine.memory().clone(),
            stages: self.stages,
        }
    }
}

/// Decides one candidate: query each alternative path until one is
/// feasible. With a cache, each path's verdict is looked up by canonical
/// key first and engine misses are stored back (Unknown is never stored).
/// `tally.queries` counts only queries actually issued to the engine;
/// hits/misses/solve-wall/unknowns accumulate alongside so solve effort is
/// attributed per checker, while triage goes to the run-wide `stages`.
///
/// When abstract facts are supplied, each path is first checked against
/// them ([`ProgramFacts::path_refuted`]): a refuted path is infeasible in
/// every execution, so it is skipped with zero cache or engine work, and a
/// candidate whose *every* path is refuted short-circuits to suppression
/// before [`FeasibilityEngine::begin_candidate`] — no session is touched
/// and no slice closure is ever computed for it. Triage may only refute,
/// never claim feasibility, so reports are byte-identical either way.
///
/// When a session provenance is supplied (warm analysis service), every
/// verdict-cache *insert* also records the inserted key's on-path
/// function span — the `path_set_key → functions` index the
/// dirtiness tracker later uses to evict exactly the entries an edit can
/// reach. The record holds function ids and content hashes only, never a
/// condition (§3.2.2).
fn solve_candidate(
    ctx: &RunCtx,
    engine: &mut dyn FeasibilityEngine,
    cand: &Candidate,
    tally: &mut CheckerStats,
    stages: &mut StageStats,
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
    stages.triaged_paths += refuted as u64;
    if refuted == cand.paths.len() {
        stages.triaged_candidates += 1;
        stages.slices_skipped += 1;
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
                        let v = query(ctx, engine, slice, tally);
                        c.insert(key, v);
                        if let Some(p) = ctx.prov {
                            p.record(key, slice);
                        }
                        v
                    }
                }
            }
            None => query(ctx, engine, slice, tally),
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

/// Decides one path's feasibility on the engine, charging the query to
/// the checker's tally.
fn query(
    ctx: &RunCtx,
    engine: &mut dyn FeasibilityEngine,
    slice: &[DependencePath],
    tally: &mut CheckerStats,
) -> Feasibility {
    tally.queries += 1;
    let o = engine.check_paths(ctx.program, ctx.pdg, slice);
    tally.solve_wall += o.duration;
    if o.feasibility == Feasibility::Unknown {
        tally.unknown_queries += 1;
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
    tallies: Vec<CheckerStats>,
    per_checker_steps: &[u64],
) -> Vec<CheckerBreakdown> {
    let mut out: Vec<CheckerBreakdown> = set
        .iter()
        .zip(tallies)
        .map(|((id, c), tally)| CheckerBreakdown {
            kind: c.kind,
            reports: Vec::new(),
            stats: CheckerStats {
                discovery_steps: per_checker_steps[id.0],
                ..tally
            },
        })
        .collect();
    for (id, v) in ordered {
        let b = &mut out[id.0];
        b.stats.candidates += 1;
        match v {
            CandVerdict::Suppressed => b.stats.suppressed += 1,
            CandVerdict::Report(r) => {
                b.stats.findings += 1;
                b.reports.push(r);
            }
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
/// through bounded channels into sticky solve workers — one per thread,
/// but no more than there are work items: a group goes to worker `sink
/// function % workers`, so a sink function targeted by several items or
/// checkers lands on one engine, which keeps one warm session and
/// instance memo across all of them. Solving overlaps
/// discovery. Results merge by `(work item, candidate)` index, so the
/// reports are byte-identical at any thread count. The run is named
/// `"{engine}×{threads}"` (e.g. `"fusion×4"`).
///
/// Timing: `propagate_time` is the span until the last work item was
/// discovered; `solve_time` is the rest of the run's wall, so
/// [`MultiAnalysisRun::total_time`] is the true end-to-end wall.
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
/// the edited program (dependence paths and slice closures never leave
/// the component). Only outcomes are recorded — never a path condition
/// (§3.2.2).
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
/// resident facts, recorded outcomes, the edit's affected-function mask,
/// and the provenance recorder.
#[derive(Default)]
pub(crate) struct SessionParams<'a> {
    /// Precomputed abstract facts (`None` = absint off for this run).
    /// A session run never computes facts itself — the resident session
    /// owns them and recomputes only dirty functions.
    pub(crate) facts: Option<Arc<ProgramFacts>>,
    /// Outcomes recorded by the previous session run.
    pub(crate) retained: Option<&'a ItemOutcomes>,
    /// Per-function "the edit can reach this" mask — the connected
    /// component of the edited functions over the symmetric
    /// caller∪callee adjacency (of the old and new programs). A work
    /// item whose source function is unaffected replays its retained
    /// record instead of re-running discovery and solving.
    pub(crate) affected: Option<&'a [bool]>,
    /// Provenance recorder for verdict-cache inserts (the
    /// `path_set_key → functions` index the next edit's invalidation
    /// uses).
    pub(crate) prov: Option<&'a Provenance>,
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
/// A cold run (`session == None`) makes empty abstract facts, which
/// triage and the engines evaluate as they read them; a session run takes
/// them from the resident state, and is the only kind that records
/// [`ItemOutcomes`] and counts [`StageStats::candidates_reanalyzed`].
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
    // Facts are made once per run, evaluated per function on first read,
    // and shared by driver-side triage and engine-side seeding.
    let facts = if cold {
        options.absint.then(|| Arc::new(ProgramFacts::new(program)))
    } else {
        session.facts
    };
    let roles = CheckerRoles::new(program, set);
    let items = roles.sources(program, set);
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
    let ctx = RunCtx {
        program,
        pdg,
        set,
        options,
        cache,
        facts: facts.as_ref(),
        prov: session.prov,
        roles: &roles,
        items: &items,
    };
    let threads = match engines {
        Engines::Borrowed(_) => None,
        Engines::Built(_, threads) => Some(threads),
    };
    let (workers, discovered, propagate_time) = match engines {
        Engines::Borrowed(engine) => inline(&ctx, &live, engine),
        Engines::Built(factory, 1) => inline(&ctx, &live, factory().as_mut()),
        Engines::Built(factory, threads) => pipeline(&ctx, &live, factory, threads, t0),
    };
    let solve_time = t0.elapsed().saturating_sub(propagate_time);
    let name = workers[0].name;

    // Merge in (work item, candidate) order — the canonical discovery
    // order, checker-major since the work list is, and independent of
    // which worker decided what.
    let mut tallies = vec![CheckerStats::default(); set.len()];
    let mut memories: Vec<MemoryAccountant> = Vec::with_capacity(workers.len());
    let mut stages = StageStats::default();
    let mut merged: Vec<((usize, usize), CandVerdict)> = Vec::new();
    for o in workers {
        for (t, wt) in tallies.iter_mut().zip(&o.tallies) {
            t.add(wt);
        }
        memories.push(o.memory);
        stages.add(&o.stages);
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
    stages.discovery_shards = discovered.len() as u64;
    if !cold {
        stages.candidates_reanalyzed = live_candidates;
    }
    stages.demand = DemandStats::of(pdg, facts.as_deref());

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
    let queries = tallies.iter().map(|t| t.queries).sum::<u64>() as usize;
    let checkers = assemble_breakdowns(set, ordered, tallies, &per_checker_steps);

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
/// the summed per-item discovery wall.
fn inline(
    ctx: &RunCtx,
    live: &[usize],
    engine: &mut dyn FeasibilityEngine,
) -> (Vec<WorkerOut>, Vec<Discovered>, Duration) {
    let mut worker = Worker::new(ctx, engine);
    let mut found = Discovered::default();
    let mut discover_wall = Duration::ZERO;
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

/// Runs the live items through the streaming pipeline on up to `threads`
/// (≥ 2) factory-built engines: one solve worker per thread, but no more
/// workers than live items, and as many producers. Producers steal work
/// items off a cursor and send each item's sink groups down the bounded
/// channel (`sync_channel(2)`) of worker `sink function % workers`; each
/// worker owns its channel's receiver. Sticky routing keeps every group
/// of one sink function on one engine, so its session and instance memo
/// amortize across the per-item fragments, and solving overlaps
/// discovery. The discovery span runs from `t0` until the last producer
/// finished.
///
/// Only producers hold senders (the scope drops its own after spawning
/// them), so a worker's channel disconnects, and the worker returns,
/// once every producer is done. A worker that panics drops its receiver
/// on unwind: every send to it, blocked or not, then fails, the
/// producers stop, and the panic propagates through the join instead of
/// deadlocking it.
fn pipeline(
    ctx: &RunCtx,
    live: &[usize],
    factory: &(dyn Fn() -> Box<dyn FeasibilityEngine> + Sync),
    threads: usize,
    t0: Instant,
) -> (Vec<WorkerOut>, Vec<Discovered>, Duration) {
    let workers = threads.min(live.len()).max(1);
    let (senders, receivers): (Vec<SyncSender<SinkGroup>>, Vec<Receiver<SinkGroup>>) =
        (0..workers).map(|_| sync_channel(2)).unzip();
    let cursor = &AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let worker_handles: Vec<_> = receivers
            .into_iter()
            .map(|groups| {
                scope.spawn(move || {
                    let mut engine = factory();
                    let mut worker = Worker::new(ctx, engine.as_mut());
                    for group in groups {
                        worker.solve_group(ctx, &group);
                    }
                    worker.finish()
                })
            })
            .collect();
        let producer_handles: Vec<_> = (0..workers)
            .map(|_| {
                let senders = senders.clone();
                scope.spawn(move || {
                    let mut found = Discovered::default();
                    'items: while let Some(&i) = live.get(cursor.fetch_add(1, Ordering::Relaxed)) {
                        for group in ctx.discover(i, &mut found) {
                            if senders[group.sink_key as usize % workers]
                                .send(group)
                                .is_err()
                            {
                                break 'items; // that worker panicked
                            }
                        }
                    }
                    (found, t0.elapsed())
                })
            })
            .collect();
        drop(senders);
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
                uncached.checkers[0].stats.suppressed,
                cached.checkers[0].stats.suppressed
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
            fused
                .checkers
                .iter()
                .map(|b| b.stats.candidates)
                .sum::<u64>(),
            fused.candidates as u64
        );
        assert_eq!(
            fused.checkers.iter().map(|b| b.stats.queries).sum::<u64>(),
            fused.queries as u64
        );
        for (id, checker) in set.iter() {
            let mut e = FusionSolver::new(SolverConfig::default());
            let single = analyze(&p, &g, checker, &mut e, &AnalysisOptions::new());
            let b = &fused.checkers[id.0];
            assert_eq!(b.kind, checker.kind);
            assert_eq!(
                b.stats.candidates, single.candidates as u64,
                "candidates for {id}"
            );
            assert_eq!(
                b.stats.suppressed, single.suppressed as u64,
                "suppressed for {id}"
            );
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
                assert_eq!(
                    sb.stats.suppressed, rb.stats.suppressed,
                    "threads={threads}"
                );
                // Not just set equality: identical order and contents.
                let a: Vec<_> = sb.reports.iter().map(report_key).collect();
                let b: Vec<_> = rb.reports.iter().map(report_key).collect();
                assert_eq!(a, b, "threads={threads} kind={}", sb.kind);
            }
        }
    }

    #[test]
    fn discovery_walks_every_source_of_the_plain_pdg() {
        // `lost`'s null source reaches no sink, yet discovery still walks
        // it: two steps from each source (`q`, then the return or the
        // `ite` feeding `deref`), four in all. One candidate, `f`'s.
        let src = "extern fn deref(p);\n\
             fn lost() { let q = null; return q; }\n\
             fn f(x) { let q = null; let r = 1; if (x > 0) { r = q; } deref(r); return 0; }";
        let p = compile(src, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let set = CheckerSet::all();
        let run = fused(&p, &g, &set, &AnalysisOptions::new());
        assert_eq!(run.candidates, 1);
        assert_eq!(run.stages.discovery_steps, 4);
        assert_eq!(run.checkers[0].stats.discovery_steps, 4);
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
        assert!(fused.stages.engine.sessions_opened >= 1);
        let mut loop_sessions = 0u64;
        let mut loop_steps = 0u64;
        for (_, checker) in set.iter() {
            let mut e = FusionSolver::new(SolverConfig::default());
            let run = analyze(&p, &g, checker, &mut e, &AnalysisOptions::without_cache());
            loop_sessions += run.stages.engine.sessions_opened;
            loop_steps += run.stages.discovery_steps;
        }
        assert!(fused.stages.engine.sessions_opened <= loop_sessions);
        // Discovery work is identical — it is the redundant *passes* the
        // fusion removes, not steps.
        assert_eq!(fused.stages.discovery_steps, loop_steps);
        assert_eq!(
            fused
                .checkers
                .iter()
                .map(|b| b.stats.discovery_steps)
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

    #[test]
    fn the_pipeline_builds_no_more_engines_than_work_items() {
        // Two null sources, so two work items: 64 requested threads must
        // build at most two engines (one per solve worker), and report
        // what one thread reports.
        let src = "extern fn deref(p);\n\
             fn a(x) { let q = null; let r = 1; if (x > 1) { r = q; } deref(r); return 0; }\n\
             fn b(x) { let q = null; let r = 1; if (x * 2 == 5) { r = q; } deref(r); return 0; }";
        let p = compile(src, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let set = CheckerSet::all();
        let opts = AnalysisOptions::new();
        let built = AtomicUsize::new(0);
        let counting = || -> Box<dyn FeasibilityEngine> {
            built.fetch_add(1, Ordering::Relaxed);
            fusion_factory()
        };
        let one = analyze_multi_streaming_with_cache(&p, &g, &set, &counting, 1, &opts, None);
        assert_eq!(built.swap(0, Ordering::Relaxed), 1);
        let many = analyze_multi_streaming_with_cache(&p, &g, &set, &counting, 64, &opts, None);
        assert!(built.load(Ordering::Relaxed) <= 2, "{built:?} engines");
        assert_eq!(many.engine, "fusion×64");
        let keys = |run: &MultiAnalysisRun| run.all_reports().map(report_key).collect::<Vec<_>>();
        assert_eq!(keys(&one), keys(&many));
        assert_eq!(one.candidates, 2);
    }

    /// An engine that panics on its first query.
    struct PanickingEngine(MemoryAccountant);

    impl FeasibilityEngine for PanickingEngine {
        fn name(&self) -> &'static str {
            "panicking"
        }
        fn check_paths(&mut self, _: &Program, _: &Pdg, _: &[DependencePath]) -> CheckOutcome {
            panic!("engine failure");
        }
        fn memory(&self) -> &MemoryAccountant {
            &self.0
        }
        fn records(&self) -> &[SolveRecord] {
            &[]
        }
    }

    #[test]
    fn a_panicking_solve_worker_fails_the_run_instead_of_hanging() {
        // 24 sink functions give each of the four workers six groups,
        // more than its channel holds, so a producer can be blocked on a
        // full channel when that channel's worker dies.
        let mut src = String::from("extern fn deref(p);\n");
        for i in 0..24 {
            src.push_str(&format!(
                "fn f{i}(x) {{ let q = null; let r = 1; if (x > {i}) {{ r = q; }} deref(r); return 0; }}\n"
            ));
        }
        let (tx, rx) = std::sync::mpsc::channel();
        let handle = std::thread::spawn(move || {
            let p = compile(&src, CompileOptions::default()).expect("compile");
            let g = Pdg::build(&p);
            let set = CheckerSet::single(Checker::null_deref());
            // No triage, so every candidate reaches an engine.
            let opts = AnalysisOptions {
                absint: false,
                ..AnalysisOptions::without_cache()
            };
            let factory = || -> Box<dyn FeasibilityEngine> {
                Box::new(PanickingEngine(MemoryAccountant::new()))
            };
            let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                analyze_multi_streaming_with_cache(&p, &g, &set, &factory, 4, &opts, None)
            }));
            let _ = tx.send(run.is_err());
        });
        let failed = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the run must end, not deadlock");
        handle.join().expect("the panic was caught");
        assert!(failed, "the worker's panic must reach the caller");
    }
}
