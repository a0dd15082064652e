//! The IR-based SMT solutions: Algorithm 4 (unoptimized) and Algorithm 6
//! (optimized — the Fusion solver).
//!
//! Both consume a set Π of dependence paths and decide the feasibility of
//! `φ_Π` **without the analysis ever having computed a condition**: the
//! slice *is* the condition (§3.2.1). The difference is what happens to
//! cloning:
//!
//! * [`UnoptimizedGraphSolver`] (Alg. 4) slices, clones every callee at
//!   every call site in the slice, translates, and calls the standalone
//!   pipeline — linear per instance but exponentially many instances;
//! * [`FusionSolver`] (Alg. 6) first computes a *local* condition per
//!   function (once, not per clone), preprocesses it intra-procedurally
//!   with its interface protected, consults the entry→exit **quick paths**
//!   ([`crate::quickpath`]) to delete call/return labels whose callees
//!   have constant or affine returns (Fig. 9), and only then instantiates
//!   the shrunken residue at the surviving call sites.
//!
//! Neither engine ever caches a *path condition* — the "no caching"
//! property of §3.2.2 concerns conditions. [`FusionSolver`] does retain
//! query-independent artifacts across queries in one *epoch*: preprocessed
//! local conditions (linear-size graph data), instantiated residues, and —
//! in incremental mode — a [`SolveSession`] holding the Tseitin encodings
//! and learnt clauses of formulas already solved. Epochs are bounded: a
//! group boundary past [`FusionSolver::epoch_pool_limit`] resets the pool,
//! the caches and the session together (their keys are `TermId`s, which a
//! pool reset invalidates).

use crate::absint::ProgramFacts;
use crate::cache::{path_set_key, Key128};
use crate::engine::{CheckOutcome, EngineStages, Feasibility, FeasibilityEngine, SolveRecord};
use crate::memory::{Category, MemoryAccountant, BYTES_PER_TERM_NODE};
use crate::quickpath::{ret_summaries, RetSummary};
use crate::slice_cache::{Closure, SliceCache};
use fusion_ir::ssa::{CallSiteId, DefKind, FuncId, Program, VarId, WORD_BITS};
use fusion_pdg::graph::Pdg;
use fusion_pdg::paths::DependencePath;
use fusion_pdg::slice::{
    compute_closure, compute_slice, constraints_for, Constraint, ConstraintKind,
};
use fusion_pdg::translate::{
    encode_op, instance_var_tracked, translate, truthy, TranslateOptions, VarOrigins,
};
use fusion_smt::preprocess::{preprocess_fragment_seeded, refute_by_known_bits_seeded, BitsSeeds};
use fusion_smt::session::SolveSession;
use fusion_smt::solver::{deadline_expired, smt_solve, SatResult, SolverConfig};
use fusion_smt::term::{Sort, TermId, TermKind, TermPool, VarIdx};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Algorithm 4: slice → clone everything → translate → standalone solve.
#[derive(Debug)]
pub struct UnoptimizedGraphSolver {
    /// Per-query SMT budget.
    pub per_call: SolverConfig,
    /// Cloning budget; exceeding it yields [`Feasibility::Unknown`].
    pub translate_opts: TranslateOptions,
    memory: MemoryAccountant,
    records: Vec<SolveRecord>,
    stages: EngineStages,
}

impl UnoptimizedGraphSolver {
    /// Creates the engine with the given per-query budget.
    pub fn new(per_call: SolverConfig) -> Self {
        Self {
            per_call,
            translate_opts: TranslateOptions::default(),
            memory: MemoryAccountant::new(),
            records: Vec::new(),
            stages: EngineStages::default(),
        }
    }
}

impl FeasibilityEngine for UnoptimizedGraphSolver {
    fn name(&self) -> &'static str {
        "fusion-unopt"
    }

    fn check_paths(
        &mut self,
        program: &Program,
        pdg: &Pdg,
        paths: &[DependencePath],
    ) -> CheckOutcome {
        let start = Instant::now();
        let deadline = self.per_call.deadline_from(start);
        // Algorithm 4 bypasses the slice memo by design: it re-slices every
        // query from scratch (the baseline the optimized pipeline is
        // measured against), so `begin_candidate` / `attach_slice_cache`
        // stay at their no-op defaults.
        let slice = compute_slice(program, pdg, paths);
        self.stages.slices_computed += 1;
        self.stages.slice_wall += start.elapsed();
        // Fresh pool per query: nothing is cached (§3.2.2).
        let translate_start = Instant::now();
        let mut pool = TermPool::new();
        let translated = match translate(program, &slice, &mut pool, &self.translate_opts) {
            Ok(t) => t,
            Err(_) => {
                self.stages.translate_wall += translate_start.elapsed();
                return CheckOutcome {
                    feasibility: Feasibility::Unknown,
                    duration: start.elapsed(),
                    condition_nodes: pool.len() as u64,
                    instances: 0,
                    preprocess_decided: false,
                };
            }
        };
        let condition_nodes = pool.dag_size(translated.formula) as u64;
        self.stages.translate_wall += translate_start.elapsed();
        // Budget the final query with whatever wall-clock remains after
        // slicing and translation; an exhausted budget degrades to Unknown
        // instead of stalling a worker.
        let Some(cfg) = self.per_call.with_remaining(deadline) else {
            let outcome = CheckOutcome {
                feasibility: Feasibility::Unknown,
                duration: start.elapsed(),
                condition_nodes,
                instances: translated.instances,
                preprocess_decided: false,
            };
            self.records.push(SolveRecord::from_outcome(&outcome));
            return outcome;
        };
        // Transient memory: the cloned condition is resident *during* the
        // query, so charge it before solving; the SAT clause bytes are only
        // known once the query returns, so they are charged (and everything
        // released) afterwards. Charging and releasing back-to-back would
        // never overlap the query and understate concurrent peaks.
        let cond_bytes = condition_nodes * BYTES_PER_TERM_NODE;
        self.memory.charge(Category::SolverState, cond_bytes);
        let solve_start = Instant::now();
        let (result, stats) = smt_solve(&mut pool, translated.formula, &cfg);
        self.stages.solve_wall += solve_start.elapsed();
        let clause_bytes = stats.cnf_clauses as u64 * 16;
        self.memory.charge(Category::SolverState, clause_bytes);
        self.memory
            .release(Category::SolverState, cond_bytes + clause_bytes);
        let feasibility = match result {
            SatResult::Sat(_) => Feasibility::Feasible,
            SatResult::Unsat => Feasibility::Infeasible,
            SatResult::Unknown => Feasibility::Unknown,
        };
        let outcome = CheckOutcome {
            feasibility,
            duration: start.elapsed(),
            condition_nodes,
            instances: translated.instances,
            preprocess_decided: stats.preprocess_decided,
        };
        self.records.push(SolveRecord::from_outcome(&outcome));
        outcome
    }

    fn memory(&self) -> &MemoryAccountant {
        &self.memory
    }

    fn records(&self) -> &[SolveRecord] {
        &self.records
    }

    fn stage_totals(&self) -> EngineStages {
        self.stages
    }
}

/// A function's local condition: equations over uncontexted names,
/// preprocessed once with the interface protected.
#[derive(Debug, Clone)]
struct LocalCond {
    formula: TermId,
    /// smt variable → IR variable, for per-instance renaming.
    var_map: HashMap<VarIdx, VarId>,
}

/// Renames a preprocessed local condition into the instance named by `ctx`:
/// interface variables map to their context-tagged instance names,
/// preprocessing-introduced fresh variables are renamed apart per instance.
/// Instance-variable provenance is recorded in `origins` so the final
/// formula can be seeded with per-function abstract facts.
fn instantiate(
    pool: &mut TermPool,
    lc: &LocalCond,
    ctx: &[CallSiteId],
    fid: FuncId,
    origins: &mut VarOrigins,
) -> TermId {
    let mut subst: HashMap<VarIdx, TermId> = HashMap::new();
    for smt_var in pool.free_vars(lc.formula) {
        let target = match lc.var_map.get(&smt_var) {
            Some(&ir_var) => instance_var_tracked(pool, ctx, fid, ir_var, origins),
            None => pool.fresh_var("inst", pool.var_sort(smt_var)),
        };
        subst.insert(smt_var, target);
    }
    pool.substitute(lc.formula, &subst)
}

/// A cached local condition with its accounting and recency metadata.
#[derive(Debug, Clone)]
struct CachedLocal {
    cond: LocalCond,
    /// Bytes charged to [`Category::Cache`] for this entry.
    bytes: u64,
    /// Last-touched tick, for LRU eviction.
    tick: u64,
}

/// The candidate the driver announced via
/// [`FeasibilityEngine::begin_candidate`]: its canonical content key, its
/// full path set, and the lazily resolved union closure shared by every
/// alternative-path query of the candidate.
///
/// The closure stays `None` until a query actually needs it, so a
/// candidate fully answered by the verdict cache never slices at all.
#[derive(Debug)]
struct CandCtx {
    key: Key128,
    paths: Vec<DependencePath>,
    closure: Option<Arc<Closure>>,
}

/// Solver-side counters for the bench harness (`solve_bench`), aggregated
/// over every `check_paths` call issued to one [`FusionSolver`].
#[derive(Debug, Clone, Copy, Default)]
pub struct FusionMetrics {
    /// Term-pool nodes built across all queries (pool growth, which for a
    /// cold engine equals everything: local conditions, instances,
    /// preprocessing rewrites).
    pub terms_built: u64,
    /// Permanent CNF clauses held by the incremental session (0 in cold
    /// mode — cold clauses die with each query's solver).
    pub session_clauses: u64,
    /// SAT conflicts accumulated by the incremental session.
    pub session_conflicts: u64,
    /// Learnt clauses currently retained by the session.
    pub session_learnts: u64,
}

/// Algorithm 6: the optimized, fused solver.
#[derive(Debug)]
pub struct FusionSolver {
    /// Per-query SMT budget.
    pub per_call: SolverConfig,
    /// Instance budget for the residual cloning (rarely reached).
    pub max_instances: usize,
    /// Ablation: disable the quick-path summaries (every callee is cloned
    /// as in Algorithm 4).
    pub use_quick_paths: bool,
    /// Ablation: skip the intra-procedural preprocessing of local
    /// conditions (clone raw equations).
    pub use_local_preprocess: bool,
    /// Solve final queries through one incremental [`SolveSession`] per
    /// epoch (assumption-guarded CDCL with memoized bit-blasting and
    /// learnt-clause retention) instead of a cold per-query pipeline.
    /// Verdicts are identical either way; this is purely a time/space
    /// trade. The CLI exposes `--no-incremental` to turn it off.
    pub incremental: bool,
    /// Pool-size threshold (term nodes) above which a group boundary
    /// ([`FeasibilityEngine::begin_group`]) resets the solving epoch —
    /// pool, caches and session together. High by default so small runs
    /// never reset.
    pub epoch_pool_limit: usize,
    /// Entry-count bound of the local-condition cache; least recently
    /// used entries are evicted beyond it.
    pub local_cache_cap: usize,
    memory: MemoryAccountant,
    records: Vec<SolveRecord>,
    /// Quick-path summaries, computed once per program (keyed by a cheap
    /// program identity: function count + size).
    summaries: Option<(usize, usize, Vec<RetSummary>)>,
    /// Persistent pool hosting the cached per-function local conditions.
    /// These are *linear-size graph data* (an alternative encoding of the
    /// PDG slice, preprocessed once per (function, slice) — §3.2.3), not
    /// path conditions: their bytes are charged to [`Category::Cache`]
    /// like the verdict cache's.
    pool: TermPool,
    local_cache: HashMap<(FuncId, u64), CachedLocal>,
    /// Total bytes currently charged for `local_cache` entries.
    local_cache_bytes: u64,
    /// Monotone counter backing the LRU order of `local_cache`.
    tick: u64,
    /// The incremental solving session of the current epoch (lazy).
    session: Option<SolveSession>,
    /// Instantiated-residue memo: `(context, function, local formula) →
    /// instance formula`. Avoids re-running the substitution (and minting
    /// fresh `inst` variables) for instantiations repeated across queries
    /// in one epoch. Sharing the preprocessing-introduced fresh variables
    /// across queries is sound: each query's constraints on them live
    /// under that query's own root assumption.
    inst_cache: HashMap<(Vec<CallSiteId>, FuncId, TermId), TermId>,
    terms_built: u64,
    /// Shared slice-closure memo, attached by the driver
    /// ([`FeasibilityEngine::attach_slice_cache`]). Holds dependence
    /// structure only — never formulas (§3.2.2's "no caching" concerns
    /// *conditions*).
    slice_cache: Option<Arc<SliceCache>>,
    /// The current candidate context ([`FeasibilityEngine::begin_candidate`]),
    /// sharing one union closure across its alternative-path queries.
    cand: Option<CandCtx>,
    /// Per-stage wall and counter totals ([`EngineStages`]).
    stages: EngineStages,
    /// Abstract-interpretation facts attached by the driver
    /// ([`FeasibilityEngine::attach_absint`]). Used to seed the known-bits
    /// analysis of local-condition preprocessing and the final assembled
    /// query (refute-only — never changes which candidates are reported).
    facts: Option<Arc<ProgramFacts>>,
    /// Provenance of instance variables minted this epoch: which
    /// `(function, IR variable)` each SMT clone instantiates. Facts are
    /// memoized per function, so every clone of one definition shares one
    /// seed.
    origins: VarOrigins,
}

impl FusionSolver {
    /// Creates the engine with the given per-query budget.
    pub fn new(per_call: SolverConfig) -> Self {
        Self {
            per_call,
            max_instances: 1 << 16,
            use_quick_paths: true,
            use_local_preprocess: true,
            incremental: true,
            epoch_pool_limit: 1 << 20,
            local_cache_cap: 1024,
            memory: MemoryAccountant::new(),
            records: Vec::new(),
            summaries: None,
            pool: TermPool::new(),
            local_cache: HashMap::new(),
            local_cache_bytes: 0,
            tick: 0,
            session: None,
            inst_cache: HashMap::new(),
            terms_built: 0,
            slice_cache: None,
            cand: None,
            stages: EngineStages::default(),
            facts: None,
            origins: VarOrigins::new(),
        }
    }

    /// Aggregate solver-side metrics (see [`FusionMetrics`]).
    pub fn metrics(&self) -> FusionMetrics {
        FusionMetrics {
            terms_built: self.terms_built,
            session_clauses: self
                .session
                .as_ref()
                .map(|s| s.permanent_clauses() as u64)
                .unwrap_or(0),
            session_conflicts: self.session.as_ref().map(|s| s.conflicts()).unwrap_or(0),
            session_learnts: self
                .session
                .as_ref()
                .map(|s| s.learnt_clauses() as u64)
                .unwrap_or(0),
        }
    }

    /// Drops everything keyed by `TermId`: the pool, the local-condition
    /// and instantiation caches, and the session. Called when the program
    /// changes and when a group boundary finds the pool past
    /// [`FusionSolver::epoch_pool_limit`].
    fn reset_epoch(&mut self) {
        self.pool = TermPool::new();
        self.local_cache.clear();
        self.memory.release(Category::Cache, self.local_cache_bytes);
        self.local_cache_bytes = 0;
        self.inst_cache.clear();
        self.session = None;
        self.origins = VarOrigins::new();
        self.memory.set(Category::SolverState, 0);
    }

    fn summaries_for(&mut self, program: &Program) -> &[RetSummary] {
        let key = (program.functions.len(), program.size());
        let stale = match &self.summaries {
            Some((n, s, _)) => (*n, *s) != key,
            None => true,
        };
        if stale {
            // The quick-path summaries are the Const/Affine projection of
            // the abstract-interpretation domain; when the driver attached
            // matching facts, project them instead of recomputing.
            let sums = match &self.facts {
                Some(f) if f.matches(program) => f.ret_summaries(),
                _ => ret_summaries(program),
            };
            self.summaries = Some((key.0, key.1, sums));
            self.reset_epoch();
        }
        &self.summaries.as_ref().expect("just set").2
    }

    /// Builds (and preprocesses, once per distinct (function, slice) pair)
    /// the local condition over the sliced vertices. The protected
    /// interface is query-independent: parameters, the return value, call
    /// results and arguments, and every branch/ite condition a constraint
    /// could ever reference — so the cached condition is sound for all
    /// queries sharing the vertex set.
    fn local_condition(
        &mut self,
        program: &Program,
        fid: FuncId,
        verts: &std::collections::BTreeSet<VarId>,
    ) -> LocalCond {
        // FNV-style hash of the vertex set as the cache key.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for v in verts {
            h ^= v.0 as u64 + 1;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.local_cache.get_mut(&(fid, h)) {
            entry.tick = tick;
            return entry.cond.clone();
        }
        let func = program.func(fid);
        let pool = &mut self.pool;
        let mut var_map: HashMap<VarIdx, VarId> = HashMap::new();
        let mut local = |pool: &mut TermPool, v: VarId| -> TermId {
            let t = pool.var(&format!("l{}:v{}", fid.0, v.0), Sort::Bv(WORD_BITS));
            if let TermKind::Var(idx) = *pool.kind(t) {
                var_map.insert(idx, v);
            }
            t
        };
        let mut parts = Vec::new();
        let mut protected: HashSet<VarIdx> = HashSet::new();
        let protect = |pool: &mut TermPool, protected: &mut HashSet<VarIdx>, t: TermId| {
            if let TermKind::Var(idx) = *pool.kind(t) {
                protected.insert(idx);
            }
        };
        // Variables that any query's constraints could reference: branch
        // and ite conditions (query-independent rule).
        let mut cond_vars: HashSet<VarId> = HashSet::new();
        for def in &func.defs {
            match &def.kind {
                DefKind::Branch { cond } => {
                    cond_vars.insert(*cond);
                }
                DefKind::Ite { cond, .. } => {
                    cond_vars.insert(*cond);
                }
                _ => {}
            }
        }
        for &v in verts {
            let def = func.def(v);
            match &def.kind {
                // Cross-instance equations are emitted per instance, not
                // here; their endpoints are interface variables.
                DefKind::Param { .. } => {
                    let t = local(pool, v);
                    protect(pool, &mut protected, t);
                }
                DefKind::Call { args, .. } => {
                    let t = local(pool, v);
                    protect(pool, &mut protected, t);
                    for &a in args {
                        let at = local(pool, a);
                        protect(pool, &mut protected, at);
                    }
                }
                DefKind::Branch { .. } => {}
                DefKind::Const { value, .. } => {
                    let lhs = local(pool, v);
                    let k = pool.bv_const(*value as u64, WORD_BITS);
                    parts.push(pool.eq(lhs, k));
                }
                DefKind::Copy { src } | DefKind::Return { src } => {
                    let lhs = local(pool, v);
                    let rhs = local(pool, *src);
                    parts.push(pool.eq(lhs, rhs));
                }
                DefKind::Binary { op, lhs: a, rhs: b } => {
                    let lhs = local(pool, v);
                    let ta = local(pool, *a);
                    let tb = local(pool, *b);
                    let rhs = encode_op(pool, *op, ta, tb);
                    parts.push(pool.eq(lhs, rhs));
                }
                DefKind::Ite {
                    cond,
                    then_v,
                    else_v,
                } => {
                    let lhs = local(pool, v);
                    let tc = local(pool, *cond);
                    let tt = local(pool, *then_v);
                    let te = local(pool, *else_v);
                    let c = truthy(pool, tc);
                    let rhs = pool.ite(c, tt, te);
                    parts.push(pool.eq(lhs, rhs));
                }
            }
            if cond_vars.contains(&v) || Some(v) == func.ret {
                let t = local(pool, v);
                protect(pool, &mut protected, t);
            }
        }
        let raw = pool.and(&parts);
        // Intra-procedural preprocessing, once per function — never per
        // clone (§3.2.3, "reducing the number of functions to clone" /
        // "speeding up preprocessing"). When the driver attached abstract
        // facts, the fragment's known-bits analysis is seeded with them —
        // per-function facts are unconditional, so the cached fragment
        // stays sound for every instance, and bit facts fire on first
        // contact instead of being rediscovered structurally per query.
        let formula = if self.use_local_preprocess {
            let mut seeds = BitsSeeds::new();
            if let Some(facts) = &self.facts {
                if facts.matches(program) {
                    for (&idx, &v) in &var_map {
                        let av = facts.value(fid, v);
                        if av.known != 0 {
                            seeds.insert(idx, av.known as u64, av.value as u64);
                        }
                    }
                }
            }
            preprocess_fragment_seeded(pool, raw, &protected, &seeds).term
        } else {
            raw
        };
        let lc = LocalCond { formula, var_map };
        // Bounded, cache-resident data: evict least-recently-used entries
        // past the capacity, then charge this entry's bytes to
        // [`Category::Cache`] exactly like the verdict cache does.
        let bytes = self.pool.dag_size(formula) as u64 * BYTES_PER_TERM_NODE;
        while self.local_cache.len() >= self.local_cache_cap {
            // Ticks are unique, so the minimum is deterministic.
            let Some((&key, _)) = self.local_cache.iter().min_by_key(|(_, e)| e.tick) else {
                break;
            };
            let evicted = self.local_cache.remove(&key).expect("key just found");
            self.memory.release(Category::Cache, evicted.bytes);
            self.local_cache_bytes -= evicted.bytes;
        }
        self.memory.charge(Category::Cache, bytes);
        self.local_cache_bytes += bytes;
        self.local_cache.insert(
            (fid, h),
            CachedLocal {
                cond: lc.clone(),
                bytes,
                tick,
            },
        );
        lc
    }

    /// Resolves the slice closure (Rules 2–3) for `paths`, sharing work at
    /// two levels:
    ///
    /// * **within a candidate** — when the driver has announced a
    ///   candidate via [`FeasibilityEngine::begin_candidate`], the union
    ///   closure over the candidate's *full* path set is computed at most
    ///   once and serves every alternative-path query. Sound because the
    ///   closure only contributes definitional equations over acyclic SSA
    ///   (extra definitions never change satisfiability); the per-path
    ///   constraints (Rules 1/5) are recomputed per query by the caller;
    /// * **across candidates / engines / runs** — closures are memoized
    ///   in the attached [`SliceCache`] under the canonical content key
    ///   ([`path_set_key`]).
    ///
    /// Resolution is lazy: a candidate fully answered by the verdict cache
    /// never reaches this method and does zero slice work.
    fn obtain_closure(
        &mut self,
        program: &Program,
        pdg: &Pdg,
        paths: &[DependencePath],
    ) -> Arc<Closure> {
        // Candidate context: one union closure for all alternative paths.
        if let Some(ctx) = &mut self.cand {
            if let Some(c) = &ctx.closure {
                self.stages.slices_reused += 1;
                return Arc::clone(c);
            }
            if let Some(cache) = &self.slice_cache {
                if let Some(c) = cache.get(ctx.key) {
                    self.stages.slices_reused += 1;
                    ctx.closure = Some(Arc::clone(&c));
                    return c;
                }
            }
            let c = Arc::new(compute_closure(program, pdg, &ctx.paths));
            self.stages.slices_computed += 1;
            if let Some(cache) = &self.slice_cache {
                cache.insert(ctx.key, Arc::clone(&c));
            }
            ctx.closure = Some(Arc::clone(&c));
            return c;
        }
        // No candidate context (direct `check_paths` calls): memoize by
        // content key when a cache is attached, else compute fresh.
        if let Some(cache) = self.slice_cache.clone() {
            let key = path_set_key(program, paths);
            if let Some(c) = cache.get(key) {
                self.stages.slices_reused += 1;
                return c;
            }
            let c = Arc::new(compute_closure(program, pdg, paths));
            self.stages.slices_computed += 1;
            cache.insert(key, Arc::clone(&c));
            return c;
        }
        self.stages.slices_computed += 1;
        Arc::new(compute_closure(program, pdg, paths))
    }
}

impl FeasibilityEngine for FusionSolver {
    fn name(&self) -> &'static str {
        "fusion"
    }

    fn begin_group(&mut self, _group: u64) {
        // A fresh session per slice group: queries within a group share
        // almost all of their encoding, so the session amortizes heavily
        // there; *across* groups the overlap is small, and keeping one
        // session alive would make every query re-search the accumulated
        // universe (CDCL must extend its assignment over every variable
        // ever blasted). Dropping the session — but keeping the pool and
        // the term-level caches — bounds the SAT universe to one group's
        // cone. Group boundaries are also the only place the whole epoch
        // may reset: no `TermId` from a previous group is live in the
        // caller, so once the pool outgrows its budget the pool, caches
        // and session drop together.
        self.session = None;
        self.cand = None;
        if self.pool.len() > self.epoch_pool_limit {
            self.reset_epoch();
        }
    }

    fn begin_candidate(
        &mut self,
        _program: &Program,
        _pdg: &Pdg,
        key: Key128,
        paths: &[DependencePath],
    ) {
        self.cand = Some(CandCtx {
            key,
            paths: paths.to_vec(),
            closure: None,
        });
    }

    fn attach_slice_cache(&mut self, cache: Arc<SliceCache>) {
        self.slice_cache = Some(cache);
    }

    fn attach_absint(&mut self, facts: Arc<ProgramFacts>) {
        self.facts = Some(facts);
    }

    fn stage_totals(&self) -> EngineStages {
        self.stages
    }

    fn check_paths(
        &mut self,
        program: &Program,
        pdg: &Pdg,
        paths: &[DependencePath],
    ) -> CheckOutcome {
        let start = Instant::now();
        let deadline = self.per_call.deadline_from(start);
        let summaries: Vec<RetSummary> = self.summaries_for(program).to_vec();
        // Phase 2 dependence closure — memoized and shared (candidate ctx,
        // slice cache); Phase 1 constraints — cheap, recomputed from the
        // concrete queried path, never shared (§3.2.2).
        let slice_start = Instant::now();
        let closure = self.obtain_closure(program, pdg, paths);
        let constraints = constraints_for(program, paths);
        self.stages.slice_wall += slice_start.elapsed();
        // Local conditions, computed and preprocessed once per function
        // per program (cache hits across queries).
        let translate_start = Instant::now();
        let mut locals: HashMap<FuncId, LocalCond> = HashMap::new();
        for (&fid, fs) in closure.iter() {
            let lc = self.local_condition(program, fid, &fs.verts);
            locals.insert(fid, lc);
        }
        let pool_before = self.pool.len();
        let incremental = self.incremental;
        let pool = &mut self.pool;
        let inst_cache = &mut self.inst_cache;
        let origins = &mut self.origins;

        let mut parts: Vec<TermId> = Vec::new();
        let mut instances: HashSet<(Vec<CallSiteId>, FuncId)> = HashSet::new();
        let mut work: VecDeque<(Vec<CallSiteId>, FuncId)> = VecDeque::new();
        let schedule = |instances: &mut HashSet<(Vec<CallSiteId>, FuncId)>,
                        work: &mut VecDeque<(Vec<CallSiteId>, FuncId)>,
                        ctx: Vec<CallSiteId>,
                        f: FuncId| {
            if instances.insert((ctx.clone(), f)) {
                work.push_back((ctx, f));
            }
        };

        // Context-tagged constraints (identical to Algorithm 4).
        for Constraint { ctx, func, kind } in &constraints {
            schedule(&mut instances, &mut work, ctx.clone(), *func);
            let f = program.func(*func);
            match kind {
                ConstraintKind::BranchTrue { branch } => {
                    let DefKind::Branch { cond } = f.def(*branch).kind else {
                        unreachable!("guards are branches")
                    };
                    let cv = instance_var_tracked(pool, ctx, *func, cond, origins);
                    let t = truthy(pool, cv);
                    parts.push(t);
                }
                ConstraintKind::IteGate { ite, taken_then } => {
                    let DefKind::Ite { cond, .. } = f.def(*ite).kind else {
                        unreachable!("gated vertices are ites")
                    };
                    let cv = instance_var_tracked(pool, ctx, *func, cond, origins);
                    let t = truthy(pool, cv);
                    parts.push(if *taken_then { t } else { pool.not(t) });
                }
            }
        }

        // Instantiate: substitute the preprocessed local condition, emit
        // binding equations, and use quick paths to avoid descending.
        let mut blowup = false;
        while let Some((ctx, fid)) = work.pop_front() {
            // A stuck instantiation (deep contexts, huge slices) must not
            // stall a worker: the per-call deadline is polled every
            // iteration and the query degrades to Unknown, exactly like an
            // instance blowup.
            if instances.len() > self.max_instances || deadline_expired(deadline) {
                blowup = true;
                break;
            }
            let Some(fs) = closure.get(&fid) else {
                continue;
            };
            let func = program.func(fid);
            let lc = &locals[&fid];
            // Rename the local condition into this instance. In incremental
            // mode the substitution (and its fresh-variable minting) is
            // memoized per (context, function, local formula) for the
            // epoch — repeated instantiations across queries reuse the same
            // instance formula, which the session then recognizes as an
            // already-blasted subterm.
            let inst_formula = if incremental {
                match inst_cache.get(&(ctx.clone(), fid, lc.formula)) {
                    Some(&cached) => cached,
                    None => {
                        let f = instantiate(pool, lc, &ctx, fid, origins);
                        inst_cache.insert((ctx.clone(), fid, lc.formula), f);
                        f
                    }
                }
            } else {
                instantiate(pool, lc, &ctx, fid, origins)
            };
            parts.push(inst_formula);

            for &v in &fs.verts {
                match &func.def(v).kind {
                    DefKind::Param { index } => {
                        let Some(&site) = ctx.last() else { continue };
                        let cs = program.call_site(site);
                        let caller_ctx = ctx[..ctx.len() - 1].to_vec();
                        let caller = program.func(cs.caller);
                        let DefKind::Call { args, .. } = &caller.def(cs.stmt).kind else {
                            unreachable!("call sites point at calls")
                        };
                        let actual = args[*index];
                        let lhs = instance_var_tracked(pool, &ctx, fid, v, origins);
                        let rhs =
                            instance_var_tracked(pool, &caller_ctx, cs.caller, actual, origins);
                        schedule(&mut instances, &mut work, caller_ctx, cs.caller);
                        let e = pool.eq(lhs, rhs);
                        parts.push(e);
                    }
                    DefKind::Call { callee, args, site } => {
                        let callee_f = program.func(*callee);
                        if callee_f.is_extern {
                            continue; // unconstrained result
                        }
                        let lhs = instance_var_tracked(pool, &ctx, fid, v, origins);
                        // Quick path: constant / affine callees never get
                        // cloned — the parenthesis label is deleted.
                        let summary = if self.use_quick_paths {
                            summaries[callee.index()]
                        } else {
                            RetSummary::Opaque
                        };
                        match summary {
                            RetSummary::Const(c) => {
                                let k = pool.bv_const(c as u64, WORD_BITS);
                                let e = pool.eq(lhs, k);
                                parts.push(e);
                            }
                            RetSummary::Affine { index, mul, add } => {
                                let actual = args[index];
                                let av = instance_var_tracked(pool, &ctx, fid, actual, origins);
                                let m = pool.bv_const(mul as u64, WORD_BITS);
                                let a = pool.bv_const(add as u64, WORD_BITS);
                                let prod = pool.bv(fusion_smt::term::BvOp::Mul, m, av);
                                let rhs = pool.bv(fusion_smt::term::BvOp::Add, prod, a);
                                let e = pool.eq(lhs, rhs);
                                parts.push(e);
                            }
                            RetSummary::Opaque => {
                                let mut sub_ctx = ctx.clone();
                                sub_ctx.push(*site);
                                let ret = callee_f.ret.expect("non-extern has a return");
                                let rhs =
                                    instance_var_tracked(pool, &sub_ctx, *callee, ret, origins);
                                schedule(&mut instances, &mut work, sub_ctx, *callee);
                                let e = pool.eq(lhs, rhs);
                                parts.push(e);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }

        self.stages.translate_wall += translate_start.elapsed();
        if blowup {
            let grown = (pool.len() - pool_before) as u64;
            self.terms_built += grown;
            return CheckOutcome {
                feasibility: Feasibility::Unknown,
                duration: start.elapsed(),
                condition_nodes: grown,
                instances: instances.len(),
                preprocess_decided: false,
            };
        }
        let formula = pool.and(&parts);
        let condition_nodes = pool.dag_size(formula) as u64;
        // Absint seeding: before any session or bit-blasting work, try to
        // refute the assembled query against the per-function known-bits
        // facts. Facts are unconditional consequences of the definitional
        // system, so a bit conflict here is a genuine Unsat — the seeding
        // is refute-only and never claims feasibility.
        let mut absint_refuted = false;
        if let Some(facts) = self.facts.clone() {
            if facts.matches(program) {
                let mut seeds = BitsSeeds::new();
                for idx in pool.free_vars(formula) {
                    if let Some((ofid, ovar)) = origins.get(idx) {
                        let av = facts.value(ofid, ovar);
                        if av.known != 0 {
                            seeds.insert(idx, av.known as u64, av.value as u64);
                        }
                    }
                }
                if !seeds.is_empty() {
                    let r = refute_by_known_bits_seeded(pool, formula, &seeds);
                    if pool.as_bool_const(r) == Some(false) {
                        absint_refuted = true;
                    }
                }
            }
        }
        if absint_refuted {
            self.stages.absint_refutes += 1;
            self.terms_built += (self.pool.len() - pool_before) as u64;
            let outcome = CheckOutcome {
                feasibility: Feasibility::Infeasible,
                duration: start.elapsed(),
                condition_nodes,
                instances: instances.len(),
                preprocess_decided: true,
            };
            self.records.push(SolveRecord::from_outcome(&outcome));
            return outcome;
        }
        // Budget the final query with the wall-clock remaining after
        // instantiation.
        let Some(cfg) = self.per_call.with_remaining(deadline) else {
            self.terms_built += (self.pool.len() - pool_before) as u64;
            let outcome = CheckOutcome {
                feasibility: Feasibility::Unknown,
                duration: start.elapsed(),
                condition_nodes,
                instances: instances.len(),
                preprocess_decided: false,
            };
            self.records.push(SolveRecord::from_outcome(&outcome));
            return outcome;
        };
        let cond_bytes = condition_nodes * BYTES_PER_TERM_NODE;
        let solve_start = Instant::now();
        let (result, stats) = if self.incremental {
            // Incremental: one assumption-guarded query against the
            // epoch's persistent session. The session's clause database
            // and CNF variables are resident *across* queries (set-based
            // accounting); the assembled condition is a transient spike on
            // top of them during the query.
            if self.session.is_none() {
                // A fresh session opens here (first real query after a
                // group boundary) — the counter the multi-client bench
                // uses to show cross-checker groups share sessions.
                self.stages.sessions_opened += 1;
            }
            let session = self.session.get_or_insert_with(SolveSession::new);
            let out = session.solve_formula(&mut self.pool, formula, &cfg);
            let resident = session.permanent_clauses() as u64 * 16 + session.cnf_vars() as u64 * 8;
            self.memory
                .set(Category::SolverState, resident + cond_bytes);
            self.memory.set(Category::SolverState, resident);
            out
        } else {
            // Cold: transient memory — the assembled condition plus SAT
            // state — charged while the query runs, released after (no
            // caching, §3.2.2). The condition is resident before the solve
            // starts; the clause count is known only once it returns.
            self.memory.charge(Category::SolverState, cond_bytes);
            let out = smt_solve(&mut self.pool, formula, &cfg);
            let clause_bytes = out.1.cnf_clauses as u64 * 16;
            self.memory.charge(Category::SolverState, clause_bytes);
            self.memory
                .release(Category::SolverState, cond_bytes + clause_bytes);
            out
        };
        self.stages.solve_wall += solve_start.elapsed();
        self.terms_built += (self.pool.len() - pool_before) as u64;
        let feasibility = match result {
            SatResult::Sat(_) => Feasibility::Feasible,
            SatResult::Unsat => Feasibility::Infeasible,
            SatResult::Unknown => Feasibility::Unknown,
        };
        let outcome = CheckOutcome {
            feasibility,
            duration: start.elapsed(),
            condition_nodes,
            instances: instances.len(),
            preprocess_decided: stats.preprocess_decided,
        };
        self.records.push(SolveRecord::from_outcome(&outcome));
        outcome
    }

    fn memory(&self) -> &MemoryAccountant {
        &self.memory
    }

    fn records(&self) -> &[SolveRecord] {
        &self.records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::Checker;
    use crate::propagate::{discover, PropagateOptions};
    use fusion_ir::{compile, CompileOptions};

    fn check_all(
        src: &str,
        engine: &mut dyn FeasibilityEngine,
    ) -> Vec<(Feasibility, CheckOutcome)> {
        let p = compile(src, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let cands = discover(&p, &g, &Checker::null_deref(), &PropagateOptions::default());
        cands
            .iter()
            .map(|c| {
                let o = engine.check_paths(&p, &g, &c.paths[..1]);
                (o.feasibility, o)
            })
            .collect()
    }

    const FIG1: &str = "extern fn deref(p);\n\
        fn bar(x) { let y = x * 2; let z = y; return z; }\n\
        fn foo(a, b) {\n\
          let pp = null;\n\
          let c = bar(a);\n\
          let d = bar(b);\n\
          let r = 1;\n\
          if (c < d) { r = pp; }\n\
          deref(r);\n\
          return 0;\n\
        }";

    #[test]
    fn both_engines_agree_on_figure1() {
        let mut unopt = UnoptimizedGraphSolver::new(SolverConfig::default());
        let mut fused = FusionSolver::new(SolverConfig::default());
        let a = check_all(FIG1, &mut unopt);
        let b = check_all(FIG1, &mut fused);
        assert_eq!(a.len(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(a[0].0, Feasibility::Feasible);
        assert_eq!(b[0].0, Feasibility::Feasible);
    }

    #[test]
    fn fusion_avoids_cloning_affine_callees() {
        let mut unopt = UnoptimizedGraphSolver::new(SolverConfig::default());
        let mut fused = FusionSolver::new(SolverConfig::default());
        let a = check_all(FIG1, &mut unopt);
        let b = check_all(FIG1, &mut fused);
        // Alg. 4 clones bar twice (3 instances); Alg. 6's quick path
        // eliminates both clones (1 instance: foo itself).
        assert_eq!(a[0].1.instances, 3);
        assert_eq!(b[0].1.instances, 1);
    }

    #[test]
    fn fusion_decides_figure1_in_preprocessing() {
        // The paper's §2 claim: after unconstrained propagation via the
        // quick path, c < d is satisfiable with no bit-blasting.
        let mut fused = FusionSolver::new(SolverConfig::default());
        let b = check_all(FIG1, &mut fused);
        assert!(b[0].1.preprocess_decided, "outcome: {:?}", b[0].1);
    }

    #[test]
    fn engines_agree_on_infeasible_paths() {
        let src = "extern fn deref(p);\n\
            fn foo(x) {\n\
              let pp = null;\n\
              let r = 1;\n\
              if (x > 5) { if (x < 3) { r = pp; } }\n\
              deref(r);\n\
              return 0;\n\
            }";
        let mut unopt = UnoptimizedGraphSolver::new(SolverConfig::default());
        let mut fused = FusionSolver::new(SolverConfig::default());
        let a = check_all(src, &mut unopt);
        let b = check_all(src, &mut fused);
        assert_eq!(a[0].0, Feasibility::Infeasible);
        assert_eq!(b[0].0, Feasibility::Infeasible);
    }

    #[test]
    fn engines_agree_on_interprocedural_constants() {
        // Fig. 9's shape: a constant-returning callee decides the branch.
        let src = "extern fn deref(p);\n\
            fn ten() { return 10; }\n\
            fn foo() {\n\
              let pp = null;\n\
              let r = 1;\n\
              if (ten() > 5) { r = pp; }\n\
              deref(r);\n\
              return 0;\n\
            }";
        let mut unopt = UnoptimizedGraphSolver::new(SolverConfig::default());
        let mut fused = FusionSolver::new(SolverConfig::default());
        let a = check_all(src, &mut unopt);
        let b = check_all(src, &mut fused);
        assert_eq!(a[0].0, Feasibility::Feasible);
        assert_eq!(b[0].0, Feasibility::Feasible);
        // Fusion used the Const quick path: no instance of `ten`.
        assert_eq!(b[0].1.instances, 1);
        assert_eq!(a[0].1.instances, 2);
    }

    #[test]
    fn infeasible_interprocedural_constant() {
        let src = "extern fn deref(p);\n\
            fn three() { return 3; }\n\
            fn foo() {\n\
              let pp = null;\n\
              let r = 1;\n\
              if (three() > 5) { r = pp; }\n\
              deref(r);\n\
              return 0;\n\
            }";
        let mut unopt = UnoptimizedGraphSolver::new(SolverConfig::default());
        let mut fused = FusionSolver::new(SolverConfig::default());
        let a = check_all(src, &mut unopt);
        let b = check_all(src, &mut fused);
        assert_eq!(a[0].0, Feasibility::Infeasible);
        assert_eq!(b[0].0, Feasibility::Infeasible);
    }

    #[test]
    fn deep_call_chain_instance_counts() {
        // Each level calls the next twice: Alg. 4 needs 2^d clones, the
        // quick path collapses affine levels entirely.
        let src = "extern fn deref(p);\n\
            fn l0(x) { return x + 1; }\n\
            fn l1(x) { return l0(x) + l0(x + 1); }\n\
            fn l2(x) { return l1(x) + l1(x + 1); }\n\
            fn foo(a) {\n\
              let pp = null;\n\
              let r = 1;\n\
              if (l2(a) > 5) { r = pp; }\n\
              deref(r);\n\
              return 0;\n\
            }";
        let mut unopt = UnoptimizedGraphSolver::new(SolverConfig::default());
        let mut fused = FusionSolver::new(SolverConfig::default());
        let a = check_all(src, &mut unopt);
        let b = check_all(src, &mut fused);
        assert_eq!(a[0].0, Feasibility::Feasible);
        assert_eq!(b[0].0, Feasibility::Feasible);
        // l1/l2 are opaque (two-branch sums are affine? l0 affine; l1 =
        // l0(x) + l0(x+1) = (x+1) + (x+2): Opaque per the summary algebra
        // (affine + affine on the same param is not tracked), so fusion
        // still clones some — but strictly fewer than Alg. 4.
        assert!(b[0].1.instances <= a[0].1.instances);
        assert_eq!(a[0].1.instances, 1 + 1 + 2 + 4);
    }

    #[test]
    fn attached_facts_refute_assembled_queries_before_solving() {
        // Direct `check_paths` calls see no driver triage, so the seeded
        // refutation of the assembled query is the layer that fires: the
        // parity guard's condition variable carries a known-bits fact of
        // constant 0, and the conjunction is refuted before any session
        // or bit-blasting work.
        let src = "extern fn deref(p);\n\
            fn foo(x) {\n\
              let pp = null;\n\
              let r = 1;\n\
              if (x * 2 == 5) { r = pp; }\n\
              deref(r);\n\
              return 0;\n\
            }";
        let p = compile(src, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let cands = discover(&p, &g, &Checker::null_deref(), &PropagateOptions::default());
        assert_eq!(cands.len(), 1);
        let mut fused = FusionSolver::new(SolverConfig::default());
        fused.attach_absint(Arc::new(crate::absint::ProgramFacts::compute(&p)));
        let o = fused.check_paths(&p, &g, &cands[0].paths[..1]);
        assert_eq!(o.feasibility, Feasibility::Infeasible);
        assert!(
            fused.stage_totals().absint_refutes > 0 || o.preprocess_decided,
            "the seeded layers must decide the parity guard pre-solve: {o:?}"
        );
        // An unseeded engine agrees on the verdict (refute-only contract).
        let mut plain = FusionSolver::new(SolverConfig::default());
        let o2 = plain.check_paths(&p, &g, &cands[0].paths[..1]);
        assert_eq!(o2.feasibility, Feasibility::Infeasible);
    }

    #[test]
    fn expired_deadline_degrades_to_unknown() {
        // A zero wall-clock budget can never answer Sat/Unsat; both engines
        // must degrade to Unknown rather than stall or guess.
        let cfg = SolverConfig {
            timeout: Some(std::time::Duration::ZERO),
            ..SolverConfig::default()
        };
        let mut unopt = UnoptimizedGraphSolver::new(cfg);
        let mut fused = FusionSolver::new(cfg);
        let a = check_all(FIG1, &mut unopt);
        let b = check_all(FIG1, &mut fused);
        assert_eq!(a[0].0, Feasibility::Unknown);
        assert_eq!(b[0].0, Feasibility::Unknown);
    }
}
