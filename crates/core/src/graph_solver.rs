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
//! group boundary past `EPOCH_POOL_LIMIT` term nodes resets the pool,
//! the caches and the session together (their keys are `TermId`s, which a
//! pool reset invalidates).

use crate::absint::ProgramFacts;
use crate::cache::{path_set_key, Key128};
use crate::engine::{CheckOutcome, EngineStages, Feasibility, FeasibilityEngine, SolveRecord};
use crate::memory::{Category, MemoryAccountant, BYTES_PER_TERM_NODE};
use crate::quickpath::RetSummary;
use crate::slice_cache::{Closure, SliceCache};
use fusion_ir::ssa::{CallSiteId, DefKind, FuncId, Program, VarId, WORD_BITS};
use fusion_pdg::graph::Pdg;
use fusion_pdg::paths::DependencePath;
use fusion_pdg::slice::{
    compute_closure, compute_slice, constraints_for, Constraint, ConstraintKind,
};
use fusion_pdg::translate::{
    encode_op, instance_origin, instance_var, intern_ctx, translate, truthy, Instances,
    TranslateOptions,
};
use fusion_smt::dense::{CtxMap, VarMap, VarSet};
use fusion_smt::preprocess::{preprocess_fragment_seeded, refute_by_known_bits_seeded, BitsSeeds};
use fusion_smt::session::SolveSession;
use fusion_smt::solver::{deadline_expired, smt_solve, SatResult, SolverConfig};
use fusion_smt::term::{BvOp, CtxId, Sort, TermId, TermKind, TermPool, VarIdx, VarKey};
use std::collections::HashMap;
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

/// The tag of local-condition variables ([`VarKey::Local`]).
const LOCAL_TAG: char = 'l';

/// The variable of `func`'s IR variable `var` in its local condition: an
/// uncontexted name, renamed per instance by [`instantiate`].
fn local_var(pool: &mut TermPool, func: FuncId, var: VarId) -> TermId {
    let key = VarKey::Local {
        tag: LOCAL_TAG,
        func: func.0,
        var: var.0,
    };
    pool.keyed_var(key, Sort::Bv(WORD_BITS))
}

/// Reused buffers of one instantiation.
#[derive(Debug, Default)]
struct InstantiateScratch {
    vars: Vec<VarIdx>,
    subst: VarMap,
}

/// Renames a preprocessed local condition into the instance named by `ctx`:
/// local variables map to their context-tagged instance names, whose keys
/// record the IR definition each clones (so the final formula can be
/// seeded with per-function abstract facts); any other variable is renamed
/// apart per instance.
fn instantiate(
    pool: &mut TermPool,
    formula: TermId,
    ctx: CtxId,
    scratch: &mut InstantiateScratch,
) -> TermId {
    let InstantiateScratch { vars, subst } = scratch;
    pool.free_vars_into(formula, vars);
    subst.clear();
    for &smt_var in vars.iter() {
        let target = match pool.var_key(smt_var) {
            Some(VarKey::Local { func, var, .. }) => {
                instance_var(pool, ctx, FuncId(func), VarId(var))
            }
            _ => pool.fresh_var("inst", pool.var_sort(smt_var)),
        };
        subst.insert(smt_var, target);
    }
    pool.substitute(formula, subst)
}

/// A cached local condition with its accounting and recency metadata.
#[derive(Debug, Clone)]
struct CachedLocal {
    /// The preprocessed local condition, over [`local_var`]s.
    formula: TermId,
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

/// Instance budget for the residual cloning (rarely reached); exceeding it
/// yields [`Feasibility::Unknown`].
const MAX_INSTANCES: usize = 1 << 16;
/// Pool-size threshold (term nodes) above which a group boundary
/// ([`FeasibilityEngine::begin_group`]) resets the solving epoch — pool,
/// caches and session together. High so small runs never reset.
const EPOCH_POOL_LIMIT: usize = 1 << 20;
/// Entry-count bound of the local-condition cache; least recently used
/// entries are evicted beyond it.
const LOCAL_CACHE_CAP: usize = 1024;

/// Algorithm 6: the optimized, fused solver.
#[derive(Debug)]
pub struct FusionSolver {
    /// Per-query SMT budget.
    pub per_call: SolverConfig,
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
    memory: MemoryAccountant,
    records: Vec<SolveRecord>,
    /// The facts the quick paths read each callee's return summary from:
    /// the attached facts when they match the program, else the engine's
    /// own, evaluated per callee the first time a query reads it. Their
    /// program identity (function count + size) is the epoch's; a run
    /// start ([`FeasibilityEngine::begin_run`]) drops them with the epoch.
    quick: Option<Arc<ProgramFacts>>,
    /// Persistent pool hosting the cached per-function local conditions.
    /// These are *linear-size graph data* (an alternative encoding of the
    /// PDG slice, preprocessed once per (function, slice) — §3.2.3), not
    /// path conditions: their bytes are charged to [`Category::Cache`]
    /// like the verdict cache's.
    pool: TermPool,
    /// Local conditions by (function, vertex-set hash). The key is a hash
    /// of program content, so the map keeps std's keyed hasher.
    local_cache: HashMap<(FuncId, u64), CachedLocal>,
    /// Total bytes currently charged for `local_cache` entries.
    local_cache_bytes: u64,
    /// Monotone counter backing the LRU order of `local_cache`.
    tick: u64,
    /// The incremental solving session, reset at every group boundary and
    /// reused, buffers and all, by the next group.
    session: SolveSession,
    /// Whether a query reached `session` since its last reset.
    session_open: bool,
    /// Instantiated-residue memo: `(context, local formula) → instance
    /// formula` (a non-constant local formula names its function through
    /// its variables, and a constant instantiates to itself). Avoids
    /// re-running the substitution (and minting fresh `inst` variables)
    /// for instantiations repeated across queries in one epoch. Sharing the
    /// preprocessing-introduced fresh variables across queries is sound:
    /// each query's constraints on them live under that query's own root
    /// assumption.
    inst_cache: CtxMap<TermId>,
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
    /// Reused per-query buffers (never carried from one query to the next).
    scratch: Scratch,
}

/// Buffers [`FusionSolver`] reuses from query to query; each is emptied
/// before use, so nothing in them outlives the query that filled it.
#[derive(Debug, Default)]
struct Scratch {
    /// The query's conjuncts.
    parts: Vec<TermId>,
    /// The instances the query clones.
    instances: Instances,
    /// The query's local conditions, by function (sorted).
    locals: Vec<(FuncId, TermId)>,
    instantiate: InstantiateScratch,
    /// Known-bits facts of a fragment or a query.
    seeds: BitsSeeds,
    /// A local condition's protected interface.
    protected: VarSet,
    /// A local condition's variables, with the IR variable each stands for.
    local_vars: Vec<(VarIdx, VarId)>,
    /// Whether each IR variable of the function being built is a branch or
    /// ite condition.
    cond_vars: Vec<bool>,
    /// Free variables of a query.
    vars: Vec<VarIdx>,
}

impl FusionSolver {
    /// Creates the engine with the given per-query budget.
    pub fn new(per_call: SolverConfig) -> Self {
        Self {
            per_call,
            use_quick_paths: true,
            use_local_preprocess: true,
            incremental: true,
            memory: MemoryAccountant::new(),
            records: Vec::new(),
            quick: None,
            pool: TermPool::new(),
            local_cache: HashMap::new(),
            local_cache_bytes: 0,
            tick: 0,
            session: SolveSession::new(),
            session_open: false,
            inst_cache: CtxMap::new(),
            slice_cache: None,
            cand: None,
            stages: EngineStages::default(),
            facts: None,
            scratch: Scratch::default(),
        }
    }

    /// Resets the session if a query reached it since its last reset; an
    /// untouched session is already in its fresh state.
    fn close_session(&mut self) {
        if self.session_open {
            self.session.reset();
            self.session_open = false;
        }
    }

    /// Drops everything keyed by `TermId`: the pool, the local-condition
    /// and instantiation caches, and the session's encodings. Called when
    /// the program changes and when a group boundary finds the pool past
    /// `EPOCH_POOL_LIMIT`.
    fn reset_epoch(&mut self) {
        self.pool = TermPool::new();
        self.local_cache.clear();
        self.memory.release(Category::Cache, self.local_cache_bytes);
        self.local_cache_bytes = 0;
        self.inst_cache.clear();
        self.close_session();
        self.memory.set(Category::SolverState, 0);
    }

    /// Picks the quick-path facts when `program` is not the one the epoch
    /// belongs to, resetting the epoch with them.
    fn refresh_program(&mut self, program: &Program) {
        if !self.quick.as_ref().is_some_and(|q| q.matches(program)) {
            // The quick-path summaries are the Const/Affine shape of the
            // abstract-interpretation return facts; when the driver
            // attached matching facts, read those instead of evaluating
            // the same return cones again.
            self.quick = Some(match &self.facts {
                Some(f) if f.matches(program) => Arc::clone(f),
                _ => Arc::new(ProgramFacts::new(program)),
            });
            self.reset_epoch();
        }
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
    ) -> TermId {
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
            return entry.formula;
        }
        let func = program.func(fid);
        let pool = &mut self.pool;
        let Scratch {
            parts,
            protected,
            local_vars,
            cond_vars,
            seeds,
            ..
        } = &mut self.scratch;
        parts.clear();
        protected.clear();
        local_vars.clear();
        let mut local = |pool: &mut TermPool, v: VarId| -> TermId {
            let t = local_var(pool, fid, v);
            if let TermKind::Var(idx) = *pool.kind(t) {
                local_vars.push((idx, v));
            }
            t
        };
        let protect = |pool: &TermPool, protected: &mut VarSet, t: TermId| {
            if let TermKind::Var(idx) = *pool.kind(t) {
                protected.insert(idx);
            }
        };
        // Variables that any query's constraints could reference: branch
        // and ite conditions (query-independent rule).
        cond_vars.clear();
        cond_vars.resize(func.defs.len(), false);
        for def in &func.defs {
            match &def.kind {
                DefKind::Branch { cond } | DefKind::Ite { cond, .. } => {
                    cond_vars[cond.index()] = true;
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
                    protect(pool, protected, t);
                }
                DefKind::Call { args, .. } => {
                    let t = local(pool, v);
                    protect(pool, protected, t);
                    for &a in args {
                        let at = local(pool, a);
                        protect(pool, protected, at);
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
            if cond_vars[v.index()] || Some(v) == func.ret {
                let t = local(pool, v);
                protect(pool, protected, t);
            }
        }
        let raw = pool.and(parts);
        // Intra-procedural preprocessing, once per function — never per
        // clone (§3.2.3, "reducing the number of functions to clone" /
        // "speeding up preprocessing"). When the driver attached abstract
        // facts, the fragment's known-bits analysis is seeded with them —
        // per-function facts are unconditional, so the cached fragment
        // stays sound for every instance, and bit facts fire on first
        // contact instead of being rediscovered structurally per query.
        let formula = if self.use_local_preprocess {
            seeds.clear();
            if let Some(facts) = &self.facts {
                if facts.matches(program) {
                    for &(idx, v) in local_vars.iter() {
                        let av = facts.value(program, fid, v);
                        if av.known != 0 {
                            seeds.insert(idx, av.known as u64, av.value as u64);
                        }
                    }
                }
            }
            preprocess_fragment_seeded(pool, raw, protected, seeds).term
        } else {
            raw
        };
        // Bounded, cache-resident data: evict least-recently-used entries
        // past the capacity, then charge this entry's bytes to
        // [`Category::Cache`] exactly like the verdict cache does.
        let bytes = self.pool.dag_size(formula) as u64 * BYTES_PER_TERM_NODE;
        while self.local_cache.len() >= LOCAL_CACHE_CAP {
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
                formula,
                bytes,
                tick,
            },
        );
        formula
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

    fn begin_run(&mut self, _program: &Program) {
        // Everything program-scoped goes: the quick-path facts, the
        // attached facts (the run attaches its own) and the epoch with its
        // local conditions, instantiations and session. An engine that has
        // not queried yet holds none of it.
        self.facts = None;
        self.cand = None;
        if self.quick.take().is_some() {
            self.reset_epoch();
        }
    }

    fn begin_group(&mut self, _group: u64) {
        // A reset session per slice group: queries within a group share
        // almost all of their encoding, so the session amortizes heavily
        // there; *across* groups the overlap is small, and keeping one
        // session's clauses would make every query re-search the
        // accumulated universe (CDCL must extend its assignment over every
        // variable ever blasted). Resetting the session — its clauses,
        // encodings and statistics, not its buffers — while keeping the
        // pool and the term-level caches bounds the SAT universe to one
        // group's cone. Group boundaries are also the only place the whole
        // epoch may reset: no `TermId` from a previous group is live in
        // the caller, so once the pool outgrows its budget the pool and
        // caches drop together.
        self.close_session();
        self.cand = None;
        if self.pool.len() > EPOCH_POOL_LIMIT {
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
        self.refresh_program(program);
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
        let mut locals = std::mem::take(&mut self.scratch.locals);
        locals.clear();
        for (&fid, fs) in closure.iter() {
            let lc = self.local_condition(program, fid, &fs.verts);
            locals.push((fid, lc));
        }
        let pool_before = self.pool.len();
        let incremental = self.incremental;
        let quick = self.quick.as_deref().expect("refreshed above");
        let pool = &mut self.pool;
        let inst_cache = &mut self.inst_cache;
        let Scratch {
            parts,
            instances,
            instantiate: inst_scratch,
            ..
        } = &mut self.scratch;
        parts.clear();
        instances.clear();

        // Context-tagged constraints (identical to Algorithm 4).
        for Constraint { ctx, func, kind } in &constraints {
            let ctx = intern_ctx(pool, ctx);
            instances.schedule(ctx, *func);
            let f = program.func(*func);
            match kind {
                ConstraintKind::BranchTrue { branch } => {
                    let DefKind::Branch { cond } = f.def(*branch).kind else {
                        unreachable!("guards are branches")
                    };
                    let cv = instance_var(pool, ctx, *func, cond);
                    let t = truthy(pool, cv);
                    parts.push(t);
                }
                ConstraintKind::IteGate { ite, taken_then } => {
                    let DefKind::Ite { cond, .. } = f.def(*ite).kind else {
                        unreachable!("gated vertices are ites")
                    };
                    let cv = instance_var(pool, ctx, *func, cond);
                    let t = truthy(pool, cv);
                    parts.push(if *taken_then { t } else { pool.not(t) });
                }
            }
        }

        // Instantiate: substitute the preprocessed local condition, emit
        // binding equations, and use quick paths to avoid descending.
        let mut blowup = false;
        while let Some((ctx, fid)) = instances.pop() {
            // A stuck instantiation (deep contexts, huge slices) must not
            // stall a worker: the per-call deadline is polled every
            // iteration and the query degrades to Unknown, exactly like an
            // instance blowup.
            if instances.len() > MAX_INSTANCES || deadline_expired(deadline) {
                blowup = true;
                break;
            }
            let Some(fs) = closure.get(&fid) else {
                continue;
            };
            let func = program.func(fid);
            let i = locals
                .binary_search_by_key(&fid, |&(f, _)| f)
                .expect("every closure function has a local condition");
            let local = locals[i].1;
            // Rename the local condition into this instance. In incremental
            // mode the substitution (and its fresh-variable minting) is
            // memoized per (context, local formula) for the epoch —
            // repeated instantiations across queries reuse the same
            // instance formula, which the session then recognizes as an
            // already-blasted subterm.
            let inst_formula = if incremental {
                match inst_cache.get(ctx, local.0) {
                    Some(cached) => cached,
                    None => {
                        let f = instantiate(pool, local, ctx, inst_scratch);
                        inst_cache.insert_new(ctx, local.0, f);
                        f
                    }
                }
            } else {
                instantiate(pool, local, ctx, inst_scratch)
            };
            parts.push(inst_formula);

            for &v in &fs.verts {
                match &func.def(v).kind {
                    DefKind::Param { index } => {
                        let Some((caller_ctx, site)) = pool.ctx_pop(ctx) else {
                            continue;
                        };
                        let cs = program.call_site(CallSiteId(site));
                        let caller = program.func(cs.caller);
                        let DefKind::Call { args, .. } = &caller.def(cs.stmt).kind else {
                            unreachable!("call sites point at calls")
                        };
                        let actual = args[*index];
                        let lhs = instance_var(pool, ctx, fid, v);
                        let rhs = instance_var(pool, caller_ctx, cs.caller, actual);
                        instances.schedule(caller_ctx, cs.caller);
                        let e = pool.eq(lhs, rhs);
                        parts.push(e);
                    }
                    DefKind::Call { callee, args, site } => {
                        let callee_f = program.func(*callee);
                        if callee_f.is_extern {
                            continue; // unconstrained result
                        }
                        let lhs = instance_var(pool, ctx, fid, v);
                        // Quick path: constant / affine callees never get
                        // cloned — the parenthesis label is deleted.
                        let summary = if self.use_quick_paths {
                            quick.ret_fact(program, *callee).shape
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
                                let av = instance_var(pool, ctx, fid, actual);
                                let m = pool.bv_const(mul as u64, WORD_BITS);
                                let a = pool.bv_const(add as u64, WORD_BITS);
                                let prod = pool.bv(BvOp::Mul, m, av);
                                let rhs = pool.bv(BvOp::Add, prod, a);
                                let e = pool.eq(lhs, rhs);
                                parts.push(e);
                            }
                            RetSummary::Opaque => {
                                let sub_ctx = pool.ctx_push(ctx, site.0);
                                let ret = callee_f.ret.expect("non-extern has a return");
                                let rhs = instance_var(pool, sub_ctx, *callee, ret);
                                instances.schedule(sub_ctx, *callee);
                                let e = pool.eq(lhs, rhs);
                                parts.push(e);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        self.scratch.locals = locals;

        self.stages.translate_wall += translate_start.elapsed();
        let n_instances = self.scratch.instances.len();
        if blowup {
            let grown = (self.pool.len() - pool_before) as u64;
            return CheckOutcome {
                feasibility: Feasibility::Unknown,
                duration: start.elapsed(),
                condition_nodes: grown,
                instances: n_instances,
                preprocess_decided: false,
            };
        }
        let formula = self.pool.and(&self.scratch.parts);
        let condition_nodes = self.pool.dag_size(formula) as u64;
        // Absint seeding: before any session or bit-blasting work, try to
        // refute the assembled query against the per-function known-bits
        // facts. Facts are unconditional consequences of the definitional
        // system, so a bit conflict here is a genuine Unsat — the seeding
        // is refute-only and never claims feasibility.
        let mut absint_refuted = false;
        if let Some(facts) = self.facts.clone() {
            if facts.matches(program) {
                let Scratch { seeds, vars, .. } = &mut self.scratch;
                let pool = &mut self.pool;
                seeds.clear();
                pool.free_vars_into(formula, vars);
                for &idx in vars.iter() {
                    if let Some((ofid, ovar)) = instance_origin(pool, idx) {
                        let av = facts.value(program, ofid, ovar);
                        if av.known != 0 {
                            seeds.insert(idx, av.known as u64, av.value as u64);
                        }
                    }
                }
                if !seeds.is_empty() {
                    let r = refute_by_known_bits_seeded(pool, formula, seeds);
                    if pool.as_bool_const(r) == Some(false) {
                        absint_refuted = true;
                    }
                }
            }
        }
        if absint_refuted {
            self.stages.absint_refutes += 1;
            let outcome = CheckOutcome {
                feasibility: Feasibility::Infeasible,
                duration: start.elapsed(),
                condition_nodes,
                instances: n_instances,
                preprocess_decided: true,
            };
            self.records.push(SolveRecord::from_outcome(&outcome));
            return outcome;
        }
        // Budget the final query with the wall-clock remaining after
        // instantiation.
        let Some(cfg) = self.per_call.with_remaining(deadline) else {
            let outcome = CheckOutcome {
                feasibility: Feasibility::Unknown,
                duration: start.elapsed(),
                condition_nodes,
                instances: n_instances,
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
            if !self.session_open {
                // The session opens here (first real query after a group
                // boundary).
                self.stages.sessions_opened += 1;
                self.session_open = true;
            }
            let session = &mut self.session;
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
        let feasibility = match result {
            SatResult::Sat(_) => Feasibility::Feasible,
            SatResult::Unsat => Feasibility::Infeasible,
            SatResult::Unknown => Feasibility::Unknown,
        };
        let outcome = CheckOutcome {
            feasibility,
            duration: start.elapsed(),
            condition_nodes,
            instances: n_instances,
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
