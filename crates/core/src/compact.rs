//! The pre-discovery PDG-compaction pass.
//!
//! The paper's scalability argument (§3.2.3) is to shrink the graph
//! *before* any path-sensitive work begins; the removal-of-redundant-
//! summaries line sharpens it: most summary edges can never lie on any
//! source→sink chain for the active checkers, so walking them is pure
//! waste. [`CompactPdg`] precomputes, per checker of the fused
//! [`CheckerSet`]:
//!
//! 1. **Frontier reachability pruning** — the *live* vertex set: forward
//!    reachable from the checker's sources **and** backward reaching a
//!    sink-trigger vertex, over the checker-taken def-use + summary
//!    edges. Discovery never steps onto a dead vertex; dead subtrees can
//!    record nothing (any recording vertex inside one would be live by
//!    definition), so reports are untouched while every pruned step is a
//!    discovery step saved. The edges live in one checker-independent
//!    flow graph built once per [`CompactPdg::build`]: a
//!    [`LabeledCsr`] over [`VertexIndexer`] indices and its reverse, each
//!    edge labelled *always* (call, return, copy, return-value and
//!    `ite`-data uses), *arithmetic* (non-predicate `Binary` other than
//!    `x - x`) or *through external callee f*; local edges no checker
//!    takes are left out. The local classes come from
//!    `checkers::local_flow`, the one statement of those rules. Each checker
//!    reads the labels through its own table — external callees resolved
//!    to sink, pass or stop once by name — runs a forward BFS from its
//!    sources that notes the sink triggers it meets, then a backward
//!    closure from those triggers confined to the forward region. Every
//!    vertex on a walk from a forward-reachable vertex to a trigger is
//!    itself forward-reachable, so that closure is exactly
//!    forward ∩ backward, and it touches only the forward region.
//! 2. **Summary-chain collapse** — single-entry/single-exit
//!    `Enter…Exit` corridors through a callee with no intervening
//!    checker-relevant transfer (no branch in the taken-edge relation,
//!    no sink trigger, no nested call) fold into one
//!    [`SummaryChain`] replayed as a composite edge. The replay pushes
//!    the **original vertex sequence** and the exact CFL state keys the
//!    vertex-by-vertex walk would have used, so recorded paths — and
//!    therefore reports and [`path_set_key`] hashes — stay
//!    byte-identical; only the per-vertex exploration steps disappear.
//! 3. **Isomorphic-fragment dedup** — a canonical content key
//!    ([`CompactPdg::iso_key`]) that renames function and call-site
//!    identities to first-occurrence indices and replaces them with
//!    structural body signatures. Two dependence-path fragments that are
//!    equal modulo such renaming translate to structurally identical
//!    formulas (no name ever reaches the solver), so their feasibility
//!    verdicts coincide and the driver shares them through
//!    [`IsoVerdicts`] — strictly fewer solver queries, same verdicts.
//!
//! Everything cached here is **dependence structure only** — bit sets,
//! vertex sequences, content hashes. No path condition is ever computed
//! or stored, preserving the §3.2.2 discipline the whole reproduction is
//! built around.
//!
//! The caveat shared with every step-budget interaction: pruning and
//! collapsing make discovery *cheaper*, so when
//! [`PropagateOptions::max_steps_per_source`] or
//! [`PropagateOptions::max_path_len`] actually bind, a compacted run can
//! explore further than an uncompacted one before the budget cuts it
//! off. Byte-identical reports are guaranteed whenever the budgets do
//! not bind (the defaults are far above every workload in this repo).
//!
//! [`path_set_key`]: crate::cache::path_set_key

use crate::cache::{Fnv, Key128};
use crate::checkers::{local_flow, Checker, CheckerId, CheckerSet, ExternRole, LocalFlow};
use crate::engine::Feasibility;
use crate::propagate::{source_vertices, PropagateOptions};
use fusion_ir::ssa::{CallSiteId, DefKind, FuncId, Function, Program, VarId};
use fusion_pdg::compact::{DenseBitSet, LabeledCsr, SummaryChain, VertexIndexer};
use fusion_pdg::graph::{FlowTarget, Pdg, Vertex};
use fusion_pdg::paths::{DependencePath, Link};
use std::collections::HashMap;
use std::sync::Mutex;

/// Counters describing how much the compaction pass removed, summed over
/// the checkers of the set (each checker has its own live set and chain
/// table, because "taken" edges are a per-checker notion).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Vertices outside some checker's live set (summed per checker).
    pub vertices_pruned: u64,
    /// Checker-taken edges with a dead endpoint (summed per checker).
    pub edges_pruned: u64,
    /// Distinct summary chains collapsed (summed per checker).
    pub chains_collapsed: u64,
}

/// The verdict memo shared between isomorphic path fragments: maps the
/// canonical renaming-invariant key of [`CompactPdg::iso_key`] to the
/// definite verdict the first representative of the class received.
/// [`Feasibility::Unknown`] is never stored (it only reports a budget
/// ran out), so the memo can never turn a would-be-definite query into
/// an Unknown or vice versa: definite verdicts are renaming-invariant,
/// which is what makes the sharing sound.
pub struct IsoVerdicts {
    shards: Vec<Mutex<HashMap<Key128, Feasibility>>>,
}

const ISO_SHARDS: usize = 16;

impl IsoVerdicts {
    fn new() -> IsoVerdicts {
        IsoVerdicts {
            shards: (0..ISO_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }

    fn shard(&self, key: Key128) -> &Mutex<HashMap<Key128, Feasibility>> {
        &self.shards[(key.lo as usize) % self.shards.len()]
    }

    /// Looks up the verdict of the isomorphism class.
    pub fn get(&self, key: Key128) -> Option<Feasibility> {
        self.shard(key)
            .lock()
            .expect("iso shard")
            .get(&key)
            .copied()
    }

    /// A point-in-time copy of every memoized class verdict, for
    /// snapshot serialization ([`crate::snapshot`]).
    pub fn entries(&self) -> Vec<(Key128, Feasibility)> {
        self.shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("iso shard")
                    .iter()
                    .map(|(k, v)| (*k, *v))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Stores a definite verdict for the class; Unknown is dropped.
    pub fn insert(&self, key: Key128, verdict: Feasibility) {
        if verdict == Feasibility::Unknown {
            return;
        }
        self.shard(key)
            .lock()
            .expect("iso shard")
            .insert(key, verdict);
    }

    /// Removes the given class keys, returning how many were present.
    /// Unlike verdict-cache eviction this is *garbage collection with
    /// counters*, not a correctness requirement: an iso key embeds the
    /// recursive structural [`body sig`](CompactPdg::iso_key) of every
    /// function a path set touches (and, transitively, their callees),
    /// so an entry recorded against pre-edit content can never be *hit*
    /// by a post-edit query — the edited body hashes to a different
    /// class. The incremental layer still evicts classes whose recorded
    /// provenance involves an edited function so the resident memo does
    /// not accumulate unreachable classes across a long editing session.
    pub fn remove_keys(&self, keys: &[Key128]) -> u64 {
        let mut removed = 0u64;
        for &key in keys {
            if self
                .shard(key)
                .lock()
                .expect("iso shard")
                .remove(&key)
                .is_some()
            {
                removed += 1;
            }
        }
        removed
    }

    /// Number of memoized classes.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("iso shard").len())
            .sum()
    }

    /// Whether no class has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One checker's compaction artifacts.
struct CheckerCompact {
    /// Live vertices (forward-reachable from a source ∧ backward-reaching
    /// a sink trigger) over this checker's taken edges.
    live: DenseBitSet,
    /// Collapsed chains keyed by `(call site, callee entry parameter)` —
    /// the parameter matters because a fact entering through a different
    /// argument slot walks a different corridor.
    chains: HashMap<(CallSiteId, VarId), SummaryChain>,
}

/// The compacted view of one `(program, pdg, checker set)` triple,
/// consulted by discovery (liveness filter + chain replay) and by the
/// solve loop (isomorphic verdict sharing). Build it once per run, ahead
/// of `discover_all_multi`; it is `Sync` and shared by reference across
/// discovery shards and solve workers.
pub struct CompactPdg {
    indexer: VertexIndexer,
    per_checker: Vec<CheckerCompact>,
    /// Structural body signature per function (renaming-invariant).
    body_sigs: Vec<Key128>,
    iso: IsoVerdicts,
    stats: CompactStats,
}

impl CompactPdg {
    /// Runs the compaction pass for every checker of the set.
    pub fn build(
        program: &Program,
        pdg: &Pdg,
        set: &CheckerSet,
        opts: &PropagateOptions,
    ) -> CompactPdg {
        let indexer = VertexIndexer::new(program);
        let graph = FlowGraph::build(program, pdg, &indexer);
        let mut stats = CompactStats::default();
        let mut per_checker = Vec::with_capacity(set.len());
        for (_, checker) in set.iter() {
            per_checker.push(build_checker(
                program, pdg, &graph, checker, &indexer, opts, &mut stats,
            ));
        }
        let mut body_sigs = vec![None; program.functions.len()];
        for f in &program.functions {
            body_sig(program, &mut body_sigs, f.id);
        }
        CompactPdg {
            indexer,
            per_checker,
            body_sigs: body_sigs
                .into_iter()
                .map(|s| s.expect("sig computed"))
                .collect(),
            iso: IsoVerdicts::new(),
            stats,
        }
    }

    /// Rebuilds the compacted view for an edited program, transplanting
    /// the previous view's isomorphic-verdict memo into the new one. The
    /// live sets, chain tables, and body signatures are all derived from
    /// the new program (they are cheap O(program) passes); the memo is
    /// the only state worth carrying across an edit. The transplant is
    /// sound because iso keys are *content-pinned*: every function a
    /// memoized path set involves contributes its recursive structural
    /// body signature to the key, so a class recorded against pre-edit
    /// content can never answer a post-edit query against changed code —
    /// the changed body produces a different key. Retained classes whose
    /// functions are untouched answer exactly as a cold run's engine
    /// would (definite verdicts are renaming-invariant), so reports stay
    /// byte-identical to a cold scan while repeat queries get strictly
    /// cheaper.
    pub fn rebuild(
        program: &Program,
        pdg: &Pdg,
        set: &CheckerSet,
        opts: &PropagateOptions,
        prev: CompactPdg,
    ) -> CompactPdg {
        let mut next = CompactPdg::build(program, pdg, set, opts);
        next.iso = prev.iso;
        next
    }

    /// What the pass removed (for `StageStats` attribution).
    pub fn stats(&self) -> CompactStats {
        self.stats
    }

    /// Whether `v` is live for checker `id` — i.e. lies on some
    /// source→sink chain of taken edges. Discovery refuses to step onto
    /// dead vertices.
    pub fn is_live(&self, id: CheckerId, v: Vertex) -> bool {
        self.per_checker[id.0].live.contains(self.indexer.index(v))
    }

    /// The collapsed chain entered at `site` through callee parameter
    /// `param`, if this corridor collapsed for checker `id`.
    pub fn chain(&self, id: CheckerId, site: CallSiteId, param: VarId) -> Option<&SummaryChain> {
        self.per_checker[id.0].chains.get(&(site, param))
    }

    /// The shared isomorphic-verdict memo.
    pub fn iso(&self) -> &IsoVerdicts {
        &self.iso
    }

    /// The canonical renaming-invariant content key of a path-set query:
    /// the same serialization as [`crate::cache::path_set_key`], except
    /// function identities become first-occurrence indices (pinned by
    /// their structural body signature), call-site identities become
    /// first-occurrence indices, and per-vertex transfer content is
    /// subsumed by the body signature folded at each function's first
    /// occurrence. Two path sets with equal keys are equal modulo a
    /// body-preserving renaming of functions and call sites — and no
    /// function or call-site *identity* (let alone name) ever reaches
    /// the slice, translation, or solver layers, so their feasibility
    /// verdicts coincide.
    pub fn iso_key(&self, paths: &[DependencePath]) -> Key128 {
        let mut h = Fnv::new();
        let mut func_canon: HashMap<FuncId, u64> = HashMap::new();
        let mut site_canon: HashMap<CallSiteId, u64> = HashMap::new();
        h.write(paths.len() as u64);
        for path in paths {
            h.write(0xD1CE_D1CE); // path separator (distinct from exact-key's)
            h.write(path.nodes.len() as u64);
            for v in &path.nodes {
                let next = func_canon.len() as u64;
                match func_canon.entry(v.func) {
                    std::collections::hash_map::Entry::Occupied(e) => h.write(*e.get()),
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(next);
                        h.write(next);
                        let sig = self.body_sigs[v.func.index()];
                        h.write(sig.lo);
                        h.write(sig.hi);
                    }
                }
                h.write(v.var.0 as u64);
            }
            for link in &path.links {
                match link {
                    Link::Local => h.write(1),
                    Link::Enter(s) => {
                        h.write(2);
                        h.write(canon_site(&mut site_canon, *s));
                    }
                    Link::Exit(s) => {
                        h.write(3);
                        h.write(canon_site(&mut site_canon, *s));
                    }
                }
            }
        }
        h.finish()
    }
}

fn canon_site(canon: &mut HashMap<CallSiteId, u64>, s: CallSiteId) -> u64 {
    let next = canon.len() as u64;
    *canon.entry(s).or_insert(next)
}

/// The structural body signature of a function: a dual-FNV fold over its
/// whole definition array — kinds, operands, guards, parameter count,
/// return position — with every cross-function reference replaced by the
/// callee's own signature (the call graph is acyclic, enforced by IR
/// validation) and call-site identities omitted (definition order pins
/// them). External functions contribute only their extern-ness and
/// arity: their names never enter a formula, so equal-arity externs are
/// interchangeable for feasibility purposes.
fn body_sig(program: &Program, sigs: &mut Vec<Option<Key128>>, f: FuncId) -> Key128 {
    if let Some(s) = sigs[f.index()] {
        return s;
    }
    let func = program.func(f);
    let mut h = Fnv::new();
    h.write(func.is_extern as u64);
    h.write(func.params.len() as u64);
    match func.ret {
        None => h.write(30),
        Some(r) => {
            h.write(31);
            h.write(r.0 as u64);
        }
    }
    if !func.is_extern {
        h.write(func.defs.len() as u64);
        for def in &func.defs {
            match &def.kind {
                DefKind::Param { index } => {
                    h.write(10);
                    h.write(*index as u64);
                }
                DefKind::Const { value, is_null } => {
                    h.write(11);
                    h.write(*value as u64);
                    h.write(*is_null as u64);
                }
                DefKind::Copy { src } => {
                    h.write(12);
                    h.write(src.0 as u64);
                }
                DefKind::Binary { op, lhs, rhs } => {
                    h.write(13);
                    h.write(*op as u64);
                    h.write(lhs.0 as u64);
                    h.write(rhs.0 as u64);
                }
                DefKind::Ite {
                    cond,
                    then_v,
                    else_v,
                } => {
                    h.write(14);
                    h.write(cond.0 as u64);
                    h.write(then_v.0 as u64);
                    h.write(else_v.0 as u64);
                }
                DefKind::Call {
                    callee,
                    args,
                    site: _,
                } => {
                    h.write(15);
                    let cs = body_sig(program, sigs, *callee);
                    h.write(cs.lo);
                    h.write(cs.hi);
                    h.write(args.len() as u64);
                    for a in args {
                        h.write(a.0 as u64);
                    }
                }
                DefKind::Branch { cond } => {
                    h.write(16);
                    h.write(cond.0 as u64);
                }
                DefKind::Return { src } => {
                    h.write(17);
                    h.write(src.0 as u64);
                }
            }
            match def.guard {
                None => h.write(20),
                Some(g) => {
                    h.write(21);
                    h.write(g.0 as u64);
                }
            }
        }
    }
    let s = h.finish();
    sigs[f.index()] = Some(s);
    s
}

/// Label of a shared-graph edge every checker takes: call and return
/// edges, and local edges of class [`LocalFlow::Always`].
const ALWAYS: u32 = 0;
/// Label of a local edge of class [`LocalFlow::Arithmetic`].
const ARITHMETIC: u32 = 1;

/// Label of an edge through external callee `callee` (the empty-function
/// rule), whose meaning each checker resolves by the callee's name.
fn extern_label(callee: FuncId) -> u32 {
    2 + callee.0
}

/// The checker-independent flow graph the pass walks, built once per
/// [`CompactPdg::build`]: every def→target step of [`Pdg::flow_targets`]
/// as a labelled edge over [`VertexIndexer`] indices, in both directions.
/// Local edges of class [`LocalFlow::Never`] are left out, as no checker
/// takes them.
struct FlowGraph {
    fwd: LabeledCsr,
    rev: LabeledCsr,
    /// Number of edges carrying each label.
    label_edges: Vec<u64>,
}

impl FlowGraph {
    fn build(program: &Program, pdg: &Pdg, indexer: &VertexIndexer) -> FlowGraph {
        // Every data and call/return edge of the PDG is one flow target.
        let pdg_stats = pdg.stats();
        let mut fwd = LabeledCsr::with_capacity(
            indexer.len(),
            pdg_stats.data_edges + pdg_stats.interproc_edges,
        );
        let mut label_edges =
            vec![0u64; extern_label(FuncId(program.functions.len() as u32)) as usize];
        // Rows in index order: functions in order, definitions in order
        // (`defs[i].var == VarId(i)`). Externs have no outgoing edges.
        for func in &program.functions {
            for def in &func.defs {
                if !func.is_extern {
                    for t in pdg.flow_targets(program, Vertex::new(func.id, def.var)) {
                        if let Some((to, label)) = shared_edge(func, t) {
                            fwd.push(indexer.index(to) as u32, label);
                            label_edges[label as usize] += 1;
                        }
                    }
                }
                fwd.finish_row();
            }
        }
        debug_assert_eq!(fwd.rows(), indexer.len());
        let rev = fwd.reversed();
        FlowGraph {
            fwd,
            rev,
            label_edges,
        }
    }
}

/// The shared-graph edge of one flow target from a definition of `func`:
/// its target vertex and label, or `None` for a local edge no checker
/// takes.
fn shared_edge(func: &Function, t: FlowTarget) -> Option<(Vertex, u32)> {
    match t {
        FlowTarget::Local { to, operand } => {
            let label = match local_flow(func, to, operand) {
                LocalFlow::Always => ALWAYS,
                LocalFlow::Arithmetic => ARITHMETIC,
                LocalFlow::Never => return None,
            };
            Some((Vertex::new(func.id, to), label))
        }
        FlowTarget::IntoCallee { callee, param, .. } => Some((Vertex::new(callee, param), ALWAYS)),
        FlowTarget::BackToCaller { caller, dst, .. } => Some((Vertex::new(caller, dst), ALWAYS)),
        FlowTarget::ThroughExtern { to, callee, .. } => {
            Some((Vertex::new(func.id, to), extern_label(callee)))
        }
    }
}

/// What one checker does with an edge of the shared graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// The fact moves along the edge.
    Take,
    /// The fact reaches a sink: the edge's source is a sink trigger.
    Sink,
    /// The fact stops.
    Skip,
}

/// One checker's reading of every label, indexed by label. External
/// callees are resolved by name once here, not once per edge.
fn checker_steps(program: &Program, checker: &Checker) -> Vec<Step> {
    let take = |yes: bool| if yes { Step::Take } else { Step::Skip };
    let mut steps = vec![Step::Take, take(checker.takes(LocalFlow::Arithmetic))];
    steps.extend(program.functions.iter().map(|f| {
        if !f.is_extern {
            return Step::Skip; // no edge carries a non-extern's label
        }
        match checker.extern_role(program.name(f.name)) {
            ExternRole::Sink => Step::Sink,
            ExternRole::Pass => Step::Take,
            ExternRole::Stop => Step::Skip,
        }
    }));
    steps
}

/// Builds one checker's live set and chain table, accumulating pruning
/// counters.
fn build_checker(
    program: &Program,
    pdg: &Pdg,
    graph: &FlowGraph,
    checker: &Checker,
    indexer: &VertexIndexer,
    opts: &PropagateOptions,
    stats: &mut CompactStats,
) -> CheckerCompact {
    let n = indexer.len();
    let steps = checker_steps(program, checker);
    let step = |label: u32| steps[label as usize];

    // Forward reachability from the checker's sources over taken edges
    // (return edges ignore the CFL stack — every caller is taken, a safe
    // over-approximation), noting the sink triggers it meets.
    let mut fwd = DenseBitSet::new(n);
    let mut work: Vec<u32> = Vec::new();
    for src in source_vertices(program, checker) {
        let i = indexer.index(src);
        if fwd.insert(i) {
            work.push(i as u32);
        }
    }
    let mut triggers: Vec<u32> = Vec::new();
    while let Some(u) = work.pop() {
        let mut trigger = false;
        for (v, label) in graph.fwd.row(u as usize) {
            match step(label) {
                Step::Take => {
                    if fwd.insert(v as usize) {
                        work.push(v);
                    }
                }
                Step::Sink => trigger = true,
                Step::Skip => {}
            }
        }
        if trigger {
            triggers.push(u);
        }
    }

    // Backward closure from those triggers, confined to the forward
    // region. Every vertex on a walk from a forward-reachable vertex to a
    // trigger is itself forward-reachable, so the closure is exactly the
    // vertices both forward-reachable and backward-reaching a trigger.
    let mut live = DenseBitSet::new(n);
    let mut members: Vec<u32> = Vec::new();
    for &t in &triggers {
        if live.insert(t as usize) {
            work.push(t);
        }
    }
    while let Some(v) = work.pop() {
        members.push(v);
        for (u, label) in graph.rev.row(v as usize) {
            if step(label) == Step::Take && fwd.contains(u as usize) && live.insert(u as usize) {
                work.push(u);
            }
        }
    }

    // Pruned edges: every taken edge (by label count) but those inside
    // the live region.
    let taken: u64 = graph
        .label_edges
        .iter()
        .zip(&steps)
        .filter(|&(_, &s)| s == Step::Take)
        .map(|(&count, _)| count)
        .sum();
    let live_taken: usize = members
        .iter()
        .map(|&u| {
            graph
                .fwd
                .row(u as usize)
                .filter(|&(v, label)| step(label) == Step::Take && live.contains(v as usize))
                .count()
        })
        .sum();
    stats.vertices_pruned += (n - members.len()) as u64;
    stats.edges_pruned += taken - live_taken as u64;

    // Summary-chain collapse: one candidate corridor per (site, entry
    // parameter) of every non-extern call site.
    let mut chains: HashMap<(CallSiteId, VarId), SummaryChain> = HashMap::new();
    for (sid, cs) in program.call_sites.iter().enumerate() {
        let site = CallSiteId(sid as u32);
        let callee = program.func(cs.callee);
        if callee.is_extern {
            continue;
        }
        for &param in &callee.params {
            if let Some(chain) = detect_chain(
                program, pdg, &steps, &live, indexer, opts, site, cs.callee, param,
            ) {
                chains.insert((site, param), chain);
            }
        }
    }
    stats.chains_collapsed += chains.len() as u64;

    CheckerCompact { live, chains }
}

/// Walks the corridor entered at `site` through `param`, with the CFL
/// stack top statically known to be `site`. Succeeds only when every
/// vertex up to the matching exit is live, has exactly one taken step
/// target, records nothing (no sink trigger), and never enters a nested
/// call — precisely the conditions under which the vertex-by-vertex
/// traversal is deterministic and silent, so replaying the recorded
/// body is observationally identical.
#[allow(clippy::too_many_arguments)] // one internal call site; splitting a params struct would obscure it
fn detect_chain(
    program: &Program,
    pdg: &Pdg,
    steps: &[Step],
    live: &DenseBitSet,
    indexer: &VertexIndexer,
    opts: &PropagateOptions,
    site: CallSiteId,
    callee: FuncId,
    param: VarId,
) -> Option<SummaryChain> {
    let mut body: Vec<(Link, Vertex)> = Vec::new();
    let mut seen: std::collections::HashSet<Vertex> = std::collections::HashSet::new();
    let mut cur = Vertex::new(callee, param);
    let mut link = Link::Enter(site);
    loop {
        if !live.contains(indexer.index(cur)) || !seen.insert(cur) {
            return None; // dead or cyclic corridor: fall back to the plain walk
        }
        body.push((link, cur));
        if body.len() >= opts.max_path_len {
            return None; // could never complete within a path anyway
        }
        let func = program.func(cur.func);
        let mut taken = 0usize;
        let mut next: Option<(Link, Vertex)> = None;
        let mut exits = false;
        for t in pdg.flow_targets(program, cur) {
            match t {
                // A nested call would span a deeper frame; don't collapse.
                FlowTarget::IntoCallee { .. } => return None,
                FlowTarget::BackToCaller {
                    site: s,
                    caller,
                    dst,
                } => {
                    // With `site` on top of the stack only the matching
                    // parenthesis is taken; mismatches are blocked by the
                    // CFL discipline exactly as in discovery.
                    if s == site {
                        taken += 1;
                        next = Some((Link::Exit(site), Vertex::new(caller, dst)));
                        exits = true;
                    }
                }
                FlowTarget::Local { .. } | FlowTarget::ThroughExtern { .. } => {
                    let Some((to, label)) = shared_edge(func, t) else {
                        continue;
                    };
                    match steps[label as usize] {
                        Step::Take => {
                            taken += 1;
                            next = Some((Link::Local, to));
                        }
                        Step::Sink => return None, // the corridor would record mid-chain
                        Step::Skip => {}
                    }
                }
            }
        }
        if taken != 1 {
            return None;
        }
        let (l, v) = next.expect("taken == 1 implies a target");
        if exits {
            if !live.contains(indexer.index(v)) {
                return None;
            }
            body.push((l, v));
            return Some(SummaryChain { site, body });
        }
        link = l;
        cur = v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::Checker;
    use fusion_ir::{compile, CompileOptions};

    fn build(src: &str, set: &CheckerSet) -> (Program, Pdg, CompactPdg) {
        let p = compile(src, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let c = CompactPdg::build(&p, &g, set, &PropagateOptions::default());
        (p, g, c)
    }

    #[test]
    fn dead_flows_are_pruned_live_flows_are_kept() {
        // `q` reaches deref in f; the whole of g is dead for null-deref
        // (no source), as is f's unrelated arithmetic.
        let src = "extern fn deref(p);\n\
             fn f(x) { let q = null; let w = x + 1; deref(q); return w; }\n\
             fn g(y) { let z = y + 2; return z; }";
        let set = CheckerSet::single(Checker::null_deref());
        let (p, _, c) = build(src, &set);
        let f = p.func_by_name("f").unwrap();
        let g = p.func_by_name("g").unwrap();
        let q = f
            .defs
            .iter()
            .find(|d| matches!(d.kind, DefKind::Const { is_null: true, .. }))
            .unwrap();
        assert!(c.is_live(CheckerId(0), Vertex::new(f.id, q.var)));
        // g's vertices are all dead for the null checker.
        for d in &g.defs {
            assert!(!c.is_live(CheckerId(0), Vertex::new(g.id, d.var)));
        }
        assert!(c.stats().vertices_pruned > 0);
        assert!(c.stats().edges_pruned > 0);
    }

    #[test]
    fn identity_corridor_collapses_to_a_chain() {
        let src = "extern fn deref(p);\n\
             fn id(x) { return x; }\n\
             fn f() { let q = null; let r = id(q); deref(r); return 0; }";
        let set = CheckerSet::single(Checker::null_deref());
        let (p, _, c) = build(src, &set);
        assert_eq!(c.stats().chains_collapsed, 1);
        let id_f = p.func_by_name("id").unwrap();
        let site = CallSiteId(0);
        let chain = c
            .chain(CheckerId(0), site, id_f.params[0])
            .expect("identity corridor collapses");
        // Enter(param) → return def → Exit(receiver): three steps.
        assert_eq!(chain.len(), 3);
        assert!(matches!(chain.body[0].0, Link::Enter(s) if s == site));
        assert!(matches!(chain.body[2].0, Link::Exit(s) if s == site));
    }

    #[test]
    fn branching_callee_does_not_collapse() {
        // Inside `pick` the fact fans out to two uses, so the corridor is
        // not single-exit and must not collapse.
        let src = "extern fn deref(p);\n\
             fn pick(x) { let a = x + 1; let b = x + 2; let y = a + b; return y; }\n\
             fn f() { let q = null; let r = pick(q); deref(r); return 0; }";
        let set = CheckerSet::single(Checker::null_deref());
        let (p, _, c) = build(src, &set);
        let pick = p.func_by_name("pick").unwrap();
        assert!(c
            .chain(CheckerId(0), CallSiteId(0), pick.params[0])
            .is_none());
    }

    #[test]
    fn sink_inside_callee_blocks_collapse() {
        // The corridor records mid-chain (deref inside `use_it`), so it
        // must stay a vertex-by-vertex walk.
        let src = "extern fn deref(p);\n\
             fn use_it(x) { deref(x); return x; }\n\
             fn f() { let q = null; let r = use_it(q); deref(r); return 0; }";
        let set = CheckerSet::single(Checker::null_deref());
        let (p, _, c) = build(src, &set);
        let u = p.func_by_name("use_it").unwrap();
        assert!(c.chain(CheckerId(0), CallSiteId(0), u.params[0]).is_none());
    }

    #[test]
    fn iso_key_is_renaming_invariant_and_content_sensitive() {
        // f and g are byte-identical bodies at different FuncIds/sites;
        // h differs in content.
        let src = "extern fn deref(p);\n\
             fn f(x) { let q = null; let r = 1; if (x > 0) { r = q; } deref(r); return 0; }\n\
             fn g(x) { let q = null; let r = 1; if (x > 0) { r = q; } deref(r); return 0; }\n\
             fn h(x) { let q = null; let r = 1; if (x > 5) { r = q; } deref(r); return 0; }";
        let set = CheckerSet::single(Checker::null_deref());
        let (p, g, c) = build(src, &set);
        let cands = crate::propagate::discover(
            &p,
            &g,
            &Checker::null_deref(),
            &PropagateOptions::default(),
        );
        assert_eq!(cands.len(), 3);
        let key = |i: usize| c.iso_key(std::slice::from_ref(&cands[i].paths[0]));
        let exact =
            |i: usize| crate::cache::path_set_key(&p, std::slice::from_ref(&cands[i].paths[0]));
        assert_ne!(exact(0), exact(1), "exact keys separate f and g");
        assert_eq!(key(0), key(1), "iso keys unify isomorphic paths");
        assert_ne!(key(0), key(2), "different guard constant separates h");
    }

    /// Vertex `v{var}` of `f`, as numbered in the lowered IR each test
    /// quotes.
    fn vx(p: &Program, var: u32) -> Vertex {
        Vertex::new(p.func_by_name("f").unwrap().id, VarId(var))
    }

    fn stats(vertices_pruned: u64, edges_pruned: u64) -> CompactStats {
        CompactStats {
            vertices_pruned,
            edges_pruned,
            chains_collapsed: 0,
        }
    }

    #[test]
    fn sanitizer_cuts_a_taint_flow() {
        // v0 = gets(); v1 = realpath(v0) | strip(v0); v2 = fopen(v1);
        // v3 = 0; v4 = 1; v5 = return v3.
        let set = CheckerSet::single(Checker::cwe23());
        let flow = |lib: &str| {
            format!(
                "extern fn gets(); extern fn {lib}(x); extern fn fopen(p);\n\
                 fn f() {{ let i = gets(); let c = {lib}(i); fopen(c); return 0; }}"
            )
        };
        let (p, _, c) = build(&flow("realpath"), &set);
        assert!(!c.is_live(CheckerId(0), vx(&p, 0)));
        assert!(!c.is_live(CheckerId(0), vx(&p, 1)));
        // Taken: only v3→v5; the sanitizer edge is not.
        assert_eq!(c.stats(), stats(6, 1));

        let (p, _, c) = build(&flow("strip"), &set);
        assert!(c.is_live(CheckerId(0), vx(&p, 0)));
        assert!(c.is_live(CheckerId(0), vx(&p, 1)));
        // Taken: v0→v1 (live) and v3→v5.
        assert_eq!(c.stats(), stats(4, 1));
    }

    #[test]
    fn one_extern_is_a_sink_for_one_checker_and_a_pass_for_another() {
        // `send` is a CWE-402 sink and passes CWE-23 taint on; `fopen` is
        // the other way round.
        // v0 = gets(); v1 = send(v0); v2 = fopen(v1);
        // v3 = getpass(); v4 = fopen(v3); v5 = send(v4);
        // v6 = 0; v7 = 1; v8 = return v6.
        let src = "extern fn gets(); extern fn getpass(); extern fn send(x); extern fn fopen(p);\n\
             fn f() { let i = gets(); let s = send(i); fopen(s); \
             let k = getpass(); let t = fopen(k); send(t); return 0; }";
        let set = CheckerSet::new(vec![Checker::cwe23(), Checker::cwe402()]);
        let (p, _, c) = build(src, &set);
        let (cwe23, cwe402) = (CheckerId(0), CheckerId(1));
        for var in [0, 1] {
            assert!(c.is_live(cwe23, vx(&p, var)));
            assert!(!c.is_live(cwe402, vx(&p, var)));
        }
        for var in [3, 4] {
            assert!(c.is_live(cwe402, vx(&p, var)));
            assert!(!c.is_live(cwe23, vx(&p, var)));
        }
        // Each checker takes its pass edges (two) and v6→v8, and keeps
        // one of them live: 7 + 7 vertices and 2 + 2 edges pruned.
        assert_eq!(c.stats(), stats(14, 4));
    }

    #[test]
    fn self_subtraction_ends_a_taint_flow() {
        // v0 = gets(); v1 = v0 - v0 | v0 + v0; v2 = fopen(v1);
        // v3 = 0; v4 = 1; v5 = return v3.
        let set = CheckerSet::single(Checker::cwe23());
        let flow = |op: &str| {
            format!(
                "extern fn gets(); extern fn fopen(p);\n\
                 fn f() {{ let i = gets(); let z = i {op} i; fopen(z); return 0; }}"
            )
        };
        let (p, _, c) = build(&flow("-"), &set);
        assert!(!c.is_live(CheckerId(0), vx(&p, 0)));
        assert!(!c.is_live(CheckerId(0), vx(&p, 1)));
        // Neither `x - x` operand edge is taken; only v3→v5 is.
        assert_eq!(c.stats(), stats(6, 1));

        let (p, _, c) = build(&flow("+"), &set);
        assert!(c.is_live(CheckerId(0), vx(&p, 0)));
        assert!(c.is_live(CheckerId(0), vx(&p, 1)));
        // Both `x + x` operand edges are taken and live; v3→v5 is not.
        assert_eq!(c.stats(), stats(4, 1));
    }

    #[test]
    fn ite_condition_slot_carries_no_fact() {
        let set = CheckerSet::single(Checker::cwe23());
        // v0 = param a; v1 = gets(); v2 = branch if v1; v3 = 7;
        // v4 = ite(v1, v3, v0); v5 = fopen(v4); v6 = 0; v7 = 1;
        // v8 = return v6.
        let cond_only = "extern fn gets(); extern fn fopen(p);\n\
             fn f(a) { let i = gets(); let r = a; if (i) { r = 7; } fopen(r); return 0; }";
        let (p, _, c) = build(cond_only, &set);
        assert!(!c.is_live(CheckerId(0), vx(&p, 1)));
        assert!(!c.is_live(CheckerId(0), vx(&p, 4)));
        // Taken: v0→v4, v3→v4 (data slots) and v6→v8.
        assert_eq!(c.stats(), stats(9, 3));

        // v0 = param a; v1 = gets(); v2 = branch if v0;
        // v3 = ite(v0, v1, v0); v4 = fopen(v3); v5 = 0; v6 = 1;
        // v7 = return v5.
        let data_slot = "extern fn gets(); extern fn fopen(p);\n\
             fn f(a) { let i = gets(); let r = a; if (a) { r = i; } fopen(r); return 0; }";
        let (p, _, c) = build(data_slot, &set);
        assert!(c.is_live(CheckerId(0), vx(&p, 1)));
        assert!(c.is_live(CheckerId(0), vx(&p, 3)));
        // Taken: v0→v3 (else), v1→v3 (then, live) and v5→v7.
        assert_eq!(c.stats(), stats(6, 2));
    }

    #[test]
    fn half_chains_are_pruned() {
        // v0 = param a; v1 = gets(); v2 = 1; v3 = v1 + v2; v4 = 2;
        // v5 = v0 + v4; v6 = fopen(v5); v7 = fopen(v1); v8 = 0;
        // v9 = return v3.
        let src = "extern fn gets(); extern fn fopen(p);\n\
             fn f(a) { let i = gets(); let j = i + 1; let u = a + 2; fopen(u); fopen(i); return j; }";
        let set = CheckerSet::single(Checker::cwe23());
        let (p, _, c) = build(src, &set);
        assert!(c.is_live(CheckerId(0), vx(&p, 1)), "source feeding a sink");
        assert!(
            !c.is_live(CheckerId(0), vx(&p, 3)),
            "a source reaches it, it reaches no sink"
        );
        assert!(
            !c.is_live(CheckerId(0), vx(&p, 5)),
            "it reaches a sink, no source reaches it"
        );
        // Taken: four arithmetic edges and v3→v9, none inside {v1}.
        assert_eq!(c.stats(), stats(9, 5));
    }

    #[test]
    fn iso_verdicts_share_definite_and_drop_unknown() {
        let iso = IsoVerdicts::new();
        let k = Key128::from_parts(1, 2);
        assert!(iso.is_empty());
        iso.insert(k, Feasibility::Unknown);
        assert_eq!(iso.get(k), None, "Unknown is never memoized");
        iso.insert(k, Feasibility::Feasible);
        assert_eq!(iso.get(k), Some(Feasibility::Feasible));
        assert_eq!(iso.len(), 1);
    }
}
