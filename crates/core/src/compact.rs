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
//!    discovery step saved.
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
use crate::checkers::{Checker, CheckerId, CheckerSet};
use crate::engine::Feasibility;
use crate::propagate::{source_vertices, PropagateOptions};
use fusion_ir::ssa::{CallSiteId, DefKind, FuncId, Program, VarId};
use fusion_pdg::compact::{DenseBitSet, SummaryChain, VertexIndexer};
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
        let mut stats = CompactStats::default();
        let mut per_checker = Vec::with_capacity(set.len());
        for (_, checker) in set.iter() {
            per_checker.push(build_checker(
                program, pdg, checker, &indexer, opts, &mut stats,
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

/// Builds one checker's live set and chain table, accumulating pruning
/// counters.
fn build_checker(
    program: &Program,
    pdg: &Pdg,
    checker: &Checker,
    indexer: &VertexIndexer,
    opts: &PropagateOptions,
    stats: &mut CompactStats,
) -> CheckerCompact {
    let n = indexer.len();
    // The checker-taken edge relation, as discovery walks it — except
    // that return edges ignore the CFL stack (every caller is taken), a
    // safe over-approximation for reachability.
    let mut fwd_adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut trigger = vec![false; n];
    for func in program.functions.iter().filter(|f| !f.is_extern) {
        for def in &func.defs {
            let at = Vertex::new(func.id, def.var);
            let ai = indexer.index(at);
            for t in pdg.flow_targets(program, at) {
                match t {
                    FlowTarget::Local { to, operand } => {
                        if checker.propagates_through(func, to, operand)
                            && checker.keeps_fact(func, to)
                        {
                            fwd_adj[ai].push(indexer.index(Vertex::new(func.id, to)) as u32);
                        }
                    }
                    FlowTarget::IntoCallee { callee, param, .. } => {
                        fwd_adj[ai].push(indexer.index(Vertex::new(callee, param)) as u32);
                    }
                    FlowTarget::BackToCaller { caller, dst, .. } => {
                        fwd_adj[ai].push(indexer.index(Vertex::new(caller, dst)) as u32);
                    }
                    FlowTarget::ThroughExtern { to, .. } => {
                        if checker.is_sink(program, func, to) {
                            trigger[ai] = true;
                        } else if checker.through_extern && !checker.is_sanitizer(program, func, to)
                        {
                            fwd_adj[ai].push(indexer.index(Vertex::new(func.id, to)) as u32);
                        }
                    }
                }
            }
        }
    }

    // Forward reachability from the checker's sources.
    let mut fwd = DenseBitSet::new(n);
    let mut work: Vec<u32> = Vec::new();
    for src in source_vertices(program, checker) {
        let i = indexer.index(src);
        if fwd.insert(i) {
            work.push(i as u32);
        }
    }
    while let Some(u) = work.pop() {
        for &v in &fwd_adj[u as usize] {
            if fwd.insert(v as usize) {
                work.push(v);
            }
        }
    }

    // Backward reachability to a sink trigger (over reversed edges).
    let mut rev_adj: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (u, outs) in fwd_adj.iter().enumerate() {
        for &v in outs {
            rev_adj[v as usize].push(u as u32);
        }
    }
    let mut bwd = DenseBitSet::new(n);
    for (i, &t) in trigger.iter().enumerate() {
        if t && bwd.insert(i) {
            work.push(i as u32);
        }
    }
    while let Some(u) = work.pop() {
        for &v in &rev_adj[u as usize] {
            if bwd.insert(v as usize) {
                work.push(v);
            }
        }
    }

    let mut live = DenseBitSet::new(n);
    for i in 0..n {
        if fwd.contains(i) && bwd.contains(i) {
            live.insert(i);
        }
    }
    stats.vertices_pruned += (n - live.count()) as u64;
    for (u, outs) in fwd_adj.iter().enumerate() {
        for &v in outs {
            if !(live.contains(u) && live.contains(v as usize)) {
                stats.edges_pruned += 1;
            }
        }
    }

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
                program, pdg, checker, &live, indexer, opts, site, cs.callee, param,
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
    checker: &Checker,
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
                FlowTarget::Local { to, operand } => {
                    if checker.propagates_through(func, to, operand) && checker.keeps_fact(func, to)
                    {
                        taken += 1;
                        next = Some((Link::Local, Vertex::new(cur.func, to)));
                    }
                }
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
                FlowTarget::ThroughExtern { to, .. } => {
                    if checker.is_sink(program, func, to) {
                        return None; // the corridor would record mid-chain
                    }
                    if checker.through_extern && !checker.is_sanitizer(program, func, to) {
                        taken += 1;
                        next = Some((Link::Local, Vertex::new(cur.func, to)));
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
