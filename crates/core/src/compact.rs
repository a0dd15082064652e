//! Frontier reachability pruning of the PDG, in no pipeline any more.
//!
//! The pass was modelled on the removal of redundant summaries: a summary
//! edge that lies on no source→sink chain for the active checkers can
//! never carry a finding. On every end-to-end benchmark workload,
//! though, every source reaches a sink, so pruning saved no discovery
//! step and no query while the build cost time; discovery now walks the
//! plain PDG. The pass stays only because the end-to-end benchmark's
//! `graph_layers` times [`CompactPdg::build`] as its `compact.build`
//! layer. It goes, with `fusion_pdg::compact`, in the benchmark PR of
//! ROADMAP item 1(c), which stops calling it.
//!
//! [`CompactPdg`] holds, per checker of a [`CheckerSet`], the *live*
//! vertex set: forward reachable from the checker's sources **and**
//! backward reaching a sink-trigger vertex, over the checker-taken
//! def-use + summary edges. A dead subtree can record nothing (any
//! recording vertex inside one would be live by definition).
//!
//! The edges live in one checker-independent flow graph built once per
//! [`CompactPdg::build`]: a [`LabeledCsr`] over [`VertexIndexer`] indices
//! and its reverse, each edge labelled *always* (call, return, copy,
//! return-value and `ite`-data uses), *arithmetic* (non-predicate
//! `Binary` other than `x - x`) or *through external callee f*; local
//! edges no checker takes are left out. The local classes come from
//! `checkers::local_flow`, the one statement of those rules. Each checker
//! reads the labels through its own table — external callees resolved to
//! sink, pass or stop once by name — runs a forward BFS from its sources
//! that notes the sink triggers it meets, then a backward closure from
//! those triggers confined to the forward region. Every vertex on a walk
//! from a forward-reachable vertex to a trigger is itself
//! forward-reachable, so that closure is exactly forward ∩ backward, and
//! it touches only the forward region.
//!
//! The live sets are **dependence structure only** — bit sets over
//! vertex indices. No path condition is ever computed or stored.

use crate::checkers::{local_flow, Checker, CheckerId, CheckerSet, ExternRole, LocalFlow};
use crate::propagate::{source_vertices, PropagateOptions};
use fusion_ir::ssa::{FuncId, Function, Program};
use fusion_pdg::compact::{DenseBitSet, LabeledCsr, VertexIndexer};
use fusion_pdg::graph::{FlowTarget, Pdg, Vertex};

/// Counters describing how much the compaction pass removed, summed over
/// the checkers of the set (each checker has its own live set, because
/// "taken" edges are a per-checker notion).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    /// Vertices outside some checker's live set (summed per checker).
    pub vertices_pruned: u64,
    /// Checker-taken edges with a dead endpoint (summed per checker).
    pub edges_pruned: u64,
}

/// The live sets of one `(program, pdg, checker set)` triple. No
/// discovery reads them: the end-to-end benchmark builds one to time the
/// pass, and the type stays only until the benchmark PR of ROADMAP item
/// 1(c) stops doing so.
pub struct CompactPdg {
    indexer: VertexIndexer,
    /// Per checker, in [`CheckerSet`] order: the vertices that are
    /// forward-reachable from a source and backward-reach a sink trigger
    /// over that checker's taken edges.
    live: Vec<DenseBitSet>,
    stats: CompactStats,
}

impl CompactPdg {
    /// Runs the compaction pass for every checker of the set. Liveness
    /// does not depend on the propagation budgets, so `_opts` is not
    /// read; the parameter keeps the signature the benchmark harness
    /// calls.
    pub fn build(
        program: &Program,
        pdg: &Pdg,
        set: &CheckerSet,
        _opts: &PropagateOptions,
    ) -> CompactPdg {
        let indexer = VertexIndexer::new(program);
        let graph = FlowGraph::build(program, pdg, &indexer);
        let mut stats = CompactStats::default();
        let live = set
            .iter()
            .map(|(_, checker)| build_checker(program, &graph, checker, &indexer, &mut stats))
            .collect();
        CompactPdg {
            indexer,
            live,
            stats,
        }
    }

    /// What the pass removed.
    pub fn stats(&self) -> CompactStats {
        self.stats
    }

    /// Whether `v` is live for checker `id` — i.e. lies on some
    /// source→sink chain of taken edges.
    pub fn is_live(&self, id: CheckerId, v: Vertex) -> bool {
        self.live[id.0].contains(self.indexer.index(v))
    }
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

/// Builds one checker's live set, accumulating pruning counters.
fn build_checker(
    program: &Program,
    graph: &FlowGraph,
    checker: &Checker,
    indexer: &VertexIndexer,
    stats: &mut CompactStats,
) -> DenseBitSet {
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

    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::Checker;
    use fusion_ir::ssa::{DefKind, VarId};
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

    /// Vertex `v{var}` of `f`, as numbered in the lowered IR each test
    /// quotes.
    fn vx(p: &Program, var: u32) -> Vertex {
        Vertex::new(p.func_by_name("f").unwrap().id, VarId(var))
    }

    fn stats(vertices_pruned: u64, edges_pruned: u64) -> CompactStats {
        CompactStats {
            vertices_pruned,
            edges_pruned,
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
}
