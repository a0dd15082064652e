//! Property test: PDG compaction is report-preserving on arbitrary
//! generated subjects.
//!
//! The pre-discovery graph-reduction pass (frontier pruning, summary-
//! chain collapse, isomorphic-verdict sharing — DESIGN.md "PDG
//! compaction") removes *work*, never *findings*: for any generated
//! program, on a borrowed engine and at any thread count 1–8, with and
//! without the verdict cache, with and without incremental sessions,
//! with and without abstract-interpretation triage, the compacted scan
//! must produce per-checker reports byte-identical — same sources,
//! sinks, verdicts, witness paths, in the same order — to the
//! uncompacted borrowed-engine scan.
//!
//! The second assertion pins the replay layer down: a collapsed summary
//! chain is re-expanded into the *original* vertex sequence when a path
//! is recorded, so the [`path_set_key`] of every reported witness path
//! is bit-for-bit the key plain discovery would have produced. This is
//! what lets compacted and uncompacted runs share one verdict-cache
//! population.
//!
//! Reports alone cannot see a live set that keeps too much (less pruning,
//! same reports) or a drifted counter, so the third property checks the
//! compacted view itself against an oracle written here from first
//! principles: one adjacency list per checker over [`Pdg::flow_targets`]
//! filtered by the [`Checker`] predicates, a forward BFS from the
//! checker's sources intersected with a backward BFS from its sink
//! triggers, and the corridor walk of summary-chain collapse.

use fusion::cache::VerdictCache;
use fusion::checkers::{Checker, CheckerSet};
use fusion::compact::{CompactPdg, CompactStats};
use fusion::engine::{
    analyze_multi_streaming_with_cache, analyze_multi_with_cache, AnalysisOptions,
    FeasibilityEngine, MultiAnalysisRun,
};
use fusion::graph_solver::FusionSolver;
use fusion::propagate::{source_vertices, PropagateOptions};
use fusion::{path_set_key, Feasibility, Key128};
use fusion_ir::ssa::{CallSiteId, FuncId, VarId};
use fusion_ir::{compile, compile_ast, CompileOptions, Program};
use fusion_pdg::graph::{FlowTarget, Pdg, Vertex};
use fusion_pdg::paths::Link;
use fusion_smt::solver::SolverConfig;
use fusion_workloads::{generate, generate_multi, GenConfig};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Everything that reaches the user, plus the verdict-cache key of the
/// witness path — the latter must survive chain collapse bit-for-bit.
type ReportKey = (
    fusion_pdg::graph::Vertex,
    fusion_pdg::graph::Vertex,
    Feasibility,
    Vec<fusion_pdg::graph::Vertex>,
    Key128,
);

fn breakdown_keys(program: &Program, run: &MultiAnalysisRun) -> Vec<Vec<ReportKey>> {
    run.checkers
        .iter()
        .map(|b| {
            b.reports
                .iter()
                .map(|r| {
                    (
                        r.source,
                        r.sink,
                        r.verdict,
                        r.path.nodes.clone(),
                        path_set_key(program, std::slice::from_ref(&r.path)),
                    )
                })
                .collect()
        })
        .collect()
}

/// One `(cache, incremental, absint)` configuration and its options.
fn options(cache: bool, absint: bool, compact: bool) -> AnalysisOptions {
    let base = if cache {
        AnalysisOptions::new()
    } else {
        AnalysisOptions::without_cache()
    };
    AnalysisOptions {
        absint,
        compact,
        ..base
    }
}

fn factory(incremental: bool) -> impl Fn() -> Box<dyn FeasibilityEngine> + Sync {
    move || {
        let mut engine = FusionSolver::new(SolverConfig::default());
        engine.incremental = incremental;
        Box::new(engine)
    }
}

fn borrowed(
    program: &Program,
    pdg: &Pdg,
    set: &CheckerSet,
    incremental: bool,
    opts: &AnalysisOptions,
    cache: Option<&VerdictCache>,
) -> MultiAnalysisRun {
    let mut engine = FusionSolver::new(SolverConfig::default());
    engine.incremental = incremental;
    analyze_multi_with_cache(program, pdg, set, &mut engine, opts, cache)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn compaction_preserves_reports_everywhere(seed in 0u64..100_000) {
        let cfg = GenConfig { seed, functions: 8, ..Default::default() };
        let mut subject = generate(&cfg);
        let program =
            compile_ast(&subject.surface, &mut subject.interner, CompileOptions::default())
                .expect("compile");
        let pdg = Pdg::build(&program);
        let set = CheckerSet::all();

        // All (cache, incremental, absint) configurations. The
        // uncompacted borrowed-engine run of each is the reference its
        // compacted runs must reproduce.
        let combos: Vec<(bool, bool, bool)> = (0..8)
            .map(|i| (i & 1 != 0, i & 2 != 0, i & 4 != 0))
            .collect();
        let mut wants = Vec::new();
        for &(use_cache, incremental, absint) in &combos {
            let plain_cache = VerdictCache::new();
            let plain = borrowed(
                &program,
                &pdg,
                &set,
                incremental,
                &options(use_cache, absint, false),
                use_cache.then_some(&plain_cache),
            );
            let want = breakdown_keys(&program, &plain);
            prop_assert_eq!(plain.stages.vertices_pruned, 0);

            let on_cache = VerdictCache::new();
            let compacted = borrowed(
                &program,
                &pdg,
                &set,
                incremental,
                &options(use_cache, absint, true),
                use_cache.then_some(&on_cache),
            );
            prop_assert_eq!(
                breakdown_keys(&program, &compacted),
                want.clone(),
                "borrowed engine diverged at seed {} cache={} incremental={} absint={}",
                seed, use_cache, incremental, absint
            );
            wants.push(want);
        }

        // Factory-built engines, every thread count 1–8, rotating
        // through the configurations so the sweep covers all of them.
        for threads in 1..=8usize {
            let (use_cache, incremental, absint) = combos[threads - 1];
            let want = &wants[threads - 1];
            let opts = options(use_cache, absint, true);
            let run_cache = VerdictCache::new();
            let run = analyze_multi_streaming_with_cache(
                &program,
                &pdg,
                &set,
                &factory(incremental),
                threads,
                &opts,
                use_cache.then_some(&run_cache),
            );
            prop_assert_eq!(
                &breakdown_keys(&program, &run),
                want,
                "diverged at seed {} threads={} cache={} incremental={} absint={}",
                seed, threads, use_cache, incremental, absint
            );
        }
    }
}

/// One checker's compaction, computed the oracle's way.
struct Reference {
    /// Every vertex of the program, and whether it is live.
    live: Vec<(Vertex, bool)>,
    vertices_pruned: u64,
    edges_pruned: u64,
    /// The collapsed corridors, keyed by `(call site, entry parameter)`.
    chains: HashMap<(CallSiteId, VarId), Vec<(Link, Vertex)>>,
}

/// Marks everything reachable from `roots` over `adj`.
fn reach(adj: &[Vec<usize>], roots: impl IntoIterator<Item = usize>) -> Vec<bool> {
    let mut seen = vec![false; adj.len()];
    let mut work: Vec<usize> = roots.into_iter().collect();
    while let Some(u) = work.pop() {
        if !std::mem::replace(&mut seen[u], true) {
            work.extend(adj[u].iter().copied());
        }
    }
    seen
}

fn reference(
    program: &Program,
    pdg: &Pdg,
    checker: &Checker,
    opts: &PropagateOptions,
) -> Reference {
    let vertices: Vec<Vertex> = program
        .functions
        .iter()
        .flat_map(|f| f.defs.iter().map(move |d| Vertex::new(f.id, d.var)))
        .collect();
    let index: HashMap<Vertex, usize> = vertices.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let n = vertices.len();

    // The checker-taken edges, with multiplicity; return edges ignore the
    // CFL stack.
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut triggers = Vec::new();
    for func in program.functions.iter().filter(|f| !f.is_extern) {
        for def in &func.defs {
            let at = Vertex::new(func.id, def.var);
            for t in pdg.flow_targets(program, at) {
                let to = match t {
                    FlowTarget::Local { to, operand } => (checker
                        .propagates_through(func, to, operand)
                        && checker.keeps_fact(func, to))
                    .then_some(Vertex::new(func.id, to)),
                    FlowTarget::IntoCallee { callee, param, .. } => {
                        Some(Vertex::new(callee, param))
                    }
                    FlowTarget::BackToCaller { caller, dst, .. } => Some(Vertex::new(caller, dst)),
                    FlowTarget::ThroughExtern { to, .. } => {
                        if checker.is_sink(program, func, to) {
                            triggers.push(index[&at]);
                            None
                        } else {
                            (checker.through_extern && !checker.is_sanitizer(program, func, to))
                                .then_some(Vertex::new(func.id, to))
                        }
                    }
                };
                if let Some(v) = to {
                    adj[index[&at]].push(index[&v]);
                }
            }
        }
    }
    let mut radj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, outs) in adj.iter().enumerate() {
        for &v in outs {
            radj[v].push(u);
        }
    }
    let fwd = reach(
        &adj,
        source_vertices(program, checker).iter().map(|v| index[v]),
    );
    let bwd = reach(&radj, triggers);
    let live: Vec<bool> = (0..n).map(|i| fwd[i] && bwd[i]).collect();
    let edges_pruned = adj
        .iter()
        .enumerate()
        .flat_map(|(u, outs)| outs.iter().map(move |&v| (u, v)))
        .filter(|&(u, v)| !(live[u] && live[v]))
        .count();

    let is_live = |v: Vertex| live[index[&v]];
    let mut chains = HashMap::new();
    for (sid, cs) in program.call_sites.iter().enumerate() {
        let site = CallSiteId(sid as u32);
        let callee = program.func(cs.callee);
        if callee.is_extern {
            continue;
        }
        for &param in &callee.params {
            let chain = reference_chain(
                program, pdg, checker, &is_live, opts, site, callee.id, param,
            );
            if let Some(body) = chain {
                chains.insert((site, param), body);
            }
        }
    }
    Reference {
        live: vertices.iter().zip(&live).map(|(&v, &l)| (v, l)).collect(),
        vertices_pruned: live.iter().filter(|&&l| !l).count() as u64,
        edges_pruned: edges_pruned as u64,
        chains,
    }
}

/// Follows the corridor entered at `site` through `param` while it is
/// live, acyclic, shorter than a path may be, free of nested calls and
/// sinks, and has exactly one taken step at every vertex, up to the exit
/// matching `site`.
#[allow(clippy::too_many_arguments)]
fn reference_chain(
    program: &Program,
    pdg: &Pdg,
    checker: &Checker,
    is_live: &dyn Fn(Vertex) -> bool,
    opts: &PropagateOptions,
    site: CallSiteId,
    callee: FuncId,
    param: VarId,
) -> Option<Vec<(Link, Vertex)>> {
    let mut body = Vec::new();
    let mut seen = HashSet::new();
    let (mut link, mut cur) = (Link::Enter(site), Vertex::new(callee, param));
    loop {
        if !is_live(cur) || !seen.insert(cur) {
            return None;
        }
        body.push((link, cur));
        if body.len() >= opts.max_path_len {
            return None;
        }
        let func = program.func(cur.func);
        let mut next = Vec::new();
        for t in pdg.flow_targets(program, cur) {
            match t {
                FlowTarget::Local { to, operand } => {
                    if checker.propagates_through(func, to, operand) && checker.keeps_fact(func, to)
                    {
                        next.push((Link::Local, Vertex::new(cur.func, to)));
                    }
                }
                FlowTarget::IntoCallee { .. } => return None,
                FlowTarget::BackToCaller {
                    site: s,
                    caller,
                    dst,
                } if s == site => {
                    next.push((Link::Exit(site), Vertex::new(caller, dst)));
                }
                FlowTarget::BackToCaller { .. } => {}
                FlowTarget::ThroughExtern { to, .. } => {
                    if checker.is_sink(program, func, to) {
                        return None;
                    }
                    if checker.through_extern && !checker.is_sanitizer(program, func, to) {
                        next.push((Link::Local, Vertex::new(cur.func, to)));
                    }
                }
            }
        }
        let [(l, v)] = next[..] else {
            return None;
        };
        if let Link::Exit(_) = l {
            if !is_live(v) {
                return None;
            }
            body.push((l, v));
            return Some(body);
        }
        (link, cur) = (l, v);
    }
}

/// Checks the compacted view of `program` under every checker of
/// [`CheckerSet::all`] against [`reference`]: the live set vertex by
/// vertex, every collapsed chain, and the three counters.
fn check_against_reference(program: &Program) -> Result<(), TestCaseError> {
    let pdg = Pdg::build(program);
    let set = CheckerSet::all();
    let opts = PropagateOptions::default();
    let compact = CompactPdg::build(program, &pdg, &set, &opts);
    let mut want = CompactStats::default();
    let mut live_anywhere = 0usize;
    for (id, checker) in set.iter() {
        let r = reference(program, &pdg, checker, &opts);
        for &(v, live) in &r.live {
            prop_assert_eq!(
                compact.is_live(id, v),
                live,
                "{:?} liveness of {}",
                checker.kind,
                v
            );
            live_anywhere += live as usize;
        }
        for (sid, cs) in program.call_sites.iter().enumerate() {
            let site = CallSiteId(sid as u32);
            for &param in &program.func(cs.callee).params {
                prop_assert_eq!(
                    compact.chain(id, site, param).map(|c| &c.body),
                    r.chains.get(&(site, param)),
                    "{:?} chain at site {} param {}",
                    checker.kind,
                    sid,
                    param.0
                );
            }
        }
        want.vertices_pruned += r.vertices_pruned;
        want.edges_pruned += r.edges_pruned;
        want.chains_collapsed += r.chains.len() as u64;
    }
    prop_assert!(live_anywhere > 0, "the seeded bugs keep some vertex live");
    prop_assert_eq!(compact.stats(), want);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn compaction_matches_reference_live_sets_and_counters(
        seed in 0u64..100_000,
        modules in 2usize..4,
    ) {
        let cfg = GenConfig { seed, functions: 8, ..Default::default() };
        let mut subject = generate(&cfg);
        let single =
            compile_ast(&subject.surface, &mut subject.interner, CompileOptions::default())
                .expect("compile");
        check_against_reference(&single)?;
        let multi = compile(&generate_multi(&cfg, modules), CompileOptions::default())
            .expect("compile");
        check_against_reference(&multi)?;
    }
}
