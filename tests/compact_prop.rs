//! Property test: frontier reachability pruning matches an oracle.
//!
//! The pruning pass (`fusion::compact`) runs in no pipeline any more; it
//! stays only because the end-to-end benchmark times
//! `CompactPdg::build`, until the benchmark PR of ROADMAP item 1(c)
//! drops it. While it stays, this test checks the live sets it builds
//! against an oracle written here from first principles: one adjacency
//! list per checker over [`Pdg::flow_targets`] filtered by the
//! [`Checker`] predicates, and a forward BFS from the checker's sources
//! intersected with a backward BFS from its sink triggers.

use fusion::checkers::{Checker, CheckerSet};
use fusion::compact::{CompactPdg, CompactStats};
use fusion::propagate::{source_vertices, PropagateOptions};
use fusion_ir::{compile, compile_ast, CompileOptions, Program};
use fusion_pdg::graph::{FlowTarget, Pdg, Vertex};
use fusion_workloads::{generate, generate_multi, GenConfig};
use proptest::prelude::*;
use std::collections::HashMap;

/// One checker's compaction, computed the oracle's way.
struct Reference {
    /// Every vertex of the program, and whether it is live.
    live: Vec<(Vertex, bool)>,
    vertices_pruned: u64,
    edges_pruned: u64,
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

fn reference(program: &Program, pdg: &Pdg, checker: &Checker) -> Reference {
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

    Reference {
        live: vertices.iter().zip(&live).map(|(&v, &l)| (v, l)).collect(),
        vertices_pruned: live.iter().filter(|&&l| !l).count() as u64,
        edges_pruned: edges_pruned as u64,
    }
}

/// Checks the compacted view of `program` under every checker of
/// [`CheckerSet::all`] against [`reference`]: the live set vertex by
/// vertex and both counters.
fn check_against_reference(program: &Program) -> Result<(), TestCaseError> {
    let pdg = Pdg::build(program);
    let set = CheckerSet::all();
    let compact = CompactPdg::build(program, &pdg, &set, &PropagateOptions::default());
    let mut want = CompactStats::default();
    let mut live_anywhere = 0usize;
    for (id, checker) in set.iter() {
        let r = reference(program, &pdg, checker);
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
        want.vertices_pruned += r.vertices_pruned;
        want.edges_pruned += r.edges_pruned;
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
