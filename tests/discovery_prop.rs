//! Differential property tests for the optimized candidate discovery.
//!
//! The propagation's quadratic hot loops — the linear candidate scan in
//! `record` and the `Vec`-scan cycle check with a stack clone per step —
//! were replaced with a `(source, sink)` index map and a rolling-hash
//! visited set. The original implementation is kept as
//! `discover_reference`, the pseudo-oracle: on arbitrary generated
//! programs and every checker, the optimized discovery must reproduce
//! its candidates *exactly* — same order, same paths, same links. The
//! optimized side finds sources and decides sinks and sanitizers from a
//! table resolved once per program; the reference compares names.

use fusion::checkers::{Checker, CheckerId, CheckerSet};
use fusion::propagate::{
    discover, discover_reference, multi_source_vertices, source_vertices, Candidate,
    PropagateOptions,
};
use fusion_ir::{compile_ast, CompileOptions};
use fusion_pdg::graph::Pdg;
use fusion_workloads::{generate, GenConfig};
use proptest::prelude::*;

/// Everything a candidate carries, in a comparable form.
type CandKey = (
    fusion_pdg::graph::Vertex,
    fusion_pdg::graph::Vertex,
    Vec<(Vec<fusion_pdg::graph::Vertex>, Vec<fusion_pdg::paths::Link>)>,
);

fn keys(cands: &[Candidate]) -> Vec<CandKey> {
    cands
        .iter()
        .map(|c| {
            (
                c.source,
                c.sink,
                c.paths
                    .iter()
                    .map(|p| (p.nodes.clone(), p.links.clone()))
                    .collect(),
            )
        })
        .collect()
}

/// The paper's three checkers plus two whose name lists overlap theirs:
/// a null checker that also seeds from `gets`, and a taint checker whose
/// sources are two other checkers' sources.
fn overlapping_checkers() -> CheckerSet {
    let mut null_and_gets = Checker::null_deref();
    null_and_gets.source_fns = vec!["gets".into()];
    let mut both = Checker::cwe402();
    both.source_fns = vec!["gets".into(), "getpass".into()];
    let mut set = fusion::checkers::default_checkers();
    set.extend([null_and_gets, both]);
    CheckerSet::new(set)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn one_pass_sources_match_per_checker_name_scans(seed in 0u64..100_000) {
        let cfg = GenConfig { seed, functions: 12, ..Default::default() };
        let mut subject = generate(&cfg);
        let program =
            compile_ast(&subject.surface, &mut subject.interner, CompileOptions::default())
                .expect("compile");
        let set = overlapping_checkers();
        let expected: Vec<_> = set
            .iter()
            .flat_map(|(id, c)| source_vertices(&program, c).into_iter().map(move |v| (id, v)))
            .collect();
        prop_assert!(expected.iter().any(|&(id, _)| id == CheckerId(3)));
        prop_assert_eq!(multi_source_vertices(&program, &set), expected, "seed {}", seed);
    }

    #[test]
    fn optimized_discovery_matches_reference(seed in 0u64..100_000) {
        let cfg = GenConfig { seed, functions: 12, ..Default::default() };
        let mut subject = generate(&cfg);
        let program =
            compile_ast(&subject.surface, &mut subject.interner, CompileOptions::default())
                .expect("compile");
        let pdg = Pdg::build(&program);
        let opts = PropagateOptions::default();
        for checker in [Checker::null_deref(), Checker::cwe23(), Checker::cwe402()] {
            let reference = keys(&discover_reference(&program, &pdg, &checker, &opts));
            let optimized = keys(&discover(&program, &pdg, &checker, &opts));
            prop_assert_eq!(
                &optimized, &reference,
                "optimized discovery diverged, seed {} {}", seed, checker.kind
            );
        }
    }
}
