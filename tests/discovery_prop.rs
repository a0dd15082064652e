//! Differential property tests for the optimized candidate discovery.
//!
//! The propagation's quadratic hot loops — the linear candidate scan in
//! `record` and the `Vec`-scan cycle check with a stack clone per step —
//! were replaced with a `(source, sink)` index map and a rolling-hash
//! visited set. The original implementation is kept as
//! `discover_reference`, the pseudo-oracle: on arbitrary generated
//! programs and every checker, the optimized discovery must reproduce
//! its candidates *exactly* — same order, same paths, same links.

use fusion::checkers::Checker;
use fusion::propagate::{discover, discover_reference, Candidate, PropagateOptions};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

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
