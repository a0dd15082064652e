//! Property test: lowering preserves semantics on *generated* programs.
//!
//! The workload generator produces arbitrary structured surface programs
//! (branches, loops, call DAGs, seeded bugs); for every function we compare
//! the surface interpreter (with bounded loop semantics) against the
//! speculative core-SSA evaluator on sampled inputs — values and observed
//! extern-call traces must agree exactly.

use fusion_ir::callgraph::unroll_recursion;
use fusion_ir::interp::{eval_core, eval_surface};
use fusion_ir::lower::{lower, LowerOptions};
use fusion_ir::validate::validate;
use fusion_workloads::{generate, GenConfig};
use proptest::prelude::*;
use std::borrow::Cow;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn generated_programs_lower_equivalently(seed in 0u64..10_000, inputs in prop::collection::vec(any::<u32>(), 3)) {
        let cfg = GenConfig {
            seed,
            functions: 8,
            stmts_per_function: 10,
            ..Default::default()
        };
        let mut subject = generate(&cfg);
        let unroll = 2usize;
        let surface = unroll_recursion(&subject.surface, &mut subject.interner, 2)
            .expect("call graph builds");
        // The generator only calls functions it has already emitted, so
        // its call graphs are acyclic and come back uncopied.
        prop_assert!(matches!(surface, Cow::Borrowed(_)), "seed {} is recursive", seed);
        let core = lower(&surface, &mut subject.interner, LowerOptions { loop_unroll: unroll })
            .expect("lowering succeeds");
        validate(&core).expect("core IR validates");

        for func in core.functions.iter().filter(|f| !f.is_extern) {
            let name_sym = func.name;
            let args: Vec<u32> = (0..func.params.len())
                .map(|i| inputs.get(i).copied().unwrap_or(17))
                .collect();
            let surf = eval_surface(&surface, &subject.interner, name_sym, &args, unroll, 2_000_000);
            let core_r = eval_core(&core, func.id, &args, 2_000_000);
            // Fuel exhaustion on either side: skip (speculative core
            // evaluation can cost more; equivalence holds where both
            // terminate within budget).
            if let (Ok((sv, st)), Ok((cv, ct))) = (surf, core_r) {
                prop_assert_eq!(
                    sv,
                    cv.ret,
                    "value mismatch in {} seed {}",
                    subject.interner.resolve(name_sym),
                    seed
                );
                let mut s_calls = st.extern_calls;
                let mut c_calls = ct.extern_calls;
                s_calls.sort();
                c_calls.sort();
                prop_assert_eq!(
                    s_calls,
                    c_calls,
                    "trace mismatch in {} seed {}",
                    subject.interner.resolve(name_sym),
                    seed
                );
            }
        }
    }
}
