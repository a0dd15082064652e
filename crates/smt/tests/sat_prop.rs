//! Property tests for the CDCL SAT solver against exhaustive enumeration.

use fusion_smt::cnf::{BVar, Cnf, Lit};
use fusion_smt::sat::{solve_cnf, SatBudget, SatOutcome};
use proptest::prelude::*;

const MAX_VARS: u32 = 10;

fn cnf_strategy() -> impl Strategy<Value = Cnf> {
    // Clauses of 1..4 literals over up to MAX_VARS variables.
    let clause = prop::collection::vec((0..MAX_VARS, any::<bool>()), 1..4);
    prop::collection::vec(clause, 0..40).prop_map(|clauses| {
        let mut cnf = Cnf::new();
        for _ in 0..MAX_VARS {
            cnf.fresh();
        }
        for c in clauses {
            let clause: Vec<Lit> = c
                .into_iter()
                .map(|(v, pos)| Lit::new(BVar(v), pos))
                .collect();
            cnf.add(&clause);
        }
        cnf
    })
}

fn brute_force(cnf: &Cnf) -> bool {
    let n = cnf.num_vars;
    for bits in 0..(1u32 << n) {
        let assign: Vec<bool> = (0..n).map(|i| (bits >> i) & 1 == 1).collect();
        if cnf.eval(&assign) {
            return true;
        }
    }
    false
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn cdcl_agrees_with_enumeration(cnf in cnf_strategy()) {
        let expected = brute_force(&cnf);
        match solve_cnf(&cnf, SatBudget::default()) {
            SatOutcome::Sat(model) => {
                prop_assert!(expected, "solver said sat, enumeration says unsat");
                prop_assert!(cnf.eval(&model), "returned model must satisfy the formula");
            }
            SatOutcome::Unsat => prop_assert!(!expected, "solver said unsat, witness exists"),
            SatOutcome::Unknown => prop_assert!(false, "no budget was set"),
        }
    }

    #[test]
    fn adding_clauses_never_makes_unsat_sat(cnf in cnf_strategy(), extra in prop::collection::vec((0..MAX_VARS, any::<bool>()), 1..3)) {
        // Monotonicity: if cnf is unsat, cnf + extra clause stays unsat.
        let base = solve_cnf(&cnf, SatBudget::default());
        if matches!(base, SatOutcome::Unsat) {
            let mut stronger = cnf.clone();
            let clause: Vec<Lit> = extra.into_iter().map(|(v, pos)| Lit::new(BVar(v), pos)).collect();
            stronger.add(&clause);
            prop_assert!(matches!(solve_cnf(&stronger, SatBudget::default()), SatOutcome::Unsat));
        }
    }
}
