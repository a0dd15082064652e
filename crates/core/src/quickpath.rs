//! Quick paths: entry→exit value summaries on the dependence graph.
//!
//! §2 of the paper: "we can establish a quick path from the vertex `y=2x`
//! to the vertex `return z`. The quick path allows the same propagation
//! from the variable `b` to the branch condition without going through the
//! function `bar`." §3.2.3 uses the same idea for inter-procedural
//! preprocessing (Fig. 9): constant and affine return values let the solver
//! delete call/return parenthesis labels without cloning the callee.
//!
//! A [`RetSummary`] states what a function's return value is as a function
//! of its parameters, computed once per function (memoized — never per call
//! site) by value propagation over the gated SSA graph. Because the IR is
//! pure and total, these equalities hold unconditionally.
//!
//! Since the introduction of [`crate::absint`] the summaries are no longer
//! a standalone traversal: a callee's summary is the Const/Affine shape of
//! its abstract-interpretation return fact
//! ([`crate::absint::ProgramFacts::ret_fact`]), evaluated from the
//! definitions its return depends on, so there is exactly one
//! value-propagation engine in the analysis.

use fusion_ir::ssa::Program;

/// What a function returns, as seen through the quick path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetSummary {
    /// The return value is this constant.
    Const(u32),
    /// `ret = mul · param[index] + add` (wrapping 32-bit arithmetic).
    /// `mul = 1, add = 0` is the identity.
    Affine {
        /// Parameter position.
        index: usize,
        /// Multiplier.
        mul: u32,
        /// Offset.
        add: u32,
    },
    /// No quick path: the callee must be visited (cloned) to reason about
    /// its return value.
    Opaque,
}

/// Computes the return summary of every function: the shape of each
/// function's return fact ([`crate::absint::ProgramFacts::ret_fact`]),
/// read per function, so only return cones are evaluated, never whole
/// bodies. The shape algebra of the domain is byte-compatible with the
/// historical per-definition propagation loop this function used to run.
pub fn ret_summaries(program: &Program) -> Vec<RetSummary> {
    let facts = crate::absint::ProgramFacts::new(program);
    program
        .functions
        .iter()
        .map(|f| facts.ret_fact(program, f.id).shape)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_ir::{compile, CompileOptions};

    fn summaries(src: &str) -> (Program, Vec<RetSummary>) {
        let p = compile(src, CompileOptions::default()).expect("compile");
        let s = ret_summaries(&p);
        (p, s)
    }

    fn of<'a>(p: &Program, s: &'a [RetSummary], name: &str) -> &'a RetSummary {
        &s[p.func_by_name(name).unwrap().id.index()]
    }

    #[test]
    fn paper_bar_is_affine_times_two() {
        let (p, s) = summaries("fn bar(x) { let y = x * 2; let z = y; return z; }");
        assert_eq!(
            *of(&p, &s, "bar"),
            RetSummary::Affine {
                index: 0,
                mul: 2,
                add: 0
            }
        );
    }

    #[test]
    fn identity_and_const() {
        let (p, s) = summaries("fn id(x) { return x; } fn seven() { return 7; }");
        assert_eq!(
            *of(&p, &s, "id"),
            RetSummary::Affine {
                index: 0,
                mul: 1,
                add: 0
            }
        );
        assert_eq!(*of(&p, &s, "seven"), RetSummary::Const(7));
    }

    #[test]
    fn composition_through_calls() {
        // h(x) = g(f(x)) = 2(x + 1) + 3 = 2x + 5.
        let (p, s) = summaries(
            "fn f(x) { return x + 1; }\n\
             fn g(x) { return x * 2 + 3; }\n\
             fn h(x) { return g(f(x)); }",
        );
        assert_eq!(
            *of(&p, &s, "h"),
            RetSummary::Affine {
                index: 0,
                mul: 2,
                add: 5
            }
        );
    }

    #[test]
    fn branching_is_opaque_unless_arms_agree() {
        let (p, s) = summaries(
            "fn pick(x) { if (x > 0) { return x + 1; } return x; }\n\
             fn same(x) { let r = 5; if (x > 0) { r = 5; } return r; }\n\
             fn early(x) { if (x > 0) { return 5; } return 5; }",
        );
        assert_eq!(*of(&p, &s, "pick"), RetSummary::Opaque);
        // Both merge arms agree: the summary sees through the ite.
        assert_eq!(*of(&p, &s, "same"), RetSummary::Const(5));
        // Early returns thread `__ret_val` (initially 0) through the merge
        // chain, so the value summary is conservatively opaque even though
        // the function always returns 5.
        assert_eq!(*of(&p, &s, "early"), RetSummary::Opaque);
    }

    #[test]
    fn extern_and_extern_users_are_opaque() {
        let (p, s) = summaries("extern fn lib(x); fn f(x) { return lib(x); }");
        assert_eq!(*of(&p, &s, "lib"), RetSummary::Opaque);
        assert_eq!(*of(&p, &s, "f"), RetSummary::Opaque);
    }

    #[test]
    fn two_param_mix_is_opaque() {
        let (p, s) = summaries("fn f(x, y) { return x + y; }");
        assert_eq!(*of(&p, &s, "f"), RetSummary::Opaque);
    }

    #[test]
    fn shl_by_const_is_affine() {
        let (p, s) = summaries("fn f(x) { return (x << 3) + 1; }");
        assert_eq!(
            *of(&p, &s, "f"),
            RetSummary::Affine {
                index: 0,
                mul: 8,
                add: 1
            }
        );
    }

    #[test]
    fn summaries_validate_dynamically() {
        // Cross-check against the interpreter on a few inputs.
        let src = "fn f(x) { return x + 1; }\n\
                   fn g(x) { return x * 2 + 3; }\n\
                   fn h(x) { return g(f(x)); }";
        let (p, s) = summaries(src);
        let h = p.func_by_name("h").unwrap();
        let RetSummary::Affine { index, mul, add } = of(&p, &s, "h") else {
            panic!("expected affine")
        };
        for x in [0u32, 1, 7, u32::MAX] {
            let (ev, _) = fusion_ir::interp::eval_core(&p, h.id, &[x], 100_000).unwrap();
            let args = [x];
            let want = mul.wrapping_mul(args[*index]).wrapping_add(*add);
            assert_eq!(ev.ret, want, "x = {x}");
        }
    }
}
