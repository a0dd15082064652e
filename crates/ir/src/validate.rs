//! Well-formedness validation for core SSA programs.
//!
//! Lowering and the workload generator both promise the invariants checked
//! here; the analyses depend on them (e.g. guard-region contiguity is what
//! lets [`crate::cfg`] reconstruct control flow, and operand ordering is
//! what makes single-pass evaluation sound).

use crate::ssa::{DefKind, Program, VarId};
use std::error::Error;
use std::fmt;

/// A violated invariant, with a human-readable description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// The function in which the violation occurred.
    pub function: String,
    /// Description of the violated invariant.
    pub message: String,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid IR in `{}`: {}", self.function, self.message)
    }
}

impl Error for ValidateError {}

/// Checks all core-IR invariants, stopping at the first violation.
///
/// A thin wrapper over [`check_program`] for callers that only need a
/// pass/fail answer; batch consumers (the CLI's `--validate`, the driver's
/// debug assertion) use [`check_program`] directly to report every
/// diagnostic at once.
///
/// # Errors
///
/// Returns the first violated invariant (see [`check_program`] for the
/// full list).
pub fn validate(program: &Program) -> Result<(), ValidateError> {
    match check_program(program).into_iter().next() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Checks all core-IR invariants, collecting *every* diagnostic.
///
/// The invariants are the contract between lowering / the workload
/// generator and everything downstream — the sparse analyses, the PDG
/// construction, and the abstract interpreter all assume them:
///
/// * **SSA single-assignment** — definition ids are dense and ordered
///   (`defs[i].var == VarId(i)`), so each variable is assigned exactly
///   once;
/// * **acyclic SSA** — every operand and guard refers to an *earlier*,
///   in-bounds definition (the gated-φ/ite encoding of merges keeps the
///   definitional system acyclic, which is what makes one-pass abstract
///   interpretation and topological translation sound);
/// * **gating well-formedness** — guards refer to [`DefKind::Branch`]
///   definitions, guard regions are contiguous and properly nested, and
///   returns are unguarded;
/// * parameters come first, in declaration order;
/// * non-extern functions end with their unique [`DefKind::Return`];
/// * call sites reference existing functions ([`crate::ssa::FuncId`]
///   in bounds) with matching arity, and the global call-site table is
///   consistent;
/// * externs have no body;
/// * **acyclic call graph** — lowering unrolls bounded recursion, so the
///   post-unrolling call graph over non-extern callees must be a DAG
///   (context-sensitive cloning would otherwise diverge).
///
/// Diagnostics are reported in program order (per function, per
/// definition); follow-on checks that would index out of bounds after an
/// earlier violation are skipped rather than risked.
pub fn check_program(program: &Program) -> Vec<ValidateError> {
    let mut errs: Vec<ValidateError> = Vec::new();
    // Buffers of the guard-region check, reused across functions.
    let mut closed: Vec<bool> = Vec::new();
    let (mut chain, mut prev_chain): (Vec<VarId>, Vec<VarId>) = (Vec::new(), Vec::new());
    for func in &program.functions {
        let err = |message: String| ValidateError {
            function: program.name(func.name).to_owned(),
            message,
        };
        if func.is_extern {
            if !func.defs.is_empty() {
                errs.push(err("extern function has a body".into()));
            }
            continue;
        }
        let before = errs.len();
        // Dense ids, operand ordering, guard sanity.
        let mut return_count = 0usize;
        for (i, def) in func.defs.iter().enumerate() {
            if def.var.index() != i {
                errs.push(err(format!("definition {i} has id {}", def.var)));
            }
            for o in def.kind.operands() {
                if o.index() >= func.defs.len() {
                    errs.push(err(format!("{} uses out-of-range variable {o}", def.var)));
                } else if o.index() >= i {
                    errs.push(err(format!("{} uses {o} before its definition", def.var)));
                }
            }
            if let Some(g) = def.guard {
                if g.index() >= i {
                    errs.push(err(format!("{} guarded by later vertex {g}", def.var)));
                } else if !matches!(func.def(g).kind, DefKind::Branch { .. }) {
                    errs.push(err(format!("guard {g} of {} is not a branch", def.var)));
                }
            }
            if let DefKind::Return { .. } = def.kind {
                return_count += 1;
                if def.guard.is_some() {
                    errs.push(err("return statement is guarded".into()));
                }
            }
            if let DefKind::Call { callee, args, site } = &def.kind {
                match program.functions.get(callee.index()) {
                    None => errs.push(err(format!("call to out-of-range function {callee}"))),
                    Some(callee_f) => {
                        if !callee_f.is_extern && callee_f.params.len() != args.len() {
                            errs.push(err(format!(
                                "call at {} passes {} args to `{}` ({} params)",
                                def.var,
                                args.len(),
                                program.name(callee_f.name),
                                callee_f.params.len()
                            )));
                        }
                        match program.call_sites.get(site.index()) {
                            None => errs.push(err(format!("call site {site} out of range"))),
                            Some(cs) => {
                                if cs.caller != func.id
                                    || cs.stmt != def.var
                                    || cs.callee != *callee
                                {
                                    errs.push(err(format!(
                                        "call-site table inconsistent at {site}"
                                    )));
                                }
                            }
                        }
                    }
                }
            }
        }
        // Parameters first and in order.
        for (pi, &p) in func.params.iter().enumerate() {
            if p.index() >= func.defs.len() {
                errs.push(err(format!("parameter {pi} is out of range ({p})")));
                continue;
            }
            if p.index() != pi {
                errs.push(err(format!("parameter {pi} is not definition {pi}")));
                continue;
            }
            match func.def(p).kind {
                DefKind::Param { index } if index == pi => {}
                _ => errs.push(err(format!("definition {p} is not parameter #{pi}"))),
            }
        }
        // Single trailing return.
        if return_count != 1 {
            errs.push(err(format!("{return_count} return statements (want 1)")));
        }
        match func.ret {
            Some(r) if r.index() == func.defs.len().wrapping_sub(1) => {}
            _ => errs.push(err("return is not the final definition".into())),
        }
        // Guard regions contiguous and properly nested: once a guard's
        // region is left, it never reopens. Walking guard chains requires
        // the structural checks above to have passed for this function.
        if errs.len() == before {
            closed.clear();
            closed.resize(func.defs.len(), false);
            prev_chain.clear();
            for def in &func.defs {
                chain.clear();
                chain.extend(func.guard_chain(def.var));
                chain.reverse(); // outermost first
                for g in &chain {
                    if closed[g.index()] {
                        errs.push(err(format!("guard region of {g} reopened at {}", def.var)));
                    }
                }
                // Any guard present previously but absent now is closed.
                for g in &prev_chain {
                    if !chain.contains(g) {
                        closed[g.index()] = true;
                    }
                }
                std::mem::swap(&mut prev_chain, &mut chain);
            }
        }
    }
    // Whole-program: the post-unrolling call graph over non-extern callees
    // must be acyclic (iterative three-color DFS; one cycle is reported,
    // with its witness path).
    let n = program.functions.len();
    // Callees by caller in compressed sparse row form: `callees[starts[u]..
    // starts[u + 1]]`, in call-site order.
    let edges = || {
        program.call_sites.iter().filter_map(|cs| {
            let (caller, callee) = (cs.caller.index(), cs.callee.index());
            (caller < n && callee < n && !program.functions[callee].is_extern)
                .then_some((caller, callee))
        })
    };
    let mut starts = vec![0usize; n + 1];
    for (caller, _) in edges() {
        starts[caller + 1] += 1;
    }
    for u in 0..n {
        starts[u + 1] += starts[u];
    }
    let mut callees = vec![0usize; starts[n]];
    let mut fill = starts.clone();
    for (caller, callee) in edges() {
        callees[fill[caller]] = callee;
        fill[caller] += 1;
    }
    let adj = |u: usize| &callees[starts[u]..starts[u + 1]];
    let mut color = vec![0u8; n]; // 0 = white, 1 = gray, 2 = black
    'roots: for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = 1;
        while let Some(&mut (u, ref mut next)) = stack.last_mut() {
            if *next < adj(u).len() {
                let v = adj(u)[*next];
                *next += 1;
                match color[v] {
                    0 => {
                        color[v] = 1;
                        stack.push((v, 0));
                    }
                    1 => {
                        // Gray → gray edge closes a cycle; the witness is
                        // the gray path from `v` back to `u`.
                        let pos = stack
                            .iter()
                            .position(|&(f, _)| f == v)
                            .expect("gray vertex is on the stack");
                        let path: Vec<String> = stack[pos..]
                            .iter()
                            .map(|&(f, _)| program.name(program.functions[f].name).to_owned())
                            .chain(std::iter::once(
                                program.name(program.functions[v].name).to_owned(),
                            ))
                            .collect();
                        errs.push(ValidateError {
                            function: program.name(program.functions[v].name).to_owned(),
                            message: format!(
                                "call graph has a cycle: {} (recursion must be unrolled)",
                                path.join(" -> ")
                            ),
                        });
                        break 'roots;
                    }
                    _ => {}
                }
            } else {
                color[u] = 2;
                stack.pop();
            }
        }
    }
    errs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Interner;
    use crate::lower::{lower, LowerOptions};
    use crate::parser::parse;
    use crate::ssa::{Def, DefKind, Function, VarId};

    fn compile(src: &str) -> Program {
        let mut i = Interner::new();
        let s = parse(src, &mut i).unwrap();
        lower(&s, &mut i, LowerOptions::default()).unwrap()
    }

    #[test]
    fn lowered_programs_validate() {
        let p = compile(
            "extern fn sink(x);\n\
             fn g(x) { if (x > 3) { return x * 2; } return 0; }\n\
             fn f(a, b) { let r = 0; while (r < a) { r = r + g(b); } \
               if (r == 7) { sink(r); return 1; } return r; }",
        );
        validate(&p).expect("lowered IR must validate");
    }

    #[test]
    fn detects_use_before_def() {
        let mut p = compile("fn f(a) { return a; }");
        // Corrupt: make the return read a later (nonexistent-order) var.
        let f = &mut p.functions[0];
        let last = f.defs.len() - 1;
        f.defs[0] = Def {
            var: VarId(0),
            kind: DefKind::Copy {
                src: VarId(last as u32),
            },
            guard: None,
            name: f.defs[0].name,
        };
        assert!(validate(&p).is_err());
    }

    #[test]
    fn detects_missing_return() {
        let mut p = compile("fn f(a) { return a; }");
        let f = &mut p.functions[0];
        let name = f.defs[0].name;
        let last = f.defs.len() - 1;
        f.defs[last] = Def {
            var: VarId(last as u32),
            kind: DefKind::Copy { src: VarId(0) },
            guard: None,
            name,
        };
        assert!(validate(&p).is_err());
    }

    #[test]
    fn detects_extern_with_body() {
        let mut p = compile("extern fn e(); fn f() { return e(); }");
        let name = p.functions[0].name;
        p.functions[0] = Function {
            name,
            id: p.functions[0].id,
            params: vec![],
            defs: p.functions[1].defs.clone(),
            ret: p.functions[1].ret,
            is_extern: true,
        };
        assert!(validate(&p).is_err());
    }

    #[test]
    fn check_program_collects_all_diagnostics() {
        let mut p = compile("fn g(a) { return a; } fn f(b) { return b; }");
        // Corrupt both functions: each return becomes a forward self-copy.
        for f in &mut p.functions {
            let name = f.defs[0].name;
            let last = f.defs.len() - 1;
            f.defs[last] = Def {
                var: VarId(last as u32),
                kind: DefKind::Copy {
                    src: VarId(last as u32),
                },
                guard: None,
                name,
            };
        }
        let errs = check_program(&p);
        // Each function reports its own use-before-def *and* missing
        // return — `validate` would have stopped at the first.
        assert!(errs.len() >= 4, "diagnostics: {errs:?}");
        assert!(errs.iter().any(|e| e.function == "g"));
        assert!(errs.iter().any(|e| e.function == "f"));
        assert_eq!(validate(&p).unwrap_err(), errs[0]);
    }

    #[test]
    fn detects_recursive_call_graph() {
        let mut p = compile("fn g() { return 1; } fn f() { return g(); }");
        // Rewire f's call to target f itself, keeping the call-site table
        // consistent: a post-unrolling program must never be recursive.
        let fid = p.functions[1].id;
        let mut site = None;
        for d in &mut p.functions[1].defs {
            if let DefKind::Call {
                callee, site: s, ..
            } = &mut d.kind
            {
                *callee = fid;
                site = Some(*s);
            }
        }
        let site = site.expect("f has a call");
        p.call_sites[site.index()].callee = fid;
        let errs = check_program(&p);
        assert!(
            errs.iter().any(|e| e.message.contains("cycle")),
            "diagnostics: {errs:?}"
        );
        assert!(validate(&p).is_err());
    }

    #[test]
    fn detects_bad_guard_target() {
        let mut p = compile("fn f(a) { let r = 0; if (a) { r = 1; } return r; }");
        let f = &mut p.functions[0];
        // Point some guarded def's guard at a non-branch (param 0).
        for d in &mut f.defs {
            if d.guard.is_some() {
                d.guard = Some(VarId(0));
                break;
            }
        }
        assert!(validate(&p).is_err());
    }
}
