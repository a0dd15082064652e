//! Call graph construction and recursion unrolling.
//!
//! The paper (§4): "Recursive calls are handled as loops by unrolling each
//! cycle twice on the call graph." [`unroll_recursion`] implements that
//! transformation on the surface AST: every function in a cyclic strongly
//! connected component is cloned per unroll depth, intra-component calls are
//! redirected one level deeper, and the deepest level calls an external stub
//! (to which the empty-function rule of Fig. 5 applies).

use crate::ast::{Block, Expr, ExprId, Function, Program, Stmt};
use crate::interner::{Interner, Symbol};
use std::borrow::Cow;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// A call-graph error: a call to an unknown function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallGraphError {
    /// The caller function's name.
    pub caller: String,
    /// The unknown callee's name.
    pub callee: String,
}

impl fmt::Display for CallGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "function `{}` calls unknown function `{}`",
            self.caller, self.callee
        )
    }
}

impl Error for CallGraphError {}

/// The surface-level call graph: function `i` may call the functions
/// [`CallGraph::edges`]`(i)`, sorted and deduplicated. The callee lists
/// are runs of one buffer (offsets plus array), read by a linear scan of
/// each function's expression nodes.
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// `offsets[i]..offsets[i + 1]`: function `i`'s run of `callees`.
    offsets: Vec<u32>,
    callees: Vec<u32>,
}

/// No function, in a name-indexed lookup.
const NONE: u32 = u32::MAX;

impl CallGraph {
    /// Builds the call graph of a surface program.
    ///
    /// # Errors
    ///
    /// Returns [`CallGraphError`] if a call target does not exist: the
    /// first such call in source order, in the first function that has
    /// one.
    pub fn build(program: &Program, interner: &Interner) -> Result<CallGraph, CallGraphError> {
        // `by_name[sym]`: the function named `sym`; a later definition of
        // a name shadows an earlier one.
        let names = program.functions.iter().map(|f| f.name.index() + 1);
        let mut by_name = vec![NONE; names.max().unwrap_or(0)];
        for (i, f) in program.functions.iter().enumerate() {
            by_name[f.name.index()] = i as u32;
        }
        let calls = program
            .functions
            .iter()
            .map(|f| {
                f.exprs()
                    .iter()
                    .filter(|e| matches!(e, Expr::Call(..)))
                    .count()
            })
            .sum();
        let mut callees = Vec::with_capacity(calls);
        let mut offsets = Vec::with_capacity(program.functions.len() + 1);
        offsets.push(0);
        for f in &program.functions {
            let start = callees.len();
            for e in f.exprs() {
                let Expr::Call(callee, _) = *e else {
                    continue;
                };
                match by_name.get(callee.index()) {
                    Some(&j) if j != NONE => callees.push(j),
                    _ => return Err(unknown_callee(f, &by_name, interner)),
                }
            }
            callees[start..].sort_unstable();
            let mut kept = start;
            for k in start..callees.len() {
                if kept == start || callees[k] != callees[kept - 1] {
                    callees[kept] = callees[k];
                    kept += 1;
                }
            }
            callees.truncate(kept);
            offsets.push(kept as u32);
        }
        Ok(CallGraph { offsets, callees })
    }

    /// Number of functions.
    fn functions(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The functions function `i` may call, sorted and deduplicated.
    pub fn edges(&self, i: usize) -> &[u32] {
        &self.callees[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Strongly connected components in reverse topological order
    /// (Tarjan's algorithm, iterative), written into one buffer.
    pub fn sccs(&self) -> Sccs {
        const UNSEEN: u32 = u32::MAX;
        let n = self.functions();
        let mut index = vec![UNSEEN; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::with_capacity(n);
        // Frames of (node, next edge position).
        let mut frames: Vec<(u32, u32)> = Vec::with_capacity(n);
        let mut sccs = Sccs {
            members: Vec::with_capacity(n),
            ends: Vec::with_capacity(n),
        };
        let mut counter = 0u32;
        for root in 0..n {
            if index[root] != UNSEEN {
                continue;
            }
            frames.push((root as u32, 0));
            index[root] = counter;
            low[root] = counter;
            counter += 1;
            stack.push(root as u32);
            on_stack[root] = true;
            while let Some(&mut (v, ref mut next)) = frames.last_mut() {
                let v = v as usize;
                if let Some(&w) = self.edges(v).get(*next as usize) {
                    *next += 1;
                    let w = w as usize;
                    if index[w] == UNSEEN {
                        index[w] = counter;
                        low[w] = counter;
                        counter += 1;
                        stack.push(w as u32);
                        on_stack[w] = true;
                        frames.push((w as u32, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                    continue;
                }
                frames.pop();
                if let Some(&(parent, _)) = frames.last() {
                    low[parent as usize] = low[parent as usize].min(low[v]);
                }
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("tarjan stack");
                        on_stack[w as usize] = false;
                        sccs.members.push(w);
                        if w as usize == v {
                            break;
                        }
                    }
                    sccs.ends.push(sccs.members.len() as u32);
                }
            }
        }
        sccs
    }

    /// Whether function `i` participates in a cycle (including self-loops).
    pub fn cyclic_members(&self) -> Vec<bool> {
        let mut cyclic = vec![false; self.functions()];
        for scc in self.sccs().iter() {
            let m = scc[0];
            if scc.len() > 1 || self.edges(m as usize).binary_search(&m).is_ok() {
                for &m in scc {
                    cyclic[m as usize] = true;
                }
            }
        }
        cyclic
    }
}

/// Strongly connected components of a [`CallGraph`], each a run of one
/// member buffer.
#[derive(Debug, Clone)]
pub struct Sccs {
    /// Every component's members, component after component.
    members: Vec<u32>,
    /// `ends[k]`: where component `k`'s members end.
    ends: Vec<u32>,
}

impl Sccs {
    /// Each component's members, components in reverse topological order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.members[start as usize..end as usize])
    }
}

/// The error for `f`'s first call, in source order, of a name `by_name`
/// does not resolve: a callee's name precedes its arguments, and a
/// condition precedes its blocks.
fn unknown_callee(f: &Function, by_name: &[u32], interner: &Interner) -> CallGraphError {
    fn in_expr(f: &Function, e: ExprId, known: &dyn Fn(Symbol) -> bool) -> Option<Symbol> {
        match f.expr(e) {
            Expr::Call(c, _) if !known(c) => Some(c),
            Expr::Call(_, args) => f.args(args).find_map(|a| in_expr(f, a, known)),
            Expr::Unary(_, a) => in_expr(f, a, known),
            Expr::Binary(_, a, b) => in_expr(f, a, known).or_else(|| in_expr(f, b, known)),
            Expr::Int(_) | Expr::Null | Expr::Var(_) => None,
        }
    }
    fn in_block(f: &Function, block: Block, known: &dyn Fn(Symbol) -> bool) -> Option<Symbol> {
        f.block(block).find_map(|s| match f.stmt(s) {
            Stmt::Let(_, e) | Stmt::Assign(_, e) | Stmt::Return(e) | Stmt::Expr(e) => {
                in_expr(f, e, known)
            }
            Stmt::If(c, t, el) => in_expr(f, c, known)
                .or_else(|| in_block(f, t, known))
                .or_else(|| in_block(f, el, known)),
            Stmt::While(c, b) => in_expr(f, c, known).or_else(|| in_block(f, b, known)),
        })
    }
    let known = |c: Symbol| by_name.get(c.index()).is_some_and(|&j| j != NONE);
    let callee = in_block(f, f.body(), &known).expect("an unknown callee");
    CallGraphError {
        caller: interner.resolve(f.name).to_owned(),
        callee: interner.resolve(callee).to_owned(),
    }
}

/// Unrolls every call-graph cycle `depth` times (the paper uses 2).
///
/// Each function in a cyclic SCC gains clones `f#1 .. f#depth`; calls that
/// stay within the SCC are redirected from level `d` to level `d + 1`, and
/// at the deepest level to a fresh external stub `f#stub`, cutting the
/// cycle. The resulting program has an acyclic call graph. A program
/// whose call graph is already acyclic comes back borrowed, uncopied.
///
/// # Errors
///
/// Returns [`CallGraphError`] if the program calls unknown functions.
pub fn unroll_recursion<'p>(
    program: &'p Program,
    interner: &mut Interner,
    depth: usize,
) -> Result<Cow<'p, Program>, CallGraphError> {
    let cg = CallGraph::build(program, interner)?;
    let cyclic = cg.cyclic_members();
    if !cyclic.contains(&true) {
        return Ok(Cow::Borrowed(program));
    }
    // Which SCC does each function belong to?
    let mut scc_of = vec![usize::MAX; program.functions.len()];
    for (si, scc) in cg.sccs().iter().enumerate() {
        for &m in scc {
            scc_of[m as usize] = si;
        }
    }

    let mut out = Program::new();
    // Level-d name of a cyclic function.
    let level_name = |interner: &mut Interner, f: Symbol, d: usize| -> Symbol {
        let base = interner.resolve(f).to_owned();
        if d == 0 {
            f
        } else {
            interner.intern(&format!("{base}#{d}"))
        }
    };
    let stub_name = |interner: &mut Interner, f: Symbol| -> Symbol {
        let base = interner.resolve(f).to_owned();
        interner.intern(&format!("{base}#stub"))
    };

    for (i, f) in program.functions.iter().enumerate() {
        if !cyclic[i] {
            out.functions.push(f.clone());
            continue;
        }
        // Emit levels 0..=depth-1 plus the stub.
        for d in 0..depth {
            let mut clone = f.clone();
            clone.name = level_name(interner, f.name, d);
            // Redirect intra-SCC calls: callee g (cyclic, same SCC) at level
            // d goes to level d+1, or to the stub at the deepest level.
            let mut map = HashMap::new();
            for &j in cg.edges(i) {
                let j = j as usize;
                if cyclic[j] && scc_of[j] == scc_of[i] {
                    let g = program.functions[j].name;
                    let target = if d + 1 < depth {
                        level_name(interner, g, d + 1)
                    } else {
                        stub_name(interner, g)
                    };
                    map.insert(g, target);
                }
            }
            for callee in clone.callees_mut() {
                if let Some(&new) = map.get(callee) {
                    *callee = new;
                }
            }
            out.functions.push(clone);
        }
        let stub = stub_name(interner, f.name);
        out.functions
            .push(Function::external(stub, f.params.clone()));
    }
    Ok(Cow::Owned(out))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn builds_edges() {
        let mut i = Interner::new();
        let p = parse("fn a() { return b() + b(); } fn b() { return 1; }", &mut i).unwrap();
        let cg = CallGraph::build(&p, &i).unwrap();
        assert_eq!(cg.edges(0), [1]);
        assert!(cg.edges(1).is_empty());
    }

    #[test]
    fn detects_self_recursion() {
        let mut i = Interner::new();
        let p = parse("fn f(n) { if (n) { return f(n - 1); } return 0; }", &mut i).unwrap();
        let cg = CallGraph::build(&p, &i).unwrap();
        assert_eq!(cg.cyclic_members(), vec![true]);
    }

    #[test]
    fn detects_mutual_recursion() {
        let mut i = Interner::new();
        let p = parse(
            "fn even(n) { if (n == 0) { return 1; } return odd(n - 1); }\n\
             fn odd(n) { if (n == 0) { return 0; } return even(n - 1); }\n\
             fn leaf() { return 1; }",
            &mut i,
        )
        .unwrap();
        let cg = CallGraph::build(&p, &i).unwrap();
        assert_eq!(cg.cyclic_members(), vec![true, true, false]);
    }

    #[test]
    fn unroll_produces_acyclic_graph() {
        let mut i = Interner::new();
        let p = parse(
            "fn even(n) { if (n == 0) { return 1; } return odd(n - 1); }\n\
             fn odd(n) { if (n == 0) { return 0; } return even(n - 1); }",
            &mut i,
        )
        .unwrap();
        let u = unroll_recursion(&p, &mut i, 2).unwrap();
        assert!(matches!(u, Cow::Owned(_)));
        // even, even#1, even#stub, odd, odd#1, odd#stub
        assert_eq!(u.functions.len(), 6);
        let cg = CallGraph::build(&u, &i).unwrap();
        assert!(cg.cyclic_members().iter().all(|&c| !c));
        // Depth-1 even calls odd#stub.
        let even1 = u.function(i.lookup("even#1").unwrap()).unwrap();
        let calls: Vec<Symbol> = even1
            .exprs()
            .iter()
            .filter_map(|e| match *e {
                Expr::Call(callee, _) => Some(callee),
                _ => None,
            })
            .collect();
        assert_eq!(calls, vec![i.lookup("odd#stub").unwrap()]);
    }

    #[test]
    fn unroll_is_identity_without_recursion() {
        let mut i = Interner::new();
        let p = parse("fn a() { return b(); } fn b() { return 1; }", &mut i).unwrap();
        let u = unroll_recursion(&p, &mut i, 2).unwrap();
        assert_eq!(*u, p);
    }

    #[test]
    fn unroll_borrows_acyclic_and_owns_recursive_programs() {
        let mut i = Interner::new();
        let acyclic = parse("fn a() { return b(); } fn b() { return 1; }", &mut i).unwrap();
        let u = unroll_recursion(&acyclic, &mut i, 2).unwrap();
        assert!(matches!(u, Cow::Borrowed(p) if std::ptr::eq(p, &acyclic)));

        let recursive = parse(
            "fn f(n) { if (n) { return f(n - 1); } return 0; } fn g() { return f(3); }",
            &mut i,
        )
        .unwrap();
        let u = unroll_recursion(&recursive, &mut i, 2).unwrap();
        let Cow::Owned(u) = u else {
            panic!("a recursive program is rewritten");
        };
        let names: Vec<&str> = u.functions.iter().map(|f| i.resolve(f.name)).collect();
        assert_eq!(names, ["f", "f#1", "f#stub", "g"]);
    }

    #[test]
    fn unknown_callee_is_an_error() {
        let mut i = Interner::new();
        let p = parse("fn a() { return nope(); }", &mut i).unwrap();
        let err = CallGraph::build(&p, &i).unwrap_err();
        assert_eq!(err.callee, "nope");
    }

    /// The call named first in the source is reported, whatever order the
    /// expression nodes were stored in (a call's arguments come first).
    #[test]
    fn unknown_callees_are_reported_in_source_order() {
        for (src, callee) in [
            ("fn a() { let v = b(c()); return d(); }", "b"),
            ("fn a(p) { if (p + e(1)) { b(); } return f(); }", "e"),
            ("fn a(p) { while (p) { p = 1 + g(h(p)); } return 0; }", "g"),
        ] {
            let mut i = Interner::new();
            let p = parse(src, &mut i).unwrap();
            let err = CallGraph::build(&p, &i).unwrap_err();
            assert_eq!(
                (err.caller.as_str(), err.callee.as_str()),
                ("a", callee),
                "{src}"
            );
        }
    }

    #[test]
    fn sccs_cover_all_nodes() {
        let mut i = Interner::new();
        let p = parse(
            "fn a() { return b(); } fn b() { return a(); } fn c() { return a(); }",
            &mut i,
        )
        .unwrap();
        let cg = CallGraph::build(&p, &i).unwrap();
        let sccs = cg.sccs();
        let total: usize = sccs.iter().map(<[u32]>::len).sum();
        assert_eq!(total, 3);
        assert!(sccs.iter().any(|s| s.len() == 2));
        // Reverse topological order: `c` calls into the cycle, so it
        // comes after it.
        assert_eq!(sccs.iter().last(), Some(&[2][..]));
    }
}
