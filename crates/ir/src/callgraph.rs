//! Call graph construction and recursion unrolling.
//!
//! The paper (§4): "Recursive calls are handled as loops by unrolling each
//! cycle twice on the call graph." [`unroll_recursion`] implements that
//! transformation on the surface AST: every function in a cyclic strongly
//! connected component is cloned per unroll depth, intra-component calls are
//! redirected one level deeper, and the deepest level calls an external stub
//! (to which the empty-function rule of Fig. 5 applies).

use crate::ast::{Expr, Function, Program, Stmt};
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

/// The surface-level call graph: `edges[i]` lists the indices of functions
/// that function `i` may call (deduplicated).
#[derive(Debug, Clone)]
pub struct CallGraph {
    /// Per-caller callee index lists.
    pub edges: Vec<Vec<usize>>,
}

impl CallGraph {
    /// Builds the call graph of a surface program.
    ///
    /// # Errors
    ///
    /// Returns [`CallGraphError`] if a call target does not exist.
    pub fn build(program: &Program, interner: &Interner) -> Result<CallGraph, CallGraphError> {
        let by_name: HashMap<Symbol, usize> = program
            .functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name, i))
            .collect();
        let mut edges = vec![Vec::new(); program.functions.len()];
        for (i, f) in program.functions.iter().enumerate() {
            let mut callees = Vec::new();
            collect_calls_stmts(&f.body, &mut callees);
            for c in callees {
                match by_name.get(&c) {
                    Some(&j) => edges[i].push(j),
                    None => {
                        return Err(CallGraphError {
                            caller: interner.resolve(f.name).to_owned(),
                            callee: interner.resolve(c).to_owned(),
                        })
                    }
                }
            }
            edges[i].sort_unstable();
            edges[i].dedup();
        }
        Ok(CallGraph { edges })
    }

    /// Strongly connected components in reverse topological order
    /// (Tarjan's algorithm, iterative).
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        let n = self.edges.len();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut sccs = Vec::new();
        let mut counter = 0usize;
        // Iterative Tarjan: frames of (node, next edge index).
        for root in 0..n {
            if index[root] != usize::MAX {
                continue;
            }
            let mut frames: Vec<(usize, usize)> = vec![(root, 0)];
            index[root] = counter;
            low[root] = counter;
            counter += 1;
            stack.push(root);
            on_stack[root] = true;
            while let Some(&mut (v, ref mut ei)) = frames.last_mut() {
                if *ei < self.edges[v].len() {
                    let w = self.edges[v][*ei];
                    *ei += 1;
                    if index[w] == usize::MAX {
                        index[w] = counter;
                        low[w] = counter;
                        counter += 1;
                        stack.push(w);
                        on_stack[w] = true;
                        frames.push((w, 0));
                    } else if on_stack[w] {
                        low[v] = low[v].min(index[w]);
                    }
                } else {
                    frames.pop();
                    if let Some(&mut (parent, _)) = frames.last_mut() {
                        low[parent] = low[parent].min(low[v]);
                    }
                    if low[v] == index[v] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack");
                            on_stack[w] = false;
                            comp.push(w);
                            if w == v {
                                break;
                            }
                        }
                        sccs.push(comp);
                    }
                }
            }
        }
        sccs
    }

    /// Whether function `i` participates in a cycle (including self-loops).
    pub fn cyclic_members(&self) -> Vec<bool> {
        let mut cyclic = vec![false; self.edges.len()];
        for scc in self.sccs() {
            if scc.len() > 1 {
                for &m in &scc {
                    cyclic[m] = true;
                }
            } else {
                let m = scc[0];
                if self.edges[m].contains(&m) {
                    cyclic[m] = true;
                }
            }
        }
        cyclic
    }
}

fn collect_calls_stmts(stmts: &[Stmt], out: &mut Vec<Symbol>) {
    crate::ast::walk_stmts(stmts, &mut |s| match s {
        Stmt::Let(_, e) | Stmt::Assign(_, e) | Stmt::Return(e) | Stmt::Expr(e) => {
            collect_calls_expr(e, out)
        }
        Stmt::If(e, _, _) | Stmt::While(e, _) => collect_calls_expr(e, out),
    });
}

fn collect_calls_expr(e: &Expr, out: &mut Vec<Symbol>) {
    e.walk(&mut |e| {
        if let Expr::Call(name, _) = e {
            out.push(*name);
        }
    });
}

fn rewrite_calls_stmts(stmts: &mut [Stmt], map: &HashMap<Symbol, Symbol>) {
    for s in stmts {
        match s {
            Stmt::Let(_, e) | Stmt::Assign(_, e) | Stmt::Return(e) | Stmt::Expr(e) => {
                rewrite_calls_expr(e, map)
            }
            Stmt::If(e, t, el) => {
                rewrite_calls_expr(e, map);
                rewrite_calls_stmts(t, map);
                rewrite_calls_stmts(el, map);
            }
            Stmt::While(e, b) => {
                rewrite_calls_expr(e, map);
                rewrite_calls_stmts(b, map);
            }
        }
    }
}

fn rewrite_calls_expr(e: &mut Expr, map: &HashMap<Symbol, Symbol>) {
    match e {
        Expr::Call(name, args) => {
            if let Some(&new) = map.get(name) {
                *name = new;
            }
            for a in args {
                rewrite_calls_expr(a, map);
            }
        }
        Expr::Unary(_, inner) => rewrite_calls_expr(inner, map),
        Expr::Binary(_, a, b) => {
            rewrite_calls_expr(a, map);
            rewrite_calls_expr(b, map);
        }
        Expr::Int(_) | Expr::Null | Expr::Var(_) => {}
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
    if !cyclic.iter().any(|&c| c) {
        return Ok(Cow::Borrowed(program));
    }
    // Which SCC does each function belong to?
    let mut scc_of = vec![usize::MAX; program.functions.len()];
    for (si, scc) in cg.sccs().iter().enumerate() {
        for &m in scc {
            scc_of[m] = si;
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
            for &j in &cg.edges[i] {
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
            rewrite_calls_stmts(&mut clone.body, &map);
            out.functions.push(clone);
        }
        out.functions.push(Function {
            name: stub_name(interner, f.name),
            params: f.params.clone(),
            body: Vec::new(),
            is_extern: true,
        });
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
        assert_eq!(cg.edges[0], vec![1]);
        assert!(cg.edges[1].is_empty());
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
        let mut calls = Vec::new();
        collect_calls_stmts(&even1.body, &mut calls);
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
        let total: usize = sccs.iter().map(Vec::len).sum();
        assert_eq!(total, 3);
        assert!(sccs.iter().any(|s| s.len() == 2));
    }
}
