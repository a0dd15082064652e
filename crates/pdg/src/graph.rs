//! The program dependence graph of Def. 3.1.
//!
//! Vertices are definitions (a statement and the variable it defines are
//! interchangeable); data-dependence edges follow the rules of Fig. 5 —
//! including *call* and *return* edges labeled by the call site's unique
//! parenthesis pair — and control-dependence edges connect each statement
//! to the `if`-statements guarding it.
//!
//! The core SSA form of `fusion-ir` already encodes all of these relations
//! implicitly; this module materializes the forward adjacency (def → uses)
//! the sparse analysis propagates along, the reverse call map, and the
//! vertex/edge statistics reported in Table 2.

use fusion_ir::ssa::{CallSiteId, DefKind, FuncId, Program, VarId};
use std::sync::Arc;

/// A vertex of the whole-program dependence graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Vertex {
    /// The containing function.
    pub func: FuncId,
    /// The definition within the function.
    pub var: VarId,
}

impl Vertex {
    /// Convenience constructor.
    pub fn new(func: FuncId, var: VarId) -> Self {
        Self { func, var }
    }
}

impl std::fmt::Display for Vertex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.func, self.var)
    }
}

/// Where a fact can flow in one step from a given definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowTarget {
    /// An intra-procedural use: the using definition and the operand slot
    /// the source occupies in it.
    Local {
        /// The using definition.
        to: VarId,
        /// Zero-based operand position within the user.
        operand: usize,
    },
    /// A call edge `(ᵢ`: the value is an actual argument flowing into the
    /// callee's parameter.
    IntoCallee {
        /// The call site (the parenthesis label).
        site: CallSiteId,
        /// The callee.
        callee: FuncId,
        /// The parameter definition receiving the value.
        param: VarId,
    },
    /// A return edge `)ᵢ`: the function's return value flows back to a
    /// caller's receiver.
    BackToCaller {
        /// The call site.
        site: CallSiteId,
        /// The calling function.
        caller: FuncId,
        /// The call definition receiving the value.
        dst: VarId,
    },
    /// The empty-function rule of Fig. 5: an actual argument of an external
    /// callee flows directly to the call's receiver.
    ThroughExtern {
        /// The call definition receiving the value.
        to: VarId,
        /// The external callee (for checker models).
        callee: FuncId,
        /// Which argument position the value occupied.
        arg: usize,
    },
}

/// Per-function adjacency of the PDG in compressed sparse row form: the
/// uses of definition `v` are `edges[offsets[v]..offsets[v + 1]]`, each a
/// `(user, operand-slot)` pair, users in program order.
#[derive(Debug, Clone, Default)]
pub struct FuncPdg {
    offsets: Vec<u32>,
    edges: Vec<(VarId, usize)>,
}

impl FuncPdg {
    /// Builds one function's adjacency (operand def→use edges only; the
    /// inter-procedural interpretation happens in [`Pdg::flow_targets`]).
    fn build(func: &fusion_ir::ssa::Function) -> FuncPdg {
        let n = func.defs.len();
        // Count each definition's uses at its own index, sum them into
        // range ends, then place the edges back to front, moving each end
        // down to its range's start.
        let mut offsets = vec![0u32; n + 1];
        for def in &func.defs {
            for op in def.kind.operands() {
                offsets[op.index()] += 1;
            }
        }
        let mut total = 0u32;
        for end in &mut offsets[..n] {
            total = total
                .checked_add(*end)
                .expect("a function's operand edges fit in u32");
            *end = total;
        }
        offsets[n] = total;
        let mut edges = vec![(VarId(0), 0); total as usize];
        for def in func.defs.iter().rev() {
            for (slot, op) in def.kind.operands().as_slice().iter().enumerate().rev() {
                let at = &mut offsets[op.index()];
                *at -= 1;
                edges[*at as usize] = (def.var, slot);
            }
        }
        FuncPdg { offsets, edges }
    }

    /// The `(user, operand-slot)` pairs of definition `v`.
    fn uses(&self, v: VarId) -> &[(VarId, usize)] {
        let i = v.index();
        &self.edges[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// Aggregate size statistics (Table 2 columns).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PdgStats {
    /// Number of vertices (definitions).
    pub vertices: usize,
    /// Intra-procedural data-dependence edges.
    pub data_edges: usize,
    /// Call + return edges (each labeled pair counted as two edges).
    pub interproc_edges: usize,
    /// Control-dependence edges (statement → guarding branch).
    pub control_edges: usize,
}

impl PdgStats {
    /// Total edge count as reported in Table 2.
    pub fn edges(&self) -> usize {
        self.data_edges + self.interproc_edges + self.control_edges
    }
}

/// The whole-program dependence graph.
///
/// Per-function adjacency is held behind [`Arc`] so an incremental
/// rebuild ([`Pdg::rebuild`]) can share the subgraphs of unedited
/// functions with the previous graph instead of re-deriving them: a
/// function's [`FuncPdg`] depends only on its *own* definition array
/// (operand edges never look at callee bodies), so content-identical
/// functions have bit-identical adjacency.
#[derive(Debug, Clone)]
pub struct Pdg {
    funcs: Vec<Arc<FuncPdg>>,
    callers_of: CallersOf,
    stats: PdgStats,
}

/// One function's contribution to the Table 2 statistics. Unlike the
/// adjacency this *does* consult callee extern-ness (to classify call
/// edges), so the rebuild path recomputes it for every function — it is
/// an O(defs) scan with no allocation.
fn func_stats(program: &Program, func: &fusion_ir::ssa::Function) -> PdgStats {
    let mut stats = PdgStats::default();
    for def in &func.defs {
        // Whether this definition's operand edges are the labeled
        // call edges of Fig. 5 (actual → callee parameter) rather
        // than plain intra-procedural data dependence.
        let interproc_call = match &def.kind {
            DefKind::Call { callee, .. } => !program.func(*callee).is_extern,
            _ => false,
        };
        let operands = def.kind.operands().len();
        if interproc_call {
            stats.interproc_edges += operands + 1; // call edges `(ᵢ` + return edge `)ᵢ`
        } else {
            stats.data_edges += operands;
        }
        if def.guard.is_some() {
            stats.control_edges += 1;
        }
        stats.vertices += 1;
    }
    stats
}

impl Pdg {
    /// Builds the dependence graph of a program (Fig. 5 rules).
    pub fn build(program: &Program) -> Pdg {
        let mut funcs = Vec::with_capacity(program.functions.len());
        let mut stats = PdgStats::default();
        for func in &program.functions {
            let fs = func_stats(program, func);
            stats.vertices += fs.vertices;
            stats.data_edges += fs.data_edges;
            stats.interproc_edges += fs.interproc_edges;
            stats.control_edges += fs.control_edges;
            funcs.push(Arc::new(FuncPdg::build(func)));
        }
        Pdg {
            funcs,
            callers_of: CallersOf::build(program),
            stats,
        }
    }

    /// Incrementally rebuilds the graph after an edit: functions flagged
    /// `unchanged` (content-identical to the previous program, same
    /// [`FuncId`] indexing) share the previous graph's [`FuncPdg`] by
    /// [`Arc`] instead of re-deriving their adjacency. The reverse call
    /// map and the statistics are recomputed from scratch — both are
    /// O(program) scans with trivial constants, and the call map can
    /// shift even for unedited functions (an edited caller may add or
    /// drop call sites targeting them).
    ///
    /// # Panics
    ///
    /// Panics if `unchanged` does not cover the program's function list
    /// — identifying which functions changed (and bailing out to a full
    /// [`Pdg::build`] when the function list itself changed shape) is
    /// the caller's job.
    pub fn rebuild(program: &Program, prev: &Pdg, unchanged: &[bool]) -> Pdg {
        assert_eq!(
            unchanged.len(),
            program.functions.len(),
            "unchanged mask must cover every function"
        );
        assert_eq!(
            prev.funcs.len(),
            program.functions.len(),
            "incremental rebuild requires an unchanged function list shape"
        );
        let mut funcs = Vec::with_capacity(program.functions.len());
        let mut stats = PdgStats::default();
        for func in &program.functions {
            let fs = func_stats(program, func);
            stats.vertices += fs.vertices;
            stats.data_edges += fs.data_edges;
            stats.interproc_edges += fs.interproc_edges;
            stats.control_edges += fs.control_edges;
            let i = func.id.index();
            if unchanged[i] {
                funcs.push(Arc::clone(&prev.funcs[i]));
            } else {
                funcs.push(Arc::new(FuncPdg::build(func)));
            }
        }
        Pdg {
            funcs,
            callers_of: CallersOf::build(program),
            stats,
        }
    }

    /// Size statistics for Table 2.
    pub fn stats(&self) -> PdgStats {
        self.stats
    }

    /// The call sites targeting function `f`.
    pub fn callers_of(&self, f: FuncId) -> &[CallSiteId] {
        let i = f.index();
        &self.callers_of.sites[self.callers_of.offsets[i]..self.callers_of.offsets[i + 1]]
    }

    /// Whether function `f`'s adjacency is shared (by [`Arc`]) with
    /// another graph — true for unedited functions after an incremental
    /// [`Pdg::rebuild`] while the previous graph is still alive. Test
    /// and accounting hook; analysis never consults it.
    pub fn shares_func_with(&self, other: &Pdg, f: FuncId) -> bool {
        Arc::ptr_eq(&self.funcs[f.index()], &other.funcs[f.index()])
    }

    /// Intra-procedural uses of a definition.
    pub fn uses(&self, func: FuncId, var: VarId) -> &[(VarId, usize)] {
        self.funcs[func.index()].uses(var)
    }

    /// All one-step flow targets of a definition: local uses, plus call
    /// edges when the value is a call argument (the `Local` use into a call
    /// definition is *replaced* by the labeled inter-procedural edge or the
    /// extern flow-through), plus return edges when the value is the
    /// function's return statement. Yields in that order without
    /// allocating.
    pub fn flow_targets<'a>(
        &'a self,
        program: &'a Program,
        at: Vertex,
    ) -> impl Iterator<Item = FlowTarget> + 'a {
        let func = program.func(at.func);
        let uses = self.uses(at.func, at.var).iter().map(move |&(user, slot)| {
            match &func.def(user).kind {
                DefKind::Call { callee, site, .. } => {
                    let callee_f = program.func(*callee);
                    if callee_f.is_extern {
                        FlowTarget::ThroughExtern {
                            to: user,
                            callee: *callee,
                            arg: slot,
                        }
                    } else {
                        FlowTarget::IntoCallee {
                            site: *site,
                            callee: *callee,
                            param: callee_f.params[slot],
                        }
                    }
                }
                _ => FlowTarget::Local {
                    to: user,
                    operand: slot,
                },
            }
        });
        // Return edges: the Return definition's value flows to every caller.
        let returns: &[CallSiteId] = if Some(at.var) == func.ret {
            self.callers_of(at.func)
        } else {
            &[]
        };
        uses.chain(returns.iter().map(move |&site| {
            let cs = program.call_site(site);
            FlowTarget::BackToCaller {
                site,
                caller: cs.caller,
                dst: cs.stmt,
            }
        }))
    }
}

/// The reverse call map in compressed sparse row form: the call sites
/// whose callee is `f` are `sites[offsets[f]..offsets[f + 1]]`, in
/// call-site-id order.
#[derive(Debug, Clone)]
struct CallersOf {
    offsets: Vec<usize>,
    sites: Vec<CallSiteId>,
}

impl CallersOf {
    fn build(program: &Program) -> CallersOf {
        let n = program.functions.len();
        let mut offsets = vec![0usize; n + 1];
        for cs in &program.call_sites {
            offsets[cs.callee.index() + 1] += 1;
        }
        for f in 0..n {
            offsets[f + 1] += offsets[f];
        }
        let mut next = offsets.clone();
        let mut sites = vec![CallSiteId(0); program.call_sites.len()];
        for (i, cs) in program.call_sites.iter().enumerate() {
            let at = &mut next[cs.callee.index()];
            sites[*at] = CallSiteId(i as u32);
            *at += 1;
        }
        CallersOf { offsets, sites }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_ir::{compile, CompileOptions};

    fn program(src: &str) -> Program {
        compile(src, CompileOptions::default()).expect("compile")
    }

    #[test]
    fn builds_def_use_edges() {
        let p = program("fn f(x) { let y = x + x; return y; }");
        let g = Pdg::build(&p);
        let f = p.func_by_name("f").unwrap();
        // x (param, v0) is used twice by the add.
        assert_eq!(g.uses(f.id, f.params[0]).len(), 2);
    }

    #[test]
    fn call_and_return_edges() {
        let p = program("fn bar(x) { return x; } fn foo(a) { let c = bar(a); return c; }");
        let g = Pdg::build(&p);
        let foo = p.func_by_name("foo").unwrap();
        let bar = p.func_by_name("bar").unwrap();
        // a flows into bar's parameter via a labeled call edge.
        let mut targets = g.flow_targets(&p, Vertex::new(foo.id, foo.params[0]));
        assert!(targets.any(|t| matches!(
            t,
            FlowTarget::IntoCallee { callee, param, .. }
                if callee == bar.id && param == bar.params[0]
        )));
        // bar's return flows back to foo's receiver.
        let mut back = g.flow_targets(&p, Vertex::new(bar.id, bar.ret.unwrap()));
        assert!(
            back.any(|t| matches!(t, FlowTarget::BackToCaller { caller, .. } if caller == foo.id))
        );
    }

    #[test]
    fn two_call_sites_have_distinct_labels() {
        let p = program(
            "fn bar(x) { return x; } fn foo(a, b) { let c = bar(a); let d = bar(b); return c + d; }",
        );
        let g = Pdg::build(&p);
        let bar = p.func_by_name("bar").unwrap();
        let sites = g.callers_of(bar.id);
        assert_eq!(sites.len(), 2);
        assert_ne!(sites[0], sites[1]);
        // The return value flows back through both labels.
        let back = g.flow_targets(&p, Vertex::new(bar.id, bar.ret.unwrap()));
        let back_sites: Vec<_> = back
            .filter_map(|t| match t {
                FlowTarget::BackToCaller { site, .. } => Some(site),
                _ => None,
            })
            .collect();
        assert_eq!(back_sites.len(), 2);
    }

    #[test]
    fn extern_flows_through() {
        let p = program("extern fn lib(x); fn f(a) { let r = lib(a); return r; }");
        let g = Pdg::build(&p);
        let f = p.func_by_name("f").unwrap();
        let mut targets = g.flow_targets(&p, Vertex::new(f.id, f.params[0]));
        assert!(targets.any(|t| matches!(t, FlowTarget::ThroughExtern { .. })));
    }

    #[test]
    fn rebuild_shares_unchanged_subgraphs_and_matches_full_build() {
        let src_a = "fn bar(x) { return x + 1; } fn foo(a) { let c = bar(a); return c; }";
        let src_b = "fn bar(x) { return x + 2; } fn foo(a) { let c = bar(a); return c; }";
        let pa = program(src_a);
        let pb = program(src_b);
        let ga = Pdg::build(&pa);
        // `bar` edited, `foo` unchanged.
        let bar = pb.func_by_name("bar").unwrap().id;
        let foo = pb.func_by_name("foo").unwrap().id;
        let mut unchanged = vec![true; pb.functions.len()];
        unchanged[bar.index()] = false;
        let gb = Pdg::rebuild(&pb, &ga, &unchanged);
        let gb_full = Pdg::build(&pb);
        assert_eq!(gb.stats(), gb_full.stats());
        assert!(gb.shares_func_with(&ga, foo), "foo's subgraph is reused");
        assert!(!gb.shares_func_with(&ga, bar), "bar's subgraph is rebuilt");
        for f in &pb.functions {
            for d in &f.defs {
                assert_eq!(
                    gb.uses(f.id, d.var),
                    gb_full.uses(f.id, d.var),
                    "adjacency must match the full build"
                );
                assert!(gb
                    .flow_targets(&pb, Vertex::new(f.id, d.var))
                    .eq(gb_full.flow_targets(&pb, Vertex::new(f.id, d.var))));
            }
        }
    }

    #[test]
    fn stats_count_vertices_and_edges() {
        let p = program("fn f(x) { let y = x * 2; if (y > 4) { return y; } return x; }");
        let g = Pdg::build(&p);
        let s = g.stats();
        assert_eq!(s.vertices, p.size());
        assert!(s.data_edges > 0);
        assert!(s.control_edges > 0);
        assert_eq!(s.interproc_edges, 0);
        assert_eq!(s.edges(), s.data_edges + s.control_edges);
    }
}
