//! Graph-side support for the pre-discovery PDG-compaction pass.
//!
//! The compaction itself (frontier reachability pruning, summary-chain
//! collapse, isomorphic-fragment dedup) is checker-aware and lives in
//! `fusion::compact`; this module holds the checker-agnostic graph
//! machinery it is built on:
//!
//! * [`VertexIndexer`] — a dense whole-program numbering of PDG vertices,
//!   so per-checker reachability can use flat bit sets instead of hash
//!   sets of [`Vertex`];
//! * [`DenseBitSet`] — the flat bit set itself;
//! * [`LabeledCsr`] — a compressed-sparse-row graph over those indices
//!   with a `u32` label per edge, and its reverse by counting sort. The
//!   compaction pass builds one per scan, labels each edge with the
//!   class of flow it carries, and every checker walks that one graph
//!   through its own reading of the labels;
//! * [`SummaryChain`] — one collapsed single-entry/single-exit
//!   `Enter…Exit` summary chain, carrying the **original** vertex
//!   sequence so discovery can replay it verbatim: reports and content
//!   hashing always see the uncompacted path (§3.2.2 discipline — the
//!   chain caches dependence structure only, never a path condition).

use crate::graph::Vertex;
use crate::paths::Link;
use fusion_ir::ssa::{CallSiteId, Program};

/// A dense numbering of every PDG vertex (definition) in a program:
/// vertices of function `f` occupy the contiguous index range
/// `[offset(f), offset(f) + f.defs.len())`, in definition order.
#[derive(Debug, Clone)]
pub struct VertexIndexer {
    offsets: Vec<usize>,
    total: usize,
}

impl VertexIndexer {
    /// Builds the numbering from the program's per-function sizes.
    pub fn new(program: &Program) -> VertexIndexer {
        let mut offsets = Vec::with_capacity(program.functions.len());
        let mut total = 0usize;
        for f in &program.functions {
            offsets.push(total);
            total += f.defs.len();
        }
        VertexIndexer { offsets, total }
    }

    /// Total number of vertices (the program size).
    pub fn len(&self) -> usize {
        self.total
    }

    /// Whether the program has no vertices at all.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The dense index of a vertex.
    ///
    /// # Panics
    ///
    /// Panics when the vertex's function is out of range for the indexed
    /// program.
    pub fn index(&self, v: Vertex) -> usize {
        self.offsets[v.func.index()] + v.var.index()
    }
}

/// A flat bit set over dense vertex indices — the reachability sets of
/// the compaction pass (a forward set and a live set per checker).
#[derive(Debug, Clone)]
pub struct DenseBitSet {
    words: Vec<u64>,
    len: usize,
}

impl DenseBitSet {
    /// An empty set over the universe `0..len`.
    pub fn new(len: usize) -> DenseBitSet {
        DenseBitSet {
            words: vec![0u64; len.div_ceil(64)],
            len,
        }
    }

    /// Universe size this set was created with.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `i`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics when `i` is outside the universe.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(i < self.len, "bit {i} outside universe {}", self.len);
        let (w, b) = (i / 64, i % 64);
        let fresh = self.words[w] & (1u64 << b) == 0;
        self.words[w] |= 1u64 << b;
        fresh
    }

    /// Membership test. Out-of-universe indices are simply absent.
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }
}

/// A directed graph over dense vertex indices in compressed-sparse-row
/// form, each edge carrying a `u32` label. Rows are appended in index
/// order: [`push`](LabeledCsr::push) the edges of row `u`, then
/// [`finish_row`](LabeledCsr::finish_row). Every target must be a row of
/// the finished graph.
#[derive(Debug, Clone)]
pub struct LabeledCsr {
    /// Row `u`'s edges are `targets[offsets[u]..offsets[u + 1]]`, with
    /// the same range of `labels`.
    offsets: Vec<u32>,
    targets: Vec<u32>,
    labels: Vec<u32>,
}

impl LabeledCsr {
    /// An empty graph with room for `rows` rows and `edges` edges.
    pub fn with_capacity(rows: usize, edges: usize) -> LabeledCsr {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        LabeledCsr {
            offsets,
            targets: Vec::with_capacity(edges),
            labels: Vec::with_capacity(edges),
        }
    }

    /// Appends the edge `row → target` labelled `label` to the row being
    /// built.
    pub fn push(&mut self, target: u32, label: u32) {
        self.targets.push(target);
        self.labels.push(label);
    }

    /// Closes the row being built; later edges belong to the next row.
    ///
    /// # Panics
    ///
    /// Panics when the graph outgrows `u32` edge offsets.
    pub fn finish_row(&mut self) {
        let end = u32::try_from(self.targets.len()).expect("edge count fits u32");
        self.offsets.push(end);
    }

    /// Number of finished rows.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges.
    pub fn edges(&self) -> usize {
        self.targets.len()
    }

    /// The `(target, label)` edges of row `u`, in insertion order.
    pub fn row(&self, u: usize) -> impl Iterator<Item = (u32, u32)> + '_ {
        let range = self.offsets[u] as usize..self.offsets[u + 1] as usize;
        self.targets[range.clone()]
            .iter()
            .copied()
            .zip(self.labels[range].iter().copied())
    }

    /// The reverse graph: every edge `u → v` labelled `l` becomes
    /// `v → u` labelled `l`. A counting sort by target, so each reversed
    /// row lists its sources in ascending order.
    pub fn reversed(&self) -> LabeledCsr {
        let n = self.rows();
        let mut offsets = vec![0u32; n + 1];
        for &v in &self.targets {
            offsets[v as usize + 1] += 1;
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut next = offsets[..n].to_vec();
        let mut targets = vec![0u32; self.edges()];
        let mut labels = vec![0u32; self.edges()];
        for u in 0..n {
            for (v, l) in self.row(u) {
                let slot = &mut next[v as usize];
                targets[*slot as usize] = u as u32;
                labels[*slot as usize] = l;
                *slot += 1;
            }
        }
        LabeledCsr {
            offsets,
            targets,
            labels,
        }
    }
}

/// One collapsed summary chain: a single-entry/single-exit corridor
/// through a callee — `Enter(site) → param → … → Exit(site) → dst` —
/// along which a checker's fact has exactly one way to move and nothing
/// to report. Discovery replays `body` as one composite edge instead of
/// stepping vertex-by-vertex, but the replayed path is the **original,
/// uncompacted vertex sequence**: reports, `path_set_key` hashing and
/// CFL state keys are byte-identical to an uncollapsed traversal.
#[derive(Debug, Clone)]
pub struct SummaryChain {
    /// The call site whose `Enter`/`Exit` parenthesis pair the chain
    /// spans.
    pub site: CallSiteId,
    /// The replayed `(link, vertex)` steps, in order: `(Enter(site),
    /// callee param)`, the intermediate `Local` steps inside the callee,
    /// and finally `(Exit(site), caller receiver)`.
    pub body: Vec<(Link, Vertex)>,
}

impl SummaryChain {
    /// Number of replayed steps (always ≥ 3: enter, at least the return
    /// definition, exit).
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// A chain's body is never empty by construction.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_ir::ssa::{FuncId, VarId};
    use fusion_ir::{compile, CompileOptions};

    #[test]
    fn indexer_is_dense_and_per_function_contiguous() {
        let p = compile(
            "fn a(x) { return x; } fn b(y) { let z = y + 1; return z; }",
            CompileOptions::default(),
        )
        .expect("compile");
        let ix = VertexIndexer::new(&p);
        assert_eq!(ix.len(), p.size());
        assert!(!ix.is_empty());
        let mut seen = vec![false; ix.len()];
        for f in &p.functions {
            for d in &f.defs {
                let i = ix.index(Vertex::new(f.id, d.var));
                assert!(!seen[i], "index {i} assigned twice");
                seen[i] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "numbering must be onto");
    }

    #[test]
    fn bitset_insert_and_contains() {
        let mut s = DenseBitSet::new(130);
        assert_eq!(s.len(), 130);
        assert!(!s.is_empty());
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64), "reinsert reports not-fresh");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert!(!s.contains(10_000), "out of universe is absent");
    }

    #[test]
    fn csr_rows_and_reverse_keep_labels() {
        // 0 → 1 (a), 0 → 2 (b), 2 → 1 (c), 2 → 1 (c again); row 1 empty.
        let mut g = LabeledCsr::with_capacity(3, 4);
        g.push(1, 10);
        g.push(2, 11);
        g.finish_row();
        g.finish_row();
        g.push(1, 12);
        g.push(1, 12);
        g.finish_row();
        assert_eq!((g.rows(), g.edges()), (3, 4));
        assert_eq!(g.row(0).collect::<Vec<_>>(), vec![(1, 10), (2, 11)]);
        assert_eq!(g.row(1).count(), 0);
        let r = g.reversed();
        assert_eq!((r.rows(), r.edges()), (3, 4));
        assert_eq!(r.row(0).count(), 0);
        assert_eq!(
            r.row(1).collect::<Vec<_>>(),
            vec![(0, 10), (2, 12), (2, 12)]
        );
        assert_eq!(r.row(2).collect::<Vec<_>>(), vec![(0, 11)]);
    }

    #[test]
    fn chain_len_reflects_body() {
        let c = SummaryChain {
            site: fusion_ir::ssa::CallSiteId(0),
            body: vec![
                (
                    Link::Enter(fusion_ir::ssa::CallSiteId(0)),
                    Vertex::new(FuncId(0), VarId(0)),
                ),
                (Link::Local, Vertex::new(FuncId(0), VarId(1))),
                (
                    Link::Exit(fusion_ir::ssa::CallSiteId(0)),
                    Vertex::new(FuncId(1), VarId(2)),
                ),
            ],
        };
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
    }
}
