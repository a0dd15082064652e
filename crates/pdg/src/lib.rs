//! # fusion-pdg
//!
//! The program dependence graph of Def. 3.1 and the machinery of §3.2.1 for
//! the Fusion reproduction (Shi et al., PLDI 2021):
//!
//! * [`graph`] — PDG construction per the Fig. 5 rules, with labeled call
//!   and return edges and the Table 2 size statistics;
//! * [`compact`] — dense vertex numbering, bit sets and collapsed summary
//!   chains backing the pre-discovery compaction pass (`fusion::compact`);
//! * [`paths`] — data-dependence paths with CFL call/return links and
//!   calling-context reconstruction;
//! * [`slice`] — the linear, modular slice `G[Π]` (Rules 1–3);
//! * [`translate`] — the allotropic transformation to first-order path
//!   conditions (Rules 4–8) including the context-sensitive cloning of
//!   Algorithm 4, with an instance budget that reports cloning blow-ups.
//!
//! ## Quick start
//!
//! ```
//! use fusion_ir::{compile, CompileOptions};
//! use fusion_pdg::graph::Pdg;
//!
//! let program = compile(
//!     "fn bar(x) { return x * 2; } fn foo(a) { return bar(a); }",
//!     CompileOptions::default(),
//! )?;
//! let pdg = Pdg::build(&program);
//! assert!(pdg.stats().interproc_edges > 0); // labeled call/return edges
//! # Ok::<(), fusion_ir::CompileError>(())
//! ```

#![warn(missing_docs)]

pub mod compact;
pub mod dot;
pub mod graph;
pub mod paths;
pub mod slice;
pub mod translate;

pub use compact::{DenseBitSet, LabeledCsr, SummaryChain, VertexIndexer};
pub use dot::pdg_to_dot;
pub use graph::{FlowTarget, Pdg, PdgStats, Vertex};
pub use paths::{Context, DependencePath, Link};
pub use slice::{compute_slice, Constraint, ConstraintKind, FuncSlice, Slice};
pub use translate::{translate, CloneBlowup, TranslateOptions, Translation, VarOrigins};
