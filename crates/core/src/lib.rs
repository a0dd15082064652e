//! # fusion
//!
//! The primary contribution of *Path-Sensitive Sparse Analysis without Path
//! Conditions* (Shi, Yao, Wu, Zhang — PLDI 2021): an inter-procedurally
//! path-sensitive sparse analysis in which the SMT solver works directly on
//! the program dependence graph, so the analysis never computes, caches, or
//! excessively clones path conditions.
//!
//! * [`absint`] — the sparse abstract interpreter (Const ⊑ Affine ⊑
//!   Interval × KnownBits per definition, memoized once per function) that
//!   triages candidates before any solver work and seeds formula
//!   preprocessing with known-bits facts;
//! * [`checkers`] — the paper's three checkers (null dereference, CWE-23,
//!   CWE-402) as data-driven source/sink/propagation specs;
//! * [`propagate`] — sparse, condition-free fact propagation collecting
//!   dependence paths (Algorithms 1/2/5);
//! * [`quickpath`] — entry→exit value summaries (the §2 "quick path" and
//!   the Fig. 9 label deletion);
//! * [`graph_solver`] — the IR-based SMT solutions: Algorithm 4
//!   (unoptimized) and Algorithm 6 (the Fusion solver);
//! * [`engine`] — the analysis driver (one fused multi-client pass over a
//!   whole [`checkers::CheckerSet`], inline on one engine or streamed
//!   from discovery producers into sticky solve workers on several), the
//!   [`engine::FeasibilityEngine`] trait the baselines also implement,
//!   and bug reports;
//! * [`cache`] — the sharded feasibility-verdict memo cache shared across
//!   worker engines;
//! * [`counters`](mod@counters) — the `counters!` table macro that defines each run
//!   counter once, with its sum, delta and output key;
//! * [`compact`] — frontier reachability pruning over dependence
//!   structure, in no pipeline any more, kept only because the
//!   end-to-end benchmark times `CompactPdg::build`;
//! * [`slice_cache`] — the sharded LRU memo of slice *closures* (dependence
//!   structure only — never formulas, preserving §3.2.2's discipline);
//! * [`incremental`] — the warm analysis service: per-function content
//!   fingerprints, the dirtiness tracker, eviction provenance, and the
//!   resident [`incremental::AnalysisSession`] behind `fusion-scan
//!   --serve`;
//! * [`snapshot`] — the versioned, checksummed on-disk container for
//!   program bodies, facts, summaries, verdicts, and outcomes (never a
//!   path condition) behind serve-mode `save` and `load`;
//! * [`partition`] and [`shard`] — the steps of a partitioned scan
//!   (call-graph partitioning, per-shard runs, merge and replay), kept
//!   only for the end-to-end benchmark's `sharded-scan` workload;
//! * [`memory`] — categorized byte accounting behind every memory number
//!   in the reproduced tables.
//!
//! ## Quick start
//!
//! ```
//! use fusion::checkers::Checker;
//! use fusion::engine::{analyze, AnalysisOptions};
//! use fusion::graph_solver::FusionSolver;
//! use fusion_ir::{compile, CompileOptions};
//! use fusion_pdg::graph::Pdg;
//! use fusion_smt::solver::SolverConfig;
//!
//! let program = compile(
//!     "extern fn deref(p);
//!      fn f(x) { let q = null; let r = 1; if (x > 0) { r = q; } deref(r); return 0; }",
//!     CompileOptions::default(),
//! )?;
//! let pdg = Pdg::build(&program);
//! let mut engine = FusionSolver::new(SolverConfig::default());
//! let run = analyze(&program, &pdg, &Checker::null_deref(), &mut engine,
//!                   &AnalysisOptions::new());
//! assert_eq!(run.reports.len(), 1); // x > 0 is satisfiable
//! # Ok::<(), fusion_ir::CompileError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absint;
pub mod cache;
pub mod checkers;
pub mod compact;
pub mod counters;
pub mod engine;
pub mod graph_solver;
pub mod incremental;
pub mod memory;
pub mod partition;
pub mod propagate;
pub mod quickpath;
pub mod report;
pub mod shard;
pub mod slice_cache;
pub mod snapshot;

pub use absint::{AbsVal, ProgramFacts};
pub use cache::{path_set_key, CacheStats, Key128, VerdictCache};
pub use checkers::{default_checkers, CheckKind, Checker, CheckerId, CheckerSet};
pub use engine::{
    analyze, analyze_multi_streaming_with_cache, analyze_multi_with_cache, AnalysisOptions,
    AnalysisRun, BugReport, CheckOutcome, CheckerBreakdown, CheckerStats, Feasibility,
    FeasibilityEngine, ItemOutcomes, MultiAnalysisRun, SolveRecord, StageStats,
};
pub use graph_solver::{FusionSolver, UnoptimizedGraphSolver};
pub use incremental::{
    AnalysisSession, DirtinessTracker, EditDiff, InvalidationStats, ResidentStats,
};
pub use memory::{run_accounting, Category, MemoryAccountant};
pub use slice_cache::{SliceCache, SliceCacheStats};
pub use snapshot::{Snapshot, SnapshotError, SnapshotWriter};
