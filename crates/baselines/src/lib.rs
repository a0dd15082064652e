//! # fusion-baselines
//!
//! The comparison systems of the paper's evaluation (§5):
//!
//! * [`pinpoint`] — the conventional, non-fused design (Algorithm 2):
//!   eager condition computation, persistent summary caching, full
//!   condition cloning at call sites; plus the `+QE`, `+LFS` and `+HFS`
//!   tactic variants;
//! * [`ar`] — the abstraction-refinement variant (Pinpoint+AR), which
//!   starts from intra-procedural conditions and refines by depth, paying
//!   one solver call per refinement;
//! * [`inferlike`] — a compositional, path-insensitive analyzer with
//!   bounded summary composition, standing in for Infer in Table 5.
//!
//! All engines implement [`fusion::engine::FeasibilityEngine`] (or return
//! the same [`fusion::engine::AnalysisRun`] shape), so the benchmark
//! harnesses compare like with like.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ar;
pub mod inferlike;
pub mod pinpoint;

pub use ar::ArEngine;
pub use inferlike::{analyze_inferlike, InferOptions};
pub use pinpoint::{PinpointEngine, Tactic};
