//! # fusion-workloads
//!
//! Synthetic evaluation subjects for the Fusion reproduction:
//!
//! * [`spec`] — the sixteen Table 2 subjects with the paper's reported
//!   numbers and scaled generator configurations;
//! * [`genprog`] — the deterministic program generator (function DAGs,
//!   branches, loops, calls) with seeded feasible/infeasible bugs;
//! * [`bugseed`] — ground truth and precision/recall scoring (exact #TP /
//!   #FP denominators for Table 5).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bugseed;
pub mod genprog;
pub mod spec;

pub use bugseed::{score, BugSite, Score, SeededBug};
pub use genprog::{generate, generate_multi, GenConfig, GeneratedSubject};
pub use spec::{large_subjects, SubjectSpec, SUBJECTS};
