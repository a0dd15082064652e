//! Umbrella crate for the Fusion reproduction: re-exports every workspace
//! crate so examples and integration tests can use a single dependency.
#![forbid(unsafe_code)]
pub use fusion as core;
pub use fusion_baselines as baselines;
pub use fusion_ir as ir;
pub use fusion_pdg as pdg;
pub use fusion_smt as smt;
pub use fusion_workloads as workloads;
