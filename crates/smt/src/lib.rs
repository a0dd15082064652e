//! # fusion-smt
//!
//! A from-scratch bit-vector SMT substrate for the Fusion reproduction
//! (Shi et al., *Path-Sensitive Sparse Analysis without Path Conditions*,
//! PLDI 2021). It plays the role Z3 4.5 plays in the paper's §4:
//!
//! * a hash-consed **term DAG** with constructor-level rewriting ([`term`]);
//! * the named **preprocessing passes** — forward/backward constant
//!   propagation, equality propagation, unconstrained-variable elimination,
//!   Gaussian elimination, strength reduction ([`preprocess`]);
//! * **bit-blasting** to CNF ([`bitblast`]) and a **CDCL SAT solver** with
//!   two-watched literals, VSIDS, 1-UIP learning, Luby restarts and phase
//!   saving ([`sat`]);
//! * the end-to-end **Algorithm 3 pipeline** with per-call budgets
//!   ([`solver`]) and its **incremental session** variant that amortizes
//!   bit-blasting and CDCL state across related queries ([`session`]);
//! * the heavyweight **tactics** the evaluation arms Pinpoint with: `qe`
//!   and `ctx-solver-simplify` ([`tactic`]).
//!
//! ## Quick start
//!
//! ```
//! use fusion_smt::term::{BvPred, Sort, TermPool};
//! use fusion_smt::solver::{smt_solve, SolverConfig};
//!
//! let mut pool = TermPool::new();
//! let x = pool.var("x", Sort::Bv(32));
//! let y = pool.var("y", Sort::Bv(32));
//! let formula = pool.pred(BvPred::Slt, x, y);
//! let (result, stats) = smt_solve(&mut pool, formula, &SolverConfig::default());
//! assert!(result.is_sat());
//! assert!(stats.preprocess_decided); // both sides unconstrained
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitblast;
pub mod cnf;
pub mod dense;
pub mod dimacs;
pub mod preprocess;
pub mod sat;
pub mod session;
pub mod solver;
pub mod tactic;
pub mod term;

pub use session::{SessionStats, SolveSession};
pub use solver::{smt_solve, Model, SatResult, SolveStats, SolverConfig};
pub use term::{BvOp, BvPred, CtxId, Sort, TermId, TermKind, TermPool, Value, VarIdx, VarKey};
