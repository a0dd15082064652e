//! # fusion-ir
//!
//! Front end and intermediate representation for the Fusion reproduction
//! (Shi et al., *Path-Sensitive Sparse Analysis without Path Conditions*,
//! PLDI 2021).
//!
//! The crate implements the paper's Fig. 4 mini-language end to end:
//!
//! * a structured **surface language** ([`ast`]) with a textual front end
//!   ([`parser`]);
//! * **lowering** ([`lower`]) to the paper's loop-free SSA core with
//!   `ite`-gating, loop unrolling and a single exit per function;
//! * the **core SSA form** ([`ssa`]) in which each definition is a
//!   program dependence graph vertex with explicit control dependence;
//! * **call graphs and recursion unrolling** ([`callgraph`], §4 of the
//!   paper: each call-graph cycle is unrolled twice);
//! * classical **dominance / control-dependence** algorithms
//!   ([`dominance`], [`cfg`](mod@cfg)) used to cross-validate the gated lowering;
//! * reference **interpreters** ([`interp`]) giving dynamic ground truth.
//!
//! ## Quick start
//!
//! ```
//! use fusion_ir::{compile, CompileOptions};
//!
//! let program = compile(
//!     "fn bar(x) { let y = x * 2; return y; }
//!      fn foo(a) { if (bar(a) > 10) { return 1; } return 0; }",
//!     CompileOptions::default(),
//! )?;
//! assert_eq!(program.functions.len(), 2);
//! # Ok::<(), fusion_ir::CompileError>(())
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod builder;
pub mod callgraph;
pub mod cfg;
pub mod dominance;
pub mod interner;
pub mod interp;
pub mod lower;
pub mod parser;
pub mod pretty;
pub mod ssa;
pub mod validate;

pub use interner::{Interner, Symbol};
pub use ssa::{CallSiteId, DefKind, FuncId, Op, Program, VarId};

use std::error::Error;
use std::fmt;

/// Options for the end-to-end [`compile`] pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompileOptions {
    /// `while`-loop unroll factor (paper default: a small fixed bound).
    pub loop_unroll: usize,
    /// Call-graph cycle unroll depth (paper: 2).
    pub recursion_unroll: usize,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            loop_unroll: 2,
            recursion_unroll: 2,
        }
    }
}

/// Any failure of the [`compile`] pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// Lexical or syntactic error.
    Parse(parser::ParseError),
    /// Unknown callee while building the call graph.
    CallGraph(callgraph::CallGraphError),
    /// Name-resolution or arity error during lowering.
    Lower(lower::LowerError),
    /// The produced IR violated an invariant (a bug in this crate).
    Validate(validate::ValidateError),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::Parse(e) => e.fmt(f),
            CompileError::CallGraph(e) => e.fmt(f),
            CompileError::Lower(e) => e.fmt(f),
            CompileError::Validate(e) => e.fmt(f),
        }
    }
}

impl Error for CompileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CompileError::Parse(e) => Some(e),
            CompileError::CallGraph(e) => Some(e),
            CompileError::Lower(e) => Some(e),
            CompileError::Validate(e) => Some(e),
        }
    }
}

impl From<parser::ParseError> for CompileError {
    fn from(e: parser::ParseError) -> Self {
        CompileError::Parse(e)
    }
}

impl From<callgraph::CallGraphError> for CompileError {
    fn from(e: callgraph::CallGraphError) -> Self {
        CompileError::CallGraph(e)
    }
}

impl From<lower::LowerError> for CompileError {
    fn from(e: lower::LowerError) -> Self {
        CompileError::Lower(e)
    }
}

impl From<validate::ValidateError> for CompileError {
    fn from(e: validate::ValidateError) -> Self {
        CompileError::Validate(e)
    }
}

/// Compiles surface source text all the way to validated core SSA:
/// parse → unroll recursion → lower (unroll loops, gate, single-exit) →
/// validate.
///
/// # Errors
///
/// Returns a [`CompileError`] describing the first failing stage.
pub fn compile(src: &str, options: CompileOptions) -> Result<Program, CompileError> {
    let mut interner = Interner::new();
    let surface = parser::parse(src, &mut interner)?;
    compile_ast(&surface, &mut interner, options)
}

/// Compiles an already-parsed surface program (used by the workload
/// generator, which builds ASTs directly).
///
/// # Errors
///
/// Returns a [`CompileError`] describing the first failing stage.
pub fn compile_ast(
    surface: &ast::Program,
    interner: &mut Interner,
    options: CompileOptions,
) -> Result<Program, CompileError> {
    let surface = callgraph::unroll_recursion(surface, interner, options.recursion_unroll)?;
    let program = lower::lower(
        &surface,
        interner,
        lower::LowerOptions {
            loop_unroll: options.loop_unroll,
        },
    )?;
    validate::validate(&program)?;
    Ok(program)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compile_pipeline_smoke() {
        let p = compile(
            "fn fib(n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }",
            CompileOptions::default(),
        )
        .expect("compile");
        // fib, fib#1, fib#stub
        assert_eq!(p.functions.len(), 3);
        assert!(p.func_by_name("fib#stub").unwrap().is_extern);
    }

    #[test]
    fn compile_reports_parse_errors() {
        assert!(matches!(
            compile("fn {", CompileOptions::default()),
            Err(CompileError::Parse(_))
        ));
    }

    #[test]
    fn compile_reports_lower_errors() {
        assert!(matches!(
            compile("fn f() { return zz; }", CompileOptions::default()),
            Err(CompileError::Lower(_))
        ));
    }
}
