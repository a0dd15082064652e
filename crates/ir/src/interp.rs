//! Reference interpreters for the surface and core languages.
//!
//! Two evaluators with identical observable behaviour:
//!
//! * [`eval_surface`] executes the structured surface AST, cutting every
//!   `while` loop off after `loop_limit` iterations (the bounded-model-
//!   checking semantics the paper adopts by unrolling);
//! * [`eval_core`] executes a lowered SSA function *speculatively* — every
//!   definition is evaluated (the language is pure and total), and a
//!   definition counts as *executed* iff its guard chain is all-true.
//!
//! External functions are modeled by a deterministic hash of their name and
//! arguments so both evaluators agree. The test suite uses the pair to
//! validate lowering end-to-end, and the analysis crates use [`eval_core`]
//! as dynamic ground truth for path feasibility.

use crate::ast::{self, BinOp, Expr, ExprId, Stmt, UnOp};
use crate::interner::{Interner, Symbol};
use crate::ssa::{self, DefKind, FuncId, Op};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// An observed call to an external function: callee name and argument
/// values, recorded only when the call actually executes.
pub type ExternCall = (Symbol, Vec<u32>);

/// The sequence of executed external calls, in execution order for the
/// surface evaluator and in definition order for the core evaluator.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    /// Executed external calls.
    pub extern_calls: Vec<ExternCall>,
}

/// Evaluation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Ran out of fuel (call depth / statement budget).
    FuelExhausted,
    /// A name did not resolve (malformed program).
    Unbound(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::FuelExhausted => write!(f, "evaluation fuel exhausted"),
            EvalError::Unbound(n) => write!(f, "unbound name `{n}`"),
        }
    }
}

impl Error for EvalError {}

/// Deterministic model of an external function's return value: a splitmix64
/// style hash of the callee symbol and arguments, truncated to a word.
pub fn extern_value(callee: Symbol, args: &[u32]) -> u32 {
    let mut h: u64 = 0x9e37_79b9_7f4a_7c15 ^ (callee.index() as u64);
    for &a in args {
        h = h.wrapping_add(a as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        h ^= h >> 31;
    }
    h = (h ^ (h >> 30)).wrapping_mul(0x94d0_49bb_1331_11eb);
    (h ^ (h >> 32)) as u32
}

struct SurfaceEval<'p> {
    program: &'p ast::Program,
    interner: &'p Interner,
    by_name: HashMap<Symbol, usize>,
    loop_limit: usize,
    fuel: u64,
    trace: Trace,
}

enum Flow {
    Normal,
    Returned(u32),
}

impl<'p> SurfaceEval<'p> {
    fn spend(&mut self) -> Result<(), EvalError> {
        if self.fuel == 0 {
            return Err(EvalError::FuelExhausted);
        }
        self.fuel -= 1;
        Ok(())
    }

    fn call(&mut self, name: Symbol, args: &[u32]) -> Result<u32, EvalError> {
        self.spend()?;
        let idx = *self
            .by_name
            .get(&name)
            .ok_or_else(|| EvalError::Unbound(self.interner.resolve(name).to_owned()))?;
        let func = &self.program.functions[idx];
        if func.is_extern {
            self.trace.extern_calls.push((name, args.to_vec()));
            return Ok(extern_value(name, args));
        }
        let mut env: HashMap<Symbol, u32> = HashMap::new();
        for (p, v) in func.params.iter().zip(args) {
            env.insert(*p, *v);
        }
        match self.stmts(func, func.body(), &mut env)? {
            Flow::Returned(v) => Ok(v),
            Flow::Normal => Ok(0), // fall-through returns 0, like lowering
        }
    }

    fn stmts(
        &mut self,
        f: &ast::Function,
        block: ast::Block,
        env: &mut HashMap<Symbol, u32>,
    ) -> Result<Flow, EvalError> {
        for s in f.block(block) {
            self.spend()?;
            match f.stmt(s) {
                Stmt::Let(sym, e) | Stmt::Assign(sym, e) => {
                    let v = self.expr(f, e, env)?;
                    env.insert(sym, v);
                }
                Stmt::Expr(e) => {
                    self.expr(f, e, env)?;
                }
                Stmt::Return(e) => {
                    let v = self.expr(f, e, env)?;
                    return Ok(Flow::Returned(v));
                }
                Stmt::If(c, t, el) => {
                    let cv = self.expr(f, c, env)?;
                    let flow = if cv != 0 {
                        self.stmts(f, t, env)?
                    } else {
                        self.stmts(f, el, env)?
                    };
                    if let Flow::Returned(v) = flow {
                        return Ok(Flow::Returned(v));
                    }
                }
                Stmt::While(c, body) => {
                    // Bounded semantics: at most `loop_limit` iterations.
                    for _ in 0..self.loop_limit {
                        let cv = self.expr(f, c, env)?;
                        if cv == 0 {
                            break;
                        }
                        if let Flow::Returned(v) = self.stmts(f, body, env)? {
                            return Ok(Flow::Returned(v));
                        }
                    }
                }
            }
        }
        Ok(Flow::Normal)
    }

    fn expr(
        &mut self,
        f: &ast::Function,
        e: ExprId,
        env: &mut HashMap<Symbol, u32>,
    ) -> Result<u32, EvalError> {
        self.spend()?;
        Ok(match f.expr(e) {
            Expr::Int(v) => v as u32,
            Expr::Null => 0,
            Expr::Var(sym) => *env
                .get(&sym)
                .ok_or_else(|| EvalError::Unbound(self.interner.resolve(sym).to_owned()))?,
            Expr::Unary(op, inner) => {
                let v = self.expr(f, inner, env)?;
                match op {
                    UnOp::Not => (v == 0) as u32,
                    UnOp::Neg => 0u32.wrapping_sub(v),
                    UnOp::BitNot => !v,
                }
            }
            Expr::Binary(op, a, b) => {
                let va = self.expr(f, a, env)?;
                let vb = self.expr(f, b, env)?;
                match op {
                    BinOp::Add => Op::Add.eval(va, vb),
                    BinOp::Sub => Op::Sub.eval(va, vb),
                    BinOp::Mul => Op::Mul.eval(va, vb),
                    BinOp::Div => Op::Udiv.eval(va, vb),
                    BinOp::Rem => Op::Urem.eval(va, vb),
                    BinOp::BitAnd => va & vb,
                    BinOp::BitOr => va | vb,
                    BinOp::BitXor => va ^ vb,
                    BinOp::Shl => Op::Shl.eval(va, vb),
                    BinOp::Shr => Op::Lshr.eval(va, vb),
                    BinOp::Lt => Op::Slt.eval(va, vb),
                    BinOp::Le => Op::Sle.eval(va, vb),
                    BinOp::Gt => Op::Slt.eval(vb, va),
                    BinOp::Ge => Op::Sle.eval(vb, va),
                    BinOp::Eq => Op::Eq.eval(va, vb),
                    BinOp::Ne => Op::Ne.eval(va, vb),
                    BinOp::And => ((va != 0) && (vb != 0)) as u32,
                    BinOp::Or => ((va != 0) || (vb != 0)) as u32,
                }
            }
            Expr::Call(name, args) => {
                let mut vals = Vec::with_capacity(args.len());
                for a in f.args(args) {
                    vals.push(self.expr(f, a, env)?);
                }
                self.call(name, &vals)?
            }
        })
    }
}

/// Executes `func(args)` over the surface AST with loop iterations capped
/// at `loop_limit` (matching an unroll factor of the same value).
///
/// # Errors
///
/// [`EvalError::FuelExhausted`] if the budget of `fuel` evaluation steps is
/// exceeded; [`EvalError::Unbound`] on malformed programs.
pub fn eval_surface(
    program: &ast::Program,
    interner: &Interner,
    func: Symbol,
    args: &[u32],
    loop_limit: usize,
    fuel: u64,
) -> Result<(u32, Trace), EvalError> {
    let by_name = program
        .functions
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name, i))
        .collect();
    let mut ev = SurfaceEval {
        program,
        interner,
        by_name,
        loop_limit,
        fuel,
        trace: Trace::default(),
    };
    let v = ev.call(func, args)?;
    Ok((v, ev.trace))
}

/// The result of speculatively evaluating one core function invocation.
#[derive(Debug, Clone)]
pub struct CoreEval {
    /// Every definition's value (all definitions are evaluated; the
    /// language is pure and total).
    pub values: Vec<u32>,
    /// `executed[i]` iff definition `i`'s guard chain is all-true.
    pub executed: Vec<bool>,
    /// The function's return value.
    pub ret: u32,
}

fn eval_core_func(
    program: &ssa::Program,
    func: FuncId,
    args: &[u32],
    fuel: &mut u64,
    trace: &mut Trace,
) -> Result<CoreEval, EvalError> {
    let f = program.func(func);
    if f.is_extern {
        // Modeled externally; the caller records the trace entry.
        return Ok(CoreEval {
            values: Vec::new(),
            executed: Vec::new(),
            ret: extern_value(f.name, args),
        });
    }
    let mut values = vec![0u32; f.defs.len()];
    let mut executed = vec![false; f.defs.len()];
    for def in &f.defs {
        if *fuel == 0 {
            return Err(EvalError::FuelExhausted);
        }
        *fuel -= 1;
        let exec = match def.guard {
            None => true,
            Some(g) => {
                let DefKind::Branch { cond } = f.def(g).kind else {
                    unreachable!("guards are branches")
                };
                executed[g.index()] && values[cond.index()] != 0
            }
        };
        executed[def.var.index()] = exec;
        values[def.var.index()] = match &def.kind {
            DefKind::Param { index } => args.get(*index).copied().unwrap_or(0),
            DefKind::Const { value, .. } => *value,
            DefKind::Copy { src } | DefKind::Return { src } => values[src.index()],
            DefKind::Binary { op, lhs, rhs } => op.eval(values[lhs.index()], values[rhs.index()]),
            DefKind::Ite {
                cond,
                then_v,
                else_v,
            } => {
                if values[cond.index()] != 0 {
                    values[then_v.index()]
                } else {
                    values[else_v.index()]
                }
            }
            DefKind::Branch { cond } => values[cond.index()],
            DefKind::Call {
                callee, args: avs, ..
            } => {
                let vals: Vec<u32> = avs.iter().map(|a| values[a.index()]).collect();
                let callee_f = program.func(*callee);
                if callee_f.is_extern {
                    if exec {
                        trace.extern_calls.push((callee_f.name, vals.clone()));
                    }
                    extern_value(callee_f.name, &vals)
                } else {
                    // Speculative execution: the callee's *value* is always
                    // computed, but its trace only counts when this call
                    // executes.
                    let mut sub_trace = Trace::default();
                    let sub = eval_core_func(program, *callee, &vals, fuel, &mut sub_trace)?;
                    if exec {
                        trace.extern_calls.extend(sub_trace.extern_calls);
                    }
                    sub.ret
                }
            }
        };
    }
    let ret = f.ret.map(|r| values[r.index()]).unwrap_or(0);
    Ok(CoreEval {
        values,
        executed,
        ret,
    })
}

/// Speculatively evaluates a core SSA function on concrete arguments.
///
/// # Errors
///
/// [`EvalError::FuelExhausted`] when `fuel` definition-evaluations are
/// exceeded (guards against pathological speculative call trees).
pub fn eval_core(
    program: &ssa::Program,
    func: FuncId,
    args: &[u32],
    mut fuel: u64,
) -> Result<(CoreEval, Trace), EvalError> {
    let mut trace = Trace::default();
    let ev = eval_core_func(program, func, args, &mut fuel, &mut trace)?;
    Ok((ev, trace))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::{lower, LowerOptions};
    use crate::parser::parse;

    fn check_equiv(src: &str, func: &str, argsets: &[Vec<u32>]) {
        let mut i = Interner::new();
        let surface = parse(src, &mut i).expect("parse");
        let unroll = 2usize;
        let core = lower(
            &surface,
            &mut i,
            LowerOptions {
                loop_unroll: unroll,
            },
        )
        .expect("lower");
        let sym = i.lookup(func).unwrap();
        let fid = core.func_by_name(func).unwrap().id;
        for args in argsets {
            let (sv, st) = eval_surface(&surface, &i, sym, args, unroll, 1_000_000).unwrap();
            let (cv, ct) = eval_core(&core, fid, args, 1_000_000).unwrap();
            assert_eq!(sv, cv.ret, "value mismatch on {args:?}");
            let mut s_sorted = st.extern_calls.clone();
            let mut c_sorted = ct.extern_calls.clone();
            s_sorted.sort();
            c_sorted.sort();
            assert_eq!(s_sorted, c_sorted, "trace mismatch on {args:?}");
        }
    }

    #[test]
    fn straight_line_equivalence() {
        check_equiv(
            "fn f(x) { let y = x * 2 + 1; return y; }",
            "f",
            &[vec![0], vec![5], vec![u32::MAX]],
        );
    }

    #[test]
    fn branches_equivalence() {
        check_equiv(
            "fn f(a, b) { if (a < b) { return a; } else { return b; } }",
            "f",
            &[vec![1, 2], vec![2, 1], vec![5, 5], vec![0x8000_0000, 1]],
        );
    }

    #[test]
    fn early_return_equivalence() {
        check_equiv(
            "extern fn sink(x);\n fn f(a, p) { if (a) { return 7; } sink(p); return p + 1; }",
            "f",
            &[vec![0, 3], vec![1, 3]],
        );
    }

    #[test]
    fn loop_equivalence_within_bound() {
        check_equiv(
            "fn f(n) { let i = 0; while (i < n) { i = i + 1; } return i; }",
            "f",
            &[vec![0], vec![1], vec![2]],
        );
    }

    #[test]
    fn loop_cutoff_matches_unrolled_semantics() {
        // n=10 exceeds the unroll factor 2: both semantics stop after two
        // iterations.
        check_equiv(
            "fn f(n) { let i = 0; while (i < n) { i = i + 1; } return i; }",
            "f",
            &[vec![10]],
        );
    }

    #[test]
    fn calls_equivalence() {
        check_equiv(
            "fn bar(x) { let y = x * 2; return y; }\n\
             fn foo(a, b) { let c = bar(a); let d = bar(b); if (c < d) { return 0; } return 1; }",
            "foo",
            &[vec![1, 2], vec![3, 1], vec![0, 0]],
        );
    }

    #[test]
    fn extern_model_is_deterministic() {
        let mut i = Interner::new();
        let s = i.intern("gets");
        assert_eq!(extern_value(s, &[1, 2]), extern_value(s, &[1, 2]));
        assert_ne!(extern_value(s, &[1, 2]), extern_value(s, &[2, 1]));
    }

    #[test]
    fn guarded_sink_is_traced_only_when_executed() {
        let mut i = Interner::new();
        let src = "extern fn sink(x); fn f(a) { if (a) { sink(a); } return 0; }";
        let surface = parse(src, &mut i).unwrap();
        let core = lower(&surface, &mut i, LowerOptions::default()).unwrap();
        let fid = core.func_by_name("f").unwrap().id;
        let (_, t0) = eval_core(&core, fid, &[0], 10_000).unwrap();
        let (_, t1) = eval_core(&core, fid, &[1], 10_000).unwrap();
        assert!(t0.extern_calls.is_empty());
        assert_eq!(t1.extern_calls.len(), 1);
    }

    #[test]
    fn fuel_exhaustion_is_reported() {
        let mut i = Interner::new();
        let src = "fn f(x) { return x + x; }";
        let surface = parse(src, &mut i).unwrap();
        let sym = i.lookup("f").unwrap();
        let err = eval_surface(&surface, &i, sym, &[1], 2, 1).unwrap_err();
        assert_eq!(err, EvalError::FuelExhausted);
    }
}
