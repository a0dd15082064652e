//! Lowering from the surface language to the core SSA form of Fig. 4.
//!
//! The pipeline implements exactly the normalizations the paper assumes in
//! §3.1:
//!
//! * **loop-free**: `while` loops are unrolled a fixed number of times
//!   (bounded-model-checking style), nested `if`s replacing iterations;
//! * **SSA with gating**: every variable has one definition; joins are merged
//!   with explicit `v = ite(cond, v_then, v_else)` assignments instead of φ
//!   (the almost-linear gating construction of Tu & Padua the paper cites);
//! * **single exit**: early returns are rewritten with a `__ret_taken` /
//!   `__ret_val` pair so each function ends in exactly one
//!   [`DefKind::Return`];
//! * **explicit control dependence**: every definition records the innermost
//!   [`DefKind::Branch`] vertex guarding it.

use crate::ast::{self, BinOp, Expr, Stmt, UnOp};
use crate::interner::{Interner, Symbol};
use crate::ssa::{CallSite, CallSiteId, Def, DefKind, FuncId, Function, Op, Program, VarId};
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Options controlling lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerOptions {
    /// How many times `while` loops are unrolled (paper: "a fixed number of
    /// times in practice"; default 2).
    pub loop_unroll: usize,
}

impl Default for LowerOptions {
    fn default() -> Self {
        Self { loop_unroll: 2 }
    }
}

/// Most definitions one lowered function may hold. Lowering unrolls each
/// `while` `loop_unroll` times per nesting level, so `k` nested loops copy
/// the innermost body `loop_unroll^k` times: at the default factor 2,
/// every level doubles the function, and 30 levels (far inside the
/// parser's `MAX_NESTING`) would need billions of definitions. Emitting
/// one more fails with a [`LowerError`] naming the function. The largest
/// function in the generated benchmark subjects has 400 definitions, and
/// the largest in the test corpora 1,022 (the parser's 255-deep nesting
/// test), so the bound leaves 64x headroom.
pub const MAX_FUNCTION_DEFS: usize = 1 << 16;

/// A lowering failure (unknown names, arity mismatches, ...).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// The function being lowered when the error occurred, if any.
    pub function: Option<String>,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.function {
            Some(name) => write!(f, "in function `{name}`: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl Error for LowerError {}

/// Outcome of lowering a statement list, used to place return guards.
#[derive(Debug, Clone, Copy, Default)]
struct BlockOutcome {
    /// Every path through the list reaches a `return`.
    definitely_returned: bool,
    /// Some path through the list reaches a `return`.
    may_return: bool,
}

/// Base names of generated definitions, each interned once per program
/// (see [`Def::name`]).
struct DefNames {
    t: Symbol,
    null: Symbol,
    if_: Symbol,
    else_: Symbol,
    cont: Symbol,
    not_returned: Symbol,
    ret: Symbol,
    /// `c{value}`, by constant value.
    consts: HashMap<u32, Symbol>,
    /// `r_{callee}`, by callee.
    calls: Vec<Option<Symbol>>,
}

impl DefNames {
    fn new(interner: &mut Interner, functions: usize) -> Self {
        DefNames {
            t: interner.intern("t"),
            null: interner.intern("null"),
            if_: interner.intern("if"),
            else_: interner.intern("else"),
            cont: interner.intern("cont"),
            not_returned: interner.intern("not_returned"),
            ret: interner.intern("ret"),
            consts: HashMap::new(),
            calls: vec![None; functions],
        }
    }
}

/// A variable name's current definition while lowering one function: one
/// slot per symbol, and an undo log, so an `if` arm or a guarded tail is
/// rolled back instead of lowered against a copy of the environment.
#[derive(Default)]
struct Env {
    /// `vars[sym]`: the definition `sym` names, or [`UNBOUND`].
    vars: Vec<u32>,
    /// `(sym, its value before the write)` for every write, oldest first.
    log: Vec<(Symbol, u32)>,
    /// The names each open arm wrote, with the value the arm left them at
    /// (a stack: nested arms push above and truncate back).
    written: Vec<(Symbol, VarId)>,
}

/// A name with no definition in [`Env::vars`].
const UNBOUND: u32 = u32::MAX;

impl Env {
    fn get(&self, sym: Symbol) -> Option<VarId> {
        match self.vars.get(sym.index()) {
            Some(&v) if v != UNBOUND => Some(VarId(v)),
            _ => None,
        }
    }

    /// Binds `sym` to `v`, returning its previous definition.
    fn set(&mut self, sym: Symbol, v: VarId) -> Option<VarId> {
        let i = sym.index();
        if i >= self.vars.len() {
            self.vars.resize(i + 1, UNBOUND);
        }
        let prev = std::mem::replace(&mut self.vars[i], v.0);
        self.log.push((sym, prev));
        (prev != UNBOUND).then_some(VarId(prev))
    }

    /// A point to roll back to.
    fn mark(&self) -> usize {
        self.log.len()
    }

    /// Undoes every write since `mark`, first pushing onto
    /// [`Env::written`] each written name with the value the writes left
    /// it at, and returns where those entries start. They are sorted by
    /// symbol; a name written twice appears twice with the same value.
    fn roll_back(&mut self, mark: usize) -> usize {
        let start = self.written.len();
        for &(sym, _) in &self.log[mark..] {
            self.written.push((sym, VarId(self.vars[sym.index()])));
        }
        for (sym, prev) in self.log.drain(mark..).rev() {
            self.vars[sym.index()] = prev;
        }
        self.written[start..].sort_unstable_by_key(|&(sym, _)| sym);
        start
    }

    /// Unbinds every name, keeping the buffers.
    fn clear(&mut self) {
        for (sym, _) in self.log.drain(..) {
            self.vars[sym.index()] = UNBOUND;
        }
        self.written.clear();
    }
}

/// A statement list to lower: `stmts`, then, for the body of an unrolled
/// `while` iteration, the loop's remaining iterations.
#[derive(Clone, Copy)]
struct Block<'s> {
    stmts: &'s [Stmt],
    then_loop: Option<Loop<'s>>,
}

/// `iterations` (at least one) unrolled iterations of `while (cond) { body }`:
/// `if (cond) { body; <iterations - 1 more> }`, lowered from the loop's own
/// body rather than from an expanded copy.
#[derive(Clone, Copy)]
struct Loop<'s> {
    cond: &'s Expr,
    body: &'s [Stmt],
    iterations: usize,
}

impl<'s> Block<'s> {
    fn new(stmts: &'s [Stmt]) -> Self {
        Block {
            stmts,
            then_loop: None,
        }
    }

    fn is_empty(&self) -> bool {
        self.stmts.is_empty() && self.then_loop.is_none()
    }

    /// The statements from `idx` on, then the loop tail.
    fn tail(self, idx: usize) -> Self {
        Block {
            stmts: &self.stmts[idx..],
            ..self
        }
    }

    /// Whether any statement in the block, at any depth, is a `return`.
    fn contains_return(&self) -> bool {
        contains_return(self.stmts) || self.then_loop.is_some_and(|l| contains_return(l.body))
    }
}

/// Lowers the functions of one program. The environment, the constant
/// cache and the definition buffer are reused from one function to the
/// next.
struct FuncLowerer<'a> {
    defs: Vec<Def>,
    env: Env,
    guard: Option<VarId>,
    interner: &'a mut Interner,
    names: DefNames,
    func_ids: &'a HashMap<Symbol, FuncId>,
    func_arities: &'a [usize],
    call_sites: Vec<CallSite>,
    func_id: FuncId,
    /// The function being lowered.
    func_name: Option<Symbol>,
    const_cache: HashMap<u32, VarId>,
    ret_val: Option<Symbol>,
    ret_taken: Option<Symbol>,
    loop_unroll: usize,
}

impl<'a> FuncLowerer<'a> {
    fn err(&self, message: impl Into<String>) -> LowerError {
        LowerError {
            function: self.func_name.map(|f| self.interner.resolve(f).to_owned()),
            message: message.into(),
        }
    }

    /// Emits one definition, failing once the function would exceed
    /// [`MAX_FUNCTION_DEFS`].
    fn fresh(&mut self, kind: DefKind, name: Symbol) -> Result<VarId, LowerError> {
        if self.defs.len() >= MAX_FUNCTION_DEFS {
            return Err(self.err(format!(
                "more than {MAX_FUNCTION_DEFS} definitions after unrolling \
                 (nested `while` loops multiply the unroll factor per level)"
            )));
        }
        let var = VarId(self.defs.len() as u32);
        self.defs.push(Def {
            var,
            kind,
            guard: self.guard,
            name,
        });
        Ok(var)
    }

    /// Emits (or reuses) a constant definition. Constants are pure, so one
    /// definition per distinct value suffices; it carries the guard of its
    /// first creation point, which keeps guard regions contiguous in
    /// program order (an invariant [`crate::cfg`] relies on).
    fn constant(&mut self, value: u32) -> Result<VarId, LowerError> {
        if let Some(&v) = self.const_cache.get(&value) {
            return Ok(v);
        }
        let interner = &mut *self.interner;
        let name = *self
            .names
            .consts
            .entry(value)
            .or_insert_with(|| interner.intern(&format!("c{value}")));
        let v = self.fresh(
            DefKind::Const {
                value,
                is_null: false,
            },
            name,
        )?;
        self.const_cache.insert(value, v);
        Ok(v)
    }

    fn lower_expr(&mut self, e: &Expr) -> Result<VarId, LowerError> {
        match e {
            Expr::Int(v) => self.constant(*v as u32),
            Expr::Null => {
                // Null sources are never deduplicated: each occurrence is a
                // distinct bug source for the null-dereference checker.
                self.fresh(
                    DefKind::Const {
                        value: 0,
                        is_null: true,
                    },
                    self.names.null,
                )
            }
            Expr::Var(sym) => self.env.get(*sym).ok_or_else(|| {
                let name = self.interner.resolve(*sym).to_owned();
                self.err(format!("use of undefined variable `{name}`"))
            }),
            Expr::Unary(op, inner) => {
                let v = self.lower_expr(inner)?;
                let zero = self.constant(0)?;
                match op {
                    UnOp::Not => self.fresh(
                        DefKind::Binary {
                            op: Op::Eq,
                            lhs: v,
                            rhs: zero,
                        },
                        self.names.t,
                    ),
                    UnOp::Neg => self.fresh(
                        DefKind::Binary {
                            op: Op::Sub,
                            lhs: zero,
                            rhs: v,
                        },
                        self.names.t,
                    ),
                    UnOp::BitNot => {
                        let ones = self.constant(u32::MAX)?;
                        self.fresh(
                            DefKind::Binary {
                                op: Op::Xor,
                                lhs: v,
                                rhs: ones,
                            },
                            self.names.t,
                        )
                    }
                }
            }
            Expr::Binary(op, a, b) => {
                let va = self.lower_expr(a)?;
                let vb = self.lower_expr(b)?;
                let simple = |op| DefKind::Binary {
                    op,
                    lhs: va,
                    rhs: vb,
                };
                let swapped = |op| DefKind::Binary {
                    op,
                    lhs: vb,
                    rhs: va,
                };
                let kind = match op {
                    BinOp::Add => simple(Op::Add),
                    BinOp::Sub => simple(Op::Sub),
                    BinOp::Mul => simple(Op::Mul),
                    BinOp::Div => simple(Op::Udiv),
                    BinOp::Rem => simple(Op::Urem),
                    BinOp::BitAnd => simple(Op::And),
                    BinOp::BitOr => simple(Op::Or),
                    BinOp::BitXor => simple(Op::Xor),
                    BinOp::Shl => simple(Op::Shl),
                    BinOp::Shr => simple(Op::Lshr),
                    BinOp::Lt => simple(Op::Slt),
                    BinOp::Le => simple(Op::Sle),
                    BinOp::Gt => swapped(Op::Slt),
                    BinOp::Ge => swapped(Op::Sle),
                    BinOp::Eq => simple(Op::Eq),
                    BinOp::Ne => simple(Op::Ne),
                    BinOp::And | BinOp::Or => {
                        let zero = self.constant(0)?;
                        let na = self.fresh(
                            DefKind::Binary {
                                op: Op::Ne,
                                lhs: va,
                                rhs: zero,
                            },
                            self.names.t,
                        )?;
                        let nb = self.fresh(
                            DefKind::Binary {
                                op: Op::Ne,
                                lhs: vb,
                                rhs: zero,
                            },
                            self.names.t,
                        )?;
                        let o = if *op == BinOp::And { Op::And } else { Op::Or };
                        DefKind::Binary {
                            op: o,
                            lhs: na,
                            rhs: nb,
                        }
                    }
                };
                self.fresh(kind, self.names.t)
            }
            Expr::Call(name, args) => {
                let callee = *self.func_ids.get(name).ok_or_else(|| {
                    let n = self.interner.resolve(*name).to_owned();
                    self.err(format!("call to unknown function `{n}`"))
                })?;
                let expect = self.func_arities[callee.index()];
                if args.len() != expect {
                    let n = self.interner.resolve(*name).to_owned();
                    return Err(self.err(format!(
                        "`{n}` expects {expect} argument(s), got {}",
                        args.len()
                    )));
                }
                let mut arg_vars = Vec::with_capacity(args.len());
                for a in args {
                    arg_vars.push(self.lower_expr(a)?);
                }
                let site = CallSiteId(self.call_sites.len() as u32);
                let var = VarId(self.defs.len() as u32);
                self.call_sites.push(CallSite {
                    caller: self.func_id,
                    stmt: var,
                    callee,
                });
                let interner = &mut *self.interner;
                let base = *self.names.calls[callee.index()].get_or_insert_with(|| {
                    interner.intern(&format!("r_{}", interner.resolve(*name)))
                });
                self.fresh(
                    DefKind::Call {
                        callee,
                        args: arg_vars,
                        site,
                    },
                    base,
                )
            }
        }
    }

    fn ensure_ret_vars(&mut self) -> Result<(), LowerError> {
        if self.ret_val.is_some() {
            return Ok(());
        }
        let rv = self.interner.intern("__ret_val");
        let rt = self.interner.intern("__ret_taken");
        let zero = self.constant(0)?;
        self.env.set(rv, zero);
        self.env.set(rt, zero);
        self.ret_val = Some(rv);
        self.ret_taken = Some(rt);
        Ok(())
    }

    /// Lowers `if (cond) { then } else { else }`, merging the names either
    /// arm rebinds with gated `ite`s, in symbol order. Names an arm
    /// introduces (block-local `let`s) disappear here.
    fn lower_if(
        &mut self,
        cond: &Expr,
        then_b: Block<'_>,
        else_b: Block<'_>,
    ) -> Result<BlockOutcome, LowerError> {
        if then_b.contains_return() || else_b.contains_return() {
            self.ensure_ret_vars()?;
        }
        let cv = self.lower_expr(cond)?;
        let mark = self.env.mark();
        let outer_guard = self.guard;

        // Then branch under a fresh Branch vertex.
        let bt = self.fresh(DefKind::Branch { cond: cv }, self.names.if_)?;
        self.guard = Some(bt);
        let t_out = self.lower_stmts(then_b)?;
        let then_start = self.env.roll_back(mark);
        self.guard = outer_guard;

        // Else branch under a Branch vertex on the negated condition.
        let e_out = if else_b.is_empty() {
            BlockOutcome::default()
        } else {
            let zero = self.constant(0)?;
            let ncv = self.fresh(
                DefKind::Binary {
                    op: Op::Eq,
                    lhs: cv,
                    rhs: zero,
                },
                self.names.t,
            )?;
            let bf = self.fresh(DefKind::Branch { cond: ncv }, self.names.else_)?;
            self.guard = Some(bf);
            let e_out = self.lower_stmts(else_b)?;
            self.guard = outer_guard;
            e_out
        };
        let else_start = self.env.roll_back(mark);

        // Merge: walk both arms' sorted writes together; a name bound
        // before the branch gets an ite when the arms leave it different.
        let (mut t, mut e, end) = (then_start, else_start, self.env.written.len());
        loop {
            let written = &self.env.written;
            let head = |at: usize, to: usize| (at < to).then(|| written[at].0);
            let Some(sym) = head(t, else_start).into_iter().chain(head(e, end)).min() else {
                break;
            };
            // The value an arm left `sym` at, consuming its entries.
            let take = |at: &mut usize, to: usize| {
                let mut value = None;
                while *at < to && written[*at].0 == sym {
                    value = Some(written[*at].1);
                    *at += 1;
                }
                value
            };
            let (tv, ev) = (take(&mut t, else_start), take(&mut e, end));
            let Some(before) = self.env.get(sym) else {
                continue;
            };
            let (tv, ev) = (tv.unwrap_or(before), ev.unwrap_or(before));
            if tv != ev {
                let m = self.fresh(
                    DefKind::Ite {
                        cond: cv,
                        then_v: tv,
                        else_v: ev,
                    },
                    sym,
                )?;
                self.env.set(sym, m);
            } else if tv != before {
                self.env.set(sym, tv);
            }
        }
        self.env.written.truncate(then_start);

        Ok(BlockOutcome {
            definitely_returned: t_out.definitely_returned
                && e_out.definitely_returned
                && !else_b.is_empty(),
            may_return: t_out.may_return || e_out.may_return,
        })
    }

    /// Lowers `iterations` unrolled iterations of a `while` loop: an `if`
    /// on its condition around the body and the remaining iterations.
    fn lower_loop(&mut self, l: Loop<'_>) -> Result<BlockOutcome, LowerError> {
        let rest = (l.iterations > 1).then_some(Loop {
            iterations: l.iterations - 1,
            ..l
        });
        let body = Block {
            stmts: l.body,
            then_loop: rest,
        };
        self.lower_if(l.cond, body, Block::new(&[]))
    }

    fn lower_stmts(&mut self, block: Block<'_>) -> Result<BlockOutcome, LowerError> {
        let mut outcome = BlockOutcome::default();
        for (idx, stmt) in block.stmts.iter().enumerate() {
            let rest = block.tail(idx + 1);
            let sub = match stmt {
                Stmt::Let(sym, e) | Stmt::Assign(sym, e) => {
                    if matches!(stmt, Stmt::Assign(_, _)) && self.env.get(*sym).is_none() {
                        let name = self.interner.resolve(*sym).to_owned();
                        return Err(self.err(format!("assignment to undeclared variable `{name}`")));
                    }
                    let v = self.lower_expr(e)?;
                    self.env.set(*sym, v);
                    continue;
                }
                Stmt::Expr(e) => {
                    self.lower_expr(e)?;
                    continue;
                }
                Stmt::Return(e) => {
                    let v = self.lower_expr(e)?;
                    self.ensure_ret_vars()?;
                    let one = self.constant(1)?;
                    let (rv, rt) = (self.ret_val.unwrap(), self.ret_taken.unwrap());
                    self.env.set(rv, v);
                    self.env.set(rt, one);
                    outcome.definitely_returned = true;
                    outcome.may_return = true;
                    // Everything after an unconditional return is dead.
                    return Ok(outcome);
                }
                Stmt::While(_, _) if self.loop_unroll == 0 => continue,
                Stmt::While(cond, body) => self.lower_loop(Loop {
                    cond,
                    body,
                    iterations: self.loop_unroll,
                })?,
                Stmt::If(cond, then_b, else_b) => {
                    self.lower_if(cond, Block::new(then_b), Block::new(else_b))?
                }
            };
            outcome.may_return |= sub.may_return;
            if sub.definitely_returned {
                outcome.definitely_returned = true;
                return Ok(outcome);
            }
            if sub.may_return && !rest.is_empty() {
                // The remainder of this list executes only when the
                // branch did not return: guard it on `__ret_taken == 0`
                // and merge.
                let rest = self.lower_guarded_rest(rest)?;
                outcome.definitely_returned = rest.definitely_returned;
                outcome.may_return |= rest.may_return;
                return Ok(outcome);
            }
        }
        if let Some(l) = block.then_loop {
            // The next iteration's `if` has no else arm, so it never
            // definitely returns, and nothing follows it.
            outcome.may_return |= self.lower_loop(l)?.may_return;
        }
        Ok(outcome)
    }

    /// Lowers the tail of a statement list under the guard
    /// `__ret_taken == 0`, merging its effects back.
    fn lower_guarded_rest(&mut self, rest: Block<'_>) -> Result<BlockOutcome, LowerError> {
        let rt_sym = self.ret_taken.expect("ret vars materialized");
        let rt = self.env.get(rt_sym).expect("ret vars are bound");
        let zero = self.constant(0)?;
        let cont = self.fresh(
            DefKind::Binary {
                op: Op::Eq,
                lhs: rt,
                rhs: zero,
            },
            self.names.not_returned,
        )?;
        let mark = self.env.mark();
        let outer_guard = self.guard;
        let bc = self.fresh(DefKind::Branch { cond: cont }, self.names.cont)?;
        self.guard = Some(bc);
        let out = self.lower_stmts(rest)?;
        let start = self.env.roll_back(mark);
        self.guard = outer_guard;
        for i in start..self.env.written.len() {
            let (sym, after) = self.env.written[i];
            if i > start && self.env.written[i - 1].0 == sym {
                continue; // written twice: merged already
            }
            let Some(before) = self.env.get(sym) else {
                continue;
            };
            if after != before {
                let m = self.fresh(
                    DefKind::Ite {
                        cond: cont,
                        then_v: after,
                        else_v: before,
                    },
                    sym,
                )?;
                self.env.set(sym, m);
            }
        }
        self.env.written.truncate(start);
        // The rest executes only when the branch above did not return, so
        // "definitely returns" holds overall iff the rest always returns.
        Ok(out)
    }

    /// Lowers one function body after its parameters, ending in its single
    /// [`DefKind::Return`], and leaves the lowerer ready for the next.
    fn lower_body(&mut self, body: &[Stmt]) -> Result<(Vec<Def>, VarId), LowerError> {
        let outcome = self.lower_stmts(Block::new(body))?;
        let ret_src = match (self.ret_val, outcome.may_return) {
            (Some(rv), _) => self.env.get(rv).expect("ret vars are bound"),
            (None, _) => self.constant(0)?, // fell off the end: return 0
        };
        debug_assert!(self.guard.is_none());
        let ret = self.fresh(DefKind::Return { src: ret_src }, self.names.ret)?;
        self.reset();
        Ok((self.defs.drain(..).collect(), ret))
    }

    /// Clears the per-function state, keeping the buffers.
    fn reset(&mut self) {
        self.env.clear();
        self.const_cache.clear();
        self.ret_val = None;
        self.ret_taken = None;
    }
}

fn contains_return(stmts: &[Stmt]) -> bool {
    let mut found = false;
    ast::walk_stmts(stmts, &mut |s| {
        if matches!(s, Stmt::Return(_)) {
            found = true;
        }
    });
    found
}

/// Lowers a surface program to the core SSA program.
///
/// The caller is expected to have already unrolled recursion (see
/// [`crate::callgraph::unroll_recursion`]); lowering itself does not require
/// it, but the downstream analyses assume an acyclic call graph.
///
/// # Errors
///
/// Returns [`LowerError`] for unknown variables or functions, arity
/// mismatches, duplicate function names, and a function that would hold
/// more than [`MAX_FUNCTION_DEFS`] definitions.
pub fn lower(
    surface: &ast::Program,
    interner: &mut Interner,
    options: LowerOptions,
) -> Result<Program, LowerError> {
    let mut func_ids = HashMap::new();
    let mut arities = Vec::new();
    for (i, f) in surface.functions.iter().enumerate() {
        if func_ids.insert(f.name, FuncId(i as u32)).is_some() {
            let name = interner.resolve(f.name).to_owned();
            return Err(LowerError {
                function: None,
                message: format!("duplicate function `{name}`"),
            });
        }
        arities.push(f.params.len());
    }

    let names = DefNames::new(interner, surface.functions.len());
    let mut lw = FuncLowerer {
        defs: Vec::new(),
        env: Env::default(),
        guard: None,
        interner,
        names,
        func_ids: &func_ids,
        func_arities: &arities,
        call_sites: Vec::new(),
        func_id: FuncId(0),
        func_name: None,
        const_cache: HashMap::new(),
        ret_val: None,
        ret_taken: None,
        loop_unroll: options.loop_unroll,
    };
    let mut functions = Vec::with_capacity(surface.functions.len());
    for (i, sf) in surface.functions.iter().enumerate() {
        let id = FuncId(i as u32);
        if sf.is_extern {
            functions.push(Function {
                name: sf.name,
                id,
                params: Vec::new(),
                defs: Vec::new(),
                ret: None,
                is_extern: true,
            });
            continue;
        }
        lw.func_id = id;
        lw.func_name = Some(sf.name);
        // Parameters: `v = ⟨v⟩` identity statements.
        let mut params = Vec::with_capacity(sf.params.len());
        for (pi, &p) in sf.params.iter().enumerate() {
            let var = VarId(lw.defs.len() as u32);
            lw.defs.push(Def {
                var,
                kind: DefKind::Param { index: pi },
                guard: None,
                name: p,
            });
            if lw.env.set(p, var).is_some() {
                let pname = lw.interner.resolve(p).to_owned();
                return Err(lw.err(format!("duplicate parameter `{pname}`")));
            }
            params.push(var);
        }
        let (defs, ret) = lw.lower_body(&sf.body)?;
        functions.push(Function {
            name: sf.name,
            id,
            params,
            defs,
            ret: Some(ret),
            is_extern: false,
        });
    }

    Ok(Program {
        functions,
        call_sites: lw.call_sites,
        interner: lw.interner.clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn lower_src(src: &str) -> Program {
        let mut i = Interner::new();
        let surface = parse(src, &mut i).expect("parse");
        lower(&surface, &mut i, LowerOptions::default()).expect("lower")
    }

    #[test]
    fn straight_line_function() {
        let p = lower_src("fn bar(x) { let y = x * 2; let z = y; return z; }");
        let f = p.func_by_name("bar").unwrap();
        assert!(!f.is_extern);
        assert_eq!(f.params.len(), 1);
        let ret = f.def(f.ret.unwrap());
        match &ret.kind {
            DefKind::Return { src } => {
                // z = y = x * 2 chain: the returned variable is defined by a
                // copy-free chain ending in the multiply.
                let mut v = *src;
                loop {
                    match &f.def(v).kind {
                        DefKind::Copy { src } => v = *src,
                        DefKind::Binary { op: Op::Mul, .. } => break,
                        other => panic!("unexpected def {other:?}"),
                    }
                }
            }
            other => panic!("not a return: {other:?}"),
        }
    }

    #[test]
    fn early_return_becomes_gated_single_exit() {
        let p = lower_src("fn f(a) { if (a > 0) { return 1; } return 2; }");
        let f = p.func_by_name("f").unwrap();
        // Exactly one Return definition, and it is the last one.
        let returns: Vec<_> = f
            .defs
            .iter()
            .filter(|d| matches!(d.kind, DefKind::Return { .. }))
            .collect();
        assert_eq!(returns.len(), 1);
        assert_eq!(returns[0].var, f.ret.unwrap());
        assert_eq!(returns[0].var.index(), f.defs.len() - 1);
        // The returned value must be an ite selecting between 1 and 2.
        let DefKind::Return { src } = f.def(f.ret.unwrap()).kind else {
            unreachable!()
        };
        let mut saw_ite = false;
        let mut stack = vec![src];
        while let Some(v) = stack.pop() {
            if let DefKind::Ite { then_v, else_v, .. } = &f.def(v).kind {
                saw_ite = true;
                stack.push(*then_v);
                stack.push(*else_v);
            }
        }
        assert!(saw_ite);
    }

    #[test]
    fn guards_nest_for_nested_ifs() {
        let p = lower_src("fn f(a, b) { let r = 0; if (a) { if (b) { r = 1; } } return r; }");
        let f = p.func_by_name("f").unwrap();
        // Find the constant-1 def guarded by the inner branch; its guard's
        // guard must be the outer branch.
        let inner_guarded = f
            .defs
            .iter()
            .find(|d| d.guard.is_some() && f.def(d.guard.unwrap()).guard.is_some());
        assert!(
            inner_guarded.is_some(),
            "expected a doubly-nested definition"
        );
        let d = inner_guarded.unwrap();
        let g1 = d.guard.unwrap();
        assert!(matches!(f.def(g1).kind, DefKind::Branch { .. }));
        let g2 = f.def(g1).guard.unwrap();
        assert!(matches!(f.def(g2).kind, DefKind::Branch { .. }));
        assert!(f.def(g2).guard.is_none());
    }

    #[test]
    fn while_is_unrolled() {
        let p = lower_src("fn f(n) { let i = 0; while (i < n) { i = i + 1; } return i; }");
        let f = p.func_by_name("f").unwrap();
        // Two unrollings => two Branch vertices from the loop condition.
        let branches = f
            .defs
            .iter()
            .filter(|d| matches!(d.kind, DefKind::Branch { .. }))
            .count();
        assert_eq!(branches, 2);
        // And two adds.
        let adds = f
            .defs
            .iter()
            .filter(|d| matches!(d.kind, DefKind::Binary { op: Op::Add, .. }))
            .count();
        assert_eq!(adds, 2);
    }

    /// `f(x)`: `pad` one-definition statements, then `levels` nested
    /// `while` loops around one more.
    fn nested_whiles(levels: usize, pad: usize) -> String {
        format!(
            "fn f(x) {{ {}{}x = x + x; {}return x; }}",
            "x = x + x; ".repeat(pad),
            "while (x < 9) { ".repeat(levels),
            "} ".repeat(levels)
        )
    }

    fn lower_with(src: &str, loop_unroll: usize) -> Result<Program, LowerError> {
        let mut i = Interner::new();
        let surface = parse(src, &mut i).expect("parse");
        lower(&surface, &mut i, LowerOptions { loop_unroll })
    }

    #[test]
    fn definitions_per_function_are_bounded() {
        for loop_unroll in [2, 3] {
            // The loops alone are far under the bound; padding first
            // brings the function exactly to it, and one more definition
            // fails inside the unrolled loops.
            let base = lower_with(&nested_whiles(4, 0), loop_unroll).unwrap();
            let pad = MAX_FUNCTION_DEFS - base.functions[0].defs.len();
            let at = lower_with(&nested_whiles(4, pad), loop_unroll).unwrap();
            assert_eq!(at.functions[0].defs.len(), MAX_FUNCTION_DEFS);
            let err = lower_with(&nested_whiles(4, pad + 1), loop_unroll).unwrap_err();
            assert_eq!(err.function.as_deref(), Some("f"));
            assert_eq!(
                err.message,
                format!(
                    "more than {MAX_FUNCTION_DEFS} definitions after unrolling \
                     (nested `while` loops multiply the unroll factor per level)"
                )
            );
        }
        // Nesting alone: the deepest nest under the bound lowers, the next
        // level fails, and 40 levels fail just as fast.
        for (loop_unroll, fits) in [(2, 13), (3, 8)] {
            let defs = |levels| {
                lower_with(&nested_whiles(levels, 0), loop_unroll)
                    .map(|p| p.functions[0].defs.len())
            };
            assert!(defs(fits).unwrap() <= MAX_FUNCTION_DEFS);
            assert!(defs(fits + 1).is_err(), "unroll {loop_unroll}");
            assert!(defs(40).is_err(), "unroll {loop_unroll}");
        }
    }

    #[test]
    fn call_sites_are_distinct() {
        let p = lower_src(
            "fn bar(x) { return x; } fn foo(a, b) { let c = bar(a); let d = bar(b); return c + d; }",
        );
        assert_eq!(p.call_sites.len(), 2);
        assert_ne!(p.call_sites[0].stmt, p.call_sites[1].stmt);
        assert_eq!(p.call_sites[0].callee, p.call_sites[1].callee);
    }

    #[test]
    fn extern_calls_resolve() {
        let p = lower_src("extern fn gets(); fn f() { let x = gets(); return x; }");
        let f = p.func_by_name("f").unwrap();
        let call = f
            .defs
            .iter()
            .find(|d| matches!(d.kind, DefKind::Call { .. }))
            .unwrap();
        let DefKind::Call { callee, .. } = &call.kind else {
            unreachable!()
        };
        assert!(p.func(*callee).is_extern);
    }

    #[test]
    fn null_sources_are_not_deduplicated() {
        let p = lower_src("fn f() { let a = null; let b = null; return a + b; }");
        let f = p.func_by_name("f").unwrap();
        let nulls = f
            .defs
            .iter()
            .filter(|d| matches!(d.kind, DefKind::Const { is_null: true, .. }))
            .count();
        assert_eq!(nulls, 2);
    }

    #[test]
    fn plain_constants_are_deduplicated() {
        let p = lower_src("fn f() { let a = 7; let b = 7; return a + b; }");
        let f = p.func_by_name("f").unwrap();
        let sevens = f
            .defs
            .iter()
            .filter(|d| {
                matches!(
                    d.kind,
                    DefKind::Const {
                        value: 7,
                        is_null: false
                    }
                )
            })
            .count();
        assert_eq!(sevens, 1);
    }

    #[test]
    fn errors_on_undefined_variable() {
        let mut i = Interner::new();
        let s = parse("fn f() { return zz; }", &mut i).unwrap();
        let err = lower(&s, &mut i, LowerOptions::default()).unwrap_err();
        assert!(err.message.contains("zz"));
    }

    #[test]
    fn errors_on_arity_mismatch() {
        let mut i = Interner::new();
        let s = parse("fn g(x) { return x; } fn f() { return g(1, 2); }", &mut i).unwrap();
        let err = lower(&s, &mut i, LowerOptions::default()).unwrap_err();
        assert!(err.message.contains("argument"));
    }

    #[test]
    fn errors_on_duplicate_function() {
        let mut i = Interner::new();
        let s = parse("fn f() { return 0; } fn f() { return 1; }", &mut i).unwrap();
        assert!(lower(&s, &mut i, LowerOptions::default()).is_err());
    }

    #[test]
    fn ssa_operands_precede_uses() {
        let p = lower_src(
            "fn f(a, b) { let r = 0; if (a < b) { r = a; } else { r = b; } \
             while (r < 10) { r = r + a; } return r; }",
        );
        for f in &p.functions {
            for d in &f.defs {
                for o in d.kind.operands() {
                    assert!(o.index() < d.var.index(), "operand after use in {}", d.var);
                }
                if let Some(g) = d.guard {
                    assert!(g.index() < d.var.index());
                    assert!(matches!(f.def(g).kind, DefKind::Branch { .. }));
                }
            }
        }
    }

    #[test]
    fn fall_through_returns_zero() {
        let p = lower_src("fn f(a) { if (a) { return 5; } }");
        let f = p.func_by_name("f").unwrap();
        let DefKind::Return { src } = f.def(f.ret.unwrap()).kind else {
            unreachable!()
        };
        // Returned value: ite(a != 0 path, 5, 0)
        match &f.def(src).kind {
            DefKind::Ite { .. } => {}
            other => panic!("expected ite merge of return value, got {other:?}"),
        }
    }

    #[test]
    fn statements_after_maybe_return_are_guarded() {
        let p = lower_src(
            "extern fn sink(x);\n\
             fn f(a, p) { if (a) { return 0; } sink(p); return 1; }",
        );
        let f = p.func_by_name("f").unwrap();
        let call = f
            .defs
            .iter()
            .find(|d| matches!(d.kind, DefKind::Call { .. }))
            .unwrap();
        // sink(p) must be guarded by the continuation branch.
        let g = call.guard.expect("sink call must be guarded");
        let DefKind::Branch { cond } = f.def(g).kind else {
            panic!("guard not a branch")
        };
        // cond is `__ret_taken == 0`
        match f.def(cond).kind {
            DefKind::Binary { op: Op::Eq, .. } => {}
            ref other => panic!("continuation condition wrong: {other:?}"),
        }
    }
}
