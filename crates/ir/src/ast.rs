//! Surface abstract syntax of the Fig. 4 mini-language.
//!
//! The surface language is a structured, C-like superset of the paper's core
//! language: it has expressions with literals, `if`/`else`, `while` loops and
//! early returns. [`crate::lower`] normalizes it to the paper's loop-free,
//! SSA-form core (gated with `ite`-assignments, single exit).
//!
//! The tree is flat: each [`Function`] holds its own node store.
//! Expression and statement nodes live in two vectors and name their
//! children by `u32` index ([`ExprId`], [`StmtId`]); the statements of a
//! block and the arguments of a call are runs of one index list
//! ([`Block`], [`Args`]). Nothing is boxed, so a function is at most four
//! allocations however large it is, and dropping it frees them without a
//! walk. A [`Builder`] adds nodes bottom up, children before their
//! parent, and copies each finished function out at its exact size; the
//! parser and the workload generator both build through it.

use crate::interner::Symbol;
use std::marker::PhantomData;
use std::ops::Range;

/// Unary operators in surface expressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Logical negation: `!e` is 1 when `e == 0`, else 0.
    Not,
    /// Arithmetic negation modulo 2^32.
    Neg,
    /// Bitwise complement.
    BitNot,
}

/// Binary operators in surface expressions.
///
/// Comparison and logical operators produce 0/1 (C semantics); all values are
/// 32-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division with the SMT-LIB convention `x / 0 = 2^32 - 1`.
    Div,
    /// Unsigned remainder with `x % 0 = x`.
    Rem,
    /// Bitwise and.
    BitAnd,
    /// Bitwise or.
    BitOr,
    /// Bitwise xor.
    BitXor,
    /// Left shift.
    Shl,
    /// Logical (unsigned) right shift.
    Shr,
    /// Signed less-than, produces 0/1.
    Lt,
    /// Signed less-or-equal, produces 0/1.
    Le,
    /// Signed greater-than, produces 0/1.
    Gt,
    /// Signed greater-or-equal, produces 0/1.
    Ge,
    /// Equality, produces 0/1.
    Eq,
    /// Disequality, produces 0/1.
    Ne,
    /// Non-short-circuit logical and: `(a != 0) & (b != 0)`.
    And,
    /// Non-short-circuit logical or: `(a != 0) | (b != 0)`.
    Or,
}

/// An expression node: its index in its function's expression vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExprId(u32);

/// A statement node: its index in its function's statement vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StmtId(u32);

/// A run of a function's index list, read through [`Function::block`] or
/// [`Function::args`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Run<T> {
    start: u32,
    end: u32,
    of: PhantomData<T>,
}

/// The statements of a block, in order.
pub type Block = Run<StmtId>;

/// The arguments of a call, in order.
pub type Args = Run<ExprId>;

impl<T> Run<T> {
    /// The run with no entries.
    pub const EMPTY: Self = Run {
        start: 0,
        end: 0,
        of: PhantomData,
    };

    /// Number of entries.
    pub fn len(self) -> usize {
        (self.end - self.start) as usize
    }

    /// Whether the run has no entries.
    pub fn is_empty(self) -> bool {
        self.start == self.end
    }

    /// The run without its first `k` entries (empty when `k` reaches its
    /// length).
    pub fn skip(self, k: usize) -> Self {
        let start = (self.start as usize + k).min(self.end as usize) as u32;
        Run { start, ..self }
    }

    fn range(self) -> Range<usize> {
        self.start as usize..self.end as usize
    }
}

/// A surface expression node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal, wrapped to 32 bits during lowering.
    Int(i64),
    /// The distinguished null constant (value 0, flagged as a null source).
    Null,
    /// Variable reference.
    Var(Symbol),
    /// Unary operation.
    Unary(UnOp, ExprId),
    /// Binary operation.
    Binary(BinOp, ExprId, ExprId),
    /// Call to a named function; built by [`Builder::call`].
    Call(Symbol, Args),
}

/// A surface statement node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stmt {
    /// `let x = e;` — introduces a block-scoped binding.
    Let(Symbol, ExprId),
    /// `x = e;` — assigns to an existing binding.
    Assign(Symbol, ExprId),
    /// `if (e) { .. } else { .. }` — the `else` block may be empty.
    If(ExprId, Block, Block),
    /// `while (e) { .. }` — unrolled a fixed number of times by lowering.
    While(ExprId, Block),
    /// `return e;`
    Return(ExprId),
    /// Expression evaluated for its effects (e.g. a call to a sink).
    Expr(ExprId),
}

/// A surface function definition or external declaration, with the node
/// store of its body.
///
/// Two functions are equal when their stores are: the same nodes, added
/// in the same order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// The function's name.
    pub name: Symbol,
    /// Parameter names, in order.
    pub params: Vec<Symbol>,
    /// External declarations have no body (`f(v1, v2, ..) = ∅` in Fig. 4).
    pub is_extern: bool,
    body: Block,
    exprs: Vec<Expr>,
    stmts: Vec<Stmt>,
    /// Block bodies (statement indices) and call arguments (expression
    /// indices), each a contiguous run.
    list: Vec<u32>,
}

impl Function {
    /// An external declaration: parameters and no body.
    pub fn external(name: Symbol, params: Vec<Symbol>) -> Function {
        Function {
            name,
            params,
            is_extern: true,
            body: Block::EMPTY,
            exprs: Vec::new(),
            stmts: Vec::new(),
            list: Vec::new(),
        }
    }

    /// The body's top-level statements; empty for an external declaration.
    pub fn body(&self) -> Block {
        self.body
    }

    /// The expression node `e`.
    pub fn expr(&self, e: ExprId) -> Expr {
        self.exprs[e.0 as usize]
    }

    /// The statement node `s`.
    pub fn stmt(&self, s: StmtId) -> Stmt {
        self.stmts[s.0 as usize]
    }

    /// The statements of `block`, in order.
    pub fn block(&self, block: Block) -> impl ExactSizeIterator<Item = StmtId> + '_ {
        self.list[block.range()].iter().map(|&s| StmtId(s))
    }

    /// The arguments of a call, in order.
    pub fn args(&self, args: Args) -> impl ExactSizeIterator<Item = ExprId> + '_ {
        self.list[args.range()].iter().map(|&e| ExprId(e))
    }

    /// Every expression node, each once, children before their parents: a
    /// linear scan of it sees every call without walking the tree.
    pub fn exprs(&self) -> &[Expr] {
        &self.exprs
    }

    /// The callee of every call, to redirect calls in place.
    pub fn callees_mut(&mut self) -> impl Iterator<Item = &mut Symbol> {
        self.exprs.iter_mut().filter_map(|e| match e {
            Expr::Call(callee, _) => Some(callee),
            _ => None,
        })
    }
}

/// A whole surface program: a list of functions.
///
/// The identifier interner is owned separately (see
/// [`crate::parser::parse`]) so programs can be assembled programmatically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Program {
    /// All functions, externs included.
    pub functions: Vec<Function>,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds a function by name.
    pub fn function(&self, name: Symbol) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// Builds function bodies bottom up: every node's children, and every
/// statement a block lists, are added before it. One builder serves any
/// number of functions; its vectors keep their capacity from one function
/// to the next, and [`Builder::finish`] copies each function out at its
/// exact size.
///
/// # Examples
///
/// ```
/// use fusion_ir::ast::{BinOp, Builder, Stmt};
/// use fusion_ir::Interner;
///
/// let mut names = Interner::new();
/// let (f, x) = (names.intern("f"), names.intern("x"));
/// let mut b = Builder::new();
/// let (vx, two) = (b.var(x), b.int(2));
/// let sum = b.bin(BinOp::Add, vx, two);
/// let ret = b.stmt(Stmt::Return(sum));
/// let body = b.block(&[ret]);
/// let func = b.finish(f, vec![x], body);
/// assert_eq!(func.exprs().len(), 3);
/// assert_eq!(func.block(func.body()).len(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Builder {
    exprs: Vec<Expr>,
    stmts: Vec<Stmt>,
    list: Vec<u32>,
}

impl Builder {
    /// An empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an expression node whose children are already in the builder.
    /// A call's arguments go through [`Builder::call`] instead.
    pub fn expr(&mut self, e: Expr) -> ExprId {
        debug_assert!(match e {
            Expr::Unary(_, a) => (a.0 as usize) < self.exprs.len(),
            Expr::Binary(_, a, b) => (a.0.max(b.0) as usize) < self.exprs.len(),
            Expr::Call(_, args) => args.end as usize <= self.list.len(),
            Expr::Int(_) | Expr::Null | Expr::Var(_) => true,
        });
        let id = ExprId(index(self.exprs.len()));
        self.exprs.push(e);
        id
    }

    /// `Expr::Int(v)`.
    pub fn int(&mut self, v: i64) -> ExprId {
        self.expr(Expr::Int(v))
    }

    /// `Expr::Var(v)`.
    pub fn var(&mut self, v: Symbol) -> ExprId {
        self.expr(Expr::Var(v))
    }

    /// `Expr::Binary(op, a, b)`.
    pub fn bin(&mut self, op: BinOp, a: ExprId, b: ExprId) -> ExprId {
        self.expr(Expr::Binary(op, a, b))
    }

    /// A call of `callee` on `args`.
    pub fn call(&mut self, callee: Symbol, args: &[ExprId]) -> ExprId {
        let args = self.run(args.iter().map(|a| a.0));
        self.expr(Expr::Call(callee, args))
    }

    /// Adds a statement node whose expressions and blocks are already in
    /// the builder.
    pub fn stmt(&mut self, s: Stmt) -> StmtId {
        let id = StmtId(index(self.stmts.len()));
        self.stmts.push(s);
        id
    }

    /// A block of `stmts`, in order.
    pub fn block(&mut self, stmts: &[StmtId]) -> Block {
        self.run(stmts.iter().map(|s| s.0))
    }

    /// Appends `ids` to the index list as one run.
    fn run<T>(&mut self, ids: impl Iterator<Item = u32>) -> Run<T> {
        let start = index(self.list.len());
        self.list.extend(ids);
        Run {
            start,
            end: index(self.list.len()),
            of: PhantomData,
        }
    }

    /// The function `name(params) { body }`, holding every node added
    /// since the last `finish`; the builder is left empty for the next.
    pub fn finish(&mut self, name: Symbol, params: Vec<Symbol>, body: Block) -> Function {
        let f = Function {
            name,
            params,
            is_extern: false,
            body,
            exprs: self.exprs.to_vec(),
            stmts: self.stmts.to_vec(),
            list: self.list.to_vec(),
        };
        self.exprs.clear();
        self.stmts.clear();
        self.list.clear();
        f
    }
}

/// `len` as a node index. A function of 2^32 nodes would need tens of
/// gigabytes of nodes first, so running out of indices is a bug.
fn index(len: usize) -> u32 {
    u32::try_from(len).expect("a function holds fewer than 2^32 nodes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::Interner;

    #[test]
    fn blocks_and_arguments_are_runs_of_one_list() {
        let mut i = Interner::new();
        let (f, g, x) = (i.intern("f"), i.intern("g"), i.intern("x"));
        let mut b = Builder::new();
        let vx = b.var(x);
        let one = b.int(1);
        let call = b.call(g, &[vx, one]);
        let neg = b.expr(Expr::Unary(UnOp::Neg, call));
        let then_s = b.stmt(Stmt::Assign(x, neg));
        let then_b = b.block(&[then_s]);
        let else_b = b.block(&[]);
        let cond = b.var(x);
        let branch = b.stmt(Stmt::If(cond, then_b, else_b));
        let ret = b.stmt(Stmt::Return(vx));
        let body = b.block(&[branch, ret]);
        let func = b.finish(f, vec![x], body);

        assert_eq!(func.block(func.body()).collect::<Vec<_>>(), [branch, ret]);
        let Stmt::If(c, t, e) = func.stmt(branch) else {
            panic!("not an if")
        };
        assert_eq!(func.expr(c), Expr::Var(x));
        assert!(e.is_empty() && t.len() == 1);
        let Expr::Call(callee, args) = func.expr(call) else {
            panic!("not a call")
        };
        assert_eq!(callee, g);
        assert_eq!(func.args(args).collect::<Vec<_>>(), [vx, one]);
        assert_eq!(body.skip(1).len(), 1);
        assert!(body.skip(5).is_empty());
        // Every node is stored once, at its exact size.
        assert_eq!(func.exprs().len(), 5);
        assert_eq!(func.stmts.len(), 3);
        assert_eq!(func.exprs.capacity(), 5);
    }

    #[test]
    fn finish_empties_the_builder_for_the_next_function() {
        let mut i = Interner::new();
        let (f, g) = (i.intern("f"), i.intern("g"));
        let mut b = Builder::new();
        let zero = b.int(0);
        let ret = b.stmt(Stmt::Return(zero));
        let body = b.block(&[ret]);
        let first = b.finish(f, Vec::new(), body);
        let zero = b.int(0);
        let ret = b.stmt(Stmt::Return(zero));
        let body = b.block(&[ret]);
        let second = b.finish(g, Vec::new(), body);
        // The second function's nodes start from index 0 again.
        assert_eq!(first, Function { name: f, ..second });
        let ext = Function::external(f, vec![g]);
        assert!(ext.is_extern && ext.body().is_empty() && ext.exprs().is_empty());
    }
}
