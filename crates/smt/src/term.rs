//! Hash-consed term DAG for the bit-vector theory.
//!
//! Every term lives in a [`TermPool`] and is identified by a [`TermId`];
//! structurally equal terms share one node. Constructors perform the
//! *bottom-up* simplifications a production solver applies at term-build
//! time (constant folding, unit laws, involution, commutative
//! normalization) — the heavier, named preprocessing passes of §4 of the
//! paper live in [`crate::preprocess`].
//!
//! The node count of a pool — and the *retained* node count of a formula —
//! is the honest "condition size" metric the paper's complexity arguments
//! are about; see [`TermPool::dag_size`] and [`TermPool::tree_size`].
//!
//! Nodes are `Copy`: the operands of an n-ary `and`/`or` are a run of one
//! argument buffer the pool owns ([`Args`]), so reading a node copies a few
//! words and interning one allocates nothing once the buffers have grown.
//! Every operand is interned before the node that uses it, so an operand's
//! id is always below its parent's. Variables are named by structured keys
//! ([`VarKey`]) whose text is rendered only on demand ([`TermPool::var_name`],
//! [`TermPool::display`]), and the walks and rewrites over the DAG keep
//! their memos in dense, generation-stamped tables ([`crate::dense`]) that
//! the pool reuses from call to call. Only the consing table, the name and
//! key lookups and the context interner hash, with std's keyed
//! [`RandomState`]: their keys carry constants and names from the program
//! text, and a keyed hash keeps a crafted program from piling them into one
//! probe run.

use crate::dense::{IdMap, IdSet, VarMap};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::Range;

/// The sort of a term: boolean or a fixed-width bit vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sort {
    /// Booleans.
    Bool,
    /// Bit vectors of the given width (1..=64).
    Bv(u32),
}

impl fmt::Display for Sort {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Sort::Bool => write!(f, "Bool"),
            Sort::Bv(w) => write!(f, "Bv{w}"),
        }
    }
}

/// Identifies a term within its [`TermPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a variable within its [`TermPool`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarIdx(pub u32);

impl VarIdx {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Binary bit-vector operators (BV × BV → BV, same width).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BvOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// `x / 0 = all-ones` (SMT-LIB).
    Udiv,
    /// `x % 0 = x` (SMT-LIB).
    Urem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (amounts >= width give 0).
    Shl,
    /// Logical right shift (amounts >= width give 0).
    Lshr,
    /// Arithmetic right shift (amounts >= width replicate the sign).
    Ashr,
}

impl BvOp {
    /// Whether argument order is irrelevant.
    pub fn commutative(self) -> bool {
        matches!(
            self,
            BvOp::Add | BvOp::Mul | BvOp::And | BvOp::Or | BvOp::Xor
        )
    }

    /// Concrete evaluation at the given width.
    #[allow(clippy::manual_checked_ops)] // x/0 = all-ones is SMT-LIB semantics
    pub fn eval(self, a: u64, b: u64, width: u32) -> u64 {
        let mask = mask(width);
        let r = match self {
            BvOp::Add => a.wrapping_add(b),
            BvOp::Sub => a.wrapping_sub(b),
            BvOp::Mul => a.wrapping_mul(b),
            BvOp::Udiv => {
                if b == 0 {
                    mask
                } else {
                    a / b
                }
            }
            BvOp::Urem => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
            BvOp::And => a & b,
            BvOp::Or => a | b,
            BvOp::Xor => a ^ b,
            BvOp::Shl => {
                if b >= width as u64 {
                    0
                } else {
                    a << b
                }
            }
            BvOp::Lshr => {
                if b >= width as u64 {
                    0
                } else {
                    a >> b
                }
            }
            BvOp::Ashr => {
                let sign = (a >> (width - 1)) & 1;
                if b >= width as u64 {
                    if sign == 1 {
                        mask
                    } else {
                        0
                    }
                } else if sign == 1 {
                    ((a >> b) | !(mask >> b)) & mask
                } else {
                    a >> b
                }
            }
        };
        r & mask
    }
}

/// Bit-vector predicates (BV × BV → Bool). Equality is separate ([`TermKind::Eq`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BvPred {
    /// Unsigned `<`.
    Ult,
    /// Unsigned `<=`.
    Ule,
    /// Signed `<`.
    Slt,
    /// Signed `<=`.
    Sle,
}

impl BvPred {
    /// Concrete evaluation at the given width.
    pub fn eval(self, a: u64, b: u64, width: u32) -> bool {
        match self {
            BvPred::Ult => a < b,
            BvPred::Ule => a <= b,
            BvPred::Slt => to_signed(a, width) < to_signed(b, width),
            BvPred::Sle => to_signed(a, width) <= to_signed(b, width),
        }
    }
}

/// All-ones mask of the given width.
pub fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Two's-complement reinterpretation.
pub fn to_signed(v: u64, width: u32) -> i64 {
    let m = mask(width);
    let v = v & m;
    if width < 64 && (v >> (width - 1)) & 1 == 1 {
        (v | !m) as i64
    } else {
        v as i64
    }
}

/// The operands of an n-ary node: a run of its pool's argument buffer,
/// read with [`TermPool::args`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Args {
    start: u32,
    len: u32,
}

impl Args {
    /// Number of operands.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether there is no operand (never true of an interned node).
    pub fn is_empty(self) -> bool {
        self.len == 0
    }

    fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// A term node. Obtain instances through [`TermPool`] constructors only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TermKind {
    /// Boolean constant.
    BoolConst(bool),
    /// Bit-vector constant (value is masked to `width`).
    BvConst {
        /// Width in bits.
        width: u32,
        /// Value, `< 2^width`.
        value: u64,
    },
    /// A free variable; metadata lives in the pool.
    Var(VarIdx),
    /// Boolean negation.
    Not(TermId),
    /// N-ary conjunction (flattened, deduplicated, id-sorted).
    And(Args),
    /// N-ary disjunction (flattened, deduplicated, id-sorted).
    Or(Args),
    /// Polymorphic equality (operands id-sorted).
    Eq(TermId, TermId),
    /// Polymorphic if-then-else on a boolean condition.
    Ite {
        /// Condition.
        cond: TermId,
        /// Value when true.
        then_t: TermId,
        /// Value when false.
        else_t: TermId,
    },
    /// Binary bit-vector operation.
    Bv(BvOp, TermId, TermId),
    /// Bit-vector comparison predicate.
    Pred(BvPred, TermId, TermId),
}

/// A concrete value, the result of [`TermPool::eval`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// A boolean.
    Bool(bool),
    /// A bit vector (width implied by the term's sort).
    Bv(u64),
}

impl Value {
    /// Extracts the boolean, panicking on sort confusion.
    ///
    /// # Panics
    ///
    /// Panics if the value is a bit vector.
    pub fn as_bool(self) -> bool {
        match self {
            Value::Bool(b) => b,
            Value::Bv(_) => panic!("expected Bool value"),
        }
    }

    /// Extracts the bit-vector payload, panicking on sort confusion.
    ///
    /// # Panics
    ///
    /// Panics if the value is a boolean.
    pub fn as_bv(self) -> u64 {
        match self {
            Value::Bv(v) => v,
            Value::Bool(_) => panic!("expected Bv value"),
        }
    }
}

/// An interned calling context (call string) of a [`TermPool`]: the empty
/// context [`CtxId::ROOT`], or a parent context extended by one call site
/// ([`TermPool::ctx_push`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CtxId(u32);

impl CtxId {
    /// The empty context.
    pub const ROOT: CtxId = CtxId(0);

    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The structured name of a program-derived variable. Its text is rendered
/// only on demand ([`TermPool::var_name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VarKey {
    /// IR variable `var` of function `func`, cloned under calling context
    /// `ctx`: renders `f{func}@{site}…:v{var}`, one `@{site}` per call
    /// site from the outermost.
    Instance {
        /// The function's id.
        func: u32,
        /// The calling context.
        ctx: CtxId,
        /// The IR variable's id.
        var: u32,
    },
    /// IR variable `var` of function `func` before cloning, in a
    /// per-function condition tagged `tag`: renders `{tag}{func}:v{var}`.
    Local {
        /// One character telling the conditions' owners apart.
        tag: char,
        /// The function's id.
        func: u32,
        /// The IR variable's id.
        var: u32,
    },
}

/// How a variable is named.
#[derive(Debug, Clone)]
enum VarName {
    /// By its text (tests, examples, hand-built formulas).
    Text(Box<str>),
    /// By a structured key.
    Key(VarKey),
    /// A fresh variable: renders `{prefix}!{index}`.
    Fresh(&'static str),
}

#[derive(Debug, Clone)]
struct VarInfo {
    name: VarName,
    sort: Sort,
    /// The variable's `Var` node.
    term: TermId,
}

/// One interned context: its parent and last call site.
#[derive(Debug, Clone, Copy)]
struct CtxNode {
    parent: CtxId,
    site: u32,
    depth: u32,
}

/// Reused buffers of the constructors, walks and rebuilds.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// `and`/`or` operands being flattened.
    flat: Vec<TermId>,
    /// Nodes a walk has visited.
    seen: IdSet<TermId>,
    /// A walk's pending nodes.
    stack: Vec<TermId>,
    /// A rebuild's node → result memo.
    memo: IdMap<TermId, TermId>,
    /// Rebuilt n-ary operands, one run per open node.
    built: Vec<TermId>,
}

/// A bottom-up rewrite run by [`TermPool::rebuild`]: each distinct node is
/// visited once, operands first, and rebuilt through the simplifying
/// constructors. A rewrite may replace a node outright before its operands
/// are visited ([`Rewrite::pre`]) and may rebuild an equality or a
/// bit-vector operation over its rebuilt operands its own way.
pub(crate) trait Rewrite {
    /// A replacement for `t` (of kind `kind`), decided before its operands
    /// are visited.
    fn pre(&mut self, _pool: &mut TermPool, _t: TermId, _kind: TermKind) -> Option<TermId> {
        None
    }

    /// Rebuilds `a = b` over rebuilt operands.
    fn eq(&mut self, pool: &mut TermPool, a: TermId, b: TermId) -> TermId {
        pool.eq(a, b)
    }

    /// Rebuilds `a op b` over rebuilt operands.
    fn bv(&mut self, pool: &mut TermPool, op: BvOp, a: TermId, b: TermId) -> TermId {
        pool.bv(op, a, b)
    }
}

/// [`TermPool::substitute`]'s rewrite: mapped variables are replaced.
struct Subst<'m>(&'m VarMap);

impl Rewrite for Subst<'_> {
    fn pre(&mut self, _pool: &mut TermPool, _t: TermId, kind: TermKind) -> Option<TermId> {
        match kind {
            TermKind::Var(v) => self.0.get(v),
            _ => None,
        }
    }
}

/// The hash-consing arena for terms.
#[derive(Debug, Clone)]
pub struct TermPool {
    kinds: Vec<TermKind>,
    sorts: Vec<Sort>,
    /// The operands of every n-ary node, each node's a contiguous run.
    args: Vec<TermId>,
    /// Open-addressed consing slots: `TermId + 1`, or 0 when empty. The
    /// length is zero or a power of two, at least twice the node count.
    consing: Vec<u32>,
    /// Keyed hasher of the consing table.
    hasher: RandomState,
    vars: Vec<VarInfo>,
    var_by_name: HashMap<Box<str>, VarIdx>,
    var_by_key: HashMap<VarKey, VarIdx>,
    /// Interned contexts; `ctxs[0]` is the root.
    ctxs: Vec<CtxNode>,
    ctx_by_edge: HashMap<(CtxId, u32), CtxId>,
    scratch: Scratch,
    /// The preprocessing passes' reused tables.
    pub(crate) passes: crate::preprocess::PassTables,
}

impl Default for TermPool {
    fn default() -> Self {
        TermPool {
            kinds: Vec::new(),
            sorts: Vec::new(),
            args: Vec::new(),
            consing: Vec::new(),
            hasher: RandomState::new(),
            vars: Vec::new(),
            var_by_name: HashMap::new(),
            var_by_key: HashMap::new(),
            ctxs: vec![CtxNode {
                parent: CtxId::ROOT,
                site: 0,
                depth: 0,
            }],
            ctx_by_edge: HashMap::new(),
            scratch: Scratch::default(),
            passes: Default::default(),
        }
    }
}

impl TermPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct term nodes allocated so far.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Whether the pool holds no terms.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Number of variables declared so far.
    pub fn var_count(&self) -> usize {
        self.vars.len()
    }

    /// The node of a term.
    pub fn kind(&self, t: TermId) -> &TermKind {
        &self.kinds[t.index()]
    }

    /// The operands of an n-ary node.
    pub fn args(&self, a: Args) -> &[TermId] {
        &self.args[a.range()]
    }

    /// The sort of a term.
    pub fn sort(&self, t: TermId) -> Sort {
        self.sorts[t.index()]
    }

    /// A variable's name, rendered.
    pub fn var_name(&self, v: VarIdx) -> String {
        match &self.vars[v.index()].name {
            VarName::Text(s) => s.to_string(),
            VarName::Fresh(prefix) => format!("{prefix}!{}", v.0),
            VarName::Key(VarKey::Local { tag, func, var }) => format!("{tag}{func}:v{var}"),
            VarName::Key(VarKey::Instance { func, ctx, var }) => {
                let mut sites = Vec::new();
                let mut c = *ctx;
                while let Some((parent, site)) = self.ctx_pop(c) {
                    sites.push(site);
                    c = parent;
                }
                let mut name = format!("f{func}");
                for s in sites.iter().rev() {
                    name.push_str(&format!("@{s}"));
                }
                name.push_str(&format!(":v{var}"));
                name
            }
        }
    }

    /// A variable's structured key, when it has one.
    pub fn var_key(&self, v: VarIdx) -> Option<VarKey> {
        match self.vars[v.index()].name {
            VarName::Key(k) => Some(k),
            _ => None,
        }
    }

    /// A variable's sort.
    pub fn var_sort(&self, v: VarIdx) -> Sort {
        self.vars[v.index()].sort
    }

    /// A variable's `Var` node.
    pub fn var_term(&self, v: VarIdx) -> TermId {
        self.vars[v.index()].term
    }

    /// The context `ctx` extended by call site `site`.
    pub fn ctx_push(&mut self, ctx: CtxId, site: u32) -> CtxId {
        if let Some(&c) = self.ctx_by_edge.get(&(ctx, site)) {
            return c;
        }
        let c = CtxId(self.ctxs.len() as u32);
        let depth = self.ctxs[ctx.index()].depth + 1;
        self.ctxs.push(CtxNode {
            parent: ctx,
            site,
            depth,
        });
        self.ctx_by_edge.insert((ctx, site), c);
        c
    }

    /// A context's parent and last call site; `None` for the root.
    pub fn ctx_pop(&self, ctx: CtxId) -> Option<(CtxId, u32)> {
        if ctx == CtxId::ROOT {
            return None;
        }
        let n = self.ctxs[ctx.index()];
        Some((n.parent, n.site))
    }

    /// Number of call sites in a context.
    pub fn ctx_depth(&self, ctx: CtxId) -> usize {
        self.ctxs[ctx.index()].depth as usize
    }

    /// The keyed hash of a node: its variant and fields, or for an n-ary
    /// node its variant and operands.
    fn node_hash(&self, kind: &TermKind, args: &[TermId]) -> u64 {
        let mut h = self.hasher.build_hasher();
        std::mem::discriminant(kind).hash(&mut h);
        match kind {
            TermKind::And(_) | TermKind::Or(_) => args.hash(&mut h),
            _ => kind.hash(&mut h),
        }
        h.finish()
    }

    /// Whether node `t` is (`kind`, `args`).
    fn node_is(&self, t: TermId, kind: &TermKind, args: &[TermId]) -> bool {
        match (self.kinds[t.index()], kind) {
            (TermKind::And(a), TermKind::And(_)) | (TermKind::Or(a), TermKind::Or(_)) => {
                self.args(a) == args
            }
            (k, kind) => k == *kind,
        }
    }

    /// Interns a node. For `And`/`Or`, `kind`'s operand run is ignored and
    /// `args` are the operands; for every other kind `args` is empty.
    fn intern_node(&mut self, kind: TermKind, args: &[TermId], sort: Sort) -> TermId {
        if self.consing.is_empty() {
            self.consing = vec![0; 16];
        }
        let mask = self.consing.len() - 1;
        let mut i = self.node_hash(&kind, args) as usize & mask;
        loop {
            match self.consing[i] {
                0 => break,
                s => {
                    let t = TermId(s - 1);
                    if self.node_is(t, &kind, args) {
                        return t;
                    }
                }
            }
            i = (i + 1) & mask;
        }
        let t = TermId(self.kinds.len() as u32);
        let kind = match kind {
            TermKind::And(_) => TermKind::And(self.push_args(args)),
            TermKind::Or(_) => TermKind::Or(self.push_args(args)),
            k => k,
        };
        self.kinds.push(kind);
        self.sorts.push(sort);
        self.consing[i] = t.0 + 1;
        if self.kinds.len() * 2 > self.consing.len() {
            self.grow_consing();
        }
        t
    }

    fn push_args(&mut self, args: &[TermId]) -> Args {
        let start = self.args.len() as u32;
        self.args.extend_from_slice(args);
        Args {
            start,
            len: args.len() as u32,
        }
    }

    /// Doubles the consing slots and re-inserts every node.
    fn grow_consing(&mut self) {
        let mut slots = std::mem::take(&mut self.consing);
        let len = slots.len() * 2;
        slots.clear();
        slots.resize(len, 0);
        let mask = len - 1;
        for (t, kind) in self.kinds.iter().enumerate() {
            let args = match kind {
                TermKind::And(a) | TermKind::Or(a) => self.args(*a),
                _ => &[],
            };
            let mut i = self.node_hash(kind, args) as usize & mask;
            while slots[i] != 0 {
                i = (i + 1) & mask;
            }
            slots[i] = t as u32 + 1;
        }
        self.consing = slots;
    }

    fn intern(&mut self, kind: TermKind, sort: Sort) -> TermId {
        self.intern_node(kind, &[], sort)
    }

    /// The `true` constant.
    pub fn tt(&mut self) -> TermId {
        self.intern(TermKind::BoolConst(true), Sort::Bool)
    }

    /// The `false` constant.
    pub fn ff(&mut self) -> TermId {
        self.intern(TermKind::BoolConst(false), Sort::Bool)
    }

    /// A boolean constant.
    pub fn bool_const(&mut self, b: bool) -> TermId {
        if b {
            self.tt()
        } else {
            self.ff()
        }
    }

    /// A bit-vector constant, masked to `width`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn bv_const(&mut self, value: u64, width: u32) -> TermId {
        assert!((1..=64).contains(&width), "unsupported width {width}");
        let value = value & mask(width);
        self.intern(TermKind::BvConst { width, value }, Sort::Bv(width))
    }

    fn declare(&mut self, name: VarName, sort: Sort) -> VarIdx {
        let v = VarIdx(self.vars.len() as u32);
        let term = self.intern(TermKind::Var(v), sort);
        self.vars.push(VarInfo { name, sort, term });
        v
    }

    /// The node of an existing variable, checked against `sort`.
    fn redeclared(&self, v: VarIdx, sort: Sort) -> TermId {
        let info = &self.vars[v.index()];
        assert_eq!(
            info.sort,
            sort,
            "variable `{}` redeclared",
            self.var_name(v)
        );
        info.term
    }

    /// Declares (or retrieves) the variable `name` of sort `sort`.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already declared with a different sort.
    pub fn var(&mut self, name: &str, sort: Sort) -> TermId {
        if let Some(&v) = self.var_by_name.get(name) {
            return self.redeclared(v, sort);
        }
        let v = self.declare(VarName::Text(name.into()), sort);
        self.var_by_name.insert(name.into(), v);
        self.var_term(v)
    }

    /// Declares (or retrieves) the variable named by `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` was already declared with a different sort.
    pub fn keyed_var(&mut self, key: VarKey, sort: Sort) -> TermId {
        if let Some(&v) = self.var_by_key.get(&key) {
            return self.redeclared(v, sort);
        }
        let v = self.declare(VarName::Key(key), sort);
        self.var_by_key.insert(key, v);
        self.var_term(v)
    }

    /// Declares a fresh variable, named `{prefix}!{index}` where `index` is
    /// its [`VarIdx`]. No other variable is ever equal to it.
    pub fn fresh_var(&mut self, prefix: &'static str, sort: Sort) -> TermId {
        let v = self.declare(VarName::Fresh(prefix), sort);
        self.var_term(v)
    }

    /// Returns the constant boolean value of `t` if it is one.
    pub fn as_bool_const(&self, t: TermId) -> Option<bool> {
        match self.kind(t) {
            TermKind::BoolConst(b) => Some(*b),
            _ => None,
        }
    }

    /// Returns the constant bit-vector value of `t` if it is one.
    pub fn as_bv_const(&self, t: TermId) -> Option<u64> {
        match self.kind(t) {
            TermKind::BvConst { value, .. } => Some(*value),
            _ => None,
        }
    }

    /// The bit width of a BV-sorted term.
    ///
    /// # Panics
    ///
    /// Panics if `t` is boolean.
    pub fn width(&self, t: TermId) -> u32 {
        match self.sort(t) {
            Sort::Bv(w) => w,
            Sort::Bool => panic!("expected a bit-vector term"),
        }
    }

    /// Boolean negation with involution and constant folding.
    ///
    /// # Panics
    ///
    /// Panics if `t` is not boolean.
    pub fn not(&mut self, t: TermId) -> TermId {
        assert_eq!(self.sort(t), Sort::Bool, "not: operand must be Bool");
        match *self.kind(t) {
            TermKind::BoolConst(b) => self.bool_const(!b),
            TermKind::Not(inner) => inner,
            _ => self.intern(TermKind::Not(t), Sort::Bool),
        }
    }

    /// N-ary conjunction: flattens, folds constants, deduplicates, detects
    /// `x ∧ ¬x`, and normalizes argument order.
    ///
    /// # Panics
    ///
    /// Panics if any operand is not boolean.
    pub fn and(&mut self, ts: &[TermId]) -> TermId {
        self.nary(true, ts)
    }

    /// Binary conjunction convenience.
    pub fn and2(&mut self, a: TermId, b: TermId) -> TermId {
        self.and(&[a, b])
    }

    /// N-ary disjunction, dual to [`TermPool::and`].
    ///
    /// # Panics
    ///
    /// Panics if any operand is not boolean.
    pub fn or(&mut self, ts: &[TermId]) -> TermId {
        self.nary(false, ts)
    }

    /// Binary disjunction convenience.
    pub fn or2(&mut self, a: TermId, b: TermId) -> TermId {
        self.or(&[a, b])
    }

    /// [`TermPool::and`] (`is_and`) or [`TermPool::or`], flattening into the
    /// pool's reused operand buffer.
    fn nary(&mut self, is_and: bool, ts: &[TermId]) -> TermId {
        let mut flat = std::mem::take(&mut self.scratch.flat);
        flat.clear();
        let r = self.nary_in(is_and, ts, &mut flat);
        self.scratch.flat = flat;
        r
    }

    fn nary_in(&mut self, is_and: bool, ts: &[TermId], flat: &mut Vec<TermId>) -> TermId {
        // `unit` vanishes from the operands and `zero` absorbs them.
        let (unit, name) = if is_and { (true, "and") } else { (false, "or") };
        for &t in ts {
            assert_eq!(self.sort(t), Sort::Bool, "{name}: operand must be Bool");
            match *self.kind(t) {
                TermKind::BoolConst(b) if b == unit => {}
                TermKind::BoolConst(_) => return self.bool_const(!unit),
                TermKind::And(inner) if is_and => flat.extend_from_slice(self.args(inner)),
                TermKind::Or(inner) if !is_and => flat.extend_from_slice(self.args(inner)),
                _ => flat.push(t),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        // x ∧ ¬x → false, x ∨ ¬x → true
        for &t in flat.iter() {
            if let TermKind::Not(inner) = *self.kind(t) {
                if flat.binary_search(&inner).is_ok() {
                    return self.bool_const(!unit);
                }
            }
        }
        match flat.len() {
            0 => self.bool_const(unit),
            1 => flat[0],
            _ => {
                let placeholder = Args { start: 0, len: 0 };
                let kind = if is_and {
                    TermKind::And(placeholder)
                } else {
                    TermKind::Or(placeholder)
                };
                self.intern_node(kind, flat, Sort::Bool)
            }
        }
    }

    /// Implication `a → b`, encoded as `¬a ∨ b`.
    pub fn implies(&mut self, a: TermId, b: TermId) -> TermId {
        let na = self.not(a);
        self.or2(na, b)
    }

    /// Polymorphic equality with folding and order normalization.
    ///
    /// # Panics
    ///
    /// Panics if the operands' sorts differ.
    pub fn eq(&mut self, a: TermId, b: TermId) -> TermId {
        assert_eq!(self.sort(a), self.sort(b), "eq: sort mismatch");
        if a == b {
            return self.tt();
        }
        match (*self.kind(a), *self.kind(b)) {
            (TermKind::BoolConst(x), TermKind::BoolConst(y)) => return self.bool_const(x == y),
            (TermKind::BvConst { value: x, .. }, TermKind::BvConst { value: y, .. }) => {
                return self.bool_const(x == y)
            }
            // eq(x, true) → x; eq(x, false) → ¬x
            (TermKind::BoolConst(true), _) => return b,
            (_, TermKind::BoolConst(true)) => return a,
            (TermKind::BoolConst(false), _) => return self.not(b),
            (_, TermKind::BoolConst(false)) => return self.not(a),
            // eq(ite(c, k1, k2), k) with constant arms: select on c. This
            // unblocks unconstrained propagation through the 0/1-encoded
            // predicates of the IR translation.
            (
                TermKind::Ite {
                    cond,
                    then_t,
                    else_t,
                },
                TermKind::BvConst { value: k, .. },
            )
            | (
                TermKind::BvConst { value: k, .. },
                TermKind::Ite {
                    cond,
                    then_t,
                    else_t,
                },
            ) => {
                if let (Some(k1), Some(k2)) = (self.as_bv_const(then_t), self.as_bv_const(else_t)) {
                    if k1 != k2 {
                        if k == k1 {
                            return cond;
                        }
                        if k == k2 {
                            return self.not(cond);
                        }
                        return self.ff();
                    }
                }
            }
            _ => {}
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        self.intern(TermKind::Eq(a, b), Sort::Bool)
    }

    /// Disequality.
    pub fn ne(&mut self, a: TermId, b: TermId) -> TermId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Polymorphic if-then-else.
    ///
    /// # Panics
    ///
    /// Panics if `cond` is not boolean or the branches' sorts differ.
    pub fn ite(&mut self, cond: TermId, then_t: TermId, else_t: TermId) -> TermId {
        assert_eq!(self.sort(cond), Sort::Bool, "ite: condition must be Bool");
        assert_eq!(
            self.sort(then_t),
            self.sort(else_t),
            "ite: branch sort mismatch"
        );
        if then_t == else_t {
            return then_t;
        }
        match *self.kind(cond) {
            TermKind::BoolConst(true) => return then_t,
            TermKind::BoolConst(false) => return else_t,
            TermKind::Not(inner) => return self.ite(inner, else_t, then_t),
            _ => {}
        }
        if self.sort(then_t) == Sort::Bool {
            // Boolean ite: fold into and/or for simpler downstream handling.
            let nt = self.not(cond);
            let l = self.and2(cond, then_t);
            let r = self.and2(nt, else_t);
            return self.or2(l, r);
        }
        let sort = self.sort(then_t);
        self.intern(
            TermKind::Ite {
                cond,
                then_t,
                else_t,
            },
            sort,
        )
    }

    /// Binary bit-vector operation with constant folding, unit/zero laws
    /// and commutative normalization.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not bit vectors of the same width.
    pub fn bv(&mut self, op: BvOp, a: TermId, b: TermId) -> TermId {
        let (Sort::Bv(wa), Sort::Bv(wb)) = (self.sort(a), self.sort(b)) else {
            panic!("bv {op:?}: operands must be bit vectors");
        };
        assert_eq!(wa, wb, "bv {op:?}: width mismatch");
        let w = wa;
        let ca = self.as_bv_const(a);
        let cb = self.as_bv_const(b);
        if let (Some(x), Some(y)) = (ca, cb) {
            return self.bv_const(op.eval(x, y, w), w);
        }
        // Unit and absorbing elements.
        match op {
            BvOp::Add | BvOp::Or | BvOp::Xor => {
                if ca == Some(0) {
                    return b;
                }
                if cb == Some(0) {
                    return a;
                }
            }
            BvOp::Sub | BvOp::Shl | BvOp::Lshr | BvOp::Ashr => {
                if cb == Some(0) {
                    return a;
                }
            }
            BvOp::Mul => {
                if ca == Some(0) || cb == Some(0) {
                    return self.bv_const(0, w);
                }
                if ca == Some(1) {
                    return b;
                }
                if cb == Some(1) {
                    return a;
                }
            }
            BvOp::And => {
                if ca == Some(0) || cb == Some(0) {
                    return self.bv_const(0, w);
                }
                if ca == Some(mask(w)) {
                    return b;
                }
                if cb == Some(mask(w)) {
                    return a;
                }
            }
            BvOp::Udiv => {
                if cb == Some(1) {
                    return a;
                }
                if cb == Some(0) {
                    return self.bv_const(mask(w), w); // x / 0 = all-ones
                }
            }
            BvOp::Urem => {
                if cb == Some(1) {
                    return self.bv_const(0, w);
                }
                if cb == Some(0) {
                    return a; // x % 0 = x
                }
            }
        }
        // Shifts by a constant amount >= width collapse.
        if let Some(k) = cb {
            if k >= w as u64 {
                match op {
                    BvOp::Shl | BvOp::Lshr => return self.bv_const(0, w),
                    BvOp::Ashr => {
                        // Sign replication == shifting by width - 1.
                        let max_sh = self.bv_const((w - 1) as u64, w);
                        return self.bv(BvOp::Ashr, a, max_sh);
                    }
                    _ => {}
                }
            }
        }
        // x - x = 0, x ^ x = 0, x & x = x, x | x = x
        if a == b {
            match op {
                BvOp::Sub | BvOp::Xor => return self.bv_const(0, w),
                BvOp::And | BvOp::Or => return a,
                _ => {}
            }
        }
        let (a, b) = if op.commutative() && b < a {
            (b, a)
        } else {
            (a, b)
        };
        self.intern(TermKind::Bv(op, a, b), Sort::Bv(w))
    }

    /// Bit-vector comparison with constant folding and reflexivity laws.
    ///
    /// # Panics
    ///
    /// Panics if the operands are not bit vectors of the same width.
    pub fn pred(&mut self, p: BvPred, a: TermId, b: TermId) -> TermId {
        let (Sort::Bv(wa), Sort::Bv(wb)) = (self.sort(a), self.sort(b)) else {
            panic!("pred {p:?}: operands must be bit vectors");
        };
        assert_eq!(wa, wb, "pred {p:?}: width mismatch");
        if let (Some(x), Some(y)) = (self.as_bv_const(a), self.as_bv_const(b)) {
            return self.bool_const(p.eval(x, y, wa));
        }
        if a == b {
            return self.bool_const(matches!(p, BvPred::Ule | BvPred::Sle));
        }
        self.intern(TermKind::Pred(p, a, b), Sort::Bool)
    }

    /// Evaluates `t` under an assignment of values to variables. Variables
    /// missing from `env` default to 0/false.
    pub fn eval(&self, t: TermId, env: &HashMap<VarIdx, u64>) -> Value {
        self.eval_with(t, &|v| env.get(&v).copied())
    }

    /// [`TermPool::eval`] with the assignment given as a lookup.
    pub fn eval_with(&self, t: TermId, env: &dyn Fn(VarIdx) -> Option<u64>) -> Value {
        // Operands have lower ids than their parents.
        let mut memo: Vec<Option<Value>> = vec![None; t.index() + 1];
        self.eval_memo(t, env, &mut memo)
    }

    fn eval_memo(
        &self,
        t: TermId,
        env: &dyn Fn(VarIdx) -> Option<u64>,
        memo: &mut [Option<Value>],
    ) -> Value {
        if let Some(v) = memo[t.index()] {
            return v;
        }
        let v = match *self.kind(t) {
            TermKind::BoolConst(b) => Value::Bool(b),
            TermKind::BvConst { value, .. } => Value::Bv(value),
            TermKind::Var(v) => {
                let raw = env(v).unwrap_or(0);
                match self.var_sort(v) {
                    Sort::Bool => Value::Bool(raw != 0),
                    Sort::Bv(w) => Value::Bv(raw & mask(w)),
                }
            }
            TermKind::Not(x) => Value::Bool(!self.eval_memo(x, env, memo).as_bool()),
            TermKind::And(xs) => Value::Bool(
                self.args(xs)
                    .iter()
                    .all(|&x| self.eval_memo(x, env, memo).as_bool()),
            ),
            TermKind::Or(xs) => Value::Bool(
                self.args(xs)
                    .iter()
                    .any(|&x| self.eval_memo(x, env, memo).as_bool()),
            ),
            TermKind::Eq(a, b) => {
                let va = self.eval_memo(a, env, memo);
                let vb = self.eval_memo(b, env, memo);
                Value::Bool(va == vb)
            }
            TermKind::Ite {
                cond,
                then_t,
                else_t,
            } => {
                if self.eval_memo(cond, env, memo).as_bool() {
                    self.eval_memo(then_t, env, memo)
                } else {
                    self.eval_memo(else_t, env, memo)
                }
            }
            TermKind::Bv(op, a, b) => {
                let w = self.width(t);
                let va = self.eval_memo(a, env, memo).as_bv();
                let vb = self.eval_memo(b, env, memo).as_bv();
                Value::Bv(op.eval(va, vb, w))
            }
            TermKind::Pred(p, a, b) => {
                let w = self.width(a);
                let va = self.eval_memo(a, env, memo).as_bv();
                let vb = self.eval_memo(b, env, memo).as_bv();
                Value::Bool(p.eval(va, vb, w))
            }
        };
        memo[t.index()] = Some(v);
        v
    }

    /// Appends the operands of `t` to `out`, in a fixed order.
    pub fn push_children(&self, t: TermId, out: &mut Vec<TermId>) {
        match *self.kind(t) {
            TermKind::BoolConst(_) | TermKind::BvConst { .. } | TermKind::Var(_) => {}
            TermKind::Not(x) => out.push(x),
            TermKind::And(xs) | TermKind::Or(xs) => out.extend_from_slice(self.args(xs)),
            TermKind::Eq(a, b) | TermKind::Bv(_, a, b) | TermKind::Pred(_, a, b) => {
                out.extend_from_slice(&[a, b])
            }
            TermKind::Ite {
                cond,
                then_t,
                else_t,
            } => out.extend_from_slice(&[cond, then_t, else_t]),
        }
    }

    /// Visits every distinct node reachable from `t` once, depth first:
    /// a node is visited when popped, then its operands are pushed in
    /// order. Uses the pool's reused walk tables.
    pub(crate) fn walk(&mut self, t: TermId, visit: impl FnMut(&TermPool, TermId)) {
        let mut seen = std::mem::take(&mut self.scratch.seen);
        let mut stack = std::mem::take(&mut self.scratch.stack);
        self.walk_in(t, &mut seen, &mut stack, visit);
        self.scratch.seen = seen;
        self.scratch.stack = stack;
    }

    /// [`TermPool::walk`] over the given tables.
    fn walk_in(
        &self,
        t: TermId,
        seen: &mut IdSet<TermId>,
        stack: &mut Vec<TermId>,
        mut visit: impl FnMut(&TermPool, TermId),
    ) {
        seen.clear();
        stack.clear();
        stack.push(t);
        while let Some(x) = stack.pop() {
            if seen.insert(x) {
                visit(self, x);
                self.push_children(x, stack);
            }
        }
    }

    /// Number of distinct nodes reachable from `t` (shared sub-DAG size).
    pub fn dag_size(&mut self, t: TermId) -> usize {
        let mut n = 0;
        self.walk(t, |_, _| n += 1);
        n
    }

    /// Every distinct node reachable from `t`, written to `out` in
    /// depth-first order: a node before its operands, operands pushed in
    /// order and visited last-first.
    pub(crate) fn dag_nodes_into(&mut self, t: TermId, out: &mut Vec<TermId>) {
        out.clear();
        self.walk(t, |_, x| out.push(x));
    }

    /// Size of the fully expanded syntax tree of `t` — the "condition size"
    /// a non-sharing representation (the conventional design's cloned
    /// formulas) would pay. Saturates at `u64::MAX`.
    pub fn tree_size(&self, t: TermId) -> u64 {
        // Operands have lower ids than their parents; sizes are >= 1, so 0
        // marks a node not yet sized.
        let mut memo = vec![0u64; t.index() + 1];
        self.tree_size_memo(t, &mut memo)
    }

    fn tree_size_memo(&self, t: TermId, memo: &mut [u64]) -> u64 {
        if memo[t.index()] != 0 {
            return memo[t.index()];
        }
        let mut children = Vec::new();
        self.push_children(t, &mut children);
        let mut total: u64 = 1;
        for c in children {
            total = total.saturating_add(self.tree_size_memo(c, memo));
        }
        memo[t.index()] = total;
        total
    }

    /// Free variables of `t` (sorted, deduplicated). Allocates its own
    /// walk tables; [`TermPool::free_vars_into`] reuses the pool's.
    pub fn free_vars(&self, t: TermId) -> Vec<VarIdx> {
        let mut out = Vec::new();
        self.walk_in(t, &mut IdSet::new(), &mut Vec::new(), |pool, x| {
            if let TermKind::Var(v) = *pool.kind(x) {
                out.push(v);
            }
        });
        out.sort_unstable();
        out
    }

    /// [`TermPool::free_vars`] written to `out`, walking with the pool's
    /// reused tables.
    pub fn free_vars_into(&mut self, t: TermId, out: &mut Vec<VarIdx>) {
        out.clear();
        self.walk(t, |pool, x| {
            if let TermKind::Var(v) = *pool.kind(x) {
                out.push(v);
            }
        });
        out.sort_unstable();
    }

    /// Whether `v` is free in `t`, walking with the pool's reused tables.
    pub fn mentions(&mut self, t: TermId, v: VarIdx) -> bool {
        let target = self.var_term(v);
        let mut found = false;
        self.walk(t, |_, x| found |= x == target);
        found
    }

    /// Rebuilds `t` with variables substituted per `map` (variables absent
    /// from the map are kept). Simplifying constructors re-run, so the
    /// result may be smaller than the input.
    pub fn substitute(&mut self, t: TermId, map: &VarMap) -> TermId {
        self.rebuild(t, &mut Subst(map))
    }

    /// Runs `rewrite` over `t` ([`Rewrite`]), memoizing each node's result
    /// in the pool's reused memo.
    pub(crate) fn rebuild(&mut self, t: TermId, rewrite: &mut impl Rewrite) -> TermId {
        let mut memo = std::mem::take(&mut self.scratch.memo);
        let mut built = std::mem::take(&mut self.scratch.built);
        memo.clear();
        built.clear();
        let r = self.rebuild_node(t, rewrite, &mut memo, &mut built);
        self.scratch.memo = memo;
        self.scratch.built = built;
        r
    }

    fn rebuild_node(
        &mut self,
        t: TermId,
        rw: &mut impl Rewrite,
        memo: &mut IdMap<TermId, TermId>,
        built: &mut Vec<TermId>,
    ) -> TermId {
        if let Some(r) = memo.get(t) {
            return r;
        }
        let kind = *self.kind(t);
        let r = match rw.pre(self, t, kind) {
            Some(r) => r,
            None => match kind {
                TermKind::BoolConst(_) | TermKind::BvConst { .. } | TermKind::Var(_) => t,
                TermKind::Not(x) => {
                    let x = self.rebuild_node(x, rw, memo, built);
                    self.not(x)
                }
                TermKind::And(xs) | TermKind::Or(xs) => {
                    let base = built.len();
                    for i in xs.range() {
                        let x = self.args[i];
                        let x = self.rebuild_node(x, rw, memo, built);
                        built.push(x);
                    }
                    let r = if matches!(kind, TermKind::And(_)) {
                        self.and(&built[base..])
                    } else {
                        self.or(&built[base..])
                    };
                    built.truncate(base);
                    r
                }
                TermKind::Eq(a, b) => {
                    let a = self.rebuild_node(a, rw, memo, built);
                    let b = self.rebuild_node(b, rw, memo, built);
                    rw.eq(self, a, b)
                }
                TermKind::Ite {
                    cond,
                    then_t,
                    else_t,
                } => {
                    let c = self.rebuild_node(cond, rw, memo, built);
                    let tt = self.rebuild_node(then_t, rw, memo, built);
                    let ee = self.rebuild_node(else_t, rw, memo, built);
                    self.ite(c, tt, ee)
                }
                TermKind::Bv(op, a, b) => {
                    let a = self.rebuild_node(a, rw, memo, built);
                    let b = self.rebuild_node(b, rw, memo, built);
                    rw.bv(self, op, a, b)
                }
                TermKind::Pred(p, a, b) => {
                    let a = self.rebuild_node(a, rw, memo, built);
                    let b = self.rebuild_node(b, rw, memo, built);
                    self.pred(p, a, b)
                }
            },
        };
        memo.insert(t, r);
        r
    }

    /// Renders a term as an S-expression (for diagnostics and tests).
    pub fn display(&self, t: TermId) -> String {
        match *self.kind(t) {
            TermKind::BoolConst(b) => b.to_string(),
            TermKind::BvConst { value, width } => format!("#x{value:x}:{width}"),
            TermKind::Var(v) => self.var_name(v),
            TermKind::Not(x) => format!("(not {})", self.display(x)),
            TermKind::And(xs) => {
                let parts: Vec<String> = self.args(xs).iter().map(|&x| self.display(x)).collect();
                format!("(and {})", parts.join(" "))
            }
            TermKind::Or(xs) => {
                let parts: Vec<String> = self.args(xs).iter().map(|&x| self.display(x)).collect();
                format!("(or {})", parts.join(" "))
            }
            TermKind::Eq(a, b) => format!("(= {} {})", self.display(a), self.display(b)),
            TermKind::Ite {
                cond,
                then_t,
                else_t,
            } => format!(
                "(ite {} {} {})",
                self.display(cond),
                self.display(then_t),
                self.display(else_t)
            ),
            TermKind::Bv(op, a, b) => {
                format!("({op:?} {} {})", self.display(a), self.display(b))
            }
            TermKind::Pred(p, a, b) => {
                format!("({p:?} {} {})", self.display(a), self.display(b))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pointwise evaluation checks compare `Value`s, so a `Bool` must
    /// never equal a `Bv`.
    #[test]
    fn value_discriminants_do_not_collide() {
        assert_ne!(Value::Bool(true), Value::Bv(1));
    }

    #[test]
    fn hash_consing_shares_nodes() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(32));
        let y = p.var("y", Sort::Bv(32));
        let a = p.bv(BvOp::Add, x, y);
        let b = p.bv(BvOp::Add, y, x); // commutative normalization
        assert_eq!(a, b);
    }

    #[test]
    fn constant_folding() {
        let mut p = TermPool::new();
        let a = p.bv_const(7, 32);
        let b = p.bv_const(5, 32);
        let s = p.bv(BvOp::Add, a, b);
        assert_eq!(p.as_bv_const(s), Some(12));
        let lt = p.pred(BvPred::Ult, b, a);
        assert_eq!(p.as_bool_const(lt), Some(true));
    }

    #[test]
    fn unit_laws() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(32));
        let zero = p.bv_const(0, 32);
        let one = p.bv_const(1, 32);
        assert_eq!(p.bv(BvOp::Add, x, zero), x);
        assert_eq!(p.bv(BvOp::Mul, x, one), x);
        assert_eq!(p.bv(BvOp::Mul, x, zero), zero);
        assert_eq!(p.bv(BvOp::Sub, x, x), zero);
        assert_eq!(p.bv(BvOp::Xor, x, x), zero);
    }

    #[test]
    fn and_or_normalization() {
        let mut p = TermPool::new();
        let a = p.var("a", Sort::Bool);
        let b = p.var("b", Sort::Bool);
        let t = p.tt();
        let f = p.ff();
        assert_eq!(p.and(&[a, t, a]), a);
        assert_eq!(p.and(&[a, f]), f);
        assert_eq!(p.or(&[a, f, a]), a);
        assert_eq!(p.or(&[a, t]), t);
        let na = p.not(a);
        assert_eq!(p.and(&[a, b, na]), f);
        assert_eq!(p.or(&[a, b, na]), t);
        // Flattening: and(a, and(a, b)) == and(a, b)
        let ab = p.and2(a, b);
        assert_eq!(p.and2(a, ab), ab);
    }

    #[test]
    fn not_involution() {
        let mut p = TermPool::new();
        let a = p.var("a", Sort::Bool);
        let na = p.not(a);
        assert_eq!(p.not(na), a);
    }

    #[test]
    fn eq_bool_shortcuts() {
        let mut p = TermPool::new();
        let a = p.var("a", Sort::Bool);
        let t = p.tt();
        let f = p.ff();
        assert_eq!(p.eq(a, t), a);
        let e = p.eq(a, f);
        assert_eq!(e, p.not(a));
        assert_eq!(p.eq(a, a), p.tt());
    }

    #[test]
    fn ite_simplifications() {
        let mut p = TermPool::new();
        let c = p.var("c", Sort::Bool);
        let x = p.var("x", Sort::Bv(8));
        let y = p.var("y", Sort::Bv(8));
        let t = p.tt();
        assert_eq!(p.ite(t, x, y), x);
        assert_eq!(p.ite(c, x, x), x);
        let nc = p.not(c);
        assert_eq!(p.ite(nc, x, y), p.ite(c, y, x));
    }

    #[test]
    fn eval_agrees_with_ops() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(32));
        let y = p.var("y", Sort::Bv(32));
        let TermKind::Var(vx) = *p.kind(x) else {
            unreachable!()
        };
        let TermKind::Var(vy) = *p.kind(y) else {
            unreachable!()
        };
        let sum = p.bv(BvOp::Add, x, y);
        let cmp = p.pred(BvPred::Slt, sum, x);
        let mut env = HashMap::new();
        env.insert(vx, 0xffff_ffff); // -1 signed
        env.insert(vy, 5u64);
        assert_eq!(p.eval(sum, &env), Value::Bv(4));
        assert_eq!(p.eval(cmp, &env), Value::Bool(false)); // 4 < -1 signed? no
    }

    #[test]
    fn substitution_resimplifies() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(32));
        let y = p.var("y", Sort::Bv(32));
        let TermKind::Var(vx) = *p.kind(x) else {
            unreachable!()
        };
        let sum = p.bv(BvOp::Add, x, y);
        let zero = p.bv_const(0, 32);
        let mut map = VarMap::new();
        map.insert(vx, zero);
        assert_eq!(p.substitute(sum, &map), y);
    }

    #[test]
    fn nary_operands_live_in_the_argument_buffer() {
        let mut p = TermPool::new();
        let a = p.var("a", Sort::Bool);
        let b = p.var("b", Sort::Bool);
        let c = p.var("c", Sort::Bool);
        let abc = p.and(&[c, a, b]);
        let TermKind::And(xs) = *p.kind(abc) else {
            panic!("expected and")
        };
        assert_eq!(p.args(xs), &[a, b, c]);
        // Interning the same operands again finds the node; `or` over the
        // same operands is another node.
        let nodes = p.len();
        assert_eq!(p.and(&[b, c, a]), abc);
        assert_eq!(p.len(), nodes);
        let or = p.or(&[a, b, c]);
        assert_ne!(or, abc);
        let TermKind::Or(ys) = *p.kind(or) else {
            panic!("expected or")
        };
        assert_eq!(p.args(ys), &[a, b, c]);
        let mut children = Vec::new();
        p.push_children(abc, &mut children);
        assert_eq!(children, vec![a, b, c]);
    }

    #[test]
    fn consing_survives_table_growth() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(16));
        let sums: Vec<TermId> = (0..1000u64)
            .map(|k| {
                let c = p.bv_const(k, 16);
                p.bv(BvOp::Add, x, c)
            })
            .collect();
        let nodes = p.len();
        for (k, &s) in sums.iter().enumerate() {
            let c = p.bv_const(k as u64, 16);
            assert_eq!(p.bv(BvOp::Add, c, x), s);
        }
        assert_eq!(p.len(), nodes);
    }

    #[test]
    fn keyed_variables_render_their_old_names() {
        let mut p = TermPool::new();
        let w = Sort::Bv(32);
        let inner = p.ctx_push(CtxId::ROOT, 5);
        let ctx = p.ctx_push(inner, 7);
        assert_eq!(p.ctx_push(inner, 7), ctx);
        assert_eq!(p.ctx_depth(ctx), 2);
        assert_eq!(p.ctx_pop(ctx), Some((inner, 7)));
        assert_eq!(p.ctx_pop(CtxId::ROOT), None);
        let key = VarKey::Instance {
            func: 3,
            ctx,
            var: 9,
        };
        let i = p.keyed_var(key, w);
        assert_eq!(p.keyed_var(key, w), i);
        let l = p.keyed_var(
            VarKey::Local {
                tag: 'l',
                func: 3,
                var: 9,
            },
            w,
        );
        let f = p.fresh_var("uc", Sort::Bool);
        let [vi, vl, vf] = [i, l, f].map(|t| match *p.kind(t) {
            TermKind::Var(v) => v,
            _ => unreachable!(),
        });
        assert_eq!(p.var_name(vi), "f3@5@7:v9");
        assert_eq!(p.var_name(vl), "l3:v9");
        assert_eq!(p.var_name(vf), "uc!2");
        assert_eq!(p.var_key(vi), Some(key));
        assert_eq!(p.var_key(vf), None);
        assert_eq!(p.var_term(vl), l);
        let eq = p.eq(i, l);
        assert_eq!(p.display(eq), "(= f3@5@7:v9 l3:v9)");
        // A named variable is found by its text.
        let x = p.var("x", w);
        assert_eq!(p.var("x", w), x);
    }

    #[test]
    fn sizes_distinguish_dag_and_tree() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(32));
        // t = (x+x); u = t+t; DAG has 3 nodes, tree has 7.
        let t = p.bv(BvOp::Add, x, x);
        let u = p.bv(BvOp::Add, t, t);
        assert_eq!(p.dag_size(u), 3);
        assert_eq!(p.tree_size(u), 7);
    }

    #[test]
    fn free_vars_collects() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let y = p.var("y", Sort::Bv(8));
        let c = p.bv_const(3, 8);
        let t1 = p.bv(BvOp::Mul, x, c);
        let t = p.bv(BvOp::Add, t1, y);
        assert_eq!(p.free_vars(t).len(), 2);
    }

    #[test]
    fn signed_helpers() {
        assert_eq!(to_signed(0xff, 8), -1);
        assert_eq!(to_signed(0x7f, 8), 127);
        assert_eq!(mask(8), 0xff);
        assert_eq!(mask(64), u64::MAX);
    }

    #[test]
    fn ashr_sign_extension() {
        assert_eq!(BvOp::Ashr.eval(0x80, 1, 8), 0xc0);
        assert_eq!(BvOp::Ashr.eval(0x80, 100, 8), 0xff);
        assert_eq!(BvOp::Ashr.eval(0x40, 100, 8), 0);
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let y = p.var("y", Sort::Bv(16));
        p.bv(BvOp::Add, x, y);
    }
}
