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

use std::collections::HashMap;
use std::fmt;

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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TermId(pub u32);

impl TermId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifies a variable within its [`TermPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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

/// A term node. Obtain instances through [`TermPool`] constructors only.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
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
    And(Vec<TermId>),
    /// N-ary disjunction (flattened, deduplicated, id-sorted).
    Or(Vec<TermId>),
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

#[derive(Debug, Clone)]
struct VarInfo {
    name: String,
    sort: Sort,
}

/// The hash-consing arena for terms.
#[derive(Debug, Default, Clone)]
pub struct TermPool {
    kinds: Vec<TermKind>,
    sorts: Vec<Sort>,
    consing: HashMap<TermKind, TermId>,
    vars: Vec<VarInfo>,
    var_by_name: HashMap<String, VarIdx>,
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

    /// The sort of a term.
    pub fn sort(&self, t: TermId) -> Sort {
        self.sorts[t.index()]
    }

    /// A variable's declared name.
    pub fn var_name(&self, v: VarIdx) -> &str {
        &self.vars[v.index()].name
    }

    /// A variable's sort.
    pub fn var_sort(&self, v: VarIdx) -> Sort {
        self.vars[v.index()].sort
    }

    fn intern(&mut self, kind: TermKind, sort: Sort) -> TermId {
        if let Some(&t) = self.consing.get(&kind) {
            return t;
        }
        let t = TermId(self.kinds.len() as u32);
        self.kinds.push(kind.clone());
        self.sorts.push(sort);
        self.consing.insert(kind, t);
        t
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

    /// Declares (or retrieves) the variable `name` of sort `sort`.
    ///
    /// # Panics
    ///
    /// Panics if `name` was already declared with a different sort.
    pub fn var(&mut self, name: &str, sort: Sort) -> TermId {
        if let Some(&v) = self.var_by_name.get(name) {
            assert_eq!(
                self.vars[v.index()].sort,
                sort,
                "variable `{name}` redeclared"
            );
            return self.intern(TermKind::Var(v), sort);
        }
        let v = VarIdx(self.vars.len() as u32);
        self.vars.push(VarInfo {
            name: name.to_owned(),
            sort,
        });
        self.var_by_name.insert(name.to_owned(), v);
        self.intern(TermKind::Var(v), sort)
    }

    /// Declares a fresh variable with a unique generated name.
    pub fn fresh_var(&mut self, prefix: &str, sort: Sort) -> TermId {
        let name = format!("{prefix}!{}", self.vars.len());
        debug_assert!(!self.var_by_name.contains_key(&name));
        self.var(&name, sort)
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
        match self.kind(t) {
            TermKind::BoolConst(b) => {
                let b = !*b;
                self.bool_const(b)
            }
            TermKind::Not(inner) => *inner,
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
        let mut flat = Vec::with_capacity(ts.len());
        for &t in ts {
            assert_eq!(self.sort(t), Sort::Bool, "and: operand must be Bool");
            match self.kind(t) {
                TermKind::BoolConst(true) => {}
                TermKind::BoolConst(false) => return self.ff(),
                TermKind::And(inner) => flat.extend(inner.iter().copied()),
                _ => flat.push(t),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        // x ∧ ¬x → false
        for &t in &flat {
            if let TermKind::Not(inner) = self.kind(t) {
                if flat.binary_search(inner).is_ok() {
                    return self.ff();
                }
            }
        }
        match flat.len() {
            0 => self.tt(),
            1 => flat[0],
            _ => self.intern(TermKind::And(flat), Sort::Bool),
        }
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
        let mut flat = Vec::with_capacity(ts.len());
        for &t in ts {
            assert_eq!(self.sort(t), Sort::Bool, "or: operand must be Bool");
            match self.kind(t) {
                TermKind::BoolConst(false) => {}
                TermKind::BoolConst(true) => return self.tt(),
                TermKind::Or(inner) => flat.extend(inner.iter().copied()),
                _ => flat.push(t),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        for &t in &flat {
            if let TermKind::Not(inner) = self.kind(t) {
                if flat.binary_search(inner).is_ok() {
                    return self.tt();
                }
            }
        }
        match flat.len() {
            0 => self.ff(),
            1 => flat[0],
            _ => self.intern(TermKind::Or(flat), Sort::Bool),
        }
    }

    /// Binary disjunction convenience.
    pub fn or2(&mut self, a: TermId, b: TermId) -> TermId {
        self.or(&[a, b])
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
        match (self.kind(a).clone(), self.kind(b).clone()) {
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
        match self.kind(cond) {
            TermKind::BoolConst(true) => return then_t,
            TermKind::BoolConst(false) => return else_t,
            TermKind::Not(inner) => {
                let inner = *inner;
                return self.ite(inner, else_t, then_t);
            }
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
        let mut memo: HashMap<TermId, Value> = HashMap::new();
        self.eval_memo(t, env, &mut memo)
    }

    fn eval_memo(
        &self,
        t: TermId,
        env: &HashMap<VarIdx, u64>,
        memo: &mut HashMap<TermId, Value>,
    ) -> Value {
        if let Some(&v) = memo.get(&t) {
            return v;
        }
        let v = match self.kind(t) {
            TermKind::BoolConst(b) => Value::Bool(*b),
            TermKind::BvConst { value, .. } => Value::Bv(*value),
            TermKind::Var(v) => {
                let raw = env.get(v).copied().unwrap_or(0);
                match self.var_sort(*v) {
                    Sort::Bool => Value::Bool(raw != 0),
                    Sort::Bv(w) => Value::Bv(raw & mask(w)),
                }
            }
            TermKind::Not(x) => Value::Bool(!self.eval_memo(*x, env, memo).as_bool()),
            TermKind::And(xs) => {
                let xs = xs.clone();
                Value::Bool(xs.iter().all(|&x| self.eval_memo(x, env, memo).as_bool()))
            }
            TermKind::Or(xs) => {
                let xs = xs.clone();
                Value::Bool(xs.iter().any(|&x| self.eval_memo(x, env, memo).as_bool()))
            }
            TermKind::Eq(a, b) => {
                let (a, b) = (*a, *b);
                let va = self.eval_memo(a, env, memo);
                let vb = self.eval_memo(b, env, memo);
                Value::Bool(va == vb)
            }
            TermKind::Ite {
                cond,
                then_t,
                else_t,
            } => {
                let (c, tt, ee) = (*cond, *then_t, *else_t);
                if self.eval_memo(c, env, memo).as_bool() {
                    self.eval_memo(tt, env, memo)
                } else {
                    self.eval_memo(ee, env, memo)
                }
            }
            TermKind::Bv(op, a, b) => {
                let (op, a, b) = (*op, *a, *b);
                let w = self.width(t);
                let va = self.eval_memo(a, env, memo).as_bv();
                let vb = self.eval_memo(b, env, memo).as_bv();
                Value::Bv(op.eval(va, vb, w))
            }
            TermKind::Pred(p, a, b) => {
                let (p, a, b) = (*p, *a, *b);
                let w = self.width(a);
                let va = self.eval_memo(a, env, memo).as_bv();
                let vb = self.eval_memo(b, env, memo).as_bv();
                Value::Bool(p.eval(va, vb, w))
            }
        };
        memo.insert(t, v);
        v
    }

    /// The children of a term, in a fixed order.
    pub fn children(&self, t: TermId) -> Vec<TermId> {
        match self.kind(t) {
            TermKind::BoolConst(_) | TermKind::BvConst { .. } | TermKind::Var(_) => vec![],
            TermKind::Not(x) => vec![*x],
            TermKind::And(xs) | TermKind::Or(xs) => xs.clone(),
            TermKind::Eq(a, b) => vec![*a, *b],
            TermKind::Ite {
                cond,
                then_t,
                else_t,
            } => vec![*cond, *then_t, *else_t],
            TermKind::Bv(_, a, b) | TermKind::Pred(_, a, b) => vec![*a, *b],
        }
    }

    /// Number of distinct nodes reachable from `t` (shared sub-DAG size).
    pub fn dag_size(&self, t: TermId) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![t];
        while let Some(x) = stack.pop() {
            if seen.insert(x) {
                stack.extend(self.children(x));
            }
        }
        seen.len()
    }

    /// Size of the fully expanded syntax tree of `t` — the "condition size"
    /// a non-sharing representation (the conventional design's cloned
    /// formulas) would pay. Saturates at `u64::MAX`.
    pub fn tree_size(&self, t: TermId) -> u64 {
        let mut memo: HashMap<TermId, u64> = HashMap::new();
        self.tree_size_memo(t, &mut memo)
    }

    fn tree_size_memo(&self, t: TermId, memo: &mut HashMap<TermId, u64>) -> u64 {
        if let Some(&s) = memo.get(&t) {
            return s;
        }
        let mut total: u64 = 1;
        for c in self.children(t) {
            total = total.saturating_add(self.tree_size_memo(c, memo));
        }
        memo.insert(t, total);
        total
    }

    /// Free variables of `t` (sorted, deduplicated).
    pub fn free_vars(&self, t: TermId) -> Vec<VarIdx> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        let mut stack = vec![t];
        while let Some(x) = stack.pop() {
            if !seen.insert(x) {
                continue;
            }
            if let TermKind::Var(v) = self.kind(x) {
                out.push(*v);
            }
            stack.extend(self.children(x));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Rebuilds `t` with variables substituted per `map` (variables absent
    /// from the map are kept). Simplifying constructors re-run, so the
    /// result may be smaller than the input.
    pub fn substitute(&mut self, t: TermId, map: &HashMap<VarIdx, TermId>) -> TermId {
        let mut memo: HashMap<TermId, TermId> = HashMap::new();
        self.substitute_memo(t, map, &mut memo)
    }

    fn substitute_memo(
        &mut self,
        t: TermId,
        map: &HashMap<VarIdx, TermId>,
        memo: &mut HashMap<TermId, TermId>,
    ) -> TermId {
        if let Some(&r) = memo.get(&t) {
            return r;
        }
        let r = match self.kind(t).clone() {
            TermKind::Var(v) => map.get(&v).copied().unwrap_or(t),
            TermKind::BoolConst(_) | TermKind::BvConst { .. } => t,
            TermKind::Not(x) => {
                let x = self.substitute_memo(x, map, memo);
                self.not(x)
            }
            TermKind::And(xs) => {
                let xs: Vec<TermId> = xs
                    .iter()
                    .map(|&x| self.substitute_memo(x, map, memo))
                    .collect();
                self.and(&xs)
            }
            TermKind::Or(xs) => {
                let xs: Vec<TermId> = xs
                    .iter()
                    .map(|&x| self.substitute_memo(x, map, memo))
                    .collect();
                self.or(&xs)
            }
            TermKind::Eq(a, b) => {
                let a = self.substitute_memo(a, map, memo);
                let b = self.substitute_memo(b, map, memo);
                self.eq(a, b)
            }
            TermKind::Ite {
                cond,
                then_t,
                else_t,
            } => {
                let c = self.substitute_memo(cond, map, memo);
                let tt = self.substitute_memo(then_t, map, memo);
                let ee = self.substitute_memo(else_t, map, memo);
                self.ite(c, tt, ee)
            }
            TermKind::Bv(op, a, b) => {
                let a = self.substitute_memo(a, map, memo);
                let b = self.substitute_memo(b, map, memo);
                self.bv(op, a, b)
            }
            TermKind::Pred(p, a, b) => {
                let a = self.substitute_memo(a, map, memo);
                let b = self.substitute_memo(b, map, memo);
                self.pred(p, a, b)
            }
        };
        memo.insert(t, r);
        r
    }

    /// Renders a term as an S-expression (for diagnostics and tests).
    pub fn display(&self, t: TermId) -> String {
        match self.kind(t) {
            TermKind::BoolConst(b) => b.to_string(),
            TermKind::BvConst { value, width } => format!("#x{value:x}:{width}"),
            TermKind::Var(v) => self.var_name(*v).to_owned(),
            TermKind::Not(x) => format!("(not {})", self.display(*x)),
            TermKind::And(xs) => {
                let parts: Vec<String> = xs.iter().map(|&x| self.display(x)).collect();
                format!("(and {})", parts.join(" "))
            }
            TermKind::Or(xs) => {
                let parts: Vec<String> = xs.iter().map(|&x| self.display(x)).collect();
                format!("(or {})", parts.join(" "))
            }
            TermKind::Eq(a, b) => format!("(= {} {})", self.display(*a), self.display(*b)),
            TermKind::Ite {
                cond,
                then_t,
                else_t,
            } => format!(
                "(ite {} {} {})",
                self.display(*cond),
                self.display(*then_t),
                self.display(*else_t)
            ),
            TermKind::Bv(op, a, b) => {
                format!("({op:?} {} {})", self.display(*a), self.display(*b))
            }
            TermKind::Pred(p, a, b) => {
                format!("({p:?} {} {})", self.display(*a), self.display(*b))
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
        let mut map = HashMap::new();
        map.insert(vx, zero);
        assert_eq!(p.substitute(sum, &map), y);
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
