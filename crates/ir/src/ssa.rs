//! The core IR: the paper's Fig. 4 language in SSA form with explicit gating.
//!
//! After lowering (see [`crate::lower`]) every function is a loop-free list
//! of *definitions*. Each definition introduces exactly one variable, so a
//! definition and the variable it defines are interchangeable — exactly the
//! convention Def. 3.1 of the paper uses for program dependence graph
//! vertices.
//!
//! Control dependence is explicit: every definition carries an optional
//! `guard`, the [`DefKind::Branch`] definition of the innermost `if` it is
//! nested in. A definition executes at runtime if and only if its guard chain
//! evaluates to all-true, which is the control-dependence relation of
//! Def. 3.1 for structured code.

use crate::interner::{Interner, Symbol};
use std::fmt;

/// Bit width of every value in the language (the paper models each variable
/// as a bit-vector of its type's width; we use a uniform 32-bit word).
pub const WORD_BITS: u32 = 32;

/// Identifies a function within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Identifies a variable (equivalently: its defining statement) within a
/// function. Also the vertex id used by the program dependence graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

/// Identifies a call site uniquely across the whole program — the pair of
/// parentheses `(i` / `)i` that labels call and return edges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallSiteId(pub u32);

impl FuncId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl VarId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl CallSiteId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Binary operators of the core language (the `⊕` of Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
    /// Unsigned division; `x / 0 = 2^32 - 1` (SMT-LIB `bvudiv`).
    Udiv,
    /// Unsigned remainder; `x % 0 = x` (SMT-LIB `bvurem`).
    Urem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Left shift (amounts >= 32 give 0).
    Shl,
    /// Logical right shift (amounts >= 32 give 0).
    Lshr,
    /// Arithmetic right shift (amounts >= 32 replicate the sign).
    Ashr,
    /// Signed `<`; yields 0/1.
    Slt,
    /// Signed `<=`; yields 0/1.
    Sle,
    /// Unsigned `<`; yields 0/1.
    Ult,
    /// Unsigned `<=`; yields 0/1.
    Ule,
    /// Equality; yields 0/1.
    Eq,
    /// Disequality; yields 0/1.
    Ne,
}

impl Op {
    /// Returns `true` for operators that yield a 0/1 boolean word.
    pub fn is_predicate(self) -> bool {
        matches!(
            self,
            Op::Slt | Op::Sle | Op::Ult | Op::Ule | Op::Eq | Op::Ne
        )
    }

    /// Evaluates the operator on concrete 32-bit words.
    #[allow(clippy::manual_checked_ops)] // x/0 = MAX is SMT-LIB semantics, not an error path
    pub fn eval(self, a: u32, b: u32) -> u32 {
        match self {
            Op::Add => a.wrapping_add(b),
            Op::Sub => a.wrapping_sub(b),
            Op::Mul => a.wrapping_mul(b),
            Op::Udiv => {
                if b == 0 {
                    u32::MAX
                } else {
                    a / b
                }
            }
            Op::Urem => {
                if b == 0 {
                    a
                } else {
                    a % b
                }
            }
            Op::And => a & b,
            Op::Or => a | b,
            Op::Xor => a ^ b,
            Op::Shl => {
                if b >= 32 {
                    0
                } else {
                    a.wrapping_shl(b)
                }
            }
            Op::Lshr => {
                if b >= 32 {
                    0
                } else {
                    a.wrapping_shr(b)
                }
            }
            Op::Ashr => {
                if b >= 32 {
                    ((a as i32) >> 31) as u32
                } else {
                    ((a as i32) >> b) as u32
                }
            }
            Op::Slt => ((a as i32) < (b as i32)) as u32,
            Op::Sle => ((a as i32) <= (b as i32)) as u32,
            Op::Ult => (a < b) as u32,
            Op::Ule => (a <= b) as u32,
            Op::Eq => (a == b) as u32,
            Op::Ne => (a != b) as u32,
        }
    }
}

/// The statement that defines a variable (the right-hand sides of Fig. 4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DefKind {
    /// `v = ⟨v⟩` — the identity statement initializing parameter `index`.
    Param {
        /// Zero-based parameter position.
        index: usize,
    },
    /// Constant assignment. `is_null` flags the distinguished `null`
    /// constant (value 0) that seeds the null-dereference checker.
    Const {
        /// The 32-bit constant value.
        value: u32,
        /// Whether this constant was written as `null` in the source.
        is_null: bool,
    },
    /// `v1 = v2` — a plain copy.
    Copy {
        /// Source variable.
        src: VarId,
    },
    /// `v1 = v2 ⊕ v3`.
    Binary {
        /// The operator.
        op: Op,
        /// Left operand.
        lhs: VarId,
        /// Right operand.
        rhs: VarId,
    },
    /// `v1 = ite(v2, v3, v4)` — the gating assignment that replaces φ.
    /// Selects `then_v` when `cond != 0`.
    Ite {
        /// The (word-valued, nonzero-is-true) condition.
        cond: VarId,
        /// Value when the condition is nonzero.
        then_v: VarId,
        /// Value when the condition is zero.
        else_v: VarId,
    },
    /// `v1 = f(v2, v3, ...)`.
    Call {
        /// The callee.
        callee: FuncId,
        /// Actual arguments.
        args: Vec<VarId>,
        /// The unique parenthesis label of this call site.
        site: CallSiteId,
    },
    /// `if (v1 = v2) { … }` — the branch vertex. Definitions guarded by this
    /// vertex execute iff `cond != 0` (and this vertex's own guards hold).
    Branch {
        /// The branch condition variable.
        cond: VarId,
    },
    /// `return v1 = v2` — the single exit of the function.
    Return {
        /// The returned variable.
        src: VarId,
    },
}

impl DefKind {
    /// The variables this definition reads, in a fixed order (operand slot
    /// order), borrowed without allocating.
    pub fn operands(&self) -> Operands<'_> {
        let inline = |ops: &[VarId]| {
            let mut inline = [VarId(0); 3];
            inline[..ops.len()].copy_from_slice(ops);
            Operands {
                inline,
                len: ops.len() as u8,
                args: &[],
            }
        };
        match self {
            DefKind::Param { .. } | DefKind::Const { .. } => inline(&[]),
            DefKind::Copy { src } | DefKind::Return { src } => inline(&[*src]),
            DefKind::Binary { lhs, rhs, .. } => inline(&[*lhs, *rhs]),
            DefKind::Ite {
                cond,
                then_v,
                else_v,
            } => inline(&[*cond, *then_v, *else_v]),
            DefKind::Call { args, .. } => Operands {
                inline: [VarId(0); 3],
                len: 0,
                args,
            },
            DefKind::Branch { cond } => inline(&[*cond]),
        }
    }
}

/// The operands of one definition ([`DefKind::operands`]): up to three
/// held inline, or a call's arguments by slice. Iterating it yields the
/// operands by value.
#[derive(Debug, Clone, Copy)]
pub struct Operands<'a> {
    inline: [VarId; 3],
    /// Inline operands in use; 0 means the operands are `args`.
    len: u8,
    args: &'a [VarId],
}

impl Operands<'_> {
    /// The operands as a slice, in slot order.
    pub fn as_slice(&self) -> &[VarId] {
        match self.len {
            0 => self.args,
            n => &self.inline[..n as usize],
        }
    }

    /// Number of operands.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Whether the definition reads no variable.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

impl<'a> IntoIterator for Operands<'a> {
    type Item = VarId;
    type IntoIter = OperandsIter<'a>;

    fn into_iter(self) -> OperandsIter<'a> {
        OperandsIter {
            operands: self,
            next: 0,
        }
    }
}

/// By-value iterator over [`Operands`].
#[derive(Debug, Clone)]
pub struct OperandsIter<'a> {
    operands: Operands<'a>,
    next: usize,
}

impl Iterator for OperandsIter<'_> {
    type Item = VarId;

    fn next(&mut self) -> Option<VarId> {
        let v = self.operands.as_slice().get(self.next).copied();
        self.next += usize::from(v.is_some());
        v
    }
}

/// One SSA definition: a variable, how it is computed, and its guard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Def {
    /// The defined variable (also this definition's vertex id).
    pub var: VarId,
    /// The defining statement.
    pub kind: DefKind,
    /// The innermost enclosing branch vertex, if any.
    pub guard: Option<VarId>,
    /// Base name for diagnostics, interned once per program: the parameter
    /// or merged variable itself, or a role (`t`, `null`, `if`, `else`,
    /// `cont`, `not_returned`, `ret`, `c{value}`, `r_{callee}`).
    /// [`Program::def_name`] renders the full name (`x.2`, `t.7`, ...).
    pub name: Symbol,
}

/// A function in core SSA form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// The function name.
    pub name: Symbol,
    /// This function's id inside its [`Program`].
    pub id: FuncId,
    /// Parameter variables (each defined by a [`DefKind::Param`]).
    pub params: Vec<VarId>,
    /// All definitions in program order. `defs[i].var == VarId(i)`.
    pub defs: Vec<Def>,
    /// The [`DefKind::Return`] definition, if the function has a body.
    pub ret: Option<VarId>,
    /// External declaration (no body): `f(v1, ..) = ∅`.
    pub is_extern: bool,
}

impl Function {
    /// Looks up a definition by variable id.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range for this function.
    pub fn def(&self, v: VarId) -> &Def {
        &self.defs[v.index()]
    }

    /// Iterates over all definitions in program order.
    pub fn iter(&self) -> impl Iterator<Item = &Def> {
        self.defs.iter()
    }

    /// Number of definitions (statements) in the body.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the function body is empty.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// The guard chain of `v`, innermost first.
    pub fn guards(&self, v: VarId) -> Vec<VarId> {
        self.guard_chain(v).collect()
    }

    /// Walks the guard chain of `v`, innermost first, without allocating.
    pub fn guard_chain(&self, v: VarId) -> impl Iterator<Item = VarId> + '_ {
        std::iter::successors(self.def(v).guard, |&g| self.def(g).guard)
    }
}

/// Metadata about one call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallSite {
    /// Function containing the call.
    pub caller: FuncId,
    /// The call definition's variable in the caller.
    pub stmt: VarId,
    /// The callee.
    pub callee: FuncId,
}

/// A whole program in core SSA form, plus its name interner and call-site
/// table.
#[derive(Debug, Clone)]
pub struct Program {
    /// All functions; `functions[i].id == FuncId(i)`.
    pub functions: Vec<Function>,
    /// Global call-site table; `call_sites[i]` corresponds to
    /// `CallSiteId(i)`.
    pub call_sites: Vec<CallSite>,
    /// The interner for all names in the program.
    pub interner: Interner,
}

impl Program {
    /// Looks up a function by id.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    pub fn func(&self, f: FuncId) -> &Function {
        &self.functions[f.index()]
    }

    /// Finds a function by source name.
    pub fn func_by_name(&self, name: &str) -> Option<&Function> {
        let sym = self.interner.lookup(name)?;
        self.functions.iter().find(|f| f.name == sym)
    }

    /// Resolves a symbol to its string.
    pub fn name(&self, sym: Symbol) -> &str {
        self.interner.resolve(sym)
    }

    /// Renders a definition's name: the bare name for a parameter,
    /// `{base}.{var}` otherwise (`x.2`, `t.7`, `r_g.4`, ...).
    pub fn def_name(&self, def: &Def) -> String {
        let base = self.name(def.name);
        match def.kind {
            DefKind::Param { .. } => base.to_owned(),
            _ => format!("{base}.{}", def.var.0),
        }
    }

    /// Looks up a call site.
    ///
    /// # Panics
    ///
    /// Panics if `s` is out of range.
    pub fn call_site(&self, s: CallSiteId) -> CallSite {
        self.call_sites[s.index()]
    }

    /// Total number of definitions across all functions — the program size
    /// used in the paper's complexity arguments.
    pub fn size(&self) -> usize {
        self.functions.iter().map(Function::len).sum()
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

impl fmt::Display for VarId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for CallSiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cs{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_eval_matches_two_complement_semantics() {
        assert_eq!(Op::Add.eval(u32::MAX, 1), 0);
        assert_eq!(Op::Sub.eval(0, 1), u32::MAX);
        assert_eq!(Op::Mul.eval(1 << 31, 2), 0);
        assert_eq!(Op::Udiv.eval(7, 0), u32::MAX);
        assert_eq!(Op::Urem.eval(7, 0), 7);
        assert_eq!(Op::Slt.eval(u32::MAX, 0), 1); // -1 < 0 signed
        assert_eq!(Op::Ult.eval(u32::MAX, 0), 0);
        assert_eq!(Op::Ashr.eval(0x8000_0000, 31), u32::MAX);
        assert_eq!(Op::Shl.eval(1, 40), 0);
    }

    #[test]
    fn predicates_are_flagged() {
        assert!(Op::Eq.is_predicate());
        assert!(Op::Slt.is_predicate());
        assert!(!Op::Add.is_predicate());
    }

    #[test]
    fn operand_order_is_stable() {
        let k = DefKind::Ite {
            cond: VarId(0),
            then_v: VarId(1),
            else_v: VarId(2),
        };
        assert_eq!(k.operands().as_slice(), [VarId(0), VarId(1), VarId(2)]);
        let call = DefKind::Call {
            callee: FuncId(0),
            args: vec![VarId(4), VarId(5), VarId(6), VarId(7)],
            site: CallSiteId(0),
        };
        assert!(call.operands().into_iter().eq((4..8).map(VarId)));
        assert_eq!(DefKind::Branch { cond: VarId(3) }.operands().len(), 1);
        assert!(DefKind::Param { index: 0 }.operands().is_empty());
    }
}
