//! Sparse abstract interpretation over the gated SSA: the pre-SMT triage
//! layer.
//!
//! §3.2.3/Alg. 6 of the paper wins by running propagation-style
//! preprocessing (constants, equalities, unconstrained-ness) on the modular
//! graph *before* any call-site cloning. This module generalizes the
//! [`crate::quickpath`] Const/Affine return summaries to a full product
//! domain defined for **every definition**, evaluated **on demand** and
//! memoized **once per function** (never per call site):
//!
//! ```text
//! Const(c)  ⊑  Affine(param)  ⊑  Interval × KnownBits  ⊑  ⊤
//! ```
//!
//! Because the core IR is pure and total and every function body is acyclic
//! SSA (loops and recursion are unrolled before analysis), each fact is an
//! *unconditional* consequence of the definitions alone — valid in every
//! calling context and on every path. Memoizing them per function is
//! therefore the same §3.2.3 discipline the quick paths already follow and
//! is **not** §3.2.2 condition caching: no path condition is ever computed,
//! stored, or implied by a fact.
//!
//! The facts feed three layers of the pipeline:
//!
//! 1. **candidate triage** — [`ProgramFacts::path_refuted`] evaluates a
//!    dependence path's gating constraints (Rules 1/5) and, for the null
//!    checker, its sink value against the facts; a refuted constraint
//!    short-circuits the whole query to infeasible with zero solver work.
//!    Triage may only *refute*, never claim feasibility, so reports are
//!    byte-identical to the untriaged pipeline;
//! 2. **solver seeding** — the per-definition known-bits facts are handed
//!    to formula preprocessing so bit-level refutations fire on first
//!    contact instead of being rediscovered per instantiation;
//! 3. **unification** — the quick-path return summaries
//!    ([`crate::quickpath::RetSummary`]) are the Const/Affine shape of each
//!    callee's return fact ([`ProgramFacts::ret_fact`]), so there is
//!    exactly one value-propagation engine.

use crate::checkers::CheckKind;
use crate::quickpath::RetSummary;
use fusion_ir::ssa::{DefKind, FuncId, Function, Op, Program, VarId};
use fusion_pdg::paths::DependencePath;
use fusion_pdg::slice::{constraints_for, Constraint, ConstraintKind};
use std::sync::OnceLock;

const SIGN_BIT: u32 = 0x8000_0000;

/// The low `n` bits set (`n >= 32` gives all ones).
fn mask(n: u32) -> u32 {
    if n >= 32 {
        u32::MAX
    } else {
        (1u32 << n) - 1
    }
}

/// All bits at or above the leading bit of `h` cleared; i.e. the largest
/// value with no bit above `h`'s most significant set bit.
fn ones_fill(h: u32) -> u32 {
    if h == 0 {
        0
    } else {
        mask(32 - h.leading_zeros())
    }
}

/// An abstract value: the reduced product of three component domains.
///
/// * `shape` — the symbolic Const/Affine summary of [`crate::quickpath`]
///   (with [`RetSummary::Opaque`] as its top);
/// * `lo..=hi` — an unsigned interval (`lo <= hi` always holds);
/// * `known`/`value` — known bits: every concrete value `v` this abstract
///   value describes satisfies `v & known == value`.
///
/// The product is *reduced*: information flows between components (a
/// singleton interval makes every bit known; fully known bits collapse the
/// interval; a common high prefix of `lo`/`hi` becomes known bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbsVal {
    /// Symbolic Const/Affine component (in terms of the containing
    /// function's parameters).
    pub shape: RetSummary,
    /// Unsigned interval lower bound (inclusive).
    pub lo: u32,
    /// Unsigned interval upper bound (inclusive).
    pub hi: u32,
    /// Bit mask of positions whose value is known.
    pub known: u32,
    /// The values of the known bits (`value & known == value`).
    pub value: u32,
}

impl AbsVal {
    /// The top element: no information.
    pub fn top() -> AbsVal {
        AbsVal {
            shape: RetSummary::Opaque,
            lo: 0,
            hi: u32::MAX,
            known: 0,
            value: 0,
        }
    }

    /// The singleton abstract value for the constant `c`.
    pub fn constant(c: u32) -> AbsVal {
        AbsVal {
            shape: RetSummary::Const(c),
            lo: c,
            hi: c,
            known: u32::MAX,
            value: c,
        }
    }

    /// The abstract value of parameter `index`: symbolically the identity
    /// affine form, otherwise unconstrained.
    pub fn param(index: usize) -> AbsVal {
        AbsVal {
            shape: RetSummary::Affine {
                index,
                mul: 1,
                add: 0,
            },
            lo: 0,
            hi: u32::MAX,
            known: 0,
            value: 0,
        }
    }

    /// `Some(c)` when the interval (hence the whole product) pins a single
    /// concrete value.
    pub fn as_const(&self) -> Option<u32> {
        if self.lo == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }

    /// Every concrete value this fact describes is zero.
    pub fn provably_zero(&self) -> bool {
        self.hi == 0
    }

    /// Every concrete value this fact describes is nonzero.
    pub fn provably_nonzero(&self) -> bool {
        self.lo > 0 || (self.known & self.value) != 0
    }

    /// Whether the interval and known-bits components admit `v` — the
    /// soundness predicate the property tests check against the concrete
    /// evaluator.
    pub fn contains(&self, v: u32) -> bool {
        self.lo <= v && v <= self.hi && (v & self.known) == self.value
    }

    /// Whether the shape component is consistent with concrete value `v`
    /// under the containing function's arguments `args` (missing arguments
    /// default to 0, matching the evaluator).
    pub fn shape_matches(&self, v: u32, args: &[u32]) -> bool {
        match self.shape {
            RetSummary::Const(c) => v == c,
            RetSummary::Affine { index, mul, add } => {
                let x = args.get(index).copied().unwrap_or(0);
                v == mul.wrapping_mul(x).wrapping_add(add)
            }
            RetSummary::Opaque => true,
        }
    }

    /// The join (least upper bound) of two facts: shapes must agree to
    /// survive, intervals take the hull, bits keep the agreeing positions.
    pub fn join(self, o: AbsVal) -> AbsVal {
        let shape = if self.shape == o.shape && self.shape != RetSummary::Opaque {
            self.shape
        } else {
            RetSummary::Opaque
        };
        let agree = self.known & o.known & !(self.value ^ o.value);
        AbsVal {
            shape,
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
            known: agree,
            value: self.value & agree,
        }
        .reduced()
    }

    /// Re-establishes the reduced-product invariants: bits sharpen the
    /// interval, a singleton interval makes all bits known, and the common
    /// high prefix of the bounds becomes known bits.
    pub fn reduced(mut self) -> AbsVal {
        self.value &= self.known;
        // Bits → interval: known bits bound the reachable values.
        let bmin = self.value;
        let bmax = self.value | !self.known;
        self.lo = self.lo.max(bmin);
        self.hi = self.hi.min(bmax);
        if self.lo > self.hi {
            // Only reachable on unsound inputs; fall back to the
            // bits-derived interval, which is always well-formed.
            self.lo = bmin;
            self.hi = bmax;
        }
        // Interval → bits.
        if self.lo == self.hi {
            self.known = u32::MAX;
            self.value = self.lo;
        } else {
            let diff = self.lo ^ self.hi;
            let prefix = !(u32::MAX >> diff.leading_zeros());
            self.known |= prefix;
            self.value = (self.value & !prefix) | (self.lo & prefix);
        }
        self
    }
}

/// Number of low bits of the fact that are fully known (the `low_run` of
/// formula preprocessing).
fn low_run(v: &AbsVal) -> u32 {
    (!v.known).trailing_zeros()
}

/// Number of low bits known to be zero.
fn low_zeros(v: &AbsVal) -> u32 {
    (!(v.known & !v.value)).trailing_zeros()
}

/// Signed bounds, when the unsigned interval stays within one sign class.
fn signed_bounds(v: &AbsVal) -> Option<(i32, i32)> {
    if v.hi < SIGN_BIT || v.lo >= SIGN_BIT {
        Some((v.lo as i32, v.hi as i32))
    } else {
        None
    }
}

/// Decides a predicate operator from the operand facts, if possible.
fn decide_predicate(op: Op, a: &AbsVal, b: &AbsVal) -> Option<bool> {
    let bit_conflict = (a.value ^ b.value) & a.known & b.known != 0;
    match op {
        Op::Ult => {
            if a.hi < b.lo {
                Some(true)
            } else if a.lo >= b.hi {
                Some(false)
            } else {
                None
            }
        }
        Op::Ule => {
            if a.hi <= b.lo {
                Some(true)
            } else if a.lo > b.hi {
                Some(false)
            } else {
                None
            }
        }
        Op::Slt => {
            let (alo, ahi) = signed_bounds(a)?;
            let (blo, bhi) = signed_bounds(b)?;
            if ahi < blo {
                Some(true)
            } else if alo >= bhi {
                Some(false)
            } else {
                None
            }
        }
        Op::Sle => {
            let (alo, ahi) = signed_bounds(a)?;
            let (blo, bhi) = signed_bounds(b)?;
            if ahi <= blo {
                Some(true)
            } else if alo > bhi {
                Some(false)
            } else {
                None
            }
        }
        Op::Eq => {
            if a.hi < b.lo || b.hi < a.lo || bit_conflict {
                Some(false)
            } else if a.as_const().is_some() && a.as_const() == b.as_const() {
                Some(true)
            } else {
                None
            }
        }
        Op::Ne => {
            if a.hi < b.lo || b.hi < a.lo || bit_conflict {
                Some(true)
            } else if a.as_const().is_some() && a.as_const() == b.as_const() {
                Some(false)
            } else {
                None
            }
        }
        _ => None,
    }
}

/// Interval transfer for a non-predicate binary operator.
fn interval_binary(op: Op, a: &AbsVal, b: &AbsVal) -> (u32, u32) {
    const TOP: (u32, u32) = (0, u32::MAX);
    const WRAP: u64 = 1 << 32;
    match op {
        Op::Add => {
            let ls = a.lo as u64 + b.lo as u64;
            let hs = a.hi as u64 + b.hi as u64;
            if hs < WRAP {
                (ls as u32, hs as u32)
            } else if ls >= WRAP {
                ((ls - WRAP) as u32, (hs - WRAP) as u32)
            } else {
                TOP
            }
        }
        Op::Sub => {
            if a.lo >= b.hi {
                (a.lo - b.hi, a.hi - b.lo)
            } else if a.hi < b.lo {
                // The difference is always negative: both bounds wrap.
                (a.lo.wrapping_sub(b.hi), a.hi.wrapping_sub(b.lo))
            } else {
                TOP
            }
        }
        Op::Mul => {
            if (a.hi as u64) * (b.hi as u64) < WRAP {
                (a.lo * b.lo, a.hi * b.hi)
            } else {
                TOP
            }
        }
        Op::Udiv => {
            // Both divisions succeed exactly when b.lo > 0 (which implies
            // b.hi >= b.lo > 0 for a well-formed interval).
            if let (Some(lo), Some(hi)) = (a.lo.checked_div(b.hi), a.hi.checked_div(b.lo)) {
                (lo, hi)
            } else if b.hi == 0 {
                (u32::MAX, u32::MAX) // x / 0 = 2^32 - 1
            } else {
                TOP
            }
        }
        Op::Urem => {
            if b.hi == 0 {
                (a.lo, a.hi) // x % 0 = x
            } else if b.lo > 0 {
                (0, a.hi.min(b.hi - 1))
            } else {
                (0, a.hi.max(b.hi - 1))
            }
        }
        Op::And => (0, a.hi.min(b.hi)),
        Op::Or => (a.lo.max(b.lo), ones_fill(a.hi | b.hi)),
        Op::Xor => (0, ones_fill(a.hi | b.hi)),
        Op::Shl => match b.as_const() {
            Some(k) if k >= 32 => (0, 0),
            Some(k) if ((a.hi as u64) << k) < WRAP => (a.lo << k, a.hi << k),
            _ => TOP,
        },
        Op::Lshr => match b.as_const() {
            Some(k) if k >= 32 => (0, 0),
            Some(k) => (a.lo >> k, a.hi >> k),
            None => (0, a.hi),
        },
        Op::Ashr => match b.as_const() {
            Some(k) if k >= 32 => {
                if a.hi < SIGN_BIT {
                    (0, 0)
                } else if a.lo >= SIGN_BIT {
                    (u32::MAX, u32::MAX)
                } else {
                    TOP
                }
            }
            Some(k) if a.hi < SIGN_BIT => (a.lo >> k, a.hi >> k),
            Some(k) if a.lo >= SIGN_BIT => {
                (((a.lo as i32) >> k) as u32, ((a.hi as i32) >> k) as u32)
            }
            _ => TOP,
        },
        // Predicates are handled by `decide_predicate`.
        _ => (0, 1),
    }
}

/// Known-bits transfer for a non-predicate binary operator (mirrors the
/// transfer functions of `fusion-smt`'s formula preprocessing, plus a
/// trailing-zeros refinement for `Mul`).
fn bits_binary(op: Op, a: &AbsVal, b: &AbsVal) -> (u32, u32) {
    const NONE: (u32, u32) = (0, 0);
    match op {
        Op::And => {
            let known0 = (a.known & !a.value) | (b.known & !b.value);
            let known1 = (a.known & a.value) & (b.known & b.value);
            (known0 | known1, known1)
        }
        Op::Or => {
            let known1 = (a.known & a.value) | (b.known & b.value);
            let known0 = (a.known & !a.value) & (b.known & !b.value);
            (known0 | known1, known1)
        }
        Op::Xor => {
            let known = a.known & b.known;
            (known, (a.value ^ b.value) & known)
        }
        Op::Add | Op::Sub => {
            let j = low_run(a).min(low_run(b));
            let m = mask(j);
            let v = match op {
                Op::Add => a.value.wrapping_add(b.value),
                _ => a.value.wrapping_sub(b.value),
            };
            (m, v & m)
        }
        Op::Mul => {
            // Low bits of the product are exact where both inputs are fully
            // known; additionally the product has at least as many trailing
            // zeros as its factors combined (the evenness of `2 * x` that
            // low-run alone misses).
            let j = low_run(a).min(low_run(b));
            let tz = (low_zeros(a) + low_zeros(b)).min(32);
            (mask(j) | mask(tz), a.value.wrapping_mul(b.value) & mask(j))
        }
        Op::Shl => match b.as_const() {
            Some(k) if k >= 32 => (u32::MAX, 0),
            Some(k) => (((a.known << k) | mask(k)), a.value << k),
            None => NONE,
        },
        Op::Lshr => match b.as_const() {
            Some(k) if k >= 32 => (u32::MAX, 0),
            Some(k) => ((a.known >> k) | !(u32::MAX >> k), a.value >> k),
            None => NONE,
        },
        _ => NONE,
    }
}

/// Shape transfer: exactly the Const/Affine algebra of the historical
/// quick-path propagation, so the [`RetSummary`] projection of the domain
/// reproduces it.
fn combine_shapes(op: Op, a: RetSummary, b: RetSummary) -> RetSummary {
    use RetSummary::*;
    match (op, a, b) {
        (_, Const(x), Const(y)) => Const(op.eval(x, y)),
        (Op::Add, Affine { index, mul, add }, Const(c))
        | (Op::Add, Const(c), Affine { index, mul, add }) => Affine {
            index,
            mul,
            add: add.wrapping_add(c),
        },
        (Op::Sub, Affine { index, mul, add }, Const(c)) => Affine {
            index,
            mul,
            add: add.wrapping_sub(c),
        },
        (Op::Sub, Const(c), Affine { index, mul, add }) => Affine {
            index,
            mul: 0u32.wrapping_sub(mul),
            add: c.wrapping_sub(add),
        },
        (Op::Mul, Affine { index, mul, add }, Const(c))
        | (Op::Mul, Const(c), Affine { index, mul, add }) => Affine {
            index,
            mul: mul.wrapping_mul(c),
            add: add.wrapping_mul(c),
        },
        (Op::Shl, Affine { index, mul, add }, Const(c)) if c < 32 => Affine {
            index,
            mul: mul.wrapping_shl(c),
            add: add.wrapping_shl(c),
        },
        _ => Opaque,
    }
}

/// Full binary transfer over the product domain.
fn binary(op: Op, a: AbsVal, b: AbsVal) -> AbsVal {
    let shape = combine_shapes(op, a.shape, b.shape);
    if let RetSummary::Const(c) = shape {
        return AbsVal::constant(c);
    }
    if op.is_predicate() {
        return match decide_predicate(op, &a, &b) {
            Some(t) => AbsVal::constant(t as u32),
            None => AbsVal {
                shape,
                lo: 0,
                hi: 1,
                known: !1u32,
                value: 0,
            }
            .reduced(),
        };
    }
    let (lo, hi) = interval_binary(op, &a, &b);
    let (known, value) = bits_binary(op, &a, &b);
    AbsVal {
        shape,
        lo,
        hi,
        known,
        value,
    }
    .reduced()
}

/// Composes a callee's return fact with the call's argument facts: the
/// interval/bits components transfer unchanged (they hold for *any*
/// arguments), the shape composes through the affine algebra.
fn call_compose(ret: AbsVal, args: &[VarId], vals: &[AbsVal]) -> AbsVal {
    let shape = match ret.shape {
        RetSummary::Const(c) => return AbsVal::constant(c),
        RetSummary::Affine { index, mul, add } => {
            match args.get(index).map(|a| vals[a.index()].shape) {
                Some(RetSummary::Const(c)) => {
                    return AbsVal::constant(mul.wrapping_mul(c).wrapping_add(add))
                }
                Some(RetSummary::Affine {
                    index: i,
                    mul: m,
                    add: a,
                }) => RetSummary::Affine {
                    index: i,
                    mul: mul.wrapping_mul(m),
                    add: mul.wrapping_mul(a).wrapping_add(add),
                },
                _ => RetSummary::Opaque,
            }
        }
        RetSummary::Opaque => RetSummary::Opaque,
    };
    AbsVal { shape, ..ret }.reduced()
}

/// One definition's fact from its operands' facts in `vals` (indexed by
/// [`VarId`]) and, for a call, the callee's return fact from `ret_of`.
fn transfer(kind: &DefKind, vals: &[AbsVal], ret_of: impl FnOnce(FuncId) -> AbsVal) -> AbsVal {
    match kind {
        DefKind::Param { index } => AbsVal::param(*index),
        DefKind::Const { value, .. } => AbsVal::constant(*value),
        DefKind::Copy { src } | DefKind::Return { src } => vals[src.index()],
        DefKind::Binary { op, lhs, rhs } => binary(*op, vals[lhs.index()], vals[rhs.index()]),
        DefKind::Ite {
            cond,
            then_v,
            else_v,
        } => {
            let c = vals[cond.index()];
            if c.provably_nonzero() {
                vals[then_v.index()]
            } else if c.provably_zero() {
                vals[else_v.index()]
            } else {
                vals[then_v.index()].join(vals[else_v.index()])
            }
        }
        // A branch vertex carries its condition's value but never acts
        // as data, so its shape stays opaque (matching the quick-path
        // projection) while the value facts transfer.
        DefKind::Branch { cond } => {
            let mut v = vals[cond.index()];
            v.shape = RetSummary::Opaque;
            v
        }
        DefKind::Call { callee, args, .. } => call_compose(ret_of(*callee), args, vals),
    }
}

/// The return fact a function's whole fact vector implies (top for
/// externs and functions without a return).
fn ret_of_vals(func: &Function, vals: &[AbsVal]) -> AbsVal {
    func.ret
        .filter(|_| !func.is_extern)
        .map_or_else(AbsVal::top, |r| vals[r.index()])
}

/// The per-definition abstract facts of a whole program, evaluated on
/// demand and memoized once per function.
///
/// Nothing is evaluated up front ([`ProgramFacts::new`]). The first read
/// of any fact of a function evaluates that function's whole fact vector
/// ([`ProgramFacts::function`]); a call inside it needs only the
/// callee's return fact ([`ProgramFacts::ret_fact`]), which is evaluated
/// from the definitions the callee's return depends on — its operand
/// cone — recursing into its own callees' return cones. So reading one
/// function's facts never evaluates its callees' whole bodies, and a
/// scan evaluates the few functions its triage, seeding and quick paths
/// read. [`ProgramFacts::compute`] evaluates everything.
///
/// Each memo is a [`OnceLock`], so facts are shared by reference between
/// threads. Bodies are acyclic SSA, so every fact is a pure function of
/// the definitions: whichever thread or read order fills a cell, it holds
/// the value whole-program evaluation gives, and the set of filled cells
/// depends only on which facts were read.
///
/// Facts are unconditional consequences of the acyclic SSA definitions
/// (parameters and external results are unconstrained), so they hold in
/// every calling context — caching them is *not* condition caching.
#[derive(Debug, Clone)]
pub struct ProgramFacts {
    num_functions: usize,
    program_size: usize,
    /// Each function's fact vector, indexed by [`VarId`] (empty for
    /// externs).
    funcs: Vec<OnceLock<Box<[AbsVal]>>>,
    /// Each function's return fact.
    rets: Vec<OnceLock<AbsVal>>,
}

impl ProgramFacts {
    /// Empty memos for `program`: every fact is evaluated when first read.
    pub fn new(program: &Program) -> ProgramFacts {
        let n = program.functions.len();
        ProgramFacts {
            num_functions: n,
            program_size: program.size(),
            funcs: (0..n).map(|_| OnceLock::new()).collect(),
            rets: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Reassembles facts from snapshot sections ([`crate::snapshot`]).
    /// The caller supplies exactly the vectors `compute` would have
    /// produced for the same program; `matches` still guards staleness.
    pub(crate) fn from_parts(
        num_functions: usize,
        program_size: usize,
        funcs: Vec<Vec<AbsVal>>,
        rets: Vec<AbsVal>,
    ) -> ProgramFacts {
        ProgramFacts {
            num_functions,
            program_size,
            funcs: funcs
                .into_iter()
                .map(|v| OnceLock::from(v.into_boxed_slice()))
                .collect(),
            rets: rets.into_iter().map(OnceLock::from).collect(),
        }
    }

    /// Runs the abstract interpreter over every function, bottom-up over
    /// the (acyclic, post-unrolling) call graph.
    pub fn compute(program: &Program) -> ProgramFacts {
        let facts = ProgramFacts::new(program);
        facts.evaluate_all(program);
        facts
    }

    /// Evaluates every function's facts not evaluated yet, callees'
    /// bodies before their callers', so each return fact is read off its
    /// function's evaluated body instead of a separate cone.
    pub fn evaluate_all(&self, program: &Program) {
        let mut visiting = vec![false; self.num_functions];
        for f in &program.functions {
            self.body(program, f.id, Some(&mut visiting));
        }
    }

    /// Recomputes facts after an edit, reusing every clean function's
    /// memoized values.
    ///
    /// `dirty[i]` must be true for every function whose facts may have
    /// changed: the edited functions plus their transitive *callers*
    /// (return summaries flow bottom-up, so a callee edit can change a
    /// caller's facts, but never vice versa — facts are keyed by
    /// [`FuncId`], not content, so stale entries must be evicted rather
    /// than relied on to miss). Clean functions keep the cells `prev`
    /// had filled; dirty ones start empty and are evaluated on demand.
    ///
    /// Returns the refreshed facts and the number of functions whose
    /// memoized facts were invalidated (the dirty ones).
    pub fn recompute(
        program: &Program,
        prev: &ProgramFacts,
        dirty: &[bool],
    ) -> (ProgramFacts, u64) {
        let n = program.functions.len();
        assert_eq!(dirty.len(), n, "dirty mask must cover every function");
        assert_eq!(
            prev.num_functions, n,
            "recompute requires matching function count"
        );
        fn clean<T: Clone>(cells: &[OnceLock<T>], dirty: &[bool]) -> Vec<OnceLock<T>> {
            let keep =
                |(cell, &d): (&OnceLock<T>, &bool)| if d { OnceLock::new() } else { cell.clone() };
            cells.iter().zip(dirty).map(keep).collect()
        }
        let facts = ProgramFacts {
            num_functions: n,
            program_size: program.size(),
            funcs: clean(&prev.funcs, dirty),
            rets: clean(&prev.rets, dirty),
        };
        let invalidated = dirty.iter().filter(|&&d| d).count() as u64;
        (facts, invalidated)
    }

    /// Whether these facts were computed for a program of this identity
    /// (function count and total size) — the same staleness key the solver
    /// uses for its memoized summaries.
    pub fn matches(&self, program: &Program) -> bool {
        self.num_functions == program.functions.len() && self.program_size == program.size()
    }

    /// The fact for `var` in `func` of `program`, the program these facts
    /// were made for.
    ///
    /// # Panics
    ///
    /// Panics when `func`/`var` are out of range for the analyzed program.
    pub fn value(&self, program: &Program, func: FuncId, var: VarId) -> AbsVal {
        self.function(program, func)[var.index()]
    }

    /// All facts of one function of `program`, indexed by [`VarId`],
    /// evaluated on first read.
    ///
    /// # Panics
    ///
    /// Panics when `func` is out of range for the analyzed program.
    pub fn function(&self, program: &Program, func: FuncId) -> &[AbsVal] {
        self.body(program, func, None)
    }

    /// [`Self::function`]. A call reads the callee's return fact, from
    /// its return cone; with `visiting` (whole-program evaluation, which
    /// marks the bodies it is inside) it evaluates the callee's whole body
    /// first instead, unless that body is one it is inside.
    fn body(
        &self,
        program: &Program,
        func: FuncId,
        mut visiting: Option<&mut [bool]>,
    ) -> &[AbsVal] {
        let vals = self.funcs[func.index()].get_or_init(|| {
            let f = program.func(func);
            if f.is_extern {
                return Box::default();
            }
            if let Some(v) = visiting.as_deref_mut() {
                v[func.index()] = true;
            }
            let mut active = Vec::new();
            let mut vals: Vec<AbsVal> = Vec::with_capacity(f.defs.len());
            for def in &f.defs {
                let v = transfer(&def.kind, &vals, |callee| match visiting.as_deref_mut() {
                    Some(v) if !v[callee.index()] => {
                        self.body(program, callee, Some(v));
                        self.ret_in(program, callee, &mut active)
                    }
                    _ => self.ret_in(program, callee, &mut active),
                });
                vals.push(v);
            }
            if let Some(v) = visiting {
                v[func.index()] = false;
            }
            vals.into_boxed_slice()
        });
        self.rets[func.index()].get_or_init(|| ret_of_vals(program.func(func), vals));
        vals
    }

    /// The return-value fact of `func` in `program` (top for externs),
    /// evaluated on first read from the definitions the return depends
    /// on.
    ///
    /// # Panics
    ///
    /// Panics when `func` is out of range for the analyzed program.
    pub fn ret_fact(&self, program: &Program, func: FuncId) -> AbsVal {
        self.ret_in(program, func, &mut Vec::new())
    }

    /// [`Self::ret_fact`], with `active` holding the functions whose
    /// return cones this thread is evaluating: a call back into one of
    /// them (a call cycle, which unrolling rules out) reads top, as
    /// whole-program evaluation always did, and is not memoized.
    fn ret_in(&self, program: &Program, func: FuncId, active: &mut Vec<FuncId>) -> AbsVal {
        let cell = &self.rets[func.index()];
        if let Some(r) = cell.get() {
            return *r;
        }
        let f = program.func(func);
        let r = if let Some(vals) = self.funcs[func.index()].get() {
            ret_of_vals(f, vals)
        } else if active.contains(&func) {
            return AbsVal::top();
        } else {
            active.push(func);
            let r = self.ret_cone(program, f, active);
            active.pop();
            r
        };
        *cell.get_or_init(|| r)
    }

    /// Evaluates only the definitions `func`'s return depends on: marks
    /// the return's operand cone last definition first (operands precede
    /// their users in an acyclic body), then evaluates the marked
    /// definitions in order.
    fn ret_cone(&self, program: &Program, func: &Function, active: &mut Vec<FuncId>) -> AbsVal {
        let Some(ret) = func.ret.filter(|_| !func.is_extern) else {
            return AbsVal::top();
        };
        let n = ret.index() + 1;
        let mut needed = vec![false; n];
        needed[ret.index()] = true;
        for i in (0..n).rev() {
            if needed[i] {
                for op in func.defs[i].kind.operands() {
                    needed[op.index()] = true;
                }
            }
        }
        let mut vals = vec![AbsVal::top(); n];
        for (i, def) in func.defs[..n].iter().enumerate() {
            if needed[i] {
                vals[i] = transfer(&def.kind, &vals, |callee| {
                    self.ret_in(program, callee, active)
                });
            }
        }
        vals[ret.index()]
    }

    /// Number of functions whose whole fact vector has been evaluated
    /// (or loaded). The count of filled cells, so it does not depend on
    /// which thread filled which.
    pub fn functions_evaluated(&self) -> usize {
        self.funcs.iter().filter(|c| c.get().is_some()).count()
    }

    /// Number of functions whose return fact has been evaluated (or
    /// loaded), counted like [`Self::functions_evaluated`].
    pub fn returns_evaluated(&self) -> usize {
        self.rets.iter().filter(|c| c.get().is_some()).count()
    }

    /// Whether the facts refute a single gating constraint: the constraint
    /// demands a truth value the condition's fact excludes in *every*
    /// execution, so any query conjoining it is unsatisfiable.
    pub fn constraint_refuted(&self, program: &Program, c: &Constraint) -> bool {
        match c.kind {
            ConstraintKind::BranchTrue { branch } => {
                let DefKind::Branch { cond } = program.func(c.func).def(branch).kind else {
                    return false;
                };
                self.value(program, c.func, cond).provably_zero()
            }
            ConstraintKind::IteGate { ite, taken_then } => {
                let DefKind::Ite { cond, .. } = program.func(c.func).def(ite).kind else {
                    return false;
                };
                let f = self.value(program, c.func, cond);
                if taken_then {
                    f.provably_zero()
                } else {
                    f.provably_nonzero()
                }
            }
        }
    }

    /// Refute-only triage of one dependence path.
    ///
    /// Returns `true` only when the facts *prove* the path's feasibility
    /// query unsatisfiable: some gating constraint (Rule 1/5) demands a
    /// truth value its condition can never take, or — for the null
    /// checker — the dereferenced value is provably nonzero while the path
    /// would carry the null constant into it. Never claims feasibility.
    pub fn path_refuted(&self, program: &Program, path: &DependencePath, kind: CheckKind) -> bool {
        for c in constraints_for(program, std::slice::from_ref(path)) {
            if self.constraint_refuted(program, &c) {
                return true;
            }
        }
        // Null-deref sink check: the vertex feeding the sink call is the
        // dereferenced value; the null checker's propagation policy is
        // value-preserving (no arithmetic), so a feasible path forces that
        // value to 0 — impossible when its fact excludes 0.
        if kind == CheckKind::NullDeref && path.nodes.len() >= 2 {
            let v = path.nodes[path.nodes.len() - 2];
            if self.value(program, v.func, v.var).provably_nonzero() {
                return true;
            }
        }
        false
    }

    /// Approximate heap footprint of the facts evaluated so far, for
    /// diagnostics.
    pub fn bytes(&self) -> usize {
        let per = std::mem::size_of::<AbsVal>();
        let vals: usize = self
            .funcs
            .iter()
            .filter_map(|f| f.get())
            .map(|f| f.len())
            .sum();
        (vals + self.returns_evaluated()) * per
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fusion_ir::{compile, CompileOptions};

    fn facts(src: &str) -> (Program, ProgramFacts) {
        let p = compile(src, CompileOptions::default()).expect("compile");
        let f = ProgramFacts::compute(&p);
        (p, f)
    }

    #[test]
    fn constants_are_exact() {
        let (p, f) = facts("fn f() { let a = 7; let b = a + 3; return b; }");
        let fid = p.func_by_name("f").unwrap().id;
        assert_eq!(f.ret_fact(&p, fid), AbsVal::constant(10));
        assert_eq!(f.ret_fact(&p, fid).shape, RetSummary::Const(10));
    }

    #[test]
    fn params_are_affine_but_unbounded() {
        let (p, f) = facts("fn f(x) { return x * 2 + 1; }");
        let fid = p.func_by_name("f").unwrap().id;
        let r = f.ret_fact(&p, fid);
        assert_eq!(
            r.shape,
            RetSummary::Affine {
                index: 0,
                mul: 2,
                add: 1
            }
        );
        // Bit reduction sharpens the lower bound: 2x + 1 is odd, so >= 1.
        assert_eq!((r.lo, r.hi), (1, u32::MAX));
        // 2x + 1 is odd: bit 0 is known one.
        assert_eq!(r.known & 1, 1);
        assert_eq!(r.value & 1, 1);
        assert!(r.provably_nonzero());
    }

    #[test]
    fn doubling_is_provably_even() {
        let (p, f) = facts("fn f(x) { let y = x * 2; return y; }");
        let y = f.ret_fact(&p, p.func_by_name("f").unwrap().id);
        assert_eq!(y.known & 1, 1);
        assert_eq!(y.value & 1, 0);
    }

    #[test]
    fn masking_bounds_the_interval() {
        let (p, f) = facts("fn f(x) { let b = x & 7; return b; }");
        let fid = p.func_by_name("f").unwrap().id;
        let r = f.ret_fact(&p, fid);
        assert_eq!((r.lo, r.hi), (0, 7));
        // Bits 3.. are known zero.
        assert_eq!(r.known, !7u32);
        assert_eq!(r.value, 0);
    }

    #[test]
    fn predicates_decide_from_intervals() {
        let (p, f) = facts(
            "fn f(x) { let b = x & 1; let c = b < 2; return c; }\n\
             fn g(x) { let b = x & 1; let c = 2 < b; return c; }",
        );
        assert_eq!(
            f.ret_fact(&p, p.func_by_name("f").unwrap().id).as_const(),
            {
                // b in [0,1], signed compare 0..1 < 2 always true.
                Some(1)
            }
        );
        assert_eq!(
            f.ret_fact(&p, p.func_by_name("g").unwrap().id).as_const(),
            Some(0)
        );
    }

    #[test]
    fn parity_contradiction_is_refuted() {
        let (p, f) = facts("fn f(x) { let y = x * 2; let c = y == 7; return c; }");
        let r = f.ret_fact(&p, p.func_by_name("f").unwrap().id);
        assert_eq!(r.as_const(), Some(0));
        assert!(r.provably_zero());
    }

    #[test]
    fn ite_joins_and_selects() {
        let (p, f) = facts(
            "fn join(x) { let r = 3; if (x > 0) { r = 5; } return r; }\n\
             fn sel(x) { let r = 3; if (1 < 2) { r = 5; } return r; }",
        );
        let j = f.ret_fact(&p, p.func_by_name("join").unwrap().id);
        assert_eq!((j.lo, j.hi), (3, 5));
        assert!(j.provably_nonzero());
        // A provably-true condition selects the then-arm exactly.
        let s = f.ret_fact(&p, p.func_by_name("sel").unwrap().id);
        assert_eq!(s.as_const(), Some(5));
    }

    #[test]
    fn calls_transfer_interval_facts_and_compose_shapes() {
        let (p, f) = facts(
            "fn low(x) { let b = x & 3; return b; }\n\
             fn double(x) { return x * 2; }\n\
             fn use1(a) { let v = low(a); return v; }\n\
             fn use2(a) { let v = double(a) + 1; return v; }",
        );
        let u1 = f.ret_fact(&p, p.func_by_name("use1").unwrap().id);
        assert_eq!((u1.lo, u1.hi), (0, 3));
        let u2 = f.ret_fact(&p, p.func_by_name("use2").unwrap().id);
        assert_eq!(
            u2.shape,
            RetSummary::Affine {
                index: 0,
                mul: 2,
                add: 1
            }
        );
        assert!(u2.provably_nonzero()); // odd
    }

    #[test]
    fn externs_are_top() {
        let (p, f) = facts("extern fn lib(x); fn f(x) { return lib(x); }");
        let fid = p.func_by_name("f").unwrap().id;
        assert_eq!(f.ret_fact(&p, fid), AbsVal::top());
        assert_eq!(f.ret_fact(&p, fid).shape, RetSummary::Opaque);
    }

    #[test]
    fn reduction_syncs_components() {
        let v = AbsVal {
            shape: RetSummary::Opaque,
            lo: 4,
            hi: 5,
            known: 0,
            value: 0,
        }
        .reduced();
        // Common prefix of 4 (100) and 5 (101) is known.
        assert_eq!(v.known, !1u32);
        assert_eq!(v.value, 4);
        assert!(v.provably_nonzero());
        let c = AbsVal {
            shape: RetSummary::Opaque,
            lo: 9,
            hi: 9,
            known: 0,
            value: 0,
        }
        .reduced();
        assert_eq!(c.known, u32::MAX);
        assert_eq!(c.value, 9);
    }

    #[test]
    fn division_semantics_match_the_ir() {
        // x / 0 = MAX, x % 0 = x.
        let (p, f) = facts("fn f(x) { let z = 0; let d = x / z; return d; }");
        let r = f.ret_fact(&p, p.func_by_name("f").unwrap().id);
        assert_eq!(r.as_const(), Some(u32::MAX));
        let (p2, f2) = facts("fn f(x) { let z = 0; let d = x % z; let c = d == x; return c; }");
        // d == x is not decided (both Top), but must not be refuted.
        let r2 = f2.ret_fact(&p2, p2.func_by_name("f").unwrap().id);
        assert_eq!(r2.as_const(), None);
    }

    #[test]
    fn guard_refutation_on_a_real_path() {
        // The guard `y == 7` with y provably even can never hold; every
        // dependence path gated by it is refuted.
        let src = "extern fn deref(p);\n\
                   fn f(x) { let y = x * 2; let q = null; let r = 1;\n\
                   if (y == 7) { r = q; } deref(r); return 0; }";
        let p = compile(src, CompileOptions::default()).unwrap();
        let f = ProgramFacts::compute(&p);
        let pdg = fusion_pdg::graph::Pdg::build(&p);
        let checker = crate::checkers::Checker::null_deref();
        let d = crate::propagate::discover(&p, &pdg, &checker, &Default::default());
        assert!(!d.is_empty());
        for cand in &d {
            for path in &cand.paths {
                assert!(f.path_refuted(&p, path, CheckKind::NullDeref));
            }
        }
    }

    #[test]
    fn feasible_paths_are_never_refuted() {
        let src = "extern fn deref(p);\n\
                   fn f(x) { let q = null; let r = 1;\n\
                   if (x > 0) { r = q; } deref(r); return 0; }";
        let p = compile(src, CompileOptions::default()).unwrap();
        let f = ProgramFacts::compute(&p);
        let pdg = fusion_pdg::graph::Pdg::build(&p);
        let checker = crate::checkers::Checker::null_deref();
        let d = crate::propagate::discover(&p, &pdg, &checker, &Default::default());
        let any_unrefuted = d
            .iter()
            .flat_map(|c| c.paths.iter())
            .any(|path| !f.path_refuted(&p, path, CheckKind::NullDeref));
        assert!(any_unrefuted);
    }

    #[test]
    fn recompute_with_dirty_callers_matches_cold_compute() {
        let old_src = "fn callee(x) { let b = x & 3; return b; }\n\
                       fn caller(a) { let v = callee(a); return v + 1; }\n\
                       fn lone(y) { return y * 2; }";
        let new_src = "fn callee(x) { let b = x & 7; return b; }\n\
                       fn caller(a) { let v = callee(a); return v + 1; }\n\
                       fn lone(y) { return y * 2; }";
        let (old_p, old_f) = facts(old_src);
        let new_p = compile(new_src, CompileOptions::default()).unwrap();
        let cold = ProgramFacts::compute(&new_p);
        // callee edited ⇒ callee and its transitive caller are dirty;
        // `lone` keeps its memoized facts.
        let callee = old_p.func_by_name("callee").unwrap().id;
        let caller = old_p.func_by_name("caller").unwrap().id;
        let mut dirty = vec![false; old_p.functions.len()];
        dirty[callee.index()] = true;
        dirty[caller.index()] = true;
        let (warm, invalidated) = ProgramFacts::recompute(&new_p, &old_f, &dirty);
        assert_eq!(invalidated, 2);
        // Only `lone`'s evaluated cells survive; the dirty two start empty.
        assert_eq!(warm.functions_evaluated(), 1);
        assert_eq!(warm.returns_evaluated(), 1);
        for f in &new_p.functions {
            assert_eq!(warm.function(&new_p, f.id), cold.function(&new_p, f.id));
            assert_eq!(warm.ret_fact(&new_p, f.id), cold.ret_fact(&new_p, f.id));
        }
        assert!(warm.matches(&new_p));
    }

    #[test]
    fn facts_match_program_identity() {
        let (p, f) = facts("fn f(x) { return x; }");
        assert!(f.matches(&p));
        let other = compile("fn g(x, y) { return x + y; }", CompileOptions::default()).unwrap();
        assert!(!f.matches(&other));
        assert!(f.bytes() > 0);
    }
}
