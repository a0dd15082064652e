//! Bit-blasting: Tseitin translation of bit-vector terms to CNF.
//!
//! The "specific solver" stage of Algorithm 3 in the paper: when
//! preprocessing cannot decide satisfiability, each variable is modeled as a
//! bit vector of its type's width, the condition is blasted to a pure
//! Boolean formula, and the SAT solver decides it (§4, *SMT Solver in
//! Fusion*).
//!
//! Encodings are the standard ones, with Z3's full adder
//! (`mk_full_adder` = `mk_xor3` + `mk_carry`) as the chain cell:
//!
//! * two-input `and`/`or` (3 clauses) and `xor` (4 clauses) gates, one
//!   variable each, and a `mux` built from them, for Boolean structure,
//!   bitwise ops, `ite` and equality;
//! * ripple-carry adders, one three-input xor (8 clauses) and one majority
//!   gate (6 clauses) per bit, with no carry out of the top bit; `sub` adds
//!   the complement with a carry-in of 1;
//! * shift-add multipliers, one truncated adder per row;
//! * division via the multiply-check identity at double width;
//! * barrel shifters;
//! * borrow-chain comparators, one majority gate per bit.
//!
//! Every gate folds constant and repeated inputs instead of allocating a
//! variable, so a chain over a constant operand shrinks to the two-input
//! gates its constant bits leave.

use crate::cnf::{Cnf, Lit};
use crate::sat::SatSolver;
use crate::term::{BvOp, BvPred, Sort, TermId, TermKind, TermPool, VarIdx};
use std::collections::HashMap;

/// The blasted image of a term: one literal for booleans, a little-endian
/// literal vector for bit vectors.
#[derive(Debug, Clone)]
enum Bits {
    Bool(Lit),
    Bv(Vec<Lit>),
}

/// Mapping from SMT variables to their CNF literals, used to pull a
/// bit-vector model out of a SAT model.
#[derive(Debug, Clone, Default)]
pub struct BlastMap {
    bool_vars: HashMap<VarIdx, Lit>,
    bv_vars: HashMap<VarIdx, Vec<Lit>>,
}

impl BlastMap {
    /// Reads back the value of `v` from a SAT model (`model[i]` = value of
    /// CNF variable `i`). Unmapped variables (eliminated before blasting)
    /// return `None`.
    pub fn value(&self, v: VarIdx, model: &[bool]) -> Option<u64> {
        if let Some(l) = self.bool_vars.get(&v) {
            let raw = model[l.var().index()];
            return Some(u64::from(if l.is_pos() { raw } else { !raw }));
        }
        let bits = self.bv_vars.get(&v)?;
        let mut out = 0u64;
        for (i, l) in bits.iter().enumerate() {
            let raw = model[l.var().index()];
            let b = if l.is_pos() { raw } else { !raw };
            if b {
                out |= 1 << i;
            }
        }
        Some(out)
    }
}

/// A bit-blaster whose gate memo table, variable map, and CNF variable
/// universe persist across formulas.
///
/// Cold-solve uses it once per formula (via [`blast`]); a
/// [`crate::session::SolveSession`] keeps one alive for a whole sequence of
/// related formulas so shared subterms (memoized by [`TermId`]) are Tseitin-
/// translated exactly once. The memo is keyed by `TermId`, so it is only
/// valid as long as the companion [`TermPool`] is append-only — resetting the
/// pool requires dropping the blaster too.
#[derive(Debug)]
pub struct SessionBlaster {
    cnf: Cnf,
    memo: HashMap<TermId, Bits>,
    map: BlastMap,
    true_lit: Lit,
}

impl Default for SessionBlaster {
    fn default() -> Self {
        SessionBlaster::new()
    }
}

impl SessionBlaster {
    /// Creates an empty blaster with its constant-true literal allocated.
    pub fn new() -> Self {
        let mut cnf = Cnf::new();
        let t = cnf.fresh();
        let true_lit = Lit::pos(t);
        cnf.add_unit(true_lit);
        SessionBlaster {
            cnf,
            memo: HashMap::new(),
            map: BlastMap::default(),
            true_lit,
        }
    }

    /// Blasts a boolean `formula` and returns its root literal *without*
    /// asserting it. The definitional (Tseitin) clauses emitted are full
    /// biconditionals, so the root literal is equivalent to the formula and
    /// can be asserted directly — or passed as an assumption to
    /// [`SatSolver::solve_under_assumptions`] for incremental use.
    ///
    /// # Panics
    ///
    /// Panics if `formula` is not boolean-sorted (an internal sort error).
    pub fn blast_root(&mut self, pool: &TermPool, formula: TermId) -> Lit {
        assert_eq!(
            pool.sort(formula),
            Sort::Bool,
            "blast: formula must be Bool"
        );
        let Bits::Bool(root) = self.blast(pool, formula) else {
            unreachable!("formula is Bool")
        };
        root
    }

    /// The variable map for model extraction. Accumulates entries for every
    /// variable blasted so far in the session.
    pub fn map(&self) -> &BlastMap {
        &self.map
    }

    /// Number of CNF variables allocated so far (monotone over the session).
    pub fn num_cnf_vars(&self) -> u32 {
        self.cnf.num_vars
    }

    /// Number of distinct terms translated so far.
    pub fn memo_len(&self) -> usize {
        self.memo.len()
    }

    /// Adds every clause emitted since the last drain to `solver`, growing
    /// its variable universe first, and returns how many there were. After
    /// this call the blaster holds no pending clauses (the solver owns the
    /// only copy; the blaster keeps its buffers' capacity).
    pub fn drain_into(&mut self, solver: &mut SatSolver) -> usize {
        solver.ensure_vars(self.cnf.num_vars as usize);
        for clause in self.cnf.iter() {
            solver.add_clause_incremental(clause);
        }
        let n = self.cnf.num_clauses();
        self.cnf.clear_clauses();
        n
    }

    fn konst(&self, b: bool) -> Lit {
        if b {
            self.true_lit
        } else {
            !self.true_lit
        }
    }

    fn is_true(&self, l: Lit) -> bool {
        l == self.true_lit
    }

    fn is_false(&self, l: Lit) -> bool {
        l == !self.true_lit
    }

    fn fresh(&mut self) -> Lit {
        Lit::pos(self.cnf.fresh())
    }

    fn gate_and(&mut self, a: Lit, b: Lit) -> Lit {
        if self.is_false(a) || self.is_false(b) {
            return self.konst(false);
        }
        if self.is_true(a) {
            return b;
        }
        if self.is_true(b) || a == b {
            return a;
        }
        if a == !b {
            return self.konst(false);
        }
        let o = self.fresh();
        self.cnf.add(&[!o, a]);
        self.cnf.add(&[!o, b]);
        self.cnf.add(&[o, !a, !b]);
        o
    }

    fn gate_or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.gate_and(!a, !b)
    }

    fn gate_xor(&mut self, a: Lit, b: Lit) -> Lit {
        if self.is_false(a) {
            return b;
        }
        if self.is_false(b) {
            return a;
        }
        if self.is_true(a) {
            return !b;
        }
        if self.is_true(b) {
            return !a;
        }
        if a == b {
            return self.konst(false);
        }
        if a == !b {
            return self.konst(true);
        }
        let o = self.fresh();
        self.cnf.add(&[!o, a, b]);
        self.cnf.add(&[!o, !a, !b]);
        self.cnf.add(&[o, !a, b]);
        self.cnf.add(&[o, a, !b]);
        o
    }

    /// `a ⊕ b ⊕ c`: one variable and 8 clauses, a full biconditional. A
    /// constant input folds it to [`Self::gate_xor`] of the other two (the
    /// complement for a true input), a repeated input to the third input
    /// (`a ⊕ a ⊕ c = c`, `a ⊕ ¬a ⊕ c = ¬c`).
    fn gate_xor3(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        for (k, x, y) in [(a, b, c), (b, a, c), (c, a, b)] {
            if self.is_false(k) {
                return self.gate_xor(x, y);
            }
            if self.is_true(k) {
                return !self.gate_xor(x, y);
            }
        }
        for (x, y, z) in [(a, b, c), (a, c, b), (b, c, a)] {
            if x == y {
                return z;
            }
            if x == !y {
                return !z;
            }
        }
        let o = self.fresh();
        // o ⟹ odd parity.
        self.cnf.add(&[!o, a, b, c]);
        self.cnf.add(&[!o, a, !b, !c]);
        self.cnf.add(&[!o, !a, b, !c]);
        self.cnf.add(&[!o, !a, !b, c]);
        // ¬o ⟹ even parity.
        self.cnf.add(&[o, !a, b, c]);
        self.cnf.add(&[o, a, !b, c]);
        self.cnf.add(&[o, a, b, !c]);
        self.cnf.add(&[o, !a, !b, !c]);
        o
    }

    /// Majority of `a`, `b`, `c` (a full adder's carry): one variable and 6
    /// clauses, a full biconditional. A true input folds it to
    /// [`Self::gate_or`] of the other two and a false input to
    /// [`Self::gate_and`]; a repeated input folds it too (`maj(a, a, c) =
    /// a`, `maj(a, ¬a, c) = c`).
    fn gate_maj(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        for (k, x, y) in [(a, b, c), (b, a, c), (c, a, b)] {
            if self.is_true(k) {
                return self.gate_or(x, y);
            }
            if self.is_false(k) {
                return self.gate_and(x, y);
            }
        }
        for (x, y, z) in [(a, b, c), (a, c, b), (b, c, a)] {
            if x == y {
                return x;
            }
            if x == !y {
                return z;
            }
        }
        let o = self.fresh();
        // o ⟹ at least two inputs true.
        self.cnf.add(&[!o, a, b]);
        self.cnf.add(&[!o, a, c]);
        self.cnf.add(&[!o, b, c]);
        // ¬o ⟹ at least two inputs false.
        self.cnf.add(&[o, !a, !b]);
        self.cnf.add(&[o, !a, !c]);
        self.cnf.add(&[o, !b, !c]);
        o
    }

    fn gate_mux(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        if self.is_true(c) {
            return t;
        }
        if self.is_false(c) {
            return e;
        }
        if t == e {
            return t;
        }
        let a = self.gate_and(c, t);
        let b = self.gate_and(!c, e);
        self.gate_or(a, b)
    }

    fn big_and(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.konst(true);
        for &l in lits {
            acc = self.gate_and(acc, l);
        }
        acc
    }

    fn big_or(&mut self, lits: &[Lit]) -> Lit {
        let mut acc = self.konst(false);
        for &l in lits {
            acc = self.gate_or(acc, l);
        }
        acc
    }

    /// Ripple-carry adder over literal vectors: one [`Self::gate_xor3`]
    /// (sum) and one [`Self::gate_maj`] (carry) per bit. Returns the sum
    /// only; the carry out of the top bit is not built, since every
    /// caller truncates to the operand width.
    fn adder(&mut self, a: &[Lit], b: &[Lit], mut carry: Lit) -> Vec<Lit> {
        debug_assert_eq!(a.len(), b.len());
        let mut sum = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            sum.push(self.gate_xor3(a[i], b[i], carry));
            if i + 1 < a.len() {
                carry = self.gate_maj(a[i], b[i], carry);
            }
        }
        sum
    }

    fn sub(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let inv: Vec<Lit> = b.iter().map(|&l| !l).collect();
        self.adder(a, &inv, self.konst(true))
    }

    /// Shift-add multiplier, truncated to `out_width` bits.
    fn mul(&mut self, a: &[Lit], b: &[Lit], out_width: usize) -> Vec<Lit> {
        let mut acc = vec![self.konst(false); out_width];
        for (i, &bi) in b.iter().enumerate().take(out_width) {
            if self.is_false(bi) {
                continue;
            }
            // addend = (a << i) & replicate(bi), truncated.
            let mut addend = vec![self.konst(false); out_width];
            for j in 0..out_width.saturating_sub(i) {
                let abit = if j < a.len() { a[j] } else { self.konst(false) };
                addend[i + j] = self.gate_and(abit, bi);
            }
            acc = self.adder(&acc, &addend, self.konst(false));
        }
        acc
    }

    /// `a < b` unsigned via the borrow chain of `a - b`: one majority
    /// gate per bit, `borrow' = maj(¬a, b, borrow)`.
    fn ult(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut borrow = self.konst(false);
        for i in 0..a.len() {
            borrow = self.gate_maj(!a[i], b[i], borrow);
        }
        borrow
    }

    fn eq_bits(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut acc = self.konst(true);
        for i in 0..a.len() {
            let x = self.gate_xor(a[i], b[i]);
            acc = self.gate_and(acc, !x);
        }
        acc
    }

    /// Barrel shifter. `fill` supplies the shifted-in bit (for `ashr`, the
    /// sign bit), and `left` selects direction.
    fn shift(&mut self, a: &[Lit], b: &[Lit], left: bool, fill: Lit) -> Vec<Lit> {
        let w = a.len();
        let mut cur = a.to_vec();
        let mut k = 0usize;
        while (1usize << k) < w {
            let amount = 1usize << k;
            let bit = if k < b.len() { b[k] } else { self.konst(false) };
            let mut shifted = vec![fill; w];
            for i in 0..w {
                if left {
                    if i >= amount {
                        shifted[i] = cur[i - amount];
                    } else {
                        shifted[i] = self.konst(false);
                    }
                } else if i + amount < w {
                    shifted[i] = cur[i + amount];
                }
            }
            let mut next = Vec::with_capacity(w);
            for i in 0..w {
                next.push(self.gate_mux(bit, shifted[i], cur[i]));
            }
            cur = next;
            k += 1;
        }
        // Shift amounts >= w: result is all-fill (left: all zero). High
        // bits of the amount imply >= 2^k >= w.
        let mut big_bits: Vec<Lit> = b.iter().skip(k).copied().collect();
        // When w is not a power of two, amounts in [w, 2^k) are encodable
        // in the low k bits; detect them numerically (w fits in k bits).
        if !w.is_power_of_two() && k > 0 {
            let w_lits: Vec<Lit> = (0..k)
                .map(|i| {
                    if (w >> i) & 1 == 1 {
                        self.konst(true)
                    } else {
                        self.konst(false)
                    }
                })
                .collect();
            let low: Vec<Lit> = b.iter().take(k).copied().collect();
            let lt_w = self.ult(&low, &w_lits);
            big_bits.push(!lt_w);
        }
        let big = self.big_or(&big_bits);
        let fill_final = if left { self.konst(false) } else { fill };
        cur.iter()
            .map(|&l| self.gate_mux(big, fill_final, l))
            .collect()
    }

    fn blast(&mut self, pool: &TermPool, t: TermId) -> Bits {
        if let Some(b) = self.memo.get(&t) {
            return b.clone();
        }
        let result = match pool.kind(t).clone() {
            TermKind::BoolConst(b) => Bits::Bool(self.konst(b)),
            TermKind::BvConst { width, value } => {
                let bits = (0..width)
                    .map(|i| self.konst((value >> i) & 1 == 1))
                    .collect();
                Bits::Bv(bits)
            }
            TermKind::Var(v) => match pool.var_sort(v) {
                Sort::Bool => {
                    let l = self.fresh();
                    self.map.bool_vars.insert(v, l);
                    Bits::Bool(l)
                }
                Sort::Bv(w) => {
                    let bits: Vec<Lit> = (0..w).map(|_| self.fresh()).collect();
                    self.map.bv_vars.insert(v, bits.clone());
                    Bits::Bv(bits)
                }
            },
            TermKind::Not(x) => {
                let Bits::Bool(l) = self.blast(pool, x) else {
                    unreachable!("not: bool")
                };
                Bits::Bool(!l)
            }
            TermKind::And(xs) => {
                let lits: Vec<Lit> = xs
                    .iter()
                    .map(|&x| {
                        let Bits::Bool(l) = self.blast(pool, x) else {
                            unreachable!("and: bool")
                        };
                        l
                    })
                    .collect();
                Bits::Bool(self.big_and(&lits))
            }
            TermKind::Or(xs) => {
                let lits: Vec<Lit> = xs
                    .iter()
                    .map(|&x| {
                        let Bits::Bool(l) = self.blast(pool, x) else {
                            unreachable!("or: bool")
                        };
                        l
                    })
                    .collect();
                Bits::Bool(self.big_or(&lits))
            }
            TermKind::Eq(a, b) => match (self.blast(pool, a), self.blast(pool, b)) {
                (Bits::Bool(x), Bits::Bool(y)) => Bits::Bool(!self.gate_xor(x, y)),
                (Bits::Bv(x), Bits::Bv(y)) => Bits::Bool(self.eq_bits(&x, &y)),
                _ => unreachable!("eq: sort mismatch"),
            },
            TermKind::Ite {
                cond,
                then_t,
                else_t,
            } => {
                let Bits::Bool(c) = self.blast(pool, cond) else {
                    unreachable!("ite cond")
                };
                match (self.blast(pool, then_t), self.blast(pool, else_t)) {
                    (Bits::Bool(x), Bits::Bool(y)) => Bits::Bool(self.gate_mux(c, x, y)),
                    (Bits::Bv(x), Bits::Bv(y)) => {
                        let bits = (0..x.len()).map(|i| self.gate_mux(c, x[i], y[i])).collect();
                        Bits::Bv(bits)
                    }
                    _ => unreachable!("ite: sort mismatch"),
                }
            }
            TermKind::Pred(p, a, b) => {
                let Bits::Bv(mut x) = self.blast(pool, a) else {
                    unreachable!("pred lhs")
                };
                let Bits::Bv(mut y) = self.blast(pool, b) else {
                    unreachable!("pred rhs")
                };
                let (swap, strict_complement) = match p {
                    BvPred::Ult | BvPred::Slt => (false, false),
                    // a <= b  ⟺  ¬(b < a)
                    BvPred::Ule | BvPred::Sle => (true, true),
                };
                if matches!(p, BvPred::Slt | BvPred::Sle) {
                    // Signed comparison: flip both MSBs and compare unsigned.
                    let n = x.len();
                    x[n - 1] = !x[n - 1];
                    y[n - 1] = !y[n - 1];
                }
                let l = if swap {
                    self.ult(&y, &x)
                } else {
                    self.ult(&x, &y)
                };
                Bits::Bool(if strict_complement { !l } else { l })
            }
            TermKind::Bv(op, a, b) => {
                let Bits::Bv(x) = self.blast(pool, a) else {
                    unreachable!("bv lhs")
                };
                let Bits::Bv(y) = self.blast(pool, b) else {
                    unreachable!("bv rhs")
                };
                let w = x.len();
                let bits = match op {
                    BvOp::Add => self.adder(&x, &y, self.konst(false)),
                    BvOp::Sub => self.sub(&x, &y),
                    BvOp::Mul => self.mul(&x, &y, w),
                    BvOp::And => (0..w).map(|i| self.gate_and(x[i], y[i])).collect(),
                    BvOp::Or => (0..w).map(|i| self.gate_or(x[i], y[i])).collect(),
                    BvOp::Xor => (0..w).map(|i| self.gate_xor(x[i], y[i])).collect(),
                    BvOp::Shl => {
                        let f = self.konst(false);
                        self.shift(&x, &y, true, f)
                    }
                    BvOp::Lshr => {
                        let f = self.konst(false);
                        self.shift(&x, &y, false, f)
                    }
                    BvOp::Ashr => {
                        let sign = x[w - 1];
                        self.shift(&x, &y, false, sign)
                    }
                    BvOp::Udiv | BvOp::Urem => self.divrem(&x, &y, op),
                };
                Bits::Bv(bits)
            }
        };
        self.memo.insert(t, result.clone());
        result
    }

    /// Division/remainder via the multiply-check identity at double width:
    /// fresh `q`, `r` with `q*b + r == a` (no overflow, checked at `2w`
    /// bits) and `r < b`, with the SMT-LIB `b == 0` special case.
    fn divrem(&mut self, a: &[Lit], b: &[Lit], op: BvOp) -> Vec<Lit> {
        let w = a.len();
        let q: Vec<Lit> = (0..w).map(|_| self.fresh()).collect();
        let r: Vec<Lit> = (0..w).map(|_| self.fresh()).collect();
        let zero_w: Vec<Lit> = vec![self.konst(false); w];
        // b == 0?
        let bz = {
            let z = zero_w.clone();
            self.eq_bits(b, &z)
        };
        // Wide product check: zext(q) * zext(b) + zext(r) == zext(a).
        let zext = |bits: &[Lit], f: Lit| {
            let mut v = bits.to_vec();
            v.resize(2 * w, f);
            v
        };
        let f = self.konst(false);
        let qw = zext(&q, f);
        let bw = zext(b, f);
        let rw = zext(&r, f);
        let aw = zext(a, f);
        let prod = self.mul(&qw, &bw, 2 * w);
        let sum = self.adder(&prod, &rw, self.konst(false));
        let exact = self.eq_bits(&sum, &aw);
        let rem_lt = self.ult(&r, b);
        let ok_div = self.gate_and(exact, rem_lt);
        // b == 0 case: q = all-ones, r = a.
        let ones: Vec<Lit> = vec![self.konst(true); w];
        let q_ones = self.eq_bits(&q, &ones);
        let r_is_a = self.eq_bits(&r, a);
        let ok_zero = self.gate_and(q_ones, r_is_a);
        let chosen = self.gate_mux(bz, ok_zero, ok_div);
        self.cnf.add_unit(chosen);
        match op {
            BvOp::Udiv => q,
            BvOp::Urem => r,
            _ => unreachable!(),
        }
    }
}

/// Blasts a boolean `formula` into CNF, asserting it true. Returns the CNF
/// and the variable map for model extraction.
///
/// # Panics
///
/// Panics if `formula` is not boolean-sorted (an internal sort error).
pub fn blast(pool: &TermPool, formula: TermId) -> (Cnf, BlastMap) {
    let mut b = SessionBlaster::new();
    let root = b.blast_root(pool, formula);
    b.cnf.add_unit(root);
    (b.cnf, b.map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::{solve_cnf, SatBudget, SatOutcome};
    use crate::term::Sort;
    use std::collections::HashMap as Map;

    /// Blast `formula`, solve, and on SAT check the model against `eval`.
    fn solve_and_check(pool: &TermPool, formula: TermId) -> bool {
        let (cnf, map) = blast(pool, formula);
        match solve_cnf(&cnf, SatBudget::default()) {
            SatOutcome::Sat(model) => {
                let mut env: Map<VarIdx, u64> = Map::new();
                for v in pool.free_vars(formula) {
                    if let Some(val) = map.value(v, &model) {
                        env.insert(v, val);
                    }
                }
                let val = pool.eval(formula, &env);
                assert_eq!(
                    val,
                    crate::term::Value::Bool(true),
                    "model does not satisfy formula"
                );
                true
            }
            SatOutcome::Unsat => false,
            SatOutcome::Unknown => panic!("unexpected unknown"),
        }
    }

    #[test]
    fn add_equation_solvable() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let c3 = p.bv_const(3, 8);
        let c10 = p.bv_const(10, 8);
        let sum = p.bv(BvOp::Add, x, c3);
        let f = p.eq(sum, c10);
        assert!(solve_and_check(&p, f));
    }

    #[test]
    fn contradictory_equation_unsat() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let c3 = p.bv_const(3, 8);
        let c10 = p.bv_const(10, 8);
        let c11 = p.bv_const(11, 8);
        let sum = p.bv(BvOp::Add, x, c3);
        let e1 = p.eq(sum, c10);
        let e2 = p.eq(sum, c11);
        let f = p.and2(e1, e2);
        assert!(!solve_and_check(&p, f));
    }

    #[test]
    fn mul_inverse_exists_for_odd() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let c3 = p.bv_const(3, 8);
        let one = p.bv_const(1, 8);
        let prod = p.bv(BvOp::Mul, x, c3);
        let f = p.eq(prod, one);
        assert!(solve_and_check(&p, f)); // 3 * 171 = 513 = 1 mod 256
    }

    #[test]
    fn mul_by_even_cannot_be_odd() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let c2 = p.bv_const(2, 8);
        let one = p.bv_const(1, 8);
        let prod = p.bv(BvOp::Mul, x, c2);
        let f = p.eq(prod, one);
        assert!(!solve_and_check(&p, f));
    }

    #[test]
    fn unsigned_comparison() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let c5 = p.bv_const(5, 8);
        let lt = p.pred(BvPred::Ult, x, c5);
        let c4 = p.bv_const(4, 8);
        let ge = p.pred(BvPred::Ule, c4, x);
        let f = p.and2(lt, ge); // x == 4
        assert!(solve_and_check(&p, f));
        let gt5 = p.pred(BvPred::Ult, c5, x);
        let f2 = p.and2(lt, gt5);
        assert!(!solve_and_check(&p, f2));
    }

    #[test]
    fn signed_comparison_wraps() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let zero = p.bv_const(0, 8);
        let neg = p.pred(BvPred::Slt, x, zero); // x < 0 signed
        let c200 = p.bv_const(200, 8); // = -56 signed
        let isc = p.eq(x, c200);
        let f = p.and2(neg, isc);
        assert!(solve_and_check(&p, f));
    }

    #[test]
    fn shifts_match_semantics() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let amt = p.var("s", Sort::Bv(8));
        let shifted = p.bv(BvOp::Shl, x, amt);
        let c1 = p.bv_const(1, 8);
        let c16 = p.bv_const(16, 8);
        let e1 = p.eq(x, c1);
        let e2 = p.eq(shifted, c16);
        let f = p.and(&[e1, e2]); // 1 << s == 16 → s == 4
        assert!(solve_and_check(&p, f));
    }

    #[test]
    fn shift_by_width_or_more_is_zero() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let c9 = p.bv_const(9, 8);
        let sh = p.bv(BvOp::Lshr, x, c9);
        let zero = p.bv_const(0, 8);
        let f = p.ne(sh, zero);
        assert!(!solve_and_check(&p, f));
    }

    #[test]
    fn division_identity() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(6));
        let c7 = p.bv_const(7, 6);
        let q = p.bv(BvOp::Udiv, x, c7);
        let c5 = p.bv_const(5, 6);
        let f = p.eq(q, c5); // x in [35, 41]
        assert!(solve_and_check(&p, f));
    }

    #[test]
    fn division_by_zero_is_all_ones() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(6));
        let zero = p.bv_const(0, 6);
        let q = p.bv(BvOp::Udiv, x, zero);
        let ones = p.bv_const(63, 6);
        let f = p.ne(q, ones);
        assert!(!solve_and_check(&p, f));
    }

    #[test]
    fn remainder_bounds() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(6));
        let c5 = p.bv_const(5, 6);
        let r = p.bv(BvOp::Urem, x, c5);
        let ge5 = p.pred(BvPred::Ule, c5, r);
        assert!(!solve_and_check(&p, ge5));
    }

    #[test]
    fn ite_blasting() {
        let mut p = TermPool::new();
        let c = p.var("c", Sort::Bool);
        let a = p.bv_const(3, 8);
        let b = p.bv_const(7, 8);
        let x = p.ite(c, a, b);
        let c7 = p.bv_const(7, 8);
        let f1 = p.eq(x, c7);
        assert!(solve_and_check(&p, f1)); // choose c = false
        let c9 = p.bv_const(9, 8);
        let f2 = p.eq(x, c9);
        assert!(!solve_and_check(&p, f2));
    }

    #[test]
    fn ashr_fills_sign() {
        let mut p = TermPool::new();
        let x = p.var("x", Sort::Bv(8));
        let c128 = p.bv_const(0x80, 8);
        let amt = p.bv_const(2, 8);
        let e1 = p.eq(x, c128);
        let sh = p.bv(BvOp::Ashr, x, amt);
        let want = p.bv_const(0xe0, 8);
        let e2 = p.eq(sh, want);
        let both = p.and2(e1, e2);
        assert!(solve_and_check(&p, both));
    }
}
