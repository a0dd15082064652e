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
//!
//! A bit vector's literals are a run of one buffer ([`BlastMap`]), and the
//! memo maps each blasted term to its run in a dense table, so a memo hit
//! copies two words. The encoders work in reused buffers; only division
//! allocates its own.

use crate::cnf::{Cnf, Lit};
use crate::dense::IdMap;
use crate::sat::SatSolver;
use crate::term::{BvOp, BvPred, Sort, TermId, TermKind, TermPool, VarIdx};
use std::ops::Range;

/// The blasted image of a term: one literal for a boolean, a run of the
/// literal buffer for a bit vector (little-endian).
#[derive(Debug, Clone, Copy)]
enum Bits {
    Bool(Lit),
    Bv { start: u32, width: u32 },
}

impl Default for Bits {
    /// The value of an empty table slot; never read.
    fn default() -> Self {
        Bits::Bool(Lit(0))
    }
}

impl Bits {
    fn lit(self) -> Lit {
        match self {
            Bits::Bool(l) => l,
            Bits::Bv { .. } => unreachable!("expected a Bool term"),
        }
    }

    fn range(self) -> Range<usize> {
        match self {
            Bits::Bv { start, width } => start as usize..(start + width) as usize,
            Bits::Bool(_) => unreachable!("expected a bit-vector term"),
        }
    }
}

/// Mapping from SMT variables to their CNF literals, used to pull a
/// bit-vector model out of a SAT model.
#[derive(Debug, Clone, Default)]
pub struct BlastMap {
    /// The literals of every blasted bit vector, each term's a run.
    lits: Vec<Lit>,
    /// Each blasted variable's image.
    vars: IdMap<VarIdx, Bits>,
}

impl BlastMap {
    /// Reads back the value of `v` from a SAT model (`model[i]` = value of
    /// CNF variable `i`). Unmapped variables (eliminated before blasting)
    /// return `None`.
    pub fn value(&self, v: VarIdx, model: &[bool]) -> Option<u64> {
        let read = |l: Lit| {
            let raw = model[l.var().index()];
            if l.is_pos() {
                raw
            } else {
                !raw
            }
        };
        match self.vars.get(v)? {
            Bits::Bool(l) => Some(u64::from(read(l))),
            bits => Some(
                self.lits[bits.range()]
                    .iter()
                    .enumerate()
                    .filter(|&(_, &l)| read(l))
                    .fold(0u64, |out, (i, _)| out | 1 << i),
            ),
        }
    }

    fn clear(&mut self) {
        self.lits.clear();
        self.vars.clear();
    }
}

/// The gate encoders: the CNF being emitted and its constant-true literal.
#[derive(Debug)]
struct Gates {
    cnf: Cnf,
    true_lit: Lit,
}

/// Reused buffers of the encoders.
#[derive(Debug, Default)]
struct Work {
    /// The literals of each open `and`/`or`, one run per open node.
    stack: Vec<Lit>,
    /// Operand copies (complemented or sign-flipped).
    x: Vec<Lit>,
    y: Vec<Lit>,
    /// An encoder's result.
    out: Vec<Lit>,
    /// Multiplier rows: accumulator, addend and sum.
    acc: Vec<Lit>,
    addend: Vec<Lit>,
    sum: Vec<Lit>,
    /// Barrel shifter: one layer, its shifted copy, the next layer, the
    /// amount's out-of-range bits, and the width's bits.
    shifted: Vec<Lit>,
    next: Vec<Lit>,
    big: Vec<Lit>,
    width_bits: Vec<Lit>,
}

impl Work {
    fn clear(&mut self) {
        let Work {
            stack,
            x,
            y,
            out,
            acc,
            addend,
            sum,
            shifted,
            next,
            big,
            width_bits,
        } = self;
        for buf in [
            stack, x, y, out, acc, addend, sum, shifted, next, big, width_bits,
        ] {
            buf.clear();
        }
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
/// pool requires clearing the blaster too ([`SessionBlaster::clear`]).
#[derive(Debug)]
pub struct SessionBlaster {
    gates: Gates,
    memo: IdMap<TermId, Bits>,
    map: BlastMap,
    work: Work,
}

impl Default for SessionBlaster {
    fn default() -> Self {
        SessionBlaster::new()
    }
}

impl SessionBlaster {
    /// Creates an empty blaster with its constant-true literal allocated.
    pub fn new() -> Self {
        let mut b = SessionBlaster {
            gates: Gates {
                cnf: Cnf::new(),
                true_lit: Lit(0),
            },
            memo: IdMap::new(),
            map: BlastMap::default(),
            work: Work::default(),
        };
        b.clear();
        b
    }

    /// Returns the blaster to the state of [`SessionBlaster::new`]: no
    /// memoized term, no mapped variable, and a CNF holding only the
    /// constant-true unit. The CNF buffers, the tables and the encoders'
    /// buffers keep their capacity.
    pub fn clear(&mut self) {
        let Gates { cnf, true_lit } = &mut self.gates;
        cnf.clear_clauses();
        cnf.num_vars = 0;
        *true_lit = Lit::pos(cnf.fresh());
        cnf.add_unit(*true_lit);
        self.memo.clear();
        self.map.clear();
        self.work.clear();
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
        self.blast(pool, formula).lit()
    }

    /// The variable map for model extraction. Accumulates entries for every
    /// variable blasted so far in the session.
    pub fn map(&self) -> &BlastMap {
        &self.map
    }

    /// Number of CNF variables allocated so far (monotone over the session).
    pub fn num_cnf_vars(&self) -> u32 {
        self.gates.cnf.num_vars
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
        let cnf = &mut self.gates.cnf;
        solver.load(cnf);
        let n = cnf.num_clauses();
        cnf.clear_clauses();
        n
    }

    /// Appends `lits` to the literal buffer as one bit vector's run.
    fn push_bits(&mut self, lits: &[Lit]) -> Bits {
        let start = self.map.lits.len() as u32;
        self.map.lits.extend_from_slice(lits);
        Bits::Bv {
            start,
            width: lits.len() as u32,
        }
    }

    /// Appends `width` literals made by `bit` (called with each index in
    /// order) as one bit vector's run.
    fn push_bits_with(&mut self, width: u32, mut bit: impl FnMut(&mut Gates, u32) -> Lit) -> Bits {
        let start = self.map.lits.len() as u32;
        for i in 0..width {
            let l = bit(&mut self.gates, i);
            self.map.lits.push(l);
        }
        Bits::Bv { start, width }
    }

    fn blast(&mut self, pool: &TermPool, t: TermId) -> Bits {
        if let Some(b) = self.memo.get(t) {
            return b;
        }
        let result = match *pool.kind(t) {
            TermKind::BoolConst(b) => Bits::Bool(self.gates.konst(b)),
            TermKind::BvConst { width, value } => {
                self.push_bits_with(width, |g, i| g.konst((value >> i) & 1 == 1))
            }
            TermKind::Var(v) => {
                let bits = match pool.var_sort(v) {
                    Sort::Bool => Bits::Bool(self.gates.fresh()),
                    Sort::Bv(w) => self.push_bits_with(w, |g, _| g.fresh()),
                };
                self.map.vars.insert(v, bits);
                bits
            }
            TermKind::Not(x) => Bits::Bool(!self.blast(pool, x).lit()),
            TermKind::And(xs) | TermKind::Or(xs) => {
                let base = self.work.stack.len();
                for &x in pool.args(xs) {
                    let l = self.blast(pool, x).lit();
                    self.work.stack.push(l);
                }
                let is_and = matches!(pool.kind(t), TermKind::And(_));
                let mut acc = self.gates.konst(is_and);
                for i in base..self.work.stack.len() {
                    let l = self.work.stack[i];
                    acc = if is_and {
                        self.gates.and(acc, l)
                    } else {
                        self.gates.or(acc, l)
                    };
                }
                self.work.stack.truncate(base);
                Bits::Bool(acc)
            }
            TermKind::Eq(a, b) => match (self.blast(pool, a), self.blast(pool, b)) {
                (Bits::Bool(x), Bits::Bool(y)) => Bits::Bool(!self.gates.xor(x, y)),
                (x, y) => {
                    let lits = &self.map.lits;
                    Bits::Bool(self.gates.eq_bits(&lits[x.range()], &lits[y.range()]))
                }
            },
            TermKind::Ite {
                cond,
                then_t,
                else_t,
            } => {
                let c = self.blast(pool, cond).lit();
                match (self.blast(pool, then_t), self.blast(pool, else_t)) {
                    (Bits::Bool(x), Bits::Bool(y)) => Bits::Bool(self.gates.mux(c, x, y)),
                    (x, y) => {
                        let (x, y) = (x.range(), y.range());
                        let start = self.map.lits.len() as u32;
                        for i in 0..x.len() {
                            let (xi, yi) = (self.map.lits[x.start + i], self.map.lits[y.start + i]);
                            let o = self.gates.mux(c, xi, yi);
                            self.map.lits.push(o);
                        }
                        Bits::Bv {
                            start,
                            width: x.len() as u32,
                        }
                    }
                }
            }
            TermKind::Pred(p, a, b) => {
                let (x, y) = (self.blast(pool, a).range(), self.blast(pool, b).range());
                let Work { x: xs, y: ys, .. } = &mut self.work;
                xs.clear();
                xs.extend_from_slice(&self.map.lits[x]);
                ys.clear();
                ys.extend_from_slice(&self.map.lits[y]);
                let (swap, strict_complement) = match p {
                    BvPred::Ult | BvPred::Slt => (false, false),
                    // a <= b  ⟺  ¬(b < a)
                    BvPred::Ule | BvPred::Sle => (true, true),
                };
                if matches!(p, BvPred::Slt | BvPred::Sle) {
                    // Signed comparison: flip both MSBs and compare unsigned.
                    let n = xs.len();
                    xs[n - 1] = !xs[n - 1];
                    ys[n - 1] = !ys[n - 1];
                }
                let l = if swap {
                    self.gates.ult(ys, xs)
                } else {
                    self.gates.ult(xs, ys)
                };
                Bits::Bool(if strict_complement { !l } else { l })
            }
            TermKind::Bv(op, a, b) => {
                let (x, y) = (self.blast(pool, a).range(), self.blast(pool, b).range());
                self.blast_bv(op, x, y)
            }
        };
        self.memo.insert(t, result);
        result
    }

    /// Blasts `x op y` over the runs `x` and `y` of the literal buffer.
    fn blast_bv(&mut self, op: BvOp, x: Range<usize>, y: Range<usize>) -> Bits {
        let w = x.len();
        let SessionBlaster {
            gates,
            map: BlastMap { lits, .. },
            work,
            ..
        } = self;
        let (xs, ys) = (&lits[x], &lits[y]);
        match op {
            BvOp::Add => gates.adder(xs, ys, gates.konst(false), &mut work.out),
            BvOp::Sub => {
                work.y.clear();
                work.y.extend(ys.iter().map(|&l| !l));
                gates.adder(xs, &work.y, gates.konst(true), &mut work.out);
            }
            BvOp::Mul => {
                gates.mul(xs, ys, w, work);
                std::mem::swap(&mut work.out, &mut work.acc);
            }
            BvOp::And | BvOp::Or | BvOp::Xor => {
                work.out.clear();
                for i in 0..w {
                    let (a, b) = (xs[i], ys[i]);
                    work.out.push(match op {
                        BvOp::And => gates.and(a, b),
                        BvOp::Or => gates.or(a, b),
                        _ => gates.xor(a, b),
                    });
                }
            }
            BvOp::Shl | BvOp::Lshr => {
                let fill = gates.konst(false);
                gates.shift(xs, ys, op == BvOp::Shl, fill, work);
            }
            BvOp::Ashr => {
                let sign = xs[w - 1];
                gates.shift(xs, ys, false, sign, work);
            }
            BvOp::Udiv | BvOp::Urem => {
                let r = gates.divrem(xs, ys, op);
                work.out.clear();
                work.out.extend_from_slice(&r);
            }
        }
        let out = std::mem::take(&mut self.work.out);
        let bits = self.push_bits(&out);
        self.work.out = out;
        bits
    }
}

impl Gates {
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

    fn and(&mut self, a: Lit, b: Lit) -> Lit {
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

    fn or(&mut self, a: Lit, b: Lit) -> Lit {
        !self.and(!a, !b)
    }

    fn xor(&mut self, a: Lit, b: Lit) -> Lit {
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
    /// constant input folds it to [`Self::xor`] of the other two (the
    /// complement for a true input), a repeated input to the third input
    /// (`a ⊕ a ⊕ c = c`, `a ⊕ ¬a ⊕ c = ¬c`).
    fn xor3(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        for (k, x, y) in [(a, b, c), (b, a, c), (c, a, b)] {
            if self.is_false(k) {
                return self.xor(x, y);
            }
            if self.is_true(k) {
                return !self.xor(x, y);
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
    /// [`Self::or`] of the other two and a false input to [`Self::and`];
    /// a repeated input folds it too (`maj(a, a, c) = a`, `maj(a, ¬a, c) =
    /// c`).
    fn maj(&mut self, a: Lit, b: Lit, c: Lit) -> Lit {
        for (k, x, y) in [(a, b, c), (b, a, c), (c, a, b)] {
            if self.is_true(k) {
                return self.or(x, y);
            }
            if self.is_false(k) {
                return self.and(x, y);
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

    fn mux(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        if self.is_true(c) {
            return t;
        }
        if self.is_false(c) {
            return e;
        }
        if t == e {
            return t;
        }
        let a = self.and(c, t);
        let b = self.and(!c, e);
        self.or(a, b)
    }

    /// Ripple-carry adder over literal vectors, written to `out`: one
    /// [`Self::xor3`] (sum) and one [`Self::maj`] (carry) per bit. The
    /// carry out of the top bit is not built, since every caller truncates
    /// to the operand width.
    fn adder(&mut self, a: &[Lit], b: &[Lit], mut carry: Lit, out: &mut Vec<Lit>) {
        debug_assert_eq!(a.len(), b.len());
        out.clear();
        for i in 0..a.len() {
            out.push(self.xor3(a[i], b[i], carry));
            if i + 1 < a.len() {
                carry = self.maj(a[i], b[i], carry);
            }
        }
    }

    /// Shift-add multiplier, truncated to `out_width` bits, written to
    /// `work.acc`.
    fn mul(&mut self, a: &[Lit], b: &[Lit], out_width: usize, work: &mut Work) {
        let f = self.konst(false);
        let Work {
            acc, addend, sum, ..
        } = work;
        acc.clear();
        acc.resize(out_width, f);
        for (i, &bi) in b.iter().enumerate().take(out_width) {
            if self.is_false(bi) {
                continue;
            }
            // addend = (a << i) & replicate(bi), truncated.
            addend.clear();
            addend.resize(out_width, f);
            for j in 0..out_width.saturating_sub(i) {
                let abit = if j < a.len() { a[j] } else { f };
                addend[i + j] = self.and(abit, bi);
            }
            self.adder(acc, addend, f, sum);
            std::mem::swap(acc, sum);
        }
    }

    /// `a < b` unsigned via the borrow chain of `a - b`: one majority
    /// gate per bit, `borrow' = maj(¬a, b, borrow)`.
    fn ult(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut borrow = self.konst(false);
        for i in 0..a.len() {
            borrow = self.maj(!a[i], b[i], borrow);
        }
        borrow
    }

    fn eq_bits(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut acc = self.konst(true);
        for i in 0..a.len() {
            let x = self.xor(a[i], b[i]);
            acc = self.and(acc, !x);
        }
        acc
    }

    /// Barrel shifter, written to `work.out`. `fill` supplies the
    /// shifted-in bit (for `ashr`, the sign bit), and `left` selects
    /// direction.
    fn shift(&mut self, a: &[Lit], b: &[Lit], left: bool, fill: Lit, work: &mut Work) {
        let f = self.konst(false);
        let w = a.len();
        let Work {
            out: cur,
            shifted,
            next,
            big,
            width_bits,
            ..
        } = work;
        cur.clear();
        cur.extend_from_slice(a);
        let mut k = 0usize;
        while (1usize << k) < w {
            let amount = 1usize << k;
            let bit = if k < b.len() { b[k] } else { f };
            shifted.clear();
            shifted.resize(w, fill);
            for i in 0..w {
                if left {
                    shifted[i] = if i >= amount { cur[i - amount] } else { f };
                } else if i + amount < w {
                    shifted[i] = cur[i + amount];
                }
            }
            next.clear();
            for i in 0..w {
                next.push(self.mux(bit, shifted[i], cur[i]));
            }
            std::mem::swap(cur, next);
            k += 1;
        }
        // Shift amounts >= w: result is all-fill (left: all zero). High
        // bits of the amount imply >= 2^k >= w.
        big.clear();
        big.extend(b.iter().skip(k));
        // When w is not a power of two, amounts in [w, 2^k) are encodable
        // in the low k bits; detect them numerically (w fits in k bits).
        if !w.is_power_of_two() && k > 0 {
            width_bits.clear();
            width_bits.extend((0..k).map(|i| self.konst((w >> i) & 1 == 1)));
            let low = &b[..k.min(b.len())];
            let lt_w = self.ult(low, width_bits);
            big.push(!lt_w);
        }
        let mut any = self.konst(false);
        for &l in big.iter() {
            any = self.or(any, l);
        }
        let fill_final = if left { f } else { fill };
        for l in cur.iter_mut() {
            *l = self.mux(any, fill_final, *l);
        }
    }

    /// Division/remainder via the multiply-check identity at double width:
    /// fresh `q`, `r` with `q*b + r == a` (no overflow, checked at `2w`
    /// bits) and `r < b`, with the SMT-LIB `b == 0` special case. Returns
    /// `q` or `r`. Rare enough to allocate its own buffers.
    fn divrem(&mut self, a: &[Lit], b: &[Lit], op: BvOp) -> Vec<Lit> {
        let w = a.len();
        let q: Vec<Lit> = (0..w).map(|_| self.fresh()).collect();
        let r: Vec<Lit> = (0..w).map(|_| self.fresh()).collect();
        let zero_w: Vec<Lit> = vec![self.konst(false); w];
        // b == 0?
        let bz = self.eq_bits(b, &zero_w);
        // Wide product check: zext(q) * zext(b) + zext(r) == zext(a).
        let f = self.konst(false);
        let zext = |bits: &[Lit]| {
            let mut v = bits.to_vec();
            v.resize(2 * w, f);
            v
        };
        let (qw, bw, rw, aw) = (zext(&q), zext(b), zext(&r), zext(a));
        let mut work = Work::default();
        self.mul(&qw, &bw, 2 * w, &mut work);
        let mut sum = Vec::new();
        self.adder(&work.acc, &rw, f, &mut sum);
        let exact = self.eq_bits(&sum, &aw);
        let rem_lt = self.ult(&r, b);
        let ok_div = self.and(exact, rem_lt);
        // b == 0 case: q = all-ones, r = a.
        let ones: Vec<Lit> = vec![self.konst(true); w];
        let q_ones = self.eq_bits(&q, &ones);
        let r_is_a = self.eq_bits(&r, a);
        let ok_zero = self.and(q_ones, r_is_a);
        let chosen = self.mux(bz, ok_zero, ok_div);
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
    b.gates.cnf.add_unit(root);
    (b.gates.cnf, b.map)
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
