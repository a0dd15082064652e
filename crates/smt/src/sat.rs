//! A CDCL SAT solver.
//!
//! The backend the bit-blasted conditions are handed to — the counterpart of
//! "Z3's SAT solver" in §4 of the paper. Classic MiniSat-style search:
//! two-watched-literal propagation, first-UIP conflict analysis with clause
//! learning, VSIDS branching with an activity heap, phase saving, Luby
//! restarts, and periodic learnt-clause database reduction. Budgets (conflict
//! count and wall-clock deadline) make every call interruptible — the
//! evaluation caps each solver call exactly like the paper's 10-second
//! per-query limit. The deadline is polled every 256th conflict and every
//! 1,024th decision of a call, so a search with few conflicts stops too.
//!
//! # Kernel
//!
//! The storage is flat, so propagation touches few cache lines and nothing
//! between a [`Cnf`] and a watch list allocates per clause:
//!
//! * **One clause arena.** Every clause lives in one `Vec<u32>`, in creation
//!   order: a three-word header (length and learnt flag, then the activity
//!   as the two halves of an `f64`), then its literals. A clause is named by
//!   its arena offset. Reduction compacts the arena in place and relocates
//!   watches and reasons.
//! * **8-byte watches.** A watch holds the clause's offset, tagged when the
//!   clause has two literals, and a blocker literal.
//! * **One watch buffer.** Every literal's watch list is a power-of-two
//!   block of one `Vec<Watch>`. A full list moves to a block twice its size
//!   by an in-order copy; freed blocks are kept on one free list per size.
//!   The lists keep exactly the order per-literal `Vec`s would give them.
//! * **Binary clauses propagate from the watch.** A two-literal clause's
//!   blocker is its other literal, so it implies or conflicts without a visit
//!   to the arena.
//! * **Literal-indexed values.** One value byte per literal, so reading a
//!   literal's value is a single load.
//! * **No allocation in conflict analysis.** Clauses are read in place into
//!   one reused learnt buffer.
//! * **Cleared, not rebuilt.** [`SatSolver::clear`] returns a solver to the
//!   state of [`SatSolver::empty`] and keeps every buffer, so a solver
//!   reused for a sequence of formulas stops allocating once its buffers
//!   have grown to the largest of them.
//!
//! `tests/sat_trajectory.rs` pins the search: a kernel change keeps every
//! [`SatStats`] figure there identical, while a search change (branching,
//! learning, restarts, reduction) re-pins them and is measured on its own.

use crate::cnf::{BVar, Cnf, Lit};
use std::time::Instant;

/// Outcome of a SAT call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SatOutcome {
    /// Satisfiable, with a full model (`model[v]` = value of `BVar(v)`).
    Sat(Vec<bool>),
    /// Unsatisfiable.
    Unsat,
    /// Budget exhausted before a decision was reached.
    Unknown,
}

/// Resource budget for one SAT call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SatBudget {
    /// Maximum number of conflicts (`None` = unlimited).
    pub max_conflicts: Option<u64>,
    /// Wall-clock deadline (`None` = unlimited).
    pub deadline: Option<Instant>,
}

/// Statistics of a SAT call.
#[derive(Debug, Clone, Copy, Default)]
pub struct SatStats {
    /// Decisions made.
    pub decisions: u64,
    /// Conflicts encountered.
    pub conflicts: u64,
    /// Unit propagations performed.
    pub propagations: u64,
    /// Restarts performed.
    pub restarts: u64,
}

/// Value bytes of a literal.
const FALSE: u8 = 0;
const TRUE: u8 = 1;
const UNDEF: u8 = 2;

/// Arena words before a clause's literals: `len << 1 | learnt`, then the
/// low and high halves of its `f64` activity.
const HEADER: usize = 3;

/// Tag on a watch's clause offset: the clause has exactly two literals.
const BINARY: u32 = 1 << 31;

/// `reason` of a variable assigned without one (decision, assumption, unit).
const NO_REASON: u32 = u32::MAX;

/// Decisions of one call between two polls of its deadline.
const DEADLINE_POLL_DECISIONS: u64 = 1024;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Watch {
    /// Arena offset of the clause, `| BINARY` for a two-literal clause.
    cref: u32,
    /// A literal of the clause whose truth satisfies it; for a binary
    /// clause, always the other literal.
    blocker: Lit,
}

const _: () = assert!(std::mem::size_of::<Watch>() == 8);

/// The end of a free list.
const NO_BLOCK: u32 = u32::MAX;

/// Slots of a list's first block: four, as a `Vec` of watches first
/// allocates.
const FIRST_BLOCK: u32 = 4;

/// Slots a watch buffer reserves when it first grows without a reservation,
/// as a session's solver does (`SatSolver::new` reserves for its CNF
/// instead): 4 MiB of address space, of which only the slots in use are
/// touched, and more than a hot-sinks session uses (at most 348,828). Grown
/// from four slots by doubling, the buffer would leave the pages of each
/// outgrown copy resident in the allocator.
const INITIAL_SLOTS: usize = 1 << 19;

/// One literal's watch list: `len` watches at the front of a block of
/// `cap` slots (a power of two, or 0 before the first push) at `start` in
/// [`WatchStore::buf`].
#[derive(Debug, Clone, Copy, Default)]
struct WatchList {
    start: u32,
    len: u32,
    cap: u32,
}

/// Every literal's watch list in one buffer.
///
/// A list behaves exactly like a `Vec<Watch>`: pushes append, a removal
/// moves the last watch into the hole, and retaining keeps the survivors
/// in order. Only where its watches live differs. A full list moves to a
/// free block of twice its size, or to a new one at the end of the buffer
/// (or, when its block already ends the buffer, the block grows in place),
/// and its old block goes on the free list of its size. Clearing empties
/// the buffer and keeps its capacity.
#[derive(Debug)]
struct WatchStore {
    /// The blocks, back to back. A free block names the next free block of
    /// its size in its first slot's `cref`.
    buf: Vec<Watch>,
    /// Indexed by `Lit::code()`.
    lists: Vec<WatchList>,
    /// Indexed by `log2` of a block size: the first free block of that
    /// size, or `NO_BLOCK`.
    free: [u32; 32],
}

impl WatchStore {
    fn new() -> WatchStore {
        WatchStore {
            buf: Vec::new(),
            lists: Vec::new(),
            free: [NO_BLOCK; 32],
        }
    }

    /// Removes every list and every block, keeping the buffers' capacity.
    fn clear(&mut self) {
        self.buf.clear();
        self.lists.clear();
        self.free = [NO_BLOCK; 32];
    }

    /// Adds empty lists up to `lits` literals, at least as many as it has.
    fn grow_to(&mut self, lits: usize) {
        self.lists.resize(lits, WatchList::default());
    }

    /// Where `lit`'s watches are in `buf`: `start..end`.
    fn span(&self, lit: usize) -> (usize, usize) {
        let list = self.lists[lit];
        (list.start as usize, (list.start + list.len) as usize)
    }

    /// Shortens `lit`'s list to end at `end` in `buf`.
    fn set_end(&mut self, lit: usize, end: usize) {
        let list = &mut self.lists[lit];
        debug_assert!(end <= (list.start + list.len) as usize);
        list.len = (end - list.start as usize) as u32;
    }

    /// Appends `w` to `lit`'s list. Only this list can move.
    fn push(&mut self, lit: usize, w: Watch) {
        if self.lists[lit].len == self.lists[lit].cap {
            self.grow_list(lit);
        }
        let list = &mut self.lists[lit];
        self.buf[(list.start + list.len) as usize] = w;
        list.len += 1;
    }

    /// `Vec::retain_mut` on `lit`'s list, in place: the kept watches close
    /// up in order, and the block stays where it is.
    fn retain(&mut self, lit: usize, mut keep: impl FnMut(&mut Watch) -> bool) {
        let (start, end) = self.span(lit);
        let mut write = start;
        for read in start..end {
            let mut w = self.buf[read];
            if keep(&mut w) {
                self.buf[write] = w;
                write += 1;
            }
        }
        self.set_end(lit, write);
    }

    /// Gives a full list a block twice its size (the first block for a list
    /// without one), copying its watches in order.
    fn grow_list(&mut self, lit: usize) {
        let old = self.lists[lit];
        if old.cap == 0 {
            let start = self.take_block(FIRST_BLOCK);
            self.lists[lit] = WatchList {
                start,
                len: 0,
                cap: FIRST_BLOCK,
            };
            return;
        }
        let cap = 2 * old.cap;
        if (old.start + old.cap) as usize == self.buf.len() {
            // The block ends the buffer: it grows where it is.
            self.extend_buf(old.cap);
            self.lists[lit].cap = cap;
            return;
        }
        let start = self.take_block(cap);
        let from = old.start as usize;
        self.buf
            .copy_within(from..from + old.len as usize, start as usize);
        let class = old.cap.trailing_zeros() as usize;
        self.buf[from].cref = self.free[class];
        self.free[class] = old.start;
        self.lists[lit] = WatchList {
            start,
            len: old.len,
            cap,
        };
    }

    /// A free block of `cap` slots, or a new one at the end of the buffer.
    fn take_block(&mut self, cap: u32) -> u32 {
        let class = cap.trailing_zeros() as usize;
        let head = self.free[class];
        if head != NO_BLOCK {
            self.free[class] = self.buf[head as usize].cref;
            return head;
        }
        let start = self.buf.len() as u32;
        self.extend_buf(cap);
        start
    }

    fn extend_buf(&mut self, slots: u32) {
        if self.buf.capacity() == 0 {
            self.buf.reserve_exact(INITIAL_SLOTS);
        }
        let len = self.buf.len() + slots as usize;
        // Block offsets must stay clear of `NO_BLOCK`.
        assert!(len < NO_BLOCK as usize, "watch buffer exceeds 2^32 slots");
        self.buf.resize(
            len,
            Watch {
                cref: 0,
                blocker: Lit(0),
            },
        );
    }

    /// `lit`'s watches, in order.
    #[cfg(test)]
    fn list(&self, lit: usize) -> &[Watch] {
        let (start, end) = self.span(lit);
        &self.buf[start..end]
    }

    /// `Vec::swap_remove`: the last watch of the list replaces watch `i`,
    /// as `SatSolver::propagate` does it.
    #[cfg(test)]
    fn swap_remove(&mut self, lit: usize, i: usize) {
        let (start, mut end) = self.span(lit);
        end -= 1;
        self.buf[start + i] = self.buf[end];
        self.set_end(lit, end);
    }
}

/// A clause that propagation found all false.
#[derive(Debug, Clone, Copy)]
enum Conflict {
    /// A clause of three or more literals, at this arena offset.
    Long(u32),
    /// A binary clause, at arena offset `cref`, whose `falsified` literal
    /// was just made false while `other` already was.
    Binary {
        cref: u32,
        other: Lit,
        falsified: Lit,
    },
}

/// The CDCL solver state. Construct with [`SatSolver::new`], run with
/// [`SatSolver::solve`].
#[derive(Debug)]
pub struct SatSolver {
    /// Every clause in creation order; see the module docs for the layout.
    arena: Vec<u32>,
    /// Clauses in the arena, learnt ones included.
    num_clauses: usize,
    /// Learnt clauses in the arena, maintained incrementally so the solve
    /// loop never scans it (a session solver's arena is large and
    /// long-lived).
    num_learnt: usize,
    /// Indexed by `Lit::code()`: the watches visited when that literal
    /// becomes true, i.e. of clauses watching its negation.
    watches: WatchStore,
    /// Indexed by `Lit::code()`: `TRUE`, `FALSE` or `UNDEF`.
    values: Vec<u8>,
    level: Vec<u32>,
    /// Arena offset of the clause that implied each variable.
    reason: Vec<u32>,
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    qhead: usize,
    activity: Vec<f64>,
    var_inc: f64,
    cla_inc: f64,
    heap: Vec<BVar>,        // binary max-heap on activity
    heap_index: Vec<usize>, // usize::MAX = not in heap
    phase: Vec<bool>,
    seen: Vec<bool>,
    ok: bool,
    /// Reused buffers: the clause being added, and the clause being learnt.
    add_buf: Vec<Lit>,
    learnt: Vec<Lit>,
    /// Cumulative statistics across all solve calls on this solver.
    pub stats: SatStats,
}

impl SatSolver {
    /// Builds a solver over the given CNF.
    pub fn new(cnf: &Cnf) -> SatSolver {
        let n = cnf.num_vars as usize;
        let mut s = SatSolver::empty();
        s.arena
            .reserve_exact(cnf.num_lits() + HEADER * cnf.num_clauses());
        s.watches.buf.reserve(2 * cnf.num_clauses());
        s.trail.reserve_exact(n);
        s.heap.reserve_exact(n);
        s.load(cnf);
        s
    }

    /// Builds an empty solver (zero variables, zero clauses) for incremental
    /// use: grow it with [`SatSolver::ensure_vars`] and
    /// [`SatSolver::add_clause_incremental`], query it with
    /// [`SatSolver::solve_under_assumptions`].
    pub fn empty() -> SatSolver {
        SatSolver {
            arena: Vec::new(),
            num_clauses: 0,
            num_learnt: 0,
            watches: WatchStore::new(),
            values: Vec::new(),
            level: Vec::new(),
            reason: Vec::new(),
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: Vec::new(),
            var_inc: 1.0,
            cla_inc: 1.0,
            heap: Vec::new(),
            heap_index: Vec::new(),
            phase: Vec::new(),
            seen: Vec::new(),
            ok: true,
            add_buf: Vec::new(),
            learnt: Vec::new(),
            stats: SatStats::default(),
        }
    }

    /// Returns the solver to the state of [`SatSolver::empty`] (no
    /// variables, no clauses, no statistics) and keeps every buffer's
    /// capacity, so loading a formula no larger than one it held before
    /// allocates nothing.
    pub fn clear(&mut self) {
        // Naming every field makes a new one a compile error here until it
        // is cleared too.
        let SatSolver {
            arena,
            num_clauses,
            num_learnt,
            watches,
            values,
            level,
            reason,
            trail,
            trail_lim,
            qhead,
            activity,
            var_inc,
            cla_inc,
            heap,
            heap_index,
            phase,
            seen,
            ok,
            add_buf,
            learnt,
            stats,
        } = self;
        arena.clear();
        *num_clauses = 0;
        *num_learnt = 0;
        watches.clear();
        values.clear();
        level.clear();
        reason.clear();
        trail.clear();
        trail_lim.clear();
        *qhead = 0;
        activity.clear();
        *var_inc = 1.0;
        *cla_inc = 1.0;
        heap.clear();
        heap_index.clear();
        phase.clear();
        seen.clear();
        *ok = true;
        add_buf.clear();
        learnt.clear();
        *stats = SatStats::default();
    }

    /// Adds `cnf`'s variables and clauses, as [`SatSolver::new`] does. On a
    /// cleared solver this rebuilds `SatSolver::new(cnf)` exactly.
    pub fn load(&mut self, cnf: &Cnf) {
        self.ensure_vars(cnf.num_vars as usize);
        for c in cnf.iter() {
            self.add_clause_incremental(c);
            if !self.ok {
                break;
            }
        }
    }

    /// Grows the variable universe to at least `n` variables. New variables
    /// start unassigned with zero activity and negative saved phase.
    pub fn ensure_vars(&mut self, n: usize) {
        let old = self.num_vars();
        if old >= n {
            return;
        }
        self.watches.grow_to(2 * n);
        self.values.resize(2 * n, UNDEF);
        self.level.resize(n, 0);
        self.reason.resize(n, NO_REASON);
        self.activity.resize(n, 0.0);
        self.phase.resize(n, false);
        self.seen.resize(n, false);
        self.heap_index.resize(n, usize::MAX);
        for v in old..n {
            self.heap_insert(BVar(v as u32));
        }
    }

    /// Number of variables currently known to the solver.
    pub fn num_vars(&self) -> usize {
        self.level.len()
    }

    /// Number of permanent (non-learnt) clauses in the database.
    pub fn permanent_clauses(&self) -> usize {
        self.num_clauses - self.num_learnt
    }

    /// Number of learnt clauses currently retained.
    pub fn learnt_clauses(&self) -> usize {
        self.num_learnt
    }

    /// Whether the permanent clause database is still consistent. Once a
    /// clause set is unsatisfiable at level 0 the solver stays `false`.
    pub fn is_ok(&self) -> bool {
        self.ok
    }

    /// Adds a clause between solve calls (incremental interface). Backtracks
    /// to decision level 0 first, so this is safe to call at any point
    /// between [`SatSolver::solve_under_assumptions`] calls. Referencing a
    /// variable `v` requires a prior `ensure_vars(v + 1)`.
    pub fn add_clause_incremental(&mut self, lits: &[Lit]) {
        self.backtrack(0);
        self.add_clause(lits);
    }

    fn value(&self, l: Lit) -> u8 {
        self.values[l.code()]
    }

    // --- the clause arena ---

    fn clause_len(&self, cref: u32) -> usize {
        (self.arena[cref as usize] >> 1) as usize
    }

    fn is_learnt(&self, cref: u32) -> bool {
        self.arena[cref as usize] & 1 == 1
    }

    fn clause_lit(&self, cref: u32, k: usize) -> Lit {
        Lit(self.arena[cref as usize + HEADER + k])
    }

    fn clause_activity(&self, cref: u32) -> f64 {
        let c = cref as usize;
        f64::from_bits(u64::from(self.arena[c + 1]) | (u64::from(self.arena[c + 2]) << 32))
    }

    fn set_clause_activity(&mut self, cref: u32, activity: f64) {
        let c = cref as usize;
        let bits = activity.to_bits();
        self.arena[c + 1] = bits as u32;
        self.arena[c + 2] = (bits >> 32) as u32;
    }

    /// Offset of the clause after the one at `cref`.
    fn next_clause(&self, cref: u32) -> u32 {
        cref + (HEADER + self.clause_len(cref)) as u32
    }

    /// Appends a clause of at least two literals to the arena and watches
    /// its first two.
    fn push_clause(&mut self, lits: &[Lit], learnt: bool) -> u32 {
        debug_assert!(lits.len() >= 2);
        // Offsets and lengths must stay clear of the `BINARY` tag bit.
        assert!(
            self.arena.len() + HEADER + lits.len() <= BINARY as usize,
            "clause arena exceeds 2^31 words"
        );
        let cref = self.arena.len() as u32;
        self.arena
            .push(((lits.len() as u32) << 1) | u32::from(learnt));
        self.arena.extend([0, 0]); // activity 0.0
        self.arena.extend(lits.iter().map(|l| l.0));
        let tag = if lits.len() == 2 { BINARY } else { 0 };
        self.watch(lits[0], lits[1], cref | tag);
        self.watch(lits[1], lits[0], cref | tag);
        self.num_clauses += 1;
        self.num_learnt += usize::from(learnt);
        cref
    }

    fn watch(&mut self, l: Lit, blocker: Lit, cref: u32) {
        self.watches.push((!l).code(), Watch { cref, blocker });
    }

    fn add_clause(&mut self, clause: &[Lit]) {
        if !self.ok {
            return;
        }
        let mut lits = std::mem::take(&mut self.add_buf);
        lits.clear();
        lits.extend_from_slice(clause);
        self.add_simplified(&mut lits);
        self.add_buf = lits;
    }

    /// Sorts and simplifies `lits` against level 0, then stores the clause,
    /// asserts it as a unit, or records that the database is unsatisfiable.
    fn add_simplified(&mut self, lits: &mut Vec<Lit>) {
        lits.sort_unstable();
        lits.dedup();
        // Tautology?
        if lits.windows(2).any(|w| w[0].var() == w[1].var()) {
            return; // x ∨ ¬x
        }
        // Remove false literals / satisfied clauses at level 0.
        lits.retain(|&l| self.value(l) != FALSE || self.level[l.var().index()] != 0);
        if lits
            .iter()
            .any(|&l| self.value(l) == TRUE && self.level[l.var().index()] == 0)
        {
            return;
        }
        match lits.len() {
            0 => self.ok = false,
            1 => {
                self.assign(lits[0], NO_REASON);
                if self.propagate().is_some() {
                    self.ok = false;
                }
            }
            _ => {
                self.push_clause(lits, false);
            }
        }
    }

    /// Makes the unassigned literal `l` true, implied by the clause at
    /// `reason`.
    fn assign(&mut self, l: Lit, reason: u32) {
        debug_assert_eq!(self.value(l), UNDEF);
        let v = l.var().index();
        self.values[l.code()] = TRUE;
        self.values[(!l).code()] = FALSE;
        self.level[v] = self.trail_lim.len() as u32;
        self.reason[v] = reason;
        self.phase[v] = l.is_pos();
        self.trail.push(l);
    }

    /// Unit propagation; returns the clause it found all false, if any.
    fn propagate(&mut self) -> Option<Conflict> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.stats.propagations += 1;
            let false_lit = !p;
            // Clauses only ever move to the watch lists of other literals,
            // so this list neither grows nor moves while it is walked: its
            // slots are read and written in place, and its new end is
            // written back.
            let ws = p.code();
            let (start, mut end) = self.watches.span(ws);
            let mut conflict = None;
            let mut i = start;
            'watches: while i < end {
                let Watch { cref, blocker } = self.watches.buf[i];
                let blocker_value = self.value(blocker);
                if blocker_value == TRUE {
                    i += 1;
                    continue;
                }
                if cref & BINARY != 0 {
                    // The blocker is the other literal: unit or conflict.
                    let cref = cref & !BINARY;
                    if blocker_value == FALSE {
                        conflict = Some(Conflict::Binary {
                            cref,
                            other: blocker,
                            falsified: false_lit,
                        });
                        break;
                    }
                    self.assign(blocker, cref);
                    i += 1;
                    continue;
                }
                // Normalize: the watched literal being falsified goes to
                // position 1.
                let c = cref as usize + HEADER;
                if self.arena[c] == false_lit.0 {
                    self.arena.swap(c, c + 1);
                }
                let first = Lit(self.arena[c]);
                if first != blocker && self.value(first) == TRUE {
                    self.watches.buf[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Find a new watch.
                for k in c + 2..c + self.clause_len(cref) {
                    let lk = Lit(self.arena[k]);
                    if self.value(lk) != FALSE {
                        self.arena.swap(c + 1, k);
                        end -= 1;
                        self.watches.buf[i] = self.watches.buf[end];
                        self.watch(lk, first, cref);
                        continue 'watches;
                    }
                }
                // No new watch: the clause is unit or conflicting.
                self.watches.buf[i].blocker = first;
                if self.value(first) == FALSE {
                    conflict = Some(Conflict::Long(cref));
                    break;
                }
                self.assign(first, cref);
                i += 1;
            }
            self.watches.set_end(ws, end);
            if conflict.is_some() {
                self.qhead = self.trail.len();
                return conflict;
            }
        }
        None
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    fn bump_var(&mut self, v: BVar) {
        self.activity[v.index()] += self.var_inc;
        if self.activity[v.index()] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
        }
        if self.heap_index[v.index()] != usize::MAX {
            self.heap_up(self.heap_index[v.index()]);
        }
    }

    /// Bumps a clause's activity. Past 1e20, every clause is rescaled,
    /// permanent ones included.
    fn bump_clause(&mut self, cref: u32) {
        let activity = self.clause_activity(cref) + self.cla_inc;
        self.set_clause_activity(cref, activity);
        if activity > 1e20 {
            let mut c = 0;
            while (c as usize) < self.arena.len() {
                self.set_clause_activity(c, self.clause_activity(c) * 1e-20);
                c = self.next_clause(c);
            }
            self.cla_inc *= 1e-20;
        }
    }

    /// First-UIP conflict analysis. Leaves the learnt clause in
    /// `self.learnt`, asserting literal first and, if it has more than one,
    /// a literal of the backtrack level second; returns that level.
    fn analyze(&mut self, confl: Conflict) -> u32 {
        self.learnt.clear();
        self.learnt.push(Lit(0)); // placeholder for the UIP
        let mut counter = 0usize;
        let mut index = self.trail.len();
        // The conflict clause first. A binary one is read as (other
        // literal, falsified literal): the order that keeps learnt clauses,
        // and so the search pinned by `tests/sat_trajectory.rs`, unchanged.
        match confl {
            Conflict::Long(cref) => {
                self.bump_clause(cref);
                for k in 0..self.clause_len(cref) {
                    self.analyze_lit(self.clause_lit(cref, k), &mut counter);
                }
            }
            Conflict::Binary {
                cref,
                other,
                falsified,
            } => {
                self.bump_clause(cref);
                self.analyze_lit(other, &mut counter);
                self.analyze_lit(falsified, &mut counter);
            }
        }
        let uip = loop {
            // Select next literal to look at.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var().index()] {
                    break;
                }
            }
            let p = self.trail[index];
            let pv = p.var().index();
            self.seen[pv] = false;
            counter -= 1;
            if counter == 0 {
                break p;
            }
            // Resolve with p's reason. Its implied literal is skipped by
            // variable: a binary reason may hold it in either slot.
            let cref = self.reason[pv];
            debug_assert_ne!(cref, NO_REASON);
            self.bump_clause(cref);
            for k in 0..self.clause_len(cref) {
                let q = self.clause_lit(cref, k);
                if q.var().index() != pv {
                    self.analyze_lit(q, &mut counter);
                }
            }
        };
        self.learnt[0] = !uip;
        // No minimization: every literal below the conflict level stays in
        // the learnt clause. Minimizing is a search change (see DESIGN.md,
        // "SAT kernel").
        for l in &self.learnt {
            self.seen[l.var().index()] = false;
        }
        if self.learnt.len() == 1 {
            return 0;
        }
        // Second-highest level among learnt literals; move it to slot 1.
        let mut max_i = 1;
        for i in 2..self.learnt.len() {
            if self.level[self.learnt[i].var().index()]
                > self.level[self.learnt[max_i].var().index()]
            {
                max_i = i;
            }
        }
        self.learnt.swap(1, max_i);
        self.level[self.learnt[1].var().index()]
    }

    /// One literal of a clause being resolved: marks and bumps its variable
    /// the first time it is met, counting it if it is at the conflict level
    /// and adding it to the learnt clause otherwise.
    fn analyze_lit(&mut self, q: Lit, counter: &mut usize) {
        let v = q.var().index();
        if !self.seen[v] && self.level[v] > 0 {
            self.seen[v] = true;
            self.bump_var(q.var());
            if self.level[v] >= self.decision_level() {
                *counter += 1;
            } else {
                self.learnt.push(q);
            }
        }
    }

    fn backtrack(&mut self, level: u32) {
        while self.decision_level() > level {
            let lim = self.trail_lim.pop().expect("level > 0");
            while self.trail.len() > lim {
                let l = self.trail.pop().expect("trail nonempty");
                let v = l.var();
                self.values[l.code()] = UNDEF;
                self.values[(!l).code()] = UNDEF;
                self.reason[v.index()] = NO_REASON;
                if self.heap_index[v.index()] == usize::MAX {
                    self.heap_insert(v);
                }
            }
        }
        self.qhead = self.trail.len();
    }

    fn pick_branch(&mut self) -> Option<Lit> {
        if self.trail.len() == self.num_vars() {
            // Every variable is assigned, so popping would empty the heap
            // without a pick: empty it in one pass instead.
            for &v in &self.heap {
                self.heap_index[v.index()] = usize::MAX;
            }
            self.heap.clear();
            return None;
        }
        while let Some(&top) = self.heap.first() {
            if self.value(Lit::pos(top)) == UNDEF {
                self.heap_remove_top();
                return Some(Lit::new(top, self.phase[top.index()]));
            }
            self.heap_remove_top();
        }
        None
    }

    /// Whether the clause at `cref` is the reason of an assignment. A
    /// clause of three or more literals can only be the reason of its
    /// first literal: propagation implies slot 0 and never moves a true
    /// literal out of it.
    fn locked(&self, cref: u32) -> bool {
        self.reason[self.clause_lit(cref, 0).var().index()] == cref
    }

    fn reduce_db(&mut self) {
        // Remove the less active half of learnt clauses that are not
        // currently reasons.
        let mut learnt_crefs: Vec<u32> = Vec::with_capacity(self.num_learnt);
        let mut c = 0;
        while (c as usize) < self.arena.len() {
            if self.is_learnt(c) {
                learnt_crefs.push(c);
            }
            c = self.next_clause(c);
        }
        if learnt_crefs.len() < 100 {
            return;
        }
        // Stable: equally active clauses keep creation order.
        learnt_crefs.sort_by(|&a, &b| {
            self.clause_activity(a)
                .partial_cmp(&self.clause_activity(b))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut remove: Vec<u32> = learnt_crefs[..learnt_crefs.len() / 2]
            .iter()
            .copied()
            .filter(|&c| self.clause_len(c) > 2 && !self.locked(c))
            .collect();
        if remove.is_empty() {
            return;
        }
        remove.sort_unstable();
        // Each removed clause with the total arena words removed up to and
        // including it: a kept clause moves left by the total before it.
        let mut words = 0;
        let gone: Vec<(u32, u32)> = remove
            .into_iter()
            .map(|c| {
                words += (HEADER + self.clause_len(c)) as u32;
                (c, words)
            })
            .collect();
        let relocate = |cref: u32| -> Option<u32> {
            let i = gone.partition_point(|&(c, _)| c < cref);
            if gone.get(i).is_some_and(|&(c, _)| c == cref) {
                return None;
            }
            Some(cref - if i == 0 { 0 } else { gone[i - 1].1 })
        };
        for lit in 0..self.watches.lists.len() {
            self.watches
                .retain(lit, |w| match relocate(w.cref & !BINARY) {
                    Some(c) => {
                        w.cref = c | (w.cref & BINARY);
                        true
                    }
                    None => false,
                });
        }
        for r in &mut self.reason {
            if *r != NO_REASON {
                *r = relocate(*r).expect("a reason is never removed");
            }
        }
        // Compact the arena in place.
        let mut write = 0;
        let mut next_gone = gone.iter().peekable();
        let mut c = 0;
        while (c as usize) < self.arena.len() {
            let end = self.next_clause(c);
            if next_gone.next_if(|&&(g, _)| g == c).is_none() {
                self.arena.copy_within(c as usize..end as usize, write);
                write += (end - c) as usize;
            }
            c = end;
        }
        self.arena.truncate(write);
        self.num_clauses -= gone.len();
        self.num_learnt -= gone.len();
    }

    /// Runs the CDCL loop under the given budget.
    pub fn solve(&mut self, budget: SatBudget) -> SatOutcome {
        self.solve_under_assumptions(&[], budget)
    }

    /// Runs the CDCL loop with the given assumption literals asserted as
    /// pseudo-decisions (MiniSat's incremental interface). `Unsat` under
    /// assumptions does *not* poison the solver: only a genuine level-0
    /// conflict makes the clause database permanently inconsistent.
    /// `budget.max_conflicts` bounds the conflicts of *this call* (not
    /// cumulative across the session).
    pub fn solve_under_assumptions(
        &mut self,
        assumptions: &[Lit],
        budget: SatBudget,
    ) -> SatOutcome {
        if !self.ok {
            return SatOutcome::Unsat;
        }
        self.backtrack(0);
        if self.propagate().is_some() {
            self.ok = false;
            return SatOutcome::Unsat;
        }
        let start_conflicts = self.stats.conflicts;
        let start_decisions = self.stats.decisions;
        let expired = || budget.deadline.is_some_and(|dl| Instant::now() >= dl);
        let mut restart_count = 0u64;
        let mut conflicts_until_restart = luby(restart_count) * 100;
        let mut learnt_cap = (self.num_clauses / 3).max(1000);
        loop {
            if let Some(confl) = self.propagate() {
                self.stats.conflicts += 1;
                if self.decision_level() == 0 {
                    self.ok = false;
                    return SatOutcome::Unsat;
                }
                let bt = self.analyze(confl);
                self.backtrack(bt);
                let learnt = std::mem::take(&mut self.learnt);
                if learnt.len() == 1 {
                    self.assign(learnt[0], NO_REASON);
                } else {
                    let cref = self.push_clause(&learnt, true);
                    self.bump_clause(cref);
                    self.assign(learnt[0], cref);
                }
                self.learnt = learnt;
                self.var_inc /= 0.95;
                self.cla_inc /= 0.999;
                conflicts_until_restart = conflicts_until_restart.saturating_sub(1);
                // Budget checks on this call's conflicts (cheap point to
                // test the deadline).
                let call_conflicts = self.stats.conflicts - start_conflicts;
                if let Some(mc) = budget.max_conflicts {
                    if call_conflicts >= mc {
                        self.backtrack(0);
                        return SatOutcome::Unknown;
                    }
                }
                if call_conflicts.is_multiple_of(256) && expired() {
                    self.backtrack(0);
                    return SatOutcome::Unknown;
                }
            } else {
                if conflicts_until_restart == 0 {
                    restart_count += 1;
                    self.stats.restarts += 1;
                    conflicts_until_restart = luby(restart_count) * 100;
                    self.backtrack(0);
                }
                if self.num_learnt > learnt_cap {
                    self.reduce_db();
                    learnt_cap += learnt_cap / 10;
                }
                // Re-assert assumptions as pseudo-decisions: assumption `i`
                // lives at decision level `i + 1` (already-true assumptions
                // get an empty level to keep the indexing aligned).
                let mut asserted = false;
                while (self.decision_level() as usize) < assumptions.len() {
                    let p = assumptions[self.decision_level() as usize];
                    match self.value(p) {
                        TRUE => {
                            self.trail_lim.push(self.trail.len());
                        }
                        FALSE => {
                            self.backtrack(0);
                            return SatOutcome::Unsat;
                        }
                        _ => {
                            self.trail_lim.push(self.trail.len());
                            self.assign(p, NO_REASON);
                            asserted = true;
                            break;
                        }
                    }
                }
                if asserted {
                    continue;
                }
                match self.pick_branch() {
                    None => {
                        let model: Vec<bool> = (0..self.num_vars())
                            .map(|v| self.value(Lit::pos(BVar(v as u32))) == TRUE)
                            .collect();
                        self.backtrack(0);
                        return SatOutcome::Sat(model);
                    }
                    Some(l) => {
                        self.stats.decisions += 1;
                        self.trail_lim.push(self.trail.len());
                        self.assign(l, NO_REASON);
                        // A search with few conflicts polls its deadline
                        // here.
                        let call_decisions = self.stats.decisions - start_decisions;
                        if call_decisions.is_multiple_of(DEADLINE_POLL_DECISIONS) && expired() {
                            self.backtrack(0);
                            return SatOutcome::Unknown;
                        }
                    }
                }
            }
        }
    }

    // --- activity heap (binary max-heap with position index) ---

    fn heap_insert(&mut self, v: BVar) {
        self.heap.push(v);
        self.heap_up(self.heap.len() - 1);
    }

    /// Sifts the variable at heap slot `i` up. Moves each parent down into
    /// the hole instead of swapping: the same comparisons and the same
    /// final layout as swapping, with fewer writes.
    fn heap_up(&mut self, mut i: usize) {
        let v = self.heap[i];
        let act = self.activity[v.index()];
        while i > 0 {
            let parent = (i - 1) / 2;
            let pv = self.heap[parent];
            if act <= self.activity[pv.index()] {
                break;
            }
            self.heap[i] = pv;
            self.heap_index[pv.index()] = i;
            i = parent;
        }
        self.heap[i] = v;
        self.heap_index[v.index()] = i;
    }

    /// Sifts the variable at heap slot `i` down, moving the more active
    /// child (the left one on a tie) up into the hole while it beats it.
    fn heap_down(&mut self, mut i: usize) {
        let v = self.heap[i];
        let act = self.activity[v.index()];
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let mut child = l;
            let mut child_act = self.activity[self.heap[l].index()];
            if l + 1 < n {
                let r_act = self.activity[self.heap[l + 1].index()];
                if r_act > child_act {
                    child = l + 1;
                    child_act = r_act;
                }
            }
            if child_act <= act {
                break;
            }
            let cv = self.heap[child];
            self.heap[i] = cv;
            self.heap_index[cv.index()] = i;
            i = child;
        }
        self.heap[i] = v;
        self.heap_index[v.index()] = i;
    }

    fn heap_remove_top(&mut self) {
        let top = self.heap[0];
        self.heap_index[top.index()] = usize::MAX;
        let last = self.heap.pop().expect("heap nonempty");
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.heap_index[last.index()] = 0;
            self.heap_down(0);
        }
    }
}

/// The Luby restart sequence (1, 1, 2, 1, 1, 2, 4, ...), 0-indexed.
fn luby(i: u64) -> u64 {
    let mut i = i + 1; // 1-based position in the sequence
    loop {
        // Smallest k with 2^k - 1 >= i.
        let mut k = 1u32;
        while (1u64 << k) - 1 < i {
            k += 1;
        }
        if (1u64 << k) - 1 == i {
            return 1u64 << (k - 1);
        }
        i -= (1u64 << (k - 1)) - 1;
    }
}

/// Solves a CNF with the given budget (convenience wrapper).
pub fn solve_cnf(cnf: &Cnf, budget: SatBudget) -> SatOutcome {
    SatSolver::new(cnf).solve(budget)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: u32, pos: bool) -> Lit {
        Lit::new(BVar(v), pos)
    }

    #[test]
    fn trivial_sat() {
        let mut cnf = Cnf::new();
        let a = cnf.fresh();
        cnf.add_unit(Lit::pos(a));
        match solve_cnf(&cnf, SatBudget::default()) {
            SatOutcome::Sat(m) => assert!(m[0]),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn trivial_unsat() {
        let mut cnf = Cnf::new();
        let a = cnf.fresh();
        cnf.add_unit(Lit::pos(a));
        cnf.add_unit(Lit::neg(a));
        assert_eq!(solve_cnf(&cnf, SatBudget::default()), SatOutcome::Unsat);
    }

    #[test]
    fn empty_clause_unsat() {
        let mut cnf = Cnf::new();
        cnf.fresh();
        cnf.add(&[]);
        assert_eq!(solve_cnf(&cnf, SatBudget::default()), SatOutcome::Unsat);
    }

    #[test]
    fn pigeonhole_3_into_2_unsat() {
        // p(i,j): pigeon i in hole j; 3 pigeons, 2 holes.
        let mut cnf = Cnf::new();
        let mut p = [[BVar(0); 2]; 3];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = cnf.fresh();
            }
        }
        for row in &p {
            cnf.add(&[Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        #[allow(clippy::needless_range_loop)] // j indexes a column across rows
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    cnf.add(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        assert_eq!(solve_cnf(&cnf, SatBudget::default()), SatOutcome::Unsat);
    }

    #[test]
    fn model_satisfies_formula() {
        // Random-ish structured instance: chain of implications plus a few
        // ORs; verify the returned model against Cnf::eval.
        let mut cnf = Cnf::new();
        let vars: Vec<BVar> = (0..20).map(|_| cnf.fresh()).collect();
        for w in vars.windows(2) {
            cnf.add(&[Lit::neg(w[0]), Lit::pos(w[1])]); // v_i -> v_{i+1}
        }
        cnf.add_unit(Lit::pos(vars[0]));
        cnf.add(&[Lit::neg(vars[19]), Lit::pos(vars[5])]);
        match solve_cnf(&cnf, SatBudget::default()) {
            SatOutcome::Sat(m) => assert!(cnf.eval(&m)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn conflict_budget_returns_unknown() {
        // A hard instance (pigeonhole 6 into 5) with a 1-conflict budget.
        let mut cnf = Cnf::new();
        let n = 6;
        let h = 5;
        let mut p = vec![vec![BVar(0); h]; n];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = cnf.fresh();
            }
        }
        for row in &p {
            let clause: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            cnf.add(&clause);
        }
        #[allow(clippy::needless_range_loop)] // j indexes a column across rows
        for j in 0..h {
            for i1 in 0..n {
                for i2 in (i1 + 1)..n {
                    cnf.add(&[Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        let budget = SatBudget {
            max_conflicts: Some(1),
            deadline: None,
        };
        assert_eq!(solve_cnf(&cnf, budget), SatOutcome::Unknown);
    }

    #[test]
    fn xor_chain_sat() {
        // x0 xor x1 = 1 encoded in CNF; chain a few.
        let mut cnf = Cnf::new();
        let a = cnf.fresh();
        let b = cnf.fresh();
        let c = cnf.fresh();
        // a xor b = true
        cnf.add(&[lit(a.0, true), lit(b.0, true)]);
        cnf.add(&[lit(a.0, false), lit(b.0, false)]);
        // b xor c = true
        cnf.add(&[lit(b.0, true), lit(c.0, true)]);
        cnf.add(&[lit(b.0, false), lit(c.0, false)]);
        // force a
        cnf.add_unit(Lit::pos(a));
        match solve_cnf(&cnf, SatBudget::default()) {
            SatOutcome::Sat(m) => {
                assert!(m[a.index()]);
                assert!(!m[b.index()]);
                assert!(m[c.index()]);
            }
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn assumptions_flip_between_calls() {
        // x ∨ y with assumption sequences exercising both polarities.
        let mut cnf = Cnf::new();
        let x = cnf.fresh();
        let y = cnf.fresh();
        cnf.add(&[Lit::pos(x), Lit::pos(y)]);
        let mut s = SatSolver::new(&cnf);
        // Assume ¬x: y must hold.
        match s.solve_under_assumptions(&[Lit::neg(x)], SatBudget::default()) {
            SatOutcome::Sat(m) => {
                assert!(!m[x.index()]);
                assert!(m[y.index()]);
            }
            other => panic!("expected sat, got {other:?}"),
        }
        // Flip: assume ¬y — x must hold.
        match s.solve_under_assumptions(&[Lit::neg(y)], SatBudget::default()) {
            SatOutcome::Sat(m) => {
                assert!(m[x.index()]);
                assert!(!m[y.index()]);
            }
            other => panic!("expected sat, got {other:?}"),
        }
        // Contradictory assumptions: unsat, but the solver stays usable.
        assert_eq!(
            s.solve_under_assumptions(&[Lit::neg(x), Lit::neg(y)], SatBudget::default()),
            SatOutcome::Unsat
        );
        assert!(s.is_ok(), "assumption failure must not poison the solver");
        // And a later unconstrained call still answers Sat.
        assert!(matches!(
            s.solve_under_assumptions(&[], SatBudget::default()),
            SatOutcome::Sat(_)
        ));
    }

    #[test]
    fn incremental_clause_addition_between_calls() {
        let mut s = SatSolver::empty();
        s.ensure_vars(2);
        let a = Lit::pos(BVar(0));
        let b = Lit::pos(BVar(1));
        s.add_clause_incremental(&[a, b]);
        assert!(matches!(s.solve(SatBudget::default()), SatOutcome::Sat(_)));
        s.add_clause_incremental(&[!a]);
        match s.solve(SatBudget::default()) {
            SatOutcome::Sat(m) => assert!(m[1]),
            other => panic!("expected sat, got {other:?}"),
        }
        s.add_clause_incremental(&[!b]);
        assert_eq!(s.solve(SatBudget::default()), SatOutcome::Unsat);
        assert!(!s.is_ok(), "a genuine level-0 contradiction poisons the db");
        // Permanently unsat now, under any assumptions.
        assert_eq!(
            s.solve_under_assumptions(&[a], SatBudget::default()),
            SatOutcome::Unsat
        );
    }

    #[test]
    fn unsat_after_sat_with_learnt_retention() {
        // Pigeonhole 3→2 is unsat; guarded by a selector literal g the
        // combined instance is sat with ¬g and unsat assuming g.
        let mut cnf = Cnf::new();
        let g = cnf.fresh();
        let mut p = [[BVar(0); 2]; 3];
        for row in p.iter_mut() {
            for cell in row.iter_mut() {
                *cell = cnf.fresh();
            }
        }
        for row in &p {
            cnf.add(&[Lit::neg(g), Lit::pos(row[0]), Lit::pos(row[1])]);
        }
        #[allow(clippy::needless_range_loop)]
        for j in 0..2 {
            for i1 in 0..3 {
                for i2 in (i1 + 1)..3 {
                    cnf.add(&[Lit::neg(g), Lit::neg(p[i1][j]), Lit::neg(p[i2][j])]);
                }
            }
        }
        let mut s = SatSolver::new(&cnf);
        assert!(matches!(
            s.solve_under_assumptions(&[Lit::neg(g)], SatBudget::default()),
            SatOutcome::Sat(_)
        ));
        assert_eq!(
            s.solve_under_assumptions(&[Lit::pos(g)], SatBudget::default()),
            SatOutcome::Unsat
        );
        assert!(s.is_ok(), "assumption failure must not poison the solver");
        // Learnt clauses from the unsat call must not break later sat calls.
        assert!(matches!(
            s.solve_under_assumptions(&[Lit::neg(g)], SatBudget::default()),
            SatOutcome::Sat(_)
        ));
    }

    #[test]
    fn ensure_vars_grows_universe() {
        let mut s = SatSolver::empty();
        assert_eq!(s.num_vars(), 0);
        s.ensure_vars(5);
        assert_eq!(s.num_vars(), 5);
        s.ensure_vars(3); // never shrinks
        assert_eq!(s.num_vars(), 5);
        s.add_clause_incremental(&[Lit::pos(BVar(4))]);
        match s.solve(SatBudget::default()) {
            SatOutcome::Sat(m) => assert!(m[4]),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_stops_a_search_without_conflicts() {
        // 100,000 implications x_{2i} → x_{2i+1} over 200,000 variables: the
        // search decides about half of them and never conflicts, so only the
        // decision poll can see the deadline.
        let mut cnf = Cnf::new();
        let vars: Vec<BVar> = (0..200_000).map(|_| cnf.fresh()).collect();
        for pair in vars.chunks(2) {
            cnf.add(&[Lit::neg(pair[0]), Lit::pos(pair[1])]);
        }
        let mut s = SatSolver::new(&cnf);
        let expired = SatBudget {
            max_conflicts: None,
            deadline: Some(Instant::now()),
        };
        assert_eq!(s.solve(expired), SatOutcome::Unknown);
        assert_eq!(s.stats.decisions, DEADLINE_POLL_DECISIONS);
        assert_eq!(s.stats.conflicts, 0);
        // The same solver still answers once the deadline is lifted.
        match s.solve(SatBudget::default()) {
            SatOutcome::Sat(m) => assert!(cnf.eval(&m)),
            other => panic!("expected sat, got {other:?}"),
        }
    }

    #[test]
    fn luby_sequence_prefix() {
        let want = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8];
        let got: Vec<u64> = (0..want.len() as u64).map(luby).collect();
        assert_eq!(got, want);
    }

    /// Pigeonhole `pigeons → holes`, each clause guarded by `¬g` (variable
    /// 0): unsatisfiable assuming `g`, satisfiable assuming `¬g`.
    fn guarded_pigeonhole(pigeons: u32, holes: u32) -> Cnf {
        let mut cnf = Cnf::new();
        let g = Lit::neg(cnf.fresh());
        let p: Vec<Vec<BVar>> = (0..pigeons)
            .map(|_| (0..holes).map(|_| cnf.fresh()).collect())
            .collect();
        for row in &p {
            let mut clause = vec![g];
            clause.extend(row.iter().map(|&v| Lit::pos(v)));
            cnf.add(&clause);
        }
        for j in 0..holes as usize {
            for a in 0..p.len() {
                for b in a + 1..p.len() {
                    cnf.add(&[g, Lit::neg(p[a][j]), Lit::neg(p[b][j])]);
                }
            }
        }
        cnf
    }

    #[test]
    fn clear_returns_to_the_empty_solver_and_load_to_new() {
        let cnf = guarded_pigeonhole(7, 6);
        let g = Lit::pos(BVar(0));
        let mut s = SatSolver::new(&cnf);
        let first = s.solve_under_assumptions(&[g], SatBudget::default());
        assert_eq!(first, SatOutcome::Unsat);
        assert!(s.learnt_clauses() > 0 && s.stats.conflicts > 0);
        assert!(matches!(
            s.solve_under_assumptions(&[!g], SatBudget::default()),
            SatOutcome::Sat(_)
        ));
        let solved = s.stats;
        // Every field, scalars and statistics included, is back to the
        // empty solver's.
        s.clear();
        assert_eq!(format!("{s:?}"), format!("{:?}", SatSolver::empty()));
        // Loading the CNF again rebuilds `new`, watch layout included, and
        // the search repeats step for step.
        s.load(&cnf);
        assert_eq!(format!("{s:?}"), format!("{:?}", SatSolver::new(&cnf)));
        assert_eq!(s.solve_under_assumptions(&[g], SatBudget::default()), first);
        assert!(matches!(
            s.solve_under_assumptions(&[!g], SatBudget::default()),
            SatOutcome::Sat(_)
        ));
        assert_eq!(format!("{:?}", s.stats), format!("{solved:?}"));
    }

    #[test]
    fn full_assignment_empties_the_heap() {
        let mut s = SatSolver::new(&guarded_pigeonhole(3, 3));
        assert!(matches!(s.solve(SatBudget::default()), SatOutcome::Sat(_)));
        // The answer backtracked to level 0, which put every variable back.
        assert_eq!(s.heap.len(), s.num_vars());
        s.trail_lim.push(s.trail.len());
        for v in 0..s.num_vars() {
            let l = Lit::pos(BVar(v as u32));
            if s.value(l) == UNDEF {
                s.assign(l, NO_REASON);
            }
        }
        assert_eq!(s.pick_branch(), None);
        assert!(s.heap.is_empty());
        assert!(s.heap_index.iter().all(|&i| i == usize::MAX));
    }

    use proptest::prelude::*;

    /// Literals of the watch-store model test.
    const MODEL_LITS: usize = 256;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Every list of the store equals, in order, a `Vec` given the same
        /// operations: pushes (a few lists take most of them, so blocks
        /// grow, move and are reused) and bursts of pushes, swap-removes,
        /// in-place retains of one list or of all, and clears.
        #[test]
        fn watch_store_lists_match_vecs(
            ops in prop::collection::vec(
                (0u32..32, prop_oneof![0usize..8, 0usize..MODEL_LITS], any::<u32>()),
                1..1500,
            )
        ) {
            let mut store = WatchStore::new();
            let mut model: Vec<Vec<Watch>> = vec![Vec::new(); MODEL_LITS];
            store.grow_to(MODEL_LITS);
            for (op, lit, x) in ops {
                match op {
                    0..=19 => {
                        let w = Watch { cref: x, blocker: Lit(x.rotate_left(7)) };
                        store.push(lit, w);
                        model[lit].push(w);
                    }
                    20..=25 => {
                        if !model[lit].is_empty() {
                            let i = x as usize % model[lit].len();
                            store.swap_remove(lit, i);
                            model[lit].swap_remove(i);
                        }
                    }
                    26..=28 => {
                        let keep = |w: &mut Watch| {
                            w.cref = w.cref.wrapping_add(1);
                            !(w.cref ^ x).is_multiple_of(3)
                        };
                        store.retain(lit, keep);
                        model[lit].retain_mut(keep);
                    }
                    29..=30 => {
                        for (l, list) in model.iter_mut().enumerate() {
                            let keep = |w: &mut Watch| !(w.cref ^ x).is_multiple_of(4);
                            store.retain(l, keep);
                            list.retain_mut(keep);
                        }
                    }
                    _ if x.is_multiple_of(16) => {
                        store.clear();
                        store.grow_to(MODEL_LITS);
                        model.iter_mut().for_each(Vec::clear);
                    }
                    _ => {
                        // A burst: the list's block often ends the buffer
                        // and grows in place.
                        for k in 0..x % 16 {
                            let w = Watch { cref: x ^ k, blocker: Lit(k) };
                            store.push(lit, w);
                            model[lit].push(w);
                        }
                    }
                }
                for (l, list) in model.iter().enumerate() {
                    prop_assert_eq!(store.list(l), &list[..], "list {}", l);
                }
            }
        }
    }
}
