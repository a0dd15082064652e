//! Allocation counts of the term layer: the preprocessing pipelines on a
//! paper-shaped formula and the bit-blasting of a hot-sinks query into a
//! session.
//!
//! The passes keep their memos, counts and bindings in dense tables the
//! pool reuses, n-ary nodes keep their operands in one buffer the pool
//! owns, and the blaster keeps every bit vector's literals in one buffer,
//! so once those have grown a repeated run allocates only for Gaussian
//! elimination's lists and linear forms, for the pool's growth by the
//! terms it adds, and for the answer it returns. Each count is pinned
//! twice: on a new pool, blaster or session (the tables grow) and again on
//! the same one (they are reused). Each test also pins the numbering it
//! leaves (term and variable ids, CNF variables), which a change to the
//! layout must not move.
//!
//! A counting global allocator keeps its counters per thread, so tests
//! running in parallel do not see each other's allocations.

use fusion_smt::bitblast::SessionBlaster;
use fusion_smt::dense::VarSet;
use fusion_smt::preprocess::{preprocess, preprocess_fragment_seeded, BitsSeeds};
use fusion_smt::session::SolveSession;
use fusion_smt::solver::SolverConfig;
use fusion_smt::term::{BvOp, BvPred, Sort, TermId, TermKind, TermPool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations and reallocations.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: the counter may already be gone while a thread exits.
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and the allocations (and reallocations)
/// it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// `splitmix64`.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// A paper-shaped condition, as the IR translation writes one function's
/// slice: each of 48 definitions is a constant, a copy, arithmetic over
/// earlier definitions (by constants too, powers of two among them), a
/// 0/1-encoded comparison or an `ite` merge on a condition's truth, over
/// four parameters; two branch conditions guard the query, one of them a
/// parity test. Returns the formula and its parameters.
fn paper_formula(pool: &mut TermPool) -> (TermId, Vec<TermId>) {
    let w = Sort::Bv(32);
    let mut mix = Mix(0x7a9e_5eed);
    let params: Vec<TermId> = (0..4).map(|i| pool.var(&format!("p{i}"), w)).collect();
    let mut defs = params.clone();
    let mut parts = Vec::new();
    let zero = pool.bv_const(0, 32);
    let one = pool.bv_const(1, 32);
    for i in 0..48 {
        let v = pool.var(&format!("v{i}"), w);
        let pick = |mix: &mut Mix| defs[mix.below(defs.len() as u64) as usize];
        let (a, b) = (pick(&mut mix), pick(&mut mix));
        let rhs = match mix.below(6) {
            0 => pool.bv_const(mix.below(16), 32),
            1 => a,
            2 => {
                let k = pool.bv_const([2, 3, 4, 8][mix.below(4) as usize], 32);
                let op = [BvOp::Add, BvOp::Mul, BvOp::Sub][mix.below(3) as usize];
                pool.bv(op, a, k)
            }
            3 => {
                let op = [BvOp::Add, BvOp::Sub, BvOp::Xor, BvOp::And][mix.below(4) as usize];
                pool.bv(op, a, b)
            }
            4 => {
                let p = [BvPred::Slt, BvPred::Ule][mix.below(2) as usize];
                let c = pool.pred(p, a, b);
                pool.ite(c, one, zero)
            }
            _ => {
                let c = pick(&mut mix);
                let truthy = pool.ne(c, zero);
                pool.ite(truthy, a, b)
            }
        };
        parts.push(pool.eq(v, rhs));
        defs.push(v);
    }
    let last = defs[defs.len() - 1];
    let guard = pool.ne(last, zero);
    parts.push(guard);
    let two = pool.bv_const(2, 32);
    let doubled = pool.bv(BvOp::Mul, defs[10], two);
    let five = pool.bv_const(5, 32);
    let parity = pool.eq(doubled, five);
    let not_parity = pool.not(parity);
    parts.push(not_parity);
    (pool.and(&parts), params)
}

/// Degree-8 coefficients of the hot-sinks polynomial, highest degree
/// first.
const COEFFS: [u32; 9] = [
    0x9e37_79b9,
    0x7f4a_7c15,
    0x85eb_ca6b,
    0xc2b2_ae35,
    0x27d4_eb2f,
    0x1656_67b1,
    0xd3a2_646c,
    0xfd70_46c5,
    0xb55a_4f09,
];

/// A hot-sinks query: the Horner polynomial of [`COEFFS`] at a 32-bit
/// input equals its value at a point, under an unsigned bound.
fn hot_sinks_query(pool: &mut TermPool) -> TermId {
    let x = pool.var("x", Sort::Bv(32));
    let mut w = pool.bv_const(u64::from(COEFFS[0]), 32);
    for &c in &COEFFS[1..] {
        let prod = pool.bv(BvOp::Mul, w, x);
        let k = pool.bv_const(u64::from(c), 32);
        w = pool.bv(BvOp::Add, prod, k);
    }
    let point = 0x0000_1234u32;
    let target = COEFFS
        .iter()
        .fold(0u32, |acc, &c| acc.wrapping_mul(point).wrapping_add(c));
    let t = pool.bv_const(u64::from(target), 32);
    let hit = pool.eq(w, t);
    let k = pool.bv_const(0x8000_0000, 32);
    let guard = pool.pred(BvPred::Ult, x, k);
    pool.and2(hit, guard)
}

#[test]
fn preprocess_reuses_its_tables() {
    let mut pool = TermPool::new();
    let (f, _) = paper_formula(&mut pool);
    let (cold, cold_allocs) = counted(|| preprocess(&mut pool, f));
    assert_eq!(cold.decided, None, "the formula must reach every pass");
    // Unconstrained-variable elimination mints new fresh variables on
    // every run, so the second result is another term of the same shape.
    let (warm, warm_allocs) = counted(|| preprocess(&mut pool, f));
    assert_eq!((warm.decided, warm.rounds), (cold.decided, cold.rounds));
    // The numbering every pass leaves.
    let shape = (cold.term, warm.term, pool.len(), pool.var_count());
    assert_eq!(shape, (TermId(275), TermId(278), 279, 54));
    assert_eq!((cold_allocs, warm_allocs), (66, 5));
}

#[test]
fn fragment_preprocessing_reuses_its_tables() {
    let mut pool = TermPool::new();
    let (f, params) = paper_formula(&mut pool);
    let mut protected = VarSet::new();
    let mut seeds = BitsSeeds::new();
    for &p in &params {
        let TermKind::Var(v) = *pool.kind(p) else {
            unreachable!("parameters are variables")
        };
        protected.insert(v);
        // Every parameter is even.
        seeds.insert(v, 1, 0);
    }
    let (cold, cold_allocs) =
        counted(|| preprocess_fragment_seeded(&mut pool, f, &protected, &seeds));
    assert_eq!(cold.decided, None, "the fragment must reach every pass");
    let (warm, warm_allocs) =
        counted(|| preprocess_fragment_seeded(&mut pool, f, &protected, &seeds));
    assert_eq!(warm, cold);
    assert_eq!((cold.term, cold.rounds, pool.len()), (TermId(238), 2, 273));
    assert_eq!((cold_allocs, warm_allocs), (53, 2));
}

#[test]
fn blasting_a_hot_sinks_query_reuses_the_blasters_buffers() {
    let mut pool = TermPool::new();
    let q = hot_sinks_query(&mut pool);
    let mut blaster = SessionBlaster::new();
    let (root, cold_allocs) = counted(|| blaster.blast_root(&pool, q));
    let (vars, memo) = (blaster.num_cnf_vars(), blaster.memo_len());
    blaster.clear();
    let (again, warm_allocs) = counted(|| blaster.blast_root(&pool, q));
    assert_eq!(again, root);
    assert_eq!((blaster.num_cnf_vars(), blaster.memo_len()), (vars, memo));
    assert_eq!((root.0, vars, memo), (22712, 11357, 31));
    assert_eq!((cold_allocs, warm_allocs), (54, 0));
}

#[test]
fn a_reset_session_solves_a_hot_sinks_query_in_its_buffers() {
    let mut pool = TermPool::new();
    let q = hot_sinks_query(&mut pool);
    let mut session = SolveSession::new();
    let cfg = SolverConfig::default();
    let ((first, stats), cold_allocs) = counted(|| session.solve_formula(&mut pool, q, &cfg));
    assert!(first.is_sat());
    session.reset();
    let (second, warm_allocs) = counted(|| session.solve_formula(&mut pool, q, &cfg).0);
    assert_eq!(second, first);
    let search = (stats.cnf_clauses, stats.sat_decisions, stats.sat_conflicts);
    assert_eq!(search, (61833, 0, 0));
    assert_eq!((cold_allocs, warm_allocs), (138, 4));
}
