//! Allocation counts of the SAT solver on a hot-sinks-shaped CNF: building
//! a solver allocates a few buffers, not one per literal's watch list, and
//! a cleared solver that loads and solves a formula no larger than one it
//! held before allocates only the model it returns.
//!
//! A counting global allocator keeps its counters per thread, so tests
//! running in parallel do not see each other's allocations.

use fusion_smt::bitblast::blast;
use fusion_smt::cnf::Cnf;
use fusion_smt::preprocess::preprocess;
use fusion_smt::sat::{SatBudget, SatOutcome, SatSolver};
use fusion_smt::term::{BvOp, BvPred, Sort, TermPool};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::thread::LocalKey;

struct Counting;

thread_local! {
    /// Allocations and reallocations.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Blocks freed.
    static FREES: Cell<u64> = const { Cell::new(0) };
}

fn count(counter: &'static LocalKey<Cell<u64>>) {
    // `try_with`: the counter may already be gone while a thread exits.
    let _ = counter.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCATIONS);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(&ALLOCATIONS);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(&ALLOCATIONS);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(&FREES);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and the allocations (and reallocations)
/// and frees it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (a, d) = (ALLOCATIONS.with(Cell::get), FREES.with(Cell::get));
    let out = f();
    (
        out,
        ALLOCATIONS.with(Cell::get) - a,
        FREES.with(Cell::get) - d,
    )
}

/// Degree-8 coefficients, highest degree first.
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

/// The cold CNF of a hot-sinks guard, `w(x) == w(0x00ff_00ff)` for a
/// degree-8 polynomial `w` over a 32-bit `x`, under `x < 2^24`: about 62K
/// clauses, whose search learns clauses through 90 conflicts.
fn hot_sinks_cnf() -> Cnf {
    let mut pool = TermPool::new();
    let x = pool.var("x", Sort::Bv(32));
    let mut w = pool.bv_const(u64::from(COEFFS[0]), 32);
    for &c in &COEFFS[1..] {
        let prod = pool.bv(BvOp::Mul, w, x);
        let k = pool.bv_const(u64::from(c), 32);
        w = pool.bv(BvOp::Add, prod, k);
    }
    let point = 0x00ff_00ffu32;
    let t = COEFFS
        .iter()
        .fold(0u32, |acc, &c| acc.wrapping_mul(point).wrapping_add(c));
    let t = pool.bv_const(u64::from(t), 32);
    let hit = pool.eq(w, t);
    let k = pool.bv_const(0x0100_0000, 32);
    let guard = pool.pred(BvPred::Ult, x, k);
    let query = pool.and2(hit, guard);
    let processed = preprocess(&mut pool, query).term;
    blast(&pool, processed).0
}

/// A solver's buffers are allocated per formula: a per-literal watch list
/// would alone cost one allocation for each of the ~22K watched literals.
#[test]
fn building_a_solver_allocates_a_few_buffers() {
    let cnf = hot_sinks_cnf();
    assert!(cnf.num_clauses() > 60_000, "{} clauses", cnf.num_clauses());
    let (solver, n, _) = counted(|| SatSolver::new(&cnf));
    assert!(
        n <= 16,
        "SatSolver::new made {n} allocations for {} clauses",
        cnf.num_clauses()
    );
    let ((), _, freed) = counted(|| drop(solver));
    assert!(freed <= 16, "dropping the solver freed {freed} blocks");
}

/// Clearing keeps every buffer, so loading and solving the same formula
/// again allocates only the model vector of the `Sat` answer.
#[test]
fn a_cleared_solver_reloads_and_solves_without_allocating() {
    let cnf = hot_sinks_cnf();
    let mut solver = SatSolver::new(&cnf);
    let first = solver.solve(SatBudget::default());
    assert!(matches!(first, SatOutcome::Sat(_)));
    assert!(solver.stats.conflicts > 0 && solver.learnt_clauses() > 0);
    let stats = format!("{:?}", solver.stats);
    let (again, n, freed) = counted(|| {
        solver.clear();
        solver.load(&cnf);
        solver.solve(SatBudget::default())
    });
    assert_eq!(again, first);
    assert_eq!(format!("{:?}", solver.stats), stats);
    assert!(
        n <= 1,
        "clear, load and solve made {n} allocations (the model is one)"
    );
    assert_eq!(freed, 0, "clear, load and solve freed {freed} blocks");
}
