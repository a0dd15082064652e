//! Allocation counts of the front end and the PDG build on a small
//! wine-shaped subject: the buffers that hold names, operands and
//! adjacency are allocated per program or per function, never per name
//! or per definition.
//!
//! A counting global allocator keeps its counters per thread, so tests
//! running in parallel do not see each other's allocations.

use fusion_ir::{compile, CompileOptions, Program};
use fusion_pdg::graph::Pdg;
use fusion_workloads::{generate, GenConfig, SubjectSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the counter may already be gone while a thread exits.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The wine-shaped Table 2 subject at scale 0.002, compiled from source.
fn subject() -> Program {
    let spec = SubjectSpec::by_name("wine").expect("wine is a Table 2 subject");
    let cfg = GenConfig {
        seed: 7,
        ..spec.gen_config(0.002)
    };
    let text = generate(&cfg).to_source();
    compile(&text, CompileOptions::default()).expect("generated source compiles")
}

#[test]
fn cloning_the_interner_copies_three_buffers() {
    let program = subject();
    assert!(
        program.interner.len() > 1_000,
        "{} names",
        program.interner.len()
    );
    let (clone, n) = allocations(|| program.interner.clone());
    assert!(n <= 3, "Interner::clone made {n} allocations");
    let name = program.name(program.functions[0].name);
    assert_eq!(clone.lookup(name), Some(program.functions[0].name));
}

#[test]
fn iterating_operands_allocates_nothing() {
    let program = subject();
    let (operands, n) = allocations(|| {
        let mut operands = 0usize;
        for func in &program.functions {
            for def in &func.defs {
                for op in def.kind.operands() {
                    operands += 1 + op.index() % 2;
                }
                operands += def.kind.operands().len();
            }
        }
        operands
    });
    assert!(operands > 1_000);
    assert_eq!(n, 0, "iterating operands made {n} allocations");
}

#[test]
fn pdg_build_allocates_per_function_not_per_definition() {
    let program = subject();
    let functions = program.functions.len();
    let bound = 8 * functions as u64 + 16;
    // A per-definition allocation alone would break the bound.
    assert!(
        program.size() as u64 > 2 * bound,
        "{} definitions",
        program.size()
    );
    let (pdg, n) = allocations(|| Pdg::build(&program));
    assert!(
        n <= bound,
        "Pdg::build made {n} allocations for {functions} functions"
    );
    assert_eq!(pdg.stats().vertices, program.size());
}
