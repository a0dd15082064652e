//! Allocation counts of the front end and the PDG build on a small
//! wine-shaped subject: the buffers that hold names, syntax nodes,
//! operands and adjacency are allocated per program or per function,
//! never per name, node or definition.
//!
//! A counting global allocator keeps its counters per thread, so tests
//! running in parallel do not see each other's allocations.

use fusion_ir::callgraph::unroll_recursion;
use fusion_ir::parser::parse;
use fusion_ir::{compile, CompileOptions, Interner, Program};
use fusion_pdg::graph::Pdg;
use fusion_workloads::{generate, GenConfig, SubjectSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::borrow::Cow;
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

/// Runs `f`, returning its result and how far it moved `counter` on this
/// thread.
fn counted<T>(counter: &'static LocalKey<Cell<u64>>, f: impl FnOnce() -> T) -> (T, u64) {
    let before = counter.with(Cell::get);
    let out = f();
    (out, counter.with(Cell::get) - before)
}

/// Runs `f`, returning its result and the allocations (and reallocations)
/// it made on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    counted(&ALLOCATIONS, f)
}

/// The source text of the wine-shaped Table 2 subject at `scale`.
fn source(scale: f64) -> String {
    let spec = SubjectSpec::by_name("wine").expect("wine is a Table 2 subject");
    let cfg = GenConfig {
        seed: 7,
        ..spec.gen_config(scale)
    };
    generate(&cfg).to_source()
}

/// The wine-shaped Table 2 subject at scale 0.002, compiled from source.
fn subject() -> Program {
    compile(&source(0.002), CompileOptions::default()).expect("generated source compiles")
}

/// Parsing allocates each function's node vectors once, at their exact
/// size, and dropping the tree frees those vectors without a walk.
#[test]
fn parsing_allocates_per_function_not_per_node() {
    let text = source(0.002);
    let mut interner = Interner::new();
    let (surface, n) = allocations(|| parse(&text, &mut interner).expect("source parses"));
    let functions = surface.functions.len();
    let bound = 8 * functions as u64 + 16;
    // A per-node allocation alone would break the bound.
    let nodes: usize = surface.functions.iter().map(|f| f.exprs().len()).sum();
    assert!(nodes as u64 > 2 * bound, "{nodes} expression nodes");
    assert!(
        n <= bound,
        "parse made {n} allocations for {functions} functions"
    );
    let ((), freed) = counted(&FREES, || drop(surface));
    assert!(
        freed <= bound,
        "dropping the tree freed {freed} blocks for {functions} functions"
    );
}

/// Finding no recursion costs the same few buffers however many
/// functions the program has, and the program comes back uncopied.
#[test]
fn unroll_recursion_borrows_an_acyclic_program_after_constant_allocations() {
    let mut runs = Vec::new();
    for scale in [0.0005, 0.002] {
        let text = source(scale);
        let mut interner = Interner::new();
        let surface = parse(&text, &mut interner).expect("source parses");
        let (unrolled, n) = allocations(|| {
            unroll_recursion(&surface, &mut interner, 2).expect("the call graph builds")
        });
        assert!(matches!(unrolled, Cow::Borrowed(_)), "scale {scale}");
        runs.push((surface.functions.len(), n));
    }
    let [(small, n_small), (large, n_large)] = runs[..] else {
        unreachable!()
    };
    assert!(2 * small < large, "{small} and {large} functions");
    assert_eq!(
        n_small, n_large,
        "{n_small} allocations for {small} functions, {n_large} for {large}"
    );
    assert!(n_large <= 16, "unroll_recursion made {n_large} allocations");
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
    // `Pdg::build` allocates the adjacency cells and the reverse call
    // map (offsets, cursor, sites): four buffers, whatever the program's
    // size. No function's adjacency is built before something reads it.
    let (pdg, n) = allocations(|| Pdg::build(&program));
    assert_eq!(n, 4, "Pdg::build made {n} allocations");
    assert_eq!(pdg.stats().vertices, program.size());
    assert_eq!(pdg.built_functions(), 0);
    // Reading every definition builds each function's adjacency once, in
    // three buffers (offsets, edges, the shared cell); a per-definition
    // allocation alone would break the bound.
    let bound = 3 * functions as u64;
    assert!(
        program.size() as u64 > 2 * bound,
        "{} definitions",
        program.size()
    );
    let ((), n) = allocations(|| {
        for f in &program.functions {
            for d in &f.defs {
                pdg.uses(&program, f.id, d.var);
            }
        }
    });
    assert!(
        n <= bound,
        "building every adjacency made {n} allocations for {functions} functions"
    );
    // Externs have no definitions to read.
    let bodies = program.functions.iter().filter(|f| !f.defs.is_empty());
    assert_eq!(pdg.built_functions(), bodies.count());
}
