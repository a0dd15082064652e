//! The demand-driven layers read what whole-program evaluation gives.
//!
//! The PDG builds a function's adjacency, and [`ProgramFacts`] a
//! function's facts or return fact, the first time a read needs them.
//! These tests check each lazy read against an eager oracle on generated
//! programs, in random orders and from several threads at once, and pin
//! how much of a small program one scan demands.
//!
//! * **Facts** — every `value`, `function` and `ret_fact` read of empty
//!   facts equals [`ProgramFacts::compute`], and the cells a set of reads
//!   fills do not depend on the order or the thread that reads them.
//! * **Adjacency** — every vertex's `uses` equals a def→use list built
//!   naively from the definitions, and its `flow_targets` equal a graph
//!   forced whole before the first read.
//! * **Rebuild** — after a one-function edit, `Pdg::rebuild` of a
//!   partly built graph reads like a fresh `Pdg::build`.
//! * **Demand** — the run counters of one scan of a small program, at one
//!   and two threads and with absint off.

use fusion::checkers::CheckerSet;
use fusion::engine::{analyze_multi_streaming_with_cache, AnalysisOptions, FeasibilityEngine};
use fusion::graph_solver::FusionSolver;
use fusion::incremental::function_fingerprints;
use fusion::ProgramFacts;
use fusion_ir::ssa::{FuncId, VarId};
use fusion_ir::{compile, CompileOptions, Program};
use fusion_pdg::graph::{Pdg, Vertex};
use fusion_smt::solver::SolverConfig;
use fusion_workloads::{generate, generate_multi, GenConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn compile_src(src: &str) -> Program {
    compile(src, CompileOptions::default()).expect("compile")
}

/// Generated subjects: single programs and multi-module ones.
fn subjects() -> Vec<Program> {
    let mut out = Vec::new();
    for seed in [3u64, 17, 40] {
        let cfg = GenConfig {
            seed,
            functions: 24,
            ..GenConfig::default()
        };
        out.push(compile_src(&generate(&cfg).to_source()));
        out.push(compile_src(&generate_multi(&cfg, 3)));
    }
    out
}

fn shuffled<T>(mut items: Vec<T>, rng: &mut StdRng) -> Vec<T> {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
    items
}

/// One read of the facts: a definition's fact, or a function's return
/// fact.
#[derive(Clone, Copy)]
enum Read {
    Value(FuncId, VarId),
    Ret(FuncId),
}

fn every_read(program: &Program) -> Vec<Read> {
    let mut reads = Vec::new();
    for f in &program.functions {
        reads.push(Read::Ret(f.id));
        for d in &f.defs {
            reads.push(Read::Value(f.id, d.var));
        }
    }
    reads
}

/// Performs `read` on `lazy` and checks it against `eager`.
fn check(program: &Program, lazy: &ProgramFacts, eager: &ProgramFacts, read: Read) {
    match read {
        Read::Value(f, v) => assert_eq!(
            lazy.value(program, f, v),
            eager.value(program, f, v),
            "fact of {f}:{v}"
        ),
        Read::Ret(f) => assert_eq!(
            lazy.ret_fact(program, f),
            eager.ret_fact(program, f),
            "return fact of {f}"
        ),
    }
}

#[test]
fn facts_read_in_any_order_equal_whole_program_evaluation() {
    for (i, program) in subjects().iter().enumerate() {
        let eager = ProgramFacts::compute(program);
        let n = program.functions.len();
        assert_eq!(eager.functions_evaluated(), n);
        assert_eq!(eager.returns_evaluated(), n);
        let mut rng = StdRng::seed_from_u64(i as u64);
        // Return facts first: each is evaluated from its return's cone,
        // never from a whole body.
        let lazy = ProgramFacts::new(program);
        assert_eq!(lazy.functions_evaluated(), 0);
        let rets = shuffled(program.functions.iter().map(|f| f.id).collect(), &mut rng);
        for &f in &rets {
            check(program, &lazy, &eager, Read::Ret(f));
        }
        assert_eq!(lazy.functions_evaluated(), 0, "subject {i}");
        assert_eq!(lazy.returns_evaluated(), n, "subject {i}");
        // Then everything, in a random order, on fresh facts.
        let lazy = ProgramFacts::new(program);
        for read in shuffled(every_read(program), &mut rng) {
            check(program, &lazy, &eager, read);
        }
        // Externs have no definition to read, so no body was evaluated.
        let bodies = program.functions.iter().filter(|f| !f.defs.is_empty());
        assert_eq!(lazy.functions_evaluated(), bodies.count());
        assert_eq!(lazy.returns_evaluated(), n);
        assert_eq!(lazy.bytes(), eager.bytes());
        for f in &program.functions {
            assert_eq!(lazy.function(program, f.id), eager.function(program, f.id));
        }
        assert_eq!(lazy.functions_evaluated(), n);
    }
}

#[test]
fn facts_read_from_four_threads_equal_one_thread() {
    for (i, program) in subjects().iter().enumerate() {
        let eager = ProgramFacts::compute(program);
        let mut rng = StdRng::seed_from_u64(100 + i as u64);
        // A random third of the reads: the cells they fill must be the
        // same whichever thread reads first.
        let reads: Vec<Read> = every_read(program)
            .into_iter()
            .filter(|_| rng.gen_range(0..3) == 0)
            .collect();
        let alone = ProgramFacts::new(program);
        for &read in &reads {
            check(program, &alone, &eager, read);
        }
        let shared = ProgramFacts::new(program);
        let orders: Vec<Vec<Read>> = (0..4).map(|_| shuffled(reads.clone(), &mut rng)).collect();
        std::thread::scope(|scope| {
            for order in &orders {
                let (shared, eager) = (&shared, &eager);
                scope.spawn(move || {
                    for &read in order {
                        check(program, shared, eager, read);
                    }
                });
            }
        });
        assert_eq!(
            (shared.functions_evaluated(), shared.returns_evaluated()),
            (alone.functions_evaluated(), alone.returns_evaluated()),
            "subject {i}: filled cells"
        );
    }
}

/// The def→use lists of one function, built naively: for each
/// definition in order, each operand slot.
fn naive_uses(program: &Program, f: FuncId) -> Vec<Vec<(VarId, usize)>> {
    let func = program.func(f);
    let mut uses = vec![Vec::new(); func.defs.len()];
    for def in &func.defs {
        for (slot, op) in def.kind.operands().into_iter().enumerate() {
            uses[op.index()].push((def.var, slot));
        }
    }
    uses
}

fn vertices(program: &Program) -> Vec<Vertex> {
    program
        .functions
        .iter()
        .flat_map(|f| f.defs.iter().map(move |d| Vertex::new(f.id, d.var)))
        .collect()
}

#[test]
fn lazy_adjacency_equals_a_fully_built_graph() {
    for (i, program) in subjects().iter().enumerate() {
        let forced = Pdg::build(program);
        for f in &program.functions {
            let naive = naive_uses(program, f.id);
            for d in &f.defs {
                assert_eq!(forced.uses(program, f.id, d.var), naive[d.var.index()]);
            }
        }
        let bodies = program.functions.iter().filter(|f| !f.defs.is_empty());
        assert_eq!(forced.built_functions(), bodies.count());
        let lazy = Pdg::build(program);
        assert_eq!(lazy.stats(), forced.stats());
        let mut rng = StdRng::seed_from_u64(200 + i as u64);
        for v in shuffled(vertices(program), &mut rng) {
            assert_eq!(
                lazy.uses(program, v.func, v.var),
                forced.uses(program, v.func, v.var)
            );
            assert!(
                lazy.flow_targets(program, v)
                    .eq(forced.flow_targets(program, v)),
                "flow targets of {v}"
            );
        }
    }
}

/// Inserts `let zedit = 7;` at the top of the `k`-th function's body: a
/// content edit that keeps every function and call site in place.
fn edit_function(text: &str, k: usize) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    let headers: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].starts_with("fn ") && lines[i].ends_with('{'))
        .collect();
    lines.insert(headers[k % headers.len()] + 1, "  let zedit = 7;");
    lines.join("\n")
}

#[test]
fn rebuild_after_an_edit_reads_like_a_fresh_build() {
    for seed in [5u64, 23] {
        let cfg = GenConfig {
            seed,
            functions: 24,
            ..GenConfig::default()
        };
        let text = generate(&cfg).to_source();
        let before = compile_src(&text);
        let after = compile_src(&edit_function(&text, seed as usize));
        let old = function_fingerprints(&before);
        let unchanged: Vec<bool> = function_fingerprints(&after)
            .iter()
            .zip(&old)
            .map(|(a, b)| a == b)
            .collect();
        assert_eq!(unchanged.iter().filter(|&&u| !u).count(), 1, "one edit");
        // Build a random half of the old graph, as a scan would have.
        let prev = Pdg::build(&before);
        let mut rng = StdRng::seed_from_u64(seed);
        for f in &before.functions {
            if !f.defs.is_empty() && rng.gen_bool(0.5) {
                prev.uses(&before, f.id, VarId(0));
            }
        }
        let rebuilt = Pdg::rebuild(&after, &prev, &unchanged);
        let fresh = Pdg::build(&after);
        assert_eq!(rebuilt.stats(), fresh.stats());
        for f in &after.functions {
            let i = f.id.index();
            let built = prev.shares_func_with(&prev, f.id);
            assert_eq!(
                rebuilt.shares_func_with(&prev, f.id),
                unchanged[i] && built,
                "function {i}: built cells of unedited functions are shared"
            );
        }
        for v in shuffled(vertices(&after), &mut rng) {
            assert_eq!(
                rebuilt.uses(&after, v.func, v.var),
                fresh.uses(&after, v.func, v.var)
            );
            assert!(
                rebuilt
                    .flow_targets(&after, v)
                    .eq(fresh.flow_targets(&after, v)),
                "flow targets of {v}"
            );
        }
    }
}

fn factory() -> Box<dyn FeasibilityEngine> {
    Box::new(FusionSolver::new(SolverConfig::default()))
}

/// `f`'s null source reaches `deref` through `id`; `helper` feeds the
/// guard and is read only through its return fact; `unused` and `far`
/// are never demanded.
const DEMAND_SRC: &str = "extern fn deref(p);\n\
    fn id(x) { return x; }\n\
    fn helper(y) { let z = y * 2; return z; }\n\
    fn unused(a) { let b = a + 1; return b; }\n\
    fn far(a) { let b = unused(a); return b; }\n\
    fn f(x) { let q = null; let r = 1; let h = helper(x); \
    if (h > 7) { r = id(q); } deref(r); return 0; }";

#[test]
fn one_scan_demands_only_what_it_reads() {
    let program = compile_src(DEMAND_SRC);
    let set = CheckerSet::all();
    let demand = |threads: usize, absint: bool| {
        let pdg = Pdg::build(&program);
        let mut opts = AnalysisOptions::new();
        opts.absint = absint;
        let run = analyze_multi_streaming_with_cache(
            &program, &pdg, &set, &factory, threads, &opts, None,
        );
        assert_eq!(run.candidates, 1);
        assert_eq!(run.all_reports().count(), 1);
        let d = run.stages.demand;
        (
            d.adjacency_functions,
            d.fact_functions,
            d.ret_fact_functions,
        )
    };
    // Discovery steps into `f` and `id`. Triage and seeding read `f`'s
    // and `id`'s facts; `f`'s body needs the return facts of `helper`,
    // `id` and `deref`, and each evaluated body fills its own.
    assert_eq!(demand(1, true), (2, 2, 4));
    assert_eq!(demand(2, true), (2, 2, 4));
    // Without absint the run shares no facts; each engine reads its own
    // quick-path return facts.
    assert_eq!(demand(1, false), (2, 0, 0));
}
