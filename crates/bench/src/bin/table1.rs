//! Table 1 — the cost of computing / solving / caching path conditions.
//!
//! Reproduces the complexity argument of §2 empirically: `foo` calls `bar`
//! `k` times; the conventional design's condition size grows as `O(kn + m)`
//! (the return-value condition of `bar` is instantiated at every call
//! site), while the fused design stays `O(n + m)` and caches nothing.
//!
//! The harness sweeps `k` and prints, per design: materialized instances,
//! condition size (DAG nodes), solve time, and retained (cached) bytes.

use fusion::cache::VerdictCache;
use fusion::checkers::{Checker, CheckerSet};
use fusion::engine::{analyze_multi_with_cache, AnalysisOptions, FeasibilityEngine};
use fusion::graph_solver::{FusionSolver, UnoptimizedGraphSolver};
use fusion::memory::Category;
use fusion::propagate::{discover, PropagateOptions};
use fusion_baselines::PinpointEngine;
use fusion_bench::{banner, default_budget, fmt_secs};
use fusion_ir::{compile, CompileOptions};
use fusion_pdg::graph::Pdg;

/// Builds the Fig. 1 program with `foo` calling `bar` `k` times, `bar`
/// containing `n` chained statements.
fn program_source(k: usize, n: usize) -> String {
    let mut src = String::from("extern fn deref(p);\n");
    src.push_str("fn bar(x) {\n  let y0 = x * 2;\n");
    for i in 1..n {
        src.push_str(&format!("  let y{i} = y{} + 1;\n", i - 1));
    }
    src.push_str(&format!("  return y{};\n}}\n", n - 1));
    src.push_str("fn foo(");
    let params: Vec<String> = (0..k.max(2)).map(|i| format!("a{i}")).collect();
    src.push_str(&params.join(", "));
    src.push_str(") {\n  let pp = null;\n  let r = 1;\n");
    for i in 0..k {
        src.push_str(&format!("  let c{i} = bar(a{i});\n"));
    }
    // Condition uses all k call results.
    let mut cond = String::from("c0 < 1000");
    for i in 1..k {
        cond = format!("{cond} && c{i} < 1000");
    }
    src.push_str(&format!("  if ({cond}) {{ r = pp; }}\n"));
    src.push_str("  deref(r);\n  return 0;\n}\n");
    src
}

fn main() {
    banner(
        "Table 1: computing/solving/caching cost, conventional vs fused",
        "foo calls bar k times (bar has n = 40 statements); paper: O(kn+m) vs O(n+m)",
    );
    let n = 40;
    println!(
        "{:>4} | {:>22} | {:>22} | {:>22}",
        "k", "conventional (pinpoint)", "unopt graph (Alg.4)", "fusion (Alg.6)"
    );
    println!(
        "{:>4} | {:>8} {:>6} {:>6} | {:>8} {:>6} {:>6} | {:>8} {:>6} {:>6}",
        "", "nodes", "inst", "time", "nodes", "inst", "time", "nodes", "inst", "time"
    );
    for k in [1usize, 2, 4, 8, 16, 32] {
        let src = program_source(k, n);
        let program = compile(&src, CompileOptions::default()).expect("compile");
        let pdg = Pdg::build(&program);
        let cands = discover(
            &program,
            &pdg,
            &Checker::null_deref(),
            &PropagateOptions::default(),
        );
        assert_eq!(cands.len(), 1, "one null candidate expected");
        let paths = &cands[0].paths[..1];

        let mut row = format!("{k:>4} |");
        let mut cached = 0u64;
        for engine_id in 0..3 {
            let (outcome, retained) = match engine_id {
                0 => {
                    let mut e = PinpointEngine::new(default_budget());
                    let o = e.check_paths(&program, &pdg, paths);
                    let r = e.memory().current(Category::Summaries)
                        + e.memory().current(Category::PathConditions);
                    (o, r)
                }
                1 => {
                    let mut e = UnoptimizedGraphSolver::new(default_budget());
                    let o = e.check_paths(&program, &pdg, paths);
                    (o, 0)
                }
                _ => {
                    let mut e = FusionSolver::new(default_budget());
                    let o = e.check_paths(&program, &pdg, paths);
                    (o, 0)
                }
            };
            if engine_id == 0 {
                cached = retained;
            }
            row.push_str(&format!(
                " {:>8} {:>6} {:>6} |",
                outcome.condition_nodes,
                outcome.instances,
                fmt_secs(outcome.duration)
            ));
        }
        println!("{}", row.trim_end_matches('|'));
        if k == 32 {
            println!("\ncached bytes retained by the conventional design at k=32: {cached}");
            println!("cached bytes retained by either fused design:              0");
        }
    }
    println!("\nexpected shape: conventional nodes grow ~linearly in k (O(kn+m));");
    println!("fusion nodes stay flat (O(n+m)) with 1 instance (quick path).");

    // Verdict-cache behaviour on the k=32 subject: the first pass fills
    // the shared cache (all misses); a re-analysis of the same program is
    // answered entirely from it (all hits, zero solver queries).
    let src = program_source(32, n);
    let program = compile(&src, CompileOptions::default()).expect("compile");
    let pdg = Pdg::build(&program);
    let cache = VerdictCache::new();
    let mut engine = FusionSolver::new(default_budget());
    let opts = AnalysisOptions::new();
    let set = CheckerSet::single(Checker::null_deref());
    let first = analyze_multi_with_cache(&program, &pdg, &set, &mut engine, &opts, Some(&cache));
    let second = analyze_multi_with_cache(&program, &pdg, &set, &mut engine, &opts, Some(&cache));
    println!(
        "\nverdict cache (k=32): first pass {:.0}% hit rate ({} miss), \
         re-analysis {:.0}% hit rate ({} hit, {} solver queries)",
        first.cache.hit_rate() * 100.0,
        first.cache.misses,
        second.cache.hit_rate() * 100.0,
        second.cache.hits,
        second.queries
    );
}
