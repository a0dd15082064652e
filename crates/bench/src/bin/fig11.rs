//! Figure 11 — per-instance SMT solving time: the solver based on the
//! dependence graph vs the standalone solver on the same instances.
//!
//! For every feasibility query the analysis issues, the harness times the
//! Fusion solver (Algorithm 6) and the standalone pipeline (Algorithm 4:
//! clone everything, then Algorithm 3). It reports the sat/unsat shares,
//! the fraction decided during preprocessing (paper: 60% / 40% / 21%),
//! mean speedups by verdict (paper: 3.0x sat, 1.8x unsat, 2.5x overall)
//! and a bucketed ASCII scatter of the time pairs.

use fusion::cache::VerdictCache;
use fusion::checkers::Checker;
use fusion::engine::{Feasibility, FeasibilityEngine};
use fusion::graph_solver::{FusionSolver, UnoptimizedGraphSolver};
use fusion::propagate::{discover, PropagateOptions};
use fusion_bench::{banner, build_subject, default_budget, scale_from_env};
use fusion_workloads::SUBJECTS;

/// (fusion time, standalone time, verdict, preprocess-decided).
type Pair = (f64, f64, Feasibility, bool);

fn main() {
    banner(
        "Figure 11: time of SMT solving on all benchmarks",
        "graph-based solver (Alg. 6) vs standalone solving of the cloned condition (Alg. 4)",
    );
    let scale = scale_from_env();
    let checker = Checker::null_deref();
    let mut pairs: Vec<Pair> = Vec::new();
    // The shared verdict cache of the solve pipeline, consulted alongside
    // the timed solves to report what fraction of queries it absorbs.
    let cache = VerdictCache::new();
    for spec in &SUBJECTS {
        let subject = build_subject(spec, scale);
        let candidates = discover(
            &subject.program,
            &subject.pdg,
            &checker,
            &PropagateOptions::default(),
        );
        let mut fused = FusionSolver::new(default_budget());
        let mut standalone = UnoptimizedGraphSolver::new(default_budget());
        for cand in &candidates {
            for path in &cand.paths {
                let key = VerdictCache::key(&subject.program, std::slice::from_ref(path));
                let cached = cache.get(key);
                let f =
                    fused.check_paths(&subject.program, &subject.pdg, std::slice::from_ref(path));
                if let Some(v) = cached {
                    assert_eq!(v, f.feasibility, "a cache hit must never flip a verdict");
                }
                cache.insert(key, f.feasibility);
                let s = standalone.check_paths(
                    &subject.program,
                    &subject.pdg,
                    std::slice::from_ref(path),
                );
                if f.feasibility == s.feasibility {
                    pairs.push((
                        f.duration.as_secs_f64(),
                        s.duration.as_secs_f64(),
                        f.feasibility,
                        f.preprocess_decided,
                    ));
                }
            }
        }
    }
    let total = pairs.len().max(1);
    let sat = pairs
        .iter()
        .filter(|p| p.2 == Feasibility::Feasible)
        .count();
    let unsat = pairs
        .iter()
        .filter(|p| p.2 == Feasibility::Infeasible)
        .count();
    let pre = pairs.iter().filter(|p| p.3).count();
    println!(
        "\ninstances: {total} ({}% sat, {}% unsat, {}% decided in preprocessing)",
        100 * sat / total,
        100 * unsat / total,
        100 * pre / total
    );
    println!("paper:     310,462 (60% sat, 40% unsat, 21% decided in preprocessing)");

    let mean_speedup = |filter: &dyn Fn(&Pair) -> bool| -> f64 {
        let sel: Vec<&Pair> = pairs.iter().filter(|p| filter(p)).collect();
        if sel.is_empty() {
            return 0.0;
        }
        let ratios: f64 = sel.iter().map(|p| (p.1.max(1e-7)) / (p.0.max(1e-7))).sum();
        ratios / sel.len() as f64
    };
    println!(
        "\nmean speedup (standalone / graph-based): sat {:.2}x, unsat {:.2}x, overall {:.2}x",
        mean_speedup(&|p| p.2 == Feasibility::Feasible),
        mean_speedup(&|p| p.2 == Feasibility::Infeasible),
        mean_speedup(&|_| true),
    );
    println!("paper:                                   sat 3.0x,  unsat 1.8x,  overall ~2.5x");

    // Bucketed scatter: log-time grid, x = graph-based, y = standalone.
    println!("\nscatter (log buckets; '.'<3, '+'<10, '#'>=10 instances; diagonal marked '\\')");
    let bucket = |t: f64| -> usize {
        // 10us .. 1s in 6 decades-ish buckets
        let l = (t.max(1e-5)).log10(); // -5 .. 0
        ((l + 5.0).floor() as usize).min(5)
    };
    let mut grid = [[0usize; 6]; 6];
    for p in &pairs {
        grid[bucket(p.1)][bucket(p.0)] += 1;
    }
    let labels = ["10us", "0.1ms", "1ms", "10ms", "0.1s", "1s+"];
    for y in (0..6).rev() {
        let mut row = format!("{:>6} |", labels[y]);
        for (x, _) in labels.iter().enumerate() {
            let n = grid[y][x];
            let c = if n == 0 {
                if x == y {
                    '\\'
                } else {
                    ' '
                }
            } else if n < 3 {
                '.'
            } else if n < 10 {
                '+'
            } else {
                '#'
            };
            row.push_str(&format!("  {c}  "));
        }
        println!("{row}");
    }
    println!("        {}", labels.map(|l| format!("{l:^5}")).join(" "));
    println!("        (x axis: graph-based solver; points above the diagonal mean it wins)");

    let cs = cache.stats();
    println!(
        "\nverdict cache: {} hits / {} misses ({:.0}% hit rate), {} entries, {} B retained",
        cs.hits,
        cs.misses,
        cs.hit_rate() * 100.0,
        cs.entries,
        cs.bytes
    );
}
