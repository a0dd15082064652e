//! Pins the SAT search step for step: exact `SatStats`, verdicts and model
//! hashes for a fixed corpus.
//!
//! A change to how the SAT kernel stores clauses, watches or values must
//! leave every figure here unchanged. A change to the search itself
//! (branching, learning, restarts, clause deletion) changes them on
//! purpose and re-pins them in the same change, with its own measurements.
//! So does a change to the encoding (the bit-blaster's gates): it changes
//! the CNF, so every figure of the `SESSION` and `COLD` rows but the
//! verdict may move. The pigeonhole row is pure CNF and never moves with
//! the encoding.
//!
//! One check holds whatever is pinned: a query is `Sat` exactly when its
//! target has a root below its bound, and its model puts `x` at one of
//! them (the roots are found by Hensel lifting, not by the solver).
//!
//! The corpus:
//! * nine queries shaped like the `hot-sinks` benchmark subject over one
//!   32-bit input `x`: a degree-8 Horner polynomial `w(x) == t` under an
//!   unsigned bound `x < k` (feasible exactly when a root of `w(x) == t`
//!   is below `k`), and `x * x == c` with `c mod 4` in {2, 3} (never
//!   feasible);
//! * the same nine queries through one incremental `SolveSession`, and
//!   each solved cold through `smt_solve`;
//! * pigeonhole 8 → 7, which runs long enough to reduce the learnt-clause
//!   database.
//!
//! Each query is solved twice: through the public API, and through the
//! same steps at the SAT level (preprocess, blast, solve), where every
//! `SatStats` field and the full Boolean model are visible. The two must
//! agree on verdict, conflicts, decisions and CNF clauses.

use fusion_smt::bitblast::{blast, SessionBlaster};
use fusion_smt::cnf::Cnf;
use fusion_smt::dimacs::{from_dimacs, to_dimacs};
use fusion_smt::preprocess::preprocess;
use fusion_smt::sat::{SatBudget, SatOutcome, SatSolver, SatStats};
use fusion_smt::session::SolveSession;
use fusion_smt::solver::{smt_solve, SatResult, SolveStats, SolverConfig};
use fusion_smt::term::{BvOp, BvPred, Sort, TermId, TermPool, VarIdx};

/// One solved query: verdict (`'s'`, `'u'` or `'?'`), CNF clauses handed
/// to the solver, the call's `SatStats` (decisions, conflicts,
/// propagations, restarts) and an FNV-1a hash of the full SAT model (0
/// when not `Sat`).
type Row = (char, usize, u64, u64, u64, u64, u64);

/// Degree-8 coefficients, highest degree first: all odd except degree 2,
/// so the derivative is odd at every even `x` and an even point is the one
/// root of its target. The targets of the two odd points have four roots
/// each.
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

/// Polynomial queries: (point whose value is the target, bound `k`).
const POLY: [(u32, u32); 6] = [
    (0x0000_1234, 0x8000_0000),
    (0x9abc_def0, 0x8000_0000),
    (0x00ff_00ff, 0x0100_0000),
    (0x3141_5926, 0x4000_0000),
    (0x2718_2818, 0x2000_0000),
    (0x7fff_fff1, 0xffff_ffff),
];

/// Square targets, each 2 or 3 mod 4.
const SQUARES: [u32; 3] = [0x1234_5672, 0xdead_beef, 0x0000_0003];

fn horner(x: u32) -> u32 {
    COEFFS
        .iter()
        .fold(0u32, |acc, &c| acc.wrapping_mul(x).wrapping_add(c))
}

/// Builds the nine queries in `pool`, in solving order (squares between
/// polynomial queries, as on a hot-sinks function), and returns them with
/// the input variable. Each query comes with the values a model may give
/// `x`: its target's roots below its bound (none for a square).
fn corpus(pool: &mut TermPool) -> (Vec<(TermId, Vec<u64>)>, VarIdx) {
    let x = pool.var("x", Sort::Bv(32));
    let xv = pool.free_vars(x)[0];
    let mut w = pool.bv_const(u64::from(COEFFS[0]), 32);
    for &c in &COEFFS[1..] {
        let prod = pool.bv(BvOp::Mul, w, x);
        let k = pool.bv_const(u64::from(c), 32);
        w = pool.bv(BvOp::Add, prod, k);
    }
    let sq = pool.bv(BvOp::Mul, x, x);
    let mut queries = Vec::new();
    for (i, &(point, bound)) in POLY.iter().enumerate() {
        let t = pool.bv_const(u64::from(horner(point)), 32);
        let hit = pool.eq(w, t);
        let k = pool.bv_const(u64::from(bound), 32);
        let guard = pool.pred(BvPred::Ult, x, k);
        queries.push((pool.and2(hit, guard), roots_below(point, bound)));
        if i % 2 == 1 {
            let c = pool.bv_const(u64::from(SQUARES[i / 2]), 32);
            queries.push((pool.eq(sq, c), Vec::new()));
        }
    }
    (queries, xv)
}

/// Every `x < bound` with `horner(x) == horner(point)`. A root mod
/// `2^(k+1)` is a root mod `2^k`, so the roots are lifted one bit at a
/// time from the single residue mod 1.
fn roots_below(point: u32, bound: u32) -> Vec<u64> {
    let target = horner(point);
    let mut roots = vec![0u32];
    for k in 0..32 {
        let mask = u32::MAX >> (31 - k);
        roots = roots
            .iter()
            .flat_map(|&r| [r, r | 1 << k])
            .filter(|&r| (horner(r) ^ target) & mask == 0)
            .collect();
    }
    roots
        .into_iter()
        .filter(|&r| r < bound)
        .map(u64::from)
        .collect()
}

fn config() -> SolverConfig {
    SolverConfig::default()
}

fn fnv1a(model: &[bool]) -> u64 {
    model.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The clause count of `cnf`, read from its DIMACS header.
fn clause_count(cnf: &Cnf) -> usize {
    let text = to_dimacs(cnf);
    let header = text.lines().next().expect("DIMACS header");
    header
        .rsplit(' ')
        .next()
        .and_then(|n| n.parse().ok())
        .expect("clause count")
}

fn delta(after: SatStats, before: SatStats) -> (u64, u64, u64, u64) {
    (
        after.decisions - before.decisions,
        after.conflicts - before.conflicts,
        after.propagations - before.propagations,
        after.restarts - before.restarts,
    )
}

fn row(outcome: &SatOutcome, clauses: usize, stats: (u64, u64, u64, u64)) -> Row {
    let (verdict, hash) = match outcome {
        SatOutcome::Sat(m) => ('s', fnv1a(m)),
        SatOutcome::Unsat => ('u', 0),
        SatOutcome::Unknown => ('?', 0),
    };
    (verdict, clauses, stats.0, stats.1, stats.2, stats.3, hash)
}

/// Checks an API-level answer against the SAT-level row of the same query,
/// and its model against the SAT-level model read back through `x`, which
/// must be one of the query's `roots` (`None`: there are none).
fn agree(api: &(SatResult, SolveStats), sat: &Row, x: VarIdx, x_value: Option<u64>, roots: &[u64]) {
    match x_value {
        Some(v) => assert!(roots.contains(&v), "x = {v:#x} is not a root"),
        None => assert_eq!(roots, &[] as &[u64], "a root was missed"),
    }
    let (result, stats) = api;
    let verdict = match result {
        SatResult::Sat(_) => 's',
        SatResult::Unsat => 'u',
        SatResult::Unknown => '?',
    };
    assert_eq!(
        (
            verdict,
            stats.cnf_clauses,
            stats.sat_decisions,
            stats.sat_conflicts
        ),
        (sat.0, sat.1, sat.2, sat.3),
        "API answer differs from the SAT-level steps"
    );
    if let SatResult::Sat(m) = result {
        assert_eq!(m.value(x), x_value);
    }
}

/// Pinned rows of the session run, one per query.
const SESSION: &[Row] = &[
    ('s', 61833, 0, 0, 11356, 0, 17405256322618661895),
    ('u', 96, 0, 1, 10719, 0, 0),
    ('u', 8173, 0, 1, 338, 0, 0),
    ('s', 117, 362, 135, 153031, 1, 14462705501836489556),
    ('s', 99, 0, 0, 12932, 0, 15138047909845944960),
    ('u', 93, 1, 2, 617, 0, 0),
    ('u', 102, 0, 1, 11660, 0, 0),
    ('s', 189, 57, 29, 35928, 0, 14879707531437453447),
    ('u', 93, 0, 1, 93, 0, 0),
];

/// Pinned rows of the cold runs, one per query.
const COLD: &[Row] = &[
    ('s', 61834, 0, 0, 11357, 0, 17405256322618661895),
    ('u', 61834, 0, 0, 10687, 0, 0),
    ('u', 8175, 0, 0, 65, 0, 0),
    ('s', 61855, 858, 90, 72478, 0, 164086727964654545),
    ('s', 61837, 0, 0, 11358, 0, 5558177353475212855),
    ('u', 8175, 289, 13, 1639, 0, 0),
    ('u', 61840, 0, 0, 10117, 0, 0),
    ('s', 61927, 1546, 71, 57207, 0, 2265577835056555800),
    ('u', 8175, 495, 2, 1538, 0, 0),
];

#[test]
fn session_search_is_pinned() {
    let cfg = config();
    let mut api_pool = TermPool::new();
    let (api_queries, _) = corpus(&mut api_pool);
    let mut session = SolveSession::new();

    let mut pool = TermPool::new();
    let (queries, xv) = corpus(&mut pool);
    let mut blaster = SessionBlaster::new();
    let mut solver = SatSolver::empty();
    let mut got = Vec::new();
    for ((f, roots), (api_f, _)) in queries.iter().zip(&api_queries) {
        let processed = preprocess(&mut pool, *f).term;
        assert_eq!(pool.as_bool_const(processed), None, "decided early");
        let root = blaster.blast_root(&pool, processed);
        let clauses = blaster.drain_into(&mut solver);
        let before = solver.stats;
        let outcome = solver.solve_under_assumptions(&[root], SatBudget::default());
        let r = row(&outcome, clauses, delta(solver.stats, before));
        let x_value = match &outcome {
            SatOutcome::Sat(m) => blaster.map().value(xv, m),
            _ => None,
        };
        agree(
            &session.solve_formula(&mut api_pool, *api_f, &cfg),
            &r,
            xv,
            x_value,
            roots,
        );
        got.push(r);
    }
    assert_eq!(got, SESSION);
}

#[test]
fn cold_search_is_pinned() {
    let cfg = config();
    let mut api_pool = TermPool::new();
    let (api_queries, _) = corpus(&mut api_pool);

    let mut pool = TermPool::new();
    let (queries, xv) = corpus(&mut pool);
    let mut got = Vec::new();
    for ((f, roots), (api_f, _)) in queries.iter().zip(&api_queries) {
        let processed = preprocess(&mut pool, *f).term;
        assert_eq!(pool.as_bool_const(processed), None, "decided early");
        let (cnf, map) = blast(&pool, processed);
        let mut solver = SatSolver::new(&cnf);
        let outcome = solver.solve(SatBudget::default());
        let clauses = clause_count(&cnf);
        let r = row(&outcome, clauses, delta(solver.stats, SatStats::default()));
        let x_value = match &outcome {
            SatOutcome::Sat(m) => map.value(xv, m),
            _ => None,
        };
        agree(
            &smt_solve(&mut api_pool, *api_f, &cfg),
            &r,
            xv,
            x_value,
            roots,
        );
        got.push(r);
    }
    assert_eq!(got, COLD);
}

#[test]
fn pigeonhole_search_is_pinned() {
    // p(i, j) = variable i * HOLES + j + 1: pigeon i sits in hole j.
    const PIGEONS: usize = 8;
    const HOLES: usize = 7;
    let var = |i: usize, j: usize| i * HOLES + j + 1;
    let mut text = format!("p cnf {} 0\n", PIGEONS * HOLES);
    for i in 0..PIGEONS {
        for j in 0..HOLES {
            text.push_str(&format!("{} ", var(i, j)));
        }
        text.push_str("0\n");
    }
    for j in 0..HOLES {
        for a in 0..PIGEONS {
            for b in a + 1..PIGEONS {
                text.push_str(&format!("-{} -{} 0\n", var(a, j), var(b, j)));
            }
        }
    }
    let cnf = from_dimacs(&text).expect("well-formed DIMACS");
    let mut solver = SatSolver::new(&cnf);
    let outcome = solver.solve(SatBudget::default());
    let r = row(
        &outcome,
        clause_count(&cnf),
        delta(solver.stats, SatStats::default()),
    );
    assert_eq!(r, ('u', 204, 3868, 3202, 38957, 14, 0));
    // Fewer retained learnt clauses than conflicts: reduction ran.
    assert_eq!(solver.learnt_clauses(), 899);
}
