//! A reset `SolveSession` answers every query exactly as a new one does.
//!
//! The queries are shaped like the `hot-sinks` benchmark's slice groups:
//! twelve groups, one per degree-8 polynomial family over its own 32-bit
//! input `x`, each with six `w(x) == t` queries (`t` the value of `w` at a
//! point, so each is feasible) and three `x * x == c` queries with `c mod
//! 4` in {2, 3} (never feasible). One session serves every group and is
//! reset between groups, as `FusionSolver` does at a group boundary; each
//! query's answer must equal that of a new session per group in verdict,
//! CNF clauses, SAT decisions and conflicts, and model, and the session's
//! cumulative counters must equal the new session's after every group.
//! The session's point is pinned too: over a group it blasts each shared
//! term once, where cold solving blasts it for every query.

use fusion_smt::session::SolveSession;
use fusion_smt::solver::{smt_solve, SatResult, SolverConfig};
use fusion_smt::term::{BvOp, Sort, TermId, TermPool};

const GROUPS: u64 = 12;

/// `splitmix64`: a family's coefficients, points and square targets.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// The queries of group `g`, built in `pool` in solving order. Its
/// coefficients are odd but for degree 3, as on a hot-sinks function.
fn group(pool: &mut TermPool, g: u64) -> Vec<TermId> {
    let mut mix = Mix(0x4075_1a7e ^ g);
    let mut coeffs: Vec<u32> = (0..9).map(|_| mix.next() as u32 | 1).collect();
    coeffs[8 - 3] &= !1;
    let x = pool.var(&format!("x{g}"), Sort::Bv(32));
    let mut w = pool.bv_const(u64::from(coeffs[0]), 32);
    for &c in &coeffs[1..] {
        let prod = pool.bv(BvOp::Mul, w, x);
        let k = pool.bv_const(u64::from(c), 32);
        w = pool.bv(BvOp::Add, prod, k);
    }
    let sq = pool.bv(BvOp::Mul, x, x);
    let shift = g % 3;
    (0..9)
        .map(|k| {
            if (k + shift) % 3 == 2 {
                let c = (mix.next() as u32 & !3) | (2 + (mix.next() & 1) as u32);
                let c = pool.bv_const(u64::from(c), 32);
                pool.eq(sq, c)
            } else {
                let point = mix.next() as u32;
                let t = coeffs
                    .iter()
                    .fold(0u32, |acc, &c| acc.wrapping_mul(point).wrapping_add(c));
                let t = pool.bv_const(u64::from(t), 32);
                pool.eq(w, t)
            }
        })
        .collect()
}

/// What a query's answer must reproduce: the verdict with its model, CNF
/// clauses, SAT decisions and SAT conflicts.
type Answer = (SatResult, usize, u64, u64);

/// The session's cumulative counters: queries, preprocess-decided
/// queries, clauses added, permanent and learnt clauses, CNF variables,
/// and SAT conflicts.
type Totals = (u64, u64, u64, usize, usize, u32, u64);

fn solve_group(session: &mut SolveSession, pool: &mut TermPool, g: u64) -> (Vec<Answer>, Totals) {
    let cfg = SolverConfig::default();
    let answers = group(pool, g)
        .into_iter()
        .map(|q| {
            let (result, stats) = session.solve_formula(pool, q, &cfg);
            (
                result,
                stats.cnf_clauses,
                stats.sat_decisions,
                stats.sat_conflicts,
            )
        })
        .collect();
    let totals = (
        session.stats.queries,
        session.stats.preprocess_decided,
        session.stats.clauses_added,
        session.permanent_clauses(),
        session.learnt_clauses(),
        session.cnf_vars(),
        session.conflicts(),
    );
    (answers, totals)
}

#[test]
fn reset_session_answers_like_a_new_session_per_group() {
    // Identical pools: the same terms get the same ids and variable
    // indices, so models compare directly.
    let mut reused_pool = TermPool::new();
    let mut fresh_pool = TermPool::new();
    let mut reused = SolveSession::new();
    let new_state = format!("{reused:?}");
    let mut verdicts = String::new();
    for g in 0..GROUPS {
        if g > 0 {
            reused.reset();
            assert_eq!(format!("{reused:?}"), new_state, "group {g}");
        }
        let (got, got_totals) = solve_group(&mut reused, &mut reused_pool, g);
        let mut fresh = SolveSession::new();
        let (want, want_totals) = solve_group(&mut fresh, &mut fresh_pool, g);
        for (k, (a, b)) in got.iter().zip(&want).enumerate() {
            assert_eq!(a, b, "group {g}, query {k}");
        }
        assert_eq!(got_totals, want_totals, "group {g}");
        assert_eq!(got_totals.1, 0, "group {g}: a query skipped the SAT solver");
        verdicts.extend(got.iter().map(|a| match a.0 {
            SatResult::Sat(_) => 's',
            SatResult::Unsat => 'u',
            SatResult::Unknown => '?',
        }));
    }
    // The groups reached the SAT solver with both answers.
    assert_eq!(verdicts.matches('s').count(), 6 * GROUPS as usize);
    assert_eq!(verdicts.matches('u').count(), 3 * GROUPS as usize);
}

#[test]
fn a_session_blasts_each_shared_term_once_per_group() {
    // The CNF clauses of the first two groups' queries, summed: through
    // one session reset per group, and cold, each query blasted alone by
    // `smt_solve` in a pool of its own. A group's queries share the
    // polynomial and the square, which the session encodes once.
    let cfg = SolverConfig::default();
    let mut pool = TermPool::new();
    let mut session = SolveSession::new();
    let (mut in_session, mut cold) = (0, 0);
    for g in 0..2 {
        session.reset();
        let queries = group(&mut pool, g);
        for (k, &q) in queries.iter().enumerate() {
            in_session += session.solve_formula(&mut pool, q, &cfg).1.cnf_clauses;
            let mut own = TermPool::new();
            let alone = group(&mut own, g)[k];
            cold += smt_solve(&mut own, alone, &cfg).1.cnf_clauses;
        }
    }
    assert_eq!(
        (in_session, cold),
        (139_405, 779_604),
        "CNF clauses: session, cold"
    );
}
