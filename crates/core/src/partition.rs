//! Bottom-up SCC-respecting call-graph partitioning for the steps of a
//! partitioned scan ([`crate::shard`]).
//!
//! `fusion-scan` no longer runs partitioned scans; [`ShardPlan`] stays
//! only because the end-to-end benchmark's `sharded-scan` workload
//! plans its shards with it ([`ShardPlan::compute`], [`ShardPlan::k`],
//! [`ShardPlan::owned`] and [`ShardPlan::closure`]), and goes with that
//! workload.
//!
//! The partitioner works from the [`crate::snapshot::CallGraphInfo`]
//! summary alone — externality, def counts, callee lists — never the
//! function bodies. It computes strongly connected components of the
//! non-extern call graph with an iterative Tarjan pass, then chunks the
//! components in **bottom-up order** (callees before callers, which is
//! exactly Tarjan's completion order) into K contiguous shards balanced
//! by definition count. Keeping each SCC whole and the order bottom-up
//! means a shard's owned functions sit next to the callees whose return
//! summaries they consume, which is what keeps the cross-shard summary
//! interface demand-driven (arXiv 2109.07923) instead of all-pairs.
//!
//! Ownership is a partition: every non-extern function belongs to
//! exactly one shard; extern declarations are owned by nobody (they
//! have no definitions, hence no work items). A shard *analyzes* more
//! than it owns — see [`ShardPlan::closure`]: verdict-equivalence for an
//! owned source requires every function a dependence path or slice
//! closure from it could touch, which is conservatively the weakly
//! connected component, plus the extern declarations those functions
//! call. The closure minus the owned set is precisely what the shard
//! must import from its neighbours (facts + return summaries), counted
//! by [`crate::shard::ShardOutput::imported`].

use crate::snapshot::CallGraphInfo;

/// The result of partitioning a call graph into K shards: a total
/// ownership map over non-extern functions.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    owner: Vec<Option<usize>>,
    k: usize,
}

impl ShardPlan {
    /// Partitions `info` into `k` shards. `k` is clamped to at least 1;
    /// when the program has fewer components than shards, trailing
    /// shards own nothing (and the caller skips them).
    pub fn compute(info: &CallGraphInfo, k: usize) -> ShardPlan {
        let k = k.max(1);
        let sccs = tarjan_sccs(info);
        let total: u64 = sccs
            .iter()
            .flat_map(|c| c.iter().map(|&f| info.def_counts[f as usize]))
            .sum();
        let mut owner = vec![None; info.len()];
        let mut shard = 0usize;
        let mut assigned = 0u64;
        for scc in &sccs {
            let weight: u64 = scc.iter().map(|&f| info.def_counts[f as usize]).sum();
            // Move on to the last shard whose fair share the weight
            // assigned so far has met, never past shard k − 1 and never
            // splitting an SCC. Closed form in u128, so any `k` costs the
            // same and `assigned · k` cannot overflow.
            let met = u128::from(assigned) * k as u128 / u128::from(total.max(1));
            shard = shard.max(met.min(k as u128 - 1) as usize);
            for &f in scc {
                owner[f as usize] = Some(shard);
            }
            assigned += weight;
        }
        ShardPlan { owner, k }
    }

    /// The shard count this plan was computed for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The functions shard `s` owns, sorted ascending.
    pub fn owned(&self, s: usize) -> Vec<u32> {
        self.owner
            .iter()
            .enumerate()
            .filter(|(_, o)| **o == Some(s))
            .map(|(f, _)| f as u32)
            .collect()
    }

    /// The functions shard `s` must materialize to reproduce the
    /// unsharded verdicts of its owned work items: the weakly connected
    /// components (over non-extern call edges) containing any owned
    /// function, plus every extern declaration those functions call.
    /// Sorted ascending.
    pub fn closure(&self, info: &CallGraphInfo, s: usize) -> Vec<u32> {
        let n = info.len();
        let undirected = symmetric_edges(info);
        let mut in_closure = vec![false; n];
        let mut stack: Vec<u32> = self.owned(s);
        for &f in &stack {
            in_closure[f as usize] = true;
        }
        while let Some(f) = stack.pop() {
            for &g in &undirected[f as usize] {
                if !in_closure[g as usize] {
                    in_closure[g as usize] = true;
                    stack.push(g);
                }
            }
        }
        // Referenced externs ride along (call defs need their targets).
        let mut externs = Vec::new();
        for f in 0..n {
            if !in_closure[f] {
                continue;
            }
            for &c in &info.callees[f] {
                if info.is_extern[c as usize] && !in_closure[c as usize] {
                    in_closure[c as usize] = true;
                    externs.push(c);
                }
            }
        }
        let mut out: Vec<u32> = (0..n as u32).filter(|&f| in_closure[f as usize]).collect();
        out.sort_unstable();
        out
    }
}

/// Undirected adjacency over calls between two non-extern functions.
/// Extern nodes get no edges: a library declaration shared by two
/// otherwise-independent modules must not weld their components
/// together.
fn symmetric_edges(info: &CallGraphInfo) -> Vec<Vec<u32>> {
    let n = info.len();
    let mut adj = vec![Vec::new(); n];
    for f in 0..n {
        if info.is_extern[f] {
            continue;
        }
        for &c in &info.callees[f] {
            if info.is_extern[c as usize] {
                continue;
            }
            adj[f].push(c);
            adj[c as usize].push(f as u32);
        }
    }
    for row in &mut adj {
        row.sort_unstable();
        row.dedup();
    }
    adj
}

/// Iterative Tarjan over the non-extern call graph. Components are
/// emitted in completion order, which for a condensation DAG is
/// bottom-up: every SCC appears after all SCCs it calls into.
fn tarjan_sccs(info: &CallGraphInfo) -> Vec<Vec<u32>> {
    let n = info.len();
    const UNSET: u32 = u32::MAX;
    let mut index = vec![UNSET; n];
    let mut low = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next = 0u32;
    let mut sccs = Vec::new();
    // Explicit DFS frames: (node, edge cursor).
    let mut frames: Vec<(u32, usize)> = Vec::new();
    for start in 0..n {
        if info.is_extern[start] || index[start] != UNSET {
            continue;
        }
        frames.push((start as u32, 0));
        index[start] = next;
        low[start] = next;
        next += 1;
        stack.push(start as u32);
        on_stack[start] = true;
        while let Some(&mut (v, ref mut cursor)) = frames.last_mut() {
            let vi = v as usize;
            let callees = &info.callees[vi];
            if *cursor < callees.len() {
                let w = callees[*cursor] as usize;
                *cursor += 1;
                if info.is_extern[w] {
                    continue;
                }
                if index[w] == UNSET {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w as u32);
                    on_stack[w] = true;
                    frames.push((w as u32, 0));
                } else if on_stack[w] {
                    low[vi] = low[vi].min(index[w]);
                }
            } else {
                frames.pop();
                if let Some(&(p, _)) = frames.last() {
                    let pi = p as usize;
                    low[pi] = low[pi].min(low[vi]);
                }
                if low[vi] == index[vi] {
                    let mut scc = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        scc.push(w);
                        if w == v {
                            break;
                        }
                    }
                    scc.sort_unstable();
                    sccs.push(scc);
                }
            }
        }
    }
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hand-built summary: f0→f1→f2, f3→f4, f5 extern called by f1
    /// and f3 (two weak components bridged only by an extern).
    fn info() -> CallGraphInfo {
        CallGraphInfo {
            is_extern: vec![false, false, false, false, false, true],
            def_counts: vec![4, 4, 4, 4, 4, 0],
            callees: vec![vec![1], vec![2, 5], vec![], vec![4, 5], vec![], vec![]],
        }
    }

    #[test]
    fn ownership_is_a_partition_of_non_externs() {
        let info = info();
        for k in 1..=4 {
            let plan = ShardPlan::compute(&info, k);
            let mut seen = vec![0usize; info.len()];
            for s in 0..k {
                for f in plan.owned(s) {
                    seen[f as usize] += 1;
                }
            }
            for (f, &count) in seen.iter().enumerate() {
                let expect = usize::from(!info.is_extern[f]);
                assert_eq!(count, expect, "function {f} at k={k}");
            }
        }
    }

    #[test]
    fn sccs_stay_whole() {
        // A 3-cycle plus a tail; the cycle must land in one shard.
        let cyclic = CallGraphInfo {
            is_extern: vec![false; 4],
            def_counts: vec![2; 4],
            callees: vec![vec![1], vec![2], vec![0], vec![0]],
        };
        for k in 1..=4 {
            let plan = ShardPlan::compute(&cyclic, k);
            let owners: Vec<_> = (0..3).map(|f| plan.owner[f]).collect();
            assert_eq!(owners[0], owners[1], "k={k}");
            assert_eq!(owners[1], owners[2], "k={k}");
        }
    }

    #[test]
    fn bottom_up_order_puts_callees_no_later_than_callers() {
        let info = info();
        let plan = ShardPlan::compute(&info, 2);
        // f2 is the leaf of the first chain; its shard index must not
        // exceed its caller f1's, and f1's not exceed f0's.
        assert!(plan.owner[2] <= plan.owner[1]);
        assert!(plan.owner[1] <= plan.owner[0]);
    }

    #[test]
    fn closure_is_component_plus_referenced_externs() {
        let info = info();
        let plan = ShardPlan::compute(&info, 2);
        let s0 = plan.owner[0].unwrap();
        let c0 = plan.closure(&info, s0);
        // The chain {0,1,2} and its extern callee 5; never 3 or 4.
        assert!(c0.contains(&0) && c0.contains(&1) && c0.contains(&2));
        assert!(c0.contains(&5));
        assert!(!c0.contains(&3) && !c0.contains(&4));
        // The other shard owns the {3,4} component.
        let s1 = plan.owner[3].unwrap();
        assert_ne!(s0, s1, "two components at k=2 split across shards");
        let c1 = plan.closure(&info, s1);
        assert_eq!(c1, vec![3, 4, 5]);
    }

    #[test]
    fn extern_sharing_does_not_weld_components() {
        let info = info();
        let plan = ShardPlan::compute(&info, 2);
        let total_defs: u64 = info.def_counts.iter().sum();
        for s in 0..2 {
            let closure = plan.closure(&info, s);
            let defs: u64 = closure.iter().map(|&f| info.def_counts[f as usize]).sum();
            assert!(
                defs < total_defs,
                "shard {s} materializes the whole program"
            );
        }
    }

    /// The shard assignment as first written: advance one shard at a
    /// time while the assigned weight meets the next fair share.
    fn reference_owner(info: &CallGraphInfo, k: usize) -> Vec<Option<usize>> {
        let sccs = tarjan_sccs(info);
        let total: u64 = sccs
            .iter()
            .flat_map(|c| c.iter().map(|&f| info.def_counts[f as usize]))
            .sum();
        let mut owner = vec![None; info.len()];
        let (mut shard, mut assigned) = (0usize, 0u64);
        for scc in &sccs {
            while shard + 1 < k && assigned * (k as u64) >= total.max(1) * (shard as u64 + 1) {
                shard += 1;
            }
            for &f in scc {
                owner[f as usize] = Some(shard);
            }
            assigned += scc
                .iter()
                .map(|&f| info.def_counts[f as usize])
                .sum::<u64>();
        }
        owner
    }

    #[test]
    fn closed_form_matches_the_stepping_reference() {
        // SplitMix64: `below(n)` draws from 0..n.
        let mut state = 19u64;
        let mut below = |n: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        for case in 0..200 {
            let n = 1 + below(40) as usize;
            let info = CallGraphInfo {
                is_extern: (0..n).map(|_| below(6) == 0).collect(),
                def_counts: (0..n).map(|_| below(50)).collect(),
                callees: (0..n)
                    .map(|_| (0..below(4)).map(|_| below(n as u64) as u32).collect())
                    .collect(),
            };
            for k in 1..=64 {
                let plan = ShardPlan::compute(&info, k);
                assert_eq!(plan.owner, reference_owner(&info, k), "case {case}, k={k}");
            }
        }
    }

    #[test]
    fn huge_shard_counts_finish() {
        let info = info();
        for k in [1usize << 32, usize::MAX] {
            let plan = ShardPlan::compute(&info, k);
            assert_eq!(plan.k(), k);
            for (f, owner) in plan.owner.iter().enumerate() {
                assert_eq!(owner.is_some(), !info.is_extern[f], "function {f}");
                assert!(owner.is_none_or(|s| s < k), "function {f}");
            }
        }
    }

    #[test]
    fn empty_shards_are_tolerated() {
        let tiny = CallGraphInfo {
            is_extern: vec![false],
            def_counts: vec![1],
            callees: vec![vec![]],
        };
        let plan = ShardPlan::compute(&tiny, 8);
        let owned: usize = (0..8).map(|s| plan.owned(s).len()).sum();
        assert_eq!(owned, 1);
        for s in 0..8 {
            let c = plan.closure(&tiny, s);
            if plan.owned(s).is_empty() {
                assert!(c.is_empty());
            }
        }
    }
}
