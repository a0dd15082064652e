//! The steps of a partitioned scan: per-shard sub-program extraction,
//! demand-driven summary import, and the deterministic merge and replay.
//!
//! `fusion-scan` no longer runs partitioned scans. On the paper-shaped
//! subjects each shard's closure is nearly the whole program, so a
//! sharded scan took several times the unsharded wall for about the
//! same peak. These steps stay only because the end-to-end benchmark's
//! `sharded-scan` workload calls them one by one ([`scan_snapshot`],
//! [`run_shard`] for each shard that owns a function, [`merge_outcomes`]
//! and [`replay_merged`]); `tests/shard_determinism.rs` drives them the
//! same way. They go when that workload goes.
//!
//! A shard owns a slice of the call graph ([`crate::partition`]) and
//! materializes only its verdict-closure from the snapshot — a dense,
//! renumbered sub-program whose peak footprint scales with the shard,
//! not the program. It imports the absint facts + return summaries of
//! closure functions it doesn't own (the cross-shard summary interface;
//! [`ShardOutput::imported`] counts them), solves **only its owned work
//! items** (non-owned closure items are masked off with empty retained
//! records), and exports the recorded outcomes remapped to global
//! identities.
//!
//! The merged outcome sets replay over the full program with an
//! all-false affected mask — the session driver's replay path then
//! reassembles the canonical, checker-major report without a single
//! solver query, which is what makes the merged report
//! **byte-identical** to the unsharded pipeline at any K. Outcomes are
//! dependence structure and verdicts only — no path condition crosses a
//! shard boundary, upholding §3.2.2.

use crate::cache::VerdictCache;
use crate::checkers::CheckerSet;
use crate::engine::{
    analyze_multi_streaming_session, AnalysisOptions, BugReport, CandVerdict, FeasibilityEngine,
    ItemOutcomes, ItemRecord, MultiAnalysisRun, SessionParams,
};
use crate::partition::ShardPlan;
use crate::propagate::multi_source_vertices;
use crate::snapshot::{self, CallGraphInfo, RawFunction, Snapshot, SnapshotError, SnapshotWriter};
use fusion_ir::interner::Interner;
use fusion_ir::ssa::{CallSite, CallSiteId, Def, DefKind, FuncId, Function, Program, VarId};
use fusion_pdg::graph::{Pdg, Vertex};
use fusion_pdg::paths::{DependencePath, Link};
use std::collections::HashMap;
use std::sync::Arc;

/// A dense sub-program materialized for one shard, with the maps back
/// to global identities.
pub struct SubProgram {
    /// The renumbered program (fresh interner, dense function and
    /// call-site ids preserving the closure's relative order).
    pub program: Program,
    /// Local function index → global function id.
    pub to_global_func: Vec<u32>,
    /// Local call-site index → global call-site id.
    pub to_global_site: Vec<u32>,
}

/// Extracts the sub-program for `closure` (sorted global function
/// indices) from a snapshot, reading only those functions' sections.
pub fn extract_subprogram(snap: &Snapshot, closure: &[u32]) -> Result<SubProgram, SnapshotError> {
    let to_local: HashMap<u32, u32> = closure
        .iter()
        .enumerate()
        .map(|(l, &g)| (g, l as u32))
        .collect();
    let mut interner = Interner::new();
    let mut functions = Vec::with_capacity(closure.len());
    let mut call_sites: Vec<CallSite> = Vec::new();
    let mut to_global_site = Vec::new();
    for (local, &global) in closure.iter().enumerate() {
        let raw: RawFunction = snapshot::read_function(snap, global)?;
        let id = FuncId(local as u32);
        let name = interner.intern(&raw.name);
        let mut defs = Vec::with_capacity(raw.defs.len());
        for (j, (dname, kind, guard)) in raw.defs.into_iter().enumerate() {
            let kind = match kind {
                DefKind::Call { callee, args, site } => {
                    let local_callee = *to_local.get(&callee.0).ok_or_else(|| SnapshotError {
                        offset: 0,
                        what: format!(
                            "function {global} calls {} outside its shard closure",
                            callee.0
                        ),
                    })?;
                    let local_site = CallSiteId(call_sites.len() as u32);
                    call_sites.push(CallSite {
                        caller: id,
                        stmt: VarId(j as u32),
                        callee: FuncId(local_callee),
                    });
                    to_global_site.push(site.0);
                    DefKind::Call {
                        callee: FuncId(local_callee),
                        args,
                        site: local_site,
                    }
                }
                other => other,
            };
            defs.push(Def {
                var: VarId(j as u32),
                kind,
                guard,
                name: interner.intern(&dname),
            });
        }
        functions.push(Function {
            name,
            id,
            params: raw.params,
            defs,
            ret: raw.ret,
            is_extern: raw.is_extern,
        });
    }
    Ok(SubProgram {
        program: Program {
            functions,
            call_sites,
            interner,
        },
        to_global_func: closure.to_vec(),
        to_global_site,
    })
}

/// What one shard hands back for the merge.
pub struct ShardOutput {
    /// Recorded outcomes of the shard's owned work items, remapped to
    /// global function and call-site identities.
    pub outcomes: ItemOutcomes,
    /// Non-owned, non-extern closure functions whose facts/summaries the
    /// shard imported instead of recomputing.
    pub imported: u64,
    /// Peak tracked memory of the shard's run, bytes.
    pub peak_memory: u64,
}

/// Runs one shard against an opened snapshot: extract the closure
/// sub-program, import facts, solve owned items, and remap the recorded
/// outcomes back to global identities.
#[allow(clippy::too_many_arguments)]
pub fn run_shard(
    snap: &Snapshot,
    info: &CallGraphInfo,
    plan: &ShardPlan,
    s: usize,
    set: &CheckerSet,
    factory: &(dyn Fn() -> Box<dyn FeasibilityEngine> + Sync),
    threads: usize,
    options: &AnalysisOptions,
    cache: Option<&VerdictCache>,
) -> Result<ShardOutput, SnapshotError> {
    let owned = plan.owned(s);
    let closure = plan.closure(info, s);
    let sub = extract_subprogram(snap, &closure)?;
    let n_local = sub.program.functions.len();
    let pdg = Pdg::build(&sub.program);

    // Demand-driven summary import: the whole-program facts of every
    // closure function arrive from the snapshot; the shard recomputes
    // nothing, and functions outside the closure are never touched.
    let facts = if options.absint
        && snap.has(snapshot::tag::FACTS, closure.first().copied().unwrap_or(0))
    {
        let mut funcs = Vec::with_capacity(n_local);
        let mut rets = Vec::with_capacity(n_local);
        for &g in &closure {
            let (vals, ret) = snapshot::read_func_facts(snap, g)?;
            funcs.push(vals);
            rets.push(ret);
        }
        Some(Arc::new(crate::absint::ProgramFacts::from_parts(
            n_local,
            sub.program.size(),
            funcs,
            rets,
        )))
    } else {
        None
    };

    // Owned mask over local ids; closure functions the shard doesn't own
    // get synthetic empty records so their items replay to nothing
    // instead of running live.
    let mut affected = vec![false; n_local];
    let mut owned_iter = owned.iter().peekable();
    for (local, &global) in closure.iter().enumerate() {
        if owned_iter.peek() == Some(&&global) {
            affected[local] = true;
            owned_iter.next();
        }
    }
    let mut retained = ItemOutcomes::default();
    for (id, src) in multi_source_vertices(&sub.program, set) {
        if !affected[src.func.index()] {
            retained.insert_record(
                (id.0, src),
                ItemRecord {
                    verdicts: Vec::new(),
                    steps: 0,
                },
            );
        }
    }

    let params = SessionParams {
        facts,
        retained: Some(&retained),
        affected: Some(&affected),
        prov: None,
    };
    let (run, outcomes) = analyze_multi_streaming_session(
        &sub.program,
        &pdg,
        set,
        factory,
        threads,
        options,
        cache,
        params,
    );

    // Export only owned items, remapped to global identities.
    let mut global = ItemOutcomes::default();
    for (&(checker, src), rec) in outcomes.records() {
        if !affected[src.func.index()] {
            continue;
        }
        let verdicts = rec
            .verdicts
            .iter()
            .map(|v| remap_verdict(v, &sub))
            .collect();
        global.insert_record(
            (
                checker,
                Vertex {
                    func: FuncId(sub.to_global_func[src.func.index()]),
                    var: src.var,
                },
            ),
            ItemRecord {
                verdicts,
                steps: rec.steps,
            },
        );
    }

    let imported = closure
        .iter()
        .filter(|&&g| !info.is_extern[g as usize])
        .count() as u64
        - owned.len() as u64;
    Ok(ShardOutput {
        outcomes: global,
        imported,
        peak_memory: run.peak_memory,
    })
}

fn remap_vertex(v: Vertex, sub: &SubProgram) -> Vertex {
    Vertex {
        func: FuncId(sub.to_global_func[v.func.index()]),
        var: v.var,
    }
}

fn remap_verdict(v: &CandVerdict, sub: &SubProgram) -> CandVerdict {
    match v {
        CandVerdict::Suppressed => CandVerdict::Suppressed,
        CandVerdict::Report(r) => CandVerdict::Report(BugReport {
            source: remap_vertex(r.source, sub),
            sink: remap_vertex(r.sink, sub),
            verdict: r.verdict,
            path: DependencePath {
                nodes: r.path.nodes.iter().map(|&n| remap_vertex(n, sub)).collect(),
                links: r
                    .path
                    .links
                    .iter()
                    .map(|l| match l {
                        Link::Local => Link::Local,
                        Link::Enter(site) => {
                            Link::Enter(CallSiteId(sub.to_global_site[site.index()]))
                        }
                        Link::Exit(site) => {
                            Link::Exit(CallSiteId(sub.to_global_site[site.index()]))
                        }
                    })
                    .collect(),
            },
        }),
    }
}

/// Merges per-shard outcome sets. Key spaces are disjoint (each shard
/// exports only items it owns), so insertion order is immaterial.
pub fn merge_outcomes(parts: Vec<ItemOutcomes>) -> ItemOutcomes {
    let mut merged = ItemOutcomes::default();
    for part in parts {
        for (&key, rec) in part.records() {
            merged.insert_record(key, rec.clone());
        }
    }
    merged
}

/// Replays a merged outcome set over the full program: every work item
/// is masked unaffected, so the session driver reassembles the
/// canonical checker-major report purely from the records — zero
/// discovery, zero solver queries.
///
/// The driver consults the dependence graph only for *live* items, so
/// when the merge covers every work item (the normal case — shard
/// ownership partitions the items) the replay hands it an empty graph
/// instead of paying a whole-program [`Pdg::build`]. A merge with a
/// hole falls back to the real graph and re-solves the missing items.
pub fn replay_merged(
    program: &Program,
    set: &CheckerSet,
    factory: &(dyn Fn() -> Box<dyn FeasibilityEngine> + Sync),
    threads: usize,
    options: &AnalysisOptions,
    cache: Option<&VerdictCache>,
    merged: &ItemOutcomes,
) -> MultiAnalysisRun {
    let complete = multi_source_vertices(program, set)
        .iter()
        .all(|&(id, src)| merged.get(id, src).is_some());
    let empty = Program {
        functions: Vec::new(),
        call_sites: Vec::new(),
        interner: Interner::new(),
    };
    let pdg = Pdg::build(if complete { &empty } else { program });
    let affected = vec![false; program.functions.len()];
    let params = SessionParams {
        facts: None,
        retained: Some(merged),
        affected: Some(&affected),
        prov: None,
    };
    let (run, _) = analyze_multi_streaming_session(
        program, &pdg, set, factory, threads, options, cache, params,
    );
    run
}

/// Builds the program+facts snapshot a partitioned scan distributes to
/// its shards. Returns the assembled container bytes.
pub fn scan_snapshot(program: &Program, options: &AnalysisOptions) -> Vec<u8> {
    let mut w = SnapshotWriter::new();
    snapshot::write_program(&mut w, program);
    if options.absint {
        let facts = crate::absint::ProgramFacts::compute(program);
        snapshot::write_facts(&mut w, program, &facts);
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_solver::FusionSolver;
    use fusion_ir::{compile, CompileOptions};
    use fusion_smt::solver::SolverConfig;

    const SRC: &str = "extern fn deref(p);\n\
        fn leaf(x) { let b = x & 7; return b; }\n\
        fn use_a(p) { let v = leaf(p); let q = null; let r = 1; if (v > 2) { r = q; } deref(r); return 0; }\n\
        fn iso_b(z) { let q = null; let r = 1; if (z < 1) { r = q; } deref(r); return r; }";

    fn factory() -> impl Fn() -> Box<dyn FeasibilityEngine> + Sync {
        || Box::new(FusionSolver::new(SolverConfig::default())) as Box<dyn FeasibilityEngine>
    }

    #[test]
    fn subprogram_extraction_is_dense_and_valid() {
        let program = compile(SRC, CompileOptions::default()).expect("compile");
        let mut w = SnapshotWriter::new();
        snapshot::write_program(&mut w, &program);
        let snap = snapshot::open_bytes(w.finish()).expect("open");
        let info = CallGraphInfo::of_program(&program);
        let plan = ShardPlan::compute(&info, 2);
        for s in 0..2 {
            if plan.owned(s).is_empty() {
                continue;
            }
            let closure = plan.closure(&info, s);
            let sub = extract_subprogram(&snap, &closure).expect("extract");
            assert_eq!(sub.program.functions.len(), closure.len());
            let errs = fusion_ir::validate::check_program(&sub.program);
            assert!(errs.is_empty(), "shard {s} sub-program: {errs:?}");
        }
    }

    #[test]
    fn steps_replay_the_unsharded_report() {
        let program = compile(SRC, CompileOptions::default()).expect("compile");
        let pdg = Pdg::build(&program);
        let set = CheckerSet::new(crate::checkers::default_checkers());
        let options = AnalysisOptions::new();
        let fac = factory();
        let facts = Arc::new(crate::absint::ProgramFacts::compute(&program));
        let (base, _) = analyze_multi_streaming_session(
            &program,
            &pdg,
            &set,
            &fac,
            1,
            &options,
            None,
            SessionParams {
                facts: Some(facts),
                ..SessionParams::default()
            },
        );
        let snap = snapshot::open_bytes(scan_snapshot(&program, &options)).expect("open");
        let info = CallGraphInfo::of_program(&program);
        for k in [1usize, 2, 4] {
            let plan = ShardPlan::compute(&info, k);
            let parts = (0..k)
                .filter(|&s| !plan.owned(s).is_empty())
                .map(|s| {
                    run_shard(&snap, &info, &plan, s, &set, &fac, 1, &options, None)
                        .expect("shard")
                        .outcomes
                })
                .collect();
            let run = replay_merged(
                &program,
                &set,
                &fac,
                1,
                &options,
                None,
                &merge_outcomes(parts),
            );
            assert_eq!(run.queries, 0, "replay must not query at k={k}");
            let base_reports: Vec<_> = base.all_reports().collect();
            let got: Vec<_> = run.all_reports().collect();
            assert_eq!(base_reports.len(), got.len(), "k={k}");
            for (a, b) in base_reports.iter().zip(&got) {
                assert_eq!(a.source, b.source, "k={k}");
                assert_eq!(a.sink, b.sink, "k={k}");
                assert_eq!(a.verdict, b.verdict, "k={k}");
                assert_eq!(a.path.nodes, b.path.nodes, "k={k}");
                assert_eq!(a.path.links, b.path.links, "k={k}");
            }
        }
    }
}
