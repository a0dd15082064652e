//! The warm analysis service: resident caches, dirtiness tracking, and
//! incremental re-analysis after edits (ROADMAP item 1).
//!
//! An [`AnalysisSession`] keeps the PDG, [`CompactPdg`], [`ProgramFacts`],
//! [`SliceCache`], [`VerdictCache`], and per-work-item outcomes resident
//! across requests. A [`DirtinessTracker`] fingerprints every function's
//! IR content; on [`AnalysisSession::rescan`] the diff of fingerprints
//! yields the *edited* set, and two transitive closures over the call
//! structure yield what the edit can possibly influence:
//!
//! * `facts_dirty` — edited functions plus their transitive **callers**
//!   (absint return summaries flow bottom-up only), driving
//!   [`ProgramFacts::recompute`];
//! * `affected` — the connected component of the edited functions over
//!   the **symmetric** caller∪callee adjacency (of the old *and* new
//!   programs), driving everything path-shaped: dependence paths, slice
//!   closures, cached verdicts, and `(checker, source)` work items can
//!   only span functions inside one component, so an unaffected
//!   component is untouched by the edit.
//!
//! Eviction is then exact-by-construction:
//!
//! * **Slice closures** carry their own span (the closure's `FuncId` key
//!   set), so [`SliceCache::evict_dirty`] drops exactly the closures
//!   whose span meets the affected set. This is correctness-critical:
//!   the cache key hashes *on-path* content only, while the closure
//!   contains off-path definitions of every spanned function.
//! * **Verdicts** are evicted through recorded provenance
//!   ([`SessionProvenance`]): each `path_set_key` insert records the
//!   path's on-path function ids; a key is evicted when that span meets
//!   the affected set. The same argument as above makes this sound —
//!   the backward slice of a path never leaves the path's call-graph
//!   component, and the whole component is evicted.
//! * **Iso-memo entries** have content-pinned keys (recursive body
//!   signatures), so stale entries can never be *hit*; their eviction is
//!   garbage collection with counters, and retained entries transplant
//!   soundly into the rebuilt [`CompactPdg`].
//!
//! §3.2.2 discipline: every piece of invalidation metadata is dependence
//! structure (function ids, adjacency) or a content hash — never a path
//! condition. Nothing here caches or replays a formula.

use crate::absint::ProgramFacts;
use crate::cache::{hash_transfer, Fnv, Key128, VerdictCache};
use crate::checkers::CheckerSet;
use crate::compact::CompactPdg;
use crate::engine::{
    analyze_multi_streaming_session, AnalysisOptions, FeasibilityEngine, ItemOutcomes,
    MultiAnalysisRun, SessionParams,
};
use crate::slice_cache::SliceCache;
use crate::snapshot::{self, SnapshotError, SnapshotWriter};
use fusion_ir::ssa::{DefKind, FuncId, Program};
use fusion_pdg::graph::{Pdg, Vertex};
use fusion_pdg::paths::DependencePath;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Content fingerprint of every function: a dual-stream FNV over the
/// function's externality, arity, return slot, and each definition's
/// transfer (the same per-vertex folding the verdict-cache key uses, so
/// anything that can change a `path_set_key` — including call-site ids,
/// which are numbered globally — also changes the containing function's
/// fingerprint). Variable *names* are diagnostics and deliberately
/// excluded; function names are compared separately by the tracker.
pub fn function_fingerprints(program: &Program) -> Vec<Key128> {
    program
        .functions
        .iter()
        .map(|f| {
            let mut h = Fnv::new();
            h.write(f.is_extern as u64);
            h.write(f.params.len() as u64);
            match f.ret {
                None => h.write(0),
                Some(r) => {
                    h.write(1);
                    h.write(r.0 as u64);
                }
            }
            h.write(f.defs.len() as u64);
            for def in &f.defs {
                hash_transfer(
                    &mut h,
                    program,
                    Vertex {
                        func: f.id,
                        var: def.var,
                    },
                );
            }
            h.finish()
        })
        .collect()
}

/// `(symmetric caller∪callee adjacency, caller-only adjacency)` of a
/// program's call structure, as index lists per function.
fn call_edges(program: &Program) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let n = program.functions.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for f in &program.functions {
        for def in &f.defs {
            if let DefKind::Call { callee, .. } = &def.kind {
                let (i, j) = (f.id.index(), callee.index());
                // Paths transit a callee only when it has a body: extern
                // calls are flow-through edges that stay inside the
                // caller (`FlowTarget::ThroughExtern`), so an extern
                // callee must not merge its callers into one component.
                // The reverse edge stays — editing the extern itself
                // (its signature) still dirties every caller.
                if !program.func(*callee).is_extern {
                    adj[i].push(j);
                }
                adj[j].push(i);
                callers[j].push(i);
            }
        }
    }
    (adj, callers)
}

/// Marks everything reachable from `seeds` over the union of the given
/// adjacency lists.
fn mark_closure(seeds: &[usize], adjs: &[&Vec<Vec<usize>>], n: usize) -> Vec<bool> {
    let mut mark = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    for &s in seeds {
        if !mark[s] {
            mark[s] = true;
            stack.push(s);
        }
    }
    while let Some(u) = stack.pop() {
        for adj in adjs {
            for &v in &adj[u] {
                if !mark[v] {
                    mark[v] = true;
                    stack.push(v);
                }
            }
        }
    }
    mark
}

/// What a [`DirtinessTracker::diff`] concluded about an edited program.
#[derive(Debug, Clone)]
pub enum EditDiff {
    /// Byte-for-byte identical IR content: everything replays.
    Unchanged,
    /// The function list itself changed (names, order, count): function
    /// ids are not stable across the edit, so every id-keyed resident
    /// structure is invalid — flush and re-scan cold (in the same warm
    /// process).
    Structural,
    /// Some functions' bodies changed under a stable function list.
    Edited {
        /// Functions whose content fingerprint changed.
        edited: Vec<FuncId>,
        /// Per-function: in the connected component of an edited function
        /// over the symmetric caller∪callee adjacency (old ∪ new).
        affected: Vec<bool>,
        /// Per-function: absint facts may have changed (edited ∪
        /// transitive callers, old ∪ new caller edges).
        facts_dirty: Vec<bool>,
    },
}

/// Per-function content fingerprints and reverse dependence index of the
/// resident program, diffed against each incoming `rescan` request.
#[derive(Debug)]
pub struct DirtinessTracker {
    names: Vec<String>,
    prints: Vec<Key128>,
    adj: Vec<Vec<usize>>,
    callers: Vec<Vec<usize>>,
}

impl DirtinessTracker {
    /// Fingerprints `program` and indexes its call structure.
    pub fn new(program: &Program) -> DirtinessTracker {
        let (adj, callers) = call_edges(program);
        DirtinessTracker {
            names: program
                .functions
                .iter()
                .map(|f| program.interner.resolve(f.name).to_string())
                .collect(),
            prints: function_fingerprints(program),
            adj,
            callers,
        }
    }

    /// Classifies the edit from the resident program to `next`. The
    /// closures are taken over the union of the old and new call edges:
    /// both a *removed* and an *added* call can change what a component
    /// contains, so either program's edge must dirty the closure.
    pub fn diff(&self, next: &Program) -> EditDiff {
        let names: Vec<&str> = next
            .functions
            .iter()
            .map(|f| next.interner.resolve(f.name))
            .collect();
        if names.len() != self.names.len() || names.iter().zip(&self.names).any(|(a, b)| a != b) {
            return EditDiff::Structural;
        }
        let prints = function_fingerprints(next);
        let edited: Vec<usize> = (0..prints.len())
            .filter(|&i| prints[i] != self.prints[i])
            .collect();
        if edited.is_empty() {
            return EditDiff::Unchanged;
        }
        let n = next.functions.len();
        let (new_adj, new_callers) = call_edges(next);
        let affected = mark_closure(&edited, &[&self.adj, &new_adj], n);
        let facts_dirty = mark_closure(&edited, &[&self.callers, &new_callers], n);
        EditDiff::Edited {
            edited: edited.into_iter().map(|i| FuncId(i as u32)).collect(),
            affected,
            facts_dirty,
        }
    }
}

const PROV_SHARDS: usize = 16;

/// A sharded `key → on-path function span` index. Recorded at every
/// verdict-cache / iso-memo insert; consumed by
/// [`Provenance::take_involving`] to name exactly the keys an edit's
/// affected set can reach. Values are sorted, deduplicated function ids
/// — dependence structure only, never a condition.
pub struct Provenance {
    shards: Vec<Mutex<HashMap<Key128, Box<[u32]>>>>,
}

impl Default for Provenance {
    fn default() -> Self {
        Provenance {
            shards: (0..PROV_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
        }
    }
}

impl Provenance {
    /// Records `key`'s on-path function span (overwrite-safe: equal keys
    /// mean equal path content, hence equal spans).
    pub(crate) fn record(&self, key: Key128, paths: &[DependencePath]) {
        let mut funcs: Vec<u32> = paths
            .iter()
            .flat_map(|p| p.nodes.iter().map(|v| v.func.0))
            .collect();
        funcs.sort_unstable();
        funcs.dedup();
        let shard = &self.shards[key.shard_index(self.shards.len())];
        shard
            .lock()
            .expect("provenance poisoned")
            .insert(key, funcs.into_boxed_slice());
    }

    /// A point-in-time copy of every recorded span, for snapshot
    /// serialization ([`crate::snapshot`]).
    pub(crate) fn entries(&self) -> Vec<(Key128, Box<[u32]>)> {
        self.shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .expect("provenance poisoned")
                    .iter()
                    .map(|(k, v)| (*k, v.clone()))
                    .collect::<Vec<_>>()
            })
            .collect()
    }

    /// Re-inserts a span decoded from a snapshot.
    pub(crate) fn insert_raw(&self, key: Key128, funcs: Box<[u32]>) {
        let shard = &self.shards[key.shard_index(self.shards.len())];
        shard
            .lock()
            .expect("provenance poisoned")
            .insert(key, funcs);
    }

    /// Removes and returns every recorded key whose span meets
    /// `affected` (out-of-range functions count as affected).
    pub(crate) fn take_involving(&self, affected: &[bool]) -> Vec<Key128> {
        let mut keys = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.lock().expect("provenance poisoned");
            let victims: Vec<Key128> = shard
                .iter()
                .filter(|(_, funcs)| {
                    funcs
                        .iter()
                        .any(|&f| affected.get(f as usize).copied().unwrap_or(true))
                })
                .map(|(&k, _)| k)
                .collect();
            for k in victims {
                shard.remove(&k);
                keys.push(k);
            }
        }
        keys
    }

    /// Number of recorded keys.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("provenance poisoned").len())
            .sum()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The two provenance indexes a session run records into: one for
/// exact-key verdicts, one for iso-memo entries.
#[derive(Default)]
pub struct SessionProvenance {
    /// `path_set_key → functions` for the [`VerdictCache`].
    pub verdicts: Provenance,
    /// `iso_key → functions` for the [`CompactPdg`]'s fragment memo
    /// (eviction here is GC-with-counters — iso keys are content-pinned
    /// and can never be hit stale).
    pub iso: Provenance,
}

/// What one `rescan` invalidated versus retained. All counters are
/// zero for a cold `scan` and for an `Unchanged` rescan.
#[derive(Debug, Clone, Copy, Default)]
pub struct InvalidationStats {
    /// Functions whose content fingerprint changed.
    pub functions_edited: u64,
    /// Functions in the edit's affected component.
    pub functions_affected: u64,
    /// Functions whose absint facts were recomputed.
    pub facts_invalidated: u64,
    /// Functions whose absint facts were reused as-is.
    pub facts_retained: u64,
    /// Slice closures evicted (span met the affected set).
    pub slices_invalidated: u64,
    /// Slice closures still resident after eviction.
    pub slices_retained: u64,
    /// Cached verdicts evicted through recorded provenance.
    pub verdicts_invalidated: u64,
    /// Cached verdicts still resident after eviction.
    pub verdicts_retained: u64,
    /// Iso-memo entries garbage-collected.
    pub iso_invalidated: u64,
    /// Candidates actually re-discovered and re-solved by the warm run.
    pub candidates_reanalyzed: u64,
}

/// The resident-state machine behind `fusion-scan --serve`: one program,
/// its PDG/facts/compacted view, both caches, recorded per-item
/// outcomes, and the provenance needed to invalidate them precisely.
///
/// [`AnalysisSession::scan`] establishes (or re-establishes) resident
/// state with a cold run; [`AnalysisSession::rescan`] diffs the incoming
/// program against the resident fingerprints and re-analyzes only what
/// the edit reaches. Reports of a warm `rescan` are byte-identical to a
/// cold batch scan of the edited program at any thread count.
pub struct AnalysisSession {
    set: CheckerSet,
    options: AnalysisOptions,
    threads: usize,
    program: Option<Program>,
    pdg: Option<Pdg>,
    facts: Option<Arc<ProgramFacts>>,
    compact: Option<CompactPdg>,
    cache: VerdictCache,
    outcomes: Option<ItemOutcomes>,
    prov: SessionProvenance,
    tracker: Option<DirtinessTracker>,
    last: InvalidationStats,
}

impl AnalysisSession {
    /// An empty session (no resident program yet). `options` configure
    /// every run the session performs; `threads` is the solve/discovery
    /// parallelism (1 = inline on one engine).
    pub fn new(set: CheckerSet, options: AnalysisOptions, threads: usize) -> AnalysisSession {
        AnalysisSession {
            set,
            options,
            threads: threads.max(1),
            program: None,
            pdg: None,
            facts: None,
            compact: None,
            cache: VerdictCache::new(),
            outcomes: None,
            prov: SessionProvenance::default(),
            tracker: None,
            last: InvalidationStats::default(),
        }
    }

    /// Whether a program is resident.
    pub fn is_resident(&self) -> bool {
        self.program.is_some()
    }

    /// The resident program, if any.
    pub fn program(&self) -> Option<&Program> {
        self.program.as_ref()
    }

    /// The resident dependence graph, if any.
    pub fn pdg(&self) -> Option<&Pdg> {
        self.pdg.as_ref()
    }

    /// Bytes retained by the resident verdict cache.
    pub fn cache_bytes(&self) -> u64 {
        self.cache.bytes()
    }

    /// Bytes retained by the resident slice-closure cache.
    pub fn slice_cache_bytes(&self) -> u64 {
        self.options
            .slice_cache
            .as_ref()
            .map(|c| c.bytes())
            .unwrap_or(0)
    }

    /// What the most recent `rescan` invalidated/retained.
    pub fn last_invalidation(&self) -> InvalidationStats {
        self.last
    }

    /// Resident verdict-cache entry count.
    pub fn verdicts_resident(&self) -> u64 {
        self.cache.len()
    }

    /// Resident slice-closure count (0 with the memo disabled).
    pub fn slices_resident(&self) -> u64 {
        self.options
            .slice_cache
            .as_ref()
            .map(|c| c.len())
            .unwrap_or(0)
    }

    /// Recorded `(checker, source)` work items.
    pub fn items_resident(&self) -> usize {
        self.outcomes.as_ref().map(|o| o.len()).unwrap_or(0)
    }

    /// Cold scan: flushes all resident state, installs `program`, and
    /// runs every work item live (recording outcomes for later warm
    /// rescans).
    pub fn scan(
        &mut self,
        program: Program,
        factory: &(dyn Fn() -> Box<dyn FeasibilityEngine> + Sync),
    ) -> MultiAnalysisRun {
        self.flush();
        self.install(program);
        let (run, outcomes) = self.drive(factory, None);
        self.outcomes = Some(outcomes);
        self.last = InvalidationStats {
            candidates_reanalyzed: run.stages.candidates_reanalyzed,
            ..InvalidationStats::default()
        };
        run
    }

    /// Warm rescan: diffs `program` against the resident fingerprints,
    /// evicts exactly what the edit reaches, rebuilds the edited PDG
    /// subgraphs, and re-runs only the affected work items (the rest
    /// replay their recorded outcomes). Falls back to [`Self::scan`]
    /// when nothing is resident, and to a same-process cold run when the
    /// function list itself changed.
    pub fn rescan(
        &mut self,
        program: Program,
        factory: &(dyn Fn() -> Box<dyn FeasibilityEngine> + Sync),
    ) -> MultiAnalysisRun {
        let diff = self.tracker.as_ref().map(|t| t.diff(&program));
        match diff {
            None => self.scan(program, factory),
            Some(EditDiff::Structural) => self.scan(program, factory),
            Some(EditDiff::Unchanged) => {
                // Identical content: keep the resident program (ids are
                // interchangeable) and replay every recorded item.
                let n = self
                    .program
                    .as_ref()
                    .expect("tracker implies resident program")
                    .functions
                    .len();
                let affected = vec![false; n];
                let (run, outcomes) = self.drive(factory, Some(&affected));
                self.outcomes = Some(outcomes);
                self.last = InvalidationStats {
                    facts_retained: n as u64,
                    slices_retained: self.slices_resident(),
                    verdicts_retained: self.verdicts_resident(),
                    candidates_reanalyzed: run.stages.candidates_reanalyzed,
                    ..InvalidationStats::default()
                };
                run
            }
            Some(EditDiff::Edited {
                edited,
                affected,
                facts_dirty,
            }) => {
                let mut inv = InvalidationStats {
                    functions_edited: edited.len() as u64,
                    functions_affected: affected.iter().filter(|&&b| b).count() as u64,
                    ..InvalidationStats::default()
                };
                let n = program.functions.len();
                // PDG: rebuild only the edited functions' subgraphs
                // (per-function adjacency depends on own defs only).
                let prev_pdg = self.pdg.take().expect("resident pdg");
                let mut unchanged = vec![true; n];
                for f in &edited {
                    unchanged[f.index()] = false;
                }
                let pdg = Pdg::rebuild(&program, &prev_pdg, &unchanged);
                // Absint facts: recompute edited ∪ transitive callers,
                // seeding the builder with every clean function's values.
                if self.options.absint {
                    let prev = self.facts.take().expect("resident absint facts");
                    let (facts, invalidated) =
                        ProgramFacts::recompute(&program, &prev, &facts_dirty);
                    inv.facts_invalidated = invalidated;
                    inv.facts_retained = n as u64 - invalidated;
                    self.facts = Some(Arc::new(facts));
                }
                // Slice closures: each closure's own key set is its span.
                if let Some(sc) = &self.options.slice_cache {
                    inv.slices_invalidated = sc.evict_dirty(&affected);
                    inv.slices_retained = sc.len();
                }
                // Verdicts: evict the recorded keys the edit can reach.
                if self.options.use_cache {
                    let keys = self.prov.verdicts.take_involving(&affected);
                    inv.verdicts_invalidated = self.cache.remove_keys(&keys);
                    inv.verdicts_retained = self.cache.len();
                }
                // Compacted view: GC the affected iso entries, then
                // rebuild the per-checker regions and transplant the
                // retained (content-pinned) memo.
                if let Some(prev) = self.compact.take() {
                    let iso_keys = self.prov.iso.take_involving(&affected);
                    inv.iso_invalidated = prev.iso().remove_keys(&iso_keys);
                    self.compact = Some(CompactPdg::rebuild(
                        &program,
                        &pdg,
                        &self.set,
                        &self.options.propagate,
                        prev,
                    ));
                }
                self.pdg = Some(pdg);
                self.tracker = Some(DirtinessTracker::new(&program));
                self.program = Some(program);
                let (mut run, outcomes) = self.drive(factory, Some(&affected));
                self.outcomes = Some(outcomes);
                inv.candidates_reanalyzed = run.stages.candidates_reanalyzed;
                run.stages.facts_invalidated = inv.facts_invalidated;
                run.stages.slices_invalidated = inv.slices_invalidated;
                run.stages.verdicts_invalidated = inv.verdicts_invalidated;
                self.last = inv;
                run
            }
        }
    }

    /// Persists the resident state — program, facts, PDG partitions,
    /// recorded outcomes, verdict cache, iso memo, and eviction
    /// provenance — into one snapshot container at `path` (serve-mode
    /// `save`). Slice closures are deliberately not serialized: they are
    /// a pure memo the next live run refills, and replay never needs
    /// them. Returns bytes written. No path condition is serialized
    /// (§3.2.2: structure, facts, verdicts only).
    pub fn save(&self, path: &std::path::Path) -> Result<u64, SnapshotError> {
        let program = self.program.as_ref().ok_or_else(|| SnapshotError {
            offset: 0,
            what: "no resident program to save".to_string(),
        })?;
        let pdg = self.pdg.as_ref().expect("resident program implies pdg");
        let mut w = SnapshotWriter::new();
        snapshot::write_program(&mut w, program);
        snapshot::write_pdg(&mut w, program, pdg);
        if let Some(facts) = &self.facts {
            snapshot::write_facts(&mut w, program, facts);
        }
        if let Some(outcomes) = &self.outcomes {
            snapshot::write_outcomes(&mut w, outcomes);
        }
        snapshot::write_verdicts(&mut w, &self.cache);
        if let Some(compact) = &self.compact {
            snapshot::write_iso(&mut w, compact.iso());
        }
        snapshot::write_provenance(&mut w, snapshot::tag::PROV_VERDICTS, &self.prov.verdicts);
        snapshot::write_provenance(&mut w, snapshot::tag::PROV_ISO, &self.prov.iso);
        w.write_to(path)
    }

    /// Restores a session saved by [`Self::save`], replacing any
    /// resident state (serve-mode `load`). After a load, a `rescan` with
    /// unchanged sources is pure replay — every work item answers from
    /// the restored outcomes with zero solver queries — and a rescan
    /// with edits evicts exactly what changed, through the restored
    /// provenance. Returns bytes read (lazily, per section).
    pub fn load(&mut self, path: &std::path::Path) -> Result<u64, SnapshotError> {
        let snap = snapshot::open_file(path)?;
        let program = snapshot::read_program(&snap)?;
        let pdg = Pdg::build(&program);
        self.flush();
        if self.options.absint {
            let facts = if snap.has(snapshot::tag::FACTS, 0) {
                snapshot::read_facts(&snap, &program)?
            } else {
                // Saved by an absint-off session; recompute once.
                ProgramFacts::compute(&program)
            };
            self.facts = Some(Arc::new(facts));
        }
        if self.options.compact {
            let compact = CompactPdg::build(&program, &pdg, &self.set, &self.options.propagate);
            if snap.has(snapshot::tag::ISO, 0) {
                for (k, v) in snapshot::read_iso(&snap)? {
                    compact.iso().insert(k, v);
                }
            }
            self.compact = Some(compact);
        }
        if snap.has(snapshot::tag::VERDICTS, 0) {
            self.cache = snapshot::read_verdicts(&snap)?;
        }
        if snap.has(snapshot::tag::OUTCOMES, 0) {
            self.outcomes = Some(snapshot::read_outcomes(&snap)?);
        }
        if snap.has(snapshot::tag::PROV_VERDICTS, 0) {
            self.prov.verdicts = snapshot::read_provenance(&snap, snapshot::tag::PROV_VERDICTS)?;
        }
        if snap.has(snapshot::tag::PROV_ISO, 0) {
            self.prov.iso = snapshot::read_provenance(&snap, snapshot::tag::PROV_ISO)?;
        }
        self.tracker = Some(DirtinessTracker::new(&program));
        self.pdg = Some(pdg);
        self.program = Some(program);
        self.last = InvalidationStats::default();
        Ok(snap.bytes_read())
    }

    /// Runs the session driver against the resident state.
    fn drive(
        &self,
        factory: &(dyn Fn() -> Box<dyn FeasibilityEngine> + Sync),
        affected: Option<&[bool]>,
    ) -> (MultiAnalysisRun, ItemOutcomes) {
        let program = self.program.as_ref().expect("resident program");
        let pdg = self.pdg.as_ref().expect("resident pdg");
        let cache = self.options.use_cache.then_some(&self.cache);
        let params = SessionParams {
            facts: self.facts.clone(),
            compact: self.compact.as_ref(),
            retained: self.outcomes.as_ref(),
            affected,
            prov: Some(&self.prov),
        };
        analyze_multi_streaming_session(
            program,
            pdg,
            &self.set,
            factory,
            self.threads,
            &self.options,
            cache,
            params,
        )
    }

    fn install(&mut self, program: Program) {
        let pdg = Pdg::build(&program);
        self.facts = self
            .options
            .absint
            .then(|| Arc::new(ProgramFacts::compute(&program)));
        self.compact = self
            .options
            .compact
            .then(|| CompactPdg::build(&program, &pdg, &self.set, &self.options.propagate));
        self.tracker = Some(DirtinessTracker::new(&program));
        self.pdg = Some(pdg);
        self.program = Some(program);
    }

    fn flush(&mut self) {
        self.cache = VerdictCache::new();
        if self.options.slice_cache.is_some() {
            self.options.slice_cache = Some(Arc::new(SliceCache::new()));
        }
        self.prov = SessionProvenance::default();
        self.outcomes = None;
        self.facts = None;
        self.compact = None;
        self.pdg = None;
        self.program = None;
        self.tracker = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::Checker;
    use crate::engine::{analyze_multi_streaming_with_cache, BugReport, Feasibility};
    use crate::graph_solver::FusionSolver;
    use fusion_ir::{compile, CompileOptions};
    use fusion_smt::solver::SolverConfig;

    fn factory() -> Box<dyn FeasibilityEngine> {
        Box::new(FusionSolver::new(SolverConfig::default()))
    }

    fn keys(run: &MultiAnalysisRun) -> Vec<(Vertex, Vertex, Feasibility, Vec<Vertex>)> {
        run.all_reports()
            .map(|r: &BugReport| (r.source, r.sink, r.verdict, r.path.nodes.clone()))
            .collect()
    }

    const BASE: &str = "extern fn deref(p);\n\
        fn callee(x) { let b = x & 3; return b; }\n\
        fn caller(a) { let v = callee(a); let q = null; let r = 1; if (v > 0) { r = q; } deref(r); return 0; }\n\
        fn lone(y) { let q = null; let r = 1; if (y > 2) { r = q; } deref(r); return 0; }\n\
        fn quiet(z) { return z * 2; }";

    // Same function list, `quiet` edited (no sources, calls nothing).
    const QUIET_EDIT: &str = "extern fn deref(p);\n\
        fn callee(x) { let b = x & 3; return b; }\n\
        fn caller(a) { let v = callee(a); let q = null; let r = 1; if (v > 0) { r = q; } deref(r); return 0; }\n\
        fn lone(y) { let q = null; let r = 1; if (y > 2) { r = q; } deref(r); return 0; }\n\
        fn quiet(z) { return z * 3; }";

    // Same function list, `callee` edited (affects `caller` transitively).
    const CALLEE_EDIT: &str = "extern fn deref(p);\n\
        fn callee(x) { let b = x & 7; return b; }\n\
        fn caller(a) { let v = callee(a); let q = null; let r = 1; if (v > 0) { r = q; } deref(r); return 0; }\n\
        fn lone(y) { let q = null; let r = 1; if (y > 2) { r = q; } deref(r); return 0; }\n\
        fn quiet(z) { return z * 2; }";

    fn compile_src(src: &str) -> Program {
        compile(src, CompileOptions::default()).expect("compile")
    }

    #[test]
    fn diff_classifies_edits() {
        let base = compile_src(BASE);
        let tracker = DirtinessTracker::new(&base);
        assert!(matches!(tracker.diff(&base), EditDiff::Unchanged));
        // A renamed/added function is structural.
        let grown = compile_src(&format!("{BASE}\nfn extra(w) {{ return w; }}"));
        assert!(matches!(tracker.diff(&grown), EditDiff::Structural));
        // Editing `callee` affects `caller` (symmetric component) and
        // dirties `caller`'s facts (transitive caller), but leaves
        // `lone` and `quiet` untouched.
        let edited = compile_src(CALLEE_EDIT);
        let EditDiff::Edited {
            edited: ed,
            affected,
            facts_dirty,
        } = tracker.diff(&edited)
        else {
            panic!("expected Edited");
        };
        let id = |name: &str| base.func_by_name(name).unwrap().id;
        assert_eq!(ed, vec![id("callee")]);
        assert!(affected[id("callee").index()]);
        assert!(affected[id("caller").index()]);
        assert!(!affected[id("lone").index()]);
        assert!(!affected[id("quiet").index()]);
        assert!(facts_dirty[id("callee").index()]);
        assert!(facts_dirty[id("caller").index()]);
        assert!(!facts_dirty[id("lone").index()]);
    }

    #[test]
    fn warm_rescan_matches_cold_scan() {
        for threads in [1usize, 2, 4] {
            let mut session = AnalysisSession::new(
                CheckerSet::single(Checker::null_deref()),
                AnalysisOptions::new(),
                threads,
            );
            session.scan(compile_src(BASE), &factory);
            let warm = session.rescan(compile_src(CALLEE_EDIT), &factory);
            let cold = analyze_multi_streaming_with_cache(
                &compile_src(CALLEE_EDIT),
                &Pdg::build(&compile_src(CALLEE_EDIT)),
                &CheckerSet::single(Checker::null_deref()),
                &|| factory(),
                threads,
                &AnalysisOptions::new(),
                Some(&VerdictCache::new()),
            );
            assert_eq!(keys(&warm), keys(&cold), "threads = {threads}");
            assert_eq!(warm.candidates, cold.candidates, "threads = {threads}");
            let inv = session.last_invalidation();
            assert_eq!(inv.functions_edited, 1);
            // `lone`'s work item replayed: the warm run re-analyzed only
            // `caller`'s candidates.
            assert!(inv.candidates_reanalyzed < warm.candidates as u64);
        }
    }

    #[test]
    fn edit_outside_any_source_component_reanalyzes_nothing() {
        let mut session = AnalysisSession::new(
            CheckerSet::single(Checker::null_deref()),
            AnalysisOptions::new(),
            2,
        );
        let cold = session.scan(compile_src(BASE), &factory);
        let warm = session.rescan(compile_src(QUIET_EDIT), &factory);
        assert_eq!(keys(&warm), keys(&cold));
        let inv = session.last_invalidation();
        assert_eq!(inv.functions_edited, 1);
        assert_eq!(inv.functions_affected, 1, "quiet is its own component");
        assert_eq!(inv.candidates_reanalyzed, 0);
        assert_eq!(inv.verdicts_invalidated, 0);
        assert_eq!(inv.slices_invalidated, 0);
        assert_eq!(warm.queries, 0, "warm run issued no engine queries");
    }

    #[test]
    fn unchanged_rescan_replays_everything() {
        let mut session = AnalysisSession::new(
            CheckerSet::single(Checker::null_deref()),
            AnalysisOptions::new(),
            1,
        );
        let cold = session.scan(compile_src(BASE), &factory);
        let warm = session.rescan(compile_src(BASE), &factory);
        assert_eq!(keys(&warm), keys(&cold));
        assert_eq!(warm.queries, 0);
        assert_eq!(session.last_invalidation().candidates_reanalyzed, 0);
    }

    #[test]
    fn save_load_rescan_is_pure_replay() {
        let dir = std::env::temp_dir().join(format!("fusion-session-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("session.fsnp");
        let mut session = AnalysisSession::new(
            CheckerSet::single(Checker::null_deref()),
            AnalysisOptions::new(),
            2,
        );
        let cold = session.scan(compile_src(BASE), &factory);
        let written = session.save(&path).expect("save");
        assert!(written > 0);
        // A fresh session — simulating a process restart — restores the
        // saved state and replays an unchanged rescan without a single
        // solver query.
        let mut restored = AnalysisSession::new(
            CheckerSet::single(Checker::null_deref()),
            AnalysisOptions::new(),
            2,
        );
        let read = restored.load(&path).expect("load");
        assert!(read > 0);
        assert!(restored.is_resident());
        assert_eq!(restored.items_resident(), session.items_resident());
        assert_eq!(restored.verdicts_resident(), session.verdicts_resident());
        let warm = restored.rescan(compile_src(BASE), &factory);
        assert_eq!(keys(&warm), keys(&cold));
        assert_eq!(warm.queries, 0, "loaded session must replay");
        assert_eq!(restored.last_invalidation().candidates_reanalyzed, 0);
        // And an *edited* rescan after load still evicts exactly what
        // changed, through the restored provenance.
        let warm_edit = restored.rescan(compile_src(CALLEE_EDIT), &factory);
        let cold_edit = analyze_multi_streaming_with_cache(
            &compile_src(CALLEE_EDIT),
            &Pdg::build(&compile_src(CALLEE_EDIT)),
            &CheckerSet::single(Checker::null_deref()),
            &|| factory(),
            2,
            &AnalysisOptions::new(),
            Some(&VerdictCache::new()),
        );
        assert_eq!(keys(&warm_edit), keys(&cold_edit));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_without_resident_program_errors() {
        let session = AnalysisSession::new(
            CheckerSet::single(Checker::null_deref()),
            AnalysisOptions::new(),
            1,
        );
        let err = session
            .save(std::path::Path::new("/nonexistent/never.fsnp"))
            .expect_err("empty session cannot save");
        assert!(err.what.contains("no resident program"), "{err}");
    }

    #[test]
    fn fingerprints_ignore_untouched_functions() {
        let base = compile_src(BASE);
        let edited = compile_src(CALLEE_EDIT);
        let a = function_fingerprints(&base);
        let b = function_fingerprints(&edited);
        let callee = base.func_by_name("callee").unwrap().id.index();
        assert_ne!(a[callee], b[callee]);
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            if i != callee {
                assert_eq!(x, y, "function {i} fingerprint must be stable");
            }
        }
    }
}
