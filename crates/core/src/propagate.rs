//! Sparse propagation of data-flow facts (Algorithms 1, 2 and 5).
//!
//! This is the analysis half of the fused design: facts travel along
//! data-dependence edges only (spatial + temporal sparsity, §3.1),
//! collecting the set Π of dependence paths from sources to sinks. Crossing
//! call and return edges respects the CFL parenthesis discipline — an exit
//! must match the call site through which the path entered, or escape to an
//! unentered outer frame.
//!
//! Crucially for the paper's contribution, the propagation computes **no
//! conditions at all** (Algorithm 5): a discovered path is handed to a
//! feasibility engine afterwards. The per-function summary cache stores
//! only reachability, never formulas.
//!
//! Discovery runs one way: a DFS per `(checker, source)` work item over
//! the plain PDG ([`discover_item`]). The analysis driver calls it once
//! per item, and [`discover_all_multi`] runs the items in order on the
//! calling thread. Which external functions are each checker's sources,
//! sinks and sanitizers is resolved from their names once per program
//! ([`CheckerRoles`]); the work list and the DFS read that table instead
//! of comparing names. Two implementations of that DFS live here:
//!
//! * [`discover_item`] and its wrappers — the production DFS. Cycle
//!   states are a hash set keyed on `(vertex, rolling stack hash)` (O(1)
//!   per step instead of an O(depth²) linear scan with a stack clone),
//!   and candidate dedup uses a `(source, sink) → index` map instead of
//!   a linear candidate scan.
//! * [`discover_reference`] — the original linear-scan implementation,
//!   kept verbatim as the oracle for the equivalence proptest
//!   (`tests/discovery_prop.rs`).

use crate::checkers::{CheckKind, Checker, CheckerId, CheckerSet};
use crate::compact::CompactPdg;
use fusion_ir::ssa::{CallSiteId, DefKind, Program};
use fusion_pdg::graph::{FlowTarget, Pdg, Vertex};
use fusion_pdg::paths::{DependencePath, Link};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

/// Exploration limits (deterministic).
#[derive(Debug, Clone, Copy)]
pub struct PropagateOptions {
    /// Alternative paths kept per (source, sink) pair.
    pub max_paths_per_pair: usize,
    /// Total DFS steps per source before giving up (budget).
    pub max_steps_per_source: usize,
    /// Maximum vertices in one path.
    pub max_path_len: usize,
    /// Maximum call-string depth.
    pub max_call_depth: usize,
}

impl Default for PropagateOptions {
    fn default() -> Self {
        Self {
            max_paths_per_pair: 4,
            max_steps_per_source: 50_000,
            max_path_len: 256,
            max_call_depth: 32,
        }
    }
}

/// A (source, sink) pair with the discovered dependence paths connecting
/// it. Each path alone witnesses the flow; feasibility of *any* of them
/// makes the candidate a bug.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The client checker this candidate belongs to — [`CheckerId(0)`]
    /// for single-checker discovery, the checker's index in the
    /// [`CheckerSet`] for a fused multi-client pass.
    ///
    /// [`CheckerId(0)`]: crate::checkers::CheckerId
    pub checker: CheckerId,
    /// Where the fact is born.
    pub source: Vertex,
    /// The sink call statement the fact reaches.
    pub sink: Vertex,
    /// Alternative dependence paths from source to sink.
    pub paths: Vec<DependencePath>,
}

/// Estimated resident bytes per DFS visited-set entry: `(Vertex, u64)`
/// key plus hash-table overhead.
pub const BYTES_PER_DFS_STATE: u64 = 48;

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one call site into a running FNV-1a hash — O(1) per push.
fn mix_site(mut h: u64, site: CallSiteId) -> u64 {
    for b in site.0.to_le_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    h
}

/// A CFL call stack that maintains a rolling content hash: `hashes[i]`
/// is the FNV-1a hash of `sites[..=i]`, so the hash of the whole stack
/// is available in O(1) after every push *and* pop (popping just drops
/// the top prefix hash — no rehash).
#[derive(Debug, Default)]
struct CallStack {
    sites: Vec<CallSiteId>,
    hashes: Vec<u64>,
}

impl CallStack {
    fn new() -> Self {
        Self::default()
    }

    fn hash(&self) -> u64 {
        self.hashes.last().copied().unwrap_or(FNV_SEED)
    }

    fn len(&self) -> usize {
        self.sites.len()
    }

    fn last(&self) -> Option<CallSiteId> {
        self.sites.last().copied()
    }

    fn push(&mut self, site: CallSiteId) {
        self.hashes.push(mix_site(self.hash(), site));
        self.sites.push(site);
    }

    fn pop(&mut self) -> Option<CallSiteId> {
        self.hashes.pop();
        self.sites.pop()
    }
}

struct Dfs<'a> {
    program: &'a Program,
    pdg: &'a Pdg,
    checker: &'a Checker,
    /// This checker's row of the [`CheckerRoles`] table.
    roles: &'a [u8],
    /// Tag stamped on every recorded candidate (the client identity of a
    /// fused multi-checker pass).
    checker_id: CheckerId,
    opts: PropagateOptions,
    steps: usize,
    candidates: Vec<Candidate>,
    /// `(source, sink) → index into candidates`: O(1) dedup instead of
    /// the original linear candidate scan.
    index: HashMap<(Vertex, Vertex), usize>,
    /// DFS states on the current path, keyed on `(vertex, stack hash)`.
    /// A path may legitimately revisit a vertex under a *different*
    /// calling context (e.g. `id(id(q))`), so cycle detection keys on
    /// the full state; hashing the stack makes the membership test O(1)
    /// without cloning the stack per step.
    states: HashSet<(Vertex, u64)>,
    /// High-water mark of `states` — transient memory, reported up for
    /// accounting.
    max_states: usize,
}

impl<'a> Dfs<'a> {
    fn new(
        program: &'a Program,
        pdg: &'a Pdg,
        checker: &'a Checker,
        roles: &'a [u8],
        checker_id: CheckerId,
        opts: PropagateOptions,
    ) -> Self {
        Self {
            program,
            pdg,
            checker,
            roles,
            checker_id,
            opts,
            steps: 0,
            candidates: Vec::new(),
            index: HashMap::new(),
            states: HashSet::new(),
            max_states: 0,
        }
    }

    fn record(&mut self, path: &DependencePath, sink: Vertex) {
        let source = path.source();
        match self.index.entry((source, sink)) {
            Entry::Occupied(e) => {
                let c = &mut self.candidates[*e.get()];
                if c.paths.len() < self.opts.max_paths_per_pair {
                    let mut full = path.clone();
                    full.push(Link::Local, sink);
                    debug_assert!(full.is_realizable());
                    c.paths.push(full);
                }
            }
            Entry::Vacant(e) => {
                let mut full = path.clone();
                full.push(Link::Local, sink);
                debug_assert!(full.is_realizable());
                e.insert(self.candidates.len());
                self.candidates.push(Candidate {
                    checker: self.checker_id,
                    source,
                    sink,
                    paths: vec![full],
                });
            }
        }
    }

    /// Steps to `v` (with the stack already updated), recurses, and
    /// undoes the step. Returns without recursing if the (vertex, stack)
    /// state already occurs on the current path.
    fn step(&mut self, path: &mut DependencePath, stack: &mut CallStack, link: Link, v: Vertex) {
        let state = (v, stack.hash());
        if !self.states.insert(state) {
            return; // a cycle in DFS state space
        }
        self.max_states = self.max_states.max(self.states.len());
        path.push(link, v);
        self.explore(path, stack);
        path.nodes.pop();
        path.links.pop();
        self.states.remove(&state);
    }

    fn explore(&mut self, path: &mut DependencePath, stack: &mut CallStack) {
        if self.steps >= self.opts.max_steps_per_source
            || path.nodes.len() >= self.opts.max_path_len
        {
            return;
        }
        self.steps += 1;
        let at = path.sink();
        let (pdg, program) = (self.pdg, self.program);
        for target in pdg.flow_targets(program, at) {
            match target {
                FlowTarget::Local { to, operand } => {
                    let func = self.program.func(at.func);
                    if !self.checker.propagates_through(func, to, operand)
                        || !self.checker.keeps_fact(func, to)
                    {
                        continue;
                    }
                    self.step(path, stack, Link::Local, Vertex::new(at.func, to));
                }
                FlowTarget::IntoCallee {
                    site,
                    callee,
                    param,
                } => {
                    if stack.len() >= self.opts.max_call_depth {
                        continue;
                    }
                    stack.push(site);
                    self.step(path, stack, Link::Enter(site), Vertex::new(callee, param));
                    stack.pop();
                }
                FlowTarget::BackToCaller { site, caller, dst } => {
                    // CFL discipline: match the entering site, or escape
                    // upward with an empty stack.
                    let popped = match stack.last() {
                        Some(top) if top == site => {
                            stack.pop();
                            true
                        }
                        Some(_) => continue, // mismatched parenthesis
                        None => false,       // upward escape
                    };
                    self.step(path, stack, Link::Exit(site), Vertex::new(caller, dst));
                    if popped {
                        stack.push(site);
                    }
                }
                FlowTarget::ThroughExtern { to, callee, .. } => {
                    let role = self.roles[callee.index()];
                    let sink_here = role & SINK != 0;
                    if sink_here {
                        self.record(path, Vertex::new(at.func, to));
                    }
                    // Sanitizers kill the fact; other externs pass it
                    // through (taint only).
                    if self.checker.through_extern && !sink_here && role & SANITIZER == 0 {
                        self.step(path, stack, Link::Local, Vertex::new(at.func, to));
                    }
                }
            }
        }
    }
}

/// A call to the function is a source of the checker.
const SOURCE: u8 = 1;
/// A call to the function is a sink of the checker.
const SINK: u8 = 2;
/// A call to the function kills the checker's fact.
const SANITIZER: u8 = 4;

/// Each checker's role for every function of one program — whether a
/// call to it is a source, a sink or a sanitizer of that checker —
/// resolved from the checkers' name lists once per program, so finding
/// sources and deciding sinks never compare names. Only external
/// functions have roles, as in [`Checker::is_source`],
/// [`Checker::is_sink`] and [`Checker::is_sanitizer`], which it agrees
/// with.
#[derive(Debug, Clone)]
pub struct CheckerRoles {
    functions: usize,
    /// Checker-major role bits: `roles[c * functions + f]`.
    roles: Vec<u8>,
}

impl CheckerRoles {
    /// Resolves every checker of `set` against `program`'s external
    /// functions.
    pub fn new(program: &Program, set: &CheckerSet) -> CheckerRoles {
        let functions = program.functions.len();
        let mut roles = vec![0u8; functions * set.len()];
        for f in program.functions.iter().filter(|f| f.is_extern) {
            let name = program.name(f.name);
            let named = |names: &[String]| names.iter().any(|n| n == name);
            for (id, c) in set.iter() {
                let role = &mut roles[id.0 * functions + f.id.index()];
                for (names, bit) in [
                    (&c.source_fns, SOURCE),
                    (&c.sink_fns, SINK),
                    (&c.sanitizer_fns, SANITIZER),
                ] {
                    if named(names) {
                        *role |= bit;
                    }
                }
            }
        }
        CheckerRoles { functions, roles }
    }

    /// Checker `id`'s row, indexed by callee.
    fn of(&self, id: CheckerId) -> &[u8] {
        &self.roles[id.0 * self.functions..(id.0 + 1) * self.functions]
    }

    /// The fused work list of [`multi_source_vertices`], found in one pass
    /// over the definitions: each definition is checked against every
    /// checker at once, and the per-checker lists are concatenated in
    /// checker order.
    pub fn sources(&self, program: &Program, set: &CheckerSet) -> Vec<(CheckerId, Vertex)> {
        let mut per: Vec<Vec<Vertex>> = vec![Vec::new(); set.len()];
        let null: Vec<usize> = set
            .iter()
            .filter(|(_, c)| c.kind == CheckKind::NullDeref)
            .map(|(id, _)| id.0)
            .collect();
        for func in program.functions.iter().filter(|f| !f.is_extern) {
            for def in &func.defs {
                let at = Vertex::new(func.id, def.var);
                match def.kind {
                    DefKind::Const { is_null: true, .. } => {
                        for &c in &null {
                            per[c].push(at);
                        }
                    }
                    DefKind::Call { callee, .. } => {
                        for (c, list) in per.iter_mut().enumerate() {
                            if self.roles[c * self.functions + callee.index()] & SOURCE != 0 {
                                list.push(at);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        per.into_iter()
            .enumerate()
            .flat_map(|(c, list)| list.into_iter().map(move |v| (CheckerId(c), v)))
            .collect()
    }
}

/// The checker's source vertices in canonical order (function order,
/// then definition order), found by comparing names per definition
/// ([`Checker::is_source`]): the reference [`CheckerRoles::sources`]
/// agrees with.
pub fn source_vertices(program: &Program, checker: &Checker) -> Vec<Vertex> {
    let mut sources = Vec::new();
    for func in program.functions.iter().filter(|f| !f.is_extern) {
        for def in &func.defs {
            if checker.is_source(program, func, def.var) {
                sources.push(Vertex::new(func.id, def.var));
            }
        }
    }
    sources
}

/// The fused multi-client work list: every `(checker, source)` pair in
/// canonical order — checkers in [`CheckerSet`] order, then that
/// checker's sources in [`source_vertices`] order. This is the unit of
/// work the analysis driver's streaming producers steal; merging
/// per-item results back in item order keeps a run byte-deterministic at
/// any thread count. Resolves the roles table and makes one pass
/// ([`CheckerRoles::sources`]).
pub fn multi_source_vertices(program: &Program, set: &CheckerSet) -> Vec<(CheckerId, Vertex)> {
    CheckerRoles::new(program, set).sources(program, set)
}

/// One source's worth of discovery — the unit of work the analysis
/// driver discovers and then solves.
#[derive(Debug)]
pub struct SourceDiscovery {
    /// Candidates found from this source, in DFS order.
    pub candidates: Vec<Candidate>,
    /// DFS steps taken.
    pub steps: u64,
    /// Transient visited-set high-water bytes (charged and released
    /// through the caller's accountant).
    pub state_bytes: u64,
}

/// Runs the DFS for a single `(checker, source)` work item (one element
/// of [`multi_source_vertices`]); every recorded candidate is stamped
/// with `id`, the checker's index in the set `roles` was resolved for.
/// The concatenation of results in work-item order is exactly
/// [`discover_all_multi`]'s output.
pub fn discover_item(
    program: &Program,
    pdg: &Pdg,
    checker: &Checker,
    roles: &CheckerRoles,
    id: CheckerId,
    opts: &PropagateOptions,
    source: Vertex,
) -> SourceDiscovery {
    let mut dfs = Dfs::new(program, pdg, checker, roles.of(id), id, *opts);
    let mut path = DependencePath::unit(source);
    let mut stack = CallStack::new();
    dfs.explore(&mut path, &mut stack);
    SourceDiscovery {
        state_bytes: dfs.max_states as u64 * BYTES_PER_DFS_STATE,
        steps: dfs.steps as u64,
        candidates: dfs.candidates,
    }
}

/// The result of a whole-program discovery pass.
#[derive(Debug, Default)]
pub struct Discovery {
    /// All candidates, in work-item order `(checker_idx, source_idx)`,
    /// then DFS order within a source.
    pub candidates: Vec<Candidate>,
    /// Total DFS steps across all work items.
    pub steps: u64,
    /// DFS steps attributed per checker (indexed by `CheckerId.0`).
    pub per_checker_steps: Vec<u64>,
}

/// Runs sparse propagation for a whole [`CheckerSet`] in **one fused
/// pass**: every `(checker, source)` work item
/// ([`multi_source_vertices`]) in canonical `(checker_idx, source_idx)`
/// order, on the calling thread. The per-checker candidate subsequence
/// is exactly what a single-checker [`discover`] over that checker
/// produces.
pub fn discover_all_multi(
    program: &Program,
    pdg: &Pdg,
    set: &CheckerSet,
    opts: &PropagateOptions,
) -> Discovery {
    let mut d = Discovery {
        per_checker_steps: vec![0; set.len()],
        ..Discovery::default()
    };
    let roles = CheckerRoles::new(program, set);
    for (id, src) in roles.sources(program, set) {
        let item = discover_item(program, pdg, set.get(id), &roles, id, opts, src);
        d.steps += item.steps;
        d.per_checker_steps[id.0] += item.steps;
        d.candidates.extend(item.candidates);
    }
    d
}

/// [`discover_all_multi`] under the signature the end-to-end benchmark's
/// `graph_layers` calls. It reads neither `shards` nor `compact`: the
/// walk is always the sequential one over the plain PDG, so the
/// benchmark's `propagate.discover_s` times the driver's own discovery.
/// It stays only until the benchmark PR of ROADMAP item 1(c) stops
/// calling it.
pub fn discover_all_multi_compact(
    program: &Program,
    pdg: &Pdg,
    set: &CheckerSet,
    opts: &PropagateOptions,
    _shards: usize,
    _compact: Option<&CompactPdg>,
) -> Discovery {
    discover_all_multi(program, pdg, set, opts)
}

/// Runs sparse propagation for one checker, returning all (source, sink)
/// candidates with their dependence paths: [`discover_all_multi`] over
/// a singleton [`CheckerSet`], so every candidate is tagged
/// [`CheckerId`]`(0)`.
pub fn discover(
    program: &Program,
    pdg: &Pdg,
    checker: &Checker,
    opts: &PropagateOptions,
) -> Vec<Candidate> {
    discover_all_multi(program, pdg, &CheckerSet::single(checker.clone()), opts).candidates
}

// ---------------------------------------------------------------------
// Reference implementation (pre-optimization), kept as the proptest
// oracle: linear candidate scan in `record`, `Vec`-scan cycle states
// with a full stack clone per step.
// ---------------------------------------------------------------------

struct RefDfs<'a> {
    program: &'a Program,
    pdg: &'a Pdg,
    checker: &'a Checker,
    opts: PropagateOptions,
    steps: usize,
    candidates: Vec<Candidate>,
    states: Vec<(Vertex, Vec<CallSiteId>)>,
}

impl<'a> RefDfs<'a> {
    fn record(&mut self, path: &DependencePath, sink: Vertex) {
        let mut full = path.clone();
        full.push(Link::Local, sink);
        debug_assert!(full.is_realizable());
        let source = full.source();
        if let Some(c) = self
            .candidates
            .iter_mut()
            .find(|c| c.source == source && c.sink == sink)
        {
            if c.paths.len() < self.opts.max_paths_per_pair {
                c.paths.push(full);
            }
        } else {
            self.candidates.push(Candidate {
                checker: CheckerId(0),
                source,
                sink,
                paths: vec![full],
            });
        }
    }

    fn step(
        &mut self,
        path: &mut DependencePath,
        stack: &mut Vec<CallSiteId>,
        link: Link,
        v: Vertex,
    ) {
        let state = (v, stack.clone());
        if self.states.contains(&state) {
            return;
        }
        self.states.push(state);
        path.push(link, v);
        self.explore(path, stack);
        path.nodes.pop();
        path.links.pop();
        self.states.pop();
    }

    fn explore(&mut self, path: &mut DependencePath, stack: &mut Vec<CallSiteId>) {
        if self.steps >= self.opts.max_steps_per_source
            || path.nodes.len() >= self.opts.max_path_len
        {
            return;
        }
        self.steps += 1;
        let at = path.sink();
        let (pdg, program) = (self.pdg, self.program);
        for target in pdg.flow_targets(program, at) {
            match target {
                FlowTarget::Local { to, operand } => {
                    let func = self.program.func(at.func);
                    if !self.checker.propagates_through(func, to, operand)
                        || !self.checker.keeps_fact(func, to)
                    {
                        continue;
                    }
                    self.step(path, stack, Link::Local, Vertex::new(at.func, to));
                }
                FlowTarget::IntoCallee {
                    site,
                    callee,
                    param,
                } => {
                    if stack.len() >= self.opts.max_call_depth {
                        continue;
                    }
                    stack.push(site);
                    self.step(path, stack, Link::Enter(site), Vertex::new(callee, param));
                    stack.pop();
                }
                FlowTarget::BackToCaller { site, caller, dst } => {
                    let popped = match stack.last() {
                        Some(&top) if top == site => {
                            stack.pop();
                            true
                        }
                        Some(_) => continue,
                        None => false,
                    };
                    self.step(path, stack, Link::Exit(site), Vertex::new(caller, dst));
                    if popped {
                        stack.push(site);
                    }
                }
                FlowTarget::ThroughExtern { to, arg: _, .. } => {
                    let func = self.program.func(at.func);
                    let sink_here = self.checker.is_sink(self.program, func, to);
                    if sink_here {
                        self.record(path, Vertex::new(at.func, to));
                    }
                    if self.checker.through_extern
                        && !sink_here
                        && !self.checker.is_sanitizer(self.program, func, to)
                    {
                        self.step(path, stack, Link::Local, Vertex::new(at.func, to));
                    }
                }
            }
        }
    }
}

/// The original, pre-optimization discovery: linear candidate scan and
/// `Vec`-scan cycle detection with a stack clone per step. Quadratic in
/// the hot loops; kept only as the oracle the optimized [`discover`] is
/// property-tested against (`tests/discovery_prop.rs`).
pub fn discover_reference(
    program: &Program,
    pdg: &Pdg,
    checker: &Checker,
    opts: &PropagateOptions,
) -> Vec<Candidate> {
    let mut all = Vec::new();
    for func in program.functions.iter().filter(|f| !f.is_extern) {
        for def in &func.defs {
            if !checker.is_source(program, func, def.var) {
                continue;
            }
            let mut dfs = RefDfs {
                program,
                pdg,
                checker,
                opts: *opts,
                steps: 0,
                candidates: Vec::new(),
                states: Vec::new(),
            };
            let mut path = DependencePath::unit(Vertex::new(func.id, def.var));
            let mut stack = Vec::new();
            dfs.explore(&mut path, &mut stack);
            all.extend(dfs.candidates);
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkers::Checker;
    use fusion_ir::{compile, CompileOptions};

    fn candidates(src: &str, checker: &Checker) -> (Program, Vec<Candidate>) {
        let p = compile(src, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let cs = discover(&p, &g, checker, &PropagateOptions::default());
        (p, cs)
    }

    #[test]
    fn direct_null_flow() {
        let (_, cs) = candidates(
            "extern fn deref(p); fn f() { let q = null; deref(q); return 0; }",
            &Checker::null_deref(),
        );
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].paths.len(), 1);
        assert_eq!(cs[0].paths[0].nodes.len(), 2);
    }

    #[test]
    fn null_does_not_survive_arithmetic() {
        let (_, cs) = candidates(
            "extern fn deref(p); fn f() { let q = null; let r = q + 1; deref(r); return 0; }",
            &Checker::null_deref(),
        );
        assert!(cs.is_empty());
    }

    #[test]
    fn sanitizers_kill_taint() {
        let (_, cs) = candidates(
            "extern fn gets(); extern fn realpath(x); extern fn fopen(p);\n\
             fn f() { let i = gets(); let clean = realpath(i); fopen(clean); return 0; }",
            &Checker::cwe23(),
        );
        assert!(cs.is_empty(), "sanitized flow must not be reported");
    }

    #[test]
    fn taint_survives_arithmetic_and_library() {
        let (_, cs) = candidates(
            "extern fn gets(); extern fn sanitize_noop(x); extern fn fopen(p);\n\
             fn f() { let i = gets(); let j = i + 1; let k = sanitize_noop(j); fopen(k); return 0; }",
            &Checker::cwe23(),
        );
        assert_eq!(cs.len(), 1);
        // gets → j → k → fopen.
        assert_eq!(cs[0].paths[0].nodes.len(), 4);
    }

    #[test]
    fn interprocedural_flow_via_call_and_return() {
        let (_, cs) = candidates(
            "extern fn deref(p);\n\
             fn id(x) { return x; }\n\
             fn f() { let q = null; let r = id(q); deref(r); return 0; }",
            &Checker::null_deref(),
        );
        assert_eq!(cs.len(), 1);
        let path = &cs[0].paths[0];
        assert!(path.is_realizable());
        assert!(path.links.iter().any(|l| matches!(l, Link::Enter(_))));
        assert!(path.links.iter().any(|l| matches!(l, Link::Exit(_))));
    }

    #[test]
    fn cfl_discipline_blocks_site_mixing() {
        // null enters id at site 1 but must not exit through site 2.
        let (p, cs) = candidates(
            "extern fn deref(p);\n\
             fn id(x) { return x; }\n\
             fn f(a) {\n\
               let q = null;\n\
               let r1 = id(q);\n\
               let r2 = id(a);\n\
               deref(r2);\n\
               return r1;\n\
             }",
            &Checker::null_deref(),
        );
        // The only sink is deref(r2), which the null value cannot reach
        // without mixing call sites.
        assert!(
            cs.is_empty(),
            "{:?}",
            cs.iter().map(|c| c.paths.len()).collect::<Vec<_>>()
        );
        drop(p);
    }

    #[test]
    fn upward_escape_to_caller() {
        // The source lives in the callee, the sink in the caller.
        let (_, cs) = candidates(
            "extern fn deref(p);\n\
             fn make() { let q = null; return q; }\n\
             fn f() { let r = make(); deref(r); return 0; }",
            &Checker::null_deref(),
        );
        assert_eq!(cs.len(), 1);
        assert!(cs[0].paths[0]
            .links
            .iter()
            .any(|l| matches!(l, Link::Exit(_))));
    }

    #[test]
    fn multiple_alternative_paths() {
        let (_, cs) = candidates(
            "extern fn deref(p);\n\
             fn f(a, b) {\n\
               let q = null;\n\
               let r = 0;\n\
               let s = 0;\n\
               if (a) { r = q; }\n\
               if (b) { s = q; }\n\
               let t = 0;\n\
               if (a < b) { t = r; } else { t = s; }\n\
               deref(t);\n\
               return 0;\n\
             }",
            &Checker::null_deref(),
        );
        assert_eq!(cs.len(), 1);
        // q reaches deref both via r (then-arm) and via s (else-arm).
        assert_eq!(cs[0].paths.len(), 2);
    }

    #[test]
    fn sources_in_different_functions() {
        let (_, cs) = candidates(
            "extern fn deref(p);\n\
             fn g() { let q = null; deref(q); return 0; }\n\
             fn h() { let q = null; deref(q); return 0; }",
            &Checker::null_deref(),
        );
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn respects_step_budget() {
        let (_, cs) = candidates(
            "extern fn deref(p); fn f() { let q = null; deref(q); return 0; }",
            &Checker::null_deref(),
        );
        assert_eq!(cs.len(), 1);
        // With a zero budget nothing is found.
        let p = compile(
            "extern fn deref(p); fn f() { let q = null; deref(q); return 0; }",
            CompileOptions::default(),
        )
        .unwrap();
        let g = Pdg::build(&p);
        let opts = PropagateOptions {
            max_steps_per_source: 0,
            ..Default::default()
        };
        assert!(discover(&p, &g, &Checker::null_deref(), &opts).is_empty());
    }

    /// The recursion-heavy shape where (vertex, stack) states matter:
    /// the optimized hashed states must agree with the linear oracle.
    #[test]
    fn hashed_discovery_matches_reference() {
        let src = "extern fn deref(p);\n\
             fn id(x) { return x; }\n\
             fn twice(y) { let m = id(y); let n = id(m); return n; }\n\
             fn f(a, b) {\n\
               let q = null;\n\
               let r = twice(q);\n\
               let s = id(r);\n\
               if (a < b) { deref(s); }\n\
               deref(r);\n\
               return 0;\n\
             }";
        let p = compile(src, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let opts = PropagateOptions::default();
        let new = discover(&p, &g, &Checker::null_deref(), &opts);
        let old = discover_reference(&p, &g, &Checker::null_deref(), &opts);
        assert_eq!(new.len(), old.len());
        for (n, o) in new.iter().zip(&old) {
            assert_eq!(n.source, o.source);
            assert_eq!(n.sink, o.sink);
            let np: Vec<_> = n.paths.iter().map(|p| (&p.nodes, &p.links)).collect();
            let op: Vec<_> = o.paths.iter().map(|p| (&p.nodes, &p.links)).collect();
            assert_eq!(np, op);
        }
    }

    /// The benchmark's entry point ignores its shard count and its view:
    /// it returns exactly the plain walk's candidates, paths and steps,
    /// although the view here would prune (`lost`'s source reaches no
    /// sink and `f`'s copy `t` feeds none).
    #[test]
    fn compact_entry_point_runs_the_plain_walk() {
        use crate::checkers::CheckerSet;
        let src = "extern fn deref(p);\n\
             fn id(x) { return x; }\n\
             fn dead(y) { let z = y + 1; let w = z * 2; return w; }\n\
             fn f(c) {\n\
               let q = null;\n\
               let r = id(q);\n\
               let t = q;\n\
               let n = dead(c);\n\
               if (c > n) { deref(r); }\n\
               return 0;\n\
             }\n\
             fn g() { let q = null; let u = id(id(q)); deref(u); return 0; }\n\
             fn lost() { let q = null; let y = q; return y; }";
        let p = compile(src, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        let opts = PropagateOptions::default();
        let set = CheckerSet::single(Checker::null_deref());
        let plain = discover_all_multi(&p, &g, &set, &opts);
        let view = CompactPdg::build(&p, &g, &set, &opts);
        assert!(view.stats().vertices_pruned > 0);
        for k in [1, 2, 4] {
            let d = discover_all_multi_compact(&p, &g, &set, &opts, k, Some(&view));
            assert_eq!(d.steps, plain.steps, "k={k}");
            assert_eq!(d.per_checker_steps, plain.per_checker_steps, "k={k}");
            assert_eq!(d.candidates.len(), plain.candidates.len(), "k={k}");
            for (a, b) in d.candidates.iter().zip(&plain.candidates) {
                assert_eq!(a.checker, b.checker);
                assert_eq!(a.source, b.source);
                assert_eq!(a.sink, b.sink);
                let ap: Vec<_> = a.paths.iter().map(|p| (&p.nodes, &p.links)).collect();
                let bp: Vec<_> = b.paths.iter().map(|p| (&p.nodes, &p.links)).collect();
                assert_eq!(ap, bp, "k={k}");
            }
        }
    }

    /// A program that exercises all three default checkers at once.
    fn multi_program() -> (Program, Pdg) {
        let src = "extern fn deref(p); extern fn gets(); extern fn fopen(x);\n\
             extern fn getpass(); extern fn sendmsg(y);\n\
             fn a() { let q = null; deref(q); return 0; }\n\
             fn b() { let t = gets(); fopen(t); return 0; }\n\
             fn c() { let s = getpass(); sendmsg(s); return 0; }\n";
        let p = compile(src, CompileOptions::default()).expect("compile");
        let g = Pdg::build(&p);
        (p, g)
    }

    /// The fused pass is the concatenation of per-checker passes in
    /// checker order, with every candidate tagged by its client.
    #[test]
    fn fused_discovery_is_checker_major_concatenation() {
        use crate::checkers::CheckerSet;
        let (p, g) = multi_program();
        let opts = PropagateOptions::default();
        let set = CheckerSet::all();
        let fused = discover_all_multi(&p, &g, &set, &opts);
        assert_eq!(fused.per_checker_steps.len(), set.len());
        assert_eq!(fused.per_checker_steps.iter().sum::<u64>(), fused.steps);

        let mut expected = Vec::new();
        for (id, checker) in set.iter() {
            let single = discover_all_multi(&p, &g, &CheckerSet::single(checker.clone()), &opts);
            assert_eq!(
                fused.per_checker_steps[id.0], single.steps,
                "per-checker step attribution for {id}"
            );
            for mut c in single.candidates {
                c.checker = id; // single-checker passes tag CheckerId(0)
                expected.push(c);
            }
        }
        assert_eq!(fused.candidates.len(), expected.len());
        for (f, e) in fused.candidates.iter().zip(&expected) {
            assert_eq!(f.checker, e.checker);
            assert_eq!(f.source, e.source);
            assert_eq!(f.sink, e.sink);
            let fp: Vec<_> = f.paths.iter().map(|p| (&p.nodes, &p.links)).collect();
            let ep: Vec<_> = e.paths.iter().map(|p| (&p.nodes, &p.links)).collect();
            assert_eq!(fp, ep);
        }
    }
}
