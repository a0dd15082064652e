//! A timing wrapper around any [`FeasibilityEngine`].
//!
//! The driver owns the engines it builds from a factory, so the wrapper
//! reports into a shared [`QueryLog`]: every `check_paths` call's
//! latency and verdict as it happens, and the engine's cumulative
//! [`EngineStages`] when the driver drops it. The wrapper forwards every
//! trait method, so the wrapped engine behaves exactly as it would bare.

use crate::trace::{SpanId, Tracer};
use fusion::absint::ProgramFacts;
use fusion::cache::Key128;
use fusion::engine::{CheckOutcome, EngineStages, Feasibility, FeasibilityEngine, SolveRecord};
use fusion::memory::MemoryAccountant;
use fusion::slice_cache::SliceCache;
use fusion_ir::ssa::Program;
use fusion_pdg::graph::Pdg;
use fusion_pdg::paths::DependencePath;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// What the engines built from one factory did.
#[derive(Debug, Default, Clone)]
pub struct QueryTotals {
    /// Per-query `check_paths` latency, in call order per engine.
    pub latencies: Vec<Duration>,
    pub feasible: u64,
    pub infeasible: u64,
    pub unknown: u64,
    /// Queries decided by formula preprocessing alone.
    pub preprocess_decided: u64,
    /// Stage totals of every engine dropped so far.
    pub stages: EngineStages,
}

impl QueryTotals {
    pub fn queries(&self) -> u64 {
        self.feasible + self.infeasible + self.unknown
    }

    /// Summed `check_paths` time (CPU-like: parallel engines add up).
    pub fn check_time(&self) -> Duration {
        self.latencies.iter().sum()
    }
}

/// Shared sink the wrapped engines report into.
#[derive(Default)]
pub struct QueryLog(Mutex<QueryTotals>);

impl QueryLog {
    pub fn new() -> Arc<QueryLog> {
        Arc::new(QueryLog::default())
    }

    /// Everything recorded so far.
    pub fn totals(&self) -> QueryTotals {
        self.0.lock().expect("query log lock").clone()
    }
}

/// The wrapper. Each `check_paths` call becomes a span named
/// `span_name` under the span the engine was built in, when tracing.
pub struct Timed {
    inner: Box<dyn FeasibilityEngine>,
    log: Arc<QueryLog>,
    tracer: Arc<Tracer>,
    parent: Option<SpanId>,
    span_name: &'static str,
}

impl FeasibilityEngine for Timed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn check_paths(
        &mut self,
        program: &Program,
        pdg: &Pdg,
        paths: &[DependencePath],
    ) -> CheckOutcome {
        let start = Instant::now();
        let out = self.inner.check_paths(program, pdg, paths);
        let elapsed = start.elapsed();
        self.tracer
            .record(self.span_name, self.parent, start, elapsed);
        let mut log = self.log.0.lock().expect("query log lock");
        log.latencies.push(elapsed);
        match out.feasibility {
            Feasibility::Feasible => log.feasible += 1,
            Feasibility::Infeasible => log.infeasible += 1,
            Feasibility::Unknown => log.unknown += 1,
        }
        log.preprocess_decided += u64::from(out.preprocess_decided);
        out
    }

    fn begin_group(&mut self, group: u64) {
        self.inner.begin_group(group)
    }

    fn begin_candidate(
        &mut self,
        program: &Program,
        pdg: &Pdg,
        key: Key128,
        paths: &[DependencePath],
    ) {
        self.inner.begin_candidate(program, pdg, key, paths)
    }

    fn attach_slice_cache(&mut self, cache: Arc<SliceCache>) {
        self.inner.attach_slice_cache(cache)
    }

    fn attach_absint(&mut self, facts: Arc<ProgramFacts>) {
        self.inner.attach_absint(facts)
    }

    fn stage_totals(&self) -> EngineStages {
        self.inner.stage_totals()
    }

    fn memory(&self) -> &MemoryAccountant {
        self.inner.memory()
    }

    fn records(&self) -> &[SolveRecord] {
        self.inner.records()
    }
}

impl Drop for Timed {
    fn drop(&mut self) {
        let stages = self.inner.stage_totals();
        // A poisoned log means a query panicked; that operation is
        // already counted as failed, so its stage totals can go.
        if let Ok(mut log) = self.log.0.lock() {
            log.stages.add(&stages);
        }
    }
}

/// A `Sync` engine factory wrapping every engine `make` builds.
pub fn timed_factory(
    make: impl Fn() -> Box<dyn FeasibilityEngine> + Sync,
    log: &Arc<QueryLog>,
    tracer: &Arc<Tracer>,
    parent: Option<SpanId>,
    span_name: &'static str,
) -> impl Fn() -> Box<dyn FeasibilityEngine> + Sync {
    let log = Arc::clone(log);
    let tracer = Arc::clone(tracer);
    move || {
        Box::new(Timed {
            inner: make(),
            log: Arc::clone(&log),
            tracer: Arc::clone(&tracer),
            parent,
            span_name,
        }) as Box<dyn FeasibilityEngine>
    }
}
