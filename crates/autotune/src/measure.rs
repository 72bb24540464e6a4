//! "On-device" measurement against the hardware model, with the paper's
//! budget accounting (one measurement = one budget unit).
//!
//! [`Measurer::measure_unit`] is the single point where budget is
//! consumed, so it is also where the unit's trace record is written:
//! with an enabled sink, every budget unit produces exactly one
//! [`MeasurementRecord`] (or [`MeasurementFailureRecord`]) labelled by
//! the caller's [`UnitLabel`], and a `sim`-scoped
//! [`alt_telemetry::CounterRegistry`] accumulates cache/prefetch totals
//! across the whole run.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use alt_error::AltError;
use alt_layout::LayoutPlan;
use alt_loopir::{lower, GraphSchedule, LowerCtx, OpSchedule, Program};
use alt_sim::{MachineProfile, SimCache, Simulator};
use alt_telemetry::{
    CounterRegistry, MeasurementFailureRecord, MeasurementRecord, Record, SimCounters, Stage,
    Telemetry, Timing,
};
use alt_tensor::{Graph, OpId};

use crate::fault::{Fault, FaultInjector};
use crate::progress::Progress;

/// Labels of one budget unit's trace record: who is measuring what, and
/// why. The tuner's accounting core builds one per attempt.
#[derive(Clone, Copy, Debug)]
pub struct UnitLabel<'a> {
    /// Operator tag, e.g. `conv2d#3`.
    pub op: &'a str,
    /// Tuning stage spending the budget.
    pub stage: Stage,
    /// Tuning round within the stage.
    pub round: u64,
    /// Candidate point summary.
    pub candidate: &'a str,
    /// Cost-model prediction for the candidate, when ranked.
    pub predicted_cost: Option<f64>,
    /// Which attempt at this candidate this is (1 = first try).
    pub attempt: u64,
    /// Virtual backoff waited before this attempt, in microseconds
    /// (recorded, never slept — the simulator has no wall clock).
    pub backoff_us: u64,
}

impl Default for UnitLabel<'_> {
    fn default() -> Self {
        Self {
            op: "graph",
            stage: Stage::Joint,
            round: 0,
            candidate: "",
            predicted_cost: None,
            attempt: 1,
            backoff_us: 0,
        }
    }
}

/// What the memo cache saw for a successful measurement: the journal's
/// fingerprint key material.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProbeInfo {
    /// Canonical fingerprint of the measured lowered program.
    pub program_fp: u64,
    /// Memo-cache key (profile fingerprint + program fingerprint).
    pub cache_key: u64,
    /// Whether the measurement repeated an earlier budgeted one.
    pub hit: bool,
}

/// Converts simulator counters into the telemetry schema.
fn convert_counters(c: &alt_sim::Counters) -> SimCounters {
    SimCounters {
        instructions: c.instructions,
        flops: c.flops,
        l1_loads: c.l1_loads,
        l1_stores: c.l1_stores,
        l1_misses: c.l1_misses,
        l2_misses: c.l2_misses,
        prefetch_issued: c.prefetch_issued,
        prefetch_useful: c.prefetch_useful,
        simd_utilization: c.simd_utilization(),
    }
}

/// Measurement driver: lowers programs and queries the performance model,
/// counting every measurement against the search budget.
pub struct Measurer<'g> {
    graph: &'g Graph,
    sim: Simulator,
    /// Memoized simulations keyed by canonical program fingerprint.
    /// Worker threads prewarm it; only `measure_unit` reads it with
    /// statistics, so the hit/miss transcript is jobs-invariant.
    cache: Arc<SimCache>,
    telemetry: Telemetry,
    registry: CounterRegistry,
    /// Wall-clock self-profile (disabled by default). Observation-only:
    /// it has its own sink and registry, so enabling it cannot change
    /// the measurement transcript.
    timing: Timing,
    /// Live stderr heartbeat (disabled by default), ticked once per
    /// consumed budget unit.
    progress: Progress,
    injector: Option<FaultInjector>,
    best_by_op: HashMap<String, f64>,
    /// Budget units consumed so far.
    pub used: u64,
    /// History of (budget used, latency measured) pairs, for efficiency
    /// curves like Fig. 11.
    pub history: Vec<(u64, f64)>,
}

impl<'g> Measurer<'g> {
    /// Creates a measurer for a graph on a machine (telemetry disabled).
    pub fn new(graph: &'g Graph, profile: MachineProfile) -> Self {
        Self::with_telemetry(graph, profile, Telemetry::noop())
    }

    /// Creates a measurer that emits one trace record per budget unit.
    pub fn with_telemetry(graph: &'g Graph, profile: MachineProfile, telemetry: Telemetry) -> Self {
        Self {
            graph,
            sim: Simulator::new(profile),
            cache: Arc::new(SimCache::new(&profile)),
            telemetry,
            registry: CounterRegistry::new("sim"),
            timing: Timing::disabled(),
            progress: Progress::disabled(),
            injector: None,
            best_by_op: HashMap::new(),
            used: 0,
            history: Vec::new(),
        }
    }

    /// Attaches (or removes) a fault injector. With `None` — the default
    /// — the measurement path is byte-for-byte the reliable one.
    pub fn set_injector(&mut self, injector: Option<FaultInjector>) {
        self.injector = injector;
    }

    /// Attaches the wall-clock self-profile: `measure_unit` opens a
    /// `simulate` phase around each cache probe. Timing writes to its
    /// own sink, so attaching it cannot change the run.
    pub fn set_timing(&mut self, timing: Timing) {
        self.timing = timing;
    }

    /// Attaches the live progress heartbeat, ticked once per consumed
    /// budget unit.
    pub fn set_progress(&mut self, progress: Progress) {
        self.progress = progress;
    }

    /// Per-op best-so-far latencies (for checkpointing).
    pub fn best_snapshot(&self) -> Vec<(String, f64)> {
        let mut v: Vec<(String, f64)> = self
            .best_by_op
            .iter()
            .map(|(k, &l)| (k.clone(), l))
            .collect();
        v.sort_by(|a, b| a.0.cmp(&b.0));
        v
    }

    /// Restores per-op best-so-far latencies from a checkpoint.
    pub fn restore_best(&mut self, entries: &[(String, f64)]) {
        self.best_by_op = entries.iter().cloned().collect();
    }

    /// The underlying simulator (for profiling runs that should not count
    /// against the budget).
    pub fn simulator(&self) -> &Simulator {
        &self.sim
    }

    /// The shared measurement memo cache (for worker-thread prewarming).
    pub fn sim_cache(&self) -> &SimCache {
        &self.cache
    }

    /// Attaches the durable result store as the memo cache's warm tier:
    /// stored measurements skip the simulation, fresh ones are published
    /// back. Call before the first measurement (the tuner does this at
    /// construction time) so the store statistics cover the whole run.
    pub fn attach_store(&self, store: Arc<alt_store::Store>) {
        self.cache.attach_store(store);
    }

    /// `(hits, misses)` of the measurement cache so far.
    pub fn cache_stats(&self) -> (u64, u64) {
        (self.cache.hits(), self.cache.misses())
    }

    /// `(hits, misses)` of the durable store so far (zeros when no store
    /// is attached).
    pub fn store_stats(&self) -> (u64, u64) {
        (self.cache.store_hits(), self.cache.store_misses())
    }

    /// Measures one operator's group; consumes one budget unit.
    pub fn measure_op(
        &mut self,
        plan: &LayoutPlan,
        sched: &GraphSchedule,
        op: OpId,
    ) -> Result<f64, AltError> {
        let roots: HashSet<OpId> = [op].into_iter().collect();
        let ctx = LowerCtx::new(self.graph, plan, sched);
        self.measure_unit(&ctx, &roots, None, &UnitLabel::default())
            .map(|(lat, _)| lat)
    }

    /// Spends one budget unit on the groups rooted at `roots`, lowered
    /// through `ctx` with the schedule override `over`, and (with
    /// an enabled sink) emits exactly one trace record labelled `unit` —
    /// a measurement record on success, a failure record when lowering
    /// fails, the fault injector strikes or the simulator rejects the
    /// program. A candidate that fails to lower still consumes its unit:
    /// on real hardware the compile attempt was paid for. The fault draw
    /// happens exactly once per lowered program, identically with
    /// telemetry on or off, so tracing never perturbs a run. Returns the
    /// latency and what the memo cache saw.
    pub fn measure_unit(
        &mut self,
        ctx: &LowerCtx,
        roots: &HashSet<OpId>,
        over: Option<(OpId, &OpSchedule)>,
        unit: &UnitLabel,
    ) -> Result<(f64, ProbeInfo), AltError> {
        self.used += 1;
        self.tick_progress();
        let program = ctx.lower(Some(roots), over);
        let result = program.and_then(|program| self.simulate(&program, unit));
        if let Err(e) = &result {
            self.record_failure(e, unit);
        }
        result
    }

    /// The simulation half of [`Self::measure_unit`]: fault draw, memo
    /// probe, counters and the success record.
    fn simulate(
        &mut self,
        program: &Program,
        unit: &UnitLabel,
    ) -> Result<(f64, ProbeInfo), AltError> {
        let mut noise = 1.0;
        if let Some(inj) = self.injector.as_mut() {
            match inj.draw() {
                Some(Fault::Noise(factor)) => noise = factor,
                Some(fault) => {
                    // Total mapping: an injector outcome that has no
                    // dedicated error (a bug, not a tuning event) degrades
                    // into a typed `AltError` instead of aborting the run.
                    return Err(FaultInjector::error_for_total(fault, unit.candidate));
                }
                None => {}
            }
        }
        // One memoized simulation serves traced and plain runs alike:
        // `try_measure` is exactly `try_profile_counters(..).latency_s`,
        // so a cached `Counters` entry reproduces either bit-for-bit. A
        // hit still consumed this call's budget unit above and still
        // emits its one trace record below.
        // The cache probe (memo hit, store serve, or cold simulation) is
        // the unit of `simulate` wall-clock attribution; the memo cache's
        // attached registry breaks the same interval down by path.
        let probe = {
            let _simulate = self.timing.phase("simulate");
            self.cache.try_profile(&self.sim, program)
        };
        let (c, hit, program_fp) = probe?;
        self.registry
            .add(if hit { "cache.hits" } else { "cache.misses" }, 1.0);
        let info = ProbeInfo {
            program_fp,
            cache_key: alt_sim::compose_cache_key(self.cache.profile_fp(), program_fp),
            hit,
        };
        let lat = c.latency_s * noise;
        if self.telemetry.is_enabled() {
            let best = self
                .best_by_op
                .entry(unit.op.to_string())
                .or_insert(f64::INFINITY);
            if lat < *best {
                *best = lat;
            }
            let best = *best;
            self.registry.add("l1.accesses", c.l1_loads + c.l1_stores);
            self.registry.add("l1.misses", c.l1_misses);
            self.registry.add("l2.misses", c.l2_misses);
            self.registry.add("prefetch.issued", c.prefetch_issued);
            self.registry.add("prefetch.useful", c.prefetch_useful);
            self.registry
                .observe("simd.utilization", c.simd_utilization());
            self.registry.observe("latency_us", lat * 1e6);
            self.telemetry.emit(Record::Measurement(MeasurementRecord {
                seq: self.used,
                op: unit.op.to_string(),
                stage: unit.stage,
                round: unit.round,
                candidate: unit.candidate.to_string(),
                predicted_cost: unit.predicted_cost,
                latency_s: lat,
                best_so_far_s: best,
                counters: convert_counters(&c),
            }));
        }
        self.history.push((self.used, lat));
        Ok((lat, info))
    }

    /// One progress heartbeat per consumed budget unit (no-op unless
    /// `--progress` attached a reporter).
    fn tick_progress(&self) {
        self.progress
            .tick(self.used, self.cache_stats(), self.store_stats());
    }

    /// Emits the failure record for the budget unit just consumed.
    /// Failed measurements are absent from `history` (no latency exists)
    /// but their `seq` keeps counting: one trace record per unit, always.
    fn record_failure(&self, err: &AltError, unit: &UnitLabel) {
        if self.telemetry.is_enabled() {
            self.telemetry
                .emit(Record::MeasurementFailure(MeasurementFailureRecord {
                    seq: self.used,
                    op: unit.op.to_string(),
                    stage: unit.stage,
                    round: unit.round,
                    candidate: unit.candidate.to_string(),
                    kind: err.kind().to_string(),
                    error: err.to_string(),
                    attempt: unit.attempt,
                    backoff_us: unit.backoff_us,
                }));
        }
    }

    /// Flushes the run-level simulator counter registry to the sink.
    /// Call once at the end of a tuning run.
    pub fn flush_counters(&self) {
        if self.cache.has_store() {
            self.registry
                .add("store.hits", self.cache.store_hits() as f64);
            self.registry
                .add("store.misses", self.cache.store_misses() as f64);
        }
        self.registry.flush_to(&self.telemetry);
    }

    /// Measures the whole graph (does not count against the budget; used
    /// for final reporting).
    pub fn measure_graph_free(&self, plan: &LayoutPlan, sched: &GraphSchedule) -> f64 {
        let program = lower(self.graph, plan, sched);
        self.sim.measure(&program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alt_layout::PropagationMode;
    use alt_sim::intel_cpu;
    use alt_tensor::ops::{self, ConvCfg};
    use alt_tensor::Shape;

    /// Lowers only `op`'s fusion group (plus its conversion groups).
    fn lower_op(g: &Graph, plan: &LayoutPlan, sched: &GraphSchedule, op: OpId) -> Program {
        let roots: HashSet<OpId> = [op].into_iter().collect();
        alt_loopir::try_lower_filtered(g, plan, sched, Some(&roots)).expect("lowering failed")
    }

    fn graph() -> Graph {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new([1, 4, 10, 10]));
        let w = g.add_param("w", Shape::new([8, 4, 3, 3]));
        let c = ops::conv2d(&mut g, x, w, ConvCfg::default());
        let _ = ops::relu(&mut g, c);
        g
    }

    #[test]
    fn budget_accounting_counts_measurements() {
        let g = graph();
        let mut m = Measurer::new(&g, intel_cpu());
        let plan = LayoutPlan::new(PropagationMode::Full);
        let sched = GraphSchedule::naive();
        let op = g.complex_ops()[0];
        assert_eq!(m.used, 0);
        let a = m.measure_op(&plan, &sched, op).unwrap();
        let b = m.measure_op(&plan, &sched, op).unwrap();
        assert_eq!(m.used, 2);
        assert_eq!(a, b, "same program must measure identically");
        assert_eq!(m.history.len(), 2);
        // Whole-graph measurement is free (reporting only).
        let full = m.measure_graph_free(&plan, &sched);
        assert_eq!(m.used, 2);
        assert!(full >= a, "graph includes the conv group and more");
    }

    #[test]
    fn telemetry_emits_one_record_per_budget_unit() {
        let g = graph();
        let (t, sink) = Telemetry::memory();
        let mut m = Measurer::with_telemetry(&g, intel_cpu(), t);
        let plan = LayoutPlan::new(PropagationMode::Full);
        let sched = GraphSchedule::naive();
        let op = g.complex_ops()[0];
        let roots: HashSet<OpId> = [op].into_iter().collect();
        let ctx = LowerCtx::new(&g, &plan, &sched);
        let unit = UnitLabel {
            op: "conv2d#0",
            ..UnitLabel::default()
        };
        for _ in 0..3 {
            m.measure_unit(&ctx, &roots, None, &unit).unwrap();
        }
        m.flush_counters();
        let records = sink.records();
        let measurements: Vec<&MeasurementRecord> = records
            .iter()
            .filter_map(|r| match r {
                Record::Measurement(m) => Some(m),
                _ => None,
            })
            .collect();
        assert_eq!(measurements.len(), 3, "one record per budget unit");
        for (i, rec) in measurements.iter().enumerate() {
            assert_eq!(rec.seq, i as u64 + 1);
            assert_eq!(rec.op, "conv2d#0");
            assert!(rec.counters.flops > 0.0);
            assert!(rec.best_so_far_s <= rec.latency_s);
        }
        // The run-level registry flushed cache/prefetch totals.
        let counters: Vec<&str> = records
            .iter()
            .filter_map(|r| match r {
                Record::Counter(c) => Some(c.name.as_str()),
                _ => None,
            })
            .collect();
        assert!(counters.contains(&"l1.accesses"), "{counters:?}");
        assert!(counters.contains(&"prefetch.useful"), "{counters:?}");
        assert!(counters.contains(&"simd.utilization.mean"), "{counters:?}");
    }

    #[test]
    fn repeat_measurements_are_cache_hits_with_identical_accounting() {
        let g = graph();
        let (t, sink) = Telemetry::memory();
        let mut m = Measurer::with_telemetry(&g, intel_cpu(), t);
        let plan = LayoutPlan::new(PropagationMode::Full);
        let sched = GraphSchedule::naive();
        let op = g.complex_ops()[0];
        let a = m.measure_op(&plan, &sched, op).unwrap();
        let b = m.measure_op(&plan, &sched, op).unwrap();
        assert_eq!(a.to_bits(), b.to_bits(), "cache must be bit-faithful");
        assert_eq!(m.cache_stats(), (1, 1), "second measurement is a hit");
        assert_eq!(m.used, 2, "a hit still consumes its budget unit");
        m.flush_counters();
        let records = sink.records();
        let measurements = records
            .iter()
            .filter(|r| matches!(r, Record::Measurement(_)))
            .count();
        assert_eq!(measurements, 2, "a hit still emits its trace record");
        let counter = |name: &str| {
            records
                .iter()
                .find_map(|r| match r {
                    Record::Counter(c) if c.name == name => Some(c.value),
                    _ => None,
                })
                .unwrap_or_else(|| panic!("missing counter {name}"))
        };
        assert_eq!(counter("cache.hits"), 1.0);
        assert_eq!(counter("cache.misses"), 1.0);
    }

    #[test]
    fn prewarming_changes_no_measurement_and_no_statistic() {
        let g = graph();
        let mut m = Measurer::new(&g, intel_cpu());
        let plan = LayoutPlan::new(PropagationMode::Full);
        let sched = GraphSchedule::naive();
        let op = g.complex_ops()[0];
        let program = lower_op(&g, &plan, &sched, op);
        m.sim_cache().prewarm(m.simulator(), &program);
        assert_eq!(m.cache_stats(), (0, 0), "prewarm is stat-silent");
        // First budgeted measurement of a prewarmed program records the
        // same (miss) transcript an unwarmed run would.
        let lat = m.measure_op(&plan, &sched, op).unwrap();
        assert_eq!(m.cache_stats(), (0, 1));
        assert_eq!(lat.to_bits(), m.simulator().measure(&program).to_bits());
        let again = m.measure_op(&plan, &sched, op).unwrap();
        assert_eq!(m.cache_stats(), (1, 1));
        assert_eq!(lat.to_bits(), again.to_bits());
    }

    #[test]
    fn disabled_telemetry_measures_identically() {
        let g = graph();
        let plan = LayoutPlan::new(PropagationMode::Full);
        let sched = GraphSchedule::naive();
        let op = g.complex_ops()[0];
        let mut plain = Measurer::new(&g, intel_cpu());
        let (t, _sink) = Telemetry::memory();
        let mut traced = Measurer::with_telemetry(&g, intel_cpu(), t);
        assert_eq!(
            plain.measure_op(&plan, &sched, op).unwrap(),
            traced.measure_op(&plan, &sched, op).unwrap(),
            "tracing must not perturb the measurement"
        );
    }

    #[test]
    fn filtered_lowering_contains_only_requested_group() {
        let g = graph();
        let plan = LayoutPlan::new(PropagationMode::Full);
        let sched = GraphSchedule::naive();
        let op = g.complex_ops()[0];
        let program = lower_op(&g, &plan, &sched, op);
        assert_eq!(program.groups.len(), 1);
        assert_eq!(program.groups[0].root, op);
    }

    #[test]
    fn injected_faults_consume_budget_and_emit_failure_records() {
        use crate::fault::{FaultConfig, FaultInjector};
        use crate::rng::SharedRng;
        let g = graph();
        let (t, sink) = Telemetry::memory();
        let mut m = Measurer::with_telemetry(&g, intel_cpu(), t);
        // Every measurement fails to compile.
        m.set_injector(Some(FaultInjector::new(
            FaultConfig {
                compile_failure_rate: 1.0,
                timeout_rate: 0.0,
                noise_rate: 0.0,
                noise_min: 1.5,
                noise_max: 4.0,
            },
            SharedRng::seed_from_u64(0),
        )));
        let plan = LayoutPlan::new(PropagationMode::Full);
        let sched = GraphSchedule::naive();
        let op = g.complex_ops()[0];
        let roots: HashSet<OpId> = [op].into_iter().collect();
        let ctx = LowerCtx::new(&g, &plan, &sched);
        let unit = UnitLabel {
            op: "conv2d#0",
            candidate: "[1, 2]",
            ..UnitLabel::default()
        };
        for _ in 0..3 {
            let err = m.measure_unit(&ctx, &roots, None, &unit).unwrap_err();
            assert_eq!(err.kind(), "injected_compile");
            assert!(err.is_transient());
        }
        assert_eq!(m.used, 3, "failures still consume budget");
        assert!(m.history.is_empty(), "failures have no latency");
        let records = sink.records();
        let failures: Vec<&MeasurementFailureRecord> = records
            .iter()
            .filter_map(|r| match r {
                Record::MeasurementFailure(f) => Some(f),
                _ => None,
            })
            .collect();
        assert_eq!(failures.len(), 3, "one failure record per unit");
        for (i, f) in failures.iter().enumerate() {
            assert_eq!(f.seq, i as u64 + 1);
            assert_eq!(f.kind, "injected_compile");
            assert_eq!(f.candidate, "[1, 2]");
        }
    }

    #[test]
    fn noise_faults_inflate_latency_identically_with_and_without_tracing() {
        use crate::fault::{FaultConfig, FaultInjector};
        use crate::rng::SharedRng;
        let g = graph();
        let plan = LayoutPlan::new(PropagationMode::Full);
        let sched = GraphSchedule::naive();
        let op = g.complex_ops()[0];
        let noisy_cfg = FaultConfig {
            compile_failure_rate: 0.0,
            timeout_rate: 0.0,
            noise_rate: 1.0,
            noise_min: 2.0,
            noise_max: 3.0,
        };
        let mut clean = Measurer::new(&g, intel_cpu());
        let true_lat = clean.measure_op(&plan, &sched, op).unwrap();
        let mut plain = Measurer::new(&g, intel_cpu());
        plain.set_injector(Some(FaultInjector::new(
            noisy_cfg.clone(),
            SharedRng::seed_from_u64(11),
        )));
        let (t, _sink) = Telemetry::memory();
        let mut traced = Measurer::with_telemetry(&g, intel_cpu(), t);
        traced.set_injector(Some(FaultInjector::new(
            noisy_cfg,
            SharedRng::seed_from_u64(11),
        )));
        let a = plain.measure_op(&plan, &sched, op).unwrap();
        let b = traced.measure_op(&plan, &sched, op).unwrap();
        assert_eq!(a, b, "same seed, same noise, tracing on or off");
        assert!(
            a > true_lat * 1.5,
            "outlier must inflate: {a} vs {true_lat}"
        );
    }
}
