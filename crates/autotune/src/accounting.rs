//! The tuner's accounting core: everything a budget unit touches.
//!
//! The stage policies in [`crate::tuner`] decide *what* to measure;
//! [`Accounting`] decides what measuring costs and how it is recorded.
//! It owns the measurer (budget counter, history, memo cache, fault
//! injector, progress heartbeat), the shared RNG, retry/backoff and
//! quarantine, the tuner's counter registry, and the journal, trace and
//! timing handles. Every candidate reaches the records through exactly
//! one call — [`Accounting::measure`] when it spends budget,
//! [`Accounting::drop_candidate`] when it is dropped for free — and that
//! call writes the candidate's journal record and its per-unit trace
//! records from the same values.
//!
//! Nothing here draws from the RNG except the fault injector, and no
//! record is built unless its sink is attached, so attaching a journal
//! or a trace cannot change a run, and a run without them builds no
//! records.

use std::collections::{HashMap, HashSet};

use alt_journal::{
    finite, outcome, provenance, CandidateRecord, Journal, JournalHeader, JournalRecord,
    JournalSummary, LayoutCommitRecord, LayoutVisitRecord, JOURNAL_VERSION,
};
use alt_layout::LayoutPlan;
use alt_loopir::{GraphSchedule, LowerCtx, OpSchedule};
use alt_sim::MachineProfile;
use alt_telemetry::{
    CostModelRecord, CounterRegistry, PhaseGuard, PpoUpdateRecord, Record, Span, Stage, Telemetry,
    Timing, VerifyRejectionRecord,
};
use alt_tensor::{Graph, OpId};

use crate::checkpoint::TunerCheckpoint;
use crate::fault::FaultInjector;
use crate::measure::{Measurer, ProbeInfo, UnitLabel};
use crate::ppo::PpoUpdateStats;
use crate::rng::SharedRng;
use crate::tuner::{TuneConfig, TuneResult};

/// Retries after a transient measurement failure (injected compile
/// failure or timeout). Every retry consumes one budget unit, like a
/// re-measurement on real hardware would.
pub const MAX_RETRIES: u64 = 2;

/// Times a candidate may exhaust its retries before it is quarantined
/// and never proposed again.
pub const QUARANTINE_THRESHOLD: u64 = 2;

/// A candidate on its way to a terminal outcome: who proposed it, and
/// the point it proposes (empty for the incumbent).
#[derive(Clone, Copy)]
pub(crate) struct Candidate<'a> {
    pub origin: &'static str,
    pub point: &'a [usize],
}

impl Candidate<'_> {
    /// The incumbent schedule, measured as a round's baseline.
    pub const INCUMBENT: Candidate<'static> = Candidate {
        origin: provenance::INCUMBENT,
        point: &[],
    };

    /// The candidate's label in trace records and quarantine keys.
    fn label(&self) -> String {
        if self.origin == provenance::INCUMBENT {
            self.origin.to_string()
        } else {
            format!("{:?}", self.point)
        }
    }
}

/// Why a candidate ended without spending budget.
pub(crate) enum Dropped<'a> {
    /// Generated but not selected for measurement.
    Skipped,
    /// Banned after repeated failures.
    Quarantined,
    /// Failed to lower.
    LowerFailed,
    /// Statically rejected by the verifier.
    VerifyRejected(&'a alt_verify::Diagnostic),
}

/// The accounting core of one tuning run.
pub(crate) struct Accounting<'g> {
    measurer: Measurer<'g>,
    rng: SharedRng,
    /// Run-level robustness counters (retries, quarantined, failures.*).
    registry: CounterRegistry,
    /// Candidate keys (`op:point`) banned after repeated failures.
    quarantine: HashSet<String>,
    /// Give-up count per candidate key (feeds the quarantine).
    fail_counts: HashMap<String, u64>,
    journal: Journal,
    telemetry: Telemetry,
    timing: Timing,
    /// Position labels of the next record: operator tag, stage, round.
    op: String,
    stage: Stage,
    round: u64,
    /// The open stage's timing phase and trace span (dropped in that
    /// order).
    stage_scope: Option<(PhaseGuard, Span)>,
}

impl<'g> Accounting<'g> {
    /// Wires the measurer to the run's RNG, fault injector, store,
    /// timing and progress handles.
    pub fn new(graph: &'g Graph, profile: MachineProfile, cfg: &TuneConfig) -> Self {
        let mut measurer = Measurer::with_telemetry(graph, profile, cfg.telemetry.clone());
        // One stream for search and faults: the injector interleaves its
        // draws with the tuner's, so "same seed, same fault config" means
        // the same run. With zero fault rate no injector is attached and
        // the measurement path is exactly the reliable one.
        let rng = SharedRng::seed_from_u64(cfg.seed);
        if let Some(fc) = cfg.faults.as_ref().filter(|fc| fc.total_rate() > 0.0) {
            measurer.set_injector(Some(FaultInjector::new(fc.clone(), rng.clone())));
        }
        // The durable store becomes the memo cache's warm tier before
        // any measurement runs, so the store statistics cover the run.
        if let Some(store) = &cfg.store {
            measurer.attach_store(store.clone());
        }
        // Wall-clock timing: the handle's registry becomes the latency
        // sink of the memo cache (`memo.*_us`) and the store
        // (`store.*_us`), and the measurer opens a `simulate` phase per
        // cache probe. All of it is observation-only.
        if let Some(reg) = cfg.timing.registry() {
            measurer.sim_cache().attach_registry(reg.clone());
            if let Some(store) = &cfg.store {
                store.attach_registry(reg);
            }
            measurer.set_timing(cfg.timing.clone());
        }
        if cfg.progress {
            measurer.set_progress(crate::progress::Progress::enabled(
                cfg.joint_budget + cfg.loop_budget,
            ));
        }
        Self {
            measurer,
            rng,
            registry: CounterRegistry::new("tuner"),
            quarantine: HashSet::new(),
            fail_counts: HashMap::new(),
            journal: cfg.journal.clone(),
            telemetry: cfg.telemetry.clone(),
            timing: cfg.timing.clone(),
            op: "graph".to_string(),
            stage: Stage::Joint,
            round: 0,
            stage_scope: None,
        }
    }

    /// Budget units consumed so far.
    pub fn used(&self) -> u64 {
        self.measurer.used
    }

    /// The run's shared random stream (the fault injector draws from it
    /// too).
    pub fn rng(&mut self) -> &mut SharedRng {
        &mut self.rng
    }

    /// Read access to the measurer: simulator and memo cache for worker
    /// prewarming, free whole-graph measurement.
    pub fn measurer(&self) -> &Measurer<'g> {
        &self.measurer
    }

    /// Enters a tuning stage: opens its trace span and timing phase and
    /// labels every following record with `stage`.
    pub fn begin_stage(&mut self, stage: Stage) {
        let name = match stage {
            Stage::Joint => "joint_stage",
            Stage::Loop => "loop_stage",
        };
        self.stage = stage;
        let span = Span::enter(&self.telemetry, name);
        self.stage_scope = Some((self.timing.phase(name), span));
    }

    /// Closes the stage opened by [`Self::begin_stage`].
    pub fn end_stage(&mut self) {
        self.stage_scope = None;
    }

    /// Labels every following record with operator tag `op`.
    pub fn enter_op(&mut self, op: String) {
        self.op = op;
    }

    /// Labels every following record with loop-tuning round `round`.
    pub fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    /// Whether `point` of the current operator is quarantined.
    pub fn is_quarantined(&self, point: &[usize]) -> bool {
        !self.quarantine.is_empty() && self.quarantine.contains(&format!("{}:{point:?}", self.op))
    }

    /// Spends budget on one candidate, the groups rooted at `roots`
    /// lowered through `ctx` with the schedule override `over`: up to
    /// `1 + MAX_RETRIES` attempts, never more than `cap` units, each
    /// attempt one unit with its own trace record. The exponential
    /// backoff between attempts is recorded, not slept (the simulator
    /// has no wall clock). A candidate that exhausts its attempts counts
    /// towards its quarantine. Writes the candidate's journal record and
    /// returns its latency, or `None` when it failed.
    pub fn measure(
        &mut self,
        ctx: &LowerCtx,
        roots: &HashSet<OpId>,
        over: Option<(OpId, &OpSchedule)>,
        cand: Candidate,
        predicted: Option<f64>,
        cap: u64,
    ) -> Option<f64> {
        let label = cand.label();
        let used_before = self.measurer.used;
        let max_attempts = (1 + MAX_RETRIES).min(cap.max(1));
        let mut attempt = 1u64;
        let result: Result<(f64, ProbeInfo), &str> = loop {
            let unit = UnitLabel {
                op: &self.op,
                stage: self.stage,
                round: self.round,
                candidate: &label,
                predicted_cost: predicted,
                attempt,
                backoff_us: if attempt <= 1 {
                    0
                } else {
                    100u64 << (attempt - 2).min(20)
                },
            };
            // Re-attempts get their own wall-clock phase so fault/retry
            // cost shows up separately from first-try measurement.
            let retry = (attempt > 1).then(|| self.timing.phase("retry"));
            let err = match self.measurer.measure_unit(ctx, roots, over, &unit) {
                Ok(measured) => break Ok(measured),
                Err(e) => e,
            };
            drop(retry);
            self.registry.add(&format!("failures.{}", err.kind()), 1.0);
            if err.is_transient() && attempt < max_attempts {
                self.registry.add("retries", 1.0);
                attempt += 1;
                continue;
            }
            let key = format!("{}:{label}", self.op);
            let count = self.fail_counts.entry(key.clone()).or_insert(0);
            *count += 1;
            if *count >= QUARANTINE_THRESHOLD && self.quarantine.insert(key) {
                self.registry.add("quarantined", 1.0);
            }
            break Err(err.kind());
        };
        if self.journal.is_enabled() {
            let mut rec = self.candidate_record(cand, outcome::FAILED);
            rec.predicted = predicted;
            rec.attempts = self.measurer.used - used_before;
            match result {
                Ok((lat, probe)) => {
                    rec.latency_s = finite(lat);
                    rec.outcome = if probe.hit {
                        outcome::CACHE_HIT
                    } else {
                        outcome::MEASURED
                    }
                    .to_string();
                    rec.program_fp = Some(probe.program_fp);
                    rec.cache_key = Some(probe.cache_key);
                }
                Err(kind) => rec.error = Some(kind.to_string()),
            }
            self.journal.emit(JournalRecord::Candidate(rec));
        }
        result.ok().map(|(lat, _)| lat)
    }

    /// Records a candidate that ends without spending budget. A verifier
    /// rejection is also counted and traced.
    pub fn drop_candidate(&self, cand: Candidate, why: Dropped) {
        let (outcome, vcode) = match why {
            Dropped::Skipped => (outcome::SKIPPED, None),
            Dropped::Quarantined => (outcome::QUARANTINED, None),
            Dropped::LowerFailed => (outcome::LOWER_FAILED, None),
            Dropped::VerifyRejected(d) => {
                self.registry.add("verify.rejected", 1.0);
                if self.telemetry.is_enabled() {
                    self.telemetry
                        .emit(Record::VerifyRejection(VerifyRejectionRecord {
                            op: self.op.clone(),
                            stage: self.stage,
                            round: self.round,
                            candidate: cand.label(),
                            code: d.code.to_string(),
                            detail: format!("{}: {}", d.group, d.detail),
                        }));
                }
                (outcome::VERIFY_REJECTED, Some(d.code))
            }
        };
        if self.journal.is_enabled() {
            let mut rec = self.candidate_record(cand, outcome);
            rec.vcode = vcode.map(str::to_string);
            self.journal.emit(JournalRecord::Candidate(rec));
        }
    }

    /// Journal record of `cand` at the current position and budget
    /// counter; callers fill in the outcome-specific fields.
    fn candidate_record(&self, cand: Candidate, outcome: &str) -> CandidateRecord {
        CandidateRecord {
            op: self.op.clone(),
            stage: match self.stage {
                Stage::Joint => "joint",
                Stage::Loop => "loop",
            }
            .to_string(),
            round: self.round,
            provenance: cand.origin.to_string(),
            point: cand.point.iter().map(|&x| x as u64).collect(),
            outcome: outcome.to_string(),
            budget_end: self.measurer.used,
            ..CandidateRecord::default()
        }
    }

    /// Folds one candidate's set-engine counters into the run registry.
    /// Queries and recoveries are pure functions of the candidate and
    /// folded on the sequential merge path, so the totals (and thus the
    /// deterministic trace and checkpoints) stay jobs-invariant. The
    /// wall-clock emptiness time is *not* added here — workers observe
    /// it into the timing registry, which is exempt from determinism.
    pub fn add_verify_stats(&self, vs: &alt_verify::VerifyStats) {
        if vs.set_queries == 0 && vs.conservative_recovered == 0 {
            return;
        }
        self.registry
            .add("verify.set_queries", vs.set_queries as f64);
        self.registry.add(
            "verify.conservative_recovered",
            vs.conservative_recovered as f64,
        );
    }

    /// Traces the cost model's ranking quality over one round's measured
    /// `(prediction, -ln latency)` pairs.
    pub fn cost_model_round(&self, measured: Vec<(f64, f64)>, train_size: u64) {
        if !self.telemetry.is_enabled() || measured.len() < 2 {
            return;
        }
        let (pred, qual): (Vec<f64>, Vec<f64>) = measured.into_iter().unzip();
        self.telemetry.emit(Record::CostModel(CostModelRecord {
            op: self.op.clone(),
            stage: self.stage,
            round: self.round,
            measured: pred.len() as u64,
            spearman: alt_telemetry::spearman(&pred, &qual),
            train_size,
        }));
    }

    /// Traces the PPO updates of the current operator's layout agent.
    pub fn ppo_updates(&self, log: Vec<PpoUpdateStats>) {
        if !self.telemetry.is_enabled() {
            return;
        }
        for (episode, s) in log.into_iter().enumerate() {
            self.telemetry.emit(Record::PpoUpdate(PpoUpdateRecord {
                op: self.op.clone(),
                episode: episode as u64 + 1,
                transitions: s.transitions as u64,
                reward_mean: s.reward_mean as f64,
                policy_loss: s.policy_loss as f64,
                value_loss: s.value_loss as f64,
                entropy: s.entropy as f64,
            }));
        }
    }

    /// Journals one assessed layout candidate of the current operator.
    pub fn layout_visit(&self, origin: &str, point: &[usize], lat: f64) {
        if self.journal.is_enabled() {
            self.journal
                .emit(JournalRecord::LayoutVisit(LayoutVisitRecord {
                    op: self.op.clone(),
                    provenance: origin.to_string(),
                    point: point.iter().map(|&x| x as u64).collect(),
                    latency_s: finite(lat),
                }));
        }
    }

    /// Records the layout committed for the current operator.
    pub fn layout_commit(&self, point: &[usize], lat: f64) {
        if self.journal.is_enabled() {
            self.journal
                .emit(JournalRecord::LayoutCommit(LayoutCommitRecord {
                    op: self.op.clone(),
                    point: point.iter().map(|&x| x as u64).collect(),
                    latency_s: finite(lat),
                }));
        }
        if let Some((_, span)) = &self.stage_scope {
            span.event(
                "layout_committed",
                &[("op", self.op.clone()), ("point", format!("{point:?}"))],
            );
        }
    }

    /// Counts a replayed stored winner whose re-measurement disagrees
    /// with its stored latency bits.
    pub fn check_replay(&self, latency: f64, stored: f64) {
        if latency.to_bits() != stored.to_bits() {
            self.registry.add("store.winner_mismatch", 1.0);
        }
    }

    /// Writes the journal header. A resumed run skips it: it appends to
    /// the journal its interrupted predecessor started, which already
    /// begins with this exact header.
    pub fn header(&self, cfg: &TuneConfig) {
        self.journal.emit(JournalRecord::Header(JournalHeader {
            version: JOURNAL_VERSION,
            seed: cfg.seed,
            profile_fp: self.measurer.sim_cache().profile_fp(),
            joint_budget: cfg.joint_budget,
            loop_budget: cfg.loop_budget,
        }));
    }

    /// Writes the journal summary of a finished (not halted) run.
    pub fn summary(&self, latency: f64, warm_start: bool) {
        let (sh, sm) = self.measurer.store_stats();
        let has_store = self.measurer.sim_cache().has_store();
        self.journal.emit(JournalRecord::Summary(JournalSummary {
            measurements: self.measurer.used,
            best_latency_s: finite(latency),
            store_hits: has_store.then_some(sh),
            store_misses: has_store.then_some(sm),
            warm_start: has_store.then_some(warm_start),
        }));
    }

    /// Flushes every sink and counter registry at the end of a run and
    /// returns its result with the budget and cache statistics.
    pub fn close(
        self,
        plan: LayoutPlan,
        sched: GraphSchedule,
        latency: f64,
        warm_start: bool,
    ) -> TuneResult {
        self.journal.flush();
        self.registry.flush_to(&self.telemetry);
        self.measurer.flush_counters();
        let (cache_hits, cache_misses) = self.measurer.cache_stats();
        let (store_hits, store_misses) = self.measurer.store_stats();
        TuneResult {
            plan,
            sched,
            latency,
            measurements: self.measurer.used,
            history: self.measurer.history,
            cache_hits,
            cache_misses,
            store_hits,
            store_misses,
            warm_start,
        }
    }

    /// The accounting half of a checkpoint: budget counter, history, RNG
    /// words, quarantine, counters and accounted memo keys. The caller
    /// fills in the search state.
    pub fn checkpoint(&self) -> TunerCheckpoint {
        let mut quarantine: Vec<String> = self.quarantine.iter().cloned().collect();
        quarantine.sort();
        TunerCheckpoint {
            used: self.measurer.used,
            history: self.measurer.history.clone(),
            best_by_op: self.measurer.best_snapshot(),
            rng_state: self.rng.state().to_vec(),
            quarantine,
            fail_counts: self.fail_counts.clone(),
            counters: self.registry.snapshot(),
            accounted_keys: self.measurer.sim_cache().accounted_keys(),
            ..TunerCheckpoint::default()
        }
    }

    /// Restores the accounting half of a validated checkpoint.
    pub fn restore(&mut self, ck: &TunerCheckpoint) {
        let mut state = [0u64; 4];
        state.copy_from_slice(&ck.rng_state);
        self.rng.restore(state);
        self.measurer.used = ck.used;
        self.measurer.history = ck.history.clone();
        self.measurer.restore_best(&ck.best_by_op);
        self.quarantine = ck.quarantine.iter().cloned().collect();
        self.fail_counts = ck.fail_counts.clone();
        for (name, value) in &ck.counters {
            self.registry.add(name, *value);
        }
        // The memo table is not persisted (simulation is pure), but the
        // interrupted leg's accounted keys are: their re-simulations
        // must read as the cache hits the uninterrupted run recorded.
        self.measurer
            .sim_cache()
            .restore_accounted(&ck.accounted_keys);
    }
}
