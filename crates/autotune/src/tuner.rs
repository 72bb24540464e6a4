//! The ALT joint tuner (paper §5).
//!
//! Tuning runs in two stages:
//!
//! 1. **Joint stage** — for each complex operator (topological order), a
//!    layout PPO actor proposes template split factors; each proposed
//!    layout is assessed by several rounds of loop tuning (the
//!    cross-exploration architecture of Fig. 8) and the best loop latency
//!    is fed back as the layout's reward. The winning layouts are
//!    committed to the layout plan and propagated (§4.2).
//! 2. **Loop-only stage** — with layouts frozen (so loop spaces stop
//!    being reconstructed), the remaining budget keeps refining loop
//!    schedules round-robin across operators.
//!
//! Candidate points are generated in batches, ranked by the GBT cost
//! model, and only the predicted top-k are measured — one measurement
//! consumes one unit of the search budget, exactly the paper's
//! accounting.
//!
//! This module holds only search policy: which points to generate, which
//! to measure, what to commit. Spending budget and recording candidates
//! (RNG, faults, retries, quarantine, journal, trace) is the accounting
//! core's job (`accounting.rs`).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use alt_journal::provenance;
use alt_layout::{presets, Layout, LayoutPlan, PropagationMode};
use alt_loopir::{GraphSchedule, LowerCtx, OpSchedule};
use alt_sim::MachineProfile;
use alt_telemetry::{Stage, Telemetry, Timing};
use alt_tensor::{Graph, OpId, OpTag, Shape};

use crate::accounting::{Accounting, Candidate, Dropped};
use crate::checkpoint::{
    graph_signature, op_signature, BestPointSnap, CommitSnap, LoopStateSnap, SchedSnap,
    TunerCheckpoint, CHECKPOINT_VERSION,
};
use crate::fault::FaultConfig;
use crate::features::extract_features;
use crate::gbt::{GbtModel, GbtParams};
use crate::parallel::ordered_map;
use crate::ppo::{pad_obs, CriticState, PpoAgent, PpoWeights, SharedCritic};
use crate::space::{
    apply_layout_decision, build_layout_template_ex, build_loop_space_ex, decode_layout_point,
    decode_loop_point, LayoutTemplate, Point, Space,
};

/// How the joint stage picks layout candidates (Fig. 11's comparison).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayoutSearch {
    /// PPO actor (optionally pretrained).
    Ppo,
    /// Uniform random sampling.
    Random,
}

/// A fixed layout family applied when layout tuning is disabled
/// (baselines and the ALT-OL ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FixedLayout {
    /// Leave every tensor in its logical (NCHW-style) layout.
    Identity,
    /// Channels-last (`NHWO`/`NDHWO`/`NWO`), the ALT-OL setting.
    ChannelsLast,
    /// NeoCPU-style `N C/ct ... ct` with a fixed `ct` (AutoTVM/Ansor
    /// setting after integrating NeoCPU).
    ChannelTiled(i64),
}

/// Tuner configuration.
#[derive(Clone, Debug)]
pub struct TuneConfig {
    /// Budget (measurements) for the joint stage.
    pub joint_budget: u64,
    /// Budget for the loop-only stage.
    pub loop_budget: u64,
    /// Candidate batch size per round.
    pub batch: usize,
    /// Measured candidates per round (top-k by cost model).
    pub topk: usize,
    /// Layout template tiling levels (1 or 2, Fig. 13).
    pub levels: u8,
    /// Loop-space spatial tiling levels (1 or 2).
    pub loop_levels: u8,
    /// Append the advanced `xform` knob (XOR swizzle, block-diagonal
    /// remap, Morton interleave) to every layout template. Off by
    /// default: the extra knob multiplies the pruned template spaces and
    /// changes seeded-run trajectories, so it is strictly opt-in
    /// (`altc tune --advanced-layouts`).
    pub advanced_layouts: bool,
    /// Layout propagation mode (Full / WithoutFusionAlign / None).
    pub mode: PropagationMode,
    /// Treat graph inputs as free to re-layout (single-operator
    /// benchmarks).
    pub free_input_layouts: bool,
    /// RNG seed.
    pub seed: u64,
    /// Pretrained PPO weights (Fig. 11's PPO-Pret).
    pub pretrained: Option<PpoWeights>,
    /// Layout candidate generator.
    pub layout_search: LayoutSearch,
    /// Disable the joint stage entirely and use this fixed layout
    /// (ALT-OL and baseline tuners).
    pub fixed_layout: Option<FixedLayout>,
    /// Visit well-known template points (channels-last, NeoCPU tiling,
    /// NCHW) before exploring. On by default; the search-method study
    /// (Fig. 11) disables it to compare raw explorers.
    pub seed_candidates: bool,
    /// Trace sink for structured tuning-run telemetry. Disabled
    /// (`Telemetry::noop()`) by default; with a sink attached, every
    /// budget unit emits one measurement record.
    pub telemetry: Telemetry,
    /// Fault injection for the measurement path (`None` = perfectly
    /// reliable). Faults draw from the tuner's own seeded stream, so a
    /// run is reproduced by its seed and fault configuration.
    pub faults: Option<FaultConfig>,
    /// Write checkpoints to this JSON file at cut points.
    pub checkpoint_path: Option<String>,
    /// Checkpoint every N consumed budget units (0 disables periodic
    /// checkpointing; a final checkpoint is still written on halt).
    pub checkpoint_every: u64,
    /// Resume from a previously written checkpoint: the run continues
    /// from the exact budget unit the checkpoint was taken at.
    pub resume: Option<TunerCheckpoint>,
    /// Stop at the first cut point at/after this many consumed units,
    /// writing a checkpoint first (simulates a killed run; tests).
    pub halt_after: Option<u64>,
    /// Worker threads for candidate lowering/simulation (`--jobs` on
    /// `altc`). Workers only do pure work — lowering, feature
    /// extraction, and prewarming the measurement cache — while all RNG
    /// draws, fault injection, accounting and telemetry stay on the
    /// tuning thread, so any `jobs` value produces a bit-identical run;
    /// `1` (the default) keeps everything inline. Clamped to the
    /// machine's available parallelism at run time (the clamp cannot
    /// change results, only wall-clock).
    pub jobs: usize,
    /// Run the static verifier (`alt-verify`) on every lowered candidate
    /// before it can be scored or measured. Statically-rejected
    /// candidates consume *no* budget — they are dropped exactly like
    /// candidates that fail to lower — and are reported through the
    /// `verify.rejected` counter plus one `verify_rejection` trace
    /// record each. On by default.
    pub verify: bool,
    /// Search-journal sink: one record per generated candidate with its
    /// terminal outcome, plus layout visits, layout commits, a run
    /// header and a final summary. Disabled (`Journal::noop()`) by
    /// default. Emission happens only on the sequential accounting path
    /// and never draws from the RNG or consumes budget, so attaching a
    /// journal cannot change a run.
    pub journal: alt_journal::Journal,
    /// Durable cross-run result store (`altc --store`). When attached,
    /// measurements are served from / published into the store through
    /// the memo cache, and a completed run's winner is stored under its
    /// task fingerprint; a later identical task short-circuits the whole
    /// search by replaying the stored winner. Attaching a store never
    /// changes *what* a run computes — winners, transcripts and budgets
    /// stay bit-identical to store-less runs — only how much simulation
    /// work it takes to get there.
    pub store: Option<std::sync::Arc<alt_store::Store>>,
    /// Wall-clock self-profile (`altc --timing`). Disabled
    /// (`Timing::disabled()`) by default. When enabled, the tuner opens
    /// phases (`joint_stage`, `loop_stage`, `candidate_gen`, `lower`,
    /// `gbt_score`, `prewarm`, `measure`, `simulate`, `retry`,
    /// `checkpoint`) on the accounting thread and attaches the timing
    /// registry to the memo cache and store for I/O latency histograms.
    /// Timing is observation-only: it has its own sink and never writes
    /// to the deterministic trace/journal streams, so enabling it
    /// cannot change a run.
    pub timing: Timing,
    /// Print a throttled progress heartbeat to stderr (`altc
    /// --progress`): budget fraction, candidates/s, cache and store hit
    /// rates, ETA. Reads existing statistics only; cannot change a run.
    pub progress: bool,
}

impl Default for TuneConfig {
    fn default() -> Self {
        Self {
            joint_budget: 300,
            loop_budget: 700,
            batch: 128,
            topk: 8,
            levels: 1,
            loop_levels: 1,
            advanced_layouts: false,
            mode: PropagationMode::Full,
            free_input_layouts: false,
            seed: 0,
            pretrained: None,
            layout_search: LayoutSearch::Ppo,
            fixed_layout: None,
            seed_candidates: true,
            telemetry: Telemetry::noop(),
            faults: None,
            checkpoint_path: None,
            checkpoint_every: 0,
            resume: None,
            halt_after: None,
            jobs: 1,
            verify: true,
            journal: alt_journal::Journal::noop(),
            store: None,
            timing: Timing::disabled(),
            progress: false,
        }
    }
}

/// Tuning outcome.
#[derive(Clone, Debug)]
pub struct TuneResult {
    /// Final layout plan.
    pub plan: LayoutPlan,
    /// Final schedules.
    pub sched: GraphSchedule,
    /// End-to-end latency of the tuned graph (seconds).
    pub latency: f64,
    /// (budget used, measured latency) history.
    pub history: Vec<(u64, f64)>,
    /// Total measurements consumed.
    pub measurements: u64,
    /// Measurement-cache hits (budgeted measurements served from the
    /// memoized simulation table).
    pub cache_hits: u64,
    /// Measurement-cache misses (budgeted measurements that ran the
    /// full performance model).
    pub cache_misses: u64,
    /// Accounted measurements served from the durable store (0 without a
    /// store).
    pub store_hits: u64,
    /// Accounted measurements the durable store lacked; each was
    /// simulated and published back (0 without a store).
    pub store_misses: u64,
    /// Whether the whole search was short-circuited by a stored winner
    /// (in which case `measurements == 0` and `history` is empty).
    pub warm_start: bool,
}

impl TuneResult {
    /// Serializes a machine-readable tuning log: per-tensor layouts, the
    /// best-so-far curve, and budget accounting. Useful for dashboards
    /// and for comparing tuning runs (the paper reports four months of
    /// production deployment; logs are how such deployments are
    /// monitored).
    pub fn to_log(&self, graph: &Graph) -> serde_json::Value {
        let layouts: Vec<serde_json::Value> = graph
            .tensors()
            .iter()
            .enumerate()
            .filter_map(|(k, info)| {
                let id = alt_tensor::TensorId(k);
                let l = self.plan.layout_of(graph, id);
                if l.is_identity() {
                    None
                } else {
                    Some(serde_json::json!({
                        "tensor": info.name,
                        "layout": l.to_string(),
                        "physical_shape": l.physical_shape().dims(),
                    }))
                }
            })
            .collect();
        let mut best = f64::INFINITY;
        let curve: Vec<(u64, f64)> = self
            .history
            .iter()
            .map(|&(b, l)| {
                best = best.min(l);
                (b, best)
            })
            .collect();
        serde_json::json!({
            "latency_s": self.latency,
            "measurements": self.measurements,
            "layouts": layouts,
            "conversions": self.plan.conversions().len(),
            "best_so_far": curve,
        })
    }
}

/// Rounds of loop tuning used to assess one explored layout candidate
/// (finalists are re-assessed with three).
pub const ROUNDS_PER_LAYOUT: usize = 1;

/// Per-operator loop-tuning state that survives layout changes (the cost
/// model transfers across reconstructed spaces; the best point does not):
/// the checkpointed training set and the model fit on it.
struct LoopTuneState {
    data: LoopStateSnap,
    model: GbtModel,
}

impl LoopTuneState {
    fn new(op: OpId) -> Self {
        Self::restore(LoopStateSnap {
            op: op.0,
            ..LoopStateSnap::default()
        })
    }

    /// Rebuilds the state from its training set. The model is not
    /// serialized: GBT fitting is deterministic, so refitting on the same
    /// training prefix reproduces it.
    fn restore(data: LoopStateSnap) -> Self {
        let n = data.trained_on as usize;
        let mut state = Self {
            data,
            model: GbtModel::default(),
        };
        state.fit(n);
        state
    }

    fn record(&mut self, feats: Vec<f32>, latency: f64) {
        self.data.dataset_x.push(feats);
        self.data.dataset_y.push(-(latency.max(1e-12).ln() as f32));
    }

    fn retrain(&mut self) {
        self.fit(self.data.dataset_x.len());
    }

    /// Fits the model on the first `n` samples, once there are enough.
    fn fit(&mut self, n: usize) {
        if n >= 16 {
            let d = &self.data;
            self.model = GbtModel::fit(&d.dataset_x[..n], &d.dataset_y[..n], GbtParams::default());
            self.data.trained_on = n as u64;
        }
    }
}

/// Tuning tasks: operators with identical signatures (kind + shapes)
/// share one task, exactly like Ansor's task deduplication — ResNet's
/// repeated blocks and BERT's identical layers are tuned once and the
/// result is replicated.
struct Tasks {
    /// One representative per task, in topological order.
    reps: Vec<OpId>,
    /// The other members of each representative's task.
    clones_of: HashMap<OpId, Vec<OpId>>,
}

impl Tasks {
    fn extract(graph: &Graph) -> Self {
        let mut reps = Vec::new();
        let mut clones_of: HashMap<OpId, Vec<OpId>> = HashMap::new();
        let mut by_sig: HashMap<String, OpId> = HashMap::new();
        for op in graph.complex_ops() {
            let sig = op_signature(graph, op);
            match by_sig.get(&sig) {
                Some(&rep) => clones_of.entry(rep).or_default().push(op),
                None => {
                    by_sig.insert(sig, op);
                    reps.push(op);
                    clones_of.entry(op).or_default();
                }
            }
        }
        Self { reps, clones_of }
    }

    /// `op` followed by the other members of its task.
    fn members(&self, op: OpId) -> impl Iterator<Item = OpId> + '_ {
        std::iter::once(op).chain(self.clones_of.get(&op).into_iter().flatten().copied())
    }
}

/// Where the stages start: the beginning, or a checkpoint's cut point.
#[derive(Default)]
struct Cursor {
    /// Joint stage: index of the next representative to tune.
    next_rep: usize,
    /// Loop stage: next round-robin iteration.
    loop_iter: u64,
    /// Budget counter value at joint-stage entry.
    joint_start: u64,
    /// The cut is inside the loop stage: the joint stage is over.
    skip_joint: bool,
    /// Shared critic training state of a run cut mid-joint-stage.
    critic: Option<CriticState>,
}

/// How a run ends.
#[derive(Clone, Copy, PartialEq, Eq)]
enum RunEnd {
    /// The search completed: summary written, winner published.
    Searched,
    /// A stored winner was replayed: summary written, nothing published.
    WarmStart,
    /// Stopped at a checkpoint cut: the resumed successor writes the
    /// summary and publishes, so the halted and resumed journals
    /// concatenate into exactly the journal an uninterrupted run writes.
    Halted,
}

/// One operator's loop tuning under a fixed layout plan: its loop space,
/// its measurement neighbourhood, the best (latency, point) so far — the
/// point stays empty until a candidate beats the incumbent — and the
/// plan-level lowering context and verification every candidate shares.
struct OpTuning<'p> {
    op: OpId,
    plan: &'p LayoutPlan,
    space: Space,
    roots: HashSet<OpId>,
    best: (f64, Point),
    /// The schedule of `best.1`, once a candidate beat the incumbent;
    /// written back to the graph schedule when the op's rounds end.
    best_sched: Option<OpSchedule>,
    /// Whether the op's cost model was trained when the round began.
    trained: bool,
    /// Lowers a candidate's groups as a one-op override of the schedule
    /// the rounds started from.
    lower: LowerCtx<'p>,
    /// Plan legality and buffer facts (`None` when verification is off).
    check: Option<alt_verify::PlanCheck>,
}

/// A round's generated candidates with their provenance.
type Batch = Vec<(Point, &'static str)>;

/// One lowered candidate: its schedule, features and verifier counters,
/// or why it cannot be measured — `None` when it failed to lower, the
/// verifier's first (smallest-code) finding when statically rejected.
type Lowered = Result<
    (OpSchedule, Vec<f32>, alt_verify::VerifyStats),
    (Option<alt_verify::Diagnostic>, alt_verify::VerifyStats),
>;

/// A lowered, verified candidate ranked by the cost model.
struct Scored {
    score: f64,
    point: Point,
    origin: &'static str,
    sched: OpSchedule,
    feats: Vec<f32>,
}

impl Scored {
    fn candidate(&self) -> Candidate<'_> {
        Candidate {
            origin: self.origin,
            point: &self.point,
        }
    }
}

/// The tuner: two search policies (joint and loop-only) spending one
/// budget through the accounting core.
pub struct Tuner<'g> {
    graph: &'g Graph,
    cfg: TuneConfig,
    acct: Accounting<'g>,
    loop_state: HashMap<OpId, LoopTuneState>,
    /// Best loop point per op for the *current* layout of that op.
    best_points: HashMap<OpId, BestPointSnap>,
    /// Committed joint-stage layout decisions, for checkpoint replay.
    committed: Vec<CommitSnap>,
    /// Budget counter value at the last checkpoint write.
    last_checkpoint: u64,
}

impl<'g> Tuner<'g> {
    /// Creates a tuner.
    pub fn new(graph: &'g Graph, profile: MachineProfile, cfg: TuneConfig) -> Self {
        Self {
            graph,
            acct: Accounting::new(graph, profile, &cfg),
            cfg,
            loop_state: HashMap::new(),
            best_points: HashMap::new(),
            committed: Vec::new(),
            last_checkpoint: 0,
        }
    }

    /// Runs the full two-stage tuning and returns the result.
    pub fn tune(mut self) -> TuneResult {
        let mut plan = LayoutPlan::new(self.cfg.mode);
        let mut sched = base_schedule(self.graph);
        if let Some(fixed) = self.cfg.fixed_layout {
            apply_fixed_layout(self.graph, &mut plan, fixed, self.cfg.free_input_layouts);
        }
        let tasks = Tasks::extract(self.graph);
        let task_fp = crate::winner::task_fingerprint(
            self.graph,
            self.acct.measurer().sim_cache().profile_fp(),
            &self.cfg,
        );
        let resume = self.cfg.resume.take();
        // With a store attached, a completed identical task (same graph,
        // machine and result-relevant configuration) short-circuits the
        // whole search: the stored winner's decisions are replayed
        // exactly like a checkpoint restore, consuming zero budget.
        // Resumed and halting runs never warm-start: they continue or
        // cut their own transcript.
        let winner = match (&self.cfg.store, task_fp) {
            (Some(store), Some(fp)) if resume.is_none() && self.cfg.halt_after.is_none() => {
                store.get(alt_store::kind::WINNER, fp).and_then(|payload| {
                    crate::winner::decode_winner(&payload, fp, &graph_signature(self.graph))
                })
            }
            _ => None,
        };
        if resume.is_none() {
            self.acct.header(&self.cfg);
        }
        if let Some(w) = winner {
            self.replay_commits(&mut plan, &w.committed, &tasks);
            install_sched(&mut sched, &w.sched);
            // The replayed configuration re-measures (free) and cross-
            // checks the stored latency: a mismatch is counted, not
            // fatal — the replayed decisions are this build's truth.
            let latency = self.acct.measurer().measure_graph_free(&plan, &sched);
            self.acct.check_replay(latency, w.latency_s);
            return self.finish(plan, sched, latency, task_fp, RunEnd::WarmStart);
        }
        let mut cursor = Cursor::default();
        if let Some(ck) = resume {
            ck.validate(self.graph, self.cfg.seed)
                .and_then(|()| ck.validate_budgets(self.cfg.joint_budget, self.cfg.loop_budget))
                .expect("checkpoint does not match this run");
            cursor = self.restore_from(ck, &mut plan, &mut sched, &tasks);
        }
        let halted = self.joint_stage(&tasks, &mut plan, &mut sched, &mut cursor)
            || self.loop_stage(&tasks, &plan, &mut sched, &cursor);
        // Graceful degradation: whatever faults or halts happened above,
        // the run always completes with the best healthy plan/schedule
        // found so far (worst case: the base schedule).
        let latency = self.acct.measurer().measure_graph_free(&plan, &sched);
        let end = if halted {
            RunEnd::Halted
        } else {
            RunEnd::Searched
        };
        self.finish(plan, sched, latency, task_fp, end)
    }

    /// The finish step every run shares: journal summary, winner
    /// publication, flushes and the result.
    fn finish(
        self,
        plan: LayoutPlan,
        sched: GraphSchedule,
        latency: f64,
        task_fp: Option<u64>,
        end: RunEnd,
    ) -> TuneResult {
        if end != RunEnd::Halted {
            self.acct.summary(latency, end == RunEnd::WarmStart);
        }
        // A completed search publishes its winner for future identical
        // tasks. A failed publish degrades the store, never the run.
        if let (RunEnd::Searched, Some(store), Some(fp)) = (end, &self.cfg.store, task_fp) {
            let record = crate::winner::WinnerRecord {
                version: crate::winner::WINNER_VERSION,
                graph_sig: graph_signature(self.graph),
                task_fp: fp,
                seed: self.cfg.seed,
                measurements: self.acct.used(),
                committed: self.committed.clone(),
                sched: snapshot_sched(self.graph, &sched),
                latency_s: latency,
            };
            if let Ok(payload) = crate::winner::encode_winner(&record) {
                let _ = store.put(alt_store::kind::WINNER, fp, &payload);
            }
        }
        self.acct
            .close(plan, sched, latency, end == RunEnd::WarmStart)
    }

    /// Replays committed layout decisions onto `plan` in commit order,
    /// each onto its representative and the representative's task
    /// clones. Template construction and decoding are deterministic, so
    /// the rebuilt plan is exactly the one the decisions were committed
    /// to: the joint stage, checkpoint restores and stored winners all
    /// apply decisions through here.
    fn replay_commits(&self, plan: &mut LayoutPlan, commits: &[CommitSnap], tasks: &Tasks) {
        for c in commits {
            for t in tasks.members(OpId(c.op)) {
                let Some(tmpl) = build_layout_template_ex(
                    self.graph,
                    t,
                    self.cfg.levels,
                    self.cfg.advanced_layouts,
                ) else {
                    continue;
                };
                if let Ok(dec) = decode_layout_point(self.graph, &tmpl, &c.point) {
                    apply_layout_decision(self.graph, plan, t, &dec, self.cfg.free_input_layouts);
                }
            }
        }
    }

    /// Restores a validated checkpoint — accounting state, replayed
    /// layout decisions, schedules and search state — and returns the
    /// cut point the stages continue from.
    fn restore_from(
        &mut self,
        ck: TunerCheckpoint,
        plan: &mut LayoutPlan,
        sched: &mut GraphSchedule,
        tasks: &Tasks,
    ) -> Cursor {
        self.acct.restore(&ck);
        self.replay_commits(plan, &ck.committed, tasks);
        install_sched(sched, &ck.sched);
        for ls in ck.loop_state {
            self.loop_state
                .insert(OpId(ls.op), LoopTuneState::restore(ls));
        }
        for bp in ck.best_points {
            self.best_points.insert(OpId(bp.op), bp);
        }
        self.committed = ck.committed;
        self.last_checkpoint = ck.used;
        let in_joint = ck.phase == "joint";
        Cursor {
            next_rep: if in_joint { ck.next_rep as usize } else { 0 },
            loop_iter: if in_joint { 0 } else { ck.loop_iter },
            joint_start: ck.joint_start,
            skip_joint: !in_joint,
            critic: ck.critic,
        }
    }

    /// Checkpoint cut point: writes a checkpoint if one is due and
    /// returns `true` when the run should stop here (`halt_after`).
    fn checkpoint_cut(
        &mut self,
        phase: &str,
        next_rep: u64,
        loop_iter: u64,
        joint_start: u64,
        sched: &GraphSchedule,
        critic: Option<&Rc<RefCell<SharedCritic>>>,
    ) -> bool {
        let used = self.acct.used();
        let halt = self.cfg.halt_after.is_some_and(|h| used >= h);
        let periodic = self.cfg.checkpoint_every > 0
            && used.saturating_sub(self.last_checkpoint) >= self.cfg.checkpoint_every;
        if !halt && !periodic {
            return false;
        }
        if let Some(path) = &self.cfg.checkpoint_path {
            let _timing = self.cfg.timing.phase("checkpoint");
            let mut loop_state: Vec<LoopStateSnap> =
                self.loop_state.values().map(|st| st.data.clone()).collect();
            loop_state.sort_by_key(|s| s.op);
            let mut best_points: Vec<BestPointSnap> = self.best_points.values().cloned().collect();
            best_points.sort_by_key(|b| b.op);
            let ck = TunerCheckpoint {
                version: CHECKPOINT_VERSION,
                seed: self.cfg.seed,
                graph_sig: graph_signature(self.graph),
                joint_budget: self.cfg.joint_budget,
                loop_budget: self.cfg.loop_budget,
                phase: phase.to_string(),
                next_rep,
                loop_iter,
                joint_start,
                committed: self.committed.clone(),
                sched: snapshot_sched(self.graph, sched),
                loop_state,
                best_points,
                critic: critic.map(|c| c.borrow().state()),
                ..self.acct.checkpoint()
            };
            if let Err(e) = ck.save(path) {
                // A failed checkpoint write must never kill the run it
                // exists to protect; the run continues uncheckpointed.
                eprintln!("warning: {e}");
            }
            self.last_checkpoint = used;
        }
        halt
    }

    /// Joint stage (Fig. 8): each task representative in topological
    /// order gets a flops-proportional share of the joint budget to
    /// search layouts, and its winning layout is committed. Accounting
    /// is strict: the stage never spends more than `joint_budget` in
    /// total (shares are capped by what is left), and whatever it
    /// under-spends goes to the loop-only stage. Returns `true` when the
    /// run halted at a checkpoint cut.
    fn joint_stage(
        &mut self,
        tasks: &Tasks,
        plan: &mut LayoutPlan,
        sched: &mut GraphSchedule,
        cursor: &mut Cursor,
    ) -> bool {
        if self.cfg.fixed_layout.is_some()
            || self.cfg.joint_budget == 0
            || tasks.reps.is_empty()
            || cursor.skip_joint
        {
            return false;
        }
        self.acct.begin_stage(Stage::Joint);
        if cursor.next_rep == 0 {
            cursor.joint_start = self.acct.used();
        }
        let critic = match (&cursor.critic, &self.cfg.pretrained) {
            (Some(cs), _) => SharedCritic::from_state(cs),
            (None, Some(w)) => SharedCritic::from_weights(w),
            (None, None) => SharedCritic::new(self.cfg.seed ^ 0x9e37),
        };
        let shares = budget_shares(self.graph, &tasks.reps);
        let mut halted = false;
        for (i, &op) in tasks.reps.iter().enumerate().skip(cursor.next_rep) {
            if self.checkpoint_cut(
                "joint",
                i as u64,
                0,
                cursor.joint_start,
                sched,
                Some(&critic),
            ) {
                halted = true;
                break;
            }
            let joint_left = self
                .cfg
                .joint_budget
                .saturating_sub(self.acct.used() - cursor.joint_start);
            if joint_left == 0 {
                break;
            }
            let op_budget =
                ((self.cfg.joint_budget as f64 * shares[i]).ceil() as u64).min(joint_left);
            let seed = self.cfg.seed + i as u64;
            let agent = match &self.cfg.pretrained {
                Some(w) => PpoAgent::from_weights(w, critic.clone(), seed),
                None => PpoAgent::new(critic.clone(), seed),
            };
            if let Some((point, lsched, lat)) =
                self.joint_tune_op(op, op_budget, agent, plan, sched)
            {
                // Commit the winning layout and schedule for the whole
                // task.
                let commit = CommitSnap { op: op.0, point };
                self.replay_commits(plan, std::slice::from_ref(&commit), tasks);
                for t in tasks.members(op) {
                    sched.set(t, lsched.clone());
                }
                self.best_points.remove(&op);
                self.acct.layout_commit(&commit.point, lat);
                self.committed.push(commit);
            }
        }
        self.acct.end_stage();
        halted
    }

    /// Loop-only stage: with layouts frozen (so loop spaces stop being
    /// reconstructed), tops the total up to exactly `joint_budget +
    /// loop_budget` (or just `loop_budget` when the joint stage was
    /// disabled) by refining schedules round-robin across tasks. Returns
    /// `true` when the run halted at a checkpoint cut.
    fn loop_stage(
        &mut self,
        tasks: &Tasks,
        plan: &LayoutPlan,
        sched: &mut GraphSchedule,
        cursor: &Cursor,
    ) -> bool {
        let joint_ran = self.cfg.fixed_layout.is_none() && self.cfg.joint_budget > 0;
        let target = if joint_ran { self.cfg.joint_budget } else { 0 } + self.cfg.loop_budget;
        if tasks.reps.is_empty() || self.acct.used() >= target {
            return false;
        }
        self.acct.begin_stage(Stage::Loop);
        let mut halted = false;
        let mut i = cursor.loop_iter;
        while self.acct.used() < target {
            if self.checkpoint_cut("loop", 0, i, cursor.joint_start, sched, None) {
                halted = true;
                break;
            }
            let op = tasks.reps[i as usize % tasks.reps.len()];
            let remaining = target - self.acct.used();
            self.loop_tune_rounds(op, plan, sched, 1, remaining);
            for &clone in &tasks.clones_of[&op] {
                sched.set(clone, sched.get(op));
            }
            i += 1;
            if i > 100_000 {
                break;
            }
        }
        self.acct.end_stage();
        halted
    }

    /// Joint tuning of one task representative: the cross-exploration
    /// loop. Returns the winning (layout point, schedule, latency), if
    /// any, for the caller to commit.
    fn joint_tune_op(
        &mut self,
        op: OpId,
        budget: u64,
        agent: PpoAgent,
        plan: &LayoutPlan,
        sched: &mut GraphSchedule,
    ) -> Option<(Point, OpSchedule, f64)> {
        let tmpl =
            build_layout_template_ex(self.graph, op, self.cfg.levels, self.cfg.advanced_layouts)?;
        // Not enough budget for even one layout episode: leave the op on
        // its default layout rather than burning budget on half-episodes.
        if budget < self.cfg.topk as u64 {
            return None;
        }
        self.acct.enter_op(op_label(self.graph, op));
        let start = self.acct.used();
        // Reserve roughly a third of the op budget for re-assessing the
        // finalists; exploration gets the rest. Both phases are hard-capped
        // so the op never spends more than `budget` in total.
        let (mut best, finalists) =
            self.explore_layouts(op, &tmpl, budget - budget / 3, agent, plan, sched);
        // Re-assess the finalists more deeply before committing: shallow
        // per-layout assessments are noisy, and a mis-commit cannot be
        // recovered in the loop-only stage. The re-assessment spends what
        // is left of the op budget, never more.
        let finalist_cap = budget.saturating_sub(self.acct.used() - start);
        let finalist_start = self.acct.used();
        for point in finalists {
            let spent = self.acct.used() - finalist_start;
            if spent >= finalist_cap {
                break;
            }
            let rem = (finalist_cap - spent).max(1);
            let Some(lat) = self.assess_layout(op, &tmpl, &point, plan, sched, 3, rem) else {
                continue;
            };
            self.acct.layout_visit(provenance::FINALIST, &point, lat);
            if lat.is_finite() && best.as_ref().is_none_or(|b| lat < b.0) {
                best = Some((lat, point, sched.get(op)));
            }
        }
        best.map(|(lat, point, lsched)| (point, lsched, lat))
    }

    /// The joint stage's exploration: well-known seed layouts first,
    /// then PPO (or random) proposals, each assessed by
    /// `ROUNDS_PER_LAYOUT` rounds of loop tuning and rewarded by its best
    /// loop latency. Returns the best assessment and up to three distinct
    /// finalists, fastest first.
    fn explore_layouts(
        &mut self,
        op: OpId,
        tmpl: &LayoutTemplate,
        explore_budget: u64,
        mut agent: PpoAgent,
        plan: &LayoutPlan,
        sched: &mut GraphSchedule,
    ) -> (Option<(f64, Point, OpSchedule)>, Vec<Point>) {
        let n_knobs = tmpl.space.knobs.len();
        let start = self.acct.used();
        let mut cur_point: Point = tmpl
            .space
            .knobs
            .iter()
            .map(|k| k.options.len() / 2)
            .collect();
        let mut best: Option<(f64, Point, OpSchedule)> = None;
        let mut finalists: Vec<(f64, Point)> = Vec::new();
        let mut ref_lat: Option<f64> = None;
        // The template space contains well-known layouts (channels-last is
        // the all-degenerate point, NeoCPU channel tiling is the
        // unit-spatial point); visit them first so the search starts from
        // the strongest fixed-layout baselines.
        let mut seeds = if self.cfg.seed_candidates {
            seed_points(self.graph, tmpl)
        } else {
            Vec::new()
        };
        let mut iters = 0u64;
        while self.acct.used() - start < explore_budget {
            iters += 1;
            if iters > 100_000 {
                break;
            }
            let obs = pad_obs(tmpl.space.encode(&cur_point));
            let (point, acts, logp, origin) = match (seeds.pop(), self.cfg.layout_search) {
                (Some(p), _) => (p, vec![], f32::NAN, provenance::SEED),
                (None, LayoutSearch::Ppo) => {
                    let (acts, logp) = agent.act(&obs);
                    let p = tmpl.space.decode_actions(&acts[..n_knobs]);
                    (p, acts, logp, provenance::PPO)
                }
                (None, LayoutSearch::Random) => {
                    let p = tmpl.space.random_point(self.acct.rng());
                    (p, vec![], f32::NAN, provenance::RANDOM)
                }
            };
            let remaining = explore_budget
                .saturating_sub(self.acct.used() - start)
                .max(1);
            let Some(lat) =
                self.assess_layout(op, tmpl, &point, plan, sched, ROUNDS_PER_LAYOUT, remaining)
            else {
                continue;
            };
            self.acct.layout_visit(origin, &point, lat);
            // A fully-faulted assessment yields no latency; skip reward
            // bookkeeping (inf/inf would poison the PPO baseline) and
            // move on from this layout.
            if !lat.is_finite() {
                cur_point = point;
                continue;
            }
            let r0 = *ref_lat.get_or_insert(lat);
            let reward = 2.0 - (lat / r0) as f32;
            if self.cfg.layout_search == LayoutSearch::Ppo && logp.is_finite() {
                agent.store(obs, acts, logp, reward);
            }
            if best.as_ref().is_none_or(|b| lat < b.0) {
                best = Some((lat, point.clone(), sched.get(op)));
            }
            finalists.push((lat, point.clone()));
            cur_point = point;
        }
        agent.update();
        self.acct.ppo_updates(agent.take_update_log());
        finalists.sort_by(|a, b| a.0.total_cmp(&b.0));
        finalists.dedup_by(|a, b| a.1 == b.1);
        finalists.truncate(3);
        (best, finalists.into_iter().map(|(_, p)| p).collect())
    }

    /// Assesses layout `point` of `op`'s template on a trial copy of the
    /// plan by `rounds` rounds of loop tuning within `cap` units; `None`
    /// when the point does not decode.
    #[allow(clippy::too_many_arguments)]
    fn assess_layout(
        &mut self,
        op: OpId,
        tmpl: &LayoutTemplate,
        point: &Point,
        plan: &LayoutPlan,
        sched: &mut GraphSchedule,
        rounds: usize,
        cap: u64,
    ) -> Option<f64> {
        let decision = decode_layout_point(self.graph, tmpl, point).ok()?;
        let mut trial = plan.clone();
        apply_layout_decision(
            self.graph,
            &mut trial,
            op,
            &decision,
            self.cfg.free_input_layouts,
        );
        // Layout change invalidates the best loop point (the space is
        // reconstructed), but not the cost model.
        self.best_points.remove(&op);
        Some(self.loop_tune_rounds(op, &trial, sched, rounds, cap))
    }

    /// The measurement neighbourhood of an operator: the op itself, the
    /// simple producers of its inputs (which absorb layout conversions),
    /// and the chain of simple consumers its output layout propagates to.
    /// Measuring the whole neighbourhood charges a layout's externalities
    /// — a layout that makes the downstream pool or ReLU slow is charged
    /// for it during assessment, not discovered at the end.
    fn neighborhood(&self, op: OpId) -> HashSet<OpId> {
        let mut roots = HashSet::new();
        roots.insert(op);
        let node = self.graph.node(op);
        for &t in &node.inputs {
            if let Some(p) = self.graph.tensor(t).producer {
                if !self.graph.node(p).tag.is_complex() {
                    roots.insert(p);
                }
            }
        }
        // Walk simple consumers (the propagation frontier).
        let mut queue = vec![node.output];
        let mut guard = 0;
        while let Some(t) = queue.pop() {
            guard += 1;
            if guard > 32 {
                break;
            }
            for &c in &self.graph.tensor(t).consumers {
                let cn = self.graph.node(c);
                if cn.tag.is_complex() || roots.contains(&c) {
                    continue;
                }
                roots.insert(c);
                if cn.tag == OpTag::Elementwise {
                    queue.push(cn.output);
                }
            }
        }
        roots
    }

    /// Runs up to `rounds` rounds of loop tuning for `op` under `plan`,
    /// spending at most `budget_cap` units; returns the best latency seen
    /// and leaves the best schedule in `sched`.
    fn loop_tune_rounds(
        &mut self,
        op: OpId,
        plan: &LayoutPlan,
        sched: &mut GraphSchedule,
        rounds: usize,
        budget_cap: u64,
    ) -> f64 {
        let start = self.acct.used();
        self.acct.enter_op(op_label(self.graph, op));
        // Attribute the incumbent baseline (measured before the round
        // counter advances below) to this op's own round count — not to
        // whatever round another op left behind, and, on a resumed run,
        // not to zero: `state.rounds` is checkpointed, the label is not.
        self.acct
            .set_round(self.loop_state.get(&op).map_or(0, |st| st.data.rounds));
        let best = self
            .best_points
            .get(&op)
            .map_or((f64::INFINITY, vec![]), |b| (b.latency_s, b.point.clone()));
        let unmeasured = best.0.is_infinite();
        if unmeasured {
            reset_stale_schedule(self.graph, plan, sched, op);
        }
        // The plan-level half of lowering and verification, built once
        // for every candidate of this op; it counts as lowering time.
        let (lower, check) = {
            let _timing = self.cfg.timing.phase("lower");
            let check = self
                .cfg
                .verify
                .then(|| alt_verify::PlanCheck::new(self.graph, plan));
            (LowerCtx::new(self.graph, plan, sched), check)
        };
        let mut t = OpTuning {
            op,
            plan,
            space: build_loop_space_ex(self.graph, plan, op, self.cfg.loop_levels >= 2),
            roots: self.neighborhood(op),
            best,
            best_sched: None,
            trained: false,
            lower,
            check,
        };
        if unmeasured {
            // On total failure the incumbent stays at infinity; any
            // healthy candidate below will replace it.
            if let Some(lat) = self.measure_incumbent(&t, budget_cap) {
                t.best.0 = lat;
            }
        }
        for _ in 0..rounds {
            let left = budget_cap.saturating_sub(self.acct.used() - start);
            if left == 0 || !self.loop_round(&mut t, left) {
                break;
            }
        }
        let ((lat, point), best_sched) = (t.best, t.best_sched);
        if let Some(s) = best_sched {
            sched.set(op, s);
        }
        if !point.is_empty() {
            let best = BestPointSnap {
                op: op.0,
                point,
                latency_s: lat,
            };
            self.best_points.insert(op, best);
        }
        lat
    }

    /// Measures the incumbent schedule as the baseline, so a round of
    /// worse candidates can never overwrite a good schedule.
    fn measure_incumbent(&mut self, t: &OpTuning, cap: u64) -> Option<f64> {
        let _timing = self.cfg.timing.phase("measure");
        let cand = Candidate::INCUMBENT;
        self.acct.measure(&t.lower, &t.roots, None, cand, None, cap)
    }

    /// One loop-tuning round within `left` units: generate a batch, lower
    /// and verify it, rank it by the cost model, measure the predicted
    /// top-k, retrain. Returns `false` when nothing could be measured.
    fn loop_round(&mut self, t: &mut OpTuning, left: u64) -> bool {
        let state = self
            .loop_state
            .entry(t.op)
            .or_insert_with(|| LoopTuneState::new(t.op));
        state.data.rounds += 1;
        t.trained = state.model.is_trained();
        self.acct.set_round(state.data.rounds);
        let batch = self.generate_candidates(t);
        // Requested workers, clamped to the machine (oversubscribing
        // pure CPU-bound work only adds overhead; the clamp is invisible
        // to the run transcript).
        let jobs = crate::parallel::effective_jobs(self.cfg.jobs);
        let lowered = self.lower_candidates(t, &batch, jobs);
        let mut scored = self.score_candidates(t, batch, lowered);
        // Measure the predicted top-k. `k` respects the remaining budget
        // strictly: when nothing is left, the round stops.
        let k = self.cfg.topk.min(scored.len()).min(left as usize);
        if k == 0 {
            for c in &scored {
                self.acct.drop_candidate(c.candidate(), Dropped::Skipped);
            }
            return false;
        }
        self.prewarm(t, &scored[..k], jobs);
        // Candidates ranked beyond the top-k are never measured; journal
        // them so every generated candidate has exactly one terminal
        // record.
        for c in scored.split_off(k) {
            self.acct.drop_candidate(c.candidate(), Dropped::Skipped);
        }
        let measured = self.measure_top_k(t, scored, left);
        let state = self.loop_state.get_mut(&t.op).expect("state exists");
        self.acct.cost_model_round(measured, state.data.trained_on);
        state.retrain();
        true
    }

    /// Candidate batch: random exploration plus walks around the
    /// incumbent. Quarantined candidates are dropped *after* generation
    /// so the RNG draw count — and thus every later draw — is unchanged
    /// by the filter (zero-fault runs stay bit-identical). An untrained
    /// model would rank at random anyway, so then only a random top-k
    /// subset goes on to be lowered.
    fn generate_candidates(&mut self, t: &OpTuning) -> Batch {
        let _timing = self.cfg.timing.phase("candidate_gen");
        let incumbent = &t.best.1;
        let mut batch = Vec::with_capacity(self.cfg.batch);
        for b in 0..self.cfg.batch {
            batch.push(if incumbent.is_empty() || b % 3 == 0 {
                (t.space.random_point(self.acct.rng()), provenance::RANDOM)
            } else {
                (
                    t.space.neighbor(incumbent, self.acct.rng()),
                    provenance::NEIGHBOR,
                )
            });
        }
        let acct = &self.acct;
        batch.retain(|(point, origin)| {
            let banned = acct.is_quarantined(point);
            if banned {
                acct.drop_candidate(Candidate { origin, point }, Dropped::Quarantined);
            }
            !banned
        });
        if !t.trained {
            let keep = self.cfg.topk.max(1).min(batch.len());
            for (point, origin) in batch.split_off(keep) {
                let cand = Candidate {
                    origin,
                    point: &point,
                };
                self.acct.drop_candidate(cand, Dropped::Skipped);
            }
        }
        batch
    }

    /// Lowers every candidate and extracts its features across the worker
    /// pool. This is the round's pure, embarrassingly parallel work:
    /// lowering, verification and featurization depend only on the
    /// (frozen) graph/plan/schedule, never on tuner state, so results are
    /// bit-identical for any `jobs` and come back in submission order.
    /// Each candidate lowers only its own op's group through the op's
    /// shared context and is verified against the plan checked once.
    fn lower_candidates(&self, t: &OpTuning, batch: &Batch, jobs: usize) -> Vec<Lowered> {
        let _timing = self.cfg.timing.phase("lower");
        let (graph, op, plan) = (self.graph, t.op, t.plan);
        let single: HashSet<OpId> = [op].into_iter().collect();
        // Workers report per-candidate lowering latency into the timing
        // registry (thread-safe histograms), never the phase tree — the
        // tree stays on the accounting thread.
        let timing = self.cfg.timing.clone();
        ordered_map(batch, jobs, |_, (p, _)| {
            let s = decode_loop_point(graph, plan, op, &t.space, p);
            let t0 = std::time::Instant::now();
            let program = t.lower.lower(Some(&single), Some((op, &s)));
            timing.observe_us("candidate.lower_us", t0.elapsed().as_micros() as u64);
            let program = program.map_err(|_| (None, alt_verify::VerifyStats::default()))?;
            let mut vstats = alt_verify::VerifyStats::default();
            if let Some(check) = &t.check {
                // The verifier is pure and deterministic, so it can run
                // on workers; only the first (smallest-code) finding is
                // reported per candidate.
                let (diags, vs) = check.verify(&program);
                timing.observe_us("verify.set_emptiness_us", vs.set_emptiness_us);
                vstats = vs;
                if let Some(d) = diags.into_iter().next() {
                    return Err((Some(d), vstats));
                }
            }
            Ok((s, extract_features(&program), vstats))
        })
    }

    /// Merges a lowered batch on the accounting thread, in submission
    /// order: candidates that failed to lower or verify are dropped for
    /// free, the rest are ranked by the cost model (higher prediction =
    /// faster).
    fn score_candidates(&self, t: &OpTuning, batch: Batch, lowered: Vec<Lowered>) -> Vec<Scored> {
        let _timing = self.cfg.timing.phase("gbt_score");
        let mut scored = Vec::new();
        for ((point, origin), lowered) in batch.into_iter().zip(lowered) {
            let cand = Candidate {
                origin,
                point: &point,
            };
            let (sched, feats) = match lowered {
                Ok((s, feats, vs)) => {
                    self.acct.add_verify_stats(&vs);
                    (s, feats)
                }
                Err((None, _)) => {
                    self.acct.drop_candidate(cand, Dropped::LowerFailed);
                    continue;
                }
                Err((Some(d), vs)) => {
                    self.acct.add_verify_stats(&vs);
                    self.acct.drop_candidate(cand, Dropped::VerifyRejected(&d));
                    continue;
                }
            };
            let score = if t.trained {
                self.loop_state[&t.op].model.predict(&feats) as f64
            } else {
                0.0
            };
            scored.push(Scored {
                score,
                point,
                origin,
                sched,
                feats,
            });
        }
        if t.trained {
            scored.sort_by(|a, b| b.score.total_cmp(&a.score));
        }
        scored
    }

    /// Prewarms the measurement cache for the candidates about to be
    /// measured: workers lower each candidate *with its measurement
    /// neighborhood* (the exact program the sequential loop measures)
    /// and simulate it into the shared memo table. The sequential loop
    /// then consumes warm entries, so its transcript — RNG draws, faults,
    /// budget, telemetry, hit/miss counters — is byte-identical to an
    /// unwarmed run. Skipped at effective `jobs <= 1`, where inline
    /// prewarming would only duplicate the lowering work.
    fn prewarm(&self, t: &OpTuning, top: &[Scored], jobs: usize) {
        if jobs <= 1 {
            return;
        }
        let _timing = self.cfg.timing.phase("prewarm");
        let sim = self.acct.measurer().simulator();
        let cache = self.acct.measurer().sim_cache();
        ordered_map(top, jobs, |_, c| {
            if let Ok(program) = t.lower.lower(Some(&t.roots), Some((t.op, &c.sched))) {
                cache.prewarm(sim, &program);
            }
        });
    }

    /// Measures the selected candidates in rank order within `left`
    /// units, adds each result to the cost model's dataset and keeps the
    /// fastest schedule in `t`. Returns a trained model's
    /// `(prediction, -ln latency)` pairs.
    fn measure_top_k(&mut self, t: &mut OpTuning, top: Vec<Scored>, left: u64) -> Vec<(f64, f64)> {
        let _timing = self.cfg.timing.phase("measure");
        let round_start = self.acct.used();
        let mut measured = Vec::with_capacity(top.len());
        for c in top {
            let cap = left.saturating_sub(self.acct.used() - round_start);
            if cap == 0 {
                // The cap cannot recover within a round, so every
                // remaining selected candidate is journaled as skipped
                // (`continue`, not `break`).
                self.acct.drop_candidate(c.candidate(), Dropped::Skipped);
                continue;
            }
            let predicted = t.trained.then_some(c.score);
            let cand = c.candidate();
            let over = Some((t.op, &c.sched));
            let Some(lat) = self
                .acct
                .measure(&t.lower, &t.roots, over, cand, predicted, cap)
            else {
                continue;
            };
            if t.trained {
                // Quality on the model's own scale (-ln latency), so the
                // rank correlation reads "+1 = perfect".
                measured.push((c.score, -lat.max(1e-12).ln()));
            }
            let state = self.loop_state.get_mut(&t.op).expect("state exists");
            state.record(c.feats, lat);
            if lat < t.best.0 {
                t.best = (lat, c.point);
                t.best_sched = Some(c.sched);
            }
        }
        measured
    }
}

/// Resets `op`'s schedule to the default when its tilings no longer
/// divide the physical dims: an incumbent may predate a layout change.
fn reset_stale_schedule(graph: &Graph, plan: &LayoutPlan, sched: &mut GraphSchedule, op: OpId) {
    let node = graph.node(op);
    let phys = plan.layout_of(graph, node.output).physical_shape();
    let reduce_ext: Vec<i64> = node.compute.reduce_axes.iter().map(|a| a.extent).collect();
    if !sched.get(op).validate(phys.dims(), &reduce_ext) {
        sched.set(op, OpSchedule::default());
    }
}

/// Flat schedule snapshot of every graph op, indexed by op id.
fn snapshot_sched(graph: &Graph, sched: &GraphSchedule) -> Vec<SchedSnap> {
    (0..graph.nodes().len())
        .map(|k| SchedSnap::of(&sched.get(OpId(k))))
        .collect()
}

/// Installs a flat schedule snapshot.
fn install_sched(sched: &mut GraphSchedule, snaps: &[SchedSnap]) {
    for (k, snap) in snaps.iter().enumerate() {
        sched.set(OpId(k), snap.to_sched());
    }
}

/// Human-readable operator tag used in trace records, e.g. `conv2d#3`.
pub fn op_label(graph: &Graph, op: OpId) -> String {
    format!("{}#{}", graph.node(op).compute.name, op.0)
}

/// Index of the option closest to `target`.
fn closest_index(options: &[i64], target: i64) -> usize {
    options
        .iter()
        .enumerate()
        .min_by_key(|(_, &v)| (v - target).abs())
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Heuristic starting points inside a layout template: the degenerate
/// channels-last point, the NeoCPU-style channel-tiled point, the
/// NCHW-equivalent point, and a moderate spatial-tiled point. The
/// graph argument is unused; it stays so existing callers keep compiling.
pub fn seed_points(_graph: &Graph, tmpl: &LayoutTemplate) -> Vec<Point> {
    use crate::space::TemplateKind;
    let knobs = &tmpl.space.knobs;
    let full: Point = knobs
        .iter()
        .map(|k| k.options.len().saturating_sub(1))
        .collect();
    let mut seeds = match &tmpl.kind {
        TemplateKind::Conv { d, .. } | TemplateKind::TransposedConv { d } => {
            // Channels-last: every spatial tile = full extent, ot = O,
            // it = I (single tiles everywhere).
            let channels_last = full.clone();
            // NeoCPU channel tiling: unit spatial tiles, ot ~ 16.
            let mut chan_tiled: Point = vec![0; knobs.len()];
            chan_tiled[..*d].fill(0); // spatial tile 1
            chan_tiled[*d] = closest_index(&knobs[*d].options, 16);
            chan_tiled[*d + 1] = closest_index(&knobs[*d + 1].options, 8);
            if knobs.len() > *d + 3 {
                chan_tiled[*d + 2] = closest_index(&knobs[*d + 2].options, 8);
                chan_tiled[*d + 3] = closest_index(&knobs[*d + 3].options, 16);
            }
            // Moderate spatial tiling (the paper's searched family).
            let mut spatial: Point = vec![0; knobs.len()];
            for k in 0..*d {
                spatial[k] = closest_index(&knobs[k].options, 8);
            }
            spatial[*d] = closest_index(&knobs[*d].options, 16);
            spatial[*d + 1] = closest_index(&knobs[*d + 1].options, 8);
            if knobs.len() > *d + 3 {
                spatial[*d + 2] = closest_index(&knobs[*d + 2].options, 8);
                spatial[*d + 3] = closest_index(&knobs[*d + 3].options, 16);
            }
            // NCHW-equivalent: full spatial tiles with every channel
            // knob at 1 (input stays channels-first, weight stays OIKK).
            let mut identity_like = full.clone();
            for v in identity_like
                .iter_mut()
                .take((*d + 4).min(knobs.len()))
                .skip(*d)
            {
                *v = 0;
            }
            vec![spatial, chan_tiled, identity_like, channels_last]
        }
        TemplateKind::Gmm | TemplateKind::BatchGmm => {
            // KN (degenerate) and NKn with 16x16 tiles.
            let mut nkn: Point = vec![0; knobs.len()];
            for k in 0..3.min(knobs.len()) {
                nkn[k] = closest_index(&knobs[k].options, 16);
            }
            vec![nkn, full]
        }
    };
    // The well-known seed families are all plain tilings: pin the
    // trailing `xform` knob (advanced templates) to "none" so seeds keep
    // their intended meaning (e.g. "channels-last" is not Morton'd).
    if tmpl.advanced {
        for p in &mut seeds {
            if let Some(last) = p.last_mut() {
                *last = 0;
            }
        }
    }
    seeds
}

/// Convenience wrapper.
pub fn tune_graph(graph: &Graph, profile: MachineProfile, cfg: TuneConfig) -> TuneResult {
    Tuner::new(graph, profile, cfg).tune()
}

/// Base schedule: every elementwise operator requests fusion into its
/// producer; non-complex root groups get a sensible default (parallel +
/// vectorized innermost) so end-to-end numbers are not dominated by naive
/// auxiliary operators.
pub fn base_schedule(graph: &Graph) -> GraphSchedule {
    let mut sched = GraphSchedule::naive();
    for node in graph.nodes() {
        match node.tag {
            OpTag::Elementwise => {
                sched.set(
                    node.id,
                    OpSchedule {
                        fuse_into_producer: true,
                        vectorize: true,
                        parallel: true,
                        spatial: default_tiling(graph, node.id),
                        ..OpSchedule::default()
                    },
                );
            }
            // Complex operators the tuner never reaches (budget exhausted)
            // must still run with a sane schedule, not a naive serial
            // nest.
            OpTag::Complex(_) => {
                let reduce = node
                    .compute
                    .reduce_axes
                    .iter()
                    .map(|a| {
                        let t = largest_divisor_at_most(a.extent, 8);
                        if t > 1 {
                            alt_loopir::AxisTiling::one(t)
                        } else {
                            alt_loopir::AxisTiling::none()
                        }
                    })
                    .collect();
                sched.set(
                    node.id,
                    OpSchedule {
                        vectorize: true,
                        parallel: true,
                        unroll: true,
                        reduce,
                        spatial: default_tiling(graph, node.id),
                        ..OpSchedule::default()
                    },
                );
            }
            _ => {
                sched.set(
                    node.id,
                    OpSchedule {
                        vectorize: true,
                        parallel: true,
                        spatial: default_tiling(graph, node.id),
                        ..OpSchedule::default()
                    },
                );
            }
        }
    }
    sched
}

/// Default spatial tiling: tile the innermost dimension so it can be
/// vectorized.
fn default_tiling(graph: &Graph, op: OpId) -> Vec<alt_loopir::AxisTiling> {
    let node = graph.node(op);
    let shape = &graph.tensor(node.output).shape;
    let nd = shape.ndim();
    let mut out = vec![alt_loopir::AxisTiling::none(); nd];
    if nd > 0 {
        let last = shape.dim(nd - 1);
        let tile = crate::space::divisors(last)
            .into_iter()
            .rfind(|&d| d <= 64)
            .unwrap_or(1);
        if tile > 1 {
            out[nd - 1] = alt_loopir::AxisTiling::one(tile);
        }
    }
    out
}

/// Flops-proportional budget shares.
fn budget_shares(graph: &Graph, ops: &[OpId]) -> Vec<f64> {
    let flops: Vec<f64> = ops
        .iter()
        .map(|&op| graph.node(op).compute.total_flops() as f64)
        .collect();
    let total: f64 = flops.iter().sum();
    if total <= 0.0 {
        return vec![1.0 / ops.len().max(1) as f64; ops.len()];
    }
    flops.iter().map(|f| f / total).collect()
}

/// Applies a fixed layout family to every complex operator (baselines).
pub fn apply_fixed_layout(
    graph: &Graph,
    plan: &mut LayoutPlan,
    fixed: FixedLayout,
    free_inputs: bool,
) {
    if fixed == FixedLayout::Identity {
        return;
    }
    // Padding and pooling operators keep the same layout family so no
    // implicit (strided) relayout pass appears between blocked operators
    // — this is how vendor libraries keep everything in `nChw16c`.
    for node in graph.nodes() {
        if !matches!(node.tag, OpTag::Padding | OpTag::Reduction) {
            continue;
        }
        let out_shape = graph.tensor(node.output).shape.clone();
        if out_shape.ndim() < 3 {
            continue;
        }
        if let Some(l) = fixed_activation_layout(fixed, out_shape) {
            plan.set_layout(node.output, l);
        }
    }
    for op in graph.complex_ops() {
        let node = graph.node(op);
        let out_shape = graph.tensor(node.output).shape.clone();
        if let Some(l) = fixed_activation_layout(fixed, out_shape) {
            plan.assign_output_layout(graph, op, l);
        }
        // Input activations follow the same family where it applies.
        if matches!(
            node.tag,
            OpTag::Complex(alt_tensor::ComplexKind::Conv1d)
                | OpTag::Complex(alt_tensor::ComplexKind::Conv2d)
                | OpTag::Complex(alt_tensor::ComplexKind::Conv3d)
                | OpTag::Complex(alt_tensor::ComplexKind::TransposedConv2d)
                | OpTag::Complex(alt_tensor::ComplexKind::TransposedConv3d)
        ) {
            let x = node.inputs[0];
            if let Some(l) = fixed_activation_layout(fixed, graph.tensor(x).shape.clone()) {
                let info = graph.tensor(x);
                if free_inputs && info.producer.is_none() {
                    plan.set_layout(x, l);
                } else {
                    plan.assign_input_layout(graph, op, x, l);
                }
            }
            // Weights: channels-last family stores output channels last
            // (HWIO-style); tiled family uses the NeoCPU weight layout.
            let w = node.inputs[1];
            let w_shape = graph.tensor(w).shape.clone();
            let w_layout = match fixed {
                FixedLayout::Identity => None,
                FixedLayout::ChannelsLast => {
                    let nd = w_shape.ndim();
                    let mut perm: Vec<usize> = (2..nd).collect();
                    perm.push(1);
                    perm.push(0);
                    presets::permuted(w_shape, &perm).ok()
                }
                FixedLayout::ChannelTiled(t) => {
                    let o = w_shape.dim(0);
                    let i = w_shape.dim(1);
                    let ot = largest_divisor_at_most(o, t);
                    let it = largest_divisor_at_most(i, t.min(8));
                    presets::conv_weight_tiled_nd(w_shape, it, ot).ok()
                }
            };
            if let Some(l) = w_layout {
                plan.assign_input_layout(graph, op, w, l);
            }
        }
    }
}

/// The fixed family's layout of an activation tensor (channels at
/// dimension 1), or `None` where the family keeps it logical.
fn fixed_activation_layout(fixed: FixedLayout, shape: Shape) -> Option<Layout> {
    match fixed {
        FixedLayout::Identity => None,
        FixedLayout::ChannelsLast => presets::channels_last(shape).ok(),
        FixedLayout::ChannelTiled(t) => {
            let t = largest_divisor_at_most(shape.dim(1), t);
            if t > 1 {
                presets::channel_tiled(shape, t).ok()
            } else {
                None
            }
        }
    }
}

/// Largest divisor of `n` that is `<= cap`.
pub fn largest_divisor_at_most(n: i64, cap: i64) -> i64 {
    crate::space::divisors(n)
        .into_iter()
        .rfind(|&d| d <= cap)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::Measurer;
    use alt_sim::intel_cpu;
    use alt_telemetry::Record;
    use alt_tensor::ops::{self, ConvCfg};
    use alt_tensor::Shape;

    fn small_conv_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new([1, 16, 34, 34]));
        let w = g.add_param("w", Shape::new([32, 16, 3, 3]));
        let c = ops::conv2d(&mut g, x, w, ConvCfg::default());
        let b = g.add_param("b", Shape::new([32]));
        let ba = ops::bias_add(&mut g, c, b, 1);
        let _ = ops::relu(&mut g, ba);
        g
    }

    #[test]
    fn illegal_plan_rejects_every_candidate_as_the_one_shot_verifier_does() {
        // Two independent GMMs; the plan breaks the second one's weight
        // with a chain the builder would refuse, and the first is tuned.
        let mut g = Graph::new();
        let a1 = g.add_input("a1", Shape::new([16, 32]));
        let b1 = g.add_param("b1", Shape::new([32, 24]));
        let c1 = ops::gmm(&mut g, a1, b1);
        let a2 = g.add_input("a2", Shape::new([16, 32]));
        let b2 = g.add_param("b2", Shape::new([32, 24]));
        let _ = ops::gmm(&mut g, a2, b2);
        let op = g.tensor(c1).producer.expect("gmm output");
        let mut plan = LayoutPlan::new(PropagationMode::Full);
        let split = alt_layout::LayoutPrim::Split {
            dim: 0,
            factors: vec![5, 5],
        };
        plan.set_layout(
            b2,
            Layout::from_prims_unchecked(g.tensor(b2).shape.clone(), vec![split]),
        );
        let sched = base_schedule(&g);
        let (telemetry, sink) = Telemetry::memory();
        let mut tuner = Tuner::new(
            &g,
            intel_cpu(),
            TuneConfig {
                telemetry,
                ..TuneConfig::default()
            },
        );
        let t = OpTuning {
            op,
            plan: &plan,
            space: build_loop_space_ex(&g, &plan, op, false),
            roots: tuner.neighborhood(op),
            best: (f64::INFINITY, vec![]),
            best_sched: None,
            trained: false,
            lower: LowerCtx::new(&g, &plan, &sched),
            check: Some(alt_verify::PlanCheck::new(&g, &plan)),
        };
        let batch: Batch = (0..12)
            .map(|_| (t.space.random_point(tuner.acct.rng()), provenance::RANDOM))
            .collect();
        let lowered = tuner.lower_candidates(&t, &batch, 1);
        let single: HashSet<OpId> = [op].into_iter().collect();
        for ((point, _), got) in batch.iter().zip(&lowered) {
            let mut trial = sched.clone();
            trial.set(op, decode_loop_point(&g, &plan, op, &t.space, point));
            let program = alt_loopir::try_lower_filtered(&g, &plan, &trial, Some(&single))
                .expect("the tuned op lowers");
            let (diags, _) = alt_verify::verify_program_with_stats(&g, &plan, &program);
            let want = diags.into_iter().next().expect("an illegal plan rejects");
            assert_eq!(want.code, alt_error::codes::V008_SPLIT_NONDIVISIBLE);
            match got {
                Err((Some(d), _)) => assert_eq!(d, &want),
                _ => panic!("candidate {point:?} was not rejected"),
            }
        }
        assert!(tuner.score_candidates(&t, batch, lowered).is_empty());
        let rejections = sink
            .records()
            .iter()
            .filter(|r| matches!(r, Record::VerifyRejection(_)))
            .count();
        assert_eq!(rejections, 12, "one rejection per candidate");
    }

    #[test]
    fn tuning_improves_over_naive() {
        let g = small_conv_graph();
        let cfg = TuneConfig {
            joint_budget: 24,
            loop_budget: 24,
            batch: 16,
            topk: 4,
            free_input_layouts: true,
            seed: 42,
            ..TuneConfig::default()
        };
        let result = tune_graph(&g, intel_cpu(), cfg);
        let naive_plan = LayoutPlan::new(PropagationMode::Full);
        let naive =
            Measurer::new(&g, intel_cpu()).measure_graph_free(&naive_plan, &GraphSchedule::naive());
        assert!(
            result.latency < naive,
            "tuned {} should beat naive {naive}",
            result.latency
        );
        assert!(result.measurements >= 40);
    }

    #[test]
    fn budget_is_respected() {
        let g = small_conv_graph();
        let cfg = TuneConfig {
            joint_budget: 16,
            loop_budget: 16,
            batch: 8,
            topk: 4,
            free_input_layouts: true,
            seed: 1,
            ..TuneConfig::default()
        };
        let result = tune_graph(&g, intel_cpu(), cfg);
        // Accounting is strict: the joint stage never exceeds its budget
        // and the loop stage tops the total up to exactly joint + loop.
        assert_eq!(result.measurements, 32, "used {}", result.measurements);
        assert!(!result.history.is_empty());
    }

    #[test]
    fn fixed_layout_skips_joint_stage() {
        let g = small_conv_graph();
        let cfg = TuneConfig {
            joint_budget: 100,
            loop_budget: 16,
            batch: 8,
            topk: 4,
            fixed_layout: Some(FixedLayout::ChannelsLast),
            free_input_layouts: true,
            seed: 2,
            ..TuneConfig::default()
        };
        let result = tune_graph(&g, intel_cpu(), cfg);
        // Joint budget unused: only the loop stage measures.
        assert_eq!(result.measurements, 16, "used {}", result.measurements);
        // The conv output layout is the fixed channels-last permutation.
        let conv = g.complex_ops()[0];
        let out = g.node(conv).output;
        assert!(!result.plan.layout_of(&g, out).is_identity());
    }

    #[test]
    fn trace_has_one_measurement_record_per_budget_unit() {
        let g = small_conv_graph();
        let (telemetry, sink) = Telemetry::memory();
        let cfg = TuneConfig {
            joint_budget: 20,
            loop_budget: 30,
            batch: 8,
            topk: 4,
            free_input_layouts: true,
            seed: 5,
            telemetry,
            ..TuneConfig::default()
        };
        let result = tune_graph(&g, intel_cpu(), cfg);
        assert_eq!(result.measurements, 50);
        let records = sink.records();
        let measurements: Vec<&alt_telemetry::MeasurementRecord> = records
            .iter()
            .filter_map(|r| match r {
                Record::Measurement(m) => Some(m),
                _ => None,
            })
            .collect();
        assert_eq!(
            measurements.len() as u64,
            result.measurements,
            "exactly one trace record per consumed budget unit"
        );
        // seq is the budget counter itself.
        for (i, m) in measurements.iter().enumerate() {
            assert_eq!(m.seq, i as u64 + 1);
        }
        let joint = measurements
            .iter()
            .filter(|m| m.stage == Stage::Joint)
            .count() as u64;
        assert!(joint <= 20, "joint stage overspent: {joint}");
        assert_eq!(joint + (measurements.len() as u64 - joint), 50);
        // Both stage spans closed, and the dataset grew enough for the
        // cost model to rank rounds (spearman records).
        let span_names: Vec<&str> = records
            .iter()
            .filter_map(|r| match r {
                Record::Span(s) => Some(s.name.as_str()),
                _ => None,
            })
            .collect();
        assert!(span_names.contains(&"joint_stage"), "{span_names:?}");
        assert!(span_names.contains(&"loop_stage"), "{span_names:?}");
        assert!(
            records.iter().any(|r| matches!(r, Record::CostModel(_))),
            "trained-model rounds must report rank correlation"
        );
        // The run-level simulator counter registry was flushed.
        assert!(records.iter().any(
            |r| matches!(r, Record::Counter(c) if c.scope == "sim" && c.name == "l1.accesses")
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let g = small_conv_graph();
        let cfg = TuneConfig {
            joint_budget: 12,
            loop_budget: 12,
            batch: 8,
            topk: 2,
            free_input_layouts: true,
            seed: 7,
            ..TuneConfig::default()
        };
        let a = tune_graph(&g, intel_cpu(), cfg.clone());
        let b = tune_graph(&g, intel_cpu(), cfg);
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.measurements, b.measurements);
    }

    #[test]
    fn tuning_log_serializes() {
        let g = small_conv_graph();
        let cfg = TuneConfig {
            joint_budget: 12,
            loop_budget: 12,
            batch: 8,
            topk: 2,
            free_input_layouts: true,
            seed: 7,
            ..TuneConfig::default()
        };
        let r = tune_graph(&g, intel_cpu(), cfg);
        let log = r.to_log(&g);
        assert!(log["measurements"].as_u64().unwrap() > 0);
        assert!(!log["best_so_far"].as_array().unwrap().is_empty());
        // Best-so-far curve is monotone non-increasing.
        let curve = log["best_so_far"].as_array().unwrap();
        let mut prev = f64::INFINITY;
        for p in curve {
            let v = p[1].as_f64().unwrap();
            assert!(v <= prev);
            prev = v;
        }
    }

    #[test]
    fn largest_divisor_helper() {
        assert_eq!(largest_divisor_at_most(64, 16), 16);
        assert_eq!(largest_divisor_at_most(60, 16), 15);
        assert_eq!(largest_divisor_at_most(7, 4), 1);
    }

    fn tmp_ck(name: &str) -> String {
        let dir = std::env::temp_dir().join("alt-tuner-ck");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.json", std::process::id()))
            .to_str()
            .unwrap()
            .to_string()
    }

    #[test]
    fn faulted_run_completes_with_exact_accounting() {
        let g = small_conv_graph();
        let (telemetry, sink) = Telemetry::memory();
        let cfg = TuneConfig {
            joint_budget: 20,
            loop_budget: 30,
            batch: 8,
            topk: 4,
            free_input_layouts: true,
            seed: 9,
            telemetry,
            faults: Some(FaultConfig::uniform(0.2)),
            ..TuneConfig::default()
        };
        let result = tune_graph(&g, intel_cpu(), cfg);
        // Graceful degradation: the faulted run still completes and
        // returns a real plan with a real latency.
        assert!(result.latency.is_finite() && result.latency > 0.0);
        // Strict accounting survives faults: failed measurements consume
        // budget too, so the total is exactly joint + loop.
        assert_eq!(result.measurements, 50);
        let records = sink.records();
        let ok = records
            .iter()
            .filter(|r| matches!(r, Record::Measurement(_)))
            .count();
        let failed = records
            .iter()
            .filter(|r| matches!(r, Record::MeasurementFailure(_)))
            .count();
        assert!(failed > 0, "a 20% fault rate over 50 units must fault");
        assert_eq!(ok + failed, 50, "one trace record per budget unit");
        // seq is the budget counter: the union of success and failure
        // records covers 1..=50 exactly once.
        let mut seqs: Vec<u64> = records
            .iter()
            .filter_map(|r| match r {
                Record::Measurement(m) => Some(m.seq),
                Record::MeasurementFailure(f) => Some(f.seq),
                _ => None,
            })
            .collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (1..=50).collect::<Vec<u64>>());
        for r in &records {
            if let Record::MeasurementFailure(f) = r {
                assert!(
                    matches!(f.kind.as_str(), "injected_compile" | "timeout"),
                    "unexpected failure kind {}",
                    f.kind
                );
                assert!(f.attempt >= 1);
            }
        }
        // Robustness counters flow through the run-level registry.
        assert!(records.iter().any(
            |r| matches!(r, Record::Counter(c) if c.scope == "tuner" && c.name.starts_with("failures."))
        ));
    }

    #[test]
    fn fault_runs_are_deterministic_given_seed() {
        let g = small_conv_graph();
        let mk = || TuneConfig {
            joint_budget: 16,
            loop_budget: 16,
            batch: 8,
            topk: 2,
            free_input_layouts: true,
            seed: 13,
            faults: Some(FaultConfig::uniform(0.2)),
            ..TuneConfig::default()
        };
        // The injector draws from the tuner's own stream, so the same
        // seed and fault config reproduce the whole run bit-for-bit.
        let a = tune_graph(&g, intel_cpu(), mk());
        let b = tune_graph(&g, intel_cpu(), mk());
        assert_eq!(a.latency, b.latency);
        assert_eq!(a.measurements, b.measurements);
        assert_eq!(a.history, b.history);
    }

    #[test]
    fn resumed_run_matches_uninterrupted() {
        let g = small_conv_graph();
        let base = TuneConfig {
            joint_budget: 16,
            loop_budget: 16,
            batch: 8,
            topk: 2,
            free_input_layouts: true,
            seed: 21,
            ..TuneConfig::default()
        };
        let full = tune_graph(&g, intel_cpu(), base.clone());
        let path = tmp_ck("resume");
        let halted = tune_graph(
            &g,
            intel_cpu(),
            TuneConfig {
                checkpoint_path: Some(path.clone()),
                halt_after: Some(16),
                ..base.clone()
            },
        );
        assert!(
            halted.measurements < full.measurements,
            "halted at {} of {}",
            halted.measurements,
            full.measurements
        );
        let ck = TunerCheckpoint::load(&path).unwrap();
        let resumed = tune_graph(
            &g,
            intel_cpu(),
            TuneConfig {
                resume: Some(ck),
                ..base.clone()
            },
        );
        assert_eq!(resumed.latency, full.latency);
        assert_eq!(resumed.measurements, full.measurements);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resumed_faulted_run_matches_uninterrupted() {
        let g = small_conv_graph();
        let base = TuneConfig {
            joint_budget: 16,
            loop_budget: 16,
            batch: 8,
            topk: 2,
            free_input_layouts: true,
            seed: 23,
            faults: Some(FaultConfig::uniform(0.2)),
            ..TuneConfig::default()
        };
        let full = tune_graph(&g, intel_cpu(), base.clone());
        let path = tmp_ck("resume-faulted");
        tune_graph(
            &g,
            intel_cpu(),
            TuneConfig {
                checkpoint_path: Some(path.clone()),
                halt_after: Some(16),
                ..base.clone()
            },
        );
        let ck = TunerCheckpoint::load(&path).unwrap();
        let resumed = tune_graph(
            &g,
            intel_cpu(),
            TuneConfig {
                resume: Some(ck),
                ..base.clone()
            },
        );
        assert_eq!(resumed.latency, full.latency);
        assert_eq!(resumed.measurements, full.measurements);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_rejects_wrong_seed_or_graph() {
        let g = small_conv_graph();
        let path = tmp_ck("reject");
        tune_graph(
            &g,
            intel_cpu(),
            TuneConfig {
                joint_budget: 16,
                loop_budget: 16,
                batch: 8,
                topk: 2,
                free_input_layouts: true,
                seed: 31,
                checkpoint_path: Some(path.clone()),
                halt_after: Some(16),
                ..TuneConfig::default()
            },
        );
        let ck = TunerCheckpoint::load(&path).unwrap();
        assert!(ck.validate(&g, 32).is_err(), "wrong seed must be rejected");
        let mut other = Graph::new();
        let x = other.add_input("x", alt_tensor::Shape::new([1, 8, 18, 18]));
        let w = other.add_param("w", alt_tensor::Shape::new([8, 8, 3, 3]));
        let _ = alt_tensor::ops::conv2d(&mut other, x, w, ConvCfg::default());
        assert!(
            ck.validate(&other, 31).is_err(),
            "wrong graph must be rejected"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "checkpoint does not match this run")]
    fn resume_rejects_a_changed_budget() {
        // A run halted under budgets (16, 16) must not silently continue
        // under a larger loop budget: it would finish at a total neither
        // configuration spends and publish under the wrong task.
        let g = small_conv_graph();
        let base = TuneConfig {
            joint_budget: 16,
            loop_budget: 16,
            batch: 8,
            topk: 2,
            free_input_layouts: true,
            seed: 33,
            ..TuneConfig::default()
        };
        let path = tmp_ck("budget");
        tune_graph(
            &g,
            intel_cpu(),
            TuneConfig {
                checkpoint_path: Some(path.clone()),
                halt_after: Some(16),
                ..base.clone()
            },
        );
        let ck = TunerCheckpoint::load(&path).unwrap();
        std::fs::remove_file(&path).ok();
        tune_graph(
            &g,
            intel_cpu(),
            TuneConfig {
                resume: Some(ck),
                loop_budget: 40,
                ..base
            },
        );
    }

    #[test]
    fn timing_and_progress_do_not_change_the_run() {
        let g = small_conv_graph();
        let cfg = |timing: Timing, progress: bool, telemetry: Telemetry| TuneConfig {
            joint_budget: 12,
            loop_budget: 18,
            batch: 8,
            topk: 2,
            free_input_layouts: true,
            seed: 9,
            telemetry,
            timing,
            progress,
            ..TuneConfig::default()
        };
        let (t_plain, sink_plain) = Telemetry::memory();
        let plain = tune_graph(&g, intel_cpu(), cfg(Timing::disabled(), false, t_plain));
        let (t_timed, sink_timed) = Telemetry::memory();
        let timing = Timing::enabled();
        let timed = tune_graph(&g, intel_cpu(), cfg(timing.clone(), true, t_timed));
        // Timing and progress are observation-only: winner, budget,
        // history and the full deterministic trace are bit-identical.
        assert_eq!(plain.latency.to_bits(), timed.latency.to_bits());
        assert_eq!(plain.measurements, timed.measurements);
        assert_eq!(plain.history, timed.history);
        for k in 0..g.nodes().len() {
            assert_eq!(
                format!("{:?}", plain.sched.get(OpId(k))),
                format!("{:?}", timed.sched.get(OpId(k))),
                "winner schedule of op {k} must be bit-identical"
            );
        }
        assert_eq!(
            sink_plain.records().len(),
            sink_timed.records().len(),
            "timing must not add records to the deterministic trace"
        );
        // ... while the timing handle itself accumulated a phase tree.
        let root = timing.snapshot().expect("timing enabled");
        assert!(root.find("loop_stage").is_some(), "{root:?}");
        assert!(root.is_conserved(), "{root:?}");
    }

    #[test]
    fn timing_phase_tree_names_the_pipeline_stages() {
        let g = small_conv_graph();
        let timing = Timing::enabled();
        let cfg = TuneConfig {
            joint_budget: 12,
            loop_budget: 18,
            batch: 8,
            topk: 2,
            free_input_layouts: true,
            seed: 9,
            timing: timing.clone(),
            ..TuneConfig::default()
        };
        let result = tune_graph(&g, intel_cpu(), cfg);
        let root = timing.snapshot().expect("timing enabled");
        assert!(root.is_conserved(), "{root:?}");
        let joint = root.find("joint_stage").expect("joint stage ran");
        let lp = root.find("loop_stage").expect("loop stage ran");
        // Every stage decomposes into the round phases; measure wraps
        // one `simulate` probe per consumed budget unit.
        for stage in [joint, lp] {
            assert!(stage.find("candidate_gen").is_some(), "{stage:?}");
            assert!(stage.find("lower").is_some(), "{stage:?}");
            assert!(stage.find("measure").is_some(), "{stage:?}");
        }
        let simulate_count: u64 = [joint, lp]
            .iter()
            .flat_map(|s| s.find("measure"))
            .filter_map(|m| m.find("simulate"))
            .map(|s| s.count)
            .sum();
        assert!(
            simulate_count <= result.measurements,
            "simulate probes ({simulate_count}) cannot exceed budget ({})",
            result.measurements
        );
        assert!(simulate_count > 0, "{root:?}");
        // The worker-side channel recorded per-candidate lowering times
        // into the wall registry.
        let hists = timing.registry().expect("enabled").histograms();
        assert!(
            hists.iter().any(|(n, _)| n == "candidate.lower_us"),
            "{hists:?}"
        );
        assert!(
            hists.iter().any(|(n, _)| n == "memo.lookup_us"),
            "{hists:?}"
        );
    }
}
