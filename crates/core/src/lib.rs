//! ALT: a deep-learning compiler with joint graph-level data-layout and
//! operator-level loop optimization (EuroSys '23 reproduction).
//!
//! This crate is the user-facing facade over the full stack:
//!
//! ```
//! use alt_core::{Compiler, CompileOptions};
//! use alt_sim::intel_cpu;
//! use alt_tensor::{ops, ops::ConvCfg, Graph, Shape};
//!
//! // Describe a computation as a graph.
//! let mut g = Graph::new();
//! let x = g.add_input("x", Shape::new([1, 8, 18, 18]));
//! let w = g.add_param("w", Shape::new([16, 8, 3, 3]));
//! let y = ops::conv2d(&mut g, x, w, ConvCfg::default());
//!
//! // Compile with a small tuning budget.
//! let compiler = Compiler::new(intel_cpu()).with_options(CompileOptions {
//!     joint_budget: 16,
//!     loop_budget: 16,
//!     ..CompileOptions::default()
//! });
//! let compiled = compiler.compile(&g);
//!
//! // Execute it on real data and inspect the result.
//! let inputs = alt_tensor::exec::random_bindings(&g, 0);
//! let outputs = compiled.run(&inputs);
//! assert_eq!(outputs[&y].shape().dims(), &[1, 16, 16, 16]);
//! ```

use std::collections::HashMap;

use alt_autotune::tuner::{FixedLayout, LayoutSearch, TuneConfig};
use alt_autotune::{tune_graph, FaultConfig, PpoWeights, TunerCheckpoint};
use alt_layout::{Layout, LayoutPlan, PropagationMode};
use alt_loopir::{lower, run_program, GraphSchedule, Program};
use alt_sim::{MachineProfile, Simulator};
use alt_telemetry::{Record, Telemetry, Timing};
use alt_tensor::{Graph, NdBuf, TensorId};

pub use alt_autotune::tuner::TuneResult;
pub use alt_telemetry::{JsonlSink, MemorySink, NoopSink, RunSummaryRecord, Sink};

/// Compilation options (a curated surface over the tuner configuration).
#[derive(Clone, Debug)]
pub struct CompileOptions {
    /// Measurement budget for the joint layout+loop stage.
    pub joint_budget: u64,
    /// Measurement budget for the loop-only stage.
    pub loop_budget: u64,
    /// Layout template tiling levels (1 or 2).
    pub levels: u8,
    /// Append the advanced `xform` knob (XOR swizzle, block-diagonal
    /// remap, Morton interleave) to every layout template. Opt-in: the
    /// extra knob grows the pruned template spaces and shifts seeded
    /// trajectories.
    pub advanced_layouts: bool,
    /// Layout propagation mode.
    pub propagation: PropagationMode,
    /// Treat graph inputs as re-layoutable offline (single-operator
    /// benchmarking); end-to-end compilation should leave this `false`.
    pub free_input_layouts: bool,
    /// Random seed (compilation is fully deterministic given the seed).
    pub seed: u64,
    /// Pretrained PPO weights to warm-start the layout agents.
    pub pretrained: Option<PpoWeights>,
    /// Skip layout tuning and pin this layout family instead.
    pub fixed_layout: Option<FixedLayout>,
    /// Layout candidate generator (PPO or random).
    pub layout_search: LayoutSearch,
    /// Injected fault rate in `[0, 1)` for robustness testing: the rate
    /// is split between compile failures, measurement timeouts, and
    /// noisy latencies ([`FaultConfig::uniform`]). Zero disables
    /// injection entirely (the run is bit-identical to one without it).
    pub fault_rate: f64,
    /// Write tuner checkpoints to this path during compilation.
    pub checkpoint: Option<String>,
    /// Checkpoint every N consumed budget units (0 = only on halt).
    pub checkpoint_every: u64,
    /// Resume tuning from a checkpoint file written by a previous run
    /// with the same graph and seed.
    pub resume: Option<String>,
    /// Worker threads for candidate measurement (0 or 1 = sequential).
    /// Any value produces a bit-identical compilation result, trace, and
    /// budget accounting: workers only prewarm the memoized simulation
    /// cache, while all accounting stays on one thread.
    pub jobs: usize,
    /// Statically verify every lowered candidate before simulation.
    /// Rejected candidates are dropped without consuming any measurement
    /// budget (counted under `verify.rejected`). On by default.
    pub verify: bool,
    /// Write the search journal (one JSONL record per candidate, layout
    /// visit/commit, plus a run header and summary) to this path. A
    /// resumed run appends to the journal its predecessor started, so
    /// the finished file reads as one uninterrupted run. Inspect with
    /// `altc inspect <path>`.
    pub journal: Option<String>,
    /// Path to a durable tuning store. Measurements hit the store before
    /// the simulator, and a completed run publishes its winner; a later
    /// compile of the same task short-circuits to the stored winner
    /// without spending any budget. A store that cannot be opened (bad
    /// magic, incompatible version, held writer lock) degrades to a
    /// warning — compilation proceeds store-less rather than failing.
    pub store: Option<String>,
    /// Write the deterministic telemetry trace (JSONL) to this path. A
    /// trace that cannot be opened degrades to a warning — compilation
    /// proceeds trace-less (falling back to any sink attached via
    /// [`Compiler::with_telemetry`]) rather than failing.
    pub trace: Option<String>,
    /// Wall-clock self-profiling: phase attribution across the whole
    /// pipeline (candidate generation, lowering, GBT scoring,
    /// simulation, retries, checkpoints) plus store/memo-cache latency
    /// histograms. Observation-only — the timing stream has its own
    /// records and manifest on [`CompiledGraph`], never the trace or
    /// journal, so the compiled result is bit-identical either way.
    pub timing: bool,
    /// Print a throttled live progress heartbeat to stderr during
    /// tuning (budget fraction, candidates/s, cache and store hit
    /// rates, ETA). Reads statistics only; cannot change a run.
    pub progress: bool,
}

impl Default for CompileOptions {
    fn default() -> Self {
        Self {
            joint_budget: 300,
            loop_budget: 700,
            levels: 1,
            advanced_layouts: false,
            propagation: PropagationMode::Full,
            free_input_layouts: false,
            seed: 0,
            pretrained: None,
            fixed_layout: None,
            layout_search: LayoutSearch::Ppo,
            fault_rate: 0.0,
            checkpoint: None,
            checkpoint_every: 0,
            resume: None,
            jobs: 1,
            verify: true,
            journal: None,
            store: None,
            trace: None,
            timing: false,
            progress: false,
        }
    }
}

/// FNV-1a over a canonical rendering of the result-relevant options:
/// the run manifest's configuration fingerprint. Two compiles with the
/// same fingerprint (and graph and machine) produce bit-identical
/// results; observability knobs (trace/timing/progress paths) are
/// excluded so attaching them never changes the fingerprint, and so is
/// `jobs` (any worker count is bit-identical; it is an environment
/// fact, recorded in the manifest's `env` block instead).
fn config_fingerprint(o: &CompileOptions) -> u64 {
    let canonical = format!(
        "joint={} loop={} levels={} adv={} prop={:?} free={} seed={} pretrained={} fixed={:?} \
         search={:?} faults={} verify={}",
        o.joint_budget,
        o.loop_budget,
        o.levels,
        o.advanced_layouts,
        o.propagation,
        o.free_input_layouts,
        o.seed,
        o.pretrained.is_some(),
        o.fixed_layout,
        o.layout_search,
        o.fault_rate,
        o.verify,
    );
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in canonical.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The ALT compiler for one target machine.
#[derive(Clone, Debug)]
pub struct Compiler {
    profile: MachineProfile,
    options: CompileOptions,
    telemetry: Telemetry,
}

impl Compiler {
    /// Creates a compiler with default options (telemetry disabled).
    pub fn new(profile: MachineProfile) -> Self {
        Self {
            profile,
            options: CompileOptions::default(),
            telemetry: Telemetry::noop(),
        }
    }

    /// Replaces the compilation options.
    pub fn with_options(mut self, options: CompileOptions) -> Self {
        self.options = options;
        self
    }

    /// Attaches a telemetry sink: every subsequent `compile` emits a
    /// structured trace (one measurement record per budget unit, PPO and
    /// cost-model records, aggregated simulator counters, and a final run
    /// summary) through the sink.
    pub fn with_telemetry(mut self, sink: std::sync::Arc<dyn Sink>) -> Self {
        self.telemetry = Telemetry::new(sink);
        self
    }

    /// The target machine profile.
    pub fn profile(&self) -> &MachineProfile {
        &self.profile
    }

    /// Compiles a graph: joint layout+loop auto-tuning followed by
    /// lowering to an executable program.
    ///
    /// # Panics
    ///
    /// Panics when `options.resume` names a checkpoint that cannot be
    /// read or that does not match this graph, seed and budgets.
    pub fn compile(&self, graph: &Graph) -> CompiledGraph {
        let t0 = std::time::Instant::now();
        let o = &self.options;
        let resume = o.resume.as_ref().map(|path| {
            let ck = TunerCheckpoint::load(path).expect("loading checkpoint");
            ck.validate(graph, o.seed)
                .and_then(|()| ck.validate_budgets(o.joint_budget, o.loop_budget))
                .expect("checkpoint does not match this graph/seed/budgets");
            ck
        });
        // Observability plumbing must never kill a compile: a journal
        // that cannot be opened degrades to a warning and a no-op sink.
        let journal = match &o.journal {
            Some(path) => {
                let opened = if resume.is_some() {
                    alt_journal::Journal::jsonl_append(path)
                } else {
                    alt_journal::Journal::jsonl(path)
                };
                opened.unwrap_or_else(|e| {
                    let err = alt_error::AltError::Journal {
                        detail: format!("cannot open {path}: {e}"),
                    };
                    eprintln!("warning: {err}; continuing without a journal");
                    alt_journal::Journal::noop()
                })
            }
            None => alt_journal::Journal::noop(),
        };
        // Same contract for the trace sink: an unopenable `--trace` path
        // is a typed, survivable error — warn and continue trace-less
        // (falling back to any sink attached via `with_telemetry`).
        let telemetry = match &o.trace {
            Some(path) => match JsonlSink::create(path) {
                Ok(sink) => Telemetry::new(std::sync::Arc::new(sink)),
                Err(e) => {
                    let err = alt_error::AltError::Trace {
                        detail: format!("cannot open {path}: {e}"),
                    };
                    eprintln!("warning: {err}; continuing without a trace");
                    self.telemetry.clone()
                }
            },
            None => self.telemetry.clone(),
        };
        // Same contract for the durable store: open failures (foreign
        // file, incompatible version, held writer lock) cost the warm
        // tier, not the compilation.
        let store = o.store.as_ref().and_then(|path| {
            match alt_store::Store::open(std::path::Path::new(path)) {
                Ok(s) => Some(std::sync::Arc::new(s)),
                Err(e) => {
                    eprintln!("warning: {e}; continuing without a tuning store");
                    None
                }
            }
        });
        let timing = if o.timing {
            Timing::enabled()
        } else {
            Timing::disabled()
        };
        let cfg = TuneConfig {
            joint_budget: o.joint_budget,
            loop_budget: o.loop_budget,
            levels: o.levels,
            advanced_layouts: o.advanced_layouts,
            mode: o.propagation,
            free_input_layouts: o.free_input_layouts,
            seed: o.seed,
            pretrained: o.pretrained.clone(),
            fixed_layout: o.fixed_layout,
            layout_search: o.layout_search,
            telemetry: telemetry.clone(),
            faults: (o.fault_rate > 0.0).then(|| FaultConfig::uniform(o.fault_rate)),
            checkpoint_path: o.checkpoint.clone(),
            checkpoint_every: o.checkpoint_every,
            resume,
            jobs: o.jobs,
            verify: o.verify,
            journal,
            store,
            timing: timing.clone(),
            progress: o.progress,
            ..TuneConfig::default()
        };
        let result = tune_graph(graph, self.profile, cfg);
        let program = lower(graph, &result.plan, &result.sched);
        let run_summary = RunSummaryRecord {
            joint_budget: o.joint_budget,
            loop_budget: o.loop_budget,
            measurements: result.measurements,
            best_latency_s: result.latency,
            wall_s: t0.elapsed().as_secs_f64(),
        };
        if telemetry.is_enabled() {
            telemetry.emit(Record::RunSummary(run_summary.clone()));
            telemetry.flush();
        }
        // Materialize the timing stream (empty when `o.timing` is off).
        // The manifest must be read *before* `emit_to`: emission flushes
        // — and clears — the wall-clock registry.
        let timing_manifest = timing.manifest(
            &[
                ("os", serde_json::json!(std::env::consts::OS)),
                ("arch", serde_json::json!(std::env::consts::ARCH)),
                ("seed", serde_json::json!(o.seed)),
                ("jobs", serde_json::json!(o.jobs as u64)),
                ("joint_budget", serde_json::json!(o.joint_budget)),
                ("loop_budget", serde_json::json!(o.loop_budget)),
                ("measurements", serde_json::json!(result.measurements)),
                ("warm_start", serde_json::json!(result.warm_start)),
                ("store", serde_json::json!(o.store.is_some())),
                ("journal", serde_json::json!(o.journal.is_some())),
                ("wall_s", serde_json::json!(t0.elapsed().as_secs_f64())),
            ],
            config_fingerprint(o),
        );
        let timing_records = if timing.is_enabled() {
            let (t, sink) = Telemetry::memory();
            timing.emit_to(&t);
            sink.records()
        } else {
            Vec::new()
        };
        CompiledGraph {
            graph: graph.clone(),
            plan: result.plan.clone(),
            sched: result.sched.clone(),
            program,
            profile: self.profile,
            estimated_latency: result.latency,
            measurements: result.measurements,
            history: result.history.clone(),
            run_summary,
            warm_start: result.warm_start,
            store_hits: result.store_hits,
            store_misses: result.store_misses,
            timing_records,
            timing_manifest,
        }
    }

    /// Compiles without any tuning: identity layouts, naive schedules.
    /// Useful as a correctness reference and a "before" point.
    pub fn compile_unoptimized(&self, graph: &Graph) -> CompiledGraph {
        let plan = LayoutPlan::new(PropagationMode::Full);
        let sched = GraphSchedule::naive();
        let program = lower(graph, &plan, &sched);
        let estimated_latency = Simulator::new(self.profile).measure(&program);
        CompiledGraph {
            graph: graph.clone(),
            plan,
            sched,
            program,
            profile: self.profile,
            estimated_latency,
            measurements: 0,
            history: Vec::new(),
            run_summary: RunSummaryRecord {
                joint_budget: 0,
                loop_budget: 0,
                measurements: 0,
                best_latency_s: estimated_latency,
                wall_s: 0.0,
            },
            warm_start: false,
            store_hits: 0,
            store_misses: 0,
            timing_records: Vec::new(),
            timing_manifest: None,
        }
    }
}

/// A compiled, executable graph.
#[derive(Clone, Debug)]
pub struct CompiledGraph {
    graph: Graph,
    plan: LayoutPlan,
    sched: GraphSchedule,
    program: Program,
    profile: MachineProfile,
    estimated_latency: f64,
    measurements: u64,
    history: Vec<(u64, f64)>,
    run_summary: RunSummaryRecord,
    warm_start: bool,
    store_hits: u64,
    store_misses: u64,
    timing_records: Vec<Record>,
    timing_manifest: Option<serde_json::Value>,
}

impl CompiledGraph {
    /// Executes the compiled program on logical input/parameter buffers,
    /// returning logical buffers for every graph tensor.
    ///
    /// # Panics
    ///
    /// Panics if a binding is missing or has the wrong shape.
    pub fn run(&self, bindings: &HashMap<TensorId, NdBuf>) -> HashMap<TensorId, NdBuf> {
        run_program(&self.program, &self.graph, &self.plan, bindings)
    }

    /// Executes the compiled program through the native executor.
    /// Bit-identical to [`CompiledGraph::run`] by the `alt-codegen`
    /// contract, but orders of magnitude faster — the interpreter is the
    /// reference oracle, this is the runtime.
    ///
    /// # Panics
    ///
    /// Panics if a binding is missing or has the wrong shape.
    pub fn run_native(&self, bindings: &HashMap<TensorId, NdBuf>) -> HashMap<TensorId, NdBuf> {
        self.run_native_timed(bindings, &Timing::disabled()).0
    }

    /// [`CompiledGraph::run_native`] with wall-clock accounting: compiles
    /// the native kernel (one pass over the loop tree) and runs it,
    /// returning per-group and end-to-end native times plus the layout
    /// conversion times, and — when `timing` is enabled — records a
    /// `native_exec` phase plus `native.group_us`, `native.run_us`,
    /// `native.pack_us` and `native.unpack_us` wall histograms on the
    /// pipeline timing layer (its own stream; never the deterministic
    /// trace).
    pub fn run_native_timed(
        &self,
        bindings: &HashMap<TensorId, NdBuf>,
        timing: &Timing,
    ) -> (HashMap<TensorId, NdBuf>, alt_codegen::NativeRunStats) {
        let kernel = alt_codegen::compile(&self.program, &self.profile);
        let _phase = timing.phase("native_exec");
        let (out, stats) = kernel.run(
            &self.program,
            &self.graph,
            &self.plan,
            bindings,
            alt_codegen::default_threads(),
        );
        for (_, us) in &stats.group_us {
            timing.observe_us("native.group_us", *us as u64);
        }
        timing.observe_us("native.run_us", stats.total_us as u64);
        timing.observe_us("native.pack_us", stats.pack_us as u64);
        timing.observe_us("native.unpack_us", stats.unpack_us as u64);
        (out, stats)
    }

    /// The machine profile this graph was compiled (and tuned) for.
    pub fn target_profile(&self) -> &MachineProfile {
        &self.profile
    }

    /// The model-estimated latency on the target machine (seconds).
    pub fn estimated_latency(&self) -> f64 {
        self.estimated_latency
    }

    /// Measurements spent during tuning.
    pub fn measurements(&self) -> u64 {
        self.measurements
    }

    /// Tuning history: (budget used, measured latency).
    pub fn history(&self) -> &[(u64, f64)] {
        &self.history
    }

    /// Whether this compile short-circuited to a stored winner instead
    /// of searching (always `false` without a tuning store).
    pub fn warm_start(&self) -> bool {
        self.warm_start
    }

    /// Durable-store measurement traffic during tuning: `(hits, misses)`.
    /// Zero on both counts when no store was attached.
    pub fn store_stats(&self) -> (u64, u64) {
        (self.store_hits, self.store_misses)
    }

    /// The telemetry run summary for the compilation that produced this
    /// graph (budgets, measurements consumed, best latency, wall time).
    pub fn run_summary(&self) -> &RunSummaryRecord {
        &self.run_summary
    }

    /// The wall-clock timing stream of the compilation: one
    /// [`Record::Timing`] phase tree plus the flushed wall histograms
    /// and counters. Empty unless [`CompileOptions::timing`] was set.
    /// These records belong to the timing sink, never the deterministic
    /// trace — write them wherever wall-clock data should go (`altc
    /// --timing`, `altc report`, Perfetto).
    pub fn timing_records(&self) -> &[Record] {
        &self.timing_records
    }

    /// The machine-readable per-run timing manifest: phase totals, wall
    /// histograms, environment facts, and the configuration
    /// fingerprint. `None` unless [`CompileOptions::timing`] was set.
    pub fn timing_manifest(&self) -> Option<&serde_json::Value> {
        self.timing_manifest.as_ref()
    }

    /// The layout chosen for a tensor.
    pub fn layout_of(&self, tensor: TensorId) -> Layout {
        self.plan.layout_of(&self.graph, tensor)
    }

    /// The final layout plan.
    pub fn plan(&self) -> &LayoutPlan {
        &self.plan
    }

    /// The final schedules.
    pub fn schedule(&self) -> &GraphSchedule {
        &self.sched
    }

    /// The lowered program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Runs the full static verifier (layout legality, IR
    /// well-formedness, race detection) over the compiled artifact.
    /// Returns every diagnostic found; an empty list means the program
    /// passed all three passes.
    pub fn verify(&self) -> Vec<alt_verify::Diagnostic> {
        alt_verify::verify_program(&self.graph, &self.plan, &self.program)
    }

    /// Like [`CompiledGraph::verify`], but also returns the set-engine
    /// activity counters (queries issued, emptiness time, conservative
    /// interval rejections the exact engine recovered).
    pub fn verify_with_stats(&self) -> (Vec<alt_verify::Diagnostic>, alt_verify::VerifyStats) {
        alt_verify::verify_program_with_stats(&self.graph, &self.plan, &self.program)
    }

    /// Full performance-counter profile on the target machine.
    pub fn profile_counters(&self, profile: MachineProfile) -> alt_sim::Counters {
        Simulator::new(profile).profile_counters(&self.program)
    }

    /// Structured cost attribution on the target machine: per-loop-path
    /// latency components rolled up per group, with the breakdown total
    /// bit-identical to [`CompiledGraph::estimated_latency`]'s model.
    pub fn profile_breakdown(&self, profile: MachineProfile) -> alt_sim::CostBreakdown {
        Simulator::new(profile).profile_program(&self.program)
    }

    /// A human-readable compilation report: per-tensor layouts and
    /// per-group fusion structure.
    pub fn report(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "estimated latency: {:.3} ms ({} measurements)\n",
            self.estimated_latency * 1e3,
            self.measurements
        ));
        out.push_str("layouts:\n");
        for (k, t) in self.graph.tensors().iter().enumerate() {
            let l = self.plan.layout_of(&self.graph, TensorId(k));
            if !l.is_identity() {
                out.push_str(&format!("  {}: {}\n", t.name, l));
            }
        }
        out.push_str("groups:\n");
        for g in &self.program.groups {
            out.push_str(&format!("  {}\n", g.label));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alt_sim::intel_cpu;
    use alt_tensor::exec::{random_bindings, run_graph};
    use alt_tensor::ops::{self, ConvCfg};
    use alt_tensor::Shape;

    fn sample_graph() -> (Graph, TensorId) {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new([1, 8, 18, 18]));
        let w = g.add_param("w", Shape::new([16, 8, 3, 3]));
        let c = ops::conv2d(&mut g, x, w, ConvCfg::default());
        let b = g.add_param("b", Shape::new([16]));
        let ba = ops::bias_add(&mut g, c, b, 1);
        let r = ops::relu(&mut g, ba);
        (g, r)
    }

    #[test]
    fn compiled_graph_matches_reference_execution() {
        let (g, out) = sample_graph();
        let compiler = Compiler::new(intel_cpu()).with_options(CompileOptions {
            joint_budget: 16,
            loop_budget: 16,
            free_input_layouts: true,
            seed: 3,
            ..CompileOptions::default()
        });
        let compiled = compiler.compile(&g);
        let bindings = random_bindings(&g, 0);
        let got = compiled.run(&bindings);
        let want = run_graph(&g, &bindings);
        let diff = want[out.0].max_abs_diff(&got[&out]);
        assert!(diff < 1e-3, "diff {diff}");
    }

    #[test]
    fn native_run_reports_layout_conversion_time() {
        let (g, out) = sample_graph();
        let compiled = Compiler::new(intel_cpu()).compile_unoptimized(&g);
        let bindings = random_bindings(&g, 0);
        let timing = Timing::enabled();
        let (got, stats) = compiled.run_native_timed(&bindings, &timing);
        assert_eq!(
            got[&out].data(),
            compiled.run(&bindings)[&out].data(),
            "native matches the interpreter"
        );
        assert!(stats.pack_us > 0.0 && stats.unpack_us > 0.0, "{stats:?}");
        let reg = timing.registry().expect("enabled");
        for name in ["native.run_us", "native.pack_us", "native.unpack_us"] {
            assert_eq!(reg.histogram(name).map(|h| h.count), Some(1), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "checkpoint does not match this graph/seed/budgets")]
    fn resume_rejects_a_changed_budget() {
        let (g, _) = sample_graph();
        let path =
            std::env::temp_dir().join(format!("alt-core-budget-{}.json", std::process::id()));
        let path = path.to_str().expect("utf-8 path").to_string();
        let options = CompileOptions {
            joint_budget: 8,
            loop_budget: 8,
            free_input_layouts: true,
            seed: 3,
            ..CompileOptions::default()
        };
        Compiler::new(intel_cpu())
            .with_options(CompileOptions {
                checkpoint: Some(path.clone()),
                checkpoint_every: 4,
                ..options.clone()
            })
            .compile(&g);
        // Resuming that run's checkpoint under a larger loop budget must
        // fail loudly instead of finishing at neither run's total.
        let resumed = CompileOptions {
            resume: Some(path.clone()),
            loop_budget: 24,
            ..options
        };
        let outcome = std::panic::catch_unwind(|| {
            Compiler::new(intel_cpu()).with_options(resumed).compile(&g);
        });
        std::fs::remove_file(&path).ok();
        if let Err(panic) = outcome {
            std::panic::resume_unwind(panic);
        }
    }

    #[test]
    fn tuned_beats_unoptimized() {
        let (g, _) = sample_graph();
        let compiler = Compiler::new(intel_cpu()).with_options(CompileOptions {
            joint_budget: 24,
            loop_budget: 24,
            free_input_layouts: true,
            seed: 5,
            ..CompileOptions::default()
        });
        let tuned = compiler.compile(&g);
        let unopt = compiler.compile_unoptimized(&g);
        assert!(tuned.estimated_latency() < unopt.estimated_latency());
    }

    #[test]
    fn traced_compile_emits_full_budget_and_summary() {
        let (g, _) = sample_graph();
        let sink = std::sync::Arc::new(MemorySink::new());
        let compiler = Compiler::new(intel_cpu())
            .with_options(CompileOptions {
                joint_budget: 16,
                loop_budget: 16,
                free_input_layouts: true,
                seed: 3,
                ..CompileOptions::default()
            })
            .with_telemetry(sink.clone());
        let compiled = compiler.compile(&g);
        assert_eq!(compiled.run_summary().measurements, 32);
        let records = sink.records();
        let measured = records
            .iter()
            .filter(|r| matches!(r, Record::Measurement(_)))
            .count() as u64;
        assert_eq!(measured, 32, "one trace record per budget unit");
        let summary = records.iter().find_map(|r| match r {
            Record::RunSummary(s) => Some(s),
            _ => None,
        });
        let summary = summary.expect("run summary record");
        assert_eq!(summary.joint_budget + summary.loop_budget, 32);
        assert_eq!(summary.measurements, 32);
        assert!(summary.best_latency_s > 0.0);
    }

    #[test]
    fn profiling_is_pure_observation() {
        // Profiling must be zero-overhead on the tuning path: a compile
        // followed by profiling is bit-identical to a compile without it,
        // and the breakdown total is exactly the tuner's scalar.
        let (g, _) = sample_graph();
        let options = CompileOptions {
            joint_budget: 12,
            loop_budget: 12,
            free_input_layouts: true,
            seed: 7,
            ..CompileOptions::default()
        };
        let plain = Compiler::new(intel_cpu())
            .with_options(options.clone())
            .compile(&g);
        let profiled = Compiler::new(intel_cpu()).with_options(options).compile(&g);
        let breakdown = profiled.profile_breakdown(intel_cpu());
        assert_eq!(plain.estimated_latency(), profiled.estimated_latency());
        assert_eq!(plain.history(), profiled.history());
        assert_eq!(breakdown.total_s, profiled.estimated_latency());
        // Profiling twice is idempotent, bit for bit.
        let again = profiled.profile_breakdown(intel_cpu());
        assert_eq!(breakdown.total_s, again.total_s);
    }

    #[test]
    fn parallel_jobs_compile_bit_identically() {
        let (g, _) = sample_graph();
        let base = CompileOptions {
            joint_budget: 12,
            loop_budget: 12,
            free_input_layouts: true,
            seed: 9,
            ..CompileOptions::default()
        };
        let seq = Compiler::new(intel_cpu())
            .with_options(base.clone())
            .compile(&g);
        let par = Compiler::new(intel_cpu())
            .with_options(CompileOptions { jobs: 4, ..base })
            .compile(&g);
        assert_eq!(
            seq.estimated_latency().to_bits(),
            par.estimated_latency().to_bits()
        );
        assert_eq!(seq.history(), par.history());
        assert_eq!(seq.report(), par.report());
    }

    #[test]
    fn verify_filter_is_budget_neutral() {
        // The template families the tuner explores never trip the static
        // verifier (no false positives), so a compile with the filter on
        // must be bit-identical — same budget accounting, same history,
        // same winner — to one with it off, and must emit zero
        // verify-rejection records.
        let (g, _) = sample_graph();
        let base = CompileOptions {
            joint_budget: 12,
            loop_budget: 12,
            free_input_layouts: true,
            seed: 9,
            ..CompileOptions::default()
        };
        let sink = std::sync::Arc::new(MemorySink::new());
        let on = Compiler::new(intel_cpu())
            .with_options(base.clone())
            .with_telemetry(sink.clone())
            .compile(&g);
        let off = Compiler::new(intel_cpu())
            .with_options(CompileOptions {
                verify: false,
                ..base
            })
            .compile(&g);
        assert_eq!(
            on.estimated_latency().to_bits(),
            off.estimated_latency().to_bits()
        );
        assert_eq!(on.history(), off.history());
        assert_eq!(on.measurements(), off.measurements());
        assert_eq!(on.report(), off.report());
        let rejections = sink
            .records()
            .iter()
            .filter(|r| matches!(r, Record::VerifyRejection(_)))
            .count();
        assert_eq!(rejections, 0, "legal candidates must never be rejected");
        // The final artifact passes its own verifier.
        assert!(on.verify().is_empty());
    }

    #[test]
    fn unopenable_journal_degrades_to_journal_less_compile() {
        // Satellite of the durable-store PR: a journal path in a
        // directory that does not exist must not kill the compile — it
        // warns and continues with a no-op sink.
        let (g, _) = sample_graph();
        let bad = std::env::temp_dir()
            .join("alt-core-no-such-dir")
            .join("nested")
            .join("run.jsonl");
        let compiler = Compiler::new(intel_cpu()).with_options(CompileOptions {
            joint_budget: 8,
            loop_budget: 8,
            free_input_layouts: true,
            journal: Some(bad.to_string_lossy().into_owned()),
            ..CompileOptions::default()
        });
        let compiled = compiler.compile(&g);
        assert!(compiled.estimated_latency() > 0.0);
        assert!(!bad.exists());
    }

    #[test]
    fn unopenable_trace_degrades_to_trace_less_compile() {
        // Parity with the journal contract: a `--trace` path in a
        // directory that does not exist is a typed, survivable
        // `AltError::Trace` — the compile warns and continues with
        // whatever sink `with_telemetry` attached (here: none).
        let (g, _) = sample_graph();
        let bad = std::env::temp_dir()
            .join("alt-core-no-such-dir")
            .join("nested")
            .join("trace.jsonl");
        let options = CompileOptions {
            joint_budget: 8,
            loop_budget: 8,
            free_input_layouts: true,
            seed: 3,
            ..CompileOptions::default()
        };
        let plain = Compiler::new(intel_cpu())
            .with_options(options.clone())
            .compile(&g);
        let degraded = Compiler::new(intel_cpu())
            .with_options(CompileOptions {
                trace: Some(bad.to_string_lossy().into_owned()),
                ..options
            })
            .compile(&g);
        assert!(!bad.exists());
        // Degrading to trace-less must not change the compilation.
        assert_eq!(
            plain.estimated_latency().to_bits(),
            degraded.estimated_latency().to_bits()
        );
        assert_eq!(plain.history(), degraded.history());
        assert_eq!(plain.report(), degraded.report());
    }

    #[test]
    fn openable_trace_writes_the_deterministic_stream() {
        let (g, _) = sample_graph();
        let dir = std::env::temp_dir().join(format!("alt-core-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("trace.jsonl");
        let compiled = Compiler::new(intel_cpu())
            .with_options(CompileOptions {
                joint_budget: 8,
                loop_budget: 8,
                free_input_layouts: true,
                seed: 3,
                trace: Some(path.to_string_lossy().into_owned()),
                ..CompileOptions::default()
            })
            .compile(&g);
        let records = alt_telemetry::read_jsonl(path.to_str().unwrap()).expect("readable trace");
        let measured = records
            .iter()
            .filter(|r| matches!(r, Record::Measurement(_)))
            .count() as u64;
        assert_eq!(measured, compiled.measurements());
        assert!(
            !records.iter().any(|r| matches!(r, Record::Timing(_))),
            "timing records never enter the deterministic trace"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn timing_manifest_and_records_do_not_change_the_compile() {
        let (g, _) = sample_graph();
        let options = CompileOptions {
            joint_budget: 12,
            loop_budget: 12,
            free_input_layouts: true,
            seed: 13,
            ..CompileOptions::default()
        };
        let plain = Compiler::new(intel_cpu())
            .with_options(options.clone())
            .compile(&g);
        let timed = Compiler::new(intel_cpu())
            .with_options(CompileOptions {
                timing: true,
                ..options
            })
            .compile(&g);
        // Observation-only: the winner is bit-identical.
        assert_eq!(
            plain.estimated_latency().to_bits(),
            timed.estimated_latency().to_bits()
        );
        assert_eq!(plain.history(), timed.history());
        assert_eq!(plain.report(), timed.report());
        // ... and timing-off compiles carry no timing data at all.
        assert!(plain.timing_records().is_empty());
        assert!(plain.timing_manifest().is_none());
        // The timing stream exists and is internally consistent.
        let phases = timed
            .timing_records()
            .iter()
            .find_map(|r| match r {
                Record::Timing(t) => Some(&t.phases),
                _ => None,
            })
            .expect("one timing record");
        assert!(phases.is_conserved(), "{phases:?}");
        assert!(phases.find("loop_stage").is_some());
        let manifest = timed.timing_manifest().expect("manifest present");
        assert_eq!(
            manifest["alt_timing_manifest"].as_u64(),
            Some(1),
            "{manifest}"
        );
        assert_eq!(manifest["env"]["seed"].as_u64(), Some(13));
        assert_eq!(
            manifest["env"]["measurements"].as_u64(),
            Some(timed.measurements())
        );
        assert_eq!(
            manifest["config_fp"].as_str().map(str::len),
            Some(16),
            "fingerprint is 16 hex chars"
        );
        // Conservation in the serialized tree: children inclusive sums
        // never exceed the parent, and exclusive = inclusive - children.
        fn check(node: &serde_json::Value) {
            let inclusive = node["inclusive_us"].as_u64().expect("inclusive");
            let children = node["children"].as_array().expect("children");
            let child_sum: u64 = children
                .iter()
                .map(|c| c["inclusive_us"].as_u64().expect("child inclusive"))
                .sum();
            assert!(child_sum <= inclusive, "{node}");
            assert_eq!(
                node["exclusive_us"].as_u64().expect("exclusive"),
                inclusive - child_sum,
                "{node}"
            );
            children.iter().for_each(check);
        }
        check(&manifest["phases"]);
    }

    #[test]
    fn store_warm_start_reproduces_cold_compile_bit_for_bit() {
        let (g, _) = sample_graph();
        let dir = std::env::temp_dir().join(format!("alt-core-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("tune.altstore");
        let options = CompileOptions {
            joint_budget: 12,
            loop_budget: 12,
            free_input_layouts: true,
            seed: 11,
            store: Some(path.to_string_lossy().into_owned()),
            ..CompileOptions::default()
        };
        let cold = Compiler::new(intel_cpu())
            .with_options(options.clone())
            .compile(&g);
        assert!(!cold.warm_start());
        let (hits, misses) = cold.store_stats();
        assert_eq!(hits, 0, "first run over an empty store cannot hit");
        assert!(misses > 0, "every simulated measurement is a store miss");
        let warm = Compiler::new(intel_cpu()).with_options(options).compile(&g);
        assert!(warm.warm_start(), "identical task must replay the winner");
        assert_eq!(warm.measurements(), 0, "a warm start spends no budget");
        assert_eq!(
            cold.estimated_latency().to_bits(),
            warm.estimated_latency().to_bits()
        );
        // Reports match except the header line (the warm run spends no
        // measurements, and the report says so).
        let body = |r: &CompiledGraph| {
            let full = r.report();
            full.split_once('\n').map(|(_, rest)| rest.to_owned())
        };
        assert_eq!(body(&cold), body(&warm));
        // The replayed artifact executes correctly.
        let bindings = random_bindings(&g, 0);
        let got = warm.run(&bindings);
        let want = run_graph(&g, &bindings);
        for (k, buf) in want.iter().enumerate() {
            let id = alt_tensor::TensorId(k);
            assert!(buf.max_abs_diff(&got[&id]) < 1e-3);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn report_mentions_layouts_and_groups() {
        let (g, _) = sample_graph();
        let compiler = Compiler::new(intel_cpu()).with_options(CompileOptions {
            joint_budget: 8,
            loop_budget: 8,
            free_input_layouts: true,
            ..CompileOptions::default()
        });
        let compiled = compiler.compile(&g);
        let report = compiled.report();
        assert!(report.contains("estimated latency"));
        assert!(report.contains("groups:"));
    }
}
