//! perfbench: the repository benchmark of the ALT compiler.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tune-ops --seed 0 --seconds 15 --trace 0
//! ```
//!
//! Workloads (see `README.md`): `tune-ops` tunes one work-bounded Fig. 9
//! configuration per operator family on three machine profiles and runs
//! the intel-cpu winners natively; `tune-nets` tunes the Fig. 10 networks
//! and runs BERT-tiny natively; `warm-start` replays stored winners. The
//! last stdout line is one JSON object: `correct`, `attempted`, `failed`
//! and the metrics — the end-to-end ones with `--trace 0`, the per-layer
//! ones with `--trace 1`.

mod calib;
mod draw;
mod gate;
mod native;
mod spec;
mod trace;

use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

use alt_core::{CompileOptions, CompiledGraph, Compiler};
use alt_layout::PropagationMode;
use alt_sim::{MachineProfile, Simulator};
use alt_tensor::{Graph, NdBuf, TensorId};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde_json::Value;

use gate::Gate;
use native::Parts;
use trace::{phase_us, Trace};

/// Set-ups per run; `setup_s` is their median. warm-start's set-up
/// cold-compiles every task, so it repeats fewer times.
const SETUP_REPEATS: usize = 25;
const WARM_SETUP_REPEATS: usize = 3;
/// Fig. 9 budget per single-operator task, split 30/70 joint/loop.
const FIG09_BUDGET: u64 = 120;
/// Fig. 10 budget per network, split 40/60 joint/loop.
const FIG10_BUDGET: u64 = 600;
/// Timed opens of the populated store per traced run.
const STORE_OPENS: usize = 5;

/// Minimum timed samples per run of a workload. Sampling goes on, in
/// the same proportions, until `--seconds` have passed since set-up.
struct Plan {
    /// Compile rounds: cold and store-less on tune-*, warm on warm-start.
    rounds: usize,
    /// Warm-compile rounds over the executed tasks (tune-* only).
    warm_rounds: usize,
    /// Timed native passes.
    passes: usize,
}

const TUNE_OPS: Plan = Plan {
    rounds: 3,
    warm_rounds: 50,
    passes: 9,
};
const TUNE_NETS: Plan = Plan {
    rounds: 1,
    warm_rounds: 20,
    passes: 3,
};
const WARM_START: Plan = Plan {
    rounds: 20,
    warm_rounds: 0,
    passes: 7,
};

struct Args {
    workload: String,
    /// Picks the input bindings and the reference check points.
    seed: u64,
    /// Picks the op draw and the tuning seed (default 1, the tuning seed
    /// of the fig09/fig10 harnesses).
    variant: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        variant: 1,
        seconds: 20.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--variant" => args.variant = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["tune-ops", "tune-nets", "warm-start"].contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be tune-ops, tune-nets or warm-start, not `{}`",
            args.workload
        ));
    }
    Ok(args)
}

/// One compile task: a graph, a target and its tuning options. Executed
/// tasks carry the logical bindings their native runs use.
struct Task {
    label: String,
    config: String,
    graph: Graph,
    profile: MachineProfile,
    opts: CompileOptions,
    bindings: Option<HashMap<TensorId, NdBuf>>,
}

impl Task {
    fn compile(&self, store: Option<&Path>, timing: bool, journal: Option<&Path>) -> CompiledGraph {
        let opts = CompileOptions {
            store: store.map(|p| p.display().to_string()),
            timing,
            journal: journal.map(|p| p.display().to_string()),
            ..self.opts.clone()
        };
        Compiler::new(self.profile)
            .with_options(opts)
            .compile(&self.graph)
    }
}

fn fig09_opts(seed: u64) -> CompileOptions {
    let joint = (FIG09_BUDGET as f64 * 0.3) as u64;
    CompileOptions {
        joint_budget: joint,
        loop_budget: FIG09_BUDGET - joint,
        free_input_layouts: true,
        seed,
        ..CompileOptions::default()
    }
}

fn fig10_opts(seed: u64) -> CompileOptions {
    let joint = (FIG10_BUDGET as f64 * 0.4) as u64;
    CompileOptions {
        joint_budget: joint,
        loop_budget: FIG10_BUDGET - joint,
        propagation: PropagationMode::Full,
        free_input_layouts: false,
        seed,
        ..CompileOptions::default()
    }
}

fn bindings(graph: &Graph, seed: u64, k: usize) -> HashMap<TensorId, NdBuf> {
    alt_tensor::exec::random_bindings(graph, seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ k as u64)
}

/// The drawn ops on every profile; only the intel-cpu tasks execute.
fn op_tasks(seed: u64, variant: u64, profiles: &[MachineProfile]) -> Vec<Task> {
    let mut tasks = Vec::new();
    for (k, case) in draw::draw(variant).into_iter().enumerate() {
        for profile in profiles {
            let executed = profile.name == "intel-cpu";
            tasks.push(Task {
                label: format!("{}/{}", case.family, profile.name),
                config: case.config.clone(),
                bindings: executed.then(|| bindings(&case.graph, seed, k)),
                graph: case.graph.clone(),
                profile: *profile,
                opts: fig09_opts(variant),
            });
        }
    }
    tasks
}

fn net_task(name: &str, graph: Graph, seed: u64, variant: u64, executed: bool) -> Task {
    Task {
        label: name.to_string(),
        config: "batch1".to_string(),
        bindings: executed.then(|| bindings(&graph, seed, 100)),
        graph,
        profile: alt_sim::intel_cpu(),
        opts: fig10_opts(variant),
    }
}

fn tune_ops_tasks(seed: u64, variant: u64) -> Vec<Task> {
    let profiles = [
        alt_sim::intel_cpu(),
        alt_sim::nvidia_gpu(),
        alt_sim::arm_cpu(),
    ];
    op_tasks(seed, variant, &profiles)
}

fn tune_nets_tasks(seed: u64, variant: u64) -> Vec<Task> {
    vec![
        net_task("bert-tiny", alt_models::bert_tiny(1), seed, variant, true),
        net_task(
            "mobilenet-v2",
            alt_models::mobilenet_v2(1),
            seed,
            variant,
            false,
        ),
        net_task("resnet-18", alt_models::resnet18(1), seed, variant, false),
        net_task("bert-base", alt_models::bert_base(1), seed, variant, false),
    ]
}

fn warm_start_tasks(seed: u64, variant: u64) -> Vec<Task> {
    let mut tasks = op_tasks(seed, variant, &[alt_sim::intel_cpu()]);
    tasks.push(net_task(
        "bert-tiny",
        alt_models::bert_tiny(1),
        seed,
        variant,
        false,
    ));
    tasks.push(net_task(
        "mobilenet-v2",
        alt_models::mobilenet_v2(1),
        seed,
        variant,
        false,
    ));
    tasks
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Median of `(value, weight)` pairs: the smallest value at which the
/// weights of values up to it reach half the total.
fn weighted_median(mut pairs: Vec<(f64, f64)>) -> f64 {
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let half = pairs.iter().map(|p| p.1).sum::<f64>() / 2.0;
    let mut acc = 0.0;
    for (v, w) in &pairs {
        acc += w;
        if acc >= half {
            return *v;
        }
    }
    f64::NAN
}

fn geomean(xs: &[f64]) -> f64 {
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// State of one benchmark run.
struct Run {
    args: Args,
    gate: Gate,
    trace: Trace,
    metrics: BTreeMap<&'static str, f64>,
    /// The host-speed reference, and when each of its runs started and
    /// how many seconds it took.
    reference: calib::Reference,
    refs: Vec<(Instant, f64)>,
    work: PathBuf,
    /// Start of the timed part (after set-up).
    t0: Instant,
}

impl Run {
    fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// One run of the host-speed reference.
    fn time_reference(&mut self) {
        let s = self.trace.begin("host.reference");
        let at = Instant::now();
        self.refs.push((at, self.reference.run()));
        self.trace.end(s);
    }

    /// Whether `--seconds` have passed since set-up.
    fn time_is_up(&self) -> bool {
        self.t0.elapsed().as_secs_f64() >= self.args.seconds
    }

    /// `repeats` set-ups; keeps the last, reports the median.
    fn setup<T>(&mut self, repeats: usize, mut build: impl FnMut(&mut Run, usize) -> T) -> T {
        let mut times = Vec::new();
        let mut last = None;
        for k in 0..repeats {
            self.time_reference();
            let t = Instant::now();
            last = Some(build(self, k));
            times.push(t.elapsed().as_secs_f64());
        }
        self.set("setup_s", median(&times));
        println!(
            "setup_s {:.4} (median of {repeats} set-ups)",
            median(&times)
        );
        self.t0 = Instant::now();
        last.expect("at least one set-up")
    }
}

/// Per-winner checks: a clean static verification.
fn verify_winners(run: &mut Run, tasks: &[Task], winners: &[CompiledGraph]) {
    for (task, w) in tasks.iter().zip(winners) {
        let diags = run.trace.span("verify.winner", || w.verify());
        run.gate.check(diags.is_empty(), || {
            format!("{}: verify() reports {:?}", task.label, diags.first())
        });
    }
}

/// One kind of timed sample: its minimum count and how to take one.
type Sampler<'s> = (usize, &'s mut dyn FnMut(&mut Run));

/// Takes samples of several kinds interleaved, so that a slow spell of
/// the host falls on every kind alike instead of on most of one loop:
/// the kind furthest behind its minimum goes next (the earlier on ties).
/// Stops once every minimum is met and `--seconds` have passed.
fn interleave(run: &mut Run, kinds: &mut [Sampler]) {
    let mut done = vec![0usize; kinds.len()];
    loop {
        let met = kinds.iter().zip(&done).all(|((min, _), n)| n >= min);
        if met && run.time_is_up() {
            return;
        }
        // Smallest done/min, compared without division.
        let next = (0..kinds.len())
            .min_by(|&i, &j| (done[i] * kinds[j].0).cmp(&(done[j] * kinds[i].0)))
            .expect("at least one kind of sample");
        run.time_reference();
        (kinds[next].1)(run);
        done[next] += 1;
    }
}

/// Warm `Compiler::compile` calls with a populated store attached,
/// round-robin over `tasks`, each checked against the task's cold winner.
struct Warm<'a> {
    tasks: Vec<&'a Task>,
    cold: Vec<f64>,
    store: &'a Path,
    /// Wall-clock of each call, seconds.
    calls: Vec<f64>,
    /// The last round's compiled winners.
    last: Vec<CompiledGraph>,
}

impl<'a> Warm<'a> {
    fn new(tasks: Vec<&'a Task>, cold: Vec<f64>, store: &'a Path) -> Self {
        Self {
            tasks,
            cold,
            store,
            calls: Vec::new(),
            last: Vec::new(),
        }
    }

    fn round(&mut self, run: &mut Run) {
        self.last.clear();
        for (task, &cold) in self.tasks.iter().zip(&self.cold) {
            let t = Instant::now();
            let c = run.trace.span("compile.warm", || {
                task.compile(Some(self.store), false, None)
            });
            self.calls.push(t.elapsed().as_secs_f64());
            let ok = c.warm_start()
                && c.measurements() == 0
                && c.estimated_latency().to_bits() == cold.to_bits();
            run.gate.check(ok, || {
                format!(
                    "{}: warm compile warm_start={} measurements={} latency {:e} vs cold {cold:e}",
                    task.label,
                    c.warm_start(),
                    c.measurements(),
                    c.estimated_latency()
                )
            });
            self.last.push(c);
        }
    }

    /// Median seconds of each task's calls, in task order.
    fn task_medians(&self) -> Vec<f64> {
        let n = self.tasks.len();
        (0..n)
            .map(|k| {
                median(
                    &self
                        .calls
                        .iter()
                        .skip(k)
                        .step_by(n)
                        .copied()
                        .collect::<Vec<_>>(),
                )
            })
            .collect()
    }

    /// Sets `warm_compile_ms` and prints a row per task.
    fn report(&self, run: &mut Run) {
        let ms = median(&self.calls) * 1e3;
        run.set("warm_compile_ms", ms);
        for (task, s) in self.tasks.iter().zip(self.task_medians()) {
            println!(
                "warm {:<16} {:<32} flops {:>11} warm_compile_ms {:.4}",
                task.label,
                task.config,
                task.graph.total_flops(),
                s * 1e3
            );
        }
        println!(
            "warm_compile_ms {ms:.4} (median of {} calls)",
            self.calls.len()
        );
    }
}

/// Native execution of the executed winners: a warm-up pass whose
/// outputs go through the reference gate, then timed passes, each
/// checked bit for bit against the warm-up pass.
struct Native<'a> {
    execs: Vec<(&'a Task, &'a CompiledGraph)>,
    threads: usize,
    reference: Vec<HashMap<TensorId, NdBuf>>,
    walls: Vec<f64>,
    parts: Vec<Parts>,
    per_task: Vec<Vec<f64>>,
    groups: Vec<(String, f64)>,
}

impl<'a> Native<'a> {
    fn warm_up(run: &mut Run, execs: Vec<(&'a Task, &'a CompiledGraph)>) -> Self {
        let threads = alt_codegen::default_threads();
        let mut rng = StdRng::seed_from_u64(run.args.seed ^ 0x00c0_ffee);
        let mut reference = Vec::new();
        let s = run.trace.begin("native.gate_pass");
        for (task, w) in &execs {
            let b = task
                .bindings
                .as_ref()
                .expect("executed tasks carry bindings");
            let (out, ..) = native::run(&mut run.trace, w, &task.graph, b, threads);
            run.trace.span("gate.reference", || {
                gate::check_outputs(&mut run.gate, &task.label, &task.graph, b, &out, &mut rng);
            });
            reference.push(out);
        }
        run.trace.end(s);
        Self {
            per_task: vec![Vec::new(); execs.len()],
            execs,
            threads,
            reference,
            walls: Vec::new(),
            parts: Vec::new(),
            groups: Vec::new(),
        }
    }

    fn pass(&mut self, run: &mut Run) {
        let s = run.trace.begin("native.pass");
        let mut pass = Parts::default();
        let mut outs = Vec::new();
        self.groups.clear();
        let t = Instant::now();
        for (k, (task, w)) in self.execs.iter().enumerate() {
            let b = task
                .bindings
                .as_ref()
                .expect("executed tasks carry bindings");
            let (out, p, stats) = native::run(&mut run.trace, w, &task.graph, b, self.threads);
            self.per_task[k].push(p.total());
            pass.add(&p);
            self.groups.extend(stats.group_us);
            outs.push(out);
        }
        self.walls.push(t.elapsed().as_secs_f64());
        run.trace.end(s);
        self.parts.push(pass);
        for ((task, _), (out, want)) in self.execs.iter().zip(outs.iter().zip(&self.reference)) {
            run.gate.check(gate::same_bits(&task.graph, out, want), || {
                format!("{}: native outputs differ between passes", task.label)
            });
        }
    }

    /// Sets `native_pass_ms` (and, traced, the codegen and loopir layer
    /// metrics) and prints a row per executed winner.
    fn report(self, run: &mut Run) {
        let pass_ms = median(&self.walls) * 1e3;
        run.set("native_pass_ms", pass_ms);
        for ((task, w), times) in self.execs.iter().zip(&self.per_task) {
            println!(
                "native {:<16} {:<32} flops {:>11} stmt_iters {:>11} pass_ms {:.3}",
                task.label,
                task.config,
                task.graph.total_flops(),
                w.program().total_stmt_iterations(),
                median(times) * 1e3
            );
        }
        println!(
            "native_pass_ms {pass_ms:.3} (median of {} passes after a checked warm-up pass, {} threads)",
            self.walls.len(),
            self.threads
        );
        if !run.trace.enabled() {
            return;
        }
        let parts = &self.parts;
        let med = |f: fn(&Parts) -> f64| median(&parts.iter().map(f).collect::<Vec<_>>());
        let exec_s = med(|p| p.exec);
        run.set("codegen.kernel_compile_ms", med(|p| p.kernel_compile) * 1e3);
        run.set("loopir.pack_ms", med(|p| p.pack) * 1e3);
        run.set("codegen.exec_ms", exec_s * 1e3);
        run.set("loopir.unpack_ms", med(|p| p.unpack) * 1e3);
        let shares: Vec<f64> = parts
            .iter()
            .zip(&self.walls)
            .map(|(p, w)| p.total() / w)
            .collect();
        let accounted = median(&shares);
        run.set("native.accounted_frac", accounted);
        run.gate.check((0.9..=1.0 + 1e-9).contains(&accounted), || {
            format!("kernel compile + pack + exec + unpack cover {accounted:.3} of the native pass")
        });
        let flops: u64 = self.execs.iter().map(|(t, _)| t.graph.total_flops()).sum();
        let iters: u64 = self
            .execs
            .iter()
            .map(|(_, w)| w.program().total_stmt_iterations())
            .sum();
        run.set("codegen.gflops", flops as f64 / exec_s / 1e9);
        run.set("codegen.stmt_iters_per_s", iters as f64 / exec_s);
        let serial: f64 = self
            .execs
            .iter()
            .map(|(t, w)| {
                let b = t.bindings.as_ref().expect("executed tasks carry bindings");
                run.trace.span("codegen.execute_1thread", || {
                    native::exec_seconds(w, &t.graph, b, 1)
                })
            })
            .sum();
        run.set("codegen.par_speedup", serial / exec_s);
        let total: f64 = self.groups.iter().map(|(_, us)| us).sum();
        let top = self.groups.iter().map(|(_, us)| *us).fold(0.0, f64::max);
        run.set("codegen.top_group_share", top / total);
    }
}

/// Tuner metrics from traced compiles' timing manifests and journals.
fn tuner_layers(run: &mut Run, manifests: &[Value], journals: &[PathBuf]) {
    let phase =
        |name: &str| -> f64 { manifests.iter().map(|m| phase_us(&m["phases"], name)).sum() };
    let count = |hist: &str| -> f64 {
        manifests
            .iter()
            .filter_map(|m| m["wall"][hist]["count"].as_f64())
            .sum()
    };
    run.set("autotune.joint_stage_s", phase("joint_stage") / 1e6);
    run.set("autotune.loop_stage_s", phase("loop_stage") / 1e6);
    run.set("autotune.candidate_gen_ms", phase("candidate_gen") / 1e3);
    run.set("autotune.gbt_score_ms", phase("gbt_score") / 1e3);
    run.set("autotune.lower_phase_s", phase("lower") / 1e6);
    run.set("sim.simulate_ms", phase("simulate") / 1e3);
    run.set("autotune.candidates_lowered", count("candidate.lower_us"));
    let (hits, cold) = (count("memo.lookup_us"), count("memo.cold_simulate_us"));
    run.set("sim.memo_probes", hits + cold);
    run.set(
        "sim.memo_hit_rate",
        if hits + cold > 0.0 {
            hits / (hits + cold)
        } else {
            0.0
        },
    );

    let (mut weighted, mut pairs, mut insufficient) = (0.0, 0u64, 0u64);
    for path in journals {
        let records = alt_journal::read_journal(path).unwrap_or_default();
        let cal = run.trace.span("journal.inspect", || {
            alt_journal::inspect(&records).calibration
        });
        if cal.pairs >= 2 {
            weighted += cal.final_spearman * cal.pairs as f64;
            pairs += cal.pairs;
        } else {
            insufficient += 1;
        }
    }
    let rho = if pairs > 0 {
        weighted / pairs as f64
    } else {
        0.0
    };
    run.set("autotune.gbt_spearman", rho);
    run.set("autotune.gbt_pairs", pairs as f64);
    run.set("autotune.gbt_insufficient", insufficient as f64);
    println!(
        "gbt spearman {rho:.4} over {pairs} pairs; {insufficient} of {} journals have insufficient pairs",
        journals.len()
    );
}

/// Store write latencies from the manifests of store-attached compiles.
fn store_write_layers(run: &mut Run, manifests: &[Value]) {
    // The metric is named after the wall histogram it averages.
    for name in ["store.append_us", "store.fsync_us"] {
        let (sum, n) = manifests.iter().fold((0.0, 0.0), |(s, n), m| {
            let h = &m["wall"][name];
            (
                s + h["sum_us"].as_f64().unwrap_or(0.0),
                n + h["count"].as_f64().unwrap_or(0.0),
            )
        });
        run.set(name, if n > 0.0 { sum / n } else { 0.0 });
    }
}

/// The tuner's per-candidate calls, replayed on every complex op of
/// every winner: `try_lower_filtered` and static verification.
fn candidate_layers(run: &mut Run, tasks: &[&Task], winners: &[&CompiledGraph]) {
    let (mut lower_us, mut verify_us, mut queries) = (Vec::new(), Vec::new(), 0u64);
    for (task, w) in tasks.iter().zip(winners) {
        for op in task.graph.complex_ops() {
            let roots: HashSet<_> = [op].into_iter().collect();
            let t = Instant::now();
            let program = run.trace.span("loopir.try_lower_filtered", || {
                alt_loopir::try_lower_filtered(&task.graph, w.plan(), w.schedule(), Some(&roots))
            });
            lower_us.push(t.elapsed().as_secs_f64() * 1e6);
            let Ok(program) = program else {
                run.gate.check(false, || {
                    format!("{}: op {op:?} no longer lowers", task.label)
                });
                continue;
            };
            let t = Instant::now();
            let (diags, stats) = run.trace.span("verify.candidate", || {
                alt_verify::verify_program_with_stats(&task.graph, w.plan(), &program)
            });
            verify_us.push(t.elapsed().as_secs_f64() * 1e6);
            queries += stats.set_queries;
            run.gate.check(diags.is_empty(), || {
                format!("{}: op {op:?} fails verification", task.label)
            });
        }
    }
    run.set("loopir.candidate_lower_us", median(&lower_us));
    run.set("verify.candidate_us", median(&verify_us));
    run.set("verify.set_queries", queries as f64);
}

/// Store reads on the populated segment, and the warm replay (lower and
/// simulate) of each stored winner.
fn store_read_layers(run: &mut Run, store: &Path, tasks: &[&Task], warm: &[CompiledGraph]) {
    let mut opens = Vec::new();
    for _ in 0..STORE_OPENS {
        let t = Instant::now();
        let opened = run
            .trace
            .span("store.open", || alt_store::Store::open(store));
        opens.push(t.elapsed().as_secs_f64() * 1e3);
        run.gate.check(opened.is_ok(), || {
            format!("store does not reopen: {:?}", opened.err())
        });
    }
    run.set("store.open_ms", median(&opens));
    match alt_store::Store::open_readonly(store) {
        Ok(s) => {
            let records = s.records();
            let mut gets = Vec::with_capacity(records.len());
            let mut found = true;
            for r in &records {
                let span = run.trace.begin("store.get");
                let t = Instant::now();
                let got = s.get(r.kind, r.key);
                gets.push(t.elapsed().as_secs_f64() * 1e6);
                run.trace.end(span);
                found &= got.is_some_and(|p| p.len() == r.payload.len());
            }
            run.gate.check(found, || {
                "a stored record is not found by its key".to_string()
            });
            let stats = s.stats();
            run.set("store.get_us", median(&gets));
            run.set("store.records", stats.records as f64);
            run.set("store.bytes", stats.file_bytes as f64);
        }
        Err(e) => run
            .gate
            .check(false, || format!("store does not open read-only: {e}")),
    }
    let (mut lower_ms, mut measure_ms) = (Vec::new(), Vec::new());
    for (task, w) in tasks.iter().zip(warm) {
        let t = Instant::now();
        let program = run.trace.span("loopir.lower", || {
            alt_loopir::lower(&task.graph, w.plan(), w.schedule())
        });
        lower_ms.push(t.elapsed().as_secs_f64() * 1e3);
        let t = Instant::now();
        run.trace.span("sim.measure", || {
            Simulator::new(task.profile).measure(&program)
        });
        measure_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    run.set("loopir.winner_lower_ms", median(&lower_ms));
    run.set("sim.winner_measure_ms", median(&measure_ms));
}

fn report_latency(tasks: &[&Task], winners: &[&CompiledGraph]) {
    let lats: Vec<f64> = winners.iter().map(|w| w.estimated_latency()).collect();
    for (task, lat) in tasks.iter().zip(&lats) {
        println!(
            "sim {:<16} {:<32} sim_latency_us {:.6}",
            task.label,
            task.config,
            lat * 1e6
        );
    }
    let geo = geomean(&lats) * 1e6;
    println!(
        "sim_latency_us {geo} us (geomean over {} winners)",
        lats.len()
    );
}

/// Folds a traced compile's phase tree under its span (the latest one
/// named `span`) and checks the tree's conservation.
fn fold_manifest(run: &mut Run, span: &str, label: &str, c: &CompiledGraph) -> Value {
    let manifest = c.timing_manifest().cloned().unwrap_or(Value::Null);
    let conserved = run.trace.fold_phases(span, &manifest["phases"]);
    run.gate.check(conserved, || {
        format!("{label}: timing phase tree is not conserved")
    });
    manifest
}

/// tune-ops and tune-nets: rounds of cold store-less compiles of every
/// task interleaved with native passes of the executed winners, then
/// warm compiles of the executed tasks against the store their warm-up
/// compile published.
fn cold_workload(run: &mut Run, build: fn(u64, u64) -> Vec<Task>, plan: &Plan) {
    let (seed, variant) = (run.args.seed, run.args.variant);
    let tasks = run.setup(SETUP_REPEATS, |run, _| {
        run.trace.span("setup", || build(seed, variant))
    });
    let executed: Vec<&Task> = tasks.iter().filter(|t| t.bindings.is_some()).collect();

    // Warm-up: each executed task once with a fresh store attached, which
    // publishes its winner. Store attachment leaves the result unchanged
    // (checked below), so these winners are the ones run natively.
    let store = run.work.join("store");
    let traced = run.trace.enabled();
    let published: Vec<CompiledGraph> = executed
        .iter()
        .map(|t| {
            run.trace
                .span("compile.publish", || t.compile(Some(&store), traced, None))
        })
        .collect();
    let execs = executed.iter().copied().zip(&published).collect();
    let mut native = Native::warm_up(run, execs);
    let published_latency = published
        .iter()
        .map(CompiledGraph::estimated_latency)
        .collect();
    let mut warm = Warm::new(executed.clone(), published_latency, &store);

    let mut per_task: Vec<Vec<f64>> = vec![Vec::new(); tasks.len()];
    let mut winners: Vec<CompiledGraph> = Vec::new();
    let mut compile_round = |run: &mut Run| {
        for (k, task) in tasks.iter().enumerate() {
            run.time_reference();
            let t = Instant::now();
            let c = run
                .trace
                .span("compile.cold", || task.compile(None, false, None));
            per_task[k].push(t.elapsed().as_secs_f64());
            match winners.get(k) {
                Some(first) => {
                    let same =
                        first.estimated_latency().to_bits() == c.estimated_latency().to_bits();
                    run.gate.check(same, || {
                        format!("{}: compile is not deterministic", task.label)
                    });
                }
                None => {
                    run.gate.check(c.measurements() > 0, || {
                        format!("{}: no measurements", task.label)
                    });
                    winners.push(c);
                }
            }
        }
    };
    interleave(
        run,
        &mut [
            (plan.passes, &mut |run: &mut Run| native.pass(run)),
            (plan.rounds, &mut compile_round),
            (plan.warm_rounds, &mut |run: &mut Run| warm.round(run)),
        ],
    );

    let medians: Vec<f64> = per_task.iter().map(|times| median(times)).collect();
    let compile_s: f64 = medians.iter().sum();
    run.set("compile_s", compile_s);
    for (task, s) in tasks.iter().zip(&medians) {
        println!(
            "compile {:<16} {:<32} flops {:>11} compile_s {s:.4}",
            task.label,
            task.config,
            task.graph.total_flops()
        );
    }
    println!(
        "compile_s {compile_s:.4} (sum over tasks of each one's median of {} cold compiles)",
        per_task[0].len()
    );
    let cold: Vec<f64> = tasks
        .iter()
        .zip(&winners)
        .filter(|(t, _)| t.bindings.is_some())
        .map(|(_, w)| w.estimated_latency())
        .collect();
    for ((task, p), lat) in executed.iter().zip(&published).zip(&cold) {
        let same = p.estimated_latency().to_bits() == lat.to_bits();
        run.gate.check(same, || {
            format!("{}: store-attached compile differs", task.label)
        });
    }
    let all: Vec<&Task> = tasks.iter().collect();
    let all_winners: Vec<&CompiledGraph> = winners.iter().collect();
    report_latency(&all, &all_winners);
    verify_winners(run, &tasks, &winners);

    warm.report(run);

    if traced {
        let (mut manifests, mut journals) = (Vec::new(), Vec::new());
        let round = Instant::now();
        for (k, task) in tasks.iter().enumerate() {
            let journal = run.work.join(format!("journal-{k}.jsonl"));
            let c = run.trace.span("compile.traced", || {
                task.compile(None, true, Some(&journal))
            });
            manifests.push(fold_manifest(run, "compile.traced", &task.label, &c));
            journals.push(journal);
        }
        let traced_s = round.elapsed().as_secs_f64();
        run.set("trace.overhead_frac", traced_s / compile_s - 1.0);
        let publish_manifests: Vec<Value> = published
            .iter()
            .filter_map(|c| c.timing_manifest().cloned())
            .collect();
        tuner_layers(run, &manifests, &journals);
        store_write_layers(run, &publish_manifests);
        candidate_layers(run, &all, &all_winners);
        store_read_layers(run, &store, &executed, &warm.last);
    }
    native.report(run);
}

/// warm-start: set-up cold-compiles every task into a fresh store; the
/// timed part interleaves warm compile rounds with native passes of the
/// replayed op winners.
fn warm_workload(run: &mut Run) {
    let (seed, variant) = (run.args.seed, run.args.variant);
    let traced = run.trace.enabled();
    let (tasks, store, cold, manifests, journals) = run.setup(WARM_SETUP_REPEATS, |run, rep| {
        let s = run.trace.begin("setup");
        let tasks = warm_start_tasks(seed, variant);
        let store = run.work.join(format!("store-{rep}"));
        let (mut cold, mut manifests, mut journals) = (Vec::new(), Vec::new(), Vec::new());
        for (k, task) in tasks.iter().enumerate() {
            let journal = run.work.join(format!("journal-{rep}-{k}.jsonl"));
            let c = run.trace.span("compile.populate", || {
                task.compile(Some(&store), traced, traced.then_some(journal.as_path()))
            });
            if traced {
                manifests.push(fold_manifest(run, "compile.populate", &task.label, &c));
                journals.push(journal);
            }
            run.gate.check(!c.warm_start() && c.measurements() > 0, || {
                format!("{}: populating compile did not search", task.label)
            });
            cold.push(c.estimated_latency());
        }
        run.trace.end(s);
        (tasks, store, cold, manifests, journals)
    });

    // Warm-up: one untimed warm round, whose winners run natively.
    let all: Vec<&Task> = tasks.iter().collect();
    let mut warm_up = Warm::new(all.clone(), cold.clone(), &store);
    warm_up.round(run);
    let replayed = std::mem::take(&mut warm_up.last);
    let execs = tasks
        .iter()
        .zip(&replayed)
        .filter(|(t, _)| t.bindings.is_some())
        .collect();
    let mut native = Native::warm_up(run, execs);
    let mut warm = Warm::new(all.clone(), cold, &store);
    let plan = &WARM_START;
    interleave(
        run,
        &mut [
            (plan.passes, &mut |run: &mut Run| native.pass(run)),
            (plan.rounds, &mut |run: &mut Run| warm.round(run)),
        ],
    );
    let compile_s: f64 = warm.task_medians().iter().sum();
    run.set("compile_s", compile_s);
    warm.report(run);
    println!(
        "compile_s {compile_s:.6} (sum over tasks of each one's median of {} warm compiles)",
        warm.calls.len() / tasks.len()
    );

    let replayed_refs: Vec<&CompiledGraph> = replayed.iter().collect();
    report_latency(&all, &replayed_refs);
    verify_winners(run, &tasks, &replayed);

    if traced {
        let round = Instant::now();
        for task in &tasks {
            run.trace.span("compile.warm_traced", || {
                task.compile(Some(&store), true, None)
            });
        }
        run.set(
            "trace.overhead_frac",
            round.elapsed().as_secs_f64() / compile_s - 1.0,
        );
        tuner_layers(run, &manifests, &journals);
        store_write_layers(run, &manifests);
        candidate_layers(run, &all, &replayed_refs);
        store_read_layers(run, &store, &all, &replayed);
    }
    native.report(run);
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = PathBuf::from(".perfbench");
    let work = root.join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    println!(
        "perfbench workload={} seed={} variant={} (op draw and tuning seed) seconds={} trace={} nproc={} tuner_jobs={} exec_threads={}",
        args.workload,
        args.seed,
        args.variant,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        CompileOptions::default().jobs,
        alt_codegen::default_threads()
    );
    let mut run = Run {
        trace: Trace::new(args.trace),
        args,
        gate: Gate::default(),
        metrics: BTreeMap::new(),
        reference: calib::Reference::new(),
        refs: Vec::new(),
        work: work.clone(),
        t0: Instant::now(),
    };
    match run.args.workload.as_str() {
        "tune-ops" => cold_workload(&mut run, tune_ops_tasks, &TUNE_OPS),
        "tune-nets" => cold_workload(&mut run, tune_nets_tasks, &TUNE_NETS),
        _ => warm_workload(&mut run),
    }
    run.set("peak_rss_mb", peak_rss_mb());
    // End-to-end times are reported at the nominal host speed. Each
    // reference run stands for the host until the next one, so the median
    // weights it by that span: a burst of quick set-ups or warm rounds
    // must not outvote one long compile.
    let end = Instant::now();
    let weighted: Vec<(f64, f64)> = run
        .refs
        .iter()
        .enumerate()
        .map(|(k, &(at, r))| {
            let next = run.refs.get(k + 1).map_or(end, |&(t, _)| t);
            (r, (next - at).as_secs_f64())
        })
        .collect();
    let slowdown = weighted_median(weighted) / calib::NOMINAL_S;
    println!(
        "host slowdown {slowdown:.4} (time-weighted median of {} reference runs over {:.1} ms nominal); end-to-end times are divided by it",
        run.refs.len(),
        calib::NOMINAL_S * 1e3
    );
    for name in ["setup_s", "compile_s", "native_pass_ms", "warm_compile_ms"] {
        if let Some(v) = run.metrics.get_mut(name) {
            println!("wall-clock {name} {v}");
            *v /= slowdown;
        }
    }
    run.set("trace.spans", run.trace.len() as f64);
    let _ = std::fs::remove_dir_all(&work);

    if run.trace.enabled() {
        let path = root.join(format!(
            "trace-{}-seed{}.json",
            run.args.workload, run.args.seed
        ));
        let text = serde_json::to_string(&run.trace.to_json()).unwrap_or_default();
        match std::fs::write(&path, text) {
            Ok(()) => println!("spans: {} written to {}", run.trace.len(), path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let table: &[spec::Metric] = if run.trace.enabled() {
        &spec::PER_LAYER
    } else {
        &spec::END_TO_END
    };
    let mut metrics = serde_json::Map::default();
    for m in table {
        let value = run.metrics.get(m.name).copied().unwrap_or(f64::NAN);
        run.gate.check(value.is_finite(), || {
            format!("metric {} was not measured", m.name)
        });
        let bound = m.bound.map_or(String::new(), |b| format!(", bound {b}"));
        println!(
            "metric {:<28} {value} {} ({} is better{bound})",
            m.name, m.unit, m.better
        );
        metrics.insert(
            m.name.to_string(),
            serde_json::json!({"value": value, "unit": m.unit}),
        );
    }
    for e in &run.gate.errors {
        println!("FAILED {e}");
    }
    let correct = run.gate.failed == 0;
    let line = serde_json::json!({
        "correct": correct,
        "attempted": run.gate.attempted,
        "failed": run.gate.failed,
        "metrics": Value::Object(metrics),
    });
    println!("{}", serde_json::to_string(&line).unwrap_or_default());
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_median_follows_the_weights() {
        // A burst of quick fast samples does not outvote one long slow one.
        let mut pairs: Vec<(f64, f64)> = (0..20).map(|_| (1.0, 0.01)).collect();
        pairs.push((2.0, 10.0));
        assert_eq!(weighted_median(pairs), 2.0);
        assert_eq!(
            weighted_median(vec![(3.0, 1.0), (1.0, 1.0), (2.0, 1.0)]),
            2.0
        );
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        assert!(median(&[]).is_nan());
    }
}
