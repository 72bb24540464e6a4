//! Shared harness utilities for the per-figure/table benchmark binaries.
//!
//! Every binary prints the same rows/series as the corresponding paper
//! figure or table and also writes a JSON record next to the text output
//! when `ALT_BENCH_JSON` is set to a directory.
//!
//! Budgets default to scaled-down values so the full suite runs in
//! minutes on a laptop; set `ALT_BUDGET_SCALE` (e.g. `5` or `0.5`) to
//! re-scale all budgets toward (or beyond) the paper's settings.

use std::collections::HashMap;

use alt_sim::MachineProfile;
use alt_telemetry::RunSummaryRecord;
use alt_tensor::ops::{self, ConvCfg};
use alt_tensor::{Graph, Shape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Lowers a tuning winner and runs the full static verifier over it,
/// aborting the benchmark on any diagnostic. The figure harnesses call
/// this on every winning (plan, schedule) pair so a regression in
/// transformation legality or lowering can never ship a number. The
/// set-engine counters of every run accumulate into the report's
/// `verify.*` metrics (and thus the bench JSON envelope).
///
/// # Panics
///
/// Panics with the full diagnostic list when verification fails.
pub fn verify_winner(
    report: &mut BenchReport,
    what: &str,
    graph: &Graph,
    plan: &alt_layout::LayoutPlan,
    sched: &alt_loopir::GraphSchedule,
) -> alt_loopir::Program {
    let program = alt_loopir::lower(graph, plan, sched);
    let (diags, stats) = alt_verify::verify_program_with_stats(graph, plan, &program);
    report.add_metric("verify.set_queries", stats.set_queries as f64);
    report.add_metric("verify.set_emptiness_us", stats.set_emptiness_us as f64);
    report.add_metric(
        "verify.conservative_recovered",
        stats.conservative_recovered as f64,
    );
    assert!(
        diags.is_empty(),
        "static verification failed for {what}:\n{}",
        diags
            .iter()
            .map(std::string::ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    program
}

/// Random-walk loop tuning of a single operator under a fixed layout
/// plan: alternates neighbourhood walks around the incumbent with random
/// restarts, measuring every candidate. Leaves `sched` holding the best
/// schedule found and returns its latency.
///
/// This is the shared "loop-only tuning" primitive used by the Fig. 1,
/// Fig. 12 and Table 3 harnesses (simpler and more transparent than the
/// cost-model tuner, which those studies are not about).
pub fn random_walk_loop_tune(
    graph: &Graph,
    plan: &alt_layout::LayoutPlan,
    sched: &mut alt_loopir::GraphSchedule,
    op: alt_tensor::OpId,
    measurer: &mut alt_autotune::Measurer,
    budget: u64,
    seed: u64,
) -> f64 {
    use alt_autotune::space::{build_loop_space, decode_loop_point};
    let space = build_loop_space(graph, plan, op);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best = f64::INFINITY;
    let mut best_p: Option<Vec<usize>> = None;
    for i in 0..budget {
        let p = match (&best_p, i % 2) {
            (Some(bp), 0) => space.neighbor(bp, &mut rng),
            _ => space.random_point(&mut rng),
        };
        let s = decode_loop_point(graph, plan, op, &space, &p);
        let saved = sched.get(op);
        sched.set(op, s);
        let Ok(lat) = measurer.measure_op(plan, sched, op) else {
            sched.set(op, saved);
            continue;
        };
        if lat < best {
            best = lat;
            best_p = Some(p);
        } else {
            sched.set(op, saved);
        }
    }
    best
}

/// Reads the global budget scale from `ALT_BUDGET_SCALE` (default 1.0).
pub fn budget_scale() -> f64 {
    std::env::var("ALT_BUDGET_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

/// Scales a default budget by [`budget_scale`].
pub fn scaled(budget: u64) -> u64 {
    ((budget as f64) * budget_scale()).round().max(1.0) as u64
}

/// Reads the measurement worker-thread count from `ALT_JOBS` (default 1).
/// Any value yields bit-identical tuning results — workers only prewarm
/// the memoized simulation cache — so this trades wall-clock only.
pub fn jobs() -> usize {
    std::env::var("ALT_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&j| j >= 1)
        .unwrap_or(1)
}

/// Opens the durable tuning store named by `ALT_STORE`, if any.
/// An unopenable store (foreign file, held writer lock, incompatible
/// version) degrades to a warning: benchmarks never fail over their
/// warm tier. Rerunning a figure with the same `ALT_STORE` warm-starts
/// every already-tuned task, which is how the cold-vs-warm wall-clock
/// comparison in the store-smoke CI job is produced.
pub fn store_from_env() -> Option<std::sync::Arc<alt_store::Store>> {
    let path = std::env::var("ALT_STORE").ok().filter(|s| !s.is_empty())?;
    match alt_store::Store::open(std::path::Path::new(&path)) {
        Ok(s) => Some(std::sync::Arc::new(s)),
        Err(e) => {
            eprintln!("warning: {e}; continuing without a tuning store");
            None
        }
    }
}

/// Reads the wall-clock self-profiling switch from `ALT_TIMING`
/// (default off). Each call returns a *fresh* handle, so the figure
/// harnesses take one per platform and get per-platform phase
/// attribution. Timing is observation-only: any setting yields
/// bit-identical tuning results.
pub fn timing_from_env() -> alt_telemetry::Timing {
    match std::env::var("ALT_TIMING") {
        Ok(v) if !v.is_empty() && v != "0" => alt_telemetry::Timing::enabled(),
        _ => alt_telemetry::Timing::disabled(),
    }
}

/// Reads the live stderr progress-heartbeat switch from `ALT_PROGRESS`
/// (default off). Like timing, the heartbeat never changes a run.
pub fn progress_from_env() -> bool {
    std::env::var("ALT_PROGRESS")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// FNV-1a over a canonical description string — the same fingerprint
/// construction `alt-core` uses for compile options, applied here to a
/// benchmark configuration so manifests from different runs of the same
/// figure/platform/scale can be matched up.
fn fnv1a(canonical: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in canonical.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Folds one platform's wall-clock self-profile into the report: builds
/// the machine-readable timing manifest (phase totals + environment
/// facts + configuration fingerprint), embeds it in the JSON envelope
/// under `timing.<platform>`, prints the top-level phase split, and —
/// with `ALT_BENCH_JSON` set — writes the raw manifest to
/// `$ALT_BENCH_JSON/<bench>_<platform>.timing.json`. A disabled handle
/// (no `ALT_TIMING`) is a no-op.
pub fn finish_timing(
    report: &mut BenchReport,
    bench: &str,
    platform: &str,
    timing: &alt_telemetry::Timing,
    env: &[(&str, serde_json::Value)],
) {
    let mut facts: Vec<(&str, serde_json::Value)> = vec![
        ("bench", serde_json::json!(bench)),
        ("platform", serde_json::json!(platform)),
        ("os", serde_json::json!(std::env::consts::OS)),
        ("arch", serde_json::json!(std::env::consts::ARCH)),
        ("jobs", serde_json::json!(jobs() as u64)),
        ("budget_scale", serde_json::json!(budget_scale())),
    ];
    facts.extend(env.iter().map(|(k, v)| (*k, v.clone())));
    // The fingerprint names the *configuration*, not the environment:
    // jobs is excluded because every jobs value is result-identical.
    let fp = fnv1a(&format!(
        "bench={bench} platform={platform} scale={}",
        budget_scale()
    ));
    let Some(manifest) = timing.manifest(&facts, fp) else {
        return;
    };
    if let Some(root) = timing.snapshot() {
        let parts: Vec<String> = root
            .children
            .iter()
            .map(|c| {
                format!(
                    "{} {:.2} s x{}",
                    c.name,
                    c.inclusive_us as f64 / 1e6,
                    c.count
                )
            })
            .collect();
        if !parts.is_empty() {
            println!("ALT pipeline timing on {platform}: {}", parts.join(", "));
        }
    }
    if let Ok(dir) = std::env::var("ALT_BENCH_JSON") {
        let path = std::path::Path::new(&dir).join(format!("{bench}_{platform}.timing.json"));
        let body = serde_json::to_string_pretty(&manifest).unwrap_or_default();
        if let Err(e) = std::fs::write(&path, format!("{body}\n")) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
    }
    report.note_timing(platform, manifest);
}

/// Formats a latency in adaptive units.
pub fn fmt_latency(seconds: f64) -> String {
    if seconds >= 1e-3 {
        format!("{:.2} ms", seconds * 1e3)
    } else {
        format!("{:.1} us", seconds * 1e6)
    }
}

/// A simple fixed-width table printer.
pub struct TablePrinter {
    widths: Vec<usize>,
}

impl TablePrinter {
    /// Creates a printer and prints the header row.
    pub fn new(headers: &[&str], widths: &[usize]) -> Self {
        let p = Self {
            widths: widths.to_vec(),
        };
        p.row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        p.rule();
        p
    }

    /// Prints one row.
    pub fn row(&self, cells: &[String]) {
        let line: Vec<String> = cells
            .iter()
            .zip(self.widths.iter())
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("{}", line.join("  "));
    }

    /// Prints a horizontal rule.
    pub fn rule(&self) {
        let total: usize = self.widths.iter().sum::<usize>() + 2 * (self.widths.len() - 1);
        println!("{}", "-".repeat(total));
    }
}

/// Collects a benchmark binary's JSON result rows and writes them in a
/// single envelope — `{bench, budget_scale, run_summary, rows}` — to
/// `$ALT_BENCH_JSON/<name>.json`. The embedded [`RunSummaryRecord`] is
/// the same schema the tuning trace ends with, so downstream tooling can
/// treat figure results and `altc` traces uniformly.
pub struct BenchReport {
    name: String,
    started: std::time::Instant,
    rows: Vec<serde_json::Value>,
    metrics: std::collections::BTreeMap<String, f64>,
    profile: Option<serde_json::Value>,
    timing: serde_json::Map,
    joint_budget: u64,
    loop_budget: u64,
    measurements: u64,
    best_latency_s: f64,
}

impl BenchReport {
    /// Starts a report (and its wall-time clock) for one figure/table.
    pub fn new(name: &str) -> Self {
        Self {
            name: name.to_string(),
            started: std::time::Instant::now(),
            rows: Vec::new(),
            metrics: std::collections::BTreeMap::new(),
            profile: None,
            timing: serde_json::Map::default(),
            joint_budget: 0,
            loop_budget: 0,
            measurements: 0,
            best_latency_s: f64::INFINITY,
        }
    }

    /// Appends one result row.
    pub fn push(&mut self, row: serde_json::Value) {
        self.rows.push(row);
    }

    /// The rows collected so far.
    pub fn rows(&self) -> &[serde_json::Value] {
        &self.rows
    }

    /// Records a named headline metric (e.g.
    /// `intel-cpu/alt_geomean_latency_s`). Metrics go into the JSON
    /// envelope and the `BENCH_<name>.json` trajectory the regression
    /// gate (`scripts/bench_check`) compares across runs. By convention
    /// metric names containing `latency` are lower-is-better and names
    /// containing `speedup` are higher-is-better; anything else is
    /// informational only.
    pub fn note_metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Accumulates into a named metric (creating it at zero): used for
    /// counters folded over many runs, e.g. the verifier's `verify.*`
    /// set-engine totals.
    pub fn add_metric(&mut self, name: impl Into<String>, value: f64) {
        *self.metrics.entry(name.into()).or_insert(0.0) += value;
    }

    /// Attaches the winning schedule's cost-attribution summary (the
    /// value of `alt_profiler::summary_json`) to the envelope.
    pub fn set_profile(&mut self, profile: serde_json::Value) {
        self.profile = Some(profile);
    }

    /// Embeds one platform's pipeline-timing manifest (the value of
    /// `alt_telemetry::Timing::manifest`) in the envelope under
    /// `timing.<platform>`. See [`finish_timing`] for the usual path.
    pub fn note_timing(&mut self, platform: &str, manifest: serde_json::Value) {
        self.timing.insert(platform.to_string(), manifest);
    }

    /// Accumulates the budgets configured for one tuning run.
    pub fn note_budget(&mut self, joint: u64, loop_: u64) {
        self.joint_budget += joint;
        self.loop_budget += loop_;
    }

    /// Accumulates one tuning run's outcome: measurements consumed and
    /// the latency it reached (the summary keeps the best).
    pub fn note_run(&mut self, measurements: u64, latency_s: f64) {
        self.measurements += measurements;
        if latency_s < self.best_latency_s {
            self.best_latency_s = latency_s;
        }
    }

    /// The aggregated run summary over every noted tuning run.
    pub fn run_summary(&self) -> RunSummaryRecord {
        RunSummaryRecord {
            joint_budget: self.joint_budget,
            loop_budget: self.loop_budget,
            measurements: self.measurements,
            best_latency_s: if self.best_latency_s.is_finite() {
                self.best_latency_s
            } else {
                0.0
            },
            wall_s: self.started.elapsed().as_secs_f64(),
        }
    }

    /// Writes the enveloped rows if `ALT_BENCH_JSON` points at a
    /// directory, and appends a trajectory entry if `ALT_BENCH_TRAJ`
    /// points at one (no-op otherwise, like the text-only default).
    pub fn write(self) {
        let summary = serde_json::to_value(&self.run_summary());
        if let Ok(dir) = std::env::var("ALT_BENCH_JSON") {
            let mut envelope = serde_json::json!({
                "bench": self.name,
                "budget_scale": budget_scale(),
                "run_summary": summary.clone(),
                "metrics": metrics_json(&self.metrics),
                "rows": serde_json::Value::Array(self.rows.clone()),
            });
            if let (serde_json::Value::Object(o), Some(p)) = (&mut envelope, &self.profile) {
                o.insert("profile".to_string(), p.clone());
            }
            if let (serde_json::Value::Object(o), false) = (&mut envelope, self.timing.is_empty()) {
                o.insert(
                    "timing".to_string(),
                    serde_json::Value::Object(self.timing.clone()),
                );
            }
            let path = std::path::Path::new(&dir).join(format!("{}.json", self.name));
            if let Err(e) = std::fs::write(&path, serde_json::to_string_pretty(&envelope).unwrap())
            {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        if let Ok(dir) = std::env::var("ALT_BENCH_TRAJ") {
            if let Err(e) = self.append_trajectory(std::path::Path::new(&dir)) {
                eprintln!("warning: could not update trajectory in {dir}: {e}");
            }
        }
    }

    /// Appends `{budget_scale, metrics, run_summary}` to
    /// `<dir>/BENCH_<name>.json`, the per-bench metric trajectory that
    /// `scripts/bench_check` gates regressions on.
    fn append_trajectory(&self, dir: &std::path::Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("BENCH_{}.json", self.name));
        let mut entries: Vec<serde_json::Value> = match std::fs::read_to_string(&path) {
            Ok(text) => {
                let v: serde_json::Value = serde_json::from_str(&text).map_err(|e| {
                    std::io::Error::new(
                        std::io::ErrorKind::InvalidData,
                        format!("{}: {e:?}", path.display()),
                    )
                })?;
                match v.get("entries").and_then(serde_json::Value::as_array) {
                    Some(a) => a.clone(),
                    None => Vec::new(),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        entries.push(serde_json::json!({
            "budget_scale": budget_scale(),
            "metrics": metrics_json(&self.metrics),
            "run_summary": serde_json::to_value(&self.run_summary()),
        }));
        let doc = serde_json::json!({
            "bench": self.name,
            "entries": serde_json::Value::Array(entries),
        });
        std::fs::write(&path, serde_json::to_string_pretty(&doc).unwrap())
    }
}

/// Per-platform aggregation of per-run search-journal diagnostics
/// (ISSUE 6): each ALT tuning run gets its own in-memory journal, its
/// convergence/calibration summary is folded in here, and the averages
/// land in the [`BenchReport`] metrics (and thus the bench trajectory).
/// With `ALT_BENCH_JSON` set, the raw journals are also written as one
/// JSONL file per platform for `altc inspect`.
#[derive(Default)]
pub struct JournalStats {
    spearman: Vec<f64>,
    /// (predicted, measured) pairs over all runs.
    pairs: u64,
    /// Runs with fewer than two pairs, which have no Spearman.
    insufficient: u64,
    p95_frac: Vec<f64>,
    lines: Vec<String>,
}

impl JournalStats {
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one finished tuning run's journal in. `budget` is the
    /// run's configured measurement budget, used to normalize
    /// budget-to-p95-of-final into a fraction comparable across runs.
    pub fn note_run(&mut self, sink: &alt_journal::MemoryJournal, budget: u64) {
        let records = sink.records();
        let insp = alt_journal::inspect(&records);
        // Rank correlation needs at least two (predicted, measured)
        // pairs to mean anything; small-budget runs may have none.
        self.pairs += insp.calibration.pairs;
        if insp.calibration.pairs >= 2 {
            self.spearman.push(insp.calibration.final_spearman);
        } else {
            self.insufficient += 1;
        }
        if budget > 0 {
            if let Some(b) = insp.convergence.budget_to_p95_of_final {
                self.p95_frac.push(b as f64 / budget as f64);
            }
        }
        self.lines.extend(sink.lines());
    }

    /// Records the platform's aggregate journal metrics on the report —
    /// mean final Spearman rank correlation of the cost model and mean
    /// fraction of the budget needed to reach 95% of final quality —
    /// and writes the collected journals to
    /// `$ALT_BENCH_JSON/<bench>_<platform>.journal.jsonl` when set.
    ///
    /// `journal_pairs` (all runs' pairs) and `journal_insufficient` (runs
    /// with fewer than two pairs) are always recorded, so a missing
    /// `journal_final_spearman` is explained by the same entry.
    pub fn finish(self, report: &mut BenchReport, bench: &str, platform: &str) {
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        report.note_metric(format!("{platform}/journal_pairs"), self.pairs as f64);
        report.note_metric(
            format!("{platform}/journal_insufficient"),
            self.insufficient as f64,
        );
        if !self.spearman.is_empty() {
            report.note_metric(
                format!("{platform}/journal_final_spearman"),
                mean(&self.spearman),
            );
        }
        if !self.p95_frac.is_empty() {
            report.note_metric(
                format!("{platform}/journal_budget_to_p95_frac"),
                mean(&self.p95_frac),
            );
        }
        if self.lines.is_empty() {
            return;
        }
        if let Ok(dir) = std::env::var("ALT_BENCH_JSON") {
            let path = std::path::Path::new(&dir).join(format!("{bench}_{platform}.journal.jsonl"));
            let mut text = self.lines.join("\n");
            text.push('\n');
            if let Err(e) = std::fs::write(&path, text) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
    }
}

fn metrics_json(metrics: &std::collections::BTreeMap<String, f64>) -> serde_json::Value {
    serde_json::Value::Object(
        metrics
            .iter()
            .map(|(k, v)| (k.clone(), serde_json::to_value(v)))
            .collect(),
    )
}

/// Geometric mean of positive values.
pub fn geomean(vals: &[f64]) -> f64 {
    if vals.is_empty() {
        return 0.0;
    }
    (vals.iter().map(|v| v.ln()).sum::<f64>() / vals.len() as f64).exp()
}

/// One single-operator workload (paper §7.1).
#[derive(Clone, Debug)]
pub struct OperatorCase {
    /// Operator family name (C2D, GRP, ...).
    pub op: &'static str,
    /// Configuration description.
    pub config: String,
    /// The graph containing exactly this operator.
    pub graph: Graph,
}

fn pick<T: Copy>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())]
}

/// Builds a conv-family single-operator graph.
#[allow(clippy::too_many_arguments)]
fn conv_case(
    op: &'static str,
    n: i64,
    i: i64,
    o: i64,
    hw: i64,
    k: i64,
    stride: i64,
    groups: i64,
    dilation: i64,
) -> OperatorCase {
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new([n, i, hw, hw]));
    let w = g.add_param("w", Shape::new([o, i / groups, k, k]));
    let _ = ops::conv2d(
        &mut g,
        x,
        w,
        ConvCfg {
            stride,
            groups,
            dilation,
            ..ConvCfg::default()
        },
    );
    OperatorCase {
        op,
        config: format!("n{n}_i{i}_o{o}_s{hw}_k{k}_st{stride}_g{groups}_d{dilation}"),
        graph: g,
    }
}

/// The nine layout-sensitive operator families of Fig. 9, with `count`
/// random configurations each (deterministic in `seed`).
pub fn single_op_cases(count: usize, seed: u64) -> Vec<OperatorCase> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cases = Vec::new();
    // Sampling pools follow §7.1: batch in [1, 16], channels from a wide
    // list, spatial sizes and kernel sizes from common settings. Sizes
    // are kept divisor-friendly.
    let batches = [1i64, 16];
    let chans = [16i64, 32, 64, 128];
    let spat = [16i64, 32, 64];
    for _ in 0..count {
        let n = pick(&mut rng, &batches);
        let i = pick(&mut rng, &chans);
        let o = pick(&mut rng, &chans);
        let s = pick(&mut rng, &spat);
        let k = pick(&mut rng, &[1i64, 3]);
        let st = pick(&mut rng, &[1i64, 2]);
        let hw = s + k - 1 + (s % st);
        // C2D.
        cases.push(conv_case("C2D", n, i, o, hw, k, st, 1, 1));
        // Group-wise (4 groups).
        let gi = (i / 4).max(1) * 4;
        let go = (o / 4).max(1) * 4;
        cases.push(conv_case("GRP", n, gi, go, hw, k, st, 4, 1));
        // Dilated.
        cases.push(conv_case("DIL", n, i, o, s + (k - 1) * 2 + 1, k, 1, 1, 2));
        // Depth-wise.
        cases.push(conv_case("DEP", n, i, i, hw, k, st, i, 1));
        // C3D.
        {
            let mut g = Graph::new();
            let d = 8 + k - 1;
            let sp = s.min(32) + k - 1;
            let x = g.add_input("x", Shape::new([n, i.min(32), d, sp, sp]));
            let w = g.add_param("w", Shape::new([o.min(32), i.min(32), k, k, k]));
            let _ = ops::conv3d(&mut g, x, w, ConvCfg::default());
            cases.push(OperatorCase {
                op: "C3D",
                config: format!("n{n}_i{}_o{}_s{sp}_k{k}", i.min(32), o.min(32)),
                graph: g,
            });
        }
        // C1D.
        {
            let mut g = Graph::new();
            let len = s * 8 + k - 1;
            let x = g.add_input("x", Shape::new([n, i, len]));
            let w = g.add_param("w", Shape::new([o, i, k]));
            let _ = ops::conv1d(&mut g, x, w, ConvCfg::default());
            cases.push(OperatorCase {
                op: "C1D",
                config: format!("n{n}_i{i}_o{o}_l{len}_k{k}"),
                graph: g,
            });
        }
        // GMM.
        {
            let mut g = Graph::new();
            let m = pick(&mut rng, &[64i64, 128, 256]) * n.min(4);
            let kk = pick(&mut rng, &[64i64, 128, 256]);
            let nn = pick(&mut rng, &[64i64, 128, 256]);
            let a = g.add_input("a", Shape::new([m, kk]));
            let b = g.add_param("b", Shape::new([kk, nn]));
            let _ = ops::gmm(&mut g, a, b);
            cases.push(OperatorCase {
                op: "GMM",
                config: format!("m{m}_k{kk}_n{nn}"),
                graph: g,
            });
        }
        // T2D.
        {
            let mut g = Graph::new();
            let sp = s.min(32);
            let x = g.add_input("x", Shape::new([n, i, sp, sp]));
            let w = g.add_param("w", Shape::new([i, o, k, k]));
            let _ = ops::tconv2d(&mut g, x, w, st);
            cases.push(OperatorCase {
                op: "T2D",
                config: format!("n{n}_i{i}_o{o}_s{sp}_k{k}_st{st}"),
                graph: g,
            });
        }
        // T3D.
        {
            let mut g = Graph::new();
            let sp = 16;
            let x = g.add_input("x", Shape::new([n, i.min(32), 4, sp, sp]));
            let w = g.add_param("w", Shape::new([i.min(32), o.min(32), k, k, k]));
            let _ = ops::tconv3d(&mut g, x, w, st);
            cases.push(OperatorCase {
                op: "T3D",
                config: format!("n{n}_i{}_o{}_s{sp}_k{k}_st{st}", i.min(32), o.min(32)),
                graph: g,
            });
        }
    }
    cases
}

/// Normalized performance: each case's latencies scaled so the *worst*
/// system gets its speedup = 1, then geometric-mean per system (the
/// paper's normalization for Figs. 9/10).
pub fn normalized_performance(
    per_case: &[HashMap<String, f64>],
    systems: &[&str],
) -> HashMap<String, f64> {
    let mut speedups: HashMap<String, Vec<f64>> = HashMap::new();
    for case in per_case {
        let worst = case.values().cloned().fold(f64::MIN, f64::max);
        for (sys, lat) in case {
            speedups.entry(sys.clone()).or_default().push(worst / lat);
        }
    }
    let best_mean = systems
        .iter()
        .filter_map(|s| speedups.get(*s).map(|v| geomean(v)))
        .fold(f64::MIN, f64::max);
    systems
        .iter()
        .map(|s| {
            let m = speedups.get(*s).map(|v| geomean(v)).unwrap_or(0.0);
            (s.to_string(), m / best_mean)
        })
        .collect()
}

/// Three-platform list used by most figures.
pub fn platforms() -> Vec<MachineProfile> {
    vec![
        alt_sim::intel_cpu(),
        alt_sim::nvidia_gpu(),
        alt_sim::arm_cpu(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_cover_all_nine_ops() {
        let cases = single_op_cases(1, 0);
        let ops: std::collections::HashSet<_> = cases.iter().map(|c| c.op).collect();
        for o in [
            "C2D", "GRP", "DIL", "DEP", "C3D", "C1D", "GMM", "T2D", "T3D",
        ] {
            assert!(ops.contains(o), "missing {o}");
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let a = single_op_cases(2, 7);
        let b = single_op_cases(2, 7);
        assert_eq!(
            a.iter().map(|c| c.config.clone()).collect::<Vec<_>>(),
            b.iter().map(|c| c.config.clone()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn trajectory_appends_entries() {
        let dir = std::env::temp_dir().join(format!("alt-bench-traj-{}", std::process::id()));
        for latency in [1.5e-3, 1.2e-3] {
            let mut r = BenchReport::new("figtest");
            r.note_metric("intel-cpu/alt_geomean_latency_s", latency);
            r.append_trajectory(&dir).unwrap();
        }
        let text = std::fs::read_to_string(dir.join("BENCH_figtest.json")).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let entries = doc.get("entries").and_then(|e| e.as_array()).unwrap();
        assert_eq!(entries.len(), 2);
        let last = entries[1]
            .get("metrics")
            .and_then(|m| m.get("intel-cpu/alt_geomean_latency_s"))
            .and_then(serde_json::Value::as_f64)
            .unwrap();
        assert_eq!(last, 1.2e-3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_stats_aggregate_into_report_metrics() {
        use alt_journal::{outcome, provenance, CandidateRecord, JournalRecord};
        let (journal, sink) = alt_journal::Journal::memory();
        // Four budgeted candidates with a perfectly-ranked model; the
        // best appears at budget 2 of 4, so p95-frac is 0.5.
        for (i, (pred, lat)) in [(-4.0, 4.0), (-1.0, 1.0), (-2.0, 2.0), (-3.0, 3.0)]
            .into_iter()
            .enumerate()
        {
            journal.emit(JournalRecord::Candidate(CandidateRecord {
                op: "c2d#0".into(),
                stage: "loop".into(),
                round: 1,
                provenance: provenance::RANDOM.into(),
                point: vec![i as u64],
                outcome: outcome::MEASURED.into(),
                predicted: Some(pred),
                latency_s: Some(lat),
                vcode: None,
                error: None,
                attempts: 1,
                budget_end: i as u64 + 1,
                program_fp: None,
                cache_key: None,
            }));
        }
        let mut stats = JournalStats::new();
        stats.note_run(&sink, 4);
        // A run that measured nothing has no Spearman; it is counted.
        let (_, empty) = alt_journal::Journal::memory();
        stats.note_run(&empty, 4);
        let mut report = BenchReport::new("journal-stats-test");
        stats.finish(&mut report, "figtest", "intel-cpu");
        let mut only_empty = JournalStats::new();
        only_empty.note_run(&empty, 4);
        only_empty.finish(&mut report, "figtest", "arm-cpu");
        let dir = std::env::temp_dir().join(format!("alt-bench-jstats-{}", std::process::id()));
        report.append_trajectory(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join("BENCH_journal-stats-test.json")).unwrap();
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        let metrics = &doc["entries"][0]["metrics"];
        let spearman = metrics["intel-cpu/journal_final_spearman"]
            .as_f64()
            .unwrap();
        assert!((spearman - 1.0).abs() < 1e-12, "{spearman}");
        let frac = metrics["intel-cpu/journal_budget_to_p95_frac"]
            .as_f64()
            .unwrap();
        assert!((frac - 0.5).abs() < 1e-12, "{frac}");
        assert_eq!(metrics["intel-cpu/journal_pairs"].as_f64(), Some(4.0));
        assert_eq!(
            metrics["intel-cpu/journal_insufficient"].as_f64(),
            Some(1.0)
        );
        // Without a single sufficient run the Spearman key is absent, and
        // the counts say why.
        assert!(metrics.get("arm-cpu/journal_final_spearman").is_none());
        assert_eq!(metrics["arm-cpu/journal_pairs"].as_f64(), Some(0.0));
        assert_eq!(metrics["arm-cpu/journal_insufficient"].as_f64(), Some(1.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn geomean_basics() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn normalization_best_is_one() {
        let mut case = HashMap::new();
        case.insert("a".to_string(), 1.0);
        case.insert("b".to_string(), 2.0);
        let norm = normalized_performance(&[case], &["a", "b"]);
        assert!((norm["a"] - 1.0).abs() < 1e-9);
        assert!((norm["b"] - 0.5).abs() < 1e-9);
    }
}
