//! Bench regression gate.
//!
//! Compares the newest entry of every `BENCH_<name>.json` trajectory in a
//! candidate directory against the newest entry in a baseline directory
//! and fails (exit 1) when the gated metrics regress by more than the
//! tolerance in geometric mean, or when the candidate drops a gated
//! metric the baseline records without naming it in its entry's
//! `retired` list.
//!
//! Trajectories whose entries hold per-workload results (perfbench's
//! `BENCH_perfbench.json`) have no baseline file: each one's newest
//! entry is checked metric by metric for every end-to-end metric
//! `BENCHMARK.json` declares (read from the candidate directory's
//! parent, never written). Each metric is compared with the newest
//! entry's own `parent_metrics` for its workload, the parent commit
//! measured in the same session, where the entry records it, and with
//! the previous entry otherwise: two sessions on a shared host can differ
//! by more than a bound while the code does not. A move worse than the
//! metric's bound is flagged and fails the gate like a regression, and so
//! is a bounded metric, a traced per-layer key (an entry's `traced`
//! object) or a whole workload that the previous entry recorded and the
//! newest one drops, unless the newest entry names it in its `retired`
//! list.
//!
//! Metric direction is by naming convention (see
//! `alt_bench::BenchReport::note_metric`): names containing `latency`
//! are lower-is-better, names containing `speedup` are higher-is-better,
//! and anything else is reported but never gated. Entries recorded at a
//! different `budget_scale` than the baseline are skipped with a warning
//! — comparing runs with different budgets would gate noise, not code.
//!
//! ```text
//! bench_check --baseline results/bench_baseline --candidate bench_traj
//! bench_check --candidate bench_traj --tolerance 0.10 --report-only
//! ```

use alt_bench::geomean;
use serde_json::Value;

struct Args {
    baseline: String,
    candidate: String,
    tolerance: f64,
    report_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        baseline: "results/bench_baseline".into(),
        candidate: "bench_traj".into(),
        tolerance: 0.05,
        report_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match a.as_str() {
            "--baseline" => args.baseline = value("--baseline")?,
            "--candidate" => args.candidate = value("--candidate")?,
            "--tolerance" => {
                args.tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("--tolerance: {e}"))?
            }
            "--report-only" => args.report_only = true,
            "--help" | "-h" => {
                println!(
                    "usage: bench_check [--baseline DIR] [--candidate DIR]\n\
                     \x20                  [--tolerance FRAC] [--report-only]\n\
                     \n\
                     Compares the newest BENCH_<name>.json trajectory entries in\n\
                     --candidate (default bench_traj) against --baseline (default\n\
                     results/bench_baseline); exits 1 when lower-is-better metrics\n\
                     regress by more than FRAC (default 0.05) in geometric mean,\n\
                     or when the candidate drops a gated metric the baseline\n\
                     records without naming it in its entry's `retired` list.\n\
                     Per-workload trajectories (BENCH_perfbench.json) compare their\n\
                     newest entry with its same-session `parent_metrics` where it\n\
                     records them, else with the previous entry, and fail on a move\n\
                     worse than the metric's bound in BENCHMARK.json, or on a\n\
                     metric, traced per-layer key or workload the newest entry\n\
                     drops (against the previous entry) without naming it in its\n\
                     `retired` list.\n\
                     --report-only prints the comparison but always exits 0."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
    }
    Ok(args)
}

/// The newest entry of one `BENCH_<name>.json` trajectory.
struct Latest {
    budget_scale: f64,
    /// Metric name -> value.
    metrics: Vec<(String, f64)>,
    /// The metrics the entry's `retired` list names.
    retired: Vec<String>,
}

fn latest_entry(doc: &Value) -> Option<Latest> {
    let entry = doc.get("entries")?.as_array()?.last()?;
    let metrics = entry
        .get("metrics")?
        .as_object()?
        .iter()
        .filter_map(|(k, v)| v.as_f64().map(|f| (k.clone(), f)))
        .collect();
    let retired = entry
        .get("retired")
        .and_then(Value::as_array)
        .map(|keys| {
            keys.iter()
                .filter_map(Value::as_str)
                .map(String::from)
                .collect()
        })
        .unwrap_or_default();
    Some(Latest {
        budget_scale: entry.get("budget_scale")?.as_f64()?,
        metrics,
        retired,
    })
}

/// Whether a metric is gated: `latency` names are lower-is-better and
/// `speedup` names higher-is-better; anything else is informational.
fn gated(name: &str) -> bool {
    name.contains("latency") || name.contains("speedup")
}

/// Regression ratio for one metric: > 1 means the candidate is worse.
/// `None` for ungated (informational) metrics.
fn regression_ratio(name: &str, baseline: f64, candidate: f64) -> Option<f64> {
    if !(gated(name) && baseline > 0.0 && candidate > 0.0) {
        return None;
    }
    if name.contains("latency") {
        Some(candidate / baseline)
    } else {
        Some(baseline / candidate)
    }
}

/// One metric of a candidate entry against its baseline entry.
struct Compared {
    metric: String,
    baseline: Option<f64>,
    candidate: Option<f64>,
    /// A gated metric the baseline records and the candidate drops
    /// without retiring it.
    dropped: bool,
}

/// Every metric the candidate records, then every metric the baseline
/// records that the candidate lacks. A gated one of the latter is flagged
/// as dropped unless the candidate's `retired` list names it.
fn compare_entries(baseline: &Latest, candidate: &Latest) -> Vec<Compared> {
    let value = |e: &Latest, m: &str| e.metrics.iter().find(|(k, _)| k == m).map(|(_, v)| *v);
    let kept = candidate.metrics.iter().map(|(metric, cv)| Compared {
        metric: metric.clone(),
        baseline: value(baseline, metric),
        candidate: Some(*cv),
        dropped: false,
    });
    let lost = baseline
        .metrics
        .iter()
        .filter(|(metric, _)| value(candidate, metric).is_none())
        .map(|(metric, bv)| Compared {
            metric: metric.clone(),
            baseline: Some(*bv),
            candidate: None,
            dropped: gated(metric) && !candidate.retired.contains(metric),
        });
    kept.chain(lost).collect()
}

/// One end-to-end metric of `BENCHMARK.json`: name, whether lower is
/// better, and the relative move it tolerates.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds(spec: &Value) -> Vec<Bound> {
    spec.get("end_to_end")
        .and_then(Value::as_array)
        .map(|ms| {
            ms.iter()
                .filter_map(|m| {
                    Some(Bound {
                        name: m.get("name")?.as_str()?.to_string(),
                        lower_is_better: m.get("better")?.as_str()? == "lower",
                        bound: m.get("bound")?.as_f64()?,
                    })
                })
                .collect()
        })
        .unwrap_or_default()
}

/// Where a move's baseline value comes from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Baseline {
    /// The newest entry's `parent_metrics`: its parent commit, measured
    /// in the same session.
    Parent,
    /// The previous entry, measured in another session.
    Previous,
}

/// One metric of a workload trajectory's newest entry against its
/// baseline.
struct Move {
    workload: String,
    metric: String,
    baseline: f64,
    against: Baseline,
    /// `None` when the newest entry dropped the metric or its workload.
    newest: Option<f64>,
    /// Worse than the metric's bound, or dropped without being retired.
    flagged: bool,
}

/// The newest entry of a per-workload trajectory, for every bounded
/// metric it or the previous entry records: a kept metric against the
/// newest entry's same-session `parent_metrics` for its workload where
/// they hold it, else against the previous entry. Every traced per-layer
/// key the previous entry records and the newest lacks is a move too. A
/// metric or key the newest entry lacks (on its own or with its whole
/// workload) is a flagged move against the previous entry unless the
/// newest entry's `retired` list names it or the workload. `None` when
/// the document is not a per-workload trajectory or has fewer than two
/// entries.
fn trajectory_moves(doc: &Value, bounds: &[Bound]) -> Option<Vec<Move>> {
    let entries = doc.get("entries")?.as_array()?;
    let [.., previous, newest] = entries.as_slice() else {
        return None;
    };
    let (prev, new) = (
        previous.get("workloads")?.as_object()?,
        newest.get("workloads")?.as_object()?,
    );
    let retired: Vec<&str> = newest
        .get("retired")
        .and_then(Value::as_array)
        .map(|keys| keys.iter().filter_map(Value::as_str).collect())
        .unwrap_or_default();
    let dropped =
        |workload: &str, name: &str| !retired.contains(&name) && !retired.contains(&workload);
    let value = |w: Option<&Value>, key: &str, name: &str| w?.get(key)?.get(name)?.as_f64();
    fn traced(w: &Value) -> Option<&serde_json::Map> {
        w.get("traced")?.as_object()
    }
    let mut moves = Vec::new();
    let added = new.keys().filter(|w| !prev.contains_key(w));
    for workload in prev.keys().chain(added) {
        let (p, n) = (prev.get(workload), new.get(workload));
        for b in bounds {
            let newest = value(n, "metrics", &b.name);
            let (baseline, against) = match (
                newest,
                value(n, "parent_metrics", &b.name),
                value(p, "metrics", &b.name),
            ) {
                (Some(_), Some(parent), _) => (parent, Baseline::Parent),
                (_, _, Some(previous)) => (previous, Baseline::Previous),
                _ => continue,
            };
            let flagged = match newest {
                Some(v) if b.lower_is_better => v / baseline > 1.0 + b.bound,
                Some(v) => v / baseline < 1.0 - b.bound,
                None => dropped(workload, &b.name),
            };
            moves.push(Move {
                workload: workload.clone(),
                metric: b.name.clone(),
                baseline,
                against,
                newest,
                flagged,
            });
        }
        // Traced per-layer keys have no bound; only dropping one moves.
        let Some(p) = p else { continue };
        let kept = n.and_then(traced);
        for (key, previous) in traced(p).into_iter().flatten() {
            let Some(previous) = previous.as_f64() else {
                continue;
            };
            if kept.is_some_and(|t| t.contains_key(key)) {
                continue;
            }
            moves.push(Move {
                workload: workload.clone(),
                metric: key.clone(),
                baseline: previous,
                against: Baseline::Previous,
                newest: None,
                flagged: dropped(workload, key),
            });
        }
    }
    Some(moves)
}

/// Prints a per-workload trajectory's moves, each with the baseline it
/// used; returns whether any was flagged.
fn report_trajectory(name: &str, doc: &Value, bounds: &[Bound]) -> bool {
    let Some(moves) = trajectory_moves(doc, bounds) else {
        println!("{name}: fewer than two per-workload entries; nothing to compare");
        return false;
    };
    let label = |k: usize| {
        doc["entries"]
            .as_array()
            .and_then(|es| es.iter().rev().nth(k))
            .and_then(|e| e["commit"].as_str())
            .unwrap_or("?")
            .to_string()
    };
    println!(
        "{name}: newest entry ({}) vs its same-session parent, or vs the previous \
         entry ({}) where it records none; bounds from BENCHMARK.json:",
        label(0),
        label(1)
    );
    for m in &moves {
        let (workload, metric, baseline) = (&m.workload, &m.metric, m.baseline);
        let against = match m.against {
            Baseline::Parent => "parent",
            Baseline::Previous => "previous",
        };
        match m.newest {
            Some(newest) => {
                let ratio = newest / baseline;
                let verdict = if m.flagged { "  WORSE THAN BOUND" } else { "" };
                println!(
                    "    {workload:<10} {metric:<16} {against:<8} {baseline:.4} -> {newest:.4}  (x{ratio:.3}){verdict}"
                );
            }
            None => {
                let verdict = if m.flagged {
                    "DROPPED, not retired"
                } else {
                    "retired"
                };
                println!(
                    "    {workload:<10} {metric:<16} {against:<8} {baseline:.4} -> none  ({verdict})"
                );
            }
        }
    }
    moves.iter().any(|m| m.flagged)
}

fn load(path: &std::path::Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let baseline_dir = std::path::Path::new(&args.baseline);
    let candidate_dir = std::path::Path::new(&args.candidate);
    let mut names: Vec<String> = match std::fs::read_dir(candidate_dir) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .filter_map(|e| e.file_name().into_string().ok())
            .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
            .collect(),
        Err(e) => {
            eprintln!("error: --candidate {}: {e}", candidate_dir.display());
            std::process::exit(2);
        }
    };
    names.sort();
    if names.is_empty() {
        eprintln!(
            "error: no BENCH_*.json trajectories in {}",
            candidate_dir.display()
        );
        std::process::exit(2);
    }

    let spec = load(&candidate_dir.join("..").join("BENCHMARK.json")).ok();
    let bounds = spec.as_ref().map(bounds).unwrap_or_default();
    let mut ratios: Vec<f64> = Vec::new();
    let mut per_bench: Vec<(String, Vec<f64>)> = Vec::new();
    let mut compared = 0usize;
    let mut trajectory_flagged = false;
    let mut dropped = false;
    for name in &names {
        let cand_path = candidate_dir.join(name);
        let base_path = baseline_dir.join(name);
        if let Ok(doc) = load(&cand_path) {
            if doc["entries"][0].get("workloads").is_some() {
                if bounds.is_empty() {
                    println!("{name}: no BENCHMARK.json bounds found; skipped");
                } else {
                    trajectory_flagged |= report_trajectory(name, &doc, &bounds);
                }
                continue;
            }
        }
        if !base_path.exists() {
            println!("{name}: no baseline (new bench, skipped)");
            continue;
        }
        let (cand, base) = match (load(&cand_path), load(&base_path)) {
            (Ok(c), Ok(b)) => (c, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        };
        let (Some(cand), Some(base)) = (latest_entry(&cand), latest_entry(&base)) else {
            eprintln!("error: {name}: trajectory has no complete entries");
            std::process::exit(2);
        };
        let (cs, bs) = (cand.budget_scale, base.budget_scale);
        if cs != bs {
            println!(
                "{name}: budget_scale differs (baseline {bs}, candidate {cs}); skipped — \
                 re-run at the baseline's scale to gate"
            );
            continue;
        }
        println!("{name} (budget_scale {cs}):");
        let mut bench_ratios: Vec<f64> = Vec::new();
        for c in compare_entries(&base, &cand) {
            let metric = &c.metric;
            let (bv, cv) = match (c.baseline, c.candidate) {
                (Some(bv), Some(cv)) => (bv, cv),
                (None, Some(cv)) => {
                    println!("    {metric}: {cv:.4e} (no baseline value)");
                    continue;
                }
                (Some(bv), None) => {
                    let verdict = if c.dropped {
                        "DROPPED, not retired"
                    } else {
                        "ungated or retired"
                    };
                    println!("    {metric}: {bv:.4e} -> none  ({verdict})");
                    dropped |= c.dropped;
                    continue;
                }
                (None, None) => continue,
            };
            match regression_ratio(metric, bv, cv) {
                Some(r) => {
                    ratios.push(r);
                    bench_ratios.push(r);
                    compared += 1;
                    let verdict = if r > 1.0 + args.tolerance {
                        "REGRESSED"
                    } else if r < 1.0 - args.tolerance {
                        "improved"
                    } else {
                        "ok"
                    };
                    println!("    {metric}: {bv:.4e} -> {cv:.4e}  (x{r:.3} {verdict})",);
                }
                None => println!("    {metric}: {bv:.4e} -> {cv:.4e}  (informational)"),
            }
        }
        if !bench_ratios.is_empty() {
            per_bench.push((name.clone(), bench_ratios));
        }
    }

    if dropped {
        println!("a gated baseline metric was dropped without being retired");
    }
    if compared == 0 {
        println!("no gated baseline metrics compared");
        if trajectory_flagged || dropped {
            println!("a trajectory moved worse than its bound or dropped a metric -> FAIL");
            if !args.report_only {
                std::process::exit(1);
            }
            println!("(--report-only: not failing)");
        }
        return;
    }
    // Gate each bench's geomean as well as the overall one, so a real
    // regression in one bench cannot hide behind many flat metrics
    // elsewhere.
    let mut regressed = false;
    for (name, rs) in &per_bench {
        let g = geomean(rs);
        if g > 1.0 + args.tolerance {
            println!("{name}: geomean regression x{g:.4} exceeds tolerance");
            regressed = true;
        }
    }
    let gm = geomean(&ratios);
    regressed |= gm > 1.0 + args.tolerance;
    if trajectory_flagged {
        println!("a trajectory moved worse than its bound");
        regressed = true;
    }
    regressed |= dropped;
    println!(
        "geomean regression ratio over {compared} metric(s): x{gm:.4} \
         (tolerance {:.0}%) -> {}",
        args.tolerance * 100.0,
        if regressed { "FAIL" } else { "PASS" }
    );
    if regressed && !args.report_only {
        std::process::exit(1);
    }
    if regressed {
        println!("(--report-only: not failing)");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Value {
        serde_json::from_str(text).expect("valid JSON")
    }

    fn entry(commit: &str, compile_s: f64, rss: f64) -> String {
        format!(
            r#"{{"commit": "{commit}", "workloads": {{"tune-nets":
                {{"metrics": {{"compile_s": {compile_s}, "peak_rss_mb": {rss}}}}}}}}}"#
        )
    }

    #[test]
    fn newest_entry_is_flagged_only_beyond_its_bound() {
        let spec = parse(
            r#"{"end_to_end": [
                {"name": "compile_s", "better": "lower", "bound": 0.25},
                {"name": "peak_rss_mb", "better": "lower", "bound": 0.15},
                {"name": "setup_s", "better": "lower", "bound": 0.25}
            ]}"#,
        );
        let bounds = bounds(&spec);
        assert_eq!(bounds.len(), 3);
        let doc = parse(&format!(
            r#"{{"entries": [{}, {}, {}]}}"#,
            entry("a", 99.0, 1.0),
            entry("b", 18.0, 38.0),
            entry("c", 7.0, 44.0)
        ));
        let moves = trajectory_moves(&doc, &bounds).expect("two entries or more");
        // `setup_s` is in neither entry, so two moves, against `b`.
        assert_eq!(moves.len(), 2);
        assert_eq!((moves[0].baseline, moves[0].newest), (18.0, Some(7.0)));
        assert!(!moves[0].flagged, "a faster compile is no regression");
        assert!(moves[1].flagged, "+16% RSS exceeds its 15% bound");
        let single = parse(&format!(r#"{{"entries": [{}]}}"#, entry("a", 1.0, 1.0)));
        assert!(trajectory_moves(&single, &bounds).is_none());
    }

    fn latest(metrics: &[(&str, f64)], retired: &[&str]) -> Latest {
        Latest {
            budget_scale: 0.25,
            metrics: metrics.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            retired: retired.iter().map(|k| k.to_string()).collect(),
        }
    }

    /// The baseline metrics a candidate recording only the geomean
    /// latency drops, each with whether it is flagged.
    fn dropped(retired: &[&str]) -> Vec<(String, bool)> {
        let base = latest(
            &[
                ("intel-cpu/alt_geomean_latency_s", 3.5e-6),
                ("intel-cpu/alt_vs_ansor_speedup", 1.66),
                ("intel-cpu/native_exec_us", 1.2e5),
            ],
            &[],
        );
        let cand = latest(&[("intel-cpu/alt_geomean_latency_s", 3.5e-6)], retired);
        compare_entries(&base, &cand)
            .into_iter()
            .filter(|c| c.candidate.is_none())
            .map(|c| (c.metric, c.dropped))
            .collect()
    }

    #[test]
    fn a_dropped_gated_baseline_metric_is_flagged() {
        let flagged = dropped(&[]);
        assert!(flagged.contains(&("intel-cpu/alt_vs_ansor_speedup".into(), true)));
    }

    #[test]
    fn a_retired_baseline_metric_is_not_flagged() {
        let flagged = dropped(&["intel-cpu/alt_vs_ansor_speedup"]);
        assert!(flagged.contains(&("intel-cpu/alt_vs_ansor_speedup".into(), false)));
    }

    #[test]
    fn an_ungated_baseline_metric_is_never_flagged() {
        for retired in [&[][..], &["intel-cpu/native_exec_us"][..]] {
            let flagged = dropped(retired);
            assert!(flagged.contains(&("intel-cpu/native_exec_us".into(), false)));
        }
    }

    fn spec_bounds() -> Vec<Bound> {
        bounds(&parse(
            r#"{"end_to_end": [
                {"name": "compile_s", "better": "lower", "bound": 0.25},
                {"name": "native_pass_ms", "better": "lower", "bound": 0.25}
            ]}"#,
        ))
    }

    #[test]
    fn a_dropped_metric_is_flagged() {
        let doc = parse(
            r#"{"entries": [
                {"workloads": {"tune-nets": {"metrics": {"compile_s": 5.0, "native_pass_ms": 2500.0}}}},
                {"workloads": {"tune-nets": {"metrics": {"compile_s": 5.0}}}}
            ]}"#,
        );
        let moves = trajectory_moves(&doc, &spec_bounds()).expect("two entries");
        assert_eq!(moves.len(), 2);
        assert!(!moves[0].flagged);
        let dropped = &moves[1];
        assert_eq!(
            (dropped.metric.as_str(), dropped.newest),
            ("native_pass_ms", None)
        );
        assert!(
            dropped.flagged,
            "a metric the newest entry lacks fails the gate"
        );
    }

    #[test]
    fn a_dropped_workload_is_flagged() {
        let doc = parse(
            r#"{"entries": [
                {"workloads": {
                    "tune-nets": {"metrics": {"compile_s": 5.0}},
                    "warm-start": {"metrics": {"compile_s": 0.03, "native_pass_ms": 250.0}}
                }},
                {"workloads": {"tune-nets": {"metrics": {"compile_s": 5.0}}}}
            ]}"#,
        );
        let moves = trajectory_moves(&doc, &spec_bounds()).expect("two entries");
        let dropped: Vec<&Move> = moves
            .iter()
            .filter(|m| m.workload == "warm-start")
            .collect();
        assert_eq!(dropped.len(), 2, "every metric of the dropped workload");
        assert!(dropped.iter().all(|m| m.newest.is_none() && m.flagged));
        assert!(moves
            .iter()
            .any(|m| m.workload == "tune-nets" && !m.flagged));
    }

    #[test]
    fn a_retired_key_is_not_flagged() {
        let doc = parse(
            r#"{"entries": [
                {"workloads": {
                    "tune-nets": {"metrics": {"compile_s": 5.0, "native_pass_ms": 2500.0}},
                    "warm-start": {"metrics": {"compile_s": 0.03}}
                }},
                {"retired": ["native_pass_ms", "warm-start"],
                 "workloads": {"tune-nets": {"metrics": {"compile_s": 5.0}}}}
            ]}"#,
        );
        let moves = trajectory_moves(&doc, &spec_bounds()).expect("two entries");
        assert_eq!(moves.len(), 3);
        assert!(
            moves.iter().all(|m| !m.flagged),
            "retired keys pass the gate"
        );
        assert_eq!(moves.iter().filter(|m| m.newest.is_none()).count(), 2);
    }

    #[test]
    fn a_same_session_parent_within_bound_is_not_flagged_beside_a_far_previous_entry() {
        // Another session read 100 ms; this one read its parent at 185 ms
        // and the change at 190 ms. `compile_s` has no parent value and
        // falls back to the previous entry.
        let doc = parse(
            r#"{"entries": [
                {"workloads": {"tune-nets": {"metrics": {"compile_s": 5.0, "native_pass_ms": 100.0}}}},
                {"workloads": {"tune-nets": {
                    "metrics": {"compile_s": 5.5, "native_pass_ms": 190.0},
                    "parent_metrics": {"native_pass_ms": 185.0}}}}
            ]}"#,
        );
        let moves = trajectory_moves(&doc, &spec_bounds()).expect("two entries");
        let seen: Vec<(&str, Baseline, f64, bool)> = moves
            .iter()
            .map(|m| (m.metric.as_str(), m.against, m.baseline, m.flagged))
            .collect();
        assert_eq!(
            seen,
            [
                ("compile_s", Baseline::Previous, 5.0, false),
                ("native_pass_ms", Baseline::Parent, 185.0, false),
            ]
        );
    }

    #[test]
    fn an_entry_without_parent_metrics_falls_back_to_the_previous_entry() {
        let doc = parse(
            r#"{"entries": [
                {"workloads": {"tune-nets": {
                    "metrics": {"native_pass_ms": 100.0},
                    "parent_metrics": {"native_pass_ms": 40.0}}}},
                {"workloads": {"tune-nets": {"metrics": {"native_pass_ms": 190.0}}}}
            ]}"#,
        );
        let moves = trajectory_moves(&doc, &spec_bounds()).expect("two entries");
        assert_eq!(moves.len(), 1);
        let m = &moves[0];
        assert_eq!(
            (m.against, m.baseline, m.newest),
            (Baseline::Previous, 100.0, Some(190.0))
        );
        assert!(
            m.flagged,
            "x1.9 against the previous entry exceeds the bound"
        );
    }

    #[test]
    fn a_dropped_traced_key_is_flagged_unless_retired() {
        let doc = parse(
            r#"{"entries": [
                {"workloads": {"tune-nets": {"metrics": {"compile_s": 5.0},
                    "traced": {"codegen.exec_ms": 80.0, "loopir.pack_ms": 3.0, "sim.memo_probes": 2400.0}}}},
                {"retired": ["sim.memo_probes"],
                 "workloads": {"tune-nets": {"metrics": {"compile_s": 5.0},
                    "traced": {"codegen.exec_ms": 300.0}}}}
            ]}"#,
        );
        let moves = trajectory_moves(&doc, &spec_bounds()).expect("two entries");
        let traced: Vec<(&str, bool)> = moves
            .iter()
            .filter(|m| m.metric != "compile_s")
            .map(|m| (m.metric.as_str(), m.flagged))
            .collect();
        // A kept key has no bound, so even a slower layer is no move.
        assert_eq!(
            traced,
            [("loopir.pack_ms", true), ("sim.memo_probes", false)]
        );
        assert!(moves
            .iter()
            .all(|m| m.metric == "compile_s" || m.newest.is_none()));
    }
}
