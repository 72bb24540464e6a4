//! Figure 9: single-operator normalized performance.
//!
//! Nine layout-sensitive operator families (C2D, GRP, DIL, DEP, C3D, C1D,
//! GMM, T2D, T3D), several random configurations each, tuned by five
//! systems — a vendor library, AutoTVM-like, FlexTensor-like, Ansor-like
//! and ALT — on all three platform profiles. The result is normalized by
//! the geometric mean of speedups over the worst latency per test case,
//! as in the paper.
//!
//! Environment: `ALT_BUDGET_SCALE` scales the per-case budget (default
//! 120, paper 1000); `ALT_FIG9_CONFIGS` sets configurations per operator
//! (default 3, paper 10). Pass `--report-ot` to also print the §7.3.5
//! observation (the tuned `ot` relative to the platform vector lanes).

use std::collections::HashMap;

use alt_autotune::tuner::{TuneConfig, TuneResult};
use alt_autotune::{split_budget, tune_graph, OPERATOR_JOINT_SHARE};
use alt_baselines::{ansor_like, autotvm_like, flextensor_like, vendor_plan};
use alt_bench::{normalized_performance, scaled, single_op_cases, BenchReport, TablePrinter};
use alt_layout::LayoutPrim;
use alt_sim::MachineProfile;
use alt_tensor::Graph;

const SYSTEMS: [&str; 5] = ["Vendor", "AutoTVM", "FlexTensor", "Ansor", "ALT"];
const OPS: [&str; 9] = [
    "C2D", "GRP", "DIL", "DEP", "C3D", "C1D", "GMM", "T2D", "T3D",
];

fn alt_tune(
    graph: &Graph,
    profile: MachineProfile,
    budget: u64,
    seed: u64,
    journal: alt_journal::Journal,
    store: Option<std::sync::Arc<alt_store::Store>>,
    timing: alt_telemetry::Timing,
) -> TuneResult {
    let (joint_budget, loop_budget) = split_budget(budget, OPERATOR_JOINT_SHARE);
    let cfg = TuneConfig {
        joint_budget,
        loop_budget,
        free_input_layouts: true,
        seed,
        jobs: alt_bench::jobs(),
        journal,
        store,
        timing,
        progress: alt_bench::progress_from_env(),
        ..TuneConfig::default()
    };
    tune_graph(graph, profile, cfg)
}

/// Reports the tuned `ot` (innermost channel tile) of ALT's layouts.
fn observed_ot(graph: &Graph, result: &TuneResult) -> Option<i64> {
    let op = graph.complex_ops().first().copied()?;
    let out = graph.node(op).output;
    let layout = result.plan.layout_of(graph, out);
    // The template puts `ot` last: find the final Split's last factor.
    layout.prims().iter().rev().find_map(|p| match p {
        LayoutPrim::Split { factors, .. } => factors.last().copied(),
        _ => None,
    })
}

fn main() {
    let report_ot = std::env::args().any(|a| a == "--report-ot");
    let budget = scaled(120);
    let n_cfg: usize = std::env::var("ALT_FIG9_CONFIGS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(3);
    println!(
        "Fig. 9 reproduction: single-operator normalized performance \
         (budget {budget}/case, {n_cfg} configs/op)"
    );
    let cases = single_op_cases(n_cfg, 2023);
    let mut report = BenchReport::new("fig09");
    let store = alt_bench::store_from_env();
    let mut ot_observations: Vec<(String, i64, u32)> = Vec::new();

    for profile in alt_bench::platforms() {
        println!("\n## {} ", profile.name);
        // per op family -> list of per-case latencies by system.
        let mut by_op: HashMap<&str, Vec<HashMap<String, f64>>> = HashMap::new();
        let mut alt_lats: Vec<f64> = Vec::new();
        let mut alt_wall = 0.0f64;
        let (mut cache_hits, mut cache_misses) = (0u64, 0u64);
        let (mut store_hits, mut store_misses) = (0u64, 0u64);
        let mut warm_starts = 0u64;
        let mut jstats = alt_bench::JournalStats::new();
        // Per-platform wall-clock self-profile (ALT_TIMING): every ALT
        // tuning run on this platform folds into one phase tree.
        let timing = alt_bench::timing_from_env();
        for case in &cases {
            let g = &case.graph;
            let mut lats: HashMap<String, f64> = HashMap::new();
            // Vendor library (no search).
            let (vp, vs) = vendor_plan(g, &profile, true);
            let m = alt_autotune::Measurer::new(g, profile);
            lats.insert("Vendor".into(), m.measure_graph_free(&vp, &vs));
            // Auto-tuners.
            lats.insert(
                "AutoTVM".into(),
                autotvm_like(g, profile, budget, 1).latency,
            );
            lats.insert(
                "FlexTensor".into(),
                flextensor_like(g, profile, budget, 1).latency,
            );
            lats.insert("Ansor".into(), ansor_like(g, profile, budget, 1).latency);
            let (journal, jsink) = alt_journal::Journal::memory();
            let t0 = std::time::Instant::now();
            let alt = alt_tune(
                g,
                profile,
                budget,
                1,
                journal,
                store.clone(),
                timing.clone(),
            );
            alt_wall += t0.elapsed().as_secs_f64();
            jstats.note_run(&jsink, budget);
            alt_bench::verify_winner(
                &mut report,
                &format!("{} {} on {}", case.op, case.config, profile.name),
                g,
                &alt.plan,
                &alt.sched,
            );
            cache_hits += alt.cache_hits;
            cache_misses += alt.cache_misses;
            store_hits += alt.store_hits;
            store_misses += alt.store_misses;
            warm_starts += u64::from(alt.warm_start);
            report.note_run(alt.measurements, alt.latency);
            alt_lats.push(alt.latency);
            lats.insert("ALT".into(), alt.latency);
            if report_ot {
                if let Some(ot) = observed_ot(g, &alt) {
                    ot_observations.push((case.op.to_string(), ot, profile.vector_lanes));
                }
            }
            report.push(serde_json::json!({
                "platform": profile.name,
                "op": case.op,
                "config": case.config,
                "latencies": lats,
            }));
            by_op.entry(case.op).or_default().push(lats);
        }

        let mut headers = vec!["op"];
        headers.extend(SYSTEMS);
        let printer = TablePrinter::new(&headers, &[6, 10, 10, 10, 10, 10]);
        let mut alt_vs_ansor = Vec::new();
        for op in OPS {
            let Some(case_lats) = by_op.get(op) else {
                continue;
            };
            let norm = normalized_performance(case_lats, &SYSTEMS);
            let mut row = vec![op.to_string()];
            for sys in SYSTEMS {
                row.push(format!("{:.3}", norm[sys]));
            }
            printer.row(&row);
            if norm["Ansor"] > 0.0 {
                alt_vs_ansor.push(norm["ALT"] / norm["Ansor"]);
            }
        }
        let vs_ansor = alt_bench::geomean(&alt_vs_ansor);
        println!(
            "ALT vs Ansor geomean speedup on {}: {vs_ansor:.2}x (paper: 1.4-1.6x)",
            profile.name
        );
        report.note_metric(format!("{}/alt_vs_ansor_speedup", profile.name), vs_ansor);
        report.note_metric(
            format!("{}/alt_geomean_latency_s", profile.name),
            alt_bench::geomean(&alt_lats),
        );
        // Informational (not regression-gated): tuning wall-clock at
        // ALT_JOBS workers and the memoized-simulation hit rate.
        let lookups = cache_hits + cache_misses;
        let hit_rate = if lookups > 0 {
            cache_hits as f64 / lookups as f64
        } else {
            0.0
        };
        println!(
            "ALT tuning wall-clock on {}: {alt_wall:.2} s at {} job(s); \
             sim-cache hit rate {:.1}% ({cache_hits}/{lookups})",
            profile.name,
            alt_bench::jobs(),
            hit_rate * 100.0
        );
        report.note_metric(format!("{}/tune_wall_s", profile.name), alt_wall);
        report.note_metric(format!("{}/cache_hit_rate", profile.name), hit_rate);
        // Durable-store effectiveness (only with ALT_STORE set): rerun
        // with the same store to warm-start every case and compare the
        // cold-vs-warm tune_wall_s pair.
        if store.is_some() {
            let store_lookups = store_hits + store_misses;
            let store_rate = if store_lookups > 0 {
                store_hits as f64 / store_lookups as f64
            } else {
                0.0
            };
            println!(
                "ALT durable store on {}: {warm_starts}/{} warm starts; \
                 measurement hit rate {:.1}% ({store_hits}/{store_lookups})",
                profile.name,
                cases.len(),
                store_rate * 100.0
            );
            report.note_metric(format!("{}/store_hit_rate", profile.name), store_rate);
            report.note_metric(
                format!("{}/store_warm_starts", profile.name),
                warm_starts as f64,
            );
        }
        alt_bench::finish_timing(
            &mut report,
            "fig09",
            profile.name,
            &timing,
            &[
                ("budget", serde_json::json!(budget)),
                ("cases", serde_json::json!(cases.len() as u64)),
                ("tune_wall_s", serde_json::json!(alt_wall)),
            ],
        );
        jstats.finish(&mut report, "fig09", profile.name);
    }

    if report_ot && !ot_observations.is_empty() {
        println!("\n§7.3.5: tuned ot vs platform vector lanes");
        let mut counts: HashMap<(i64, u32), usize> = HashMap::new();
        for (_, ot, lanes) in &ot_observations {
            *counts.entry((*ot, *lanes)).or_default() += 1;
        }
        let mut rows: Vec<_> = counts.into_iter().collect();
        rows.sort_by_key(|((ot, lanes), _)| (*lanes, *ot));
        for ((ot, lanes), n) in rows {
            println!(
                "  ot = {ot:4} (lanes {lanes:2}, ratio {:.1}): {n} cases",
                ot as f64 / lanes as f64
            );
        }
    }
    report.write();
}
