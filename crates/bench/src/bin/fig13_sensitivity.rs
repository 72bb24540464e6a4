//! Figure 13: parameter sensitivity — template size vs budget.
//!
//! Compares three settings on four networks (batch 1) on the CPU and GPU
//! profiles:
//!
//! * two-level layout tiling templates at budget B,
//! * two-level templates at budget 1.5 B,
//! * one-level templates at budget B (the baseline setting).
//!
//! The paper's finding: at a fixed budget the *smaller* one-level space
//! wins (~15% over two-level); giving the larger space 1.5x budget closes
//! most of the gap (within ~6%), demonstrating space-size/budget
//! trade-off scalability.

use alt_autotune::tuner::TuneConfig;
use alt_autotune::{split_budget, tune_graph, NETWORK_JOINT_SHARE};
use alt_bench::{scaled, BenchReport, TablePrinter};
use alt_models::{bert_base, mobilenet_v2, resnet18, resnet3d_18};
use alt_sim::{intel_cpu, nvidia_gpu};

fn main() {
    let budget = scaled(400);
    let budget_big = budget * 3 / 2;
    println!(
        "Fig. 13 reproduction: one-level (B={budget}) vs two-level (B={budget}) \
         vs two-level (B={budget_big})\n"
    );
    let printer = TablePrinter::new(
        &[
            "network",
            "platform",
            "2L(B) ms",
            "2L(1.5B) ms",
            "1L(B) ms",
            "2L(B)/1L",
            "2L(1.5B)/1L",
        ],
        &[8, 10, 10, 12, 10, 9, 11],
    );
    let mut report = BenchReport::new("fig13");
    let mut ratios_same = Vec::new();
    let mut ratios_more = Vec::new();
    for profile in [intel_cpu(), nvidia_gpu()] {
        for (name, g) in [
            ("R18-b1", resnet18(1)),
            ("MV2-b1", mobilenet_v2(1)),
            ("BB-b1", bert_base(1)),
            ("R3D-b1", resnet3d_18(1)),
        ] {
            let run = |levels: u8, b: u64| {
                let (joint_budget, loop_budget) = split_budget(b, NETWORK_JOINT_SHARE);
                let cfg = TuneConfig {
                    joint_budget,
                    loop_budget,
                    levels,
                    seed: 13,
                    ..TuneConfig::default()
                };
                tune_graph(&g, profile, cfg).latency
            };
            let two_same = run(2, budget);
            let two_more = run(2, budget_big);
            let one = run(1, budget);
            printer.row(&[
                name.to_string(),
                profile.name.to_string(),
                format!("{:.2}", two_same * 1e3),
                format!("{:.2}", two_more * 1e3),
                format!("{:.2}", one * 1e3),
                format!("{:.3}", one / two_same),
                format!("{:.3}", one / two_more),
            ]);
            ratios_same.push(one / two_same);
            ratios_more.push(one / two_more);
            report.push(serde_json::json!({
                "network": name,
                "platform": profile.name,
                "two_level_same_budget_ms": two_same * 1e3,
                "two_level_more_budget_ms": two_more * 1e3,
                "one_level_ms": one * 1e3,
            }));
        }
    }
    println!(
        "\nSpeedup of each setting relative to one-level(B): two-level(B) {:.3}, \
         two-level(1.5B) {:.3} (paper: ~0.87 and ~1.06 -> one-level wins at equal \
         budget; extra budget recovers the larger space).",
        alt_bench::geomean(&ratios_same),
        alt_bench::geomean(&ratios_more),
    );
    report.write();
}
