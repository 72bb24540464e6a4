//! Design-choice ablations (beyond the paper's figures): quantifies each
//! mechanism DESIGN.md calls out, on a representative conv block.
//!
//! * operator fusion on/off (the fusion-after-tiling that layout
//!   propagation preserves),
//! * layout propagation mode (Full / WithoutFusionAlign / None),
//! * seeded template points on/off,
//! * task deduplication effect proxy (unique-task count per model),
//! * cost-model ranking vs random top-k selection.

use alt_autotune::tuner::{base_schedule, TuneConfig};
use alt_autotune::{split_budget, tune_graph, Measurer, NETWORK_JOINT_SHARE};
use alt_bench::{scaled, BenchReport, TablePrinter};
use alt_layout::{LayoutPlan, PropagationMode};
use alt_sim::intel_cpu;
use alt_tensor::ops::{self, ConvCfg};
use alt_tensor::{Graph, Shape};

fn block() -> Graph {
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new([1, 32, 58, 58]));
    let w = g.add_param("w", Shape::new([64, 32, 3, 3]));
    let c = ops::conv2d(&mut g, x, w, ConvCfg::default());
    let b = g.add_param("b", Shape::new([64]));
    let ba = ops::bias_add(&mut g, c, b, 1);
    let _ = ops::relu(&mut g, ba);
    g
}

fn main() {
    let budget = scaled(200);
    let (joint_budget, loop_budget) = split_budget(budget, NETWORK_JOINT_SHARE);
    println!("Design ablations (budget {budget})\n");
    let profile = intel_cpu();
    let mut report = BenchReport::new("ablations");

    // --- Fusion ablation: tune once, then strip the fusion flags from
    // the final schedule and re-measure (same layouts, same loop
    // schedules, only fusion differs). ---
    {
        let g = block();
        let cfg = TuneConfig {
            joint_budget,
            loop_budget,
            free_input_layouts: true,
            seed: 5,
            ..TuneConfig::default()
        };
        let r = tune_graph(&g, profile, cfg);
        let mut unfused = r.sched.clone();
        for node in g.nodes() {
            let mut s = unfused.get(node.id);
            s.fuse_into_producer = false;
            unfused.set(node.id, s);
        }
        let m = Measurer::new(&g, profile);
        let lf = m.measure_graph_free(&r.plan, &r.sched);
        let lu = m.measure_graph_free(&r.plan, &unfused);
        println!(
            "fusion:        fused {:.1} us vs unfused {:.1} us ({:.2}x)",
            lf * 1e6,
            lu * 1e6,
            lu / lf
        );
        report.push(
            serde_json::json!({"ablation": "fusion", "fused_us": lf * 1e6, "unfused_us": lu * 1e6}),
        );
    }

    // --- Propagation mode ablation (same budget, full tuner). ---
    {
        let g = block();
        let printer = TablePrinter::new(&["propagation", "latency us"], &[20, 12]);
        for (name, mode) in [
            ("Full", PropagationMode::Full),
            ("WithoutFusionAlign", PropagationMode::WithoutFusionAlign),
            ("None", PropagationMode::None),
        ] {
            let cfg = TuneConfig {
                joint_budget,
                loop_budget,
                mode,
                free_input_layouts: true,
                seed: 5,
                ..TuneConfig::default()
            };
            let r = tune_graph(&g, profile, cfg);
            printer.row(&[name.to_string(), format!("{:.1}", r.latency * 1e6)]);
            report.push(serde_json::json!({"ablation": "propagation", "mode": name, "latency_us": r.latency * 1e6}));
        }
    }

    // --- Seeded template points on/off. ---
    {
        let g = block();
        for seeds in [true, false] {
            let cfg = TuneConfig {
                joint_budget,
                loop_budget,
                seed_candidates: seeds,
                free_input_layouts: true,
                seed: 5,
                ..TuneConfig::default()
            };
            let r = tune_graph(&g, profile, cfg);
            println!("seeds={seeds:5}: {:.1} us", r.latency * 1e6);
            report.push(serde_json::json!({"ablation": "seeds", "enabled": seeds, "latency_us": r.latency * 1e6}));
        }
    }

    // --- Task deduplication: unique tuning tasks per model. ---
    {
        use std::collections::HashSet;
        for (name, g) in [
            ("R18", alt_models::resnet18(1)),
            ("MV2", alt_models::mobilenet_v2(1)),
            ("BB", alt_models::bert_base(1)),
            ("R3D", alt_models::resnet3d_18(1)),
        ] {
            let total = g.complex_ops().len();
            let mut sigs: HashSet<String> = HashSet::new();
            for op in g.complex_ops() {
                let node = g.node(op);
                let mut s = format!("{:?}|{}", node.tag, node.compute.name);
                for &i in &node.inputs {
                    s.push_str(&format!("|{}", g.tensor(i).shape));
                }
                sigs.insert(s);
            }
            println!(
                "task dedup {name}: {total} complex ops -> {} unique tasks ({:.1}x budget amplification)",
                sigs.len(),
                total as f64 / sigs.len() as f64
            );
            report.push(serde_json::json!({"ablation": "dedup", "model": name, "ops": total, "tasks": sigs.len()}));
        }
    }

    // --- Cost model: fraction of budget saved by top-k selection. ---
    {
        let g = block();
        let conv = g.complex_ops()[0];
        let plan = LayoutPlan::new(PropagationMode::Full);
        let mut m = Measurer::new(&g, profile);
        let mut sched = base_schedule(&g);
        // Random search measuring everything.
        let every =
            alt_bench::random_walk_loop_tune(&g, &plan, &mut sched, conv, &mut m, budget, 3);
        // Tuner with cost model at the same budget.
        let cfg = TuneConfig {
            joint_budget: 0,
            loop_budget: budget,
            fixed_layout: Some(alt_autotune::FixedLayout::Identity),
            free_input_layouts: true,
            seed: 3,
            ..TuneConfig::default()
        };
        let r = tune_graph(&g, profile, cfg);
        // Isolate the conv group latency from the end-to-end number by
        // measuring the tuned schedule directly.
        let tuned = Measurer::new(&g, profile).measure_graph_free(&r.plan, &r.sched);
        let base = Measurer::new(&g, profile).measure_graph_free(&plan, &sched);
        println!(
            "cost model:    measure-everything search reaches {:.1} us (conv group {:.1} us), \
             cost-model tuner reaches {:.1} us at equal budget",
            base * 1e6,
            every * 1e6,
            tuned * 1e6
        );
        report.push(serde_json::json!({"ablation": "cost_model", "random_us": base * 1e6, "tuner_us": tuned * 1e6}));
    }

    report.write();
}
