//! Vendor-library stand-ins (MKL-DNN, cuDNN, XNNPACK/Torch) and the
//! hardware-specific graph compilers built on them (OpenVINO, TensorRT).
//!
//! Vendor kernels are represented by fixed, expert-chosen layouts and
//! loop schedules: blocked channel layouts on the Intel CPU (MKL-DNN),
//! NCHW on the GPU (cuDNN), channels-last on ARM (XNNPACK). The
//! schedules are shape-blind heuristics — good for the typical shapes
//! vendors optimize, weaker on unusual configurations, exactly the
//! behaviour the paper observes.

use std::collections::HashSet;

use alt_autotune::tuner::{
    apply_fixed_layout, base_schedule, largest_divisor_at_most, FixedLayout,
};
use alt_layout::{LayoutPlan, PropagationMode};
use alt_loopir::{AxisTiling, GraphSchedule, LowerCtx, OpSchedule};
use alt_sim::{MachineKind, MachineProfile};
use alt_tensor::{Graph, OpId, OpTag};

/// Vendor configuration for one platform.
fn vendor_layout(profile: &MachineProfile) -> FixedLayout {
    match (profile.kind, profile.name) {
        // MKL-DNN: blocked `nChw16c`-style layouts.
        (MachineKind::Cpu, "intel-cpu") => FixedLayout::ChannelTiled(16),
        // cuDNN default: NCHW.
        (MachineKind::Gpu, _) => FixedLayout::Identity,
        // XNNPACK / Torch mobile: channels-last.
        _ => FixedLayout::ChannelsLast,
    }
}

/// Expert fixed schedule for one operator given its physical output dims.
fn expert_schedule(
    graph: &Graph,
    plan: &LayoutPlan,
    op: alt_tensor::OpId,
    profile: &MachineProfile,
    fuse: bool,
) -> OpSchedule {
    let node = graph.node(op);
    let phys = plan.layout_of(graph, node.output).physical_shape();
    let nd = phys.ndim();
    let lanes = profile.vector_lanes as i64;
    let mut spatial = vec![AxisTiling::none(); nd];
    // Vectorize the innermost dimension with a lane-sized tile and give
    // the second-innermost a modest tile for register blocking.
    if nd >= 1 {
        let t = largest_divisor_at_most(phys.dim(nd - 1), 4 * lanes);
        if t > 1 {
            spatial[nd - 1] = AxisTiling::one(t);
        }
    }
    if nd >= 2 {
        let t = largest_divisor_at_most(phys.dim(nd - 2), 8);
        if t > 1 {
            spatial[nd - 2] = AxisTiling::one(t);
        }
    }
    let reduce = node
        .compute
        .reduce_axes
        .iter()
        .map(|a| {
            let t = largest_divisor_at_most(a.extent, 8);
            if t > 1 {
                AxisTiling::one(t)
            } else {
                AxisTiling::none()
            }
        })
        .collect();
    OpSchedule {
        spatial,
        reduce,
        vectorize: true,
        unroll: true,
        parallel: true,
        fuse_into_producer: fuse && node.tag == OpTag::Elementwise,
    }
}

/// Hand-tuned schedule variants a vendor library would ship for one
/// operator class; the dispatcher picks the best for the concrete shape
/// (the way cuDNN selects among algorithms).
fn vendor_menu(
    graph: &Graph,
    plan: &LayoutPlan,
    op: alt_tensor::OpId,
    profile: &MachineProfile,
    fuse: bool,
) -> Vec<OpSchedule> {
    let base = expert_schedule(graph, plan, op, profile, fuse);
    let node = graph.node(op);
    let phys = plan.layout_of(graph, node.output).physical_shape();
    let nd = phys.ndim();
    let lanes = profile.vector_lanes as i64;
    let mut out = vec![base.clone()];
    // Variant: narrow vector tile + deep reduction blocking.
    {
        let mut v = base.clone();
        if nd >= 1 {
            let t = largest_divisor_at_most(phys.dim(nd - 1), lanes);
            v.spatial[nd - 1] = if t > 1 {
                AxisTiling::one(t)
            } else {
                AxisTiling::none()
            };
        }
        v.reduce = node
            .compute
            .reduce_axes
            .iter()
            .map(|a| {
                let t = largest_divisor_at_most(a.extent, 16);
                if t > 1 {
                    AxisTiling::one(t)
                } else {
                    AxisTiling::none()
                }
            })
            .collect();
        out.push(v);
    }
    // Variant: register blocking on the two innermost spatial dims.
    if nd >= 2 {
        let mut v = base.clone();
        let t2 = largest_divisor_at_most(phys.dim(nd - 2), 4);
        v.spatial[nd - 2] = if t2 > 1 {
            AxisTiling::one(t2)
        } else {
            AxisTiling::none()
        };
        let t3 = if nd >= 3 {
            largest_divisor_at_most(phys.dim(nd - 3), 4)
        } else {
            1
        };
        if nd >= 3 && t3 > 1 {
            v.spatial[nd - 3] = AxisTiling::one(t3);
        }
        out.push(v);
    }
    // Variant: untiled reduction, wide vector tile.
    {
        let mut v = base;
        v.reduce = vec![AxisTiling::none(); node.compute.reduce_axes.len()];
        out.push(v);
    }
    out
}

/// Builds the vendor plan + schedules for a graph.
///
/// `fuse_graph` distinguishes the graph compilers (OpenVINO/TensorRT,
/// which fuse elementwise epilogues) from eager execution (Torch, which
/// runs each operator as a separate kernel).
pub fn vendor_plan(
    graph: &Graph,
    profile: &MachineProfile,
    fuse_graph: bool,
) -> (LayoutPlan, GraphSchedule) {
    let mut plan = LayoutPlan::new(PropagationMode::Full);
    apply_fixed_layout(graph, &mut plan, vendor_layout(profile), true);
    let mut sched = if fuse_graph {
        base_schedule(graph)
    } else {
        GraphSchedule::naive()
    };
    for node in graph.nodes() {
        sched.set(
            node.id,
            expert_schedule(graph, &plan, node.id, profile, fuse_graph),
        );
    }
    // Per complex operator, dispatch among the shipped kernel variants
    // (deterministic, not search: this models vendor engineering). Each
    // variant lowers only its operator's group, so one context serves
    // every dispatch; a variant that fails to lower is not chosen.
    let sim = alt_sim::Simulator::new(*profile);
    let ctx = LowerCtx::new(graph, &plan, &sched);
    let mut chosen = Vec::new();
    for &op in &graph.complex_ops() {
        let roots: HashSet<OpId> = [op].into_iter().collect();
        let mut best: Option<(f64, OpSchedule)> = None;
        for v in vendor_menu(graph, &plan, op, profile, fuse_graph) {
            let Ok(program) = ctx.lower(Some(&roots), Some((op, &v))) else {
                continue;
            };
            let lat = sim.measure(&program);
            if best.as_ref().map(|b| lat < b.0).unwrap_or(true) {
                best = Some((lat, v));
            }
        }
        if let Some((_, v)) = best {
            chosen.push((op, v));
        }
    }
    for (op, v) in chosen {
        sched.set(op, v);
    }
    (plan, sched)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alt_autotune::Measurer;
    use alt_sim::{arm_cpu, intel_cpu, nvidia_gpu};
    use alt_tensor::ops::{self, ConvCfg};
    use alt_tensor::Shape;

    fn conv_graph() -> Graph {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new([1, 32, 34, 34]));
        let w = g.add_param("w", Shape::new([64, 32, 3, 3]));
        let c = ops::conv2d(&mut g, x, w, ConvCfg::default());
        let b = g.add_param("b", Shape::new([64]));
        let ba = ops::bias_add(&mut g, c, b, 1);
        let _ = ops::relu(&mut g, ba);
        g
    }

    #[test]
    fn vendor_beats_naive_on_all_platforms() {
        let g = conv_graph();
        for profile in [intel_cpu(), nvidia_gpu(), arm_cpu()] {
            let (plan, sched) = vendor_plan(&g, &profile, true);
            let m = Measurer::new(&g, profile);
            let vendor = m.measure_graph_free(&plan, &sched);
            let naive = m.measure_graph_free(
                &LayoutPlan::new(PropagationMode::Full),
                &GraphSchedule::naive(),
            );
            assert!(
                vendor < naive,
                "{}: vendor {vendor} vs naive {naive}",
                profile.name
            );
        }
    }

    #[test]
    fn fused_compiler_beats_eager() {
        let g = conv_graph();
        let profile = intel_cpu();
        let (pf, sf) = vendor_plan(&g, &profile, true);
        let (pe, se) = vendor_plan(&g, &profile, false);
        let m = Measurer::new(&g, profile);
        let fused = m.measure_graph_free(&pf, &sf);
        let eager = m.measure_graph_free(&pe, &se);
        assert!(fused <= eager, "fused {fused} vs eager {eager}");
    }
}
