//! A lowering context reused across candidates leaks no state: every
//! candidate lowered through one [`LowerCtx`] equals the one-shot
//! [`try_lower_filtered`] under a copy of the base schedule with the
//! candidate's override set, and an override that would move a fusion
//! boundary is rejected instead of being lowered against stale groups.

#![allow(clippy::unwrap_used)]

use std::collections::HashSet;

use proptest::prelude::*;

use alt_layout::{presets, Layout, LayoutPlan, LayoutPrim, PropagationMode};
use alt_loopir::{
    program_fingerprint, try_lower, try_lower_filtered, AxisTiling, GraphSchedule, LowerCtx,
    OpSchedule, Program,
};
use alt_tensor::ops::{self, ConvCfg};
use alt_tensor::{Graph, OpId, OpTag, Shape, TensorId};

/// Splitmix64 draws, so one proptest seed drives a whole case.
struct Draw(u64);

impl Draw {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn coin(&mut self) -> bool {
        self.next() & 1 == 1
    }

    fn divisor(&mut self, n: i64) -> i64 {
        let divs: Vec<i64> = (1..=n).filter(|d| n % d == 0).collect();
        divs[self.below(divs.len())]
    }
}

/// A conv block (pad, conv, bias, relu), a 1x1 conv whose input also
/// feeds a residual add, and a dense layer whose bias can be stored in
/// its weight.
struct Net {
    g: Graph,
    p: TensorId,
    c1: TensorId,
    w1: TensorId,
    r: TensorId,
    c2: TensorId,
    gm: TensorId,
    wd: TensorId,
    bd: TensorId,
}

fn net() -> Net {
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new([1, 4, 8, 8]));
    let p = ops::pad2d_spatial(&mut g, x, 1);
    let w1 = g.add_param("w1", Shape::new([8, 4, 3, 3]));
    let c1 = ops::conv2d(&mut g, p, w1, ConvCfg::default());
    let b1 = g.add_param("b1", Shape::new([8]));
    let ba = ops::bias_add(&mut g, c1, b1, 1);
    let r = ops::relu(&mut g, ba);
    let w2 = g.add_param("w2", Shape::new([8, 8, 1, 1]));
    let c2 = ops::conv2d(&mut g, r, w2, ConvCfg::default());
    let _sum = ops::add(&mut g, c2, r);
    let a = g.add_input("a", Shape::new([6, 10]));
    let wd = g.add_param("wd", Shape::new([10, 8]));
    let gm = ops::gmm(&mut g, a, wd);
    let bd = g.add_param("bd", Shape::new([8]));
    let out = ops::bias_add(&mut g, gm, bd, 1);
    let _ = ops::relu(&mut g, out);
    Net {
        g,
        p,
        c1,
        w1,
        r,
        c2,
        gm,
        wd,
        bd,
    }
}

fn producer(g: &Graph, t: TensorId) -> OpId {
    g.tensor(t).producer.unwrap()
}

/// A conv output layout: identity, channels-last, channel-tiled or the
/// §5.1 spatial+channel tiling.
fn conv_out_layout(d: &mut Draw, shape: Shape) -> Option<Layout> {
    match d.below(4) {
        0 => None,
        1 => Some(presets::nhwo(shape).unwrap()),
        2 => {
            let ct = d.divisor(shape.dim(1));
            Some(presets::channel_tiled(shape, ct).unwrap())
        }
        _ => {
            let (ht, wt, ot) = (
                d.divisor(shape.dim(2)),
                d.divisor(shape.dim(3)),
                d.divisor(shape.dim(1)),
            );
            Some(presets::conv_output_tiled_nd(shape, &[ht, wt], ot).unwrap())
        }
    }
}

/// A conv input layout: identity, channels-last or the unfolded §5.1
/// input tiling for a `k`x`k` kernel over `out` output pixels.
fn conv_in_layout(d: &mut Draw, shape: Shape, out: i64, k: i64) -> Option<Layout> {
    match d.below(3) {
        0 => None,
        1 => Some(presets::nhwo(shape).unwrap()),
        _ => {
            let it = d.divisor(shape.dim(1));
            let (ht, wt) = (d.divisor(out), d.divisor(out));
            Some(presets::conv_input_tiled_nd(shape, it, &[ht, wt], &[1, 1], &[k, k]).unwrap())
        }
    }
}

/// A random plan with conversions, pads, unfolds and `store_at`.
fn random_plan(n: &Net, d: &mut Draw) -> LayoutPlan {
    let g = &n.g;
    let mode = if d.coin() {
        PropagationMode::Full
    } else {
        PropagationMode::None
    };
    let mut plan = LayoutPlan::new(mode);
    let (conv1, conv2, dense) = (producer(g, n.c1), producer(g, n.c2), producer(g, n.gm));
    if let Some(l) = conv_out_layout(d, g.tensor(n.c1).shape.clone()) {
        plan.assign_output_layout(g, conv1, l);
    }
    // Read through the pad op: absorbed under Full, converted under None.
    if let Some(l) = conv_in_layout(d, g.tensor(n.p).shape.clone(), 8, 3) {
        plan.assign_input_layout(g, conv1, n.p, l);
    }
    if d.coin() {
        let w = presets::conv_weight_tiled_nd(g.tensor(n.w1).shape.clone(), 2, 4).unwrap();
        plan.assign_input_layout(g, conv1, n.w1, w);
    }
    // `r` also feeds the residual add, so a new view of it is a runtime
    // conversion.
    if let Some(l) = conv_in_layout(d, g.tensor(n.r).shape.clone(), 8, 1) {
        plan.assign_input_layout(g, conv2, n.r, l);
    }
    match d.below(3) {
        0 => {}
        1 => {
            // A padded output layout: the add reads it through the pad.
            let padded = Layout::identity(g.tensor(n.c2).shape.clone())
                .with(LayoutPrim::Pad {
                    dim: 1,
                    before: 0,
                    after: 2,
                })
                .unwrap();
            plan.assign_output_layout(g, conv2, padded);
        }
        _ => {
            if let Some(l) = conv_out_layout(d, g.tensor(n.c2).shape.clone()) {
                plan.assign_output_layout(g, conv2, l);
            }
        }
    }
    if d.coin() {
        let (rt, ct) = (d.divisor(6), d.divisor(8));
        let l = presets::gmm_tiled(g.tensor(n.gm).shape.clone(), rt, ct).unwrap();
        plan.assign_output_layout(g, dense, l);
    }
    match d.below(3) {
        0 => plan.store_at(g, n.wd, n.bd, 0).unwrap(),
        1 => {
            let padded = Layout::identity(g.tensor(n.wd).shape.clone())
                .with(LayoutPrim::Pad {
                    dim: 0,
                    before: 1,
                    after: 1,
                })
                .unwrap();
            plan.assign_input_layout(g, dense, n.wd, padded);
        }
        _ => {}
    }
    plan
}

/// A random schedule for `op` under `plan`: tilings that divide its
/// physical output and reduce extents (or, now and then, ones that do
/// not, which lowering replaces with its automatic schedule), random
/// annotations and a random fusion request.
fn random_sched(g: &Graph, plan: &LayoutPlan, op: OpId, d: &mut Draw) -> OpSchedule {
    let node = g.node(op);
    let phys = plan.layout_of(g, node.output).physical_shape();
    let tile = |d: &mut Draw, e: i64| {
        let t = if d.below(8) == 0 { 3 } else { d.divisor(e) };
        if t > 1 && e % t == 0 && d.coin() {
            AxisTiling::one(t)
        } else if t > 1 {
            AxisTiling::two(1, t)
        } else {
            AxisTiling::none()
        }
    };
    let spatial = phys.dims().iter().map(|&e| tile(d, e)).collect();
    let reduce = node
        .compute
        .reduce_axes
        .iter()
        .map(|ax| tile(d, ax.extent))
        .collect();
    OpSchedule {
        spatial,
        reduce,
        vectorize: d.coin(),
        unroll: d.coin(),
        parallel: d.coin(),
        fuse_into_producer: d.coin(),
    }
}

/// `(root, fused)` of every compute group: the fusion decisions.
fn fusion(p: &Program) -> Vec<(OpId, Vec<OpId>)> {
    p.groups
        .iter()
        .filter(|gr| !gr.label.starts_with("convert("))
        .map(|gr| (gr.root, gr.fused.clone()))
        .collect()
}

fn random_roots(g: &Graph, op: OpId, d: &mut Draw) -> Option<HashSet<OpId>> {
    match d.below(5) {
        0 => None,
        1 | 2 => Some([op].into_iter().collect()),
        _ => Some(
            (0..g.num_ops())
                .map(OpId)
                .filter(|&o| o == op || d.coin())
                .collect(),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn candidates_through_one_context_match_one_shot_lowering(seed in any::<u64>()) {
        let n = net();
        let g = &n.g;
        let mut d = Draw(seed);
        let plan = random_plan(&n, &mut d);
        let mut base = GraphSchedule::naive();
        for node in g.nodes() {
            if node.tag == OpTag::Elementwise || d.coin() {
                base.set(node.id, random_sched(g, &plan, node.id, &mut d));
            }
        }
        let base_full = try_lower(g, &plan, &base);
        prop_assume!(base_full.is_ok());
        let base_fusion = fusion(&base_full.unwrap());
        let ctx = LowerCtx::new(g, &plan, &base);
        for _ in 0..10 {
            let op = OpId(d.below(g.num_ops()));
            let over = random_sched(g, &plan, op, &mut d);
            let roots = random_roots(g, op, &mut d);
            let mut trial = base.clone();
            trial.set(op, over.clone());
            let Ok(trial_full) = try_lower(g, &plan, &trial) else {
                continue;
            };
            let got = ctx.lower(roots.as_ref(), Some((op, &over)));
            if fusion(&trial_full) != base_fusion {
                let err = got.expect_err("an override that moves a fusion boundary must be rejected");
                prop_assert_eq!(err.kind(), "lower");
                continue;
            }
            let want = try_lower_filtered(g, &plan, &trial, roots.as_ref());
            match (got, want) {
                (Ok(got), Ok(want)) => {
                    prop_assert_eq!(program_fingerprint(&got), program_fingerprint(&want));
                    prop_assert_eq!(format!("{got:?}"), format!("{want:?}"));
                }
                (Err(got), Err(want)) => prop_assert_eq!(got.to_string(), want.to_string()),
                (got, want) => prop_assert!(
                    false,
                    "context {:?} vs one-shot {:?}",
                    got.map(|p| program_fingerprint(&p)),
                    want.map(|p| program_fingerprint(&p))
                ),
            }
        }
    }
}

/// conv+bias+relu fused under a tiled, propagated layout.
fn fused_chain() -> (Graph, LayoutPlan, GraphSchedule, OpId, OpId, OpId) {
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new([1, 4, 8, 8]));
    let w = g.add_param("w", Shape::new([8, 4, 3, 3]));
    let b = g.add_param("b", Shape::new([8]));
    let c = ops::conv2d(&mut g, x, w, ConvCfg::default());
    let ba = ops::bias_add(&mut g, c, b, 1);
    let r = ops::relu(&mut g, ba);
    let (conv, bias, relu) = (producer(&g, c), producer(&g, ba), producer(&g, r));
    let mut plan = LayoutPlan::new(PropagationMode::Full);
    let tiled = presets::c2d_output_tiled(g.tensor(c).shape.clone(), 3, 2, 4).unwrap();
    plan.assign_output_layout(&g, conv, tiled);
    let mut sched = GraphSchedule::naive();
    let fuse = OpSchedule {
        fuse_into_producer: true,
        ..OpSchedule::default()
    };
    sched.set(bias, fuse.clone());
    sched.set(relu, fuse);
    (g, plan, sched, conv, bias, relu)
}

#[test]
fn override_that_unfuses_an_op_is_rejected() {
    let (g, plan, sched, conv, _, relu) = fused_chain();
    let ctx = LowerCtx::new(&g, &plan, &sched);
    let roots: HashSet<OpId> = [conv].into_iter().collect();
    let whole = ctx.lower(Some(&roots), None).unwrap();
    assert_eq!(whole.groups.len(), 1);
    assert_eq!(whole.groups[0].fused.len(), 2);
    let unfused = OpSchedule::default();
    let err = ctx.lower(Some(&roots), Some((relu, &unfused))).unwrap_err();
    assert_eq!(err.kind(), "lower");
    assert!(err.to_string().contains("fusion decision"), "{err}");
}

#[test]
fn complex_op_override_matches_a_cloned_schedule() {
    let (g, plan, sched, conv, bias, _) = fused_chain();
    let ctx = LowerCtx::new(&g, &plan, &sched);
    let over = OpSchedule {
        spatial: vec![AxisTiling::none(), AxisTiling::one(2)],
        reduce: vec![AxisTiling::one(2)],
        vectorize: true,
        parallel: true,
        ..OpSchedule::default()
    };
    let mut trial = sched.clone();
    trial.set(conv, over.clone());
    let roots: HashSet<OpId> = [conv, bias].into_iter().collect();
    let got = ctx.lower(Some(&roots), Some((conv, &over))).unwrap();
    let want = try_lower_filtered(&g, &plan, &trial, Some(&roots)).unwrap();
    assert_eq!(program_fingerprint(&got), program_fingerprint(&want));
    assert_eq!(format!("{got:?}"), format!("{want:?}"));
    // A fused op is no group root, so it adds nothing on its own.
    assert_eq!(got.groups.len(), 1);
}
