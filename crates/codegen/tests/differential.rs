//! Differential harness: the native executor must be **bit-identical**
//! to the TIR interpreter — same stores, same accumulation order, same
//! predicated-slot semantics — on every machine profile, across random
//! layout/schedule chains and real model graphs.

#![allow(clippy::unwrap_used)]

use std::collections::HashMap;

use proptest::prelude::*;

use alt_codegen::compile;
use alt_codegen::ir::{CLoop, CNode, CStmt, FOp, NativeKernel, Tile, Walk, WalkLevel};
use alt_layout::{presets, Layout, LayoutPlan, LayoutPrim, PropagationMode};
use alt_loopir::tir::{SExpr, TirNode};
use alt_loopir::{
    lower, pack_buffers, run_program, AxisTiling, GraphSchedule, LoopKind, OpSchedule, Program,
    StoreMode,
};
use alt_models::all_models;
use alt_sim::{all_profiles, MachineProfile};
use alt_tensor::exec::random_bindings;
use alt_tensor::expr::Expr;
use alt_tensor::op::UnaryOp;
use alt_tensor::ops::{self, ConvCfg};
use alt_tensor::{Graph, NdBuf, OpId, Shape, TensorId};

/// Runs interpreter and native executor on the same program and asserts
/// every unpacked tensor matches bit for bit.
fn assert_bit_identical(
    program: &Program,
    g: &Graph,
    plan: &LayoutPlan,
    bindings: &HashMap<TensorId, NdBuf>,
    profile: &MachineProfile,
    threads: usize,
    what: &str,
) {
    let want = run_program(program, g, plan, bindings);
    let kernel = compile(program, profile);
    let (got, _) = kernel.run(program, g, plan, bindings, threads);
    assert_eq!(want.len(), got.len(), "{what}: tensor set differs");
    for (t, w) in &want {
        let n = &got[t];
        assert_eq!(w.shape().dims(), n.shape().dims(), "{what}: shape");
        for (i, (a, b)) in w.data().iter().zip(n.data()).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{what}: tensor `{}` flat index {i} on {}: interp {a} vs native {b}",
                g.tensor(*t).name,
                profile.name
            );
        }
    }
}

fn gmm_graph(m: i64, k: i64, n: i64) -> (Graph, TensorId, OpId, TensorId) {
    let mut g = Graph::new();
    let a = g.add_input("a", Shape::new([m, k]));
    let b = g.add_param("b", Shape::new([k, n]));
    let y = ops::gmm(&mut g, a, b);
    let op = g.tensor(y).producer.unwrap();
    (g, a, op, y)
}

/// A schedule that turns on `@par` and `@vec` for every operator, so
/// that parallel loops and the tiled inner loops walks run over are
/// exercised.
fn par_vec_schedule(g: &Graph) -> GraphSchedule {
    let mut sched = GraphSchedule::naive();
    for k in 0..g.num_ops() {
        sched.set(
            OpId(k),
            OpSchedule {
                vectorize: true,
                parallel: true,
                ..OpSchedule::default()
            },
        );
    }
    sched
}

#[test]
fn naive_gmm_is_bit_identical_on_every_profile() {
    let (g, _, _, _) = gmm_graph(6, 8, 10);
    let plan = LayoutPlan::new(PropagationMode::Full);
    let program = lower(&g, &plan, &GraphSchedule::naive());
    let bindings = random_bindings(&g, 1);
    for p in all_profiles() {
        assert_bit_identical(&program, &g, &plan, &bindings, &p, 4, "naive gmm");
    }
}

#[test]
fn tiled_conv_with_par_vec_is_bit_identical() {
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new([1, 4, 10, 10]));
    let w = g.add_param("w", Shape::new([8, 4, 3, 3]));
    let y = ops::conv2d(&mut g, x, w, ConvCfg::default());
    let conv = g.tensor(y).producer.unwrap();
    let mut plan = LayoutPlan::new(PropagationMode::Full);
    plan.assign_output_layout(&g, conv, presets::nhwo(g.tensor(y).shape.clone()).unwrap());
    let mut sched = par_vec_schedule(&g);
    sched.set(
        conv,
        OpSchedule {
            spatial: vec![
                AxisTiling::none(),
                AxisTiling::one(4),
                AxisTiling::one(2),
                AxisTiling::none(),
            ],
            vectorize: true,
            parallel: true,
            ..OpSchedule::default()
        },
    );
    let program = lower(&g, &plan, &sched);
    let bindings = random_bindings(&g, 2);
    for p in all_profiles() {
        assert_bit_identical(&program, &g, &plan, &bindings, &p, 4, "tiled conv");
    }
}

#[test]
fn padded_and_unfolded_layouts_are_bit_identical() {
    // Pad on the output exercises the pred-false Assign (zeroing) path;
    // Unfold-with-overhang on the input exercises conversion nests with
    // invalid slots.
    let (g, a, op, y) = gmm_graph(9, 4, 5);
    let mut plan = LayoutPlan::new(PropagationMode::Full);
    plan.assign_output_layout(
        &g,
        op,
        Layout::identity(g.tensor(y).shape.clone())
            .with(LayoutPrim::Pad {
                dim: 1,
                before: 1,
                after: 2,
            })
            .unwrap(),
    );
    plan.assign_input_layout(
        &g,
        op,
        a,
        Layout::identity(g.tensor(a).shape.clone())
            .with(LayoutPrim::Unfold {
                dim: 0,
                tile: 4,
                stride: 3,
            })
            .unwrap(),
    );
    let program = lower(&g, &plan, &par_vec_schedule(&g));
    let bindings = random_bindings(&g, 3);
    for p in all_profiles() {
        assert_bit_identical(&program, &g, &plan, &bindings, &p, 4, "pad+unfold gmm");
    }
}

#[test]
fn swizzled_morton_and_blockdiag_layouts_are_bit_identical() {
    // The PR-10 advanced primitives: XOR swizzle and block-diagonal
    // remap on the GMM weight's packed tiles, Morton interleave on the
    // output. All three are bijective, so interpreter and native must
    // agree bit for bit through the pack/compute/unpack pipeline.
    let (g, a, op, y) = gmm_graph(8, 8, 16);
    let b = g.tensor(y).producer.map(|p| g.node(p).inputs[1]).unwrap();
    let mut plan = LayoutPlan::new(PropagationMode::Full);
    // Output [8, 16]: tile to [2, 4, 4, 4] then Morton the equal pair.
    plan.assign_output_layout(
        &g,
        op,
        Layout::identity(g.tensor(y).shape.clone())
            .with(LayoutPrim::Split {
                dim: 0,
                factors: vec![2, 4],
            })
            .unwrap()
            .with(LayoutPrim::Split {
                dim: 2,
                factors: vec![4, 4],
            })
            .unwrap()
            .with(LayoutPrim::Morton { dim: 1 })
            .unwrap(),
    );
    // Input [8, 8]: channel-tiled + XOR swizzle of the inner tile.
    plan.assign_input_layout(
        &g,
        op,
        a,
        presets::channel_tiled_swizzled(g.tensor(a).shape.clone(), 4, 2).unwrap(),
    );
    // Weight [8, 16]: block-diagonal rotation of the last dim.
    plan.assign_input_layout(
        &g,
        op,
        b,
        presets::block_diag_rotated(g.tensor(b).shape.clone(), 3).unwrap(),
    );
    let program = lower(&g, &plan, &par_vec_schedule(&g));
    // The advanced layouts must also pass the integer-set legality
    // engine before execution (no conservative rejection regressions).
    let diags = alt_verify::verify_program(&g, &plan, &program);
    assert!(diags.is_empty(), "unexpected diagnostics: {diags:?}");
    let bindings = random_bindings(&g, 7);
    for p in all_profiles() {
        assert_bit_identical(
            &program,
            &g,
            &plan,
            &bindings,
            &p,
            4,
            "swizzle+morton+bdiag",
        );
    }
}

#[test]
fn vec_fast_path_and_parallel_loops_are_present() {
    // Guard against the fast paths silently compiling away: the conv
    // kernel above must actually contain walks and parallel loops,
    // otherwise the differential tests stop covering them.
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new([1, 4, 10, 10]));
    let w = g.add_param("w", Shape::new([8, 4, 3, 3]));
    let y = ops::conv2d(&mut g, x, w, ConvCfg::default());
    let conv = g.tensor(y).producer.unwrap();
    let plan = LayoutPlan::new(PropagationMode::Full);
    // Untiled axes have no inner spatial loops for `@vec` to land on, so
    // tile the spatial dims the same way the tiled-conv test does.
    let mut sched = par_vec_schedule(&g);
    sched.set(
        conv,
        OpSchedule {
            spatial: vec![
                AxisTiling::none(),
                AxisTiling::one(4),
                AxisTiling::one(2),
                AxisTiling::none(),
            ],
            vectorize: true,
            parallel: true,
            ..OpSchedule::default()
        },
    );
    let program = lower(&g, &plan, &sched);
    let kernel = compile(&program, &alt_sim::intel_cpu());
    let stats = kernel.stats();
    assert!(stats.walks > 0, "no walks: {stats:?}");
    assert!(stats.par_loops > 0, "no parallel loops: {stats:?}");
    assert!(stats.iops > 0 && stats.fops > 0);
}

/// A walk with the loops around it, outermost first.
struct Placed<'k> {
    walk: &'k Walk,
    around: Vec<&'k CLoop>,
}

/// The kernel's walks, and the loops that are not `@par` and whose body
/// is one or more statements and nothing else: the loops no walk covers
/// although a walk could start there when the statements have strides in
/// their variable.
fn walks_and_stmt_loops(kernel: &NativeKernel) -> (Vec<Placed<'_>>, Vec<&CLoop>) {
    fn visit<'k>(
        nodes: &'k [CNode],
        around: &mut Vec<&'k CLoop>,
        walks: &mut Vec<Placed<'k>>,
        stmt_loops: &mut Vec<&'k CLoop>,
    ) {
        for n in nodes {
            match n {
                CNode::Walk(walk) => walks.push(Placed {
                    walk,
                    around: around.clone(),
                }),
                CNode::Loop(l) => {
                    let stmts_only = l.body.iter().all(|n| matches!(n, CNode::Stmt(_)));
                    if !l.parallel && !l.body.is_empty() && stmts_only {
                        stmt_loops.push(l);
                    }
                    around.push(l);
                    visit(&l.body, around, walks, stmt_loops);
                    around.pop();
                }
                CNode::Stmt(_) => {}
            }
        }
    }
    let (mut walks, mut stmt_loops) = (Vec::new(), Vec::new());
    for g in &kernel.groups {
        visit(&g.nodes, &mut Vec::new(), &mut walks, &mut stmt_loops);
    }
    (walks, stmt_loops)
}

/// The multiply-accumulate walks among `walks`.
fn macs<'a, 'k>(walks: &'a [Placed<'k>]) -> Vec<&'a Placed<'k>> {
    walks.iter().filter(|p| p.walk.mac.is_some()).collect()
}

/// Asserts bit-identity with the interpreter on every profile, and that
/// no loop that is not `@par` and holds statements alone lies outside a
/// walk: in the kernels these tests build every statement is affine in
/// its innermost loop and no condition reads that loop, so each such loop
/// starts a walk. Returns the kernel compiled for the last profile (walks
/// do not depend on the profile).
fn assert_typed_and_bit_identical(
    program: &Program,
    g: &Graph,
    plan: &LayoutPlan,
    bindings: &HashMap<TensorId, NdBuf>,
    what: &str,
) -> NativeKernel {
    let mut last = None;
    for p in all_profiles() {
        assert_bit_identical(program, g, plan, bindings, &p, 4, what);
        let kernel = compile(program, &p);
        let (walks, stmt_loops) = walks_and_stmt_loops(&kernel);
        assert!(
            !macs(&walks).is_empty(),
            "{what}: no multiply-accumulate walk"
        );
        assert!(
            stmt_loops.is_empty(),
            "{what} on {}: {} statement loops lie outside every walk ({:?})",
            p.name,
            stmt_loops.len(),
            kernel.stats()
        );
        assert_eq!(kernel.stats().typed_loops, macs(&walks).len());
        assert_eq!(kernel.stats().walks, walks.len());
        last = Some(kernel);
    }
    last.unwrap()
}

/// The number of levels of the deepest walk.
fn deepest_walk(kernel: &NativeKernel) -> usize {
    let (walks, _) = walks_and_stmt_loops(kernel);
    walks.iter().map(|p| p.walk.levels.len()).max().unwrap_or(0)
}

/// A GMM with a `(K/8) (N/16) 8 16` weight, tiled `m` by 2, `n` by 8
/// and `k` by 4: `S0 = m.o n.o` (`@par`), then the init nest and the
/// accumulation nest `k.o k.i m.i n.i@vec`.
fn tiled_gmm() -> (Graph, LayoutPlan, Program) {
    let (g, _, op, _) = gmm_graph(8, 16, 32);
    let b = g.node(op).inputs[1];
    let mut plan = LayoutPlan::new(PropagationMode::Full);
    plan.assign_input_layout(
        &g,
        op,
        b,
        presets::gmm_tiled(g.tensor(b).shape.clone(), 8, 16).unwrap(),
    );
    let mut sched = GraphSchedule::naive();
    sched.set(
        op,
        OpSchedule {
            spatial: vec![AxisTiling::one(2), AxisTiling::one(8)],
            reduce: vec![AxisTiling::one(4)],
            vectorize: true,
            parallel: true,
            ..OpSchedule::default()
        },
    );
    let program = lower(&g, &plan, &sched);
    (g, plan, program)
}

#[test]
fn gmm_with_tiled_weight_runs_its_reduction_typed() {
    // The weight's layout puts the vectorized `n.i` under `/ 16` and
    // `mod 16`. With `n.i` in [0, 8) the loop ranges reduce both to
    // strides in `n.i`, and `k.i` and `m.i` enter every offset affinely,
    // so the walk covers three levels. `k.o` stops it: `(k.o·4 + k.i) / 8`
    // is `k.o / 2`.
    let (g, plan, program) = tiled_gmm();
    let bindings = random_bindings(&g, 11);
    let kernel = assert_typed_and_bit_identical(&program, &g, &plan, &bindings, "tiled-weight gmm");
    assert!(deepest_walk(&kernel) >= 3, "{:?}", kernel.stats());
}

#[test]
fn conv_vectorized_on_a_split_output_channel_runs_typed() {
    // `@vec` lands on `o.i`, the inner half of a split output channel.
    // The weight's `(O/8) (I/4) KH KW 4 8` layout puts `o.o·4 + o.i`
    // under `/ 8` and `mod 8`, which the loop ranges reduce to strides in
    // `o.i`.
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new([1, 8, 6, 6]));
    let w = g.add_param("w", Shape::new([16, 8, 3, 3]));
    let y = ops::conv2d(&mut g, x, w, ConvCfg::default());
    let conv = g.tensor(y).producer.unwrap();
    let mut plan = LayoutPlan::new(PropagationMode::Full);
    plan.assign_output_layout(&g, conv, presets::nhwo(g.tensor(y).shape.clone()).unwrap());
    plan.assign_input_layout(
        &g,
        conv,
        w,
        presets::c2d_weight_tiled(g.tensor(w).shape.clone(), 4, 8).unwrap(),
    );
    let mut sched = GraphSchedule::naive();
    sched.set(
        conv,
        OpSchedule {
            spatial: vec![
                AxisTiling::none(),
                AxisTiling::one(2),
                AxisTiling::none(),
                AxisTiling::one(4),
            ],
            vectorize: true,
            parallel: true,
            ..OpSchedule::default()
        },
    );
    let program = lower(&g, &plan, &sched);
    let bindings = random_bindings(&g, 12);
    assert_typed_and_bit_identical(&program, &g, &plan, &bindings, "split-channel conv");
}

/// A batch GMM over row-major layouts, tiled `m` by 4, `n` by 8 and `k`
/// by 4: `S0 = b m.o n.o` (`@par`), then the init nest and the
/// accumulation nest `k.o k.i m.i n.i@vec`.
fn batch_gmm() -> (Graph, LayoutPlan, Program) {
    let mut g = Graph::new();
    let a = g.add_input("a", Shape::new([2, 8, 16]));
    let b = g.add_param("b", Shape::new([2, 16, 32]));
    let y = ops::batch_gmm(&mut g, a, b);
    let op = g.tensor(y).producer.unwrap();
    let plan = LayoutPlan::new(PropagationMode::Full);
    let mut sched = GraphSchedule::naive();
    sched.set(
        op,
        OpSchedule {
            spatial: vec![AxisTiling::none(), AxisTiling::one(4), AxisTiling::one(8)],
            reduce: vec![AxisTiling::one(4)],
            vectorize: true,
            parallel: true,
            ..OpSchedule::default()
        },
    );
    let program = lower(&g, &plan, &sched);
    (g, plan, program)
}

#[test]
fn batch_gmm_collapses_its_reduction_and_inner_spatial_loops() {
    // Row-major layouts keep every offset affine, so one walk covers the
    // whole accumulation nest.
    let (g, plan, program) = batch_gmm();
    let bindings = random_bindings(&g, 13);
    let kernel = assert_typed_and_bit_identical(&program, &g, &plan, &bindings, "batch gmm");
    assert_eq!(deepest_walk(&kernel), 4, "{:?}", kernel.stats());
}

/// Asserts that every multiply-accumulate walk of `kernel` stopped below a
/// serial loop that holds it alone: the loop entered an offset
/// non-affinely or entered a condition, as neither `@par` nor a sibling
/// node stopped the walk.
fn assert_walks_stop_at_an_access(kernel: &NativeKernel, what: &str) {
    let (walks, _) = walks_and_stmt_loops(kernel);
    assert!(!macs(&walks).is_empty(), "{what}: no walk");
    for p in macs(&walks) {
        let parent = p.around.last().expect("a walk inside the tile loops");
        assert!(
            !parent.parallel && parent.body.len() == 1,
            "{what}: the walk stopped at a `@par` loop or a sibling"
        );
    }
}

#[test]
fn walks_stop_below_a_predicated_or_clamped_loop() {
    // Padding the output channel puts `0 <= o.o·2 + o.i - 1 < 8` on every
    // store, so `o.i` enters the statement's predicate: the walk covers
    // `h.i w.i@vec` and stops below `o.i`.
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new([1, 4, 10, 10]));
    let w = g.add_param("w", Shape::new([8, 4, 3, 3]));
    let y = ops::conv2d(&mut g, x, w, ConvCfg::default());
    let conv = g.tensor(y).producer.unwrap();
    let mut plan = LayoutPlan::new(PropagationMode::Full);
    plan.assign_output_layout(
        &g,
        conv,
        Layout::identity(g.tensor(y).shape.clone())
            .with(LayoutPrim::Pad {
                dim: 1,
                before: 1,
                after: 1,
            })
            .unwrap(),
    );
    let mut sched = GraphSchedule::naive();
    sched.set(
        conv,
        OpSchedule {
            spatial: vec![
                AxisTiling::none(),
                AxisTiling::one(2),
                AxisTiling::one(2),
                AxisTiling::one(4),
            ],
            vectorize: true,
            parallel: true,
            ..OpSchedule::default()
        },
    );
    let program = lower(&g, &plan, &sched);
    let bindings = random_bindings(&g, 14);
    let kernel = assert_typed_and_bit_identical(&program, &g, &plan, &bindings, "padded conv");
    assert_walks_stop_at_an_access(&kernel, "padded conv");
    assert_eq!(deepest_walk(&kernel), 2, "{:?}", kernel.stats());

    // Unfolding the input's rows (tiles of 4 at stride 3) reads row
    // `h + kh` through a tile index clamped to the last tile, which is
    // not affine in `h.i`: the walk stops below it.
    let mut plan = LayoutPlan::new(PropagationMode::Full);
    plan.assign_input_layout(
        &g,
        conv,
        x,
        Layout::identity(g.tensor(x).shape.clone())
            .with(LayoutPrim::Unfold {
                dim: 2,
                tile: 4,
                stride: 3,
            })
            .unwrap(),
    );
    let program = lower(&g, &plan, &sched);
    let kernel = assert_typed_and_bit_identical(&program, &g, &plan, &bindings, "unfolded conv");
    assert_walks_stop_at_an_access(&kernel, "unfolded conv");
}

#[test]
fn walks_cross_no_par_loop_and_no_loop_with_a_sibling() {
    // The batch GMM's multiply-accumulate walk covers its whole
    // accumulation nest and stops at `n.o`, which also holds the init
    // nest's walk.
    let (g, plan, mut program) = batch_gmm();
    let bindings = random_bindings(&g, 15);
    let kernel = compile(&program, &alt_sim::intel_cpu());
    let (walks, _) = walks_and_stmt_loops(&kernel);
    let walks = macs(&walks);
    assert_eq!(walks.len(), 1);
    assert_eq!(walks[0].walk.levels.len(), 4);
    assert_eq!(walks[0].around.last().unwrap().body.len(), 2);
    // Marking `m.i` (the loop around `n.i@vec`) `@par` stops the walk at
    // one level. Each `m.i` iteration writes its own output row, so the
    // program stays race-free and bit-identical.
    fn mark_vec_parent_par(nodes: &mut [TirNode]) -> bool {
        for n in nodes {
            if let TirNode::Loop { kind, body, .. } = n {
                let vec_child = matches!(
                    &body[..],
                    [TirNode::Loop { kind: LoopKind::Vectorized, body: inner, .. }]
                        if matches!(&inner[..], [TirNode::Stmt(s)] if s.mode == StoreMode::AddAcc)
                );
                if vec_child {
                    *kind = LoopKind::Parallel;
                    return true;
                }
                if mark_vec_parent_par(body) {
                    return true;
                }
            }
        }
        false
    }
    assert!(mark_vec_parent_par(&mut program.groups[0].nodes));
    let kernel =
        assert_typed_and_bit_identical(&program, &g, &plan, &bindings, "gmm with @par m.i");
    let (walks, _) = walks_and_stmt_loops(&kernel);
    let walks = macs(&walks);
    assert_eq!(walks.len(), 1);
    assert_eq!(walks[0].walk.levels.len(), 1);
    assert!(walks[0].around.last().unwrap().parallel);
}

/// The single-statement walks of `kernel` whose statement satisfies `f`.
fn walks_where<'k>(kernel: &'k NativeKernel, f: impl Fn(&CStmt) -> bool) -> Vec<Placed<'k>> {
    let (walks, _) = walks_and_stmt_loops(kernel);
    walks
        .into_iter()
        .filter(|p| matches!(&p.walk.stmts[..], [s] if f(s)))
        .collect()
}

#[test]
fn t2d_select_walk_stops_at_the_loop_its_condition_reads() {
    // A transposed conv accumulates `select(parity and range of h - rh and
    // w - rw, x · w, 0)`. With the output channels innermost (NHWO) and
    // split, `o.i` enters no condition and every offset affinely, so a walk
    // starts there; the loop around it, `w.i`, is read by the condition,
    // so the walk stops below it.
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new([1, 4, 5, 5]));
    let w = g.add_param("w", Shape::new([4, 8, 3, 3]));
    let y = ops::tconv2d(&mut g, x, w, 2);
    let op = g.tensor(y).producer.unwrap();
    let mut plan = LayoutPlan::new(PropagationMode::Full);
    plan.assign_output_layout(&g, op, presets::nhwo(g.tensor(y).shape.clone()).unwrap());
    let mut sched = GraphSchedule::naive();
    sched.set(
        op,
        OpSchedule {
            spatial: vec![
                AxisTiling::none(),
                AxisTiling::none(),
                AxisTiling::one(11),
                AxisTiling::one(4),
            ],
            vectorize: true,
            parallel: true,
            ..OpSchedule::default()
        },
    );
    let program = lower(&g, &plan, &sched);
    let bindings = random_bindings(&g, 16);
    for p in all_profiles() {
        assert_bit_identical(&program, &g, &plan, &bindings, &p, 4, "t2d");
    }
    let kernel = compile(&program, &alt_sim::intel_cpu());
    let selects = walks_where(&kernel, |s| {
        s.mode == StoreMode::AddAcc && s.fops.iter().any(|f| matches!(f, FOp::JumpIfZero { .. }))
    });
    assert_eq!(selects.len(), 1, "{:?}", kernel.stats());
    assert_eq!(selects[0].walk.levels.len(), 1);
    assert!(selects[0].walk.mac.is_none());
    // Its condition reads no lane, so `o.i` runs as one row.
    assert!(selects[0].walk.rows);
    let parent = selects[0].around.last().unwrap();
    assert!(!parent.parallel && parent.body.len() == 1);
}

/// A tiled conv with a fused per-channel bias, and with `gelu` a fused
/// `gelu` after it: `S0` (`@par`), then the init nest, the accumulation
/// nest and the epilogue over `c.i h.i w.i`, whose body is `z = y + b`,
/// then `gelu(z)` when asked.
fn conv_with_bias(gelu: bool) -> (Graph, LayoutPlan, Program) {
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new([1, 4, 10, 10]));
    let w = g.add_param("w", Shape::new([8, 4, 3, 3]));
    let b = g.add_param("b", Shape::new([8]));
    let y = ops::conv2d(&mut g, x, w, ConvCfg::default());
    let mut fused = vec![ops::bias_add(&mut g, y, b, 1)];
    if gelu {
        fused.push(ops::gelu(&mut g, fused[0]));
    }
    let conv = g.tensor(y).producer.unwrap();
    let plan = LayoutPlan::new(PropagationMode::Full);
    let mut sched = par_vec_schedule(&g);
    for z in fused {
        sched.set(
            g.tensor(z).producer.unwrap(),
            OpSchedule {
                fuse_into_producer: true,
                ..OpSchedule::default()
            },
        );
    }
    sched.set(
        conv,
        OpSchedule {
            spatial: vec![
                AxisTiling::none(),
                AxisTiling::one(4),
                AxisTiling::one(2),
                AxisTiling::one(4),
            ],
            vectorize: true,
            parallel: true,
            ..OpSchedule::default()
        },
    );
    let program = lower(&g, &plan, &sched);
    (g, plan, program)
}

#[test]
fn init_nests_and_fused_epilogues_run_as_multi_level_walks() {
    let (g, plan, program) = conv_with_bias(false);
    assert_eq!(program.groups.len(), 1, "the bias is fused");
    let bindings = random_bindings(&g, 17);
    let kernel = assert_typed_and_bit_identical(&program, &g, &plan, &bindings, "conv+bias");
    let init = walks_where(&kernel, |s| matches!(s.fops[..], [FOp::Imm(_)]));
    // The epilogue loads the conv's output and the bias, whose offset
    // steps by 0 where the output's steps by 1.
    let epilogue = walks_where(&kernel, |s| {
        s.mode == StoreMode::Assign && matches!(s.fops[..], [FOp::Load { .. }, FOp::Load { .. }, _])
    });
    for (what, walks) in [("init", init), ("epilogue", epilogue)] {
        assert_eq!(walks.len(), 1, "{what}: {:?}", kernel.stats());
        assert!(walks[0].walk.levels.len() >= 2, "{what}: one level");
        assert!(walks[0].walk.rows, "{what}: point by point");
    }
}

/// The kernel's walks of two statements.
fn pairs(kernel: &NativeKernel) -> Vec<Placed<'_>> {
    let (walks, _) = walks_and_stmt_loops(kernel);
    walks
        .into_iter()
        .filter(|p| p.walk.stmts.len() == 2)
        .collect()
}

#[test]
fn a_fused_two_statement_epilogue_runs_as_one_row_walk() {
    // `z = y + b; a = gelu(z)` share the epilogue's loops, so they form one
    // walk; `gelu` reads `z` through `z`'s store slot, which `w.i` steps by
    // 1, so the walk runs `w.i` as rows.
    let (g, plan, program) = conv_with_bias(true);
    assert_eq!(program.groups.len(), 1, "the bias and gelu are fused");
    let bindings = random_bindings(&g, 25);
    let kernel = assert_typed_and_bit_identical(&program, &g, &plan, &bindings, "conv+bias+gelu");
    let pairs = pairs(&kernel);
    assert_eq!(pairs.len(), 1, "{:?}", kernel.stats());
    let w = pairs[0].walk;
    assert!(w.rows && w.levels.len() >= 2, "{:?}", w.levels);
    let [bias, gelu] = &w.stmts[..] else {
        unreachable!()
    };
    assert!(matches!(
        gelu.fops[..],
        [FOp::Load { buf, off }, FOp::Un(UnaryOp::Gelu)] if buf == bias.buf && off == bias.off
    ));
}

#[test]
fn a_later_statement_reading_an_earlier_store_one_slot_ahead_runs_point_by_point() {
    // Edit the epilogue so that `gelu` reads `z` one slot ahead along the
    // innermost loop `w.i`, which loses its last lane to keep the reads in
    // range. Each point then reads a slot that the next point stores, so
    // the loop tree's order reads it before that store: the row rule
    // rejects the load through another slot, and the walk runs point by
    // point.
    fn read_ahead(nodes: &mut [TirNode]) -> bool {
        nodes.iter_mut().any(|n| {
            let TirNode::Loop {
                var, extent, body, ..
            } = n
            else {
                return false;
            };
            if let [TirNode::Stmt(_), TirNode::Stmt(gelu)] = &mut body[..] {
                let SExpr::Unary(_, z) = &mut gelu.value else {
                    unreachable!("the second statement is a gelu")
                };
                let SExpr::Load { indices, .. } = &mut **z else {
                    unreachable!("gelu loads z")
                };
                let k = indices.iter().position(|e| e.uses_var(var.id())).unwrap();
                indices[k] = indices[k].add(&Expr::c(1));
                *extent -= 1;
                return true;
            }
            read_ahead(body)
        })
    }
    let (g, plan, mut program) = conv_with_bias(true);
    assert!(read_ahead(&mut program.groups[0].nodes));
    let bindings = random_bindings(&g, 26);
    for p in all_profiles() {
        assert_bit_identical(&program, &g, &plan, &bindings, &p, 4, "gelu one slot ahead");
    }
    let kernel = compile(&program, &alt_sim::intel_cpu());
    let pairs = pairs(&kernel);
    assert_eq!(pairs.len(), 1, "{:?}", kernel.stats());
    assert!(!pairs[0].walk.rows);
}

#[test]
fn padded_assign_walks_zero_the_entries_their_predicate_rejects() {
    // `relu` into a layout padded by one row before and two after: the
    // store predicate reads only the row loop, so the walk covers the two
    // inner loops, and the three pad rows are entries it rejects.
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new([3, 4, 8]));
    let y = ops::relu(&mut g, x);
    let op = g.tensor(y).producer.unwrap();
    let mut plan = LayoutPlan::new(PropagationMode::Full);
    let padded = Layout::identity(g.tensor(y).shape.clone())
        .with(LayoutPrim::Pad {
            dim: 0,
            before: 1,
            after: 2,
        })
        .unwrap();
    plan.assign_output_layout(&g, op, padded);
    let program = lower(&g, &plan, &GraphSchedule::naive());
    let bindings = random_bindings(&g, 18);
    for p in all_profiles() {
        assert_bit_identical(&program, &g, &plan, &bindings, &p, 4, "padded relu");
    }
    let kernel = compile(&program, &alt_sim::intel_cpu());
    let walks = walks_where(&kernel, |s| s.pred.is_some());
    assert_eq!(walks.len(), 1, "{:?}", kernel.stats());
    assert_eq!(walks[0].walk.levels.len(), 2);
    assert!(walks[0].walk.rows);
    // Unpacking never reads pad slots, so check them in the physical
    // buffer, filled beforehand with a value the program never writes.
    let mut bufs = pack_buffers(&program, &g, &plan, &bindings);
    let yb = program.buffer_for_tensor(y).unwrap().0;
    bufs[yb] = NdBuf::from_fn(bufs[yb].shape().clone(), |_| 7.0);
    kernel.execute(&mut bufs, 1);
    let xs = &bindings[&x];
    for r in 0..6 {
        for c in 0..4 {
            for k in 0..8 {
                let want = if (1..4).contains(&r) {
                    xs.get(&[r - 1, c, k]).max(0.0)
                } else {
                    0.0
                };
                assert_eq!(
                    bufs[yb].get(&[r, c, k]).to_bits(),
                    want.to_bits(),
                    "[{r}, {c}, {k}]"
                );
            }
        }
    }
}

#[test]
fn max_pool_nests_run_as_walks() {
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new([1, 4, 9, 9]));
    let _ = ops::max_pool2d(&mut g, x, 3, 2);
    let plan = LayoutPlan::new(PropagationMode::Full);
    let bindings = random_bindings(&g, 19);
    for sched in [GraphSchedule::naive(), par_vec_schedule(&g)] {
        let program = lower(&g, &plan, &sched);
        for p in all_profiles() {
            assert_bit_identical(&program, &g, &plan, &bindings, &p, 4, "max pool");
        }
        let kernel = compile(&program, &alt_sim::intel_cpu());
        let pools = walks_where(&kernel, |s| s.mode == StoreMode::MaxAcc);
        assert_eq!(pools.len(), 1, "{:?}", kernel.stats());
        assert!(pools[0].walk.levels.len() >= 2);
        assert!(pools[0].walk.rows);
    }
}

/// Asserts bit-identity on every profile as [`assert_typed_and_bit_identical`]
/// does, and that the kernel's one multiply-accumulate walk runs
/// register-tiled; returns the walk and its tile.
fn assert_tiled_and_bit_identical(
    program: &Program,
    g: &Graph,
    plan: &LayoutPlan,
    bindings: &HashMap<TensorId, NdBuf>,
    what: &str,
) -> (Walk, Tile) {
    let kernel = assert_typed_and_bit_identical(program, g, plan, bindings, what);
    assert_eq!(kernel.stats().tiled, 1, "{what}: {:?}", kernel.stats());
    let (walks, _) = walks_and_stmt_loops(&kernel);
    let walk = macs(&walks)[0].walk.clone();
    let tile = walk
        .tile
        .clone()
        .expect("the multiply-accumulate walk is tiled");
    (walk, *tile)
}

/// The extents of `levels`.
fn extents(levels: &[WalkLevel]) -> Vec<i64> {
    levels.iter().map(|l| l.extent).collect()
}

#[test]
fn tiled_gmm_runs_register_tiled() {
    // The walk `k.i m.i n.i` tiles: `k.i` reduces, `m.i` is the row (it
    // leaves the weight still) and `n.i` the column, with the weight as
    // the vector operand (steps `[1, 0, 1]`).
    let (g, plan, program) = tiled_gmm();
    let bindings = random_bindings(&g, 21);
    let (_, tile) = assert_tiled_and_bit_identical(&program, &g, &plan, &bindings, "tiled gmm");
    assert!(!tile.a_vector);
    assert_eq!(tile.col.mac, [1, 0, 1]);
    assert_eq!(tile.row.as_ref().map(|l| l.extent), Some(2));
    assert_eq!((extents(&tile.reduce), tile.outer.len()), (vec![4], 0));
}

#[test]
fn swapped_operand_conv_tiles_with_the_input_as_its_vector() {
    // A 1-D conv in NCW with `w` innermost: along `w.i` the output and the
    // input (the left operand) step by 1 and the weight by 0, so the
    // column's steps are `[1, 1, 0]`; `o.i` leaves the input still and is
    // the row. The product stays `x · w`.
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new([1, 4, 18]));
    let w = g.add_param("w", Shape::new([8, 4, 3]));
    let y = ops::conv1d(&mut g, x, w, ConvCfg::default());
    let conv = g.tensor(y).producer.unwrap();
    let plan = LayoutPlan::new(PropagationMode::Full);
    let mut sched = GraphSchedule::naive();
    sched.set(
        conv,
        OpSchedule {
            spatial: vec![AxisTiling::none(), AxisTiling::one(4), AxisTiling::one(8)],
            vectorize: true,
            parallel: true,
            ..OpSchedule::default()
        },
    );
    let program = lower(&g, &plan, &sched);
    let bindings = random_bindings(&g, 22);
    let (_, tile) =
        assert_tiled_and_bit_identical(&program, &g, &plan, &bindings, "swapped-operand conv");
    assert!(tile.a_vector);
    assert_eq!(tile.col.mac, [1, 1, 0]);
    assert_eq!(tile.row.as_ref().map(|l| l.mac[1]), Some(0));
    assert_eq!(extents(&tile.reduce), [4, 3], "ri, then rw");
}

#[test]
fn gmm_with_a_spatial_level_between_reductions_keeps_their_order() {
    // Two-level spatial tilings interleave the nest as
    // `k.0 m.1 n.1 k.1 m.2 n.2@vec`: the tile runs `k.0` and then `k.1`
    // innermost, below every spatial level.
    let (g, _, op, _) = gmm_graph(16, 16, 32);
    let plan = LayoutPlan::new(PropagationMode::Full);
    let mut sched = GraphSchedule::naive();
    sched.set(
        op,
        OpSchedule {
            spatial: vec![AxisTiling::two(2, 2), AxisTiling::two(2, 8)],
            reduce: vec![AxisTiling::one(4)],
            vectorize: true,
            parallel: true,
            ..OpSchedule::default()
        },
    );
    let program = lower(&g, &plan, &sched);
    let bindings = random_bindings(&g, 23);
    let (walk, tile) =
        assert_tiled_and_bit_identical(&program, &g, &plan, &bindings, "interleaved gmm");
    let reduces: Vec<bool> = walk.levels.iter().map(|l| l.mac[0] == 0).collect();
    assert_eq!(reduces, [true, false, false, true, false, false]);
    assert_eq!(
        tile.reduce.iter().map(|l| l.mac).collect::<Vec<_>>(),
        [walk.levels[0].mac, walk.levels[3].mac]
    );
    assert_eq!(tile.outer.len(), 2, "m.1 and n.1");
}

#[test]
fn tiles_with_ragged_rows_and_columns_are_bit_identical() {
    // 17 rows run as four blocks of 4 and one row; 15 columns as blocks
    // of 8, 4, 2 and 1.
    let (g, _, op, _) = gmm_graph(17, 5, 15);
    let plan = LayoutPlan::new(PropagationMode::Full);
    let mut sched = GraphSchedule::naive();
    sched.set(
        op,
        OpSchedule {
            spatial: vec![AxisTiling::one(17), AxisTiling::one(15)],
            vectorize: true,
            parallel: true,
            ..OpSchedule::default()
        },
    );
    let program = lower(&g, &plan, &sched);
    let bindings = random_bindings(&g, 24);
    let (_, tile) = assert_tiled_and_bit_identical(&program, &g, &plan, &bindings, "ragged gmm");
    assert_eq!(tile.row.as_ref().map(|l| l.extent), Some(17));
    assert_eq!((tile.col.extent, extents(&tile.reduce)), (15, vec![5]));
}

/// Model graphs end to end (prefix-truncated so the interpreter side
/// stays affordable): every profile, `@par`/`@vec` everywhere.
#[test]
fn model_prefixes_are_bit_identical_on_every_profile() {
    let cap: u64 = std::env::var("ALT_NATIVE_DIFF_CAP")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(200_000);
    for model in all_models(1) {
        let g = &model.graph;
        let plan = LayoutPlan::new(PropagationMode::Full);
        let program = lower(g, &plan, &par_vec_schedule(g)).truncated(cap);
        assert!(!program.groups.is_empty());
        let bindings = random_bindings(g, 5);
        for p in all_profiles() {
            assert_bit_identical(
                &program,
                g,
                &plan,
                &bindings,
                &p,
                4,
                &format!("model {}", model.name),
            );
        }
    }
}

fn divisors(n: i64) -> Vec<i64> {
    (1..=n).filter(|d| n % d == 0).collect()
}

fn pick(divs: &[i64], sel: u64) -> i64 {
    divs[(sel % divs.len() as u64) as usize]
}

/// Random factorization of `n` into >= 2 factors (seeded LCG), same
/// generator family as the verifier's property tests.
fn factorize(n: i64, rng_val: u64) -> Vec<i64> {
    let mut factors = Vec::new();
    let mut rest = n;
    let mut x = rng_val;
    while rest > 1 && factors.len() < 2 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let divs: Vec<i64> = (1..=rest).filter(|d| rest % d == 0).collect();
        let f = divs[(x >> 33) as usize % divs.len()];
        factors.push(f);
        rest /= f;
    }
    factors.push(rest);
    factors
}

/// Applies up to `n_prims` random primitives to an identity layout.
fn random_layout(shape: Shape, seed: u64, n_prims: usize) -> Layout {
    let mut layout = Layout::identity(shape);
    let mut x = seed;
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as usize
    };
    for _ in 0..n_prims {
        let dims = layout.physical_shape();
        let nd = dims.ndim();
        match next() % 8 {
            0 => {
                let candidates: Vec<usize> = (0..nd).filter(|&k| dims.dim(k) > 1).collect();
                if let Some(&k) = candidates.get(next() % candidates.len().max(1)) {
                    let factors = factorize(dims.dim(k), next() as u64);
                    if factors.len() >= 2 {
                        let _ = layout.apply(LayoutPrim::Split { dim: k, factors });
                    }
                }
            }
            1 => {
                let mut perm: Vec<usize> = (0..nd).collect();
                for i in (1..nd).rev() {
                    perm.swap(i, next() % (i + 1));
                }
                let _ = layout.apply(LayoutPrim::Reorder { perm });
            }
            2 => {
                if nd >= 2 {
                    let start = next() % (nd - 1);
                    let count = 2 + next() % (nd - start - 1).max(1);
                    let count = count.min(nd - start);
                    let _ = layout.apply(LayoutPrim::Fuse { start, count });
                }
            }
            3 => {
                let k = next() % nd;
                let d = dims.dim(k);
                if d >= 2 {
                    let tile = 2 + (next() as i64) % (d - 1);
                    let stride = 1 + (next() as i64) % tile;
                    let _ = layout.apply(LayoutPrim::Unfold {
                        dim: k,
                        tile,
                        stride,
                    });
                }
            }
            4 => {
                let k = next() % nd;
                let _ = layout.apply(LayoutPrim::Pad {
                    dim: k,
                    before: (next() % 3) as i64,
                    after: (next() % 3) as i64,
                });
            }
            5 => {
                if nd >= 2 {
                    let dim = next() % nd;
                    let src = next() % nd;
                    let bits = 1 + (next() % 2) as u32;
                    let _ = layout.apply(LayoutPrim::Swizzle { dim, src, bits });
                }
            }
            6 => {
                if nd >= 2 {
                    let dim = next() % (nd - 1);
                    let _ = layout.apply(LayoutPrim::Morton { dim });
                }
            }
            _ => {
                if nd >= 2 {
                    let dim = next() % nd;
                    let src = next() % nd;
                    let block = 1 + (next() as i64) % dims.dim(dim).max(2);
                    let _ = layout.apply(LayoutPrim::BlockDiag { dim, src, block });
                }
            }
        }
    }
    layout
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random layout chains on every GMM tensor plus random loop
    /// annotations: whatever lowering produces, native must equal the
    /// interpreter bit for bit on every machine profile.
    #[test]
    fn random_gmm_chains_are_bit_identical(
        seeds in prop::collection::vec(any::<u64>(), 3),
        n_prims in prop::collection::vec(0usize..4, 3),
        vectorize in any::<bool>(),
        parallel in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let (g, a, op, y) = gmm_graph(6, 8, 10);
        let b = g.tensor(y).producer.map(|p| g.node(p).inputs[1]).unwrap();
        let mut plan = LayoutPlan::new(PropagationMode::Full);
        plan.assign_output_layout(
            &g,
            op,
            random_layout(g.tensor(y).shape.clone(), seeds[0], n_prims[0]),
        );
        plan.assign_input_layout(
            &g,
            op,
            a,
            random_layout(g.tensor(a).shape.clone(), seeds[1], n_prims[1]),
        );
        plan.assign_input_layout(
            &g,
            op,
            b,
            random_layout(g.tensor(b).shape.clone(), seeds[2], n_prims[2]),
        );
        let mut sched = GraphSchedule::naive();
        sched.set(op, OpSchedule {
            vectorize,
            parallel,
            ..OpSchedule::default()
        });
        let program = lower(&g, &plan, &sched);
        let bindings = random_bindings(&g, seed);
        for p in all_profiles() {
            assert_bit_identical(&program, &g, &plan, &bindings, &p, 4, "random gmm chain");
        }
    }

    /// Random conv tilings: tiled reductions reassociate differently from
    /// the reference executor, but native and interpreter must still
    /// agree exactly.
    #[test]
    fn random_conv_tilings_are_bit_identical(
        sel in prop::collection::vec(any::<u64>(), 4),
        vectorize in any::<bool>(),
        unroll in any::<bool>(),
        parallel in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new([1, 4, 10, 10]));
        let w = g.add_param("w", Shape::new([8, 4, 3, 3]));
        let y = ops::conv2d(&mut g, x, w, ConvCfg::default());
        let conv = g.tensor(y).producer.unwrap();
        let plan = LayoutPlan::new(PropagationMode::Full);
        let phys = plan.layout_of(&g, y).physical_shape();
        let spatial: Vec<AxisTiling> = (0..phys.ndim())
            .map(|d| {
                let t = pick(&divisors(phys.dim(d)), sel[d]);
                if t > 1 { AxisTiling::one(t) } else { AxisTiling::none() }
            })
            .collect();
        let mut sched = GraphSchedule::naive();
        sched.set(conv, OpSchedule {
            spatial,
            vectorize,
            unroll,
            parallel,
            ..OpSchedule::default()
        });
        let program = lower(&g, &plan, &sched);
        let bindings = random_bindings(&g, seed);
        for p in all_profiles() {
            assert_bit_identical(&program, &g, &plan, &bindings, &p, 4, "random conv tiling");
        }
    }
}
