//! The plan-level half of verification ([`PlanCheck::new`]) composed
//! with the per-program half ([`PlanCheck::verify`]) returns exactly what
//! the one-shot [`verify_program_with_stats`] returns: the same
//! diagnostics in the same order, witnesses included, and the same
//! set-engine counters. Under an illegal plan every program is rejected
//! with the same first diagnostic as before.

#![allow(clippy::unwrap_used)]

use std::collections::HashSet;

use alt_error::codes;
use alt_layout::{presets, Layout, LayoutPlan, LayoutPrim, PropagationMode};
use alt_loopir::{
    lower, AxisTiling, GraphSchedule, LoopKind, LowerCtx, OpSchedule, Program, SExpr, Stmt,
    StoreMode, TirNode,
};
use alt_tensor::expr::Expr;
use alt_tensor::ops::{self, ConvCfg};
use alt_tensor::{Graph, OpId, Shape, TensorId};
use alt_verify::{verify_program_with_stats, Diagnostic, PlanCheck};

/// Checks the split against the one-shot verifier on every program and
/// returns the one-shot diagnostics.
fn assert_split_matches(
    g: &Graph,
    plan: &LayoutPlan,
    programs: &[Program],
) -> Vec<Vec<Diagnostic>> {
    let check = PlanCheck::new(g, plan);
    programs
        .iter()
        .map(|p| {
            let (want, ws) = verify_program_with_stats(g, plan, p);
            let (got, gs) = check.verify(p);
            assert_eq!(got, want, "diagnostics differ on {p:?}");
            // `set_emptiness_us` is wall-clock; the counts are exact.
            assert_eq!(
                (gs.set_queries, gs.conservative_recovered),
                (ws.set_queries, ws.conservative_recovered)
            );
            want
        })
        .collect()
}

fn first_stmt_mut<'a>(
    nodes: &'a mut [TirNode],
    pred: &impl Fn(&Stmt) -> bool,
) -> Option<&'a mut Stmt> {
    for node in nodes {
        match node {
            TirNode::Stmt(s) if pred(s) => return Some(s),
            TirNode::Stmt(_) => {}
            TirNode::Loop { body, .. } => {
                if let Some(s) = first_stmt_mut(body, pred) {
                    return Some(s);
                }
            }
        }
    }
    None
}

/// Shifts the first index of every load in `e` by `delta`.
fn bump_loads(e: &mut SExpr, delta: i64) {
    match e {
        SExpr::Imm(_) => {}
        SExpr::Load { indices, .. } => {
            if let Some(i0) = indices.first_mut() {
                *i0 = i0.add_c(delta);
            }
        }
        SExpr::Bin(_, a, b) => {
            bump_loads(a, delta);
            bump_loads(b, delta);
        }
        SExpr::Unary(_, a) => bump_loads(a, delta),
        SExpr::Select { then_, else_, .. } => {
            bump_loads(then_, delta);
            bump_loads(else_, delta);
        }
    }
}

/// Marks the loop of a reduction axis `@par`: a loop enclosing an
/// accumulating store whose indices do not use its variable.
fn parallelize_reduction(nodes: &mut [TirNode]) -> bool {
    for node in nodes {
        let TirNode::Loop {
            var, kind, body, ..
        } = node
        else {
            continue;
        };
        let id = var.id();
        let reduces = first_stmt_mut(body, &|s| {
            let mut vars = Vec::new();
            s.indices.iter().for_each(|i| i.collect_vars(&mut vars));
            s.mode == StoreMode::AddAcc && vars.iter().all(|v| v.id() != id)
        })
        .is_some();
        if reduces {
            *kind = LoopKind::Parallel;
            return true;
        }
        if parallelize_reduction(body) {
            return true;
        }
    }
    false
}

fn has_load(s: &Stmt) -> bool {
    let mut found = false;
    s.value.visit_loads(&mut |_, _| found = true);
    found
}

/// `p` and corrupted copies of it that trip the per-program passes:
/// escaping loads (V004, or V007 through a pad), a zero extent (V003), a
/// rebound axis (V001), an unbound axis (V002), a parallel write race
/// (V009) and a parallelized reduction (V010).
fn with_mutations(p: Program) -> Vec<Program> {
    let mut out = vec![p.clone()];
    let last = p.groups.len() - 1;

    let mut m = p.clone();
    if let Some(s) = first_stmt_mut(&mut m.groups[last].nodes, &has_load) {
        bump_loads(&mut s.value, 100);
        out.push(m);
    }

    let mut m = p.clone();
    if let Some(TirNode::Loop { extent, .. }) = m.groups[last].nodes.first_mut() {
        *extent = 0;
        out.push(m);
    }

    let mut m = p.clone();
    let first = m.groups[last].nodes[0].clone();
    if let TirNode::Loop { var, extent, .. } = &first {
        m.groups[last].nodes[0] =
            TirNode::loop_(var.clone(), *extent, LoopKind::Serial, vec![first.clone()]);
        out.push(m);
    }

    let mut m = p.clone();
    if let Some(s) = first_stmt_mut(&mut m.groups[last].nodes, &has_load) {
        let stray = s.clone();
        m.groups[last].nodes.push(TirNode::Stmt(stray));
        out.push(m);
    }

    let mut m = p.clone();
    if let Some(TirNode::Loop { kind, body, .. }) = m.groups[last].nodes.first_mut() {
        *kind = LoopKind::Parallel;
        if let Some(s) = first_stmt_mut(body, &|s| s.mode == StoreMode::Assign) {
            s.indices = vec![Expr::c(0); s.indices.len()];
        }
        out.push(m);
    }

    let mut m = p;
    if parallelize_reduction(&mut m.groups[last].nodes) {
        out.push(m);
    }
    out
}

fn gmm(g: &mut Graph, tag: &str) -> (TensorId, TensorId, OpId) {
    let a = g.add_input(format!("a{tag}"), Shape::new([6, 8]));
    let b = g.add_param(format!("b{tag}"), Shape::new([8, 10]));
    let c = ops::gmm(g, a, b);
    (b, c, g.tensor(c).producer.unwrap())
}

/// Candidate programs of `op`: its group under a few loop schedules,
/// lowered through one context, each with its corruptions.
fn candidates(g: &Graph, plan: &LayoutPlan, sched: &GraphSchedule, op: OpId) -> Vec<Program> {
    let ctx = LowerCtx::new(g, plan, sched);
    let roots: HashSet<OpId> = [op].into_iter().collect();
    let overs = [
        OpSchedule::default(),
        OpSchedule {
            spatial: vec![AxisTiling::one(2), AxisTiling::one(5)],
            reduce: vec![AxisTiling::one(4)],
            vectorize: true,
            ..OpSchedule::default()
        },
        OpSchedule {
            parallel: true,
            unroll: true,
            ..OpSchedule::default()
        },
    ];
    overs
        .iter()
        .flat_map(|s| with_mutations(ctx.lower(Some(&roots), Some((op, s))).unwrap()))
        .collect()
}

#[test]
fn legal_plans_split_exactly() {
    // Identity GMM, padded weight, and unfold of a padded axis.
    let pad = LayoutPrim::Pad {
        dim: 0,
        before: 0,
        after: 2,
    };
    let layouts = [
        None,
        Some(vec![pad.clone(), LayoutPrim::Fuse { start: 0, count: 2 }]),
        Some(vec![
            pad,
            LayoutPrim::Unfold {
                dim: 0,
                tile: 4,
                stride: 3,
            },
        ]),
    ];
    for prims in layouts {
        let mut g = Graph::new();
        let (b, _, op) = gmm(&mut g, "");
        let mut plan = LayoutPlan::new(PropagationMode::Full);
        if let Some(prims) = prims {
            let mut l = Layout::identity(g.tensor(b).shape.clone());
            for p in prims {
                l.apply(p).unwrap();
            }
            plan.assign_input_layout(&g, op, b, l);
        }
        let programs = candidates(&g, &plan, &GraphSchedule::naive(), op);
        let diags = assert_split_matches(&g, &plan, &programs);
        assert!(diags[0].is_empty(), "{:?}", diags[0]);
        assert!(diags.iter().any(|d| !d.is_empty()));
    }
}

#[test]
fn conversions_and_store_at_split_exactly() {
    // A conv reading an unfolded copy of a padded input through a
    // runtime conversion.
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new([1, 4, 8, 8]));
    let w = g.add_param("w", Shape::new([8, 4, 3, 3]));
    let p = ops::pad2d_spatial(&mut g, x, 1);
    let c = ops::conv2d(&mut g, p, w, ConvCfg::default());
    let conv = g.tensor(c).producer.unwrap();
    let mut plan = LayoutPlan::new(PropagationMode::None);
    let unfolded =
        presets::conv_input_tiled_nd(g.tensor(p).shape.clone(), 2, &[4, 2], &[1, 1], &[3, 3])
            .unwrap();
    plan.assign_input_layout(&g, conv, p, unfolded);
    assert_eq!(plan.conversions().len(), 1);
    let program = lower(&g, &plan, &GraphSchedule::naive());
    let diags = assert_split_matches(&g, &plan, &with_mutations(program));
    assert!(diags[0].is_empty(), "{:?}", diags[0]);

    // The bias stored in the dense weight, with a store into the
    // reserved slot (V006).
    let mut g = Graph::new();
    let a = g.add_input("a", Shape::new([6, 10]));
    let w = g.add_param("w", Shape::new([10, 8]));
    let mm = ops::gmm(&mut g, a, w);
    let b = g.add_param("b", Shape::new([8]));
    let out = ops::bias_add(&mut g, mm, b, 1);
    let mut plan = LayoutPlan::new(PropagationMode::Full);
    plan.store_at(&g, w, b, 0).unwrap();
    let mut sched = GraphSchedule::naive();
    for t in [mm, out] {
        let fuse = t == out;
        sched.set(
            g.tensor(t).producer.unwrap(),
            OpSchedule {
                parallel: true,
                fuse_into_producer: fuse,
                ..OpSchedule::default()
            },
        );
    }
    let mut programs = with_mutations(lower(&g, &plan, &sched));
    let mut clobber = programs[0].clone();
    let host = clobber.buffer_for_tensor(w).unwrap();
    clobber.groups[0].nodes.push(TirNode::Stmt(Stmt {
        buf: host,
        indices: vec![Expr::c(10), Expr::c(0)],
        value: SExpr::Imm(0.0),
        mode: StoreMode::Assign,
        pred: None,
    }));
    programs.push(clobber);
    let diags = assert_split_matches(&g, &plan, &programs);
    assert!(diags[0].is_empty(), "{:?}", diags[0]);
    let last = diags.last().unwrap();
    assert!(last
        .iter()
        .any(|d| d.code == codes::V006_STORE_AT_CLOBBERED));
}

/// Under an illegal plan every candidate is rejected, and its first
/// diagnostic is the one the one-shot verifier reports.
fn assert_every_candidate_rejected(
    g: &Graph,
    plan: &LayoutPlan,
    programs: &[Program],
    plan_code: &str,
) {
    let check = PlanCheck::new(g, plan);
    for (diags, p) in assert_split_matches(g, plan, programs).iter().zip(programs) {
        assert!(diags.iter().any(|d| d.code == plan_code), "{diags:?}");
        let (got, _) = check.verify(p);
        assert_eq!(got.first(), diags.first());
    }
}

#[test]
fn illegal_plans_reject_every_candidate_the_same_way() {
    // Two independent GMMs: the plan breaks the second one's weight
    // while the candidates lower only the first.
    let mut g = Graph::new();
    let (_, _, op1) = gmm(&mut g, "1");
    let (b2, c2, _) = gmm(&mut g, "2");
    let sched = GraphSchedule::naive();
    let shape = g.tensor(b2).shape.clone();
    let illegal: [(&str, LayoutPlan); 4] = [
        (codes::V008_SPLIT_NONDIVISIBLE, {
            let mut plan = LayoutPlan::new(PropagationMode::Full);
            let split = LayoutPrim::Split {
                dim: 0,
                factors: vec![3, 3],
            };
            plan.set_layout(b2, Layout::from_prims_unchecked(shape.clone(), vec![split]));
            plan
        }),
        (codes::V015_NEGATIVE_PAD, {
            let mut plan = LayoutPlan::new(PropagationMode::Full);
            let pad = LayoutPrim::Pad {
                dim: 1,
                before: 0,
                after: -2,
            };
            plan.set_layout(b2, Layout::from_prims_unchecked(shape.clone(), vec![pad]));
            plan
        }),
        (codes::V014_PROPAGATION_MISMATCH, {
            // A layout built for another shape.
            let mut plan = LayoutPlan::new(PropagationMode::Full);
            plan.set_layout(b2, Layout::identity(Shape::new([4, 4])));
            plan
        }),
        (codes::V014_PROPAGATION_MISMATCH, {
            // A conversion for an op that does not read the tensor.
            let mut plan = LayoutPlan::new(PropagationMode::Full);
            let t = presets::transposed2d(g.tensor(c2).shape.clone()).unwrap();
            plan.assign_input_layout(&g, op1, c2, t);
            assert_eq!(plan.conversions().len(), 1);
            plan
        }),
    ];
    for (code, plan) in &illegal {
        let programs = candidates(&g, plan, &sched, op1);
        assert_every_candidate_rejected(&g, plan, &programs, code);
    }

    // A `store_at` host whose layout was replaced afterwards.
    let mut g = Graph::new();
    let a = g.add_input("a", Shape::new([6, 10]));
    let w = g.add_param("w", Shape::new([10, 8]));
    let mm = ops::gmm(&mut g, a, w);
    let b = g.add_param("b", Shape::new([8]));
    let _ = ops::bias_add(&mut g, mm, b, 1);
    let mut plan = LayoutPlan::new(PropagationMode::Full);
    plan.store_at(&g, w, b, 0).unwrap();
    plan.set_layout(w, presets::transposed2d(g.tensor(w).shape.clone()).unwrap());
    let op = g.tensor(mm).producer.unwrap();
    let ctx = LowerCtx::new(&g, &plan, &sched);
    let roots: HashSet<OpId> = [op].into_iter().collect();
    let programs = with_mutations(ctx.lower(Some(&roots), None).unwrap());
    assert_every_candidate_rejected(&g, &plan, &programs, codes::V014_PROPAGATION_MISMATCH);
}
