//! Functional interpreter for TIR-lite programs.
//!
//! Executes lowered loop trees over real `f32` buffers, packing inputs and
//! unpacking outputs through their assigned layouts. Used to validate that
//! every layout/loop transformation preserves the reference semantics.

use std::collections::HashMap;

use alt_layout::LayoutPlan;
use alt_tensor::expr::Env;
use alt_tensor::op::ScalarBinOp;
use alt_tensor::{Graph, NdBuf, TensorId, TensorKind};

use crate::tir::{BufId, BufKind, Program, SExpr, Stmt, StoreMode, TirNode};

/// Evaluates an [`SExpr`] against the buffer table.
fn eval_sexpr(e: &SExpr, env: &Env, bufs: &[NdBuf]) -> f32 {
    match e {
        SExpr::Imm(v) => *v,
        SExpr::Load { buf, indices } => {
            let idx: Vec<i64> = indices.iter().map(|i| i.eval(env)).collect();
            bufs[buf.0].get(&idx)
        }
        SExpr::Bin(op, a, b) => {
            let x = eval_sexpr(a, env, bufs);
            let y = eval_sexpr(b, env, bufs);
            match op {
                ScalarBinOp::Add => x + y,
                ScalarBinOp::Sub => x - y,
                ScalarBinOp::Mul => x * y,
                ScalarBinOp::Div => x / y,
                ScalarBinOp::Max => x.max(y),
                ScalarBinOp::Min => x.min(y),
            }
        }
        SExpr::Unary(op, a) => op.apply(eval_sexpr(a, env, bufs)),
        SExpr::Select { cond, then_, else_ } => {
            if cond.eval(env) {
                eval_sexpr(then_, env, bufs)
            } else {
                eval_sexpr(else_, env, bufs)
            }
        }
    }
}

fn exec_stmt(stmt: &Stmt, env: &Env, bufs: &mut [NdBuf]) {
    // Invalid physical slots (padding, unfold overhang) hold zero and are
    // never accumulated into; the value expression is not evaluated for
    // them because its logical indices would be out of bounds.
    if let Some(pred) = &stmt.pred {
        if !pred.eval(env) {
            if stmt.mode == StoreMode::Assign {
                let idx: Vec<i64> = stmt.indices.iter().map(|i| i.eval(env)).collect();
                bufs[stmt.buf.0].set(&idx, 0.0);
            }
            return;
        }
    }
    let idx: Vec<i64> = stmt.indices.iter().map(|i| i.eval(env)).collect();
    let v = eval_sexpr(&stmt.value, env, bufs);
    let b = &mut bufs[stmt.buf.0];
    match stmt.mode {
        StoreMode::Assign => b.set(&idx, v),
        StoreMode::AddAcc => {
            let old = b.get(&idx);
            b.set(&idx, old + v);
        }
        StoreMode::MaxAcc => {
            let old = b.get(&idx);
            b.set(&idx, old.max(v));
        }
    }
}

fn exec_nodes(nodes: &[TirNode], env: &mut Env, bufs: &mut [NdBuf]) {
    for node in nodes {
        match node {
            TirNode::Loop {
                var, extent, body, ..
            } => {
                for i in 0..*extent {
                    env.bind(var, i);
                    exec_nodes(body, env, bufs);
                }
            }
            TirNode::Stmt(s) => exec_stmt(s, env, bufs),
        }
    }
}

/// Allocates the physical buffer table of a program and packs every
/// non-intermediate tensor binding (and every `store_at` guest) into its
/// physical layout. This is the shared entry protocol of the interpreter
/// and the native executor: both engines start from bit-identical
/// physical memory.
///
/// # Panics
///
/// Panics on missing bindings or shape mismatches (caller bugs).
pub fn pack_buffers(
    program: &Program,
    graph: &Graph,
    plan: &LayoutPlan,
    bindings: &HashMap<TensorId, NdBuf>,
) -> Vec<NdBuf> {
    let mut bufs: Vec<NdBuf> = program
        .buffers
        .iter()
        .map(|b| NdBuf::zeros(b.shape.clone()))
        .collect();

    // Pack inputs and parameters.
    for (k, decl) in program.buffers.iter().enumerate() {
        if let BufKind::Tensor(t) = decl.kind {
            let info = graph.tensor(t);
            if info.kind != TensorKind::Intermediate {
                let logical = bindings
                    .get(&t)
                    .unwrap_or_else(|| panic!("missing binding for `{}`", info.name));
                bufs[k] = plan
                    .layout_of(graph, t)
                    .pack(logical)
                    .expect("binding shape matches tensor");
            }
        }
    }

    // Pack `store_at` guests into the reserved slots of their hosts.
    for (&guest, &(host, host_dim)) in plan.embeddings() {
        let gbuf = bindings
            .get(&guest)
            .unwrap_or_else(|| panic!("missing binding for store_at guest"));
        // A truncated program may have pruned the host's buffer along
        // with every group touching it; nothing reads the slot then.
        let Some(BufId(host_buf_idx)) = program.buffer_for_tensor(host) else {
            continue;
        };
        plan.layout_of(graph, host)
            .embed_guest(host_dim, gbuf, &mut bufs[host_buf_idx])
            .expect("store_at guest fits its host slot");
    }
    bufs
}

/// Unpacks the executed physical buffer table back to logical tensors:
/// every graph tensor through its layout's inverse, embedded `store_at`
/// guests out of their host's reserved slot. The exit counterpart of
/// [`pack_buffers`], shared by both execution engines.
pub fn unpack_buffers(
    program: &Program,
    graph: &Graph,
    plan: &LayoutPlan,
    bufs: &[NdBuf],
) -> HashMap<TensorId, NdBuf> {
    let mut out = HashMap::new();
    for (k, decl) in program.buffers.iter().enumerate() {
        if let BufKind::Tensor(t) = decl.kind {
            if let Some((host, host_dim)) = plan.embedding_of(t) {
                let host_buf = program.buffer_for_tensor(host).expect("host buffer").0;
                let g = plan
                    .layout_of(graph, host)
                    .extract_guest(host_dim, &graph.tensor(t).shape, &bufs[host_buf])
                    .expect("store_at guest fits its host slot");
                out.insert(t, g);
                continue;
            }
            let layout = plan.layout_of(graph, t);
            out.insert(t, layout.unpack(&bufs[k]).expect("lowered shapes agree"));
        }
    }
    out
}

/// Runs a lowered program.
///
/// `bindings` supplies *logical* buffers for every input and parameter;
/// they are packed into their physical layouts before execution. Returns
/// the *logical* contents of every graph tensor (unpacked through its
/// layout), indexable by [`TensorId`].
///
/// # Panics
///
/// Panics on missing bindings or shape mismatches (caller bugs).
pub fn run_program(
    program: &Program,
    graph: &Graph,
    plan: &LayoutPlan,
    bindings: &HashMap<TensorId, NdBuf>,
) -> HashMap<TensorId, NdBuf> {
    let mut bufs = pack_buffers(program, graph, plan, bindings);
    let mut env = Env::new();
    for group in &program.groups {
        exec_nodes(&group.nodes, &mut env, &mut bufs);
    }
    unpack_buffers(program, graph, plan, &bufs)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::lower;
    use crate::schedule::GraphSchedule;
    use crate::tir::BufId;
    use alt_layout::{AssignOutcome, Layout, LayoutPrim, PropagationMode};
    use alt_tensor::exec::{random_bindings, run_graph};
    use alt_tensor::expr::Expr;
    use alt_tensor::op::Cond;
    use alt_tensor::{ops, OpId, Shape};

    /// A predicate that is always false (`1 < 0`).
    fn never() -> Cond {
        Cond::Lt(Expr::c(1), Expr::c(0))
    }

    /// An `SExpr` whose evaluation would panic (out-of-bounds load); used
    /// to prove a path does *not* evaluate the value expression.
    fn poison_value() -> SExpr {
        SExpr::Load {
            buf: BufId(0),
            indices: vec![Expr::c(100)],
        }
    }

    fn sentinel_bufs() -> Vec<NdBuf> {
        vec![NdBuf::from_fn(Shape::new([4]), |_| 7.0)]
    }

    #[test]
    fn pred_false_assign_zeroes_slot_without_evaluating_value() {
        let mut bufs = sentinel_bufs();
        let stmt = Stmt {
            buf: BufId(0),
            indices: vec![Expr::c(2)],
            value: poison_value(),
            mode: StoreMode::Assign,
            pred: Some(never()),
        };
        exec_stmt(&stmt, &Env::new(), &mut bufs);
        assert_eq!(bufs[0].get(&[2]).to_bits(), 0.0f32.to_bits());
        // Neighbouring slots untouched.
        assert_eq!(bufs[0].get(&[1]), 7.0);
        assert_eq!(bufs[0].get(&[3]), 7.0);
    }

    #[test]
    fn pred_false_accumulate_skips_store_and_index_evaluation() {
        for mode in [StoreMode::AddAcc, StoreMode::MaxAcc] {
            let mut bufs = sentinel_bufs();
            let stmt = Stmt {
                buf: BufId(0),
                // Out of bounds: a skipped accumulation must not even
                // evaluate its destination indices.
                indices: vec![Expr::c(100)],
                value: poison_value(),
                mode,
                pred: Some(never()),
            };
            exec_stmt(&stmt, &Env::new(), &mut bufs);
            for i in 0..4 {
                assert_eq!(bufs[0].get(&[i]), 7.0, "{mode:?} mutated the buffer");
            }
        }
    }

    #[test]
    fn pred_true_applies_every_store_mode() {
        let always = Cond::Lt(Expr::c(0), Expr::c(1));
        let cases = [
            (StoreMode::Assign, 3.0f32),
            (StoreMode::AddAcc, 10.0),
            (StoreMode::MaxAcc, 7.0),
        ];
        for (mode, want) in cases {
            let mut bufs = sentinel_bufs();
            let stmt = Stmt {
                buf: BufId(0),
                indices: vec![Expr::c(2)],
                value: SExpr::Imm(3.0),
                mode,
                pred: Some(always.clone()),
            };
            exec_stmt(&stmt, &Env::new(), &mut bufs);
            assert_eq!(bufs[0].get(&[2]), want, "{mode:?}");
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

    fn exec_all(program: &Program, bufs: &mut [NdBuf]) {
        let mut env = Env::new();
        for group in &program.groups {
            exec_nodes(&group.nodes, &mut env, bufs);
        }
    }

    #[test]
    fn padded_output_slots_hold_zero_and_logical_result_matches() {
        let (g, _, op, y) = gmm_graph(5, 3, 6);
        let mut plan = LayoutPlan::new(PropagationMode::Full);
        let layout = Layout::identity(Shape::new([5, 6]))
            .with(LayoutPrim::Pad {
                dim: 1,
                before: 1,
                after: 2,
            })
            .unwrap();
        plan.assign_output_layout(&g, op, layout);
        let program = lower(&g, &plan, &GraphSchedule::naive());
        let bindings = random_bindings(&g, 7);
        let mut bufs = pack_buffers(&program, &g, &plan, &bindings);
        exec_all(&program, &mut bufs);
        // Physical shape [5, 9]: column 0 and columns 7..9 are pad slots;
        // the pred-false Assign path must leave exactly 0.0 there while
        // the pred-false accumulations never touch them.
        let yb = program.buffer_for_tensor(y).unwrap().0;
        assert_eq!(bufs[yb].shape().dims(), &[5, 9]);
        for i in 0..5 {
            for j in [0, 7, 8] {
                assert_eq!(
                    bufs[yb].get(&[i, j]).to_bits(),
                    0.0f32.to_bits(),
                    "pad slot [{i}, {j}]"
                );
            }
        }
        let out = unpack_buffers(&program, &g, &plan, &bufs);
        let reference = run_graph(&g, &bindings);
        assert!(reference[y.0].max_abs_diff(&out[&y]) <= 1e-4);
    }

    fn bits(b: &NdBuf) -> Vec<u32> {
        b.data().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn store_at_guest_copies_match_per_element_loops() {
        // The bias vector rides in the weight's reserved row (host dim 0).
        let mut g = Graph::new();
        let a = g.add_input("a", Shape::new([6, 10]));
        let w = g.add_param("w", Shape::new([10, 8]));
        let c = ops::gmm(&mut g, a, w);
        let b = g.add_param("b", Shape::new([8]));
        let _ = ops::bias_add(&mut g, c, b, 1);
        let mut plan = LayoutPlan::new(PropagationMode::Full);
        plan.store_at(&g, w, b, 0).unwrap();
        let program = lower(&g, &plan, &GraphSchedule::naive());
        let bindings = random_bindings(&g, 5);
        let bufs = pack_buffers(&program, &g, &plan, &bindings);

        // The per-element loops the compiled guest copies replace: guest
        // index `gidx` lives at the host's logical index `gidx` with the
        // slot index (the host dimension's size) inserted at `host_dim`.
        let host = plan.layout_of(&g, w);
        let slot_of = |gidx: &[i64]| {
            let mut lidx = gidx.to_vec();
            lidx.insert(0, 10);
            host.logical_to_physical(&lidx).unwrap()
        };
        let guest_shape = g.tensor(b).shape.clone();
        let wb = program.buffer_for_tensor(w).unwrap().0;
        let mut want = host.pack(&bindings[&w]).unwrap();
        for gidx in guest_shape.iter_indices() {
            want.set(&slot_of(&gidx), bindings[&b].get(&gidx));
        }
        assert_eq!(bits(&bufs[wb]), bits(&want));

        let out = unpack_buffers(&program, &g, &plan, &bufs);
        let mut guest = NdBuf::zeros(guest_shape.clone());
        for gidx in guest_shape.iter_indices() {
            guest.set(&gidx, bufs[wb].get(&slot_of(&gidx)));
        }
        assert_eq!(bits(&out[&b]), bits(&guest));
        assert_eq!(bits(&out[&b]), bits(&bindings[&b]));
    }

    #[test]
    fn unfold_overhang_slots_hold_zero_after_conversion() {
        // a is [9, 4]; Unfold{tile: 4, stride: 3} on dim 0 gives 3 tiles
        // covering rows 0..4, 3..7 and 6..10 — the last tile overhangs by
        // one row, so physical slots [2, 3, *] have no logical source.
        let (g, a, op, y) = gmm_graph(9, 4, 5);
        let mut plan = LayoutPlan::new(PropagationMode::Full);
        let layout = Layout::identity(Shape::new([9, 4]))
            .with(LayoutPrim::Unfold {
                dim: 0,
                tile: 4,
                stride: 3,
            })
            .unwrap();
        let outcome = plan.assign_input_layout(&g, op, a, layout);
        assert_eq!(outcome, AssignOutcome::Conversion);
        let program = lower(&g, &plan, &GraphSchedule::naive());
        let bindings = random_bindings(&g, 11);
        let mut bufs = pack_buffers(&program, &g, &plan, &bindings);
        exec_all(&program, &mut bufs);
        let cb = program
            .buffers
            .iter()
            .position(|b| b.kind == BufKind::Converted(a))
            .expect("conversion buffer exists");
        assert_eq!(bufs[cb].shape().dims(), &[3, 4, 4]);
        let abuf = &bindings[&a];
        for t in 0..3i64 {
            for r in 0..4i64 {
                let row = t * 3 + r;
                for c in 0..4i64 {
                    let got = bufs[cb].get(&[t, r, c]);
                    if row < 9 {
                        // Duplicated rows from overlapping tiles carry the
                        // exact logical value.
                        assert_eq!(got.to_bits(), abuf.get(&[row, c]).to_bits());
                    } else {
                        // Overhang: pred-false Assign wrote exactly 0.0.
                        assert_eq!(got.to_bits(), 0.0f32.to_bits(), "slot [{t}, {r}, {c}]");
                    }
                }
            }
        }
        let out = unpack_buffers(&program, &g, &plan, &bufs);
        let reference = run_graph(&g, &bindings);
        assert!(reference[y.0].max_abs_diff(&out[&y]) <= 1e-4);
    }
}
