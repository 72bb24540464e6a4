//! Lowering: scheduled computational graph -> TIR-lite program.
//!
//! This is the compilation pass described in paper §6. For an operator
//! `Y = F(X...)`:
//!
//! * the loop nest is reconstructed from the *physical* dimensions of `Y`'s
//!   layout (one spatial loop per physical dimension),
//! * logical output indices are recovered via the inverse primitive
//!   sequence `S_Y^{-1}(L')`, and
//! * every access to an input `X` is rewritten to
//!   `S_X(S_Y^{-1}(L'))` — so changing a layout never requires manually
//!   re-implementing the operator.
//!
//! Tiling follows the schedule's multi-level structure
//! (`S0 [init | R0 S1 R1 S2 | epilogue]`), with elementwise consumers fused
//! into the epilogue of their producer's tile loops when layouts align.

use std::collections::{HashMap, HashSet};

use alt_error::AltError;
use alt_layout::{LayoutPlan, VarExtents};
use alt_tensor::expr::{Expr, Var, VarGen};
use alt_tensor::op::{Cond, ReduceKind, ScalarBinOp, ScalarExpr};
use alt_tensor::{Graph, Node, OpId, OpTag, TensorId};

use crate::schedule::{GraphSchedule, OpSchedule};
use crate::tir::{
    BufId, BufKind, BufferDecl, LoopKind, LoweredGroup, Program, SExpr, Stmt, StoreMode, TirNode,
};

/// Cap on the collapsed parallel extent of a layout-conversion copy nest:
/// outer loops keep collapsing into the parallel band only while the
/// combined trip count stays below this (enough to feed every core many
/// times over without flattening the whole nest).
pub(crate) const PAR_COLLAPSE_CAP: i64 = 512;

/// One tiled axis: per-level loop extents plus the variables bound at each
/// level (extent-1 levels carry no variable).
struct TiledAxis {
    levels: Vec<i64>,
    vars: Vec<Option<Var>>,
}

impl TiledAxis {
    fn new(
        extent: i64,
        tiling: &crate::schedule::AxisTiling,
        vargen: &mut VarGen,
        name: &str,
    ) -> Result<Self, AltError> {
        let levels = tiling.levels(extent)?;
        // Loop names encode the axis lineage, not the level position:
        // roles are assigned among the *non-trivial* (extent > 1) levels
        // only, so an axis tiled with trivial factors gets the same names
        // as an untiled one — profiles diff cleanly across equivalent
        // schedules. A single live level keeps the plain axis name;
        // otherwise the outermost is `.o`, the innermost `.i`, and any
        // middle levels `.m0`, `.m1`, ...
        let live: Vec<usize> = levels
            .iter()
            .enumerate()
            .filter(|&(_, &e)| e > 1)
            .map(|(l, _)| l)
            .collect();
        let vars = levels
            .iter()
            .enumerate()
            .map(|(l, &e)| {
                if e > 1 {
                    let role = match live.iter().position(|&x| x == l) {
                        _ if live.len() == 1 => name.to_string(),
                        Some(0) => format!("{name}.o"),
                        Some(p) if p + 1 == live.len() => format!("{name}.i"),
                        Some(p) => format!("{name}.m{}", p - 1),
                        None => unreachable!("live level missing from index"),
                    };
                    Some(vargen.fresh(&role))
                } else {
                    None
                }
            })
            .collect();
        Ok(Self { levels, vars })
    }

    /// The reconstructed axis index expression (Horner form over levels).
    fn index_expr(&self) -> Expr {
        let mut e = Expr::c(0);
        for (l, v) in self.vars.iter().enumerate() {
            e = e.mul_c(self.levels[l]);
            if let Some(v) = v {
                e = e.add(&Expr::v(v));
            }
        }
        e
    }

    fn num_levels(&self) -> usize {
        self.levels.len()
    }

    /// Loop (var, extent) at `level`, if it needs emitting.
    fn loop_at(&self, level: usize) -> Option<(Var, i64)> {
        if level >= self.levels.len() {
            return None;
        }
        self.vars[level]
            .as_ref()
            .map(|v| (v.clone(), self.levels[level]))
    }
}

/// Wraps `body` in the given loops (outermost first).
fn nest(loops: Vec<(Var, i64, LoopKind)>, body: Vec<TirNode>) -> Vec<TirNode> {
    let mut cur = body;
    for (var, extent, kind) in loops.into_iter().rev() {
        cur = vec![TirNode::loop_(var, extent, kind, cur)];
    }
    cur
}

/// Conjunction of a condition list.
fn conj(conds: &[Cond]) -> Option<Cond> {
    let mut it = conds.iter().cloned();
    let first = it.next()?;
    Some(it.fold(first, |a, b| a.and(b)))
}

/// Everything lowering derives from a graph, its layout plan and a base
/// schedule, built once and shared by every candidate lowered under
/// them: one buffer per graph tensor with its physical shape (graph
/// tensor `t` is buffer `BufId(t.0)`) and the fusion groups.
/// [`LowerCtx::lower`] then lowers a candidate from its roots and a
/// one-op schedule override, in time proportional to the groups it
/// emits rather than to the graph.
pub struct LowerCtx<'a> {
    graph: &'a Graph,
    plan: &'a LayoutPlan,
    sched: &'a GraphSchedule,
    buffers: Vec<BufferDecl>,
    /// `(root, fused elementwise chain)` in execution order.
    groups: Vec<(OpId, Vec<OpId>)>,
    /// Position in `groups` of each group root.
    group_of: HashMap<OpId, usize>,
}

impl<'a> LowerCtx<'a> {
    /// Builds the context of `graph` under `plan`, with `sched` as the
    /// schedule of every operator a lowering does not override.
    pub fn new(graph: &'a Graph, plan: &'a LayoutPlan, sched: &'a GraphSchedule) -> Self {
        let buffers = graph
            .tensors()
            .iter()
            .enumerate()
            .map(|(k, t)| BufferDecl {
                name: t.name.clone(),
                shape: plan.layout_of(graph, TensorId(k)).physical_shape(),
                kind: BufKind::Tensor(TensorId(k)),
            })
            .collect();
        let groups = fusion_groups(graph, plan, |op| sched.get(op).fuse_into_producer);
        let group_of = groups
            .iter()
            .enumerate()
            .map(|(k, (root, _))| (*root, k))
            .collect();
        Self {
            graph,
            plan,
            sched,
            buffers,
            groups,
            group_of,
        }
    }

    /// Lowers the fusion groups rooted at `roots` (all groups when
    /// `None`), in execution order and each preceded by the layout
    /// conversions it reads, with `over` replacing one operator's
    /// schedule. The program equals [`try_lower_filtered`] under a copy
    /// of the base schedule with the override set.
    ///
    /// An override that would change a fusion decision is rejected with
    /// [`AltError::Lower`]: the groups were fixed when the context was
    /// built.
    pub fn lower(
        &self,
        roots: Option<&HashSet<OpId>>,
        over: Option<(OpId, &OpSchedule)>,
    ) -> Result<Program, AltError> {
        if let Some((op, s)) = over {
            self.check_fusion_kept(op, s)?;
        }
        let picked: Vec<usize> = match roots {
            None => (0..self.groups.len()).collect(),
            Some(roots) => {
                let mut picked: Vec<usize> = roots
                    .iter()
                    .filter_map(|r| self.group_of.get(r).copied())
                    .collect();
                picked.sort_unstable();
                picked
            }
        };
        let mut l = Lowerer {
            ctx: self,
            over,
            vargen: self.graph.vargen.clone(),
            program: Program {
                buffers: self.buffers.clone(),
                groups: Vec::new(),
            },
            converted: HashMap::new(),
        };
        for k in picked {
            let (root, fused) = &self.groups[k];
            l.emit_conversions_for(*root)?;
            for &f in fused {
                l.emit_conversions_for(f)?;
            }
            l.lower_group(*root, fused.clone())?;
        }
        Ok(l.program)
    }

    /// Fusion reads only elementwise operators' `fuse_into_producer`, so
    /// only an override that flips that flag can move a group boundary;
    /// such an override is regrouped and rejected if the groups change.
    fn check_fusion_kept(&self, op: OpId, s: &OpSchedule) -> Result<(), AltError> {
        let Some(node) = self.graph.nodes().get(op.0) else {
            return Ok(());
        };
        if node.tag != OpTag::Elementwise
            || s.fuse_into_producer == self.sched.get(op).fuse_into_producer
        {
            return Ok(());
        }
        let regrouped = fusion_groups(self.graph, self.plan, |c| {
            if c == op {
                s.fuse_into_producer
            } else {
                self.sched.get(c).fuse_into_producer
            }
        });
        if regrouped == self.groups {
            return Ok(());
        }
        Err(AltError::Lower {
            detail: format!(
                "the schedule override of `{}` changes a fusion decision of the lowering context",
                node.compute.name
            ),
        })
    }
}

/// Lowers a scheduled, layout-annotated graph into a program.
///
/// Panics on invalid layout/schedule combinations; tuning paths that must
/// survive bad candidates use [`try_lower`] instead.
pub fn lower(graph: &Graph, plan: &LayoutPlan, sched: &GraphSchedule) -> Program {
    try_lower(graph, plan, sched).expect("lowering failed")
}

/// Fallible [`lower`]: an invalid candidate yields an [`AltError`] instead
/// of aborting the process.
pub fn try_lower(
    graph: &Graph,
    plan: &LayoutPlan,
    sched: &GraphSchedule,
) -> Result<Program, AltError> {
    try_lower_filtered(graph, plan, sched, None)
}

/// Lowers only the fusion groups rooted at the given operators (all
/// groups when `roots` is `None`), each with the layout-conversion
/// groups it reads, by building a [`LowerCtx`] and lowering once.
/// Layout rewrite failures (rank mismatches, non-invertible access maps)
/// surface as [`AltError::Layout`] and invalid loop structures as
/// [`AltError::Lower`], so a tuner can treat a bad candidate as a
/// recoverable measurement failure. Lowering many candidates under one
/// plan should reuse one context instead.
pub fn try_lower_filtered(
    graph: &Graph,
    plan: &LayoutPlan,
    sched: &GraphSchedule,
    roots: Option<&HashSet<OpId>>,
) -> Result<Program, AltError> {
    LowerCtx::new(graph, plan, sched).lower(roots, None)
}

/// Groups operators for fusion: an elementwise op whose schedule asks
/// for fusion (`fuses`) joins its producer's group when it is the sole
/// consumer and its output layout replicates the producer's (the
/// alignment that layout propagation establishes — paper Fig. 7).
fn fusion_groups(
    graph: &Graph,
    plan: &LayoutPlan,
    fuses: impl Fn(OpId) -> bool,
) -> Vec<(OpId, Vec<OpId>)> {
    let mut assigned = vec![false; graph.num_ops()];
    let mut groups = Vec::new();
    for node in graph.nodes() {
        if assigned[node.id.0] {
            continue;
        }
        assigned[node.id.0] = true;
        let mut fused = Vec::new();
        let mut tail = node.output;
        loop {
            let consumers = &graph.tensor(tail).consumers;
            if consumers.len() != 1 {
                break;
            }
            let c = consumers[0];
            if assigned[c.0] {
                break;
            }
            let cn = graph.node(c);
            if cn.tag != OpTag::Elementwise || !fuses(c) {
                break;
            }
            // Conversions on the fused edge make fusion meaningless.
            if plan.conversion_for(tail, c).is_some() {
                break;
            }
            let tail_layout = plan.layout_of(graph, tail);
            let out_layout = plan.layout_of(graph, cn.output);
            if tail_layout.prims() != out_layout.prims()
                || tail_layout.logical_shape() != out_layout.logical_shape()
            {
                break;
            }
            assigned[c.0] = true;
            fused.push(c);
            tail = cn.output;
        }
        groups.push((node.id, fused));
    }
    groups
}

/// The buffer of a graph tensor: the context declares them in tensor
/// order.
fn tensor_buf(t: TensorId) -> BufId {
    BufId(t.0)
}

/// One lowering in progress against a [`LowerCtx`].
struct Lowerer<'c, 'a> {
    ctx: &'c LowerCtx<'a>,
    over: Option<(OpId, &'c OpSchedule)>,
    vargen: VarGen,
    program: Program,
    converted: HashMap<(TensorId, OpId), BufId>,
}

impl Lowerer<'_, '_> {
    /// Converts a compute-body [`ScalarExpr`] (logical loads) into an
    /// [`SExpr`] (physical buffer loads), rewriting each access through
    /// the input tensor's layout.
    fn convert_body(
        &self,
        expr: &ScalarExpr,
        node: &Node,
        subst: &HashMap<u32, Expr>,
        extents: &VarExtents,
    ) -> Result<SExpr, AltError> {
        let (graph, plan) = (self.ctx.graph, self.ctx.plan);
        Ok(match expr {
            ScalarExpr::Imm(v) => SExpr::Imm(*v),
            ScalarExpr::Load { input, indices } => {
                let t = node.inputs[*input];
                let mut logical: Vec<Expr> = indices.iter().map(|e| e.subst(subst)).collect();
                // A `store_at` guest lives inside its host's buffer, at the
                // reserved slot along the host dimension.
                if let Some((host, host_dim)) = plan.embedding_of(t) {
                    let host_size = graph.tensor(host).shape.dim(host_dim);
                    logical.insert(host_dim, Expr::c(host_size));
                    let layout = plan.layout_of(graph, host);
                    let phys = layout.rewrite_access(&logical, extents)?;
                    return Ok(SExpr::Load {
                        buf: tensor_buf(host),
                        indices: phys,
                    });
                }
                let layout = plan.layout_for_read(graph, t, node.id);
                let phys = layout.rewrite_access(&logical, extents)?;
                let buf = self
                    .converted
                    .get(&(t, node.id))
                    .copied()
                    .unwrap_or_else(|| tensor_buf(t));
                SExpr::Load { buf, indices: phys }
            }
            ScalarExpr::Bin(op, a, b) => SExpr::Bin(
                *op,
                Box::new(self.convert_body(a, node, subst, extents)?),
                Box::new(self.convert_body(b, node, subst, extents)?),
            ),
            ScalarExpr::Unary(op, a) => {
                SExpr::Unary(*op, Box::new(self.convert_body(a, node, subst, extents)?))
            }
            ScalarExpr::Select { cond, then_, else_ } => SExpr::Select {
                cond: cond.subst(subst),
                then_: Box::new(self.convert_body(then_, node, subst, extents)?),
                else_: Box::new(self.convert_body(else_, node, subst, extents)?),
            },
        })
    }

    /// Emits the runtime layout-conversion groups feeding `op`.
    fn emit_conversions_for(&mut self, op: OpId) -> Result<(), AltError> {
        let (graph, plan) = (self.ctx.graph, self.ctx.plan);
        let node = graph.node(op);
        for &t in &node.inputs {
            let Some(conv) = plan.conversion_for(t, op) else {
                continue;
            };
            if self.converted.contains_key(&(t, op)) {
                continue;
            }
            let new_layout = &conv.layout;
            let src_layout = plan.layout_of(graph, t);
            let phys = new_layout.physical_shape();
            let buf = self.program.add_buffer(BufferDecl {
                name: format!("{}_conv", graph.tensor(t).name),
                shape: phys.clone(),
                kind: BufKind::Converted(t),
            });
            self.converted.insert((t, op), buf);
            // Simple parallel/vectorized copy nest over the new physical
            // dims. Tensors carry no logical axis names, so the lineage
            // helper's positional `d{k}` fallback names the loops (still
            // deterministic: `d0.o`/`d0.i` for a split leading dim, etc.).
            let dim_names = new_layout.physical_dim_names(&[]);
            let vars: Vec<Var> = (0..phys.ndim())
                .map(|k| self.vargen.fresh(&dim_names[k]))
                .collect();
            let var_exprs: Vec<Expr> = vars.iter().map(Expr::v).collect();
            let (logical, conds) = new_layout.inverse_access(&var_exprs)?;
            let src_phys = src_layout.rewrite_access(&logical, &VarExtents::new())?;
            let stmt = Stmt {
                buf,
                indices: var_exprs.clone(),
                value: SExpr::Load {
                    buf: tensor_buf(t),
                    indices: src_phys,
                },
                mode: StoreMode::Assign,
                pred: conj(&conds),
            };
            // Parallelize outer loops until there is enough parallelism
            // to feed every core, and vectorize the innermost copy loop.
            // The cap is checked on the *post*-multiplication product:
            // the first outer loop always parallelizes, but a further dim
            // collapses into the parallel band only if doing so keeps the
            // combined extent under the cap (checking before multiplying
            // let e.g. 511 x 512 collapse to a 261,632-way band).
            let mut par_extent = 1i64;
            let loops: Vec<(Var, i64, LoopKind)> = vars
                .iter()
                .enumerate()
                .map(|(k, v)| {
                    let grown = par_extent.saturating_mul(phys.dim(k));
                    let kind = if k + 1 < phys.ndim() && (k == 0 || grown < PAR_COLLAPSE_CAP) {
                        par_extent = grown;
                        LoopKind::Parallel
                    } else if k == phys.ndim() - 1 {
                        LoopKind::Vectorized
                    } else {
                        LoopKind::Serial
                    };
                    (v.clone(), phys.dim(k), kind)
                })
                .collect();
            let nodes = nest(loops, vec![TirNode::Stmt(stmt)]);
            self.program.groups.push(LoweredGroup {
                root: op,
                fused: vec![],
                nodes,
                label: format!("convert({})", graph.tensor(t).name),
            });
        }
        Ok(())
    }

    fn lower_group(&mut self, root: OpId, fused: Vec<OpId>) -> Result<(), AltError> {
        let graph = self.ctx.graph;
        let node = graph.node(root);
        let out_layout = self.ctx.plan.layout_of(graph, node.output);
        let phys = out_layout.physical_shape();
        let out_buf = tensor_buf(node.output);
        // A schedule authored against a different (since-changed) layout
        // no longer divides the physical dims; fall back to an automatic
        // schedule rather than producing invalid loops.
        let reduce_ext: Vec<i64> = node.compute.reduce_axes.iter().map(|a| a.extent).collect();
        let mut sched = match self.over {
            Some((op, s)) if op == root => s.clone(),
            _ => self.ctx.sched.get(root),
        };
        if !sched.validate(phys.dims(), &reduce_ext) {
            sched = auto_schedule(&phys, sched.fuse_into_producer);
        }

        // Variable extents for sliding-window (Eq. 1) matching: the
        // reduction variables stay live in the main nest.
        let mut extents = VarExtents::new();
        for ax in &node.compute.reduce_axes {
            extents.insert(ax.var.id(), ax.extent);
        }

        // Tiled spatial axes over the *physical* output dims, named by
        // their logical-axis lineage through the layout's primitive
        // sequence (e.g. a split output channel yields `oc.o` / `oc.i`)
        // so loop-nest paths are stable across runs and schedules.
        let logical_names: Vec<&str> = node.compute.axes.iter().map(|ax| ax.var.name()).collect();
        let dim_names = out_layout.physical_dim_names(&logical_names);
        let spatial: Vec<TiledAxis> = (0..phys.ndim())
            .map(|k| {
                TiledAxis::new(
                    phys.dim(k),
                    &sched.spatial_tiling(k),
                    &mut self.vargen,
                    &dim_names[k],
                )
            })
            .collect::<Result<_, _>>()?;
        let max_s_levels = spatial.iter().map(TiledAxis::num_levels).max().unwrap_or(1);

        // S0 loops (outermost level of every spatial axis).
        let s0_kind = if sched.parallel {
            LoopKind::Parallel
        } else {
            LoopKind::Serial
        };
        let s0_loops: Vec<(Var, i64, LoopKind)> = spatial
            .iter()
            .filter_map(|a| a.loop_at(0))
            .map(|(v, e)| (v, e, s0_kind))
            .collect();

        // Inner spatial loops builder (levels 1..): returns the loop list
        // for a fresh traversal of the tile.
        let inner_spatial_loops = |spatial: &[TiledAxis], vectorize: bool| {
            let mut loops: Vec<(Var, i64, LoopKind)> = Vec::new();
            for level in 1..max_s_levels {
                for a in spatial {
                    if let Some((v, e)) = a.loop_at(level) {
                        loops.push((v, e, LoopKind::Serial));
                    }
                }
            }
            if vectorize {
                if let Some(last) = loops.last_mut() {
                    last.2 = LoopKind::Vectorized;
                }
            }
            loops
        };

        // Physical index expressions and the logical reconstruction.
        let phys_exprs: Vec<Expr> = spatial.iter().map(TiledAxis::index_expr).collect();
        let (logical_exprs, conds) = out_layout.inverse_access(&phys_exprs)?;
        let pred = conj(&conds);

        // Substitution: compute axis vars -> logical index exprs.
        let mut subst = HashMap::new();
        for (ax, e) in node.compute.axes.iter().zip(logical_exprs.iter()) {
            subst.insert(ax.var.id(), e.clone());
        }

        let body = self.convert_body(&node.compute.body, node, &subst, &extents)?;

        let mut tile_body: Vec<TirNode> = Vec::new();
        let is_reduce = node.compute.reduce != ReduceKind::None;

        if is_reduce {
            // Init pass over the tile.
            let init_stmt = Stmt {
                buf: out_buf,
                indices: phys_exprs.clone(),
                value: SExpr::Imm(node.compute.init),
                mode: StoreMode::Assign,
                pred: pred.clone(),
            };
            tile_body.extend(nest(
                inner_spatial_loops(&spatial, sched.vectorize),
                vec![TirNode::Stmt(init_stmt)],
            ));

            // Main accumulation nest: R0 S1 R1 S2 ...
            let reduce_axes: Vec<TiledAxis> = node
                .compute
                .reduce_axes
                .iter()
                .enumerate()
                .map(|(k, ax)| {
                    // The level-0 "loop" reuses the original reduce var at
                    // the innermost level so the body expression stays
                    // valid; tiling splits it.
                    TiledAxis::new(
                        ax.extent,
                        &sched.reduce_tiling(k),
                        &mut self.vargen,
                        ax.var.name(),
                    )
                })
                .collect::<Result<_, _>>()?;
            // Reduce axis reconstruction: original reduce var = Horner of
            // level vars; substitute into the body.
            let mut rsubst = HashMap::new();
            for (ax, ta) in node.compute.reduce_axes.iter().zip(reduce_axes.iter()) {
                rsubst.insert(ax.var.id(), ta.index_expr());
            }
            let body_main = subst_sexpr(&body, &rsubst);
            let pred_main = pred.clone().map(|c| c.subst(&rsubst));

            let mode = match node.compute.reduce {
                ReduceKind::Sum => StoreMode::AddAcc,
                ReduceKind::Max => StoreMode::MaxAcc,
                ReduceKind::None => unreachable!(),
            };
            let acc_stmt = Stmt {
                buf: out_buf,
                indices: phys_exprs.clone(),
                value: body_main,
                mode,
                pred: pred_main,
            };
            let max_r_levels = reduce_axes
                .iter()
                .map(TiledAxis::num_levels)
                .max()
                .unwrap_or(1);
            // Interleave as `S0 R0 S1 R1 S2`: reduce level l, then spatial
            // level l+1, holding the *last* spatial level back so it stays
            // innermost (vectorizable).
            let last_s_level = max_s_levels - 1;
            let mut loops: Vec<(Var, i64, LoopKind)> = Vec::new();
            for level in 0..max_r_levels.max(max_s_levels.saturating_sub(1)) {
                for a in &reduce_axes {
                    if let Some((v, e)) = a.loop_at(level) {
                        loops.push((v, e, LoopKind::Serial));
                    }
                }
                if level + 1 < last_s_level {
                    for a in &spatial {
                        if let Some((v, e)) = a.loop_at(level + 1) {
                            loops.push((v, e, LoopKind::Serial));
                        }
                    }
                }
            }
            // The innermost reduce loop can be unrolled.
            if sched.unroll {
                if let Some(last) = loops.last_mut() {
                    last.2 = LoopKind::Unrolled;
                }
            }
            // Deferred last spatial level, innermost and vectorizable.
            if last_s_level > 0 {
                let before = loops.len();
                for a in &spatial {
                    if let Some((v, e)) = a.loop_at(last_s_level) {
                        loops.push((v, e, LoopKind::Serial));
                    }
                }
                if sched.vectorize && loops.len() > before {
                    if let Some(last) = loops.last_mut() {
                        last.2 = LoopKind::Vectorized;
                    }
                }
            }
            tile_body.extend(nest(loops, vec![TirNode::Stmt(acc_stmt)]));
        } else {
            // Pure elementwise/gather root: direct store.
            let stmt = Stmt {
                buf: out_buf,
                indices: phys_exprs.clone(),
                value: body,
                mode: StoreMode::Assign,
                pred: pred.clone(),
            };
            tile_body.extend(nest(
                inner_spatial_loops(&spatial, sched.vectorize),
                vec![TirNode::Stmt(stmt)],
            ));
        }

        // Epilogue: post-scale plus the fused elementwise chain, iterating
        // the same tile.
        let needs_scale = node.compute.post_scale != 1.0;
        if needs_scale || !fused.is_empty() {
            let mut stmts: Vec<TirNode> = Vec::new();
            if needs_scale {
                stmts.push(TirNode::Stmt(Stmt {
                    buf: out_buf,
                    indices: phys_exprs.clone(),
                    value: SExpr::Bin(
                        ScalarBinOp::Mul,
                        Box::new(SExpr::Load {
                            buf: out_buf,
                            indices: phys_exprs.clone(),
                        }),
                        Box::new(SExpr::Imm(node.compute.post_scale)),
                    ),
                    mode: StoreMode::Assign,
                    pred: pred.clone(),
                }));
            }
            for &f in &fused {
                let fnode = graph.node(f);
                // The fused op's axes map one-to-one onto the root's
                // logical output indices.
                let mut fsubst = HashMap::new();
                for (ax, e) in fnode.compute.axes.iter().zip(logical_exprs.iter()) {
                    fsubst.insert(ax.var.id(), e.clone());
                }
                let fbuf = tensor_buf(fnode.output);
                // Convert the body; loads of `prev_out` become physical
                // loads at the current tile position (its layout equals
                // the root output layout, so the rewrite yields exactly
                // `phys_exprs` — no special-casing needed).
                let fbody = self.convert_body(&fnode.compute.body, fnode, &fsubst, &extents)?;
                stmts.push(TirNode::Stmt(Stmt {
                    buf: fbuf,
                    indices: phys_exprs.clone(),
                    value: fbody,
                    mode: StoreMode::Assign,
                    pred: pred.clone(),
                }));
            }
            tile_body.extend(nest(inner_spatial_loops(&spatial, sched.vectorize), stmts));
        }

        let nodes = nest(s0_loops, tile_body);
        let label = if fused.is_empty() {
            node.compute.name.clone()
        } else {
            format!(
                "{}+{}",
                node.compute.name,
                fused
                    .iter()
                    .map(|f| graph.node(*f).compute.name.clone())
                    .collect::<Vec<_>>()
                    .join("+")
            )
        };
        self.program.groups.push(LoweredGroup {
            root,
            fused,
            nodes,
            label,
        });
        Ok(())
    }
}

/// Fallback schedule derived from the physical output shape: parallel
/// outer loops and a vectorizable innermost tile.
fn auto_schedule(phys: &alt_tensor::Shape, fuse: bool) -> OpSchedule {
    let nd = phys.ndim();
    let mut spatial = vec![crate::schedule::AxisTiling::none(); nd];
    if nd > 0 {
        let last = phys.dim(nd - 1);
        // Largest divisor <= 64 keeps the inner loop vector-friendly.
        let mut tile = 1;
        for d in 1..=last.min(64) {
            if last % d == 0 {
                tile = d;
            }
        }
        if tile > 1 {
            spatial[nd - 1] = crate::schedule::AxisTiling::one(tile);
        }
    }
    OpSchedule {
        spatial,
        reduce: Vec::new(),
        vectorize: true,
        unroll: false,
        parallel: true,
        fuse_into_producer: fuse,
    }
}

/// Substitutes index variables inside an [`SExpr`].
fn subst_sexpr(e: &SExpr, map: &HashMap<u32, Expr>) -> SExpr {
    match e {
        SExpr::Imm(v) => SExpr::Imm(*v),
        SExpr::Load { buf, indices } => SExpr::Load {
            buf: *buf,
            indices: indices.iter().map(|i| i.subst(map)).collect(),
        },
        SExpr::Bin(op, a, b) => SExpr::Bin(
            *op,
            Box::new(subst_sexpr(a, map)),
            Box::new(subst_sexpr(b, map)),
        ),
        SExpr::Unary(op, a) => SExpr::Unary(*op, Box::new(subst_sexpr(a, map))),
        SExpr::Select { cond, then_, else_ } => SExpr::Select {
            cond: cond.subst(map),
            then_: Box::new(subst_sexpr(then_, map)),
            else_: Box::new(subst_sexpr(else_, map)),
        },
    }
}
