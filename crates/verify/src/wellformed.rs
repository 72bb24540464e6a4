//! Pass 1: IR well-formedness over lowered programs.
//!
//! Checks, per lowered group:
//!
//! * every loop variable is bound exactly once along any path (a loop
//!   never rebinds a live variable; sibling nests may reuse variables),
//! * loop extents are positive,
//! * no index expression uses a variable outside its binding nest,
//! * every buffer access stays inside the buffer's physical (padded)
//!   extents, proven by affine bound inference refined with the
//!   statement's validity predicate and enclosing `Select` guards,
//! * stores never clobber the reserved `store_at` staging slot of a host
//!   buffer.
//!
//! Out-of-bounds loads on buffers whose layout contains a `pad`
//! primitive are reported as `V007_PAD_UNDERCOVERS` (the pad fails to
//! cover the access); all other escapes are `V004_OOB_READ` /
//! `V005_OOB_WRITE`.
//!
//! Bounds polarity: the interval pass is a fast pre-filter — a range
//! fully inside the extent accepts immediately. Anything else (a
//! definite escape, a straddle, or an unbounded expression) is handed to
//! the exact integer-set engine ([`crate::sets`]): an empty violation
//! set *proves* the access safe (recovering rejections interval
//! arithmetic would have made), a non-empty one rejects with a concrete
//! witness iteration, and an out-of-fragment query falls back to the
//! interval verdict — flag a definite escape or an exact straddle
//! (affine over distinct variables), accept otherwise.

use std::collections::{HashMap, HashSet};

use alt_error::codes;
use alt_layout::{LayoutPlan, LayoutPrim};
use alt_loopir::{BufKind, Program, SExpr, Stmt, StoreMode, TirNode};
use alt_tensor::expr::{Expr, Var};
use alt_tensor::{Cond, Graph, TensorId};

use crate::interval::{self, Interval, Refinements};
use crate::sets::{self, AccessQuery, SetVerdict, VerifyStats};
use crate::Diagnostic;

/// Per-tensor facts of a layout plan that the pass classifies buffers
/// by. They depend on the plan alone, so they are computed once per plan
/// and shared by every program lowered under it.
pub struct PlanFacts {
    /// Tensors whose stored layout chain contains a `Pad` primitive.
    padded: HashSet<TensorId>,
    /// Tensors with at least one padding conversion. A converted copy
    /// may serve several consumers with different layouts; "any
    /// conversion of this tensor pads" is enough for diagnostic
    /// classification.
    padded_conversions: HashSet<TensorId>,
    /// `store_at` hosts: tensor -> (physical dim, reserved slot).
    hosts: HashMap<TensorId, (usize, i64)>,
}

fn layout_has_pad(prims: &[LayoutPrim]) -> bool {
    prims.iter().any(|p| matches!(p, LayoutPrim::Pad { .. }))
}

impl PlanFacts {
    /// Collects the facts of `plan` over `graph`.
    pub fn new(graph: &Graph, plan: &LayoutPlan) -> Self {
        let padded = plan
            .assigned()
            .filter(|(_, l)| layout_has_pad(l.prims()))
            .map(|(&t, _)| t)
            .collect();
        let padded_conversions = plan
            .conversions()
            .iter()
            .filter(|c| layout_has_pad(c.layout.prims()))
            .map(|c| c.tensor)
            .collect();
        let mut hosts = HashMap::new();
        for (_, &(host, host_dim)) in plan.embeddings() {
            // `store_at` only applies to identity layouts, so the
            // reserved slot sits at physical position `host_dim` with
            // index equal to the original extent. Anything more exotic
            // is skipped here (and flagged by the plan legality pass).
            let layout = plan.layout_of(graph, host);
            if layout.prims() == [LayoutPrim::StoreAtHost { dim: host_dim }] {
                let reserved = graph.tensor(host).shape.dim(host_dim);
                hosts.insert(host, (host_dim, reserved));
            }
        }
        PlanFacts {
            padded,
            padded_conversions,
            hosts,
        }
    }

    /// Whether buffer `buf` of `program` is stored through a padding
    /// layout.
    fn padded(&self, program: &Program, buf: usize) -> bool {
        match program.buffers.get(buf).map(|d| &d.kind) {
            Some(BufKind::Tensor(t)) => self.padded.contains(t),
            Some(BufKind::Converted(t)) => self.padded_conversions.contains(t),
            None => false,
        }
    }

    /// The reserved `store_at` slot of buffer `buf`, when it holds a
    /// host tensor.
    fn host_slot(&self, program: &Program, buf: usize) -> Option<(usize, i64)> {
        match program.buffers.get(buf).map(|d| &d.kind) {
            Some(BufKind::Tensor(t)) => self.hosts.get(t).copied(),
            _ => None,
        }
    }
}

struct Walker<'a> {
    program: &'a Program,
    facts: &'a PlanFacts,
    group: String,
    /// Live bindings: variable id -> loop extent.
    env: HashMap<u32, i64>,
    diags: Vec<Diagnostic>,
    stats: VerifyStats,
}

/// True when interval arithmetic is exact for `e`: every variable occurs
/// at most once and no flooring/extremum operator can lose correlation.
/// For such expressions a straddling index range proves some iteration
/// really escapes; for anything else a straddle may be an artifact of
/// lost correlation and the verifier accepts.
fn interval_exact(e: &Expr) -> bool {
    fn ops_ok(e: &Expr) -> bool {
        match e {
            Expr::Const(_) | Expr::Var(_) => true,
            Expr::Bin(op, a, b) => {
                use alt_tensor::expr::BinOp;
                !matches!(op, BinOp::FloorDiv | BinOp::Mod | BinOp::Min | BinOp::Max)
                    && ops_ok(a)
                    && ops_ok(b)
            }
        }
    }
    let mut vars = Vec::new();
    e.collect_vars(&mut vars);
    let mut ids: Vec<u32> = vars.iter().map(Var::id).collect();
    ids.sort_unstable();
    ids.dedup();
    ids.len() == vars.len() && ops_ok(e)
}

/// Collects every variable referenced by a condition.
fn cond_vars(c: &Cond, out: &mut Vec<Var>) {
    match c {
        Cond::Ge(a, b) | Cond::Lt(a, b) | Cond::Eq(a, b) => {
            a.collect_vars(out);
            b.collect_vars(out);
        }
        Cond::And(a, b) => {
            cond_vars(a, out);
            cond_vars(b, out);
        }
    }
}

/// Collects every variable referenced by a value expression.
fn sexpr_vars(e: &SExpr, out: &mut Vec<Var>) {
    match e {
        SExpr::Imm(_) => {}
        SExpr::Load { indices, .. } => {
            for i in indices {
                i.collect_vars(out);
            }
        }
        SExpr::Bin(_, a, b) => {
            sexpr_vars(a, out);
            sexpr_vars(b, out);
        }
        SExpr::Unary(_, a) => sexpr_vars(a, out),
        SExpr::Select { cond, then_, else_ } => {
            cond_vars(cond, out);
            sexpr_vars(then_, out);
            sexpr_vars(else_, out);
        }
    }
}

impl Walker<'_> {
    fn diag(&mut self, code: &'static str, detail: String) {
        self.diags
            .push(Diagnostic::new(code, self.group.clone(), detail));
    }

    fn diag_witnessed(&mut self, code: &'static str, detail: String, witness: Option<String>) {
        self.diags
            .push(Diagnostic::new(code, self.group.clone(), detail).with_witness(witness));
    }

    fn walk(&mut self, nodes: &[TirNode]) {
        for node in nodes {
            match node {
                TirNode::Loop {
                    var, extent, body, ..
                } => {
                    if *extent <= 0 {
                        self.diag(
                            codes::V003_NONPOSITIVE_EXTENT,
                            format!("loop `{var}` has extent {extent}"),
                        );
                    }
                    if self.env.contains_key(&var.id()) {
                        self.diag(
                            codes::V001_REBOUND_AXIS,
                            format!("loop rebinds `{var}` while it is already bound"),
                        );
                        // Keep the outer binding: walking the body with a
                        // corrupted scope would cascade spurious reports.
                        self.walk(body);
                        continue;
                    }
                    self.env.insert(var.id(), (*extent).max(1));
                    self.walk(body);
                    self.env.remove(&var.id());
                }
                TirNode::Stmt(s) => self.check_stmt(s),
            }
        }
    }

    fn check_stmt(&mut self, s: &Stmt) {
        // Unbound-variable scan first: bound inference needs every
        // variable in scope.
        let mut vars = Vec::new();
        for i in &s.indices {
            i.collect_vars(&mut vars);
        }
        if let Some(p) = &s.pred {
            cond_vars(p, &mut vars);
        }
        sexpr_vars(&s.value, &mut vars);
        let mut reported = HashSet::new();
        let mut unbound = false;
        for v in &vars {
            if !self.env.contains_key(&v.id()) {
                unbound = true;
                if reported.insert(v.id()) {
                    self.diag(
                        codes::V002_UNBOUND_AXIS,
                        format!("statement uses `{v}` outside any enclosing loop"),
                    );
                }
            }
        }
        if unbound {
            return;
        }

        let base = Refinements::new();
        let mut pred_map = Refinements::new();
        if let Some(p) = &s.pred {
            interval::refine_from_cond(p, &self.env, &mut pred_map);
        }

        // Store indices. A predicated `Assign` still writes 0.0 to the
        // invalid slot, so its destination must be in bounds without
        // assuming the predicate; accumulating stores are skipped when
        // the predicate is false and may assume it.
        let (store_map, store_pred) = if s.mode == StoreMode::Assign {
            (&base, None)
        } else {
            (&pred_map, s.pred.as_ref())
        };
        self.check_access(s.buf.0, &s.indices, store_map, false, store_pred, &[]);
        self.check_host_slot(s, store_map, store_pred);

        // The value expression is only evaluated when the predicate
        // holds.
        let mut guards = Vec::new();
        self.walk_value(&s.value, &pred_map, s.pred.as_ref(), &mut guards);
    }

    /// Flags stores that can touch a `store_at` host's reserved slot.
    fn check_host_slot(&mut self, s: &Stmt, map: &Refinements, pred: Option<&Cond>) {
        let Some((dim, reserved)) = self.facts.host_slot(self.program, s.buf.0) else {
            return;
        };
        let Some(idx) = s.indices.get(dim) else {
            return;
        };
        let iv = interval::eval(idx, &self.env, map);
        // Fast path: the interval proves the reserved slot untouched.
        if iv.is_some_and(|iv| iv.is_empty() || iv.hi < reserved) {
            return;
        }
        let interval_flags = iv.is_some();
        let q = AccessQuery {
            env: &self.env,
            pred,
            guards: &[],
        };
        let name = &self.program.buffer(s.buf).name;
        let detail = |iv: Option<Interval>| match iv {
            Some(iv) => format!(
                "store to `{name}` can reach reserved slot {reserved} of dim {dim} \
                 (index range [{}, {}])",
                iv.lo, iv.hi
            ),
            None => format!("store to `{name}` can reach reserved slot {reserved} of dim {dim}"),
        };
        match sets::check_index_below(idx, reserved, &q, &mut self.stats) {
            SetVerdict::Proven => {
                if interval_flags {
                    self.stats.conservative_recovered += 1;
                }
            }
            SetVerdict::Violated { witness } => {
                self.diag_witnessed(codes::V006_STORE_AT_CLOBBERED, detail(iv), witness);
            }
            SetVerdict::Unknown => {
                if interval_flags {
                    self.diag(codes::V006_STORE_AT_CLOBBERED, detail(iv));
                }
            }
        }
    }

    fn walk_value(
        &mut self,
        e: &SExpr,
        map: &Refinements,
        pred: Option<&Cond>,
        guards: &mut Vec<(Cond, bool)>,
    ) {
        match e {
            SExpr::Imm(_) => {}
            SExpr::Load { buf, indices } => {
                self.check_access(buf.0, indices, map, true, pred, guards);
            }
            SExpr::Bin(_, a, b) => {
                self.walk_value(a, map, pred, guards);
                self.walk_value(b, map, pred, guards);
            }
            SExpr::Unary(_, a) => self.walk_value(a, map, pred, guards),
            SExpr::Select { cond, then_, else_ } => {
                // Only the taken branch evaluates, so each branch may
                // assume its side of the condition.
                let mut tm = map.clone();
                interval::refine_from_cond(cond, &self.env, &mut tm);
                guards.push((cond.clone(), false));
                self.walk_value(then_, &tm, pred, guards);
                guards.pop();
                let mut em = map.clone();
                interval::refine_from_negation(cond, &self.env, &mut em);
                guards.push((cond.clone(), true));
                self.walk_value(else_, &em, pred, guards);
                guards.pop();
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn check_access(
        &mut self,
        buf: usize,
        indices: &[Expr],
        map: &Refinements,
        read: bool,
        pred: Option<&Cond>,
        guards: &[(Cond, bool)],
    ) {
        let decl = &self.program.buffers[buf];
        let (oob_code, what) = if read {
            if self.facts.padded(self.program, buf) {
                (codes::V007_PAD_UNDERCOVERS, "load")
            } else {
                (codes::V004_OOB_READ, "load")
            }
        } else {
            (codes::V005_OOB_WRITE, "store")
        };
        if indices.len() != decl.shape.ndim() {
            self.diag(
                oob_code,
                format!(
                    "{what} of `{}` has rank {} but the buffer has rank {}",
                    decl.name,
                    indices.len(),
                    decl.shape.ndim()
                ),
            );
            return;
        }
        for (k, idx) in indices.iter().enumerate() {
            let extent = decl.shape.dim(k);
            let iv = interval::eval(idx, &self.env, map);
            // Fast path: the interval proves the access in bounds; no
            // set query is spent.
            if iv.is_some_and(|iv| iv.within(extent)) {
                continue;
            }
            // The interval verdict for everything else: a range entirely
            // outside `[0, extent)` is out of bounds no matter how
            // imprecise the analysis; a *straddling* range only proves
            // an escape when interval arithmetic is exact for this
            // expression; an unbounded expression accepts.
            let interval_rejects =
                iv.is_some_and(|iv| iv.hi < 0 || iv.lo >= extent || interval_exact(idx));
            let detail = |iv: Option<Interval>, name: &str| match iv {
                Some(iv) => format!(
                    "{what} of `{name}` dim {k}: index range [{}, {}] escapes extent {extent}",
                    iv.lo, iv.hi
                ),
                None => {
                    format!("{what} of `{name}` dim {k}: index can escape extent {extent}")
                }
            };
            let q = AccessQuery {
                env: &self.env,
                pred,
                guards,
            };
            match sets::check_index_bounds(idx, extent, &q, &mut self.stats) {
                SetVerdict::Proven => {
                    // The exact engine proved the access safe; without
                    // it the interval verdict would have rejected.
                    if interval_rejects {
                        self.stats.conservative_recovered += 1;
                    }
                }
                SetVerdict::Violated { witness } => {
                    let d = detail(iv, &self.program.buffers[buf].name);
                    self.diag_witnessed(oob_code, d, witness);
                }
                SetVerdict::Unknown => {
                    if interval_rejects {
                        let d = detail(iv, &self.program.buffers[buf].name);
                        self.diag(oob_code, d);
                    }
                }
            }
        }
    }
}

/// Runs the well-formedness pass over every lowered group of `program`
/// against the facts of the plan it was lowered under, folding
/// set-engine counters into `stats`.
pub fn check_program(
    facts: &PlanFacts,
    program: &Program,
    stats: &mut VerifyStats,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for group in &program.groups {
        let mut w = Walker {
            program,
            facts,
            group: group.label.clone(),
            env: HashMap::new(),
            diags: Vec::new(),
            stats: VerifyStats::default(),
        };
        w.walk(&group.nodes);
        diags.extend(w.diags);
        stats.absorb(&w.stats);
    }
    diags
}

/// Convenience for tests: the interval of one expression under explicit
/// extents.
pub fn bound_expr(e: &Expr, extents: &HashMap<u32, i64>) -> Option<Interval> {
    interval::eval(e, extents, &Refinements::new())
}
