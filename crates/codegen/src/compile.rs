//! Lowered-program → native-kernel compilation.
//!
//! The compiler walks the TIR loop tree once. Every symbolic integer
//! expression (store offsets, load offsets, predicate operands) is
//! flattened against the physical buffer strides into a single `Expr`
//! and simplified against the ranges of the loops around it
//! ([`LoopRanges`]): each `floordiv`, `mod`, `min`, `max` and comparison
//! the ranges decide folds, split quotients and remainders reduce
//! (`(k·x + y) / (k·m)` to `x / m`, `(k·x + y) mod (k·m)` to
//! `k·(x mod m) + y`, when `0 ≤ y < k`), and the offset's terms are
//! summed outermost loop first, so that partial sums hoist. A store
//! predicate or `Select` condition the ranges decide disappears: the
//! statement keeps only the arm the interpreter would take. The
//! simplified form is equal to the original at every point the loops
//! visit, so every access touches the same slot as before; what changes
//! is that the tuned winners' offsets become affine in their loop
//! variables. `strides` reads a statement's offset strides in a loop's
//! variable while the loop's range is open: a loop that is not `@par`,
//! holds one or more statements and nothing else, and has strides (enters
//! every offset of its statements affinely and none of their conditions)
//! starts a [`Walk`], and every enclosing loop joins it while it is not
//! `@par`, holds the walk alone and has strides. A joining loop's
//! prologue becomes part of the walk's, and its extent and strides the
//! walk's new outer level. Once a group's walks are final, each
//! multiply-accumulate walk whose levels pass the tiling rule gets a
//! register [`Tile`]: its reduction levels run innermost in their
//! relative order, which its extents and strides show keeps every slot's
//! sequence of adds. Every other walk whose statements pass the row rule
//! runs its innermost level as rows: each statement over the whole row at
//! once, which its stores' and loads' buffers and slots show gives every
//! load the value the loop tree's order gives it.
//!
//! The simplified expressions are compiled by [`SlotCompiler`], the
//! loop-nest index compiler the layout walks share: structurally equal
//! ops share one slot (register), every op is folded by the same interval
//! rules, and each op is *placed* in the prologue of the loop whose
//! variable is its deepest dependency, so outer-loop-invariant index
//! math is computed once per outer iteration instead of once per element,
//! which is where most of the interpreter's time went. An op placed in a
//! loop's prologue stops being shared when the loop closes (its slot is
//! stale outside it), while ops hoisted to enclosing loops stay shared
//! across siblings. Group-level (loop-invariant) ops stay shared for the
//! whole program because the slot file persists across groups on the
//! executing thread.

use alt_loopir::tir::{BufId, Program, SExpr, Stmt, TirNode};
use alt_loopir::{LoopKind, StoreMode};
use alt_sim::MachineProfile;
use alt_tensor::expr::Expr;
use alt_tensor::op::{Cond, ScalarBinOp};
use alt_tensor::range::{Folded, LoopRanges, SlotCompiler, SlotOp};

use crate::ir::{
    CGroup, CLoop, CNode, CStmt, FOp, NativeKernel, Tile, Walk, WalkAccess, WalkLevel,
};

/// Symbolic side table of a compiled statement, or of a walk's statements
/// merged, kept only during compilation to decide which loops a walk
/// covers.
#[derive(Default)]
struct StmtSym {
    /// Flattened offset expressions: each statement's store, then its
    /// loads in stack-program order.
    offsets: Vec<Expr>,
    /// Every condition the statements consult that the loop ranges do
    /// not decide: the store predicates plus `Select` conditions.
    conds: Vec<Cond>,
}

impl StmtSym {
    /// The side table of a loop body's statements or walk, in body order.
    fn merge(syms: Vec<Option<StmtSym>>) -> Self {
        let mut all = Self::default();
        for s in syms.into_iter().flatten() {
            all.offsets.extend(s.offsets);
            all.conds.extend(s.conds);
        }
        all
    }
}

struct Compiler {
    /// Row-major physical strides per buffer.
    strides: Vec<Vec<i64>>,
    slots: SlotCompiler,
}

impl Compiler {
    /// The slot of an index expression. Lowering binds every variable
    /// to an enclosing loop, so an unbound one is a lowering bug.
    fn compile_expr(&mut self, e: &Expr) -> u32 {
        self.slots
            .expr(e)
            .unwrap_or_else(|| panic!("index `{e}` uses a loop variable not in scope"))
    }

    /// The `0`/`1` slot of a predicate; panics as
    /// [`Compiler::compile_expr`].
    fn compile_cond(&mut self, c: &Cond) -> u32 {
        self.slots
            .cond(c)
            .unwrap_or_else(|| panic!("condition {c:?} uses a loop variable not in scope"))
    }

    /// Flattens multi-dimensional physical indices into one offset
    /// expression against the buffer's row-major strides, simplified
    /// against the enclosing loops' ranges: split quotients and
    /// remainders reduce, decided `min`/`max`/`mod` fold, and terms are
    /// summed outermost loop first so partial sums hoist.
    fn flat_offset(&self, buf: BufId, indices: &[Expr]) -> Expr {
        let strides = &self.strides[buf.0];
        let mut off = Expr::c(0);
        for (e, &s) in indices.iter().zip(strides) {
            off = off.add(&e.mul_c(s));
        }
        self.slots.ranges().simplify(&off)
    }

    /// Compiles a scalar body to a stack program in recursive-descent
    /// (interpreter) order, recording load offsets and `Select`
    /// conditions in `sym`.
    fn compile_sexpr(&mut self, e: &SExpr, fops: &mut Vec<FOp>, sym: &mut StmtSym) {
        match e {
            SExpr::Imm(v) => fops.push(FOp::Imm(*v)),
            SExpr::Load { buf, indices } => {
                let off_sym = self.flat_offset(*buf, indices);
                let off = self.compile_expr(&off_sym);
                sym.offsets.push(off_sym);
                fops.push(FOp::Load {
                    buf: buf.0 as u32,
                    off,
                });
            }
            SExpr::Bin(op, a, b) => {
                self.compile_sexpr(a, fops, sym);
                self.compile_sexpr(b, fops, sym);
                fops.push(FOp::Bin(*op));
            }
            SExpr::Unary(op, a) => {
                self.compile_sexpr(a, fops, sym);
                fops.push(FOp::Un(*op));
            }
            SExpr::Select { cond, then_, else_ } => {
                // A condition the loop ranges decide compiles to its
                // taken arm alone, as the interpreter would evaluate it.
                let cond = match self.slots.ranges().simplify_cond(cond) {
                    Folded::Always => return self.compile_sexpr(then_, fops, sym),
                    Folded::Never => return self.compile_sexpr(else_, fops, sym),
                    Folded::Open(cond) => cond,
                };
                let creg = self.compile_cond(&cond);
                sym.conds.push(cond);
                let jz = fops.len();
                fops.push(FOp::JumpIfZero { cond: creg, to: 0 });
                self.compile_sexpr(then_, fops, sym);
                let j = fops.len();
                fops.push(FOp::Jump { to: 0 });
                let else_start = fops.len() as u32;
                if let FOp::JumpIfZero { to, .. } = &mut fops[jz] {
                    *to = else_start;
                }
                self.compile_sexpr(else_, fops, sym);
                let end = fops.len() as u32;
                if let FOp::Jump { to } = &mut fops[j] {
                    *to = end;
                }
            }
        }
    }

    fn compile_stmt(&mut self, s: &Stmt) -> (CStmt, StmtSym) {
        let store_off = self.flat_offset(s.buf, &s.indices);
        let off = self.compile_expr(&store_off);
        let mut sym = StmtSym {
            offsets: vec![store_off],
            conds: Vec::new(),
        };
        // An always-true predicate is dropped; an always-false one stays
        // as a constant 0 so the statement keeps its invalid-slot effect.
        let folded = s
            .pred
            .as_ref()
            .map(|c| self.slots.ranges().simplify_cond(c));
        let pred = match folded {
            None | Some(Folded::Always) => None,
            Some(Folded::Never) => Some(self.slots.constant(0)),
            Some(Folded::Open(c)) => {
                let reg = self.compile_cond(&c);
                sym.conds.push(c);
                Some(reg)
            }
        };
        let mut fops = Vec::new();
        self.compile_sexpr(&s.value, &mut fops, &mut sym);
        (
            CStmt {
                buf: s.buf.0 as u32,
                off,
                pred,
                mode: s.mode,
                fops,
            },
            sym,
        )
    }

    fn compile_nodes(&mut self, nodes: &[TirNode]) -> (Vec<CNode>, Vec<Option<StmtSym>>) {
        let mut out = Vec::with_capacity(nodes.len());
        let mut syms = Vec::with_capacity(nodes.len());
        for node in nodes {
            match node {
                TirNode::Stmt(s) => {
                    let (cs, sym) = self.compile_stmt(s);
                    out.push(CNode::Stmt(cs));
                    syms.push(Some(sym));
                }
                TirNode::Loop {
                    var,
                    extent,
                    kind,
                    body,
                } => {
                    let var_reg = self.slots.push_loop(var.id(), *extent);
                    let (mut cbody, bsyms) = self.compile_nodes(body);
                    // A loop that is not `@par` and whose body is one walk,
                    // or one or more statements, starts or joins a walk
                    // when its statements have strides in its variable.
                    let walkable = *extent > 0
                        && *kind != LoopKind::Parallel
                        && match &cbody[..] {
                            [CNode::Walk(_)] => true,
                            [] => false,
                            nodes => nodes.iter().all(|n| matches!(n, CNode::Stmt(_))),
                        };
                    let sym = walkable.then(|| StmtSym::merge(bsyms));
                    let strides = sym
                        .as_ref()
                        .and_then(|sym| strides(self.slots.ranges(), var.id(), sym));
                    if let Some(strides) = strides {
                        let mut walk = match cbody.pop() {
                            Some(CNode::Walk(w)) => w,
                            last => Walk::of(
                                cbody
                                    .into_iter()
                                    .chain(last)
                                    .map(|n| match n {
                                        CNode::Stmt(s) => s,
                                        _ => {
                                            unreachable!("a walk's body is one walk or statements")
                                        }
                                    })
                                    .collect(),
                            ),
                        };
                        walk.enclose(self.slots.pop_loop(), *extent, strides);
                        out.push(CNode::Walk(walk));
                        syms.push(sym);
                        continue;
                    }
                    out.push(CNode::Loop(CLoop {
                        var_reg,
                        extent: *extent,
                        parallel: *kind == LoopKind::Parallel,
                        prologue: self.slots.pop_loop(),
                        body: cbody,
                    }));
                    syms.push(None);
                }
            }
        }
        (out, syms)
    }
}

fn cond_uses_var(c: &Cond, var: u32) -> bool {
    match c {
        Cond::Ge(a, b) | Cond::Lt(a, b) | Cond::Eq(a, b) => a.uses_var(var) || b.uses_var(var),
        Cond::And(l, r) => cond_uses_var(l, var) || cond_uses_var(r, var),
    }
}

/// The strides of statements' offsets (each store's, then its loads') in
/// loop variable `var`, when on the loops' `ranges` every offset is
/// affine in `var` and no predicate or `Select` condition depends on it.
/// Points of the loop then differ only by fixed offset steps, and a walk
/// level runs its prologue once per walk entry.
fn strides(ranges: &LoopRanges, var: u32, sym: &StmtSym) -> Option<Vec<i64>> {
    if sym.conds.iter().any(|c| cond_uses_var(c, var)) {
        return None;
    }
    sym.offsets.iter().map(|e| ranges.stride(e, var)).collect()
}

/// Whether a statement is `out += a · b` over two loads, the shape of
/// nearly every reduction the tuner emits.
fn is_mac(s: &CStmt) -> bool {
    s.mode == StoreMode::AddAcc
        && matches!(
            s.fops[..],
            [
                FOp::Load { .. },
                FOp::Load { .. },
                FOp::Bin(ScalarBinOp::Mul)
            ]
        )
}

/// The buffers and offset slots of a statement's loads, in stack-program
/// order.
fn loads(s: &CStmt) -> impl Iterator<Item = (u32, u32)> + '_ {
    s.fops.iter().filter_map(|f| match *f {
        FOp::Load { buf, off } => Some((buf, off)),
        _ => None,
    })
}

impl Walk {
    /// A walk of no level over the statements `stmts`, in body order.
    fn of(stmts: Vec<CStmt>) -> Self {
        let access = stmts
            .iter()
            .flat_map(|s| std::iter::once((s.buf, s.off)).chain(loads(s)))
            .map(|(buf, off)| WalkAccess {
                buf,
                off,
                lo: 0,
                hi: 0,
            })
            .collect();
        Self {
            prologue: Vec::new(),
            levels: Vec::new(),
            access,
            mac: matches!(&stmts[..], [s] if is_mac(s)).then_some(false),
            tile: None,
            rows: false,
            stmts,
        }
    }

    /// Makes the loop whose ops are `prologue` the walk's new outermost
    /// level, given its accesses' `strides`: widens each access's
    /// displacement box by its span and records the level's steps.
    fn enclose(&mut self, prologue: Vec<SlotOp>, extent: i64, strides: Vec<i64>) {
        self.prologue.splice(0..0, prologue);
        for (acc, &s) in self.access.iter_mut().zip(&strides) {
            let span = (extent - 1) * s;
            acc.lo += span.min(0);
            acc.hi += span.max(0);
        }
        let (mut mac, mut steps) = ([0; 3], Vec::new());
        match (&mut self.mac, &self.access[..]) {
            (Some(slices), [o, a, b]) => {
                mac = [strides[0], strides[1], strides[2]];
                let [so, sa, sb] = mac;
                // The first loop a walk encloses is its innermost level.
                if self.levels.is_empty() {
                    *slices = so == 1
                        && matches!(sa, 0 | 1)
                        && matches!(sb, 0 | 1)
                        && o.buf != a.buf
                        && o.buf != b.buf;
                }
            }
            // Other statements step their offset slots in place, so a slot
            // that several accesses share steps once; equal slots take equal
            // values at every point, and so have equal strides.
            (_, access) => {
                for (acc, &s) in access.iter().zip(&strides) {
                    if s != 0 && !steps.iter().any(|&(reg, _)| reg == acc.off) {
                        steps.push((acc.off, s));
                    }
                }
            }
        }
        self.levels.insert(0, WalkLevel { extent, steps, mac });
    }
}

/// Plans the register tile and the rows of every walk in `nodes`. A walk
/// grows while an enclosing loop joins it, so both are planned once a
/// group's walks are final.
fn plan_walks(nodes: &mut [CNode]) {
    for n in nodes {
        match n {
            CNode::Walk(w) => {
                w.tile = tile(w).map(Box::new);
                w.rows = rows(w);
            }
            CNode::Loop(l) => plan_walks(&mut l.body),
            CNode::Stmt(_) => {}
        }
    }
}

/// Whether a walk runs its innermost level as rows: it is not a
/// multiply-accumulate, and its statements pass the row rule ([`Walk`]).
/// A buffer that a statement stores is loaded, by that statement or a
/// later one, only through the store's own offset slot, which the
/// innermost level steps by a nonzero amount; and no statement loads or
/// stores a buffer that a later statement stores.
fn rows(w: &Walk) -> bool {
    let Some(row) = w.levels.last() else {
        return false;
    };
    let moves = |reg: u32| row.steps.iter().any(|&(r, s)| r == reg && s != 0);
    w.mac.is_none()
        && w.stmts.iter().enumerate().all(|(k, s)| {
            let (earlier, rest) = w.stmts.split_at(k);
            let own_slot = rest
                .iter()
                .flat_map(loads)
                .all(|(buf, off)| buf != s.buf || (off == s.off && moves(off)));
            let untouched_before = earlier
                .iter()
                .all(|e| e.buf != s.buf && loads(e).all(|(buf, _)| buf != s.buf));
            own_slot && untouched_before
        })
}

/// The register tile of a multiply-accumulate walk whose levels pass the
/// tiling rule ([`Tile`]): the output buffer is neither load's, the store
/// is injective over the spatial levels, some level reduces, and a
/// spatial level steps `[1, 0, 1]` or `[1, 1, 0]`. That level is the
/// column and the row is a spatial level that leaves the column's
/// vector operand still; each is the candidate of largest extent, the
/// innermost on ties.
fn tile(w: &Walk) -> Option<Tile> {
    let (Some(_), [o, a, b]) = (w.mac, &w.access[..]) else {
        return None;
    };
    if o.buf == a.buf || o.buf == b.buf {
        return None;
    }
    let (spatial, reduce): (Vec<&WalkLevel>, Vec<&WalkLevel>) =
        w.levels.iter().partition(|l| l.mac[0] != 0);
    if reduce.is_empty() || !injective(&spatial) {
        return None;
    }
    let widest = |fits: &dyn Fn(usize, &WalkLevel) -> bool| {
        (0..spatial.len())
            .filter(|&k| fits(k, spatial[k]))
            .max_by_key(|&k| (spatial[k].extent, k))
    };
    let col = widest(&|_, l| matches!(l.mac, [1, 0, 1] | [1, 1, 0]))?;
    let a_vector = spatial[col].mac[1] == 1;
    let vector = if a_vector { 1 } else { 2 };
    let row = widest(&|k, l| k != col && l.mac[vector] == 0);
    let outer = spatial
        .iter()
        .enumerate()
        .filter(|&(k, _)| k != col && Some(k) != row)
        .map(|(_, l)| (*l).clone())
        .collect();
    Some(Tile {
        outer,
        row: row.map(|k| spatial[k].clone()),
        col: spatial[col].clone(),
        a_vector,
        reduce: reduce.into_iter().cloned().collect(),
    })
}

/// Whether distinct points of the `spatial` levels store to distinct
/// slots: sorted by |store step|, each step exceeds the span
/// `Σ (extent − 1)·|step|` of the smaller ones, so the largest level on
/// which two points differ moves the store further than all smaller
/// levels together can move it back.
fn injective(spatial: &[&WalkLevel]) -> bool {
    let mut levels: Vec<(i64, i64)> = spatial.iter().map(|l| (l.mac[0].abs(), l.extent)).collect();
    levels.sort_unstable();
    let mut span = 0;
    levels.into_iter().all(|(step, extent)| {
        let clear = step > span;
        span += (extent - 1) * step;
        clear
    })
}

/// Compiles a lowered program into a [`NativeKernel`]. The machine
/// profile does not affect the kernel: a program compiles to the same
/// kernel for every profile. The parameter stays for callers that compile
/// per target.
pub fn compile(program: &Program, _profile: &MachineProfile) -> NativeKernel {
    let mut c = Compiler {
        strides: program.buffers.iter().map(|b| b.shape.strides()).collect(),
        slots: SlotCompiler::new(),
    };
    let mut groups = Vec::with_capacity(program.groups.len());
    for g in &program.groups {
        let (mut nodes, _) = c.compile_nodes(&g.nodes);
        plan_walks(&mut nodes);
        groups.push(CGroup {
            label: g.label.clone(),
            prologue: c.slots.take_root(),
            nodes,
        });
    }
    NativeKernel {
        groups,
        slots: c.slots.init(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The walk of `out += a · b` over the buffers `bufs` (store, `a`,
    /// `b`) with `levels` (extent, store/`a`/`b` steps), outermost first.
    fn mac_walk(bufs: [u32; 3], levels: &[(i64, [i64; 3])]) -> Walk {
        let [o, a, b] = bufs;
        let mut w = Walk::of(vec![CStmt {
            buf: o,
            off: 0,
            pred: None,
            mode: StoreMode::AddAcc,
            fops: vec![
                FOp::Load { buf: a, off: 1 },
                FOp::Load { buf: b, off: 2 },
                FOp::Bin(ScalarBinOp::Mul),
            ],
        }]);
        for &(extent, steps) in levels.iter().rev() {
            w.enclose(Vec::new(), extent, steps.to_vec());
        }
        w
    }

    /// `buf[slot] = fops` (slot registers are the tests' own numbering).
    fn assign(buf: u32, off: u32, fops: Vec<FOp>) -> CStmt {
        CStmt {
            buf,
            off,
            pred: None,
            mode: StoreMode::Assign,
            fops,
        }
    }

    fn load(buf: u32, off: u32) -> FOp {
        FOp::Load { buf, off }
    }

    /// The rows plan of a one-level walk of 8 lanes over `stmts`, whose
    /// accesses (each store, then its loads) step by `strides`.
    fn runs_as_rows(stmts: Vec<CStmt>, strides: &[i64]) -> bool {
        let mut w = Walk::of(stmts);
        w.enclose(Vec::new(), 8, strides.to_vec());
        rows(&w)
    }

    // Buffers `x` 0, `bias` 1, `t` 2, `out` 3; `t` stores through slot 0.
    const ADD: FOp = FOp::Bin(ScalarBinOp::Add);
    const GELU: FOp = FOp::Un(alt_tensor::op::UnaryOp::Gelu);

    /// `t = x + bias`, with `x` through slot 1 and `bias` through slot 2.
    fn bias_add() -> CStmt {
        assign(2, 0, vec![load(0, 1), load(1, 2), ADD])
    }

    #[test]
    fn a_bias_then_gelu_epilogue_runs_as_rows() {
        // `out = gelu(t)` reads `t` through its store's slot 0, which the
        // row steps by 1: lane `i` reads what lane `i` of `t` wrote.
        let gelu = assign(3, 3, vec![load(2, 0), GELU]);
        assert!(runs_as_rows(vec![bias_add(), gelu], &[1, 1, 0, 1, 1]));
    }

    #[test]
    fn an_in_place_scale_at_its_own_store_slot_runs_as_rows() {
        let scale = assign(
            0,
            0,
            vec![load(0, 0), FOp::Imm(0.5), FOp::Bin(ScalarBinOp::Mul)],
        );
        assert!(runs_as_rows(vec![scale], &[1, 1]));
        // Read through another slot, lane `i` may read what lane `i - 1`
        // has stored.
        let shifted = assign(
            0,
            0,
            vec![load(0, 4), FOp::Imm(0.5), FOp::Bin(ScalarBinOp::Mul)],
        );
        assert!(!runs_as_rows(vec![shifted], &[1, 1]));
    }

    #[test]
    fn a_load_of_a_stored_buffer_through_another_slot_runs_point_by_point() {
        // `out = gelu(t)` one slot ahead of `t`'s store (slot 4).
        let ahead = assign(3, 3, vec![load(2, 4), GELU]);
        assert!(!runs_as_rows(vec![bias_add(), ahead], &[1, 1, 0, 1, 1]));
    }

    #[test]
    fn a_later_load_of_a_store_the_row_holds_still_runs_point_by_point() {
        // `t`'s slot steps by 0: every lane of `t = x + bias` stores to
        // one slot, and each point's `gelu` reads that point's value.
        let gelu = assign(3, 3, vec![load(2, 0), GELU]);
        assert!(!runs_as_rows(vec![bias_add(), gelu], &[0, 1, 0, 1, 0]));
        // Unread, such a store keeps the loop tree's sequence.
        assert!(runs_as_rows(vec![bias_add()], &[0, 1, 0]));
    }

    #[test]
    fn an_earlier_load_of_a_later_store_runs_point_by_point() {
        // `out = gelu(t)` before `t = x + bias`: each point reads `t`
        // before that point stores it.
        let gelu = assign(3, 3, vec![load(2, 0), GELU]);
        assert!(!runs_as_rows(vec![gelu, bias_add()], &[1, 1, 1, 1, 0]));
    }

    #[test]
    fn two_stores_to_one_buffer_run_point_by_point() {
        let copy = assign(2, 0, vec![load(0, 1)]);
        assert!(!runs_as_rows(vec![bias_add(), copy], &[1, 1, 0, 1, 1]));
    }

    #[test]
    fn multiply_accumulate_walks_never_run_as_rows() {
        let w = mac_walk([0, 1, 2], &GMM);
        assert!(w.mac.is_some() && !rows(&w));
    }

    /// `k.o m.i k.i n.i` of a 5×8 by 8×16 product, row-major.
    const GMM: [(i64, [i64; 3]); 4] = [
        (2, [0, 4, 64]),
        (5, [16, 8, 0]),
        (4, [0, 1, 16]),
        (16, [1, 0, 1]),
    ];

    #[test]
    fn a_gmm_walk_tiles_with_its_reductions_innermost_in_order() {
        let t = tile(&mac_walk([0, 1, 2], &GMM)).expect("a tile");
        let steps = |ls: &[WalkLevel]| ls.iter().map(|l| l.mac).collect::<Vec<_>>();
        assert_eq!(steps(&t.reduce), [[0, 4, 64], [0, 1, 16]]);
        assert_eq!(t.row.map(|l| l.mac), Some([16, 8, 0]));
        assert_eq!((t.col.mac, t.a_vector), ([1, 0, 1], false));
        assert!(t.outer.is_empty());
    }

    #[test]
    fn no_tile_when_the_output_aliases_a_load() {
        assert!(tile(&mac_walk([0, 0, 2], &GMM)).is_none());
        assert!(tile(&mac_walk([2, 1, 2], &GMM)).is_none());
    }

    #[test]
    fn no_tile_when_spatial_store_steps_overlap() {
        // Extents 4 and 2 with store steps 1 and 2: `i + 2·j` repeats, so
        // a slot would take adds from two spatial points.
        let overlapping = [(3, [0, 1, 8]), (2, [2, 3, 0]), (4, [1, 0, 1])];
        assert!(tile(&mac_walk([0, 1, 2], &overlapping)).is_none());
        let disjoint = [(3, [0, 1, 8]), (2, [4, 3, 0]), (4, [1, 0, 1])];
        assert!(tile(&mac_walk([0, 1, 2], &disjoint)).is_some());
        // An overlapping level that is neither row nor column counts too.
        let outer = [(2, [2, 0, 5]), (3, [0, 1, 8]), (4, [1, 0, 1])];
        assert!(tile(&mac_walk([0, 1, 2], &outer)).is_none());
    }

    #[test]
    fn no_tile_without_a_reduction_level() {
        let spatial = [(5, [16, 8, 0]), (16, [1, 0, 1])];
        assert!(tile(&mac_walk([0, 1, 2], &spatial)).is_none());
    }

    #[test]
    fn no_tile_without_a_vector_column() {
        for col in [[1, 1, 1], [2, 0, 1], [1, 0, 2]] {
            let levels = [(4, [0, 1, 8]), (8, col)];
            assert!(tile(&mac_walk([0, 1, 2], &levels)).is_none(), "{col:?}");
        }
    }

    #[test]
    fn a_swapped_column_keeps_a_as_the_vector_and_its_row_leaves_a_still() {
        // Along the column the output and `a` step by 1; a level that moves
        // `a` cannot be the row, so the one that leaves it still is.
        let levels = [
            (3, [0, 20, 1]),
            (4, [8, 1, 3]),
            (6, [32, 0, 3]),
            (8, [1, 1, 0]),
        ];
        let t = tile(&mac_walk([0, 1, 2], &levels)).expect("a tile");
        assert!(t.a_vector);
        assert_eq!(t.row.map(|l| l.mac), Some([32, 0, 3]));
        assert_eq!(
            t.outer.iter().map(|l| l.mac).collect::<Vec<_>>(),
            [[8, 1, 3]]
        );
    }
}
