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
//! holds one statement alone and has strides (enters every offset
//! affinely and no condition) starts a [`Walk`], and every enclosing loop
//! joins it while it is not `@par`, holds the walk alone and has strides.
//! A joining loop's prologue becomes part of the walk's, and its extent
//! and strides the walk's new outer level.
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

use crate::ir::{CGroup, CLoop, CNode, CStmt, FOp, NativeKernel, Walk, WalkAccess, WalkLevel};

/// Symbolic side table of one compiled statement, kept only during
/// compilation to decide which loops its walk covers.
struct StmtSym {
    /// Flattened offset expressions: the store's, then each load's in
    /// stack-program order.
    offsets: Vec<Expr>,
    /// Every condition the statement consults that the loop ranges do
    /// not decide: the store predicate plus `Select` conditions.
    conds: Vec<Cond>,
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
                    let (mut cbody, mut bsyms) = self.compile_nodes(body);
                    // A loop that is not `@par` and holds one statement or
                    // walk alone starts or joins a walk when the statement
                    // has strides in its variable.
                    let strides = match &bsyms[..] {
                        [Some(sym)] if *extent > 0 && *kind != LoopKind::Parallel => {
                            strides(self.slots.ranges(), var.id(), sym)
                        }
                        _ => None,
                    };
                    if let Some(strides) = strides {
                        let mut walk = match cbody.pop() {
                            Some(CNode::Walk(w)) => w,
                            Some(CNode::Stmt(s)) => Walk::of(s),
                            _ => unreachable!("a walk's body is one node"),
                        };
                        walk.enclose(self.slots.pop_loop(), *extent, strides);
                        out.push(CNode::Walk(walk));
                        syms.push(bsyms.pop().flatten());
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

/// The strides of a statement's offsets (the store's, then each load's)
/// in loop variable `var`, when on the loops' `ranges` every offset is
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

impl Walk {
    /// A walk of no level over the statement `stmt`.
    fn of(stmt: CStmt) -> Self {
        let access = |buf, off| WalkAccess {
            buf,
            off,
            lo: 0,
            hi: 0,
        };
        let loads = stmt.fops.iter().filter_map(|f| match *f {
            FOp::Load { buf, off } => Some(access(buf, off)),
            _ => None,
        });
        Self {
            prologue: Vec::new(),
            levels: Vec::new(),
            access: std::iter::once(access(stmt.buf, stmt.off))
                .chain(loads)
                .collect(),
            mac: is_mac(&stmt).then_some(false),
            stmt,
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
        let (nodes, _) = c.compile_nodes(&g.nodes);
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
