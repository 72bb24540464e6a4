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
//! is that the tuned winners' offsets become affine in their `@vec`
//! variable, which lets `vec_body` give those loops the stride fast
//! path and, for `out += a · b`, the typed multiply-accumulate loop.
//!
//! The simplified expressions are compiled to three-address [`IOp`]s
//! with hash-consing CSE: the `Expr` type is hash-comparable, so
//! structurally equal subexpressions share one register. Each op is
//! *placed* in the prologue of the loop whose variable is its deepest
//! dependency — outer-loop-invariant index math is computed once per
//! outer iteration instead of once per element, which is where most of
//! the interpreter's time went.
//!
//! CSE entries are scoped: when a loop is popped, every expression whose
//! defining op lives in that loop's prologue is evicted (its register is
//! stale outside the loop), while expressions hoisted to enclosing loops
//! stay shared across siblings. Group-level (loop-invariant) entries stay
//! valid for the whole program because the register file persists across
//! groups on the executing thread.

use std::collections::HashMap;

use alt_loopir::tir::{BufId, Program, SExpr, Stmt, TirNode};
use alt_loopir::{LoopKind, StoreMode};
use alt_sim::MachineProfile;
use alt_tensor::expr::{BinOp, Expr};
use alt_tensor::op::{Cond, ScalarBinOp};
use alt_tensor::range::{Folded, LoopRanges};

use crate::ir::{CGroup, CLoop, CNode, CStmt, FOp, IOp, Mac, NativeKernel, Strided, VecBody};

/// Symbolic side table of one compiled statement, kept only during
/// compilation to drive the vector-chunk eligibility analysis.
struct StmtSym {
    /// Flattened store-offset expression.
    store_off: Expr,
    /// `(fop index, flattened offset expression)` per load.
    loads: Vec<(usize, Expr)>,
    /// Every condition the statement consults that the loop ranges do
    /// not decide: the store predicate plus `Select` conditions.
    conds: Vec<Cond>,
    /// Length of the statement's float program.
    fops_len: usize,
}

struct Scope {
    /// Ops placed at this loop level (the loop's per-iteration prologue).
    ops: Vec<IOp>,
    /// CSE keys whose defining op lives at this level; evicted on pop.
    owned: Vec<Expr>,
}

impl Scope {
    fn new() -> Self {
        Self {
            ops: Vec::new(),
            owned: Vec::new(),
        }
    }
}

struct Compiler {
    /// Row-major physical strides per buffer.
    strides: Vec<Vec<i64>>,
    lanes: u32,
    next_reg: u32,
    const_regs: HashMap<i64, u32>,
    var_regs: HashMap<u32, u32>,
    /// Loop-scope index of each in-scope variable.
    var_scope: HashMap<u32, usize>,
    /// Hash-consing table: expression → (register, defining scope index).
    memo: HashMap<Expr, (u32, usize)>,
    /// Scope stack; index 0 is the group root and never pops.
    scopes: Vec<Scope>,
    /// Ranges of the loop variables in scope, for simplification.
    ranges: LoopRanges,
}

impl Compiler {
    fn fresh(&mut self) -> u32 {
        let r = self.next_reg;
        self.next_reg += 1;
        r
    }

    fn const_reg(&mut self, v: i64) -> u32 {
        if let Some(&r) = self.const_regs.get(&v) {
            return r;
        }
        let r = self.fresh();
        self.const_regs.insert(v, r);
        r
    }

    /// Compiles an integer expression; returns its register and the scope
    /// index of its defining op (0 = group-invariant).
    fn compile_expr(&mut self, e: &Expr) -> (u32, usize) {
        match e {
            Expr::Const(v) => (self.const_reg(*v), 0),
            Expr::Var(v) => {
                let reg = *self
                    .var_regs
                    .get(&v.id())
                    .unwrap_or_else(|| panic!("loop variable `{v}` not in scope"));
                (reg, self.var_scope[&v.id()])
            }
            Expr::Bin(op, a, b) => {
                if let Some(&(reg, level)) = self.memo.get(e) {
                    return (reg, level);
                }
                let (ra, la) = self.compile_expr(a);
                let (rb, lb) = self.compile_expr(b);
                let level = la.max(lb);
                let dst = self.fresh();
                self.scopes[level].ops.push(IOp::Bin {
                    op: *op,
                    dst,
                    a: ra,
                    b: rb,
                });
                self.memo.insert(e.clone(), (dst, level));
                self.scopes[level].owned.push(e.clone());
                (dst, level)
            }
        }
    }

    /// Compiles a predicate to a `0`/`1` register.
    fn compile_cond(&mut self, c: &Cond) -> (u32, usize) {
        let (mk, a, b): (fn(u32, u32, u32) -> IOp, _, _) = match c {
            Cond::Ge(a, b) => (|dst, a, b| IOp::Ge { dst, a, b }, a, b),
            Cond::Lt(a, b) => (|dst, a, b| IOp::Lt { dst, a, b }, a, b),
            Cond::Eq(a, b) => (|dst, a, b| IOp::Eq { dst, a, b }, a, b),
            Cond::And(l, r) => {
                let (ra, la) = self.compile_cond(l);
                let (rb, lb) = self.compile_cond(r);
                let level = la.max(lb);
                let dst = self.fresh();
                self.scopes[level].ops.push(IOp::And { dst, a: ra, b: rb });
                return (dst, level);
            }
        };
        let (ra, la) = self.compile_expr(a);
        let (rb, lb) = self.compile_expr(b);
        let level = la.max(lb);
        let dst = self.fresh();
        self.scopes[level].ops.push(mk(dst, ra, rb));
        (dst, level)
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
        self.ranges.simplify(&off)
    }

    /// Compiles a scalar body to a stack program in recursive-descent
    /// (interpreter) order, recording load offsets and `Select`
    /// conditions in `sym`.
    fn compile_sexpr(&mut self, e: &SExpr, fops: &mut Vec<FOp>, sym: &mut StmtSym) {
        match e {
            SExpr::Imm(v) => fops.push(FOp::Imm(*v)),
            SExpr::Load { buf, indices } => {
                let off_sym = self.flat_offset(*buf, indices);
                let (off, _) = self.compile_expr(&off_sym);
                sym.loads.push((fops.len(), off_sym));
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
                let cond = match self.ranges.simplify_cond(cond) {
                    Folded::Always => return self.compile_sexpr(then_, fops, sym),
                    Folded::Never => return self.compile_sexpr(else_, fops, sym),
                    Folded::Open(cond) => cond,
                };
                let (creg, _) = self.compile_cond(&cond);
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
        let (off, _) = self.compile_expr(&store_off);
        let mut sym = StmtSym {
            store_off,
            loads: Vec::new(),
            conds: Vec::new(),
            fops_len: 0,
        };
        // An always-true predicate is dropped; an always-false one stays
        // as a constant 0 so the statement keeps its invalid-slot effect.
        let pred = match s.pred.as_ref().map(|c| self.ranges.simplify_cond(c)) {
            None | Some(Folded::Always) => None,
            Some(Folded::Never) => Some(self.const_reg(0)),
            Some(Folded::Open(c)) => {
                let reg = self.compile_cond(&c).0;
                sym.conds.push(c);
                Some(reg)
            }
        };
        let mut fops = Vec::new();
        self.compile_sexpr(&s.value, &mut fops, &mut sym);
        sym.fops_len = fops.len();
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
                    let var_reg = self.fresh();
                    self.var_regs.insert(var.id(), var_reg);
                    self.var_scope.insert(var.id(), self.scopes.len());
                    self.scopes.push(Scope::new());
                    self.ranges.push(var.id(), *extent);
                    let (cbody, bsyms) = self.compile_nodes(body);
                    self.ranges.pop();
                    let scope = self.scopes.pop().expect("scope pushed above");
                    for key in &scope.owned {
                        self.memo.remove(key);
                    }
                    self.var_regs.remove(&var.id());
                    self.var_scope.remove(&var.id());
                    let vec = match (&cbody[..], &bsyms[..]) {
                        ([CNode::Stmt(s)], [Some(sym)]) if *kind == LoopKind::Vectorized => {
                            vec_body(var.id(), s, sym)
                        }
                        _ => None,
                    };
                    out.push(CNode::Loop(CLoop {
                        var_reg,
                        extent: *extent,
                        parallel: *kind == LoopKind::Parallel,
                        lanes: self.lanes,
                        prologue: scope.ops,
                        body: cbody,
                        vec,
                    }));
                    syms.push(None);
                }
            }
        }
        (out, syms)
    }
}

/// Stride of `e` in variable `var` when `e` is affine in it
/// (`e = base + stride·var` with `base` independent of `var`); `None`
/// otherwise. Non-affine uses (`var` under division, modulo, min/max or a
/// variable-scaled product) disqualify the vector fast path.
fn affine_stride(e: &Expr, var: u32) -> Option<i64> {
    match e {
        Expr::Const(_) => Some(0),
        Expr::Var(v) => Some(i64::from(v.id() == var)),
        Expr::Bin(op, a, b) => match op {
            BinOp::Add => Some(affine_stride(a, var)? + affine_stride(b, var)?),
            BinOp::Sub => Some(affine_stride(a, var)? - affine_stride(b, var)?),
            BinOp::Mul => match (a.uses_var(var), b.uses_var(var)) {
                (false, false) => Some(0),
                (true, false) => match **b {
                    Expr::Const(k) => Some(affine_stride(a, var)? * k),
                    _ => None,
                },
                (false, true) => match **a {
                    Expr::Const(k) => Some(affine_stride(b, var)? * k),
                    _ => None,
                },
                (true, true) => None,
            },
            BinOp::FloorDiv | BinOp::Mod | BinOp::Min | BinOp::Max => {
                if e.uses_var(var) {
                    None
                } else {
                    Some(0)
                }
            }
        },
    }
}

fn cond_uses_var(c: &Cond, var: u32) -> bool {
    match c {
        Cond::Ge(a, b) | Cond::Lt(a, b) | Cond::Eq(a, b) => a.uses_var(var) || b.uses_var(var),
        Cond::And(l, r) => cond_uses_var(l, var) || cond_uses_var(r, var),
    }
}

/// Vector-chunk eligibility for a single-statement `@vec` loop body: all
/// offsets affine in the loop variable, no predicate or `Select`
/// condition depending on it. Lanes then differ only by fixed offset
/// strides, so the executor can run the integer prologue once per chunk.
/// A body `out += a · b` over two loads also gets the typed
/// multiply-accumulate lane loop.
fn vec_body(var: u32, s: &CStmt, sym: &StmtSym) -> Option<VecBody> {
    if sym.conds.iter().any(|c| cond_uses_var(c, var)) {
        return None;
    }
    let store_stride = affine_stride(&sym.store_off, var)?;
    let mut load_strides = vec![0i64; sym.fops_len];
    for (idx, e) in &sym.loads {
        load_strides[*idx] = affine_stride(e, var)?;
    }
    let mac = match s.fops[..] {
        [FOp::Load { buf: a, off: oa }, FOp::Load { buf: b, off: ob }, FOp::Bin(ScalarBinOp::Mul)]
            if s.mode == StoreMode::AddAcc =>
        {
            Some(Mac {
                a: Strided {
                    buf: a,
                    off: oa,
                    stride: load_strides[0],
                },
                b: Strided {
                    buf: b,
                    off: ob,
                    stride: load_strides[1],
                },
            })
        }
        _ => None,
    };
    Some(VecBody {
        store_stride,
        load_strides,
        mac,
    })
}

/// Compiles a lowered program into a [`NativeKernel`] for the given
/// machine profile (which only contributes the SIMD chunk width; the
/// kernel's *semantics* are profile-independent by construction).
pub fn compile(program: &Program, profile: &MachineProfile) -> NativeKernel {
    let mut c = Compiler {
        strides: program.buffers.iter().map(|b| b.shape.strides()).collect(),
        lanes: profile.vector_lanes.max(1),
        next_reg: 0,
        const_regs: HashMap::new(),
        var_regs: HashMap::new(),
        var_scope: HashMap::new(),
        memo: HashMap::new(),
        scopes: vec![Scope::new()],
        ranges: LoopRanges::new(),
    };
    let mut groups = Vec::with_capacity(program.groups.len());
    for g in &program.groups {
        c.scopes[0].ops = Vec::new();
        let (nodes, _) = c.compile_nodes(&g.nodes);
        let prologue = std::mem::take(&mut c.scopes[0].ops);
        groups.push(CGroup {
            label: g.label.clone(),
            prologue,
            nodes,
        });
    }
    let mut consts: Vec<(u32, i64)> = c.const_regs.iter().map(|(&v, &r)| (r, v)).collect();
    consts.sort_unstable();
    NativeKernel {
        groups,
        n_regs: c.next_reg as usize,
        consts,
    }
}
