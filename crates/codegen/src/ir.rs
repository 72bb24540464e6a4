//! The compiled kernel representation.
//!
//! A [`NativeKernel`] mirrors the lowered loop tree of a
//! [`Program`](alt_loopir::Program), but with every symbolic index
//! expression replaced by a register id and every scalar body flattened
//! into a stack program. Two instruction sets exist:
//!
//! * **Integer ops** ([`SlotOp`]s of the shared loop-nest index compiler,
//!   [`alt_tensor::range::SlotCompiler`]) compute loop-index arithmetic
//!   into a flat `i64` register (slot) file. Each op is placed in the
//!   *prologue* of the loop whose variable is its deepest dependency, so
//!   it re-executes exactly when one of its inputs changes (classic
//!   loop-invariant hoisting). Comparisons produce `0`/`1` registers
//!   consumed by predicated stores and `Select` branches.
//! * **Float ops** ([`FOp`]) evaluate one statement body as a small stack
//!   machine in the interpreter's recursive-descent order. `Select`
//!   becomes a conditional jump so only the taken arm touches memory.
//!
//! A multiply-accumulate nest whose offsets are affine in its loops is
//! one [`Walk`] node in place of those loops and their statement: its
//! levels' extents and offset strides, the covered loops' prologues, and
//! each buffer's displacement box for the bounds check.

use alt_loopir::StoreMode;
use alt_tensor::op::{ScalarBinOp, UnaryOp};
use alt_tensor::range::SlotOp;

/// One stack-machine instruction of a statement body.
#[derive(Clone, Copy, Debug)]
pub enum FOp {
    /// Push a literal.
    Imm(f32),
    /// Push `bufs[buf][regs[off]]` (flat physical offset).
    Load { buf: u32, off: u32 },
    /// Pop `b`, pop `a`, push `a <op> b`.
    Bin(ScalarBinOp),
    /// Pop `a`, push `op(a)`.
    Un(UnaryOp),
    /// Jump to `to` when `regs[cond] == 0` (the `Select` else-arm).
    JumpIfZero { cond: u32, to: u32 },
    /// Unconditional jump (skips the else-arm after the then-arm).
    Jump { to: u32 },
}

/// A compiled store statement.
#[derive(Clone, Debug)]
pub struct CStmt {
    /// Destination buffer index.
    pub buf: u32,
    /// Register holding the flat physical store offset.
    pub off: u32,
    /// Register holding the validity predicate (`0` = invalid slot):
    /// false + `Assign` writes `0.0`, false + accumulation is skipped —
    /// the interpreter's pad/overhang semantics.
    pub pred: Option<u32>,
    /// Assignment vs. accumulation.
    pub mode: StoreMode,
    /// The body as a stack program; its evaluation order is the
    /// interpreter's recursive descent.
    pub fops: Vec<FOp>,
}

/// Per-lane offset adjustments for an order-preserving vector chunk.
///
/// When the innermost `@vec` loop has a single-statement body whose
/// physical offsets are affine in the loop variable and whose predicates
/// do not depend on it, the executor runs the integer prologue once per
/// SIMD-width chunk (at lane 0) and derives the remaining lanes by
/// stepping each offset register by its stride. Lanes are still evaluated
/// in lane order, so accumulation order — and hence every bit of a
/// floating-point reduction — matches the scalar interpreter.
#[derive(Clone, Debug)]
pub struct VecBody {
    /// Stride of the store offset in the vectorized variable.
    pub store_stride: i64,
    /// Stride per [`FOp`] position (non-`Load` positions hold 0).
    pub load_strides: Vec<i64>,
}

/// A multiply-accumulate nest `out += a · b`, run as one strided walk
/// instead of loops around the stack program.
///
/// A walk starts at a `@vec` loop and covers every enclosing loop that is
/// not `@par`, holds the nest as its only body node, enters the three
/// offsets affinely and enters no condition of the statement. The
/// executor runs the covered loops' prologues once per entry, with their
/// variables at 0, for the base offsets, then steps the offsets by the
/// levels' strides in the loop tree's order. Each point does the stack
/// program's loads, multiply, load of the old value, add and store in its
/// order, so the result is bit-identical.
///
/// The covered loops' variable slots are never written: they keep the 0
/// of the initial slot file, which is where the prologues run.
#[derive(Clone, Debug)]
pub struct Walk {
    /// The covered loops' prologues, outermost first.
    pub prologue: Vec<SlotOp>,
    /// The covered loops, outermost first; the last is the `@vec` loop.
    pub levels: Vec<WalkLevel>,
    /// The store, then the multiply's left and right loads.
    pub access: [WalkAccess; 3],
    /// The store predicate; it depends on no covered variable, so a false
    /// one skips the whole walk.
    pub pred: Option<u32>,
    /// Whether the innermost level runs as independent slice adds: the
    /// store steps by 1, the loads by 0 or 1, and the output buffer is
    /// neither input, so no lane reads what another lane writes.
    pub slices: bool,
}

/// One covered loop of a [`Walk`].
#[derive(Clone, Copy, Debug)]
pub struct WalkLevel {
    /// Trip count.
    pub extent: i64,
    /// Offset step per iteration of the store and the two loads.
    pub strides: [i64; 3],
}

/// One buffer access of a [`Walk`].
#[derive(Clone, Copy, Debug)]
pub struct WalkAccess {
    /// Buffer index.
    pub buf: u32,
    /// Register holding the offset with every covered variable at 0.
    pub off: u32,
    /// Smallest displacement from that offset over the walk: every
    /// offset the walk touches lies in `off + lo ..= off + hi`.
    pub lo: i64,
    /// Largest displacement from that offset over the walk.
    pub hi: i64,
}

/// A compiled loop nest node.
#[derive(Clone, Debug)]
pub enum CNode {
    Loop(CLoop),
    Stmt(CStmt),
    Walk(Walk),
}

/// A compiled loop.
#[derive(Clone, Debug)]
pub struct CLoop {
    /// Register holding the loop variable's current value.
    pub var_reg: u32,
    /// Trip count.
    pub extent: i64,
    /// Whether lowering marked this loop `@par` (spatial partitioning).
    pub parallel: bool,
    /// SIMD width used for chunking when `vec` is present.
    pub lanes: u32,
    /// Integer ops to run at the top of every iteration: exactly the ops
    /// whose deepest variable dependency is this loop's variable.
    pub prologue: Vec<SlotOp>,
    /// Loop body in source order.
    pub body: Vec<CNode>,
    /// Vector fast path; `Some` only when `body` is a single statement
    /// that passed the affine/predicate-independence analysis (a
    /// multiply-accumulate that passes it becomes a [`Walk`] instead).
    pub vec: Option<VecBody>,
}

/// One lowered group (a fused operator) in compiled form.
#[derive(Clone, Debug)]
pub struct CGroup {
    /// Human-readable label, copied from the lowered group.
    pub label: String,
    /// Integer ops with no loop-variable dependency; run once per group.
    pub prologue: Vec<SlotOp>,
    /// The compiled loop tree.
    pub nodes: Vec<CNode>,
}

/// A compiled program: the native counterpart of
/// [`Program`](alt_loopir::Program), executable by
/// [`NativeKernel::execute`](crate::exec).
#[derive(Clone, Debug)]
pub struct NativeKernel {
    /// Compiled groups in execution order.
    pub groups: Vec<CGroup>,
    /// The initial register file: constants hold their values, loop
    /// variables and op results zero.
    pub slots: Vec<i64>,
}

/// Static shape of a compiled kernel, for logs and smoke tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// Number of compiled groups.
    pub groups: usize,
    /// Total integer ops across all prologues.
    pub iops: usize,
    /// Total float ops across all statement bodies.
    pub fops: usize,
    /// Loops taking the order-preserving vector fast path; a walk counts
    /// as one, its innermost level.
    pub vec_loops: usize,
    /// Multiply-accumulate nests that run as strided walks.
    pub typed_loops: usize,
    /// Loops the walks cover, summed over the walks.
    pub walk_levels: usize,
    /// Loops marked parallel.
    pub par_loops: usize,
}

impl NativeKernel {
    /// Counts the kernel's instructions and specialized loops.
    pub fn stats(&self) -> KernelStats {
        fn walk(nodes: &[CNode], s: &mut KernelStats) {
            for n in nodes {
                match n {
                    CNode::Stmt(st) => s.fops += st.fops.len(),
                    CNode::Walk(w) => {
                        // The prologue and the three float ops (two loads
                        // and a multiply) of the statement it runs.
                        s.iops += w.prologue.len();
                        s.fops += 3;
                        s.vec_loops += 1;
                        s.typed_loops += 1;
                        s.walk_levels += w.levels.len();
                    }
                    CNode::Loop(l) => {
                        s.iops += l.prologue.len();
                        s.vec_loops += usize::from(l.vec.is_some());
                        if l.parallel {
                            s.par_loops += 1;
                        }
                        walk(&l.body, s);
                    }
                }
            }
        }
        let mut s = KernelStats {
            groups: self.groups.len(),
            ..KernelStats::default()
        };
        for g in &self.groups {
            s.iops += g.prologue.len();
            walk(&g.nodes, &mut s);
        }
        s
    }
}
