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
//! A nest of statements whose offsets are affine in its loops is one
//! [`Walk`] node in place of those loops: its levels' extents and offset
//! steps, the covered loops' prologues, the statements, whether its
//! innermost level runs as rows, and for a multiply-accumulate each
//! buffer's displacement box for the bounds check and, where its levels
//! allow, a register [`Tile`].

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

/// The statements of a loop nest run as one strided walk instead of the
/// loops around them.
///
/// A walk starts at any loop that is not `@par` and holds one or more
/// statements and nothing else, and covers every enclosing loop that is
/// not `@par`, holds the nest as its only body node, enters every offset
/// of the statements affinely and enters none of their conditions. The
/// executor runs the covered loops' prologues once per entry, with their
/// variables at 0, for the base offsets, then steps the offsets by the
/// levels' strides, so every point runs the statements, in body order, as
/// the loops would have. The points run in the loop tree's order, with
/// two exceptions that keep every slot's sequence of operations. A
/// multiply-accumulate walk with a [`Tile`] moves its reduction levels
/// innermost, keeping their relative order, as the tiling rule allows. A
/// walk with `rows` runs its innermost level as one row per entry: each
/// statement in turn runs its stack program once over the row's lanes,
/// loading every lane before it stores any, as the row rule allows.
///
/// **The row rule.** A buffer that a statement stores is loaded, by that
/// statement or a later one, only through that store's own offset slot,
/// and the row steps that slot by a nonzero amount; and no statement
/// loads or stores a buffer that a later statement stores. So each
/// stored buffer has one writer in the walk, and lane `i` of any load of
/// it reads the one slot that lane `i` of its store writes: an own load
/// reads it before the store as the point would, a later statement's load
/// after it as the point would, and no other lane touches the slot. Every
/// load therefore reads the value the loop tree's order gives it, and
/// each lane does the stack program's exact operations on the same
/// operands. A store the row steps by 0 takes its lanes' values in lane
/// order, so an accumulation adds them in the loop tree's sequence.
///
/// The covered loops' variable slots keep the 0 of the initial slot file
/// at every entry, which is where the prologues run.
#[derive(Clone, Debug)]
pub struct Walk {
    /// The covered loops' prologues, outermost first.
    pub prologue: Vec<SlotOp>,
    /// The covered loops, outermost first.
    pub levels: Vec<WalkLevel>,
    /// The statements run at every point, in body order. Their predicates
    /// and `Select` conditions depend on no covered variable: a false
    /// predicate zeros every point of an `Assign` statement and skips an
    /// accumulating one.
    pub stmts: Vec<CStmt>,
    /// The statements' offsets: each statement's store, then its loads in
    /// stack-program order.
    pub access: Vec<WalkAccess>,
    /// `Some` when the walk is the one statement `out += a · b`: its points
    /// run over three `f32` pointers, and the flag says whether the
    /// innermost level runs as independent slice adds (the store steps by
    /// 1, the loads by 0 or 1, and the output buffer is neither input, so
    /// no lane reads what another lane writes).
    pub mac: Option<bool>,
    /// The register tile a multiply-accumulate walk runs in, when its
    /// levels pass the tiling rule (see [`Tile`]); `None` keeps the loop
    /// tree's order. Boxed: most walks have none.
    pub tile: Option<Box<Tile>>,
    /// Whether the innermost level runs as rows: the walk is not a
    /// multiply-accumulate and passes the row rule. Otherwise every point
    /// runs each statement as a row of one lane.
    pub rows: bool,
}

/// The register-tiled order of a multiply-accumulate walk.
///
/// The spatial levels (store step ≠ 0) run outside: `outer` as an
/// odometer, then `row` in blocks of 4 rows and `col` in blocks of 8, 4,
/// 2 and 1 columns. Each block of `MR` rows by `NR` columns loads its
/// outputs once into `[[f32; NR]; MR]`, runs the reduction levels (store
/// step 0) innermost in their loop-tree order, adding `a · b` to each
/// accumulator at each point, and stores the outputs once.
///
/// A slot's adds are the points of the reduction levels at its spatial
/// point, so this order gives every slot the same `old + a · b` roundings
/// in the same sequence as the loop tree's order when: the output buffer
/// is neither load's, so no load sees another point's store; the store is
/// injective over the spatial levels (sorted by |store step|, each step
/// exceeds the span `Σ (extent − 1)·|step|` of the smaller ones), so no
/// two spatial points share a slot; and the reduction levels keep their
/// relative order. A walk also needs a reduction level, or no output is
/// reused across points, and a column level with steps `[1, 0, 1]` (`b`
/// is the vector operand) or `[1, 1, 0]` (`a` is).
#[derive(Clone, Debug)]
pub struct Tile {
    /// The spatial levels other than the row and column, in the loop
    /// tree's order.
    pub outer: Vec<WalkLevel>,
    /// The row level: a spatial level that leaves the vector operand
    /// still. Without one a block has one row.
    pub row: Option<WalkLevel>,
    /// The column level: the store and the vector operand step by 1, the
    /// other operand by 0.
    pub col: WalkLevel,
    /// Whether `a` is the vector operand (column steps `[1, 1, 0]`); the
    /// product is `a · b` either way.
    pub a_vector: bool,
    /// The reduction levels, in the loop tree's order.
    pub reduce: Vec<WalkLevel>,
}

/// One covered loop of a [`Walk`].
#[derive(Clone, Debug)]
pub struct WalkLevel {
    /// Trip count.
    pub extent: i64,
    /// Outside a multiply-accumulate, the offset registers that move with
    /// the level, each once, and their steps per iteration; a register not
    /// listed stays still.
    pub steps: Vec<(u32, i64)>,
    /// A multiply-accumulate's steps of the store and the two loads per
    /// iteration, inline, where its executor reads them at every entry of
    /// the level (zeros for other statements).
    pub mac: [i64; 3],
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
    /// Integer ops to run at the top of every iteration: exactly the ops
    /// whose deepest variable dependency is this loop's variable.
    pub prologue: Vec<SlotOp>,
    /// Loop body in source order.
    pub body: Vec<CNode>,
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
    /// Strided walks.
    pub walks: usize,
    /// Walks of a multiply-accumulate `out += a · b`.
    pub typed_loops: usize,
    /// Multiply-accumulate walks that run register-tiled ([`Tile`]).
    pub tiled: usize,
    /// Loops the walks cover, summed over the walks.
    pub walk_levels: usize,
    /// Walks whose innermost level runs as rows.
    pub row_walks: usize,
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
                        s.iops += w.prologue.len();
                        s.fops += w.stmts.iter().map(|st| st.fops.len()).sum::<usize>();
                        s.walks += 1;
                        s.typed_loops += usize::from(w.mac.is_some());
                        s.tiled += usize::from(w.tile.is_some());
                        s.walk_levels += w.levels.len();
                        s.row_walks += usize::from(w.rows);
                    }
                    CNode::Loop(l) => {
                        s.iops += l.prologue.len();
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
