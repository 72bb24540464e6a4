//! Native kernel executor for lowered TIR programs.
//!
//! The tree-walking interpreter in `alt-loopir` is the semantic reference
//! for lowered programs, but it re-evaluates every symbolic index
//! expression through a per-element hash-map environment, which makes it
//! orders of magnitude slower than a real backend. This crate closes that
//! gap without an external code generator: it *compiles* a scheduled,
//! layout-specialized [`Program`](alt_loopir::Program) into a compact
//! register-based kernel and executes it directly over raw `f32` buffers.
//!
//! The contract is strict: for every program, the native executor produces
//! output **bit-identical** to the interpreter. This is what allows the
//! interpreter to be demoted to a test oracle while measurements and
//! deployment run natively. The guarantee rests on three properties:
//!
//! 1. **Same arithmetic, same order.** Scalar bodies are flattened into a
//!    postorder stack program whose evaluation order equals the
//!    interpreter's recursive descent; `Select` compiles to branches so
//!    only the taken arm is evaluated (untaken arms may index out of
//!    bounds by design). The program runs on lane vectors, once per row
//!    of a walk (property 5), and every lane does its exact operations;
//!    a point is a row of one lane.
//! 2. **Every slot sees its operations in the interpreter's order.** A
//!    nest of statements runs as a walk ([`ir::Walk`]) that steps the
//!    statements' offsets instead of rerunning its loops' index ops. A walk
//!    visits its points in the loop tree's order, each running the
//!    statements in body order, except a row walk (property 5) and a
//!    multiply-accumulate walk that passes the tiling rule ([`ir::Tile`]),
//!    which moves its reduction levels (store step 0) innermost in their
//!    relative order. A slot's adds are the reduction points at its one
//!    spatial point, so that order keeps each slot's sequence of
//!    `old + a · b` roundings when the output buffer is neither load's (no
//!    load sees another point's store) and the store is injective over the
//!    spatial levels (no two spatial points share a slot); reductions thus
//!    accumulate in exactly the interpreter's sequence. The machine profile
//!    plays no part: the same program compiles to the same kernel on every
//!    profile.
//! 3. **Disjoint parallel partitions.** `@par` loops run on scoped
//!    threads over contiguous iteration ranges. Lowering only marks
//!    spatial (output-partitioning) loops parallel, so threads write
//!    disjoint slots and each slot's accumulation order is unchanged.
//!
//! Index arithmetic is simplified, then hoisted. Every flattened offset
//! and condition is first simplified against the ranges of its enclosing
//! loops ([`alt_tensor::range`], the same interval rules the layout
//! walks use): decided `floordiv`, `mod`, `min`, `max` and comparisons
//! fold, split quotients and remainders reduce (`(k·x + y) / (k·m)` to
//! `x / m` when `0 ≤ y < k`), and terms are summed outermost loop first.
//! Each integer expression is then compiled by the loop-nest index
//! compiler the layout conversions share
//! ([`alt_tensor::range::SlotCompiler`]) into hash-consed three-address
//! ops, each placed at the loop level of its deepest variable dependency,
//! so an expression like `(i / 8) * 64` is recomputed only when `i`
//! changes — not per element.
//!
//! Two more properties keep the contract with these speed-ups:
//!
//! 4. **Range folding is exact on the loops' ranges.** Every offset and
//!    condition takes the same value at every point the loops visit, so
//!    each load and store touches the same slot, and a `Select` whose
//!    condition the ranges decide compiles to the arm the interpreter
//!    takes there. What folding changes is which offsets are affine in a
//!    loop variable: a tiled layout's `(o·2 + i) / 16` becomes a stride,
//!    so the walks of property 5 reach the tuned winners' nests.
//! 5. **A walk does the stack programs' work at every point.** A loop
//!    that is not `@par` and holds one or more statements and nothing
//!    else starts a walk when every offset of its statements is affine in
//!    its variable and no condition of theirs reads it; every enclosing
//!    loop that is not `@par`, holds the walk alone and passes the same
//!    test joins it. The walk runs the covered loops' prologues once per
//!    entry for the base offsets and steps the offsets by the levels'
//!    strides. A predicate false for a whole walk zeros every point of an
//!    `Assign` statement and skips an accumulating one, as the
//!    interpreter's pad semantics do. A multiply-accumulate `out += a · b`
//!    stays a walk of that one statement and checks each
//!    buffer's displacement box once per entry and runs over three `f32`
//!    pointers: each point loads `a`, loads `b`, multiplies and adds the
//!    product to the old value, and Rust never contracts a multiply and an
//!    add into a fused multiply-add. A tiled one (property 2) runs blocks
//!    of up to 4 rows by 8 columns of outputs in registers: each block
//!    loads its outputs once, adds `a · b` at every reduction point and
//!    stores once, and a stored `f32` reloads unchanged, so each slot's
//!    value is the one the stack program leaves. An untiled one visits the
//!    loop tree's order, and its innermost level runs as slice adds when
//!    its lanes write distinct slots that no lane reads (store stride 1,
//!    load strides 0 or 1, the output buffer neither input), which rustc
//!    vectorizes; otherwise it is a strided lane loop. Any other walk steps
//!    its offset registers in place, and where it passes the row rule runs
//!    its innermost level as rows: each statement in turn runs its stack
//!    program once over the row's lanes, loading every lane before it
//!    stores any. The rule keeps every load's value: a buffer a statement
//!    stores is loaded, by it or a later statement, only through that
//!    store's own offset slot, which the row steps by a nonzero amount, so
//!    lane `i` reads the slot only lane `i` stores, before the store as the
//!    point would for an own load and after it for a later statement's;
//!    and no statement loads or stores a buffer that a later one stores.
//!    An unread store the row holds still takes its lanes in lane order,
//!    so an accumulation keeps the interpreter's sequence. Otherwise each
//!    point runs each statement as a row of one lane. Reads and writes are
//!    debug-checked at each row's first and last lane: a load in an
//!    untaken `Select` arm may lie out of range, so no box is checked for
//!    it.

pub mod compile;
pub mod exec;
pub mod ir;

pub use compile::compile;
pub use exec::{default_threads, NativeRunStats};
pub use ir::{KernelStats, NativeKernel};
