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
//!    bounds by design).
//! 2. **Order-preserving vector chunking.** The innermost `@vec` loop is
//!    chunked by the machine profile's SIMD width, but lanes inside a
//!    chunk are evaluated and stored in lane order, so reductions
//!    accumulate in exactly the interpreter's sequence.
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
//!    so the vector fast path of property 2 and the walks of property 5
//!    reach the tuned winners' reduction nests.
//! 5. **A multiply-accumulate walk does the stack program's work in its
//!    order.** A `@vec` loop whose statement is `out += a · b` grows
//!    outward into a walk ([`ir::Walk`]) over every enclosing loop that is
//!    not `@par`, holds the nest alone, enters the three offsets affinely
//!    and enters no condition. The walk runs the covered loops' prologues
//!    once per entry for the base offsets, checks each buffer's
//!    displacement box once, and steps the offsets by the levels' strides
//!    in the loop tree's order: no loop is interchanged, so every slot
//!    sees the same adds in the same order. Each point loads `a`, loads
//!    `b`, multiplies, loads the old value, adds and stores, and Rust
//!    never contracts a multiply and an add into a fused multiply-add.
//!    The innermost level runs as slice adds when its lanes write
//!    distinct slots that no lane reads (store stride 1, load strides 0 or
//!    1, the output buffer neither input), which rustc vectorizes;
//!    otherwise it is a strided lane loop. The stack program stays the
//!    fallback for every other statement shape.

pub mod compile;
pub mod exec;
pub mod ir;

pub use compile::compile;
pub use exec::{default_threads, NativeRunStats};
pub use ir::{KernelStats, NativeKernel};
