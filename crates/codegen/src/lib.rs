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
//!    takes there. What folding changes is which offsets are affine in an
//!    `@vec` variable: a tiled layout's `(o·2 + i) / 16` becomes a
//!    stride, so the vector fast path of property 2 reaches the tuned
//!    winners' reduction loops.
//! 5. **The typed multiply-accumulate loop does the stack program's work
//!    in its order.** A fast-path loop whose statement is `out += a · b`
//!    runs over `f32` pointers and strides; each lane loads `a`, loads
//!    `b`, multiplies, loads the old value, adds and stores, in lane
//!    order, and Rust never contracts a multiply and an add into a fused
//!    multiply-add. The stack program stays the fallback for every other
//!    statement shape.

pub mod compile;
pub mod exec;
pub mod ir;

pub use compile::compile;
pub use exec::{default_threads, NativeRunStats};
pub use ir::{KernelStats, NativeKernel};
