//! Tensor-expression IR and computational graphs for the ALT reproduction.
//!
//! This crate is the bottom of the stack: symbolic index expressions
//! ([`expr`]), their simplification against loop ranges and the one
//! compiler of index math over a loop nest ([`range`]), which layout
//! conversions and native kernels share, shapes and buffers ([`shape`],
//! [`buffer`]), operator
//! definitions in tensor-expression form ([`op`], [`ops`]), computational
//! graphs ([`graph`]), and a naive reference executor ([`exec`]) that all
//! layout/loop transformations are validated against.

pub mod buffer;
pub mod exec;
pub mod expr;
pub mod graph;
pub mod op;
pub mod ops;
pub mod range;
pub mod shape;
pub mod viz;

pub use buffer::NdBuf;
pub use expr::{Env, Expr, Var, VarGen};
pub use graph::{ComplexKind, Graph, Node, OpId, OpTag, TensorId, TensorInfo, TensorKind};
pub use op::{Axis, Compute, Cond, ReduceKind, ScalarExpr, UnaryOp};
pub use shape::Shape;
