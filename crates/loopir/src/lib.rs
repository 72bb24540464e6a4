//! Loop-nest IR, schedules, lowering and interpretation (paper §4.3, §6).
//!
//! * [`schedule`] — per-operator loop schedules (multi-level tiling,
//!   vectorize/unroll/parallel annotations, fusion requests).
//! * [`tir`] — the concrete loop-tree IR ("TIR-lite") shared by the
//!   functional interpreter and the hardware performance model.
//! * [`lower`](crate::lower()) — the layout-aware lowering pass: loop nests are rebuilt
//!   from *physical* output dimensions and all tensor accesses are
//!   rewritten through `S_X(S_Y^{-1}(L'))`.
//! * [`interp`] — functional execution for correctness validation.

pub mod hash;
pub mod interp;
pub mod lower;
pub mod schedule;
pub mod tir;

pub use hash::program_fingerprint;
pub use interp::{pack_buffers, run_program, unpack_buffers};
pub use lower::{lower, try_lower, try_lower_filtered, LowerCtx};
pub use schedule::{AxisTiling, GraphSchedule, OpSchedule};
pub use tir::{
    BufId, BufKind, BufferDecl, LoopKind, LoweredGroup, Program, SExpr, Stmt, StoreMode, TirNode,
};
