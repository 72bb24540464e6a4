//! Data-layout transformation for the ALT reproduction (paper §4.1–4.2).
//!
//! * [`primitives`] — the layout primitives (`split`, `reorder`, `fuse`,
//!   `unfold`, `pad`, `store_at`) and the [`primitives::Layout`] type that
//!   rewrites physical shapes and access expressions.
//! * [`presets`] — constructors for the named layouts the paper evaluates
//!   (`NHWO`, `HWON`, `N O/ot H W ot`, the §5.1 tiling templates, ...).
//! * [`propagation`] — the layout-propagation mechanism (Algorithm 1) that
//!   eliminates conversion and fusion-conflict overheads.
//! * [`relation`] — exact integer-set semantics: every primitive (and the
//!   whole chain) as a quasi-affine logical→physical relation, the input
//!   to the set-based legality engine in `alt-verify`.

pub mod presets;
pub mod primitives;
pub mod propagation;
pub mod relation;
mod walk;

pub use primitives::{Layout, LayoutError, LayoutPrim, VarExtents};
pub use propagation::{AssignOutcome, Conversion, LayoutPlan, PropagationMode};
