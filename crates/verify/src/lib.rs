//! Static verification for ALT programs (IR well-formedness,
//! transformation legality, race detection).
//!
//! ALT's central claim is that joint layout+loop transformation is
//! semantics-preserving. The interpreter establishes that *dynamically*
//! on sampled inputs; this crate establishes the static side: a
//! three-pass analysis over layout plans and lowered programs that
//! rejects illegal candidates in microseconds, before any simulation
//! spends budget on them.
//!
//! * [`verify_plan`] — transformation legality ([`legality`]): replays
//!   every layout's primitive chain (split divisibility, fuse ranges,
//!   unfold factors, non-negative pads), and checks propagation
//!   consistency across graph edges (shape agreement, dangling
//!   conversions, well-formed `store_at` embeddings).
//! * [`verify_program`] — adds IR well-formedness ([`wellformed`]: loop
//!   vars bound exactly once, positive extents, no axis used outside its
//!   nest, every access within the padded physical extents via affine
//!   bound inference, `store_at` staging slots never clobbered) and
//!   dependence-based race detection ([`race`]: `@par`/`@vec` axes must
//!   not carry loop-carried dependences; parallelized reductions are
//!   flagged).
//! * [`PlanCheck`] — the same verification split for tuners that check
//!   many programs under one plan: the plan-level work (legality and
//!   the per-tensor pad and `store_at` facts) runs once, and
//!   [`PlanCheck::verify`] walks only each program's groups.
//!
//! Every finding is a [`Diagnostic`] with a stable code from
//! [`alt_error::codes`]; [`Diagnostic::to_error`] converts one into a
//! typed [`AltError::Verify`] for callers that want `Result` seams. The
//! verifier is deliberately conservative in *both* directions it can
//! afford: bounds it cannot prove are accepted (the accept ⇒ bit-exact
//! property is enforced against the reference interpreter by tests), and
//! rejection paths are pinned down by seeded-illegal mutation tests.

pub mod interval;
pub mod legality;
pub mod race;
pub mod sets;
pub mod wellformed;

use alt_error::AltError;
use alt_layout::LayoutPlan;
use alt_loopir::Program;
use alt_tensor::Graph;

pub use legality::code_for;
pub use sets::VerifyStats;

/// One static-verification finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable diagnostic code from [`alt_error::codes`].
    pub code: &'static str,
    /// Where the finding is anchored (lowered-group label or plan
    /// entity).
    pub group: String,
    /// Human-readable description.
    pub detail: String,
    /// Concrete counterexample from the set engine: a loop-index
    /// assignment demonstrating the violation (`altc verify --explain`
    /// prints it). `None` when the finding comes from the interval pass
    /// alone or witness sampling ran out of budget.
    pub witness: Option<String>,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}: {}", self.code, self.group, self.detail)
    }
}

impl Diagnostic {
    /// A finding without a witness.
    pub fn new(code: &'static str, group: impl Into<String>, detail: impl Into<String>) -> Self {
        Diagnostic {
            code,
            group: group.into(),
            detail: detail.into(),
            witness: None,
        }
    }

    /// Attaches a counterexample witness.
    #[must_use]
    pub fn with_witness(mut self, witness: Option<String>) -> Self {
        self.witness = witness;
        self
    }

    /// Converts the finding into a typed error.
    pub fn to_error(&self) -> AltError {
        AltError::Verify {
            code: self.code,
            detail: format!("{}: {}", self.group, self.detail),
        }
    }
}

/// Deterministic order regardless of pass-internal map iteration.
fn sorted(mut diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags.sort_by(|a, b| (a.code, &a.group, &a.detail).cmp(&(b.code, &b.group, &b.detail)));
    diags
}

/// Verifies a layout plan (transformation legality + propagation
/// consistency). Returns all findings, deterministically ordered.
pub fn verify_plan(graph: &Graph, plan: &LayoutPlan) -> Vec<Diagnostic> {
    sorted(legality::check_plan(graph, plan))
}

/// Verifies a lowered program together with the plan it was lowered
/// under: plan legality, IR well-formedness and race freedom. Returns
/// all findings, deterministically ordered.
pub fn verify_program(graph: &Graph, plan: &LayoutPlan, program: &Program) -> Vec<Diagnostic> {
    verify_program_with_stats(graph, plan, program).0
}

/// [`verify_program`] plus the set-engine counters of the run (queries
/// issued, microseconds spent, interval rejections recovered).
pub fn verify_program_with_stats(
    graph: &Graph,
    plan: &LayoutPlan,
    program: &Program,
) -> (Vec<Diagnostic>, VerifyStats) {
    PlanCheck::new(graph, plan).verify(program)
}

/// The plan-level half of [`verify_program_with_stats`], computed once
/// per (graph, plan) and shared by every program lowered under that
/// plan: the legality findings and the per-tensor pad and `store_at`
/// facts the well-formedness pass classifies buffers by.
pub struct PlanCheck {
    diags: Vec<Diagnostic>,
    facts: wellformed::PlanFacts,
}

impl PlanCheck {
    /// Runs the plan-level passes over `plan`.
    pub fn new(graph: &Graph, plan: &LayoutPlan) -> Self {
        PlanCheck {
            diags: legality::check_plan(graph, plan),
            facts: wellformed::PlanFacts::new(graph, plan),
        }
    }

    /// Verifies a program lowered under this plan: well-formedness and
    /// race freedom over its groups, together with the plan's own
    /// findings, which an illegal plan repeats for every program.
    /// Returns exactly what [`verify_program_with_stats`] returns.
    pub fn verify(&self, program: &Program) -> (Vec<Diagnostic>, VerifyStats) {
        let mut stats = VerifyStats::default();
        let mut diags = self.diags.clone();
        diags.extend(wellformed::check_program(&self.facts, program, &mut stats));
        diags.extend(race::check_program_with_stats(program, &mut stats));
        (sorted(diags), stats)
    }
}

/// [`verify_program`] as a `Result`: `Err` carries the first (smallest
/// code) finding as a typed [`AltError::Verify`].
pub fn verify_program_strict(
    graph: &Graph,
    plan: &LayoutPlan,
    program: &Program,
) -> Result<(), AltError> {
    match verify_program(graph, plan, program).first() {
        Some(d) => Err(d.to_error()),
        None => Ok(()),
    }
}
