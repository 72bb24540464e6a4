//! Loop schedules (paper §4.3).
//!
//! A schedule describes, per operator, how the loop nest lowered from its
//! (physical-layout-determined) output dimensions is tiled, ordered,
//! annotated and fused. The structure follows the multi-level tiling
//! sketch used by TVM/Ansor-style tuners: spatial axes are tiled into up
//! to three levels and reduction axes into up to two, interleaved as
//! `S0 R0 S1 R1 S2` with the innermost level vectorizable and the
//! outermost spatial level parallelizable. Operator fusion
//! (`compute_at`-style) attaches elementwise consumers to the tile loops
//! of their producer.

use std::collections::HashMap;

use alt_error::{codes, AltError};
use alt_tensor::OpId;

/// Tiling of one axis: inner factors, outermost-of-the-inner first.
///
/// An axis of extent `E` with `factors = [a, b]` produces the loop levels
/// `E/(a*b), a, b`. Factors must divide the extent (tuners only propose
/// divisors).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AxisTiling {
    /// Inner tile sizes (may be empty for an untiled axis).
    pub factors: Vec<i64>,
}

impl AxisTiling {
    /// No tiling.
    pub fn none() -> Self {
        Self::default()
    }

    /// One-level tiling with inner size `t`.
    pub fn one(t: i64) -> Self {
        Self { factors: vec![t] }
    }

    /// Two-level tiling.
    pub fn two(t1: i64, t2: i64) -> Self {
        Self {
            factors: vec![t1, t2],
        }
    }

    /// Loop-level extents for an axis of extent `e` (outer first), or
    /// `V008_SPLIT_NONDIVISIBLE` when the factors do not divide `e`.
    pub fn levels(&self, e: i64) -> Result<Vec<i64>, AltError> {
        let prod: i64 = self.factors.iter().product();
        if prod <= 0 || e % prod != 0 {
            return Err(AltError::Verify {
                code: codes::V008_SPLIT_NONDIVISIBLE,
                detail: format!("tiling {:?} does not divide extent {e}", self.factors),
            });
        }
        let mut out = vec![e / prod];
        out.extend(self.factors.iter().copied());
        Ok(out)
    }
}

/// Schedule of a single operator.
#[derive(Clone, Debug, Default)]
pub struct OpSchedule {
    /// Tiling per physical output dimension (missing entries = untiled).
    pub spatial: Vec<AxisTiling>,
    /// Tiling per reduction axis.
    pub reduce: Vec<AxisTiling>,
    /// Vectorize the innermost loop (subject to the simulator's stride-1
    /// check — a vectorize annotation on a strided loop costs scalar).
    pub vectorize: bool,
    /// Unroll the innermost reduction level.
    pub unroll: bool,
    /// Parallelize the outermost spatial tile loops.
    pub parallel: bool,
    /// Fuse this (elementwise) operator into its producer's tile loops.
    pub fuse_into_producer: bool,
}

impl OpSchedule {
    /// A default schedule: untiled, serial, unfused.
    pub fn naive() -> Self {
        Self::default()
    }

    /// Checks the tilings against concrete extents (see
    /// [`OpSchedule::check`] for the diagnostic-carrying form).
    pub fn validate(&self, spatial_extents: &[i64], reduce_extents: &[i64]) -> bool {
        self.check(spatial_extents, reduce_extents).is_ok()
    }

    /// Fallible [`OpSchedule::validate`]: explains *which* axis reference
    /// or tiling is illegal instead of collapsing to `false`.
    ///
    /// A schedule that tiles more axes than the operator has is a
    /// reference to a nonexistent (or already-consumed, after a layout
    /// change collapsed dimensions) axis — `V016_UNKNOWN_AXIS`; a tiling
    /// whose factors do not divide the extent is
    /// `V008_SPLIT_NONDIVISIBLE`.
    pub fn check(&self, spatial_extents: &[i64], reduce_extents: &[i64]) -> Result<(), AltError> {
        for (what, tilings, extents) in [
            ("spatial", &self.spatial, spatial_extents),
            ("reduce", &self.reduce, reduce_extents),
        ] {
            if tilings.len() > extents.len() {
                return Err(AltError::Verify {
                    code: codes::V016_UNKNOWN_AXIS,
                    detail: format!(
                        "schedule tiles {} {what} axes but the operator has {}",
                        tilings.len(),
                        extents.len()
                    ),
                });
            }
            for (k, (t, &e)) in tilings.iter().zip(extents).enumerate() {
                if let Err(AltError::Verify { code, detail }) = t.levels(e) {
                    return Err(AltError::Verify {
                        code,
                        detail: format!("{what} axis {k}: {detail}"),
                    });
                }
            }
        }
        Ok(())
    }

    /// Tiling for spatial axis `k` (untiled when unspecified).
    pub fn spatial_tiling(&self, k: usize) -> AxisTiling {
        self.spatial.get(k).cloned().unwrap_or_default()
    }

    /// Tiling for reduce axis `k` (untiled when unspecified).
    pub fn reduce_tiling(&self, k: usize) -> AxisTiling {
        self.reduce.get(k).cloned().unwrap_or_default()
    }
}

/// Schedules for all operators of a graph.
#[derive(Clone, Debug, Default)]
pub struct GraphSchedule {
    per_op: HashMap<OpId, OpSchedule>,
}

impl GraphSchedule {
    /// All-naive schedules.
    pub fn naive() -> Self {
        Self::default()
    }

    /// Sets the schedule of one operator.
    pub fn set(&mut self, op: OpId, sched: OpSchedule) {
        self.per_op.insert(op, sched);
    }

    /// The schedule of `op` (naive default).
    pub fn get(&self, op: OpId) -> OpSchedule {
        self.per_op.get(&op).cloned().unwrap_or_default()
    }

    /// Whether any operator has a non-default schedule.
    pub fn is_empty(&self) -> bool {
        self.per_op.is_empty()
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;

    #[test]
    fn tiling_levels() {
        assert_eq!(AxisTiling::none().levels(12).unwrap(), vec![12]);
        assert_eq!(AxisTiling::one(4).levels(12).unwrap(), vec![3, 4]);
        assert_eq!(AxisTiling::two(2, 3).levels(12).unwrap(), vec![2, 2, 3]);
    }

    #[test]
    fn divides_check() {
        assert!(AxisTiling::one(4).levels(12).is_ok());
        assert!(AxisTiling::one(5).levels(12).is_err());
    }

    #[test]
    fn schedule_validation() {
        let s = OpSchedule {
            spatial: vec![AxisTiling::one(4), AxisTiling::none()],
            reduce: vec![AxisTiling::one(2)],
            ..OpSchedule::default()
        };
        assert!(s.validate(&[8, 5], &[6]));
        assert!(!s.validate(&[9, 5], &[6]));
    }

    #[test]
    fn try_levels_reports_nondivisible_split() {
        assert_eq!(AxisTiling::one(4).levels(12).unwrap(), vec![3, 4]);
        let err = AxisTiling::one(5).levels(12).unwrap_err();
        assert_eq!(err.verify_code(), Some(codes::V008_SPLIT_NONDIVISIBLE));
        let err = AxisTiling { factors: vec![0] }.levels(12).unwrap_err();
        assert_eq!(err.verify_code(), Some(codes::V008_SPLIT_NONDIVISIBLE));
    }

    #[test]
    fn check_reports_nonexistent_axis() {
        // Tiling three spatial axes of a two-axis operator references an
        // axis that does not exist (e.g. consumed by a layout fuse).
        let s = OpSchedule {
            spatial: vec![AxisTiling::one(2); 3],
            ..OpSchedule::default()
        };
        let err = s.check(&[8, 6], &[]).unwrap_err();
        assert_eq!(err.verify_code(), Some(codes::V016_UNKNOWN_AXIS));
        assert!(err.to_string().contains("3 spatial axes"), "{err}");
    }

    #[test]
    fn check_reports_nondivisible_axis_with_position() {
        let s = OpSchedule {
            reduce: vec![AxisTiling::none(), AxisTiling::one(5)],
            ..OpSchedule::default()
        };
        let err = s.check(&[], &[4, 12]).unwrap_err();
        assert_eq!(err.verify_code(), Some(codes::V008_SPLIT_NONDIVISIBLE));
        assert!(err.to_string().contains("reduce axis 1"), "{err}");
    }
}
