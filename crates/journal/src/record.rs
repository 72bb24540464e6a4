//! The search-journal record schema.
//!
//! One JSONL line per record, each carrying a `type` tag (same wire
//! idiom as `alt_telemetry::Record`), so a journal file is readable
//! without out-of-band schema knowledge:
//!
//! ```text
//! {"type":"header","version":1,"seed":42,"profile_fp":...,...}
//! {"type":"candidate","op":"conv2d#0","stage":"joint","outcome":"measured",...}
//! {"type":"layout_commit","op":"conv2d#0","point":[1,0,3],...}
//! {"type":"summary","measurements":64,...}
//! ```
//!
//! The schema is deliberately append-only and fingerprint-keyed: the
//! `program_fp`/`cache_key` pair on measured candidates is the seed of
//! the content-addressed result store planned in ROADMAP item 1, and
//! `(point, predicted, latency_s)` triples are the warm-start training
//! data of item 5.

use serde::{Deserialize, Serialize};

/// Journal schema version written by this crate.
pub const JOURNAL_VERSION: u64 = 1;

/// Where a candidate came from.
///
/// Stored as a lowercase string on the wire (`"seed"`, `"ppo"`,
/// `"random"`, `"neighbor"`, `"incumbent"`, `"finalist"`).
pub mod provenance {
    /// Hand-picked layout seed point (spatial / channel-tiled / …).
    pub const SEED: &str = "seed";
    /// Proposed by the PPO layout actor.
    pub const PPO: &str = "ppo";
    /// Uniform random draw from the (loop or layout) space.
    pub const RANDOM: &str = "random";
    /// Mutation of the best known loop point.
    pub const NEIGHBOR: &str = "neighbor";
    /// The current committed schedule, measured to establish a baseline.
    pub const INCUMBENT: &str = "incumbent";
    /// Joint-stage finalist re-assessed before committing.
    pub const FINALIST: &str = "finalist";
}

/// Terminal outcome of a candidate. Every generated candidate gets
/// exactly one of these.
pub mod outcome {
    /// Simulated fresh and recorded; consumed one budget unit.
    pub const MEASURED: &str = "measured";
    /// Budgeted measurement served from the memoized simulation cache.
    pub const CACHE_HIT: &str = "cache_hit";
    /// All measurement attempts failed (injected fault / timeout / …).
    pub const FAILED: &str = "failed";
    /// Rejected by the static verifier before simulation (zero budget).
    pub const VERIFY_REJECTED: &str = "verify_rejected";
    /// Lowering failed before verification (zero budget).
    pub const LOWER_FAILED: &str = "lower_failed";
    /// Filtered by the op:point quarantine before lowering (zero budget).
    pub const QUARANTINED: &str = "quarantined";
    /// Generated but never lowered or measured (top-k cut, cap, or
    /// budget exhaustion; zero budget).
    pub const SKIPPED: &str = "skipped";
}

/// First record of every journal: identifies the run the journal
/// belongs to. Deliberately excludes `jobs` — parallel runs must be
/// journal-bit-identical to sequential ones.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct JournalHeader {
    /// Schema version ([`JOURNAL_VERSION`]).
    pub version: u64,
    /// Tuner RNG seed.
    pub seed: u64,
    /// FNV-1a fingerprint of the machine profile (PR 4).
    pub profile_fp: u64,
    /// Configured joint-stage budget.
    pub joint_budget: u64,
    /// Configured loop-stage budget.
    pub loop_budget: u64,
}

/// One candidate the tuner touched, with its terminal outcome.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct CandidateRecord {
    /// Operator tag, e.g. `conv2d#0`.
    pub op: String,
    /// Tuning stage: `"joint"` or `"loop"`.
    pub stage: String,
    /// Tuning round within the stage, 1-based.
    pub round: u64,
    /// Who proposed the candidate (see [`provenance`]).
    pub provenance: String,
    /// Loop-space point, empty for the incumbent schedule.
    pub point: Vec<u64>,
    /// Terminal outcome (see [`outcome`]).
    pub outcome: String,
    /// GBT-predicted score, when the trained model ranked it.
    pub predicted: Option<f64>,
    /// Simulated latency in seconds (measured / cache-hit outcomes).
    pub latency_s: Option<f64>,
    /// Verifier diagnostic code (`verify_rejected` outcomes).
    pub vcode: Option<String>,
    /// Failure class (`failed` outcomes), e.g. `injected_compile`.
    pub error: Option<String>,
    /// Budget units this candidate consumed (0 for zero-budget
    /// outcomes; >1 when retries were spent on it).
    pub attempts: u64,
    /// Total budget consumed by the run *after* this candidate's
    /// terminal event — the journal's monotone budget axis.
    pub budget_end: u64,
    /// FNV-1a fingerprint of the lowered program (when simulated).
    pub program_fp: Option<u64>,
    /// Memo-cache key: fingerprint of (machine profile, program).
    pub cache_key: Option<u64>,
}

/// One layout point assessed during the joint stage (each visit runs
/// `ROUNDS_PER_LAYOUT` loop rounds whose candidates appear as
/// [`CandidateRecord`]s with stage `"joint"`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LayoutVisitRecord {
    /// Operator whose layout space was probed.
    pub op: String,
    /// `"seed"`, `"ppo"`, `"random"`, or `"finalist"`.
    pub provenance: String,
    /// Layout-space point.
    pub point: Vec<u64>,
    /// Best latency the assessment found, when finite.
    pub latency_s: Option<f64>,
}

/// The joint stage committed a layout for a representative op.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LayoutCommitRecord {
    /// Representative operator the layout was committed for.
    pub op: String,
    /// Committed layout-space point.
    pub point: Vec<u64>,
    /// Best latency of the winning assessment, when finite.
    pub latency_s: Option<f64>,
}

/// Final record of a run that finished (halted runs end without one, so
/// `halted journal + resumed journal == uninterrupted journal`).
///
/// The store fields are optional *on the wire*, not just in the struct:
/// a store-less run serializes without them (bit-identical to journals
/// predating the durable store), and missing fields parse as `None` —
/// no version bump needed. Hence the hand-written impls below.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalSummary {
    /// Budget units actually consumed.
    pub measurements: u64,
    /// Final best end-to-end latency in seconds, when finite.
    pub best_latency_s: Option<f64>,
    /// Durable-store lookups served without simulating (absent for
    /// store-less runs and for journals predating the store).
    pub store_hits: Option<u64>,
    /// Durable-store lookups that simulated and published.
    pub store_misses: Option<u64>,
    /// `true` when the run replayed a stored winner instead of
    /// searching (a warm start consumes zero budget).
    pub warm_start: Option<bool>,
}

impl Serialize for JournalSummary {
    fn to_value(&self) -> serde::Value {
        let mut fields = vec![
            ("measurements".to_string(), self.measurements.to_value()),
            ("best_latency_s".to_string(), self.best_latency_s.to_value()),
        ];
        if let Some(h) = self.store_hits {
            fields.push(("store_hits".to_string(), h.to_value()));
        }
        if let Some(m) = self.store_misses {
            fields.push(("store_misses".to_string(), m.to_value()));
        }
        if let Some(w) = self.warm_start {
            fields.push(("warm_start".to_string(), serde::Value::Bool(w)));
        }
        serde::Value::Object(fields.into())
    }
}

impl Deserialize for JournalSummary {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        Ok(Self {
            measurements: v
                .get("measurements")
                .and_then(|x| x.as_u64())
                .ok_or_else(|| serde::Error::missing_field("measurements"))?,
            best_latency_s: v.get("best_latency_s").and_then(|x| x.as_f64()),
            store_hits: v.get("store_hits").and_then(|x| x.as_u64()),
            store_misses: v.get("store_misses").and_then(|x| x.as_u64()),
            warm_start: v.get("warm_start").and_then(|x| x.as_bool()),
        })
    }
}

/// Any journal record. Serialized as the payload plus a `type` tag.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalRecord {
    Header(JournalHeader),
    Candidate(CandidateRecord),
    LayoutVisit(LayoutVisitRecord),
    LayoutCommit(LayoutCommitRecord),
    Summary(JournalSummary),
}

impl JournalRecord {
    /// The `type` tag used on the wire.
    pub fn type_tag(&self) -> &'static str {
        match self {
            JournalRecord::Header(_) => "header",
            JournalRecord::Candidate(_) => "candidate",
            JournalRecord::LayoutVisit(_) => "layout_visit",
            JournalRecord::LayoutCommit(_) => "layout_commit",
            JournalRecord::Summary(_) => "summary",
        }
    }
}

impl Serialize for JournalRecord {
    fn to_value(&self) -> serde::Value {
        let inner = match self {
            JournalRecord::Header(r) => r.to_value(),
            JournalRecord::Candidate(r) => r.to_value(),
            JournalRecord::LayoutVisit(r) => r.to_value(),
            JournalRecord::LayoutCommit(r) => r.to_value(),
            JournalRecord::Summary(r) => r.to_value(),
        };
        let mut fields = vec![(
            "type".to_string(),
            serde::Value::Str(self.type_tag().to_string()),
        )];
        if let serde::Value::Object(obj) = inner {
            fields.extend(obj);
        }
        serde::Value::Object(fields.into())
    }
}

impl Deserialize for JournalRecord {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let tag = v
            .get("type")
            .and_then(|t| t.as_str())
            .ok_or_else(|| serde::Error("journal record has no `type` tag".to_string()))?;
        Ok(match tag {
            "header" => JournalRecord::Header(JournalHeader::from_value(v)?),
            "candidate" => JournalRecord::Candidate(CandidateRecord::from_value(v)?),
            "layout_visit" => JournalRecord::LayoutVisit(LayoutVisitRecord::from_value(v)?),
            "layout_commit" => JournalRecord::LayoutCommit(LayoutCommitRecord::from_value(v)?),
            "summary" => JournalRecord::Summary(JournalSummary::from_value(v)?),
            other => return Err(serde::Error(format!("unknown journal record `{other}`"))),
        })
    }
}

/// Maps a latency to its wire form: `None` when not finite (JSON has no
/// `inf`, and an unmeasured incumbent is "no signal", not a number).
pub fn finite(latency_s: f64) -> Option<f64> {
    latency_s.is_finite().then_some(latency_s)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_candidate() -> JournalRecord {
        JournalRecord::Candidate(CandidateRecord {
            op: "conv2d#0".into(),
            stage: "loop".into(),
            round: 3,
            provenance: provenance::NEIGHBOR.into(),
            point: vec![1, 0, 3],
            outcome: outcome::MEASURED.into(),
            predicted: Some(-2.5e-4),
            latency_s: Some(2.4e-4),
            vcode: None,
            error: None,
            attempts: 1,
            budget_end: 17,
            program_fp: Some(0x9e3779b97f4a7c15),
            cache_key: Some(0xdeadbeefcafef00d),
        })
    }

    #[test]
    fn records_roundtrip_through_jsonl() {
        let records = vec![
            JournalRecord::Header(JournalHeader {
                version: JOURNAL_VERSION,
                seed: 42,
                profile_fp: u64::MAX - 3,
                joint_budget: 12,
                loop_budget: 20,
            }),
            sample_candidate(),
            JournalRecord::Candidate(CandidateRecord {
                op: "gmm#1".into(),
                stage: "joint".into(),
                round: 1,
                provenance: provenance::RANDOM.into(),
                point: vec![2, 2],
                outcome: outcome::VERIFY_REJECTED.into(),
                predicted: None,
                latency_s: None,
                vcode: Some("V008_SPLIT_NOT_DIVISIBLE".into()),
                error: None,
                attempts: 0,
                budget_end: 17,
                program_fp: None,
                cache_key: None,
            }),
            JournalRecord::LayoutVisit(LayoutVisitRecord {
                op: "conv2d#0".into(),
                provenance: provenance::PPO.into(),
                point: vec![0, 1],
                latency_s: finite(f64::INFINITY),
            }),
            JournalRecord::LayoutCommit(LayoutCommitRecord {
                op: "conv2d#0".into(),
                point: vec![0, 1],
                latency_s: Some(1.0e-3),
            }),
            JournalRecord::Summary(JournalSummary {
                measurements: 32,
                best_latency_s: Some(9.5e-4),
                store_hits: Some(12),
                store_misses: Some(20),
                warm_start: Some(false),
            }),
        ];
        for r in &records {
            let line = serde_json::to_string(r).expect("journal record serializes");
            let back: JournalRecord = serde_json::from_str(&line).expect("parses back");
            assert_eq!(*r, back, "line {line}");
        }
    }

    #[test]
    fn type_tag_is_first_field() {
        let line = serde_json::to_string(&sample_candidate()).expect("serializes");
        assert!(line.starts_with(r#"{"type":"candidate""#), "{line}");
    }

    #[test]
    fn u64_fingerprints_survive_the_wire() {
        let line = serde_json::to_string(&JournalRecord::Header(JournalHeader {
            version: 1,
            seed: 7,
            profile_fp: u64::MAX,
            joint_budget: 0,
            loop_budget: 0,
        }))
        .expect("serializes");
        let back: JournalRecord = serde_json::from_str(&line).expect("parses");
        match back {
            JournalRecord::Header(h) => assert_eq!(h.profile_fp, u64::MAX),
            other => panic!("wrong variant {other:?}"),
        }
    }

    #[test]
    fn summary_store_fields_are_optional_on_the_wire() {
        // A journal written before the durable store parses with the
        // store fields absent...
        let old = r#"{"type":"summary","measurements":8,"best_latency_s":null}"#;
        let back: JournalRecord = serde_json::from_str(old).expect("old summary parses");
        match &back {
            JournalRecord::Summary(s) => {
                assert_eq!(s.measurements, 8);
                assert_eq!(s.store_hits, None);
                assert_eq!(s.store_misses, None);
                assert_eq!(s.warm_start, None);
            }
            other => panic!("wrong variant {other:?}"),
        }
        // ...and a store-less run serializes bit-identically to one:
        // no store keys on the wire at all.
        let line = serde_json::to_string(&back).expect("serializes");
        assert!(!line.contains("store_hits"), "{line}");
        assert!(!line.contains("warm_start"), "{line}");
        // A store-attached run's summary round-trips its counters.
        let with_store = JournalRecord::Summary(JournalSummary {
            measurements: 8,
            best_latency_s: Some(2e-3),
            store_hits: Some(5),
            store_misses: Some(3),
            warm_start: Some(true),
        });
        let line = serde_json::to_string(&with_store).expect("serializes");
        let again: JournalRecord = serde_json::from_str(&line).expect("parses");
        assert_eq!(with_store, again);
    }

    #[test]
    fn finite_maps_infinities_to_none() {
        assert_eq!(finite(1.5), Some(1.5));
        assert_eq!(finite(f64::INFINITY), None);
        assert_eq!(finite(f64::NAN), None);
    }
}
