//! Derived diagnostics computed from a journal.
//!
//! Three lenses over the same record stream:
//!
//! * **Convergence** — best-so-far curve over the budget axis, plateau
//!   detection, budget-to-within-5%-of-final, per-op sample efficiency.
//! * **Calibration** — how well the GBT cost model ranked what was
//!   actually measured: rolling-window Spearman over time, a
//!   rank-vs-rank calibration table, and the worst mispredictions.
//! * **Coverage** — where the search actually went: per-op and
//!   per-provenance counts, outcome fractions, and per-axis
//!   distinct-value exploration of the visited points.

use serde::Serialize;

use crate::record::{outcome, CandidateRecord, JournalHeader, JournalRecord};

/// Candidate/outcome/budget totals for one journal.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Totals {
    /// All records, of any type.
    pub records: u64,
    /// Candidate records.
    pub candidates: u64,
    /// Joint-stage layout assessments.
    pub layout_visits: u64,
    /// Committed layouts.
    pub layout_commits: u64,
    /// Budget units consumed (sum of candidate `attempts`).
    pub budget_consumed: u64,
    /// Candidate count per terminal outcome, sorted by outcome name.
    pub outcomes: Vec<(String, u64)>,
}

/// One improvement step of the best-so-far curve.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct CurvePoint {
    /// Budget consumed when the improvement landed.
    pub budget: u64,
    /// New best latency in seconds.
    pub best_s: f64,
}

/// Per-op sample efficiency.
#[derive(Clone, Debug, Serialize)]
pub struct OpConvergence {
    /// Operator tag.
    pub op: String,
    /// Budgeted samples (measured + cache hits) spent on this op.
    pub samples: u64,
    /// Best latency found for this op.
    pub best_s: Option<f64>,
    /// Budget consumed (run-wide) when the op's best first appeared.
    pub budget_to_best: u64,
}

/// Convergence analysis of the whole run.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Convergence {
    /// Monotone best-so-far curve (improvements only).
    pub curve: Vec<CurvePoint>,
    /// Final best latency over all measured candidates.
    pub final_best_s: Option<f64>,
    /// First budget index whose best-so-far is within 5% of the final
    /// best (`best <= final * 1.05`).
    pub budget_to_within_5pct: Option<u64>,
    /// First budget index reaching 95% of final quality
    /// (`best <= final / 0.95`).
    pub budget_to_p95_of_final: Option<u64>,
    /// Budget index of the last improvement larger than 1% — the
    /// plateau starts here.
    pub plateau_budget: Option<u64>,
    /// Fraction of the consumed budget spent after the last >1%
    /// improvement (1.0 = the whole run was a plateau).
    pub plateau_frac: f64,
    /// Per-op sample efficiency, sorted by op name.
    pub per_op: Vec<OpConvergence>,
}

/// Rolling-window rank correlation at one point in the run.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct RollingPoint {
    /// Index (1-based) of the last (predicted, measured) pair in the
    /// window.
    pub end: u64,
    /// Spearman rank correlation over the window.
    pub spearman: f64,
}

/// One row of the predicted-rank vs measured-rank calibration table.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct CalibrationBin {
    /// Bin index, 0 = candidates the model ranked best.
    pub bin: u64,
    /// Pairs in the bin.
    pub pairs: u64,
    /// Mean predicted rank (1 = best) of the bin's pairs.
    pub mean_predicted_rank: f64,
    /// Mean measured rank (1 = fastest) of the bin's pairs.
    pub mean_measured_rank: f64,
}

/// A candidate the model got badly wrong.
#[derive(Clone, Debug, Serialize)]
pub struct Misprediction {
    /// Operator tag.
    pub op: String,
    /// Loop-space point.
    pub point: Vec<u64>,
    /// GBT-predicted score (higher = model thought better).
    pub predicted: f64,
    /// Measured latency in seconds.
    pub latency_s: f64,
    /// |predicted rank − measured rank| / pairs, in `[0, 1)`.
    pub rank_error: f64,
}

/// One (predicted, measured) point for the calibration scatter.
#[derive(Clone, Copy, Debug, Serialize)]
pub struct ScatterPoint {
    /// GBT-predicted score.
    pub predicted: f64,
    /// Measured latency in seconds.
    pub latency_s: f64,
}

/// Cost-model calibration over the run.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Calibration {
    /// (predicted, measured) pairs the journal holds.
    pub pairs: u64,
    /// Spearman rank correlation over all pairs (prediction vs
    /// measured quality). 1.0 = the model ranked everything it scored
    /// perfectly.
    pub final_spearman: f64,
    /// Rolling-window Spearman (window 32, step 16) over pair order.
    pub rolling: Vec<RollingPoint>,
    /// Predicted-rank quintiles vs their mean measured rank.
    pub table: Vec<CalibrationBin>,
    /// Worst mispredictions by normalized rank error (top 5).
    pub worst: Vec<Misprediction>,
    /// Downsampled (predicted, measured) pairs for plotting (≤ 400).
    pub scatter: Vec<ScatterPoint>,
}

/// Per-op outcome counts.
#[derive(Clone, Debug, Serialize)]
pub struct OpCoverage {
    /// Operator tag.
    pub op: String,
    /// Candidates generated for the op.
    pub generated: u64,
    /// Measured fresh.
    pub measured: u64,
    /// Served from the memo cache.
    pub cache_hits: u64,
    /// Rejected by the static verifier.
    pub verify_rejected: u64,
    /// Exhausted their measurement attempts.
    pub failed: u64,
    /// Other zero-budget ends (quarantined / lower-failed / skipped).
    pub other: u64,
}

/// Outcome fractions over all candidates.
#[derive(Clone, Copy, Debug, Default, Serialize)]
pub struct OutcomeFractions {
    pub measured: f64,
    pub cache_hit: f64,
    pub verify_rejected: f64,
    pub failed: f64,
    pub other: f64,
}

/// How thoroughly one point axis was explored.
#[derive(Clone, Debug, Serialize)]
pub struct AxisCoverage {
    /// Operator tag.
    pub op: String,
    /// `"joint"` or `"loop"` — layout axes vs loop-knob axes.
    pub stage: String,
    /// Axis index within the point vector.
    pub axis: u64,
    /// Distinct values visited on this axis.
    pub distinct: u64,
    /// Smallest visited value.
    pub min: u64,
    /// Largest visited value.
    pub max: u64,
    /// Points sampled (non-empty points of this op/stage).
    pub samples: u64,
}

/// Joint-space coverage of the run.
#[derive(Clone, Debug, Default, Serialize)]
pub struct Coverage {
    /// Per-op outcome counts, sorted by op name.
    pub per_op: Vec<OpCoverage>,
    /// Candidate counts per provenance, sorted by name.
    pub per_provenance: Vec<(String, u64)>,
    /// Outcome fractions over all candidates.
    pub fractions: OutcomeFractions,
    /// Per-axis exploration histograms, sorted by (op, stage, axis).
    pub axes: Vec<AxisCoverage>,
}

/// Everything `altc inspect` knows about a journal.
#[derive(Clone, Debug, Serialize)]
pub struct Inspection {
    /// Run identity, when the journal has a header.
    pub header: Option<JournalHeader>,
    /// Record/outcome/budget totals.
    pub totals: Totals,
    /// Convergence analysis.
    pub convergence: Convergence,
    /// Cost-model calibration.
    pub calibration: Calibration,
    /// Joint-space coverage.
    pub coverage: Coverage,
}

fn is_budgeted_sample(c: &CandidateRecord) -> bool {
    c.outcome == outcome::MEASURED || c.outcome == outcome::CACHE_HIT
}

/// Computes all diagnostics from a parsed journal.
pub fn inspect(records: &[JournalRecord]) -> Inspection {
    let mut header = None;
    let mut candidates: Vec<&CandidateRecord> = Vec::new();
    let mut layout_visits = 0u64;
    let mut layout_commits = 0u64;
    for r in records {
        match r {
            JournalRecord::Header(h) => header = Some(h.clone()),
            JournalRecord::Candidate(c) => candidates.push(c),
            JournalRecord::LayoutVisit(_) => layout_visits += 1,
            JournalRecord::LayoutCommit(_) => layout_commits += 1,
            JournalRecord::Summary(_) => {}
        }
    }
    let totals = compute_totals(
        records.len() as u64,
        &candidates,
        layout_visits,
        layout_commits,
    );
    let convergence = compute_convergence(&candidates);
    let calibration = compute_calibration(&candidates);
    let coverage = compute_coverage(&candidates);
    Inspection {
        header,
        totals,
        convergence,
        calibration,
        coverage,
    }
}

fn compute_totals(
    records: u64,
    candidates: &[&CandidateRecord],
    layout_visits: u64,
    layout_commits: u64,
) -> Totals {
    let mut outcomes: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    let mut budget_consumed = 0u64;
    for c in candidates {
        *outcomes.entry(c.outcome.clone()).or_insert(0) += 1;
        budget_consumed += c.attempts;
    }
    Totals {
        records,
        candidates: candidates.len() as u64,
        layout_visits,
        layout_commits,
        budget_consumed,
        outcomes: outcomes.into_iter().collect(),
    }
}

fn compute_convergence(candidates: &[&CandidateRecord]) -> Convergence {
    // Best-so-far over the run's budget axis, journal order.
    let mut curve: Vec<CurvePoint> = Vec::new();
    let mut best = f64::INFINITY;
    for c in candidates {
        if let Some(lat) = c.latency_s {
            if is_budgeted_sample(c) && lat < best {
                best = lat;
                curve.push(CurvePoint {
                    budget: c.budget_end,
                    best_s: lat,
                });
            }
        }
    }
    let final_best_s = best.is_finite().then_some(best);
    let budget_to = |target: f64| -> Option<u64> {
        curve.iter().find(|p| p.best_s <= target).map(|p| p.budget)
    };
    let (budget_to_within_5pct, budget_to_p95_of_final) = match final_best_s {
        Some(fb) => (budget_to(fb * 1.05), budget_to(fb / 0.95)),
        None => (None, None),
    };
    // Plateau: budget of the last improvement that beat the previous
    // best by more than 1%.
    let mut plateau_budget = None;
    let mut prev = f64::INFINITY;
    for p in &curve {
        if !prev.is_finite() || p.best_s < prev * 0.99 {
            plateau_budget = Some(p.budget);
        }
        prev = p.best_s;
    }
    let total_budget = candidates.iter().map(|c| c.attempts).sum::<u64>();
    let plateau_frac = match (plateau_budget, total_budget) {
        (Some(pb), total) if total > 0 => (total.saturating_sub(pb)) as f64 / total as f64,
        _ => 0.0,
    };

    let mut per_op: std::collections::BTreeMap<String, OpConvergence> =
        std::collections::BTreeMap::new();
    for c in candidates {
        if !is_budgeted_sample(c) {
            continue;
        }
        let entry = per_op.entry(c.op.clone()).or_insert_with(|| OpConvergence {
            op: c.op.clone(),
            samples: 0,
            best_s: None,
            budget_to_best: 0,
        });
        entry.samples += 1;
        if let Some(lat) = c.latency_s {
            if entry.best_s.is_none_or(|b| lat < b) {
                entry.best_s = Some(lat);
                entry.budget_to_best = c.budget_end;
            }
        }
    }
    Convergence {
        curve,
        final_best_s,
        budget_to_within_5pct,
        budget_to_p95_of_final,
        plateau_budget,
        plateau_frac,
        per_op: per_op.into_values().collect(),
    }
}

fn compute_calibration(candidates: &[&CandidateRecord]) -> Calibration {
    // A calibration pair needs both a prediction and a measurement.
    let paired: Vec<&CandidateRecord> = candidates
        .iter()
        .copied()
        .filter(|c| is_budgeted_sample(c) && c.predicted.is_some() && c.latency_s.is_some())
        .collect();
    let pred: Vec<f64> = paired.iter().filter_map(|c| c.predicted).collect();
    // Quality = negated latency, so "model says better" and "runs
    // faster" point the same way and a perfect model scores +1.
    let qual: Vec<f64> = paired
        .iter()
        .filter_map(|c| c.latency_s.map(|l| -l))
        .collect();
    let final_spearman = alt_telemetry::spearman(&pred, &qual);

    const WINDOW: usize = 32;
    const STEP: usize = 16;
    let mut rolling = Vec::new();
    if paired.len() >= WINDOW {
        let mut end = WINDOW;
        loop {
            let start = end - WINDOW;
            rolling.push(RollingPoint {
                end: end as u64,
                spearman: alt_telemetry::spearman(&pred[start..end], &qual[start..end]),
            });
            if end == paired.len() {
                break;
            }
            end = (end + STEP).min(paired.len());
        }
    }

    // Rank-vs-rank calibration table: quintiles of predicted rank.
    let pred_ranks = alt_telemetry::ranks(&pred);
    let lat: Vec<f64> = paired.iter().filter_map(|c| c.latency_s).collect();
    let meas_ranks = alt_telemetry::ranks(&lat);
    let n = paired.len();
    let mut table = Vec::new();
    if n >= 5 {
        const BINS: usize = 5;
        let mut acc = vec![(0u64, 0.0f64, 0.0f64); BINS];
        for i in 0..n {
            // Predicted rank 1 = model's best (highest score), so
            // invert the ascending rank of the raw score.
            let pr = n as f64 + 1.0 - pred_ranks[i];
            let bin = (((pr - 1.0) / n as f64) * BINS as f64).min(BINS as f64 - 1.0) as usize;
            acc[bin].0 += 1;
            acc[bin].1 += pr;
            acc[bin].2 += meas_ranks[i];
        }
        for (b, (count, pr_sum, mr_sum)) in acc.into_iter().enumerate() {
            if count > 0 {
                table.push(CalibrationBin {
                    bin: b as u64,
                    pairs: count,
                    mean_predicted_rank: pr_sum / count as f64,
                    mean_measured_rank: mr_sum / count as f64,
                });
            }
        }
    }

    // Worst mispredictions by normalized rank error.
    let mut errs: Vec<(f64, usize)> = (0..n)
        .map(|i| {
            let pr = n as f64 + 1.0 - pred_ranks[i];
            ((pr - meas_ranks[i]).abs() / n as f64, i)
        })
        .collect();
    errs.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
    let worst = errs
        .iter()
        .take(5)
        .filter(|(e, _)| *e > 0.0)
        .map(|&(e, i)| Misprediction {
            op: paired[i].op.clone(),
            point: paired[i].point.clone(),
            predicted: pred[i],
            latency_s: lat[i],
            rank_error: e,
        })
        .collect();

    // Downsample the scatter to a plottable size, keeping run order.
    const SCATTER_MAX: usize = 400;
    let stride = n.div_ceil(SCATTER_MAX).max(1);
    let scatter = (0..n)
        .step_by(stride)
        .map(|i| ScatterPoint {
            predicted: pred[i],
            latency_s: lat[i],
        })
        .collect();

    Calibration {
        pairs: n as u64,
        final_spearman,
        rolling,
        table,
        worst,
        scatter,
    }
}

fn compute_coverage(candidates: &[&CandidateRecord]) -> Coverage {
    let mut per_op: std::collections::BTreeMap<String, OpCoverage> =
        std::collections::BTreeMap::new();
    let mut per_provenance: std::collections::BTreeMap<String, u64> =
        std::collections::BTreeMap::new();
    let mut fractions = OutcomeFractions::default();
    for c in candidates {
        let entry = per_op.entry(c.op.clone()).or_insert_with(|| OpCoverage {
            op: c.op.clone(),
            generated: 0,
            measured: 0,
            cache_hits: 0,
            verify_rejected: 0,
            failed: 0,
            other: 0,
        });
        entry.generated += 1;
        match c.outcome.as_str() {
            outcome::MEASURED => {
                entry.measured += 1;
                fractions.measured += 1.0;
            }
            outcome::CACHE_HIT => {
                entry.cache_hits += 1;
                fractions.cache_hit += 1.0;
            }
            outcome::VERIFY_REJECTED => {
                entry.verify_rejected += 1;
                fractions.verify_rejected += 1.0;
            }
            outcome::FAILED => {
                entry.failed += 1;
                fractions.failed += 1.0;
            }
            _ => {
                entry.other += 1;
                fractions.other += 1.0;
            }
        }
        *per_provenance.entry(c.provenance.clone()).or_insert(0) += 1;
    }
    let total = candidates.len() as f64;
    if total > 0.0 {
        fractions.measured /= total;
        fractions.cache_hit /= total;
        fractions.verify_rejected /= total;
        fractions.failed /= total;
        fractions.other /= total;
    }

    // Per-axis exploration: distinct values visited per (op, stage,
    // axis) over non-empty points.
    let mut axes_map: std::collections::BTreeMap<
        (String, String, u64),
        std::collections::BTreeSet<u64>,
    > = std::collections::BTreeMap::new();
    let mut point_counts: std::collections::BTreeMap<(String, String), u64> =
        std::collections::BTreeMap::new();
    for c in candidates {
        if c.point.is_empty() {
            continue;
        }
        *point_counts
            .entry((c.op.clone(), c.stage.clone()))
            .or_insert(0) += 1;
        for (axis, &v) in c.point.iter().enumerate() {
            axes_map
                .entry((c.op.clone(), c.stage.clone(), axis as u64))
                .or_default()
                .insert(v);
        }
    }
    let axes = axes_map
        .into_iter()
        .map(|((op, stage, axis), values)| {
            let samples = point_counts
                .get(&(op.clone(), stage.clone()))
                .copied()
                .unwrap_or(0);
            AxisCoverage {
                min: values.iter().next().copied().unwrap_or(0),
                max: values.iter().next_back().copied().unwrap_or(0),
                distinct: values.len() as u64,
                op,
                stage,
                axis,
                samples,
            }
        })
        .collect();

    Coverage {
        per_op: per_op.into_values().collect(),
        per_provenance: per_provenance.into_iter().collect(),
        fractions,
        axes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{provenance, JournalSummary, JOURNAL_VERSION};

    fn cand(
        op: &str,
        outcome_tag: &str,
        predicted: Option<f64>,
        latency_s: Option<f64>,
        attempts: u64,
        budget_end: u64,
        point: Vec<u64>,
    ) -> JournalRecord {
        JournalRecord::Candidate(CandidateRecord {
            op: op.into(),
            stage: "loop".into(),
            round: 1,
            provenance: provenance::RANDOM.into(),
            point,
            outcome: outcome_tag.into(),
            predicted,
            latency_s,
            vcode: None,
            error: None,
            attempts,
            budget_end,
            program_fp: None,
            cache_key: None,
        })
    }

    fn sample_journal() -> Vec<JournalRecord> {
        vec![
            JournalRecord::Header(JournalHeader {
                version: JOURNAL_VERSION,
                seed: 1,
                profile_fp: 99,
                joint_budget: 2,
                loop_budget: 4,
            }),
            cand(
                "a",
                outcome::MEASURED,
                Some(-4.0),
                Some(4.0),
                1,
                1,
                vec![0, 1],
            ),
            cand(
                "a",
                outcome::MEASURED,
                Some(-2.0),
                Some(2.0),
                1,
                2,
                vec![1, 1],
            ),
            cand("a", outcome::VERIFY_REJECTED, None, None, 0, 2, vec![2, 0]),
            cand(
                "a",
                outcome::CACHE_HIT,
                Some(-1.0),
                Some(1.0),
                1,
                3,
                vec![1, 2],
            ),
            cand("b", outcome::FAILED, None, None, 2, 5, vec![3]),
            cand(
                "a",
                outcome::MEASURED,
                Some(-1.5),
                Some(1.02),
                1,
                6,
                vec![0, 2],
            ),
            JournalRecord::Summary(JournalSummary {
                measurements: 6,
                best_latency_s: Some(1.0),
                store_hits: None,
                store_misses: None,
                warm_start: None,
            }),
        ]
    }

    #[test]
    fn totals_count_outcomes_and_budget() {
        let insp = inspect(&sample_journal());
        assert_eq!(insp.totals.candidates, 6);
        assert_eq!(insp.totals.budget_consumed, 6);
        let outcomes: std::collections::HashMap<_, _> =
            insp.totals.outcomes.iter().cloned().collect();
        assert_eq!(outcomes["measured"], 3);
        assert_eq!(outcomes["cache_hit"], 1);
        assert_eq!(outcomes["verify_rejected"], 1);
        assert_eq!(outcomes["failed"], 1);
    }

    #[test]
    fn convergence_tracks_best_so_far() {
        let insp = inspect(&sample_journal());
        let c = &insp.convergence;
        assert_eq!(c.final_best_s, Some(1.0));
        let budgets: Vec<u64> = c.curve.iter().map(|p| p.budget).collect();
        assert_eq!(budgets, vec![1, 2, 3]);
        // best reaches 1.0 at budget 3; within 5% of final only there.
        assert_eq!(c.budget_to_within_5pct, Some(3));
        assert_eq!(c.budget_to_p95_of_final, Some(3));
        assert_eq!(c.plateau_budget, Some(3));
        // ops a and b both sampled; b has no finite latency.
        assert_eq!(c.per_op.len(), 1);
        assert_eq!(c.per_op[0].op, "a");
        assert_eq!(c.per_op[0].samples, 4);
        assert_eq!(c.per_op[0].budget_to_best, 3);
    }

    #[test]
    fn calibration_is_perfect_for_consistent_model() {
        let insp = inspect(&sample_journal());
        // predictions -4,-2,-1,-1.5 vs qualities -4,-2,-1,-1.02:
        // identical ordering, so Spearman is exactly 1.
        assert_eq!(insp.calibration.pairs, 4);
        assert!((insp.calibration.final_spearman - 1.0).abs() < 1e-12);
        // perfectly ranked → no nonzero rank errors survive the filter.
        assert!(insp.calibration.worst.is_empty());
        assert_eq!(insp.calibration.scatter.len(), 4);
    }

    #[test]
    fn calibration_flags_mispredictions() {
        let mut j = sample_journal();
        // A candidate the model loved that measured slowest.
        j.push(cand(
            "a",
            outcome::MEASURED,
            Some(-0.5),
            Some(9.0),
            1,
            7,
            vec![5, 5],
        ));
        let insp = inspect(&j);
        assert!(insp.calibration.final_spearman < 1.0);
        assert!(!insp.calibration.worst.is_empty());
        assert_eq!(insp.calibration.worst[0].latency_s, 9.0);
    }

    #[test]
    fn coverage_counts_axes_and_provenance() {
        let insp = inspect(&sample_journal());
        assert_eq!(insp.coverage.per_op.len(), 2);
        let a = &insp.coverage.per_op[0];
        assert_eq!((a.generated, a.measured, a.cache_hits), (5, 3, 1));
        assert_eq!(
            insp.coverage.per_provenance,
            vec![("random".to_string(), 6)]
        );
        // op a, loop stage, axis 0 visited values {0, 1, 2}.
        let ax = insp
            .coverage
            .axes
            .iter()
            .find(|x| x.op == "a" && x.axis == 0)
            .expect("axis row");
        assert_eq!((ax.distinct, ax.min, ax.max, ax.samples), (3, 0, 2, 5));
        let f = insp.coverage.fractions;
        assert!(
            (f.measured + f.cache_hit + f.verify_rejected + f.failed + f.other - 1.0).abs() < 1e-12
        );
    }

    #[test]
    fn empty_journal_inspects_cleanly() {
        let insp = inspect(&[]);
        assert!(insp.header.is_none());
        assert_eq!(insp.totals.candidates, 0);
        assert_eq!(insp.convergence.final_best_s, None);
        assert_eq!(insp.calibration.final_spearman, 0.0);
        assert_eq!(insp.convergence.plateau_frac, 0.0);
    }
}
