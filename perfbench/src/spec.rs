//! The benchmark's metric table: every name and unit it prints, the
//! single source `BENCHMARK.json` is checked against.

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Metric {
    /// Name as printed in the result line.
    pub name: &'static str,
    /// Unit as printed in the result line.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound as a share of the parent's median (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Printed with tracing off.
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", 0.25),
    e2e("compile_s", "s", 0.25),
    e2e("native_pass_ms", "ms", 0.25),
    e2e("warm_compile_ms", "ms", 0.25),
    e2e("peak_rss_mb", "MiB", 0.15),
];

/// Printed by the traced run.
pub const PER_LAYER: [Metric; 34] = [
    layer("autotune.joint_stage_s", "s", "lower"),
    layer("autotune.loop_stage_s", "s", "lower"),
    layer("autotune.candidate_gen_ms", "ms", "lower"),
    layer("autotune.gbt_score_ms", "ms", "lower"),
    layer("autotune.lower_phase_s", "s", "lower"),
    layer("autotune.candidates_lowered", "count", "lower"),
    layer("autotune.gbt_spearman", "rho", "higher"),
    layer("autotune.gbt_pairs", "count", "higher"),
    layer("autotune.gbt_insufficient", "count", "lower"),
    layer("loopir.candidate_lower_us", "us", "lower"),
    layer("verify.candidate_us", "us", "lower"),
    layer("verify.set_queries", "count", "lower"),
    layer("sim.simulate_ms", "ms", "lower"),
    layer("sim.memo_hit_rate", "ratio", "higher"),
    layer("sim.memo_probes", "count", "lower"),
    layer("codegen.kernel_compile_ms", "ms", "lower"),
    layer("loopir.pack_ms", "ms", "lower"),
    layer("codegen.exec_ms", "ms", "lower"),
    layer("loopir.unpack_ms", "ms", "lower"),
    layer("codegen.gflops", "GFLOP/s", "higher"),
    layer("codegen.stmt_iters_per_s", "1/s", "higher"),
    layer("codegen.par_speedup", "ratio", "higher"),
    layer("codegen.top_group_share", "ratio", "lower"),
    layer("native.accounted_frac", "ratio", "higher"),
    layer("store.open_ms", "ms", "lower"),
    layer("store.get_us", "us", "lower"),
    layer("store.records", "count", "lower"),
    layer("store.bytes", "bytes", "lower"),
    layer("store.append_us", "us", "lower"),
    layer("store.fsync_us", "us", "lower"),
    layer("loopir.winner_lower_ms", "ms", "lower"),
    layer("sim.winner_measure_ms", "ms", "lower"),
    layer("trace.overhead_frac", "ratio", "lower"),
    layer("trace.spans", "count", "lower"),
];

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> serde_json::Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        serde_json::parse_value(&text).expect("BENCHMARK.json parses")
    }

    fn listed(doc: &serde_json::Value, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().expect("name").to_string(),
                    m["unit"].as_str().expect("unit").to_string(),
                    m["better"].as_str().expect("better").to_string(),
                    m.get("bound").and_then(serde_json::Value::as_f64),
                )
            })
            .collect()
    }

    fn ours(table: &[Metric]) -> Vec<(String, String, String, Option<f64>)> {
        table
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
            .collect()
    }

    #[test]
    fn printed_metrics_match_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(listed(&doc, "end_to_end"), ours(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), ours(&PER_LAYER));
    }

    #[test]
    fn setup_time_has_the_largest_bound() {
        let setup = END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", "lower")
        );
        for m in END_TO_END {
            assert!(m.bound.expect("bounded") <= setup.bound.expect("bounded"));
            assert!(m.bound.expect("bounded") <= 0.25);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        names.sort_unstable();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
