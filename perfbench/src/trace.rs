//! Spans recorded by the traced run around every call into a layer.
//!
//! A span is (name, start, end, parent). Spans stay in memory and are
//! written once, at exit. A disabled trace records nothing, so the
//! untraced run pays one branch per call site. The tuner's own phase
//! tree (`CompiledGraph::timing_manifest()["phases"]`) is folded in under
//! the compile span that produced it; its nodes are aggregates, so they
//! carry a `count` and start where their parent starts.

use std::time::Instant;

use serde_json::{json, Value};

struct Span {
    name: String,
    start_us: f64,
    end_us: f64,
    parent: Option<usize>,
    count: u64,
}

/// In-memory span recorder.
pub struct Trace {
    enabled: bool,
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span (`None` when tracing is off).
#[must_use]
pub struct SpanId(Option<usize>);

impl Trace {
    /// A recorder; records nothing unless `enabled`.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span, child of the innermost open one.
    pub fn begin(&mut self, name: &str) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start_us: self.now_us(),
            end_us: f64::NAN,
            parent: self.open.last().copied(),
            count: 1,
        });
        self.open.push(id);
        SpanId(Some(id))
    }

    /// Closes a span (and any span opened inside it and left open).
    pub fn end(&mut self, span: SpanId) {
        let Some(id) = span.0 else { return };
        let now = self.now_us();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_us = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce() -> R) -> R {
        let s = self.begin(name);
        let r = f();
        self.end(s);
        r
    }

    /// Folds a timing-manifest phase tree under the most recently closed
    /// span named `under`. Returns whether the tree is conserved: every
    /// node's children sum to at most the node, and the root fits inside
    /// the span.
    pub fn fold_phases(&mut self, under: &str, phases: &Value) -> bool {
        let Some(parent) = self.spans.iter().rposition(|s| s.name == under) else {
            return false;
        };
        let (start, span_us) = {
            let p = &self.spans[parent];
            (p.start_us, p.end_us - p.start_us)
        };
        let root_us = phases["inclusive_us"].as_f64().unwrap_or(f64::INFINITY);
        self.fold(parent, start, phases) && root_us <= span_us + 1.0
    }

    fn fold(&mut self, parent: usize, start: f64, node: &Value) -> bool {
        let inclusive = node["inclusive_us"].as_f64().unwrap_or(0.0);
        let id = self.spans.len();
        self.spans.push(Span {
            name: format!("phase:{}", node["name"].as_str().unwrap_or("?")),
            start_us: start,
            end_us: start + inclusive,
            parent: Some(parent),
            count: node["count"].as_u64().unwrap_or(0),
        });
        let children = node["children"].as_array().cloned().unwrap_or_default();
        let mut conserved = children
            .iter()
            .map(|c| c["inclusive_us"].as_f64().unwrap_or(0.0))
            .sum::<f64>()
            <= inclusive;
        for child in &children {
            conserved &= self.fold(id, start, child);
        }
        conserved
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Every span as JSON, in creation order.
    pub fn to_json(&self) -> Value {
        Value::Array(
            self.spans
                .iter()
                .map(|s| {
                    json!({
                        "name": s.name.clone(),
                        "start_us": s.start_us,
                        "end_us": s.end_us,
                        "parent": s.parent.map_or(-1, |p| p as i64),
                        "count": s.count,
                    })
                })
                .collect(),
        )
    }
}

/// Summed inclusive time (µs) of every phase named `name` in a manifest
/// phase tree, not counting a phase nested inside a phase of that name.
pub fn phase_us(node: &Value, name: &str) -> f64 {
    if node["name"].as_str() == Some(name) {
        return node["inclusive_us"].as_f64().unwrap_or(0.0);
    }
    node["children"]
        .as_array()
        .map_or(0.0, |cs| cs.iter().map(|c| phase_us(c, name)).sum())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree(parent_us: u64, child_us: [u64; 2]) -> Value {
        json!({
            "name": "root", "count": 1, "inclusive_us": parent_us,
            "children": vec![
                json!({"name": "lower", "count": 3, "inclusive_us": child_us[0], "children": Vec::<Value>::new()}),
                json!({"name": "loop_stage", "count": 1, "inclusive_us": child_us[1], "children": vec![
                    json!({"name": "lower", "count": 2, "inclusive_us": 5, "children": Vec::<Value>::new()})
                ]}),
            ],
        })
    }

    #[test]
    fn spans_nest_and_phases_fold_under_the_compile_span() {
        let mut t = Trace::new(true);
        let outer = t.begin("compile");
        t.span("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end(outer);
        assert!(t.fold_phases("compile", &tree(100, [40, 50])));
        assert_eq!(t.len(), 2 + 4);
        let spans = t.to_json();
        assert_eq!(spans[1]["parent"].as_i64(), Some(0));
        assert_eq!(spans[2]["name"].as_str(), Some("phase:root"));
        assert_eq!(spans[2]["parent"].as_i64(), Some(0));
    }

    #[test]
    fn unconserved_phase_trees_are_flagged() {
        let mut t = Trace::new(true);
        t.span("compile", || {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        assert!(!t.fold_phases("compile", &tree(100, [60, 50])));
        // A root longer than the span that produced it.
        assert!(!t.fold_phases("compile", &tree(10_000_000, [1, 1])));
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new(false);
        let s = t.begin("x");
        t.end(s);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn phase_sums_skip_nested_repeats() {
        assert_eq!(phase_us(&tree(100, [40, 50]), "lower"), 45.0);
        assert_eq!(phase_us(&tree(100, [40, 50]), "loop_stage"), 50.0);
        assert_eq!(phase_us(&tree(100, [40, 50]), "absent"), 0.0);
    }
}
