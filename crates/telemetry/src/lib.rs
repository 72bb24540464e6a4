//! Structured observability for ALT tuning runs.
//!
//! This crate is the telemetry layer the rest of the workspace emits
//! into. It deliberately depends on nothing but the (vendored) serde
//! pair, so any crate — simulator, tuner, compiler driver — can adopt it
//! without cycles.
//!
//! The pieces:
//!
//! * [`Telemetry`] — a cheap clonable handle; disabled by default
//!   (`Telemetry::noop()`), or backed by a [`MemorySink`] /
//!   [`JsonlSink`] shared across threads.
//! * [`Record`] — the typed trace schema: one record per measurement
//!   ([`MeasurementRecord`]), PPO policy updates, cost-model ranking
//!   accuracy, spans/events, counters, and a run summary.
//! * [`Span`] — RAII timed regions with per-thread nesting depth and
//!   monotonic microsecond timestamps.
//! * [`CounterRegistry`] — named counter/histogram aggregation (e.g.
//!   simulator cache statistics summed over a whole tuning run), flushed
//!   to a sink as [`CounterRecord`]s.
//! * [`report`] — reads a JSONL trace back and renders the plain-text
//!   report behind `altc report`.
//! * [`Timing`] — the pipeline's wall-clock self-profile (PR 8): an
//!   injectable-clock phase tree plus latency histograms, written to its
//!   own sink so the deterministic trace/journal streams never change.

pub mod counters;
pub mod perfetto;
pub mod record;
pub mod report;
pub mod sink;
pub mod span;
pub mod stats;
pub mod timing;

pub use counters::{CounterRegistry, HistogramSummary};
pub use perfetto::{chrome_trace, write_chrome_trace};
pub use record::{
    CostModelRecord, CounterRecord, EventRecord, MeasurementFailureRecord, MeasurementRecord,
    PpoUpdateRecord, ProfileNodeRecord, Record, RooflineRecord, RunSummaryRecord, SimCounters,
    SpanRecord, Stage, TimingRecord, VerifyRejectionRecord,
};
pub use report::{fmt_latency, read_jsonl, render_report};
pub use sink::{parse_jsonl, JsonlSink, MemorySink, NoopSink, Sink, Telemetry};
pub use span::{current_depth, now_us, Span};
pub use stats::{ranks, spearman};
pub use timing::{Clock, ManualClock, MonotonicClock, PhaseGuard, PhaseNode, Timing};
