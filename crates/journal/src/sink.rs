//! Journal destinations and the cheap `Journal` handle.
//!
//! The journal reuses the trace's sink machinery
//! (`alt_telemetry::{Telemetry, Sink, MemorySink, JsonlSink}`) over its
//! own record type: instrumented code holds a [`Journal`] that is either
//! disabled (one `Option` check per emit) or wraps a shared sink. All
//! journal emission happens on the tuner's sequential accounting path,
//! so sinks never see concurrent writers from a single run.

use std::path::Path;

use crate::record::JournalRecord;

/// Cheap, clonable handle the tuner emits journal records through.
pub type Journal = alt_telemetry::Telemetry<JournalRecord>;

/// Destination for journal records.
pub type JournalSink = dyn alt_telemetry::Sink<JournalRecord>;

/// Thread-safe in-memory collector, for tests and bench runs that
/// inspect the journal without touching disk.
pub type MemoryJournal = alt_telemetry::MemorySink<JournalRecord>;

/// Writes one compact-JSON line per record to a file.
pub type JsonlJournal = alt_telemetry::JsonlSink;

/// Parses journal text (one JSON record per line; blank lines allowed).
///
/// Fails loudly on a malformed line: a journal that does not parse is a
/// bug, and silently dropping lines would corrupt every diagnostic
/// downstream.
pub fn parse_journal(text: &str) -> Result<Vec<JournalRecord>, String> {
    alt_telemetry::parse_jsonl(text, "journal")
}

/// Reads and parses a JSONL journal file.
pub fn read_journal(path: impl AsRef<Path>) -> Result<Vec<JournalRecord>, String> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read journal `{}`: {e}", path.display()))?;
    parse_journal(&text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{JournalHeader, JournalSummary, JOURNAL_VERSION};

    fn header() -> JournalRecord {
        JournalRecord::Header(JournalHeader {
            version: JOURNAL_VERSION,
            seed: 1,
            profile_fp: 2,
            joint_budget: 3,
            loop_budget: 4,
        })
    }

    #[test]
    fn noop_handle_drops_records() {
        let j = Journal::noop();
        assert!(!j.is_enabled());
        j.emit(header());
        j.flush();
    }

    #[test]
    fn memory_journal_collects_in_order() {
        let (j, sink) = Journal::memory();
        assert!(j.is_enabled());
        j.emit(header());
        j.emit(JournalRecord::Summary(JournalSummary {
            measurements: 9,
            best_latency_s: None,
            store_hits: None,
            store_misses: None,
            warm_start: None,
        }));
        let records = sink.records();
        assert_eq!(records.len(), 2);
        assert!(matches!(records[0], JournalRecord::Header(_)));
        assert!(matches!(records[1], JournalRecord::Summary(_)));
    }

    #[test]
    fn jsonl_roundtrips_through_file_and_append() {
        let path = std::env::temp_dir().join(format!("alt_journal_{}.jsonl", std::process::id()));
        {
            let j = Journal::jsonl(&path).expect("create journal");
            j.emit(header());
            j.flush();
        }
        {
            let j = Journal::jsonl_append(&path).expect("append journal");
            j.emit(JournalRecord::Summary(JournalSummary {
                measurements: 5,
                best_latency_s: Some(0.25),
                store_hits: None,
                store_misses: None,
                warm_start: None,
            }));
            j.flush();
        }
        let records = read_journal(&path).expect("parses");
        let _ = std::fs::remove_file(&path);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0], header());
        assert!(matches!(records[1], JournalRecord::Summary(_)));
    }

    #[test]
    fn parse_journal_rejects_garbage_loudly() {
        let err = parse_journal("{\"type\":\"header\"\n").expect_err("must fail");
        assert!(err.contains("line 1"), "{err}");
    }
}
