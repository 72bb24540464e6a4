//! Winner records for the durable tuning store (PR 7): the finished
//! result of one tuning *task*, keyed by a task fingerprint covering
//! everything that determines the outcome.
//!
//! Like checkpoints, a winner stores **decisions, not compiler
//! objects**: the committed joint-stage layout points and the flat
//! per-operator schedule snapshots. A warm-started run replays them
//! against a fresh graph — templates are rebuilt and points re-decoded
//! deterministically — so the stored bytes stay small, version-stable,
//! and provably equivalent to re-running the search: the replayed
//! plan/schedule measures bit-identically to the stored `latency_s`.
//!
//! The task fingerprint hashes the graph signature, the machine profile
//! fingerprint, and every `TuneConfig` field that can change the tuning
//! *result*. Deliberately excluded: `jobs` (bit-identical by the
//! parallel-measurement contract), telemetry/journal sinks and
//! checkpoint plumbing (observability only), and the store itself.
//! A run with pretrained PPO weights has no fingerprint at all — the
//! weights are not faithfully hashable, and a wrong warm-start is worse
//! than none.

use alt_error::AltError;
use alt_loopir::hash::Fnv1a;
use alt_tensor::Graph;
use serde::{Deserialize, Serialize};

use crate::checkpoint::{graph_signature, CommitSnap, SchedSnap};
use crate::tuner::{FixedLayout, LayoutSearch, TuneConfig};

/// Current winner record format version.
pub const WINNER_VERSION: u64 = 1;

/// The stored outcome of one completed tuning task.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WinnerRecord {
    /// Format version (see [`WINNER_VERSION`]).
    pub version: u64,
    /// Signature of the tuned graph (replay validates it).
    pub graph_sig: String,
    /// The task fingerprint this record was stored under (self-describing
    /// for `altc store export`; replay validates it).
    pub task_fp: u64,
    /// The run's RNG seed (provenance).
    pub seed: u64,
    /// Budget the winning run consumed (provenance).
    pub measurements: u64,
    /// Committed joint-stage layout decisions, in commit order.
    pub committed: Vec<CommitSnap>,
    /// Flat schedule snapshot per operator, indexed by operator id.
    pub sched: Vec<SchedSnap>,
    /// The winner's end-to-end latency as measured by the winning run;
    /// replay cross-checks its own measurement against this bit pattern.
    pub latency_s: f64,
}

/// Fingerprint of one tuning task: graph × machine × every result-
/// relevant configuration field. `None` when the configuration cannot be
/// fingerprinted faithfully (pretrained PPO weights), which disables
/// both warm-start lookup and winner publication for the run.
pub fn task_fingerprint(graph: &Graph, profile_fp: u64, cfg: &TuneConfig) -> Option<u64> {
    if cfg.pretrained.is_some() {
        return None;
    }
    let mut h = Fnv1a::new();
    h.tag(0x57); // 'W'
    h.str(&graph_signature(graph));
    h.u64(profile_fp);
    h.u64(cfg.joint_budget);
    h.u64(cfg.loop_budget);
    h.u64(cfg.batch as u64);
    h.u64(cfg.topk as u64);
    h.u64(crate::tuner::ROUNDS_PER_LAYOUT as u64);
    h.u64(cfg.levels as u64);
    h.u64(cfg.loop_levels as u64);
    h.tag(match cfg.mode {
        alt_layout::PropagationMode::Full => 0,
        alt_layout::PropagationMode::WithoutFusionAlign => 1,
        alt_layout::PropagationMode::None => 2,
    });
    h.tag(cfg.free_input_layouts as u8);
    h.u64(cfg.seed);
    h.tag(match cfg.layout_search {
        LayoutSearch::Ppo => 0,
        LayoutSearch::Random => 1,
    });
    match cfg.fixed_layout {
        None => h.tag(0),
        Some(FixedLayout::Identity) => h.tag(1),
        Some(FixedLayout::ChannelsLast) => h.tag(2),
        Some(FixedLayout::ChannelTiled(ct)) => {
            h.tag(3);
            h.i64(ct);
        }
    }
    h.tag(cfg.seed_candidates as u8);
    match &cfg.faults {
        None => h.tag(0),
        Some(fc) => {
            h.tag(1);
            h.f64(fc.compile_failure_rate);
            h.f64(fc.timeout_rate);
            h.f64(fc.noise_rate);
            h.f64(fc.noise_min);
            h.f64(fc.noise_max);
        }
    }
    h.u64(crate::accounting::MAX_RETRIES);
    h.u64(crate::accounting::QUARANTINE_THRESHOLD);
    h.tag(cfg.verify as u8);
    h.tag(cfg.advanced_layouts as u8);
    Some(h.finish())
}

/// Encodes a winner record for the store (JSON; field order is fixed by
/// the struct, so identical runs produce identical bytes).
pub fn encode_winner(w: &WinnerRecord) -> Result<Vec<u8>, AltError> {
    serde_json::to_string(w)
        .map(String::into_bytes)
        .map_err(|e| AltError::Store {
            detail: format!("serializing winner record: {}", e.0),
        })
}

/// Decodes a stored winner payload, validating version, task fingerprint
/// and graph signature against the looked-up task. Any mismatch returns
/// `None` — a foreign or incompatible record reads as a store miss, so a
/// warm start can never replay the wrong winner.
pub fn decode_winner(bytes: &[u8], task_fp: u64, graph_sig: &str) -> Option<WinnerRecord> {
    let text = std::str::from_utf8(bytes).ok()?;
    let w: WinnerRecord = serde_json::from_str(text).ok()?;
    if w.version != WINNER_VERSION || w.task_fp != task_fp || w.graph_sig != graph_sig {
        return None;
    }
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use alt_tensor::ops::{self, ConvCfg};
    use alt_tensor::Shape;

    fn graph() -> Graph {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new([1, 4, 10, 10]));
        let w = g.add_param("w", Shape::new([8, 4, 3, 3]));
        let c = ops::conv2d(&mut g, x, w, ConvCfg::default());
        let _ = ops::relu(&mut g, c);
        g
    }

    fn sample(g: &Graph, task_fp: u64) -> WinnerRecord {
        WinnerRecord {
            version: WINNER_VERSION,
            graph_sig: graph_signature(g),
            task_fp,
            seed: 7,
            measurements: 40,
            committed: vec![CommitSnap {
                op: 2,
                point: vec![0, 1],
            }],
            sched: vec![SchedSnap {
                spatial: vec![vec![4]],
                reduce: vec![],
                vectorize: true,
                unroll: false,
                parallel: false,
                fuse: false,
            }],
            latency_s: 1.25e-3,
        }
    }

    #[test]
    fn codec_roundtrips_and_rejects_mismatches() {
        let g = graph();
        let cfg = TuneConfig::default();
        let fp = task_fingerprint(&g, 11, &cfg).unwrap();
        let w = sample(&g, fp);
        let bytes = encode_winner(&w).unwrap();
        let back = decode_winner(&bytes, fp, &w.graph_sig).unwrap();
        assert_eq!(back.committed, w.committed);
        assert_eq!(back.sched, w.sched);
        assert_eq!(back.latency_s.to_bits(), w.latency_s.to_bits());
        // Wrong task, wrong graph, torn payload: all read as misses.
        assert!(decode_winner(&bytes, fp ^ 1, &w.graph_sig).is_none());
        assert!(decode_winner(&bytes, fp, "0000:0ops").is_none());
        assert!(decode_winner(&bytes[..bytes.len() / 2], fp, &w.graph_sig).is_none());
        let mut vbad = w.clone();
        vbad.version = WINNER_VERSION + 1;
        let bytes = encode_winner(&vbad).unwrap();
        assert!(decode_winner(&bytes, fp, &w.graph_sig).is_none());
    }

    #[test]
    fn encoding_is_deterministic() {
        let g = graph();
        let w = sample(&g, 5);
        assert_eq!(encode_winner(&w).unwrap(), encode_winner(&w).unwrap());
    }

    #[test]
    fn fingerprint_covers_result_relevant_config() {
        let g = graph();
        let base = TuneConfig::default();
        let fp = task_fingerprint(&g, 11, &base).unwrap();
        // Same config, same fingerprint.
        assert_eq!(task_fingerprint(&g, 11, &base.clone()), Some(fp));
        // Observability plumbing does not move it...
        let mut t = base.clone();
        t.jobs = 8;
        t.checkpoint_every = 100;
        t.halt_after = Some(10);
        assert_eq!(task_fingerprint(&g, 11, &t), Some(fp));
        // ...while anything result-relevant does.
        let mut t = base.clone();
        t.seed = 1;
        assert_ne!(task_fingerprint(&g, 11, &t), Some(fp));
        let mut t = base.clone();
        t.loop_budget += 1;
        assert_ne!(task_fingerprint(&g, 11, &t), Some(fp));
        let mut t = base.clone();
        t.verify = false;
        assert_ne!(task_fingerprint(&g, 11, &t), Some(fp));
        let mut t = base.clone();
        t.advanced_layouts = true;
        assert_ne!(task_fingerprint(&g, 11, &t), Some(fp));
        let mut t = base.clone();
        t.faults = Some(crate::fault::FaultConfig::uniform(0.1));
        assert_ne!(task_fingerprint(&g, 11, &t), Some(fp));
        let mut t = base.clone();
        t.fixed_layout = Some(FixedLayout::ChannelTiled(8));
        assert_ne!(task_fingerprint(&g, 11, &t), Some(fp));
        // A different machine moves it too.
        assert_ne!(task_fingerprint(&g, 12, &base), Some(fp));
        // Pretrained weights disable fingerprinting entirely.
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut t = base.clone();
        t.pretrained = Some(crate::ppo::PpoWeights {
            actor: crate::nn::Mlp::new(4, 4, 4, &mut rng),
            critic: crate::nn::Mlp::new(4, 4, 1, &mut rng),
        });
        assert_eq!(task_fingerprint(&g, 11, &t), None);
    }
}
