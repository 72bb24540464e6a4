//! Checkpoint/resume for tuning runs.
//!
//! A tuning run is hours of measurements; losing it to a crash (or a
//! pre-empted machine) is the most expensive failure mode there is. The
//! tuner periodically serializes its state to JSON at *cut points* —
//! joint-stage operator boundaries and loop-stage iterations — and a
//! resumed run continues from the exact budget unit where the checkpoint
//! was written.
//!
//! The checkpoint stores *decisions*, not compiler objects: committed
//! layout template points, flat schedule snapshots, cost-model training
//! sets, the critic's weights and optimizer moments, and the raw RNG
//! state. On resume the tuner deterministically replays the committed
//! decisions against a fresh graph — layout plans and schedules are
//! rebuilt, never deserialized — so the format stays small and stable
//! while resumed runs are bit-identical to uninterrupted ones.

use std::collections::HashMap;

use alt_error::AltError;
use alt_tensor::Graph;
use serde::{Deserialize, Serialize};

use crate::ppo::CriticState;

/// Current checkpoint format version.
/// v2 added `accounted_keys` (memo-cache continuity across resume).
pub const CHECKPOINT_VERSION: u64 = 2;

/// A flat snapshot of one operator's schedule
/// ([`alt_loopir::OpSchedule`] without the nested types).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SchedSnap {
    /// Tiling factors per spatial axis.
    pub spatial: Vec<Vec<i64>>,
    /// Tiling factors per reduction axis.
    pub reduce: Vec<Vec<i64>>,
    /// Vectorize the innermost loop.
    pub vectorize: bool,
    /// Unroll the innermost tile.
    pub unroll: bool,
    /// Parallelize the outermost loop.
    pub parallel: bool,
    /// Fuse into the producer's loop nest.
    pub fuse: bool,
}

impl SchedSnap {
    /// Snapshot of one schedule.
    pub fn of(s: &alt_loopir::OpSchedule) -> Self {
        SchedSnap {
            spatial: s.spatial.iter().map(|t| t.factors.clone()).collect(),
            reduce: s.reduce.iter().map(|t| t.factors.clone()).collect(),
            vectorize: s.vectorize,
            unroll: s.unroll,
            parallel: s.parallel,
            fuse: s.fuse_into_producer,
        }
    }

    /// Rebuilds the schedule.
    pub fn to_sched(&self) -> alt_loopir::OpSchedule {
        let tilings = |v: &Vec<Vec<i64>>| {
            v.iter()
                .map(|f| alt_loopir::AxisTiling { factors: f.clone() })
                .collect()
        };
        alt_loopir::OpSchedule {
            spatial: tilings(&self.spatial),
            reduce: tilings(&self.reduce),
            vectorize: self.vectorize,
            unroll: self.unroll,
            parallel: self.parallel,
            fuse_into_producer: self.fuse,
        }
    }
}

/// One committed joint-stage layout decision: replayed (template rebuild,
/// point decode, plan application, clone replication) on resume.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CommitSnap {
    /// The representative operator the decision was committed for.
    pub op: usize,
    /// The winning layout template point.
    pub point: Vec<usize>,
}

/// Per-operator loop-tuning state: the GBT training set. The model
/// itself is not stored — fitting is deterministic, so resume refits on
/// the first `trained_on` rows and reproduces it exactly.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct LoopStateSnap {
    /// Operator id.
    pub op: usize,
    /// Feature vectors of measured candidates.
    pub dataset_x: Vec<Vec<f32>>,
    /// Targets (`-ln latency`).
    pub dataset_y: Vec<f32>,
    /// Loop-tuning rounds executed for this op.
    pub rounds: u64,
    /// Dataset prefix length the current model was trained on.
    pub trained_on: u64,
}

/// Best loop point per operator (valid for that op's current layout).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BestPointSnap {
    /// Operator id.
    pub op: usize,
    /// The point.
    pub point: Vec<usize>,
    /// Its measured latency.
    pub latency_s: f64,
}

/// A serializable snapshot of the whole tuner, written at cut points.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TunerCheckpoint {
    /// Format version (see [`CHECKPOINT_VERSION`]).
    pub version: u64,
    /// The run's RNG seed (resume validates it).
    pub seed: u64,
    /// Signature of the tuned graph (resume validates it).
    pub graph_sig: String,
    /// Joint-stage budget of the run.
    pub joint_budget: u64,
    /// Loop-stage budget of the run.
    pub loop_budget: u64,
    /// Which stage the cut is in: `"joint"` or `"loop"`.
    pub phase: String,
    /// Joint stage: index of the next representative op to tune.
    pub next_rep: u64,
    /// Loop stage: next round-robin iteration counter.
    pub loop_iter: u64,
    /// Budget counter value at joint-stage entry.
    pub joint_start: u64,
    /// Budget units consumed so far.
    pub used: u64,
    /// (budget used, latency) history of successful measurements.
    pub history: Vec<(u64, f64)>,
    /// Best-so-far latency per op label (telemetry continuity).
    pub best_by_op: Vec<(String, f64)>,
    /// Raw xoshiro256++ state of the shared tuning stream.
    pub rng_state: Vec<u64>,
    /// Committed joint-stage layout decisions, in commit order.
    pub committed: Vec<CommitSnap>,
    /// Schedule snapshot for every graph op, indexed by op id.
    pub sched: Vec<SchedSnap>,
    /// Cost-model training sets per op.
    pub loop_state: Vec<LoopStateSnap>,
    /// Best loop point per op.
    pub best_points: Vec<BestPointSnap>,
    /// Shared critic training state (present when cut mid-joint-stage).
    pub critic: Option<CriticState>,
    /// Quarantined candidate keys (`op:point`).
    pub quarantine: Vec<String>,
    /// Failure counts per candidate key.
    pub fail_counts: HashMap<String, u64>,
    /// Tuner-scoped counter values (retries, quarantined, failures.*).
    pub counters: Vec<(String, f64)>,
    /// Memo-cache keys the run has budget-accounted so far, sorted. The
    /// resumed leg re-simulates them (the table itself is not persisted;
    /// simulation is pure) but records their lookups as the cache hits
    /// the uninterrupted run would have seen.
    pub accounted_keys: Vec<u64>,
}

impl TunerCheckpoint {
    /// Validates a loaded checkpoint against the run it is resuming.
    pub fn validate(&self, graph: &Graph, seed: u64) -> Result<(), AltError> {
        if self.version != CHECKPOINT_VERSION {
            return Err(AltError::Checkpoint {
                detail: format!(
                    "version mismatch: checkpoint v{}, supported v{CHECKPOINT_VERSION}",
                    self.version
                ),
            });
        }
        let sig = graph_signature(graph);
        if self.graph_sig != sig {
            return Err(AltError::Checkpoint {
                detail: format!(
                    "graph mismatch: checkpoint was taken for a different model \
                     (checkpoint sig {:.16}..., current sig {sig:.16}...)",
                    self.graph_sig
                ),
            });
        }
        if self.seed != seed {
            return Err(AltError::Checkpoint {
                detail: format!(
                    "seed mismatch: checkpoint used seed {}, run configured with {seed}",
                    self.seed
                ),
            });
        }
        if self.rng_state.len() != 4 {
            return Err(AltError::Checkpoint {
                detail: format!(
                    "corrupt RNG state: {} words, expected 4",
                    self.rng_state.len()
                ),
            });
        }
        if self.phase != "joint" && self.phase != "loop" {
            return Err(AltError::Checkpoint {
                detail: format!("unknown phase {:?}", self.phase),
            });
        }
        Ok(())
    }

    /// Validates the checkpoint's budgets against the resuming run's. A
    /// run resumed under other budgets would finish at a total neither
    /// configuration spends, under a journal header naming budgets it
    /// did not use.
    pub fn validate_budgets(&self, joint_budget: u64, loop_budget: u64) -> Result<(), AltError> {
        if (self.joint_budget, self.loop_budget) == (joint_budget, loop_budget) {
            return Ok(());
        }
        Err(AltError::Checkpoint {
            detail: format!(
                "budget mismatch: checkpoint used joint/loop budgets {}/{}, run configured \
                 with {joint_budget}/{loop_budget}",
                self.joint_budget, self.loop_budget
            ),
        })
    }

    /// Serializes to a JSON file. The write is atomic (temp file, fsync,
    /// rename — see `alt_store::atomic`): a crash mid-save leaves the
    /// previous checkpoint intact instead of a torn half-JSON file that
    /// would strand the whole run at resume time.
    pub fn save(&self, path: &str) -> Result<(), AltError> {
        let json = serde_json::to_string(self).map_err(|e| AltError::Checkpoint {
            detail: format!("serializing checkpoint: {}", e.0),
        })?;
        alt_store::atomic::write(std::path::Path::new(path), json.as_bytes()).map_err(|e| {
            AltError::Checkpoint {
                detail: format!("writing {path}: {e}"),
            }
        })
    }

    /// Loads from a JSON file.
    pub fn load(path: &str) -> Result<TunerCheckpoint, AltError> {
        let data = std::fs::read_to_string(path).map_err(|e| AltError::Checkpoint {
            detail: format!("reading {path}: {e}"),
        })?;
        serde_json::from_str(&data).map_err(|e| AltError::Checkpoint {
            detail: format!("parsing {path}: {}", e.0),
        })
    }
}

/// A stable fingerprint of the graph a checkpoint belongs to: operator
/// kinds, names and tensor shapes in topological order. Intentionally
/// not a layout/schedule hash — those are what the checkpoint restores.
pub fn graph_signature(graph: &Graph) -> String {
    let parts: Vec<String> = graph
        .nodes()
        .iter()
        .map(|node| op_signature(graph, node.id))
        .collect();
    // Cheap stable hash (FNV-1a) so the signature stays short in JSON.
    let joined = parts.join(";");
    let mut h: u64 = 0xcbf29ce484222325;
    for b in joined.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    format!("{:016x}:{}ops", h, graph.nodes().len())
}

/// One operator's signature: kind, name and tensor shapes. Operators
/// with equal signatures share one tuning task (layouts and schedules).
pub fn op_signature(graph: &Graph, op: alt_tensor::OpId) -> String {
    let node = graph.node(op);
    let mut s = format!("{:?}|{}", node.tag, node.compute.name);
    for &i in &node.inputs {
        s.push_str(&format!("|{}", graph.tensor(i).shape));
    }
    s.push_str(&format!("|{}", graph.tensor(node.output).shape));
    s
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

    fn sample(g: &Graph) -> TunerCheckpoint {
        TunerCheckpoint {
            version: CHECKPOINT_VERSION,
            seed: 7,
            graph_sig: graph_signature(g),
            joint_budget: 16,
            loop_budget: 16,
            phase: "loop".to_string(),
            next_rep: 0,
            loop_iter: 3,
            joint_start: 0,
            used: 20,
            history: vec![(1, 2e-3), (2, 1e-3)],
            best_by_op: vec![("conv2d#2".to_string(), 1e-3)],
            rng_state: vec![1, 2, 3, 4],
            committed: vec![CommitSnap {
                op: 2,
                point: vec![0, 1, 2],
            }],
            sched: vec![SchedSnap {
                spatial: vec![vec![4], vec![]],
                reduce: vec![vec![2, 2]],
                vectorize: true,
                unroll: false,
                parallel: true,
                fuse: false,
            }],
            loop_state: vec![LoopStateSnap {
                op: 2,
                dataset_x: vec![vec![0.5; 4]],
                dataset_y: vec![6.2],
                rounds: 2,
                trained_on: 0,
            }],
            best_points: vec![BestPointSnap {
                op: 2,
                point: vec![1, 0],
                latency_s: 1e-3,
            }],
            critic: None,
            quarantine: vec!["conv2d#2:[9, 9]".to_string()],
            fail_counts: [("conv2d#2:[9, 9]".to_string(), 2u64)]
                .into_iter()
                .collect(),
            counters: vec![("retries".to_string(), 3.0)],
            accounted_keys: vec![3, 17],
        }
    }

    #[test]
    fn roundtrips_through_json() {
        let g = graph();
        let ck = sample(&g);
        let json = serde_json::to_string(&ck).unwrap();
        let back: TunerCheckpoint = serde_json::from_str(&json).unwrap();
        assert_eq!(back.used, ck.used);
        assert_eq!(back.history, ck.history);
        assert_eq!(back.rng_state, ck.rng_state);
        assert_eq!(back.committed, ck.committed);
        assert_eq!(back.sched, ck.sched);
        assert_eq!(back.best_points, ck.best_points);
        assert_eq!(back.quarantine, ck.quarantine);
        assert_eq!(back.fail_counts, ck.fail_counts);
        assert_eq!(back.sched[0].to_sched().spatial[0].factors, vec![4]);
    }

    #[test]
    fn validation_catches_mismatches() {
        let g = graph();
        let ck = sample(&g);
        assert!(ck.validate(&g, 7).is_ok());
        assert!(ck.validate(&g, 8).is_err(), "seed mismatch");
        let mut other = Graph::new();
        let x = other.add_input("x", Shape::new([1, 8, 6, 6]));
        let w = other.add_param("w", Shape::new([4, 8, 3, 3]));
        let _ = ops::conv2d(&mut other, x, w, ConvCfg::default());
        assert!(ck.validate(&other, 7).is_err(), "graph mismatch");
        let mut bad = ck.clone();
        bad.version = 99;
        assert!(bad.validate(&g, 7).is_err(), "version mismatch");
        let mut bad = ck.clone();
        bad.rng_state = vec![1];
        assert!(bad.validate(&g, 7).is_err(), "rng state length");
        assert!(ck.validate_budgets(16, 16).is_ok());
        for (joint, lp) in [(16, 40), (8, 16), (0, 32)] {
            let err = ck.validate_budgets(joint, lp).unwrap_err();
            assert_eq!(err.kind(), "checkpoint", "budgets {joint}/{lp}");
        }
    }

    #[test]
    fn file_roundtrip_and_load_errors() {
        let g = graph();
        let ck = sample(&g);
        let dir = std::env::temp_dir().join("alt-checkpoint-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("ck-{}.json", std::process::id()));
        let path_s = path.to_str().unwrap();
        ck.save(path_s).unwrap();
        let back = TunerCheckpoint::load(path_s).unwrap();
        assert_eq!(back.used, ck.used);
        std::fs::remove_file(&path).ok();
        let err = TunerCheckpoint::load(path_s).unwrap_err();
        assert_eq!(err.kind(), "checkpoint");
        std::fs::write(&path, "not json").unwrap();
        let err = TunerCheckpoint::load(path_s).unwrap_err();
        assert_eq!(err.kind(), "checkpoint");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_checkpoint_is_a_typed_error_not_a_panic() {
        // A checkpoint torn mid-write (the failure `save`'s atomic
        // temp+rename now prevents, but which pre-existing files on disk
        // may still exhibit) must surface as `AltError::Checkpoint`.
        let g = graph();
        let ck = sample(&g);
        let dir = std::env::temp_dir().join("alt-checkpoint-torn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("ck-{}.json", std::process::id()));
        let path_s = path.to_str().unwrap();
        ck.save(path_s).unwrap();
        let full = std::fs::read_to_string(&path).unwrap();
        for cut in [1, full.len() / 2, full.len() - 1] {
            std::fs::write(&path, &full[..cut]).unwrap();
            let err = TunerCheckpoint::load(path_s).unwrap_err();
            assert_eq!(err.kind(), "checkpoint", "cut at {cut}");
        }
        // And no temp-file droppings from the atomic save.
        let leftovers = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .count();
        assert_eq!(leftovers, 0);
        std::fs::remove_file(&path).ok();
    }
}
