//! Golden digests of the tuner's observable output.
//!
//! Every other tuner property test compares two runs of one build. This
//! one pins the output itself across versions: a cold run (journal,
//! trace, periodic checkpoints and a fresh store attached) and a warm
//! rerun against that store. A single conv+bias+relu runs once
//! fault-free and once at a 0.2 fault rate; BERT-tiny under Full
//! propagation with fixed input layouts adds a network whose plans carry
//! layout-conversion groups and fused chains. The digests cover the
//! journal lines, the deterministic trace records (wall-clock spans and
//! events excluded), the last checkpoint's bytes, the stored winner
//! payload, and the winner latency bits plus the measurement history. A
//! refactor that keeps these constants keeps every byte a user can
//! observe.

use std::sync::Arc;

use alt_autotune::{task_fingerprint, tune_graph, FaultConfig, TuneConfig, TuneResult};
use alt_layout::PropagationMode;
use alt_loopir::hash::Fnv1a;
use alt_sim::{intel_cpu, profile_fingerprint};
use alt_store::Store;
use alt_telemetry::{MemorySink, Record, Telemetry};
use alt_tensor::ops::{self, ConvCfg};
use alt_tensor::{Graph, Shape};

fn conv_graph() -> Graph {
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new([1, 16, 34, 34]));
    let w = g.add_param("w", Shape::new([32, 16, 3, 3]));
    let c = ops::conv2d(&mut g, x, w, ConvCfg::default());
    let b = g.add_param("b", Shape::new([32]));
    let ba = ops::bias_add(&mut g, c, b, 1);
    let _ = ops::relu(&mut g, ba);
    g
}

fn base_cfg(seed: u64, fault_rate: f64) -> TuneConfig {
    TuneConfig {
        joint_budget: 24,
        loop_budget: 24,
        batch: 8,
        topk: 2,
        free_input_layouts: true,
        seed,
        jobs: 1,
        faults: (fault_rate > 0.0).then(|| FaultConfig::uniform(fault_rate)),
        ..TuneConfig::default()
    }
}

/// BERT-tiny at a budget small enough for a debug-build test, with the
/// network defaults that matter here: Full propagation and graph inputs
/// kept in their given layout, so committed layouts insert conversions.
fn bert_cfg(seed: u64) -> TuneConfig {
    TuneConfig {
        joint_budget: 12,
        loop_budget: 12,
        batch: 6,
        topk: 2,
        mode: PropagationMode::Full,
        free_input_layouts: false,
        seed,
        jobs: 1,
        ..TuneConfig::default()
    }
}

fn digest_lines<S: AsRef<str>>(lines: &[S]) -> u64 {
    let mut h = Fnv1a::new();
    for l in lines {
        h.str(l.as_ref());
    }
    h.finish()
}

fn digest_result(r: &TuneResult) -> u64 {
    let mut h = Fnv1a::new();
    h.f64(r.latency);
    h.u64(r.history.len() as u64);
    for &(used, lat) in &r.history {
        h.u64(used);
        h.f64(lat);
    }
    h.finish()
}

/// Journal, trace and result digests of one run, and its result.
fn traced_run(graph: &Graph, cfg: TuneConfig) -> ([u64; 3], TuneResult) {
    let sink = Arc::new(MemorySink::new());
    let (journal, jsink) = alt_journal::Journal::memory();
    let result = tune_graph(
        graph,
        intel_cpu(),
        TuneConfig {
            telemetry: Telemetry::new(sink.clone()),
            journal,
            ..cfg
        },
    );
    let trace: Vec<String> = sink
        .records()
        .iter()
        .filter(|r| !matches!(r, Record::Span(_) | Record::Event(_)))
        .map(|r| serde_json::to_string(r).expect("record serializes"))
        .collect();
    let digests = [
        digest_lines(&jsink.lines()),
        digest_lines(&trace),
        digest_result(&result),
    ];
    (digests, result)
}

/// Digests of the cold run (journal, trace, result, checkpoint, winner)
/// and the warm rerun (journal, trace, result) of `graph` under `cfg`,
/// and the cold run's result.
fn digests(name: &str, graph: &Graph, cfg: TuneConfig) -> ([u64; 8], TuneResult) {
    let dir = std::env::temp_dir().join(format!(
        "alt-golden-digest-{}-{name}-{}",
        std::process::id(),
        cfg.seed
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let ck = dir
        .join("ck.json")
        .to_str()
        .expect("utf-8 path")
        .to_string();
    let store = Arc::new(Store::open(dir.join("store.alts")).expect("open store"));

    let (cold, cold_result) = traced_run(
        graph,
        TuneConfig {
            checkpoint_path: Some(ck.clone()),
            checkpoint_every: 8,
            store: Some(store.clone()),
            ..cfg.clone()
        },
    );
    let mut ck_digest = Fnv1a::new();
    ck_digest.write(&std::fs::read(&ck).expect("a checkpoint was written"));
    let fp = task_fingerprint(graph, profile_fingerprint(&intel_cpu()), &cfg)
        .expect("fingerprintable config");
    let payload = store
        .get(alt_store::kind::WINNER, fp)
        .expect("the cold run published its winner");
    let mut winner_digest = Fnv1a::new();
    winner_digest.write(&payload);

    let (warm, _) = traced_run(
        graph,
        TuneConfig {
            store: Some(store),
            ..cfg
        },
    );
    std::fs::remove_dir_all(&dir).ok();
    let all = [
        cold[0],
        cold[1],
        cold[2],
        ck_digest.finish(),
        winner_digest.finish(),
        warm[0],
        warm[1],
        warm[2],
    ];
    (all, cold_result)
}

const NAMES: [&str; 8] = [
    "cold journal",
    "cold trace",
    "cold result",
    "checkpoint",
    "winner payload",
    "warm journal",
    "warm trace",
    "warm result",
];

/// Checks the digests of one case and returns its cold run's result.
fn check(name: &str, graph: &Graph, cfg: TuneConfig, want: [u64; 8]) -> TuneResult {
    let (seed, faults) = (cfg.seed, cfg.faults.clone());
    let (got, cold) = digests(name, graph, cfg);
    let diffs: Vec<String> = NAMES
        .iter()
        .zip(got.iter().zip(want.iter()))
        .filter(|(_, (g, w))| g != w)
        .map(|(n, (g, w))| format!("{n}: got {g:#018x}, want {w:#018x}"))
        .collect();
    assert!(
        diffs.is_empty(),
        "{name} seed {seed} with faults {faults:?}: observable output changed\n{}\nall: {got:#018x?}",
        diffs.join("\n")
    );
    cold
}

#[test]
fn fault_free_run_matches_golden_digests() {
    let _ = check(
        "conv",
        &conv_graph(),
        base_cfg(7, 0.0),
        [
            0x4f5d283df1f3258c,
            0xb9c8ba79b9253fca,
            0xbe3af002bdcf792a,
            0x6d724384ebb9f74c,
            0xa9b899891c6b178f,
            0xecc48be6c0fa6726,
            0x79f165abd717b881,
            0x05c51f5818fd3af2,
        ],
    );
}

#[test]
fn faulted_run_matches_golden_digests() {
    let _ = check(
        "conv",
        &conv_graph(),
        base_cfg(11, 0.2),
        [
            0xba9e3ed694661431,
            0x1d38b0bb18754d91,
            0x90d0ca6ff71fb7ee,
            0xbb224872f3e9ad87,
            0xb64461b42821e72f,
            0xbd5cde5ac62b6d9c,
            0x79f165abd717b881,
            0xad487c5b53d592c4,
        ],
    );
}

#[test]
fn bert_tiny_run_matches_golden_digests() {
    let cold = check(
        "bert-tiny",
        &alt_models::bert_tiny(1),
        bert_cfg(3),
        [
            0xdb9820921f05b8f2,
            0x0944fa948e6eb6d8,
            0x10d722f995a7c4bc,
            0x465190778e2e7f51,
            0xaa123c0d73bca850,
            0x8f6219747e5dedd4,
            0x79f165abd717b881,
            0x13717c9748a33e7f,
        ],
    );
    // The case exists for its conversion groups: the embeddings input
    // keeps its given layout, so committed layouts convert it.
    assert!(
        !cold.plan.conversions().is_empty(),
        "the BERT-tiny winner should carry layout conversions"
    );
}
