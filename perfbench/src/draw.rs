//! Work-bounded draw of one Fig. 9 configuration per operator family.
//!
//! The pools are those of paper §7.1 (and of `alt_bench::single_op_cases`):
//! batch {1, 16}, channels {16, 32, 64, 128}, spatial {16, 32, 64},
//! kernel {1, 3}, stride {1, 2}, GMM sides {64, 128, 256}. Drawing one
//! point from each pool independently lets a single op's work range over
//! four orders of magnitude, so instead every configuration the pools can
//! produce is enumerated, those whose FLOPs fall outside
//! `[MIN_FLOPS, MAX_FLOPS)` are dropped, and the seed picks uniformly
//! among the rest. Every seed therefore gets nine ops of similar size.

use alt_tensor::ops::{self, ConvCfg};
use alt_tensor::{Graph, Shape};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The nine layout-sensitive operator families of Fig. 9.
pub const FAMILIES: [&str; 9] = [
    "C2D", "GRP", "DIL", "DEP", "C3D", "C1D", "GMM", "T2D", "T3D",
];

/// Lower FLOP bound of a drawn op (inclusive).
pub const MIN_FLOPS: u64 = 1 << 19;
/// Upper FLOP bound of a drawn op (exclusive).
pub const MAX_FLOPS: u64 = 1 << 21;

const BATCHES: [i64; 2] = [1, 16];
const CHANS: [i64; 4] = [16, 32, 64, 128];
const SPATIAL: [i64; 3] = [16, 32, 64];
const KERNELS: [i64; 2] = [1, 3];
const STRIDES: [i64; 2] = [1, 2];
const GMM_SIDES: [i64; 3] = [64, 128, 256];

/// One drawn single-operator task.
#[derive(Clone, Debug)]
pub struct OpCase {
    /// Operator family (C2D, GRP, ...).
    pub family: &'static str,
    /// Configuration, e.g. `n1_i32_o64_s16_k3_st1_g1_d1`.
    pub config: String,
    /// A graph holding exactly this operator.
    pub graph: Graph,
}

impl OpCase {
    /// Floating-point work of the operator.
    pub fn flops(&self) -> u64 {
        self.graph.total_flops()
    }
}

#[allow(clippy::too_many_arguments)]
fn conv2d_case(
    family: &'static str,
    n: i64,
    i: i64,
    o: i64,
    hw: i64,
    k: i64,
    stride: i64,
    groups: i64,
    dilation: i64,
) -> OpCase {
    let mut g = Graph::new();
    let x = g.add_input("x", Shape::new([n, i, hw, hw]));
    let w = g.add_param("w", Shape::new([o, i / groups, k, k]));
    let cfg = ConvCfg {
        stride,
        groups,
        dilation,
        ..ConvCfg::default()
    };
    ops::conv2d(&mut g, x, w, cfg);
    OpCase {
        family,
        config: format!("n{n}_i{i}_o{o}_s{hw}_k{k}_st{stride}_g{groups}_d{dilation}"),
        graph: g,
    }
}

/// The configuration of `family` that one draw of the §7.1 pools yields,
/// built exactly as `alt_bench::single_op_cases` builds it.
fn build(family: &'static str, n: i64, i: i64, o: i64, s: i64, k: i64, st: i64) -> OpCase {
    let hw = s + k - 1 + (s % st);
    match family {
        "C2D" => conv2d_case(family, n, i, o, hw, k, st, 1, 1),
        "GRP" => conv2d_case(family, n, i, o, hw, k, st, 4, 1),
        "DIL" => conv2d_case(family, n, i, o, s + (k - 1) * 2 + 1, k, 1, 1, 2),
        "DEP" => conv2d_case(family, n, i, i, hw, k, st, i, 1),
        "C3D" => {
            let (i, o) = (i.min(32), o.min(32));
            let (d, sp) = (8 + k - 1, s.min(32) + k - 1);
            let mut g = Graph::new();
            let x = g.add_input("x", Shape::new([n, i, d, sp, sp]));
            let w = g.add_param("w", Shape::new([o, i, k, k, k]));
            ops::conv3d(&mut g, x, w, ConvCfg::default());
            OpCase {
                family,
                config: format!("n{n}_i{i}_o{o}_s{sp}_k{k}"),
                graph: g,
            }
        }
        "C1D" => {
            let len = s * 8 + k - 1;
            let mut g = Graph::new();
            let x = g.add_input("x", Shape::new([n, i, len]));
            let w = g.add_param("w", Shape::new([o, i, k]));
            ops::conv1d(&mut g, x, w, ConvCfg::default());
            OpCase {
                family,
                config: format!("n{n}_i{i}_o{o}_l{len}_k{k}"),
                graph: g,
            }
        }
        "T2D" => {
            let sp = s.min(32);
            let mut g = Graph::new();
            let x = g.add_input("x", Shape::new([n, i, sp, sp]));
            let w = g.add_param("w", Shape::new([i, o, k, k]));
            ops::tconv2d(&mut g, x, w, st);
            OpCase {
                family,
                config: format!("n{n}_i{i}_o{o}_s{sp}_k{k}_st{st}"),
                graph: g,
            }
        }
        "T3D" => {
            let (i, o, sp) = (i.min(32), o.min(32), 16);
            let mut g = Graph::new();
            let x = g.add_input("x", Shape::new([n, i, 4, sp, sp]));
            let w = g.add_param("w", Shape::new([i, o, k, k, k]));
            ops::tconv3d(&mut g, x, w, st);
            OpCase {
                family,
                config: format!("n{n}_i{i}_o{o}_s{sp}_k{k}_st{st}"),
                graph: g,
            }
        }
        other => unreachable!("not a conv family: {other}"),
    }
}

fn gmm_case(m: i64, k: i64, n: i64) -> OpCase {
    let mut g = Graph::new();
    let a = g.add_input("a", Shape::new([m, k]));
    let b = g.add_param("b", Shape::new([k, n]));
    ops::gmm(&mut g, a, b);
    OpCase {
        family: "GMM",
        config: format!("m{m}_k{k}_n{n}"),
        graph: g,
    }
}

/// Every distinct configuration of `family` the pools can produce whose
/// work lies in `[MIN_FLOPS, MAX_FLOPS)`, in a fixed enumeration order.
pub fn bounded_pool(family: &'static str) -> Vec<OpCase> {
    let mut out: Vec<OpCase> = Vec::new();
    let mut keep = |case: OpCase| {
        let f = case.flops();
        if (MIN_FLOPS..MAX_FLOPS).contains(&f) && out.iter().all(|c| c.config != case.config) {
            out.push(case);
        }
    };
    if family == "GMM" {
        for n in BATCHES {
            for m in GMM_SIDES {
                for k in GMM_SIDES {
                    for nn in GMM_SIDES {
                        keep(gmm_case(m * n.min(4), k, nn));
                    }
                }
            }
        }
        return out;
    }
    for n in BATCHES {
        for i in CHANS {
            for o in CHANS {
                for s in SPATIAL {
                    for k in KERNELS {
                        for st in STRIDES {
                            keep(build(family, n, i, o, s, k, st));
                        }
                    }
                }
            }
        }
    }
    out
}

/// Draws one bounded configuration per family, deterministically in
/// `seed`.
pub fn draw(seed: u64) -> Vec<OpCase> {
    let mut rng = StdRng::seed_from_u64(seed);
    FAMILIES
        .iter()
        .map(|&family| {
            let mut pool = bounded_pool(family);
            assert!(
                !pool.is_empty(),
                "{family}: no configuration within the work bound"
            );
            let pick = rng.gen_range(0..pool.len());
            pool.swap_remove(pick)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_family_has_a_bounded_configuration() {
        let sizes: Vec<usize> = FAMILIES.iter().map(|f| bounded_pool(f).len()).collect();
        assert!(sizes.iter().all(|&n| n >= 1), "pool sizes {sizes:?}");
        assert!(sizes.iter().sum::<usize>() >= 9 * 4, "pool sizes {sizes:?}");
    }

    #[test]
    fn draw_is_deterministic_per_seed() {
        let key = |cases: &[OpCase]| cases.iter().map(|c| c.config.clone()).collect::<Vec<_>>();
        assert_eq!(key(&draw(7)), key(&draw(7)));
        let distinct: std::collections::HashSet<Vec<String>> =
            (0..6).map(|s| key(&draw(s))).collect();
        assert!(distinct.len() > 1, "the seed never changes the draw");
    }

    #[test]
    fn draw_stays_within_the_work_bound_across_seeds() {
        for seed in [0, 1, 2, 42, 2023, 9999] {
            let cases = draw(seed);
            let families: Vec<&str> = cases.iter().map(|c| c.family).collect();
            assert_eq!(families, FAMILIES);
            for c in &cases {
                let f = c.flops();
                assert!(
                    (MIN_FLOPS..MAX_FLOPS).contains(&f),
                    "seed {seed} {} {}: {f} FLOPs",
                    c.family,
                    c.config
                );
            }
            let total: u64 = cases.iter().map(OpCase::flops).sum();
            assert!((9 * MIN_FLOPS..9 * MAX_FLOPS).contains(&total));
        }
    }
}
