//! Correctness gate: counts every checked operation and every failure.
//!
//! Native outputs are checked against `alt_tensor::exec::eval_point`, the
//! reference evaluator that ignores layouts and schedules. Each graph node
//! is evaluated on its *own* inputs as the native run produced them
//! (graph inputs and parameters come from the logical bindings), so one
//! wrong node fails by itself instead of poisoning everything downstream,
//! and no full reference run of the graph is needed.

use std::collections::HashMap;

use alt_tensor::exec::eval_point;
use alt_tensor::{Graph, NdBuf, TensorId, TensorKind};
use rand::rngs::StdRng;
use rand::Rng;

/// Relative tolerance of a reference check: `|got - want|` must not
/// exceed `RTOL * max(1, |want|)`. Native and reference sums may group
/// reduction terms differently; NaN or infinity on either side fails.
pub const RTOL: f32 = 1e-3;

/// Sampled output points per graph node (every point of smaller outputs).
pub const POINTS_PER_NODE: usize = 48;

/// Attempted and failed operation counts, with the first few failures.
#[derive(Debug, Default)]
pub struct Gate {
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose check failed.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub errors: Vec<String>,
}

impl Gate {
    /// Counts one operation; records a failure when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.errors.len() < 16 {
                self.errors.push(what());
            }
        }
    }
}

/// Whether a native value matches its reference value.
pub fn close(got: f32, want: f32) -> bool {
    got.is_finite() && want.is_finite() && (got - want).abs() <= RTOL * want.abs().max(1.0)
}

/// The points of `numel` elements checked for one node: all of them when
/// there are few, else the first, the last and seeded random others.
fn sample_offsets(numel: i64, rng: &mut StdRng) -> Vec<i64> {
    if numel <= POINTS_PER_NODE as i64 {
        return (0..numel).collect();
    }
    let mut offs = vec![0, numel - 1];
    offs.extend((2..POINTS_PER_NODE).map(|_| rng.gen_range(0..numel)));
    offs
}

/// Checks every node of `graph`, in node (and so output `TensorId`)
/// order, at sampled points of its native output.
pub fn check_outputs(
    gate: &mut Gate,
    label: &str,
    graph: &Graph,
    bindings: &HashMap<TensorId, NdBuf>,
    native: &HashMap<TensorId, NdBuf>,
    rng: &mut StdRng,
) {
    for node in graph.nodes() {
        let name = &node.compute.name;
        let inputs: Option<Vec<&NdBuf>> = node
            .inputs
            .iter()
            .map(|t| match graph.tensor(*t).kind {
                TensorKind::Intermediate => native.get(t),
                _ => bindings.get(t),
            })
            .collect();
        let shape = &graph.tensor(node.output).shape;
        let out = native.get(&node.output).filter(|b| b.shape() == shape);
        let (Some(inputs), Some(out)) = (inputs, out) else {
            gate.check(false, || {
                format!("{label}: node {name}: native tensor missing or misshapen")
            });
            continue;
        };
        for off in sample_offsets(shape.numel(), rng) {
            let idx = shape.unflatten(off);
            let want = eval_point(&node.compute, &idx, &inputs);
            let got = out.get(&idx);
            gate.check(close(got, want), || {
                format!("{label}: node {name} at {idx:?}: native {got} vs reference {want}")
            });
        }
    }
}

/// Bitwise equality of two native runs' outputs for `graph`'s tensors,
/// in `TensorId` order (NaN-safe: compares bit patterns).
pub fn same_bits(
    graph: &Graph,
    a: &HashMap<TensorId, NdBuf>,
    b: &HashMap<TensorId, NdBuf>,
) -> bool {
    (0..graph.num_tensors())
        .map(TensorId)
        .all(|t| match (a.get(&t), b.get(&t)) {
            (Some(x), Some(y)) => {
                x.shape() == y.shape()
                    && x.data()
                        .iter()
                        .zip(y.data())
                        .all(|(p, q)| p.to_bits() == q.to_bits())
            }
            (None, None) => true,
            _ => false,
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alt_tensor::exec::{random_bindings, run_graph};
    use alt_tensor::{ops, Shape};
    use rand::SeedableRng;

    /// Two same-shaped GMMs (so their outputs can be swapped) and a ReLU.
    fn graph() -> (Graph, TensorId, TensorId, TensorId) {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new([4, 6]));
        let w1 = g.add_param("w1", Shape::new([6, 5]));
        let w2 = g.add_param("w2", Shape::new([6, 5]));
        let y1 = ops::gmm(&mut g, x, w1);
        let y2 = ops::gmm(&mut g, x, w2);
        let z = ops::relu(&mut g, y1);
        (g, y1, y2, z)
    }

    fn reference(g: &Graph, bindings: &HashMap<TensorId, NdBuf>) -> HashMap<TensorId, NdBuf> {
        run_graph(g, bindings)
            .into_iter()
            .enumerate()
            .map(|(k, b)| (TensorId(k), b))
            .collect()
    }

    fn gate(
        g: &Graph,
        bindings: &HashMap<TensorId, NdBuf>,
        out: &HashMap<TensorId, NdBuf>,
    ) -> Gate {
        let mut gate = Gate::default();
        check_outputs(
            &mut gate,
            "t",
            g,
            bindings,
            out,
            &mut StdRng::seed_from_u64(1),
        );
        gate
    }

    fn failures(
        g: &Graph,
        bindings: &HashMap<TensorId, NdBuf>,
        out: &HashMap<TensorId, NdBuf>,
    ) -> u64 {
        gate(g, bindings, out).failed
    }

    #[test]
    fn reference_outputs_pass_at_every_point() {
        let (g, ..) = graph();
        let b = random_bindings(&g, 3);
        let gate = gate(&g, &b, &reference(&g, &b));
        assert_eq!((gate.attempted, gate.failed), (3 * 20, 0));
    }

    #[test]
    fn flags_one_perturbed_element() {
        let (g, _, y2, _) = graph();
        let b = random_bindings(&g, 3);
        let mut out = reference(&g, &b);
        let buf = out.get_mut(&y2).expect("y2");
        let v = buf.get(&[2, 3]);
        buf.set(&[2, 3], v + 0.01);
        assert_eq!(failures(&g, &b, &out), 1);
    }

    #[test]
    fn flags_a_nan() {
        let (g, _, _, z) = graph();
        let b = random_bindings(&g, 3);
        let mut out = reference(&g, &b);
        out.get_mut(&z).expect("z").set(&[0, 0], f32::NAN);
        assert_eq!(failures(&g, &b, &out), 1);
        assert!(!close(f32::NAN, f32::NAN));
        assert!(!close(1.0, f32::INFINITY));
    }

    #[test]
    fn flags_two_swapped_outputs() {
        let (g, y1, y2, _) = graph();
        let b = random_bindings(&g, 3);
        let mut out = reference(&g, &b);
        let a = out.remove(&y1).expect("y1");
        let c = out.insert(y2, a).expect("y2");
        out.insert(y1, c);
        // Both GMMs and the ReLU (which now reads the wrong y1) fail.
        assert!(failures(&g, &b, &out) >= 2 * 20);
    }

    #[test]
    fn flags_a_missing_tensor() {
        let (g, _, _, z) = graph();
        let b = random_bindings(&g, 3);
        let mut out = reference(&g, &b);
        out.remove(&z);
        assert_eq!(failures(&g, &b, &out), 1);
    }

    #[test]
    fn tolerance_is_relative_with_a_unit_floor() {
        assert!(close(1000.0, 1000.9));
        assert!(!close(1000.0, 1001.1));
        assert!(close(0.0, 0.0009));
        assert!(!close(0.0, 0.0011));
    }

    #[test]
    fn same_bits_sees_a_flipped_bit() {
        let (g, y1, ..) = graph();
        let b = random_bindings(&g, 3);
        let out = reference(&g, &b);
        let mut other = out.clone();
        let buf = other.get_mut(&y1).expect("y1");
        let v = buf.get(&[0, 0]);
        buf.set(&[0, 0], f32::from_bits(v.to_bits() ^ 1));
        assert!(same_bits(&g, &out, &out.clone()));
        assert!(!same_bits(&g, &out, &other));
    }
}
