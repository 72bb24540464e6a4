//! Property-based tests: every randomly generated primitive sequence must
//! preserve the fundamental layout invariants.

#![allow(clippy::unwrap_used)]

use proptest::prelude::*;

use alt_layout::{Layout, LayoutPrim};
use alt_tensor::{NdBuf, Shape};

/// Generates a random small logical shape (2-4 dims, sizes 1-12).
fn arb_shape() -> impl Strategy<Value = Shape> {
    prop::collection::vec(1i64..=12, 2..=4).prop_map(Shape::new)
}

/// Generates a random factorization of `n` into >= 2 factors.
fn factorize(n: i64, rng_val: u64) -> Vec<i64> {
    let mut factors = Vec::new();
    let mut rest = n;
    let mut x = rng_val;
    while rest > 1 && factors.len() < 2 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
        let divs: Vec<i64> = (1..=rest).filter(|d| rest % d == 0).collect();
        let f = divs[(x >> 33) as usize % divs.len()];
        factors.push(f);
        rest /= f;
    }
    factors.push(rest);
    factors
}

/// Applies up to `n_prims` random valid primitives to a layout.
fn random_layout(shape: Shape, seed: u64, n_prims: usize) -> Layout {
    let mut layout = Layout::identity(shape);
    let mut x = seed;
    let mut next = || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as usize
    };
    for _ in 0..n_prims {
        let dims = layout.physical_shape();
        let nd = dims.ndim();
        match next() % 9 {
            0 => {
                // Split a dimension with size > 1.
                let candidates: Vec<usize> = (0..nd).filter(|&k| dims.dim(k) > 1).collect();
                if let Some(&k) = candidates.get(next() % candidates.len().max(1)) {
                    let factors = factorize(dims.dim(k), next() as u64);
                    if factors.len() >= 2 {
                        let _ = layout.apply(LayoutPrim::Split { dim: k, factors });
                    }
                }
            }
            1 => {
                // Random permutation.
                let mut perm: Vec<usize> = (0..nd).collect();
                for i in (1..nd).rev() {
                    perm.swap(i, next() % (i + 1));
                }
                let _ = layout.apply(LayoutPrim::Reorder { perm });
            }
            2 => {
                if nd >= 2 {
                    let start = next() % (nd - 1);
                    let count = 2 + next() % (nd - start - 1).max(1);
                    let count = count.min(nd - start);
                    let _ = layout.apply(LayoutPrim::Fuse { start, count });
                }
            }
            3 => {
                let k = next() % nd;
                let d = dims.dim(k);
                if d >= 2 {
                    let tile = 2 + (next() as i64) % (d - 1);
                    let stride = 1 + (next() as i64) % tile;
                    let _ = layout.apply(LayoutPrim::Unfold {
                        dim: k,
                        tile,
                        stride,
                    });
                }
            }
            4 => {
                let k = next() % nd;
                let _ = layout.apply(LayoutPrim::Pad {
                    dim: k,
                    before: (next() % 3) as i64,
                    after: (next() % 3) as i64,
                });
            }
            5 => {
                let _ = layout.apply(LayoutPrim::StoreAtHost { dim: next() % nd });
            }
            6 => {
                // Swizzle a dimension with an even size by up to its
                // power-of-two factor; odd sizes are drawn and rejected.
                let dim = next() % nd;
                let src = next() % nd;
                let twos = dims.dim(dim).trailing_zeros().max(1);
                let bits = 1 + (next() as u32) % twos;
                let _ = layout.apply(LayoutPrim::Swizzle { dim, src, bits });
            }
            7 => {
                // Morton needs two adjacent equal power-of-two dims:
                // prefer such a pair when one exists.
                let pairs: Vec<usize> = (0..nd.saturating_sub(1))
                    .filter(|&k| dims.dim(k) == dims.dim(k + 1) && dims.dim(k).count_ones() == 1)
                    .collect();
                let dim = match pairs.get(next() % pairs.len().max(1)) {
                    Some(&k) => k,
                    None => next() % nd,
                };
                let _ = layout.apply(LayoutPrim::Morton { dim });
            }
            _ => {
                let dim = next() % nd;
                let src = next() % nd;
                let block = 1 + (next() as i64) % dims.dim(dim);
                let _ = layout.apply(LayoutPrim::BlockDiag { dim, src, block });
            }
        }
    }
    layout
}

/// Per-element pack: every physical slot through `physical_to_logical`,
/// zero where it holds no logical element.
fn reference_pack(layout: &Layout, logical: &NdBuf) -> NdBuf {
    let phys = layout.physical_shape();
    let mut out = NdBuf::zeros(phys.clone());
    for pidx in phys.iter_indices() {
        if let Some(lidx) = layout.physical_to_logical(&pidx).unwrap() {
            out.set(&pidx, logical.get(&lidx));
        }
    }
    out
}

/// Per-element unpack: every logical index from its canonical slot.
fn reference_unpack(layout: &Layout, physical: &NdBuf) -> NdBuf {
    let shape = layout.logical_shape().clone();
    let mut out = NdBuf::zeros(shape.clone());
    for lidx in shape.iter_indices() {
        out.set(
            &lidx,
            physical.get(&layout.logical_to_physical(&lidx).unwrap()),
        );
    }
    out
}

fn bits(b: &NdBuf) -> Vec<u32> {
    b.data().iter().map(|v| v.to_bits()).collect()
}

/// The generator reaches every primitive kind, so the properties below
/// cover all nine.
#[test]
fn random_layouts_draw_every_primitive() {
    let mut seen = std::collections::BTreeSet::new();
    for seed in 0..400u64 {
        for dims in [vec![4, 4, 6], vec![8, 8], vec![3, 12, 5, 2]] {
            for p in random_layout(Shape::new(dims), seed, 4).prims() {
                seen.insert(
                    format!("{p:?}")
                        .split([' ', '{'])
                        .next()
                        .unwrap()
                        .to_string(),
                );
            }
        }
    }
    assert_eq!(seen.len(), 9, "primitives drawn: {seen:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// pack followed by unpack restores the logical buffer exactly, for
    /// any primitive sequence (including overlapping unfolds and pads).
    #[test]
    fn pack_unpack_roundtrip(shape in arb_shape(), seed in any::<u64>(), n in 0usize..4) {
        let layout = random_layout(shape.clone(), seed, n);
        let logical = NdBuf::from_fn(shape, |i| (i % 251) as f32 + 1.0);
        let packed = layout.pack(&logical).unwrap();
        let unpacked = layout.unpack(&packed).unwrap();
        prop_assert_eq!(unpacked.data(), logical.data());
    }

    /// The canonical physical slot of every logical index is in bounds and
    /// inverts back to the same logical index.
    #[test]
    fn logical_physical_inverse(shape in arb_shape(), seed in any::<u64>(), n in 0usize..4) {
        let layout = random_layout(shape.clone(), seed, n);
        let phys = layout.physical_shape();
        for idx in shape.iter_indices().step_by(7) {
            let p = layout.logical_to_physical(&idx).unwrap();
            for (pi, pd) in p.iter().zip(phys.dims()) {
                prop_assert!(*pi >= 0 && pi < pd, "physical index out of bounds");
            }
            let back = layout.physical_to_logical(&p).unwrap();
            prop_assert_eq!(back, Some(idx));
        }
    }

    /// Physical capacity is always >= logical element count (data can be
    /// duplicated or padded, never lost).
    #[test]
    fn physical_capacity_bounds(shape in arb_shape(), seed in any::<u64>(), n in 0usize..4) {
        let layout = random_layout(shape.clone(), seed, n);
        prop_assert!(layout.physical_shape().numel() >= shape.numel());
    }

    /// Every physical slot either maps to a valid logical element or is
    /// reported as a hole (None); the union of mapped slots covers all
    /// logical elements.
    #[test]
    fn physical_slots_cover_logical(shape in arb_shape(), seed in any::<u64>(), n in 0usize..3) {
        let layout = random_layout(shape.clone(), seed, n);
        let phys = layout.physical_shape();
        prop_assume!(phys.numel() <= 4096);
        let mut covered = vec![false; shape.numel() as usize];
        for pidx in phys.iter_indices() {
            if let Some(lidx) = layout.physical_to_logical(&pidx).unwrap() {
                covered[shape.flatten(&lidx) as usize] = true;
            }
        }
        prop_assert!(covered.iter().all(|&c| c), "some logical element has no slot");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The compiled pack equals the per-element map bit for bit: every
    /// logical value lands in each slot that holds it (duplicated unfold
    /// overlap included) and every hole stays 0.0. Values start at 1.0,
    /// so a hole filled by mistake shows.
    #[test]
    fn compiled_pack_matches_per_element(shape in arb_shape(), seed in any::<u64>(), n in 0usize..5) {
        let layout = random_layout(shape.clone(), seed, n);
        prop_assume!(layout.physical_shape().numel() <= 1 << 15);
        let logical = NdBuf::from_fn(shape, |i| i as f32 + 1.0);
        let packed = layout.pack(&logical).unwrap();
        let want = reference_pack(&layout, &logical);
        prop_assert!(bits(&packed) == bits(&want), "pack differs for {}", layout);
    }

    /// The compiled unpack reads the same canonical slot per element as
    /// `logical_to_physical` (both without variable extents). Every
    /// physical slot holds a distinct value, so reading another copy of a
    /// duplicated element shows.
    #[test]
    fn compiled_unpack_matches_per_element(shape in arb_shape(), seed in any::<u64>(), n in 0usize..5) {
        let layout = random_layout(shape, seed, n);
        let phys = layout.physical_shape();
        prop_assume!(phys.numel() <= 1 << 15);
        let physical = NdBuf::from_fn(phys, |i| i as f32 + 1.0);
        let unpacked = layout.unpack(&physical).unwrap();
        let want = reference_unpack(&layout, &physical);
        prop_assert!(bits(&unpacked) == bits(&want), "unpack differs for {}", layout);
    }
}
