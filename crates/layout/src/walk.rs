//! Compiled index walks: the inner loop of every layout conversion.
//!
//! A conversion (pack, unpack, `store_at` embed and extract) visits each
//! point of one buffer's index space in row-major order and moves one
//! element to or from a flat offset in another buffer, through the
//! layout's access map. Running the primitive chain's symbolic rewrite per
//! element costs about a microsecond, so an [`IndexWalk`] rewrites the map
//! once over loop variables instead and compiles the resulting
//! expressions with [`SlotCompiler`], the loop-nest index compiler the
//! native kernels share: hash-consed three-address ops, each placed at
//! the loop of its deepest variable. A row-major odometer then reruns
//! only the levels whose variables changed: most ops run once per row or
//! once per tile. A row whose offset is affine in the innermost variable
//! and whose validity is not computed at the innermost level (so is
//! constant along the row) is strided: it runs the innermost ops once
//! and steps the offset by its stride. Other rows (a swizzled or Morton
//! innermost dimension, padding on it) run the innermost ops per element.
//!
//! Conditions that the loop bounds already decide (a coordinate that is a
//! plain loop variable is always in range, a split's quotient is always
//! below its factor) fold to constants at compile time by the compiler's
//! interval rules, so they cost nothing per element. The walk keeps no
//! per-element table: its state is one `i64` per variable, constant and
//! op.

use alt_tensor::expr::{BinOp, Expr, Var};
use alt_tensor::range::{self, Code, SlotCompiler, SlotOp};
use alt_tensor::Shape;

use crate::primitives::{Layout, LayoutError, VarExtents};

/// What the walk does at a point whose mapped index is out of range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Invalid {
    /// Skip it: padding and unfold overhang hold no logical element.
    Skip,
    /// Stop with an error: a valid layout never maps there.
    Fail,
}

/// A compiled row-major walk over an index space that maps every point to
/// a flat offset in another buffer.
pub(crate) struct IndexWalk {
    what: &'static str,
    extents: Vec<i64>,
    /// The initial slot file; slot `k` holds loop variable `k`.
    init: Vec<i64>,
    /// The ops of each level: `levels[0]` use no variable and
    /// `levels[k + 1]` rerun whenever loop variable `k` steps.
    levels: Vec<Vec<SlotOp>>,
    offset: u32,
    /// The slot holding 1 where the point maps in range; `None` when the
    /// loop bounds already guarantee it.
    valid: Option<u32>,
    on_invalid: Invalid,
    /// The offset's step along a row, when the offset is affine in the
    /// innermost variable and validity is constant along each row (not
    /// computed at the innermost level).
    row_stride: Option<i64>,
}

impl IndexWalk {
    /// Pack: walks the physical space and maps each slot to the row-major
    /// offset of the logical element it holds. Padding and overhang slots
    /// (the inverse map's conditions, or a logical index out of range) are
    /// skipped.
    pub(crate) fn pack(layout: &Layout) -> Result<Self, LayoutError> {
        let phys = layout.try_physical_shape()?;
        let mut b = Builder::new(phys.dims());
        let (logical, conds) = layout.inverse_access(&b.var_exprs())?;
        let mut valid = conds
            .iter()
            .map(|c| b.slots.cond(c).ok_or_else(|| unbound(format!("{c:?}"))))
            .collect::<Result<Vec<_>, _>>()?;
        let offset = b.offset(&logical, layout.logical_shape().dims(), &mut valid)?;
        Ok(b.finish("pack", offset, valid, Invalid::Skip))
    }

    /// Unpack and `store_at` guests: walks `space` and maps each point
    /// through the forward access map (with the canonical, pattern-free
    /// unfold placement) to the row-major offset of its physical slot.
    /// `slot` inserts a fixed logical coordinate `(dim, index)`, which is
    /// how a guest addresses its host's reserved slot.
    pub(crate) fn access(
        what: &'static str,
        layout: &Layout,
        space: &[i64],
        slot: Option<(usize, i64)>,
    ) -> Result<Self, LayoutError> {
        let phys = layout.try_physical_shape()?;
        let mut b = Builder::new(space);
        let mut logical = b.var_exprs();
        if let Some((dim, index)) = slot {
            logical.insert(dim, Expr::c(index));
        }
        let physical = layout.rewrite_access(&logical, &VarExtents::new())?;
        let mut valid = Vec::new();
        let offset = b.offset(&physical, phys.dims(), &mut valid)?;
        Ok(b.finish(what, offset, valid, Invalid::Fail))
    }

    /// Calls `visit(position, offset)` for every point in row-major order,
    /// `position` being the point's row-major offset in the walked space.
    /// Points that map out of range are skipped, or end the walk with
    /// [`LayoutError::IndexOutOfBounds`] when the layout can never map
    /// there.
    pub(crate) fn for_each(&self, mut visit: impl FnMut(usize, usize)) -> Result<(), LayoutError> {
        let n = self.extents.len();
        let mut slots = self.init.clone();
        // Every variable starts at zero: run every level but the
        // innermost, which each row runs itself.
        for ops in &self.levels[..n.max(1)] {
            range::run(ops, &mut slots);
        }
        let inner_extent = self.extents.last().copied().unwrap_or(1);
        let mut idx = vec![0i64; n];
        let mut pos = 0usize;
        loop {
            if let Some(stride) = self.row_stride {
                // A strided row runs its level's ops once, at its first
                // point, and steps the offset from there.
                slots[n - 1] = 0;
                range::run(&self.levels[n], &mut slots);
                if self.valid_at(&slots, pos)? {
                    let mut off = slots[self.offset as usize];
                    for p in pos..pos + inner_extent as usize {
                        visit(p, off as usize);
                        off += stride;
                    }
                }
                pos += inner_extent as usize;
            } else {
                for i in 0..inner_extent {
                    if n > 0 {
                        slots[n - 1] = i;
                        range::run(&self.levels[n], &mut slots);
                    }
                    if self.valid_at(&slots, pos)? {
                        visit(pos, slots[self.offset as usize] as usize);
                    }
                    pos += 1;
                }
            }
            // Advance the odometer over the outer dimensions and rerun
            // the levels of every variable that changed.
            let mut k = n.saturating_sub(1);
            loop {
                if k == 0 {
                    return Ok(());
                }
                k -= 1;
                idx[k] += 1;
                if idx[k] < self.extents[k] {
                    break;
                }
                idx[k] = 0;
            }
            for v in k..n - 1 {
                slots[v] = idx[v];
                range::run(&self.levels[v + 1], &mut slots);
            }
        }
    }

    /// Whether the point at row-major position `pos` maps in range; an
    /// error when it does not and the layout can never map there.
    fn valid_at(&self, slots: &[i64], pos: usize) -> Result<bool, LayoutError> {
        if self.valid.is_none_or(|v| slots[v as usize] != 0) {
            return Ok(true);
        }
        match self.on_invalid {
            Invalid::Skip => Ok(false),
            Invalid::Fail => Err(LayoutError::IndexOutOfBounds {
                what: self.what,
                index: Shape(self.extents.clone()).unflatten(pos as i64),
            }),
        }
    }
}

/// `NonConstantIndex` for an index over a variable the walk does not loop
/// over.
fn unbound(expr: String) -> LayoutError {
    LayoutError::NonConstantIndex {
        what: "index walk",
        expr,
    }
}

/// Compiles a walk's expressions with one open loop per dimension; loop
/// variable `k` has id `k` and, opened first, slot `k`.
struct Builder {
    extents: Vec<i64>,
    slots: SlotCompiler,
}

impl Builder {
    fn new(extents: &[i64]) -> Self {
        let mut slots = SlotCompiler::new();
        for (k, &e) in extents.iter().enumerate() {
            slots.push_loop(k as u32, e);
        }
        Self {
            extents: extents.to_vec(),
            slots,
        }
    }

    /// The loop variables as expressions, outermost first.
    fn var_exprs(&self) -> Vec<Expr> {
        (0..self.extents.len())
            .map(|k| Expr::v(&Var::new(k as u32, format!("i{k}"))))
            .collect()
    }

    /// The row-major offset of `coords` in a buffer of shape `dims`, and
    /// its stride in the innermost variable where it is affine in it;
    /// pushes each coordinate's range condition onto `valid`.
    fn offset(
        &mut self,
        coords: &[Expr],
        dims: &[i64],
        valid: &mut Vec<u32>,
    ) -> Result<(u32, Option<i64>), LayoutError> {
        let strides = Shape(dims.to_vec()).strides();
        let zero = self.slots.constant(0);
        let mut terms = Vec::with_capacity(coords.len());
        let mut flat = Expr::c(0);
        for ((c, &d), &s) in coords.iter().zip(dims).zip(&strides) {
            let x = self.slots.expr(c).ok_or_else(|| unbound(c.to_string()))?;
            let bound = self.slots.constant(d);
            valid.push(self.slots.op(Code::Ge, x, zero));
            valid.push(self.slots.op(Code::Lt, x, bound));
            let stride = self.slots.constant(s);
            terms.push(self.slots.op(Code::Bin(BinOp::Mul), x, stride));
            flat = flat.add(&c.mul_c(s));
        }
        let row_stride = match self.extents.len() {
            0 => None,
            n => self.slots.ranges().stride(&flat, (n - 1) as u32),
        };
        Ok((self.slots.fold(BinOp::Add, terms, 0), row_stride))
    }

    fn finish(
        mut self,
        what: &'static str,
        (offset, row_stride): (u32, Option<i64>),
        valid: Vec<u32>,
        on_invalid: Invalid,
    ) -> IndexWalk {
        // Conditions the loop bounds decide are constants by now: drop
        // the true ones, and AND (min over 0/1) the rest.
        let open: Vec<u32> = valid
            .into_iter()
            .filter(|&s| !self.slots.is_const(s, 1))
            .collect();
        let valid = (!open.is_empty()).then(|| self.slots.fold(BinOp::Min, open, 1));
        // Close the loops innermost first, then take the root.
        let mut levels: Vec<Vec<SlotOp>> =
            self.extents.iter().map(|_| self.slots.pop_loop()).collect();
        levels.push(self.slots.take_root());
        levels.reverse();
        let inner = &levels[levels.len() - 1];
        let row_stride =
            row_stride.filter(|_| valid.is_none_or(|v| inner.iter().all(|op| op.dst != v)));
        IndexWalk {
            what,
            init: self.slots.init(),
            extents: self.extents,
            levels,
            offset,
            valid,
            on_invalid,
            row_stride,
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use crate::presets;
    use crate::primitives::LayoutPrim;

    /// The pack walk and the unpack walk of `layout`.
    fn walks(layout: &Layout) -> [IndexWalk; 2] {
        let unpack = IndexWalk::access("unpack", layout, layout.logical_shape().dims(), None);
        [IndexWalk::pack(layout).unwrap(), unpack.unwrap()]
    }

    /// Every `(position, offset)` the walk visits, in order.
    fn visits(walk: &IndexWalk) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        walk.for_each(|p, o| out.push((p, o))).unwrap();
        out
    }

    /// Asserts both walks of `layout` take the strided row, and visit what
    /// the per-element row visits.
    fn assert_strided(layout: &Layout) {
        for mut walk in walks(layout) {
            assert!(walk.row_stride.is_some(), "{}: not strided", walk.what);
            let got = visits(&walk);
            walk.row_stride = None;
            assert_eq!(got, visits(&walk), "{}", walk.what);
        }
    }

    #[test]
    fn affine_rows_with_constant_validity_are_strided() {
        let shape = Shape::new([2, 8, 3, 5]);
        assert_strided(&Layout::identity(shape.clone()));
        assert_strided(&presets::channel_tiled(shape.clone(), 4).unwrap());
        // Padding an outer dimension: the pack's validity depends on that
        // dimension alone, so it is constant along each row.
        let padded = Layout::identity(shape)
            .with(LayoutPrim::Pad {
                dim: 1,
                before: 1,
                after: 2,
            })
            .unwrap();
        assert_strided(&padded);
    }

    #[test]
    fn non_affine_or_row_varying_rows_are_not_strided() {
        let swizzled = presets::channel_tiled_swizzled(Shape::new([1, 8, 2, 4]), 4, 2).unwrap();
        let morton = presets::morton_spatial(Shape::new([2, 4, 4])).unwrap();
        for layout in [swizzled, morton] {
            for walk in walks(&layout) {
                assert!(walk.row_stride.is_none(), "{}: strided", walk.what);
            }
        }
        // Padding the innermost dimension makes the pack's validity vary
        // along the row, though its offset is affine there.
        let padded = Layout::identity(Shape::new([3, 5]))
            .with(LayoutPrim::Pad {
                dim: 1,
                before: 1,
                after: 1,
            })
            .unwrap();
        let [pack, unpack] = walks(&padded);
        assert!(pack.valid.is_some() && pack.row_stride.is_none());
        assert!(unpack.row_stride.is_some());
    }
}
