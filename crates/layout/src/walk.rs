//! Compiled index walks: the inner loop of every layout conversion.
//!
//! A conversion (pack, unpack, `store_at` embed and extract) visits each
//! point of one buffer's index space in row-major order and moves one
//! element to or from a flat offset in another buffer, through the
//! layout's access map. Running the primitive chain's symbolic rewrite per
//! element costs about a microsecond, so an [`IndexWalk`] rewrites the map
//! once over loop variables instead, compiles the resulting expressions
//! into hash-consed three-address ops, and places each op at the depth of
//! its deepest variable. A row-major odometer then reruns only the levels
//! whose variables changed: most ops run once per row or once per tile,
//! and the innermost level is typically an add or two.
//!
//! Conditions that the loop bounds already decide (a coordinate that is a
//! plain loop variable is always in range, a split's quotient is always
//! below its factor) fold to constants at compile time by interval
//! arithmetic, so they cost nothing per element. The interval rules are
//! the shared ones of [`alt_tensor::range`], which the native kernel
//! compiler applies to whole index expressions. The walk keeps no
//! per-element table: its state is one `i64` per variable, constant and
//! op.

use std::collections::HashMap;
use std::sync::Arc;

use alt_tensor::expr::{BinOp, Expr, Var};
use alt_tensor::op::Cond;
use alt_tensor::range::{identity, interval, Code, Operand};
use alt_tensor::Shape;

use crate::primitives::{Layout, LayoutError, VarExtents};

/// `slots[dst] = slots[a] <code> slots[b]`.
#[derive(Clone, Copy, Debug)]
struct Op {
    code: Code,
    a: u32,
    b: u32,
    dst: u32,
}

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
    /// Initial slot values: constants; loop variables and op results
    /// start at zero.
    init: Vec<i64>,
    /// Ops ordered by level; level `l` (`0` for no variable, `k + 1` for
    /// loop variable `k`) is `ops[starts[l]..starts[l + 1]]`.
    ops: Vec<Op>,
    starts: Vec<usize>,
    offset: u32,
    /// The slot holding 1 where the point maps in range; `None` when the
    /// loop bounds already guarantee it.
    valid: Option<u32>,
    on_invalid: Invalid,
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
            .map(|c| b.cond(c))
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
        // innermost, which the row loop below runs per element.
        for l in 0..n.max(1) {
            self.run_level(l, &mut slots);
        }
        let inner_extent = self.extents.last().copied().unwrap_or(1);
        let mut idx = vec![0i64; n];
        let mut pos = 0usize;
        loop {
            for i in 0..inner_extent {
                if n > 0 {
                    slots[n - 1] = i;
                    self.run_level(n, &mut slots);
                }
                if self.valid.is_none_or(|v| slots[v as usize] != 0) {
                    visit(pos, slots[self.offset as usize] as usize);
                } else if self.on_invalid == Invalid::Fail {
                    return Err(LayoutError::IndexOutOfBounds {
                        what: self.what,
                        index: Shape(self.extents.clone()).unflatten(pos as i64),
                    });
                }
                pos += 1;
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
                self.run_level(v + 1, &mut slots);
            }
        }
    }

    #[inline]
    fn run_level(&self, level: usize, slots: &mut [i64]) {
        for op in &self.ops[self.starts[level]..self.starts[level + 1]] {
            slots[op.dst as usize] = op.code.apply(slots[op.a as usize], slots[op.b as usize]);
        }
    }
}

/// Compiles expressions over the walk's loop variables into slots.
struct Builder {
    extents: Vec<i64>,
    /// Per slot: initial value, level and the closed interval of values
    /// it can take while the loop variables stay in bounds.
    init: Vec<i64>,
    level: Vec<usize>,
    range: Vec<(i64, i64)>,
    ops: Vec<Op>,
    consts: HashMap<i64, u32>,
    /// Hash-consing: one slot per distinct `(code, a, b)`.
    interned: HashMap<(Code, u32, u32), u32>,
    /// Shared subtrees of the rewritten expressions, compiled once.
    seen: HashMap<*const Expr, u32>,
}

impl Builder {
    /// Slots `0..extents.len()` are the loop variables, outermost first.
    fn new(extents: &[i64]) -> Self {
        let n = extents.len();
        Self {
            extents: extents.to_vec(),
            init: vec![0; n],
            level: (1..=n).collect(),
            range: extents.iter().map(|&e| (0, e - 1)).collect(),
            ops: Vec::new(),
            consts: HashMap::new(),
            interned: HashMap::new(),
            seen: HashMap::new(),
        }
    }

    /// The loop variables as expressions; variable `k` has id `k`.
    fn var_exprs(&self) -> Vec<Expr> {
        (0..self.extents.len())
            .map(|k| Expr::v(&Var::new(k as u32, format!("i{k}"))))
            .collect()
    }

    fn push_slot(&mut self, init: i64, level: usize, range: (i64, i64)) -> u32 {
        self.init.push(init);
        self.level.push(level);
        self.range.push(range);
        (self.init.len() - 1) as u32
    }

    fn constant(&mut self, v: i64) -> u32 {
        if let Some(&s) = self.consts.get(&v) {
            return s;
        }
        let s = self.push_slot(v, 0, (v, v));
        self.consts.insert(v, s);
        s
    }

    fn is_const(&self, s: u32, v: i64) -> bool {
        self.range[s as usize] == (v, v)
    }

    /// The slot computing `a <code> b`: a constant when the operands'
    /// intervals decide it, an existing slot when the op was seen before.
    fn op(&mut self, code: Code, a: u32, b: u32) -> u32 {
        let (x, y) = (self.range[a as usize], self.range[b as usize]);
        let r = interval(code, x, y);
        if r.0 == r.1 {
            return self.constant(r.0);
        }
        match identity(code, x, y) {
            Some(Operand::Left) => return a,
            Some(Operand::Right) => return b,
            None => {}
        }
        if let Some(&s) = self.interned.get(&(code, a, b)) {
            return s;
        }
        let level = self.level[a as usize].max(self.level[b as usize]);
        let dst = self.push_slot(0, level, r);
        self.ops.push(Op { code, a, b, dst });
        self.interned.insert((code, a, b), dst);
        dst
    }

    fn expr(&mut self, e: &Expr) -> Result<u32, LayoutError> {
        match e {
            Expr::Const(v) => Ok(self.constant(*v)),
            Expr::Var(v) if (v.id() as usize) < self.extents.len() => Ok(v.id()),
            Expr::Var(_) => Err(LayoutError::NonConstantIndex {
                what: "index walk",
                expr: e.to_string(),
            }),
            Expr::Bin(op, a, b) => {
                let x = self.shared(a)?;
                let y = self.shared(b)?;
                Ok(self.op(Code::Bin(*op), x, y))
            }
        }
    }

    fn shared(&mut self, e: &Arc<Expr>) -> Result<u32, LayoutError> {
        let key = Arc::as_ptr(e);
        if let Some(&s) = self.seen.get(&key) {
            return Ok(s);
        }
        let s = self.expr(e)?;
        self.seen.insert(key, s);
        Ok(s)
    }

    fn cond(&mut self, c: &Cond) -> Result<u32, LayoutError> {
        let (code, a, b) = match c {
            Cond::Ge(a, b) => (Code::Ge, a, b),
            Cond::Lt(a, b) => (Code::Lt, a, b),
            Cond::Eq(a, b) => (Code::Eq, a, b),
            Cond::And(a, b) => {
                let x = self.cond(a)?;
                let y = self.cond(b)?;
                return Ok(self.op(Code::Bin(BinOp::Min), x, y));
            }
        };
        let x = self.expr(a)?;
        let y = self.expr(b)?;
        Ok(self.op(code, x, y))
    }

    /// Folds `terms` with `code`, outermost level first, so that every
    /// partial result over outer variables hoists out of inner levels.
    fn fold(&mut self, code: BinOp, mut terms: Vec<u32>, empty: i64) -> u32 {
        terms.sort_by_key(|&s| self.level[s as usize]);
        let mut it = terms.into_iter();
        let Some(first) = it.next() else {
            return self.constant(empty);
        };
        it.fold(first, |acc, t| self.op(Code::Bin(code), acc, t))
    }

    /// The row-major offset of `coords` in a buffer of shape `dims`;
    /// pushes each coordinate's range condition onto `valid`.
    fn offset(
        &mut self,
        coords: &[Expr],
        dims: &[i64],
        valid: &mut Vec<u32>,
    ) -> Result<u32, LayoutError> {
        let strides = Shape(dims.to_vec()).strides();
        let zero = self.constant(0);
        let mut terms = Vec::with_capacity(coords.len());
        for ((c, &d), &s) in coords.iter().zip(dims).zip(&strides) {
            let x = self.expr(c)?;
            let bound = self.constant(d);
            valid.push(self.op(Code::Ge, x, zero));
            valid.push(self.op(Code::Lt, x, bound));
            let stride = self.constant(s);
            terms.push(self.op(Code::Bin(BinOp::Mul), x, stride));
        }
        Ok(self.fold(BinOp::Add, terms, 0))
    }

    fn finish(
        mut self,
        what: &'static str,
        offset: u32,
        valid: Vec<u32>,
        on_invalid: Invalid,
    ) -> IndexWalk {
        // Conditions the loop bounds decide are constants by now: drop
        // the true ones, and AND (min over 0/1) the rest.
        let open: Vec<u32> = valid
            .into_iter()
            .filter(|&s| !self.is_const(s, 1))
            .collect();
        let valid = (!open.is_empty()).then(|| self.fold(BinOp::Min, open, 1));
        let n = self.extents.len();
        // A stable sort keeps creation order within a level, and every
        // operand was created before its op at a level no deeper.
        let mut ops = self.ops;
        ops.sort_by_key(|op| self.level[op.dst as usize]);
        let mut starts = vec![0; n + 2];
        for op in &ops {
            starts[self.level[op.dst as usize] + 1] += 1;
        }
        for l in 1..starts.len() {
            starts[l] += starts[l - 1];
        }
        IndexWalk {
            what,
            extents: self.extents,
            init: self.init,
            ops,
            starts,
            offset,
            valid,
            on_invalid,
        }
    }
}
