//! Data-layout primitives (paper §4.1).
//!
//! A [`Layout`] is a sequence of primitives applied to a tensor's logical
//! shape. Primitives rewrite three things consistently:
//!
//! 1. the *physical shape* of the buffer,
//! 2. symbolic *access expressions* (how consumers index the tensor —
//!    Table 1 of the paper, plus Eq. 1 for `unfold`), and
//! 3. the *inverse* mapping from physical loop variables back to logical
//!    indices (how the producer of the tensor reconstructs its loop nest,
//!    paper §6).
//!
//! Concrete (integer) index maps are derived from the symbolic rewrites,
//! so there is a single source of truth for the transformation semantics:
//! per element by evaluating them on constant expressions
//! ([`Layout::logical_to_physical`], [`Layout::physical_to_logical`]), and
//! for whole buffers by compiling them once over loop variables into an
//! index walk ([`Layout::pack`], [`Layout::unpack`] and the `store_at`
//! guest copies).

use std::collections::HashMap;
use std::fmt;

use alt_tensor::expr::Expr;
use alt_tensor::op::Cond;
use alt_tensor::{NdBuf, Shape};

use crate::walk::IndexWalk;

/// Errors from invalid primitive applications.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LayoutError {
    /// Dimension index out of range.
    BadDim {
        /// The offending dimension.
        dim: usize,
        /// Current number of dimensions.
        ndim: usize,
    },
    /// `split` factors do not multiply to the dimension size.
    BadFactors {
        /// Requested factors.
        factors: Vec<i64>,
        /// Size of the dimension being split.
        dim_size: i64,
    },
    /// `reorder` permutation is not a permutation of `0..ndim`.
    BadPermutation(Vec<usize>),
    /// `fuse` range is empty or out of bounds.
    BadFuseRange {
        /// First fused dimension.
        start: usize,
        /// Number of fused dimensions.
        count: usize,
        /// Current number of dimensions.
        ndim: usize,
    },
    /// `unfold` parameters are invalid (`tile` must be in `1..=dim`,
    /// `stride` in `1..=tile`).
    BadUnfold {
        /// Tile size.
        tile: i64,
        /// Tile stride.
        stride: i64,
        /// Size of the dimension being unfolded.
        dim_size: i64,
    },
    /// `pad` amounts are negative.
    BadPad,
    /// `swizzle` parameters are invalid: `src` must differ from `dim`,
    /// `bits` must be in `1..=12`, and `2^bits` must divide the swizzled
    /// dimension's size (so each aligned block permutes onto itself).
    BadSwizzle {
        /// XOR'd dimension.
        dim: usize,
        /// Dimension supplying the XOR key.
        src: usize,
        /// Number of low bits swizzled.
        bits: u32,
        /// Size of the swizzled dimension.
        dim_size: i64,
    },
    /// `morton` requires two adjacent dimensions of equal power-of-two
    /// size (at most `2^12`).
    BadMorton {
        /// First (outer) interleaved dimension.
        dim: usize,
        /// Sizes of the two dimensions as seen.
        sizes: Vec<i64>,
    },
    /// `block_diag` parameters are invalid: `src` must differ from `dim`
    /// and `block` must be in `1..dim_size`.
    BadBlockDiag {
        /// Rotated dimension.
        dim: usize,
        /// Dimension driving the rotation.
        src: usize,
        /// Rotation step per unit of `src`.
        block: i64,
    },
    /// The primitive sequence cannot be inverted at this point.
    NotInvertible(&'static str),
    /// An index list's rank does not match the layout's rank.
    RankMismatch {
        /// What was being rewritten.
        what: &'static str,
        /// Expected number of indices.
        expected: usize,
        /// Provided number of indices.
        got: usize,
    },
    /// A buffer or tensor shape does not match the layout's shape.
    ShapeMismatch {
        /// The operation that detected the mismatch.
        what: &'static str,
        /// Expected shape (dims).
        expected: Vec<i64>,
        /// Provided shape (dims).
        got: Vec<i64>,
    },
    /// A concrete index map produced a symbolic (non-constant) result.
    NonConstantIndex {
        /// The direction of the failed map.
        what: &'static str,
        /// Rendering of the offending expression.
        expr: String,
    },
    /// The internal shape chain is corrupt (empty); indicates a layout
    /// constructed or mutated through unsafe means.
    CorruptChain,
    /// A buffer conversion mapped an index outside the buffer it reads or
    /// writes (a `store_at` guest larger than its host slot, or a corrupt
    /// layout).
    IndexOutOfBounds {
        /// The conversion that failed.
        what: &'static str,
        /// The index being converted, in the walked buffer.
        index: Vec<i64>,
    },
}

impl fmt::Display for LayoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LayoutError::BadDim { dim, ndim } => {
                write!(f, "dimension {dim} out of range for {ndim}-d layout")
            }
            LayoutError::BadFactors { factors, dim_size } => {
                write!(
                    f,
                    "split factors {factors:?} do not cover dim of size {dim_size}"
                )
            }
            LayoutError::BadPermutation(p) => write!(f, "invalid permutation {p:?}"),
            LayoutError::BadFuseRange { start, count, ndim } => {
                write!(
                    f,
                    "fuse range {start}+{count} out of bounds for {ndim} dims"
                )
            }
            LayoutError::BadUnfold {
                tile,
                stride,
                dim_size,
            } => write!(
                f,
                "unfold(tile={tile}, stride={stride}) invalid for dim of size {dim_size}"
            ),
            LayoutError::BadPad => write!(f, "pad amounts must be non-negative"),
            LayoutError::BadSwizzle {
                dim,
                src,
                bits,
                dim_size,
            } => write!(
                f,
                "swizzle(dim={dim}, src={src}, bits={bits}) invalid for dim of size {dim_size}"
            ),
            LayoutError::BadMorton { dim, sizes } => write!(
                f,
                "morton({dim}) needs two equal power-of-two dims, got {sizes:?}"
            ),
            LayoutError::BadBlockDiag { dim, src, block } => {
                write!(f, "block_diag(dim={dim}, src={src}, block={block}) invalid")
            }
            LayoutError::NotInvertible(what) => write!(f, "cannot invert: {what}"),
            LayoutError::RankMismatch {
                what,
                expected,
                got,
            } => write!(f, "{what}: rank mismatch (expected {expected}, got {got})"),
            LayoutError::ShapeMismatch {
                what,
                expected,
                got,
            } => write!(
                f,
                "{what}: shape mismatch (expected {expected:?}, got {got:?})"
            ),
            LayoutError::NonConstantIndex { what, expr } => {
                write!(f, "{what}: non-constant index {expr}")
            }
            LayoutError::CorruptChain => write!(f, "layout shape chain is empty"),
            LayoutError::IndexOutOfBounds { what, index } => {
                write!(f, "{what}: index {index:?} maps outside the buffer")
            }
        }
    }
}

impl std::error::Error for LayoutError {}

impl From<LayoutError> for alt_error::AltError {
    fn from(e: LayoutError) -> Self {
        alt_error::AltError::Layout {
            detail: e.to_string(),
        }
    }
}

/// One data-layout primitive (paper Table 1 and §4.1.2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LayoutPrim {
    /// Splits dimension `dim` into `factors` (all new sizes, outermost
    /// first; their product must equal the dimension size).
    Split {
        /// Dimension to split.
        dim: usize,
        /// New dimension sizes, outermost first.
        factors: Vec<i64>,
    },
    /// Permutes dimensions: new dimension `j` is old dimension `perm[j]`.
    Reorder {
        /// Permutation vector.
        perm: Vec<usize>,
    },
    /// Fuses `count` consecutive dimensions starting at `start` into one.
    Fuse {
        /// First dimension of the fused range.
        start: usize,
        /// Number of dimensions to fuse (>= 2).
        count: usize,
    },
    /// Overlapped tiling of dimension `dim` into `(num_tiles, tile)` where
    /// consecutive tiles start `stride` elements apart (paper Fig. 2).
    ///
    /// Elements covered by several tiles are *duplicated* in memory.
    Unfold {
        /// Dimension to unfold.
        dim: usize,
        /// Tile size `B`.
        tile: i64,
        /// Tile stride `S` (`S <= B` gives overlap of `B - S`).
        stride: i64,
    },
    /// Appends `after` (and prepends `before`) zero elements along `dim`,
    /// e.g. to avoid GPU shared-memory bank conflicts.
    Pad {
        /// Dimension to pad.
        dim: usize,
        /// Elements prepended.
        before: i64,
        /// Elements appended.
        after: i64,
    },
    /// Reserves one extra physical slot along `dim` so that another tensor
    /// (e.g. a bias vector) can be stored inline (paper's `store_at`).
    ///
    /// Only valid on constant parameter tensors: the host's producer never
    /// iterates the reserved slot, so this is rejected during lowering for
    /// operator-produced tensors.
    StoreAtHost {
        /// Dimension that gains the guest slot.
        dim: usize,
    },
    /// XOR swizzle: physical index along `dim` is the logical index with
    /// its low `bits` bits XOR'd against the low `bits` bits of the index
    /// along `src` (the classic shared-memory bank-conflict breaker).
    ///
    /// Bijective per `src` slice; requires `2^bits` to divide the size of
    /// `dim`, so each aligned block permutes onto itself. The shape is
    /// unchanged.
    Swizzle {
        /// Dimension whose low bits are XOR'd.
        dim: usize,
        /// Dimension supplying the XOR key.
        src: usize,
        /// Number of low bits swizzled (`1..=12`).
        bits: u32,
    },
    /// Morton (Z-order) interleave of dimensions `dim` and `dim + 1`:
    /// both must have the same power-of-two size `2^k`, and they fuse
    /// into one dimension of size `2^(2k)` whose bits alternate between
    /// the two sources (`dim` on odd bits, `dim + 1` on even bits).
    ///
    /// Bijective; improves locality for stencil-like pairs of axes.
    Morton {
        /// First (outer) of the two interleaved dimensions.
        dim: usize,
    },
    /// Block-diagonal (cyclic) remap: the physical index along `dim` is
    /// `(i + block·j) mod size(dim)` where `j` is the index along `src` —
    /// a diagonal shift per `src` slice that spreads same-`i` accesses
    /// across banks. Bijective for any `block`; the shape is unchanged.
    BlockDiag {
        /// Rotated dimension.
        dim: usize,
        /// Dimension driving the rotation.
        src: usize,
        /// Rotation step per unit of `src` (`1..size(dim)`).
        block: i64,
    },
}

impl LayoutPrim {
    /// Validates this primitive against the shape it would be applied to.
    ///
    /// Exposed so the static legality checker (`alt-verify`) can replay a
    /// layout's primitive chain and attribute each failure to the exact
    /// primitive.
    pub fn check(&self, shape: &[i64]) -> Result<(), LayoutError> {
        let ndim = shape.len();
        match self {
            LayoutPrim::Split { dim, factors } => {
                if *dim >= ndim {
                    return Err(LayoutError::BadDim { dim: *dim, ndim });
                }
                let prod: i64 = factors.iter().product();
                if factors.len() < 2 || factors.iter().any(|&f| f <= 0) || prod != shape[*dim] {
                    return Err(LayoutError::BadFactors {
                        factors: factors.clone(),
                        dim_size: shape[*dim],
                    });
                }
                Ok(())
            }
            LayoutPrim::Reorder { perm } => {
                let mut seen = vec![false; ndim];
                if perm.len() != ndim {
                    return Err(LayoutError::BadPermutation(perm.clone()));
                }
                for &p in perm {
                    if p >= ndim || seen[p] {
                        return Err(LayoutError::BadPermutation(perm.clone()));
                    }
                    seen[p] = true;
                }
                Ok(())
            }
            LayoutPrim::Fuse { start, count } => {
                if *count < 2 || start + count > ndim {
                    return Err(LayoutError::BadFuseRange {
                        start: *start,
                        count: *count,
                        ndim,
                    });
                }
                Ok(())
            }
            LayoutPrim::Unfold { dim, tile, stride } => {
                if *dim >= ndim {
                    return Err(LayoutError::BadDim { dim: *dim, ndim });
                }
                let d = shape[*dim];
                if *tile < 1 || *tile > d || *stride < 1 || *stride > *tile {
                    return Err(LayoutError::BadUnfold {
                        tile: *tile,
                        stride: *stride,
                        dim_size: d,
                    });
                }
                Ok(())
            }
            LayoutPrim::Pad { dim, before, after } => {
                if *dim >= ndim {
                    return Err(LayoutError::BadDim { dim: *dim, ndim });
                }
                if *before < 0 || *after < 0 {
                    return Err(LayoutError::BadPad);
                }
                Ok(())
            }
            LayoutPrim::StoreAtHost { dim } => {
                if *dim >= ndim {
                    return Err(LayoutError::BadDim { dim: *dim, ndim });
                }
                Ok(())
            }
            LayoutPrim::Swizzle { dim, src, bits } => {
                if *dim >= ndim {
                    return Err(LayoutError::BadDim { dim: *dim, ndim });
                }
                if *src >= ndim {
                    return Err(LayoutError::BadDim { dim: *src, ndim });
                }
                let d = shape[*dim];
                if *src == *dim || *bits == 0 || *bits > 12 || d % (1i64 << *bits) != 0 {
                    return Err(LayoutError::BadSwizzle {
                        dim: *dim,
                        src: *src,
                        bits: *bits,
                        dim_size: d,
                    });
                }
                Ok(())
            }
            LayoutPrim::Morton { dim } => {
                if dim + 1 >= ndim {
                    return Err(LayoutError::BadDim { dim: *dim, ndim });
                }
                let (a, b) = (shape[*dim], shape[dim + 1]);
                let pow2 = |v: i64| v > 0 && v & (v - 1) == 0;
                if a != b || !pow2(a) || a > (1 << 12) {
                    return Err(LayoutError::BadMorton {
                        dim: *dim,
                        sizes: vec![a, b],
                    });
                }
                Ok(())
            }
            LayoutPrim::BlockDiag { dim, src, block } => {
                if *dim >= ndim {
                    return Err(LayoutError::BadDim { dim: *dim, ndim });
                }
                if *src >= ndim {
                    return Err(LayoutError::BadDim { dim: *src, ndim });
                }
                if *src == *dim || *block < 1 || *block >= shape[*dim] {
                    return Err(LayoutError::BadBlockDiag {
                        dim: *dim,
                        src: *src,
                        block: *block,
                    });
                }
                Ok(())
            }
        }
    }

    /// Shape after applying this primitive to `shape`.
    fn apply_shape(&self, shape: &[i64]) -> Vec<i64> {
        let mut out = shape.to_vec();
        match self {
            LayoutPrim::Split { dim, factors } => {
                out.splice(*dim..=*dim, factors.iter().copied());
            }
            LayoutPrim::Reorder { perm } => {
                out = perm.iter().map(|&p| shape[p]).collect();
            }
            LayoutPrim::Fuse { start, count } => {
                let fused: i64 = shape[*start..start + count].iter().product();
                out.splice(*start..start + count, [fused]);
            }
            LayoutPrim::Unfold { dim, tile, stride } => {
                let d = shape[*dim];
                let tiles = num_tiles(d, *tile, *stride);
                out.splice(*dim..=*dim, [tiles, *tile]);
            }
            LayoutPrim::Pad { dim, before, after } => {
                out[*dim] += before + after;
            }
            LayoutPrim::StoreAtHost { dim } => {
                out[*dim] += 1;
            }
            LayoutPrim::Swizzle { .. } | LayoutPrim::BlockDiag { .. } => {}
            LayoutPrim::Morton { dim } => {
                let fused = shape[*dim] * shape[dim + 1];
                out.splice(*dim..=dim + 1, [fused]);
            }
        }
        out
    }

    /// Whether the primitive is "advanced" in the paper's sense, i.e. can
    /// expand data (Algorithm 1, first constraint).
    pub fn is_advanced(&self) -> bool {
        matches!(
            self,
            LayoutPrim::Unfold { .. } | LayoutPrim::Pad { .. } | LayoutPrim::StoreAtHost { .. }
        )
    }
}

/// Number of tiles produced by `unfold`: `ceil((d - tile) / stride) + 1`.
pub fn num_tiles(d: i64, tile: i64, stride: i64) -> i64 {
    if d <= tile {
        1
    } else {
        (d - tile + stride - 1) / stride + 1
    }
}

/// Extents of index variables, used to recognize sliding-window access
/// patterns (`V*i + r`) so `unfold` can apply the paper's Eq. 1.
pub type VarExtents = HashMap<u32, i64>;

/// Result of pattern-matching an access expression against `V*i + r`.
struct WindowPattern {
    /// The window-position subexpression `i`.
    base: Expr,
    /// Constant stride `V` multiplying the window position.
    stride: i64,
    /// The in-window offset subexpression `r` (already scaled by dilation).
    offset: Expr,
    /// Window extent `M` (max value of `r` plus one).
    window: i64,
}

/// Tries to decompose `e` as `base * V + offset` where `offset` is a
/// (possibly dilated) reduction variable with known extent.
fn match_window(e: &Expr, extents: &VarExtents) -> Option<WindowPattern> {
    // Accept `a + off` where `off` is `Var(r)` or `Var(r) * c`, and `a` is
    // `Var(i)` or `Var(i) * V` or any expression not containing `r`.
    let (a, off) = match e {
        Expr::Bin(alt_tensor::expr::BinOp::Add, x, y) => (x.as_ref(), y.as_ref()),
        _ => return None,
    };
    let (offset, window) = match off {
        Expr::Var(r) => {
            let m = *extents.get(&r.id())?;
            (off.clone(), m)
        }
        Expr::Bin(alt_tensor::expr::BinOp::Mul, v, c) => match (v.as_ref(), c.as_ref()) {
            (Expr::Var(r), Expr::Const(c)) if *c > 0 => {
                let m = *extents.get(&r.id())?;
                (off.clone(), (m - 1) * c + 1)
            }
            _ => return None,
        },
        _ => return None,
    };
    let (base, stride) = match a {
        Expr::Bin(alt_tensor::expr::BinOp::Mul, v, c) => match c.as_ref() {
            Expr::Const(cv) if *cv > 0 => (v.as_ref().clone(), *cv),
            _ => (a.clone(), 1),
        },
        _ => (a.clone(), 1),
    };
    Some(WindowPattern {
        base,
        stride,
        offset,
        window,
    })
}

/// A data layout: a logical shape plus a primitive sequence.
#[derive(Clone, Debug, PartialEq)]
pub struct Layout {
    logical: Shape,
    prims: Vec<LayoutPrim>,
    /// Shape before each primitive; `shapes[i]` is the input of `prims[i]`
    /// and `shapes[prims.len()]` is the physical shape.
    shapes: Vec<Vec<i64>>,
}

impl Layout {
    /// The identity layout for a logical shape.
    pub fn identity(logical: Shape) -> Self {
        let dims = logical.dims().to_vec();
        Self {
            logical,
            prims: Vec::new(),
            shapes: vec![dims],
        }
    }

    /// Applies one primitive, validating it against the current shape.
    pub fn apply(&mut self, prim: LayoutPrim) -> Result<(), LayoutError> {
        let cur = self.shapes.last().ok_or(LayoutError::CorruptChain)?;
        prim.check(cur)?;
        let next = prim.apply_shape(cur);
        self.prims.push(prim);
        self.shapes.push(next);
        Ok(())
    }

    /// Builder-style [`Layout::apply`].
    pub fn with(mut self, prim: LayoutPrim) -> Result<Self, LayoutError> {
        self.apply(prim)?;
        Ok(self)
    }

    /// Rebuilds a layout from a primitive chain without validating it,
    /// the way a chain arrives from outside the builder (a deserializer,
    /// a hand-written plan). A primitive that does not fit the shape it
    /// meets is kept but leaves that shape unchanged, so the chain stays
    /// walkable; [`Layout::revalidate`] reports the first such
    /// primitive, which is how the static legality pass rejects the
    /// layout.
    pub fn from_prims_unchecked(logical: Shape, prims: Vec<LayoutPrim>) -> Self {
        let mut cur = logical.dims().to_vec();
        let mut shapes = vec![cur.clone()];
        for prim in &prims {
            if prim.check(&cur).is_ok() {
                cur = prim.apply_shape(&cur);
            }
            shapes.push(cur.clone());
        }
        Self {
            logical,
            prims,
            shapes,
        }
    }

    /// The logical shape this layout started from.
    pub fn logical_shape(&self) -> &Shape {
        &self.logical
    }

    /// The physical buffer shape, or [`LayoutError::CorruptChain`] if the
    /// internal shape chain is empty.
    pub fn try_physical_shape(&self) -> Result<Shape, LayoutError> {
        self.shapes
            .last()
            .map(|d| Shape::new(d.clone()))
            .ok_or(LayoutError::CorruptChain)
    }

    /// The physical buffer shape.
    ///
    /// The shape chain is non-empty by construction ([`Layout::identity`]
    /// seeds one entry and [`Layout::pop_prim`] removes prim/shape pairs
    /// together), so this cannot fail on layouts built through the public
    /// API; fallible callers can use [`Layout::try_physical_shape`].
    pub fn physical_shape(&self) -> Shape {
        self.try_physical_shape()
            .expect("layout shape chain corrupt")
    }

    /// Row-major strides of the physical buffer — the linearization the
    /// native code generator resolves index expressions against.
    pub fn physical_strides(&self) -> Vec<i64> {
        self.physical_shape().strides()
    }

    /// The primitive sequence.
    pub fn prims(&self) -> &[LayoutPrim] {
        &self.prims
    }

    /// The cached shape chain: entry 0 is the logical shape's dims and
    /// entry `k + 1` is the shape after primitive `k`.
    pub fn shape_chain(&self) -> &[Vec<i64>] {
        &self.shapes
    }

    /// Replays the primitive chain from the logical shape, re-checking
    /// every primitive and the cached shape chain.
    ///
    /// Layouts built through [`Layout::apply`] always pass; this exists
    /// so the static legality checker can re-establish the invariant for
    /// layouts that crossed a serialization or plan-mutation boundary,
    /// and returns the first offending primitive on failure.
    pub fn revalidate(&self) -> Result<(), LayoutError> {
        let mut cur = self.logical.dims().to_vec();
        if self.shapes.first() != Some(&cur) {
            return Err(LayoutError::ShapeMismatch {
                what: "revalidate",
                expected: cur,
                got: self.shapes.first().cloned().unwrap_or_default(),
            });
        }
        for (k, prim) in self.prims.iter().enumerate() {
            prim.check(&cur)?;
            cur = prim.apply_shape(&cur);
            let cached = self.shapes.get(k + 1).ok_or(LayoutError::CorruptChain)?;
            if cached != &cur {
                return Err(LayoutError::ShapeMismatch {
                    what: "revalidate",
                    expected: cur,
                    got: cached.clone(),
                });
            }
        }
        Ok(())
    }

    /// Derives human-readable names for the physical dimensions by pushing
    /// `logical` (one name per logical dimension) through the primitive
    /// sequence, mirroring [`LayoutPrim::apply_shape`]:
    ///
    /// - `split` into two factors yields `x.o` / `x.i` (more factors yield
    ///   `x.s0`, `x.s1`, ...),
    /// - `reorder` permutes names,
    /// - `fuse` joins names with `+`,
    /// - `unfold` yields `x.t` (tiles) / `x.u` (in-tile),
    /// - `pad` / `store_at` keep the name.
    ///
    /// The result depends only on the layout's primitive sequence, so it is
    /// stable across runs — profiles keyed by these names diff cleanly.
    /// A `logical` of the wrong rank falls back to positional `d{k}` names.
    pub fn physical_dim_names(&self, logical: &[&str]) -> Vec<String> {
        let mut names: Vec<String> = if logical.len() == self.logical.dims().len() {
            logical.iter().map(|s| s.to_string()).collect()
        } else {
            (0..self.logical.dims().len())
                .map(|k| format!("d{k}"))
                .collect()
        };
        for prim in &self.prims {
            match prim {
                LayoutPrim::Split { dim, factors } => {
                    let base = names[*dim].clone();
                    let parts: Vec<String> = if factors.len() == 2 {
                        vec![format!("{base}.o"), format!("{base}.i")]
                    } else {
                        (0..factors.len()).map(|j| format!("{base}.s{j}")).collect()
                    };
                    names.splice(*dim..=*dim, parts);
                }
                LayoutPrim::Reorder { perm } => {
                    names = perm.iter().map(|&p| names[p].clone()).collect();
                }
                LayoutPrim::Fuse { start, count } => {
                    let fused = names[*start..start + count].join("+");
                    names.splice(*start..start + count, [fused]);
                }
                LayoutPrim::Unfold { dim, .. } => {
                    let base = names[*dim].clone();
                    names.splice(*dim..=*dim, [format!("{base}.t"), format!("{base}.u")]);
                }
                LayoutPrim::Pad { .. } | LayoutPrim::StoreAtHost { .. } => {}
                LayoutPrim::Swizzle { dim, src, .. } => {
                    let key = names[*src].clone();
                    names[*dim] = format!("{}^{key}", names[*dim]);
                }
                LayoutPrim::Morton { dim } => {
                    let fused = format!("{}~{}", names[*dim], names[*dim + 1]);
                    names.splice(*dim..=dim + 1, [fused]);
                }
                LayoutPrim::BlockDiag { dim, src, .. } => {
                    let key = names[*src].clone();
                    names[*dim] = format!("{}@{key}", names[*dim]);
                }
            }
        }
        names
    }

    /// True when no primitives have been applied.
    pub fn is_identity(&self) -> bool {
        self.prims.is_empty()
    }

    /// True when the sequence contains a data-expanding (advanced)
    /// primitive.
    pub fn has_advanced(&self) -> bool {
        self.prims.iter().any(|p| p.is_advanced())
    }

    /// Removes the most recent primitive (used by the inverse primitives
    /// `fold`, `unpad` and `decouple_at`, which transform layouts back —
    /// §4.1.2).
    pub fn pop_prim(&mut self) -> Option<LayoutPrim> {
        let p = self.prims.pop()?;
        self.shapes.pop();
        Some(p)
    }

    /// Inverse of [`LayoutPrim::Unfold`]: removes a trailing unfold.
    pub fn fold(&mut self) -> Result<(), LayoutError> {
        match self.prims.last() {
            Some(LayoutPrim::Unfold { .. }) => {
                self.pop_prim();
                Ok(())
            }
            _ => Err(LayoutError::NotInvertible("last primitive is not unfold")),
        }
    }

    /// Inverse of [`LayoutPrim::Pad`]: removes a trailing pad.
    pub fn unpad(&mut self) -> Result<(), LayoutError> {
        match self.prims.last() {
            Some(LayoutPrim::Pad { .. }) => {
                self.pop_prim();
                Ok(())
            }
            _ => Err(LayoutError::NotInvertible("last primitive is not pad")),
        }
    }

    /// Inverse of [`LayoutPrim::StoreAtHost`]: releases the guest slot.
    pub fn decouple_at(&mut self) -> Result<(), LayoutError> {
        match self.prims.last() {
            Some(LayoutPrim::StoreAtHost { .. }) => {
                self.pop_prim();
                Ok(())
            }
            _ => Err(LayoutError::NotInvertible("last primitive is not store_at")),
        }
    }

    /// Replicates this layout's primitive sequence onto another tensor of
    /// the same logical shape (the propagation mechanism of §4.2).
    ///
    /// Returns [`LayoutError::ShapeMismatch`] if `logical` differs from
    /// this layout's logical shape — propagation is only defined for
    /// shape-equal tensors (Algorithm 1, third constraint).
    pub fn replicate_for(&self, logical: Shape) -> Result<Layout, LayoutError> {
        if self.logical != logical {
            return Err(LayoutError::ShapeMismatch {
                what: "replicate_for",
                expected: self.logical.dims().to_vec(),
                got: logical.dims().to_vec(),
            });
        }
        Ok(self.clone())
    }

    /// Rewrites logical access expressions into physical access
    /// expressions (consumer side; Table 1 and Eq. 1).
    ///
    /// `extents` provides variable extents so sliding-window accesses can
    /// use the paper's Eq. 1 placement for unfolded dimensions; pass an
    /// empty map to always use the generic (clamped) placement.
    pub fn rewrite_access(
        &self,
        exprs: &[Expr],
        extents: &VarExtents,
    ) -> Result<Vec<Expr>, LayoutError> {
        if exprs.len() != self.logical.ndim() {
            return Err(LayoutError::RankMismatch {
                what: "rewrite_access",
                expected: self.logical.ndim(),
                got: exprs.len(),
            });
        }
        let mut cur: Vec<Expr> = exprs.to_vec();
        for (prim, shape) in self.prims.iter().zip(self.shapes.iter()) {
            cur = rewrite_forward(prim, shape, &cur, extents);
        }
        Ok(cur)
    }

    /// Maps physical index expressions (producer loop variables) back to
    /// logical index expressions, together with the validity conditions
    /// under which the physical slot corresponds to a real element (false
    /// for pad slots and unfold overhang).
    pub fn inverse_access(&self, phys: &[Expr]) -> Result<(Vec<Expr>, Vec<Cond>), LayoutError> {
        let ndim = self.try_physical_shape()?.ndim();
        if phys.len() != ndim {
            return Err(LayoutError::RankMismatch {
                what: "inverse_access",
                expected: ndim,
                got: phys.len(),
            });
        }
        let mut cur: Vec<Expr> = phys.to_vec();
        let mut conds = Vec::new();
        for (prim, shape) in self.prims.iter().zip(self.shapes.iter()).rev() {
            cur = rewrite_inverse(prim, shape, &cur, &mut conds);
        }
        Ok((cur, conds))
    }

    /// Maps a concrete logical index to its canonical physical index.
    pub fn logical_to_physical(&self, idx: &[i64]) -> Result<Vec<i64>, LayoutError> {
        let exprs: Vec<Expr> = idx.iter().map(|&i| Expr::c(i)).collect();
        let out = self.rewrite_access(&exprs, &HashMap::new())?;
        out.iter()
            .map(|e| match e {
                Expr::Const(v) => Ok(*v),
                other => Err(LayoutError::NonConstantIndex {
                    what: "logical_to_physical",
                    expr: other.to_string(),
                }),
            })
            .collect()
    }

    /// Maps a concrete physical index back to the logical index it holds,
    /// or `None` for slots that hold no logical element (padding/overhang).
    pub fn physical_to_logical(&self, idx: &[i64]) -> Result<Option<Vec<i64>>, LayoutError> {
        let exprs: Vec<Expr> = idx.iter().map(|&i| Expr::c(i)).collect();
        let (out, conds) = self.inverse_access(&exprs)?;
        let env = alt_tensor::Env::new();
        if !conds.iter().all(|c| c.eval(&env)) {
            return Ok(None);
        }
        let log: Vec<i64> = out
            .iter()
            .map(|e| match e {
                Expr::Const(v) => Ok(*v),
                other => Err(LayoutError::NonConstantIndex {
                    what: "physical_to_logical",
                    expr: other.to_string(),
                }),
            })
            .collect::<Result<_, _>>()?;
        // Guard against overhang beyond the logical extent.
        if log
            .iter()
            .zip(self.logical.dims())
            .any(|(&i, &d)| i < 0 || i >= d)
        {
            return Ok(None);
        }
        Ok(Some(log))
    }

    /// Packs a logically-laid-out buffer into this physical layout.
    ///
    /// Physical slots with no logical element (padding, overhang) are
    /// zero-filled; overlapped slots duplicate their logical element.
    /// Runs one compiled index walk over the physical space; agrees bit
    /// for bit with [`Layout::physical_to_logical`] per slot.
    pub fn pack(&self, logical: &NdBuf) -> Result<NdBuf, LayoutError> {
        if logical.shape() != &self.logical {
            return Err(LayoutError::ShapeMismatch {
                what: "pack",
                expected: self.logical.dims().to_vec(),
                got: logical.shape().dims().to_vec(),
            });
        }
        let walk = IndexWalk::pack(self)?;
        let mut out = NdBuf::zeros(self.try_physical_shape()?);
        let (src, dst) = (logical.data(), out.data_mut());
        walk.for_each(|slot, elem| dst[slot] = src[elem])?;
        Ok(out)
    }

    /// Unpacks a physical buffer back to logical order using canonical
    /// slots (those of [`Layout::logical_to_physical`]), through one
    /// compiled index walk over the logical space.
    pub fn unpack(&self, physical: &NdBuf) -> Result<NdBuf, LayoutError> {
        let phys = self.try_physical_shape()?;
        if physical.shape() != &phys {
            return Err(LayoutError::ShapeMismatch {
                what: "unpack",
                expected: phys.dims().to_vec(),
                got: physical.shape().dims().to_vec(),
            });
        }
        let walk = IndexWalk::access("unpack", self, self.logical.dims(), None)?;
        let mut out = NdBuf::zeros(self.logical.clone());
        let (src, dst) = (physical.data(), out.data_mut());
        walk.for_each(|elem, slot| dst[elem] = src[slot])?;
        Ok(out)
    }

    /// Writes a `store_at` guest into `host`, a buffer in this (host)
    /// layout, at the slot reserved along logical dimension `dim`: guest
    /// index `g` lands where the host's logical index `g` with
    /// `size(dim)` inserted at `dim` does.
    pub fn embed_guest(
        &self,
        dim: usize,
        guest: &NdBuf,
        host: &mut NdBuf,
    ) -> Result<(), LayoutError> {
        let walk = self.guest_walk("embed_guest", dim, guest.shape(), host.shape())?;
        let (src, dst) = (guest.data(), host.data_mut());
        walk.for_each(|elem, slot| dst[slot] = src[elem])
    }

    /// Reads a `store_at` guest of shape `guest` back out of `host`; the
    /// inverse of [`Layout::embed_guest`].
    pub fn extract_guest(
        &self,
        dim: usize,
        guest: &Shape,
        host: &NdBuf,
    ) -> Result<NdBuf, LayoutError> {
        let walk = self.guest_walk("extract_guest", dim, guest, host.shape())?;
        let mut out = NdBuf::zeros(guest.clone());
        let (src, dst) = (host.data(), out.data_mut());
        walk.for_each(|elem, slot| dst[elem] = src[slot])?;
        Ok(out)
    }

    fn guest_walk(
        &self,
        what: &'static str,
        dim: usize,
        guest: &Shape,
        host: &Shape,
    ) -> Result<IndexWalk, LayoutError> {
        let phys = self.try_physical_shape()?;
        if host != &phys {
            return Err(LayoutError::ShapeMismatch {
                what,
                expected: phys.dims().to_vec(),
                got: host.dims().to_vec(),
            });
        }
        let ndim = self.logical.ndim();
        if guest.ndim() + 1 != ndim {
            return Err(LayoutError::RankMismatch {
                what,
                expected: ndim.saturating_sub(1),
                got: guest.ndim(),
            });
        }
        if dim >= ndim {
            return Err(LayoutError::BadDim { dim, ndim });
        }
        IndexWalk::access(what, self, guest.dims(), Some((dim, self.logical.dim(dim))))
    }
}

impl fmt::Display for Layout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ->", self.logical)?;
        for p in &self.prims {
            match p {
                LayoutPrim::Split { dim, factors } => write!(f, " split({dim}, {factors:?})")?,
                LayoutPrim::Reorder { perm } => write!(f, " reorder({perm:?})")?,
                LayoutPrim::Fuse { start, count } => {
                    write!(f, " fuse({start}..{})", start + count)?;
                }
                LayoutPrim::Unfold { dim, tile, stride } => {
                    write!(f, " unfold({dim}, B={tile}, S={stride})")?;
                }
                LayoutPrim::Pad { dim, before, after } => {
                    write!(f, " pad({dim}, {before}, {after})")?;
                }
                LayoutPrim::StoreAtHost { dim } => write!(f, " store_at_host({dim})")?,
                LayoutPrim::Swizzle { dim, src, bits } => {
                    write!(f, " swizzle({dim}, src={src}, bits={bits})")?;
                }
                LayoutPrim::Morton { dim } => write!(f, " morton({dim})")?,
                LayoutPrim::BlockDiag { dim, src, block } => {
                    write!(f, " block_diag({dim}, src={src}, block={block})")?;
                }
            }
        }
        match self.try_physical_shape() {
            Ok(s) => write!(f, " => {s}"),
            Err(_) => write!(f, " => <corrupt shape chain>"),
        }
    }
}

/// Applies one primitive's forward access rewrite.
pub(crate) fn rewrite_forward(
    prim: &LayoutPrim,
    shape_before: &[i64],
    exprs: &[Expr],
    extents: &VarExtents,
) -> Vec<Expr> {
    match prim {
        LayoutPrim::Split { dim, factors } => {
            let e = &exprs[*dim];
            let m = factors.len();
            let mut parts = Vec::with_capacity(m);
            for j in 0..m {
                let suffix: i64 = factors[j + 1..].iter().product();
                let mut part = e.div_c(suffix);
                if j > 0 {
                    part = part.mod_c(factors[j]);
                }
                parts.push(part);
            }
            let mut out = exprs.to_vec();
            out.splice(*dim..=*dim, parts);
            out
        }
        LayoutPrim::Reorder { perm } => perm.iter().map(|&p| exprs[p].clone()).collect(),
        LayoutPrim::Fuse { start, count } => {
            let mut fused = exprs[*start].clone();
            for j in 1..*count {
                fused = fused.mul_c(shape_before[start + j]).add(&exprs[start + j]);
            }
            let mut out = exprs.to_vec();
            out.splice(*start..start + count, [fused]);
            out
        }
        LayoutPrim::Unfold { dim, tile, stride } => {
            let d = shape_before[*dim];
            let tiles = num_tiles(d, *tile, *stride);
            let e = &exprs[*dim];
            // Paper Eq. 1: place a whole sliding window inside one tile;
            // the tile index comes from the window-position subexpression,
            // not the raw element index. This placement is only in-bounds
            // when the tile stride advances by exactly `windows_per_tile`
            // windows (`S == V * wpt`), which is how the §5.1 template
            // instantiates unfold; otherwise fall back to the generic
            // clamped placement.
            let eq1 = match_window(e, extents).and_then(|w| {
                if w.window > *tile {
                    return None;
                }
                let wpt = (*tile - w.window) / w.stride + 1;
                if *stride != w.stride * wpt {
                    return None;
                }
                let t = w.base.div_c(wpt).min_e(&Expr::c(tiles - 1));
                let b = w.base.mul_c(w.stride).add(&w.offset).sub(&t.mul_c(*stride));
                Some((t, b))
            });
            let (t, b) = eq1.unwrap_or_else(|| generic_unfold(e, *stride, tiles));
            let mut out = exprs.to_vec();
            out.splice(*dim..=*dim, [t, b]);
            out
        }
        LayoutPrim::Pad { dim, before, .. } => {
            let mut out = exprs.to_vec();
            out[*dim] = out[*dim].add_c(*before);
            out
        }
        LayoutPrim::StoreAtHost { .. } => exprs.to_vec(),
        LayoutPrim::Swizzle { dim, src, bits } => {
            // phys = (e with its low `bits` bits XOR'd against src's).
            let e = &exprs[*dim];
            let low = e.mod_c(1i64 << *bits);
            let mut out = exprs.to_vec();
            out[*dim] = e.sub(&low).add(&xor_low_bits(e, &exprs[*src], *bits));
            out
        }
        LayoutPrim::Morton { dim } => {
            // Interleave: bit j of `x` lands on physical bit 2j+1, bit j
            // of `y` on physical bit 2j.
            let k = shape_before[*dim].trailing_zeros();
            let x = &exprs[*dim];
            let y = &exprs[dim + 1];
            let mut acc = Expr::c(0);
            for j in 0..k {
                acc = acc.add(&bit_of(x, j).mul_c(1i64 << (2 * j + 1)));
                acc = acc.add(&bit_of(y, j).mul_c(1i64 << (2 * j)));
            }
            let mut out = exprs.to_vec();
            out.splice(*dim..=dim + 1, [acc]);
            out
        }
        LayoutPrim::BlockDiag { dim, src, block } => {
            let d = shape_before[*dim];
            let mut out = exprs.to_vec();
            out[*dim] = exprs[*dim].add(&exprs[*src].mul_c(*block)).mod_c(d);
            out
        }
    }
}

/// Generic (pattern-free) unfold placement: canonical tile `min(e/S, T-1)`.
fn generic_unfold(e: &Expr, stride: i64, tiles: i64) -> (Expr, Expr) {
    let t = e.div_c(stride).min_e(&Expr::c(tiles - 1));
    let b = e.sub(&t.mul_c(stride));
    (t, b)
}

/// Bit `j` of a non-negative expression: `(e div 2^j) mod 2`.
fn bit_of(e: &Expr, j: u32) -> Expr {
    e.div_c(1 << j).mod_c(2)
}

/// XOR of the low `bits` bits of `a` and `b`, written with quasi-affine
/// arithmetic only: per bit, `x ⊕ y = x + y − 2·x·y` (each factor is
/// {0,1}-valued, which keeps the product exactly encodable as an integer
/// set — see `alt-verify`'s set bridge).
fn xor_low_bits(a: &Expr, b: &Expr, bits: u32) -> Expr {
    let mut acc = Expr::c(0);
    for j in 0..bits {
        let x = bit_of(a, j);
        let y = bit_of(b, j);
        let xor = x.add(&y).sub(&x.mul(&y).mul_c(2));
        acc = acc.add(&xor.mul_c(1 << j));
    }
    acc
}

/// Applies one primitive's inverse access rewrite (physical -> logical).
fn rewrite_inverse(
    prim: &LayoutPrim,
    shape_before: &[i64],
    exprs: &[Expr],
    conds: &mut Vec<Cond>,
) -> Vec<Expr> {
    match prim {
        LayoutPrim::Split { dim, factors } => {
            // dims dim..dim+m recombine.
            let m = factors.len();
            let mut e = exprs[*dim].clone();
            for j in 1..m {
                e = e.mul_c(factors[j]).add(&exprs[dim + j]);
            }
            let mut out = exprs.to_vec();
            out.splice(*dim..dim + m, [e]);
            out
        }
        LayoutPrim::Reorder { perm } => {
            let mut out = vec![Expr::c(0); exprs.len()];
            for (j, &p) in perm.iter().enumerate() {
                out[p] = exprs[j].clone();
            }
            out
        }
        LayoutPrim::Fuse { start, count } => {
            let e = &exprs[*start];
            let mut parts = Vec::with_capacity(*count);
            for j in 0..*count {
                let suffix: i64 = shape_before[start + j + 1..start + count].iter().product();
                let mut part = e.div_c(suffix);
                if j > 0 {
                    part = part.mod_c(shape_before[start + j]);
                }
                parts.push(part);
            }
            let mut out = exprs.to_vec();
            out.splice(*start..start + 1, parts);
            out
        }
        LayoutPrim::Unfold { dim, tile, stride } => {
            let d = shape_before[*dim];
            let t = &exprs[*dim];
            let b = &exprs[dim + 1];
            let e = t.mul_c(*stride).add(b);
            // Overhang slots of the last tile map past the end.
            let tiles = num_tiles(d, *tile, *stride);
            if (tiles - 1) * stride + tile > d {
                conds.push(Cond::Lt(e.clone(), Expr::c(d)));
            }
            let mut out = exprs.to_vec();
            out.splice(*dim..dim + 2, [e]);
            out
        }
        LayoutPrim::Pad { dim, before, after } => {
            let d = shape_before[*dim];
            let mut out = exprs.to_vec();
            let e = out[*dim].sub(&Expr::c(*before));
            if *before > 0 {
                conds.push(Cond::Ge(e.clone(), Expr::c(0)));
            }
            if *after > 0 {
                conds.push(Cond::Lt(e.clone(), Expr::c(d)));
            }
            out[*dim] = e;
            out
        }
        LayoutPrim::StoreAtHost { dim } => {
            let d = shape_before[*dim];
            conds.push(Cond::Lt(exprs[*dim].clone(), Expr::c(d)));
            exprs.to_vec()
        }
        LayoutPrim::Swizzle { dim, src, bits } => {
            // XOR is an involution and `src` passes through unchanged, so
            // the inverse is the forward formula applied to physical
            // indices. Bijective: no validity conditions.
            let p = &exprs[*dim];
            let low = p.mod_c(1i64 << *bits);
            let mut out = exprs.to_vec();
            out[*dim] = p.sub(&low).add(&xor_low_bits(p, &exprs[*src], *bits));
            out
        }
        LayoutPrim::Morton { dim } => {
            // De-interleave: odd physical bits rebuild `x`, even bits `y`.
            let k = shape_before[*dim].trailing_zeros();
            let p = &exprs[*dim];
            let mut x = Expr::c(0);
            let mut y = Expr::c(0);
            for j in 0..k {
                x = x.add(&bit_of(p, 2 * j + 1).mul_c(1i64 << j));
                y = y.add(&bit_of(p, 2 * j).mul_c(1i64 << j));
            }
            let mut out = exprs.to_vec();
            out.splice(*dim..dim + 1, [x, y]);
            out
        }
        LayoutPrim::BlockDiag { dim, src, block } => {
            // Euclidean mod undoes the cyclic shift even when the
            // difference is negative. Bijective: no conditions.
            let d = shape_before[*dim];
            let mut out = exprs.to_vec();
            out[*dim] = exprs[*dim].sub(&exprs[*src].mul_c(*block)).mod_c(d);
            out
        }
    }
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]

    use super::*;
    use alt_tensor::{Env, VarGen};

    fn layout4(dims: [i64; 4]) -> Layout {
        Layout::identity(Shape::new(dims.to_vec()))
    }

    #[test]
    fn unchecked_chains_revalidate_to_their_first_bad_primitive() {
        let split = LayoutPrim::Split {
            dim: 1,
            factors: vec![4, 16],
        };
        let built = layout4([1, 64, 8, 8]).with(split.clone()).unwrap();
        let rebuilt = Layout::from_prims_unchecked(Shape::new(vec![1, 64, 8, 8]), vec![split]);
        assert_eq!(rebuilt, built);
        assert!(rebuilt.revalidate().is_ok());

        let bad = Layout::from_prims_unchecked(
            Shape::new(vec![1, 64, 8, 8]),
            vec![
                LayoutPrim::Split {
                    dim: 1,
                    factors: vec![3, 16],
                },
                LayoutPrim::Pad {
                    dim: 9,
                    before: 0,
                    after: 1,
                },
            ],
        );
        assert_eq!(bad.physical_shape().dims(), &[1, 64, 8, 8]);
        assert!(matches!(
            bad.revalidate(),
            Err(LayoutError::BadFactors { .. })
        ));
    }

    #[test]
    fn nhwo_permutation() {
        // NOHW (logical) -> NHWO (physical).
        let l = layout4([1, 64, 56, 56])
            .with(LayoutPrim::Reorder {
                perm: vec![0, 2, 3, 1],
            })
            .unwrap();
        assert_eq!(l.physical_shape().dims(), &[1, 56, 56, 64]);
        assert_eq!(
            l.logical_to_physical(&[0, 5, 6, 7]).unwrap(),
            vec![0, 6, 7, 5]
        );
        assert_eq!(
            l.physical_to_logical(&[0, 6, 7, 5]).unwrap(),
            Some(vec![0, 5, 6, 7])
        );
    }

    #[test]
    fn split_reorder_tiled_channels() {
        // N O H W -> N O/16 H W 16 (the N O/ot H W ot layout).
        let l = layout4([1, 64, 8, 8])
            .with(LayoutPrim::Split {
                dim: 1,
                factors: vec![4, 16],
            })
            .unwrap()
            .with(LayoutPrim::Reorder {
                perm: vec![0, 1, 3, 4, 2],
            })
            .unwrap();
        assert_eq!(l.physical_shape().dims(), &[1, 4, 8, 8, 16]);
        // o = 37 -> (2, 5): phys [n, 2, h, w, 5].
        assert_eq!(
            l.logical_to_physical(&[0, 37, 3, 4]).unwrap(),
            vec![0, 2, 3, 4, 5]
        );
    }

    #[test]
    fn physical_dim_names_follow_lineage() {
        // N O H W -split(O)-> -reorder-> N O.o H W O.i
        let l = layout4([1, 64, 8, 8])
            .with(LayoutPrim::Split {
                dim: 1,
                factors: vec![4, 16],
            })
            .unwrap()
            .with(LayoutPrim::Reorder {
                perm: vec![0, 1, 3, 4, 2],
            })
            .unwrap();
        assert_eq!(
            l.physical_dim_names(&["n", "o", "h", "w"]),
            vec!["n", "o.o", "h", "w", "o.i"]
        );
    }

    #[test]
    fn physical_dim_names_fuse_unfold_pad() {
        let l = Layout::identity(Shape::new([2, 6, 5, 8]))
            .with(LayoutPrim::Fuse { start: 1, count: 3 })
            .unwrap()
            .with(LayoutPrim::Unfold {
                dim: 1,
                tile: 30,
                stride: 30,
            })
            .unwrap()
            .with(LayoutPrim::Pad {
                dim: 2,
                before: 0,
                after: 2,
            })
            .unwrap();
        assert_eq!(
            l.physical_dim_names(&["n", "h", "w", "o"]),
            vec!["n", "h+w+o.t", "h+w+o.u"]
        );
        // Wrong-rank logical names fall back to positional d{k}.
        assert_eq!(
            l.physical_dim_names(&["n", "h"]),
            vec!["d0", "d1+d2+d3.t", "d1+d2+d3.u"]
        );
    }

    #[test]
    fn physical_dim_names_identity_and_many_way_split() {
        let l = layout4([1, 64, 8, 8]);
        assert_eq!(
            l.physical_dim_names(&["n", "o", "h", "w"]),
            vec!["n", "o", "h", "w"]
        );
        let l = layout4([1, 64, 8, 8])
            .with(LayoutPrim::Split {
                dim: 1,
                factors: vec![2, 4, 8],
            })
            .unwrap();
        assert_eq!(
            l.physical_dim_names(&["n", "o", "h", "w"]),
            vec!["n", "o.s0", "o.s1", "o.s2", "h", "w"]
        );
    }

    #[test]
    fn fuse_then_split_paper_example() {
        // Paper §4.1.1: NHWO -fuse(1..4)-> N(HWO) -split-> N (O/4) 4 (HW)
        // -reorder-> N (O/4) (HW) 4.
        let (h, w, o) = (6, 5, 8);
        let l = Layout::identity(Shape::new([2, h, w, o]))
            .with(LayoutPrim::Fuse { start: 1, count: 3 })
            .unwrap()
            .with(LayoutPrim::Split {
                dim: 1,
                factors: vec![o / 4, 4, h * w],
            })
            .unwrap()
            .with(LayoutPrim::Reorder {
                perm: vec![0, 1, 3, 2],
            })
            .unwrap();
        assert_eq!(l.physical_shape().dims(), &[2, o / 4, h * w, 4]);
        // Spot-check the access arithmetic of the paper's running example:
        // e = h*(W*O) + w*O + o; phys = [n, e/(HW)/4, e%(HW), (e/(HW))%4].
        for &(n, hh, ww, oo) in &[(0i64, 0i64, 0i64, 0i64), (1, 3, 2, 5), (1, 5, 4, 7)] {
            let e = hh * (w * o) + ww * o + oo;
            let expect = vec![n, e / (h * w) / 4, e % (h * w), (e / (h * w)) % 4];
            assert_eq!(l.logical_to_physical(&[n, hh, ww, oo]).unwrap(), expect);
        }
    }

    #[test]
    fn unfold_array_example() {
        // Paper §4.1.2: {1,2,3,4,5} with B=3, S=2 -> {{1,2,3},{3,4,5}}.
        let l = Layout::identity(Shape::new([5]))
            .with(LayoutPrim::Unfold {
                dim: 0,
                tile: 3,
                stride: 2,
            })
            .unwrap();
        assert_eq!(l.physical_shape().dims(), &[2, 3]);
        let data = NdBuf::from_vec(Shape::new([5]), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let packed = l.pack(&data).unwrap();
        assert_eq!(packed.data(), &[1.0, 2.0, 3.0, 3.0, 4.0, 5.0]);
        let unpacked = l.unpack(&packed).unwrap();
        assert_eq!(unpacked.data(), data.data());
    }

    #[test]
    fn unfold_overhang_is_zero_filled() {
        // d=5, B=3, S=3 -> tiles = ceil(2/3)+1 = 2, second tile covers 3..5
        // plus one overhang slot.
        let l = Layout::identity(Shape::new([5]))
            .with(LayoutPrim::Unfold {
                dim: 0,
                tile: 3,
                stride: 3,
            })
            .unwrap();
        assert_eq!(l.physical_shape().dims(), &[2, 3]);
        let data = NdBuf::from_vec(Shape::new([5]), vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let packed = l.pack(&data).unwrap();
        assert_eq!(packed.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 0.0]);
        assert_eq!(l.physical_to_logical(&[1, 2]).unwrap(), None);
    }

    #[test]
    fn pad_shifts_and_guards() {
        let l = Layout::identity(Shape::new([4]))
            .with(LayoutPrim::Pad {
                dim: 0,
                before: 1,
                after: 2,
            })
            .unwrap();
        assert_eq!(l.physical_shape().dims(), &[7]);
        assert_eq!(l.logical_to_physical(&[0]).unwrap(), vec![1]);
        assert_eq!(l.physical_to_logical(&[0]).unwrap(), None);
        assert_eq!(l.physical_to_logical(&[5]).unwrap(), None);
        assert_eq!(l.physical_to_logical(&[2]).unwrap(), Some(vec![1]));
    }

    #[test]
    fn pack_unpack_roundtrip_composite() {
        let l = layout4([2, 8, 6, 6])
            .with(LayoutPrim::Split {
                dim: 1,
                factors: vec![2, 4],
            })
            .unwrap()
            .with(LayoutPrim::Reorder {
                perm: vec![0, 1, 3, 4, 2],
            })
            .unwrap()
            .with(LayoutPrim::Unfold {
                dim: 2,
                tile: 4,
                stride: 2,
            })
            .unwrap();
        let logical = NdBuf::from_fn(Shape::new([2, 8, 6, 6]), |i| i as f32);
        let packed = l.pack(&logical).unwrap();
        let unpacked = l.unpack(&packed).unwrap();
        assert_eq!(unpacked.data(), logical.data());
    }

    #[test]
    fn window_pattern_uses_eq1() {
        // Access h*1 + rh where rh has extent 3 (KH=3), unfold with
        // B = ht + KH - 1 = 6, S = ht = 4: Eq. 1 gives t = h / 4.
        let mut g = VarGen::new();
        let h = g.fresh("h");
        let rh = g.fresh("rh");
        let mut extents = VarExtents::new();
        extents.insert(rh.id(), 3);
        let l = Layout::identity(Shape::new([10]))
            .with(LayoutPrim::Unfold {
                dim: 0,
                tile: 6,
                stride: 4,
            })
            .unwrap();
        let access = Expr::v(&h).add(&Expr::v(&rh));
        let out = l.rewrite_access(&[access], &extents).unwrap();
        assert_eq!(out.len(), 2);
        // Evaluate: for h in 0..8 (output positions), rh in 0..3, the
        // physical element must hold logical h + rh.
        for hh in 0..8 {
            for rr in 0..3 {
                let mut env = Env::new();
                env.bind(&h, hh);
                env.bind(&rh, rr);
                let t = out[0].eval(&env);
                let b = out[1].eval(&env);
                // Tile content: tile t starts at logical t*S.
                assert_eq!(t * 4 + b, hh + rr, "h={hh} rh={rr}");
                assert!((0..6).contains(&b), "offset {b} out of tile");
                // Eq. 1 keeps a whole window inside one tile.
                assert_eq!(t, hh / 4);
            }
        }
    }

    #[test]
    fn store_at_host_reserves_slot() {
        let l = Layout::identity(Shape::new([3, 4]))
            .with(LayoutPrim::StoreAtHost { dim: 0 })
            .unwrap();
        assert_eq!(l.physical_shape().dims(), &[4, 4]);
        assert_eq!(l.physical_to_logical(&[3, 0]).unwrap(), None);
        assert_eq!(l.logical_to_physical(&[2, 1]).unwrap(), vec![2, 1]);
    }

    #[test]
    fn store_at_guest_round_trips_through_the_reserved_slot() {
        // Host [3, 4] reserves row 3; the guest [4] lives there.
        let l = Layout::identity(Shape::new([3, 4]))
            .with(LayoutPrim::StoreAtHost { dim: 0 })
            .unwrap();
        let host_data = NdBuf::from_fn(Shape::new([3, 4]), |i| i as f32 + 1.0);
        let mut host = l.pack(&host_data).unwrap();
        let guest = NdBuf::from_fn(Shape::new([4]), |i| -(i as f32) - 1.0);
        l.embed_guest(0, &guest, &mut host).unwrap();
        assert_eq!(&host.data()[..12], host_data.data());
        assert_eq!(&host.data()[12..], guest.data());
        let back = l.extract_guest(0, guest.shape(), &host).unwrap();
        assert_eq!(back.data(), guest.data());
        assert_eq!(l.unpack(&host).unwrap().data(), host_data.data());
    }

    #[test]
    fn store_at_guest_errors_are_typed() {
        let l = Layout::identity(Shape::new([3, 4]))
            .with(LayoutPrim::StoreAtHost { dim: 0 })
            .unwrap();
        let mut host = NdBuf::zeros(l.physical_shape());
        // A guest wider than the slot maps past the host's last column.
        let wide = NdBuf::zeros(Shape::new([5]));
        assert_eq!(
            l.embed_guest(0, &wide, &mut host).unwrap_err(),
            LayoutError::IndexOutOfBounds {
                what: "embed_guest",
                index: vec![4],
            }
        );
        assert!(matches!(
            l.extract_guest(0, &Shape::new([2, 2]), &host).unwrap_err(),
            LayoutError::RankMismatch { .. }
        ));
        assert!(matches!(
            l.extract_guest(0, &Shape::new([4]), &NdBuf::zeros(Shape::new([3, 4])))
                .unwrap_err(),
            LayoutError::ShapeMismatch { .. }
        ));
    }

    #[test]
    fn invalid_primitives_rejected() {
        let l = layout4([1, 8, 4, 4]);
        assert!(matches!(
            l.clone()
                .with(LayoutPrim::Split {
                    dim: 1,
                    factors: vec![3, 2]
                })
                .unwrap_err(),
            LayoutError::BadFactors { .. }
        ));
        assert!(matches!(
            l.clone()
                .with(LayoutPrim::Reorder {
                    perm: vec![0, 0, 2, 3]
                })
                .unwrap_err(),
            LayoutError::BadPermutation(_)
        ));
        assert!(matches!(
            l.clone()
                .with(LayoutPrim::Unfold {
                    dim: 2,
                    tile: 8,
                    stride: 1
                })
                .unwrap_err(),
            LayoutError::BadUnfold { .. }
        ));
        assert!(matches!(
            l.with(LayoutPrim::Fuse { start: 3, count: 2 }).unwrap_err(),
            LayoutError::BadFuseRange { .. }
        ));
    }

    #[test]
    fn swizzle_is_a_bijection_per_src_slice() {
        // 8x16, XOR the low 2 bits of dim 1 with the low 2 bits of dim 0.
        let l = Layout::identity(Shape::new([8, 16]))
            .with(LayoutPrim::Swizzle {
                dim: 1,
                src: 0,
                bits: 2,
            })
            .unwrap();
        assert_eq!(l.physical_shape().dims(), &[8, 16]);
        // Spot-check the XOR arithmetic: col 5 (0b0101) in row 3 (0b0011)
        // lands at 0b0101 ^ 0b0011-low-2 = 0b0110 = 6.
        assert_eq!(l.logical_to_physical(&[3, 5]).unwrap(), vec![3, 6]);
        // Bijection: every physical slot holds exactly one logical element.
        let mut seen = std::collections::HashSet::new();
        for r in 0..8 {
            for c in 0..16 {
                let p = l.logical_to_physical(&[r, c]).unwrap();
                assert_eq!(p[0], r);
                assert!(seen.insert((p[0], p[1])), "collision at {p:?}");
                assert_eq!(l.physical_to_logical(&p).unwrap(), Some(vec![r, c]));
            }
        }
        let data = NdBuf::from_fn(Shape::new([8, 16]), |i| i as f32);
        let packed = l.pack(&data).unwrap();
        assert_eq!(l.unpack(&packed).unwrap().data(), data.data());
    }

    #[test]
    fn morton_interleaves_bits() {
        let l = Layout::identity(Shape::new([4, 4]))
            .with(LayoutPrim::Morton { dim: 0 })
            .unwrap();
        assert_eq!(l.physical_shape().dims(), &[16]);
        // (x=0b10, y=0b01) -> bits x1 y1 x0 y0 = 1 0 0 1 = 9.
        assert_eq!(l.logical_to_physical(&[2, 1]).unwrap(), vec![9]);
        assert_eq!(l.physical_to_logical(&[9]).unwrap(), Some(vec![2, 1]));
        let mut seen = std::collections::HashSet::new();
        for x in 0..4 {
            for y in 0..4 {
                let p = l.logical_to_physical(&[x, y]).unwrap();
                assert!(seen.insert(p[0]));
                assert_eq!(l.physical_to_logical(&p).unwrap(), Some(vec![x, y]));
            }
        }
        let data = NdBuf::from_fn(Shape::new([4, 4]), |i| i as f32);
        let packed = l.pack(&data).unwrap();
        assert_eq!(l.unpack(&packed).unwrap().data(), data.data());
    }

    #[test]
    fn block_diag_rotates_rows() {
        let l = Layout::identity(Shape::new([4, 8]))
            .with(LayoutPrim::BlockDiag {
                dim: 1,
                src: 0,
                block: 2,
            })
            .unwrap();
        assert_eq!(l.physical_shape().dims(), &[4, 8]);
        // Row 3: col c lands at (c + 6) mod 8.
        assert_eq!(l.logical_to_physical(&[3, 5]).unwrap(), vec![3, 3]);
        assert_eq!(l.physical_to_logical(&[3, 3]).unwrap(), Some(vec![3, 5]));
        let data = NdBuf::from_fn(Shape::new([4, 8]), |i| i as f32);
        let packed = l.pack(&data).unwrap();
        assert_eq!(l.unpack(&packed).unwrap().data(), data.data());
    }

    #[test]
    fn new_primitives_validate_parameters() {
        let l = Layout::identity(Shape::new([8, 12]));
        // 12 is not divisible by 2^3.
        assert!(matches!(
            l.clone()
                .with(LayoutPrim::Swizzle {
                    dim: 1,
                    src: 0,
                    bits: 3
                })
                .unwrap_err(),
            LayoutError::BadSwizzle { .. }
        ));
        assert!(matches!(
            l.clone()
                .with(LayoutPrim::Swizzle {
                    dim: 0,
                    src: 0,
                    bits: 1
                })
                .unwrap_err(),
            LayoutError::BadSwizzle { .. }
        ));
        // 8 != 12 and 12 is not a power of two.
        assert!(matches!(
            l.clone().with(LayoutPrim::Morton { dim: 0 }).unwrap_err(),
            LayoutError::BadMorton { .. }
        ));
        assert!(matches!(
            l.clone()
                .with(LayoutPrim::BlockDiag {
                    dim: 1,
                    src: 0,
                    block: 12
                })
                .unwrap_err(),
            LayoutError::BadBlockDiag { .. }
        ));
        assert!(matches!(
            l.with(LayoutPrim::BlockDiag {
                dim: 1,
                src: 1,
                block: 2
            })
            .unwrap_err(),
            LayoutError::BadBlockDiag { .. }
        ));
    }

    #[test]
    fn new_primitive_names_and_display() {
        let l = Layout::identity(Shape::new([4, 4, 8]))
            .with(LayoutPrim::Morton { dim: 0 })
            .unwrap()
            .with(LayoutPrim::Swizzle {
                dim: 1,
                src: 0,
                bits: 2,
            })
            .unwrap()
            .with(LayoutPrim::BlockDiag {
                dim: 1,
                src: 0,
                block: 1,
            })
            .unwrap();
        assert_eq!(
            l.physical_dim_names(&["x", "y", "c"]),
            vec!["x~y", "c^x~y@x~y"]
        );
        let s = format!("{l}");
        assert!(s.contains("morton(0)"), "{s}");
        assert!(s.contains("swizzle(1, src=0, bits=2)"), "{s}");
        assert!(s.contains("block_diag(1, src=0, block=1)"), "{s}");
    }

    #[test]
    fn display_is_informative() {
        let l = layout4([1, 8, 4, 4])
            .with(LayoutPrim::Reorder {
                perm: vec![0, 2, 3, 1],
            })
            .unwrap();
        let s = format!("{l}");
        assert!(s.contains("reorder"), "{s}");
    }

    #[test]
    fn inverse_primitives_undo() {
        let mut l = Layout::identity(Shape::new([8]))
            .with(LayoutPrim::Unfold {
                dim: 0,
                tile: 4,
                stride: 2,
            })
            .unwrap();
        assert_eq!(l.physical_shape().dims(), &[3, 4]);
        l.fold().unwrap();
        assert!(l.is_identity());
        assert!(l.fold().is_err());
        l.apply(LayoutPrim::Pad {
            dim: 0,
            before: 0,
            after: 3,
        })
        .unwrap();
        l.unpad().unwrap();
        assert!(l.is_identity());
        l.apply(LayoutPrim::StoreAtHost { dim: 0 }).unwrap();
        l.decouple_at().unwrap();
        assert!(l.is_identity());
        assert!(l.decouple_at().is_err());
    }
}
