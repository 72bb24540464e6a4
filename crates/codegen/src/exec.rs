//! Kernel execution over raw `f32` buffers.
//!
//! The executor interprets the compiled instruction streams directly —
//! integer prologues into a flat register file through the op loop the
//! layout walks also use ([`alt_tensor::range::run`]), statement bodies
//! on a reusable stack of lane vectors, a row at a time — touching
//! buffers only through precomputed flat offsets. One evaluator runs
//! every statement over a row of `n` lanes: a bare statement, or a point
//! of a walk without rows, is a row of one lane. Three loop strategies
//! exist:
//!
//! * **Scalar**: bind the loop register, run the prologue, run the body.
//! * **Walk** (a nest of statements, [`Walk`]): run the covered loops'
//!   prologues once, then step the statements' offsets by the levels'
//!   strides. A multiply-accumulate checks each buffer's displacement box
//!   once and steps three `f32` offsets, each point doing the stack
//!   program's loads, multiply and add. With a [`Tile`] it runs the
//!   spatial levels outside and, per block of `MR ∈ {4, 1}` rows by
//!   `NR ∈ {8, 4, 2, 1}` columns, a const-generic micro-kernel that loads
//!   the block's outputs once into `[[f32; NR]; MR]`, runs the reduction
//!   levels innermost in their loop-tree order and stores once; the
//!   tiling rule keeps every slot's sequence of adds (see [`Tile`]).
//!   Without one it visits the loop tree's order, its innermost level as
//!   slice adds when its lanes are independent, else as a strided lane
//!   loop. Any other walk steps its offset registers in place in the loop
//!   tree's order. With rows (the row rule holds, see [`Walk`]) its
//!   innermost level is one row: each statement in body order gathers
//!   every load's lanes (a slice copy at step 1, a splat at step 0,
//!   strided otherwise), applies each op lane by lane and stores the lanes
//!   in lane order. Without rows each point runs the statements in body
//!   order as rows of one lane.
//! * **Parallel** (`@par`): split the iteration space into contiguous
//!   ranges; the calling thread runs the first and a scoped thread each
//!   of the others. Lowering marks only spatial loops parallel, so ranges
//!   write disjoint slots and per-slot accumulation order is preserved;
//!   nested parallel loops run serially inside a worker.
//!
//! Buffer accesses are bounds-checked in debug builds, once per row at
//! its first and last lane, and unchecked in release, except a
//! multiply-accumulate walk's, whose displacement boxes are checked once
//! per entry in every build (a stack program's load in an untaken
//! `Select` arm may lie out of range, so other walks check only what they
//! touch); offsets come from the same index expressions the interpreter
//! evaluates, so any out-of-range offset is a lowering bug that the
//! differential tests catch in debug mode first.

use std::collections::HashMap;
use std::time::Instant;

use alt_layout::LayoutPlan;
use alt_loopir::tir::Program;
use alt_loopir::{pack_buffers, unpack_buffers, StoreMode};
use alt_tensor::op::{ScalarBinOp, UnaryOp};
use alt_tensor::range;
use alt_tensor::{Graph, NdBuf, TensorId};

use crate::ir::{
    CGroup, CLoop, CNode, CStmt, FOp, NativeKernel, Tile, Walk, WalkAccess, WalkLevel,
};

/// Wall-clock accounting of one native run.
#[derive(Clone, Debug)]
pub struct NativeRunStats {
    /// `(group label, microseconds)` per lowered group, execution order.
    pub group_us: Vec<(String, f64)>,
    /// End-to-end kernel time in microseconds (excludes pack/unpack).
    pub total_us: f64,
    /// Wall-clock of packing the logical bindings into the physical
    /// buffer table, in microseconds ([`NativeKernel::run`]; 0 after
    /// [`NativeKernel::execute`] alone).
    pub pack_us: f64,
    /// Wall-clock of unpacking the physical buffers back to logical
    /// tensors, in microseconds (as `pack_us`).
    pub unpack_us: f64,
    /// Worker thread cap the run used.
    pub threads: usize,
}

/// Default worker-thread cap: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

struct BufPtr {
    ptr: *mut f32,
    len: usize,
}

/// Shared view of the buffer table for worker threads. Safety rests on
/// the lowering invariant that parallel iterations write disjoint slots;
/// reads may alias freely (no `&mut` references exist during execution).
struct Bufs {
    slots: Vec<BufPtr>,
}

unsafe impl Send for Bufs {}
unsafe impl Sync for Bufs {}

impl Bufs {
    /// The base pointer of an access's buffer for a walk from offset
    /// `off`, after checking (in every build: once per walk entry, not per
    /// point) that the access's displacement box around `off`, and so
    /// every offset the walk touches, lies inside the buffer.
    #[inline]
    fn walk(&self, acc: &WalkAccess, off: i64) -> *mut f32 {
        let s = &self.slots[acc.buf as usize];
        let (lo, hi) = (off + acc.lo, off + acc.hi);
        assert!(
            lo >= 0 && (hi as usize) < s.len,
            "walk offsets {lo}..={hi} out of bounds for buffer {} (len {})",
            acc.buf,
            s.len
        );
        s.ptr
    }

    /// The base pointer of buffer `buf` for a row of `n` lanes from
    /// offset `off`, `step` apart, after checking in debug builds that its
    /// first and last lane, and so every lane, lie inside the buffer.
    #[inline]
    fn row(&self, buf: u32, off: i64, step: i64, n: usize, what: &str) -> *mut f32 {
        let s = &self.slots[buf as usize];
        let last = off + (n as i64 - 1) * step;
        debug_assert!(
            off.min(last) >= 0 && (off.max(last) as usize) < s.len,
            "{what} offsets {off}..={last} out of bounds for buffer {buf} (len {})",
            s.len
        );
        s.ptr
    }

    /// Reads the lanes `dst` of a row from offset `off` of buffer `buf`,
    /// `step` apart.
    #[inline]
    fn gather(&self, buf: u32, off: i64, step: i64, dst: &mut [f32]) {
        let p = self.row(buf, off, step, dst.len(), "load");
        // SAFETY: every lane lies inside the buffer (checked in debug
        // builds; offsets come from the interpreter's index expressions).
        unsafe {
            let p = p.offset(off as isize);
            match step {
                1 => dst.copy_from_slice(std::slice::from_raw_parts(p, dst.len())),
                0 => dst.fill(*p),
                _ => {
                    for (k, d) in dst.iter_mut().enumerate() {
                        *d = *p.offset(k as isize * step as isize);
                    }
                }
            }
        }
    }

    /// Stores the lanes `v` of a row from offset `off` of buffer `buf`,
    /// `step` apart, lane by lane in lane order: `Assign` writes each
    /// value, `AddAcc` stores `old + v` and `MaxAcc` `old.max(v)`.
    #[inline]
    fn scatter(&self, buf: u32, off: i64, step: i64, mode: StoreMode, v: &[f32]) {
        let p = self.row(buf, off, step, v.len(), "store");
        // SAFETY: as `gather`; parallel workers write disjoint slots (see
        // `Bufs`).
        unsafe {
            let p = p.offset(off as isize);
            if step == 1 {
                let out = std::slice::from_raw_parts_mut(p, v.len());
                match mode {
                    StoreMode::Assign => out.copy_from_slice(v),
                    StoreMode::AddAcc => lanewise(out, v, |old, x| old + x),
                    StoreMode::MaxAcc => lanewise(out, v, f32::max),
                }
                return;
            }
            for (k, &x) in v.iter().enumerate() {
                let q = p.offset(k as isize * step as isize);
                *q = match mode {
                    StoreMode::Assign => x,
                    StoreMode::AddAcc => *q + x,
                    StoreMode::MaxAcc => (*q).max(x),
                };
            }
        }
    }
}

/// Per-thread mutable execution state.
struct ThreadState {
    regs: Vec<i64>,
    /// The running statement's stack of lane vectors, one row wide each,
    /// bottom first; grown on demand and reused.
    lanes: Vec<f32>,
}

impl ThreadState {
    /// A state over the register file `regs`.
    fn new(regs: Vec<i64>) -> Self {
        Self {
            regs,
            lanes: Vec::new(),
        }
    }
}

/// Pushes a vector of `n` lanes onto the stack `lanes` that ends at `top`
/// and returns it, growing the stack when it is too short.
#[inline]
fn push<'a>(lanes: &'a mut Vec<f32>, top: &mut usize, n: usize) -> &'a mut [f32] {
    if lanes.len() < *top + n {
        lanes.resize(*top + n, 0.0);
    }
    *top += n;
    &mut lanes[*top - n..*top]
}

/// Sets each lane of `a` to `f` of it and the same lane of `b`.
#[inline(always)]
fn lanewise(a: &mut [f32], b: &[f32], f: impl Fn(f32, f32) -> f32) {
    for (x, &y) in a.iter_mut().zip(b) {
        *x = f(*x, y);
    }
}

/// Applies `op` lane by lane, `a <op> b` into `a`, matching it once.
fn bin(op: ScalarBinOp, a: &mut [f32], b: &[f32]) {
    match op {
        ScalarBinOp::Add => lanewise(a, b, |x, y| x + y),
        ScalarBinOp::Sub => lanewise(a, b, |x, y| x - y),
        ScalarBinOp::Mul => lanewise(a, b, |x, y| x * y),
        ScalarBinOp::Div => lanewise(a, b, |x, y| x / y),
        ScalarBinOp::Max => lanewise(a, b, f32::max),
        ScalarBinOp::Min => lanewise(a, b, f32::min),
    }
}

/// Sets each lane of `a` to `f` of it.
#[inline(always)]
fn map(a: &mut [f32], f: impl Fn(f32) -> f32) {
    a.iter_mut().for_each(|x| *x = f(*x));
}

/// Applies `op` lane by lane to `a`, matching it once.
fn un(op: UnaryOp, a: &mut [f32]) {
    match op {
        UnaryOp::Neg => map(a, |x| UnaryOp::Neg.apply(x)),
        UnaryOp::Exp => map(a, |x| UnaryOp::Exp.apply(x)),
        UnaryOp::Sqrt => map(a, |x| UnaryOp::Sqrt.apply(x)),
        UnaryOp::Rsqrt => map(a, |x| UnaryOp::Rsqrt.apply(x)),
        UnaryOp::Relu => map(a, |x| UnaryOp::Relu.apply(x)),
        UnaryOp::Sigmoid => map(a, |x| UnaryOp::Sigmoid.apply(x)),
        UnaryOp::Tanh => map(a, |x| UnaryOp::Tanh.apply(x)),
        UnaryOp::Gelu => map(a, |x| UnaryOp::Gelu.apply(x)),
        UnaryOp::Abs => map(a, |x| UnaryOp::Abs.apply(x)),
    }
}

struct Runner<'k> {
    kernel: &'k NativeKernel,
    bufs: Bufs,
    threads: usize,
}

impl Runner<'_> {
    fn run_group(&self, g: &CGroup, st: &mut ThreadState) {
        range::run(&g.prologue, &mut st.regs);
        self.run_nodes(&g.nodes, st, true);
    }

    fn run_nodes(&self, nodes: &[CNode], st: &mut ThreadState, par_ok: bool) {
        for n in nodes {
            match n {
                CNode::Stmt(s) => self.row(s, &[], 1, st),
                CNode::Loop(l) => self.run_loop(l, st, par_ok),
                CNode::Walk(w) => self.run_walk(w, st),
            }
        }
    }

    fn run_loop(&self, l: &CLoop, st: &mut ThreadState, par_ok: bool) {
        if l.parallel && par_ok && self.threads > 1 && l.extent > 1 {
            return self.run_parallel(l, st);
        }
        for i in 0..l.extent {
            st.regs[l.var_reg as usize] = i;
            range::run(&l.prologue, &mut st.regs);
            self.run_nodes(&l.body, st, par_ok);
        }
    }

    /// Contiguous range partitioning over scoped threads: the calling
    /// thread runs the first range and one spawned worker each of the
    /// rest. Each clones the register file (inheriting every
    /// outer-loop-invariant value) and owns its range exclusively.
    fn run_parallel(&self, l: &CLoop, st: &ThreadState) {
        let extent = l.extent as usize;
        let jobs = self.threads.min(extent);
        let chunk = extent.div_ceil(jobs);
        let run = &|lo: usize, mut ts: ThreadState| {
            for i in lo..(lo + chunk).min(extent) {
                ts.regs[l.var_reg as usize] = i as i64;
                range::run(&l.prologue, &mut ts.regs);
                self.run_nodes(&l.body, &mut ts, false);
            }
        };
        std::thread::scope(|scope| {
            for lo in (chunk..extent).step_by(chunk) {
                let ts = ThreadState::new(st.regs.clone());
                scope.spawn(move || run(lo, ts));
            }
            run(0, ThreadState::new(st.regs.clone()));
        });
    }

    /// A walk: the covered loops' prologues run once, with their variables
    /// at 0 (see [`Walk`]), for the base offsets; the levels then step the
    /// offsets by their strides, in the order of the walk's [`Tile`] if it
    /// has one and in the loop tree's order otherwise. Kept out of line:
    /// inlined into `run_nodes`, it slowed the loops around short walks (a
    /// conv of 2-lane one-level walks ran about 10% slower than out of line
    /// on a 2-vCPU x86 host).
    #[inline(never)]
    fn run_walk(&self, w: &Walk, st: &mut ThreadState) {
        range::run(&w.prologue, &mut st.regs);
        let Some(slices) = w.mac else {
            return self.points(w, &w.levels, st);
        };
        // The predicate depends on no covered variable: a false one skips
        // the whole accumulation.
        if w.stmts[0].pred.is_some_and(|p| st.regs[p as usize] == 0) {
            return;
        }
        let off = [0, 1, 2].map(|k| st.regs[w.access[k].off as usize]);
        let ptr = [0, 1, 2].map(|k| self.bufs.walk(&w.access[k], off[k]));
        // SAFETY: `walk` checked each access's box, which holds every
        // offset the levels reach, against its buffer's length; parallel
        // workers write disjoint slots (see `Bufs`).
        unsafe {
            match (&w.tile, &w.levels[..]) {
                (Some(t), _) if t.a_vector => tiles::<true>(t, &t.outer, ptr, off),
                (Some(t), _) => tiles::<false>(t, &t.outer, ptr, off),
                // A one-level walk skips the odometer's call.
                (None, [l]) => lanes(l, slices, ptr, off),
                (None, levels) => walk_levels(levels, slices, ptr, off),
            }
        }
    }

    /// Runs the statements of `w` at every point of `levels`, stepping
    /// their offset slots in place in the loop tree's order; each level
    /// leaves the slots as it found them. With `w.rows` the innermost level
    /// runs as one row, each statement over all its lanes in body order;
    /// otherwise each point runs each statement as a row of one lane.
    fn points(&self, w: &Walk, levels: &[WalkLevel], st: &mut ThreadState) {
        match levels {
            [] => w.stmts.iter().for_each(|s| self.row(s, &[], 1, st)),
            [l] if w.rows => {
                let n = l.extent as usize;
                w.stmts.iter().for_each(|s| self.row(s, &l.steps, n, st));
            }
            [l, inner @ ..] => {
                for _ in 0..l.extent {
                    self.points(w, inner, st);
                    for &(reg, s) in &l.steps {
                        st.regs[reg as usize] += s;
                    }
                }
                for &(reg, s) in &l.steps {
                    st.regs[reg as usize] -= l.extent * s;
                }
            }
        }
    }

    /// Runs statement `s` over a row of `n` lanes whose offset slots step
    /// by `steps` from lane to lane (a slot not listed stays still): its
    /// stack program runs once on lane vectors, each lane doing the
    /// program's exact operations, and the store then writes lane by lane
    /// in lane order. A point is a row of one lane. The predicate and the
    /// `Select` conditions are the same for every lane, so an untaken arm
    /// loads nothing.
    fn row(&self, s: &CStmt, steps: &[(u32, i64)], n: usize, st: &mut ThreadState) {
        let step = |reg: u32| {
            steps
                .iter()
                .find(|&&(r, _)| r == reg)
                .map_or(0, |&(_, d)| d)
        };
        let ThreadState { regs, lanes } = st;
        let (off, off_step) = (regs[s.off as usize], step(s.off));
        if s.pred.is_some_and(|p| regs[p as usize] == 0) {
            // Interpreter pad/overhang semantics: invalid slots are
            // zeroed by `Assign` and skipped by accumulations.
            if s.mode == StoreMode::Assign {
                let zeros = push(lanes, &mut 0, n);
                zeros.fill(0.0);
                self.bufs.scatter(s.buf, off, off_step, s.mode, zeros);
            }
            return;
        }
        // `top` ends the stack, whose entries are `n` lanes each.
        let (mut top, mut pc) = (0, 0);
        while let Some(&op) = s.fops.get(pc) {
            pc += 1;
            match op {
                FOp::Imm(v) => push(lanes, &mut top, n).fill(v),
                FOp::Load { buf, off } => {
                    let dst = push(lanes, &mut top, n);
                    self.bufs.gather(buf, regs[off as usize], step(off), dst);
                }
                FOp::Bin(op) => {
                    top -= n;
                    let (a, b) = lanes[top - n..top + n].split_at_mut(n);
                    bin(op, a, b);
                }
                FOp::Un(op) => un(op, &mut lanes[top - n..top]),
                FOp::JumpIfZero { cond, to } => {
                    if regs[cond as usize] == 0 {
                        pc = to as usize;
                    }
                }
                FOp::Jump { to } => pc = to as usize,
            }
        }
        debug_assert_eq!(top, n, "a stack program leaves one value");
        self.bufs.scatter(s.buf, off, off_step, s.mode, &lanes[..n]);
    }
}

/// Runs `levels` of a walk from offsets `off` (store, left load, right
/// load) into the buffers at `ptr`, in the loop tree's order.
///
/// # Safety
///
/// Every offset the levels reach from `off` must lie inside its buffer.
unsafe fn walk_levels(levels: &[WalkLevel], slices: bool, ptr: [*mut f32; 3], mut off: [i64; 3]) {
    match levels {
        [l] => lanes(l, slices, ptr, off),
        [l, inner @ ..] => {
            for _ in 0..l.extent {
                walk_levels(inner, slices, ptr, off);
                step(&mut off, l.mac, 1);
            }
        }
        [] => {}
    }
}

/// The innermost level of a walk, `l`: each lane reads `a`, reads `b`,
/// multiplies, reads the old value, adds and stores, as the stack program
/// does. With `slices` its lanes are independent, so it runs as slice
/// adds that rustc vectorizes; every slot still sees its one add.
///
/// # Safety
///
/// As [`walk_levels`].
#[inline(always)]
unsafe fn lanes(l: &WalkLevel, slices: bool, ptr: [*mut f32; 3], off: [i64; 3]) {
    let n = l.extent as usize;
    let [po, pa, pb] = ptr;
    let [mut oo, mut oa, mut ob] = off;
    let [so, sa, sb] = l.mac;
    if slices {
        let out = std::slice::from_raw_parts_mut(po.offset(oo as isize), n);
        let load = |p: *mut f32, o: i64, s: i64| {
            std::slice::from_raw_parts(p.offset(o as isize), if s == 0 { 1 } else { n })
        };
        let (a, b) = (load(pa, oa, sa), load(pb, ob, sb));
        match (a, b) {
            ([x], [y]) => out.iter_mut().for_each(|o| *o += x * y),
            ([x], b) => out.iter_mut().zip(b).for_each(|(o, y)| *o += x * y),
            (a, [y]) => out.iter_mut().zip(a).for_each(|(o, x)| *o += x * y),
            (a, b) => out
                .iter_mut()
                .zip(a)
                .zip(b)
                .for_each(|((o, x), y)| *o += x * y),
        }
        return;
    }
    for _ in 0..n {
        let x = *pa.offset(oa as isize);
        let y = *pb.offset(ob as isize);
        *po.offset(oo as isize) += x * y;
        oo += so;
        oa += sa;
        ob += sb;
    }
}

/// Adds `n` steps `steps` to the offsets `off` (store, left load, right
/// load).
#[inline(always)]
fn step(off: &mut [i64; 3], steps: [i64; 3], n: i64) {
    for (o, s) in off.iter_mut().zip(steps) {
        *o += n * s;
    }
}

/// Runs a tiled walk (see [`Tile`]) from offsets `off` (store, left load,
/// right load) into the buffers at `ptr`: the `outer` levels as an
/// odometer, then the row level in blocks of 4 rows and one row at a
/// time for the rest. `AV` says whether `a` is the vector operand.
///
/// # Safety
///
/// As [`walk_levels`].
unsafe fn tiles<const AV: bool>(
    t: &Tile,
    outer: &[WalkLevel],
    ptr: [*mut f32; 3],
    mut off: [i64; 3],
) {
    if let [l, inner @ ..] = outer {
        for _ in 0..l.extent {
            tiles::<AV>(t, inner, ptr, off);
            step(&mut off, l.mac, 1);
        }
        return;
    }
    let (mut rows, rs) = t.row.as_ref().map_or((1, [0; 3]), |l| (l.extent, l.mac));
    while rows >= 4 {
        cols::<4, AV>(t, ptr, off, rs);
        step(&mut off, rs, 4);
        rows -= 4;
    }
    for _ in 0..rows {
        cols::<1, AV>(t, ptr, off, rs);
        step(&mut off, rs, 1);
    }
}

/// One block of `MR` rows, `rs` apart, from offsets `off`: the column
/// level in blocks of 8 columns, then 4, 2 and 1 for the rest.
///
/// # Safety
///
/// As [`walk_levels`].
#[inline(always)]
unsafe fn cols<const MR: usize, const AV: bool>(
    t: &Tile,
    ptr: [*mut f32; 3],
    mut off: [i64; 3],
    rs: [i64; 3],
) {
    let (mut left, cs) = (t.col.extent, t.col.mac);
    while left >= 8 {
        block::<MR, 8, AV>(t, ptr, off, rs);
        step(&mut off, cs, 8);
        left -= 8;
    }
    if left >= 4 {
        block::<MR, 4, AV>(t, ptr, off, rs);
        step(&mut off, cs, 4);
        left -= 4;
    }
    if left >= 2 {
        block::<MR, 2, AV>(t, ptr, off, rs);
        step(&mut off, cs, 2);
        left -= 2;
    }
    if left == 1 {
        block::<MR, 1, AV>(t, ptr, off, rs);
    }
}

/// One block of `MR` rows by `NR` columns: loads its outputs once, runs
/// the reduction levels over them in registers and stores them once.
///
/// # Safety
///
/// As [`walk_levels`].
#[inline(always)]
unsafe fn block<const MR: usize, const NR: usize, const AV: bool>(
    t: &Tile,
    ptr: [*mut f32; 3],
    off: [i64; 3],
    rs: [i64; 3],
) {
    // The column steps the store by 1, so a block row is `NR` slots.
    let row = |r: usize| {
        ptr[0]
            .offset((off[0] + r as i64 * rs[0]) as isize)
            .cast::<[f32; NR]>()
    };
    let mut acc: [[f32; NR]; MR] = std::array::from_fn(|r| *row(r));
    let (loads, at, steps) = ([ptr[1], ptr[2]], [off[1], off[2]], [rs[1], rs[2]]);
    reduce::<MR, NR, AV>(&t.reduce, &mut acc, loads, at, steps);
    for (r, out) in acc.iter().enumerate() {
        *row(r) = *out;
    }
}

/// The reduction `levels` of one block, in the loop tree's order, over
/// its accumulators `acc`, from the offsets `off` of `a` and `b` in the
/// buffers at `ptr`, whose rows lie `rs` apart: at each point every
/// accumulator adds `a · b`, as the stack program adds it to the stored
/// value. The vector operand steps by 1 along a row and stays still across
/// rows; the other operand is one value per row.
///
/// # Safety
///
/// As [`walk_levels`].
unsafe fn reduce<const MR: usize, const NR: usize, const AV: bool>(
    levels: &[WalkLevel],
    acc: &mut [[f32; NR]; MR],
    ptr: [*mut f32; 2],
    mut off: [i64; 2],
    rs: [i64; 2],
) {
    let [l, inner @ ..] = levels else { return };
    let [_, sa, sb] = l.mac;
    if !inner.is_empty() {
        for _ in 0..l.extent {
            reduce::<MR, NR, AV>(inner, acc, ptr, off, rs);
            off[0] += sa;
            off[1] += sb;
        }
        return;
    }
    let (v, s) = if AV { (0, 1) } else { (1, 0) };
    // A local copy keeps the accumulators in registers across the level.
    let mut x = *acc;
    for _ in 0..l.extent {
        let vector = *ptr[v].offset(off[v] as isize).cast::<[f32; NR]>();
        for (r, row) in x.iter_mut().enumerate() {
            let scalar = *ptr[s].offset((off[s] + r as i64 * rs[s]) as isize);
            for (o, &y) in row.iter_mut().zip(&vector) {
                let (a, b) = if AV { (y, scalar) } else { (scalar, y) };
                *o += a * b;
            }
        }
        off[0] += sa;
        off[1] += sb;
    }
    *acc = x;
}

impl NativeKernel {
    /// Executes the kernel in place over a packed physical buffer table
    /// (as produced by [`pack_buffers`]), with at most `threads` workers
    /// for `@par` loops. Returns per-group wall-clock stats.
    pub fn execute(&self, bufs: &mut [NdBuf], threads: usize) -> NativeRunStats {
        let slots = bufs
            .iter_mut()
            .map(|b| {
                let d = b.data_mut();
                BufPtr {
                    ptr: d.as_mut_ptr(),
                    len: d.len(),
                }
            })
            .collect();
        let runner = Runner {
            kernel: self,
            bufs: Bufs { slots },
            threads: threads.max(1),
        };
        let mut st = ThreadState::new(self.slots.clone());
        let t_all = Instant::now();
        let mut group_us = Vec::with_capacity(runner.kernel.groups.len());
        for g in &runner.kernel.groups {
            let t = Instant::now();
            runner.run_group(g, &mut st);
            group_us.push((g.label.clone(), t.elapsed().as_secs_f64() * 1e6));
        }
        NativeRunStats {
            group_us,
            total_us: t_all.elapsed().as_secs_f64() * 1e6,
            pack_us: 0.0,
            unpack_us: 0.0,
            threads: runner.threads,
        }
    }

    /// Packs logical bindings, executes natively and unpacks logical
    /// results — the drop-in counterpart of
    /// [`run_program`](alt_loopir::run_program), plus wall-clock stats
    /// that include the pack and unpack times.
    pub fn run(
        &self,
        program: &Program,
        graph: &Graph,
        plan: &LayoutPlan,
        bindings: &HashMap<TensorId, NdBuf>,
        threads: usize,
    ) -> (HashMap<TensorId, NdBuf>, NativeRunStats) {
        let t = Instant::now();
        let mut bufs = pack_buffers(program, graph, plan, bindings);
        let pack_us = t.elapsed().as_secs_f64() * 1e6;
        let mut stats = self.execute(&mut bufs, threads);
        let t = Instant::now();
        let out = unpack_buffers(program, graph, plan, &bufs);
        stats.pack_us = pack_us;
        stats.unpack_us = t.elapsed().as_secs_f64() * 1e6;
        (out, stats)
    }
}
