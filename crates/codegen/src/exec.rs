//! Kernel execution over raw `f32` buffers.
//!
//! The executor interprets the compiled instruction streams directly —
//! integer prologues into a flat register file through the op loop the
//! layout walks also use ([`alt_tensor::range::run`]), statement bodies
//! on a reusable value stack — touching buffers only through precomputed
//! flat offsets. Three loop strategies exist:
//!
//! * **Scalar**: bind the loop register, run the prologue, run the body.
//! * **Walk** (a single-statement nest, [`Walk`]): run the covered loops'
//!   prologues once, then step the statement's offsets by the levels'
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
//!   loop. Any other statement steps its offset registers in place and
//!   runs its stack program at each point, in the loop tree's order.
//! * **Parallel** (`@par`): split the iteration space into contiguous
//!   ranges on scoped threads. Lowering marks only spatial loops
//!   parallel, so ranges write disjoint slots and per-slot accumulation
//!   order is preserved; nested parallel loops run serially inside a
//!   worker.
//!
//! Buffer accesses are bounds-checked in debug builds and unchecked in
//! release, except a multiply-accumulate walk's, whose displacement boxes
//! are checked once per entry in every build (a stack program's load in
//! an untaken `Select` arm may lie out of range, so other walks check
//! only what they touch); offsets come from the same index expressions
//! the interpreter evaluates, so any out-of-range offset is a lowering bug
//! that the differential tests catch in debug mode first.

use std::collections::HashMap;
use std::time::Instant;

use alt_layout::LayoutPlan;
use alt_loopir::tir::Program;
use alt_loopir::{pack_buffers, unpack_buffers, StoreMode};
use alt_tensor::op::ScalarBinOp;
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
    #[inline]
    fn read(&self, buf: u32, off: i64) -> f32 {
        let s = &self.slots[buf as usize];
        debug_assert!(
            off >= 0 && (off as usize) < s.len,
            "load offset {off} out of bounds for buffer {buf} (len {})",
            s.len
        );
        unsafe { *s.ptr.add(off as usize) }
    }

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

    #[inline]
    fn write(&self, buf: u32, off: i64, v: f32) {
        let s = &self.slots[buf as usize];
        debug_assert!(
            off >= 0 && (off as usize) < s.len,
            "store offset {off} out of bounds for buffer {buf} (len {})",
            s.len
        );
        unsafe { *s.ptr.add(off as usize) = v };
    }
}

/// Per-thread mutable execution state.
struct ThreadState {
    regs: Vec<i64>,
    stack: Vec<f32>,
}

#[inline]
fn apply_fbin(op: ScalarBinOp, x: f32, y: f32) -> f32 {
    match op {
        ScalarBinOp::Add => x + y,
        ScalarBinOp::Sub => x - y,
        ScalarBinOp::Mul => x * y,
        ScalarBinOp::Div => x / y,
        ScalarBinOp::Max => x.max(y),
        ScalarBinOp::Min => x.min(y),
    }
}

#[inline]
fn pop(stack: &mut Vec<f32>) -> f32 {
    stack.pop().expect("compiled stack program underflow")
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
                CNode::Stmt(s) => self.run_stmt(s, st),
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

    /// Contiguous range partitioning over scoped threads. Each worker
    /// clones the register file (inheriting every outer-loop-invariant
    /// value) and owns its range exclusively.
    fn run_parallel(&self, l: &CLoop, st: &ThreadState) {
        let jobs = self.threads.min(l.extent as usize);
        let chunk = (l.extent as usize).div_ceil(jobs);
        std::thread::scope(|scope| {
            for k in 0..jobs {
                let lo = k * chunk;
                let hi = ((k + 1) * chunk).min(l.extent as usize);
                if lo >= hi {
                    break;
                }
                let mut ts = ThreadState {
                    regs: st.regs.clone(),
                    stack: Vec::new(),
                };
                scope.spawn(move || {
                    for i in lo..hi {
                        ts.regs[l.var_reg as usize] = i as i64;
                        range::run(&l.prologue, &mut ts.regs);
                        self.run_nodes(&l.body, &mut ts, false);
                    }
                });
            }
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
        // The predicate depends on no covered variable: a false one skips
        // an accumulating walk, and `run_stmt` zeros every point of an
        // `Assign` one.
        let s = &w.stmt;
        if s.mode != StoreMode::Assign && s.pred.is_some_and(|p| st.regs[p as usize] == 0) {
            return;
        }
        let Some(slices) = w.mac else {
            return self.points(w, &w.levels, st);
        };
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

    /// Runs the statement of `w` at every point of `levels`, stepping its
    /// offset slots in place in the loop tree's order; each level leaves
    /// the slots as it found them.
    fn points(&self, w: &Walk, levels: &[WalkLevel], st: &mut ThreadState) {
        let [l, inner @ ..] = levels else { return };
        for _ in 0..l.extent {
            if inner.is_empty() {
                self.run_stmt(&w.stmt, st);
            } else {
                self.points(w, inner, st);
            }
            for &(reg, s) in &l.steps {
                st.regs[reg as usize] += s;
            }
        }
        for &(reg, s) in &l.steps {
            st.regs[reg as usize] -= l.extent * s;
        }
    }

    fn run_stmt(&self, s: &CStmt, st: &mut ThreadState) {
        let off = st.regs[s.off as usize];
        if let Some(p) = s.pred {
            if st.regs[p as usize] == 0 {
                // Interpreter pad/overhang semantics: invalid slots are
                // zeroed by `Assign` and skipped by accumulations.
                if s.mode == StoreMode::Assign {
                    self.bufs.write(s.buf, off, 0.0);
                }
                return;
            }
        }
        let v = self.eval_fops(s, st);
        match s.mode {
            StoreMode::Assign => self.bufs.write(s.buf, off, v),
            StoreMode::AddAcc => {
                let old = self.bufs.read(s.buf, off);
                self.bufs.write(s.buf, off, old + v);
            }
            StoreMode::MaxAcc => {
                let old = self.bufs.read(s.buf, off);
                self.bufs.write(s.buf, off, old.max(v));
            }
        }
    }

    fn eval_fops(&self, s: &CStmt, st: &mut ThreadState) -> f32 {
        st.stack.clear();
        let mut pc = 0usize;
        while pc < s.fops.len() {
            match s.fops[pc] {
                FOp::Imm(v) => st.stack.push(v),
                FOp::Load { buf, off } => st.stack.push(self.bufs.read(buf, st.regs[off as usize])),
                FOp::Bin(op) => {
                    let b = pop(&mut st.stack);
                    let a = pop(&mut st.stack);
                    st.stack.push(apply_fbin(op, a, b));
                }
                FOp::Un(op) => {
                    let a = pop(&mut st.stack);
                    st.stack.push(op.apply(a));
                }
                FOp::JumpIfZero { cond, to } => {
                    if st.regs[cond as usize] == 0 {
                        pc = to as usize;
                        continue;
                    }
                }
                FOp::Jump { to } => {
                    pc = to as usize;
                    continue;
                }
            }
            pc += 1;
        }
        pop(&mut st.stack)
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
        let mut st = ThreadState {
            regs: self.slots.clone(),
            stack: Vec::new(),
        };
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
