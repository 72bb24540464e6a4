//! Native execution of winners, one layer call at a time.
//!
//! A pass runs every executed winner exactly the way
//! `CompiledGraph::run_native` does — kernel compile, pack, execute on
//! `alt_codegen::default_threads()` workers, unpack — but through the
//! layer APIs themselves, so each call can be timed and traced.

use std::collections::HashMap;
use std::time::Instant;

use alt_codegen::NativeRunStats;
use alt_core::CompiledGraph;
use alt_tensor::{Graph, NdBuf, TensorId};

use crate::trace::Trace;

/// Seconds spent in each layer call of one native run.
#[derive(Clone, Copy, Debug, Default)]
pub struct Parts {
    /// `alt_codegen::compile`.
    pub kernel_compile: f64,
    /// `alt_loopir::pack_buffers`.
    pub pack: f64,
    /// `NativeKernel::execute`.
    pub exec: f64,
    /// `alt_loopir::unpack_buffers`.
    pub unpack: f64,
}

impl Parts {
    /// Sum of the four calls.
    pub fn total(&self) -> f64 {
        self.kernel_compile + self.pack + self.exec + self.unpack
    }

    /// Adds another run's times.
    pub fn add(&mut self, o: &Parts) {
        self.kernel_compile += o.kernel_compile;
        self.pack += o.pack;
        self.exec += o.exec;
        self.unpack += o.unpack;
    }
}

/// One native run of `winner` on logical `bindings`; returns the logical
/// outputs of every graph tensor, the per-call times and the executor's
/// own statistics.
pub fn run(
    trace: &mut Trace,
    winner: &CompiledGraph,
    graph: &Graph,
    bindings: &HashMap<TensorId, NdBuf>,
    threads: usize,
) -> (HashMap<TensorId, NdBuf>, Parts, NativeRunStats) {
    let (program, plan) = (winner.program(), winner.plan());
    let t0 = Instant::now();
    let kernel = trace.span("codegen.compile", || {
        alt_codegen::compile(program, winner.target_profile())
    });
    let t1 = Instant::now();
    let mut bufs = trace.span("loopir.pack_buffers", || {
        alt_loopir::pack_buffers(program, graph, plan, bindings)
    });
    let t2 = Instant::now();
    let stats = trace.span("codegen.execute", || kernel.execute(&mut bufs, threads));
    let t3 = Instant::now();
    let out = trace.span("loopir.unpack_buffers", || {
        alt_loopir::unpack_buffers(program, graph, plan, &bufs)
    });
    let t4 = Instant::now();
    let parts = Parts {
        kernel_compile: (t1 - t0).as_secs_f64(),
        pack: (t2 - t1).as_secs_f64(),
        exec: (t3 - t2).as_secs_f64(),
        unpack: (t4 - t3).as_secs_f64(),
    };
    (out, parts, stats)
}

/// `NativeKernel::execute` alone at `threads` workers, in seconds.
pub fn exec_seconds(
    winner: &CompiledGraph,
    graph: &Graph,
    bindings: &HashMap<TensorId, NdBuf>,
    threads: usize,
) -> f64 {
    let kernel = alt_codegen::compile(winner.program(), winner.target_profile());
    let mut bufs = alt_loopir::pack_buffers(winner.program(), graph, winner.plan(), bindings);
    let t = Instant::now();
    kernel.execute(&mut bufs, threads);
    t.elapsed().as_secs_f64()
}
