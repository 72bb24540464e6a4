//! The host-speed reference: a fixed workload in the benchmark's own code.
//!
//! A shared host changes speed by tens of percent from one minute to the
//! next as neighbours load its cores and memory, and a median inside a
//! run cannot remove a slowdown that lasts the whole run. The reference
//! runs before every set-up, every timed sample and every cold compile,
//! and the end-to-end times are divided by its time-weighted median over
//! the run relative to `NOMINAL_S`. It calls no compiler code, so no
//! change to the compiler can move it. Its two parts mirror where the
//! measured work spends its time: small allocations and hashing (the
//! tuner, the store) and a stream through a 2 MiB buffer (pack, execute,
//! unpack). Its hasher has fixed keys, so every process does the same
//! work.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::Instant;

/// Nominal reference seconds: end-to-end times are reported as if the
/// reference had taken this long.
pub const NOMINAL_S: f64 = 0.008;

const STREAM_LEN: usize = 1 << 18;

/// The reference workload. Its stream buffers live as long as it does,
/// so it adds a fixed 2 MiB to the process's peak resident set.
pub struct Reference {
    a: Vec<f32>,
    b: Vec<f32>,
}

impl Reference {
    pub fn new() -> Self {
        Self {
            a: (0..STREAM_LEN).map(|k| (k % 97) as f32 * 0.25).collect(),
            b: vec![0.0; STREAM_LEN],
        }
    }

    /// Seconds of one reference run.
    pub fn run(&mut self) -> f64 {
        let t = Instant::now();
        let mut map: HashMap<u64, Vec<i64>, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..100_000i64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = map.entry(x % 4096).or_default();
            v.push(i);
            if v.len() > 8 {
                *v = Vec::new();
            }
        }
        for r in 0..10 {
            let s = r as f32 * 0.5;
            for (y, v) in self.b.iter_mut().zip(&self.a) {
                *y = *y * 0.5 + v * s;
            }
        }
        std::hint::black_box((map.len(), self.b[STREAM_LEN / 3]));
        t.elapsed().as_secs_f64()
    }
}
