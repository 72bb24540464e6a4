//! Memoized simulation: a thread-safe measurement cache keyed by the
//! canonical program fingerprint (PR 4 tentpole).
//!
//! The analytic [`Simulator`] is pure — the same lowered [`Program`] on
//! the same [`MachineProfile`] always produces bit-identical
//! [`Counters`]. The tuner re-simulates the same program many times:
//! incumbents are re-measured every round, PPO seeds repeat across
//! reps, finalists are re-assessed, and neighborhoods revisit points.
//! [`SimCache`] memoizes those simulations so repeats cost one hash
//! instead of a full model walk, and lets scoped worker threads prewarm
//! entries that the (strictly sequential, deterministic) accounting
//! path then consumes.
//!
//! Determinism contract:
//! * [`SimCache::try_profile`] is the *only* method that touches the
//!   hit/miss statistics; the tuner calls it exclusively from its
//!   measurement thread, so the counters are identical for `--jobs 1`
//!   and `--jobs N`.
//! * [`SimCache::prewarm`] is stat-silent and idempotent: duplicate
//!   computations of the same pure program insert the same bits, so
//!   racing workers are harmless.
//!
//! A cached entry is invalidated by *nothing* — the key covers every
//! input of the pure simulation (program structure + machine profile),
//! so an entry can never go stale. A new layout, schedule, fusion
//! decision, or machine profile produces a new key instead.
//!
//! With a durable [`Store`] attached (PR 7), the cache additionally
//! consults the store before simulating and publishes fresh results into
//! it — turning the in-memory memo table into the warm tier of a
//! cross-run cache. The store changes *what work happens* (a stored
//! result skips the simulation) but never *what the run records*: the
//! hit/miss transcript, every returned `Counters`, and the store's own
//! hit/miss statistics are all accounted exclusively inside
//! [`SimCache::try_profile`], so they are bit-identical for `--jobs 1`
//! and `--jobs N`, with or without prewarming, cold store or warm.
//! Store *appends* likewise happen only on the sequential accounting
//! path (the first budgeted lookup of each entry), so two identical runs
//! write byte-identical segments.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use alt_store::{kind, Store};
use alt_telemetry::CounterRegistry;

use alt_error::AltError;
use alt_loopir::hash::Fnv1a;
use alt_loopir::{program_fingerprint, Program};

use crate::analytic::{Counters, Simulator};
use crate::profiles::{CacheLevel, MachineProfile};

/// Fingerprint of a machine profile: every field that the analytic
/// model reads, floats by bit pattern.
pub fn profile_fingerprint(p: &MachineProfile) -> u64 {
    let mut h = Fnv1a::new();
    h.tag(0x4d); // 'M'
    h.str(p.name);
    h.tag(match p.kind {
        crate::profiles::MachineKind::Cpu => 0,
        crate::profiles::MachineKind::Gpu => 1,
    });
    h.u64(p.cores as u64);
    h.f64(p.freq_ghz);
    h.u64(p.vector_lanes as u64);
    h.f64(p.flops_per_cycle);
    hash_level(&mut h, &p.l1);
    hash_level(&mut h, &p.l2);
    h.f64(p.dram_bytes_per_cycle);
    h.f64(p.l2_latency_cycles);
    h.f64(p.mlp);
    h.f64(p.dram_latency_cycles);
    h.f64(p.parallel_efficiency);
    h.f64(p.group_overhead_us);
    h.f64(p.bank_conflict_penalty);
    h.finish()
}

/// Composes a memo-cache key from a profile fingerprint and a program
/// fingerprint. Pure: `SimCache::key` is exactly
/// `compose_cache_key(cache.profile_fp(), program_fingerprint(p))`, so
/// journal consumers can round-trip recorded fingerprints back into
/// cache keys without a cache instance.
pub fn compose_cache_key(profile_fp: u64, program_fp: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.u64(profile_fp);
    h.u64(program_fp);
    h.finish()
}

fn hash_level(h: &mut Fnv1a, l: &CacheLevel) {
    h.tag(0x43); // 'C'
    h.u64(l.size_bytes);
    h.u64(l.line_bytes);
    h.u64(l.assoc as u64);
    h.u64(l.prefetch_lines as u64);
    h.f64(l.bytes_per_cycle);
}

/// Bytes of an encoded measurement payload: profile fingerprint +
/// program fingerprint + the ten `Counters` fields, all little-endian
/// 64-bit (floats by bit pattern, so the round-trip is bit-exact).
pub const MEASUREMENT_PAYLOAD_LEN: usize = 12 * 8;

/// Encodes a measurement for the durable store: the fingerprint pair the
/// composed key was built from (stored so lookups can reject hash
/// collisions and `altc store export` can attribute records) followed by
/// the simulator counters.
pub fn encode_measurement(profile_fp: u64, program_fp: u64, c: &Counters) -> Vec<u8> {
    let mut out = Vec::with_capacity(MEASUREMENT_PAYLOAD_LEN);
    out.extend_from_slice(&profile_fp.to_le_bytes());
    out.extend_from_slice(&program_fp.to_le_bytes());
    for v in [
        c.instructions,
        c.flops,
        c.l1_loads,
        c.l1_stores,
        c.l1_misses,
        c.l2_misses,
        c.prefetch_issued,
        c.prefetch_useful,
        c.simd_weighted,
        c.latency_s,
    ] {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

/// Decodes a stored measurement payload back into
/// `(profile_fp, program_fp, counters)`. Returns `None` on any size
/// mismatch — a foreign or truncated payload is treated as a store miss,
/// never an error.
pub fn decode_measurement(bytes: &[u8]) -> Option<(u64, u64, Counters)> {
    if bytes.len() != MEASUREMENT_PAYLOAD_LEN {
        return None;
    }
    let word = |i: usize| -> u64 {
        let mut b = [0u8; 8];
        b.copy_from_slice(&bytes[i * 8..(i + 1) * 8]);
        u64::from_le_bytes(b)
    };
    let f = |i: usize| f64::from_bits(word(i));
    let c = Counters {
        instructions: f(2),
        flops: f(3),
        l1_loads: f(4),
        l1_stores: f(5),
        l1_misses: f(6),
        l2_misses: f(7),
        prefetch_issued: f(8),
        prefetch_useful: f(9),
        simd_weighted: f(10),
        latency_s: f(11),
    };
    Some((word(0), word(1), c))
}

/// One memo-table entry.
#[derive(Clone, Copy)]
struct Entry {
    c: Counters,
    /// Whether a budgeted lookup has seen this entry yet.
    accounted: bool,
    /// Whether the counters came out of the durable store (true) or a
    /// fresh simulation (false). Decides, at the accounted transition,
    /// which store statistic the entry bumps and whether it publishes.
    from_store: bool,
}

/// A shared, thread-safe memo table of simulated measurements.
///
/// Each entry tracks whether a *budgeted* lookup has seen it yet: a
/// prewarmed entry's first [`SimCache::try_profile`] counts as a miss
/// (it is a first-time measurement that merely ran off-thread), so the
/// hit/miss statistics mean "this measurement repeated an earlier one"
/// and are bit-identical whether or not workers prewarmed anything.
pub struct SimCache {
    profile_fp: u64,
    map: Mutex<HashMap<u64, Entry>>,
    /// Keys a previous (checkpointed) leg of this run already accounted.
    /// A resumed run starts with an empty memo table, but its hit/miss
    /// transcript must continue the interrupted run's: re-simulating a
    /// key the predecessor paid for is a hit, not a miss.
    resumed: Mutex<HashSet<u64>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// The durable cross-run tier, when attached.
    store: Mutex<Option<Arc<Store>>>,
    store_hits: AtomicU64,
    store_misses: AtomicU64,
    /// Wall-clock latency histograms (memo lookup vs cold simulate vs
    /// store serve), when the timing layer attached a registry.
    /// Observation-only: never consulted by the lookup path.
    registry: Mutex<Option<Arc<CounterRegistry>>>,
}

impl SimCache {
    /// An empty cache bound to one machine profile.
    pub fn new(profile: &MachineProfile) -> Self {
        SimCache {
            profile_fp: profile_fingerprint(profile),
            map: Mutex::new(HashMap::new()),
            resumed: Mutex::new(HashSet::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            store: Mutex::new(None),
            store_hits: AtomicU64::new(0),
            store_misses: AtomicU64::new(0),
            registry: Mutex::new(None),
        }
    }

    /// Fingerprint of the machine profile this cache is bound to.
    pub fn profile_fp(&self) -> u64 {
        self.profile_fp
    }

    /// Attaches the durable store tier. Call once, before tuning starts:
    /// attaching mid-run would make the store statistics depend on when.
    pub fn attach_store(&self, store: Arc<Store>) {
        *self.store.lock().unwrap() = Some(store);
    }

    /// Whether a durable store is attached.
    pub fn has_store(&self) -> bool {
        self.store.lock().unwrap().is_some()
    }

    /// Attaches a wall-clock latency registry: every budgeted lookup
    /// records how long it took under `memo.lookup_us` (warm table),
    /// `memo.store_serve_us` (served from the durable store), or
    /// `memo.cold_simulate_us` (full model walk). Pure observation — it
    /// never changes what the lookup returns or accounts.
    pub fn attach_registry(&self, registry: Arc<CounterRegistry>) {
        *self.registry.lock().unwrap() = Some(registry);
    }

    /// Records elapsed micros since `t0` under `name`, if a registry is
    /// attached.
    fn observe_since(&self, name: &str, t0: Instant) {
        if let Some(reg) = self.registry.lock().unwrap().as_ref() {
            reg.observe(name, t0.elapsed().as_micros() as f64);
        }
    }

    fn store_handle(&self) -> Option<Arc<Store>> {
        self.store.lock().unwrap().clone()
    }

    /// Looks `key` up in the durable store, validating the stored
    /// fingerprint pair against the lookup's (a composed-key collision
    /// or foreign payload reads as a miss, not as wrong counters).
    fn store_lookup(&self, key: u64, program_fp: u64) -> Option<Counters> {
        let store = self.store_handle()?;
        let payload = store.get(kind::MEASUREMENT, key)?;
        let (stored_profile, stored_program, c) = decode_measurement(&payload)?;
        if stored_profile == self.profile_fp && stored_program == program_fp {
            Some(c)
        } else {
            None
        }
    }

    /// Runs the store-side bookkeeping of an entry's accounted
    /// transition: an entry born from the store is a store hit; a
    /// freshly simulated one is a store miss and is published. Called
    /// only from `try_profile` (the sequential accounting path), so both
    /// the statistics and the segment's append order are deterministic
    /// and jobs-invariant. A failed publish (disk full, torn append) is
    /// survivable by design: the run degrades to store-less operation
    /// for that record and keeps tuning.
    fn account_store(&self, key: u64, program_fp: u64, c: &Counters, from_store: bool) {
        let Some(store) = self.store_handle() else {
            return;
        };
        if from_store {
            self.store_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.store_misses.fetch_add(1, Ordering::Relaxed);
            let payload = encode_measurement(self.profile_fp, program_fp, c);
            let _ = store.put(kind::MEASUREMENT, key, &payload);
        }
    }

    /// The cache key of a program under this cache's profile.
    pub fn key(&self, program: &Program) -> u64 {
        compose_cache_key(self.profile_fp, program_fingerprint(program))
    }

    /// Simulates `program`, consulting the memo table first. Returns the
    /// counters, whether the lookup was a hit, and the program
    /// fingerprint the key was composed from, so callers that record it
    /// need not hash the program a second time.
    ///
    /// Counts exactly one hit or one miss per call. A hit is a lookup of
    /// an entry that an earlier `try_profile` call already accounted; a
    /// prewarmed-but-never-accounted entry counts as a miss (its
    /// simulation simply ran off-thread) so the statistics do not depend
    /// on whether — or how aggressively — workers prewarmed. Errors
    /// (non-finite model output) are never cached and count as misses.
    /// Call this only from the accounting thread — the hit/miss sequence
    /// is part of the deterministic run transcript.
    pub fn try_profile(
        &self,
        sim: &Simulator,
        program: &Program,
    ) -> Result<(Counters, bool, u64), AltError> {
        let t0 = Instant::now();
        let program_fp = program_fingerprint(program);
        let key = compose_cache_key(self.profile_fp, program_fp);
        // A key restored via `restore_accounted` was paid for by the
        // interrupted predecessor leg, so this lookup continues its
        // transcript as a hit even though the table itself is cold.
        let prior = self.resumed.lock().unwrap().contains(&key);
        if let Some(e) = self.map.lock().unwrap().get_mut(&key) {
            let snap = *e;
            if !snap.accounted {
                // First budgeted sight of a prewarmed entry: run the
                // store bookkeeping its off-thread insertion deferred.
                e.accounted = true;
                self.account_store(key, program_fp, &snap.c, snap.from_store);
            }
            if snap.accounted || prior {
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.observe_since("memo.lookup_us", t0);
                return Ok((snap.c, true, program_fp));
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.observe_since("memo.lookup_us", t0);
            return Ok((snap.c, false, program_fp));
        }
        if prior {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        // Warm tier: a stored result makes the simulation unnecessary —
        // but accounts exactly the hit/miss a cold run would.
        if let Some(c) = self.store_lookup(key, program_fp) {
            self.account_store(key, program_fp, &c, true);
            self.map.lock().unwrap().insert(
                key,
                Entry {
                    c,
                    accounted: true,
                    from_store: true,
                },
            );
            self.observe_since("memo.store_serve_us", t0);
            return Ok((c, prior, program_fp));
        }
        let c = sim.try_profile_counters(program)?;
        self.account_store(key, program_fp, &c, false);
        self.map.lock().unwrap().insert(
            key,
            Entry {
                c,
                accounted: true,
                from_store: false,
            },
        );
        self.observe_since("memo.cold_simulate_us", t0);
        Ok((c, prior, program_fp))
    }

    /// Simulates `program` into the table without touching statistics.
    ///
    /// Safe to call from any number of worker threads: the simulation is
    /// pure, so concurrent duplicate inserts write identical bits, and a
    /// failing simulation simply leaves no entry (the accounting path
    /// re-derives the error deterministically). Never downgrades an
    /// already-accounted entry.
    pub fn prewarm(&self, sim: &Simulator, program: &Program) {
        let program_fp = program_fingerprint(program);
        let key = compose_cache_key(self.profile_fp, program_fp);
        if self.map.lock().unwrap().contains_key(&key) {
            return;
        }
        // Peek the durable store first — stat-silent, like the rest of
        // prewarming; the accounted transition in `try_profile` settles
        // the store statistics (and any publish) deterministically.
        if let Some(c) = self.store_lookup(key, program_fp) {
            self.map.lock().unwrap().entry(key).or_insert(Entry {
                c,
                accounted: false,
                from_store: true,
            });
            return;
        }
        if let Ok(c) = sim.try_profile_counters(program) {
            self.map.lock().unwrap().entry(key).or_insert(Entry {
                c,
                accounted: false,
                from_store: false,
            });
        }
    }

    /// The keys whose measurements a budgeted lookup has accounted so
    /// far, sorted — checkpoint state, so a resumed run can continue
    /// this run's hit/miss transcript (see [`SimCache::restore_accounted`]).
    /// Includes restored keys the current leg has not re-touched yet, so
    /// checkpoints cut from a resumed leg stay complete.
    pub fn accounted_keys(&self) -> Vec<u64> {
        let mut keys: Vec<u64> = self
            .map
            .lock()
            .unwrap()
            .iter()
            .filter(|(_, e)| e.accounted)
            .map(|(&k, _)| k)
            .collect();
        keys.extend(self.resumed.lock().unwrap().iter().copied());
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Marks keys an earlier leg of the run already accounted: their
    /// next budgeted lookup reads as a hit (the repeat it genuinely is)
    /// even though this leg must re-simulate them.
    pub fn restore_accounted(&self, keys: &[u64]) {
        self.resumed.lock().unwrap().extend(keys.iter().copied());
    }

    /// Hits observed by [`SimCache::try_profile`].
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses observed by [`SimCache::try_profile`].
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Accounted measurements served from the durable store (0 when no
    /// store is attached). Like the memo statistics, store statistics
    /// move only at `try_profile` accounted transitions, so they are
    /// jobs- and prewarm-invariant.
    pub fn store_hits(&self) -> u64 {
        self.store_hits.load(Ordering::Relaxed)
    }

    /// Accounted measurements the durable store did not have — each one
    /// was simulated and published back (0 when no store is attached).
    pub fn store_misses(&self) -> u64 {
        self.store_misses.load(Ordering::Relaxed)
    }

    /// Number of memoized programs.
    pub fn len(&self) -> usize {
        self.map.lock().unwrap().len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl std::fmt::Debug for SimCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimCache")
            .field("entries", &self.len())
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("store", &self.has_store())
            .field("store_hits", &self.store_hits())
            .field("store_misses", &self.store_misses())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles::{all_profiles, intel_cpu};
    use alt_layout::{LayoutPlan, PropagationMode};
    use alt_loopir::lower;
    use alt_loopir::schedule::GraphSchedule;
    use alt_tensor::ops::{self, ConvCfg};
    use alt_tensor::{Graph, Shape};

    fn lowered() -> Program {
        let mut g = Graph::new();
        let x = g.add_input("x", Shape::new([1, 4, 10, 10]));
        let w = g.add_param("w", Shape::new([8, 4, 3, 3]));
        let c = ops::conv2d(&mut g, x, w, ConvCfg::default());
        let _ = ops::relu(&mut g, c);
        lower(
            &g,
            &LayoutPlan::new(PropagationMode::Full),
            &GraphSchedule::naive(),
        )
    }

    // Worker threads hand programs and the shared cache across the
    // scope boundary, so the whole measurement closure must be Sync.
    #[test]
    fn shared_measurement_state_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Program>();
        assert_send_sync::<Simulator>();
        assert_send_sync::<SimCache>();
        assert_send_sync::<Graph>();
        assert_send_sync::<LayoutPlan>();
        assert_send_sync::<GraphSchedule>();
    }

    #[test]
    fn repeat_measurements_hit_and_return_identical_bits() {
        let sim = Simulator::new(intel_cpu());
        let cache = SimCache::new(sim.profile());
        let p = lowered();
        let (a, hit_a, _) = cache.try_profile(&sim, &p).unwrap();
        let (b, hit_b, _) = cache.try_profile(&sim, &p).unwrap();
        assert!(!hit_a && hit_b);
        assert_eq!(a.latency_s.to_bits(), b.latency_s.to_bits());
        assert_eq!(a.latency_s.to_bits(), sim.measure(&p).to_bits());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn prewarm_is_stat_silent_and_invisible_to_the_hit_miss_transcript() {
        let sim = Simulator::new(intel_cpu());
        let cache = SimCache::new(sim.profile());
        let p = lowered();
        cache.prewarm(&sim, &p);
        cache.prewarm(&sim, &p);
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert_eq!(cache.len(), 1);
        // The first budgeted lookup of a prewarmed entry still reads as
        // a miss — exactly what an unwarmed run would record — so the
        // transcript is independent of prewarming.
        let (a, hit, _) = cache.try_profile(&sim, &p).unwrap();
        assert!(!hit);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        // Only a genuine repeat is a hit.
        let (b, hit, _) = cache.try_profile(&sim, &p).unwrap();
        assert!(hit);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(a.latency_s.to_bits(), b.latency_s.to_bits());
    }

    #[test]
    fn concurrent_prewarm_converges_to_one_entry() {
        let sim = Simulator::new(intel_cpu());
        let cache = SimCache::new(sim.profile());
        let p = lowered();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| cache.prewarm(&sim, &p));
            }
        });
        assert_eq!(cache.len(), 1);
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn restored_keys_continue_the_predecessor_transcript_as_hits() {
        let sim = Simulator::new(intel_cpu());
        let first_leg = SimCache::new(sim.profile());
        let p = lowered();
        let (a, hit, _) = first_leg.try_profile(&sim, &p).unwrap();
        assert!(!hit);
        let keys = first_leg.accounted_keys();
        assert_eq!(keys, vec![first_leg.key(&p)]);

        // A resumed leg starts cold but inherits the accounted keys: its
        // first lookup of the restored key is a hit with identical bits,
        // exactly what the uninterrupted run would have recorded.
        let second_leg = SimCache::new(sim.profile());
        second_leg.restore_accounted(&keys);
        let (b, hit, _) = second_leg.try_profile(&sim, &p).unwrap();
        assert!(hit, "restored key reads as a repeat");
        assert_eq!(a.latency_s.to_bits(), b.latency_s.to_bits());
        assert_eq!((second_leg.hits(), second_leg.misses()), (1, 0));
        // The restored key stays in the accounted set for further cuts.
        assert_eq!(second_leg.accounted_keys(), keys);
        // And later repeats hit through the warm table as usual.
        let (_, hit, _) = second_leg.try_profile(&sim, &p).unwrap();
        assert!(hit);
    }

    fn tmp_store(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("alt-sim-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&d).ok();
        std::fs::create_dir_all(&d).expect("mkdir");
        d.join("store.alts")
    }

    #[test]
    fn measurement_codec_roundtrips_bit_exactly() {
        let sim = Simulator::new(intel_cpu());
        let c = sim.try_profile_counters(&lowered()).unwrap();
        let bytes = encode_measurement(1, 2, &c);
        assert_eq!(bytes.len(), MEASUREMENT_PAYLOAD_LEN);
        let (profile_fp, program_fp, back) = decode_measurement(&bytes).unwrap();
        assert_eq!((profile_fp, program_fp), (1, 2));
        assert_eq!(back.latency_s.to_bits(), c.latency_s.to_bits());
        assert_eq!(back.instructions.to_bits(), c.instructions.to_bits());
        assert_eq!(back.simd_weighted.to_bits(), c.simd_weighted.to_bits());
        assert!(decode_measurement(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn cold_run_publishes_and_warm_run_serves_identical_bits() {
        let path = tmp_store("warm");
        let sim = Simulator::new(intel_cpu());
        let p = lowered();
        // Cold run: every accounted measurement is a store miss and gets
        // published exactly once (repeats publish nothing). Scoped so
        // its writer lock releases before the warm run opens.
        let a = {
            let cold = SimCache::new(sim.profile());
            cold.attach_store(Arc::new(Store::open(&path).expect("open")));
            let (a, _, _) = cold.try_profile(&sim, &p).unwrap();
            let _ = cold.try_profile(&sim, &p).unwrap();
            assert_eq!((cold.store_hits(), cold.store_misses()), (0, 1));
            a
        };
        // Warm run: a fresh cache over the same store serves the stored
        // bits without simulating, with an unchanged memo transcript.
        let warm = SimCache::new(sim.profile());
        warm.attach_store(Arc::new(Store::open(&path).expect("reopen")));
        let (b, hit, _) = warm.try_profile(&sim, &p).unwrap();
        assert!(!hit, "memo transcript is store-independent");
        assert_eq!((warm.hits(), warm.misses()), (0, 1));
        assert_eq!((warm.store_hits(), warm.store_misses()), (1, 0));
        assert_eq!(a.latency_s.to_bits(), b.latency_s.to_bits());
        assert_eq!(a.l1_misses.to_bits(), b.l1_misses.to_bits());
        // The warm run added no records (read-only peek: the warm
        // cache's writer lock is still held).
        let store = Store::open_readonly(&path).expect("ro");
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn store_prewarm_stays_stat_silent_until_accounted() {
        let path = tmp_store("prewarm");
        let sim = Simulator::new(intel_cpu());
        let p = lowered();
        {
            let seed = SimCache::new(sim.profile());
            seed.attach_store(Arc::new(Store::open(&path).expect("open")));
            seed.try_profile(&sim, &p).unwrap();
        }
        let cache = SimCache::new(sim.profile());
        cache.attach_store(Arc::new(Store::open(&path).expect("reopen")));
        cache.prewarm(&sim, &p);
        assert_eq!((cache.store_hits(), cache.store_misses()), (0, 0));
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        // The accounted transition settles the store hit — the same
        // statistic the unwarmed lookup records.
        let _ = cache.try_profile(&sim, &p).unwrap();
        assert_eq!((cache.store_hits(), cache.store_misses()), (1, 0));
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
    }

    #[test]
    fn storeless_cache_reports_zero_store_statistics() {
        let sim = Simulator::new(intel_cpu());
        let cache = SimCache::new(sim.profile());
        assert!(!cache.has_store());
        let p = lowered();
        let _ = cache.try_profile(&sim, &p).unwrap();
        let _ = cache.try_profile(&sim, &p).unwrap();
        assert_eq!((cache.store_hits(), cache.store_misses()), (0, 0));
    }

    #[test]
    fn attached_registry_classifies_lookup_latencies() {
        let path = tmp_store("timing");
        let sim = Simulator::new(intel_cpu());
        let p = lowered();
        {
            let seed = SimCache::new(sim.profile());
            seed.attach_store(Arc::new(Store::open(&path).expect("open")));
            seed.try_profile(&sim, &p).unwrap();
        }
        let cache = SimCache::new(sim.profile());
        cache.attach_store(Arc::new(Store::open(&path).expect("reopen")));
        let reg = Arc::new(CounterRegistry::new("wall"));
        cache.attach_registry(reg.clone());
        // First lookup is served from the store, the repeat from the
        // warm memo table; each lands in its own histogram.
        let _ = cache.try_profile(&sim, &p).unwrap();
        let _ = cache.try_profile(&sim, &p).unwrap();
        let serve = reg.histogram("memo.store_serve_us").expect("store serve");
        assert_eq!(serve.count, 1);
        let warm = reg.histogram("memo.lookup_us").expect("warm lookup");
        assert_eq!(warm.count, 1);
        assert!(reg.histogram("memo.cold_simulate_us").is_none());
        // A cold cache without a store simulates.
        let cold = SimCache::new(sim.profile());
        cold.attach_registry(reg.clone());
        let _ = cold.try_profile(&sim, &p).unwrap();
        let sim_h = reg.histogram("memo.cold_simulate_us").expect("cold");
        assert_eq!(sim_h.count, 1);
    }

    #[test]
    fn distinct_profiles_produce_distinct_fingerprints() {
        let fps: std::collections::HashSet<u64> =
            all_profiles().iter().map(profile_fingerprint).collect();
        assert_eq!(fps.len(), all_profiles().len());
    }

    #[test]
    fn compose_cache_key_matches_cache_key() {
        let profile = intel_cpu();
        let cache = SimCache::new(&profile);
        let p = lowered();
        assert_eq!(cache.profile_fp(), profile_fingerprint(&profile));
        assert_eq!(
            cache.key(&p),
            compose_cache_key(cache.profile_fp(), program_fingerprint(&p))
        );
        // The fingerprint a lookup returns is the one its key hashed.
        let (_, _, fp) = cache.try_profile(&Simulator::new(profile), &p).unwrap();
        assert_eq!(fp, program_fingerprint(&p));
    }
}
