//! The circuit cache: build/compile once, serve many sessions.
//!
//! Synthesizing a workload's circuit, computing its reference outputs,
//! and lowering it for streaming (reorder → rename → window-size — the
//! full [`StreamingPlan`]) are pure functions of `(workload, scale,
//! reorder)` — exactly the setup cost a long-lived service amortizes
//! across requests (the CRGC/HACCLE deployment model). The cache keys
//! on that triple and hands out `Arc`s, so concurrent sessions of the
//! same workload-and-schedule share one immutable build, repeated
//! requests skip synthesis entirely, and **warm sessions skip the
//! per-circuit analysis pass**: the cached config carries the lowered
//! plan, and `run_garbler` drives the slot-slab executors straight off
//! it. The netlist itself is dropped once lowered. Distinct [`ReorderKind`]s of one workload share nothing but the
//! synthesis inputs — their plans (and transcripts) genuinely differ —
//! so they are distinct entries.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use haac_runtime::{ReorderKind, SessionConfig, StreamingPlan};
use haac_workloads::{build, Scale, Workload, WorkloadKind};

/// One fully prepared workload: the streaming session config carrying
/// the lowered plan (slab window, renamed stream, static peak-live),
/// the garbler's sample inputs and the reference outputs — everything a
/// session needs beyond fresh randomness. The netlist is dropped once
/// the plan is lowered: sessions run on the plan alone.
#[derive(Debug)]
pub struct CachedWorkload {
    /// Streaming parameters for this workload, including the lowered
    /// plan every warm session reuses.
    pub config: SessionConfig,
    /// Sample garbler (Alice) input bits.
    pub garbler_bits: Vec<bool>,
    /// Reference output bits, computed by an independent plaintext
    /// implementation.
    pub expected: Vec<bool>,
}

impl CachedWorkload {
    /// The lowered streaming plan shared by every session of this entry.
    pub fn plan(&self) -> &Arc<StreamingPlan> {
        &self.config.plan
    }
}

type Key = (WorkloadKind, Scale, ReorderKind);

/// One key's slot: inserted empty under the map lock, filled exactly
/// once outside it. Concurrent cold lookups of the key share the slot,
/// so one of them builds and the rest wait for that build.
type Slot = Arc<OnceLock<Arc<CachedWorkload>>>;

/// Concurrent build-once cache over `(workload, scale, reorder)`.
///
/// **Bounded by its key, so it never evicts.** The key is three closed
/// enums — 8 [`WorkloadKind`]s × 2 [`Scale`]s × 3 [`ReorderKind`]s — so
/// at most 48 entries can ever be resident, and a peer can name nothing
/// else: an unknown workload, scale or schedule tag is a typed refusal
/// before any lookup. Worst-case residency is therefore a constant:
/// all 24 `Scale::Small` entries measure 14.3–14.9 MB (process RSS
/// growth per entry on x86-64, summed, three runs; 26.2–26.8 MB while
/// an entry still kept its netlist). MatMult at `Scale::Paper`, 1.56 M
/// gates, measures 28.2 MB in `Baseline` order and 35.7 MB in `Full`
/// (52.6 and 60.2 MB with the netlist); all 48 entries measured about
/// 2.8 GB with their netlists, and the paper-scale ones have not been
/// re-measured since. An entry is the plan — 13 B per instruction (the
/// slot instruction and its batch-run byte) and 4 B per far read,
/// 0.5–6.6 M of them on the paper-scale plans that spill past the 2 MB
/// SWW — plus the garbler's sample inputs and the reference outputs;
/// the per-session label slab is not cached and is capped at that SWW. A key
/// component with an open-ended domain would void this bound and needs
/// an eviction policy first — `every_key_fits_and_there_are_48` fails
/// to compile when the key grows.
#[derive(Debug, Default)]
pub struct CircuitCache {
    entries: Mutex<HashMap<Key, Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
    hit_ns: AtomicU64,
    miss_ns: AtomicU64,
}

impl CircuitCache {
    /// An empty cache.
    pub fn new() -> CircuitCache {
        CircuitCache::default()
    }

    /// The slot map, recovering from lock poisoning: the only mutation
    /// under the lock is inserting an empty slot, so a session that
    /// panicked while holding the guard cannot have left a torn entry
    /// behind — serving must keep going.
    fn entries(&self) -> MutexGuard<'_, HashMap<Key, Slot>> {
        self.entries.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fetches the prepared workload, lowered with the requested
    /// schedule, building it if this is the key's first lookup.
    ///
    /// Single-flight per key: the build runs outside the map lock, so a
    /// slow synthesis does not serialize unrelated sessions, and
    /// concurrent cold lookups of the *same* key wait for the one build
    /// instead of each paying for their own (a build that panics leaves
    /// the slot empty and the next lookup retries).
    pub fn get(
        &self,
        kind: WorkloadKind,
        scale: Scale,
        reorder: ReorderKind,
    ) -> Arc<CachedWorkload> {
        let start = std::time::Instant::now();
        let slot = Arc::clone(self.entries().entry((kind, scale, reorder)).or_default());
        let mut built = false;
        let entry = Arc::clone(slot.get_or_init(|| {
            built = true;
            let Workload { circuit, garbler_bits, expected, .. } = build(kind, scale);
            let config = SessionConfig::for_circuit_with(&circuit, reorder);
            Arc::new(CachedWorkload { config, garbler_bits, expected })
        }));
        let (count, ns) =
            if built { (&self.misses, &self.miss_ns) } else { (&self.hits, &self.hit_ns) };
        count.fetch_add(1, Ordering::Relaxed);
        ns.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        entry
    }

    /// Whether the triple is already resident — the admission layer's
    /// cold/warm probe: answering never builds, so load-shed decisions
    /// cost a lock acquire, not a synthesis.
    pub fn contains(&self, kind: WorkloadKind, scale: Scale, reorder: ReorderKind) -> bool {
        self.entries().get(&(kind, scale, reorder)).is_some_and(|slot| slot.get().is_some())
    }

    /// Lookups that did not build: served from a finished entry, or
    /// from another lookup's build they waited for.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Builds: lookups that synthesized and lowered a circuit. One per
    /// key, however many cold lookups raced for it.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Total nanoseconds spent in lookups served from the cache — the
    /// warm half of the hit/miss latency split. Dividing by [`hits`]
    /// gives the mean warm lookup, which should stay near lock-acquire
    /// cost (a lookup that waited for a racing build is a hit whose
    /// time includes the wait).
    ///
    /// [`hits`]: CircuitCache::hits
    pub(crate) fn hit_ns(&self) -> u64 {
        self.hit_ns.load(Ordering::Relaxed)
    }

    /// Total nanoseconds spent in lookups that synthesized and lowered
    /// a circuit — the cold half of the latency split (dominated by
    /// `build` + plan lowering, orders of magnitude above a hit).
    pub(crate) fn miss_ns(&self) -> u64 {
        self.miss_ns.load(Ordering::Relaxed)
    }

    /// The `(workload, scale, reorder)` triples currently resident —
    /// the instance-bank producer's refill universe: the bank only
    /// pre-garbles circuits some session has already asked for, so idle
    /// capacity is never spent speculating about traffic that may never
    /// come.
    pub fn resident_keys(&self) -> Vec<(WorkloadKind, Scale, ReorderKind)> {
        let entries = self.entries();
        entries.iter().filter(|(_, slot)| slot.get().is_some()).map(|(key, _)| *key).collect()
    }

    /// Number of distinct prepared workloads resident.
    pub fn len(&self) -> usize {
        self.entries().values().filter(|slot| slot.get().is_some()).count()
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_gets_share_one_build() {
        let cache = CircuitCache::new();
        let first = cache.get(WorkloadKind::DotProduct, Scale::Small, ReorderKind::Baseline);
        let second = cache.get(WorkloadKind::DotProduct, Scale::Small, ReorderKind::Baseline);
        assert!(Arc::ptr_eq(&first, &second), "same build must be shared");
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
        // Latency split: the miss paid for synthesis, the hit did not.
        assert!(cache.miss_ns() > 0);
        assert!(cache.hit_ns() < cache.miss_ns(), "a warm lookup must be cheaper than a build");
    }

    #[test]
    fn racing_cold_gets_of_one_key_build_exactly_once() {
        const THREADS: usize = 16;
        let cache = CircuitCache::new();
        // The barrier releases every thread into the cold lookup at
        // once; whichever wins the slot builds, the rest must wait for
        // that build rather than start their own.
        let barrier = std::sync::Barrier::new(THREADS);
        let entries: Vec<Arc<CachedWorkload>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        cache.get(WorkloadKind::Hamming, Scale::Small, ReorderKind::Baseline)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("lookup thread")).collect()
        });
        assert_eq!(cache.misses(), 1, "one key, one build");
        assert_eq!(cache.hits(), THREADS as u64 - 1);
        assert_eq!(cache.len(), 1);
        assert!(
            entries.iter().all(|e| Arc::ptr_eq(e, &entries[0])),
            "every lookup shares the build"
        );
    }

    #[test]
    fn every_key_fits_and_there_are_48() {
        let cache = CircuitCache::new();
        for kind in WorkloadKind::ALL {
            for reorder in [ReorderKind::Baseline, ReorderKind::Full, ReorderKind::Segment] {
                // Residency is counted per key, whatever the entry
                // weighs: the Paper key holds the Small build here so
                // the test stays in unit-test time.
                let small = cache.get(kind, Scale::Small, reorder);
                let paper: Key = (kind, Scale::Paper, reorder);
                cache.entries().insert(paper, Arc::new(OnceLock::from(small)));
            }
        }
        assert_eq!(cache.len(), 48, "8 workloads x 2 scales x 3 schedules is the whole key space");
        assert_eq!(cache.resident_keys().len(), 48);
    }

    #[test]
    fn cache_hits_reuse_the_lowered_plan_without_reanalysis() {
        // The satellite fix: window sizing / lowering runs once per
        // (workload, scale, reorder) — a warm session gets the *same*
        // plan Arc, so nothing is recomputed per session (visible as a
        // hit).
        let cache = CircuitCache::new();
        let cold = cache.get(WorkloadKind::Hamming, Scale::Small, ReorderKind::Baseline);
        let warm = cache.get(WorkloadKind::Hamming, Scale::Small, ReorderKind::Baseline);
        assert!(Arc::ptr_eq(cold.plan(), warm.plan()), "plan must be shared, not re-lowered");
        assert_eq!(cache.hits(), 1);
        // The plan actually describes the workload's circuit.
        let circuit = build(WorkloadKind::Hamming, Scale::Small).circuit;
        assert_eq!(cold.plan().and_count(), circuit.num_and_gates());
        assert_eq!(cold.config.plan.window.sww_wires(), cold.plan().window.sww_wires());
    }

    #[test]
    fn cache_survives_a_poisoned_lock() {
        let cache = Arc::new(CircuitCache::new());
        cache.get(WorkloadKind::DotProduct, Scale::Small, ReorderKind::Baseline);
        let poisoner = Arc::clone(&cache);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.entries.lock().unwrap();
            panic!("die holding the cache lock");
        })
        .join();
        assert!(cache.contains(WorkloadKind::DotProduct, Scale::Small, ReorderKind::Baseline));
        let again = cache.get(WorkloadKind::DotProduct, Scale::Small, ReorderKind::Baseline);
        assert_eq!(again.plan().reorder, ReorderKind::Baseline);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_workloads_get_distinct_entries() {
        let cache = CircuitCache::new();
        let dot = cache.get(WorkloadKind::DotProduct, Scale::Small, ReorderKind::Baseline);
        let ham = cache.get(WorkloadKind::Hamming, Scale::Small, ReorderKind::Baseline);
        assert!(!Arc::ptr_eq(&dot, &ham));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn distinct_reorders_of_one_workload_are_distinct_entries() {
        let cache = CircuitCache::new();
        let base = cache.get(WorkloadKind::DotProduct, Scale::Small, ReorderKind::Baseline);
        let full = cache.get(WorkloadKind::DotProduct, Scale::Small, ReorderKind::Full);
        let seg = cache.get(WorkloadKind::DotProduct, Scale::Small, ReorderKind::Segment);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.misses(), 3);
        // Same circuit, genuinely different schedules.
        assert_eq!(base.plan().and_count(), full.plan().and_count());
        assert_eq!(base.plan().reorder, ReorderKind::Baseline);
        assert_eq!(full.plan().reorder, ReorderKind::Full);
        assert_eq!(seg.plan().reorder, ReorderKind::Segment);
        assert_ne!(base.plan().program, full.plan().program, "Full must permute the stream");
    }
}
