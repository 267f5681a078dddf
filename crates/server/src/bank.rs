//! The pre-garbled instance bank: serve warm traffic from storage.
//!
//! Garbling is embarrassingly precomputable — tables depend only on the
//! circuit and the garbler's randomness, never on either party's inputs
//! — so a serving stack can move the whole cipher bill off the request
//! path: a background producer drains *idle* gate-engine capacity to
//! pre-garble instances of cache-resident circuits
//! ([`garble_plan_in`](haac_gc::garble_plan_in), the streaming
//! garbler's loop run early), each [`PlanGarbling`] goes onto a bounded
//! per-key shelf, and a session that finds its key stocked streams the
//! stored tables with only the OT/input phase still computing online.
//!
//! Two properties are load-bearing:
//!
//! - **One-time-use.** FreeXOR ties every label pair of an instance to
//!   one global Δ; streaming the same tables to two evaluators would let
//!   them pool active labels and decode wires neither may learn.
//!   [`claim`](InstanceBank::claim) therefore *moves* the instance out
//!   of storage — there is no peek, no get, no clone — and the claimed
//!   [`PlanGarbling`] is consumed by
//!   [`BankedGarbler::new`](haac_gc::BankedGarbler::new) downstream.
//! - **Fresh randomness per instance.** Every deposit was garbled from
//!   its own RNG stream, so two instances of the same key share nothing:
//!   distinct Δ, distinct input labels, distinct tables.
//!
//! The bank never builds circuits and never blocks a session: shelves
//! are keyed by the same `(workload, scale, reorder)` triple as the
//! [`CircuitCache`](crate::CircuitCache), a claim is one lock acquire
//! and a pop, and a miss simply falls back to online garbling.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use haac_gc::PlanGarbling;
use haac_runtime::ReorderKind;
use haac_workloads::{Scale, WorkloadKind};

/// The identity of a bankable build — the same triple the circuit cache
/// keys on, because an instance replays byte-identically only for the
/// exact plan it was garbled from.
pub type BankKey = (WorkloadKind, Scale, ReorderKind);

/// A bounded, take-only store of pre-garbled instances.
#[derive(Debug)]
pub struct InstanceBank {
    /// Instances per key, claimed oldest-first.
    shelves: Mutex<HashMap<BankKey, VecDeque<PlanGarbling>>>,
    /// Most instances kept per key. 0 disables the bank entirely.
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    refills: AtomicU64,
    /// Monotone producer sequence — the per-instance RNG domain
    /// separator that keeps every deposit's Δ and labels fresh.
    seq: AtomicU64,
}

impl InstanceBank {
    /// A bank holding at most `capacity` instances per key (0 disables).
    pub fn new(capacity: usize) -> InstanceBank {
        InstanceBank {
            shelves: Mutex::new(HashMap::new()),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            refills: AtomicU64::new(0),
            seq: AtomicU64::new(0),
        }
    }

    /// Whether the bank stores anything at all.
    pub fn enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Most instances kept per key.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The shelf map, recovering from lock poisoning: a shelf only ever
    /// holds whole instances (deposit pushes one, claim pops one), so a
    /// panicking holder cannot have left a torn entry — serving must
    /// keep going.
    fn shelves(&self) -> MutexGuard<'_, HashMap<BankKey, VecDeque<PlanGarbling>>> {
        self.shelves.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Stores one pre-garbled instance, consuming it (once banked, the
    /// only way back out is [`claim`](Self::claim)). Returns `false` —
    /// and drops the instance — when the bank is disabled or the key's
    /// shelf is already at capacity.
    pub fn deposit(&self, key: BankKey, instance: PlanGarbling) -> bool {
        if !self.enabled() {
            return false;
        }
        let mut shelves = self.shelves();
        let shelf = shelves.entry(key).or_default();
        if shelf.len() >= self.capacity {
            return false;
        }
        shelf.push_back(instance);
        drop(shelves);
        self.refills.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Takes the oldest banked instance for the key, if any — the
    /// one-time-use move: the instance leaves the shelf under the lock,
    /// so no two claims can ever observe the same instance. An enabled
    /// bank counts every claim as a hit or a miss; a disabled bank
    /// always returns `None` without counting (nothing was offered, so
    /// nothing was missed).
    pub fn claim(&self, key: BankKey) -> Option<PlanGarbling> {
        if !self.enabled() {
            return None;
        }
        let instance = self.shelves().get_mut(&key).and_then(VecDeque::pop_front);
        let counter = if instance.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        instance
    }

    /// Whether the key's shelf has room for another instance.
    pub fn needs_refill(&self, key: BankKey) -> bool {
        self.enabled() && self.shelves().get(&key).map_or(0, VecDeque::len) < self.capacity
    }

    /// Banked instances across every shelf.
    pub fn depth(&self) -> usize {
        self.shelves().values().map(VecDeque::len).sum()
    }

    /// Banked instances on one key's shelf.
    pub fn depth_of(&self, key: BankKey) -> usize {
        self.shelves().get(&key).map_or(0, VecDeque::len)
    }

    /// Claims served from storage so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Claims that found the shelf empty (the session fell back to
    /// online garbling).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Instances deposited so far (across all keys, claims included).
    pub fn refills(&self) -> u64 {
        self.refills.load(Ordering::Relaxed)
    }

    /// The next producer sequence number — combined with the configured
    /// bank seed it gives every produced instance its own RNG stream,
    /// which is what keeps Δ and the input labels fresh per instance.
    pub fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use haac_gc::{baseline_plan, garble_plan_in, EnginePool, HashScheme};
    use rand::{rngs::StdRng, SeedableRng};

    fn key(reorder: ReorderKind) -> BankKey {
        (WorkloadKind::DotProduct, Scale::Small, reorder)
    }

    fn instance(seed: u64) -> PlanGarbling {
        let mut b = haac_circuit::Builder::new();
        let x = b.input_garbler(4);
        let y = b.input_evaluator(4);
        let (sum, carry) = b.add_words(&x, &y);
        let mut outs = sum;
        outs.push(carry);
        let circuit = b.finish(outs).unwrap();
        let plan = baseline_plan(&circuit);
        let pool = EnginePool::new(1);
        garble_plan_in(&plan, &mut StdRng::seed_from_u64(seed), HashScheme::Rekeyed, &pool)
    }

    #[test]
    fn deposit_then_claim_roundtrips_through_storage() {
        let bank = InstanceBank::new(4);
        let original = instance(1);
        let reference = original.clone();
        assert!(bank.deposit(key(ReorderKind::Baseline), original));
        assert_eq!(bank.depth(), 1);
        let claimed = bank.claim(key(ReorderKind::Baseline)).expect("stocked shelf");
        assert_eq!(claimed, reference, "storage must round-trip the instance bit-for-bit");
        assert_eq!(bank.depth(), 0);
        assert_eq!((bank.hits(), bank.misses(), bank.refills()), (1, 0, 1));
    }

    #[test]
    fn claims_are_take_only() {
        // The one-time-use core: the first claim moves the instance out,
        // so a second claim of the same key cannot observe it.
        let bank = InstanceBank::new(4);
        assert!(bank.deposit(key(ReorderKind::Baseline), instance(2)));
        assert!(bank.claim(key(ReorderKind::Baseline)).is_some());
        assert!(bank.claim(key(ReorderKind::Baseline)).is_none(), "double-claim must miss");
        assert_eq!((bank.hits(), bank.misses()), (1, 1));
    }

    #[test]
    fn shelves_are_bounded_per_key() {
        let bank = InstanceBank::new(2);
        assert!(bank.deposit(key(ReorderKind::Baseline), instance(3)));
        assert!(bank.deposit(key(ReorderKind::Baseline), instance(4)));
        assert!(
            !bank.deposit(key(ReorderKind::Baseline), instance(5)),
            "a full shelf must refuse the deposit"
        );
        // A different key has its own shelf and its own bound.
        assert!(bank.deposit(key(ReorderKind::Full), instance(6)));
        assert_eq!(bank.depth_of(key(ReorderKind::Baseline)), 2);
        assert_eq!(bank.depth_of(key(ReorderKind::Full)), 1);
        assert_eq!(bank.depth(), 3);
        assert_eq!(bank.refills(), 3);
        assert!(!bank.needs_refill(key(ReorderKind::Baseline)));
        assert!(bank.needs_refill(key(ReorderKind::Full)));
    }

    #[test]
    fn claims_serve_oldest_first() {
        let bank = InstanceBank::new(2);
        let first = instance(7);
        let first_delta = first.delta;
        bank.deposit(key(ReorderKind::Baseline), first);
        bank.deposit(key(ReorderKind::Baseline), instance(8));
        let claimed = bank.claim(key(ReorderKind::Baseline)).unwrap();
        assert_eq!(claimed.delta, first_delta, "FIFO: the oldest instance is served first");
    }

    #[test]
    fn disabled_bank_stores_and_counts_nothing() {
        let bank = InstanceBank::new(0);
        assert!(!bank.enabled());
        assert!(!bank.deposit(key(ReorderKind::Baseline), instance(9)));
        assert!(bank.claim(key(ReorderKind::Baseline)).is_none());
        assert!(!bank.needs_refill(key(ReorderKind::Baseline)));
        assert_eq!((bank.hits(), bank.misses(), bank.refills()), (0, 0, 0));
    }

    #[test]
    fn instances_of_one_key_have_fresh_randomness() {
        // Same key, consecutive producer sequence numbers: distinct Δ,
        // distinct input labels, distinct tables.
        let bank = InstanceBank::new(2);
        let (a, b) = (instance(10 + bank.next_seq()), instance(10 + bank.next_seq()));
        assert_ne!(a.delta, b.delta);
        assert_ne!(a.input_zero_labels, b.input_zero_labels);
        assert_ne!(a.tables, b.tables);
    }

    #[test]
    fn bank_survives_a_poisoned_lock() {
        let bank = std::sync::Arc::new(InstanceBank::new(2));
        bank.deposit(key(ReorderKind::Baseline), instance(11));
        let poisoner = std::sync::Arc::clone(&bank);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.shelves.lock().unwrap();
            panic!("die holding the bank lock");
        })
        .join();
        assert_eq!(bank.depth(), 1);
        assert!(bank.claim(key(ReorderKind::Baseline)).is_some());
    }
}
