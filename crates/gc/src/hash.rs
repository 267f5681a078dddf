//! The gate hash `H` used by half-gate garbling, in both the secure
//! re-keyed form HAAC adopts and the legacy fixed-key form.
//!
//! Paper §2.1: *"the Half-Gate uses the gate index as the key to
//! construct the AES hash. An important step here is key expansion …
//! HAAC uses re-keying rather than fixed-key, processing full key
//! expansions at extra computational cost"* (measured there at +27.5%
//! per half-gate). Here the schedules are derived in registers in the
//! same pass as the rounds they feed (`aes::encrypt_rekeyed`), and what
//! re-keying costs depends on that pass's width. PR 14's "+27 % (14.2 M
//! against 18.0 M calls/s)" is the 128-bit AES-NI kernel, one
//! `garble_and` a call; PR 23's parent reads the same (+26 %, and +45 %
//! an AND in full batches). On the 512-bit kernel, four schedules to a
//! register, the composition — [`GateHash::hash_batch`] and the
//! half-gate algebra around it — was timed at 19.5 ns an AND re-keyed
//! against 17.1 fixed-key in a full batch, +14 %, and +52 % one gate a
//! call (73 against 48 ns: a lone gate waits on its schedule chain),
//! best of 21 timings. A re-keyed batch at 512 bits no longer takes
//! that road: the batch entries run one fused kernel a side that
//! derives the keys, runs the rounds and computes the half-gates in
//! registers, while a fixed-key batch is still the composition. Timed
//! in one process (medians of 11, a scratch build that can force the
//! composition), a full garbler batch costs 16.9–18.6 ns an AND fused
//! and re-keyed, 34.2–36.2 composed and re-keyed, 32.0–33.0 composed
//! and fixed-key; one gate a call 84–93, 131–147 and 97–104 ns.
//! Re-keyed and fused is now the cheapest of the three at every batch
//! size. `benchmark/`'s `gc.garble.and_per_s` rung times the fused
//! kernel, the oracle `garble_and` the composition. Tables for both
//! are in `docs/measurements/`. The software-AES fallback pays +55 %.
//!
//! Both tweaks of an AND gate hash **two** labels each, so a
//! [`GateHash`] exposes exactly the shapes the gate ops need:
//! [`pair`](GateHash::pair) (one key expansion, two blocks) and
//! [`hash_batch`](GateHash::hash_batch) (a gate-shaped batch: every
//! tweak keys its lane of one or two planes of labels, a full batch in
//! one pass of the cipher). Every call is metered — key expansions and
//! AES block invocations accumulate in per-instance [`CryptoCounters`],
//! which is how the "2 expansions per AND gate" invariant is verified
//! rather than asserted.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::aes::{
    active_backend, encrypt_rekeyed, eval_half_gates, fuses_half_gates, garble_half_gates, Aes128,
    AesBackend, MAX_REKEYED_KEYS,
};
use crate::block::Block;

/// Tweak namespace for **base-OT** key derivation. Gate tweaks are
/// bounded by `2 · num_gates + 1 < 2^62`, so setting bit 62 keeps every
/// OT-derived pad disjoint from every gate hash under the same scheme.
pub const OT_BASE_TWEAK: u64 = 1 << 62;

/// Tweak namespace for **OT-extension** row hashing, disjoint from both
/// gate tweaks (< 2^62) and base-OT tweaks (bit 62): bit 63.
pub const OT_EXT_TWEAK: u64 = 1 << 63;

/// Which hash construction to use for AND gates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HashScheme {
    /// Re-keyed TCCR hash (Guo et al. 2020): `H(x, i) = AES_i(x) ⊕ x`,
    /// with a fresh key expansion of the tweak `i` per call. This is the
    /// scheme HAAC implements in hardware.
    #[default]
    Rekeyed,
    /// Legacy fixed-key hash (Bellare et al. 2013):
    /// `H(x, i) = AES_K(x ⊕ i) ⊕ x ⊕ i` under a circuit-global key `K`.
    /// Cheaper (no per-gate key expansion) but with known security loss;
    /// provided to reproduce the paper's 27.5% overhead comparison.
    FixedKey,
}

/// A snapshot of cipher work performed: the quantities HAAC's gate
/// engines pipeline (paper Fig. 2) and the source of `benchmark/`'s
/// `gc.hash.aes_blocks_per_and` and `gc.hash.key_expansions_per_and`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CryptoCounters {
    /// Full 176-byte AES key schedules run (the re-keying cost).
    pub key_expansions: u64,
    /// Single-block AES invocations.
    pub aes_blocks: u64,
}

impl CryptoCounters {
    /// Work performed since an earlier snapshot.
    pub fn since(self, earlier: CryptoCounters) -> CryptoCounters {
        CryptoCounters {
            key_expansions: self.key_expansions - earlier.key_expansions,
            aes_blocks: self.aes_blocks - earlier.aes_blocks,
        }
    }
}

/// The gate hash function, configured once per garbling session.
#[derive(Debug)]
pub struct GateHash {
    scheme: HashScheme,
    fixed: Aes128,
    key_expansions: AtomicU64,
    aes_blocks: AtomicU64,
}

impl Clone for GateHash {
    fn clone(&self) -> GateHash {
        GateHash {
            scheme: self.scheme,
            fixed: self.fixed,
            key_expansions: AtomicU64::new(self.key_expansions.load(Ordering::Relaxed)),
            aes_blocks: AtomicU64::new(self.aes_blocks.load(Ordering::Relaxed)),
        }
    }
}

/// A nothing-up-my-sleeve fixed key (digits of π in hex).
const FIXED_KEY: [u8; 16] = [
    0x24, 0x3f, 0x6a, 0x88, 0x85, 0xa3, 0x08, 0xd3, 0x13, 0x19, 0x8a, 0x2e, 0x03, 0x70, 0x73, 0x44,
];

impl GateHash {
    /// Creates a hash in the given scheme on the process-wide
    /// [`active_backend`]. The fixed key is only used by
    /// [`HashScheme::FixedKey`].
    pub fn new(scheme: HashScheme) -> GateHash {
        GateHash::with_backend(scheme, active_backend())
    }

    /// Like [`GateHash::new`] but pinned to an explicit AES backend
    /// (portable fallback if unavailable) — for benches and equivalence
    /// tests.
    pub fn with_backend(scheme: HashScheme, backend: AesBackend) -> GateHash {
        GateHash {
            scheme,
            fixed: Aes128::with_backend(FIXED_KEY, backend),
            key_expansions: AtomicU64::new(0),
            aes_blocks: AtomicU64::new(0),
        }
    }

    /// The configured scheme.
    pub fn scheme(&self) -> HashScheme {
        self.scheme
    }

    /// The AES backend this hash dispatches to.
    pub fn backend(&self) -> AesBackend {
        self.fixed.backend()
    }

    /// Cipher-work counters accumulated by this instance so far.
    pub fn counters(&self) -> CryptoCounters {
        CryptoCounters {
            key_expansions: self.key_expansions.load(Ordering::Relaxed),
            aes_blocks: self.aes_blocks.load(Ordering::Relaxed),
        }
    }

    #[inline]
    fn meter(&self, expansions: u64, blocks: u64) {
        self.key_expansions.fetch_add(expansions, Ordering::Relaxed);
        self.aes_blocks.fetch_add(blocks, Ordering::Relaxed);
    }

    #[inline]
    fn tweak_cipher(&self, tweak: u64) -> Aes128 {
        Aes128::with_backend(Block::from(u128::from(tweak)).to_bytes(), self.fixed.backend())
    }

    /// Hashes a label under tweak `tweak` (`2·gate_index` for the A-side
    /// hashes, `2·gate_index + 1` for the B-side, per Fig. 2).
    pub fn hash(&self, x: Block, tweak: u64) -> Block {
        match self.scheme {
            HashScheme::Rekeyed => {
                self.meter(1, 1);
                let aes = self.tweak_cipher(tweak);
                aes.encrypt_block(x) ^ x
            }
            HashScheme::FixedKey => {
                self.meter(0, 1);
                let input = x ^ Block::from(u128::from(tweak));
                self.fixed.encrypt_block(input) ^ input
            }
        }
    }

    /// Hashes two labels under **one** tweak with a single key expansion
    /// — the natural unit of a half gate, where each tweak covers both
    /// labels of one input wire. Equals `(hash(x0, t), hash(x1, t))`.
    pub fn pair(&self, x0: Block, x1: Block, tweak: u64) -> (Block, Block) {
        let mut out = [x0, x1];
        self.hash_batch(&[tweak], &mut out);
        (out[0], out[1])
    }

    /// Hashes a gate-shaped batch in place. `blocks` is one or two
    /// **planes** of `n = tweaks.len()` labels, and lane `k` of every
    /// plane is replaced by its hash under `tweaks[k]`: `blocks[p·n + k]
    /// = hash(blocks[p·n + k], tweaks[k])`. Each tweak is **expanded
    /// once** for the one or two labels it keys, which is what makes a
    /// re-keyed AND gate two expansions and not four. The batch is laid
    /// out plane by plane, not label pair by label pair, because that is
    /// how the cipher holds it: the lanes that share a register of round
    /// keys are contiguous in memory.
    ///
    /// # Panics
    ///
    /// Panics unless `blocks` is one or two planes of `tweaks.len()`.
    pub fn hash_batch(&self, tweaks: &[u64], blocks: &mut [Block]) {
        let n = tweaks.len();
        let two_planes = blocks.len() != n;
        assert!(!two_planes || blocks.len() == 2 * n, "one or two labels per tweak");
        match self.scheme {
            HashScheme::Rekeyed if two_planes => {
                let (plane0, plane1) = blocks.split_at_mut(n);
                self.rekeyed(tweaks, [plane0, plane1]);
            }
            HashScheme::Rekeyed => self.rekeyed(tweaks, [blocks]),
            HashScheme::FixedKey => {
                self.meter(0, blocks.len() as u64);
                for plane in blocks.chunks_mut(n.max(1)) {
                    for (x, &t) in plane.iter_mut().zip(tweaks) {
                        *x ^= Block::from(u128::from(t));
                    }
                }
                // The feed-forward needs the cipher's input, so the
                // ciphertext takes a buffer of its own.
                let mut pads = [Block::ZERO; 2 * MAX_REKEYED_KEYS];
                for inputs in blocks.chunks_mut(pads.len()) {
                    let pads = &mut pads[..inputs.len()];
                    pads.copy_from_slice(inputs);
                    self.fixed.encrypt_blocks(pads);
                    for (x, &pad) in inputs.iter_mut().zip(pads.iter()) {
                        *x ^= pad;
                    }
                }
            }
        }
    }

    /// Whether this hash garbles and evaluates a batch of AND gates in
    /// one fused kernel a side ([`garble_ands`](Self::garble_ands),
    /// [`eval_ands`](Self::eval_ands)) rather than through
    /// [`hash_batch`](Self::hash_batch): re-keyed, on AES-NI at 512
    /// bits.
    pub(crate) fn fuses_half_gates(&self) -> bool {
        self.scheme == HashScheme::Rekeyed && fuses_half_gates(self.backend())
    }

    /// The garbler's fused half-gate batch (`crate::aes`'s
    /// `garble_half_gates`), metered as the composition is: two
    /// expansions and four blocks an AND. Only where
    /// [`fuses_half_gates`](Self::fuses_half_gates) holds.
    pub(crate) fn garble_ands(
        &self,
        delta: Block,
        bases: &[u64],
        a: &[Block],
        b: &[Block],
        labels: &mut [Block],
        tables: &mut [[Block; 2]],
    ) {
        debug_assert!(self.fuses_half_gates());
        garble_half_gates(delta, bases, a, b, labels, tables);
        self.meter(2 * bases.len() as u64, 4 * bases.len() as u64);
    }

    /// The evaluator's fused half-gate batch, metered as the composition
    /// is: two expansions and two blocks an AND. Only where
    /// [`fuses_half_gates`](Self::fuses_half_gates) holds.
    pub(crate) fn eval_ands(
        &self,
        bases: &[u64],
        a: &[Block],
        b: &[Block],
        tables: &[[Block; 2]],
        labels: &mut [Block],
    ) {
        debug_assert!(self.fuses_half_gates());
        eval_half_gates(bases, a, b, tables, labels);
        self.meter(2 * bases.len() as u64, 2 * bases.len() as u64);
    }

    /// The re-keyed batch: [`MAX_REKEYED_KEYS`] tweaks at a time, each a
    /// fresh key for its lane of every plane.
    fn rekeyed<const P: usize>(&self, tweaks: &[u64], mut planes: [&mut [Block]; P]) {
        self.meter(tweaks.len() as u64, (P * tweaks.len()) as u64);
        let mut keys = [[0u8; 16]; MAX_REKEYED_KEYS];
        for (group, tweaks) in tweaks.chunks(MAX_REKEYED_KEYS).enumerate() {
            let at = group * MAX_REKEYED_KEYS;
            let keys = &mut keys[..tweaks.len()];
            for (key, &t) in keys.iter_mut().zip(tweaks) {
                *key = Block::from(u128::from(t)).to_bytes();
            }
            let lanes = planes.each_mut().map(|plane| &mut plane[at..at + tweaks.len()]);
            encrypt_rekeyed(self.fixed.backend(), keys, lanes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rekeyed_hash_depends_on_tweak() {
        let h = GateHash::new(HashScheme::Rekeyed);
        let x = Block::from(0x1234_5678u128);
        assert_ne!(h.hash(x, 0), h.hash(x, 1));
        assert_eq!(h.hash(x, 7), h.hash(x, 7));
    }

    #[test]
    fn fixed_key_hash_depends_on_tweak() {
        let h = GateHash::new(HashScheme::FixedKey);
        let x = Block::from(0xCAFEu128);
        assert_ne!(h.hash(x, 2), h.hash(x, 3));
    }

    #[test]
    fn schemes_differ() {
        let rk = GateHash::new(HashScheme::Rekeyed);
        let fk = GateHash::new(HashScheme::FixedKey);
        let x = Block::from(0xABCDu128);
        assert_ne!(rk.hash(x, 5), fk.hash(x, 5));
    }

    #[test]
    fn hash_is_not_identity_or_constant() {
        let h = GateHash::new(HashScheme::Rekeyed);
        let a = h.hash(Block::ZERO, 0);
        let b = h.hash(Block::from(1u128), 0);
        assert_ne!(a, Block::ZERO);
        assert_ne!(a, b);
    }

    #[test]
    fn pair_equals_two_hashes_with_one_expansion() {
        for scheme in [HashScheme::Rekeyed, HashScheme::FixedKey] {
            let h = GateHash::new(scheme);
            let x0 = Block::from(0x1111u128);
            let x1 = Block::from(0x2222u128);
            let before = h.counters();
            let (p0, p1) = h.pair(x0, x1, 42);
            let pair_cost = h.counters().since(before);
            assert_eq!(p0, h.hash(x0, 42), "{scheme:?}");
            assert_eq!(p1, h.hash(x1, 42), "{scheme:?}");
            let expected_expansions = match scheme {
                HashScheme::Rekeyed => 1,
                HashScheme::FixedKey => 0,
            };
            assert_eq!(
                pair_cost,
                CryptoCounters { key_expansions: expected_expansions, aes_blocks: 2 },
                "{scheme:?}"
            );
        }
    }

    #[test]
    fn hash_batch_equals_sequential_hash() {
        for scheme in [HashScheme::Rekeyed, HashScheme::FixedKey] {
            let h = GateHash::new(scheme);
            for n in [0usize, 1, 2, 3, 4, 7, 8, 9, 16, 17, 31, 40] {
                for planes in [1usize, 2] {
                    let xs: Vec<Block> =
                        (0..(planes * n) as u128).map(|i| Block::from(i * 7 + 1)).collect();
                    let tweaks: Vec<u64> = (0..n as u64).map(|k| 3 * k + 1).collect();
                    let mut out = xs.clone();
                    h.hash_batch(&tweaks, &mut out);
                    for (i, &x) in xs.iter().enumerate() {
                        let want = h.hash(x, tweaks[i % n]);
                        assert_eq!(out[i], want, "{scheme:?} n={n} planes={planes} lane={i}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_tweak_is_expanded_once_for_the_labels_it_keys() {
        let h = GateHash::new(HashScheme::Rekeyed);
        let before = h.counters();
        // The AND-gate shape: tweaks [j0, j1] over a plane of zero labels
        // and a plane of one labels → exactly 2 expansions, 4 blocks.
        let mut out = [1u128, 2, 3, 4].map(Block::from);
        h.hash_batch(&[10, 11], &mut out);
        let cost = h.counters().since(before);
        assert_eq!(cost, CryptoCounters { key_expansions: 2, aes_blocks: 4 });
    }

    #[test]
    #[should_panic(expected = "one or two labels per tweak")]
    fn a_batch_that_is_not_whole_planes_is_refused() {
        let mut out = [Block::ZERO; 5];
        GateHash::new(HashScheme::Rekeyed).hash_batch(&[1, 2], &mut out);
    }

    #[test]
    fn counters_accumulate_across_calls() {
        let h = GateHash::new(HashScheme::Rekeyed);
        h.hash(Block::ZERO, 1);
        h.hash(Block::ZERO, 2);
        assert_eq!(h.counters(), CryptoCounters { key_expansions: 2, aes_blocks: 2 });
        let h2 = h.clone();
        assert_eq!(h2.counters(), h.counters());
    }
}
