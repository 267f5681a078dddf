//! The gate hash `H` used by half-gate garbling, in both the secure
//! re-keyed form HAAC adopts and the legacy fixed-key form.
//!
//! Paper §2.1: *"the Half-Gate uses the gate index as the key to
//! construct the AES hash. An important step here is key expansion …
//! HAAC uses re-keying rather than fixed-key, processing full key
//! expansions at extra computational cost"* (measured there at +27.5%
//! per half-gate). Here, on AES-NI, a re-keyed `garble_and` costs +27%
//! over a fixed-key one (14.2 M against 18.0 M calls/s, measured in
//! PR 14; `benchmark/`'s `gc.garble.and_per_s` ladder rung now tracks
//! the re-keyed rate), because the schedules are derived in registers
//! in the same pass as the rounds they feed (`aes::encrypt_rekeyed`);
//! the software-AES fallback pays +55%.
//!
//! Both tweaks of an AND gate hash **two** labels each, so a
//! [`GateHash`] exposes exactly the shapes the gate ops need:
//! [`pair`](GateHash::pair) (one key expansion, two blocks) and
//! [`hash_batch`](GateHash::hash_batch) (N independent lanes in flight,
//! consecutive equal tweaks sharing one expansion, whole runs handed
//! to the cipher a few fresh keys at a time). Every call is metered —
//! key expansions and AES block invocations accumulate in per-instance
//! [`CryptoCounters`], which is how the "2 expansions per AND gate"
//! invariant is verified rather than asserted.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::aes::{active_backend, encrypt_rekeyed, Aes128, AesBackend, MAX_REKEYED_KEYS};
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
        self.hash_batch(&[x0, x1], &[tweak, tweak], &mut out);
        (out[0], out[1])
    }

    /// Hashes `xs[i]` under `tweaks[i]` into `out[i]`, keeping up to
    /// [`MAX_LANES`](crate::aes::MAX_LANES) independent AES blocks in
    /// flight. A run of **consecutive equal tweaks shares one key
    /// expansion**, however long it is, which is what brings a re-keyed
    /// AND gate from four expansions down to two. Equivalent to calling
    /// [`hash`](GateHash::hash) per lane.
    ///
    /// # Panics
    ///
    /// Panics if the three slices' lengths differ.
    pub fn hash_batch(&self, xs: &[Block], tweaks: &[u64], out: &mut [Block]) {
        assert_eq!(xs.len(), tweaks.len(), "one tweak per lane");
        assert_eq!(xs.len(), out.len(), "one output per lane");
        match self.scheme {
            HashScheme::Rekeyed => self.rekeyed_batch(xs, tweaks, out),
            HashScheme::FixedKey => {
                self.meter(0, xs.len() as u64);
                for ((o, &x), &t) in out.iter_mut().zip(xs).zip(tweaks) {
                    *o = x ^ Block::from(u128::from(t));
                }
                self.fixed.encrypt_blocks(out);
                for ((o, &x), &t) in out.iter_mut().zip(xs).zip(tweaks) {
                    *o = *o ^ x ^ Block::from(u128::from(t));
                }
            }
        }
    }

    fn rekeyed_batch(&self, xs: &[Block], tweaks: &[u64], out: &mut [Block]) {
        let backend = self.fixed.backend();
        let n = xs.len();
        // Length of the run of equal tweaks that starts at lane `at`.
        let run_len = |at: usize| tweaks[at..].iter().take_while(|&&t| t == tweaks[at]).count();
        out.copy_from_slice(xs);
        let mut expansions = 0u64;
        let mut start = 0usize;
        while start < n {
            let per_key = run_len(start);
            let mut end = start;
            if per_key > 2 {
                // A long run is one cipher: one expansion however many
                // lanes it spans.
                end += per_key;
                expansions += 1;
                self.tweak_cipher(tweaks[start]).encrypt_blocks(&mut out[start..end]);
            } else {
                // A group of whole runs of one length, a fresh key
                // each: the AND-gate shape [j0,j0,j1,j1] is two keys of
                // two lanes, an evaluator's [j0,j1] two keys of one.
                let mut keys = [[0u8; 16]; MAX_REKEYED_KEYS];
                let mut k = 0usize;
                while k < MAX_REKEYED_KEYS && end < n && run_len(end) == per_key {
                    keys[k] = Block::from(u128::from(tweaks[end])).to_bytes();
                    k += 1;
                    end += per_key;
                }
                expansions += k as u64;
                encrypt_rekeyed(backend, &keys[..k], &mut out[start..end]);
            }
            start = end;
        }
        for (o, &x) in out.iter_mut().zip(xs) {
            *o ^= x;
        }
        self.meter(expansions, n as u64);
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
            for len in [0usize, 1, 2, 3, 4, 7, 8, 9, 16, 31] {
                let xs: Vec<Block> = (0..len as u128).map(|i| Block::from(i * 7 + 1)).collect();
                let tweaks: Vec<u64> = (0..len as u64).map(|i| i / 2).collect();
                let mut out = vec![Block::ZERO; len];
                h.hash_batch(&xs, &tweaks, &mut out);
                for i in 0..len {
                    assert_eq!(out[i], h.hash(xs[i], tweaks[i]), "{scheme:?} len={len} lane={i}");
                }
            }
        }
    }

    #[test]
    fn batch_dedupes_consecutive_tweaks() {
        let h = GateHash::new(HashScheme::Rekeyed);
        let xs = [Block::from(1u128), Block::from(2u128), Block::from(3u128), Block::from(4u128)];
        let before = h.counters();
        let mut out = [Block::ZERO; 4];
        // The AND-gate shape: [j0, j0, j1, j1] → exactly 2 expansions.
        h.hash_batch(&xs, &[10, 10, 11, 11], &mut out);
        let cost = h.counters().since(before);
        assert_eq!(cost, CryptoCounters { key_expansions: 2, aes_blocks: 4 });
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
