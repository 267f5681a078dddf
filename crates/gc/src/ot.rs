//! Oblivious transfer: a Chou–Orlandi-style base OT.
//!
//! The real protocol delivers the Evaluator's input labels via 1-out-of-2
//! OT so the Garbler learns nothing about Bob's bits (paper §2.1). HAAC
//! accelerates gate processing, not OT, so the paper's evaluation excludes
//! it — but a streaming runtime needs the message flow to exist.
//!
//! [`base`] (feature `insecure-ot`, on by default) is the "simplest OT"
//! of Chou & Orlandi (LatinCrypt 2015), instantiated in the
//! multiplicative group mod the Mersenne prime `p = 2^127 − 1` instead
//! of an elliptic curve. The protocol *structure* is the real thing —
//! blinded DH key agreement, per-branch key derivation, encrypted label
//! pairs — and it is transport-agnostic (pure message-in/message-out
//! state machines that `haac-runtime` ships over its `Channel`s). A
//! 127-bit discrete-log group is **far below any acceptable security
//! parameter**, hence the feature name: this is protocol plumbing you
//! can measure, not cryptography you can deploy.
//!
//! A base OT costs its algebra and no more. The sender pays one
//! variable-base exponentiation a transfer — a 4-bit window, 124
//! squarings and 45 multiplications — because its second branch key is
//! the first times `(S^y)⁻¹`, an inverse taken once a batch. The
//! receiver's two exponentiations have bases fixed for the batch (`g`
//! always, `S` from a 480-multiplication table built once a batch), so
//! each is 32 table reads and multiplications and no squaring: ≈ 235
//! group operations a transfer across both roles. That is still
//! public-key work; the [`crate::ot_ext`] module bootstraps unlimited
//! cheap OTs from ~128 of these.
//!
//! Every peer-facing entry point here returns [`OtError`] instead
//! of panicking — malformed points or mismatched counts are protocol
//! violations a session must surface as typed errors, not aborts.

use std::fmt;

/// Whether the base OT compiled into this build is the 127-bit
/// [`base`] group of the `insecure-ot` feature — the only base OT there
/// is, so `true` whenever two-party sessions can run at all. A serving
/// layer reads this to keep such sessions off public interfaces.
pub const BASE_OT_IS_INSECURE: bool = cfg!(feature = "insecure-ot");

/// A protocol violation observed inside an OT state machine: the peer
/// sent something structurally invalid. These are trust-boundary errors —
/// the session layer maps them to its typed protocol error, never a
/// panic, because every one of these inputs is peer-controlled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OtError {
    /// A group element was zero mod p (or otherwise outside the group) —
    /// accepting it would collapse branch keys or leak choice bits.
    InvalidPoint,
    /// A batched message carried the wrong number of items.
    CountMismatch {
        /// How many items the state machine expected.
        expected: usize,
        /// How many the peer actually sent.
        got: usize,
    },
}

impl fmt::Display for OtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OtError::InvalidPoint => write!(f, "OT point outside the group"),
            OtError::CountMismatch { expected, got } => {
                write!(f, "OT batch count mismatch: expected {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for OtError {}

/// Chou–Orlandi-style base OT over the group `(Z/pZ)^*`, `p = 2^127 − 1`.
///
/// Message flow for a batch of `n` transfers (all messages are plain
/// byte-serializable values; the caller owns the transport):
///
/// 1. Sender → Receiver: `S = g^y` plus a fresh batch nonce
///    ([`base::OtSender::public_point`], [`base::OtSender::nonce`]).
/// 2. Receiver → Sender: `R_i = g^{x_i} · S^{c_i}` for each choice bit
///    `c_i` ([`base::OtReceiver::blinded_points`]).
/// 3. Sender → Receiver: `(e0_i, e1_i)` where `e_b = m_b ⊕ H(k_b ⊕ nonce, i)`
///    with `k0 = R_i^y`, `k1 = (R_i/S)^y` ([`base::OtSender::encrypt`]).
/// 4. Receiver: `m_{c_i} = e_{c_i} ⊕ H(S^{x_i} ⊕ nonce, i)`
///    ([`base::OtReceiver::decrypt`]).
///
/// Key derivation reuses the re-keyed gate hash (`H(x, tweak) =
/// AES_{K(tweak)}(x) ⊕ x`), with tweaks in the
/// [`OT_BASE_TWEAK`](crate::OT_BASE_TWEAK) namespace, disjoint from
/// any gate index. The per-batch nonce is folded into the hashed *input*
/// (the tweak alone keys the cipher, and `index` restarts at 0 every
/// batch): without it the pad would be fully determined by
/// `(point, index)`, identical across sessions that ever repeat a point.
#[cfg(feature = "insecure-ot")]
pub mod base {
    use super::OtError;
    use crate::block::Block;
    use crate::hash::{GateHash, HashScheme, OT_BASE_TWEAK};
    use rand::Rng;

    /// The Mersenne prime `2^127 − 1`.
    pub const P: u128 = (1u128 << 127) - 1;

    /// A fixed generator of a large subgroup of `(Z/pZ)^*`.
    pub const G: u128 = 3;

    // Everything below the protocol is written against three group
    // operations — multiply, square, invert — and two ways to raise to
    // a power built from them: a table for a base that stays fixed
    // (`FixedBase`) and a window for one that does not (`pow_mod`).
    // A curve (ROADMAP item 6(a)) swaps the three operations and keeps
    // the rest: `yR − yS` for the sender's second key, a comb for `B`,
    // a window for `S`.

    /// Reduces `x` modulo `p = 2^127 − 1`.
    #[inline]
    const fn reduce(x: u128) -> u128 {
        // x < 2^128 = 2·2^127, so one fold brings x below 2^127 + 1 and a
        // second (conditional) fold below p.
        let r = (x >> 127) + (x & P);
        if r >= P {
            r - P
        } else {
            r
        }
    }

    /// Reduces the 256-bit value `hi·2^128 + lo`, `hi < 2^126` — every
    /// product of two operands below `2^127`.
    #[inline]
    const fn reduce_wide(hi: u128, lo: u128) -> u128 {
        // hi·2^128 + lo = top·2^127 + bottom with bottom < 2^127, and
        // 2^127 ≡ 1 (which is 2^128 ≡ 2 for the bits of `hi`). The bound
        // on `hi` keeps top below 2^127, so the sum fits: an operand out
        // of range overflows here — a panic in a debug build, a wrong
        // residue in release.
        reduce(((hi << 1) | (lo >> 127)) + (lo & P))
    }

    /// Group multiply: `a·b mod p` from four 64-bit limb products.
    /// Operands must be below `2^127` (a residue, or `p` itself).
    #[inline]
    const fn mul_mod(a: u128, b: u128) -> u128 {
        let (a_lo, a_hi) = (a as u64 as u128, a >> 64);
        let (b_lo, b_hi) = (b as u64 as u128, b >> 64);
        // a·b = lo + mid·2^64 + hi·2^128. The high limbs are below 2^63,
        // so each cross product is below 2^127 and their sum fits.
        let mid = a_lo * b_hi + a_hi * b_lo;
        let (lo, carry) = (a_lo * b_lo).overflowing_add(mid << 64);
        reduce_wide(a_hi * b_hi + (mid >> 64) + carry as u128, lo)
    }

    /// Group square: [`mul_mod`]`(a, a)` from three limb products.
    #[inline]
    const fn sqr_mod(a: u128) -> u128 {
        let (a_lo, a_hi) = (a as u64 as u128, a >> 64);
        let mid = (a_lo * a_hi) << 1;
        let (lo, carry) = (a_lo * a_lo).overflowing_add(mid << 64);
        reduce_wide(a_hi * a_hi + (mid >> 64) + carry as u128, lo)
    }

    /// Nibbles in an exponent: 32 cover all 128 bits (exponents here are
    /// below `2^127`, so the top one is at most 7).
    const WINDOWS: usize = 32;

    /// Exponentiation with a variable base, by a 4-bit fixed window:
    /// `base^1..base^15` once, then four squarings and one multiply per
    /// nibble of `exp` below its leading one.
    pub fn pow_mod(base: u128, exp: u128) -> u128 {
        if exp == 0 {
            return 1;
        }
        let base = reduce(base);
        let mut powers = [1; 16];
        powers[1] = base;
        for j in 2..16 {
            powers[j] = mul_mod(powers[j - 1], base);
        }
        let nibble = |w: u32| (exp >> (4 * w)) as usize & 0xF;
        let top = (127 - exp.leading_zeros()) / 4;
        let mut acc = powers[nibble(top)];
        for w in (0..top).rev() {
            acc = sqr_mod(sqr_mod(sqr_mod(sqr_mod(acc))));
            if nibble(w) != 0 {
                acc = mul_mod(acc, powers[nibble(w)]);
            }
        }
        acc
    }

    /// Group invert, via Fermat: `a^(p−2) mod p`.
    pub fn inv_mod(a: u128) -> u128 {
        pow_mod(a, P - 2)
    }

    /// `base^(j·16^w)` for every nibble value `j` and nibble position
    /// `w`: raising the base to any power is then one table read and one
    /// multiply per nibble of the exponent, and no squaring.
    ///
    /// The reads are indexed by secret nibbles and so are not
    /// constant-time; item 6(a)'s curve must select its table entries in
    /// constant time.
    #[derive(Debug)]
    struct FixedBase([[u128; 16]; WINDOWS]);

    /// The generator's table, built when the crate is.
    static G_POWERS: FixedBase = FixedBase::new(G);

    impl FixedBase {
        /// Tabulates `base` in `32·15 = 480` multiplications — what a
        /// windowed [`pow_mod`] (169 a full-length exponent) spends in
        /// three transfers, so every batch worth measuring repays it.
        const fn new(base: u128) -> FixedBase {
            let mut table = [[1u128; 16]; WINDOWS];
            let mut unit = reduce(base);
            let mut w = 0;
            while w < WINDOWS {
                table[w][1] = unit;
                let mut j = 2;
                while j < 16 {
                    table[w][j] = mul_mod(table[w][j - 1], unit);
                    j += 1;
                }
                unit = mul_mod(table[w][15], unit);
                w += 1;
            }
            FixedBase(table)
        }

        /// `base^exp`.
        fn pow(&self, exp: u128) -> u128 {
            let mut acc = 1;
            for (w, row) in self.0.iter().enumerate() {
                acc = mul_mod(acc, row[(exp >> (4 * w)) as usize & 0xF]);
            }
            acc
        }
    }

    /// Whether a wire value denotes a usable group element (a nonzero
    /// residue mod `p`).
    ///
    /// The identity-breaking value here is 0 (and anything ≡ 0 mod p): a
    /// peer that sends it forces `x^y = 0` regardless of the secret
    /// exponent, collapsing both branch keys to a publicly computable
    /// value — the receiver would learn *both* labels (and hence Δ), or
    /// the sender would learn the choice bits. Honest parties can never
    /// produce 0 (`g^x` is a unit), so reject it at every trust boundary.
    pub fn valid_point(x: u128) -> bool {
        reduce(x) != 0
    }

    /// Derives the symmetric key block for transfer `index`, branch key
    /// `point`, under the batch `nonce`.
    fn derive_key(hash: &GateHash, nonce: Block, point: u128, index: u64) -> Block {
        hash.hash(Block::from(point) ^ nonce, OT_BASE_TWEAK | index)
    }

    /// Samples a non-trivial exponent in `[1, p − 2]`.
    fn sample_exponent<R: Rng + ?Sized>(rng: &mut R) -> u128 {
        loop {
            let candidate: u128 = rng.gen::<u128>() & ((1 << 127) - 1);
            if (1..=P - 2).contains(&candidate) {
                return candidate;
            }
        }
    }

    /// The sender side of a batched base OT.
    #[derive(Debug)]
    pub struct OtSender {
        y: u128,
        s: u128,
        nonce: Block,
        hash: GateHash,
    }

    impl OtSender {
        /// Samples the sender's secret, public point, and batch nonce.
        pub fn new<R: Rng + ?Sized>(rng: &mut R) -> OtSender {
            let y = sample_exponent(rng);
            OtSender {
                y,
                s: G_POWERS.pow(y),
                nonce: Block::random(rng),
                hash: GateHash::new(HashScheme::Rekeyed),
            }
        }

        /// `S = g^y`, sent to the receiver first.
        pub fn public_point(&self) -> u128 {
            self.s
        }

        /// The fresh per-batch nonce, shipped alongside `S`. Folded into
        /// key derivation so pads never repeat across batches even when
        /// `(point, index)` pairs do.
        pub fn nonce(&self) -> Block {
            self.nonce
        }

        /// Encrypts each message pair under the two candidate keys derived
        /// from the receiver's blinded points.
        ///
        /// # Errors
        ///
        /// [`OtError::CountMismatch`] if `points` and `pairs` differ in
        /// length; [`OtError::InvalidPoint`] if any point is not a valid
        /// group element (see [`valid_point`]). Both inputs are
        /// peer-controlled, so this never panics.
        pub fn encrypt(
            &self,
            points: &[u128],
            pairs: &[(Block, Block)],
        ) -> Result<Vec<[Block; 2]>, OtError> {
            if points.len() != pairs.len() {
                return Err(OtError::CountMismatch { expected: pairs.len(), got: points.len() });
            }
            if !points.iter().all(|&r| valid_point(r)) {
                return Err(OtError::InvalidPoint);
            }
            // (R/S)^y = R^y · (S^y)⁻¹: one exponentiation a transfer,
            // and one a batch for the inverse — S^(p−1−y) in this group,
            // by Fermat; a curve negates `yS`.
            let s_y_inv = pow_mod(self.s, P - 1 - self.y);
            Ok(points
                .iter()
                .zip(pairs)
                .enumerate()
                .map(|(i, (&r, &(m0, m1)))| {
                    let k0 = pow_mod(r, self.y);
                    let k1 = mul_mod(k0, s_y_inv);
                    [
                        m0 ^ derive_key(&self.hash, self.nonce, k0, 2 * i as u64),
                        m1 ^ derive_key(&self.hash, self.nonce, k1, 2 * i as u64 + 1),
                    ]
                })
                .collect())
        }
    }

    /// The receiver side of a batched base OT.
    #[derive(Debug)]
    pub struct OtReceiver {
        xs: Vec<u128>,
        choices: Vec<bool>,
        s: u128,
        s_powers: Box<FixedBase>,
        nonce: Block,
        hash: GateHash,
    }

    impl OtReceiver {
        /// Blinds one point per choice bit against the sender's public
        /// point, under the sender's batch nonce.
        ///
        /// # Errors
        ///
        /// [`OtError::InvalidPoint`] if `sender_point` is not a valid
        /// group element (a zero `S` would make `R_i = 0` exactly when
        /// `c_i = 1`, leaking every choice bit). The point comes from the
        /// peer, so this never panics.
        pub fn new<R: Rng + ?Sized>(
            rng: &mut R,
            sender_point: u128,
            nonce: Block,
            choices: &[bool],
        ) -> Result<OtReceiver, OtError> {
            if !valid_point(sender_point) {
                return Err(OtError::InvalidPoint);
            }
            let xs: Vec<u128> = choices.iter().map(|_| sample_exponent(rng)).collect();
            let s = reduce(sender_point);
            Ok(OtReceiver {
                xs,
                choices: choices.to_vec(),
                s,
                s_powers: Box::new(FixedBase::new(s)),
                nonce,
                hash: GateHash::new(HashScheme::Rekeyed),
            })
        }

        /// `R_i = g^{x_i} · S^{c_i}`, sent to the sender.
        pub fn blinded_points(&self) -> Vec<u128> {
            self.xs
                .iter()
                .zip(&self.choices)
                .map(|(&x, &c)| {
                    let g_x = G_POWERS.pow(x);
                    if c {
                        mul_mod(g_x, self.s)
                    } else {
                        g_x
                    }
                })
                .collect()
        }

        /// Decrypts the chosen branch of each ciphertext pair.
        ///
        /// # Errors
        ///
        /// [`OtError::CountMismatch`] if the (peer-sent) ciphertext count
        /// does not match the choice count.
        pub fn decrypt(&self, ciphertexts: &[[Block; 2]]) -> Result<Vec<Block>, OtError> {
            if ciphertexts.len() != self.choices.len() {
                return Err(OtError::CountMismatch {
                    expected: self.choices.len(),
                    got: ciphertexts.len(),
                });
            }
            Ok(ciphertexts
                .iter()
                .enumerate()
                .map(|(i, e)| {
                    let k = self.s_powers.pow(self.xs[i]);
                    let branch = self.choices[i] as u64;
                    e[self.choices[i] as usize]
                        ^ derive_key(&self.hash, self.nonce, k, 2 * i as u64 + branch)
                })
                .collect())
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use rand::{rngs::StdRng, SeedableRng};

        /// `a·b mod p` by shift-and-add: the arithmetic oracle, sharing
        /// nothing with the limb products under test.
        fn mul_slow(a: u128, b: u128) -> u128 {
            let add = |x: u128, y: u128| (x + y) % P; // x, y < p < 2^127
            let (mut acc, mut addend) = (0, a % P);
            for bit in 0..128 {
                if (b >> bit) & 1 == 1 {
                    acc = add(acc, addend);
                }
                addend = add(addend, addend);
            }
            acc
        }

        /// The parent's square-and-multiply, over [`mul_slow`]: the
        /// exponentiation oracle.
        fn pow_slow(mut base: u128, mut exp: u128) -> u128 {
            let mut acc = 1;
            while exp > 0 {
                if exp & 1 == 1 {
                    acc = mul_slow(acc, base);
                }
                base = mul_slow(base, base);
                exp >>= 1;
            }
            acc
        }

        /// Edge operands and exponents: the ends of the range, the limb
        /// boundary, and the top of the field.
        fn edge_values() -> Vec<u128> {
            let limb = 1u128 << 64;
            vec![0, 1, 2, limb - 1, limb, limb + 1, 1 << 126, (1 << 126) + 1, P - 2, P - 1, P]
        }

        #[test]
        fn multiply_and_square_match_shift_and_add() {
            let mut rng = StdRng::seed_from_u64(11);
            let mut operands = edge_values();
            operands.extend((0..64).map(|_| rng.gen::<u128>() >> 1));
            for &a in &operands {
                assert_eq!(sqr_mod(a), mul_slow(a, a), "{a:#x}²");
                for &b in &operands {
                    assert_eq!(mul_mod(a, b), mul_slow(a, b), "{a:#x} · {b:#x}");
                }
            }
        }

        #[test]
        fn both_exponentiations_match_square_and_multiply() {
            let mut rng = StdRng::seed_from_u64(12);
            let mut exponents = edge_values();
            exponents.push(P >> 3); // every nibble 0xF below a top 0
            exponents.extend((0..WINDOWS).map(|w| 0x9u128 << (4 * w) & P)); // one nibble set
            exponents.extend((0..8).map(|_| sample_exponent(&mut rng)));
            for base in [G, P - 1, (1 << 64) + 1, sample_exponent(&mut rng)] {
                let table = FixedBase::new(base);
                for &exp in &exponents {
                    let want = pow_slow(base, exp);
                    assert_eq!(table.pow(exp), want, "table: {base:#x}^{exp:#x}");
                    assert_eq!(pow_mod(base, exp), want, "window: {base:#x}^{exp:#x}");
                }
            }
            assert_eq!(G_POWERS.0, FixedBase::new(G).0, "the build-time table is g's");
        }

        #[test]
        fn modular_arithmetic_identities() {
            assert_eq!(mul_mod(P - 1, P - 1), 1); // (−1)² = 1
            assert_eq!(mul_mod(1 << 126, 4), 2); // 2^128 ≡ 2
            assert_eq!(pow_mod(G, 0), 1);
            assert_eq!(pow_mod(G, 1), G);
            let mut rng = StdRng::seed_from_u64(1);
            for _ in 0..32 {
                let a = super::sample_exponent(&mut rng);
                assert_eq!(mul_mod(a, inv_mod(a)), 1, "a·a⁻¹ = 1 for a = {a}");
                // Fermat: a^(p−1) = 1.
                assert_eq!(pow_mod(a, P - 1), 1);
            }
        }

        #[test]
        fn second_branch_key_is_the_first_over_the_shared_key() {
            // The sender's one-exponentiation identity, against the two
            // the parent computed: R^y · S^(p−1−y) = (R·S⁻¹)^y.
            let mut rng = StdRng::seed_from_u64(13);
            for _ in 0..16 {
                let y = sample_exponent(&mut rng);
                let s = G_POWERS.pow(y);
                let r = sample_exponent(&mut rng);
                let s_y_inv = pow_mod(s, P - 1 - y);
                assert_eq!(s_y_inv, inv_mod(pow_mod(s, y)), "S^(p−1−y) inverts S^y");
                assert_eq!(
                    mul_mod(pow_mod(r, y), s_y_inv),
                    pow_slow(mul_slow(r, inv_mod(s)), y),
                    "y = {y:#x}, r = {r:#x}"
                );
            }
        }

        /// One seeded batch of `n` transfers; feeds every message of the
        /// exchange, in wire order, and the receiver's outputs to `absorb`.
        fn exchange(rng: &mut StdRng, n: usize, absorb: &mut dyn FnMut(u128)) {
            let pairs: Vec<(Block, Block)> =
                (0..n).map(|_| (Block::random(rng), Block::random(rng))).collect();
            let choices: Vec<bool> = (0..n).map(|_| rng.gen()).collect();
            let sender = OtSender::new(rng);
            let receiver = OtReceiver::new(rng, sender.public_point(), sender.nonce(), &choices)
                .expect("valid sender point");
            let points = receiver.blinded_points();
            let cts = sender.encrypt(&points, &pairs).expect("valid blinded points");
            let got = receiver.decrypt(&cts).expect("matching counts");
            for (i, (&(zero, one), &c)) in pairs.iter().zip(&choices).enumerate() {
                assert_eq!(got[i], if c { one } else { zero }, "n = {n}, transfer {i}");
            }
            absorb(sender.public_point());
            absorb(sender.nonce().into());
            points.iter().for_each(|&r| absorb(r));
            cts.iter().flatten().for_each(|&e| absorb(e.into()));
            got.iter().for_each(|&m| absorb(m.into()));
        }

        #[test]
        fn short_batches_round_trip() {
            let mut rng = StdRng::seed_from_u64(14);
            for n in 1..=8 {
                exchange(&mut rng, n, &mut |_| ());
            }
        }

        #[test]
        fn seeded_exchange_is_the_parents_byte_for_byte() {
            // "No wire change" as an assertion: FNV-1a over every point,
            // nonce, ciphertext and output of six seeded batches, pinned
            // from commit 56980b9 (three square-and-multiply `pow_mod`s
            // and an `inv_mod` per transfer).
            let mut rng = StdRng::seed_from_u64(24);
            let mut digest = 0xcbf2_9ce4_8422_2325u64;
            let mut absorb = |x: u128| {
                for byte in x.to_le_bytes() {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            };
            for n in [1, 3, 4, 5, 16, 128] {
                exchange(&mut rng, n, &mut absorb);
            }
            assert_eq!(digest, 0x6ea4_cce8_3cbb_f9c0);
        }

        #[test]
        fn receiver_gets_exactly_the_chosen_message() {
            let mut rng = StdRng::seed_from_u64(2);
            let pairs: Vec<(Block, Block)> =
                (0..16).map(|_| (Block::random(&mut rng), Block::random(&mut rng))).collect();
            let choices: Vec<bool> = (0..16).map(|i| i % 3 == 0).collect();

            let sender = OtSender::new(&mut rng);
            let receiver =
                OtReceiver::new(&mut rng, sender.public_point(), sender.nonce(), &choices)
                    .expect("valid sender point");
            let cts =
                sender.encrypt(&receiver.blinded_points(), &pairs).expect("valid blinded points");
            let got = receiver.decrypt(&cts).expect("matching counts");

            for (i, ((&(zero, one), &c), label)) in pairs.iter().zip(&choices).zip(&got).enumerate()
            {
                assert_eq!(*label, if c { one } else { zero }, "transfer {i}");
                // And the unchosen message stays computationally hidden —
                // at minimum, no ciphertext branch equals its plaintext.
                assert_ne!(cts[i][0], pairs[i].0, "transfer {i} branch 0");
                assert_ne!(cts[i][1], pairs[i].1, "transfer {i} branch 1");
            }
        }

        #[test]
        fn same_plaintexts_encrypt_differently_across_batches() {
            // The nonce regression: two senders sharing the same secret
            // (hence the same public point and the same branch keys) but
            // different nonces must produce different ciphertexts for the
            // same plaintext at the same index. Without the nonce the pad
            // is a pure function of (point, index) and both batches would
            // collide.
            let mut rng = StdRng::seed_from_u64(5);
            let first = OtSender::new(&mut rng);
            let second = OtSender {
                y: first.y,
                s: first.s,
                nonce: Block::random(&mut rng),
                hash: GateHash::new(HashScheme::Rekeyed),
            };
            assert_ne!(first.nonce(), second.nonce(), "fresh nonce per batch");
            let pair = (Block::from(0x1234u128), Block::from(0x5678u128));
            let receiver = OtReceiver::new(&mut rng, first.public_point(), first.nonce(), &[false])
                .expect("valid sender point");
            let points = receiver.blinded_points();
            let cts_a = first.encrypt(&points, &[pair]).expect("valid points");
            let cts_b = second.encrypt(&points, &[pair]).expect("valid points");
            assert_ne!(cts_a[0][0], cts_b[0][0], "branch-0 pad must differ across batches");
            assert_ne!(cts_a[0][1], cts_b[0][1], "branch-1 pad must differ across batches");
            // And the nonce-matched batch still decrypts correctly.
            assert_eq!(receiver.decrypt(&cts_a).expect("matching counts")[0], pair.0);
        }

        #[test]
        fn derive_key_depends_on_the_nonce() {
            let hash = GateHash::new(HashScheme::Rekeyed);
            let point = 0xABCDEFu128;
            let a = derive_key(&hash, Block::from(1u128), point, 0);
            let b = derive_key(&hash, Block::from(2u128), point, 0);
            assert_ne!(a, b, "same (point, index), different nonce → different pad");
            assert_eq!(a, derive_key(&hash, Block::from(1u128), point, 0), "deterministic");
        }

        #[test]
        fn wrong_choice_does_not_decrypt() {
            let mut rng = StdRng::seed_from_u64(3);
            let pair = (Block::random(&mut rng), Block::random(&mut rng));
            let sender = OtSender::new(&mut rng);
            let receiver =
                OtReceiver::new(&mut rng, sender.public_point(), sender.nonce(), &[false])
                    .expect("valid sender point");
            let cts = sender.encrypt(&receiver.blinded_points(), &[pair]).expect("valid points");
            // Flipping the choice after blinding yields garbage, not `one`.
            let mut cheat = receiver;
            cheat.choices[0] = true;
            let got = cheat.decrypt(&cts).expect("matching counts");
            assert_ne!(got[0], pair.1);
            assert_ne!(got[0], pair.0);
        }

        #[test]
        fn malformed_inputs_yield_typed_errors_not_panics() {
            let mut rng = StdRng::seed_from_u64(6);
            let sender = OtSender::new(&mut rng);
            // Invalid sender point (0 and p are both ≡ 0 mod p).
            for bad in [0u128, P, 2 * P] {
                let err = OtReceiver::new(&mut rng, bad, sender.nonce(), &[true])
                    .expect_err("zero point must be rejected");
                assert_eq!(err, OtError::InvalidPoint);
            }
            // Invalid blinded point.
            let pair = (Block::ZERO, Block::ZERO);
            assert_eq!(sender.encrypt(&[0], &[pair]).expect_err("rejected"), OtError::InvalidPoint);
            // Count mismatches on both sides.
            assert_eq!(
                sender.encrypt(&[G, G], &[pair]).expect_err("rejected"),
                OtError::CountMismatch { expected: 1, got: 2 }
            );
            let receiver =
                OtReceiver::new(&mut rng, sender.public_point(), sender.nonce(), &[true, false])
                    .expect("valid sender point");
            assert_eq!(
                receiver.decrypt(&[[Block::ZERO; 2]]).expect_err("rejected"),
                OtError::CountMismatch { expected: 2, got: 1 }
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ot_error_displays_both_variants() {
        assert_eq!(OtError::InvalidPoint.to_string(), "OT point outside the group");
        assert_eq!(
            OtError::CountMismatch { expected: 2, got: 3 }.to_string(),
            "OT batch count mismatch: expected 2, got 3"
        );
    }
}
