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
//! Base OTs are expensive (three ~127-squaring `pow_mod`s each); the
//! [`crate::ot_ext`] module bootstraps unlimited cheap OTs from ~128 of
//! them. Every peer-facing entry point here returns [`OtError`] instead
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

    /// Reduces `x` modulo `p = 2^127 − 1`.
    #[inline]
    fn reduce(x: u128) -> u128 {
        // x < 2^128 = 2·2^127, so one fold brings x below 2^127 + 1 and a
        // second (conditional) fold below p.
        let mut r = (x >> 127) + (x & P);
        if r >= P {
            r -= P;
        }
        r
    }

    /// Modular multiplication via 64-bit limbs: `2^128 ≡ 2 (mod p)`.
    #[inline]
    pub fn mul_mod(a: u128, b: u128) -> u128 {
        let (a_lo, a_hi) = (a as u64 as u128, a >> 64);
        let (b_lo, b_hi) = (b as u64 as u128, b >> 64);
        // a·b = lo + mid·2^64 + hi·2^128, all pieces < 2^128.
        let lo = a_lo * b_lo;
        let mid1 = a_lo * b_hi;
        let mid2 = a_hi * b_lo;
        let hi = a_hi * b_hi;

        // Accumulate into a 256-bit value (hi128, lo128).
        let (lo128, carry1) = lo.overflowing_add(mid1 << 64);
        let (lo128, carry2) = lo128.overflowing_add(mid2 << 64);
        let hi128 = hi
            .wrapping_add(mid1 >> 64)
            .wrapping_add(mid2 >> 64)
            .wrapping_add(carry1 as u128)
            .wrapping_add(carry2 as u128);

        // 2^128 ≡ 2 (mod 2^127 − 1): fold the high half in with weight 2.
        // Reduce before doubling so the shift cannot overflow.
        reduce_sum(reduce(lo128), reduce(reduce(hi128) << 1))
    }

    /// Adds two reduced residues.
    #[inline]
    fn reduce_sum(a: u128, b: u128) -> u128 {
        // a, b < p < 2^127 so a + b < 2^128 never overflows.
        reduce(a + b)
    }

    /// Modular exponentiation by square-and-multiply.
    pub fn pow_mod(mut base: u128, mut exp: u128) -> u128 {
        let mut acc: u128 = 1;
        base = reduce(base);
        while exp > 0 {
            if exp & 1 == 1 {
                acc = mul_mod(acc, base);
            }
            base = mul_mod(base, base);
            exp >>= 1;
        }
        acc
    }

    /// Modular inverse via Fermat: `a^(p−2) mod p`.
    pub fn inv_mod(a: u128) -> u128 {
        pow_mod(a, P - 2)
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
                s: pow_mod(G, y),
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
            let s_inv = inv_mod(self.s);
            Ok(points
                .iter()
                .zip(pairs)
                .enumerate()
                .map(|(i, (&r, &(m0, m1)))| {
                    let k0 = pow_mod(r, self.y);
                    let k1 = pow_mod(mul_mod(r, s_inv), self.y);
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
            Ok(OtReceiver {
                xs,
                choices: choices.to_vec(),
                s: sender_point,
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
                    let g_x = pow_mod(G, x);
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
                    let k = pow_mod(self.s, self.xs[i]);
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
