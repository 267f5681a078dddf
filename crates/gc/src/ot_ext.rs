//! IKNP/ALSZ-style OT extension: ~128 base OTs bootstrap unlimited
//! cheap OTs evaluated entirely with the batched AES engine.
//!
//! A base OT costs ≈ 235 modular multiplications and squarings across
//! its two roles (see [`crate::ot`]); at thousands of evaluator inputs
//! the input phase dwarfs garbling. The classic IKNP trick (Ishai–Kilian–
//! Nissim–Petrank 2003, with the ALSZ framing) inverts the cost: run
//! [`KAPPA`] base OTs **with the roles reversed**, then serve every
//! real transfer from a PRG expansion, one matrix transpose, and two
//! re-keyed AES hashes per transfer.
//!
//! Cast of characters (note the reversal — confusing on first read):
//!
//! - The **extension sender** holds the `m` message pairs (in our
//!   sessions: the garbler, with label pairs). It plays the base-OT
//!   *receiver*, using its secret κ-bit string `s` as the choice bits.
//! - The **extension receiver** holds the `m` choice bits (the
//!   evaluator, with its input bits). It plays the base-OT *sender*,
//!   delivering one of two random PRG seeds per column.
//!
//! Protocol, for `m` transfers with κ = 128 columns:
//!
//! 1. Receiver samples κ seed pairs `(k⁰ⱼ, k¹ⱼ)`; base OTs give the
//!    sender `k^{sⱼ}ⱼ` ([`OtExtReceiver::seed_pairs`],
//!    [`OtExtSender::choice_bits`]).
//! 2. Receiver expands both seeds per column and sends
//!    `uⱼ = G(k⁰ⱼ) ⊕ G(k¹ⱼ) ⊕ c`, where `c` is its packed choice
//!    vector ([`OtExtReceiver::u_matrix`]).
//! 3. Sender computes `qⱼ = G(k^{sⱼ}ⱼ) ⊕ sⱼ·uⱼ`; after transposing to
//!    rows, `qᵢ = tᵢ ⊕ cᵢ·s` with `tᵢ` the receiver's row — exactly
//!    one [`Block`] each, since κ = 128.
//! 4. Sender masks each pair: `e⁰ᵢ = m⁰ᵢ ⊕ H(qᵢ, i)`,
//!    `e¹ᵢ = m¹ᵢ ⊕ H(qᵢ ⊕ s, i)` ([`OtExtSender::process`]).
//! 5. Receiver recovers `m^{cᵢ}ᵢ = e^{cᵢ}ᵢ ⊕ H(tᵢ, i)`
//!    ([`OtExtReceiver::decrypt`]).
//!
//! **Correlated-OT form.** When the pairs are free-XOR label pairs
//! `(zᵢ, zᵢ ⊕ Δ)` — as every garbler input pair is — the receiver's
//! output is `zᵢ ⊕ cᵢ·Δ`: the active wire label itself, with zero
//! re-randomization. The label structure rides through the extension
//! untouched, which is why this module needs nothing from the garbler
//! beyond the pairs it already exposes.
//!
//! Hashing uses the re-keyed [`GateHash`] under the [`OT_EXT_TWEAK`]
//! namespace; the per-transfer tweak makes `H` a
//! correlation-robustness breaker (the hash, not the raw `qᵢ`, masks
//! the messages) and both branches of a pair are hashed under the one
//! expansion of tweak `i`, exactly like the two labels of an AND gate's
//! input wire.
//!
//! This module is pure symmetric crypto (PRG + transpose + hashes), so
//! it is **not** gated behind `insecure-ot` — only the base-OT
//! bootstrap that feeds it is. The security caveat it inherits from
//! that layer is documented there.

use rand::Rng;

use crate::aes::Aes128;
use crate::block::Block;
use crate::hash::{GateHash, HashScheme, OT_EXT_TWEAK};
use crate::ot::OtError;

/// The extension's security parameter: number of base OTs, and the
/// column count of the bit matrix. Fixed at 128 so every transposed row
/// is exactly one [`Block`].
pub const KAPPA: usize = 128;

/// How many [`Block`]s one matrix column spans for `m` transfers.
pub fn blocks_per_column(m: usize) -> usize {
    m.div_ceil(KAPPA)
}

/// Expands a seed into `nblocks` pseudorandom blocks: AES-CTR with the
/// seed as the key. Fresh seeds per session make the fixed counter
/// sequence safe.
fn prg(seed: Block, nblocks: usize) -> Vec<Block> {
    let aes = Aes128::from_block(seed);
    let mut out: Vec<Block> = (0..nblocks).map(|i| Block::from(i as u128)).collect();
    aes.encrypt_blocks(&mut out);
    out
}

/// Packs bits LSB-first into blocks: bit `i` lands in block `i / 128`,
/// position `i % 128`.
fn pack_bits(bits: &[bool]) -> Vec<Block> {
    let mut out = vec![0u128; blocks_per_column(bits.len())];
    for (i, &bit) in bits.iter().enumerate() {
        if bit {
            out[i / KAPPA] |= 1u128 << (i % KAPPA);
        }
    }
    out.into_iter().map(Block::from).collect()
}

/// In-place 128 × 128 bit-matrix transpose: `a[i]` bit `j` swaps with
/// `a[j]` bit `i` (LSB indexing). The classic recursive block-swap
/// (Hacker's Delight §7-3) widened to 128-bit words: log κ rounds of
/// masked half-exchanges instead of κ² single-bit moves — this is what
/// keeps the extension's matrix step off the profile.
fn transpose128(a: &mut [u128; KAPPA]) {
    let mut j = KAPPA / 2;
    let mut mask: u128 = !0u128 >> (KAPPA / 2);
    while j != 0 {
        let mut k = 0;
        while k < KAPPA {
            for i in k..k + j {
                let t = ((a[i] >> j) ^ a[i + j]) & mask;
                a[i + j] ^= t;
                a[i] ^= t << j;
            }
            k += 2 * j;
        }
        j >>= 1;
        if j != 0 {
            mask ^= mask << j;
        }
    }
}

/// Transposes a column-major κ × m bit matrix (`columns[j]` holds
/// column `j`'s `m` bits, packed as in [`pack_bits`]) into `m` row
/// blocks: bit `j` of row `i` is bit `i` of column `j`. Works one
/// 128 × 128 tile (one block index across all κ columns) at a time
/// through [`transpose128`].
fn transpose_rows(columns: &[Vec<Block>], m: usize) -> Vec<Block> {
    debug_assert_eq!(columns.len(), KAPPA);
    let nblk = blocks_per_column(m);
    let mut rows = Vec::with_capacity(m);
    let mut tile = [0u128; KAPPA];
    for b in 0..nblk {
        for (word, column) in tile.iter_mut().zip(columns) {
            *word = u128::from(column[b]);
        }
        transpose128(&mut tile);
        let take = (m - b * KAPPA).min(KAPPA);
        rows.extend(tile[..take].iter().map(|&w| Block::from(w)));
    }
    rows
}

/// The sender side of the extension (the garbler): holds the secret
/// choice string `s` for the reversed base OTs, then turns the
/// receiver's `u` matrix plus its base-OT seeds into masked message
/// pairs.
#[derive(Debug)]
pub struct OtExtSender {
    s: Vec<bool>,
    s_block: Block,
    hash: GateHash,
}

impl OtExtSender {
    /// Samples the secret κ-bit string `s`.
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> OtExtSender {
        let s: Vec<bool> = (0..KAPPA).map(|_| rng.gen::<bool>()).collect();
        let s_block = pack_bits(&s)[0];
        OtExtSender { s, s_block, hash: GateHash::new(HashScheme::Rekeyed) }
    }

    /// The choice bits to feed the **base-OT receiver** role: the
    /// sender of the extension receives seeds, one per column.
    pub fn choice_bits(&self) -> &[bool] {
        &self.s
    }

    /// Consumes the base-OT output (`seeds[j] = k^{sⱼ}ⱼ`) and the
    /// receiver's `u` matrix, producing one masked ciphertext pair per
    /// message pair.
    ///
    /// # Errors
    ///
    /// [`OtError::CountMismatch`] if `seeds` is not κ long or
    /// `u_matrix` is not κ columns of [`blocks_per_column`]`(pairs.len())`
    /// blocks each — both are peer-influenced, so no panics.
    pub fn process(
        &self,
        seeds: &[Block],
        u_matrix: &[Block],
        pairs: &[(Block, Block)],
    ) -> Result<Vec<[Block; 2]>, OtError> {
        if seeds.len() != KAPPA {
            return Err(OtError::CountMismatch { expected: KAPPA, got: seeds.len() });
        }
        let m = pairs.len();
        let nblk = blocks_per_column(m);
        if u_matrix.len() != KAPPA * nblk {
            return Err(OtError::CountMismatch { expected: KAPPA * nblk, got: u_matrix.len() });
        }
        // q_j = G(k_{s_j}) ⊕ s_j·u_j, column by column.
        let q_columns: Vec<Vec<Block>> = (0..KAPPA)
            .map(|j| {
                let mut column = prg(seeds[j], nblk);
                if self.s[j] {
                    for (block, &u) in column.iter_mut().zip(&u_matrix[j * nblk..(j + 1) * nblk]) {
                        *block ^= u;
                    }
                }
                column
            })
            .collect();
        let mut masks = transpose_rows(&q_columns, m);
        // Mask both branches of every transfer in one batch of two
        // planes, `H(qᵢ, i)` then `H(qᵢ ⊕ s, i)`: one key expansion per
        // transfer covers both.
        let tweaks: Vec<u64> = (0..m as u64).map(|i| OT_EXT_TWEAK | i).collect();
        masks.extend_from_within(..);
        for q in &mut masks[m..] {
            *q ^= self.s_block;
        }
        self.hash.hash_batch(&tweaks, &mut masks);
        Ok(pairs
            .iter()
            .enumerate()
            .map(|(i, &(m0, m1))| [m0 ^ masks[i], m1 ^ masks[m + i]])
            .collect())
    }
}

/// The receiver side of the extension (the evaluator): samples the κ
/// seed pairs the reversed base OTs deliver, builds the `u` matrix from
/// its choice bits, and unmasks its chosen branch of each pair.
#[derive(Debug)]
pub struct OtExtReceiver {
    seeds: Vec<(Block, Block)>,
    choices: Vec<bool>,
    t_rows: Vec<Block>,
    hash: GateHash,
}

impl OtExtReceiver {
    /// Samples κ seed pairs and fixes the choice bits for this batch.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, choices: &[bool]) -> OtExtReceiver {
        let seeds: Vec<(Block, Block)> =
            (0..KAPPA).map(|_| (Block::random(rng), Block::random(rng))).collect();
        OtExtReceiver {
            seeds,
            choices: choices.to_vec(),
            t_rows: Vec::new(),
            hash: GateHash::new(HashScheme::Rekeyed),
        }
    }

    /// The message pairs to feed the **base-OT sender** role: the
    /// receiver of the extension sends seeds, one pair per column.
    pub fn seed_pairs(&self) -> &[(Block, Block)] {
        &self.seeds
    }

    /// Number of transfers this batch serves.
    pub fn transfers(&self) -> usize {
        self.choices.len()
    }

    /// Builds the `u` matrix (`uⱼ = G(k⁰ⱼ) ⊕ G(k¹ⱼ) ⊕ c`), κ columns of
    /// [`blocks_per_column`] blocks each, flattened column-major — and
    /// caches the transposed `t` rows needed by
    /// [`decrypt`](OtExtReceiver::decrypt).
    pub fn u_matrix(&mut self) -> Vec<Block> {
        let m = self.choices.len();
        let nblk = blocks_per_column(m);
        let c_blocks = pack_bits(&self.choices);
        let mut u = Vec::with_capacity(KAPPA * nblk);
        let mut t_columns = Vec::with_capacity(KAPPA);
        for &(k0, k1) in &self.seeds {
            let t_column = prg(k0, nblk);
            let g1 = prg(k1, nblk);
            for i in 0..nblk {
                u.push(t_column[i] ^ g1[i] ^ c_blocks[i]);
            }
            t_columns.push(t_column);
        }
        self.t_rows = transpose_rows(&t_columns, m);
        u
    }

    /// Unmasks the chosen branch of each ciphertext pair:
    /// `m^{cᵢ}ᵢ = e^{cᵢ}ᵢ ⊕ H(tᵢ, i)`.
    ///
    /// # Errors
    ///
    /// [`OtError::CountMismatch`] if the (peer-sent) ciphertext count
    /// does not match the choice count.
    ///
    /// # Panics
    ///
    /// Panics if called before [`u_matrix`](OtExtReceiver::u_matrix) —
    /// a local sequencing bug, not a peer-controlled input.
    pub fn decrypt(&self, ciphertexts: &[[Block; 2]]) -> Result<Vec<Block>, OtError> {
        let m = self.choices.len();
        assert_eq!(self.t_rows.len(), m, "u_matrix() must run before decrypt()");
        if ciphertexts.len() != m {
            return Err(OtError::CountMismatch { expected: m, got: ciphertexts.len() });
        }
        let tweaks: Vec<u64> = (0..m as u64).map(|i| OT_EXT_TWEAK | i).collect();
        let mut masks = self.t_rows.clone();
        self.hash.hash_batch(&tweaks, &mut masks);
        Ok(ciphertexts
            .iter()
            .zip(&self.choices)
            .zip(&masks)
            .map(|((e, &c), &mask)| e[c as usize] ^ mask)
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    /// Runs the whole extension in-process, with the base-OT layer
    /// replaced by direct seed selection (what the reversed base OTs
    /// deliver).
    fn run_extension(
        seed: u64,
        pairs: &[(Block, Block)],
        choices: &[bool],
    ) -> (Vec<Block>, Vec<[Block; 2]>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let sender = OtExtSender::new(&mut rng);
        let mut receiver = OtExtReceiver::new(&mut rng, choices);
        let seeds: Vec<Block> = sender
            .choice_bits()
            .iter()
            .zip(receiver.seed_pairs())
            .map(|(&s, &(k0, k1))| if s { k1 } else { k0 })
            .collect();
        let u = receiver.u_matrix();
        let cts = sender.process(&seeds, &u, pairs).expect("well-formed inputs");
        let got = receiver.decrypt(&cts).expect("matching counts");
        (got, cts)
    }

    #[test]
    fn receiver_gets_exactly_the_chosen_message() {
        let mut rng = StdRng::seed_from_u64(1);
        // Cover m < 128, m == 128, and m straddling a block boundary.
        for m in [1usize, 5, 127, 128, 129, 300] {
            let pairs: Vec<(Block, Block)> =
                (0..m).map(|_| (Block::random(&mut rng), Block::random(&mut rng))).collect();
            let choices: Vec<bool> = (0..m).map(|i| i % 3 != 1).collect();
            let (got, cts) = run_extension(m as u64, &pairs, &choices);
            for i in 0..m {
                let want = if choices[i] { pairs[i].1 } else { pairs[i].0 };
                assert_eq!(got[i], want, "m={m} transfer {i}");
                assert_ne!(cts[i][0], pairs[i].0, "m={m} transfer {i}: branch 0 masked");
                assert_ne!(cts[i][1], pairs[i].1, "m={m} transfer {i}: branch 1 masked");
            }
        }
    }

    #[test]
    fn correlated_pairs_deliver_the_active_label() {
        // Free-XOR pairs (z, z ⊕ Δ): the receiver's output must be
        // z ⊕ c·Δ with no re-randomization.
        let mut rng = StdRng::seed_from_u64(7);
        let delta = Block::random(&mut rng);
        let zeros: Vec<Block> = (0..200).map(|_| Block::random(&mut rng)).collect();
        let pairs: Vec<(Block, Block)> = zeros.iter().map(|&z| (z, z ^ delta)).collect();
        let choices: Vec<bool> = (0..200).map(|i| i % 2 == 0).collect();
        let (got, _) = run_extension(42, &pairs, &choices);
        for i in 0..200 {
            let want = if choices[i] { zeros[i] ^ delta } else { zeros[i] };
            assert_eq!(got[i], want, "transfer {i}");
        }
    }

    #[test]
    fn transpose_round_trips() {
        let mut rng = StdRng::seed_from_u64(3);
        for m in [1usize, 64, 128, 129, 257] {
            let nblk = blocks_per_column(m);
            let columns: Vec<Vec<Block>> =
                (0..KAPPA).map(|_| (0..nblk).map(|_| Block::random(&mut rng)).collect()).collect();
            let rows = transpose_rows(&columns, m);
            for i in 0..m {
                for (j, column) in columns.iter().enumerate() {
                    let col_bit = (u128::from(column[i / KAPPA]) >> (i % KAPPA)) & 1;
                    let row_bit = (u128::from(rows[i]) >> j) & 1;
                    assert_eq!(col_bit, row_bit, "m={m} row {i} col {j}");
                }
            }
        }
    }

    #[test]
    fn malformed_inputs_yield_typed_errors() {
        let mut rng = StdRng::seed_from_u64(9);
        let sender = OtExtSender::new(&mut rng);
        let mut receiver = OtExtReceiver::new(&mut rng, &[true, false, true]);
        let u = receiver.u_matrix();
        let pairs = vec![(Block::ZERO, Block::ZERO); 3];
        // Wrong seed count.
        assert_eq!(
            sender.process(&[Block::ZERO; 4], &u, &pairs).expect_err("rejected"),
            OtError::CountMismatch { expected: KAPPA, got: 4 }
        );
        // Wrong matrix size.
        assert_eq!(
            sender
                .process(&vec![Block::ZERO; KAPPA], &u[..KAPPA - 1], &pairs)
                .expect_err("rejected"),
            OtError::CountMismatch { expected: KAPPA, got: KAPPA - 1 }
        );
        // Wrong ciphertext count on the receiver.
        assert_eq!(
            receiver.decrypt(&[[Block::ZERO; 2]; 2]).expect_err("rejected"),
            OtError::CountMismatch { expected: 3, got: 2 }
        );
    }

    #[test]
    fn prg_is_deterministic_and_seed_dependent() {
        let a = prg(Block::from(1u128), 4);
        assert_eq!(a, prg(Block::from(1u128), 4));
        assert_ne!(a, prg(Block::from(2u128), 4));
        assert_ne!(a[0], a[1], "counter mode: distinct blocks");
    }
}
