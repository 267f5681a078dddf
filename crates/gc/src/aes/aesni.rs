//! x86_64 AES-NI backend: `aesenc` round pipelines and a key schedule
//! built from the same unit.
//!
//! This is the software mirror of HAAC's gate-engine AES pipeline — and
//! exactly what the paper's EMP/CPU baseline uses. One `aesenc` retires
//! per cycle on every AES-NI core while its latency is ~3–4 cycles, so
//! the kernels here keep several independent blocks in flight
//! ([`encrypt_lanes`]/[`encrypt_blocks`]) the way HAAC keeps its gate
//! engines fed.
//!
//! Under re-keying the schedule, not the rounds, is the stage to feed:
//! a garbled AND spends two fresh keys on four blocks. The schedule
//! here ([`next_round_key`]) takes its S-box from `aesenclast` and is
//! made of instructions that issue once a cycle, so it pipelines like
//! the rounds do, and [`encrypt_rekeyed`] fuses the two: every round
//! derives the next round key of each fresh key in a register and
//! spends it at once on that key's blocks. A schedule is written to
//! memory ([`key_schedule`]) only for a cipher that outlives the call
//! and for the ragged group shapes the fused kernel is not
//! instantiated for.
//!
//! # Safety
//!
//! Every function is `#[target_feature(enable = "aes")]` or
//! `"aes,ssse3"` and must only be called after [`available`] returned
//! true — the facade's backend dispatch guarantees that.

#![cfg(target_arch = "x86_64")]

use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_set1_epi32,
    _mm_setzero_si128, _mm_shuffle_epi8, _mm_slli_epi64, _mm_storeu_si128, _mm_xor_si128,
};

use super::RoundKeys;
use crate::block::Block;

/// Whether this backend can run on the current CPU.
pub fn available() -> bool {
    is_x86_feature_detected!("aes")
        && is_x86_feature_detected!("sse2")
        && is_x86_feature_detected!("ssse3")
}

#[inline(always)]
unsafe fn load_rk(rks: &RoundKeys, round: usize) -> __m128i {
    _mm_loadu_si128(rks[round].as_ptr() as *const __m128i)
}

#[inline(always)]
unsafe fn load_block(block: &Block) -> __m128i {
    _mm_loadu_si128(block as *const Block as *const __m128i)
}

#[inline(always)]
unsafe fn store_block(block: &mut Block, state: __m128i) {
    _mm_storeu_si128(block as *mut Block as *mut __m128i, state);
}

/// `pshufb` mask that broadcasts RotWord(w3) — bytes 13, 14, 15, 12 —
/// to all four columns.
const ROT_WORD3: [u8; 16] = [13, 14, 15, 12, 13, 14, 15, 12, 13, 14, 15, 12, 13, 14, 15, 12];

/// `pshufb` mask that zeroes words 0–1 and copies word 1 into words 2
/// and 3: the second step of the prefix XOR.
const WORD1_TO_HIGH: [u8; 16] =
    [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 4, 5, 6, 7, 4, 5, 6, 7];

/// The AES-128 round constants, rounds 1–10.
const RCON: [i32; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36];

/// One round of the AES-128 key schedule, `[w0, w1, w2, w3]` → the next
/// round key, from instructions that each issue once a cycle.
///
/// `pshufb` puts RotWord(w3) in all four columns; ShiftRows is the
/// identity on a state whose columns are equal, so `aesenclast` with
/// the broadcast round constant as its round key yields
/// SubWord(RotWord(w3)) ⊕ rcon in every column. A 64-bit lane shift and
/// one more `pshufb` build the prefix XOR `[w0, w0⊕w1, w0⊕w1⊕w2,
/// w0⊕w1⊕w2⊕w3]`. Byte-identical to the portable schedule.
///
/// # Safety
///
/// Requires AES-NI and SSSE3 (`available()` must have returned true).
#[inline]
#[target_feature(enable = "aes,ssse3")]
unsafe fn next_round_key(k: __m128i, rcon: i32) -> __m128i {
    let rot = _mm_shuffle_epi8(k, _mm_loadu_si128(ROT_WORD3.as_ptr() as *const __m128i));
    let t = _mm_aesenclast_si128(rot, _mm_set1_epi32(rcon));
    let k = _mm_xor_si128(k, _mm_slli_epi64(k, 32));
    let high = _mm_shuffle_epi8(k, _mm_loadu_si128(WORD1_TO_HIGH.as_ptr() as *const __m128i));
    _mm_xor_si128(_mm_xor_si128(k, high), t)
}

/// AES-128 key schedule (the hardware `Key expand` of the paper's
/// Fig. 2) written out to memory: the unfused form, for ciphers that
/// outlive one call. Produces byte-identical round keys to the portable
/// schedule.
///
/// # Safety
///
/// Requires AES-NI and SSSE3 (`available()` must have returned true).
#[target_feature(enable = "aes,ssse3")]
pub unsafe fn key_schedule(key: [u8; 16]) -> RoundKeys {
    let mut out = [[0u8; 16]; 11];
    let mut k = _mm_loadu_si128(key.as_ptr() as *const __m128i);
    _mm_storeu_si128(out[0].as_mut_ptr() as *mut __m128i, k);
    for (slot, rcon) in out[1..].iter_mut().zip(RCON) {
        k = next_round_key(k, rcon);
        _mm_storeu_si128(slot.as_mut_ptr() as *mut __m128i, k);
    }
    out
}

/// The fused re-keying kernel: encrypts `blocks[k·B..(k+1)·B]` in place
/// under the fresh key `keys[k]`, for `K` keys of `B` blocks each, in
/// one pass. Each round derives the next round key of all `K` schedules
/// in registers ([`next_round_key`]) and at once spends it on the `K·B`
/// states, so no schedule is ever written to memory and the `K`
/// schedule chains and `K·B` cipher chains hide one another's latency.
/// `K·B + K` must fit the sixteen xmm registers with room for two
/// temporaries: 4 × 2 is the largest shape.
///
/// # Safety
///
/// Requires AES-NI and SSSE3 (`available()` must have returned true).
#[target_feature(enable = "aes,ssse3")]
pub unsafe fn encrypt_rekeyed<const K: usize, const B: usize>(
    keys: &[[u8; 16]],
    blocks: &mut [Block],
) {
    assert_eq!(keys.len(), K, "one key per group");
    assert_eq!(blocks.len(), K * B, "B blocks per key");
    let mut rk = [_mm_setzero_si128(); K];
    let mut state = [[_mm_setzero_si128(); B]; K];
    for k in 0..K {
        rk[k] = _mm_loadu_si128(keys[k].as_ptr() as *const __m128i);
        for b in 0..B {
            state[k][b] = _mm_xor_si128(load_block(&blocks[k * B + b]), rk[k]);
        }
    }
    for rcon in &RCON[..9] {
        for rk in &mut rk {
            *rk = next_round_key(*rk, *rcon);
        }
        for (states, rk) in state.iter_mut().zip(&rk) {
            for s in states {
                *s = _mm_aesenc_si128(*s, *rk);
            }
        }
    }
    for k in 0..K {
        let last = next_round_key(rk[k], RCON[9]);
        for b in 0..B {
            store_block(&mut blocks[k * B + b], _mm_aesenclast_si128(state[k][b], last));
        }
    }
}

/// Encrypts up to [`super::MAX_LANES`] independent blocks in place, each
/// under its own schedule, with the round loop interleaved across lanes
/// so the superscalar AES unit pipelines them.
///
/// # Safety
///
/// Requires AES-NI; `schedules.len()` must equal `blocks.len()` and be
/// at most [`super::MAX_LANES`].
#[target_feature(enable = "aes")]
pub unsafe fn encrypt_lanes(schedules: &[&RoundKeys], blocks: &mut [Block]) {
    debug_assert_eq!(schedules.len(), blocks.len());
    debug_assert!(blocks.len() <= super::MAX_LANES);
    let n = blocks.len();
    let mut state = [_mm_setzero_si128(); super::MAX_LANES];
    for lane in 0..n {
        state[lane] = _mm_xor_si128(load_block(&blocks[lane]), load_rk(schedules[lane], 0));
    }
    for round in 1..10 {
        for lane in 0..n {
            state[lane] = _mm_aesenc_si128(state[lane], load_rk(schedules[lane], round));
        }
    }
    for lane in 0..n {
        state[lane] = _mm_aesenclast_si128(state[lane], load_rk(schedules[lane], 10));
        store_block(&mut blocks[lane], state[lane]);
    }
}

/// Encrypts a whole slice of blocks in place under one schedule,
/// [`super::MAX_LANES`] at a time, loading each round key once per
/// group.
///
/// # Safety
///
/// Requires AES-NI.
#[target_feature(enable = "aes")]
pub unsafe fn encrypt_blocks(rks: &RoundKeys, blocks: &mut [Block]) {
    let mut keys = [load_rk(rks, 0); 11];
    for (round, key) in keys.iter_mut().enumerate() {
        *key = load_rk(rks, round);
    }
    for group in blocks.chunks_mut(super::MAX_LANES) {
        let n = group.len();
        let mut state = [keys[0]; super::MAX_LANES];
        for lane in 0..n {
            state[lane] = _mm_xor_si128(load_block(&group[lane]), keys[0]);
        }
        for key in &keys[1..10] {
            for s in state.iter_mut().take(n) {
                *s = _mm_aesenc_si128(*s, *key);
            }
        }
        for lane in 0..n {
            state[lane] = _mm_aesenclast_si128(state[lane], keys[10]);
            store_block(&mut group[lane], state[lane]);
        }
    }
}
