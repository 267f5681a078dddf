//! x86_64 AES-NI backend: `aesenc` round pipelines and a key schedule
//! built from the same unit, at 128 bits and — where the CPU has VAES
//! and AVX-512 — at 512.
//!
//! This is the software mirror of HAAC's gate-engine AES pipeline — and
//! exactly what the paper's EMP/CPU baseline uses. One `aesenc` retires
//! per cycle on every AES-NI core while its latency is ~3–5 cycles, so
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
//! memory ([`key_schedule`]) only for a cipher that outlives the call.
//!
//! **Two widths, one backend.** Every instruction of that recipe has a
//! lane-wise 512-bit form, so a zmm register carries four fresh
//! schedules (or four states) for the price of one: [`rekeyed512`] is
//! the paper's gate engine at register width, a full 8-AND garbler
//! batch — 16 keys, 32 blocks — in one pass. [`wide`] detects `vaes`,
//! `avx512f` and `avx512bw` once; [`encrypt_rekeyed`] and
//! [`encrypt_blocks`] pick the width from it, so callers, the
//! `AesBackend::AesNi` name and every transcript are the same on both.
//! A count that does not fill its last register is padded with dead
//! lanes through masked loads and stores, never read past a slice.
//!
//! # Safety
//!
//! Every function is `#[target_feature(enable = "aes")]` or
//! `"aes,ssse3"` and must only be called after [`available`] returned
//! true — the facade's backend dispatch guarantees that; the `…_wide`
//! and `…512` ones additionally need [`wide`] to have returned true.

#![cfg(target_arch = "x86_64")]

use core::arch::x86_64::{
    __m128i, __m512i, __mmask8, _mm512_aesenc_epi128, _mm512_aesenclast_epi128,
    _mm512_broadcast_i32x4, _mm512_mask_storeu_epi64, _mm512_maskz_loadu_epi64, _mm512_set1_epi32,
    _mm512_setzero_si512, _mm512_shuffle_epi8, _mm512_slli_epi64, _mm512_ternarylogic_epi32,
    _mm512_xor_si512, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_loadu_si128, _mm_set1_epi32,
    _mm_setzero_si128, _mm_shuffle_epi8, _mm_slli_epi64, _mm_storeu_si128, _mm_xor_si128,
};
use std::sync::OnceLock;

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

/// The fused re-keying kernel at 128 bits: replaces block `x` of every
/// plane at lanes `at..at + K` with `AES_key(x) ⊕ x` under the fresh key
/// `keys[lane]` — `planes[p][at + k]` is keyed by `keys[at + k]`. Each
/// round derives the next round key of all `K` schedules in registers
/// ([`next_round_key`]) and at once spends it on the `K·P` states, so no
/// schedule is ever written to memory and the `K` schedule chains and
/// `K·P` cipher chains hide one another's latency; the feed-forward
/// rides on the last round's key. `K·P + K` must fit the sixteen xmm
/// registers with room for two temporaries: 4 × 2 is the largest shape.
///
/// # Safety
///
/// Requires AES-NI and SSSE3 (`available()` must have returned true).
#[target_feature(enable = "aes,ssse3")]
unsafe fn rekeyed128<const K: usize, const P: usize>(
    keys: &[[u8; 16]],
    planes: &mut [&mut [Block]; P],
    at: usize,
) {
    // Every access below is a bounds-checked index.
    let keys = &keys[at..at + K];
    let mut rk = [_mm_setzero_si128(); K];
    let mut state = [[_mm_setzero_si128(); P]; K];
    for k in 0..K {
        rk[k] = _mm_loadu_si128(keys[k].as_ptr() as *const __m128i);
        for p in 0..P {
            state[k][p] = _mm_xor_si128(load_block(&planes[p][at + k]), rk[k]);
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
        for p in 0..P {
            // AddRoundKey is the last step of the last round, so the
            // feed-forward `⊕ x` folds into its key.
            let x = load_block(&planes[p][at + k]);
            let hashed = _mm_aesenclast_si128(state[k][p], _mm_xor_si128(last, x));
            store_block(&mut planes[p][at + k], hashed);
        }
    }
}

/// [`encrypt_rekeyed`] on 128-bit registers, for any key count: whole
/// groups of four keys, then two, then one, each through the fused
/// kernel ([`rekeyed128`]).
///
/// # Safety
///
/// Requires AES-NI and SSSE3 (`available()` must have returned true).
#[target_feature(enable = "aes,ssse3")]
pub unsafe fn encrypt_rekeyed_narrow<const P: usize>(
    keys: &[[u8; 16]],
    mut planes: [&mut [Block]; P],
) {
    let n = keys.len();
    let mut at = 0;
    while n - at >= 4 {
        rekeyed128::<4, P>(keys, &mut planes, at);
        at += 4;
    }
    if n - at >= 2 {
        rekeyed128::<2, P>(keys, &mut planes, at);
        at += 2;
    }
    if n - at == 1 {
        rekeyed128::<1, P>(keys, &mut planes, at);
    }
}

/// Whether the 512-bit kernels can run on this CPU, detected once: VAES
/// on zmm registers needs AVX-512F, the lane-wise `vpshufb` of the key
/// schedule AVX-512BW.
pub fn wide() -> bool {
    static WIDE: OnceLock<bool> = OnceLock::new();
    *WIDE.get_or_init(|| {
        available()
            && is_x86_feature_detected!("vaes")
            && is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512bw")
    })
}

/// 128-bit lanes of a 512-bit register: the AES-128 keys, round keys or
/// states one zmm carries.
const ZMM_LANES: usize = 4;

/// The 64-bit-element mask of the lanes of register `group` that hold
/// one of `n` keys (or blocks): all eight elements of every register
/// but a ragged last one.
#[inline(always)]
fn lane_mask(n: usize, group: usize) -> __mmask8 {
    let live = (n - ZMM_LANES * group).min(ZMM_LANES);
    (0xFFu16 >> (8 - 2 * live)) as __mmask8
}

/// [`next_round_key`] on four schedules at once, one per 128-bit lane.
/// The recipe is lane-wise throughout (`vpshufb`, `vaesenclast` and
/// `vpsllq` never cross a lane), and the three-way XOR is one
/// `vpternlogd`.
///
/// # Safety
///
/// Requires [`wide`].
#[inline]
#[target_feature(enable = "aes,ssse3,vaes,avx512f,avx512bw")]
unsafe fn next_round_key512(k: __m512i, rcon: i32) -> __m512i {
    let rot_word3 = _mm512_broadcast_i32x4(_mm_loadu_si128(ROT_WORD3.as_ptr() as *const __m128i));
    let word1_to_high =
        _mm512_broadcast_i32x4(_mm_loadu_si128(WORD1_TO_HIGH.as_ptr() as *const __m128i));
    let t = _mm512_aesenclast_epi128(_mm512_shuffle_epi8(k, rot_word3), _mm512_set1_epi32(rcon));
    let k = _mm512_xor_si512(k, _mm512_slli_epi64::<32>(k));
    _mm512_ternarylogic_epi32::<0x96>(k, _mm512_shuffle_epi8(k, word1_to_high), t)
}

/// The fused re-keying kernel at register width — the gate engine of
/// the paper's Fig. 2, a key-expand unit feeding four AES pipes, as one
/// instruction stream: `G` zmm registers of four fresh schedules each,
/// every round key derived lane-wise ([`next_round_key512`]) and spent
/// at once on the `G·P` zmm of states it keys. `G = 4`, `P = 2` is a
/// full garbler batch (16 keys, 32 blocks) on 12 of the 32 zmm.
///
/// `keys.len()` must be in `4·(G − 1) + 1 ..= 4·G`. A ragged last
/// register is padded with **dead lanes**: masked loads leave them zero
/// without touching memory past the slices, they run the cipher on a
/// zero key like any other lane, and masked stores drop them.
///
/// # Safety
///
/// Requires [`wide`].
#[target_feature(enable = "aes,ssse3,vaes,avx512f,avx512bw")]
unsafe fn rekeyed512<const G: usize, const P: usize>(
    keys: &[[u8; 16]],
    planes: &mut [&mut [Block]; P],
) {
    let n = keys.len();
    // The bounds every masked 64-byte access below relies on: register
    // `g` starts at element `4·g < n` of a slice of `n` elements and
    // `lane_mask(n, g)` covers elements `4·g .. n` of it at most.
    assert!(ZMM_LANES * (G - 1) < n && n <= ZMM_LANES * G, "{n} keys in {G} registers");
    for plane in planes.iter() {
        assert_eq!(plane.len(), n, "one block per key in every plane");
    }
    let zero = _mm512_setzero_si512();
    let mut rk = [zero; G];
    let mut x = [[zero; P]; G];
    let mut state = [[zero; P]; G];
    for g in 0..G {
        let mask = lane_mask(n, g);
        rk[g] = _mm512_maskz_loadu_epi64(mask, keys.as_ptr().add(ZMM_LANES * g).cast());
        for p in 0..P {
            x[g][p] = _mm512_maskz_loadu_epi64(mask, planes[p].as_ptr().add(ZMM_LANES * g).cast());
            state[g][p] = _mm512_xor_si512(x[g][p], rk[g]);
        }
    }
    for rcon in &RCON[..9] {
        for rk in &mut rk {
            *rk = next_round_key512(*rk, *rcon);
        }
        for (states, rk) in state.iter_mut().zip(&rk) {
            for s in states {
                *s = _mm512_aesenc_epi128(*s, *rk);
            }
        }
    }
    for g in 0..G {
        let mask = lane_mask(n, g);
        let last = next_round_key512(rk[g], RCON[9]);
        for p in 0..P {
            // The feed-forward `⊕ x` folds into the last round's key.
            let hashed = _mm512_aesenclast_epi128(state[g][p], _mm512_xor_si512(last, x[g][p]));
            _mm512_mask_storeu_epi64(
                planes[p].as_mut_ptr().add(ZMM_LANES * g).cast(),
                mask,
                hashed,
            );
        }
    }
}

/// [`encrypt_rekeyed`] on 512-bit registers, for 1 to 16 keys: as many
/// registers of four keys as the count needs, the last one padded with
/// dead lanes (see [`rekeyed512`]).
///
/// # Safety
///
/// Requires [`wide`].
#[target_feature(enable = "aes,ssse3,vaes,avx512f,avx512bw")]
pub unsafe fn encrypt_rekeyed_wide<const P: usize>(
    keys: &[[u8; 16]],
    mut planes: [&mut [Block]; P],
) {
    match keys.len().div_ceil(ZMM_LANES) {
        1 => rekeyed512::<1, P>(keys, &mut planes),
        2 => rekeyed512::<2, P>(keys, &mut planes),
        3 => rekeyed512::<3, P>(keys, &mut planes),
        4 => rekeyed512::<4, P>(keys, &mut planes),
        _ => panic!("{} keys exceed {}", keys.len(), super::MAX_REKEYED_KEYS),
    }
}

/// The re-keyed gate hash's cipher pass: replaces every block `x` of
/// `planes[p]` at lane `k` with `AES_keys[k](x) ⊕ x`, each key fresh,
/// expanded in registers and thrown away — on 512-bit registers where
/// the CPU has them ([`wide`]), on 128-bit ones elsewhere, bit for bit
/// the same. At least one and at most [`super::MAX_REKEYED_KEYS`] keys;
/// every plane holds one block per key.
///
/// # Safety
///
/// Requires AES-NI and SSSE3 (`available()` must have returned true).
#[target_feature(enable = "aes,ssse3")]
pub unsafe fn encrypt_rekeyed<const P: usize>(keys: &[[u8; 16]], planes: [&mut [Block]; P]) {
    if wide() {
        encrypt_rekeyed_wide(keys, planes)
    } else {
        encrypt_rekeyed_narrow(keys, planes)
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

/// Encrypts a whole slice of blocks in place under one schedule, on
/// 512-bit registers where the CPU has them ([`wide`]) and on 128-bit
/// ones elsewhere.
///
/// # Safety
///
/// Requires AES-NI.
#[target_feature(enable = "aes")]
pub unsafe fn encrypt_blocks(rks: &RoundKeys, blocks: &mut [Block]) {
    if wide() {
        encrypt_blocks_wide(rks, blocks)
    } else {
        encrypt_blocks_narrow(rks, blocks)
    }
}

/// [`encrypt_blocks`] on 128-bit registers, [`super::MAX_LANES`] blocks
/// at a time, loading each round key once per call.
///
/// # Safety
///
/// Requires AES-NI.
#[target_feature(enable = "aes")]
pub unsafe fn encrypt_blocks_narrow(rks: &RoundKeys, blocks: &mut [Block]) {
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

/// Registers of four blocks the one-key wide kernel keeps in flight.
const WIDE_LANES: usize = 8;

/// One group of [`encrypt_blocks_wide`]: `R` registers of four blocks
/// under the broadcast schedule `keys`, `group.len()` in
/// `4·(R − 1) + 1 ..= 4·R`, a ragged last register padded with dead
/// lanes exactly as in [`rekeyed512`].
///
/// # Safety
///
/// Requires [`wide`].
#[inline]
#[target_feature(enable = "aes,vaes,avx512f")]
unsafe fn blocks512<const R: usize>(keys: &[__m512i; 11], group: &mut [Block]) {
    let n = group.len();
    // Register `i` starts at block `4·i < n` and `lane_mask(n, i)`
    // covers blocks `4·i .. n` at most: no masked access leaves `group`.
    assert!(ZMM_LANES * (R - 1) < n && n <= ZMM_LANES * R, "{n} blocks in {R} registers");
    let base = group.as_mut_ptr();
    let mut state = [keys[0]; R];
    for (i, s) in state.iter_mut().enumerate() {
        let x = _mm512_maskz_loadu_epi64(lane_mask(n, i), base.add(ZMM_LANES * i).cast());
        *s = _mm512_xor_si512(x, keys[0]);
    }
    for key in &keys[1..10] {
        for s in &mut state {
            *s = _mm512_aesenc_epi128(*s, *key);
        }
    }
    for (i, s) in state.iter().enumerate() {
        let out = _mm512_aesenclast_epi128(*s, keys[10]);
        _mm512_mask_storeu_epi64(base.add(ZMM_LANES * i).cast(), lane_mask(n, i), out);
    }
}

/// [`encrypt_blocks`] at register width: every round key broadcast to
/// the four lanes of a zmm once per call, [`WIDE_LANES`] registers of
/// four blocks in flight, the last group of a slice in as many
/// registers as it needs.
///
/// # Safety
///
/// Requires [`wide`].
#[target_feature(enable = "aes,vaes,avx512f")]
pub unsafe fn encrypt_blocks_wide(rks: &RoundKeys, blocks: &mut [Block]) {
    let mut keys = [_mm512_setzero_si512(); 11];
    for (round, key) in keys.iter_mut().enumerate() {
        *key = _mm512_broadcast_i32x4(load_rk(rks, round));
    }
    for group in blocks.chunks_mut(ZMM_LANES * WIDE_LANES) {
        match group.len().div_ceil(ZMM_LANES) {
            1 => blocks512::<1>(&keys, group),
            2 => blocks512::<2>(&keys, group),
            3 => blocks512::<3>(&keys, group),
            4 => blocks512::<4>(&keys, group),
            5 => blocks512::<5>(&keys, group),
            6 => blocks512::<6>(&keys, group),
            7 => blocks512::<7>(&keys, group),
            _ => blocks512::<WIDE_LANES>(&keys, group),
        }
    }
}
