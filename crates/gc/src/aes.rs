//! AES-128 (encryption only), the cryptographic core of half-gate
//! garbling, with runtime-dispatched hardware backends.
//!
//! The paper's CPU baseline uses AES-NI through EMP; HAAC's gate engines
//! implement the same computation in custom logic. This module mirrors
//! that split in software: a single [`Aes128`] facade dispatches to
//!
//! - **AES-NI** (`aesenc`, and a key schedule built on `aesenclast`;
//!   their `vaesenc` forms on 512-bit registers where available) on
//!   x86_64,
//! - **ARMv8 crypto extensions** (`AESE`/`AESMC`) on aarch64,
//! - a **portable** byte-oriented implementation everywhere — the
//!   always-correct fallback, validated against FIPS-197 and NIST
//!   SP 800-38A vectors, that every hardware backend must match
//!   bit-for-bit.
//!
//! The backend is detected once at startup ([`active_backend`]); the
//! `HAAC_AES_BACKEND` environment variable (`portable` / `aesni` /
//! `neon`) forces a specific one, which CI uses to keep the fallback
//! path exercised. Batch entry points ([`Aes128::encrypt_blocks`],
//! [`encrypt_lanes`]) keep enough independent blocks in flight
//! ([`MAX_LANES`] on a 128-bit unit) that superscalar AES units pipeline
//! the way HAAC's gate engines do; `encrypt_rekeyed` is the unit of the
//! re-keyed gate hash, up to sixteen fresh keys used on a block or two
//! each, which AES-NI runs as one fused schedule-and-encrypt pass — four
//! schedules to a 512-bit register where the CPU has VAES and AVX-512,
//! one to a 128-bit register elsewhere, under the one `aesni` name. The
//! workload structure (2 key expansions + 4 AES calls per garbled AND,
//! §2.1/Fig. 2) is identical across backends and widths.

use std::sync::OnceLock;

use crate::block::Block;

mod aesni;
mod neon;
mod portable;

pub use portable::sbox;

/// An expanded AES-128 key schedule: 11 × 16 bytes = 176 B — the "key
/// expansion to 176 Byte" of paper §2.1.
pub(crate) type RoundKeys = [[u8; 16]; 11];

/// Independent blocks the 128-bit batch kernels (AES-NI's `xmm` shapes,
/// NEON) keep in flight.
///
/// Eight lanes cover the latency × throughput product of `aesenc` on a
/// 128-bit AES unit (latency ≤ 8 cycles, 1–2 issued a cycle). A core
/// with VAES retires four blocks an instruction, so the 512-bit kernels
/// of the `aesni` backend do not use this bound: they keep up to eight
/// *registers* — 32 blocks — in flight.
pub const MAX_LANES: usize = 8;

/// An AES implementation the facade can dispatch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AesBackend {
    /// Byte-oriented software AES; compiled everywhere, always correct.
    Portable,
    /// x86_64 AES-NI (`aesenc` / `aesenclast`, with SSSE3 `pshufb`), on
    /// 512-bit registers where the CPU also has VAES, AVX-512F and
    /// AVX-512BW — one backend, the width picked inside it.
    AesNi,
    /// aarch64 crypto extensions (`AESE` / `AESMC`).
    Neon,
}

impl AesBackend {
    /// Every backend variant (available or not), for equivalence tests.
    pub const ALL: [AesBackend; 3] = [AesBackend::Portable, AesBackend::AesNi, AesBackend::Neon];

    /// A short stable name (used by `HAAC_AES_BACKEND` and bench JSON).
    pub fn name(self) -> &'static str {
        match self {
            AesBackend::Portable => "portable",
            AesBackend::AesNi => "aesni",
            AesBackend::Neon => "neon",
        }
    }

    /// Whether this backend can run on the current CPU.
    pub fn is_available(self) -> bool {
        match self {
            AesBackend::Portable => true,
            #[cfg(target_arch = "x86_64")]
            AesBackend::AesNi => aesni::available(),
            #[cfg(not(target_arch = "x86_64"))]
            AesBackend::AesNi => false,
            #[cfg(target_arch = "aarch64")]
            AesBackend::Neon => neon::available(),
            #[cfg(not(target_arch = "aarch64"))]
            AesBackend::Neon => false,
        }
    }
}

/// The fastest available backend, honoring `HAAC_AES_BACKEND`.
fn detect_backend() -> AesBackend {
    match std::env::var("HAAC_AES_BACKEND").as_deref() {
        Ok("portable") => return AesBackend::Portable,
        Ok("aesni") if AesBackend::AesNi.is_available() => return AesBackend::AesNi,
        Ok("neon") | Ok("armv8") if AesBackend::Neon.is_available() => return AesBackend::Neon,
        Ok(other) if other != "auto" => {
            eprintln!("HAAC_AES_BACKEND={other} unknown or unavailable; auto-detecting");
        }
        _ => {}
    }
    if AesBackend::AesNi.is_available() {
        AesBackend::AesNi
    } else if AesBackend::Neon.is_available() {
        AesBackend::Neon
    } else {
        AesBackend::Portable
    }
}

/// The process-wide backend, selected once at first use.
pub fn active_backend() -> AesBackend {
    static ACTIVE: OnceLock<AesBackend> = OnceLock::new();
    *ACTIVE.get_or_init(detect_backend)
}

/// Expanded AES-128 round keys plus the backend that will run them.
///
/// The schedule bytes are backend-independent (hardware and portable
/// expansion produce the identical 176 B), so equality compares real
/// cipher identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Aes128 {
    round_keys: RoundKeys,
    backend: AesBackend,
}

impl Aes128 {
    /// Runs the AES-128 key schedule — the `Key expand` box of the
    /// paper's Fig. 2, performed per gate under re-keying — on the
    /// [`active_backend`].
    pub fn new(key: [u8; 16]) -> Aes128 {
        Aes128::with_backend(key, active_backend())
    }

    /// Like [`Aes128::new`] but on an explicit backend (falling back to
    /// portable if it is unavailable on this CPU). Benchmarks and the
    /// equivalence tests use this to pin a backend.
    pub fn with_backend(key: [u8; 16], backend: AesBackend) -> Aes128 {
        let backend = if backend.is_available() { backend } else { AesBackend::Portable };
        Aes128 { round_keys: expand_key(backend, key), backend }
    }

    /// Creates a cipher keyed by a [`Block`] (the per-gate tweak under
    /// re-keying).
    pub fn from_block(key: Block) -> Aes128 {
        Aes128::new(key.to_bytes())
    }

    /// The backend this cipher dispatches to.
    #[inline]
    pub fn backend(&self) -> AesBackend {
        self.backend
    }

    /// The expanded schedule, round key 0 (the key itself) first — what
    /// the equivalence tests compare across backends.
    pub fn round_keys(&self) -> &[[u8; 16]; 11] {
        &self.round_keys
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt(&self, block: [u8; 16]) -> [u8; 16] {
        self.encrypt_block(Block::from_bytes(block)).to_bytes()
    }

    /// Encrypts a [`Block`].
    #[inline]
    pub fn encrypt_block(&self, block: Block) -> Block {
        let mut one = [block];
        self.encrypt_blocks(&mut one);
        one[0]
    }

    /// Encrypts a slice of blocks in place under this one key, with as
    /// many independent blocks in flight as the backend's widest kernel
    /// holds ([`MAX_LANES`] on 128-bit units).
    pub fn encrypt_blocks(&self, blocks: &mut [Block]) {
        match self.backend {
            #[cfg(target_arch = "x86_64")]
            AesBackend::AesNi => unsafe { aesni::encrypt_blocks(&self.round_keys, blocks) },
            #[cfg(target_arch = "aarch64")]
            AesBackend::Neon => unsafe { neon::encrypt_blocks(&self.round_keys, blocks) },
            _ => {
                for b in blocks.iter_mut() {
                    *b = Block::from_bytes(portable::encrypt(&self.round_keys, b.to_bytes()));
                }
            }
        }
    }
}

/// The schedule of `key` written out to memory, on an available
/// `backend`: the unfused form, for a cipher that outlives the call or
/// for [`encrypt_lanes_rk`] to read back.
fn expand_key(backend: AesBackend, key: [u8; 16]) -> RoundKeys {
    match backend {
        #[cfg(target_arch = "x86_64")]
        AesBackend::AesNi => unsafe { aesni::key_schedule(key) },
        // aarch64 has no key-schedule instructions; the portable
        // schedule feeds the hardware rounds.
        _ => portable::expand_key(key),
    }
}

/// Most fresh keys one [`encrypt_rekeyed`] call may carry: the two
/// tweaks of each gate of a full `MAX_AND_BATCH` — four zmm registers
/// of four schedules each where the wide kernel runs.
pub(crate) const MAX_REKEYED_KEYS: usize = 16;

/// The re-keyed gate hash's cipher pass, the unit of work of a gate
/// engine: replaces every block `x` with `AES_key(x) ⊕ x`, where lane
/// `k` of **every plane** is keyed by the fresh key `keys[k]`, used once
/// and thrown away. A plane is one block per key; a caller that hashes
/// two labels under each tweak passes two planes (`P` = 2), so the
/// labels that share a register never need de-interleaving. At most
/// [`MAX_REKEYED_KEYS`] keys; no keys is a no-op.
///
/// On AES-NI this is one fused schedule-and-encrypt pass
/// ([`aesni::encrypt_rekeyed`]) that keeps every schedule in registers,
/// 512 bits wide where the CPU has VAES and AVX-512, 128 bits wide
/// elsewhere. Every other backend expands the schedules to memory, a
/// few at a time, and pipelines the lanes over them.
///
/// # Panics
///
/// Panics on more than [`MAX_REKEYED_KEYS`] keys or a plane whose
/// length is not `keys.len()`.
pub(crate) fn encrypt_rekeyed<const P: usize>(
    backend: AesBackend,
    keys: &[[u8; 16]],
    mut planes: [&mut [Block]; P],
) {
    assert!(keys.len() <= MAX_REKEYED_KEYS, "{} keys exceed {MAX_REKEYED_KEYS}", keys.len());
    for plane in &planes {
        assert_eq!(plane.len(), keys.len(), "one block per key in every plane");
    }
    if keys.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if backend == AesBackend::AesNi {
        // SAFETY: `AesNi` is only ever stored after `aesni::available()`
        // returned true.
        return unsafe { aesni::encrypt_rekeyed(keys, planes) };
    }
    // Unfused: as many schedules at a time as fill the lanes of one
    // `encrypt_lanes_rk` group.
    let group_keys = MAX_LANES / P;
    for (group, keys) in keys.chunks(group_keys).enumerate() {
        let group = group * group_keys..group * group_keys + keys.len();
        let mut scheds = [[[0u8; 16]; 11]; MAX_LANES];
        for (sched, key) in scheds.iter_mut().zip(keys) {
            *sched = expand_key(backend, *key);
        }
        let mut refs = [&scheds[0]; MAX_LANES];
        let mut lanes = [Block::ZERO; MAX_LANES];
        let mut n = 0;
        for plane in &planes {
            for (k, &x) in plane[group.clone()].iter().enumerate() {
                (refs[n], lanes[n]) = (&scheds[k], x);
                n += 1;
            }
        }
        encrypt_lanes_rk(backend, &refs[..n], &mut lanes[..n]);
        let mut ciphertexts = lanes[..n].iter();
        for plane in &mut planes {
            for (x, &c) in plane[group.clone()].iter_mut().zip(&mut ciphertexts) {
                *x ^= c;
            }
        }
    }
}

/// Whether `backend` runs a re-keyed half-gate batch as one fused
/// kernel a side ([`garble_half_gates`], [`eval_half_gates`]): the
/// keys, the cipher and the half-gate XOR network in 512-bit registers,
/// on AES-NI where the CPU has VAES and AVX-512. Everywhere else the
/// batch is [`encrypt_rekeyed`] and the algebra around it.
pub(crate) fn fuses_half_gates(backend: AesBackend) -> bool {
    #[cfg(target_arch = "x86_64")]
    if backend == AesBackend::AesNi {
        return aesni::wide();
    }
    let _ = backend;
    false
}

/// Garbles `bases.len()` independent AND gates, at most eight, in one
/// fused pass: gate `i` has tweak base `bases[i]` and input zero labels
/// `a[i]`, `b[i]`; `labels[i]` receives its output zero label and
/// `tables[i]` its table — bit for bit `garble_and` over the re-keyed
/// hash.
///
/// # Panics
///
/// Panics unless [`fuses_half_gates`] holds for [`AesBackend::AesNi`],
/// on more than eight gates, or unless every slice holds one element
/// per gate.
pub(crate) fn garble_half_gates(
    delta: Block,
    bases: &[u64],
    a: &[Block],
    b: &[Block],
    labels: &mut [Block],
    tables: &mut [[Block; 2]],
) {
    #[cfg(target_arch = "x86_64")]
    if aesni::wide() {
        // SAFETY: `wide()` returned true just above; the kernel asserts
        // the slice lengths its masked loads and stores rely on.
        return unsafe { aesni::garble_batch512(delta, bases, a, b, labels, tables) };
    }
    let _ = (delta, bases, a, b, labels, tables);
    panic!("the fused half-gate kernels need VAES and AVX-512");
}

/// Evaluates `bases.len()` independent AND gates, at most eight, in one
/// fused pass: gate `i` has tweak base `bases[i]`, active input labels
/// `a[i]`, `b[i]` and table `tables[i]`; `labels[i]` receives its
/// active output label — bit for bit `eval_and` over the re-keyed hash.
///
/// # Panics
///
/// As [`garble_half_gates`].
pub(crate) fn eval_half_gates(
    bases: &[u64],
    a: &[Block],
    b: &[Block],
    tables: &[[Block; 2]],
    labels: &mut [Block],
) {
    #[cfg(target_arch = "x86_64")]
    if aesni::wide() {
        // SAFETY: as in `garble_half_gates`.
        return unsafe { aesni::eval_batch512(bases, a, b, tables, labels) };
    }
    let _ = (bases, a, b, tables, labels);
    panic!("the fused half-gate kernels need VAES and AVX-512");
}

/// Encrypts `blocks[i]` under `schedules[i]` in place, dispatching the
/// whole group to one backend kernel. Groups larger than [`MAX_LANES`]
/// are chunked.
pub(crate) fn encrypt_lanes_rk(
    backend: AesBackend,
    schedules: &[&RoundKeys],
    blocks: &mut [Block],
) {
    debug_assert_eq!(schedules.len(), blocks.len());
    match backend {
        #[cfg(target_arch = "x86_64")]
        AesBackend::AesNi => {
            for (sched_group, block_group) in
                schedules.chunks(MAX_LANES).zip(blocks.chunks_mut(MAX_LANES))
            {
                unsafe { aesni::encrypt_lanes(sched_group, block_group) };
            }
        }
        #[cfg(target_arch = "aarch64")]
        AesBackend::Neon => {
            for (sched_group, block_group) in
                schedules.chunks(MAX_LANES).zip(blocks.chunks_mut(MAX_LANES))
            {
                unsafe { neon::encrypt_lanes(sched_group, block_group) };
            }
        }
        _ => {
            for (sched, block) in schedules.iter().zip(blocks.iter_mut()) {
                *block = Block::from_bytes(portable::encrypt(sched, block.to_bytes()));
            }
        }
    }
}

/// Encrypts `blocks[i]` under `keys[i]` in place — the N-way batch the
/// re-keyed gate hash needs, where every lane carries a different key
/// schedule. Lanes are pipelined [`MAX_LANES`] at a time when all keys
/// share a hardware backend.
///
/// # Panics
///
/// Panics if `keys` and `blocks` lengths differ.
pub fn encrypt_lanes(keys: &[&Aes128], blocks: &mut [Block]) {
    assert_eq!(keys.len(), blocks.len(), "one key per block lane");
    if keys.is_empty() {
        return;
    }
    let backend = keys[0].backend;
    if keys.iter().all(|k| k.backend == backend) {
        let scheds: Vec<&RoundKeys> = keys.iter().map(|k| k.round_keys()).collect();
        encrypt_lanes_rk(backend, &scheds, blocks);
    } else {
        for (key, block) in keys.iter().zip(blocks.iter_mut()) {
            *block = key.encrypt_block(*block);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbox_spot_values() {
        let sb = sbox();
        assert_eq!(sb[0x00], 0x63);
        assert_eq!(sb[0x01], 0x7C);
        assert_eq!(sb[0x53], 0xED);
        assert_eq!(sb[0xFF], 0x16);
    }

    #[test]
    fn fips197_appendix_c1() {
        let key = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let pt = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        assert_eq!(Aes128::new(key).encrypt(pt), expected);
    }

    #[test]
    fn nist_sp800_38a_ecb_vector() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt = [
            0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
            0x17, 0x2a,
        ];
        let expected = [
            0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60, 0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66,
            0xef, 0x97,
        ];
        assert_eq!(Aes128::new(key).encrypt(pt), expected);
    }

    #[test]
    fn encrypt_is_deterministic_and_key_sensitive() {
        let k1 = Aes128::new([0u8; 16]);
        let k2 = Aes128::new([1u8; 16]);
        let block = [0x42u8; 16];
        assert_eq!(k1.encrypt(block), k1.encrypt(block));
        assert_ne!(k1.encrypt(block), k2.encrypt(block));
    }

    #[test]
    fn block_interface_matches_bytes() {
        let key = Block::from(0x0f0e0d0c0b0a09080706050403020100u128);
        let aes = Aes128::from_block(key);
        let pt = Block::from(0xffeeddccbbaa99887766554433221100u128);
        let ct = aes.encrypt_block(pt);
        // Same as the FIPS vector above, read little-endian.
        assert_eq!(
            ct.to_bytes(),
            [
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                0xc5, 0x5a
            ]
        );
    }

    #[test]
    fn portable_backend_is_always_available() {
        assert!(AesBackend::Portable.is_available());
        let aes = Aes128::with_backend([9u8; 16], AesBackend::Portable);
        assert_eq!(aes.backend(), AesBackend::Portable);
    }

    #[test]
    fn unavailable_backend_falls_back_to_portable() {
        // At most one hardware backend exists per architecture, so the
        // other always exercises the fallback.
        let missing =
            if cfg!(target_arch = "x86_64") { AesBackend::Neon } else { AesBackend::AesNi };
        let aes = Aes128::with_backend([3u8; 16], missing);
        assert_eq!(aes.backend(), AesBackend::Portable);
    }

    #[test]
    fn hardware_schedule_matches_portable_schedule() {
        for backend in AesBackend::ALL {
            if !backend.is_available() {
                continue;
            }
            let hw = Aes128::with_backend([0x5Au8; 16], backend);
            let sw = Aes128::with_backend([0x5Au8; 16], AesBackend::Portable);
            assert_eq!(hw.round_keys(), sw.round_keys(), "{}", backend.name());
        }
    }

    #[test]
    fn encrypt_blocks_matches_single_block_calls() {
        for backend in AesBackend::ALL {
            if !backend.is_available() {
                continue;
            }
            let aes = Aes128::with_backend([0x17u8; 16], backend);
            let mut batch: Vec<Block> = (0..21u128).map(Block::from).collect();
            let singles: Vec<Block> = batch.iter().map(|&b| aes.encrypt_block(b)).collect();
            aes.encrypt_blocks(&mut batch);
            assert_eq!(batch, singles, "{}", backend.name());
        }
    }

    #[test]
    fn encrypt_lanes_matches_per_key_encryption() {
        for backend in AesBackend::ALL {
            if !backend.is_available() {
                continue;
            }
            let keys: Vec<Aes128> =
                (0..13u8).map(|i| Aes128::with_backend([i; 16], backend)).collect();
            let key_refs: Vec<&Aes128> = keys.iter().collect();
            let mut batch: Vec<Block> = (100..113u128).map(Block::from).collect();
            let singles: Vec<Block> =
                keys.iter().zip(&batch).map(|(k, &b)| k.encrypt_block(b)).collect();
            encrypt_lanes(&key_refs, &mut batch);
            assert_eq!(batch, singles, "{}", backend.name());
        }
    }
    /// `AES_key(x) ⊕ x` by the portable schedule and rounds: what every
    /// width of the re-keyed kernel must leave in a lane.
    fn portable_rekeyed(key: [u8; 16], x: Block) -> Block {
        let sched = portable::expand_key(key);
        Block::from_bytes(portable::encrypt(&sched, x.to_bytes())) ^ x
    }

    /// Fresh keys as the gate hash makes them — a tweak in the low half
    /// — starting with the OT namespaces' bit 62 and bit 63 and all-ones.
    fn tweak_keys(n: usize) -> Vec<[u8; 16]> {
        use crate::hash::{OT_BASE_TWEAK, OT_EXT_TWEAK};
        let special = [OT_BASE_TWEAK | 5, OT_EXT_TWEAK | 9, u64::MAX, OT_EXT_TWEAK | OT_BASE_TWEAK];
        (0..n)
            .map(|k| special.get(k).copied().unwrap_or(0x9E37_79B9 * k as u64 + 1))
            .map(|tweak| Block::from(u128::from(tweak)).to_bytes())
            .collect()
    }

    const GUARDS: usize = 5;

    fn guard(i: usize) -> Block {
        Block::from(0xA5A5_A5A5_0000_0000_0000_0000_5A5A_5A5Au128 ^ ((i as u128) << 64))
    }

    /// `len` distinct blocks in the middle of a guard-patterned buffer.
    fn guarded_buffer(len: usize) -> Vec<Block> {
        let mut buffer: Vec<Block> = (0..len + 2 * GUARDS).map(guard).collect();
        for (i, x) in buffer[GUARDS..GUARDS + len].iter_mut().enumerate() {
            *x = Block::from((i as u128 + 1) * 0x0123_4567_89AB_CDEF_0F1E_2D3C_4B5A_6978);
        }
        buffer
    }

    fn assert_guards_intact(buffer: &[Block], context: &str) {
        let len = buffer.len() - 2 * GUARDS;
        for i in (0..GUARDS).chain(GUARDS + len..buffer.len()) {
            assert_eq!(buffer[i], guard(i), "{context}: a store landed on guard block {i}");
        }
    }

    /// Runs one re-keyed kernel on `P` planes of `n` blocks carved from
    /// the middle of a guarded buffer, against the portable oracle.
    fn check_rekeyed<const P: usize>(
        name: &str,
        n: usize,
        kernel: impl FnOnce(&[[u8; 16]], [&mut [Block]; P]),
    ) {
        let keys = tweak_keys(n);
        let mut buffer = guarded_buffer(P * n);
        let inputs = buffer[GUARDS..GUARDS + P * n].to_vec();
        let mut planes = buffer[GUARDS..GUARDS + P * n].chunks_mut(n.max(1));
        kernel(&keys, std::array::from_fn(|_| planes.next().unwrap_or_default()));
        let context = format!("{name} keys={n} per_key={P}");
        for (i, &x) in inputs.iter().enumerate() {
            let want = portable_rekeyed(keys[i % n], x);
            assert_eq!(buffer[GUARDS + i], want, "{context} lane={i}");
        }
        assert_guards_intact(&buffer, &context);
    }

    /// Every key count a gate batch can produce (1..=16, so every ragged
    /// last register), one and two labels a key, through the dispatching
    /// entry on every backend and through each AES-NI width called
    /// directly — a VAES box still covers the 128-bit shapes, and says
    /// so when it cannot cover the 512-bit ones.
    #[test]
    fn rekeyed_kernels_match_portable_at_every_width_and_key_count() {
        for n in 0..=MAX_REKEYED_KEYS {
            for backend in AesBackend::ALL.into_iter().filter(|b| b.is_available()) {
                check_rekeyed::<1>(backend.name(), n, |k, p| encrypt_rekeyed(backend, k, p));
                check_rekeyed::<2>(backend.name(), n, |k, p| encrypt_rekeyed(backend, k, p));
            }
        }
        #[cfg(target_arch = "x86_64")]
        if aesni::available() {
            for n in 1..=MAX_REKEYED_KEYS {
                // SAFETY: `available()` was checked just above.
                check_rekeyed::<1>("aesni 128-bit", n, |k, p| unsafe {
                    aesni::encrypt_rekeyed_narrow(k, p)
                });
                check_rekeyed::<2>("aesni 128-bit", n, |k, p| unsafe {
                    aesni::encrypt_rekeyed_narrow(k, p)
                });
            }
            eprintln!("aesni: the 128-bit re-keyed kernel was covered");
            if aesni::wide() {
                for n in 1..=MAX_REKEYED_KEYS {
                    // SAFETY: `wide()` was checked just above.
                    check_rekeyed::<1>("aesni 512-bit", n, |k, p| unsafe {
                        aesni::encrypt_rekeyed_wide(k, p)
                    });
                    check_rekeyed::<2>("aesni 512-bit", n, |k, p| unsafe {
                        aesni::encrypt_rekeyed_wide(k, p)
                    });
                }
                eprintln!("aesni: the 512-bit re-keyed kernel was covered");
            } else {
                eprintln!("aesni: the 512-bit kernels were SKIPPED (no vaes + avx512f + avx512bw)");
            }
        }
    }

    /// A label whose permute bit is `bit`.
    fn label_with_lsb(rng: &mut impl rand::Rng, bit: bool) -> Block {
        let x = Block::random(rng);
        x ^ Block::from(u128::from(x.lsb() != bit))
    }

    /// The fused half-gate kernels, called through the hash's fused
    /// entries (which dispatch on no width) at every batch size
    /// (k = 0..=8: every ragged register on both sides), against the
    /// composition — `garble_and` and `eval_and` on the portable backend
    /// — with every pair of permute bits at every k, tweak bases at 0
    /// and near 2³¹ and 2⁶¹, operands, labels and tables cut from the
    /// middle of guarded buffers, and the cipher work metered exactly.
    #[test]
    fn fused_half_gate_kernels_match_the_composition_at_every_batch_size() {
        use crate::block::Delta;
        use crate::evaluate::eval_and;
        use crate::garble::garble_and;
        use crate::hash::{CryptoCounters, GateHash};
        use rand::{rngs::StdRng, SeedableRng};

        if !fuses_half_gates(AesBackend::AesNi) {
            eprintln!(
                "aesni: the fused half-gate kernels were SKIPPED (no vaes + avx512f + avx512bw)"
            );
            return;
        }
        let fused = GateHash::with_backend(AesBackend::AesNi);
        let composition = GateHash::with_backend(AesBackend::Portable);
        let mut rng = StdRng::seed_from_u64(33);
        for start in [0u64, (1 << 31) - 3, (1 << 61) - 9] {
            for k in 0..=8usize {
                let (live, live_rows) = (GUARDS..GUARDS + k, GUARDS..GUARDS + 2 * k);
                let cost = |blocks| CryptoCounters {
                    key_expansions: 2 * k as u64,
                    aes_blocks: blocks * k as u64,
                };
                // Gate `i` of rotation `r` has the permute-bit pair
                // `(i + r) mod 4` on the garbler's side, and the
                // evaluator's active bits flip a fixed pattern of them.
                for rotation in 0..4 {
                    let context = format!("k={k} base={start} rotation={rotation}");
                    let delta = Delta::random(&mut rng);
                    let bases: Vec<u64> = (0..k as u64).map(|i| start + 3 * i).collect();
                    let (mut a, mut b) = (guarded_buffer(k), guarded_buffer(k));
                    for i in 0..k {
                        let pair = (i + rotation) % 4;
                        a[GUARDS + i] = label_with_lsb(&mut rng, pair & 1 == 1);
                        b[GUARDS + i] = label_with_lsb(&mut rng, pair & 2 == 2);
                    }
                    let (mut labels, mut rows) = (guarded_buffer(k), guarded_buffer(2 * k));
                    let before = fused.counters();
                    let (tables, _) = rows[live_rows.clone()].as_chunks_mut::<2>();
                    let (a0, b0) = (&a[live.clone()], &b[live.clone()]);
                    fused.garble_ands(
                        delta.block(),
                        &bases,
                        a0,
                        b0,
                        &mut labels[live.clone()],
                        tables,
                    );
                    assert_eq!(fused.counters().since(before), cost(4), "{context}: garbler");
                    let (tables, _) = rows[live_rows.clone()].as_chunks::<2>();
                    for i in 0..k {
                        let want = garble_and(&composition, delta, bases[i], a0[i], b0[i]);
                        assert_eq!((labels[GUARDS + i], tables[i]), want, "{context} gate={i}");
                    }
                    assert_guards_intact(&labels, &format!("{context}: garbled labels"));
                    assert_guards_intact(&rows, &format!("{context}: tables"));

                    let (mut wa, mut wb, mut out) = (a.clone(), b.clone(), guarded_buffer(k));
                    let bits: Vec<(bool, bool)> =
                        (0..k).map(|i| (i % 2 == 1, i % 3 == 0)).collect();
                    for (i, &(x, y)) in bits.iter().enumerate() {
                        wa[GUARDS + i] ^= delta.block().select(x);
                        wb[GUARDS + i] ^= delta.block().select(y);
                    }
                    let before = fused.counters();
                    let (wa, wb) = (&wa[live.clone()], &wb[live.clone()]);
                    fused.eval_ands(&bases, wa, wb, tables, &mut out[live.clone()]);
                    assert_eq!(fused.counters().since(before), cost(2), "{context}: evaluator");
                    for (i, &(x, y)) in bits.iter().enumerate() {
                        let want = eval_and(&composition, bases[i], wa[i], wb[i], &tables[i]);
                        assert_eq!(out[GUARDS + i], want, "{context} gate={i}");
                        let w0c = labels[GUARDS + i];
                        assert_eq!(want, w0c ^ delta.block().select(x && y), "{context} gate={i}");
                    }
                    assert_guards_intact(&out, &format!("{context}: evaluated labels"));
                    assert_guards_intact(&rows, &format!("{context}: tables read"));
                }
            }
        }
        eprintln!("aesni: the fused half-gate kernels were covered");
    }

    /// One key, many blocks: both AES-NI widths and the split between
    /// them equal the portable rounds at every length around a whole
    /// wide pass.
    #[test]
    fn encrypt_blocks_matches_portable_at_every_width() {
        let key = [0x3Cu8; 16];
        let sched = portable::expand_key(key);
        for backend in AesBackend::ALL.into_iter().filter(|b| b.is_available()) {
            let aes = Aes128::with_backend(key, backend);
            for len in [0usize, 1, 7, 8, 9, 31, 32, 33, 63, 64, 65, 100] {
                let mut buffer = guarded_buffer(len);
                let inputs = buffer[GUARDS..GUARDS + len].to_vec();
                aes.encrypt_blocks(&mut buffer[GUARDS..GUARDS + len]);
                let context = format!("{} len={len}", backend.name());
                for (i, x) in inputs.iter().enumerate() {
                    let want = Block::from_bytes(portable::encrypt(&sched, x.to_bytes()));
                    assert_eq!(buffer[GUARDS + i], want, "{context} block={i}");
                }
                assert_guards_intact(&buffer, &context);
            }
        }
        #[cfg(target_arch = "x86_64")]
        if aesni::available() {
            let mut narrow = guarded_buffer(100);
            let mut dispatched = narrow.clone();
            // SAFETY: `available()` was checked just above.
            unsafe {
                aesni::encrypt_blocks_narrow(&sched, &mut narrow[GUARDS..GUARDS + 100]);
                aesni::encrypt_blocks(&sched, &mut dispatched[GUARDS..GUARDS + 100]);
            }
            assert_eq!(narrow, dispatched, "the 128-bit shape alone equals the dispatched split");
        }
    }
}
