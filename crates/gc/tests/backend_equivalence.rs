//! Backend-equivalence suite: every compiled AES backend must agree
//! with the portable reference bit-for-bit — on FIPS-197 known-answer
//! vectors and key schedules, on 10k random (key, block) pairs, through
//! the batched APIs and both gate shapes of the gate hash at every
//! tweak count, and through whole garbling transcripts.

use haac_gc::aes::{active_backend, encrypt_lanes, Aes128, AesBackend};
use haac_gc::{
    eval_and, eval_and_batch, garble, garble_and, garble_and_batch, Block, CryptoCounters, Delta,
    GateHash, MAX_AND_BATCH,
};
use rand::{rngs::StdRng, SeedableRng};

fn available_backends() -> Vec<AesBackend> {
    AesBackend::ALL.iter().copied().filter(|b| b.is_available()).collect()
}

/// FIPS-197 Appendix C.1 and NIST SP 800-38A F.1.1 known answers, run
/// against every backend that compiled and is runnable on this CPU.
#[test]
fn fips_known_answers_on_every_backend() {
    let vectors: [([u8; 16], [u8; 16], [u8; 16]); 2] = [
        (
            [
                0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
                0x0e, 0x0f,
            ],
            [
                0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
                0xee, 0xff,
            ],
            [
                0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
                0xc5, 0x5a,
            ],
        ),
        (
            [
                0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
                0x4f, 0x3c,
            ],
            [
                0x6b, 0xc1, 0xbe, 0xe2, 0x2e, 0x40, 0x9f, 0x96, 0xe9, 0x3d, 0x7e, 0x11, 0x73, 0x93,
                0x17, 0x2a,
            ],
            [
                0x3a, 0xd7, 0x7b, 0xb4, 0x0d, 0x7a, 0x36, 0x60, 0xa8, 0x9e, 0xca, 0xf3, 0x24, 0x66,
                0xef, 0x97,
            ],
        ),
    ];
    for backend in available_backends() {
        for (key, pt, expect) in vectors {
            let aes = Aes128::with_backend(key, backend);
            assert_eq!(aes.encrypt(pt), expect, "KAT failed on {}", backend.name());
        }
    }
}

/// All eleven round keys of the FIPS-197 Appendix A.1 key expansion, on
/// every backend's schedule.
#[test]
fn fips197_a1_key_schedule_on_every_backend() {
    const KEY: u128 = 0x2b7e151628aed2a6abf7158809cf4f3c;
    const ROUND_KEYS: [u128; 11] = [
        KEY,
        0xa0fafe1788542cb123a339392a6c7605,
        0xf2c295f27a96b9435935807a7359f67f,
        0x3d80477d4716fe3e1e237e446d7a883b,
        0xef44a541a8525b7fb671253bdb0bad00,
        0xd4d1c6f87c839d87caf2b8bc11f915bc,
        0x6d88a37a110b3efddbf98641ca0093fd,
        0x4e54f70e5f5fc9f384a64fb24ea6dc4f,
        0xead27321b58dbad2312bf5607f8d292f,
        0xac7766f319fadc2128d12941575c006e,
        0xd014f9a8c9ee2589e13f0cc8b6630ca6,
    ];
    for backend in available_backends() {
        let aes = Aes128::with_backend(KEY.to_be_bytes(), backend);
        for (round, (got, want)) in aes.round_keys().iter().zip(ROUND_KEYS).enumerate() {
            assert_eq!(*got, want.to_be_bytes(), "{} round key {round}", backend.name());
        }
    }
}

/// 10k random keys: every hardware schedule equals the portable one.
#[test]
fn hardware_schedule_matches_portable_on_10k_random_keys() {
    let mut rng = StdRng::seed_from_u64(0x5C4ED);
    for backend in available_backends() {
        if backend == AesBackend::Portable {
            continue;
        }
        for i in 0..10_000u32 {
            let key = Block::random(&mut rng).to_bytes();
            assert_eq!(
                Aes128::with_backend(key, backend).round_keys(),
                Aes128::with_backend(key, AesBackend::Portable).round_keys(),
                "{} diverged on key {i}",
                backend.name()
            );
        }
    }
}

/// 10k random (key, block) pairs: hardware encryption equals portable.
#[test]
fn hardware_matches_portable_on_10k_random_blocks() {
    let mut rng = StdRng::seed_from_u64(0xAE5);
    for backend in available_backends() {
        if backend == AesBackend::Portable {
            continue;
        }
        for i in 0..10_000u32 {
            let key = Block::random(&mut rng).to_bytes();
            let block = Block::random(&mut rng);
            let hw = Aes128::with_backend(key, backend);
            let sw = Aes128::with_backend(key, AesBackend::Portable);
            assert_eq!(
                hw.encrypt_block(block),
                sw.encrypt_block(block),
                "{} diverged on iteration {i}",
                backend.name()
            );
        }
    }
}

/// The batch entry points agree with single-block encryption across
/// backends, including ragged lengths around the lane width.
#[test]
fn batched_encryption_matches_singles_on_every_backend() {
    let mut rng = StdRng::seed_from_u64(0xBA7C);
    for backend in available_backends() {
        for len in [1usize, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 64] {
            let keys: Vec<Aes128> = (0..len)
                .map(|_| Aes128::with_backend(Block::random(&mut rng).to_bytes(), backend))
                .collect();
            let mut blocks: Vec<Block> = (0..len).map(|_| Block::random(&mut rng)).collect();
            let expected: Vec<Block> =
                keys.iter().zip(&blocks).map(|(k, &b)| k.encrypt_block(b)).collect();
            let key_refs: Vec<&Aes128> = keys.iter().collect();
            encrypt_lanes(&key_refs, &mut blocks);
            assert_eq!(blocks, expected, "{} len={len}", backend.name());

            // Same-key batch too.
            let one_key = keys[0];
            let mut same: Vec<Block> = (0..len).map(|_| Block::random(&mut rng)).collect();
            let expected: Vec<Block> = same.iter().map(|&b| one_key.encrypt_block(b)).collect();
            one_key.encrypt_blocks(&mut same);
            assert_eq!(same, expected, "{} same-key len={len}", backend.name());
        }
    }
}

/// `GateHash::hash_batch` equals per-lane `hash` on every backend, for
/// every tweak count up to two and a half kernel calls
/// and both gate shapes (one label a tweak, two labels a tweak as two
/// planes) — and meters exactly one key expansion per tweak, whatever
/// padding the kernel adds to a ragged last register.
#[test]
fn gate_hash_batches_match_sequential_on_every_backend() {
    let mut rng = StdRng::seed_from_u64(0x6A7E);
    for backend in available_backends() {
        let h = GateHash::with_backend(backend);
        for per_key in [1u64, 2] {
            for n in 0..=40u64 {
                let xs: Vec<Block> = (0..per_key * n).map(|_| Block::random(&mut rng)).collect();
                // Gate tweaks, then the OT namespaces' high bits.
                let tweaks: Vec<u64> = (0..n).map(|k| (k % 3) << 62 | (7 * k + n)).collect();
                let mut out = xs.clone();
                let before = h.counters();
                h.hash_batch(&tweaks, &mut out);
                let cost = h.counters().since(before);
                let context = format!("{} per_key={per_key} n={n}", backend.name());
                assert_eq!(
                    cost,
                    CryptoCounters { key_expansions: n, aes_blocks: per_key * n },
                    "{context}"
                );
                for (i, &x) in xs.iter().enumerate() {
                    let tweak = tweaks[i % n as usize];
                    assert_eq!(out[i], h.hash(x, tweak), "{context} lane={i}");
                }
            }
        }
        let (x0, x1) = (Block::random(&mut rng), Block::random(&mut rng));
        assert_eq!(h.pair(x0, x1, 77), (h.hash(x0, 77), h.hash(x1, 77)));
    }
}

/// Every batch size, tweak bases at the bottom, the middle
/// and the top of the gate-tweak range (`2·base + 1 < 2⁶²`): a batched
/// half-gate is its per-gate form bit for bit, garbling and evaluating,
/// and costs exactly two expansions an AND — four blocks garbling, two
/// evaluating — so the lanes that pad a ragged batch are never metered.
#[test]
fn and_batches_match_per_gate_calls_with_exact_counters() {
    let mut rng = StdRng::seed_from_u64(0xBA7C_0023);
    let delta = Delta::random(&mut rng);
    for backend in available_backends() {
        let h = GateHash::with_backend(backend);
        for base in [0u64, (1 << 31) - 3, (1 << 61) - 9] {
            for k in 1..=MAX_AND_BATCH {
                let context = format!("{} base={base} k={k}", backend.name());
                let gates: Vec<(u64, Block, Block)> = (0..k as u64)
                    .map(|i| (base + i, Block::random(&mut rng), Block::random(&mut rng)))
                    .collect();

                let mut garbled = vec![(Block::ZERO, [Block::ZERO; 2]); k];
                let before = h.counters();
                garble_and_batch(&h, delta, &gates, &mut garbled);
                assert_eq!(
                    h.counters().since(before),
                    CryptoCounters { key_expansions: 2 * k as u64, aes_blocks: 4 * k as u64 },
                    "{context} garbling"
                );
                for (&(t, a, b), got) in gates.iter().zip(&garbled) {
                    assert_eq!(*got, garble_and(&h, delta, t, a, b), "{context} gate {t}");
                }

                let tables: Vec<[Block; 2]> = garbled.iter().map(|&(_, t)| t).collect();
                let mut labels = vec![Block::ZERO; k];
                let before = h.counters();
                eval_and_batch(&h, &gates, &tables, &mut labels);
                assert_eq!(
                    h.counters().since(before),
                    CryptoCounters { key_expansions: 2 * k as u64, aes_blocks: 2 * k as u64 },
                    "{context} evaluating"
                );
                for ((&(t, a, b), table), got) in gates.iter().zip(&tables).zip(&labels) {
                    assert_eq!(*got, eval_and(&h, t, a, b, table), "{context} gate {t}");
                }
            }
        }
    }
}

/// Batched half-gates of every batch size are bit-identical between each
/// backend and the portable reference, garbling and evaluating.
#[test]
fn and_batches_are_backend_independent() {
    let mut rng = StdRng::seed_from_u64(0xBA7C4);
    let delta = Delta::random(&mut rng);
    let reference = GateHash::with_backend(AesBackend::Portable);
    for backend in available_backends() {
        let h = GateHash::with_backend(backend);
        for k in 1..=MAX_AND_BATCH {
            let gates: Vec<(u64, Block, Block)> = (0..k as u64)
                .map(|i| (1000 * k as u64 + i, Block::random(&mut rng), Block::random(&mut rng)))
                .collect();
            let mut garbled = vec![(Block::ZERO, [Block::ZERO; 2]); k];
            let mut expected = garbled.clone();
            garble_and_batch(&h, delta, &gates, &mut garbled);
            garble_and_batch(&reference, delta, &gates, &mut expected);
            assert_eq!(garbled, expected, "{} garble k={k}", backend.name());

            let tables: Vec<[Block; 2]> = garbled.iter().map(|&(_, table)| table).collect();
            let mut labels = vec![Block::ZERO; k];
            let mut expected = labels.clone();
            eval_and_batch(&h, &gates, &tables, &mut labels);
            eval_and_batch(&reference, &gates, &tables, &mut expected);
            assert_eq!(labels, expected, "{} evaluate k={k}", backend.name());
        }
    }
}

/// A hardware-garbled AND gate is bit-identical to a portable-garbled
/// one: the garbled tables leaving this machine do not depend on which
/// backend produced them.
#[test]
fn garbled_tables_are_backend_independent() {
    let mut rng = StdRng::seed_from_u64(0x7AB1);
    let delta = Delta::random(&mut rng);
    let reference = GateHash::with_backend(AesBackend::Portable);
    for backend in available_backends() {
        let h = GateHash::with_backend(backend);
        for i in 0..200u64 {
            let a = Block::random(&mut rng);
            let b = Block::random(&mut rng);
            // Re-seed per gate so both hashes see identical labels.
            assert_eq!(
                garble_and(&h, delta, i, a, b),
                garble_and(&reference, delta, i, a, b),
                "{} gate {i}",
                backend.name()
            );
        }
    }
}

/// A whole garbling transcript does not depend on the backend: every
/// table the active (possibly hardware) backend emitted is reproduced
/// by re-hashing the same labels with the portable backend.
#[test]
fn whole_circuit_garbling_is_backend_independent() {
    use haac_circuit::{Builder, GateOp};
    let mut b = Builder::new();
    let x = b.input_garbler(16);
    let y = b.input_evaluator(16);
    let p = b.mul_words_trunc(&x, &y);
    let c = b.finish(p).unwrap();

    let mut rng = StdRng::seed_from_u64(9);
    let active = garble(&c, &mut rng);
    assert!(active_backend().is_available());

    let portable_hash = GateHash::with_backend(AesBackend::Portable);
    let mut next_table = 0usize;
    for (i, gate) in c.gates().iter().enumerate() {
        if gate.op != GateOp::And {
            continue;
        }
        let zero_a = active.wire_zero_labels[gate.a as usize];
        let zero_b = active.wire_zero_labels[gate.b as usize];
        let (w0c, table) = garble_and(&portable_hash, active.delta, i as u64, zero_a, zero_b);
        assert_eq!(table, active.garbled.tables[next_table], "gate {i}");
        assert_eq!(w0c, active.wire_zero_labels[gate.out as usize], "gate {i}");
        next_table += 1;
    }
    assert_eq!(next_table, active.garbled.tables.len());
}
