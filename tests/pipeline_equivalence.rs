//! The session layer's equivalence matrix: every VIP-Bench workload
//! must decode the plaintext reference on every transport at every
//! frame granularity, and the transport must not change the transcript.
//!
//! The matrix per workload:
//! - transport: in-process `MemChannel` and real TCP loopback;
//! - chunk sizes: 1, window/2, the full window, and a single chunk
//!   larger than the whole table stream.
//!
//! What the garbler drivers put on the wire is compared message by
//! message in `haac-runtime`'s session tests; below the session layer,
//! the slab garbler's chunks are compared here with the oracle
//! `haac_gc::garble` on the raw netlist.

use haac::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The four chunk granularities the suite sweeps for a workload.
fn chunk_sizes(config: &SessionConfig, and_gates: usize) -> [usize; 4] {
    [
        1,
        (config.window.half() as usize).max(2),
        (config.window.sww_wires() as usize).max(2),
        and_gates + 7, // strictly more tables than exist: one giant chunk
    ]
}

#[test]
fn tcp_loopback_matches_mem_channel_for_every_workload() {
    for kind in WorkloadKind::ALL {
        let w = build_workload(kind, Scale::Small);
        let seed = 0xBEEF + kind as u64;
        let base = SessionConfig::for_circuit(&w.circuit);
        for chunk in chunk_sizes(&base, w.circuit.num_and_gates()) {
            let name = format!("{} chunk={chunk}", kind.name());
            let config = base.clone().with_chunk_tables(chunk);
            let (g_tcp, e_tcp) =
                run_tcp_session(&w.circuit, &w.garbler_bits, &w.evaluator_bits, seed, &config)
                    .unwrap_or_else(|e| panic!("{name}: tcp session failed: {e}"));
            let (g_mem, e_mem) =
                run_local_session(&w.circuit, &w.garbler_bits, &w.evaluator_bits, seed, &config)
                    .unwrap();
            assert_eq!(g_tcp.outputs, w.expected, "{name}");
            assert_eq!(e_tcp.outputs, w.expected, "{name}");
            assert_eq!(e_mem.outputs, w.expected, "{name}");
            // The transcript must not depend on the transport.
            assert_eq!(g_tcp.bytes_sent, g_mem.bytes_sent, "{name}");
            assert_eq!(g_tcp.bytes_received, g_mem.bytes_received, "{name}");
            assert_eq!(g_tcp.table_chunks, g_mem.table_chunks, "{name}");
            assert_eq!(g_tcp.flushes, g_mem.flushes, "{name}");
            assert_eq!(e_tcp.tables, e_mem.tables, "{name}");
            // Within a party compute and I/O alternate: both are
            // metered, and neither hides the other.
            for report in [&g_tcp, &e_tcp] {
                assert!(report.compute_ns > 0, "{name}: unmetered compute");
                assert_eq!(report.overlap_ratio, 0.0, "{name}");
            }
        }
    }
}

#[test]
fn serial_tcp_session_still_agrees_with_plaintext() {
    let w = build_workload(WorkloadKind::Hamming, Scale::Small);
    let config = SessionConfig::for_circuit(&w.circuit)
        .with_chunk_tables((w.circuit.num_and_gates() / 4).max(1));
    let (g, e) =
        run_tcp_session(&w.circuit, &w.garbler_bits, &w.evaluator_bits, 4242, &config).unwrap();
    assert_eq!(g.outputs, w.expected);
    assert_eq!(e.outputs, w.expected);
    assert_eq!(g.overlap_ratio, 0.0);
    assert_eq!(e.overlap_ratio, 0.0);
}

#[test]
fn slab_garblers_stream_identical_tables_on_every_workload() {
    // The executor-level half of the acceptance bar, without any
    // transport: for all eight workloads the slab garbler's chunks are
    // each `min(chunk, remaining)` long and concatenate to the oracle's
    // tables, with the same decode string and cipher work, and the
    // plan's static peak equals the netlist's liveness peak.
    use haac_core::lower_for_streaming;
    use haac_gc::{Liveness, StreamingGarbler};

    const CHUNK: usize = 509;
    for kind in WorkloadKind::ALL {
        let w = build_workload(kind, Scale::Small);
        let plan = lower_for_streaming(&w.circuit);
        let mut rng1 = StdRng::seed_from_u64(7 + kind as u64);
        let mut rng2 = StdRng::seed_from_u64(7 + kind as u64);
        let oracle = garble(&w.circuit, &mut rng1, HashScheme::Rekeyed);
        let mut slab = StreamingGarbler::with_plan(&plan.program, &mut rng2, HashScheme::Rekeyed);
        assert_eq!(slab.delta(), oracle.delta, "{}", kind.name());
        let mut tables = Vec::with_capacity(slab.total_tables());
        while let Some(chunk) = slab.next_tables(CHUNK) {
            let remaining = oracle.garbled.tables.len() - tables.len();
            assert_eq!(chunk.len(), CHUNK.min(remaining), "{}", kind.name());
            tables.extend(chunk);
        }
        assert_eq!(tables, oracle.garbled.tables, "{}", kind.name());
        let sf = slab.finish();
        assert_eq!(sf.output_decode, oracle.garbled.output_decode, "{}", kind.name());
        assert_eq!(sf.crypto, oracle.crypto, "{}", kind.name());
        let liveness_peak = Liveness::analyze(&w.circuit).peak_live_wires(&w.circuit);
        assert_eq!(sf.peak_live_wires, liveness_peak, "{}", kind.name());
    }
}
