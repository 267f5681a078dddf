//! Streaming ≡ monolithic: the runtime's streamed two-party sessions
//! must produce bit-identical results to the monolithic
//! `garble()`/`evaluate()` path for every VIP-Bench workload — while the
//! evaluator's live-wire memory stays bounded by the sliding-wire-window
//! size, not the circuit size.

use haac::prelude::*;
use haac_gc::stream::Liveness;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Monolithic reference: garble everything, evaluate everything.
fn monolithic_outputs(w: &haac::workloads::Workload, seed: u64) -> Vec<bool> {
    let mut rng = StdRng::seed_from_u64(seed);
    let garbling = garble(&w.circuit, &mut rng);
    let inputs = garbling.encode_inputs(&w.circuit, &w.garbler_bits, &w.evaluator_bits);
    let out = evaluate(&w.circuit, &garbling.garbled.tables, &inputs);
    decode_outputs(&out, &garbling.garbled.output_decode)
}

#[test]
fn every_workload_streams_identically_to_monolithic() {
    for kind in WorkloadKind::ALL {
        let seed = 0xCAFE + kind as u64;
        let w = build_workload(kind, Scale::Small);
        let reference = monolithic_outputs(&w, seed);
        assert_eq!(reference, w.expected, "{}: monolithic GC vs plaintext", kind.name());

        let config = SessionConfig::for_circuit(&w.circuit);
        let (garbler, evaluator) =
            run_local_session(&w.circuit, &w.garbler_bits, &w.evaluator_bits, seed, &config)
                .unwrap_or_else(|e| panic!("{}: session failed: {e}", kind.name()));

        // Bit-identical to the monolithic path (same seed ⇒ same garbling).
        assert_eq!(garbler.outputs, reference, "{}: streamed vs monolithic", kind.name());
        assert_eq!(evaluator.outputs, reference, "{}: evaluator copy", kind.name());

        // All tables arrived, in window-sized chunks.
        assert_eq!(garbler.tables, w.circuit.num_and_gates() as u64, "{}", kind.name());
        assert_eq!(garbler.table_chunks, evaluator.table_chunks, "{}", kind.name());

        // The streaming discipline held: peak live wires fit the window,
        // and the window is a genuine bound (not circuit-sized).
        let window_wires = config.plan.window.sww_wires() as usize;
        assert!(
            evaluator.peak_live_wires <= window_wires,
            "{}: peak {} exceeds window {}",
            kind.name(),
            evaluator.peak_live_wires,
            window_wires
        );
        assert!(evaluator.within_window, "{}", kind.name());
        assert!(
            evaluator.peak_live_wires < w.circuit.num_wires() as usize,
            "{}: streaming held the whole wire space ({} of {})",
            kind.name(),
            evaluator.peak_live_wires,
            w.circuit.num_wires()
        );
    }
}

#[test]
fn workload_windows_are_much_smaller_than_circuits() {
    // The quantitative version of "O(window), not O(circuit)": across the
    // suite, the streamed evaluator's live set must be a small fraction
    // of the wire space for the big circuits.
    for kind in WorkloadKind::ALL {
        let w = build_workload(kind, Scale::Small);
        let peak = Liveness::analyze(&w.circuit).peak_live_wires(&w.circuit);
        let wires = w.circuit.num_wires() as usize;
        assert!(peak <= wires, "{}", kind.name());
        if wires > 50_000 {
            // Mersenne legitimately keeps its whole 624-word twister state
            // live, so the factor is conservative; most workloads are far
            // below it.
            assert!(
                peak * 2 <= wires,
                "{}: peak {peak} not ≪ {wires} wires — streaming buys nothing",
                kind.name()
            );
        }
    }
}

#[test]
fn streamed_chunk_sizing_follows_the_window_model() {
    let w = build_workload(WorkloadKind::DotProduct, Scale::Small);
    let config = SessionConfig::for_circuit(&w.circuit);
    let (garbler, _) =
        run_local_session(&w.circuit, &w.garbler_bits, &w.evaluator_bits, 5, &config).unwrap();
    let chunk = config.chunk_tables() as u64;
    let expected_chunks = garbler.tables.div_ceil(chunk);
    assert_eq!(garbler.table_chunks, expected_chunks);
}

#[test]
fn tcp_loopback_session_runs_a_workload() {
    let w = build_workload(WorkloadKind::Hamming, Scale::Small);
    let config = SessionConfig::for_circuit(&w.circuit);
    let (garbler, evaluator) =
        run_tcp_session(&w.circuit, &w.garbler_bits, &w.evaluator_bits, 10, &config)
            .expect("tcp session");

    assert_eq!(garbler.outputs, w.expected);
    assert_eq!(evaluator.outputs, w.expected);
    assert_eq!(garbler.bytes_sent, evaluator.bytes_received);
    assert_eq!(evaluator.bytes_sent, garbler.bytes_received);
    assert!(evaluator.within_window);
}

#[test]
fn mem_and_tcp_channels_carry_identical_protocol_bytes() {
    // Same circuit, same seeds ⇒ the transcript must not depend on the
    // transport.
    let w = build_workload(WorkloadKind::Relu, Scale::Small);
    let config = SessionConfig::for_circuit(&w.circuit);
    let (mem_garbler, _) =
        run_local_session(&w.circuit, &w.garbler_bits, &w.evaluator_bits, 42, &config).unwrap();
    let (tcp_garbler, _) =
        run_tcp_session(&w.circuit, &w.garbler_bits, &w.evaluator_bits, 42, &config).unwrap();

    assert_eq!(mem_garbler.outputs, tcp_garbler.outputs);
    assert_eq!(mem_garbler.bytes_sent, tcp_garbler.bytes_sent);
    assert_eq!(mem_garbler.bytes_received, tcp_garbler.bytes_received);
    assert_eq!(mem_garbler.table_chunks, tcp_garbler.table_chunks);
}
