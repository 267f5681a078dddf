//! Cross-crate integration tests: every VIP workload, end to end.
//!
//! For each workload (small scale) this asserts the full equivalence
//! chain the paper's §5 "Correctness" methodology relies on:
//!
//!   independent plaintext reference
//!     == circuit plaintext evaluation
//!     == garble∘evaluate∘decode (direct, EMP-style)
//!     == garble∘evaluate∘decode through compiled HAAC streams,
//!        for every reorder strategy and several SWW sizes.

use haac::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn every_workload_circuit_matches_its_plaintext_reference() {
    for kind in WorkloadKind::ALL {
        let w = build_workload(kind, Scale::Small);
        let out = w
            .circuit
            .eval(&w.garbler_bits, &w.evaluator_bits)
            .expect("sample inputs fit the circuit");
        assert_eq!(out, w.expected, "{}", kind.name());
    }
}

#[test]
fn every_workload_garbles_and_evaluates_correctly() {
    let mut rng = StdRng::seed_from_u64(0xE2E);
    for kind in WorkloadKind::ALL {
        let w = build_workload(kind, Scale::Small);
        let garbling = garble(&w.circuit, &mut rng, HashScheme::Rekeyed);
        let inputs = garbling.encode_inputs(&w.circuit, &w.garbler_bits, &w.evaluator_bits);
        let out_labels =
            evaluate(&w.circuit, &garbling.garbled.tables, &inputs, HashScheme::Rekeyed);
        let got = decode_outputs(&out_labels, &garbling.garbled.output_decode);
        assert_eq!(got, w.expected, "{}", kind.name());
    }
}

#[test]
fn every_workload_survives_haac_compilation_at_multiple_sww_sizes() {
    let mut rng = StdRng::seed_from_u64(0xC0);
    for kind in WorkloadKind::ALL {
        let w = build_workload(kind, Scale::Small);
        for sww_wires in [64u32, 1024] {
            let window = WindowModel::new(sww_wires);
            for strategy in [ReorderKind::Baseline, ReorderKind::Segment, ReorderKind::Full] {
                let (lowered, _) = compile(&w.circuit, strategy, window);
                let got = run_gc_through_streams(
                    &lowered,
                    window,
                    &w.garbler_bits,
                    &w.evaluator_bits,
                    &mut rng,
                    HashScheme::Rekeyed,
                )
                .unwrap_or_else(|e| panic!("{} sww={sww_wires} {strategy:?}: {e}", kind.name()));
                assert_eq!(got, w.expected, "{} sww={sww_wires} {strategy:?}", kind.name());
            }
        }
    }
}

#[test]
fn every_workload_runs_the_two_party_protocol() {
    for kind in [WorkloadKind::DotProduct, WorkloadKind::Relu, WorkloadKind::Hamming] {
        let w = build_workload(kind, Scale::Small);
        let config = SessionConfig::for_circuit(&w.circuit);
        let (g, e) = run_local_session(&w.circuit, &w.garbler_bits, &w.evaluator_bits, 5, &config)
            .unwrap_or_else(|err| panic!("{}: {err}", kind.name()));
        assert_eq!(g.outputs, w.expected, "{}", kind.name());
        assert_eq!(e.outputs, w.expected, "{}", kind.name());
        assert!(g.bytes_sent > 0);
    }
}

#[test]
fn every_workload_simulates_on_the_default_accelerator() {
    let config = HaacConfig { num_ges: 4, sww_bytes: 16 * 1024, ..HaacConfig::default() };
    for kind in WorkloadKind::ALL {
        let w = build_workload(kind, Scale::Small);
        let (lowered, stats) = compile(&w.circuit, ReorderKind::Segment, config.window());
        let report = map_and_simulate(&lowered, &config);
        assert_eq!(report.instructions as usize, stats.instructions, "{}", kind.name());
        assert!(report.cycles > 0, "{}", kind.name());
        // An accelerator issuing ≤ num_ges instructions/cycle can't beat
        // the theoretical minimum.
        let min_cycles = (stats.instructions as u64) / (config.num_ges as u64 + 1);
        assert!(report.cycles >= min_cycles, "{}", kind.name());
    }
}
