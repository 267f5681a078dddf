//! A garbling made ahead of time for the bank (`garble_plan_in`) must
//! be **wire-bit-identical** to the streaming slab path across all 8
//! VIP workloads × {Baseline, Full, Segment} reorders, and every
//! reorder must run end to end as a negotiated session.
//!
//! Every configuration shares one `SlotProgram` contract: the compiled
//! plan is the single artifact feeding the streaming executors, the
//! bank's producer, and (through the session layer) both protocol
//! parties.

use haac::core::{lower_with_reorder, ReorderKind};
use haac::gc::{garble_plan_in, EnginePool, HashScheme, StreamingEvaluator, StreamingGarbler};
use haac::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

const REORDERS: [ReorderKind; 3] = [ReorderKind::Baseline, ReorderKind::Full, ReorderKind::Segment];

#[test]
fn pooled_garbling_is_bit_identical_to_the_streaming_slab_path() {
    // One persistent pool, reused across every workload and reorder —
    // the server's execution model.
    let pool = EnginePool::new(2);
    for kind in WorkloadKind::ALL {
        let w = build_workload(kind, Scale::Small);
        for reorder in REORDERS {
            let plan = lower_with_reorder(&w.circuit, reorder);
            assert_eq!(plan.reorder, reorder);
            let seed = 0x90a + kind as u64 * 31 + reorder as u64;

            // Online reference: the streaming garbler run to completion.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut single =
                StreamingGarbler::with_plan(&plan.program, &mut rng, HashScheme::Rekeyed);
            let delta = single.delta();
            let mut reference = Vec::new();
            while let Some(chunk) = single.next_tables(1013) {
                reference.extend(chunk);
            }
            let finish = single.finish();

            let mut rng = StdRng::seed_from_u64(seed);
            let pooled = garble_plan_in(&plan.program, &mut rng, HashScheme::Rekeyed, &pool);
            let tag = format!("{} {:?}", kind.name(), reorder);
            assert_eq!(pooled.delta, delta, "{tag}");
            assert_eq!(pooled.tables, reference, "{tag}");
            assert_eq!(pooled.output_decode, finish.output_decode, "{tag}");
            assert_eq!(pooled.crypto, finish.crypto, "{tag}");
        }
    }
}

#[test]
fn pooled_reordered_garblings_evaluate_to_the_plaintext_reference() {
    // End-to-end: an ahead-of-time garbling under each reorder decodes
    // to the plaintext reference through the slab evaluator driven by
    // the same plan.
    let pool = EnginePool::new(4);
    for kind in [WorkloadKind::Hamming, WorkloadKind::DotProduct, WorkloadKind::Relu] {
        let w = build_workload(kind, Scale::Small);
        for reorder in REORDERS {
            let plan = lower_with_reorder(&w.circuit, reorder);
            let mut rng = StdRng::seed_from_u64(0xE2E + reorder as u64);
            let pooled = garble_plan_in(&plan.program, &mut rng, HashScheme::Rekeyed, &pool);
            let inputs = pooled.encode_inputs(&w.garbler_bits, &w.evaluator_bits);
            let mut evaluator =
                StreamingEvaluator::with_plan(&plan.program, inputs, HashScheme::Rekeyed);
            evaluator.feed(&pooled.tables);
            let finish = evaluator.finish(&pooled.output_decode);
            assert_eq!(finish.outputs, w.expected, "{} {:?}", kind.name(), reorder);
        }
    }
}

#[test]
fn reordered_sessions_run_end_to_end_with_negotiated_schedules() {
    // The tentpole's session half: real two-party sessions on the
    // ILP-friendly orders, both parties lowering from the negotiated
    // ReorderKind in the header.
    for kind in WorkloadKind::ALL {
        let w = build_workload(kind, Scale::Small);
        for reorder in REORDERS {
            let config = SessionConfig::for_circuit_with(&w.circuit, reorder);
            assert_eq!(config.reorder(), reorder);
            let (g, e) = run_local_session(
                &w.circuit,
                &w.garbler_bits,
                &w.evaluator_bits,
                0x5e55 + reorder as u64,
                &config,
            )
            .unwrap_or_else(|err| panic!("{} {:?}: {err}", kind.name(), reorder));
            assert_eq!(g.outputs, w.expected, "{} {:?}", kind.name(), reorder);
            assert_eq!(e.outputs, w.expected, "{} {:?}", kind.name(), reorder);
            assert_eq!(g.tables, w.circuit.num_and_gates() as u64);
            assert!(e.within_window, "{} {:?}", kind.name(), reorder);
        }
    }
}

#[test]
fn reorder_disagreement_is_a_typed_refusal_not_a_divergence() {
    use haac_runtime::{run_evaluator_with, run_garbler, MemChannel};

    let w = build_workload(WorkloadKind::DotProduct, Scale::Small);
    let garbler_config = SessionConfig::for_circuit_with(&w.circuit, ReorderKind::Full);
    let evaluator_config = SessionConfig::for_circuit_with(&w.circuit, ReorderKind::Segment);
    // The channel halves are *moved* into the threads so the refusing
    // side's hangup is visible to its peer.
    let (mut gc, mut ec) = MemChannel::pair();
    std::thread::scope(|scope| {
        let garbler = scope.spawn({
            let (w, config) = (&w, &garbler_config);
            move || {
                let mut rng = StdRng::seed_from_u64(1);
                run_garbler(&w.circuit, &w.garbler_bits, &mut rng, config, &mut gc)
            }
        });
        let evaluator = scope.spawn({
            let (w, config) = (&w, &evaluator_config);
            move || {
                let mut rng = StdRng::seed_from_u64(2);
                run_evaluator_with(&w.circuit, &w.evaluator_bits, &mut rng, config, &mut ec)
            }
        });
        let eval_err = evaluator.join().unwrap().unwrap_err();
        assert!(eval_err.to_string().contains("reorder mismatch"), "{eval_err}");
        // The garbler sees the hangup, not a hung stream.
        assert!(garbler.join().unwrap().is_err());
    });
}
