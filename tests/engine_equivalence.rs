//! A garbling made ahead of time (`garble_plan_in`, the bank's
//! producer) must be the online garbling run early: for every VIP-Bench
//! workload the transcript — Δ, the input labels, every garbled table,
//! the decode string, the cipher-work counters — is bit-identical to
//! the oracle `garble`, and on a plan with far reads to the streaming
//! garbler drained chunk by chunk.

use haac::core::lower::lower_with_window;
use haac::core::{ReorderKind, WindowModel};
use haac::gc::{
    baseline_plan, garble, garble_plan_in, EnginePool, Garbling, HashScheme, PlanGarbling,
    StreamingEvaluator, StreamingGarbler,
};
use haac::workloads::{build, Scale, WorkloadKind};
use rand::{rngs::StdRng, SeedableRng};

/// Everything an ahead-of-time garbling keeps or ships, against the
/// oracle's.
fn assert_matches_oracle(pooled: &PlanGarbling, oracle: &Garbling, context: &str) {
    assert_eq!(pooled.delta, oracle.delta, "{context}");
    assert_eq!(
        pooled.input_zero_labels,
        oracle.wire_zero_labels[..pooled.input_zero_labels.len()],
        "{context}"
    );
    assert_eq!(pooled.tables, oracle.garbled.tables, "{context}");
    assert_eq!(pooled.output_decode, oracle.garbled.output_decode, "{context}");
    assert_eq!(pooled.crypto, oracle.crypto, "{context}");
}

#[test]
fn multi_engine_transcripts_match_single_engine_on_all_workloads() {
    for kind in WorkloadKind::ALL {
        let w = build(kind, Scale::Small);
        let seed = 0xE26 ^ kind.name().len() as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let reference = garble(&w.circuit, &mut rng);

        let plan = baseline_plan(&w.circuit);
        let mut rng = StdRng::seed_from_u64(seed);
        let pooled = garble_plan_in(&plan, &mut rng, HashScheme::Rekeyed, &EnginePool::new(1));
        assert_matches_oracle(&pooled, &reference, kind.name());
    }
}

#[test]
fn parallel_garbling_still_evaluates_correctly() {
    // End-to-end sanity on one workload: a garbling made ahead of time
    // decodes to the plaintext reference through the oracle evaluator.
    let w = build(WorkloadKind::Hamming, Scale::Small);
    let mut rng = StdRng::seed_from_u64(77);
    let plan = baseline_plan(&w.circuit);
    let g = garble_plan_in(&plan, &mut rng, HashScheme::Rekeyed, &EnginePool::new(4));
    let inputs = g.encode_inputs(&w.garbler_bits, &w.evaluator_bits);
    let out = haac::gc::evaluate(&w.circuit, &g.tables, &inputs);
    let decoded = haac::gc::decode_outputs(&out, &g.output_decode);
    assert_eq!(decoded, w.expected);
}

#[test]
fn shared_pool_transcripts_match_single_engine_on_all_workloads() {
    // One persistent EnginePool is handed every VIP workload in turn —
    // the multi-session server's execution model — and each transcript
    // must still be bit-identical to the oracle's.
    let pool = EnginePool::new(4);
    for kind in WorkloadKind::ALL {
        let w = build(kind, Scale::Small);
        let seed = 0xE27 ^ kind.name().len() as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let reference = garble(&w.circuit, &mut rng);
        let mut rng = StdRng::seed_from_u64(seed);
        let pooled =
            garble_plan_in(&baseline_plan(&w.circuit), &mut rng, HashScheme::Rekeyed, &pool);
        assert_matches_oracle(&pooled, &reference, kind.name());
    }
}

#[test]
fn far_read_plans_garble_ahead_of_time_exactly_as_they_stream() {
    // A 256-label slab forces far reads on every workload: the drain
    // runs them through the OoRW store, as an online session does, and
    // must give the streaming garbler's transcript for the same seed.
    let pool = EnginePool::new(1);
    for kind in WorkloadKind::ALL {
        let w = build(kind, Scale::Small);
        let plan = lower_with_window(&w.circuit, ReorderKind::Segment, WindowModel::new(256));
        let program = &plan.program;
        assert!(program.has_oor(), "{}: 256 labels must force far reads", kind.name());
        let seed = 0xFA2 ^ kind.name().len() as u64;

        let mut rng = StdRng::seed_from_u64(seed);
        let mut online = StreamingGarbler::with_plan(program, &mut rng, HashScheme::Rekeyed);
        let delta = online.delta();
        let labels: Vec<_> =
            (0..program.num_inputs()).map(|wire| online.input_label_pair(wire).0).collect();
        let mut tables = Vec::new();
        while let Some(chunk) = online.next_tables(1000) {
            tables.extend(chunk);
        }
        let finish = online.finish();

        let mut rng = StdRng::seed_from_u64(seed);
        let early = garble_plan_in(program, &mut rng, HashScheme::Rekeyed, &pool);
        assert_eq!(early.delta, delta, "{}", kind.name());
        assert_eq!(early.input_zero_labels, labels, "{}", kind.name());
        assert_eq!(early.tables, tables, "{}", kind.name());
        assert_eq!(early.output_decode, finish.output_decode, "{}", kind.name());
        assert_eq!(early.crypto, finish.crypto, "{}", kind.name());

        let inputs = early.encode_inputs(&w.garbler_bits, &w.evaluator_bits);
        let mut evaluator = StreamingEvaluator::with_plan(program, inputs, HashScheme::Rekeyed);
        evaluator.feed(&early.tables);
        assert_eq!(evaluator.finish(&early.output_decode).outputs, w.expected, "{}", kind.name());
    }
}
