//! Multi-engine garbling must be a pure throughput optimization: for
//! every VIP-Bench workload and any engine count, the transcript —
//! Δ, the input labels, every garbled table, the decode string, the
//! cipher-work counters — is bit-identical to the oracle `garble`,
//! exactly as HAAC's parallel gate engines are architecturally
//! invisible to the evaluator.

use haac::gc::{
    baseline_plan, garble, garble_plan_in, EnginePool, Garbling, HashScheme, PlanGarbling,
};
use haac::workloads::{build, Scale, WorkloadKind};
use rand::{rngs::StdRng, SeedableRng};

/// Everything a pooled garbling keeps or ships, against the oracle's.
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
        let reference = garble(&w.circuit, &mut rng, HashScheme::Rekeyed);

        let plan = baseline_plan(&w.circuit);
        for engines in [1usize, 4] {
            let mut rng = StdRng::seed_from_u64(seed);
            let pooled =
                garble_plan_in(&plan, &mut rng, HashScheme::Rekeyed, &EnginePool::new(engines));
            assert_matches_oracle(&pooled, &reference, &format!("{} e={engines}", kind.name()));
        }
    }
}

#[test]
fn parallel_garbling_still_evaluates_correctly() {
    // End-to-end sanity on one workload: a pool-garbled circuit decodes
    // to the plaintext reference through the oracle evaluator.
    let w = build(WorkloadKind::Hamming, Scale::Small);
    let mut rng = StdRng::seed_from_u64(77);
    let plan = baseline_plan(&w.circuit);
    let g = garble_plan_in(&plan, &mut rng, HashScheme::Rekeyed, &EnginePool::new(4));
    let inputs = g.encode_inputs(&w.garbler_bits, &w.evaluator_bits);
    let out = haac::gc::evaluate(&w.circuit, &g.tables, &inputs, HashScheme::Rekeyed);
    let decoded = haac::gc::decode_outputs(&out, &g.output_decode);
    assert_eq!(decoded, w.expected);
}

#[test]
fn shared_pool_transcripts_match_single_engine_on_all_workloads() {
    // One persistent EnginePool garbles every VIP workload in turn —
    // the multi-session server's execution model — and each transcript
    // must still be bit-identical to the oracle's. The slice length
    // comes from each plan's static window bound: no per-call sizing.
    let pool = EnginePool::new(4);
    for kind in WorkloadKind::ALL {
        let w = build(kind, Scale::Small);
        let seed = 0xE27 ^ kind.name().len() as u64;
        let mut rng = StdRng::seed_from_u64(seed);
        let reference = garble(&w.circuit, &mut rng, HashScheme::Rekeyed);
        let mut rng = StdRng::seed_from_u64(seed);
        let pooled =
            garble_plan_in(&baseline_plan(&w.circuit), &mut rng, HashScheme::Rekeyed, &pool);
        assert_matches_oracle(&pooled, &reference, kind.name());
    }
}
