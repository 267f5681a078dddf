//! Determinism and fault-injection tests.
//!
//! The paper's co-design depends on determinism ("performance is
//! deterministic", §6.2 — the compiler can pick the best schedule ahead
//! of time) and on the crypto failing *loudly* when streams are
//! corrupted. Both properties are load-bearing; both are pinned here.

use haac::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn simulation_is_bit_deterministic() {
    let w = build_workload(WorkloadKind::MatMult, Scale::Small);
    let config = HaacConfig { num_ges: 4, sww_bytes: 8192, ..HaacConfig::default() };
    let (plan, _) = compile(&w.circuit, ReorderKind::Full, config.window());
    let a = map_and_simulate(&plan, &config);
    let b = map_and_simulate(&plan, &config);
    assert_eq!(a, b, "two identical simulations must agree exactly");
}

#[test]
fn compilation_is_deterministic() {
    let w = build_workload(WorkloadKind::Mersenne, Scale::Small);
    let window = WindowModel::new(512);
    let (a, sa) = compile(&w.circuit, ReorderKind::Segment, window);
    let (b, sb) = compile(&w.circuit, ReorderKind::Segment, window);
    assert!(a.has_oor(), "the window must force far reads");
    assert_eq!(a, b);
    assert_eq!(sa, sb);
}

#[test]
fn same_seed_same_garbling_different_seed_different_labels() {
    let w = build_workload(WorkloadKind::Relu, Scale::Small);
    let g1 = garble(&w.circuit, &mut StdRng::seed_from_u64(1));
    let g2 = garble(&w.circuit, &mut StdRng::seed_from_u64(1));
    let g3 = garble(&w.circuit, &mut StdRng::seed_from_u64(2));
    assert_eq!(g1.garbled, g2.garbled);
    assert_ne!(g1.wire_zero_labels, g3.wire_zero_labels);
}

#[test]
fn wrong_input_label_corrupts_the_result() {
    // Feeding the evaluator a label that encodes the wrong bit must not
    // silently decode to the right answer.
    let mut b = Builder::new();
    let x = b.input_garbler(8);
    let y = b.input_evaluator(8);
    let (s, _) = b.add_words(&x, &y);
    let c = b.finish(s).unwrap();

    let mut rng = StdRng::seed_from_u64(9);
    let garbling = garble(&c, &mut rng);
    let g_bits = to_bits(100, 8);
    let e_bits = to_bits(23, 8);
    let mut labels = garbling.encode_inputs(&c, &g_bits, &e_bits);
    // Flip evaluator bit 0 by switching to the complementary label.
    labels[8] ^= garbling.delta.block();
    let out = evaluate(&c, &garbling.garbled.tables, &labels);
    let decoded = decode_outputs(&out, &garbling.garbled.output_decode);
    assert_eq!(from_bits(&decoded), 100 + 22, "flipped input bit must flip the sum's lsb");
}
