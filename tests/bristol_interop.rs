//! Netlist-interchange integration tests: the Bristol path a real user
//! would take (EMP emits Bristol, HAAC consumes it).

use haac::circuit::{aes_circuit, bristol, opt};
use haac::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

#[test]
fn aes128_survives_bristol_roundtrip_with_fips_vector() {
    let circuit = aes_circuit::aes128_circuit().unwrap();
    let text = bristol::write(&circuit);
    let reparsed = bristol::parse(&text).unwrap();

    let key = aes_circuit::bytes_to_bits(&[
        0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e,
        0x0f,
    ]);
    let pt = aes_circuit::bytes_to_bits(&[
        0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee,
        0xff,
    ]);
    let out = reparsed.eval(&key, &pt).unwrap();
    assert_eq!(
        aes_circuit::bits_to_bytes(&out),
        vec![
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a
        ]
    );
}

#[test]
fn parsed_bristol_compiles_and_garbles_on_haac() {
    // A hand-written Bristol netlist: out = (g0 AND e0) XOR (NOT g1).
    let text = "3 7\n2 2 1\n\n2 1 0 2 4 AND\n1 1 1 5 INV\n2 1 4 5 6 XOR\n";
    let circuit = bristol::parse(text).unwrap();
    let window = WindowModel::new(8);
    let (plan, _) = compile(&circuit, ReorderKind::Full, window);
    let mut rng = StdRng::seed_from_u64(77);
    for bits in 0..16u32 {
        let g = vec![bits & 1 != 0, bits & 2 != 0];
        let e = vec![bits & 4 != 0, bits & 8 != 0];
        let expect = circuit.eval(&g, &e).unwrap();
        let got = run_gc_through_streams(&plan, &g, &e, &mut rng);
        assert_eq!(got, expect, "input pattern {bits:#06b}");
    }
}

#[test]
fn pruned_workload_still_verifies_end_to_end() {
    let w = build_workload(WorkloadKind::DotProduct, Scale::Small);
    let report = opt::prune(&w.circuit);
    let out = report.circuit.eval(&w.garbler_bits, &w.evaluator_bits).unwrap();
    assert_eq!(out, w.expected);
    // Workload generators are already lean; pruning must not grow them.
    assert!(report.circuit.num_gates() <= w.circuit.num_gates());
}
