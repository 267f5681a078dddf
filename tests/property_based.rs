//! Property-based tests over the whole stack (proptest).
//!
//! These check the core invariants on randomly generated values and
//! randomly generated circuits:
//!
//! - builder word ops match native u64 arithmetic;
//! - FP32 circuits match the reference semantics bit-for-bit;
//! - garble∘evaluate∘decode == plaintext on random DAG circuits;
//! - compiled plans (reorder/rename/far-read routing under the sliding
//!   SWW) preserve semantics at arbitrary SWW sizes;
//! - the slab executors stream the natural plan's transcript at any
//!   slab window, through the statically slotted OoRW store;
//! - the SWW window math satisfies its residency contract.

use haac::circuit::float::{fp32_add_ref, fp32_canon, fp32_mul_ref};
use haac::prelude::*;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// Builds a random but well-formed circuit from a script of gate picks.
fn random_circuit(script: &[(u8, u16, u16)], inputs: u32) -> Circuit {
    let mut b = Builder::new();
    let g = b.input_garbler(inputs / 2);
    let e = b.input_evaluator(inputs - inputs / 2);
    let mut pool: Vec<Bit> = g.into_iter().chain(e).collect();
    for &(op, i, j) in script {
        let x = pool[i as usize % pool.len()];
        let y = pool[j as usize % pool.len()];
        let out = match op % 4 {
            0 => b.and(x, y),
            1 => b.xor(x, y),
            2 => b.not(x),
            _ => b.mux(x, y, pool[(i as usize + 1) % pool.len()]),
        };
        pool.push(out);
    }
    let n = pool.len();
    let outputs: Vec<Bit> = pool.into_iter().skip(n.saturating_sub(8)).collect();
    b.finish(outputs).expect("random circuit is valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn adder_matches_u64(x in any::<u32>(), y in any::<u32>()) {
        let mut b = Builder::new();
        let xs = b.input_garbler(32);
        let ys = b.input_evaluator(32);
        let (s, carry) = b.add_words(&xs, &ys);
        let mut out = s;
        out.push(carry);
        let c = b.finish(out).unwrap();
        let bits = c.eval(&to_bits(x as u64, 32), &to_bits(y as u64, 32)).unwrap();
        prop_assert_eq!(from_bits(&bits), x as u64 + y as u64);
    }

    #[test]
    fn multiplier_matches_u64(x in any::<u32>(), y in any::<u32>()) {
        let mut b = Builder::new();
        let xs = b.input_garbler(32);
        let ys = b.input_evaluator(32);
        let p = b.mul_words(&xs, &ys);
        let c = b.finish(p).unwrap();
        let bits = c.eval(&to_bits(x as u64, 32), &to_bits(y as u64, 32)).unwrap();
        prop_assert_eq!(from_bits(&bits), x as u64 * y as u64);
    }

    #[test]
    fn divider_matches_u64(x in any::<u16>(), y in 1u16..) {
        let mut b = Builder::new();
        let xs = b.input_garbler(16);
        let ys = b.input_evaluator(16);
        let (q, r) = b.udivmod(&xs, &ys);
        let mut out = q;
        out.extend(r);
        let c = b.finish(out).unwrap();
        let bits = c.eval(&to_bits(x as u64, 16), &to_bits(y as u64, 16)).unwrap();
        let got_q = from_bits(&bits[..16]);
        let got_r = from_bits(&bits[16..]);
        prop_assert_eq!((got_q, got_r), ((x / y) as u64, (x % y) as u64));
    }

    #[test]
    fn fp32_add_circuit_matches_reference(a in any::<f32>(), b_val in any::<f32>()) {
        let (ab, bb) = (fp32_canon(a), fp32_canon(b_val));
        // NaN/Inf are outside the documented domain.
        prop_assume!(f32::from_bits(ab).is_finite() && f32::from_bits(bb).is_finite());
        let mut b = Builder::new();
        let xs = b.input_garbler(32);
        let ys = b.input_evaluator(32);
        let s = b.fp_add(&xs, &ys);
        let c = b.finish(s).unwrap();
        let bits = c.eval(&to_bits(ab as u64, 32), &to_bits(bb as u64, 32)).unwrap();
        prop_assert_eq!(from_bits(&bits) as u32, fp32_add_ref(ab, bb));
    }

    #[test]
    fn fp32_mul_circuit_matches_reference(a in any::<f32>(), b_val in any::<f32>()) {
        let (ab, bb) = (fp32_canon(a), fp32_canon(b_val));
        prop_assume!(f32::from_bits(ab).is_finite() && f32::from_bits(bb).is_finite());
        let mut b = Builder::new();
        let xs = b.input_garbler(32);
        let ys = b.input_evaluator(32);
        let p = b.fp_mul(&xs, &ys);
        let c = b.finish(p).unwrap();
        let bits = c.eval(&to_bits(ab as u64, 32), &to_bits(bb as u64, 32)).unwrap();
        prop_assert_eq!(from_bits(&bits) as u32, fp32_mul_ref(ab, bb));
    }

    #[test]
    fn gc_matches_plaintext_on_random_circuits(
        script in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..120),
        inputs in 2u32..24,
        seed in any::<u64>(),
        g_word in any::<u64>(),
        e_word in any::<u64>(),
    ) {
        let c = random_circuit(&script, inputs);
        let g_bits = to_bits(g_word, c.garbler_inputs());
        let e_bits = to_bits(e_word, c.evaluator_inputs());
        let expect = c.eval(&g_bits, &e_bits).unwrap();

        let mut rng = StdRng::seed_from_u64(seed);
        let garbling = garble(&c, &mut rng);
        let labels = garbling.encode_inputs(&c, &g_bits, &e_bits);
        let out = evaluate(&c, &garbling.garbled.tables, &labels);
        prop_assert_eq!(decode_outputs(&out, &garbling.garbled.output_decode), expect);
    }

    #[test]
    fn compiler_preserves_semantics_on_random_circuits(
        script in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..100),
        inputs in 2u32..16,
        sww in 2u32..64,
        seed in any::<u64>(),
        g_word in any::<u64>(),
        e_word in any::<u64>(),
    ) {
        let c = random_circuit(&script, inputs);
        let g_bits = to_bits(g_word, c.garbler_inputs());
        let e_bits = to_bits(e_word, c.evaluator_inputs());
        let expect = c.eval(&g_bits, &e_bits).unwrap();
        let window = WindowModel::new(sww);
        let mut rng = StdRng::seed_from_u64(seed);
        for kind in [ReorderKind::Baseline, ReorderKind::Segment, ReorderKind::Full] {
            let (plan, _) = compile(&c, kind, window);
            let got = run_gc_through_streams(&plan, &g_bits, &e_bits, &mut rng);
            prop_assert_eq!(got, expect.clone(), "{:?} sww={}", kind, sww);
        }
    }

    #[test]
    fn slab_executors_stream_the_natural_transcript_at_any_window(
        script in proptest::collection::vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..100),
        inputs in 2u32..16,
        window in 2u32..64,
        chunk_pick in 0usize..3,
        seed in any::<u64>(),
        g_word in any::<u64>(),
        e_word in any::<u64>(),
    ) {
        // Random far reads recycle store slots and land producers inside
        // would-be AND runs; the plan's slots and runs must keep every
        // window wire-identical to the slab that holds everything.
        use haac::gc::{StreamingEvaluator, StreamingGarbler};
        let chunk = [1usize, 3, 64][chunk_pick];
        let c = random_circuit(&script, inputs);
        let g_bits = to_bits(g_word, c.garbler_inputs());
        let e_bits = to_bits(e_word, c.evaluator_inputs());
        let expect = c.eval(&g_bits, &e_bits).unwrap();
        let stream = |plan: &StreamingPlan| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut garbler =
                StreamingGarbler::with_plan(&plan.program, &mut rng, HashScheme::Rekeyed);
            let labels = garbler.encode_inputs(&g_bits, &e_bits);
            let mut evaluator =
                StreamingEvaluator::with_plan(&plan.program, labels, HashScheme::Rekeyed);
            let mut tables = Vec::new();
            while let Some(part) = garbler.next_tables(chunk) {
                evaluator.feed(&part);
                tables.extend(part);
            }
            let gfin = garbler.finish();
            let efin = evaluator.finish(&gfin.output_decode);
            (tables, gfin, efin)
        };
        for kind in [ReorderKind::Baseline, ReorderKind::Segment, ReorderKind::Full] {
            let natural = lower_with_reorder(&c, kind);
            prop_assert!(!natural.program.has_oor());
            let plan = lower_with_window(&c, kind, WindowModel::new(window));
            let (tables, gfin, efin) = stream(&plan);
            let (natural_tables, natural_gfin, _) = stream(&natural);
            prop_assert_eq!(tables, natural_tables, "{:?} window={}", kind, window);
            prop_assert_eq!(&gfin.output_decode, &natural_gfin.output_decode);
            prop_assert_eq!(efin.outputs, expect.clone(), "{:?} window={}", kind, window);
            let bound = plan.program.oor_queue_bound();
            prop_assert!(gfin.oor_queue_peak <= bound && efin.oor_queue_peak <= bound);
            prop_assert_eq!(bound > 0, plan.program.has_oor());
        }
    }

    #[test]
    fn window_contract_holds(sww_exp in 1u32..12, frontier in any::<u16>()) {
        let window = WindowModel::new(1 << sww_exp);
        let frontier = frontier as u32;
        let base = window.base_for_frontier(frontier);
        prop_assert!(base.is_multiple_of(window.half()));
        prop_assert!(frontier >= base);
        prop_assert!(frontier < base + window.sww_wires());
    }
}
