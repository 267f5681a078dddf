//! Property tests for the optimizing compiler (paper §4).
//!
//! For random well-formed circuits and every [`ReorderKind`], the
//! reordered + renamed program must be *topologically valid* — every
//! operand resolves to an input or an earlier instruction's output, as
//! [`Program::validate`] and a direct renamed-address check both attest
//! — and compiling (reorder → rename → ESW → OoR marking) must preserve
//! GC semantics exactly: executing the lowered stream through the
//! modeled SWW/OoRW memory yields outputs bit-identical to plaintext
//! evaluation of the untouched netlist, at every window size. The level
//! orders are additionally held to their definition: at every segment
//! size, a permutation of each baseline segment sorted by
//! `(level, op != And)`.

use haac_circuit::{Bit, Builder, Circuit, GateOp};
use haac_core::compiler::{compile, reorder, segment_reorder, ReorderKind};
use haac_core::exec::run_gc_through_streams;
use haac_core::WindowModel;
use haac_gc::HashScheme;
use proptest::collection::vec;
use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

const ALL_KINDS: [ReorderKind; 3] =
    [ReorderKind::Baseline, ReorderKind::Full, ReorderKind::Segment];

/// Builds a random but well-formed circuit from a script of gate picks:
/// each step reads wires already in the pool, so the netlist is SSA and
/// topological by construction (the same invariant `Circuit::new`
/// enforces).
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

fn random_bits(seed: u64, n: usize) -> Vec<bool> {
    use rand::Rng;
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_reorder_is_topologically_valid_and_renamed(
        script in vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..80),
        inputs in 2u32..12,
        window_exp in 2u32..9,
    ) {
        let circuit = random_circuit(&script, inputs);
        let window = WindowModel::new(1 << window_exp);
        for kind in ALL_KINDS {
            let program = reorder(&circuit, kind, window);
            prop_assert!(program.validate().is_ok(), "{kind:?}: {:?}", program.validate());
            // Renaming makes validity directly checkable: instruction j
            // writes address first_out + j, so every operand must point
            // strictly below its own output — an input or an earlier
            // instruction — never forward.
            let first_out = program.first_output_addr();
            for (j, instr) in program.instructions.iter().enumerate() {
                let out_addr = first_out + j as u32;
                for operand in [instr.a, instr.b].iter().take(instr.num_operands()) {
                    prop_assert!(
                        *operand < out_addr && *operand >= 1,
                        "{kind:?}: instruction {j} reads {operand} at or above its own output {out_addr}"
                    );
                }
            }
            // The schedule is a permutation of the gates, not a subset.
            let mut seen = program.source_gate.clone();
            seen.sort_unstable();
            prop_assert_eq!(
                seen,
                (0..circuit.num_gates() as u32).collect::<Vec<_>>(),
                "{:?} must permute all gates", kind
            );
        }
    }

    #[test]
    fn every_segment_size_sorts_its_segments_by_level_with_ands_first(
        script in vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..60),
        inputs in 2u32..12,
    ) {
        let circuit = random_circuit(&script, inputs);
        let gates = circuit.gates();
        let levels = circuit.wire_levels();
        let key = |g: u32| {
            let gate = &gates[g as usize];
            (levels[gate.out as usize], gate.op != GateOp::And)
        };
        // One past the gate count is a single segment: `Full`'s order.
        for segment in 1..=gates.len() + 1 {
            let program = segment_reorder(&circuit, segment);
            prop_assert!(program.validate().is_ok(), "segment {segment}: {:?}", program.validate());
            for (s, chunk) in program.source_gate.chunks(segment).enumerate() {
                // The segment holds exactly the baseline segment's gates…
                let mut sorted = chunk.to_vec();
                sorted.sort_unstable();
                let first = (s * segment) as u32;
                prop_assert_eq!(
                    sorted,
                    (first..first + chunk.len() as u32).collect::<Vec<_>>(),
                    "segment size {}, segment {}", segment, s
                );
                // …level by level, AND gates first inside a level.
                prop_assert!(
                    chunk.windows(2).all(|w| key(w[0]) <= key(w[1])),
                    "segment size {segment}, segment {s}: keys {:?}",
                    chunk.iter().map(|&g| key(g)).collect::<Vec<_>>()
                );
            }
        }
        prop_assert_eq!(
            segment_reorder(&circuit, gates.len() + 1),
            reorder(&circuit, ReorderKind::Full, WindowModel::new(4))
        );
    }

    #[test]
    fn compiled_streams_match_plaintext_for_every_reorder(
        script in vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..60),
        inputs in 2u32..12,
        window_exp in 2u32..8,
        seed in any::<u64>(),
    ) {
        let circuit = random_circuit(&script, inputs);
        let g_bits = random_bits(seed, circuit.garbler_inputs() as usize);
        let e_bits = random_bits(seed ^ 0xABCD, circuit.evaluator_inputs() as usize);
        let expected = circuit.eval(&g_bits, &e_bits).expect("plaintext baseline");
        let window = WindowModel::new(1 << window_exp);
        for kind in ALL_KINDS {
            let (lowered, stats) = compile(&circuit, kind, window);
            prop_assert!(lowered.program.validate().is_ok(), "{kind:?}");
            prop_assert_eq!(stats.and_count, circuit.num_and_gates(), "{:?}", kind);
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(kind.label().len() as u64));
            let got = run_gc_through_streams(
                &lowered,
                window,
                &g_bits,
                &e_bits,
                &mut rng,
                HashScheme::Rekeyed,
            );
            match got {
                Ok(bits) => prop_assert_eq!(
                    &bits, &expected,
                    "{:?} window={} changed the function", kind, window.sww_wires()
                ),
                Err(e) => prop_assert!(
                    false,
                    "{kind:?} window={} violated the memory discipline: {e}",
                    window.sww_wires()
                ),
            }
        }
    }
}
