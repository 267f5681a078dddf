//! Property tests for the optimizing compiler (paper §4).
//!
//! For random well-formed circuits and every [`ReorderKind`], the
//! schedule must be a permutation of the gates whose renaming is
//! *topologically valid* — every operand resolves to an input or an
//! earlier instruction's output, as a direct renamed-address check and
//! [`SlotProgram::new`] both attest — and compiling (reorder → rename →
//! far-read routing under the sliding SWW) must preserve GC semantics
//! exactly: running the routed plan on the slab executors, every far
//! read served from the OoRW store, yields outputs bit-identical to
//! plaintext evaluation of the untouched netlist, at every window size.
//! [`CompileStats`] is held to a brute-force oracle over the renamed
//! order. The level orders are additionally held to their definition:
//! at every segment size, a permutation of each baseline segment sorted
//! by `(level, op != And)`.

use haac_circuit::{Bit, Builder, Circuit, GateOp};
use haac_core::compiler::{compile, gate_order, segment_order, CompileStats, ReorderKind};
use haac_core::{run_gc_through_streams, WindowModel};
use haac_gc::{rename_in_order, HashScheme, SlotProgram};
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
            let order = gate_order(&circuit, kind, window);
            prop_assert!(renames_validly(&circuit, &order), "{kind:?}");
            // Renaming makes validity directly checkable: instruction j
            // writes address first_out + j, so every operand must point
            // strictly below its own output — an input or an earlier
            // instruction — never forward.
            let (instrs, _) = rename_in_order(&circuit, &order);
            let first_out = circuit.num_inputs() + 1;
            for (j, instr) in instrs.iter().enumerate() {
                let out_addr = first_out + j as u32;
                for operand in instr.operands() {
                    prop_assert!(
                        operand < out_addr && operand >= 1,
                        "{kind:?}: instruction {j} reads {operand} at or above its own output {out_addr}"
                    );
                }
            }
            // The schedule is a permutation of the gates, not a subset.
            let mut seen = order.clone();
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
            let order = segment_order(&circuit, segment);
            prop_assert!(renames_validly(&circuit, &order), "segment {segment}");
            for (s, chunk) in order.chunks(segment).enumerate() {
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
            segment_order(&circuit, gates.len() + 1),
            gate_order(&circuit, ReorderKind::Full, WindowModel::new(4))
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
            let (plan, stats) = compile(&circuit, kind, window);
            prop_assert_eq!(stats.and_count, circuit.num_and_gates(), "{:?}", kind);
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(kind.label().len() as u64));
            let got = run_gc_through_streams(&plan, &g_bits, &e_bits, &mut rng, HashScheme::Rekeyed);
            prop_assert_eq!(
                &got, &expected,
                "{:?} window={} changed the function", kind, window.sww_wires()
            );
        }
    }

    #[test]
    fn compile_stats_match_a_brute_force_oracle(
        script in vec((any::<u8>(), any::<u16>(), any::<u16>()), 1..80),
        inputs in 2u32..12,
        window_exp in 1u32..9,
    ) {
        let circuit = random_circuit(&script, inputs);
        let window = WindowModel::new(1 << window_exp);
        for kind in ALL_KINDS {
            let (_, stats) = compile(&circuit, kind, window);
            prop_assert_eq!(
                stats,
                brute_force_stats(&circuit, &gate_order(&circuit, kind, window), window),
                "{:?} window={}", kind, window.sww_wires()
            );
        }
    }
}

/// Whether an order renames into a program [`SlotProgram::new`] accepts.
fn renames_validly(circuit: &Circuit, order: &[u32]) -> bool {
    let (instrs, outputs) = rename_in_order(circuit, order);
    SlotProgram::new(instrs, circuit.garbler_inputs(), circuit.evaluator_inputs(), outputs).is_ok()
}

/// [`CompileStats`] straight from the paper's definitions, over the
/// renamed order: an operand below the sliding window's base at its
/// reader's output address is a far read, and a produced wire that is
/// read from outside the window, or is a circuit output, is live.
fn brute_force_stats(circuit: &Circuit, order: &[u32], window: WindowModel) -> CompileStats {
    let (instrs, outputs) = rename_in_order(circuit, order);
    let first_out = circuit.num_inputs() + 1;
    let mut live = vec![false; instrs.len()];
    let mut oor_count = 0;
    for (i, instr) in instrs.iter().enumerate() {
        let base = window.base_for_frontier(first_out + i as u32);
        for operand in instr.operands().filter(|&a| a < base) {
            oor_count += 1;
            if operand >= first_out {
                live[(operand - first_out) as usize] = true;
            }
        }
    }
    for &out in outputs.iter().filter(|&&out| out >= first_out) {
        live[(out - first_out) as usize] = true;
    }
    let live_count = live.iter().filter(|&&l| l).count();
    CompileStats {
        instructions: instrs.len(),
        and_count: circuit.num_and_gates(),
        live_count,
        oor_count,
        spent_percent: if instrs.is_empty() {
            0.0
        } else {
            100.0 * (1.0 - live_count as f64 / instrs.len() as f64)
        },
    }
}
