//! Half-gate evaluation (the Evaluator's side of the protocol).
//!
//! The Evaluator holds one active label per wire and one table per AND
//! gate; each AND costs two hash calls (half the Garbler's four —
//! matching the paper's 18- vs 21-stage Evaluator/Garbler pipelines).
//!
//! [`evaluate`] is the evaluator-side **oracle**, the counterpart of
//! [`garble`](crate::garble()): one straight-line loop over the netlist
//! that [`crate::StreamingEvaluator`] is tested against.

use haac_circuit::{Circuit, GateOp};

use crate::block::Block;
use crate::hash::{GateHash, HashScheme};

/// Evaluates one AND gate from its garbled table.
///
/// `tweak_base` must match the value used by the garbler for this gate.
/// The two hashes run as one batched call so hardware backends keep
/// both AES blocks in flight.
#[inline]
pub fn eval_and(
    hash: &GateHash,
    tweak_base: u64,
    wa: Block,
    wb: Block,
    table: &[Block; 2],
) -> Block {
    let j0 = 2 * tweak_base;
    let j1 = 2 * tweak_base + 1;
    let sa = wa.lsb();
    let sb = wb.lsb();
    let mut h = [wa, wb];
    hash.hash_batch(&[j0, j1], &mut h);
    let wg = h[0] ^ table[0].select(sa);
    let we = h[1] ^ (table[1] ^ wa).select(sb);
    wg ^ we
}

/// Evaluates up to [`crate::MAX_AND_BATCH`] *mutually
/// independent* AND gates in one batched hash call (`2·k` blocks in
/// flight). `gates[i]` is `(tweak_base, wa, wb)`; `tables[i]` the
/// matching garbled table; `out[i]` receives the active output label.
/// Bit-identical to calling [`eval_and`] per gate.
///
/// # Panics
///
/// Panics if `gates` exceeds the batch bound or the slices' lengths
/// differ.
pub fn eval_and_batch(
    hash: &GateHash,
    gates: &[(u64, Block, Block)],
    tables: &[[Block; 2]],
    out: &mut [Block],
) {
    use crate::garble::MAX_AND_BATCH;
    assert!(gates.len() <= MAX_AND_BATCH, "batch of {} exceeds {MAX_AND_BATCH}", gates.len());
    assert_eq!(gates.len(), tables.len(), "one table per gate");
    assert_eq!(gates.len(), out.len(), "one output slot per gate");
    let k = gates.len();
    // One plane, laid out like the garbler's: A-side tweaks and labels
    // of all `k` gates, then the B-side ones.
    let mut tweaks = [0u64; 2 * MAX_AND_BATCH];
    let mut h = [Block::ZERO; 2 * MAX_AND_BATCH];
    for (i, &(tweak_base, wa, wb)) in gates.iter().enumerate() {
        (tweaks[i], tweaks[k + i]) = (2 * tweak_base, 2 * tweak_base + 1);
        (h[i], h[k + i]) = (wa, wb);
    }
    hash.hash_batch(&tweaks[..2 * k], &mut h[..2 * k]);
    for (i, (&(_, wa, wb), table)) in gates.iter().zip(tables).enumerate() {
        let wg = h[i] ^ table[0].select(wa.lsb());
        let we = h[k + i] ^ (table[1] ^ wa).select(wb.lsb());
        out[i] = wg ^ we;
    }
}

/// Evaluates an XOR gate (FreeXOR).
#[inline]
pub fn eval_xor(wa: Block, wb: Block) -> Block {
    wa ^ wb
}

/// Evaluates an INV gate — the active label passes through unchanged
/// (the garbler swapped the labels, so the same bits now mean the
/// complement).
#[inline]
pub fn eval_inv(wa: Block) -> Block {
    wa
}

/// Evaluates an entire garbled circuit — the reference every evaluating
/// executor is compared with, and the paper's "CPU GC" baseline.
///
/// `input_labels` are the active labels for all primary inputs in wire
/// order; `tables` are the AND tables in gate order. Returns the active
/// output labels (decode with [`crate::decode_outputs`]).
///
/// One pass over [`Circuit::gates`] in netlist order, a full
/// `Vec<Block>` of active labels, one unbatched [`eval_and`] per AND
/// gate. **Never optimise this function**: it is the specification the
/// slab evaluator is checked against; make the executor faster instead.
///
/// # Panics
///
/// Panics if `input_labels` or `tables` have the wrong length.
pub fn evaluate(
    circuit: &Circuit,
    tables: &[[Block; 2]],
    input_labels: &[Block],
    scheme: HashScheme,
) -> Vec<Block> {
    assert_eq!(input_labels.len(), circuit.num_inputs() as usize, "input label count");
    assert_eq!(tables.len(), circuit.num_and_gates(), "table count");
    let hash = GateHash::new(scheme);
    let mut labels = vec![Block::ZERO; circuit.num_wires() as usize];
    labels[..input_labels.len()].copy_from_slice(input_labels);
    let mut next_table = 0usize;
    for (index, gate) in circuit.gates().iter().enumerate() {
        let wa = labels[gate.a as usize];
        let out = match gate.op {
            GateOp::Xor => eval_xor(wa, labels[gate.b as usize]),
            GateOp::Inv => eval_inv(wa),
            GateOp::And => {
                let table = &tables[next_table];
                next_table += 1;
                eval_and(&hash, index as u64, wa, labels[gate.b as usize], table)
            }
        };
        labels[gate.out as usize] = out;
    }
    circuit.outputs().iter().map(|&w| labels[w as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::garble::{decode_outputs, garble};
    use haac_circuit::{Builder, Circuit, Gate};
    use rand::{rngs::StdRng, SeedableRng};

    /// End-to-end: garble + evaluate must equal plaintext evaluation.
    fn check_circuit(c: &Circuit, g_bits: &[bool], e_bits: &[bool], seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        for scheme in [HashScheme::Rekeyed, HashScheme::FixedKey] {
            let g = garble(c, &mut rng, scheme);
            let inputs = g.encode_inputs(c, g_bits, e_bits);
            let out_labels = evaluate(c, &g.garbled.tables, &inputs, scheme);
            let got = decode_outputs(&out_labels, &g.garbled.output_decode);
            let expect = c.eval(g_bits, e_bits).unwrap();
            assert_eq!(got, expect, "scheme {scheme:?}");
        }
    }

    #[test]
    fn and_gate_all_inputs() {
        let c = Circuit::new(1, 1, vec![Gate::new(GateOp::And, 0, 1, 2)], vec![2]).unwrap();
        for (seed, (a, b)) in
            [(false, false), (false, true), (true, false), (true, true)].iter().enumerate()
        {
            check_circuit(&c, &[*a], &[*b], seed as u64);
        }
    }

    #[test]
    fn inv_and_xor_chain() {
        let c = Circuit::new(
            1,
            1,
            vec![
                Gate::inv(0, 2),
                Gate::new(GateOp::Xor, 2, 1, 3),
                Gate::new(GateOp::And, 3, 0, 4),
                Gate::inv(4, 5),
            ],
            vec![5],
        )
        .unwrap();
        for (seed, (a, b)) in
            [(false, false), (false, true), (true, false), (true, true)].iter().enumerate()
        {
            check_circuit(&c, &[*a], &[*b], 10 + seed as u64);
        }
    }

    #[test]
    fn adder_circuit_end_to_end() {
        let mut b = Builder::new();
        let x = b.input_garbler(8);
        let y = b.input_evaluator(8);
        let (s, carry) = b.add_words(&x, &y);
        let mut out = s;
        out.push(carry);
        let c = b.finish(out).unwrap();
        for (seed, (x, y)) in [(17u64, 25u64), (255, 255), (0, 0), (128, 130)].iter().enumerate() {
            let gb: Vec<bool> = (0..8).map(|i| (x >> i) & 1 == 1).collect();
            let eb: Vec<bool> = (0..8).map(|i| (y >> i) & 1 == 1).collect();
            check_circuit(&c, &gb, &eb, 20 + seed as u64);
        }
    }

    #[test]
    #[should_panic(expected = "table count")]
    fn wrong_table_count_panics() {
        let c = Circuit::new(1, 1, vec![Gate::new(GateOp::And, 0, 1, 2)], vec![2]).unwrap();
        let _ = evaluate(&c, &[], &[Block::ZERO, Block::ZERO], HashScheme::Rekeyed);
    }

    #[test]
    fn eval_and_batch_matches_sequential() {
        use crate::block::Delta;
        use crate::garble::{garble_and, MAX_AND_BATCH};
        let mut rng = StdRng::seed_from_u64(31);
        let hash = GateHash::new(HashScheme::Rekeyed);
        let delta = Delta::random(&mut rng);
        for k in 1..=MAX_AND_BATCH {
            let gates: Vec<(u64, Block, Block)> = (0..k)
                .map(|i| (50 + i as u64, Block::random(&mut rng), Block::random(&mut rng)))
                .collect();
            let tables: Vec<[Block; 2]> =
                gates.iter().map(|&(t, a, b)| garble_and(&hash, delta, t, a, b).1).collect();
            let mut batched = vec![Block::ZERO; k];
            eval_and_batch(&hash, &gates, &tables, &mut batched);
            for (i, (&(t, a, b), table)) in gates.iter().zip(&tables).enumerate() {
                assert_eq!(batched[i], eval_and(&hash, t, a, b, table), "k={k} gate={i}");
            }
        }
    }

    #[test]
    fn corrupted_table_changes_output_label() {
        let c = Circuit::new(1, 1, vec![Gate::new(GateOp::And, 0, 1, 2)], vec![2]).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let g = garble(&c, &mut rng, HashScheme::Rekeyed);
        let mut bad_tables = g.garbled.tables.clone();
        bad_tables[0][0] ^= Block::from(1u128);
        // Point-and-permute: the corrupted generator row is consumed for
        // exactly one value of Alice's bit, whichever permute bit the
        // garbling sampled — so across both values some output changes.
        let changed = [false, true].iter().any(|&a| {
            let inputs = g.encode_inputs(&c, &[a], &[true]);
            let good = evaluate(&c, &g.garbled.tables, &inputs, HashScheme::Rekeyed);
            let bad = evaluate(&c, &bad_tables, &inputs, HashScheme::Rekeyed);
            good != bad
        });
        assert!(changed);
    }
}
