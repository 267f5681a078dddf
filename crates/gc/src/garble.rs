//! Half-gate garbling (the Garbler's side of the protocol).
//!
//! Implements the Zahur–Rosulek–Evans half-gate AND (two 16-byte table
//! rows, four hash calls) with FreeXOR labels and point-and-permute
//! decoding — the exact computation HAAC's Garbler gate engine pipelines
//! in hardware (paper Fig. 2). XOR costs one 128-bit XOR and INV is a
//! relabeling; neither produces a table.
//!
//! [`garble`] is the crate's **oracle** and the paper's "CPU GC"
//! baseline: one straight-line loop over the netlist with every label
//! resident. The executors ([`crate::StreamingGarbler`],
//! [`crate::garble_plan_in`]) are each tested to reproduce its
//! transcript bit for bit.

use rand::Rng;

use haac_circuit::{Circuit, GateOp};

use crate::block::{Block, Delta};
use crate::hash::{CryptoCounters, GateHash, HashScheme};

/// The transferable garbling artifacts: what the Garbler sends to the
/// Evaluator (plus, out of band, the input labels).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GarbledCircuit {
    /// One two-row table per AND gate, in gate order.
    pub tables: Vec<[Block; 2]>,
    /// Per output wire: the permute bit of the zero label, used to decode
    /// active output labels into cleartext bits.
    pub output_decode: Vec<bool>,
}

impl GarbledCircuit {
    /// Total bytes an Evaluator must receive (tables only).
    pub fn table_bytes(&self) -> usize {
        self.tables.len() * 32
    }
}

/// The Garbler's complete state after garbling: Δ and the zero label of
/// every wire (input encoding and output decoding derive from these).
#[derive(Debug, Clone)]
pub struct Garbling {
    /// The global FreeXOR offset.
    pub delta: Delta,
    /// Zero label for every wire in the circuit.
    pub wire_zero_labels: Vec<Block>,
    /// The transferable part.
    pub garbled: GarbledCircuit,
    /// Cipher work performed (key expansions, AES block calls).
    pub crypto: CryptoCounters,
}

impl Garbling {
    /// Encodes concrete input bits into active labels for all primary
    /// inputs (garbler bits first, evaluator bits after — wire order).
    ///
    /// # Panics
    ///
    /// Panics if the bit counts do not match the circuit that produced
    /// this garbling.
    pub fn encode_inputs(
        &self,
        circuit: &Circuit,
        garbler_bits: &[bool],
        evaluator_bits: &[bool],
    ) -> Vec<Block> {
        assert_eq!(garbler_bits.len(), circuit.garbler_inputs() as usize, "garbler input width");
        assert_eq!(
            evaluator_bits.len(),
            circuit.evaluator_inputs() as usize,
            "evaluator input width"
        );
        garbler_bits
            .iter()
            .chain(evaluator_bits)
            .enumerate()
            .map(|(w, &bit)| self.wire_zero_labels[w] ^ self.delta.block().select(bit))
            .collect()
    }

    /// The pair of labels (zero, one) for an input wire — what the OT
    /// offers the Evaluator for its choice bits.
    pub fn input_label_pair(&self, wire: u32) -> (Block, Block) {
        let zero = self.wire_zero_labels[wire as usize];
        (zero, zero ^ self.delta.block())
    }
}

/// Garbles one AND gate; returns the output zero label and the two-row
/// table.
///
/// `tweak_base` must uniquely identify the gate within the garbling
/// session (the paper keys the A-side hashes with `2·i` and the B-side
/// with `2·i + 1`). All four hashes run as one batched call — the
/// A-side pair shares one key expansion and the B-side pair the other
/// (two expansions per AND, not four), and the four AES blocks pipeline
/// on hardware backends.
#[inline]
pub fn garble_and(
    hash: &GateHash,
    delta: Delta,
    tweak_base: u64,
    w0a: Block,
    w0b: Block,
) -> (Block, [Block; 2]) {
    let j0 = 2 * tweak_base;
    let j1 = 2 * tweak_base + 1;
    let pa = w0a.lsb();
    let pb = w0b.lsb();
    // Two planes of the two tweaks: the zero labels, then the one labels.
    let mut h = [w0a, w0b, w0a ^ delta.block(), w0b ^ delta.block()];
    hash.hash_batch(&[j0, j1], &mut h);
    let [ha0, hb0, ha1, hb1] = h;
    // Generator half-gate.
    let tg = ha0 ^ ha1 ^ delta.block().select(pb);
    let wg = ha0 ^ tg.select(pa);
    // Evaluator half-gate.
    let te = hb0 ^ hb1 ^ w0a;
    let we = hb0 ^ (te ^ w0a).select(pb);
    (wg ^ we, [tg, te])
}

/// Largest AND-gate batch [`garble_and_batch`]/[`crate::eval_and_batch`]
/// accept: 8 gates = 32 garbler-side hashes, enough to saturate the
/// AES pipeline while staying on the stack.
pub const MAX_AND_BATCH: usize = 8;

/// Garbles up to [`MAX_AND_BATCH`] *mutually independent* AND gates in
/// one batched hash call (`4·k` blocks in flight under `2·k` fresh
/// keys, one pass of the cipher for a full batch). `gates[i]` is
/// `(tweak_base, w0a, w0b)`; `out[i]` receives `(output zero label,
/// table)`. Produces bit-identical results to calling [`garble_and`] per
/// gate.
///
/// # Panics
///
/// Panics if `gates` is larger than [`MAX_AND_BATCH`] or the slices'
/// lengths differ.
pub fn garble_and_batch(
    hash: &GateHash,
    delta: Delta,
    gates: &[(u64, Block, Block)],
    out: &mut [(Block, [Block; 2])],
) {
    assert!(gates.len() <= MAX_AND_BATCH, "batch of {} exceeds {MAX_AND_BATCH}", gates.len());
    assert_eq!(gates.len(), out.len(), "one output slot per gate");
    let k = gates.len();
    // The batch as the cipher holds it: the A-side tweaks of all `k`
    // gates, then the B-side ones, over a plane of zero labels and a
    // plane of one labels — four gates' A-side (or B-side) labels to a
    // 512-bit register, and no lane to move before or after.
    let mut tweaks = [0u64; 2 * MAX_AND_BATCH];
    let mut h = [Block::ZERO; 4 * MAX_AND_BATCH];
    for (i, &(tweak_base, w0a, w0b)) in gates.iter().enumerate() {
        (tweaks[i], tweaks[k + i]) = (2 * tweak_base, 2 * tweak_base + 1);
        (h[i], h[k + i]) = (w0a, w0b);
    }
    let (zeros, ones) = h[..4 * k].split_at_mut(2 * k);
    for (one, &zero) in ones.iter_mut().zip(zeros.iter()) {
        *one = zero ^ delta.block();
    }
    hash.hash_batch(&tweaks[..2 * k], &mut h[..4 * k]);
    for (i, (&(_, w0a, w0b), slot)) in gates.iter().zip(out.iter_mut()).enumerate() {
        let [ha0, hb0, ha1, hb1] = [h[i], h[k + i], h[2 * k + i], h[3 * k + i]];
        let pa = w0a.lsb();
        let pb = w0b.lsb();
        let tg = ha0 ^ ha1 ^ delta.block().select(pb);
        let wg = ha0 ^ tg.select(pa);
        let te = hb0 ^ hb1 ^ w0a;
        let we = hb0 ^ (te ^ w0a).select(pb);
        *slot = (wg ^ we, [tg, te]);
    }
}

/// Garbles an XOR gate (FreeXOR): zero labels simply XOR.
#[inline]
pub fn garble_xor(w0a: Block, w0b: Block) -> Block {
    w0a ^ w0b
}

/// Garbles an INV gate: a free relabeling (`W⁰_c = W¹_a`).
#[inline]
pub fn garble_inv(delta: Delta, w0a: Block) -> Block {
    w0a ^ delta.block()
}

/// Garbles an entire circuit — the reference every executor is
/// compared with, and the paper's "CPU GC" baseline.
///
/// One pass over [`Circuit::gates`] in netlist order, a full
/// `Vec<Block>` holding every wire's zero label, one unbatched
/// [`garble_and`] per AND gate, tables emitted in gate order (the
/// stream HAAC's table queues replay). Δ is drawn from `rng` first,
/// then one zero label per primary input; every executor keeps that
/// draw order so a shared seed yields the same garbling.
///
/// **Never optimise this function.** It is the specification: the
/// slab executors and the pooled wave scheduler are checked against
/// its Δ, labels, tables, decode string and [`CryptoCounters`], and
/// `haac-bench`'s `paper` binary times it as the CPU baseline HAAC's
/// speedups are quoted over. Make the executors faster instead.
pub fn garble<R: Rng + ?Sized>(circuit: &Circuit, rng: &mut R, scheme: HashScheme) -> Garbling {
    let hash = GateHash::new(scheme);
    let delta = Delta::random(rng);
    let mut labels = vec![Block::ZERO; circuit.num_wires() as usize];
    for slot in labels.iter_mut().take(circuit.num_inputs() as usize) {
        *slot = Block::random(rng);
    }
    let mut tables = Vec::with_capacity(circuit.num_and_gates());
    for (index, gate) in circuit.gates().iter().enumerate() {
        let w0a = labels[gate.a as usize];
        let out = match gate.op {
            GateOp::Xor => garble_xor(w0a, labels[gate.b as usize]),
            GateOp::Inv => garble_inv(delta, w0a),
            GateOp::And => {
                let (w0c, table) =
                    garble_and(&hash, delta, index as u64, w0a, labels[gate.b as usize]);
                tables.push(table);
                w0c
            }
        };
        labels[gate.out as usize] = out;
    }
    let output_decode = circuit.outputs().iter().map(|&w| labels[w as usize].lsb()).collect();
    Garbling {
        delta,
        wire_zero_labels: labels,
        garbled: GarbledCircuit { tables, output_decode },
        crypto: hash.counters(),
    }
}

/// Decodes active output labels into cleartext bits using the garbler's
/// decode string.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn decode_outputs(labels: &[Block], decode: &[bool]) -> Vec<bool> {
    assert_eq!(labels.len(), decode.len(), "decode width mismatch");
    labels.iter().zip(decode).map(|(l, &d)| l.lsb() ^ d).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use haac_circuit::{Builder, Circuit, Gate};
    use rand::{rngs::StdRng, SeedableRng};

    fn and_circuit() -> Circuit {
        Circuit::new(1, 1, vec![Gate::new(GateOp::And, 0, 1, 2)], vec![2]).unwrap()
    }

    #[test]
    fn garbled_and_has_one_table() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = garble(&and_circuit(), &mut rng, HashScheme::Rekeyed);
        assert_eq!(g.garbled.tables.len(), 1);
        assert_eq!(g.garbled.table_bytes(), 32);
        assert_eq!(g.garbled.output_decode.len(), 1);
    }

    #[test]
    fn rekeyed_and_costs_two_expansions_four_blocks() {
        // The tentpole invariant: re-keying expands each of the gate's
        // two tweaks exactly once (paper Fig. 2), not once per hash.
        let hash = GateHash::new(HashScheme::Rekeyed);
        let mut rng = StdRng::seed_from_u64(11);
        let delta = Delta::random(&mut rng);
        let before = hash.counters();
        let _ = garble_and(&hash, delta, 3, Block::random(&mut rng), Block::random(&mut rng));
        let cost = hash.counters().since(before);
        assert_eq!(cost.key_expansions, 2);
        assert_eq!(cost.aes_blocks, 4);
    }

    #[test]
    fn whole_circuit_counters_scale_with_and_gates() {
        let mut b = Builder::new();
        let x = b.input_garbler(8);
        let y = b.input_evaluator(8);
        let p = b.mul_words_trunc(&x, &y);
        let c = b.finish(p).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let g = garble(&c, &mut rng, HashScheme::Rekeyed);
        let ands = c.num_and_gates() as u64;
        assert_eq!(g.crypto.key_expansions, 2 * ands);
        assert_eq!(g.crypto.aes_blocks, 4 * ands);
    }

    #[test]
    fn garble_and_batch_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(21);
        let hash = GateHash::new(HashScheme::Rekeyed);
        let delta = Delta::random(&mut rng);
        for k in 1..=MAX_AND_BATCH {
            let gates: Vec<(u64, Block, Block)> = (0..k)
                .map(|i| (100 + i as u64, Block::random(&mut rng), Block::random(&mut rng)))
                .collect();
            let mut batched = vec![(Block::ZERO, [Block::ZERO; 2]); k];
            let before = hash.counters();
            garble_and_batch(&hash, delta, &gates, &mut batched);
            let cost = hash.counters().since(before);
            assert_eq!(cost.key_expansions, 2 * k as u64, "k={k}");
            assert_eq!(cost.aes_blocks, 4 * k as u64, "k={k}");
            for (i, &(tweak, a, b)) in gates.iter().enumerate() {
                assert_eq!(batched[i], garble_and(&hash, delta, tweak, a, b), "k={k} gate={i}");
            }
        }
    }

    #[test]
    fn xor_circuit_has_no_tables() {
        let mut b = Builder::new();
        let x = b.input_garbler(4);
        let y = b.input_evaluator(4);
        let out = b.xor_words(&x, &y);
        let c = b.finish(out).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let g = garble(&c, &mut rng, HashScheme::Rekeyed);
        assert!(g.garbled.tables.is_empty());
    }

    #[test]
    fn label_pairs_differ_by_delta() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = garble(&and_circuit(), &mut rng, HashScheme::Rekeyed);
        let (zero, one) = g.input_label_pair(0);
        assert_eq!(zero ^ one, g.delta.block());
        assert_ne!(zero.lsb(), one.lsb(), "permute bits must differ");
    }

    #[test]
    fn encode_inputs_selects_by_bit() {
        let mut rng = StdRng::seed_from_u64(4);
        let c = and_circuit();
        let g = garble(&c, &mut rng, HashScheme::Rekeyed);
        let labels = g.encode_inputs(&c, &[true], &[false]);
        assert_eq!(labels[0], g.wire_zero_labels[0] ^ g.delta.block());
        assert_eq!(labels[1], g.wire_zero_labels[1]);
    }
}
