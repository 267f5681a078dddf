//! The slab loops dispatch once a run, by the class the plan fixed at
//! lowering (`SlotProgram::run_class`): clean XOR runs, slab-only and
//! store-only AND runs, and the general per-operand path. Every class
//! must occur on the plans below, and no class may change the
//! transcript: on the baseline order the tables, decode string, output
//! labels and cipher counters equal the oracle `garble`/`evaluate` on
//! the raw netlist, and on a reordered schedule they equal the same
//! schedule's natural-window plan — at every chunk size, including the
//! ones that cut runs.

use std::collections::HashSet;

use haac::gc::{rename_in_order, Block, CryptoCounters, RunClass, SlotProgram};
use haac::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

const CHUNKS: [usize; 3] = [1, 7, 2048];

/// What a garbling and its evaluation put out: the table stream, the
/// decode string, the evaluator's output labels and both parties'
/// cipher counters.
#[derive(Debug, PartialEq)]
struct Transcript {
    tables: Vec<[Block; 2]>,
    decode: Vec<bool>,
    output_labels: Vec<Block>,
    garbler_crypto: CryptoCounters,
    evaluator_crypto: CryptoCounters,
}

fn stream(program: &SlotProgram, g_bits: &[bool], e_bits: &[bool], chunk: usize) -> Transcript {
    let mut rng = StdRng::seed_from_u64(11);
    let mut garbler = StreamingGarbler::with_plan(program, &mut rng, HashScheme::Rekeyed);
    let inputs = garbler.encode_inputs(g_bits, e_bits);
    let mut evaluator = StreamingEvaluator::with_plan(program, inputs, HashScheme::Rekeyed);
    let mut tables = Vec::new();
    while let Some(part) = garbler.next_tables(chunk) {
        evaluator.feed(&part);
        tables.extend(part);
    }
    let gfin = garbler.finish();
    let efin = evaluator.finish(&gfin.output_decode);
    Transcript {
        tables,
        decode: gfin.output_decode,
        output_labels: efin.output_labels,
        garbler_crypto: gfin.crypto,
        evaluator_crypto: efin.crypto,
    }
}

/// The oracle's transcript of `circuit` from the same seed.
fn oracle(circuit: &Circuit, g_bits: &[bool], e_bits: &[bool]) -> Transcript {
    let garbling = garble(circuit, &mut StdRng::seed_from_u64(11), HashScheme::Rekeyed);
    let labels = garbling.encode_inputs(circuit, g_bits, e_bits);
    let tables = garbling.garbled.tables.clone();
    let output_labels = evaluate(circuit, &tables, &labels, HashScheme::Rekeyed);
    let ands = tables.len() as u64;
    Transcript {
        tables,
        decode: garbling.garbled.output_decode,
        output_labels,
        garbler_crypto: garbling.crypto,
        // Half-gate evaluation: two re-keyed hashes of one block each.
        evaluator_crypto: CryptoCounters { key_expansions: 2 * ands, aes_blocks: 2 * ands },
    }
}

fn classes(program: &SlotProgram) -> HashSet<RunClass> {
    (0..program.instrs().len())
        .map(|i| match program.run_class(i) {
            RunClass::CleanXor(_) => RunClass::CleanXor(1),
            class => class,
        })
        .collect()
}

/// Four ANDs of the primary inputs after an XOR chain has walked the
/// address frontier past a 4-label slab: every one of their operands is
/// a far read, so the run they form reads only the OoRW store.
fn store_only_circuit() -> Circuit {
    let mut b = Builder::new();
    let x = b.input_garbler(2);
    let y = b.input_evaluator(2);
    let (mut p, mut q) = (b.xor(x[0], y[0]), b.xor(x[1], y[1]));
    for _ in 0..16 {
        (p, q) = (q, b.xor(p, q));
    }
    let products = [b.and(x[0], y[0]), b.and(x[1], y[1]), b.and(x[0], y[1]), b.and(x[1], y[0])];
    let mut out = q;
    for product in products {
        out = b.xor(out, product);
    }
    b.finish(vec![out]).unwrap()
}

#[test]
fn every_run_class_occurs_and_none_moves_the_transcript() {
    let matmult = build_workload(WorkloadKind::MatMult, Scale::Small);
    let (g_bits, e_bits) = (&matmult.garbler_bits, &matmult.evaluator_bits);
    let served = lower_with_reorder(&matmult.circuit, ReorderKind::Baseline);
    let small = lower_with_window(&matmult.circuit, ReorderKind::Baseline, WindowModel::new(256));
    assert!(!served.program.has_oor() && small.program.has_oor());

    let tiny = store_only_circuit();
    let order: Vec<u32> = (0..tiny.num_gates() as u32).collect();
    let (instrs, outputs) = rename_in_order(&tiny, &order);
    let hand = SlotProgram::with_window(instrs, 2, 2, outputs, 4).unwrap();
    assert!(hand.has_oor());
    let first_and = hand.instrs().iter().position(|g| g.op == haac::gc::SlotOp::And).unwrap();
    assert_eq!(hand.run_class(first_and), RunClass::StoreAnd);

    let mut seen = HashSet::new();
    for program in [&served.program, &small.program, &hand] {
        seen.extend(classes(program));
    }
    let all = [RunClass::CleanXor(1), RunClass::SlabAnd, RunClass::StoreAnd, RunClass::General];
    assert_eq!(seen, HashSet::from(all));
    assert!(classes(&served.program).contains(&RunClass::CleanXor(1)));
    assert!(classes(&served.program).contains(&RunClass::SlabAnd));

    // Baseline order: the oracle on the raw netlist.
    let (tiny_g, tiny_e) = ([true, false], [true, true]);
    let reference = oracle(&matmult.circuit, g_bits, e_bits);
    let tiny_reference = oracle(&tiny, &tiny_g, &tiny_e);
    for chunk in CHUNKS {
        for (name, program) in [("served", &served.program), ("window 256", &small.program)] {
            let got = stream(program, g_bits, e_bits, chunk);
            assert!(got == reference, "MatMult-small {name}, chunk {chunk}");
        }
        assert_eq!(stream(&hand, &tiny_g, &tiny_e, chunk), tiny_reference, "chunk {chunk}");
    }

    // A reordered schedule: its own natural-window plan.
    let natural =
        lower_with_window(&matmult.circuit, ReorderKind::Segment, WindowModel::new(u32::MAX));
    assert!(!natural.program.has_oor());
    let natural = stream(&natural.program, g_bits, e_bits, 2048);
    for window in [None, Some(256)] {
        let plan = match window {
            None => lower_with_reorder(&matmult.circuit, ReorderKind::Segment),
            Some(w) => {
                lower_with_window(&matmult.circuit, ReorderKind::Segment, WindowModel::new(w))
            }
        };
        for chunk in CHUNKS {
            let got = stream(&plan.program, g_bits, e_bits, chunk);
            assert!(got == natural, "MatMult-small Segment at {window:?}, chunk {chunk}");
        }
    }
}
