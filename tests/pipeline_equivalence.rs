//! The session layer's equivalence matrix: every VIP-Bench workload
//! must decode the plaintext reference on every transport at every
//! frame granularity, and the transport must not change the transcript.
//!
//! The matrix per workload:
//! - transport: in-process `MemChannel` and real TCP loopback;
//! - chunk sizes: 1, window/2, the full window, and a single chunk
//!   larger than the whole table stream.
//!
//! What the garbler drivers put on the wire is compared message by
//! message in `haac-runtime`'s session tests; below the session layer,
//! the slab garbler's chunks are compared here with the oracle
//! `haac_gc::garble` on the raw netlist, and the plans themselves — one
//! schedule and one program for the simulator and the executors, AND
//! runs fixed at lowering — are held to what the compiler promises.

use haac::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The four chunk granularities the suite sweeps for a workload.
fn chunk_sizes(config: &SessionConfig, and_gates: usize) -> [usize; 4] {
    [
        1,
        (config.plan.window.half() as usize).max(2),
        (config.plan.window.sww_wires() as usize).max(2),
        and_gates + 7, // strictly more tables than exist: one giant chunk
    ]
}

#[test]
fn tcp_loopback_matches_mem_channel_for_every_workload() {
    for kind in WorkloadKind::ALL {
        let w = build_workload(kind, Scale::Small);
        let seed = 0xBEEF + kind as u64;
        let base = SessionConfig::for_circuit(&w.circuit);
        for chunk in chunk_sizes(&base, w.circuit.num_and_gates()) {
            let name = format!("{} chunk={chunk}", kind.name());
            let config = base.clone().with_chunk_tables(chunk);
            let (g_tcp, e_tcp) =
                run_tcp_session(&w.circuit, &w.garbler_bits, &w.evaluator_bits, seed, &config)
                    .unwrap_or_else(|e| panic!("{name}: tcp session failed: {e}"));
            let (g_mem, e_mem) =
                run_local_session(&w.circuit, &w.garbler_bits, &w.evaluator_bits, seed, &config)
                    .unwrap();
            assert_eq!(g_tcp.outputs, w.expected, "{name}");
            assert_eq!(e_tcp.outputs, w.expected, "{name}");
            assert_eq!(e_mem.outputs, w.expected, "{name}");
            // The transcript must not depend on the transport.
            assert_eq!(g_tcp.bytes_sent, g_mem.bytes_sent, "{name}");
            assert_eq!(g_tcp.bytes_received, g_mem.bytes_received, "{name}");
            assert_eq!(g_tcp.table_chunks, g_mem.table_chunks, "{name}");
            assert_eq!(g_tcp.flushes, g_mem.flushes, "{name}");
            assert_eq!(e_tcp.tables, e_mem.tables, "{name}");
            // Within a party compute and I/O alternate: both are
            // metered, and neither hides the other.
            for report in [&g_tcp, &e_tcp] {
                assert!(report.compute_ns > 0, "{name}: unmetered compute");
                assert_eq!(report.overlap_ratio, 0.0, "{name}");
            }
        }
    }
}

#[test]
fn serial_tcp_session_still_agrees_with_plaintext() {
    let w = build_workload(WorkloadKind::Hamming, Scale::Small);
    let config = SessionConfig::for_circuit(&w.circuit)
        .with_chunk_tables((w.circuit.num_and_gates() / 4).max(1));
    let (g, e) =
        run_tcp_session(&w.circuit, &w.garbler_bits, &w.evaluator_bits, 4242, &config).unwrap();
    assert_eq!(g.outputs, w.expected);
    assert_eq!(e.outputs, w.expected);
    assert_eq!(g.overlap_ratio, 0.0);
    assert_eq!(e.overlap_ratio, 0.0);
}

#[test]
fn slab_garblers_stream_identical_tables_on_every_workload() {
    // The executor-level half of the acceptance bar, without any
    // transport: for all eight workloads the slab garbler's chunks are
    // each `min(chunk, remaining)` long and concatenate to the oracle's
    // tables, with the same decode string and cipher work, and the
    // plan's static peak equals the netlist's liveness peak.
    use haac_core::lower_for_streaming;
    use haac_gc::{Liveness, StreamingGarbler};

    const CHUNK: usize = 509;
    for kind in WorkloadKind::ALL {
        let w = build_workload(kind, Scale::Small);
        let plan = lower_for_streaming(&w.circuit);
        let mut rng1 = StdRng::seed_from_u64(7 + kind as u64);
        let mut rng2 = StdRng::seed_from_u64(7 + kind as u64);
        let oracle = garble(&w.circuit, &mut rng1, HashScheme::Rekeyed);
        let mut slab = StreamingGarbler::with_plan(&plan.program, &mut rng2, HashScheme::Rekeyed);
        assert_eq!(slab.delta(), oracle.delta, "{}", kind.name());
        let mut tables = Vec::with_capacity(slab.total_tables());
        while let Some(chunk) = slab.next_tables(CHUNK) {
            let remaining = oracle.garbled.tables.len() - tables.len();
            assert_eq!(chunk.len(), CHUNK.min(remaining), "{}", kind.name());
            tables.extend(chunk);
        }
        assert_eq!(tables, oracle.garbled.tables, "{}", kind.name());
        let sf = slab.finish();
        assert_eq!(sf.output_decode, oracle.garbled.output_decode, "{}", kind.name());
        assert_eq!(sf.crypto, oracle.crypto, "{}", kind.name());
        let liveness_peak = Liveness::analyze(&w.circuit).peak_live_wires(&w.circuit);
        assert_eq!(sf.peak_live_wires, liveness_peak, "{}", kind.name());
    }
}

const REORDERS: [ReorderKind; 3] = [ReorderKind::Baseline, ReorderKind::Full, ReorderKind::Segment];

#[test]
fn the_direct_emitter_and_the_program_road_lower_every_workload_identically() {
    // One schedule, two consumers: `lower_with_reorder` emits the served
    // plan under the slab's ring, the simulator gets its program from
    // `compile` under the sliding SWW. At the served window no `Small`
    // read is far under either predicate, so the two plans must be
    // equal — and no kind may spill, as the bank only takes in-window
    // plans.
    use haac::core::compile;
    use haac::core::lower::served_window;

    let sww = served_window();
    assert_eq!(sww.sww_wires(), 131_072, "the paper's 2 MB SWW");
    for kind in WorkloadKind::ALL {
        let w = build_workload(kind, Scale::Small);
        for reorder_kind in REORDERS {
            let name = format!("{} {reorder_kind:?}", kind.name());
            let direct = lower_with_reorder(&w.circuit, reorder_kind);
            let (by_program, stats) = compile(&w.circuit, reorder_kind, sww);
            assert_eq!(stats.oor_count, 0, "{name}");
            assert_eq!(direct.program, by_program, "{name}");
            assert!(!direct.program.has_oor(), "{name}: a Small plan must stay in-window");
            assert!(direct.window.sww_wires() <= sww.sww_wires(), "{name}");
        }
    }
}

#[test]
fn compiled_and_served_plans_garble_identical_tables_on_every_workload() {
    // One schedule and one renaming pass under two window predicates:
    // the plan the simulator reads — routed under a 256-label sliding
    // SWW, so every workload has far reads — and the served plan garble
    // byte-identical tables from one seed, and both decode the
    // plaintext. No served `Small` plan spills: the bank only takes
    // in-window plans.
    use haac::core::compiler::{compile_order, gate_order};
    use haac::core::lower::served_window;
    use haac_gc::{SlotProgram, StreamingEvaluator, StreamingGarbler};

    let stream = |plan: &SlotProgram, w: &haac::workloads::Workload| {
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut garbler = StreamingGarbler::with_plan(plan, &mut rng, HashScheme::Rekeyed);
        let inputs = garbler.encode_inputs(&w.garbler_bits, &w.evaluator_bits);
        let mut evaluator = StreamingEvaluator::with_plan(plan, inputs, HashScheme::Rekeyed);
        let mut tables = Vec::new();
        while let Some(part) = garbler.next_tables(1024) {
            evaluator.feed(&part);
            tables.extend(part);
        }
        let decode = garbler.finish().output_decode;
        assert_eq!(evaluator.finish(&decode).outputs, w.expected, "{}", w.kind.name());
        (tables, decode)
    };
    let sww = served_window();
    assert_eq!(sww.sww_wires(), 131_072, "the paper's 2 MB SWW");
    let tight = WindowModel::new(256);
    for kind in WorkloadKind::ALL {
        let w = build_workload(kind, Scale::Small);
        for reorder_kind in REORDERS {
            let name = format!("{} {reorder_kind:?}", kind.name());
            let served = lower_with_reorder(&w.circuit, reorder_kind);
            assert!(!served.program.has_oor(), "{name}: a Small plan must stay in-window");
            assert!(served.window.sww_wires() <= sww.sww_wires(), "{name}");
            let order = gate_order(&w.circuit, reorder_kind, sww);
            let (compiled, stats) = compile_order(&w.circuit, &order, tight);
            assert!(compiled.has_oor(), "{name}: 256 labels must force far reads");
            assert_eq!(stats.oor_count, compiled.oor_read_count(), "{name}");
            assert_eq!(stream(&compiled, &w), stream(&served.program, &w), "{name}");
        }
    }
}

#[test]
fn served_plans_batch_as_the_schedule_promises() {
    // Batches are a plan property, so they are asserted, not sampled:
    // the mean AND run of each level-ordered kind under the server's
    // schedule (measured 7.70, 7.50, 5.35, exactly 8, 2.21, 4.24 and
    // 5.06, of `MAX_AND_BATCH` = 8; 1.0–1.8 in netlist order). Triangle
    // alone is served in netlist order, and no served `Small` plan
    // spills: the bank takes in-window plans only.
    use haac::server::choose_reorder;

    let floors = [
        (WorkloadKind::MatMult, 7.5),
        (WorkloadKind::DotProduct, 7.0),
        (WorkloadKind::GradDesc, 5.0),
        (WorkloadKind::Relu, 8.0),
        (WorkloadKind::BubbleSort, 2.0),
        (WorkloadKind::Mersenne, 4.0),
        (WorkloadKind::Hamming, 5.0),
    ];
    for kind in WorkloadKind::ALL {
        let w = build_workload(kind, Scale::Small);
        let plan = lower_with_reorder(&w.circuit, choose_reorder(kind));
        assert!(
            !plan.program.has_oor(),
            "{}: a served Small plan must stay in-window",
            kind.name()
        );
        if let Some(&(_, floor)) = floors.iter().find(|(k, _)| *k == kind) {
            let mean = plan.program.ands_per_batch();
            assert!((floor..=8.0).contains(&mean), "{}: {mean}", kind.name());
        }
    }
    let baseline: Vec<_> = WorkloadKind::ALL
        .into_iter()
        .filter(|&kind| choose_reorder(kind) == ReorderKind::Baseline)
        .collect();
    assert_eq!(baseline, [WorkloadKind::Triangle]);
}

#[test]
fn chunk_budgets_that_cut_runs_stream_the_same_transcript() {
    // A chunk budget may end inside a run (1 cuts every run, 3 and 1013
    // cut the 8-gate runs of the level orders at odd places); the
    // remainder is itself a run, so tables, decode string and cipher
    // work do not depend on the cut — they equal the oracle's on the
    // baseline order, and the one-chunk stream's on the reordered ones,
    // whose evaluator, fed the same cuts, decodes the plaintext.
    use haac_gc::{StreamingEvaluator, StreamingGarbler};

    for kind in [WorkloadKind::Triangle, WorkloadKind::DotProduct, WorkloadKind::GradDesc] {
        let w = build_workload(kind, Scale::Small);
        let oracle = garble(&w.circuit, &mut StdRng::seed_from_u64(9), HashScheme::Rekeyed);
        for reorder_kind in REORDERS {
            let plan = lower_with_reorder(&w.circuit, reorder_kind);
            let mut reference = None;
            for chunk in [usize::MAX, 1, 3, 1013] {
                let name = format!("{} {reorder_kind:?} chunk={chunk}", kind.name());
                let mut rng = StdRng::seed_from_u64(9);
                let mut garbler =
                    StreamingGarbler::with_plan(&plan.program, &mut rng, HashScheme::Rekeyed);
                let inputs = garbler.encode_inputs(&w.garbler_bits, &w.evaluator_bits);
                let mut evaluator =
                    StreamingEvaluator::with_plan(&plan.program, inputs, HashScheme::Rekeyed);
                let mut tables = Vec::new();
                while let Some(part) = garbler.next_tables(chunk) {
                    evaluator.feed(&part);
                    tables.extend(part);
                }
                let gfin = garbler.finish();
                let efin = evaluator.finish(&gfin.output_decode);
                assert_eq!(efin.outputs, w.expected, "{name}");
                assert_eq!(gfin.crypto, oracle.crypto, "{name}");
                assert_eq!(efin.crypto.aes_blocks, 2 * tables.len() as u64, "{name}");
                let transcript = (tables, gfin.output_decode);
                match &reference {
                    Some(one_chunk) => assert_eq!(one_chunk, &transcript, "{name}"),
                    None => {
                        if reorder_kind == ReorderKind::Baseline {
                            let garbled = oracle.garbled.clone();
                            assert_eq!(transcript, (garbled.tables, garbled.output_decode));
                        }
                        reference = Some(transcript);
                    }
                }
            }
        }
    }
}
