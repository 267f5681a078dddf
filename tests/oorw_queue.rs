//! The software OoRW queue: slab windows below a circuit's natural one —
//! the served 2 MB SWW on a long circuit, or deliberately tiny ones —
//! must stream adversarial wire-distance circuits **bit-identically**
//! to the naturally sized slab, in O(window + queue) memory, with queue
//! occupancy never exceeding the plan's static bound.

use haac::core::lower::served_window;
use haac::core::{
    compiler, lower_for_streaming, lower_with_reorder, lower_with_window, plan_from_program,
    ReorderKind, WindowModel,
};
use haac::gc::{HashScheme, StreamingEvaluator, StreamingGarbler};
use haac::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

/// An adversarial skip-connection circuit: a handful of early wires are
/// re-read at ever-growing distances while a long local chain keeps the
/// address frontier marching — the wire-distance profile renaming
/// cannot compact and a small window cannot hold.
fn skip_connection_circuit(chain: usize, skip_every: usize) -> Circuit {
    let mut b = Builder::new();
    let x = b.input_garbler(4);
    let y = b.input_evaluator(4);
    let anchors: Vec<_> = x.iter().zip(&y).map(|(&a, &c)| b.xor(a, c)).collect();
    let mut acc = b.and(anchors[0], anchors[1]);
    for i in 0..chain {
        // Local work (keeps distances small)...
        acc = b.xor(acc, anchors[(i + 1) % anchors.len()]);
        let t = b.and(acc, anchors[i % anchors.len()]);
        // ...with a periodic long skip back to the very first anchors.
        acc = if i % skip_every == 0 { b.xor(t, anchors[0]) } else { t };
    }
    let mut outs = vec![acc];
    outs.push(anchors[2]); // an early wire that is also a circuit output
    b.finish(outs).unwrap()
}

/// Streams a garbling + evaluation of `plan`, returning the full table
/// stream, the decode string, and both finishes.
#[allow(clippy::type_complexity)]
fn run_plan(
    plan: &haac::core::StreamingPlan,
    g_bits: &[bool],
    e_bits: &[bool],
    seed: u64,
    chunk: usize,
) -> (Vec<[haac::gc::Block; 2]>, Vec<bool>, haac::gc::GarblerFinish, haac::gc::EvaluatorFinish) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut garbler = StreamingGarbler::with_plan(&plan.program, &mut rng, HashScheme::Rekeyed);
    let inputs = garbler.encode_inputs(g_bits, e_bits);
    let mut evaluator = StreamingEvaluator::with_plan(&plan.program, inputs, HashScheme::Rekeyed);
    let mut tables = Vec::new();
    while let Some(chunk_tables) = garbler.next_tables(chunk) {
        evaluator.feed(&chunk_tables);
        tables.extend(chunk_tables);
    }
    let gfin = garbler.finish();
    let efin = evaluator.finish(&gfin.output_decode);
    (tables, gfin.output_decode.clone(), gfin, efin)
}

#[test]
fn tiny_window_streams_are_wire_identical_to_the_big_slab() {
    let c = skip_connection_circuit(600, 7);
    let g_bits = [true, false, true, true];
    let e_bits = [false, true, true, false];
    let natural = lower_for_streaming(&c);
    assert!(!natural.program.has_oor());
    assert!(natural.window.sww_wires() > 8, "the skips must force a big natural window");

    let (big_tables, big_decode, big_g, _big_e) = run_plan(&natural, &g_bits, &e_bits, 0xF00D, 64);

    for window in [2u32, 4, 8, 16] {
        let plan = lower_with_window(&c, ReorderKind::Baseline, WindowModel::new(window));
        assert!(plan.program.has_oor(), "window {window} must spill");
        assert_eq!(plan.window.sww_wires(), window);
        let bound = plan.program.oor_queue_bound();
        assert!(bound > 0);
        assert!(bound <= plan.program.oor_read_count());

        for chunk in [1usize, 5, 64, 10_000] {
            let (tables, decode, gfin, efin) = run_plan(&plan, &g_bits, &e_bits, 0xF00D, chunk);
            // Bit-identical on the wire: same tables, same decode.
            assert_eq!(tables, big_tables, "w={window} chunk={chunk}");
            assert_eq!(decode, big_decode, "w={window} chunk={chunk}");
            assert_eq!(gfin.crypto, big_g.crypto, "w={window} chunk={chunk}");
            // Correct outputs, and the queue respected its static bound
            // on both sides.
            assert_eq!(efin.outputs, c.eval(&g_bits, &e_bits).unwrap(), "w={window}");
            assert!(gfin.oor_queue_peak > 0, "w={window}: the queue must have been used");
            assert!(
                gfin.oor_queue_peak <= bound,
                "w={window}: garbler queue peak {} exceeds the planned bound {bound}",
                gfin.oor_queue_peak
            );
            assert!(
                efin.oor_queue_peak <= bound,
                "w={window}: evaluator queue peak {} exceeds the planned bound {bound}",
                efin.oor_queue_peak
            );
            assert_eq!(gfin.oor_queue_peak, efin.oor_queue_peak, "both sides drain identically");
        }
    }
}

#[test]
fn a_circuit_longer_than_the_sww_spills_under_the_plain_served_lowering() {
    // No forced window here: ~150 k gates re-reading four early anchors
    // push the natural window to 262 144 labels, so the lowering every
    // session uses caps the slab at the paper's 2 MB SWW and routes the
    // far reads through the statically slotted store — on all three
    // schedules, wire-identical to the natural-window plan of the same
    // order.
    let c = skip_connection_circuit(70_000, 7);
    let g_bits = [true, false, true, true];
    let e_bits = [false, true, true, false];
    let sww = served_window();
    for kind in [ReorderKind::Baseline, ReorderKind::Full, ReorderKind::Segment] {
        let natural = plan_from_program(
            &compiler::reorder(&c, kind, sww),
            c.garbler_inputs(),
            c.evaluator_inputs(),
            kind,
        )
        .unwrap();
        assert!(!natural.program.has_oor(), "{kind:?}");
        assert!(natural.program.slot_wires() > sww.sww_wires(), "{kind:?}: the test needs a spill");

        let plan = lower_with_reorder(&c, kind);
        assert!(plan.program.has_oor(), "{kind:?}");
        assert_eq!(plan.program.slot_wires(), 131_072, "{kind:?}");
        assert_eq!(plan.window, sww, "{kind:?}");
        let bound = plan.program.oor_queue_bound();
        assert!(bound > 0 && bound <= plan.program.oor_read_count(), "{kind:?}: bound {bound}");

        let (big_tables, big_decode, big_g, big_e) =
            run_plan(&natural, &g_bits, &e_bits, 0x5AA, 2048);
        let (tables, decode, gfin, efin) = run_plan(&plan, &g_bits, &e_bits, 0x5AA, 2048);
        assert_eq!(tables, big_tables, "{kind:?}");
        assert_eq!(decode, big_decode, "{kind:?}");
        assert_eq!((gfin.crypto, efin.crypto), (big_g.crypto, big_e.crypto), "{kind:?}");
        assert_eq!(efin.outputs, c.eval(&g_bits, &e_bits).unwrap(), "{kind:?}");
        // The anchors stay queued together, so the run reaches the
        // static bound exactly — on both sides.
        assert_eq!(gfin.oor_queue_peak, bound, "{kind:?}: garbler");
        assert_eq!(efin.oor_queue_peak, bound, "{kind:?}: evaluator");
    }

    // And through the session layer, which lowers the same way.
    let config = SessionConfig::for_circuit_with(&c, ReorderKind::Segment);
    assert!(config.plan.program.has_oor());
    let (g, e) = run_local_session(&c, &g_bits, &e_bits, 78, &config).unwrap();
    assert_eq!(g.outputs, c.eval(&g_bits, &e_bits).unwrap());
    assert_eq!(e.outputs, g.outputs);
    assert!(g.oor_queue_peak > 0 && e.oor_queue_peak > 0, "both parties queue far reads");
    assert_eq!(g.oor_queue_peak, e.oor_queue_peak);
}

#[test]
fn the_served_matmult_paper_plan_keeps_its_shape_and_streams_to_plaintext() {
    // The benchmark's `long_stream` circuit under the server's own
    // schedule, pinned outside the benchmark: the 2 MB SWW, a store no
    // larger than the re-read primary inputs (4 096 of them; measured
    // bound 4 096), full AND batches (measured 7.81 of 8), and a live
    // set two orders of magnitude under the circuit (measured 15 738).
    let kind = WorkloadKind::MatMult;
    let w = build_workload(kind, Scale::Paper);
    let plan = lower_with_reorder(&w.circuit, haac::server::choose_reorder(kind));
    let program = &plan.program;
    assert!(program.has_oor());
    assert_eq!(program.slot_wires(), 131_072);
    assert!(program.oor_queue_bound() <= 4_300, "store {}", program.oor_queue_bound());
    assert!(program.ands_per_batch() >= 7.5, "mean run {}", program.ands_per_batch());
    assert!(program.peak_live() <= 20_000, "live {}", program.peak_live());

    let (tables, _, gfin, efin) = run_plan(&plan, &w.garbler_bits, &w.evaluator_bits, 0x10A6, 2048);
    assert_eq!(tables.len(), w.circuit.num_and_gates());
    assert_eq!(efin.outputs, w.expected);
    assert_eq!(gfin.oor_queue_peak, efin.oor_queue_peak);
    assert!(gfin.oor_queue_peak <= program.oor_queue_bound());
}

#[test]
fn vip_workloads_stream_through_forced_small_windows() {
    // Real workloads, windows forced to an eighth of natural: the OoRW
    // queue keeps transcripts identical and outputs correct. Scale
    // follows `HAAC_SCALE`, so the CI paper-scale smoke reruns this
    // exact invariant at millions of gates without a second test body.
    for kind in [WorkloadKind::Hamming, WorkloadKind::DotProduct, WorkloadKind::BubbleSort] {
        let w = build_workload(kind, Scale::from_env());
        let natural = lower_for_streaming(&w.circuit);
        let forced = WindowModel::new((natural.window.sww_wires() / 8).max(2));
        let plan = lower_with_window(&w.circuit, ReorderKind::Baseline, forced);
        if !plan.program.has_oor() {
            continue; // this workload's distances already fit; nothing to test
        }
        let (big_tables, big_decode, ..) =
            run_plan(&natural, &w.garbler_bits, &w.evaluator_bits, 0xBEE, 512);
        let (tables, decode, gfin, efin) =
            run_plan(&plan, &w.garbler_bits, &w.evaluator_bits, 0xBEE, 512);
        assert_eq!(tables, big_tables, "{}", kind.name());
        assert_eq!(decode, big_decode, "{}", kind.name());
        assert_eq!(efin.outputs, w.expected, "{}", kind.name());
        assert!(gfin.oor_queue_peak <= plan.program.oor_queue_bound(), "{}", kind.name());
        eprintln!(
            "{}: window {} → {} (slab labels), queue bound {} (peak {})",
            kind.name(),
            natural.window.sww_wires(),
            plan.window.sww_wires(),
            plan.program.oor_queue_bound(),
            gfin.oor_queue_peak
        );
    }
}

#[test]
fn dense_and_runs_with_in_run_oor_producers_stream_correctly() {
    // Consecutive AND gates where a later gate of the *same batch run*
    // reads an earlier one's output at a distance beyond a tiny
    // window: the OoRW entry is enqueued by a write that is itself
    // part of the batch, so the executor must break the run before the
    // consumer instead of popping an empty queue (regression test for
    // the use-before-def the batch scheduler had).
    // The gates of each group are mutually independent through their
    // *real* addresses (they read only primary inputs), so the batch
    // scheduler happily runs all of them as one wave — except that the
    // fourth gate reads the first one's output at distance 3, which a
    // 2-wire window rewrites to an OoRW sentinel. The producing write
    // is then part of the very batch the consumer sits in.
    let mut b = Builder::new();
    let x = b.input_garbler(2);
    let y = b.input_evaluator(2);
    let mut outs = Vec::new();
    for _ in 0..6 {
        let q0 = b.and(x[0], y[0]);
        let q1 = b.and(x[1], y[1]);
        let q2 = b.and(x[0], y[1]);
        let skip = b.and(x[1], q0); // distance 3: in-batch producer
        outs.extend([q1, q2, skip]);
    }
    let mut acc = outs[0];
    for &w in &outs[1..] {
        acc = b.xor(acc, w);
    }
    let c = b.finish(vec![acc]).unwrap();
    let g_bits = [true, true];
    let e_bits = [true, false];

    let natural = lower_for_streaming(&c);
    let (big_tables, big_decode, ..) = run_plan(&natural, &g_bits, &e_bits, 0xD0, 4096);
    for window in [2u32, 4] {
        let plan = lower_with_window(&c, ReorderKind::Baseline, WindowModel::new(window));
        assert!(plan.program.has_oor(), "w={window} must spill");
        for chunk in [1usize, 3, 4096] {
            let (tables, decode, gfin, efin) = run_plan(&plan, &g_bits, &e_bits, 0xD0, chunk);
            assert_eq!(tables, big_tables, "w={window} chunk={chunk}");
            assert_eq!(decode, big_decode, "w={window} chunk={chunk}");
            assert_eq!(efin.outputs, c.eval(&g_bits, &e_bits).unwrap(), "w={window}");
            assert!(gfin.oor_queue_peak <= plan.program.oor_queue_bound(), "w={window}");
        }
    }
}

#[test]
fn oorw_sessions_run_end_to_end_over_a_real_channel() {
    // A full two-party session driven by a forced-window plan: the
    // header announces the small window, both parties queue the same
    // OoR labels, and the outputs still decode to plaintext.
    let c = skip_connection_circuit(300, 5);
    let g_bits = [true, true, false, true];
    let e_bits = [true, false, false, true];
    let natural = lower_for_streaming(&c);
    let forced = WindowModel::new(8);
    let plan = lower_with_window(&c, ReorderKind::Baseline, forced);
    assert!(plan.program.has_oor());
    let config = SessionConfig::from_plan(HashScheme::Rekeyed, std::sync::Arc::new(plan));
    let (g, e) = run_local_session(&c, &g_bits, &e_bits, 77, &config).unwrap();
    assert_eq!(g.outputs, c.eval(&g_bits, &e_bits).unwrap());
    assert_eq!(e.outputs, g.outputs);

    // Same bytes as a session on the natural plan at equal chunking.
    let natural_config =
        SessionConfig::from_plan(HashScheme::Rekeyed, std::sync::Arc::new(natural))
            .with_chunk_tables(config.chunk_tables());
    let (gn, _) = run_local_session(&c, &g_bits, &e_bits, 77, &natural_config).unwrap();
    assert_eq!(g.tables, gn.tables);
    assert_eq!(g.bytes_sent, gn.bytes_sent, "table payloads must be byte-identical");
}
