//! The table-frame contract of the serving path: the default `Tables`
//! frame is a transport-sized constant (64 KiB), bounded by half the
//! sliding wire window only where that is smaller, every driver frames
//! by it, and what finer framing costs on the wire is an exact count —
//! 17 B per extra frame, 13 B per extra ack.

use haac::prelude::*;
use haac::server::choose_reorder;
use haac_runtime::{run_evaluator, run_garbler_resumable, MemChannel, RuntimeError};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The circuits the server is benchmarked on, lowered as it lowers
/// them: all eight workloads at `Small`, MatMult also at paper scale.
fn served_circuits() -> Vec<(WorkloadKind, Scale)> {
    let mut served: Vec<_> = WorkloadKind::ALL.iter().map(|&k| (k, Scale::Small)).collect();
    served.push((WorkloadKind::MatMult, Scale::Paper));
    served
}

#[test]
fn default_frame_is_64_kib_or_half_a_smaller_window_and_sessions_frame_by_it() {
    for (kind, scale) in served_circuits() {
        let name = format!("{} at {scale:?}", kind.name());
        let w = build_workload(kind, scale);
        let config = SessionConfig::for_circuit_with(&w.circuit, choose_reorder(kind));
        assert_eq!(config.chunk_override, None, "{name}: the default, not a pin");
        let frame = config.chunk_tables();
        let half = config.plan.window.half() as usize;
        assert!(frame * 32 <= 64 << 10, "{name}: {frame} tables exceed a 64 KiB frame");
        assert_eq!(frame, half.min(2048), "{name}: half-window {half}");

        let (g, e) = run_local_session(&w.circuit, &w.garbler_bits, &w.evaluator_bits, 11, &config)
            .unwrap_or_else(|err| panic!("{name}: {err}"));
        // The plan's tables: the live ANDs under a compiled schedule.
        let frames = (config.plan.and_count() as u64).div_ceil(frame as u64);
        assert_eq!(g.table_chunks, frames, "{name}: garbler frames");
        assert_eq!(e.table_chunks, frames, "{name}: evaluator frames");
        assert_eq!(g.outputs, w.expected, "{name}");
        assert_eq!(e.outputs, w.expected, "{name}");
    }
}

/// A resumable garbler against an ack-honoring evaluator over an
/// in-process channel: the serving path's wire protocol without a
/// server around it.
fn run_acked(
    w: &haac::workloads::Workload,
    config: &SessionConfig,
) -> (SessionReport, SessionReport) {
    let (g_end, mut e_end) = MemChannel::pair();
    std::thread::scope(|scope| {
        let garbler = scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(5);
            let no_resume = |_: &RuntimeError, _| None::<(MemChannel, u64)>;
            run_garbler_resumable(&w.garbler_bits, &mut rng, config, g_end, no_resume)
        });
        let mut rng = StdRng::seed_from_u64(6);
        let e = run_evaluator(&w.evaluator_bits, &mut rng, config, &mut e_end);
        (garbler.join().expect("garbler thread").expect("garbler"), e.expect("evaluator"))
    })
}

#[test]
fn finer_frames_cost_17_bytes_a_frame_and_13_bytes_an_ack_exactly() {
    // GradDesc: 18 default frames, so one ack at the default cadence.
    let w = build_workload(WorkloadKind::GradDesc, Scale::Small);
    let default = SessionConfig::for_circuit_with(&w.circuit, choose_reorder(w.kind));
    let one_frame = default.clone().with_chunk_tables(w.circuit.num_and_gates());
    let (g1, e1) = run_acked(&w, &one_frame);
    let (g, e) = run_acked(&w, &default);
    assert_eq!((g1.table_chunks, g1.outputs), (1, w.expected.clone()));
    assert_eq!(g.outputs, w.expected);

    let extra_frames = g.table_chunks - 1;
    let acks = g.table_chunks / u64::from(default.ack_interval);
    assert!(extra_frames >= 16 && acks >= 1, "{} frames", g.table_chunks);
    // Same seeds, same labels, same tables: the transcripts differ in
    // framing alone.
    assert_eq!(g.bytes_sent, g1.bytes_sent + 17 * extra_frames);
    assert_eq!(e.bytes_sent, e1.bytes_sent + 13 * acks);
    assert_eq!((g.bytes_sent, e.bytes_sent), (e.bytes_received, g.bytes_received));
}
