//! A garbling made ahead of time for the bank (`garble_plan_in`) must
//! be **wire-bit-identical** to the streaming slab path across all 8
//! VIP workloads × {Baseline, Full, Segment} reorders, and every
//! reorder must run end to end as a negotiated session.
//!
//! Every configuration shares one `SlotProgram` contract: the compiled
//! plan is the single artifact feeding the streaming executors, the
//! bank's producer, and (through the session layer) both protocol
//! parties.

use std::sync::Arc;

use haac::core::{lower_with_reorder, ReorderKind};
use haac::gc::{garble_plan_in, EnginePool, HashScheme, StreamingEvaluator, StreamingGarbler};
use haac::prelude::*;
use haac_runtime::{RuntimeError, SessionPhase};
use haac_workloads::Workload;
use rand::{rngs::StdRng, SeedableRng};

const REORDERS: [ReorderKind; 3] = [ReorderKind::Baseline, ReorderKind::Full, ReorderKind::Segment];

#[test]
fn pooled_garbling_is_bit_identical_to_the_streaming_slab_path() {
    // One persistent pool, reused across every workload and reorder —
    // the server's execution model.
    let pool = EnginePool::new(2);
    for kind in WorkloadKind::ALL {
        let w = build_workload(kind, Scale::Small);
        for reorder in REORDERS {
            let plan = lower_with_reorder(&w.circuit, reorder);
            assert_eq!(plan.reorder, reorder);
            let seed = 0x90a + kind as u64 * 31 + reorder as u64;

            // Online reference: the streaming garbler run to completion.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut single =
                StreamingGarbler::with_plan(&plan.program, &mut rng, HashScheme::Rekeyed);
            let delta = single.delta();
            let mut reference = Vec::new();
            while let Some(chunk) = single.next_tables(1013) {
                reference.extend(chunk);
            }
            let finish = single.finish();

            let mut rng = StdRng::seed_from_u64(seed);
            let pooled = garble_plan_in(&plan.program, &mut rng, HashScheme::Rekeyed, &pool);
            let tag = format!("{} {:?}", kind.name(), reorder);
            assert_eq!(pooled.delta, delta, "{tag}");
            assert_eq!(pooled.tables, reference, "{tag}");
            assert_eq!(pooled.output_decode, finish.output_decode, "{tag}");
            assert_eq!(pooled.crypto, finish.crypto, "{tag}");
        }
    }
}

#[test]
fn pooled_reordered_garblings_evaluate_to_the_plaintext_reference() {
    // End-to-end: an ahead-of-time garbling under each reorder decodes
    // to the plaintext reference through the slab evaluator driven by
    // the same plan.
    let pool = EnginePool::new(4);
    for kind in [WorkloadKind::Hamming, WorkloadKind::DotProduct, WorkloadKind::Relu] {
        let w = build_workload(kind, Scale::Small);
        for reorder in REORDERS {
            let plan = lower_with_reorder(&w.circuit, reorder);
            let mut rng = StdRng::seed_from_u64(0xE2E + reorder as u64);
            let pooled = garble_plan_in(&plan.program, &mut rng, HashScheme::Rekeyed, &pool);
            let inputs = pooled.encode_inputs(&w.garbler_bits, &w.evaluator_bits);
            let mut evaluator =
                StreamingEvaluator::with_plan(&plan.program, inputs, HashScheme::Rekeyed);
            evaluator.feed(&pooled.tables);
            let finish = evaluator.finish(&pooled.output_decode);
            assert_eq!(finish.outputs, w.expected, "{} {:?}", kind.name(), reorder);
        }
    }
}

#[test]
fn reordered_sessions_run_end_to_end_with_negotiated_schedules() {
    // The tentpole's session half: real two-party sessions on the
    // ILP-friendly orders, both parties lowering from the negotiated
    // ReorderKind in the header.
    for kind in WorkloadKind::ALL {
        let w = build_workload(kind, Scale::Small);
        for reorder in REORDERS {
            let config = SessionConfig::for_circuit_with(&w.circuit, reorder);
            assert_eq!(config.reorder(), reorder);
            let (g, e) = run_local_session(
                &w.circuit,
                &w.garbler_bits,
                &w.evaluator_bits,
                0x5e55 + reorder as u64,
                &config,
            )
            .unwrap_or_else(|err| panic!("{} {:?}: {err}", kind.name(), reorder));
            assert_eq!(g.outputs, w.expected, "{} {:?}", kind.name(), reorder);
            assert_eq!(e.outputs, w.expected, "{} {:?}", kind.name(), reorder);
            assert_eq!(g.tables, config.plan.and_count() as u64);
            assert!(e.within_window, "{} {:?}", kind.name(), reorder);
        }
    }
}

/// Runs one session with each party on its own config, the channel
/// halves *moved* into the threads so a refusing side's hangup is
/// visible to its peer. Returns both outcomes and the bytes the
/// evaluator received.
fn run_split(
    w: &Workload,
    garbler_config: &SessionConfig,
    evaluator_config: &SessionConfig,
) -> (Result<SessionReport, RuntimeError>, Result<SessionReport, RuntimeError>, u64) {
    use haac_runtime::run_evaluator_with;

    let (mut gc, mut ec) = MemChannel::pair();
    std::thread::scope(|scope| {
        let garbler = scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(1);
            run_garbler(&w.garbler_bits, &mut rng, garbler_config, &mut gc)
        });
        let evaluator = scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(2);
            let report = run_evaluator_with(&w.evaluator_bits, &mut rng, evaluator_config, &mut ec);
            (report, ec.stats().bytes_received)
        });
        let (e, received) = evaluator.join().unwrap();
        (garbler.join().unwrap(), e, received)
    })
}

/// The evaluator's refusal of a garbler that lowered another program:
/// a typed protocol error in the handshake naming both digests, after
/// the header frame and nothing else, and a garbler that sees the
/// hangup.
fn assert_digest_refusal(w: &Workload, garbler: &SessionConfig, evaluator: &SessionConfig) {
    let (g, e, received) = run_split(w, garbler, evaluator);
    let err = e.expect_err("the evaluator must refuse another plan");
    assert!(err.to_string().contains("plan digest mismatch"), "{err}");
    for config in [garbler, evaluator] {
        let hex = format!("{:032x}", u128::from_be_bytes(config.plan.program.digest()));
        assert!(err.to_string().contains(&hex), "{err} names {hex}");
    }
    assert_eq!(err.phase(), Some(SessionPhase::Handshake), "{err}");
    assert!(
        matches!(&err, RuntimeError::Phased { source, .. } if matches!(**source, RuntimeError::Protocol(_))),
        "{err:?}"
    );
    // Only the header frame (5 + 26 bytes) was read: no label, no table.
    assert_eq!(received, 31, "the evaluator consumed nothing past the header");
    assert!(g.is_err(), "the garbler sees the hangup, not a hung stream");
}

/// MatMult is the smallest workload whose `Full` and `Segment` programs
/// differ at `Scale::Small` (every other kind fits in one segment).
#[test]
fn reorder_disagreement_is_a_typed_refusal_not_a_divergence() {
    let w = build_workload(WorkloadKind::MatMult, Scale::Small);
    let garbler_config = SessionConfig::for_circuit_with(&w.circuit, ReorderKind::Full);
    let evaluator_config = SessionConfig::for_circuit_with(&w.circuit, ReorderKind::Segment);
    assert_digest_refusal(&w, &garbler_config, &evaluator_config);
}

#[test]
fn same_tag_different_schedule_is_a_typed_refusal() {
    // Two builds that mean different schedules by one tag: the
    // evaluator holds the `Segment` program labelled `Full`. Every count
    // a header used to carry agrees; only the digest tells them apart.
    let w = build_workload(WorkloadKind::MatMult, Scale::Small);
    let full = lower_with_reorder(&w.circuit, ReorderKind::Full);
    let segment = lower_with_reorder(&w.circuit, ReorderKind::Segment);
    assert_ne!(full.program, segment.program, "the two schedules must differ");
    let (p, q) = (&full.program, &segment.program);
    assert_eq!(
        (p.garbler_inputs(), p.evaluator_inputs(), p.instrs().len(), p.and_count()),
        (q.garbler_inputs(), q.evaluator_inputs(), q.instrs().len(), q.and_count())
    );
    let relabeled = StreamingPlan { reorder: ReorderKind::Full, ..segment };
    let garbler_config = SessionConfig::from_plan(HashScheme::Rekeyed, Arc::new(full));
    let evaluator_config = SessionConfig::from_plan(HashScheme::Rekeyed, Arc::new(relabeled));
    assert_eq!(garbler_config.reorder(), evaluator_config.reorder());
    assert_digest_refusal(&w, &garbler_config, &evaluator_config);
}

#[test]
fn a_spilling_evaluator_shares_the_served_plans_digest() {
    // Routing never changes the wire, so the digest leaves it out: an
    // evaluator whose slab is far smaller than the garbler's runs the
    // same session.
    let w = build_workload(WorkloadKind::DotProduct, Scale::Small);
    let served = lower_with_reorder(&w.circuit, ReorderKind::Full);
    let spilling = lower_with_window(&w.circuit, ReorderKind::Full, WindowModel::new(64));
    assert!(!served.program.has_oor() && spilling.program.has_oor());
    assert_eq!(served.program.digest(), spilling.program.digest());
    let garbler_config = SessionConfig::from_plan(HashScheme::Rekeyed, Arc::new(served));
    let evaluator_config = SessionConfig::from_plan(HashScheme::Rekeyed, Arc::new(spilling));
    let (g, e, _) = run_split(&w, &garbler_config, &evaluator_config);
    assert_eq!(g.unwrap().outputs, w.expected);
    assert_eq!(e.unwrap().outputs, w.expected);
}

#[test]
fn the_served_plan_digest_is_pinned() {
    // The digest is integer arithmetic over the program, so it is the
    // same under every AES backend and on every target: this literal
    // holds under `HAAC_AES_BACKEND=portable` and natively. It moves
    // only when the lowering or the digest itself does — a wire change.
    let hex = |plan: &StreamingPlan| -> String {
        plan.program.digest().iter().map(|b| format!("{b:02x}")).collect()
    };
    let w = build_workload(WorkloadKind::DotProduct, Scale::Small);
    let plan = lower_with_reorder(&w.circuit, ReorderKind::Baseline);
    assert_eq!(hex(&plan), "a41b8fba2530a87cff4476aba390d1cf");
    // The live program a server serves under a compiled schedule.
    let w = build_workload(WorkloadKind::Mersenne, Scale::Small);
    let config = SessionConfig::for_circuit_with(&w.circuit, ReorderKind::Segment);
    assert_eq!(hex(&config.plan), "aa675f97d9ae7457da85f95689dec25c");
}

#[test]
fn a_client_that_lowered_the_unpruned_netlist_is_refused() {
    // The server serves Merse's live program; a client that lowered the
    // netlist as given holds another program of the same schedule, and
    // is refused in the handshake before any garbler label moves.
    let w = build_workload(WorkloadKind::Mersenne, Scale::Small);
    let server = SessionConfig::for_circuit_with(&w.circuit, ReorderKind::Segment);
    let unpruned = lower_with_reorder(&w.circuit, ReorderKind::Segment);
    assert!(unpruned.and_count() > server.plan.and_count());
    let client = SessionConfig::from_plan(HashScheme::Rekeyed, Arc::new(unpruned));
    assert_digest_refusal(&w, &server, &client);
}
