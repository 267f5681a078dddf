//! The live-plan invariants: under the compiled schedules (`Full`,
//! `Segment`) a session serves only the gates and garbler inputs some
//! output depends on, and `Baseline` serves the netlist as given.
//!
//! Every plan here comes from the one lowering both parties of a served
//! session use, `SessionConfig::for_circuit_with`, and is held against
//! `lower_with_reorder`'s unpruned plan of the same circuit and
//! schedule.

use std::collections::HashSet;

use haac::gc::{garble_plan_in, EnginePool, OOR_SLOT};
use haac::prelude::*;
use haac_runtime::{run_garbler_banked, RuntimeError};
use haac_workloads::Workload;
use rand::{rngs::StdRng, SeedableRng};

const COMPILED: [ReorderKind; 2] = [ReorderKind::Full, ReorderKind::Segment];

/// Instructions and tables the live plan drops, by kind at `Small`:
/// exactly the gates and ANDs `haac_circuit::opt::prune` removes from
/// the netlist.
fn dead_at_small(kind: WorkloadKind) -> (usize, usize) {
    match kind {
        WorkloadKind::Mersenne => (28_671, 3),
        WorkloadKind::DotProduct => (769, 259),
        WorkloadKind::MatMult => (2_538, 864),
        WorkloadKind::GradDesc => (2_522, 377),
        WorkloadKind::BubbleSort => (2_178, 0),
        WorkloadKind::Triangle => (1_423, 621),
        WorkloadKind::Hamming | WorkloadKind::Relu => (0, 0),
    }
}

fn served(w: &Workload, reorder: ReorderKind) -> StreamingPlan {
    let plan = SessionConfig::for_circuit_with(&w.circuit, reorder).plan;
    std::sync::Arc::try_unwrap(plan).expect("a fresh config holds the only reference")
}

/// Asserts the live plan's invariants against the unpruned plan of the
/// same schedule, and that it decodes to the plaintext from the
/// declared-width garbler bits.
fn assert_live(w: &Workload, reorder: ReorderKind, dead: (usize, usize)) {
    let tag = format!("{} {reorder:?} at {:?}", w.kind.name(), w.scale);
    let live = served(w, reorder);
    let full = lower_with_reorder(&w.circuit, reorder);
    let program = &live.program;

    // Every address a later instruction reads, in the slab or through
    // the OoRW store (a routed operand names its source in the plan's
    // enqueue points, not in the instruction).
    let mut read: HashSet<u32> = program.oor_sources().iter().map(|&(addr, _)| addr).collect();
    read.extend(program.instrs().iter().flat_map(|i| i.operands()).filter(|&a| a != OOR_SLOT));
    let outputs: HashSet<u32> = program.output_addrs().iter().copied().collect();
    let first_out = program.first_output_addr();
    for i in 0..program.instrs().len() as u32 {
        let addr = first_out + i;
        assert!(read.contains(&addr) || outputs.contains(&addr), "{tag}: instruction {i} unread");
    }
    for addr in 1..=program.garbler_inputs() {
        assert!(read.contains(&addr) || outputs.contains(&addr), "{tag}: garbler input unread");
    }

    assert_eq!(
        (full.program.instrs().len() - program.instrs().len(), full.and_count() - live.and_count()),
        dead,
        "{tag}: dead gates / dead ANDs"
    );
    assert_eq!(program.evaluator_inputs(), w.circuit.evaluator_inputs(), "{tag}");
    assert_eq!(live.garbler_width, w.circuit.garbler_inputs(), "{tag}");
    assert_eq!(live.live_garbler_inputs.len() as u32, program.garbler_inputs(), "{tag}");
    assert!(live.live_garbler_inputs.windows(2).all(|p| p[0] < p[1]), "{tag}: map ascends");
    assert_eq!(live.reorder, reorder, "{tag}");
    if dead == (0, 0) && program.garbler_inputs() == w.circuit.garbler_inputs() {
        assert_eq!(live, full, "{tag}: nothing dead, nothing changed");
    }

    let bits = live.live_garbler_bits(&w.garbler_bits);
    let mut rng = StdRng::seed_from_u64(0x11fe);
    let outputs = run_gc_through_streams(program, &bits, &w.evaluator_bits, &mut rng);
    assert_eq!(outputs, w.expected, "{tag}");
}

#[test]
fn compiled_schedules_serve_only_live_gates_and_inputs_at_small() {
    for kind in WorkloadKind::ALL {
        let w = build_workload(kind, Scale::Small);
        for reorder in COMPILED {
            assert_live(&w, reorder, dead_at_small(kind));
        }
    }
}

#[test]
fn the_served_matmult_paper_plan_is_live() {
    let w = build_workload(WorkloadKind::MatMult, Scale::Paper);
    assert_live(&w, ReorderKind::Segment, (49_216, 16_576));
}

#[test]
fn mersenne_keeps_192_of_its_19_968_garbler_inputs() {
    let w = build_workload(WorkloadKind::Mersenne, Scale::Small);
    for reorder in COMPILED {
        let plan = served(&w, reorder);
        assert_eq!(plan.garbler_width, 19_968, "{reorder:?}");
        assert_eq!(plan.live_garbler_inputs.len(), 192, "{reorder:?}");
        assert_eq!(plan.program.garbler_inputs(), 192, "{reorder:?}");
    }
}

#[test]
fn baseline_and_lean_plans_keep_lower_with_reorders_digest() {
    for kind in WorkloadKind::ALL {
        let w = build_workload(kind, Scale::Small);
        let baseline = served(&w, ReorderKind::Baseline);
        assert_eq!(baseline, lower_with_reorder(&w.circuit, ReorderKind::Baseline), "{kind:?}");
        if matches!(kind, WorkloadKind::Hamming | WorkloadKind::Relu) {
            for reorder in COMPILED {
                let full = lower_with_reorder(&w.circuit, reorder);
                assert_eq!(served(&w, reorder).program.digest(), full.program.digest());
            }
        }
    }
}

/// A typed protocol refusal before the header, naming the width handed
/// in and the declared one.
fn assert_width_refusal(result: Result<SessionReport, RuntimeError>, width: usize) {
    let err = result.expect_err("a garbler must refuse bits of the live width");
    assert!(matches!(err, RuntimeError::Protocol(_)), "{err:?}");
    assert!(err.to_string().contains(&format!("garbler input width {width}")), "{err}");
    assert!(err.to_string().contains("19968"), "{err}");
}

#[test]
fn a_garbler_handed_the_live_width_is_refused() {
    // The drivers take the circuit's declared width and select the
    // live bits themselves; the live width is not a second accepted
    // width, on either the online or the banked driver.
    let w = build_workload(WorkloadKind::Mersenne, Scale::Small);
    let config = SessionConfig::for_circuit_with(&w.circuit, ReorderKind::Segment);
    let live_bits = config.plan.live_garbler_bits(&w.garbler_bits).into_owned();
    assert_eq!(live_bits.len(), 192);
    let no_resume = |_: &RuntimeError, _| None::<(MemChannel, u64)>;

    let (mut channel, _peer) = MemChannel::pair();
    let mut rng = StdRng::seed_from_u64(3);
    assert_width_refusal(run_garbler(&live_bits, &mut rng, &config, &mut channel), 192);
    assert_eq!(channel.stats().bytes_sent, 0, "refused before the header");

    let pool = EnginePool::new(1);
    let instance = garble_plan_in(&config.plan.program, &mut rng, HashScheme::Rekeyed, &pool);
    let (channel, _peer) = MemChannel::pair();
    let banked = run_garbler_banked(&live_bits, instance, &mut rng, &config, channel, no_resume);
    assert_width_refusal(banked, 192);
}
