//! The millionaires' problem, end to end: Alice and Bob learn who is
//! richer — and nothing else.
//!
//! This is the canonical two-party-computation demo (Yao 1986). The
//! example runs the real streaming protocol — garbler and evaluator on
//! separate threads joined by in-process channels, base OT for Bob's
//! input labels, tables streamed in 64 KiB frames — and then shows
//! what the HAAC accelerator would do with the same circuit.
//!
//! Run with: `cargo run --release --example millionaires`

use haac::prelude::*;

fn main() {
    let alice_wealth = 62_000_000u64;
    let bob_wealth = 58_999_999u64;

    let mut b = Builder::new();
    let alice = b.input_garbler(64);
    let bob = b.input_evaluator(64);
    let alice_richer = b.gt_u(&alice, &bob);
    let equal = b.eq_words(&alice, &bob);
    let circuit = b.finish(vec![alice_richer, equal]).expect("comparator circuit is valid");

    println!(
        "millionaires' comparator: {} gates ({} AND) over 64-bit wealth",
        circuit.num_gates(),
        circuit.num_and_gates()
    );

    let config = SessionConfig::for_circuit(&circuit);
    let (run, evaluator) = run_local_session(
        &circuit,
        &to_bits(alice_wealth, 64),
        &to_bits(bob_wealth, 64),
        2023,
        &config,
    )
    .expect("in-process session");
    let (richer, equal) = (run.outputs[0], run.outputs[1]);
    println!(
        "verdict: {}",
        if equal {
            "equally wealthy"
        } else if richer {
            "Alice is richer"
        } else {
            "Bob is richer"
        }
    );
    println!(
        "streamed session: {} B sent / {} B received by Alice in {} chunks, {} OTs",
        run.bytes_sent, run.bytes_received, run.table_chunks, evaluator.ot_transfers
    );
    println!(
        "evaluator held at most {} live wires of {} total (window: {}) — and neither party saw a number",
        evaluator.peak_live_wires,
        circuit.num_wires(),
        config.window.sww_wires()
    );

    // The HAAC view of the same computation.
    let haac = HaacConfig::default();
    let (lowered, stats) = compile(&circuit, ReorderKind::Full, haac.window());
    let report = map_and_simulate(&lowered, &haac);
    println!(
        "on HAAC: {} instructions in {} cycles ({:.1} ns) — {} tables streamed",
        stats.instructions,
        report.cycles,
        report.seconds * 1e9,
        stats.and_count
    );
}
