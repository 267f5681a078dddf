//! Quickstart: the full HAAC pipeline on one small private function.
//!
//! Builds a private 32-bit multiply circuit, runs it three ways —
//! plaintext, a real two-party garbled-circuit session on the CPU, and
//! compiled onto the simulated HAAC accelerator — and reports the
//! accelerator's advantage over this machine's CPU GC (`garble` +
//! `evaluate`, the paper's baseline: gate processing only, no OT and no
//! transport).
//!
//! Run with: `cargo run --release --example quickstart`

use std::time::Instant;

use haac::prelude::*;

fn main() {
    // 1. Write the function as a circuit: Alice's x times Bob's y.
    let mut b = Builder::new();
    let x = b.input_garbler(32);
    let y = b.input_evaluator(32);
    let product = b.mul_words_trunc(&x, &y);
    let circuit = b.finish(product).expect("multiplier circuit is valid");
    println!(
        "circuit: {} gates ({} AND), depth {}",
        circuit.num_gates(),
        circuit.num_and_gates(),
        circuit.depth()
    );

    let alice = 123_456u64;
    let bob = 7_891u64;

    // 2. Plaintext reference.
    let plain =
        circuit.eval(&to_bits(alice, 32), &to_bits(bob, 32)).expect("inputs are the right width");
    println!("plaintext: {alice} * {bob} = {}", from_bits(&plain));

    // 3. Real two-party GC protocol on the CPU: a streamed session with
    //    real OT between a garbler and an evaluator thread.
    let session = SessionConfig::for_circuit(&circuit);
    let (run, _) = run_local_session(&circuit, &to_bits(alice, 32), &to_bits(bob, 32), 7, &session)
        .expect("in-process session completes");
    assert_eq!(run.outputs, plain, "GC must agree with plaintext");
    println!(
        "two-party GC: same answer ({} bytes garbler→evaluator, {} OTs)",
        run.bytes_sent, run.ot_transfers
    );

    //    What HAAC accelerates is the gate processing inside it. Time
    //    that alone — the paper's "CPU GC" baseline.
    let mut rng = rand::thread_rng();
    let started = Instant::now();
    let garbling = garble(&circuit, &mut rng, HashScheme::Rekeyed);
    let inputs = garbling.encode_inputs(&circuit, &to_bits(alice, 32), &to_bits(bob, 32));
    let labels = evaluate(&circuit, &garbling.garbled.tables, &inputs, HashScheme::Rekeyed);
    let cpu_time = started.elapsed();
    assert_eq!(decode_outputs(&labels, &garbling.garbled.output_decode), plain);
    println!("CPU GC (garble + evaluate): {cpu_time:?}");

    // 4. Compile for HAAC and simulate the paper's headline design
    //    (16 gate engines, 2 MB SWW, DDR4).
    let config = HaacConfig::default();
    let (lowered, stats) = compile(&circuit, ReorderKind::Full, config.window());
    println!(
        "HAAC program: {} instructions, {} tables, {:.1}% spent wires, {} OoR reads",
        stats.instructions, stats.and_count, stats.spent_percent, stats.oor_count
    );
    let report = map_and_simulate(&lowered, &config);
    println!(
        "HAAC simulation: {} cycles = {:.3} µs on {} GEs ({})",
        report.cycles,
        report.seconds * 1e6,
        config.num_ges,
        config.dram.label(),
    );
    println!("speedup over this machine's CPU GC: {:.0}×", cpu_time.as_secs_f64() / report.seconds);

    // 5. And prove the compiled program still computes the right thing,
    //    end to end through the modeled memory system.
    let via_streams = run_gc_through_streams(
        &lowered,
        config.window(),
        &to_bits(alice, 32),
        &to_bits(bob, 32),
        &mut rng,
        HashScheme::Rekeyed,
    )
    .expect("compiled program respects the memory discipline");
    assert_eq!(via_streams, plain);
    println!("stream-executed GC matches plaintext — compiler verified.");
}
