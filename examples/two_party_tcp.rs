//! A genuine two-party garbled-circuit session over TCP.
//!
//! Both parties hold the same public circuit (a 32-bit millionaires'
//! comparator), contribute private inputs, and learn only the output.
//! The garbler streams tables in 64 KiB frames over a real socket;
//! the evaluator consumes them with O(window) live-wire memory.
//!
//! Run self-contained (both roles, loopback TCP):
//!
//! ```text
//! cargo run --release --example two_party_tcp
//! ```
//!
//! Or as two real processes (start the evaluator first):
//!
//! ```text
//! cargo run --release --example two_party_tcp -- evaluator 0.0.0.0:7700 3141592
//! cargo run --release --example two_party_tcp -- garbler  127.0.0.1:7700 5000000
//! ```

use std::net::TcpListener;
use std::thread;

use haac::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The shared public function: is Alice's 32-bit value greater than
/// Bob's, and are they equal?
fn comparator() -> Circuit {
    let mut b = Builder::new();
    let alice = b.input_garbler(32);
    let bob = b.input_evaluator(32);
    let greater = b.gt_u(&alice, &bob);
    let equal = b.eq_words(&alice, &bob);
    b.finish(vec![greater, equal]).expect("comparator circuit is valid")
}

fn print_report(who: &str, report: &SessionReport) {
    println!(
        "[{who}] outputs: greater={} equal={} — {} B sent, {} B received, \
         {} table chunks, peak {} live wires, {:?}",
        report.outputs[0],
        report.outputs[1],
        report.bytes_sent,
        report.bytes_received,
        report.table_chunks,
        report.peak_live_wires,
        report.elapsed,
    );
}

fn run_garbler_side(addr: &str, value: u64) {
    let circuit = comparator();
    let mut channel = TcpChannel::connect(addr).expect("connect to the evaluator");
    println!("[garbler] connected to {addr}");
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    let config = SessionConfig::for_circuit(&circuit);
    let report =
        run_garbler(&to_bits(value, 32), &mut rng, &config, &mut channel).expect("garbler session");
    print_report("garbler", &report);
}

fn run_evaluator_side(addr: &str, value: u64) {
    let circuit = comparator();
    let listener = TcpListener::bind(addr).expect("bind listen address");
    println!("[evaluator] listening on {}", listener.local_addr().expect("local addr"));
    let (stream, peer) = listener.accept().expect("accept the garbler");
    println!("[evaluator] garbler connected from {peer}");
    let mut channel = TcpChannel::from_stream(stream).expect("evaluator channel");
    let mut rng = StdRng::seed_from_u64(0xB0B);
    let config = SessionConfig::for_circuit(&circuit);
    let report = run_evaluator(&to_bits(value, 32), &mut rng, &config, &mut channel)
        .expect("evaluator session");
    print_report("evaluator", &report);
}

fn run_local() {
    let alice_value = 5_000_000u64;
    let bob_value = 3_141_592u64;
    println!("self-contained demo: Alice has {alice_value}, Bob has {bob_value}");

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let evaluator = thread::spawn(move || {
        let circuit = comparator();
        let (stream, _) = listener.accept().expect("accept");
        let mut channel = TcpChannel::from_stream(stream).expect("channel");
        let mut rng = StdRng::seed_from_u64(0xB0B);
        let config = SessionConfig::for_circuit(&circuit);
        run_evaluator(&to_bits(bob_value, 32), &mut rng, &config, &mut channel)
            .expect("evaluator session")
    });

    let circuit = comparator();
    let mut channel = TcpChannel::connect(&addr).expect("connect");
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    let config = SessionConfig::for_circuit(&circuit);
    let garbler_report = run_garbler(&to_bits(alice_value, 32), &mut rng, &config, &mut channel)
        .expect("garbler session");
    let evaluator_report = evaluator.join().expect("evaluator thread");

    print_report("garbler", &garbler_report);
    print_report("evaluator", &evaluator_report);
    assert_eq!(garbler_report.outputs, evaluator_report.outputs);
    assert_eq!(garbler_report.outputs, vec![alice_value > bob_value, alice_value == bob_value]);
    println!(
        "verdict over real TCP ({addr}): {}",
        if garbler_report.outputs[0] { "Alice is richer" } else { "Bob is at least as rich" }
    );
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        None => run_local(),
        Some(role @ ("garbler" | "evaluator")) => {
            let addr = args.get(2).map(String::as_str).unwrap_or("127.0.0.1:7700");
            let value: u64 = args
                .get(3)
                .map(|v| v.parse().expect("value must be a u64"))
                .unwrap_or(if role == "garbler" { 5_000_000 } else { 3_141_592 });
            if role == "garbler" {
                run_garbler_side(addr, value);
            } else {
                run_evaluator_side(addr, value);
            }
        }
        Some(other) => {
            eprintln!("unknown role `{other}`; use `garbler`, `evaluator`, or no argument");
            std::process::exit(2);
        }
    }
}
