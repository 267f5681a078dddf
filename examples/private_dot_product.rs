//! Private dot product — the VIP-Bench workload as a real application.
//!
//! Two parties each hold a feature vector (say, a portfolio and a risk
//! model) and want the inner product without revealing the vectors. This
//! example runs the paper's DotProd workload through the two-party
//! protocol and compares the three execution targets the paper compares:
//! plaintext CPU, GC on CPU, and GC on the simulated HAAC accelerator.
//!
//! Run with: `cargo run --release --example private_dot_product`

use std::time::Instant;

use haac::prelude::*;
use haac::workloads::{bits_to_u32s, dot_product, u32s_to_bits};

fn main() {
    let n = dot_product::num_elements(Scale::Small);
    let xs: Vec<u32> = (1..=n as u32).collect();
    let ys: Vec<u32> = (0..n as u32).map(|i| 100 + i).collect();
    let g_bits = u32s_to_bits(&xs);
    let e_bits = u32s_to_bits(&ys);

    let w = build_workload(WorkloadKind::DotProduct, Scale::Small);
    println!(
        "DotProd ({n} × 32-bit): {} gates, {} AND",
        w.circuit.num_gates(),
        w.circuit.num_and_gates()
    );

    // Plaintext.
    let t0 = Instant::now();
    let plain = w.run_plaintext(&g_bits, &e_bits);
    let t_plain = t0.elapsed();
    println!("plaintext result: {} in {t_plain:?}", bits_to_u32s(&plain)[0]);

    // Two-party GC, streamed: garbler and evaluator threads joined by
    // in-process channels, tables shipped in 64 KiB frames.
    let t0 = Instant::now();
    let config = SessionConfig::for_circuit(&w.circuit);
    let (run, evaluator) =
        run_local_session(&w.circuit, &g_bits, &e_bits, 99, &config).expect("session");
    let t_gc = t0.elapsed();
    assert_eq!(run.outputs, plain);
    println!(
        "streaming two-party GC: same result in {t_gc:?} ({:.0}× plaintext); \
         {} chunks, {} B on the wire, peak {} live wires of {}",
        t_gc.as_secs_f64() / t_plain.as_secs_f64().max(1e-9),
        run.table_chunks,
        run.bytes_sent,
        evaluator.peak_live_wires,
        w.circuit.num_wires(),
    );

    // HAAC, both memory systems.
    for dram in [DramKind::Ddr4, DramKind::Hbm2] {
        let config = HaacConfig { dram, ..HaacConfig::default() };
        let (lowered, _) = compile(&w.circuit, ReorderKind::Full, config.window());
        let report = map_and_simulate(&lowered, &config);
        println!(
            "HAAC ({}): {:.3} µs — {:.0}× faster than this CPU's GC",
            dram.label(),
            report.seconds * 1e6,
            t_gc.as_secs_f64() / report.seconds
        );
    }
}
