//! VIP-Bench tour: characterize all eight workloads (a live Table 2)
//! and verify each one end to end through the HAAC toolchain.
//!
//! Set `HAAC_SCALE=paper` for the paper's input sizes (slow: millions of
//! gates); the default small scale finishes in seconds.
//!
//! Run with: `cargo run --release --example vip_tour`

use haac::circuit::stats::CircuitStats;
use haac::core::compiler::{compile, ReorderKind};
use haac::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn main() {
    let scale = Scale::from_env();
    println!("scale: {scale:?} (set HAAC_SCALE=paper for Table 2 sizes)");
    println!(
        "{:<10} {:>8} {:>10} {:>10} {:>7} {:>8} {:>9}  verified",
        "bench", "levels", "wires(k)", "gates(k)", "AND%", "ILP", "spent%"
    );

    let config = HaacConfig::default();
    let window = config.window();
    let mut rng = StdRng::seed_from_u64(86);

    for kind in WorkloadKind::ALL {
        let w = build_workload(kind, scale);
        let s = CircuitStats::of(&w.circuit);
        let (plan, stats) = compile(&w.circuit, ReorderKind::Full, window);

        // End-to-end check: garble + evaluate through the compiled
        // program and compare with the independent plaintext reference.
        let verified = if matches!(scale, Scale::Small) {
            let got = run_gc_through_streams(&plan, &w.garbler_bits, &w.evaluator_bits, &mut rng);
            if got == w.expected {
                "ok"
            } else {
                "MISMATCH"
            }
        } else {
            "(skipped at paper scale)"
        };

        println!(
            "{:<10} {:>8} {:>10.0} {:>10.0} {:>7.2} {:>8.0} {:>8.1}%  {}",
            kind.name(),
            s.levels,
            s.wires as f64 / 1e3,
            s.gates as f64 / 1e3,
            s.and_percent,
            s.ilp,
            stats.spent_percent,
            verified
        );
    }
}
