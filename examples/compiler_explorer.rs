//! Compiler explorer: watch the HAAC passes transform a program
//! (the paper's Fig. 5, live).
//!
//! Prints the instruction stream of a small circuit after each compiler
//! stage — baseline renaming, full reordering + renaming, and far-read
//! routing with the live bits eliminating spent wires leaves — then
//! shows how the choices change wire traffic.
//!
//! Run with: `cargo run --release --example compiler_explorer`

use haac::core::compiler::{self, ReorderKind};
use haac::core::sim::{map_and_simulate, HaacConfig};
use haac::core::WindowModel;
use haac::gc::{rename_in_order, SlotInstr};
use haac::prelude::*;

fn print_stage(title: &str, first_out: u32, instrs: &[SlotInstr], live: &[bool]) {
    println!("--- {title} ---");
    for (i, instr) in instrs.iter().enumerate() {
        println!(
            "  {:>2}: {:?} {:>2}, {:>2} -> {}{}",
            i,
            instr.op,
            instr.a,
            instr.b,
            first_out + i as u32,
            if live.get(i) == Some(&true) { "  [live]" } else { "" },
        );
    }
}

fn main() {
    // The example circuit of the paper's Fig. 4/5:
    //   4 = 2 XOR 3; 5 = 2 AND 3; 6 = 1 XOR 4; 7 = 4 AND 5 (renumbered).
    let mut b = Builder::new();
    let inputs = b.input_garbler(3);
    let (w1, w2, w3) = (inputs[0], inputs[1], inputs[2]);
    let x = b.xor(w2, w3);
    let a = b.and(w2, w3);
    let y = b.xor(w1, x);
    let z = b.and(x, a);
    let circuit = b.finish(vec![y, z]).expect("example circuit is valid");

    // A deliberately tiny SWW (4 wires) so the window actually slides.
    let window = WindowModel::new(4);
    let first_out = circuit.num_inputs() + 1;

    let baseline: Vec<u32> = (0..circuit.num_gates() as u32).collect();
    let (instrs, _) = rename_in_order(&circuit, &baseline);
    print_stage("baseline (renamed, original order)", first_out, &instrs, &[]);

    let full = compiler::gate_order(&circuit, ReorderKind::Full, window);
    let (instrs, _) = rename_in_order(&circuit, &full);
    print_stage("full reorder + rename (level order)", first_out, &instrs, &[]);

    let (plan, _) = compiler::compile(&circuit, ReorderKind::Full, window);
    let live = compiler::live_bits(&plan);
    print_stage(
        "far reads routed (0 = OoRW queue); live = ESW's survivors",
        first_out,
        plan.instrs(),
        &live,
    );
    println!("OoRW sources (address, store slot): {:?}", plan.oor_sources());

    // Now at benchmark scale: compare the three schedules on MatMult.
    println!();
    println!("schedule comparison on MatMult (small scale):");
    let w = build_workload(WorkloadKind::MatMult, Scale::Small);
    let config = HaacConfig { num_ges: 4, sww_bytes: 8192, ..HaacConfig::default() };
    println!(
        "  {:<10} {:>10} {:>10} {:>12} {:>10}",
        "schedule", "cycles", "OoR", "live wires", "spent %"
    );
    for kind in [ReorderKind::Baseline, ReorderKind::Segment, ReorderKind::Full] {
        let (plan, stats) = compiler::compile(&w.circuit, kind, config.window());
        let report = map_and_simulate(&plan, &config);
        println!(
            "  {:<10} {:>10} {:>10} {:>12} {:>9.1}%",
            kind.label(),
            report.cycles,
            stats.oor_count,
            stats.live_count,
            stats.spent_percent
        );
    }
}
