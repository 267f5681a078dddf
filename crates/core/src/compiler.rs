//! The HAAC optimizing compiler (paper §4).
//!
//! The compiler turns a Boolean netlist into the renamed, straight-line
//! [`SlotProgram`] every consumer runs — the simulator and the slab
//! executors alike:
//!
//! 1. **Reorder** (§4.2.1): *full* (breadth-first over the leveled
//!    dependence graph, maximizing ILP) or *segment* (level-order within
//!    half-SWW-sized windows, balancing ILP against wire locality).
//!    Inside a level the AND gates come first: gates of one level are
//!    mutually independent, so the order within it is free, and
//!    contiguous ANDs are what keeps a gate engine's (or a CPU's AES)
//!    pipeline full.
//! 2. **Rename** (§4.2.2): [`haac_gc::rename_in_order`] — output wire
//!    addresses follow program order, which is what makes the SWW
//!    workable and output addresses implicit.
//! 3. **Route far reads** (§3.1.4): operands below the half-sliding
//!    SWW's base at their consumer become OoRW-queue pops
//!    ([`SlotProgram::with_far_reads`]) — the compiler-pushed stream
//!    that fully decouples HAAC's off-chip traffic.
//!
//! **Eliminating spent wires** (§4.2.3) is no separate pass: a wire
//! spills to DRAM iff something reads it from outside the window or it
//! is a circuit output, which the routed plan already says
//! ([`live_bits`]).

use haac_circuit::{Circuit, GateOp};
use haac_gc::{rename_in_order, SlotProgram};

use crate::window::WindowModel;

/// Instruction-scheduling strategy (paper Fig. 5 / §4.2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReorderKind {
    /// Keep the netlist's original (depth-first-ish) order.
    #[default]
    Baseline,
    /// Breadth-first level order over the whole program, AND gates
    /// first within a level: maximum ILP, potentially poor wire
    /// locality.
    Full,
    /// The same level order within contiguous segments of half the SWW
    /// capacity: the compromise that preserves locality (§6.2), and
    /// identical to `Full` for circuits that fit one segment.
    Segment,
}

impl ReorderKind {
    /// Short label used in reports ("Baseline", "Full", "Seg").
    pub fn label(self) -> &'static str {
        match self {
            ReorderKind::Baseline => "Baseline",
            ReorderKind::Full => "Full",
            ReorderKind::Segment => "Seg",
        }
    }
}

/// The gate order realizing `kind` under the given SWW size: a
/// topological permutation of the circuit's gate indices. This is the
/// one schedule every consumer shares — [`compile`] routes it for the
/// simulator, and [`crate::lower`] for the served plans.
pub fn gate_order(circuit: &Circuit, kind: ReorderKind, window: WindowModel) -> Vec<u32> {
    match kind {
        ReorderKind::Baseline => (0..circuit.num_gates() as u32).collect(),
        ReorderKind::Full => segment_order(circuit, usize::MAX),
        ReorderKind::Segment => segment_order(circuit, window.half() as usize),
    }
}

/// Segment reordering's gate order: level order (AND gates first within
/// each level) within contiguous windows of `segment_size` gates
/// (§4.2.1 recommends half the SWW size; `usize::MAX` is `Full`).
///
/// A stable counting sort of each segment by the key `(level, op !=
/// And)`. Gates of one dependence level are mutually independent, so any
/// order inside a level is valid; putting a level's AND gates first
/// makes them one contiguous run the executors batch through the cipher
/// pipeline (and the simulator's gate engines issue back to back).
///
/// # Panics
///
/// Panics if `segment_size` is zero.
pub fn segment_order(circuit: &Circuit, segment_size: usize) -> Vec<u32> {
    assert!(segment_size > 0, "segment size must be positive");
    let levels = circuit.wire_levels();
    let keys: Vec<u32> = circuit
        .gates()
        .iter()
        .map(|gate| 2 * levels[gate.out as usize] + u32::from(gate.op != GateOp::And))
        .collect();
    let mut order = vec![0u32; keys.len()];
    // counts[k - lo + 1] counts the segment's gates with key k, then
    // (after the prefix sum) counts[k - lo] is where key k's next gate
    // lands.
    let mut counts: Vec<u32> = Vec::new();
    for (segment, keys) in keys.chunks(segment_size).enumerate() {
        let start = segment * segment_size;
        let lo = keys.iter().copied().min().unwrap_or(0);
        let hi = keys.iter().copied().max().unwrap_or(0);
        counts.clear();
        counts.resize((hi - lo) as usize + 2, 0);
        for &key in keys {
            counts[(key - lo) as usize + 1] += 1;
        }
        for k in 1..counts.len() {
            counts[k] += counts[k - 1];
        }
        for (offset, &key) in keys.iter().enumerate() {
            let slot = &mut counts[(key - lo) as usize];
            order[start + *slot as usize] = (start + offset) as u32;
            *slot += 1;
        }
    }
    order
}

/// End-to-end compilation summary for one strategy/SWW configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileStats {
    /// Instructions in the program.
    pub instructions: usize,
    /// AND instructions (tables).
    pub and_count: usize,
    /// Wires written back to DRAM (live bits set).
    pub live_count: usize,
    /// OoRW-queue reads.
    pub oor_count: usize,
    /// Fraction of produced wires that are spent (never written back).
    pub spent_percent: f64,
}

/// Compiles a circuit with the given strategy and SWW size: reorder →
/// rename → far-read routing under the half-sliding SWW. Returns the
/// routed plan and its statistics.
pub fn compile(
    circuit: &Circuit,
    kind: ReorderKind,
    window: WindowModel,
) -> (SlotProgram, CompileStats) {
    compile_order(circuit, &gate_order(circuit, kind, window), window)
}

/// [`compile`] on an explicit gate order — the entry for schedules no
/// [`ReorderKind`] names, such as [`segment_order`] at other segment
/// sizes.
///
/// # Panics
///
/// Panics if `order` is not a topological permutation of the circuit's
/// gates.
pub fn compile_order(
    circuit: &Circuit,
    order: &[u32],
    window: WindowModel,
) -> (SlotProgram, CompileStats) {
    let (instrs, outputs) = rename_in_order(circuit, order);
    let plan = SlotProgram::with_far_reads(
        instrs,
        circuit.garbler_inputs(),
        circuit.evaluator_inputs(),
        outputs,
        |out, a| a < window.base_for_frontier(out),
    )
    .expect("a topological order always renames");
    let live_count = live_bits(&plan).iter().filter(|&&live| live).count();
    let instructions = plan.instrs().len();
    let stats = CompileStats {
        instructions,
        and_count: plan.and_count(),
        live_count,
        oor_count: plan.oor_read_count(),
        spent_percent: if instructions == 0 {
            0.0
        } else {
            100.0 * (1.0 - live_count as f64 / instructions as f64)
        },
    };
    (plan, stats)
}

/// Eliminating spent wires (§4.2.3), read off a routed plan: instruction
/// `i`'s live bit — its output spills to DRAM — is set iff the output is
/// a far-read source or a circuit output — one pass over the plan's two
/// address lists. Every other wire is spent inside the window.
pub fn live_bits(plan: &SlotProgram) -> Vec<bool> {
    let first_out = plan.first_output_addr();
    let mut live = vec![false; plan.instrs().len()];
    let sources = plan.oor_sources().iter().map(|&(addr, _)| addr);
    let outputs = plan.outputs_by_addr().iter().map(|&(addr, _)| addr);
    for addr in sources.chain(outputs).filter(|&addr| addr >= first_out) {
        live[(addr - first_out) as usize] = true;
    }
    live
}

#[cfg(test)]
mod tests {
    use super::*;
    use haac_circuit::Builder;
    use haac_gc::OOR_SLOT;

    fn adder_circuit(width: u32) -> Circuit {
        let mut b = Builder::new();
        let x = b.input_garbler(width);
        let y = b.input_evaluator(width);
        let (s, c) = b.add_words(&x, &y);
        let mut out = s;
        out.push(c);
        b.finish(out).unwrap()
    }

    #[test]
    fn assemble_is_renamed_and_valid() {
        // Baseline compilation is the netlist renamed in place: operand
        // addresses always sit below their reader's output.
        let c = adder_circuit(8);
        let (p, stats) = compile(&c, ReorderKind::Baseline, WindowModel::new(1 << 20));
        assert_eq!(p.instrs().len(), c.num_gates());
        assert_eq!(stats.and_count, c.num_and_gates());
        for (i, instr) in p.instrs().iter().enumerate() {
            let out = p.first_output_addr() + i as u32;
            assert!(instr.operands().all(|a| (1..out).contains(&a)), "instruction {i}");
        }
    }

    #[test]
    fn full_reorder_is_level_sorted_and_valid() {
        let c = adder_circuit(8);
        let order = gate_order(&c, ReorderKind::Full, WindowModel::new(4));
        // Levels of successive instructions must be non-decreasing.
        let levels = c.wire_levels();
        let gates = c.gates();
        let inst_levels: Vec<u32> =
            order.iter().map(|&g| levels[gates[g as usize].out as usize]).collect();
        assert!(inst_levels.windows(2).all(|w| w[0] <= w[1]));
        let (plan, _) = compile_order(&c, &order, WindowModel::new(1 << 20));
        assert_eq!(plan.instrs().len(), c.num_gates());
    }

    #[test]
    fn segment_reorder_keeps_segments_contiguous() {
        let c = adder_circuit(16);
        let seg = 8;
        // Each segment must be a permutation of the baseline segment.
        for (s, chunk) in segment_order(&c, seg).chunks(seg).enumerate() {
            let mut sorted: Vec<u32> = chunk.to_vec();
            sorted.sort_unstable();
            let expect: Vec<u32> = (s * seg..(s * seg + chunk.len())).map(|v| v as u32).collect();
            assert_eq!(sorted, expect, "segment {s}");
        }
    }

    #[test]
    fn esw_keeps_outputs_live() {
        let c = adder_circuit(8);
        let window = WindowModel::new(4); // tiny SWW forces spills
        let (p, _) = compile(&c, ReorderKind::Baseline, window);
        let live = live_bits(&p);
        for &out in p.output_addrs() {
            if out >= p.first_output_addr() {
                let idx = (out - p.first_output_addr()) as usize;
                assert!(live[idx], "circuit output must stay live");
            }
        }
    }

    #[test]
    fn esw_with_huge_window_spills_only_outputs() {
        let c = adder_circuit(8);
        let (p, stats) = compile(&c, ReorderKind::Baseline, WindowModel::new(1 << 20));
        let outputs_produced =
            p.output_addrs().iter().filter(|&&o| o >= p.first_output_addr()).count();
        assert_eq!(stats.live_count, outputs_produced, "nothing is OoR under a huge window");
    }

    #[test]
    fn oor_marking_rewrites_to_sentinel() {
        let c = adder_circuit(8);
        let window = WindowModel::new(4);
        let (p, stats) = compile(&c, ReorderKind::Baseline, window);
        assert!(stats.oor_count > 0, "a tiny SWW must force OoR reads");
        // Every read below the sliding window's base, and no other, is
        // the sentinel: renaming again recovers the addresses it hid.
        let order: Vec<u32> = (0..c.num_gates() as u32).collect();
        let (renamed, _) = rename_in_order(&c, &order);
        let mut sentinels = 0;
        for (i, (routed, real)) in p.instrs().iter().zip(&renamed).enumerate() {
            let base = window.base_for_frontier(p.first_output_addr() + i as u32);
            for (routed, real) in routed.operands().zip(real.operands()) {
                assert_eq!(routed == OOR_SLOT, real < base, "instruction {i}");
                sentinels += usize::from(routed == OOR_SLOT);
            }
        }
        assert_eq!(sentinels, stats.oor_count);
    }

    #[test]
    fn huge_window_has_no_oor() {
        let c = adder_circuit(8);
        let (p, stats) = compile(&c, ReorderKind::Baseline, WindowModel::new(1 << 20));
        assert_eq!(stats.oor_count, 0);
        assert!(!p.has_oor());
    }

    #[test]
    fn tiny_window_produces_oor_traffic() {
        // The statistics are the plan's own far reads and spills.
        let c = adder_circuit(8);
        let (p, stats) = compile(&c, ReorderKind::Full, WindowModel::new(4));
        assert!(stats.oor_count > 0);
        assert_eq!(stats.oor_count, p.oor_read_count());
        let sources = p.oor_sources().iter().filter(|&&(a, _)| a >= p.first_output_addr());
        assert!(stats.live_count >= sources.count());
    }

    #[test]
    fn compile_stats_are_consistent() {
        let c = adder_circuit(32);
        let window = WindowModel::new(64);
        for kind in [ReorderKind::Baseline, ReorderKind::Full, ReorderKind::Segment] {
            let (p, stats) = compile(&c, kind, window);
            assert_eq!(stats.instructions, c.num_gates());
            assert_eq!(stats.and_count, c.num_and_gates());
            assert_eq!(p.and_count(), c.num_and_gates(), "{kind:?}");
            assert!(stats.spent_percent >= 0.0 && stats.spent_percent <= 100.0);
        }
    }

    #[test]
    fn full_reorder_increases_or_preserves_parallel_front() {
        // On a wide adder-tree-ish circuit, full reorder groups level-0
        // gates first. Build 4 independent adders.
        let mut b = Builder::new();
        let x = b.input_garbler(32);
        let y = b.input_evaluator(32);
        let mut outs = Vec::new();
        for k in 0..4 {
            let (s, _) = b.add_words(&x[8 * k..8 * (k + 1)], &y[8 * k..8 * (k + 1)]);
            outs.extend(s);
        }
        let c = b.finish(outs).unwrap();
        let order = gate_order(&c, ReorderKind::Full, WindowModel::new(4));
        let levels = c.wire_levels();
        let gates = c.gates();
        // The first 4+ instructions must all be level-1 gates (one per adder).
        let first_levels: Vec<u32> =
            order[..4].iter().map(|&g| levels[gates[g as usize].out as usize]).collect();
        assert!(first_levels.iter().all(|&l| l == 1), "{first_levels:?}");
    }
}
