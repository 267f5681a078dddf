//! The HAAC optimizing compiler (paper §4).
//!
//! The compiler turns a Boolean netlist into a renamed, straight-line
//! HAAC [`Program`] and then optimizes it:
//!
//! 1. **Assemble** (§4.1): gates → instructions. Renaming (§4.2.2) is
//!    inherent to assembly — output wire addresses always follow program
//!    order, which is what makes the SWW workable and output addresses
//!    implicit.
//! 2. **Reorder** (§4.2.1): *full* (breadth-first over the leveled
//!    dependence graph, maximizing ILP) or *segment* (level-order within
//!    half-SWW-sized windows, balancing ILP against wire locality).
//!    Inside a level the AND gates come first: gates of one level are
//!    mutually independent, so the order within it is free, and
//!    contiguous ANDs are what keeps a gate engine's (or a CPU's AES)
//!    pipeline full. After any reorder, renaming is re-applied.
//! 3. **Eliminate spent wires** (§4.2.3): clear the live bit of every
//!    output that is never read beyond its SWW residency, saving
//!    off-chip write bandwidth.
//! 4. **Mark out-of-range reads**: operands that fall outside the SWW
//!    window at their consumer are rewritten to the OoRW-queue sentinel,
//!    and their addresses recorded — the compiler-pushed stream that
//!    fully decouples HAAC's off-chip traffic.

use haac_circuit::{Circuit, GateOp};

use crate::isa::{Instruction, Opcode, Program, OOR_SENTINEL};
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

/// Assembles a circuit into a baseline-order HAAC program.
///
/// INV gates map to the INV opcode (executed by the FreeXOR unit — a
/// free relabeling); the returned program is renamed by construction.
pub fn assemble(circuit: &Circuit) -> Program {
    let order: Vec<u32> = (0..circuit.num_gates() as u32).collect();
    program_from_order(circuit, &order)
}

/// Builds a renamed program realizing the given gate order.
///
/// `order` must be a topological permutation of the circuit's gate
/// indices (every gate's inputs produced earlier in `order`).
///
/// # Panics
///
/// Panics (in debug builds) if `order` is not a permutation; invalid
/// topological orders surface as validation failures downstream.
pub fn program_from_order(circuit: &Circuit, order: &[u32]) -> Program {
    let (instructions, output_addrs) = rename_in_order(circuit, order, |op, a, b| {
        let op = match op {
            GateOp::And => Opcode::And,
            GateOp::Xor => Opcode::Xor,
            GateOp::Inv => Opcode::Inv,
        };
        Instruction::new(op, a, b)
    });
    Program {
        instructions,
        num_inputs: circuit.num_inputs(),
        output_addrs,
        source_gate: order.to_vec(),
    }
}

/// The renaming pass (§4.2.2) behind every instruction stream built
/// from a gate order: input wire `w` gets address `w + 1`, the `i`-th
/// gate of `order` writes `num_inputs + 1 + i`, and `emit(op, a, b)`
/// turns each gate, with its operands renamed (INV's `b` mirrors `a`),
/// into the caller's instruction type. Returns the instructions and the
/// circuit outputs' addresses.
pub(crate) fn rename_in_order<T>(
    circuit: &Circuit,
    order: &[u32],
    mut emit: impl FnMut(GateOp, u32, u32) -> T,
) -> (Vec<T>, Vec<u32>) {
    debug_assert_eq!(order.len(), circuit.num_gates());
    let num_inputs = circuit.num_inputs();
    // wire_to_addr: circuit wire id → program address (renaming).
    let mut wire_to_addr = vec![0u32; circuit.num_wires() as usize];
    for w in 0..num_inputs {
        wire_to_addr[w as usize] = w + 1;
    }
    let first_out = num_inputs + 1;
    let gates = circuit.gates();
    let mut instructions = Vec::with_capacity(order.len());
    for (i, &g) in order.iter().enumerate() {
        let gate = &gates[g as usize];
        wire_to_addr[gate.out as usize] = first_out + i as u32;
        let a = wire_to_addr[gate.a as usize];
        let b = if gate.op == GateOp::Inv { a } else { wire_to_addr[gate.b as usize] };
        instructions.push(emit(gate.op, a, b));
    }
    let output_addrs = circuit.outputs().iter().map(|&w| wire_to_addr[w as usize]).collect();
    (instructions, output_addrs)
}

/// Full reordering: breadth-first traversal of the leveled dependence
/// graph (§4.2.1), AND gates first within each level, followed by
/// renaming.
pub fn full_reorder(circuit: &Circuit) -> Program {
    program_from_order(circuit, &level_sorted_order(circuit, usize::MAX))
}

/// Segment reordering: level-order (AND gates first within each level)
/// within contiguous windows of `segment_size` instructions (§4.2.1
/// recommends half the SWW size), followed by renaming.
///
/// # Panics
///
/// Panics if `segment_size` is zero.
pub fn segment_reorder(circuit: &Circuit, segment_size: usize) -> Program {
    program_from_order(circuit, &level_sorted_order(circuit, segment_size))
}

/// The gate order realizing `kind` under the given SWW size: a
/// topological permutation of the circuit's gate indices. This is the
/// one schedule both consumers share — [`reorder`] renames it into a
/// [`Program`] for the simulator, and [`crate::lower`] emits the
/// streaming plan straight from it.
pub fn gate_order(circuit: &Circuit, kind: ReorderKind, window: WindowModel) -> Vec<u32> {
    match kind {
        ReorderKind::Baseline => (0..circuit.num_gates() as u32).collect(),
        ReorderKind::Full => level_sorted_order(circuit, usize::MAX),
        ReorderKind::Segment => level_sorted_order(circuit, window.half() as usize),
    }
}

/// Builds a reordered program for the given strategy and SWW size.
pub fn reorder(circuit: &Circuit, kind: ReorderKind, window: WindowModel) -> Program {
    program_from_order(circuit, &gate_order(circuit, kind, window))
}

/// Stable counting sort of each `segment_size`-gate segment by the key
/// `(level, op != And)`. Gates of one dependence level are mutually
/// independent, so any order inside a level is valid; putting a level's
/// AND gates first makes them one contiguous run the executors batch
/// through the cipher pipeline (and the simulator's gate engines issue
/// back to back).
fn level_sorted_order(circuit: &Circuit, segment_size: usize) -> Vec<u32> {
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

/// Eliminating spent wires (§4.2.3): clears the live bit of every
/// instruction whose output is provably never read from beyond its SWW
/// residency. Circuit outputs always stay live (they must reach DRAM).
pub fn eliminate_spent_wires(program: &mut Program, window: WindowModel) {
    let first_out = program.first_output_addr();
    let n = program.instructions.len();
    // For each produced address, the largest window base among its
    // consumers; a wire is live iff some consumer's base exceeds it.
    let mut live = vec![false; n];
    for (j, instr) in program.instructions.iter().enumerate() {
        let frontier = program.output_addr(j);
        let base = window.base_for_frontier(frontier);
        for operand in [instr.a, instr.b].iter().take(instr.num_operands()) {
            if *operand >= first_out && *operand < base {
                live[(*operand - first_out) as usize] = true;
            }
        }
    }
    for &out in &program.output_addrs {
        if out >= first_out {
            live[(out - first_out) as usize] = true;
        }
    }
    for (instr, &is_live) in program.instructions.iter_mut().zip(&live) {
        instr.live = is_live;
    }
}

/// A program lowered against a concrete SWW: OoR operands rewritten to
/// the sentinel, with the OoR address stream recorded (in program order).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoweredProgram {
    /// The program with sentinel operands.
    pub program: Program,
    /// For each instruction, the original addresses of its OoR operands
    /// in operand order (`a` first) — the stream pushed on-chip by the
    /// memory controller.
    pub oor_addrs: Vec<Vec<u32>>,
    /// Total OoR reads.
    pub num_oor: usize,
}

/// Marks out-of-range reads (§3.1.4): every operand outside the SWW
/// window at its consumer becomes an OoRW-queue read.
///
/// Call after [`eliminate_spent_wires`] — OoR reads of spent wires would
/// find nothing in DRAM. (The combination is validated by the functional
/// executor.)
pub fn mark_out_of_range(program: &Program, window: WindowModel) -> LoweredProgram {
    let mut lowered = program.clone();
    let mut oor_addrs = vec![Vec::new(); program.instructions.len()];
    let mut num_oor = 0usize;
    for (j, instr) in lowered.instructions.iter_mut().enumerate() {
        let frontier = program.output_addr(j);
        let base = window.base_for_frontier(frontier);
        let operands = instr.num_operands();
        // `a` first, then `b` — matching the paper's "if both operands
        // are OoR, the first operand is handled first".
        if operands >= 1 && instr.a < base && instr.a != OOR_SENTINEL {
            oor_addrs[j].push(instr.a);
            instr.a = OOR_SENTINEL;
            num_oor += 1;
        }
        if operands >= 2 && instr.b < base && instr.b != OOR_SENTINEL {
            // INV duplicates `a` into `b`; keep them in sync without a
            // second queue pop.
            oor_addrs[j].push(instr.b);
            instr.b = OOR_SENTINEL;
            num_oor += 1;
        }
    }
    LoweredProgram { program: lowered, oor_addrs, num_oor }
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

/// Compiles a circuit with the given strategy and SWW size, running
/// reorder → rename → ESW → OoR marking; returns the lowered program and
/// its statistics.
pub fn compile(
    circuit: &Circuit,
    kind: ReorderKind,
    window: WindowModel,
) -> (LoweredProgram, CompileStats) {
    let mut program = reorder(circuit, kind, window);
    eliminate_spent_wires(&mut program, window);
    let lowered = mark_out_of_range(&program, window);
    let live_count = lowered.program.instructions.iter().filter(|i| i.live).count();
    let stats = CompileStats {
        instructions: lowered.program.instructions.len(),
        and_count: lowered.program.num_and(),
        live_count,
        oor_count: lowered.num_oor,
        spent_percent: if lowered.program.instructions.is_empty() {
            0.0
        } else {
            100.0 * (1.0 - live_count as f64 / lowered.program.instructions.len() as f64)
        },
    };
    (lowered, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use haac_circuit::Builder;

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
        let c = adder_circuit(8);
        let p = assemble(&c);
        assert!(p.validate().is_ok());
        assert_eq!(p.instructions.len(), c.num_gates());
        assert_eq!(p.num_and(), c.num_and_gates());
    }

    #[test]
    fn full_reorder_is_level_sorted_and_valid() {
        let c = adder_circuit(8);
        let p = full_reorder(&c);
        assert!(p.validate().is_ok());
        // Levels of successive instructions must be non-decreasing.
        let levels = c.wire_levels();
        let gates = c.gates();
        let inst_levels: Vec<u32> =
            p.source_gate.iter().map(|&g| levels[gates[g as usize].out as usize]).collect();
        assert!(inst_levels.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn segment_reorder_keeps_segments_contiguous() {
        let c = adder_circuit(16);
        let seg = 8;
        let p = segment_reorder(&c, seg);
        assert!(p.validate().is_ok());
        // Each segment must be a permutation of the baseline segment.
        for (s, chunk) in p.source_gate.chunks(seg).enumerate() {
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
        let mut p = assemble(&c);
        eliminate_spent_wires(&mut p, window);
        for &out in &p.output_addrs.clone() {
            if out >= p.first_output_addr() {
                let idx = (out - p.first_output_addr()) as usize;
                assert!(p.instructions[idx].live, "circuit output must stay live");
            }
        }
    }

    #[test]
    fn esw_with_huge_window_spills_only_outputs() {
        let c = adder_circuit(8);
        let window = WindowModel::new(1 << 20);
        let mut p = assemble(&c);
        eliminate_spent_wires(&mut p, window);
        let live: usize = p.instructions.iter().filter(|i| i.live).count();
        let outputs_produced =
            p.output_addrs.iter().filter(|&&o| o >= p.first_output_addr()).count();
        assert_eq!(live, outputs_produced, "nothing is OoR under a huge window");
    }

    #[test]
    fn oor_marking_rewrites_to_sentinel() {
        let c = adder_circuit(8);
        let window = WindowModel::new(4);
        let p = assemble(&c);
        let lowered = mark_out_of_range(&p, window);
        assert!(lowered.num_oor > 0, "a tiny SWW must force OoR reads");
        for (j, instr) in lowered.program.instructions.iter().enumerate() {
            let n_sentinels = [instr.a, instr.b]
                .iter()
                .take(instr.num_operands())
                .filter(|&&x| x == OOR_SENTINEL)
                .count();
            assert_eq!(n_sentinels, lowered.oor_addrs[j].len(), "instr {j}");
        }
        let total: usize = lowered.oor_addrs.iter().map(|v| v.len()).sum();
        assert_eq!(total, lowered.num_oor);
    }

    #[test]
    fn huge_window_has_no_oor() {
        let c = adder_circuit(8);
        let p = assemble(&c);
        let lowered = mark_out_of_range(&p, WindowModel::new(1 << 20));
        assert_eq!(lowered.num_oor, 0);
    }

    #[test]
    fn compile_stats_are_consistent() {
        let c = adder_circuit(32);
        let window = WindowModel::new(64);
        for kind in [ReorderKind::Baseline, ReorderKind::Full, ReorderKind::Segment] {
            let (lowered, stats) = compile(&c, kind, window);
            assert!(lowered.program.validate().is_ok(), "{kind:?}");
            assert_eq!(stats.instructions, c.num_gates());
            assert_eq!(stats.and_count, c.num_and_gates());
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
        let p = full_reorder(&c);
        let levels = c.wire_levels();
        let gates = c.gates();
        // The first 4+ instructions must all be level-1 gates (one per adder).
        let first_levels: Vec<u32> =
            p.source_gate[..4].iter().map(|&g| levels[gates[g as usize].out as usize]).collect();
        assert!(first_levels.iter().all(|&l| l == 1), "{first_levels:?}");
    }
}
