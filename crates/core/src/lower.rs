//! Lowering circuits for slot-addressed streaming execution.
//!
//! The HAAC co-design says that walking the raw netlist with a
//! per-wire label table is money left on the table — once the compiler
//! has reordered and renamed a program, labels can live in a tagless
//! scratchpad indexed by `addr % window`, and everything the datapath
//! would otherwise decide per gate is a *static* property of the
//! program. [`lower_with_reorder`] runs that pipeline once per circuit
//! (schedule → rename → window, AND runs, OoRW slots) and returns a
//! [`StreamingPlan`] that sessions reuse: the renamed instruction
//! stream ([`haac_gc::SlotProgram`]) with its batch runs and far-read
//! store slots fixed, the [`WindowModel`] the slab is provisioned
//! with, and the static peak-live residency — so warm sessions skip the
//! per-session analysis entirely.
//!
//! **The served window is the paper's 2 MB SWW** ([`served_window`],
//! 131 072 labels): a plan gets `min(natural window, SWW)` slab labels.
//! Circuits whose operand distances fit stream with zero OoR traffic;
//! the rest route their far reads (typically re-reads of primary inputs
//! or early wires) through the gc layer's software OoRW queue — enqueue
//! at producer, drain at consumer, every slot assigned here — so a
//! session's label memory is O(SWW + queue) however large the circuit.
//!
//! The default lowering keeps the **baseline** gate order, which
//! preserves table order and per-gate tweaks: transcripts are
//! bit-identical to the oracle `haac_gc::garble` on the raw netlist.
//! Reordered plans ([`ReorderKind::Full`], [`ReorderKind::Segment`]:
//! level order with AND gates first inside a level, over the whole
//! program or inside half-SWW segments of 65 536 instructions) are
//! valid protocols when both parties lower identically — the session
//! layer negotiates the [`ReorderKind`] in its handshake — but change
//! the transcript relative to the raw circuit. The gate order comes
//! from [`compiler::gate_order`](crate::compiler::gate_order), the same
//! function that feeds the simulator's [`Program`]s: one schedule, two
//! consumers.
//!
//! [`lower_with_window`] caps the slab at any other window instead (the
//! schedule does not change with it, so plans of one circuit and kind
//! are wire-identical at every window).

use haac_circuit::{Circuit, GateOp};
use haac_gc::{SlotInstr, SlotOp, SlotProgram};

use crate::compiler::{gate_order, rename_in_order, ReorderKind};
use crate::isa::{Instruction, Opcode, Program, OOR_SENTINEL};
use crate::sim::HaacConfig;
use crate::window::WindowModel;

/// A circuit lowered once for streaming execution: everything a session
/// needs beyond fresh randomness, cacheable and shareable across
/// sessions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamingPlan {
    /// The renamed instruction stream driving the slot-slab executors.
    pub program: SlotProgram,
    /// The window the slab is provisioned with — the smallest power of
    /// two under which every read of this program hits the SWW, or the
    /// smaller cap it was lowered against ([`served_window`] unless
    /// [`lower_with_window`] chose another), with the spill routed
    /// through the OoRW queue.
    pub window: WindowModel,
    /// The instruction schedule this plan was lowered with. Both
    /// parties of a session must lower identically; the session header
    /// carries this tag so a disagreement fails loudly instead of
    /// diverging transcripts.
    pub reorder: ReorderKind,
}

impl StreamingPlan {
    /// Static peak-live residency of the renamed program (what the
    /// executors report as `peak_live_wires`).
    #[inline]
    pub fn peak_live(&self) -> usize {
        self.program.peak_live()
    }

    /// AND instructions (= garbled tables a session streams).
    #[inline]
    pub fn and_count(&self) -> usize {
        self.program.and_count()
    }
}

/// Iterator adapting a renamed [`Program`]'s instructions into the gc
/// layer's slot-instruction stream.
///
/// Yields an error for instructions a streaming executor cannot run:
/// NOPs (pipeline filler has no streaming meaning) and OoR-sentinel
/// operands (plans must be built *before* [`mark_out_of_range`]
/// rewrites operands — [`haac_gc::SlotProgram`] routes its own far
/// reads, with store slots the simulator's marking does not carry).
///
/// [`mark_out_of_range`]: crate::compiler::mark_out_of_range
#[derive(Debug, Clone)]
pub struct SlotStream<'p> {
    instrs: std::slice::Iter<'p, Instruction>,
    index: usize,
}

/// Adapts a renamed program's instruction stream for the slot-slab
/// executors (one [`SlotInstr`] per instruction, in program order).
pub fn slot_stream(program: &Program) -> SlotStream<'_> {
    SlotStream { instrs: program.instructions.iter(), index: 0 }
}

impl Iterator for SlotStream<'_> {
    type Item = Result<SlotInstr, String>;

    fn next(&mut self) -> Option<Self::Item> {
        let instr = self.instrs.next()?;
        let i = self.index;
        self.index += 1;
        let op = match instr.op {
            Opcode::And => SlotOp::And,
            Opcode::Xor => SlotOp::Xor,
            Opcode::Inv => SlotOp::Inv,
            Opcode::Nop => {
                return Some(Err(format!("instruction {i} is a NOP; streaming has no filler")))
            }
        };
        let operands = if op == SlotOp::Inv { 1 } else { 2 };
        if [instr.a, instr.b].iter().take(operands).any(|&o| o == OOR_SENTINEL) {
            return Some(Err(format!(
                "instruction {i} carries the OoR sentinel; lower plans before OoR marking"
            )));
        }
        Some(Ok(SlotInstr { a: instr.a, b: instr.b, op }))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.instrs.size_hint()
    }
}

/// Builds a [`StreamingPlan`] from an already renamed (un-lowered)
/// program — the hook for running reordered schedules through the
/// slot-slab executors. `reorder` tags the plan with the schedule the
/// program was built under (session negotiation compares tags, not
/// instruction streams).
///
/// `garbler_inputs + evaluator_inputs` must equal the program's input
/// count (the split is protocol metadata the ISA does not carry).
///
/// # Errors
///
/// Returns an error if the program contains NOPs or OoR sentinels, if
/// the input split does not sum to the program's inputs, or if the
/// stream violates a renaming invariant.
pub fn plan_from_program(
    program: &Program,
    garbler_inputs: u32,
    evaluator_inputs: u32,
    reorder: ReorderKind,
) -> Result<StreamingPlan, String> {
    plan_from_program_impl(program, garbler_inputs, evaluator_inputs, reorder, None)
}

/// Like [`plan_from_program`], but caps the slab at `window` (rounded
/// up to a power of two, minimum 2): below the natural zero-OoR size,
/// reads farther than the window are rewritten to OoR-sentinel slots
/// served by the software OoRW queue, whose peak occupancy is computed
/// statically ([`haac_gc::SlotProgram::oor_queue_bound`]); at or above
/// it the natural plan comes back.
///
/// # Errors
///
/// As [`plan_from_program`].
pub fn plan_from_program_with_window(
    program: &Program,
    garbler_inputs: u32,
    evaluator_inputs: u32,
    reorder: ReorderKind,
    window: WindowModel,
) -> Result<StreamingPlan, String> {
    plan_from_program_impl(program, garbler_inputs, evaluator_inputs, reorder, Some(window))
}

fn plan_from_program_impl(
    program: &Program,
    garbler_inputs: u32,
    evaluator_inputs: u32,
    reorder: ReorderKind,
    window: Option<WindowModel>,
) -> Result<StreamingPlan, String> {
    if garbler_inputs + evaluator_inputs != program.num_inputs {
        return Err(format!(
            "input split {garbler_inputs}+{evaluator_inputs} does not match the program's {}",
            program.num_inputs
        ));
    }
    let instrs = slot_stream(program).collect::<Result<Vec<_>, _>>()?;
    let outputs = program.output_addrs.clone();
    let slots = match window {
        Some(w) => SlotProgram::with_window(
            instrs,
            garbler_inputs,
            evaluator_inputs,
            outputs,
            w.sww_wires(),
        )?,
        None => SlotProgram::new(instrs, garbler_inputs, evaluator_inputs, outputs)?,
    };
    let window = WindowModel::new(slots.slot_wires());
    Ok(StreamingPlan { program: slots, window, reorder })
}

/// The window every served plan is capped at: the paper's 2 MB SWW,
/// 131 072 labels — the one `compiler::reorder` callers and the
/// simulator use by default ([`HaacConfig::default`]). Half of it,
/// 65 536 instructions, is the segment of [`ReorderKind::Segment`].
pub fn served_window() -> WindowModel {
    HaacConfig::default().window()
}

/// Lowers a circuit for streaming execution under the given schedule:
/// schedule → rename → window, runs and OoRW slots, the slab capped at
/// [`served_window`]. Run once per `(circuit, reorder)` and cache the
/// plan; every session that reuses it skips the per-session analysis
/// pass and runs on the tagless slab.
///
/// [`ReorderKind::Baseline`] preserves gate order and tweaks, so
/// sessions driven by it produce **bit-identical transcripts** to the
/// oracle `haac_gc::garble`; `Full`/`Segment` change the transcript (both
/// parties must lower identically — negotiated in the session header)
/// but line independent AND gates up in runs the executors batch.
pub fn lower_with_reorder(circuit: &Circuit, kind: ReorderKind) -> StreamingPlan {
    lower_with_window(circuit, kind, served_window())
}

/// Lowers a circuit with its slab capped at `window` instead of
/// [`served_window`] (see [`plan_from_program_with_window`]): the entry
/// point for deliberately small slabs. The schedule is the one
/// [`lower_with_reorder`] uses, whatever the window.
pub fn lower_with_window(
    circuit: &Circuit,
    kind: ReorderKind,
    window: WindowModel,
) -> StreamingPlan {
    // Slot instructions straight from the schedule: the renaming pass
    // `compiler::program_from_order` runs, without a `Program` between.
    let order = gate_order(circuit, kind, served_window());
    let (instrs, outputs) = rename_in_order(circuit, &order, |op, a, b| {
        let op = match op {
            GateOp::And => SlotOp::And,
            GateOp::Xor => SlotOp::Xor,
            GateOp::Inv => SlotOp::Inv,
        };
        SlotInstr { a, b, op }
    });
    let program = SlotProgram::with_window(
        instrs,
        circuit.garbler_inputs(),
        circuit.evaluator_inputs(),
        outputs,
        window.sww_wires(),
    )
    .expect("a scheduled circuit always lowers");
    StreamingPlan { window: WindowModel::new(program.slot_wires()), program, reorder: kind }
}

/// Lowers a circuit for streaming execution on the **baseline** order:
/// [`lower_with_reorder`] with [`ReorderKind::Baseline`] — transcripts
/// bit-identical to the oracle `haac_gc::garble`.
pub fn lower_for_streaming(circuit: &Circuit) -> StreamingPlan {
    lower_with_reorder(circuit, ReorderKind::Baseline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{assemble, eliminate_spent_wires, mark_out_of_range};
    use haac_circuit::Builder;
    use haac_gc::stream::Liveness;

    fn mixed_circuit() -> Circuit {
        let mut b = Builder::new();
        let x = b.input_garbler(8);
        let y = b.input_evaluator(8);
        let (s, _) = b.add_words(&x, &y);
        let p = b.mul_words_trunc(&x, &y);
        let lt = b.lt_u(&x, &y);
        let mut out = s;
        out.extend(p);
        out.push(lt);
        b.finish(out).unwrap()
    }

    #[test]
    fn compiler_lowering_matches_the_gc_baseline_plan() {
        // Two roads to the same renamed stream: the compiler pipeline
        // here and haac-gc's inline baseline renaming must agree
        // exactly — they are the same pass.
        let c = mixed_circuit();
        let plan = lower_for_streaming(&c);
        assert_eq!(plan.program, haac_gc::baseline_plan(&c));
    }

    #[test]
    fn plan_window_admits_every_read_and_bounds_peak_live() {
        let c = mixed_circuit();
        let plan = lower_for_streaming(&c);
        assert!(plan.window.sww_wires() >= plan.program.max_operand_distance());
        // Anything live at some instruction is within one window of it.
        assert!(plan.peak_live() <= plan.window.sww_wires() as usize);
        // The static peak equals the dynamic liveness analysis.
        assert_eq!(plan.peak_live(), Liveness::analyze(&c).peak_live_wires(&c));
        assert_eq!(plan.and_count(), c.num_and_gates());
    }

    #[test]
    fn oor_lowered_programs_are_rejected() {
        let c = mixed_circuit();
        let window = WindowModel::new(4); // tiny SWW forces OoR rewrites
        let mut program = assemble(&c);
        eliminate_spent_wires(&mut program, window);
        let lowered = mark_out_of_range(&program, window);
        assert!(lowered.num_oor > 0);
        let err = plan_from_program(
            &lowered.program,
            c.garbler_inputs(),
            c.evaluator_inputs(),
            ReorderKind::Baseline,
        )
        .unwrap_err();
        assert!(err.contains("OoR sentinel"), "{err}");
    }

    #[test]
    fn wrong_input_split_is_rejected() {
        let c = mixed_circuit();
        let program = assemble(&c);
        assert!(plan_from_program(&program, 1, 2, ReorderKind::Baseline).is_err());
    }

    #[test]
    fn reordered_programs_also_lower() {
        let c = mixed_circuit();
        let program = crate::compiler::full_reorder(&c);
        let plan = plan_from_program(
            &program,
            c.garbler_inputs(),
            c.evaluator_inputs(),
            ReorderKind::Full,
        )
        .unwrap();
        assert_eq!(plan.and_count(), c.num_and_gates());
        assert_eq!(plan.reorder, ReorderKind::Full);
        assert!(plan.window.sww_wires() >= plan.program.max_operand_distance());
    }

    #[test]
    fn lower_with_reorder_tags_the_plan_and_keeps_the_gate_count() {
        let c = mixed_circuit();
        for kind in [ReorderKind::Baseline, ReorderKind::Full, ReorderKind::Segment] {
            let plan = lower_with_reorder(&c, kind);
            assert_eq!(plan.reorder, kind);
            assert_eq!(plan.and_count(), c.num_and_gates());
            assert!(!plan.program.has_oor(), "{kind:?}: a window inside the SWW never spills");
            assert!(plan.window.sww_wires() >= plan.program.max_operand_distance());
        }
        assert_eq!(lower_for_streaming(&c), lower_with_reorder(&c, ReorderKind::Baseline));
    }

    #[test]
    fn forced_windows_route_far_reads_through_the_oorw_queue() {
        let c = mixed_circuit();
        let natural = lower_for_streaming(&c);
        let forced = WindowModel::new(4); // far below the natural window
        let plan = lower_with_window(&c, ReorderKind::Baseline, forced);
        assert!(natural.window.sww_wires() > 4, "the test needs a genuinely small window");
        assert!(plan.program.has_oor(), "a tiny window must spill");
        assert_eq!(plan.window.sww_wires(), 4);
        assert!(plan.program.oor_queue_bound() > 0);
        assert!(plan.program.oor_queue_bound() <= plan.program.oor_read_count());
        // The instruction count, table count, and outputs are untouched
        // by the rewrite: only operand *routing* changed.
        assert_eq!(plan.and_count(), natural.and_count());
        assert_eq!(plan.program.instrs().len(), natural.program.instrs().len());
        assert_eq!(plan.program.output_addrs(), natural.program.output_addrs());
        // The window is an upper bound: at or above the natural size
        // nothing spills and the natural plan comes back exactly.
        let above = WindowModel::new(natural.window.sww_wires() * 4);
        for roomy in [natural.window, above] {
            assert_eq!(lower_with_window(&c, ReorderKind::Baseline, roomy), natural);
        }
    }
}
