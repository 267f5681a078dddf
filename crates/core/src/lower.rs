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
//! function that feeds the simulator's [`compile`](crate::compile): one
//! schedule, one renaming pass, one far-read routing pass, under two
//! window predicates — the slab's ring here, the hardware's half-sliding
//! SWW there.
//!
//! **Sessions serve the live program.** [`lower_live`] is the lowering
//! a session config makes: under `Full` and `Segment` it drops every
//! gate and garbler input no circuit output depends on, in the renaming
//! pass itself, and keeps the circuit's declared garbler width and the
//! map of kept inputs in the plan ([`StreamingPlan::garbler_width`],
//! [`StreamingPlan::live_garbler_inputs`]): a garbler hands the session
//! drivers declared-width bits and they select the kept ones. Every
//! evaluator input is kept. `Baseline`, [`lower_with_reorder`] and the
//! simulator's [`compile`](crate::compile) lower the netlist as given.
//!
//! [`lower_with_window`] caps the slab at any other window instead (the
//! schedule does not change with it, so plans of one circuit and kind
//! are wire-identical at every window). [`run_gc_through_streams`] runs
//! any plan — a served one or a compiled one — through both executors.

use std::borrow::Cow;

use haac_circuit::opt::live_wires;
use haac_circuit::Circuit;
use haac_gc::{
    rename_in_order, rename_live_in_order, HashScheme, Renaming, SlotProgram, StreamingEvaluator,
    StreamingGarbler,
};
use rand::Rng;

use crate::compiler::{gate_order, ReorderKind};
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
    /// carries the program's digest, not this tag, so a disagreement
    /// fails loudly instead of diverging transcripts.
    pub reorder: ReorderKind,
    /// The circuit's declared garbler input width: what a garbler hands
    /// the session drivers, whatever the program keeps.
    pub garbler_width: u32,
    /// The declared garbler inputs the program keeps, ascending: the
    /// program's garbler input `k` is declared bit
    /// `live_garbler_inputs[k]`. All of them (`0..garbler_width`) unless
    /// [`lower_live`] dropped inputs no output reads.
    pub live_garbler_inputs: Vec<u32>,
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

    /// The program's garbler bits out of the declared ones: `bits`
    /// itself when the program keeps every input, else the kept bits in
    /// [`live_garbler_inputs`](StreamingPlan::live_garbler_inputs) order.
    ///
    /// # Panics
    ///
    /// Panics unless `bits` has the declared
    /// [`garbler_width`](StreamingPlan::garbler_width).
    pub fn live_garbler_bits<'b>(&self, bits: &'b [bool]) -> Cow<'b, [bool]> {
        assert_eq!(bits.len(), self.garbler_width as usize, "garbler input width");
        if self.live_garbler_inputs.len() == bits.len() {
            Cow::Borrowed(bits)
        } else {
            Cow::Owned(self.live_garbler_inputs.iter().map(|&i| bits[i as usize]).collect())
        }
    }
}

/// The window every served plan is capped at: the paper's 2 MB SWW,
/// 131 072 labels — the one the simulator uses by default
/// ([`HaacConfig::default`]). Half of it, 65 536 instructions, is the
/// segment of [`ReorderKind::Segment`].
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
/// parties must lower identically — checked by the session header's digest)
/// but line independent AND gates up in runs the executors batch.
pub fn lower_with_reorder(circuit: &Circuit, kind: ReorderKind) -> StreamingPlan {
    lower_with_window(circuit, kind, served_window())
}

/// Lowers a circuit with its slab capped at `window` instead of
/// [`served_window`] (below the natural window, reads farther than the
/// slab go through the OoRW store, [`SlotProgram::with_window`]): the
/// entry point for deliberately small slabs. The schedule is the one
/// [`lower_with_reorder`] uses, whatever the window.
pub fn lower_with_window(
    circuit: &Circuit,
    kind: ReorderKind,
    window: WindowModel,
) -> StreamingPlan {
    let order = gate_order(circuit, kind, served_window());
    let (instrs, output_addrs) = rename_in_order(circuit, &order);
    let live_garbler_inputs = (0..circuit.garbler_inputs()).collect();
    plan(circuit, kind, window, Renaming { instrs, output_addrs, live_garbler_inputs })
}

/// Lowers the **live program** a session serves: what
/// [`lower_with_reorder`] lowers, less every gate and garbler input no
/// circuit output depends on, for the compiled schedules (`Full`,
/// `Segment`). One backward sweep ([`live_wires`]) marks the live
/// wires of the netlist as given; the schedule is [`gate_order`]'s on
/// that netlist, and the renaming pass skips the dead gates in it and
/// compacts the dead garbler inputs out of the address space. Every
/// evaluator input is kept, so the evaluator's width, and the OT that
/// delivers it, are the circuit's.
///
/// The plan keeps the declared [`garbler_width`](StreamingPlan::garbler_width)
/// and the [`live_garbler_inputs`](StreamingPlan::live_garbler_inputs)
/// map: a garbler hands its declared-width bits to the session drivers,
/// which select the live ones themselves
/// ([`StreamingPlan::live_garbler_bits`]).
///
/// [`ReorderKind::Baseline`] serves the netlist as given:
/// [`lower_with_reorder`]'s plan, whose transcript is bit-identical to
/// the oracle `haac_gc::garble` on the raw netlist. A circuit whose
/// every gate and garbler input some output reads lowers to exactly
/// [`lower_with_reorder`]'s plan under every schedule.
pub fn lower_live(circuit: &Circuit, kind: ReorderKind) -> StreamingPlan {
    if kind == ReorderKind::Baseline {
        return lower_with_reorder(circuit, kind);
    }
    let live = live_wires(circuit);
    let order = gate_order(circuit, kind, served_window());
    plan(circuit, kind, served_window(), rename_live_in_order(circuit, &order, &live))
}

/// The tail every lowering shares: window, runs and OoRW slots over a
/// renamed program of `circuit`.
fn plan(
    circuit: &Circuit,
    kind: ReorderKind,
    window: WindowModel,
    renamed: Renaming,
) -> StreamingPlan {
    let Renaming { instrs, output_addrs, live_garbler_inputs } = renamed;
    let program = SlotProgram::with_window(
        instrs,
        live_garbler_inputs.len() as u32,
        circuit.evaluator_inputs(),
        output_addrs,
        window.sww_wires(),
    )
    .expect("a scheduled circuit always lowers");
    StreamingPlan {
        window: WindowModel::new(program.slot_wires()),
        program,
        reorder: kind,
        garbler_width: circuit.garbler_inputs(),
        live_garbler_inputs,
    }
}

/// Lowers a circuit for streaming execution on the **baseline** order:
/// [`lower_with_reorder`] with [`ReorderKind::Baseline`] — transcripts
/// bit-identical to the oracle `haac_gc::garble`.
pub fn lower_for_streaming(circuit: &Circuit) -> StreamingPlan {
    lower_with_reorder(circuit, ReorderKind::Baseline)
}

/// Garbles and evaluates `plan` on the slab executors from one RNG and
/// decodes the outputs: the functional half of the paper's §5
/// "Correctness" methodology. On a [`compile`](crate::compile)d plan
/// every operand comes from where the hardware would read it — the SWW
/// slab in-window, the OoRW store for every far read — so a compiler
/// bug (a wrong rename, a missed or misrouted far read) decodes to
/// something other than the plaintext.
///
/// # Panics
///
/// Panics if the input widths do not match the plan.
pub fn run_gc_through_streams<R: Rng + ?Sized>(
    plan: &SlotProgram,
    garbler_bits: &[bool],
    evaluator_bits: &[bool],
    rng: &mut R,
    scheme: HashScheme,
) -> Vec<bool> {
    let mut garbler = StreamingGarbler::with_plan(plan, rng, scheme);
    let inputs = garbler.encode_inputs(garbler_bits, evaluator_bits);
    let mut evaluator = StreamingEvaluator::with_plan(plan, inputs, scheme);
    let mut tables = Vec::new();
    while garbler.next_tables_into(4096, &mut tables) {
        evaluator.feed(&tables);
    }
    evaluator.finish(&garbler.finish().output_decode).outputs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::compile;
    use haac_circuit::Builder;
    use haac_gc::stream::Liveness;
    use rand::{rngs::StdRng, SeedableRng};

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
        // A routed program carries the OoR sentinel in place of the
        // addresses it hid, so it cannot be lowered a second time.
        let c = mixed_circuit();
        let (routed, stats) = compile(&c, ReorderKind::Baseline, WindowModel::new(4));
        assert!(stats.oor_count > 0);
        let err = SlotProgram::new(
            routed.instrs().to_vec(),
            c.garbler_inputs(),
            c.evaluator_inputs(),
            routed.output_addrs().to_vec(),
        )
        .unwrap_err();
        assert!(err.contains("OoR sentinel"), "{err}");
    }

    #[test]
    fn reordered_programs_also_lower() {
        // The simulator's program is a plan the executors run: a Full
        // schedule under a sliding window that forces far reads decodes
        // the plaintext.
        let c = mixed_circuit();
        let (plan, stats) = compile(&c, ReorderKind::Full, WindowModel::new(8));
        assert!(plan.has_oor());
        assert_eq!(plan.and_count(), c.num_and_gates());
        assert_eq!(stats.oor_count, plan.oor_read_count());
        let (g, e) = (haac_circuit::to_bits(173, 8), haac_circuit::to_bits(99, 8));
        let mut rng = StdRng::seed_from_u64(3);
        let got = run_gc_through_streams(&plan, &g, &e, &mut rng, HashScheme::Rekeyed);
        assert_eq!(got, c.eval(&g, &e).unwrap());
    }

    #[test]
    #[should_panic(expected = "evaluator input width")]
    fn wrong_input_count_is_rejected() {
        let c = mixed_circuit();
        let (plan, _) = compile(&c, ReorderKind::Baseline, WindowModel::new(64));
        let mut rng = StdRng::seed_from_u64(5);
        run_gc_through_streams(&plan, &[false; 8], &[false; 3], &mut rng, HashScheme::Rekeyed);
    }

    #[test]
    fn streams_match_plaintext_across_windows_and_orders() {
        let c = mixed_circuit();
        let g_bits = haac_circuit::to_bits(173, 8);
        let e_bits = haac_circuit::to_bits(99, 8);
        let expect = c.eval(&g_bits, &e_bits).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        for sww in [4u32, 8, 16, 64, 4096] {
            for kind in [ReorderKind::Baseline, ReorderKind::Full, ReorderKind::Segment] {
                let (plan, _) = compile(&c, kind, WindowModel::new(sww));
                let got =
                    run_gc_through_streams(&plan, &g_bits, &e_bits, &mut rng, HashScheme::Rekeyed);
                assert_eq!(got, expect, "sww={sww} {kind:?}");
            }
        }
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
    fn live_plans_drop_dead_gates_and_garbler_inputs_but_keep_every_evaluator_input() {
        let mut b = Builder::new();
        let x = b.input_garbler(8);
        let y = b.input_evaluator(8);
        let (sum, _) = b.add_words(&x[..4], &y[..4]);
        let _dead = b.mul_words(&x, &y);
        let c = b.finish(sum).unwrap();
        let (g, e) = (haac_circuit::to_bits(0xA7, 8), haac_circuit::to_bits(0x5C, 8));
        for kind in [ReorderKind::Full, ReorderKind::Segment] {
            let full = lower_with_reorder(&c, kind);
            let live = lower_live(&c, kind);
            assert!(live.and_count() < full.and_count(), "{kind:?}: the multiplier is dead");
            assert_eq!((live.garbler_width, &live.live_garbler_inputs[..]), (8, &[0, 1, 2, 3][..]));
            assert_eq!(live.program.garbler_inputs(), 4);
            assert_eq!(live.program.evaluator_inputs(), 8, "{kind:?}: unread, and kept");
            let bits = live.live_garbler_bits(&g);
            let mut rng = StdRng::seed_from_u64(9);
            let got =
                run_gc_through_streams(&live.program, &bits, &e, &mut rng, HashScheme::Rekeyed);
            assert_eq!(got, c.eval(&g, &e).unwrap(), "{kind:?}");
        }
        assert_eq!(lower_live(&c, ReorderKind::Baseline), lower_for_streaming(&c));
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
