//! The slot-renamed label store: HAAC's tagless SWW scratchpad in
//! software (paper §3.1.1 / §4.2.2).
//!
//! The compiler's renaming pass makes every output address sequential,
//! which is what lets the hardware keep wire labels in a plain
//! scratchpad indexed by `addr % window` — no tags, no lookups, no
//! per-wire retire bookkeeping, because overwriting a slot when the
//! window slides *is* the retire. This module is the software analogue:
//!
//! - [`SlotProgram`] is a renamed, straight-line instruction stream
//!   (produced by `haac-core`'s `lower_for_streaming`) whose window
//!   size is computed **statically** from the maximum operand distance,
//!   so every read provably hits a live slot;
//! - `SlabLabels` is the flat `Vec<Block>` slab the streaming
//!   garbler/evaluator index with a single mask — the only label store
//!   an executor in this crate has.
//!
//! Safety of the tagless discipline: addresses are written in strictly
//! ascending order (inputs `1..=n`, then one output per instruction),
//! so slot `a % w` is clobbered exactly when address `a + w` is
//! written. A read of `a` by the instruction writing `out` is therefore
//! valid iff `out - a <= w` — which [`SlotProgram::new`] guarantees by
//! sizing `w` to the maximum operand distance. The functional executor
//! in `haac-core::exec` checks the same contract dynamically with slot
//! tags; here it is discharged once at plan-construction time and the
//! hot loop carries zero checks.
//!
//! **Out-of-range reads** (paper §3.1.4): a plan may instead be built
//! against a *deliberately small* window with
//! [`SlotProgram::with_window`]. Operands whose distance exceeds the
//! window are rewritten to the [`OOR_SLOT`] sentinel and routed through
//! a software OoRW queue: the producer enqueues the label into a
//! bounded overflow map the moment the address is written (before its
//! slot can be clobbered), and each consumer drains its entry in stream
//! order, retiring it after its last OoR read. Memory is then
//! O(window + queue) where the queue's peak occupancy is a **static**
//! property of the plan ([`SlotProgram::oor_queue_bound`]) — adversarial
//! wire-distance circuits stream through tiny slabs instead of forcing
//! the window up to the worst skip connection.

use crate::block::Block;

/// The operand sentinel meaning "pop this label from the OoRW queue
/// instead of reading the slab" (address 0 is reserved, matching the
/// HAAC ISA's OoR encoding).
pub const OOR_SLOT: u32 = 0;

/// Operation of one renamed streaming instruction (no NOPs: the
/// streaming lowering never emits pipeline filler).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotOp {
    /// Half-gate AND: consumes/produces one garbled table.
    And,
    /// FreeXOR.
    Xor,
    /// Free inversion (label relabeling); reads only `a`.
    Inv,
}

/// One renamed streaming instruction. Operands are *program wire
/// addresses* (inputs occupy `1..=num_inputs`, instruction `i` writes
/// `num_inputs + 1 + i`); the output address is implicit in the
/// instruction index, exactly as in the HAAC ISA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotInstr {
    /// First operand address.
    pub a: u32,
    /// Second operand address (equals `a` for INV).
    pub b: u32,
    /// The operation.
    pub op: SlotOp,
}

/// A circuit lowered for slot-addressed streaming: the renamed
/// instruction stream plus the statically derived slab geometry.
///
/// Instruction order is the source circuit's gate order (the compiler's
/// *baseline* schedule), so the table stream and per-gate tweaks are
/// bit-identical to the oracle [`garble`](crate::garble()) on the raw
/// netlist — reordering strategies can be layered on by both parties
/// symmetrically, but the default lowering preserves that transcript
/// exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotProgram {
    instrs: Vec<SlotInstr>,
    garbler_inputs: u32,
    evaluator_inputs: u32,
    output_addrs: Vec<u32>,
    /// `(address, output position)` sorted by address — lets executors
    /// snapshot output labels with one cursor as addresses are written
    /// in ascending order.
    outputs_by_addr: Vec<(u32, u32)>,
    slot_wires: u32,
    max_distance: u32,
    and_count: usize,
    peak_live: usize,
    /// Original addresses of OoR-sentinel operands in consumption order
    /// (instruction ascending, `a` before `b`) — the consumer drains
    /// this stream with one cursor.
    oor_reads: Vec<u32>,
    /// `(address, read count)` sorted ascending by address — the
    /// producer's enqueue points (writes arrive in ascending address
    /// order, so one cursor serves the whole stream).
    oor_sources: Vec<(u32, u32)>,
    /// Static peak of simultaneously queued OoRW entries.
    oor_queue_bound: usize,
}

impl SlotProgram {
    /// Builds a slot program from a renamed instruction stream.
    ///
    /// `instrs[i]` writes address `garbler_inputs + evaluator_inputs +
    /// 1 + i`; `output_addrs` name the circuit outputs in output order.
    /// The slab window is sized to the smallest power of two covering
    /// the maximum operand distance — **every** read is in-window and
    /// the OoRW queue stays empty — and the static peak-live residency
    /// is computed here once (amortized across every session that
    /// reuses the plan).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated renaming invariant:
    /// an operand that is zero (the OoR sentinel — streaming plans must
    /// be built from real addresses; OoR marking happens here), reads
    /// its own or a future address, or an output address out of range.
    pub fn new(
        instrs: Vec<SlotInstr>,
        garbler_inputs: u32,
        evaluator_inputs: u32,
        output_addrs: Vec<u32>,
    ) -> Result<SlotProgram, String> {
        SlotProgram::build(instrs, garbler_inputs, evaluator_inputs, output_addrs, None)
    }

    /// Builds a slot program against a **forced** slab window: operands
    /// whose distance exceeds the window (rounded up to the next power
    /// of two, minimum 2) are rewritten to [`OOR_SLOT`] and served from
    /// the software OoRW queue at execution time. The queue's peak
    /// occupancy is computed statically ([`oor_queue_bound`]), so a
    /// deliberately small window streams O(window + queue) labels
    /// however adversarial the circuit's wire distances are.
    ///
    /// The instruction stream, tweaks, and labels are unchanged by the
    /// rewrite, so executions against any window are **bit-identical**
    /// on the wire to the naturally sized slab.
    ///
    /// `instrs` must carry real addresses (marking happens here, not in
    /// the caller).
    ///
    /// # Errors
    ///
    /// As [`SlotProgram::new`].
    ///
    /// [`oor_queue_bound`]: SlotProgram::oor_queue_bound
    pub fn with_window(
        instrs: Vec<SlotInstr>,
        garbler_inputs: u32,
        evaluator_inputs: u32,
        output_addrs: Vec<u32>,
        window_wires: u32,
    ) -> Result<SlotProgram, String> {
        SlotProgram::build(
            instrs,
            garbler_inputs,
            evaluator_inputs,
            output_addrs,
            Some(window_wires),
        )
    }

    fn build(
        mut instrs: Vec<SlotInstr>,
        garbler_inputs: u32,
        evaluator_inputs: u32,
        output_addrs: Vec<u32>,
        window_wires: Option<u32>,
    ) -> Result<SlotProgram, String> {
        let num_inputs = garbler_inputs + evaluator_inputs;
        let first_out = num_inputs + 1;
        let num_addrs = first_out + instrs.len() as u32;
        let mut max_distance = 1u32;
        let mut and_count = 0usize;
        for (i, instr) in instrs.iter().enumerate() {
            let out = first_out + i as u32;
            let operands = if instr.op == SlotOp::Inv { 1 } else { 2 };
            for &operand in [instr.a, instr.b].iter().take(operands) {
                if operand == OOR_SLOT {
                    return Err(format!(
                        "instruction {i} carries the OoR sentinel; streaming plans must be \
                         built from real addresses (OoR marking happens at plan construction)"
                    ));
                }
                if operand >= out {
                    return Err(format!(
                        "instruction {i} reads address {operand} >= its output {out}"
                    ));
                }
                max_distance = max_distance.max(out - operand);
            }
            if instr.op == SlotOp::And {
                and_count += 1;
            }
        }
        for &addr in &output_addrs {
            if addr == 0 || addr >= num_addrs {
                return Err(format!("output address {addr} out of range (1..{num_addrs})"));
            }
        }
        let mut outputs_by_addr: Vec<(u32, u32)> =
            output_addrs.iter().enumerate().map(|(pos, &addr)| (addr, pos as u32)).collect();
        outputs_by_addr.sort_unstable();
        // Liveness is a property of the original addresses; compute it
        // before any OoR rewrite.
        let peak_live = peak_live(&instrs, num_inputs, &output_addrs);
        let slot_wires = match window_wires {
            Some(w) => w.max(2).next_power_of_two(),
            None => max_distance.max(2).next_power_of_two(),
        };
        // Rewrite every read farther than the slab to the OoRW queue,
        // recording the consumer stream (in consumption order) and the
        // per-address read counts the producer enqueues with.
        let mut oor_reads = Vec::new();
        let mut reads_per_addr: std::collections::HashMap<u32, u32> =
            std::collections::HashMap::new();
        if slot_wires < max_distance {
            for (i, instr) in instrs.iter_mut().enumerate() {
                let out = first_out + i as u32;
                if instr.op == SlotOp::Inv {
                    // INV reads only `a`; `b` mirrors it by convention.
                    if out - instr.a > slot_wires {
                        oor_reads.push(instr.a);
                        *reads_per_addr.entry(instr.a).or_insert(0) += 1;
                        instr.a = OOR_SLOT;
                        instr.b = OOR_SLOT;
                    }
                    continue;
                }
                if out - instr.a > slot_wires {
                    oor_reads.push(instr.a);
                    *reads_per_addr.entry(instr.a).or_insert(0) += 1;
                    instr.a = OOR_SLOT;
                }
                if out - instr.b > slot_wires {
                    oor_reads.push(instr.b);
                    *reads_per_addr.entry(instr.b).or_insert(0) += 1;
                    instr.b = OOR_SLOT;
                }
            }
        }
        let mut oor_sources: Vec<(u32, u32)> = reads_per_addr.into_iter().collect();
        oor_sources.sort_unstable();
        let oor_queue_bound = oor_queue_bound(&instrs, num_inputs, &oor_reads, &oor_sources);
        Ok(SlotProgram {
            instrs,
            garbler_inputs,
            evaluator_inputs,
            output_addrs,
            outputs_by_addr,
            slot_wires,
            max_distance,
            and_count,
            peak_live,
            oor_reads,
            oor_sources,
            oor_queue_bound,
        })
    }

    /// The renamed instruction stream, in execution order.
    #[inline]
    pub fn instrs(&self) -> &[SlotInstr] {
        &self.instrs
    }

    /// Garbler input bits (addresses `1..=garbler_inputs`).
    #[inline]
    pub fn garbler_inputs(&self) -> u32 {
        self.garbler_inputs
    }

    /// Evaluator input bits (addresses after the garbler's).
    #[inline]
    pub fn evaluator_inputs(&self) -> u32 {
        self.evaluator_inputs
    }

    /// Total primary inputs.
    #[inline]
    pub fn num_inputs(&self) -> u32 {
        self.garbler_inputs + self.evaluator_inputs
    }

    /// Address written by the first instruction.
    #[inline]
    pub fn first_output_addr(&self) -> u32 {
        self.num_inputs() + 1
    }

    /// Program addresses of the circuit outputs, in output order.
    #[inline]
    pub fn output_addrs(&self) -> &[u32] {
        &self.output_addrs
    }

    /// Output positions sorted by producing address (ascending).
    #[inline]
    pub(crate) fn outputs_by_addr(&self) -> &[(u32, u32)] {
        &self.outputs_by_addr
    }

    /// Slab capacity in wire labels: the smallest power of two `>=` the
    /// maximum operand distance, i.e. the SWW size under which **every**
    /// read of this program is in-window (zero OoR traffic).
    #[inline]
    pub fn slot_wires(&self) -> u32 {
        self.slot_wires
    }

    /// The largest `output_addr - operand_addr` across the program —
    /// what the renaming compacted wire lifetimes down to.
    #[inline]
    pub fn max_operand_distance(&self) -> u32 {
        self.max_distance
    }

    /// AND instructions (= garbled tables streamed).
    #[inline]
    pub fn and_count(&self) -> usize {
        self.and_count
    }

    /// Peak simultaneously-live wire addresses, computed statically at
    /// plan construction — what the streaming executors report, and
    /// equal to [`Liveness::peak_live_wires`](crate::Liveness::peak_live_wires)
    /// of the source netlist for a baseline-order plan.
    #[inline]
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Whether any read is routed through the OoRW queue (only possible
    /// for plans built with [`with_window`](SlotProgram::with_window)).
    #[inline]
    pub fn has_oor(&self) -> bool {
        !self.oor_reads.is_empty()
    }

    /// Total OoRW-queue reads in the program.
    #[inline]
    pub fn oor_read_count(&self) -> usize {
        self.oor_reads.len()
    }

    /// Original addresses of the OoR-sentinel operands, in consumption
    /// order (instruction ascending, `a` before `b`).
    #[inline]
    pub(crate) fn oor_reads(&self) -> &[u32] {
        &self.oor_reads
    }

    /// `(address, read count)` of every OoRW-queue source, ascending by
    /// address.
    #[inline]
    pub(crate) fn oor_sources(&self) -> &[(u32, u32)] {
        &self.oor_sources
    }

    /// Static peak of simultaneously queued OoRW entries — the memory
    /// bound of the overflow map, known at plan construction. Executors
    /// never exceed it (asserted by the OoRW test suite).
    #[inline]
    pub fn oor_queue_bound(&self) -> usize {
        self.oor_queue_bound
    }
}

/// Simulates the OoRW queue over the (already rewritten) stream: an
/// entry appears when its producing address is written and retires
/// after its last OoR read. The peak is what a bounded overflow map
/// must hold.
fn oor_queue_bound(
    instrs: &[SlotInstr],
    num_inputs: u32,
    oor_reads: &[u32],
    oor_sources: &[(u32, u32)],
) -> usize {
    if oor_reads.is_empty() {
        return 0;
    }
    let mut remaining: std::collections::HashMap<u32, u32> = oor_sources.iter().copied().collect();
    let first_out = num_inputs + 1;
    let mut src_cursor = 0usize;
    let mut read_cursor = 0usize;
    let mut occupancy = 0usize;
    let mut peak = 0usize;
    // Input addresses are written (ascending) before any instruction.
    while src_cursor < oor_sources.len() && oor_sources[src_cursor].0 <= num_inputs {
        occupancy += 1;
        src_cursor += 1;
    }
    peak = peak.max(occupancy);
    for (i, instr) in instrs.iter().enumerate() {
        // Reads drain before the instruction's own write lands.
        let operands = if instr.op == SlotOp::Inv { 1 } else { 2 };
        for &operand in [instr.a, instr.b].iter().take(operands) {
            if operand == OOR_SLOT {
                let addr = oor_reads[read_cursor];
                read_cursor += 1;
                let left = remaining.get_mut(&addr).expect("every OoR read has a source");
                *left -= 1;
                if *left == 0 {
                    occupancy -= 1;
                }
            }
        }
        let out = first_out + i as u32;
        if src_cursor < oor_sources.len() && oor_sources[src_cursor].0 == out {
            occupancy += 1;
            src_cursor += 1;
            peak = peak.max(occupancy);
        }
    }
    peak
}

/// Static liveness peak over a renamed stream — the same quantity
/// [`crate::stream::Liveness::peak_live_wires`] measures on the raw
/// circuit, computed once per plan instead of once per session.
fn peak_live(instrs: &[SlotInstr], num_inputs: u32, output_addrs: &[u32]) -> usize {
    const FOREVER: u32 = u32::MAX;
    let first_out = num_inputs + 1;
    let num_addrs = first_out as usize + instrs.len();
    let mut last_use = vec![0u32; num_addrs];
    let mut read = vec![false; num_addrs];
    for (i, instr) in instrs.iter().enumerate() {
        let operands = if instr.op == SlotOp::Inv { 1 } else { 2 };
        for &operand in [instr.a, instr.b].iter().take(operands) {
            last_use[operand as usize] = i as u32;
            read[operand as usize] = true;
        }
    }
    for &addr in output_addrs {
        last_use[addr as usize] = FOREVER;
        read[addr as usize] = true;
    }
    let mut live = 0usize;
    for addr in 1..=num_inputs {
        if read[addr as usize] {
            live += 1;
        }
    }
    let mut peak = live;
    for (i, instr) in instrs.iter().enumerate() {
        let out = first_out + i as u32;
        if read[out as usize] {
            live += 1;
            peak = peak.max(live);
        }
        let operands = if instr.op == SlotOp::Inv { 1 } else { 2 };
        for &operand in [instr.a, instr.b].iter().take(operands).filter(|&&o| o != out) {
            let idx = operand as usize;
            if read[idx] && last_use[idx] == i as u32 {
                read[idx] = false;
                live -= 1;
            }
        }
    }
    peak
}

/// The flat label slab: one `Block` per SWW slot, indexed by a single
/// mask — the entire label store of a slot-renamed streaming executor.
#[derive(Debug)]
pub(crate) struct SlabLabels {
    slab: Vec<Block>,
    mask: u32,
}

impl SlabLabels {
    /// A zeroed slab for `slot_wires` slots (must be a power of two).
    pub(crate) fn new(slot_wires: u32) -> SlabLabels {
        debug_assert!(slot_wires.is_power_of_two(), "slab size must be a power of two");
        SlabLabels { slab: vec![Block::ZERO; slot_wires as usize], mask: slot_wires - 1 }
    }

    #[inline]
    pub(crate) fn get(&self, addr: u32) -> Block {
        // No tag, no branch: the plan's distance bound proves the slot
        // still holds `addr`'s label.
        self.slab[(addr & self.mask) as usize]
    }

    #[inline]
    pub(crate) fn set(&mut self, addr: u32, label: Block) {
        self.slab[(addr & self.mask) as usize] = label;
    }
}

/// The slot-slab execution state shared by every slab-backed executor
/// (streaming garbler/evaluator and the pooled wave garbler): the flat
/// label slab, an ascending cursor that snapshots output labels as
/// their producing addresses stream past (outputs may be overwritten in
/// the slab long before `finish`, so they are captured at write time),
/// and the bounded OoRW overflow map for plans whose window was forced
/// below the worst operand distance.
#[derive(Debug)]
pub(crate) struct SlabState<'p> {
    plan: &'p SlotProgram,
    slab: SlabLabels,
    output_labels: Vec<Block>,
    next_output: usize,
    /// OoRW queue: address → (label, remaining reads). Bounded by the
    /// plan's static `oor_queue_bound`.
    oor: std::collections::HashMap<u32, (Block, u32)>,
    oor_src_cursor: usize,
    oor_read_cursor: usize,
    oor_peak: usize,
}

impl<'p> SlabState<'p> {
    pub(crate) fn new(plan: &'p SlotProgram) -> SlabState<'p> {
        SlabState {
            plan,
            slab: SlabLabels::new(plan.slot_wires()),
            output_labels: vec![Block::ZERO; plan.output_addrs().len()],
            next_output: 0,
            oor: std::collections::HashMap::with_capacity(plan.oor_queue_bound()),
            oor_src_cursor: 0,
            oor_read_cursor: 0,
            oor_peak: 0,
        }
    }

    #[inline]
    pub(crate) fn plan(&self) -> &'p SlotProgram {
        self.plan
    }

    /// Reads an in-window address straight off the slab (no OoR check —
    /// callers that can prove the operand is real use this).
    #[inline]
    pub(crate) fn get(&self, addr: u32) -> Block {
        self.slab.get(addr)
    }

    /// Reads one operand: the slab for real addresses, the OoRW queue
    /// for the sentinel. OoR reads **must** arrive in stream order
    /// (instruction ascending, `a` before `b`) — exactly the order the
    /// in-order executors fetch operands in.
    #[inline]
    pub(crate) fn read(&mut self, addr: u32) -> Block {
        if addr == OOR_SLOT {
            self.oor_next()
        } else {
            self.slab.get(addr)
        }
    }

    /// Original address of the `lookahead`-th not-yet-drained OoRW
    /// read (0 = the next one) — lets batch schedulers check whether a
    /// sentinel operand's producer has already been written.
    #[inline]
    pub(crate) fn oor_pending_addr(&self, lookahead: usize) -> u32 {
        self.plan.oor_reads()[self.oor_read_cursor + lookahead]
    }

    /// Drains the next OoRW-queue entry, retiring it after its last
    /// read.
    fn oor_next(&mut self) -> Block {
        let addr = self.plan.oor_reads()[self.oor_read_cursor];
        self.oor_read_cursor += 1;
        let entry = self.oor.get_mut(&addr).expect("OoRW entry enqueued before its consumer");
        entry.1 -= 1;
        let label = entry.0;
        if entry.1 == 0 {
            self.oor.remove(&addr);
        }
        label
    }

    /// Writes the label for `addr` (addresses arrive strictly
    /// ascending: inputs first, then one output per instruction),
    /// snapshotting output labels and enqueueing OoRW sources.
    #[inline]
    pub(crate) fn write(&mut self, addr: u32, label: Block) {
        self.slab.set(addr, label);
        let outs = self.plan.outputs_by_addr();
        while self.next_output < outs.len() && outs[self.next_output].0 == addr {
            self.output_labels[outs[self.next_output].1 as usize] = label;
            self.next_output += 1;
        }
        let sources = self.plan.oor_sources();
        if self.oor_src_cursor < sources.len() && sources[self.oor_src_cursor].0 == addr {
            self.oor.insert(addr, (label, sources[self.oor_src_cursor].1));
            self.oor_src_cursor += 1;
            self.oor_peak = self.oor_peak.max(self.oor.len());
        }
    }

    /// High-water mark of queued OoRW entries this execution reached
    /// (≤ the plan's static bound).
    pub(crate) fn oor_peak(&self) -> usize {
        self.oor_peak
    }

    /// OoRW entries queued right now (labels written but not yet fully
    /// consumed by their out-of-window readers).
    pub(crate) fn oor_len(&self) -> usize {
        self.oor.len()
    }

    pub(crate) fn into_output_labels(self) -> Vec<Block> {
        debug_assert_eq!(
            self.next_output,
            self.plan.output_addrs().len(),
            "every output address must have streamed past"
        );
        debug_assert!(self.oor.is_empty(), "every OoRW entry must have drained");
        self.output_labels
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor(a: u32, b: u32) -> SlotInstr {
        SlotInstr { a, b, op: SlotOp::Xor }
    }

    fn and(a: u32, b: u32) -> SlotInstr {
        SlotInstr { a, b, op: SlotOp::And }
    }

    #[test]
    fn geometry_is_derived_from_operand_distances() {
        // Inputs 1..=2; instrs write 3, 4, 5.
        let p = SlotProgram::new(
            vec![xor(1, 2), and(3, 1), SlotInstr { a: 4, b: 4, op: SlotOp::Inv }],
            1,
            1,
            vec![5],
        )
        .unwrap();
        assert_eq!(p.first_output_addr(), 3);
        // Largest distance: instruction 1 (out 4) reading address 1.
        assert_eq!(p.max_operand_distance(), 3);
        assert_eq!(p.slot_wires(), 4);
        assert_eq!(p.and_count(), 1);
    }

    #[test]
    fn sentinel_and_future_reads_are_rejected() {
        assert!(SlotProgram::new(vec![xor(0, 1)], 1, 1, vec![3]).is_err());
        assert!(SlotProgram::new(vec![xor(3, 1)], 1, 1, vec![3]).is_err());
        assert!(SlotProgram::new(vec![xor(1, 2)], 1, 1, vec![9]).is_err());
    }

    #[test]
    fn peak_live_matches_hand_count() {
        // xor(1,2) -> 3 ; xor(1,2) -> 4 ; xor(3,4) -> 5(out).
        // Inputs 1,2 live until instr 1; 3,4 live until instr 2; 5 forever.
        let p = SlotProgram::new(vec![xor(1, 2), xor(1, 2), xor(3, 4)], 1, 1, vec![5]).unwrap();
        // At instr 1: {1,2,3,4} live -> peak 4.
        assert_eq!(p.peak_live(), 4);
    }

    #[test]
    fn slab_reads_back_through_the_mask() {
        let mut slab = SlabLabels::new(8);
        slab.set(3, Block::from(7u128));
        slab.set(9, Block::from(9u128));
        assert_eq!(slab.get(3), Block::from(7u128));
        // Address 11 aliases slot 3 after the window slides twice.
        slab.set(11, Block::from(11u128));
        assert_eq!(slab.get(11), Block::from(11u128));
    }
}
