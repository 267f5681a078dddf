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
//! **Out-of-range reads** (paper §3.1.4): a plan may instead be capped
//! at a window *below* its worst operand distance with
//! [`SlotProgram::with_window`] — the served plans cap at the paper's
//! 2 MB SWW. Operands whose distance exceeds the window are rewritten
//! to the [`OOR_SLOT`] sentinel and routed through a software OoRW
//! queue whose every decision is made at plan construction: the build
//! simulates queue occupancy once and hands each far-read source a
//! **store slot** from a free list, so at run time the producer copies
//! the label into its slot the moment the address is written (before
//! its slab slot can be clobbered) and each consumer reads the slot the
//! plan names, in stream order, with a last-read bit retiring the
//! entry. Memory is O(window + queue) where the queue is a flat
//! `Vec<Block>` of [`SlotProgram::oor_queue_bound`] entries — a
//! **static** property of the plan — so adversarial wire-distance
//! circuits stream through small slabs instead of forcing the window up
//! to the worst skip connection.
//!
//! **AND runs** are a plan property too: the build partitions the
//! stream into runs of consecutive, mutually independent AND gates (at
//! most [`MAX_AND_BATCH`]) and stores each AND's remaining run length,
//! so the executors batch `(index, len)` through the cipher without
//! re-deriving independence per gate.

use crate::block::Block;
use crate::garble::MAX_AND_BATCH;

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

impl SlotInstr {
    /// The addresses the instruction reads, `a` before `b` (INV reads
    /// only `a`; its `b` mirrors `a` by convention).
    #[inline]
    fn operands(&self) -> impl Iterator<Item = u32> {
        [self.a, self.b].into_iter().take(if self.op == SlotOp::Inv { 1 } else { 2 })
    }
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
    /// For each AND instruction, the gates left in its run (itself
    /// included, at most [`MAX_AND_BATCH`]); 0 for XOR/INV. Computed
    /// from the original addresses, before the OoR rewrite.
    and_runs: Vec<u8>,
    /// One entry per OoR-sentinel operand in consumption order
    /// (instruction ascending, `a` before `b`): `store slot << 1 |
    /// last read` — the consumer drains this stream with one cursor.
    oor_reads: Vec<u32>,
    /// `(address, store slot)` sorted ascending by address — the
    /// producer's enqueue points (writes arrive in ascending address
    /// order, so one cursor serves the whole stream).
    oor_sources: Vec<(u32, u32)>,
    /// Static peak of simultaneously queued OoRW entries = slots the
    /// store needs.
    oor_queue_bound: usize,
}

impl SlotProgram {
    /// Builds a slot program from a renamed instruction stream.
    ///
    /// `instrs[i]` writes address `garbler_inputs + evaluator_inputs +
    /// 1 + i`; `output_addrs` name the circuit outputs in output order.
    /// The slab window is the **natural** one — the smallest power of
    /// two covering the maximum operand distance, so every read is
    /// in-window and the OoRW queue stays empty — and the static
    /// peak-live residency and AND-run partition are computed here once
    /// (amortized across every session that reuses the plan).
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
        SlotProgram::build(instrs, garbler_inputs, evaluator_inputs, output_addrs, u32::MAX)
    }

    /// Builds a slot program whose slab holds **at most** `window_wires`
    /// labels (rounded up to the next power of two, minimum 2): the
    /// smaller of that and the natural window. Below the natural
    /// window, operands whose distance exceeds the slab are rewritten to
    /// [`OOR_SLOT`] and served from the software OoRW queue at
    /// execution time; the queue's peak occupancy is computed statically
    /// ([`oor_queue_bound`]) and every source and read is given its
    /// store slot here, so a small window streams O(window + queue)
    /// labels however adversarial the circuit's wire distances are. A
    /// bound at or above the natural window reproduces
    /// [`SlotProgram::new`]'s plan exactly.
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
        SlotProgram::build(instrs, garbler_inputs, evaluator_inputs, output_addrs, window_wires)
    }

    fn build(
        mut instrs: Vec<SlotInstr>,
        garbler_inputs: u32,
        evaluator_inputs: u32,
        output_addrs: Vec<u32>,
        max_window_wires: u32,
    ) -> Result<SlotProgram, String> {
        let num_inputs = garbler_inputs + evaluator_inputs;
        let first_out = num_inputs + 1;
        let num_addrs = first_out + instrs.len() as u32;
        let mut max_distance = 1u32;
        let mut and_count = 0usize;
        for (i, instr) in instrs.iter().enumerate() {
            let out = first_out + i as u32;
            for operand in instr.operands() {
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
        // Liveness and run independence are properties of the original
        // addresses; compute both before any OoR rewrite. (A far read
        // whose producer sits inside the reader's own run therefore
        // breaks the run here, and the executors never pop a store slot
        // before the batch that fills it has been written.)
        let peak_live = peak_live(&instrs, num_inputs, &output_addrs);
        let and_runs = and_runs(&instrs, first_out);
        let natural = max_distance.max(2).next_power_of_two();
        // Saturating: a bound above 2^31 has no next power of two in u32.
        let bound = max_window_wires.max(2).checked_next_power_of_two().unwrap_or(u32::MAX);
        let slot_wires = natural.min(bound);
        let (oor_reads, oor_sources, oor_queue_bound) = if slot_wires < max_distance {
            route_far_reads(&mut instrs, first_out, slot_wires)
        } else {
            (Vec::new(), Vec::new(), 0)
        };
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
            and_runs,
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

    /// Slab capacity in wire labels: the natural window (the smallest
    /// power of two `>=` the maximum operand distance, under which
    /// **every** read of this program is in-window), or the smaller
    /// bound given to [`with_window`](SlotProgram::with_window).
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
    /// for plans built with [`with_window`](SlotProgram::with_window)
    /// below their natural window).
    #[inline]
    pub fn has_oor(&self) -> bool {
        !self.oor_reads.is_empty()
    }

    /// Total OoRW-queue reads in the program.
    #[inline]
    pub fn oor_read_count(&self) -> usize {
        self.oor_reads.len()
    }

    /// `store slot << 1 | last read` of every OoR-sentinel operand, in
    /// consumption order (instruction ascending, `a` before `b`).
    #[inline]
    pub(crate) fn oor_reads(&self) -> &[u32] {
        &self.oor_reads
    }

    /// `(address, store slot)` of every OoRW-queue source, ascending by
    /// address.
    #[inline]
    pub(crate) fn oor_sources(&self) -> &[(u32, u32)] {
        &self.oor_sources
    }

    /// Static peak of simultaneously queued OoRW entries — the size of
    /// the executors' flat store, known at plan construction. Executors
    /// never exceed it (asserted by the OoRW test suite).
    #[inline]
    pub fn oor_queue_bound(&self) -> usize {
        self.oor_queue_bound
    }

    /// For each instruction, the AND gates left in its batch run (itself
    /// included, at most [`MAX_AND_BATCH`]) — 0 for XOR and INV. The
    /// gates of a run are consecutive and mutually independent, so an
    /// executor at AND `i` may batch any prefix of `i..i + and_runs()[i]`.
    #[inline]
    pub fn and_runs(&self) -> &[u8] {
        &self.and_runs
    }

    /// Mean AND gates per batch run — what the schedule lets the
    /// executors keep in the cipher pipeline at once, before chunk
    /// boundaries cut any run (0 for a plan without AND gates).
    pub fn ands_per_batch(&self) -> f64 {
        // Every run ends in exactly one gate with a single gate left.
        let runs = self.and_runs.iter().filter(|&&left| left == 1).count();
        if runs == 0 {
            0.0
        } else {
            self.and_count as f64 / runs as f64
        }
    }
}

/// Partitions the stream's AND gates into batch runs, greedily from the
/// left: a gate joins the open run while the run is shorter than
/// [`MAX_AND_BATCH`] and neither operand reaches into the run's own
/// (contiguous, sequential) output range. Returns each AND's remaining
/// run length, itself included.
fn and_runs(instrs: &[SlotInstr], first_out: u32) -> Vec<u8> {
    let mut runs = vec![0u8; instrs.len()];
    let mut start = 0usize;
    while start < instrs.len() {
        // Renaming makes run outputs the contiguous range starting at
        // `run_min`, so "reads an output of an earlier gate in the run"
        // is a single compare per operand.
        let run_min = first_out + start as u32;
        let len = instrs[start..]
            .iter()
            .take(MAX_AND_BATCH)
            .take_while(|g| g.op == SlotOp::And && g.a < run_min && g.b < run_min)
            .count();
        for (j, left) in runs[start..start + len].iter_mut().enumerate() {
            *left = (len - j) as u8;
        }
        start += len.max(1);
    }
    runs
}

/// Rewrites every read farther than `window` to the [`OOR_SLOT`]
/// sentinel and simulates the OoRW queue over the stream — an entry
/// lives from the write of its producing address to its last far read —
/// handing each source a store slot from a free list. Returns the read
/// stream (`slot << 1 | last read`, consumption order), the sources
/// (`(address, slot)`, ascending) and the number of slots handed out,
/// which is the queue's peak occupancy: a slot is minted only when
/// every earlier one is occupied.
///
/// The stream is swept **backwards**, so the first far read met of an
/// address is its last in stream order (no counting pass) and the
/// entry's life ends, freeing its slot, where its producing write is
/// met. Entries that share a slot have disjoint lives gate-at-a-time;
/// the executors read a whole AND run before writing it, and the slots
/// stay valid there because a run never contains the producer of one of
/// its own reads (see [`and_runs`]), so no read of a run can observe a
/// slot the run's own writes recycle.
fn route_far_reads(
    instrs: &mut [SlotInstr],
    first_out: u32,
    window: u32,
) -> (Vec<u32>, Vec<(u32, u32)>, usize) {
    // Store slot + 1 of every address whose entry is live at the sweep
    // position; 0 elsewhere.
    let mut queued = vec![0u32; first_out as usize + instrs.len()];
    let mut reads = Vec::new();
    let mut sources = Vec::new();
    let mut free: Vec<u32> = Vec::new();
    let mut slots = 0u32;
    let mut written = |queued: &mut [u32], free: &mut Vec<u32>, addr: u32| {
        let slot = std::mem::take(&mut queued[addr as usize]);
        if slot != 0 {
            free.push(slot - 1);
            sources.push((addr, slot - 1));
        }
    };
    for (i, instr) in instrs.iter_mut().enumerate().rev() {
        let out = first_out + i as u32;
        written(&mut queued, &mut free, out);
        let mut route = |operand: &mut u32| {
            if out - *operand > window {
                let entry = &mut queued[*operand as usize];
                let last = *entry == 0;
                if last {
                    *entry = 1 + free.pop().unwrap_or_else(|| {
                        slots += 1;
                        slots - 1
                    });
                }
                reads.push((*entry - 1) << 1 | u32::from(last));
                *operand = OOR_SLOT;
            }
        };
        // `b` before `a`: the reverse of consumption order.
        if instr.op != SlotOp::Inv {
            route(&mut instr.b);
        }
        route(&mut instr.a);
        if instr.op == SlotOp::Inv {
            instr.b = instr.a;
        }
    }
    // Input addresses are written (ascending) before any instruction.
    for addr in (1..first_out).rev() {
        written(&mut queued, &mut free, addr);
    }
    reads.reverse();
    sources.reverse();
    (reads, sources, slots as usize)
}

/// Static liveness peak over a renamed stream — the same quantity
/// [`crate::stream::Liveness::peak_live_wires`] measures on the raw
/// circuit, computed once per plan instead of once per session.
fn peak_live(instrs: &[SlotInstr], num_inputs: u32, output_addrs: &[u32]) -> usize {
    const NEVER: u32 = 0;
    const FOREVER: u32 = u32::MAX;
    let first_out = num_inputs + 1;
    // Per address: NEVER read, 1 + the index of its last reader, or
    // FOREVER for a circuit output.
    let mut last_use = vec![NEVER; first_out as usize + instrs.len()];
    for (i, instr) in instrs.iter().enumerate() {
        for operand in instr.operands() {
            last_use[operand as usize] = i as u32 + 1;
        }
    }
    for &addr in output_addrs {
        last_use[addr as usize] = FOREVER;
    }
    let mut live = last_use[1..first_out as usize].iter().filter(|&&l| l != NEVER).count();
    let mut peak = live;
    for (i, instr) in instrs.iter().enumerate() {
        if last_use[first_out as usize + i] != NEVER {
            live += 1;
            peak = peak.max(live);
        }
        for operand in instr.operands() {
            let last = &mut last_use[operand as usize];
            if *last == i as u32 + 1 {
                // Retire once, even when both operands name the wire.
                *last = NEVER;
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
/// and the flat OoRW store for plans whose window was capped below the
/// worst operand distance.
#[derive(Debug)]
pub(crate) struct SlabState<'p> {
    plan: &'p SlotProgram,
    slab: SlabLabels,
    output_labels: Vec<Block>,
    next_output: usize,
    /// OoRW store: one label per slot the plan assigned, all
    /// `oor_queue_bound` of them allocated up front.
    oor: Vec<Block>,
    oor_src_cursor: usize,
    oor_read_cursor: usize,
    oor_len: usize,
    oor_peak: usize,
    /// The next address whose write has more to do than the slab store:
    /// the smaller of the next output to snapshot and the next OoRW
    /// source to enqueue (`u32::MAX` once both cursors are exhausted),
    /// so the per-gate write is one compare.
    next_event: u32,
}

/// The first address at or after the cursors that is a circuit output
/// or an OoRW source.
fn next_event(plan: &SlotProgram, next_output: usize, oor_src_cursor: usize) -> u32 {
    let output = plan.outputs_by_addr().get(next_output).map_or(u32::MAX, |&(addr, _)| addr);
    let source = plan.oor_sources().get(oor_src_cursor).map_or(u32::MAX, |&(addr, _)| addr);
    output.min(source)
}

impl<'p> SlabState<'p> {
    pub(crate) fn new(plan: &'p SlotProgram) -> SlabState<'p> {
        SlabState {
            plan,
            slab: SlabLabels::new(plan.slot_wires()),
            output_labels: vec![Block::ZERO; plan.output_addrs().len()],
            next_output: 0,
            oor: vec![Block::ZERO; plan.oor_queue_bound()],
            oor_src_cursor: 0,
            oor_read_cursor: 0,
            oor_len: 0,
            oor_peak: 0,
            next_event: next_event(plan, 0, 0),
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

    /// Reads one operand: the slab for real addresses, the OoRW store
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

    /// Serves the next OoRW read from the slot the plan names, retiring
    /// the entry on its last read.
    fn oor_next(&mut self) -> Block {
        let read = self.plan.oor_reads()[self.oor_read_cursor];
        self.oor_read_cursor += 1;
        self.oor_len -= (read & 1) as usize;
        self.oor[(read >> 1) as usize]
    }

    /// Writes the label for `addr` (addresses arrive strictly
    /// ascending: inputs first, then one output per instruction),
    /// snapshotting output labels and enqueueing OoRW sources.
    #[inline]
    pub(crate) fn write(&mut self, addr: u32, label: Block) {
        self.slab.set(addr, label);
        if addr == self.next_event {
            self.write_event(addr, label);
        }
    }

    /// The rare half of [`write`](SlabState::write): `addr` is a circuit
    /// output, an OoRW source, or both.
    #[cold]
    fn write_event(&mut self, addr: u32, label: Block) {
        let outs = self.plan.outputs_by_addr();
        while self.next_output < outs.len() && outs[self.next_output].0 == addr {
            self.output_labels[outs[self.next_output].1 as usize] = label;
            self.next_output += 1;
        }
        let sources = self.plan.oor_sources();
        if let Some(&(source, slot)) = sources.get(self.oor_src_cursor) {
            if source == addr {
                self.oor[slot as usize] = label;
                self.oor_src_cursor += 1;
                self.oor_len += 1;
                self.oor_peak = self.oor_peak.max(self.oor_len);
            }
        }
        self.next_event = next_event(self.plan, self.next_output, self.oor_src_cursor);
    }

    /// High-water mark of queued OoRW entries this execution reached
    /// (≤ the plan's static bound).
    pub(crate) fn oor_peak(&self) -> usize {
        self.oor_peak
    }

    /// OoRW entries queued right now (labels written but not yet fully
    /// consumed by their out-of-window readers).
    pub(crate) fn oor_len(&self) -> usize {
        self.oor_len
    }

    pub(crate) fn into_output_labels(self) -> Vec<Block> {
        debug_assert_eq!(
            self.next_output,
            self.plan.output_addrs().len(),
            "every output address must have streamed past"
        );
        debug_assert_eq!(self.oor_len, 0, "every OoRW entry must have drained");
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
    fn and_runs_are_greedy_independent_stretches_of_at_most_a_batch() {
        assert_eq!(std::mem::size_of::<SlotInstr>(), 12, "runs ride in a parallel byte");
        // Ten ANDs of the inputs (one full batch, then two), an XOR, and
        // two ANDs of which the second reads the first.
        let mut instrs = vec![and(1, 2); 10];
        instrs.extend([xor(3, 4), and(1, 2), and(14, 2)]);
        let p = SlotProgram::new(instrs, 1, 1, vec![15]).unwrap();
        assert_eq!(p.and_runs(), [8, 7, 6, 5, 4, 3, 2, 1, 2, 1, 0, 1, 1]);
        assert_eq!(p.ands_per_batch(), 12.0 / 4.0);
    }

    #[test]
    fn far_reads_are_slotted_statically_and_slots_are_recycled() {
        // Inputs 1..=2, window 2. Far reads (distance > 2), in stream
        // order: 1 by instruction 2, 3 by instruction 3, 1 again (its
        // last) by instruction 4, 4 by instruction 5, 6 by instruction 6.
        // Address 6 is written by the instruction that retires 3, so the
        // queue never holds more than {1, 3, 4}.
        let instrs =
            vec![xor(1, 2), xor(3, 3), xor(4, 1), xor(5, 3), xor(6, 1), xor(7, 4), xor(8, 6)];
        let p = SlotProgram::with_window(instrs.clone(), 1, 1, vec![9], 2).unwrap();
        assert_eq!(p.slot_wires(), 2);
        assert_eq!(p.oor_read_count(), 5);
        assert_eq!(p.oor_queue_bound(), 3);
        let sources: Vec<u32> = p.oor_sources().iter().map(|&(addr, _)| addr).collect();
        assert_eq!(sources, [1, 3, 4, 6]);
        let last_bits: Vec<u32> = p.oor_reads().iter().map(|read| read & 1).collect();
        assert_eq!(last_bits, [0, 1, 1, 1, 1]);
        let slot_of = |addr: u32| p.oor_sources().iter().find(|s| s.0 == addr).unwrap().1;
        let read_slots: Vec<u32> = p.oor_reads().iter().map(|read| read >> 1).collect();
        assert_eq!(read_slots, [1, 3, 1, 4, 6].map(slot_of));
        assert!(read_slots.iter().all(|&slot| (slot as usize) < p.oor_queue_bound()));
        assert_eq!(slot_of(6), slot_of(3), "6 takes the slot 3 gave up");
        // The window is an upper bound: from the natural size up, the
        // natural plan comes back.
        let natural = SlotProgram::new(instrs.clone(), 1, 1, vec![9]).unwrap();
        assert_eq!(natural.slot_wires(), 8);
        for roomy in [8, 9, 1 << 20, u32::MAX] {
            assert_eq!(
                SlotProgram::with_window(instrs.clone(), 1, 1, vec![9], roomy),
                Ok(natural.clone())
            );
        }
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
