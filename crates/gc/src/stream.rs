//! Incremental garbling and evaluation with window-bounded memory.
//!
//! GCs are a *streaming* workload (paper §2.2): tables are produced in
//! gate order, consumed exactly once, and never revisited, and a wire's
//! label is dead the moment its last reader has fired. The oracle pair
//! [`garble`](crate::garble())/[`evaluate`](crate::evaluate())
//! materializes every wire label (O(circuit) memory); the
//! [`StreamingGarbler`] and [`StreamingEvaluator`] here instead advance
//! through a renamed [`SlotProgram`] and expose the table stream in
//! caller-sized chunks — the software analogue of HAAC's sliding wire
//! window, and the substrate `haac-runtime` ships over real channels.
//!
//! There is one label store, the **slot slab** (paper §3.1.1, §4.2.2):
//! labels live in a flat `Vec<Block>` indexed by `addr & mask` — no
//! tags, no lookups, no per-gate retire bookkeeping (overwrite-on-rename
//! *is* the retire), peak residency known statically from the plan. This
//! is what compiler renaming buys the hardware, reproduced in software;
//! both parties run the same program against the same kind of store.
//! The plan also fixes what the loops would otherwise decide per gate:
//! which consecutive AND gates batch through the cipher together
//! ([`SlotProgram::and_runs`]), where the slab is smaller than the
//! program's natural window, which store slot serves each far read, and
//! how each run executes ([`SlotProgram::run_class`]). The loops
//! dispatch once a run, not once an operand:
//!
//! - a **clean XOR run** (up to 255 XORs reading only the slab, writing
//!   no circuit output or OoRW source) is one loop over the slab under
//!   one mask — garbling and evaluating share it, FreeXOR being the same
//!   sum on either side;
//! - an AND batch run reading **only the slab** gathers its operands
//!   and scatters its output labels through the same slab view;
//! - an AND batch run reading **only the OoRW store** takes its `2k`
//!   operands straight off the plan's store-slot stream;
//! - everything else — a write that snapshots an output or fills a
//!   store slot, a run mixing slab and store reads, INV — takes the
//!   **general path**, one sentinel test per read and one event compare
//!   per write. On the served MatMult-paper plan that is 2 048 of its
//!   1.56 M instructions.
//!
//! The default lowering ([`baseline_plan`]) preserves gate order and
//! per-gate tweaks, so for a shared seed the chunks concatenate to
//! exactly the tables, decode string and cipher-work counters of
//! [`garble`](crate::garble()) — the reference every executor in this
//! crate is compared with. [`Liveness`] is the circuit-level reference
//! for the plan's static [`SlotProgram::peak_live`].

use haac_circuit::{Circuit, GateOp, WireId};
use rand::Rng;

use crate::block::{Block, Delta};
use crate::evaluate::{eval_batch, eval_inv};
use crate::garble::{decode_outputs, garble_batch, garble_inv, MAX_AND_BATCH};
use crate::hash::{CryptoCounters, GateHash, HashScheme};
use crate::slab::{rename_in_order, SlabState, SlotOp, SlotProgram};

/// Sentinel for "never dies" (circuit outputs live to the end).
const LIVE_FOREVER: usize = usize::MAX;

/// Per-wire last-use positions for a circuit.
///
/// `last_use[w]` is the index of the last gate that reads wire `w`
/// (`LIVE_FOREVER` for circuit outputs, which the decode step reads after
/// every gate). A gate-output wire nobody reads dies at its own index.
#[derive(Debug, Clone)]
pub struct Liveness {
    last_use: Vec<usize>,
    read: Vec<bool>,
    is_output: Vec<bool>,
}

impl Liveness {
    /// Analyzes a circuit's wire lifetimes.
    pub fn analyze(circuit: &Circuit) -> Liveness {
        let n = circuit.num_wires() as usize;
        let mut last_use = vec![0usize; n];
        let mut read = vec![false; n];
        for (i, gate) in circuit.gates().iter().enumerate() {
            last_use[gate.a as usize] = i;
            read[gate.a as usize] = true;
            if gate.op != GateOp::Inv {
                last_use[gate.b as usize] = i;
                read[gate.b as usize] = true;
            }
        }
        let mut is_output = vec![false; n];
        for &w in circuit.outputs() {
            is_output[w as usize] = true;
            last_use[w as usize] = LIVE_FOREVER;
        }
        Liveness { last_use, read, is_output }
    }

    /// Whether wire `w` is dead once gate `index` has executed.
    #[inline]
    fn dies_at(&self, w: WireId, index: usize) -> bool {
        self.last_use[w as usize] <= index
    }

    /// Whether a wire's label must be stored at all: some gate reads it
    /// or it is a circuit output. Applies to both primary inputs and gate
    /// outputs — topological order guarantees a produced wire's readers
    /// all come later, so "read at all" means "still needed".
    #[inline]
    fn needed(&self, w: WireId) -> bool {
        self.read[w as usize] || self.is_output[w as usize]
    }

    /// The peak number of simultaneously live wires across the circuit —
    /// the minimum label storage an in-order streaming executor needs,
    /// computed on the raw netlist. Equals [`SlotProgram::peak_live`]
    /// for the renamed program, which is what the executors report.
    pub fn peak_live_wires(&self, circuit: &Circuit) -> usize {
        let mut stored = vec![false; self.last_use.len()];
        let mut live = 0usize;
        for w in 0..circuit.num_inputs() {
            if self.needed(w) {
                stored[w as usize] = true;
                live += 1;
            }
        }
        let mut peak = live;
        for (i, gate) in circuit.gates().iter().enumerate() {
            if self.needed(gate.out) {
                stored[gate.out as usize] = true;
                live += 1;
                peak = peak.max(live);
            }
            for w in [gate.a, gate.b] {
                let idx = w as usize;
                if stored[idx] && self.last_use[idx] != LIVE_FOREVER && self.dies_at(w, i) {
                    stored[idx] = false;
                    live -= 1;
                }
            }
        }
        peak
    }
}

/// Result of a finished streaming garble: what the garbler must still
/// send (the decode string) plus accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GarblerFinish {
    /// Permute bits of the output wires' zero labels (the decode string).
    pub output_decode: Vec<bool>,
    /// High-water mark of simultaneously live wire labels — the plan's
    /// static [`SlotProgram::peak_live`].
    pub peak_live_wires: usize,
    /// High-water mark of queued OoRW entries (0 unless the plan's
    /// window is below its natural one; always ≤ the plan's static
    /// [`SlotProgram::oor_queue_bound`]).
    pub oor_queue_peak: usize,
    /// Cipher work performed (key expansions, AES block calls).
    pub crypto: CryptoCounters,
}

/// Result of a finished streaming evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvaluatorFinish {
    /// The cleartext circuit outputs.
    pub outputs: Vec<bool>,
    /// The active output labels (before decoding).
    pub output_labels: Vec<Block>,
    /// High-water mark of simultaneously live wire labels — the plan's
    /// static [`SlotProgram::peak_live`].
    pub peak_live_wires: usize,
    /// High-water mark of queued OoRW entries (0 unless the plan's
    /// window is below its natural one; always ≤ the plan's static
    /// [`SlotProgram::oor_queue_bound`]).
    pub oor_queue_peak: usize,
    /// Cipher work performed (key expansions, AES block calls).
    pub crypto: CryptoCounters,
}

/// Gate-at-a-time garbler with window-bounded label storage.
///
/// Construction samples Δ and the input labels (same RNG draw order as
/// [`garble`](crate::garble()), so a shared seed yields a bit-identical
/// garbling). Input encoding and OT label pairs are served from a
/// dedicated input-label table that is dropped when table production
/// starts; thereafter memory is the slot slab alone. The slab itself is
/// allocated then, not at construction.
///
/// # Examples
///
/// ```
/// use haac_circuit::Builder;
/// use haac_gc::{baseline_plan, HashScheme, StreamingGarbler, StreamingEvaluator};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut b = Builder::new();
/// let x = b.input_garbler(8);
/// let y = b.input_evaluator(8);
/// let (s, _) = b.add_words(&x, &y);
/// let plan = baseline_plan(&b.finish(s).unwrap());
///
/// let mut rng = StdRng::seed_from_u64(1);
/// let mut garbler = StreamingGarbler::with_plan(&plan, &mut rng, HashScheme::Rekeyed);
/// let inputs = garbler.encode_inputs(&haac_circuit::to_bits(20, 8), &haac_circuit::to_bits(22, 8));
/// let mut evaluator = StreamingEvaluator::with_plan(&plan, inputs, HashScheme::Rekeyed);
/// while let Some(chunk) = garbler.next_tables(4) {
///     evaluator.feed(&chunk);
/// }
/// let decode = garbler.finish().output_decode;
/// let out = evaluator.finish(&decode).outputs;
/// assert_eq!(haac_circuit::from_bits(&out), 42);
/// ```
#[derive(Debug)]
pub struct StreamingGarbler<'c> {
    plan: &'c SlotProgram,
    /// The slot slab, allocated (and zeroed) when table production
    /// starts, not at construction: a session garbles its first frame
    /// while it waits on the OT, and the slab's memset belongs there.
    state: Option<SlabState<'c>>,
    hash: GateHash,
    delta: Delta,
    garbler_inputs: u32,
    evaluator_inputs: u32,
    num_gates: usize,
    num_tables: usize,
    /// Tables emitted by the chunks so far.
    tables_done: usize,
    /// Zero labels of all primary inputs; present until streaming starts.
    input_zero_labels: Option<Vec<Block>>,
    next_gate: usize,
}

impl<'c> StreamingGarbler<'c> {
    /// Samples a fresh garbling driven by a renamed [`SlotProgram`],
    /// backed by the tagless slot slab — the HAAC co-design hot path.
    ///
    /// The RNG draw order matches [`garble`](crate::garble()), and the
    /// default (baseline-order) lowering preserves gate order and
    /// tweaks, so the transcript is bit-identical to the oracle's for
    /// the same seed.
    ///
    /// `_scheme` is ignored (there is one gate hash): `benchmark/` pins
    /// this signature (ROADMAP item 1).
    pub fn with_plan<R: Rng + ?Sized>(
        plan: &'c SlotProgram,
        rng: &mut R,
        _scheme: HashScheme,
    ) -> StreamingGarbler<'c> {
        let delta = Delta::random(rng);
        let input_zero_labels: Vec<Block> =
            (0..plan.num_inputs()).map(|_| Block::random(rng)).collect();
        StreamingGarbler {
            plan,
            state: None,
            hash: GateHash::new(HashScheme::Rekeyed),
            delta,
            garbler_inputs: plan.garbler_inputs(),
            evaluator_inputs: plan.evaluator_inputs(),
            num_gates: plan.instrs().len(),
            num_tables: plan.and_count(),
            tables_done: 0,
            input_zero_labels: Some(input_zero_labels),
            next_gate: 0,
        }
    }

    /// The global FreeXOR offset of this garbling.
    pub fn delta(&self) -> Delta {
        self.delta
    }

    /// The `(zero, one)` label pair of a primary input wire — what the OT
    /// offers the evaluator for its choice bits.
    ///
    /// # Panics
    ///
    /// Panics if called after table streaming has begun (the input table
    /// is dropped to honor the memory bound) or for a non-input wire.
    pub fn input_label_pair(&self, wire: WireId) -> (Block, Block) {
        let inputs = self
            .input_zero_labels
            .as_ref()
            .expect("input labels are only available before streaming starts");
        let zero = inputs[wire as usize];
        (zero, zero ^ self.delta.block())
    }

    /// Encodes both parties' cleartext bits into active input labels
    /// (garbler bits first — the full label vector a co-located evaluator
    /// needs).
    ///
    /// # Panics
    ///
    /// Panics if the widths do not match the circuit, or if called after
    /// streaming started.
    pub fn encode_inputs(&self, garbler_bits: &[bool], evaluator_bits: &[bool]) -> Vec<Block> {
        assert_eq!(garbler_bits.len(), self.garbler_inputs as usize, "garbler input width");
        assert_eq!(evaluator_bits.len(), self.evaluator_inputs as usize, "evaluator input width");
        garbler_bits
            .iter()
            .chain(evaluator_bits)
            .enumerate()
            .map(|(w, &bit)| {
                let (zero, one) = self.input_label_pair(w as WireId);
                if bit {
                    one
                } else {
                    zero
                }
            })
            .collect()
    }

    /// Active labels for the garbler's own input bits.
    ///
    /// # Panics
    ///
    /// Panics if the width is wrong or streaming has started.
    pub fn garbler_input_labels(&self, garbler_bits: &[bool]) -> Vec<Block> {
        assert_eq!(garbler_bits.len(), self.garbler_inputs as usize, "garbler input width");
        garbler_bits
            .iter()
            .enumerate()
            .map(|(w, &bit)| {
                let (zero, one) = self.input_label_pair(w as WireId);
                if bit {
                    one
                } else {
                    zero
                }
            })
            .collect()
    }

    /// Moves the primary inputs' zero labels out (garbler inputs
    /// first) — the labels the first chunk would otherwise drop — so a
    /// garbling drained ahead of time can keep them.
    ///
    /// # Panics
    ///
    /// Panics if streaming has started or the labels were already taken.
    pub(crate) fn take_input_zero_labels(&mut self) -> Vec<Block> {
        self.slab();
        self.input_zero_labels
            .take()
            .expect("input labels are only available before streaming starts")
    }

    /// The slot slab, allocated on first use with the input labels
    /// written in.
    fn slab(&mut self) -> &mut SlabState<'c> {
        let (plan, labels) = (self.plan, &self.input_zero_labels);
        self.state.get_or_insert_with(|| {
            let labels = labels.as_ref().expect("the slab is allocated before the input labels go");
            let mut state = SlabState::new(plan);
            for (w, &label) in labels.iter().enumerate() {
                state.write(w as u32 + 1, label);
            }
            state
        })
    }

    /// Garbles forward until `max_tables` AND tables are produced or the
    /// gate list ends. Returns `None` once the circuit is fully garbled
    /// (a final, possibly short, chunk is returned first).
    ///
    /// Allocates a fresh table vector per call; the session hot path
    /// uses [`next_tables_into`](StreamingGarbler::next_tables_into) to
    /// reuse one buffer across chunks.
    pub fn next_tables(&mut self, max_tables: usize) -> Option<Vec<[Block; 2]>> {
        let mut tables = Vec::new();
        self.next_tables_into(max_tables, &mut tables).then_some(tables)
    }

    /// Like [`next_tables`](StreamingGarbler::next_tables) but fills a
    /// caller-owned buffer, so streaming a million-table circuit
    /// performs zero per-chunk allocations. The buffer is resized once to
    /// the chunk's table count and overwritten — a recycled buffer of
    /// that length is not zeroed first — and holds exactly the chunk
    /// afterwards (nothing once the circuit is done). Returns `false`
    /// once the circuit is fully garbled.
    ///
    /// The plan's runs of consecutive, mutually independent AND gates
    /// ([`SlotProgram::and_runs`]) are garbled as one batch each — up to
    /// 4·[`MAX_AND_BATCH`] AES blocks in flight, the software analogue
    /// of HAAC keeping several gate engines busy; re-keyed on a VAES
    /// core, one fused kernel that leaves only labels and tables. A
    /// chunk budget may cut a run; the table stream and every label are
    /// bit-identical to gate-at-a-time garbling either way.
    ///
    /// The first call allocates the slab and drops the input-label
    /// table: encoding and OT must happen before streaming.
    pub fn next_tables_into(&mut self, max_tables: usize, tables: &mut Vec<[Block; 2]>) -> bool {
        assert!(max_tables > 0, "chunk capacity must be positive");
        if self.next_gate == self.num_gates {
            tables.clear();
            return false;
        }
        self.slab();
        self.input_zero_labels = None;
        tables.resize(max_tables.min(self.num_tables - self.tables_done), [Block::ZERO; 2]);
        let state = self.state.as_mut().expect("the slab was just allocated");
        garble_slab(&self.hash, self.delta, state, &mut self.next_gate, max_tables, tables);
        self.tables_done += tables.len();
        true
    }

    /// Whether every gate has been garbled.
    pub fn is_done(&self) -> bool {
        self.next_gate == self.num_gates
    }

    /// Total AND tables this garbling will emit.
    pub fn total_tables(&self) -> usize {
        self.num_tables
    }

    /// OoRW entries queued right now — the live occupancy the session
    /// driver samples at chunk boundaries.
    pub fn oor_queue_len(&self) -> usize {
        self.state.as_ref().map_or(0, SlabState::oor_len)
    }

    /// Finishes the garbling, yielding the output-decode string.
    ///
    /// # Panics
    ///
    /// Panics if gates remain ungarbled.
    pub fn finish(mut self) -> GarblerFinish {
        assert!(self.is_done(), "finish() before all gates were garbled");
        // A program without instructions never started streaming: its
        // outputs are input labels, read from a slab allocated here.
        self.slab();
        let state = self.state.take().expect("the slab was just allocated");
        GarblerFinish {
            peak_live_wires: self.plan.peak_live(),
            oor_queue_peak: state.oor_peak(),
            output_decode: state.into_output_labels().iter().map(|l| l.lsb()).collect(),
            crypto: self.hash.counters(),
        }
    }
}

/// One chunk of garbling, dispatched once a run by the plan's static
/// [`RunClass`](crate::RunClass): a clean XOR run is one loop over the
/// slab, an AND batch run ([`SlotProgram::and_runs`] — consecutive,
/// mutually independent gates) gathers its operands from the slab or the
/// OoRW store the plan names, goes through the cipher as one batch, and
/// scatters its labels; the loop takes as much of the run as the chunk
/// budget allows and never re-derives independence or class. Only event
/// writes, mixed runs and INV take the per-operand path. `tables` holds
/// exactly the tables the chunk produces: `max_tables`, or fewer when
/// the plan has fewer left, in which case the chunk runs to the end.
fn garble_slab(
    hash: &GateHash,
    delta: Delta,
    state: &mut SlabState<'_>,
    next_gate: &mut usize,
    max_tables: usize,
    tables: &mut [[Block; 2]],
) {
    let instrs = state.plan().instrs();
    let runs = state.plan().and_runs();
    let first_out = state.plan().first_output_addr();
    // Batch operands, a structure of arrays initialised once per chunk:
    // every batch overwrites the prefix it reads.
    let mut bases = [0u64; MAX_AND_BATCH];
    let mut a = [Block::ZERO; MAX_AND_BATCH];
    let mut b = [Block::ZERO; MAX_AND_BATCH];
    let mut labels = [Block::ZERO; MAX_AND_BATCH];
    let mut index = *next_gate;
    let mut at = 0;
    while index < instrs.len() && at < max_tables {
        let instr = instrs[index];
        match instr.op {
            SlotOp::And => {
                let k = (runs[index] as usize).min(max_tables - at);
                let (bases, a, b, labels) =
                    (&mut bases[..k], &mut a[..k], &mut b[..k], &mut labels[..k]);
                state.and_operands(index, a, b);
                for (base, gate) in bases.iter_mut().zip(index as u64..) {
                    *base = gate;
                }
                garble_batch(hash, delta, bases, a, b, labels, &mut tables[at..at + k]);
                state.and_outputs(index, labels);
                at += k;
                index += k;
            }
            SlotOp::Xor => index += state.xor(index),
            SlotOp::Inv => {
                let w0a = state.read(instr.a);
                state.write(first_out + index as u32, garble_inv(delta, w0a));
                index += 1;
            }
        }
    }
    debug_assert_eq!(at, tables.len(), "the chunk was sized to its tables");
    *next_gate = index;
}

/// Gate-at-a-time evaluator with window-bounded label storage.
///
/// Tables are [`feed`](StreamingEvaluator::feed)-ed in garbling order, in
/// chunks of any size; evaluation advances as far as the supplied tables
/// allow. Chunks are consumed **in place** — tables stream straight from
/// the caller's slice into the batch scratch (reused stack arrays), so
/// the feed path performs zero per-chunk allocations and never copies a
/// table into an intermediate queue.
#[derive(Debug)]
pub struct StreamingEvaluator<'c> {
    state: SlabState<'c>,
    hash: GateHash,
    num_gates: usize,
    next_gate: usize,
    tables_consumed: u64,
}

impl<'c> StreamingEvaluator<'c> {
    /// Starts an evaluation of a renamed [`SlotProgram`] from the active
    /// labels of all primary inputs (garbler inputs first), backed by
    /// the tagless slot slab.
    ///
    /// # Panics
    ///
    /// Panics if the label count does not match the plan.
    ///
    /// `_scheme` is ignored (there is one gate hash): `benchmark/` pins
    /// this signature (ROADMAP item 1).
    pub fn with_plan(
        plan: &'c SlotProgram,
        input_labels: Vec<Block>,
        _scheme: HashScheme,
    ) -> StreamingEvaluator<'c> {
        assert_eq!(input_labels.len(), plan.num_inputs() as usize, "input label count");
        let mut state = SlabState::new(plan);
        for (w, label) in input_labels.into_iter().enumerate() {
            state.write(w as u32 + 1, label);
        }
        let mut evaluator = StreamingEvaluator {
            state,
            hash: GateHash::new(HashScheme::Rekeyed),
            num_gates: plan.instrs().len(),
            next_gate: 0,
            tables_consumed: 0,
        };
        // Table-free prefixes (XOR/INV) — and whole circuits without AND
        // gates — evaluate before any chunk arrives.
        evaluator.feed(&[]);
        evaluator
    }

    /// Supplies the next chunk of AND tables (in garbling order) and
    /// advances evaluation as far as possible, consuming tables directly
    /// from the slice.
    pub fn feed(&mut self, tables: &[[Block; 2]]) {
        let consumed = eval_slab(&self.hash, &mut self.state, &mut self.next_gate, tables);
        self.tables_consumed += consumed as u64;
    }

    /// Whether every gate has been evaluated.
    pub fn is_done(&self) -> bool {
        self.next_gate == self.num_gates
    }

    /// Number of garbled tables consumed so far.
    pub fn tables_consumed(&self) -> u64 {
        self.tables_consumed
    }

    /// OoRW entries queued right now — the live occupancy the session
    /// driver samples at chunk boundaries.
    pub fn oor_queue_len(&self) -> usize {
        self.state.oor_len()
    }

    /// Finishes the evaluation, decoding outputs with the garbler's
    /// decode string.
    ///
    /// # Panics
    ///
    /// Panics if gates remain unevaluated (tables missing) or the decode
    /// width is wrong.
    pub fn finish(self, output_decode: &[bool]) -> EvaluatorFinish {
        assert!(self.is_done(), "finish() before all gates were evaluated");
        let peak_live_wires = self.state.plan().peak_live();
        let oor_queue_peak = self.state.oor_peak();
        let output_labels = self.state.into_output_labels();
        EvaluatorFinish {
            outputs: decode_outputs(&output_labels, output_decode),
            output_labels,
            peak_live_wires,
            oor_queue_peak,
            crypto: self.hash.counters(),
        }
    }
}

/// Advances evaluation as far as `tables` allows and returns the number
/// of tables consumed (always the whole slice unless the instruction
/// list ends first); dispatched once a run by the plan's static classes
/// like [`garble_slab`].
fn eval_slab(
    hash: &GateHash,
    state: &mut SlabState<'_>,
    next_gate: &mut usize,
    tables: &[[Block; 2]],
) -> usize {
    let instrs = state.plan().instrs();
    let runs = state.plan().and_runs();
    let first_out = state.plan().first_output_addr();
    // Batch operands, a structure of arrays initialised once per chunk:
    // every batch overwrites the prefix it reads.
    let mut bases = [0u64; MAX_AND_BATCH];
    let mut a = [Block::ZERO; MAX_AND_BATCH];
    let mut b = [Block::ZERO; MAX_AND_BATCH];
    let mut labels = [Block::ZERO; MAX_AND_BATCH];
    let mut cursor = 0usize;
    let mut index = *next_gate;
    while index < instrs.len() {
        let instr = instrs[index];
        match instr.op {
            SlotOp::And => {
                if cursor == tables.len() {
                    break; // starved: wait for the next chunk
                }
                let k = (runs[index] as usize).min(tables.len() - cursor);
                let (bases, a, b, labels) =
                    (&mut bases[..k], &mut a[..k], &mut b[..k], &mut labels[..k]);
                state.and_operands(index, a, b);
                for (base, gate) in bases.iter_mut().zip(index as u64..) {
                    *base = gate;
                }
                // The tables are read in place from the received slice.
                eval_batch(hash, bases, a, b, &tables[cursor..cursor + k], labels);
                state.and_outputs(index, labels);
                cursor += k;
                index += k;
            }
            SlotOp::Xor => index += state.xor(index),
            SlotOp::Inv => {
                let wa = state.read(instr.a);
                state.write(first_out + index as u32, eval_inv(wa));
                index += 1;
            }
        }
    }
    *next_gate = index;
    cursor
}

/// Lowers a circuit into the baseline-order [`SlotProgram`]: identity
/// gate order through [`rename_in_order`] (input wire `w` → address
/// `w + 1`, gate `i`'s output → `num_inputs + 1 + i`), at the
/// **natural** window — it never spills, however large the circuit.
/// `haac-core`'s `lower_for_streaming` renames the same order and caps
/// the slab at the paper's 2 MB SWW.
///
/// # Panics
///
/// Panics only if the circuit violates its own SSA/topological
/// invariants (impossible for `Circuit`s built through the public API).
pub fn baseline_plan(circuit: &Circuit) -> SlotProgram {
    let order: Vec<u32> = (0..circuit.num_gates() as u32).collect();
    let (instrs, output_addrs) = rename_in_order(circuit, &order);
    SlotProgram::new(instrs, circuit.garbler_inputs(), circuit.evaluator_inputs(), output_addrs)
        .expect("a valid circuit always lowers")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::evaluate::evaluate;
    use crate::garble::{decode_outputs, garble};
    use haac_circuit::{to_bits, Builder};
    use rand::{rngs::StdRng, SeedableRng};

    fn adder_circuit(width: u32) -> Circuit {
        let mut b = Builder::new();
        let x = b.input_garbler(width);
        let y = b.input_evaluator(width);
        let (s, carry) = b.add_words(&x, &y);
        let mut out = s;
        out.push(carry);
        b.finish(out).unwrap()
    }

    fn mixed_circuit() -> Circuit {
        let mut b = Builder::new();
        let x = b.input_garbler(8);
        let y = b.input_evaluator(8);
        let (s, _) = b.add_words(&x, &y);
        let p = b.mul_words_trunc(&x, &y);
        let lt = b.lt_u(&x, &y);
        let nx = b.not_word(&x);
        let mut out = s;
        out.extend(p);
        out.push(lt);
        out.extend(nx);
        b.finish(out).unwrap()
    }

    #[test]
    fn streaming_matches_monolithic_garbling_bit_for_bit() {
        let c = adder_circuit(16);
        let plan = baseline_plan(&c);
        let mut rng1 = StdRng::seed_from_u64(77);
        let mut rng2 = StdRng::seed_from_u64(77);
        let mono = garble(&c, &mut rng1);
        let mut streaming = StreamingGarbler::with_plan(&plan, &mut rng2, HashScheme::Rekeyed);
        assert_eq!(streaming.delta(), mono.delta);
        let mut tables = Vec::new();
        while let Some(chunk) = streaming.next_tables(3) {
            assert!(chunk.len() <= 3);
            tables.extend(chunk);
        }
        assert_eq!(tables, mono.garbled.tables);
        assert_eq!(streaming.finish().output_decode, mono.garbled.output_decode);
    }

    #[test]
    fn slab_chunks_concatenate_to_the_oracle_transcript() {
        for c in [adder_circuit(16), mixed_circuit()] {
            let plan = baseline_plan(&c);
            let mut rng = StdRng::seed_from_u64(123);
            let oracle = garble(&c, &mut rng);
            for chunk in [1usize, 3, 64, 1 << 14] {
                let mut rng = StdRng::seed_from_u64(123);
                let mut slab = StreamingGarbler::with_plan(&plan, &mut rng, HashScheme::Rekeyed);
                assert_eq!(slab.delta(), oracle.delta);
                assert_eq!(slab.total_tables(), oracle.garbled.tables.len());
                let mut tables = Vec::new();
                while let Some(part) = slab.next_tables(chunk) {
                    let remaining = oracle.garbled.tables.len() - tables.len();
                    assert_eq!(part.len(), chunk.min(remaining), "chunk={chunk}");
                    tables.extend(part);
                }
                assert_eq!(tables, oracle.garbled.tables, "chunk={chunk}");
                let sf = slab.finish();
                assert_eq!(sf.output_decode, oracle.garbled.output_decode, "chunk={chunk}");
                assert_eq!(sf.crypto, oracle.crypto, "chunk={chunk}");
            }
        }
    }

    #[test]
    fn slab_evaluator_agrees_with_the_oracle_evaluator() {
        let c = mixed_circuit();
        let plan = baseline_plan(&c);
        let g_bits = to_bits(173, 8);
        let e_bits = to_bits(99, 8);
        for chunk in [1usize, 5, 1024] {
            let mut rng = StdRng::seed_from_u64(9);
            let mut garbler = StreamingGarbler::with_plan(&plan, &mut rng, HashScheme::Rekeyed);
            let inputs = garbler.encode_inputs(&g_bits, &e_bits);
            let mut slab_eval =
                StreamingEvaluator::with_plan(&plan, inputs.clone(), HashScheme::Rekeyed);
            let mut tables = Vec::new();
            while let Some(part) = garbler.next_tables(chunk) {
                slab_eval.feed(&part);
                tables.extend(part);
            }
            let decode = garbler.finish().output_decode;
            let oracle_labels = evaluate(&c, &tables, &inputs);
            let sf = slab_eval.finish(&decode);
            assert_eq!(sf.output_labels, oracle_labels, "chunk={chunk}");
            assert_eq!(sf.outputs, decode_outputs(&oracle_labels, &decode), "chunk={chunk}");
            assert_eq!(sf.outputs, c.eval(&g_bits, &e_bits).unwrap(), "chunk={chunk}");
        }
    }

    #[test]
    fn slab_peaks_are_static_and_match_liveness() {
        let c = adder_circuit(8);
        let plan = baseline_plan(&c);
        assert_eq!(plan.peak_live(), Liveness::analyze(&c).peak_live_wires(&c));
        let mut rng = StdRng::seed_from_u64(4);
        let mut garbler = StreamingGarbler::with_plan(&plan, &mut rng, HashScheme::Rekeyed);
        let inputs = garbler.encode_inputs(&to_bits(1, 8), &to_bits(2, 8));
        let mut evaluator = StreamingEvaluator::with_plan(&plan, inputs, HashScheme::Rekeyed);
        while let Some(tables) = garbler.next_tables(4) {
            evaluator.feed(&tables);
        }
        let gfin = garbler.finish();
        let efin = evaluator.finish(&gfin.output_decode);
        assert_eq!(gfin.peak_live_wires, plan.peak_live());
        assert_eq!(efin.peak_live_wires, plan.peak_live());
    }

    #[test]
    fn streaming_pipeline_is_correct_for_every_chunk_size() {
        let plan = baseline_plan(&adder_circuit(8));
        for chunk in [1usize, 2, 7, 64, 1024] {
            let mut rng = StdRng::seed_from_u64(chunk as u64);
            let mut garbler = StreamingGarbler::with_plan(&plan, &mut rng, HashScheme::Rekeyed);
            let inputs = garbler.encode_inputs(&to_bits(200, 8), &to_bits(55, 8));
            let mut evaluator = StreamingEvaluator::with_plan(&plan, inputs, HashScheme::Rekeyed);
            while let Some(tables) = garbler.next_tables(chunk) {
                evaluator.feed(&tables);
            }
            let decode = garbler.finish().output_decode;
            let got = evaluator.finish(&decode).outputs;
            assert_eq!(haac_circuit::from_bits(&got), 255, "chunk={chunk}");
        }
    }

    #[test]
    fn streaming_agrees_with_monolithic_evaluate() {
        let c = adder_circuit(12);
        let g_bits = to_bits(3000, 12);
        let e_bits = to_bits(1095, 12);
        let mut rng = StdRng::seed_from_u64(5);
        let mono = garble(&c, &mut rng);
        let labels = mono.encode_inputs(&c, &g_bits, &e_bits);
        let mono_out = evaluate(&c, &mono.garbled.tables, &labels);

        let plan = baseline_plan(&c);
        let mut rng = StdRng::seed_from_u64(5);
        let mut garbler = StreamingGarbler::with_plan(&plan, &mut rng, HashScheme::Rekeyed);
        let inputs = garbler.encode_inputs(&g_bits, &e_bits);
        let mut evaluator = StreamingEvaluator::with_plan(&plan, inputs, HashScheme::Rekeyed);
        while let Some(tables) = garbler.next_tables(8) {
            evaluator.feed(&tables);
        }
        let fin = evaluator.finish(&garbler.finish().output_decode);
        assert_eq!(fin.output_labels, mono_out);
    }

    #[test]
    fn deep_chain_runs_in_constant_live_memory() {
        // A long dependency chain: w_{i+1} = w_i AND input — only a couple
        // of wires are ever live, however long the chain.
        let mut b = Builder::new();
        let x = b.input_garbler(1);
        let y = b.input_evaluator(1);
        let mut acc = b.xor(x[0], y[0]);
        for _ in 0..2000 {
            acc = b.and(acc, x[0]);
        }
        let c = b.finish(vec![acc]).unwrap();
        let plan = baseline_plan(&c);

        let mut rng = StdRng::seed_from_u64(9);
        let mut garbler = StreamingGarbler::with_plan(&plan, &mut rng, HashScheme::Rekeyed);
        let inputs = garbler.encode_inputs(&[true], &[false]);
        let mut evaluator = StreamingEvaluator::with_plan(&plan, inputs, HashScheme::Rekeyed);
        while let Some(tables) = garbler.next_tables(16) {
            evaluator.feed(&tables);
        }
        let gfin = garbler.finish();
        let efin = evaluator.finish(&gfin.output_decode);
        assert_eq!(efin.outputs, vec![true]);
        assert!(gfin.peak_live_wires <= 4, "garbler peak {}", gfin.peak_live_wires);
        assert!(efin.peak_live_wires <= 4, "evaluator peak {}", efin.peak_live_wires);
        assert_eq!(c.num_wires(), 2003);
    }

    #[test]
    fn peak_live_wires_analysis_matches_execution() {
        let c = adder_circuit(8);
        let analyzed = Liveness::analyze(&c).peak_live_wires(&c);
        let plan = baseline_plan(&c);
        let mut rng = StdRng::seed_from_u64(4);
        let mut garbler = StreamingGarbler::with_plan(&plan, &mut rng, HashScheme::Rekeyed);
        let inputs = garbler.encode_inputs(&to_bits(1, 8), &to_bits(2, 8));
        let mut evaluator = StreamingEvaluator::with_plan(&plan, inputs, HashScheme::Rekeyed);
        while let Some(tables) = garbler.next_tables(4) {
            evaluator.feed(&tables);
        }
        let gfin = garbler.finish();
        let efin = evaluator.finish(&gfin.output_decode);
        assert_eq!(gfin.peak_live_wires, analyzed);
        assert_eq!(efin.peak_live_wires, analyzed);
    }

    #[test]
    fn next_tables_into_reuses_buffer_and_matches_next_tables() {
        let plan = baseline_plan(&adder_circuit(16));
        let mut rng1 = StdRng::seed_from_u64(55);
        let mut rng2 = StdRng::seed_from_u64(55);
        let mut by_alloc = StreamingGarbler::with_plan(&plan, &mut rng1, HashScheme::Rekeyed);
        let mut by_reuse = StreamingGarbler::with_plan(&plan, &mut rng2, HashScheme::Rekeyed);
        let mut buf: Vec<[Block; 2]> = Vec::with_capacity(5);
        let capacity_ptr = buf.as_ptr();
        loop {
            let chunk = by_alloc.next_tables(5);
            let more = by_reuse.next_tables_into(5, &mut buf);
            assert_eq!(chunk.is_some(), more);
            match chunk {
                Some(chunk) => {
                    assert_eq!(chunk, buf);
                    // The buffer is refilled in place, never regrown.
                    assert_eq!(buf.as_ptr(), capacity_ptr);
                }
                None => break,
            }
        }
        assert_eq!(by_alloc.finish(), by_reuse.finish());
    }

    #[test]
    fn streaming_counters_meter_exactly_two_expansions_per_and() {
        let c = adder_circuit(8);
        let ands = c.num_and_gates() as u64;
        let plan = baseline_plan(&c);
        let mut rng = StdRng::seed_from_u64(60);
        let mut garbler = StreamingGarbler::with_plan(&plan, &mut rng, HashScheme::Rekeyed);
        let inputs = garbler.encode_inputs(&to_bits(9, 8), &to_bits(5, 8));
        let mut evaluator = StreamingEvaluator::with_plan(&plan, inputs, HashScheme::Rekeyed);
        while let Some(tables) = garbler.next_tables(4) {
            evaluator.feed(&tables);
        }
        let gfin = garbler.finish();
        assert_eq!(gfin.crypto.key_expansions, 2 * ands);
        assert_eq!(gfin.crypto.aes_blocks, 4 * ands);
        let efin = evaluator.finish(&gfin.output_decode);
        assert_eq!(efin.crypto.key_expansions, 2 * ands);
        assert_eq!(efin.crypto.aes_blocks, 2 * ands);
    }

    #[test]
    fn outputs_produced_early_survive_slab_overwrites() {
        // The first XOR's result is a circuit output but its slab slot
        // is overwritten many window-slides later; the snapshot cursor
        // must have captured it at write time.
        let mut b = Builder::new();
        let x = b.input_garbler(1);
        let y = b.input_evaluator(1);
        let early = b.xor(x[0], y[0]);
        let mut lo = early;
        let mut hi = b.and(x[0], y[0]);
        for _ in 0..200 {
            // Rolling pair: operands are always recent wires, so the
            // renamed distances (and the slab) stay small while the
            // address stream runs far past the early output's slot.
            let t = b.and(lo, hi);
            let n = b.xor(t, hi);
            lo = hi;
            hi = n;
        }
        let c = b.finish(vec![early, hi]).unwrap();
        let plan = baseline_plan(&c);
        assert!(plan.slot_wires() < c.num_wires(), "the window must actually slide");

        let mut rng = StdRng::seed_from_u64(31);
        let mut garbler = StreamingGarbler::with_plan(&plan, &mut rng, HashScheme::Rekeyed);
        let inputs = garbler.encode_inputs(&[true], &[false]);
        let mut evaluator = StreamingEvaluator::with_plan(&plan, inputs, HashScheme::Rekeyed);
        while let Some(tables) = garbler.next_tables(7) {
            evaluator.feed(&tables);
        }
        let fin = evaluator.finish(&garbler.finish().output_decode);
        assert_eq!(fin.outputs, c.eval(&[true], &[false]).unwrap());
    }

    #[test]
    #[should_panic(expected = "before streaming starts")]
    fn input_labels_unavailable_after_streaming_starts() {
        let plan = baseline_plan(&adder_circuit(4));
        let mut rng = StdRng::seed_from_u64(2);
        let mut garbler = StreamingGarbler::with_plan(&plan, &mut rng, HashScheme::Rekeyed);
        let _ = garbler.next_tables(1);
        let _ = garbler.input_label_pair(0);
    }
}
