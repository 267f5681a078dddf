//! Cycle-level HAAC simulator (paper §5 "Simulator").
//!
//! Models the accelerator of Fig. 3: `N` deeply pipelined gate engines
//! (21-stage Garbler / 18-stage Evaluator half-gate units, 1-cycle
//! FreeXOR), a banked sliding-wire-window scratchpad (4 banks per GE at
//! 2 GHz against a 1 GHz GE clock), per-GE instruction/table/OoRW
//! queues, a wire-forwarding network, and a streaming DRAM interface
//! (DDR4-4400 at 35.2 GB/s or HBM2 at 512 GB/s).
//!
//! Following the paper's co-design, simulation ([`map_and_simulate`])
//! runs in two passes:
//!
//! 1. **Mapping** (`map_to_ges`): the compiler maps instructions onto
//!    non-stalled GEs cycle by cycle with idealized memory, recording
//!    per-GE streams ("saving the order, and replaying it in hardware").
//! 2. **Replay** (`simulate`): the recorded streams execute against the
//!    full memory system — queues fill at DRAM bandwidth, table/OoRW
//!    pops block when streams fall behind, live wires drain write
//!    bandwidth — producing the reported cycle count.
//!
//! Both passes read the compiled [`SlotProgram`] itself: an
//! [`OOR_SLOT`] operand is an OoRW pop, and the live bit is derived from
//! the plan's far-read sources and outputs ([`live_bits`]).

use haac_gc::{SlotInstr, SlotOp, SlotProgram, OOR_SLOT};

use crate::compiler::live_bits;
use crate::window::WindowModel;

/// Off-chip memory technology (paper §5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DramKind {
    /// DDR4-4400: 35.2 GB/s.
    #[default]
    Ddr4,
    /// One HBM2 PHY: 512 GB/s.
    Hbm2,
    /// Infinite bandwidth (isolates compute time, as in Fig. 7).
    Infinite,
}

impl DramKind {
    /// Peak bandwidth in bytes per second.
    pub fn bytes_per_second(self) -> f64 {
        match self {
            DramKind::Ddr4 => 35.2e9,
            DramKind::Hbm2 => 512.0e9,
            DramKind::Infinite => f64::INFINITY,
        }
    }

    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            DramKind::Ddr4 => "DDR4",
            DramKind::Hbm2 => "HBM2",
            DramKind::Infinite => "Infinite",
        }
    }
}

/// Which party's pipeline the GEs implement (§3.2: the Garbler half-gate
/// unit is 21 stages, the Evaluator's 18).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Role {
    /// Garbler pipeline (4 hashes per AND; 21 stages).
    Garbler,
    /// Evaluator pipeline (2 hashes per AND; 18 stages).
    #[default]
    Evaluator,
}

impl Role {
    /// Half-gate pipeline depth in cycles.
    pub fn halfgate_latency(self) -> u64 {
        match self {
            Role::Garbler => 21,
            Role::Evaluator => 18,
        }
    }
}

/// Accelerator configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HaacConfig {
    /// Number of gate engines (the paper evaluates 1–16).
    pub num_ges: usize,
    /// SWW capacity in bytes (16 B per wire label).
    pub sww_bytes: usize,
    /// SWW banks per GE (§5: 4 works well).
    pub banks_per_ge: usize,
    /// Off-chip memory model.
    pub dram: DramKind,
    /// Garbler or Evaluator pipelines.
    pub role: Role,
    /// GE clock in GHz (§5: 1 GHz; the SWW runs at 2 GHz, modeled as two
    /// bank accesses per GE cycle).
    pub ge_clock_ghz: f64,
    /// Per-GE instruction queue capacity (entries).
    pub instr_queue: usize,
    /// Per-GE table queue capacity (tables).
    pub table_queue: usize,
    /// Per-GE OoRW queue capacity (wires).
    pub oorw_queue: usize,
}

impl Default for HaacConfig {
    fn default() -> Self {
        // The paper's headline configuration: 16 GEs, 2 MB SWW, 64 banks,
        // 64 KB of queue SRAM (split across the three queue types).
        HaacConfig {
            num_ges: 16,
            sww_bytes: 2 * 1024 * 1024,
            banks_per_ge: 4,
            dram: DramKind::Ddr4,
            role: Role::Evaluator,
            ge_clock_ghz: 1.0,
            instr_queue: 256,
            table_queue: 64,
            oorw_queue: 64,
        }
    }
}

impl HaacConfig {
    /// The window model implied by the SWW size.
    pub fn window(&self) -> WindowModel {
        WindowModel::from_bytes(self.sww_bytes)
    }

    /// Total SWW banks.
    pub fn num_banks(&self) -> usize {
        (self.num_ges * self.banks_per_ge).max(1)
    }

    /// DRAM bytes deliverable per GE cycle.
    pub fn dram_bytes_per_cycle(&self) -> f64 {
        self.dram.bytes_per_second() / (self.ge_clock_ghz * 1e9)
    }
}

/// Off-chip traffic in bytes, by stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Traffic {
    /// Instruction stream.
    pub instr_bytes: u64,
    /// Garbled-table stream.
    pub table_bytes: u64,
    /// OoRW stream (16 B wire + 4 B address each).
    pub oorw_bytes: u64,
    /// Live-wire write-backs.
    pub live_bytes: u64,
    /// One-time preload of in-window inputs.
    pub preload_bytes: u64,
}

impl Traffic {
    /// Total bytes moved.
    pub fn total(&self) -> u64 {
        self.instr_bytes + self.table_bytes + self.oorw_bytes + self.live_bytes + self.preload_bytes
    }

    /// Wire-only bytes (the Fig. 7 "wire traffic" series: OoRW reads,
    /// live write-backs, and the input preload).
    pub fn wire_bytes(&self) -> u64 {
        self.oorw_bytes + self.live_bytes + self.preload_bytes
    }
}

/// Issue-stall cycles by cause (summed across GEs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Stalls {
    /// Waiting on an operand still in a pipeline.
    pub operand: u64,
    /// SWW bank conflict.
    pub bank: u64,
    /// Instruction queue empty.
    pub instr_queue: u64,
    /// Table queue empty at an AND.
    pub table_queue: u64,
    /// OoRW queue empty at a sentinel operand.
    pub oorw_queue: u64,
}

/// Result of a timing simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Total cycles to drain the program (including the write tail).
    pub cycles: u64,
    /// Wall-clock seconds at the configured GE clock.
    pub seconds: f64,
    /// Instructions executed.
    pub instructions: u64,
    /// AND instructions.
    pub and_count: u64,
    /// XOR + INV instructions.
    pub free_count: u64,
    /// Off-chip traffic.
    pub traffic: Traffic,
    /// Stall accounting.
    pub stalls: Stalls,
    /// SWW read accesses (for the energy model).
    pub sww_reads: u64,
    /// SWW write accesses.
    pub sww_writes: u64,
    /// Instructions issued per GE.
    pub per_ge_instructions: Vec<u64>,
    /// The configuration simulated.
    pub config: HaacConfig,
}

impl SimReport {
    /// Wire-traffic-only time (Fig. 7's blue series): wire bytes at peak
    /// bandwidth, ignoring compute.
    pub fn wire_traffic_seconds(&self) -> f64 {
        self.traffic.wire_bytes() as f64 / self.config.dram.bytes_per_second()
    }
}

/// Per-GE instruction streams recorded by the mapping pass.
#[derive(Debug, Clone, PartialEq, Eq)]
struct GeAssignment {
    /// Instruction indices per GE, in that GE's execution order
    /// (monotonically increasing — GEs preserve program order locally).
    streams: Vec<Vec<u32>>,
}

/// Bits per encoded instruction for a given SWW capacity: 2 (op) + 2 ×
/// address width + 1 (live), per §3.1.3. Operand fields hold the
/// distance from the instruction's own output address, which the window
/// bounds below `sww_wires`, so the value 0 stays free for the OoRW
/// sentinel and output addresses are never encoded.
pub fn instruction_bits(sww_wires: u32) -> u32 {
    let addr_bits = 32 - (sww_wires.max(2) - 1).leading_zeros();
    2 + 2 * addr_bits + 1
}

/// Bytes per encoded instruction, each padded to a whole byte (§3.1.3's
/// 37 bits → 5 B for a 2 MB SWW).
pub fn instruction_bytes(sww_wires: u32) -> u32 {
    instruction_bits(sww_wires).div_ceil(8)
}

/// Computes static traffic for a compiled plan under a configuration.
pub fn static_traffic(plan: &SlotProgram, config: &HaacConfig) -> Traffic {
    let live = live_bits(plan).iter().filter(|&&live| live).count();
    traffic(plan, config, live)
}

fn traffic(plan: &SlotProgram, config: &HaacConfig, live: usize) -> Traffic {
    let window = config.window();
    let instr_bytes = instruction_bytes(window.sww_wires()) as u64;
    let num_inputs = plan.num_inputs();
    let base0 = window.base_for_frontier(plan.first_output_addr());
    let preloaded = num_inputs.saturating_sub(base0.saturating_sub(1)) as u64;
    Traffic {
        instr_bytes: plan.instrs().len() as u64 * instr_bytes,
        table_bytes: plan.and_count() as u64 * 32,
        oorw_bytes: plan.oor_read_count() as u64 * (16 + 4),
        live_bytes: live as u64 * 16,
        preload_bytes: preloaded * 16,
    }
}

// ---------------------------------------------------------------------------
// Engine internals
// ---------------------------------------------------------------------------

const READ_LATENCY: u64 = 3; // SWW read: address → bank → data (§3.2)
const WRITEBACK_LATENCY: u64 = 2;
const BANK_RING: usize = 64; // covers read + compute + writeback horizon
const BANK_PORTS_PER_CYCLE: u16 = 2; // SWW at 2 GHz vs 1 GHz GEs

/// Rolling per-cycle, per-bank access accounting.
struct BankTracker {
    stamps: Vec<u64>,
    counts: Vec<u16>,
    num_banks: usize,
}

impl BankTracker {
    fn new(num_banks: usize) -> BankTracker {
        BankTracker {
            stamps: vec![u64::MAX; BANK_RING * num_banks],
            counts: vec![0; BANK_RING * num_banks],
            num_banks,
        }
    }

    fn slot(&self, cycle: u64, bank: usize) -> usize {
        (cycle as usize % BANK_RING) * self.num_banks + bank
    }

    fn load(&mut self, cycle: u64, bank: usize) -> u16 {
        let s = self.slot(cycle, bank);
        if self.stamps[s] != cycle {
            self.stamps[s] = cycle;
            self.counts[s] = 0;
        }
        self.counts[s]
    }

    fn reserve(&mut self, cycle: u64, bank: usize) {
        let s = self.slot(cycle, bank);
        if self.stamps[s] != cycle {
            self.stamps[s] = cycle;
            self.counts[s] = 0;
        }
        self.counts[s] += 1;
    }
}

struct GeState {
    /// Position in the assigned stream (next instruction to issue).
    pos: usize,
    /// Items currently in the instruction queue (replay mode).
    instr_q: usize,
    /// Tables currently in the table queue.
    table_q: usize,
    /// Wires currently in the OoRW queue.
    oorw_q: usize,
    /// How many stream instructions have been fetched into the queue.
    fetched: usize,
    /// Tables fetched so far (stream position).
    tables_fetched: usize,
    /// OoR wires fetched so far.
    oorw_fetched: usize,
    issued: u64,
}

/// Runs the greedy mapping pass: instructions are assigned to the first
/// non-stalled GE each cycle with idealized (infinite) memory streams.
fn map_to_ges(plan: &SlotProgram, config: &HaacConfig) -> GeAssignment {
    Engine { plan, config, live: &[], assignment: None }.run().1
}

/// Mapping pass + replay, with the live bits [`live_bits`] derives: the
/// full compiler, eliminating spent wires included.
pub fn map_and_simulate(plan: &SlotProgram, config: &HaacConfig) -> SimReport {
    map_and_simulate_esw(plan, config, true)
}

/// Mapping pass + replay; `esw: false` writes every produced wire back
/// to DRAM, as the compiler does without eliminating spent wires
/// (§4.2.3; Fig. 6's Baseline and RO+RN bars).
pub fn map_and_simulate_esw(plan: &SlotProgram, config: &HaacConfig, esw: bool) -> SimReport {
    let assignment = map_to_ges(plan, config);
    let live = if esw { live_bits(plan) } else { vec![true; plan.instrs().len()] };
    Engine { plan, config, live: &live, assignment: Some(&assignment) }.run().0
}

struct Engine<'a> {
    plan: &'a SlotProgram,
    config: &'a HaacConfig,
    /// Per instruction, whether its output is written back (replay
    /// only).
    live: &'a [bool],
    assignment: Option<&'a GeAssignment>,
}

/// OoRW pops an instruction performs: its sentinel operands.
fn oor_pops(instr: &SlotInstr) -> usize {
    instr.operands().filter(|&a| a == OOR_SLOT).count()
}

impl Engine<'_> {
    fn run(&self) -> (SimReport, GeAssignment) {
        let program = self.plan;
        let n = program.instrs().len();
        let num_ges = self.config.num_ges.max(1);
        let window = self.config.window();
        let num_banks = self.config.num_banks();
        let first_out = program.first_output_addr();
        let mapping_mode = self.assignment.is_none();

        // ready[i]: cycle at which instruction i's output is forwardable.
        let mut ready = vec![u64::MAX; n];
        let mut banks = BankTracker::new(num_banks);
        let mut ges: Vec<GeState> = (0..num_ges)
            .map(|_| GeState {
                pos: 0,
                instr_q: 0,
                table_q: 0,
                oorw_q: 0,
                fetched: 0,
                tables_fetched: 0,
                oorw_fetched: 0,
                issued: 0,
            })
            .collect();
        // Mapping mode: one shared cursor; streams recorded as we go.
        let mut next_instr = 0usize;
        let mut streams: Vec<Vec<u32>> = vec![Vec::new(); num_ges];
        // Replay: per-GE derived streams.
        let empty: Vec<Vec<u32>> = Vec::new();
        let replay_streams: &Vec<Vec<u32>> = match self.assignment {
            Some(a) => &a.streams,
            None => &empty,
        };
        // Per-GE table/OoR demand in stream order (replay only).
        let (ge_and_total, ge_oor_total): (Vec<usize>, Vec<usize>) = if mapping_mode {
            (vec![0; num_ges], vec![0; num_ges])
        } else {
            let mut ands = vec![0usize; num_ges];
            let mut oors = vec![0usize; num_ges];
            for (g, stream) in replay_streams.iter().enumerate() {
                for &i in stream {
                    let instr = &program.instrs()[i as usize];
                    if instr.op == SlotOp::And {
                        ands[g] += 1;
                    }
                    oors[g] += oor_pops(instr);
                }
            }
            (ands, oors)
        };

        let mut stalls = Stalls::default();
        let mut sww_reads = 0u64;
        let mut sww_writes = 0u64;
        let mut issued_total = 0usize;
        let mut last_completion = 0u64;
        let mut cycle = 0u64;

        // DRAM byte budget accumulator (replay only).
        let bytes_per_cycle = self.config.dram_bytes_per_cycle();
        let instr_bytes = instruction_bytes(window.sww_wires()) as u64;
        let mut dram_credit = bytes_per_cycle;
        // Round-robin arbitration pointer.
        let mut rr_start = 0usize;
        // Outstanding live-wire write-backs in bytes.
        let mut write_backlog = 0u64;
        // Initial preload of in-window inputs competes for bandwidth too.
        let traffic = traffic(program, self.config, self.live.iter().filter(|&&l| l).count());
        let mut preload_remaining = if mapping_mode { 0 } else { traffic.preload_bytes };

        let halfgate = self.config.role.halfgate_latency();

        while issued_total < n {
            // --- DRAM service (replay only) -----------------------------
            if !mapping_mode {
                if dram_credit.is_infinite() {
                    dram_credit = f64::MAX;
                }
                // Preload drains first (program start).
                if preload_remaining > 0 {
                    let take = (dram_credit.min(preload_remaining as f64)) as u64;
                    preload_remaining -= take;
                    dram_credit -= take as f64;
                }
                // Round-robin over 3 stream kinds × GEs + the write stream.
                let services = num_ges * 3 + 1;
                let mut progressed = true;
                while progressed && dram_credit >= 4.0 {
                    progressed = false;
                    for k in 0..services {
                        let s = (rr_start + k) % services;
                        if s == services - 1 {
                            if write_backlog > 0 && dram_credit >= 16.0 {
                                write_backlog -= 16;
                                dram_credit -= 16.0;
                                progressed = true;
                            }
                            continue;
                        }
                        let g = s / 3;
                        let ge = &mut ges[g];
                        match s % 3 {
                            0 => {
                                if ge.fetched < replay_streams[g].len()
                                    && ge.instr_q < self.config.instr_queue
                                    && dram_credit >= instr_bytes as f64
                                {
                                    ge.fetched += 1;
                                    ge.instr_q += 1;
                                    dram_credit -= instr_bytes as f64;
                                    progressed = true;
                                }
                            }
                            1 => {
                                if ge.tables_fetched < ge_and_total[g]
                                    && ge.table_q < self.config.table_queue
                                    && dram_credit >= 32.0
                                {
                                    ge.tables_fetched += 1;
                                    ge.table_q += 1;
                                    dram_credit -= 32.0;
                                    progressed = true;
                                }
                            }
                            _ => {
                                if ge.oorw_fetched < ge_oor_total[g]
                                    && ge.oorw_q < self.config.oorw_queue
                                    && dram_credit >= 20.0
                                {
                                    ge.oorw_fetched += 1;
                                    ge.oorw_q += 1;
                                    dram_credit -= 20.0;
                                    progressed = true;
                                }
                            }
                        }
                    }
                    rr_start = (rr_start + 1) % services;
                }
                // Cap banked credit so idle periods don't bank unbounded
                // bandwidth (streams are continuous, queues bound it anyway).
                dram_credit = dram_credit.min(bytes_per_cycle * 64.0);
            }

            // --- Issue attempt per GE -----------------------------------
            let mut any_issued = false;
            for g in 0..num_ges {
                // Determine this GE's head instruction.
                let head: Option<u32> = if mapping_mode {
                    if ges[g].pos < streams[g].len() {
                        Some(streams[g][ges[g].pos])
                    } else if next_instr < n {
                        // Assign a fresh instruction to the idle GE.
                        let i = next_instr as u32;
                        next_instr += 1;
                        streams[g].push(i);
                        Some(i)
                    } else {
                        None
                    }
                } else if ges[g].pos < replay_streams[g].len() {
                    Some(replay_streams[g][ges[g].pos])
                } else {
                    None
                };
                let Some(i) = head else { continue };
                let i = i as usize;
                let instr = &program.instrs()[i];

                // Frontend: instruction must be in the queue (replay).
                if !mapping_mode && ges[g].instr_q == 0 {
                    stalls.instr_queue += 1;
                    continue;
                }

                // Queue heads for tables and OoR wires.
                let oor_needed = oor_pops(instr);
                if !mapping_mode && oor_needed > 0 && ges[g].oorw_q < oor_needed {
                    stalls.oorw_queue += 1;
                    continue;
                }
                if !mapping_mode && instr.op == SlotOp::And && ges[g].table_q == 0 {
                    stalls.table_queue += 1;
                    continue;
                }

                // Operand readiness (forwarding network: ready when the
                // producer's compute completes).
                let mut operands_ready = true;
                for operand in instr.operands() {
                    if operand == OOR_SLOT || operand < first_out {
                        continue; // OoR (queued) or primary input
                    }
                    let producer = (operand - first_out) as usize;
                    if ready[producer] > cycle {
                        operands_ready = false;
                        break;
                    }
                }
                if !operands_ready {
                    stalls.operand += 1;
                    continue;
                }

                // SWW bank ports for the in-window reads.
                let mut read_banks: [usize; 2] = [usize::MAX; 2];
                let mut n_reads = 0;
                for operand in instr.operands() {
                    if operand != OOR_SLOT {
                        read_banks[n_reads] = (operand as usize) % num_banks;
                        n_reads += 1;
                    }
                }
                let mut bank_ok = true;
                for &bank in read_banks.iter().take(n_reads) {
                    if banks.load(cycle, bank) >= BANK_PORTS_PER_CYCLE {
                        bank_ok = false;
                        break;
                    }
                }
                if !bank_ok {
                    stalls.bank += 1;
                    continue;
                }
                for &bank in read_banks.iter().take(n_reads) {
                    banks.reserve(cycle, bank);
                    sww_reads += 1;
                }

                // Issue!
                let compute = match instr.op {
                    SlotOp::And => halfgate,
                    SlotOp::Xor | SlotOp::Inv => 1,
                };
                let done = cycle + READ_LATENCY + compute;
                ready[i] = done;
                last_completion = last_completion.max(done + WRITEBACK_LATENCY);
                // Writeback bank reservation (best effort within the ring).
                let out_addr = first_out + i as u32;
                banks.reserve(done + WRITEBACK_LATENCY, (out_addr as usize) % num_banks);
                sww_writes += 1;

                ges[g].pos += 1;
                ges[g].issued += 1;
                issued_total += 1;
                any_issued = true;
                if !mapping_mode {
                    ges[g].instr_q -= 1;
                    if instr.op == SlotOp::And {
                        ges[g].table_q -= 1;
                    }
                    ges[g].oorw_q -= oor_needed;
                    if self.live[i] {
                        write_backlog += 16;
                    }
                }
            }

            // --- Advance time -------------------------------------------
            let mut advance = 1u64;
            if !any_issued {
                // Nothing issued: if every GE with work is purely
                // operand-stalled, skip ahead to the earliest ready event
                // (deep-chain fast path). Queue-stalled GEs need per-cycle
                // DRAM service, so no skipping then.
                let mut next_event = u64::MAX;
                let mut skippable = true;
                for g in 0..num_ges {
                    let head = if mapping_mode {
                        streams[g].get(ges[g].pos).copied()
                    } else {
                        replay_streams[g].get(ges[g].pos).copied()
                    };
                    let Some(i) = head else { continue };
                    let i = i as usize;
                    let instr = &program.instrs()[i];
                    if !mapping_mode {
                        let ge = &ges[g];
                        let oor_needed = oor_pops(instr);
                        if ge.instr_q == 0
                            || (instr.op == SlotOp::And && ge.table_q == 0)
                            || (oor_needed > 0 && ge.oorw_q < oor_needed)
                        {
                            skippable = false;
                            break;
                        }
                    }
                    for operand in instr.operands() {
                        if operand == OOR_SLOT || operand < first_out {
                            continue;
                        }
                        let producer = (operand - first_out) as usize;
                        if ready[producer] > cycle && ready[producer] != u64::MAX {
                            next_event = next_event.min(ready[producer]);
                        }
                    }
                }
                if skippable && next_event != u64::MAX && next_event > cycle {
                    advance = next_event - cycle;
                }
            }
            cycle += advance;
            if !mapping_mode {
                // DRAM keeps streaming through skipped cycles; queues cap
                // how much banked bandwidth is usable.
                dram_credit += bytes_per_cycle * advance as f64;
            }
        }

        // Drain: last completions plus the write backlog.
        let mut end = last_completion.max(cycle);
        if !mapping_mode && bytes_per_cycle.is_finite() && bytes_per_cycle > 0.0 {
            let drain = (write_backlog as f64 / bytes_per_cycle).ceil() as u64;
            end += drain;
        }

        let and_count = program.and_count() as u64;
        let report = SimReport {
            cycles: end,
            seconds: end as f64 / (self.config.ge_clock_ghz * 1e9),
            instructions: n as u64,
            and_count,
            free_count: n as u64 - and_count,
            traffic,
            stalls,
            sww_reads,
            sww_writes,
            per_ge_instructions: ges.iter().map(|g| g.issued).collect(),
            config: *self.config,
        };
        let assignment = GeAssignment { streams };
        (report, assignment)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compiler::{compile, ReorderKind};
    use haac_circuit::Builder;

    fn adder_tree_circuit(width: u32, lanes: usize) -> haac_circuit::Circuit {
        let mut b = Builder::new();
        let x = b.input_garbler(width * lanes as u32);
        let y = b.input_evaluator(width * lanes as u32);
        let mut outs = Vec::new();
        for k in 0..lanes {
            let lo = k * width as usize;
            let hi = lo + width as usize;
            let (s, _) = b.add_words(&x[lo..hi], &y[lo..hi]);
            outs.extend(s);
        }
        b.finish(outs).unwrap()
    }

    fn small_config() -> HaacConfig {
        HaacConfig { num_ges: 4, sww_bytes: 4096, ..HaacConfig::default() }
    }

    #[test]
    fn mapping_covers_all_instructions_once() {
        let c = adder_tree_circuit(8, 4);
        let config = small_config();
        let (plan, _) = compile(&c, ReorderKind::Full, config.window());
        let assignment = map_to_ges(&plan, &config);
        let mut seen: Vec<u32> = assignment.streams.iter().flatten().copied().collect();
        seen.sort_unstable();
        let expect: Vec<u32> = (0..c.num_gates() as u32).collect();
        assert_eq!(seen, expect);
        // Streams are per-GE monotonic (program order preserved locally).
        for s in &assignment.streams {
            assert!(s.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn replay_matches_instruction_count() {
        let c = adder_tree_circuit(8, 4);
        let config = small_config();
        let (plan, _) = compile(&c, ReorderKind::Full, config.window());
        let report = map_and_simulate(&plan, &config);
        assert_eq!(report.instructions as usize, c.num_gates());
        assert_eq!(report.per_ge_instructions.iter().sum::<u64>() as usize, c.num_gates());
        assert!(report.cycles > 0);
    }

    #[test]
    fn more_ges_do_not_slow_parallel_work() {
        let c = adder_tree_circuit(8, 16);
        let mk =
            |ges: usize| HaacConfig { num_ges: ges, dram: DramKind::Infinite, ..small_config() };
        let window = mk(1).window();
        let (plan, _) = compile(&c, ReorderKind::Full, window);
        let t1 = map_and_simulate(&plan, &mk(1)).cycles;
        let t8 = map_and_simulate(&plan, &mk(8)).cycles;
        assert!(t8 < t1, "8 GEs ({t8}) should beat 1 GE ({t1}) on parallel work");
    }

    #[test]
    fn infinite_bandwidth_is_no_slower() {
        let c = adder_tree_circuit(8, 8);
        let config = small_config();
        let (plan, _) = compile(&c, ReorderKind::Full, config.window());
        let ddr = map_and_simulate(&plan, &config).cycles;
        let inf =
            map_and_simulate(&plan, &HaacConfig { dram: DramKind::Infinite, ..config }).cycles;
        assert!(inf <= ddr, "infinite bandwidth ({inf}) must not lose to DDR4 ({ddr})");
    }

    #[test]
    fn hbm_beats_ddr_when_memory_bound() {
        // An AND-heavy shallow circuit (wide AND layer) is table-bound.
        let mut b = Builder::new();
        let x = b.input_garbler(2048);
        let y = b.input_evaluator(2048);
        let outs = b.and_words(&x, &y);
        let c = b.finish(outs).unwrap();
        let config = HaacConfig { num_ges: 16, ..small_config() };
        let (plan, _) = compile(&c, ReorderKind::Full, config.window());
        let ddr = map_and_simulate(&plan, &config).cycles;
        let hbm = map_and_simulate(&plan, &HaacConfig { dram: DramKind::Hbm2, ..config }).cycles;
        assert!(hbm < ddr, "HBM2 ({hbm}) should beat DDR4 ({ddr}) on a table-bound workload");
    }

    #[test]
    fn traffic_accounting_is_exact() {
        let c = adder_tree_circuit(8, 2);
        let config = small_config();
        let (plan, stats) = compile(&c, ReorderKind::Baseline, config.window());
        let traffic = static_traffic(&plan, &config);
        assert_eq!(traffic.table_bytes, stats.and_count as u64 * 32);
        assert_eq!(traffic.oorw_bytes, stats.oor_count as u64 * 20);
        assert_eq!(traffic.live_bytes, stats.live_count as u64 * 16);
        let per_instr = instruction_bytes(config.window().sww_wires()) as u64;
        assert_eq!(traffic.instr_bytes, stats.instructions as u64 * per_instr);
    }

    #[test]
    fn encoding_width_matches_paper() {
        // 2 MB SWW = 131072 wires → 17-bit addresses → 37 bits (§3.1.3).
        assert_eq!(instruction_bits(131_072), 2 + 2 * 17 + 1);
        assert_eq!(instruction_bytes(131_072), 5);
    }

    #[test]
    fn deep_chain_costs_pipeline_latency() {
        // A pure AND chain: n serial half-gates ≈ n × (latency) cycles.
        let mut b = Builder::new();
        let x = b.input_garbler(2);
        let mut acc = x[0];
        for _ in 0..64 {
            acc = b.and(acc, x[1]);
        }
        // Prevent folding tricks: acc is a fresh wire each step already.
        let c = b.finish(vec![acc]).unwrap();
        let config = HaacConfig { dram: DramKind::Infinite, ..small_config() };
        let (plan, _) = compile(&c, ReorderKind::Baseline, config.window());
        let report = map_and_simulate(&plan, &config);
        let min_expected = 64 * config.role.halfgate_latency();
        assert!(
            report.cycles >= min_expected,
            "chain of 64 ANDs must cost ≥ {min_expected} cycles, got {}",
            report.cycles
        );
    }
}
