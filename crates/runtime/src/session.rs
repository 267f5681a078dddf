//! End-to-end two-party sessions: handshake, input delivery, base OT,
//! framed table streaming, and output sharing.
//!
//! Two co-design ideas from the paper meet in this module:
//!
//! - **Tables are a stream, and the queue under it stays plain.** HAAC
//!   decouples its gate engines from memory with simple queues; here
//!   the queue is the transport's own send buffer. The table stream
//!   crosses the channel in transport-sized `Tables` frames
//!   ([`SessionConfig::chunk_tables`], 64 KiB by default), one flush
//!   each, so the evaluator is evaluating frame N while the garbler
//!   garbles frame N+1. Within one party compute and I/O alternate:
//!   there is no second, in-process queue behind the transport's. The
//!   frame is the unit on the channel; the plan's sliding wire window
//!   ([`StreamingPlan::window`]) is circuit-wire *residency* and only
//!   bounds the frame where it is smaller.
//! - **Slot-renamed execution.** A session runs off a cached
//!   [`StreamingPlan`] ([`SessionConfig::for_circuit`] lowers once, the
//!   server's circuit cache lowers once *per workload*): labels live in
//!   a flat slab indexed by window slot, with zero per-gate hashing or
//!   retire bookkeeping and the peak residency known statically from
//!   the plan.
//!
//! **Each side is straight-line phases:** handshake, OT, stream and
//! output, in order, each arming its deadline as it starts, with every
//! flight ending in a flush in plain sight. The OT phase is one
//! base-OT exchange a role; [`OtMode::Extended`] runs the same exchange
//! with the roles reversed, then adds the matrix and the labels. So the
//! flights are fixed per mode. With F table frames and an announced ack
//! interval `a`, the garbler flushes F + 2 times (F + 3 extended) and
//! the evaluator 2 + ⌊F/a⌋ times (3 + ⌊F/a⌋ extended; no acks when `a`
//! is 0). Both sides share one reconnect loop and build their
//! [`SessionReport`] in one place.
//!
//! Every public driver wraps its side's one session function (a
//! garbler driver writes the header first). It picks where tables come
//! from (a [`GarblerSource`]: garbled online or replayed from a bank),
//! the ack cadence the header announces, and what a transport failure
//! does. A resumable session keeps the
//! unacknowledged frames' bytes and asks a callback for a fresh
//! channel; a plain session announces `ack_interval: 0`, keeps nothing,
//! and its callback declines.
//!
//! **A session runs on its plan alone.** No driver takes the netlist:
//! input widths, the table count, the evaluator's OT pairs and the
//! output count are the plan's, and what the two parties agree on is
//! the plan itself. The header carries its 16-byte
//! [digest](haac_gc::SlotProgram::digest), and the evaluator refuses a
//! mismatch in the handshake, before any label or table moves: two
//! parties who lowered different schedules under one tag, or different
//! circuits of one size, fail there instead of decoding garbage.

use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use haac_circuit::Circuit;
use haac_core::lower::{lower_live, StreamingPlan};
use haac_core::ReorderKind;
use haac_gc::{
    wire_view, BankedGarbler, Block, CryptoCounters, GarblerFinish, HashScheme, OtExtReceiver,
    OtExtSender, PlanGarbling, StreamingEvaluator, StreamingGarbler, OT_EXT_KAPPA,
};
use haac_telemetry::{Counter, Histogram, SlidingRate};
use rand::Rng;

use crate::channel::{Channel, ChannelStats};
use crate::error::{RuntimeError, SessionPhase};
use crate::wire::{
    encode_frame, read_message, read_stream_frame, tables_frame_head, tables_frame_len,
    write_message, Message, OtMode, SessionHeader, StreamFrame, TABLES_HEAD,
};

/// Default cumulative-ack cadence for resumable sessions: the evaluator
/// acknowledges the stream cursor after every this-many table frames,
/// and the garbler's replay buffer is bounded at twice this many
/// frames — 2 MiB at the default frame size. Plain sessions announce
/// an interval of 0 (no acks, nothing retained).
pub const DEFAULT_ACK_INTERVAL: u32 = 16;

/// Tables in a default `Tables` frame: 2 048 × 32 B = 64 KiB, the size
/// of a transport write, chosen by measurement and deliberately *not*
/// derived from the sliding wire window (which is wire residency: for
/// eight of the nine served circuits half the window exceeds the whole
/// circuit, so a window-sized frame made the evaluator wait for the
/// entire garbling — 17 MB at paper scale — before its first table).
///
/// The sweep behind the value (served sessions over loopback TCP, 2
/// cores, `benchmark/`'s workloads; tables per frame → `long_stream`
/// median session / `medium_online` sessions per second):
///
/// | 512 | 2 048 | 8 192 | whole circuit |
/// |---|---|---|---|
/// | 210 ms / 170 | 183–227 ms / 132–161 | 160–211 ms / 105–134 | 329–386 ms / 83–106 |
///
/// Long streams are indifferent above ~2 k tables; millisecond sessions
/// lose garbler/evaluator overlap above it and pay per-frame cost
/// (17 B, one flush) below it. A geometric ramp 256 → 16 384 measured
/// no better than the constant on either workload.
const FRAME_TABLES: usize = 2048;

/// Ceiling of an explicit [`SessionConfig::chunk_override`]: 2^20 tables
/// = 32 MiB frames, under the wire format's 64 MiB payload cap.
const MAX_CHUNK_TABLES: usize = 1 << 20;

/// Per-phase progress deadlines a session enforces on its channel.
///
/// Each bound is per channel *operation* within the phase (the socket
/// read/write-timeout model): the handshake budget covers each framed
/// handshake read/write, the OT budget each OT round trip, and the
/// chunk budget is the per-chunk progress requirement of the table
/// stream and the output tail — a peer that ships nothing for a whole
/// chunk interval is declared stalled. `None` (the default everywhere)
/// means that phase may block forever, the pre-deadline behavior.
///
/// A tripped deadline surfaces as the typed
/// [`RuntimeError::Deadline`]`{phase}` and the session tears down
/// cleanly: half-finished slab state unwinds with the driver's early
/// return and the channel is dropped.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionDeadlines {
    /// Budget for each handshake operation (header, input labels; on
    /// the serving layer also the request/ack exchange).
    pub handshake: Option<Duration>,
    /// Budget for each base-OT exchange operation.
    pub ot: Option<Duration>,
    /// Per-chunk progress budget for the table stream and the output
    /// tail.
    pub chunk: Option<Duration>,
}

impl SessionDeadlines {
    /// No deadlines anywhere: every phase may block forever.
    pub fn none() -> SessionDeadlines {
        SessionDeadlines::default()
    }

    /// The budget charged to operations in `phase`.
    pub fn for_phase(&self, phase: SessionPhase) -> Option<Duration> {
        match phase {
            SessionPhase::Connect | SessionPhase::Handshake => self.handshake,
            SessionPhase::Ot => self.ot,
            SessionPhase::Stream | SessionPhase::Output => self.chunk,
        }
    }
}

/// Arms the channel's I/O deadline for `phase` (clears it when the
/// phase has no budget). Arming failures are transport errors in that
/// phase.
fn arm_phase<C: Channel + ?Sized>(
    channel: &mut C,
    phase: SessionPhase,
    deadlines: &SessionDeadlines,
) -> Result<(), RuntimeError> {
    channel
        .set_io_deadline(deadlines.for_phase(phase))
        .map_err(|e| RuntimeError::from(e).in_phase(phase))
}

/// Which side of the protocol a report describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionRole {
    /// Alice: garbles and streams tables.
    Garbler,
    /// Bob: receives tables and evaluates.
    Evaluator,
}

/// Everything a party chooses before a session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// The circuit lowered once for slot-slab execution: both roles
    /// run off its renamed instruction stream. Shared, so a cache can
    /// hand the same plan to every session of a workload. Its
    /// [`window`](StreamingPlan::window) is the sliding-wire-window
    /// geometry the label slab is sized by: wire *residency* — the
    /// plan's natural window, capped at the paper's 2 MB SWW (131 072
    /// labels, 2 MiB per party) by the lowering every constructor here
    /// uses, with reads beyond it served from the plan's OoRW store. It
    /// bounds the table frame only where half of it is smaller than the
    /// default frame (see [`chunk_tables`](SessionConfig::chunk_tables)).
    pub plan: Arc<StreamingPlan>,
    /// Overrides the tables per `Tables` frame (tests and benchmarks
    /// sweep this; `None` — what a server runs — is the 64 KiB default
    /// of [`chunk_tables`](SessionConfig::chunk_tables)). The only
    /// override there is.
    pub chunk_override: Option<usize>,
    /// Live instrument handles per-chunk stage spans stream into
    /// *while the session runs* (a serving layer wires these into its
    /// metrics registry; see [`SessionTelemetry`]). `None` — the
    /// default — skips all live recording; the end-of-session
    /// aggregates in [`SessionReport`] are collected either way.
    pub telemetry: Option<Arc<SessionTelemetry>>,
    /// Per-phase progress deadlines enforced on the channel (default:
    /// none — every phase may block forever). See [`SessionDeadlines`].
    pub deadlines: SessionDeadlines,
    /// How the evaluator's input labels are delivered (default:
    /// [`OtMode::Base`], one public-key OT per input bit). Both parties
    /// must agree — the header carries the garbler's choice and the
    /// evaluator refuses a mismatch, as it does a plan digest.
    pub ot_mode: OtMode,
    /// Cumulative-ack cadence a **resumable** garbler announces in its
    /// header: the evaluator acks the stream cursor every
    /// `ack_interval` frames, and the garbler keeps at most
    /// `2 × ack_interval` unacked frames of replay bytes — a byte
    /// bound, since frames are bounded: see [`run_garbler_resumable`] —
    /// before backpressuring on the next ack. 0 announces a session
    /// that cannot resume (no acks, nothing retained); [`run_garbler`]
    /// always announces 0, whatever is set here.
    pub ack_interval: u32,
}

impl SessionConfig {
    /// Lowers the circuit once (baseline order → rename → window, AND
    /// runs, OoRW slots) and sizes the session around the resulting
    /// plan: the slab window under which every read is in-window, or
    /// the 2 MB SWW where that is smaller. Cache the returned config (or
    /// its `plan`) to amortize the lowering across sessions.
    pub fn for_circuit(circuit: &Circuit) -> SessionConfig {
        SessionConfig::for_circuit_with(circuit, ReorderKind::Baseline)
    }

    /// Like [`for_circuit`](SessionConfig::for_circuit) but lowers with
    /// the given schedule, and serves the **live program**
    /// ([`lower_live`]): under `Full` and `Segment` the plan drops every
    /// gate and garbler input no output depends on; `Baseline` serves
    /// the netlist as given, bit-identical to the oracle. Both parties
    /// must lower the same program — the session header carries the
    /// garbler's plan digest and the evaluator refuses a disagreement,
    /// such as a peer that lowered the unpruned netlist.
    ///
    /// The garbler drivers still take the circuit's declared-width bits
    /// and select the kept ones from the plan's map
    /// ([`StreamingPlan::live_garbler_bits`]).
    pub fn for_circuit_with(circuit: &Circuit, reorder: ReorderKind) -> SessionConfig {
        SessionConfig::from_plan(HashScheme::Rekeyed, Arc::new(lower_live(circuit, reorder)))
    }

    /// Builds a config around an already lowered plan (what a warm
    /// server does on every cache hit — no per-session analysis pass).
    /// `_scheme` is ignored (there is one gate hash): `benchmark/` pins
    /// this signature (ROADMAP item 1).
    pub fn from_plan(_scheme: HashScheme, plan: Arc<StreamingPlan>) -> SessionConfig {
        SessionConfig {
            plan,
            chunk_override: None,
            telemetry: None,
            deadlines: SessionDeadlines::none(),
            ot_mode: OtMode::Base,
            ack_interval: DEFAULT_ACK_INTERVAL,
        }
    }

    /// The schedule this session was lowered with: the plan's tag.
    pub fn reorder(&self) -> ReorderKind {
        self.plan.reorder
    }

    /// Returns the config with the given tables-per-chunk override.
    pub fn with_chunk_tables(mut self, chunk_tables: usize) -> SessionConfig {
        assert!(chunk_tables > 0, "chunk size must be positive");
        self.chunk_override = Some(chunk_tables);
        self
    }

    /// Returns the config with live telemetry handles attached (shared
    /// across every session run with this config).
    pub fn with_telemetry(mut self, telemetry: Arc<SessionTelemetry>) -> SessionConfig {
        self.telemetry = Some(telemetry);
        self
    }

    /// Returns the config with per-phase progress deadlines enforced on
    /// the channel.
    pub fn with_deadlines(mut self, deadlines: SessionDeadlines) -> SessionConfig {
        self.deadlines = deadlines;
        self
    }

    /// Returns the config with the given input-label delivery mode.
    /// Both parties must run the same mode — the header announces the
    /// garbler's and the evaluator refuses a disagreement.
    pub fn with_ot_mode(mut self, ot_mode: OtMode) -> SessionConfig {
        self.ot_mode = ot_mode;
        self
    }

    /// Returns the config with the given cumulative-ack cadence for
    /// resumable sessions (clamped to at least 1).
    pub fn with_ack_interval(mut self, ack_interval: u32) -> SessionConfig {
        self.ack_interval = ack_interval.max(1);
        self
    }

    /// Tables per streamed `Tables` frame — the unit on the channel, one
    /// flush each. The default is a transport-sized constant, 2 048
    /// tables = 64 KiB, so that the evaluator starts on the first frame
    /// while the garbler is still producing the rest; it is reduced to
    /// half the sliding wire window only where that is smaller (a
    /// 512-wire window streams 256-table frames). An explicit
    /// [`chunk_override`](SessionConfig::chunk_override) wins, capped so
    /// a frame (32 B/table) always fits the wire format's per-frame
    /// payload limit.
    ///
    /// The one garbler loop frames by this function and announces it in
    /// the header, and frames carry their own table counts, so peers
    /// built with different defaults stay wire-compatible.
    pub fn chunk_tables(&self) -> usize {
        match self.chunk_override {
            Some(tables) => tables.clamp(1, MAX_CHUNK_TABLES),
            None => (self.plan.window.half() as usize).clamp(1, FRAME_TABLES),
        }
    }
}

/// Live instrument handles the session driver records per-chunk stage
/// spans into while a session runs.
///
/// The handles are plain lock-free `haac-telemetry` instruments shared
/// by `Arc`, so a serving layer can register them once per workload in
/// its metrics [`Registry`](haac_telemetry::Registry) and watch the
/// stream mid-session: per-chunk compute/I-O latency histograms, OoRW
/// queue occupancy sampled at chunk boundaries, OT phase timing, and a
/// sliding-window table rate feeding an aggregate gates/s gauge.
/// Recording is skipped entirely when
/// [`haac_telemetry::enabled`] is off. The default is fresh handles
/// registered nowhere, for tests and one-off sessions that read the
/// handles directly.
#[derive(Debug, Clone, Default)]
pub struct SessionTelemetry {
    /// Per-chunk garbling/evaluation span, in nanoseconds.
    pub chunk_compute_ns: Arc<Histogram>,
    /// Per-chunk I/O-stage span, in nanoseconds: send+flush on the
    /// garbler, receive on the evaluator.
    pub chunk_io_ns: Arc<Histogram>,
    /// OoRW queue occupancy sampled at every chunk boundary (0 unless
    /// the plan's window is smaller than the circuit's natural one).
    pub oor_occupancy: Arc<Histogram>,
    /// OT phase wall time, in nanoseconds (one sample per session).
    pub ot_ns: Arc<Histogram>,
    /// AND tables shipped (garbler) / consumed (evaluator) so far.
    pub tables: Arc<Counter>,
    /// Sliding-window table rate — the live aggregate gates/s.
    pub table_rate: Arc<SlidingRate>,
    /// Base (public-key) OTs performed: one per evaluator input in base
    /// mode, the ~κ bootstrap in extended mode.
    pub base_ots: Arc<Counter>,
    /// Extension-protocol OTs performed (hash-evaluated rows; 0 in base
    /// mode).
    pub ext_ots: Arc<Counter>,
    /// Sliding-window rate of input labels delivered by OT.
    pub ot_rate: Arc<SlidingRate>,
}

impl SessionTelemetry {
    /// Records one party's finished OT phase.
    fn record_ot(&self, ot: &OtOutcome) {
        self.ot_ns.record(ot.ns);
        self.base_ots.add(ot.base_ots);
        self.ext_ots.add(ot.ext_ots);
        self.ot_rate.add(ot.transfers);
    }
}

/// Outcome and accounting for one party's side of a session.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionReport {
    /// Which side this report describes.
    pub role: SessionRole,
    /// The circuit outputs (both parties learn them).
    pub outputs: Vec<bool>,
    /// Bytes this party sent.
    pub bytes_sent: u64,
    /// Bytes this party received.
    pub bytes_received: u64,
    /// Transport flushes this party performed.
    pub flushes: u64,
    /// Garbled-table chunks streamed.
    pub table_chunks: u64,
    /// Total AND tables streamed.
    pub tables: u64,
    /// High-water mark of simultaneously stored wire labels on this side
    /// (static from the plan).
    pub peak_live_wires: usize,
    /// Whether `peak_live_wires` fit within the announced window.
    pub within_window: bool,
    /// Evaluator input labels delivered by the OT phase, one per
    /// evaluator input bit in either [`OtMode`] (the base OTs are
    /// [`base_ots`](SessionReport::base_ots)).
    pub ot_transfers: u64,
    /// Cipher work this side performed: AES key expansions (2 per AND
    /// when garbling under re-keying) and AES block calls (4 garbling,
    /// 2 evaluating) — the quantities HAAC's gate engines pipeline.
    pub crypto: CryptoCounters,
    /// Nanoseconds the streaming phase spent garbling/evaluating gates.
    pub compute_ns: u64,
    /// Nanoseconds of the streaming phase's channel work: send/flush
    /// time on the garbler; on the evaluator, time in blocking
    /// receives.
    pub io_ns: u64,
    /// Wall-clock nanoseconds of the whole table-streaming phase
    /// (compute and I/O together; handshake and OT excluded) — the
    /// denominator for streaming-phase throughput.
    pub stream_ns: u64,
    /// Always 0. Compute, I/O and stall are disjoint spans of one loop,
    /// so within a party no stage hides behind another; the overlap a
    /// session has is *between* the parties, through the frame stream.
    /// The field stays only because `benchmark/` reads it (ROADMAP item
    /// 1(c)).
    pub overlap_ratio: f64,
    /// Nanoseconds of the OT phase (setup, transfer, and the wait for
    /// the peer's OT round trips), whichever mode ran.
    pub ot_ns: u64,
    /// Base (public-key) OTs this side took part in: `ot_transfers` in
    /// [`OtMode::Base`], the ~κ bootstrap OTs in [`OtMode::Extended`] —
    /// the quantity the extension exists to keep constant.
    pub base_ots: u64,
    /// Extended (hash-evaluated) OTs: 0 in base mode, one per evaluator
    /// input in extended mode.
    pub ext_ots: u64,
    /// Nanoseconds of `ot_ns` spent blocked waiting for the peer's
    /// OT-phase messages — the input phase's I/O-stall attribution (the
    /// rest of `ot_ns` is local crypto and sends).
    pub ot_io_stall_ns: u64,
    /// Stall attribution: nanoseconds this party's compute sat idle
    /// waiting on the peer. The garbler charges the time blocked on the
    /// `ChunkAck` that frees its replay window (0 in a plain session,
    /// which awaits no acks), the evaluator the time blocked receiving
    /// the next `Tables` frame, so comparing the two sides' values says
    /// *which party bounds the stream*. A large value means the session
    /// was **I/O-starved**: the link (or the peer behind it) was the
    /// bottleneck.
    ///
    /// With `compute_ns` (and, on the garbler, `io_ns`) this decomposes
    /// the streaming wall clock: the segments plus loop overhead tile
    /// `stream_ns`.
    pub io_stall_ns: u64,
    /// High-water mark of the OoRW queue during streaming (0 unless
    /// the plan's window is smaller than the circuit's natural one —
    /// circuits whose operand distances exceed the 2 MB SWW, or plans
    /// lowered against a deliberately small window).
    pub oor_queue_peak: usize,
    /// Times this session survived a mid-stream connection loss by
    /// resuming onto a fresh channel (0 for plain and uncut sessions).
    pub resumes: u64,
    /// Stream frames re-sent from the garbler's replay buffer across
    /// all resumes — every one of them was a byte replay, never a
    /// re-garble (0 on the evaluator side).
    pub replayed_frames: u64,
    /// Wall-clock duration of this party's session.
    pub elapsed: Duration,
}

impl SessionReport {
    /// AND-gate throughput of this side over the whole session
    /// (handshake and OT included), in gates per second.
    pub fn and_gates_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.tables as f64 / secs
        } else {
            0.0
        }
    }

    /// Input-label delivery throughput: evaluator-input labels
    /// transferred per second of OT-phase wall clock — the number the
    /// extension moves by orders of magnitude.
    pub fn ots_per_sec(&self) -> f64 {
        let secs = self.ot_ns as f64 / 1e9;
        if secs > 0.0 {
            self.ot_transfers as f64 / secs
        } else {
            0.0
        }
    }
}

/// Accounting for one side's table-streaming phase.
#[derive(Debug, Default, Clone, Copy)]
struct StreamStats {
    chunks: u64,
    tables: u64,
    compute_ns: u64,
    io_ns: u64,
    wall_ns: u64,
    /// Compute idle waiting on the peer (see
    /// [`SessionReport::io_stall_ns`]).
    io_stall_ns: u64,
}

/// Either role's report: the executor's finish (peak live wires, OoRW
/// queue peak, cipher work), the OT and stream phases' accounting, and
/// the traffic and resumes of every connection the session ran over.
#[allow(clippy::too_many_arguments)]
fn session_report<C: Channel, F>(
    role: SessionRole,
    outputs: Vec<bool>,
    (peak_live_wires, oor_queue_peak, crypto): (usize, usize, CryptoCounters),
    config: &SessionConfig,
    ot: &OtOutcome,
    stream: &StreamStats,
    channel: &C,
    link: &Reconnects<'_, F>,
    start: Instant,
) -> SessionReport {
    let mut traffic = channel.stats();
    absorb_stats(&mut traffic, &link.carried);
    SessionReport {
        role,
        outputs,
        bytes_sent: traffic.bytes_sent,
        bytes_received: traffic.bytes_received,
        flushes: traffic.flushes,
        table_chunks: stream.chunks,
        tables: stream.tables,
        peak_live_wires,
        within_window: peak_live_wires <= config.plan.window.sww_wires() as usize,
        ot_transfers: ot.transfers,
        crypto,
        compute_ns: stream.compute_ns,
        io_ns: stream.io_ns,
        stream_ns: stream.wall_ns,
        overlap_ratio: 0.0,
        ot_ns: ot.ns,
        base_ots: ot.base_ots,
        ext_ots: ot.ext_ots,
        ot_io_stall_ns: ot.io_stall_ns,
        io_stall_ns: stream.io_stall_ns,
        oor_queue_peak,
        resumes: link.resumes,
        replayed_frames: link.replayed_frames,
        elapsed: start.elapsed(),
    }
}

/// Steady-state chunk buffers are presized but capped (a huge window
/// must not preallocate a huge buffer before any table exists).
const CHUNK_BUFFER_CAP: usize = 1 << 16;

/// Reads the next message, which must be a `Message::$variant`: binds
/// its fields by `$fields` and evaluates to `Ok($out)`. Any other message
/// is a protocol error naming both. Given a stall counter, it adds the
/// time the read blocked to it.
macro_rules! receive {
    ($channel:expr, $variant:ident $fields:tt => $out:expr) => {
        match read_message($channel) {
            Ok(Message::$variant $fields) => Ok($out),
            Ok(other) => Err(RuntimeError::protocol(format!(
                "expected {}, received {}",
                stringify!($variant),
                other.name()
            ))),
            Err(e) => Err(e),
        }
    };
    ($channel:expr, $stall:expr, $variant:ident $fields:tt => $out:expr) => {{
        let waited = Instant::now();
        let received = receive!($channel, $variant $fields => $out);
        *$stall += waited.elapsed().as_nanos() as u64;
        received
    }};
}

/// Refuses a party's input bits when their count is not the plan's.
fn check_width(role: &str, bits: usize, expected: u32) -> Result<(), RuntimeError> {
    if bits != expected as usize {
        return Err(RuntimeError::protocol(format!(
            "{role} input width {bits} does not match the plan ({expected})"
        )));
    }
    Ok(())
}

/// A received chunk's sequence number must continue the stream exactly
/// — a gap or repeat means the transports desynchronized (or a resume
/// replayed from the wrong cursor), and evaluating on would produce
/// garbage labels much later instead of failing here.
fn check_seq(seq: u64, expected: u64) -> Result<(), RuntimeError> {
    if seq != expected {
        return Err(RuntimeError::protocol(format!(
            "table stream out of sequence: received chunk {seq}, expected {expected}"
        )));
    }
    Ok(())
}

/// A `Tables` frame may carry at most the tables the plan still
/// expects. The executors stop at the last gate and would drop surplus
/// tables silently, so without this check a malformed stream would
/// complete as if it were well-formed.
fn check_frame_fits(
    frame_tables: usize,
    received: u64,
    num_tables: u64,
) -> Result<(), RuntimeError> {
    let remaining = num_tables.saturating_sub(received);
    if frame_tables as u64 > remaining {
        return Err(RuntimeError::protocol(format!(
            "Tables frame carries {frame_tables} tables, only {remaining} of {num_tables} remain"
        )));
    }
    Ok(())
}

/// Sends the cumulative ack the garbler's replay buffer trims on, if
/// the announced cadence says this cursor is an ack point. Flushes —
/// an unflushed ack would let the garbler's bounded buffer deadlock.
fn maybe_ack<C: Channel + ?Sized>(
    channel: &mut C,
    ack_interval: u32,
    next_seq: u64,
) -> Result<(), RuntimeError> {
    if ack_interval > 0 && next_seq.is_multiple_of(u64::from(ack_interval)) {
        write_message(channel, &Message::ChunkAck { upto_seq: next_seq })?;
        channel.flush()?;
    }
    Ok(())
}

/// Refuses a header whose plan is not ours, before any label moves.
fn validate_header(plan: &StreamingPlan, header: &SessionHeader) -> Result<(), RuntimeError> {
    let ours = plan.program.digest();
    if header.plan_digest != ours {
        return Err(RuntimeError::protocol(format!(
            "plan digest mismatch: the garbler lowered {:032x}, this side {:032x}",
            u128::from_be_bytes(header.plan_digest),
            u128::from_be_bytes(ours)
        ))
        .in_phase(SessionPhase::Handshake));
    }
    if header.chunk_tables == 0 {
        return Err(RuntimeError::protocol("chunk_tables must be positive"));
    }
    Ok(())
}

/// Accounting for the input-label OT phase, whichever mode ran.
#[derive(Debug, Default, Clone, Copy)]
struct OtOutcome {
    /// Evaluator-input labels delivered.
    transfers: u64,
    /// Public-key OTs performed (per input in base mode, the ~κ
    /// bootstrap in extended mode).
    base_ots: u64,
    /// Hash-evaluated extension OTs performed (0 in base mode).
    ext_ots: u64,
    /// Nanoseconds blocked waiting for the peer's OT messages.
    io_stall_ns: u64,
    /// Nanoseconds of the whole phase.
    ns: u64,
}

impl OtOutcome {
    /// A finished phase of `transfers` labels that began at `start`.
    fn new(mode: OtMode, transfers: usize, io_stall_ns: u64, start: Instant) -> OtOutcome {
        let ns = start.elapsed().as_nanos() as u64;
        let transfers = transfers as u64;
        let (base_ots, ext_ots) = match mode {
            OtMode::Base => (transfers, 0),
            OtMode::Extended => (OT_EXT_KAPPA as u64, transfers),
        };
        OtOutcome { transfers, base_ots, ext_ots, io_stall_ns, ns }
    }
}

/// Maps a typed OT-layer failure to the session's protocol error (it
/// reached us from the trust boundary: every [`haac_gc::OtError`] here
/// is caused by peer-sent bytes, a batch of the wrong count included).
fn ot_protocol_error(e: haac_gc::OtError) -> RuntimeError {
    RuntimeError::protocol(format!("OT: {e}"))
}

/// The base-OT exchange, sender side: `OtSetup` (flushed), then the
/// receiver's `OtPoints`, then `OtCiphertexts`, left unflushed for the
/// next flight to carry.
#[cfg(feature = "insecure-ot")]
fn base_ot_send<C: Channel + ?Sized, R: Rng + ?Sized>(
    pairs: &[(Block, Block)],
    rng: &mut R,
    channel: &mut C,
    stall: &mut u64,
) -> Result<(), RuntimeError> {
    let sender = haac_gc::ot::base::OtSender::new(rng);
    let setup = Message::OtSetup { point: sender.public_point(), nonce: sender.nonce().into() };
    write_message(channel, &setup)?;
    channel.flush()?;
    let points = receive!(channel, stall, OtPoints(points) => points)?;
    // `encrypt` rejects out-of-group points itself: a zero point would
    // collapse both branch keys to a public value, handing the peer
    // both labels (and Δ).
    let cts = sender.encrypt(&points, pairs).map_err(ot_protocol_error)?;
    write_message(channel, &Message::OtCiphertexts(cts))
}

/// The base-OT exchange, receiver side: awaits `OtSetup`, answers with
/// `OtPoints` (flushed), then awaits `OtCiphertexts` and decrypts the
/// chosen label of each pair.
#[cfg(feature = "insecure-ot")]
fn base_ot_receive<C: Channel + ?Sized, R: Rng + ?Sized>(
    choices: &[bool],
    rng: &mut R,
    channel: &mut C,
    stall: &mut u64,
) -> Result<Vec<Block>, RuntimeError> {
    let (point, nonce) = receive!(channel, stall, OtSetup { point, nonce } => (point, nonce))?;
    // `new` rejects an out-of-group setup point itself: a zero S would
    // make R_i = 0 exactly when c_i = 1, leaking every choice bit.
    let receiver = haac_gc::ot::base::OtReceiver::new(rng, point, Block::from(nonce), choices)
        .map_err(ot_protocol_error)?;
    write_message(channel, &Message::OtPoints(receiver.blinded_points()))?;
    channel.flush()?;
    let cts = receive!(channel, stall, OtCiphertexts(cts) => cts)?;
    receiver.decrypt(&cts).map_err(ot_protocol_error)
}

#[cfg(not(feature = "insecure-ot"))]
fn base_ot_send<C: Channel + ?Sized, R: Rng + ?Sized>(
    _pairs: &[(Block, Block)],
    _rng: &mut R,
    _channel: &mut C,
    _stall: &mut u64,
) -> Result<(), RuntimeError> {
    Err(RuntimeError::protocol(
        "two-party sessions need a base OT; enable the `insecure-ot` feature",
    ))
}

#[cfg(not(feature = "insecure-ot"))]
fn base_ot_receive<C: Channel + ?Sized, R: Rng + ?Sized>(
    _choices: &[bool],
    _rng: &mut R,
    _channel: &mut C,
    _stall: &mut u64,
) -> Result<Vec<Block>, RuntimeError> {
    Err(RuntimeError::protocol(
        "two-party sessions need a base OT; enable the `insecure-ot` feature",
    ))
}

/// The garbler's OT phase: delivers the evaluator's input labels
/// (`pairs`) in `mode`'s flights. `Base` is one base-OT exchange with
/// this side sending. `Extended` (IKNP-style) is the same exchange with
/// the roles reversed: this side receives one PRG seed per extension
/// column, choosing with its secret κ-bit string. Then the evaluator's
/// masked matrix comes in and every label leaves under one batched hash
/// of a transposed row, so no public-key work scales with the input
/// count. Either way the last message stays unflushed: the stream's
/// first flush carries it.
fn ot_send<C: Channel + ?Sized, R: Rng + ?Sized>(
    mode: OtMode,
    pairs: &[(Block, Block)],
    rng: &mut R,
    channel: &mut C,
) -> Result<OtOutcome, RuntimeError> {
    let start = Instant::now();
    let mut stall = 0;
    match mode {
        OtMode::Base => base_ot_send(pairs, rng, channel, &mut stall)?,
        OtMode::Extended => {
            let ext = OtExtSender::new(rng);
            // The phase opens with a receive, so the header and input
            // labels still queued on this side must actually go out first.
            channel.flush()?;
            let seeds = base_ot_receive(ext.choice_bits(), rng, channel, &mut stall)?;
            let u_matrix = receive!(channel, &mut stall, OtExtMatrix(u) => u)?;
            let masked = ext.process(&seeds, &u_matrix, pairs).map_err(ot_protocol_error)?;
            write_message(channel, &Message::OtExtLabels(masked))?;
        }
    }
    Ok(OtOutcome::new(mode, pairs.len(), stall, start))
}

/// The evaluator's OT phase, the mirror image of [`ot_send`]: `Base`
/// receives its labels by one base-OT exchange. `Extended` sends the
/// seed pairs by that exchange, ships the masked choice matrix with its
/// ciphertexts in one flight, and unmasks its labels from one hash each.
fn ot_receive<C: Channel + ?Sized, R: Rng + ?Sized>(
    mode: OtMode,
    choices: &[bool],
    rng: &mut R,
    channel: &mut C,
) -> Result<(Vec<Block>, OtOutcome), RuntimeError> {
    let start = Instant::now();
    let mut stall = 0;
    let labels = match mode {
        OtMode::Base => base_ot_receive(choices, rng, channel, &mut stall)?,
        OtMode::Extended => {
            let mut ext = OtExtReceiver::new(rng, choices);
            base_ot_send(ext.seed_pairs(), rng, channel, &mut stall)?;
            write_message(channel, &Message::OtExtMatrix(ext.u_matrix()))?;
            channel.flush()?;
            let masked = receive!(channel, &mut stall, OtExtLabels(masked) => masked)?;
            ext.decrypt(&masked).map_err(ot_protocol_error)?
        }
    };
    Ok((labels, OtOutcome::new(mode, choices.len(), stall, start)))
}

/// Runs a complete session in-process: garbler and evaluator threads
/// joined by a [`MemChannel`](crate::MemChannel) pair.
///
/// Both parties run on `config`'s plan; `_circuit` is unused and stays
/// only because the benchmark's `SessionFn` pins this signature
/// (ROADMAP item 1).
///
/// Returns `(garbler_report, evaluator_report)`.
///
/// # Errors
///
/// Propagates whichever party's error surfaced (if both failed, the
/// garbler's).
///
/// # Panics
///
/// Panics if a party thread panics.
///
/// # Examples
///
/// ```
/// use haac_circuit::Builder;
/// use haac_runtime::{run_local_session, SessionConfig};
///
/// let mut b = Builder::new();
/// let alice = b.input_garbler(16);
/// let bob = b.input_evaluator(16);
/// let richer = b.gt_u(&alice, &bob);
/// let c = b.finish(vec![richer]).unwrap();
///
/// let (g, e) = run_local_session(
///     &c,
///     &haac_circuit::to_bits(40_000, 16),
///     &haac_circuit::to_bits(35_000, 16),
///     7,
///     &SessionConfig::for_circuit(&c),
/// )
/// .unwrap();
/// assert_eq!(g.outputs, vec![true]);
/// assert_eq!(e.outputs, vec![true]);
/// ```
pub fn run_local_session(
    _circuit: &Circuit,
    garbler_bits: &[bool],
    evaluator_bits: &[bool],
    seed: u64,
    config: &SessionConfig,
) -> Result<(SessionReport, SessionReport), RuntimeError> {
    let (garbler_channel, evaluator_channel) = crate::channel::MemChannel::pair();
    run_session_pair(garbler_bits, evaluator_bits, seed, config, garbler_channel, evaluator_channel)
}

/// Runs a complete session over a real loopback TCP socket: an
/// evaluator thread listens on an ephemeral `127.0.0.1` port, the
/// garbler connects, and both run the full streamed protocol.
///
/// As with [`run_local_session`], `_circuit` is unused: the signature
/// is pinned by the benchmark's `SessionFn` (ROADMAP item 1).
///
/// Returns `(garbler_report, evaluator_report)`.
///
/// # Errors
///
/// Propagates socket and session failures.
///
/// # Panics
///
/// Panics if a party thread panics.
pub fn run_tcp_session(
    _circuit: &Circuit,
    garbler_bits: &[bool],
    evaluator_bits: &[bool],
    seed: u64,
    config: &SessionConfig,
) -> Result<(SessionReport, SessionReport), RuntimeError> {
    use crate::channel::TcpChannel;
    use std::net::{TcpListener, TcpStream};

    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|scope| {
        let accept = scope.spawn(move || -> Result<TcpChannel, RuntimeError> {
            let (stream, _) = listener.accept()?;
            Ok(TcpChannel::from_stream(stream)?)
        });
        let garbler_channel = TcpChannel::from_stream(TcpStream::connect(addr)?)?;
        let evaluator_channel = accept.join().expect("accept thread panicked")?;
        run_session_pair(
            garbler_bits,
            evaluator_bits,
            seed,
            config,
            garbler_channel,
            evaluator_channel,
        )
    })
}

/// Drives both roles on scoped threads over an already-paired transport.
/// The one `config` governs both sides (the evaluator shares the
/// garbler's plan — no second lowering).
fn run_session_pair<C: Channel + Send>(
    garbler_bits: &[bool],
    evaluator_bits: &[bool],
    seed: u64,
    config: &SessionConfig,
    mut garbler_channel: C,
    mut evaluator_channel: C,
) -> Result<(SessionReport, SessionReport), RuntimeError> {
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    std::thread::scope(|scope| {
        let garbler = scope.spawn(move || {
            let mut rng = StdRng::seed_from_u64(seed);
            run_garbler(garbler_bits, &mut rng, config, &mut garbler_channel)
        });
        let evaluator = scope.spawn(move || {
            // Independent randomness for the receiver's OT blinding.
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
            run_evaluator(evaluator_bits, &mut rng, config, &mut evaluator_channel)
        });
        let garbler_report = garbler.join().expect("garbler thread panicked");
        let evaluator_report = evaluator.join().expect("evaluator thread panicked");
        Ok((garbler_report?, evaluator_report?))
    })
}

/// One stream frame as the replay buffer keeps it: a table chunk as
/// its head and the very buffer the garbler filled — sent where it lies,
/// never copied into a byte frame — or any other frame's encoded bytes
/// (the output-decode tail).
enum Frame {
    Tables { head: [u8; TABLES_HEAD], tables: Vec<[Block; 2]> },
    Bytes(Vec<u8>),
}

impl Frame {
    /// The frame's wire bytes, as head and body.
    fn parts(&self) -> (&[u8], Cow<'_, [u8]>) {
        match self {
            Frame::Tables { head, tables } => (head, wire_view(tables.as_flattened())),
            Frame::Bytes(bytes) => (bytes, Cow::Borrowed(&[])),
        }
    }

    /// Wire length of the frame.
    fn len(&self) -> usize {
        match self {
            Frame::Tables { tables, .. } => tables_frame_len(tables.len()),
            Frame::Bytes(bytes) => bytes.len(),
        }
    }
}

/// Bounded store of every not-yet-acknowledged stream frame (table
/// chunks and the output-decode tail), addressed by sequence number.
/// Resume is **byte replay** out of this buffer: the exact bytes are
/// re-sent and labels are never re-derived, so the one-time-label
/// invariant holds by construction.
///
/// The driver admits at most `2 × ack_interval` unacknowledged table
/// frames and a frame is at most [`tables_frame_len`] of the session's
/// `chunk_tables()`, so the buffer is bounded in **bytes**:
/// 2 × 16 × (17 + 32 × 2 048) B ≈ 2 MiB at the defaults, plus the
/// decode frame (see [`run_garbler_resumable`], which asserts it).
struct ReplayBuffer {
    frames: VecDeque<(u64, Frame)>,
    /// Sequence number the next pushed frame gets.
    next_seq: u64,
    /// Cumulative ack cursor: every frame below it has been released.
    acked: u64,
    /// Wire bytes retained right now (the sum over `frames`).
    bytes: usize,
    /// High-water mark of `bytes`.
    peak_bytes: usize,
    /// Released table frames' buffers, handed back out by
    /// [`frame_buffer`](ReplayBuffer::frame_buffer) instead of freed: a
    /// session allocates as many frames as it ever retains at once.
    spare: Vec<Vec<[Block; 2]>>,
    /// Frame buffers [`frame_buffer`](ReplayBuffer::frame_buffer) had to
    /// allocate because nothing was spare.
    allocated: usize,
}

impl ReplayBuffer {
    fn new() -> ReplayBuffer {
        ReplayBuffer {
            frames: VecDeque::new(),
            next_seq: 0,
            acked: 0,
            bytes: 0,
            peak_bytes: 0,
            spare: Vec::new(),
            allocated: 0,
        }
    }

    /// A table buffer to garble the next chunk into — a released
    /// frame's, or a fresh one with room for `tables` (capped) when none
    /// is spare.
    fn frame_buffer(&mut self, tables: usize) -> Vec<[Block; 2]> {
        self.spare.pop().unwrap_or_else(|| {
            self.allocated += 1;
            Vec::with_capacity(tables.min(CHUNK_BUFFER_CAP))
        })
    }

    /// Stores a frame under the next sequence number.
    fn push(&mut self, frame: Frame) {
        self.bytes += frame.len();
        self.peak_bytes = self.peak_bytes.max(self.bytes);
        self.frames.push_back((self.next_seq, frame));
        self.next_seq += 1;
    }

    /// Applies a cumulative (exclusive) ack: frames below `upto` are
    /// released. Stale cursors are ignored; a cursor past everything
    /// produced is a protocol violation.
    fn ack(&mut self, upto: u64) -> Result<(), RuntimeError> {
        if upto > self.next_seq {
            return Err(RuntimeError::protocol(format!(
                "peer acknowledged stream cursor {upto} but only {} frames were produced",
                self.next_seq
            )));
        }
        if upto > self.acked {
            self.acked = upto;
            while self.frames.front().is_some_and(|(seq, _)| *seq < upto) {
                let (_, released) = self.frames.pop_front().expect("front was just checked");
                self.bytes -= released.len();
                if let Frame::Tables { tables, .. } = released {
                    self.spare.push(tables);
                }
            }
        }
        Ok(())
    }

    /// Applies a `ChunkAck` read off the wire. An honest evaluator's
    /// cursors strictly increase on every connection (a resume applies
    /// its cursor through [`ack`](ReplayBuffer::ack) itself), so one
    /// that does not advance is refused: tolerating it would let a peer
    /// hold the session open forever, each stale ack re-arming the
    /// per-operation chunk deadline.
    fn peer_ack(&mut self, upto: u64) -> Result<(), RuntimeError> {
        if upto <= self.acked {
            return Err(RuntimeError::protocol(format!(
                "ChunkAck {upto} does not advance the acknowledged cursor {}",
                self.acked
            )));
        }
        self.ack(upto)
    }

    /// Frames produced but not yet acknowledged.
    fn unacked(&self) -> u64 {
        self.next_seq - self.acked
    }

    /// The garbler's resume hello on a fresh channel: confirms the
    /// evaluator's cursor with a `ResumeAck` and replays every buffered
    /// frame at or past it, counting each into `replayed`. Frames below
    /// the cursor are implicitly acknowledged — the evaluator vouching
    /// for them is as good as an ack. The stream deadline is re-armed on
    /// the new channel, so the per-chunk progress budget is per
    /// connection, not cumulative across reconnects.
    fn replay<C: Channel>(
        &mut self,
        channel: &mut C,
        next_seq: u64,
        deadlines: &SessionDeadlines,
        replayed: &mut u64,
    ) -> Result<(), RuntimeError> {
        if next_seq > self.next_seq {
            return Err(RuntimeError::protocol(format!(
                "resume cursor {next_seq} is past the {} frames produced",
                self.next_seq
            ))
            .in_phase(SessionPhase::Stream));
        }
        if next_seq < self.acked {
            return Err(RuntimeError::protocol(format!(
                "resume cursor {next_seq} is below the acknowledged cursor {}: those bytes \
                 were released and cannot be replayed",
                self.acked
            ))
            .in_phase(SessionPhase::Stream));
        }
        arm_phase(channel, SessionPhase::Stream, deadlines)?;
        (|| -> Result<(), RuntimeError> {
            write_message(channel, &Message::ResumeAck { from_seq: next_seq })?;
            self.ack(next_seq)?;
            for (seq, frame) in &self.frames {
                debug_assert!(*seq >= next_seq);
                let (head, body) = frame.parts();
                channel.send(head)?;
                channel.send(&body)?;
                *replayed += 1;
            }
            Ok(channel.flush()?)
        })()
        .map_err(|e| e.in_phase(SessionPhase::Stream))
    }
}

/// Folds one connection's traffic counters into a running total, so a
/// resumed session's report covers every channel it ran over.
fn absorb_stats(total: &mut ChannelStats, stats: &ChannelStats) {
    total.bytes_sent += stats.bytes_sent;
    total.bytes_received += stats.bytes_received;
    total.flushes += stats.flushes;
}

/// What a session keeps across the channels it runs over, on either
/// side: the traffic of connections already dropped, the resumes
/// survived, the frames replayed (the garbler's), and the callback that
/// supplies the next channel.
struct Reconnects<'a, F> {
    deadlines: &'a SessionDeadlines,
    carried: ChannelStats,
    resumes: u64,
    replayed_frames: u64,
    resume: F,
}

impl<'a, F> Reconnects<'a, F> {
    fn new(deadlines: &'a SessionDeadlines, resume: F) -> Self {
        Self { deadlines, carried: Default::default(), resumes: 0, replayed_frames: 0, resume }
    }

    /// Recovers from a transport failure in `phase`. The dead channel is
    /// dropped first (its traffic folded into `carried`; the peer only
    /// observes the disconnect once the channel is gone). Then `hello`
    /// asks the callback for a fresh channel and runs this side's resume
    /// hello on it. A failed hello drops that channel in turn and its
    /// failure becomes the pending one. `hello` returning `None` makes
    /// the pending failure terminal, as does any failure that is not
    /// [resume-safe](RuntimeError::resume_safe).
    fn recover<C: Channel>(
        &mut self,
        mut dead: C,
        err: RuntimeError,
        phase: SessionPhase,
        mut hello: impl FnMut(&mut Self, &RuntimeError) -> Option<(C, Result<(), RuntimeError>)>,
    ) -> Result<C, RuntimeError> {
        let mut err = err.in_phase(phase);
        loop {
            absorb_stats(&mut self.carried, &dead.stats());
            drop(dead);
            if !err.resume_safe() {
                return Err(err);
            }
            let Some((channel, greeted)) = hello(self, &err) else {
                return Err(err);
            };
            match greeted {
                Ok(()) => {
                    self.resumes += 1;
                    return Ok(channel);
                }
                Err(hello_err) => (dead, err) = (channel, hello_err),
            }
        }
    }
}

/// What a garbler session keeps across the channels it runs over: the
/// replay buffer, and the reconnects whose hello replays out of it.
struct GarblerRecovery<'a, F> {
    buffer: &'a mut ReplayBuffer,
    /// Whether shipped frames stay buffered until acknowledged. A
    /// session that announced no acks keeps nothing for a replay: each
    /// frame is released as soon as it is on the wire.
    retain: bool,
    reconnects: Reconnects<'a, F>,
}

impl<F> GarblerRecovery<'_, F> {
    /// Recovers from a transport failure ([`Reconnects::recover`]): the
    /// `resume` callback supplies a fresh channel plus the evaluator's
    /// requested cursor, and every buffered frame at or past that cursor
    /// is replayed byte-for-byte ([`ReplayBuffer::replay`]).
    fn recover<C>(
        &mut self,
        dead: C,
        err: RuntimeError,
        phase: SessionPhase,
    ) -> Result<C, RuntimeError>
    where
        C: Channel,
        F: FnMut(&RuntimeError, u64) -> Option<(C, u64)>,
    {
        let buffer = &mut *self.buffer;
        self.reconnects.recover(dead, err, phase, |link, err| {
            let (mut channel, next_seq) = (link.resume)(err, buffer.next_seq)?;
            let replayed =
                buffer.replay(&mut channel, next_seq, link.deadlines, &mut link.replayed_frames);
            Some((channel, replayed))
        })
    }

    /// Buffers a frame in the replay buffer, then sends and flushes it
    /// ([`Channel::send_flush`], head and body from where they lie) —
    /// recovering through the resume callback on a transport failure.
    /// After a successful recovery the frame has already been replayed
    /// out of the buffer, so the send is not repeated.
    fn ship<C>(
        &mut self,
        mut channel: C,
        frame: Frame,
        phase: SessionPhase,
    ) -> Result<C, RuntimeError>
    where
        C: Channel,
        F: FnMut(&RuntimeError, u64) -> Option<(C, u64)>,
    {
        self.buffer.push(frame);
        let sent = {
            let (_, frame) = self.buffer.frames.back().expect("frame was just pushed");
            let (head, body) = frame.parts();
            channel.send_flush(head, &body)
        };
        let channel = match sent {
            Ok(()) => channel,
            Err(e) => self.recover(channel, e.into(), phase)?,
        };
        if !self.retain {
            self.buffer.ack(self.buffer.next_seq)?;
        }
        Ok(channel)
    }
}

/// Runs the garbler (Alice) side of a streaming session on a borrowed
/// channel, without resume: [`run_garbler_resumable`] announcing
/// `ack_interval: 0` — nothing retained, no ack awaited — with a
/// callback that declines, so a transport failure ends the session with
/// the typed error of the phase it fell in.
///
/// Blocks until the evaluator has shared the outputs back.
///
/// # Errors
///
/// Fails on transport errors, protocol violations, or input bits of
/// another width than the plan's declared garbler width.
pub fn run_garbler<C: Channel + ?Sized, R: Rng + ?Sized>(
    garbler_bits: &[bool],
    rng: &mut R,
    config: &SessionConfig,
    channel: &mut C,
) -> Result<SessionReport, RuntimeError> {
    let plain = SessionConfig { ack_interval: 0, ..config.clone() };
    run_garbler_resumable(garbler_bits, rng, &plain, channel, |_: &RuntimeError, _| None)
}

/// Runs the garbler side of a **resumable** streaming session.
///
/// Every stream frame's wire bytes (table frames and the output-decode
/// tail, in one sequence space) are retained in a bounded replay buffer
/// until the evaluator's periodic cumulative `ChunkAck` releases them;
/// the buffer is capped at two ack windows — `2 × ack_interval` frames
/// of at most `17 + 32 × chunk_tables()` bytes each, 2 MiB at the
/// defaults (16, 2 048), plus the decode frame; the driver asserts it —
/// and a garbler that outruns the acks blocks on the next one:
/// backpressure, not growth. The time it spends blocked there is
/// reported as [`SessionReport::io_stall_ns`]: a large value names the
/// *evaluator* as the party that bounds the stream.
///
/// A transport failure past the retry-safety boundary
/// ([`RuntimeError::resume_safe`]) consults the `resume` callback
/// instead of tearing down: the callback receives the failure
/// and the number of frames produced so far, and returns a reconnected
/// channel plus the evaluator's requested cursor (learned from the
/// peer's `Resume` frame, which the callback — not this driver — is
/// expected to have consumed), or `None` to give up. Resume is byte
/// replay: unacknowledged frames are re-sent verbatim and nothing is
/// ever re-garbled, so the one-time-label invariant holds by
/// construction.
///
/// The two parties overlap through the frame stream — the evaluator
/// works on frame N while this side garbles frame N+1. Within this
/// party, garbling and send/flush alternate, which keeps the
/// replay-buffer invariant — a frame's bytes are buffered before they
/// are sent — trivially true.
///
/// `garbler_bits` has the circuit's **declared** width
/// ([`StreamingPlan::garbler_width`]), whatever the program keeps: a
/// live plan ([`SessionConfig::for_circuit_with`]) that dropped garbler
/// inputs no output reads selects the kept bits itself
/// ([`StreamingPlan::live_garbler_bits`]) and labels only those.
///
/// # Errors
///
/// Fails on pre-stream failures (which are retry-safe, never resumed),
/// on protocol violations — bits of any width but the declared one,
/// the live width included, are refused before the header is written —
/// and on resumable failures once the callback declines to provide a
/// new channel.
pub fn run_garbler_resumable<C, R, F>(
    garbler_bits: &[bool],
    rng: &mut R,
    config: &SessionConfig,
    mut channel: C,
    resume: F,
) -> Result<SessionReport, RuntimeError>
where
    C: Channel,
    R: Rng + ?Sized,
    F: FnMut(&RuntimeError, u64) -> Option<(C, u64)>,
{
    check_width("garbler", garbler_bits.len(), config.plan.garbler_width)?;
    let start = Instant::now();
    write_resumable_header(config, &mut channel)?;
    let garbler = StreamingGarbler::with_plan(&config.plan.program, rng, HashScheme::Rekeyed);
    stream_garbler_resumable(
        &config.plan.live_garbler_bits(garbler_bits),
        garbler,
        rng,
        config,
        channel,
        resume,
        start,
        &mut ReplayBuffer::new(),
    )
}

/// Runs the garbler side of a resumable session from a **banked
/// pre-garbled instance**: stored tables are replayed byte-for-byte
/// while only the handshake and OT/input phase compute online. The wire
/// protocol, ack/replay machinery, and park/resume behavior are exactly
/// [`run_garbler_resumable`]'s — the evaluator cannot tell a banked
/// session from an online-garbled one (and must not: the outputs are
/// identical by construction, only Δ and the labels differ).
///
/// Takes the instance by value: a claimed instance is consumed whether
/// the session succeeds or fails, so one instance can never label two
/// evaluators (FreeXOR one-time-use, enforced by move semantics).
///
/// Takes declared-width bits and selects the live ones, as
/// [`run_garbler_resumable`] does; the instance is a garbling of the
/// plan's program, so it labels only the kept inputs.
///
/// # Errors
///
/// Fails like [`run_garbler_resumable`], plus a protocol error when the
/// instance's dimensions (inputs / tables / outputs) do not match the
/// plan's — a stale or mis-keyed bank entry is refused before any byte
/// is streamed.
pub fn run_garbler_banked<C, R, F>(
    garbler_bits: &[bool],
    instance: PlanGarbling,
    rng: &mut R,
    config: &SessionConfig,
    mut channel: C,
    resume: F,
) -> Result<SessionReport, RuntimeError>
where
    C: Channel,
    R: Rng + ?Sized,
    F: FnMut(&RuntimeError, u64) -> Option<(C, u64)>,
{
    let program = &config.plan.program;
    check_width("garbler", garbler_bits.len(), config.plan.garbler_width)?;
    if instance.input_zero_labels.len() != program.num_inputs() as usize
        || instance.tables.len() != program.and_count()
        || instance.output_decode.len() != program.output_addrs().len()
    {
        return Err(RuntimeError::protocol(format!(
            "banked instance shape ({} inputs, {} tables, {} outputs) does not match the \
             plan ({}, {}, {}) — stale or mis-keyed bank entry",
            instance.input_zero_labels.len(),
            instance.tables.len(),
            instance.output_decode.len(),
            program.num_inputs(),
            program.and_count(),
            program.output_addrs().len(),
        )));
    }
    let start = Instant::now();
    write_resumable_header(config, &mut channel)?;
    let garbler = BankedGarbler::new(instance);
    stream_garbler_resumable(
        &config.plan.live_garbler_bits(garbler_bits),
        garbler,
        rng,
        config,
        channel,
        resume,
        start,
        &mut ReplayBuffer::new(),
    )
}

/// The session header: identical for online and banked garblers —
/// which is the point, the evaluator drives one protocol. The ack
/// cadence it announces is what makes the session resumable (0: not).
fn write_resumable_header<C: Channel>(
    config: &SessionConfig,
    channel: &mut C,
) -> Result<(), RuntimeError> {
    arm_phase(channel, SessionPhase::Handshake, &config.deadlines)?;
    write_message(
        channel,
        &Message::Header(SessionHeader {
            plan_digest: config.plan.program.digest(),
            chunk_tables: config.chunk_tables() as u32,
            ack_interval: config.ack_interval,
            ot_mode: config.ot_mode,
        }),
    )
    .map_err(|e| e.in_phase(SessionPhase::Handshake))
}

/// What the garbler loop needs from a source of tables: input labels
/// until streaming starts, chunks in stream order, and a consuming
/// finish. [`StreamingGarbler`] garbles chunks online;
/// [`BankedGarbler`] replays them from storage — the loop cannot tell
/// the difference, which is what keeps the two paths wire-identical.
pub trait GarblerSource {
    /// Active labels for the garbler's own input bits.
    fn garbler_input_labels(&self, garbler_bits: &[bool]) -> Vec<Block>;
    /// The `(zero, one)` label pair of a primary input wire (OT fodder).
    fn input_label_pair(&self, wire: haac_circuit::WireId) -> (Block, Block);
    /// Produces the next chunk of up to `max_tables` tables; `false`
    /// once the stream is exhausted.
    fn next_tables_into(&mut self, max_tables: usize, tables: &mut Vec<[Block; 2]>) -> bool;
    /// Current OoRW-queue occupancy (0 for replay).
    fn oor_queue_len(&self) -> usize;
    /// Ends the stream, yielding the decode string and meters.
    fn finish(self) -> GarblerFinish;
}

impl GarblerSource for StreamingGarbler<'_> {
    fn garbler_input_labels(&self, garbler_bits: &[bool]) -> Vec<Block> {
        StreamingGarbler::garbler_input_labels(self, garbler_bits)
    }
    fn input_label_pair(&self, wire: haac_circuit::WireId) -> (Block, Block) {
        StreamingGarbler::input_label_pair(self, wire)
    }
    fn next_tables_into(&mut self, max_tables: usize, tables: &mut Vec<[Block; 2]>) -> bool {
        StreamingGarbler::next_tables_into(self, max_tables, tables)
    }
    fn oor_queue_len(&self) -> usize {
        StreamingGarbler::oor_queue_len(self)
    }
    fn finish(self) -> GarblerFinish {
        StreamingGarbler::finish(self)
    }
}

impl GarblerSource for BankedGarbler {
    fn garbler_input_labels(&self, garbler_bits: &[bool]) -> Vec<Block> {
        BankedGarbler::garbler_input_labels(self, garbler_bits)
    }
    fn input_label_pair(&self, wire: haac_circuit::WireId) -> (Block, Block) {
        BankedGarbler::input_label_pair(self, wire)
    }
    fn next_tables_into(&mut self, max_tables: usize, tables: &mut Vec<[Block; 2]>) -> bool {
        BankedGarbler::next_tables_into(self, max_tables, tables)
    }
    fn oor_queue_len(&self) -> usize {
        BankedGarbler::oor_queue_len(self)
    }
    fn finish(self) -> GarblerFinish {
        BankedGarbler::finish(self)
    }
}

/// The post-header body of every garbler session — the one garbler
/// loop — generic over where tables come from (online garbling or bank
/// replay): input-label delivery, OT, the ack-bounded streaming loop
/// with byte replay on failure, the decode tail, and the shared
/// outputs. With `config.ack_interval == 0` it is a plain session:
/// frames are released as soon as they are on the wire and no ack is
/// awaited. `buffer` is the caller's (empty) replay buffer, handed in
/// so a test can read its high-water mark afterwards.
#[allow(clippy::too_many_arguments)]
fn stream_garbler_resumable<G, C, R, F>(
    garbler_bits: &[bool],
    mut garbler: G,
    rng: &mut R,
    config: &SessionConfig,
    mut channel: C,
    resume: F,
    start: Instant,
    buffer: &mut ReplayBuffer,
) -> Result<SessionReport, RuntimeError>
where
    G: GarblerSource,
    C: Channel,
    R: Rng + ?Sized,
    F: FnMut(&RuntimeError, u64) -> Option<(C, u64)>,
{
    let chunk_tables = config.chunk_tables();
    let buffer_cap = u64::from(config.ack_interval) * 2;
    // Frames are bounded, so the frame cap is a byte cap.
    let buffer_byte_cap = buffer_cap as usize * tables_frame_len(chunk_tables);
    write_message(
        &mut channel,
        &Message::GarblerInputs(garbler.garbler_input_labels(garbler_bits)),
    )
    .map_err(|e| e.in_phase(SessionPhase::Handshake))?;

    let program = &config.plan.program;
    let evaluator_pairs: Vec<(Block, Block)> = (0..program.evaluator_inputs())
        .map(|i| garbler.input_label_pair(program.garbler_inputs() + i))
        .collect();
    let live = config.telemetry.as_deref().filter(|_| haac_telemetry::enabled());
    arm_phase(&mut channel, SessionPhase::Ot, &config.deadlines)?;
    let ot = ot_send(config.ot_mode, &evaluator_pairs, rng, &mut channel)
        .map_err(|e| e.in_phase(SessionPhase::Ot))?;
    if let Some(tel) = live {
        tel.record_ot(&ot);
    }

    arm_phase(&mut channel, SessionPhase::Stream, &config.deadlines)?;
    let stream_start = Instant::now();
    let mut stats = StreamStats::default();
    let mut link = GarblerRecovery {
        buffer,
        retain: config.ack_interval > 0,
        reconnects: Reconnects::new(&config.deadlines, resume),
    };
    loop {
        // Bounded replay buffer: block for acks before garbling on.
        // Waiting here is waiting for the evaluator to catch up — the
        // garbler's I/O-starved stall.
        while link.retain && link.buffer.unacked() >= buffer_cap {
            let waited = Instant::now();
            let message = read_message(&mut channel);
            stats.io_stall_ns += waited.elapsed().as_nanos() as u64;
            match message {
                Ok(Message::ChunkAck { upto_seq }) => {
                    link.buffer.peer_ack(upto_seq).map_err(|e| e.in_phase(SessionPhase::Stream))?;
                }
                Ok(other) => {
                    return Err(RuntimeError::protocol(format!(
                        "expected ChunkAck, received {}",
                        other.name()
                    ))
                    .in_phase(SessionPhase::Stream));
                }
                Err(e) => channel = link.recover(channel, e, SessionPhase::Stream)?,
            }
        }
        // The chunk is garbled straight into the frame the replay buffer
        // will keep and the channel will send.
        let mut chunk = link.buffer.frame_buffer(chunk_tables);
        let t = Instant::now();
        let more = garbler.next_tables_into(chunk_tables, &mut chunk);
        let compute_ns = t.elapsed().as_nanos() as u64;
        stats.compute_ns += compute_ns;
        if !more || chunk.is_empty() {
            // Nothing to frame: the buffer goes back to the spare list.
            link.buffer.spare.push(chunk);
            if !more {
                break;
            }
            continue;
        }
        stats.tables += chunk.len() as u64;
        stats.chunks += 1;
        if let Some(tel) = live {
            tel.chunk_compute_ns.record(compute_ns);
            tel.oor_occupancy.record(garbler.oor_queue_len() as u64);
        }
        let head = tables_frame_head(link.buffer.next_seq, chunk.len())
            .map_err(|e| e.in_phase(SessionPhase::Stream))?;
        let tables = chunk.len() as u64;
        let t = Instant::now();
        channel =
            link.ship(channel, Frame::Tables { head, tables: chunk }, SessionPhase::Stream)?;
        let io_ns = t.elapsed().as_nanos() as u64;
        stats.io_ns += io_ns;
        assert!(
            link.buffer.bytes <= buffer_byte_cap,
            "replay buffer retains {} bytes, over the {buffer_byte_cap} bytes of two ack windows",
            link.buffer.bytes
        );
        if let Some(tel) = live {
            tel.chunk_io_ns.record(io_ns);
            tel.tables.add(tables);
            tel.table_rate.add(tables);
        }
    }
    stats.wall_ns = stream_start.elapsed().as_nanos() as u64;

    // The output-decode tail rides in the same sequence space (cursor =
    // chunk count), so a cut between the last chunk and the decode — or
    // between the decode and the shared outputs — replays exactly the
    // frames the evaluator is missing.
    let finish = garbler.finish();
    let decode_frame = encode_frame(&Message::OutputDecode(finish.output_decode))
        .map_err(|e| e.in_phase(SessionPhase::Output))?;
    channel = link.ship(channel, Frame::Bytes(decode_frame), SessionPhase::Output)?;

    let outputs = loop {
        match read_message(&mut channel) {
            // Late acks from the stream's tail are still applied — they
            // release replay bytes held for a resume that never came.
            Ok(Message::ChunkAck { upto_seq }) => {
                link.buffer.peer_ack(upto_seq).map_err(|e| e.in_phase(SessionPhase::Output))?;
            }
            Ok(Message::Outputs(outputs)) => break outputs,
            Ok(other) => {
                return Err(RuntimeError::protocol(format!(
                    "expected Outputs, received {}",
                    other.name()
                ))
                .in_phase(SessionPhase::Output));
            }
            Err(e) => channel = link.recover(channel, e, SessionPhase::Output)?,
        }
    };
    if outputs.len() != program.output_addrs().len() {
        return Err(RuntimeError::protocol(format!(
            "evaluator shared {} outputs, the plan has {}",
            outputs.len(),
            program.output_addrs().len()
        )));
    }

    let finished = (finish.peak_live_wires, finish.oor_queue_peak, finish.crypto);
    Ok(session_report(
        SessionRole::Garbler,
        outputs,
        finished,
        config,
        &ot,
        &stats,
        &channel,
        &link.reconnects,
        start,
    ))
}

/// What an evaluator session keeps across the channels it runs over:
/// the ticket it may resume under (a plain session holds none), and the
/// reconnects whose hello presents it.
struct EvaluatorRecovery<'a, F> {
    ticket: Option<u128>,
    reconnects: Reconnects<'a, F>,
}

impl<F> EvaluatorRecovery<'_, F> {
    /// Recovers from a transport failure ([`Reconnects::recover`]): the
    /// `resume` callback supplies a fresh raw connection, and this
    /// side's hello sends `Resume{ticket, next_seq}` on it and requires
    /// the garbler's `ResumeAck` to confirm exactly that cursor; anything
    /// else means the replay would not continue bit-identically and is
    /// fatal. With no ticket to resume under, the failure is terminal at
    /// once.
    fn recover<C>(
        &mut self,
        dead: C,
        err: RuntimeError,
        phase: SessionPhase,
        next_seq: u64,
    ) -> Result<C, RuntimeError>
    where
        C: Channel,
        F: FnMut(&RuntimeError, u64) -> Option<C>,
    {
        let ticket = self.ticket;
        self.reconnects.recover(dead, err, phase, |link, err| {
            let ticket = ticket?;
            let mut channel = (link.resume)(err, next_seq)?;
            let hello = (|| -> Result<(), RuntimeError> {
                // The chunk budget restarts with the connection.
                arm_phase(&mut channel, SessionPhase::Stream, link.deadlines)?;
                write_message(&mut channel, &Message::Resume { ticket, next_seq })?;
                channel.flush()?;
                let from_seq = receive!(&mut channel, ResumeAck { from_seq } => from_seq)?;
                if from_seq != next_seq {
                    return Err(RuntimeError::protocol(format!(
                        "garbler resumed from cursor {from_seq}, this side asked for {next_seq}"
                    )));
                }
                Ok(())
            })()
            .map_err(|e| e.in_phase(SessionPhase::Stream));
            Some((channel, hello))
        })
    }
}

/// Runs the evaluator (Bob) side of a streaming session on a borrowed
/// channel, without resume: the same loop as
/// [`run_evaluator_resumable`] holding no ticket, so a transport failure
/// ends the session with the typed error of the phase it fell in. The
/// ack cadence is the garbler's call: whatever its header announces is
/// honoured, 0 (no acks) included.
///
/// `config.plan` must be the program the garbler lowered — the header
/// carries its digest, and a mismatch is refused in the handshake —
/// though its window may differ: routing never changes the wire.
///
/// # Errors
///
/// Fails on transport errors, protocol violations, a plan digest other
/// than the garbler's, or input bits of another width than the plan's.
pub fn run_evaluator<C: Channel + ?Sized, R: Rng + ?Sized>(
    evaluator_bits: &[bool],
    rng: &mut R,
    config: &SessionConfig,
    channel: &mut C,
) -> Result<SessionReport, RuntimeError> {
    evaluator_session(evaluator_bits, rng, config, channel, None, |_, _| None)
}

/// Runs the evaluator side of a **resumable** streaming session.
///
/// The slab/OoRW evaluation state lives on this side of the channel, so
/// it survives a transport swap by construction; what this driver adds
/// is the cursor protocol around it. Every `ack_interval` chunks (the
/// cadence the garbler announces in its header) the evaluator sends a
/// cumulative `ChunkAck` releasing the garbler's replay bytes. On a
/// resumable transport failure ([`RuntimeError::resume_safe`]) the
/// `resume` callback is asked for a fresh raw connection — it owns
/// reconnect policy and backoff, returning `None` to give up — and the
/// driver runs the resume handshake itself: `Resume{ticket, next_seq}`
/// out, `ResumeAck` back confirming the exact cursor, after which the
/// replayed bytes continue the stream bit-identically (the sequence
/// check fails loudly if they do not).
///
/// `ticket` is the opaque resume token the serving layer issued with
/// the session; pure-runtime peers just agree on a value out of band.
///
/// # Errors
///
/// Fails on pre-stream failures (retry-safe, never resumed), protocol
/// violations — including a garbler that announces `ack_interval` 0,
/// i.e. one that cannot resume — and resumable failures once the
/// callback declines to reconnect.
pub fn run_evaluator_resumable<C, R, F>(
    evaluator_bits: &[bool],
    rng: &mut R,
    config: &SessionConfig,
    channel: C,
    ticket: u128,
    resume: F,
) -> Result<SessionReport, RuntimeError>
where
    C: Channel,
    R: Rng + ?Sized,
    F: FnMut(&RuntimeError, u64) -> Option<C>,
{
    evaluator_session(evaluator_bits, rng, config, channel, Some(ticket), resume)
}

/// Every evaluator session — the one evaluator loop: header checks,
/// input labels by OT, the receive/evaluate/ack loop with reconnects
/// through `resume`, and the shared outputs. `ticket` is what makes the
/// session resumable: with one, a garbler that keeps no replay bytes is
/// refused at the header and a transport failure past the stream
/// boundary consults `resume`; without one, nothing does.
fn evaluator_session<C, R, F>(
    evaluator_bits: &[bool],
    rng: &mut R,
    config: &SessionConfig,
    mut channel: C,
    ticket: Option<u128>,
    resume: F,
) -> Result<SessionReport, RuntimeError>
where
    C: Channel,
    R: Rng + ?Sized,
    F: FnMut(&RuntimeError, u64) -> Option<C>,
{
    let program = &config.plan.program;
    check_width("evaluator", evaluator_bits.len(), program.evaluator_inputs())?;
    let start = Instant::now();

    arm_phase(&mut channel, SessionPhase::Handshake, &config.deadlines)?;
    let header = receive!(&mut channel, Header(header) => header)
        .map_err(|e| e.in_phase(SessionPhase::Handshake))?;
    validate_header(&config.plan, &header)?;
    if header.ot_mode != config.ot_mode {
        // The two modes speak different message sequences: running on
        // would deadlock inside the OT phase instead of failing here.
        return Err(RuntimeError::protocol(format!(
            "OT mode mismatch: the garbler negotiated {}, this side {}",
            header.ot_mode.label(),
            config.ot_mode.label()
        )));
    }
    if ticket.is_some() && header.ack_interval == 0 {
        // Fail fast instead of discovering at the first cut that the
        // peer kept no replay bytes.
        return Err(RuntimeError::protocol(
            "the garbler announced no ack interval: this session cannot be resumed",
        ));
    }

    let garbler_labels = receive!(&mut channel, GarblerInputs(labels) => labels)
        .map_err(|e| e.in_phase(SessionPhase::Handshake))?;
    if garbler_labels.len() != program.garbler_inputs() as usize {
        return Err(RuntimeError::protocol("garbler label count mismatch"));
    }

    let live = config.telemetry.as_deref().filter(|_| haac_telemetry::enabled());
    arm_phase(&mut channel, SessionPhase::Ot, &config.deadlines)?;
    let (own_labels, ot) = ot_receive(header.ot_mode, evaluator_bits, rng, &mut channel)
        .map_err(|e| e.in_phase(SessionPhase::Ot))?;
    if let Some(tel) = live {
        tel.record_ot(&ot);
    }

    let mut input_labels = garbler_labels;
    input_labels.extend(own_labels);
    let mut evaluator = StreamingEvaluator::with_plan(program, input_labels, HashScheme::Rekeyed);

    arm_phase(&mut channel, SessionPhase::Stream, &config.deadlines)?;
    let stream_start = Instant::now();
    let mut stats = StreamStats::default();
    let mut link =
        EvaluatorRecovery { ticket, reconnects: Reconnects::new(&config.deadlines, resume) };
    // The one table buffer of the stream: every frame is received
    // straight into it and fed from it.
    let mut chunk: Vec<[Block; 2]> = Vec::new();
    let num_tables = program.and_count() as u64;
    let output_decode = loop {
        let t = Instant::now();
        let frame = read_stream_frame(&mut channel, &mut chunk, |seq, count| {
            check_seq(seq, stats.chunks)
                .and_then(|()| check_frame_fits(count, stats.tables, num_tables))
        });
        match frame {
            Ok(StreamFrame::Tables) => {
                // Evaluation sat idle for the whole receive: waiting
                // for the garbler to produce the frame, then for its
                // bytes — the evaluator's I/O-starved stall.
                let io_ns = t.elapsed().as_nanos() as u64;
                stats.io_ns += io_ns;
                stats.io_stall_ns += io_ns;
                stats.chunks += 1;
                stats.tables += chunk.len() as u64;
                let t = Instant::now();
                evaluator.feed(&chunk);
                let compute_ns = t.elapsed().as_nanos() as u64;
                stats.compute_ns += compute_ns;
                if let Some(tel) = live {
                    tel.chunk_io_ns.record(io_ns);
                    tel.chunk_compute_ns.record(compute_ns);
                    tel.oor_occupancy.record(evaluator.oor_queue_len() as u64);
                    tel.tables.add(chunk.len() as u64);
                    tel.table_rate.add(chunk.len() as u64);
                }
                if let Err(e) = maybe_ack(&mut channel, header.ack_interval, stats.chunks) {
                    // A failed ack is recovered like a failed receive:
                    // the resume implicitly acknowledges the cursor.
                    channel = link.recover(channel, e, SessionPhase::Stream, stats.chunks)?;
                }
            }
            Ok(StreamFrame::Other(Message::OutputDecode(decode))) => break decode,
            Ok(StreamFrame::Other(other)) => {
                return Err(RuntimeError::protocol(format!(
                    "expected Tables or OutputDecode, received {}",
                    other.name()
                ))
                .in_phase(SessionPhase::Stream));
            }
            Err(e) => channel = link.recover(channel, e, SessionPhase::Stream, stats.chunks)?,
        }
    };
    stats.wall_ns = stream_start.elapsed().as_nanos() as u64;
    if !evaluator.is_done() {
        return Err(RuntimeError::protocol(format!(
            "table stream ended early: consumed {} of {} tables",
            evaluator.tables_consumed(),
            num_tables
        ))
        .in_phase(SessionPhase::Stream));
    }

    let finish = evaluator.finish(&output_decode);
    // Cursor past the decode frame: on a resume here the garbler
    // replays nothing and just re-awaits the shared outputs.
    let final_cursor = stats.chunks + 1;
    loop {
        let sent = (|| -> Result<(), RuntimeError> {
            write_message(&mut channel, &Message::Outputs(finish.outputs.clone()))?;
            Ok(channel.flush()?)
        })();
        match sent {
            Ok(()) => break,
            Err(e) => channel = link.recover(channel, e, SessionPhase::Output, final_cursor)?,
        }
    }

    let finished = (finish.peak_live_wires, finish.oor_queue_peak, finish.crypto);
    Ok(session_report(
        SessionRole::Evaluator,
        finish.outputs,
        finished,
        config,
        &ot,
        &stats,
        &channel,
        &link.reconnects,
        start,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use haac_circuit::{from_bits, to_bits, Builder};
    use haac_core::lower::lower_with_reorder;
    use rand::SeedableRng as _;
    use std::sync::mpsc;

    fn adder(width: u32) -> Circuit {
        let mut b = Builder::new();
        let x = b.input_garbler(width);
        let y = b.input_evaluator(width);
        let (s, _) = b.add_words(&x, &y);
        b.finish(s).unwrap()
    }

    /// A `width`-bit multiplier: ~2·width² AND gates, enough to span
    /// several default-sized frames (92 bits: 16 836 ANDs, 9 frames).
    fn multiplier(width: u32) -> Circuit {
        let mut b = Builder::new();
        let x = b.input_garbler(width);
        let y = b.input_evaluator(width);
        let product = b.mul_words(&x, &y);
        b.finish(product).unwrap()
    }

    #[test]
    fn evaluator_deadline_types_a_silent_garbler() {
        let c = adder(8);
        let deadlines = SessionDeadlines {
            handshake: Some(Duration::from_millis(40)),
            ..SessionDeadlines::none()
        };
        let config = SessionConfig::for_circuit(&c).with_deadlines(deadlines);
        let (mut ours, theirs) = crate::MemChannel::pair();
        // The peer endpoint stays alive but sends nothing: a stall, not
        // a disconnect. Without the deadline this would block forever.
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let err = run_evaluator(&to_bits(1, 8), &mut rng, &config, &mut ours).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Deadline { phase: SessionPhase::Handshake }),
            "expected a handshake deadline, got {err}"
        );
        assert!(err.retry_safe(), "nothing flowed: a retry is safe");
        drop(theirs);
    }

    #[test]
    fn garbler_deadline_types_a_stalled_evaluator() {
        let c = adder(8);
        let deadlines = SessionDeadlines {
            handshake: Some(Duration::from_millis(200)),
            ot: Some(Duration::from_millis(40)),
            chunk: Some(Duration::from_millis(40)),
        };
        let config = SessionConfig::for_circuit(&c).with_deadlines(deadlines);
        let (mut ours, theirs) = crate::MemChannel::pair();
        // The peer accepts the handshake traffic (buffered in the
        // queue) but never answers the base-OT round trip.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let err = run_garbler(&to_bits(1, 8), &mut rng, &config, &mut ours).unwrap_err();
        assert!(
            matches!(err, RuntimeError::Deadline { phase: SessionPhase::Ot }),
            "expected an OT deadline, got {err}"
        );
        drop(theirs);
    }

    #[test]
    fn undeadlined_configs_compute_identically() {
        // Deadlines generous enough never to trip must not change the
        // transcript or the outputs.
        let c = adder(16);
        let deadlines = SessionDeadlines {
            handshake: Some(Duration::from_secs(30)),
            ot: Some(Duration::from_secs(30)),
            chunk: Some(Duration::from_secs(30)),
        };
        let config = SessionConfig::for_circuit(&c).with_deadlines(deadlines);
        let (g, e) =
            run_local_session(&c, &to_bits(1234, 16), &to_bits(4321, 16), 3, &config).unwrap();
        assert_eq!(from_bits(&g.outputs), 5555);
        assert_eq!(g.outputs, e.outputs);
    }

    #[test]
    fn local_session_computes_the_sum() {
        let c = adder(16);
        let config = SessionConfig::for_circuit(&c);
        let (g, e) =
            run_local_session(&c, &to_bits(1234, 16), &to_bits(4321, 16), 3, &config).unwrap();
        assert_eq!(from_bits(&g.outputs), 5555);
        assert_eq!(g.outputs, e.outputs);
        assert_eq!(g.tables, c.num_and_gates() as u64);
        assert_eq!(g.table_chunks, e.table_chunks);
        assert!(g.table_chunks >= 1);
        assert_eq!(e.ot_transfers, 16);
        let window = config.plan.window.sww_wires();
        assert!(e.within_window, "peak {} window {window}", e.peak_live_wires);
        // Each side's sent bytes are the other side's received bytes.
        assert_eq!(g.bytes_sent, e.bytes_received);
        assert_eq!(e.bytes_sent, g.bytes_received);
    }

    #[test]
    fn session_reports_meter_cipher_work() {
        let c = adder(16);
        let config = SessionConfig::for_circuit(&c);
        let (g, e) =
            run_local_session(&c, &to_bits(100, 16), &to_bits(200, 16), 8, &config).unwrap();
        let ands = c.num_and_gates() as u64;
        // Re-keyed garbling: exactly 2 key expansions + 4 AES blocks per
        // AND gate; evaluation: 2 expansions + 2 blocks.
        assert_eq!(g.crypto.key_expansions, 2 * ands);
        assert_eq!(g.crypto.aes_blocks, 4 * ands);
        assert_eq!(e.crypto.key_expansions, 2 * ands);
        assert_eq!(e.crypto.aes_blocks, 2 * ands);
        assert!(g.and_gates_per_sec() > 0.0);
        // The streaming phase was metered on both sides.
        assert!(g.compute_ns > 0 && e.compute_ns > 0);
    }

    #[test]
    fn attached_telemetry_sees_the_stream_and_respects_the_kill_switch() {
        let c = adder(16);
        let ands = c.num_and_gates() as u64;
        let tel = Arc::new(SessionTelemetry::default());
        let config = SessionConfig::for_circuit(&c).with_telemetry(Arc::clone(&tel));
        let (g, e) = run_local_session(&c, &to_bits(3, 16), &to_bits(4, 16), 9, &config).unwrap();
        assert_eq!(from_bits(&g.outputs), 7);
        // Both sides share the handles: tables counted once per side.
        assert_eq!(tel.tables.get(), 2 * ands);
        assert_eq!(tel.chunk_compute_ns.count(), g.table_chunks + e.table_chunks);
        assert_eq!(tel.chunk_io_ns.count(), g.table_chunks + e.table_chunks);
        assert_eq!(tel.ot_ns.count(), 2, "one OT phase sample per side");
        assert!(tel.table_rate.per_sec() > 0.0);
        // In-window plan: the OoRW queue never held anything.
        assert_eq!(tel.oor_occupancy.quantile(1.0), 0);
        // The global kill switch turns recording off without touching
        // the wire protocol or the report.
        haac_telemetry::set_enabled(false);
        let before = tel.tables.get();
        let (g2, _) = run_local_session(&c, &to_bits(3, 16), &to_bits(4, 16), 9, &config).unwrap();
        haac_telemetry::set_enabled(true);
        assert_eq!(g2.outputs, g.outputs);
        assert_eq!(tel.tables.get(), before, "disabled telemetry must not record");
    }

    #[test]
    fn streaming_matches_monolithic_protocol() {
        let c = adder(12);
        for seed in 0..4 {
            let g_bits = to_bits(1000 + seed, 12);
            let e_bits = to_bits(2000 + seed, 12);
            let config = SessionConfig::for_circuit(&c);
            let (g, _) = run_local_session(&c, &g_bits, &e_bits, seed, &config).unwrap();
            // The monolithic protocol: the oracle pair on the raw netlist.
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mono = haac_gc::garble(&c, &mut rng);
            let labels = haac_gc::evaluate(
                &c,
                &mono.garbled.tables,
                &mono.encode_inputs(&c, &g_bits, &e_bits),
            );
            let mono_outputs = haac_gc::decode_outputs(&labels, &mono.garbled.output_decode);
            assert_eq!(g.outputs, mono_outputs);
            assert_eq!(g.outputs, c.eval(&g_bits, &e_bits).unwrap());
        }
    }

    #[test]
    fn chunk_override_controls_the_stream_granularity() {
        let c = adder(16);
        let config = SessionConfig::for_circuit(&c).with_chunk_tables(2);
        assert_eq!(config.chunk_tables(), 2);
        let (g, e) = run_local_session(&c, &to_bits(1, 16), &to_bits(2, 16), 4, &config).unwrap();
        assert_eq!(g.table_chunks, (c.num_and_gates() as u64).div_ceil(2));
        assert_eq!(g.table_chunks, e.table_chunks);
    }

    #[test]
    fn tiny_window_still_completes_with_many_chunks() {
        let c = adder(32);
        // A plan forced onto a 2-wire slab: reads that fall outside it
        // go through the OoRW queue, and half the window is one table.
        let plan = haac_core::lower::lower_with_window(
            &c,
            ReorderKind::Baseline,
            haac_core::WindowModel::new(2),
        );
        let config = SessionConfig::from_plan(HashScheme::Rekeyed, Arc::new(plan));
        assert_eq!(config.chunk_override, None);
        assert_eq!(config.chunk_tables(), 1);
        let (g, e) = run_local_session(&c, &to_bits(7, 32), &to_bits(8, 32), 1, &config).unwrap();
        assert_eq!(from_bits(&g.outputs), 15);
        // chunk_tables = 1: one chunk (and one flush) per AND table.
        assert_eq!(g.table_chunks, c.num_and_gates() as u64);
        assert!(e.oor_queue_peak > 0, "a 2-wire slab cannot hold an adder's live set");
    }

    #[test]
    fn wrong_input_width_is_rejected() {
        let c = adder(8);
        let config = SessionConfig::for_circuit(&c);
        let err = run_local_session(&c, &to_bits(0, 4), &to_bits(0, 8), 1, &config).unwrap_err();
        assert!(err.to_string().contains("garbler input width"));
    }

    #[test]
    fn mismatched_plan_is_rejected_before_any_traffic() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        // Inputs for a 16-bit adder against an 8-bit adder's plan: the
        // plan's own width refuses them before the header is written.
        let small = adder(8);
        let config = SessionConfig::from_plan(
            HashScheme::Rekeyed,
            std::sync::Arc::new(lower_with_reorder(&small, ReorderKind::Baseline)),
        );
        let (mut gc, _ec) = crate::channel::MemChannel::pair();
        let mut rng = StdRng::seed_from_u64(1);
        let err = run_garbler(&to_bits(1, 16), &mut rng, &config, &mut gc).unwrap_err();
        assert!(err.to_string().contains("garbler input width 16"), "{err}");
        assert_eq!(gc.stats().bytes_sent, 0, "refused before any traffic");
    }

    #[test]
    fn mismatched_circuits_fail_loudly() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let big = adder(16);
        let small = adder(8);
        let (mut gc, mut ec) = crate::channel::MemChannel::pair();
        std::thread::scope(|scope| {
            let config = SessionConfig::for_circuit(&big);
            let garbler = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(1);
                run_garbler(&to_bits(1, 16), &mut rng, &config, &mut gc)
            });
            let evaluator = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(2);
                run_evaluator(
                    &to_bits(1, 8),
                    &mut rng,
                    &SessionConfig::for_circuit(&small),
                    &mut ec,
                )
            });
            let eval_err = evaluator.join().unwrap().unwrap_err();
            assert!(eval_err.to_string().contains("plan digest mismatch"), "{eval_err}");
            assert_eq!(eval_err.phase(), Some(SessionPhase::Handshake));
            // The garbler sees the evaluator hang up mid-protocol.
            assert!(garbler.join().unwrap().is_err());
        });
    }

    /// A channel whose reads lag: every `recv_exact` sleeps first,
    /// modeling an evaluator that falls behind the table stream.
    struct SlowChannel {
        inner: crate::channel::MemChannel,
        delay: std::time::Duration,
    }

    impl Channel for SlowChannel {
        fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            self.inner.send(bytes)
        }
        fn recv_exact(&mut self, buf: &mut [u8]) -> std::io::Result<()> {
            std::thread::sleep(self.delay);
            self.inner.recv_exact(buf)
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
        fn stats(&self) -> crate::ChannelStats {
            self.inner.stats()
        }
    }

    #[test]
    fn slow_evaluator_backpressures_the_garbler_without_unbounded_buffering() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let c = adder(32);
        // One table per chunk (one flush each), and capacity 1 lets at
        // most one unread flush exist per direction: the garbler *must*
        // stall whenever the evaluator lags — by construction it cannot
        // buffer the circuit.
        let config = SessionConfig::for_circuit(&c).with_chunk_tables(1);
        let (mut gc, ec) = crate::channel::MemChannel::pair_bounded(1);
        let mut ec = SlowChannel { inner: ec, delay: std::time::Duration::from_millis(1) };
        std::thread::scope(|scope| {
            let garbler = scope.spawn(|| {
                let mut rng = StdRng::seed_from_u64(21);
                run_garbler(&to_bits(7, 32), &mut rng, &config, &mut gc)
            });
            let evaluator = scope.spawn(|| {
                let mut rng = StdRng::seed_from_u64(22);
                run_evaluator(&to_bits(8, 32), &mut rng, &config, &mut ec)
            });
            let g = garbler.join().unwrap().unwrap();
            let e = evaluator.join().unwrap().unwrap();
            assert_eq!(from_bits(&g.outputs), 15);
            assert_eq!(g.outputs, e.outputs);
            // The stall was real: far more chunks (flushes) than the
            // queue could ever hold at once.
            assert_eq!(g.table_chunks, c.num_and_gates() as u64);
            assert!(g.table_chunks > 8, "want a many-chunk stream, got {}", g.table_chunks);
        });
    }

    /// The resumable twin: over an *unbounded* transport nothing but the
    /// ack window holds the garbler back, so what it retains for replay
    /// is bounded by that window — in bytes, because frames are bounded.
    #[test]
    fn slow_evaluator_bounds_the_resumable_garblers_replay_bytes() {
        use rand::rngs::StdRng;

        let c = adder(32);
        let config = SessionConfig::for_circuit(&c).with_chunk_tables(1).with_ack_interval(2);
        let plan = config.plan.clone();
        let (mut gc, ec) = crate::channel::MemChannel::pair();
        let ec = SlowChannel { inner: ec, delay: std::time::Duration::from_millis(1) };
        let mut replay = ReplayBuffer::new();
        let (g, e) = std::thread::scope(|scope| {
            let garbler = scope.spawn(|| {
                let mut rng = StdRng::seed_from_u64(21);
                let start = Instant::now();
                write_resumable_header(&config, &mut gc)?;
                let garbler =
                    StreamingGarbler::with_plan(&plan.program, &mut rng, HashScheme::Rekeyed);
                stream_garbler_resumable(
                    &to_bits(7, 32),
                    garbler,
                    &mut rng,
                    &config,
                    gc,
                    |_: &RuntimeError, _| None,
                    start,
                    &mut replay,
                )
            });
            let evaluator = scope.spawn(|| {
                let mut rng = StdRng::seed_from_u64(22);
                run_evaluator_resumable(&to_bits(8, 32), &mut rng, &config, ec, 9, |_, _| None)
            });
            (garbler.join().unwrap().unwrap(), evaluator.join().unwrap().unwrap())
        });
        assert_eq!(from_bits(&g.outputs), 15);
        assert_eq!(g.outputs, e.outputs);
        assert_eq!(g.table_chunks, c.num_and_gates() as u64);
        assert!(g.table_chunks > 8, "want a many-frame stream, got {}", g.table_chunks);
        // Two ack windows of full frames, plus the decode tail.
        let decode_frame =
            encode_frame(&Message::OutputDecode(vec![false; c.outputs().len()])).unwrap().len();
        let bound =
            2 * config.ack_interval as usize * (17 + 32 * config.chunk_tables()) + decode_frame;
        assert!(
            replay.peak_bytes <= bound,
            "replay buffer peaked at {} bytes, bound {bound}",
            replay.peak_bytes
        );
        // The bound was the thing holding the garbler back: it filled
        // both windows and then waited on the lagging evaluator's acks.
        assert!(replay.peak_bytes >= bound - decode_frame, "peak {}", replay.peak_bytes);
        assert!(g.io_stall_ns > 0, "time blocked on acks is the garbler's I/O stall");
        // Released frames are refilled, not reallocated: the session
        // allocated the two windows it retained at once, however many
        // frames it streamed.
        assert_eq!(replay.allocated, 2 * config.ack_interval as usize);
        assert!(g.table_chunks as usize > 2 * replay.allocated);
    }

    /// A session that retains nothing recycles its one frame buffer; a
    /// resumable one allocates at most the frames it may hold at once.
    #[test]
    fn frame_buffers_are_recycled_across_the_stream() {
        use rand::rngs::StdRng;

        let c = multiplier(24);
        let bits = to_bits(0xABCDEF, 24);
        let resumable = SessionConfig::for_circuit(&c).with_chunk_tables(8).with_ack_interval(3);
        let plain = SessionConfig { ack_interval: 0, ..resumable.clone() };
        for config in [&plain, &resumable] {
            let (mut gc, mut ec) = crate::channel::MemChannel::pair();
            let mut replay = ReplayBuffer::new();
            let (g, e) = std::thread::scope(|scope| {
                let garbler = scope.spawn(|| {
                    let mut rng = StdRng::seed_from_u64(21);
                    write_resumable_header(config, &mut gc)?;
                    let garbler = StreamingGarbler::with_plan(
                        &config.plan.program,
                        &mut rng,
                        HashScheme::Rekeyed,
                    );
                    stream_garbler_resumable(
                        &bits,
                        garbler,
                        &mut rng,
                        config,
                        gc,
                        |_: &RuntimeError, _| None,
                        Instant::now(),
                        &mut replay,
                    )
                });
                let mut rng = StdRng::seed_from_u64(22);
                let e = run_evaluator(&bits, &mut rng, config, &mut ec);
                (garbler.join().unwrap().unwrap(), e.unwrap())
            });
            assert_eq!(g.outputs, c.eval(&bits, &bits).unwrap());
            assert_eq!(g.outputs, e.outputs);
            let window = 2 * config.ack_interval as usize;
            assert!(g.table_chunks as usize > window + 2, "{} frames", g.table_chunks);
            if config.ack_interval == 0 {
                assert_eq!(replay.allocated, 1, "one frame, refilled for every chunk");
            } else {
                assert!(
                    (1..=window + 2).contains(&replay.allocated),
                    "{} buffers allocated for a window of {window} frames",
                    replay.allocated
                );
            }
        }
    }

    #[test]
    fn no_evaluator_inputs_skips_no_messages() {
        // Garbler-only inputs: OT runs with an empty batch.
        let mut b = Builder::new();
        let x = b.input_garbler(8);
        let y = b.not_word(&x);
        let c = b.finish(y).unwrap();
        let config = SessionConfig::for_circuit(&c);
        let (g, e) = run_local_session(&c, &to_bits(0b1010_1010, 8), &[], 9, &config).unwrap();
        assert_eq!(from_bits(&g.outputs), 0b0101_0101);
        assert_eq!(e.ot_transfers, 0);
    }

    #[test]
    fn extended_sessions_compute_identically_and_bound_base_ots() {
        let c = adder(16);
        let base = SessionConfig::for_circuit(&c);
        let ext = base.clone().with_ot_mode(OtMode::Extended);
        let (gb, _) =
            run_local_session(&c, &to_bits(1234, 16), &to_bits(4321, 16), 3, &base).unwrap();
        let (ge, ee) =
            run_local_session(&c, &to_bits(1234, 16), &to_bits(4321, 16), 3, &ext).unwrap();
        assert_eq!(ge.outputs, gb.outputs, "extension must not change the computation");
        assert_eq!(from_bits(&ge.outputs), 5555);
        // The wall the extension tears down: base OTs stop scaling with
        // the input count (κ = 128 bootstrap transfers, whatever m is).
        assert_eq!(ge.base_ots, haac_gc::OT_EXT_KAPPA as u64);
        assert_eq!(ge.ext_ots, 16);
        assert_eq!(ee.base_ots, haac_gc::OT_EXT_KAPPA as u64);
        assert_eq!(ee.ext_ots, 16);
        assert_eq!(ee.ot_transfers, 16, "delivered labels are still one per input");
        assert_eq!(ge.ot_transfers, 16);
        // Base mode reports the legacy shape.
        assert_eq!(gb.base_ots, 16);
        assert_eq!(gb.ext_ots, 0);
        // Both sides drained the full table stream.
        assert_eq!(ge.tables, c.num_and_gates() as u64);
        assert_eq!(ge.tables, ee.tables);
    }

    /// Every flush of each side, pinned per [`OtMode`] against the table
    /// frames F and the announced ack interval. The garbler flushes
    /// `OtSetup`, each frame and the decode frame, plus (extended) the
    /// header and input labels ahead of the reversed base OT. The
    /// evaluator flushes its OT replies (one base, two extended), an ack
    /// every `ack` frames and the outputs.
    #[test]
    fn flushes_are_the_flights_of_each_ot_mode() {
        let c = adder(96);
        let ands = SessionConfig::for_circuit(&c).plan.program.and_count();
        let (gb, eb) = (to_bits(0x1_2345_6789, 96), to_bits(0x9_8765_4321, 96));
        let mut seen = Vec::new();
        for mode in [OtMode::Base, OtMode::Extended] {
            let ot_flights = match mode {
                OtMode::Base => 0,
                OtMode::Extended => 1,
            };
            for chunk in [ands, ands.div_ceil(7), 1] {
                for ack in [0, 4, 16] {
                    let config = SessionConfig::for_circuit(&c)
                        .with_chunk_tables(chunk)
                        .with_ot_mode(mode)
                        .with_ack_interval(ack);
                    let (g, e) = if ack == 0 {
                        run_local_session(&c, &gb, &eb, 4, &config).unwrap()
                    } else {
                        run_resumable_pair(4, &config, &gb, &eb, None, &|ch| Box::new(ch)).unwrap()
                    };
                    let frames = g.table_chunks;
                    let acks = frames.checked_div(u64::from(ack)).unwrap_or(0);
                    let at = format!("{} OT, F = {frames}, ack {ack}", mode.label());
                    assert_eq!(g.flushes, frames + 2 + ot_flights, "garbler, {at}");
                    assert_eq!(e.flushes, 2 + ot_flights + acks, "evaluator, {at}");
                    seen.push(frames);
                }
            }
        }
        seen.dedup();
        assert_eq!(seen, [1, 7, 96, 1, 7, 96], "the frame counts the flights are pinned at");
    }

    #[test]
    fn ot_mode_mismatch_is_refused_before_the_ot_phase() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let c = adder(8);
        let c = &c;
        let (mut gc, mut ec) = crate::channel::MemChannel::pair();
        std::thread::scope(|scope| {
            let ext = SessionConfig::for_circuit(c).with_ot_mode(OtMode::Extended);
            let base = SessionConfig::for_circuit(c);
            let garbler = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(1);
                run_garbler(&to_bits(1, 8), &mut rng, &ext, &mut gc)
            });
            let evaluator = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(2);
                run_evaluator(&to_bits(2, 8), &mut rng, &base, &mut ec)
            });
            let eval_err = evaluator.join().unwrap().unwrap_err();
            assert!(eval_err.to_string().contains("OT mode mismatch"), "{eval_err}");
            // The evaluator hung up before answering the extension's
            // opening message; the garbler must surface that, not hang.
            assert!(garbler.join().unwrap().is_err());
        });
    }

    #[test]
    fn telemetry_meters_the_ot_mode_split() {
        let c = adder(16);
        let tel = Arc::new(SessionTelemetry::default());
        let ext = SessionConfig::for_circuit(&c)
            .with_telemetry(Arc::clone(&tel))
            .with_ot_mode(OtMode::Extended);
        run_local_session(&c, &to_bits(3, 16), &to_bits(4, 16), 9, &ext).unwrap();
        // Both sides record: 2 × κ bootstrap OTs, 2 × 16 extended rows.
        assert_eq!(tel.base_ots.get(), 2 * haac_gc::OT_EXT_KAPPA as u64);
        assert_eq!(tel.ext_ots.get(), 2 * 16);
        assert_eq!(tel.ot_ns.count(), 2, "one OT phase sample per side");
    }

    type DynChannel = Box<dyn Channel + Send>;

    /// Drives one resumable session pair, optionally cutting the
    /// evaluator's first connection at the given channel operation. Both
    /// resume callbacks reconnect through a shared rendezvous: the
    /// evaluator's makes a fresh `MemChannel` pair and hands the garbler
    /// its end; the garbler's consumes the peer's `Resume` frame off the
    /// new channel, exactly as the serving layer's handoff job does when
    /// routing by ticket. `wrap` intercepts every *resumed* channel end
    /// (tests use it to observe deadline re-arming).
    fn run_resumable_pair(
        seed: u64,
        config: &SessionConfig,
        garbler_bits: &[bool],
        evaluator_bits: &[bool],
        cut_at_op: Option<u64>,
        wrap: &(dyn Fn(crate::channel::MemChannel) -> DynChannel + Sync),
    ) -> Result<(SessionReport, SessionReport), RuntimeError> {
        run_resumable_pair_with(false, seed, config, garbler_bits, evaluator_bits, cut_at_op, wrap)
    }

    /// Like [`run_resumable_pair`], with a `banked` switch: the garbler
    /// side pre-garbles the plan from the *same* seeded rng and serves
    /// the session from the stored instance — every random draw happens
    /// in the same order as online garbling, so the transcript must be
    /// bit-identical to the `banked = false` run.
    #[allow(clippy::too_many_arguments)]
    fn run_resumable_pair_with(
        banked: bool,
        seed: u64,
        config: &SessionConfig,
        garbler_bits: &[bool],
        evaluator_bits: &[bool],
        cut_at_op: Option<u64>,
        wrap: &(dyn Fn(crate::channel::MemChannel) -> DynChannel + Sync),
    ) -> Result<(SessionReport, SessionReport), RuntimeError> {
        use crate::channel::MemChannel;
        use crate::fault::{FaultChannel, FaultSpec};
        use rand::rngs::StdRng;

        let (g_end, e_end) = MemChannel::pair();
        let garbler_channel: DynChannel = Box::new(g_end);
        let evaluator_channel: DynChannel = match cut_at_op {
            Some(op) => Box::new(FaultChannel::new(e_end, FaultSpec::cut_at_op(op), seed)),
            None => Box::new(e_end),
        };
        let (handoff_tx, handoff_rx) = mpsc::channel::<MemChannel>();
        let ticket = 0xC0FF_EE00_D00D_u128;

        std::thread::scope(|scope| {
            let garbler = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                let callback = |_err: &RuntimeError, _produced: u64| {
                    let mut channel = wrap(handoff_rx.recv().ok()?);
                    let Ok(Message::Resume { ticket: got, next_seq }) = read_message(&mut channel)
                    else {
                        return None;
                    };
                    assert_eq!(got, ticket, "resume routed to the wrong session");
                    Some((channel, next_seq))
                };
                if banked {
                    let plan = &config.plan;
                    let pool = haac_gc::EnginePool::new(2);
                    let instance = haac_gc::garble_plan_in(
                        &plan.program,
                        &mut rng,
                        HashScheme::Rekeyed,
                        &pool,
                    );
                    run_garbler_banked(
                        garbler_bits,
                        instance,
                        &mut rng,
                        config,
                        garbler_channel,
                        callback,
                    )
                } else {
                    run_garbler_resumable(garbler_bits, &mut rng, config, garbler_channel, callback)
                }
            });
            let evaluator = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
                run_evaluator_resumable(
                    evaluator_bits,
                    &mut rng,
                    config,
                    evaluator_channel,
                    ticket,
                    |_err, _next_seq| {
                        let (g_end, e_end) = MemChannel::pair();
                        handoff_tx.send(g_end).ok()?;
                        Some(wrap(e_end))
                    },
                )
            });
            let g = garbler.join().expect("garbler thread panicked");
            let e = evaluator.join().expect("evaluator thread panicked");
            Ok((g?, e?))
        })
    }

    /// Which garbler entry point (with the evaluator entry point that
    /// pairs with it) a recorded session drives.
    #[derive(Debug, Clone, Copy)]
    enum Driver {
        Plain,
        Resumable,
        Banked,
    }

    /// Parses recorded wire bytes back into messages.
    fn parse_messages(bytes: Vec<u8>) -> Vec<Message> {
        let mut script = ScriptChannel { script: bytes, pos: 0 };
        std::iter::from_fn(|| read_message(&mut script).ok()).collect()
    }

    /// One fault-free session through `driver` with every byte either
    /// side received recorded: the garbler→evaluator messages, the
    /// evaluator→garbler messages, and both reports. The same `seed`
    /// makes the same rng draws in the same order on every driver (the
    /// banked garbler pre-garbles from the session rng exactly where
    /// the online one draws Δ and its labels).
    fn recorded_session(
        driver: Driver,
        gb: &[bool],
        eb: &[bool],
        config: &SessionConfig,
        seed: u64,
    ) -> (Vec<Message>, Vec<Message>, SessionReport, SessionReport) {
        use rand::rngs::StdRng;

        let (g_end, e_end) = crate::channel::MemChannel::pair();
        let mut g_tee = RecvTee { inner: g_end, received: Vec::new() };
        let mut e_tee = RecvTee { inner: e_end, received: Vec::new() };
        let (g, e) = std::thread::scope(|scope| {
            let garbler = scope.spawn(|| {
                let mut rng = StdRng::seed_from_u64(seed);
                let rng = &mut rng;
                let no = |_: &RuntimeError, _| None;
                match driver {
                    Driver::Plain => run_garbler(gb, rng, config, &mut g_tee),
                    Driver::Resumable => run_garbler_resumable(gb, rng, config, &mut g_tee, no),
                    Driver::Banked => {
                        let pool = haac_gc::EnginePool::new(2);
                        let program = &config.plan.program;
                        let instance =
                            haac_gc::garble_plan_in(program, rng, HashScheme::Rekeyed, &pool);
                        run_garbler_banked(gb, instance, rng, config, &mut g_tee, no)
                    }
                }
            });
            let evaluator = scope.spawn(|| {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
                let rng = &mut rng;
                match driver {
                    Driver::Plain => run_evaluator(eb, rng, config, &mut e_tee),
                    Driver::Resumable | Driver::Banked => {
                        run_evaluator_resumable(eb, rng, config, &mut e_tee, 9, |_, _| None)
                    }
                }
            });
            let g = garbler.join().expect("garbler thread panicked");
            let e = evaluator.join().expect("evaluator thread panicked");
            (g.expect("garbler"), e.expect("evaluator"))
        });
        (parse_messages(e_tee.received), parse_messages(g_tee.received), g, e)
    }

    fn is_ack(message: &Message) -> bool {
        matches!(message, Message::ChunkAck { .. })
    }

    /// The fold, proven on every workload: a plain session and a
    /// resumable one put the same `GarblerInputs`, OT, `Tables` and
    /// `OutputDecode` messages on the wire. Only the header's ack
    /// cadence and the acks it asks for differ.
    #[test]
    fn resumable_drivers_match_the_plain_transcript_when_nothing_fails() {
        use haac_workloads::{build, Scale, WorkloadKind};

        for kind in WorkloadKind::ALL {
            let w = build(kind, Scale::Small);
            let config = SessionConfig::for_circuit(&w.circuit).with_ack_interval(2);
            let seed = 7 + kind as u64;
            let (gb, eb) = (&w.garbler_bits, &w.evaluator_bits);
            let run = |driver| recorded_session(driver, gb, eb, &config, seed);
            let (plain_sent, plain_replies, pg, pe) = run(Driver::Plain);
            let (sent, replies, g, e) = run(Driver::Resumable);
            for report in [&pg, &pe, &g, &e] {
                assert_eq!(report.outputs, w.expected, "{}", kind.name());
                assert_eq!((report.resumes, report.replayed_frames), (0, 0));
            }

            assert_eq!(plain_sent.len(), sent.len(), "{}", kind.name());
            for (plain, resumable) in plain_sent.iter().zip(&sent) {
                match (plain, resumable) {
                    (Message::Header(plain), Message::Header(resumable)) => {
                        assert_eq!(plain.ack_interval, 0, "a plain session asks for no acks");
                        assert_eq!(SessionHeader { ack_interval: 2, ..*plain }, *resumable);
                    }
                    _ => assert!(plain == resumable, "{}: {}", kind.name(), plain.name()),
                }
            }

            assert!(!plain_replies.iter().any(is_ack), "{}: unasked-for ack", kind.name());
            let acks = replies.iter().filter(|m| is_ack(m)).count() as u64;
            assert_eq!(acks, g.table_chunks / 2, "{}: one ack per two frames", kind.name());
            let replies: Vec<Message> = replies.into_iter().filter(|m| !is_ack(m)).collect();
            assert!(plain_replies == replies, "{}: evaluator messages differ", kind.name());
        }
    }

    /// A bank-served session must be indistinguishable on the wire from
    /// an online-garbled one: same seed → same Δ/labels/tables → the
    /// same messages in both directions, header and acks included —
    /// with zero online cipher work.
    #[test]
    fn banked_replay_is_transcript_identical_to_online_resumable() {
        use haac_workloads::{build, Scale, WorkloadKind};

        for kind in WorkloadKind::ALL {
            let w = build(kind, Scale::Small);
            let config = SessionConfig::for_circuit(&w.circuit).with_ack_interval(2);
            let seed = 7 + kind as u64;
            let (gb, eb) = (&w.garbler_bits, &w.evaluator_bits);
            let run = |driver| recorded_session(driver, gb, eb, &config, seed);
            let (online_sent, online_replies, online_g, online_e) = run(Driver::Resumable);
            let (banked_sent, banked_replies, banked_g, banked_e) = run(Driver::Banked);
            assert_eq!(banked_g.outputs, w.expected, "{}", kind.name());
            assert_eq!(banked_e.outputs, w.expected, "{}", kind.name());
            assert!(banked_sent == online_sent, "{}: garbler messages differ", kind.name());
            assert!(banked_replies == online_replies, "{}: evaluator messages differ", kind.name());
            assert_eq!(banked_g.table_chunks, online_g.table_chunks);
            assert_eq!(banked_g.bytes_sent, online_g.bytes_sent, "identical framing");
            assert_eq!(banked_g.flushes, online_g.flushes, "identical flush boundaries");
            assert_eq!(banked_e.bytes_received, online_e.bytes_received);
            assert_eq!(banked_g.crypto, CryptoCounters::default(), "zero online cipher work");
            assert_ne!(online_g.crypto, CryptoCounters::default(), "online garbling does compute");
        }
    }

    /// Satellite of the bank work: bank-served sessions must survive the
    /// chaos cut sweep exactly as online ones do — a resume replays the
    /// *stored* frames byte-identically, never re-garbles.
    #[test]
    fn banked_cut_sweep_resumes_to_the_uncut_outputs() {
        let c = adder(32);
        let config = SessionConfig::for_circuit(&c).with_chunk_tables(2).with_ack_interval(2);
        let gb = to_bits(123_456, 32);
        let eb = to_bits(654_321, 32);
        let (baseline, _) =
            run_resumable_pair_with(true, 7, &config, &gb, &eb, None, &|ch| Box::new(ch)).unwrap();

        let mut resumed = 0u64;
        for op in 1..48 {
            match run_resumable_pair_with(true, 7, &config, &gb, &eb, Some(op), &|ch| Box::new(ch))
            {
                Ok((g, e)) => {
                    assert_eq!(g.outputs, baseline.outputs, "cut at op {op}");
                    assert_eq!(e.outputs, baseline.outputs, "cut at op {op}");
                    if e.resumes > 0 {
                        resumed += 1;
                        assert!(
                            g.replayed_frames > 0,
                            "cut at op {op}: a banked resume must replay stored frames"
                        );
                        assert_eq!(
                            g.crypto,
                            CryptoCounters::default(),
                            "cut at op {op}: a resume must never re-garble"
                        );
                    }
                }
                Err(err) => {
                    assert!(
                        err.retry_safe() || err.resume_safe(),
                        "cut at op {op}: failure is neither resumed nor retry-safe: {err}"
                    );
                }
            }
        }
        assert!(resumed > 0, "the sweep never exercised a banked resume");
    }

    /// A mis-keyed or stale bank entry is refused before any byte hits
    /// the wire.
    #[test]
    fn banked_session_refuses_a_mismatched_instance() {
        use crate::channel::MemChannel;
        use rand::rngs::StdRng;

        let c = adder(32);
        let other = adder(16);
        let config = SessionConfig::for_circuit(&c);
        let other_config = SessionConfig::for_circuit(&other);
        let plan = &other_config.plan;
        let pool = haac_gc::EnginePool::new(1);
        let mut rng = StdRng::seed_from_u64(3);
        let instance = haac_gc::garble_plan_in(&plan.program, &mut rng, HashScheme::Rekeyed, &pool);
        let (g_end, _e_end) = MemChannel::pair();
        let err =
            run_garbler_banked(&to_bits(1, 32), instance, &mut rng, &config, g_end, |_, _| None)
                .unwrap_err();
        assert!(err.to_string().contains("banked instance shape"), "{err}");
    }

    /// One plain session — `run_garbler` against `run_evaluator`,
    /// whose resume callbacks are the drivers' own and decline — with
    /// the evaluator's connection cut at channel operation `op`.
    /// Returns both outcomes and the messages the evaluator had
    /// received in full when it stopped.
    fn run_plain_pair_cut(
        seed: u64,
        config: &SessionConfig,
        gb: &[bool],
        eb: &[bool],
        op: u64,
    ) -> (Result<SessionReport, RuntimeError>, Result<SessionReport, RuntimeError>, Vec<Message>)
    {
        use crate::fault::{FaultChannel, FaultSpec};
        use rand::rngs::StdRng;

        let (mut g_end, e_end) = crate::channel::MemChannel::pair();
        let tee = RecvTee { inner: e_end, received: Vec::new() };
        let mut e_end = FaultChannel::new(tee, FaultSpec::cut_at_op(op), seed);
        std::thread::scope(|scope| {
            let garbler = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed);
                run_garbler(gb, &mut rng, config, &mut g_end)
            });
            let evaluator = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
                let outcome = run_evaluator(eb, &mut rng, config, &mut e_end);
                // The connection dies with this thread, as a dropped
                // client's would; only the recording leaves it.
                (outcome, e_end.into_inner().received)
            });
            let g = garbler.join().expect("garbler thread panicked");
            let (e, received) = evaluator.join().expect("evaluator thread panicked");
            (g, e, parse_messages(received))
        })
    }

    fn cut_sweep(
        config: &SessionConfig,
        gb: &[bool],
        eb: &[bool],
        ops: std::ops::Range<u64>,
    ) -> (u64, u64) {
        cut_sweep_with(Driver::Resumable, config, gb, eb, ops)
    }

    /// Cuts the evaluator's connection at every channel operation in
    /// `ops`, stopping early at the first cut that lies past the
    /// session's last operation (it never fires: the run completes
    /// without a resume). Each cut must end in one of two sanctioned ways:
    /// a pre-stream failure the retry layer owns (retry-safe), or a
    /// resumed session whose outputs equal the uncut run's — with the
    /// replayed bytes coming out of the garbler's buffer
    /// (replayed_frames > 0), never from a second garbling. Returns how
    /// many cuts resumed and how many ended retry-safe.
    ///
    /// Under [`Driver::Plain`] the callbacks are the drivers' own and
    /// decline ([`run_plain_pair_cut`]), so nothing can resume: every
    /// cut must end both parties in a typed error, the evaluator's retry-safe exactly
    /// when the cut fell before the table stream opened (base OT: before
    /// `OtCiphertexts` had arrived in full). The first count is then the
    /// cuts that fell mid-stream and were terminal.
    fn cut_sweep_with(
        driver: Driver,
        config: &SessionConfig,
        gb: &[bool],
        eb: &[bool],
        ops: std::ops::Range<u64>,
    ) -> (u64, u64) {
        let (baseline, _) =
            run_resumable_pair(7, config, gb, eb, None, &|ch| Box::new(ch)).unwrap();
        let (mut resumed, mut retry_safe) = (0u64, 0u64);
        let mut replayed_nothing = None;
        let mut swept_to_the_end = false;
        for op in ops {
            if matches!(driver, Driver::Plain) {
                let (g, e, received) = run_plain_pair_cut(7, config, gb, eb, op);
                let (g_err, e_err) = match (g, e) {
                    (Ok(g), Ok(e)) => {
                        assert_eq!(
                            (&g.outputs, &e.outputs),
                            (&baseline.outputs, &baseline.outputs)
                        );
                        swept_to_the_end = true;
                        break;
                    }
                    (g, e) => (
                        g.err().unwrap_or_else(|| panic!("cut at op {op}: garbler finished alone")),
                        e.err()
                            .unwrap_or_else(|| panic!("cut at op {op}: evaluator finished alone")),
                    ),
                };
                let streaming = received.iter().any(|m| matches!(m, Message::OtCiphertexts(_)));
                assert!(g_err.phase().is_some(), "cut at op {op}: untyped failure: {g_err}");
                assert!(e_err.phase().is_some(), "cut at op {op}: untyped failure: {e_err}");
                assert_eq!(e_err.retry_safe(), !streaming, "cut at op {op}: {e_err}");
                if streaming {
                    // The garbler had sent the last OT message, so it
                    // was streaming too; before that the two sides may
                    // disagree (see below).
                    assert!(!g_err.retry_safe(), "cut at op {op}: {g_err}");
                    resumed += 1;
                } else {
                    retry_safe += 1;
                }
                continue;
            }
            match run_resumable_pair(7, config, gb, eb, Some(op), &|ch| Box::new(ch)) {
                Ok((g, e)) => {
                    assert_eq!(g.outputs, baseline.outputs, "cut at op {op}");
                    assert_eq!(e.outputs, baseline.outputs, "cut at op {op}");
                    assert_eq!(e.tables, baseline.tables, "cut at op {op}");
                    if e.resumes == 0 {
                        swept_to_the_end = true;
                        break;
                    }
                    resumed += 1;
                    assert!(g.resumes > 0, "cut at op {op}: evaluator resumed alone");
                    assert!(
                        replayed_nothing.is_none(),
                        "cut at op {replayed_nothing:?}: a resume must replay buffered bytes"
                    );
                    // Only the session's very last operation — the
                    // flush that shares the outputs — leaves nothing to
                    // replay, so only the sweep's last resume may.
                    replayed_nothing = (g.replayed_frames == 0).then_some(op);
                }
                Err(err) => {
                    // A pre-stream cut is the retry layer's problem. The
                    // two sides may even disagree about the boundary
                    // (the evaluator dies in its OT phase while the
                    // garbler is already streaming): the evaluator gives
                    // up retry-safe, and the garbler's resume-safe error
                    // surfaces once its callback finds no peer. Only an
                    // error that is *neither* would mean the resume
                    // machinery corrupted a session.
                    assert!(
                        err.retry_safe() || err.resume_safe(),
                        "cut at op {op}: failure is neither resumed nor retry-safe: {err}"
                    );
                    retry_safe += 1;
                }
            }
        }
        assert!(
            replayed_nothing.is_none() || swept_to_the_end,
            "cut at op {replayed_nothing:?}: a resume must replay buffered bytes"
        );
        (resumed, retry_safe)
    }

    #[test]
    fn cut_sweep_resumes_to_the_uncut_outputs_without_regarbling() {
        let c = adder(32);
        let config = SessionConfig::for_circuit(&c).with_chunk_tables(2).with_ack_interval(2);
        let (resumed, retry_safe) =
            cut_sweep(&config, &to_bits(123_456, 32), &to_bits(654_321, 32), 1..60);
        assert!(resumed > 0, "the sweep never exercised a resume");
        assert!(retry_safe > 0, "the sweep never hit the retry-safe region");
    }

    /// The fold's other half: the plain entry points run the same loop
    /// with callbacks that decline, so the same cuts must end every
    /// session in a typed error — retry-safe before the stream, terminal
    /// in it — and never hang on a peer that is gone.
    #[test]
    fn cut_sweep_through_the_plain_drivers_ends_every_cut_in_a_typed_error() {
        let c = adder(32);
        let config = SessionConfig::for_circuit(&c).with_chunk_tables(2).with_ack_interval(2);
        let (mid_stream, retry_safe) = cut_sweep_with(
            Driver::Plain,
            &config,
            &to_bits(123_456, 32),
            &to_bits(654_321, 32),
            1..u64::MAX,
        );
        assert!(retry_safe > 0, "the sweep never hit the retry-safe region");
        // Three receives per frame: every frame of the stream was cut.
        let frames = (c.num_and_gates() as u64).div_ceil(2);
        assert!(mid_stream >= 3 * frames, "only {mid_stream} cuts over {frames} frames");
    }

    /// The same sweep on the framing a server actually uses: the frame
    /// is the default (not overridden) and only the ack cadence is
    /// lowered, so the 9-frame stream spans four ack windows and a
    /// resume has to replay across frames that several acks already
    /// trimmed around.
    #[test]
    fn cut_sweep_at_the_default_frame_replays_across_several_ack_windows() {
        let c = multiplier(92);
        let config = SessionConfig::for_circuit(&c).with_ack_interval(2);
        assert_eq!(config.chunk_override, None);
        let frames = (c.num_and_gates() as u64).div_ceil(config.chunk_tables() as u64);
        assert!(frames >= 4 * u64::from(config.ack_interval), "{frames} frames");
        let bits = vec![true; 92];
        let (resumed, _) = cut_sweep(&config, &bits, &bits, 1..u64::MAX);
        // A cut inside any frame of the stream resumes.
        assert!(resumed >= frames, "only {resumed} resumed cuts over {frames} frames");
    }

    #[test]
    fn resumed_connections_rearm_the_stream_deadline() {
        use std::io;
        use std::sync::Mutex;

        // Regression: a freshly reconnected channel starts with no I/O
        // deadline armed — the drivers must re-arm the chunk budget on
        // it, making the stream's progress requirement per-connection
        // rather than cumulative across reconnects.
        let c = adder(32);
        let chunk_budget = Duration::from_secs(5);
        let config = SessionConfig::for_circuit(&c)
            .with_chunk_tables(2)
            .with_ack_interval(2)
            .with_deadlines(SessionDeadlines {
                handshake: None,
                ot: None,
                chunk: Some(chunk_budget),
            });

        #[derive(Debug)]
        struct ArmRecorder {
            inner: crate::channel::MemChannel,
            armed: Arc<Mutex<Vec<Option<Duration>>>>,
        }
        impl Channel for ArmRecorder {
            fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
                self.inner.send(bytes)
            }
            fn recv_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
                self.inner.recv_exact(buf)
            }
            fn flush(&mut self) -> io::Result<()> {
                self.inner.flush()
            }
            fn stats(&self) -> ChannelStats {
                self.inner.stats()
            }
            fn set_io_deadline(&mut self, timeout: Option<Duration>) -> io::Result<()> {
                self.armed.lock().unwrap().push(timeout);
                self.inner.set_io_deadline(timeout)
            }
        }

        let armed: Arc<Mutex<Vec<Option<Duration>>>> = Arc::new(Mutex::new(Vec::new()));
        let record = armed.clone();
        let wrap = move |ch: crate::channel::MemChannel| -> DynChannel {
            Box::new(ArmRecorder { inner: ch, armed: record.clone() })
        };
        // Scan for a cut that lands mid-stream (early ops hit the
        // retry-safe handshake/OT region, whose exact width is a wire
        // detail this test must not encode).
        let mut resumed = false;
        for op in 10..60 {
            armed.lock().unwrap().clear();
            let Ok((g, e)) = run_resumable_pair(
                7,
                &config,
                &to_bits(123_456, 32),
                &to_bits(654_321, 32),
                Some(op),
                &wrap,
            ) else {
                continue;
            };
            if e.resumes == 0 {
                continue;
            }
            resumed = true;
            assert!(g.resumes >= 1);
            let armed = armed.lock().unwrap();
            // Both resumed ends re-armed the chunk budget (the recorder
            // only wraps resumed channels, so every entry is
            // post-resume).
            assert!(
                armed.iter().filter(|t| **t == Some(chunk_budget)).count() >= 2,
                "cut at op {op}: resumed channels were not re-armed: {armed:?}"
            );
            break;
        }
        assert!(resumed, "no cut in the scanned range produced a resume");
    }

    #[test]
    fn resumable_evaluator_refuses_a_garbler_without_acks() {
        use rand::rngs::StdRng;

        // The plain garbler announces ack_interval 0 — no acks, no
        // replay buffer. A resumable evaluator must refuse at the
        // header instead of discovering at the first cut that the peer
        // kept no replay bytes.
        let c = adder(16);
        let config = SessionConfig::for_circuit(&c);
        let (mut g_end, e_end) = crate::channel::MemChannel::pair();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut rng = StdRng::seed_from_u64(1);
                // Fails when the evaluator hangs up; that is the point.
                let _ = run_garbler(&to_bits(1, 16), &mut rng, &config, &mut g_end);
            });
            let mut rng = StdRng::seed_from_u64(2);
            let err =
                run_evaluator_resumable(&to_bits(2, 16), &mut rng, &config, e_end, 9, |_, _| None)
                    .unwrap_err();
            assert!(
                matches!(&err, RuntimeError::Protocol(m) if m.contains("cannot be resumed")),
                "{err}"
            );
        });
    }

    /// Records every byte the wrapped end receives.
    struct RecvTee<C = crate::channel::MemChannel> {
        inner: C,
        received: Vec<u8>,
    }

    impl<C: Channel> Channel for RecvTee<C> {
        fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
            self.inner.send(bytes)
        }
        fn recv_exact(&mut self, buf: &mut [u8]) -> std::io::Result<()> {
            self.inner.recv_exact(buf)?;
            self.received.extend_from_slice(buf);
            Ok(())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            self.inner.flush()
        }
        fn stats(&self) -> ChannelStats {
            self.inner.stats()
        }
    }

    /// What the evaluator of a resumable session receives, byte for
    /// byte, with the garbler's report.
    fn received_transcript<C: Channel + Send>(
        config: &SessionConfig,
        bits: &[bool],
        garbler_end: C,
        evaluator_end: C,
    ) -> (Vec<u8>, SessionReport) {
        use rand::rngs::StdRng;

        std::thread::scope(|scope| {
            let garbler = scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(21);
                run_garbler_resumable(bits, &mut rng, config, garbler_end, |_, _| None)
            });
            let mut tee = RecvTee { inner: evaluator_end, received: Vec::new() };
            let mut rng = StdRng::seed_from_u64(22);
            let e = run_evaluator_resumable(bits, &mut rng, config, &mut tee, 9, |_, _| None);
            let g = garbler.join().unwrap().unwrap();
            assert_eq!(e.unwrap().outputs, g.outputs);
            (tee.received, g)
        })
    }

    /// Over TCP the garbler's table frames leave as the head and the
    /// chunk's own bytes in one vectored write; over a `MemChannel` they
    /// are copied into one buffered message. The evaluator must receive
    /// the same bytes either way.
    #[test]
    fn tcp_garbler_bytes_equal_the_in_process_transcript() {
        use crate::channel::{MemChannel, TcpChannel};
        use std::net::{TcpListener, TcpStream};

        let c = multiplier(24);
        let bits = to_bits(0xABCDEF, 24);
        let config = SessionConfig::for_circuit(&c).with_chunk_tables(8).with_ack_interval(3);
        let (g_end, e_end) = MemChannel::pair();
        let (in_process, g_mem) = received_transcript(&config, &bits, g_end, e_end);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let g_end =
            TcpChannel::from_stream(TcpStream::connect(listener.local_addr().unwrap()).unwrap())
                .unwrap();
        let e_end = TcpChannel::from_stream(listener.accept().unwrap().0).unwrap();
        let (over_tcp, g_tcp) = received_transcript(&config, &bits, g_end, e_end);
        assert!(g_tcp.table_chunks > 8, "want a many-frame stream, got {}", g_tcp.table_chunks);
        assert!(over_tcp == in_process, "the TCP transcript differs from the in-process one");
        assert_eq!(g_tcp.bytes_sent, over_tcp.len() as u64);
        assert_eq!((g_tcp.bytes_sent, g_tcp.flushes), (g_mem.bytes_sent, g_mem.flushes));
    }

    /// A scripted peer: reads come from a recorded transcript (EOF past
    /// its end, never a block), writes vanish.
    struct ScriptChannel {
        script: Vec<u8>,
        pos: usize,
    }

    impl Channel for ScriptChannel {
        fn send(&mut self, _bytes: &[u8]) -> std::io::Result<()> {
            Ok(())
        }
        fn recv_exact(&mut self, buf: &mut [u8]) -> std::io::Result<()> {
            let end = self.pos + buf.len();
            let Some(bytes) = self.script.get(self.pos..end) else {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            };
            buf.copy_from_slice(bytes);
            self.pos = end;
            Ok(())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
        fn stats(&self) -> ChannelStats {
            ChannelStats::default()
        }
    }

    #[test]
    fn surplus_tables_in_a_frame_are_a_typed_stream_error_in_every_receive_loop() {
        use rand::rngs::StdRng;

        // An honest garbler's transcript, recorded at the evaluator...
        let c = adder(32);
        let config = SessionConfig::for_circuit(&c).with_chunk_tables(8).with_ack_interval(2);
        let (gb, eb) = (to_bits(40_000, 32), to_bits(2_000, 32));
        let evaluator_rng = || StdRng::seed_from_u64(5 ^ 0x9E37_79B9_7F4A_7C15);
        let (g_end, e_end) = crate::channel::MemChannel::pair();
        let mut tee = RecvTee { inner: e_end, received: Vec::new() };
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut rng = StdRng::seed_from_u64(5);
                let no_resume = |_: &RuntimeError, _| None::<(crate::channel::MemChannel, u64)>;
                run_garbler_resumable(&gb, &mut rng, &config, g_end, no_resume).unwrap();
            });
            run_evaluator(&eb, &mut evaluator_rng(), &config, &mut tee).unwrap();
        });

        // ...re-framed with one table too many in its last `Tables`
        // frame: sequence numbers, OT replies and the decode stay valid,
        // only the table count overruns what the header announced.
        let mut honest = ScriptChannel { script: tee.received, pos: 0 };
        let mut messages = Vec::new();
        while let Ok(message) = read_message(&mut honest) {
            messages.push(message);
        }
        let last_tables = messages
            .iter_mut()
            .rev()
            .find_map(|m| if let Message::Tables { tables, .. } = m { Some(tables) } else { None })
            .expect("the transcript streams tables");
        last_tables.push([Block::default(); 2]);
        let script: Vec<u8> = messages.iter().flat_map(|m| encode_frame(m).unwrap()).collect();

        // Same evaluator seed ⇒ same OT messages ⇒ the recorded replies
        // still fit; the receive loop must refuse the inflated frame
        // instead of dropping the surplus and completing, through
        // either entry point.
        let replay = || ScriptChannel { script: script.clone(), pos: 0 };
        let outcomes = [
            run_evaluator(&eb, &mut evaluator_rng(), &config, &mut replay()),
            run_evaluator_resumable(&eb, &mut evaluator_rng(), &config, replay(), 9, |_, _| None),
        ];
        for (outcome, driver) in outcomes.into_iter().zip(["plain", "resumable"]) {
            let err = outcome.expect_err(driver);
            assert_eq!(err.phase(), Some(SessionPhase::Stream), "{driver}: {err}");
            assert!(
                matches!(&err, RuntimeError::Phased { source, .. }
                    if matches!(&**source, RuntimeError::Protocol(m) if m.contains("remain"))),
                "{driver}: {err}"
            );
        }
    }

    /// Which party bounds a stream, from the two reports alone. Online,
    /// the garbler does the heavier work and the evaluator waits for
    /// every frame; the 9-frame stream never fills the default two ack
    /// windows (32 frames), so the garbler never waits at all.
    #[test]
    fn online_sessions_attribute_stalls_to_the_evaluators_wait_for_frames() {
        let c = multiplier(92);
        let config = SessionConfig::for_circuit(&c);
        let bits = vec![true; 92];
        let (g, e) =
            run_resumable_pair(3, &config, &bits, &bits, None, &|ch| Box::new(ch)).unwrap();
        assert_eq!(g.outputs, c.eval(&bits, &bits).unwrap());
        assert_eq!(g.table_chunks, 9);
        assert!(e.io_stall_ns > 0, "the evaluator waited for frames");
        assert_eq!(g.io_stall_ns, 0, "the garbler never had to wait for an ack");
        // The stall is the receive time: with evaluation it tiles the
        // evaluator's streaming wall.
        assert_eq!(e.io_stall_ns, e.io_ns);
        assert!(e.compute_ns + e.io_stall_ns <= e.stream_ns);
    }

    /// Served from the bank the garbler only copies stored tables, so
    /// the evaluator bounds the stream: once two ack windows (4 frames
    /// at this cadence) are in flight the garbler blocks on acks, and
    /// that wait outweighs everything it computes.
    #[test]
    fn banked_sessions_attribute_stalls_to_the_garblers_wait_for_acks() {
        let c = multiplier(92);
        let config = SessionConfig::for_circuit(&c).with_ack_interval(2);
        let bits = vec![true; 92];
        let (g, e) =
            run_resumable_pair_with(true, 3, &config, &bits, &bits, None, &|ch| Box::new(ch))
                .unwrap();
        assert_eq!(g.outputs, c.eval(&bits, &bits).unwrap());
        assert!(g.table_chunks > 2 * u64::from(config.ack_interval));
        assert!(
            g.io_stall_ns > g.compute_ns,
            "garbler stalled {} ns on acks vs {} ns of table copies",
            g.io_stall_ns,
            g.compute_ns
        );
        assert!(e.compute_ns > g.compute_ns, "evaluation is the work that bounds the stream");
    }

    /// Everything an honest evaluator sends a resumable garbler (seed
    /// 5) on a one-table-per-frame, ack-every-frame adder session.
    fn honest_replies(config: &SessionConfig) -> Vec<Message> {
        let (gb, eb) = (to_bits(40_000, 32), to_bits(2_000, 32));
        let (_, replies, g, _) = recorded_session(Driver::Resumable, &gb, &eb, config, 5);
        assert_eq!(replies.iter().filter(|m| is_ack(m)).count() as u64, g.table_chunks);
        replies
    }

    /// The same garbler against a scripted evaluator that never shares
    /// outputs: returns what the garbler makes of the script.
    fn garbler_against_script(config: &SessionConfig, script: &[Message]) -> RuntimeError {
        use rand::rngs::StdRng;

        let script = script.iter().flat_map(|m| encode_frame(m).unwrap()).collect();
        let peer = ScriptChannel { script, pos: 0 };
        let mut rng = StdRng::seed_from_u64(5);
        let decline = |_: &RuntimeError, _| None;
        run_garbler_resumable(&to_bits(40_000, 32), &mut rng, config, peer, decline)
            .expect_err("the scripted peer never shares outputs")
    }

    /// Drops the last item of an OT batch message; `false` for any other
    /// message.
    fn shorten_ot_batch(message: &mut Message) -> bool {
        match message {
            Message::OtPoints(items) => items.pop().is_some(),
            Message::OtCiphertexts(items) | Message::OtExtLabels(items) => items.pop().is_some(),
            Message::OtExtMatrix(items) => items.pop().is_some(),
            _ => false,
        }
    }

    /// A peer one item short in any OT batch ends the session in a typed
    /// `Ot`-phase protocol error, never a panic, on either side and in
    /// either mode: the OT state machines count every batch they take.
    #[test]
    fn an_ot_batch_one_item_short_is_a_typed_ot_error() {
        use rand::rngs::StdRng;

        let c = adder(32);
        let eb = to_bits(2_000, 32);
        for (mode, garbler_takes, evaluator_takes) in [
            (OtMode::Base, &["OtPoints"][..], &["OtCiphertexts"][..]),
            (OtMode::Extended, &["OtCiphertexts", "OtExtMatrix"], &["OtPoints", "OtExtLabels"]),
        ] {
            let config = SessionConfig::for_circuit(&c).with_ot_mode(mode);
            let (to_evaluator, to_garbler, _, _) =
                recorded_session(Driver::Resumable, &to_bits(40_000, 32), &eb, &config, 5);
            for (garbler_side, honest, takes) in
                [(true, to_garbler, garbler_takes), (false, to_evaluator, evaluator_takes)]
            {
                let mut shortened = Vec::new();
                for at in 0..honest.len() {
                    let mut script = honest.clone();
                    if !shorten_ot_batch(&mut script[at]) {
                        continue;
                    }
                    shortened.push(script[at].name());
                    let err = if garbler_side {
                        garbler_against_script(&config, &script)
                    } else {
                        let script = script.iter().flat_map(|m| encode_frame(m).unwrap()).collect();
                        let mut peer = ScriptChannel { script, pos: 0 };
                        let mut rng = StdRng::seed_from_u64(5 ^ 0x9E37_79B9_7F4A_7C15);
                        run_evaluator(&eb, &mut rng, &config, &mut peer)
                            .expect_err("a short OT batch must be refused")
                    };
                    let at = format!("{} OT, {} short", mode.label(), script[at].name());
                    assert_eq!(err.phase(), Some(SessionPhase::Ot), "{at}: {err}");
                    assert!(
                        matches!(&err, RuntimeError::Phased { source, .. }
                            if matches!(&**source, RuntimeError::Protocol(_))),
                        "{at}: {err}"
                    );
                }
                assert_eq!(shortened, takes, "{} OT", mode.label());
            }
        }
    }

    fn assert_stale_ack(err: &RuntimeError, phase: SessionPhase) {
        assert_eq!(err.phase(), Some(phase), "{err}");
        assert!(
            matches!(err, RuntimeError::Phased { source, .. }
                if matches!(&**source, RuntimeError::Protocol(m) if m.contains("does not advance"))),
            "{err}"
        );
    }

    /// An evaluator that answers the OT honestly and then drips
    /// `ChunkAck{0}` would re-arm the chunk deadline with every message
    /// while the garbler waits for its replay window to open. The first
    /// one is refused instead of being read past.
    #[test]
    fn a_stale_ack_dripped_into_a_full_replay_window_is_a_typed_stream_error() {
        let c = adder(32);
        let config = SessionConfig::for_circuit(&c).with_chunk_tables(1).with_ack_interval(1);
        let mut script: Vec<Message> =
            honest_replies(&config).into_iter().take_while(|m| !is_ack(m)).collect();
        script.extend(vec![Message::ChunkAck { upto_seq: 0 }; 3]);
        assert_stale_ack(&garbler_against_script(&config, &script), SessionPhase::Stream);
    }

    /// The output tail reads acks too: an evaluator that acknowledges
    /// everything and then repeats its last valid cursor in place of the
    /// outputs is refused at the first repeat.
    #[test]
    fn a_repeated_ack_in_the_output_tail_is_a_typed_output_error() {
        let c = adder(32);
        let config = SessionConfig::for_circuit(&c).with_chunk_tables(1).with_ack_interval(1);
        let mut script = honest_replies(&config);
        assert!(matches!(script.pop(), Some(Message::Outputs(_))));
        let last_ack = script.last().cloned().expect("the honest run acked");
        assert!(is_ack(&last_ack));
        script.extend(vec![last_ack; 3]);
        assert_stale_ack(&garbler_against_script(&config, &script), SessionPhase::Output);
    }

    #[test]
    fn resumable_garbler_streams_to_the_plain_evaluator() {
        use rand::rngs::StdRng;

        // Mixed pairing: the resumable garbler announces an ack cadence
        // and the plain evaluator honors it from the header — the
        // garbler's replay buffer drains through the acks and the wire
        // computation is unchanged.
        let c = adder(32);
        let config = SessionConfig::for_circuit(&c).with_chunk_tables(2).with_ack_interval(2);
        let (g_end, mut e_end) = crate::channel::MemChannel::pair();
        let (g, e) = std::thread::scope(|scope| {
            let garbler = scope.spawn(|| {
                let mut rng = StdRng::seed_from_u64(5);
                run_garbler_resumable(
                    &to_bits(40_000, 32),
                    &mut rng,
                    &config,
                    g_end,
                    |_err, _produced| None::<(crate::channel::MemChannel, u64)>,
                )
            });
            let mut rng = StdRng::seed_from_u64(5 ^ 0x9E37_79B9_7F4A_7C15);
            let e = run_evaluator(&to_bits(2_000, 32), &mut rng, &config, &mut e_end);
            (garbler.join().expect("garbler thread panicked"), e)
        });
        let (g, e) = (g.unwrap(), e.unwrap());
        assert_eq!(from_bits(&g.outputs), 42_000);
        assert_eq!(g.outputs, e.outputs);
        assert_eq!(g.resumes, 0);
    }
}
