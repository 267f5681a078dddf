//! # haac-runtime — streaming two-party GC execution
//!
//! The paper's core observation is that garbled circuits are a
//! *streaming* workload (§2.2): the garbler produces tables in gate
//! order, the evaluator consumes each exactly once, and neither ever
//! revisits one. This crate turns that observation into a runtime: a
//! real two-party protocol (garbler ↔ evaluator) over pluggable byte
//! [`Channel`]s, streaming tables in transport-sized frames and holding
//! O(window) live wires — the compiler's sliding-wire-window model —
//! instead of O(circuit).
//!
//! | Layer | Contents |
//! |-------|----------|
//! | [`channel`] | [`Channel`] trait, [`MemChannel`] (in-process), [`TcpChannel`] (real sockets), traffic accounting, per-operation I/O deadlines |
//! | [`fault`] | [`FaultChannel`]: deterministic, seeded fault injection (delays, corruption, partial writes, disconnects, read stalls) for chaos testing |
//! | [`wire`] | Framed protocol messages: header, input labels, base-OT flow, table chunks, outputs |
//! | [`session`] | One garbler loop and one evaluator loop behind the [`run_garbler`] / [`run_evaluator`] drivers and their resumable and banked variants, [`SessionConfig`], [`SessionReport`] (bytes, frames, peak live wires, AES work, gates/s) |
//!
//! The cryptography lives in `haac-gc` ([`StreamingGarbler`] /
//! [`StreamingEvaluator`] and the Chou–Orlandi-style base OT); this crate
//! owns transports, framing, and the end-to-end choreography.
//!
//! # Quickstart (in-process)
//!
//! ```
//! use haac_circuit::Builder;
//! use haac_runtime::{run_local_session, SessionConfig};
//!
//! // Millionaires' problem: is Alice richer than Bob?
//! let mut b = Builder::new();
//! let alice = b.input_garbler(32);
//! let bob = b.input_evaluator(32);
//! let alice_richer = b.gt_u(&alice, &bob);
//! let circuit = b.finish(vec![alice_richer]).unwrap();
//!
//! let (report, _) = run_local_session(
//!     &circuit,
//!     &haac_circuit::to_bits(5_000_000, 32),
//!     &haac_circuit::to_bits(3_141_592, 32),
//!     42,
//!     &SessionConfig::for_circuit(&circuit),
//! )
//! .unwrap();
//! assert_eq!(report.outputs, vec![true]);
//! assert!(report.within_window);
//! ```
//!
//! # Over TCP
//!
//! Each party runs the same code with a [`TcpChannel`] instead (see
//! `examples/two_party_tcp.rs` in the workspace root for a runnable
//! version):
//!
//! ```no_run
//! # use haac_circuit::Builder;
//! # use haac_runtime::{run_evaluator, run_garbler, SessionConfig, TcpChannel};
//! # use rand::{rngs::StdRng, SeedableRng};
//! # let mut b = Builder::new();
//! # let x = b.input_garbler(1); let y = b.input_evaluator(1);
//! # let o = b.and(x[0], y[0]);
//! # let circuit = b.finish(vec![o]).unwrap();
//! # let garbler_bits = vec![true]; let evaluator_bits = vec![true];
//! // Garbler process:
//! let mut channel = TcpChannel::connect("127.0.0.1:7700").unwrap();
//! let mut rng = StdRng::seed_from_u64(1);
//! let config = SessionConfig::for_circuit(&circuit);
//! let report = run_garbler(&circuit, &garbler_bits, &mut rng, &config, &mut channel).unwrap();
//!
//! // Evaluator process (elsewhere):
//! // let listener = std::net::TcpListener::bind("0.0.0.0:7700").unwrap();
//! // let (stream, _) = listener.accept().unwrap();
//! // let mut channel = TcpChannel::from_stream(stream).unwrap();
//! // let report = run_evaluator(&circuit, &evaluator_bits, &mut rng, &mut channel).unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod channel;
mod error;
pub mod fault;
pub mod session;
pub mod wire;

pub use channel::{Channel, ChannelStats, MemChannel, TcpChannel, DEFAULT_MEM_CHANNEL_CAPACITY};
pub use error::{RuntimeError, SessionPhase};
pub use fault::{FaultChannel, FaultDelay, FaultSpec};
pub use session::{
    run_evaluator, run_evaluator_resumable, run_evaluator_with, run_garbler, run_garbler_banked,
    run_garbler_resumable, run_local_session, run_tcp_session, GarblerSource, SessionConfig,
    SessionDeadlines, SessionReport, SessionRole, SessionTelemetry, DEFAULT_ACK_INTERVAL,
};
pub use wire::OtMode;

// Re-exported so callers can cache lowered plans — and negotiate the
// schedule they were lowered with — without importing haac-core
// directly.
pub use haac_core::lower::{
    lower_for_streaming, lower_with_reorder, lower_with_window, StreamingPlan,
};
pub use haac_core::ReorderKind;

// Re-exported so downstream code can name the streaming primitives and
// the cipher-work counters carried by SessionReport without importing
// haac-gc directly.
pub use haac_gc::{
    BankedGarbler, CryptoCounters, PlanGarbling, StreamingEvaluator, StreamingGarbler,
};
