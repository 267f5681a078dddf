//! # haac — a full reproduction of the HAAC garbled-circuits accelerator
//!
//! *HAAC: A Hardware-Software Co-Design to Accelerate Garbled Circuits*
//! (Jianqiao Mo, Jayanth Gopinath, Brandon Reagen — ISCA 2023) proposes
//! a compiler + ISA + accelerator that together speed garbled-circuit
//! evaluation by 589× over a CPU with DDR4 (2,627× with HBM2) in
//! 4.3 mm². This workspace rebuilds the complete system in Rust:
//!
//! | Crate | Contents |
//! |-------|----------|
//! | [`circuit`] | Boolean circuit IR, synthesis frontend (EMP equivalent), Bristol I/O, AES/FP32 generators |
//! | [`gc`] | Half-gate garbling with FreeXOR and re-keyed hashing: the `garble`/`evaluate` oracle (the "CPU GC" baseline), slab-backed streaming executors, pooled wave scheduler, base OT + extension |
//! | [`runtime`] | Streaming two-party execution: pluggable channels (in-memory, TCP), framed table streaming, sessions |
//! | [`server`] | Multi-session garbling service: concurrent evaluator connections multiplexed over a shared gate-engine pool, with a circuit cache and session registry |
//! | [`workloads`] | The eight VIP-Bench workloads + Table 5 microbenchmarks |
//! | [`core`] | The HAAC ISA, optimizing compiler, cycle-level simulator, area/power/energy model |
//!
//! See `README.md` for a tour: its "Crate map" is the system
//! inventory, and "Reproducing the paper's evaluation" and
//! "Performance" hold the paper-vs-measured results. The `haac-bench`
//! crate's one `paper` binary regenerates every table and figure of the
//! paper's evaluation, and `paper check` holds the clock-free columns
//! to checked-in reference rows.
//!
//! # Quickstart
//!
//! ```
//! use haac::prelude::*;
//!
//! // 1. Write a private function as a circuit (millionaires' problem).
//! let mut b = Builder::new();
//! let alice = b.input_garbler(32);
//! let bob = b.input_evaluator(32);
//! let alice_richer = b.gt_u(&alice, &bob);
//! let circuit = b.finish(vec![alice_richer]).unwrap();
//!
//! // 2. Run it as a real two-party GC protocol: a streaming session over
//! //    paired in-process channels (swap in a TcpChannel for the network).
//! let config = SessionConfig::for_circuit(&circuit);
//! let (run, _) = run_local_session(
//!     &circuit, &to_bits(5_000_000, 32), &to_bits(3_141_592, 32), 42, &config,
//! ).unwrap();
//! assert_eq!(run.outputs, vec![true]);
//!
//! // 3. Compile it for HAAC and simulate the accelerator.
//! let config = HaacConfig::default(); // 16 GEs, 2 MB SWW, DDR4
//! let (lowered, _) = compile(&circuit, ReorderKind::Full, config.window());
//! let report = map_and_simulate(&lowered, &config);
//! assert!(report.cycles > 0);
//! ```

#![warn(missing_docs)]

pub use haac_circuit as circuit;
pub use haac_core as core;
pub use haac_gc as gc;
pub use haac_runtime as runtime;
pub use haac_server as server;
pub use haac_workloads as workloads;

/// The most common imports in one place.
pub mod prelude {
    pub use haac_circuit::{from_bits, to_bits, Bit, Builder, Circuit, GateOp, Word};
    pub use haac_core::compiler::{compile, CompileStats, ReorderKind};
    pub use haac_core::exec::run_gc_through_streams;
    pub use haac_core::lower::{
        lower_for_streaming, lower_with_reorder, lower_with_window, StreamingPlan,
    };
    pub use haac_core::sim::{map_and_simulate, DramKind, HaacConfig, Role, SimReport};
    pub use haac_core::WindowModel;
    pub use haac_gc::{
        decode_outputs, evaluate, garble, HashScheme, StreamingEvaluator, StreamingGarbler,
    };
    pub use haac_runtime::{
        run_evaluator, run_garbler, run_local_session, run_tcp_session, Channel, MemChannel,
        SessionConfig, SessionReport, TcpChannel,
    };
    pub use haac_server::{Server, ServerConfig, ServerReport, SessionRequest};
    pub use haac_workloads::{build as build_workload, Scale, WorkloadKind};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_exposes_a_working_pipeline() {
        let w = build_workload(WorkloadKind::DotProduct, Scale::Small);
        let config = HaacConfig { num_ges: 2, sww_bytes: 4096, ..HaacConfig::default() };
        let (lowered, _) = compile(&w.circuit, ReorderKind::Segment, config.window());
        let report = map_and_simulate(&lowered, &config);
        assert!(report.seconds > 0.0);
    }
}
