//! # haac-server — a multi-session garbling service
//!
//! The paper's throughput story is many deeply pipelined gate engines
//! kept busy at once (§3.2, §6); the ROADMAP's north star is a service
//! under heavy concurrent traffic. This crate connects the two: a
//! long-lived server that accepts many concurrent evaluator
//! connections (TCP or in-memory), multiplexes every session onto one
//! shared, bounded [`EnginePool`](haac_gc::EnginePool) — no per-session
//! threads — and amortizes circuit synthesis and window sizing across
//! requests through a [`CircuitCache`], the deployment model of
//! reusable-GC and MPC-as-a-service systems (CRGC, HACCLE).
//!
//! | Layer | Contents |
//! |-------|----------|
//! | [`request`] | The service handshake: [`SessionRequest`] (workload, scale, an optional pinned [`ReorderKind`](haac_runtime::ReorderKind), seed); the ack advertises the schedule the server chose |
//! | [`cache`] | [`CircuitCache`]: build/compile once per `(workload, scale, reorder)`, share via `Arc`, hit/miss latency split |
//! | [`bank`] | [`InstanceBank`]: bounded take-only shelves of pre-garbled instances (strictly one-time-use); a background producer restocks them from idle engine capacity, and sessions that hit stream stored tables instead of computing |
//! | [`registry`] | [`SessionRegistry`], per-session [`SessionOutcome`]s, aggregate [`ServerReport`] (p50/p99, aggregate gates/s) |
//! | [`metrics`] | [`ServerMetrics`]: the live admin plane — lock-free instruments, per-workload stage histograms, Prometheus text snapshots |
//! | [`resume`] | [`ResumeStore`]: the bounded, TTL-evicting suspended-session store behind mid-stream reconnects, plus the [`TicketForge`] issuing opaque resume tickets |
//! | [`server`] | [`Server`]: accept loops, pooled session jobs, per-session error isolation, [`choose_reorder`] policy, graceful shutdown |
//! | [`client`] | Evaluator-side drivers for tests and `benchmark/`'s closed-loop clients |
//!
//! # Example: four engines, many concurrent sessions
//!
//! ```
//! use haac_server::{client, Server, ServerConfig, SessionRequest};
//! use haac_workloads::Scale;
//!
//! let server = Server::new(ServerConfig { workers: 2, ..ServerConfig::default() });
//! // Two concurrent in-memory clients (real deployments use TCP).
//! let handles: Vec<_> = ["DotProd", "Hamm"]
//!     .into_iter()
//!     .enumerate()
//!     .map(|(i, name)| {
//!         let mut channel = server.connect();
//!         let request = SessionRequest::new(name, Scale::Small, i as u64);
//!         std::thread::spawn(move || client::run_session(&mut channel, &request).unwrap())
//!     })
//!     .collect();
//! for handle in handles {
//!     handle.join().unwrap();
//! }
//! let report = server.shutdown();
//! assert_eq!(report.completed, 2);
//! assert_eq!(report.active, 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bank;
pub mod cache;
pub mod client;
pub mod metrics;
pub mod registry;
pub mod request;
pub mod resume;
pub mod server;

pub use bank::{BankKey, InstanceBank};
pub use cache::{CachedWorkload, CircuitCache};
pub use metrics::{RefusalReason, ServerMetrics};
pub use registry::{ServerReport, SessionId, SessionOutcome, SessionRegistry, WorkloadLabel};
pub use request::{SessionHello, SessionRequest};
pub use resume::{ResumeHandoff, ResumeStore, ResumeWait, TicketForge};
pub use server::{choose_ot_mode, choose_reorder, Server, ServerConfig};
