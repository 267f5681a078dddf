//! Observability substrate for the HAAC workspace.
//!
//! HAAC's evaluation argues from per-stage decompositions — per-engine
//! utilization, OoRW queue occupancy, compute/communication overlap
//! (paper §3–§5) — and a serving system needs the same numbers *live*,
//! not only as end-of-session reports. This crate is the hand-rolled
//! measurement layer the rest of the workspace threads through
//! (crates.io is unreachable here, so no `tracing`/`metrics`; like the
//! `vendor/` shims it implements exactly the surface the workspace
//! uses):
//!
//! - [`metrics`]: lock-free instruments — [`Counter`], [`Gauge`],
//!   [`GaugeF`], fixed 64-bucket log2 [`Histogram`] with p50/p99/p999
//!   extraction, and a [`SlidingRate`] window for aggregate gates/s. Every recording is a few relaxed
//!   atomic operations; handles are `Arc`s created once and cached.
//! - [`registry`]: a named, labeled [`Registry`] of those instruments
//!   with a Prometheus-style text snapshot (`name{label="v"} value`
//!   lines) and a [`parse`] helper so tests (and scrapers) can
//!   round-trip it.
//!
//! A process-wide [`enabled`] switch (`HAAC_TELEMETRY=0` or
//! [`set_enabled`]) gates the *optional* span recording callers add
//! around hot paths; the disabled path is one relaxed atomic load.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod metrics;
pub mod registry;

pub use metrics::{Counter, Gauge, GaugeF, Histogram, SlidingRate};
pub use registry::{parse, Registry, Sample};

use std::sync::atomic::{AtomicU8, Ordering};

/// 0 = not yet resolved from the environment, 1 = on, 2 = off.
static ENABLED: AtomicU8 = AtomicU8::new(0);

fn resolve_enabled() -> bool {
    let on =
        !matches!(std::env::var("HAAC_TELEMETRY").as_deref(), Ok("0") | Ok("off") | Ok("false"));
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
    on
}

/// Whether optional span recording is on (the default unless
/// `HAAC_TELEMETRY=0`/`off`/`false` or [`set_enabled`]`(false)`).
/// Steady-state cost: one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match ENABLED.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => resolve_enabled(),
    }
}

/// Overrides the telemetry switch process-wide (benchmarks flip this to
/// measure instrumentation overhead in-process).
pub fn set_enabled(on: bool) {
    ENABLED.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}
