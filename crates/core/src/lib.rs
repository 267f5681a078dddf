//! # haac-core — the HAAC accelerator: compiler, simulator, model
//!
//! The primary contribution of *HAAC: A Hardware-Software Co-Design to
//! Accelerate Garbled Circuits* (Mo, Gopinath & Reagen, ISCA 2023),
//! rebuilt as a library. There is one compiled program, `haac-gc`'s
//! renamed [`SlotProgram`](haac_gc::SlotProgram): the simulator reads it
//! as the hardware's instruction stream, the slab executors run it.
//!
//! - [`compiler`]: the paper's optimizations — full and segment
//!   **reordering**, **renaming**, and far-read routing under the
//!   half-sliding SWW, from which **eliminating spent wires** follows —
//!   turning all off-chip traffic into compiler-known streams.
//! - [`window`]: the sliding-wire-window address discipline shared by
//!   every layer.
//! - [`lower`]: [`lower_for_streaming`] — the same schedule and renaming
//!   under the slab's ring window, producing the cached
//!   [`StreamingPlan`] sessions serve — and [`run_gc_through_streams`],
//!   which runs any plan through both executors.
//! - [`sim`]: the cycle-level simulator (gate-engine pipelines, banked
//!   SWW, queues, streaming DRAM, the §3.1.3 instruction encoding) in
//!   the paper's two-pass mapping-then-replay methodology.
//! - [`model`]: Table 4's area/power arithmetic and Fig. 9's energy
//!   accounting.
//!
//! # Examples
//!
//! Compile and simulate a circuit on the paper's 16-GE / 2 MB / DDR4
//! configuration:
//!
//! ```
//! use haac_circuit::Builder;
//! use haac_core::{compiler, sim};
//!
//! let mut b = Builder::new();
//! let x = b.input_garbler(32);
//! let y = b.input_evaluator(32);
//! let p = b.mul_words_trunc(&x, &y);
//! let circuit = b.finish(p).unwrap();
//!
//! let config = sim::HaacConfig::default();
//! let (plan, stats) = compiler::compile(
//!     &circuit,
//!     compiler::ReorderKind::Full,
//!     config.window(),
//! );
//! let report = sim::map_and_simulate(&plan, &config);
//! assert!(report.cycles > 0);
//! assert_eq!(report.and_count as usize, stats.and_count);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod compiler;
pub mod lower;
pub mod model;
pub mod sim;
pub mod window;

pub use compiler::{compile, ReorderKind};
pub use lower::{
    lower_for_streaming, lower_live, lower_with_reorder, lower_with_window, run_gc_through_streams,
    StreamingPlan,
};
pub use sim::{DramKind, HaacConfig, Role, SimReport};
pub use window::WindowModel;

/// Picks the better of segment/full reordering for a circuit by
/// simulated cycles — the paper's §6.2 deployment rule ("we can run both
/// and deploy the best performing optimization, as performance is
/// deterministic").
pub fn best_reorder(
    circuit: &haac_circuit::Circuit,
    config: &sim::HaacConfig,
) -> (ReorderKind, SimReport) {
    let window = config.window();
    let mut best: Option<(ReorderKind, SimReport)> = None;
    for kind in [ReorderKind::Segment, ReorderKind::Full] {
        let (plan, _) = compiler::compile(circuit, kind, window);
        let report = sim::map_and_simulate(&plan, config);
        let better = match &best {
            Some((_, b)) => report.cycles < b.cycles,
            None => true,
        };
        if better {
            best = Some((kind, report));
        }
    }
    best.expect("at least one strategy was simulated")
}

#[cfg(test)]
mod tests {
    use super::*;
    use haac_circuit::Builder;

    #[test]
    fn best_reorder_returns_the_faster_strategy() {
        let mut b = Builder::new();
        let x = b.input_garbler(64);
        let y = b.input_evaluator(64);
        let p = b.mul_words_trunc(&x, &y);
        let c = b.finish(p).unwrap();
        let config = HaacConfig { num_ges: 4, sww_bytes: 8192, ..HaacConfig::default() };
        let (kind, report) = best_reorder(&c, &config);
        // Verify it is indeed no worse than the other option.
        let other = match kind {
            ReorderKind::Full => ReorderKind::Segment,
            _ => ReorderKind::Full,
        };
        let (plan, _) = compiler::compile(&c, other, config.window());
        let other_report = sim::map_and_simulate(&plan, &config);
        assert!(report.cycles <= other_report.cycles);
    }
}
