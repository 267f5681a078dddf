//! The four workloads, and the contract file they are declared in.
//!
//! GC is data-oblivious: input values do not change the work. What the
//! workloads vary is what the serving stack's behaviour depends on —
//! circuit size, evaluator-input count (which picks the OT mode), table
//! volume, concurrency, and whether the pre-garbled bank is on. Each set
//! has an odd number of kinds, so the median session falls inside one
//! kind's latency cluster and not between two.

use haac_workloads::{Scale, WorkloadKind};
use serde::{Deserialize, Serialize};

/// Gate-engine workers of the in-process server, on every workload.
pub const WORKERS: usize = 2;
/// Discarded lead-in before the measured window: caches are filled in
/// set-up, this lets the allocator, the TCP stack and the bank producer
/// reach their steady state.
pub const WARMUP_S: f64 = 3.0;

#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Closed-loop evaluator threads, each with its own connection per
    /// session. Never more than the machine has cores.
    pub clients: usize,
    pub kinds: &'static [WorkloadKind],
    pub scale: Scale,
    /// Pre-garbled instances kept per kind; 0 turns the bank off.
    pub bank_capacity: usize,
}

const MEDIUM: &[WorkloadKind] = &[
    WorkloadKind::BubbleSort,
    WorkloadKind::DotProduct,
    WorkloadKind::Mersenne,
    WorkloadKind::MatMult,
    WorkloadKind::GradDesc,
];

pub const SPECS: [Spec; 4] = [
    // Fixed per-session cost dominates: connect, handshake, OT and the
    // output tail. Two connections contend for the accept loop, the
    // pool queue and the registry and metrics locks.
    Spec {
        name: "small_online",
        clients: 2,
        kinds: &[WorkloadKind::Relu, WorkloadKind::Hamming, WorkloadKind::Triangle],
        scale: Scale::Small,
        bank_capacity: 0,
    },
    // Millisecond sessions where garbling and evaluation are most of
    // the wall; the bank-off twin of `medium_banked`.
    Spec {
        name: "medium_online",
        clients: 1,
        kinds: MEDIUM,
        scale: Scale::Small,
        bank_capacity: 0,
    },
    // One client, so `active_jobs < engines` and the bank producer is
    // allowed to run; with two zero-think-time clients it starves and
    // the workload degenerates into its twin.
    Spec {
        name: "medium_banked",
        clients: 1,
        kinds: MEDIUM,
        scale: Scale::Small,
        bank_capacity: 16,
    },
    // Stream-bound: 17 MB of tables per session, multi-MB buffers,
    // kernel time; fixed costs are a few percent.
    Spec {
        name: "long_stream",
        clients: 1,
        kinds: &[WorkloadKind::MatMult],
        scale: Scale::Paper,
        bank_capacity: 0,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|spec| spec.name == name)
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Deserialize)]
pub struct EndToEndDecl {
    pub name: String,
    pub unit: String,
    pub better: String,
    /// The share of the parent's median by which the metric may get
    /// worse before a change counts as a regression.
    pub bound: f64,
}

impl EndToEndDecl {
    pub fn higher_is_better(&self) -> bool {
        self.better == "higher"
    }
}

/// One per-layer metric as `BENCHMARK.json` declares it (no bound).
#[derive(Debug, Clone, Deserialize)]
pub struct LayerDecl {
    pub name: String,
    pub unit: String,
}

#[derive(Debug, Clone, Deserialize)]
pub struct WorkloadDecl {
    pub name: String,
    pub why: String,
}

/// `BENCHMARK.json`, compiled in: the binary and the contract file can
/// not drift apart without a test failing.
#[derive(Debug, Clone, Deserialize)]
pub struct Contract {
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadDecl>,
    pub end_to_end: Vec<EndToEndDecl>,
    pub per_layer: Vec<LayerDecl>,
}

impl Contract {
    pub fn load() -> Contract {
        serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses and has the contract's keys")
    }
}

/// A metric as measured. Serialized as the contract's
/// `{"value": .., "unit": ..}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Measured {
    pub value: f64,
    pub unit: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_declares_exactly_the_workloads_the_binary_runs() {
        let contract = Contract::load();
        let declared: Vec<&str> = contract.workloads.iter().map(|w| w.name.as_str()).collect();
        let built: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        assert_eq!(declared, built);
        for workload in &contract.workloads {
            assert!(workload.why.len() <= 200 && !workload.why.contains('\n'), "{}", workload.name);
        }
    }

    #[test]
    fn no_workload_drives_more_clients_than_declared_and_sets_are_odd() {
        for spec in &SPECS {
            assert!(spec.clients <= 2, "{}: the reference box has 2 cores", spec.name);
            assert_eq!(spec.kinds.len() % 2, 1, "{}: odd kind count", spec.name);
        }
    }

    #[test]
    fn bounds_are_within_the_contract() {
        let contract = Contract::load();
        assert!((1..=60).contains(&contract.run_seconds));
        for metric in &contract.end_to_end {
            assert!(metric.bound > 0.0 && metric.bound <= 0.25, "{}", metric.name);
            assert!(matches!(metric.better.as_str(), "higher" | "lower"), "{}", metric.name);
        }
        let setup = contract.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    }
}
