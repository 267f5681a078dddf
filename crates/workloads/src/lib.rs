//! # haac-workloads — VIP-Bench and microbenchmark circuit generators
//!
//! Rust reimplementations of the eight VIP-Bench workloads the paper
//! evaluates (Table 2) plus the prior-work microbenchmarks of Table 5.
//! Every workload provides:
//!
//! - a **circuit generator** (via `haac-circuit`'s builder),
//! - a deterministic **sample input** split between garbler/evaluator,
//! - an independent **plaintext reference** implementation whose output
//!   the circuit must reproduce bit-for-bit (used for validation and as
//!   the paper's "CPU plaintext" baseline in Fig. 10).
//!
//! Paper-scale parameters follow §5 ("we either use the original data
//! sizes or scale up input sizes"): 128-element 32-bit dot product, 8×8
//! matmul, 40960-bit Hamming distance, 2048 ReLUs, 20 rounds of FP32
//! gradient descent. [`Scale::Small`] provides CI-sized variants.
//!
//! # Examples
//!
//! ```
//! use haac_workloads::{build, Scale, WorkloadKind};
//!
//! let w = build(WorkloadKind::Relu, Scale::Small);
//! let out = w.circuit.eval(&w.garbler_bits, &w.evaluator_bits).unwrap();
//! assert_eq!(out, w.expected);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod bubble_sort;
pub mod dot_product;
pub mod graddesc;
pub mod hamming;
pub mod matmult;
pub mod mersenne;
pub mod micro;
pub mod relu;
pub mod rng;
pub mod triangle;
pub mod two_party;

use haac_circuit::Circuit;

/// Workload sizing: the paper's evaluation scale or a CI-friendly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scale {
    /// Input sizes from the paper's §5 (millions of gates).
    Paper,
    /// Small variants with identical structure (thousands of gates).
    #[default]
    Small,
}

impl Scale {
    /// Parses a scale from the `HAAC_SCALE` environment variable
    /// (`paper` or `small`; anything else defaults to `Small`).
    pub fn from_env() -> Scale {
        match std::env::var("HAAC_SCALE").as_deref() {
            Ok("paper") | Ok("PAPER") => Scale::Paper,
            _ => Scale::Small,
        }
    }
}

/// The eight VIP-Bench workloads of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadKind {
    /// Bubble sort of 32-bit integers (`BubbSt`).
    BubbleSort,
    /// 128-element 32-bit dot product (`DotProd`).
    DotProduct,
    /// Mersenne-Twister generation with modular reduction (`Merse`).
    Mersenne,
    /// Graph triangle counting via trace(A³) (`Triangle`).
    Triangle,
    /// Hamming distance over long bit-strings (`Hamm`).
    Hamming,
    /// Dense integer matrix multiplication (`MatMult`).
    MatMult,
    /// Batched 32-bit ReLU (`ReLU`).
    Relu,
    /// FP32 linear-regression gradient descent (`GradDesc`).
    GradDesc,
}

impl WorkloadKind {
    /// All eight VIP workloads, in the paper's table order.
    pub const ALL: [WorkloadKind; 8] = [
        WorkloadKind::BubbleSort,
        WorkloadKind::DotProduct,
        WorkloadKind::Mersenne,
        WorkloadKind::Triangle,
        WorkloadKind::Hamming,
        WorkloadKind::MatMult,
        WorkloadKind::Relu,
        WorkloadKind::GradDesc,
    ];

    /// The paper's abbreviation for this workload.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadKind::BubbleSort => "BubbSt",
            WorkloadKind::DotProduct => "DotProd",
            WorkloadKind::Mersenne => "Merse",
            WorkloadKind::Triangle => "Triangle",
            WorkloadKind::Hamming => "Hamm",
            WorkloadKind::MatMult => "MatMult",
            WorkloadKind::Relu => "ReLU",
            WorkloadKind::GradDesc => "GradDesc",
        }
    }

    /// Looks a workload up by its paper abbreviation (case-insensitive).
    pub fn from_name(name: &str) -> Option<WorkloadKind> {
        WorkloadKind::ALL.iter().copied().find(|k| k.name().eq_ignore_ascii_case(name))
    }
}

/// A fully materialized workload: circuit + sample inputs + reference
/// output.
#[derive(Debug)]
pub struct Workload {
    /// Which VIP benchmark this is.
    pub kind: WorkloadKind,
    /// The scale it was built at.
    pub scale: Scale,
    /// The synthesized circuit.
    pub circuit: Circuit,
    /// Sample garbler (Alice) input bits.
    pub garbler_bits: Vec<bool>,
    /// Sample evaluator (Bob) input bits.
    pub evaluator_bits: Vec<bool>,
    /// Reference output bits, computed by an independent plaintext
    /// implementation (not by evaluating the circuit).
    pub expected: Vec<bool>,
}

impl Workload {
    /// Re-runs the plaintext reference on arbitrary inputs (used for
    /// plaintext-baseline timing in Fig. 10).
    pub fn run_plaintext(&self, garbler_bits: &[bool], evaluator_bits: &[bool]) -> Vec<bool> {
        run_plaintext(self.kind, self.scale, garbler_bits, evaluator_bits)
    }
}

/// Builds a workload at the given scale.
pub fn build(kind: WorkloadKind, scale: Scale) -> Workload {
    match kind {
        WorkloadKind::BubbleSort => bubble_sort::build(scale),
        WorkloadKind::DotProduct => dot_product::build(scale),
        WorkloadKind::Mersenne => mersenne::build(scale),
        WorkloadKind::Triangle => triangle::build(scale),
        WorkloadKind::Hamming => hamming::build(scale),
        WorkloadKind::MatMult => matmult::build(scale),
        WorkloadKind::Relu => relu::build(scale),
        WorkloadKind::GradDesc => graddesc::build(scale),
    }
}

/// Runs the plaintext reference implementation of a workload on encoded
/// inputs.
pub fn run_plaintext(
    kind: WorkloadKind,
    scale: Scale,
    garbler_bits: &[bool],
    evaluator_bits: &[bool],
) -> Vec<bool> {
    match kind {
        WorkloadKind::BubbleSort => bubble_sort::plaintext(scale, garbler_bits, evaluator_bits),
        WorkloadKind::DotProduct => dot_product::plaintext(scale, garbler_bits, evaluator_bits),
        WorkloadKind::Mersenne => mersenne::plaintext(scale, garbler_bits, evaluator_bits),
        WorkloadKind::Triangle => triangle::plaintext(scale, garbler_bits, evaluator_bits),
        WorkloadKind::Hamming => hamming::plaintext(scale, garbler_bits, evaluator_bits),
        WorkloadKind::MatMult => matmult::plaintext(scale, garbler_bits, evaluator_bits),
        WorkloadKind::Relu => relu::plaintext(scale, garbler_bits, evaluator_bits),
        WorkloadKind::GradDesc => graddesc::plaintext(scale, garbler_bits, evaluator_bits),
    }
}

/// Encodes a slice of u32 values as little-endian bits (32 per value).
pub fn u32s_to_bits(values: &[u32]) -> Vec<bool> {
    values.iter().flat_map(|&v| (0..32).map(move |i| (v >> i) & 1 == 1)).collect()
}

/// Decodes little-endian bits into u32 values (32 bits per value).
///
/// # Panics
///
/// Panics if the bit count is not a multiple of 32.
pub fn bits_to_u32s(bits: &[bool]) -> Vec<u32> {
    assert_eq!(bits.len() % 32, 0, "bit count must be a multiple of 32");
    bits.chunks(32)
        .map(|c| c.iter().enumerate().fold(0u32, |acc, (i, &b)| acc | ((b as u32) << i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_bit_roundtrip() {
        let values = [0u32, 1, u32::MAX, 0xDEAD_BEEF];
        assert_eq!(bits_to_u32s(&u32s_to_bits(&values)), values.to_vec());
    }

    #[test]
    fn names_roundtrip() {
        for kind in WorkloadKind::ALL {
            assert_eq!(WorkloadKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(WorkloadKind::from_name("nope"), None);
        assert_eq!(WorkloadKind::from_name("bubbst"), Some(WorkloadKind::BubbleSort));
    }

    #[test]
    fn stored_and_counts_equal_a_recount_for_every_workload() {
        for kind in WorkloadKind::ALL {
            let circuit = build(kind, Scale::Small).circuit;
            let recount = circuit.gates().iter().filter(|g| g.is_and()).count();
            assert!(recount > 0, "{}", kind.name());
            assert_eq!(circuit.num_and_gates(), recount, "{}", kind.name());
        }
    }

    #[test]
    fn scale_default_is_small() {
        assert_eq!(Scale::default(), Scale::Small);
    }
}
