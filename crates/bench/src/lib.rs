//! # haac-bench — the experiment harness
//!
//! Shared support for the table/figure binaries that regenerate the
//! paper's evaluation (README.md, "Reproducing the paper's
//! evaluation", is the experiment index):
//!
//! - CPU-baseline measurement (garble / evaluate / plaintext) with an
//!   on-disk cache, so the expensive software-GC runs happen once;
//! - workload compilation + simulation plumbing;
//! - result records serialized to `target/haac-results/*.json`, the
//!   machine-readable form of the rows each binary prints.
//!
//! Binaries: `table1` … `table5`, `fig6` … `fig10`. Each prints the
//! paper-shaped rows/series and persists machine-readable results.
//! `HAAC_SCALE=paper` selects the paper's input sizes.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use haac_core::compiler::{compile, CompileStats, LoweredProgram, ReorderKind};
use haac_core::sim::{map_and_simulate, DramKind, HaacConfig, SimReport};
use haac_gc::{evaluate, garble, HashScheme};
use haac_workloads::{build, Scale, Workload, WorkloadKind};
use rand::{rngs::StdRng, SeedableRng};
use serde::{Deserialize, Serialize};

/// CPU-side reference timings for one workload.
#[derive(Debug, Clone, Copy, Serialize, Deserialize, PartialEq)]
pub struct CpuTimes {
    /// Seconds to garble the whole circuit (software half-gates).
    pub garble_s: f64,
    /// Seconds to evaluate the garbled circuit.
    pub evaluate_s: f64,
    /// Seconds for the native plaintext computation.
    pub plaintext_s: f64,
}

/// Where cached results live.
pub fn results_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/haac-results");
    fs::create_dir_all(&dir).expect("results directory is creatable");
    dir
}

fn scale_tag(scale: Scale) -> &'static str {
    match scale {
        Scale::Paper => "paper",
        Scale::Small => "small",
    }
}

/// Measures (or loads from cache) the CPU GC and plaintext baselines for
/// all eight workloads at a scale.
///
/// The paper measures EMP with AES-NI on an i7-10700K; this measures our
/// software GC (`haac_gc::garble`/`evaluate`) on the host. Shapes, not
/// absolutes, carry over (the substitution: our oracle for EMP, this
/// host for the i7).
pub fn cpu_baselines(scale: Scale) -> BTreeMap<String, CpuTimes> {
    let path = results_dir().join(format!("cpu_{}.json", scale_tag(scale)));
    if let Ok(text) = fs::read_to_string(&path) {
        if let Ok(map) = serde_json::from_str(&text) {
            return map;
        }
    }
    let mut map = BTreeMap::new();
    for kind in WorkloadKind::ALL {
        eprintln!("[cpu-baseline] measuring {} ({:?})...", kind.name(), scale);
        let w = build(kind, scale);
        map.insert(kind.name().to_string(), measure_cpu(&w));
    }
    let text = serde_json::to_string_pretty(&map).expect("baselines serialize");
    fs::write(&path, text).expect("baseline cache is writable");
    map
}

/// Times garbling, evaluation, and plaintext for one workload.
pub fn measure_cpu(w: &Workload) -> CpuTimes {
    let mut rng = StdRng::seed_from_u64(0xBE);
    let scheme = HashScheme::Rekeyed;

    let start = Instant::now();
    let garbling = garble(&w.circuit, &mut rng, scheme);
    let garble_s = start.elapsed().as_secs_f64();

    let inputs = garbling.encode_inputs(&w.circuit, &w.garbler_bits, &w.evaluator_bits);
    let start = Instant::now();
    let out_labels = evaluate(&w.circuit, &garbling.garbled.tables, &inputs, scheme);
    let evaluate_s = start.elapsed().as_secs_f64();
    let decoded = haac_gc::decode_outputs(&out_labels, &garbling.garbled.output_decode);
    assert_eq!(decoded, w.expected, "{}: GC must agree with plaintext", w.kind.name());

    // Plaintext is microseconds; loop to a stable measurement.
    let mut iterations = 1u32;
    let plaintext_s = loop {
        let start = Instant::now();
        for _ in 0..iterations {
            let out = w.run_plaintext(&w.garbler_bits, &w.evaluator_bits);
            std::hint::black_box(out);
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed > 0.02 || iterations >= 1 << 20 {
            break elapsed / iterations as f64;
        }
        iterations *= 4;
    };

    CpuTimes { garble_s, evaluate_s, plaintext_s }
}

/// Compiles a workload circuit and runs the two-pass simulation.
pub fn compile_and_simulate(
    w: &Workload,
    kind: ReorderKind,
    config: &HaacConfig,
) -> (CompileStats, SimReport) {
    let (lowered, stats) = compile(&w.circuit, kind, config.window());
    let report = map_and_simulate(&lowered, config);
    (stats, report)
}

/// Compile only (for traffic tables that need no timing).
pub fn compile_only(
    w: &Workload,
    kind: ReorderKind,
    config: &HaacConfig,
) -> (LoweredProgram, CompileStats) {
    compile(&w.circuit, kind, config.window())
}

/// Runs segment and full reordering, returning
/// `(best kind, its stats, its report)` by simulated cycles — the
/// paper's deployment rule for the DDR4 results of Fig. 8/10.
pub fn best_of_reorders(
    w: &Workload,
    config: &HaacConfig,
) -> (ReorderKind, CompileStats, SimReport) {
    let mut best: Option<(ReorderKind, CompileStats, SimReport)> = None;
    for kind in [ReorderKind::Segment, ReorderKind::Full] {
        let (stats, report) = compile_and_simulate(w, kind, config);
        let better = match &best {
            Some((_, _, b)) => report.cycles < b.cycles,
            None => true,
        };
        if better {
            best = Some((kind, stats, report));
        }
    }
    best.expect("two strategies simulated")
}

/// Persists a JSON result blob under `target/haac-results/`.
pub fn save_result(name: &str, scale: Scale, value: &impl Serialize) {
    let path = results_dir().join(format!("{name}_{}.json", scale_tag(scale)));
    let text = serde_json::to_string_pretty(value).expect("results serialize");
    fs::write(&path, text).expect("results directory is writable");
    eprintln!("[saved] {}", path.display());
}

/// Geometric mean of a non-empty slice.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The paper's headline configuration (16 GEs, 2 MB SWW, 4 banks/GE).
pub fn paper_config(dram: DramKind) -> HaacConfig {
    HaacConfig { dram, ..HaacConfig::default() }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
        assert!((geomean(&[8.0]) - 8.0).abs() < 1e-12);
        assert!(geomean(&[]).is_nan());
    }

    #[test]
    fn measure_cpu_agrees_with_plaintext() {
        let w = build(WorkloadKind::Relu, Scale::Small);
        let times = measure_cpu(&w);
        assert!(times.garble_s > 0.0);
        assert!(times.evaluate_s > 0.0);
        assert!(times.plaintext_s > 0.0);
    }

    #[test]
    fn best_of_reorders_returns_min_cycles() {
        let w = build(WorkloadKind::MatMult, Scale::Small);
        let config = HaacConfig { num_ges: 2, sww_bytes: 4096, ..HaacConfig::default() };
        let (_, _, best) = best_of_reorders(&w, &config);
        for kind in [ReorderKind::Segment, ReorderKind::Full] {
            let (_, report) = compile_and_simulate(&w, kind, &config);
            assert!(best.cycles <= report.cycles);
        }
    }
}
