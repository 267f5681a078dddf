//! # haac-bench — the paper-evaluation harness
//!
//! Shared support for the one `paper` binary that regenerates the
//! paper's evaluation (README.md, "Reproducing the paper's
//! evaluation", is the experiment index):
//!
//! - CPU-baseline measurement (garble / evaluate / plaintext) with an
//!   on-disk cache, so the expensive software-GC runs happen once;
//! - workload compilation + simulation plumbing;
//! - [`Table`]: the rows of one exhibit, printed by one printer,
//!   persisted to `target/haac-results/*.json` by [`save_result`], and
//!   compared against the checked-in `reference/*.json` by
//!   [`Table::diff`] (`paper check`).
//!
//! Nothing here times the serving stack: rates and latencies are
//! `benchmark/`'s job. `HAAC_SCALE=paper` selects the paper's input
//! sizes.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use haac_core::compiler::{compile, CompileStats, ReorderKind};
use haac_core::sim::{map_and_simulate, DramKind, HaacConfig, SimReport};
use haac_gc::{evaluate, garble, HashScheme};
use haac_workloads::{build, Scale, Workload, WorkloadKind};
use rand::{rngs::StdRng, SeedableRng};
use serde::{Deserialize, Serialize};
use serde_json::Value;

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

/// The scale's file-name tag: `small` or `paper`.
pub fn scale_tag(scale: Scale) -> &'static str {
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
    let (plan, stats) = compile(&w.circuit, kind, config.window());
    let report = map_and_simulate(&plan, config);
    (stats, report)
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

/// One value of an exhibit row.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A label (benchmark name, schedule, …): compared exactly.
    Text(String),
    /// A count the compiler or simulator produced: compared exactly.
    Int(u64),
    /// A derived quantity: compared to 1e-9 relative.
    Float(f64),
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Text(s) => f.write_str(s),
            Cell::Int(n) => write!(f, "{n}"),
            Cell::Float(x) => write!(f, "{x}"),
        }
    }
}

impl From<&str> for Cell {
    fn from(s: &str) -> Cell {
        Cell::Text(s.to_string())
    }
}

impl From<String> for Cell {
    fn from(s: String) -> Cell {
        Cell::Text(s)
    }
}

impl From<u64> for Cell {
    fn from(n: u64) -> Cell {
        Cell::Int(n)
    }
}

impl From<u32> for Cell {
    fn from(n: u32) -> Cell {
        Cell::Int(n.into())
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Cell {
        Cell::Int(n as u64)
    }
}

impl From<f64> for Cell {
    fn from(x: f64) -> Cell {
        Cell::Float(x)
    }
}

/// How one column of a [`Table`] is named, printed and checked.
#[derive(Debug)]
pub struct Column {
    key: &'static str,
    head: &'static str,
    width: usize,
    precision: usize,
    suffix: &'static str,
    clocked: bool,
}

/// A column saved under `key` and printed under `head`, `width`
/// characters wide.
pub fn col(key: &'static str, head: &'static str, width: usize) -> Column {
    Column { key, head, width, precision: 0, suffix: "", clocked: false }
}

impl Column {
    /// Decimals printed for [`Cell::Float`] values.
    pub fn precision(self, precision: usize) -> Column {
        Column { precision, ..self }
    }

    /// Unit printed after each value (`×`, `%`).
    pub fn suffix(self, suffix: &'static str) -> Column {
        Column { suffix, ..self }
    }

    /// Marks a column that divides by a host-measured CPU time:
    /// [`Table::diff`] skips it.
    pub fn clocked(self) -> Column {
        Column { clocked: true, ..self }
    }

    fn format(&self, cell: &Cell) -> String {
        match cell {
            Cell::Float(x) => format!("{x:.p$}{}", self.suffix, p = self.precision),
            exact => format!("{exact}{}", self.suffix),
        }
    }
}

/// One exhibit: its rows, the summary lines under them, and the
/// paper-shape relations it claims with whether each held in this run.
#[derive(Debug)]
pub struct Table {
    title: String,
    columns: Vec<Column>,
    rows: Vec<Vec<Cell>>,
    notes: Vec<String>,
    claims: Vec<(String, bool)>,
}

impl Table {
    /// An empty table.
    pub fn new(title: impl Into<String>, columns: Vec<Column>) -> Table {
        Table {
            title: title.into(),
            columns,
            rows: Vec::new(),
            notes: Vec::new(),
            claims: Vec::new(),
        }
    }

    /// Appends a row; one cell per column.
    pub fn row(&mut self, cells: Vec<Cell>) {
        assert_eq!(cells.len(), self.columns.len(), "{}: one cell per column", self.title);
        self.rows.push(cells);
    }

    /// Appends a summary line printed under the rows.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Records a relation the exhibit's paper counterpart shows and
    /// whether this run's numbers satisfy it.
    pub fn claim(&mut self, text: impl Into<String>, holds: bool) {
        self.claims.push((text.into(), holds));
    }

    /// The claims that did not hold.
    pub fn broken_claims(&self) -> impl Iterator<Item = &str> {
        self.claims.iter().filter(|(_, holds)| !holds).map(|(text, _)| text.as_str())
    }

    /// Prints title, header, rows, notes and claims.
    pub fn print(&self) {
        println!("{}", self.title);
        // Text columns are left-aligned, numbers right-aligned; a
        // heading follows the cells under it.
        let text = |i: usize| matches!(self.rows.first().map(|r| &r[i]), Some(Cell::Text(_)));
        let line = |cells: Vec<String>| {
            let padded = cells.iter().zip(&self.columns).enumerate().map(|(i, (cell, c))| {
                let w = c.width;
                if text(i) {
                    format!("{cell:<w$}")
                } else {
                    format!("{cell:>w$}")
                }
            });
            println!("{}", padded.collect::<Vec<_>>().join(" ").trim_end());
        };
        line(self.columns.iter().map(|c| c.head.to_string()).collect());
        for row in &self.rows {
            line(row.iter().zip(&self.columns).map(|(cell, c)| c.format(cell)).collect());
        }
        for note in &self.notes {
            println!("{note}");
        }
        for (text, holds) in &self.claims {
            println!("[{}] {text}", if *holds { "holds" } else { "FAILS" });
        }
    }

    /// The rows as the JSON array [`save_result`] persists: one object
    /// per row, keyed by column.
    pub fn to_json(&self) -> Value {
        let object = |row: &Vec<Cell>| {
            let fields = row.iter().zip(&self.columns).map(|(cell, c)| {
                let value = match cell {
                    Cell::Text(s) => Value::String(s.clone()),
                    Cell::Int(n) => Value::Number(*n as f64),
                    Cell::Float(x) => Value::Number(*x),
                };
                (c.key.to_string(), value)
            });
            Value::Object(fields.collect())
        };
        Value::Array(self.rows.iter().map(object).collect())
    }

    /// Compares every column not marked [`Column::clocked`] against
    /// `reference` (rows in the shape [`Table::to_json`] writes):
    /// text and integers exactly, floats to 1e-9 relative. Returns one
    /// line per mismatch.
    pub fn diff(&self, reference: &Value) -> Vec<String> {
        let Value::Array(expected) = reference else {
            return vec!["reference is not a JSON array of rows".to_string()];
        };
        if expected.len() != self.rows.len() {
            return vec![format!("{} rows, reference has {}", self.rows.len(), expected.len())];
        }
        let mut mismatches = Vec::new();
        for (i, (row, want)) in self.rows.iter().zip(expected).enumerate() {
            for (cell, c) in row.iter().zip(&self.columns).filter(|(_, c)| !c.clocked) {
                let want = want.get(c.key);
                let same = match cell {
                    Cell::Text(s) => want.and_then(Value::as_str) == Some(s),
                    Cell::Int(n) => want.and_then(Value::as_f64) == Some(*n as f64),
                    Cell::Float(x) => want
                        .and_then(Value::as_f64)
                        .is_some_and(|w| (x - w).abs() <= 1e-9 * x.abs().max(w.abs())),
                };
                if !same {
                    let want = want.map_or("nothing".to_string(), |v| {
                        serde_json::to_string(v).expect("values serialize")
                    });
                    mismatches.push(format!("row {i} {}: {cell}, reference has {want}", c.key));
                }
            }
        }
        mismatches
    }
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
    fn diff_is_exact_on_counts_tolerant_on_floats_and_blind_to_clocked_columns() {
        let table = |cycles: u64, ms: f64, speedup: f64| {
            let columns = vec![
                col("bench", "Benchmark", 10),
                col("cycles", "Cycles", 8),
                col("ms", "ms", 8).precision(3),
                col("speedup", "Speedup", 8).suffix("×").clocked(),
            ];
            let mut t = Table::new("t", columns);
            t.row(vec!["ReLU".into(), cycles.into(), ms.into(), speedup.into()]);
            t
        };
        let reference = table(526, 0.25, 36.0).to_json();
        let saved = serde_json::to_string_pretty(&reference).unwrap();
        assert_eq!(reference, serde_json::from_str::<Value>(&saved).unwrap());

        assert!(table(526, 0.25, 36.0).diff(&reference).is_empty());
        assert!(table(526, 0.25 * (1.0 + 1e-12), 9.0).diff(&reference).is_empty());
        assert_eq!(table(527, 0.25, 36.0).diff(&reference).len(), 1, "counts are exact");
        assert_eq!(table(526, 0.25 * (1.0 + 1e-6), 36.0).diff(&reference).len(), 1);
        let mut longer = table(526, 0.25, 36.0);
        longer.row(vec!["Hamm".into(), 1u64.into(), 1.0.into(), 1.0.into()]);
        assert_eq!(longer.diff(&reference).len(), 1, "a row count mismatch is one finding");
        assert_eq!(table(526, 0.25, 36.0).diff(&Value::Null).len(), 1);
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
