//! `compare <a> <b>`: the regression rule of `BENCHMARK.json`, applied
//! to two result sets.
//!
//! A result set is a JSON Lines file of run records (what `--out`
//! appends to); `a` is the base, usually the parent commit. For every
//! pairing of workload and end-to-end metric the medians of both sides
//! are set against the metric's bound. Where a side's run-to-run spread
//! (interquartile range over median) is wider than the bound the medians
//! cannot carry a verdict, and the row reads `unresolved` unless every
//! run of one side beats every run of the other.

use std::path::Path;

use crate::run::Record;
use crate::spec::Contract;
use crate::stats::{median, spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// `setup_s` is tens of milliseconds on the small workloads, where a
/// quarter is a scheduler tick: it regresses only when it is worse by
/// its bound *and* by this much.
const SETUP_FLOOR_S: f64 = 0.1;

/// How `b` stands against the base `a` on one metric.
///
/// `bound` is the share of `a`'s median by which `b`'s may be worse;
/// `floor` an absolute difference below which nothing counts as worse.
/// With a spread wider than the bound on either side the medians decide
/// nothing: the verdict then needs every run of one side to stand on
/// one side of every run of the other.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64, floor: f64) -> Verdict {
    // By how much `x` is worse than `y`.
    let worse_by = |x: f64, y: f64| if higher_is_better { y - x } else { x - y };
    let (base, change) = (median(a), median(b));
    let regressed = worse_by(change, base) > (bound * base.abs()).max(floor);
    let gaps = || b.iter().flat_map(|&x| a.iter().map(move |&y| worse_by(x, y)));
    match (spread(a), spread(b)) {
        (Some(sa), Some(sb)) if sa.max(sb) > bound => {
            if gaps().all(|gap| gap <= floor) {
                Verdict::Ok
            } else if regressed && gaps().all(|gap| gap > 0.0) {
                Verdict::Worse
            } else {
                Verdict::Unresolved
            }
        }
        _ if regressed => Verdict::Worse,
        _ => Verdict::Ok,
    }
}

#[derive(Debug)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub base: f64,
    pub base_runs: usize,
    pub change: f64,
    pub change_runs: usize,
    /// The wider of the two sides' spreads; `None` with single runs.
    pub spread: Option<f64>,
    pub bound: String,
    pub verdict: Verdict,
}

fn values(records: &[&Record], metric: &str) -> Vec<f64> {
    records.iter().filter_map(|r| r.metrics.get(metric).map(|m| m.value)).collect()
}

/// Refuses sets that must not be set side by side.
fn check_comparable(records: &[&Record]) -> Result<(), String> {
    let Some(first) = records.first() else {
        return Err("no end-to-end records to compare".into());
    };
    for record in records {
        let (f, g) = (&first.fingerprint, &record.fingerprint);
        if (f.nproc, &f.aes_backend) != (g.nproc, &g.aes_backend) {
            return Err(format!(
                "refusing to compare nproc {} / {} with nproc {} / {}",
                f.nproc, f.aes_backend, g.nproc, g.aes_backend
            ));
        }
        if g.smoke {
            return Err(format!("a {} record is a --smoke run: not comparable", record.workload));
        }
        if !record.correct {
            return Err(format!("a {} record failed its self-checks", record.workload));
        }
    }
    Ok(())
}

fn of_workload<'r>(set: &[&'r Record], name: &str) -> Vec<&'r Record> {
    set.iter().copied().filter(|r| r.workload == name).collect()
}

/// One row per (workload, metric), in the contract's order; workloads
/// missing from either side are skipped.
pub fn compare(contract: &Contract, a: &[Record], b: &[Record]) -> Result<Vec<Row>, String> {
    // A traced run's record has no end-to-end metrics.
    fn with_metrics(set: &[Record]) -> Vec<&Record> {
        set.iter().filter(|r| !r.metrics.is_empty()).collect()
    }
    let (a, b) = (with_metrics(a), with_metrics(b));
    check_comparable(&a.iter().chain(&b).copied().collect::<Vec<_>>())?;
    let mut rows = Vec::new();
    for workload in &contract.workloads {
        let (a, b) = (of_workload(&a, &workload.name), of_workload(&b, &workload.name));
        if a.is_empty() || b.is_empty() {
            continue;
        }
        let window = a[0].fingerprint.window_s;
        if a.iter().chain(&b).any(|r| r.fingerprint.window_s != window) {
            return Err(format!("{}: runs with different window lengths", workload.name));
        }
        let mut row = |metric: &str, unit: &str, a: &[f64], b: &[f64], bound, verdict| {
            rows.push(Row {
                workload: workload.name.clone(),
                metric: metric.to_string(),
                unit: unit.to_string(),
                base: median(a),
                base_runs: a.len(),
                change: median(b),
                change_runs: b.len(),
                spread: spread(a).zip(spread(b)).map(|(x, y)| x.max(y)),
                bound,
                verdict,
            });
        };
        for decl in &contract.end_to_end {
            let floor = if decl.name == "setup_s" { SETUP_FLOOR_S } else { 0.0 };
            let (va, vb) = (values(&a, &decl.name), values(&b, &decl.name));
            if va.len() != a.len() || vb.len() != b.len() {
                return Err(format!("{}: a record lacks {}", workload.name, decl.name));
            }
            let verdict = judge(&va, &vb, decl.higher_is_better(), decl.bound, floor);
            let bound = if floor > 0.0 {
                format!("{}% and {floor} {}", decl.bound * 100.0, decl.unit)
            } else {
                format!("{}%", decl.bound * 100.0)
            };
            row(&decl.name, &decl.unit, &va, &vb, bound, verdict);
        }
        // Not a relative bound: one failed or wrong session is a
        // regression whatever the base was.
        let failed = |set: &[&Record]| -> Vec<f64> {
            set.iter().map(|r| r.failed as f64 / r.attempted.max(1) as f64).collect()
        };
        let (fa, fb) = (failed(&a), failed(&b));
        let verdict =
            if fb.iter().any(|&share| share > 0.0) { Verdict::Worse } else { Verdict::Ok };
        row("failed_share", "ratio", &fa, &fb, "0 abs.".into(), verdict);
    }
    if rows.is_empty() {
        return Err("the two sets share no workload".into());
    }
    Ok(rows)
}

pub fn read_records(path: &Path) -> Result<Vec<Record>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    text.lines()
        .filter(|line| !line.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            serde_json::from_str(line).map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))
        })
        .collect()
}

/// Prints the table; `true` when no row is `worse`.
pub fn print(rows: &[Row]) -> bool {
    println!(
        "{:<14} {:<20} {:>14} {:>4} {:>14} {:>4} {:>9} {:>8} {:>18}  verdict",
        "workload", "metric", "a (base)", "n", "b", "n", "b/a", "spread", "bound"
    );
    for r in rows {
        let ratio =
            if r.base == 0.0 { "-".to_string() } else { format!("{:.4}", r.change / r.base) };
        let spread = r.spread.map_or("-".to_string(), |s| format!("{:.2}%", s * 100.0));
        println!(
            "{:<14} {:<20} {:>14.4} {:>4} {:>14.4} {:>4} {:>9} {:>8} {:>18}  {}",
            r.workload,
            format!("{} [{}]", r.metric, r.unit),
            r.base,
            r.base_runs,
            r.change,
            r.change_runs,
            ratio,
            spread,
            r.bound,
            r.verdict.label()
        );
    }
    let count = |v| rows.iter().filter(|r| r.verdict == v).count();
    println!(
        "{} ok, {} worse, {} unresolved (ratios are b over a; a is the base)",
        count(Verdict::Ok),
        count(Verdict::Worse),
        count(Verdict::Unresolved)
    );
    count(Verdict::Worse) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_runs_are_judged_by_the_bound_alone() {
        // Lower is better, 10 %: 1.09 passes, 1.11 does not.
        assert_eq!(judge(&[1.0], &[1.09], false, 0.10, 0.0), Verdict::Ok);
        assert_eq!(judge(&[1.0], &[1.11], false, 0.10, 0.0), Verdict::Worse);
        assert_eq!(judge(&[1.0], &[0.5], false, 0.10, 0.0), Verdict::Ok);
        // Higher is better: the direction flips.
        assert_eq!(judge(&[100.0], &[91.0], true, 0.10, 0.0), Verdict::Ok);
        assert_eq!(judge(&[100.0], &[89.0], true, 0.10, 0.0), Verdict::Worse);
        assert_eq!(judge(&[100.0], &[150.0], true, 0.10, 0.0), Verdict::Ok);
    }

    #[test]
    fn an_absolute_floor_shields_tiny_metrics() {
        // 40 ms -> 60 ms is +50 % but only 0.02 s.
        assert_eq!(judge(&[0.04], &[0.06], false, 0.25, 0.1), Verdict::Ok);
        assert_eq!(judge(&[0.04], &[0.06], false, 0.25, 0.0), Verdict::Worse);
        assert_eq!(judge(&[0.7], &[0.9], false, 0.25, 0.1), Verdict::Worse);
    }

    #[test]
    fn tight_runs_use_their_medians() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.05];
        let slower = [11.5, 11.6, 11.4, 11.5, 11.55];
        let same = [10.2, 10.1, 10.3, 10.2, 10.25];
        assert_eq!(judge(&a, &slower, false, 0.10, 0.0), Verdict::Worse);
        assert_eq!(judge(&a, &same, false, 0.10, 0.0), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_unless_the_sides_separate() {
        let noisy = [8.0, 10.0, 12.0, 9.0, 11.0];
        let overlapping = [9.5, 11.5, 13.5, 10.5, 12.5];
        assert_eq!(judge(&noisy, &overlapping, false, 0.10, 0.0), Verdict::Unresolved);
        // Every run of b better than every run of a: not a regression.
        let clearly_better = [5.0, 6.0, 7.0, 5.5, 6.5];
        assert_eq!(judge(&noisy, &clearly_better, false, 0.10, 0.0), Verdict::Ok);
        // Nor is one where no run of b is worse than a run of a by the floor.
        assert_eq!(judge(&noisy, &overlapping, false, 0.10, 6.0), Verdict::Ok);
        // Every run of b worse than every run of a, by more than the bound.
        let clearly_worse = [15.0, 17.0, 19.0, 16.0, 18.0];
        assert_eq!(judge(&noisy, &clearly_worse, false, 0.10, 0.0), Verdict::Worse);
    }
}
