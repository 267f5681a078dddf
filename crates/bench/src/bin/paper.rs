//! The paper's evaluation, one exhibit per subcommand:
//!
//! ```text
//! cargo run --release -p haac-bench --bin paper -- table2   # or table1..5, fig6..10, ablations
//! cargo run --release -p haac-bench --bin paper -- all
//! cargo run --release -p haac-bench --bin paper -- check
//! ```
//!
//! Every exhibit is a function from a [`Scale`] to a [`Table`]; one
//! printer prints it and [`save_result`] persists its rows to
//! `target/haac-results/<exhibit>_<scale>.json`. `HAAC_SCALE=paper`
//! selects the paper's input sizes.
//!
//! `check` recomputes every exhibit at `Scale::Small` and compares each
//! column that does not divide by a host-measured CPU time against
//! `crates/bench/reference/<exhibit>_small.json` (integers exactly,
//! floats to 1e-9 relative), then requires every claim an exhibit makes
//! about its own shape to hold. After an intended compiler or simulator
//! change, refresh the reference with `paper all` and
//! `cp target/haac-results/{table,fig,ablations}*_small.json crates/bench/reference/`.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::process::ExitCode;

use haac_bench::{
    best_of_reorders, col, compile_and_simulate, cpu_baselines, geomean, paper_config, save_result,
    Table,
};
use haac_circuit::stats::CircuitStats;
use haac_core::compiler::{
    compile, eliminate_spent_wires, mark_out_of_range, reorder, segment_reorder, ReorderKind,
};
use haac_core::model::{efficiency_vs_cpu, AreaPowerBreakdown, EnergyBreakdown};
use haac_core::sim::{map_and_simulate, static_traffic, DramKind, HaacConfig, Role};
use haac_workloads::{build, micro, Scale, WorkloadKind};

/// Computes one exhibit at a scale.
type Exhibit = fn(Scale) -> Table;

const EXHIBITS: [(&str, Exhibit); 11] = [
    ("table1", table1),
    ("table2", table2),
    ("table3", table3),
    ("table4", table4),
    ("table5", table5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("fig9", fig9),
    ("fig10", fig10),
    ("ablations", ablations),
];

fn main() -> ExitCode {
    let arg = std::env::args().nth(1).unwrap_or_default();
    let scale = Scale::from_env();
    let emit = |name: &str, exhibit: Exhibit| {
        let table = exhibit(scale);
        table.print();
        save_result(name, scale, &table.to_json());
        println!();
    };
    match arg.as_str() {
        "check" => return check(),
        "all" => EXHIBITS.iter().for_each(|(name, exhibit)| emit(name, *exhibit)),
        name => match EXHIBITS.iter().find(|(n, _)| *n == name) {
            Some((name, exhibit)) => emit(name, *exhibit),
            None => {
                let names: Vec<&str> = EXHIBITS.iter().map(|(n, _)| *n).collect();
                eprintln!("usage: paper <{}|all|check>", names.join("|"));
                return ExitCode::from(2);
            }
        },
    }
    ExitCode::SUCCESS
}

/// Recomputes every exhibit at `Scale::Small` against the checked-in
/// reference rows; exits non-zero on any mismatch or broken claim.
fn check() -> ExitCode {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("reference");
    let mut failed = false;
    for (name, exhibit) in EXHIBITS {
        let table = exhibit(Scale::Small);
        let path = dir.join(format!("{name}_small.json"));
        let reference = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str(&text).map_err(|e| e.to_string()));
        let mut problems = match reference {
            Ok(reference) => table.diff(&reference),
            Err(e) => vec![format!("{}: {e}", path.display())],
        };
        problems.extend(table.broken_claims().map(|c| format!("claim does not hold: {c}")));
        println!("{name}: {}", if problems.is_empty() { "ok" } else { "FAILED" });
        problems.iter().for_each(|p| println!("  {p}"));
        failed |= !problems.is_empty();
    }
    ExitCode::from(u8::from(failed))
}

/// Table 1: qualitative comparison of PPC techniques — a
/// static-knowledge table (§2.2), reproduced verbatim so the harness
/// covers every numbered exhibit.
fn table1(_: Scale) -> Table {
    let mut t = Table::new(
        "Table 1: Comparison of PPC techniques",
        vec![
            col("tech", "Tech", 6),
            col("conf", "Conf", 5),
            col("cntrl", "Cntrl", 6),
            col("arb", "Arb", 4),
            col("sec", "Sec", 6),
            col("overhead", "Overhead", 10),
            col("parties", "Parties", 8),
            col("alone", "Alone", 6),
        ],
    );
    for row in [
        ["HE", "Yes", "No", "No", "Noise", "Very High", "1", "Yes"],
        ["TFHE", "Yes", "No", "Yes", "Noise", "Ext. High", "1", "Yes"],
        ["SS", "Yes", "Yes", "No", "I.T.", "Moderate", "2(+)", "No"],
        ["GCs", "Yes", "Yes", "Yes", "AES", "Very High", "2", "Yes"],
    ] {
        t.row(row.map(Into::into).to_vec());
    }
    t
}

/// Table 2: key characteristics of the VIP-Bench workloads — levels
/// (circuit depth), wires, gates, AND %, ILP (gates/levels), and the
/// spent-wire percentage under a 2 MB SWW with full reordering.
fn table2(scale: Scale) -> Table {
    let config = paper_config(DramKind::Ddr4);
    let mut t = Table::new(
        format!("Table 2: benchmark characteristics (scale {scale:?}, 2 MB SWW, full reorder)"),
        vec![
            col("bench", "Benchmark", 10),
            col("levels", "# Levels", 9),
            col("wires_k", "# Wires(k)", 11),
            col("gates_k", "# Gates(k)", 11),
            col("and_percent", "AND %", 7).precision(2),
            col("ilp", "ILP", 8),
            col("spent_wire_percent", "Spent Wire %", 13).precision(2).suffix("%"),
        ],
    );
    for kind in WorkloadKind::ALL {
        let w = build(kind, scale);
        let s = CircuitStats::of(&w.circuit);
        let (_, stats) = compile(&w.circuit, ReorderKind::Full, config.window());
        t.row(vec![
            kind.name().into(),
            s.levels.into(),
            (s.wires as f64 / 1e3).into(),
            (s.gates as f64 / 1e3).into(),
            s.and_percent.into(),
            s.ilp.into(),
            stats.spent_percent.into(),
        ]);
    }
    t
}

/// Table 3: wire traffic, segment vs full reordering (both with ESW),
/// 2 MB SWW — live write-backs, OoRW reads, and totals in kilo-wires.
fn table3(scale: Scale) -> Table {
    let config = paper_config(DramKind::Ddr4);
    let mut t = Table::new(
        format!("Table 3: wire traffic, segment vs full reorder (scale {scale:?}, 2 MB SWW, ESW)"),
        vec![
            col("bench", "Benchmark", 10),
            col("live_seg_k", "Live Seg(k)", 12).precision(2),
            col("live_full_k", "Live Full(k)", 12).precision(2),
            col("oorw_seg_k", "OoRW Seg(k)", 12).precision(2),
            col("oorw_full_k", "OoRW Full(k)", 12).precision(2),
            col("total_seg_k", "Tot Seg(k)", 12).precision(2),
            col("total_full_k", "Tot Full(k)", 12).precision(2),
        ],
    );
    for kind in WorkloadKind::ALL {
        let w = build(kind, scale);
        let (_, seg) = compile(&w.circuit, ReorderKind::Segment, config.window());
        let (_, full) = compile(&w.circuit, ReorderKind::Full, config.window());
        let k = |wires: usize| (wires as f64 / 1e3).into();
        t.row(vec![
            kind.name().into(),
            k(seg.live_count),
            k(full.live_count),
            k(seg.oor_count),
            k(full.oor_count),
            k(seg.live_count + seg.oor_count),
            k(full.live_count + full.oor_count),
        ]);
    }
    t
}

/// Table 4: HAAC chip area and average power breakdown
/// (16 GEs, 2 MB SWW, 64 banks, 64 KB queues, HBM2 PHY).
fn table4(_: Scale) -> Table {
    let config = paper_config(DramKind::Hbm2);
    let breakdown = AreaPowerBreakdown::for_config(&config);
    let mut t = Table::new(
        format!(
            "Table 4: HAAC area and power ({} GEs, {} MB SWW)",
            config.num_ges,
            config.sww_bytes / (1024 * 1024)
        ),
        vec![
            col("component", "Component", 16),
            col("area_mm2", "Area (mm²)", 12).precision(4),
            col("power_mw", "Power (mW)", 12).precision(3),
        ],
    );
    for c in &breakdown.components {
        t.row(vec![c.name.into(), c.area_mm2.into(), c.power_mw.into()]);
    }
    t.row(vec![
        "Total HAAC".into(),
        breakdown.total_area_mm2().into(),
        breakdown.total_power_mw().into(),
    ]);
    let phy = &breakdown.hbm_phy;
    t.row(vec![phy.name.into(), phy.area_mm2.into(), phy.power_mw.into()]);
    t.note(format!("({} power is its TDP)", phy.name));
    t.note("paper reference: Total HAAC 4.33 mm², 1502 mW; HBM2 PHY 14.9 mm², 225 mW");
    t
}

/// Table 5: comparison against prior accelerators on their own
/// microbenchmarks — HAAC garbling time per circuit (16 GEs, 1 MB SWW,
/// full reorder, HBM2, Garbler role; §6.6) plus a gates/µs throughput
/// figure. Prior-work garbling times are constants quoted from the
/// respective papers; our column is simulated.
fn table5(_: Scale) -> Table {
    /// (benchmark, prior work, published garbling time in µs).
    const PRIOR: &[(&str, &str, f64)] = &[
        ("5x5Matx-8", "MAXelerator (8 cores)", 15.0),
        ("3x3Matx-16", "MAXelerator (14 cores)", 6.48),
        ("AES-128", "FASE", 439.0),
        ("Mult-32", "FASE", 52.5),
        ("Hamm-50", "FASE", 3.35),
        ("Million-8", "FASE", 1.30),
        ("5x5Matx-8", "FASE", 438.0),
        ("3x3Matx-16", "FASE", 378.0),
        ("Add-6", "FPGA Overlay", 2.80),
        ("Mult-32", "FPGA Overlay", 180.0),
        ("Hamm-50", "FPGA Overlay", 14.0),
        ("Million-2", "FPGA Overlay", 0.950),
        ("5x5Matx-8", "Leeser et al. [48]", 9.66e4),
        ("Add-16", "Huang et al. [31]", 253.0),
        ("Mult-32", "Huang et al. [31]", 2.38e4),
        ("Hamm-50", "Huang et al. [31]", 1.55e3),
        ("5x5Matx-8", "Huang et al. [31]", 1.84e5),
    ];
    let config = HaacConfig {
        sww_bytes: 1024 * 1024,
        dram: DramKind::Hbm2,
        role: Role::Garbler,
        ..HaacConfig::default()
    };
    // Simulate each distinct microbenchmark once: name → (µs, gates).
    let simulated: BTreeMap<&str, (f64, usize)> = micro::all()
        .iter()
        .map(|m| {
            let (lowered, _) = compile(&m.circuit, ReorderKind::Full, config.window());
            let report = map_and_simulate(&lowered, &config);
            (m.name, (report.seconds * 1e6, m.circuit.num_gates()))
        })
        .collect();

    let mut t = Table::new(
        "Table 5: HAAC vs prior work (Garbler, 16 GEs, 1 MB SWW, full reorder)",
        vec![
            col("prior_work", "Prior work", 22),
            col("benchmark", "Benchmark", 12),
            col("prior_us", "Garbling (µs)", 14).precision(3),
            col("haac_us", "HAAC (µs)", 12).precision(3),
            col("speedup", "Speedup", 9).precision(1).suffix("×"),
        ],
    );
    for &(bench, work, prior) in PRIOR {
        let ours = simulated[bench].0;
        t.row(vec![work.into(), bench.into(), prior.into(), ours.into(), (prior / ours).into()]);
    }
    // The GPU row: gates per microsecond garbling throughput.
    let (aes_us, aes_gates) = simulated["AES-128"];
    let throughput = aes_gates as f64 / aes_us;
    t.note(format!(
        "GPU [35] on AES-128: 75 gates/µs; HAAC {throughput:.1} gates/µs ({:.1}×)",
        throughput / 75.0
    ));
    t
}

/// Figure 6: HAAC speedup over the CPU for three compiler settings —
/// Baseline schedule, RO+RN (full reorder + rename), and RO+RN+ESW —
/// on the Evaluator with 16 GEs, 2 MB SWW, DDR4.
///
/// The paper's claims this reproduces: baseline alone already beats the
/// CPU (82.6× average there); RO+RN adds ~3.1× on top; ESW adds ~2.1×
/// more on memory-bound workloads; ReLU gains nothing from reordering.
fn fig6(scale: Scale) -> Table {
    let config = paper_config(DramKind::Ddr4);
    let window = config.window();
    let cpu = cpu_baselines(scale);
    let speedup = |key, head| col(key, head, 12).precision(1).suffix("×").clocked();
    let mut t = Table::new(
        format!(
            "Figure 6: speedup over CPU GC (Evaluator, 16 GEs, 2 MB SWW, DDR4, scale {scale:?})"
        ),
        vec![
            col("bench", "Benchmark", 10),
            speedup("baseline", "Baseline"),
            speedup("ro_rn", "RO+RN"),
            speedup("ro_rn_esw", "RO+RN+ESW"),
            col("baseline_cycles", "Base cyc", 10),
            col("ro_rn_cycles", "RO+RN cyc", 10),
            col("ro_rn_esw_cycles", "+ESW cyc", 10),
        ],
    );
    let (mut ordered, mut ratios) = (true, [Vec::new(), Vec::new(), Vec::new()]);
    for kind in WorkloadKind::ALL {
        let w = build(kind, scale);
        let cpu_s = cpu[kind.name()].evaluate_s;
        // Without ESW every wire is live: Baseline keeps the original
        // schedule, RO+RN reorders fully but still writes everything back.
        let all_live = |schedule| {
            let mut program = reorder(&w.circuit, schedule, window);
            program.instructions.iter_mut().for_each(|i| i.live = true);
            map_and_simulate(&mark_out_of_range(&program, window), &config)
        };
        let base = all_live(ReorderKind::Baseline);
        let ro = all_live(ReorderKind::Full);
        // RO+RN+ESW: the full pipeline.
        let esw = map_and_simulate(&compile(&w.circuit, ReorderKind::Full, window).0, &config);

        // Reordering may cost a workload with nothing to reorder (ReLU)
        // a few fill cycles, never more than 1 %.
        ordered &= esw.cycles <= ro.cycles && ro.cycles * 100 <= base.cycles * 101;
        let mut row = vec![kind.name().into()];
        for (report, ratios) in [&base, &ro, &esw].into_iter().zip(&mut ratios) {
            ratios.push(cpu_s / report.seconds);
            row.push((cpu_s / report.seconds).into());
        }
        row.extend([base.cycles.into(), ro.cycles.into(), esw.cycles.into()]);
        t.row(row);
    }
    let [base, ro, esw] = ratios.map(|r| geomean(&r));
    t.note(format!("geomean    {base:>11.1}× {ro:>11.1}× {esw:>11.1}×"));
    t.note(format!("RO+RN over baseline: {:.2}×; ESW over RO+RN: {:.2}×", ro / base, esw / ro));
    t.claim("per workload, cycles: RO+RN+ESW ≤ RO+RN ≤ 1.01 × Baseline", ordered);
    t
}

/// Figure 7: compute-only vs wire-traffic-only time for MatMult and
/// BubbSt, across Baseline/Segment/Full schedules and SWW sizes of
/// 0.5, 1, and 2 MB (16 GEs, DDR4).
///
/// "Compute" isolates GE execution (infinite bandwidth); "wire traffic"
/// is off-chip wire movement (OoRW reads + live write-backs) at peak
/// bandwidth. Overall performance is constrained by the higher bar —
/// this is the experiment showing segment reordering rescuing MatMult
/// and full reordering rescuing BubbSt.
fn fig7(scale: Scale) -> Table {
    let mut t = Table::new(
        format!("Figure 7: compute vs wire-traffic time (16 GEs, DDR4, scale {scale:?})"),
        vec![
            col("bench", "Benchmark", 10),
            col("schedule", "Schedule", 10),
            col("sww_mb", "SWW", 7).precision(1).suffix("M"),
            col("compute_ms", "Compute (ms)", 13).precision(4),
            col("wire_traffic_ms", "Wire traffic (ms)", 17).precision(4),
        ],
    );
    // Wire bytes at the smallest SWW, where the schedules differ most.
    let mut tight = HashMap::new();
    for kind in [WorkloadKind::MatMult, WorkloadKind::BubbleSort] {
        let w = build(kind, scale);
        for schedule in [ReorderKind::Baseline, ReorderKind::Segment, ReorderKind::Full] {
            for sww_mb in [0.5f64, 1.0, 2.0] {
                let sww_bytes = (sww_mb * 1024.0 * 1024.0) as usize;
                let ddr = HaacConfig { sww_bytes, ..paper_config(DramKind::Ddr4) };
                let (lowered, _) = compile(&w.circuit, schedule, ddr.window());
                // Compute-only: replay with infinite bandwidth.
                let compute =
                    map_and_simulate(&lowered, &HaacConfig { dram: DramKind::Infinite, ..ddr });
                // Wire-traffic-only: bytes over peak DDR4 bandwidth.
                let wire_bytes = static_traffic(&lowered, &ddr).wire_bytes();
                tight.entry((kind, schedule)).or_insert(wire_bytes);
                t.row(vec![
                    kind.name().into(),
                    schedule.label().into(),
                    sww_mb.into(),
                    (compute.seconds * 1e3).into(),
                    (wire_bytes as f64 / DramKind::Ddr4.bytes_per_second() * 1e3).into(),
                ]);
            }
        }
    }
    t.claim(
        "0.5 MB SWW: Segment moves fewer wire bytes than Baseline on MatMult",
        tight[&(WorkloadKind::MatMult, ReorderKind::Segment)]
            < tight[&(WorkloadKind::MatMult, ReorderKind::Baseline)],
    );
    // At Small scale BubbSt fits the SWW under every schedule, so the
    // paper's strict inequality is an equality there.
    t.claim(
        "0.5 MB SWW: Full moves no more wire bytes than Baseline on BubbSt",
        tight[&(WorkloadKind::BubbleSort, ReorderKind::Full)]
            <= tight[&(WorkloadKind::BubbleSort, ReorderKind::Baseline)],
    );
    t
}

/// Figure 8: performance scaling with GE count (1, 2, 4, 8, 16) under
/// DDR4 and HBM2, as speedup over the CPU (2 MB SWW, Evaluator).
///
/// DDR4 bars plateau when a workload saturates 35.2 GB/s; HBM2 keeps
/// scaling (the paper reports up to 15.5× from 1→16 GEs, geomean 12.3×).
/// Per §6.3: DDR4 uses the better of segment/full per workload, HBM2
/// always uses full reordering.
fn fig8(scale: Scale) -> Table {
    let cpu = cpu_baselines(scale);
    let mut t = Table::new(
        format!("Figure 8: GE scaling, speedup over CPU (2 MB SWW, scale {scale:?})"),
        vec![
            col("bench", "Benchmark", 10),
            col("dram", "DRAM", 6),
            col("ges", "GEs", 4),
            col("speedup", "Speedup", 9).suffix("×").clocked(),
            col("cycles", "Cycles", 10),
        ],
    );
    let mut hbm_scaling = Vec::new();
    for kind in WorkloadKind::ALL {
        let w = build(kind, scale);
        let cpu_s = cpu[kind.name()].evaluate_s;
        for dram in [DramKind::Ddr4, DramKind::Hbm2] {
            let mut seconds = Vec::new();
            for ges in [1usize, 2, 4, 8, 16] {
                let config = HaacConfig { num_ges: ges, ..paper_config(dram) };
                let report = match dram {
                    DramKind::Ddr4 => best_of_reorders(&w, &config).2,
                    _ => compile_and_simulate(&w, ReorderKind::Full, &config).1,
                };
                seconds.push(report.seconds);
                t.row(vec![
                    kind.name().into(),
                    dram.label().into(),
                    ges.into(),
                    (cpu_s / report.seconds).into(),
                    report.cycles.into(),
                ]);
            }
            if dram == DramKind::Hbm2 {
                hbm_scaling.push(seconds[0] / seconds[4]);
            }
        }
    }
    t.note(format!(
        "HBM2 1→16 GE scaling: geomean {:.1}×, max {:.1}×",
        geomean(&hbm_scaling),
        hbm_scaling.iter().cloned().fold(f64::MIN, f64::max)
    ));
    t
}

/// Figure 9: normalized energy per component (Half-Gate, Crossbar, SRAM,
/// Others, HBM2 PHY) for every benchmark under full reordering, plus the
/// energy-efficiency improvement over the CPU (red annotations).
fn fig9(scale: Scale) -> Table {
    let config = paper_config(DramKind::Hbm2);
    let cpu = cpu_baselines(scale);
    let share = |key, head| col(key, head, 10).precision(1).suffix("%");
    let mut t = Table::new(
        format!(
            "Figure 9: energy breakdown (16 GEs, 2 MB SWW, HBM2, full reorder, scale {scale:?})"
        ),
        vec![
            col("bench", "Benchmark", 10),
            share("halfgate_pct", "Half-Gate"),
            share("crossbar_pct", "Crossbar"),
            share("sram_pct", "SRAM"),
            share("others_pct", "Others"),
            share("phy_pct", "PHY"),
            col("total_uj", "Total (µJ)", 11).precision(2),
            col("efficiency_vs_cpu_kx", "Eff (K×)", 12).precision(1).clocked(),
        ],
    );
    let mut halfgate = Vec::new();
    for kind in WorkloadKind::ALL {
        let w = build(kind, scale);
        let (_, report) = compile_and_simulate(&w, ReorderKind::Full, &config);
        let energy = EnergyBreakdown::from_report(&report);
        let pct = energy.percentages();
        let get = |name: &str| pct.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, p)| *p);
        halfgate.push(get("Half-Gate"));
        t.row(vec![
            kind.name().into(),
            get("Half-Gate").into(),
            get("Crossbar").into(),
            get("SRAM").into(),
            get("Others").into(),
            get("HBM2 PHY").into(),
            (energy.total_joules() * 1e6).into(),
            (efficiency_vs_cpu(&report, cpu[kind.name()].evaluate_s) / 1e3).into(),
        ]);
    }
    let avg = halfgate.iter().sum::<f64>() / halfgate.len() as f64;
    t.note(format!("average Half-Gate energy share: {avg:.1}% (paper: 61%)"));
    t
}

/// Figure 10: GC slowdown relative to plaintext (plaintext = 1) —
/// CPU GC, HAAC with DDR4, and HAAC with HBM2, under each benchmark's
/// optimal reordering.
///
/// The paper's headline numbers come from this figure: HAAC/DDR4 is a
/// geomean 589× faster than CPU GC; HAAC/HBM2 2,627×; the remaining
/// slowdown vs plaintext is 76× geomean (23× integer-only).
fn fig10(scale: Scale) -> Table {
    let cpu = cpu_baselines(scale);
    let slowdown = |key, head| col(key, head, 14).precision(1).suffix("×").clocked();
    let mut t = Table::new(
        format!(
            "Figure 10: slowdown vs plaintext = 1 (16 GEs, 2 MB SWW, optimal reorder, {scale:?})"
        ),
        vec![
            col("bench", "Benchmark", 10),
            slowdown("cpu_gc_slowdown", "CPU GC"),
            slowdown("haac_ddr4_slowdown", "HAAC (DDR4)"),
            slowdown("haac_hbm2_slowdown", "HAAC (HBM2)"),
            col("haac_ddr4_cycles", "DDR4 cyc", 10),
            col("haac_hbm2_cycles", "HBM2 cyc", 10),
        ],
    );
    let (mut cpu_gc, mut ddr4, mut hbm2, mut hbm2_integer) = (vec![], vec![], vec![], vec![]);
    for kind in WorkloadKind::ALL {
        let w = build(kind, scale);
        let times = &cpu[kind.name()];
        let ddr = best_of_reorders(&w, &paper_config(DramKind::Ddr4)).2;
        let hbm = best_of_reorders(&w, &paper_config(DramKind::Hbm2)).2;
        cpu_gc.push(times.evaluate_s / times.plaintext_s);
        ddr4.push(ddr.seconds / times.plaintext_s);
        hbm2.push(hbm.seconds / times.plaintext_s);
        if kind != WorkloadKind::GradDesc {
            hbm2_integer.push(hbm.seconds / times.plaintext_s);
        }
        t.row(vec![
            kind.name().into(),
            (times.evaluate_s / times.plaintext_s).into(),
            (ddr.seconds / times.plaintext_s).into(),
            (hbm.seconds / times.plaintext_s).into(),
            ddr.cycles.into(),
            hbm.cycles.into(),
        ]);
    }
    let [cpu_gc, ddr4, hbm2] = [cpu_gc, ddr4, hbm2].map(|v| geomean(&v));
    t.note(format!(
        "geomean slowdowns: CPU GC {cpu_gc:.0}×, HAAC/DDR4 {ddr4:.1}×, HAAC/HBM2 {hbm2:.1}×"
    ));
    t.note(format!(
        "HAAC speedup over CPU GC: DDR4 {:.0}×, HBM2 {:.0}×  (paper: 589× / 2,627×)",
        cpu_gc / ddr4,
        cpu_gc / hbm2
    ));
    t.note(format!(
        "integer-only HAAC/HBM2 slowdown vs plaintext: {:.1}× (paper: 23×)",
        geomean(&hbm2_integer)
    ));
    t
}

/// Ablation studies for the design choices the paper fixes by
/// experiment:
///
/// 1. **SWW banks per GE** — §5: "we empirically evaluate how SWW banks
///    and GEs interact and find that 4 banks per GE works well".
/// 2. **Segment size** — §4.2.1/§6.2: "We set the segment size to half
///    the SWW size ... which we find performs best".
/// 3. **Garbler vs Evaluator pipelines** — §6.1: "the HAAC Garbler is
///    only 0.67% slower than the HAAC Evaluator" (vs 11.9% on CPU).
/// 4. **Queue depth** — decoupling only works if queues ride out DRAM
///    arbitration; sweep per-GE queue capacities.
fn ablations(scale: Scale) -> Table {
    let mut t = Table::new(
        format!("Ablations (full reorder, DDR4, scale {scale:?})"),
        vec![
            col("study", "Study", 21),
            col("setting", "Setting", 30),
            col("bench", "Benchmark", 10),
            col("cycles", "Cycles", 10),
            col("stalls", "Stalls", 40),
        ],
    );
    let ddr4 = paper_config(DramKind::Ddr4);

    // 1: SWW banks per GE (MatMult).
    let matmult = build(WorkloadKind::MatMult, scale);
    for banks in [1usize, 2, 4, 8] {
        let config = HaacConfig { banks_per_ge: banks, ..ddr4 };
        let (_, report) = compile_and_simulate(&matmult, ReorderKind::Full, &config);
        t.row(vec![
            "banks_per_ge".into(),
            banks.to_string().into(),
            matmult.kind.name().into(),
            report.cycles.into(),
            format!("bank {}", report.stalls.bank).into(),
        ]);
    }

    // 2: segment size as a fraction of the SWW (MatMult).
    let window = ddr4.window();
    for (label, frac) in [("1/8", 8u32), ("1/4", 4), ("1/2 (paper)", 2), ("1/1", 1)] {
        let seg = (window.sww_wires() / frac).max(1) as usize;
        let mut program = segment_reorder(&matmult.circuit, seg);
        eliminate_spent_wires(&mut program, window);
        let report = map_and_simulate(&mark_out_of_range(&program, window), &ddr4);
        t.row(vec![
            "segment_size".into(),
            label.into(),
            matmult.kind.name().into(),
            report.cycles.into(),
            "".into(),
        ]);
    }

    // 3: Garbler vs Evaluator pipelines, all workloads.
    let mut ratios = Vec::new();
    for kind in WorkloadKind::ALL {
        let w = build(kind, scale);
        let (_, ev) = compile_and_simulate(&w, ReorderKind::Full, &ddr4);
        let garbler = HaacConfig { role: Role::Garbler, ..ddr4 };
        let (_, ga) = compile_and_simulate(&w, ReorderKind::Full, &garbler);
        ratios.push(ga.cycles as f64 / ev.cycles as f64);
        t.row(vec![
            "garbler_vs_evaluator".into(),
            "garbler/evaluator cycle ratio".into(),
            kind.name().into(),
            ga.cycles.into(),
            "".into(),
        ]);
    }
    let ratio = geomean(&ratios);
    t.note(format!("Garbler/Evaluator cycle ratio, geomean: {ratio:.4} (paper: 1.0067)"));
    // The Garbler's deeper pipeline is a fixed fill cost per dependent
    // level, which the short Small-scale circuits do not amortise
    // (1.034 there against 1.004 at paper scale).
    let bound = if scale == Scale::Paper { 0.02 } else { 0.05 };
    t.claim(
        format!("simulated Garbler within {:.0} % of the Evaluator (geomean)", bound * 100.0),
        (ratio - 1.0).abs() <= bound,
    );

    // 4: per-GE queue depth (ReLU — bandwidth-bound).
    let relu = build(WorkloadKind::Relu, scale);
    for depth in [4usize, 16, 64, 256] {
        let config =
            HaacConfig { instr_queue: depth.max(8), table_queue: depth, oorw_queue: depth, ..ddr4 };
        let (_, report) = compile_and_simulate(&relu, ReorderKind::Full, &config);
        let s = &report.stalls;
        t.row(vec![
            "queue_depth".into(),
            depth.to_string().into(),
            relu.kind.name().into(),
            report.cycles.into(),
            format!("instr/table/oorw {}/{}/{}", s.instr_queue, s.table_queue, s.oorw_queue).into(),
        ]);
    }
    t
}
