//! `bench_pipeline`: machine-readable snapshot of the slab executors
//! and the streamed two-party session.
//!
//! Written to `BENCH_pipeline.json` at the repo root:
//!
//! - **per-workload sessions** — every VIP workload's garbling cost and
//!   whole-session gates/s, measured on real in-process sessions.
//!
//! Further sections back the pooled/reordered unification:
//!
//! - **pooled-vs-single slab garbling** — a wide, AND-heavy,
//!   high-ILP circuit garbled through the single-engine streaming slab
//!   and through the pooled wave scheduler sharing the same plan;
//!   regression-gated (pooled ≥ single) on hosts with ≥ 4 cores and
//!   a multi-engine pool, skip-gated elsewhere (two of our threads
//!   cannot genuinely run at once on a 1-core runner).
//! - **reordered-vs-baseline sessions** — real sessions under
//!   the negotiated `Full`/`Segment` plans vs the `Baseline` plan,
//!   gates/s per workload; regression-floored (reordered ≥ 0.5× the
//!   baseline rate — the schedules trade locality for ILP, and on a
//!   CPU the floor catches pathological collapses, not missed wins).
//! - **telemetry overhead smoke** — the same session with a
//!   live [`SessionTelemetry`] attached and the global switch on vs
//!   the kill switch off; the attached run must hold ≥ 0.95× the
//!   disabled rate (the instruments are lock-free atomics, and the CI
//!   job runs this under the portable AES backend so the gate covers
//!   the slowest crypto path too).
//!
//! - **frame sweep** — the production default measured, not a pin:
//!   two-party sessions over TCP loopback on MatMult (small and paper
//!   scale) at 512 / 2 048 / 8 192 tables per frame, the whole circuit
//!   in one frame, and the un-overridden default, reporting session
//!   wall, frames, and how long the evaluator's OT phase waited for the
//!   garbler. On ≥ 2 cores the default is gated within 10 % of the
//!   sweep's best and ≥ 1.25× the whole-circuit row (the two parties
//!   must run at the same time).
//!
//! Run with: `cargo run --release -p haac-bench --bin bench_pipeline`
//!
//! Environment:
//! - `HAAC_AES_BACKEND=portable|aesni|neon` pins the AES backend (the
//!   CI smoke job forces `portable`).
//! - `HAAC_PIPELINE_REPS` — measurement repetitions (default 3, best
//!   kept; the frame sweep runs 40× as many rounds at small scale and
//!   4× at paper scale).
//! - `HAAC_ENGINES` — pooled-garbling engine count (default
//!   `min(4, cores)`; the CI matrix sweeps {1, 4}).
//! - `HAAC_REORDER=baseline|full|segment|all` — which reordered
//!   session rows to measure (default `all`).
//! - `HAAC_QUIET=1` (or `--quiet`) — suppress progress events.
//! - `HAAC_BENCH_OUT=<path>` overrides the output file.

use std::sync::Arc;
use std::time::Instant;

use haac_circuit::{Builder, Circuit};
use haac_core::lower_for_streaming;
use haac_gc::{garble_plan_in, EnginePool, HashScheme, StreamingGarbler};
use haac_runtime::{
    run_local_session, run_tcp_session, OtMode, ReorderKind, SessionConfig, SessionReport,
    SessionTelemetry,
};
use haac_telemetry::event;
use haac_workloads::{build, Scale, WorkloadKind};
use rand::{rngs::StdRng, SeedableRng};
use serde::Serialize;

/// Measured session numbers for one workload.
#[derive(Debug, Serialize)]
struct WorkloadBench {
    workload: &'static str,
    and_gates: u64,
    chunk_tables: usize,
    table_chunks: u64,
    /// Measured garbling compute of the whole table stream (best of N
    /// real in-process sessions).
    measured_compute_ns: u64,
    /// Measured whole-session gates/s of the in-process session the
    /// compute was taken from, for context.
    measured_session_gates_per_sec: f64,
    /// Session gates/s under each negotiated reorder, with its ratio
    /// to the baseline rate (empty when `HAAC_REORDER=baseline`).
    reordered: Vec<ReorderRow>,
}

/// One negotiated-schedule measurement for a workload.
#[derive(Debug, Serialize)]
struct ReorderRow {
    reorder: &'static str,
    /// Whole-session gates/s of the best real session under this
    /// schedule.
    session_gates_per_sec: f64,
    /// `session_gates_per_sec / baseline session_gates_per_sec` —
    /// regression-floored at 0.5.
    vs_baseline: f64,
}

/// Pooled wave garbling vs the single-engine streaming slab, both
/// driven by the same plan over a wide high-ILP circuit.
#[derive(Debug, Serialize)]
struct PooledBench {
    /// Engines in the pool (`HAAC_ENGINES`, default `min(4, cores)`).
    engines: usize,
    /// AND gates in the reference circuit.
    and_gates: usize,
    /// Slab window (= wave-slice length) of the shared plan.
    slot_wires: u32,
    single_gates_per_sec: f64,
    pooled_gates_per_sec: f64,
    /// `pooled / single` — gated ≥ 1 on ≥ 4-core hosts with a
    /// multi-engine pool, recorded (not gated) elsewhere.
    speedup: f64,
    /// Whether the ≥ 1 gate applied on this host.
    gated: bool,
}

/// Cost of observing a session: the same session with a live
/// [`SessionTelemetry`] attached and the global switch on, vs the kill
/// switch off (the config stays attached in both runs, so the gate
/// prices the instruments themselves, not the `Option` check).
#[derive(Debug, Serialize)]
struct TelemetryOverheadBench {
    workload: &'static str,
    /// Best gates/s with `haac_telemetry::set_enabled(false)`.
    disabled_gates_per_sec: f64,
    /// Best gates/s with the switch on: every chunk records spans,
    /// histograms, OoRW occupancy, and the sliding gate rate.
    enabled_gates_per_sec: f64,
    /// `enabled / disabled` — regression-gated ≥ 0.95.
    ratio: f64,
}

fn telemetry_overhead_bench(reps: usize) -> TelemetryOverheadBench {
    let kind = WorkloadKind::MatMult;
    let w = build(kind, Scale::Small);
    let ands = w.circuit.num_and_gates();
    let telemetry = Arc::new(SessionTelemetry::detached());
    // Small chunks on purpose: per-chunk instruments fire often, so the
    // measurement is an upper bound on real-stream overhead.
    let config = SessionConfig::for_circuit(&w.circuit)
        .with_chunk_tables((ands / 64).max(1))
        .with_telemetry(Arc::clone(&telemetry));
    let measure = |enabled: bool, seed: u64| -> f64 {
        haac_telemetry::set_enabled(enabled);
        let mut best = 0.0f64;
        for rep in 0..reps.max(3) as u64 {
            let (g, _) = run_local_session(
                &w.circuit,
                &w.garbler_bits,
                &w.evaluator_bits,
                seed + rep,
                &config,
            )
            .expect("overhead session");
            assert_eq!(g.outputs, w.expected, "telemetry overhead outputs diverge");
            best = best.max(g.and_gates_per_sec());
        }
        best
    };
    let disabled_gates_per_sec = measure(false, 0xD15);
    let enabled_gates_per_sec = measure(true, 0x0B5);
    haac_telemetry::set_enabled(true);
    TelemetryOverheadBench {
        workload: kind.name(),
        disabled_gates_per_sec,
        enabled_gates_per_sec,
        ratio: enabled_gates_per_sec / disabled_gates_per_sec.max(f64::MIN_POSITIVE),
    }
}

/// The input phase priced both ways on a wide (≥ 4096 evaluator
/// inputs) circuit: one Chou–Orlandi public-key OT per input vs the
/// IKNP-style extension (a constant κ = 128 base OTs bootstrapping the
/// rest through the AES engine). `ots_per_sec` counts choice labels
/// delivered per second of OT-phase wall time, from the garbler's
/// report of an in-process session. The garbler's phase spans exactly the protocol
/// rounds; the evaluator's would also count the wait for the masked
/// labels, which ride the first table flush by design.
#[derive(Debug, Serialize)]
struct OtBench {
    /// Evaluator inputs = OTs the input phase must deliver.
    evaluator_inputs: usize,
    /// Labels/s of the per-input Chou–Orlandi baseline.
    base_ots_per_sec: f64,
    /// Public-key OTs the baseline performed (= evaluator_inputs).
    base_mode_base_ots: u64,
    /// Labels/s of the extended input phase.
    extended_ots_per_sec: f64,
    /// Public-key OTs the extension performed — gated ≤ 256.
    extended_base_ots: u64,
    /// Symmetric-crypto OTs the extension delivered.
    extended_ext_ots: u64,
    /// `extended / base` labels/s — gated ≥ 10 on a native AES
    /// backend (portable-AES runs record the row without gating: the
    /// extension's symmetric work is exactly what bit-sliced software
    /// AES makes slow).
    speedup: f64,
    /// Whether the 10× gate applied on this run.
    gated: bool,
}

fn ot_bench(reps: usize) -> OtBench {
    // 4096 evaluator inputs — 32× the extension's base-OT budget, so
    // the public-key wall the extension removes is unmistakable.
    const WIDTH: usize = 4096;
    let circuit = wide_and_circuit(WIDTH, 2);
    assert!(circuit.evaluator_inputs() as usize >= 4096);
    let garbler_bits = vec![false; circuit.garbler_inputs() as usize];
    let evaluator_bits: Vec<bool> =
        (0..circuit.evaluator_inputs() as usize).map(|i| i % 3 == 0).collect();
    let mut expected: Option<Vec<bool>> = None;

    let mut measure = |mode: OtMode| -> (f64, SessionReport) {
        let config = SessionConfig::for_circuit(&circuit).with_ot_mode(mode);
        let mut best_rate = 0.0f64;
        let mut last = None;
        for rep in 0..reps.max(3) as u64 {
            let (g, _) =
                run_local_session(&circuit, &garbler_bits, &evaluator_bits, 0x07E + rep, &config)
                    .expect("ot bench session");
            match &expected {
                Some(out) => assert_eq!(&g.outputs, out, "{} outputs diverge", mode.label()),
                None => expected = Some(g.outputs.clone()),
            }
            best_rate = best_rate.max(g.ots_per_sec());
            last = Some(g);
        }
        (best_rate, last.expect("at least one rep"))
    };

    let (base_rate, base_report) = measure(OtMode::Base);
    let (ext_rate, ext_report) = measure(OtMode::Extended);
    OtBench {
        evaluator_inputs: WIDTH,
        base_ots_per_sec: base_rate,
        base_mode_base_ots: base_report.base_ots,
        extended_ots_per_sec: ext_rate,
        extended_base_ots: ext_report.base_ots,
        extended_ext_ots: ext_report.ext_ots,
        speedup: ext_rate / base_rate.max(f64::MIN_POSITIVE),
        gated: haac_gc::active_backend().name() != "portable",
    }
}

/// One framing of the sweep: the best of the interleaved rounds.
#[derive(Debug, Serialize)]
struct FrameSweepRow {
    /// `SessionConfig::chunk_override`; `null` is the default.
    chunk_override: Option<usize>,
    /// Tables per frame the session announced.
    chunk_tables: usize,
    /// `Tables` frames the garbler sent.
    table_chunks: u64,
    /// Garbler-side session wall (header → shared outputs), best round.
    session_wall_ns: u64,
    /// The evaluator's wait for the garbler inside its OT phase in that
    /// round: its labels ride the first frame's flush, so this is the
    /// time before the evaluator could start.
    evaluator_ot_io_stall_ns: u64,
}

/// Session wall against tables per frame for one circuit, over TCP
/// loopback with the plain two-party drivers.
#[derive(Debug, Serialize)]
struct FrameSweep {
    workload: &'static str,
    scale: &'static str,
    and_gates: usize,
    rows: Vec<FrameSweepRow>,
    /// Best row's wall / the default row's wall — gated ≥ 0.90.
    default_vs_best: f64,
    /// Whole-circuit row's wall / the default row's wall — gated ≥ 1.25.
    default_vs_whole_circuit: f64,
    /// Whether the two gates applied (≥ 2 cores: with one, the parties
    /// cannot run at the same time whatever the framing).
    gated: bool,
}

fn frame_sweep(scale: Scale, rounds: usize, available_cores: usize) -> FrameSweep {
    let kind = WorkloadKind::MatMult;
    let w = build(kind, scale);
    let ands = w.circuit.num_and_gates();
    let default = SessionConfig::for_circuit(&w.circuit);
    // The last two rows are the ones the gates compare: the whole
    // circuit in one frame, and the un-overridden default.
    let mut configs: Vec<SessionConfig> =
        [512, 2048, 8192, ands].iter().map(|&t| default.clone().with_chunk_tables(t)).collect();
    configs.push(default);
    let mut rows: Vec<FrameSweepRow> = configs
        .iter()
        .map(|config| FrameSweepRow {
            chunk_override: config.chunk_override,
            chunk_tables: config.chunk_tables(),
            table_chunks: 0,
            session_wall_ns: u64::MAX,
            evaluator_ot_io_stall_ns: 0,
        })
        .collect();
    // Rounds visit every framing in turn, so a slow minute of the host
    // falls on all rows alike; many rounds, because two sessions of one
    // framing differ by 10 % on a busy two-core host and the gate below
    // is 10 %.
    for round in 0..rounds as u64 {
        for (config, row) in configs.iter().zip(&mut rows) {
            let (g, e) = run_tcp_session(
                &w.circuit,
                &w.garbler_bits,
                &w.evaluator_bits,
                0xF2A + round,
                config,
            )
            .expect("frame sweep session");
            assert_eq!(g.outputs, w.expected, "{}: frame sweep outputs diverge", kind.name());
            let wall = g.elapsed.as_nanos() as u64;
            if wall < row.session_wall_ns {
                row.table_chunks = g.table_chunks;
                row.session_wall_ns = wall;
                row.evaluator_ot_io_stall_ns = e.ot_io_stall_ns;
            }
        }
    }
    let [.., whole_circuit, default_row] = &rows[..] else { unreachable!("five rows") };
    let default_wall = default_row.session_wall_ns as f64;
    let best_wall = rows.iter().map(|r| r.session_wall_ns).min().expect("rows") as f64;
    FrameSweep {
        workload: kind.name(),
        scale: if scale == Scale::Paper { "paper" } else { "small" },
        and_gates: ands,
        default_vs_best: best_wall / default_wall,
        default_vs_whole_circuit: whole_circuit.session_wall_ns as f64 / default_wall,
        gated: available_cores >= 2,
        rows,
    }
}

#[derive(Debug, Serialize)]
struct Report {
    scale: &'static str,
    /// The AES backend the run dispatched to.
    aes_backend: &'static str,
    available_cores: usize,
    pooled: PooledBench,
    /// Attached-vs-disabled telemetry cost (gated ≥ 0.95).
    telemetry_overhead: TelemetryOverheadBench,
    /// Base-OT vs IKNP-extension input phase (base-OT count gated
    /// ≤ 256; ≥ 10× labels/s gated on native AES backends).
    ot: OtBench,
    /// Session wall against tables per frame, default included.
    frame_sweep: Vec<FrameSweep>,
    workloads: Vec<WorkloadBench>,
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// A wide, AND-heavy layer circuit: `width` rolling wires where every
/// layer ANDs each wire with its neighbour — `layers × width`
/// independent AND gates per level, exactly the ILP profile HAAC's
/// parallel gate engines (and our pooled waves) are built for.
fn wide_and_circuit(width: usize, layers: usize) -> Circuit {
    let mut b = Builder::new();
    let x = b.input_garbler(width as u32);
    let y = b.input_evaluator(width as u32);
    let mut ring: Vec<_> = x.iter().zip(&y).map(|(&a, &c)| b.xor(a, c)).collect();
    for _ in 0..layers {
        let prev = ring.clone();
        for i in 0..width {
            ring[i] = b.and(prev[i], prev[(i + 1) % width]);
        }
    }
    b.finish(ring).unwrap()
}

fn pooled_bench(engines: usize, available_cores: usize) -> PooledBench {
    const WIDTH: usize = 512;
    const LAYERS: usize = 96;
    let circuit = wide_and_circuit(WIDTH, LAYERS);
    let plan = lower_for_streaming(&circuit);
    let ands = circuit.num_and_gates();
    let pool = EnginePool::new(engines);

    let mut single_ns = f64::INFINITY;
    let mut pooled_ns = f64::INFINITY;
    for rep in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(500 + rep);
        let mut garbler = StreamingGarbler::with_plan(&plan.program, &mut rng, HashScheme::Rekeyed);
        let mut tables = Vec::new();
        let start = Instant::now();
        while garbler.next_tables_into(1 << 20, &mut tables) {}
        single_ns = single_ns.min(start.elapsed().as_nanos() as f64);
        std::hint::black_box(garbler.finish());

        let mut rng = StdRng::seed_from_u64(500 + rep);
        let start = Instant::now();
        let pooled = garble_plan_in(&plan.program, &mut rng, HashScheme::Rekeyed, &pool);
        pooled_ns = pooled_ns.min(start.elapsed().as_nanos() as f64);
        std::hint::black_box(pooled);
    }
    let rate = |ns: f64| ands as f64 / (ns / 1e9);
    PooledBench {
        engines,
        and_gates: ands,
        slot_wires: plan.program.slot_wires(),
        single_gates_per_sec: rate(single_ns),
        pooled_gates_per_sec: rate(pooled_ns),
        speedup: single_ns / pooled_ns,
        gated: engines > 1 && available_cores >= 4,
    }
}

fn workload_bench(kind: WorkloadKind, reps: usize, reorders: &[ReorderKind]) -> WorkloadBench {
    let w = build(kind, Scale::Small);
    // A many-chunk stream (~16 chunks).
    let ands = w.circuit.num_and_gates();
    let chunk = (ands / 16).clamp(32.min(ands.max(1)), ands.max(1));
    let session_config = SessionConfig::for_circuit(&w.circuit).with_chunk_tables(chunk);

    // Two selections over the same reps: minimum compute_ns is the
    // garbling cost, best whole-session rate is the baseline the
    // reordered rows are compared against (they also take best-of-N,
    // so the comparison is symmetric).
    let mut best: Option<SessionReport> = None;
    let mut baseline_rate = 0.0f64;
    for rep in 0..reps as u64 {
        let (g, _) = run_local_session(
            &w.circuit,
            &w.garbler_bits,
            &w.evaluator_bits,
            0x5EED + rep,
            &session_config,
        )
        .expect("in-process session");
        assert_eq!(g.outputs, w.expected, "{}: session outputs diverge", kind.name());
        baseline_rate = baseline_rate.max(g.and_gates_per_sec());
        if best.as_ref().is_none_or(|b| g.compute_ns < b.compute_ns) {
            best = Some(g);
        }
    }
    let measured = best.expect("at least one rep");

    // Negotiated-schedule sessions: same circuit, same chunking, the
    // plan lowered with Full/Segment — what a client asking for the
    // ILP-friendly orders actually gets.
    let mut reordered = Vec::new();
    for &reorder in reorders {
        let config = SessionConfig::for_circuit_with(&w.circuit, reorder).with_chunk_tables(chunk);
        let mut best_rate = 0.0f64;
        for rep in 0..reps as u64 {
            let (g, _) = run_local_session(
                &w.circuit,
                &w.garbler_bits,
                &w.evaluator_bits,
                0x6EED + rep,
                &config,
            )
            .expect("reordered session");
            assert_eq!(g.outputs, w.expected, "{}: {reorder:?} outputs diverge", kind.name());
            best_rate = best_rate.max(g.and_gates_per_sec());
        }
        reordered.push(ReorderRow {
            reorder: reorder.label(),
            session_gates_per_sec: best_rate,
            vs_baseline: if baseline_rate > 0.0 { best_rate / baseline_rate } else { 0.0 },
        });
    }

    WorkloadBench {
        workload: kind.name(),
        and_gates: measured.tables,
        chunk_tables: chunk,
        table_chunks: measured.table_chunks,
        measured_compute_ns: measured.compute_ns,
        measured_session_gates_per_sec: measured.and_gates_per_sec(),
        reordered,
    }
}

fn main() {
    if std::env::args().any(|a| a == "--quiet") {
        haac_telemetry::events::set_quiet(true);
    }
    let reps = env_u64("HAAC_PIPELINE_REPS", 3) as usize;
    let available_cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let engines = env_u64("HAAC_ENGINES", available_cores.min(4) as u64).max(1) as usize;
    let reorders: Vec<ReorderKind> = match std::env::var("HAAC_REORDER").as_deref() {
        Ok("baseline") => vec![],
        Ok("full") => vec![ReorderKind::Full],
        Ok("segment") => vec![ReorderKind::Segment],
        _ => vec![ReorderKind::Full, ReorderKind::Segment],
    };

    event!("bench_pipeline", "pooled-vs-single slab garbling ({engines} engines)...");
    let pooled = pooled_bench(engines, available_cores);
    event!(
        "bench_pipeline",
        "  single {:.0} -> pooled {:.0} gates/s (x{:.2}, gate {})",
        pooled.single_gates_per_sec,
        pooled.pooled_gates_per_sec,
        pooled.speedup,
        if pooled.gated { "armed" } else { "skipped" }
    );

    event!("bench_pipeline", "telemetry overhead smoke (attached vs kill switch)...");
    let telemetry_overhead = telemetry_overhead_bench(reps);
    event!(
        "bench_pipeline",
        "  disabled {:.0} -> enabled {:.0} gates/s ({:.3}x)",
        telemetry_overhead.disabled_gates_per_sec,
        telemetry_overhead.enabled_gates_per_sec,
        telemetry_overhead.ratio
    );

    event!("bench_pipeline", "input phase: Chou-Orlandi vs IKNP extension (4096 inputs)...");
    let ot = ot_bench(reps);
    event!(
        "bench_pipeline",
        "  base {:.0} -> extended {:.0} labels/s (x{:.1}, {} -> {} public-key OTs, gate {})",
        ot.base_ots_per_sec,
        ot.extended_ots_per_sec,
        ot.speedup,
        ot.base_mode_base_ots,
        ot.extended_base_ots,
        if ot.gated { "armed" } else { "skipped" }
    );

    event!("bench_pipeline", "frame sweep: MatMult small + paper over TCP loopback...");
    let frame_sweep = vec![
        frame_sweep(Scale::Small, 40 * reps.max(1), available_cores),
        frame_sweep(Scale::Paper, 4 * reps.max(1), available_cores),
    ];
    for sweep in &frame_sweep {
        for row in &sweep.rows {
            event!(
                "bench_pipeline",
                "  {} {}: {:>7} tables/frame ({}) -> {:>4} frames, wall {:.2} ms, OT wait {:.2} ms",
                sweep.workload,
                sweep.scale,
                row.chunk_tables,
                if row.chunk_override.is_some() { "pinned" } else { "default" },
                row.table_chunks,
                row.session_wall_ns as f64 / 1e6,
                row.evaluator_ot_io_stall_ns as f64 / 1e6
            );
        }
    }

    let mut workloads = Vec::new();
    for kind in WorkloadKind::ALL {
        event!("bench_pipeline", "{} measured sessions + reorders...", kind.name());
        let row = workload_bench(kind, reps, &reorders);
        event!("bench_pipeline", "  {:.0} gates/s", row.measured_session_gates_per_sec);
        for r in &row.reordered {
            event!(
                "bench_pipeline",
                "  {} sessions: {:.0} gates/s ({:.2}x baseline)",
                r.reorder,
                r.session_gates_per_sec,
                r.vs_baseline
            );
        }
        workloads.push(row);
    }

    let report = Report {
        scale: "small",
        aes_backend: haac_gc::active_backend().name(),
        available_cores,
        pooled,
        telemetry_overhead,
        ot,
        frame_sweep,
        workloads,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let out = std::env::var("HAAC_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_pipeline.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, &json).expect("BENCH_pipeline.json is writable");
    event!("bench_pipeline", "wrote {out}");
    println!("{json}");

    // Regression gates — a failed bar fails the CI smoke job.
    // Pooled-slab gate: on a host that can genuinely run ≥ 4 of our
    // threads, a multi-engine pool must at least match the
    // single-engine slab on the high-ILP reference; 1-core runners
    // (and forced single-engine runs) record the row without gating.
    if report.pooled.gated {
        assert!(
            report.pooled.pooled_gates_per_sec >= report.pooled.single_gates_per_sec,
            "pooled-slab regression: {} engines reach only {:.0} gates/s vs {:.0} single-engine",
            report.pooled.engines,
            report.pooled.pooled_gates_per_sec,
            report.pooled.single_gates_per_sec
        );
    }
    // The extension's whole point is killing the per-input public-key
    // wall: a 4096-input session must stay within a 2× margin of the
    // κ = 128 base-OT floor regardless of backend.
    assert!(
        report.ot.extended_base_ots <= 256,
        "OT extension regression: a 4096-input session performed {} public-key OTs",
        report.ot.extended_base_ots
    );
    assert_eq!(
        report.ot.extended_ext_ots, report.ot.evaluator_inputs as u64,
        "OT extension regression: not every input was served by the extension"
    );
    // And it must be fast where the AES engine is real hardware.
    if report.ot.gated {
        assert!(
            report.ot.speedup >= 10.0,
            "OT extension regression: extended input phase is only {:.1}x the \
             Chou-Orlandi baseline on a native backend",
            report.ot.speedup
        );
    }
    // Observability must be close to free: an attached, enabled
    // session may not fall below 0.95× the kill-switched rate.
    assert!(
        report.telemetry_overhead.ratio >= 0.95,
        "telemetry overhead regression: enabled sessions reach only {:.3}x the disabled rate",
        report.telemetry_overhead.ratio
    );
    // The default frame must be a good one, and must let the parties
    // overlap — where there is a second core for them to overlap on.
    for sweep in report.frame_sweep.iter().filter(|s| s.gated) {
        assert!(
            sweep.default_vs_best >= 0.90,
            "{} {}: the default frame is {:.2}x the sweep's best framing",
            sweep.workload,
            sweep.scale,
            sweep.default_vs_best
        );
        assert!(
            sweep.default_vs_whole_circuit >= 1.25,
            "{} {}: the default frame is only {:.2}x the whole-circuit frame",
            sweep.workload,
            sweep.scale,
            sweep.default_vs_whole_circuit
        );
    }
    for row in &report.workloads {
        for r in &row.reordered {
            assert!(
                r.vs_baseline >= 0.5,
                "{}: {} sessions collapsed to {:.2}x of baseline",
                row.workload,
                r.reorder,
                r.vs_baseline
            );
        }
    }
    event!("bench_pipeline", "all regression gates passed");
}
