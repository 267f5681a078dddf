//! `loadgen`: concurrent-session load generator for the garbling server.
//!
//! Drives N concurrent evaluator clients over the VIP workload mix
//! against a [`Server`] with a bounded gate-engine pool, and writes
//! `BENCH_server.json` at the repo root:
//!
//! - **cold single-session baseline** — one session at a time, fresh
//!   server and fresh client build each, everything a
//!   process-per-session deployment pays; requests are **negotiated**
//!   (the server's per-workload schedule policy picks the reorder and
//!   the ack advertises it);
//! - **warm serial** — the same sessions one at a time through one
//!   long-lived server (what the circuit cache alone buys), pinned to
//!   Baseline so the phases stay comparable release-to-release;
//! - **pre-garbled** — the warm-serial mix again, but every session is
//!   served from the server's pre-garbled instance bank (stored tables
//!   streamed, zero online garbling cipher work); gated on what a bank
//!   hit buys now that the parties overlap — garbler *CPU* (≤ 1/10 of
//!   warm serial's garbling compute, zero AES blocks), not wall (p50
//!   held within 1.10× of warm serial) — with the bank's hit counters
//!   reconciled against the client-observed completions;
//! - **concurrent** — all N sessions at once on the shared pool
//!   (`aggregate_and_gates_per_sec` = total AND tables / wall), with a
//!   mid-load scrape of the server's live metrics snapshot and a
//!   server-side stage/stall breakdown in the JSON;
//! - **overload** — 2N retrying clients against a deliberately small
//!   accept queue: admission control must shed with typed busy acks,
//!   every client must still land within its retry budget, and the
//!   admitted work must flow at ≥ 0.9× the no-overload aggregate rate
//!   with the p99 (backoff included) inside the SLO.
//!
//! Every session's outputs are checked against the plaintext reference
//! on both sides; any mismatch aborts the run.
//!
//! Run with: `cargo run --release -p haac-bench --bin loadgen`
//!
//! Environment:
//! - `HAAC_LOADGEN_SESSIONS` — concurrent sessions (default 16).
//! - `HAAC_LOADGEN_WORKERS` — engine-pool workers (default 4).
//! - `HAAC_BENCH_OUT` — output path (default `BENCH_server.json`).
//! - `HAAC_QUIET=1` (or `--quiet`) — suppress progress events.

use std::sync::Arc;
use std::time::{Duration, Instant};

use haac_runtime::{FaultChannel, FaultSpec, ReorderKind, SessionConfig, SessionReport};
use haac_server::{choose_reorder, client, percentile, Server, ServerConfig, SessionRequest};
use haac_telemetry::event;
use haac_workloads::{Scale, Workload, WorkloadKind};
use serde::Serialize;

/// The VIP mix sessions cycle through (paper Table 2 order).
const MIX: [WorkloadKind; 8] = WorkloadKind::ALL;

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).ok().and_then(|v| v.parse().ok()).unwrap_or(default)
}

#[derive(Debug, Serialize)]
struct PhaseReport {
    /// Sessions driven in this phase.
    sessions: u64,
    /// AND tables streamed across the phase.
    and_tables: u64,
    /// Wall-clock of the whole phase.
    wall_secs: f64,
    /// `and_tables / wall_secs`.
    and_gates_per_sec: f64,
    /// Median client-observed session wall time.
    p50_session_secs: f64,
    /// 99th-percentile client-observed session wall time.
    p99_session_secs: f64,
}

#[derive(Debug, Serialize)]
struct SessionRow {
    workload: &'static str,
    /// The instruction schedule the session ran (explicitly pinned, or
    /// the server's pick advertised in the ack).
    reorder: &'static str,
    and_tables: u64,
    client_wall_secs: f64,
    and_gates_per_sec: f64,
    /// Evaluator-side stage breakdown (nanoseconds).
    compute_ns: u64,
    io_ns: u64,
    ot_ns: u64,
    /// Evaluator-side stall attribution: evaluation blocked waiting
    /// for the next `Tables` frame.
    io_stall_ns: u64,
}

impl SessionRow {
    fn new(
        kind: WorkloadKind,
        reorder: ReorderKind,
        report: &SessionReport,
        wall: Duration,
    ) -> Self {
        SessionRow {
            workload: kind.name(),
            reorder: reorder.label(),
            and_tables: report.tables,
            client_wall_secs: wall.as_secs_f64(),
            and_gates_per_sec: report.tables as f64 / wall.as_secs_f64(),
            compute_ns: report.compute_ns,
            io_ns: report.io_ns,
            ot_ns: report.ot_ns,
            io_stall_ns: report.io_stall_ns,
        }
    }
}

/// Garbler-side totals over the concurrent phase, summed from the
/// server's per-session outcomes — the stage/stall decomposition the
/// single `overlap_ratio` scalar could not express.
#[derive(Debug, Default, Serialize)]
struct StageBreakdown {
    compute_ns: u64,
    io_ns: u64,
    ot_ns: u64,
    /// Garbling idle waiting for the evaluator's acks (I/O-starved).
    io_stall_ns: u64,
    /// Largest OoRW queue high-water across sessions.
    oor_queue_peak_max: usize,
}

/// The pre-garbled serving tier: the warm-serial mix again, but every
/// session claims a fully pre-garbled instance from the server's bank
/// and streams stored bytes — only OT and the input exchange stay
/// online. Same server shape and serial discipline as `warm_serial`,
/// so the two phases are directly comparable.
#[derive(Debug, Serialize)]
struct PreGarbledReport {
    /// Instances prefilled into the bank (exactly one per session).
    prefilled: u64,
    /// The served sessions.
    served: PhaseReport,
    /// Bank claims served from storage — gated equal to the session
    /// count (reconciled against the client-observed completions).
    bank_hits: u64,
    /// Claims that fell back to online garbling — gated zero.
    bank_misses: u64,
    /// Garbler-side online AES blocks across the phase — gated zero:
    /// the whole cipher bill was paid off the request path.
    garbler_aes_blocks: u64,
    /// The same total for the warm-serial phase, for contrast (every
    /// warm session pays the full garbling in-line).
    warm_serial_garbler_aes_blocks: u64,
    /// Garbler-side compute ns across the phase, banked vs warm — the
    /// "served from storage, not compute" delta.
    garbler_compute_ns: u64,
    warm_serial_garbler_compute_ns: u64,
    /// `garbler_compute_ns / warm_serial_garbler_compute_ns` — gated
    /// ≤ 0.10: what a bank hit buys is garbler CPU.
    garbler_compute_vs_warm_serial: f64,
    /// `served.p50_session_secs / warm_serial.p50_session_secs` — gated
    /// ≤ 1.10, not < 1: an online garbler streams in frames the
    /// evaluator consumes as they arrive, so taking the garbling off
    /// the request path no longer shortens the wall.
    p50_vs_warm_serial: f64,
}

/// Admission control under deliberate overload: the server sheds with
/// typed busy acks, retrying clients absorb the refusals, and the
/// admitted work still flows at (nearly) the full no-overload rate —
/// the operational meaning of "graceful degradation".
#[derive(Debug, Serialize)]
struct OverloadReport {
    /// Retrying clients driven (2× the concurrent phase).
    clients: usize,
    /// Accept-queue bound that forces the shedding.
    accept_queue_limit: usize,
    /// The admitted work (every client eventually lands; p50/p99
    /// include client-side backoff).
    admitted: PhaseReport,
    /// Typed busy refusals the server issued — must be > 0, or the
    /// phase never actually overloaded anything.
    server_busy_refusals: u64,
    /// Sessions admission control let through.
    server_admitted: u64,
    /// Client-fleet retry telemetry, summed.
    client_attempts: u64,
    client_retries: u64,
    client_busy_refusals: u64,
    client_giveups: u64,
    /// `admitted.and_gates_per_sec / concurrent.and_gates_per_sec`;
    /// gated ≥ 0.9 — shedding must cost throughput almost nothing.
    throughput_vs_no_overload: f64,
    /// The p99 bound (seconds) the admitted p99 is asserted against.
    p99_slo_secs: f64,
    /// Worst per-workload p999 of the server's `haac_session_wall_us`
    /// histogram (factor-2 bucket resolution) — the *serve*-side tail,
    /// queue wait and client backoff excluded.
    server_p999_session_wall_us: u64,
    /// The bound `server_p999_session_wall_us` is gated against: even
    /// the 1-in-1000 session must serve inside this.
    p999_wall_slo_us: u64,
}

/// Mid-stream chaos under concurrent load: a slice of the fleet has its
/// first connection cut inside the table stream, and every cut session
/// must come back through the resume path (same session instance, byte
/// replay) at nearly the uncut aggregate rate.
#[derive(Debug, Serialize)]
struct ChaosReport {
    /// Clients driven (same mix as the concurrent phase).
    clients: usize,
    /// Clients whose first link was cut mid-stream.
    cut_clients: usize,
    /// The completed work (every client lands; resumes included).
    completed: PhaseReport,
    /// Suspended sessions the server successfully resumed — must cover
    /// the cut clients that took the resume leg, and equal the
    /// client-side count exactly.
    server_resumes: u64,
    /// Suspended sessions the server gave up on (TTL or eviction).
    server_resume_evictions: u64,
    /// Client-fleet resume telemetry, summed.
    client_resumes: u64,
    client_resume_failures: u64,
    /// `completed.and_gates_per_sec / concurrent.and_gates_per_sec`;
    /// gated ≥ 0.95 — surviving cuts must cost almost nothing.
    throughput_vs_uncut: f64,
}

/// What a mid-load scrape of the live admin plane observed.
#[derive(Debug, Serialize)]
struct MidLoadSnapshot {
    /// The Prometheus text parsed cleanly while sessions were running.
    parsed: bool,
    /// `haac_active_sessions` at scrape time.
    active_sessions: f64,
    /// `haac_gates_per_sec` (sliding window) at scrape time.
    gates_per_sec: f64,
    /// `haac_pool_utilization` at scrape time.
    pool_utilization: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    /// Concurrent clients driven in the load phase.
    sessions: usize,
    /// Gate-engine workers shared by all sessions.
    workers: usize,
    /// Host parallelism — aggregate speedup is capped by cores, so the
    /// measurement is only meaningful alongside this.
    available_cores: usize,
    /// AES implementation the gate hash dispatched to.
    aes_backend: &'static str,
    /// Every session (all phases) decoded the plaintext reference.
    all_outputs_correct: bool,
    /// Cold process-per-session baseline (fresh server + fresh build
    /// per session, one at a time).
    cold_single_session: PhaseReport,
    /// One warm long-lived server, sessions one at a time.
    warm_serial: PhaseReport,
    /// The warm-serial mix served from the pre-garbled instance bank.
    pre_garbled: PreGarbledReport,
    /// One warm server, all sessions concurrent on the shared pool.
    concurrent: PhaseReport,
    /// 2× clients against a small accept queue: shedding + retries.
    overload: OverloadReport,
    /// Mid-stream cuts under load: resume keeps the fleet whole.
    chaos: ChaosReport,
    /// Headline: cold single-session AND-gate rate.
    single_session_and_gates_per_sec: f64,
    /// Headline: concurrent aggregate AND-gate rate.
    aggregate_and_gates_per_sec: f64,
    /// `aggregate / single_session`.
    speedup_vs_single_session: f64,
    /// `aggregate / warm_serial` — what concurrency alone buys.
    speedup_vs_warm_serial: f64,
    /// Server-side accounting of the concurrent phase.
    server_total_sessions: u64,
    server_completed: u64,
    server_failed: u64,
    server_active_after_drain: usize,
    server_p50_session_secs: f64,
    server_p99_session_secs: f64,
    cache_hits: u64,
    cache_misses: u64,
    /// Total ns in warm cache lookups (mean = hit_ns / hits).
    cache_hit_ns: u64,
    /// Total ns synthesizing + lowering on misses.
    cache_miss_ns: u64,
    /// Garbler-side stage/stall totals of the concurrent phase.
    server_stage_breakdown: StageBreakdown,
    /// What a scrape of the live metrics plane saw mid-load.
    mid_load_snapshot: MidLoadSnapshot,
    /// Per-session rows of the concurrent phase.
    concurrent_sessions: Vec<SessionRow>,
}

fn phase_report(rows: &[SessionRow], wall: Duration) -> PhaseReport {
    let and_tables = rows.iter().map(|r| r.and_tables).sum();
    let mut walls: Vec<f64> = rows.iter().map(|r| r.client_wall_secs).collect();
    walls.sort_by(|a, b| a.total_cmp(b));
    let wall_secs = wall.as_secs_f64();
    PhaseReport {
        sessions: rows.len() as u64,
        and_tables,
        wall_secs,
        and_gates_per_sec: if wall_secs > 0.0 { and_tables as f64 / wall_secs } else { 0.0 },
        p50_session_secs: percentile(&walls, 50.0),
        p99_session_secs: percentile(&walls, 99.0),
    }
}

/// One cold session: fresh single-worker server, fresh client build —
/// the full cost a process-per-session deployment pays per request.
/// The request is **negotiated**: the server's policy picks the
/// schedule and advertises it in the ack, and the cold client lowers
/// with whatever came back.
fn cold_session(kind: WorkloadKind, seed: u64) -> SessionRow {
    let start = Instant::now();
    let server = Server::new(ServerConfig { workers: 1, ..ServerConfig::default() });
    let mut channel = server.connect();
    let request = SessionRequest::negotiated(kind.name(), Scale::Small, seed);
    let report = client::run_session(&mut channel, &request).expect("cold session succeeds");
    let wall = start.elapsed();
    server.shutdown();
    SessionRow::new(kind, choose_reorder(kind), &report, wall)
}

fn warm_session(
    server: &Server,
    kind: WorkloadKind,
    prepared: &(Workload, SessionConfig),
    seed: u64,
) -> SessionRow {
    let start = Instant::now();
    let mut channel = server.connect();
    let request = SessionRequest::new(kind.name(), Scale::Small, seed);
    let report = client::run_session_with(&mut channel, &request, &prepared.0, &prepared.1)
        .expect("warm session succeeds");
    SessionRow::new(kind, ReorderKind::Baseline, &report, start.elapsed())
}

/// Garbler-side online cost of a server's completed sessions: summed
/// garbling compute time and AES blocks from the registry's outcomes.
fn garbler_cipher_totals(server: &Server) -> (u64, u64) {
    server.registry().outcomes().iter().fold((0, 0), |(ns, blocks), outcome| {
        match &outcome.result {
            Ok(r) => (ns + r.compute_ns, blocks + r.crypto.aes_blocks),
            Err(_) => (ns, blocks),
        }
    })
}

fn main() {
    if std::env::args().any(|a| a == "--quiet") {
        haac_telemetry::events::set_quiet(true);
    }
    let sessions = env_usize("HAAC_LOADGEN_SESSIONS", 16);
    let workers = env_usize("HAAC_LOADGEN_WORKERS", 4);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mix: Vec<WorkloadKind> = (0..sessions).map(|i| MIX[i % MIX.len()]).collect();
    event!("loadgen", "{sessions} sessions on a {workers}-worker pool ({cores} cores)");

    // Phase 1 — cold baseline: one cycle of the distinct workloads in
    // the mix, each as its own cold deployment.
    let distinct: Vec<WorkloadKind> = {
        let mut seen = Vec::new();
        for &k in &mix {
            if !seen.contains(&k) {
                seen.push(k);
            }
        }
        seen
    };
    event!("loadgen", "cold single-session baseline over {} workloads...", distinct.len());
    let cold_start = Instant::now();
    let cold_rows: Vec<SessionRow> =
        distinct.iter().enumerate().map(|(i, &k)| cold_session(k, 1_000 + i as u64)).collect();
    let cold = phase_report(&cold_rows, cold_start.elapsed());

    // Shared client-side builds + lowered plans for the warm phases (a
    // warm client caches exactly like the warm server does: circuit,
    // reference outputs, and the streaming plan, once per workload).
    let prebuilt: Vec<Arc<(Workload, SessionConfig)>> =
        distinct.iter().map(|&k| Arc::new(client::prepare(k, Scale::Small))).collect();
    let workload_of = |kind: WorkloadKind| -> Arc<(Workload, SessionConfig)> {
        let at = distinct.iter().position(|&k| k == kind).expect("kind in mix");
        Arc::clone(&prebuilt[at])
    };

    // Phase 2 — warm serial: one long-lived server, one session at a
    // time. Prewarm the cache so the phase measures steady state.
    event!("loadgen", "warm serial phase...");
    let server = Server::new(ServerConfig { workers: 1, ..ServerConfig::default() });
    for &k in &distinct {
        server.cache().get(k, Scale::Small, ReorderKind::Baseline);
    }
    let serial_start = Instant::now();
    let serial_rows: Vec<SessionRow> = mix
        .iter()
        .enumerate()
        .map(|(i, &k)| warm_session(&server, k, &workload_of(k), 2_000 + i as u64))
        .collect();
    let warm_serial = phase_report(&serial_rows, serial_start.elapsed());
    let (warm_garbler_compute_ns, warm_garbler_aes_blocks) = garbler_cipher_totals(&server);
    server.shutdown();

    // Phase 2b — pre-garbled: the same serial mix, but the server's
    // instance bank is stocked with exactly one pre-garbled instance
    // per session before any client connects, so every session claims
    // from storage and only OT and the input exchange compute online.
    // The producer is left inert (hour-long refill interval): the
    // phase measures serving prefilled inventory, not refill pacing.
    event!("loadgen", "pre-garbled phase: {} sessions from the instance bank...", mix.len());
    let server = Server::new(ServerConfig {
        workers: 1,
        bank_capacity: mix.len(),
        bank_refill_interval: Duration::from_secs(3600),
        ..ServerConfig::default()
    });
    let mut prefilled = 0u64;
    for &k in &distinct {
        server.cache().get(k, Scale::Small, ReorderKind::Baseline);
        let count = mix.iter().filter(|&&m| m == k).count();
        let stocked = server.prefill(k, Scale::Small, ReorderKind::Baseline, count);
        assert_eq!(stocked, count, "prefill must bank {count} instances of {}", k.name());
        prefilled += stocked as u64;
    }
    let pre_start = Instant::now();
    let pre_rows: Vec<SessionRow> = mix
        .iter()
        .enumerate()
        .map(|(i, &k)| warm_session(&server, k, &workload_of(k), 8_000 + i as u64))
        .collect();
    let served = phase_report(&pre_rows, pre_start.elapsed());
    let bank_hits = server.bank().hits();
    let bank_misses = server.bank().misses();
    let (banked_garbler_compute_ns, banked_garbler_aes_blocks) = garbler_cipher_totals(&server);
    server.shutdown();
    // The serving-tier gates. Hit counters reconcile against the
    // client-observed completions: every one of the mix's sessions
    // landed (warm_session panics otherwise), and each must have been
    // a storage claim, never a compute fallback.
    assert_eq!(
        bank_hits,
        mix.len() as u64,
        "every pre-garbled session must be served from the bank"
    );
    assert_eq!(bank_misses, 0, "no pre-garbled session may fall back to compute");
    assert_eq!(banked_garbler_aes_blocks, 0, "a bank hit must do zero online garbling cipher work");
    assert!(
        warm_garbler_aes_blocks > 0,
        "the warm baseline must have paid its cipher bill in-line"
    );
    let garbler_compute_vs_warm_serial =
        banked_garbler_compute_ns as f64 / warm_garbler_compute_ns as f64;
    assert!(
        garbler_compute_vs_warm_serial <= 0.10,
        "a bank hit must cost at most a tenth of online garbling's compute: {banked_garbler_compute_ns} ns \
         banked vs {warm_garbler_compute_ns} ns warm",
    );
    let p50_vs_warm_serial = served.p50_session_secs / warm_serial.p50_session_secs;
    assert!(
        p50_vs_warm_serial <= 1.10,
        "pre-garbled p50 ({:.6}s) must stay within 1.10x of warm-compute p50 ({:.6}s)",
        served.p50_session_secs,
        warm_serial.p50_session_secs,
    );
    let pre_garbled = PreGarbledReport {
        prefilled,
        garbler_compute_vs_warm_serial,
        p50_vs_warm_serial,
        served,
        bank_hits,
        bank_misses,
        garbler_aes_blocks: banked_garbler_aes_blocks,
        warm_serial_garbler_aes_blocks: warm_garbler_aes_blocks,
        garbler_compute_ns: banked_garbler_compute_ns,
        warm_serial_garbler_compute_ns: warm_garbler_compute_ns,
    };

    // Phase 3 — the load: all sessions at once on the shared pool.
    event!("loadgen", "concurrent phase: {sessions} clients...");
    let server = Server::new(ServerConfig { workers, ..ServerConfig::default() });
    for &k in &distinct {
        server.cache().get(k, Scale::Small, ReorderKind::Baseline);
    }
    let concurrent_start = Instant::now();
    let handles: Vec<_> = mix
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let prepared = workload_of(k);
            let mut channel = server.connect();
            std::thread::Builder::new()
                .name(format!("loadgen-client-{i}"))
                .spawn(move || {
                    let start = Instant::now();
                    let request = SessionRequest::new(k.name(), Scale::Small, 3_000 + i as u64);
                    let report =
                        client::run_session_with(&mut channel, &request, &prepared.0, &prepared.1)
                            .expect("concurrent session succeeds");
                    SessionRow::new(k, ReorderKind::Baseline, &report, start.elapsed())
                })
                .expect("spawn client")
        })
        .collect();
    // Scrape the live admin plane while the clients run: the snapshot
    // must parse mid-load, and its gauges are the "is it alive" view a
    // dashboard would poll. Poll until the load is actually visible —
    // a single scrape taken right after spawning the clients used to
    // land before any session had streamed and report a dead-looking
    // server (gates_per_sec 0, pool_utilization 0) under full load.
    let mid_load_snapshot = {
        let gauge = |samples: &[haac_telemetry::Sample], name: &str| {
            samples.iter().find(|s| s.name == name).map_or(0.0, |s| s.value)
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let text = server.metrics_snapshot();
            let Ok(samples) = haac_telemetry::parse(&text) else {
                break MidLoadSnapshot {
                    parsed: false,
                    active_sessions: 0.0,
                    gates_per_sec: 0.0,
                    pool_utilization: 0.0,
                };
            };
            let snapshot = MidLoadSnapshot {
                parsed: true,
                active_sessions: gauge(&samples, "haac_active_sessions"),
                gates_per_sec: gauge(&samples, "haac_gates_per_sec"),
                pool_utilization: gauge(&samples, "haac_pool_utilization"),
            };
            let live = snapshot.active_sessions > 0.0
                && snapshot.gates_per_sec > 0.0
                && snapshot.pool_utilization > 0.0;
            if live || Instant::now() >= deadline {
                break snapshot;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    };
    let concurrent_rows: Vec<SessionRow> =
        handles.into_iter().map(|h| h.join().expect("client thread")).collect();
    let concurrent_wall = concurrent_start.elapsed();
    let concurrent = phase_report(&concurrent_rows, concurrent_wall);
    assert!(mid_load_snapshot.parsed, "the mid-load metrics snapshot must parse");
    assert!(
        mid_load_snapshot.active_sessions > 0.0,
        "the mid-load scrape must observe in-flight sessions"
    );
    assert!(
        mid_load_snapshot.gates_per_sec > 0.0,
        "the mid-load scrape must observe a live gates/s rate"
    );
    assert!(
        mid_load_snapshot.pool_utilization > 0.0,
        "the mid-load scrape must observe busy engines"
    );
    let cache_hits = server.cache().hits();
    let cache_misses = server.cache().misses();
    let cache_hit_ns = server.cache().hit_ns();
    let cache_miss_ns = server.cache().miss_ns();
    // Garbler-side stage/stall totals from the server's outcomes.
    let server_stage_breakdown =
        server.registry().outcomes().iter().fold(StageBreakdown::default(), |mut acc, outcome| {
            if let Ok(report) = &outcome.result {
                acc.compute_ns += report.compute_ns;
                acc.io_ns += report.io_ns;
                acc.ot_ns += report.ot_ns;
                acc.io_stall_ns += report.io_stall_ns;
                acc.oor_queue_peak_max = acc.oor_queue_peak_max.max(report.oor_queue_peak);
            }
            acc
        });
    let server_report = server.shutdown();
    assert_eq!(server_report.failed, 0, "no session may fail under load");
    assert_eq!(server_report.active, 0, "registry must drain");
    assert_eq!(server_report.completed, sessions as u64);

    // Phase 4 — overload: twice the clients against an accept queue
    // sized well below the offered load. The server must refuse the
    // excess with typed busy acks (never accept work it cannot queue),
    // the retrying clients must absorb every refusal, and the admitted
    // work must still flow at essentially the no-overload rate.
    let overload_clients = sessions * 2;
    // Deep enough that the pool never starves while slots recycle,
    // shallow enough that 2× clients overrun it immediately.
    let accept_queue_limit = (workers * 2).max(2);
    event!(
        "loadgen",
        "overload phase: {overload_clients} retrying clients vs accept queue {accept_queue_limit}..."
    );
    let server = Server::new(ServerConfig {
        workers,
        accept_queue_limit,
        // A tight retry hint keeps refused clients polling instead of
        // idling — the phase measures shedding, not sleeping.
        busy_retry_after: Duration::from_millis(5),
        ..ServerConfig::default()
    });
    for &k in &distinct {
        server.cache().get(k, Scale::Small, ReorderKind::Baseline);
    }
    let retry_registry = haac_telemetry::Registry::new();
    let retry_telemetry = client::RetryTelemetry::register(&retry_registry);
    let overload_start = Instant::now();
    let outcomes: Vec<(SessionRow, client::RetryStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..overload_clients)
            .map(|i| {
                let k = MIX[i % MIX.len()];
                let prepared = workload_of(k);
                let server = &server;
                let telemetry = &retry_telemetry;
                scope.spawn(move || {
                    // Small sleeps, big attempt budget: refused
                    // attempts are cheap (one ack round trip), and a
                    // short cap keeps stragglers from idling past the
                    // moment a queue slot opens.
                    let policy = client::RetryPolicy {
                        max_attempts: 512,
                        base: Duration::from_millis(2),
                        cap: Duration::from_millis(10),
                        seed: 0xC11E57 + i as u64,
                        resume_attempts: 2,
                    };
                    let request = SessionRequest::new(k.name(), Scale::Small, 4_000 + i as u64);
                    let start = Instant::now();
                    let (result, stats) = client::run_session_retrying(
                        || Ok(server.connect()),
                        &request,
                        &prepared.0,
                        &prepared.1,
                        &policy,
                        Some(telemetry),
                    );
                    let report = result.expect("overloaded session lands within the retry budget");
                    (SessionRow::new(k, ReorderKind::Baseline, &report, start.elapsed()), stats)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("overload client thread")).collect()
    });
    let overload_wall = overload_start.elapsed();
    let (overload_rows, retry_stats): (Vec<SessionRow>, Vec<client::RetryStats>) =
        outcomes.into_iter().unzip();
    let admitted = phase_report(&overload_rows, overload_wall);
    let server_busy_refusals = server.metrics().refusals();
    let server_admitted = server.metrics().admitted();
    // The serve-side tail from the live per-workload histograms, read
    // before the registry goes away with the server: worst p999 across
    // the mix (factor-2 bucket resolution; queue wait and client
    // backoff excluded — this bounds how long the server *served*).
    let server_p999_session_wall_us = distinct.iter().fold(0u64, |acc, &k| {
        let histogram = server.metrics().registry().histogram(
            "haac_session_wall_us",
            &[("workload", k.name()), ("reorder", ReorderKind::Baseline.label())],
        );
        if histogram.count() > 0 {
            acc.max(histogram.p999())
        } else {
            acc
        }
    });
    let overload_server = server.shutdown();
    assert_eq!(overload_server.completed, overload_clients as u64);
    assert_eq!(overload_server.failed, 0, "admitted overload work must land");
    assert_eq!(overload_server.active, 0, "registry must drain after overload");
    assert!(server_busy_refusals > 0, "the overload phase must actually trigger shedding");
    let client_giveups: u64 = retry_stats.iter().map(|s| u64::from(s.gave_up)).sum();
    assert_eq!(client_giveups, 0, "no client may exhaust its retry budget");
    let throughput_vs_no_overload = admitted.and_gates_per_sec / concurrent.and_gates_per_sec;
    assert!(
        throughput_vs_no_overload >= 0.9,
        "graceful degradation: admitted throughput under overload ({:.0} gates/s) must stay \
         >= 0.9x the no-overload aggregate ({:.0} gates/s)",
        admitted.and_gates_per_sec,
        concurrent.and_gates_per_sec,
    );
    let p99_slo_secs = 30.0;
    assert!(
        admitted.p99_session_secs < p99_slo_secs,
        "overload p99 ({:.3}s, backoff included) must stay inside the {p99_slo_secs}s SLO",
        admitted.p99_session_secs,
    );
    // The p99 SLO's sharper sibling: even the 1-in-1000 *served*
    // session must land inside the bound, measured by the server's own
    // wall histogram rather than client clocks.
    let p999_wall_slo_us = 10_000_000u64;
    assert!(
        server_p999_session_wall_us > 0,
        "the overload phase must have populated haac_session_wall_us"
    );
    assert!(
        server_p999_session_wall_us < p999_wall_slo_us,
        "server-side p999 session wall ({server_p999_session_wall_us}us) must stay inside \
         the {p999_wall_slo_us}us SLO",
    );
    let overload = OverloadReport {
        clients: overload_clients,
        accept_queue_limit,
        admitted,
        server_busy_refusals,
        server_admitted,
        client_attempts: retry_stats.iter().map(|s| u64::from(s.attempts)).sum(),
        client_retries: retry_stats.iter().map(|s| u64::from(s.retries)).sum(),
        client_busy_refusals: retry_stats.iter().map(|s| u64::from(s.busy_refusals)).sum(),
        client_giveups,
        throughput_vs_no_overload,
        p99_slo_secs,
        server_p999_session_wall_us,
        p999_wall_slo_us,
    };

    // Phase 5 — chaos: the concurrent mix again, but a slice of the
    // fleet has its first link cut inside the table stream. The cut
    // sessions must come back through the resume path — the *same*
    // session instance continued over a reconnect with the garbler
    // replaying buffered bytes — and the fleet's aggregate rate must
    // stay within 5% of the uncut concurrent phase.
    let cut_clients = (sessions / 4).clamp(1, workers.saturating_sub(1));
    event!(
        "loadgen",
        "chaos phase: {sessions} clients, {cut_clients} cut mid-stream and resumed..."
    );
    // Calibrate each workload's channel-op count on a throwaway server
    // so the cut lands late in the table stream.
    let cut_op_of: Vec<u64> = {
        let calibration = Server::new(ServerConfig { workers: 1, ..ServerConfig::default() });
        let ops = distinct
            .iter()
            .enumerate()
            .map(|(i, &k)| {
                let mut clean = FaultChannel::new(calibration.connect(), FaultSpec::default(), 1);
                let prepared = workload_of(k);
                let request = SessionRequest::new(k.name(), Scale::Small, 5_000 + i as u64);
                client::run_session_with(&mut clean, &request, &prepared.0, &prepared.1)
                    .expect("calibration session succeeds");
                clean.ops().saturating_sub(4)
            })
            .collect();
        calibration.shutdown();
        ops
    };
    let server = Server::new(ServerConfig {
        workers,
        // A parked session must never wait out a long TTL in a bench
        // run, and enough sessions may suspend at once to cover every
        // cut client.
        max_suspended: workers.saturating_sub(1),
        resume_ttl: Duration::from_secs(2),
        ..ServerConfig::default()
    });
    for &k in &distinct {
        server.cache().get(k, Scale::Small, ReorderKind::Baseline);
    }
    // Each client runs several sessions back to back; the cut clients
    // lose their link inside round 0's table stream. A cut is a
    // one-time cost (reconnect + handoff) against a steady-state fleet,
    // so the phase has to run long enough for the aggregate rate to
    // mean something — single-session walls here are ~tens of ms,
    // comparable to the recovery itself.
    const CHAOS_ROUNDS: usize = 4;
    let chaos_registry = haac_telemetry::Registry::new();
    let chaos_telemetry = client::RetryTelemetry::register(&chaos_registry);
    let chaos_start = Instant::now();
    let outcomes: Vec<(Vec<SessionRow>, client::RetryStats)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..sessions)
            .map(|i| {
                let k = mix[i];
                let cut_op = cut_op_of[distinct.iter().position(|&d| d == k).expect("in mix")];
                let cut = i < cut_clients;
                let prepared = workload_of(k);
                let server = &server;
                let telemetry = &chaos_telemetry;
                scope.spawn(move || {
                    let policy = client::RetryPolicy {
                        max_attempts: 8,
                        base: Duration::from_millis(2),
                        cap: Duration::from_millis(50),
                        seed: 0xC4A05 + i as u64,
                        resume_attempts: 4,
                    };
                    let mut rows = Vec::with_capacity(CHAOS_ROUNDS);
                    let mut totals = client::RetryStats::default();
                    for round in 0..CHAOS_ROUNDS {
                        let request = SessionRequest::new(
                            k.name(),
                            Scale::Small,
                            6_000 + (i * CHAOS_ROUNDS + round) as u64,
                        );
                        let mut first = true;
                        let start = Instant::now();
                        let (result, stats) = client::run_session_retrying(
                            || {
                                let spec = if cut && round == 0 && first {
                                    FaultSpec::cut_at_op(cut_op)
                                } else {
                                    FaultSpec::default()
                                };
                                first = false;
                                Ok(FaultChannel::new(server.connect(), spec, 7_000 + i as u64))
                            },
                            &request,
                            &prepared.0,
                            &prepared.1,
                            &policy,
                            Some(telemetry),
                        );
                        let report =
                            result.expect("a cut session must land through the resume path");
                        rows.push(SessionRow::new(
                            k,
                            ReorderKind::Baseline,
                            &report,
                            start.elapsed(),
                        ));
                        totals.attempts += stats.attempts;
                        totals.retries += stats.retries;
                        totals.busy_refusals += stats.busy_refusals;
                        totals.resumes += stats.resumes;
                        totals.resume_failures += stats.resume_failures;
                    }
                    (rows, totals)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("chaos client thread")).collect()
    });
    let chaos_wall = chaos_start.elapsed();
    let (row_groups, chaos_stats): (Vec<Vec<SessionRow>>, Vec<client::RetryStats>) =
        outcomes.into_iter().unzip();
    let chaos_rows: Vec<SessionRow> = row_groups.into_iter().flatten().collect();
    let completed = phase_report(&chaos_rows, chaos_wall);
    let server_resumes = server.metrics().resumed();
    let server_resume_evictions = server.metrics().resume_evictions();
    let client_resumes: u64 = chaos_stats.iter().map(|s| u64::from(s.resumes)).sum();
    let client_resume_failures: u64 =
        chaos_stats.iter().map(|s| u64::from(s.resume_failures)).sum();
    let chaos_server = server.shutdown();
    assert_eq!(chaos_server.active, 0, "registry must drain after chaos");
    assert!(
        chaos_server.completed >= (sessions * CHAOS_ROUNDS) as u64,
        "every chaos client must land all of its sessions"
    );
    assert!(server_resumes >= 1, "the chaos phase must actually resume a cut session");
    assert_eq!(
        server_resumes, client_resumes,
        "server and client fleets must agree on the resume count"
    );
    assert_eq!(client_resume_failures, 0, "no resume attempt may die in the chaos phase");
    let throughput_vs_uncut = completed.and_gates_per_sec / concurrent.and_gates_per_sec;
    assert!(
        throughput_vs_uncut >= 0.95,
        "resume under load: chaos throughput ({:.0} gates/s) must stay >= 0.95x the uncut \
         aggregate ({:.0} gates/s)",
        completed.and_gates_per_sec,
        concurrent.and_gates_per_sec,
    );
    let chaos = ChaosReport {
        clients: sessions,
        cut_clients,
        completed,
        server_resumes,
        server_resume_evictions,
        client_resumes,
        client_resume_failures,
        throughput_vs_uncut,
    };

    let report = Report {
        sessions,
        workers,
        available_cores: cores,
        aes_backend: haac_gc::active_backend().name(),
        // Client helpers and the server both assert decoded outputs
        // against the plaintext reference; reaching this point means
        // every session of every phase checked out.
        all_outputs_correct: true,
        single_session_and_gates_per_sec: cold.and_gates_per_sec,
        aggregate_and_gates_per_sec: concurrent.and_gates_per_sec,
        speedup_vs_single_session: concurrent.and_gates_per_sec / cold.and_gates_per_sec,
        speedup_vs_warm_serial: concurrent.and_gates_per_sec / warm_serial.and_gates_per_sec,
        cold_single_session: cold,
        warm_serial,
        pre_garbled,
        concurrent,
        overload,
        chaos,
        server_total_sessions: server_report.total_sessions,
        server_completed: server_report.completed,
        server_failed: server_report.failed,
        server_active_after_drain: server_report.active,
        server_p50_session_secs: server_report.p50_session_secs,
        server_p99_session_secs: server_report.p99_session_secs,
        cache_hits,
        cache_misses,
        cache_hit_ns,
        cache_miss_ns,
        server_stage_breakdown,
        mid_load_snapshot,
        concurrent_sessions: concurrent_rows,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let out = std::env::var("HAAC_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_server.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, &json).expect("BENCH_server.json is writable");
    event!("loadgen", "wrote {out}");
    println!("{json}");
}
