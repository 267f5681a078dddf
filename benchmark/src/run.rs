//! One workload run: set-up, warm-up, the measured window, the
//! self-checks, and the numbers.
//!
//! Load is closed loop — each evaluator waits for its verified outputs
//! before it opens the next session, which is how GC parties behave —
//! and is generated by at most `nproc` client threads of this one
//! process against an in-process [`Server`] on `127.0.0.1`. Sessions go
//! through the production client path: [`client::run_session_retrying`]
//! over [`TcpChannel::connect`] with negotiated requests, the client
//! having prepared with the server's public `choose_reorder` /
//! `choose_ot_mode` policies.

use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use haac_runtime::{RuntimeError, SessionConfig, SessionReport, TcpChannel};
use haac_server::client::{self, RetryPolicy};
use haac_server::{
    choose_ot_mode, choose_reorder, Server, ServerConfig, SessionOutcome, SessionRequest,
};
use haac_workloads::{Workload, WorkloadKind};
use serde::{Deserialize, Serialize};

use crate::host::{self, Fingerprint};
use crate::ladder;
use crate::schedule::Schedule;
use crate::spec::{Contract, Measured, Spec, WARMUP_S, WORKERS};
use crate::stats::{mean, median, percentile, samples_beyond};
use crate::trace::{self, SessionSpans};

pub type Metrics = BTreeMap<String, Measured>;

#[derive(Debug)]
pub struct Options {
    pub spec: &'static Spec,
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// The JSON Lines file the run's record is appended to.
    pub out: PathBuf,
}

/// Set-ups per run: at least the first number, and more — up to the
/// second — while they have taken under a second in all. `setup_s` is
/// their median, so that one page-fault storm or scheduler hiccup does
/// not become the run's number; a 10 ms set-up needs more repeats for
/// that than a 1 s one.
const SETUP_REPS: (usize, usize) = (5, 25);
/// Rung length of the ladder appended to a traced run (`ladder` on its
/// own runs each rung for a full second).
const TRACED_LADDER_RUNG: Duration = Duration::from_millis(200);

/// One run, as stored in a result file (one JSON object per line).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Record {
    pub workload: String,
    pub fingerprint: Fingerprint,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub clients: u64,
    /// The end-to-end metrics (`--trace 0`; empty on a traced run, whose
    /// shorter windows are not the source of any end-to-end number).
    pub metrics: Metrics,
    /// Ungated context: sample counts, further percentiles, the window
    /// in thirds, set-up phases, per-kind medians and exact wire bytes.
    pub diagnostics: Metrics,
    /// The per-layer metrics (`--trace 1`).
    pub layers: Metrics,
}

/// The last line of standard output, as the contract words it.
#[derive(Debug, Serialize)]
struct LastLine {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

struct Prepared {
    kind: WorkloadKind,
    workload: Workload,
    config: SessionConfig,
}

struct Stack {
    server: Server,
    addr: SocketAddr,
    prepared: Vec<Prepared>,
}

/// Seconds per set-up phase, in order.
const SETUP_PHASES: [&str; 4] = ["prepare", "server_start", "bank_prefill", "cold_sessions"];

fn session(
    addr: SocketAddr,
    spec: &Spec,
    prepared: &Prepared,
    request_seed: u64,
) -> (Result<SessionReport, RuntimeError>, client::RetryStats) {
    let request = SessionRequest::negotiated(prepared.kind.name(), spec.scale, request_seed);
    let policy = RetryPolicy { seed: request_seed, ..RetryPolicy::default() };
    client::run_session_retrying(
        || TcpChannel::connect(addr).map_err(RuntimeError::from),
        &request,
        &prepared.workload,
        &prepared.config,
        &policy,
        None,
    )
}

/// Process start → ready to serve warm traffic: every client-side
/// `prepare`, server start, bank prefill, and one cold session per kind
/// (the server's cache-miss build; after a prefill, its first bank hit).
fn set_up(spec: &Spec) -> Result<(Stack, [f64; 4]), String> {
    let mut phases = [0.0; 4];
    let mut lap = Instant::now();
    let mut phase = |i: usize| {
        phases[i] = lap.elapsed().as_secs_f64();
        lap = Instant::now();
    };
    let prepared: Vec<Prepared> = spec
        .kinds
        .iter()
        .map(|&kind| {
            let (workload, config) =
                client::prepare_with_reorder(kind, spec.scale, choose_reorder(kind));
            let ot_mode = choose_ot_mode(workload.circuit.evaluator_inputs());
            Prepared { kind, workload, config: config.with_ot_mode(ot_mode) }
        })
        .collect();
    phase(0);
    let mut server = Server::new(ServerConfig {
        workers: WORKERS,
        bank_capacity: spec.bank_capacity,
        ..ServerConfig::default()
    });
    let addr = server.listen_tcp("127.0.0.1:0").map_err(|e| format!("listen: {e}"))?;
    phase(1);
    if spec.bank_capacity > 0 {
        for p in &prepared {
            // The background producer may stock part of a shelf first;
            // what set-up guarantees is that it ends up full.
            let key = (p.kind, spec.scale, choose_reorder(p.kind));
            server.prefill(key.0, key.1, key.2, spec.bank_capacity);
            let depth = server.bank().depth_of(key);
            if depth != spec.bank_capacity {
                return Err(format!("the {} shelf holds {depth} after prefill", p.kind.name()));
            }
        }
    }
    phase(2);
    for (i, p) in prepared.iter().enumerate() {
        let (result, _) = session(addr, spec, p, i as u64);
        result.map_err(|e| format!("cold {} session: {e}", p.kind.name()))?;
    }
    phase(3);
    let misses = server.cache().misses();
    if misses != spec.kinds.len() as u64 {
        return Err(format!("set-up built {misses} circuits for {} kinds", spec.kinds.len()));
    }
    Ok((Stack { server, addr, prepared }, phases))
}

/// What a client keeps about one session.
struct Sample {
    kind: usize,
    /// Since the leg's origin.
    start_ns: u64,
    wall_ns: u64,
    /// Completed, and outputs equal to the plaintext reference.
    ok: bool,
    /// Client bytes sent + received, request and ack included.
    bytes: u64,
    tables: u64,
    retries: u32,
    /// Traced legs only.
    report: Option<SessionReport>,
    spans: SessionSpans,
}

/// One client's share of a leg: its sessions, back to back.
struct ClientLeg {
    samples: Vec<Sample>,
    /// From the first session's start to the last session's end.
    span_s: f64,
}

/// One stretch of closed-loop load between two quiet points.
struct Leg {
    clients: Vec<ClientLeg>,
    /// Process CPU spent between spawning the clients and joining them.
    cpu_s: f64,
}

impl Leg {
    /// A leg of `clients` clients in which nothing has happened yet.
    fn empty(clients: usize) -> Leg {
        let idle = || ClientLeg { samples: Vec::new(), span_s: 0.0 };
        Leg { clients: (0..clients).map(|_| idle()).collect(), cpu_s: 0.0 }
    }

    fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.clients.iter().flat_map(|c| &c.samples)
    }

    fn attempted(&self) -> u64 {
        self.samples().count() as u64
    }

    fn failed(&self) -> u64 {
        self.samples().filter(|s| !s.ok).count() as u64
    }

    /// Work of correct sessions per second. A client's window runs from
    /// its first session's start to its last session's end, so no
    /// session is cut by a window edge; the clients' rates add up.
    fn per_second(&self, work: impl Fn(&Sample) -> u64) -> f64 {
        self.clients
            .iter()
            .map(|c| c.samples.iter().filter(|s| s.ok).map(&work).sum::<u64>() as f64 / c.span_s)
            .sum()
    }

    /// `sessions_per_s` over each third of the window (by the time a
    /// session ended), so that drift inside a run — a noisy neighbour, a
    /// leak — shows without a second run.
    fn thirds(&self) -> [f64; 3] {
        let mut rates = [0.0; 3];
        for c in &self.clients {
            let third_ns = c.span_s * 1e9 / 3.0;
            let began = c.samples.first().map_or(0, |s| s.start_ns);
            for s in c.samples.iter().filter(|s| s.ok) {
                let ended = (s.start_ns + s.wall_ns - began) as f64;
                // A session ending on an edge belongs to the third it ran in.
                let third = ((ended / third_ns).ceil() as usize).clamp(1, 3) - 1;
                rates[third] += 1e9 / third_ns;
            }
        }
        rates
    }

    /// Process CPU per second of the window: both parties, the accept
    /// loop and the bank producer.
    fn busy_cores(&self) -> f64 {
        self.cpu_s / mean(&self.clients.iter().map(|c| c.span_s).collect::<Vec<_>>())
    }

    /// Appends a later leg of the same clients: sessions, window seconds
    /// and CPU add up.
    fn absorb(&mut self, later: Leg) {
        for (mine, theirs) in self.clients.iter_mut().zip(later.clients) {
            mine.samples.extend(theirs.samples);
            mine.span_s += theirs.span_s;
        }
        self.cpu_s += later.cpu_s;
    }

    fn walls_ms_sorted(&self) -> Vec<f64> {
        let mut walls: Vec<f64> =
            self.samples().filter(|s| s.ok).map(|s| s.wall_ns as f64 / 1e6).collect();
        walls.sort_by(f64::total_cmp);
        walls
    }
}

/// Drives every client for `duration`: a client opens no new session
/// once the time is up and finishes the one it has open. Sessions are
/// timed from `origin`; a traced leg numbers its sessions from
/// `first_session`.
fn drive(
    stack: &Stack,
    spec: &Spec,
    schedules: &mut [Schedule],
    duration: Duration,
    origin: Instant,
    traced: bool,
    first_session: u64,
) -> Leg {
    let cpu_before = host::cpu_seconds();
    let opened = Instant::now();
    let client_count = schedules.len();
    let clients = std::thread::scope(|scope| {
        let handles: Vec<_> = schedules
            .iter_mut()
            .enumerate()
            .map(|(c, schedule)| {
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    let began = origin.elapsed();
                    while opened.elapsed() < duration {
                        let planned = schedule.next().expect("schedules are endless");
                        let prepared = &stack.prepared[planned.kind];
                        let start = origin.elapsed();
                        let (result, retry) =
                            session(stack.addr, spec, prepared, planned.request_seed);
                        let end = origin.elapsed();
                        let (start_ns, end_ns) = (start.as_nanos() as u64, end.as_nanos() as u64);
                        let report = result.ok();
                        let ok = report
                            .as_ref()
                            .is_some_and(|r| r.outputs == prepared.workload.expected);
                        let spans = match &report {
                            Some(report) if traced => {
                                // Session numbers interleave the clients.
                                let number =
                                    first_session + (samples.len() * client_count + c) as u64;
                                trace::client_spans(number, start_ns, end_ns, report)
                            }
                            _ => Vec::new(),
                        };
                        samples.push(Sample {
                            kind: planned.kind,
                            start_ns,
                            wall_ns: end_ns - start_ns,
                            ok,
                            bytes: report.as_ref().map_or(0, |r| r.bytes_sent + r.bytes_received),
                            tables: report.as_ref().map_or(0, |r| r.tables),
                            retries: retry.retries,
                            report: report.filter(|_| traced),
                            spans,
                        });
                    }
                    ClientLeg { samples, span_s: (origin.elapsed() - began).as_secs_f64() }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread does not panic")).collect()
    });
    Leg { clients, cpu_s: host::cpu_seconds() - cpu_before }
}

/// The server records an outcome a moment after the client has its
/// outputs; counters are read only once nothing is in flight.
fn quiesce(server: &Server) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    while server.registry().active_sessions() > 0 {
        if Instant::now() > deadline {
            return Err("sessions still active 10 s after the clients stopped".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}

/// Server-side counters at a quiet point.
#[derive(Debug, Clone, Copy)]
struct Counters {
    at: Instant,
    sessions: u64,
    cache_hits: u64,
    cache_misses: u64,
    bank_hits: u64,
    bank_misses: u64,
    bank_refills: u64,
    refusals: u64,
    /// Summed over workers, from the metrics snapshot (traced runs).
    worker_busy_ns: f64,
}

fn counters(server: &Server, with_snapshot: bool) -> Result<Counters, String> {
    let worker_busy_ns = if with_snapshot {
        haac_telemetry::parse(&server.metrics_snapshot())
            .map_err(|e| format!("metrics snapshot does not parse: {e}"))?
            .iter()
            .filter(|s| s.name == "haac_pool_worker_busy_ns")
            .map(|s| s.value)
            .sum()
    } else {
        0.0
    };
    Ok(Counters {
        at: Instant::now(),
        sessions: server.registry().total_sessions(),
        cache_hits: server.cache().hits(),
        cache_misses: server.cache().misses(),
        bank_hits: server.bank().hits(),
        bank_misses: server.bank().misses(),
        bank_refills: server.bank().refills(),
        refusals: server.metrics().refusals(),
        worker_busy_ns,
    })
}

/// What the server did between two quiet points; legs' activities add.
#[derive(Debug, Clone, Copy, Default)]
struct Activity {
    seconds: f64,
    sessions: u64,
    cache_hits: u64,
    cache_misses: u64,
    bank_hits: u64,
    bank_misses: u64,
    bank_refills: u64,
    refusals: u64,
    worker_busy_ns: f64,
}

impl Counters {
    fn since(&self, earlier: &Counters) -> Activity {
        Activity {
            seconds: (self.at - earlier.at).as_secs_f64(),
            sessions: self.sessions - earlier.sessions,
            cache_hits: self.cache_hits - earlier.cache_hits,
            cache_misses: self.cache_misses - earlier.cache_misses,
            bank_hits: self.bank_hits - earlier.bank_hits,
            bank_misses: self.bank_misses - earlier.bank_misses,
            bank_refills: self.bank_refills - earlier.bank_refills,
            refusals: self.refusals - earlier.refusals,
            worker_busy_ns: self.worker_busy_ns - earlier.worker_busy_ns,
        }
    }
}

impl std::ops::AddAssign for Activity {
    fn add_assign(&mut self, other: Activity) {
        self.seconds += other.seconds;
        self.sessions += other.sessions;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.bank_hits += other.bank_hits;
        self.bank_misses += other.bank_misses;
        self.bank_refills += other.bank_refills;
        self.refusals += other.refusals;
        self.worker_busy_ns += other.worker_busy_ns;
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn put(metrics: &mut Metrics, name: &str, value: f64, unit: &str) {
    metrics.insert(name.to_string(), Measured { value, unit: unit.to_string() });
}

/// Checks on a leg that would otherwise let a wrong number through.
fn check_leg(spec: &Spec, leg: &Leg, server: &Activity, problems: &mut Vec<String>) {
    let sessions = leg.attempted();
    if leg.failed() > 0 {
        problems.push(format!("{} of {sessions} sessions failed or decoded wrong", leg.failed()));
    }
    if server.sessions != sessions {
        problems.push(format!(
            "server registered {} sessions, clients ran {sessions}",
            server.sessions
        ));
    }
    let claims = server.bank_hits + server.bank_misses;
    let expected_claims = if spec.bank_capacity > 0 { sessions } else { 0 };
    if claims != expected_claims {
        problems.push(format!("bank hits + misses = {claims}, expected {expected_claims}"));
    }
    if server.cache_misses != 0 {
        problems.push("a warm session rebuilt a circuit (cache miss after set-up)".into());
    }
}

/// The end-to-end metrics of the measured leg, plus their context.
fn end_to_end(
    spec: &Spec,
    leg: &Leg,
    setups: &[[f64; 4]],
    metrics: &mut Metrics,
    diagnostics: &mut Metrics,
) {
    let walls = leg.walls_ms_sorted();
    let sessions_per_s = leg.per_second(|_| 1);
    let (bytes, tables) =
        leg.samples().filter(|s| s.ok).fold((0, 0), |(b, t), s| (b + s.bytes, t + s.tables));
    put(metrics, "sessions_per_s", sessions_per_s, "1/s");
    put(metrics, "session_p50_ms", percentile(&walls, 50.0), "ms");
    put(metrics, "session_p90_ms", percentile(&walls, 90.0), "ms");
    put(metrics, "cpu_ms_per_session", 1e3 * leg.busy_cores() / sessions_per_s, "ms");
    put(metrics, "wire_bytes_per_and", bytes as f64 / tables as f64, "B");
    put(metrics, "peak_rss_mb", host::peak_rss_mb(), "MB");
    // The median set-up, and the median of each of its phases.
    let setup_s = median(&setups.iter().map(|p| p.iter().sum::<f64>()).collect::<Vec<_>>());
    put(metrics, "setup_s", setup_s, "s");

    put(diagnostics, "failed_share", ratio(leg.failed(), leg.attempted()), "ratio");
    put(diagnostics, "sessions", walls.len() as f64, "count");
    put(
        diagnostics,
        "session_p90_samples_beyond",
        samples_beyond(walls.len(), 90.0) as f64,
        "count",
    );
    put(diagnostics, "client.session_p99_ms", percentile(&walls, 99.0), "ms");
    put(diagnostics, "client.session_p999_ms", percentile(&walls, 99.9), "ms");
    put(diagnostics, "busy_cores", leg.busy_cores(), "cores");
    put(diagnostics, "setup.repeats", setups.len() as f64, "count");
    for (i, rate) in leg.thirds().iter().enumerate() {
        put(diagnostics, &format!("sessions_per_s.third{}", i + 1), *rate, "1/s");
    }
    for (i, name) in SETUP_PHASES.iter().enumerate() {
        let seconds = median(&setups.iter().map(|p| p[i]).collect::<Vec<_>>());
        put(diagnostics, &format!("setup.{name}_s"), seconds, "s");
    }
    // Exact counts: a kind's bytes per session must not differ between
    // sessions, runs or seeds unless the protocol changed.
    for (k, kind) in spec.kinds.iter().enumerate() {
        let name = kind.name();
        let of_kind: Vec<&Sample> = leg.samples().filter(|s| s.ok && s.kind == k).collect();
        let bytes = of_kind.iter().map(|s| s.bytes);
        let (Some(min), Some(max)) = (bytes.clone().min(), bytes.max()) else { continue };
        put(diagnostics, &format!("wire_bytes_per_session.{name}.min"), min as f64, "B");
        put(diagnostics, &format!("wire_bytes_per_session.{name}.max"), max as f64, "B");
        let mut walls: Vec<f64> = of_kind.iter().map(|s| s.wall_ns as f64 / 1e6).collect();
        walls.sort_by(f64::total_cmp);
        put(diagnostics, &format!("session_p50_ms.{name}"), percentile(&walls, 50.0), "ms");
    }
}

/// Pairs every traced client session with the server's outcome for it
/// and appends the server half of its spans. Client and server share no
/// session id yet, so the pairing is by kind and completion order: exact
/// with one client; with two, a pair of concurrent sessions of the same
/// kind may swap, which leaves every mean unchanged.
fn attach_server_spans<'o>(
    spec: &Spec,
    leg: &mut Leg,
    outcomes: impl Iterator<Item = &'o SessionOutcome>,
) -> Vec<&'o SessionOutcome> {
    let mut by_kind: BTreeMap<&str, VecDeque<&SessionOutcome>> = BTreeMap::new();
    for outcome in outcomes {
        by_kind.entry(outcome.workload.as_str()).or_default().push_back(outcome);
    }
    let mut samples: Vec<&mut Sample> =
        leg.clients.iter_mut().flat_map(|c| &mut c.samples).filter(|s| s.ok).collect();
    samples.sort_by_key(|s| s.start_ns + s.wall_ns);
    let mut paired = Vec::new();
    for sample in samples {
        let name = spec.kinds[sample.kind].name();
        if let Some(outcome) = by_kind.get_mut(name).and_then(VecDeque::pop_front) {
            trace::server_spans(&mut sample.spans, outcome);
            paired.push(outcome);
        }
    }
    paired
}

fn mean_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    mean(&items.iter().map(f).collect::<Vec<_>>())
}

/// The per-layer metrics of a traced leg: means per session unless the
/// name says otherwise.
fn layer_metrics(
    leg: &Leg,
    outcomes: &[&SessionOutcome],
    activity: &Activity,
    untraced_sessions_per_s: f64,
    layers: &mut Metrics,
) {
    let ms = |ns: u64| ns as f64 / 1e6;
    let elapsed = |r: &SessionReport| r.elapsed.as_nanos() as u64;
    // Client side: (client wall, evaluator report) per session. Server
    // side: (server wall, garbler report) per session.
    let client: Vec<(u64, &SessionReport)> =
        leg.samples().filter_map(|s| Some((s.wall_ns, s.report.as_ref()?))).collect();
    let server: Vec<(u64, &SessionReport)> = outcomes
        .iter()
        .filter_map(|o| Some((o.elapsed.as_nanos() as u64, o.result.as_ref().ok()?)))
        .collect();
    let mut put = |name: &str, value: f64, unit: &str| put(layers, name, value, unit);

    put(
        "server.client.pre_session_ms",
        mean_of(&client, |(wall, r)| ms(wall.saturating_sub(elapsed(r)))),
        "ms",
    );
    put("runtime.session.ot_ms", mean_of(&client, |(_, r)| ms(r.ot_ns)), "ms");
    put("runtime.session.ot_wait_ms", mean_of(&client, |(_, r)| ms(r.ot_io_stall_ns)), "ms");
    put("runtime.session.stream_ms", mean_of(&client, |(_, r)| ms(r.stream_ns)), "ms");
    put("gc.stream.eval_ms", mean_of(&client, |(_, r)| ms(r.compute_ns)), "ms");
    put("runtime.session.recv_ms", mean_of(&client, |(_, r)| ms(r.io_ns)), "ms");
    put(
        "runtime.session.tail_ms",
        mean_of(&client, |(_, r)| ms(elapsed(r).saturating_sub(r.ot_ns + r.stream_ns))),
        "ms",
    );
    put("server.session.wall_ms", mean_of(&server, |(wall, _)| ms(*wall)), "ms");
    put(
        "server.session.pre_ms",
        mean_of(&server, |(wall, r)| ms(wall.saturating_sub(elapsed(r)))),
        "ms",
    );
    put("gc.stream.garble_ms", mean_of(&server, |(_, r)| ms(r.compute_ns)), "ms");
    put("runtime.session.send_ms", mean_of(&server, |(_, r)| ms(r.io_ns)), "ms");
    put("runtime.session.garbler_ot_ms", mean_of(&server, |(_, r)| ms(r.ot_ns)), "ms");
    put(
        "runtime.session.garbler_overlap_ratio",
        mean_of(&server, |(_, r)| r.overlap_ratio),
        "ratio",
    );
    put(
        "runtime.session.flushes_per_session",
        mean_of(&client, |(_, r)| r.flushes as f64) + mean_of(&server, |(_, r)| r.flushes as f64),
        "count",
    );
    put(
        "runtime.session.chunks_per_session",
        mean_of(&server, |(_, r)| r.table_chunks as f64),
        "count",
    );
    put(
        "runtime.session.replayed_frames",
        server.iter().map(|(_, r)| r.replayed_frames).sum::<u64>() as f64,
        "count",
    );
    let tables: u64 = client.iter().map(|(_, r)| r.tables).sum();
    let crypto = |f: fn(&SessionReport) -> u64| -> u64 {
        client.iter().chain(&server).map(|(_, r)| f(r)).sum()
    };
    put("gc.hash.aes_blocks_per_and", ratio(crypto(|r| r.crypto.aes_blocks), tables), "count");
    put(
        "gc.hash.key_expansions_per_and",
        ratio(crypto(|r| r.crypto.key_expansions), tables),
        "count",
    );
    put("gc.ot.base_ots_per_session", mean_of(&client, |(_, r)| r.base_ots as f64), "count");
    put("gc.ot_ext.ext_ots_per_session", mean_of(&client, |(_, r)| r.ext_ots as f64), "count");

    put(
        "server.cache.hit_ratio",
        ratio(activity.cache_hits, activity.cache_hits + activity.cache_misses),
        "ratio",
    );
    put(
        "server.bank.hit_ratio",
        ratio(activity.bank_hits, activity.bank_hits + activity.bank_misses),
        "ratio",
    );
    put("server.bank.refills_per_s", activity.bank_refills as f64 / activity.seconds, "1/s");
    put(
        "server.pool.utilization",
        activity.worker_busy_ns / (activity.seconds * 1e9 * WORKERS as f64),
        "ratio",
    );
    put(
        "server.client.retries_per_session",
        ratio(leg.samples().map(|s| u64::from(s.retries)).sum(), leg.attempted()),
        "count",
    );
    put("server.busy_refusals", activity.refusals as f64, "count");
    put("client.and_gates_per_s", leg.per_second(|s| s.tables), "1/s");
    let walls = leg.walls_ms_sorted();
    put("client.session_p99_ms", percentile(&walls, 99.0), "ms");
    put("client.session_p999_ms", percentile(&walls, 99.9), "ms");
    put("trace.overhead_ratio", leg.per_second(|_| 1) / untraced_sessions_per_s, "ratio");
}

fn print_metrics(title: &str, metrics: &Metrics) {
    println!("{title}");
    for (name, m) in metrics {
        println!("  {name:<44} {:>16.4} {}", m.value, m.unit);
    }
}

/// Sets up again and again, each time with a fresh server; the last
/// stack is the one measured.
fn set_up_repeatedly(spec: &Spec, smoke: bool) -> Result<(Stack, Vec<[f64; 4]>), String> {
    let (least, most) = if smoke { (1, 1) } else { SETUP_REPS };
    let (mut stack, phases) = set_up(spec)?;
    let mut setups = vec![phases];
    while setups.len() < least
        || (setups.len() < most && setups.iter().flatten().sum::<f64>() < 1.0)
    {
        stack.server.shutdown();
        let (fresh, phases) = set_up(spec)?;
        setups.push(phases);
        stack = fresh;
    }
    Ok((stack, setups))
}

/// What the measured window of a run produced.
#[derive(Default)]
struct Window {
    attempted: u64,
    failed: u64,
    metrics: Metrics,
    diagnostics: Metrics,
    layers: Metrics,
    /// Traced runs: every traced session's spans, by start time.
    spans: Vec<SessionSpans>,
    problems: Vec<String>,
}

/// `--trace 0`: one untraced leg, the source of every end-to-end number.
fn untraced_window(
    stack: &Stack,
    spec: &Spec,
    schedules: &mut [Schedule],
    window: Duration,
    setups: &[[f64; 4]],
) -> Result<Window, String> {
    let mut w = Window::default();
    let before = counters(&stack.server, false)?;
    let leg = drive(stack, spec, schedules, window, Instant::now(), false, 0);
    quiesce(&stack.server)?;
    let server = counters(&stack.server, false)?.since(&before);
    check_leg(spec, &leg, &server, &mut w.problems);
    end_to_end(spec, &leg, setups, &mut w.metrics, &mut w.diagnostics);
    let claims = server.bank_hits + server.bank_misses;
    put(&mut w.diagnostics, "server.bank.hit_ratio", ratio(server.bank_hits, claims), "ratio");
    (w.attempted, w.failed) = (leg.attempted(), leg.failed());
    Ok(w)
}

/// Untraced/traced pairs a traced run's window is cut into. Alternating
/// keeps a drift of the machine from reading as tracing overhead.
const TRACE_PAIRS: u32 = 3;

/// `--trace 1`: the window in alternating untraced and traced legs; the
/// untraced ones give the reference rate.
fn traced_window(
    stack: &Stack,
    spec: &Spec,
    schedules: &mut [Schedule],
    window: Duration,
) -> Result<Window, String> {
    let mut w = Window::default();
    let origin = Instant::now();
    let leg_length = window / (2 * TRACE_PAIRS);
    let (mut untraced, mut traced) = (Leg::empty(schedules.len()), Leg::empty(schedules.len()));
    // What the server did during the traced legs, and where in its list
    // of outcomes their sessions lie.
    let mut activity = Activity::default();
    let mut traced_outcomes = Vec::new();
    for _ in 0..TRACE_PAIRS {
        for tracing in [false, true] {
            let before = counters(&stack.server, true)?;
            let leg = drive(stack, spec, schedules, leg_length, origin, tracing, before.sessions);
            quiesce(&stack.server)?;
            let after = counters(&stack.server, true)?;
            check_leg(spec, &leg, &after.since(&before), &mut w.problems);
            if tracing {
                activity += after.since(&before);
                traced_outcomes.push(before.sessions as usize..after.sessions as usize);
                traced.absorb(leg);
            } else {
                untraced.absorb(leg);
            }
        }
    }

    let outcomes = stack.server.registry().outcomes();
    let outcomes = traced_outcomes.into_iter().flat_map(|range| &outcomes[range]);
    let outcomes = attach_server_spans(spec, &mut traced, outcomes);
    let reference = untraced.per_second(|_| 1);
    layer_metrics(&traced, &outcomes, &activity, reference, &mut w.layers);
    w.attempted = untraced.attempted() + traced.attempted();
    w.failed = untraced.failed() + traced.failed();
    w.spans = traced.clients.into_iter().flat_map(|c| c.samples).map(|s| s.spans).collect();
    w.spans.retain(|spans| !spans.is_empty());
    w.spans.sort_by_key(|spans| spans[0].start_ns);
    Ok(w)
}

/// The ladder with short rungs, and the trace file, of a traced run.
fn finish_traced(options: &Options, w: &mut Window) -> Result<(), String> {
    let rung = if options.smoke { Duration::from_millis(20) } else { TRACED_LADDER_RUNG };
    for rung in ladder::run(rung)? {
        put(&mut w.layers, rung.name, rung.value, rung.unit);
    }
    let path = options.out.with_file_name(format!("{}.trace.json", options.spec.name));
    trace::write(&path, options.spec.name, &w.spans)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("spans of {} traced sessions written to {}", w.spans.len(), path.display());
    println!("{:<36} {:>10} {:>14} {:>14}", "span", "count", "mean ms", "mean self ms");
    for (name, t) in trace::totals(&w.spans) {
        let per = |ns: u64| ns as f64 / 1e6 / t.count as f64;
        println!("{name:<36} {:>10} {:>14.4} {:>14.4}", t.count, per(t.total_ns), per(t.self_ns));
    }
    Ok(())
}

/// Runs one workload and prints its numbers; the last line of standard
/// output is the contract's JSON object.
///
/// # Errors
///
/// Fails when the stack cannot be set up or the ladder gives a wrong
/// output. Wrong sessions and failed self-checks do not fail early: they
/// are listed, the last line says `"correct": false`, and the caller
/// exits non-zero.
pub fn run(options: &Options) -> Result<bool, String> {
    let spec = options.spec;
    let contract = Contract::load();
    let clients = spec.clients.min(host::nproc());
    let warmup_s = if options.smoke { 0.5 } else { WARMUP_S };
    let fingerprint =
        Fingerprint::capture(options.seed, warmup_s, options.seconds, WORKERS, options.smoke);
    println!(
        "workload {} | seed {} | window {} s after {} s warm-up | {} closed-loop client(s), {} workers{}",
        spec.name,
        options.seed,
        options.seconds,
        warmup_s,
        clients,
        WORKERS,
        if options.smoke { " | SMOKE: numbers are not comparable" } else { "" }
    );
    println!(
        "machine: nproc {} | aes {} | {} | commit {}",
        fingerprint.nproc, fingerprint.aes_backend, fingerprint.rustc, fingerprint.git_commit
    );
    if let Some(declared) = contract.workloads.iter().find(|w| w.name == spec.name) {
        println!("why: {}", declared.why);
    }

    let (stack, setups) = set_up_repeatedly(spec, options.smoke)?;
    let mut schedules: Vec<Schedule> =
        (0..clients).map(|c| Schedule::new(options.seed, c, spec.kinds.len())).collect();
    let warmup = Duration::from_secs_f64(warmup_s);
    drive(&stack, spec, &mut schedules, warmup, Instant::now(), false, 0);
    quiesce(&stack.server)?;
    let window = Duration::from_secs_f64(options.seconds);
    let mut w = if options.trace {
        traced_window(&stack, spec, &mut schedules, window)?
    } else {
        untraced_window(&stack, spec, &mut schedules, window, &setups)?
    };
    if w.attempted == 0 {
        w.problems.push("no session was attempted in the window".into());
    }
    let report = stack.server.shutdown();
    if report.failed != 0 || report.active != 0 {
        w.problems.push(format!(
            "server ended with failed = {}, active = {}",
            report.failed, report.active
        ));
    }
    if options.trace {
        finish_traced(options, &mut w)?;
    }

    // Every name the contract declares for this mode, with its unit,
    // and no other.
    let (reported, declared): (&Metrics, BTreeMap<&str, &str>) = if options.trace {
        (&w.layers, contract.per_layer.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect())
    } else {
        (
            &w.metrics,
            contract.end_to_end.iter().map(|m| (m.name.as_str(), m.unit.as_str())).collect(),
        )
    };
    if !reported.iter().map(|(name, m)| (name.as_str(), m.unit.as_str())).eq(declared) {
        w.problems.push("the metrics measured are not the ones BENCHMARK.json declares".into());
    }
    if let Some((name, _)) = reported.iter().find(|(_, m)| !m.value.is_finite()) {
        w.problems.push(format!("{name} is not a finite number"));
    }

    if options.trace {
        print_metrics("per-layer metrics (traced legs of the window, then the ladder):", &w.layers);
    } else {
        print_metrics("end-to-end metrics:", &w.metrics);
        print_metrics("context (not gated):", &w.diagnostics);
    }
    for problem in &w.problems {
        eprintln!("SELF-CHECK FAILED: {problem}");
    }

    let record = Record {
        workload: spec.name.to_string(),
        fingerprint,
        correct: w.problems.is_empty(),
        attempted: w.attempted,
        failed: w.failed,
        clients: clients as u64,
        metrics: w.metrics,
        diagnostics: w.diagnostics,
        layers: w.layers,
    };
    append_record(&options.out, &record)?;
    let last = LastLine {
        correct: record.correct,
        attempted: record.attempted.max(1),
        failed: record.failed,
        metrics: if options.trace { record.layers } else { record.metrics },
    };
    println!("{}", serde_json::to_string(&last).expect("the shim serializer does not fail"));
    Ok(last.correct)
}

/// Appends one record, as one line, to a JSON Lines result file.
pub fn append_record(path: &std::path::Path, record: &Record) -> Result<(), String> {
    use std::io::Write as _;
    let line = serde_json::to_string(record).expect("the shim serializer does not fail");
    let write = || -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::fs::OpenOptions::new().create(true).append(true).open(path)?;
        writeln!(file, "{line}")
    };
    write().map_err(|e| format!("appending to {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `count` back-to-back sessions of `wall_ms` each.
    fn client(count: u64, wall_ms: u64) -> ClientLeg {
        let samples = (0..count)
            .map(|i| Sample {
                kind: 0,
                start_ns: i * wall_ms * 1_000_000,
                wall_ns: wall_ms * 1_000_000,
                ok: true,
                bytes: 64,
                tables: 10,
                retries: 0,
                report: None,
                spans: Vec::new(),
            })
            .collect();
        ClientLeg { samples, span_s: (count * wall_ms) as f64 / 1e3 }
    }

    #[test]
    fn clients_rates_add_up_and_failures_do_not_count() {
        let mut leg = Leg { clients: vec![client(100, 10), client(50, 20)], cpu_s: 1.5 };
        assert!((leg.per_second(|_| 1) - 150.0).abs() < 1e-9);
        assert!((leg.per_second(|s| s.tables) - 1500.0).abs() < 1e-9);
        assert!((leg.busy_cores() - 1.5).abs() < 1e-9);
        leg.clients[0].samples[7].ok = false;
        assert!((leg.per_second(|_| 1) - 149.0).abs() < 1e-9);
        assert_eq!((leg.attempted(), leg.failed()), (150, 1));
        assert_eq!(leg.walls_ms_sorted().len(), 149);
    }

    #[test]
    fn a_steady_leg_has_the_same_rate_in_every_third() {
        let leg = Leg { clients: vec![client(99, 10), client(99, 10)], cpu_s: 0.0 };
        for rate in leg.thirds() {
            assert!((rate - 200.0).abs() < 1e-6, "{rate}");
        }
    }
}
