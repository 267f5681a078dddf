//! The multi-session garbling server.
//!
//! One [`Server`] owns a bounded [`EnginePool`] and multiplexes every
//! accepted evaluator connection onto it: a connection is registered,
//! its session job queued, and the next free gate-engine worker drives
//! the whole garbler side ([`read_hello_deadline`] → circuit-cache
//! fetch → ack → [`run_garbler_resumable`], or [`run_garbler_banked`]
//! on a bank hit) over that connection's channel. Concurrency is
//! bounded by the pool — 32 clients on a 4-engine pool run four at a
//! time while the rest queue — and no thread is ever spawned per
//! session.
//!
//! Failure is isolated per session: a malformed request, a hostile
//! frame, a mid-protocol disconnect, or even a panic inside the session
//! body is caught, recorded as a failed
//! [`SessionOutcome`](crate::SessionOutcome), and the worker moves on
//! to the next queued session.

use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

use haac_gc::EnginePool;
use haac_runtime::{
    run_garbler_banked, run_garbler_resumable, Channel, MemChannel, OtMode, ReorderKind,
    RuntimeError, SessionDeadlines, SessionReport, TcpChannel, DEFAULT_MEM_CHANNEL_CAPACITY,
};
use haac_workloads::{Scale, WorkloadKind};
use rand::{rngs::StdRng, SeedableRng};

use crate::bank::{BankKey, InstanceBank};
use crate::cache::{CachedWorkload, CircuitCache};
use crate::metrics::{RefusalReason, ServerMetrics};
use crate::registry::{ServerReport, SessionId, SessionRegistry};
use crate::request::{read_hello_deadline, write_ack, write_busy, SessionHello};
use crate::resume::{ResumeHandoff, ResumeStore, ResumeWait, TicketForge};

/// Sizing, draining, and admission-control knobs for a [`Server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Gate-engine worker threads shared by all sessions.
    pub workers: usize,
    /// Per-direction capacity (flushed messages) of in-memory client
    /// channels created by [`Server::connect`].
    pub mem_capacity: usize,
    /// How long [`Server::shutdown`] waits for in-flight sessions.
    pub drain_timeout: Duration,
    /// Hard cap on queued (not yet running) sessions: a connection
    /// arriving with the queue at this depth is refused pre-handshake
    /// with a typed busy ack instead of being accepted into an
    /// ever-growing backlog.
    pub accept_queue_limit: usize,
    /// Soft pressure threshold for graceful degradation: with at least
    /// this many sessions queued, requests that would need a *cold*
    /// circuit synthesis are shed (busy ack) while warm,
    /// cache-resident work keeps being admitted. Synthesis is the
    /// expensive, latency-unbounded part of a session; under pressure
    /// the server keeps serving what it can serve fast.
    pub shed_cold_above: usize,
    /// The retry hint carried by every busy refusal.
    pub busy_retry_after: Duration,
    /// Per-phase I/O deadlines for every served session (and the
    /// whole-handshake wall-clock budget for reading the request), so
    /// one silent or dripping peer cannot pin a gate-engine worker
    /// forever.
    pub deadlines: SessionDeadlines,
    /// Most sessions allowed to sit suspended (parked mid-stream,
    /// waiting for their evaluator to reconnect) at once. A suspended
    /// session holds its gate-engine worker, so the effective store
    /// capacity is clamped below `workers` — the last live worker must
    /// stay available to run the handoff job a reconnect needs. 0
    /// disables suspension: mid-stream cuts become fatal session
    /// errors and no resume tickets are issued.
    pub max_suspended: usize,
    /// How long a suspended session waits for its evaluator to
    /// reconnect before giving up (counted as a resume eviction). Keep
    /// this well under `drain_timeout`, or shutdown can stall on parked
    /// sessions.
    pub resume_ttl: Duration,
    /// Pre-garbled instances kept per `(workload, scale, reorder)` in
    /// the [`InstanceBank`], each strictly one-time-use. 0 (the
    /// default) disables the bank: no producer thread is spawned and
    /// every session garbles online. Sizing note: an instance is
    /// ~32 bytes per AND gate plus 16 per input, so the bank's worst
    /// case is `capacity × resident keys × largest instance` of memory
    /// that buys exactly `capacity` zero-compute sessions per key after
    /// a refill lull.
    pub bank_capacity: usize,
    /// How often the bank producer re-checks for idle engine capacity
    /// and unfilled shelves when it has nothing to do.
    pub bank_refill_interval: Duration,
    /// RNG domain for the bank producer: instance *i* garbles from
    /// `bank_seed + i`, giving every banked instance its own Δ and
    /// labels (deterministically, so runs are reproducible).
    pub bank_seed: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            mem_capacity: DEFAULT_MEM_CHANNEL_CAPACITY,
            drain_timeout: Duration::from_secs(120),
            accept_queue_limit: 64,
            shed_cold_above: 32,
            busy_retry_after: Duration::from_millis(250),
            deadlines: SessionDeadlines {
                handshake: Some(Duration::from_secs(10)),
                ot: Some(Duration::from_secs(60)),
                chunk: Some(Duration::from_secs(60)),
            },
            max_suspended: 2,
            resume_ttl: Duration::from_secs(30),
            bank_capacity: 0,
            bank_refill_interval: Duration::from_millis(2),
            bank_seed: 0xBA2C,
        }
    }
}

/// Everything the accept loops and session jobs share.
#[derive(Debug)]
struct ServerShared {
    registry: SessionRegistry,
    cache: CircuitCache,
    metrics: ServerMetrics,
    accepting: AtomicBool,
    /// Drain-aware shutdown: set before the listeners stop, it turns
    /// every *new* connection into a polite busy refusal while
    /// in-flight sessions run to completion. Reconnects for suspended
    /// sessions stay admitted (drain finishes suspended work), but no
    /// *new* suspension is granted once draining.
    draining: AtomicBool,
    /// Suspended sessions parked mid-stream, keyed by resume ticket.
    resume: ResumeStore,
    tickets: TicketForge,
    /// Pre-garbled instances the producer banks during idle capacity;
    /// sessions claim from here before falling back to online garbling.
    bank: InstanceBank,
    config: ServerConfig,
}

/// The server's per-workload schedule policy, applied when a client
/// leaves the choice open ([`SessionRequest::negotiated`]): the paper's
/// locality-preserving default, level order with AND gates first inside
/// half-SWW segments, so that one batched cipher call hashes several
/// independent ANDs (whole-program level order on MatMult at paper
/// scale keeps 271 k wires live; segments keep 16 k and still batch 7.8
/// ANDs at a time). At `Scale::Small` a batch holds 2.2 ANDs on
/// BubbleSort, 4.2 on Mersenne and 5.1 on Hamming, against 1.8, 1.0
/// and 1.0 in netlist order.
///
/// Triangle alone keeps the baseline order. AND-first halves its
/// session, but the benchmark's `small_online` workload then serves so
/// many more sessions that the benchmark's own per-session samples
/// breach that workload's memory bound; Triangle moves once the
/// benchmark bounds that sample (ROADMAP item 1(b)). The chosen kind
/// travels back in the ack, so both sides lower identically.
///
/// [`SessionRequest::negotiated`]: crate::SessionRequest::negotiated
pub fn choose_reorder(kind: WorkloadKind) -> ReorderKind {
    match kind {
        WorkloadKind::Triangle => ReorderKind::Baseline,
        WorkloadKind::DotProduct
        | WorkloadKind::MatMult
        | WorkloadKind::GradDesc
        | WorkloadKind::Relu
        | WorkloadKind::BubbleSort
        | WorkloadKind::Mersenne
        | WorkloadKind::Hamming => ReorderKind::Segment,
    }
}

/// The server's input-label delivery policy, applied when a client
/// leaves the OT mode open ([`SessionRequest::negotiated`]): the
/// IKNP-style extension pays a fixed ~κ base-OT bootstrap, so it wins
/// exactly when the circuit has at least κ evaluator inputs — below
/// that, per-input base OTs are strictly fewer public-key operations.
/// The chosen mode travels back in the ack, so both sides configure
/// identically.
///
/// [`SessionRequest::negotiated`]: crate::SessionRequest::negotiated
pub fn choose_ot_mode(evaluator_inputs: u32) -> OtMode {
    if evaluator_inputs as usize >= haac_gc::OT_EXT_KAPPA {
        OtMode::Extended
    } else {
        OtMode::Base
    }
}

/// A long-lived garbling service multiplexing many two-party sessions
/// over one shared gate-engine pool.
///
/// # Examples
///
/// ```
/// use haac_server::{client, Server, ServerConfig, SessionRequest};
/// use haac_workloads::Scale;
///
/// let server = Server::new(ServerConfig { workers: 2, ..ServerConfig::default() });
/// let mut channel = server.connect();
/// let request = SessionRequest::new("DotProd", Scale::Small, 7);
/// let report = client::run_session(&mut channel, &request).unwrap();
/// assert!(!report.outputs.is_empty());
/// let report = server.shutdown();
/// assert_eq!(report.completed, 1);
/// assert_eq!(report.active, 0);
/// ```
#[derive(Debug)]
pub struct Server {
    pool: Arc<EnginePool>,
    shared: Arc<ServerShared>,
    config: ServerConfig,
    listeners: Vec<ListenerHandle>,
    /// The bank producer (spawned only when `bank_capacity > 0`),
    /// joined at shutdown — it exits as soon as draining begins.
    producer: Option<std::thread::JoinHandle<()>>,
}

#[derive(Debug)]
struct ListenerHandle {
    addr: SocketAddr,
    thread: std::thread::JoinHandle<()>,
}

impl Server {
    /// Starts the engine pool; the server serves nothing until channels
    /// are submitted ([`connect`](Server::connect) /
    /// [`submit`](Server::submit)) or a listener is bound
    /// ([`listen_tcp`](Server::listen_tcp)).
    pub fn new(config: ServerConfig) -> Server {
        // A parked session occupies a pool worker; leaving at least one
        // worker un-parkable guarantees the handoff job a reconnect
        // queues can always eventually run.
        let suspend_capacity = config.max_suspended.min(config.workers.saturating_sub(1));
        let pool = Arc::new(EnginePool::new(config.workers));
        let shared = Arc::new(ServerShared {
            registry: SessionRegistry::new(),
            cache: CircuitCache::new(),
            metrics: ServerMetrics::new(),
            accepting: AtomicBool::new(true),
            draining: AtomicBool::new(false),
            resume: ResumeStore::new(suspend_capacity),
            tickets: TicketForge::new(),
            bank: InstanceBank::new(config.bank_capacity),
            config,
        });
        // The producer holds only a weak pool handle: it must never
        // keep the engine workers alive past the server, and a failed
        // upgrade doubles as its shutdown signal.
        let producer = shared.bank.enabled().then(|| {
            let pool = Arc::downgrade(&pool);
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("haac-bank-producer".to_string())
                .spawn(move || bank_producer_loop(&pool, &shared))
                .expect("spawn bank producer")
        });
        Server { pool, shared, config, listeners: Vec::new(), producer }
    }

    /// Gate-engine workers in the shared pool.
    pub fn workers(&self) -> usize {
        self.pool.engines()
    }

    /// The session registry (active counts, completed outcomes).
    pub fn registry(&self) -> &SessionRegistry {
        &self.shared.registry
    }

    /// The circuit cache (hit/miss counters, resident builds).
    pub fn cache(&self) -> &CircuitCache {
        &self.shared.cache
    }

    /// The pre-garbled instance bank (depth, hit/miss/refill counters).
    pub fn bank(&self) -> &InstanceBank {
        &self.shared.bank
    }

    /// Synchronously pre-garbles `count` instances of one key into the
    /// bank (building the circuit first if needed), returning how many
    /// were actually deposited — fewer when the shelf fills. The
    /// deterministic complement to the background producer: benches and
    /// tests use it to stock the bank to a known depth instead of
    /// racing the refill loop.
    pub fn prefill(
        &self,
        kind: WorkloadKind,
        scale: Scale,
        reorder: ReorderKind,
        count: usize,
    ) -> usize {
        let cached = self.shared.cache.get(kind, scale, reorder);
        (0..count)
            .take_while(|_| {
                bank_garble_one(&self.shared, &self.pool, (kind, scale, reorder), &cached)
            })
            .count()
    }

    /// The live metrics plane (instrument registry, per-workload
    /// session telemetry).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.shared.metrics
    }

    /// Renders a point-in-time Prometheus-style text snapshot of every
    /// server instrument: service gauges are refreshed from their
    /// owners first, counters/histograms/rates read live. Safe to call
    /// mid-load from any thread — nothing here blocks a session.
    pub fn metrics_snapshot(&self) -> String {
        self.shared.metrics.refresh(
            &self.shared.registry,
            &self.shared.cache,
            &self.shared.bank,
            &self.pool.stats(),
            self.shared.resume.suspended(),
        );
        self.shared.metrics.render()
    }

    /// Sessions currently suspended mid-stream, waiting for their
    /// evaluator to reconnect.
    pub fn suspended(&self) -> usize {
        self.shared.resume.suspended()
    }

    /// Accepts an already-connected evaluator channel: registers a
    /// session and queues it on the engine pool. Returns immediately
    /// with the session id, or `None` when admission control refused
    /// the connection (queue at its hard limit, or the server is
    /// draining) — the refusal has already been written onto the
    /// channel as a typed busy ack, and nothing was registered.
    pub fn submit(&self, channel: Box<dyn Channel + Send>) -> Option<SessionId> {
        submit_on(&self.pool, &self.shared, channel)
    }

    /// Connects an in-memory client: the server end becomes a queued
    /// session, the returned end is the client's channel. If admission
    /// control refuses, the returned channel yields the busy ack.
    pub fn connect(&self) -> MemChannel {
        let (client_end, server_end) = MemChannel::pair_bounded(self.config.mem_capacity);
        self.submit(Box::new(server_end));
        client_end
    }

    /// Binds a TCP listener and serves every accepted connection as a
    /// session. Returns the bound address (use port 0 for ephemeral).
    ///
    /// While the only base OT is the 127-bit group of the `insecure-ot`
    /// feature, sessions are served on loopback addresses only: that
    /// group protects no evaluator input against a network adversary.
    ///
    /// # Errors
    ///
    /// Propagates bind failures; refuses a non-loopback address with
    /// [`io::ErrorKind::InvalidInput`] while `insecure-ot` is the active
    /// base OT.
    pub fn listen_tcp(&mut self, addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if haac_gc::ot::BASE_OT_IS_INSECURE {
            if let Some(public) = addrs.iter().find(|a| !a.ip().is_loopback()) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "refusing to serve sessions on {public}: the 127-bit `insecure-ot` \
                         group is the active base OT, so only loopback binds are allowed"
                    ),
                ));
            }
        }
        let listener = TcpListener::bind(&addrs[..])?;
        let local = listener.local_addr()?;
        let pool = Arc::clone(&self.pool);
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::Builder::new()
            .name(format!("haac-accept-{local}"))
            .spawn(move || accept_loop(&listener, &pool, &shared))
            .expect("spawn accept thread");
        self.listeners.push(ListenerHandle { addr: local, thread });
        Ok(local)
    }

    /// Binds the admin plane: a dedicated TCP listener answering every
    /// connection with one HTTP response carrying the current
    /// [`metrics_snapshot`](Server::metrics_snapshot) (Prometheus text
    /// exposition). Independent of the session listeners — scraping
    /// never competes with GC traffic for a gate-engine worker.
    /// Returns the bound address (use port 0 for ephemeral).
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn listen_metrics(&mut self, addr: impl ToSocketAddrs) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let pool = Arc::clone(&self.pool);
        let shared = Arc::clone(&self.shared);
        let thread = std::thread::Builder::new()
            .name(format!("haac-metrics-{local}"))
            .spawn(move || metrics_loop(&listener, &pool, &shared))
            .expect("spawn metrics thread");
        self.listeners.push(ListenerHandle { addr: local, thread });
        Ok(local)
    }

    /// The aggregate report over everything finished so far.
    pub fn report(&self) -> ServerReport {
        self.shared.registry.report()
    }

    /// Enters drain mode: every *new* connection is refused with a
    /// typed busy ack (reason `draining`) while already-admitted
    /// sessions run to completion. Idempotent;
    /// [`shutdown`](Server::shutdown) calls it first, but callers can
    /// drain early (e.g. on a deploy signal) and keep serving
    /// in-flight work before actually shutting down.
    pub fn begin_drain(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
    }

    /// Whether the server is refusing new sessions ahead of shutdown.
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stop admitting (drain mode), stop accepting,
    /// drain in-flight sessions (up to `drain_timeout`), join the
    /// engine pool, and return the final aggregate report. If sessions
    /// are still stuck past the deadline the pool is leaked rather
    /// than hanging the caller; the report's `active` field says so.
    pub fn shutdown(mut self) -> ServerReport {
        self.begin_drain();
        self.shared.accepting.store(false, Ordering::SeqCst);
        // The producer stops on the draining flag; join it before the
        // pool drains so no refill job lands behind in-flight sessions.
        // Banked instances already on the shelves stay claimable — a
        // drain serves out the warm inventory, it only stops restocking.
        if let Some(producer) = self.producer.take() {
            let _ = producer.join();
        }
        for listener in self.listeners.drain(..) {
            // Wake the blocking accept with a throwaway connection. A
            // wildcard bind address (0.0.0.0 / ::) is not connectable
            // on every platform, so route the wake via loopback.
            let mut wake = listener.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
            let _ = listener.thread.join();
        }
        let drained = self.shared.registry.wait_drained(self.config.drain_timeout);
        let report = self.shared.registry.report();
        let pool = Arc::clone(&self.pool);
        drop(self.pool);
        if drained {
            drop(pool); // joins the workers: the queue is empty
        } else {
            // Workers are stuck inside sessions (e.g. a client that
            // connected and went silent); joining would hang forever.
            std::mem::forget(pool);
        }
        report
    }
}

fn accept_loop(listener: &TcpListener, pool: &Arc<EnginePool>, shared: &Arc<ServerShared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => Some(stream),
            // Transient accept failures (ECONNABORTED, fd exhaustion
            // during a burst, ...) must not kill the listener; back off
            // briefly so a persistent error cannot spin the thread.
            Err(_) => None,
        };
        if !shared.accepting.load(Ordering::SeqCst) {
            break; // the shutdown wake-up (or anything racing it)
        }
        let Some(stream) = stream else {
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        match TcpChannel::from_stream(stream) {
            Ok(channel) => {
                submit_on(pool, shared, Box::new(channel));
            }
            Err(_) => continue,
        }
    }
}

/// The admin-plane accept loop: one snapshot per connection, plain
/// HTTP/1.0 so `curl` and a Prometheus scraper both work unmodified.
fn metrics_loop(listener: &TcpListener, pool: &Arc<EnginePool>, shared: &Arc<ServerShared>) {
    loop {
        let stream = listener.accept().ok().map(|(stream, _)| stream);
        if !shared.accepting.load(Ordering::SeqCst) {
            break; // the shutdown wake-up (or anything racing it)
        }
        let Some(mut stream) = stream else {
            std::thread::sleep(Duration::from_millis(10));
            continue;
        };
        // Best-effort drain of the request head; the response is the
        // same snapshot whatever was asked.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
        let mut head = [0u8; 1024];
        let _ = stream.read(&mut head);
        shared.metrics.refresh(
            &shared.registry,
            &shared.cache,
            &shared.bank,
            &pool.stats(),
            shared.resume.suspended(),
        );
        let body = shared.metrics.render();
        let response = format!(
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\n\
             Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        let _ = stream.write_all(response.as_bytes());
    }
}

/// The bank producer: turns idle gate-engine capacity into pre-garbled
/// inventory. Each pass it looks for a cache-resident key whose shelf
/// has room, garbles **one** instance for it on the shared pool, and
/// re-checks the pool between instances — so the moment real sessions
/// queue, production stops and the engines go back to serving. Keys are
/// refilled round-robin (one instance per pass, first-unfilled-wins over
/// the resident list), and the loop exits for good when the server
/// starts draining: a drain stops restocking but keeps serving whatever
/// the shelves still hold.
fn bank_producer_loop(pool: &Weak<EnginePool>, shared: &Arc<ServerShared>) {
    // One interval of warm-up before the first pass: the producer is a
    // background trickle, not a startup burst, and operators (and tests)
    // that stock shelves explicitly via `Server::prefill` must never
    // race it — a long `bank_refill_interval` keeps it inert for good.
    if !bank_producer_pace(shared) {
        return;
    }
    loop {
        if shared.draining.load(Ordering::SeqCst) || !shared.accepting.load(Ordering::SeqCst) {
            break;
        }
        let Some(pool) = pool.upgrade() else { break };
        // Only produce when the pool is genuinely idle for sessions:
        // nothing queued, and at least one engine free. `engines -
        // active_jobs` is exactly the capacity a session is not using.
        let stats = pool.stats();
        let idle = stats.queued_jobs == 0 && stats.active_jobs < stats.engines;
        let mut produced = false;
        if idle {
            for key in shared.cache.resident_keys() {
                if !shared.bank.needs_refill(key) {
                    continue;
                }
                let (kind, scale, reorder) = key;
                let cached = shared.cache.get(kind, scale, reorder);
                if bank_garble_one(shared, &pool, key, &cached) {
                    produced = true;
                    break; // one instance per pass: re-check idleness
                }
            }
        }
        drop(pool);
        if !produced && !bank_producer_pace(shared) {
            return;
        }
    }
}

/// Sleeps one refill interval in slices, waking early — with `false` —
/// the moment the server drains or stops accepting, so a long interval
/// never delays the shutdown-time join.
fn bank_producer_pace(shared: &ServerShared) -> bool {
    let deadline = Instant::now() + shared.config.bank_refill_interval;
    loop {
        if shared.draining.load(Ordering::SeqCst) || !shared.accepting.load(Ordering::SeqCst) {
            return false;
        }
        let Some(left) = deadline.checked_duration_since(Instant::now()) else { return true };
        std::thread::sleep(left.min(Duration::from_millis(10)));
    }
}

/// Garbles one fresh instance of `key` and deposits it. Every instance
/// draws from its own deterministic RNG stream (`bank_seed + seq`), so
/// Δ and the input labels are fresh per deposit.
///
/// Plans with far reads are refused, so those keys always miss and are
/// garbled online. Such a plan exceeds the 2 MB SWW, which makes it
/// `Scale::Paper`-sized (MatMult-paper carries 17 MB of tables per
/// instance; no `Scale::Small` plan spills), and the bank's bound
/// counts instances, not bytes. Whether the bank stays at all is
/// ROADMAP item 7's decision.
fn bank_garble_one(
    shared: &ServerShared,
    pool: &EnginePool,
    key: BankKey,
    cached: &CachedWorkload,
) -> bool {
    let plan = cached.plan();
    if plan.program.has_oor() {
        return false;
    }
    let seq = shared.bank.next_seq();
    let mut rng = StdRng::seed_from_u64(shared.config.bank_seed.wrapping_add(seq));
    let instance = haac_gc::garble_plan_in(&plan.program, &mut rng, cached.config.scheme, pool);
    shared.bank.deposit(key, instance)
}

/// Refuses a connection pre-registration: writes the typed busy ack
/// (best-effort — the peer may already be gone) and counts it. The
/// connection never enters the registry, so refusals cannot block
/// drain and never show up as failed sessions.
fn refuse(shared: &ServerShared, channel: &mut (dyn Channel + Send), reason: RefusalReason) {
    shared.metrics.record_refusal(reason);
    let _ = write_busy(channel, shared.config.busy_retry_after.as_millis() as u64);
}

fn submit_on(
    pool: &Arc<EnginePool>,
    shared: &Arc<ServerShared>,
    channel: Box<dyn Channel + Send>,
) -> Option<SessionId> {
    let mut channel = channel;
    // Admission control, decided before any handshake state exists (the
    // request has not been read — all checks are request-free), so a
    // refusal costs one ack frame, not a worker. While draining, the
    // door stays open only as long as suspended sessions might still be
    // waiting on a reconnect — the session body turns any *fresh*
    // request arriving through that gap away itself.
    let admitted_while_draining = shared.draining.load(Ordering::SeqCst);
    if admitted_while_draining && shared.resume.suspended() == 0 {
        refuse(shared, &mut *channel, RefusalReason::Draining);
        return None;
    }
    // Suspended sessions count against admission: each one pins a
    // worker just like a queued job, so backlog pressure includes them.
    if pool.stats().queued_jobs + shared.resume.suspended() >= shared.config.accept_queue_limit {
        refuse(shared, &mut *channel, RefusalReason::QueueFull);
        return None;
    }
    shared.metrics.record_admission();
    let id = shared.registry.register("?");
    let shared = Arc::clone(shared);
    // The job must not keep the pool alive (the queue holding a closure
    // that owns the pool would be a cycle); it only needs the queue
    // depth for the cold-shed probe, so a weak handle suffices.
    let pool_probe = Arc::downgrade(pool);
    pool.spawn(move || {
        // One poisoned session must not take down the server: protocol
        // errors and panics alike end as a recorded failed outcome.
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            session_body(&shared, &pool_probe, id, channel, admitted_while_draining)
        }));
        match outcome {
            Ok(Ok(SessionVerdict::Completed(report))) => {
                shared.registry.complete(id, Ok(report));
            }
            // Not a session of its own (a resume handoff, or a refusal
            // inside the draining window): leaves no outcome.
            Ok(Ok(SessionVerdict::Detached)) => shared.registry.discard(id),
            Ok(Err(e)) => shared.registry.complete(id, Err(e.to_string())),
            Err(_) => shared
                .registry
                .complete(id, Err("session panicked (contained by the worker)".to_string())),
        }
    });
    Some(id)
}

/// How one accepted connection's job ended when it did not fail.
// The report variant dwarfing `Detached` is fine: exactly one verdict
// lives at a time, at the tail of a session job.
#[allow(clippy::large_enum_variant)]
enum SessionVerdict {
    /// A full garbler session ran to completion on this connection.
    Completed(SessionReport),
    /// The connection was not a session of its own: a resume handoff
    /// (the channel now belongs to the suspended session it revived —
    /// or was dropped when the ticket was unknown), or a fresh request
    /// refused inside the draining window.
    Detached,
}

/// One full garbler-side session: hello → cache fetch → ack (with a
/// resume ticket) → resumable GC — or, for a `Resume` hello, the
/// handoff delivering this connection to the suspended session it
/// revives.
fn session_body(
    shared: &ServerShared,
    pool: &Weak<EnginePool>,
    id: SessionId,
    mut channel: Box<dyn Channel + Send>,
    admitted_while_draining: bool,
) -> Result<SessionVerdict, RuntimeError> {
    // The whole-handshake budget runs from job start: a connection that
    // will not (or only drips) its request is cut off with a typed
    // deadline instead of pinning this worker.
    let handshake_deadline = shared.config.deadlines.handshake.map(|d| Instant::now() + d);
    let request = match read_hello_deadline(&mut *channel, handshake_deadline)? {
        SessionHello::Resume { ticket, next_seq } => {
            // A reconnect reviving a suspended session: hand the whole
            // channel to the parked job and step aside. A fast client
            // can dial back before the cut session has even noticed its
            // dead channel and parked, so an unmatched ticket gets a
            // short grace window before it is declared unknown
            // (expired, evicted, never issued) — at which point this
            // job just hangs up, and the client sees EOF on its resume
            // hello.
            let mut handoff = ResumeHandoff { channel, next_seq };
            for _ in 0..40 {
                handoff = match shared.resume.resume(ticket, handoff) {
                    Ok(()) => return Ok(SessionVerdict::Detached),
                    Err(handoff) => handoff,
                };
                std::thread::sleep(Duration::from_millis(5));
            }
            shared.metrics.record_resume_failure();
            return Ok(SessionVerdict::Detached);
        }
        SessionHello::Request(request) => request,
    };
    if admitted_while_draining {
        // Admission stays open while suspended sessions wait on their
        // reconnects; a *fresh* request slipping through that gap is
        // still turned away. Sessions admitted *before* the drain began
        // run to completion — only connections that entered through the
        // reconnect window are refused here.
        shared.metrics.record_refusal(RefusalReason::Draining);
        let _ = write_busy(&mut *channel, shared.config.busy_retry_after.as_millis() as u64);
        return Ok(SessionVerdict::Detached);
    }
    let Some(kind) = WorkloadKind::from_name(&request.workload) else {
        let reason = format!("unknown workload {:?}", request.workload);
        let _ = write_ack(&mut *channel, Err(&reason));
        return Err(RuntimeError::protocol(reason));
    };
    shared.registry.set_workload(id, kind.name());
    // The schedule: the client's explicit choice, or this server's
    // per-workload policy for a negotiated request. Either way the ack
    // advertises what the session will actually run.
    let reorder = request.reorder.unwrap_or_else(|| choose_reorder(kind));
    // Graceful degradation under pressure: when the backlog is deep,
    // shed the requests that would pay a cold synthesis and keep
    // serving warm cache-resident work at full speed. (The probe is
    // request-aware, so it runs here — after the request is read — and
    // not at admission time.)
    let queued = pool.upgrade().map_or(0, |p| p.stats().queued_jobs);
    if queued >= shared.config.shed_cold_above
        && !shared.cache.contains(kind, request.scale, reorder)
    {
        shared.metrics.record_refusal(RefusalReason::ColdShed);
        let retry_after_ms = shared.config.busy_retry_after.as_millis() as u64;
        let _ = write_busy(&mut *channel, retry_after_ms);
        return Err(RuntimeError::busy(retry_after_ms));
    }
    let cached = shared.cache.get(kind, request.scale, reorder);
    // The OT mode: explicit client choice, or sized from the circuit
    // the cache just produced (extension iff the input count amortizes
    // its κ-OT bootstrap).
    let ot_mode = request
        .ot_mode
        .unwrap_or_else(|| choose_ot_mode(cached.workload.circuit.evaluator_inputs()));
    // The resume ticket rides in the ack; issuing one costs nothing
    // until a cut actually suspends the session. None means this
    // server cannot suspend (store disabled).
    let ticket = shared.resume.capacity_enabled().then(|| shared.tickets.next());
    write_ack(&mut *channel, Ok((reorder, ot_mode, ticket)))?;

    let telemetry = shared.metrics.session_telemetry(kind.name(), reorder);
    let config = cached
        .config
        .clone()
        .with_telemetry(telemetry)
        .with_deadlines(shared.config.deadlines)
        .with_ot_mode(ot_mode);
    let session_start = Instant::now();
    let mut rng = StdRng::seed_from_u64(request.seed);
    // The suspension policy, shared by both serving paths (a banked
    // session suspends and resumes exactly like an online one — resume
    // is byte replay either way). Only resume-safe mid-stream failures
    // reach here. Park under the session's ticket and wait (bounded)
    // for the evaluator to reconnect — unless the ticket was never
    // issued or the server is draining (no *new* suspensions once
    // drain starts).
    let park = |_err: &RuntimeError, _produced: u64| {
        let ticket = ticket?;
        if shared.draining.load(Ordering::SeqCst) {
            return None;
        }
        let parked = shared.resume.park(ticket)?;
        let parked_at = Instant::now();
        match parked.wait(shared.config.resume_ttl) {
            ResumeWait::Resumed(handoff) => {
                shared.metrics.record_resume(parked_at.elapsed().as_micros() as u64);
                Some((handoff.channel, handoff.next_seq))
            }
            ResumeWait::Expired | ResumeWait::Evicted => {
                shared.metrics.record_resume_eviction();
                None
            }
        }
    };
    // The serving-tier split: claim a pre-garbled instance for this
    // exact key and stream it from storage (only the OT/input phase
    // computes online), or fall back to garbling online on a miss. The
    // claim *moves* the instance out of the bank — one-time-use — and
    // the evaluator cannot tell the tiers apart: same header, same
    // framing, same labels-for-its-bits, same decode.
    let banked = shared.bank.claim((kind, request.scale, reorder));
    let from_bank = banked.is_some();
    let report = if let Some(instance) = banked {
        run_garbler_banked(
            &cached.workload.circuit,
            &cached.workload.garbler_bits,
            instance,
            &mut rng,
            &config,
            channel,
            park,
        )?
    } else {
        run_garbler_resumable(
            &cached.workload.circuit,
            &cached.workload.garbler_bits,
            &mut rng,
            &config,
            channel,
            park,
        )?
    };
    // The service computes the canonical VIP sample: the outputs the
    // evaluator shares back must decode to the plaintext reference, so
    // every completed session doubles as an end-to-end correctness
    // check.
    if report.outputs != cached.workload.expected {
        return Err(RuntimeError::protocol(format!(
            "{} outputs diverge from the plaintext reference",
            kind.name()
        )));
    }
    let wall_us = session_start.elapsed().as_micros() as u64;
    if from_bank {
        shared.metrics.record_bank_hit(wall_us);
    }
    shared.metrics.record_session(kind.name(), reorder, wall_us);
    Ok(SessionVerdict::Completed(report))
}
