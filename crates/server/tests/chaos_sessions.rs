//! Chaos and admission-control integration tests.
//!
//! The robustness contract of the serving layer, pinned end to end:
//! a disconnect at *any* message boundary is a typed, prompt failure
//! that leaves the registry drained and the pool serving; admission
//! control refuses with typed busy acks (hard queue limit, cold-work
//! shedding under pressure, drain mode) instead of accepting work it
//! cannot finish; a slow-loris handshake is cut by the wall-clock
//! deadline rather than pinning a gate-engine worker; and a session
//! cut *mid-stream* — at any message boundary or any byte offset —
//! comes back through the resume path bit-identical to the uncut run,
//! with every replayed chunk coming out of the garbler's buffer rather
//! than a second garbling.

use std::io;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use haac_runtime::{
    Channel, ChannelStats, FaultChannel, FaultSpec, OtMode, RuntimeError, SessionDeadlines,
    SessionPhase,
};
use haac_server::{client, Server, ServerConfig, SessionRequest};
use haac_workloads::Scale;

fn request(name: &str, seed: u64) -> SessionRequest {
    SessionRequest::new(name, Scale::Small, seed)
}

/// One server config used across the chaos tests: small pool, short
/// handshake deadline so stalled sessions fail in test time.
fn chaos_config(workers: usize) -> ServerConfig {
    ServerConfig {
        workers,
        deadlines: SessionDeadlines {
            handshake: Some(Duration::from_secs(5)),
            ot: Some(Duration::from_secs(5)),
            chunk: Some(Duration::from_secs(5)),
        },
        ..ServerConfig::default()
    }
}

#[test]
fn disconnect_at_every_message_boundary_is_typed_and_drains() {
    let server = Server::new(chaos_config(2));
    let (workload, config) =
        client::prepare(haac_workloads::WorkloadKind::DotProduct, Scale::Small);
    let req = request("DotProd", 7);

    // Calibrate: one clean run through a fault-free FaultChannel counts
    // the client-side message boundaries (receives + non-empty
    // flushes) the sweep below will cut at.
    let mut clean = FaultChannel::new(server.connect(), FaultSpec::default(), 1);
    client::run_session_with(&mut clean, &req, &workload, &config)
        .expect("fault-free wrapper must be transparent");
    let total_ops = clean.ops();
    assert!(total_ops > 4, "a session must cross several message boundaries, got {total_ops}");

    // Sweep the boundaries (strided to bound test time, endpoints
    // always included): every cut must surface as a typed error
    // promptly — never a hang, never a panic.
    let stride = (total_ops / 32).max(1);
    let mut cuts: Vec<u64> = (0..total_ops).step_by(stride as usize).collect();
    cuts.extend([1, total_ops - 1]);
    cuts.sort_unstable();
    cuts.dedup();
    let mut healthy = 1u64; // the calibration session
    for &cut in &cuts {
        let start = Instant::now();
        let mut faulty = FaultChannel::new(server.connect(), FaultSpec::cut_at_op(cut), cut);
        let err = client::run_session_with(&mut faulty, &req, &workload, &config)
            .expect_err("a cut session must fail");
        assert!(faulty.is_cut(), "cut {cut} never fired (session has {total_ops} ops)");
        assert!(!err.to_string().is_empty());
        assert!(
            start.elapsed() < Duration::from_secs(20),
            "cut {cut} took {:?} — deadlines must bound the failure",
            start.elapsed()
        );
    }

    // The pool still serves after the whole sweep.
    let mut channel = server.connect();
    client::run_session_with(&mut channel, &req, &workload, &config)
        .expect("the server must keep serving after the sweep");
    healthy += 1;

    assert!(
        server.registry().wait_drained(Duration::from_secs(60)),
        "every cut session must complete (as a failure), not linger"
    );
    for outcome in server.registry().outcomes() {
        if let Err(failure) = &outcome.result {
            assert!(!failure.contains("panicked"), "no session may panic: {failure}");
        }
    }
    let report = server.shutdown();
    assert_eq!(report.active, 0, "registry must drain empty");
    assert_eq!(report.completed, healthy);
    // A cut before the client's first flush can abort the session
    // before any request reaches the server (the server then just sees
    // a clean disconnect) — so failed is bounded by the sweep, not
    // equal to it.
    assert!(report.failed <= cuts.len() as u64);
}

#[test]
fn extension_round_cuts_are_typed_ot_phase_failures_and_retry_safe() {
    // The extension adds wire rounds (base-OT bootstrap, matrix,
    // masked labels) before any garbled table ships. A disconnect in
    // any of them must surface as a typed error; the ones attributed
    // to the OT phase stay retry-safe — the free-XOR label space is
    // untouched until the table stream starts, so a fresh session
    // replays nothing.
    let server = Server::new(chaos_config(2));
    let (workload, config) =
        client::prepare(haac_workloads::WorkloadKind::DotProduct, Scale::Small);
    let config = config.with_ot_mode(OtMode::Extended);
    let req = request("DotProd", 13).with_ot_mode(OtMode::Extended);

    // Calibrate the op count of a clean extended session.
    let mut clean = FaultChannel::new(server.connect(), FaultSpec::default(), 1);
    client::run_session_with(&mut clean, &req, &workload, &config)
        .expect("fault-free extended session must succeed");
    let total_ops = clean.ops();

    let stride = (total_ops / 48).max(1);
    let mut cuts: Vec<u64> = (0..total_ops).step_by(stride as usize).collect();
    cuts.extend([1, total_ops - 1]);
    cuts.sort_unstable();
    cuts.dedup();
    let mut ot_phase_cuts = 0usize;
    for &cut in &cuts {
        let start = Instant::now();
        let mut faulty = FaultChannel::new(server.connect(), FaultSpec::cut_at_op(cut), cut);
        let err = client::run_session_with(&mut faulty, &req, &workload, &config)
            .expect_err("a cut extended session must fail");
        assert!(faulty.is_cut(), "cut {cut} never fired ({total_ops} ops)");
        assert!(start.elapsed() < Duration::from_secs(20), "cut {cut} must be deadline-bounded");
        if err.phase() == Some(SessionPhase::Ot) {
            ot_phase_cuts += 1;
            assert!(
                err.retry_safe(),
                "an OT-phase failure precedes the retry-safety boundary: {err}"
            );
        }
    }
    assert!(
        ot_phase_cuts >= 1,
        "the sweep must land at least one cut inside the extension rounds \
         ({} cuts over {total_ops} ops)",
        cuts.len()
    );

    // The pool still serves extended sessions after the sweep.
    let mut channel = server.connect();
    client::run_session_with(&mut channel, &req, &workload, &config)
        .expect("the server must keep serving after the sweep");
    assert!(server.registry().wait_drained(Duration::from_secs(60)));
    for outcome in server.registry().outcomes() {
        if let Err(failure) = &outcome.result {
            assert!(!failure.contains("panicked"), "no session may panic: {failure}");
        }
    }
    let report = server.shutdown();
    assert_eq!(report.active, 0);
}

#[test]
fn hard_full_accept_queue_refuses_with_typed_busy() {
    // accept_queue_limit 0: every connection is refused pre-handshake.
    let server = Server::new(ServerConfig { accept_queue_limit: 0, ..chaos_config(1) });
    let (workload, config) =
        client::prepare(haac_workloads::WorkloadKind::DotProduct, Scale::Small);
    let mut channel = server.connect();
    let err = client::run_session_with(&mut channel, &request("DotProd", 1), &workload, &config)
        .expect_err("a hard-full queue must refuse");
    let RuntimeError::Busy { retry_after_ms } = err else {
        panic!("expected a typed busy refusal, got: {err}");
    };
    assert_eq!(retry_after_ms, 250, "the default retry hint rides the ack");
    assert!(RuntimeError::busy(retry_after_ms).retry_safe());

    assert_eq!(server.metrics().refusals(), 1);
    assert_eq!(server.metrics().admitted(), 0);
    let snapshot = server.metrics_snapshot();
    let samples = haac_telemetry::parse(&snapshot).expect("snapshot parses");
    assert!(
        samples.iter().any(|s| s.name == "haac_busy_refusals_total"
            && s.label("reason") == Some("queue_full")
            && s.value == 1.0),
        "refusals must be labeled by reason:\n{snapshot}"
    );
    let report = server.shutdown();
    assert_eq!(report.total_sessions, 0, "refused connections never register");
    assert_eq!(report.failed, 0);
}

#[test]
fn overload_sheds_cold_work_but_keeps_serving_warm() {
    // shed_cold_above 0: the server acts permanently overloaded —
    // requests needing a cold synthesis are shed, warm cache-resident
    // work keeps flowing.
    let server = Server::new(ServerConfig { shed_cold_above: 0, ..chaos_config(1) });
    // Prewarm DotProd/Baseline directly in the cache.
    server.cache().get(
        haac_workloads::WorkloadKind::DotProduct,
        Scale::Small,
        haac_runtime::ReorderKind::Baseline,
    );

    // Warm workload: admitted and served.
    let mut warm = server.connect();
    client::run_session(&mut warm, &request("DotProd", 2))
        .expect("warm work must keep being served under pressure");

    // Cold workload: shed with a typed busy ack.
    let (hamm, hamm_config) = client::prepare(haac_workloads::WorkloadKind::Hamming, Scale::Small);
    let mut cold = server.connect();
    let err = client::run_session_with(&mut cold, &request("Hamm", 3), &hamm, &hamm_config)
        .expect_err("cold work must be shed under pressure");
    assert!(matches!(err, RuntimeError::Busy { .. }), "expected busy, got: {err}");

    assert_eq!(server.cache().len(), 1, "the shed request must not have built anything");
    let samples = haac_telemetry::parse(&server.metrics_snapshot()).expect("snapshot parses");
    assert!(samples.iter().any(|s| s.name == "haac_busy_refusals_total"
        && s.label("reason") == Some("cold_shed")
        && s.value == 1.0));
    assert!(server.registry().wait_drained(Duration::from_secs(30)));
    let report = server.shutdown();
    assert_eq!(report.completed, 1);
    assert_eq!(report.failed, 1, "the shed session is a recorded (typed) failure");
    assert_eq!(report.active, 0);
}

#[test]
fn overloaded_retrying_clients_all_land_and_refusals_reconcile() {
    // One worker behind a one-deep accept queue, eight retrying
    // clients: the only place a fleet of `run_session_retrying` callers
    // meets admission control. Counts only — every refusal the server
    // issues is one busy ack some client absorbed, and nobody is lost.
    const CLIENTS: usize = 8;
    let server = Server::new(ServerConfig { accept_queue_limit: 1, ..chaos_config(1) });
    let (workload, config) =
        client::prepare(haac_workloads::WorkloadKind::DotProduct, Scale::Small);
    // Every client's first connection is made before any client says
    // hello: the worker can hold one job and the queue one more, so at
    // least six of the eight first attempts are refused on any schedule.
    let all_connected = Barrier::new(CLIENTS);
    let stats: Vec<client::RetryStats> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS as u64)
            .map(|i| {
                let (server, workload, config) = (&server, &workload, &config);
                let all_connected = &all_connected;
                scope.spawn(move || {
                    let policy = client::RetryPolicy {
                        max_attempts: 512,
                        base: Duration::from_millis(2),
                        cap: Duration::from_millis(10),
                        seed: 0xC11E57 + i,
                        resume_attempts: 2,
                    };
                    // Re-dials are paced by the server's progress, not by
                    // the clock: a refusal means a job was queued when
                    // this client dialled, so the finished count will
                    // move past what it read then. Waiting for that
                    // keeps the retry budget a count of server events,
                    // however slow a session runs on this build.
                    let finished = || {
                        let registry = server.registry();
                        registry.completed_sessions() + registry.failed_sessions()
                    };
                    let mut seen: Option<u64> = None;
                    let connect = || {
                        if let Some(seen) = seen {
                            let give_up = Instant::now() + Duration::from_secs(60);
                            while finished() == seen && Instant::now() < give_up {
                                std::thread::sleep(Duration::from_millis(1));
                            }
                        }
                        let first = seen.is_none();
                        seen = Some(finished());
                        let channel = server.connect();
                        if first {
                            all_connected.wait();
                        }
                        Ok(channel)
                    };
                    let req = request("DotProd", 40 + i);
                    let (result, stats) = client::run_session_retrying(
                        connect, &req, workload, config, &policy, None,
                    );
                    result.expect("every overloaded client lands within its retry budget");
                    stats
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().expect("client thread")).collect()
    });

    assert!(stats.iter().all(|s| !s.gave_up), "no client may exhaust its retry budget");
    let absorbed: u64 = stats.iter().map(|s| u64::from(s.busy_refusals)).sum();
    let refused = server.metrics().refusals();
    assert!(refused >= CLIENTS as u64 - 2, "the fleet must actually overrun the queue");
    assert_eq!(absorbed, refused, "every refusal is a busy ack some client absorbed");
    let samples = haac_telemetry::parse(&server.metrics_snapshot()).expect("snapshot parses");
    let exported: f64 =
        samples.iter().filter(|s| s.name == "haac_busy_refusals_total").map(|s| s.value).sum();
    assert_eq!(exported, refused as f64, "the admin plane reports the same refusals");
    assert!(server.registry().wait_drained(Duration::from_secs(30)));
    let report = server.shutdown();
    assert_eq!(report.completed, CLIENTS as u64);
    assert_eq!(report.failed, 0);
    assert_eq!(report.active, 0);
}

#[test]
fn drain_refuses_new_sessions_while_in_flight_work_finishes() {
    let server = Server::new(chaos_config(1));
    let (workload, config) =
        client::prepare(haac_workloads::WorkloadKind::DotProduct, Scale::Small);

    // In-flight session, admitted before the drain begins; its client
    // only starts talking afterwards.
    let mut admitted = server.connect();
    let in_flight = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(150));
        client::run_session(&mut admitted, &request("DotProd", 4))
    });

    server.begin_drain();
    assert!(server.is_draining());

    // New connections are refused politely while the drain runs.
    let mut late = server.connect();
    let err = client::run_session_with(&mut late, &request("DotProd", 5), &workload, &config)
        .expect_err("a draining server must refuse new sessions");
    assert!(matches!(err, RuntimeError::Busy { .. }), "expected busy, got: {err}");

    in_flight
        .join()
        .expect("client thread")
        .expect("sessions admitted before the drain must run to completion");

    assert!(server.registry().wait_drained(Duration::from_secs(30)));
    let samples = haac_telemetry::parse(&server.metrics_snapshot()).expect("snapshot parses");
    assert!(samples.iter().any(|s| s.name == "haac_busy_refusals_total"
        && s.label("reason") == Some("draining")
        && s.value == 1.0));
    let report = server.shutdown();
    assert_eq!(report.total_sessions, 1, "the refused connection never registered");
    assert_eq!(report.completed, 1);
    assert_eq!(report.active, 0);
}

#[test]
fn slow_loris_handshake_is_cut_by_the_wall_clock_deadline() {
    let mut config = chaos_config(1);
    config.deadlines.handshake = Some(Duration::from_millis(300));
    let server = Server::new(config);

    // A hostile client sends a valid request head and then nothing: a
    // per-read timeout alone would wait forever one frame at a time,
    // but the whole-handshake budget cuts it off.
    let mut loris = server.connect();
    loris.send(&[0x71, 4]).unwrap(); // request tag + claimed name length
    loris.flush().unwrap();
    let start = Instant::now();
    assert!(
        server.registry().wait_drained(Duration::from_secs(10)),
        "the stalled handshake must be reaped by the deadline"
    );
    assert!(start.elapsed() < Duration::from_secs(10));
    let outcomes = server.registry().outcomes();
    assert_eq!(outcomes.len(), 1);
    let failure = outcomes[0].result.as_ref().expect_err("the loris session must fail");
    assert!(
        failure.contains("deadline") && failure.contains("handshake"),
        "the failure must name the deadline and the phase: {failure}"
    );
    drop(loris);

    // The worker the loris would have pinned is free again.
    let mut healthy = server.connect();
    client::run_session(&mut healthy, &request("DotProd", 6)).expect("server must keep serving");
    let report = server.shutdown();
    assert_eq!(report.completed, 1);
    assert_eq!(report.failed, 1);
    assert_eq!(report.active, 0);
}

/// One retrying-client policy for the resume sweeps: tight sleeps so
/// the sweep runs in test time, a resume budget big enough that a
/// reconnect racing the garbler's park never exhausts it.
fn resume_policy(seed: u64) -> client::RetryPolicy {
    client::RetryPolicy {
        max_attempts: 8,
        base: Duration::from_millis(1),
        cap: Duration::from_millis(20),
        seed,
        resume_attempts: 4,
    }
}

#[test]
fn mid_stream_cuts_resume_to_the_uncut_outputs_across_workloads() {
    // The tentpole contract, end to end: cut the evaluator's link at
    // *every* channel operation of the session — a superset of every
    // table-chunk boundary — across three workloads, and every session
    // must still land with the uncut run's outputs. Pre-stream cuts go
    // through the retry leg (nothing garbled yet); mid-stream cuts go
    // through the resume leg — the *same* session instance continues
    // over the reconnect, the garbler replays bytes from its buffer
    // (never garbling a table twice), and both sides' table counts
    // match the uncut baseline exactly.
    for kind in [
        haac_workloads::WorkloadKind::DotProduct,
        haac_workloads::WorkloadKind::BubbleSort,
        haac_workloads::WorkloadKind::Hamming,
    ] {
        let mut config = chaos_config(2);
        // Evictions (a park whose evaluator retried instead of
        // resuming) must free their worker in test time.
        config.resume_ttl = Duration::from_secs(2);
        let server = Server::new(config);
        let (workload, session_config) = client::prepare(kind, Scale::Small);
        let req = request(kind.name(), 21);

        // Baseline: one clean run through a transparent fault wrapper
        // pins the op count, the chunk count, and the reference report.
        let mut clean = FaultChannel::new(server.connect(), FaultSpec::default(), 1);
        let baseline = client::run_session_with(&mut clean, &req, &workload, &session_config)
            .expect("fault-free baseline must succeed");
        let total_ops = clean.ops();
        assert!(baseline.table_chunks >= 1);

        let mut resumed_cuts = 0u64;
        for cut in 0..total_ops {
            let start = Instant::now();
            let mut first = true;
            let policy = resume_policy(0xC0DE + cut);
            let (result, stats) = client::run_session_retrying(
                || {
                    let spec = if first { FaultSpec::cut_at_op(cut) } else { FaultSpec::default() };
                    first = false;
                    Ok(FaultChannel::new(server.connect(), spec, cut))
                },
                &req,
                &workload,
                &session_config,
                &policy,
                None,
            );
            let report = result
                .unwrap_or_else(|e| panic!("cut at op {cut}/{total_ops} must land, got: {e}"));
            assert_eq!(
                report.tables, baseline.tables,
                "cut {cut}: the evaluator must see every table exactly once"
            );
            assert_eq!(report.outputs, baseline.outputs, "cut {cut}: outputs must be identical");
            assert_eq!(stats.resume_failures, 0, "cut {cut}: no resume attempt may die");
            resumed_cuts += u64::from(stats.resumes);
            assert!(
                start.elapsed() < Duration::from_secs(20),
                "cut {cut} took {:?} — recovery must be prompt",
                start.elapsed()
            );
        }
        // Every chunk boundary lies inside the sweep, and each chunk
        // spans several ops — the stream region must have produced at
        // least one resumed cut per chunk.
        assert!(
            resumed_cuts >= baseline.table_chunks,
            "{}: only {resumed_cuts} resumed cuts over {} chunks",
            kind.name(),
            baseline.table_chunks
        );

        // The pool still serves after the sweep.
        let mut channel = server.connect();
        client::run_session_with(&mut channel, &req, &workload, &session_config)
            .expect("the server must keep serving after the sweep");

        assert!(server.registry().wait_drained(Duration::from_secs(60)));
        // Server side of the same story: every resumed session's
        // outcome garbled each table exactly once (tables match the
        // baseline), at least one replay actually came out of the
        // buffer, and the resume counter saw every cut the clients
        // survived.
        let mut server_resumed = 0u64;
        let mut replayed_frames = 0u64;
        for outcome in server.registry().outcomes() {
            match &outcome.result {
                Ok(r) if r.resumes > 0 => {
                    server_resumed += 1;
                    replayed_frames += r.replayed_frames;
                    assert_eq!(
                        r.tables,
                        baseline.tables,
                        "{}: a resumed session re-garbled tables",
                        kind.name()
                    );
                }
                Ok(_) => {}
                Err(failure) => {
                    assert!(!failure.contains("panicked"), "no session may panic: {failure}");
                }
            }
        }
        assert_eq!(server_resumed, resumed_cuts, "{}: registry vs client resumes", kind.name());
        assert_eq!(
            server.metrics().resumed(),
            resumed_cuts,
            "{}: haac_sessions_resumed_total must reflect every cut",
            kind.name()
        );
        assert!(replayed_frames >= 1, "{}: resumes must replay from the buffer", kind.name());
        let samples = haac_telemetry::parse(&server.metrics_snapshot()).expect("snapshot parses");
        assert!(samples
            .iter()
            .any(|s| s.name == "haac_sessions_resumed_total" && s.value == resumed_cuts as f64));
        let report = server.shutdown();
        assert_eq!(report.active, 0, "{}: registry must drain empty", kind.name());
    }
}

/// A [`Channel`] wrapper that kills the link once a byte budget is
/// crossed, in either direction — the byte-granular counterpart of
/// [`FaultSpec::cut_at_op`], so resume coverage is not limited to
/// message boundaries.
#[derive(Debug)]
struct ByteCutChannel<C: Channel> {
    inner: C,
    budget: u64,
    seen: u64,
    cut: bool,
}

impl<C: Channel> ByteCutChannel<C> {
    fn new(inner: C, budget: u64) -> ByteCutChannel<C> {
        ByteCutChannel { inner, budget, seen: 0, cut: false }
    }

    fn charge(&mut self, bytes: usize) -> io::Result<()> {
        if self.cut {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "injected byte cut"));
        }
        self.seen += bytes as u64;
        if self.seen > self.budget {
            self.cut = true;
            return Err(io::Error::new(io::ErrorKind::ConnectionReset, "injected byte cut"));
        }
        Ok(())
    }
}

impl<C: Channel> Channel for ByteCutChannel<C> {
    fn send(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.charge(bytes.len())?;
        self.inner.send(bytes)
    }

    fn recv_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        self.charge(buf.len())?;
        self.inner.recv_exact(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        if self.cut {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "injected byte cut"));
        }
        self.inner.flush()
    }

    fn stats(&self) -> ChannelStats {
        self.inner.stats()
    }

    fn set_io_deadline(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.inner.set_io_deadline(timeout)
    }
}

mod random_byte_cuts {
    use super::*;
    use proptest::prelude::*;
    use std::sync::OnceLock;

    /// Calibration shared across proptest cases: total client-side
    /// bytes and the table count of one clean DotProd Small session.
    fn calibrate() -> (u64, u64) {
        static CAL: OnceLock<(u64, u64)> = OnceLock::new();
        *CAL.get_or_init(|| {
            let server = Server::new(ServerConfig { workers: 1, ..ServerConfig::default() });
            let (workload, config) =
                client::prepare(haac_workloads::WorkloadKind::DotProduct, Scale::Small);
            let mut clean = ByteCutChannel::new(server.connect(), u64::MAX);
            let report =
                client::run_session_with(&mut clean, &request("DotProd", 33), &workload, &config)
                    .expect("calibration session succeeds");
            let total = clean.seen;
            server.shutdown();
            (total, report.tables)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 12 })]

        /// A cut at *any* byte offset of the session — mid-frame, not
        /// just at message boundaries — either retries (pre-stream) or
        /// resumes (mid-stream), and always lands on the uncut outputs
        /// with every table seen exactly once.
        #[test]
        fn any_byte_offset_cut_lands_on_the_uncut_outputs(permille in 0u32..1000u32) {
            let (total_bytes, tables) = calibrate();
            let offset = (u64::from(permille) * total_bytes / 1000).max(1);
            let mut server_config = chaos_config(2);
            server_config.resume_ttl = Duration::from_secs(2);
            let server = Server::new(server_config);
            let (workload, config) =
                client::prepare(haac_workloads::WorkloadKind::DotProduct, Scale::Small);
            let req = request("DotProd", 33);
            let mut first = true;
            let policy = resume_policy(0xB17E ^ offset);
            let (result, stats) = client::run_session_retrying(
                || {
                    let budget = if first { offset } else { u64::MAX };
                    first = false;
                    Ok(ByteCutChannel::new(server.connect(), budget))
                },
                &req,
                &workload,
                &config,
                &policy,
                None,
            );
            let report = result
                .unwrap_or_else(|e| panic!("byte cut at {offset}/{total_bytes} must land: {e}"));
            prop_assert_eq!(report.tables, tables);
            prop_assert_eq!(stats.resume_failures, 0);
            if stats.resumes > 0 {
                prop_assert_eq!(server.metrics().resumed(), u64::from(stats.resumes));
            }
            prop_assert!(server.registry().wait_drained(Duration::from_secs(30)));
            server.shutdown();
        }
    }
}
