//! Client-side helpers: the evaluator half of a served session.
//!
//! A client builds (or reuses) the same workload the server will fetch
//! from its cache, sends a [`SessionRequest`], waits for the ack, runs
//! the standard evaluator driver, and checks the decoded outputs
//! against the plaintext reference. Warm clients pass the
//! [`SessionConfig`] they prepared alongside the workload, so the
//! lowering/analysis pass runs once per workload — never per session —
//! on the client side too.
//!
//! # Retrying
//!
//! [`run_session_retrying`] wraps the warm driver in a bounded
//! exponential-backoff-with-decorrelated-jitter [`RetryPolicy`]. It
//! retries **only** errors the error taxonomy marks retry-safe
//! ([`RuntimeError::retry_safe`]): busy refusals and failures before
//! the table stream starts. Once tables have flowed, the garbler's
//! free-XOR label space is spent — replaying against a fresh garbling
//! is the only sound restart, and that is a new *session*, not a
//! retry, so mid-stream failures surface immediately.

use std::net::ToSocketAddrs;
use std::sync::Arc;
use std::time::Duration;

use haac_runtime::{
    run_evaluator_resumable, run_evaluator_with, Channel, RuntimeError, SessionConfig,
    SessionPhase, SessionReport, TcpChannel,
};
use haac_telemetry::{Counter, Registry};
use haac_workloads::{build, Workload, WorkloadKind};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::request::{read_ack, write_request, SessionRequest};

/// Salt folded into the client's RNG seed so the evaluator's OT
/// blinding never reuses the server's garbling stream.
const CLIENT_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// A server that refuses admission does so *before* reading the
/// request and then hangs up — so the client's own request write can
/// fail first. Prefer the typed busy ack already buffered in the
/// channel over the opaque write error; otherwise attribute the write
/// error to the handshake phase.
fn busy_or<C: Channel + ?Sized>(channel: &mut C, write_err: RuntimeError) -> RuntimeError {
    match read_ack(channel) {
        Err(busy @ RuntimeError::Busy { .. }) => busy,
        _ => write_err.in_phase(SessionPhase::Handshake),
    }
}

/// The ack names the schedule and OT mode the server will garble with;
/// a warm client's pre-lowered plan and prepared config must agree or
/// the transcripts diverge.
fn check_ack_matches(
    config: &SessionConfig,
    chosen: haac_runtime::ReorderKind,
    ot_chosen: haac_runtime::OtMode,
) -> Result<(), RuntimeError> {
    if chosen != config.reorder() {
        return Err(RuntimeError::protocol(format!(
            "server chose the {} schedule, this client prepared {}",
            chosen.label(),
            config.reorder().label()
        )));
    }
    if ot_chosen != config.ot_mode {
        return Err(RuntimeError::protocol(format!(
            "server chose {} OT, this client prepared {}",
            ot_chosen.label(),
            config.ot_mode.label()
        )));
    }
    Ok(())
}

/// Builds everything a warm client reuses across sessions of one
/// workload: the circuit + reference outputs and the session config
/// carrying the streaming plan lowered with the **baseline** schedule.
pub fn prepare(kind: WorkloadKind, scale: haac_workloads::Scale) -> (Workload, SessionConfig) {
    prepare_with_reorder(kind, scale, haac_runtime::ReorderKind::Baseline)
}

/// Like [`prepare`], but lowers with the given schedule — pass the same
/// [`ReorderKind`](haac_runtime::ReorderKind) in the
/// [`SessionRequest`] so the server fetches the matching plan (a
/// disagreement is refused in the session handshake).
pub fn prepare_with_reorder(
    kind: WorkloadKind,
    scale: haac_workloads::Scale,
    reorder: haac_runtime::ReorderKind,
) -> (Workload, SessionConfig) {
    let workload = build(kind, scale);
    let config = SessionConfig::for_circuit_with(&workload.circuit, reorder);
    (workload, config)
}

/// Runs one full evaluator session against a served channel, reusing an
/// already-built workload and its prepared config (what a warm client —
/// or `benchmark/`'s closed-loop driver — does; see [`prepare`]).
///
/// # Errors
///
/// Fails on transport errors, a server refusal, protocol violations, or
/// outputs diverging from the workload's plaintext reference.
pub fn run_session_with<C: Channel + Send + ?Sized>(
    channel: &mut C,
    request: &SessionRequest,
    workload: &Workload,
    config: &SessionConfig,
) -> Result<SessionReport, RuntimeError> {
    // Request/ack failures are attributed to the handshake phase: no
    // label has crossed the wire yet, so they are retry-safe (a typed
    // busy refusal passes through `in_phase` untouched).
    write_request(channel, request).map_err(|e| busy_or(channel, e))?;
    let (chosen, ot_chosen, _ticket) =
        read_ack(channel).map_err(|e| e.in_phase(SessionPhase::Handshake))?;
    // The ack names the schedule and OT mode the server will garble
    // with; a warm client's pre-lowered plan and prepared config must
    // agree or the transcripts diverge.
    check_ack_matches(config, chosen, ot_chosen)?;
    let mut rng = StdRng::seed_from_u64(request.seed ^ CLIENT_SEED_SALT);
    let report =
        run_evaluator_with(&workload.circuit, &workload.evaluator_bits, &mut rng, config, channel)?;
    if report.outputs != workload.expected {
        return Err(RuntimeError::protocol(format!(
            "{} outputs diverge from the plaintext reference",
            request.workload
        )));
    }
    Ok(report)
}

/// Like [`run_session_with`], but builds the workload (and lowers its
/// streaming plan) after the ack, from the schedule the server chose —
/// a cold client, and the only way to run a
/// [negotiated](SessionRequest::negotiated) request without guessing
/// the server's policy.
///
/// # Errors
///
/// Fails as [`run_session_with`], or on an unknown workload name.
pub fn run_session<C: Channel + Send + ?Sized>(
    channel: &mut C,
    request: &SessionRequest,
) -> Result<SessionReport, RuntimeError> {
    let kind = WorkloadKind::from_name(&request.workload).ok_or_else(|| {
        RuntimeError::protocol(format!("unknown workload {:?}", request.workload))
    })?;
    write_request(channel, request).map_err(|e| busy_or(channel, e))?;
    let (chosen, ot_chosen, _ticket) =
        read_ack(channel).map_err(|e| e.in_phase(SessionPhase::Handshake))?;
    let (workload, config) = prepare_with_reorder(kind, request.scale, chosen);
    let config = config.with_ot_mode(ot_chosen);
    let mut rng = StdRng::seed_from_u64(request.seed ^ CLIENT_SEED_SALT);
    let report = run_evaluator_with(
        &workload.circuit,
        &workload.evaluator_bits,
        &mut rng,
        &config,
        channel,
    )?;
    if report.outputs != workload.expected {
        return Err(RuntimeError::protocol(format!(
            "{} outputs diverge from the plaintext reference",
            request.workload
        )));
    }
    Ok(report)
}

/// Connects to a TCP server and runs one session end to end with an
/// already-built workload and its prepared config.
///
/// # Errors
///
/// Fails on connection errors or as [`run_session_with`].
pub fn run_tcp_session_with(
    addr: impl ToSocketAddrs,
    request: &SessionRequest,
    workload: &Workload,
    config: &SessionConfig,
) -> Result<SessionReport, RuntimeError> {
    let mut channel = TcpChannel::connect(addr)
        .map_err(|e| RuntimeError::from(e).in_phase(SessionPhase::Connect))?;
    run_session_with(&mut channel, request, workload, config)
}

/// When and how hard [`run_session_retrying`] retries: bounded
/// attempts, exponential backoff with decorrelated jitter (each sleep
/// drawn from `[base, 3 × previous]`, clamped to `cap` — spreads a
/// thundering herd of refused clients instead of re-synchronizing it),
/// and a busy refusal's `retry_after_ms` honored as a floor.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total tries, the first included. 1 disables retrying.
    pub max_attempts: u32,
    /// Smallest sleep between attempts, and the jitter lower bound.
    pub base: Duration,
    /// Largest sleep between attempts — it bounds the jitter draw *and*
    /// the honored server retry hint, so no peer can command an
    /// unbounded client sleep.
    pub cap: Duration,
    /// Seed for the jitter stream — deterministic retry schedules in
    /// tests, distinct per client in fleets.
    pub seed: u64,
    /// Reconnect attempts the **resume** leg may spend when the table
    /// stream cuts out mid-session. This budget is separate from
    /// `max_attempts`: a resume continues the same session instance
    /// (byte replay from the acked cursor) while a retry starts a new
    /// one, and a failed resume is mid-stream and therefore never
    /// retried. 0 disables resuming.
    pub resume_attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base: Duration::from_millis(50),
            cap: Duration::from_secs(2),
            seed: 0x5EED,
            resume_attempts: 2,
        }
    }
}

/// What one retrying call actually did — returned alongside the result
/// so callers (`benchmark/`'s `server.client.retries_per_session`, the
/// overload test in `chaos_sessions`) can audit retry behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Attempts made (≥ 1).
    pub attempts: u32,
    /// Attempts that ended in a retry-safe error and were retried.
    pub retries: u32,
    /// Attempts turned away by admission control (a subset of the
    /// retried or final-error attempts).
    pub busy_refusals: u32,
    /// Whether a retry-safe error ran out of attempts (a non-retryable
    /// error leaves this `false`: retrying was never on the table).
    pub gave_up: bool,
    /// Mid-stream cuts survived by resuming the same session instance
    /// (summed across attempts; reported by the completed sessions).
    pub resumes: u32,
    /// Sessions that died mid-stream with the resume leg unable to
    /// revive them (no ticket, reconnects refused, or the budget ran
    /// out).
    pub resume_failures: u32,
}

/// Live retry counters, shared across a fleet of retrying clients and
/// rendered through a [`haac_telemetry::Registry`].
#[derive(Debug, Clone)]
pub struct RetryTelemetry {
    /// Session attempts started.
    pub attempts: Arc<Counter>,
    /// Retry-safe failures that were retried.
    pub retries: Arc<Counter>,
    /// Typed busy refusals observed.
    pub busy_refusals: Arc<Counter>,
    /// Retryable failures that exhausted their attempt budget.
    pub giveups: Arc<Counter>,
    /// Mid-stream cuts survived by resuming the session.
    pub resumes: Arc<Counter>,
    /// Sessions the resume leg could not revive.
    pub resume_failures: Arc<Counter>,
}

impl RetryTelemetry {
    /// Binds (or re-binds — same labels, same instruments) the client
    /// retry counters in `registry`.
    pub fn register(registry: &Registry) -> RetryTelemetry {
        RetryTelemetry {
            attempts: registry.counter("haac_client_attempts_total", &[]),
            retries: registry.counter("haac_client_retries_total", &[]),
            busy_refusals: registry.counter("haac_client_busy_refusals_total", &[]),
            giveups: registry.counter("haac_client_giveups_total", &[]),
            resumes: registry.counter("haac_client_resumes_total", &[]),
            resume_failures: registry.counter("haac_client_resume_failures_total", &[]),
        }
    }
}

/// Runs one warm session on an already-connected channel, surviving
/// mid-stream cuts by resuming: when the server's ack carries a resume
/// ticket, the evaluator runs the resumable driver and answers each
/// resumable transport failure with up to `policy.resume_attempts`
/// reconnects through `connect`, continuing the same session instance
/// from its acked stream cursor (never re-running it — the garbling is
/// one-time). Without a ticket this is exactly [`run_session_with`].
#[allow(clippy::too_many_arguments)]
fn run_session_resuming<C, F>(
    mut channel: C,
    request: &SessionRequest,
    workload: &Workload,
    config: &SessionConfig,
    policy: &RetryPolicy,
    telemetry: Option<&RetryTelemetry>,
    connect: &mut F,
    stats: &mut RetryStats,
) -> Result<SessionReport, RuntimeError>
where
    C: Channel + Send,
    F: FnMut() -> Result<C, RuntimeError>,
{
    write_request(&mut channel, request).map_err(|e| busy_or(&mut channel, e))?;
    let (chosen, ot_chosen, ticket) =
        read_ack(&mut channel).map_err(|e| e.in_phase(SessionPhase::Handshake))?;
    check_ack_matches(config, chosen, ot_chosen)?;
    let mut rng = StdRng::seed_from_u64(request.seed ^ CLIENT_SEED_SALT);
    let result = match ticket.filter(|_| policy.resume_attempts > 0) {
        None => run_evaluator_with(
            &workload.circuit,
            &workload.evaluator_bits,
            &mut rng,
            config,
            &mut channel,
        ),
        Some(ticket) => {
            let mut budget = policy.resume_attempts;
            run_evaluator_resumable(
                &workload.circuit,
                &workload.evaluator_bits,
                &mut rng,
                config,
                channel,
                ticket,
                |_err, _next_seq| {
                    // The suspended server side is already parked and
                    // waiting, so the first reconnect goes out
                    // immediately; only a failed dial backs off.
                    while budget > 0 {
                        budget -= 1;
                        match connect() {
                            Ok(fresh) => return Some(fresh),
                            Err(_) => std::thread::sleep(policy.base),
                        }
                    }
                    None
                },
            )
        }
    };
    match result {
        Ok(report) => {
            stats.resumes += report.resumes as u32;
            if let Some(t) = telemetry {
                t.resumes.add(report.resumes);
            }
            if report.outputs != workload.expected {
                return Err(RuntimeError::protocol(format!(
                    "{} outputs diverge from the plaintext reference",
                    request.workload
                )));
            }
            Ok(report)
        }
        Err(err) => {
            if err.resume_safe() {
                // A mid-stream transport failure the resume leg could
                // not (or was not allowed to) revive.
                stats.resume_failures += 1;
                if let Some(t) = telemetry {
                    t.resume_failures.inc();
                }
            }
            Err(err)
        }
    }
}

/// Runs a warm session with bounded, jittered retries over fresh
/// connections from `connect`.
///
/// Only retry-safe errors are retried ([`RuntimeError::retry_safe`]):
/// busy refusals, and connect/handshake/OT failures — phases where no
/// garbled table has crossed the wire, so a fresh session replays
/// nothing. Mid-stream transport failures take the **resume** leg
/// instead (separate `resume_attempts` budget; see
/// [`RetryPolicy::resume_attempts`]): the same session instance is
/// continued over a reconnect, and only if that fails does the error
/// surface — as final, since the garbling is spent. Returns the last
/// result plus the [`RetryStats`] of the whole call.
pub fn run_session_retrying<C, F>(
    mut connect: F,
    request: &SessionRequest,
    workload: &Workload,
    config: &SessionConfig,
    policy: &RetryPolicy,
    telemetry: Option<&RetryTelemetry>,
) -> (Result<SessionReport, RuntimeError>, RetryStats)
where
    C: Channel + Send,
    F: FnMut() -> Result<C, RuntimeError>,
{
    let mut rng = StdRng::seed_from_u64(policy.seed);
    let mut stats = RetryStats::default();
    let mut prev_sleep = policy.base;
    loop {
        stats.attempts += 1;
        if let Some(t) = telemetry {
            t.attempts.inc();
        }
        let result = connect().map_err(|e| e.in_phase(SessionPhase::Connect)).and_then(|channel| {
            run_session_resuming(
                channel,
                request,
                workload,
                config,
                policy,
                telemetry,
                &mut connect,
                &mut stats,
            )
        });
        let err = match result {
            Ok(report) => return (Ok(report), stats),
            Err(err) => err,
        };
        let busy_floor = if let RuntimeError::Busy { retry_after_ms } = &err {
            stats.busy_refusals += 1;
            if let Some(t) = telemetry {
                t.busy_refusals.inc();
            }
            Some(Duration::from_millis(*retry_after_ms))
        } else {
            None
        };
        if !err.retry_safe() {
            return (Err(err), stats);
        }
        if stats.attempts >= policy.max_attempts {
            stats.gave_up = true;
            if let Some(t) = telemetry {
                t.giveups.inc();
            }
            return (Err(err), stats);
        }
        stats.retries += 1;
        if let Some(t) = telemetry {
            t.retries.inc();
        }
        // Decorrelated jitter: draw from [base, 3 × previous], clamp to
        // the cap, then respect the server's retry hint as a floor —
        // itself capped at the policy's max delay, so a hostile or
        // misconfigured server cannot command an unbounded sleep.
        let base_us = policy.base.as_micros() as u64;
        let upper_us = (prev_sleep.as_micros() as u64).saturating_mul(3).max(base_us + 1);
        let sleep_us = base_us + rng.gen_range(0..(upper_us - base_us).max(1));
        let mut sleep = Duration::from_micros(sleep_us).min(policy.cap);
        if let Some(floor) = busy_floor {
            sleep = sleep.max(floor.min(policy.cap));
        }
        prev_sleep = sleep;
        std::thread::sleep(sleep);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::write_busy;
    use crate::server::{Server, ServerConfig};
    use haac_runtime::MemChannel;
    use haac_workloads::Scale;

    fn fast_policy(max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts,
            base: Duration::from_millis(1),
            cap: Duration::from_millis(4),
            seed: 11,
            resume_attempts: 2,
        }
    }

    #[test]
    fn retrying_client_recovers_from_a_busy_refusal() {
        let server = Server::new(ServerConfig { workers: 1, ..ServerConfig::default() });
        let (workload, config) = prepare(WorkloadKind::DotProduct, Scale::Small);
        let request = SessionRequest::new("DotProd", Scale::Small, 9);
        let registry = Registry::new();
        let telemetry = RetryTelemetry::register(&registry);
        let mut attempt = 0;
        // The refused channel's server end must stay alive until the
        // client has read the busy ack.
        let mut parked = Vec::new();
        let (result, stats) = run_session_retrying(
            || {
                attempt += 1;
                if attempt == 1 {
                    let (client_end, mut server_end) = MemChannel::pair();
                    write_busy(&mut server_end, 5)?;
                    parked.push(server_end);
                    Ok(client_end)
                } else {
                    Ok(server.connect())
                }
            },
            &request,
            &workload,
            &config,
            &fast_policy(3),
            Some(&telemetry),
        );
        result.expect("the second attempt must succeed");
        assert_eq!(
            stats,
            RetryStats { attempts: 2, retries: 1, busy_refusals: 1, ..RetryStats::default() }
        );
        assert_eq!(telemetry.attempts.get(), 2);
        assert_eq!(telemetry.retries.get(), 1);
        assert_eq!(telemetry.busy_refusals.get(), 1);
        assert_eq!(telemetry.giveups.get(), 0);
        let report = server.shutdown();
        assert_eq!(report.completed, 1);
        assert_eq!(report.failed, 0, "the refused attempt never became a server session");
    }

    #[test]
    fn persistent_busy_exhausts_the_budget_and_gives_up() {
        let (workload, config) = prepare(WorkloadKind::DotProduct, Scale::Small);
        let request = SessionRequest::new("DotProd", Scale::Small, 1);
        let registry = Registry::new();
        let telemetry = RetryTelemetry::register(&registry);
        let mut parked = Vec::new();
        let (result, stats) = run_session_retrying(
            || {
                let (client_end, mut server_end) = MemChannel::pair();
                write_busy(&mut server_end, 2)?;
                parked.push(server_end);
                Ok(client_end)
            },
            &request,
            &workload,
            &config,
            &fast_policy(3),
            Some(&telemetry),
        );
        let err = result.expect_err("every attempt was refused");
        assert!(matches!(err, RuntimeError::Busy { .. }), "final error stays typed: {err}");
        assert_eq!(
            stats,
            RetryStats {
                attempts: 3,
                retries: 2,
                busy_refusals: 3,
                gave_up: true,
                ..RetryStats::default()
            }
        );
        assert_eq!(telemetry.giveups.get(), 1);
    }

    #[test]
    fn a_hostile_retry_hint_cannot_command_an_unbounded_sleep() {
        // The server's retry_after_ms is honored as a sleep floor, but
        // only up to the policy cap: a refusal claiming "retry after an
        // hour" must not stall the client past its own max delay.
        let (workload, config) = prepare(WorkloadKind::DotProduct, Scale::Small);
        let request = SessionRequest::new("DotProd", Scale::Small, 1);
        let mut parked = Vec::new();
        let start = std::time::Instant::now();
        let (result, stats) = run_session_retrying(
            || {
                let (client_end, mut server_end) = MemChannel::pair();
                write_busy(&mut server_end, 3_600_000)?; // one hour
                parked.push(server_end);
                Ok(client_end)
            },
            &request,
            &workload,
            &config,
            &fast_policy(3),
            None,
        );
        result.expect_err("every attempt was refused");
        assert_eq!(stats.busy_refusals, 3);
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "the hour-long hint must be clamped to the policy cap (4ms here)"
        );
    }

    #[test]
    fn non_retryable_errors_are_final_on_the_first_attempt() {
        // The server picks Full for a negotiated DotProd request, but
        // this client prepared a Baseline plan: a deterministic
        // protocol mismatch that retrying can never fix.
        let server = Server::new(ServerConfig { workers: 1, ..ServerConfig::default() });
        let (workload, config) = prepare(WorkloadKind::DotProduct, Scale::Small);
        let request = SessionRequest::negotiated("DotProd", Scale::Small, 2);
        let (result, stats) = run_session_retrying(
            || Ok(server.connect()),
            &request,
            &workload,
            &config,
            &fast_policy(5),
            None,
        );
        let err = result.expect_err("a schedule mismatch must fail");
        assert!(!err.retry_safe());
        assert_eq!(stats.attempts, 1, "non-retryable errors must not be retried");
        assert!(!stats.gave_up);
        server.shutdown();
    }
}
