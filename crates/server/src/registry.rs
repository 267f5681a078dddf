//! The session registry: who is in flight, who finished, and how fast.
//!
//! Every accepted connection is registered before its job is queued and
//! completed exactly once — success or failure — when the job ends
//! (panics included; the server wraps session bodies in `catch_unwind`).
//! Shutdown drains by waiting for the active set to empty, and the
//! aggregate [`ServerReport`] is computed from the completed outcomes:
//! total sessions, aggregate AND-gate throughput over the serving
//! window, and p50/p99 session wall times.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use haac_runtime::SessionReport;

/// Server-assigned identifier of one accepted session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session#{}", self.0)
    }
}

/// A workload label interned by the registry: every session of one
/// workload shares a single allocation, so a finished session costs the
/// registry a reference count and not a `String`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkloadLabel(Arc<str>);

impl WorkloadLabel {
    /// The label as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl std::fmt::Display for WorkloadLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl PartialEq<&str> for WorkloadLabel {
    fn eq(&self, other: &&str) -> bool {
        &*self.0 == *other
    }
}

/// The record of one finished session.
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The session's id.
    pub id: SessionId,
    /// Workload label (the request's workload once parsed, `"?"` if the
    /// session died before naming one).
    pub workload: WorkloadLabel,
    /// Server-side wall time from acceptance to completion (queue wait
    /// included — what a client experiences under load).
    pub elapsed: Duration,
    /// The garbler-side report, or the failure rendered as a string.
    ///
    /// Every counter and timing of the report is retained; its
    /// `outputs` are not (the vector is empty). The server completes a
    /// session only after checking the outputs against the workload's
    /// plaintext reference, so a copy per finished session would grow
    /// with the server's lifetime and say nothing the workload does not.
    pub result: Result<SessionReport, String>,
}

#[derive(Debug)]
struct ActiveSession {
    workload: WorkloadLabel,
    registered: Instant,
}

#[derive(Debug, Default)]
struct RegistryInner {
    next_id: u64,
    /// One entry per distinct workload label ever seen.
    labels: HashSet<Arc<str>>,
    active: HashMap<u64, ActiveSession>,
    completed: Vec<SessionOutcome>,
    /// When the first session was registered / the last one finished —
    /// the serving window aggregate throughput is measured over.
    first_registered: Option<Instant>,
    last_finished: Option<Instant>,
}

impl RegistryInner {
    /// The shared copy of `label`, allocated on its first use only.
    fn intern(&mut self, label: &str) -> WorkloadLabel {
        if let Some(shared) = self.labels.get(label) {
            return WorkloadLabel(Arc::clone(shared));
        }
        let shared: Arc<str> = Arc::from(label);
        self.labels.insert(Arc::clone(&shared));
        WorkloadLabel(shared)
    }
}

/// Concurrent registry of in-flight and completed sessions.
#[derive(Debug, Default)]
pub struct SessionRegistry {
    inner: Mutex<RegistryInner>,
    drained: Condvar,
}

impl SessionRegistry {
    /// An empty registry.
    pub fn new() -> SessionRegistry {
        SessionRegistry::default()
    }

    /// The registry state, recovering from lock poisoning. Every
    /// mutation under this lock is a single-step insert/remove/push —
    /// there is no multi-field invariant a mid-critical-section panic
    /// could tear — so a session thread that dies while holding the
    /// guard must not take accounting (and with it drain/shutdown)
    /// down with it.
    fn locked(&self) -> MutexGuard<'_, RegistryInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Registers a new in-flight session and returns its id.
    pub fn register(&self, workload: &str) -> SessionId {
        let mut inner = self.locked();
        inner.next_id += 1;
        let id = SessionId(inner.next_id);
        let now = Instant::now();
        inner.first_registered.get_or_insert(now);
        let workload = inner.intern(workload);
        inner.active.insert(id.0, ActiveSession { workload, registered: now });
        id
    }

    /// Renames an in-flight session once its request names a workload.
    pub fn set_workload(&self, id: SessionId, workload: &str) {
        let mut inner = self.locked();
        let workload = inner.intern(workload);
        if let Some(active) = inner.active.get_mut(&id.0) {
            active.workload = workload;
        }
    }

    /// Moves a session from active to completed (exactly once per id).
    /// A successful report is kept without its `outputs`; see
    /// [`SessionOutcome::result`].
    pub fn complete(&self, id: SessionId, mut result: Result<SessionReport, String>) {
        if let Ok(report) = &mut result {
            report.outputs = Vec::new();
        }
        let mut inner = self.locked();
        let Some(active) = inner.active.remove(&id.0) else {
            debug_assert!(false, "{id} completed twice or never registered");
            return;
        };
        let outcome = SessionOutcome {
            id,
            workload: active.workload,
            elapsed: active.registered.elapsed(),
            result,
        };
        inner.completed.push(outcome);
        inner.last_finished = Some(Instant::now());
        if inner.active.is_empty() {
            self.drained.notify_all();
        }
    }

    /// Removes an in-flight session without recording an outcome — for
    /// connections that turn out not to be sessions of their own (a
    /// resume handoff whose channel now belongs to the suspended
    /// session it revived reports through *that* session's outcome).
    pub fn discard(&self, id: SessionId) {
        let mut inner = self.locked();
        if inner.active.remove(&id.0).is_some() && inner.active.is_empty() {
            self.drained.notify_all();
        }
    }

    /// Sessions currently in flight (queued or running).
    pub fn active_sessions(&self) -> usize {
        self.locked().active.len()
    }

    /// Sessions registered so far, finished or not.
    pub fn total_sessions(&self) -> u64 {
        let inner = self.locked();
        inner.completed.len() as u64 + inner.active.len() as u64
    }

    /// A snapshot of every finished session.
    pub fn outcomes(&self) -> Vec<SessionOutcome> {
        self.locked().completed.clone()
    }

    /// Blocks until no session is in flight (or the deadline passes);
    /// returns whether the registry drained.
    pub fn wait_drained(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut inner = self.locked();
        while !inner.active.is_empty() {
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, _) =
                self.drained.wait_timeout(inner, remaining).unwrap_or_else(PoisonError::into_inner);
            inner = guard;
        }
        true
    }

    /// Aggregates the completed outcomes into a [`ServerReport`].
    pub fn report(&self) -> ServerReport {
        let inner = self.locked();
        let completed: Vec<&SessionOutcome> = inner.completed.iter().collect();
        let succeeded: Vec<&SessionOutcome> =
            completed.iter().copied().filter(|o| o.result.is_ok()).collect();
        let total_and_tables: u64 =
            succeeded.iter().map(|o| o.result.as_ref().map(|r| r.tables).unwrap_or(0)).sum();
        let serving_secs = match (inner.first_registered, inner.last_finished) {
            (Some(first), Some(last)) => last.saturating_duration_since(first).as_secs_f64(),
            _ => 0.0,
        };
        let mut walls: Vec<f64> = succeeded.iter().map(|o| o.elapsed.as_secs_f64()).collect();
        walls.sort_by(|a, b| a.total_cmp(b));
        let mean_overlap_ratio = if succeeded.is_empty() {
            0.0
        } else {
            succeeded
                .iter()
                .filter_map(|o| o.result.as_ref().ok().map(|r| r.overlap_ratio))
                .sum::<f64>()
                / succeeded.len() as f64
        };
        ServerReport {
            total_sessions: inner.completed.len() as u64 + inner.active.len() as u64,
            completed: succeeded.len() as u64,
            failed: (completed.len() - succeeded.len()) as u64,
            active: inner.active.len(),
            total_and_tables,
            serving_secs,
            aggregate_and_gates_per_sec: if serving_secs > 0.0 {
                total_and_tables as f64 / serving_secs
            } else {
                0.0
            },
            p50_session_secs: percentile(&walls, 50.0),
            p99_session_secs: percentile(&walls, 99.0),
            mean_overlap_ratio,
        }
    }
}

/// Nearest-rank percentile of an ascending slice (0.0 when empty) —
/// the definition behind the p50/p99 of a [`ServerReport`].
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() - 1) as f64 * p / 100.0).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Aggregate accounting across every session a server has finished.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerReport {
    /// Sessions ever registered (completed + failed + still active).
    pub total_sessions: u64,
    /// Sessions that finished successfully.
    pub completed: u64,
    /// Sessions that ended in an error (isolated; the server survived).
    pub failed: u64,
    /// Sessions still in flight when the report was taken.
    pub active: usize,
    /// AND tables streamed across all successful sessions.
    pub total_and_tables: u64,
    /// The serving window: first registration → last completion.
    pub serving_secs: f64,
    /// `total_and_tables / serving_secs` — the multiplexed throughput
    /// the shared engine pool sustained across concurrent sessions.
    pub aggregate_and_gates_per_sec: f64,
    /// Median successful-session wall time (queue wait included).
    pub p50_session_secs: f64,
    /// 99th-percentile successful-session wall time.
    pub p99_session_secs: f64,
    /// Mean compute/I/O overlap across successful sessions. Server
    /// sessions are garbler-side, so this aggregates the strict
    /// send/flush-overlap metric (0 when every session ran serially;
    /// see `SessionReport::overlap_ratio`).
    pub mean_overlap_ratio: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_moves_sessions_from_active_to_completed() {
        let registry = SessionRegistry::new();
        let a = registry.register("DotProd");
        let b = registry.register("Hamm");
        assert_eq!(registry.active_sessions(), 2);
        registry.complete(a, Err("boom".into()));
        assert_eq!(registry.active_sessions(), 1);
        registry.complete(b, Err("also boom".into()));
        assert!(registry.wait_drained(Duration::from_secs(1)));
        let report = registry.report();
        assert_eq!(report.total_sessions, 2);
        assert_eq!(report.failed, 2);
        assert_eq!(report.completed, 0);
        assert_eq!(report.active, 0);
    }

    #[test]
    fn discarded_sessions_leave_no_outcome_and_unblock_drain() {
        let registry = SessionRegistry::new();
        let id = registry.register("?");
        registry.discard(id);
        assert_eq!(registry.active_sessions(), 0);
        assert!(registry.wait_drained(Duration::from_secs(1)));
        let report = registry.report();
        assert_eq!(report.total_sessions, 0);
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn wait_drained_times_out_while_sessions_run() {
        let registry = SessionRegistry::new();
        let _id = registry.register("ReLU");
        assert!(!registry.wait_drained(Duration::from_millis(10)));
    }

    #[test]
    fn accounting_survives_a_poisoned_lock() {
        let registry = std::sync::Arc::new(SessionRegistry::new());
        let id = registry.register("DotProd");
        let poisoner = std::sync::Arc::clone(&registry);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.inner.lock().unwrap();
            panic!("die holding the registry lock");
        })
        .join();
        // Completion, queries, and drain all still work on the
        // recovered guard — a dead session thread cannot wedge
        // shutdown.
        registry.complete(id, Err("peer vanished".into()));
        assert_eq!(registry.active_sessions(), 0);
        assert!(registry.wait_drained(Duration::from_secs(1)));
        assert_eq!(registry.report().failed, 1);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let walls: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&walls, 50.0), 51.0);
        assert_eq!(percentile(&walls, 99.0), 99.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }
}
