//! The server's live metrics plane.
//!
//! One [`ServerMetrics`] wraps a [`haac_telemetry::Registry`] and owns
//! every instrument the serving layer exposes: service-level gauges
//! (active sessions, accept-queue depth, pool utilization), the
//! sliding-window aggregate gates/s, the circuit cache's hit/miss
//! latency split, and — per `(workload, reorder)` — the session
//! counters, wall-time histograms, and the per-chunk stage histograms a
//! running session records into via [`SessionTelemetry`].
//!
//! Rendering follows the Prometheus collect model: point-in-time
//! gauges are refreshed from their owners ([`SessionRegistry`],
//! [`CircuitCache`], [`PoolStats`]) at snapshot time, while counters,
//! rates, and histograms accumulate live from inside sessions. A
//! snapshot is therefore consistent *enough* to scrape mid-load — every
//! instrument is lock-free and a scrape never blocks a session.

use std::sync::Arc;

use haac_gc::PoolStats;
use haac_runtime::{ReorderKind, SessionTelemetry};
use haac_telemetry::{Counter, Gauge, GaugeF, Registry, SlidingRate};

use crate::bank::InstanceBank;
use crate::cache::CircuitCache;
use crate::registry::SessionRegistry;

/// Labels every per-workload instrument carries.
fn workload_labels(workload: &str, reorder: ReorderKind) -> [(&str, &str); 2] {
    [("workload", workload), ("reorder", reorder.label())]
}

/// All server-side instruments, backed by one metrics registry.
#[derive(Debug)]
pub struct ServerMetrics {
    registry: Registry,
    active_sessions: Arc<Gauge>,
    accept_queue_depth: Arc<Gauge>,
    pool_utilization: Arc<GaugeF>,
    sessions_completed: Arc<Gauge>,
    sessions_failed: Arc<Gauge>,
    cache_hits: Arc<Gauge>,
    cache_misses: Arc<Gauge>,
    cache_hit_ns: Arc<Gauge>,
    cache_miss_ns: Arc<Gauge>,
    gates_rate: Arc<SlidingRate>,
    ot_rate: Arc<SlidingRate>,
    sessions_admitted: Arc<Counter>,
    refusals_queue_full: Arc<Counter>,
    refusals_cold_shed: Arc<Counter>,
    refusals_draining: Arc<Counter>,
    sessions_suspended: Arc<Gauge>,
    sessions_resumed: Arc<Counter>,
    resume_evictions: Arc<Counter>,
    resume_failures: Arc<Counter>,
    bank_depth: Arc<Gauge>,
    bank_hits: Arc<Gauge>,
    bank_misses: Arc<Gauge>,
    bank_refills: Arc<Gauge>,
}

/// Why admission control turned a connection away — the label on the
/// busy-refusal counter, and the reason the server logs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RefusalReason {
    /// The accept queue was at its hard limit.
    QueueFull,
    /// Overloaded and the request needed a cold synthesis — warm
    /// (cache-resident) work is preferred under pressure.
    ColdShed,
    /// The server is draining toward shutdown.
    Draining,
}

impl RefusalReason {
    /// The metric-label spelling of the reason.
    pub fn label(self) -> &'static str {
        match self {
            RefusalReason::QueueFull => "queue_full",
            RefusalReason::ColdShed => "cold_shed",
            RefusalReason::Draining => "draining",
        }
    }
}

impl ServerMetrics {
    /// A fresh metrics plane with the service-level instruments
    /// registered (per-workload instruments appear on first use).
    pub fn new() -> ServerMetrics {
        let registry = Registry::new();
        ServerMetrics {
            active_sessions: registry.gauge("haac_active_sessions", &[]),
            accept_queue_depth: registry.gauge("haac_accept_queue_depth", &[]),
            pool_utilization: registry.gauge_f("haac_pool_utilization", &[]),
            sessions_completed: registry.gauge("haac_sessions_completed", &[]),
            sessions_failed: registry.gauge("haac_sessions_failed", &[]),
            cache_hits: registry.gauge("haac_cache_hits", &[]),
            cache_misses: registry.gauge("haac_cache_misses", &[]),
            cache_hit_ns: registry.gauge("haac_cache_hit_ns_total", &[]),
            cache_miss_ns: registry.gauge("haac_cache_miss_ns_total", &[]),
            gates_rate: registry.rate("haac_gates_per_sec", &[]),
            ot_rate: registry.rate("haac_ots_per_sec", &[]),
            sessions_admitted: registry.counter("haac_sessions_admitted_total", &[]),
            refusals_queue_full: registry
                .counter("haac_busy_refusals_total", &[("reason", "queue_full")]),
            refusals_cold_shed: registry
                .counter("haac_busy_refusals_total", &[("reason", "cold_shed")]),
            refusals_draining: registry
                .counter("haac_busy_refusals_total", &[("reason", "draining")]),
            sessions_suspended: registry.gauge("haac_sessions_suspended", &[]),
            sessions_resumed: registry.counter("haac_sessions_resumed_total", &[]),
            resume_evictions: registry.counter("haac_resume_evictions_total", &[]),
            resume_failures: registry.counter("haac_resume_failures_total", &[]),
            bank_depth: registry.gauge("haac_bank_depth", &[]),
            bank_hits: registry.gauge("haac_bank_hits", &[]),
            bank_misses: registry.gauge("haac_bank_misses", &[]),
            bank_refills: registry.gauge("haac_bank_refills", &[]),
            registry,
        }
    }

    /// The underlying instrument registry (for tests and custom
    /// exposition).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The sliding-window aggregate AND-gate rate every session feeds.
    pub fn gates_rate(&self) -> &Arc<SlidingRate> {
        &self.gates_rate
    }

    /// Builds (or re-binds — the registry hands back the same
    /// instruments for the same labels) the live handles one session
    /// records into. Every `(workload, reorder)` pair gets its own
    /// stage histograms; the table counter and gates/s rate are shared
    /// service-wide aggregates.
    pub fn session_telemetry(&self, workload: &str, reorder: ReorderKind) -> Arc<SessionTelemetry> {
        let labels = workload_labels(workload, reorder);
        Arc::new(SessionTelemetry {
            chunk_compute_ns: self.registry.histogram("haac_chunk_compute_ns", &labels),
            chunk_io_ns: self.registry.histogram("haac_chunk_io_ns", &labels),
            oor_occupancy: self.registry.histogram("haac_oor_queue_occupancy", &labels),
            ot_ns: self.registry.histogram("haac_ot_ns", &labels),
            tables: self.registry.counter("haac_tables_total", &[]),
            table_rate: Arc::clone(&self.gates_rate),
            base_ots: self.registry.counter("haac_base_ots_total", &labels),
            ext_ots: self.registry.counter("haac_ext_ots_total", &labels),
            ot_rate: Arc::clone(&self.ot_rate),
        })
    }

    /// Records a connection that cleared admission control.
    pub fn record_admission(&self) {
        self.sessions_admitted.inc();
    }

    /// Records a busy refusal, labeled by the reason.
    pub fn record_refusal(&self, reason: RefusalReason) {
        match reason {
            RefusalReason::QueueFull => self.refusals_queue_full.inc(),
            RefusalReason::ColdShed => self.refusals_cold_shed.inc(),
            RefusalReason::Draining => self.refusals_draining.inc(),
        }
    }

    /// Connections that cleared admission control so far.
    pub fn admitted(&self) -> u64 {
        self.sessions_admitted.get()
    }

    /// Busy refusals so far, summed across reasons.
    pub fn refusals(&self) -> u64 {
        self.refusals_queue_full.get()
            + self.refusals_cold_shed.get()
            + self.refusals_draining.get()
    }

    /// Records one successful session resume and the suspension's
    /// latency — the wall time the session spent parked waiting for its
    /// client to reconnect.
    pub fn record_resume(&self, suspended_us: u64) {
        self.sessions_resumed.inc();
        self.registry.histogram("haac_resume_latency_us", &[]).record(suspended_us);
    }

    /// Records a suspended session the store gave up on: the TTL
    /// expired, or the slot was evicted for a newer suspension.
    pub fn record_resume_eviction(&self) {
        self.resume_evictions.inc();
    }

    /// Records a reconnect that presented a ticket nobody was parked
    /// under (expired, evicted, or never issued).
    pub fn record_resume_failure(&self) {
        self.resume_failures.inc();
    }

    /// Sessions successfully resumed so far.
    pub fn resumed(&self) -> u64 {
        self.sessions_resumed.get()
    }

    /// Records a session served from the pre-garbled bank and its
    /// client-visible wall time — the distribution CI gates against the
    /// warm-compute baseline (storage must beat recompute).
    pub fn record_bank_hit(&self, wall_us: u64) {
        self.registry.histogram("haac_bank_hit_wall_us", &[]).record(wall_us);
    }

    /// Per-workload session accounting, recorded when a served session
    /// completes successfully.
    pub fn record_session(&self, workload: &str, reorder: ReorderKind, wall_us: u64) {
        let labels = workload_labels(workload, reorder);
        self.registry.counter("haac_sessions_total", &labels).inc();
        self.registry.histogram("haac_session_wall_us", &labels).record(wall_us);
    }

    /// Refreshes every point-in-time gauge from its owner. Called at
    /// snapshot time (the Prometheus collect model).
    pub fn refresh(
        &self,
        sessions: &SessionRegistry,
        cache: &CircuitCache,
        bank: &InstanceBank,
        pool: &PoolStats,
        suspended: usize,
    ) {
        self.bank_depth.set(bank.depth() as i64);
        self.bank_hits.set(bank.hits() as i64);
        self.bank_misses.set(bank.misses() as i64);
        self.bank_refills.set(bank.refills() as i64);
        self.sessions_suspended.set(suspended as i64);
        self.active_sessions.set(sessions.active_sessions() as i64);
        self.accept_queue_depth.set(pool.queued_jobs as i64);
        self.pool_utilization.set(pool.utilization());
        self.sessions_completed.set(sessions.completed_sessions() as i64);
        self.sessions_failed.set(sessions.failed_sessions() as i64);
        self.cache_hits.set(cache.hits() as i64);
        self.cache_misses.set(cache.misses() as i64);
        self.cache_hit_ns.set(cache.hit_ns() as i64);
        self.cache_miss_ns.set(cache.miss_ns() as i64);
        for (worker, busy) in pool.worker_busy_ns.iter().enumerate() {
            let worker = worker.to_string();
            self.registry
                .gauge("haac_pool_worker_busy_ns", &[("worker", worker.as_str())])
                .set(*busy as i64);
        }
        // The standard info-metric idiom: environment facts as labels
        // on a constant gauge.
        let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
        let cores = cores.to_string();
        self.registry
            .gauge(
                "haac_build_info",
                &[("aes_backend", haac_gc::active_backend().name()), ("cores", cores.as_str())],
            )
            .set(1);
    }

    /// Renders the full Prometheus-style text snapshot. Refresh first
    /// ([`refresh`](ServerMetrics::refresh)) for current gauge values.
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

impl Default for ServerMetrics {
    fn default() -> ServerMetrics {
        ServerMetrics::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_telemetry_rebinds_to_the_same_instruments() {
        let metrics = ServerMetrics::new();
        let a = metrics.session_telemetry("DotProd", ReorderKind::Full);
        let b = metrics.session_telemetry("DotProd", ReorderKind::Full);
        assert!(Arc::ptr_eq(&a.chunk_compute_ns, &b.chunk_compute_ns));
        assert!(Arc::ptr_eq(&a.table_rate, &b.table_rate));
        let other = metrics.session_telemetry("DotProd", ReorderKind::Baseline);
        assert!(
            !Arc::ptr_eq(&a.chunk_compute_ns, &other.chunk_compute_ns),
            "schedules are distinct series"
        );
        assert!(Arc::ptr_eq(&a.tables, &other.tables), "table counter is service-wide");
        assert!(Arc::ptr_eq(&a.base_ots, &b.base_ots));
        assert!(
            !Arc::ptr_eq(&a.base_ots, &other.base_ots),
            "OT counters are per (workload, reorder) series"
        );
        assert!(Arc::ptr_eq(&a.ot_rate, &other.ot_rate), "OT rate is service-wide");
    }

    #[test]
    fn admission_counters_render_with_reason_labels() {
        let metrics = ServerMetrics::new();
        metrics.record_admission();
        metrics.record_admission();
        metrics.record_refusal(RefusalReason::QueueFull);
        metrics.record_refusal(RefusalReason::ColdShed);
        assert_eq!(metrics.admitted(), 2);
        assert_eq!(metrics.refusals(), 2);
        let samples = haac_telemetry::parse(&metrics.render()).expect("snapshot must parse");
        let queue_full = samples
            .iter()
            .find(|s| {
                s.name == "haac_busy_refusals_total" && s.label("reason") == Some("queue_full")
            })
            .expect("queue_full refusal series");
        assert_eq!(queue_full.value, 1.0);
        assert!(samples.iter().any(|s| s.name == "haac_sessions_admitted_total" && s.value == 2.0));
    }

    #[test]
    fn resume_instruments_render_and_count() {
        let metrics = ServerMetrics::new();
        metrics.record_resume(1500);
        metrics.record_resume(2500);
        metrics.record_resume_eviction();
        metrics.record_resume_failure();
        assert_eq!(metrics.resumed(), 2);
        assert_eq!(metrics.resume_evictions.get(), 1);
        assert_eq!(metrics.resume_failures.get(), 1);
        let samples = haac_telemetry::parse(&metrics.render()).expect("snapshot must parse");
        assert!(samples.iter().any(|s| s.name == "haac_sessions_resumed_total" && s.value == 2.0));
        assert!(samples.iter().any(|s| s.name == "haac_resume_evictions_total" && s.value == 1.0));
        assert!(samples.iter().any(|s| s.name == "haac_resume_failures_total" && s.value == 1.0));
        assert!(samples.iter().any(|s| s.name == "haac_resume_latency_us_count" && s.value == 2.0));
    }

    #[test]
    fn bank_instruments_render_and_count() {
        let metrics = ServerMetrics::new();
        metrics.record_bank_hit(120);
        metrics.record_bank_hit(340);
        let samples = haac_telemetry::parse(&metrics.render()).expect("snapshot must parse");
        assert!(samples.iter().any(|s| s.name == "haac_bank_hit_wall_us_count" && s.value == 2.0));
    }

    #[test]
    fn snapshot_renders_recorded_sessions() {
        let metrics = ServerMetrics::new();
        metrics.record_session("Hamm", ReorderKind::Baseline, 1234);
        metrics.record_session("Hamm", ReorderKind::Baseline, 2345);
        let text = metrics.render();
        let samples = haac_telemetry::parse(&text).expect("snapshot must parse");
        let count = samples
            .iter()
            .find(|s| s.name == "haac_sessions_total" && s.label("workload") == Some("Hamm"))
            .expect("per-workload session counter");
        assert_eq!(count.value, 2.0);
        assert_eq!(count.label("reorder"), Some("Baseline"));
        assert!(samples.iter().any(|s| s.name == "haac_session_wall_us_count"));
    }
}
