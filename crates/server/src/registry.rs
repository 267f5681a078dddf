//! The session registry: who is in flight, who finished, and how fast.
//!
//! Every accepted connection is registered before its job is queued and
//! completed exactly once — success or failure — when the job ends
//! (panics included; the server wraps session bodies in `catch_unwind`).
//! Shutdown drains by waiting for the active set to empty, and the
//! aggregate [`ServerReport`] is computed from the completed outcomes:
//! total sessions, aggregate AND-gate throughput over the serving
//! window, and p50/p99 session wall times.
//!
//! A finished session is kept as one packed record in a byte arena —
//! LEB128 of its id, interned label, wall time and the report's numeric
//! fields, under 128 bytes for a successful session against the 256 (on
//! x86-64) of a [`SessionOutcome`] — and decoded only by [`SessionRegistry::outcomes`]
//! and [`SessionRegistry::report`]. What the admin plane polls are the
//! running counters beside it.
//!
//! The arena is interim: `pack` and `Records` mirror [`SessionReport`]
//! field by field only because `benchmark/` indexes outcomes by absolute
//! count, so every one must be kept. They go away when ROADMAP item 5's
//! bounded ring replaces the store.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use haac_gc::CryptoCounters;
use haac_runtime::{SessionReport, SessionRole};

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
#[derive(Debug, Clone, PartialEq)]
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
    /// Index into [`RegistryInner::labels`].
    label: usize,
    registered: Instant,
}

/// Appends `value` as LEB128: seven bits a byte, low bits first, the
/// high bit set on every byte but the last.
fn put(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

fn put_duration(out: &mut Vec<u8>, duration: Duration) {
    put(out, duration.as_secs());
    put(out, duration.subsec_nanos().into());
}

/// Appends one finished session to `out`: id, label index, wall time,
/// then a tag — 0 and the message's length and bytes for a failure, or a
/// non-zero byte of the report's two flags followed by its numbers.
/// `outputs` is not kept (see [`SessionOutcome::result`]).
fn pack(
    out: &mut Vec<u8>,
    id: SessionId,
    label: usize,
    elapsed: Duration,
    result: &Result<SessionReport, String>,
) {
    put(out, id.0);
    put(out, label as u64);
    put_duration(out, elapsed);
    let report = match result {
        Ok(report) => report,
        Err(message) => {
            put(out, 0);
            put(out, message.len() as u64);
            out.extend_from_slice(message.as_bytes());
            return;
        }
    };
    // Destructured in full, so a field added to the report cannot be
    // left out of the record without a compile error.
    let SessionReport {
        role,
        outputs: _,
        bytes_sent,
        bytes_received,
        flushes,
        table_chunks,
        tables,
        peak_live_wires,
        within_window,
        ot_transfers,
        crypto: CryptoCounters { key_expansions, aes_blocks },
        compute_ns,
        io_ns,
        stream_ns,
        overlap_ratio,
        ot_ns,
        base_ots,
        ext_ots,
        ot_io_stall_ns,
        io_stall_ns,
        oor_queue_peak,
        resumes,
        replayed_frames,
        elapsed: session_elapsed,
    } = *report;
    let evaluator = role == SessionRole::Evaluator;
    put(out, 1 | u64::from(evaluator) << 1 | u64::from(within_window) << 2);
    for value in [
        bytes_sent,
        bytes_received,
        flushes,
        table_chunks,
        tables,
        peak_live_wires as u64,
        ot_transfers,
        key_expansions,
        aes_blocks,
        compute_ns,
        io_ns,
        stream_ns,
        overlap_ratio.to_bits(),
        ot_ns,
        base_ots,
        ext_ots,
        ot_io_stall_ns,
        io_stall_ns,
        oor_queue_peak as u64,
        resumes,
        replayed_frames,
    ] {
        put(out, value);
    }
    put_duration(out, session_elapsed);
}

/// Reads back what [`pack`] wrote. The arena is written by this module
/// alone, so a record that does not parse is a bug here, not input.
struct Records<'a> {
    bytes: &'a [u8],
    labels: &'a [Arc<str>],
}

impl Records<'_> {
    fn get(&mut self) -> u64 {
        let mut value = 0;
        for shift in (0..).step_by(7) {
            let (&byte, rest) = self.bytes.split_first().expect("a record ends on a whole field");
            self.bytes = rest;
            value |= u64::from(byte & 0x7F) << shift;
            if byte < 0x80 {
                break;
            }
        }
        value
    }

    fn get_duration(&mut self) -> Duration {
        let secs = self.get();
        Duration::new(secs, self.get() as u32)
    }
}

impl Iterator for Records<'_> {
    type Item = SessionOutcome;

    fn next(&mut self) -> Option<SessionOutcome> {
        if self.bytes.is_empty() {
            return None;
        }
        let id = SessionId(self.get());
        let workload = WorkloadLabel(Arc::clone(&self.labels[self.get() as usize]));
        let elapsed = self.get_duration();
        let flags = self.get();
        let result = if flags == 0 {
            let len = self.get() as usize;
            let (message, rest) = self.bytes.split_at(len);
            self.bytes = rest;
            Err(String::from_utf8(message.to_vec()).expect("packed from a String"))
        } else {
            // Struct fields are evaluated in the order written, which is
            // the order `pack` put them.
            Ok(SessionReport {
                role: if flags & 2 != 0 { SessionRole::Evaluator } else { SessionRole::Garbler },
                within_window: flags & 4 != 0,
                outputs: Vec::new(),
                bytes_sent: self.get(),
                bytes_received: self.get(),
                flushes: self.get(),
                table_chunks: self.get(),
                tables: self.get(),
                peak_live_wires: self.get() as usize,
                ot_transfers: self.get(),
                crypto: CryptoCounters { key_expansions: self.get(), aes_blocks: self.get() },
                compute_ns: self.get(),
                io_ns: self.get(),
                stream_ns: self.get(),
                overlap_ratio: f64::from_bits(self.get()),
                ot_ns: self.get(),
                base_ots: self.get(),
                ext_ots: self.get(),
                ot_io_stall_ns: self.get(),
                io_stall_ns: self.get(),
                oor_queue_peak: self.get() as usize,
                resumes: self.get(),
                replayed_frames: self.get(),
                elapsed: self.get_duration(),
            })
        };
        Some(SessionOutcome { id, workload, elapsed, result })
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    next_id: u64,
    /// One entry per distinct workload label ever seen; records and
    /// active sessions name a label by its index here.
    labels: Vec<Arc<str>>,
    active: HashMap<u64, ActiveSession>,
    /// Every finished session, [`pack`]ed, in completion order.
    finished: Vec<u8>,
    /// How many of those succeeded and failed.
    completed: u64,
    failed: u64,
    /// When the first session was registered / the last one finished —
    /// the serving window aggregate throughput is measured over.
    first_registered: Option<Instant>,
    last_finished: Option<Instant>,
}

impl RegistryInner {
    /// The index of `label`, allocated on its first use only. Labels are
    /// the server's workload names, a handful: a scan finds them.
    fn intern(&mut self, label: &str) -> usize {
        self.labels.iter().position(|known| &**known == label).unwrap_or_else(|| {
            self.labels.push(Arc::from(label));
            self.labels.len() - 1
        })
    }

    fn records(&self) -> Records<'_> {
        Records { bytes: &self.finished, labels: &self.labels }
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
    /// mutation under this lock is an insert, a remove, or a record
    /// appended with its counter, and nothing between those steps can
    /// panic — there is no invariant a mid-critical-section panic could
    /// tear — so a session thread that dies while holding the guard
    /// must not take accounting (and with it drain/shutdown) down with
    /// it.
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
        let label = inner.intern(workload);
        inner.active.insert(id.0, ActiveSession { label, registered: now });
        id
    }

    /// Renames an in-flight session once its request names a workload.
    pub fn set_workload(&self, id: SessionId, workload: &str) {
        let mut inner = self.locked();
        let label = inner.intern(workload);
        if let Some(active) = inner.active.get_mut(&id.0) {
            active.label = label;
        }
    }

    /// Moves a session from active to completed (exactly once per id).
    /// A successful report is kept without its `outputs`; see
    /// [`SessionOutcome::result`].
    pub fn complete(&self, id: SessionId, result: Result<SessionReport, String>) {
        let mut inner = self.locked();
        let Some(active) = inner.active.remove(&id.0) else {
            debug_assert!(false, "{id} completed twice or never registered");
            return;
        };
        pack(&mut inner.finished, id, active.label, active.registered.elapsed(), &result);
        match result {
            Ok(_) => inner.completed += 1,
            Err(_) => inner.failed += 1,
        }
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
        inner.completed + inner.failed + inner.active.len() as u64
    }

    /// Sessions that finished successfully so far.
    pub fn completed_sessions(&self) -> u64 {
        self.locked().completed
    }

    /// Sessions that ended in an error so far.
    pub fn failed_sessions(&self) -> u64 {
        self.locked().failed
    }

    /// A snapshot of every finished session, in completion order.
    pub fn outcomes(&self) -> Vec<SessionOutcome> {
        self.locked().records().collect()
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
        let mut total_and_tables = 0;
        let mut overlap_ratios = 0.0;
        let mut walls = Vec::with_capacity(inner.completed as usize);
        for outcome in inner.records() {
            if let Ok(report) = outcome.result {
                total_and_tables += report.tables;
                overlap_ratios += report.overlap_ratio;
                walls.push(outcome.elapsed.as_secs_f64());
            }
        }
        walls.sort_by(|a, b| a.total_cmp(b));
        let serving_secs = match (inner.first_registered, inner.last_finished) {
            (Some(first), Some(last)) => last.saturating_duration_since(first).as_secs_f64(),
            _ => 0.0,
        };
        ServerReport {
            total_sessions: inner.completed + inner.failed + inner.active.len() as u64,
            completed: inner.completed,
            failed: inner.failed,
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
            mean_overlap_ratio: if walls.is_empty() {
                0.0
            } else {
                overlap_ratios / walls.len() as f64
            },
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

    /// A report whose every numeric field is a distinct function of
    /// `words` — 25 of them, in declaration order.
    fn report_of(words: &[u64]) -> SessionReport {
        let mut words = words.iter().copied();
        let mut next = || words.next().expect("25 words");
        SessionReport {
            role: if next() & 1 == 1 { SessionRole::Evaluator } else { SessionRole::Garbler },
            outputs: Vec::new(),
            bytes_sent: next(),
            bytes_received: next(),
            flushes: next(),
            table_chunks: next(),
            tables: next(),
            peak_live_wires: next() as usize,
            within_window: next() & 1 == 1,
            ot_transfers: next(),
            crypto: CryptoCounters { key_expansions: next(), aes_blocks: next() },
            compute_ns: next(),
            io_ns: next(),
            stream_ns: next(),
            overlap_ratio: f64::from_bits(next()),
            ot_ns: next(),
            base_ots: next(),
            ext_ots: next(),
            ot_io_stall_ns: next(),
            io_stall_ns: next(),
            oor_queue_peak: next() as usize,
            resumes: next(),
            replayed_frames: next(),
            elapsed: Duration::new(next(), (next() % 1_000_000_000) as u32),
        }
    }

    /// The garbler's report of a paper-scale MatMult session, a little
    /// above what `long_stream` reads: the largest record a served
    /// session leaves.
    fn long_stream_report() -> SessionReport {
        SessionReport {
            role: SessionRole::Garbler,
            outputs: vec![true; 64],
            bytes_sent: 17_400_000,
            bytes_received: 4_200,
            flushes: 70,
            table_chunks: 66,
            tables: 538_880,
            peak_live_wires: 131_072,
            within_window: true,
            ot_transfers: 2_048,
            crypto: CryptoCounters { key_expansions: 1_077_760, aes_blocks: 2_155_520 },
            compute_ns: 310_000_000,
            io_ns: 45_000_000,
            stream_ns: 380_000_000,
            overlap_ratio: 0.0,
            ot_ns: 9_000_000,
            base_ots: 128,
            ext_ots: 2_048,
            ot_io_stall_ns: 4_000_000,
            io_stall_ns: 12_000_000,
            oor_queue_peak: 4_096,
            resumes: 1,
            replayed_frames: 7,
            elapsed: Duration::new(1, 400_000_000),
        }
    }

    /// `outputs` aside (never kept), the two outcomes are the same —
    /// `overlap_ratio` compared as bits, so a NaN equals itself.
    fn assert_same(got: &SessionOutcome, want: &SessionOutcome) {
        let strip = |outcome: &SessionOutcome| {
            let mut outcome = outcome.clone();
            let bits = outcome.result.as_mut().ok().map(|report| {
                report.outputs = Vec::new();
                std::mem::take(&mut report.overlap_ratio).to_bits()
            });
            (outcome, bits)
        };
        assert_eq!(strip(got), strip(want));
    }

    /// Bends a uniform word towards the ends of the LEB128 range: the
    /// maximum, zero, any bit length, or the word as it is.
    fn shaped(word: u64, shape: u8) -> u64 {
        match shape % 4 {
            0 => u64::MAX,
            1 => 0,
            2 => word >> (shape / 4),
            _ => word,
        }
    }

    proptest::proptest! {
        #[test]
        fn pack_round_trips_every_field(
            sessions in proptest::collection::vec(
                (
                    proptest::collection::vec(proptest::prelude::any::<u64>(), 28..29),
                    proptest::collection::vec(proptest::prelude::any::<u8>(), 28..29),
                    proptest::collection::vec(0usize..6, 0..12),
                ),
                1..12,
            ),
        ) {
            const LABELS: [&str; 3] = ["DotProd", "?", "Größe-漢"];
            const CHARS: [char; 6] = ['a', 'é', '漢', '🦀', '\0', '"'];
            let labels: Vec<Arc<str>> = LABELS.iter().map(|&label| Arc::from(label)).collect();
            let mut arena = Vec::new();
            let mut packed = Vec::new();
            for (words, shapes, message) in &sessions {
                let words: Vec<u64> =
                    words.iter().zip(shapes).map(|(&word, &shape)| shaped(word, shape)).collect();
                let label = (words[27] % 3) as usize;
                let outcome = SessionOutcome {
                    id: SessionId(words[25]),
                    workload: WorkloadLabel(Arc::clone(&labels[label])),
                    elapsed: Duration::new(words[26], (words[27] % 1_000_000_000) as u32),
                    result: if shapes[27] % 3 == 0 {
                        Err(message.iter().map(|&c| CHARS[c]).collect())
                    } else {
                        Ok(report_of(&words))
                    },
                };
                pack(&mut arena, outcome.id, label, outcome.elapsed, &outcome.result);
                packed.push(outcome);
            }
            let decoded: Vec<SessionOutcome> =
                Records { bytes: &arena, labels: &labels }.collect();
            proptest::prop_assert_eq!(decoded.len(), packed.len());
            for (got, want) in decoded.iter().zip(&packed) {
                assert_same(got, want);
            }
        }
    }

    #[test]
    fn concurrent_completions_come_back_as_given() {
        const THREADS: u64 = 4;
        const EACH: u64 = 200;
        let result_of = |id: SessionId| -> Result<SessionReport, String> {
            if id.0.is_multiple_of(3) {
                Err(format!("{id} failed — ünïcode"))
            } else {
                let words: Vec<u64> = (0..25).map(|field| id.0 * 1_000 + field).collect();
                Ok(report_of(&words))
            }
        };
        let registry = SessionRegistry::new();
        let start = std::sync::Barrier::new(THREADS as usize);
        let per_thread: Vec<Vec<SessionId>> = std::thread::scope(|scope| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (registry, start) = (&registry, &start);
                    scope.spawn(move || {
                        start.wait();
                        (0..EACH)
                            .map(|_| {
                                let id = registry.register("?");
                                registry.set_workload(id, ["Hamm", "ReLU"][(t % 2) as usize]);
                                registry.complete(id, result_of(id));
                                id
                            })
                            .collect()
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().expect("a completing thread")).collect()
        });

        let outcomes = registry.outcomes();
        assert_eq!(outcomes.len() as u64, THREADS * EACH);
        assert_eq!(registry.total_sessions(), THREADS * EACH);
        let failed = outcomes.iter().filter(|o| o.result.is_err()).count() as u64;
        assert_eq!(registry.failed_sessions(), failed);
        assert_eq!(registry.completed_sessions(), THREADS * EACH - failed);
        for (t, ids) in per_thread.iter().enumerate() {
            // A thread's completions keep their order, whatever the
            // other threads interleaved between them.
            let mine: Vec<&SessionOutcome> =
                outcomes.iter().filter(|o| ids.contains(&o.id)).collect();
            assert_eq!(mine.iter().map(|o| o.id).collect::<Vec<_>>(), *ids);
            for outcome in mine {
                assert_eq!(outcome.workload, ["Hamm", "ReLU"][t % 2]);
                assert_eq!(outcome.result, result_of(outcome.id));
            }
        }
    }

    #[test]
    fn a_successful_session_is_kept_in_at_most_128_bytes() {
        let registry = SessionRegistry::new();
        for _ in 0..1_000 {
            let id = registry.register("?");
            registry.set_workload(id, "MatMult");
            registry.complete(id, Ok(long_stream_report()));
        }
        let arena = registry.locked().finished.len();
        assert!(arena <= 1_000 * 128, "{arena} bytes for 1000 sessions");
        let outcomes = registry.outcomes();
        assert!(outcomes[999].result.as_ref().is_ok_and(|report| report.outputs.is_empty()));
        let want = SessionOutcome {
            id: SessionId(1_000),
            workload: outcomes[0].workload.clone(),
            elapsed: outcomes[999].elapsed,
            result: Ok(long_stream_report()),
        };
        assert_same(&outcomes[999], &want);
    }

    /// The aggregation as the parent commit computed it, over whole
    /// [`SessionOutcome`]s.
    fn report_of_outcomes(
        outcomes: &[SessionOutcome],
        active: usize,
        serving_secs: f64,
    ) -> ServerReport {
        let succeeded: Vec<(&SessionOutcome, &SessionReport)> =
            outcomes.iter().filter_map(|o| Some((o, o.result.as_ref().ok()?))).collect();
        let total_and_tables: u64 = succeeded.iter().map(|(_, r)| r.tables).sum();
        let mut walls: Vec<f64> = succeeded.iter().map(|(o, _)| o.elapsed.as_secs_f64()).collect();
        walls.sort_by(|a, b| a.total_cmp(b));
        ServerReport {
            total_sessions: (outcomes.len() + active) as u64,
            completed: succeeded.len() as u64,
            failed: (outcomes.len() - succeeded.len()) as u64,
            active,
            total_and_tables,
            serving_secs,
            aggregate_and_gates_per_sec: if serving_secs > 0.0 {
                total_and_tables as f64 / serving_secs
            } else {
                0.0
            },
            p50_session_secs: percentile(&walls, 50.0),
            p99_session_secs: percentile(&walls, 99.0),
            mean_overlap_ratio: if succeeded.is_empty() {
                0.0
            } else {
                succeeded.iter().map(|(_, r)| r.overlap_ratio).sum::<f64>() / succeeded.len() as f64
            },
        }
    }

    #[test]
    fn report_aggregates_as_the_unpacked_registry_did() {
        let registry = SessionRegistry::new();
        assert_eq!(registry.report(), report_of_outcomes(&[], 0, 0.0));
        let ids: Vec<SessionId> = (0..40).map(|_| registry.register("DotProd")).collect();
        for &id in &ids[..37] {
            registry.complete(
                id,
                if id.0 % 5 == 0 {
                    Err("cut".into())
                } else {
                    let mut report = long_stream_report();
                    report.tables = id.0 * 100;
                    report.overlap_ratio = 1.0 / id.0 as f64;
                    Ok(report)
                },
            );
        }
        let report = registry.report();
        assert_eq!((report.completed, report.failed, report.active), (30, 7, 3));
        assert!(report.serving_secs > 0.0 && report.mean_overlap_ratio > 0.0);
        assert_eq!(report, report_of_outcomes(&registry.outcomes(), 3, report.serving_secs));
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
