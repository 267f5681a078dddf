//! The gate-engine pool: persistent worker threads shared by a server.
//!
//! A multi-session server runs whole sessions on the pool's engines
//! ([`EnginePool::spawn`]), and its bank producer reads the pool's
//! occupancy ([`EnginePool::stats`]) to garble on idle capacity only.
//! Gate-level parallelism is a property of the compiled plan, not of
//! the pool: the slab executors garble each run of independent AND
//! gates ([`SlotProgram::and_runs`](crate::SlotProgram::and_runs)) as
//! one batched cipher call (paper §3.2's parallel gate engines, on one
//! core's AES pipeline).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// A queued unit of engine work.
type PoolJob = Box<dyn FnOnce() + Send + 'static>;

/// Shared state between an [`EnginePool`]'s owner and its workers.
struct PoolShared {
    queue: Mutex<PoolQueue>,
    work_ready: Condvar,
    /// Nanoseconds each worker has spent executing jobs (index =
    /// worker). The gap to wall time is that engine's idle time — the
    /// per-engine busy/idle split HAAC's evaluation plots.
    worker_busy_ns: Vec<AtomicU64>,
    /// Per-worker start offset (nanoseconds since pool start, saturated
    /// to ≥ 1) of the job currently executing, or 0 when the worker is
    /// idle. Lets [`EnginePool::stats`] attribute *in-flight* busy time:
    /// a long-running session job counts toward utilization while it
    /// runs, not only once it completes.
    worker_job_start_ns: Vec<AtomicU64>,
    /// Jobs completed on pool workers.
    jobs_executed: AtomicU64,
    /// Pool birth instant — the epoch `worker_job_start_ns` offsets and
    /// `uptime` are measured against.
    started: std::time::Instant,
}

struct PoolQueue {
    jobs: VecDeque<PoolJob>,
    shutdown: bool,
}

/// A bounded pool of persistent gate-engine worker threads.
///
/// HAAC provisions a *fixed* number of gate engines and keeps them busy
/// across the whole workload stream; this is the host-side analogue. A
/// pool is created once and shared by a multi-session server, which
/// schedules whole sessions onto its engines
/// ([`spawn`](EnginePool::spawn)) instead of spawning a fresh thread
/// per session.
///
/// Dropping the pool drains the queue and joins every worker.
pub struct EnginePool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for EnginePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EnginePool").field("engines", &self.workers.len()).finish()
    }
}

impl EnginePool {
    /// Starts a pool of `engines` persistent worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `engines` is zero or a worker thread cannot be spawned.
    pub fn new(engines: usize) -> EnginePool {
        assert!(engines > 0, "at least one engine");
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue { jobs: VecDeque::new(), shutdown: false }),
            work_ready: Condvar::new(),
            worker_busy_ns: (0..engines).map(|_| AtomicU64::new(0)).collect(),
            worker_job_start_ns: (0..engines).map(|_| AtomicU64::new(0)).collect(),
            jobs_executed: AtomicU64::new(0),
            started: std::time::Instant::now(),
        });
        let workers = (0..engines)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("haac-engine-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn gate-engine worker")
            })
            .collect();
        EnginePool { shared, workers }
    }

    /// Number of worker threads in the pool.
    pub fn engines(&self) -> usize {
        self.workers.len()
    }

    /// A point-in-time utilization snapshot: per-engine busy time,
    /// queued-but-unstarted jobs, in-flight jobs, and completed job
    /// count. Lock cost is one queue-length peek; the rest reads relaxed
    /// atomics, so the admin plane can poll this on a live pool.
    ///
    /// Busy time *includes the running portion of in-flight jobs*: a
    /// worker occupied by a long-lived session job counts as busy from
    /// the moment it picked the job up, not only once the job completes.
    /// (A job finishing between the two per-worker reads may be briefly
    /// undercounted; the gauge is a snapshot, not a ledger.)
    pub fn stats(&self) -> PoolStats {
        let queued_jobs = self.shared.queue.lock().expect("pool lock").jobs.len();
        let now_ns = self.shared.started.elapsed().as_nanos() as u64;
        let mut active_jobs = 0;
        let worker_busy_ns = self
            .shared
            .worker_busy_ns
            .iter()
            .zip(&self.shared.worker_job_start_ns)
            .map(|(busy, start)| {
                let completed = busy.load(Ordering::Relaxed);
                let start = start.load(Ordering::Relaxed);
                if start == 0 {
                    completed
                } else {
                    active_jobs += 1;
                    completed + now_ns.saturating_sub(start)
                }
            })
            .collect();
        PoolStats {
            engines: self.workers.len(),
            queued_jobs,
            active_jobs,
            jobs_executed: self.shared.jobs_executed.load(Ordering::Relaxed),
            worker_busy_ns,
            uptime: self.shared.started.elapsed(),
        }
    }

    /// Queues a free-standing job. Returns immediately; the job runs on
    /// the next free engine. A panicking job is contained to itself —
    /// the worker survives and keeps serving the queue.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        let mut queue = self.shared.queue.lock().expect("pool lock");
        debug_assert!(!queue.shutdown, "spawn after shutdown");
        queue.jobs.push_back(Box::new(job));
        drop(queue);
        self.shared.work_ready.notify_one();
    }
}

impl Drop for EnginePool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("pool lock");
            queue.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, worker: usize) {
    loop {
        let job = {
            let mut queue = shared.queue.lock().expect("pool lock");
            loop {
                if let Some(job) = queue.jobs.pop_front() {
                    break job;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.work_ready.wait(queue).expect("pool lock");
            }
        };
        // Contain per-job panics: one poisoned job must not take down
        // the engine (mirrors per-session error isolation upstream).
        let busy = std::time::Instant::now();
        // 0 means idle, so a job starting at the pool's birth instant
        // saturates to offset 1 (a 1 ns attribution error at most).
        shared.worker_job_start_ns[worker]
            .store((shared.started.elapsed().as_nanos() as u64).max(1), Ordering::Relaxed);
        let _ = catch_unwind(AssertUnwindSafe(job));
        shared.worker_job_start_ns[worker].store(0, Ordering::Relaxed);
        shared.worker_busy_ns[worker]
            .fetch_add(busy.elapsed().as_nanos() as u64, Ordering::Relaxed);
        shared.jobs_executed.fetch_add(1, Ordering::Relaxed);
    }
}

/// A point-in-time snapshot of an [`EnginePool`]'s occupancy — what
/// [`EnginePool::stats`] returns and the serving layer's admin plane
/// exports as pool gauges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads in the pool.
    pub engines: usize,
    /// Jobs queued but not yet picked up by a worker (the server's
    /// accept-queue depth when sessions are the only spawners).
    pub queued_jobs: usize,
    /// Jobs currently executing on workers. `engines - active_jobs` is
    /// the pool's idle capacity — what a background producer may drain
    /// without delaying foreground sessions.
    pub active_jobs: usize,
    /// Jobs completed on pool workers since the pool started.
    pub jobs_executed: u64,
    /// Nanoseconds each worker has spent executing jobs.
    pub worker_busy_ns: Vec<u64>,
    /// Wall time since the pool started.
    pub uptime: Duration,
}

impl PoolStats {
    /// Busy nanoseconds summed across all workers.
    pub fn busy_ns(&self) -> u64 {
        self.worker_busy_ns.iter().sum()
    }

    /// Fraction of the pool's total engine-seconds spent executing
    /// jobs, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let capacity = self.uptime.as_nanos() as f64 * self.engines as f64;
        if capacity <= 0.0 {
            0.0
        } else {
            (self.busy_ns() as f64 / capacity).clamp(0.0, 1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::garble::garble;
    use crate::hash::HashScheme;
    use crate::instance::garble_plan_in;
    use crate::stream::baseline_plan;
    use haac_circuit::{Builder, Circuit};
    use rand::{rngs::StdRng, SeedableRng};

    fn wide_circuit() -> Circuit {
        // 64 independent AND columns feeding an AND/XOR reduction chain:
        // full batches first, then runs of one.
        let mut b = Builder::new();
        let x = b.input_garbler(64);
        let y = b.input_evaluator(64);
        let ands: Vec<_> = x.iter().zip(&y).map(|(&a, &c)| b.and(a, c)).collect();
        let mut acc = ands[0];
        for &w in &ands[1..] {
            let t = b.and(acc, w);
            acc = b.xor(t, w);
        }
        b.finish(vec![acc]).unwrap()
    }

    #[test]
    #[should_panic(expected = "at least one engine")]
    fn zero_engines_rejected() {
        let _ = EnginePool::new(0);
    }

    /// The mid-load utilization regression: a worker occupied by a job
    /// that has not *completed* must still count as busy. (Session jobs
    /// run for the session's whole lifetime, so completion-only
    /// accounting reported 0% utilization under full load.)
    #[test]
    fn stats_attribute_in_flight_jobs() {
        let pool = EnginePool::new(1);
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let (started_tx, started_rx) = std::sync::mpsc::channel::<()>();
        pool.spawn(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        started_rx.recv().unwrap();
        std::thread::sleep(Duration::from_millis(5));
        let stats = pool.stats();
        assert_eq!(stats.active_jobs, 1, "one job in flight");
        assert_eq!(stats.jobs_executed, 0, "not yet completed");
        assert!(stats.busy_ns() > 0, "in-flight busy time attributed");
        assert!(stats.utilization() > 0.0, "mid-load utilization nonzero");
        release_tx.send(()).unwrap();
        // After completion the in-flight share hands over to the
        // completed ledger without double counting to > uptime.
        loop {
            let stats = pool.stats();
            if stats.jobs_executed == 1 {
                assert_eq!(stats.active_jobs, 0);
                assert!(stats.busy_ns() > 0);
                assert!(stats.utilization() <= 1.0);
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn pooled_garbling_matches_the_raw_netlist_transcript_and_reuses_the_pool() {
        let c = wide_circuit();
        let mut rng = StdRng::seed_from_u64(33);
        let reference = garble(&c, &mut rng);
        let pool = EnginePool::new(3);
        // Several garblings handed the *same* pool, identical transcripts
        // every time (baseline-order slab garbling is bit-identical to
        // the raw netlist's table stream).
        let plan = baseline_plan(&c);
        for rep in 0..3 {
            let mut rng = StdRng::seed_from_u64(33);
            let pooled = garble_plan_in(&plan, &mut rng, HashScheme::Rekeyed, &pool);
            assert_eq!(pooled.delta, reference.delta, "rep={rep}");
            assert_eq!(pooled.tables, reference.garbled.tables, "rep={rep}");
            assert_eq!(pooled.output_decode, reference.garbled.output_decode, "rep={rep}");
            assert_eq!(pooled.crypto, reference.crypto, "rep={rep}");
        }
    }

    #[test]
    fn plan_garbling_matches_the_streaming_slab_path_for_every_engine_count() {
        use crate::stream::StreamingGarbler;

        let c = wide_circuit();
        let plan = baseline_plan(&c);
        let mut rng = StdRng::seed_from_u64(91);
        let mut single = StreamingGarbler::with_plan(&plan, &mut rng, HashScheme::Rekeyed);
        let mut reference_tables = Vec::new();
        while let Some(chunk) = single.next_tables(777) {
            reference_tables.extend(chunk);
        }
        let delta = single.delta();
        let finish = single.finish();
        let pool = EnginePool::new(2);
        let mut rng = StdRng::seed_from_u64(91);
        let pooled = garble_plan_in(&plan, &mut rng, HashScheme::Rekeyed, &pool);
        assert_eq!(pooled.delta, delta);
        assert_eq!(pooled.tables, reference_tables);
        assert_eq!(pooled.output_decode, finish.output_decode);
        assert_eq!(pooled.crypto, finish.crypto);
    }

    #[test]
    fn pool_spawn_runs_jobs_and_survives_panics() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Arc;

        let pool = EnginePool::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        // A poisoned job must not take a worker down with it.
        pool.spawn(|| panic!("poisoned job"));
        for _ in 0..8 {
            let ran = Arc::clone(&ran);
            pool.spawn(move || {
                ran.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // drains the queue and joins the workers
        assert_eq!(ran.load(Ordering::SeqCst), 8);
    }
}
