//! Multi-engine garbling: the software mirror of HAAC's parallel gate
//! engines.
//!
//! HAAC reaches throughput by running up to 16 gate engines in
//! parallel, each garbling an independent gate scheduled inside the
//! sliding wire window (paper §3.2). This module reproduces that
//! execution model on host threads, and there is one wave scheduler:
//! [`garble_plan_in`] walks a **renamed [`SlotProgram`]** on a shared
//! [`EnginePool`]. The program is considered in slices of the plan's
//! static window bound (no per-call sizing), each slice is peeled into
//! waves of mutually independent gates (a gate joins a wave once both
//! its input labels exist), XOR/INV relabelings are applied inline, and
//! every wave's AND gates fan out across the pool's engines. In-slice
//! dependencies are pure arithmetic over slab addresses, and all
//! engines share one slot slab — the co-design path the compiler's
//! renaming pays for.
//!
//! Determinism is a hard contract, exactly as it is for HAAC's
//! hardware: tables are emitted in gate order and every label is a pure
//! function of (Δ, input labels, gate index), so the transcript is
//! **bit-identical** to the oracle [`garble`](crate::garble()) for any
//! engine count — the equivalence tests drive all eight VIP-Bench
//! workloads through the pool and compare transcripts with it.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use rand::Rng;

use crate::block::{Block, Delta};
use crate::garble::{garble_and_batch, garble_inv, garble_xor, MAX_AND_BATCH};
use crate::hash::{CryptoCounters, GateHash, HashScheme};
use crate::slab::{SlabState, SlotOp, SlotProgram};

/// Below this many AND gates in a wave, threads cost more than they
/// save and the wave runs inline.
const PARALLEL_THRESHOLD: usize = 4 * MAX_AND_BATCH;

/// A queued unit of engine work, tagged with the scope that owns it
/// (`0` for free-standing [`EnginePool::spawn`] jobs).
type PoolJob = (u64, Box<dyn FnOnce() + Send + 'static>);

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
    /// Jobs completed on pool workers. Scope jobs a *waiting caller*
    /// executed inline are not counted: they never occupied an engine.
    jobs_executed: AtomicU64,
    /// Pool birth instant — the epoch `worker_job_start_ns` offsets and
    /// `uptime` are measured against.
    started: std::time::Instant,
}

struct PoolQueue {
    jobs: VecDeque<PoolJob>,
    shutdown: bool,
}

/// Distinguishes scopes so a waiting scope only "helps" with its own
/// jobs (never gets stuck executing an unrelated long-running job).
static NEXT_SCOPE_ID: AtomicU64 = AtomicU64::new(1);

/// A bounded pool of persistent gate-engine worker threads.
///
/// HAAC provisions a *fixed* number of gate engines and keeps them busy
/// across the whole workload stream; this is the host-side analogue. A
/// pool is created once and shared — by a multi-session server
/// scheduling whole sessions onto engines ([`spawn`](EnginePool::spawn))
/// and by parallel garbling fanning waves of independent AND gates
/// across them ([`scope`](EnginePool::scope) via [`garble_plan_in`]) —
/// instead of spawning fresh threads per session or per wave.
///
/// Deadlock freedom: a thread blocked in [`scope`](EnginePool::scope)
/// executes its own still-queued jobs while it waits, so waves make
/// progress even when every worker is occupied by long-running session
/// jobs.
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
        self.enqueue((0, Box::new(job)));
    }

    /// Runs a batch of *borrowed* jobs to completion: `f` submits jobs
    /// against the scope, and `scope` returns only once every submitted
    /// job has finished (executing still-queued ones on the calling
    /// thread while it waits).
    ///
    /// # Panics
    ///
    /// Panics after all jobs finish if any job panicked; a panic in `f`
    /// itself is re-raised, also only after every already-submitted job
    /// has finished.
    pub fn scope<'env, F>(&self, f: F)
    where
        F: FnOnce(&PoolScope<'_, 'env>),
    {
        let scope = PoolScope {
            pool: self,
            id: NEXT_SCOPE_ID.fetch_add(1, Ordering::Relaxed),
            state: Arc::new(ScopeState {
                pending: Mutex::new(0),
                done: Condvar::new(),
                panicked: AtomicBool::new(false),
            }),
            _env: std::marker::PhantomData,
        };
        // The transmute in `submit` is sound only if every submitted job
        // finishes before `scope` returns *or unwinds* — so an unwind
        // out of `f` must still drain the queue before it continues
        // (the same obligation std::thread::scope discharges).
        let body = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        scope.wait();
        if let Err(payload) = body {
            std::panic::resume_unwind(payload);
        }
        if scope.state.panicked.load(Ordering::Relaxed) {
            panic!("engine pool scope job panicked");
        }
    }

    fn enqueue(&self, job: PoolJob) {
        let mut queue = self.shared.queue.lock().expect("pool lock");
        debug_assert!(!queue.shutdown, "enqueue after shutdown");
        queue.jobs.push_back(job);
        drop(queue);
        self.shared.work_ready.notify_one();
    }

    /// Pops a queued job belonging to `scope_id`, if any.
    fn take_scoped(&self, scope_id: u64) -> Option<Box<dyn FnOnce() + Send + 'static>> {
        let mut queue = self.shared.queue.lock().expect("pool lock");
        let position = queue.jobs.iter().position(|(id, _)| *id == scope_id)?;
        queue.jobs.remove(position).map(|(_, job)| job)
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
                if let Some((_, job)) = queue.jobs.pop_front() {
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

struct ScopeState {
    pending: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

/// Submission handle inside [`EnginePool::scope`]; jobs may borrow from
/// the enclosing `'env` because the scope blocks until they finish.
pub struct PoolScope<'p, 'env> {
    pool: &'p EnginePool,
    id: u64,
    state: Arc<ScopeState>,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl std::fmt::Debug for PoolScope<'_, '_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolScope").field("id", &self.id).finish()
    }
}

impl<'env> PoolScope<'_, 'env> {
    /// Queues one job of this scope.
    pub fn submit(&self, job: impl FnOnce() + Send + 'env) {
        *self.state.pending.lock().expect("scope lock") += 1;
        let state = Arc::clone(&self.state);
        let wrapped = move || {
            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                state.panicked.store(true, Ordering::Relaxed);
            }
            let mut pending = state.pending.lock().expect("scope lock");
            *pending -= 1;
            if *pending == 0 {
                state.done.notify_all();
            }
        };
        let boxed: Box<dyn FnOnce() + Send + 'env> = Box::new(wrapped);
        // SAFETY: `scope` does not return before `pending` reaches zero,
        // i.e. before this job has run to completion, so every borrow
        // with lifetime 'env strictly outlives the job's execution. The
        // pool itself is borrowed for 'p, so it cannot be dropped (and
        // cannot abandon the queue) while the scope is alive.
        let boxed: Box<dyn FnOnce() + Send + 'static> = unsafe { std::mem::transmute(boxed) };
        self.pool.enqueue((self.id, boxed));
    }

    /// Blocks until every submitted job has completed, executing this
    /// scope's still-queued jobs inline while waiting.
    fn wait(&self) {
        loop {
            while let Some(job) = self.pool.take_scoped(self.id) {
                let _ = catch_unwind(AssertUnwindSafe(job));
            }
            let pending = self.state.pending.lock().expect("scope lock");
            if *pending == 0 {
                break;
            }
            // The remaining jobs are in flight on workers; the timeout
            // only guards the race with a job popped-but-not-yet-run.
            let (pending, _) = self
                .state
                .done
                .wait_timeout(pending, Duration::from_millis(10))
                .expect("scope lock");
            if *pending == 0 {
                break;
            }
        }
    }
}

/// A pooled garbling of a renamed [`SlotProgram`]: everything the
/// protocol ships or keeps, without materializing per-wire labels
/// (the slab forgets a label the moment its window slides past —
/// exactly as the streaming executors do).
///
/// Bit-identical to driving [`crate::StreamingGarbler::with_plan`] to
/// completion with the same seed: same Δ, same input labels, same table
/// stream, same decode string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanGarbling {
    /// The global FreeXOR offset.
    pub delta: Delta,
    /// Zero labels of all primary inputs (garbler inputs first).
    pub input_zero_labels: Vec<Block>,
    /// The garbled AND tables, in stream order.
    pub tables: Vec<[Block; 2]>,
    /// Permute bits of the output wires' zero labels.
    pub output_decode: Vec<bool>,
    /// Cipher work performed.
    pub crypto: CryptoCounters,
}

impl PlanGarbling {
    /// Encodes both parties' cleartext bits into active input labels
    /// (garbler bits first), as [`crate::StreamingGarbler::encode_inputs`]
    /// does.
    ///
    /// # Panics
    ///
    /// Panics if the combined width does not match the garbling's input
    /// count.
    pub fn encode_inputs(&self, garbler_bits: &[bool], evaluator_bits: &[bool]) -> Vec<Block> {
        assert_eq!(
            garbler_bits.len() + evaluator_bits.len(),
            self.input_zero_labels.len(),
            "input width"
        );
        garbler_bits
            .iter()
            .chain(evaluator_bits)
            .zip(&self.input_zero_labels)
            .map(|(&bit, &zero)| if bit { zero ^ self.delta.block() } else { zero })
            .collect()
    }
}

/// Garbles a renamed [`SlotProgram`] with the engine pool's wave
/// scheduler — the HAAC co-design hot path at full width.
///
/// The instruction stream is walked in slices of the plan's **static
/// window bound** ([`SlotProgram::slot_wires`] — no per-call lookahead
/// sizing), each slice is peeled into waves of mutually independent
/// gates, and every wave's AND gates fan out across the pool's
/// engines. Because renaming makes output addresses sequential, the
/// in-slice dependency graph needs **no hash maps**: operand `addr`
/// depends on in-slice producer `addr - slice_first` by arithmetic
/// alone.
///
/// All engines share one slot slab. In-slice results are
/// staged in a window-sized buffer and committed to the slab in
/// ascending address order at the slice boundary, so out-of-order wave
/// execution can never clobber a slot a logically earlier instruction
/// still has to read (the write-after-read hazard the hardware's
/// in-window issue rule prevents).
///
/// The transcript — Δ, input labels, every table, the decode string —
/// is **bit-identical** to the single-engine slab path
/// ([`crate::StreamingGarbler::with_plan`]) for any engine count.
///
/// # Panics
///
/// Panics if the plan routes reads through the OoRW queue
/// ([`SlotProgram::has_oor`]): queue pops are ordered by the stream, so
/// OoR plans must run on the in-order streaming executors.
pub fn garble_plan_in<R: Rng + ?Sized>(
    plan: &SlotProgram,
    rng: &mut R,
    scheme: HashScheme,
    pool: &EnginePool,
) -> PlanGarbling {
    assert!(
        !plan.has_oor(),
        "pooled garbling needs an in-window plan; OoRW plans run on the streaming executors"
    );
    // Same draw order as StreamingGarbler::with_plan: Δ first, then
    // input labels — a shared seed yields a bit-identical garbling.
    let hash = GateHash::new(scheme);
    let delta = Delta::random(rng);
    let input_zero_labels: Vec<Block> =
        (0..plan.num_inputs()).map(|_| Block::random(rng)).collect();
    let mut state = SlabState::new(plan);
    for (w, &label) in input_zero_labels.iter().enumerate() {
        state.write(w as u32 + 1, label);
    }

    let instrs = plan.instrs();
    let first_out = plan.first_output_addr();
    // Slice length = the plan's static window bound: every operand of a
    // sliced instruction is either a slab-resident earlier address
    // (distance ≤ window by the plan contract) or an in-slice output.
    let slice_len = plan.slot_wires() as usize;
    let mut tables: Vec<[Block; 2]> = Vec::with_capacity(plan.and_count());
    let mut and_jobs: Vec<(usize, Block, Block)> = Vec::new();
    let mut and_results: Vec<(Block, [Block; 2])> = Vec::new();
    // In-slice output labels, staged here and committed to the slab in
    // ascending order at the slice boundary (WAR-hazard free).
    let mut out_labels: Vec<Block> = Vec::new();
    // Tables of the current slice, slotted by AND position so emission
    // order is stream order regardless of which wave computed each.
    let mut window_tables: Vec<[Block; 2]> = Vec::new();
    // Slice-local dependency graph, rebuilt (capacity reused) per
    // slice: pending in-slice operand counts and a CSR consumer list,
    // so every instruction and edge is visited O(1) times instead of
    // rescanning the slice every wave. There is no producer map —
    // renaming made "who writes address a" pure arithmetic.
    let mut pending: Vec<u8> = Vec::new();
    let mut slots: Vec<u32> = Vec::new();
    let mut edge_start: Vec<u32> = Vec::new();
    let mut edges: Vec<u32> = Vec::new();
    let mut cursor: Vec<u32> = Vec::new();
    let mut ready_free: Vec<u32> = Vec::new();
    let mut ready_and: Vec<u32> = Vec::new();

    let mut start = 0usize;
    while start < instrs.len() {
        let end = (start + slice_len).min(instrs.len());
        let window = &instrs[start..end];
        let wlen = window.len();
        let slice_first = first_out + start as u32; // address written by window[0]

        pending.clear();
        pending.resize(wlen, 0);
        slots.clear();
        let mut and_count = 0u32;
        for instr in window {
            slots.push(and_count);
            if instr.op == SlotOp::And {
                and_count += 1;
            }
        }
        window_tables.clear();
        window_tables.resize(and_count as usize, [Block::ZERO; 2]);
        out_labels.clear();
        out_labels.resize(wlen, Block::ZERO);
        edge_start.clear();
        edge_start.resize(wlen + 1, 0);
        for (offset, instr) in window.iter().enumerate() {
            let operands = if instr.op == SlotOp::Inv { 1 } else { 2 };
            for &addr in [instr.a, instr.b].iter().take(operands) {
                if addr >= slice_first {
                    let producer = (addr - slice_first) as usize;
                    debug_assert!(producer < offset, "renaming forbids future reads");
                    pending[offset] += 1;
                    edge_start[producer + 1] += 1;
                }
            }
        }
        for p in 0..wlen {
            edge_start[p + 1] += edge_start[p];
        }
        edges.clear();
        edges.resize(edge_start[wlen] as usize, 0);
        cursor.clear();
        cursor.extend_from_slice(&edge_start[..wlen]);
        for (offset, instr) in window.iter().enumerate() {
            let operands = if instr.op == SlotOp::Inv { 1 } else { 2 };
            for &addr in [instr.a, instr.b].iter().take(operands) {
                if addr >= slice_first {
                    let producer = (addr - slice_first) as usize;
                    edges[cursor[producer] as usize] = offset as u32;
                    cursor[producer] += 1;
                }
            }
        }

        ready_free.clear();
        ready_and.clear();
        for (offset, instr) in window.iter().enumerate() {
            if pending[offset] == 0 {
                match instr.op {
                    SlotOp::And => ready_and.push(offset as u32),
                    _ => ready_free.push(offset as u32),
                }
            }
        }

        // Worklist execution: free gates propagate eagerly; ready AND
        // gates accumulate and run as one parallel wave. Every label is
        // a pure function of (Δ, operand labels, instruction index), so
        // the transcript is schedule-invariant.
        let fetch = |out_labels: &[Block], state: &SlabState<'_>, addr: u32| -> Block {
            if addr >= slice_first {
                out_labels[(addr - slice_first) as usize]
            } else {
                state.get(addr)
            }
        };
        let mut processed = 0usize;
        macro_rules! complete {
            ($offset:expr) => {{
                let offset = $offset as usize;
                processed += 1;
                for e in edge_start[offset]..edge_start[offset + 1] {
                    let consumer = edges[e as usize];
                    pending[consumer as usize] -= 1;
                    if pending[consumer as usize] == 0 {
                        match window[consumer as usize].op {
                            SlotOp::And => ready_and.push(consumer),
                            _ => ready_free.push(consumer),
                        }
                    }
                }
            }};
        }
        while processed < wlen {
            while let Some(offset) = ready_free.pop() {
                let instr = window[offset as usize];
                let w0a = fetch(&out_labels, &state, instr.a);
                out_labels[offset as usize] = match instr.op {
                    SlotOp::Xor => garble_xor(w0a, fetch(&out_labels, &state, instr.b)),
                    _ => garble_inv(delta, w0a),
                };
                complete!(offset);
            }
            if ready_and.is_empty() {
                assert_eq!(processed, wlen, "slice deadlocked: plan not topological");
                break;
            }
            // Index order keeps engine splits cache-friendly; it does
            // not affect the output.
            ready_and.sort_unstable();
            and_jobs.clear();
            for &offset in &ready_and {
                let instr = window[offset as usize];
                and_jobs.push((
                    offset as usize,
                    fetch(&out_labels, &state, instr.a),
                    fetch(&out_labels, &state, instr.b),
                ));
            }
            ready_and.clear();
            and_results.clear();
            and_results.resize(and_jobs.len(), (Block::ZERO, [Block::ZERO; 2]));
            run_wave(&hash, delta, start, &and_jobs, &mut and_results, pool);
            for (&(offset, _, _), &(w0c, table)) in and_jobs.iter().zip(and_results.iter()) {
                out_labels[offset] = w0c;
                window_tables[slots[offset] as usize] = table;
                complete!(offset as u32);
            }
        }
        // Slice boundary: commit staged labels ascending (snapshotting
        // any output addresses as they stream past).
        for (i, &label) in out_labels.iter().enumerate() {
            state.write(slice_first + i as u32, label);
        }
        tables.extend_from_slice(&window_tables);
        start = end;
    }

    let output_decode = state.into_output_labels().iter().map(|l| l.lsb()).collect();
    PlanGarbling { delta, input_zero_labels, tables, output_decode, crypto: hash.counters() }
}

/// Garbles one wave of mutually independent AND gates, splitting the
/// wave across engines. `jobs[i]` is `(window offset, w0a, w0b)`; the
/// tweak base is `window_start + offset`, identical to sequential
/// garbling.
fn run_wave(
    hash: &GateHash,
    delta: Delta,
    window_start: usize,
    jobs: &[(usize, Block, Block)],
    results: &mut [(Block, [Block; 2])],
    pool: &EnginePool,
) {
    let engines = pool.engines();
    if engines <= 1 || jobs.len() < PARALLEL_THRESHOLD {
        garble_slice(hash, delta, window_start, jobs, results);
        return;
    }
    let per_engine = jobs.len().div_ceil(engines);
    pool.scope(|scope| {
        for (job_chunk, result_chunk) in jobs.chunks(per_engine).zip(results.chunks_mut(per_engine))
        {
            scope.submit(move || garble_slice(hash, delta, window_start, job_chunk, result_chunk));
        }
    });
}

/// One engine's share of a wave, batched [`MAX_AND_BATCH`] gates at a
/// time (the gates are independent by construction).
fn garble_slice(
    hash: &GateHash,
    delta: Delta,
    window_start: usize,
    jobs: &[(usize, Block, Block)],
    results: &mut [(Block, [Block; 2])],
) {
    let mut batch = [(0u64, Block::ZERO, Block::ZERO); MAX_AND_BATCH];
    for (job_chunk, result_chunk) in
        jobs.chunks(MAX_AND_BATCH).zip(results.chunks_mut(MAX_AND_BATCH))
    {
        let k = job_chunk.len();
        for (slot, &(offset, w0a, w0b)) in batch.iter_mut().zip(job_chunk) {
            *slot = ((window_start + offset) as u64, w0a, w0b);
        }
        garble_and_batch(hash, delta, &batch[..k], result_chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::garble::garble;
    use crate::stream::baseline_plan;
    use haac_circuit::{Builder, Circuit};
    use rand::{rngs::StdRng, SeedableRng};

    fn wide_circuit() -> Circuit {
        // 64 independent AND columns (wide enough to cross the
        // thread-spawn threshold) feeding a XOR reduction chain for
        // cross-wave dependencies.
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
        let reference = garble(&c, &mut rng, HashScheme::Rekeyed);
        let pool = EnginePool::new(3);
        // Several garblings through the *same* pool: persistent engines,
        // identical transcripts every time (baseline-order slab garbling
        // is bit-identical to the raw netlist's table stream).
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
        for engines in [1usize, 2, 4] {
            let pool = EnginePool::new(engines);
            let mut rng = StdRng::seed_from_u64(91);
            let pooled = garble_plan_in(&plan, &mut rng, HashScheme::Rekeyed, &pool);
            assert_eq!(pooled.delta, delta, "e={engines}");
            assert_eq!(pooled.tables, reference_tables, "e={engines}");
            assert_eq!(pooled.output_decode, finish.output_decode, "e={engines}");
            assert_eq!(pooled.crypto, finish.crypto, "e={engines}");
        }
    }

    #[test]
    #[should_panic(expected = "in-window plan")]
    fn plan_garbling_rejects_oor_plans() {
        use crate::slab::{SlotInstr, SlotOp};

        // A skip connection far beyond a forced 2-wire window.
        let mut instrs = vec![SlotInstr { a: 1, b: 2, op: SlotOp::Xor }];
        for i in 0..16u32 {
            instrs.push(SlotInstr { a: 3 + i, b: 3 + i, op: SlotOp::Inv });
        }
        instrs.push(SlotInstr { a: 1, b: 19, op: SlotOp::And });
        let last = 2 + instrs.len() as u32;
        let plan = SlotProgram::with_window(instrs, 1, 1, vec![last], 2).unwrap();
        assert!(plan.has_oor());
        let pool = EnginePool::new(1);
        let mut rng = StdRng::seed_from_u64(5);
        let _ = garble_plan_in(&plan, &mut rng, HashScheme::Rekeyed, &pool);
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

    #[test]
    fn scope_blocks_until_borrowed_jobs_finish() {
        let pool = EnginePool::new(2);
        let mut results = vec![0u64; 16];
        pool.scope(|scope| {
            for (i, slot) in results.iter_mut().enumerate() {
                scope.submit(move || *slot = (i as u64 + 1) * 3);
            }
        });
        assert_eq!(results, (1..=16).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn scope_makes_progress_while_workers_are_busy() {
        use std::sync::mpsc;

        // Both workers are parked inside long-running jobs; the scope
        // caller must execute its own jobs inline instead of deadlocking.
        let pool = EnginePool::new(2);
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (release_tx2, release_rx2) = mpsc::channel::<()>();
        pool.spawn(move || {
            let _ = release_rx.recv();
        });
        pool.spawn(move || {
            let _ = release_rx2.recv();
        });
        let mut total = 0u64;
        pool.scope(|scope| {
            scope.submit(|| total = 42);
        });
        assert_eq!(total, 42);
        release_tx.send(()).unwrap();
        release_tx2.send(()).unwrap();
    }

    #[test]
    fn scope_drains_borrowed_jobs_before_a_panicking_closure_unwinds() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicBool, Ordering};

        // A submitted job borrows stack state; the closure then panics.
        // The unwind must not escape `scope` until the job has run —
        // otherwise the borrow would dangle under a live worker.
        let pool = EnginePool::new(2);
        let ran = AtomicBool::new(false);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.submit(|| {
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    ran.store(true, Ordering::SeqCst);
                });
                panic!("closure dies after submitting");
            });
        }));
        assert!(result.is_err(), "the closure panic must propagate");
        assert!(ran.load(Ordering::SeqCst), "the borrowed job must finish before the unwind");
    }

    #[test]
    #[should_panic(expected = "engine pool scope job panicked")]
    fn scope_propagates_job_panics() {
        let pool = EnginePool::new(1);
        pool.scope(|scope| {
            scope.submit(|| panic!("inner"));
        });
    }
}
