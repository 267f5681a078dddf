//! The layer ladder: direct timed calls into each layer's public
//! functions, bottom (one AES block) to top (a whole session over TCP).
//!
//! Every rung has fixed inputs — the MatMult-small circuit and its
//! `Full`-schedule plan unless stated — and is printed beside the rung
//! below it, so a gap between two rungs names the layer that loses the
//! time. The rungs above these (a served session, warm cache and bank
//! hit) are the `medium_online` / `medium_banked` workloads.

use std::io::{Read as _, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use haac_circuit::Circuit;

use haac_core::sim::map_and_simulate;
use haac_core::{compile, lower_with_reorder, HaacConfig, ReorderKind};
use haac_gc::aes::Aes128;
use haac_gc::ot::base::{OtReceiver, OtSender};
use haac_gc::{
    eval_and_batch, garble_and_batch, garble_plan_in, Block, Delta, EnginePool, GateHash,
    HashScheme, OtExtReceiver, OtExtSender, PlanGarbling, StreamingEvaluator, StreamingGarbler,
    MAX_AND_BATCH, OT_EXT_KAPPA,
};
use haac_runtime::{
    run_local_session, run_tcp_session, Channel, RuntimeError, SessionConfig, SessionReport,
    TcpChannel,
};
use haac_server::{
    choose_ot_mode, client, CircuitCache, InstanceBank, Server, ServerConfig, SessionRequest,
};
use haac_workloads::{build, Scale, WorkloadKind};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::spec::WORKERS;

#[derive(Debug, Clone)]
pub struct Rung {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    /// The rung below, and how many of its work units one of this
    /// rung's units costs (4 AES blocks per garbled AND, else 1).
    pub below: Option<(&'static str, f64)>,
}

impl Rung {
    /// This rung's rate as a fraction of the rung below it.
    pub fn fraction_of_below(&self, rungs: &[Rung]) -> Option<f64> {
        let (name, units) = self.below?;
        let below = rungs.iter().find(|r| r.name == name)?;
        Some(self.value * units / below.value)
    }
}

/// Calls `work` — which returns the units it processed — back to back
/// for `budget` after one untimed call; units per second.
fn rate(budget: Duration, mut work: impl FnMut() -> u64) -> f64 {
    work();
    let start = Instant::now();
    let mut units = 0u64;
    loop {
        units += work();
        let elapsed = start.elapsed();
        if elapsed >= budget {
            return units as f64 / elapsed.as_secs_f64();
        }
    }
}

/// `run_local_session` and `run_tcp_session` share this shape.
type SessionFn = fn(
    &Circuit,
    &[bool],
    &[bool],
    u64,
    &SessionConfig,
) -> Result<(SessionReport, SessionReport), RuntimeError>;

const CHUNK_TABLES: usize = 2048;
const KIND: WorkloadKind = WorkloadKind::MatMult;
const REORDER: ReorderKind = ReorderKind::Full;

/// Runs every rung for about `budget` each.
///
/// # Errors
///
/// Fails — instead of printing a wrong number — when a rung's output is
/// wrong: a session that does not decode to the plaintext reference, an
/// instance that does not survive its own encoding, a simulated cycle
/// count that does not repeat.
pub fn run(budget: Duration) -> Result<Vec<Rung>, String> {
    let mut rungs = Vec::new();
    let mut push = |name, unit, value, below| rungs.push(Rung { name, unit, value, below });
    let mut rng = StdRng::seed_from_u64(0x1ADDE2);
    let scheme = HashScheme::Rekeyed;

    let workload = build(KIND, Scale::Small);
    let circuit = &workload.circuit;
    let plan = lower_with_reorder(circuit, REORDER);
    let program = &plan.program;
    let ands = program.and_count() as u64;
    let gates = circuit.num_gates() as u64;

    // gc.aes: the cipher alone, one expanded key, 1024 blocks a call.
    let aes = Aes128::from_block(Block::random(&mut rng));
    let mut blocks: Vec<Block> = (0..1024).map(|_| Block::random(&mut rng)).collect();
    let aes_rate = rate(budget, || {
        aes.encrypt_blocks(std::hint::black_box(&mut blocks));
        blocks.len() as u64
    });
    push("gc.aes.blocks_per_s", "1/s", aes_rate, None);

    // gc.garble / gc.evaluate: the half-gate kernels on full batches of
    // independent gates, re-keyed per gate like every session.
    let hash = GateHash::new(scheme);
    let delta = Delta::random(&mut rng);
    let mut gate_inputs = [(0u64, Block::ZERO, Block::ZERO); MAX_AND_BATCH];
    gate_inputs.fill_with(|| (0, Block::random(&mut rng), Block::random(&mut rng)));
    let mut garbled = [(Block::ZERO, [Block::ZERO; 2]); MAX_AND_BATCH];
    let mut tweak = 0u64;
    let garble_rate = rate(budget, || {
        for _ in 0..64 {
            for gate in &mut gate_inputs {
                tweak += 1;
                gate.0 = tweak;
            }
            garble_and_batch(&hash, delta, std::hint::black_box(&gate_inputs), &mut garbled);
            std::hint::black_box(&garbled);
        }
        64 * MAX_AND_BATCH as u64
    });
    push("gc.garble.and_per_s", "1/s", garble_rate, Some(("gc.aes.blocks_per_s", 4.0)));
    let tables = garbled.map(|(_, table)| table);
    let mut evaluated = [Block::ZERO; MAX_AND_BATCH];
    let eval_rate = rate(budget, || {
        for _ in 0..64 {
            eval_and_batch(&hash, std::hint::black_box(&gate_inputs), &tables, &mut evaluated);
            std::hint::black_box(&evaluated);
        }
        64 * MAX_AND_BATCH as u64
    });
    push("gc.evaluate.and_per_s", "1/s", eval_rate, Some(("gc.aes.blocks_per_s", 2.0)));

    // gc.stream: the slab executors over the whole plan, no I/O.
    let mut chunk = Vec::with_capacity(CHUNK_TABLES);
    let stream_garble = rate(budget, || {
        let mut garbler = StreamingGarbler::with_plan(program, &mut rng, scheme);
        while garbler.next_tables_into(CHUNK_TABLES, &mut chunk) {
            std::hint::black_box(&chunk);
        }
        std::hint::black_box(garbler.finish());
        ands
    });
    push("gc.stream.garble_and_per_s", "1/s", stream_garble, Some(("gc.garble.and_per_s", 1.0)));

    let pool = EnginePool::new(WORKERS);
    let instance = garble_plan_in(program, &mut rng, scheme, &pool);
    let labels = instance.encode_inputs(&workload.garbler_bits, &workload.evaluator_bits);
    let mut stream_outputs = Vec::new();
    let stream_eval = rate(budget, || {
        let mut evaluator = StreamingEvaluator::with_plan(program, labels.clone(), scheme);
        for chunk in instance.tables.chunks(CHUNK_TABLES) {
            evaluator.feed(chunk);
        }
        stream_outputs = evaluator.finish(&instance.output_decode).outputs;
        ands
    });
    if stream_outputs != workload.expected {
        return Err("gc.stream: evaluated outputs differ from the plaintext reference".into());
    }
    push("gc.stream.eval_and_per_s", "1/s", stream_eval, Some(("gc.evaluate.and_per_s", 1.0)));

    // gc.engine: the bank producer's path, waves fanned over two engines.
    let plan_garble = rate(budget, || {
        std::hint::black_box(garble_plan_in(program, &mut rng, scheme, &pool));
        ands
    });
    push(
        "gc.engine.plan_garble_and_per_s",
        "1/s",
        plan_garble,
        Some(("gc.stream.garble_and_per_s", 1.0)),
    );

    // gc.instance: what a bank deposit and a bank claim cost per byte.
    let bytes = instance.to_bytes();
    if PlanGarbling::from_bytes(&bytes).ok().as_ref() != Some(&instance) {
        return Err("gc.instance: an instance does not survive to_bytes/from_bytes".into());
    }
    let encode = rate(budget, || std::hint::black_box(instance.to_bytes()).len() as u64);
    push("gc.instance.encode_mb_per_s", "MB/s", encode / 1e6, None);
    let decode = rate(budget, || {
        std::hint::black_box(PlanGarbling::from_bytes(&bytes)).map_or(0, |_| bytes.len() as u64)
    });
    push("gc.instance.decode_mb_per_s", "MB/s", decode / 1e6, None);

    // gc.ot: one κ-sized batch of public-key OTs, both roles' compute.
    let pairs: Vec<(Block, Block)> =
        (0..4096).map(|_| (Block::random(&mut rng), Block::random(&mut rng))).collect();
    let choices: Vec<bool> = (0..4096).map(|_| rng.gen()).collect();
    let base_ot = |rng: &mut StdRng, pairs: &[(Block, Block)], choices: &[bool]| {
        let sender = OtSender::new(rng);
        let receiver = OtReceiver::new(rng, sender.public_point(), sender.nonce(), choices)
            .expect("an honest sender's point is valid");
        let ciphertexts =
            sender.encrypt(&receiver.blinded_points(), pairs).expect("matching counts");
        receiver.decrypt(&ciphertexts).expect("matching counts")
    };
    let base_rate = rate(budget, || {
        std::hint::black_box(base_ot(&mut rng, &pairs[..OT_EXT_KAPPA], &choices[..OT_EXT_KAPPA]));
        OT_EXT_KAPPA as u64
    });
    push("gc.ot.base_ots_per_s", "1/s", base_rate, None);

    // gc.ot_ext: 4096 labels through the extension, its κ reversed base
    // OTs included — what a session with that many inputs pays.
    let mut received = Vec::new();
    let ext_rate = rate(budget, || {
        let sender = OtExtSender::new(&mut rng);
        let mut receiver = OtExtReceiver::new(&mut rng, &choices);
        let seeds = base_ot(&mut rng, receiver.seed_pairs(), sender.choice_bits());
        let u_matrix = receiver.u_matrix();
        let ciphertexts = sender.process(&seeds, &u_matrix, &pairs).expect("well-formed inputs");
        received = receiver.decrypt(&ciphertexts).expect("matching counts");
        choices.len() as u64
    });
    let chosen = |i: usize| if choices[i] { pairs[i].1 } else { pairs[i].0 };
    if (0..choices.len()).any(|i| received[i] != chosen(i)) {
        return Err("gc.ot_ext: a received label is not the chosen one".into());
    }
    push("gc.ot_ext.labels_per_s", "1/s", ext_rate, None);

    // runtime.channel: the transport alone, against an echo peer.
    let (rtt_us, mb_per_s) = tcp_channel(budget).map_err(|e| format!("runtime.channel: {e}"))?;
    push("runtime.channel.tcp_rtt_us", "us", rtt_us, None);
    push("runtime.channel.tcp_mb_per_s", "MB/s", mb_per_s, None);

    // runtime.session: both parties, OT and output tail included, first
    // in memory and then over a loopback socket; no server.
    let config = SessionConfig::from_plan(scheme, Arc::new(plan.clone()))
        .with_ot_mode(choose_ot_mode(circuit.evaluator_inputs()));
    let session_rate = |run: SessionFn| -> Result<f64, String> {
        let mut failure = None;
        let mut seed = 0;
        let per_s = rate(budget, || {
            seed += 1;
            match run(circuit, &workload.garbler_bits, &workload.evaluator_bits, seed, &config) {
                Ok((_, evaluator)) if evaluator.outputs == workload.expected => {}
                Ok(_) => failure = Some("outputs differ from the plaintext reference".to_string()),
                Err(e) => failure = Some(e.to_string()),
            }
            ands
        });
        failure.map_or(Ok(per_s), |e| Err(format!("runtime.session: {e}")))
    };
    let mem = session_rate(run_local_session)?;
    push("runtime.session.mem_and_per_s", "1/s", mem, Some(("gc.stream.garble_and_per_s", 1.0)));
    let tcp = session_rate(run_tcp_session)?;
    push("runtime.session.tcp_and_per_s", "1/s", tcp, Some(("runtime.session.mem_and_per_s", 1.0)));

    // workloads.build / core.lower: what a cold request and set-up pay.
    let build_rate = rate(budget, || {
        std::hint::black_box(build(KIND, Scale::Small));
        gates
    });
    push("workloads.build.gates_per_s", "1/s", build_rate, None);
    let lower = rate(budget, || {
        std::hint::black_box(lower_with_reorder(circuit, ReorderKind::Baseline));
        gates
    });
    push("core.lower.gates_per_s", "1/s", lower, None);
    let lower_full = rate(budget, || {
        std::hint::black_box(lower_with_reorder(circuit, ReorderKind::Full));
        gates
    });
    push("core.lower.full_gates_per_s", "1/s", lower_full, Some(("core.lower.gates_per_s", 1.0)));

    // core.sim: the paper's accelerator model on its headline
    // configuration. The cycle count is a pure function of the circuit.
    let accelerator = HaacConfig::default();
    let mut cycles = Vec::new();
    let sim = rate(budget, || {
        let (lowered, _) = compile(circuit, REORDER, accelerator.window());
        cycles.push(map_and_simulate(&lowered, &accelerator).cycles);
        gates
    });
    if cycles.iter().any(|&c| c != cycles[0]) {
        return Err(format!("core.sim: cycle counts differ between evaluations: {cycles:?}"));
    }
    push("core.sim.host_gates_per_s", "1/s", sim, None);
    push("core.sim.cycles_matmult_small", "count", cycles[0] as f64, None);

    // server.cache / server.bank / telemetry: the serving layer's own
    // bookkeeping, without a session around it.
    let misses = rate(budget, || {
        std::hint::black_box(CircuitCache::new().get(KIND, Scale::Small, REORDER));
        1
    });
    push("server.cache.miss_ms", "ms", 1e3 / misses, None);
    let cache = CircuitCache::new();
    let hits = rate(budget, || {
        for _ in 0..64 {
            std::hint::black_box(cache.get(KIND, Scale::Small, REORDER));
        }
        64
    });
    push("server.cache.hit_us", "us", 1e6 / hits, None);

    let bank = InstanceBank::new(1);
    let key = (KIND, Scale::Small, REORDER);
    let mut in_bank = Duration::ZERO;
    let mut claims = 0u32;
    while in_bank < budget {
        let fresh = instance.clone();
        let start = Instant::now();
        let claimed = bank.deposit(key, fresh).then(|| bank.claim(key)).flatten();
        in_bank += start.elapsed();
        claims += 1;
        if claimed.as_ref() != Some(&instance) {
            return Err("server.bank: a claim did not return the deposited instance".into());
        }
    }
    push("server.bank.claim_us", "us", in_bank.as_secs_f64() * 1e6 / f64::from(claims), None);

    let server = Server::new(ServerConfig { workers: WORKERS, ..ServerConfig::default() });
    for seed in 0..3 {
        let request = SessionRequest::negotiated(KIND.name(), Scale::Small, seed);
        client::run_session(&mut server.connect(), &request)
            .map_err(|e| format!("telemetry: a session to populate the registry failed: {e}"))?;
    }
    let snapshots = rate(budget, || {
        std::hint::black_box(server.metrics_snapshot());
        1
    });
    push("telemetry.snapshot_us", "us", 1e6 / snapshots, None);
    let report = server.shutdown();
    if report.failed != 0 || report.active != 0 {
        return Err(format!("telemetry: server ended with {report:?}"));
    }
    Ok(rungs)
}

/// A 1-byte send + flush ping-pong (µs per round trip) and a bulk
/// one-way transfer in 64 KiB flushes (MB/s) over a loopback
/// [`TcpChannel`], against a plain echo/sink thread.
fn tcp_channel(budget: Duration) -> std::io::Result<(f64, f64)> {
    const BULK: usize = 64 * 1024;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    std::thread::scope(|scope| {
        // Echoes single bytes until it reads a 0, then sinks bulk data
        // until the peer hangs up.
        let peer = scope.spawn(move || -> std::io::Result<()> {
            let (mut stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut byte = [0u8; 1];
            loop {
                stream.read_exact(&mut byte)?;
                stream.write_all(&byte)?;
                if byte[0] == 0 {
                    break;
                }
            }
            let mut sink = vec![0u8; BULK];
            while stream.read(&mut sink)? > 0 {}
            Ok(())
        });
        let mut channel = TcpChannel::from_stream(TcpStream::connect(addr)?)?;
        let mut error = None;
        let mut ping = |channel: &mut TcpChannel, byte: u8| {
            let mut reply = [0u8; 1];
            let result = channel
                .send(&[byte])
                .and_then(|()| channel.flush())
                .and_then(|()| channel.recv_exact(&mut reply));
            error = error.take().or(result.err());
        };
        let pings = rate(budget, || {
            ping(&mut channel, 1);
            1
        });
        ping(&mut channel, 0);
        let payload = vec![0xA5u8; BULK];
        let bulk = rate(budget, || {
            let result = channel.send(&payload).and_then(|()| channel.flush());
            error = error.take().or(result.err());
            BULK as u64
        });
        drop(channel);
        peer.join().expect("echo thread does not panic")?;
        error.map_or(Ok((1e6 / pings, bulk / 1e6)), Err)
    })
}

/// Prints the ladder, each rung beside its fraction of the rung below.
pub fn print(rungs: &[Rung]) {
    println!("{:<36} {:>16} {:<6} fraction of the rung below", "rung", "value", "unit");
    for rung in rungs {
        let below = match (rung.below, rung.fraction_of_below(rungs)) {
            (Some((name, units)), Some(fraction)) => {
                format!("{fraction:.3} of {name} ({units} of its units each)")
            }
            _ => "- (not a rate on the gate path)".to_string(),
        };
        println!("{:<36} {:>16.3} {:<6} {below}", rung.name, rung.value, rung.unit);
    }
}
