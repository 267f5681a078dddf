//! `bench_report`: machine-readable gate-crypto performance snapshot.
//!
//! Measures the hot path this repo's speedup story rests on — the
//! half-gate AES hash — on every available backend, plus one real
//! end-to-end streaming session of the AES-128 VIP workload, and
//! writes `BENCH_gatecrypto.json` at the repo root so successive PRs
//! have a perf trajectory to track. Self-gating: on the AES-NI row the
//! re-keyed `garble_and` must reach 0.45 of the fixed-key rate of the
//! same run.
//!
//! Run with: `cargo run --release -p haac-bench --bin bench_report`
//!
//! Environment:
//! - `HAAC_AES_BACKEND=portable|aesni|neon` pins the active backend
//!   (the CI smoke job forces `portable`).
//! - `HAAC_QUIET=1` (or `--quiet`) — suppress progress events.
//! - `HAAC_BENCH_OUT=<path>` overrides the output file.

use std::time::Instant;

use haac_circuit::aes_circuit::{aes128_circuit, bytes_to_bits};
use haac_circuit::Circuit;
use haac_gc::aes::{active_backend, AesBackend};
use haac_gc::{garble_and, Block, Delta, GateHash, HashScheme};
use haac_runtime::{run_local_session, SessionConfig};
use haac_telemetry::event;
use haac_workloads::{build, Scale, WorkloadKind};
use rand::{rngs::StdRng, SeedableRng};
use serde::Serialize;

/// Throughput of one backend on the re-keyed garbler hot path.
#[derive(Debug, Serialize)]
struct BackendRate {
    backend: &'static str,
    /// `garble_and` calls per second (4 AES blocks + 2 expansions each).
    garble_and_per_sec: f64,
    /// Same loop under the legacy fixed-key scheme (no expansions).
    garble_and_fixed_key_per_sec: f64,
}

/// End-to-end streaming-session numbers for one workload.
#[derive(Debug, Serialize)]
struct WorkloadRate {
    workload: &'static str,
    and_gates: u64,
    total_gates: u64,
    /// Garbler-side AND-gates/s over the whole session (OT included).
    garbler_and_gates_per_sec: f64,
    evaluator_and_gates_per_sec: f64,
    key_expansions: u64,
    aes_blocks: u64,
    /// Verified invariant: expansions per AND gate (2 under re-keying).
    key_expansions_per_and: f64,
}

#[derive(Debug, Serialize)]
struct Report {
    /// The backend dispatch actually selected for this run.
    active_backend: &'static str,
    backends: Vec<BackendRate>,
    /// active-backend `garble_and` rate ÷ portable rate.
    speedup_vs_portable: f64,
    workloads: Vec<WorkloadRate>,
}

/// Least share of the fixed-key `garble_and` rate the re-keyed one must
/// reach on the AES-NI backend.
const REKEYED_VS_FIXED_KEY_FLOOR: f64 = 0.45;

/// Times a closure until it has run for ~200 ms; returns calls/second.
fn rate(mut f: impl FnMut()) -> f64 {
    // Warm up.
    for _ in 0..64 {
        f();
    }
    let mut iters = 256u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            f();
        }
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed > 0.2 {
            return iters as f64 / elapsed;
        }
        iters *= 4;
    }
}

fn backend_rate(backend: AesBackend) -> BackendRate {
    let mut rng = StdRng::seed_from_u64(1);
    let delta = Delta::random(&mut rng);
    let a = Block::random(&mut rng);
    let b = Block::random(&mut rng);
    let rekeyed = GateHash::with_backend(HashScheme::Rekeyed, backend);
    let fixed = GateHash::with_backend(HashScheme::FixedKey, backend);
    let mut tweak = 0u64;
    let garble_and_per_sec = rate(|| {
        tweak = tweak.wrapping_add(1);
        std::hint::black_box(garble_and(&rekeyed, delta, tweak, a, b));
    });
    let garble_and_fixed_key_per_sec = rate(|| {
        tweak = tweak.wrapping_add(1);
        std::hint::black_box(garble_and(&fixed, delta, tweak, a, b));
    });
    BackendRate { backend: backend.name(), garble_and_per_sec, garble_and_fixed_key_per_sec }
}

fn session_rate(
    name: &'static str,
    circuit: &Circuit,
    garbler_bits: &[bool],
    evaluator_bits: &[bool],
    expected: &[bool],
) -> WorkloadRate {
    let config = SessionConfig::for_circuit(circuit);
    let (g, e) =
        run_local_session(circuit, garbler_bits, evaluator_bits, 7, &config).expect("session runs");
    assert_eq!(g.outputs, expected, "{name}: session must agree with plaintext");
    let ands = circuit.num_and_gates() as u64;
    WorkloadRate {
        workload: name,
        and_gates: ands,
        total_gates: circuit.num_gates() as u64,
        garbler_and_gates_per_sec: g.and_gates_per_sec(),
        evaluator_and_gates_per_sec: e.and_gates_per_sec(),
        key_expansions: g.crypto.key_expansions,
        aes_blocks: g.crypto.aes_blocks,
        key_expansions_per_and: if ands == 0 {
            0.0
        } else {
            g.crypto.key_expansions as f64 / ands as f64
        },
    }
}

fn workload_rate(kind: WorkloadKind) -> WorkloadRate {
    let w = build(kind, Scale::Small);
    session_rate(kind.name(), &w.circuit, &w.garbler_bits, &w.evaluator_bits, &w.expected)
}

/// The AES-128 "marquee" circuit end-to-end: Alice's key, Bob's block,
/// FIPS-197 C.1 vector as the correctness check.
fn aes_workload_rate() -> WorkloadRate {
    let circuit = aes128_circuit().expect("AES-128 circuit builds");
    let key: [u8; 16] = [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0x0a, 0x0b, 0x0c, 0x0d, 0x0e, 0x0f];
    let block: [u8; 16] = [
        0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd, 0xee,
        0xff,
    ];
    let expected = bytes_to_bits(&[
        0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4, 0xc5,
        0x5a,
    ]);
    session_rate("aes128", &circuit, &bytes_to_bits(&key), &bytes_to_bits(&block), &expected)
}

fn main() {
    if std::env::args().any(|a| a == "--quiet") {
        haac_telemetry::events::set_quiet(true);
    }
    let active = active_backend();
    event!("bench_report", "active backend: {}", active.name());

    let mut backends = Vec::new();
    let mut portable_rate_v = 0.0f64;
    let mut active_rate_v = 0.0f64;
    for backend in AesBackend::ALL {
        if !backend.is_available() {
            continue;
        }
        event!("bench_report", "measuring backend {}...", backend.name());
        let r = backend_rate(backend);
        if backend == AesBackend::Portable {
            portable_rate_v = r.garble_and_per_sec;
        }
        if backend == active {
            active_rate_v = r.garble_and_per_sec;
        }
        backends.push(r);
    }
    let speedup_vs_portable =
        if portable_rate_v > 0.0 { active_rate_v / portable_rate_v } else { 1.0 };

    // End-to-end streamed sessions; the AES circuit is the headline.
    let workloads = vec![
        aes_workload_rate(),
        workload_rate(WorkloadKind::DotProduct),
        workload_rate(WorkloadKind::Hamming),
    ];

    let report = Report { active_backend: active.name(), backends, speedup_vs_portable, workloads };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    let out = std::env::var("HAAC_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_gatecrypto.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, &json).expect("BENCH_gatecrypto.json is writable");
    event!("bench_report", "wrote {out}");
    println!("{json}");

    // The regression gate, after the file is written so a failing run
    // still leaves its numbers behind. A same-run ratio, so the host's
    // speed cancels: it reads ~0.79 while the AES-NI schedules are
    // derived in the same pass as the rounds, and fell to 0.36 when
    // they were built apart from a slower instruction.
    if let Some(aesni) = report.backends.iter().find(|r| r.backend == AesBackend::AesNi.name()) {
        let ratio = aesni.garble_and_per_sec / aesni.garble_and_fixed_key_per_sec;
        assert!(
            ratio >= REKEYED_VS_FIXED_KEY_FLOOR,
            "aesni re-keyed garble_and runs at {ratio:.2} of the fixed-key rate \
             ({:.0} vs {:.0}/s); the floor is {REKEYED_VS_FIXED_KEY_FLOOR}",
            aesni.garble_and_per_sec,
            aesni.garble_and_fixed_key_per_sec,
        );
        event!("bench_report", "aesni re-keyed/fixed-key garble_and ratio {ratio:.2}: gate passed");
    }
}
