//! Streaming-runtime throughput: full two-party sessions (garbler +
//! evaluator threads over in-process channels) and the raw incremental
//! garbler, in tables/second and bytes/second — the software ceiling the
//! HAAC accelerator's table queues are designed to beat.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use haac_gc::{HashScheme, StreamingGarbler};
use haac_runtime::{run_local_session, SessionConfig};
use haac_workloads::{build, Scale, WorkloadKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_streaming_sessions(c: &mut Criterion) {
    for kind in [WorkloadKind::DotProduct, WorkloadKind::Hamming] {
        let w = build(kind, Scale::Small);
        let config = SessionConfig::for_circuit(&w.circuit);
        let mut group = c.benchmark_group(format!("session/{}", kind.name()));
        group.throughput(Throughput::Elements(w.circuit.num_and_gates() as u64));
        group.bench_function("mem_channel_two_party", |b| {
            b.iter(|| {
                run_local_session(&w.circuit, &w.garbler_bits, &w.evaluator_bits, 7, &config)
                    .expect("session")
            })
        });
        group.finish();
    }
}

fn bench_incremental_garbler(c: &mut Criterion) {
    let w = build(WorkloadKind::DotProduct, Scale::Small);
    let config = SessionConfig::for_circuit(&w.circuit);
    let chunk = config.chunk_tables();
    let plan = &config.plan.program;
    let mut group = c.benchmark_group("garbler");
    // 32 B of tables per AND gate is what crosses the wire.
    group.throughput(Throughput::Bytes(32 * w.circuit.num_and_gates() as u64));
    group.bench_function("streaming_chunks", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            let mut garbler = StreamingGarbler::with_plan(plan, &mut rng, HashScheme::Rekeyed);
            let mut total = 0usize;
            while let Some(tables) = garbler.next_tables(chunk) {
                total += tables.len();
            }
            std::hint::black_box(garbler.finish());
            total
        })
    });
    group.finish();
}

criterion_group!(benches, bench_streaming_sessions, bench_incremental_garbler);
criterion_main!(benches);
