//! Integration tests: concurrent sessions, error isolation, the
//! circuit cache, reorder negotiation, TCP serving, and graceful
//! shutdown.

use std::time::Duration;

use haac_runtime::{Channel, ReorderKind};
use haac_server::{client, Server, ServerConfig, SessionRequest};
use haac_workloads::{build, Scale, WorkloadKind};

fn request(name: &str, seed: u64) -> SessionRequest {
    SessionRequest::new(name, Scale::Small, seed)
}

#[test]
fn concurrent_mem_sessions_share_the_pool_and_cache() {
    // 8 concurrent clients, 2 engines: sessions queue and multiplex.
    let server = Server::new(ServerConfig { workers: 2, ..ServerConfig::default() });
    let names = ["DotProd", "Hamm", "DotProd", "ReLU", "Hamm", "DotProd", "ReLU", "Hamm"];
    let handles: Vec<_> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let mut channel = server.connect();
            let request = request(name, 100 + i as u64);
            std::thread::spawn(move || client::run_session(&mut channel, &request))
        })
        .collect();
    for handle in handles {
        let report = handle.join().expect("client thread").expect("session succeeds");
        assert!(report.tables > 0);
    }
    assert!(server.registry().wait_drained(Duration::from_secs(30)));
    // 3 distinct workloads resident; every lookup either hit or built.
    // The cache is single-flight per key, so concurrent first requests
    // for one workload share a build: misses counts builds, exactly.
    assert_eq!(server.cache().len(), 3);
    assert_eq!(server.cache().misses(), 3, "three distinct workloads, three builds");
    assert_eq!(server.cache().hits(), 5, "every other lookup is served from a build");
    let report = server.shutdown();
    assert_eq!(report.total_sessions, 8);
    assert_eq!(report.completed, 8);
    assert_eq!(report.failed, 0);
    assert_eq!(report.active, 0, "registry must end empty");
    assert!(report.aggregate_and_gates_per_sec > 0.0);
    assert!(report.p50_session_secs > 0.0);
    assert!(report.p99_session_secs >= report.p50_session_secs);
}

#[test]
fn session_listener_refuses_a_public_bind_while_the_base_ot_is_insecure() {
    let mut server = Server::new(ServerConfig { workers: 1, ..ServerConfig::default() });
    let err = server.listen_tcp("0.0.0.0:0").expect_err("a wildcard bind is public");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(err.to_string().contains("insecure-ot"), "{err}");
    server.listen_tcp("127.0.0.1:0").expect("IPv4 loopback binds");
    // IPv6 loopback, where the host has it.
    if std::net::TcpListener::bind("[::1]:0").is_ok() {
        server.listen_tcp("[::1]:0").expect("IPv6 loopback binds");
    }
    server.shutdown();
}

#[test]
fn tcp_sessions_run_end_to_end() {
    let mut server = Server::new(ServerConfig { workers: 2, ..ServerConfig::default() });
    let addr = server.listen_tcp("127.0.0.1:0").expect("bind ephemeral port");
    let dot = build(WorkloadKind::DotProduct, Scale::Small);
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let workload = &dot;
            std::thread::spawn({
                let (workload, config) = client::prepare(workload.kind, Scale::Small);
                move || {
                    client::run_tcp_session_with(addr, &request("DotProd", i), &workload, &config)
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread").expect("tcp session succeeds");
    }
    let report = server.shutdown();
    assert_eq!(report.completed, 4);
    assert_eq!(report.active, 0);
}

#[test]
fn poisoned_sessions_are_isolated_from_healthy_ones() {
    let server = Server::new(ServerConfig { workers: 2, ..ServerConfig::default() });

    // Session 1: a healthy client, before any poison.
    let mut healthy = server.connect();
    let first = client::run_session(&mut healthy, &request("DotProd", 1)).unwrap();

    // Session 2: garbage instead of a request frame.
    let mut garbage = server.connect();
    garbage.send(&[0xDE, 0xAD, 0xBE, 0xEF, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]).unwrap();
    garbage.flush().unwrap();
    drop(garbage);

    // Session 3: a valid request for a workload that does not exist —
    // the server must refuse with a reason, not die.
    let mut unknown = server.connect();
    let (dot_workload, dot_config) = client::prepare(WorkloadKind::DotProduct, Scale::Small);
    let err = client::run_session_with(
        &mut unknown,
        &request("NoSuchThing", 2),
        &dot_workload,
        &dot_config,
    )
    .unwrap_err();
    assert!(err.to_string().contains("refused"), "{err}");

    // Session 4: hangs up mid-protocol (right after the request).
    let mut quitter = server.connect();
    haac_server::request::write_request(&mut quitter, &request("Hamm", 3)).unwrap();
    drop(quitter);

    // Session 5: healthy again — the server survived all of the above.
    let mut healthy = server.connect();
    let last = client::run_session(&mut healthy, &request("DotProd", 4)).unwrap();
    assert_eq!(first.outputs, last.outputs, "same sample inputs, same outputs");

    assert!(server.registry().wait_drained(Duration::from_secs(30)));
    let report = server.shutdown();
    assert_eq!(report.total_sessions, 5);
    assert_eq!(report.completed, 2);
    assert_eq!(report.failed, 3);
    assert_eq!(report.active, 0);
}

#[test]
fn negotiated_reorders_serve_end_to_end() {
    // Clients asking for the ILP-friendly schedules get sessions whose
    // transcripts both parties lower identically — the reorder rides
    // the request, the cache keys on it, and the session header
    // confirms it.
    let server = Server::new(ServerConfig { workers: 2, ..ServerConfig::default() });
    for reorder in [ReorderKind::Baseline, ReorderKind::Full, ReorderKind::Segment] {
        let mut channel = server.connect();
        let req = request("DotProd", 11).with_reorder(reorder);
        let report =
            client::run_session(&mut channel, &req).unwrap_or_else(|e| panic!("{reorder:?}: {e}"));
        assert!(report.tables > 0, "{reorder:?}");
    }
    assert!(server.registry().wait_drained(Duration::from_secs(30)));
    // Three schedules of one workload = three distinct cache entries.
    assert_eq!(server.cache().len(), 3);
    let report = server.shutdown();
    assert_eq!(report.completed, 3);
    assert_eq!(report.failed, 0);
}

#[test]
fn reorder_disagreement_is_a_typed_refusal_not_a_hang() {
    // The evaluator prepared a Baseline plan but asks the server for
    // Full: the ack advertises Full, and the client refuses with a
    // typed error before the GC protocol even starts. The server
    // records a failed outcome and keeps serving.
    let server = Server::new(ServerConfig { workers: 1, ..ServerConfig::default() });
    let (workload, baseline_config) = client::prepare(WorkloadKind::DotProduct, Scale::Small);
    let mut channel = server.connect();
    let req = request("DotProd", 21).with_reorder(ReorderKind::Full);
    let err = client::run_session_with(&mut channel, &req, &workload, &baseline_config)
        .expect_err("a schedule disagreement must be refused");
    assert!(err.to_string().contains("chose the Full schedule"), "{err}");
    drop(channel);
    assert!(server.registry().wait_drained(Duration::from_secs(30)));

    // The server survived and still serves matched sessions.
    let mut healthy = server.connect();
    client::run_session(&mut healthy, &request("DotProd", 22)).expect("healthy session succeeds");
    assert!(server.registry().wait_drained(Duration::from_secs(30)));
    let report = server.shutdown();
    assert_eq!(report.total_sessions, 2);
    assert_eq!(report.completed, 1);
    assert_eq!(report.failed, 1);
    assert_eq!(report.active, 0);
}

#[test]
fn negotiated_requests_run_the_server_chosen_schedule() {
    // A client that leaves the schedule open gets the server's policy
    // pick advertised in the ack and lowers with it — here DotProd
    // (policy: Segment) and BubbSt (policy: Baseline).
    let server = Server::new(ServerConfig { workers: 2, ..ServerConfig::default() });
    assert_eq!(haac_server::choose_reorder(WorkloadKind::DotProduct), ReorderKind::Segment);
    assert_eq!(haac_server::choose_reorder(WorkloadKind::BubbleSort), ReorderKind::Baseline);
    for name in ["DotProd", "BubbSt"] {
        let mut channel = server.connect();
        let req = SessionRequest::negotiated(name, Scale::Small, 31);
        let report = client::run_session(&mut channel, &req).expect("negotiated session succeeds");
        assert!(report.tables > 0);
    }
    assert!(server.registry().wait_drained(Duration::from_secs(30)));
    assert_eq!(server.cache().len(), 2, "one entry per (workload, chosen schedule)");
    let snapshot = server.metrics_snapshot();
    let samples = haac_telemetry::parse(&snapshot).expect("snapshot parses");
    // The chosen schedule is recorded as a metric label.
    assert!(
        samples.iter().any(|s| s.name == "haac_sessions_total"
            && s.label("workload") == Some("DotProd")
            && s.label("reorder") == Some("Seg")),
        "negotiated DotProd must be served (and labeled) as Segment:\n{snapshot}"
    );
    assert!(
        samples.iter().any(|s| s.name == "haac_sessions_total"
            && s.label("workload") == Some("BubbSt")
            && s.label("reorder") == Some("Baseline")),
        "negotiated BubbSt must be served (and labeled) as Baseline:\n{snapshot}"
    );
    server.shutdown();
}

#[test]
fn metrics_snapshot_is_parseable_mid_session_and_over_tcp() {
    // Scrape the admin plane while sessions are in flight: the text
    // must always parse, and the service gauges must be present.
    let mut server = Server::new(ServerConfig { workers: 2, ..ServerConfig::default() });
    let metrics_addr = server.listen_metrics("127.0.0.1:0").expect("bind metrics port");
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let mut channel = server.connect();
            let request = request("DotProd", 500 + i);
            std::thread::spawn(move || client::run_session(&mut channel, &request))
        })
        .collect();
    // Mid-load scrapes, interleaved with the running sessions.
    for _ in 0..3 {
        let snapshot = server.metrics_snapshot();
        let samples = haac_telemetry::parse(&snapshot).expect("mid-session snapshot parses");
        assert!(samples.iter().any(|s| s.name == "haac_active_sessions"));
        assert!(samples.iter().any(|s| s.name == "haac_accept_queue_depth"));
        assert!(samples.iter().any(|s| s.name == "haac_pool_utilization"));
        std::thread::sleep(Duration::from_millis(5));
    }
    for handle in handles {
        handle.join().expect("client thread").expect("session succeeds");
    }
    assert!(server.registry().wait_drained(Duration::from_secs(30)));

    // The HTTP admin plane serves the same snapshot to a raw client.
    use std::io::{Read, Write};
    let mut scrape = std::net::TcpStream::connect(metrics_addr).expect("connect metrics");
    scrape.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    scrape.read_to_string(&mut response).expect("read scrape");
    assert!(response.starts_with("HTTP/1.0 200 OK"), "{response}");
    let body = response.split("\r\n\r\n").nth(1).expect("http body");
    let samples = haac_telemetry::parse(body).expect("scraped body parses");
    let sessions = samples
        .iter()
        .find(|s| s.name == "haac_sessions_total" && s.label("workload") == Some("DotProd"))
        .expect("per-workload session counter over HTTP");
    assert_eq!(sessions.value, 4.0);
    // Per-workload stage histograms made it to the exposition.
    assert!(samples.iter().any(|s| s.name == "haac_chunk_compute_ns_count"));
    assert!(samples.iter().any(|s| s.name == "haac_session_wall_us_count"));
    assert!(samples.iter().any(|s| s.name == "haac_build_info"));
    server.shutdown();
}

#[test]
fn mid_load_scrape_reports_nonzero_throughput_and_utilization() {
    // Regression: a mid-load snapshot used to report
    // gates_per_sec 0 and pool_utilization 0 — the scrape fired before
    // any session had streamed, and worker busy time only accumulated
    // at job completion. Pin one worker with a session that is
    // genuinely in flight, finish a real session, and the live gauges
    // must all be nonzero *mid-load* (the pinned session still holds
    // its worker when the scrape runs).
    let server = Server::new(ServerConfig { workers: 2, ..ServerConfig::default() });
    // A connected client that never speaks: its session sits in the
    // handshake read, holding a worker — in-flight busy time the old
    // completion-only accounting was blind to.
    let pinned = server.connect();
    let gauge = |samples: &[haac_telemetry::Sample], name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing from the snapshot"))
            .value
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let samples = haac_telemetry::parse(&server.metrics_snapshot()).expect("snapshot parses");
        if gauge(&samples, "haac_active_sessions") >= 1.0
            && gauge(&samples, "haac_pool_utilization") > 0.0
        {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "an in-flight session must show up as active + busy:\n{}",
            server.metrics_snapshot()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // Real throughput on the free worker; the gates rate is a sliding
    // 10s window, so it is still live right after the session lands.
    let mut channel = server.connect();
    client::run_session(&mut channel, &request("DotProd", 600)).expect("session succeeds");
    let samples = haac_telemetry::parse(&server.metrics_snapshot()).expect("snapshot parses");
    assert!(gauge(&samples, "haac_gates_per_sec") > 0.0, "completed work must show a gates rate");
    assert!(gauge(&samples, "haac_pool_utilization") > 0.0, "the pinned worker is still busy");
    assert!(gauge(&samples, "haac_active_sessions") >= 1.0);
    drop(pinned);
    assert!(server.registry().wait_drained(Duration::from_secs(30)));
    let report = server.shutdown();
    assert_eq!(report.completed, 1);
    assert_eq!(report.failed, 1, "the pinned session fails when its client hangs up");
}

#[test]
fn stall_attribution_reconciles_with_the_streaming_wall_clock() {
    // The garbler's compute and send alternate, so its compute and send
    // segments must tile the streaming phase's wall clock — generously
    // bounded because 1-core CI charges scheduler latency to whichever
    // side resumes last.
    let server = Server::new(ServerConfig { workers: 1, ..ServerConfig::default() });
    let mut channel = server.connect();
    client::run_session(&mut channel, &request("MatMult", 77)).expect("session succeeds");
    assert!(server.registry().wait_drained(Duration::from_secs(30)));
    let outcomes = server.registry().outcomes();
    let report = outcomes[0].result.as_ref().expect("garbler report");
    assert!(report.stream_ns > 0);
    let accounted = report.compute_ns + report.io_ns + report.io_stall_ns;
    let ratio = accounted as f64 / report.stream_ns as f64;
    assert!(
        (0.5..=1.3).contains(&ratio),
        "compute {} + io {} + io_stall {} must roughly tile stream {} (ratio {ratio:.3})",
        report.compute_ns,
        report.io_ns,
        report.io_stall_ns,
        report.stream_ns
    );
    server.shutdown();
}

#[test]
fn served_sessions_stream_in_frames_and_report_which_party_waited() {
    // The path a production client takes (retrying, resumable) against
    // an online-garbling server: MatMult's 27 k tables cross the wire
    // in 64 KiB frames, the evaluator's report charges its waits for
    // them, and the garbler — never two ack windows (32 frames) ahead
    // on a 14-frame stream — reports none.
    let server = Server::new(ServerConfig { workers: 1, ..ServerConfig::default() });
    let (workload, config) = client::prepare(WorkloadKind::MatMult, Scale::Small);
    let (result, _) = client::run_session_retrying(
        || Ok(server.connect()),
        &request("MatMult", 78),
        &workload,
        &config,
        &client::RetryPolicy::default(),
        None,
    );
    let evaluator = result.expect("session succeeds");
    assert!(server.registry().wait_drained(Duration::from_secs(30)));
    let outcomes = server.registry().outcomes();
    let garbler = outcomes[0].result.as_ref().expect("garbler report");
    let frames = (workload.circuit.num_and_gates() as u64).div_ceil(2048);
    assert!(frames > 1);
    assert_eq!(garbler.table_chunks, frames);
    assert_eq!(evaluator.table_chunks, frames);
    assert!(evaluator.io_stall_ns > 0, "the evaluator waited for the garbler's frames");
    assert_eq!(garbler.io_stall_ns, 0, "the garbler never waited for an ack");
    server.shutdown();
}

#[test]
fn negotiated_sessions_get_extension_above_the_kappa_threshold() {
    // The server's OT policy: extension when the workload has at least
    // κ = 128 evaluator inputs (DotProd Small: 256), the per-input
    // base OT below it (Triangle Small: 23) — the fixed bootstrap cost
    // must not dominate tiny input phases. Cold negotiated clients
    // follow whatever the ack says, and the garbler-side reports in
    // the registry pin the resulting cost split.
    let server = Server::new(ServerConfig { workers: 1, ..ServerConfig::default() });
    let mut big = server.connect();
    client::run_session(&mut big, &SessionRequest::negotiated("DotProd", Scale::Small, 41))
        .expect("negotiated extended session succeeds");
    let mut small = server.connect();
    client::run_session(&mut small, &SessionRequest::negotiated("Triangle", Scale::Small, 42))
        .expect("negotiated base session succeeds");
    assert!(server.registry().wait_drained(Duration::from_secs(30)));
    let outcomes = server.registry().outcomes();
    let report_for = |workload: &str| {
        outcomes
            .iter()
            .find(|o| o.workload == workload)
            .and_then(|o| o.result.as_ref().ok())
            .expect("completed garbler report")
    };
    let dot = report_for("DotProd");
    assert_eq!(dot.base_ots, haac_gc::OT_EXT_KAPPA as u64);
    assert_eq!(dot.ext_ots, 256);
    let tri = report_for("Triangle");
    assert_eq!(tri.base_ots, 23);
    assert_eq!(tri.ext_ots, 0);
    // The metrics plane splits the same counts by mode.
    let samples = haac_telemetry::parse(&server.metrics_snapshot()).expect("snapshot parses");
    assert!(samples.iter().any(|s| s.name == "haac_base_ots_total"
        && s.label("workload") == Some("DotProd")
        && s.value == haac_gc::OT_EXT_KAPPA as f64));
    assert!(samples.iter().any(|s| s.name == "haac_ext_ots_total" && s.value == 256.0));
    assert!(samples.iter().any(|s| s.name == "haac_ots_per_sec"));
    server.shutdown();
}

#[test]
fn unknown_reorder_tag_is_a_recorded_failure_not_a_hang() {
    // A client speaking a newer schedule vocabulary (reorder tag 9):
    // the request parser rejects it, the session ends as a typed failed
    // outcome naming the field, and the client's ack read fails fast
    // instead of hanging.
    let server = Server::new(ServerConfig { workers: 1, ..ServerConfig::default() });
    let mut channel = server.connect();
    channel.send(&[0x71, 4]).unwrap(); // request tag + name length
    channel.send(b"Hamm").unwrap();
    channel.send(&[0u8, 9, 0]).unwrap(); // scale Small, reorder tag 9: unknown, OT base
    channel.send(&33u64.to_le_bytes()).unwrap();
    channel.flush().unwrap();
    let err =
        haac_server::request::read_ack(&mut channel).expect_err("the server must hang up, not ack");
    drop(err);
    drop(channel);
    assert!(server.registry().wait_drained(Duration::from_secs(30)));
    let outcomes = server.registry().outcomes();
    assert_eq!(outcomes.len(), 1);
    let failure = outcomes[0].result.as_ref().unwrap_err();
    assert!(failure.contains("reorder"), "{failure}");
    server.shutdown();
}

#[test]
fn outcomes_record_failures_with_reasons() {
    let server = Server::new(ServerConfig { workers: 1, ..ServerConfig::default() });
    let mut unknown = server.connect();
    let (workload, config) = client::prepare(WorkloadKind::DotProduct, Scale::Small);
    let _ = client::run_session_with(&mut unknown, &request("Bogus", 0), &workload, &config);
    assert!(server.registry().wait_drained(Duration::from_secs(30)));
    let outcomes = server.registry().outcomes();
    assert_eq!(outcomes.len(), 1);
    let failure = outcomes[0].result.as_ref().unwrap_err();
    assert!(failure.contains("unknown workload"), "{failure}");
    server.shutdown();
}

#[test]
fn same_seed_same_transcript_distinct_seeds_distinct_bytes() {
    // The service is deterministic per request: byte counts (and
    // outputs) repeat for a repeated seed.
    let server = Server::new(ServerConfig { workers: 1, ..ServerConfig::default() });
    let mut a = server.connect();
    let ra = client::run_session(&mut a, &request("DotProd", 42)).unwrap();
    let mut b = server.connect();
    let rb = client::run_session(&mut b, &request("DotProd", 42)).unwrap();
    assert_eq!(ra.outputs, rb.outputs);
    assert_eq!(ra.bytes_received, rb.bytes_received);
    assert_eq!(ra.tables, rb.tables);
    server.shutdown();
}

#[test]
fn shutdown_reports_even_with_no_sessions() {
    let server = Server::new(ServerConfig { workers: 1, ..ServerConfig::default() });
    let report = server.shutdown();
    assert_eq!(report.total_sessions, 0);
    assert_eq!(report.aggregate_and_gates_per_sec, 0.0);
    assert_eq!(report.p99_session_secs, 0.0);
}
