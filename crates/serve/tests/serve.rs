//! End-to-end tests of the daemon over real sockets.
//!
//! These drive the full stack — listener, framing, dispatch, session pool,
//! metrics — from the same [`revterm_serve::Client`] the CLI uses, and hold
//! the daemon to its two headline promises: verdicts bitwise-identical to
//! in-process runs (checked through [`revterm::outcome_digest`]
//! fingerprints) and structured degradation (timeouts, garbage and
//! oversized frames never kill the connection, let alone the daemon).

use revterm::api::{outcome_digest, RequestBody, ResponseBody};
use revterm::{Error, ProverConfig, ProverSession};
use revterm_serve::{serve, Client, ServeConfig};
use std::io::{BufRead, BufReader, Write};

const RUNNING: &str = "while x >= 9 do x := ndet(); y := 10 * x; while x <= y do x := x + 1; od od";
const DIVERGING: &str = "while x >= 0 do x := x + 1; od";

fn start() -> revterm_serve::ServerHandle {
    serve(&ServeConfig::default()).expect("daemon must start on an ephemeral port")
}

#[test]
fn two_clients_get_in_process_digests_and_the_second_hits_the_pool() {
    let handle = start();
    let addr = handle.addr();
    let configs = revterm::quick_sweep();

    // The ground truth: an in-process run of the same request.
    let mut session = ProverSession::from_source(RUNNING).unwrap();
    let expected = session.prove_first(&configs);
    let expected_digest = outcome_digest(&expected, session.ts());

    // Two clients issue the same request concurrently.
    let worker = {
        let configs = configs.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.prove(RUNNING, configs, None).unwrap()
        })
    };
    let mut client = Client::connect(addr).unwrap();
    let (outcome_a, _) = client.prove(RUNNING, configs.clone(), None).unwrap();
    let (outcome_b, _) = worker.join().unwrap();

    assert_eq!(outcome_a.digest, expected_digest, "daemon verdict differs from in-process");
    assert_eq!(outcome_b.digest, expected_digest);
    assert_eq!(outcome_a.label, expected.config_label);

    // A third request for the same program must be served by a pooled
    // (warm) session — and still produce the identical digest.
    let (outcome_c, pool_hit) = client.prove(RUNNING, configs, None).unwrap();
    assert!(pool_hit, "third identical request must hit the session pool");
    assert_eq!(outcome_c.digest, expected_digest);
    assert!(
        outcome_c.stats.total_cache_hits() > 0,
        "pooled session must serve from warm caches: {:?}",
        outcome_c.stats
    );

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn zero_deadline_times_out_structurally_and_the_daemon_keeps_working() {
    let handle = start();
    let mut client = Client::connect(handle.addr()).unwrap();

    let (cut, _) = client.prove(RUNNING, vec![ProverConfig::default()], Some(0)).unwrap();
    assert!(cut.is_timeout(), "verdict: {}", cut.verdict);
    assert!(cut.certificate.is_none());

    // The same connection, the same pooled session: an undeadlined request
    // must now produce the normal in-process verdict.
    let mut session = ProverSession::from_source(RUNNING).unwrap();
    let expected = session.prove_first(std::slice::from_ref(&ProverConfig::default()));
    let (ok, pool_hit) = client.prove(RUNNING, vec![ProverConfig::default()], None).unwrap();
    assert!(pool_hit, "the timed-out session must have been checked back in");
    assert!(ok.is_non_terminating());
    assert_eq!(ok.digest, outcome_digest(&expected, session.ts()));

    // A generous deadline does not change the verdict either.
    let (roomy, _) = client.prove(RUNNING, vec![ProverConfig::default()], Some(60_000)).unwrap();
    assert!(roomy.is_non_terminating());

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn sweeps_and_analyze_flow_through_the_daemon() {
    let handle = start();
    let mut client = Client::connect(handle.addr()).unwrap();

    // Sweep with explicit configs, stop after the first success.
    let (outcomes, _) = client.sweep(DIVERGING, revterm::quick_sweep(), 1, None).unwrap();
    let mut session = ProverSession::from_source(DIVERGING).unwrap();
    let report = session.sweep(&revterm::quick_sweep(), 1, None);
    assert_eq!(outcomes.len(), report.outcomes.len());
    for (wire, local) in outcomes.iter().zip(&report.outcomes) {
        assert_eq!(wire.label, local.result.config_label);
        assert_eq!(wire.is_non_terminating(), local.result.is_non_terminating());
    }

    // `stop_after = 0` runs every configuration, on the wire as in process.
    let (all, _) = client.sweep(DIVERGING, revterm::quick_sweep(), 0, None).unwrap();
    assert_eq!(all.len(), revterm::quick_sweep().len());

    // Analyze returns the same report text as the in-process renderer.
    let report = client.analyze(DIVERGING).unwrap();
    assert_eq!(report, revterm::analysis_report(session.ts()));

    // Parse reports the pool key and program shape.
    match client.request(RequestBody::Parse { source: DIVERGING.into() }).unwrap().body {
        ResponseBody::Parsed { program_hash, num_vars, .. } => {
            assert_eq!(program_hash, revterm::program_hash(session.ts()));
            assert_eq!(num_vars, 1);
        }
        other => panic!("unexpected response: {other:?}"),
    }

    // Parse errors come back structured, and the connection survives them.
    let err = client.prove("while x >=", vec![], None).unwrap_err();
    assert!(matches!(err, Error::Parse(_)), "{err}");
    let metrics = client.metrics().unwrap();
    let obj = metrics.as_obj_or("metrics").unwrap();
    assert!(obj.u64_field("total_requests").unwrap() >= 4);
    assert_eq!(
        obj.obj_field("ops").unwrap().obj_field("prove").unwrap().u64_field("errors").unwrap(),
        1
    );

    client.shutdown().unwrap();
    handle.join();
}

#[test]
fn garbage_and_version_mismatches_get_structured_errors_on_a_live_connection() {
    let handle = start();
    let stream = std::net::TcpStream::connect(handle.addr()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;

    let mut send = |line: &str| {
        writer.write_all(line.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        response
    };

    // Raw garbage.
    let response = send("this is not json");
    assert!(response.contains("\"ok\":false"), "{response}");
    assert!(response.contains("protocol"), "{response}");
    // Wrong protocol version.
    let response = send(r#"{"v": 99, "op": "stats", "id": 7}"#);
    assert!(response.contains("unsupported protocol version"), "{response}");
    // Unknown operation.
    let response = send(r#"{"v": 1, "op": "frobnicate", "id": 8}"#);
    assert!(response.contains("\"ok\":false"), "{response}");
    assert!(response.contains("\"id\":8"), "echoes the id when the envelope parses");
    // The connection is still healthy for a real request.
    let response = send(r#"{"v": 1, "op": "stats", "id": 9}"#);
    assert!(response.contains("\"ok\":true"), "{response}");
    assert!(response.contains("\"id\":9"), "{response}");

    handle.shutdown();
    handle.join();
}

#[cfg(unix)]
#[test]
fn unix_socket_serves_the_same_protocol() {
    let path = std::env::temp_dir().join(format!("revterm-serve-test-{}.sock", std::process::id()));
    let config = ServeConfig { unix_path: Some(path.clone()), ..ServeConfig::default() };
    let handle = serve(&config).unwrap();

    let mut client = Client::connect_unix(&path).unwrap();
    let (outcome, _) = client.prove(DIVERGING, revterm::quick_sweep(), None).unwrap();
    assert!(outcome.is_non_terminating());

    // TCP and unix clients share one pool.
    let mut tcp = Client::connect(handle.addr()).unwrap();
    let (_, pool_hit) = tcp.prove(DIVERGING, revterm::quick_sweep(), None).unwrap();
    assert!(pool_hit, "unix and tcp clients must share the session pool");

    tcp.shutdown().unwrap();
    handle.join();
    assert!(!path.exists(), "socket file must be removed on join");
}
