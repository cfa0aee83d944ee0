//! End-to-end tests of `haxconn serve`: a real server on an ephemeral
//! port, driven through real sockets by the blocking client the load
//! generator also uses.
//!
//! One process-wide note: the engine behind each test is private to its
//! `ServerHandle`, so tests are independent; the telemetry recorder is
//! process-global but these assertions only require counters to be
//! present, never exact.

use haxconn::api::{ErrorBody, HealthResponse, ScheduleResponse, SCHEMA_VERSION};
use haxconn::prelude::*;
use haxconn::serve::client::Client;
use haxconn::serve::{serve, ServeOptions};
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn boot(options: ServeOptions) -> haxconn::serve::ServerHandle {
    serve(ServeOptions {
        addr: "127.0.0.1:0".into(),
        ..options
    })
    .expect("server boots on an ephemeral port")
}

fn spec() -> WorkloadSpec {
    WorkloadSpec::new("orin")
        .task("googlenet", 5)
        .task("resnet18", 5)
}

fn spec_json() -> String {
    spec().to_json().expect("spec serializes")
}

#[test]
fn schedule_endpoint_matches_session_bit_for_bit() {
    // The acceptance gate: HTTP schedules are bit-identical to
    // Session::schedule for the same WorkloadSpec, down to the raw
    // response bytes.
    let local = Session::from_spec(&spec()).schedule().expect("schedulable");
    let server = boot(ServeOptions::default());
    let mut client = Client::connect(server.addr()).expect("connects");
    let (status, solved_body) = client.post("/v1/schedule", &spec_json()).expect("responds");
    assert_eq!(status, 200, "{solved_body}");
    let resp: ScheduleResponse =
        serde_json::from_str(&solved_body).expect("schedule response parses");
    assert_eq!(resp.schema, SCHEMA_VERSION);
    assert!(!resp.degraded);
    assert_eq!(resp.origin, "optimal");

    assert_eq!(resp.assignment, local.schedule.assignment);
    assert_eq!(resp.cost.to_bits(), local.schedule.cost.to_bits());
    assert_eq!(
        resp.makespan_ms.to_bits(),
        local.schedule.predicted.makespan_ms.to_bits()
    );
    // The raw bytes are exactly those values re-serialized: nothing on
    // the wire rounds a float or adds a field.
    assert_eq!(
        serde_json::to_string(&resp).expect("re-serializes"),
        solved_body
    );

    // Second submit over the same keep-alive connection: a cache hit
    // answered inline on the reactor thread instead of the solve pool,
    // byte-identical apart from the provenance flag.
    let (status, cached_body) = client.post("/v1/schedule", &spec_json()).expect("responds");
    assert_eq!(status, 200);
    let cached: ScheduleResponse = serde_json::from_str(&cached_body).expect("parses");
    assert!(cached.cached);
    assert_eq!(
        cached_body,
        solved_body.replacen("\"cached\":false", "\"cached\":true", 1),
        "cache hits must serve the solved bytes"
    );
    server.stop();
}

#[test]
fn batch_endpoint_evaluates_candidates_in_order() {
    let server = boot(ServeOptions::default());
    let mut client = Client::connect(server.addr()).expect("connects");

    // Get the solved assignment first, then batch it with an all-GPU
    // candidate.
    let (status, body) = client.post("/v1/schedule", &spec_json()).expect("responds");
    assert_eq!(status, 200, "{body}");
    let solved: ScheduleResponse = serde_json::from_str(&body).expect("parses");
    let all_gpu: Vec<Vec<usize>> = solved.assignment.iter().map(|r| vec![0; r.len()]).collect();
    let req = haxconn::api::BatchRequest {
        spec: spec(),
        candidates: vec![solved.assignment.clone(), all_gpu],
        iterations: Some(1),
    };
    let body = serde_json::to_string(&req).expect("serializes");
    let (status, body) = client.post("/v1/batch", &body).expect("responds");
    assert_eq!(status, 200, "{body}");
    let resp: haxconn::api::BatchResponse = serde_json::from_str(&body).expect("parses");
    assert_eq!(resp.reports.len(), 2);

    // Reports match a local measure_many bit for bit.
    let local = Session::from_spec(&spec()).schedule().expect("schedulable");
    let reports = local
        .measure_many(&req.candidates, 1)
        .expect("batch measures");
    for (wire, local) in resp.reports.iter().zip(&reports) {
        assert_eq!(wire.makespan_ms.to_bits(), local.makespan_ms.to_bits());
        assert_eq!(wire.fps.to_bits(), local.fps().to_bits());
    }

    // An infeasible candidate is a typed 422, not a panic.
    let bad = haxconn::api::BatchRequest {
        spec: spec(),
        candidates: vec![vec![vec![99; 5], vec![99; 5]]],
        iterations: Some(1),
    };
    let body = serde_json::to_string(&bad).expect("serializes");
    let (status, body) = client.post("/v1/batch", &body).expect("responds");
    assert_eq!(status, 422, "{body}");
    let err: ErrorBody = serde_json::from_str(&body).expect("parses");
    assert_eq!(err.error, "infeasible");
    server.stop();
}

#[test]
fn health_and_telemetry_report_the_server() {
    let server = boot(ServeOptions::default());
    let mut client = Client::connect(server.addr()).expect("connects");
    client.post("/v1/schedule", &spec_json()).expect("responds");

    let (status, body) = client.get("/v1/health").expect("responds");
    assert_eq!(status, 200, "{body}");
    let health: HealthResponse = serde_json::from_str(&body).expect("parses");
    assert_eq!(health.status, "ok");
    assert_eq!(health.schema, SCHEMA_VERSION);
    assert!(health.engine.requests >= 1);
    assert!(health.engine.solves >= 1);
    assert_eq!(health.engine.duplicate_inflight_solves, 0);
    assert!(health.server.requests >= 1);
    assert!(health.server.latency_p99_us >= health.server.latency_p50_us);

    let (status, body) = client.get("/v1/telemetry").expect("responds");
    assert_eq!(status, 200);
    let snap: serde_json::Value = serde_json::from_str(&body).expect("snapshot is JSON");
    let re = serde_json::to_string(&snap).expect("re-serializes");
    assert!(re.contains("engine.requests"), "{re}");
    server.stop();
}

#[test]
fn identical_concurrent_requests_coalesce_to_one_solve() {
    let server = boot(ServeOptions::default());
    const N: usize = 6;
    let addr = server.addr();
    let barrier = Arc::new(Barrier::new(N));
    let mut handles = Vec::new();
    for _ in 0..N {
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connects");
            barrier.wait();
            let (status, body) = client.post("/v1/schedule", &spec_json()).expect("responds");
            assert_eq!(status, 200, "{body}");
            let resp: ScheduleResponse = serde_json::from_str(&body).expect("parses");
            (resp.cost.to_bits(), resp.assignment)
        }));
    }
    let results: Vec<(u64, Vec<Vec<usize>>)> = handles
        .into_iter()
        .map(|h| h.join().expect("no panic"))
        .collect();
    for r in &results {
        assert_eq!(r.0, results[0].0, "coalesced responses must be identical");
        assert_eq!(r.1, results[0].1);
    }
    let stats = server.engine().stats();
    assert_eq!(
        stats.solves, 1,
        "N identical concurrent requests → 1 solve: {stats:?}"
    );
    assert_eq!(stats.duplicate_inflight_solves, 0);
    assert_eq!(
        stats.cache_hits + stats.coalesced + stats.solves,
        N as u64,
        "{stats:?}"
    );
    server.stop();
}

#[test]
fn overload_degrades_to_baseline_not_errors() {
    // A zero-slot solver pool: every request overflows admission and
    // must be served the degraded baseline with a 200, never an error.
    let server = boot(ServeOptions {
        engine: EngineOptions {
            max_concurrent_solves: Some(0),
            max_pending_solves: 0,
            ..Default::default()
        },
        ..Default::default()
    });
    let mut client = Client::connect(server.addr()).expect("connects");
    for _ in 0..3 {
        let (status, body) = client.post("/v1/schedule", &spec_json()).expect("responds");
        assert_eq!(status, 200, "overload must degrade, not fail: {body}");
        let resp: ScheduleResponse = serde_json::from_str(&body).expect("parses");
        assert!(resp.degraded);
        assert!(resp.origin.starts_with("fallback:"), "{}", resp.origin);
    }
    let stats = server.engine().stats();
    assert_eq!(stats.degraded, 3);
    assert_eq!(stats.solves, 0);

    // With degradation off, the same overload is a typed 503.
    let strict = boot(ServeOptions {
        engine: EngineOptions {
            max_concurrent_solves: Some(0),
            max_pending_solves: 0,
            degrade_on_overload: false,
            ..Default::default()
        },
        ..Default::default()
    });
    let mut client = Client::connect(strict.addr()).expect("connects");
    let (status, body) = client.post("/v1/schedule", &spec_json()).expect("responds");
    assert_eq!(status, 503, "{body}");
    let err: ErrorBody = serde_json::from_str(&body).expect("parses");
    assert_eq!(err.error, "overloaded");
    strict.stop();
    server.stop();
}

#[test]
fn protocol_and_domain_errors_are_typed() {
    let server = boot(ServeOptions::default());
    let mut client = Client::connect(server.addr()).expect("connects");

    let cases: [(&str, &str, Option<&str>, u16, &str); 5] = [
        ("POST", "/v1/schedule", Some("{nope"), 400, "bad_json"),
        // `config: null` is valid wire input (default configuration),
        // so this body parses and fails on the platform instead.
        (
            "POST",
            "/v1/schedule",
            Some("{\"platform\":\"tpu9000\",\"tasks\":[{\"model\":\"alexnet\",\"groups\":4}],\"deps\":[],\"ties\":[],\"config\":null}"),
            400,
            "unknown_platform",
        ),
        ("GET", "/v1/nope", None, 404, "not_found"),
        ("GET", "/v1/schedule", None, 405, "method_not_allowed"),
        ("POST", "/v1/health", Some("{}"), 405, "method_not_allowed"),
    ];
    for (method, path, body, want_status, want_code) in cases {
        let (status, resp) = client.request(method, path, body).expect("responds");
        assert_eq!(status, want_status, "{method} {path}: {resp}");
        let err: ErrorBody = serde_json::from_str(&resp).expect("typed error body");
        assert_eq!(err.error, want_code, "{method} {path}");
        assert_eq!(err.schema, SCHEMA_VERSION);
    }

    // A well-formed spec with an unknown platform maps to the stable
    // unknown_platform code.
    let bad = WorkloadSpec::new("tpu9000").task("alexnet", 4);
    let body = bad.to_json().expect("serializes");
    let (status, resp) = client.post("/v1/schedule", &body).expect("responds");
    assert_eq!(status, 400, "{resp}");
    let err: ErrorBody = serde_json::from_str(&resp).expect("parses");
    assert_eq!(err.error, "unknown_platform");

    // Unknown model → unknown_model.
    let bad = WorkloadSpec::new("orin").task("transformerXXL", 4);
    let body = bad.to_json().expect("serializes");
    let (status, resp) = client.post("/v1/schedule", &body).expect("responds");
    assert_eq!(status, 400, "{resp}");
    let err: ErrorBody = serde_json::from_str(&resp).expect("parses");
    assert_eq!(err.error, "unknown_model");
    server.stop();
}

#[test]
fn oversized_bodies_are_rejected_without_reading() {
    let server = boot(ServeOptions {
        max_body_bytes: 256,
        ..Default::default()
    });
    let mut client = Client::connect(server.addr()).expect("connects");
    let huge = format!("{{\"pad\":\"{}\"}}", "x".repeat(1024));
    client.post("/v1/schedule", &huge).map(|r| r.0).ok();
    // Re-drive with the header-aware reader to see the close.
    let mut client = Client::connect(server.addr()).expect("connects");
    client
        .send("POST", "/v1/schedule", Some(&huge))
        .expect("sends");
    let (status, headers, body) = client.read_reply_with_headers().expect("responds");
    assert_eq!(status, 413, "{body}");
    let err: ErrorBody = serde_json::from_str(&body).expect("parses");
    assert_eq!(err.error, "payload_too_large");
    assert!(
        headers.iter().any(|h| h == "Connection: close"),
        "a 413 must announce the close: {headers:?}"
    );
    server.stop();
}

/// Satellite: a single stray CRLF between pipelined requests (a common
/// client artifact) is tolerated; two empty lines stay malformed.
#[test]
fn one_stray_crlf_between_requests_is_tolerated_on_the_wire() {
    let server = boot(ServeOptions::default());
    let mut client = Client::connect(server.addr()).expect("connects");
    let (status, _) = client.get("/v1/health").expect("responds");
    assert_eq!(status, 200);
    // One stray blank line, then a valid request: still served.
    client.write_raw(b"\r\n").expect("writes");
    let (status, _) = client.get("/v1/health").expect("responds");
    assert_eq!(status, 200, "one stray CRLF must be skipped");
    // Two blank lines: malformed, answered 400 and closed.
    client.write_raw(b"\r\n\r\n").expect("writes");
    client.send("GET", "/v1/health", None).expect("writes");
    let (status, headers, body) = client.read_reply_with_headers().expect("responds");
    assert_eq!(status, 400, "{body}");
    let err: ErrorBody = serde_json::from_str(&body).expect("parses");
    assert_eq!(err.error, "bad_request");
    assert!(
        headers.iter().any(|h| h == "Connection: close"),
        "framing errors must announce the close: {headers:?}"
    );
    let eof = client.read_reply();
    assert!(eof.is_err(), "the socket must be closed: {eof:?}");
    server.stop();
}

/// Satellite: error responses on framing failures send
/// `Connection: close` and the server actually closes the socket.
#[test]
fn framing_errors_close_the_connection_and_say_so() {
    let server = boot(ServeOptions::default());
    let mut client = Client::connect(server.addr()).expect("connects");
    client.write_raw(b"NONSENSE\r\n\r\n").expect("writes");
    let (status, headers, body) = client.read_reply_with_headers().expect("responds");
    assert_eq!(status, 400, "{body}");
    let err: ErrorBody = serde_json::from_str(&body).expect("parses");
    assert_eq!(err.error, "bad_request");
    assert!(
        headers.iter().any(|h| h == "Connection: close"),
        "{headers:?}"
    );
    let eof = client.read_reply();
    assert!(eof.is_err(), "socket must be closed: {eof:?}");
    // A fresh connection is unaffected.
    let mut fresh = Client::connect(server.addr()).expect("connects");
    let (status, _) = fresh.get("/v1/health").expect("responds");
    assert_eq!(status, 200);
    server.stop();
}

/// `Content-Length` is `1*DIGIT` and a repeated one must agree (RFC
/// 9112 §6.3): a signed or conflicting value is a framing error, a
/// repeated identical value is fine.
#[test]
fn signed_or_conflicting_content_lengths_are_framing_errors() {
    let server = boot(ServeOptions::default());
    let mut client = Client::connect(server.addr()).expect("connects");
    client
        .write_raw(b"GET /v1/health HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 0\r\n\r\n")
        .expect("writes");
    let (status, _) = client.read_reply().expect("responds");
    assert_eq!(status, 200, "identical repeated lengths are accepted");
    for head in [
        "POST /v1/schedule HTTP/1.1\r\nContent-Length: +2\r\n\r\n{}",
        "POST /v1/schedule HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n{}",
    ] {
        let mut client = Client::connect(server.addr()).expect("connects");
        client.write_raw(head.as_bytes()).expect("writes");
        let (status, headers, body) = client.read_reply_with_headers().expect("responds");
        assert_eq!(status, 400, "{head:?}: {body}");
        let err: ErrorBody = serde_json::from_str(&body).expect("parses");
        assert_eq!(err.error, "bad_request");
        assert!(
            headers.iter().any(|h| h == "Connection: close"),
            "{headers:?}"
        );
        let eof = client.read_reply();
        assert!(eof.is_err(), "socket must be closed: {eof:?}");
    }
    assert_eq!(
        server.engine().stats().requests,
        0,
        "nothing reached the engine"
    );
    server.stop();
}

/// A repeat body is answered from the engine cache by its raw bytes: the
/// canonical JSON hits its own key, and another spelling is stored as an
/// alias of that key on its first hit. Every spelling gets the same
/// bytes as today's cache hit, and the engine counts every request once.
#[test]
fn repeat_spellings_are_served_through_aliases_byte_identically() {
    let local = Session::from_spec(&spec()).schedule().expect("schedulable");
    let server = boot(ServeOptions::default());
    let mut client = Client::connect(server.addr()).expect("connects");
    let (status, solved) = client.post("/v1/schedule", &spec_json()).expect("responds");
    assert_eq!(status, 200, "{solved}");
    let expected = solved.replacen("\"cached\":false", "\"cached\":true", 1);
    let wire: ScheduleResponse = serde_json::from_str(&expected).expect("parses");
    assert_eq!(wire.assignment, local.schedule.assignment);
    assert_eq!(wire.cost.to_bits(), local.schedule.cost.to_bits());
    assert_eq!(
        wire.makespan_ms.to_bits(),
        local.schedule.predicted.makespan_ms.to_bits()
    );
    assert_eq!(server.engine().cached_schedules(), 1);

    // The short spelling (platform alias, `"config":null`) and the
    // canonical JSON, each twice.
    let canonical = spec().cache_key().expect("canonicalizes");
    let short = spec_json();
    assert!(short.len() < canonical.len(), "{short} vs {canonical}");
    for body in [&canonical, &short, &canonical, &short] {
        let (status, hit) = client.post("/v1/schedule", body).expect("responds");
        assert_eq!(status, 200);
        assert_eq!(hit, expected, "every hit serves the same bytes ({body})");
    }
    assert_eq!(
        server.engine().cached_schedules(),
        2,
        "the canonical key plus one alias for the short spelling"
    );

    // A spelling more than twice as long as its key is answered the
    // same, but never stored.
    let long = format!("{short}{}", " ".repeat(2 * canonical.len()));
    for _ in 0..2 {
        let (status, hit) = client.post("/v1/schedule", &long).expect("responds");
        assert_eq!(status, 200);
        assert_eq!(hit, expected);
    }
    assert_eq!(
        server.engine().cached_schedules(),
        2,
        "long bodies are not aliased"
    );

    let stats = server.engine().stats();
    assert_eq!(stats.requests, 7);
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.requests);
    assert_eq!((stats.cache_hits, stats.solves), (6, 1));
    server.stop();
}

/// A complete request head over the 16 KiB cap, arriving in one write,
/// is refused as malformed rather than parsed.
#[test]
fn oversized_complete_heads_are_rejected_in_one_write() {
    let server = boot(ServeOptions::default());
    let mut client = Client::connect(server.addr()).expect("connects");
    let raw = format!(
        "GET /v1/health HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "x".repeat(20 * 1024)
    );
    client.write_raw(raw.as_bytes()).expect("writes");
    let (status, headers, body) = client.read_reply_with_headers().expect("responds");
    assert_eq!(status, 400, "{body}");
    let err: ErrorBody = serde_json::from_str(&body).expect("parses");
    assert_eq!(err.error, "bad_request");
    assert!(
        headers.iter().any(|h| h == "Connection: close"),
        "an oversized head must announce the close: {headers:?}"
    );
    let eof = client.read_reply();
    assert!(eof.is_err(), "socket must be closed: {eof:?}");
    server.stop();
}

/// Satellite: a slowloris client dribbling a request byte-at-a-time
/// stalls nobody else — concurrent clients keep getting bit-identical
/// responses, and the slow request itself eventually completes.
#[test]
fn slowloris_writer_does_not_stall_other_connections() {
    let local = Session::from_spec(&spec()).schedule().expect("schedulable");
    let server = boot(ServeOptions::default());
    let addr = server.addr();

    // The slow writer: one valid schedule request, one byte at a
    // time.
    let slow = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connects");
        let body = spec_json();
        let raw = format!(
            "POST /v1/schedule HTTP/1.1\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        for chunk in raw.as_bytes().chunks(1) {
            client.write_raw(chunk).expect("dribbles");
            std::thread::sleep(Duration::from_millis(1));
        }
        client.read_reply().expect("slow request still completes")
    });

    // Meanwhile a normal client is served, bit-identically.
    let mut fast = Client::connect(addr).expect("connects");
    for _ in 0..10 {
        let (status, body) = fast.post("/v1/schedule", &spec_json()).expect("responds");
        assert_eq!(status, 200, "{body}");
        let resp: ScheduleResponse = serde_json::from_str(&body).expect("parses");
        assert_eq!(resp.assignment, local.schedule.assignment);
        assert_eq!(resp.cost.to_bits(), local.schedule.cost.to_bits());
    }

    let (status, body) = slow.join().expect("no panic");
    assert_eq!(status, 200, "{body}");
    let resp: ScheduleResponse = serde_json::from_str(&body).expect("parses");
    assert_eq!(resp.assignment, local.schedule.assignment);
    server.stop();
}

/// Satellite: a client that never reads its responses backs its own
/// connection up (the server buffers and resumes on `EPOLLOUT` with a
/// deliberately tiny kernel send buffer) while everyone else stays
/// live; when it finally drains, every response is intact and in order.
#[test]
fn unread_responses_only_stall_their_own_connection() {
    const PIPELINED: usize = 256;
    let local = Session::from_spec(&spec()).schedule().expect("schedulable");
    let server = boot(ServeOptions {
        send_buffer_bytes: Some(4096),
        ..Default::default()
    });

    // The hoarder pipelines many requests and reads nothing yet.
    let mut hoarder = Client::connect(server.addr()).expect("connects");
    let body = spec_json();
    for _ in 0..PIPELINED {
        hoarder
            .send("POST", "/v1/schedule", Some(&body))
            .expect("pipelines");
    }

    // Unrelated connections keep completing while the hoarder's
    // responses pile up server-side.
    let mut fast = Client::connect(server.addr()).expect("connects");
    for _ in 0..10 {
        let (status, body) = fast.post("/v1/schedule", &spec_json()).expect("responds");
        assert_eq!(status, 200, "{body}");
        let resp: ScheduleResponse = serde_json::from_str(&body).expect("parses");
        assert_eq!(resp.assignment, local.schedule.assignment);
    }

    // Now drain: all pipelined responses arrive, correct and in
    // order.
    for i in 0..PIPELINED {
        let (status, body) = hoarder
            .read_reply()
            .unwrap_or_else(|e| panic!("response {i}: {e}"));
        assert_eq!(status, 200, "response {i}: {body}");
        let resp: ScheduleResponse = serde_json::from_str(&body).expect("parses");
        assert_eq!(resp.assignment, local.schedule.assignment);
    }
    server.stop();
}

/// Satellite: idle keep-alive connections are evicted after the idle
/// timeout (and counted), without disturbing fresh connections.
#[test]
fn idle_connections_are_evicted_after_the_timeout() {
    let server = boot(ServeOptions {
        idle_timeout: Duration::from_millis(300),
        ..Default::default()
    });
    let mut client = Client::connect(server.addr()).expect("connects");
    let (status, _) = client.get("/v1/health").expect("responds");
    assert_eq!(status, 200);

    // Go idle past the timeout: the server must close on us.
    client
        .stream()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("sets timeout");
    let eof = client.read_reply();
    assert!(
        matches!(&eof, Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
        "expected the idle server-side close, got {eof:?}"
    );

    // The eviction is counted and fresh connections are served.
    let mut fresh = Client::connect(server.addr()).expect("connects");
    let (status, body) = fresh.get("/v1/health").expect("responds");
    assert_eq!(status, 200);
    let health: HealthResponse = serde_json::from_str(&body).expect("parses");
    assert!(
        health.server.idle_closed >= 1,
        "idle_closed missing: {:?}",
        health.server
    );
    server.stop();
}

/// The reactor's connection cap answers `503 overloaded` at the accept
/// edge instead of accumulating fds without bound.
#[test]
fn reactor_connection_cap_rejects_at_the_accept_edge() {
    let server = boot(ServeOptions {
        max_conns: 2,
        ..Default::default()
    });
    // Fill the cap with two live connections.
    let mut a = Client::connect(server.addr()).expect("connects");
    let mut b = Client::connect(server.addr()).expect("connects");
    assert_eq!(a.get("/v1/health").expect("responds").0, 200);
    assert_eq!(b.get("/v1/health").expect("responds").0, 200);

    // The third is told to back off.
    let mut c = Client::connect(server.addr()).expect("connects (TCP level)");
    c.send("GET", "/v1/health", None).expect("sends");
    let (status, headers, body) = c.read_reply_with_headers().expect("gets the 503");
    assert_eq!(status, 503, "{body}");
    let err: ErrorBody = serde_json::from_str(&body).expect("parses");
    assert_eq!(err.error, "overloaded");
    assert!(headers.iter().any(|h| h == "Connection: close"));

    // Capped connections keep working; freeing one readmits.
    assert_eq!(a.get("/v1/health").expect("responds").0, 200);
    drop(b);
    std::thread::sleep(Duration::from_millis(100));
    let mut d = Client::connect(server.addr()).expect("connects");
    assert_eq!(d.get("/v1/health").expect("responds").0, 200);
    server.stop();
}
