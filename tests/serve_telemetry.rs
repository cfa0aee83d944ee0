//! `/v1/health` and the telemetry snapshot read one set of counters.
//!
//! Its own test binary: booting a server installs and enables the
//! process-global recorder, and `tests/telemetry.rs` asserts that
//! telemetry starts disabled.

use haxconn::api::{BatchRequest, ScheduleResponse};
use haxconn::prelude::*;
use haxconn::serve::client::Client;
use haxconn::serve::{serve, ServeOptions};
use haxconn::telemetry as tel;

fn spec() -> WorkloadSpec {
    WorkloadSpec::new("orin")
        .task("googlenet", 5)
        .task("resnet18", 5)
}

fn solver_solves() -> u64 {
    let rec = tel::memory_recorder().expect("the server installed the memory recorder");
    rec.snapshot()
        .counters
        .get("solver.solves")
        .copied()
        .unwrap_or(0)
}

#[test]
fn health_and_telemetry_are_one_set_of_counters() {
    let server = serve(ServeOptions::default()).expect("server boots on an ephemeral port");
    let mut client = Client::connect(server.addr()).expect("connects");
    let body = spec().to_json().expect("spec serializes");

    // A miss, then a repeat: the repeat hits by its canonical key.
    let (status, solved) = client.post("/v1/schedule", &body).expect("responds");
    assert_eq!(status, 200, "{solved}");
    let solved: ScheduleResponse = serde_json::from_str(&solved).expect("parses");
    let (status, _) = client.post("/v1/schedule", &body).expect("responds");
    assert_eq!(status, 200);
    // A non-canonical spelling twice: the first stores an alias, the
    // second hits it by its raw bytes.
    let alias = WorkloadSpec::new("Orin-AGX")
        .task("GoogLeNet", 5)
        .task("ResNet18", 5)
        .to_json()
        .expect("spec serializes");
    for _ in 0..2 {
        let (status, body) = client.post("/v1/schedule", &alias).expect("responds");
        assert_eq!(status, 200, "{body}");
    }
    let (status, _) = client.get("/v1/nope").expect("responds");
    assert_eq!(status, 404);
    let (status, body) = client.post("/v1/schedule", "{not json").expect("responds");
    assert_eq!(status, 400);
    assert!(body.contains("bad_json"), "{body}");

    // A batch measures candidates without solving the spec.
    let solves_before = solver_solves();
    let batch = BatchRequest {
        spec: spec(),
        candidates: vec![solved.assignment],
        iterations: Some(1),
    };
    let batch = serde_json::to_string(&batch).expect("serializes");
    let (status, body) = client.post("/v1/batch", &batch).expect("responds");
    assert_eq!(status, 200, "{body}");
    assert_eq!(solver_solves(), solves_before, "/v1/batch ran a solve");

    // Every response has been received and the connection is idle, so
    // the counters are quiescent.
    let snap = tel::memory_recorder().expect("installed").snapshot();
    let engine = server.engine().stats();
    let wire = server.stats().wire();
    assert_eq!(
        (
            engine.requests,
            engine.cache_hits,
            engine.cache_misses,
            engine.solves
        ),
        (4, 3, 1, 1),
        "{engine:?}"
    );
    assert_eq!((wire.requests, wire.http_2xx, wire.http_4xx), (7, 5, 2));
    let expected = [
        ("engine.requests", engine.requests),
        ("engine.cache.hits", engine.cache_hits),
        ("engine.cache.misses", engine.cache_misses),
        ("engine.cache.evictions", engine.cache_evictions),
        ("engine.solves", engine.solves),
        ("engine.coalesced", engine.coalesced),
        ("engine.degraded", engine.degraded),
        ("engine.rejected", engine.rejected),
        (
            "engine.duplicate_inflight_solves",
            engine.duplicate_inflight_solves,
        ),
        ("serve.connections", wire.connections),
        ("serve.accept_rejections", wire.accept_queue_rejections),
        ("serve.requests", wire.requests),
        ("serve.http_2xx", wire.http_2xx),
        ("serve.http_4xx", wire.http_4xx),
        ("serve.http_5xx", wire.http_5xx),
        ("serve.idle_closed", wire.idle_closed),
        ("serve.serialize_errors", wire.serialize_errors),
        ("serve.reactor.wakeups", wire.reactor_wakeups),
    ];
    for (name, value) in expected {
        assert_eq!(snap.counters.get(name), Some(&value), "{name}");
    }
    let served: Vec<&String> = snap
        .counters
        .keys()
        .filter(|k| k.starts_with("engine.") || k.starts_with("serve."))
        .collect();
    assert_eq!(
        served.len(),
        expected.len(),
        "unmatched counters: {served:?}"
    );
    assert_eq!(
        snap.gauges.get("serve.conns.open"),
        Some(&(wire.open_connections as f64))
    );
    assert_eq!(
        snap.histograms["serve.request_us"].count,
        wire.http_2xx + wire.http_4xx + wire.http_5xx
    );
    drop(client);
    server.stop();
}
