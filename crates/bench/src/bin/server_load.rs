//! Closed- and open-loop load generator for `haxconn serve`, plus the
//! serving-path acceptance gates of the API redesign and the epoll
//! reactor.
//!
//! The bench boots real servers on ephemeral ports and drives them
//! through real sockets with the same blocking keep-alive [`Client`]
//! the integration tests use. Phases, each feeding the machine-checked
//! report written to `BENCH_server.json`:
//!
//! 1. **Warmup / bit-identity** — every spec in a small catalog is
//!    submitted once (populating the sharded schedule cache) and each
//!    HTTP response is checked **bit-for-bit** against
//!    `Session::from_spec(spec).schedule()` run locally: assignment
//!    rows equal, `cost` and `makespan_ms` equal to the bit.
//! 2. **Think time** — [`THINK_CLIENTS`] persistent connections drive
//!    the reactor closed-loop over the warmed catalog with
//!    [`THINK_US`] µs of client think time between requests, far more
//!    connections than [`WORKERS`], each mostly idle. The reactor
//!    multiplexes all of them and answers cache hits inline off a
//!    batched `epoll_wait`. Gate: req/s ≥ [`THINK_TIME_FLOOR_RPS`].
//!    (A think-free closed loop would only measure CPU saturation.)
//! 3. **Closed loop** — [`CLOSED_CLIENTS`] connections each fire
//!    [`CLOSED_REQUESTS_PER_CLIENT`] back-to-back `POST /v1/schedule`
//!    requests at the reactor, zipfian(1.0) over the warmed catalog.
//!    Gates: ≥ [`THROUGHPUT_GATE_RPS`] req/s, zero non-200 responses,
//!    and a cache hit rate ≥ [`CACHE_HIT_GATE`] on the phase's own
//!    engine-counter deltas. Its p99 is the budget reference for the
//!    many-connection phase.
//! 4. **Open loop** — one connection paced at [`OPEN_LOOP_RPS`]
//!    requests/sec (send-at-deadline; a late response never excuses the
//!    next deadline), recording per-request latency. Reported as
//!    p50/p99/mean; not gated (absolute latency is machine-dependent).
//! 5. **Many connections** — [`MANY_CONNS`] keep-alive connections,
//!    each mostly idle, paced at [`MANY_CONN_RPS`] aggregate
//!    (round-robin). The readiness loop must hold hundreds of idle
//!    fds for free. Gates: achieved ≥ [`MANY_CONN_RPS_TOLERANCE`] ×
//!    target, zero errors, and p99 ≤ [`MANY_CONN_P99_FACTOR`] × the
//!    4-client closed-loop p99.
//! 6. **Coalescing** — [`COALESCE_CLIENTS`] threads behind a barrier
//!    submit an identical *fresh* spec concurrently. Gates: exactly one
//!    solver run for the whole burst and `duplicate_inflight_solves ==
//!    0` as reported by `GET /v1/health` (the telemetry-backed proof
//!    that request coalescing, not luck, deduplicated the work).
//! 7. **Overload** — a second server with a zero-slot solver pool
//!    (`max_concurrent_solves = Some(0)`, no pending queue) receives
//!    fresh specs. Gates: every response is a 200 carrying a
//!    `degraded: true` fallback schedule — overload degrades, it never
//!    errors.
//!
//! Any gate failure exits non-zero. Run in release: the throughput gate
//! is calibrated for optimized builds
//! (`cargo run --release -p haxconn-bench --bin server_load`).
//!
//! Usage: `server_load [closed_requests_per_client]` (default 5000).

use haxconn::api::{HealthResponse, ScheduleResponse};
use haxconn::prelude::*;
use haxconn::serve::client::Client;
use haxconn::serve::{serve, ServeOptions, ServerHandle};
use serde::Serialize;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Solve-pool threads of the servers under test.
const WORKERS: usize = 6;

/// Concurrent closed-loop connections in the main reactor phase (kept
/// ≤ [`WORKERS`] so the same phase is comparable with PR 8 numbers).
const CLOSED_CLIENTS: usize = 4;

/// Requests per closed-loop client (overridable via `argv[1]`).
const CLOSED_REQUESTS_PER_CLIENT: usize = 5000;

/// Connections in the think-time phase — deliberately far more than
/// [`WORKERS`], the regime thread-per-connection serving handles worst.
const THINK_CLIENTS: usize = 32;

/// Client think time between requests in the think-time phase, so
/// every keep-alive connection is mostly idle.
const THINK_US: u64 = 500;

/// Keep-alive connections in the many-connection phase.
const MANY_CONNS: usize = 256;

/// Aggregate paced rate across all many-connection clients (each
/// individual connection sits idle ~99% of the time).
const MANY_CONN_RPS: u64 = 2000;

/// Requests sent in the many-connection phase (2 s at target rate).
const MANY_CONN_REQUESTS: usize = 4000;

/// Concurrent connections in the coalescing burst.
const COALESCE_CLIENTS: usize = 6;

/// Paced request rate of the open-loop phase.
const OPEN_LOOP_RPS: u64 = 2000;

/// Requests sent by the open-loop phase (2 s at [`OPEN_LOOP_RPS`]).
const OPEN_LOOP_REQUESTS: usize = 4000;

/// Requests sent to the zero-slot overload server.
const OVERLOAD_REQUESTS: usize = 50;

/// Closed-loop throughput gate on cached workloads, requests/sec.
const THROUGHPUT_GATE_RPS: f64 = 10_000.0;

/// Cache hit rate gate for the closed-loop phase (the catalog is fully
/// warmed, so every request should be a hit).
const CACHE_HIT_GATE: f64 = 0.99;

/// Think-time phase throughput floor, requests/sec. This phase used to
/// be gated at reactor ≥ 1.3× a thread-per-connection ("blocking")
/// server measured in the same run. That server is gone, so the floor
/// freezes the old comparator: 1.3 × 5,611 req/s, the median blocking
/// figure of three runs of this bench just before its removal
/// (5,611 / 7,171 / 5,030 req/s, 2-CPU Linux x86-64 host).
const THINK_TIME_FLOOR_RPS: f64 = 7_295.0;

/// The many-connection phase must achieve at least this fraction of
/// its target rate.
const MANY_CONN_RPS_TOLERANCE: f64 = 0.95;

/// Many-connection p99 budget, as a multiple of the 4-client
/// closed-loop p99 from the same run.
const MANY_CONN_P99_FACTOR: f64 = 2.0;

/// Deterministic xorshift64 — the repo's offline `rand` stand-in.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in [0, 1).
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian(s=1) rank sampler over `n` items: item `r` (0-based) drawn
/// with probability ∝ 1/(r+1).
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / rank as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn pick(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .iter()
            .position(|&c| u <= c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// The workload catalog: distinct (model pair, groups) combinations,
/// hottest ranks first. Small enough to warm fully, large enough that a
/// uniform mix would thrash a tiny cache — the zipfian skew is what a
/// real serving mix looks like.
fn catalog() -> Vec<WorkloadSpec> {
    let pairs: [(&str, &str); 3] = [
        ("googlenet", "resnet18"),
        ("alexnet", "mobilenet"),
        ("resnet50", "googlenet"),
    ];
    let mut specs = Vec::new();
    for groups in 4..=7 {
        for (a, b) in pairs {
            specs.push(WorkloadSpec::new("orin").task(a, groups).task(b, groups));
        }
    }
    specs
}

fn percentile(sorted_us: &[f64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_us.len() - 1) as f64 * q).round() as usize;
    sorted_us[idx]
}

fn mean(us: &[f64]) -> f64 {
    if us.is_empty() {
        return 0.0;
    }
    us.iter().sum::<f64>() / us.len() as f64
}

#[derive(Serialize)]
struct LatencyWire {
    p50_us: f64,
    p99_us: f64,
    mean_us: f64,
    samples: usize,
}

impl LatencyWire {
    fn of(mut samples_us: Vec<f64>) -> LatencyWire {
        samples_us.sort_by(|a, b| a.total_cmp(b));
        LatencyWire {
            p50_us: percentile(&samples_us, 0.50),
            p99_us: percentile(&samples_us, 0.99),
            mean_us: mean(&samples_us),
            samples: samples_us.len(),
        }
    }
}

#[derive(Serialize)]
struct ClosedLoopReport {
    clients: usize,
    requests: usize,
    /// Non-200 responses (gate: 0).
    errors: usize,
    wall_ms: f64,
    req_per_sec: f64,
    /// Engine cache hits / requests over this phase's counter deltas.
    cache_hit_rate: f64,
    latency: LatencyWire,
}

#[derive(Serialize)]
struct OpenLoopReport {
    target_rps: u64,
    requests: usize,
    errors: usize,
    achieved_rps: f64,
    latency: LatencyWire,
}

#[derive(Serialize)]
struct ThinkTimeReport {
    clients: usize,
    requests_per_client: usize,
    /// Client think time between requests — connections are mostly
    /// idle.
    think_us: u64,
    /// Non-200 responses.
    errors: usize,
    /// Gate: ≥ `floor_rps`.
    req_per_sec: f64,
    floor_rps: f64,
    latency: LatencyWire,
}

#[derive(Serialize)]
struct ManyConnReport {
    connections: usize,
    target_rps: u64,
    requests: usize,
    /// Non-200 responses (gate: 0).
    errors: usize,
    /// Gate: ≥ [`MANY_CONN_RPS_TOLERANCE`] × target.
    achieved_rps: f64,
    /// Open connections the server reported mid-phase (all clients
    /// registered at once).
    open_connections_seen: u64,
    /// Gate: p99 ≤ [`MANY_CONN_P99_FACTOR`] × closed_loop.latency.p99.
    latency: LatencyWire,
}

#[derive(Serialize)]
struct CoalescingReport {
    clients: usize,
    /// Solver runs the whole concurrent burst cost (gate: 1).
    solves: u64,
    /// Requests that joined the in-flight solve.
    coalesced: u64,
    /// Requests served from cache (stragglers arriving after publish).
    cache_hits: u64,
    /// From `GET /v1/health` (gate: 0).
    duplicate_inflight_solves: u64,
    responses_identical: bool,
}

#[derive(Serialize)]
struct OverloadReport {
    requests: usize,
    /// 200s carrying a degraded baseline schedule (gate: all of them).
    degraded_200s: usize,
    /// Any other outcome (gate: 0).
    errors: usize,
}

#[derive(Serialize)]
struct BitIdentityReport {
    specs_checked: usize,
    /// HTTP assignment/cost/makespan == local `Session::schedule`, to
    /// the bit, for every catalog spec (gate: true).
    identical: bool,
    /// Every catalog spec sent a second time (a canonical-key hit that
    /// stores the body as an alias) and a third time (an alias hit)
    /// got the first response's bytes with `cached` set (gate: true).
    alias_identical: bool,
}

#[derive(Serialize)]
struct Report {
    generated_by: String,
    schema: u64,
    catalog_size: usize,
    workers: usize,
    bit_identity: BitIdentityReport,
    think_time: ThinkTimeReport,
    closed_loop: ClosedLoopReport,
    open_loop: OpenLoopReport,
    many_conn: ManyConnReport,
    coalescing: CoalescingReport,
    overload: OverloadReport,
    /// Final engine counters of the main server.
    engine: haxconn_core::engine::EngineStatsSnapshot,
}

fn boot(options: ServeOptions) -> ServerHandle {
    serve(ServeOptions {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        ..options
    })
    .expect("server boots on an ephemeral port")
}

/// Phase 1: submit every catalog spec once and check the response
/// against a local `Session::from_spec(..).schedule()` bit-for-bit,
/// then twice more — the second send hits the canonical key and stores
/// the body as an alias, the third hits the alias — and check both
/// hits serve the first response's bytes with `cached` set.
fn warm_and_check_identity(
    addr: std::net::SocketAddr,
    specs: &[WorkloadSpec],
) -> BitIdentityReport {
    let mut client = Client::connect(addr).expect("connects");
    let mut identical = true;
    let mut alias_identical = true;
    for spec in specs {
        let body = spec.to_json().expect("spec serializes");
        let (status, resp) = client.post("/v1/schedule", &body).expect("responds");
        assert_eq!(status, 200, "warmup must schedule: {resp}");
        let wire: ScheduleResponse = serde_json::from_str(&resp).expect("parses");
        let local = Session::from_spec(spec).schedule().expect("schedulable");
        identical &= wire.assignment == local.schedule.assignment
            && wire.cost.to_bits() == local.schedule.cost.to_bits()
            && wire.makespan_ms.to_bits() == local.schedule.predicted.makespan_ms.to_bits();
        if !identical {
            eprintln!("bit-identity mismatch on {}", body);
        }
        let expected = resp.replacen("\"cached\":false", "\"cached\":true", 1);
        for _ in 0..2 {
            let (status, hit) = client.post("/v1/schedule", &body).expect("responds");
            if status != 200 || hit != expected {
                eprintln!("alias-identity mismatch on {body}");
                alias_identical = false;
            }
        }
    }
    BitIdentityReport {
        specs_checked: specs.len(),
        identical,
        alias_identical,
    }
}

/// Closed-loop zipfian hammering of the warmed catalog with `clients`
/// persistent connections (the think-time and main closed-loop phases
/// share this engine).
fn closed_loop(
    server: &ServerHandle,
    bodies: &Arc<Vec<String>>,
    clients: usize,
    per_client: usize,
    think: Duration,
) -> ClosedLoopReport {
    let before = server.engine().stats();
    let zipf = Arc::new(Zipf::new(bodies.len()));
    let started = Instant::now();
    let mut handles = Vec::new();
    for c in 0..clients {
        let bodies = Arc::clone(bodies);
        let zipf = Arc::clone(&zipf);
        let addr = server.addr();
        handles.push(std::thread::spawn(move || {
            let mut rng = Rng(0x5EED_0001 + c as u64 * 0x9E37_79B9);
            let mut client = Client::connect(addr).expect("connects");
            let mut latencies_us = Vec::with_capacity(per_client);
            let mut errors = 0usize;
            for _ in 0..per_client {
                let body = &bodies[zipf.pick(&mut rng)];
                let sent = Instant::now();
                match client.post("/v1/schedule", body) {
                    Ok((200, _)) => latencies_us.push(sent.elapsed().as_secs_f64() * 1e6),
                    Ok(_) | Err(_) => errors += 1,
                }
                if !think.is_zero() {
                    std::thread::sleep(think);
                }
            }
            (latencies_us, errors)
        }));
    }
    let mut latencies_us = Vec::new();
    let mut errors = 0;
    for h in handles {
        let (l, e) = h.join().expect("closed-loop client panicked");
        latencies_us.extend(l);
        errors += e;
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let after = server.engine().stats();
    let requests = clients * per_client;
    let hit_rate = (after.cache_hits - before.cache_hits) as f64
        / (after.requests - before.requests).max(1) as f64;
    ClosedLoopReport {
        clients,
        requests,
        errors,
        wall_ms,
        req_per_sec: 1e3 * requests as f64 / wall_ms.max(1e-9),
        cache_hit_rate: hit_rate,
        latency: LatencyWire::of(latencies_us),
    }
}

/// Phase 3: one connection paced at a fixed arrival rate. Deadlines are
/// absolute (`start + i·interval`), so a slow response eats into the
/// next slot instead of silently stretching the schedule — the honest
/// open-loop protocol.
fn open_loop(addr: std::net::SocketAddr, bodies: &[String]) -> OpenLoopReport {
    let interval = Duration::from_nanos(1_000_000_000 / OPEN_LOOP_RPS);
    let zipf = Zipf::new(bodies.len());
    let mut rng = Rng(0x0BEA_CAFE | 1);
    let mut client = Client::connect(addr).expect("connects");
    let mut latencies_us = Vec::with_capacity(OPEN_LOOP_REQUESTS);
    let mut errors = 0usize;
    let started = Instant::now();
    for i in 0..OPEN_LOOP_REQUESTS {
        let deadline = interval * i as u32;
        let now = started.elapsed();
        if now < deadline {
            std::thread::sleep(deadline - now);
        }
        let body = &bodies[zipf.pick(&mut rng)];
        let sent = Instant::now();
        match client.post("/v1/schedule", body) {
            Ok((200, _)) => latencies_us.push(sent.elapsed().as_secs_f64() * 1e6),
            Ok(_) | Err(_) => errors += 1,
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    OpenLoopReport {
        target_rps: OPEN_LOOP_RPS,
        requests: OPEN_LOOP_REQUESTS,
        errors,
        achieved_rps: OPEN_LOOP_REQUESTS as f64 / wall_s.max(1e-9),
        latency: LatencyWire::of(latencies_us),
    }
}

/// Many-connection phase: [`MANY_CONNS`] keep-alive connections all
/// registered at once, each mostly idle. A single pacer walks them
/// round-robin at an aggregate [`MANY_CONN_RPS`] with absolute
/// deadlines, so every connection sees traffic but sits idle between
/// turns — the hundreds-of-idle-fds regime the readiness loop exists
/// for.
fn many_conn(server: &ServerHandle, bodies: &[String]) -> ManyConnReport {
    let mut conns: Vec<Client> = (0..MANY_CONNS)
        .map(|_| Client::connect(server.addr()).expect("connects"))
        .collect();
    // Every connection must be registered concurrently for the phase
    // to mean anything; the server's own gauge is the proof.
    let open_connections_seen = server.stats().wire().open_connections;

    let interval = Duration::from_nanos(1_000_000_000 / MANY_CONN_RPS);
    let zipf = Zipf::new(bodies.len());
    let mut rng = Rng(0xC0FF_EE00 | 1);
    let mut latencies_us = Vec::with_capacity(MANY_CONN_REQUESTS);
    let mut errors = 0usize;
    let started = Instant::now();
    for i in 0..MANY_CONN_REQUESTS {
        let deadline = interval * i as u32;
        let now = started.elapsed();
        if now < deadline {
            std::thread::sleep(deadline - now);
        }
        let body = &bodies[zipf.pick(&mut rng)];
        let client = &mut conns[i % MANY_CONNS];
        let sent = Instant::now();
        match client.post("/v1/schedule", body) {
            Ok((200, _)) => latencies_us.push(sent.elapsed().as_secs_f64() * 1e6),
            Ok(_) | Err(_) => errors += 1,
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    ManyConnReport {
        connections: MANY_CONNS,
        target_rps: MANY_CONN_RPS,
        requests: MANY_CONN_REQUESTS,
        errors,
        achieved_rps: MANY_CONN_REQUESTS as f64 / wall_s.max(1e-9),
        open_connections_seen,
        latency: LatencyWire::of(latencies_us),
    }
}

/// Phase 4: a barrier-aligned burst of identical fresh requests must
/// coalesce onto a single solver run.
fn coalescing(server: &ServerHandle) -> CoalescingReport {
    // A spec no other phase uses, so it is guaranteed cold.
    let fresh = WorkloadSpec::new("orin")
        .task("resnet101", 6)
        .task("googlenet", 6)
        .to_json()
        .expect("spec serializes");
    let before = server.engine().stats();
    let barrier = Arc::new(Barrier::new(COALESCE_CLIENTS));
    let fresh = Arc::new(fresh);
    let mut handles = Vec::new();
    for _ in 0..COALESCE_CLIENTS {
        let barrier = Arc::clone(&barrier);
        let fresh = Arc::clone(&fresh);
        let addr = server.addr();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connects");
            barrier.wait();
            let (status, body) = client.post("/v1/schedule", &fresh).expect("responds");
            assert_eq!(status, 200, "{body}");
            let resp: ScheduleResponse = serde_json::from_str(&body).expect("parses");
            (resp.cost.to_bits(), resp.assignment)
        }));
    }
    let results: Vec<(u64, Vec<Vec<usize>>)> = handles
        .into_iter()
        .map(|h| h.join().expect("coalescing client panicked"))
        .collect();
    let identical = results.iter().all(|r| r == &results[0]);
    let after = server.engine().stats();

    // `duplicate_inflight_solves` comes off the wire: /v1/health is the
    // telemetry surface the gate names, not an in-process shortcut.
    let mut client = Client::connect(server.addr()).expect("connects");
    let (status, body) = client.get("/v1/health").expect("responds");
    assert_eq!(status, 200, "{body}");
    let health: HealthResponse = serde_json::from_str(&body).expect("parses");

    CoalescingReport {
        clients: COALESCE_CLIENTS,
        solves: after.solves - before.solves,
        coalesced: after.coalesced - before.coalesced,
        cache_hits: after.cache_hits - before.cache_hits,
        duplicate_inflight_solves: health.engine.duplicate_inflight_solves,
        responses_identical: identical,
    }
}

/// Phase 5: a zero-slot server must degrade every request to a 200
/// baseline, never an error.
fn overload() -> OverloadReport {
    let server = boot(ServeOptions {
        engine: EngineOptions {
            max_concurrent_solves: Some(0),
            max_pending_solves: 0,
            ..Default::default()
        },
        ..Default::default()
    });
    let mut client = Client::connect(server.addr()).expect("connects");
    let mut degraded = 0usize;
    let mut errors = 0usize;
    for i in 0..OVERLOAD_REQUESTS {
        // Varying groups per request; degraded baselines are never
        // cached, so every request is a fresh admission attempt
        // against the zero-slot pool either way.
        let body = WorkloadSpec::new("orin")
            .task("googlenet", 4 + i % 4)
            .task("resnet18", 4 + (i / 4) % 4)
            .to_json()
            .expect("spec serializes");
        match client.post("/v1/schedule", &body) {
            Ok((200, resp)) => {
                let wire: ScheduleResponse = serde_json::from_str(&resp).expect("parses");
                if wire.degraded && wire.origin.starts_with("fallback:") {
                    degraded += 1;
                } else {
                    errors += 1;
                }
            }
            Ok(_) | Err(_) => errors += 1,
        }
    }
    server.stop();
    OverloadReport {
        requests: OVERLOAD_REQUESTS,
        degraded_200s: degraded,
        errors,
    }
}

fn main() {
    let per_client: usize = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("closed_requests_per_client"))
        .unwrap_or(CLOSED_REQUESTS_PER_CLIENT);

    let specs = catalog();
    let bodies: Arc<Vec<String>> = Arc::new(
        specs
            .iter()
            .map(|s| s.to_json().expect("spec serializes"))
            .collect(),
    );

    let server = boot(ServeOptions::default());
    eprintln!("reactor server on {} ({} workers)", server.addr(), WORKERS);

    let bit_identity = warm_and_check_identity(server.addr(), &specs);
    eprintln!(
        "warmup: {} specs cached, bit_identical={}, alias_identical={}",
        bit_identity.specs_checked, bit_identity.identical, bit_identity.alias_identical
    );
    let think_per_client = (per_client / 5).max(200);
    let think = closed_loop(
        &server,
        &bodies,
        THINK_CLIENTS,
        think_per_client,
        Duration::from_micros(THINK_US),
    );
    eprintln!(
        "think time, {} clients: {:.0} req/s (floor {THINK_TIME_FLOOR_RPS}), p99 {:.0} µs",
        THINK_CLIENTS, think.req_per_sec, think.latency.p99_us
    );
    let think_time = ThinkTimeReport {
        clients: THINK_CLIENTS,
        requests_per_client: think_per_client,
        think_us: THINK_US,
        errors: think.errors,
        req_per_sec: think.req_per_sec,
        floor_rps: THINK_TIME_FLOOR_RPS,
        latency: think.latency,
    };

    let closed = closed_loop(&server, &bodies, CLOSED_CLIENTS, per_client, Duration::ZERO);
    eprintln!(
        "closed loop: {:.0} req/s, hit rate {:.4}, p99 {:.0} µs",
        closed.req_per_sec, closed.cache_hit_rate, closed.latency.p99_us
    );
    let open = open_loop(server.addr(), &bodies);
    eprintln!(
        "open loop: {:.0}/{} req/s, p50 {:.0} µs, p99 {:.0} µs",
        open.achieved_rps, open.target_rps, open.latency.p50_us, open.latency.p99_us
    );
    let many = many_conn(&server, &bodies);
    eprintln!(
        "many-conn: {} conns ({} seen open), {:.0}/{} req/s, p99 {:.0} µs",
        many.connections,
        many.open_connections_seen,
        many.achieved_rps,
        many.target_rps,
        many.latency.p99_us
    );
    let coalesce = coalescing(&server);
    eprintln!(
        "coalescing: {} clients → {} solve(s), {} coalesced, {} cache hits",
        coalesce.clients, coalesce.solves, coalesce.coalesced, coalesce.cache_hits
    );
    let engine = server.engine().stats();
    server.stop();
    let overload = overload();
    eprintln!(
        "overload: {}/{} degraded 200s, {} errors",
        overload.degraded_200s, overload.requests, overload.errors
    );

    let out = Report {
        generated_by: "server_load".to_string(),
        schema: haxconn::api::SCHEMA_VERSION,
        catalog_size: specs.len(),
        workers: WORKERS,
        bit_identity,
        think_time,
        closed_loop: closed,
        open_loop: open,
        many_conn: many,
        coalescing: coalesce,
        overload,
        engine,
    };
    let json = serde_json::to_string_pretty(&out).expect("serialize");
    println!("{json}");
    let bench_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server.json");
    std::fs::write(bench_path, format!("{json}\n")).expect("write BENCH_server.json");
    eprintln!("wrote {bench_path}");

    let mut failed = false;
    if !out.bit_identity.identical {
        eprintln!("FAIL: HTTP schedules are not bit-identical to Session::schedule");
        failed = true;
    }
    if !out.bit_identity.alias_identical {
        eprintln!("FAIL: repeat requests served through an alias changed bytes");
        failed = true;
    }
    if out.think_time.req_per_sec < THINK_TIME_FLOOR_RPS {
        eprintln!(
            "FAIL: think-time throughput {:.0} req/s < {THINK_TIME_FLOOR_RPS} floor",
            out.think_time.req_per_sec
        );
        failed = true;
    }
    if out.many_conn.errors != 0 {
        eprintln!(
            "FAIL: {} non-200 responses across {} mostly-idle connections",
            out.many_conn.errors, out.many_conn.connections
        );
        failed = true;
    }
    if out.many_conn.achieved_rps < MANY_CONN_RPS_TOLERANCE * out.many_conn.target_rps as f64 {
        eprintln!(
            "FAIL: many-conn achieved {:.0} req/s < {MANY_CONN_RPS_TOLERANCE} x {} target",
            out.many_conn.achieved_rps, out.many_conn.target_rps
        );
        failed = true;
    }
    if out.many_conn.latency.p99_us > MANY_CONN_P99_FACTOR * out.closed_loop.latency.p99_us {
        eprintln!(
            "FAIL: many-conn p99 {:.0} µs > {MANY_CONN_P99_FACTOR} x closed-loop p99 {:.0} µs",
            out.many_conn.latency.p99_us, out.closed_loop.latency.p99_us
        );
        failed = true;
    }
    if out.closed_loop.req_per_sec < THROUGHPUT_GATE_RPS {
        eprintln!(
            "FAIL: closed-loop throughput {:.0} req/s < {THROUGHPUT_GATE_RPS} gate",
            out.closed_loop.req_per_sec
        );
        failed = true;
    }
    if out.closed_loop.errors != 0 {
        eprintln!(
            "FAIL: {} non-200 responses under closed-loop load",
            out.closed_loop.errors
        );
        failed = true;
    }
    if out.closed_loop.cache_hit_rate < CACHE_HIT_GATE {
        eprintln!(
            "FAIL: cache hit rate {:.4} < {CACHE_HIT_GATE} on a fully warmed catalog",
            out.closed_loop.cache_hit_rate
        );
        failed = true;
    }
    if out.coalescing.solves != 1 {
        eprintln!(
            "FAIL: {} solves for {} identical concurrent requests (want 1)",
            out.coalescing.solves, out.coalescing.clients
        );
        failed = true;
    }
    if out.coalescing.duplicate_inflight_solves != 0 {
        eprintln!(
            "FAIL: telemetry reports {} duplicate in-flight solves (gate 0)",
            out.coalescing.duplicate_inflight_solves
        );
        failed = true;
    }
    if !out.coalescing.responses_identical {
        eprintln!("FAIL: coalesced responses diverged");
        failed = true;
    }
    if out.overload.errors != 0 || out.overload.degraded_200s != out.overload.requests {
        eprintln!(
            "FAIL: overload served {}/{} degraded 200s with {} errors (want all-degraded, zero errors)",
            out.overload.degraded_200s, out.overload.requests, out.overload.errors
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
