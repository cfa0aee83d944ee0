//! `haxconn serve` — scheduling as a long-running service.
//!
//! A from-scratch HTTP/1.1 server on `std::net` (the build is offline:
//! no async runtime) built around one nonblocking epoll readiness loop
//! ([`reactor`]). One reactor thread multiplexes every connection (cap:
//! [`ServeOptions::max_conns`], enforced with a `503` at the accept
//! edge), answers cheap requests (health, telemetry, cache-hit
//! schedules) inline, and dispatches CPU-bound solves to a worker pool
//! that signals completions back over an `eventfd`. Slow readers, slow
//! writers, and idle keep-alive connections cost one fd each, never a
//! parked thread; idle connections past [`ServeOptions::idle_timeout`]
//! are evicted.
//!
//! Requests route through the [`Engine`] (sharded schedule cache,
//! request coalescing, admission control, degraded fallback) in two
//! stages: `route_fast` on the reactor thread, `route_slow` on the
//! solve pool.
//!
//! Endpoints (all JSON; see [`crate::api`] for the wire types):
//!
//! | Route | Meaning |
//! |---|---|
//! | `POST /v1/schedule` | [`WorkloadSpec`] body → schedule |
//! | `POST /v1/batch` | spec + candidates → DES fleet reports |
//! | `GET /v1/telemetry` | deterministic telemetry [`Snapshot`] JSON |
//! | `GET /v1/health` | liveness + engine/server counters |
//!
//! [`Snapshot`]: haxconn_telemetry::Snapshot
//! [`Engine`]: haxconn_core::engine::Engine

pub mod client;
pub mod conn;
pub mod http;
pub mod reactor;
pub mod sys;

use crate::api::{
    BatchRequest, BatchResponse, ErrorBody, HealthResponse, ScheduleResponse, ServerStatsWire,
    SCHEMA_VERSION,
};
use crate::session::measure_candidates;
use haxconn_core::engine::{Engine, EngineOptions, EngineSchedule};
use haxconn_core::{HaxError, WorkloadSpec};
use haxconn_telemetry::{SharedHistogram, Snapshot, Source};
use http::Request;
use serde::Serialize;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; port 0 picks an ephemeral port (tests use this).
    pub addr: String,
    /// Solve-pool threads draining CPU-bound requests.
    pub workers: usize,
    /// Hard request-body cap.
    pub max_body_bytes: usize,
    /// Open connections allowed before the accept edge answers 503.
    pub max_conns: usize,
    /// Idle keep-alive connections are closed after this long with no
    /// request activity (counted as `serve.idle_closed`).
    pub idle_timeout: Duration,
    /// Test knob: shrink each accepted socket's kernel send buffer
    /// (`SO_SNDBUF`) so partial writes are deterministic.
    pub send_buffer_bytes: Option<usize>,
    /// Engine knobs (cache size, solver admission, degradation).
    pub engine: EngineOptions,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            max_body_bytes: 1 << 20,
            max_conns: 1024,
            idle_timeout: Duration::from_secs(60),
            send_buffer_bytes: None,
            engine: EngineOptions::default(),
        }
    }
}

/// HTTP-layer counters (the engine keeps its own).
#[derive(Default)]
pub struct ServerStats {
    pub(crate) connections: AtomicU64,
    pub(crate) open_connections: AtomicU64,
    pub(crate) requests: AtomicU64,
    pub(crate) http_2xx: AtomicU64,
    pub(crate) http_4xx: AtomicU64,
    pub(crate) http_5xx: AtomicU64,
    pub(crate) accept_queue_rejections: AtomicU64,
    pub(crate) idle_closed: AtomicU64,
    pub(crate) serialize_errors: AtomicU64,
    pub(crate) reactor_wakeups: AtomicU64,
    pub(crate) latency_us: SharedHistogram,
}

impl ServerStats {
    /// Snapshot onto the wire shape.
    pub fn wire(&self) -> ServerStatsWire {
        let latency = self.latency_us.snapshot();
        ServerStatsWire {
            connections: self.connections.load(Ordering::Relaxed),
            open_connections: self.open_connections.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            http_2xx: self.http_2xx.load(Ordering::Relaxed),
            http_4xx: self.http_4xx.load(Ordering::Relaxed),
            http_5xx: self.http_5xx.load(Ordering::Relaxed),
            accept_queue_rejections: self.accept_queue_rejections.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
            serialize_errors: self.serialize_errors.load(Ordering::Relaxed),
            reactor_wakeups: self.reactor_wakeups.load(Ordering::Relaxed),
            latency_p50_us: latency.quantile(0.5),
            latency_p99_us: latency.quantile(0.99),
            latency_mean_us: latency.mean(),
        }
    }
}

pub(crate) struct ServerCtx {
    pub(crate) engine: Arc<Engine>,
    pub(crate) stats: Arc<ServerStats>,
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) max_body_bytes: usize,
    pub(crate) started: Instant,
}

impl Source for ServerCtx {
    /// Every `engine.*` and `serve.*` instrument, read from the
    /// [`Engine::stats`] and [`ServerStats::wire`] that `/v1/health`
    /// serializes, so the two views cannot drift.
    fn report(&self, snap: &mut Snapshot) {
        let engine = self.engine.stats();
        let server = self.stats.wire();
        for (name, value) in [
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
            ("serve.connections", server.connections),
            ("serve.accept_rejections", server.accept_queue_rejections),
            ("serve.requests", server.requests),
            ("serve.http_2xx", server.http_2xx),
            ("serve.http_4xx", server.http_4xx),
            ("serve.http_5xx", server.http_5xx),
            ("serve.idle_closed", server.idle_closed),
            ("serve.serialize_errors", server.serialize_errors),
            ("serve.reactor.wakeups", server.reactor_wakeups),
        ] {
            snap.counters.insert(name.to_string(), value);
        }
        snap.gauges
            .insert("serve.conns.open".into(), server.open_connections as f64);
        snap.histograms
            .insert("serve.request_us".into(), self.stats.latency_us.snapshot());
    }
}

/// A running server. Dropping the handle stops it.
pub struct ServerHandle {
    addr: SocketAddr,
    engine: Arc<Engine>,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    /// Signaled on shutdown to break `epoll_wait`.
    waker: Arc<sys::EventFd>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared scheduling engine (tests read its counters).
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// HTTP-layer counters.
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }

    /// Blocks until the server stops (the CLI foreground mode).
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }

    /// Stops the server and joins every thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        self.waker.signal();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if !self.threads.is_empty() {
            self.shutdown();
        }
    }
}

/// Boots the reactor and returns the server's handle.
pub fn serve(options: ServeOptions) -> Result<ServerHandle, HaxError> {
    let listener = TcpListener::bind(&options.addr)
        .map_err(|e| HaxError::Io(format!("bind {}: {e}", options.addr)))?;
    let addr = listener
        .local_addr()
        .map_err(|e| HaxError::Io(format!("local_addr: {e}")))?;
    let engine = Arc::new(Engine::new(options.engine));
    let stats = Arc::new(ServerStats::default());
    let stop = Arc::new(AtomicBool::new(false));
    let ctx = Arc::new(ServerCtx {
        engine: Arc::clone(&engine),
        stats: Arc::clone(&stats),
        stop: Arc::clone(&stop),
        max_body_bytes: options.max_body_bytes,
        started: Instant::now(),
    });
    // The memory recorder (installed on first use) reads this server's
    // counters until the reactor and the solve pool drop `ctx`. A foreign
    // recorder installed earlier keeps precedence: /v1/telemetry is 503.
    if let Some(recorder) = haxconn_telemetry::memory_recorder() {
        recorder.register(Arc::downgrade(&ctx) as Weak<dyn Source>);
    }
    haxconn_telemetry::set_enabled(true);
    let (waker, threads) = reactor::spawn(listener, &options, ctx)?;
    Ok(ServerHandle {
        addr,
        engine,
        stats,
        stop,
        waker,
        threads,
    })
}

/// The `503 overloaded` answer the reactor sends straight from the
/// accept edge once the connection cap is reached.
pub(crate) fn overloaded_body(stats: &ServerStats) -> (u16, String) {
    respond(
        stats,
        503,
        &ErrorBody::protocol("overloaded", "connection queue is full, retry later"),
    )
}

/// Serializes `value`; on success the intended status rides through,
/// and a serialization failure becomes `500` with the stable
/// `internal` error code (counted as `serialize_errors`) — never
/// a stub body wearing a success status.
pub(crate) fn respond<T: Serialize>(stats: &ServerStats, status: u16, value: &T) -> (u16, String) {
    respond_serialized(stats, status, serde_json::to_string(value))
}

fn respond_serialized(
    stats: &ServerStats,
    status: u16,
    serialized: Result<String, serde_json::Error>,
) -> (u16, String) {
    match serialized {
        Ok(body) => (status, body),
        Err(_) => {
            stats.serialize_errors.fetch_add(1, Ordering::Relaxed);
            (
                500,
                format!(
                    "{{\"schema\":{SCHEMA_VERSION},\"error\":\"internal\",\
                     \"message\":\"response serialization failed\"}}"
                ),
            )
        }
    }
}

/// Response-class + latency accounting for one finished request.
pub(crate) fn finish_request(stats: &ServerStats, status: u16, started: Instant) {
    let class = match status {
        200..=299 => &stats.http_2xx,
        400..=499 => &stats.http_4xx,
        _ => &stats.http_5xx,
    };
    class.fetch_add(1, Ordering::Relaxed);
    stats
        .latency_us
        .record(started.elapsed().as_secs_f64() * 1e6);
}

/// Whether the connection stays open after a response: the client must
/// have asked for keep-alive AND the response must not be a `500` — an
/// internal failure leaves the stream in no state to trust, so those
/// close (and say so with `Connection: close`).
pub(crate) fn response_keep_alive(status: u16, request_keep_alive: bool) -> bool {
    request_keep_alive && status != 500
}

/// A request after fast-path routing: either already answered, or
/// CPU-bound work for the solve pool.
pub(crate) enum Routed {
    /// Answered inline (errors, GETs).
    Done(u16, String),
    /// A cache-hit schedule: the entry's rendered `200` body, shared
    /// with the engine cache.
    Hit(Arc<str>),
    /// A cache-miss schedule: the full engine path must run.
    Solve {
        key: String,
        canonical: WorkloadSpec,
    },
    /// A batch evaluation (always CPU-bound).
    Batch { body: String },
}

/// Routing stage 1 — everything cheap enough for the reactor thread:
/// parse + validation errors, GET endpoints, and schedule requests
/// already in the engine cache (O(µs) each). Anything CPU-bound comes
/// back as work for [`route_slow`].
///
/// A schedule request first probes the cache by its raw body. On a
/// miss it is decoded, canonicalized and probed by its canonical key;
/// a hit there stores the body as an alias of the key (if the body is
/// at most twice as long as the key), so the next identical body
/// takes the first probe. A miss on both goes to the solve pool and
/// stores no alias.
pub(crate) fn route_fast(ctx: &ServerCtx, req: &Request) -> Routed {
    let path = req.path.split('?').next().unwrap_or("");
    match (req.method.as_str(), path) {
        ("POST", "/v1/schedule") => {
            // A body seen before is an alias or canonical key in the
            // engine cache: one probe by its raw bytes answers it.
            if let Some(hit) = ctx.engine.cached_response(&req.body, render_hit) {
                return routed_hit(ctx, hit);
            }
            let spec: WorkloadSpec = match serde_json::from_str(&req.body) {
                Ok(s) => s,
                Err(e) => {
                    let (s, b) = respond(
                        &ctx.stats,
                        400,
                        &ErrorBody::protocol("bad_json", format!("{e}")),
                    );
                    return Routed::Done(s, b);
                }
            };
            let canonical = match spec.canonicalize() {
                Ok(c) => c,
                Err(e) => {
                    let (s, b) = error_response(ctx, &e);
                    return Routed::Done(s, b);
                }
            };
            let key = match canonical.to_json() {
                Ok(k) => k,
                Err(e) => {
                    let (s, b) = error_response(ctx, &e);
                    return Routed::Done(s, b);
                }
            };
            match ctx.engine.cached_response(&key, render_hit) {
                Some(hit) => {
                    ctx.engine.alias(&req.body, &key);
                    routed_hit(ctx, hit)
                }
                None => Routed::Solve { key, canonical },
            }
        }
        ("POST", "/v1/batch") => Routed::Batch {
            body: req.body.clone(),
        },
        ("GET", "/v1/telemetry") => {
            let (s, b) = handle_telemetry(ctx);
            Routed::Done(s, b)
        }
        ("GET", "/v1/health") => {
            let (s, b) = handle_health(ctx);
            Routed::Done(s, b)
        }
        (_, "/v1/schedule" | "/v1/batch" | "/v1/telemetry" | "/v1/health") => {
            let (s, b) = respond(
                &ctx.stats,
                405,
                &ErrorBody::protocol(
                    "method_not_allowed",
                    format!("{} is not valid for {path}", req.method),
                ),
            );
            Routed::Done(s, b)
        }
        _ => {
            let (s, b) = respond(
                &ctx.stats,
                404,
                &ErrorBody::protocol("not_found", format!("no route for {path}")),
            );
            Routed::Done(s, b)
        }
    }
}

/// Renders the `200` body of a cache hit; the engine keeps it with the
/// entry, so this runs once per cached schedule.
fn render_hit(out: &EngineSchedule) -> Result<String, serde_json::Error> {
    serde_json::to_string(&ScheduleResponse::from_engine(out))
}

fn routed_hit(ctx: &ServerCtx, hit: Result<Arc<str>, serde_json::Error>) -> Routed {
    match hit {
        Ok(body) => Routed::Hit(body),
        Err(e) => {
            let (s, b) = respond_serialized(&ctx.stats, 200, Err(e));
            Routed::Done(s, b)
        }
    }
}

/// Routing stage 2 — the CPU-bound work [`route_fast`] deferred. Runs
/// on the solve pool.
pub(crate) fn route_slow(ctx: &ServerCtx, routed: Routed) -> (u16, String) {
    match routed {
        Routed::Done(status, body) => (status, body),
        Routed::Hit(body) => (200, body.to_string()),
        Routed::Solve { key, canonical } => match ctx.engine.schedule_canonical(key, &canonical) {
            Ok(out) => respond(&ctx.stats, 200, &ScheduleResponse::from_engine(&out)),
            Err(e) => error_response(ctx, &e),
        },
        Routed::Batch { body } => handle_batch(ctx, &body),
    }
}

fn error_response(ctx: &ServerCtx, e: &HaxError) -> (u16, String) {
    let (status, body) = ErrorBody::of(e);
    respond(&ctx.stats, status, &body)
}

fn handle_batch(ctx: &ServerCtx, body: &str) -> (u16, String) {
    let req: BatchRequest = match serde_json::from_str(body) {
        Ok(r) => r,
        Err(e) => {
            return respond(
                &ctx.stats,
                400,
                &ErrorBody::protocol("bad_json", format!("{e}")),
            )
        }
    };
    let run = || -> Result<BatchResponse, HaxError> {
        let (platform, workload) = req.spec.resolve()?;
        let iterations = req.iterations.unwrap_or(1);
        let reports = measure_candidates(&platform, &workload, &req.candidates, iterations)?;
        Ok(BatchResponse {
            schema: SCHEMA_VERSION,
            reports: reports
                .iter()
                .map(crate::api::BatchReport::from_execution)
                .collect(),
        })
    };
    match run() {
        Ok(resp) => respond(&ctx.stats, 200, &resp),
        Err(e) => error_response(ctx, &e),
    }
}

fn handle_telemetry(ctx: &ServerCtx) -> (u16, String) {
    match haxconn_telemetry::memory_recorder() {
        Some(rec) => (200, rec.snapshot().to_json()),
        None => respond(
            &ctx.stats,
            503,
            &ErrorBody::protocol(
                "telemetry_unavailable",
                "no in-memory telemetry recorder is installed",
            ),
        ),
    }
}

fn handle_health(ctx: &ServerCtx) -> (u16, String) {
    let resp = HealthResponse {
        schema: SCHEMA_VERSION,
        status: "ok".to_string(),
        uptime_ms: ctx.started.elapsed().as_millis() as u64,
        engine: ctx.engine.stats(),
        server: ctx.stats.wire(),
    };
    respond(&ctx.stats, 200, &resp)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_failure_becomes_a_500_internal() {
        let stats = ServerStats::default();
        // The real serializer cannot fail for the wire types, so drive
        // the failure branch directly.
        let (status, body) =
            respond_serialized(&stats, 200, Err(serde_json::Error::msg("boom".to_string())));
        assert_eq!(status, 500, "success status must not survive");
        assert!(body.contains("\"error\":\"internal\""), "body: {body}");
        assert_eq!(stats.serialize_errors.load(Ordering::Relaxed), 1);
        // The happy path rides through untouched.
        let (status, body) = respond_serialized(&stats, 201, Ok("{}".to_string()));
        assert_eq!((status, body.as_str()), (201, "{}"));
        assert_eq!(stats.serialize_errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn keep_alive_policy_closes_on_500_only() {
        assert!(response_keep_alive(200, true));
        assert!(response_keep_alive(404, true), "domain 4xx keeps the conn");
        assert!(
            response_keep_alive(503, true),
            "overload 503 keeps the conn"
        );
        assert!(!response_keep_alive(500, true), "internal errors close");
        assert!(!response_keep_alive(200, false));
    }
}
