//! `haxconn serve` — scheduling as a long-running service.
//!
//! A from-scratch HTTP/1.1 server on `std::net` (the build is offline:
//! no async runtime) with two serving modes behind one wire contract:
//!
//! * [`ServeMode::Reactor`] (default) — a nonblocking epoll readiness
//!   loop ([`reactor`]): one reactor thread multiplexes every
//!   connection (cap: [`ServeOptions::max_conns`], enforced with a
//!   `503` at the accept edge), answers cheap requests (health,
//!   telemetry, cache-hit schedules) inline, and dispatches CPU-bound
//!   solves to a worker pool that signals completions back over an
//!   `eventfd`. Slow readers, slow writers, and idle keep-alive
//!   connections cost one fd each, never a parked thread; idle
//!   connections past [`ServeOptions::idle_timeout`] are evicted.
//! * [`ServeMode::Blocking`] — the classic accept-thread +
//!   worker-per-connection shape, kept for differential testing: a
//!   bounded accept queue answers `503` when full, and each worker owns
//!   one connection's keep-alive stream until close or idle timeout.
//!
//! Both modes route through the same [`Engine`] (sharded schedule
//! cache, request coalescing, admission control, degraded fallback)
//! and the same `route_fast`/`route_slow` split, so responses are
//! bit-identical across modes — the server_load bench gates on that.
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
use crate::session::Session;
use haxconn_core::engine::{Engine, EngineOptions};
use haxconn_core::{HaxError, WorkloadSpec};
use haxconn_telemetry::SharedHistogram;
use http::{HttpReadError, Request};
use serde::Serialize;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How connections are multiplexed onto threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// Nonblocking epoll readiness loop (default): one reactor thread
    /// owns every connection, CPU-bound solves run on the worker pool.
    Reactor,
    /// Thread-per-connection with a bounded accept queue; kept for
    /// differential testing against the reactor.
    Blocking,
}

impl ServeMode {
    /// Parses the CLI spelling (`reactor` / `blocking`).
    pub fn parse(s: &str) -> Result<ServeMode, String> {
        match s {
            "reactor" => Ok(ServeMode::Reactor),
            "blocking" => Ok(ServeMode::Blocking),
            other => Err(format!(
                "unknown serve mode '{other}' (expected 'reactor' or 'blocking')"
            )),
        }
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; port 0 picks an ephemeral port (tests use this).
    pub addr: String,
    /// Connection multiplexing strategy.
    pub mode: ServeMode,
    /// Worker threads. Reactor mode: the solve pool draining CPU-bound
    /// requests. Blocking mode: each worker serves one connection at a
    /// time.
    pub workers: usize,
    /// Hard request-body cap.
    pub max_body_bytes: usize,
    /// Blocking mode only: accepted connections allowed to wait for a
    /// free worker; beyond this the accept loop answers 503 directly.
    pub queue_depth: usize,
    /// Reactor mode: open connections allowed before the accept edge
    /// answers 503.
    pub max_conns: usize,
    /// Blocking mode: per-connection socket read timeout — the poll
    /// granularity for noticing stop/idle (the reactor needs none).
    pub read_timeout: Duration,
    /// Idle keep-alive connections are closed after this long with no
    /// request activity (both modes; counted as `serve.idle_closed`).
    pub idle_timeout: Duration,
    /// Test knob: shrink each accepted socket's kernel send buffer
    /// (`SO_SNDBUF`) so partial writes are deterministic.
    pub send_buffer_bytes: Option<usize>,
    /// Engine knobs (cache size, solver admission, degradation).
    pub engine: EngineOptions,
    /// Install + enable the process-global in-memory telemetry recorder
    /// so `GET /v1/telemetry` has data.
    pub enable_telemetry: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            mode: ServeMode::Reactor,
            workers: std::thread::available_parallelism()
                .map(|n| n.get().min(8))
                .unwrap_or(4),
            max_body_bytes: 1 << 20,
            queue_depth: 128,
            max_conns: 1024,
            read_timeout: Duration::from_millis(500),
            idle_timeout: Duration::from_secs(60),
            send_buffer_bytes: None,
            engine: EngineOptions::default(),
            enable_telemetry: true,
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
    pub(crate) read_timeout: Duration,
    pub(crate) idle_timeout: Duration,
    pub(crate) send_buffer_bytes: Option<usize>,
    pub(crate) started: Instant,
}

/// A running server. Dropping the handle stops it.
pub struct ServerHandle {
    addr: SocketAddr,
    mode: ServeMode,
    engine: Arc<Engine>,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    /// Reactor mode: signaled on shutdown to break `epoll_wait`.
    waker: Option<Arc<sys::EventFd>>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Which [`ServeMode`] this server runs in.
    pub fn mode(&self) -> ServeMode {
        self.mode
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
        match &self.waker {
            // Reactor: eventfd readiness breaks epoll_wait.
            Some(waker) => waker.signal(),
            // Blocking: wake the accept call with a throwaway
            // connection.
            None => {
                let _ = TcpStream::connect(self.addr);
            }
        }
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

/// Boots the server in the configured [`ServeMode`] and returns its
/// handle.
pub fn serve(options: ServeOptions) -> Result<ServerHandle, HaxError> {
    if options.enable_telemetry {
        // Installs the process-wide memory recorder on first use; a
        // foreign recorder installed earlier keeps precedence and
        // /v1/telemetry reports 503.
        let _ = haxconn_telemetry::memory_recorder();
        haxconn_telemetry::set_enabled(true);
    }
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
        read_timeout: options.read_timeout,
        idle_timeout: options.idle_timeout,
        send_buffer_bytes: options.send_buffer_bytes,
        started: Instant::now(),
    });
    let (waker, threads) = match options.mode {
        ServeMode::Reactor => {
            let (waker, threads) = reactor::spawn(listener, &options, ctx)?;
            (Some(waker), threads)
        }
        ServeMode::Blocking => (None, serve_blocking(listener, &options, ctx)?),
    };
    Ok(ServerHandle {
        addr,
        mode: options.mode,
        engine,
        stats,
        stop,
        waker,
        threads,
    })
}

/// The accept-thread + worker-pool topology behind
/// [`ServeMode::Blocking`].
fn serve_blocking(
    listener: TcpListener,
    options: &ServeOptions,
    ctx: Arc<ServerCtx>,
) -> Result<Vec<std::thread::JoinHandle<()>>, HaxError> {
    let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) =
        std::sync::mpsc::sync_channel(options.queue_depth.max(1));
    let rx = Arc::new(Mutex::new(rx));

    let mut threads = Vec::with_capacity(options.workers.max(1) + 1);
    for i in 0..options.workers.max(1) {
        let rx = Arc::clone(&rx);
        let ctx = Arc::clone(&ctx);
        let worker = std::thread::Builder::new()
            .name(format!("haxconn-serve-{i}"))
            .spawn(move || loop {
                let stream = {
                    let Ok(guard) = rx.lock() else { return };
                    guard.recv()
                };
                match stream {
                    Ok(s) => handle_connection(s, &ctx),
                    // Sender dropped: the accept loop exited.
                    Err(_) => return,
                }
            })
            .map_err(|e| HaxError::Io(format!("spawn worker: {e}")))?;
        threads.push(worker);
    }

    let accept_ctx = Arc::clone(&ctx);
    let accept_thread = std::thread::Builder::new()
        .name("haxconn-accept".to_string())
        .spawn(move || {
            for stream in listener.incoming() {
                if accept_ctx.stop.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                accept_ctx.stats.connections.fetch_add(1, Ordering::Relaxed);
                haxconn_telemetry::counter_add("serve.connections", 1);
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(mut stream)) => {
                        // Explicit backpressure: tell the client to back
                        // off instead of queuing without bound.
                        accept_ctx
                            .stats
                            .accept_queue_rejections
                            .fetch_add(1, Ordering::Relaxed);
                        haxconn_telemetry::counter_add("serve.accept_rejections", 1);
                        let (status, body) = overloaded_body(&accept_ctx.stats);
                        let _ = http::write_response(&mut stream, status, &body, false);
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            // tx drops here; workers drain the queue and exit.
        })
        .map_err(|e| HaxError::Io(format!("spawn accept thread: {e}")))?;
    threads.push(accept_thread);
    Ok(threads)
}

/// The `503 overloaded` answer both modes send straight from the accept
/// edge.
pub(crate) fn overloaded_body(stats: &ServerStats) -> (u16, String) {
    respond(
        stats,
        503,
        &ErrorBody::protocol("overloaded", "connection queue is full, retry later"),
    )
}

/// Serializes `value`; on success the intended status rides through,
/// and a serialization failure becomes `500` with the stable
/// `internal` error code (counted as `serve.serialize_errors`) — never
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
            haxconn_telemetry::counter_add("serve.serialize_errors", 1);
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

/// Response-class + latency accounting for one finished request
/// (shared by both modes so counters match bit-identical responses).
pub(crate) fn finish_request(stats: &ServerStats, status: u16, started: Instant) {
    let class = match status {
        200..=299 => &stats.http_2xx,
        400..=499 => &stats.http_4xx,
        _ => &stats.http_5xx,
    };
    class.fetch_add(1, Ordering::Relaxed);
    let us = started.elapsed().as_secs_f64() * 1e6;
    stats.latency_us.record(us);
    if haxconn_telemetry::enabled() {
        haxconn_telemetry::histogram_record("serve.request_us", us);
    }
}

/// Whether the connection stays open after a response: the client must
/// have asked for keep-alive AND the response must not be a `500` — an
/// internal failure leaves the stream in no state to trust, so those
/// close (and say so with `Connection: close`).
pub(crate) fn response_keep_alive(status: u16, request_keep_alive: bool) -> bool {
    request_keep_alive && status != 500
}

/// Open-connection gauge bookkeeping (reactor: registered conns;
/// blocking: conns actively held by a worker).
pub(crate) fn conn_opened(stats: &ServerStats) {
    let open = stats.open_connections.fetch_add(1, Ordering::Relaxed) + 1;
    haxconn_telemetry::gauge_set("serve.conns.open", open as f64);
}

pub(crate) fn conn_closed(stats: &ServerStats) {
    let open = stats
        .open_connections
        .fetch_sub(1, Ordering::Relaxed)
        .saturating_sub(1);
    haxconn_telemetry::gauge_set("serve.conns.open", open as f64);
}

fn handle_connection(stream: TcpStream, ctx: &ServerCtx) {
    conn_opened(&ctx.stats);
    serve_blocking_connection(stream, ctx);
    conn_closed(&ctx.stats);
}

fn serve_blocking_connection(stream: TcpStream, ctx: &ServerCtx) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(ctx.read_timeout));
    if let Some(bytes) = ctx.send_buffer_bytes {
        let _ = sys::set_send_buffer(stream.as_raw_fd(), bytes);
    }
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let mut last_activity = Instant::now();
    loop {
        if ctx.stop.load(Ordering::SeqCst) {
            return;
        }
        match http::read_request(&mut reader, ctx.max_body_bytes) {
            Ok(Some(req)) => {
                let started = Instant::now();
                ctx.stats.requests.fetch_add(1, Ordering::Relaxed);
                haxconn_telemetry::counter_add("serve.requests", 1);
                let (status, body) = route(ctx, &req);
                finish_request(&ctx.stats, status, started);
                let keep_alive = response_keep_alive(status, req.keep_alive);
                if http::write_response(&mut writer, status, &body, keep_alive).is_err()
                    || !keep_alive
                {
                    return;
                }
                last_activity = Instant::now();
            }
            Ok(None) => return,
            Err(HttpReadError::Malformed(m)) => {
                let (status, body) =
                    respond(&ctx.stats, 400, &ErrorBody::protocol("bad_request", m));
                finish_request(&ctx.stats, status, Instant::now());
                let _ = http::write_response(&mut writer, status, &body, false);
                return;
            }
            Err(HttpReadError::TooLarge(n)) => {
                let (status, body) = respond(
                    &ctx.stats,
                    413,
                    &ErrorBody::protocol(
                        "payload_too_large",
                        format!("declared body of {n} bytes exceeds the cap"),
                    ),
                );
                finish_request(&ctx.stats, status, Instant::now());
                let _ = http::write_response(&mut writer, status, &body, false);
                return;
            }
            Err(HttpReadError::Io(e)) => {
                // The socket read timeout doubles as the idle poll: on
                // each expiry, check stop and the idle budget.
                let idle = matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                );
                if !idle || ctx.stop.load(Ordering::SeqCst) {
                    return;
                }
                if last_activity.elapsed() >= ctx.idle_timeout {
                    ctx.stats.idle_closed.fetch_add(1, Ordering::Relaxed);
                    haxconn_telemetry::counter_add("serve.idle_closed", 1);
                    return;
                }
            }
        }
    }
}

/// A request after fast-path routing: either already answered, or
/// CPU-bound work for the solve pool.
pub(crate) enum Routed {
    /// Answered inline (errors, GETs, cache-hit schedules).
    Done(u16, String),
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
pub(crate) fn route_fast(ctx: &ServerCtx, req: &Request) -> Routed {
    let path = req.path.split('?').next().unwrap_or("");
    match (req.method.as_str(), path) {
        ("POST", "/v1/schedule") => {
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
            match ctx.engine.schedule_cached(&key) {
                Some(out) => {
                    let (s, b) = respond(&ctx.stats, 200, &ScheduleResponse::from_engine(&out));
                    Routed::Done(s, b)
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

/// Routing stage 2 — the CPU-bound work [`route_fast`] deferred. Runs
/// on the solve pool in reactor mode, inline on the worker's thread in
/// blocking mode.
pub(crate) fn route_slow(ctx: &ServerCtx, routed: Routed) -> (u16, String) {
    match routed {
        Routed::Done(status, body) => (status, body),
        Routed::Solve { key, canonical } => match ctx.engine.schedule_canonical(key, &canonical) {
            Ok(out) => respond(&ctx.stats, 200, &ScheduleResponse::from_engine(&out)),
            Err(e) => error_response(ctx, &e),
        },
        Routed::Batch { body } => handle_batch(ctx, &body),
    }
}

/// Both routing stages back-to-back — the blocking path.
fn route(ctx: &ServerCtx, req: &Request) -> (u16, String) {
    route_slow(ctx, route_fast(ctx, req))
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
        let session = Session::from_spec(&req.spec).schedule()?;
        let reports = session.measure_many(&req.candidates, req.iterations.unwrap_or(1))?;
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

    #[test]
    fn serve_mode_parses_cli_spellings() {
        assert_eq!(ServeMode::parse("reactor"), Ok(ServeMode::Reactor));
        assert_eq!(ServeMode::parse("blocking"), Ok(ServeMode::Blocking));
        assert!(ServeMode::parse("epoll").is_err());
    }
}
