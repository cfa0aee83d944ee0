//! The epoll readiness reactor behind `haxconn serve`.
//!
//! One reactor thread owns every connection. It multiplexes them with
//! level-triggered epoll ([`super::sys`]) and never blocks on any
//! single socket, so concurrency is bounded by the connection cap, not
//! the worker count — hundreds of mostly-idle keep-alive connections
//! cost one fd each, and a slowloris client dribbling bytes (or never
//! reading its response) stalls only itself.
//!
//! Division of labor:
//!
//! * **Reactor thread** — accepts, reads, incrementally parses
//!   ([`Conn`]), answers *cheap* requests inline (health, telemetry,
//!   routing errors, and schedule requests already in the engine
//!   cache — all O(µs); a repeat body is one cache probe and a copy of
//!   the entry's rendered response), and writes buffered responses
//!   with partial-write resume. CPU-bound work never runs here.
//! * **Solve pool** — cache-miss schedule requests and batch
//!   evaluations are dispatched as jobs to the worker pool, which runs
//!   the full [`Engine`] path (coalescing, admission, degradation) and
//!   pushes the finished response onto a completion queue, then
//!   signals the reactor's `eventfd`. The reactor drains completions
//!   on the next wakeup and resumes the connection's write side.
//! * **Idle wheel** — a hashed timing wheel holds one entry per
//!   connection; refreshing a deadline on activity is O(1) (the stored
//!   deadline moves, the wheel entry lazily reschedules itself when
//!   its original slot fires). Expired connections close and count
//!   `serve.idle_closed`.
//!
//! Backpressure is explicit at both edges: past the connection cap the
//! accept path answers `503` and closes, and while a request is
//! dispatched the connection's read interest is dropped, so pipelining
//! floods queue in the kernel, not in server memory.
//!
//! [`Engine`]: haxconn_core::engine::Engine

use super::conn::{Conn, FillOutcome};
use super::http::HttpReadError;
use super::sys::{self, Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLHUP, EPOLLIN, EPOLLRDHUP};
use super::{
    finish_request, overloaded_body, respond, response_keep_alive, route_fast, route_slow, Routed,
    ServeOptions, ServerCtx, SlowWork,
};
use crate::api::ErrorBody;
use haxconn_core::HaxError;
use std::net::TcpListener;
use std::os::fd::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Token for the listening socket.
const TOKEN_LISTENER: u64 = u64::MAX;
/// Token for the wakeup eventfd.
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// A request dispatched to the solve pool.
struct Job {
    idx: usize,
    gen: u32,
    keep_alive: bool,
    started: Instant,
    work: SlowWork,
}

/// A finished response traveling back to the reactor.
struct Completion {
    idx: usize,
    gen: u32,
    keep_alive: bool,
    started: Instant,
    status: u16,
    body: String,
}

/// One slab slot; `gen` increments on every reuse so stale completions
/// and wheel entries can be recognized and dropped.
struct Slot {
    conn: Option<Conn>,
    gen: u32,
}

/// Hashed timing wheel over reactor-relative milliseconds. Each live
/// connection keeps exactly one entry; [`take_due`](Wheel::take_due)
/// drains every slot whose tick has fully elapsed and the reactor
/// re-inserts entries whose (refreshed) deadline is still ahead.
struct Wheel {
    slots: Vec<Vec<(usize, u32)>>,
    granularity_ms: u64,
    /// Next tick to drain: slot `tick % slots.len()` covers
    /// `[tick·g, (tick+1)·g)`.
    tick: u64,
}

impl Wheel {
    fn new(idle_timeout_ms: u64) -> Wheel {
        let granularity_ms = (idle_timeout_ms / 32).clamp(5, 1000);
        let slots = (idle_timeout_ms / granularity_ms + 2) as usize;
        Wheel {
            slots: vec![Vec::new(); slots],
            granularity_ms,
            tick: 0,
        }
    }

    fn insert(&mut self, deadline_ms: u64, idx: usize, gen: u32) {
        let slot = (deadline_ms / self.granularity_ms) as usize % self.slots.len();
        self.slots[slot].push((idx, gen));
    }

    /// Drains every entry whose slot has fully elapsed by `now_ms`.
    fn take_due(&mut self, now_ms: u64) -> Vec<(usize, u32)> {
        let mut due = Vec::new();
        while (self.tick + 1) * self.granularity_ms <= now_ms {
            let slot = (self.tick % self.slots.len() as u64) as usize;
            due.append(&mut self.slots[slot]);
            self.tick += 1;
        }
        due
    }

    /// Milliseconds until the next tick boundary.
    fn next_timeout_ms(&self, now_ms: u64) -> u64 {
        ((self.tick + 1) * self.granularity_ms)
            .saturating_sub(now_ms)
            .max(1)
    }
}

struct Reactor {
    epoll: Epoll,
    listener: TcpListener,
    waker: Arc<EventFd>,
    ctx: Arc<ServerCtx>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    open: usize,
    max_conns: usize,
    idle_timeout_ms: u64,
    send_buffer_bytes: Option<usize>,
    wheel: Wheel,
    completions: Arc<Mutex<Vec<Completion>>>,
    jobs: Sender<Job>,
    epoch: Instant,
}

impl Reactor {
    fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn token(idx: usize, gen: u32) -> u64 {
        idx as u64 | (u64::from(gen) << 32)
    }

    fn run(mut self) {
        let mut events = vec![EpollEvent::zeroed(); 512];
        loop {
            let timeout = self.wheel.next_timeout_ms(self.now_ms()).min(500) as i32;
            let n = match self.epoll.wait(&mut events, timeout) {
                Ok(n) => n,
                Err(e) => {
                    eprintln!("haxconn serve: epoll_wait failed, reactor exiting: {e}");
                    return;
                }
            };
            if n > 0 {
                self.ctx
                    .stats
                    .reactor_wakeups
                    .fetch_add(1, Ordering::Relaxed);
            }
            for ev in &events[..n] {
                let token = ev.token;
                let mask = ev.events;
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => {
                        self.waker.drain();
                        self.drain_completions();
                    }
                    t => self.conn_event((t & 0xFFFF_FFFF) as usize, (t >> 32) as u32, mask),
                }
            }
            if self.ctx.stop.load(Ordering::SeqCst) {
                // Dropping the reactor closes every connection and the
                // job sender, which shuts the worker pool down.
                return;
            }
            self.expire_idle();
        }
    }

    /// Accepts until `EWOULDBLOCK`; past the connection cap each fresh
    /// socket is answered `503` and closed — backpressure at the
    /// accept edge, never an unbounded set.
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            };
            self.ctx.stats.connections.fetch_add(1, Ordering::Relaxed);
            if self.open >= self.max_conns {
                self.ctx
                    .stats
                    .accept_queue_rejections
                    .fetch_add(1, Ordering::Relaxed);
                let (status, body) = overloaded_body(&self.ctx.stats);
                let mut stream = stream;
                let _ = stream.set_nodelay(true);
                let _ = super::http::write_response(&mut stream, status, &body, false);
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            if let Some(bytes) = self.send_buffer_bytes {
                let _ = sys::set_send_buffer(stream.as_raw_fd(), bytes);
            }
            let idx = self.free.pop().unwrap_or_else(|| {
                self.slots.push(Slot { conn: None, gen: 0 });
                self.slots.len() - 1
            });
            let gen = self.slots[idx].gen;
            let mut conn = Conn::new(stream, gen);
            conn.deadline_ms = self.now_ms() + self.idle_timeout_ms;
            conn.interest = EPOLLIN | EPOLLRDHUP;
            let fd = conn.stream().as_raw_fd();
            if self
                .epoll
                .add(fd, Self::token(idx, gen), conn.interest)
                .is_err()
            {
                self.free.push(idx);
                continue;
            }
            self.wheel.insert(conn.deadline_ms, idx, gen);
            self.slots[idx].conn = Some(conn);
            self.open += 1;
            self.ctx
                .stats
                .open_connections
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    fn conn_event(&mut self, idx: usize, gen: u32, mask: u32) {
        let Some(slot) = self.slots.get_mut(idx) else {
            return;
        };
        if slot.gen != gen || slot.conn.is_none() {
            return; // stale event for a recycled slot
        }
        if mask & (EPOLLERR | EPOLLHUP) != 0 {
            self.close_conn(idx);
            return;
        }
        let conn = slot.conn.as_mut().expect("checked above");
        if mask & EPOLLRDHUP != 0 {
            conn.read_closed = true;
        }
        if mask & EPOLLIN != 0 {
            match conn.fill() {
                Ok(FillOutcome::Read(_)) | Ok(FillOutcome::Idle) | Ok(FillOutcome::Eof) => {}
                Err(_) => {
                    self.close_conn(idx);
                    return;
                }
            }
            // Fresh bytes are activity: push the idle deadline out.
            let deadline = self.now_ms() + self.idle_timeout_ms;
            if let Some(conn) = self.slots[idx].conn.as_mut() {
                conn.deadline_ms = deadline;
            }
        }
        self.advance(idx);
    }

    /// Parses and dispatches as many buffered requests as the
    /// alternation latch allows, then flushes and re-arms interest.
    fn advance(&mut self, idx: usize) {
        loop {
            let Some(conn) = self.slots[idx].conn.as_mut() else {
                return;
            };
            match conn.next_request(self.ctx.max_body_bytes) {
                Ok(Some(req)) => {
                    self.ctx.stats.requests.fetch_add(1, Ordering::Relaxed);
                    let started = Instant::now();
                    match route_fast(&self.ctx, &req) {
                        Routed::Done(status, body) => {
                            self.answer(idx, status, &body, req.keep_alive, started);
                        }
                        Routed::Hit(body) => self.answer(idx, 200, &body, req.keep_alive, started),
                        Routed::Slow(work) => {
                            let conn = self.slots[idx].conn.as_mut().expect("still open");
                            conn.in_flight = true;
                            let job = Job {
                                idx,
                                gen: conn.generation,
                                keep_alive: req.keep_alive,
                                started,
                                work,
                            };
                            if self.jobs.send(job).is_err() {
                                // Pool gone (shutdown): close.
                                self.close_conn(idx);
                                return;
                            }
                        }
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    let (status, body) = match e {
                        HttpReadError::Malformed(m) => {
                            respond(&self.ctx.stats, 400, &ErrorBody::protocol("bad_request", m))
                        }
                        HttpReadError::TooLarge(n) => respond(
                            &self.ctx.stats,
                            413,
                            &ErrorBody::protocol(
                                "payload_too_large",
                                format!("declared body of {n} bytes exceeds the cap"),
                            ),
                        ),
                    };
                    finish_request(&self.ctx.stats, status, Instant::now());
                    let conn = self.slots[idx].conn.as_mut().expect("still open");
                    conn.poisoned = true;
                    // Framing errors always close — and say so.
                    conn.enqueue_response(status, &body, false);
                    break;
                }
            }
        }
        self.finish_io(idx);
    }

    /// Queues an inline answer on a connection that is still open.
    fn answer(&mut self, idx: usize, status: u16, body: &str, keep_alive: bool, started: Instant) {
        finish_request(&self.ctx.stats, status, started);
        let ka = response_keep_alive(status, keep_alive);
        let conn = self.slots[idx].conn.as_mut().expect("still open");
        conn.enqueue_response(status, body, ka);
    }

    /// Flushes, re-arms epoll interest, and closes drained connections.
    fn finish_io(&mut self, idx: usize) {
        let Some(conn) = self.slots[idx].conn.as_mut() else {
            return;
        };
        match conn.flush() {
            Ok(_) => {}
            Err(_) => {
                self.close_conn(idx);
                return;
            }
        }
        let conn = self.slots[idx].conn.as_ref().expect("still open");
        if conn.is_drained() {
            self.close_conn(idx);
            return;
        }
        let wanted = conn.wanted_interest();
        if wanted != conn.interest {
            let fd = conn.stream().as_raw_fd();
            let token = Self::token(idx, conn.generation);
            if self.epoll.modify(fd, token, wanted).is_ok() {
                self.slots[idx].conn.as_mut().expect("still open").interest = wanted;
            }
        }
    }

    fn drain_completions(&mut self) {
        let batch: Vec<Completion> = {
            let mut guard = self
                .completions
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            std::mem::take(&mut *guard)
        };
        for done in batch {
            let deadline = self.now_ms() + self.idle_timeout_ms;
            let Some(slot) = self.slots.get_mut(done.idx) else {
                continue;
            };
            if slot.gen != done.gen {
                continue; // connection already closed and recycled
            }
            let Some(conn) = slot.conn.as_mut() else {
                continue;
            };
            conn.in_flight = false;
            finish_request(&self.ctx.stats, done.status, done.started);
            let ka = response_keep_alive(done.status, done.keep_alive);
            conn.enqueue_response(done.status, &done.body, ka);
            conn.deadline_ms = deadline;
            // The latch is open again: pipelined requests already
            // buffered may now advance (which also flushes).
            self.advance(done.idx);
        }
    }

    fn expire_idle(&mut self) {
        let now = self.now_ms();
        for (idx, gen) in self.wheel.take_due(now) {
            let Some(slot) = self.slots.get_mut(idx) else {
                continue;
            };
            if slot.gen != gen {
                continue;
            }
            let Some(conn) = slot.conn.as_ref() else {
                continue;
            };
            if conn.deadline_ms <= now {
                // Never evict a connection the server still owes bytes:
                // a dispatched solve or an unflushed response is not
                // idleness. Push the entry one period out instead.
                if conn.in_flight || conn.has_pending_write() {
                    self.wheel.insert(now + self.idle_timeout_ms, idx, gen);
                    continue;
                }
                self.ctx.stats.idle_closed.fetch_add(1, Ordering::Relaxed);
                self.close_conn(idx);
            } else {
                // Activity moved the deadline; reschedule lazily.
                self.wheel.insert(conn.deadline_ms, idx, gen);
            }
        }
    }

    fn close_conn(&mut self, idx: usize) {
        let Some(slot) = self.slots.get_mut(idx) else {
            return;
        };
        if let Some(conn) = slot.conn.take() {
            let _ = self.epoll.delete(conn.stream().as_raw_fd());
            drop(conn); // closes the fd
            slot.gen = slot.gen.wrapping_add(1);
            self.free.push(idx);
            self.open -= 1;
            self.ctx
                .stats
                .open_connections
                .fetch_sub(1, Ordering::Relaxed);
        }
    }
}

/// Boots the reactor: registers the listener and wakeup eventfd in a
/// fresh epoll set, spawns the solve pool and the reactor thread, and
/// returns the waker (shutdown signals it) plus every thread handle.
pub(crate) fn spawn(
    listener: TcpListener,
    options: &ServeOptions,
    ctx: Arc<ServerCtx>,
) -> Result<(Arc<EventFd>, Vec<std::thread::JoinHandle<()>>), HaxError> {
    let io = |what: &str, e: std::io::Error| HaxError::Io(format!("{what}: {e}"));
    listener
        .set_nonblocking(true)
        .map_err(|e| io("listener nonblocking", e))?;
    let epoll = Epoll::new().map_err(|e| io("epoll_create1", e))?;
    let waker = Arc::new(EventFd::new().map_err(|e| io("eventfd", e))?);
    epoll
        .add(listener.as_raw_fd(), TOKEN_LISTENER, EPOLLIN)
        .map_err(|e| io("epoll_ctl listener", e))?;
    epoll
        .add(waker.fd(), TOKEN_WAKER, EPOLLIN)
        .map_err(|e| io("epoll_ctl eventfd", e))?;

    let completions: Arc<Mutex<Vec<Completion>>> = Arc::new(Mutex::new(Vec::new()));
    let (jobs_tx, jobs_rx): (Sender<Job>, Receiver<Job>) = std::sync::mpsc::channel();
    let jobs_rx = Arc::new(Mutex::new(jobs_rx));

    let mut threads = Vec::with_capacity(options.workers.max(1) + 1);
    for i in 0..options.workers.max(1) {
        let rx = Arc::clone(&jobs_rx);
        let ctx = Arc::clone(&ctx);
        let completions = Arc::clone(&completions);
        let waker = Arc::clone(&waker);
        let worker = std::thread::Builder::new()
            .name(format!("haxconn-solve-{i}"))
            .spawn(move || loop {
                let job = {
                    let Ok(guard) = rx.lock() else { return };
                    guard.recv()
                };
                let Ok(job) = job else { return }; // reactor gone
                let (status, body) = route_slow(&ctx, job.work);
                {
                    let mut guard = completions
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    guard.push(Completion {
                        idx: job.idx,
                        gen: job.gen,
                        keep_alive: job.keep_alive,
                        started: job.started,
                        status,
                        body,
                    });
                }
                waker.signal();
            })
            .map_err(|e| HaxError::Io(format!("spawn solve worker: {e}")))?;
        threads.push(worker);
    }

    let reactor = Reactor {
        epoll,
        listener,
        waker: Arc::clone(&waker),
        ctx,
        slots: Vec::new(),
        free: Vec::new(),
        open: 0,
        max_conns: options.max_conns.max(1),
        idle_timeout_ms: options.idle_timeout.as_millis().max(1) as u64,
        send_buffer_bytes: options.send_buffer_bytes,
        wheel: Wheel::new(options.idle_timeout.as_millis().max(1) as u64),
        completions,
        jobs: jobs_tx,
        epoch: Instant::now(),
    };
    let reactor_thread = std::thread::Builder::new()
        .name("haxconn-reactor".to_string())
        .spawn(move || reactor.run())
        .map_err(|e| HaxError::Io(format!("spawn reactor: {e}")))?;
    threads.push(reactor_thread);
    Ok((waker, threads))
}

#[cfg(test)]
mod tests {
    use super::Wheel;

    #[test]
    fn wheel_expires_in_order_and_reschedules_lazily() {
        let mut wheel = Wheel::new(320); // granularity 10ms, 34 slots
        wheel.insert(100, 1, 0);
        wheel.insert(250, 2, 0);
        assert!(wheel.take_due(50).is_empty());
        let due = wheel.take_due(115);
        assert_eq!(due, vec![(1, 0)]);
        let due = wheel.take_due(400);
        assert_eq!(due, vec![(2, 0)]);
        // Re-insertion after refresh lands in a future slot.
        wheel.insert(700, 1, 1);
        assert!(wheel.take_due(650).is_empty());
        assert_eq!(wheel.take_due(720), vec![(1, 1)]);
    }

    #[test]
    fn wheel_timeout_tracks_the_next_tick() {
        let wheel = Wheel::new(3200); // granularity 100ms
        assert_eq!(wheel.next_timeout_ms(0), 100);
        assert_eq!(wheel.next_timeout_ms(40), 60);
        // Past the boundary, the minimum keeps epoll from busy-looping.
        assert_eq!(wheel.next_timeout_ms(1000), 1);
    }
}
