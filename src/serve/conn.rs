//! The reactor's per-connection state machine.
//!
//! A [`Conn`] owns a nonblocking `TcpStream` plus two buffers:
//!
//! * `read_buf` accumulates whatever the kernel has; the incremental
//!   parser ([`http::parse_request`]) lifts complete requests out of
//!   it, under the [`http::MAX_HEAD_BYTES`] head cap. A slowloris client
//!   dribbling one byte at a time just grows this buffer — it never
//!   blocks the reactor or any other connection.
//! * `write_buf` holds the not-yet-accepted tail of queued responses.
//!   A partial write records its position and resumes when `EPOLLOUT`
//!   fires — a client that never reads its responses stalls only its
//!   own connection.
//!
//! Strict HTTP/1.1 request/response alternation is enforced with the
//! `in_flight` latch: once a request is handed to the solve pool, no
//! further request is parsed (and the reactor drops read interest, so
//! a pipelining flood backpressures into the kernel) until the
//! response has been queued.

use super::http::{self, HttpReadError, Request};
use std::io::{Read, Write};
use std::net::TcpStream;

/// What a nonblocking read drained out of the socket.
pub enum FillOutcome {
    /// `n` fresh bytes appended to the read buffer.
    Read(usize),
    /// Nothing available right now (`EWOULDBLOCK`).
    Idle,
    /// Peer closed its writing half (EOF).
    Eof,
}

/// One nonblocking connection owned by the reactor.
pub struct Conn {
    stream: TcpStream,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    /// Bytes of `write_buf` already accepted by the kernel.
    write_pos: usize,
    /// Liveness stamp for stale-completion rejection: a slab slot's
    /// generation at the time this connection was installed.
    pub generation: u32,
    /// Idle deadline (reactor-relative ms); refreshed on activity.
    pub deadline_ms: u64,
    /// A request has been dispatched to the solve pool and its
    /// response is not queued yet — parse nothing further.
    pub in_flight: bool,
    /// Close once `write_buf` drains (error responses, keep-alive
    /// opt-out).
    pub close_after_flush: bool,
    /// A framing error was answered; never parse this buffer again.
    pub poisoned: bool,
    /// Peer EOF observed.
    pub read_closed: bool,
    /// The epoll interest mask currently registered for this fd.
    pub interest: u32,
}

impl Conn {
    /// Wraps an accepted stream (already set nonblocking).
    pub fn new(stream: TcpStream, generation: u32) -> Conn {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            generation,
            deadline_ms: 0,
            in_flight: false,
            close_after_flush: false,
            poisoned: false,
            read_closed: false,
            interest: 0,
        }
    }

    /// The underlying stream (for `as_raw_fd` registration).
    pub fn stream(&self) -> &TcpStream {
        &self.stream
    }

    /// Drains the socket into `read_buf` until `EWOULDBLOCK` or EOF.
    pub fn fill(&mut self) -> std::io::Result<FillOutcome> {
        let mut total = 0usize;
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.read_closed = true;
                    return Ok(if total == 0 {
                        FillOutcome::Eof
                    } else {
                        FillOutcome::Read(total)
                    });
                }
                Ok(n) => {
                    self.read_buf.extend_from_slice(&chunk[..n]);
                    total += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    return Ok(if total == 0 {
                        FillOutcome::Idle
                    } else {
                        FillOutcome::Read(total)
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    /// Lifts the next complete request out of `read_buf`, if the
    /// connection is in a state to accept one (not mid-dispatch, not
    /// poisoned by a framing error).
    pub fn next_request(
        &mut self,
        max_body_bytes: usize,
    ) -> Result<Option<Request>, HttpReadError> {
        if self.in_flight || self.poisoned || self.close_after_flush {
            return Ok(None);
        }
        match http::parse_request(&self.read_buf, max_body_bytes)? {
            Some((req, consumed)) => {
                self.read_buf.drain(..consumed);
                Ok(Some(req))
            }
            None => Ok(None),
        }
    }

    /// Queues one response onto the write buffer: the head, then the
    /// body bytes, with no intermediate string.
    pub fn enqueue_response(&mut self, status: u16, body: &str, keep_alive: bool) {
        http::write_head(&mut self.write_buf, status, body.len(), keep_alive);
        self.write_buf.extend_from_slice(body.as_bytes());
        if !keep_alive {
            self.close_after_flush = true;
        }
    }

    /// Pushes buffered bytes at the socket; returns `Ok(true)` when the
    /// buffer fully drained, `Ok(false)` when the kernel stopped
    /// accepting (resume on `EPOLLOUT`).
    pub fn flush(&mut self) -> std::io::Result<bool> {
        while self.write_pos < self.write_buf.len() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.write_pos += n,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.write_buf.clear();
        self.write_pos = 0;
        Ok(true)
    }

    /// Whether un-flushed response bytes remain.
    pub fn has_pending_write(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    /// The epoll interest mask this connection currently wants: read
    /// while a request may be parsed, write while responses wait, and
    /// peer-hangup always.
    pub fn wanted_interest(&self) -> u32 {
        let mut mask = super::sys::EPOLLRDHUP;
        if !self.in_flight && !self.poisoned && !self.read_closed && !self.close_after_flush {
            mask |= super::sys::EPOLLIN;
        }
        if self.has_pending_write() {
            mask |= super::sys::EPOLLOUT;
        }
        mask
    }

    /// A connection with nothing left to do: peer gone or poisoned,
    /// all responses flushed, nothing dispatched.
    pub fn is_drained(&self) -> bool {
        !self.in_flight
            && !self.has_pending_write()
            && (self.close_after_flush
                || (self.read_closed
                    && http::parse_request(&self.read_buf, usize::MAX)
                        .ok()
                        .flatten()
                        .is_none()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// A connected nonblocking (server-side) pair over loopback.
    fn pair() -> (Conn, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = TcpStream::connect(addr).expect("connect");
        let (server, _) = listener.accept().expect("accept");
        server.set_nonblocking(true).expect("nonblocking");
        server.set_nodelay(true).expect("nodelay");
        (Conn::new(server, 0), client)
    }

    #[test]
    fn accumulates_bytes_until_a_request_completes() {
        let (mut conn, mut client) = pair();
        let raw = b"GET /v1/health HTTP/1.1\r\n\r\n";
        // First half: parser stays hungry.
        client.write_all(&raw[..10]).expect("write");
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(matches!(conn.fill().expect("fill"), FillOutcome::Read(_)));
        assert!(conn.next_request(1024).expect("parse").is_none());
        // Second half: the request surfaces.
        client.write_all(&raw[10..]).expect("write");
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(matches!(conn.fill().expect("fill"), FillOutcome::Read(_)));
        let req = conn.next_request(1024).expect("parse").expect("complete");
        assert_eq!(req.path, "/v1/health");
        // Drained; an idle fill reports no progress.
        assert!(conn.next_request(1024).expect("parse").is_none());
        assert!(matches!(conn.fill().expect("fill"), FillOutcome::Idle));
    }

    #[test]
    fn in_flight_latch_blocks_pipelined_parsing() {
        let (mut conn, mut client) = pair();
        client
            .write_all(b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n")
            .expect("write");
        std::thread::sleep(std::time::Duration::from_millis(30));
        conn.fill().expect("fill");
        let a = conn.next_request(1024).expect("parse").expect("first");
        assert_eq!(a.path, "/a");
        conn.in_flight = true;
        assert!(conn.next_request(1024).expect("parse").is_none());
        conn.in_flight = false;
        let b = conn.next_request(1024).expect("parse").expect("second");
        assert_eq!(b.path, "/b");
    }

    #[test]
    fn partial_writes_resume_where_they_left_off() {
        let (mut conn, mut client) = pair();
        super::super::sys::set_send_buffer(std::os::fd::AsRawFd::as_raw_fd(conn.stream()), 4096)
            .expect("SO_SNDBUF");
        // A response far larger than the send buffer: the first flush
        // must stop early with bytes retained.
        let big = "x".repeat(512 * 1024);
        conn.enqueue_response(200, &big, true);
        let expected = conn.write_buf.len();
        let done = conn.flush().expect("flush");
        assert!(!done, "flush must hit EWOULDBLOCK against a 4k buffer");
        assert!(conn.has_pending_write());
        assert_ne!(conn.wanted_interest() & super::super::sys::EPOLLOUT, 0);

        // Drain client-side while re-flushing until every queued byte
        // has arrived, or the deadline passes.
        let mut received = Vec::new();
        client.set_nonblocking(true).expect("nonblocking");
        let mut chunk = [0u8; 65536];
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while received.len() < expected {
            assert!(
                std::time::Instant::now() < deadline,
                "only {} of {expected} bytes arrived",
                received.len()
            );
            if conn.has_pending_write() {
                conn.flush().expect("flush");
            }
            match client.read(&mut chunk) {
                Ok(0) => panic!("server closed a keep-alive connection"),
                Ok(n) => received.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(std::time::Duration::from_millis(1))
                }
                Err(e) => panic!("client read: {e}"),
            }
        }
        let text = String::from_utf8(received).expect("utf8");
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.ends_with(&big), "full body must arrive in order");
        assert!(!conn.has_pending_write());
    }

    #[test]
    fn eof_and_drained_detection() {
        let (mut conn, client) = pair();
        drop(client);
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(matches!(conn.fill().expect("fill"), FillOutcome::Eof));
        assert!(conn.read_closed);
        assert!(conn.is_drained());
    }
}
