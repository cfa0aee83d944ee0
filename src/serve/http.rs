//! Minimal HTTP/1.1 framing for `haxconn serve`.
//!
//! The build is offline — no tokio, no hyper — so `haxconn serve`
//! speaks exactly the subset of HTTP/1.1 a JSON API needs:
//! request-line plus headers plus `Content-Length` bodies, persistent
//! connections by default (`Connection: close` honored), UTF-8 JSON
//! payloads, a [`MAX_HEAD_BYTES`] head cap and a hard body-size cap as
//! the first line of defense against misbehaving clients. No chunked
//! transfer, no TLS, no pipelining guarantees beyond strict
//! request/response alternation.
//!
//! [`parse_request`] parses incrementally out of a byte buffer that
//! grows as the reactor's nonblocking reads land. It returns `Ok(None)`
//! until a complete request is buffered, so a slowloris client
//! dribbling one byte at a time never blocks anyone — its bytes just
//! accumulate.

use std::io::Write;

/// Byte cap on a request head (request line + headers, counted from
/// the start of the buffer): a head past it is malformed whether it is
/// still streaming in or arrived complete in one read, so a client
/// can neither grow the connection buffer without bound nor smuggle an
/// oversized head through in a single write.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;

/// A parsed request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Uppercase method, e.g. `"POST"`.
    pub method: String,
    /// Path with query string attached (the router matches on the path
    /// part only).
    pub path: String,
    /// UTF-8 body (empty when no `Content-Length`).
    pub body: String,
    /// Whether the client wants the connection kept open.
    pub keep_alive: bool,
}

/// Why a request could not be parsed.
#[derive(Debug)]
pub enum HttpReadError {
    /// Protocol violation — respond 400 and close.
    Malformed(String),
    /// Declared body exceeds the cap — respond 413 and close.
    TooLarge(usize),
}

/// Parses `METHOD TARGET HTTP/1.x` into `(method, target, keep_alive
/// default)`.
fn parse_request_line(line: &str) -> Result<(String, String, bool), HttpReadError> {
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpReadError::Malformed("missing method".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpReadError::Malformed("missing request target".into()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| HttpReadError::Malformed("missing HTTP version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpReadError::Malformed(format!(
            "unsupported version {version}"
        )));
    }
    // HTTP/1.1 defaults to keep-alive, HTTP/1.0 to close.
    Ok((method, target, version != "HTTP/1.0"))
}

/// Applies one header line to the connection/body framing state.
/// `Content-Length` must be `1*DIGIT` (RFC 9112 §6.3: no sign, no
/// list), and a repeated one must repeat the same value.
fn apply_header(
    header: &str,
    keep_alive: &mut bool,
    content_length: &mut Option<usize>,
) -> Result<(), HttpReadError> {
    let Some((name, value)) = header.split_once(':') else {
        return Err(HttpReadError::Malformed(format!("bad header '{header}'")));
    };
    let name = name.trim().to_ascii_lowercase();
    let value = value.trim();
    match name.as_str() {
        "content-length" => {
            let bad = || HttpReadError::Malformed(format!("bad Content-Length '{value}'"));
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(bad());
            }
            let n: usize = value.parse().map_err(|_| bad())?;
            if content_length.is_some_and(|prev| prev != n) {
                return Err(HttpReadError::Malformed(
                    "conflicting Content-Length values".into(),
                ));
            }
            *content_length = Some(n);
        }
        "connection" => {
            let v = value.to_ascii_lowercase();
            if v.contains("close") {
                *keep_alive = false;
            } else if v.contains("keep-alive") {
                *keep_alive = true;
            }
        }
        "transfer-encoding" => {
            return Err(HttpReadError::Malformed(
                "chunked transfer encoding is not supported".into(),
            ));
        }
        _ => {}
    }
    Ok(())
}

/// Incrementally parses one request out of `buf` (a nonblocking
/// connection's accumulation buffer). Returns:
///
/// * `Ok(None)` — the buffer does not yet hold a complete request
///   (head still open, or declared body not fully received);
/// * `Ok(Some((request, consumed)))` — a complete request, with the
///   number of buffer bytes it consumed (drain them before the next
///   call);
/// * `Err(..)` — a framing violation: a bad request line or header
///   (including a non-digit or conflicting repeated `Content-Length`),
///   a second stray empty line before the request line (one is
///   tolerated), a head over [`MAX_HEAD_BYTES`], or a declared body
///   over `max_body_bytes`.
///
/// Note the 413 check fires as soon as the head completes — the
/// oversized body never needs to be buffered.
pub fn parse_request(
    buf: &[u8],
    max_body_bytes: usize,
) -> Result<Option<(Request, usize)>, HttpReadError> {
    // A head that fits the cap ends within its first MAX_HEAD_BYTES
    // bytes, so the line scan never looks further.
    let scan = &buf[..buf.len().min(MAX_HEAD_BYTES + 1)];
    let next_line = |pos: usize| -> Option<(&str, usize)> {
        let rest = &scan[pos..];
        let nl = rest.iter().position(|&b| b == b'\n')?;
        let line = &rest[..nl];
        let line = if line.ends_with(b"\r") {
            &line[..line.len() - 1]
        } else {
            line
        };
        // Header text must be UTF-8; lossy replacement keeps the error
        // message printable and the grammar check will reject it.
        Some((
            std::str::from_utf8(line).unwrap_or("\u{fffd}"),
            pos + nl + 1,
        ))
    };

    // The request line (after at most one stray empty line), then
    // headers until the empty line; `head_end` stays `None` while the
    // head is still open.
    let mut pos = 0usize;
    let mut stray = false;
    let mut request_line = None;
    let mut content_length = None;
    let head_end = loop {
        let Some((line, next)) = next_line(pos) else {
            break None;
        };
        pos = next;
        match &mut request_line {
            None if line.is_empty() => {
                if stray {
                    return Err(HttpReadError::Malformed("empty request line".into()));
                }
                stray = true;
            }
            None => request_line = Some(parse_request_line(line)?),
            Some(_) if line.is_empty() => break Some(pos),
            Some((_, _, keep_alive)) => apply_header(line, keep_alive, &mut content_length)?,
        }
    };
    if head_end.unwrap_or(buf.len()) > MAX_HEAD_BYTES {
        return Err(HttpReadError::Malformed("request head too large".into()));
    }
    let (Some(head_end), Some((method, target, keep_alive))) = (head_end, request_line) else {
        return Ok(None);
    };
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body_bytes {
        return Err(HttpReadError::TooLarge(content_length));
    }
    let body_end = head_end + content_length;
    if buf.len() < body_end {
        return Ok(None);
    }
    let body = String::from_utf8(buf[head_end..body_end].to_vec())
        .map_err(|_| HttpReadError::Malformed("body is not UTF-8".into()))?;
    Ok(Some((
        Request {
            method,
            path: target,
            body,
            keep_alive,
        },
        body_end,
    )))
}

/// The standard reason phrase for the statuses this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The head of one JSON response with a `body_len`-byte body.
struct Head {
    status: u16,
    body_len: usize,
    keep_alive: bool,
}

impl std::fmt::Display for Head {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            self.status,
            reason(self.status),
            self.body_len,
            if self.keep_alive { "keep-alive" } else { "close" },
        )
    }
}

/// Appends the head of one JSON response with a `body_len`-byte body
/// to `out`; the caller appends the body bytes after it.
pub fn write_head(out: &mut Vec<u8>, status: u16, body_len: usize, keep_alive: bool) {
    let head = Head {
        status,
        body_len,
        keep_alive,
    };
    write!(out, "{head}").expect("writing to a Vec cannot fail");
}

/// Renders one JSON response onto the wire format: the
/// [`write_head`] head followed by the body.
pub fn format_response(status: u16, body: &str, keep_alive: bool) -> String {
    let head = Head {
        status,
        body_len: body.len(),
        keep_alive,
    };
    format!("{head}{body}")
}

/// Writes one JSON response to a blocking stream (the reactor's
/// accept-edge `503`, sent before the socket is ever registered).
pub fn write_response(
    writer: &mut impl Write,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> std::io::Result<()> {
    writer.write_all(format_response(status, body, keep_alive).as_bytes())?;
    writer.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Option<Request>, HttpReadError> {
        parse_request(raw.as_bytes(), 1024).map(|parsed| parsed.map(|(req, _)| req))
    }

    #[test]
    fn parses_post_with_body() {
        let req = parse("POST /v1/schedule HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/schedule");
        assert_eq!(req.body, "{\"a\"");
        assert!(req.keep_alive);
    }

    #[test]
    fn connection_close_is_honored() {
        let req = parse("GET /v1/health HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap()
            .unwrap();
        assert!(!req.keep_alive);
        // HTTP/1.0 defaults to close.
        let req = parse("GET / HTTP/1.0\r\n\r\n").unwrap().unwrap();
        assert!(!req.keep_alive);
    }

    #[test]
    fn eof_before_request_is_clean_close() {
        assert!(parse("").unwrap().is_none());
    }

    #[test]
    fn one_stray_crlf_between_requests_is_tolerated() {
        // The pipelined-client case: one leading empty line is
        // skipped...
        let req = parse("\r\nGET /v1/health HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.path, "/v1/health");
        // ...a lone stray CRLF is just an incomplete request...
        assert!(parse("\r\n").unwrap().is_none());
        // ...and two empty lines stay a protocol violation.
        assert!(matches!(
            parse("\r\n\r\nGET / HTTP/1.1\r\n\r\n"),
            Err(HttpReadError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_body_is_rejected_without_reading_it() {
        // 413 fires off the declared length before any body arrives.
        let e = parse("POST / HTTP/1.1\r\nContent-Length: 99999\r\n\r\n").unwrap_err();
        assert!(matches!(e, HttpReadError::TooLarge(99999)));
    }

    #[test]
    fn malformed_requests_are_typed() {
        for raw in [
            "NOT-HTTP\r\n\r\n",
            // Only HTTP/1.x is spoken.
            "GET / SPDY/3\r\n\r\n",
            "GET / HTTP/2.0\r\n\r\n",
            "POST / HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
            "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "GET / HTTP/1.1\r\nno colon here\r\n\r\n",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpReadError::Malformed(_))),
                "{raw:?} must be malformed"
            );
        }
    }

    #[test]
    fn content_length_must_be_digits() {
        for value in ["+4", "-4", " ", "4 4", "0x4", "4,4", "\u{0664}"] {
            let raw = format!("POST / HTTP/1.1\r\nContent-Length: {value}\r\n\r\n{{\"a\"");
            assert!(
                matches!(parse(&raw), Err(HttpReadError::Malformed(_))),
                "Content-Length {value:?} must be malformed"
            );
        }
        // Overflowing digits are malformed too, not a huge TooLarge.
        let raw = "POST / HTTP/1.1\r\nContent-Length: 99999999999999999999999\r\n\r\n";
        assert!(matches!(parse(raw), Err(HttpReadError::Malformed(_))));
        // Leading zeros are still 1*DIGIT.
        let req = parse("POST / HTTP/1.1\r\nContent-Length: 004\r\n\r\n{\"a\"")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, "{\"a\"");
    }

    #[test]
    fn repeated_content_length_must_agree() {
        let req = parse("POST / HTTP/1.1\r\nContent-Length: 4\r\ncontent-length: 4\r\n\r\n{\"a\"")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, "{\"a\"");
        for raw in [
            "POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 2\r\n\r\n{\"a\"",
            "POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 4\r\n\r\n{\"a\"",
            "POST / HTTP/1.1\r\nContent-Length: 0\r\nContent-Length: 4\r\n\r\n{\"a\"",
        ] {
            assert!(
                matches!(parse(raw), Err(HttpReadError::Malformed(_))),
                "{raw:?} must be malformed"
            );
        }
    }

    #[test]
    fn response_wire_format() {
        let mut out = Vec::new();
        write_response(&mut out, 200, "{}", true).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(s.contains("Content-Length: 2\r\n"));
        assert!(s.contains("Connection: keep-alive\r\n"));
        assert!(s.ends_with("\r\n\r\n{}"));
        let mut out = Vec::new();
        write_response(&mut out, 503, "{}", false).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(s.contains("Connection: close\r\n"));
    }

    #[test]
    fn incremental_parse_waits_for_the_full_request() {
        let full = b"POST /v1/schedule HTTP/1.1\r\nContent-Length: 4\r\n\r\n{\"a\"";
        // Every proper prefix is incomplete, never an error — the
        // byte-at-a-time slowloris contract.
        for cut in 0..full.len() {
            assert!(
                parse_request(&full[..cut], 1024).unwrap().is_none(),
                "prefix of {cut} bytes must be incomplete"
            );
        }
        let (req, consumed) = parse_request(full, 1024).unwrap().unwrap();
        assert_eq!(consumed, full.len());
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, "{\"a\"");
        assert!(req.keep_alive);
    }

    #[test]
    fn incremental_parse_reports_consumed_bytes_for_pipelining() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let (a, consumed) = parse_request(raw, 1024).unwrap().unwrap();
        assert_eq!(a.path, "/a");
        let (b, rest) = parse_request(&raw[consumed..], 1024).unwrap().unwrap();
        assert_eq!(b.path, "/b");
        assert_eq!(consumed + rest, raw.len());
    }

    /// What a parsed request is compared by: method, path, body,
    /// keep-alive.
    type Parsed = (String, String, String, bool);

    /// xorshift64*, for the seeded framing fuzz below.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: usize) -> usize {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 33) as usize % n
        }
    }

    /// `n` pipelined requests as one byte stream — schedule POSTs with
    /// bodies of 0 to ~600 bytes (some multi-byte UTF-8), health GETs,
    /// an occasional stray CRLF, mixed header spellings — plus the
    /// `(method, path, body, keep_alive)` each must parse to.
    fn pipelined_stream(rng: &mut Rng, n: usize) -> (Vec<u8>, Vec<Parsed>) {
        const ALPHABET: &[&str] = &["{", "}", "\"", ":", ",", "a", "z", "7", " ", "é", "→"];
        let mut stream = Vec::new();
        let mut want = Vec::new();
        for _ in 0..n {
            if rng.below(4) == 0 {
                stream.extend_from_slice(b"\r\n");
            }
            let keep_alive = rng.below(8) != 0;
            let connection = if keep_alive {
                ""
            } else {
                "Connection: close\r\n"
            };
            if rng.below(3) == 0 {
                let raw = format!("GET /v1/health HTTP/1.1\r\nHost: x\r\n{connection}\r\n");
                stream.extend_from_slice(raw.as_bytes());
                want.push(("GET".into(), "/v1/health".into(), String::new(), keep_alive));
            } else {
                let len = [0, 1, 2, 40, 300, 600][rng.below(6)];
                let body: String = (0..len)
                    .map(|_| ALPHABET[rng.below(ALPHABET.len())])
                    .collect();
                let name = ["Content-Length", "content-length", "CONTENT-LENGTH"][rng.below(3)];
                let raw = format!(
                    "POST /v1/schedule HTTP/1.1\r\n{name}: {}\r\n{connection}\r\n{body}",
                    body.len()
                );
                stream.extend_from_slice(raw.as_bytes());
                want.push(("POST".into(), "/v1/schedule".into(), body, keep_alive));
            }
        }
        (stream, want)
    }

    /// Appends each chunk, then parses and drains complete requests,
    /// as the reactor's `Conn` does.
    fn parse_chunked(stream: &[u8], cuts: &[usize]) -> Vec<Parsed> {
        let mut buf = Vec::new();
        let mut got = Vec::new();
        let mut from = 0;
        for &to in cuts.iter().chain([&stream.len()]) {
            buf.extend_from_slice(&stream[from..to]);
            from = to;
            while let Some((req, consumed)) = parse_request(&buf, 1024).expect("valid framing") {
                buf.drain(..consumed);
                got.push((req.method, req.path, req.body, req.keep_alive));
            }
        }
        assert!(buf.is_empty(), "{} bytes left unparsed", buf.len());
        got
    }

    #[test]
    fn framing_is_invariant_under_how_the_stream_is_split() {
        for seed in 1..=40u64 {
            let mut rng = Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1);
            let (stream, want) = pipelined_stream(&mut rng, 24);
            assert_eq!(
                parse_chunked(&stream, &[]),
                want,
                "seed {seed}: one-shot parse"
            );
            for _ in 0..8 {
                let mut cuts: Vec<usize> = (0..rng.below(64))
                    .map(|_| rng.below(stream.len() + 1))
                    .collect();
                cuts.sort_unstable();
                assert_eq!(
                    parse_chunked(&stream, &cuts),
                    want,
                    "seed {seed}: cuts {cuts:?}"
                );
            }
            // Byte at a time: every possible cut at once.
            let every: Vec<usize> = (1..stream.len()).collect();
            assert_eq!(
                parse_chunked(&stream, &every),
                want,
                "seed {seed}: byte at a time"
            );
        }
    }

    #[test]
    fn unbounded_heads_are_cut_off() {
        let mut junk = b"GET / HTTP/1.1\r\n".to_vec();
        junk.extend(std::iter::repeat_n(b'x', MAX_HEAD_BYTES + 16));
        assert!(matches!(
            parse_request(&junk, 1024),
            Err(HttpReadError::Malformed(_))
        ));
    }

    #[test]
    fn complete_oversized_heads_are_rejected() {
        let head = |line_pad: usize, header_pad: usize| {
            format!(
                "GET /{} HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
                "a".repeat(line_pad),
                "b".repeat(header_pad)
            )
            .into_bytes()
        };
        // A complete head far past the cap, arriving in one read.
        let huge = head(0, 4 * MAX_HEAD_BYTES);
        assert!(matches!(
            parse_request(&huge, 1024),
            Err(HttpReadError::Malformed(_))
        ));
        // The request line and the headers share one budget: each
        // half fits alone, together they do not.
        let split = head(MAX_HEAD_BYTES * 2 / 3, MAX_HEAD_BYTES * 2 / 3);
        assert!(matches!(
            parse_request(&split, 1024),
            Err(HttpReadError::Malformed(_))
        ));
        // Exactly at the cap is still a request, with a body after it.
        let pad = MAX_HEAD_BYTES - head(0, 0).len();
        let mut exact = head(0, pad);
        assert_eq!(exact.len(), MAX_HEAD_BYTES);
        exact.extend_from_slice(b"trailing body bytes are not head");
        let (req, consumed) = parse_request(&exact, 1024).unwrap().unwrap();
        assert_eq!(consumed, MAX_HEAD_BYTES);
        assert_eq!(req.path, "/");
        // One byte over is not.
        assert!(matches!(
            parse_request(&head(0, pad + 1), 1024),
            Err(HttpReadError::Malformed(_))
        ));
    }
}
