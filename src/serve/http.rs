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
fn apply_header(
    header: &str,
    keep_alive: &mut bool,
    content_length: &mut usize,
) -> Result<(), HttpReadError> {
    let Some((name, value)) = header.split_once(':') else {
        return Err(HttpReadError::Malformed(format!("bad header '{header}'")));
    };
    let name = name.trim().to_ascii_lowercase();
    let value = value.trim();
    match name.as_str() {
        "content-length" => {
            *content_length = value
                .parse()
                .map_err(|_| HttpReadError::Malformed("bad Content-Length".into()))?;
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
/// * `Err(..)` — a framing violation: a bad request line or header, a
///   second stray empty line before the request line (one is
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
    let mut content_length = 0usize;
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

/// Renders one JSON response onto the wire format. The reactor queues
/// these bytes into a per-connection write buffer (partial writes
/// resume where they left off).
pub fn format_response(status: u16, body: &str, keep_alive: bool) -> String {
    let connection = if keep_alive { "keep-alive" } else { "close" };
    format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{}",
        status,
        reason(status),
        body.len(),
        connection,
        body
    )
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
