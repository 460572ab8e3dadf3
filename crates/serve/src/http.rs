//! Minimal HTTP/1.1 framing over `std::net` — request parsing and
//! response writing for the job service. Public because the sibling
//! `fq-dispatch` crate serves its front-door surface on exactly this
//! framing (same limits, same error mapping, same defensive posture).
//!
//! The workspace is offline (no hyper/tokio), so this is a deliberately
//! small, defensive hand-rolled subset: request-line + header parsing,
//! `Content-Length` bodies, keep-alive, and hard limits on line, header
//! and body sizes so a misbehaving client can never make the server
//! allocate unboundedly or hang (reads are additionally bounded by the
//! socket read timeout the server installs). Chunked transfer encoding
//! is out of scope and rejected with `501 Not Implemented`.

use std::io::{self, BufRead, Read, Write};

/// Longest accepted request line or single header line, in bytes.
const MAX_LINE_BYTES: usize = 8 * 1024;
/// Most headers accepted per request.
const MAX_HEADERS: usize = 100;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Upper-case method token as received (`GET`, `POST`, ...).
    pub method: String,
    /// Decoded path component of the target (no query string).
    pub path: String,
    /// Raw query string after `?`, if any.
    pub query: Option<String>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
    /// Header `(name, value)` pairs, names lower-cased, values trimmed.
    pub headers: Vec<(String, String)>,
}

impl Request {
    /// The value of query parameter `key` (`?key=value`), if present.
    /// No percent-decoding — the service's parameters are plain tokens.
    pub fn query_param(&self, key: &str) -> Option<&str> {
        self.query.as_deref()?.split('&').find_map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (k == key).then_some(v)
        })
    }

    /// First value of header `name` (lower-case), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Checks a static bearer token: with `token` unset everything
    /// passes; with one, only an exact `authorization: Bearer <token>`.
    #[must_use]
    pub fn authorized(&self, token: Option<&str>) -> bool {
        match token {
            None => true,
            Some(token) => self
                .header("authorization")
                .and_then(|value| value.strip_prefix("Bearer "))
                .is_some_and(|presented| presented == token),
        }
    }
}

/// Why a request could not be read. Every variant maps to a close-worthy
/// condition: either the connection ended cleanly ([`ReadError::Closed`],
/// [`ReadError::IdleTimeout`]) or the server answers with the mapped
/// status and closes.
#[derive(Debug)]
pub enum ReadError {
    /// Clean EOF before the first byte of a request — the normal end of
    /// a keep-alive connection. Close silently.
    Closed,
    /// The read timeout expired with no request in flight. Close
    /// silently.
    IdleTimeout,
    /// The peer vanished or stalled mid-request (truncated body, EOF
    /// inside headers, timeout after partial data). → `400`.
    Truncated(String),
    /// Anything malformed: bad request line, bad header, bad
    /// `Content-Length`. → `400`.
    BadRequest(String),
    /// `Content-Length` exceeds the configured body limit. → `413`.
    PayloadTooLarge {
        /// The configured limit the request exceeded.
        limit: usize,
    },
    /// A feature this server deliberately does not speak (chunked
    /// transfer encoding). → `501`.
    NotImplemented(String),
    /// An HTTP version other than 1.0/1.1. → `505`.
    VersionNotSupported(String),
}

impl ReadError {
    /// The response status for this error, or `None` when the connection
    /// should just close silently.
    pub fn status(&self) -> Option<u16> {
        match self {
            ReadError::Closed | ReadError::IdleTimeout => None,
            ReadError::Truncated(_) | ReadError::BadRequest(_) => Some(400),
            ReadError::PayloadTooLarge { .. } => Some(413),
            ReadError::NotImplemented(_) => Some(501),
            ReadError::VersionNotSupported(_) => Some(505),
        }
    }

    /// Human-readable message for the error body.
    pub fn message(&self) -> String {
        match self {
            ReadError::Closed => "connection closed".into(),
            ReadError::IdleTimeout => "idle timeout".into(),
            ReadError::Truncated(msg) | ReadError::BadRequest(msg) => msg.clone(),
            ReadError::PayloadTooLarge { limit } => {
                format!("request body exceeds the {limit}-byte limit")
            }
            ReadError::NotImplemented(msg) => msg.clone(),
            ReadError::VersionNotSupported(v) => format!("unsupported HTTP version `{v}`"),
        }
    }
}

fn timed_out(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// A [`Read`] wrapper enforcing a wall-clock deadline across a whole
/// request, not per syscall.
///
/// The socket read timeout alone resets on every byte, so a slow-drip
/// ("slowloris") client sending one header byte per interval would hold
/// a connection thread forever. This wrapper fails any read attempted
/// after `deadline` with [`io::ErrorKind::TimedOut`]; combined with the
/// per-read socket timeout, total request time is bounded by
/// `deadline + read_timeout`. The connection loop resets the deadline
/// before each request.
#[derive(Debug)]
pub struct DeadlineReader<R> {
    inner: R,
    deadline: std::time::Instant,
}

impl<R> DeadlineReader<R> {
    /// Wraps `inner` with no deadline armed yet (reads pass through
    /// until [`DeadlineReader::arm`] is called).
    pub fn new(inner: R) -> DeadlineReader<R> {
        DeadlineReader {
            inner,
            deadline: std::time::Instant::now() + std::time::Duration::from_secs(60 * 60 * 24),
        }
    }

    /// Starts a fresh per-request deadline `budget` from now.
    pub fn arm(&mut self, budget: std::time::Duration) {
        self.deadline = std::time::Instant::now() + budget;
    }
}

impl<R: Read> Read for DeadlineReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if std::time::Instant::now() >= self.deadline {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "request deadline exceeded",
            ));
        }
        self.inner.read(buf)
    }
}

/// Reads one CRLF (or bare-LF) terminated line, without the terminator.
/// `first` marks the request line, where EOF/timeout mean a clean close
/// rather than a truncated request.
fn read_line(reader: &mut impl BufRead, first: bool) -> Result<String, ReadError> {
    let mut raw = Vec::new();
    let mut limited = reader.take(MAX_LINE_BYTES as u64 + 1);
    match limited.read_until(b'\n', &mut raw) {
        Ok(0) if first && raw.is_empty() => return Err(ReadError::Closed),
        Ok(0) => return Err(ReadError::Truncated("connection closed mid-request".into())),
        Ok(_) if raw.last() != Some(&b'\n') => {
            return if raw.len() > MAX_LINE_BYTES {
                Err(ReadError::BadRequest(format!(
                    "line exceeds {MAX_LINE_BYTES} bytes"
                )))
            } else {
                Err(ReadError::Truncated("connection closed mid-line".into()))
            };
        }
        Ok(_) => {}
        Err(e) if timed_out(&e) && first && raw.is_empty() => return Err(ReadError::IdleTimeout),
        Err(e) if timed_out(&e) => {
            return Err(ReadError::Truncated("read timed out mid-request".into()))
        }
        Err(e) => return Err(ReadError::Truncated(format!("read failed: {e}"))),
    }
    while matches!(raw.last(), Some(b'\n') | Some(b'\r')) {
        raw.pop();
    }
    String::from_utf8(raw).map_err(|_| ReadError::BadRequest("line is not valid UTF-8".into()))
}

/// Reads and validates one request. `max_body` bounds the accepted
/// `Content-Length`.
pub fn read_request(reader: &mut impl BufRead, max_body: usize) -> Result<Request, ReadError> {
    let request_line = read_line(reader, true)?;
    let mut parts = request_line.split(' ');
    let (method, target, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v), None) if !m.is_empty() && !t.is_empty() => (m, t, v),
        _ => {
            return Err(ReadError::BadRequest(format!(
                "malformed request line `{request_line}`"
            )))
        }
    };
    match version {
        "HTTP/1.1" | "HTTP/1.0" => {}
        other => return Err(ReadError::VersionNotSupported(other.into())),
    }

    let mut headers = Vec::new();
    loop {
        let line = read_line(reader, false)?;
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(ReadError::BadRequest(format!(
                "more than {MAX_HEADERS} headers"
            )));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(ReadError::BadRequest(format!("malformed header `{line}`")));
        };
        // RFC 9112 §5.1: no whitespace between the field name and the
        // colon (`Content-Length : 44` must be rejected, not honored —
        // a proxy that ignores it would disagree with us on the body
        // length), and leading whitespace would be obs-fold
        // continuation, which this server does not speak either.
        if name.is_empty() || name != name.trim() {
            return Err(ReadError::BadRequest(format!(
                "whitespace around header name in `{line}`"
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    let find = |name: &str| {
        headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    };

    // Check every occurrence, not the first: `transfer-encoding:
    // identity` followed by `transfer-encoding: chunked` must not slip
    // past a first-match lookup (the TE flavor of the content-length
    // smuggling vector handled below).
    if headers
        .iter()
        .filter(|(n, _)| n == "transfer-encoding")
        .any(|(_, v)| !v.eq_ignore_ascii_case("identity"))
    {
        return Err(ReadError::NotImplemented(
            "transfer-encoding is not supported; send a content-length body".into(),
        ));
    }

    // Strict `content-length`: exactly one occurrence (duplicate or
    // conflicting values are the classic request-smuggling vector behind
    // a proxy that picks the other one — RFC 9112 §6.3 says reject) and
    // plain ASCII digits only (`+5`/`0x5` would also be
    // proxy-divergent, even though `usize::from_str` accepts `+`).
    let mut lengths = headers.iter().filter(|(n, _)| n == "content-length");
    let content_length = match (lengths.next(), lengths.next()) {
        (None, _) => 0,
        (Some(_), Some(_)) => {
            return Err(ReadError::BadRequest(
                "multiple content-length headers".into(),
            ));
        }
        (Some((_, v)), None) => {
            let digits = v.trim();
            if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
                return Err(ReadError::BadRequest(format!(
                    "malformed content-length `{digits}`"
                )));
            }
            digits.parse::<usize>().map_err(|_| {
                ReadError::BadRequest(format!("malformed content-length `{digits}`"))
            })?
        }
    };
    if content_length > max_body {
        return Err(ReadError::PayloadTooLarge { limit: max_body });
    }
    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        reader.read_exact(&mut body).map_err(|e| {
            if timed_out(&e) {
                ReadError::Truncated("read timed out inside the request body".into())
            } else {
                ReadError::Truncated(format!("connection closed inside the request body ({e})"))
            }
        })?;
    }

    let connection = find("connection").map(str::to_ascii_lowercase);
    let keep_alive = match version {
        "HTTP/1.0" => connection.as_deref() == Some("keep-alive"),
        _ => connection.as_deref() != Some("close"),
    };

    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), Some(q.to_string())),
        None => (target.to_string(), None),
    };

    Ok(Request {
        method: method.to_string(),
        path,
        query,
        body,
        keep_alive,
        headers,
    })
}

/// An outgoing response: status, optional extra headers, JSON body.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond the always-present content/connection set.
    pub extra_headers: Vec<(&'static str, String)>,
    /// The response body (the service always speaks JSON).
    pub body: String,
}

impl Response {
    /// A JSON response with the given status.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            extra_headers: Vec::new(),
            body: body.into(),
        }
    }

    /// Adds an extra header.
    pub fn with_header(mut self, name: &'static str, value: impl Into<String>) -> Response {
        self.extra_headers.push((name, value.into()));
        self
    }

    /// Serializes the response to `writer`. `keep_alive` selects the
    /// advertised `connection` disposition.
    pub fn write(&self, writer: &mut impl Write, keep_alive: bool) -> io::Result<()> {
        let mut out = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\nconnection: {}\r\n",
            self.status,
            reason(self.status),
            self.body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        );
        for (name, value) in &self.extra_headers {
            out.push_str(name);
            out.push_str(": ");
            out.push_str(value);
            out.push_str("\r\n");
        }
        out.push_str("\r\n");
        out.push_str(&self.body);
        writer.write_all(out.as_bytes())?;
        writer.flush()
    }
}

/// The canonical reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        401 => "Unauthorized",
        404 => "Not Found",
        405 => "Method Not Allowed",
        410 => "Gone",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        503 => "Service Unavailable",
        505 => "HTTP Version Not Supported",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Request, ReadError> {
        read_request(&mut BufReader::new(bytes), 1024)
    }

    #[test]
    fn parses_a_minimal_request() {
        let req = parse(b"GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/v1/healthz");
        assert_eq!(req.query, None);
        assert!(req.keep_alive, "HTTP/1.1 defaults to keep-alive");
        assert!(req.body.is_empty());
    }

    #[test]
    fn parses_bodies_queries_and_connection_close() {
        let req = parse(
            b"POST /v1/jobs?mode=async HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nbody",
        )
        .unwrap();
        assert_eq!(req.query_param("mode"), Some("async"));
        assert_eq!(req.query_param("nope"), None);
        assert_eq!(req.body, b"body");
        assert!(!req.keep_alive);
    }

    #[test]
    fn retains_headers_for_handlers() {
        let req =
            parse(b"GET /v1/stats HTTP/1.1\r\nAuthorization: Bearer sesame\r\nX-Custom: v\r\n\r\n")
                .unwrap();
        assert_eq!(req.header("authorization"), Some("Bearer sesame"));
        assert_eq!(req.header("x-custom"), Some("v"));
        assert_eq!(req.header("absent"), None);
    }

    #[test]
    fn http_10_defaults_to_close() {
        let req = parse(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!req.keep_alive);
        let req = parse(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(req.keep_alive);
    }

    #[test]
    fn rejects_malformed_requests() {
        assert!(matches!(parse(b""), Err(ReadError::Closed)));
        assert!(matches!(
            parse(b"NOT-HTTP\r\n\r\n"),
            Err(ReadError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/2.0\r\n\r\n"),
            Err(ReadError::VersionNotSupported(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nbroken header\r\n\r\n"),
            Err(ReadError::BadRequest(_))
        ));
        // RFC 9112 §5.1: whitespace before the colon must be rejected —
        // a proxy that strips `Content-Length : 4` while we honor it
        // would disagree with us about where the body ends.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length : 4\r\n\r\nbody"),
            Err(ReadError::BadRequest(msg)) if msg.contains("whitespace")
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\n folded: continuation\r\n\r\n"),
            Err(ReadError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: frog\r\n\r\n"),
            Err(ReadError::BadRequest(_))
        ));
        // Smuggling-adjacent leniency: duplicate or sign-prefixed
        // content-length values must be rejected, not first-one-wins.
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 40\r\n\r\nbody"),
            Err(ReadError::BadRequest(msg)) if msg.contains("multiple")
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: +4\r\n\r\nbody"),
            Err(ReadError::BadRequest(_))
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            Err(ReadError::NotImplemented(_))
        ));
    }

    #[test]
    fn rejects_oversized_and_truncated_bodies() {
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 2048\r\n\r\n"),
            Err(ReadError::PayloadTooLarge { limit: 1024 })
        ));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(ReadError::Truncated(_))
        ));
        assert!(matches!(
            parse(b"GET / HTTP/1.1\r\nHost: x"),
            Err(ReadError::Truncated(_))
        ));
    }

    #[test]
    fn caps_line_length() {
        let mut raw = b"GET /".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_LINE_BYTES + 10));
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        assert!(matches!(
            parse(&raw),
            Err(ReadError::BadRequest(msg)) if msg.contains("exceeds")
        ));
    }

    #[test]
    fn responses_serialize_with_framing_headers() {
        let mut out = Vec::new();
        Response::json(200, "{}")
            .with_header("x-extra", "1")
            .write(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 2\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.contains("x-extra: 1\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));
    }
}
