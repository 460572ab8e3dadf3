//! A minimal blocking HTTP client for the job service — enough for the
//! examples, the e2e tests and CI smoke steps, with no dependencies
//! beyond `std::net` (the same offline constraint as the server).
//!
//! Two tiers, by traffic shape, with one request writer and one
//! response reader: both send the same request bytes but for the
//! `connection` header, and frame responses by `content-length` under
//! the same size cap.
//!
//! * [`request`] and the typed helpers ([`submit_sync`],
//!   [`submit_async`], [`poll`]) open one connection per call
//!   (`connection: close`) — fine for smoke tests and scripts;
//! * [`ShardConn`] holds a keep-alive `TcpStream` across requests —
//!   what `fq-dispatch` uses to forward thousands of jobs without a TCP
//!   handshake per job.
//!
//! # Examples
//!
//! ```no_run
//! use fq_serve::client;
//! use frozenqubits::api::{DeviceSpec, JobBuilder};
//!
//! let spec = JobBuilder::new()
//!     .barabasi_albert(12, 1, 7)
//!     .device(DeviceSpec::IbmMontreal)
//!     .compare()
//!     .build()?;
//! let report = client::submit_sync("127.0.0.1:8077", &spec)?.into_compare()?;
//! println!("improvement: {:.2}x", report.improvement);
//! # Ok::<(), frozenqubits::FqError>(())
//! ```

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use fq_faults::{FaultKind, FaultPlan, FaultSite};
use frozenqubits::{FqError, JobId, JobResult, JobSpec, TemplateArtifact, TemplateCache};
use serde::json::Value;

use crate::http::{self, ReadError};

/// How long the client waits for a response before giving up.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(300);

/// Upper bound on a response body the client will buffer. A shard's
/// largest legitimate answer is a template artifact (well under a
/// megabyte); anything claiming more is a broken or hostile peer, and
/// honoring it would let one response OOM the dispatcher.
const MAX_RESPONSE_BYTES: usize = 64 << 20;

/// A parsed HTTP response.
#[derive(Clone, Debug)]
pub struct HttpResponse {
    /// The status code.
    pub status: u16,
    /// Header `(name, value)` pairs, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The response body (the service always answers JSON).
    pub body: String,
}

impl HttpResponse {
    /// First value of header `name` (lower-case), if present.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Parses the body as a JSON document.
    ///
    /// # Errors
    ///
    /// [`FqError::Serde`] when the body is not valid JSON.
    pub fn json(&self) -> Result<Value, FqError> {
        Ok(Value::parse(&self.body)?)
    }
}

/// Performs one HTTP request against `addr` and reads the full
/// `content-length`-framed response.
///
/// # Errors
///
/// [`FqError::Io`] for connection problems, truncated or oversized
/// responses, and [`FqError::Serde`] for an unparsable response.
pub fn request(
    addr: &str,
    method: &str,
    target: &str,
    body: Option<&str>,
) -> Result<HttpResponse, FqError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(RESPONSE_TIMEOUT))?;
    stream.write_all(request_bytes(addr, "close", None, method, target, body).as_bytes())?;

    // Framed like every keep-alive response, so the same size cap holds.
    let (response, _) = read_framed_response(&mut BufReader::new(stream))?;
    Ok(response)
}

/// Turns a non-2xx service response into an [`FqError::Io`] carrying the
/// status and the error envelope.
fn service_error(response: &HttpResponse) -> FqError {
    FqError::Io(format!("HTTP {}: {}", response.status, response.body))
}

/// A keep-alive client connection to one shard.
///
/// Unlike [`request`], which opens a fresh TCP connection per call,
/// `ShardConn` holds the `TcpStream` across requests and frames each
/// response by its `content-length` header, so a dispatcher forwarding
/// thousands of jobs to the same shard pays one TCP handshake, not one
/// per job. The connection is (re-)established lazily: on first use,
/// after any transport error, and after a server-initiated
/// `connection: close`. [`connects`](Self::connects) counts dials, which
/// is what the reuse regression test pins.
#[derive(Debug)]
pub struct ShardConn {
    addr: String,
    auth_token: Option<String>,
    stream: Option<BufReader<TcpStream>>,
    connects: u64,
    read_timeout: Duration,
    fault_plan: Option<Arc<FaultPlan>>,
}

impl ShardConn {
    /// Creates a (not yet connected) handle to the shard at `addr`.
    #[must_use]
    pub fn new(addr: &str) -> Self {
        Self {
            addr: addr.to_string(),
            auth_token: None,
            stream: None,
            connects: 0,
            read_timeout: RESPONSE_TIMEOUT,
            fault_plan: None,
        }
    }

    /// Sets the bearer token sent as `authorization: Bearer <token>` on
    /// every request (the shard gates `POST /v1/templates` behind it).
    pub fn set_token(&mut self, token: &str) {
        self.auth_token = Some(token.to_string());
    }

    /// Overrides the per-request read timeout (default 300 s). Takes
    /// effect on the next dial, so call it before the first request.
    /// The dispatcher's sentinel uses a short timeout here so one
    /// stalled shard cannot wedge a whole probe cycle.
    pub fn set_read_timeout(&mut self, timeout: Duration) {
        self.read_timeout = timeout;
        // Drop any cached connection still carrying the old timeout.
        self.stream = None;
    }

    /// Arms chaos-test fault injection on this connection: the plan's
    /// [`FaultSite::Dial`] and [`FaultSite::Response`] schedules are
    /// consulted on every dial and response read. Never set in
    /// production paths — with no plan the hooks are skipped branches.
    pub fn set_fault_plan(&mut self, plan: Arc<FaultPlan>) {
        self.fault_plan = Some(plan);
    }

    /// The shard address this connection dials.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// How many times this handle has dialed the shard. Two sequential
    /// requests on a healthy connection leave this at 1.
    #[must_use]
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// Performs one HTTP request over the held connection, dialing first
    /// if necessary, and reads the `content-length`-framed response.
    ///
    /// Any transport error drops the cached connection so the next call
    /// redials; the error itself is surfaced to the caller (the
    /// dispatcher's retry policy decides whether to try again — this
    /// layer never re-sends a request by itself, which keeps
    /// non-idempotent submissions single-shot).
    ///
    /// # Errors
    ///
    /// [`FqError::Io`] for connect/read/write failures, truncated or
    /// oversized responses; [`FqError::Serde`] for an unparsable status
    /// line or header.
    pub fn request(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> Result<HttpResponse, FqError> {
        match self.request_inner(method, target, body) {
            Ok(response) => Ok(response),
            Err(error) => {
                self.stream = None;
                Err(error)
            }
        }
    }

    fn request_inner(
        &mut self,
        method: &str,
        target: &str,
        body: Option<&str>,
    ) -> Result<HttpResponse, FqError> {
        if self.stream.is_none() {
            if let Some(plan) = &self.fault_plan {
                match plan.roll(FaultSite::Dial) {
                    Some(FaultKind::Refuse) => {
                        return Err(FqError::Io(format!(
                            "injected fault: connection to {} refused",
                            self.addr
                        )));
                    }
                    Some(FaultKind::Stall(ms)) => {
                        std::thread::sleep(Duration::from_millis(ms));
                    }
                    _ => {}
                }
            }
            let stream = TcpStream::connect(&self.addr)?;
            stream.set_read_timeout(Some(self.read_timeout))?;
            stream.set_nodelay(true)?;
            self.stream = Some(BufReader::new(stream));
            self.connects += 1;
        }

        let out = request_bytes(
            &self.addr,
            "keep-alive",
            self.auth_token.as_deref(),
            method,
            target,
            body,
        );
        let reader = self.stream.as_mut().expect("connection established above");
        reader.get_mut().write_all(out.as_bytes())?;

        let (response, close) = read_framed_response(reader)?;
        if let Some(plan) = &self.fault_plan {
            match plan.roll(FaultSite::Response) {
                // The request reached the shard and *executed* — only
                // the response is lost. This is the nastiest transport
                // fault for a forwarder: retrying may run the job twice
                // (safe here because execution is deterministic), and
                // the caller cannot tell it from a pre-execution cut.
                Some(FaultKind::Truncate) => {
                    return Err(FqError::Io(
                        "injected fault: response truncated mid-body".to_string(),
                    ));
                }
                Some(FaultKind::Stall(ms)) => {
                    std::thread::sleep(Duration::from_millis(ms));
                }
                _ => {}
            }
        }
        if close {
            self.stream = None;
        }
        Ok(response)
    }
}

/// One request's bytes, head and body, in one buffer: the `connection`
/// header's value (`close` for a one-shot [`request`], `keep-alive` for a
/// [`ShardConn`]), the bearer `token` when there is one, and a body
/// framed by its length in bytes.
fn request_bytes(
    host: &str,
    connection: &str,
    token: Option<&str>,
    method: &str,
    target: &str,
    body: Option<&str>,
) -> String {
    let body_len = body.map_or(0, str::len);
    let mut out = String::with_capacity(
        160 + host.len() + target.len() + token.map_or(0, str::len) + body_len,
    );
    // Writing to a `String` cannot fail.
    let _ = write!(
        out,
        "{method} {target} HTTP/1.1\r\nhost: {host}\r\nconnection: {connection}\r\n"
    );
    if let Some(token) = token {
        let _ = write!(out, "authorization: Bearer {token}\r\n");
    }
    if let Some(body) = body {
        let _ = write!(
            out,
            "content-type: application/json\r\ncontent-length: {body_len}\r\n\r\n{body}"
        );
    } else {
        out.push_str("\r\n");
    }
    out
}

/// Reads one `content-length`-framed response. Returns the response
/// and whether the server asked to close.
///
/// The head goes through the same bounded line reader and header loop
/// as a request's ([`http::read_line`], [`http::read_headers`]), so a
/// broken or hostile peer cannot grow the reader's memory ahead of the
/// body cap.
fn read_framed_response(reader: &mut impl BufRead) -> Result<(HttpResponse, bool), FqError> {
    let truncated =
        |at: &str| FqError::Io(format!("truncated HTTP response: connection closed {at}"));
    let bad = |msg: &str| FqError::Serde(format!("malformed HTTP response: {msg}"));
    let head_error = |error: ReadError| match error {
        ReadError::Closed => truncated("before the status line"),
        ReadError::BadRequest(msg) => bad(&msg),
        other => FqError::Io(format!("truncated HTTP response: {}", other.message())),
    };

    let status_line = http::read_line(reader, true).map_err(head_error)?;
    let status = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad(&format!("unparsable status line `{status_line}`")))?;
    let headers = http::read_headers(reader).map_err(head_error)?;

    let length = match headers.iter().find(|(n, _)| n == "content-length") {
        Some((_, v)) => v
            .parse::<usize>()
            .map_err(|_| bad(&format!("unparsable content-length `{v}`")))?,
        None => 0,
    };
    if length > MAX_RESPONSE_BYTES {
        return Err(FqError::Io(format!(
            "oversized HTTP response: content-length {length} exceeds the {MAX_RESPONSE_BYTES}-byte cap"
        )));
    }

    let mut body = vec![0u8; length];
    reader
        .read_exact(&mut body)
        .map_err(|_| truncated("mid-body"))?;
    let body =
        String::from_utf8(body).map_err(|_| FqError::Io("non-UTF-8 response body".to_string()))?;

    let close = headers
        .iter()
        .any(|(n, v)| n == "connection" && v.eq_ignore_ascii_case("close"));
    Ok((
        HttpResponse {
            status,
            headers,
            body,
        },
        close,
    ))
}

/// Submits `spec` synchronously; the `200` body is the byte-canonical
/// `JobResult` document, parsed and returned.
///
/// # Errors
///
/// [`FqError::Io`] carrying the status and error envelope for any
/// non-`200` response (including job failures), plus transport errors.
pub fn submit_sync(addr: &str, spec: &JobSpec) -> Result<JobResult, FqError> {
    let response = request(addr, "POST", "/v1/jobs", Some(&spec.to_json()))?;
    if response.status != 200 {
        return Err(service_error(&response));
    }
    JobResult::from_json(&response.body)
}

/// Submits `spec` asynchronously; returns the id to poll.
///
/// # Errors
///
/// [`FqError::Io`] for any non-`202` response, plus transport errors.
pub fn submit_async(addr: &str, spec: &JobSpec) -> Result<JobId, FqError> {
    let response = request(addr, "POST", "/v1/jobs?mode=async", Some(&spec.to_json()))?;
    if response.status != 202 {
        return Err(service_error(&response));
    }
    response.json()?.field("id")?.as_str()?.parse()
}

/// Polls `GET /v1/jobs/{id}`: returns the status string (`queued`,
/// `running`, `done`, `failed`) and, for `done`, the decoded result.
///
/// # Errors
///
/// [`FqError::Io`] for non-`200` responses (e.g. an unknown id), plus
/// transport and decode errors.
pub fn poll(addr: &str, id: JobId) -> Result<(String, Option<JobResult>), FqError> {
    let response = request(addr, "GET", &format!("/v1/jobs/{id}"), None)?;
    if response.status != 200 {
        return Err(service_error(&response));
    }
    let status = response.json()?.field("status")?.as_str()?.to_string();
    let result = (status == "done")
        .then(|| crate::wire::result_from_envelope(&response.body))
        .transpose()?;
    Ok((status, result))
}

/// Fetches a peer shard's resident-template index: `(fingerprint,
/// last_used)` rows, hottest first (the peer's ordering).
///
/// # Errors
///
/// [`FqError::Io`] for non-`200` responses, plus transport and decode
/// errors.
pub fn template_index(addr: &str) -> Result<Vec<(String, u64)>, FqError> {
    index_at(addr, "/v1/templates")
}

/// The index rows behind `target` (`/v1/templates`, with or without a
/// `?limit=`).
fn index_at(addr: &str, target: &str) -> Result<Vec<(String, u64)>, FqError> {
    let response = request(addr, "GET", target, None)?;
    if response.status != 200 {
        return Err(service_error(&response));
    }
    crate::wire::parse_template_index(&response.body)
}

/// Fetches one template artifact from a peer shard by fingerprint.
///
/// # Errors
///
/// [`FqError::Io`] for non-`200` responses (e.g. the peer evicted it),
/// plus transport and artifact-decode errors.
pub fn fetch_template(addr: &str, fingerprint: &str) -> Result<TemplateArtifact, FqError> {
    let response = request(addr, "GET", &format!("/v1/templates/{fingerprint}"), None)?;
    if response.status != 200 {
        return Err(service_error(&response));
    }
    TemplateArtifact::from_json(&response.body)
}

/// Pushes one template artifact into a peer shard's store (`POST
/// /v1/templates`).
///
/// # Errors
///
/// [`FqError::Io`] for non-`200` responses, plus transport errors.
pub fn push_template(addr: &str, artifact: &TemplateArtifact) -> Result<(), FqError> {
    push_template_with_token(addr, artifact, None)
}

/// [`push_template`] with an optional bearer token for shards running
/// with `--auth-token` (which gates `POST /v1/templates` behind it).
///
/// # Errors
///
/// [`FqError::Io`] for non-`200` responses (including `401` when the
/// token is missing or wrong), plus transport errors.
pub fn push_template_with_token(
    addr: &str,
    artifact: &TemplateArtifact,
    token: Option<&str>,
) -> Result<(), FqError> {
    let mut conn = ShardConn::new(addr);
    if let Some(token) = token {
        conn.set_token(token);
    }
    let response = conn.request("POST", "/v1/templates", Some(&artifact.to_json()))?;
    if response.status != 200 {
        return Err(service_error(&response));
    }
    Ok(())
}

/// Warms `cache` from a peer shard: asks the peer for its `limit`
/// hottest templates (`GET /v1/templates?limit=<limit>`, so the index
/// it downloads is bounded by `limit`, not by the peer's store) and
/// fetches each artifact into the cache, so a freshly started shard
/// serves its first jobs without paying compiles the fleet already
/// paid. Returns how many templates were installed.
///
/// Individual artifacts that vanish or fail integrity checks mid-pull
/// are skipped (the peer keeps serving; its cache keeps evolving) —
/// only an unreachable peer or an unreadable index is an error.
///
/// # Errors
///
/// [`FqError::Io`] when the peer's index cannot be fetched.
pub fn warm_from(addr: &str, cache: &TemplateCache, limit: usize) -> Result<usize, FqError> {
    let mut installed = 0usize;
    for (fingerprint, _) in index_at(addr, &format!("/v1/templates?limit={limit}"))? {
        if let Ok(artifact) = fetch_template(addr, &fingerprint) {
            cache.insert_artifact(&artifact);
            installed += 1;
        }
    }
    Ok(installed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_responses() {
        let raw = "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\nRetry-After: 1\r\ncontent-length: 2\r\n\r\n{}";
        let (response, close) = read_framed_response(&mut raw.as_bytes()).unwrap();
        assert_eq!(response.status, 503);
        assert_eq!(response.header("retry-after"), Some("1"));
        assert_eq!(response.body, "{}");
        assert!(!close);
        assert!(read_framed_response(&mut "garbage\r\n\r\n".as_bytes()).is_err());
    }

    /// One-shot requests frame by `content-length` under the same cap
    /// as keep-alive ones: a peer announcing a huge body is refused
    /// before anything is buffered.
    #[test]
    fn one_shot_requests_refuse_oversized_responses() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap() > 0 && line != "\r\n" {
                line.clear();
            }
            stream
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 99999999999\r\n\r\n")
                .unwrap();
        });
        match request(&addr, "GET", "/v1/templates", None).unwrap_err() {
            FqError::Io(message) => assert!(message.contains("oversized"), "got `{message}`"),
            other => panic!("expected Io, got {other:?}"),
        }
        peer.join().unwrap();
    }
}
