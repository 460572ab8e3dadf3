//! Edge answers of the cluster front door: every malformed, hostile or
//! unlucky request to the dispatcher gets the same structured JSON error
//! a shard would give — never a panic, never a hang.
//!
//! The shard's copies of these paths are pinned in
//! `crates/serve/tests/http_edges.rs`; these tests pin the dispatcher's.
//! They assert status, error `kind` and headers, never message wording.
//! Most cases need no live shard (nothing is forwarded), so the roster
//! is a dead loopback address; the expiry case runs a real shard.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Duration;

use fq_dispatch::{DispatchConfig, DispatchHandle, Dispatcher};
use fq_serve::client::{self, HttpResponse};
use fq_serve::{Server, ServerConfig};
use frozenqubits::api::{DeviceSpec, JobBuilder};
use serde::json::Value;

/// An address nothing listens on (bind, read the port, drop).
fn dead_shard() -> String {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    listener.local_addr().unwrap().to_string()
}

fn front(tweak: impl FnOnce(&mut DispatchConfig)) -> (DispatchHandle, String) {
    let mut config = DispatchConfig {
        shards: vec![dead_shard()],
        ..DispatchConfig::default()
    };
    tweak(&mut config);
    let handle = Dispatcher::spawn(config).unwrap();
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn small_spec() -> String {
    JobBuilder::new()
        .barabasi_albert(8, 1, 1)
        .device(DeviceSpec::IbmMontreal)
        .baseline()
        .build()
        .unwrap()
        .to_json()
}

/// The `error.kind` of a structured error body.
fn kind_of(body: &str) -> String {
    Value::parse(body)
        .unwrap_or_else(|e| panic!("error bodies are JSON ({e:?}): {body:?}"))
        .field("error")
        .unwrap()
        .field("kind")
        .unwrap()
        .as_str()
        .unwrap()
        .to_string()
}

fn assert_error(response: &HttpResponse, status: u16, kind: &str) {
    assert_eq!(response.status, status, "{}", response.body);
    assert_eq!(kind_of(&response.body), kind, "{}", response.body);
}

/// Writes raw bytes and reads the whole answer (the dispatcher closes
/// after a framing error). Returns `(status, body)`.
fn raw_roundtrip(addr: &str, request: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request).unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    split_raw(&response)
}

fn split_raw(response: &str) -> (u16, String) {
    let status = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable response: {response:?}"));
    let body = response.split("\r\n\r\n").nth(1).expect("a body");
    (status, body.to_string())
}

#[test]
fn routing_errors_are_structured() {
    let (handle, addr) = front(|_| {});

    // Unknown routes, and the shard-only template surface.
    for target in ["/", "/v2/jobs", "/v1/jobs/extra/deep", "/v1/templates"] {
        let response = client::request(&addr, "GET", target, None).unwrap();
        assert_error(&response, 404, "not_found");
    }

    // Known routes, wrong methods: 405 with the allowed set.
    for (method, target, allow) in [
        ("DELETE", "/v1/jobs", "POST"),
        ("POST", "/v1/healthz", "GET"),
        ("POST", "/v1/stats", "GET"),
        ("GET", "/v1/batch", "POST"),
        ("DELETE", "/v1/shards", "GET, POST"),
        ("POST", "/v1/jobs/job-000000000000002a", "GET"),
    ] {
        let response = client::request(&addr, method, target, None).unwrap();
        assert_error(&response, 405, "method_not_allowed");
        assert_eq!(response.header("allow"), Some(allow), "{method} {target}");
    }

    // Job polling: malformed ids 400, never-issued ids 404.
    let response = client::request(&addr, "GET", "/v1/jobs/job-42", None).unwrap();
    assert_error(&response, 400, "bad_request");
    let response = client::request(&addr, "GET", "/v1/jobs/job-00000000000000ff", None).unwrap();
    assert_error(&response, 404, "not_found");

    // Unknown submission modes.
    let response =
        client::request(&addr, "POST", "/v1/jobs?mode=later", Some(&small_spec())).unwrap();
    assert_error(&response, 400, "bad_request");

    handle.shutdown();
}

#[test]
fn framing_abuse_gets_structured_errors_not_hangs() {
    let (handle, addr) = front(|config| {
        config.max_body_bytes = 1024;
        config.read_timeout = Duration::from_secs(5);
    });

    // Oversized body, announced: rejected before reading it.
    let (status, body) = raw_roundtrip(
        &addr,
        b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 4096\r\n\r\n",
    );
    assert_eq!(
        (status, kind_of(&body).as_str()),
        (413, "payload_too_large")
    );

    // Chunked transfer encoding is deliberately not implemented.
    let (status, body) = raw_roundtrip(
        &addr,
        b"POST /v1/jobs HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
    );
    assert_eq!((status, kind_of(&body).as_str()), (501, "not_implemented"));

    // An HTTP version this server does not speak.
    let (status, body) = raw_roundtrip(&addr, b"GET /v1/healthz HTTP/2.0\r\n\r\n");
    assert_eq!((status, kind_of(&body).as_str()), (505, "http_version"));

    // A request line that is not method/target/version shaped at all.
    let (status, body) = raw_roundtrip(&addr, b"garbage\r\n\r\n");
    assert_eq!((status, kind_of(&body).as_str()), (400, "bad_request"));

    handle.shutdown();
}

#[test]
fn slow_drip_requests_hit_the_request_deadline() {
    let (handle, addr) = front(|config| {
        config.request_deadline = Duration::from_millis(200);
    });
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // Drip part of a request line, wait past the deadline, drip again:
    // the next read after the second write fails the deadline check.
    stream.write_all(b"GET /v1").unwrap();
    std::thread::sleep(Duration::from_millis(400));
    stream.write_all(b"/he").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (status, body) = split_raw(&response);
    assert_eq!((status, kind_of(&body).as_str()), (400, "bad_request"));
    handle.shutdown();
}

#[test]
fn connection_cap_sheds_load_with_503() {
    let (handle, addr) = front(|config| config.max_connections = 1);
    // Occupy the single slot with a keep-alive connection that has
    // completed a request, so its thread is certainly counted.
    let mut holder = TcpStream::connect(&addr).unwrap();
    holder
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    holder
        .write_all(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
        .unwrap();
    let mut first = [0u8; 64];
    let n = holder.read(&mut first).unwrap();
    assert!(String::from_utf8_lossy(&first[..n]).starts_with("HTTP/1.1 200"));

    // The next connection is over the cap: an immediate 503.
    let response = client::request(&addr, "GET", "/v1/healthz", None).unwrap();
    assert_error(&response, 503, "overloaded");

    // Closing the holder frees the slot.
    holder.shutdown(Shutdown::Both).unwrap();
    drop(holder);
    let freed = (0..50).any(|_| {
        std::thread::sleep(Duration::from_millis(20));
        client::request(&addr, "GET", "/v1/healthz", None).is_ok_and(|r| r.status == 200)
    });
    assert!(freed, "slot must free after the holder disconnects");
    handle.shutdown();
}

#[test]
fn queue_backpressure_returns_503_with_retry_after() {
    // No forwarders: nothing drains, so the queue fills deterministically.
    let (handle, addr) = front(|config| {
        config.forwarders = 0;
        config.queue_capacity = 1;
    });
    let spec = small_spec();
    let accepted = client::request(&addr, "POST", "/v1/jobs?mode=async", Some(&spec)).unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    assert!(accepted.header("location").is_some());

    let refused = client::request(&addr, "POST", "/v1/jobs?mode=async", Some(&spec)).unwrap();
    assert_error(&refused, 503, "queue_full");
    assert_eq!(refused.header("retry-after"), Some("1"));

    let stats = client::request(&addr, "GET", "/v1/stats", None)
        .unwrap()
        .json()
        .unwrap();
    let queue = stats.field("queue").unwrap();
    assert_eq!(queue.field("depth").unwrap().as_u64().unwrap(), 1);
    assert_eq!(queue.field("capacity").unwrap().as_u64().unwrap(), 1);
    handle.shutdown();
}

#[test]
fn expired_jobs_answer_410_and_unknown_ids_stay_404() {
    let shard = Server::spawn(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let (handle, addr) = front(|config| {
        config.shards = vec![shard.addr().to_string()];
        config.job_ttl = Duration::from_millis(50);
    });
    // A sync submission proves the outcome existed at completion time
    // without racing a poll loop against the 50 ms TTL.
    let response = client::request(&addr, "POST", "/v1/jobs", Some(&small_spec())).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let id = response.header("fq-job-id").unwrap().to_string();
    std::thread::sleep(Duration::from_millis(80));

    for _ in 0..2 {
        let gone = client::request(&addr, "GET", &format!("/v1/jobs/{id}"), None).unwrap();
        assert_error(&gone, 410, "expired");
    }
    let unknown = client::request(&addr, "GET", "/v1/jobs/job-00000000000000ff", None).unwrap();
    assert_error(&unknown, 404, "not_found");

    let stats = client::request(&addr, "GET", "/v1/stats", None)
        .unwrap()
        .json()
        .unwrap();
    let jobs = stats.field("jobs").unwrap();
    assert_eq!(jobs.field("expired").unwrap().as_u64().unwrap(), 1);
    handle.shutdown();
    shard.shutdown();
}

#[test]
fn admin_join_requires_the_bearer_token() {
    let (handle, addr) = front(|config| config.auth_token = Some("sesame".into()));
    let join = r#"{"addr":"127.0.0.1:9"}"#;

    // No token → 401, and the roster is unchanged.
    let refused = client::request(&addr, "POST", "/v1/shards", Some(join)).unwrap();
    assert_error(&refused, 401, "unauthorized");
    let roster = client::request(&addr, "GET", "/v1/shards", None)
        .unwrap()
        .json()
        .unwrap();
    assert_eq!(roster.field("shards").unwrap().as_array().unwrap().len(), 1);

    // Reads stay open; only the admin join is gated.
    let health = client::request(&addr, "GET", "/v1/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    handle.shutdown();
}
