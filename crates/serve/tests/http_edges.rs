//! HTTP edge-case coverage: every malformed, hostile or unlucky request
//! gets a structured JSON error — never a panic, never a hang.
//!
//! The cases the service must survive:
//! oversized and truncated bodies, unknown routes and methods, malformed
//! JSON, version-mismatched specs, queue-full backpressure, chunked
//! transfer encoding, unsupported HTTP versions, and garbage request
//! lines — plus the positive framing paths (keep-alive reuse, sync
//! degradation to async under a zero-worker drain).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::Duration;

use fq_serve::{client, Server, ServerConfig, ServerHandle};
use frozenqubits::api::{DeviceSpec, JobBuilder, JobSpec};
use frozenqubits::{QosTier, MAX_SHOTS};
use serde::json::Value;

fn spawn(config: ServerConfig) -> (ServerHandle, String) {
    let handle = Server::spawn(config).unwrap();
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn small_spec() -> JobSpec {
    JobBuilder::new()
        .barabasi_albert(8, 1, 1)
        .device(DeviceSpec::IbmMontreal)
        .baseline()
        .build()
        .unwrap()
}

/// Writes raw bytes, optionally half-closes the write side, and reads
/// the full response (the server closes after an error).
fn raw_roundtrip(addr: &str, request: &[u8], half_close: bool) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.write_all(request).unwrap();
    if half_close {
        stream.shutdown(Shutdown::Write).unwrap();
    }
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
}

fn status_of(response: &str) -> u16 {
    response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("unparsable response: {response:?}"))
}

fn error_kind(response: &str) -> String {
    let body = response.split("\r\n\r\n").nth(1).expect("a body");
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

#[test]
fn routing_errors_are_structured() {
    let (handle, addr) = spawn(ServerConfig::default());

    // Unknown routes, and empty or nested ids under a known prefix.
    for target in [
        "/",
        "/v2/jobs",
        "/v1/jobs/extra/deep",
        "/v1/jobs/",
        "/v1/templates/",
        "/v1/templates/a/b",
    ] {
        let response = client::request(&addr, "GET", target, None).unwrap();
        assert_eq!(response.status, 404, "{target}");
        assert_eq!(
            response
                .json()
                .unwrap()
                .field("error")
                .unwrap()
                .field("kind")
                .unwrap()
                .as_str()
                .unwrap(),
            "not_found"
        );
    }

    // Known routes, wrong methods — with an Allow header.
    for (method, target, allow) in [
        ("DELETE", "/v1/jobs", "POST"),
        ("POST", "/v1/healthz", "GET"),
        ("POST", "/v1/stats", "GET"),
        ("DELETE", "/v1/templates", "GET, POST"),
        ("POST", "/v1/templates/00c0ffee00c0ffee", "GET"),
        ("POST", "/v1/jobs/job-000000000000002a", "GET"),
    ] {
        let response = client::request(&addr, method, target, None).unwrap();
        assert_eq!(response.status, 405, "{method} {target}");
        assert_eq!(response.header("allow"), Some(allow), "{method} {target}");
    }

    // Job polling: malformed ids 400 with the id parser's own message,
    // unknown ids 404.
    let response = client::request(&addr, "GET", "/v1/jobs/job-42", None).unwrap();
    assert_eq!(response.status, 400);
    assert!(
        response.body.contains("job-42") && response.body.contains("16 hex"),
        "{}",
        response.body
    );
    let response = client::request(&addr, "GET", "/v1/jobs/job-00000000000000ff", None).unwrap();
    assert_eq!(response.status, 404);

    // Unknown submission modes.
    let response = client::request(
        &addr,
        "POST",
        "/v1/jobs?mode=telepathy",
        Some(&small_spec().to_json()),
    )
    .unwrap();
    assert_eq!(response.status, 400);

    handle.shutdown();
}

#[test]
fn malformed_and_mismatched_bodies_are_rejected() {
    let (handle, addr) = spawn(ServerConfig::default());

    // Malformed JSON.
    let response = client::request(&addr, "POST", "/v1/jobs", Some("{not json")).unwrap();
    assert_eq!(response.status, 400);
    assert_eq!(
        response
            .json()
            .unwrap()
            .field("error")
            .unwrap()
            .field("kind")
            .unwrap()
            .as_str()
            .unwrap(),
        "serde"
    );

    // A well-formed spec from a future wire version.
    let mismatched = small_spec().to_json().replace("\"v\":1", "\"v\":2");
    let response = client::request(&addr, "POST", "/v1/jobs", Some(&mismatched)).unwrap();
    assert_eq!(response.status, 400);
    assert!(
        response.body.contains("unsupported wire version"),
        "{}",
        response.body
    );

    // Valid JSON that is not a JobSpec document.
    let response = client::request(&addr, "POST", "/v1/jobs", Some("[1,2,3]")).unwrap();
    assert_eq!(response.status, 400);

    handle.shutdown();
}

#[test]
fn unknown_qos_tiers_get_a_structured_422() {
    let (handle, addr) = spawn(ServerConfig::default());

    // A valid tiered (v2) spec is accepted end to end.
    let tiered = JobBuilder::new()
        .barabasi_albert(8, 1, 1)
        .device(DeviceSpec::IbmMontreal)
        .baseline()
        .tier(QosTier::Balanced)
        .build()
        .unwrap();
    let response = client::request(&addr, "POST", "/v1/jobs", Some(&tiered.to_json())).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);

    // The same bytes naming a tier this build doesn't know: a
    // structured 422 with the stable `unknown_tier` kind, not a 500.
    let unknown = tiered
        .to_json()
        .replace("\"tier\":\"balanced\"", "\"tier\":\"turbo\"");
    let response = client::request(&addr, "POST", "/v1/jobs", Some(&unknown)).unwrap();
    assert_eq!(response.status, 422, "{}", response.body);
    assert_eq!(
        response
            .json()
            .unwrap()
            .field("error")
            .unwrap()
            .field("kind")
            .unwrap()
            .as_str()
            .unwrap(),
        "unknown_tier"
    );
    assert!(response.body.contains("turbo"), "{}", response.body);

    // A non-string tier is a wire-syntax problem, not a validation one.
    let nonstring = tiered
        .to_json()
        .replace("\"tier\":\"balanced\"", "\"tier\":7");
    let response = client::request(&addr, "POST", "/v1/jobs", Some(&nonstring)).unwrap();
    assert_eq!(response.status, 400, "{}", response.body);

    // The accepted balanced job shows up in the per-tier counters.
    let stats = client::request(&addr, "GET", "/v1/stats", None)
        .unwrap()
        .json()
        .unwrap();
    let tiers = stats.field("jobs").unwrap().field("tiers").unwrap();
    assert_eq!(tiers.field("balanced").unwrap().as_u64().unwrap(), 1);
    assert_eq!(tiers.field("exact").unwrap().as_u64().unwrap(), 0);
    assert_eq!(tiers.field("fast").unwrap().as_u64().unwrap(), 0);

    handle.shutdown();
}

#[test]
fn specs_the_builder_refuses_get_a_structured_422() {
    let (handle, addr) = spawn(ServerConfig::default());

    // A fast-tier sampling job: the builder refuses it (sampling has no
    // approximate variant), so the wire must too — running it would
    // wrap a sampling result in an error model that never applied.
    let fast = JobBuilder::new()
        .barabasi_albert(8, 1, 1)
        .device(DeviceSpec::IbmMontreal)
        .frozen()
        .tier(QosTier::Fast)
        .build()
        .unwrap()
        .to_json();
    let fast_sample = fast.replace(
        "\"kind\":{\"type\":\"frozen\"}",
        "\"kind\":{\"type\":\"sample\",\"shots\":64}",
    );
    // A zero-point parameter grid, which no scan can honour.
    let exact = small_spec().to_json();
    let zero_grid = exact.replace("\"param_grid\":15", "\"param_grid\":0");
    // Freezing 64 qubits: 2^64 branch masks cannot be enumerated (an
    // unchecked mask shift overflows), so the cap refuses it.
    let wide = JobBuilder::new()
        .barabasi_albert(100, 1, 7)
        .device(DeviceSpec::IbmWashington)
        .frozen()
        .build()
        .unwrap()
        .to_json();
    let wide_freeze = wide.replace("\"num_frozen\":1,", "\"num_frozen\":64,");
    // One shot over the cap: every shot is drawn and recorded, so the
    // spec would otherwise set a worker's work and memory.
    let sample = JobBuilder::new()
        .barabasi_albert(8, 1, 1)
        .device(DeviceSpec::IbmMontreal)
        .sample(64)
        .build()
        .unwrap()
        .to_json();
    let many_shots = sample.replace("\"shots\":64", &format!("\"shots\":{}", MAX_SHOTS + 1));
    assert_ne!(fast_sample, fast, "the kind mutation must apply");
    assert_ne!(zero_grid, exact, "the grid mutation must apply");
    assert_ne!(wide_freeze, wide, "the freeze mutation must apply");
    assert_ne!(many_shots, sample, "the shots mutation must apply");
    for body in [&fast_sample, &zero_grid, &wide_freeze, &many_shots] {
        let response = client::request(&addr, "POST", "/v1/jobs", Some(body)).unwrap();
        assert_eq!(response.status, 422, "{body}: {}", response.body);
        let error = response.json().unwrap().field("error").unwrap().clone();
        assert_eq!(
            error.field("kind").unwrap().as_str().unwrap(),
            "invalid_config"
        );
    }

    handle.shutdown();
}

#[test]
fn framing_abuse_gets_structured_errors_not_hangs() {
    let (handle, addr) = spawn(ServerConfig {
        max_body_bytes: 1024,
        read_timeout: Duration::from_secs(5),
        ..ServerConfig::default()
    });

    // Oversized body, announced: rejected before reading it.
    let response = raw_roundtrip(
        &addr,
        b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 4096\r\n\r\n",
        false,
    );
    assert_eq!(status_of(&response), 413);
    assert_eq!(error_kind(&response), "payload_too_large");

    // Truncated body: client promises 100 bytes, sends 9, hangs up.
    let response = raw_roundtrip(
        &addr,
        b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 100\r\n\r\n{\"v\":1,..",
        true,
    );
    assert_eq!(status_of(&response), 400);
    assert_eq!(error_kind(&response), "bad_request");

    // Truncated header section.
    let response = raw_roundtrip(&addr, b"GET /v1/healthz HTTP/1.1\r\nhost: x", true);
    assert_eq!(status_of(&response), 400);

    // Garbage request lines: not method/target/version shaped at all,
    // or shaped like one but with a version this server does not speak.
    let response = raw_roundtrip(&addr, b"garbage\r\n\r\n", false);
    assert_eq!(status_of(&response), 400);
    let response = raw_roundtrip(&addr, b"how about no\r\n\r\n", false);
    assert_eq!(status_of(&response), 505);

    // Unsupported HTTP version.
    let response = raw_roundtrip(&addr, b"GET /v1/healthz HTTP/2.0\r\n\r\n", false);
    assert_eq!(status_of(&response), 505);

    // Chunked transfer encoding is deliberately not implemented —
    // including when smuggled behind a benign first occurrence.
    let response = raw_roundtrip(
        &addr,
        b"POST /v1/jobs HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n",
        false,
    );
    assert_eq!(status_of(&response), 501);
    assert_eq!(error_kind(&response), "not_implemented");
    let response = raw_roundtrip(
        &addr,
        b"POST /v1/jobs HTTP/1.1\r\ntransfer-encoding: identity\r\ntransfer-encoding: chunked\r\n\r\n",
        false,
    );
    assert_eq!(status_of(&response), 501);

    // Duplicate content-length headers are the classic smuggling vector:
    // rejected outright, not first-one-wins.
    let response = raw_roundtrip(
        &addr,
        b"POST /v1/jobs HTTP/1.1\r\ncontent-length: 4\r\ncontent-length: 40\r\n\r\nbody",
        false,
    );
    assert_eq!(status_of(&response), 400);

    // Bad content-length values.
    let response = raw_roundtrip(
        &addr,
        b"POST /v1/jobs HTTP/1.1\r\ncontent-length: over9000\r\n\r\n",
        false,
    );
    assert_eq!(status_of(&response), 400);

    handle.shutdown();
}

#[test]
fn slow_drip_requests_hit_the_request_deadline() {
    let (handle, addr) = spawn(ServerConfig {
        request_deadline: Duration::from_millis(200),
        ..ServerConfig::default()
    });
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    // A slowloris-style sender: drip a partial request line, wait past
    // the deadline, drip again. The next read attempt after the second
    // byte arrives fails the deadline check → 400, connection closed.
    stream.write_all(b"GET /v1").unwrap();
    std::thread::sleep(Duration::from_millis(400));
    stream.write_all(b"/he").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert_eq!(status_of(&response), 400);
    assert!(
        response.contains("timed out"),
        "deadline errors say so: {response}"
    );
    handle.shutdown();
}

#[test]
fn connection_cap_sheds_load_with_503() {
    let (handle, addr) = spawn(ServerConfig {
        max_connections: 1,
        ..ServerConfig::default()
    });
    // Occupy the single slot with a keep-alive connection that has
    // completed a request (so its thread is definitely counted).
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

    // The next connection is over the cap: immediate 503, no thread.
    let response = client::request(&addr, "GET", "/v1/healthz", None).unwrap();
    assert_eq!(response.status, 503);
    assert_eq!(
        response
            .json()
            .unwrap()
            .field("error")
            .unwrap()
            .field("kind")
            .unwrap()
            .as_str()
            .unwrap(),
        "overloaded"
    );

    // Releasing the holder frees the slot (drop closes the socket; give
    // the server a beat to notice EOF and retire the thread).
    drop(holder);
    let ok = (0..50).any(|_| {
        std::thread::sleep(Duration::from_millis(20));
        client::request(&addr, "GET", "/v1/healthz", None)
            .map(|r| r.status == 200)
            .unwrap_or(false)
    });
    assert!(ok, "slot must free after the holder disconnects");
    handle.shutdown();
}

#[test]
fn queue_backpressure_returns_503_with_retry_after() {
    // Zero workers: nothing drains, so the queue fills deterministically.
    let (handle, addr) = spawn(ServerConfig {
        workers: 0,
        queue_capacity: 2,
        ..ServerConfig::default()
    });
    let spec = small_spec().to_json();

    for _ in 0..2 {
        let response = client::request(&addr, "POST", "/v1/jobs?mode=async", Some(&spec)).unwrap();
        assert_eq!(response.status, 202, "{}", response.body);
    }
    let response = client::request(&addr, "POST", "/v1/jobs?mode=async", Some(&spec)).unwrap();
    assert_eq!(response.status, 503);
    assert_eq!(response.header("retry-after"), Some("1"));
    assert_eq!(
        response
            .json()
            .unwrap()
            .field("error")
            .unwrap()
            .field("kind")
            .unwrap()
            .as_str()
            .unwrap(),
        "queue_full"
    );

    // The stats endpoint reflects the backpressure state.
    let stats = client::request(&addr, "GET", "/v1/stats", None).unwrap();
    let stats = stats.json().unwrap();
    let queue = stats.field("queue").unwrap();
    assert_eq!(queue.field("depth").unwrap().as_u64().unwrap(), 2);
    assert_eq!(queue.field("capacity").unwrap().as_u64().unwrap(), 2);

    handle.shutdown();
}

#[test]
fn sync_submissions_degrade_to_async_when_workers_lag() {
    // Zero workers and a tiny sync budget: the submission cannot finish,
    // so the service answers 202 with the poll location instead of
    // hanging the client.
    let (handle, addr) = spawn(ServerConfig {
        workers: 0,
        sync_wait: Duration::from_millis(50),
        ..ServerConfig::default()
    });
    let response =
        client::request(&addr, "POST", "/v1/jobs", Some(&small_spec().to_json())).unwrap();
    assert_eq!(response.status, 202, "{}", response.body);
    let envelope = response.json().unwrap();
    assert_eq!(
        envelope.field("status").unwrap().as_str().unwrap(),
        "queued"
    );
    let location = response.header("location").unwrap().to_string();
    let polled = client::request(&addr, "GET", &location, None).unwrap();
    assert_eq!(polled.status, 200);

    handle.shutdown();
}

#[test]
fn keep_alive_serves_multiple_requests_per_connection() {
    let (handle, addr) = spawn(ServerConfig::default());
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    // Reads one framed response off the keep-alive connection.
    let read_response = |reader: &mut BufReader<TcpStream>| -> (u16, String) {
        let mut head = String::new();
        loop {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            if line == "\r\n" {
                break;
            }
            head.push_str(&line);
        }
        let status = head.split(' ').nth(1).unwrap().parse().unwrap();
        let length: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("content-length: "))
            .unwrap()
            .parse()
            .unwrap();
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body).unwrap();
        (status, String::from_utf8(body).unwrap())
    };

    stream
        .write_all(b"GET /v1/healthz HTTP/1.1\r\n\r\n")
        .unwrap();
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 200);
    assert!(body.contains("\"ok\""));

    // Second request on the same connection — including a body this time.
    let spec = small_spec().to_json();
    stream
        .write_all(
            format!(
                "POST /v1/jobs HTTP/1.1\r\ncontent-length: {}\r\nconnection: close\r\n\r\n{spec}",
                spec.len()
            )
            .as_bytes(),
        )
        .unwrap();
    let (status, body) = read_response(&mut reader);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"kind\":\"baseline\""));

    handle.shutdown();
}

#[test]
fn shutdown_drains_queued_jobs() {
    // One worker, several queued jobs: shutdown must let the queue
    // drain (the workers finish what was accepted) and join cleanly.
    let (handle, addr) = spawn(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let spec = small_spec().to_json();
    let mut ids = Vec::new();
    for _ in 0..3 {
        let response = client::request(&addr, "POST", "/v1/jobs?mode=async", Some(&spec)).unwrap();
        assert_eq!(response.status, 202);
        ids.push(
            response
                .json()
                .unwrap()
                .field("id")
                .unwrap()
                .as_str()
                .unwrap()
                .to_string(),
        );
    }
    handle.shutdown();
    // The handle is gone and the port released; all accepted jobs ran
    // (shutdown joins the workers after the queue drains) — nothing to
    // poll anymore, but nothing hung either.
}

#[test]
fn expired_jobs_answer_410_and_unknown_ids_stay_404() {
    // A 50 ms TTL: the result is pollable right after completion, gone
    // (structurally: `410` + kind `expired`, not a bare `404`) shortly
    // after.
    let (handle, addr) = spawn(ServerConfig {
        workers: 1,
        job_ttl: Duration::from_millis(50),
        ..ServerConfig::default()
    });
    // Sync submission: the 200 proves the result existed at completion
    // time without racing a poll loop against the 50 ms TTL.
    let spec = small_spec().to_json();
    let response = client::request(&addr, "POST", "/v1/jobs", Some(&spec)).unwrap();
    assert_eq!(response.status, 200, "{}", response.body);
    let id: frozenqubits::JobId = response.header("fq-job-id").unwrap().parse().unwrap();
    std::thread::sleep(Duration::from_millis(80));

    let response = client::request(&addr, "GET", &format!("/v1/jobs/{id}"), None).unwrap();
    assert_eq!(response.status, 410, "{}", response.body);
    let envelope = response.json().unwrap();
    assert_eq!(
        envelope
            .field("error")
            .unwrap()
            .field("kind")
            .unwrap()
            .as_str()
            .unwrap(),
        "expired"
    );
    // Expiry is sticky, and never-issued ids remain plain 404s.
    let again = client::request(&addr, "GET", &format!("/v1/jobs/{id}"), None).unwrap();
    assert_eq!(again.status, 410);
    let unknown = client::request(&addr, "GET", "/v1/jobs/job-00000000000000ff", None).unwrap();
    assert_eq!(unknown.status, 404);
    assert_eq!(
        error_kind(&format!("x\r\n\r\n{}", unknown.body)),
        "not_found"
    );

    // /v1/stats reports the expiry.
    let stats = client::request(&addr, "GET", "/v1/stats", None).unwrap();
    let jobs = stats.json().unwrap();
    assert_eq!(
        jobs.field("jobs")
            .unwrap()
            .field("expired")
            .unwrap()
            .as_u64()
            .unwrap(),
        1
    );
    handle.shutdown();
}

#[test]
fn done_count_bound_expires_oldest_results_first() {
    let (handle, addr) = spawn(ServerConfig {
        workers: 1,
        max_done_jobs: 1,
        ..ServerConfig::default()
    });
    // Two sync submissions: completing the second expires the first.
    let spec = small_spec().to_json();
    let first = client::request(&addr, "POST", "/v1/jobs", Some(&spec)).unwrap();
    assert_eq!(first.status, 200);
    let first_id = first.header("fq-job-id").unwrap().to_string();
    let second = client::request(&addr, "POST", "/v1/jobs", Some(&spec)).unwrap();
    assert_eq!(second.status, 200);
    let second_id = second.header("fq-job-id").unwrap().to_string();

    let gone = client::request(&addr, "GET", &format!("/v1/jobs/{first_id}"), None).unwrap();
    assert_eq!(gone.status, 410, "{}", gone.body);
    let kept = client::request(&addr, "GET", &format!("/v1/jobs/{second_id}"), None).unwrap();
    assert_eq!(kept.status, 200, "{}", kept.body);
    handle.shutdown();
}

#[test]
fn template_endpoints_reject_garbage_and_miss_cleanly() {
    let (handle, addr) = spawn(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });

    // Empty shard: an empty index, clean 404s for absent fingerprints,
    // 400s for malformed ones (including traversal shapes — they never
    // reach the filesystem).
    let index = client::request(&addr, "GET", "/v1/templates", None).unwrap();
    assert_eq!(index.status, 200);
    assert_eq!(index.body, r#"{"v":1,"templates":[]}"#);
    let missing = client::request(&addr, "GET", "/v1/templates/0123456789abcdef", None).unwrap();
    assert_eq!(missing.status, 404);
    for bad in ["not-a-fingerprint", "0123456789ABCDEF", "..%2f..%2fetc"] {
        let response =
            client::request(&addr, "GET", &format!("/v1/templates/{bad}"), None).unwrap();
        assert_eq!(response.status, 400, "`{bad}` must be rejected");
        assert!(
            response.body.contains("16 lower-case hex"),
            "{}",
            response.body
        );
    }

    // Garbage pushes: malformed JSON, version skew and tampered keys
    // are structured 400s, never stored.
    for bad_body in [
        "not json",
        r#"{"v":99,"fingerprint":"0123456789abcdef"}"#,
        r#"{"v":1,"fingerprint":"0123456789abcdef","key":{},"template":{}}"#,
    ] {
        let response = client::request(&addr, "POST", "/v1/templates", Some(bad_body)).unwrap();
        assert_eq!(response.status, 400, "{}", response.body);
        assert_eq!(error_kind(&format!("x\r\n\r\n{}", response.body)), "serde");
    }
    let index = client::request(&addr, "GET", "/v1/templates", None).unwrap();
    assert_eq!(index.body, r#"{"v":1,"templates":[]}"#, "nothing stored");

    // A genuine artifact round-trips: push, index, fetch byte-for-byte.
    let spec = small_spec();
    let model = spec.problem.resolve().unwrap();
    let device = frozenqubits::api::DeviceSpec::IbmMontreal.build();
    let options = frozenqubits::FrozenQubitsConfig::default().compile;
    let template = frozenqubits::CompiledTemplate::compile(&model, 1, &device, options).unwrap();
    let key = frozenqubits::TemplateKey::new(
        frozenqubits::ShapeSignature::of(&model),
        &device,
        1,
        options,
    );
    let artifact = frozenqubits::TemplateArtifact::new(key, template);
    client::push_template(&addr, &artifact).unwrap();
    let fetched = client::fetch_template(&addr, &artifact.fingerprint()).unwrap();
    assert_eq!(fetched.to_json(), artifact.to_json());
    assert_eq!(client::template_index(&addr).unwrap().len(), 1);

    // `?limit=K` keeps the first K rows in the same document shape: none
    // at 0, the whole index at or above the resident count, and a
    // structured 400 for anything but a non-negative integer.
    let full = client::request(&addr, "GET", "/v1/templates", None).unwrap();
    let none = client::request(&addr, "GET", "/v1/templates?limit=0", None).unwrap();
    assert_eq!(none.status, 200);
    assert_eq!(none.body, r#"{"v":1,"templates":[]}"#);
    for limit in [1, 2, 4096] {
        let target = format!("/v1/templates?limit={limit}");
        let limited = client::request(&addr, "GET", &target, None).unwrap();
        assert_eq!(limited.status, 200, "{target}");
        assert_eq!(limited.body, full.body, "{target}");
    }
    for bad in ["abc", "-1", ""] {
        let target = format!("/v1/templates?limit={bad}");
        let response = client::request(&addr, "GET", &target, None).unwrap();
        assert_eq!(response.status, 400, "{target}: {}", response.body);
        assert_eq!(
            error_kind(&format!("x\r\n\r\n{}", response.body)),
            "bad_request"
        );
    }

    handle.shutdown();
}

#[test]
fn template_push_cap_refuses_unbounded_growth() {
    let (handle, addr) = spawn(ServerConfig {
        workers: 1,
        template_push_cap: 1,
        ..ServerConfig::default()
    });
    let spec = small_spec();
    let model = spec.problem.resolve().unwrap();
    let device = frozenqubits::api::DeviceSpec::IbmMontreal.build();
    let options = frozenqubits::FrozenQubitsConfig::default().compile;
    let template = frozenqubits::CompiledTemplate::compile(&model, 1, &device, options).unwrap();
    let key = frozenqubits::TemplateKey::new(
        frozenqubits::ShapeSignature::of(&model),
        &device,
        1,
        options,
    );
    let artifact = frozenqubits::TemplateArtifact::new(key, template);

    // First push fills the 1-slot cap; any further push is shed with a
    // structured 503, before its body is even parsed.
    client::push_template(&addr, &artifact).unwrap();
    let refused =
        client::request(&addr, "POST", "/v1/templates", Some(&artifact.to_json())).unwrap();
    assert_eq!(refused.status, 503, "{}", refused.body);
    assert_eq!(
        error_kind(&format!("x\r\n\r\n{}", refused.body)),
        "cache_full"
    );
    handle.shutdown();

    // A `--cache-dir` shard writes every artifact through to both tiers;
    // each still counts once, so a cap of 2 takes two distinct artifacts
    // and refuses the third.
    let dir = std::env::temp_dir().join(format!("fq-push-cap-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (handle, addr) = spawn(ServerConfig {
        workers: 1,
        template_push_cap: 2,
        cache_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServerConfig::default()
    });
    let artifacts = [ba_artifact(8), ba_artifact(9), ba_artifact(10)];
    client::push_template(&addr, &artifacts[0]).unwrap();
    client::push_template(&addr, &artifacts[1]).unwrap();
    let refused = client::request(
        &addr,
        "POST",
        "/v1/templates",
        Some(&artifacts[2].to_json()),
    )
    .unwrap();
    assert_eq!(refused.status, 503, "{}", refused.body);
    assert!(
        refused.body.contains("holds 2 artifacts (push cap 2)"),
        "{}",
        refused.body
    );
    handle.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `cache_capacity` bounds a shard's memory tier whether or not a
/// `cache_dir` puts the disk tier under it: both shards report the bound
/// in `/v1/stats`, and the second of two distinct templates evicts the
/// first from memory, while the disk-backed shard has written both
/// through to disk.
#[test]
fn cache_capacity_bounds_the_store_with_and_without_a_cache_dir() {
    let dir = std::env::temp_dir().join(format!("fq-store-chain-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    for cache_dir in [None, Some(dir.to_string_lossy().into_owned())] {
        let spilled = if cache_dir.is_some() { 2 } else { 0 };
        let (handle, addr) = spawn(ServerConfig {
            workers: 1,
            cache_capacity: Some(1),
            cache_dir,
            ..ServerConfig::default()
        });
        for n in [8, 9] {
            let spec = JobBuilder::new()
                .barabasi_albert(n, 1, 1)
                .device(DeviceSpec::IbmMontreal)
                .baseline()
                .build()
                .unwrap();
            client::submit_sync(&addr, &spec).unwrap();
        }
        let stats = client::request(&addr, "GET", "/v1/stats", None)
            .unwrap()
            .json()
            .unwrap();
        let cache = stats.field("cache").unwrap();
        let count = |field: &str| cache.field(field).unwrap().as_u64().unwrap();
        assert_eq!(count("capacity"), 1);
        assert_eq!(
            (count("misses"), count("len"), count("evictions")),
            (2, 1, 1)
        );
        assert_eq!((count("spills"), count("spill_len")), (spilled, spilled));
        handle.shutdown();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A pushable template artifact for the BA(n, d=1, seed=1) shape on
/// `ibmq_montreal` (the small spec's shape at `n = 8`).
fn ba_artifact(n: usize) -> frozenqubits::TemplateArtifact {
    let spec = JobBuilder::new()
        .barabasi_albert(n, 1, 1)
        .device(DeviceSpec::IbmMontreal)
        .baseline()
        .build()
        .unwrap();
    let model = spec.problem.resolve().unwrap();
    let device = frozenqubits::api::DeviceSpec::IbmMontreal.build();
    let options = frozenqubits::FrozenQubitsConfig::default().compile;
    let template = frozenqubits::CompiledTemplate::compile(&model, 1, &device, options).unwrap();
    let key = frozenqubits::TemplateKey::new(
        frozenqubits::ShapeSignature::of(&model),
        &device,
        1,
        options,
    );
    frozenqubits::TemplateArtifact::new(key, template)
}

/// Pins the `/v1/stats` JSON shape the dispatcher's sentinel consumes:
/// exact top-level keys, the cache/queue/jobs sub-objects, and the
/// fields added for cluster telemetry — `workers.configured`,
/// `workers.busy` and `uptime_secs`.
#[test]
fn stats_shape_is_pinned_for_the_sentinel() {
    let (handle, addr) = spawn(ServerConfig {
        workers: 3,
        queue_capacity: 17,
        ..ServerConfig::default()
    });
    client::submit_sync(&addr, &small_spec()).unwrap();

    let stats = client::request(&addr, "GET", "/v1/stats", None).unwrap();
    assert_eq!(stats.status, 200);
    let stats = stats.json().unwrap();

    // Exact top-level key set: adding a field is a deliberate wire
    // change, and this test is where it gets acknowledged.
    let mut keys: Vec<&str> = match &stats {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("stats must be an object, got {other:?}"),
    };
    keys.sort_unstable();
    assert_eq!(
        keys,
        vec!["cache", "jobs", "queue", "uptime_secs", "v", "workers"]
    );

    let cache = stats.field("cache").unwrap();
    for field in [
        "hits",
        "misses",
        "evictions",
        "len",
        "capacity",
        "spills",
        "promotions",
        "spill_len",
        "resident",
    ] {
        cache.field(field).unwrap();
    }
    assert_eq!(cache.field("misses").unwrap().as_u64().unwrap(), 1);

    let queue = stats.field("queue").unwrap();
    assert_eq!(queue.field("depth").unwrap().as_u64().unwrap(), 0);
    assert_eq!(queue.field("capacity").unwrap().as_u64().unwrap(), 17);

    let jobs = stats.field("jobs").unwrap();
    assert_eq!(jobs.field("submitted").unwrap().as_u64().unwrap(), 1);
    assert_eq!(jobs.field("completed").unwrap().as_u64().unwrap(), 1);

    let workers = stats.field("workers").unwrap();
    assert_eq!(workers.field("configured").unwrap().as_u64().unwrap(), 3);
    assert_eq!(workers.field("busy").unwrap().as_u64().unwrap(), 0);

    // Uptime is seconds-since-boot: tiny but present and integral.
    assert!(stats.field("uptime_secs").unwrap().as_u64().unwrap() < 3600);

    handle.shutdown();
}

/// `workers.busy` reports in-flight execution: with zero workers a
/// queued job never starts, so busy stays 0 while depth grows — and a
/// served job returns it to 0 (pinned above). The transition itself is
/// covered by the worker pool's drop-guard unit test.
#[test]
fn stats_busy_counts_in_flight_only() {
    let (handle, addr) = spawn(ServerConfig {
        workers: 0,
        sync_wait: Duration::from_millis(10),
        ..ServerConfig::default()
    });
    let spec = small_spec().to_json();
    let submitted = client::request(&addr, "POST", "/v1/jobs?mode=async", Some(&spec)).unwrap();
    assert_eq!(submitted.status, 202);

    let stats = client::request(&addr, "GET", "/v1/stats", None)
        .unwrap()
        .json()
        .unwrap();
    let workers = stats.field("workers").unwrap();
    assert_eq!(workers.field("busy").unwrap().as_u64().unwrap(), 0);
    assert_eq!(
        stats
            .field("queue")
            .unwrap()
            .field("depth")
            .unwrap()
            .as_u64()
            .unwrap(),
        1
    );
    handle.shutdown();
}

/// With `--auth-token`, `POST /v1/templates` demands the exact bearer
/// token: missing and wrong tokens are structured `401`s (and the
/// artifact is not admitted), the right one stores the artifact. Read
/// endpoints stay open — probes and warm pulls need no credential.
#[test]
fn auth_token_gates_template_pushes() {
    let (handle, addr) = spawn(ServerConfig {
        workers: 1,
        auth_token: Some("sesame".into()),
        ..ServerConfig::default()
    });
    let artifact = ba_artifact(8);

    // No token → 401, nothing stored.
    let refused = client::push_template(&addr, &artifact).unwrap_err();
    assert!(refused.to_string().contains("401"), "{refused}");
    // Wrong token → 401, nothing stored.
    let wrong = client::push_template_with_token(&addr, &artifact, Some("not-sesame")).unwrap_err();
    assert!(wrong.to_string().contains("401"), "{wrong}");
    assert_eq!(client::template_index(&addr).unwrap().len(), 0);

    let raw = client::request(&addr, "POST", "/v1/templates", Some(&artifact.to_json())).unwrap();
    assert_eq!(raw.status, 401);
    assert_eq!(
        error_kind(&format!("x\r\n\r\n{}", raw.body)),
        "unauthorized"
    );

    // Right token → stored and servable.
    client::push_template_with_token(&addr, &artifact, Some("sesame")).unwrap();
    assert_eq!(client::template_index(&addr).unwrap().len(), 1);

    // Reads never need the token.
    let health = client::request(&addr, "GET", "/v1/healthz", None).unwrap();
    assert_eq!(health.status, 200);
    let fetched = client::fetch_template(&addr, &artifact.fingerprint()).unwrap();
    assert_eq!(fetched.to_json(), artifact.to_json());

    handle.shutdown();
}

/// Without `--auth-token` the push path is exactly as before: open.
#[test]
fn no_auth_token_means_open_pushes() {
    let (handle, addr) = spawn(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    client::push_template(&addr, &ba_artifact(8)).unwrap();
    assert_eq!(client::template_index(&addr).unwrap().len(), 1);
    handle.shutdown();
}
