//! Client-side edge cases: keep-alive connection reuse and the failure
//! paths a dispatcher meets when a shard misbehaves. Every broken-peer
//! shape must surface as a typed [`FqError`], never a panic — the
//! dispatcher's retry policy is built on matching these errors.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread;

use fq_serve::client::{self, ShardConn};
use frozenqubits::FqError;

/// Reads one request head (through the blank line) off a fake-shard
/// connection, returning the request line.
fn read_request_head(reader: &mut BufReader<TcpStream>) -> String {
    let mut request_line = String::new();
    reader.read_line(&mut request_line).unwrap();
    let mut line = String::new();
    loop {
        line.clear();
        reader.read_line(&mut line).unwrap();
        if line == "\r\n" || line.is_empty() {
            break;
        }
    }
    request_line.trim_end().to_string()
}

/// Spawns a fake shard that accepts exactly one connection and answers
/// each request on it with `responses` in order, then closes.
fn fake_shard(responses: Vec<String>) -> (String, thread::JoinHandle<Vec<String>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let handle = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut seen = Vec::new();
        for response in responses {
            seen.push(read_request_head(&mut reader));
            stream.write_all(response.as_bytes()).unwrap();
        }
        seen
    });
    (addr, handle)
}

fn ok_response(body: &str) -> String {
    format!(
        "HTTP/1.1 200 OK\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
}

// ---------------------------------------------------------------------
// Satellite: keep-alive reuse regression
// ---------------------------------------------------------------------

/// Two sequential requests on a `ShardConn` ride one TCP connection:
/// the fake shard accepts exactly once, and `connects()` stays at 1.
#[test]
fn shard_conn_reuses_one_connection_across_requests() {
    let (addr, shard) = fake_shard(vec![ok_response("{\"a\":1}"), ok_response("{\"b\":2}")]);
    let mut conn = ShardConn::new(&addr);

    let first = conn.request("GET", "/v1/stats", None).unwrap();
    assert_eq!(first.status, 200);
    assert_eq!(first.body, "{\"a\":1}");
    let second = conn.request("GET", "/v1/healthz", None).unwrap();
    assert_eq!(second.status, 200);
    assert_eq!(second.body, "{\"b\":2}");

    assert_eq!(conn.connects(), 1, "second request must reuse the stream");
    let seen = shard.join().unwrap();
    assert_eq!(
        seen,
        vec!["GET /v1/stats HTTP/1.1", "GET /v1/healthz HTTP/1.1"]
    );
}

/// A server-initiated `connection: close` drops the cached stream; the
/// next request redials instead of writing into a dead socket.
#[test]
fn shard_conn_redials_after_server_close() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shard = thread::spawn(move || {
        for _ in 0..2 {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            read_request_head(&mut reader);
            stream
                .write_all(b"HTTP/1.1 200 OK\r\nconnection: close\r\ncontent-length: 2\r\n\r\nok")
                .unwrap();
        }
    });

    let mut conn = ShardConn::new(&addr);
    for _ in 0..2 {
        let response = conn.request("GET", "/v1/healthz", None).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "ok");
    }
    assert_eq!(conn.connects(), 2, "close must force a redial");
    shard.join().unwrap();
}

/// The bearer token set on the connection rides every request.
#[test]
fn shard_conn_sends_bearer_token() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shard = thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut request_line = String::new();
        reader.read_line(&mut request_line).unwrap();
        let mut auth = None;
        let mut line = String::new();
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some(value) = trimmed.strip_prefix("authorization:") {
                auth = Some(value.trim().to_string());
            }
        }
        stream
            .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n")
            .unwrap();
        auth
    });

    let mut conn = ShardConn::new(&addr);
    conn.set_token("hunter2");
    conn.request("GET", "/v1/stats", None).unwrap();
    assert_eq!(shard.join().unwrap().as_deref(), Some("Bearer hunter2"));
}

/// Accepts one connection on `listener` and reads requests of the given
/// byte lengths off it, answering each with an empty `200`; returns what
/// it read.
fn capture(listener: TcpListener, lengths: Vec<usize>) -> thread::JoinHandle<Vec<String>> {
    thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let timeout = std::time::Duration::from_secs(10);
        stream.set_read_timeout(Some(timeout)).unwrap();
        let mut requests = Vec::new();
        for length in lengths {
            let mut raw = vec![0u8; length];
            stream.read_exact(&mut raw).unwrap();
            requests.push(String::from_utf8(raw).unwrap());
            stream
                .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n")
                .unwrap();
        }
        requests
    })
}

/// The exact bytes of each kind of request: a one-shot request closes
/// its connection; a keep-alive one keeps it and carries the
/// connection's bearer token once one is set. Bodies are framed by
/// their length in bytes.
#[test]
fn requests_put_their_exact_bytes_on_the_wire() {
    let body = r#"{"v":1,"note":"café"}"#;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let one_shot = format!(
        "POST /v1/jobs?mode=async HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\
         content-type: application/json\r\ncontent-length: 22\r\n\r\n{body}"
    );
    let shard = capture(listener, vec![one_shot.len()]);
    client::request(&addr, "POST", "/v1/jobs?mode=async", Some(body)).unwrap();
    assert_eq!(shard.join().unwrap(), [one_shot]);

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let expected = [
        format!("GET /v1/stats HTTP/1.1\r\nhost: {addr}\r\nconnection: keep-alive\r\n\r\n"),
        format!(
            "POST /v1/templates HTTP/1.1\r\nhost: {addr}\r\nconnection: keep-alive\r\n\
             authorization: Bearer hunter2\r\ncontent-type: application/json\r\n\
             content-length: 22\r\n\r\n{body}"
        ),
    ];
    let shard = capture(listener, expected.iter().map(String::len).collect());
    let mut conn = ShardConn::new(&addr);
    conn.request("GET", "/v1/stats", None).unwrap();
    conn.set_token("hunter2");
    conn.request("POST", "/v1/templates", Some(body)).unwrap();
    assert_eq!(shard.join().unwrap(), expected);
    assert_eq!(conn.connects(), 1);
}

// ---------------------------------------------------------------------
// Satellite: broken-peer error paths map to typed errors, not panics
// ---------------------------------------------------------------------

/// Dialing a port nothing listens on is a typed transport error.
#[test]
fn connection_refused_is_typed_io_error() {
    // Bind-then-drop reserves an address that is guaranteed dead.
    let addr = {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let mut conn = ShardConn::new(&addr);
    let error = conn.request("GET", "/v1/healthz", None).unwrap_err();
    assert!(matches!(error, FqError::Io(_)), "got {error:?}");
    assert_eq!(conn.connects(), 0, "a failed dial is not a connect");
}

/// A peer that closes mid-body (announced length longer than what it
/// sends) yields a truncation error, and the poisoned stream is dropped
/// so the next request redials.
#[test]
fn truncated_response_is_typed_io_error() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let shard = thread::spawn(move || {
        // First connection: lie about the length, then hang up.
        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        read_request_head(&mut reader);
        stream
            .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 100\r\n\r\nonly-a-few-bytes")
            .unwrap();
        // Hang up for real: the reader's cloned handle would otherwise
        // keep the socket open, and the client would wait out its
        // response timeout instead of seeing the truncation.
        drop(reader);
        drop(stream);
        // Second connection: behave.
        let (mut stream, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        read_request_head(&mut reader);
        stream
            .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nok")
            .unwrap();
    });

    let mut conn = ShardConn::new(&addr);
    let error = conn.request("GET", "/v1/stats", None).unwrap_err();
    match error {
        FqError::Io(message) => assert!(message.contains("truncated"), "got `{message}`"),
        other => panic!("expected Io, got {other:?}"),
    }

    // The poisoned stream must not be reused: the next call dials again
    // and succeeds.
    let response = conn.request("GET", "/v1/stats", None).unwrap();
    assert_eq!(response.body, "ok");
    assert_eq!(conn.connects(), 2);
    shard.join().unwrap();
}

/// A peer that closes before finishing the header block is the same
/// truncation class.
#[test]
fn truncated_headers_are_typed_io_error() {
    let (addr, shard) = fake_shard(vec!["HTTP/1.1 200 OK\r\ncontent-type: applica".to_string()]);
    let mut conn = ShardConn::new(&addr);
    let error = conn.request("GET", "/v1/stats", None).unwrap_err();
    assert!(matches!(error, FqError::Io(_)), "got {error:?}");
    shard.join().unwrap();
}

/// A 200 whose body is not JSON fails at decode time with a typed
/// serde error — the transport layer itself accepts any bytes.
#[test]
fn non_json_body_is_typed_serde_error() {
    let (addr, shard) = fake_shard(vec![ok_response("<html>not json</html>")]);
    let mut conn = ShardConn::new(&addr);
    let response = conn.request("GET", "/v1/stats", None).unwrap();
    assert_eq!(response.status, 200);
    let error = response.json().unwrap_err();
    assert!(matches!(error, FqError::Serde(_)), "got {error:?}");
    shard.join().unwrap();
}

/// A peer claiming a multi-gigabyte body is rejected up front instead
/// of being buffered: the `content-length` cap is checked before any
/// allocation.
#[test]
fn oversized_content_length_is_typed_io_error() {
    let (addr, shard) = fake_shard(vec![
        "HTTP/1.1 200 OK\r\ncontent-length: 99999999999\r\n\r\n".to_string(),
    ]);
    let mut conn = ShardConn::new(&addr);
    let error = conn.request("GET", "/v1/templates", None).unwrap_err();
    match error {
        FqError::Io(message) => assert!(message.contains("oversized"), "got `{message}`"),
        other => panic!("expected Io, got {other:?}"),
    }
    shard.join().unwrap();
}

/// An unparsable `content-length` is a malformed-response error, not a
/// zero-length assumption that would desync the framing.
#[test]
fn garbage_content_length_is_typed_serde_error() {
    let (addr, shard) = fake_shard(vec![
        "HTTP/1.1 200 OK\r\ncontent-length: banana\r\n\r\n".to_string()
    ]);
    let mut conn = ShardConn::new(&addr);
    let error = conn.request("GET", "/v1/stats", None).unwrap_err();
    assert!(matches!(error, FqError::Serde(_)), "got {error:?}");
    shard.join().unwrap();
}

/// A response head is read under the same bounds as a request head: a
/// header line over 8 KiB is refused as malformed before it is buffered
/// whole, so a broken or hostile peer cannot grow the reader's memory
/// ahead of the body cap.
#[test]
fn oversized_response_header_line_is_typed_serde_error() {
    let huge = "a".repeat(8 * 1024 + 1);
    let (addr, shard) = fake_shard(vec![format!(
        "HTTP/1.1 200 OK\r\nx-filler: {huge}\r\ncontent-length: 2\r\n\r\nok"
    )]);
    let mut conn = ShardConn::new(&addr);
    match conn.request("GET", "/v1/stats", None).unwrap_err() {
        FqError::Serde(message) => assert!(message.contains("8192 bytes"), "got `{message}`"),
        other => panic!("expected Serde, got {other:?}"),
    }
    shard.join().unwrap();
}

/// More than 100 response headers are refused like more than 100
/// request headers.
#[test]
fn too_many_response_headers_are_typed_serde_error() {
    let filler: String = (0..100).map(|i| format!("x-filler-{i}: v\r\n")).collect();
    let (addr, shard) = fake_shard(vec![format!(
        "HTTP/1.1 200 OK\r\n{filler}content-length: 2\r\n\r\nok"
    )]);
    let mut conn = ShardConn::new(&addr);
    match conn.request("GET", "/v1/stats", None).unwrap_err() {
        FqError::Serde(message) => assert!(message.contains("100 headers"), "got `{message}`"),
        other => panic!("expected Serde, got {other:?}"),
    }
    shard.join().unwrap();
}
