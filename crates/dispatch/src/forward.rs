//! Forwarding one job to the cluster: walk the fingerprint's candidate
//! shards, relay the first real answer, and absorb shard failure.
//!
//! The invariants, in order of importance:
//!
//! * **Relay, don't re-model.** A shard's non-503 response — success
//!   *or* engine error — is final and returned verbatim. Engine errors
//!   are deterministic properties of the spec; retrying one elsewhere
//!   would burn a second shard's time to get the same bytes.
//! * **Retry only what another shard can fix.** Transport failures
//!   (dead shard) and `503`s (saturated shard) re-route to the next
//!   candidate, with one bounded backoff pass over the whole list
//!   before giving up.
//! * **Never double-submit.** `ShardConn` does not auto-resend, so a
//!   submission reaches at most one shard per attempt; re-routing after
//!   a transport error on the *write* is safe, and an error after the
//!   shard accepted surfaces as that shard's own response.
//! * **Shed with the shards' discipline.** When every candidate is
//!   unreachable or saturated, the outcome is the same `503` +
//!   `retry-after` contract a single shard uses — a client retry loop
//!   written for one shard works unchanged against the front door.

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

use fq_serve::client::{HttpResponse, ShardConn};
use fq_serve::error::{error_body, status_for_kind};
use serde::json::Value;

use crate::registry::Outcome;
use crate::shards::ShardTable;

/// Retry/backoff/poll knobs for the forwarding path.
#[derive(Clone, Debug)]
pub(crate) struct ForwardPolicy {
    /// Full passes over the candidate list before shedding (≥ 1).
    pub(crate) rounds: usize,
    /// Sleep before the second pass; doubles each further pass. When a
    /// saturated shard answered `503` with a parseable `retry-after`,
    /// that value replaces the doubling schedule for the next pass —
    /// the shard knows its own queue better than our guess.
    pub(crate) backoff: Duration,
    /// Hard cap on any single inter-pass sleep, whichever schedule
    /// produced it: a shard advertising `retry-after: 3600` must not
    /// pin a forwarder thread for an hour.
    pub(crate) max_backoff: Duration,
    /// Poll cadence after a shard degrades a slow job to `202`.
    pub(crate) poll_interval: Duration,
    /// Longest the forwarder keeps polling a degraded job.
    pub(crate) poll_deadline: Duration,
}

impl Default for ForwardPolicy {
    fn default() -> ForwardPolicy {
        ForwardPolicy {
            rounds: 2,
            backoff: Duration::from_millis(50),
            max_backoff: Duration::from_secs(2),
            poll_interval: Duration::from_millis(50),
            poll_deadline: Duration::from_secs(300),
        }
    }
}

/// Cluster-level counters for `/v1/stats`.
#[derive(Debug, Default)]
pub(crate) struct Metrics {
    /// Jobs that got a real shard response.
    pub(crate) forwarded: AtomicU64,
    /// Candidate switches after a transport failure or shard `503`.
    pub(crate) rerouted: AtomicU64,
    /// Jobs shed with `503` after every candidate was exhausted.
    pub(crate) shed: AtomicU64,
    /// Template artifacts the sentinel pushed between shards.
    pub(crate) warm_pushes: AtomicU64,
    /// Sentinel pushes the owner did not store: refused with an error
    /// status, or the owner could not be reached.
    pub(crate) warm_refused: AtomicU64,
}

/// One thread's keep-alive connections, one per shard. Never shared:
/// each forwarder worker, batch scatter thread and the sentinel owns
/// its own pool, so no lock sits on the request path.
#[derive(Debug)]
pub(crate) struct ConnPool {
    token: Option<String>,
    read_timeout: Option<Duration>,
    fault_plan: Option<std::sync::Arc<fq_faults::FaultPlan>>,
    conns: HashMap<String, ShardConn>,
}

impl ConnPool {
    pub(crate) fn new(token: Option<String>) -> ConnPool {
        ConnPool {
            token,
            read_timeout: None,
            fault_plan: None,
            conns: HashMap::new(),
        }
    }

    /// Caps how long any pooled connection waits for a response (the
    /// sentinel's probe bound); applies to connections created after
    /// the call, so set it before first use.
    pub(crate) fn with_read_timeout(mut self, timeout: Duration) -> ConnPool {
        self.read_timeout = Some(timeout);
        self
    }

    /// Arms chaos fault injection on every connection this pool creates
    /// (dial refusals, response truncation — see `fq-faults`).
    pub(crate) fn with_fault_plan(
        mut self,
        plan: Option<std::sync::Arc<fq_faults::FaultPlan>>,
    ) -> ConnPool {
        self.fault_plan = plan;
        self
    }

    /// The pooled connection to `addr`, created on first use.
    pub(crate) fn conn(&mut self, addr: &str) -> &mut ShardConn {
        self.conns.entry(addr.to_string()).or_insert_with(|| {
            let mut conn = ShardConn::new(addr);
            if let Some(token) = &self.token {
                conn.set_token(token);
            }
            if let Some(timeout) = self.read_timeout {
                conn.set_read_timeout(timeout);
            }
            if let Some(plan) = &self.fault_plan {
                conn.set_fault_plan(std::sync::Arc::clone(plan));
            }
            conn
        })
    }
}

use std::sync::atomic::Ordering;

/// Forwards one job body to the cluster and returns the outcome.
/// `fingerprint` is the routing key (empty when the spec did not parse
/// — such jobs still route, consistently, and the shard produces the
/// same error bytes it would have produced face to face).
pub(crate) fn forward_job(
    pool: &mut ConnPool,
    table: &ShardTable,
    policy: &ForwardPolicy,
    metrics: &Metrics,
    body: &str,
    fingerprint: &str,
) -> Outcome {
    let mut attempted = false;
    // The smallest `retry-after` any saturated shard advertised this
    // pass; when present it replaces the doubling schedule below.
    let mut advertised: Option<Duration> = None;
    for round in 0..policy.rounds.max(1) {
        if round > 0 {
            let doubling = policy.backoff * 2u32.saturating_pow(round as u32 - 1);
            let sleep = advertised
                .take()
                .unwrap_or(doubling)
                .min(policy.max_backoff);
            std::thread::sleep(sleep);
        }
        // Re-read the table each pass: the sentinel may have promoted a
        // shard back, or an admin may have joined one.
        for addr in table.candidates(fingerprint) {
            if attempted {
                metrics.rerouted.fetch_add(1, Ordering::Relaxed);
            }
            attempted = true;
            match pool.conn(&addr).request("POST", "/v1/jobs", Some(body)) {
                Err(_) => {
                    table.report_transport_failure(&addr);
                    continue;
                }
                Ok(response) if response.status == 503 => {
                    if let Some(hint) = response
                        .header("retry-after")
                        .and_then(|v| v.parse::<u64>().ok())
                        .map(Duration::from_secs)
                    {
                        advertised = Some(advertised.map_or(hint, |a| a.min(hint)));
                    }
                    continue;
                }
                Ok(response) if response.status == 202 => {
                    let outcome = resolve_degraded(pool, &addr, &response, policy);
                    metrics.forwarded.fetch_add(1, Ordering::Relaxed);
                    return outcome;
                }
                Ok(response) => {
                    metrics.forwarded.fetch_add(1, Ordering::Relaxed);
                    return Outcome {
                        status: response.status,
                        body: response.body,
                    };
                }
            }
        }
    }
    metrics.shed.fetch_add(1, Ordering::Relaxed);
    Outcome {
        status: 503,
        body: error_body(
            "cluster_saturated",
            "every shard candidate is unreachable or saturated; retry later",
        ),
    }
}

/// A shard accepted the job but degraded to `202` (its `sync_wait`
/// elapsed). Poll its job endpoint until the job finishes, then
/// reconstruct the synchronous response: `200` + the bare canonical
/// result for success (byte-identical — the envelope embeds the
/// canonical document and canonical JSON round-trips exactly), or the
/// shard's error envelope + mapped status for failure.
fn resolve_degraded(
    pool: &mut ConnPool,
    addr: &str,
    accepted: &HttpResponse,
    policy: &ForwardPolicy,
) -> Outcome {
    let upstream = |message: &str| Outcome {
        status: 502,
        body: error_body("upstream", message),
    };
    let Some(location) = accepted.header("location").map(str::to_string) else {
        return upstream("shard sent 202 without a location header");
    };
    let deadline = Instant::now() + policy.poll_deadline;
    loop {
        std::thread::sleep(policy.poll_interval);
        if Instant::now() >= deadline {
            return Outcome {
                status: 504,
                body: error_body(
                    "upstream_timeout",
                    &format!("shard {addr} did not finish {location} within the poll deadline"),
                ),
            };
        }
        // Transport hiccups mid-poll are retried until the deadline —
        // the job is already running remotely; walking away would
        // orphan it and polls are idempotent.
        let Ok(response) = pool.conn(addr).request("GET", &location, None) else {
            continue;
        };
        match response.status {
            200 => {}
            404 | 410 => {
                return upstream(&format!(
                    "shard {addr} expired {location} before the result was relayed"
                ))
            }
            _ => continue,
        }
        let Ok(envelope) = Value::parse(&response.body) else {
            return upstream("unparsable poll envelope");
        };
        let status = envelope
            .field("status")
            .and_then(|s| s.as_str())
            .unwrap_or("");
        match status {
            "done" => {
                let Ok(result) = envelope.field("result") else {
                    return upstream("done envelope without a result");
                };
                return Outcome {
                    status: 200,
                    body: result.to_json(),
                };
            }
            "failed" => {
                let (kind, message) = match envelope.field("error") {
                    Ok(error) => (
                        error
                            .field("kind")
                            .and_then(|k| k.as_str())
                            .unwrap_or("internal")
                            .to_string(),
                        error
                            .field("message")
                            .and_then(|m| m.as_str())
                            .unwrap_or("")
                            .to_string(),
                    ),
                    Err(_) => ("internal".to_string(), response.body.clone()),
                };
                return Outcome {
                    status: status_for_kind(&kind),
                    body: error_body(&kind, &message),
                };
            }
            // queued / running: keep polling.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpListener;

    fn policy() -> ForwardPolicy {
        ForwardPolicy {
            rounds: 2,
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_secs(60),
            poll_interval: Duration::from_millis(1),
            poll_deadline: Duration::from_secs(5),
        }
    }

    /// A fake shard serving a fixed sequence of responses, one per
    /// request, over a single keep-alive connection.
    fn scripted_shard(responses: Vec<&'static str>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            for response in responses {
                let mut content_length = 0usize;
                let mut line = String::new();
                loop {
                    line.clear();
                    reader.read_line(&mut line).unwrap();
                    let trimmed = line.trim_end();
                    if trimmed.is_empty() {
                        break;
                    }
                    if let Some(v) = trimmed.to_ascii_lowercase().strip_prefix("content-length:") {
                        content_length = v.trim().parse().unwrap();
                    }
                }
                let mut body = vec![0u8; content_length];
                std::io::Read::read_exact(&mut reader, &mut body).unwrap();
                stream.write_all(response.as_bytes()).unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn dead_primary_reroutes_to_the_survivor() {
        // The dead "shard" is a bound-then-dropped port.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let (alive, shard) = scripted_shard(vec![
            "HTTP/1.1 200 OK\r\ncontent-length: 11\r\n\r\n{\"ok\":true}",
        ]);
        let table = ShardTable::new(&[dead.clone(), alive.clone()]);
        // Pick a fingerprint whose rendezvous primary is the *dead*
        // shard, so the forward must actually fail over.
        let addrs = [dead.clone(), alive.clone()];
        let fingerprint = (0..)
            .map(|i| format!("{i:016x}"))
            .find(|fp| crate::ring::owner(fp, &addrs) == Some(&dead))
            .unwrap();
        let metrics = Metrics::default();
        let mut pool = ConnPool::new(None);
        let outcome = forward_job(&mut pool, &table, &policy(), &metrics, "{}", &fingerprint);
        assert_eq!(outcome.status, 200);
        assert_eq!(outcome.body, "{\"ok\":true}");
        assert_eq!(metrics.forwarded.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.rerouted.load(Ordering::Relaxed), 1);
        let snap = table.snapshot();
        assert!(!snap.iter().find(|s| s.addr == dead).unwrap().healthy);
        assert!(snap.iter().find(|s| s.addr == alive).unwrap().healthy);
        shard.join().unwrap();
    }

    #[test]
    fn engine_errors_relay_verbatim_without_retry() {
        let envelope = "HTTP/1.1 422 Unprocessable Entity\r\ncontent-length: 64\r\n\r\n{\"v\":1,\"error\":{\"kind\":\"invalid_config\",\"message\":\"bad layers\"}}";
        assert_eq!(
            64,
            "{\"v\":1,\"error\":{\"kind\":\"invalid_config\",\"message\":\"bad layers\"}}".len()
        );
        let (addr, shard) = scripted_shard(vec![envelope]);
        let table = ShardTable::new(&[addr]);
        let metrics = Metrics::default();
        let mut pool = ConnPool::new(None);
        let outcome = forward_job(&mut pool, &table, &policy(), &metrics, "{}", "abc");
        assert_eq!(outcome.status, 422);
        assert!(outcome.body.contains("invalid_config"));
        assert_eq!(metrics.rerouted.load(Ordering::Relaxed), 0, "no retry");
        shard.join().unwrap();
    }

    #[test]
    fn backoff_honors_the_shards_retry_after_over_its_own_schedule() {
        // The shard says "retry in 0 seconds"; the policy's own
        // schedule says 30. If the doubling schedule were still in
        // charge, this test would sit for 30 s — the harness timeout
        // alone makes that a failure.
        let saturated =
            "HTTP/1.1 503 Service Unavailable\r\nretry-after: 0\r\ncontent-length: 2\r\n\r\n{}";
        let ok = "HTTP/1.1 200 OK\r\ncontent-length: 11\r\n\r\n{\"ok\":true}";
        let (addr, shard) = scripted_shard(vec![saturated, ok]);
        let table = ShardTable::new(&[addr]);
        let metrics = Metrics::default();
        let mut pool = ConnPool::new(None);
        let policy = ForwardPolicy {
            backoff: Duration::from_secs(30),
            ..policy()
        };
        let started = Instant::now();
        let outcome = forward_job(&mut pool, &table, &policy, &metrics, "{}", "abc");
        assert_eq!(outcome.status, 200);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "retry-after: 0 must preempt the 30s doubling backoff (took {:?})",
            started.elapsed()
        );
        shard.join().unwrap();
    }

    #[test]
    fn advertised_retry_after_is_clamped_by_max_backoff() {
        // The shard asks for an hour; the policy caps any single sleep
        // at 10 ms, so the second pass still happens promptly.
        let saturated =
            "HTTP/1.1 503 Service Unavailable\r\nretry-after: 3600\r\ncontent-length: 2\r\n\r\n{}";
        let ok = "HTTP/1.1 200 OK\r\ncontent-length: 11\r\n\r\n{\"ok\":true}";
        let (addr, shard) = scripted_shard(vec![saturated, ok]);
        let table = ShardTable::new(&[addr]);
        let metrics = Metrics::default();
        let mut pool = ConnPool::new(None);
        let policy = ForwardPolicy {
            max_backoff: Duration::from_millis(10),
            ..policy()
        };
        let started = Instant::now();
        let outcome = forward_job(&mut pool, &table, &policy, &metrics, "{}", "abc");
        assert_eq!(outcome.status, 200);
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "retry-after: 3600 must be clamped by max_backoff (took {:?})",
            started.elapsed()
        );
        shard.join().unwrap();
    }

    #[test]
    fn all_candidates_dead_sheds_with_503() {
        let dead: Vec<String> = (0..2)
            .map(|_| {
                let l = TcpListener::bind("127.0.0.1:0").unwrap();
                l.local_addr().unwrap().to_string()
            })
            .collect();
        let table = ShardTable::new(&dead);
        let metrics = Metrics::default();
        let mut pool = ConnPool::new(None);
        let outcome = forward_job(&mut pool, &table, &policy(), &metrics, "{}", "abc");
        assert_eq!(outcome.status, 503);
        assert!(outcome.body.contains("cluster_saturated"));
        assert_eq!(metrics.shed.load(Ordering::Relaxed), 1);
    }
}
