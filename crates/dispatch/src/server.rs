//! The dispatcher process: configuration, the front-door endpoints, and
//! the wiring of the shard's own substrate around the forwarding path.
//!
//! The listener, the `/v1/jobs` desk (bounded queue, registry, submit
//! and poll) and the worker pool are `fq-serve`'s, so the data path is a
//! shard's with "execute" replaced by "forward":
//!
//! ```text
//! Listener ──▶ connection threads ──▶ Jobs: bounded queue ──▶ forwarder pool
//!                 (mint JobId,              │                     │
//!                  fingerprint)             ▼                     ▼
//!                                      503 when full        candidate shards
//!                                                           (rendezvous order,
//!                                                            retry/re-route)
//! ```
//!
//! `POST /v1/jobs` and `GET /v1/jobs/{id}` speak exactly the shard wire
//! surface, so a client cannot tell the front door from a shard — sync
//! `200` bodies are the shard's bytes verbatim, which is what makes the
//! cluster byte-identical to a single runner. `POST /v1/batch` scatters
//! a JSON array of specs across the fleet and merges the outcomes in
//! job order.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use fq_serve::error::{error_response, method_not_allowed, not_found};
use fq_serve::http::{Request, Response};
use fq_serve::jobs::Jobs;
use fq_serve::listener::{Limits, Listener};
use fq_serve::wire::{healthz_body, WIRE_V};
use fq_serve::worker::WorkerPool;
use frozenqubits::{FqError, JobSpec};
use serde::json::Value;

use crate::forward::{forward_job, ConnPool, ForwardPolicy, Metrics};
use crate::registry::Outcome;
use crate::sentinel::{self, SentinelConfig};
use crate::shards::ShardTable;

/// Dispatcher configuration. Start from [`DispatchConfig::default`],
/// set [`shards`](DispatchConfig::shards), override the rest as needed.
#[derive(Clone, Debug)]
pub struct DispatchConfig {
    /// Bind address; `127.0.0.1:0` picks an ephemeral loopback port.
    pub addr: String,
    /// The shard addresses (`host:port`) to scatter over. At least one
    /// is required; more can join at runtime via `POST /v1/shards`.
    pub shards: Vec<String>,
    /// Forwarder threads draining the queue — the dispatcher's analogue
    /// of a shard's workers. `0` is legal (jobs queue without
    /// forwarding; backpressure tests).
    pub forwarders: usize,
    /// Bound on queued-but-unclaimed jobs; beyond it → `503`.
    pub queue_capacity: usize,
    /// How long a finished outcome is retained for polling.
    pub job_ttl: Duration,
    /// Most finished outcomes retained at once.
    pub max_done_jobs: usize,
    /// How long a synchronous submission waits before degrading to
    /// `202` (same contract as a shard).
    pub sync_wait: Duration,
    /// Largest accepted request body — batches are arrays, so the
    /// default is generous relative to a shard's.
    pub max_body_bytes: usize,
    /// Socket read timeout (single-read bound).
    pub read_timeout: Duration,
    /// Wall-clock budget for receiving one complete request.
    pub request_deadline: Duration,
    /// Most concurrent connections; beyond it → immediate `503`.
    pub max_connections: usize,
    /// Bearer token: gates `POST /v1/shards` here and is presented to
    /// shards on template pushes (one cluster-wide token).
    pub auth_token: Option<String>,
    /// Sentinel probe/convergence cadence.
    pub sentinel_interval: Duration,
    /// Most warm-transfer pushes per sentinel cycle. It also sizes the
    /// cycle's probe: the sentinel downloads 32 × this many of each
    /// shard's hottest index rows.
    pub warm_batch: usize,
    /// Full passes over a job's candidate shards before it is shed.
    pub retry_rounds: usize,
    /// Sleep before the second candidate pass; doubles per pass. A
    /// saturated shard's `retry-after` header, when present, replaces
    /// this schedule for the next pass.
    pub retry_backoff: Duration,
    /// Hard cap on any single inter-pass sleep, whether it came from
    /// the doubling schedule or a shard's `retry-after`.
    pub retry_backoff_cap: Duration,
    /// Read timeout on every sentinel probe/convergence request, so one
    /// stalled shard cannot wedge a probe cycle.
    pub probe_timeout: Duration,
    /// Chaos fault injection (see `fq-faults`): armed on the accept
    /// path, every forwarder/batch/sentinel connection pool, and
    /// nothing else. `None` (the default and only production setting)
    /// costs nothing.
    pub fault_plan: Option<Arc<fq_faults::FaultPlan>>,
}

impl Default for DispatchConfig {
    fn default() -> DispatchConfig {
        DispatchConfig {
            addr: "127.0.0.1:0".into(),
            shards: Vec::new(),
            forwarders: 8,
            queue_capacity: 256,
            job_ttl: Duration::from_secs(3600),
            max_done_jobs: 4096,
            sync_wait: Duration::from_secs(120),
            max_body_bytes: 16 * 1024 * 1024,
            read_timeout: Duration::from_secs(30),
            request_deadline: Duration::from_secs(60),
            max_connections: 256,
            auth_token: None,
            sentinel_interval: Duration::from_secs(2),
            warm_batch: 8,
            retry_rounds: 2,
            retry_backoff: Duration::from_millis(50),
            retry_backoff_cap: Duration::from_secs(2),
            probe_timeout: Duration::from_secs(2),
            fault_plan: None,
        }
    }
}

impl DispatchConfig {
    fn policy(&self) -> ForwardPolicy {
        ForwardPolicy {
            rounds: self.retry_rounds,
            backoff: self.retry_backoff,
            max_backoff: self.retry_backoff_cap,
            ..ForwardPolicy::default()
        }
    }
}

/// Everything the request handlers share.
#[derive(Debug)]
struct DispatchState {
    /// Queued forwards carry the request body verbatim and its routing
    /// fingerprint; outcomes are the owning shard's answers.
    jobs: Arc<Jobs<(String, String), Outcome>>,
    table: Arc<ShardTable>,
    metrics: Arc<Metrics>,
    config: DispatchConfig,
    started: Instant,
}

/// The dispatcher service. [`Dispatcher::spawn`] starts it on
/// background threads and returns a [`DispatchHandle`].
#[derive(Debug)]
pub struct Dispatcher;

/// A running dispatcher: address discovery plus orderly shutdown — the
/// shard's handle, since both run on the same listener. Dropping it
/// shuts everything down.
pub type DispatchHandle = fq_serve::ServerHandle;

impl Dispatcher {
    /// Binds, spawns the forwarder pool, the sentinel and the accept
    /// loop, and returns.
    ///
    /// # Errors
    ///
    /// [`FqError::InvalidConfig`] for an empty shard list or zero
    /// `queue_capacity`/`max_connections`; [`FqError::Io`] for bind
    /// failures.
    pub fn spawn(config: DispatchConfig) -> Result<DispatchHandle, FqError> {
        if config.shards.is_empty() {
            return Err(FqError::InvalidConfig(
                "at least one shard address is required".into(),
            ));
        }
        let jobs = Arc::new(Jobs::new(
            config.queue_capacity,
            config.job_ttl,
            config.max_done_jobs,
            config.sync_wait,
        )?);
        let listener = Listener::bind(
            &config.addr,
            Limits {
                max_connections: config.max_connections,
                max_body_bytes: config.max_body_bytes,
                read_timeout: config.read_timeout,
                request_deadline: config.request_deadline,
                fault_plan: config.fault_plan.clone(),
            },
        )?;

        let table = Arc::new(ShardTable::new(&config.shards));
        let metrics = Arc::new(Metrics::default());
        let pool = WorkerPool::spawn("fq-dispatch-forward", config.forwarders, &jobs, || {
            let mut pool =
                ConnPool::new(config.auth_token.clone()).with_fault_plan(config.fault_plan.clone());
            let table = Arc::clone(&table);
            let metrics = Arc::clone(&metrics);
            let policy = config.policy();
            move |(body, fingerprint): &(String, String)| {
                forward_job(&mut pool, &table, &policy, &metrics, body, fingerprint)
            }
        });

        let sentinel = sentinel::spawn(
            Arc::clone(&table),
            Arc::clone(&metrics),
            config.auth_token.clone(),
            SentinelConfig {
                interval: config.sentinel_interval,
                warm_batch: config.warm_batch,
                probe_timeout: config.probe_timeout,
                fault_plan: config.fault_plan.clone(),
            },
            listener.stop_flag(),
        );

        let state = Arc::new(DispatchState {
            jobs: Arc::clone(&jobs),
            table,
            metrics,
            config,
            started: Instant::now(),
        });
        listener.serve(
            "fq-dispatch",
            move |request| handle_request(&state, request),
            move || {
                jobs.close();
                pool.join();
                let _ = sentinel.join();
            },
        )
    }
}

/// Routes and executes one request.
fn handle_request(state: &DispatchState, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/v1/healthz") => Response::json(200, healthz_body()),
        (method, "/v1/healthz") => method_not_allowed(method, "GET"),
        ("GET", "/v1/stats") => Response::json(200, stats_body(state)),
        (method, "/v1/stats") => method_not_allowed(method, "GET"),
        ("POST", "/v1/jobs") => state.jobs.submit(request, |body| {
            Ok((body.to_string(), routing_fingerprint(body)))
        }),
        (method, "/v1/jobs") => method_not_allowed(method, "POST"),
        ("POST", "/v1/batch") => handle_batch(state, request),
        (method, "/v1/batch") => method_not_allowed(method, "POST"),
        ("GET", "/v1/shards") => Response::json(200, shards_body(state)),
        ("POST", "/v1/shards") => match request.authorized(state.config.auth_token.as_deref()) {
            true => handle_shard_join(state, request),
            false => error_response(
                401,
                "unauthorized",
                "POST /v1/shards requires `authorization: Bearer <token>`",
            ),
        },
        (method, "/v1/shards") => method_not_allowed(method, "GET, POST"),
        (_, path) => match path.strip_prefix("/v1/jobs/") {
            Some(raw_id) => state.jobs.poll_request(request, raw_id),
            None => not_found(path),
        },
    }
}

/// The routing key for a spec body: the fingerprint of the *last* unit
/// the engine would compile (the frozen-side template for compare
/// jobs). A body that fails to parse or fingerprint routes under the
/// empty key — consistently, to a real shard, which then produces
/// exactly the error bytes it would have produced face to face. The
/// dispatcher never pre-judges a spec.
fn routing_fingerprint(body: &str) -> String {
    JobSpec::from_json(body)
        .ok()
        .and_then(|spec| spec.routing_fingerprint().ok())
        .unwrap_or_default()
}

/// `POST /v1/batch`: a JSON array of job specs, scattered over the
/// fleet and merged in job order.
///
/// Jobs are grouped by their fingerprint's primary shard; one scatter
/// thread per group forwards its jobs in order over a single keep-alive
/// connection. The response is `{"v":1,"results":[...]}` with one
/// `{"status":...,"body":...}` element per submitted spec, where a
/// `200` element's `body` is the shard's canonical result document —
/// byte-identical (after extraction) to a single `BatchRunner` run.
fn handle_batch(state: &DispatchState, request: &Request) -> Response {
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return error_response(400, "bad_request", "request body is not valid UTF-8");
    };
    let parsed = match Value::parse(body) {
        Ok(value) => value,
        Err(error) => return error_response(400, "bad_request", &error.to_string()),
    };
    let Value::Array(items) = parsed else {
        return error_response(
            400,
            "bad_request",
            "batch body must be a JSON array of job specs",
        );
    };

    // Canonical per-item bytes + routing keys.
    let jobs: Vec<(String, String)> = items
        .iter()
        .map(|item| {
            let body = item.to_json();
            let fingerprint = routing_fingerprint(&body);
            (body, fingerprint)
        })
        .collect();

    // Group job indices by primary shard so each group rides one
    // keep-alive connection in submission order.
    let mut groups: std::collections::BTreeMap<String, Vec<usize>> =
        std::collections::BTreeMap::new();
    for (index, (_, fingerprint)) in jobs.iter().enumerate() {
        let primary = state
            .table
            .candidates(fingerprint)
            .into_iter()
            .next()
            .unwrap_or_default();
        groups.entry(primary).or_default().push(index);
    }

    let policy = state.config.policy();
    let mut outcomes: Vec<Option<Outcome>> = vec![None; jobs.len()];
    let collected: Vec<(usize, Outcome)> = std::thread::scope(|scope| {
        let handles: Vec<_> = groups
            .values()
            .map(|indices| {
                let jobs = &jobs;
                let table = &state.table;
                let metrics = &state.metrics;
                let policy = &policy;
                let token = state.config.auth_token.clone();
                let fault_plan = state.config.fault_plan.clone();
                scope.spawn(move || {
                    let mut pool = ConnPool::new(token).with_fault_plan(fault_plan);
                    indices
                        .iter()
                        .map(|&index| {
                            let (body, fingerprint) = &jobs[index];
                            let outcome =
                                forward_job(&mut pool, table, policy, metrics, body, fingerprint);
                            (index, outcome)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|handle| handle.join().unwrap_or_default())
            .collect()
    });
    for (index, outcome) in collected {
        outcomes[index] = Some(outcome);
    }

    let results: Vec<Value> = outcomes
        .into_iter()
        .map(|outcome| {
            let outcome = outcome.unwrap_or(Outcome {
                status: 500,
                body: fq_serve::error::error_body("internal", "scatter thread failed"),
            });
            Value::object(vec![
                ("status", Value::UInt(u64::from(outcome.status))),
                (
                    "body",
                    Value::parse(&outcome.body).unwrap_or_else(|_| Value::string(outcome.body)),
                ),
            ])
        })
        .collect();
    Response::json(
        200,
        Value::object(vec![
            ("v", Value::UInt(WIRE_V)),
            ("results", Value::Array(results)),
        ])
        .to_json(),
    )
}

/// `POST /v1/shards`: admin join — `{"addr":"host:port"}`.
fn handle_shard_join(state: &DispatchState, request: &Request) -> Response {
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return error_response(400, "bad_request", "request body is not valid UTF-8");
    };
    let addr = match Value::parse(body).and_then(|v| Ok(v.field("addr")?.as_str()?.to_string())) {
        Ok(addr) if !addr.is_empty() => addr,
        _ => {
            return error_response(
                400,
                "bad_request",
                "expected a JSON object with a non-empty `addr` string",
            )
        }
    };
    let joined = state.table.join(&addr);
    Response::json(
        200,
        Value::object(vec![
            ("v", Value::UInt(WIRE_V)),
            (
                "status",
                Value::string(if joined { "joined" } else { "already_present" }),
            ),
            ("shards", Value::UInt(state.table.addrs().len() as u64)),
        ])
        .to_json(),
    )
}

/// The shard roster with per-shard health and telemetry.
fn shards_array(state: &DispatchState) -> Value {
    Value::Array(
        state
            .table
            .snapshot()
            .into_iter()
            .map(|shard| {
                Value::object(vec![
                    ("addr", Value::string(shard.addr)),
                    ("healthy", Value::Bool(shard.healthy)),
                    (
                        "consecutive_failures",
                        Value::UInt(u64::from(shard.consecutive_failures)),
                    ),
                    ("probed", Value::Bool(shard.probed)),
                    (
                        "cache",
                        Value::object(vec![
                            ("hits", Value::UInt(shard.stats.hits)),
                            ("misses", Value::UInt(shard.stats.misses)),
                        ]),
                    ),
                    ("queue_depth", Value::UInt(shard.stats.queue_depth)),
                    ("busy", Value::UInt(shard.stats.busy)),
                    ("uptime_secs", Value::UInt(shard.stats.uptime_secs)),
                    ("templates", Value::UInt(shard.stats.templates)),
                ])
            })
            .collect(),
    )
}

fn shards_body(state: &DispatchState) -> String {
    Value::object(vec![
        ("v", Value::UInt(WIRE_V)),
        ("shards", shards_array(state)),
    ])
    .to_json()
}

/// `GET /v1/stats`: the cluster view — shard roster, queue, job
/// counters, forwarding metrics, uptime.
fn stats_body(state: &DispatchState) -> String {
    Value::object(vec![
        ("v", Value::UInt(WIRE_V)),
        ("shards", shards_array(state)),
        ("queue", state.jobs.queue_stats()),
        ("jobs", Value::object(state.jobs.job_counts())),
        (
            "forward",
            Value::object(vec![
                (
                    "forwarded",
                    Value::UInt(state.metrics.forwarded.load(Ordering::Relaxed)),
                ),
                (
                    "rerouted",
                    Value::UInt(state.metrics.rerouted.load(Ordering::Relaxed)),
                ),
                (
                    "shed",
                    Value::UInt(state.metrics.shed.load(Ordering::Relaxed)),
                ),
                (
                    "warm_pushes",
                    Value::UInt(state.metrics.warm_pushes.load(Ordering::Relaxed)),
                ),
                (
                    "warm_refused",
                    Value::UInt(state.metrics.warm_refused.load(Ordering::Relaxed)),
                ),
            ]),
        ),
        (
            "uptime_secs",
            Value::UInt(state.started.elapsed().as_secs()),
        ),
    ])
    .to_json()
}
