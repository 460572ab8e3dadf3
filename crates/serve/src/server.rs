//! The shard proper: configuration, the endpoint implementations, and
//! the wiring of the shared substrate — the [`Listener`], the [`Jobs`]
//! desk and the [`WorkerPool`] — around one shared `BatchRunner`.
//!
//! The data path is
//!
//! ```text
//! Listener ──▶ connection threads ──▶ Jobs: bounded queue ──▶ worker pool
//!                 (parse spec,              │                    │
//!                  mint JobId)              ▼                    ▼
//!                                      503 when full      shared BatchRunner
//!                                                         (one TemplateCache —
//!                                                          clients warm each other)
//! ```
//!
//! Submissions are synchronous by default (`POST /v1/jobs` blocks until
//! the job finishes and returns the bare canonical `JobResult` JSON) or
//! asynchronous with `?mode=async` (`202` + id, poll `GET
//! /v1/jobs/{id}`). Either way the job goes through the same queue and
//! workers, so backpressure and cache warming behave identically.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fq_faults::{FaultPlan, FaultyStore};
use frozenqubits::{
    BatchRunner, FqError, JobResult, JobSpec, MemoryStore, QosTier, TemplateArtifact, TemplateStore,
};
use serde::json::Value;

use crate::error::{error_response, kind_name, method_not_allowed, not_found, status_for};
use crate::http::{Request, Response};
use crate::jobs::Jobs;
use crate::listener::{Limits, Listener, ServerHandle};
use crate::wire::{healthz_body, template_index_body, WIRE_V};
use crate::worker::{execute, WorkerPool};

/// Server configuration. Start from [`ServerConfig::default`] and
/// override what you need; every field has a conservative default.
///
/// # Examples
///
/// ```no_run
/// use fq_serve::{Server, ServerConfig};
///
/// let config = ServerConfig {
///     addr: "127.0.0.1:8077".into(),
///     workers: 8,
///     ..ServerConfig::default()
/// };
/// let handle = Server::spawn(config)?;
/// println!("listening on http://{}", handle.addr());
/// handle.join();
/// # Ok::<(), frozenqubits::FqError>(())
/// ```
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address. `127.0.0.1:0` (the default) picks an ephemeral
    /// loopback port — read the actual one from [`ServerHandle::addr`].
    pub addr: String,
    /// Worker threads draining the queue. `0` is legal and means jobs
    /// queue without executing (useful for backpressure tests and
    /// drain-later setups); synchronous submissions then time out.
    pub workers: usize,
    /// Bound on queued-but-unclaimed jobs; beyond it submissions get
    /// `503`. Must be ≥ 1.
    pub queue_capacity: usize,
    /// Optional LRU bound on the shared template cache's memory tier
    /// ([`MemoryStore::with_capacity`]); `None` = unbounded.
    pub cache_capacity: Option<usize>,
    /// When set, the template store spills to (and warm-starts from)
    /// this directory ([`MemoryStore::spill_to`]): every compile is
    /// written through to disk, restarts find it there, and the LRU bound
    /// (if any) demotes instead of discarding. `None` = memory only.
    pub cache_dir: Option<String>,
    /// When set, pull the peer shard's hottest templates into this
    /// server's store at boot (`GET /v1/templates?limit=<warm_limit>` on
    /// the peer, then one `GET /v1/templates/{fingerprint}` per pulled
    /// artifact). Best effort: an unreachable peer logs to stderr and
    /// the server starts cold.
    pub warm_from: Option<String>,
    /// Most templates pulled from `warm_from` at boot.
    pub warm_limit: usize,
    /// Residency bound gating `POST /v1/templates`: pushes are refused
    /// (`503` + kind `cache_full`) once the store holds this many
    /// distinct artifacts (one written through to both tiers counts
    /// once). Organic compiles are bounded by the workload's shape
    /// space, but pushes are remote input — without a cap an
    /// unauthenticated client could grow an unbounded store (or the
    /// disk spill directory) without limit.
    pub template_push_cap: usize,
    /// How long a finished job's result is retained for polling before
    /// the registry expires it (poll-after-expiry → `410 Gone`).
    pub job_ttl: Duration,
    /// Most finished results retained at once (oldest-completed expire
    /// first).
    pub max_done_jobs: usize,
    /// Largest accepted request body, in bytes; beyond it → `413`.
    pub max_body_bytes: usize,
    /// Socket read timeout — bounds how long any **single** read may
    /// block (idle keep-alive connections, stalled senders).
    pub read_timeout: Duration,
    /// Wall-clock budget for receiving one complete request. The socket
    /// timeout resets per read, so a slow-drip client could otherwise
    /// hold a connection thread forever; past this deadline the request
    /// fails with `400` (worst case one extra `read_timeout` for a read
    /// already in flight).
    pub request_deadline: Duration,
    /// Most concurrent connections served; beyond it new connections
    /// are shed immediately with `503` instead of spawning unboundedly
    /// many threads.
    pub max_connections: usize,
    /// How long a synchronous submission waits before degrading to an
    /// async-style `202` (the job keeps running; poll the id).
    pub sync_wait: Duration,
    /// When set, `POST /v1/templates` requires `authorization: Bearer
    /// <token>` and answers `401` otherwise. Template pushes inject
    /// remote artifacts into the execution path, so they are the one
    /// shard endpoint worth gating even on a trusted network; read
    /// endpoints stay open for probes and warm pulls.
    pub auth_token: Option<String>,
    /// Chaos-test fault injection (see `fq-faults`). When set, the
    /// template store is wrapped in a [`FaultyStore`], the accept loop
    /// rolls [`FaultSite::Accept`](fq_faults::FaultSite::Accept) per
    /// connection, and workers roll
    /// [`FaultSite::Worker`](fq_faults::FaultSite::Worker) per job. `None` (the default, and the only
    /// production setting) leaves every path byte-identical to a build
    /// without the hooks.
    pub fault_plan: Option<Arc<FaultPlan>>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_capacity: 64,
            cache_capacity: None,
            cache_dir: None,
            warm_from: None,
            warm_limit: 32,
            template_push_cap: 4096,
            job_ttl: Duration::from_secs(3600),
            max_done_jobs: 4096,
            max_body_bytes: 4 * 1024 * 1024,
            read_timeout: Duration::from_secs(30),
            request_deadline: Duration::from_secs(60),
            max_connections: 256,
            sync_wait: Duration::from_secs(120),
            auth_token: None,
            fault_plan: None,
        }
    }
}

/// Everything the request handlers share.
#[derive(Debug)]
struct ServerState {
    jobs: Arc<Jobs<JobSpec, Result<JobResult, FqError>>>,
    runner: Arc<BatchRunner>,
    config: ServerConfig,
    /// Workers executing a job right now (held high by each job's
    /// execution span) — the in-flight half of `/v1/stats`.
    busy: Arc<AtomicUsize>,
    /// When the server came up; `/v1/stats` reports the elapsed time so
    /// a dispatcher can tell a fresh (cold-cache) shard from a veteran.
    started: Instant,
    /// Accepted submissions per QoS tier, indexed by [`QosTier::ALL`]
    /// order — the `jobs.tiers` object of `/v1/stats`, so operators can
    /// see the exact/balanced/fast mix a shard is absorbing.
    tier_submitted: [AtomicUsize; QosTier::ALL.len()],
}

/// The HTTP job service. [`Server::spawn`] starts it on a background
/// accept thread and returns a [`ServerHandle`] for address discovery
/// and shutdown.
#[derive(Debug)]
pub struct Server;

impl Server {
    /// Binds, spawns the worker pool and the accept loop, and returns.
    ///
    /// # Errors
    ///
    /// [`FqError::InvalidConfig`] for a zero `queue_capacity`;
    /// [`FqError::Io`] when the bind fails.
    pub fn spawn(config: ServerConfig) -> Result<ServerHandle, FqError> {
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

        // The memory tier, over the disk spill tier when a cache dir is
        // set (a bad directory is a startup error), under the chaos
        // plan's storage faults when one is armed. Each job runs its
        // branches on its worker's thread: the worker pool is the
        // shard's parallelism.
        let memory = config
            .cache_capacity
            .map_or_else(MemoryStore::new, MemoryStore::with_capacity);
        let store = match &config.cache_dir {
            Some(dir) => memory.spill_to(dir)?,
            None => memory,
        };
        let runner = BatchRunner::new()
            .with_threads(1)
            .with_store(faulted(Box::new(store), config.fault_plan.as_ref()));
        if let Some(peer) = &config.warm_from {
            // Best effort: a cold start is a performance problem, a
            // refused boot would be an availability one.
            match crate::client::warm_from(peer, runner.cache(), config.warm_limit) {
                Ok(pulled) => {
                    if pulled > 0 {
                        eprintln!("fq-serve: warm-started with {pulled} templates from {peer}");
                    }
                }
                Err(error) => {
                    eprintln!(
                        "fq-serve: warm transfer from {peer} failed ({error}); starting cold"
                    );
                }
            }
        }
        let runner = Arc::new(runner);
        let busy = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::spawn("fq-serve-worker", config.workers, &jobs, || {
            let runner = Arc::clone(&runner);
            let busy = Arc::clone(&busy);
            let fault_plan = config.fault_plan.clone();
            move |spec: &JobSpec| execute(&runner, &busy, fault_plan.as_deref(), spec)
        });
        let state = Arc::new(ServerState {
            jobs: Arc::clone(&jobs),
            runner,
            config,
            busy,
            started: Instant::now(),
            tier_submitted: Default::default(),
        });
        listener.serve(
            "fq-serve",
            move |request| handle_request(&state, request),
            move || {
                jobs.close();
                pool.join();
            },
        )
    }
}

/// Wraps `store` in a [`FaultyStore`] when a chaos plan is configured;
/// the identity function otherwise.
fn faulted(store: Box<dyn TemplateStore>, plan: Option<&Arc<FaultPlan>>) -> Box<dyn TemplateStore> {
    match plan {
        Some(plan) => Box::new(FaultyStore::new(store, Arc::clone(plan))),
        None => store,
    }
}

/// Routes and executes one request. The surface is versioned under
/// `/v1`; a known path with the wrong method gets `405` with an `Allow`
/// header, anything else `404`. Trailing slashes are not aliased.
fn handle_request(state: &ServerState, request: &Request) -> Response {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/v1/healthz") => Response::json(200, healthz_body()),
        (method, "/v1/healthz") => method_not_allowed(method, "GET"),
        ("GET", "/v1/stats") => Response::json(200, stats_body(state)),
        (method, "/v1/stats") => method_not_allowed(method, "GET"),
        ("POST", "/v1/jobs") => state.jobs.submit(request, |body| parse_spec(state, body)),
        (method, "/v1/jobs") => method_not_allowed(method, "POST"),
        ("GET", "/v1/templates") => match index_limit(request) {
            Ok(limit) => {
                let index = state.runner.cache().index().into_iter().take(limit);
                Response::json(200, template_index_body(index))
            }
            Err(message) => error_response(400, "bad_request", &message),
        },
        ("POST", "/v1/templates") => match request.authorized(state.config.auth_token.as_deref()) {
            true => handle_template_push(state, request),
            false => error_response(
                401,
                "unauthorized",
                "POST /v1/templates requires `authorization: Bearer <token>`",
            ),
        },
        (method, "/v1/templates") => method_not_allowed(method, "GET, POST"),
        (_, path) => {
            if let Some(raw_id) = path.strip_prefix("/v1/jobs/") {
                state.jobs.poll_request(request, raw_id)
            } else if let Some(raw_fp) = path.strip_prefix("/v1/templates/") {
                template_artifact(state, request, raw_fp)
            } else {
                not_found(path)
            }
        }
    }
}

/// Answers a bare `method path` request (no query, headers or body)
/// in-process, through [`handle_request`] on a default-configured shard
/// with no workers and an empty store — the routing table's unit tests
/// run on it without a socket.
#[cfg(test)]
pub(crate) fn respond(method: &str, path: &str) -> Response {
    let config = ServerConfig::default();
    let jobs = Jobs::new(
        config.queue_capacity,
        config.job_ttl,
        config.max_done_jobs,
        config.sync_wait,
    )
    .expect("the default queue capacity is non-zero");
    let state = ServerState {
        jobs: Arc::new(jobs),
        runner: Arc::new(BatchRunner::new()),
        config,
        busy: Arc::new(AtomicUsize::new(0)),
        started: Instant::now(),
        tier_submitted: Default::default(),
    };
    let request = Request {
        method: method.into(),
        path: path.into(),
        query: None,
        body: Vec::new(),
        keep_alive: false,
        headers: Vec::new(),
    };
    handle_request(&state, &request)
}

/// `GET /v1/templates/{fingerprint}`, with `raw_fp` the rest of the
/// path: one serialized template artifact. An empty or nested
/// fingerprint is `404`, another method `405`, and a fingerprint that is
/// not 16 lower-case hex digits `400`.
fn template_artifact(state: &ServerState, request: &Request, raw_fp: &str) -> Response {
    if raw_fp.is_empty() || raw_fp.contains('/') {
        return not_found(&request.path);
    }
    if request.method != "GET" {
        return method_not_allowed(&request.method, "GET");
    }
    // One source for the format check: the core validator the stores
    // themselves use.
    if !frozenqubits::is_template_fingerprint(raw_fp) {
        return error_response(
            400,
            "bad_request",
            &format!(
                "malformed template fingerprint `{raw_fp}` (expected 16 lower-case hex digits)"
            ),
        );
    }
    match state.runner.cache().artifact(raw_fp) {
        Some(artifact) => Response::json(200, artifact.to_json()),
        None => error_response(
            404,
            "not_found",
            &format!("no template `{raw_fp}` resident"),
        ),
    }
}

/// The shard's parse of a `POST /v1/jobs` body: decode the spec and
/// count the submission's tier.
fn parse_spec(state: &ServerState, body: &str) -> Result<JobSpec, Response> {
    let spec = JobSpec::from_json(body).map_err(|error| {
        error_response(status_for(&error), kind_name(&error), &error.to_string())
    })?;
    if let Some(slot) = QosTier::ALL.iter().position(|&t| t == spec.config.tier) {
        state.tier_submitted[slot].fetch_add(1, Ordering::SeqCst);
    }
    Ok(spec)
}

/// `POST /v1/templates`: accept a serialized template artifact into the
/// shared store — the receive half of shard-to-shard warm transfer. The
/// artifact's own integrity checks (version, fingerprint-vs-key,
/// template width) gate admission; a rejected artifact is a `400`, and
/// an accepted one is immediately servable to every queued job and to
/// further `GET /v1/templates/{fingerprint}` pulls.
fn handle_template_push(state: &ServerState, request: &Request) -> Response {
    // Pushes are remote input: refuse beyond the residency cap so an
    // unauthenticated peer cannot grow the store (or its disk spill)
    // without bound. Organic compiles are not gated — the workload's
    // own shape space bounds those (plus the LRU, when configured).
    // An artifact written through to both tiers counts once.
    let resident = state.runner.cache_stats().resident;
    if resident >= state.config.template_push_cap {
        return error_response(
            503,
            "cache_full",
            &format!(
                "template store holds {resident} artifacts (push cap {}); raise \
                 --template-push-cap or bound the store with --cache-capacity",
                state.config.template_push_cap
            ),
        );
    }
    let Ok(body) = std::str::from_utf8(&request.body) else {
        return error_response(400, "bad_request", "request body is not valid UTF-8");
    };
    match TemplateArtifact::from_json(body) {
        Ok(artifact) => {
            let fingerprint = artifact.fingerprint();
            state.runner.cache().insert_artifact(&artifact);
            Response::json(
                200,
                Value::object(vec![
                    ("v", Value::UInt(WIRE_V)),
                    ("status", Value::string("stored")),
                    ("fingerprint", Value::string(fingerprint)),
                ])
                .to_json(),
            )
        }
        Err(error) => error_response(status_for(&error), kind_name(&error), &error.to_string()),
    }
}

/// The `?limit=K` of `GET /v1/templates`: `usize::MAX` when absent, an
/// error message when it is not a non-negative integer.
fn index_limit(request: &Request) -> Result<usize, String> {
    request.query_param("limit").map_or(Ok(usize::MAX), |raw| {
        raw.parse()
            .map_err(|_| format!("`limit` must be a non-negative integer (got `{raw}`)"))
    })
}

/// `GET /v1/stats`: cache, queue, job and worker telemetry.
fn stats_body(state: &ServerState) -> String {
    let cache = state.runner.cache_stats();
    let mut jobs = state.jobs.job_counts();
    jobs.push((
        "tiers",
        Value::object(
            QosTier::ALL
                .iter()
                .zip(&state.tier_submitted)
                .map(|(tier, count)| {
                    (
                        tier.name(),
                        Value::UInt(count.load(Ordering::SeqCst) as u64),
                    )
                })
                .collect(),
        ),
    ));
    Value::object(vec![
        ("v", Value::UInt(WIRE_V)),
        (
            "cache",
            Value::object(vec![
                ("hits", Value::UInt(cache.hits)),
                ("misses", Value::UInt(cache.misses)),
                ("evictions", Value::UInt(cache.evictions)),
                ("len", Value::UInt(cache.len as u64)),
                (
                    "capacity",
                    cache
                        .capacity
                        .map_or(Value::Null, |c| Value::UInt(c as u64)),
                ),
                ("spills", Value::UInt(cache.spills)),
                ("promotions", Value::UInt(cache.promotions)),
                ("spill_len", Value::UInt(cache.spill_len as u64)),
                ("resident", Value::UInt(cache.resident as u64)),
            ]),
        ),
        ("queue", state.jobs.queue_stats()),
        ("jobs", Value::object(jobs)),
        (
            "workers",
            Value::object(vec![
                ("configured", Value::UInt(state.config.workers as u64)),
                (
                    "busy",
                    Value::UInt(state.busy.load(Ordering::SeqCst) as u64),
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
