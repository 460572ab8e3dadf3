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
use frozenqubits::api::BackendSpec;
use frozenqubits::{
    BatchRunner, DiskStore, FqError, JobResult, JobSpec, MemoryStore, QosTier, TemplateArtifact,
    TemplateStore, TieredStore,
};
use serde::json::Value;

use crate::error::{error_response, kind_name, method_not_allowed, not_found, status_for};
use crate::http::{Request, Response};
use crate::jobs::Jobs;
use crate::listener::{Limits, Listener, ServerHandle};
use crate::router::{route, Route};
use crate::wire::{healthz_body, WIRE_V};
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
    /// Optional LRU bound on the shared template cache
    /// ([`BatchRunner::with_cache_capacity`]); `None` = unbounded.
    pub cache_capacity: Option<usize>,
    /// When set, compiled templates spill to (and warm-start from) this
    /// directory through a [`TieredStore`]: every compile is written
    /// through to disk, restarts find it there, and the LRU bound (if
    /// any) demotes instead of discarding. `None` = memory only.
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
    /// Thread count each worker's engine uses for one job's branches
    /// (`BatchRunner::with_threads`). The default `1` is right when
    /// parallelism comes from concurrent workers; raise it for
    /// branch-heavy single jobs on an otherwise idle service. `0` =
    /// the engine's auto count (honors `FQ_THREADS`).
    pub engine_threads: usize,
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
    /// When set, every submitted spec is pinned to this backend
    /// ([`JobSpec::with_backend`]) — the operator's backend-selection
    /// hook (e.g. forcing `sim` while a real-device backend is in
    /// shakedown).
    pub backend_override: Option<BackendSpec>,
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
            engine_threads: 1,
            max_body_bytes: 4 * 1024 * 1024,
            read_timeout: Duration::from_secs(30),
            request_deadline: Duration::from_secs(60),
            max_connections: 256,
            sync_wait: Duration::from_secs(120),
            backend_override: None,
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

        let mut runner = BatchRunner::new().with_threads(config.engine_threads);
        runner = match (&config.cache_dir, config.cache_capacity) {
            // A cache dir composes the memory tier (bounded or not) over
            // the disk spill tier; a bad directory is a startup error.
            (Some(dir), capacity) => {
                let memory = capacity.map_or_else(MemoryStore::new, MemoryStore::with_capacity);
                let tiered: Box<dyn TemplateStore> =
                    Box::new(TieredStore::new(memory, DiskStore::new(dir)?));
                runner.with_store(faulted(tiered, config.fault_plan.as_ref()))
            }
            // A fault plan forces the explicit-store path even without a
            // cache dir, so storage faults can wrap the memory tier; the
            // store built here is exactly what `with_cache_capacity`
            // would have installed.
            (None, capacity) if config.fault_plan.is_some() => {
                let memory = capacity.map_or_else(MemoryStore::new, MemoryStore::with_capacity);
                runner.with_store(faulted(Box::new(memory), config.fault_plan.as_ref()))
            }
            (None, Some(capacity)) => runner.with_cache_capacity(capacity),
            (None, None) => runner,
        };
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

/// Routes and executes one request.
fn handle_request(state: &ServerState, request: &Request) -> Response {
    match route(&request.method, &request.path) {
        Route::Healthz => Response::json(200, healthz_body()),
        Route::Stats => Response::json(200, stats_body(state)),
        Route::Submit => state.jobs.submit(request, |body| parse_spec(state, body)),
        Route::Job(id) => state.jobs.poll(id),
        // The message is `JobId::FromStr`'s own (carried through the
        // router), so the wire-facing text has exactly one source.
        Route::MalformedJobId(message) => error_response(400, "bad_request", &message),
        Route::TemplateIndex => match index_limit(request) {
            Ok(limit) => Response::json(200, template_index_body(state, limit)),
            Err(message) => error_response(400, "bad_request", &message),
        },
        Route::Template(fingerprint) => match state.runner.cache().artifact(&fingerprint) {
            Some(artifact) => Response::json(200, artifact.to_json()),
            None => error_response(
                404,
                "not_found",
                &format!("no template `{fingerprint}` resident"),
            ),
        },
        Route::TemplatePush => match request.authorized(state.config.auth_token.as_deref()) {
            true => handle_template_push(state, request),
            false => error_response(
                401,
                "unauthorized",
                "POST /v1/templates requires `authorization: Bearer <token>`",
            ),
        },
        Route::MalformedFingerprint(message) => error_response(400, "bad_request", &message),
        Route::MethodNotAllowed { allow } => method_not_allowed(&request.method, allow),
        Route::NotFound => not_found(&request.path),
    }
}

/// The shard's parse of a `POST /v1/jobs` body: decode the spec, apply
/// the operator's backend pin, and count the submission's tier.
fn parse_spec(state: &ServerState, body: &str) -> Result<JobSpec, Response> {
    let spec = JobSpec::from_json(body).map_err(|error| {
        error_response(status_for(&error), kind_name(&error), &error.to_string())
    })?;
    let spec = match state.config.backend_override {
        Some(backend) => spec.with_backend(backend),
        None => spec,
    };
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

/// The `?limit=K` of `GET /v1/templates`: `None` when absent, an error
/// message when it is not a non-negative integer.
fn index_limit(request: &Request) -> Result<Option<usize>, String> {
    request
        .query_param("limit")
        .map(|raw| {
            raw.parse()
                .map_err(|_| format!("`limit` must be a non-negative integer (got `{raw}`)"))
        })
        .transpose()
}

/// `GET /v1/templates[?limit=K]`: resident templates' fingerprints with
/// a recency stamp, hottest first — all of them, or the `K` hottest.
/// What a peer pulls to plan its warm set, and what the dispatcher's
/// sentinel probes to find strays.
fn template_index_body(state: &ServerState, limit: Option<usize>) -> String {
    Value::object(vec![
        ("v", Value::UInt(WIRE_V)),
        (
            "templates",
            Value::Array(
                state
                    .runner
                    .cache()
                    .index()
                    .into_iter()
                    .take(limit.unwrap_or(usize::MAX))
                    .map(|entry| {
                        Value::object(vec![
                            ("fingerprint", Value::string(entry.fingerprint)),
                            ("last_used", Value::UInt(entry.last_used)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
    .to_json()
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
