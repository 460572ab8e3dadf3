//! The three workloads: set-up, the timed closed loop, the result check
//! and, in a traced run, the layer peel.
//!
//! Every workload does a fixed amount of work per run — `--seconds`
//! times a nominal rate of this workload, rounded up — so memory and
//! counters compare between commits. Load comes from this thread alone:
//! one request in flight, the next sent when the last one returned.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use fq_dispatch::{DispatchConfig, DispatchHandle, Dispatcher};
use fq_serve::client::{HttpResponse, ShardConn};
use fq_serve::{Server, ServerConfig, ServerHandle};
use fq_sim::analytic::PreparedP1;
use frozenqubits::api::{BackendSpec, BatchRunner, JobKind, JobResult, JobSpec};
use frozenqubits::{
    optimize_parameters_prepared, plan_execution_cached, ExecutorKind, FqError, FrozenQubitsConfig,
    TemplateCache,
};
use serde::json::Value;

use crate::inputs::{self, ColdInstance, Family, Stream};
use crate::stats::{fnv1a, median, nearest_rank, Digest};
use crate::sys::{self, Usage};
use crate::trace::{SpanId, Tracer};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The `core` corpus at the exact tier through `BatchRunner::new()`.
    SweepExact,
    /// Warm fast-tier `compare` jobs, sync `POST` to one live shard.
    ShardFast,
    /// Fast-tier frozen jobs on never-seen instances through a
    /// dispatcher over two shards.
    ClusterCold,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::SweepExact,
        Workload::ShardFast,
        Workload::ClusterCold,
    ];

    /// The name passed to `--workload`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::SweepExact => "sweep-exact",
            Workload::ShardFast => "shard-fast",
            Workload::ClusterCold => "cluster-cold",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Jobs per second of `--seconds` — the nominal rate that sizes a
    /// run's fixed job count (a run takes about `--seconds` on a 2-vCPU
    /// Xeon).
    fn nominal_rate(self) -> f64 {
        match self {
            Workload::SweepExact => 800.0,
            Workload::ShardFast => 10_000.0,
            Workload::ClusterCold => 700.0,
        }
    }

    /// The fixed job count of a run of `seconds` (whole batches on
    /// `sweep-exact`).
    #[must_use]
    pub fn jobs_for(self, seconds: f64) -> usize {
        let jobs = (seconds * self.nominal_rate()).ceil().max(1.0) as usize;
        match self {
            Workload::SweepExact => jobs.div_ceil(inputs::BATCH) * inputs::BATCH,
            _ => jobs,
        }
    }
}

/// One run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Sizes the job count (see [`Workload::jobs_for`]).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 7;

/// Jobs a traced run peels, and calls per entry point per job.
const PEEL_JOBS: usize = 24;
const PEEL_REPS: usize = 9;

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Jobs attempted in the timed phase.
    pub attempted: u64,
    /// Jobs that ended in an error or a wrong result.
    pub failed: u64,
    /// Jobs whose outcome differed from the reference.
    pub wrong: u64,
    /// Digest over every checked result, in job order.
    pub digest: Digest,
    /// Metric values by catalogue name.
    pub values: Vec<(&'static str, f64)>,
    /// Extra human-readable lines (failures, affinity, trace summary).
    pub notes: Vec<String>,
}

/// A job's observed or expected outcome: the hash of its canonical
/// result bytes, or its error kind.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Seen {
    Result(u64),
    Error(String),
}

impl Seen {
    fn of(result: &Result<JobResult, FqError>) -> (Seen, usize) {
        match result {
            Ok(result) => {
                let bytes = result.to_json();
                (Seen::Result(fnv1a(bytes.as_bytes())), bytes.len())
            }
            Err(error) => (
                Seen::Error(fq_serve::error::kind_name(error).to_string()),
                0,
            ),
        }
    }

    fn of_response(response: &Result<HttpResponse, FqError>) -> Seen {
        match response {
            Ok(r) if r.status == 200 => Seen::Result(fnv1a(r.body.as_bytes())),
            Ok(r) => Seen::Error(
                Value::parse(&r.body)
                    .ok()
                    .and_then(|v| {
                        v.get("error")
                            .and_then(|e| e.get("kind"))
                            .and_then(|k| k.as_str().ok().map(String::from))
                    })
                    .unwrap_or_else(|| format!("http-{}", r.status)),
            ),
            Err(error) => Seen::Error(format!("transport: {error}")),
        }
    }

    fn hash(&self) -> u64 {
        match self {
            Seen::Result(hash) => *hash,
            Seen::Error(kind) => fnv1a(format!("error:{kind}").as_bytes()),
        }
    }
}

/// Tally of a checked run.
#[derive(Debug, Default)]
struct Check {
    ok: u64,
    failed: u64,
    wrong: u64,
    digest: Digest,
    first_wrong: Vec<String>,
}

impl Check {
    fn record(&mut self, job: usize, seen: &Seen, expected: &Seen) {
        self.digest.push(seen.hash());
        let matches = seen == expected;
        if !matches {
            self.wrong += 1;
            if self.first_wrong.len() < 5 {
                self.first_wrong.push(format!(
                    "wrong job {job}: got {seen:?}, reference {expected:?}"
                ));
            }
        }
        if matches && matches!(seen, Seen::Result(_)) {
            self.ok += 1;
        } else {
            self.failed += 1;
        }
    }
}

/// The timed phase: per-request latencies, wall time, process usage,
/// and the traced/untraced split of a traced run.
#[derive(Debug, Default)]
struct Timed {
    latency_ns: Vec<u64>,
    wall_s: f64,
    usage: Usage,
    /// `[untraced, traced]` (wall ns, jobs) over alternating blocks.
    blocks: [(u64, u64); 2],
    untraced_latency_ns: Vec<u64>,
    /// Host steal time on the CPUs the loop ran on, averaged over them.
    steal_s: f64,
}

/// Runs `requests` closed-loop requests of `jobs_per_request` jobs. A
/// traced run alternates blocks of `block` requests with tracing off
/// and on; `send` performs request `i` and returns its latency.
fn closed_loop(
    requests: usize,
    jobs_per_request: u64,
    block: usize,
    root_name: &'static str,
    tracer: &mut Tracer,
    mut send: impl FnMut(usize, &mut Tracer, SpanId) -> Duration,
) -> Timed {
    let mut timed = Timed {
        latency_ns: Vec::with_capacity(requests),
        ..Timed::default()
    };
    let traced_run = tracer.enabled();
    let cpus = sys::allowed_cpus();
    let steal_before = sys::steal_ticks(&cpus);
    let before = Usage::now();
    let start = Instant::now();
    let mut i = 0;
    let mut block_index = 0;
    while i < requests {
        let end = (i + block).min(requests);
        let traced = traced_run && block_index % 2 == 1;
        tracer.set_active(traced);
        let block_start = Instant::now();
        for request in i..end {
            let root = tracer.begin(root_name, None, request as u64);
            let latency = send(request, tracer, root).as_nanos() as u64;
            tracer.end(root);
            timed.latency_ns.push(latency);
            if traced_run && !traced {
                timed.untraced_latency_ns.push(latency);
            }
        }
        let slot = &mut timed.blocks[usize::from(traced)];
        slot.0 += block_start.elapsed().as_nanos() as u64;
        slot.1 += (end - i) as u64 * jobs_per_request;
        i = end;
        block_index += 1;
    }
    timed.wall_s = start.elapsed().as_secs_f64();
    timed.usage = Usage::now().since(&before);
    timed.steal_s =
        (sys::steal_ticks(&cpus) - steal_before) as f64 / 100.0 / cpus.len().max(1) as f64;
    tracer.set_active(traced_run);
    timed
}

fn percentile_ms(latency_ns: &[u64], q: f64) -> f64 {
    let mut sorted: Vec<f64> = latency_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    sorted.sort_by(f64::total_cmp);
    nearest_rank(&sorted, q)
}

/// End-to-end and process metrics shared by every workload.
fn common_values(
    timed: &Timed,
    check: &Check,
    attempted: u64,
    setups: &[f64],
) -> Vec<(&'static str, f64)> {
    let jobs = attempted.max(1) as f64;
    let rate = |(ns, jobs): (u64, u64)| jobs as f64 / (ns.max(1) as f64 / 1e9);
    let overhead = if timed.blocks[1].1 > 0 {
        1.0 - rate(timed.blocks[1]) / rate(timed.blocks[0])
    } else {
        0.0
    };
    vec![
        ("setup_s", median(setups)),
        ("jobs_per_s", check.ok as f64 / timed.wall_s),
        ("latency_p50_ms", percentile_ms(&timed.latency_ns, 0.50)),
        ("latency_p99_ms", percentile_ms(&timed.latency_ns, 0.99)),
        ("cpu_ms_per_job", timed.usage.cpu_s * 1e3 / jobs),
        ("peak_rss_mb", timed.usage.max_rss_kb as f64 / 1024.0),
        ("failed_share", check.failed as f64 / jobs),
        (
            "proc.ctx_switches_per_job",
            timed.usage.ctx_switches as f64 / jobs,
        ),
        (
            "proc.minor_faults_per_job",
            timed.usage.minor_faults as f64 / jobs,
        ),
        (
            "client.latency_p99_ms",
            percentile_ms(&timed.untraced_latency_ns, 0.99),
        ),
        ("trace.overhead_share", overhead),
    ]
}

/// The reference outcomes: the same specs through a fresh in-process
/// `BatchRunner`, 256 jobs at a time.
fn reference(specs: &[JobSpec], runner: &BatchRunner) -> Vec<Seen> {
    specs
        .chunks(256)
        .flat_map(|chunk| {
            runner
                .run(chunk)
                .iter()
                .map(|r| Seen::of(r).0)
                .collect::<Vec<_>>()
        })
        .collect()
}

fn io(error: impl std::fmt::Display) -> String {
    error.to_string()
}

/// `GET path` on `conn`, parsed.
fn get_json(conn: &mut ShardConn, path: &str) -> Result<Value, String> {
    let response = conn.request("GET", path, None).map_err(io)?;
    if response.status != 200 {
        return Err(format!("GET {path}: HTTP {}", response.status));
    }
    Value::parse(&response.body).map_err(|e| e.0)
}

fn counter(value: &Value, path: &[&str]) -> u64 {
    let mut at = value;
    for key in path {
        match at.get(key) {
            Some(next) => at = next,
            None => return 0,
        }
    }
    at.as_u64().unwrap_or(0)
}

/// Template-cache and job counters summed over some shards.
#[derive(Clone, Copy, Debug, Default)]
struct ShardCounters {
    hits: u64,
    misses: u64,
    resident: u64,
}

fn shard_counters(conns: &mut [ShardConn]) -> Result<(ShardCounters, Vec<u64>), String> {
    let mut total = ShardCounters::default();
    let mut per_shard = Vec::new();
    for conn in conns {
        let stats = get_json(conn, "/v1/stats")?;
        total.hits += counter(&stats, &["cache", "hits"]);
        total.misses += counter(&stats, &["cache", "misses"]);
        total.resident += counter(&stats, &["cache", "len"]);
        per_shard.push(counter(&stats, &["jobs", "submitted"]));
    }
    Ok((total, per_shard))
}

/// Share of template lookups that hit; 1 when the timed phase looked
/// nothing up (every plan came from the approximate tiers' plan memo).
fn hit_share(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        1.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Counter deltas over the timed phase → `plan.*` and dispatch share.
fn cache_values(
    before: (ShardCounters, Vec<u64>),
    after: (ShardCounters, Vec<u64>),
    dispatched: bool,
) -> Vec<(&'static str, f64)> {
    let hits = after.0.hits - before.0.hits;
    let misses = after.0.misses - before.0.misses;
    let per_shard: Vec<u64> = after.1.iter().zip(&before.1).map(|(a, b)| a - b).collect();
    let total: u64 = per_shard.iter().sum();
    let owner_share = if dispatched && total > 0 {
        *per_shard.iter().max().unwrap_or(&0) as f64 / total as f64
    } else {
        0.0
    };
    vec![
        ("plan.hit_share", hit_share(hits, misses)),
        ("plan.templates_resident", after.0.resident as f64),
        ("dispatch.owner_share_max", owner_share),
    ]
}

/// One live shard plus a keep-alive connection to it. Fields drop in
/// order: the connection closes before the shard shuts down.
struct Shard {
    conn: ShardConn,
    handle: ServerHandle,
}

impl Shard {
    fn spawn() -> Result<Shard, String> {
        let handle = Server::spawn(ServerConfig::default()).map_err(io)?;
        Ok(Shard {
            conn: ShardConn::new(&handle.addr().to_string()),
            handle,
        })
    }

    fn addr(&self) -> String {
        self.handle.addr().to_string()
    }
}

/// A dispatcher over two default shards, plus a connection to each.
struct Cluster {
    front: ShardConn,
    dispatcher: DispatchHandle,
    shards: Vec<Shard>,
}

impl Cluster {
    fn spawn() -> Result<Cluster, String> {
        let shards = vec![Shard::spawn()?, Shard::spawn()?];
        let dispatcher = Dispatcher::spawn(DispatchConfig {
            shards: shards.iter().map(Shard::addr).collect(),
            ..DispatchConfig::default()
        })
        .map_err(io)?;
        Ok(Cluster {
            front: ShardConn::new(&dispatcher.addr().to_string()),
            dispatcher,
            shards,
        })
    }

    fn shard_addrs(&self) -> Vec<String> {
        self.shards.iter().map(Shard::addr).collect()
    }

    fn shard_conns(&self) -> Vec<ShardConn> {
        self.shard_addrs()
            .iter()
            .map(|a| ShardConn::new(a))
            .collect()
    }

    fn shutdown(self) {
        drop(self.front);
        self.dispatcher.shutdown();
        for shard in self.shards {
            drop(shard.conn);
            shard.handle.shutdown();
        }
    }
}

fn post(conn: &mut ShardConn, body: &str) -> Result<HttpResponse, FqError> {
    conn.request("POST", "/v1/jobs", Some(body))
}

/// Runs one workload.
///
/// # Errors
///
/// A message when set-up fails (a server cannot bind, a warm-up job
/// fails); wrong results are reported in the [`Outcome`], not here.
pub fn run(options: &Options, tracer: &mut Tracer) -> Result<Outcome, String> {
    // Set-up and the timed phase run on one CPU: a loopback hand-off
    // then never migrates between CPUs, and the run is exposed to one
    // CPU's worth of host contention (see NOTES.md). Every thread
    // spawned from here on inherits the mask; the engine's automatic
    // thread count follows it. References run on every CPU afterwards.
    let allowed = sys::allowed_cpus();
    let cpu = *allowed.last().ok_or("no CPU in the affinity mask")?;
    sys::set_cpus(&[cpu])?;
    let mut notes = vec![format!(
        "affinity: cpu {cpu} of {} for set-up, timed phase and peel",
        sys::cpu_list(&allowed)
    )];
    let mut outcome = match options.workload {
        Workload::SweepExact => sweep_exact(options, tracer, &allowed)?,
        Workload::ShardFast => shard_fast(options, tracer)?,
        Workload::ClusterCold => cluster_cold(options, tracer, &allowed)?,
    };
    notes.append(&mut outcome.notes);
    outcome.notes = notes;
    Ok(outcome)
}

fn finish(
    timed: &Timed,
    check: Check,
    attempted: u64,
    setups: &[f64],
    mut values: Vec<(&'static str, f64)>,
    mut notes: Vec<String>,
) -> Outcome {
    values.extend(common_values(timed, &check, attempted, setups));
    notes.extend(check.first_wrong.iter().cloned());
    notes.push(format!(
        "setup_s reps: {}",
        setups
            .iter()
            .map(|s| format!("{s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    notes.push(format!(
        "host steal during the timed phase: {:.2} s of {:.2} s ({:.1}%)",
        timed.steal_s,
        timed.wall_s,
        timed.steal_s / timed.wall_s * 100.0
    ));
    notes.push(format!(
        "latency samples: {} (p99 leaves {} beyond it)",
        timed.latency_ns.len(),
        timed.latency_ns.len() / 100
    ));
    Outcome {
        attempted,
        failed: check.failed,
        wrong: check.wrong,
        digest: check.digest,
        values,
        notes,
    }
}

// ---------------------------------------------------------------- sweep

fn sweep_exact(
    options: &Options,
    tracer: &mut Tracer,
    allowed: &[usize],
) -> Result<Outcome, String> {
    let batches = options.workload.jobs_for(options.seconds) / inputs::BATCH;
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        drop(live.take());
        let start = Instant::now();
        let scenarios = inputs::core_scenarios();
        let work: Vec<Vec<JobSpec>> = (0..batches as u64)
            .map(|b| inputs::sweep_batch(&scenarios, options.seed, Stream::Sweep, b))
            .collect();
        let runner = BatchRunner::new();
        for b in 0..2 {
            let warm = inputs::sweep_batch(&scenarios, options.seed, Stream::SweepWarmup, b);
            if let Some(Err(e)) = runner.run(&warm).into_iter().find(Result::is_err) {
                return Err(format!("sweep-exact warm-up job failed: {e}"));
            }
        }
        setups.push(start.elapsed().as_secs_f64());
        live = Some((work, runner));
    }
    let (work, runner) = live.expect("at least one set-up");

    let stats_before = runner.cache_stats();
    let compiles_before = fq_transpile::compile_invocations();
    let mut seen = Vec::with_capacity(batches * inputs::BATCH);
    let mut response_bytes = 0usize;
    let timed = closed_loop(
        batches,
        inputs::BATCH as u64,
        1,
        "client.batch",
        tracer,
        |b, tr, root| {
            let start = Instant::now();
            let results = tr.time("engine.batch", root, b as u64, || runner.run(&work[b]));
            let latency = start.elapsed();
            tr.time("client.check", root, b as u64, || {
                for result in &results {
                    let (s, bytes) = Seen::of(result);
                    response_bytes += bytes;
                    seen.push(s);
                }
            });
            latency
        },
    );
    let stats_after = runner.cache_stats();
    let compiles = fq_transpile::compile_invocations() - compiles_before;
    drop(runner);

    // Outside the timed phase, on every CPU: a fresh reference runner.
    sys::set_cpus(allowed)?;
    let specs: Vec<JobSpec> = work.into_iter().flatten().collect();
    let expected = reference(&specs, &BatchRunner::new());
    let mut check = Check::default();
    for (job, (s, e)) in seen.iter().zip(&expected).enumerate() {
        check.record(job, s, e);
    }
    let attempted = specs.len() as u64;
    let hits = stats_after.hits - stats_before.hits;
    let misses = stats_after.misses - stats_before.misses;
    let mut values = vec![
        ("plan.hit_share", hit_share(hits, misses)),
        ("plan.templates_resident", stats_after.len as f64),
        ("dispatch.owner_share_max", 0.0),
        (
            "transpile.compiles_per_job",
            compiles as f64 / attempted as f64,
        ),
        ("transpile.stuck_share", stuck_share(&expected)),
        (
            "api.response_bytes",
            response_bytes as f64 / attempted as f64,
        ),
        ("serve.connects_per_job", 0.0),
        ("dispatch.rerouted_per_job", 0.0),
        ("dispatch.shed_per_job", 0.0),
        ("dispatch.warm_pushes", 0.0),
    ];
    let mut notes = Vec::new();
    if tracer.enabled() {
        let picked = inputs::sample_indices(options.seed, specs.len(), PEEL_JOBS);
        let sample: Vec<JobSpec> = picked.iter().map(|&i| specs[i].clone()).collect();
        values.extend(peel(tracer, &sample, &mut notes)?);
    }
    Ok(finish(&timed, check, attempted, &setups, values, notes))
}

fn stuck_share(expected: &[Seen]) -> f64 {
    let stuck = expected
        .iter()
        .filter(|s| matches!(s, Seen::Error(kind) if kind == "transpile"))
        .count();
    stuck as f64 / expected.len().max(1) as f64
}

// ----------------------------------------------------------- shard-fast

/// Warm-up requests per `shard-fast` set-up.
const SHARD_FAST_WARMUP: usize = 2_000;

fn shard_fast(options: &Options, tracer: &mut Tracer) -> Result<Outcome, String> {
    let jobs = options.workload.jobs_for(options.seconds);
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        drop(live.take());
        let start = Instant::now();
        let specs = inputs::shard_fast_specs(options.seed);
        let bodies: Vec<String> = specs.iter().map(JobSpec::to_json).collect();
        let reference: Vec<String> = BatchRunner::new()
            .with_threads(1)
            .run(&specs)
            .into_iter()
            .map(|r| r.map(|r| r.to_json()))
            .collect::<Result<_, _>>()
            .map_err(|e| format!("shard-fast reference job failed: {e}"))?;
        let mut shard = Shard::spawn()?;
        for i in 0..SHARD_FAST_WARMUP {
            let k = i % specs.len();
            match post(&mut shard.conn, &bodies[k]) {
                Ok(r) if r.status == 200 => {}
                other => return Err(format!("shard-fast warm-up failed: {other:?}")),
            }
        }
        setups.push(start.elapsed().as_secs_f64());
        live = Some((shard, specs, bodies, reference));
    }
    let (mut shard, specs, bodies, reference) = live.expect("at least one set-up");
    let reference_hash: Vec<u64> = reference.iter().map(|r| fnv1a(r.as_bytes())).collect();

    let before = shard_counters(std::slice::from_mut(&mut shard.conn))?;
    let dials_before = shard.conn.connects();
    let compiles_before = fq_transpile::compile_invocations();
    let mut check = Check::default();
    let mut response_bytes = 0usize;
    let conn = &mut shard.conn;
    let timed = closed_loop(jobs, 1, 512, "client.job", tracer, |j, tr, root| {
        let k = j % bodies.len();
        let span = tr.begin("client.post", root, j as u64);
        let start = Instant::now();
        let response = post(conn, &bodies[k]);
        let latency = start.elapsed();
        tr.end(span);
        tr.time("client.check", root, j as u64, || match &response {
            Ok(r) if r.status == 200 && r.body == reference[k] => {
                response_bytes += r.body.len();
                let s = Seen::Result(reference_hash[k]);
                check.record(j, &s, &s);
            }
            _ => check.record(
                j,
                &Seen::of_response(&response),
                &Seen::Result(reference_hash[k]),
            ),
        });
        latency
    });
    let compiles = fq_transpile::compile_invocations() - compiles_before;
    let dials = shard.conn.connects() - dials_before;
    let after = shard_counters(std::slice::from_mut(&mut shard.conn))?;

    let attempted = jobs as u64;
    let mut values = cache_values(before, after, false);
    values.extend([
        (
            "transpile.compiles_per_job",
            compiles as f64 / attempted as f64,
        ),
        ("transpile.stuck_share", 0.0),
        (
            "api.response_bytes",
            response_bytes as f64 / attempted as f64,
        ),
        ("serve.connects_per_job", dials as f64 / attempted as f64),
        ("dispatch.rerouted_per_job", 0.0),
        ("dispatch.shed_per_job", 0.0),
        ("dispatch.warm_pushes", 0.0),
    ]);
    drop(shard);
    let mut notes = Vec::new();
    if tracer.enabled() {
        let picked = inputs::sample_indices(options.seed, specs.len(), PEEL_JOBS);
        let sample: Vec<JobSpec> = picked.iter().map(|&i| specs[i].clone()).collect();
        values.extend(peel(tracer, &sample, &mut notes)?);
    }
    Ok(finish(&timed, check, attempted, &setups, values, notes))
}

// --------------------------------------------------------- cluster-cold

/// Cold warm-up jobs per `cluster-cold` set-up.
const COLD_WARMUP: u64 = 200;

fn cluster_cold(
    options: &Options,
    tracer: &mut Tracer,
    allowed: &[usize],
) -> Result<Outcome, String> {
    let jobs = options.workload.jobs_for(options.seconds);
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..SETUP_REPS {
        if let Some((cluster, _, _)) = live.take() {
            Cluster::shutdown(cluster);
        }
        let start = Instant::now();
        let instances: Vec<ColdInstance> = (0..jobs as u64)
            .map(|i| ColdInstance::generate(options.seed, Stream::Cold, i))
            .collect();
        let bodies: Vec<String> = instances.iter().map(|c| c.spec().to_json()).collect();
        let mut cluster = Cluster::spawn()?;
        for i in 0..COLD_WARMUP {
            let body = ColdInstance::generate(options.seed, Stream::ColdWarmup, i)
                .spec()
                .to_json();
            // Warm-up instances may hit the known routing defect; only
            // transport failures abort the set-up.
            post(&mut cluster.front, &body).map_err(|e| format!("cluster warm-up: {e}"))?;
        }
        setups.push(start.elapsed().as_secs_f64());
        live = Some((cluster, instances, bodies));
    }
    let (mut cluster, instances, bodies) = live.expect("at least one set-up");

    let mut shard_conns = cluster.shard_conns();
    let before = shard_counters(&mut shard_conns)?;
    let forward_before = get_json(&mut cluster.front, "/v1/stats")?;
    let dials_before = cluster.front.connects();
    let compiles_before = fq_transpile::compile_invocations();
    let mut seen = Vec::with_capacity(jobs);
    let mut response_bytes = 0usize;
    let front = &mut cluster.front;
    let timed = closed_loop(jobs, 1, 64, "client.job", tracer, |j, tr, root| {
        let span = tr.begin("client.post", root, j as u64);
        let start = Instant::now();
        let response = post(front, &bodies[j]);
        let latency = start.elapsed();
        tr.end(span);
        tr.time("client.check", root, j as u64, || {
            if let Ok(r) = &response {
                response_bytes += r.body.len();
            }
            seen.push(Seen::of_response(&response));
        });
        latency
    });
    let compiles = fq_transpile::compile_invocations() - compiles_before;
    let dials = cluster.front.connects() - dials_before;
    let after = shard_counters(&mut shard_conns)?;
    let forward_after = get_json(&mut cluster.front, "/v1/stats")?;
    drop(shard_conns);
    cluster.shutdown();

    // Outside the timed phase, on every CPU: the in-process reference.
    sys::set_cpus(allowed)?;
    let specs: Vec<JobSpec> = instances.iter().map(ColdInstance::spec).collect();
    let expected = reference(&specs, &BatchRunner::new());
    let mut check = Check::default();
    let mut notes = Vec::new();
    let mut stuck_ns = 0u64;
    for (job, (s, e)) in seen.iter().zip(&expected).enumerate() {
        check.record(job, s, e);
        if matches!(e, Seen::Error(_)) {
            stuck_ns += timed.latency_ns[job];
            notes.push(format!(
                "failed job {job} {} ({:?}): {:.1} ms",
                instances[job].id(),
                e,
                timed.latency_ns[job] as f64 / 1e6
            ));
        }
    }
    notes.push(format!(
        "failed jobs took {:.2}% of the timed wall time",
        stuck_ns as f64 / 1e9 / timed.wall_s * 100.0
    ));
    notes.push(explicit_model_probe(&instances, &expected));

    let attempted = jobs as u64;
    let forward = |v: &Value, key: &str| counter(v, &["forward", key]) as f64;
    let mut values = cache_values(before, after, true);
    values.extend([
        (
            "transpile.compiles_per_job",
            compiles as f64 / attempted as f64,
        ),
        ("transpile.stuck_share", stuck_share(&expected)),
        (
            "api.response_bytes",
            response_bytes as f64 / attempted as f64,
        ),
        ("serve.connects_per_job", dials as f64 / attempted as f64),
        (
            "dispatch.rerouted_per_job",
            (forward(&forward_after, "rerouted") - forward(&forward_before, "rerouted"))
                / attempted as f64,
        ),
        (
            "dispatch.shed_per_job",
            (forward(&forward_after, "shed") - forward(&forward_before, "shed")) / attempted as f64,
        ),
        (
            "dispatch.warm_pushes",
            forward(&forward_after, "warm_pushes") - forward(&forward_before, "warm_pushes"),
        ),
    ]);
    if tracer.enabled() {
        let picked = inputs::sample_indices(options.seed, specs.len(), PEEL_JOBS);
        let sample: Vec<JobSpec> = picked
            .iter()
            .filter(|&&i| matches!(expected[i], Seen::Result(_)))
            .map(|&i| specs[i].clone())
            .collect();
        values.extend(peel(tracer, &sample, &mut notes)?);
    }
    Ok(finish(&timed, check, attempted, &setups, values, notes))
}

/// 3-regular instances the explicit-model probe resends.
const PROBE_JOBS: usize = 32;

/// A known defect, measured outside the timed phase: fast-tier jobs
/// whose problem is an explicit Ising model share one entry of
/// `BatchRunner`'s tier memo whenever two models agree in size, coupling
/// count, offset and device, because the memo keys on `IsingModel`'s
/// summary `Debug` form. The run's first 3-regular instances are resent
/// in that form as one batch and compared with their graph-recipe
/// reference; the timed jobs use the graph recipe.
fn explicit_model_probe(instances: &[ColdInstance], expected: &[Seen]) -> String {
    let picked: Vec<usize> = (0..instances.len())
        .filter(|&i| instances[i].family == Family::Regular3)
        .take(PROBE_JOBS)
        .collect();
    let specs: Vec<JobSpec> = picked
        .iter()
        .map(|&i| instances[i].explicit_spec())
        .collect();
    let results = BatchRunner::new().run(&specs);
    let differing = picked
        .iter()
        .zip(&results)
        .filter(|&(&i, result)| Seen::of(result).0 != expected[i])
        .count();
    format!(
        "known defect: {differing} of {} 3-regular jobs resent as explicit Ising models in one \
         batch returned another job's result (tier memo keyed on IsingModel's Debug summary)",
        picked.len()
    )
}

// ----------------------------------------------------------------- peel

/// Per-job facts the peel needs to normalize its timings.
struct PeelJob {
    units: usize,
    branches: usize,
    analytic_branches: usize,
    sampled_branches: usize,
}

/// The execution units of `spec`, as the engine decomposes it: a
/// `compare` job is a baseline unit (`m = 0`) then a frozen unit.
fn units(spec: &JobSpec) -> Vec<(FrozenQubitsConfig, Option<u64>)> {
    let baseline = FrozenQubitsConfig {
        num_frozen: 0,
        ..spec.config.clone()
    };
    match spec.kind {
        JobKind::Baseline => vec![(baseline, None)],
        JobKind::Compare => vec![(baseline, None), (spec.config.clone(), None)],
        JobKind::Sample { shots } => vec![(spec.config.clone(), Some(shots))],
        _ => vec![(spec.config.clone(), None)],
    }
}

/// The layer peel: every sampled job goes through each public entry
/// point in turn — decode, resolve, plan per unit (warm and cold),
/// run or sample plus a sibling optimize pass per branch, the whole
/// engine, encode, `GET /v1/healthz`, `POST` direct to the owning shard
/// and `POST` through the dispatcher — [`PEEL_REPS`] times, interleaved.
/// A layer's own time is the difference between neighbouring entry
/// points, per job from the medians of its repetitions.
fn peel(
    tracer: &mut Tracer,
    sample: &[JobSpec],
    notes: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64)>, String> {
    // One request at a time on one CPU, as on the service workloads.
    if let Some(&cpu) = sys::allowed_cpus().last() {
        sys::set_cpus(&[cpu])?;
    }
    let mut cluster = Cluster::spawn()?;
    let addrs = cluster.shard_addrs();
    let mut direct = cluster.shard_conns();
    let engine = BatchRunner::new().with_threads(1);
    let warm = TemplateCache::new();
    let backend = BackendSpec::Sim.build(ExecutorKind::Sequential);

    // Warm every path once, learn each job's owner and shape.
    let mut jobs = Vec::new();
    let mut owners = Vec::new();
    for spec in sample {
        let body = spec.to_json();
        let owner = spec
            .routing_fingerprint()
            .ok()
            .and_then(|fp| fq_dispatch::ring::owner(&fp, &addrs).cloned())
            .and_then(|a| addrs.iter().position(|x| *x == a))
            .unwrap_or(0);
        post(&mut cluster.front, &body).map_err(io)?;
        post(&mut direct[owner], &body).map_err(io)?;
        engine.run(std::slice::from_ref(spec));
        let model = spec.problem.resolve().map_err(io)?;
        let device = spec.device.build();
        let mut job = PeelJob {
            units: 0,
            branches: 0,
            analytic_branches: 0,
            sampled_branches: 0,
        };
        for (config, shots) in units(spec) {
            let plan = plan_execution_cached(&model, &device, &config, &warm).map_err(io)?;
            job.units += 1;
            job.branches += plan.num_branches();
            if shots.is_some() {
                job.sampled_branches += plan.num_branches();
            } else {
                job.analytic_branches += plan.num_branches();
            }
        }
        jobs.push(job);
        owners.push(owner);
    }

    let first_span = tracer.spans().len();
    for (j, spec) in sample.iter().enumerate() {
        let body = spec.to_json();
        let job_span = tracer.begin("peel.job", None, j as u64);
        for _ in 0..PEEL_REPS {
            let rep = tracer.begin("peel.rep", job_span, j as u64);
            let j64 = j as u64;
            let _ = tracer.time("api.decode", rep, j64, || JobSpec::from_json(&body));
            let _ = tracer.time("api.resolve", rep, j64, || spec.to_job());
            let model = spec.problem.resolve().map_err(io)?;
            let device = spec.device.build();
            for (config, shots) in units(spec) {
                let plan = tracer
                    .time("plan.unit", rep, j64, || {
                        plan_execution_cached(&model, &device, &config, &warm)
                    })
                    .map_err(io)?;
                let cold = TemplateCache::new();
                let _ = tracer.time("plan.cold", rep, j64, || {
                    plan_execution_cached(&model, &device, &config, &cold)
                });
                match shots {
                    Some(shots) => {
                        let _ = tracer.time("sim.sample", rep, j64, || {
                            backend.sample(&plan, &device, &config, shots)
                        });
                    }
                    None => {
                        let _ = tracer.time("exec.run", rep, j64, || {
                            backend.run(&plan, &device, &config)
                        });
                    }
                }
                for b in 0..plan.num_branches() {
                    let prepared = PreparedP1::new(plan.branch(b).problem.model());
                    let _ = tracer.time("optim.branch", rep, j64, || {
                        optimize_parameters_prepared(&prepared, config.param_grid)
                    });
                }
            }
            let result = tracer.time("engine.job", rep, j64, || {
                engine.run(std::slice::from_ref(spec))
            });
            if let Some(Ok(result)) = result.first() {
                let _ = tracer.time("api.encode", rep, j64, || result.to_json());
            }
            let conn = &mut direct[owners[j]];
            let _ = tracer.time("serve.healthz", rep, j64, || {
                conn.request("GET", "/v1/healthz", None)
            });
            let _ = tracer.time("serve.post", rep, j64, || post(conn, &body));
            let front = &mut cluster.front;
            let _ = tracer.time("dispatch.post", rep, j64, || post(front, &body));
            tracer.end(rep);
        }
        tracer.end(job_span);
    }
    drop(direct);
    cluster.shutdown();

    // Per job and entry point: the median over repetitions of the summed
    // span time within one repetition.
    let spans = &tracer.spans()[first_span..];
    let mut per_rep: BTreeMap<(usize, usize, &str), f64> = BTreeMap::new();
    for span in spans {
        let Some(rep) = span
            .parent
            .filter(|&p| tracer.spans()[p].name == "peel.rep")
        else {
            continue;
        };
        *per_rep
            .entry((span.job as usize, rep, span.name))
            .or_default() += span.duration_ns() as f64 / 1e3;
    }
    let mut medians: BTreeMap<(usize, &str), Vec<f64>> = BTreeMap::new();
    for ((job, _, name), us) in per_rep {
        medians.entry((job, name)).or_default().push(us);
    }
    let m = |job: usize, name: &str| medians.get(&(job, name)).map_or(0.0, |v| median(v));
    let mean = |f: &dyn Fn(usize, &PeelJob) -> Option<f64>| {
        let values: Vec<f64> = jobs
            .iter()
            .enumerate()
            .filter_map(|(j, p)| f(j, p))
            .collect();
        if values.is_empty() {
            0.0
        } else {
            values.iter().sum::<f64>() / values.len() as f64
        }
    };
    let per = |n: usize| n.max(1) as f64;
    let values = vec![
        ("api.decode_us", mean(&|j, _| Some(m(j, "api.decode")))),
        ("api.encode_us", mean(&|j, _| Some(m(j, "api.encode")))),
        ("api.resolve_us", mean(&|j, _| Some(m(j, "api.resolve")))),
        (
            "plan.unit_us",
            mean(&|j, p| Some(m(j, "plan.unit") / per(p.units))),
        ),
        (
            "transpile.compile_us",
            mean(&|j, p| Some((m(j, "plan.cold") - m(j, "plan.unit")) / per(p.units))),
        ),
        (
            "optim.branch_us",
            mean(&|j, p| Some(m(j, "optim.branch") / per(p.branches))),
        ),
        (
            "exec.branch_us",
            mean(&|j, p| {
                (p.analytic_branches > 0).then(|| m(j, "exec.run") / per(p.analytic_branches))
            }),
        ),
        (
            "exec.branches_per_job",
            mean(&|_, p| Some(p.branches as f64)),
        ),
        (
            "sim.sample_us",
            mean(&|j, p| {
                (p.sampled_branches > 0).then(|| m(j, "sim.sample") / per(p.sampled_branches))
            }),
        ),
        ("engine.job_us", mean(&|j, _| Some(m(j, "engine.job")))),
        (
            "serve.healthz_us",
            mean(&|j, _| Some(m(j, "serve.healthz"))),
        ),
        ("serve.post_us", mean(&|j, _| Some(m(j, "serve.post")))),
        (
            "serve.self_us",
            mean(&|j, _| {
                Some(
                    m(j, "serve.post")
                        - m(j, "serve.healthz")
                        - m(j, "api.decode")
                        - m(j, "api.encode")
                        - m(j, "engine.job"),
                )
            }),
        ),
        (
            "dispatch.post_us",
            mean(&|j, _| Some(m(j, "dispatch.post"))),
        ),
        (
            "dispatch.self_us",
            mean(&|j, _| Some(m(j, "dispatch.post") - m(j, "serve.post"))),
        ),
    ];
    notes.push(format!(
        "peel: {} jobs x {PEEL_REPS} repetitions per entry point",
        sample.len()
    ));
    Ok(values)
}
