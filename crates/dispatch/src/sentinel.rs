//! The sentinel: a background thread that turns shard telemetry into
//! routing health and continuous cache convergence.
//!
//! Each cycle it:
//!
//! 1. **Probes** every shard — `GET /v1/healthz` for liveness, `GET
//!    /v1/stats` for cache hit/miss, queue depth, in-flight workers,
//!    uptime and the resident-template count, `GET
//!    /v1/templates?limit=K` for the shard's `K` hottest templates —
//!    and promotes/demotes the entry in the shard table. `K` is a fixed
//!    multiple of the per-cycle push budget, so the rows a probe
//!    transfers and the sentinel plans from stay bounded. The shard's
//!    own work does not: to answer, it still copies and sorts its whole
//!    index (O(store log store)), and a `--cache-dir` shard lists its
//!    spill directory for the index and again for `/v1/stats`. This is
//!    the only path that promotes: the forwarder demotes on transport
//!    errors, the sentinel heals.
//! 2. **Converges warm state**: for every fingerprint in some shard's
//!    `K` hottest whose rendezvous *owner* does not list it among its
//!    own `K` hottest, fetch the artifact from a holder and `POST
//!    /v1/templates` it to the owner (bearer token attached when the
//!    cluster runs with auth). At most `warm_batch` pushes per cycle, so
//!    convergence traffic never crowds out job traffic; an owner that
//!    refuses a push (`401`, `503` at its push cap) or cannot be reached,
//!    and a holder that cannot be reached, leave the pass, so a full
//!    owner costs one refused push per cycle and a stalled holder one
//!    fetch, not one per stray. This generalizes boot-time
//!    `--warm-from`: a cold or newly joined shard is warmed
//!    *continuously*, without restarting anything, and after a routing
//!    change templates follow their keys.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use serde::json::Value;

use crate::forward::{ConnPool, Metrics};
use crate::ring;
use crate::shards::{ProbeStats, ShardTable};

/// Sentinel cadence and convergence bounds.
#[derive(Clone, Debug)]
pub(crate) struct SentinelConfig {
    /// Time between probe/convergence cycles.
    pub(crate) interval: Duration,
    /// Most template pushes per cycle.
    pub(crate) warm_batch: usize,
    /// Read timeout on every probe and convergence request. Probes ask
    /// tiny questions of loopback-or-LAN peers; without this bound one
    /// stalled shard would wedge the whole cycle for the client
    /// default's 300 s, during which no other shard gets probed,
    /// promoted or warmed.
    pub(crate) probe_timeout: Duration,
    /// Chaos fault injection for the sentinel's own connections.
    pub(crate) fault_plan: Option<Arc<fq_faults::FaultPlan>>,
}

/// Index rows probed per shard for each push the cycle may make (256 at
/// the default `warm_batch` of 8). A cycle can push only rows that are
/// strays (held by a shard that does not own them) missing from their
/// owner's probed rows. On the `cluster-cold` benchmark at seed 1, on
/// a 2-vCPU Xeon (two shards holding 1,400 to 8,200 templates each),
/// 240 to 270 of the 512 probed rows per cycle were such strays, thirty
/// times the push budget; at 2 rows per push there were still 13 to
/// 19. The margin buys an exact view of small stores: an owner holding
/// at most this many templates is probed whole, so convergence idles
/// once every template is home.
const PROBE_ROWS_PER_PUSH: usize = 32;

/// Spawns the sentinel thread; it exits promptly once `stop` is set.
pub(crate) fn spawn(
    table: Arc<ShardTable>,
    metrics: Arc<Metrics>,
    token: Option<String>,
    config: SentinelConfig,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("fq-dispatch-sentinel".into())
        .spawn(move || {
            let mut pool = ConnPool::new(token)
                .with_read_timeout(config.probe_timeout)
                .with_fault_plan(config.fault_plan.clone());
            while !stop.load(Ordering::SeqCst) {
                cycle(&mut pool, &table, &metrics, config.warm_batch);
                // Sleep in slices so shutdown is never interval-bound.
                let mut remaining = config.interval;
                while !remaining.is_zero() && !stop.load(Ordering::SeqCst) {
                    let slice = remaining.min(Duration::from_millis(50));
                    std::thread::sleep(slice);
                    remaining = remaining.saturating_sub(slice);
                }
            }
        })
        .expect("spawning the sentinel thread")
}

/// One sentinel cycle: probe every shard, then one convergence pass.
fn cycle(pool: &mut ConnPool, table: &ShardTable, metrics: &Metrics, warm_batch: usize) {
    let limit = warm_batch.saturating_mul(PROBE_ROWS_PER_PUSH);
    for addr in table.addrs() {
        match probe(pool, &addr, limit) {
            Ok((stats, templates)) => table.record_probe(&addr, stats, templates),
            Err(()) => table.report_probe_failure(&addr),
        }
    }
    converge(pool, table, metrics, warm_batch);
}

/// One shard probe: liveness, stats, and the `limit` hottest rows of the
/// template index. Any failure fails the probe as a whole — partial
/// telemetry is worse than stale.
fn probe(pool: &mut ConnPool, addr: &str, limit: usize) -> Result<(ProbeStats, Vec<String>), ()> {
    let healthz = pool
        .conn(addr)
        .request("GET", "/v1/healthz", None)
        .map_err(|_| ())?;
    if healthz.status != 200 {
        return Err(());
    }

    let stats = pool
        .conn(addr)
        .request("GET", "/v1/stats", None)
        .map_err(|_| ())?;
    let stats = Value::parse(&stats.body).map_err(|_| ())?;
    let u64_at = |path: &[&str]| -> u64 {
        let mut node = &stats;
        for key in path {
            match node.field(key) {
                Ok(next) => node = next,
                Err(_) => return 0,
            }
        }
        node.as_u64().unwrap_or(0)
    };
    let probe_stats = ProbeStats {
        hits: u64_at(&["cache", "hits"]),
        misses: u64_at(&["cache", "misses"]),
        queue_depth: u64_at(&["queue", "depth"]),
        busy: u64_at(&["workers", "busy"]),
        uptime_secs: u64_at(&["uptime_secs"]),
        templates: u64_at(&["cache", "resident"]),
    };

    let index = pool
        .conn(addr)
        .request("GET", &format!("/v1/templates?limit={limit}"), None)
        .map_err(|_| ())?;
    let index = Value::parse(&index.body).map_err(|_| ())?;
    let templates = index
        .field("templates")
        .and_then(|t| t.as_array())
        .map(|entries| {
            entries
                .iter()
                .filter_map(|e| {
                    e.field("fingerprint")
                        .and_then(|f| f.as_str())
                        .ok()
                        .map(str::to_string)
                })
                .collect()
        })
        .unwrap_or_default();

    Ok((probe_stats, templates))
}

/// One convergence pass: push up to `warm_batch` artifacts toward their
/// rendezvous owners. Works off the latest probe snapshot, so at most
/// one cycle of staleness; a push that raced an eviction is re-planned
/// next cycle. Plans from each shard's probed hottest templates only,
/// so a stray its owner holds outside the owner's probed rows may be
/// pushed again — a refresh, within the same `warm_batch` budget.
fn converge(pool: &mut ConnPool, table: &ShardTable, metrics: &Metrics, warm_batch: usize) {
    let snapshot = table.snapshot();
    let healthy: Vec<&crate::shards::ShardSnapshot> =
        snapshot.iter().filter(|s| s.healthy && s.probed).collect();
    if healthy.len() < 2 {
        return; // nowhere to converge to (or from).
    }
    let addrs: Vec<String> = healthy.iter().map(|s| s.addr.clone()).collect();

    // fingerprint → healthy holders, deterministic order.
    let mut holders: std::collections::BTreeMap<&str, Vec<&str>> =
        std::collections::BTreeMap::new();
    for shard in &healthy {
        for fingerprint in &shard.templates {
            holders
                .entry(fingerprint.as_str())
                .or_default()
                .push(shard.addr.as_str());
        }
    }

    let mut pushed = 0usize;
    // Shards out of this pass: an owner that refused a push as a whole,
    // or a holder (or owner) that could not be reached. Offering them
    // the rest of the plan would cost a fetch, or a read timeout, per
    // remaining stray only to fail again.
    let mut out: Vec<&str> = Vec::new();
    for (fingerprint, holding) in &holders {
        if pushed >= warm_batch {
            return;
        }
        let Some(owner) = ring::owner(fingerprint, &addrs) else {
            return;
        };
        if holding.iter().any(|addr| addr == owner) || out.contains(&owner.as_str()) {
            continue; // already where it belongs, or the owner is out.
        }
        // Relay the artifact bytes as-is: fetch from the first holder
        // still in the pass, push to the owner. No decode on the
        // dispatcher — the owner's own integrity checks gate admission.
        let Some(&source) = holding.iter().find(|addr| !out.contains(addr)) else {
            continue;
        };
        let Ok(fetched) =
            pool.conn(source)
                .request("GET", &format!("/v1/templates/{fingerprint}"), None)
        else {
            out.push(source);
            continue;
        };
        if fetched.status != 200 {
            continue; // evicted since the probe; re-planned next cycle.
        }
        match pool
            .conn(owner)
            .request("POST", "/v1/templates", Some(&fetched.body))
        {
            Ok(stored) if stored.status == 200 => {
                metrics.warm_pushes.fetch_add(1, Ordering::Relaxed);
                pushed += 1;
            }
            // A 400 (or any other refusal) is about this one artifact.
            Ok(stored) if !matches!(stored.status, 401 | 503) => {
                metrics.warm_refused.fetch_add(1, Ordering::Relaxed);
            }
            // A wrong token, a full store, or an unreachable owner
            // refuses every push alike.
            _ => {
                metrics.warm_refused.fetch_add(1, Ordering::Relaxed);
                out.push(owner);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fq_serve::{client, Server, ServerConfig, ServerHandle};
    use frozenqubits::api::{DeviceSpec, JobBuilder};
    use frozenqubits::{
        CompiledTemplate, FrozenQubitsConfig, ShapeSignature, TemplateArtifact, TemplateKey,
    };
    use std::net::TcpListener;
    use std::time::Instant;

    const WARM_BATCH: usize = 8;

    fn shard(config: ServerConfig) -> (ServerHandle, String) {
        let handle = Server::spawn(ServerConfig {
            workers: 1,
            ..config
        })
        .unwrap();
        let addr = handle.addr().to_string();
        (handle, addr)
    }

    /// `count` distinct pushable artifacts whose rendezvous owner among
    /// `addrs` is `owner`: one compiled template under keys that differ
    /// only in layer count. The shards only store and serve them.
    fn artifacts_owned_by(owner: &str, addrs: &[String], count: usize) -> Vec<TemplateArtifact> {
        let spec = JobBuilder::new()
            .barabasi_albert(8, 1, 1)
            .device(DeviceSpec::IbmMontreal)
            .baseline()
            .build()
            .unwrap();
        let model = spec.problem.resolve().unwrap();
        let device = DeviceSpec::IbmMontreal.build();
        let options = FrozenQubitsConfig::default().compile;
        let template = CompiledTemplate::compile(&model, 1, &device, options).unwrap();
        (1..)
            .map(|layers| {
                let key = TemplateKey::new(ShapeSignature::of(&model), &device, layers, options);
                TemplateArtifact::new(key, template.clone())
            })
            .filter(|artifact| {
                ring::owner(&artifact.fingerprint(), addrs).is_some_and(|addr| addr == owner)
            })
            .take(count)
            .collect()
    }

    /// A holder with 12 strays, all owned by the other shard, and one
    /// sentinel cycle over the pair; returns the cycle's `(warm_pushes,
    /// warm_refused)`.
    fn one_cycle_over_12_strays(owner_config: ServerConfig) -> (u64, u64) {
        let (holder, holder_addr) = shard(ServerConfig::default());
        let (owner, owner_addr) = shard(owner_config);
        let addrs = vec![holder_addr.clone(), owner_addr.clone()];
        for artifact in artifacts_owned_by(&owner_addr, &addrs, 12) {
            client::push_template(&holder_addr, &artifact).unwrap();
        }

        let table = ShardTable::new(&addrs);
        let metrics = Metrics::default();
        cycle(&mut ConnPool::new(None), &table, &metrics, WARM_BATCH);

        holder.shutdown();
        owner.shutdown();
        (
            metrics.warm_pushes.load(Ordering::Relaxed),
            metrics.warm_refused.load(Ordering::Relaxed),
        )
    }

    #[test]
    fn a_full_owner_costs_one_refused_push_per_cycle() {
        // A zero push cap: the owner refuses every push with `503`.
        let (pushes, refused) = one_cycle_over_12_strays(ServerConfig {
            template_push_cap: 0,
            ..ServerConfig::default()
        });
        assert_eq!(
            (pushes, refused),
            (0, 1),
            "the first refusal takes the owner out of the pass"
        );
    }

    #[test]
    fn a_stalled_holder_costs_one_fetch_per_cycle() {
        // A holder that passed its last probe and then stopped answering:
        // it accepts connections and never replies, so every fetch from
        // it waits out the read timeout.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let holder_addr = listener.local_addr().unwrap().to_string();
        let done = Arc::new(AtomicBool::new(false));
        let stall = {
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut held = Vec::new();
                for stream in listener.incoming() {
                    if done.load(Ordering::SeqCst) {
                        break;
                    }
                    held.push(stream.unwrap());
                }
                held.len()
            })
        };
        let (owner, owner_addr) = shard(ServerConfig::default());
        let addrs = vec![holder_addr.clone(), owner_addr.clone()];
        let strays = artifacts_owned_by(&owner_addr, &addrs, 12)
            .iter()
            .map(TemplateArtifact::fingerprint)
            .collect();
        let table = ShardTable::new(&addrs);
        table.record_probe(&holder_addr, ProbeStats::default(), strays);
        table.record_probe(&owner_addr, ProbeStats::default(), Vec::new());

        let timeout = Duration::from_millis(200);
        let metrics = Metrics::default();
        let started = Instant::now();
        converge(
            &mut ConnPool::new(None).with_read_timeout(timeout),
            &table,
            &metrics,
            WARM_BATCH,
        );
        let elapsed = started.elapsed();
        done.store(true, Ordering::SeqCst);
        drop(std::net::TcpStream::connect(&holder_addr)); // wakes the accept loop
        owner.shutdown();

        assert_eq!(
            stall.join().unwrap(),
            1,
            "one fetch, then the holder is out"
        );
        assert!(
            elapsed < timeout * 6,
            "12 strays must not cost 12 timeouts, took {elapsed:?}"
        );
        assert_eq!(metrics.warm_pushes.load(Ordering::Relaxed), 0);
        assert_eq!(metrics.warm_refused.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn an_accepting_owner_takes_exactly_warm_batch_pushes_per_cycle() {
        let (pushes, refused) = one_cycle_over_12_strays(ServerConfig::default());
        assert_eq!((pushes, refused), (WARM_BATCH as u64, 0));
    }

    #[test]
    fn a_bounded_probe_keeps_the_hottest_rows_and_the_full_count() {
        // A `--cache-dir` shard writes each template to both tiers; the
        // count must still see each one once.
        let dir = std::env::temp_dir().join(format!("fq-sentinel-probe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (handle, addr) = shard(ServerConfig {
            cache_dir: Some(dir.to_string_lossy().into_owned()),
            ..ServerConfig::default()
        });
        let addrs = vec![addr.clone()];
        let artifacts = artifacts_owned_by(&addr, &addrs, 12);
        for artifact in &artifacts {
            client::push_template(&addr, artifact).unwrap();
        }

        let limit = 5;
        let (stats, templates) = probe(&mut ConnPool::new(None), &addr, limit).unwrap();
        let table = ShardTable::new(&addrs);
        table.record_probe(&addr, stats, templates);
        let snapshot = table.snapshot().remove(0);

        // Hottest first: the most recently pushed artifacts, newest
        // first, which is also how the full index begins.
        let newest: Vec<String> = artifacts
            .iter()
            .rev()
            .take(limit)
            .map(TemplateArtifact::fingerprint)
            .collect();
        assert_eq!(snapshot.templates, newest);
        let full: Vec<String> = client::template_index(&addr)
            .unwrap()
            .into_iter()
            .map(|(fingerprint, _)| fingerprint)
            .collect();
        assert_eq!(full.len(), artifacts.len());
        assert_eq!(snapshot.templates, full[..limit]);
        assert_eq!(snapshot.stats.templates, artifacts.len() as u64);

        handle.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn probe_times_out_on_a_stalled_shard_instead_of_wedging() {
        // A "shard" that accepts the connection and then says nothing —
        // the slow-loris shape. Without the probe timeout this test
        // would block for the client default of 300 s.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stall = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            std::thread::sleep(Duration::from_secs(10));
            drop(stream);
        });

        let timeout = Duration::from_millis(200);
        let mut pool = ConnPool::new(None).with_read_timeout(timeout);
        let started = Instant::now();
        assert!(
            probe(&mut pool, &addr, PROBE_ROWS_PER_PUSH * WARM_BATCH).is_err(),
            "a stalled probe must fail"
        );
        let elapsed = started.elapsed();
        assert!(
            elapsed >= Duration::from_millis(150) && elapsed < Duration::from_secs(5),
            "probe should fail at ~the read timeout, took {elapsed:?}"
        );
        stall.join().unwrap();
    }
}
