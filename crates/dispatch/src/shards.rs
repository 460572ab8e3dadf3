//! The shard table: every backend the dispatcher knows, with the health
//! and telemetry state the sentinel maintains.
//!
//! Health is optimistic-with-demotion: a shard starts healthy (a fresh
//! cluster must be routable before the first probe lands), the
//! forwarder demotes it the moment a transport error surfaces, and only
//! a successful sentinel probe promotes it back. The hot path never
//! waits on probes — it reads the flag and walks the candidate order.

use std::sync::Mutex;

use crate::ring;

/// One probe's worth of shard telemetry (`/v1/stats`, flattened to the
/// fields routing and warm transfer care about).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProbeStats {
    /// Template-cache hits since the shard booted.
    pub hits: u64,
    /// Template-cache misses (each one paid a compile).
    pub misses: u64,
    /// Jobs queued but unclaimed on the shard.
    pub queue_depth: u64,
    /// Workers mid-job on the shard.
    pub busy: u64,
    /// Seconds since the shard booted.
    pub uptime_secs: u64,
    /// Distinct templates resident on the shard (`cache.resident`).
    pub templates: u64,
}

/// A point-in-time copy of one shard's entry, for `/v1/stats`, the
/// sentinel's warm planning, and tests.
#[derive(Clone, Debug)]
pub struct ShardSnapshot {
    /// The shard's `host:port`.
    pub addr: String,
    /// Whether the dispatcher currently routes to it.
    pub healthy: bool,
    /// Consecutive failed probes/forwards since the last success.
    pub consecutive_failures: u32,
    /// Whether at least one probe has succeeded (telemetry is real).
    pub probed: bool,
    /// Last probed telemetry.
    pub stats: ProbeStats,
    /// The shard's hottest resident-template fingerprints at the last
    /// probe, hottest first: at most the sentinel's probe limit, not
    /// the whole store (the resident count is
    /// [`ProbeStats::templates`]).
    pub templates: Vec<String>,
}

#[derive(Debug)]
struct Shard {
    addr: String,
    healthy: bool,
    consecutive_failures: u32,
    probed: bool,
    stats: ProbeStats,
    templates: Vec<String>,
}

impl Shard {
    fn new(addr: String) -> Shard {
        Shard {
            addr,
            healthy: true,
            consecutive_failures: 0,
            probed: false,
            stats: ProbeStats::default(),
            templates: Vec::new(),
        }
    }
}

/// The shared, mutable table of shards.
#[derive(Debug)]
pub(crate) struct ShardTable {
    inner: Mutex<Vec<Shard>>,
}

impl ShardTable {
    /// A table over `addrs`, deduplicated, order preserved.
    pub(crate) fn new(addrs: &[String]) -> ShardTable {
        let mut seen = std::collections::BTreeSet::new();
        let shards = addrs
            .iter()
            .filter(|a| seen.insert((*a).clone()))
            .map(|a| Shard::new(a.clone()))
            .collect();
        ShardTable {
            inner: Mutex::new(shards),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Shard>> {
        self.inner.lock().expect("shard table lock poisoned")
    }

    /// Every configured shard address, in join order.
    pub(crate) fn addrs(&self) -> Vec<String> {
        self.lock().iter().map(|s| s.addr.clone()).collect()
    }

    /// Adds a shard at runtime (the admin join endpoint). Returns
    /// `false` if it was already present.
    pub(crate) fn join(&self, addr: &str) -> bool {
        let mut shards = self.lock();
        if shards.iter().any(|s| s.addr == addr) {
            return false;
        }
        shards.push(Shard::new(addr.to_string()));
        true
    }

    /// The candidate order for `fingerprint`: healthy shards in
    /// rendezvous order, then unhealthy ones (still in rendezvous
    /// order) as a last resort — when the whole fleet looks down, the
    /// forwarder should still *try* rather than shed unconditionally,
    /// because "down" may be one stale transport error old.
    pub(crate) fn candidates(&self, fingerprint: &str) -> Vec<String> {
        let shards = self.lock();
        let healthy: Vec<String> = shards
            .iter()
            .filter(|s| s.healthy)
            .map(|s| s.addr.clone())
            .collect();
        let unhealthy: Vec<String> = shards
            .iter()
            .filter(|s| !s.healthy)
            .map(|s| s.addr.clone())
            .collect();
        drop(shards);
        let mut order: Vec<String> = ring::rank(fingerprint, &healthy)
            .into_iter()
            .map(|i| healthy[i].clone())
            .collect();
        order.extend(
            ring::rank(fingerprint, &unhealthy)
                .into_iter()
                .map(|i| unhealthy[i].clone()),
        );
        order
    }

    /// A forward to `addr` failed at the transport layer: stop routing
    /// to it until a probe succeeds.
    pub(crate) fn report_transport_failure(&self, addr: &str) {
        let mut shards = self.lock();
        if let Some(shard) = shards.iter_mut().find(|s| s.addr == addr) {
            shard.healthy = false;
            shard.consecutive_failures = shard.consecutive_failures.saturating_add(1);
        }
    }

    /// A sentinel probe of `addr` failed.
    pub(crate) fn report_probe_failure(&self, addr: &str) {
        // Same demotion; kept separate so call sites read honestly.
        self.report_transport_failure(addr);
    }

    /// A sentinel probe of `addr` succeeded: promote and refresh
    /// telemetry.
    pub(crate) fn record_probe(&self, addr: &str, stats: ProbeStats, templates: Vec<String>) {
        let mut shards = self.lock();
        if let Some(shard) = shards.iter_mut().find(|s| s.addr == addr) {
            shard.healthy = true;
            shard.consecutive_failures = 0;
            shard.probed = true;
            shard.stats = stats;
            shard.templates = templates;
        }
    }

    /// Point-in-time copies of every entry.
    pub(crate) fn snapshot(&self) -> Vec<ShardSnapshot> {
        self.lock()
            .iter()
            .map(|s| ShardSnapshot {
                addr: s.addr.clone(),
                healthy: s.healthy,
                consecutive_failures: s.consecutive_failures,
                probed: s.probed,
                stats: s.stats,
                templates: s.templates.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> ShardTable {
        ShardTable::new(&[
            "127.0.0.1:1".into(),
            "127.0.0.1:2".into(),
            "127.0.0.1:3".into(),
        ])
    }

    #[test]
    fn dedupes_and_joins() {
        let table = ShardTable::new(&["a:1".into(), "a:1".into(), "b:2".into()]);
        assert_eq!(table.addrs(), vec!["a:1", "b:2"]);
        assert!(table.join("c:3"));
        assert!(!table.join("a:1"));
        assert_eq!(table.addrs().len(), 3);
    }

    #[test]
    fn demotion_reorders_candidates_and_probe_restores() {
        let table = table();
        let before = table.candidates("00c0ffee00c0ffee");
        assert_eq!(before.len(), 3);

        // Demote the primary: it must drop to the back of the order but
        // never vanish.
        table.report_transport_failure(&before[0]);
        let after = table.candidates("00c0ffee00c0ffee");
        assert_eq!(after.len(), 3);
        assert_eq!(after.last(), Some(&before[0]));
        // Healthy shards keep their relative rendezvous order.
        assert_eq!(after[0], before[1]);

        table.record_probe(&before[0], ProbeStats::default(), vec![]);
        assert_eq!(table.candidates("00c0ffee00c0ffee"), before);
    }

    #[test]
    fn snapshot_carries_probe_telemetry() {
        let table = table();
        let stats = ProbeStats {
            hits: 7,
            misses: 2,
            queue_depth: 1,
            busy: 3,
            uptime_secs: 42,
            templates: 1,
        };
        table.record_probe("127.0.0.1:2", stats, vec!["00c0ffee00c0ffee".into()]);
        let snap = table
            .snapshot()
            .into_iter()
            .find(|s| s.addr == "127.0.0.1:2")
            .unwrap();
        assert!(snap.probed && snap.healthy);
        assert_eq!(snap.stats, stats);
        assert_eq!(snap.templates, vec!["00c0ffee00c0ffee"]);
        let other = table
            .snapshot()
            .into_iter()
            .find(|s| s.addr == "127.0.0.1:1")
            .unwrap();
        assert!(!other.probed, "unprobed entries say so");
    }
}
