//! The in-memory job registry both servers keep: id allocation,
//! lifecycle tracking, completion wake-ups for synchronous submitters,
//! and bounded retention of finished jobs.
//!
//! Every submission gets a monotonically increasing [`JobId`] and a
//! state that only moves forward: `Queued → Running → Done`. Finished
//! outcomes are retained for polling, but not forever: a TTL and a count
//! bound expire the oldest completed entries (in completion order), so a
//! long-running server's registry cannot grow without bound. Expired ids
//! stay distinguishable from never-issued ids — polling one yields a
//! structured `410 Gone`, not a `404` — via a compact tombstone set.
//!
//! What a finished job leaves behind is a [`JobOutcome`]: a shard
//! records the engine's `Result<JobResult, FqError>`, the dispatcher the
//! owning shard's answer verbatim.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use frozenqubits::JobId;

use crate::jobs::JobOutcome;

/// Where a job is in its lifecycle.
#[derive(Debug)]
pub(crate) enum JobState<T> {
    /// Accepted and waiting in the queue.
    Queued,
    /// Claimed by a worker and executing.
    Running,
    /// Finished, successfully or not. (`Arc`: polls snapshot the state
    /// under the registry mutex, and a deep copy of a large sampling
    /// result per `GET /v1/jobs/{id}` would serialize every poller and
    /// worker behind an O(result-size) critical section.)
    Done(Arc<T>),
}

// Manual impl: cloning shares the `Arc`, so `T` need not be `Clone`.
impl<T> Clone for JobState<T> {
    fn clone(&self) -> Self {
        match self {
            JobState::Queued => JobState::Queued,
            JobState::Running => JobState::Running,
            JobState::Done(outcome) => JobState::Done(Arc::clone(outcome)),
        }
    }
}

impl<T: JobOutcome> JobState<T> {
    /// The wire name of this state (a failed outcome reads as `failed`).
    pub(crate) fn status_name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(outcome) if outcome.is_ok() => "done",
            JobState::Done(_) => "failed",
        }
    }
}

/// What the registry knows about an id.
#[derive(Clone, Debug)]
pub(crate) enum Lookup<T> {
    /// The job is live (queued, running, or retained done).
    Active(JobState<T>),
    /// The job finished but its outcome was expired by the TTL or count
    /// bound. → `410 Gone`.
    Expired,
    /// The id was never issued (or bounced before queueing). → `404`.
    Unknown,
}

/// Aggregate submission counters for `/v1/stats`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct JobCounts {
    /// Jobs ever accepted (queued), including finished ones.
    pub(crate) submitted: u64,
    /// Jobs finished successfully.
    pub(crate) completed: u64,
    /// Jobs finished with an error.
    pub(crate) failed: u64,
    /// Finished jobs whose retained outcomes were expired.
    pub(crate) expired: u64,
}

/// Most tombstones retained: enough to answer `410` for every id a
/// client could plausibly still hold, without reintroducing the
/// unbounded growth the expiry exists to prevent. Beyond it the oldest
/// (smallest) ids degrade to `404`.
const MAX_TOMBSTONES: usize = 65_536;

#[derive(Debug)]
struct Inner<T> {
    jobs: HashMap<u64, JobState<T>>,
    /// Completed ids in completion order, with their completion times —
    /// the expiry scan order.
    done_order: VecDeque<(u64, Instant)>,
    /// Ids whose done entries were expired (ordered, so capping evicts
    /// the oldest).
    tombstones: BTreeSet<u64>,
}

/// The shared registry of jobs and their outcomes.
#[derive(Debug)]
pub(crate) struct Registry<T> {
    inner: Mutex<Inner<T>>,
    finished: Condvar,
    next_id: AtomicU64,
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    expired: AtomicU64,
    /// How long a finished outcome is retained.
    ttl: Duration,
    /// Most finished outcomes retained at once.
    max_done: usize,
}

impl<T: JobOutcome> Registry<T> {
    /// An empty registry; ids start at 1. Finished outcomes are retained
    /// for at most `ttl`, and at most `max_done` of them at once
    /// (oldest-completed first out).
    pub(crate) fn new(ttl: Duration, max_done: usize) -> Registry<T> {
        Registry {
            inner: Mutex::new(Inner {
                jobs: HashMap::new(),
                done_order: VecDeque::new(),
                tombstones: BTreeSet::new(),
            }),
            finished: Condvar::new(),
            next_id: AtomicU64::new(1),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            expired: AtomicU64::new(0),
            ttl,
            max_done: max_done.max(1),
        }
    }

    /// Expires finished entries that are over the TTL or beyond the
    /// count bound. Called under the registry lock from every mutation
    /// and lookup, so expiry needs no background thread.
    fn prune(&self, registry: &mut Inner<T>, now: Instant) {
        while let Some(&(id, done_at)) = registry.done_order.front() {
            let over_count = registry.done_order.len() > self.max_done;
            let over_ttl = now.duration_since(done_at) >= self.ttl;
            if !over_count && !over_ttl {
                break;
            }
            registry.done_order.pop_front();
            if registry.jobs.remove(&id).is_some() {
                registry.tombstones.insert(id);
                self.expired.fetch_add(1, Ordering::Relaxed);
            }
        }
        while registry.tombstones.len() > MAX_TOMBSTONES {
            let oldest = *registry.tombstones.iter().next().expect("non-empty set");
            registry.tombstones.remove(&oldest);
        }
    }

    /// Mints a fresh id and registers it as queued.
    pub(crate) fn register(&self) -> JobId {
        let id = JobId::new(self.next_id.fetch_add(1, Ordering::Relaxed));
        let mut registry = self.inner.lock().expect("store lock poisoned");
        self.prune(&mut registry, Instant::now());
        registry.jobs.insert(id.value(), JobState::Queued);
        self.submitted.fetch_add(1, Ordering::Relaxed);
        id
    }

    /// Removes a registration that never made it into the queue (the
    /// push bounced); undoes the `submitted` count.
    pub(crate) fn discard(&self, id: JobId) {
        self.inner
            .lock()
            .expect("store lock poisoned")
            .jobs
            .remove(&id.value());
        self.submitted.fetch_sub(1, Ordering::Relaxed);
    }

    /// Marks `id` as claimed by a worker.
    pub(crate) fn mark_running(&self, id: JobId) {
        self.inner
            .lock()
            .expect("store lock poisoned")
            .jobs
            .insert(id.value(), JobState::Running);
    }

    /// Records `id`'s outcome and wakes synchronous waiters.
    pub(crate) fn complete(&self, id: JobId, outcome: T) {
        match outcome.is_ok() {
            true => self.completed.fetch_add(1, Ordering::Relaxed),
            false => self.failed.fetch_add(1, Ordering::Relaxed),
        };
        let now = Instant::now();
        let mut registry = self.inner.lock().expect("store lock poisoned");
        registry
            .jobs
            .insert(id.value(), JobState::Done(Arc::new(outcome)));
        registry.done_order.push_back((id.value(), now));
        self.prune(&mut registry, now);
        drop(registry);
        self.finished.notify_all();
    }

    /// What the registry knows about `id`, expiring stale outcomes on
    /// the way.
    pub(crate) fn lookup(&self, id: JobId) -> Lookup<T> {
        let mut registry = self.inner.lock().expect("store lock poisoned");
        self.prune(&mut registry, Instant::now());
        match registry.jobs.get(&id.value()) {
            Some(state) => Lookup::Active(state.clone()),
            None if registry.tombstones.contains(&id.value()) => Lookup::Expired,
            None => Lookup::Unknown,
        }
    }

    /// The current state of `id`, if it is live.
    #[cfg(test)]
    pub(crate) fn snapshot(&self, id: JobId) -> Option<JobState<T>> {
        match self.lookup(id) {
            Lookup::Active(state) => Some(state),
            Lookup::Expired | Lookup::Unknown => None,
        }
    }

    /// Blocks until `id` finishes or `timeout` elapses; returns the
    /// last observed state (`Done(..)` unless the wait timed out), or
    /// `None` for an unknown (or already-expired) id.
    pub(crate) fn await_done(&self, id: JobId, timeout: Duration) -> Option<JobState<T>> {
        let deadline = Instant::now() + timeout;
        let mut registry = self.inner.lock().expect("store lock poisoned");
        loop {
            let state = registry.jobs.get(&id.value())?.clone();
            if matches!(state, JobState::Done(_)) {
                return Some(state);
            }
            let now = Instant::now();
            if now >= deadline {
                return Some(state);
            }
            let (guard, _) = self
                .finished
                .wait_timeout(registry, deadline - now)
                .expect("store lock poisoned");
            registry = guard;
        }
    }

    /// Aggregate counters.
    pub(crate) fn counts(&self) -> JobCounts {
        JobCounts {
            submitted: self.submitted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            failed: self.failed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use frozenqubits::{FqError, JobResult, RunSummary};

    type ShardRegistry = Registry<Result<JobResult, FqError>>;

    /// Retention generous enough that nothing expires mid-test.
    fn retentive() -> ShardRegistry {
        ShardRegistry::new(Duration::from_secs(3600), 4096)
    }

    fn dummy_result() -> JobResult {
        JobResult::Baseline(RunSummary {
            label: "baseline".into(),
            circuit_qubits: 1,
            circuits_executed: 1,
            metrics: frozenqubits::CircuitMetrics::default(),
            ev_ideal: 0.0,
            ev_noisy: 0.0,
            arg: 0.0,
            log_eps: 0.0,
            params: (0.0, 0.0),
        })
    }

    #[test]
    fn lifecycle_and_counters() {
        let store = retentive();
        let a = store.register();
        let b = store.register();
        assert_ne!(a, b);
        assert!(matches!(store.snapshot(a), Some(JobState::Queued)));
        store.mark_running(a);
        assert!(matches!(store.snapshot(a), Some(JobState::Running)));
        assert_eq!(store.snapshot(a).unwrap().status_name(), "running");
        store.complete(a, Ok(dummy_result()));
        assert_eq!(store.snapshot(a).unwrap().status_name(), "done");
        store.complete(b, Err(FqError::InvalidConfig("x".into())));
        assert_eq!(store.snapshot(b).unwrap().status_name(), "failed");
        assert_eq!(
            store.counts(),
            JobCounts {
                submitted: 2,
                completed: 1,
                failed: 1,
                expired: 0
            }
        );
        assert!(store.snapshot(JobId::new(999)).is_none());
        assert!(matches!(store.lookup(JobId::new(999)), Lookup::Unknown));
    }

    #[test]
    fn discard_undoes_a_bounced_registration() {
        let store = retentive();
        let id = store.register();
        store.discard(id);
        assert!(store.snapshot(id).is_none());
        assert_eq!(store.counts().submitted, 0);
    }

    #[test]
    fn await_done_times_out_with_last_state() {
        let store = retentive();
        let id = store.register();
        let state = store.await_done(id, Duration::from_millis(10)).unwrap();
        assert!(matches!(state, JobState::Queued));
        assert!(store.await_done(JobId::new(999), Duration::ZERO).is_none());
    }

    #[test]
    fn await_done_wakes_on_completion() {
        let store = Arc::new(retentive());
        let id = store.register();
        let waiter = {
            let store = store.clone();
            std::thread::spawn(move || store.await_done(id, Duration::from_secs(30)))
        };
        std::thread::sleep(Duration::from_millis(20));
        store.complete(id, Ok(dummy_result()));
        let state = waiter.join().unwrap().unwrap();
        assert_eq!(state.status_name(), "done");
    }

    #[test]
    fn ttl_expires_done_entries_into_tombstones() {
        let store = ShardRegistry::new(Duration::from_millis(20), 4096);
        let id = store.register();
        store.complete(id, Ok(dummy_result()));
        // A job cut short by a fault (a panicked worker, a shed forward)
        // ends with a *failed* outcome; failures ride the same retention
        // train as successes — expired, tombstoned, counted.
        let failed = store.register();
        store.mark_running(failed);
        store.complete(failed, JobOutcome::panicked("injected"));
        assert!(matches!(store.lookup(id), Lookup::Active(_)));
        assert!(matches!(store.lookup(failed), Lookup::Active(_)));
        std::thread::sleep(Duration::from_millis(30));
        assert!(matches!(store.lookup(id), Lookup::Expired));
        assert!(matches!(store.lookup(id), Lookup::Expired), "stays gone");
        assert!(
            matches!(store.lookup(failed), Lookup::Expired),
            "a failed outcome must expire like a successful one"
        );
        assert_eq!(store.counts().expired, 2);
        assert_eq!(store.counts().failed, 1);
        // Queued/running entries never expire — only done ones do.
        let live = store.register();
        std::thread::sleep(Duration::from_millis(30));
        assert!(matches!(store.lookup(live), Lookup::Active(_)));
    }

    #[test]
    fn count_bound_expires_oldest_completed_first() {
        let store = ShardRegistry::new(Duration::from_secs(3600), 2);
        let ids: Vec<JobId> = (0..3).map(|_| store.register()).collect();
        for &id in &ids {
            store.complete(id, Ok(dummy_result()));
        }
        assert!(matches!(store.lookup(ids[0]), Lookup::Expired));
        assert!(matches!(store.lookup(ids[1]), Lookup::Active(_)));
        assert!(matches!(store.lookup(ids[2]), Lookup::Active(_)));
        assert_eq!(store.counts().expired, 1);
    }
}
