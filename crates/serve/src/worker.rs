//! The worker pool that drains a [`Jobs`] queue — engine workers on a
//! shard, forwarders on the dispatcher — and the shard's job itself.
//!
//! A worker owns nothing but its job function: the queue and the
//! registry are shared, and so is a shard's runner (`BatchRunner::run`
//! takes `&self`; its `TemplateCache` is concurrent), so concurrent
//! clients warm each other's templates — the first submitter of a
//! (shape, device, layers, options) combination pays the compile,
//! everyone after it hits the cache, whichever worker picks their job
//! up.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use fq_faults::{FaultKind, FaultPlan, FaultSite};
use frozenqubits::{BatchRunner, FqError, JobResult, JobSpec};

use crate::jobs::{JobOutcome, Jobs};

/// A fixed-size pool of job-executing threads.
#[derive(Debug)]
pub struct WorkerPool {
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `count` workers named `{name}-{index}` (zero is legal:
    /// jobs then queue without draining, which is what backpressure
    /// tests use). `work` is called once per worker for the function
    /// that turns one payload into its outcome, so a worker may own
    /// state such as a connection pool. The payload is dropped only
    /// after its outcome is published, off the synchronous waiter's
    /// path.
    ///
    /// A panicking job must not kill its worker (shrinking the pool) or
    /// strand the job in `running` forever: the panic is caught, the
    /// job completes with [`JobOutcome::panicked`], and the worker keeps
    /// draining.
    pub fn spawn<T, R, W>(
        name: &str,
        count: usize,
        jobs: &Arc<Jobs<T, R>>,
        mut work: impl FnMut() -> W,
    ) -> WorkerPool
    where
        T: Send + 'static,
        R: JobOutcome,
        W: FnMut(&T) -> R + Send + 'static,
    {
        let handles = (0..count)
            .map(|index| {
                let jobs = Arc::clone(jobs);
                let mut work = work();
                thread::Builder::new()
                    .name(format!("{name}-{index}"))
                    .spawn(move || {
                        while let Some((id, payload)) = jobs.queue.pop() {
                            jobs.registry.mark_running(id);
                            let outcome =
                                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                    work(&payload)
                                }))
                                .unwrap_or_else(|panic| {
                                    let what = panic
                                        .downcast_ref::<&str>()
                                        .map(|s| (*s).to_string())
                                        .or_else(|| panic.downcast_ref::<String>().cloned())
                                        .unwrap_or_else(|| "non-string panic payload".into());
                                    R::panicked(&what)
                                });
                            jobs.registry.complete(id, outcome);
                        }
                    })
                    .expect("spawning a worker thread")
            })
            .collect();
        WorkerPool { handles }
    }

    /// Waits for every worker to exit (call after closing the queue).
    pub fn join(self) {
        for handle in self.handles {
            let _ = handle.join();
        }
    }
}

/// The shard's job: runs one spec through the shared runner. `busy`
/// counts workers mid-job — held high for exactly the execution span,
/// even across a panicking spec, and released before the outcome is
/// published — so `/v1/stats` can report in-flight load to the
/// dispatcher's sentinel.
pub(crate) fn execute(
    runner: &BatchRunner,
    busy: &AtomicUsize,
    fault_plan: Option<&FaultPlan>,
    spec: &JobSpec,
) -> Result<JobResult, FqError> {
    let _in_flight = BusyGuard::arm(busy);
    // Chaos hook: a scheduled panic here takes the same containment
    // path a panicking spec would; a stall holds the busy count high
    // like a genuinely slow job.
    if let Some(plan) = fault_plan {
        match plan.roll(FaultSite::Worker) {
            Some(FaultKind::Panic) => panic!("injected fault: worker panic"),
            Some(FaultKind::Stall(ms)) => thread::sleep(std::time::Duration::from_millis(ms)),
            _ => {}
        }
    }
    runner
        .run(std::slice::from_ref(spec))
        .pop()
        .expect("one result per submitted spec")
}

/// Holds the in-flight count high for one job's execution span; the
/// drop impl keeps the count honest even when the job panics.
struct BusyGuard<'a>(&'a AtomicUsize);

impl<'a> BusyGuard<'a> {
    fn arm(counter: &'a AtomicUsize) -> Self {
        counter.fetch_add(1, Ordering::SeqCst);
        BusyGuard(counter)
    }
}

impl Drop for BusyGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::JobState;
    use frozenqubits::api::{DeviceSpec, JobBuilder};
    use frozenqubits::JobId;
    use std::time::Duration;

    type ShardJobs = Jobs<JobSpec, Result<JobResult, FqError>>;

    /// A shard's desk, runner and busy count, with `count` engine
    /// workers draining it under `plan`.
    fn shard_pool(
        count: usize,
        plan: Option<Arc<FaultPlan>>,
    ) -> (
        Arc<ShardJobs>,
        Arc<BatchRunner>,
        Arc<AtomicUsize>,
        WorkerPool,
    ) {
        let jobs = Arc::new(
            ShardJobs::new(8, Duration::from_secs(3600), 4096, Duration::from_secs(60)).unwrap(),
        );
        let runner = Arc::new(BatchRunner::new().with_threads(1));
        let busy = Arc::new(AtomicUsize::new(0));
        let pool = WorkerPool::spawn("test-worker", count, &jobs, || {
            let (runner, busy, plan) = (Arc::clone(&runner), Arc::clone(&busy), plan.clone());
            move |spec: &JobSpec| execute(&runner, &busy, plan.as_deref(), spec)
        });
        (jobs, runner, busy, pool)
    }

    fn enqueue(jobs: &ShardJobs, spec: &JobSpec) -> JobId {
        let id = jobs.registry.register();
        jobs.queue.push((id, spec.clone())).unwrap();
        id
    }

    fn spec() -> JobSpec {
        JobBuilder::new()
            .barabasi_albert(10, 1, 3)
            .device(DeviceSpec::IbmMontreal)
            .frozen()
            .build()
            .unwrap()
    }

    #[test]
    fn workers_drain_the_queue_and_record_results() {
        let (jobs, runner, busy, pool) = shard_pool(2, None);
        let spec = spec();
        let ids: Vec<JobId> = (0..4).map(|_| enqueue(&jobs, &spec)).collect();

        let expected = spec.run().unwrap();
        for id in ids {
            let state = jobs.registry.await_done(id, Duration::from_secs(60));
            let Some(JobState::Done(result)) = state else {
                panic!("job should have finished");
            };
            assert_eq!(result.as_ref().as_ref().unwrap(), &expected);
        }
        // All four jobs share one shape: exactly one compile.
        assert_eq!(runner.templates_compiled(), 1);

        jobs.close();
        pool.join();
        assert_eq!(busy.load(Ordering::SeqCst), 0, "guards must balance");
    }

    #[test]
    fn injected_panic_is_contained_and_the_worker_keeps_draining() {
        // Exactly the first job panics; the second must still execute
        // on the same (surviving) worker thread.
        let plan =
            Arc::new(FaultPlan::new(1).with_rule(FaultSite::Worker, FaultKind::Panic, 1, Some(1)));
        let (jobs, _runner, busy, pool) = shard_pool(1, Some(plan));
        let spec = spec();
        let ids: Vec<JobId> = (0..2).map(|_| enqueue(&jobs, &spec)).collect();

        let first = jobs.registry.await_done(ids[0], Duration::from_secs(60));
        let Some(JobState::Done(result)) = first else {
            panic!("panicked job must still reach a terminal state");
        };
        let error = result.as_ref().as_ref().unwrap_err().to_string();
        assert!(error.contains("injected fault: worker panic"), "{error}");

        let second = jobs.registry.await_done(ids[1], Duration::from_secs(60));
        let Some(JobState::Done(result)) = second else {
            panic!("job after the panic should have finished");
        };
        assert_eq!(result.as_ref().as_ref().unwrap(), &spec.run().unwrap());

        jobs.close();
        pool.join();
        assert_eq!(
            busy.load(Ordering::SeqCst),
            0,
            "guards balance across panics"
        );
    }
}
