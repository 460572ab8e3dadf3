//! What the dispatcher's job registry records: *outcomes* — raw
//! `(status, body)` pairs as the owning shard produced them.
//!
//! The registry itself is `fq-serve`'s, shared through the `/v1/jobs`
//! desk ([`fq_serve::jobs::Jobs`]): the lifecycle, retention and
//! tombstone mechanics (queued → running → done, TTL + count bounds,
//! `410` for expired ids) are the same code on both tiers, so clients
//! see one polling contract whether they talk to a shard or the front
//! door. This module holds the one thing that differs — the outcome —
//! and pins the registry's contract as the dispatcher instantiates it.

use fq_serve::error::error_body;
use fq_serve::jobs::JobOutcome;

/// A shard's final answer for one job, verbatim: the dispatcher does
/// not re-model results. A shard's response bytes are the product the
/// cluster sells, and keeping them verbatim is what lets the sync path
/// relay byte-identically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct Outcome {
    /// The HTTP status the shard (or the forwarder's shed path) chose.
    pub(crate) status: u16,
    /// The response body, byte-for-byte.
    pub(crate) body: String,
}

impl JobOutcome for Outcome {
    fn is_ok(&self) -> bool {
        self.status == 200
    }

    fn panicked(message: &str) -> Outcome {
        Outcome {
            status: 500,
            body: error_body("internal", &format!("job forwarding panicked: {message}")),
        }
    }

    fn reply(&self) -> (u16, String) {
        (self.status, self.body.clone())
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::{self, Sender};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use fq_serve::http::{Request, Response};
    use fq_serve::jobs::Jobs;
    use fq_serve::worker::WorkerPool;
    use frozenqubits::JobId;
    use serde::json::Value;

    use super::*;

    /// The dispatcher's desk: raw bodies with their fingerprints in,
    /// shard outcomes out.
    type Desk = Jobs<(String, String), Outcome>;

    /// A desk drained by one forwarder that answers each job with the
    /// next outcome the test sends, so the test decides when a job
    /// finishes and how.
    struct Front {
        jobs: Arc<Desk>,
        answers: Option<Sender<Outcome>>,
        pool: Option<WorkerPool>,
    }

    impl Front {
        fn new(ttl: Duration, max_done: usize) -> Front {
            let jobs = Arc::new(Jobs::new(16, ttl, max_done, Duration::from_secs(30)).unwrap());
            let (answers, script) = mpsc::channel();
            let mut script = Some(script);
            let pool = WorkerPool::spawn("registry-test", 1, &jobs, || {
                let script = script.take().expect("one forwarder");
                move |_: &(String, String)| script.recv().expect("an answer for every job")
            });
            Front {
                jobs,
                answers: Some(answers),
                pool: Some(pool),
            }
        }

        fn answer(&self, outcome: Outcome) {
            self.answers.as_ref().unwrap().send(outcome).unwrap();
        }

        fn submit_async(&self) -> JobId {
            let response = submit(&self.jobs, "async");
            assert_eq!(response.status, 202);
            job_id(&response)
        }

        /// A poll's HTTP status and what it names: the envelope's
        /// status, or the error kind of a `404`/`410`.
        fn poll(&self, id: JobId) -> (u16, String) {
            let response = self.jobs.poll(id);
            let body = Value::parse(&response.body).unwrap();
            let name = match response.status {
                200 => body.field("status").unwrap(),
                _ => body.field("error").unwrap().field("kind").unwrap(),
            };
            (response.status, name.as_str().unwrap().to_string())
        }

        /// Polls until `id` reads `status`, for transitions the
        /// forwarder makes on its own thread.
        fn wait_for(&self, id: JobId, status: &str) {
            let deadline = Instant::now() + Duration::from_secs(10);
            while self.poll(id) != (200, status.to_string()) {
                assert!(
                    Instant::now() < deadline,
                    "job {id} never reached `{status}` (last poll: {:?})",
                    self.poll(id)
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        }

        fn count(&self, name: &str) -> u64 {
            let counts = self.jobs.job_counts();
            let (_, value) = counts.iter().find(|(key, _)| *key == name).unwrap();
            value.as_u64().unwrap()
        }
    }

    impl Drop for Front {
        fn drop(&mut self) {
            self.jobs.close();
            // Hanging up unblocks a forwarder still waiting for an answer.
            self.answers.take();
            if let Some(pool) = self.pool.take() {
                pool.join();
            }
        }
    }

    fn submit(jobs: &Desk, mode: &str) -> Response {
        let request = Request {
            method: "POST".into(),
            path: "/v1/jobs".into(),
            query: Some(format!("mode={mode}")),
            body: b"{}".to_vec(),
            keep_alive: false,
            headers: Vec::new(),
        };
        jobs.submit(&request, |body| Ok((body.to_string(), "fp".to_string())))
    }

    fn job_id(response: &Response) -> JobId {
        let (_, id) = response
            .extra_headers
            .iter()
            .find(|(name, _)| *name == "fq-job-id")
            .expect("every accepted job names its id");
        id.parse().unwrap()
    }

    fn ok() -> Outcome {
        Outcome {
            status: 200,
            body: "{}".into(),
        }
    }

    fn saturated() -> Outcome {
        Outcome {
            status: 503,
            body: error_body("cluster_saturated", "every candidate shard is saturated"),
        }
    }

    #[test]
    fn lifecycle_counts_and_status_names() {
        let front = Front::new(Duration::from_secs(3600), 4096);
        let a = front.submit_async();
        let b = front.submit_async();
        // The one forwarder claims `a` and waits on its answer, so `b`
        // stays queued.
        front.wait_for(a, "running");
        assert_eq!(front.poll(b), (200, "queued".to_string()));
        front.answer(ok());
        front.answer(saturated());
        front.wait_for(a, "done");
        front.wait_for(b, "failed");
        assert_eq!(
            front.jobs.job_counts(),
            vec![
                ("submitted", Value::UInt(2)),
                ("completed", Value::UInt(1)),
                ("failed", Value::UInt(1)),
                ("expired", Value::UInt(0)),
            ]
        );
        assert_eq!(front.poll(JobId::new(999)), (404, "not_found".to_string()));
    }

    #[test]
    fn ttl_expiry_tombstones_like_the_shard_registry() {
        let front = Front::new(Duration::from_millis(20), 4096);
        front.answer(ok());
        let response = submit(&front.jobs, "sync");
        assert_eq!(response.status, 200);
        let id = job_id(&response);
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(front.poll(id), (410, "expired".to_string()));
        assert_eq!(front.count("expired"), 1);
    }

    #[test]
    fn fault_interrupted_failure_expires_instead_of_leaking() {
        // A job whose forwarding was cut short by faults completes with
        // a *failure* outcome (shed 503, upstream 502, ...). Failures
        // must ride the same retention train as successes: expired by
        // TTL, tombstoned, counted — never retained forever.
        let front = Front::new(Duration::from_millis(100), 4096);
        front.answer(saturated());
        let response = submit(&front.jobs, "sync");
        assert_eq!(response.status, 503);
        let id = job_id(&response);
        assert_eq!(front.poll(id), (200, "failed".to_string()));
        std::thread::sleep(Duration::from_millis(150));
        assert_eq!(
            front.poll(id),
            (410, "expired".to_string()),
            "a failed outcome must expire like a successful one"
        );
        assert_eq!(front.count("expired"), 1);
        assert_eq!(front.count("failed"), 1);
    }

    #[test]
    fn count_bound_expires_oldest_done_first() {
        // The count bound alone (generous TTL) must expire the oldest
        // finished job and answer Expired for it, while the newer ones
        // stay pollable — the poll-after-expiry half of the 410
        // contract without waiting on wall-clock TTLs.
        let front = Front::new(Duration::from_secs(3600), 2);
        let ids: Vec<JobId> = (0..3)
            .map(|_| {
                front.answer(ok());
                let response = submit(&front.jobs, "sync");
                assert_eq!(response.status, 200);
                job_id(&response)
            })
            .collect();
        // Completing the third pruned the first (max_done = 2).
        assert_eq!(front.poll(ids[0]), (410, "expired".to_string()));
        assert_eq!(front.poll(ids[1]), (200, "done".to_string()));
        assert_eq!(front.poll(ids[2]), (200, "done".to_string()));
        assert_eq!(front.count("expired"), 1);
        // An id never issued still answers Unknown, not Expired.
        assert_eq!(front.poll(JobId::new(999)), (404, "not_found".to_string()));
    }

    #[test]
    fn await_done_wakes_on_completion() {
        let front = Front::new(Duration::from_secs(3600), 4096);
        let waiter = {
            let jobs = Arc::clone(&front.jobs);
            std::thread::spawn(move || submit(&jobs, "sync"))
        };
        std::thread::sleep(Duration::from_millis(20));
        front.answer(Outcome {
            status: 200,
            body: "{\"ok\":true}".into(),
        });
        let response = waiter.join().unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "{\"ok\":true}", "relayed verbatim");
        assert_eq!(front.poll(job_id(&response)), (200, "done".to_string()));
    }

    #[test]
    fn outcomes_are_the_shards_answers_verbatim() {
        let ok = Outcome {
            status: 200,
            body: "{\"ok\":true}".into(),
        };
        assert!(ok.is_ok());
        assert_eq!(ok.reply(), (200, "{\"ok\":true}".to_string()));
        let saturated = Outcome {
            status: 503,
            body: "{}".into(),
        };
        assert!(!saturated.is_ok());
        // A panicking forward still ends the job, as a structured 500.
        let panicked = Outcome::panicked("boom");
        assert!(!panicked.is_ok());
        let (status, body) = panicked.reply();
        assert_eq!(status, 500);
        let error = Value::parse(&body).unwrap();
        let error = error.field("error").unwrap();
        assert_eq!(error.field("kind").unwrap().as_str().unwrap(), "internal");
        assert!(error
            .field("message")
            .unwrap()
            .as_str()
            .unwrap()
            .contains("boom"));
    }
}
