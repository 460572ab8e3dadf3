//! The `/v1/jobs` desk both servers run: one submit path and one poll
//! path over a bounded queue of payloads and the registry of their
//! outcomes. A shard queues parsed `JobSpec`s for its engine workers;
//! the dispatcher queues raw bodies for its forwarders. Everything else
//! — sync or async, backpressure, degradation to `202`, expiry — is
//! the same contract on both, because it is this code.
//!
//! Public because the sibling `fq-dispatch` crate runs its front door
//! on the same desk.

use std::time::Duration;

use frozenqubits::{FqError, JobId, JobResult};
use serde::json::Value;

use crate::error::{
    error_body, error_response, kind_name, method_not_allowed, not_found, status_for,
};
use crate::http::{Request, Response};
use crate::queue::{BoundedQueue, PushError};
use crate::store::{JobState, Lookup, Registry};
use crate::wire::{job_envelope, submit_ack};

/// What a finished job leaves in the registry: the three things that
/// differ between a shard's jobs and the dispatcher's.
pub trait JobOutcome: Send + Sync + 'static {
    /// Whether the job succeeded: a poll reads `done`, otherwise
    /// `failed`.
    fn is_ok(&self) -> bool;

    /// The outcome recorded for a job whose execution panicked with
    /// `message` — so the job still ends, as `failed`.
    fn panicked(message: &str) -> Self;

    /// The HTTP answer for the finished job: status and body. A
    /// synchronous submission returns it as is; a poll envelope embeds
    /// the body as its `result` (success) or its `error` member.
    fn reply(&self) -> (u16, String);
}

/// A shard's outcome: the engine's result. Success is the bare
/// canonical `JobResult` document — byte-identical to
/// `JobResult::to_json()` of a direct `BatchRunner` run; failure is the
/// error envelope under the error's mapped status.
impl JobOutcome for Result<JobResult, FqError> {
    fn is_ok(&self) -> bool {
        self.is_ok()
    }

    fn panicked(message: &str) -> Self {
        Err(FqError::Io(format!("job execution panicked: {message}")))
    }

    fn reply(&self) -> (u16, String) {
        match self {
            Ok(result) => (200, result.to_json()),
            Err(error) => (
                status_for(error),
                error_body(kind_name(error), &error.to_string()),
            ),
        }
    }
}

/// A bounded queue of `T` payloads, the registry of their `R` outcomes,
/// and the sync-wait budget of the submit path.
#[derive(Debug)]
pub struct Jobs<T, R> {
    pub(crate) queue: BoundedQueue<(JobId, T)>,
    pub(crate) registry: Registry<R>,
    sync_wait: Duration,
}

impl<T, R: JobOutcome> Jobs<T, R> {
    /// A desk queueing at most `queue_capacity` jobs, retaining finished
    /// outcomes for `job_ttl` (at most `max_done_jobs` of them), and
    /// letting a synchronous submission wait `sync_wait` before it
    /// degrades to `202`.
    ///
    /// # Errors
    ///
    /// [`FqError::InvalidConfig`] for a zero `queue_capacity`.
    pub fn new(
        queue_capacity: usize,
        job_ttl: Duration,
        max_done_jobs: usize,
        sync_wait: Duration,
    ) -> Result<Jobs<T, R>, FqError> {
        if queue_capacity == 0 {
            return Err(FqError::InvalidConfig(
                "queue_capacity must be at least 1".into(),
            ));
        }
        Ok(Jobs {
            queue: BoundedQueue::new(queue_capacity),
            registry: Registry::new(job_ttl, max_done_jobs),
            sync_wait,
        })
    }

    /// `POST /v1/jobs`: mode check → `payload` (the caller's parse of the
    /// body; its `Err` response is returned as is) → enqueue → sync wait
    /// or async acknowledgement.
    pub fn submit(
        &self,
        request: &Request,
        payload: impl FnOnce(&str) -> Result<T, Response>,
    ) -> Response {
        let sync = match request.query_param("mode") {
            None | Some("sync") => true,
            Some("async") => false,
            Some(other) => {
                return error_response(
                    400,
                    "bad_request",
                    &format!("unknown mode `{other}` (expected sync or async)"),
                )
            }
        };
        let Ok(body) = std::str::from_utf8(&request.body) else {
            return error_response(400, "bad_request", "request body is not valid UTF-8");
        };
        let payload = match payload(body) {
            Ok(payload) => payload,
            Err(response) => return response,
        };

        let id = self.registry.register();
        match self.queue.push((id, payload)) {
            Ok(()) => {}
            Err(PushError::Full) => {
                self.registry.discard(id);
                return error_response(
                    503,
                    "queue_full",
                    &format!(
                        "job queue is at capacity ({}); retry later",
                        self.queue.capacity()
                    ),
                )
                .with_header("retry-after", "1");
            }
            Err(PushError::Closed) => {
                self.registry.discard(id);
                return error_response(503, "shutting_down", "server is shutting down");
            }
        }

        if !sync {
            return Response::json(202, submit_ack(id))
                .with_header("location", format!("/v1/jobs/{id}"))
                .with_header("fq-job-id", id.to_string());
        }
        match self.registry.await_done(id, self.sync_wait) {
            // Finished in time: the outcome's own answer. On a shard a
            // success is the bare canonical JobResult document; on the
            // dispatcher it is the owning shard's bytes verbatim, and a
            // relayed cluster shed keeps the shards' retry-after
            // discipline.
            Some(JobState::Done(outcome)) => {
                let (status, body) = outcome.reply();
                let response =
                    Response::json(status, body).with_header("fq-job-id", id.to_string());
                match status {
                    503 => response.with_header("retry-after", "1"),
                    _ => response,
                }
            }
            // Still queued/running after `sync_wait`: degrade to async.
            Some(pending) => Response::json(202, job_envelope(id, &pending))
                .with_header("location", format!("/v1/jobs/{id}"))
                .with_header("fq-job-id", id.to_string()),
            None => error_response(500, "internal", "job vanished from the registry"),
        }
    }

    /// A request whose path is `/v1/jobs/` followed by `raw_id`, on
    /// either server: `404` for an empty or nested id, `405` with
    /// `Allow: GET` for any other method, `400` with `JobId::from_str`'s
    /// own message for an id that does not parse, and [`Jobs::poll`] for
    /// the rest.
    pub fn poll_request(&self, request: &Request, raw_id: &str) -> Response {
        if raw_id.is_empty() || raw_id.contains('/') {
            return not_found(&request.path);
        }
        if request.method != "GET" {
            return method_not_allowed(&request.method, "GET");
        }
        match raw_id.parse::<JobId>() {
            Ok(id) => self.poll(id),
            // The parse error's own text, without the generic serde-error
            // prefix: one source for the expected-format message.
            Err(FqError::Serde(message)) => error_response(400, "bad_request", &message),
            Err(other) => error_response(400, "bad_request", &other.to_string()),
        }
    }

    /// `GET /v1/jobs/{id}`: the poll envelope, `410` once the outcome
    /// expired, `404` for an id never issued.
    pub fn poll(&self, id: JobId) -> Response {
        match self.registry.lookup(id) {
            Lookup::Active(state) => Response::json(200, job_envelope(id, &state)),
            Lookup::Expired => error_response(
                410,
                "expired",
                &format!("job `{id}` finished, but its result passed the retention bound (TTL/count) and was expired"),
            ),
            Lookup::Unknown => error_response(404, "not_found", &format!("no such job `{id}`")),
        }
    }

    /// Closes the queue: submissions get `503` `shutting_down`, workers
    /// drain what is queued and exit.
    pub fn close(&self) {
        self.queue.close();
    }

    /// The `queue` object of `/v1/stats`.
    pub fn queue_stats(&self) -> Value {
        Value::object(vec![
            ("depth", Value::UInt(self.queue.depth() as u64)),
            ("capacity", Value::UInt(self.queue.capacity() as u64)),
        ])
    }

    /// The counter members of the `jobs` object of `/v1/stats`.
    pub fn job_counts(&self) -> Vec<(&'static str, Value)> {
        let counts = self.registry.counts();
        vec![
            ("submitted", Value::UInt(counts.submitted)),
            ("completed", Value::UInt(counts.completed)),
            ("failed", Value::UInt(counts.failed)),
            ("expired", Value::UInt(counts.expired)),
        ]
    }
}
