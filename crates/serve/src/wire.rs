//! The service's JSON envelopes, built on the same canonical document
//! model (`serde::json::Value`) as the core wire format.
//!
//! Two layers of format apply to every exchange:
//!
//! * **Payloads** — `JobSpec` request bodies and `JobResult` results —
//!   use the core wire format verbatim (`frozenqubits::api`, version
//!   tag `"v"`, golden-pinned in `tests/api_serde.rs`). The service
//!   never re-encodes a result: embedded results are
//!   `Value::parse(result.to_json())`, which round-trips byte-for-byte
//!   because the writer is canonical.
//! * **Envelopes** — submission acknowledgements, poll responses, error
//!   bodies, stats, the template index — carry their own `"v"` tag
//!   ([`WIRE_V`]) so the service surface can evolve independently of the
//!   job format.
//!
//! A document a shard writes and a dispatcher or client reads back has
//! its reader here, beside its writer: [`reply_from_envelope`] for the
//! poll envelope and [`parse_template_index`] for the template index.

use frozenqubits::{FqError, JobId, JobResult, TemplateIndexEntry};
use serde::json::Value;

use crate::error::{error_body, status_for_kind};
use crate::jobs::JobOutcome;
use crate::store::JobState;

/// Version tag of the service envelopes (independent of the job-spec
/// wire version).
pub const WIRE_V: u64 = 1;

/// The `GET /v1/healthz` body: `{"v":1,"status":"ok"}`.
pub fn healthz_body() -> String {
    Value::object(vec![
        ("v", Value::UInt(WIRE_V)),
        ("status", Value::string("ok")),
    ])
    .to_json()
}

/// The `{"v":1,"id":...,"status":...}` submission acknowledgement.
pub fn submit_ack(id: JobId) -> String {
    Value::object(vec![
        ("v", Value::UInt(WIRE_V)),
        ("id", Value::string(id.to_string())),
        ("status", Value::string("queued")),
    ])
    .to_json()
}

/// The poll envelope for `GET /v1/jobs/{id}`: status plus, when
/// finished, the outcome's body — embedded as the `result` document on
/// success, or as its `error` object on failure. Embedding parses the
/// canonical bytes, which round-trip byte-for-byte. A failure body that
/// is not an error envelope (a misbehaving upstream's) is carried as
/// the message of an `upstream` error.
pub(crate) fn job_envelope<T: JobOutcome>(id: JobId, state: &JobState<T>) -> String {
    let mut pairs = vec![
        ("v", Value::UInt(WIRE_V)),
        ("id", Value::string(id.to_string())),
        ("status", Value::string(state.status_name())),
    ];
    if let JobState::Done(outcome) = state {
        let (_, body) = outcome.reply();
        let document = Value::parse(&body);
        pairs.push(if outcome.is_ok() {
            ("result", document.unwrap_or(Value::Null))
        } else {
            let error = document.ok().and_then(|v| v.field("error").ok().cloned());
            (
                "error",
                error.unwrap_or_else(|| {
                    Value::object(vec![
                        ("kind", Value::string("upstream")),
                        ("message", Value::string(body)),
                    ])
                }),
            )
        });
    }
    Value::object(pairs).to_json()
}

/// The answer a synchronous submission would have carried for the job a
/// poll `envelope` describes: the inverse of `job_envelope` for a
/// shard's outcomes, so a `done` envelope gives back exactly
/// [`JobOutcome::reply`] — `200` and the embedded result's canonical
/// bytes — and a `failed` one the error's mapped status and error
/// envelope. `None` while the job is `queued` or `running`.
///
/// # Errors
///
/// [`FqError::Serde`] when the envelope is malformed or names an
/// unknown status.
pub fn reply_from_envelope(envelope: &str) -> Result<Option<(u16, String)>, FqError> {
    let v = Value::parse(envelope)?;
    match v.field("status")?.as_str()? {
        "done" => Ok(Some((200, v.field("result")?.to_json()))),
        "failed" => {
            let error = v.field("error")?;
            let kind = error.field("kind")?.as_str()?;
            let message = error.field("message")?.as_str()?;
            Ok(Some((status_for_kind(kind), error_body(kind, message))))
        }
        "queued" | "running" => Ok(None),
        other => Err(FqError::Serde(format!("unknown job status `{other}`"))),
    }
}

/// Extracts the embedded result from a poll envelope, used by clients
/// (and the e2e tests) to recover the byte-exact `JobResult` document.
///
/// # Errors
///
/// [`FqError::Serde`] when the envelope is malformed or the job is not
/// in the `done` state.
pub(crate) fn result_from_envelope(envelope: &str) -> Result<JobResult, FqError> {
    match reply_from_envelope(envelope)? {
        Some((200, body)) => JobResult::from_json(&body),
        _ => Err(FqError::Serde(
            "job is not `done`; no result to extract".into(),
        )),
    }
}

/// The `GET /v1/templates[?limit=K]` body: each entry's fingerprint and
/// recency stamp, in the given order (a shard lists its resident
/// templates hottest first, all of them or the `K` hottest). What a peer
/// pulls to plan its warm set, and what the dispatcher's sentinel probes
/// to find strays.
pub(crate) fn template_index_body(entries: impl IntoIterator<Item = TemplateIndexEntry>) -> String {
    Value::object(vec![
        ("v", Value::UInt(WIRE_V)),
        (
            "templates",
            Value::Array(
                entries
                    .into_iter()
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

/// The `(fingerprint, last_used)` rows of a `GET /v1/templates` body, in
/// order: the inverse of `template_index_body`.
///
/// # Errors
///
/// [`FqError::Serde`] when the body, or any one row, is malformed.
pub fn parse_template_index(body: &str) -> Result<Vec<(String, u64)>, FqError> {
    Value::parse(body)?
        .field("templates")?
        .as_array()?
        .iter()
        .map(|entry| {
            Ok((
                entry.field("fingerprint")?.as_str()?.to_string(),
                entry.field("last_used")?.as_u64()?,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use frozenqubits::api::{DeviceSpec, JobBuilder, JobSpec};
    use frozenqubits::QosTier;
    use std::sync::Arc;

    #[test]
    fn submit_ack_is_canonical() {
        assert_eq!(
            submit_ack(JobId::new(7)),
            r#"{"v":1,"id":"job-0000000000000007","status":"queued"}"#
        );
    }

    #[test]
    fn envelopes_embed_results_byte_exactly() {
        let result = JobBuilder::new()
            .barabasi_albert(8, 1, 5)
            .device(DeviceSpec::IbmMontreal)
            .baseline()
            .build()
            .unwrap()
            .run()
            .unwrap();
        let envelope = job_envelope::<Result<JobResult, FqError>>(
            JobId::new(1),
            &JobState::Done(std::sync::Arc::new(Ok(result.clone()))),
        );
        let parsed = Value::parse(&envelope).unwrap();
        assert_eq!(parsed.field("status").unwrap().as_str().unwrap(), "done");
        // The embedded document re-serializes to the pinned wire bytes.
        assert_eq!(
            parsed.field("result").unwrap().to_json(),
            result.to_json(),
            "embedding must preserve the canonical result bytes"
        );
        assert_eq!(result_from_envelope(&envelope).unwrap(), result);
    }

    #[test]
    fn envelopes_carry_errors_and_progress_states() {
        let failed = job_envelope::<Result<JobResult, FqError>>(
            JobId::new(2),
            &JobState::Done(std::sync::Arc::new(Err(FqError::InvalidConfig(
                "boom".into(),
            )))),
        );
        let v = Value::parse(&failed).unwrap();
        assert_eq!(v.field("status").unwrap().as_str().unwrap(), "failed");
        assert_eq!(
            v.field("error")
                .unwrap()
                .field("kind")
                .unwrap()
                .as_str()
                .unwrap(),
            "invalid_config"
        );
        assert!(result_from_envelope(&failed).is_err());

        let queued = job_envelope::<Result<JobResult, FqError>>(JobId::new(3), &JobState::Queued);
        assert!(Value::parse(&queued).unwrap().field("result").is_err());
    }

    /// SplitMix64, the seeded case stream of the properties below (the
    /// offline build has no `proptest`).
    struct Cases(u64);

    impl Cases {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        /// Up to 23 characters, drawn from ones the JSON writer must
        /// escape and ones it must not.
        fn text(&mut self) -> String {
            const CHARS: [char; 11] =
                ['a', 'Z', '7', ' ', '"', '\\', '\n', '\t', '\u{1}', 'é', '€'];
            (0..self.below(24))
                .map(|_| CHARS[self.below(CHARS.len())])
                .collect()
        }
    }

    /// A shard's result for case `i`, on a generated Barabási–Albert
    /// problem: cases `0..12` run every job kind at every tier a spec may
    /// take (sampling is exact-only).
    fn result(cases: &mut Cases, i: usize) -> JobResult {
        let tier = match i % 4 {
            3 => QosTier::Exact,
            _ => QosTier::ALL[i / 4 % 3],
        };
        let builder = JobBuilder::new()
            .barabasi_albert(6 + cases.below(5), 1 + cases.below(2), cases.next())
            .device(DeviceSpec::ALL[cases.below(6)])
            .num_frozen(1 + cases.below(2))
            .seed(cases.next())
            .tier(tier);
        let builder = match i % 4 {
            0 => builder.baseline(),
            1 => builder.frozen(),
            2 => builder.compare(),
            _ => builder.sample(1 + cases.next() % 64),
        };
        builder.build().unwrap().run().unwrap()
    }

    /// The error a shard records for case `i`: each kind a job spec can
    /// reach the engine with, in turn, then a panicked job.
    fn failure(cases: &mut Cases, i: usize) -> FqError {
        let n = 3 + cases.below(6);
        let run = |json: &str| JobSpec::from_json(json).and_then(|spec| spec.run());
        let spec = |n: usize, d: usize| {
            JobBuilder::new()
                .barabasi_albert(n, d, 1)
                .device(DeviceSpec::IbmMontreal)
                .baseline()
                .build()
        };
        match i % 8 {
            0 => FqError::TooManyFrozen {
                m: n + 1 + cases.below(3),
                num_vars: n,
            },
            1 => FqError::InvalidConfig(cases.text()),
            2 => {
                // A valid spec whose problem couples a variable to itself.
                let json = spec(n, 1).unwrap().to_json();
                let (head, tail) = json.split_once(r#","device""#).unwrap();
                let (head, _) = head.split_once(r#""problem":"#).unwrap();
                let model = format!(
                    r#"{{"type":"ising","num_vars":{n},"offset":0,"linear":[],"couplings":[[1,1,0.5]]}}"#
                );
                run(&format!(r#"{head}"problem":{model},"device"{tail}"#)).unwrap_err()
            }
            3 => spec(n, n + cases.below(3)).unwrap_err(),
            4 => spec(28 + cases.below(8), 1)
                .and_then(|spec| spec.run())
                .unwrap_err(),
            5 => run(&format!("{{{}", cases.text())).unwrap_err(),
            6 => FqError::UnknownTier(cases.text()),
            _ => <Result<JobResult, FqError> as JobOutcome>::panicked(&cases.text()).unwrap_err(),
        }
    }

    /// For generated shard outcomes, the poll envelope of a finished job
    /// gives back the job's synchronous answer byte for byte, and an
    /// unfinished job's gives back none.
    #[test]
    fn reply_from_envelope_inverts_job_envelope() {
        let mut cases = Cases(23);
        let mut outcomes: Vec<Result<JobResult, FqError>> =
            (0..16).map(|i| Ok(result(&mut cases, i))).collect();
        outcomes.extend((0..24).map(|i| Err(failure(&mut cases, i))));
        let mut kinds: Vec<&str> = outcomes
            .iter()
            .filter_map(|outcome| outcome.as_ref().err().map(crate::error::kind_name))
            .collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(
            kinds.join(" "),
            "graph invalid_config io ising serde too_many_frozen transpile unknown_tier"
        );
        for outcome in outcomes {
            let reply = outcome.reply();
            let id = JobId::new(cases.next());
            let envelope = job_envelope(id, &JobState::Done(Arc::new(outcome)));
            assert_eq!(reply_from_envelope(&envelope).unwrap(), Some(reply));
        }
        for state in [JobState::Queued, JobState::Running] {
            let id = JobId::new(cases.next());
            let envelope = job_envelope::<Result<JobResult, FqError>>(id, &state);
            assert_eq!(reply_from_envelope(&envelope).unwrap(), None);
        }
    }

    #[test]
    fn template_index_round_trips() {
        let mut cases = Cases(5);
        for _ in 0..64 {
            let rows: Vec<(String, u64)> = (0..cases.below(12))
                .map(|_| (format!("{:016x}", cases.next()), cases.next()))
                .collect();
            let entries = rows
                .iter()
                .map(|(fingerprint, last_used)| TemplateIndexEntry {
                    fingerprint: fingerprint.clone(),
                    last_used: *last_used,
                });
            let body = template_index_body(entries);
            assert_eq!(parse_template_index(&body).unwrap(), rows, "{body}");
        }
        // One malformed row fails the whole index.
        let index = r#"{"v":1,"templates":[{"fingerprint":"00c0ffee00c0ffee","last_used":1},{}]}"#;
        assert!(parse_template_index(index).is_err());
    }
}
