//! **fq-serve** — the HTTP/1.1 front door of the FrozenQubits engine.
//!
//! The engine has been service-shaped since the batch PRs: `JobSpec` /
//! `JobResult` have a pinned, version-tagged canonical JSON wire format,
//! and `BatchRunner` executes jobs against a concurrent, bounded,
//! stats-bearing `TemplateCache`. This crate adds the missing network
//! layer, hand-rolled on `std::net` because the workspace is offline
//! (no hyper/tokio):
//!
//! * a `TcpListener` accept loop feeding a **bounded job queue** (full →
//!   `503` backpressure, never unbounded memory);
//! * a **worker pool** draining the queue through one shared
//!   [`BatchRunner`](frozenqubits::BatchRunner) — concurrent clients
//!   warm each other's compiled templates;
//! * the same substrate, public for the `fq-dispatch` front door: the
//!   [`listener`], the [`jobs`] desk (a bounded queue and the job
//!   registry behind one submit path and one poll path) and the
//!   [`worker`] pool;
//! * four endpoints under `/v1`:
//!
//! | endpoint | what it does |
//! |----------|--------------|
//! | `POST /v1/jobs` | submit a `JobSpec` body; sync by default (the `200` body is the bare canonical `JobResult`), `?mode=async` for `202` + id |
//! | `GET /v1/jobs/{id}` | poll: `queued` / `running` / `done` (+ embedded result) / `failed` (+ error) |
//! | `GET /v1/healthz` | liveness probe |
//! | `GET /v1/stats` | template-cache hit/miss/eviction, queue depth, job counters |
//!
//! Request and response payloads are exactly the core wire format —
//! golden-pinned in `tests/api_serde.rs` — so anything that can write a
//! spec to a file can drive the service, and a synchronous submission's
//! body is **byte-identical** to `JobResult::to_json()` of a direct
//! `BatchRunner` run (pinned in `tests/http_service.rs`).
//!
//! # In-process quickstart
//!
//! ```
//! use fq_serve::{client, Server, ServerConfig};
//! use frozenqubits::api::{DeviceSpec, JobBuilder};
//!
//! let handle = Server::spawn(ServerConfig::default())?;
//! let addr = handle.addr().to_string();
//!
//! let spec = JobBuilder::new()
//!     .barabasi_albert(10, 1, 7)
//!     .device(DeviceSpec::IbmMontreal)
//!     .compare()
//!     .build()?;
//! let report = client::submit_sync(&addr, &spec)?.into_compare()?;
//! assert!(report.improvement > 1.0);
//!
//! handle.shutdown();
//! # Ok::<(), frozenqubits::FqError>(())
//! ```
//!
//! Or from the shell: `cargo run --release -p fq-serve --bin serve`,
//! then `curl` the endpoints (see the README's "Running the service").

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod error;
pub mod http;
pub mod jobs;
pub mod listener;
mod queue;
#[cfg(test)]
mod router;
mod server;
mod store;
pub mod wire;
pub mod worker;

pub use listener::ServerHandle;
pub use server::{Server, ServerConfig};

// The service names jobs with the core's `JobId`; re-exported so client
// code doesn't need a direct `frozenqubits` dependency for polling.
pub use frozenqubits::JobId;
