//! **fq-dispatch** — a cluster front door over a fleet of `fq-serve`
//! shards, with template-affinity routing and telemetry-driven warm
//! transfer.
//!
//! One `fq-serve` process compiles each distinct circuit *template*
//! once and amortizes it across jobs via its template cache. Run N
//! shards behind naive round-robin and that property collapses: every
//! shard ends up compiling every template. This crate adds the tier
//! that preserves it — a dispatcher speaking exactly the shard wire
//! surface because it runs on the shard's own substrate: `fq-serve`'s
//! listener, `/v1/jobs` desk (bounded queue, job registry, submit and
//! poll) and worker pool, with workers that forward instead of execute.
//! What this crate adds:
//!
//! * **Template-affinity routing** ([`ring`]): jobs are routed by the
//!   rendezvous (highest-random-weight) hash of their template
//!   fingerprint, so each template's jobs concentrate on one shard and
//!   the fleet compiles each template ~once. Adding or removing a shard
//!   moves only the keys that shard owned.
//! * **Failure absorption**: transport errors and shard `503`s re-route
//!   to the next candidate with bounded backoff; engine errors relay
//!   verbatim (they are deterministic — a second shard would produce
//!   the same bytes). When every candidate is exhausted, the dispatcher
//!   sheds with the shards' own `503` + `retry-after` contract.
//! * **A sentinel** that probes `/v1/healthz` + `/v1/stats` + the `K`
//!   hottest rows of `/v1/templates` (`?limit=K`, `K` derived from the
//!   per-cycle push budget) on every shard, promotes/demotes routing
//!   health, and continuously pushes compiled-template artifacts toward
//!   their rendezvous owners — a cold or newly joined shard is warmed
//!   while the cluster runs, no restarts. The rows a cycle transfers
//!   and plans from are bounded by `K`, and its pushes by the budget; an
//!   owner that refuses a push, or a shard that cannot be reached,
//!   leaves the rest of the cycle's pass. Each shard still sorts its
//!   whole index to answer a probe.
//!
//! The contract that makes the tier honest: a synchronous `200` from
//! the dispatcher is the owning shard's response **byte-for-byte**, and
//! a shard's `200` is byte-identical to a direct
//! `BatchRunner` run — so fronting the fleet changes *where* a job
//! runs, never *what* comes back (pinned in `tests/dispatch_cluster.rs`
//! at the workspace root).
//!
//! | endpoint | what it does |
//! |----------|--------------|
//! | `POST /v1/jobs` | submit one spec; routed by fingerprint, relayed verbatim (sync), or `202` + dispatcher-side id (async / degraded) |
//! | `GET /v1/jobs/{id}` | poll a dispatcher-side job |
//! | `POST /v1/batch` | a JSON array of specs; scattered by affinity, merged in job order |
//! | `GET /v1/healthz` | dispatcher liveness |
//! | `GET /v1/stats` | shard roster + health + telemetry, queue, job counters, forward/re-route/shed/warm-push/warm-refused counters |
//! | `GET /v1/shards` | the shard roster |
//! | `POST /v1/shards` | admin join (`{"addr":"host:port"}`), bearer-token gated |
//!
//! From the shell: `cargo run --release -p fq-dispatch --bin dispatch --
//! --shard 127.0.0.1:8701 --shard 127.0.0.1:8702` (see the README's
//! "Running a cluster").

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod forward;
mod registry;
pub mod ring;
mod sentinel;
mod server;
mod shards;

pub use server::{DispatchConfig, DispatchHandle, Dispatcher};
pub use shards::{ProbeStats, ShardSnapshot};

// Dispatcher-side jobs reuse the core id type, like the shards do.
pub use frozenqubits::JobId;
