//! `fq-faults`: deterministic, seeded fault injection for the
//! FrozenQubits service stack.
//!
//! PRs 4–7 made robustness *claims* — 503 shedding with `retry-after`,
//! re-route with bounded backoff, corrupt-artifact-as-miss, panic
//! containment, byte-identical failover — each pinned by one
//! hand-rolled fault shape. This crate turns those claims into
//! *measured* behavior: a [`FaultPlan`] is a seeded schedule of fault
//! events (connection refused, mid-body truncation, read stalls, disk
//! read/write errors, artifact corruption, worker panics) that the
//! stack's three seams consult:
//!
//! * **storage** — [`FaultyStore`] decorates any
//!   [`TemplateStore`](frozenqubits::TemplateStore);
//! * **transport** — `ShardConn` rolls [`FaultSite::Dial`] /
//!   [`FaultSite::Response`], and the listener both servers share rolls
//!   [`FaultSite::Accept`];
//! * **engine** — the shard's job function rolls [`FaultSite::Worker`]
//!   before executing a job.
//!
//! Determinism is the point: the schedule is a pure function of
//! `(seed, site, visit ordinal)`, so a failing chaos run reproduces
//! from its seed alone, and `same seed → same fault schedule` is itself
//! a pinned invariant ([`FaultPlan::preview`]). With no plan configured
//! every hook is a skipped branch on a `None` — release binaries pay
//! nothing, pinned by the entire existing test suite running unchanged.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod plan;
mod store;

pub use plan::{FaultKind, FaultPlan, FaultRule, FaultSite};
pub use store::FaultyStore;
