//! The repository benchmark: three closed-loop workloads over the
//! FrozenQubits engine (`BatchRunner`), a live `fq-serve` shard and an
//! `fq-dispatch` cluster of two shards, all spawned inside this process.
//!
//! One run executes one workload for a job count fixed by `--seconds`,
//! checks every result against an in-process reference, and prints its
//! metrics; a traced run (`--trace 1`) prints the per-layer metrics
//! instead. `NOTES.md` beside this crate describes every workload and
//! metric.

pub mod inputs;
pub mod report;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workloads;
