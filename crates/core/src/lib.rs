//! **FrozenQubits**: boosting QAOA fidelity by skipping hotspot nodes —
//! a full Rust reproduction of the ASPLOS 2023 paper.
//!
//! Real-world problem graphs follow power-law degree distributions: a few
//! *hotspot* nodes carry a disproportionate share of the edges, and every
//! edge costs two error-prone CNOTs per QAOA layer (plus SWAP overhead on
//! sparse hardware). FrozenQubits substitutes the hotspot spins with their
//! two possible values, partitioning the state space into `2^m` smaller
//! sub-problems whose circuits are dramatically more reliable; spin-flip
//! symmetry lets it skip half of the sub-problems outright, and a
//! compile-once/edit-many template amortizes transpilation.
//!
//! The crate orchestrates the full workflow of Fig. 4 on the substrates in
//! the sibling crates (`fq-ising`, `fq-graphs`, `fq-circuit`,
//! `fq-transpile`, `fq-sim`, `fq-optim`):
//!
//! Execution follows a two-phase **plan/execute** architecture:
//! [`plan_execution`] freezes the hotspots, partitions the state space and
//! compiles **one** [`CompiledTemplate`] per distinct sub-circuit shape
//! (usually exactly one), then every branch runs on the shared template —
//! sequentially, or in parallel across all cores, as the
//! [`ExecutorKind`] says: analytic branches read its memoized noise
//! tables, sampling branches angle-edit it. The public front door over
//! that core is the **job API** in [`api`]:
//!
//! * [`api::JobBuilder`] → [`api::JobSpec`] → [`api::JobResult`] — typed
//!   job descriptions, validated when built and when parsed, with a
//!   pinned JSON wire form;
//! * [`api::BackendSpec`] — the noise model (the paper's lightcone model
//!   or a global process-fidelity estimate), chosen per job instead of
//!   assumed;
//! * [`api::BatchRunner`] — many jobs, one [`TemplateCache`]: compile
//!   each distinct sub-circuit shape once per batch (cross-job §3.7.1);
//! * [`select_hotspots`] — which qubits to freeze (§3.5);
//! * [`partition_problem`] — `2^m` sub-problems with symmetry pruning
//!   (§3.3, §3.7.2);
//! * [`CompiledTemplate`] — compile-once/edit-many executables (§3.7.1);
//! * [`plan_execution`] / [`ExecutionPlan`] — phase 1: partition + shared
//!   templates;
//! * [`api::Backend`] — phase 2: a [`api::BackendSpec`] built with an
//!   [`ExecutorKind`] runs one plan's branches, bit-identical at every
//!   thread count;
//! * [`metrics`] — ARG (Eq. 4), AR (Eq. 5), improvement factors, GMEAN;
//! * [`runtime`] — the end-to-end runtime model of Eq. 6.
//!
//! Every error anywhere in the workspace converts into the single
//! [`FqError`] enum, so application code threads one `?`-able type.
//! The sibling `fq-serve` crate serves this exact API over HTTP/1.1 —
//! request and response bodies are the pinned [`api::JobSpec`] /
//! [`api::JobResult`] wire documents, byte for byte.
//!
//! # Quickstart
//!
//! ```
//! use frozenqubits::api::{DeviceSpec, JobBuilder};
//!
//! // A 12-node power-law (Barabási–Albert) Max-Cut-style instance,
//! // compared baseline-vs-frozen on the IBM-Montreal model.
//! let spec = JobBuilder::new()
//!     .barabasi_albert(12, 1, 7)
//!     .device(DeviceSpec::IbmMontreal)
//!     .compare()
//!     .build()?;
//! let report = spec.run()?.into_compare()?;
//! assert!(report.improvement > 1.0, "freezing the hotspot improves fidelity");
//! # Ok::<(), frozenqubits::FqError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
mod config;
mod error;
mod executor;
mod hotspot;
pub mod metrics;
mod partition;
mod pipeline;
mod plan;
pub mod runtime;
mod solve;
mod store;
mod template;

pub use api::{
    Backend, BackendSpec, BatchRunner, DeviceSpec, ErrorModel, GraphWeighting, Job, JobBuilder,
    JobId, JobKind, JobResult, JobSpec, ProblemSpec, MAX_SHOTS,
};
pub use config::{FrozenQubitsConfig, QosTier};
pub use error::FqError;
pub use executor::{auto_threads, BranchOutcome, BranchSamples, ExecutorKind};
pub use hotspot::{edges_eliminated, select_hotspots, HotspotStrategy};
pub use partition::{partition_problem, Partition, SubproblemExec, MAX_FROZEN_QUBITS};
pub use pipeline::{optimize_parameters_prepared, CircuitMetrics, Report, RunSummary};
pub use plan::{
    plan_execution, plan_execution_cached, CacheStats, ExecutionPlan, ShapeSignature, TemplateCache,
};
pub use solve::SolveOutcome;
pub use store::{
    is_template_fingerprint, DiskStore, MemoryStore, StoreStats, TemplateArtifact,
    TemplateIndexEntry, TemplateKey, TemplateStore, TieredStore, TEMPLATE_WIRE_VERSION,
};
pub use template::CompiledTemplate;
// The one FNV-1a of the workspace, for crates that hash stable names
// without depending on the transpiler directly.
pub use fq_transpile::Fnv64;
