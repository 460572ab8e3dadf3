//! The unified job API — the front door of the framework.
//!
//! Everything the pipeline can do is expressed as a **job**: a problem
//! (explicit Ising model, weighted graph, or generator family), a device,
//! a [`FrozenQubitsConfig`], a [`BackendSpec`] choice and a [`JobKind`].
//! The flow is
//!
//! ```text
//! JobBuilder ──build()──▶ JobSpec ──run()──▶ JobResult
//!    (typed, validated)   (serializable)     (summary / report / samples)
//! ```
//!
//! * [`JobBuilder`] validates at **build time** — freezing more qubits
//!   than the problem has, zero shots or more than [`MAX_SHOTS`], or a
//!   multi-layer request beyond the statevector width limit fail before
//!   any circuit is synthesized.
//! * [`JobSpec`] is plain data with a pinned JSON wire format
//!   ([`JobSpec::to_json`] / [`JobSpec::from_json`]), so specs can be
//!   queued, logged and replayed byte-for-byte — the wire format the
//!   `fq-serve` HTTP job service speaks verbatim.
//! * [`BackendSpec`] makes the noise model explicit: the paper's
//!   lightcone model is [`BackendSpec::Sim`], *chosen*, not assumed, and
//!   [`BackendSpec::NoiseModel`] trades it for a cheaper global
//!   process-fidelity estimate. [`BackendSpec::build`] pairs the choice
//!   with an [`ExecutorKind`](crate::ExecutorKind) into a [`Backend`]
//!   that runs one plan.
//! * [`BatchRunner`] executes many specs against one shared
//!   [`TemplateCache`], extending the per-job
//!   compile-once amortization across jobs.
//!
//! # Example
//!
//! ```
//! use frozenqubits::api::{DeviceSpec, JobBuilder};
//!
//! let spec = JobBuilder::new()
//!     .barabasi_albert(12, 1, 7)
//!     .device(DeviceSpec::IbmMontreal)
//!     .compare()
//!     .build()?;
//! let report = spec.run()?.into_compare()?;
//! assert!(report.improvement > 1.0, "freezing the hotspot improves fidelity");
//! # Ok::<(), frozenqubits::FqError>(())
//! ```

mod backend;
mod batch;
pub(crate) mod wire;

pub use crate::config::QosTier;
pub use backend::{Backend, BackendSpec};
pub use batch::BatchRunner;

use std::sync::OnceLock;

use fq_graphs::{gen, to_ising_pm1, to_ising_unit, Graph};
use fq_ising::{IsingModel, OutputDistribution, SpinVec};
use fq_transpile::{Device, Fnv64};

use crate::pipeline::summarize_outcomes;
use crate::plan::{plan_execution_cached, ShapeSignature, TemplateCache};
use crate::solve::SolveOutcome;
use crate::store::TemplateKey;
use crate::{metrics, FqError, FrozenQubitsConfig, Report, RunSummary};

/// How a job's problem Hamiltonian is obtained.
///
/// Explicit models travel in full; graph and generator forms stay tiny on
/// the wire and are materialized deterministically at run time.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum ProblemSpec {
    /// An explicit Ising model.
    Ising(IsingModel),
    /// An undirected simple graph plus an edge-weighting rule.
    Graph {
        /// Node count.
        num_nodes: usize,
        /// Undirected edges as `(a, b)` pairs.
        edges: Vec<(usize, usize)>,
        /// How edge weights become coupling coefficients.
        weighting: GraphWeighting,
    },
    /// A Barabási–Albert power-law instance (the paper's primary
    /// benchmark family) with ±1 edge weights drawn from `seed`.
    BarabasiAlbert {
        /// Node count.
        n: usize,
        /// Attachment degree `d_BA`.
        d: usize,
        /// Generator and weighting seed.
        seed: u64,
    },
}

/// Edge-weighting rule for [`ProblemSpec::Graph`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum GraphWeighting {
    /// Every edge gets coupling `+1` (Max-Cut style).
    Unit,
    /// Random ±1 couplings drawn from `seed` (the paper's §4.1 setup).
    Pm1 {
        /// Weighting seed.
        seed: u64,
    },
}

impl ProblemSpec {
    /// The problem width (variable count), computed without
    /// materializing the model.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        match self {
            ProblemSpec::Ising(model) => model.num_vars(),
            ProblemSpec::Graph { num_nodes, .. } => *num_nodes,
            ProblemSpec::BarabasiAlbert { n, .. } => *n,
        }
    }

    /// Materializes the problem Hamiltonian.
    ///
    /// # Errors
    ///
    /// Propagates graph-construction and generator errors as
    /// [`FqError::Graph`].
    pub fn resolve(&self) -> Result<IsingModel, FqError> {
        match self {
            ProblemSpec::Ising(model) => Ok(model.clone()),
            ProblemSpec::Graph {
                num_nodes,
                edges,
                weighting,
            } => {
                let mut graph = Graph::new(*num_nodes);
                for &(a, b) in edges {
                    graph.add_edge(a, b)?;
                }
                Ok(match weighting {
                    GraphWeighting::Unit => to_ising_unit(&graph),
                    GraphWeighting::Pm1 { seed } => to_ising_pm1(&graph, *seed),
                })
            }
            ProblemSpec::BarabasiAlbert { n, d, seed } => {
                Ok(to_ising_pm1(&gen::barabasi_albert(*n, *d, *seed)?, *seed))
            }
        }
    }
}

/// A service-assigned job identifier with a stable wire form.
///
/// The HTTP service (`fq-serve`) mints one per submitted [`JobSpec`] and
/// hands it back for polling; it lives here so any future front door
/// (gRPC, CLI queue files, sharded dispatchers) names jobs the same way.
/// The wire form is `job-` followed by exactly 16 lower-case hex digits
/// (`job-000000000000002a`), so IDs sort lexicographically in submission
/// order and survive logs, URLs and JSON untouched.
///
/// # Examples
///
/// ```
/// use frozenqubits::api::JobId;
///
/// let id = JobId::new(42);
/// assert_eq!(id.to_string(), "job-000000000000002a");
/// assert_eq!("job-000000000000002a".parse::<JobId>(), Ok(id));
/// assert!("job-42".parse::<JobId>().is_err(), "digits are zero-padded");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(u64);

impl JobId {
    /// Wraps a raw sequence number.
    #[must_use]
    pub fn new(value: u64) -> JobId {
        JobId(value)
    }

    /// The raw sequence number.
    #[must_use]
    pub fn value(&self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{:016x}", self.0)
    }
}

impl std::str::FromStr for JobId {
    type Err = FqError;

    fn from_str(s: &str) -> Result<JobId, FqError> {
        // Lower-case only: the wire form is canonical, so one job must
        // not be addressable under two spellings.
        let digits = s
            .strip_prefix("job-")
            .filter(|d| {
                d.len() == 16
                    && d.bytes()
                        .all(|b| b.is_ascii_digit() || (b'a'..=b'f').contains(&b))
            })
            .ok_or_else(|| {
                FqError::Serde(format!(
                    "malformed job id `{s}` (expected job-<16 hex digits>)"
                ))
            })?;
        // The shape check above makes this parse infallible, but keep the
        // error path anyway rather than unwrap in a FromStr.
        u64::from_str_radix(digits, 16)
            .map(JobId)
            .map_err(|e| FqError::Serde(format!("malformed job id `{s}`: {e}")))
    }
}

/// A serializable device choice: the workspace's calibrated presets.
///
/// Presets are deterministic per name, so the name *is* the identity —
/// which is also what the cross-job [`TemplateCache`]
/// keys on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeviceSpec {
    /// IBMQ-Montreal (27 qubits, the machine of Figs. 7–11).
    IbmMontreal,
    /// IBMQ-Toronto (27 qubits).
    IbmToronto,
    /// IBMQ-Mumbai (27 qubits).
    IbmMumbai,
    /// IBM-Auckland (27 qubits, the best-calibrated preset).
    IbmAuckland,
    /// IBM-Hanoi (27 qubits).
    IbmHanoi,
    /// IBM-Cairo (27 qubits).
    IbmCairo,
    /// IBMQ-Brooklyn (65 qubits).
    IbmBrooklyn,
    /// IBM-Washington (127 qubits).
    IbmWashington,
    /// The §6 practical-scale 50×50 grid (2500 qubits, optimistic errors).
    Grid2500,
}

impl DeviceSpec {
    /// All presets, in wire-name order of the IBM fleet then the grid.
    pub const ALL: [DeviceSpec; 9] = [
        DeviceSpec::IbmMontreal,
        DeviceSpec::IbmToronto,
        DeviceSpec::IbmMumbai,
        DeviceSpec::IbmAuckland,
        DeviceSpec::IbmHanoi,
        DeviceSpec::IbmCairo,
        DeviceSpec::IbmBrooklyn,
        DeviceSpec::IbmWashington,
        DeviceSpec::Grid2500,
    ];

    /// The calibrated device model. Each preset is built once per
    /// process (topology, all-pairs distances, seeded calibration); every
    /// call returns a clone that shares the built topology.
    #[must_use]
    pub fn build(&self) -> Device {
        static PRESETS: [OnceLock<Device>; DeviceSpec::ALL.len()] =
            [const { OnceLock::new() }; DeviceSpec::ALL.len()];
        let index = DeviceSpec::ALL
            .iter()
            .position(|d| d == self)
            .expect("ALL lists every preset");
        PRESETS[index]
            .get_or_init(|| match self {
                DeviceSpec::IbmMontreal => Device::ibm_montreal(),
                DeviceSpec::IbmToronto => Device::ibm_toronto(),
                DeviceSpec::IbmMumbai => Device::ibm_mumbai(),
                DeviceSpec::IbmAuckland => Device::ibm_auckland(),
                DeviceSpec::IbmHanoi => Device::ibm_hanoi(),
                DeviceSpec::IbmCairo => Device::ibm_cairo(),
                DeviceSpec::IbmBrooklyn => Device::ibm_brooklyn(),
                DeviceSpec::IbmWashington => Device::ibm_washington(),
                DeviceSpec::Grid2500 => Device::grid_2500(),
            })
            .clone()
    }

    /// The wire name — identical to the built [`Device`]'s name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            DeviceSpec::IbmMontreal => "ibmq_montreal",
            DeviceSpec::IbmToronto => "ibmq_toronto",
            DeviceSpec::IbmMumbai => "ibmq_mumbai",
            DeviceSpec::IbmAuckland => "ibm_auckland",
            DeviceSpec::IbmHanoi => "ibm_hanoi",
            DeviceSpec::IbmCairo => "ibm_cairo",
            DeviceSpec::IbmBrooklyn => "ibmq_brooklyn",
            DeviceSpec::IbmWashington => "ibm_washington",
            DeviceSpec::Grid2500 => "grid-50x50",
        }
    }

    /// Looks a preset up by wire name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<DeviceSpec> {
        DeviceSpec::ALL.into_iter().find(|d| d.name() == name)
    }
}

/// What a job computes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum JobKind {
    /// Standard-QAOA analytic pipeline on the full problem (`m = 0`).
    Baseline,
    /// FrozenQubits analytic pipeline at the configured `m`.
    Frozen,
    /// Baseline and FrozenQubits side by side, with the improvement
    /// factor (the paper's headline comparison).
    Compare,
    /// End-to-end noisy sampling with decoding and the final `min`.
    Sample {
        /// Shots per executed branch, at most [`MAX_SHOTS`].
        shots: u64,
    },
}

/// The most shots one sampling job may ask for per executed branch.
/// Every shot is drawn, decoded and recorded, so the count sets how long
/// the job holds a worker and how many outcomes its result carries; a
/// spec must not set those unchecked. Corpus and example jobs use at
/// most 4,096.
pub const MAX_SHOTS: u64 = 1 << 20;

/// A validated, serializable job description.
///
/// Build one with [`JobBuilder`]; run it with [`JobSpec::run`] or hand a
/// batch of them to [`BatchRunner`]. The JSON wire format is pinned by
/// the golden tests in `tests/api_serde.rs`.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// The problem Hamiltonian (or a recipe for it).
    pub problem: ProblemSpec,
    /// The target device preset.
    pub device: DeviceSpec,
    /// Pipeline configuration.
    pub config: FrozenQubitsConfig,
    /// Execution backend choice.
    pub backend: BackendSpec,
    /// What to compute.
    pub kind: JobKind,
}

impl JobSpec {
    /// Starts a builder.
    #[must_use]
    pub fn builder() -> JobBuilder {
        JobBuilder::new()
    }

    /// Resolves the spec into a runnable [`Job`] (materializes the
    /// problem and the device).
    ///
    /// # Errors
    ///
    /// Propagates problem-resolution errors.
    pub fn to_job(&self) -> Result<Job, FqError> {
        Ok(Job {
            model: self.problem.resolve()?,
            device: self.device.build(),
            config: self.config.clone(),
            backend: self.backend,
            kind: self.kind,
        })
    }

    /// Resolves and runs the job.
    ///
    /// # Errors
    ///
    /// Propagates resolution and pipeline errors.
    pub fn run(&self) -> Result<JobResult, FqError> {
        self.to_job()?.run()
    }

    /// The template fingerprints this spec's execution units will look
    /// up — **without compiling anything** (see
    /// [`Job::unit_fingerprints`]).
    ///
    /// # Errors
    ///
    /// Propagates problem-resolution and hotspot-selection errors.
    pub fn unit_fingerprints(&self) -> Result<Vec<String>, FqError> {
        self.to_job()?.unit_fingerprints()
    }

    /// A stable 16-hex-digit fingerprint of this spec's canonical wire
    /// form — the identity a scenario corpus (or any result archive)
    /// keys on. Two specs fingerprint equally iff their
    /// [`JobSpec::to_json`] bytes are equal, and the hash is FNV-1a, so
    /// the value is reproducible across processes, machines and Rust
    /// versions (unlike `DefaultHasher`). Distinct from
    /// [`JobSpec::routing_fingerprint`]: that names the compiled
    /// *template* many specs may share; this names the *spec* itself.
    #[must_use]
    pub fn spec_fingerprint(&self) -> String {
        let mut h = Fnv64::new();
        h.write(self.to_json().as_bytes());
        format!("{:016x}", h.finish())
    }

    /// The fingerprint a cluster dispatcher should route this spec by:
    /// the last (most expensive) execution unit's template fingerprint —
    /// the frozen-side template for frozen/compare/sample jobs, the
    /// baseline template for baseline jobs. Jobs that share this
    /// fingerprint reuse one compiled template, so routing them to the
    /// same shard keeps that shard's cache hot.
    ///
    /// Non-exact [`QosTier`]s fold the tier name into the value, so an
    /// `exact` spec keeps exactly its pre-tier fingerprint while
    /// approximate jobs route as a distinct population — result stores
    /// and affinity maps keyed on this value can never mix tiers. The
    /// *template* cache key is deliberately tier-independent (all tiers
    /// share one compiled template; approximation happens after
    /// compilation), so this fold is the only routing-visible change.
    ///
    /// # Errors
    ///
    /// Propagates problem-resolution and hotspot-selection errors.
    pub fn routing_fingerprint(&self) -> Result<String, FqError> {
        let base = self
            .unit_fingerprints()?
            .pop()
            .expect("every job kind decomposes into at least one unit");
        if self.config.tier.is_exact() {
            return Ok(base);
        }
        let mut h = Fnv64::new();
        h.write(base.as_bytes());
        h.write(self.config.tier.name().as_bytes());
        Ok(format!("{:016x}", h.finish()))
    }

    /// The refusal rules every spec must pass before it runs, shared by
    /// [`JobBuilder::build`] and [`JobSpec::from_json`] so the wire
    /// refuses exactly what the builder refuses, with the same error.
    /// None of them materializes the problem.
    pub(crate) fn check(&self) -> Result<(), FqError> {
        let config = &self.config;
        if config.layers == 0 {
            return Err(FqError::InvalidConfig(
                "layers (p) must be at least 1".into(),
            ));
        }
        if config.param_grid == 0 {
            return Err(FqError::InvalidConfig(
                "param_grid must be at least 1".into(),
            ));
        }
        if let JobKind::Sample { shots } = self.kind {
            if shots == 0 {
                return Err(FqError::InvalidConfig(
                    "sampling jobs need at least 1 shot".into(),
                ));
            }
            if shots > MAX_SHOTS {
                return Err(FqError::InvalidConfig(format!(
                    "{shots} shots requested; a sampling job may take at most {MAX_SHOTS}"
                )));
            }
            self.backend.check_sampling()?;
            if !config.tier.is_exact() {
                return Err(FqError::InvalidConfig(
                    "sampling jobs are stochastic end to end and have no approximate \
                     variant; QoS tiers apply to analytic jobs only"
                        .into(),
                ));
            }
        }
        let num_vars = self.problem.num_vars();
        if num_vars == 0 {
            return Err(FqError::InvalidConfig("problem has no variables".into()));
        }
        if !matches!(self.kind, JobKind::Baseline) {
            if config.num_frozen > num_vars {
                return Err(FqError::TooManyFrozen {
                    m: config.num_frozen,
                    num_vars,
                });
            }
            crate::partition::check_frozen_count(config.num_frozen)?;
        }
        if config.layers >= 2 {
            // Multi-layer optimization simulates the exact state; check
            // the widest circuit the job will execute against the same
            // limit the optimizer enforces at run time.
            let limit = crate::pipeline::MAX_EXACT_OPT_QUBITS;
            let executed_width = match self.kind {
                JobKind::Frozen | JobKind::Sample { .. } => num_vars - config.num_frozen,
                JobKind::Baseline | JobKind::Compare => num_vars,
            };
            if executed_width > limit {
                return Err(FqError::InvalidConfig(format!(
                    "p = {} needs exact simulation; {executed_width} executed qubits exceed the {limit}-qubit limit",
                    config.layers
                )));
            }
        }
        Ok(())
    }
}

/// Builds a validated [`JobSpec`].
///
/// Problem, device and kind are mandatory; configuration defaults to
/// [`FrozenQubitsConfig::default`] and the backend to [`BackendSpec::Sim`].
/// [`JobBuilder::build`] rejects inconsistent requests — too many frozen
/// qubits, zero layers, zero shots or more than [`MAX_SHOTS`], multi-layer
/// jobs beyond the statevector width limit — so errors surface before any
/// circuit work starts. The wire parse ([`JobSpec::from_json`]) applies the
/// same rules.
#[derive(Clone, Debug, Default)]
pub struct JobBuilder {
    problem: Option<ProblemSpec>,
    device: Option<DeviceSpec>,
    config: FrozenQubitsConfig,
    backend: BackendSpec,
    kind: Option<JobKind>,
}

impl JobBuilder {
    /// An empty builder.
    #[must_use]
    pub fn new() -> JobBuilder {
        JobBuilder::default()
    }

    /// Sets the problem from any [`ProblemSpec`].
    #[must_use]
    pub fn problem(mut self, problem: ProblemSpec) -> Self {
        self.problem = Some(problem);
        self
    }

    /// Sets an explicit Ising model as the problem.
    #[must_use]
    pub fn ising(self, model: IsingModel) -> Self {
        self.problem(ProblemSpec::Ising(model))
    }

    /// Sets a graph problem with the given weighting.
    #[must_use]
    pub fn graph(
        self,
        num_nodes: usize,
        edges: Vec<(usize, usize)>,
        weighting: GraphWeighting,
    ) -> Self {
        self.problem(ProblemSpec::Graph {
            num_nodes,
            edges,
            weighting,
        })
    }

    /// Sets a Barabási–Albert generator problem.
    #[must_use]
    pub fn barabasi_albert(self, n: usize, d: usize, seed: u64) -> Self {
        self.problem(ProblemSpec::BarabasiAlbert { n, d, seed })
    }

    /// Sets the device preset.
    #[must_use]
    pub fn device(mut self, device: DeviceSpec) -> Self {
        self.device = Some(device);
        self
    }

    /// Replaces the whole pipeline configuration.
    #[must_use]
    pub fn config(mut self, config: FrozenQubitsConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the number of qubits to freeze (`m`).
    #[must_use]
    pub fn num_frozen(mut self, m: usize) -> Self {
        self.config.num_frozen = m;
        self
    }

    /// Sets the QAOA layer count (`p`).
    #[must_use]
    pub fn layers(mut self, p: usize) -> Self {
        self.config.layers = p;
        self
    }

    /// Sets the stochastic seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets how many branches run at once (scheduling only; results
    /// are identical under every [`ExecutorKind`](crate::ExecutorKind)).
    #[must_use]
    pub fn executor(mut self, executor: crate::ExecutorKind) -> Self {
        self.config.executor = executor;
        self
    }

    /// Sets the accuracy/speed contract ([`QosTier::Exact`] by default).
    ///
    /// Non-exact tiers produce a [`JobResult::Approx`] wrapping the
    /// plain result together with the [`ErrorModel`] describing the
    /// approximation.
    #[must_use]
    pub fn tier(mut self, tier: QosTier) -> Self {
        self.config.tier = tier;
        self
    }

    /// Sets the execution backend.
    #[must_use]
    pub fn backend(mut self, backend: BackendSpec) -> Self {
        self.backend = backend;
        self
    }

    /// Requests a baseline (standard-QAOA) job.
    #[must_use]
    pub fn baseline(mut self) -> Self {
        self.kind = Some(JobKind::Baseline);
        self
    }

    /// Requests a FrozenQubits job.
    #[must_use]
    pub fn frozen(mut self) -> Self {
        self.kind = Some(JobKind::Frozen);
        self
    }

    /// Requests a baseline-vs-FrozenQubits comparison job.
    #[must_use]
    pub fn compare(mut self) -> Self {
        self.kind = Some(JobKind::Compare);
        self
    }

    /// Requests an end-to-end sampling job with `shots` per branch.
    #[must_use]
    pub fn sample(mut self, shots: u64) -> Self {
        self.kind = Some(JobKind::Sample { shots });
        self
    }

    /// Validates and produces the [`JobSpec`].
    ///
    /// # Errors
    ///
    /// Returns [`FqError::InvalidConfig`] for missing or inconsistent
    /// fields and [`FqError::TooManyFrozen`] when `m` exceeds the problem
    /// width — at build time, not at run time.
    pub fn build(self) -> Result<JobSpec, FqError> {
        let problem = self
            .problem
            .ok_or_else(|| FqError::InvalidConfig("job has no problem".into()))?;
        let device = self
            .device
            .ok_or_else(|| FqError::InvalidConfig("job has no device".into()))?;
        let kind = self.kind.ok_or_else(|| {
            FqError::InvalidConfig("job has no kind (baseline/frozen/compare/sample)".into())
        })?;
        let spec = JobSpec {
            problem,
            device,
            config: self.config,
            backend: self.backend,
            kind,
        };
        spec.check()?;
        // Graph and generator problems are additionally materialized once
        // here so malformed edges or infeasible generator parameters fail
        // at build time (an explicit Ising model is already valid and is
        // not cloned).
        if !matches!(spec.problem, ProblemSpec::Ising(_)) {
            spec.problem.resolve()?;
        }
        Ok(spec)
    }
}

/// A resolved, runnable job: materialized problem and device.
///
/// This is the runtime form of a [`JobSpec`]; it also accepts arbitrary
/// (non-preset) [`Device`] models via [`Job::from_parts`], the in-process
/// entry point of tests, examples and the figure binaries.
#[derive(Clone, Debug)]
pub struct Job {
    model: IsingModel,
    device: Device,
    config: FrozenQubitsConfig,
    backend: BackendSpec,
    kind: JobKind,
}

impl Job {
    /// A job from already-resolved parts, on the default
    /// [`BackendSpec::Sim`].
    ///
    /// Unchecked: unlike [`JobBuilder::build`] and
    /// [`JobSpec::from_json`], this in-process constructor applies none
    /// of the spec refusal rules, so an inconsistent configuration fails
    /// (or runs) however the pipeline handles it at run time.
    #[must_use]
    pub fn from_parts(
        model: &IsingModel,
        device: &Device,
        config: &FrozenQubitsConfig,
        kind: JobKind,
    ) -> Job {
        Job {
            model: model.clone(),
            device: device.clone(),
            config: config.clone(),
            backend: BackendSpec::Sim,
            kind,
        }
    }

    /// Replaces the execution backend.
    #[must_use]
    pub fn with_backend(mut self, backend: BackendSpec) -> Job {
        self.backend = backend;
        self
    }

    /// Runs the job with a private template cache.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    pub fn run(&self) -> Result<JobResult, FqError> {
        self.run_cached(&TemplateCache::new())
    }

    /// Runs the job against a shared [`TemplateCache`] — the building
    /// block of [`BatchRunner`]'s cross-job amortization. The cache is
    /// concurrent, so any number of jobs may run against it at once.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    pub fn run_cached(&self, cache: &TemplateCache) -> Result<JobResult, FqError> {
        let backend = self.backend.build(self.config.executor);
        let mut parts = Vec::new();
        for unit in self.decompose() {
            let plan = plan_execution_cached(&self.model, &self.device, &unit.config, cache)?;
            let output = match unit.role {
                UnitRole::Sample { shots } => {
                    UnitOutput::Samples(backend.sample(&plan, &self.device, &unit.config, shots)?)
                }
                UnitRole::Baseline | UnitRole::Frozen => {
                    UnitOutput::Analytic(backend.run(&plan, &self.device, &unit.config)?)
                }
            };
            parts.push((std::sync::Arc::new(plan), output));
        }
        self.assemble(parts)
    }

    /// Splits the job into its execution units — independent
    /// (plan, run) passes over the pipeline. Every kind is one unit
    /// except [`JobKind::Compare`], which is a baseline unit followed by
    /// a frozen unit. Both the sequential [`Job::run_cached`] loop and
    /// [`BatchRunner`]'s flattened jobs×branches pool are built on this
    /// decomposition, which is what makes their results bit-identical.
    pub(crate) fn decompose(&self) -> Vec<JobUnit> {
        let baseline_unit = || JobUnit {
            config: FrozenQubitsConfig {
                num_frozen: 0,
                ..self.config.clone()
            },
            role: UnitRole::Baseline,
        };
        let frozen_unit = |role| JobUnit {
            config: self.config.clone(),
            role,
        };
        match self.kind {
            JobKind::Baseline => vec![baseline_unit()],
            JobKind::Frozen => vec![frozen_unit(UnitRole::Frozen)],
            JobKind::Compare => vec![baseline_unit(), frozen_unit(UnitRole::Frozen)],
            JobKind::Sample { shots } => vec![frozen_unit(UnitRole::Sample { shots })],
        }
    }

    /// The template fingerprints this job's execution units will look up
    /// in a [`TemplateCache`] — computed from the spec alone, **without
    /// compiling anything**.
    ///
    /// For a baseline unit the template shape is the full model's; for a
    /// frozen unit it is the shape of one representative frozen branch
    /// (hotspots selected exactly as planning selects them, all frozen
    /// `UP`) — valid because all `2^m` branches of one job share a single
    /// shape (freezing changes linear terms and the offset, never the
    /// coupling structure). The returned fingerprints are therefore
    /// exactly the keys [`Job::run_cached`] compiles or hits, which is
    /// what lets a dispatcher route jobs onto shards by cache affinity
    /// without doing any circuit work itself.
    ///
    /// # Errors
    ///
    /// Propagates hotspot-selection and freezing errors (e.g. freezing
    /// more qubits than the problem has).
    pub fn unit_fingerprints(&self) -> Result<Vec<String>, FqError> {
        self.decompose()
            .iter()
            .map(|unit| {
                let shape = if unit.config.num_frozen == 0 {
                    ShapeSignature::of(&self.model)
                } else {
                    let hotspots = crate::hotspot::select_hotspots(
                        &self.model,
                        unit.config.num_frozen,
                        &unit.config.hotspots,
                    )?;
                    let assignment: Vec<(usize, fq_ising::Spin)> =
                        hotspots.iter().map(|&q| (q, fq_ising::Spin::UP)).collect();
                    ShapeSignature::of(self.model.freeze(&assignment)?.model())
                };
                Ok(
                    TemplateKey::new(shape, &self.device, unit.config.layers, unit.config.compile)
                        .fingerprint(),
                )
            })
            .collect()
    }

    /// Reassembles unit outputs (in [`Job::decompose`] order) into the
    /// job's [`JobResult`] — the single aggregation path shared by the
    /// sequential and the batched engine.
    pub(crate) fn assemble(
        &self,
        parts: Vec<(std::sync::Arc<crate::ExecutionPlan>, UnitOutput)>,
    ) -> Result<JobResult, FqError> {
        let mut parts = parts.into_iter();
        let mut next_analytic =
            |label: String| -> (std::sync::Arc<crate::ExecutionPlan>, RunSummary) {
                let (plan, output) = parts.next().expect("one part per decomposed unit");
                let UnitOutput::Analytic(outcomes) = output else {
                    panic!("analytic unit got sampling output");
                };
                let summary = summarize_outcomes(&plan, &outcomes, label);
                (plan, summary)
            };
        let plain: Result<JobResult, FqError> = match self.kind {
            JobKind::Baseline => Ok(JobResult::Baseline(next_analytic("baseline".into()).1)),
            JobKind::Frozen => {
                let (plan, summary) = next_analytic(format!("FQ(m={})", self.config.num_frozen));
                Ok(JobResult::Frozen {
                    summary,
                    frozen_qubits: plan.frozen_qubits().to_vec(),
                })
            }
            JobKind::Compare => {
                let baseline = next_analytic("baseline".into()).1;
                let (plan, frozen) = next_analytic(format!("FQ(m={})", self.config.num_frozen));
                let improvement = metrics::improvement_factor(baseline.arg, frozen.arg);
                Ok(JobResult::Compare(Report {
                    baseline,
                    frozen,
                    frozen_qubits: plan.frozen_qubits().to_vec(),
                    improvement,
                }))
            }
            JobKind::Sample { .. } => {
                let (plan, output) = parts.next().expect("one part per decomposed unit");
                let UnitOutput::Samples(samples) = output else {
                    panic!("sampling unit got analytic output");
                };
                let mut union = OutputDistribution::new(self.model.num_vars());
                let mut best: Option<(SpinVec, f64)> = None;
                for branch in &samples {
                    consider(&mut best, &self.model, &branch.decoded)?;
                    union.merge(&branch.decoded)?;
                    if let Some(partner) = &branch.partner_decoded {
                        consider(&mut best, &self.model, partner)?;
                        union.merge(partner)?;
                    }
                }
                let (best, energy) = best.ok_or_else(|| {
                    FqError::InvalidConfig("no sub-problem produced any outcome".into())
                })?;
                Ok(JobResult::Sample(SolveOutcome {
                    best,
                    energy,
                    distribution: union,
                    frozen_qubits: plan.frozen_qubits().to_vec(),
                }))
            }
        };
        let plain = plain?;
        Ok(match ErrorModel::for_tier(self.config.tier) {
            Some(error_model) => JobResult::Approx {
                error_model,
                inner: Box::new(plain),
            },
            None => plain,
        })
    }
}

/// One independent (plan, run) pass of a decomposed [`Job`].
pub(crate) struct JobUnit {
    /// The effective pipeline configuration of this unit (`num_frozen`
    /// zeroed for a baseline pass).
    pub(crate) config: FrozenQubitsConfig,
    /// What the unit computes.
    pub(crate) role: UnitRole,
}

/// The role of a [`JobUnit`] within its job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum UnitRole {
    /// Standard-QAOA pass over the full problem.
    Baseline,
    /// FrozenQubits pass at the job's configured `m`.
    Frozen,
    /// End-to-end noisy sampling pass.
    Sample {
        /// Shots per executed branch.
        shots: u64,
    },
}

/// The raw output of one executed [`JobUnit`].
pub(crate) enum UnitOutput {
    /// Branch outcomes of an analytic pass, in branch order.
    Analytic(Vec<crate::BranchOutcome>),
    /// Branch samples of a sampling pass, in branch order.
    Samples(Vec<crate::BranchSamples>),
}

fn consider(
    best: &mut Option<(SpinVec, f64)>,
    model: &IsingModel,
    dist: &OutputDistribution,
) -> Result<(), FqError> {
    let (z, e) = dist.best(model)?;
    if best.as_ref().is_none_or(|(_, be)| e < *be) {
        *best = Some((z, e));
    }
    Ok(())
}

/// The structured accuracy contract attached to every non-exact result.
///
/// The same object drives execution *and* reporting: the executor reads
/// its knob fields to configure the approximate path, then the result
/// carries it verbatim — so what a client is told about the
/// approximation can never drift from what actually ran. The deviation
/// bound is `rel_bound · |ev| + abs_floor` per expectation value
/// ([`ErrorModel::bound_for`]); the suite's tier-deviation tests measure
/// every `core` + `adversarial` scenario against the exact oracle and
/// assert the measurement stays inside this self-reported bound.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ErrorModel {
    /// Which approximate tier produced the result.
    pub tier: QosTier,
    /// Landscape-scan resolution per axis (the coarse pass for
    /// `balanced`, the only pass for `fast`).
    pub scan_resolution: usize,
    /// Resolution of the local refinement pass around the coarse
    /// optimum (`0` = no refinement pass).
    pub refine_resolution: usize,
    /// Nelder–Mead evaluation budget after the scan (`0` = no simplex
    /// polish).
    pub optimizer_evals: usize,
    /// Lightcone truncation depth in gates walked backwards from the
    /// measurement layer; gates beyond it collapse into a global
    /// process-fidelity factor. `0` = pure global attenuation.
    pub lightcone_depth: usize,
    /// Fraction of quadratic terms kept (seeded, deterministic) in the
    /// landscape used to *pick* parameters; the reported expectations
    /// are always evaluated on the full model at the picked point.
    /// `1.0` = no term sampling.
    pub term_sample_keep: f64,
    /// Relative deviation bound on each expectation value.
    pub rel_bound: f64,
    /// Absolute deviation floor, covering expectations near zero.
    pub abs_floor: f64,
}

impl ErrorModel {
    /// The contract of [`QosTier::Balanced`]: coarse-to-fine scan,
    /// early-exit Nelder–Mead, truncated lightcone radius.
    #[must_use]
    pub fn balanced() -> ErrorModel {
        ErrorModel {
            tier: QosTier::Balanced,
            scan_resolution: 11,
            refine_resolution: 7,
            optimizer_evals: 80,
            lightcone_depth: 192,
            term_sample_keep: 1.0,
            rel_bound: 0.05,
            abs_floor: 0.05,
        }
    }

    /// The contract of [`QosTier::Fast`]: one tiny scan on a seeded
    /// term-sampled landscape over polynomial trig, no simplex polish,
    /// a shallow lightcone radius.
    #[must_use]
    pub fn fast() -> ErrorModel {
        ErrorModel {
            tier: QosTier::Fast,
            scan_resolution: 9,
            refine_resolution: 5,
            optimizer_evals: 0,
            lightcone_depth: 192,
            term_sample_keep: 0.25,
            rel_bound: 0.25,
            abs_floor: 0.20,
        }
    }

    /// The error model of a tier; `None` for [`QosTier::Exact`], which
    /// carries no approximation.
    #[must_use]
    pub fn for_tier(tier: QosTier) -> Option<ErrorModel> {
        match tier {
            QosTier::Exact => None,
            QosTier::Balanced => Some(ErrorModel::balanced()),
            QosTier::Fast => Some(ErrorModel::fast()),
        }
    }

    /// The deviation bound this model promises around an exact
    /// expectation value: `rel_bound · |ev| + abs_floor`.
    #[must_use]
    pub fn bound_for(&self, ev: f64) -> f64 {
        self.rel_bound * ev.abs() + self.abs_floor
    }
}

/// The outcome of a job, tagged by [`JobKind`].
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum JobResult {
    /// A [`JobKind::Baseline`] summary.
    Baseline(RunSummary),
    /// A [`JobKind::Frozen`] summary plus the frozen qubits.
    Frozen {
        /// The aggregated run summary.
        summary: RunSummary,
        /// Which qubits were frozen, in freeze order.
        frozen_qubits: Vec<usize>,
    },
    /// A [`JobKind::Compare`] report.
    Compare(Report),
    /// A [`JobKind::Sample`] outcome.
    Sample(SolveOutcome),
    /// An approximate-tier result: the plain result of the job's kind,
    /// wrapped together with the [`ErrorModel`] contract it was bought
    /// under. The `into_*` extractors see through this wrapper.
    Approx {
        /// The accuracy contract the job ran under.
        error_model: ErrorModel,
        /// The wrapped result (never itself `Approx`).
        inner: Box<JobResult>,
    },
}

impl JobResult {
    /// Extracts a baseline summary.
    ///
    /// # Errors
    ///
    /// Returns [`FqError::InvalidConfig`] when the result is of a
    /// different kind.
    pub fn into_baseline(self) -> Result<RunSummary, FqError> {
        match self {
            JobResult::Baseline(summary) => Ok(summary),
            JobResult::Approx { inner, .. } => inner.into_baseline(),
            other => Err(wrong_kind("baseline", &other)),
        }
    }

    /// Extracts a frozen summary and its frozen qubits.
    ///
    /// # Errors
    ///
    /// Returns [`FqError::InvalidConfig`] when the result is of a
    /// different kind.
    pub fn into_frozen(self) -> Result<(RunSummary, Vec<usize>), FqError> {
        match self {
            JobResult::Frozen {
                summary,
                frozen_qubits,
            } => Ok((summary, frozen_qubits)),
            JobResult::Approx { inner, .. } => inner.into_frozen(),
            other => Err(wrong_kind("frozen", &other)),
        }
    }

    /// Extracts a comparison report.
    ///
    /// # Errors
    ///
    /// Returns [`FqError::InvalidConfig`] when the result is of a
    /// different kind.
    pub fn into_compare(self) -> Result<Report, FqError> {
        match self {
            JobResult::Compare(report) => Ok(report),
            JobResult::Approx { inner, .. } => inner.into_compare(),
            other => Err(wrong_kind("compare", &other)),
        }
    }

    /// Extracts a sampling outcome.
    ///
    /// # Errors
    ///
    /// Returns [`FqError::InvalidConfig`] when the result is of a
    /// different kind.
    pub fn into_sample(self) -> Result<SolveOutcome, FqError> {
        match self {
            JobResult::Sample(outcome) => Ok(outcome),
            JobResult::Approx { inner, .. } => inner.into_sample(),
            other => Err(wrong_kind("sample", &other)),
        }
    }

    /// The [`ErrorModel`] of an approximate-tier result; `None` for
    /// exact results.
    #[must_use]
    pub fn error_model(&self) -> Option<&ErrorModel> {
        match self {
            JobResult::Approx { error_model, .. } => Some(error_model),
            _ => None,
        }
    }

    /// The wire tag of this result's kind. `Approx` wrappers report the
    /// *inner* kind — the wrapper is tagged by the wire version and the
    /// presence of `error_model`, not by a kind of its own at this
    /// level.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            JobResult::Baseline(_) => "baseline",
            JobResult::Frozen { .. } => "frozen",
            JobResult::Compare(_) => "compare",
            JobResult::Sample(_) => "sample",
            JobResult::Approx { inner, .. } => inner.kind_name(),
        }
    }
}

fn wrong_kind(wanted: &str, got: &JobResult) -> FqError {
    FqError::InvalidConfig(format!(
        "job result is `{}`, not `{wanted}`",
        got.kind_name()
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fq_graphs::{gen, to_ising_pm1};

    fn ba_model(n: usize, seed: u64) -> IsingModel {
        to_ising_pm1(&gen::barabasi_albert(n, 1, seed).unwrap(), seed)
    }

    #[test]
    fn builder_requires_problem_device_and_kind() {
        let missing_problem = JobBuilder::new().device(DeviceSpec::IbmMontreal).compare();
        assert!(matches!(
            missing_problem.build(),
            Err(FqError::InvalidConfig(msg)) if msg.contains("problem")
        ));
        let missing_device = JobBuilder::new().barabasi_albert(8, 1, 1).compare();
        assert!(matches!(
            missing_device.build(),
            Err(FqError::InvalidConfig(msg)) if msg.contains("device")
        ));
        let missing_kind = JobBuilder::new()
            .barabasi_albert(8, 1, 1)
            .device(DeviceSpec::IbmMontreal);
        assert!(matches!(
            missing_kind.build(),
            Err(FqError::InvalidConfig(msg)) if msg.contains("kind")
        ));
    }

    #[test]
    fn unit_fingerprints_name_exactly_what_planning_compiles() {
        // One spec per job kind, over two problem families and two
        // freeze depths: the no-compile fingerprint prediction must
        // match, as a set, the fingerprints the template cache actually
        // compiled after running the spec.
        let base = |n: usize, seed: u64| {
            JobBuilder::new()
                .barabasi_albert(n, 1, seed)
                .device(DeviceSpec::IbmMontreal)
        };
        let specs = vec![
            base(10, 4).baseline().build().unwrap(),
            base(10, 4).num_frozen(1).frozen().build().unwrap(),
            base(10, 4).num_frozen(2).frozen().build().unwrap(),
            base(12, 7).compare().build().unwrap(),
            base(8, 2).sample(16).build().unwrap(),
        ];
        for spec in &specs {
            let runner = BatchRunner::new();
            runner
                .run(std::slice::from_ref(spec))
                .pop()
                .unwrap()
                .unwrap();
            let compiled: std::collections::BTreeSet<String> = runner
                .cache()
                .index()
                .into_iter()
                .map(|entry| entry.fingerprint)
                .collect();
            let predicted: std::collections::BTreeSet<String> =
                spec.unit_fingerprints().unwrap().into_iter().collect();
            assert_eq!(
                predicted, compiled,
                "predicted fingerprints must equal the compiled keys for {spec:?}"
            );
            for fingerprint in &predicted {
                assert!(crate::is_template_fingerprint(fingerprint));
            }
        }

        // The routing fingerprint is the frozen-side unit for compare
        // jobs (the last decomposed unit) and is stable across calls.
        let compare = base(12, 7).compare().build().unwrap();
        let units = compare.unit_fingerprints().unwrap();
        assert_eq!(units.len(), 2, "compare = baseline unit + frozen unit");
        assert_eq!(
            compare.routing_fingerprint().unwrap(),
            units[1],
            "compare jobs route by their frozen-side template"
        );
        assert_eq!(
            compare.routing_fingerprint().unwrap(),
            compare.routing_fingerprint().unwrap()
        );

        // Errors surface instead of panicking: freezing more qubits than
        // the problem has is a routing-time error too.
        let smuggled = JobSpec {
            config: FrozenQubitsConfig::with_frozen(99),
            ..base(8, 1).frozen().build().unwrap()
        };
        assert!(matches!(
            smuggled.routing_fingerprint(),
            Err(FqError::TooManyFrozen { .. })
        ));
    }

    #[test]
    fn spec_fingerprints_are_stable_and_follow_the_wire_form() {
        let base = || {
            JobBuilder::new()
                .barabasi_albert(10, 1, 4)
                .device(DeviceSpec::IbmMontreal)
                .frozen()
        };
        let spec = base().build().unwrap();
        assert_eq!(spec.spec_fingerprint(), spec.spec_fingerprint());
        assert!(
            crate::is_template_fingerprint(&spec.spec_fingerprint()),
            "16 lower-hex digits, same shape as template fingerprints"
        );
        // Equal wire bytes ⇒ equal fingerprints; any wire-visible field
        // change ⇒ a different fingerprint.
        let same = JobSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(same.spec_fingerprint(), spec.spec_fingerprint());
        let other_seed = base().seed(1).build().unwrap();
        assert_ne!(other_seed.spec_fingerprint(), spec.spec_fingerprint());
        // The algorithm is pinned (FNV-1a over the canonical JSON), so
        // the value itself is part of the corpus contract: a silent
        // hasher change would orphan every recorded suite result.
        let mut h = Fnv64::new();
        h.write(spec.to_json().as_bytes());
        assert_eq!(spec.spec_fingerprint(), format!("{:016x}", h.finish()));
    }

    #[test]
    fn builder_validates_at_build_time() {
        let base = || {
            JobBuilder::new()
                .barabasi_albert(8, 1, 1)
                .device(DeviceSpec::IbmMontreal)
        };
        assert!(matches!(
            base().frozen().num_frozen(9).build(),
            Err(FqError::TooManyFrozen { m: 9, num_vars: 8 })
        ));
        assert!(matches!(
            base().frozen().layers(0).build(),
            Err(FqError::InvalidConfig(_))
        ));
        assert!(matches!(
            base().sample(0).build(),
            Err(FqError::InvalidConfig(_))
        ));
        // The noise-model backend has no sampling physics.
        assert!(matches!(
            base().backend(BackendSpec::NoiseModel).sample(64).build(),
            Err(FqError::InvalidConfig(msg)) if msg.contains("noise_model")
        ));
        // m = 9 on a baseline job is fine: the baseline never freezes.
        assert!(base().baseline().num_frozen(9).build().is_ok());
        // p = 2 on a 24-variable problem exceeds the statevector limit...
        let wide = JobBuilder::new()
            .barabasi_albert(24, 1, 2)
            .device(DeviceSpec::IbmMontreal)
            .layers(2);
        assert!(matches!(
            wide.clone().compare().build(),
            Err(FqError::InvalidConfig(msg)) if msg.contains("20-qubit")
        ));
        // ...unless freezing brings the executed width under it.
        assert!(wide.frozen().num_frozen(6).build().is_ok());
    }

    #[test]
    fn problem_specs_resolve_deterministically() {
        let a = ProblemSpec::BarabasiAlbert {
            n: 10,
            d: 1,
            seed: 3,
        }
        .resolve()
        .unwrap();
        let b = ProblemSpec::BarabasiAlbert {
            n: 10,
            d: 1,
            seed: 3,
        }
        .resolve()
        .unwrap();
        assert_eq!(a, b);
        assert_eq!(a, ba_model(10, 3));

        let ring = ProblemSpec::Graph {
            num_nodes: 4,
            edges: vec![(0, 1), (1, 2), (2, 3), (3, 0)],
            weighting: GraphWeighting::Unit,
        };
        let m = ring.resolve().unwrap();
        assert_eq!(m.num_couplings(), 4);
        assert!(m.couplings().all(|(_, j)| j == 1.0));

        let bad = ProblemSpec::Graph {
            num_nodes: 3,
            edges: vec![(0, 7)],
            weighting: GraphWeighting::Unit,
        };
        assert!(matches!(bad.resolve(), Err(FqError::Graph(_))));
    }

    #[test]
    fn job_ids_round_trip_and_reject_garbage() {
        for value in [0u64, 42, u64::MAX] {
            let id = JobId::new(value);
            assert_eq!(id.value(), value);
            assert_eq!(id.to_string().parse::<JobId>(), Ok(id));
        }
        assert_eq!(JobId::new(42).to_string(), "job-000000000000002a");
        for garbage in [
            "",
            "job-",
            "job-42",
            "42",
            "job-000000000000002g",
            "job-000000000000002a7",
            "JOB-000000000000002a",
            "job-000000000000002A",
        ] {
            assert!(
                garbage.parse::<JobId>().is_err(),
                "`{garbage}` must be rejected"
            );
        }
    }

    #[test]
    fn device_specs_round_trip_names() {
        for spec in DeviceSpec::ALL {
            assert_eq!(spec.build().name(), spec.name());
            assert_eq!(DeviceSpec::from_name(spec.name()), Some(spec));
        }
        assert_eq!(DeviceSpec::from_name("ibm_atlantis"), None);
    }

    #[test]
    fn job_results_are_typed() {
        let spec = JobBuilder::new()
            .barabasi_albert(8, 1, 5)
            .device(DeviceSpec::IbmMontreal)
            .baseline()
            .build()
            .unwrap();
        let result = spec.run().unwrap();
        assert_eq!(result.kind_name(), "baseline");
        assert!(result.clone().into_compare().is_err());
        let summary = result.into_baseline().unwrap();
        assert_eq!(summary.label, "baseline");
        assert_eq!(summary.circuit_qubits, 8);
    }

    #[test]
    fn noise_model_backend_is_deterministic_and_distinct() {
        let spec = JobBuilder::new()
            .barabasi_albert(10, 1, 4)
            .device(DeviceSpec::IbmMontreal)
            .backend(BackendSpec::NoiseModel)
            .frozen()
            .build()
            .unwrap();
        let a = spec.run().unwrap().into_frozen().unwrap();
        let b = spec.run().unwrap().into_frozen().unwrap();
        assert_eq!(a, b, "the noise_model backend must be deterministic");

        let sim = JobSpec {
            backend: BackendSpec::Sim,
            ..spec
        };
        let s = sim.run().unwrap().into_frozen().unwrap();
        // Same ideal physics, different noise model.
        assert_eq!(a.0.ev_ideal, s.0.ev_ideal);
        assert_ne!(a.0.ev_noisy, s.0.ev_noisy);
    }

    #[test]
    fn tier_reaches_the_config_and_sampling_rejects_non_exact() {
        let spec = JobBuilder::new()
            .barabasi_albert(8, 1, 1)
            .device(DeviceSpec::IbmMontreal)
            .frozen()
            .tier(QosTier::Fast)
            .build()
            .unwrap();
        assert_eq!(spec.config.tier, QosTier::Fast);

        // Sampling is stochastic end to end; there is no approximate
        // variant of it to promise a bound for.
        let rejected = JobBuilder::new()
            .barabasi_albert(8, 1, 1)
            .device(DeviceSpec::IbmMontreal)
            .sample(16)
            .tier(QosTier::Balanced)
            .build();
        assert!(matches!(rejected, Err(FqError::InvalidConfig(_))));

        // Spelling out the default is not a violation.
        JobBuilder::new()
            .barabasi_albert(8, 1, 1)
            .device(DeviceSpec::IbmMontreal)
            .sample(16)
            .tier(QosTier::Exact)
            .build()
            .unwrap();
    }

    #[test]
    fn routing_fingerprints_separate_tiers_but_not_templates() {
        let with_tier = |tier: QosTier| {
            JobBuilder::new()
                .barabasi_albert(12, 1, 7)
                .device(DeviceSpec::IbmMontreal)
                .frozen()
                .tier(tier)
                .build()
                .unwrap()
        };
        let exact = with_tier(QosTier::Exact);
        let balanced = with_tier(QosTier::Balanced);
        let fast = with_tier(QosTier::Fast);

        // Exact routing is unchanged by the tier plumbing: the fold
        // only engages for non-exact tiers.
        let plain = JobBuilder::new()
            .barabasi_albert(12, 1, 7)
            .device(DeviceSpec::IbmMontreal)
            .frozen()
            .build()
            .unwrap();
        let exact_fp = exact.routing_fingerprint().unwrap();
        assert_eq!(exact_fp, plain.routing_fingerprint().unwrap());

        // Each non-exact tier routes to its own affinity bucket so
        // approximate results can never poison an exact cache line.
        let balanced_fp = balanced.routing_fingerprint().unwrap();
        let fast_fp = fast.routing_fingerprint().unwrap();
        assert_ne!(exact_fp, balanced_fp);
        assert_ne!(exact_fp, fast_fp);
        assert_ne!(balanced_fp, fast_fp);

        // Tiers share compiled templates: the unit fingerprints the
        // planner would compile are tier-independent.
        assert_eq!(
            exact.unit_fingerprints().unwrap(),
            fast.unit_fingerprints().unwrap()
        );
    }

    #[test]
    fn approximate_results_are_deterministic() {
        for tier in [QosTier::Balanced, QosTier::Fast] {
            let spec = JobBuilder::new()
                .barabasi_albert(14, 1, 9)
                .device(DeviceSpec::IbmMontreal)
                .num_frozen(2)
                .frozen()
                .tier(tier)
                .build()
                .unwrap();
            let a = spec.run().unwrap();
            let b = spec.run().unwrap();
            assert_eq!(a.to_json(), b.to_json(), "{tier:?} is a contract");
        }
    }
}
