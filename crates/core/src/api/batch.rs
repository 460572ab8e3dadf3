//! Batched job execution: cross-job template amortization plus a
//! flattened jobs×branches work-stealing pool.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use fq_ising::IsingModel;
use fq_optim::par_collect;
use fq_transpile::Device;

use super::wire::problem_to_value;
use super::{Job, JobUnit, UnitOutput, UnitRole};
use crate::executor::{execute_branch, sample_branch};
use crate::plan::{plan_execution_cached, ExecutionPlan, TemplateCache};
use crate::store::{CacheStats, MemoryStore, TemplateStore};
use crate::{BranchOutcome, BranchSamples, ExecutorKind, FqError, JobResult, JobSpec};

/// Runs many [`JobSpec`]s against one shared [`TemplateCache`],
/// saturating the machine across **jobs × branches**.
///
/// Planning compiles one template per job unit instead of one per
/// branch; the batch runner extends that across jobs — a parameter sweep
/// over the same problem family compiles each distinct (shape, device,
/// layers, options) combination **once for the whole batch** — and it
/// flattens the batch into per-branch work items drained by one shared
/// work-stealing pool. A batch of 100 four-branch jobs is
/// 400 independent items on that pool, not 100 mostly-idle 4-way bursts,
/// so sweeps scale with the core count rather than with `2^{m−1}`.
///
/// The engine schedules branches itself; the per-job
/// [`FrozenQubitsConfig::executor`](crate::FrozenQubitsConfig) knob only
/// applies when a job runs alone via [`JobSpec::run`] /
/// [`Job::run_cached`].
///
/// # Determinism
///
/// Results are **bit-identical** to running every spec sequentially in
/// input order: outcomes are aggregated in job order and branch order,
/// and within a job the first error (by unit order, then branch index)
/// wins — scheduling never leaks into results. Jobs are independent, so a
/// failing spec yields its own `Err` without sinking the rest.
///
/// # Example
///
/// ```
/// use frozenqubits::api::{BatchRunner, DeviceSpec, JobBuilder};
///
/// let jobs: Vec<_> = (0..3)
///     .map(|seed| {
///         JobBuilder::new()
///             .barabasi_albert(10, 1, 4)
///             .device(DeviceSpec::IbmMontreal)
///             .seed(seed)
///             .frozen()
///             .build()
///     })
///     .collect::<Result<_, _>>()?;
/// let runner = BatchRunner::new();
/// let results = runner.run(&jobs);
/// assert!(results.iter().all(Result::is_ok));
/// // Three jobs, one distinct sub-circuit shape: one compiled template.
/// assert_eq!(runner.templates_compiled(), 1);
/// # Ok::<(), frozenqubits::FqError>(())
/// ```
#[derive(Debug, Default)]
pub struct BatchRunner {
    cache: TemplateCache,
    /// Worker count; 0 = auto (`FQ_THREADS` env override, else one per
    /// available core).
    threads: usize,
    /// Memoized whole plans of **approximate-tier** units, keyed by
    /// every plan input (problem, device, planning config). The exact
    /// tier never touches this map — its resolve-and-plan path stays
    /// bit-for-bit the pre-tier one — but for `balanced`/`fast` sweeps
    /// (many seeds over one family) it collapses the per-job problem
    /// materialization, hotspot selection, partitioning and template
    /// fetch into one `Arc` clone per job. Planning is a pure function
    /// of the key, so memoization changes no output bit.
    tier_plans: Mutex<HashMap<String, Arc<ExecutionPlan>>>,
    /// Memoized `(model, device)` resolution for approximate-tier jobs,
    /// keyed by the problem + device specs (same purity argument; see
    /// [`tier_memo_key`]).
    tier_resolved: Mutex<HashMap<String, Arc<(IsingModel, Device)>>>,
}

/// The memo maps above are bounded: past this many entries they are
/// cleared and rebuilt, so a long-lived service shard sweeping an
/// unbounded stream of distinct tier problems cannot grow them without
/// limit (a clear only costs the next batch one re-plan per key).
const TIER_MEMO_CAP: usize = 256;

/// The tier-memo key of a spec's problem and device: their canonical
/// wire bytes, or `None` for the exact tier, which never touches the
/// memos. The wire form spells out every coefficient of an explicit
/// model — unlike its `Debug`, which prints only the sizes — so two
/// specs share a key exactly when they describe the same problem on the
/// same device.
fn tier_memo_key(spec: &JobSpec) -> Option<String> {
    (!spec.config.tier.is_exact()).then(|| {
        format!(
            "{}|{}",
            problem_to_value(&spec.problem).to_json(),
            spec.device.name()
        )
    })
}

/// One planned execution unit: `job_index` into the spec slice plus the
/// unit's role/config and its compiled plan.
struct PlannedUnit {
    job: usize,
    unit: JobUnit,
    plan: Result<Arc<ExecutionPlan>, FqError>,
    /// Offset of this unit's first branch in the flattened item space.
    first_item: usize,
    /// Number of flattened branch items this unit contributes.
    items: usize,
}

/// A branch-level result in the flattened pool, matching the unit's role.
enum BranchResult {
    Outcome(BranchOutcome),
    Samples(BranchSamples),
}

impl BatchRunner {
    /// A runner with an empty, unbounded template cache and automatic
    /// thread count.
    #[must_use]
    pub fn new() -> BatchRunner {
        BatchRunner::default()
    }

    /// Sets the worker-thread count of the jobs×branches pool.
    ///
    /// `0` (the default) selects automatically: the `FQ_THREADS`
    /// environment variable if it parses as an integer ≥ 1, else one
    /// worker per available core. `1` plans every unit and runs every
    /// branch in order on the caller's thread. It does not reach inside a
    /// branch: an exact-tier branch whose γ-row scan is large enough
    /// (about 2·10⁶ estimated flops) still fans its rows over
    /// [`auto_threads`](crate::auto_threads) workers, which only
    /// `FQ_THREADS` caps. Results are bit-identical at every width.
    /// Values above the available parallelism are accepted but add
    /// nothing; the pool is additionally clamped to the number of work
    /// items, so oversized values never spawn idle threads.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> BatchRunner {
        self.threads = threads;
        self
    }

    /// Bounds the shared template cache to at most `capacity` resident
    /// templates (LRU eviction; see [`TemplateCache::with_capacity`]).
    /// The default is unbounded.
    #[must_use]
    pub fn with_cache_capacity(mut self, capacity: usize) -> BatchRunner {
        self.cache = TemplateCache::with_capacity(capacity);
        self
    }

    /// Replaces the template cache's backing [`TemplateStore`] — the
    /// persistence seam. Pass a [`MemoryStore::spill_to`] store to spill
    /// compiled templates to disk; [`BatchRunner::with_cache_dir`] is the
    /// one-call form.
    #[must_use]
    pub fn with_store(mut self, store: Box<dyn TemplateStore>) -> BatchRunner {
        self.cache = TemplateCache::with_store(store);
        self
    }

    /// Backs the template cache with an unbounded memory tier over a
    /// disk spill tier rooted at `dir`: every compiled template is
    /// written through to `dir`, so a later runner (or a restarted
    /// process, or a sibling shard mounting the same directory) pointed
    /// at the same path re-runs the batch with **zero** new compiles —
    /// pinned in `tests/warm_start.rs`.
    ///
    /// # Errors
    ///
    /// Returns [`FqError::Io`] when `dir` cannot be created.
    pub fn with_cache_dir(self, dir: impl AsRef<std::path::Path>) -> Result<BatchRunner, FqError> {
        Ok(self.with_store(Box::new(MemoryStore::new().spill_to(dir)?)))
    }

    /// The shared template cache — warm-transfer surface included
    /// ([`TemplateCache::index`], [`TemplateCache::artifact`],
    /// [`TemplateCache::insert_artifact`]), which is how the HTTP
    /// service serves `GET`/`POST /v1/templates`.
    #[must_use]
    pub fn cache(&self) -> &TemplateCache {
        &self.cache
    }

    /// Runs every spec, sharing compiled templates across jobs and
    /// fanning **all** branches of **all** jobs out over one
    /// work-stealing pool. Each job gets its own `Result`; order matches
    /// the input and every result is bit-identical to running the specs
    /// one by one.
    ///
    /// Takes `&self`: the shared [`TemplateCache`] is concurrent, so any
    /// number of callers (e.g. the `fq-serve` worker pool) may run
    /// batches against one runner at once, warming each other's cache.
    pub fn run(&self, specs: &[JobSpec]) -> Vec<Result<JobResult, FqError>> {
        // Resolve specs in input order (problem materialization; memoized
        // for approximate tiers, untouched for exact). Each spec's memo
        // key is built once and serves both memos.
        let keys: Vec<Option<String>> = specs.iter().map(tier_memo_key).collect();
        let jobs: Vec<Result<Job, FqError>> = specs
            .iter()
            .zip(&keys)
            .map(|(spec, key)| self.resolve_job(spec, key.as_deref()))
            .collect();

        // Decompose resolved jobs into execution units.
        let mut pending: Vec<(usize, JobUnit)> = Vec::new();
        for (job_index, job) in jobs.iter().enumerate() {
            if let Ok(job) = job {
                for unit in job.decompose() {
                    pending.push((job_index, unit));
                }
            }
        }

        // Phase 1 — plan every unit in parallel against the shared
        // concurrent cache. One compile slot per key guarantees each
        // distinct template is compiled exactly once even when many units
        // race for it; distinct templates compile concurrently.
        let threads = ExecutorKind::Threads(self.threads).threads(pending.len());
        let plans: Vec<Result<Arc<ExecutionPlan>, FqError>> =
            par_collect(threads, pending.len(), |u| {
                let (job_index, unit) = &pending[u];
                let job = jobs[*job_index]
                    .as_ref()
                    .expect("only resolved jobs decompose into units");
                self.plan_unit(keys[*job_index].as_deref(), job, unit)
            });

        // Flatten planned units into the jobs×branches item space.
        let mut units: Vec<PlannedUnit> = Vec::with_capacity(pending.len());
        let mut total_items = 0usize;
        for ((job_index, unit), plan) in pending.into_iter().zip(plans) {
            let items = plan.as_ref().map_or(0, |p| p.num_branches());
            units.push(PlannedUnit {
                job: job_index,
                unit,
                plan,
                first_item: total_items,
                items,
            });
            total_items += items;
        }

        // Phase 2 — drain all branches of all jobs from one pool.
        let threads = ExecutorKind::Threads(self.threads).threads(total_items);
        let branch_results: Vec<Result<BranchResult, FqError>> =
            par_collect(threads, total_items, |item| {
                // Map the flat index back to (unit, branch).
                let u = units.partition_point(|pu| pu.first_item <= item) - 1;
                let pu = &units[u];
                let branch = item - pu.first_item;
                let plan = pu.plan.as_ref().expect("runnable units have plans");
                let job = jobs[pu.job].as_ref().expect("runnable units have jobs");
                match pu.unit.role {
                    UnitRole::Baseline | UnitRole::Frozen => {
                        execute_branch(plan, branch, &job.device, &pu.unit.config, job.backend)
                            .map(BranchResult::Outcome)
                    }
                    UnitRole::Sample { shots } => sample_branch(
                        plan,
                        branch,
                        &job.device,
                        &pu.unit.config,
                        job.backend,
                        shots,
                    )
                    .map(BranchResult::Samples),
                }
            });

        // Phase 3 — reassemble in job order, branch order, with the first
        // error (unit order, then branch index) winning per job: exactly
        // the sequential path's semantics. `Ok(None)` marks a job whose
        // units all succeeded but whose result is not yet assembled.
        let mut results: Vec<Result<Option<JobResult>, FqError>> = jobs
            .iter()
            .map(|job| match job {
                Ok(_) => Ok(None),
                Err(e) => Err(e.clone()),
            })
            .collect();
        let mut parts: Vec<Vec<(Arc<ExecutionPlan>, UnitOutput)>> =
            (0..jobs.len()).map(|_| Vec::new()).collect();
        let mut branch_results = branch_results.into_iter();
        for pu in units {
            let outputs: Vec<Result<BranchResult, FqError>> =
                branch_results.by_ref().take(pu.items).collect();
            if results[pu.job].is_err() {
                continue; // an earlier unit of this job already failed
            }
            match collect_unit(pu.unit, pu.plan, outputs) {
                Ok(part) => parts[pu.job].push(part),
                Err(e) => results[pu.job] = Err(e),
            }
        }
        for (job_index, (job, part)) in jobs.iter().zip(parts).enumerate() {
            if let (Ok(job), Ok(None)) = (job, &results[job_index]) {
                results[job_index] = job.assemble(part).map(Some);
            }
        }
        results
            .into_iter()
            .map(|r| r.map(|opt| opt.expect("every surviving job was assembled")))
            .collect()
    }

    /// Resolves one spec into a runnable [`Job`]. The exact tier goes
    /// straight through [`JobSpec::to_job`] — bit-for-bit the sequential
    /// path. Approximate tiers memoize the `(model, device)` pair per
    /// (problem, device) spec so a sweep that varies only seed/tier pays
    /// problem materialization once; resolution is a pure function of
    /// the spec, so the memo changes no output bit. `key` is the spec's
    /// [`tier_memo_key`].
    fn resolve_job(&self, spec: &JobSpec, key: Option<&str>) -> Result<Job, FqError> {
        let Some(key) = key else {
            return spec.to_job();
        };
        let hit = {
            let memo = self
                .tier_resolved
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            memo.get(key).cloned()
        };
        let resolved = match hit {
            Some(r) => r,
            None => {
                let r = Arc::new((spec.problem.resolve()?, spec.device.build()));
                let mut memo = self
                    .tier_resolved
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                if memo.len() >= TIER_MEMO_CAP {
                    memo.clear();
                }
                memo.insert(key.to_string(), Arc::clone(&r));
                r
            }
        };
        Ok(Job {
            model: resolved.0.clone(),
            device: resolved.1.clone(),
            config: spec.config.clone(),
            backend: spec.backend,
            kind: spec.kind,
        })
    }

    /// Plans one unit. The exact tier always re-plans through the
    /// template cache (the pre-tier path, byte for byte); approximate
    /// tiers additionally memoize the **whole plan** keyed by every
    /// planning input — problem and device specs plus the config fields
    /// planning reads (`num_frozen`, `layers`, `hotspots`,
    /// `prune_symmetric`, `compile`; seed, `param_grid` and tier are
    /// execution-time knobs, not planning inputs). The problem and device
    /// enter as the job's [`tier_memo_key`] (their wire bytes; `None`
    /// for exact) and the config fields through `Debug`, whose `f64`
    /// form round-trips exactly, so the string key is injective. Racing
    /// threads may plan the same key twice; planning is pure, so either
    /// `Arc` yields identical bits.
    fn plan_unit(
        &self,
        key: Option<&str>,
        job: &Job,
        unit: &JobUnit,
    ) -> Result<Arc<ExecutionPlan>, FqError> {
        let Some(key) = key else {
            return plan_execution_cached(&job.model, &job.device, &unit.config, &self.cache)
                .map(Arc::new);
        };
        let key = format!(
            "{key}|{}|{}|{:?}|{}|{:?}",
            unit.config.num_frozen,
            unit.config.layers,
            unit.config.hotspots,
            unit.config.prune_symmetric,
            unit.config.compile,
        );
        {
            let memo = self
                .tier_plans
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            if let Some(plan) = memo.get(&key) {
                return Ok(Arc::clone(plan));
            }
        }
        let plan = Arc::new(plan_execution_cached(
            &job.model,
            &job.device,
            &unit.config,
            &self.cache,
        )?);
        let mut memo = self
            .tier_plans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if memo.len() >= TIER_MEMO_CAP {
            memo.clear();
        }
        memo.insert(key, Arc::clone(&plan));
        Ok(plan)
    }

    /// Runs every spec, then returns the first error in input order (the
    /// whole batch still executes — jobs are independent).
    ///
    /// # Errors
    ///
    /// The first failing job's error.
    pub fn run_all(&self, specs: &[JobSpec]) -> Result<Vec<JobResult>, FqError> {
        self.run(specs).into_iter().collect()
    }

    /// Number of distinct templates currently resident in the cache —
    /// with the default unbounded cache, exactly the number of distinct
    /// (shape, device, layers, options) keys compiled across all runs.
    #[must_use]
    pub fn templates_compiled(&self) -> usize {
        self.cache.len()
    }

    /// Exact cache counters: hits, misses (= compiles), LRU evictions,
    /// residency and bound.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}

/// Turns one unit's branch results into an assembly part, surfacing
/// the unit's planning error or its first branch error (by index).
fn collect_unit(
    unit: JobUnit,
    plan: Result<Arc<ExecutionPlan>, FqError>,
    outputs: Vec<Result<BranchResult, FqError>>,
) -> Result<(Arc<ExecutionPlan>, UnitOutput), FqError> {
    let plan = plan?;
    let output = match unit.role {
        UnitRole::Baseline | UnitRole::Frozen => {
            let mut outcomes = Vec::with_capacity(outputs.len());
            for r in outputs {
                match r? {
                    BranchResult::Outcome(o) => outcomes.push(o),
                    BranchResult::Samples(_) => unreachable!("analytic unit"),
                }
            }
            UnitOutput::Analytic(outcomes)
        }
        UnitRole::Sample { .. } => {
            let mut samples = Vec::with_capacity(outputs.len());
            for r in outputs {
                match r? {
                    BranchResult::Samples(s) => samples.push(s),
                    BranchResult::Outcome(_) => unreachable!("sampling unit"),
                }
            }
            UnitOutput::Samples(samples)
        }
    };
    Ok((plan, output))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{BackendSpec, DeviceSpec, JobBuilder};

    fn frozen_spec(n: usize, seed: u64) -> JobSpec {
        JobBuilder::new()
            .barabasi_albert(n, 1, seed)
            .device(DeviceSpec::IbmMontreal)
            .frozen()
            .build()
            .unwrap()
    }

    // `compile_invocations()` deltas are asserted in the dedicated
    // `tests/batch_amortization.rs` and `tests/batch_parallel.rs`
    // processes; here we check the cache's own bookkeeping and per-job
    // error isolation.
    #[test]
    fn batch_shares_templates_and_isolates_failures() {
        let good = frozen_spec(10, 2);
        let same_shape = JobSpec {
            backend: BackendSpec::NoiseModel,
            ..good.clone()
        };
        // Bypass the builder to smuggle in a run-time failure.
        let bad = JobSpec {
            config: crate::FrozenQubitsConfig::with_frozen(99),
            ..good.clone()
        };
        let runner = BatchRunner::new();
        let results = runner.run(&[good, bad, same_shape]);
        assert!(results[0].is_ok());
        assert!(matches!(
            results[1],
            Err(FqError::TooManyFrozen { m: 99, .. })
        ));
        assert!(results[2].is_ok(), "a failing job must not sink the batch");
        assert_eq!(
            runner.templates_compiled(),
            1,
            "both succeeding jobs share one shape"
        );
        assert!(runner.run_all(&[frozen_spec(10, 2)]).is_ok());
    }

    #[test]
    fn distinct_shapes_get_distinct_templates() {
        let runner = BatchRunner::new();
        let results = runner.run(&[frozen_spec(10, 2), frozen_spec(12, 2)]);
        assert!(results.iter().all(Result::is_ok));
        assert_eq!(runner.templates_compiled(), 2);
    }

    #[test]
    fn thread_knob_is_deterministic() {
        let specs: Vec<JobSpec> = (0..4).map(|s| frozen_spec(10, s)).collect();
        let sequential = BatchRunner::new().with_threads(1).run(&specs);
        for threads in [2usize, 5] {
            let parallel = BatchRunner::new().with_threads(threads).run(&specs);
            for (s, p) in sequential.iter().zip(&parallel) {
                assert_eq!(
                    s.as_ref().unwrap(),
                    p.as_ref().unwrap(),
                    "threads={threads} must not change results"
                );
            }
        }
    }

    // Regression: the tier memos once keyed explicit models by `Debug`,
    // which prints only width, coupling count and offset, so the second
    // of two same-sized models came back with the first one's result.
    #[test]
    fn same_sized_explicit_models_keep_their_own_tier_results() {
        use fq_graphs::{gen, to_ising_pm1};
        let a = to_ising_pm1(&gen::random_regular(10, 3, 1).unwrap(), 1);
        let b = to_ising_pm1(&gen::random_regular(10, 3, 2).unwrap(), 2);
        assert_eq!(
            (a.num_vars(), a.num_couplings(), a.offset()),
            (b.num_vars(), b.num_couplings(), b.offset())
        );
        assert_ne!(a, b);
        let specs: Vec<JobSpec> = [a, b]
            .into_iter()
            .map(|model| {
                JobBuilder::new()
                    .ising(model)
                    .device(DeviceSpec::IbmMontreal)
                    .tier(crate::QosTier::Fast)
                    .frozen()
                    .build()
                    .unwrap()
            })
            .collect();
        let batched = BatchRunner::new().run(&specs);
        for (spec, got) in specs.iter().zip(&batched) {
            assert_eq!(got.as_ref().unwrap(), &spec.run().unwrap());
        }
        assert_ne!(batched[0].as_ref().unwrap(), batched[1].as_ref().unwrap());
    }

    #[test]
    fn smuggled_noise_model_sampling_fails_like_the_backend() {
        // The builder rejects this combination; a hand-built spec must
        // fail identically through the batch engine.
        let sampled = JobSpec {
            backend: BackendSpec::NoiseModel,
            kind: crate::JobKind::Sample { shots: 32 },
            ..frozen_spec(10, 3)
        };
        let direct = sampled.to_job().unwrap().run().unwrap_err();
        let runner = BatchRunner::new();
        let batched = runner.run(std::slice::from_ref(&sampled));
        assert_eq!(batched[0].as_ref().unwrap_err(), &direct);
    }
}
