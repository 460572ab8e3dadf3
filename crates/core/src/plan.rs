//! Phase 1 of the plan/execute pipeline: turning a problem into an
//! [`ExecutionPlan`].
//!
//! Freezing `m` hotspots yields `2^m` (or `2^{m−1}` under pruning)
//! sub-circuits that are *structurally identical* up to rotation angles
//! (§3.3): planning exploits that by compiling **one**
//! [`CompiledTemplate`] per distinct sub-circuit shape — in the common
//! case exactly one for the whole plan — instead of one compile per
//! branch. Phase 2 (a [`Backend`](crate::Backend), or the batch engine's
//! pool) then runs each branch on the shared template — reading its memoized noise tables, or
//! angle-editing it when the branch samples — so the quantum compile cost
//! of the `m` knob is `O(1)` rather than `O(2^m)` and branch execution can
//! fan out across cores.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use fq_ising::IsingModel;
use fq_transpile::{CompileOptions, Device};

use crate::api::ErrorModel;
use crate::pipeline::optimize_layers;
use crate::store::{MemoryStore, TemplateArtifact, TemplateIndexEntry, TemplateKey, TemplateStore};
use crate::{
    partition_problem, select_hotspots, CompiledTemplate, FqError, FrozenQubitsConfig, Partition,
    QosTier, SubproblemExec,
};

/// The structural identity of a sub-circuit: everything that determines
/// the compiled gate/routing structure, independent of coefficient values.
///
/// Two sub-problems with equal signatures can share one compiled template
/// (their circuits differ only in rotation angles); see
/// [`rebind_coefficients`](fq_circuit::rebind_coefficients).
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShapeSignature {
    num_vars: usize,
    couplings: Vec<(usize, usize)>,
}

impl ShapeSignature {
    /// The signature of `model`'s QAOA circuit shape.
    #[must_use]
    pub fn of(model: &IsingModel) -> ShapeSignature {
        ShapeSignature {
            num_vars: model.num_vars(),
            couplings: model.couplings().map(|(ij, _)| ij).collect(),
        }
    }

    /// Rebuilds a signature from its parts (the wire-deserialization
    /// path of a [`TemplateArtifact`]'s key).
    #[must_use]
    pub(crate) fn from_parts(num_vars: usize, couplings: Vec<(usize, usize)>) -> ShapeSignature {
        ShapeSignature {
            num_vars,
            couplings,
        }
    }

    /// Problem width the shape was taken from.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// The coupled index pairs, in the model's canonical coupling order.
    #[must_use]
    pub fn couplings(&self) -> &[(usize, usize)] {
        &self.couplings
    }
}

/// A fully planned execution: the partition into sub-problems plus the
/// shared compiled templates, ready for a [`Backend`](crate::Backend).
///
/// Build one with [`plan_execution`].
#[derive(Clone, Debug)]
pub struct ExecutionPlan {
    parent: IsingModel,
    partition: Partition,
    templates: Vec<CompiledTemplate>,
    /// `branch_templates[b]` indexes into `templates` for branch `b`.
    branch_templates: Vec<usize>,
    layers: usize,
    /// Memoized approximate-tier `(γ, β)` vectors, keyed by
    /// `(tier, seed, param_grid)` and shared across clones — see
    /// [`ExecutionPlan::tier_params`].
    tier_params: TierParamsMemo,
}

/// Key of one [`ExecutionPlan::tier_params`] memo entry:
/// `(tier, seed, param_grid)`.
type TierParamsKey = (QosTier, u64, usize);

/// One memoized `(γ_1..γ_p, β_1..β_p)` pair.
type TierParams = (Vec<f64>, Vec<f64>);

/// The memo itself, shared across plan clones.
type TierParamsMemo = Arc<Mutex<Vec<(TierParamsKey, Arc<TierParams>)>>>;

impl ExecutionPlan {
    /// The parent problem the plan partitions.
    #[must_use]
    pub fn parent_model(&self) -> &IsingModel {
        &self.parent
    }

    /// The underlying partition (sub-problems, masks, pruning info).
    #[must_use]
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// Number of branches to execute (the paper's *quantum cost*).
    #[must_use]
    pub fn num_branches(&self) -> usize {
        self.partition.executed.len()
    }

    /// The branch at `index` (panics if out of range).
    #[must_use]
    pub fn branch(&self, index: usize) -> &SubproblemExec {
        &self.partition.executed[index]
    }

    /// The aggregation weight of branch `index`: 2 when it also covers a
    /// pruned symmetric partner, 1 otherwise.
    #[must_use]
    pub fn branch_weight(&self, index: usize) -> f64 {
        if self.partition.executed[index].partner_mask.is_some() {
            2.0
        } else {
            1.0
        }
    }

    /// The shared compiled templates, one per distinct sub-circuit shape.
    #[must_use]
    pub fn templates(&self) -> &[CompiledTemplate] {
        &self.templates
    }

    /// How many distinct shapes the plan compiled (1 in the common case).
    #[must_use]
    pub fn num_templates(&self) -> usize {
        self.templates.len()
    }

    /// The template hosting branch `index` (panics if out of range).
    #[must_use]
    pub fn template_for(&self, index: usize) -> &CompiledTemplate {
        &self.templates[self.branch_templates[index]]
    }

    /// QAOA layer count the plan was built for.
    #[must_use]
    pub fn layers(&self) -> usize {
        self.layers
    }

    /// Frozen qubit indices, in freeze order.
    #[must_use]
    pub fn frozen_qubits(&self) -> &[usize] {
        &self.partition.frozen_qubits
    }

    /// Number of circuits actually executed (`2^{m−1}` under pruning).
    #[must_use]
    pub fn quantum_cost(&self) -> u64 {
        self.partition.quantum_cost()
    }

    /// The approximate tiers' `(γ, β)` vectors, optimized **once per
    /// plan** on the representative branch (branch 0) and shared by
    /// every sibling — the tiers' optimizer-amortization: siblings share
    /// the coupling structure that dominates the `p = 1` landscape, and
    /// the deviation this parameter reuse introduces is part of the
    /// measured budget the tier's
    /// [`ErrorModel`](crate::api::ErrorModel) bound covers (asserted
    /// corpus-wide by the suite's deviation test).
    ///
    /// Memoized by `(tier, seed, param_grid)`; the memo is shared across
    /// plan clones, and the computation is a pure function of the key
    /// plus branch 0's model, so which branch (or thread, or job)
    /// computes it first can never change a result bit.
    ///
    /// # Errors
    ///
    /// Propagates optimizer errors (invalid layer counts, over-wide
    /// multi-layer models).
    pub(crate) fn tier_params(
        &self,
        em: &ErrorModel,
        config: &FrozenQubitsConfig,
    ) -> Result<Arc<TierParams>, FqError> {
        let key = (em.tier, config.seed, config.param_grid);
        let mut memo = self
            .tier_params
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some((_, params)) = memo.iter().find(|(k, _)| *k == key) {
            return Ok(Arc::clone(params));
        }
        // Plans cached by a batch runner (or a long-lived service shard)
        // see a new seed per request; bound the memo so a seed sweep over
        // one plan cannot grow it without limit.
        if memo.len() >= 1024 {
            memo.clear();
        }
        let model = self.partition.executed[0].problem.model();
        let params = Arc::new(optimize_layers(
            model,
            self.layers,
            config.param_grid,
            Some(em),
            config.seed,
        )?);
        memo.push((key, Arc::clone(&params)));
        Ok(params)
    }
}

/// Builds the [`ExecutionPlan`] for `model` on `device`: hotspot
/// selection, partitioning with symmetry pruning, and **one** template
/// compilation per distinct sub-circuit shape.
///
/// With `config.num_frozen = 0` the plan has a single branch — the
/// original problem — which is how the baseline runs through the same
/// machinery.
///
/// # Errors
///
/// Propagates hotspot-selection, freezing, circuit-synthesis and
/// transpilation errors.
///
/// # Example
///
/// ```
/// use fq_graphs::{gen, to_ising_pm1};
/// use fq_transpile::Device;
/// use frozenqubits::{plan_execution, FrozenQubitsConfig};
///
/// let model = to_ising_pm1(&gen::barabasi_albert(12, 1, 3)?, 3);
/// let cfg = FrozenQubitsConfig::with_frozen(3);
/// let plan = plan_execution(&model, &Device::ibm_montreal(), &cfg)?;
/// // 2^{3−1} = 4 branches, all sharing a single compiled template.
/// assert_eq!(plan.num_branches(), 4);
/// assert_eq!(plan.num_templates(), 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn plan_execution(
    model: &IsingModel,
    device: &Device,
    config: &FrozenQubitsConfig,
) -> Result<ExecutionPlan, FqError> {
    plan_execution_cached(model, device, config, &TemplateCache::new())
}

/// Like [`plan_execution`], but compiled templates are looked up in (and
/// inserted into) `cache`, extending the per-plan amortization across
/// plans: a [`BatchRunner`](crate::api::BatchRunner) passing one cache to
/// many jobs compiles each distinct shape **once per batch**, not once
/// per job.
///
/// # Errors
///
/// Propagates hotspot-selection, freezing, circuit-synthesis and
/// transpilation errors.
pub fn plan_execution_cached(
    model: &IsingModel,
    device: &Device,
    config: &FrozenQubitsConfig,
    cache: &TemplateCache,
) -> Result<ExecutionPlan, FqError> {
    let hotspots = select_hotspots(model, config.num_frozen, &config.hotspots)?;
    let partition = partition_problem(model, &hotspots, config.prune_symmetric)?;
    // Group branches by structural shape; compile (or fetch) one template
    // per group.
    let mut shapes: Vec<ShapeSignature> = Vec::new();
    let mut templates: Vec<CompiledTemplate> = Vec::new();
    let mut branch_templates = Vec::with_capacity(partition.executed.len());
    for exec in &partition.executed {
        let sig = ShapeSignature::of(exec.problem.model());
        let id = match shapes.iter().position(|s| *s == sig) {
            Some(id) => id,
            None => {
                templates.push(cache.get_or_compile(
                    &sig,
                    exec.problem.model(),
                    config.layers,
                    device,
                    config.compile,
                )?);
                shapes.push(sig);
                templates.len() - 1
            }
        };
        branch_templates.push(id);
    }
    Ok(ExecutionPlan {
        parent: model.clone(),
        partition,
        templates,
        branch_templates,
        layers: config.layers,
        tier_params: Arc::default(),
    })
}

/// A concurrent cross-plan cache of compiled templates, keyed by
/// everything that determines the compiled artifact (see
/// [`TemplateKey`]): sub-circuit [`ShapeSignature`], device identity
/// (name **plus** a stable fingerprint of topology and calibration, so
/// two different `Device::uniform`/`Device::ideal` models sharing a name
/// cannot collide), QAOA layer count and [`CompileOptions`].
///
/// Templates are pre-binding (no angles baked in), so one cached entry
/// serves every job whose sub-problems share the shape, regardless of
/// coefficient values or sampling seeds.
///
/// # Storage
///
/// Since the tiered-store refactor the cache owns only the *compile
/// coordination*; where templates actually live is a pluggable
/// [`TemplateStore`] ([`TemplateCache::with_store`]). The default is the
/// in-memory [`MemoryStore`]; a
/// [`TieredStore`](crate::TieredStore) adds a disk spill tier so
/// restarts and sibling shards start warm, and
/// [`TemplateCache::insert_artifact`] /
/// [`TemplateCache::artifact`] / [`TemplateCache::index`] expose the
/// store for shard-to-shard warm transfer.
///
/// # Concurrency
///
/// Each missing key gets a **once-compile** slot: the first thread to
/// reach it compiles, concurrent requests for the *same* key block on
/// that slot and then share the result (never compiling twice —
/// observable via [`fq_transpile::compile_invocations`]), and requests
/// for *other* keys proceed untouched. A failed compile is not cached:
/// the first requester gets the error and any concurrent same-key
/// waiters retry from scratch. A compile that *panics* (e.g. unwinding
/// through a service worker's `catch_unwind`) publishes a failure from
/// its drop guard, so one panicking job cannot wedge its shape key for
/// every later job.
///
/// # Bounding
///
/// [`TemplateCache::with_capacity`] turns on the memory tier's LRU bound
/// for long-running services: once more than `capacity` templates are
/// resident, the least-recently-used entry is evicted (and demoted to
/// the spill tier, when one is configured).
/// [`TemplateCache::stats`] exposes exact counters.
#[derive(Debug)]
pub struct TemplateCache {
    store: Box<dyn TemplateStore>,
    /// Per-key once-compile slots for compiles currently in flight.
    inflight: Mutex<HashMap<TemplateKey, Arc<InflightCompile>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

/// Exact operation counters of a [`TemplateCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Lookups served from an already-compiled template (including
    /// lookups that waited for a concurrent in-flight compile).
    pub hits: u64,
    /// Lookups that had to compile (successful or not).
    pub misses: u64,
    /// Templates evicted from the memory tier by the LRU bound.
    pub evictions: u64,
    /// Templates currently resident in the memory tier.
    pub len: usize,
    /// The LRU bound, if one is set.
    pub capacity: Option<usize>,
    /// Artifacts written to the spill tier (0 without one).
    pub spills: u64,
    /// Spill-tier hits promoted back into the memory tier.
    pub promotions: u64,
    /// Artifacts resident in the spill tier.
    pub spill_len: usize,
}

/// One in-flight compile: waiters block on the condvar until the
/// compiling thread publishes `Finished`.
#[derive(Debug)]
struct InflightCompile {
    state: Mutex<InflightState>,
    done: Condvar,
}

/// (Boxed: the slot spends most of its life as the slim `Compiling` tag
/// and only briefly carries the template's footprint.)
#[derive(Debug)]
enum InflightState {
    Compiling,
    Finished(Box<Result<CompiledTemplate, FqError>>),
}

impl InflightCompile {
    fn new() -> InflightCompile {
        InflightCompile {
            state: Mutex::new(InflightState::Compiling),
            done: Condvar::new(),
        }
    }
}

/// Publishes a failure if the compiling thread unwinds before finishing
/// (a panicking compile must not leave waiters blocked forever).
struct CompileGuard<'a> {
    cache: &'a TemplateCache,
    key: &'a TemplateKey,
    slot: &'a Arc<InflightCompile>,
    armed: bool,
}

impl Drop for CompileGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.cache.finish_compile(
                self.key,
                self.slot,
                Err(FqError::Io("template compile panicked".into())),
            );
        }
    }
}

impl Default for TemplateCache {
    fn default() -> TemplateCache {
        TemplateCache::new()
    }
}

impl TemplateCache {
    /// An empty cache over an unbounded in-memory store.
    #[must_use]
    pub fn new() -> TemplateCache {
        TemplateCache::with_store(Box::new(MemoryStore::new()))
    }

    /// An empty cache whose memory store holds at most `capacity`
    /// templates, evicting the least-recently-used one beyond that.
    /// `capacity = 0` disables caching entirely (every template is
    /// evicted right after use) — legal, but only useful for measuring
    /// the uncached baseline.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> TemplateCache {
        TemplateCache::with_store(Box::new(MemoryStore::with_capacity(capacity)))
    }

    /// A cache over an explicit [`TemplateStore`] — the persistence seam:
    /// pass a [`TieredStore`](crate::TieredStore) to spill templates to
    /// disk and start warm after restarts.
    #[must_use]
    pub fn with_store(store: Box<dyn TemplateStore>) -> TemplateCache {
        TemplateCache {
            store,
            inflight: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Number of distinct templates currently resident in the memory
    /// tier.
    #[must_use]
    pub fn len(&self) -> usize {
        self.store.stats().len
    }

    /// Whether the memory tier holds no templates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Exact operation counters (hits, misses, evictions, residency,
    /// spill activity).
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        let s = self.store.stats();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: s.evictions,
            len: s.len,
            capacity: s.capacity,
            spills: s.spills,
            promotions: s.promotions,
            spill_len: s.spill_len,
        }
    }

    /// Inserts a deserialized artifact directly into the backing store —
    /// the receive half of shard-to-shard warm transfer (`POST
    /// /v1/templates`, `serve --warm-from`). Not counted as a hit or a
    /// miss: nothing was looked up and nothing was compiled.
    pub fn insert_artifact(&self, artifact: &TemplateArtifact) {
        self.store.insert(artifact.key(), artifact.template());
    }

    /// The resident artifact addressed by `fingerprint`, if any — the
    /// send half of warm transfer (`GET /v1/templates/{fingerprint}`).
    #[must_use]
    pub fn artifact(&self, fingerprint: &str) -> Option<TemplateArtifact> {
        self.store.fetch_fingerprint(fingerprint)
    }

    /// Every resident artifact's fingerprint with a recency stamp,
    /// hottest first — what a freshly booted shard pulls to decide its
    /// warm set (`GET /v1/templates`).
    #[must_use]
    pub fn index(&self) -> Vec<TemplateIndexEntry> {
        self.store.index()
    }

    fn get_or_compile(
        &self,
        shape: &ShapeSignature,
        representative: &IsingModel,
        layers: usize,
        device: &Device,
        options: CompileOptions,
    ) -> Result<CompiledTemplate, FqError> {
        let key = TemplateKey::new(shape.clone(), device, layers, options);
        loop {
            if let Some(template) = self.store.fetch(&key) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(template);
            }
            // Miss: join an in-flight compile of this key, or claim it.
            let (slot, claimed) = {
                let mut inflight = self
                    .inflight
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                match inflight.get(&key) {
                    Some(slot) => (Arc::clone(slot), false),
                    None => {
                        let slot = Arc::new(InflightCompile::new());
                        inflight.insert(key.clone(), Arc::clone(&slot));
                        (slot, true)
                    }
                }
            };
            if !claimed {
                // Wait for the compiling thread and share its outcome; a
                // failure means our shot at the key is gone — retry from
                // scratch (and possibly become the next compiler).
                let mut state = slot
                    .state
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                while matches!(*state, InflightState::Compiling) {
                    state = slot
                        .done
                        .wait(state)
                        .unwrap_or_else(std::sync::PoisonError::into_inner);
                }
                match &*state {
                    InflightState::Finished(outcome) => match outcome.as_ref() {
                        Ok(template) => {
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            return Ok(template.clone());
                        }
                        Err(_) => continue,
                    },
                    InflightState::Compiling => unreachable!("woken before Finished"),
                }
            }
            // We own the compile. Re-check the store first: a concurrent
            // compiler may have published between our miss and our claim
            // (store insert happens before slot removal, so seeing the
            // vacant slot implies the insert is visible).
            if let Some(template) = self.store.fetch(&key) {
                self.finish_compile(&key, &slot, Ok(template.clone()));
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok(template);
            }
            self.misses.fetch_add(1, Ordering::Relaxed);
            let mut guard = CompileGuard {
                cache: self,
                key: &key,
                slot: &slot,
                armed: true,
            };
            let result = CompiledTemplate::compile(representative, layers, device, options);
            if let Ok(template) = &result {
                self.store.insert(&key, template);
            }
            guard.armed = false;
            self.finish_compile(&key, &slot, result.clone());
            return result;
        }
    }

    /// Publishes a compile outcome: waiters wake with the result and the
    /// key's slot is retired (a later failure retry gets a fresh one).
    fn finish_compile(
        &self,
        key: &TemplateKey,
        slot: &Arc<InflightCompile>,
        result: Result<CompiledTemplate, FqError>,
    ) {
        {
            let mut state = slot
                .state
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            *state = InflightState::Finished(Box::new(result));
        }
        slot.done.notify_all();
        let mut inflight = self
            .inflight
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        // Remove only our own slot — a concurrent retry may already have
        // replaced it.
        if inflight.get(key).is_some_and(|cur| Arc::ptr_eq(cur, slot)) {
            inflight.remove(key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fq_graphs::{gen, to_ising_pm1};

    fn ba_model(n: usize, seed: u64) -> IsingModel {
        to_ising_pm1(&gen::barabasi_albert(n, 1, seed).unwrap(), seed)
    }

    #[test]
    fn siblings_share_one_shape() {
        let parent = ba_model(10, 1);
        let hub = parent.hotspots()[0];
        let plus = parent.freeze(&[(hub, fq_ising::Spin::UP)]).unwrap();
        let minus = parent.freeze(&[(hub, fq_ising::Spin::DOWN)]).unwrap();
        assert_eq!(
            ShapeSignature::of(plus.model()),
            ShapeSignature::of(minus.model())
        );
        assert_ne!(
            ShapeSignature::of(&parent),
            ShapeSignature::of(plus.model())
        );
    }

    // The `fq_transpile::compile_invocations()` delta assertions live in
    // the dedicated `tests/compile_amortization.rs` integration binary:
    // the counter is process-global, so measuring deltas here would race
    // with sibling unit tests compiling on other test threads.
    #[test]
    fn plan_compiles_one_template_for_m3() {
        let model = ba_model(12, 2);
        let cfg = FrozenQubitsConfig::with_frozen(3);
        let plan = plan_execution(&model, &Device::ibm_montreal(), &cfg).unwrap();
        assert_eq!(plan.num_branches(), 4);
        assert_eq!(plan.num_templates(), 1);
        for b in 0..plan.num_branches() {
            assert_eq!(plan.branch_weight(b), 2.0);
            assert!(std::ptr::eq(plan.template_for(b), &plan.templates()[0]));
        }
    }

    #[test]
    fn cache_distinguishes_same_named_devices() {
        // Non-preset devices can share a name; the calibration/topology
        // fingerprint must keep their templates apart.
        let model = ba_model(6, 5);
        let cfg = FrozenQubitsConfig::with_frozen(1);
        let cache = TemplateCache::new();
        let d1 = Device::ideal("x", fq_transpile::Topology::linear(10).unwrap());
        let d2 = Device::ideal("x", fq_transpile::Topology::grid(3, 4).unwrap());
        plan_execution_cached(&model, &d1, &cfg, &cache).unwrap();
        assert_eq!(cache.len(), 1);
        plan_execution_cached(&model, &d2, &cfg, &cache).unwrap();
        assert_eq!(cache.len(), 2, "same name, different device: no collision");
        plan_execution_cached(&model, &d1, &cfg, &cache).unwrap();
        assert_eq!(cache.len(), 2, "identical device still hits the cache");
    }

    #[test]
    fn cache_stats_are_exact_and_lru_bound_is_respected() {
        let cfg = FrozenQubitsConfig::with_frozen(1);
        let device = Device::ibm_montreal();
        let cache = TemplateCache::with_capacity(2);
        let models: Vec<IsingModel> = [(8usize, 1u64), (10, 1), (12, 1)]
            .iter()
            .map(|&(n, s)| ba_model(n, s))
            .collect();
        // Three distinct shapes through a 2-slot cache: 3 misses, then the
        // oldest (8-var) shape is evicted.
        for m in &models {
            plan_execution_cached(m, &device, &cfg, &cache).unwrap();
        }
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (0, 3, 1));
        assert_eq!(s.len, 2);
        assert_eq!(s.capacity, Some(2));

        // The two resident shapes hit; re-planning the evicted one is a
        // miss that now evicts the 10-var shape (least recently used).
        plan_execution_cached(&models[1], &device, &cfg, &cache).unwrap();
        plan_execution_cached(&models[2], &device, &cfg, &cache).unwrap();
        assert_eq!(cache.stats().hits, 2);
        plan_execution_cached(&models[0], &device, &cfg, &cache).unwrap();
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (2, 4, 2));
        assert_eq!(s.len, 2);
        // 10-var was the LRU at eviction time: planning it again misses.
        plan_execution_cached(&models[1], &device, &cfg, &cache).unwrap();
        assert_eq!(cache.stats().misses, 5);
        assert!(cache.len() <= 2, "bound must hold after every operation");
    }

    #[test]
    fn concurrent_same_key_requests_compile_once() {
        // 8 threads race to plan the same shape on one shared cache; the
        // per-key once-compile slot must let exactly one of them compile.
        // (Asserted via the cache's own counters — `compile_invocations`
        // is process-global and would race with sibling unit tests; the
        // dedicated `tests/batch_parallel.rs` process pins the global
        // counter too.)
        let model = ba_model(12, 2);
        let cfg = FrozenQubitsConfig::with_frozen(2);
        let device = Device::ibm_montreal();
        let cache = TemplateCache::new();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| plan_execution_cached(&model, &device, &cfg, &cache).unwrap());
            }
        });
        let s = cache.stats();
        assert_eq!(s.misses, 1, "one compile for 8 concurrent same-key jobs");
        assert_eq!(s.hits, 7);
        assert_eq!(s.len, 1);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let model = ba_model(8, 9);
        let cfg = FrozenQubitsConfig::with_frozen(1);
        let device = Device::ibm_montreal();
        let cache = TemplateCache::with_capacity(0);
        plan_execution_cached(&model, &device, &cfg, &cache).unwrap();
        plan_execution_cached(&model, &device, &cfg, &cache).unwrap();
        let s = cache.stats();
        assert!(cache.is_empty());
        assert_eq!((s.hits, s.misses, s.evictions), (0, 2, 2));
    }

    #[test]
    fn plans_are_shareable_across_worker_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ExecutionPlan>();
        assert_send_sync::<CompiledTemplate>();
        assert_send_sync::<ShapeSignature>();
    }

    #[test]
    fn m0_plans_the_baseline() {
        let model = ba_model(8, 3);
        let cfg = FrozenQubitsConfig::with_frozen(0);
        let plan = plan_execution(&model, &Device::ibm_montreal(), &cfg).unwrap();
        assert_eq!(plan.num_branches(), 1);
        assert_eq!(plan.num_templates(), 1);
        assert_eq!(plan.branch_weight(0), 1.0);
        assert!(plan.frozen_qubits().is_empty());
        assert_eq!(plan.branch(0).problem.model(), &model);
    }

    #[test]
    fn asymmetric_models_plan_all_branches_with_one_template() {
        let mut model = ba_model(9, 4);
        model.set_linear(0, 0.7).unwrap(); // breaks spin-flip symmetry
        let cfg = FrozenQubitsConfig::with_frozen(2);
        let plan = plan_execution(&model, &Device::ibm_montreal(), &cfg).unwrap();
        assert_eq!(plan.num_branches(), 4, "no pruning without symmetry");
        assert_eq!(plan.num_templates(), 1, "branches still share the shape");
        assert!((0..4).all(|b| plan.branch_weight(b) == 1.0));
    }
}
