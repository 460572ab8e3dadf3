//! The flattened jobs×branches engine's acceptance criteria, on a mixed
//! ≥50-job batch:
//!
//! * parallel batch output is **bit-for-bit identical** to running every
//!   spec sequentially (job order, branch order, first-error-by-index);
//! * errors stay isolated per job;
//! * `templates_compiled()` equals the number of distinct cache keys —
//!   pinned both against `fq_transpile::compile_invocations()` (no
//!   duplicate compiles under concurrency) and against a sequential
//!   reference cache;
//! * cache statistics are exact, and the LRU bound is respected;
//! * approximate-tier jobs on both backends match the sequential
//!   reference too.
//!
//! `compile_invocations()` is process-global, so this file holds a single
//! test (its own process) and measures deltas with nothing else compiling.

use fq_transpile::compile_invocations;
use frozenqubits::api::{
    BackendSpec, BatchRunner, DeviceSpec, GraphWeighting, JobBuilder, JobSpec, ProblemSpec,
};
use frozenqubits::{FqError, FrozenQubitsConfig, JobKind, JobResult, QosTier, TemplateCache};

/// A frozen job over the fixed problem family `(n, graph_seed)` — jobs
/// sharing a family share one sub-circuit shape regardless of the
/// per-job stochastic seed, which is what the cache amortizes.
fn frozen(n: usize, graph_seed: u64, m: usize, seed: u64) -> JobSpec {
    JobBuilder::new()
        .barabasi_albert(n, 1, graph_seed)
        .device(DeviceSpec::IbmMontreal)
        .num_frozen(m)
        .seed(seed)
        .frozen()
        .build()
        .unwrap()
}

/// ≥50 specs mixing analytic kinds, backends, sampling and deliberate
/// failures.
fn mixed_specs() -> Vec<JobSpec> {
    let mut specs: Vec<JobSpec> = Vec::new();
    // Family A: 10-node power-law, m = 1 and m = 2.
    specs.extend((0..10).map(|s| frozen(10, 4, 1, s)));
    specs.extend((0..6).map(|s| frozen(10, 4, 2, s)));
    // Family B: 12-node power-law, m = 1 and a 4-branch m = 3.
    specs.extend((0..8).map(|s| frozen(12, 4, 1, s)));
    specs.extend((0..4).map(|s| frozen(12, 4, 3, s)));
    // Family C: 8-node power-law — baselines and full compare reports.
    for s in 0..6 {
        specs.push(
            JobBuilder::new()
                .barabasi_albert(8, 1, 2)
                .device(DeviceSpec::IbmMontreal)
                .seed(s)
                .baseline()
                .build()
                .unwrap(),
        );
        specs.push(
            JobBuilder::new()
                .barabasi_albert(8, 1, 2)
                .device(DeviceSpec::IbmMontreal)
                .seed(s)
                .compare()
                .build()
                .unwrap(),
        );
    }
    // The deterministic noise-model backend shares family A's templates.
    specs.extend((0..4).map(|s| JobSpec {
        backend: BackendSpec::NoiseModel,
        ..frozen(10, 4, 1, 100 + s)
    }));
    // End-to-end sampling over family C.
    for s in 0..4 {
        specs.push(
            JobBuilder::new()
                .barabasi_albert(8, 1, 2)
                .device(DeviceSpec::IbmMontreal)
                .seed(s)
                .sample(64)
                .build()
                .unwrap(),
        );
    }
    // A multi-layer job: distinct cache key (layers are part of it).
    specs.push(
        JobBuilder::new()
            .barabasi_albert(8, 1, 2)
            .device(DeviceSpec::IbmMontreal)
            .layers(2)
            .frozen()
            .build()
            .unwrap(),
    );
    // Deliberate failures, smuggled past the builder: freezing more
    // qubits than exist (fails at planning) and an unresolvable graph
    // (fails at materialization).
    specs.push(JobSpec {
        config: FrozenQubitsConfig::with_frozen(99),
        ..frozen(10, 4, 1, 0)
    });
    specs.push(JobSpec {
        config: FrozenQubitsConfig::with_frozen(99),
        ..frozen(12, 4, 1, 3)
    });
    specs.push(JobSpec {
        problem: ProblemSpec::Graph {
            num_nodes: 3,
            edges: vec![(0, 7)],
            weighting: GraphWeighting::Unit,
        },
        device: DeviceSpec::IbmMontreal,
        config: FrozenQubitsConfig::default(),
        backend: BackendSpec::Sim,
        kind: JobKind::Frozen,
    });
    specs
}

/// Units the engine plans for a spec that reaches planning (compare jobs
/// plan a baseline pass and a frozen pass).
fn planned_units(spec: &JobSpec) -> u64 {
    match spec.kind {
        JobKind::Compare => 2,
        _ => 1,
    }
}

#[test]
fn parallel_batch_is_bit_identical_and_compiles_once_per_key() {
    let specs = mixed_specs();
    assert!(specs.len() >= 50, "acceptance demands a ≥50-job batch");

    // — Parallel engine, forced to a real fan-out even on small runners.
    let before = compile_invocations();
    let runner = BatchRunner::new().with_threads(4);
    let parallel = runner.run(&specs);
    let compiled_parallel = compile_invocations() - before;

    // — Sequential reference: one job after another, own shared cache.
    let seq_cache = TemplateCache::new();
    let sequential: Vec<Result<JobResult, FqError>> = specs
        .iter()
        .map(|spec| spec.to_job().and_then(|job| job.run_cached(&seq_cache)))
        .collect();

    // Bit-identical results and isolated per-job errors, in input order.
    assert_eq!(parallel.len(), sequential.len());
    let mut failures = 0usize;
    for (i, (par, seq)) in parallel.iter().zip(&sequential).enumerate() {
        match (par, seq) {
            (Ok(p), Ok(s)) => assert_eq!(p, s, "job {i}: parallel result diverged"),
            (Err(p), Err(s)) => {
                failures += 1;
                assert_eq!(p, s, "job {i}: parallel error diverged");
            }
            other => panic!("job {i}: ok/err disagreement {other:?}"),
        }
    }
    assert_eq!(failures, 3, "exactly the three smuggled specs fail");
    assert!(
        parallel.iter().filter(|r| r.is_ok()).count() >= 50 - 3,
        "failures must not sink healthy jobs"
    );

    // No duplicate compiles under concurrency: the global transpiler
    // counter, the runner's cache and the sequential reference cache all
    // agree on the number of distinct (shape, device, layers, options)
    // keys.
    assert_eq!(compiled_parallel as usize, runner.templates_compiled());
    assert_eq!(runner.templates_compiled(), seq_cache.len());

    // Exact cache statistics: every successfully planned unit performs
    // one cache lookup (each plan here has a single distinct shape);
    // misses are exactly the distinct keys, the rest are hits.
    let stats = runner.cache_stats();
    let lookups: u64 = specs
        .iter()
        .zip(&sequential)
        .map(|(spec, result)| match result {
            // The smuggled failures never reach a cache lookup: resolve
            // and hotspot selection fail before template compilation.
            Err(_) => 0,
            Ok(_) => planned_units(spec),
        })
        .sum();
    assert_eq!(stats.misses as usize, runner.templates_compiled());
    assert_eq!(stats.hits, lookups - stats.misses);
    assert_eq!(stats.evictions, 0, "unbounded cache never evicts");
    assert_eq!(stats.capacity, None);

    // — LRU bound: replay a slice of the batch through a 2-template
    // cache. Results stay bit-identical; residency respects the bound;
    // evictions happen and are counted.
    let bounded_slice: Vec<JobSpec> = specs[..30].to_vec();
    let bounded = BatchRunner::new().with_threads(3).with_cache_capacity(2);
    let bounded_results = bounded.run(&bounded_slice);
    for (i, (b, s)) in bounded_results.iter().zip(&sequential).enumerate() {
        assert_eq!(
            b.as_ref().unwrap(),
            s.as_ref().unwrap(),
            "job {i}: bounded cache changed a result"
        );
    }
    let bstats = bounded.cache_stats();
    assert!(
        bstats.len <= 2,
        "LRU bound violated: {} resident",
        bstats.len
    );
    assert_eq!(bstats.capacity, Some(2));
    assert!(
        bstats.evictions >= 1,
        "3+ distinct keys through a 2-slot cache must evict"
    );
    assert_eq!(
        bstats.misses - bstats.evictions,
        bstats.len as u64,
        "misses, evictions and residency must reconcile exactly"
    );

    // — Approximate tiers on both backends: each backend picks its own
    // lightcone depth per tier. Seeds repeat, so the runner's tier plan
    // and resolve memos hit; results must still match a sequential run
    // on a fresh cache.
    let mut tier_specs: Vec<JobSpec> = Vec::new();
    for tier in [QosTier::Balanced, QosTier::Fast] {
        for backend in [BackendSpec::Sim, BackendSpec::NoiseModel] {
            for seed in [0, 1, 0, 1] {
                let base = JobBuilder::new()
                    .barabasi_albert(10, 1, 4)
                    .device(DeviceSpec::IbmMontreal)
                    .num_frozen(2)
                    .seed(seed)
                    .tier(tier)
                    .backend(backend);
                tier_specs.push(base.clone().frozen().build().unwrap());
                tier_specs.push(base.compare().build().unwrap());
            }
        }
    }
    let tiered = BatchRunner::new().with_threads(4).run(&tier_specs);
    let tier_cache = TemplateCache::new();
    for (i, (spec, got)) in tier_specs.iter().zip(&tiered).enumerate() {
        let want = spec
            .to_job()
            .and_then(|job| job.run_cached(&tier_cache))
            .unwrap();
        assert_eq!(
            got.as_ref().unwrap(),
            &want,
            "tier job {i}: parallel result diverged"
        );
    }
}
