//! Batch-engine throughput benchmark: the perf-regression harness behind
//! `BENCH_batch.json`.
//!
//! Builds a mixed multi-family batch of frozen-QAOA jobs, runs it through
//! the flattened jobs×branches `BatchRunner` at 1, 2 and `auto` worker
//! threads (each run on a cold template cache so every configuration pays
//! the same compile bill), verifies the outputs are bit-identical across
//! thread counts, and reports jobs/sec, templates compiled and the
//! speedup over the sequential (1-thread) run.
//!
//! It then measures **cold vs. warm start** through a disk-spill store:
//! one runner populates a fresh `--cache-dir`-style directory, a second
//! "restarted" runner replays the batch from it — asserting zero new
//! `compile_invocations()` and byte-identical results — quantifying
//! exactly what disk warm-start saves.
//!
//! Knobs:
//! * `FQ_BENCH_JOBS` — job count (default 96; CI smoke uses a small
//!   value).
//! * `FQ_BENCH_ITERS` — timed iterations per thread count (default 3;
//!   the minimum is reported, standard practice for throughput numbers).
//!
//! The JSON lands at the workspace root as `BENCH_batch.json`, where the
//! perf trajectory across PRs accumulates (machine-readable, append-style
//! via version control history rather than in-file concatenation).

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::time::Instant;

use fq_bench::harness::fmt_time;
use frozenqubits::api::{BatchRunner, JobSpec};
use frozenqubits::{auto_threads, FqError, JobResult, QosTier};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// A mixed batch cycling the job-family templates of the
/// `bench-batch` scenario suite (`suites/bench-batch.json`, the single
/// source of these families) with per-job pipeline seeds: most jobs
/// are small multi-branch sweep members (the service workload the
/// engine targets), a slice are full compare reports.
fn batch(jobs: usize) -> Vec<JobSpec> {
    batch_tiered(jobs, QosTier::Exact)
}

/// The same mixed batch with every job pinned to one QoS tier — the
/// corpus the per-tier throughput section compares across tiers.
fn batch_tiered(jobs: usize, tier: QosTier) -> Vec<JobSpec> {
    let suite = fq_suite::Suite::load(&fq_suite::corpus_dir(), "bench-batch")
        .expect("bench-batch suite in the corpus");
    let families = &suite.scenarios;
    (0..jobs)
        .map(|i| {
            let mut scenario = families[i % families.len()].clone();
            scenario.seed = i as u64;
            scenario.tier = tier;
            scenario.to_spec().expect("valid bench spec")
        })
        .collect()
}

struct Point {
    threads: usize,
    seconds: f64,
    jobs_per_sec: f64,
    speedup: f64,
}

fn main() {
    let jobs = env_usize("FQ_BENCH_JOBS", 96);
    let iters = env_usize("FQ_BENCH_ITERS", 3).max(1);
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let auto = auto_threads();
    let specs = batch(jobs);

    // Branch items the flattened pool sees (compare jobs contribute both
    // passes' branches).
    println!("== batch throughput: flattened jobs×branches engine ==");
    println!("jobs: {jobs}   cores: {cores}   auto threads: {auto}   iters: {iters}");

    let mut thread_counts = vec![1usize, 2];
    if auto > 2 {
        thread_counts.push(auto);
    }

    let mut reference: Option<Vec<Result<JobResult, FqError>>> = None;
    let mut templates = 0usize;
    let mut points: Vec<Point> = Vec::new();
    let mut seq_seconds = 0.0f64;
    for &threads in &thread_counts {
        // Each timed run uses a fresh runner: a cold cache per iteration
        // keeps every thread count paying an identical compile bill.
        let mut best = f64::INFINITY;
        for _ in 0..iters {
            let runner = BatchRunner::new().with_threads(threads);
            let t0 = Instant::now();
            let results = runner.run(&specs);
            let dt = t0.elapsed().as_secs_f64();
            best = best.min(dt);
            templates = runner.templates_compiled();
            match &reference {
                None => reference = Some(results),
                Some(reference) => {
                    // The engine's core guarantee: scheduling never leaks
                    // into results.
                    assert_eq!(
                        reference.len(),
                        results.len(),
                        "thread count changed batch shape"
                    );
                    for (r, s) in reference.iter().zip(&results) {
                        assert_eq!(
                            r.as_ref().unwrap(),
                            s.as_ref().unwrap(),
                            "{threads}-thread run diverged from sequential"
                        );
                    }
                }
            }
        }
        if threads == 1 {
            seq_seconds = best;
        }
        points.push(Point {
            threads,
            seconds: best,
            jobs_per_sec: jobs as f64 / best,
            speedup: seq_seconds / best,
        });
        let p = points.last().expect("just pushed");
        println!(
            "threads={threads:<3} {:>12} / batch   {:>9.1} jobs/s   speedup {:.2}x",
            fmt_time(p.seconds),
            p.jobs_per_sec,
            p.speedup
        );
    }
    println!("templates compiled per cold run: {templates}");

    // — Cold vs. warm start through a disk-spill store: what does a
    // restart cost with and without `--cache-dir`?
    let cache_dir = std::env::temp_dir().join(format!("fq-bench-warm-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cache_dir);
    let cold_runner = BatchRunner::new()
        .with_cache_dir(&cache_dir)
        .expect("temp cache dir");
    let t0 = Instant::now();
    let cold_results = cold_runner.run(&specs);
    let cold_seconds = t0.elapsed().as_secs_f64();

    let warm_runner = BatchRunner::new()
        .with_cache_dir(&cache_dir)
        .expect("temp cache dir");
    let before = fq_transpile::compile_invocations();
    let t0 = Instant::now();
    let warm_results = warm_runner.run(&specs);
    let warm_seconds = t0.elapsed().as_secs_f64();
    let warm_compiles = fq_transpile::compile_invocations() - before;
    assert_eq!(
        warm_compiles, 0,
        "the restarted runner must serve every template from disk"
    );
    for (c, w) in cold_results.iter().zip(&warm_results) {
        assert_eq!(
            c.as_ref().unwrap(),
            w.as_ref().unwrap(),
            "warm results diverged from cold"
        );
    }
    let warm_speedup = cold_seconds / warm_seconds;
    println!(
        "warm start: cold {:>10}   warm {:>10}   speedup {warm_speedup:.2}x   (0 compiles on the warm run)",
        fmt_time(cold_seconds),
        fmt_time(warm_seconds)
    );
    let _ = std::fs::remove_dir_all(&cache_dir);

    // — QoS tiers: the accuracy/speed contract measured on the same
    // corpus. Warm cache (tiers share compiled templates) and a single
    // worker, so the ratio isolates per-job compute, not compile or
    // scheduling effects.
    println!("== QoS tiers (warm cache, 1 thread) ==");
    let mut tier_rows = String::new();
    let mut exact_seconds = f64::NAN;
    for (i, &tier) in QosTier::ALL.iter().enumerate() {
        let specs_t = batch_tiered(jobs, tier);
        let runner = BatchRunner::new().with_threads(1);
        let warmup = runner.run(&specs_t);
        assert!(
            warmup.iter().all(Result::is_ok),
            "{} batch runs",
            tier.name()
        );
        let mut best = f64::INFINITY;
        for _ in 0..iters {
            let t0 = Instant::now();
            let results = runner.run(&specs_t);
            let dt = t0.elapsed().as_secs_f64();
            best = best.min(dt);
            assert_eq!(results.len(), jobs);
        }
        if tier == QosTier::Exact {
            exact_seconds = best;
        }
        let tier_speedup = exact_seconds / best;
        println!(
            "tier={:<9} {:>12} / batch   {:>9.1} jobs/s   speedup vs exact {:.2}x",
            tier.name(),
            fmt_time(best),
            jobs as f64 / best,
            tier_speedup
        );
        let sep = if i + 1 < QosTier::ALL.len() { "," } else { "" };
        let _ = write!(
            tier_rows,
            "\n    {{\"tier\":\"{}\",\"seconds\":{:.6},\"jobs_per_sec\":{:.3},\"speedup_vs_exact\":{:.3}}}{sep}",
            tier.name(),
            best,
            jobs as f64 / best,
            tier_speedup
        );
    }

    let max_speedup = points.iter().map(|p| p.speedup).fold(0.0f64, f64::max);
    let mut rows = String::new();
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 < points.len() { "," } else { "" };
        let _ = write!(
            rows,
            "\n    {{\"threads\":{},\"seconds\":{:.6},\"jobs_per_sec\":{:.3},\"speedup_vs_sequential\":{:.3}}}{sep}",
            p.threads, p.seconds, p.jobs_per_sec, p.speedup
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"batch_throughput\",\n  \"jobs\": {jobs},\n  \"iters\": {iters},\n  \
         \"cores\": {cores},\n  \"templates_compiled\": {templates},\n  \
         \"max_speedup_vs_sequential\": {max_speedup:.3},\n  \"points\": [{rows}\n  ],\n  \
         \"tiers\": [{tier_rows}\n  ],\n  \
         \"warm_start\": {{\"cold_seconds\":{cold_seconds:.6},\"warm_seconds\":{warm_seconds:.6},\
         \"speedup\":{warm_speedup:.3},\"warm_compiles\":0}},\n  \
         \"note\": \"speedup scales with available cores; a single-core runner reports ~1.0\"\n}}\n"
    );
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_batch.json");
    std::fs::write(&path, &json).expect("can write BENCH_batch.json");
    println!("  -> wrote {}", path.display());
}
