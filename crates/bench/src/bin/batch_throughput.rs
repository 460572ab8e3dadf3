//! Batch-engine throughput benchmark: the perf-regression harness behind
//! `BENCH_batch.json`.
//!
//! Builds a mixed multi-family batch of frozen-QAOA jobs, runs it through
//! the flattened jobs×branches `BatchRunner` at 1, 2 and `auto` worker
//! threads (each run on a cold template cache so every configuration pays
//! the same compile bill), verifies the outputs are bit-identical across
//! thread counts, and reports jobs/sec, templates compiled and the
//! speedup over the sequential (1-thread) run. The thread counts take
//! turns within each timing round (1, 2, auto, 1, 2, …), so drift in the
//! host's speed reaches every count alike; each count reports its
//! fastest run, its median and the distance between its quartiles.
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
//! * `FQ_BENCH_ITERS` — timing rounds, one run per thread count each
//!   (default 15).
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
    median_seconds: f64,
    iqr_seconds: f64,
    median_speedup: f64,
}

/// The `p`-quantile of ascending `sorted`, interpolating linearly between
/// neighbouring ranks.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let rank = p * (sorted.len() - 1) as f64;
    let (low, high) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[low] + (sorted[high] - sorted[low]) * (rank - low as f64)
}

fn main() {
    let jobs = env_usize("FQ_BENCH_JOBS", 96);
    let iters = env_usize("FQ_BENCH_ITERS", 15).max(1);
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
    // `times[w]`: one batch time per round at `thread_counts[w]`.
    let mut times: Vec<Vec<f64>> = vec![Vec::with_capacity(iters); thread_counts.len()];
    for _ in 0..iters {
        for (width, &threads) in thread_counts.iter().enumerate() {
            // Each timed run uses a fresh runner: a cold cache per run
            // keeps every thread count paying an identical compile bill.
            let runner = BatchRunner::new().with_threads(threads);
            let t0 = Instant::now();
            let results = runner.run(&specs);
            times[width].push(t0.elapsed().as_secs_f64());
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
    }
    for run in &mut times {
        run.sort_by(f64::total_cmp);
    }
    let (seq_best, seq_median) = (times[0][0], quantile(&times[0], 0.5));
    let points: Vec<Point> = thread_counts
        .iter()
        .zip(&times)
        .map(|(&threads, run)| {
            let (best, median) = (run[0], quantile(run, 0.5));
            Point {
                threads,
                seconds: best,
                jobs_per_sec: jobs as f64 / best,
                speedup: seq_best / best,
                median_seconds: median,
                iqr_seconds: quantile(run, 0.75) - quantile(run, 0.25),
                median_speedup: seq_median / median,
            }
        })
        .collect();
    for p in &points {
        println!(
            "threads={:<3} {:>12} / batch   {:>9.1} jobs/s   speedup {:.2}x   median {} (IQR {})   median speedup {:.2}x",
            p.threads,
            fmt_time(p.seconds),
            p.jobs_per_sec,
            p.speedup,
            fmt_time(p.median_seconds),
            fmt_time(p.iqr_seconds),
            p.median_speedup
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
            "\n    {{\"threads\":{},\"seconds\":{:.6},\"jobs_per_sec\":{:.3},\"speedup_vs_sequential\":{:.3},\
             \"median_seconds\":{:.6},\"iqr_seconds\":{:.6},\"median_speedup_vs_sequential\":{:.3}}}{sep}",
            p.threads,
            p.seconds,
            p.jobs_per_sec,
            p.speedup,
            p.median_seconds,
            p.iqr_seconds,
            p.median_speedup
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
