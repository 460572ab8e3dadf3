//! Landscape-scan benchmark: the `(γ, β)` grid evaluation that seeds
//! every parameter optimization, timed through the hoisted fast path —
//! the perf-regression harness behind `BENCH_landscape.json`.
//!
//! `optimize_parameters_prepared` evaluates a `resolution²` grid of the
//! p = 1 analytic expectation per sub-problem, with two layered
//! optimizations: `PreparedP1` gathers the model's coupling structure
//! once, and the row scan (`grid_scan_2d_rows`) hoists all γ-only
//! trigonometry out of each β row. `PreparedP1` is structure-of-arrays
//! with interned trig tables and fixed-width lane kernels
//! (`P1Row::eval_lanes`), so this bench also reports a **lanes**
//! dimension: the scalar per-point row evaluator against the 4-wide and
//! 8-wide kernels, all single-threaded so the lane win is measured in
//! isolation from row parallelism. Every variant is asserted
//! **bit-identical** to the naive per-point `expectation_p1` scan before
//! timing — the speedup must stay a pure evaluation-strategy win, never
//! a numerics change.
//!
//! Knobs:
//! * `FQ_BENCH_LANDSCAPE_N` — largest model size (default 96).
//! * `FQ_BENCH_ITERS` — timed iterations per point (default 3; the
//!   minimum is reported).
//!
//! The JSON lands at the workspace root as `BENCH_landscape.json`.

#![forbid(unsafe_code)]

use std::fmt::Write as _;
use std::time::Instant;

use fq_bench::harness::fmt_time;
use fq_graphs::{gen, to_ising_pm1};
use fq_ising::IsingModel;
use fq_optim::{grid_axis, grid_scan_2d, grid_scan_2d_rows, GridScan};
use fq_sim::analytic::{expectation_p1, BetaTrig, PreparedP1};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn ba_model(n: usize, d: usize, seed: u64) -> IsingModel {
    to_ising_pm1(&gen::barabasi_albert(n, d, seed).unwrap(), seed)
}

const GAMMA: (f64, f64) = (-std::f64::consts::FRAC_PI_2, std::f64::consts::FRAC_PI_2);
const BETA: (f64, f64) = (-std::f64::consts::FRAC_PI_4, std::f64::consts::FRAC_PI_4);

/// The scalar fast path as shipped before the lane kernels: prepare,
/// then one prepared row per γ, `P1Row::at` per point. (Preparation
/// inside the timed region — the historical series in
/// `BENCH_landscape.json` is measured this way.)
fn hoisted_scan(model: &IsingModel, resolution: usize) -> GridScan {
    let prepared = PreparedP1::new(model);
    scalar_scan(&prepared, resolution)
}

/// Scan-only scalar path over an existing preparation.
fn scalar_scan(prepared: &PreparedP1<'_>, resolution: usize) -> GridScan {
    grid_scan_2d_rows(
        1,
        |g| prepared.row(g),
        |row, betas, out| {
            for (o, &b) in out.iter_mut().zip(betas) {
                *o = row.at(b);
            }
        },
        GAMMA,
        BETA,
        resolution,
    )
}

/// Scan-only lane path: same rows, β points evaluated `W` at a time with
/// the β-axis trig shared across all rows.
///
/// The `lanes` dimension times the *scan* over an existing
/// [`PreparedP1`] — in production (`optimize_parameters_prepared`) one
/// preparation is shared across the grid scan, the Nelder–Mead
/// refinement (~400 more evaluations) and the final per-term pass, so
/// the scan is what the lane kernels actually accelerate. Scalar and
/// lane variants are timed under the same rule, apples to apples.
fn lane_scan<const W: usize>(prepared: &PreparedP1<'_>, resolution: usize) -> GridScan {
    let trig = BetaTrig::new(&grid_axis(BETA.0, BETA.1, resolution));
    grid_scan_2d_rows(
        1,
        |g| prepared.row(g),
        |row, _betas, out| row.eval_lanes::<W>(&trig, out),
        GAMMA,
        BETA,
        resolution,
    )
}

fn naive_scan(model: &IsingModel, resolution: usize) -> GridScan {
    grid_scan_2d(
        |g, b| expectation_p1(model, g, b).expect("well-formed model"),
        GAMMA,
        BETA,
        resolution,
    )
}

/// Bitwise scan equality — `GridScan::==` compares `f64`s, which would
/// let a `−0.0`/`+0.0` divergence slip through.
fn assert_scan_bits_eq(a: &GridScan, b: &GridScan, label: &str) {
    assert_eq!(a.best_index, b.best_index, "{label}: best_index diverged");
    for (ra, rb) in a.values.iter().zip(&b.values) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(ra), bits(rb), "{label} changed numerics");
    }
}

fn min_time<T>(iters: usize, mut run: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        let out = run();
        best = best.min(t0.elapsed().as_secs_f64());
        std::hint::black_box(out);
    }
    best
}

struct Point {
    n: usize,
    d: usize,
    resolution: usize,
    hoisted_seconds: f64,
    naive_seconds: f64,
    points_per_sec: f64,
    speedup: f64,
    prep_seconds: f64,
    scalar_pts_per_sec: f64,
    w4_pts_per_sec: f64,
    w8_pts_per_sec: f64,
    w8_speedup_vs_scalar: f64,
}

fn main() {
    let max_n = env_usize("FQ_BENCH_LANDSCAPE_N", 96);
    let iters = env_usize("FQ_BENCH_ITERS", 3).max(1);
    let sizes: Vec<(usize, usize)> = [(24usize, 1usize), (48, 2), (96, 3)]
        .into_iter()
        .filter(|&(n, _)| n <= max_n)
        .collect();
    let resolutions = [41usize, 81];

    println!("== landscape scan: hoisted (γ, β) grid evaluation ==");
    println!("sizes: {sizes:?}   resolutions: {resolutions:?}   iters: {iters}");

    let mut points = Vec::new();
    for &(n, d) in &sizes {
        let model = ba_model(n, d, 11);
        for &resolution in &resolutions {
            // Correctness first: the hoisted path and every lane width
            // must be bit-identical to evaluating expectation_p1 per
            // grid point.
            let prepared = PreparedP1::new(&model);
            let naive = naive_scan(&model, resolution);
            assert_scan_bits_eq(&naive, &hoisted_scan(&model, resolution), "hoisting");
            assert_scan_bits_eq(
                &naive,
                &scalar_scan(&prepared, resolution),
                "scan-only scalar",
            );
            assert_scan_bits_eq(
                &naive,
                &lane_scan::<4>(&prepared, resolution),
                "4-wide lanes",
            );
            assert_scan_bits_eq(
                &naive,
                &lane_scan::<8>(&prepared, resolution),
                "8-wide lanes",
            );

            let hoisted_best = min_time(iters, || hoisted_scan(&model, resolution));
            let prep_best = min_time(iters, || PreparedP1::new(&model));
            let scalar_best = min_time(iters, || scalar_scan(&prepared, resolution));
            let w4_best = min_time(iters, || lane_scan::<4>(&prepared, resolution));
            let w8_best = min_time(iters, || lane_scan::<8>(&prepared, resolution));
            let naive_best = min_time(iters, || naive_scan(&model, resolution));

            let grid_points = (resolution * resolution) as f64;
            let point = Point {
                n,
                d,
                resolution,
                hoisted_seconds: hoisted_best,
                naive_seconds: naive_best,
                points_per_sec: grid_points / hoisted_best,
                speedup: naive_best / hoisted_best,
                prep_seconds: prep_best,
                scalar_pts_per_sec: grid_points / scalar_best,
                w4_pts_per_sec: grid_points / w4_best,
                w8_pts_per_sec: grid_points / w8_best,
                w8_speedup_vs_scalar: scalar_best / w8_best,
            };
            println!(
                "n={n:<4} d_BA={d} res={resolution:<4} hoisted {:>10}   naive {:>10}   {:>12.0} pts/s   speedup {:.2}x",
                fmt_time(point.hoisted_seconds),
                fmt_time(point.naive_seconds),
                point.points_per_sec,
                point.speedup
            );
            println!(
                "    lanes: scalar {:>12.0} pts/s   w4 {:>12.0} pts/s   w8 {:>12.0} pts/s   w8/scalar {:.2}x",
                point.scalar_pts_per_sec,
                point.w4_pts_per_sec,
                point.w8_pts_per_sec,
                point.w8_speedup_vs_scalar
            );
            points.push(point);
        }
    }

    let mut rows = String::new();
    for (i, p) in points.iter().enumerate() {
        let sep = if i + 1 < points.len() { "," } else { "" };
        let _ = write!(
            rows,
            "\n    {{\"n\":{},\"d\":{},\"resolution\":{},\"hoisted_seconds\":{:.6},\"naive_seconds\":{:.6},\"points_per_sec\":{:.1},\"speedup_vs_naive\":{:.3},\
             \"prep_seconds\":{:.6},\
             \"lanes\":{{\"scalar_pts_per_sec\":{:.1},\"w4_pts_per_sec\":{:.1},\"w8_pts_per_sec\":{:.1},\"w8_speedup_vs_scalar\":{:.3}}}}}{sep}",
            p.n,
            p.d,
            p.resolution,
            p.hoisted_seconds,
            p.naive_seconds,
            p.points_per_sec,
            p.speedup,
            p.prep_seconds,
            p.scalar_pts_per_sec,
            p.w4_pts_per_sec,
            p.w8_pts_per_sec,
            p.w8_speedup_vs_scalar
        );
    }
    let json = format!(
        "{{\n  \"bench\": \"landscape_scan\",\n  \"iters\": {iters},\n  \"gamma_range\": \"[-pi/2, pi/2]\",\n  \
         \"beta_range\": \"[-pi/4, pi/4]\",\n  \"points\": [{rows}\n  ],\n  \
         \"note\": \"all variants asserted bit-identical to the naive scan before timing; hoisted_seconds includes model preparation (historical series); the lanes dimension times the scan over an existing PreparedP1 (preparation is amortized across scan+refinement+terms in production, reported as prep_seconds) and is single-threaded to isolate the lane-kernel win\"\n}}\n"
    );
    let path =
        std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_landscape.json");
    std::fs::write(&path, &json).expect("can write BENCH_landscape.json");
    println!("  -> wrote {}", path.display());
}
