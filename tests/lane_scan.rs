//! End-to-end bit-identity of the vectorized landscape scan: the lane
//! kernels + row-parallel scan that `optimize_parameters_prepared` runs
//! must reproduce the scalar point-at-a-time hoisted scan — the previous
//! implementation — bit for bit, at production scale (a Barabási–Albert
//! ±1 model like the benchmark's), for any thread count.

use fq_graphs::{gen, to_ising_pm1};
use fq_ising::IsingModel;
use fq_optim::{grid_axis, grid_scan_2d_rows, GridScan};
use fq_sim::analytic::{BetaTrig, PreparedP1};
use frozenqubits::auto_threads;

const GAMMA: (f64, f64) = (-std::f64::consts::FRAC_PI_2, std::f64::consts::FRAC_PI_2);
const BETA: (f64, f64) = (-std::f64::consts::FRAC_PI_4, std::f64::consts::FRAC_PI_4);

fn bench_model(n: usize, d: usize) -> IsingModel {
    to_ising_pm1(&gen::barabasi_albert(n, d, 11).unwrap(), 11)
}

/// The pre-vectorization scan: scalar `P1Row::at` per point, sequential.
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

/// The vectorized scan as the pipeline runs it: 8-wide lanes, shared
/// β trig, γ rows fanned across `threads`.
fn lane_scan(prepared: &PreparedP1<'_>, resolution: usize, threads: usize) -> GridScan {
    let trig = BetaTrig::new(&grid_axis(BETA.0, BETA.1, resolution));
    grid_scan_2d_rows(
        threads,
        |g| prepared.row(g),
        |row, _betas, out| row.eval_lanes::<8>(&trig, out),
        GAMMA,
        BETA,
        resolution,
    )
}

fn assert_scan_bits_eq(a: &GridScan, b: &GridScan, label: &str) {
    assert_eq!(a.best_index, b.best_index, "{label}: best_index");
    for (ra, rb) in a.values.iter().zip(&b.values) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(ra), bits(rb), "{label}: row values");
    }
}

#[test]
fn vectorized_scan_is_bit_identical_to_scalar_scan_at_scale() {
    let model = bench_model(96, 3);
    let prepared = PreparedP1::new(&model);
    let scalar = scalar_scan(&prepared, 41);
    for threads in [1, 2, 5, auto_threads()] {
        let vectorized = lane_scan(&prepared, 41, threads);
        assert_scan_bits_eq(&scalar, &vectorized, &format!("{threads} threads"));
    }
}

#[test]
fn vectorized_scan_is_bit_identical_on_small_irregular_grids() {
    // Resolutions not divisible by the lane width exercise the β-tail
    // padding; more threads than rows exercises the claim loop.
    let model = bench_model(24, 2);
    let prepared = PreparedP1::new(&model);
    for resolution in [5, 7, 9, 13] {
        let scalar = scalar_scan(&prepared, resolution);
        for threads in [1, 3, 64] {
            let vectorized = lane_scan(&prepared, resolution, threads);
            assert_scan_bits_eq(
                &scalar,
                &vectorized,
                &format!("res {resolution}, {threads} threads"),
            );
        }
    }
}
