//! Exhaustive 2-D parameter scans — the instrument behind the Fig. 12
//! landscape study, which compares the baseline's blurred landscape with
//! FrozenQubits' sharpened one over a 50×50 `(γ, β)` grid.

use serde::{Deserialize, Serialize};

/// A sampled 2-D objective landscape.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct GridScan {
    /// Scanned γ values (row axis).
    pub gammas: Vec<f64>,
    /// Scanned β values (column axis).
    pub betas: Vec<f64>,
    /// `values[i][j]` = objective at `(gammas[i], betas[j])`.
    pub values: Vec<Vec<f64>>,
    /// Position `(i, j)` of the minimum.
    pub best_index: (usize, usize),
}

impl GridScan {
    /// The minimizing `(γ, β)` pair.
    #[must_use]
    pub fn best_params(&self) -> (f64, f64) {
        (
            self.gammas[self.best_index.0],
            self.betas[self.best_index.1],
        )
    }

    /// The minimum sampled value.
    #[must_use]
    pub fn best_value(&self) -> f64 {
        self.values[self.best_index.0][self.best_index.1]
    }

    /// Landscape contrast: `max − min` over the grid. The paper's Fig. 12
    /// argument is that noise *blurs* the landscape — the baseline's
    /// contrast collapses while FrozenQubits keeps its gradients sharp.
    #[must_use]
    pub fn contrast(&self) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for row in &self.values {
            for &v in row {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        hi - lo
    }
}

/// Scans `f(γ, β)` over an inclusive `resolution × resolution` grid,
/// one call per point — the oracle every faster scan is tested against,
/// and the scan for objectives with no row structure to exploit (the
/// noisy landscapes of Fig. 12).
///
/// # Panics
///
/// Panics if `resolution < 2` or a range is reversed.
///
/// # Example
///
/// ```
/// use fq_optim::grid_scan_2d;
///
/// let scan = grid_scan_2d(|g, b| g * g + (b - 1.0).powi(2), (-1.0, 1.0), (0.0, 2.0), 21);
/// let (g, b) = scan.best_params();
/// assert!(g.abs() < 0.11 && (b - 1.0).abs() < 0.11);
/// ```
pub fn grid_scan_2d(
    mut f: impl FnMut(f64, f64) -> f64,
    gamma_range: (f64, f64),
    beta_range: (f64, f64),
    resolution: usize,
) -> GridScan {
    check_ranges(gamma_range, beta_range);
    let gammas = grid_axis(gamma_range.0, gamma_range.1, resolution);
    let betas = grid_axis(beta_range.0, beta_range.1, resolution);
    let values = gammas
        .iter()
        .map(|&g| betas.iter().map(|&b| f(g, b)).collect())
        .collect();
    assemble(gammas, betas, values)
}

/// The inclusive axis a [`grid_scan_2d`] dimension visits: `resolution`
/// evenly spaced points from `lo` to `hi`, endpoints included — exactly
/// the values the scan evaluates (same arithmetic, bit for bit). Exposed
/// so callers can precompute per-point state, e.g. the β-axis
/// trigonometry shared by every γ row of a lane-kernel scan.
///
/// # Panics
///
/// Panics if `resolution < 2`.
#[must_use]
pub fn grid_axis(lo: f64, hi: f64, resolution: usize) -> Vec<f64> {
    assert!(
        resolution >= 2,
        "grid scan needs at least 2 points per axis"
    );
    (0..resolution)
        .map(|k| lo + (hi - lo) * k as f64 / (resolution - 1) as f64)
        .collect()
}

/// [`grid_scan_2d`] with per-row hoisting and **row-granular**
/// evaluation: `prepare_row` runs **once per γ row**, and `eval_row`
/// receives that row's context, the whole β axis and the row's output
/// slice at once. The QAOA p = 1 objective is the motivating case: all
/// of its trigonometric structure depends on γ only, so a
/// `resolution²` scan collapses to `resolution` row setups
/// (`fq_sim::analytic::PreparedP1::row`) plus vectorized per-β assembly
/// in fixed-width lanes (`fq_sim::analytic::P1Row::eval_lanes`).
///
/// The γ rows share no state, so they fan across up to `threads` OS
/// threads through [`par_collect`](crate::par_collect); `threads <= 1`
/// is a plain sequential loop with no thread overhead. This crate has no
/// ambient thread-count policy; callers pass one in (the pipeline passes
/// `frozenqubits::auto_threads()`, which honors `FQ_THREADS`).
///
/// The grid, visiting order, and strict-improvement tie-breaking are
/// those of [`grid_scan_2d`]: the minimum is reduced sequentially in
/// row-major order after every row is in. For any `eval_row` that writes
/// `out[j] = f(ctx, betas[j])`, the resulting [`GridScan`] equals the
/// point-wise scan bit for bit, for any thread count (pinned by tests).
///
/// `eval_row` is handed `out` zero-filled and must write every element.
///
/// # Panics
///
/// Panics if `resolution < 2` or a range is reversed.
///
/// # Example
///
/// ```
/// use fq_optim::grid_scan_2d_rows;
///
/// // f(γ, β) = exp(γ) · β — hoist the exp out of the β loop.
/// let scan = grid_scan_2d_rows(
///     1,
///     f64::exp,
///     |&eg, betas, out| {
///         for (o, &b) in out.iter_mut().zip(betas) {
///             *o = eg * b;
///         }
///     },
///     (0.0, 1.0),
///     (-1.0, 1.0),
///     11,
/// );
/// assert_eq!(scan.best_params(), (1.0, -1.0));
/// ```
pub fn grid_scan_2d_rows<R>(
    threads: usize,
    prepare_row: impl Fn(f64) -> R + Sync,
    eval_row: impl Fn(&R, &[f64], &mut [f64]) + Sync,
    gamma_range: (f64, f64),
    beta_range: (f64, f64),
    resolution: usize,
) -> GridScan {
    check_ranges(gamma_range, beta_range);
    let gammas = grid_axis(gamma_range.0, gamma_range.1, resolution);
    let betas = grid_axis(beta_range.0, beta_range.1, resolution);
    let values = crate::par_collect(threads, resolution, |i| {
        let ctx = prepare_row(gammas[i]);
        let mut out = vec![0.0f64; resolution];
        eval_row(&ctx, &betas, &mut out);
        out
    });
    assemble(gammas, betas, values)
}

/// The outcome of [`grid_scan_2d_coarse_to_fine`]: the coarse pass, the
/// optional refinement pass, and the winning point across both.
#[derive(Clone, Debug, PartialEq)]
pub struct CoarseToFineScan {
    /// The full-range coarse pass.
    pub coarse: GridScan,
    /// The local refinement pass around the coarse optimum (`None` when
    /// `refine_resolution == 0`).
    pub refine: Option<GridScan>,
    /// The minimizing `(γ, β)` across both passes (coarse wins ties).
    pub best_params: (f64, f64),
    /// The minimum sampled value across both passes.
    pub best_value: f64,
}

impl CoarseToFineScan {
    /// Total objective evaluations spent (the budget the approximate
    /// tiers report in their error model).
    #[must_use]
    pub fn evaluations(&self) -> usize {
        let count = |s: &GridScan| s.gammas.len() * s.betas.len();
        count(&self.coarse) + self.refine.as_ref().map_or(0, count)
    }
}

/// Loop-perforated landscape scan: a coarse full-range pass, then a
/// dense local pass over the ±1-cell neighborhood of the coarse
/// optimum (clamped to the original ranges). This is the approximate
/// QoS tiers' scan — `coarse² + refine²` evaluations instead of the
/// exact path's `resolution²`, trading global grid density for local
/// density exactly where the landscape minimum sits.
///
/// `scan_pass(gamma_range, beta_range, resolution)` runs one full pass:
/// [`grid_scan_2d`] for a point-wise objective, [`grid_scan_2d_rows`]
/// for a row-granular vectorized one (the QAOA p = 1 lane kernels). For
/// passes that evaluate the same objective, the result is the same bit
/// for bit; a deterministic `scan_pass` makes the whole scan
/// deterministic.
///
/// # Panics
///
/// Panics if a range is reversed, or on whatever `scan_pass` itself
/// rejects (the built-in scans need `resolution ≥ 2`, so
/// `refine_resolution == 1` panics; 0 disables refinement).
pub fn grid_scan_2d_coarse_to_fine(
    mut scan_pass: impl FnMut((f64, f64), (f64, f64), usize) -> GridScan,
    gamma_range: (f64, f64),
    beta_range: (f64, f64),
    coarse_resolution: usize,
    refine_resolution: usize,
) -> CoarseToFineScan {
    let coarse = scan_pass(gamma_range, beta_range, coarse_resolution);
    let mut best_params = coarse.best_params();
    let mut best_value = coarse.best_value();
    let refine = (refine_resolution > 0).then(|| {
        let cell = |range: (f64, f64)| (range.1 - range.0) / (coarse_resolution - 1) as f64;
        let window = |center: f64, range: (f64, f64)| {
            let half = cell(range);
            ((center - half).max(range.0), (center + half).min(range.1))
        };
        let refined = scan_pass(
            window(best_params.0, gamma_range),
            window(best_params.1, beta_range),
            refine_resolution,
        );
        if refined.best_value() < best_value {
            best_params = refined.best_params();
            best_value = refined.best_value();
        }
        refined
    });
    CoarseToFineScan {
        coarse,
        refine,
        best_params,
        best_value,
    }
}

fn check_ranges(gamma_range: (f64, f64), beta_range: (f64, f64)) {
    assert!(
        gamma_range.0 <= gamma_range.1 && beta_range.0 <= beta_range.1,
        "ranges must be ascending"
    );
}

/// Row-major strict-minimum reduction — the shared tie-breaking rule of
/// every scan variant (first strict improvement wins).
fn assemble(gammas: Vec<f64>, betas: Vec<f64>, values: Vec<Vec<f64>>) -> GridScan {
    let mut best = (0usize, 0usize, f64::INFINITY);
    for (i, row) in values.iter().enumerate() {
        for (j, &v) in row.iter().enumerate() {
            if v < best.2 {
                best = (i, j, v);
            }
        }
    }
    GridScan {
        gammas,
        betas,
        values,
        best_index: (best.0, best.1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn finds_grid_minimum() {
        let scan = grid_scan_2d(
            |g, b| (g - 0.5).powi(2) + (b + 0.5).powi(2),
            (-1.0, 1.0),
            (-1.0, 1.0),
            41,
        );
        let (g, b) = scan.best_params();
        assert!((g - 0.5).abs() < 0.06);
        assert!((b + 0.5).abs() < 0.06);
        assert_eq!(scan.values.len(), 41);
        assert_eq!(scan.values[0].len(), 41);
    }

    #[test]
    fn contrast_measures_spread() {
        let flat = grid_scan_2d(|_, _| 1.0, (0.0, 1.0), (0.0, 1.0), 5);
        assert_eq!(flat.contrast(), 0.0);
        let bowl = grid_scan_2d(|g, b| g + b, (0.0, 1.0), (0.0, 1.0), 5);
        assert_eq!(bowl.contrast(), 2.0);
    }

    #[test]
    fn hoisted_scan_matches_plain_scan_exactly() {
        let f = |g: f64, b: f64| (g * 3.7).sin() * (b + 0.2).cos() + g * b;
        let plain = grid_scan_2d(f, (-1.5, 1.5), (-0.7, 0.7), 17);
        let rows = AtomicUsize::new(0);
        let hoisted = grid_scan_2d_rows(
            1,
            |g| {
                rows.fetch_add(1, Ordering::Relaxed);
                ((g * 3.7).sin(), g)
            },
            |&(sg, g), betas, out| {
                for (o, &b) in out.iter_mut().zip(betas) {
                    *o = sg * (b + 0.2).cos() + g * b;
                }
            },
            (-1.5, 1.5),
            (-0.7, 0.7),
            17,
        );
        assert_eq!(plain, hoisted, "hoisting must not change a single bit");
        assert_eq!(rows.into_inner(), 17, "one row setup per γ, not per point");
    }

    #[test]
    fn endpoints_are_included() {
        let scan = grid_scan_2d(|g, _| g, (-2.0, 3.0), (0.0, 1.0), 11);
        assert_eq!(scan.gammas[0], -2.0);
        assert_eq!(*scan.gammas.last().unwrap(), 3.0);
    }

    #[test]
    #[should_panic(expected = "at least 2 points")]
    fn tiny_resolution_panics() {
        let _ = grid_scan_2d(|_, _| 0.0, (0.0, 1.0), (0.0, 1.0), 1);
    }

    /// Bitwise equality of two scans, including `−0.0` vs `+0.0` (which
    /// `f64::==` cannot distinguish).
    fn assert_scan_bits_eq(a: &GridScan, b: &GridScan, label: &str) {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&a.gammas), bits(&b.gammas), "{label}: γ axis");
        assert_eq!(bits(&a.betas), bits(&b.betas), "{label}: β axis");
        assert_eq!(a.values.len(), b.values.len(), "{label}: row count");
        for (ra, rb) in a.values.iter().zip(&b.values) {
            assert_eq!(bits(ra), bits(rb), "{label}: row values");
        }
        assert_eq!(a.best_index, b.best_index, "{label}: best index");
    }

    #[test]
    fn grid_axis_matches_scan_axes() {
        let scan = grid_scan_2d(|g, b| g + b, (-1.25, 2.125), (0.375, 0.875), 23);
        let g_axis = grid_axis(-1.25, 2.125, 23);
        let b_axis = grid_axis(0.375, 0.875, 23);
        assert_eq!(scan.gammas, g_axis);
        assert_eq!(scan.betas, b_axis);
        assert_eq!(g_axis[0], -1.25);
        assert_eq!(*g_axis.last().unwrap(), 2.125);
    }

    /// A random ascending range; one in four is zero-width.
    fn arb_range(rng: &mut StdRng) -> (f64, f64) {
        let lo = rng.random_range(-2.0..2.0);
        if rng.random_range(0..4usize) == 0 {
            (lo, lo)
        } else {
            (lo, lo + rng.random_range(0.01..3.0))
        }
    }

    /// Every scan against the point-wise oracle, bit for bit, over 64
    /// seeded cases: random and zero-width ranges, resolution 2 and odd
    /// resolutions, a random objective factored into a per-row context
    /// and a per-β tail, and 1, 2 and more threads than rows. The row
    /// scan must also set each γ row up exactly once, and the
    /// coarse-to-fine driver must reach the same passes and winner
    /// whichever scan runs its passes.
    #[test]
    fn every_scan_matches_the_pointwise_oracle_on_generated_inputs() {
        for case in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(0x5CA7 ^ case);
            let (gr, br) = (arb_range(&mut rng), arb_range(&mut rng));
            let resolution = [2usize, 3, 5, 7, 9, 17][rng.random_range(0..6usize)];
            let refine = [0usize, 2, 5][rng.random_range(0..3usize)];
            let (a, c) = (rng.random_range(-4.0..4.0), rng.random_range(-1.0..1.0));
            let f = |g: f64, b: f64| (g * a).sin() * (b + c).cos() + g * b;
            let label = format!("case {case}: γ {gr:?} β {br:?} res {resolution}");

            let oracle = grid_scan_2d(f, gr, br, resolution);
            let oracle_c2f = grid_scan_2d_coarse_to_fine(
                |g_range, b_range, res| grid_scan_2d(f, g_range, b_range, res),
                gr,
                br,
                resolution,
                refine,
            );
            for threads in [1, 2, resolution + 3] {
                let label = format!("{label}, {threads} threads");
                let row_setups = AtomicUsize::new(0);
                let rows_pass = |g_range, b_range, res| {
                    grid_scan_2d_rows(
                        threads,
                        |g| {
                            row_setups.fetch_add(1, Ordering::Relaxed);
                            ((g * a).sin(), g)
                        },
                        |&(sg, g), betas, out| {
                            for (o, &b) in out.iter_mut().zip(betas) {
                                *o = sg * (b + c).cos() + g * b;
                            }
                        },
                        g_range,
                        b_range,
                        res,
                    )
                };
                assert_scan_bits_eq(&oracle, &rows_pass(gr, br, resolution), &label);
                assert_eq!(
                    row_setups.load(Ordering::Relaxed),
                    resolution,
                    "{label}: one row setup per γ, not per point"
                );

                let c2f = grid_scan_2d_coarse_to_fine(rows_pass, gr, br, resolution, refine);
                assert_scan_bits_eq(&oracle_c2f.coarse, &c2f.coarse, &label);
                match (&oracle_c2f.refine, &c2f.refine) {
                    (Some(a), Some(b)) => assert_scan_bits_eq(a, b, &label),
                    (None, None) => {}
                    _ => panic!("{label}: refinement pass ran on one side only"),
                }
                let bits = |(g, b): (f64, f64)| (g.to_bits(), b.to_bits());
                assert_eq!(
                    bits(oracle_c2f.best_params),
                    bits(c2f.best_params),
                    "{label}"
                );
                assert_eq!(oracle_c2f.best_value.to_bits(), c2f.best_value.to_bits());
            }
        }
    }

    fn test_objective(g: f64, b: f64) -> f64 {
        (g * 3.7).sin() * (b + 0.2).cos() + g * b
    }

    /// [`test_objective`] through the row scan on `threads` threads.
    fn test_objective_rows(
        threads: usize,
        gamma_range: (f64, f64),
        beta_range: (f64, f64),
        resolution: usize,
    ) -> GridScan {
        grid_scan_2d_rows(
            threads,
            |g| g,
            |&g, betas, out| {
                for (o, &b) in out.iter_mut().zip(betas) {
                    *o = test_objective(g, b);
                }
            },
            gamma_range,
            beta_range,
            resolution,
        )
    }

    #[test]
    fn rows_scan_matches_pointwise_scan_exactly() {
        let plain = grid_scan_2d(test_objective, (-1.5, 1.5), (-0.7, 0.7), 17);
        let rows = test_objective_rows(1, (-1.5, 1.5), (-0.7, 0.7), 17);
        assert_scan_bits_eq(&plain, &rows, "rows scan");
    }

    #[test]
    fn parallel_rows_scan_is_bit_identical_for_any_thread_count() {
        let sequential = test_objective_rows(1, (-1.5, 1.5), (-0.7, 0.7), 19);
        for threads in [2, 3, 8, 64] {
            let par = test_objective_rows(threads, (-1.5, 1.5), (-0.7, 0.7), 19);
            assert_scan_bits_eq(&sequential, &par, &format!("{threads} threads"));
        }
    }

    #[test]
    fn rows_eval_receives_the_beta_axis() {
        let expected = grid_axis(-0.7, 0.7, 9);
        let _ = grid_scan_2d_rows(
            1,
            |g| g,
            |_, betas, out| {
                assert_eq!(betas, expected.as_slice());
                assert_eq!(out.len(), betas.len());
            },
            (-1.5, 1.5),
            (-0.7, 0.7),
            9,
        );
    }

    #[test]
    fn coarse_to_fine_refines_toward_the_true_minimum() {
        // Bowl with the minimum off-grid for the coarse pass.
        let f = |g: f64, b: f64| (g - 0.437).powi(2) + (b + 0.291).powi(2);
        let pass = |gr, br, res| grid_scan_2d(f, gr, br, res);
        let scan = grid_scan_2d_coarse_to_fine(pass, (-1.0, 1.0), (-1.0, 1.0), 7, 5);
        assert!(scan.refine.is_some());
        assert_eq!(scan.evaluations(), 7 * 7 + 5 * 5);
        // The refinement must do at least as well as the coarse pass...
        assert!(scan.best_value <= scan.coarse.best_value());
        // ...and land strictly closer than a coarse cell.
        let (g, b) = scan.best_params;
        assert!((g - 0.437).abs() < 2.0 / 6.0);
        assert!((b + 0.291).abs() < 2.0 / 6.0);

        // Refinement disabled: pure coarse pass.
        let coarse_only = grid_scan_2d_coarse_to_fine(pass, (-1.0, 1.0), (-1.0, 1.0), 7, 0);
        assert!(coarse_only.refine.is_none());
        assert_eq!(coarse_only.best_params, coarse_only.coarse.best_params());
        assert_eq!(coarse_only.evaluations(), 49);
    }

    #[test]
    fn coarse_to_fine_with_rows_pass_matches_the_pointwise_driver() {
        let pointwise = grid_scan_2d_coarse_to_fine(
            |gr, br, res| grid_scan_2d(test_objective, gr, br, res),
            (-1.5, 1.5),
            (-0.7, 0.7),
            9,
            5,
        );
        let rows = grid_scan_2d_coarse_to_fine(
            |gr, br, res| test_objective_rows(1, gr, br, res),
            (-1.5, 1.5),
            (-0.7, 0.7),
            9,
            5,
        );
        assert_eq!(pointwise, rows, "same objective, same passes, same bits");
    }

    #[test]
    fn coarse_to_fine_windows_stay_inside_the_ranges() {
        // Minimum at a corner: the refine window must clamp.
        let f = |g: f64, b: f64| g + b;
        let pass = |gr, br, res| grid_scan_2d(f, gr, br, res);
        let scan = grid_scan_2d_coarse_to_fine(pass, (0.0, 1.0), (0.0, 1.0), 5, 5);
        let refined = scan.refine.unwrap();
        assert!(refined.gammas.iter().all(|&g| (0.0..=1.0).contains(&g)));
        assert!(refined.betas.iter().all(|&b| (0.0..=1.0).contains(&b)));
        assert_eq!(scan.best_params, (0.0, 0.0));
    }

    #[test]
    fn parallel_rows_scan_breaks_ties_in_row_major_order() {
        // A constant landscape ties everywhere: row-major reduction must
        // pick (0, 0) regardless of which thread finished first.
        let par = grid_scan_2d_rows(
            4,
            |g| g,
            |_, _, out| out.fill(2.5),
            (0.0, 1.0),
            (0.0, 1.0),
            13,
        );
        assert_eq!(par.best_index, (0, 0));
        assert_eq!(par.best_value(), 2.5);
    }
}
