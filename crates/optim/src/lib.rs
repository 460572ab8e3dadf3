//! Classical optimizers for the QAOA parameter loop (Fig. 1a).
//!
//! QAOA is a variational algorithm: a classical optimizer adjusts the
//! circuit parameters `(γ, β)` from the measured expectation values. This
//! crate provides the derivative-free optimizers used throughout the
//! evaluation:
//!
//! * [`nelder_mead`] — the simplex optimizer that polishes every scan;
//! * [`grid_scan_2d`] — the exhaustive 50×50 `(γ, β)` sweep behind the
//!   optimization-landscape study (Fig. 12), and the oracle the faster
//!   scans are tested against;
//! * [`grid_scan_2d_rows`] — the same grid one γ row at a time, with
//!   per-row hoisting and an optional thread fan-out: the scan that
//!   seeds every exact p = 1 parameter optimization;
//! * [`grid_scan_2d_coarse_to_fine`] — a coarse pass plus a local
//!   refinement, the approximate QoS tiers' loop-perforated scan;
//! * [`par_collect`] — the index-claiming thread pool under the row
//!   scan and the engine's branch and batch fan-out.
//!
//! # Example
//!
//! ```
//! use fq_optim::{nelder_mead, NelderMeadOptions};
//!
//! // Minimize a shifted quadratic bowl.
//! let result = nelder_mead(
//!     |p: &[f64]| (p[0] - 1.0).powi(2) + (p[1] + 2.0).powi(2),
//!     &[0.0, 0.0],
//!     &NelderMeadOptions::default(),
//! );
//! assert!((result.best_params[0] - 1.0).abs() < 1e-4);
//! assert!((result.best_params[1] + 2.0).abs() < 1e-4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod grid;
mod nm;
mod par;

pub use grid::{
    grid_axis, grid_scan_2d, grid_scan_2d_coarse_to_fine, grid_scan_2d_rows, CoarseToFineScan,
    GridScan,
};
pub use nm::{nelder_mead, NelderMeadOptions};
pub use par::par_collect;

use serde::{Deserialize, Serialize};

/// The outcome of an optimization run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct OptimResult {
    /// The best parameter vector found.
    pub best_params: Vec<f64>,
    /// The objective value at [`OptimResult::best_params`].
    pub best_value: f64,
    /// Total number of objective evaluations.
    pub evaluations: usize,
    /// Best-so-far objective value after each evaluation (monotone
    /// non-increasing), for convergence plots.
    pub trace: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_trace_is_monotone() {
        let r = nelder_mead(
            |p: &[f64]| p.iter().map(|x| x * x).sum::<f64>(),
            &[3.0, -2.0, 1.0],
            &NelderMeadOptions::default(),
        );
        assert!(r.trace.windows(2).all(|w| w[1] <= w[0] + 1e-15));
        assert_eq!(r.evaluations, r.trace.len());
    }
}
