//! Quantum simulation substrate for the FrozenQubits reproduction.
//!
//! The paper measures `EV_ideal` on an ideal simulator and `EV_real` on
//! IBM hardware (Eq. 4), and falls back to an analytical success-
//! probability model at practical scale (§6.3). This crate provides all
//! three roles:
//!
//! * [`Statevector`] — an exact dense simulator (≤ 25 qubits) with
//!   seeded measurement sampling;
//! * [`analytic`] — exact closed-form p = 1 QAOA expectations valid at
//!   **any** width, cross-validated against the statevector;
//! * [`noise`] / [`sample_noisy`] — the hardware stand-in: a fidelity-
//!   product estimator for noisy expectation values and a Monte-Carlo
//!   Pauli-injection sampler, both driven by per-device calibration;
//! * [`eps`] / [`log_eps`] — the Expected Probability of Success metric of
//!   §6.3.
//!
//! Every simulation path is pure data in, pure data out: no interior
//! mutability, no globals, all RNG state seeded and local to a call. All
//! public types are therefore `Send + Sync` (asserted in the test suite),
//! which is what lets the core pipeline fan noisy-expectation and
//! sampling work out across worker threads.
//!
//! # Example
//!
//! ```
//! use fq_ising::IsingModel;
//! use fq_sim::analytic::expectation_p1;
//! use fq_sim::qaoa_expectation_sv;
//!
//! let mut m = IsingModel::new(4);
//! m.set_coupling(0, 1, 1.0)?;
//! m.set_coupling(1, 2, -1.0)?;
//! m.set_coupling(2, 3, 1.0)?;
//! let exact = qaoa_expectation_sv(&m, &[0.4], &[0.8])?;
//! let closed_form = expectation_p1(&m, 0.4, 0.8)?;
//! assert!((exact - closed_form).abs() < 1e-10);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
pub mod approx;
mod complex;
mod eps;
mod error;
mod ideal;
mod mc;
pub mod noise;
mod state;

pub use approx::{cos_poly, sin_poly, subsample_couplings, POLY_TRIG_MAX_ABS_ERROR};
pub use complex::Complex;
pub use eps::{eps, log_eps};
pub use error::SimError;
pub use ideal::{qaoa_expectation_sv, run_circuit};
pub use mc::{sample_noisy, NoisySamplerConfig};
pub use noise::{
    fidelity_model, gate_error_rates, lightcone_fidelities, lightcone_fidelities_truncated,
    noisy_expectation_from_lightcone, noisy_expectation_from_terms, noisy_expectation_lightcone,
    FidelityModel, LightconeFidelity,
};
pub use state::{ising_expectation_from_terms, Statevector, MAX_STATEVECTOR_QUBITS};

#[cfg(test)]
mod thread_safety {
    use super::*;

    /// The noisy-expectation and sampling paths run on executor worker
    /// threads; a non-`Send + Sync` type slipping into the public surface
    /// would silently serialize the pipeline, so pin it at compile time.
    #[test]
    fn public_simulation_types_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Complex>();
        assert_send_sync::<SimError>();
        assert_send_sync::<NoisySamplerConfig>();
        assert_send_sync::<FidelityModel>();
        assert_send_sync::<LightconeFidelity>();
        assert_send_sync::<Statevector>();
    }
}
