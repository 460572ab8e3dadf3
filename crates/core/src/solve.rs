//! Sampling-based end-to-end solving: run the (pruned) sub-circuits on the
//! noisy simulator, decode every outcome back to the parent space, and
//! pick the best solution (§3.6) — including the bit-flip inference for
//! pruned partners (§3.7.2).
//!
//! A [`JobKind::Sample`](crate::api::JobKind::Sample) job runs this over
//! the plan/execute core: one shared compiled template per sub-circuit
//! shape, branches sampled on as many threads as the configured
//! [`ExecutorKind`](crate::ExecutorKind) allows. This module holds its
//! result.

use fq_ising::{OutputDistribution, SpinVec};
use serde::{Deserialize, Serialize};

/// The outcome of a sampling run: partition, per-sub-problem parameter
/// optimization, compilation, Monte-Carlo noisy sampling, decoding, and
/// the final `min`.
///
/// A job with `num_frozen = 0` samples the plain QAOA baseline. The
/// statevector width limit applies, so sampling is for small-`N` studies
/// (the analytic job kinds cover every scale).
///
/// # Example
///
/// ```
/// use frozenqubits::api::{DeviceSpec, JobBuilder};
///
/// let spec = JobBuilder::new()
///     .barabasi_albert(8, 1, 1)
///     .device(DeviceSpec::IbmMontreal)
///     .sample(2048)
///     .build()?;
/// let outcome = spec.run()?.into_sample()?;
/// assert_eq!(outcome.best.len(), 8);
/// # Ok::<(), frozenqubits::FqError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SolveOutcome {
    /// The lowest-energy decoded outcome.
    pub best: SpinVec,
    /// Its energy under the parent Hamiltonian.
    pub energy: f64,
    /// The union distribution over the parent variables (decoded
    /// sub-circuit outcomes, including inferred partner outcomes).
    pub distribution: OutputDistribution,
    /// Which qubits were frozen.
    pub frozen_qubits: Vec<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Job, JobKind};
    use crate::FrozenQubitsConfig;
    use fq_graphs::{gen, to_ising_pm1};
    use fq_ising::solve::exact_solve;
    use fq_ising::{IsingModel, Spin};
    use fq_transpile::Device;

    fn model(n: usize, seed: u64) -> IsingModel {
        to_ising_pm1(&gen::barabasi_albert(n, 1, seed).unwrap(), seed)
    }

    fn solve(
        model: &IsingModel,
        device: &Device,
        config: &FrozenQubitsConfig,
        shots: u64,
    ) -> SolveOutcome {
        Job::from_parts(model, device, config, JobKind::Sample { shots })
            .run()
            .unwrap()
            .into_sample()
            .unwrap()
    }

    #[test]
    fn finds_the_global_optimum_on_small_instances() {
        let m = model(8, 7);
        let exact = exact_solve(&m).unwrap();
        let out = solve(
            &m,
            &Device::ibm_auckland(),
            &FrozenQubitsConfig::default(),
            4096,
        );
        assert!(
            (out.energy - exact.energy).abs() < 1e-9,
            "sampled best {} vs exact {}",
            out.energy,
            exact.energy
        );
    }

    #[test]
    fn union_distribution_covers_both_half_spaces() {
        let m = model(6, 9);
        let out = solve(
            &m,
            &Device::ibm_montreal(),
            &FrozenQubitsConfig::default(),
            1024,
        );
        let hotspot = out.frozen_qubits[0];
        let mut saw_up = false;
        let mut saw_down = false;
        for (z, _) in out.distribution.iter() {
            match z.spin(hotspot) {
                Spin::UP => saw_up = true,
                _ => saw_down = true,
            }
        }
        assert!(
            saw_up && saw_down,
            "partner inference must populate both branches"
        );
        // Total shots double via partner inference (m=1, pruned).
        assert_eq!(out.distribution.total_shots(), 2 * 1024);
    }

    #[test]
    fn m0_behaves_like_plain_qaoa() {
        let m = model(6, 11);
        let cfg = FrozenQubitsConfig::with_frozen(0);
        let out = solve(&m, &Device::ibm_montreal(), &cfg, 512);
        assert!(out.frozen_qubits.is_empty());
        assert_eq!(out.distribution.total_shots(), 512);
        assert_eq!(out.best.len(), 6);
    }

    #[test]
    fn deterministic_per_seed() {
        let m = model(6, 13);
        let cfg = FrozenQubitsConfig::default();
        let a = solve(&m, &Device::ibm_montreal(), &cfg, 256);
        let b = solve(&m, &Device::ibm_montreal(), &cfg, 256);
        assert_eq!(a.best, b.best);
        assert_eq!(a.distribution, b.distribution);
    }
}
