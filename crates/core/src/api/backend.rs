//! Execution backends: *under which noise model* and *how widely* a
//! plan's branches run.
//!
//! A [`BackendSpec`] picks the physics. Both backends evaluate branches
//! on the in-process statevector/analytic simulator —
//! [`BackendSpec::Sim`] with the paper's per-term lightcone fidelity
//! model, [`BackendSpec::NoiseModel`] with the cheaper global
//! process-fidelity estimate. [`BackendSpec::build`] pairs that choice
//! with an [`ExecutorKind`] into a [`Backend`], plain data that runs or
//! samples one plan. The batch engine calls the same per-branch
//! functions directly, so the two paths cannot diverge.

use fq_optim::par_collect;
use fq_transpile::Device;

use crate::executor::{execute_branch, sample_branch};
use crate::plan::ExecutionPlan;
use crate::{BranchOutcome, BranchSamples, ExecutorKind, FqError, FrozenQubitsConfig};

/// A serializable backend choice for a [`JobSpec`](crate::api::JobSpec).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum BackendSpec {
    /// The statevector simulator with lightcone fidelity modelling
    /// (the paper's methodology; the default).
    #[default]
    Sim,
    /// The statevector simulator with the global process-fidelity noise
    /// model — coarser, cheaper, still fully deterministic.
    NoiseModel,
}

impl BackendSpec {
    /// The wire name.
    #[must_use]
    pub fn name(&self) -> &'static str {
        match self {
            BackendSpec::Sim => "sim",
            BackendSpec::NoiseModel => "noise_model",
        }
    }

    /// Looks a backend up by wire name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<BackendSpec> {
        match name {
            "sim" => Some(BackendSpec::Sim),
            "noise_model" => Some(BackendSpec::NoiseModel),
            _ => None,
        }
    }

    /// Pairs this backend's physics with `executor`'s branch scheduling.
    #[must_use]
    pub fn build(&self, executor: ExecutorKind) -> Backend {
        Backend {
            spec: *self,
            executor,
        }
    }

    /// Refuses a backend without sampling physics. The noise-model
    /// backend's noise model is an expectation-value attenuation, not a
    /// shot distribution, so sampling on it is an error rather than a
    /// silent fall-back to the simulator's trajectories. This one check
    /// backs both the spec refusal rule and every sampled branch, so a
    /// spec smuggled past the builder fails with the same error. The
    /// match is exhaustive on purpose: a new backend does not compile
    /// until it states whether it can sample.
    pub(crate) fn check_sampling(self) -> Result<(), FqError> {
        match self {
            BackendSpec::Sim => Ok(()),
            BackendSpec::NoiseModel => Err(FqError::InvalidConfig(
                "the noise_model backend models expectations, not shot distributions; \
                 use the sim backend for sampling jobs"
                    .into(),
            )),
        }
    }
}

/// A [`BackendSpec`]'s physics scheduled on an [`ExecutorKind`]; built
/// by [`BackendSpec::build`].
///
/// Deterministic: two runs of the same plan with the same config produce
/// identical outcomes under every executor, which is what makes batch
/// results reproducible and cacheable.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Backend {
    /// The physics: which noise estimator evaluates each branch.
    spec: BackendSpec,
    /// The scheduling: how many branches run at once.
    executor: ExecutorKind,
}

impl Backend {
    /// Runs the analytic pipeline for every branch of `plan` — parameter
    /// optimization, ideal and modelled-noisy expectations, EPS and
    /// circuit metrics (the last three from the template's shared noise
    /// tables) — in branch order.
    ///
    /// # Errors
    ///
    /// Propagates the first branch failure (by branch order).
    pub fn run(
        &self,
        plan: &ExecutionPlan,
        device: &Device,
        config: &FrozenQubitsConfig,
    ) -> Result<Vec<BranchOutcome>, FqError> {
        let n = plan.num_branches();
        par_collect(self.executor.threads(n), n, |b| {
            execute_branch(plan, b, device, config, self.spec)
        })
        .into_iter()
        .collect()
    }

    /// Runs the sampling pipeline for every branch of `plan` — parameter
    /// optimization, template instantiation, Monte-Carlo noisy sampling
    /// and decoding (including pruned-partner inference) — in branch
    /// order.
    ///
    /// # Errors
    ///
    /// Propagates the first branch failure (by branch order); every
    /// branch fails on a backend without sampling physics.
    pub fn sample(
        &self,
        plan: &ExecutionPlan,
        device: &Device,
        config: &FrozenQubitsConfig,
        shots: u64,
    ) -> Result<Vec<BranchSamples>, FqError> {
        let n = plan.num_branches();
        par_collect(self.executor.threads(n), n, |b| {
            sample_branch(plan, b, device, config, self.spec, shots)
        })
        .into_iter()
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan_execution;
    use fq_graphs::{gen, to_ising_pm1};

    #[test]
    fn backend_specs_round_trip_names() {
        for spec in [BackendSpec::Sim, BackendSpec::NoiseModel] {
            assert_eq!(BackendSpec::from_name(spec.name()), Some(spec));
            assert_eq!(
                spec.build(ExecutorKind::Sequential).spec.name(),
                spec.name()
            );
        }
        assert_eq!(BackendSpec::from_name("qpu"), None);
    }

    #[test]
    fn noise_model_backend_attenuates_toward_zero() {
        let model = to_ising_pm1(&gen::barabasi_albert(10, 1, 8).unwrap(), 8);
        let device = Device::ibm_montreal();
        let config = FrozenQubitsConfig::default();
        let plan = plan_execution(&model, &device, &config).unwrap();
        let out = BackendSpec::NoiseModel
            .build(ExecutorKind::Sequential)
            .run(&plan, &device, &config)
            .unwrap();
        for o in &out {
            assert!(o.ev_ideal < 0.0);
            assert!(o.ev_noisy > o.ev_ideal, "noise pulls EV toward zero");
            assert!(o.ev_noisy.abs() < o.ev_ideal.abs());
        }
    }
}
