//! Phase 2 of the plan/execute pipeline: running an
//! [`ExecutionPlan`]'s branches.
//!
//! Every branch is an independent job — optimize its `(γ, β)`, then either
//! evaluate the ideal/noisy expectations against the noise tables its
//! template memoizes for all siblings, or angle-edit the template into the
//! branch's executable (no recompilation) and sample the noisy device.
//! A branch makes two run-time choices, both plain data: its
//! [`BackendSpec`] picks the noise estimator, and an [`ExecutorKind`]
//! picks how many branches run at once. Branch jobs never communicate,
//! so they parallelize embarrassingly: [`fq_optim::par_collect`] fans
//! them out across scoped worker threads, and every width produces
//! **bit-identical** outcomes: each branch's arithmetic is
//! self-contained and results are aggregated in branch order.

use fq_circuit::build_qaoa_circuit;
use fq_ising::{OutputDistribution, Spin};
use fq_sim::analytic::{expectation_from_terms_p1, PreparedP1};
use fq_sim::{
    ising_expectation_from_terms, noisy_expectation_from_lightcone, noisy_expectation_from_terms,
    sample_noisy, NoisySamplerConfig,
};
use fq_transpile::Device;

use crate::api::{BackendSpec, ErrorModel};
use crate::pipeline::{optimize_layers, polish_parameters_tiered, CircuitMetrics};
use crate::plan::ExecutionPlan;
use crate::{optimize_parameters_prepared, FqError, FrozenQubitsConfig};

/// Everything measured about one executed branch of a plan.
#[derive(Clone, Debug, PartialEq)]
pub struct BranchOutcome {
    /// Branch index within the plan.
    pub branch: usize,
    /// The branch bitmask (bit `t` set ⇒ frozen qubit `t` is `−1`).
    pub mask: u64,
    /// Aggregation weight (2 when the branch covers a pruned partner).
    pub weight: f64,
    /// Optimized first-layer `(γ_1, β_1)`.
    pub params: (f64, f64),
    /// All optimized γ parameters (one per layer).
    pub gammas: Vec<f64>,
    /// All optimized β parameters (one per layer).
    pub betas: Vec<f64>,
    /// Ideal expectation at the optimized parameters.
    pub ev_ideal: f64,
    /// Modelled noisy expectation at the same parameters.
    pub ev_noisy: f64,
    /// Log-EPS of the branch executable.
    pub log_eps: f64,
    /// Circuit-level cost metrics of the branch executable.
    pub metrics: CircuitMetrics,
}

/// One branch's sampling result, decoded into the parent space.
#[derive(Clone, Debug, PartialEq)]
pub struct BranchSamples {
    /// Branch index within the plan.
    pub branch: usize,
    /// Decoded outcomes of the executed sub-circuit.
    pub decoded: OutputDistribution,
    /// Outcomes inferred for the pruned symmetric partner (§3.7.2), when
    /// the branch covers one.
    pub partner_decoded: Option<OutputDistribution>,
}

/// How many of a job's branches run at once
/// ([`FrozenQubitsConfig::executor`]).
///
/// Scheduling only: every kind produces bit-identical outcomes in branch
/// order. The physics is the job's separate
/// [`BackendSpec`](crate::api::BackendSpec).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum ExecutorKind {
    /// Run branches in order on the caller's thread.
    Sequential,
    /// Fan branches out across all available cores — or across
    /// `FQ_THREADS` workers when that environment variable is set to an
    /// integer ≥ 1 (see [`auto_threads`]). The default: results are
    /// identical to sequential, only faster.
    #[default]
    Parallel,
    /// Fan branches out across a fixed number of worker threads, which
    /// ignores `FQ_THREADS`. `Threads(0)` is automatic: the same width
    /// as [`ExecutorKind::Parallel`].
    Threads(usize),
}

impl ExecutorKind {
    /// The worker count of a pool draining `items` work items — the one
    /// thread rule behind every branch pool: the kind's width, clamped
    /// to the item count so an oversized width never spawns idle
    /// threads, and never below one.
    pub(crate) fn threads(self, items: usize) -> usize {
        let width = match self {
            ExecutorKind::Sequential => 1,
            ExecutorKind::Parallel | ExecutorKind::Threads(0) => auto_threads(),
            ExecutorKind::Threads(t) => t,
        };
        width.min(items).max(1)
    }
}

/// Resolves the automatic worker count used whenever a thread knob is 0:
/// the `FQ_THREADS` environment variable if it parses as an integer ≥ 1
/// (anything else — empty, non-numeric, or `0` — is ignored), otherwise
/// one worker per available core.
///
/// This is the single override point for [`ExecutorKind::Parallel`] and
/// the batch engine's auto mode, so one variable caps every pool in the
/// process — the standard way to pin CI runners or share a box.
#[must_use]
pub fn auto_threads() -> usize {
    if let Ok(raw) = std::env::var("FQ_THREADS") {
        if let Ok(t) = raw.trim().parse::<usize>() {
            if t >= 1 {
                return t;
            }
        }
    }
    std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
}

/// The shared per-branch analytic job: optimize, evaluate against the
/// template's noise tables under `backend`'s estimator. (`pub(crate)`:
/// the batch engine drives branches directly through its flattened
/// jobs×branches pool.)
pub(crate) fn execute_branch(
    plan: &ExecutionPlan,
    branch: usize,
    device: &Device,
    config: &FrozenQubitsConfig,
    backend: BackendSpec,
) -> Result<BranchOutcome, FqError> {
    let exec = plan.branch(branch);
    let model = exec.problem.model();
    let p = plan.layers();
    // The QoS contract: `None` is the exact path (bit-identical to every
    // pre-tier release); `Some(em)` swaps in the approximate optimizer
    // and noise estimator that `em`'s knobs describe.
    let em = ErrorModel::for_tier(config.tier);
    // For p = 1, one structure gather serves the whole branch: the grid
    // scan, the Nelder–Mead refinement, and the final term evaluation.
    let prepared = (p == 1).then(|| PreparedP1::new(model));
    let (gammas, betas) = match (&prepared, em.as_ref()) {
        // The tiers optimize once per plan on the representative branch
        // and share the angles across siblings (the plan memoizes them);
        // `balanced` additionally polishes the shared seed on each
        // branch's own landscape (`fast`'s zero budget skips it); the
        // exact path optimizes every branch from scratch.
        (Some(prep), Some(em)) => {
            let shared = plan.tier_params(em, config)?;
            let (g, b) = polish_parameters_tiered(prep, em, shared.0[0], shared.1[0]);
            (vec![g], vec![b])
        }
        (None, Some(em)) => {
            let shared = plan.tier_params(em, config)?;
            (shared.0.clone(), shared.1.clone())
        }
        (Some(prep), None) => {
            let (g, b) = optimize_parameters_prepared(prep, config.param_grid)?;
            (vec![g], vec![b])
        }
        (None, None) => optimize_layers(model, p, config.param_grid, None, config.seed)?,
    };
    // Every tier reads the template's memoized branch-invariant tables
    // (attenuation, cone fidelities, EPS, metrics) instead of re-deriving
    // them per branch — bit-equal by construction (see `NoiseTables`).
    // Nothing they hold reads an angle, so the analytic path never
    // angle-edits the template; only sampling does. The exact tier walks
    // every cone in full; the approximate tiers truncate at their
    // contract's depth; the process-fidelity model reads no cone, so it
    // asks for the depth-0 tables, whose cones cost one prefix pass.
    let depth = match (backend, em.as_ref()) {
        (BackendSpec::NoiseModel, _) => 0,
        (BackendSpec::Sim, None) => usize::MAX,
        (BackendSpec::Sim, Some(em)) => em.lightcone_depth,
    };
    let tables = plan.template().noise_tables(model, p, device, depth)?;
    // The per-term expectations are computed once; the scalar ideal
    // expectation is assembled from them bit-identically instead of a
    // second full evaluation (the old two-call path recomputed every
    // trigonometric factor).
    let (ev_ideal, z, zz) = if let Some(prep) = &prepared {
        let (z, zz) = prep.terms_at(gammas[0], betas[0]);
        let ev = expectation_from_terms_p1(model, &z, &zz)?;
        (ev, z, zz)
    } else {
        let qc = build_qaoa_circuit(model, p)?;
        let bound = qc.bind(&gammas, &betas)?;
        let sv = fq_sim::run_circuit(&bound)?;
        let (z, zz) = sv.term_expectations(model)?;
        let ev = ising_expectation_from_terms(model, &z, &zz)?;
        (ev, z, zz)
    };
    let ev_noisy = match backend {
        BackendSpec::Sim => {
            noisy_expectation_from_lightcone(model, &z, &zz, &tables.fid, &tables.cones)?
        }
        BackendSpec::NoiseModel => noisy_expectation_from_terms(model, &z, &zz, &tables.fid)?,
    };
    Ok(BranchOutcome {
        branch,
        mask: exec.mask,
        weight: plan.branch_weight(branch),
        params: (gammas[0], betas[0]),
        gammas,
        betas,
        ev_ideal,
        ev_noisy,
        log_eps: tables.eps_log,
        metrics: tables.metrics,
    })
}

/// The shared per-branch sampling job: optimize, instantiate, sample,
/// decode (with pruned-partner inference). A backend without sampling
/// physics is refused before any work.
pub(crate) fn sample_branch(
    plan: &ExecutionPlan,
    branch: usize,
    device: &Device,
    config: &FrozenQubitsConfig,
    backend: BackendSpec,
    shots: u64,
) -> Result<BranchSamples, FqError> {
    backend.check_sampling()?;
    let exec = plan.branch(branch);
    let model = exec.problem.model();
    let (gammas, betas) =
        optimize_layers(model, plan.layers(), config.param_grid, None, config.seed)?;
    let edited = plan.template().edit_for(model)?;
    let bound = edited.circuit.bind(&gammas, &betas)?;
    let compiled = edited.instantiate(bound);
    let sampler = NoisySamplerConfig {
        shots,
        trajectories: 16,
        seed: config.seed.wrapping_add(branch as u64),
    };
    let sub_dist = sample_noisy(&compiled, device, sampler)?;

    let decoded = sub_dist.decode(&exec.problem)?;

    // Infer the pruned partner: flip every sub-space bit, then decode
    // through the partner's frozen assignment (§3.7.2).
    let partner_decoded = if exec.partner_mask.is_some() {
        let partner_assignment: Vec<(usize, Spin)> = exec
            .problem
            .frozen()
            .iter()
            .map(|&(q, s)| (q, s.flipped()))
            .collect();
        let partner = plan.parent_model().freeze(&partner_assignment)?;
        Some(sub_dist.flipped().decode(&partner)?)
    } else {
        None
    };

    Ok(BranchSamples {
        branch,
        decoded,
        partner_decoded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan_execution;
    use fq_graphs::{gen, to_ising_pm1};
    use fq_ising::IsingModel;

    fn ba_model(n: usize, seed: u64) -> IsingModel {
        to_ising_pm1(&gen::barabasi_albert(n, 1, seed).unwrap(), seed)
    }

    #[test]
    fn parallel_matches_sequential_bit_for_bit() {
        let model = ba_model(12, 11);
        let cfg = FrozenQubitsConfig::with_frozen(3);
        let device = Device::ibm_montreal();
        let plan = plan_execution(&model, &device, &cfg).unwrap();
        let run = |kind| BackendSpec::Sim.build(kind).run(&plan, &device, &cfg);
        let seq = run(ExecutorKind::Sequential).unwrap();
        let par = run(ExecutorKind::Parallel).unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq.len(), 4);
        assert!(seq.iter().enumerate().all(|(i, o)| o.branch == i));
    }

    // The branch pool as `Backend::run` sizes it: the executor's thread
    // rule feeding the shared `fq_optim::par_collect`.
    fn branch_pool<T: Send>(n: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
        fq_optim::par_collect(ExecutorKind::Threads(4).threads(n), n, job)
    }

    #[test]
    fn par_collect_preserves_index_order() {
        assert_eq!(
            branch_pool(64, |i| i * 3),
            (0..64).map(|i| i * 3).collect::<Vec<_>>()
        );
        assert_eq!(branch_pool(0, |i| i), Vec::<usize>::new());
    }

    // `Backend::run`'s path: collect every branch's result, then the
    // first error by index wins.
    #[test]
    fn par_map_preserves_order_and_first_error() {
        let ok: Result<Vec<usize>, FqError> = branch_pool(32, |i| Ok(i * i)).into_iter().collect();
        assert_eq!(ok.unwrap(), (0..32).map(|i| i * i).collect::<Vec<_>>());

        let err: Result<Vec<usize>, FqError> = branch_pool(8, |i| {
            if i >= 3 {
                Err(FqError::InvalidConfig(format!("branch {i}")))
            } else {
                Ok(i)
            }
        })
        .into_iter()
        .collect();
        match err {
            Err(FqError::InvalidConfig(msg)) => assert_eq!(msg, "branch 3"),
            other => panic!("expected first error by index, got {other:?}"),
        }
    }

    #[test]
    fn one_thread_rule_sizes_every_pool() {
        assert_eq!(ExecutorKind::Sequential.threads(16), 1);
        assert_eq!(ExecutorKind::Threads(7).threads(2), 2);
        assert_eq!(ExecutorKind::Threads(2).threads(16), 2);
        assert_eq!(ExecutorKind::Threads(3).threads(0), 1);
        assert_eq!(ExecutorKind::Parallel.threads(64), auto_threads().min(64));
        // `Threads(0)` is automatic: the same width as `Parallel`.
        for items in [0, 1, 2, 64] {
            assert_eq!(
                ExecutorKind::Threads(0).threads(items),
                ExecutorKind::Parallel.threads(items)
            );
        }
    }

    // The old `execute_branch` evaluated the ideal expectation twice —
    // once as a scalar, once per term. The single-pass assembly must be
    // bit-identical to that two-call path, at p = 1 and p ≥ 2.
    #[test]
    fn single_pass_ev_matches_the_old_two_call_path() {
        use fq_sim::analytic::expectation_p1;
        let device = Device::ibm_montreal();
        for (p, n) in [(1usize, 12usize), (2, 10)] {
            let parent = ba_model(n, 17);
            let cfg = FrozenQubitsConfig {
                layers: p,
                ..FrozenQubitsConfig::with_frozen(2)
            };
            let plan = plan_execution(&parent, &device, &cfg).unwrap();
            for b in 0..plan.num_branches() {
                let out = execute_branch(&plan, b, &device, &cfg, BackendSpec::Sim).unwrap();
                let model = plan.branch(b).problem.model();
                let old_ev = if p == 1 {
                    expectation_p1(model, out.gammas[0], out.betas[0]).unwrap()
                } else {
                    let qc = build_qaoa_circuit(model, p).unwrap();
                    let bound = qc.bind(&out.gammas, &out.betas).unwrap();
                    fq_sim::run_circuit(&bound)
                        .unwrap()
                        .expectation_ising(model)
                        .unwrap()
                };
                assert_eq!(out.ev_ideal, old_ev, "p={p} branch {b}");
            }
        }
    }

    #[test]
    fn sampling_covers_partner_branches() {
        let model = ba_model(6, 13);
        let cfg = FrozenQubitsConfig::default();
        let device = Device::ibm_montreal();
        let plan = plan_execution(&model, &device, &cfg).unwrap();
        let sample = |kind| {
            BackendSpec::Sim
                .build(kind)
                .sample(&plan, &device, &cfg, 256)
        };
        let seq = sample(ExecutorKind::Sequential).unwrap();
        let par = sample(ExecutorKind::Parallel).unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq.len(), 1, "m=1 pruned executes one branch");
        assert!(seq[0].partner_decoded.is_some());
    }
}
