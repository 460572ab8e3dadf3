//! The end-to-end FrozenQubits pipeline (Fig. 4): optimize parameters on
//! the ideal simulator, compile, estimate hardware expectation values, and
//! compare the baseline against freezing `m` hotspots.
//!
//! The pipeline's entry points are the job API in [`crate::api`]:
//! [`JobBuilder`](crate::api::JobBuilder) → [`JobSpec`](crate::api::JobSpec)
//! → [`JobResult`](crate::api::JobResult), executed over the two-phase
//! plan/execute core (one shared template per distinct sub-circuit shape,
//! branches fanned out by the configured executor). This module holds
//! what every branch shares: the parameter optimizers, and the result
//! types with the weighted aggregation that turns branch outcomes into
//! them.

use fq_circuit::qaoa_cnot_count;
use fq_ising::IsingModel;
use fq_optim::{
    grid_axis, grid_scan_2d_coarse_to_fine, grid_scan_2d_rows, nelder_mead, CoarseToFineScan,
    NelderMeadOptions,
};
use fq_sim::analytic::{BetaTrig, P1Row, PreparedP1};
use fq_sim::subsample_couplings;
use fq_transpile::Compiled;
use serde::{Deserialize, Serialize};

use crate::api::ErrorModel;
use crate::executor::BranchOutcome;
use crate::plan::ExecutionPlan;
use crate::{metrics::arg, FqError, QosTier};

/// The widest model multi-layer (`p ≥ 2`) parameter optimization will
/// exactly simulate. Shared by the run-time check in [`optimize_layers`]
/// and the build- and parse-time check of every
/// [`JobSpec`](crate::api::JobSpec) so the two can never drift apart.
/// (Kept below `fq_sim::MAX_STATEVECTOR_QUBITS` for optimizer
/// wall-clock, not statevector memory.)
pub(crate) const MAX_EXACT_OPT_QUBITS: usize = 20;

/// Circuit-level cost metrics of one executed (compiled) circuit.
#[derive(Clone, Copy, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct CircuitMetrics {
    /// Pre-compilation CNOTs (`2·|J|·p`).
    pub logical_cnots: usize,
    /// Post-compilation CNOTs, SWAPs included at cost 3.
    pub compiled_cnots: usize,
    /// Router-inserted SWAPs.
    pub swap_count: usize,
    /// Post-compilation depth.
    pub depth: usize,
    /// Scheduled duration in nanoseconds.
    pub duration_ns: f64,
}

/// Summary of one scheme (baseline, or FrozenQubits at some `m`).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunSummary {
    /// Human-readable label ("baseline", "FQ(m=2)", …).
    pub label: String,
    /// Qubits per executed circuit (`N − m`).
    pub circuit_qubits: usize,
    /// Number of circuits executed (the quantum cost; `2^{m−1}` under
    /// pruning).
    pub circuits_executed: u64,
    /// Mean circuit metrics over the executed circuits.
    pub metrics: CircuitMetrics,
    /// Ideal expectation value at the optimized parameters, aggregated
    /// over the `2^m` sub-spaces.
    pub ev_ideal: f64,
    /// Modelled hardware expectation value, aggregated likewise.
    pub ev_noisy: f64,
    /// Approximation Ratio Gap (Eq. 4); lower is better.
    pub arg: f64,
    /// Mean log-EPS over executed circuits (§6.3).
    pub log_eps: f64,
    /// Optimized `(γ, β)` of the first executed circuit.
    pub params: (f64, f64),
}

/// A baseline-vs-FrozenQubits comparison on one problem instance: the
/// result of a [`JobKind::Compare`](crate::api::JobKind::Compare) job.
///
/// # Example
///
/// ```
/// use frozenqubits::api::{DeviceSpec, JobBuilder};
///
/// let spec = JobBuilder::new()
///     .barabasi_albert(10, 1, 3)
///     .device(DeviceSpec::IbmMontreal)
///     .compare()
///     .build()?;
/// let report = spec.run()?.into_compare()?;
/// // Freezing the hotspot must strictly reduce the executed CNOT count.
/// assert!(report.frozen.metrics.compiled_cnots < report.baseline.metrics.compiled_cnots);
/// # Ok::<(), frozenqubits::FqError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// The standard-QAOA baseline.
    pub baseline: RunSummary,
    /// The FrozenQubits run.
    pub frozen: RunSummary,
    /// Which qubits were frozen, in freeze order.
    pub frozen_qubits: Vec<usize>,
    /// `ARG_baseline / ARG_fq` (the paper's headline improvement factor).
    pub improvement: f64,
}

/// Estimated scan flops above which [`optimize_parameters_prepared`] fans
/// γ rows across threads. Below it (small sub-models, coarse grids) the
/// sequential path wins — and batch-engine workers, which already
/// parallelize across branches, stay single-threaded inside each branch
/// instead of oversubscribing the machine.
const PAR_SCAN_MIN_FLOPS: usize = 2_000_000;

/// Optimizes `(γ, β)` for one p = 1 model by a grid scan refined with
/// Nelder–Mead, minimizing the **ideal** expectation — matching the
/// paper's methodology of determining optimal parameters from simulation
/// (§4.2). It takes an existing [`PreparedP1`], so callers that also
/// need per-term expectations at the optimum (the p = 1 executor paths)
/// gather the model structure **once** and reuse it across the grid
/// scan, the Nelder–Mead refinement, and the final
/// [`PreparedP1::terms_at`] evaluation.
///
/// The scan runs through the 8-wide lane kernel
/// ([`fq_sim::analytic::P1Row::eval_lanes`]) with the β-axis trigonometry
/// precomputed once for all rows, and fans γ rows across
/// [`auto_threads`](crate::auto_threads) threads when the model/grid is
/// large enough to pay for them — all bit-identical to the scalar
/// sequential scan (pinned by tests).
///
/// # Errors
///
/// Propagates analytic-expectation errors (none for well-formed models).
pub fn optimize_parameters_prepared(
    prepared: &PreparedP1<'_>,
    grid_resolution: usize,
) -> Result<(f64, f64), FqError> {
    let model = prepared.model();
    if model.num_couplings() == 0 && model.has_zero_linear_terms() {
        // Constant objective; any angles do.
        return Ok((0.0, 0.0));
    }
    let half_pi = std::f64::consts::FRAC_PI_2;
    let quarter_pi = std::f64::consts::FRAC_PI_4;
    let resolution = grid_resolution.max(5);
    // The β axis is shared by every γ row: its sines are computed once
    // per scan, not once per row (let alone per point).
    let trig = BetaTrig::new(&grid_axis(-quarter_pi, quarter_pi, resolution));
    let threads = if prepared.row_flops(resolution).saturating_mul(resolution) >= PAR_SCAN_MIN_FLOPS
    {
        crate::auto_threads()
    } else {
        1
    };
    let scan = grid_scan_2d_rows(
        threads,
        |g| prepared.row(g),
        |row, _betas, out| row.eval_lanes::<8>(&trig, out),
        (-half_pi, half_pi),
        (-quarter_pi, quarter_pi),
        resolution,
    );
    let (g0, b0) = scan.best_params();
    let polished = nelder_mead(
        |p: &[f64]| prepared.at(p[0], p[1]),
        &[g0, b0],
        &NelderMeadOptions {
            max_evaluations: 400,
            initial_step: 0.05,
            ..NelderMeadOptions::default()
        },
    );
    Ok((polished.best_params[0], polished.best_params[1]))
}

/// Coupling-count floor below which the `fast` tier's term subsample is
/// a no-op: tiny models gain nothing from sparsification, and keeping
/// them whole keeps the located angles trustworthy.
const FAST_MIN_COUPLINGS: usize = 64;

/// Drives both passes of a coarse-to-fine scan through the 8-wide lane
/// kernels, with the β-axis trigonometry computed once per pass. Runs
/// sequentially — the tier scans are small, and single-threading makes
/// the approximate tiers trivially byte-identical across thread counts.
fn coarse_to_fine_rows<'p>(
    row_for: impl Fn(f64) -> P1Row<'p> + Sync,
    coarse_resolution: usize,
    refine_resolution: usize,
) -> CoarseToFineScan {
    let half_pi = std::f64::consts::FRAC_PI_2;
    let quarter_pi = std::f64::consts::FRAC_PI_4;
    grid_scan_2d_coarse_to_fine(
        |gamma_range, beta_range, resolution| {
            let trig = BetaTrig::new(&grid_axis(beta_range.0, beta_range.1, resolution));
            grid_scan_2d_rows(
                1,
                &row_for,
                |row, _betas, out| row.eval_lanes::<8>(&trig, out),
                gamma_range,
                beta_range,
                resolution,
            )
        },
        (-half_pi, half_pi),
        (-quarter_pi, quarter_pi),
        coarse_resolution,
        refine_resolution,
    )
}

/// The approximate-tier counterpart of [`optimize_parameters_prepared`]:
/// the [`ErrorModel`]'s knobs pick the technique, so the knobs a result
/// reports are by construction the knobs that ran.
///
/// * `balanced` — coarse-to-fine lane-kernel scan
///   (`scan_resolution² + refine_resolution²` points) followed by a
///   budget-capped, early-exit Nelder–Mead polish with exact
///   trigonometry;
/// * `fast` — a seeded coupling subsample
///   ([`fq_sim::subsample_couplings`], no-op below
///   [`FAST_MIN_COUPLINGS`]) scanned through the polynomial-trig rows
///   ([`fq_sim::analytic::PreparedP1::row_poly`]), no simplex polish.
///
/// Both run sequentially and are pure functions of `(model, em, seed)`,
/// so approximate results are byte-identical across processes and thread
/// counts. The caller evaluates the located angles **exactly** on the
/// full model afterwards.
///
/// # Errors
///
/// Propagates analytic-expectation errors (none for well-formed models).
pub(crate) fn optimize_parameters_tiered(
    prepared: &PreparedP1<'_>,
    em: &ErrorModel,
    grid_resolution: usize,
    seed: u64,
) -> Result<(f64, f64), FqError> {
    let model = prepared.model();
    if model.num_couplings() == 0 && model.has_zero_linear_terms() {
        // Constant objective; any angles do.
        return Ok((0.0, 0.0));
    }
    match em.tier {
        // Defensive only: `ErrorModel::for_tier` never builds an exact
        // error model, so tier dispatch cannot reach this arm.
        QosTier::Exact => optimize_parameters_prepared(prepared, grid_resolution),
        QosTier::Balanced => {
            let scan = coarse_to_fine_rows(
                |g| prepared.row(g),
                em.scan_resolution,
                em.refine_resolution,
            );
            let (g0, b0) = scan.best_params;
            Ok(polish_parameters_tiered(prepared, em, g0, b0))
        }
        QosTier::Fast => {
            let sub = subsample_couplings(model, em.term_sample_keep, FAST_MIN_COUPLINGS, seed);
            let scan = if sub.num_couplings() == model.num_couplings() {
                // The subsample kept everything — reuse the caller's
                // preparation instead of rebuilding it.
                coarse_to_fine_rows(
                    |g| prepared.row_poly(g),
                    em.scan_resolution,
                    em.refine_resolution,
                )
            } else {
                let sub_prep = PreparedP1::new(&sub);
                coarse_to_fine_rows(
                    |g| sub_prep.row_poly(g),
                    em.scan_resolution,
                    em.refine_resolution,
                )
            };
            Ok(scan.best_params)
        }
    }
}

/// Per-branch polish of the plan-shared tier angles: a budget-capped
/// Nelder–Mead descent on **this branch's** exact `p = 1` landscape,
/// started from the representative branch's optimum. `balanced` runs it
/// (its `optimizer_evals` budget); `fast` sets the budget to zero and
/// keeps the shared angles as-is. This is what keeps parameter sharing
/// inside `balanced`'s tight deviation bound: siblings share the coupling
/// structure, so the shared seed lands in the right basin, and the polish
/// closes the branch-specific gap the differing linear terms open. Pure
/// function of `(prepared, em, seed angles)` — bit-deterministic.
pub(crate) fn polish_parameters_tiered(
    prepared: &PreparedP1<'_>,
    em: &ErrorModel,
    gamma: f64,
    beta: f64,
) -> (f64, f64) {
    if em.optimizer_evals == 0 {
        return (gamma, beta);
    }
    let polished = nelder_mead(
        |p: &[f64]| prepared.at(p[0], p[1]),
        &[gamma, beta],
        &NelderMeadOptions {
            max_evaluations: em.optimizer_evals,
            value_tolerance: 1e-8,
            initial_step: 0.05,
        },
    );
    (polished.best_params[0], polished.best_params[1])
}

/// Optimizes the full `(γ_1..γ_p, β_1..β_p)` vector for a `p`-layer QAOA
/// circuit. The first layer is the `p = 1` optimum in closed form (any
/// width): [`optimize_parameters_prepared`] for the exact path
/// (`em = None`), [`optimize_parameters_tiered`] for an approximate
/// tier. `p ≥ 2` then optimizes the exact statevector expectation (width
/// ≤ [`MAX_EXACT_OPT_QUBITS`]) seeded from that optimum with a linear
/// ramp — the standard multi-layer warm start. The statevector
/// Nelder–Mead runs on 800 evaluations for the exact path and on the
/// tier's smaller budget otherwise (its cost dominates `p ≥ 2` branches,
/// so the budget **is** the tier's speed knob there).
///
/// # Errors
///
/// Returns [`FqError::InvalidConfig`] for `p = 0` or for `p ≥ 2` on
/// models wider than the exact-simulation limit.
pub(crate) fn optimize_layers(
    model: &IsingModel,
    p: usize,
    grid_resolution: usize,
    em: Option<&ErrorModel>,
    seed: u64,
) -> Result<(Vec<f64>, Vec<f64>), FqError> {
    if p == 0 {
        return Err(FqError::InvalidConfig("p must be at least 1".into()));
    }
    let prepared = PreparedP1::new(model);
    let (g1, b1) = match em {
        None => optimize_parameters_prepared(&prepared, grid_resolution)?,
        Some(em) => optimize_parameters_tiered(&prepared, em, grid_resolution, seed)?,
    };
    if p == 1 {
        return Ok((vec![g1], vec![b1]));
    }
    if model.num_vars() > MAX_EXACT_OPT_QUBITS {
        return Err(FqError::InvalidConfig(format!(
            "multi-layer optimization simulates the exact state; {} variables exceed the {MAX_EXACT_OPT_QUBITS}-qubit limit",
            model.num_vars()
        )));
    }
    let max_evaluations = match em.map(|em| em.tier) {
        Some(QosTier::Balanced) => 200,
        Some(QosTier::Fast) => 100,
        Some(QosTier::Exact) | None => 800,
    };
    // Warm start: ramp γ up and β down across layers (INTERP-style).
    let mut x0 = Vec::with_capacity(2 * p);
    for l in 0..p {
        let t = (l as f64 + 1.0) / p as f64;
        x0.push(g1 * t);
    }
    for l in 0..p {
        let t = (l as f64 + 1.0) / p as f64;
        x0.push(b1 * (1.0 - t) + b1 * 0.25 * t);
    }
    let result = nelder_mead(
        |x: &[f64]| {
            let (g, b) = x.split_at(p);
            fq_sim::qaoa_expectation_sv(model, g, b).expect("valid model within width limit")
        },
        &x0,
        &NelderMeadOptions {
            max_evaluations,
            initial_step: 0.08,
            ..NelderMeadOptions::default()
        },
    );
    let (g, b) = result.best_params.split_at(p);
    Ok((g.to_vec(), b.to_vec()))
}

pub(crate) fn metrics_of(model: &IsingModel, layers: usize, compiled: &Compiled) -> CircuitMetrics {
    CircuitMetrics {
        logical_cnots: qaoa_cnot_count(model, layers),
        compiled_cnots: compiled.stats.cnot_count,
        swap_count: compiled.swap_count,
        depth: compiled.stats.depth,
        duration_ns: compiled.schedule.duration_ns,
    }
}

impl CircuitMetrics {
    /// The weighted mean over per-branch metrics, weighting each branch by
    /// its sub-space coverage exactly like the expectation values, with
    /// integer fields rounded to nearest (not truncated).
    #[must_use]
    pub fn weighted_mean(items: &[(CircuitMetrics, f64)]) -> CircuitMetrics {
        let mut w_sum = 0.0f64;
        let mut acc = [0.0f64; 5];
        for (m, w) in items {
            w_sum += w;
            acc[0] += w * m.logical_cnots as f64;
            acc[1] += w * m.compiled_cnots as f64;
            acc[2] += w * m.swap_count as f64;
            acc[3] += w * m.depth as f64;
            acc[4] += w * m.duration_ns;
        }
        if w_sum <= 0.0 {
            return CircuitMetrics::default();
        }
        let round = |v: f64| (v / w_sum).round() as usize;
        CircuitMetrics {
            logical_cnots: round(acc[0]),
            compiled_cnots: round(acc[1]),
            swap_count: round(acc[2]),
            depth: round(acc[3]),
            duration_ns: acc[4] / w_sum,
        }
    }
}

/// Aggregates branch outcomes into a [`RunSummary`], weighting **every**
/// per-branch statistic — expectations, metrics and log-EPS alike — by the
/// branch's sub-space coverage.
pub(crate) fn summarize_outcomes(
    plan: &ExecutionPlan,
    outcomes: &[BranchOutcome],
    label: String,
) -> RunSummary {
    let mut w_sum = 0.0f64;
    let mut ev_ideal_acc = 0.0f64;
    let mut ev_noisy_acc = 0.0f64;
    let mut log_eps_acc = 0.0f64;
    let mut weighted_metrics = Vec::with_capacity(outcomes.len());
    for o in outcomes {
        w_sum += o.weight;
        ev_ideal_acc += o.weight * o.ev_ideal;
        ev_noisy_acc += o.weight * o.ev_noisy;
        log_eps_acc += o.weight * o.log_eps;
        weighted_metrics.push((o.metrics, o.weight));
    }
    let w_sum = w_sum.max(f64::MIN_POSITIVE);
    let ev_ideal = ev_ideal_acc / w_sum;
    let ev_noisy = ev_noisy_acc / w_sum;
    RunSummary {
        label,
        circuit_qubits: plan.branch(0).problem.model().num_vars(),
        circuits_executed: plan.quantum_cost(),
        metrics: CircuitMetrics::weighted_mean(&weighted_metrics),
        ev_ideal,
        ev_noisy,
        arg: arg(ev_ideal, ev_noisy),
        log_eps: log_eps_acc / w_sum,
        params: outcomes.first().map_or((0.0, 0.0), |o| o.params),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Job, JobKind, JobResult};
    use crate::{plan_execution, BackendSpec, ExecutorKind, FrozenQubitsConfig};
    use fq_graphs::{gen, to_ising_pm1};
    use fq_sim::analytic::expectation_p1;
    use fq_transpile::Device;

    fn ba_model(n: usize, seed: u64) -> IsingModel {
        to_ising_pm1(&gen::barabasi_albert(n, 1, seed).unwrap(), seed)
    }

    fn run(model: &IsingModel, config: &FrozenQubitsConfig, kind: JobKind) -> JobResult {
        Job::from_parts(model, &Device::ibm_montreal(), config, kind)
            .run()
            .unwrap()
    }

    #[test]
    fn optimized_parameters_beat_zero() {
        let m = ba_model(10, 1);
        let (g, b) = optimize_parameters_prepared(&PreparedP1::new(&m), 15).unwrap();
        let opt = expectation_p1(&m, g, b).unwrap();
        let zero = expectation_p1(&m, 0.0, 0.0).unwrap();
        assert!(opt < zero - 0.1, "optimized {opt} vs uniform {zero}");
    }

    #[test]
    fn baseline_arg_is_positive_on_noisy_hardware() {
        let m = ba_model(10, 2);
        let s = run(&m, &FrozenQubitsConfig::default(), JobKind::Baseline)
            .into_baseline()
            .unwrap();
        assert!(s.arg > 0.0 && s.arg.is_finite());
        assert!(s.ev_ideal < 0.0, "optimal EV must be negative");
        assert!(s.ev_noisy > s.ev_ideal, "noise pulls EV toward zero");
    }

    #[test]
    fn freezing_reduces_cnots_and_arg() {
        let m = ba_model(12, 3);
        let report = run(&m, &FrozenQubitsConfig::default(), JobKind::Compare)
            .into_compare()
            .unwrap();
        assert!(
            report.frozen.metrics.compiled_cnots < report.baseline.metrics.compiled_cnots,
            "FQ {} vs baseline {}",
            report.frozen.metrics.compiled_cnots,
            report.baseline.metrics.compiled_cnots
        );
        assert!(
            report.frozen.arg < report.baseline.arg,
            "FQ arg {} vs baseline {}",
            report.frozen.arg,
            report.baseline.arg
        );
        assert!(report.improvement > 1.0);
    }

    #[test]
    fn pruning_keeps_quantum_cost_at_one_for_m1() {
        let m = ba_model(10, 4);
        let (s, hotspots) = run(&m, &FrozenQubitsConfig::default(), JobKind::Frozen)
            .into_frozen()
            .unwrap();
        assert_eq!(
            s.circuits_executed, 1,
            "m=1 with pruning executes one circuit"
        );
        assert_eq!(s.circuit_qubits, 9);
        assert_eq!(hotspots.len(), 1);
    }

    #[test]
    fn m2_doubles_quantum_cost() {
        let m = ba_model(10, 5);
        let cfg = FrozenQubitsConfig::with_frozen(2);
        let (s, _) = run(&m, &cfg, JobKind::Frozen).into_frozen().unwrap();
        assert_eq!(s.circuits_executed, 2);
    }

    #[test]
    fn two_layer_qaoa_beats_one_layer_ideally() {
        // More layers can only improve the variationally optimal EV. The
        // single-branch (`m = 0`) plan runs the full problem; its branch
        // outcome carries every layer's angles.
        let m = ba_model(8, 7);
        let device = Device::ibm_montreal();
        let baseline = |layers: usize| -> BranchOutcome {
            let cfg = FrozenQubitsConfig {
                layers,
                ..FrozenQubitsConfig::with_frozen(0)
            };
            let plan = plan_execution(&m, &device, &cfg).unwrap();
            let mut outcomes = BackendSpec::Sim
                .build(ExecutorKind::Sequential)
                .run(&plan, &device, &cfg)
                .unwrap();
            assert_eq!(outcomes.len(), 1);
            outcomes.remove(0)
        };
        let p1 = baseline(1);
        let p2 = baseline(2);
        assert_eq!(p2.gammas.len(), 2);
        assert!(
            p2.ev_ideal <= p1.ev_ideal + 1e-6,
            "p=2 ideal {} must not be worse than p=1 {}",
            p2.ev_ideal,
            p1.ev_ideal
        );
        // But the deeper circuit is noisier per layer: more CNOTs.
        assert!(p2.metrics.compiled_cnots > p1.metrics.compiled_cnots);
    }

    #[test]
    fn multilayer_rejects_wide_models() {
        let m = ba_model(24, 8);
        assert!(matches!(
            optimize_layers(&m, 2, 9, None, 0),
            Err(FqError::InvalidConfig(_))
        ));
        assert!(matches!(
            optimize_layers(&m, 0, 9, None, 0),
            Err(FqError::InvalidConfig(_))
        ));
    }

    #[test]
    fn frozen_ideal_ev_is_at_least_as_good_as_global_optimum_bound() {
        // Sanity: each sub-space optimal EV cannot beat the global minimum.
        let m = ba_model(8, 6);
        let exact = fq_ising::solve::exact_solve(&m).unwrap();
        let (s, _) = run(&m, &FrozenQubitsConfig::default(), JobKind::Frozen)
            .into_frozen()
            .unwrap();
        assert!(s.ev_ideal >= exact.energy - 1e-9);
    }
}
