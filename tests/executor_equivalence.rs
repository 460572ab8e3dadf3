//! Executor equivalence: running branches in parallel must be a pure
//! scheduling change — every job kind has to produce **identical**
//! results under `ExecutorKind::Sequential` and `ExecutorKind::Parallel`,
//! through the job API (`Job::from_parts`) and through a raw plan.

use fq_graphs::{gen, to_ising_pm1};
use fq_ising::IsingModel;
use fq_transpile::Device;
use frozenqubits::api::JobResult;
use frozenqubits::{plan_execution, BackendSpec, ExecutorKind, FrozenQubitsConfig, Job, JobKind};

fn ba(n: usize, seed: u64) -> IsingModel {
    to_ising_pm1(&gen::barabasi_albert(n, 1, seed).unwrap(), seed)
}

fn cfg(m: usize, executor: ExecutorKind) -> FrozenQubitsConfig {
    FrozenQubitsConfig {
        executor,
        ..FrozenQubitsConfig::with_frozen(m)
    }
}

fn run(
    model: &IsingModel,
    device: &Device,
    config: &FrozenQubitsConfig,
    kind: JobKind,
) -> JobResult {
    Job::from_parts(model, device, config, kind).run().unwrap()
}

#[test]
fn run_frozen_is_identical_across_backends_for_m_1_2_3() {
    let device = Device::ibm_montreal();
    for m in 1..=3usize {
        let model = ba(12, 20 + m as u64);
        let frozen = |executor| {
            run(&model, &device, &cfg(m, executor), JobKind::Frozen)
                .into_frozen()
                .unwrap()
        };
        let (seq, seq_hot) = frozen(ExecutorKind::Sequential);
        let (par, par_hot) = frozen(ExecutorKind::Parallel);
        assert_eq!(seq_hot, par_hot, "m={m}: frozen qubits differ");
        // Full RunSummary equality: label, arg, ev_*, metrics, params.
        assert_eq!(seq, par, "m={m}: backends disagree");
        assert_eq!(seq.circuits_executed, 1 << (m - 1));
    }
}

#[test]
fn compare_reports_are_identical_across_backends() {
    let device = Device::ibm_montreal();
    let model = ba(12, 31);
    let compare = |executor| {
        run(&model, &device, &cfg(2, executor), JobKind::Compare)
            .into_compare()
            .unwrap()
    };
    let seq = compare(ExecutorKind::Sequential);
    let par = compare(ExecutorKind::Parallel);
    assert_eq!(seq, par);
    assert!(seq.improvement > 0.0);
}

#[test]
fn raw_executor_outcomes_are_identical_and_ordered() {
    let device = Device::ibm_montreal();
    let model = ba(12, 32);
    let config = cfg(3, ExecutorKind::Parallel);
    let plan = plan_execution(&model, &device, &config).unwrap();
    let run = |kind| BackendSpec::Sim.build(kind).run(&plan, &device, &config);
    let seq = run(ExecutorKind::Sequential).unwrap();
    let par = run(ExecutorKind::Parallel).unwrap();
    assert_eq!(seq, par);
    assert_eq!(seq.len(), 4);
    for (i, outcome) in seq.iter().enumerate() {
        assert_eq!(outcome.branch, i, "outcomes must stay in branch order");
        assert_eq!(outcome.weight, 2.0);
    }
    // A fixed thread count is the same backend, only narrower.
    let two = run(ExecutorKind::Threads(2)).unwrap();
    assert_eq!(seq, two);
}

#[test]
fn sampling_solver_is_identical_across_backends() {
    let device = Device::ibm_montreal();
    let model = ba(8, 33);
    let sample = |executor| {
        run(
            &model,
            &device,
            &cfg(2, executor),
            JobKind::Sample { shots: 512 },
        )
        .into_sample()
        .unwrap()
    };
    let seq = sample(ExecutorKind::Sequential);
    let par = sample(ExecutorKind::Parallel);
    assert_eq!(seq, par);
    assert_eq!(seq.best.len(), 8);
}
