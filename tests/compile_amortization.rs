//! The plan/execute acceptance criterion: frozen and sampling jobs with
//! `m ≥ 1` invoke `fq_transpile::compile` exactly **once per distinct
//! sub-circuit shape** — not once per branch — proving the `2^m → 1`
//! compile amortization.
//!
//! `compile_invocations()` is process-global, so this file holds a single
//! test (its own process) and measures deltas with nothing else compiling.
//! (The cross-job batch amortization is asserted the same way in
//! `tests/batch_amortization.rs`.) Every job runs through the job API
//! (`Job::from_parts`), the path every caller takes.

use fq_graphs::{gen, to_ising_pm1};
use fq_ising::IsingModel;
use fq_transpile::{compile_invocations, Device};
use frozenqubits::api::JobResult;
use frozenqubits::{plan_execution, FrozenQubitsConfig, Job, JobKind};

fn run(
    model: &IsingModel,
    device: &Device,
    config: &FrozenQubitsConfig,
    kind: JobKind,
) -> JobResult {
    Job::from_parts(model, device, config, kind).run().unwrap()
}

#[test]
fn one_compile_per_distinct_sub_shape() {
    let device = Device::ibm_montreal();
    let model = to_ising_pm1(&gen::barabasi_albert(12, 1, 9).unwrap(), 9);

    // Frozen jobs: one template regardless of the branch count.
    for m in 1..=3usize {
        let cfg = FrozenQubitsConfig::with_frozen(m);
        let plan = plan_execution(&model, &device, &cfg).unwrap();
        assert_eq!(plan.num_templates(), 1, "m={m}: one distinct sub-shape");

        let before = compile_invocations();
        let (summary, _) = run(&model, &device, &cfg, JobKind::Frozen)
            .into_frozen()
            .unwrap();
        let compiles = compile_invocations() - before;
        assert_eq!(
            compiles, 1,
            "m={m}: {} branches must share one compile",
            summary.circuits_executed
        );
        assert_eq!(summary.circuits_executed, 1 << (m - 1));
    }

    // compare = baseline shape + frozen shape: exactly two compiles.
    let before = compile_invocations();
    run(
        &model,
        &device,
        &FrozenQubitsConfig::with_frozen(3),
        JobKind::Compare,
    );
    assert_eq!(compile_invocations() - before, 2);

    // The sampling solver amortizes identically.
    let small = to_ising_pm1(&gen::barabasi_albert(7, 1, 4).unwrap(), 4);
    let before = compile_invocations();
    run(
        &small,
        &device,
        &FrozenQubitsConfig::with_frozen(3),
        JobKind::Sample { shots: 128 },
    );
    assert_eq!(
        compile_invocations() - before,
        1,
        "4 sampled branches, one compile"
    );
}
