//! End-to-end sampling tests: the full solve path (partition → optimize →
//! compile → noisy Monte-Carlo sampling → decode → min) recovers exact
//! optima on small instances, the symmetric-partner inference is
//! byte-exact, and sampled result bytes stay pinned. Driven through
//! `JobKind::Sample` jobs.

use fq_graphs::{gen, to_ising_pm1};
use fq_ising::solve::exact_solve;
use fq_ising::{IsingModel, Spin};
use fq_transpile::Device;
use frozenqubits::api::{DeviceSpec, JobBuilder, JobSpec};
use frozenqubits::{FrozenQubitsConfig, Job, JobKind, SolveOutcome};

fn ba(n: usize, seed: u64) -> IsingModel {
    to_ising_pm1(&gen::barabasi_albert(n, 1, seed).unwrap(), seed)
}

/// The sampling path through the job API.
fn solve(
    model: &IsingModel,
    device: &Device,
    cfg: &FrozenQubitsConfig,
    shots: u64,
) -> SolveOutcome {
    Job::from_parts(model, device, cfg, JobKind::Sample { shots })
        .run()
        .unwrap()
        .into_sample()
        .unwrap()
}

#[test]
fn fq_finds_global_optima_across_seeds() {
    let device = Device::ibm_auckland();
    let cfg = FrozenQubitsConfig::default();
    let mut found = 0usize;
    let total = 4;
    for seed in 0..total {
        let model = ba(8, seed as u64 + 20);
        let exact = exact_solve(&model).unwrap();
        let out = solve(&model, &device, &cfg, 4096);
        assert!(out.energy >= exact.energy - 1e-9, "cannot beat the optimum");
        if (out.energy - exact.energy).abs() < 1e-9 {
            found += 1;
        }
    }
    assert!(found >= 3, "found optimum in only {found}/{total} runs");
}

#[test]
fn fq_beats_or_matches_baseline_solution_quality() {
    let device = Device::ibm_toronto(); // the noisiest Falcon preset
    let model = ba(10, 31);
    let baseline_cfg = FrozenQubitsConfig::with_frozen(0);
    let fq_cfg = FrozenQubitsConfig::with_frozen(2);
    let base = solve(&model, &device, &baseline_cfg, 2048);
    let fq = solve(&model, &device, &fq_cfg, 2048);
    assert!(
        fq.energy <= base.energy + 1e-9,
        "FQ {} must not be worse than baseline {}",
        fq.energy,
        base.energy
    );
}

#[test]
fn partner_inference_matches_running_the_partner() {
    // Run the pruned branch explicitly (via Explicit strategy on the
    // mirrored model) and check the inferred distribution's support is the
    // bit-flip of the executed one.
    let model = ba(7, 40);
    let device = Device::ibm_montreal();
    let cfg = FrozenQubitsConfig::default();
    let out = solve(&model, &device, &cfg, 1024);
    let hub = out.frozen_qubits[0];

    // Split the union distribution into the two branches.
    let mut up_count = 0u64;
    let mut down_count = 0u64;
    for (z, c) in out.distribution.iter() {
        match z.spin(hub) {
            Spin::UP => up_count += c,
            _ => down_count += c,
        }
    }
    // Pruning copies the executed branch exactly: equal totals.
    assert_eq!(up_count, down_count);

    // And the flip of each up-branch outcome appears in the down branch
    // with identical multiplicity.
    for (z, c) in out.distribution.iter() {
        if z.spin(hub) == Spin::UP {
            let partner = z.flipped();
            let pc = (out.distribution.probability(&partner)
                * out.distribution.total_shots() as f64)
                .round() as u64;
            assert_eq!(pc, c, "partner multiplicity mismatch for {z}");
        }
    }
}

#[test]
fn asymmetric_models_run_all_branches() {
    let mut model = ba(7, 50);
    model.set_linear(2, 0.8).unwrap();
    let device = Device::ibm_montreal();
    let cfg = FrozenQubitsConfig::with_frozen(2);
    let out = solve(&model, &device, &cfg, 1000);
    // 4 branches × 1000 shots, no partner doubling.
    assert_eq!(out.distribution.total_shots(), 4 * 1000);
}

#[test]
fn energies_reported_match_the_model() {
    let model = ba(8, 60);
    let device = Device::ibm_hanoi();
    let out = solve(&model, &device, &FrozenQubitsConfig::default(), 512);
    assert!((model.energy(&out.best).unwrap() - out.energy).abs() < 1e-9);
}

/// 64-bit FNV-1a, written out so the pinned values below do not depend
/// on any hasher of the program under test.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn core_sampling_spec() -> JobSpec {
    let suite = fq_suite::Suite::load(&fq_suite::corpus_dir(), "core").unwrap();
    suite
        .scenarios
        .iter()
        .find(|s| s.id == "ba-n12-d1-s5-sample")
        .expect("the core corpus has one sampling scenario")
        .to_spec()
        .unwrap()
}

/// The `JobResult::to_json()` bytes of a spread of sampling jobs, pinned
/// by hash: a change to the sampler, the optimizer or the decode that
/// moves any sampled outcome or count fails here.
#[test]
fn sampled_result_bytes_are_pinned() {
    let mut specs: Vec<(&str, JobSpec)> = Vec::new();
    for (label, seed) in [("core seed 0", 0), ("core seed 1", 1), ("core seed 2", 2)] {
        let mut spec = core_sampling_spec();
        spec.config.seed = seed;
        specs.push((label, spec));
    }
    let mut toronto = core_sampling_spec();
    toronto.device = DeviceSpec::IbmToronto;
    specs.push(("core on ibmq_toronto", toronto));

    let mut linear = ba(7, 50);
    linear.set_linear(2, 0.8).unwrap();
    let base = || JobBuilder::new().device(DeviceSpec::IbmMontreal).seed(3);
    let builds = [
        (
            "linear terms, m = 2",
            base().ising(linear).num_frozen(2).sample(512),
        ),
        (
            "p = 2",
            base().barabasi_albert(8, 1, 9).layers(2).sample(256),
        ),
        (
            "1,000 shots",
            base().barabasi_albert(10, 1, 4).sample(1_000),
        ),
        ("8 shots", base().barabasi_albert(10, 1, 4).sample(8)),
    ];
    for (label, builder) in builds {
        specs.push((label, builder.build().unwrap()));
    }

    let hashes: Vec<String> = specs
        .iter()
        .map(|(label, spec)| {
            let bytes = spec.run().unwrap().to_json();
            format!("{label}: {:016x}", fnv1a(bytes.as_bytes()))
        })
        .collect();
    assert_eq!(
        hashes,
        [
            "core seed 0: fa98a05700cbe6a6",
            "core seed 1: 147cc7be0cb1ca0a",
            "core seed 2: 1bca9cd5114c2be2",
            "core on ibmq_toronto: ca5505c3a61a6874",
            "linear terms, m = 2: 355c16cda0ad74a8",
            "p = 2: 2b024ab941edcaf3",
            "1,000 shots: f9c4bd17f7fbde8e",
            "8 shots: e92000bad4f07bad",
        ]
    );
}
