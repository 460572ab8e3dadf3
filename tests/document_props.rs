//! Generated round trips of the documents the engine and the template
//! store write: every template artifact a plan compiles and every
//! [`JobResult`] kind and tier survive `from_json(to_json(d))` as an
//! equal value that writes the same bytes again, and each artifact sits
//! at the fingerprint [`JobSpec::unit_fingerprints`] predicts for its
//! unit.
//!
//! The offline build has no `proptest`, so each property runs over
//! seeded random cases, as in `tests/spec_props.rs`: Barabási–Albert
//! (`d ∈ {1, 2}`) and 3-regular problems on the IBM presets, every
//! `LayoutStrategy` × `optimize` × `p ∈ {1, 2}` for the artifacts, and
//! every job kind and tier for the results.

use std::collections::BTreeSet;

use fq_graphs::gen;
use fq_transpile::{CompileOptions, LayoutStrategy};
use frozenqubits::api::{
    BackendSpec, BatchRunner, DeviceSpec, GraphWeighting, JobBuilder, JobKind, JobSpec, ProblemSpec,
};
use frozenqubits::{FrozenQubitsConfig, JobResult, QosTier, TemplateArtifact};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// The presets a generated job runs on: every IBM device model.
const PRESETS: [DeviceSpec; 8] = [
    DeviceSpec::IbmMontreal,
    DeviceSpec::IbmToronto,
    DeviceSpec::IbmMumbai,
    DeviceSpec::IbmAuckland,
    DeviceSpec::IbmHanoi,
    DeviceSpec::IbmCairo,
    DeviceSpec::IbmBrooklyn,
    DeviceSpec::IbmWashington,
];

/// A BA problem (`d ∈ {1, 2}`) or a ±1-weighted 3-regular graph, of
/// 6 to `max_n` variables.
fn arb_problem(rng: &mut StdRng, max_n: usize) -> ProblemSpec {
    let seed = rng.random();
    if rng.random() {
        ProblemSpec::BarabasiAlbert {
            n: rng.random_range(6..=max_n),
            d: rng.random_range(1..=2usize),
            seed,
        }
    } else {
        let n = 2 * rng.random_range(3..=max_n / 2);
        let graph = gen::random_regular(n, 3, seed).expect("3-regular graph");
        ProblemSpec::Graph {
            num_nodes: n,
            edges: graph.edges().to_vec(),
            weighting: GraphWeighting::Pm1 { seed },
        }
    }
}

fn build(
    problem: &ProblemSpec,
    device: DeviceSpec,
    config: FrozenQubitsConfig,
    kind: JobKind,
) -> JobSpec {
    let builder = JobBuilder::new()
        .problem(problem.clone())
        .device(device)
        .config(config);
    match kind {
        JobKind::Baseline => builder.baseline(),
        JobKind::Frozen => builder.frozen(),
        JobKind::Compare => builder.compare(),
        JobKind::Sample { shots } => builder.sample(shots),
        other => panic!("unexpected job kind {other:?}"),
    }
    .build()
    .expect("generated spec passes the refusal rules")
}

/// Every template a compare job compiles, read back from the runner's
/// store, is a byte-stable artifact at a predicted fingerprint.
#[test]
fn template_artifacts_round_trip_at_their_predicted_fingerprints() {
    let mut artifacts = 0usize;
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(0xA7_1F ^ case);
        let problem = arb_problem(&mut rng, 10);
        let device = PRESETS[rng.random_range(0..PRESETS.len())];
        let num_frozen = rng.random_range(0..=3usize);
        for layout in [LayoutStrategy::Trivial, LayoutStrategy::NoiseAdaptive] {
            for optimize in [false, true] {
                for layers in [1usize, 2] {
                    // The fast tier optimizes once per plan: the
                    // artifacts, not the optimizer, are under test.
                    let config = FrozenQubitsConfig {
                        num_frozen,
                        layers,
                        compile: CompileOptions { layout, optimize },
                        param_grid: 5,
                        tier: QosTier::Fast,
                        ..FrozenQubitsConfig::default()
                    };
                    let spec = build(&problem, device, config, JobKind::Compare);
                    let runner = BatchRunner::new().with_threads(1);
                    runner.run_all(std::slice::from_ref(&spec)).unwrap();

                    let predicted: BTreeSet<String> =
                        spec.unit_fingerprints().unwrap().into_iter().collect();
                    let index = runner.cache().index();
                    let stored: BTreeSet<String> =
                        index.iter().map(|e| e.fingerprint.clone()).collect();
                    assert_eq!(stored, predicted, "case {case}: {}", spec.to_json());
                    for entry in &index {
                        let artifact = runner.cache().artifact(&entry.fingerprint).unwrap();
                        assert_eq!(artifact.fingerprint(), entry.fingerprint);
                        let text = artifact.to_json();
                        let back = TemplateArtifact::from_json(&text).unwrap();
                        assert_eq!(back, artifact, "case {case}");
                        assert_eq!(back.to_json(), text, "case {case}: byte-for-byte");
                        artifacts += 1;
                    }
                }
            }
        }
    }
    assert!(artifacts >= 12 * 8, "{artifacts} artifacts checked");
}

/// Every kind and tier of result the engine writes reads back equal and
/// writes the same bytes again.
#[test]
fn job_results_round_trip_for_every_kind_and_tier() {
    let runner = BatchRunner::new().with_threads(1);
    let mut combos = BTreeSet::new();
    for case in 0..36u64 {
        let mut rng = StdRng::seed_from_u64(0x2E_5B ^ case);
        let kind = match case % 4 {
            0 => JobKind::Baseline,
            1 => JobKind::Frozen,
            2 => JobKind::Compare,
            _ => JobKind::Sample {
                shots: rng.random_range(1..=256u64),
            },
        };
        // Sampling is exact end to end; the tiers apply to analytic jobs.
        let tier = match kind {
            JobKind::Sample { .. } => QosTier::Exact,
            _ => QosTier::ALL[(case / 4) as usize % QosTier::ALL.len()],
        };
        let problem = arb_problem(&mut rng, 10);
        let config = FrozenQubitsConfig {
            num_frozen: rng.random_range(0..=2usize),
            layers: rng.random_range(1..=2usize),
            param_grid: 5,
            seed: rng.random(),
            tier,
            ..FrozenQubitsConfig::default()
        };
        let device = PRESETS[rng.random_range(0..PRESETS.len())];
        let mut spec = build(&problem, device, config, kind);
        if !matches!(kind, JobKind::Sample { .. }) && rng.random() {
            spec.backend = BackendSpec::NoiseModel;
        }
        let result = runner
            .run_all(std::slice::from_ref(&spec))
            .unwrap()
            .remove(0);
        let text = result.to_json();
        let back = JobResult::from_json(&text).unwrap();
        assert_eq!(back, result, "case {case}: {}", spec.to_json());
        assert_eq!(back.to_json(), text, "case {case}: byte-for-byte");
        combos.insert((result.kind_name(), tier.name()));
    }
    assert_eq!(combos.len(), 3 * QosTier::ALL.len() + 1, "{combos:?}");
}
