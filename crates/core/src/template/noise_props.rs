//! Property tests of the invariance [`NoiseTables`] rests on: every
//! table a branch reads is angle-free, so computing it on the branch's
//! own angle-edited executable gives the template's shared entry bit for
//! bit — for every branch, tier depth and device.
//!
//! Seeded and dependency-free like `tests/freeze_props.rs`: each case
//! draws a Barabási–Albert (`d ∈ {1, 2}`) or 3-regular model with ±1
//! couplings on 8–12 nodes, `m ∈ {1, 2, 3}` frozen qubits, `p ∈ {1, 2}`
//! layers and one of the 27-qubit presets. (Width is capped because the
//! exact path optimizes `p = 2` on a statevector before it reads a
//! table.)

use std::sync::Arc;

use fq_circuit::CircuitError;
use fq_graphs::{gen, to_ising_pm1};
use fq_ising::IsingModel;
use fq_sim::{
    fidelity_model, lightcone_fidelities, lightcone_fidelities_truncated, log_eps, FidelityModel,
    LightconeFidelity,
};
use fq_transpile::Device;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use super::NoiseTables;
use crate::api::ErrorModel;
use crate::pipeline::{metrics_of, CircuitMetrics};
use crate::{
    plan_execution, plan_execution_cached, BackendSpec, ExecutorKind, FqError, FrozenQubitsConfig,
    ShapeSignature, TemplateArtifact, TemplateCache, TemplateKey,
};

const CASES: u64 = 24;

const PRESETS: [fn() -> Device; 6] = [
    Device::ibm_montreal,
    Device::ibm_toronto,
    Device::ibm_mumbai,
    Device::ibm_auckland,
    Device::ibm_hanoi,
    Device::ibm_cairo,
];

/// One generated case: model, frozen-qubit count, layers, device.
struct Case {
    model: IsingModel,
    m: usize,
    p: usize,
    device: Device,
}

fn arb_case(rng: &mut StdRng) -> Case {
    let seed = rng.random::<u64>();
    let graph = match rng.random_range(0..3usize) {
        0 => gen::barabasi_albert(rng.random_range(8..=12usize), 1, seed),
        1 => gen::barabasi_albert(rng.random_range(8..=12usize), 2, seed),
        _ => gen::random_regular(2 * rng.random_range(4..=6usize), 3, seed),
    }
    .expect("feasible generator parameters");
    Case {
        model: to_ising_pm1(&graph, seed),
        m: rng.random_range(1..=3usize),
        p: rng.random_range(1..=2usize),
        device: PRESETS[rng.random_range(0..PRESETS.len())](),
    }
}

fn for_each_case(mut check: impl FnMut(Case)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0x007A_B1E5 ^ case);
        check(arb_case(&mut rng));
    }
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

fn fid_bits(f: &FidelityModel) -> (u64, Vec<u64>, Vec<u64>, u64) {
    (
        f.gate_fidelity.to_bits(),
        bits(&f.qubit_decay),
        bits(&f.readout_attenuation),
        f.log_process_fidelity.to_bits(),
    )
}

fn cone_bits(c: &LightconeFidelity) -> (Vec<u64>, Vec<u64>) {
    (bits(&c.z), bits(&c.zz))
}

fn metric_bits(m: &CircuitMetrics) -> (CircuitMetrics, u64) {
    (*m, m.duration_ns.to_bits())
}

/// Every table the analytic path reads, recomputed on each branch's own
/// angle-edited executable, equals the template's shared entry bit for
/// bit — at full depth (the exact tier), at the approximate tiers'
/// truncation depth and at depth 0 (the process-fidelity model) — and
/// all branches of a template share one entry.
#[test]
fn shared_tables_equal_per_branch_tables_bit_for_bit() {
    for_each_case(|case| {
        let cfg = FrozenQubitsConfig {
            layers: case.p,
            ..FrozenQubitsConfig::with_frozen(case.m)
        };
        let plan = plan_execution(&case.model, &case.device, &cfg).expect("plannable case");
        let tier_depth = ErrorModel::fast().lightcone_depth;
        let mut first: Option<Arc<NoiseTables>> = None;
        for b in 0..plan.num_branches() {
            let model = plan.branch(b).problem.model();
            let template = plan.template_for(b);
            let edited = template.edit_for(model).expect("sibling fits its template");
            let full = template
                .noise_tables(model, case.p, &case.device, usize::MAX)
                .expect("tables build");
            assert_eq!(
                fid_bits(&full.fid),
                fid_bits(&fidelity_model(&edited, &case.device))
            );
            assert_eq!(
                cone_bits(&full.cones),
                cone_bits(&lightcone_fidelities(model, &edited, &case.device).unwrap())
            );
            assert_eq!(
                full.eps_log.to_bits(),
                log_eps(&edited, &case.device).to_bits()
            );
            assert_eq!(
                metric_bits(&full.metrics),
                metric_bits(&metrics_of(model, case.p, &edited))
            );
            let truncated = template
                .noise_tables(model, case.p, &case.device, tier_depth)
                .expect("tables build");
            let direct =
                lightcone_fidelities_truncated(model, &edited, &case.device, tier_depth).unwrap();
            assert_eq!(cone_bits(&truncated.cones), cone_bits(&direct));
            // The process-fidelity model reads the depth-0 entry: all it
            // reads besides cones is depth-free.
            let global = template
                .noise_tables(model, case.p, &case.device, 0)
                .expect("tables build");
            assert_eq!(fid_bits(&global.fid), fid_bits(&full.fid));
            assert_eq!(global.eps_log.to_bits(), full.eps_log.to_bits());
            assert_eq!(metric_bits(&global.metrics), metric_bits(&full.metrics));
            if plan.num_templates() == 1 {
                let shared = first.get_or_insert_with(|| Arc::clone(&full));
                assert!(Arc::ptr_eq(shared, &full), "branch {b} rebuilt the tables");
            }
        }
    });
}

/// A template whose γ-rotations name a term the model lacks — here a
/// warm-transferred artifact filed under a shape with one coupling
/// fewer — fails the exact analytic path with the error `edit_for`
/// gives, not with a silently wrong result.
#[test]
fn missing_gamma_term_fails_the_exact_path_like_edit_for() {
    for_each_case(|case| {
        let mut smaller = IsingModel::new(case.model.num_vars());
        let kept = case.model.num_couplings() - 1;
        for ((i, j), jij) in case.model.couplings().take(kept) {
            smaller.set_coupling(i, j, jij).unwrap();
        }
        let cfg = FrozenQubitsConfig {
            layers: case.p,
            ..FrozenQubitsConfig::with_frozen(0)
        };
        let wide = plan_execution(&case.model, &case.device, &cfg).expect("plannable case");
        let key = TemplateKey::new(
            ShapeSignature::of(&smaller),
            &case.device,
            cfg.layers,
            cfg.compile,
        );
        let cache = TemplateCache::new();
        cache.insert_artifact(&TemplateArtifact::new(key, wide.template_for(0).clone()));
        let plan = plan_execution_cached(&smaller, &case.device, &cfg, &cache).unwrap();

        let expected = plan.template_for(0).edit_for(&smaller).unwrap_err();
        assert!(
            matches!(
                expected,
                FqError::Circuit(CircuitError::TemplateMismatch(_))
            ),
            "{expected:?}"
        );
        for _ in 0..2 {
            let got = BackendSpec::Sim
                .build(ExecutorKind::Sequential)
                .run(&plan, &case.device, &cfg)
                .unwrap_err();
            assert_eq!(got, expected);
        }
    });
}
