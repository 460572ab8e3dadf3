//! Property tests of the `JobSpec` wire form against `JobBuilder`: the
//! builder and the wire parse must accept and refuse exactly the same
//! specs, with the same error.
//!
//! The offline build has no `proptest`, so each property runs over
//! seeded random cases: Barabási–Albert, graph and explicit Ising
//! problems of 1–24 variables on every device preset, every tier, job
//! kind, backend and executor, `m ∈ [0, 4]` and `p ∈ [1, 3]`.
//!
//! * For generated fields, `JobBuilder::build` and `JobSpec::from_json`
//!   agree: both refuse with the same `FqError`, or both accept the same
//!   spec, which then survives `from_json(to_json(s))` and re-serializes
//!   byte for byte.
//! * For each refusal rule, a valid spec's wire document mutated to
//!   break that rule alone gets the builder's error from the parse.

use fq_ising::IsingModel;
use frozenqubits::api::{
    BackendSpec, DeviceSpec, GraphWeighting, JobBuilder, JobKind, JobSpec, ProblemSpec,
};
use frozenqubits::{
    ExecutorKind, FqError, FrozenQubitsConfig, QosTier, MAX_FROZEN_QUBITS, MAX_SHOTS,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const CASES: u64 = 256;

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.random_range(0..items.len())]
}

/// A problem every family can resolve: BA with `1 ≤ d < n`, a simple
/// graph, or an explicit model with nonzero coefficients.
fn arb_problem(rng: &mut StdRng) -> ProblemSpec {
    let n = rng.random_range(1..=24usize);
    match rng.random_range(0..3usize) {
        0 => {
            let n = n.max(2);
            ProblemSpec::BarabasiAlbert {
                n,
                d: rng.random_range(1..n.min(3)),
                seed: rng.random(),
            }
        }
        1 => {
            let mut edges = Vec::new();
            for a in 0..n {
                for b in a + 1..n {
                    if rng.random_range(0..4usize) == 0 {
                        edges.push((a, b));
                    }
                }
            }
            let weighting = if rng.random() {
                GraphWeighting::Unit
            } else {
                GraphWeighting::Pm1 { seed: rng.random() }
            };
            ProblemSpec::Graph {
                num_nodes: n,
                edges,
                weighting,
            }
        }
        _ => {
            let mut model = IsingModel::new(n);
            model.set_offset(rng.random_range(-3.0..3.0));
            for i in 0..n {
                if rng.random() {
                    model.set_linear(i, rng.random_range(0.1..1.5)).unwrap();
                }
                for j in i + 1..n {
                    if rng.random_range(0..3usize) == 0 {
                        let sign = if rng.random() { 1.0 } else { -1.0 };
                        model
                            .set_coupling(i, j, sign * rng.random_range(0.1..2.0))
                            .unwrap();
                    }
                }
            }
            ProblemSpec::Ising(model)
        }
    }
}

/// Raw spec fields, drawn without regard to the refusal rules.
fn arb_fields(rng: &mut StdRng) -> JobSpec {
    let kind = match rng.random_range(0..4usize) {
        0 => JobKind::Baseline,
        1 => JobKind::Frozen,
        2 => JobKind::Compare,
        _ => JobKind::Sample {
            shots: rng.random_range(1..=512u64),
        },
    };
    JobSpec {
        problem: arb_problem(rng),
        device: pick(rng, &DeviceSpec::ALL),
        config: FrozenQubitsConfig {
            num_frozen: rng.random_range(0..=4usize),
            layers: rng.random_range(1..=3usize),
            param_grid: pick(rng, &[1usize, 5, 9, 15, 21]),
            seed: rng.random(),
            executor: pick(
                rng,
                &[
                    ExecutorKind::Sequential,
                    ExecutorKind::Parallel,
                    ExecutorKind::Threads(3),
                ],
            ),
            tier: pick(rng, &QosTier::ALL),
            ..FrozenQubitsConfig::default()
        },
        backend: pick(rng, &[BackendSpec::Sim, BackendSpec::NoiseModel]),
        kind,
    }
}

/// The builder calls that describe `spec`'s fields.
fn builder_of(spec: &JobSpec) -> JobBuilder {
    let builder = JobBuilder::new()
        .problem(spec.problem.clone())
        .device(spec.device)
        .config(spec.config.clone())
        .backend(spec.backend);
    match spec.kind {
        JobKind::Baseline => builder.baseline(),
        JobKind::Frozen => builder.frozen(),
        JobKind::Compare => builder.compare(),
        JobKind::Sample { shots } => builder.sample(shots),
        other => panic!("unexpected job kind {other:?}"),
    }
}

/// Every generated case as `(case, raw fields)`.
fn cases() -> impl Iterator<Item = (u64, JobSpec)> {
    (0..CASES).map(|case| {
        let mut rng = StdRng::seed_from_u64(0x5BEC ^ case);
        (case, arb_fields(&mut rng))
    })
}

/// Every generated case the builder accepts.
fn valid_specs() -> impl Iterator<Item = (u64, JobSpec)> {
    cases().filter_map(|(case, fields)| Some((case, builder_of(&fields).build().ok()?)))
}

#[test]
fn builder_and_wire_agree_on_generated_specs() {
    let (mut valid, mut refused) = (0, 0);
    for (case, fields) in cases() {
        let text = fields.to_json();
        let built = builder_of(&fields).build();
        let parsed = JobSpec::from_json(&text);
        assert_eq!(parsed, built, "case {case}: {text}");
        match parsed {
            Ok(spec) => {
                assert_eq!(spec.to_json(), text, "case {case}: not byte-identical");
                valid += 1;
            }
            Err(_) => refused += 1,
        }
    }
    assert!(
        valid > CASES / 3,
        "only {valid} of {CASES} cases were valid"
    );
    assert!(refused > 0, "no generated case hit a refusal rule");
}

/// One refusal rule: a mutation that breaks it alone, and a check that
/// the resulting error is that rule's.
struct Rule {
    name: &'static str,
    mutate: fn(&mut JobSpec, &mut StdRng),
    refuses: fn(&FqError) -> bool,
}

fn invalid_config_containing(error: &FqError, phrase: &str) -> bool {
    matches!(error, FqError::InvalidConfig(msg) if msg.contains(phrase))
}

const RULES: [Rule; 10] = [
    Rule {
        name: "a sampling job on a non-exact tier",
        mutate: |spec, rng| {
            spec.kind = JobKind::Sample {
                shots: rng.random_range(1..=512u64),
            };
            spec.backend = BackendSpec::Sim;
            spec.config.tier = pick(rng, &[QosTier::Balanced, QosTier::Fast]);
        },
        refuses: |e| invalid_config_containing(e, "QoS tiers apply to analytic jobs only"),
    },
    Rule {
        name: "zero shots",
        mutate: |spec, _| spec.kind = JobKind::Sample { shots: 0 },
        refuses: |e| invalid_config_containing(e, "at least 1 shot"),
    },
    Rule {
        name: "zero layers",
        mutate: |spec, _| spec.config.layers = 0,
        refuses: |e| invalid_config_containing(e, "layers (p) must be at least 1"),
    },
    Rule {
        name: "a zero-point parameter grid",
        mutate: |spec, _| spec.config.param_grid = 0,
        refuses: |e| invalid_config_containing(e, "param_grid must be at least 1"),
    },
    Rule {
        name: "more shots than a sampling job may take",
        mutate: |spec, rng| {
            spec.kind = JobKind::Sample {
                shots: match rng.random_range(0..3usize) {
                    0 => MAX_SHOTS + 1,
                    1 => u64::MAX,
                    _ => rng.random_range(MAX_SHOTS + 1..=u64::MAX),
                },
            };
            spec.backend = BackendSpec::Sim;
            spec.config.tier = QosTier::Exact;
        },
        refuses: |e| invalid_config_containing(e, "a sampling job may take at most"),
    },
    Rule {
        name: "a sampling job on the noise_model backend",
        mutate: |spec, rng| {
            spec.kind = JobKind::Sample {
                shots: rng.random_range(1..=512u64),
            };
            spec.backend = BackendSpec::NoiseModel;
        },
        refuses: |e| invalid_config_containing(e, "noise_model backend"),
    },
    Rule {
        name: "an empty problem",
        mutate: |spec, rng| {
            spec.problem = match rng.random_range(0..3usize) {
                0 => ProblemSpec::BarabasiAlbert {
                    n: 0,
                    d: 1,
                    seed: rng.random(),
                },
                1 => ProblemSpec::Graph {
                    num_nodes: 0,
                    edges: Vec::new(),
                    weighting: GraphWeighting::Unit,
                },
                _ => ProblemSpec::Ising(IsingModel::new(0)),
            };
        },
        refuses: |e| invalid_config_containing(e, "problem has no variables"),
    },
    Rule {
        name: "more frozen qubits than variables",
        mutate: |spec, rng| {
            if spec.kind == JobKind::Baseline {
                spec.kind = JobKind::Frozen;
            }
            spec.config.num_frozen = spec.problem.num_vars() + rng.random_range(1..=3usize);
        },
        refuses: |e| matches!(e, FqError::TooManyFrozen { .. }),
    },
    Rule {
        name: "more frozen qubits than the branch enumeration allows",
        mutate: |spec, rng| {
            if spec.kind == JobKind::Baseline {
                spec.kind = JobKind::Frozen;
            }
            let n = rng.random_range(MAX_FROZEN_QUBITS + 1..=100usize);
            spec.problem = ProblemSpec::BarabasiAlbert {
                n,
                d: rng.random_range(1..=2usize),
                seed: rng.random(),
            };
            spec.config.num_frozen = rng.random_range(MAX_FROZEN_QUBITS + 1..=n.min(64));
            // At p = 1 the multi-layer width rule cannot fire as well.
            spec.config.layers = 1;
        },
        refuses: |e| invalid_config_containing(e, "qubits may be frozen"),
    },
    Rule {
        name: "p ≥ 2 beyond the exact-simulation width",
        mutate: |spec, rng| {
            spec.problem = ProblemSpec::BarabasiAlbert {
                n: rng.random_range(21..=40usize),
                d: rng.random_range(1..=2usize),
                seed: rng.random(),
            };
            spec.config.layers = rng.random_range(2..=3usize);
            spec.kind = pick(rng, &[JobKind::Baseline, JobKind::Compare]);
        },
        refuses: |e| invalid_config_containing(e, "20-qubit limit"),
    },
];

#[test]
fn each_refusal_rule_gets_the_builders_error_on_the_wire() {
    for rule in &RULES {
        let mut checked = 0;
        for (case, spec) in valid_specs() {
            let mut rng = StdRng::seed_from_u64(0xB4D ^ case);
            let mut broken = spec.clone();
            (rule.mutate)(&mut broken, &mut rng);
            let label = format!("{}, case {case}", rule.name);
            let expected = builder_of(&broken)
                .build()
                .expect_err(&format!("{label}: the builder accepted it"));
            assert!((rule.refuses)(&expected), "{label}: {expected}");
            let wire = broken.to_json();
            assert_ne!(wire, spec.to_json(), "{label}: the mutation must apply");
            assert_eq!(
                JobSpec::from_json(&wire).expect_err(&format!("{label}: the wire accepted it")),
                expected,
                "{label}"
            );
            checked += 1;
        }
        assert!(checked > 0, "{}: no valid spec to mutate", rule.name);
    }
}
