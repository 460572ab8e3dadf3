//! Property-based tests of the freezing algebra, the crate's load-bearing
//! invariants (Eqs. 2–3 and the §3.7.2 theorem) over randomized models.
//!
//! The offline build has no `proptest`, so each property runs over 128
//! seeded random cases drawn from the same distribution the original
//! proptest strategies described: `n ∈ [2, 9]` variables, up to
//! `n(n−1)/2` random couplings in `[−2, 2]`, optional linear terms in
//! `[−1.5, 1.5]`, a random offset, and a random freeze set.
//!
//! The compile-once property runs over generated Barabási–Albert
//! (`d ∈ {1, 2, 3}`) and 3-regular models instead, the graph families
//! the paper freezes.

use fq_graphs::{gen, to_ising_pm1};
use fq_ising::symmetry::{is_spin_flip_symmetric, verify_spin_flip_symmetry};
use fq_ising::{enumerate_subproblems, IsingModel, Qubo, Spin, SpinVec};
use frozenqubits::{partition_problem, select_hotspots, HotspotStrategy, ShapeSignature};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const CASES: u64 = 128;

/// One random Ising model plus a freeze set, mirroring the original
/// proptest `arb_model` strategy.
fn arb_model(rng: &mut StdRng, with_linear: bool) -> (IsingModel, Vec<(usize, Spin)>) {
    let n = rng.random_range(2..=9usize);
    let mut m = IsingModel::new(n);
    let num_couplings = rng.random_range(0..=(n * (n - 1) / 2));
    for _ in 0..num_couplings {
        let i = rng.random_range(0..n);
        let j = rng.random_range(0..n);
        if i != j {
            m.add_coupling(i, j, rng.random_range(-2.0..2.0))
                .expect("indices in range");
        }
    }
    if with_linear {
        for i in 0..n {
            m.set_linear(i, rng.random_range(-1.5..1.5))
                .expect("index in range");
        }
    }
    m.set_offset(rng.random_range(-3.0..3.0));
    let mut freeze: Vec<(usize, Spin)> = Vec::new();
    for i in 0..n {
        if rng.random::<bool>() && freeze.len() + 1 < n {
            let s = if rng.random::<bool>() {
                Spin::UP
            } else {
                Spin::DOWN
            };
            freeze.push((i, s));
        }
    }
    (m, freeze)
}

fn for_each_case(with_linear: bool, mut check: impl FnMut(IsingModel, Vec<(usize, Spin)>)) {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(0xF0_2E_E2 ^ case);
        let (model, freeze) = arb_model(&mut rng, with_linear);
        check(model, freeze);
    }
}

/// The fundamental identity: sub-model energies are parent energies.
#[test]
fn freezing_preserves_energy() {
    for_each_case(true, |model, freeze| {
        let frozen = model.freeze(&freeze).expect("valid freeze set");
        let k = frozen.model().num_vars();
        for idx in 0..(1u64 << k) {
            let y = SpinVec::from_index(idx, k);
            let full = frozen.decode(&y).expect("width matches");
            let e_sub = frozen.model().energy(&y).expect("width matches");
            let e_full = model.energy(&full).expect("width matches");
            assert!(
                (e_sub - e_full).abs() < 1e-9,
                "sub {e_sub} vs full {e_full}"
            );
        }
    });
}

/// decode is a right inverse of project on the surviving coordinates.
#[test]
fn decode_project_roundtrip() {
    for_each_case(true, |model, freeze| {
        let frozen = model.freeze(&freeze).expect("valid freeze set");
        let k = frozen.model().num_vars();
        for idx in [0u64, 1, (1 << k) - 1] {
            let y = SpinVec::from_index(idx % (1 << k), k);
            let full = frozen.decode(&y).expect("width matches");
            assert!(frozen.contains(&full).expect("width matches"));
            assert_eq!(frozen.project(&full).expect("width matches"), y);
        }
    });
}

/// The 2^m sub-spaces tile the parent state space exactly once.
#[test]
fn subspaces_partition() {
    for_each_case(false, |model, freeze| {
        if freeze.len() > 3 || model.num_vars() > 7 {
            return;
        }
        let qubits: Vec<usize> = freeze.iter().map(|&(q, _)| q).collect();
        let subs = enumerate_subproblems(&model, &qubits).expect("valid qubits");
        let n = model.num_vars();
        for idx in 0..(1u64 << n) {
            let z = SpinVec::from_index(idx, n);
            let hits = subs
                .iter()
                .filter(|s| s.contains(&z).expect("width"))
                .count();
            assert_eq!(hits, 1);
        }
    });
}

/// §3.7.2: zero linear terms ⟺ C(z) = C(−z) everywhere.
#[test]
fn symmetry_theorem() {
    for_each_case(false, |model, _| {
        assert!(is_spin_flip_symmetric(&model));
        assert!(verify_spin_flip_symmetry(&model).expect("small model"));
    });
}

/// The symmetric-partner identity used by pruning: the +1 branch's
/// energies, bit-flipped, are the −1 branch's energies.
#[test]
fn partner_branches_mirror() {
    for_each_case(false, |model, _| {
        if model.num_vars() < 3 {
            return;
        }
        let hub = model.hotspots()[0];
        let plus = model.freeze(&[(hub, Spin::UP)]).expect("valid");
        let minus = model.freeze(&[(hub, Spin::DOWN)]).expect("valid");
        let k = plus.model().num_vars();
        for idx in 0..(1u64 << k) {
            let y = SpinVec::from_index(idx, k);
            let a = plus.model().energy(&y).expect("width");
            let b = minus.model().energy(&y.flipped()).expect("width");
            assert!((a - b).abs() < 1e-9);
        }
    });
}

/// QUBO ↔ Ising conversions agree on every assignment.
#[test]
fn qubo_ising_equivalence() {
    for_each_case(true, |model, _| {
        if model.num_vars() > 7 {
            return;
        }
        let qubo = Qubo::from_ising(&model);
        let back = qubo.to_ising();
        let n = model.num_vars();
        for idx in 0..(1u64 << n) {
            let z = SpinVec::from_index(idx, n);
            let direct = model.energy(&z).expect("width");
            let via_qubo = qubo.value_of_spins(&z).expect("width");
            let roundtrip = back.energy(&z).expect("width");
            assert!((direct - via_qubo).abs() < 1e-9);
            assert!((direct - roundtrip).abs() < 1e-9);
        }
    });
}

/// Gray-code exact solver agrees with naive enumeration.
#[test]
fn exact_solver_is_exact() {
    for_each_case(true, |model, _| {
        if model.num_vars() > 8 {
            return;
        }
        let sol = fq_ising::solve::exact_solve(&model).expect("small model");
        let n = model.num_vars();
        let mut best = f64::INFINITY;
        for idx in 0..(1u64 << n) {
            best = best.min(model.energy(&SpinVec::from_index(idx, n)).expect("width"));
        }
        assert!((sol.energy - best).abs() < 1e-9);
        assert!((model.energy(&sol.best).expect("width") - sol.energy).abs() < 1e-9);
    });
}

const SHAPE_CASES: u64 = 256;

/// Compile once (§3.7.1): freezing changes only linear terms and the
/// offset, so every executed branch of a partition has branch 0's
/// [`ShapeSignature`], and branch 0 is the all-UP freeze (mask 0) that
/// `Job::unit_fingerprints` names. A plan's one template rests on this,
/// under every hotspot strategy, with and without linear terms and
/// symmetry pruning, for every `m ≤ 5`.
#[test]
fn every_branch_shares_branch_zeros_shape() {
    let mut partitions = 0usize;
    for case in 0..SHAPE_CASES {
        let mut rng = StdRng::seed_from_u64(0x5A_4E ^ case);
        let graph = match rng.random_range(0..4usize) {
            3 => {
                let n = 2 * rng.random_range(3..=12usize);
                gen::random_regular(n, 3, case).expect("3-regular graph")
            }
            d => {
                let n = rng.random_range(d + 6..=24usize);
                gen::barabasi_albert(n, d + 1, case).expect("BA graph")
            }
        };
        let mut model = to_ising_pm1(&graph, case);
        if case % 2 == 1 {
            for i in 0..model.num_vars() {
                if rng.random() {
                    model
                        .set_linear(i, rng.random_range(-1.5..1.5))
                        .expect("index in range");
                }
            }
        }
        for m in 0..=5usize {
            let mut explicit: Vec<usize> = Vec::new();
            while explicit.len() < m {
                let q = rng.random_range(0..model.num_vars());
                if !explicit.contains(&q) {
                    explicit.push(q);
                }
            }
            let strategies = [
                HotspotStrategy::MaxDegree,
                HotspotStrategy::MaxAbsCoupling,
                HotspotStrategy::Random(case),
                HotspotStrategy::Explicit(explicit),
            ];
            for strategy in &strategies {
                let hotspots = select_hotspots(&model, m, strategy).expect("m < n");
                for prune in [false, true] {
                    let partition =
                        partition_problem(&model, &hotspots, prune).expect("valid freeze");
                    let first = &partition.executed[0];
                    assert_eq!(first.mask, 0, "case {case}: branch 0 is mask 0");
                    assert!(
                        first.problem.frozen().iter().all(|&(_, s)| s == Spin::UP),
                        "case {case}: branch 0 freezes every hotspot UP"
                    );
                    let shape = ShapeSignature::of(first.problem.model());
                    for exec in &partition.executed[1..] {
                        assert_eq!(
                            ShapeSignature::of(exec.problem.model()),
                            shape,
                            "case {case}, m = {m}, {strategy:?}, prune {prune}: mask {}",
                            exec.mask
                        );
                    }
                    partitions += 1;
                }
            }
        }
    }
    assert_eq!(partitions, SHAPE_CASES as usize * 6 * 4 * 2);
}
