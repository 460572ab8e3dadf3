//! Property tests pinning [`route`] to the from-scratch SABRE loop it
//! replaced, [`route_reference`]: results and errors alike, on every
//! device preset, on generated linear, grid and heavy-hex topologies,
//! for QAOA templates and for random CX/SWAP/one-qubit/measure
//! sequences, from noise-adaptive and random injective layouts.
//!
//! Seeded and dependency-free like `tests/freeze_props.rs`.

use fq_circuit::{build_qaoa_circuit, Angle, Gate, QuantumCircuit};
use fq_ising::IsingModel;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use super::{route, Routed, DECAY_STEP, EXTENDED_SET_SIZE, EXTENDED_WEIGHT};
use crate::{choose_layout, Device, LayoutStrategy, Topology, TranspileError};

/// The step-at-a-time router: every step rebuilds the front layer and
/// the look-ahead window by scanning from gate 0, and scores every
/// candidate SWAP on a cloned layout. [`route`] must return exactly what
/// it returns.
fn route_reference(
    circuit: &QuantumCircuit,
    topology: &Topology,
    initial_layout: &[usize],
) -> Result<Routed, TranspileError> {
    let n = circuit.num_qubits();
    let p_count = topology.num_qubits();
    if initial_layout.len() < n {
        return Err(TranspileError::CircuitTooWide {
            needed: n,
            available: initial_layout.len(),
        });
    }
    let mut p2l: Vec<Option<usize>> = vec![None; p_count];
    let mut l2p = vec![0usize; n];
    for (l, &p) in initial_layout.iter().take(n).enumerate() {
        if p >= p_count {
            return Err(TranspileError::QubitOutOfRange {
                qubit: p,
                num_qubits: p_count,
            });
        }
        if p2l[p].is_some() {
            return Err(TranspileError::InvalidParameters(format!(
                "layout maps two logical qubits to physical {p}"
            )));
        }
        p2l[p] = Some(l);
        l2p[l] = p;
    }

    let body: Vec<Gate> = circuit
        .gates()
        .iter()
        .copied()
        .filter(|g| !matches!(g, Gate::Measure { .. }))
        .collect();

    let mut qubit_gates: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (gi, g) in body.iter().enumerate() {
        for q in g.qubits() {
            qubit_gates[q].push(gi);
        }
    }
    let mut head = vec![0usize; n];
    let mut done = vec![false; body.len()];
    let mut remaining = body.len();

    let mut out = QuantumCircuit::new(p_count);
    let mut decay = vec![1.0f64; p_count];
    let mut swap_count = 0usize;

    let is_ready = |gi: usize, body: &[Gate], head: &[usize], qubit_gates: &[Vec<usize>]| {
        body[gi]
            .qubits()
            .iter()
            .all(|&q| qubit_gates[q].get(head[q]) == Some(&gi))
    };

    let budget = 20 * body.len().max(1) * (p_count.max(4));
    let mut steps = 0usize;
    while remaining > 0 {
        steps += 1;
        if steps > budget {
            return Err(TranspileError::RoutingStuck(format!(
                "exceeded {budget} routing steps with {remaining} gates left"
            )));
        }

        let mut progressed = true;
        while progressed {
            progressed = false;
            for q in 0..n {
                while let Some(&gi) = qubit_gates[q].get(head[q]) {
                    if !is_ready(gi, &body, &head, &qubit_gates) {
                        break;
                    }
                    let g = body[gi];
                    let executable = match g {
                        Gate::Cx { control, target } => {
                            topology.are_adjacent(l2p[control], l2p[target])
                        }
                        Gate::Swap { a, b } => topology.are_adjacent(l2p[a], l2p[b]),
                        _ => true,
                    };
                    if !executable {
                        break;
                    }
                    out.push(g.map_qubits(|lq| l2p[lq]))
                        .map_err(TranspileError::Circuit)?;
                    for gq in g.qubits() {
                        head[gq] += 1;
                    }
                    done[gi] = true;
                    remaining -= 1;
                    progressed = true;
                    decay.fill(1.0);
                }
            }
        }
        if remaining == 0 {
            break;
        }

        let mut front: Vec<(usize, usize)> = Vec::new();
        for q in 0..n {
            if let Some(&gi) = qubit_gates[q].get(head[q]) {
                if is_ready(gi, &body, &head, &qubit_gates) {
                    if let Gate::Cx { control, target } = body[gi] {
                        let pair = (control.min(target), control.max(target));
                        if !front.contains(&pair) {
                            front.push(pair);
                        }
                    }
                }
            }
        }
        if front.is_empty() {
            return Err(TranspileError::RoutingStuck(
                "no ready two-qubit gate while gates remain".into(),
            ));
        }

        let mut extended: Vec<(usize, usize)> = Vec::new();
        for (gi, g) in body.iter().enumerate() {
            if extended.len() >= EXTENDED_SET_SIZE {
                break;
            }
            if let Gate::Cx { control, target } = *g {
                if done[gi] {
                    continue;
                }
                let pair = (control.min(target), control.max(target));
                if !front.contains(&pair) {
                    extended.push(pair);
                }
            }
        }

        let mut candidates: Vec<(usize, usize)> = Vec::new();
        for &(a, b) in &front {
            for &lq in &[a, b] {
                let p = l2p[lq];
                for &p2 in topology.neighbors(p) {
                    let key = (p.min(p2), p.max(p2));
                    if !candidates.contains(&key) {
                        candidates.push(key);
                    }
                }
            }
        }
        candidates.sort_unstable();

        let score_layout = |l2p_try: &[usize]| -> f64 {
            let front_cost: f64 = front
                .iter()
                .map(|&(a, b)| topology.distance(l2p_try[a], l2p_try[b]) as f64)
                .sum::<f64>()
                / front.len() as f64;
            let ext_cost: f64 = if extended.is_empty() {
                0.0
            } else {
                extended
                    .iter()
                    .map(|&(a, b)| topology.distance(l2p_try[a], l2p_try[b]) as f64)
                    .sum::<f64>()
                    / extended.len() as f64
            };
            front_cost + EXTENDED_WEIGHT * ext_cost
        };

        let mut best: Option<((usize, usize), f64)> = None;
        for &(p, p2) in &candidates {
            let mut l2p_try = l2p.clone();
            if let Some(l) = p2l[p] {
                l2p_try[l] = p2;
            }
            if let Some(l) = p2l[p2] {
                l2p_try[l] = p;
            }
            let s = score_layout(&l2p_try) * decay[p].max(decay[p2]);
            if best.is_none_or(|(_, bs)| s < bs) {
                best = Some(((p, p2), s));
            }
        }
        let ((p, p2), _) = best.expect("candidates is non-empty");
        out.swap(p, p2).map_err(TranspileError::Circuit)?;
        let (la, lb) = (p2l[p], p2l[p2]);
        p2l[p] = lb;
        p2l[p2] = la;
        if let Some(l) = la {
            l2p[l] = p2;
        }
        if let Some(l) = lb {
            l2p[l] = p;
        }
        decay[p] += DECAY_STEP;
        decay[p2] += DECAY_STEP;
        swap_count += 1;
    }

    let measured: Vec<usize> = circuit
        .gates()
        .iter()
        .filter_map(|g| match g {
            Gate::Measure { q } => Some(*q),
            _ => None,
        })
        .collect();
    for lq in measured {
        out.measure(l2p[lq]).map_err(TranspileError::Circuit)?;
    }

    Ok(Routed {
        circuit: out,
        final_layout: l2p,
        swap_count,
    })
}

/// A linear chain, a grid or a heavy-hex lattice of random size.
fn arb_topology(rng: &mut StdRng) -> Topology {
    match rng.random_range(0..3usize) {
        0 => Topology::linear(rng.random_range(2..=30usize)).unwrap(),
        1 => Topology::grid(rng.random_range(1..=6usize), rng.random_range(2..=6usize)).unwrap(),
        _ => {
            let rows: Vec<usize> = (0..rng.random_range(1..=4usize))
                .map(|_| rng.random_range(3..=12usize))
                .collect();
            Topology::heavy_hex_rows(&rows).unwrap()
        }
    }
}

/// A random Ising model on `n` variables: a random spanning tree plus
/// extra couplings (up to all-to-all), optional linear terms.
fn arb_model(rng: &mut StdRng, n: usize) -> IsingModel {
    let mut m = IsingModel::new(n);
    for i in 1..n {
        let j = rng.random_range(0..i);
        m.set_coupling(j, i, 1.0).unwrap();
    }
    for _ in 0..rng.random_range(0..=n * (n - 1) / 2) {
        let (i, j) = (rng.random_range(0..n), rng.random_range(0..n));
        if i != j {
            m.set_coupling(i, j, -1.0).unwrap();
        }
    }
    if rng.random::<bool>() {
        for i in 0..n {
            m.set_linear(i, 0.5).unwrap();
        }
    }
    m
}

/// A QAOA template on `n ≥ 2` qubits, `p ∈ {1, 2}`, measured or not.
fn arb_qaoa(rng: &mut StdRng, n: usize) -> QuantumCircuit {
    let mut qc = build_qaoa_circuit(&arb_model(rng, n), rng.random_range(1..=2usize)).unwrap();
    if rng.random::<bool>() {
        qc.measure_all();
    }
    qc
}

/// A random gate sequence on `n ≥ 2` qubits: mostly CNOTs, with
/// program-level SWAPs, one-qubit gates and measurements mixed in.
fn arb_sequence(rng: &mut StdRng, n: usize) -> QuantumCircuit {
    let mut qc = QuantumCircuit::new(n);
    for _ in 0..rng.random_range(0..=80usize) {
        let a = rng.random_range(0..n);
        let mut b = rng.random_range(0..n - 1);
        if b >= a {
            b += 1;
        }
        let gate = match rng.random_range(0..20usize) {
            0..=9 => Gate::Cx {
                control: a,
                target: b,
            },
            10 => Gate::Swap { a, b },
            11 => Gate::H { q: a },
            12 => Gate::X { q: a },
            13 | 14 => Gate::Rz {
                q: a,
                theta: Angle::Constant(0.25),
            },
            15 | 16 => Gate::Rx {
                q: a,
                theta: Angle::Constant(-0.5),
            },
            _ => Gate::Measure { q: a },
        };
        qc.push(gate).unwrap();
    }
    qc
}

/// An injective layout of `n` logical qubits on `p_count` physical ones;
/// now and then a malformed one (short, out of range, non-injective).
fn arb_layout(rng: &mut StdRng, n: usize, p_count: usize) -> Vec<usize> {
    let mut physical: Vec<usize> = (0..p_count).collect();
    physical.shuffle(rng);
    physical.truncate(n);
    match rng.random_range(0..40usize) {
        0 => {
            physical.pop();
        }
        1 => physical[0] = p_count + rng.random_range(0..3usize),
        2 if n >= 2 => physical[1] = physical[0],
        _ => {}
    }
    physical
}

/// What the generated cases exercised.
#[derive(Debug, Default)]
struct Coverage {
    routed: usize,
    swaps: usize,
    stuck: usize,
    layout_errors: usize,
}

fn check(label: &str, qc: &QuantumCircuit, topo: &Topology, layout: &[usize], seen: &mut Coverage) {
    let got = route(qc, topo, layout);
    assert_eq!(got, route_reference(qc, topo, layout), "{label}");
    match got {
        Ok(r) => {
            seen.routed += 1;
            seen.swaps += r.swap_count;
        }
        Err(TranspileError::RoutingStuck(_)) => seen.stuck += 1,
        Err(_) => seen.layout_errors += 1,
    }
}

#[test]
fn route_equals_the_reference_on_every_preset() {
    let mut presets = Device::all_ibm_machines();
    presets.push(Device::grid_2500());
    let mut seen = Coverage::default();
    for (d, device) in presets.iter().enumerate() {
        let topo = device.topology();
        for case in 0..24u64 {
            let mut rng = StdRng::seed_from_u64(0x5AB2E ^ (d as u64) << 32 ^ case);
            let n = rng.random_range(2..=16usize);
            let qc = if rng.random_range(0..3usize) == 0 {
                arb_sequence(&mut rng, n)
            } else {
                arb_qaoa(&mut rng, n)
            };
            let layout = if rng.random::<bool>() {
                choose_layout(&qc, device, LayoutStrategy::NoiseAdaptive).unwrap()
            } else {
                arb_layout(&mut rng, n, topo.num_qubits())
            };
            let label = format!("{} case {case}, n={n}", device.name());
            check(&label, &qc, topo, &layout, &mut seen);
        }
    }
    assert!(seen.swaps > 1_000, "too few SWAPs exercised: {seen:?}");
    assert!(seen.stuck > 0, "no case got stuck: {seen:?}");
    assert!(seen.layout_errors > 0, "no malformed layout: {seen:?}");
}

#[test]
fn route_equals_the_reference_on_generated_topologies() {
    let mut seen = Coverage::default();
    for case in 0..400u64 {
        let mut rng = StdRng::seed_from_u64(0x70_9010 ^ case);
        let topo = arb_topology(&mut rng);
        let n = rng.random_range(2..=topo.num_qubits().clamp(2, 14));
        let qc = if rng.random::<bool>() {
            arb_sequence(&mut rng, n)
        } else {
            arb_qaoa(&mut rng, n)
        };
        let layout = if n <= topo.num_qubits() && rng.random::<bool>() {
            let device = Device::ideal("generated", topo.clone());
            choose_layout(&qc, &device, LayoutStrategy::NoiseAdaptive).unwrap()
        } else {
            arb_layout(&mut rng, n, topo.num_qubits())
        };
        let label = format!("case {case}: {} qubits, n={n}", topo.num_qubits());
        check(&label, &qc, &topo, &layout, &mut seen);
    }
    assert!(seen.swaps > 1_000, "too few SWAPs exercised: {seen:?}");
    assert!(seen.stuck > 0, "no case got stuck: {seen:?}");
    assert!(seen.layout_errors > 0, "no malformed layout: {seen:?}");
}
