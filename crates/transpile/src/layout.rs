//! Initial qubit placement (layout) strategies.
//!
//! The baseline methodology compiles with "noise-adaptive routing" (§4.2):
//! logical qubits are placed on a connected, low-error region of the
//! device, with high-degree logical qubits (the hotspots!) claiming
//! high-degree physical qubits so fewer SWAPs are needed.

use serde::{Deserialize, Serialize};

use fq_circuit::QuantumCircuit;

use crate::{Device, TranspileError};

/// Which placement policy to use.
///
/// Deliberately exhaustive (not `#[non_exhaustive]`): the job-spec wire
/// format in `frozenqubits::api` matches on every variant, so adding one
/// is a compile error there — forcing a wire-format decision instead of
/// silent mis-serialization.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum LayoutStrategy {
    /// Logical qubit `i` on physical qubit `i`.
    Trivial,
    /// Greedy noise- and degree-adaptive region growing (default).
    #[default]
    NoiseAdaptive,
}

/// Computes `layout[logical] = physical` for a circuit on a device.
///
/// # Errors
///
/// Returns [`TranspileError::CircuitTooWide`] if the circuit needs more
/// qubits than the device has.
///
/// # Example
///
/// ```
/// use fq_circuit::QuantumCircuit;
/// use fq_transpile::{choose_layout, Device, LayoutStrategy};
///
/// let mut qc = QuantumCircuit::new(4);
/// qc.cx(0, 1)?;
/// let dev = Device::ibm_montreal();
/// let layout = choose_layout(&qc, &dev, LayoutStrategy::NoiseAdaptive)?;
/// assert_eq!(layout.len(), 4);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn choose_layout(
    circuit: &QuantumCircuit,
    device: &Device,
    strategy: LayoutStrategy,
) -> Result<Vec<usize>, TranspileError> {
    let n = circuit.num_qubits();
    let avail = device.num_qubits();
    if n > avail {
        return Err(TranspileError::CircuitTooWide {
            needed: n,
            available: avail,
        });
    }
    match strategy {
        LayoutStrategy::Trivial => Ok((0..n).collect()),
        LayoutStrategy::NoiseAdaptive => Ok(noise_adaptive(circuit, device)),
    }
}

/// Greedy region growing: start from the physical qubit whose incident
/// couplers are healthiest, grow a connected region of `n` qubits by always
/// absorbing the frontier qubit with the best (fidelity, degree) score,
/// then match logical degree order to physical degree order inside the
/// region.
fn noise_adaptive(circuit: &QuantumCircuit, device: &Device) -> Vec<usize> {
    let topo = device.topology();
    let n = circuit.num_qubits();

    // Physical qubit quality: mean fidelity of incident couplers, weighted
    // by degree so well-connected qubits are preferred as region cores.
    let quality: Vec<f64> = (0..topo.num_qubits())
        .map(|q| {
            let nb = topo.neighbors(q);
            if nb.is_empty() {
                return 0.0;
            }
            let mean: f64 =
                nb.iter().map(|&r| device.edge_fidelity(q, r)).sum::<f64>() / nb.len() as f64;
            mean * (1.0 + 0.1 * nb.len() as f64)
        })
        .collect();

    let seed = (0..topo.num_qubits())
        .max_by(|&a, &b| quality[a].partial_cmp(&quality[b]).expect("finite"))
        .unwrap_or(0);

    let mut region: Vec<usize> = vec![seed];
    let mut in_region = vec![false; topo.num_qubits()];
    in_region[seed] = true;
    while region.len() < n {
        let mut best: Option<(usize, f64)> = None;
        for &r in &region {
            for &cand in topo.neighbors(r) {
                if in_region[cand] {
                    continue;
                }
                // Prefer candidates well-connected *into* the region.
                let into_region = topo
                    .neighbors(cand)
                    .iter()
                    .filter(|&&x| in_region[x])
                    .count() as f64;
                let score = quality[cand] + 0.5 * into_region;
                if best.is_none_or(|(_, s)| score > s) {
                    best = Some((cand, score));
                }
            }
        }
        let (chosen, _) = best.expect("connected topology always has a frontier");
        in_region[chosen] = true;
        region.push(chosen);
    }

    // Interaction graph of the circuit: degree and adjacency of logical
    // qubits.
    let mut logical_degree = vec![0usize; n];
    let mut logical_adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for g in circuit.gates() {
        if g.is_two_qubit() {
            let qs = g.qubits();
            logical_degree[qs[0]] += 1;
            logical_degree[qs[1]] += 1;
            if !logical_adj[qs[0]].contains(&qs[1]) {
                logical_adj[qs[0]].push(qs[1]);
                logical_adj[qs[1]].push(qs[0]);
            }
        }
    }

    // BFS-correspondence mapping: walk the interaction graph breadth-first
    // from the hottest logical qubit, and the region breadth-first from
    // its best-connected physical qubit, pairing positions in order. This
    // keeps interacting qubits physically close (unlike degree-rank
    // matching, which scatters neighbours across the region).
    // Frozen sub-problems are often *disconnected* (removing a hub splits
    // a power-law tree), so BFS restarts at the hottest unseen vertex of
    // each remaining component.
    let mut logical_order = Vec::with_capacity(n);
    let mut seen_l = vec![false; n];
    while logical_order.len() < n {
        let root = (0..n)
            .filter(|&q| !seen_l[q])
            .max_by_key(|&q| (logical_degree[q], std::cmp::Reverse(q)))
            .expect("unseen vertices remain");
        let mut queue = std::collections::VecDeque::from([root]);
        seen_l[root] = true;
        while let Some(u) = queue.pop_front() {
            logical_order.push(u);
            let mut next: Vec<usize> = logical_adj[u]
                .iter()
                .copied()
                .filter(|&v| !seen_l[v])
                .collect();
            next.sort_by_key(|&v| (std::cmp::Reverse(logical_degree[v]), v));
            for v in next {
                seen_l[v] = true;
                queue.push_back(v);
            }
        }
    }

    let region_degree = |p: usize| topo.neighbors(p).iter().filter(|&&x| in_region[x]).count();
    let phys_root = region
        .iter()
        .copied()
        .max_by_key(|&p| region_degree(p))
        .expect("region is non-empty");
    let mut physical_order = Vec::with_capacity(n);
    let mut seen_p = vec![false; topo.num_qubits()];
    let mut pqueue = std::collections::VecDeque::from([phys_root]);
    seen_p[phys_root] = true;
    while let Some(u) = pqueue.pop_front() {
        physical_order.push(u);
        let mut next: Vec<usize> = topo
            .neighbors(u)
            .iter()
            .copied()
            .filter(|&p| in_region[p] && !seen_p[p])
            .collect();
        // Prefer well-connected, healthy couplers first.
        next.sort_by(|&a, &b| region_degree(b).cmp(&region_degree(a)).then(a.cmp(&b)));
        for p in next {
            seen_p[p] = true;
            pqueue.push_back(p);
        }
    }

    let mut layout = vec![0usize; n];
    for (rank, &logical) in logical_order.iter().enumerate() {
        layout[logical] = physical_order[rank];
    }
    layout
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    fn star_circuit(n: usize) -> QuantumCircuit {
        let mut qc = QuantumCircuit::new(n);
        for i in 1..n {
            qc.cx(0, i).unwrap();
        }
        qc
    }

    #[test]
    fn trivial_layout_is_identity() {
        let qc = star_circuit(5);
        let dev = Device::ibm_montreal();
        let layout = choose_layout(&qc, &dev, LayoutStrategy::Trivial).unwrap();
        assert_eq!(layout, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn noise_adaptive_layout_is_valid_permutation_prefix() {
        let qc = star_circuit(10);
        let dev = Device::ibm_montreal();
        let layout = choose_layout(&qc, &dev, LayoutStrategy::NoiseAdaptive).unwrap();
        assert_eq!(layout.len(), 10);
        let unique: std::collections::BTreeSet<usize> = layout.iter().copied().collect();
        assert_eq!(unique.len(), 10, "physical targets must be distinct");
        assert!(layout.iter().all(|&p| p < 27));
    }

    #[test]
    fn hotspot_gets_a_high_degree_physical_qubit() {
        let qc = star_circuit(6);
        let dev = Device::ideal("ideal-grid", Topology::grid(4, 4).unwrap());
        let layout = choose_layout(&qc, &dev, LayoutStrategy::NoiseAdaptive).unwrap();
        let topo = dev.topology();
        let hotspot_degree = topo.neighbors(layout[0]).len();
        // Logical qubit 0 interacts with everyone; it must sit on a
        // physical qubit with at least as many couplers as any other choice
        // in the region.
        for &p in &layout[1..] {
            assert!(hotspot_degree >= topo.neighbors(p).len());
        }
    }

    #[test]
    fn rejects_oversized_circuits() {
        let qc = star_circuit(30);
        let dev = Device::ibm_montreal();
        assert!(matches!(
            choose_layout(&qc, &dev, LayoutStrategy::NoiseAdaptive),
            Err(TranspileError::CircuitTooWide { .. })
        ));
    }

    #[test]
    fn region_is_connected() {
        let qc = star_circuit(12);
        let dev = Device::ibm_montreal();
        let layout = choose_layout(&qc, &dev, LayoutStrategy::NoiseAdaptive).unwrap();
        // Check connectivity of the induced subgraph via BFS.
        let topo = dev.topology();
        let set: std::collections::BTreeSet<usize> = layout.iter().copied().collect();
        let mut seen = std::collections::BTreeSet::new();
        let mut stack = vec![layout[0]];
        seen.insert(layout[0]);
        while let Some(u) = stack.pop() {
            for &v in topo.neighbors(u) {
                if set.contains(&v) && seen.insert(v) {
                    stack.push(v);
                }
            }
        }
        assert_eq!(seen.len(), set.len(), "layout region must be connected");
    }
}
