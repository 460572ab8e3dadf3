//! SWAP routing: a deterministic SABRE-style heuristic router.
//!
//! NISQ devices only couple neighbouring qubits, so the compiler inserts
//! SWAPs (3 CNOTs each) to bring interacting qubits together — the
//! dominant source of the post-compilation CNOT blow-up of Fig. 3 and of
//! the SWAP-reduction wins of Fig. 14. The router below follows the SABRE
//! recipe used by IBM's optimization level 3: execute every gate whose
//! operands are adjacent, and otherwise greedily apply the SWAP that most
//! reduces the distance of the *front layer*, with a look-ahead window and
//! a decay term that discourages ping-ponging a single qubit.

use fq_circuit::{Gate, QuantumCircuit};

use crate::{Topology, TranspileError};

/// How many upcoming two-qubit gates the look-ahead window considers.
const EXTENDED_SET_SIZE: usize = 20;
/// Relative weight of the look-ahead window in the SWAP score.
const EXTENDED_WEIGHT: f64 = 0.5;
/// Multiplicative decay penalty applied to recently swapped qubits.
const DECAY_STEP: f64 = 0.001;

/// The result of routing a logical circuit onto a topology.
#[derive(Clone, Debug, PartialEq)]
pub struct Routed {
    /// The physical circuit (width = device qubits) including SWAPs.
    /// Measurements appear at the end, one per logical qubit, in logical
    /// order, on each qubit's final physical position.
    pub circuit: QuantumCircuit,
    /// `final_layout[logical] = physical` after all SWAPs.
    pub final_layout: Vec<usize>,
    /// Number of SWAP gates inserted.
    pub swap_count: usize,
}

/// Routes `circuit` onto `topology` starting from
/// `initial_layout[logical] = physical`.
///
/// The algorithm is deterministic: ties are broken by canonical edge
/// order, so compilations are exactly reproducible.
///
/// A routing step allocates nothing: every per-step buffer is reused,
/// and a SWAP step touches only what the SWAP changed. Each candidate
/// SWAP is scored from the front and look-ahead pairs that involve its
/// two qubits, as integer changes to integer distance sums. Summing
/// every pair's distance in `f64` would give the same sums (every
/// partial sum of small integers is exact), so candidates compare, and
/// ties break, exactly as if each were scored from scratch. The
/// ARCHITECTURE "cold template path" section walks through a step.
///
/// # Errors
///
/// Returns [`TranspileError::CircuitTooWide`] if the layout is shorter
/// than the circuit width, [`TranspileError::QubitOutOfRange`] for layout
/// entries beyond the device, [`TranspileError::InvalidParameters`] for a
/// non-injective layout, and [`TranspileError::RoutingStuck`] when the
/// router gives up. [`Topology`] refuses disconnected maps, so on a real
/// device that means one of two things: the router ran out of its step
/// budget (`20 × gates × device qubits`), because SABRE's decay term
/// resets whenever a gate executes and nothing else breaks an
/// oscillation — about 1.3–1.9 in 10 000 never-seen 27-qubit QAOA
/// templates do this — or only program-level SWAPs are blocked, which
/// the router never moves qubits for. A release valve (route the
/// closest front gate along a shortest path after a run of SWAPs
/// without progress) is the open fix for the first.
///
/// # Example
///
/// ```
/// use fq_circuit::QuantumCircuit;
/// use fq_transpile::{route, Topology};
///
/// // CNOT between the two ends of a 3-qubit chain forces a SWAP.
/// let mut qc = QuantumCircuit::new(3);
/// qc.cx(0, 2)?;
/// let topo = Topology::linear(3)?;
/// let routed = route(&qc, &topo, &[0, 1, 2])?;
/// assert_eq!(routed.swap_count, 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn route(
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

    // The routable gate list excludes measurements; they are re-emitted at
    // the end on final positions so no SWAP can follow a measurement.
    let body: Vec<Gate> = circuit
        .gates()
        .iter()
        .copied()
        .filter(|g| !matches!(g, Gate::Measure { .. }))
        .collect();
    let mut sabre = Sabre::new(&body, topology, l2p, p2l);

    let mut out = QuantumCircuit::new(p_count);
    let mut decay = vec![1.0f64; p_count];
    let mut swap_count = 0usize;
    let mut remaining = body.len();
    let mut layers_stale = true;

    let budget = 20 * body.len().max(1) * (p_count.max(4));
    let mut steps = 0usize;
    while remaining > 0 {
        steps += 1;
        if steps > budget {
            return Err(TranspileError::RoutingStuck(format!(
                "exceeded {budget} routing steps with {remaining} gates left"
            )));
        }

        // Phase 1: drain every executable gate.
        let executed = sabre.drain(&mut out)?;
        if executed > 0 {
            remaining -= executed;
            decay.fill(1.0);
            layers_stale = true;
        }
        if remaining == 0 {
            break;
        }

        // Phase 2: the front layer is blocked; pick the best SWAP. Front
        // and look-ahead change only when a gate executes.
        if layers_stale {
            sabre.rebuild_layers();
            layers_stale = false;
        }
        if sabre.front.is_empty() {
            return Err(TranspileError::RoutingStuck(
                "no ready two-qubit gate while gates remain".into(),
            ));
        }
        let (p, p2) = sabre.best_swap(&decay);
        out.swap(p, p2).map_err(TranspileError::Circuit)?;
        decay[p] += DECAY_STEP;
        decay[p2] += DECAY_STEP;
        swap_count += 1;
    }

    // Emit measurements on final positions, in logical order.
    let measured: Vec<usize> = circuit
        .gates()
        .iter()
        .filter_map(|g| match g {
            Gate::Measure { q } => Some(*q),
            _ => None,
        })
        .collect();
    for lq in measured {
        out.measure(sabre.l2p[lq])
            .map_err(TranspileError::Circuit)?;
    }

    Ok(Routed {
        circuit: out,
        final_layout: sabre.l2p,
        swap_count,
    })
}

/// Per-qubit gate queues in one flat array: logical qubit `q`'s body
/// gates, in program order, are `gates[start[q]..start[q + 1]]`, and
/// `head[q]` indexes the first one not yet executed. Gate `g` is ready
/// when it is at the head of the queue of every qubit it touches.
struct Queues {
    start: Vec<usize>,
    gates: Vec<usize>,
    head: Vec<usize>,
}

impl Queues {
    fn new(body: &[Gate], n: usize) -> Queues {
        let mut start = vec![0usize; n + 1];
        for g in body {
            for q in g.qubits() {
                start[q + 1] += 1;
            }
        }
        for q in 0..n {
            start[q + 1] += start[q];
        }
        let mut head = start[..n].to_vec();
        let mut gates = vec![0usize; start[n]];
        for (gi, g) in body.iter().enumerate() {
            for q in g.qubits() {
                gates[head[q]] = gi;
                head[q] += 1;
            }
        }
        head.copy_from_slice(&start[..n]);
        Queues { start, gates, head }
    }

    fn head_gate(&self, q: usize) -> Option<usize> {
        let h = self.head[q];
        (h < self.start[q + 1]).then(|| self.gates[h])
    }

    fn is_ready(&self, gi: usize, body: &[Gate]) -> bool {
        body[gi]
            .qubits()
            .iter()
            .all(|&q| self.head_gate(q) == Some(gi))
    }
}

/// The router's state between steps; every buffer lives for the whole
/// route.
struct Sabre<'a> {
    body: &'a [Gate],
    topology: &'a Topology,
    queues: Queues,
    l2p: Vec<usize>,
    p2l: Vec<Option<usize>>,
    done: Vec<bool>,
    /// Every body gate before this index has executed.
    first_undone: usize,
    /// Logical qubits whose head gate may have become executable since
    /// it was last found blocked, as a bitset.
    dirty: Vec<u64>,
    /// Ready but blocked two-qubit pairs `(min, max)`, in qubit order.
    front: Vec<(usize, usize)>,
    /// The look-ahead window: the next [`EXTENDED_SET_SIZE`] unexecuted
    /// CNOT pairs in program order that are not in the front.
    extended: Vec<(usize, usize)>,
    /// `front_partner[a] == b` iff `a` and `b` form a front pair.
    front_partner: Vec<usize>,
    /// Pair ids (front pairs first, then look-ahead pairs) touching
    /// logical qubit `q`: `touch[touch_start[q]..touch_start[q + 1]]`.
    touch_start: Vec<usize>,
    touch: Vec<usize>,
    /// Σ distance over the front and look-ahead pairs under `l2p`.
    front_sum: usize,
    extended_sum: usize,
    /// The couplers in canonical `(a, b)` order: `by_rank[r]` is the
    /// edge index of the `r`-th smallest coupler and `rank` its inverse,
    /// so a bitset over ranks visits candidate SWAPs in tie-breaking
    /// order.
    by_rank: Vec<usize>,
    rank: Vec<usize>,
    candidates: Vec<u64>,
}

impl<'a> Sabre<'a> {
    fn new(
        body: &'a [Gate],
        topology: &'a Topology,
        l2p: Vec<usize>,
        p2l: Vec<Option<usize>>,
    ) -> Sabre<'a> {
        let n = l2p.len();
        let edges = topology.edges();
        let mut by_rank: Vec<usize> = (0..edges.len()).collect();
        by_rank.sort_unstable_by_key(|&c| edges[c]);
        let mut rank = vec![0usize; edges.len()];
        for (r, &c) in by_rank.iter().enumerate() {
            rank[c] = r;
        }
        let mut dirty = vec![0u64; n.div_ceil(64)];
        for q in 0..n {
            set_bit(&mut dirty, q);
        }
        Sabre {
            body,
            topology,
            queues: Queues::new(body, n),
            l2p,
            p2l,
            done: vec![false; body.len()],
            first_undone: 0,
            dirty,
            front: Vec::with_capacity(n / 2),
            extended: Vec::with_capacity(EXTENDED_SET_SIZE),
            front_partner: vec![usize::MAX; n],
            touch_start: vec![0; n + 1],
            touch: Vec::with_capacity(2 * (n / 2 + EXTENDED_SET_SIZE)),
            front_sum: 0,
            extended_sum: 0,
            candidates: vec![0; edges.len().div_ceil(64)],
            by_rank,
            rank,
        }
    }

    /// Executes every gate that can execute, in the pass order of a
    /// sweep over all qubits repeated until a sweep executes nothing,
    /// and returns how many executed. Only dirty qubits are visited:
    /// any other qubit's head gate was blocked when last checked and
    /// still is, so its check would be a no-op.
    fn drain(&mut self, out: &mut QuantumCircuit) -> Result<usize, TranspileError> {
        let mut executed = 0;
        while let Some(mut q) = next_set_bit(&self.dirty, 0) {
            loop {
                while let Some(gi) = self.queues.head_gate(q) {
                    if !self.queues.is_ready(gi, self.body) {
                        break;
                    }
                    let g = self.body[gi];
                    let executable = match g {
                        Gate::Cx { control, target } => self
                            .topology
                            .are_adjacent(self.l2p[control], self.l2p[target]),
                        Gate::Swap { a, b } => self.topology.are_adjacent(self.l2p[a], self.l2p[b]),
                        _ => true,
                    };
                    if !executable {
                        break;
                    }
                    // Semantic gates (including program-level Swaps) never
                    // change the mapping; only router-inserted SWAPs do.
                    out.push(g.map_qubits(|lq| self.l2p[lq]))
                        .map_err(TranspileError::Circuit)?;
                    for gq in g.qubits() {
                        self.queues.head[gq] += 1;
                    }
                    self.done[gi] = true;
                    executed += 1;
                    // The operands' next gates are the only ones whose
                    // readiness this can change.
                    for gq in g.qubits() {
                        self.mark_head_gate(gq);
                    }
                }
                clear_bit(&mut self.dirty, q);
                match next_set_bit(&self.dirty, q + 1) {
                    Some(next) => q = next,
                    None => break,
                }
            }
        }
        Ok(executed)
    }

    /// Marks the qubits of `lq`'s head gate dirty.
    fn mark_head_gate(&mut self, lq: usize) {
        if let Some(gi) = self.queues.head_gate(lq) {
            for r in self.body[gi].qubits() {
                set_bit(&mut self.dirty, r);
            }
        }
    }

    /// Recomputes the front layer, the look-ahead window, the pair
    /// index and both distance sums after gates executed.
    fn rebuild_layers(&mut self) {
        for &(a, b) in &self.front {
            self.front_partner[a] = usize::MAX;
            self.front_partner[b] = usize::MAX;
        }
        self.front.clear();
        for q in 0..self.l2p.len() {
            if let Some(gi) = self.queues.head_gate(q) {
                if let Gate::Cx { control, target } = self.body[gi] {
                    // A ready CNOT heads both its queues; take it once, at
                    // its lower qubit.
                    if control.min(target) == q && self.queues.is_ready(gi, self.body) {
                        let other = control.max(target);
                        self.front.push((q, other));
                        self.front_partner[q] = other;
                        self.front_partner[other] = q;
                    }
                }
            }
        }

        while self.done.get(self.first_undone) == Some(&true) {
            self.first_undone += 1;
        }
        self.extended.clear();
        for gi in self.first_undone..self.body.len() {
            if self.extended.len() >= EXTENDED_SET_SIZE {
                break;
            }
            if let Gate::Cx { control, target } = self.body[gi] {
                if self.done[gi] {
                    continue;
                }
                let pair = (control.min(target), control.max(target));
                if self.front_partner[pair.0] != pair.1 {
                    self.extended.push(pair);
                }
            }
        }

        // Counting sort of pair ids by qubit: count into `touch_start[q]`,
        // turn counts into range ends, then fill each range from its end.
        self.touch_start.fill(0);
        for &(a, b) in self.front.iter().chain(&self.extended) {
            self.touch_start[a] += 1;
            self.touch_start[b] += 1;
        }
        for q in 0..self.l2p.len() {
            self.touch_start[q + 1] += self.touch_start[q];
        }
        self.touch.clear();
        self.touch.resize(self.touch_start[self.l2p.len()], 0);
        let pairs = self.front.len() + self.extended.len();
        for k in (0..pairs).rev() {
            let (a, b) = self.pair(k);
            for q in [a, b] {
                self.touch_start[q] -= 1;
                self.touch[self.touch_start[q]] = k;
            }
        }

        let distance = |&(a, b): &(usize, usize)| self.topology.distance(self.l2p[a], self.l2p[b]);
        self.front_sum = self.front.iter().map(distance).sum();
        self.extended_sum = self.extended.iter().map(distance).sum();
    }

    /// Picks the SWAP SABRE would pick, applies it and returns it:
    /// among the couplers incident to a front-gate qubit, the first in
    /// canonical edge order with the lowest score × decay.
    fn best_swap(&mut self, decay: &[f64]) -> (usize, usize) {
        for &(a, b) in &self.front {
            for lq in [a, b] {
                for &c in self.topology.neighbor_couplers(self.l2p[lq]) {
                    set_bit(&mut self.candidates, self.rank[c]);
                }
            }
        }
        // ((p, p2), score, front_sum, extended_sum) of the best so far.
        let mut best: Option<((usize, usize), f64, usize, usize)> = None;
        for w in 0..self.candidates.len() {
            let mut bits = std::mem::take(&mut self.candidates[w]);
            while bits != 0 {
                let r = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let (p, p2) = self.topology.edges()[self.by_rank[r]];
                let (front_sum, extended_sum) = self.sums_after_swap(p, p2);
                let score = self.score(front_sum, extended_sum) * decay[p].max(decay[p2]);
                if best.is_none_or(|(_, s, _, _)| score < s) {
                    best = Some(((p, p2), score, front_sum, extended_sum));
                }
            }
        }
        let ((p, p2), _, front_sum, extended_sum) = best.expect("candidates is non-empty");
        self.apply_swap(p, p2);
        self.front_sum = front_sum;
        self.extended_sum = extended_sum;
        (p, p2)
    }

    /// The front and look-ahead distance sums if physical `p` and `p2`
    /// swapped: only pairs with exactly one of the two moved qubits
    /// change (a pair of both rides along).
    fn sums_after_swap(&self, p: usize, p2: usize) -> (usize, usize) {
        let mut front = self.front_sum as i64;
        let mut extended = self.extended_sum as i64;
        for (moved, from, to, partner) in [
            (self.p2l[p], p, p2, self.p2l[p2]),
            (self.p2l[p2], p2, p, self.p2l[p]),
        ] {
            let Some(l) = moved else { continue };
            for &k in &self.touch[self.touch_start[l]..self.touch_start[l + 1]] {
                let (a, b) = self.pair(k);
                let other = if a == l { b } else { a };
                if Some(other) == partner {
                    continue;
                }
                let at = self.l2p[other];
                let delta =
                    self.topology.distance(at, to) as i64 - self.topology.distance(at, from) as i64;
                if k < self.front.len() {
                    front += delta;
                } else {
                    extended += delta;
                }
            }
        }
        (front as usize, extended as usize)
    }

    fn pair(&self, k: usize) -> (usize, usize) {
        match self.front.get(k) {
            Some(&pair) => pair,
            None => self.extended[k - self.front.len()],
        }
    }

    /// SABRE's cost of a layout with these distance sums: mean front
    /// distance plus [`EXTENDED_WEIGHT`] × mean look-ahead distance.
    fn score(&self, front_sum: usize, extended_sum: usize) -> f64 {
        let front_cost = front_sum as f64 / self.front.len() as f64;
        let extended_cost = if self.extended.is_empty() {
            0.0
        } else {
            extended_sum as f64 / self.extended.len() as f64
        };
        front_cost + EXTENDED_WEIGHT * extended_cost
    }

    /// Applies a router SWAP and marks the heads of the two moved qubits.
    fn apply_swap(&mut self, p: usize, p2: usize) {
        let la = self.p2l[p];
        let lb = self.p2l[p2];
        self.p2l[p] = lb;
        self.p2l[p2] = la;
        if let Some(l) = la {
            self.l2p[l] = p2;
            self.mark_head_gate(l);
        }
        if let Some(l) = lb {
            self.l2p[l] = p;
            self.mark_head_gate(l);
        }
    }
}

fn next_set_bit(bits: &[u64], from: usize) -> Option<usize> {
    let mut w = from / 64;
    let mut word = *bits.get(w)? & (!0u64 << (from % 64));
    loop {
        if word != 0 {
            return Some(w * 64 + word.trailing_zeros() as usize);
        }
        w += 1;
        word = *bits.get(w)?;
    }
}

fn set_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] |= 1 << (i % 64);
}

fn clear_bit(bits: &mut [u64], i: usize) {
    bits[i / 64] &= !(1 << (i % 64));
}

#[cfg(test)]
mod props;

#[cfg(test)]
mod tests {
    use super::*;
    use fq_circuit::Angle;

    /// After routing, every two-qubit gate must touch adjacent physical
    /// qubits.
    fn assert_routed_valid(routed: &Routed, topo: &Topology) {
        for g in routed.circuit.gates() {
            if g.is_two_qubit() {
                let qs = g.qubits();
                assert!(topo.are_adjacent(qs[0], qs[1]), "gate {g} not on a coupler");
            }
        }
    }

    #[test]
    fn adjacent_gates_need_no_swaps() {
        let mut qc = QuantumCircuit::new(3);
        qc.cx(0, 1).unwrap();
        qc.cx(1, 2).unwrap();
        let topo = Topology::linear(3).unwrap();
        let routed = route(&qc, &topo, &[0, 1, 2]).unwrap();
        assert_eq!(routed.swap_count, 0);
        assert_eq!(routed.final_layout, vec![0, 1, 2]);
    }

    #[test]
    fn distant_gate_inserts_swaps_and_tracks_layout() {
        let mut qc = QuantumCircuit::new(4);
        qc.cx(0, 3).unwrap();
        qc.measure_all();
        let topo = Topology::linear(4).unwrap();
        let routed = route(&qc, &topo, &[0, 1, 2, 3]).unwrap();
        assert!(routed.swap_count >= 1);
        assert_routed_valid(&routed, &topo);
        // Measurements: 4 of them, on distinct physical qubits.
        let measures: Vec<usize> = routed
            .circuit
            .gates()
            .iter()
            .filter_map(|g| match g {
                Gate::Measure { q } => Some(*q),
                _ => None,
            })
            .collect();
        assert_eq!(measures.len(), 4);
        let set: std::collections::BTreeSet<usize> = measures.iter().copied().collect();
        assert_eq!(set.len(), 4);
        // Measure order is logical order: measure k reads logical qubit k.
        assert_eq!(measures, routed.final_layout);
    }

    #[test]
    fn routes_fully_connected_interaction_on_a_line() {
        // All-to-all CNOTs on a 5-qubit chain: heavy swapping, must stay valid.
        let mut qc = QuantumCircuit::new(5);
        for i in 0..5 {
            for j in (i + 1)..5 {
                qc.cx(i, j).unwrap();
            }
        }
        let topo = Topology::linear(5).unwrap();
        let routed = route(&qc, &topo, &[0, 1, 2, 3, 4]).unwrap();
        assert_routed_valid(&routed, &topo);
        let cx_in = 10;
        let cx_out = routed
            .circuit
            .gates()
            .iter()
            .filter(|g| matches!(g, Gate::Cx { .. }))
            .count();
        assert_eq!(cx_in, cx_out, "no CNOT may be lost or duplicated");
    }

    #[test]
    fn preserves_single_qubit_gates_and_angles() {
        let mut qc = QuantumCircuit::new(3);
        qc.h(0).unwrap();
        qc.rz(
            2,
            Angle::Gamma {
                layer: 0,
                scale: 2.0,
                term: 9,
            },
        )
        .unwrap();
        qc.cx(0, 2).unwrap();
        let topo = Topology::linear(3).unwrap();
        let routed = route(&qc, &topo, &[0, 1, 2]).unwrap();
        let rz = routed
            .circuit
            .gates()
            .iter()
            .find_map(|g| match g {
                Gate::Rz { theta, .. } => Some(*theta),
                _ => None,
            })
            .expect("rz survived");
        assert_eq!(
            rz,
            Angle::Gamma {
                layer: 0,
                scale: 2.0,
                term: 9
            }
        );
    }

    #[test]
    fn respects_gate_dependencies() {
        // cx(0,1) must commit before cx(1,2) since they share qubit 1.
        let mut qc = QuantumCircuit::new(3);
        qc.cx(0, 1).unwrap();
        qc.cx(1, 2).unwrap();
        let topo = Topology::linear(3).unwrap();
        let routed = route(&qc, &topo, &[2, 1, 0]).unwrap();
        assert_routed_valid(&routed, &topo);
        let cx_pairs: Vec<(usize, usize)> = routed
            .circuit
            .gates()
            .iter()
            .filter_map(|g| match g {
                Gate::Cx { control, target } => Some((*control, *target)),
                _ => None,
            })
            .collect();
        assert_eq!(cx_pairs.len(), 2);
    }

    #[test]
    fn rejects_bad_layouts() {
        let mut qc = QuantumCircuit::new(2);
        qc.cx(0, 1).unwrap();
        let topo = Topology::linear(3).unwrap();
        assert!(route(&qc, &topo, &[0]).is_err());
        assert!(route(&qc, &topo, &[0, 0]).is_err());
        assert!(route(&qc, &topo, &[0, 9]).is_err());
    }

    #[test]
    fn routing_on_heavy_hex_is_valid() {
        let mut qc = QuantumCircuit::new(8);
        for i in 0..8 {
            for j in (i + 1)..8 {
                if (i + j) % 3 == 0 {
                    qc.cx(i, j).unwrap();
                }
            }
        }
        qc.measure_all();
        let topo = Topology::falcon_27();
        let routed = route(&qc, &topo, &[0, 1, 2, 3, 4, 5, 6, 7]).unwrap();
        assert_routed_valid(&routed, &topo);
    }
}
