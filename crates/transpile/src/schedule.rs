//! ASAP scheduling: turns a gate list into start times and a total
//! duration, the input to the decoherence part of the noise model.

use fq_circuit::{Gate, QuantumCircuit};
use serde::{Deserialize, Serialize};

use crate::GateDurations;

/// The schedule of a circuit under a duration model.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Start time (ns) of each gate, parallel to the circuit's gate list.
    pub start_ns: Vec<f64>,
    /// Total wall-clock duration of the circuit in nanoseconds.
    pub duration_ns: f64,
    /// Per-qubit busy time (ns): total time the qubit spends inside gates.
    pub busy_ns: Vec<f64>,
}

/// Computes the as-soon-as-possible schedule of a circuit.
///
/// `Rz` gates are virtual (zero duration, §3.3); a SWAP takes 3 CNOT
/// durations.
///
/// # Example
///
/// ```
/// use fq_circuit::QuantumCircuit;
/// use fq_transpile::{schedule, GateDurations};
///
/// let mut qc = QuantumCircuit::new(2);
/// qc.h(0)?;
/// qc.cx(0, 1)?;
/// let s = schedule(&qc, GateDurations::default());
/// assert_eq!(s.duration_ns, 40.0 + 400.0);
/// # Ok::<(), fq_circuit::CircuitError>(())
/// ```
#[must_use]
pub fn schedule(circuit: &QuantumCircuit, durations: GateDurations) -> Schedule {
    let n = circuit.num_qubits();
    let mut free_at = vec![0.0f64; n];
    let mut busy = vec![0.0f64; n];
    let mut start_ns = Vec::with_capacity(circuit.len());
    let mut total = 0.0f64;
    for g in circuit.gates() {
        let dur = gate_duration(g, durations);
        let qs = g.qubits();
        let start = qs.iter().map(|&q| free_at[q]).fold(0.0, f64::max);
        let end = start + dur;
        for &q in &qs {
            free_at[q] = end;
            busy[q] += dur;
        }
        start_ns.push(start);
        total = total.max(end);
    }
    Schedule {
        start_ns,
        duration_ns: total,
        busy_ns: busy,
    }
}

/// The duration of one gate under a duration model.
#[must_use]
pub fn gate_duration(gate: &Gate, durations: GateDurations) -> f64 {
    match gate {
        Gate::Rz { .. } => 0.0,
        Gate::H { .. } | Gate::X { .. } | Gate::Rx { .. } => durations.single_ns,
        Gate::Cx { .. } => durations.cx_ns,
        Gate::Swap { .. } => 3.0 * durations.cx_ns,
        Gate::Measure { .. } => durations.readout_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fq_circuit::Angle;

    #[test]
    fn rz_is_free() {
        let mut qc = QuantumCircuit::new(1);
        qc.rz(0, Angle::Constant(1.0)).unwrap();
        qc.rz(0, Angle::Constant(1.0)).unwrap();
        let s = schedule(&qc, GateDurations::default());
        assert_eq!(s.duration_ns, 0.0);
    }

    #[test]
    fn parallel_gates_overlap() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).unwrap();
        qc.h(1).unwrap();
        let s = schedule(&qc, GateDurations::default());
        assert_eq!(s.duration_ns, 40.0);
        assert_eq!(s.start_ns, vec![0.0, 0.0]);
    }

    #[test]
    fn dependencies_serialize() {
        let mut qc = QuantumCircuit::new(3);
        qc.cx(0, 1).unwrap();
        qc.cx(1, 2).unwrap();
        let s = schedule(&qc, GateDurations::default());
        assert_eq!(s.start_ns[1], 400.0);
        assert_eq!(s.duration_ns, 800.0);
    }

    #[test]
    fn swap_is_three_cnots_long() {
        let mut qc = QuantumCircuit::new(2);
        qc.swap(0, 1).unwrap();
        let s = schedule(&qc, GateDurations::default());
        assert_eq!(s.duration_ns, 1200.0);
    }
}
