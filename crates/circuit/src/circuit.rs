//! The circuit container: an ordered gate list over a fixed qubit register.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{Angle, CircuitError, Gate};

/// An ordered sequence of gates over `num_qubits` qubits.
///
/// The IR is deliberately flat — a `Vec<Gate>` in program order — because
/// every consumer (simulator, router, scheduler) walks it linearly and
/// derives its own dependency structure.
///
/// # Example
///
/// ```
/// use fq_circuit::{Angle, QuantumCircuit};
///
/// let mut qc = QuantumCircuit::new(2);
/// qc.h(0)?;
/// qc.cx(0, 1)?;
/// qc.rz(1, Angle::Constant(0.3))?;
/// qc.measure_all();
/// assert_eq!(qc.depth(), 4);
/// assert_eq!(qc.cnot_count(), 1);
/// # Ok::<(), fq_circuit::CircuitError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Default, Serialize, Deserialize)]
pub struct QuantumCircuit {
    num_qubits: usize,
    gates: Vec<Gate>,
}

impl QuantumCircuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    #[must_use]
    pub fn new(num_qubits: usize) -> QuantumCircuit {
        QuantumCircuit {
            num_qubits,
            gates: Vec::new(),
        }
    }

    /// Circuit width.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The gates in program order.
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Number of gates (including measurements).
    #[must_use]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Whether the circuit has no gates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Appends a validated gate.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::QubitOutOfRange`] for operands beyond the
    /// register and [`CircuitError::IdenticalOperands`] for degenerate
    /// two-qubit gates.
    pub fn push(&mut self, gate: Gate) -> Result<(), CircuitError> {
        let qs = gate.qubits();
        for &q in &qs {
            if q >= self.num_qubits {
                return Err(CircuitError::QubitOutOfRange {
                    qubit: q,
                    num_qubits: self.num_qubits,
                });
            }
        }
        if qs.len() == 2 && qs[0] == qs[1] {
            return Err(CircuitError::IdenticalOperands(qs[0]));
        }
        self.gates.push(gate);
        Ok(())
    }

    /// Appends a Hadamard.
    ///
    /// # Errors
    ///
    /// See [`QuantumCircuit::push`].
    pub fn h(&mut self, q: usize) -> Result<(), CircuitError> {
        self.push(Gate::H { q })
    }

    /// Appends a Pauli-X.
    ///
    /// # Errors
    ///
    /// See [`QuantumCircuit::push`].
    pub fn x(&mut self, q: usize) -> Result<(), CircuitError> {
        self.push(Gate::X { q })
    }

    /// Appends an `Rz`.
    ///
    /// # Errors
    ///
    /// See [`QuantumCircuit::push`].
    pub fn rz(&mut self, q: usize, theta: Angle) -> Result<(), CircuitError> {
        self.push(Gate::Rz { q, theta })
    }

    /// Appends an `Rx`.
    ///
    /// # Errors
    ///
    /// See [`QuantumCircuit::push`].
    pub fn rx(&mut self, q: usize, theta: Angle) -> Result<(), CircuitError> {
        self.push(Gate::Rx { q, theta })
    }

    /// Appends a CNOT.
    ///
    /// # Errors
    ///
    /// See [`QuantumCircuit::push`].
    pub fn cx(&mut self, control: usize, target: usize) -> Result<(), CircuitError> {
        self.push(Gate::Cx { control, target })
    }

    /// Appends a SWAP.
    ///
    /// # Errors
    ///
    /// See [`QuantumCircuit::push`].
    pub fn swap(&mut self, a: usize, b: usize) -> Result<(), CircuitError> {
        self.push(Gate::Swap { a, b })
    }

    /// Appends a measurement on `q`.
    ///
    /// # Errors
    ///
    /// See [`QuantumCircuit::push`].
    pub fn measure(&mut self, q: usize) -> Result<(), CircuitError> {
        self.push(Gate::Measure { q })
    }

    /// Appends a measurement on every qubit.
    pub fn measure_all(&mut self) {
        for q in 0..self.num_qubits {
            self.gates.push(Gate::Measure { q });
        }
    }

    /// Total CNOT cost: `Cx` counts 1, `Swap` counts 3 (§2.2).
    #[must_use]
    pub fn cnot_count(&self) -> usize {
        self.gates.iter().map(Gate::cnot_cost).sum()
    }

    /// Circuit depth: the longest chain of gates that share qubits,
    /// counting every gate (including measurement) as one level.
    #[must_use]
    pub fn depth(&self) -> usize {
        let mut level = vec![0usize; self.num_qubits];
        let mut max = 0;
        for g in &self.gates {
            let qs = g.qubits();
            let l = qs.iter().map(|&q| level[q]).max().unwrap_or(0) + 1;
            for &q in &qs {
                level[q] = l;
            }
            max = max.max(l);
        }
        max
    }

    /// Whether any angle is still symbolic.
    #[must_use]
    pub fn is_parametric(&self) -> bool {
        self.gates
            .iter()
            .filter_map(Gate::angle)
            .any(|a| a.is_symbolic())
    }

    /// The number of QAOA layers referenced by symbolic angles
    /// (`1 + max layer index`, or 0 for a fully bound circuit).
    #[must_use]
    pub fn num_parameter_layers(&self) -> usize {
        self.gates
            .iter()
            .filter_map(Gate::angle)
            .filter_map(|a| match a {
                Angle::Gamma { layer, .. } | Angle::Beta { layer, .. } => Some(layer + 1),
                Angle::Constant(_) => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Produces a concrete circuit by substituting `(γ, β)` parameters into
    /// every symbolic angle.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::ParameterLengthMismatch`] if the vectors
    /// differ in length and [`CircuitError::LayerOutOfRange`] if an angle
    /// references a missing layer.
    pub fn bind(&self, gammas: &[f64], betas: &[f64]) -> Result<QuantumCircuit, CircuitError> {
        if gammas.len() != betas.len() {
            return Err(CircuitError::ParameterLengthMismatch {
                gammas: gammas.len(),
                betas: betas.len(),
            });
        }
        let mut out = QuantumCircuit::new(self.num_qubits);
        for g in &self.gates {
            let mapped = match *g {
                Gate::Rz { q, theta } => Gate::Rz {
                    q,
                    theta: Angle::Constant(theta.bind(gammas, betas)?),
                },
                Gate::Rx { q, theta } => Gate::Rx {
                    q,
                    theta: Angle::Constant(theta.bind(gammas, betas)?),
                },
                other => other,
            };
            out.gates.push(mapped);
        }
        Ok(out)
    }

    /// A copy with all qubit indices mapped through `layout`
    /// (`new_index = layout[old_index]`), widened to `new_width`.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::QubitOutOfRange`] if the layout maps a qubit
    /// at or beyond `new_width`, or is shorter than the circuit width.
    pub fn remapped(
        &self,
        layout: &[usize],
        new_width: usize,
    ) -> Result<QuantumCircuit, CircuitError> {
        if layout.len() < self.num_qubits {
            return Err(CircuitError::QubitOutOfRange {
                qubit: layout.len(),
                num_qubits: self.num_qubits,
            });
        }
        let mut out = QuantumCircuit::new(new_width);
        for g in &self.gates {
            out.push(g.map_qubits(|q| layout[q]))?;
        }
        Ok(out)
    }

    /// Appends all gates of `other` (widths must match).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::QubitOutOfRange`] if `other` is wider.
    pub fn extend(&mut self, other: &QuantumCircuit) -> Result<(), CircuitError> {
        if other.num_qubits > self.num_qubits {
            return Err(CircuitError::QubitOutOfRange {
                qubit: other.num_qubits - 1,
                num_qubits: self.num_qubits,
            });
        }
        self.gates.extend_from_slice(&other.gates);
        Ok(())
    }
}

impl fmt::Display for QuantumCircuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "qreg q[{}];", self.num_qubits)?;
        for g in &self.gates {
            writeln!(f, "{g};")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_validates() {
        let mut qc = QuantumCircuit::new(2);
        assert!(qc.h(0).is_ok());
        assert!(matches!(qc.h(2), Err(CircuitError::QubitOutOfRange { .. })));
        assert!(matches!(
            qc.cx(1, 1),
            Err(CircuitError::IdenticalOperands(1))
        ));
    }

    #[test]
    fn depth_counts_critical_path() {
        let mut qc = QuantumCircuit::new(3);
        qc.h(0).unwrap();
        qc.h(1).unwrap();
        qc.h(2).unwrap(); // depth 1, parallel
        qc.cx(0, 1).unwrap(); // depth 2
        qc.cx(1, 2).unwrap(); // depth 3
        assert_eq!(qc.depth(), 3);
    }

    #[test]
    fn depth_of_empty_is_zero() {
        assert_eq!(QuantumCircuit::new(4).depth(), 0);
    }

    #[test]
    fn cnot_count_includes_swaps() {
        let mut qc = QuantumCircuit::new(3);
        qc.cx(0, 1).unwrap();
        qc.swap(1, 2).unwrap();
        assert_eq!(qc.cnot_count(), 4);
    }

    #[test]
    fn bind_resolves_all_angles() {
        let mut qc = QuantumCircuit::new(1);
        qc.rz(
            0,
            Angle::Gamma {
                layer: 0,
                scale: 2.0,
                term: 0,
            },
        )
        .unwrap();
        qc.rx(
            0,
            Angle::Beta {
                layer: 0,
                scale: 2.0,
            },
        )
        .unwrap();
        assert!(qc.is_parametric());
        assert_eq!(qc.num_parameter_layers(), 1);
        let bound = qc.bind(&[0.5], &[0.25]).unwrap();
        assert!(!bound.is_parametric());
        assert_eq!(bound.gates()[0].angle(), Some(Angle::Constant(1.0)));
        assert_eq!(bound.gates()[1].angle(), Some(Angle::Constant(0.5)));
        assert!(qc.bind(&[0.5], &[]).is_err());
    }

    #[test]
    fn remap_applies_layout() {
        let mut qc = QuantumCircuit::new(2);
        qc.cx(0, 1).unwrap();
        let wide = qc.remapped(&[5, 3], 6).unwrap();
        assert_eq!(
            wide.gates()[0],
            Gate::Cx {
                control: 5,
                target: 3
            }
        );
        assert!(qc.remapped(&[5, 7], 6).is_err());
    }

    #[test]
    fn measure_all_measures_each_qubit() {
        let mut qc = QuantumCircuit::new(3);
        qc.measure_all();
        assert_eq!(qc.len(), 3);
    }

    #[test]
    fn display_renders_each_gate() {
        let mut qc = QuantumCircuit::new(2);
        qc.h(0).unwrap();
        qc.cx(0, 1).unwrap();
        let text = qc.to_string();
        assert!(text.contains("h q0;"));
        assert!(text.contains("cx q0, q1;"));
    }
}
