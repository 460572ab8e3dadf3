//! The gate set of the circuit IR.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::Angle;

/// A gate instance acting on concrete qubit indices.
///
/// The set mirrors what QAOA circuits and IBM-style transpilation need:
/// Hadamard and rotations for the ansatz, CNOT as the native entangler
/// (each `Swap` counts as 3 CNOTs in the fidelity accounting, §2.2), and
/// terminal measurement.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Gate {
    /// Hadamard.
    H {
        /// Target qubit.
        q: usize,
    },
    /// Pauli-X.
    X {
        /// Target qubit.
        q: usize,
    },
    /// Z-rotation `Rz(θ)` — a "software" gate on IBM hardware (§3.3),
    /// treated as error-free and zero-duration.
    Rz {
        /// Target qubit.
        q: usize,
        /// Rotation angle.
        theta: Angle,
    },
    /// X-rotation `Rx(θ)` (the QAOA mixer).
    Rx {
        /// Target qubit.
        q: usize,
        /// Rotation angle.
        theta: Angle,
    },
    /// CNOT with `control` and `target`.
    Cx {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
    /// SWAP, inserted by routing; decomposes into 3 CNOTs.
    Swap {
        /// First qubit.
        a: usize,
        /// Second qubit.
        b: usize,
    },
    /// Terminal `z`-basis measurement.
    Measure {
        /// Measured qubit.
        q: usize,
    },
}

/// The one or two qubits a gate touches, held inline.
///
/// Dereferences to a `[usize]` slice and iterates by value, so walking a
/// circuit gate by gate never allocates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GateQubits {
    qubits: [usize; 2],
    len: usize,
}

impl GateQubits {
    fn one(q: usize) -> GateQubits {
        GateQubits {
            qubits: [q, q],
            len: 1,
        }
    }

    fn two(a: usize, b: usize) -> GateQubits {
        GateQubits {
            qubits: [a, b],
            len: 2,
        }
    }
}

impl std::ops::Deref for GateQubits {
    type Target = [usize];

    fn deref(&self) -> &[usize] {
        &self.qubits[..self.len]
    }
}

impl IntoIterator for GateQubits {
    type Item = usize;
    type IntoIter = std::iter::Take<std::array::IntoIter<usize, 2>>;

    fn into_iter(self) -> Self::IntoIter {
        self.qubits.into_iter().take(self.len)
    }
}

impl<'a> IntoIterator for &'a GateQubits {
    type Item = &'a usize;
    type IntoIter = std::slice::Iter<'a, usize>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl Gate {
    /// The qubits this gate touches (one or two entries), without
    /// allocating.
    #[must_use]
    pub fn qubits(&self) -> GateQubits {
        match *self {
            Gate::H { q }
            | Gate::X { q }
            | Gate::Rz { q, .. }
            | Gate::Rx { q, .. }
            | Gate::Measure { q } => GateQubits::one(q),
            Gate::Cx { control, target } => GateQubits::two(control, target),
            Gate::Swap { a, b } => GateQubits::two(a, b),
        }
    }

    /// Whether this is a two-qubit gate.
    #[must_use]
    pub fn is_two_qubit(&self) -> bool {
        matches!(self, Gate::Cx { .. } | Gate::Swap { .. })
    }

    /// The number of physical CNOTs this gate costs (Swap = 3, Cx = 1).
    #[must_use]
    pub fn cnot_cost(&self) -> usize {
        match self {
            Gate::Cx { .. } => 1,
            Gate::Swap { .. } => 3,
            _ => 0,
        }
    }

    /// The symbolic angle, if the gate is a rotation.
    #[must_use]
    pub fn angle(&self) -> Option<Angle> {
        match *self {
            Gate::Rz { theta, .. } | Gate::Rx { theta, .. } => Some(theta),
            _ => None,
        }
    }

    /// A copy of the gate with every qubit index mapped through `f`
    /// (used when applying an initial layout).
    #[must_use]
    pub fn map_qubits(&self, mut f: impl FnMut(usize) -> usize) -> Gate {
        match *self {
            Gate::H { q } => Gate::H { q: f(q) },
            Gate::X { q } => Gate::X { q: f(q) },
            Gate::Rz { q, theta } => Gate::Rz { q: f(q), theta },
            Gate::Rx { q, theta } => Gate::Rx { q: f(q), theta },
            Gate::Cx { control, target } => Gate::Cx {
                control: f(control),
                target: f(target),
            },
            Gate::Swap { a, b } => Gate::Swap { a: f(a), b: f(b) },
            Gate::Measure { q } => Gate::Measure { q: f(q) },
        }
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Gate::H { q } => write!(f, "h q{q}"),
            Gate::X { q } => write!(f, "x q{q}"),
            Gate::Rz { q, theta } => write!(f, "rz({theta}) q{q}"),
            Gate::Rx { q, theta } => write!(f, "rx({theta}) q{q}"),
            Gate::Cx { control, target } => write!(f, "cx q{control}, q{target}"),
            Gate::Swap { a, b } => write!(f, "swap q{a}, q{b}"),
            Gate::Measure { q } => write!(f, "measure q{q}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qubit_lists() {
        assert_eq!(*Gate::H { q: 3 }.qubits(), [3]);
        assert_eq!(
            *Gate::Cx {
                control: 1,
                target: 2
            }
            .qubits(),
            [1, 2]
        );
        assert_eq!(*Gate::Swap { a: 0, b: 4 }.qubits(), [0, 4]);
        // By-value and by-reference iteration see the same operands.
        let qs = Gate::Cx {
            control: 5,
            target: 6,
        }
        .qubits();
        assert_eq!(qs.into_iter().collect::<Vec<_>>(), vec![5, 6]);
        assert_eq!((&qs).into_iter().copied().collect::<Vec<_>>(), vec![5, 6]);
        assert_eq!(Gate::Measure { q: 2 }.qubits().into_iter().count(), 1);
    }

    #[test]
    fn cnot_costs() {
        assert_eq!(
            Gate::Cx {
                control: 0,
                target: 1
            }
            .cnot_cost(),
            1
        );
        assert_eq!(Gate::Swap { a: 0, b: 1 }.cnot_cost(), 3);
        assert_eq!(Gate::H { q: 0 }.cnot_cost(), 0);
    }

    #[test]
    fn map_qubits_applies_layout() {
        let g = Gate::Cx {
            control: 0,
            target: 1,
        }
        .map_qubits(|q| q + 10);
        assert_eq!(
            g,
            Gate::Cx {
                control: 10,
                target: 11
            }
        );
    }

    #[test]
    fn display_is_qasm_like() {
        let g = Gate::Rz {
            q: 2,
            theta: Angle::Constant(0.5),
        };
        assert_eq!(g.to_string(), "rz(0.5) q2");
    }
}
