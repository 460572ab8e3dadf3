//! Error type for topology construction and compilation.

use std::error::Error;
use std::fmt;

/// Errors produced by topology construction, layout, routing and
/// compilation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TranspileError {
    /// A physical qubit index was out of range.
    QubitOutOfRange {
        /// The offending physical qubit.
        qubit: usize,
        /// The device's qubit count.
        num_qubits: usize,
    },
    /// The circuit needs more qubits than the device provides.
    CircuitTooWide {
        /// Logical qubits required.
        needed: usize,
        /// Physical qubits available.
        available: usize,
    },
    /// The topology (or a requested sub-region) is disconnected.
    Disconnected(String),
    /// The router gave up. [`crate::Topology`] refuses disconnected
    /// coupling maps, so this is not a connectivity problem: either
    /// SABRE ran out of its step budget while oscillating (its decay
    /// term resets whenever a gate executes, and nothing else breaks the
    /// cycle; about 1.3–1.9 in 10 000 never-seen 27-qubit QAOA templates
    /// do this), or only program-level SWAPs are blocked, which the
    /// router never moves qubits for. A release valve for the first case
    /// (route the closest front gate along a shortest path after a run
    /// of SWAPs without progress) is the open fix.
    RoutingStuck(String),
    /// Invalid construction parameters.
    InvalidParameters(String),
    /// A circuit-level error surfaced during compilation.
    Circuit(fq_circuit::CircuitError),
}

impl fmt::Display for TranspileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranspileError::QubitOutOfRange { qubit, num_qubits } => {
                write!(
                    f,
                    "physical qubit {qubit} out of range for device with {num_qubits} qubits"
                )
            }
            TranspileError::CircuitTooWide { needed, available } => {
                write!(
                    f,
                    "circuit needs {needed} qubits but the device has {available}"
                )
            }
            TranspileError::Disconnected(msg) => write!(f, "disconnected topology: {msg}"),
            TranspileError::RoutingStuck(msg) => write!(f, "routing stuck: {msg}"),
            TranspileError::InvalidParameters(msg) => write!(f, "invalid parameters: {msg}"),
            TranspileError::Circuit(e) => write!(f, "circuit error: {e}"),
        }
    }
}

impl Error for TranspileError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TranspileError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fq_circuit::CircuitError> for TranspileError {
    fn from(e: fq_circuit::CircuitError) -> Self {
        TranspileError::Circuit(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        for e in [
            TranspileError::QubitOutOfRange {
                qubit: 1,
                num_qubits: 1,
            },
            TranspileError::CircuitTooWide {
                needed: 5,
                available: 2,
            },
            TranspileError::Disconnected("x".into()),
            TranspileError::RoutingStuck("y".into()),
            TranspileError::InvalidParameters("z".into()),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
