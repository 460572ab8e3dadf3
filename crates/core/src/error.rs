//! The workspace-wide error type.
//!
//! [`FqError`] is the single error enum at the public boundary: every
//! sibling crate's error converts into it via `From`, so application code
//! (examples, the batch runner, the `fq-serve` HTTP service) handles one
//! type instead of a `Box<dyn Error>` per call site — and the service
//! maps each variant onto an HTTP status class in one place.

use std::error::Error;
use std::fmt;

/// Errors produced anywhere in the FrozenQubits workspace.
///
/// Carries `From` impls for every sibling crate error — `fq-ising`,
/// `fq-circuit`, `fq-transpile`, `fq-sim`, `fq-graphs`, `fq-cutqc` — plus
/// the pipeline's own validation variants, so `?` works across the whole
/// stack and `source()` exposes the underlying cause.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FqError {
    /// Freezing more qubits than the problem has.
    TooManyFrozen {
        /// Requested freeze count `m`.
        m: usize,
        /// Problem variable count.
        num_vars: usize,
    },
    /// Invalid configuration values.
    InvalidConfig(String),
    /// An Ising-layer error.
    Ising(fq_ising::IsingError),
    /// A circuit-layer error.
    Circuit(fq_circuit::CircuitError),
    /// A transpilation error.
    Transpile(fq_transpile::TranspileError),
    /// A simulation error.
    Sim(fq_sim::SimError),
    /// A graph-construction or graph-generation error.
    Graph(fq_graphs::GraphError),
    /// A wire-cutting planner error.
    Cut(fq_cutqc::CutError),
    /// An unrecognized QoS-tier name in a spec or scenario.
    UnknownTier(String),
    /// A (de)serialization error at the job-spec wire boundary.
    Serde(String),
    /// An I/O error, stringified (keeps `FqError: Clone + PartialEq`).
    Io(String),
}

impl fmt::Display for FqError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FqError::TooManyFrozen { m, num_vars } => {
                write!(f, "cannot freeze {m} of {num_vars} qubits")
            }
            FqError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            FqError::Ising(e) => write!(f, "ising error: {e}"),
            FqError::Circuit(e) => write!(f, "circuit error: {e}"),
            FqError::Transpile(e) => write!(f, "transpile error: {e}"),
            FqError::Sim(e) => write!(f, "simulation error: {e}"),
            FqError::Graph(e) => write!(f, "graph error: {e}"),
            FqError::Cut(e) => write!(f, "cut-planner error: {e}"),
            FqError::UnknownTier(name) => {
                write!(
                    f,
                    "unknown QoS tier `{name}` (expected exact, balanced or fast)"
                )
            }
            FqError::Serde(msg) => write!(f, "serialization error: {msg}"),
            FqError::Io(msg) => write!(f, "io error: {msg}"),
        }
    }
}

impl Error for FqError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FqError::Ising(e) => Some(e),
            FqError::Circuit(e) => Some(e),
            FqError::Transpile(e) => Some(e),
            FqError::Sim(e) => Some(e),
            FqError::Graph(e) => Some(e),
            FqError::Cut(e) => Some(e),
            _ => None,
        }
    }
}

impl From<fq_ising::IsingError> for FqError {
    fn from(e: fq_ising::IsingError) -> Self {
        FqError::Ising(e)
    }
}

impl From<fq_circuit::CircuitError> for FqError {
    fn from(e: fq_circuit::CircuitError) -> Self {
        FqError::Circuit(e)
    }
}

impl From<fq_transpile::TranspileError> for FqError {
    fn from(e: fq_transpile::TranspileError) -> Self {
        FqError::Transpile(e)
    }
}

impl From<fq_sim::SimError> for FqError {
    fn from(e: fq_sim::SimError) -> Self {
        FqError::Sim(e)
    }
}

impl From<fq_graphs::GraphError> for FqError {
    fn from(e: fq_graphs::GraphError) -> Self {
        FqError::Graph(e)
    }
}

impl From<fq_cutqc::CutError> for FqError {
    fn from(e: fq_cutqc::CutError) -> Self {
        FqError::Cut(e)
    }
}

impl From<serde::json::JsonError> for FqError {
    fn from(e: serde::json::JsonError) -> Self {
        FqError::Serde(e.0)
    }
}

impl From<std::io::Error> for FqError {
    fn from(e: std::io::Error) -> Self {
        FqError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let e = FqError::TooManyFrozen { m: 3, num_vars: 2 };
        assert!(!e.to_string().is_empty());
        let wrapped: FqError = fq_ising::IsingError::Empty.into();
        assert!(wrapped.source().is_some());
    }

    #[test]
    fn every_crate_error_converts() {
        let graph: FqError = fq_graphs::GraphError::SelfLoop(1).into();
        assert!(graph.source().is_some());
        let cut: FqError = fq_cutqc::CutError::EmptyModel.into();
        assert!(cut.source().is_some());
        let io: FqError = std::io::Error::other("disk on fire").into();
        assert!(matches!(&io, FqError::Io(msg) if msg.contains("disk")));
        let serde_err: FqError = serde::json::JsonError("bad token".into()).into();
        assert!(matches!(&serde_err, FqError::Serde(msg) if msg == "bad token"));
    }
}
