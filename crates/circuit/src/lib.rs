//! Quantum-circuit intermediate representation and QAOA synthesis.
//!
//! A QAOA circuit for an Ising Hamiltonian (Fig. 2 of the paper) consists,
//! per layer `l`, of:
//!
//! * one `Rz(2·h_i·γ_l)` per non-zero linear term — software gates that do
//!   not hurt fidelity (§3.3);
//! * the sequence `CX(i,j) · Rz(2·J_ij·γ_l) · CX(i,j)` per quadratic term —
//!   the two error-prone CNOTs per edge that FrozenQubits eliminates;
//! * one `Rx(2·β_l)` mixer rotation per qubit,
//!
//! preceded by a Hadamard on every qubit and followed by measurement.
//!
//! Angles are kept **symbolic** ([`Angle::Gamma`] / [`Angle::Beta`] with a
//! coefficient scale) so that a compiled circuit acts as the *template* of
//! §3.7.1: all `2^m` sub-problem executables are produced by re-binding
//! coefficients into the same routed gate sequence.
//!
//! # Example
//!
//! ```
//! use fq_circuit::{build_qaoa_circuit, CircuitStats};
//! use fq_ising::IsingModel;
//!
//! let mut m = IsingModel::new(3);
//! m.set_coupling(0, 1, 1.0)?;
//! m.set_coupling(1, 2, -1.0)?;
//!
//! let qc = build_qaoa_circuit(&m, 1)?;
//! let stats = CircuitStats::of(&qc);
//! assert_eq!(stats.cnot_count, 4); // 2 CNOTs per edge per layer
//!
//! let bound = qc.bind(&[0.3], &[0.7])?;
//! assert!(!bound.is_parametric());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod angle;
mod circuit;
mod error;
mod gate;
mod qaoa;
mod qasm;
mod stats;

pub use angle::Angle;
pub use circuit::QuantumCircuit;
pub use error::CircuitError;
pub use gate::{Gate, GateQubits};
pub use qaoa::{build_qaoa_circuit, build_qaoa_template, qaoa_cnot_count, rebind_coefficients};
pub use qasm::to_qasm;
pub use stats::CircuitStats;
