//! Ising Hamiltonians and the freezing algebra at the heart of *FrozenQubits*.
//!
//! A QAOA problem is specified as an Ising Hamiltonian (Eq. 1 of the paper):
//!
//! ```text
//! C(z) = Σ_i h_i·z_i  +  Σ_{i<j} J_ij·z_i·z_j  +  offset ,   z_i ∈ {−1, +1}
//! ```
//!
//! This crate provides:
//!
//! * [`IsingModel`] — the Hamiltonian representation with energy evaluation,
//!   degree/adjacency queries and coefficient access;
//! * [`Spin`] / [`SpinVec`] — the ±1 variable domain;
//! * [`freeze`] — substituting a variable with ±1 to obtain the
//!   sub-Hamiltonians of Eqs. (2)–(3) and decoding sub-solutions back;
//! * [`symmetry`] — the spin-flip symmetry theorem of §3.7.2 used to prune
//!   half of the sub-problems;
//! * [`qubo`] / [`maxcut`] — conversions from the QUBO and Max-Cut encodings;
//! * [`solve`] — exact and annealing classical solvers used to obtain
//!   `C_min` for the Approximation-Ratio metrics;
//! * [`distribution`] — measurement-outcome distributions and expectation
//!   values.
//!
//! # Example
//!
//! ```
//! use fq_ising::{IsingModel, Spin};
//!
//! // The 4-qubit example of Fig. 5: a star around z3 plus a triangle edge.
//! let mut m = IsingModel::new(4);
//! m.set_coupling(0, 2, 1.0).unwrap();
//! m.set_coupling(0, 3, 1.0).unwrap();
//! m.set_coupling(1, 3, -1.0).unwrap();
//! m.set_coupling(2, 3, 1.0).unwrap();
//!
//! // Freeze the hotspot z3 with value +1: edges to z3 fold into linear terms.
//! let sub = m.freeze(&[(3, Spin::UP)]).unwrap();
//! assert_eq!(sub.model().num_vars(), 3);
//! assert_eq!(sub.model().linear(1), -1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distribution;
mod error;
pub mod freeze;
pub mod maxcut;
mod model;
pub mod qubo;
pub mod solve;
mod spin;
pub mod symmetry;

pub use distribution::OutputDistribution;
pub use error::IsingError;
pub use freeze::{enumerate_subproblems, FrozenProblem};
pub use model::IsingModel;
pub use qubo::Qubo;
pub use spin::{Spin, SpinVec};
