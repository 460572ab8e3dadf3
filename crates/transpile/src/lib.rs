//! NISQ transpilation substrate for the FrozenQubits reproduction.
//!
//! The paper's baseline compiles every QAOA circuit "using IBM's Qiskit
//! tool-chain with noise-adaptive routing and the highest optimization
//! level 3" (§4.2) onto heavy-hex IBM devices, and studies a 50×50 grid at
//! practical scale (§6). This crate rebuilds that tool-chain:
//!
//! * [`Topology`] — coupling graphs: linear, grid, IBM Falcon/Hummingbird/
//!   Eagle heavy-hex lattices, with all-pairs distances;
//! * [`Device`] — topology plus seeded synthetic calibration (CNOT error,
//!   readout error, `T1`/`T2`, durations) for the 8 IBMQ machines of
//!   Fig. 13, the ideal device and the optimistic 50×50 grid, with a
//!   stable [`Fnv64`] fingerprint of that calibration;
//! * [`choose_layout`] — trivial and noise-adaptive initial placement;
//! * [`route`] — deterministic SABRE-style SWAP routing;
//! * [`pass`] — CX-pair cancellation, `Rz` merging, SWAP decomposition;
//! * [`schedule`] — ASAP scheduling under the device's gate durations;
//! * [`compile`] — the full pipeline producing a [`Compiled`] artifact;
//! * [`compiled_to_value`] / [`compiled_from_value`] — the canonical JSON
//!   document form of a [`Compiled`] artifact, bit-exact across
//!   serialize → parse, so templates can spill to disk and travel
//!   between shards.
//!
//! # Example
//!
//! ```
//! use fq_circuit::build_qaoa_circuit;
//! use fq_ising::IsingModel;
//! use fq_transpile::{compile, CompileOptions, Device};
//!
//! let mut m = IsingModel::new(5);
//! for i in 1..5 {
//!     m.set_coupling(0, i, 1.0)?; // a 4-spoke star: node 0 is the hotspot
//! }
//! let qc = build_qaoa_circuit(&m, 1)?;
//! let compiled = compile(&qc, &Device::ibm_montreal(), CompileOptions::level3())?;
//! // Heavy-hex connectivity forces SWAPs beyond the 8 ideal CNOTs.
//! assert!(compiled.stats.cnot_count >= 8);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compile;
mod device;
mod error;
mod fnv;
mod layout;
pub mod pass;
mod route;
mod schedule;
mod topology;
mod wire;

pub use compile::{compile, compile_invocations, CompileOptions, Compiled};
pub use device::{Device, GateDurations};
pub use error::TranspileError;
pub use fnv::Fnv64;
pub use layout::{choose_layout, LayoutStrategy};
pub use route::{route, Routed};
pub use schedule::{gate_duration, schedule, Schedule};
pub use topology::{Topology, FALCON_27_EDGES};
pub use wire::{compiled_from_value, compiled_to_value};
