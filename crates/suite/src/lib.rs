//! `fq-suite`: a declarative scenario corpus with a runner, combine
//! step, and regression reports.
//!
//! The workload space the paper cares about — Barabási–Albert, random
//! regular, power-law airport Max-Cut, portfolio QUBO, plus the
//! adversarial shapes (dense couplings, degenerate spectra,
//! freeze-heavy, zero-weight, offset-only) — lives as named JSON
//! *scenarios* under `suites/`, each deserializing into a
//! [`frozenqubits::api::JobSpec`] through the public job API. One CLI
//! drives it:
//!
//! ```text
//! fq-suite run core                       # in-process, via BatchRunner
//! fq-suite run core --live 127.0.0.1:891  # against a live shard/dispatcher
//! fq-suite combine --out merged.json a.json b.json
//! fq-suite report merged.json             # reports/core.md + BENCH_suite.json
//! ```
//!
//! The contracts, pinned by `crates/suite/tests/`:
//!
//! * **Determinism** — the scenario section of a run file is a pure
//!   function of the corpus: byte-identical across reruns, processes,
//!   and in-process vs live execution.
//! * **Identity** — records are keyed by scenario id and cross-checked
//!   by [`JobSpec::spec_fingerprint`](frozenqubits::api::JobSpec::spec_fingerprint);
//!   `combine` fails loudly when two runs disagree.
//! * **Single source** — model construction lives in [`models`]; the
//!   bench binaries and examples build through it, never ad hoc.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::path::PathBuf;

pub mod models;
pub mod report;
pub mod runner;
pub mod scenario;

pub use report::{combine, render_bench_json, render_markdown};
pub use runner::{run_suite, Counters, RunMode, RunTiming, ScenarioRecord, SuiteRun};
pub use scenario::{suite_path, Scenario, ScenarioProblem, Suite};

/// Locates the scenario corpus directory: `$FQ_SUITE_DIR` if set, else
/// `./suites` if present (the repo-root invocation), else the
/// workspace `suites/` next to this crate (so tests and tools work
/// from any working directory).
#[must_use]
pub fn corpus_dir() -> PathBuf {
    if let Ok(dir) = std::env::var("FQ_SUITE_DIR") {
        return PathBuf::from(dir);
    }
    let local = PathBuf::from("suites");
    if local.is_dir() {
        return local;
    }
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../suites")
}
