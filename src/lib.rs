//! Umbrella crate of the FrozenQubits reproduction workspace.
//!
//! The actual library lives in the workspace crates — start with
//! [`frozenqubits`] (the framework) and its job API
//! (`frozenqubits::api`: `JobBuilder` → `JobSpec` → `JobResult`), and
//! see `README.md` for the layering. This package exists to host the
//! workspace-level `examples/` and `tests/` directories.

#![forbid(unsafe_code)]

pub use frozenqubits;

#[cfg(test)]
mod tests {
    #[test]
    fn umbrella_reexports_the_framework() {
        // Touch a symbol through the re-export so the path stays valid.
        let cfg = frozenqubits::FrozenQubitsConfig::default();
        assert_eq!(cfg.num_frozen, 1);
    }
}
