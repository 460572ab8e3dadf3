//! Pipeline configuration.

use fq_transpile::CompileOptions;
use serde::{Deserialize, Serialize};

use crate::{ExecutorKind, HotspotStrategy};

/// The per-job accuracy/speed contract.
///
/// `Exact` is the bit-identical reference path and the default; the
/// approximate tiers trade a bounded amount of accuracy for
/// throughput, and every non-exact [`JobResult`](crate::api::JobResult)
/// carries an [`ErrorModel`](crate::api::ErrorModel) describing exactly
/// what was traded. Approximate tiers are still deterministic per
/// `(spec, seed)`: same spec + same seed ⇒ byte-identical results
/// across processes and thread counts.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum QosTier {
    /// Today's bit-identical path (full-resolution landscape scan,
    /// full Nelder–Mead, exact trig, full lightcone walk).
    #[default]
    Exact,
    /// Coarse-to-fine landscape scan with local refinement, early-exit
    /// Nelder–Mead, truncated lightcone radius.
    Balanced,
    /// Seeded term-sampled landscape over a polynomial `sin`/`cos`
    /// fast-math path, no simplex polish, depth-0 lightcone.
    Fast,
}

impl QosTier {
    /// The wire tag (`"exact"` / `"balanced"` / `"fast"`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            QosTier::Exact => "exact",
            QosTier::Balanced => "balanced",
            QosTier::Fast => "fast",
        }
    }

    /// Parses a wire tag; `None` for unknown names.
    #[must_use]
    pub fn from_name(name: &str) -> Option<QosTier> {
        match name {
            "exact" => Some(QosTier::Exact),
            "balanced" => Some(QosTier::Balanced),
            "fast" => Some(QosTier::Fast),
            _ => None,
        }
    }

    /// Whether this is the bit-identical reference tier.
    #[must_use]
    pub fn is_exact(self) -> bool {
        self == QosTier::Exact
    }

    /// All tiers, in contract order (exact → balanced → fast).
    pub const ALL: [QosTier; 3] = [QosTier::Exact, QosTier::Balanced, QosTier::Fast];
}

/// Configuration of the FrozenQubits pipeline.
///
/// The defaults follow the paper: freeze up to `m = 1` hotspot by maximum
/// degree, single-layer QAOA (`p = 1`, as in the hardware evaluation),
/// symmetry pruning on, level-3-style compilation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FrozenQubitsConfig {
    /// Number of qubits to freeze (`m`). The paper's default design uses
    /// 1–2; its scaling study goes to 10.
    pub num_frozen: usize,
    /// QAOA layers (`p`).
    pub layers: usize,
    /// Hotspot selection policy.
    pub hotspots: HotspotStrategy,
    /// Skip symmetric partner sub-problems (§3.7.2). Only effective when
    /// the parent model has all-zero linear coefficients.
    pub prune_symmetric: bool,
    /// Transpiler options.
    pub compile: CompileOptions,
    /// Resolution of the coarse `(γ, β)` grid that seeds the parameter
    /// optimizer.
    pub param_grid: usize,
    /// Seed for any stochastic component.
    pub seed: u64,
    /// How branches are scheduled (sequential, or fanned out across
    /// threads). All kinds produce bit-identical results; parallel is
    /// the default. Orthogonal to the job-level
    /// [`BackendSpec`](crate::api::BackendSpec), which picks the physics.
    pub executor: ExecutorKind,
    /// The accuracy/speed contract. `Exact` (default) keeps the
    /// bit-identical path; approximate tiers are described by the
    /// [`ErrorModel`](crate::api::ErrorModel) their results carry.
    pub tier: QosTier,
}

impl Default for FrozenQubitsConfig {
    fn default() -> Self {
        FrozenQubitsConfig {
            num_frozen: 1,
            layers: 1,
            hotspots: HotspotStrategy::MaxDegree,
            prune_symmetric: true,
            compile: CompileOptions::level3(),
            param_grid: 15,
            seed: 0,
            executor: ExecutorKind::default(),
            tier: QosTier::Exact,
        }
    }
}

impl FrozenQubitsConfig {
    /// A configuration freezing `m` qubits, other fields default.
    #[must_use]
    pub fn with_frozen(m: usize) -> FrozenQubitsConfig {
        FrozenQubitsConfig {
            num_frozen: m,
            ..FrozenQubitsConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = FrozenQubitsConfig::default();
        assert_eq!(c.num_frozen, 1);
        assert_eq!(c.layers, 1);
        assert!(c.prune_symmetric);
        assert_eq!(c.hotspots, HotspotStrategy::MaxDegree);
    }

    #[test]
    fn with_frozen_sets_m() {
        assert_eq!(FrozenQubitsConfig::with_frozen(3).num_frozen, 3);
    }
}
