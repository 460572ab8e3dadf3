//! Symbolic rotation angles for parametric QAOA circuits.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::CircuitError;

/// A rotation angle that is either a concrete number or a scaled QAOA
/// parameter.
///
/// QAOA circuits with `p` layers carry `2p` trainable parameters
/// `(γ_1..γ_p, β_1..β_p)`. Every rotation in the circuit is a fixed problem
/// coefficient times one of these parameters — e.g. the phase-splitting
/// rotation for edge `(i, j)` in layer `l` is `Rz(2·J_ij·γ_l)`, represented
/// as `Angle::Gamma { layer: l, scale: 2·J_ij, term }`.
///
/// The `term` field records **which Hamiltonian term** the rotation encodes
/// (see [`crate::build_qaoa_circuit`] for the numbering). It is what makes
/// the template editing of §3.7.1 robust: after routing reorders and maps
/// gates, each rotation still knows its term, so re-targeting a compiled
/// circuit to a sibling sub-problem is a scale rewrite — no recompilation.
///
/// # Example
///
/// ```
/// use fq_circuit::Angle;
///
/// let a = Angle::Gamma { layer: 0, scale: 2.0, term: 5 };
/// assert_eq!(a.bind(&[0.25], &[]).unwrap(), 0.5);
/// assert_eq!(Angle::Constant(1.5).bind(&[], &[]).unwrap(), 1.5);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Angle {
    /// A fully bound angle in radians.
    Constant(f64),
    /// `scale · γ_layer` (zero-based layer index).
    Gamma {
        /// Which QAOA layer's `γ` this angle uses.
        layer: usize,
        /// The multiplier applied to `γ` (typically `2·J_ij` or `2·h_i`).
        scale: f64,
        /// Canonical index of the Hamiltonian term this rotation encodes.
        term: usize,
    },
    /// `scale · β_layer` (zero-based layer index).
    Beta {
        /// Which QAOA layer's `β` this angle uses.
        layer: usize,
        /// The multiplier applied to `β` (typically `2`).
        scale: f64,
    },
}

impl Angle {
    /// Resolves the angle against concrete parameter vectors.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::LayerOutOfRange`] if a symbolic angle refers
    /// to a layer beyond the supplied vectors.
    pub fn bind(&self, gammas: &[f64], betas: &[f64]) -> Result<f64, CircuitError> {
        match *self {
            Angle::Constant(v) => Ok(v),
            Angle::Gamma { layer, scale, .. } => {
                gammas
                    .get(layer)
                    .map(|g| scale * g)
                    .ok_or(CircuitError::LayerOutOfRange {
                        layer,
                        layers: gammas.len(),
                    })
            }
            Angle::Beta { layer, scale } => {
                betas
                    .get(layer)
                    .map(|b| scale * b)
                    .ok_or(CircuitError::LayerOutOfRange {
                        layer,
                        layers: betas.len(),
                    })
            }
        }
    }

    /// Whether the angle still references a trainable parameter.
    #[must_use]
    pub fn is_symbolic(&self) -> bool {
        !matches!(self, Angle::Constant(_))
    }

    /// Attempts to fuse with another angle (for adjacent-`Rz` merging):
    /// succeeds for two constants, or two symbols of the same kind, layer
    /// **and term** (so fused rotations remain re-targetable).
    #[must_use]
    pub fn try_add(&self, other: &Angle) -> Option<Angle> {
        match (*self, *other) {
            (Angle::Constant(a), Angle::Constant(b)) => Some(Angle::Constant(a + b)),
            (
                Angle::Gamma {
                    layer: la,
                    scale: sa,
                    term: ta,
                },
                Angle::Gamma {
                    layer: lb,
                    scale: sb,
                    term: tb,
                },
            ) if la == lb && ta == tb => Some(Angle::Gamma {
                layer: la,
                scale: sa + sb,
                term: ta,
            }),
            (
                Angle::Beta {
                    layer: la,
                    scale: sa,
                },
                Angle::Beta {
                    layer: lb,
                    scale: sb,
                },
            ) if la == lb => Some(Angle::Beta {
                layer: la,
                scale: sa + sb,
            }),
            _ => None,
        }
    }

    /// Whether the angle is identically zero (rotation is a no-op).
    #[must_use]
    pub fn is_zero(&self) -> bool {
        match *self {
            Angle::Constant(v) => v == 0.0,
            Angle::Gamma { scale, .. } | Angle::Beta { scale, .. } => scale == 0.0,
        }
    }
}

impl Default for Angle {
    fn default() -> Self {
        Angle::Constant(0.0)
    }
}

impl From<f64> for Angle {
    fn from(v: f64) -> Angle {
        Angle::Constant(v)
    }
}

impl fmt::Display for Angle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Angle::Constant(v) => write!(f, "{v}"),
            Angle::Gamma { layer, scale, .. } => write!(f, "{scale}·γ{layer}"),
            Angle::Beta { layer, scale } => write!(f, "{scale}·β{layer}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binds_each_kind() {
        let g = Angle::Gamma {
            layer: 1,
            scale: 3.0,
            term: 0,
        };
        let b = Angle::Beta {
            layer: 0,
            scale: -2.0,
        };
        assert_eq!(g.bind(&[0.0, 0.5], &[]).unwrap(), 1.5);
        assert_eq!(b.bind(&[], &[0.25]).unwrap(), -0.5);
        assert!(g.bind(&[0.1], &[]).is_err());
    }

    #[test]
    fn try_add_fuses_compatible_angles() {
        let a = Angle::Gamma {
            layer: 0,
            scale: 1.0,
            term: 4,
        };
        let b = Angle::Gamma {
            layer: 0,
            scale: 2.0,
            term: 4,
        };
        assert_eq!(
            a.try_add(&b),
            Some(Angle::Gamma {
                layer: 0,
                scale: 3.0,
                term: 4
            })
        );
        let other_layer = Angle::Gamma {
            layer: 1,
            scale: 2.0,
            term: 4,
        };
        assert_eq!(a.try_add(&other_layer), None);
        let other_term = Angle::Gamma {
            layer: 0,
            scale: 2.0,
            term: 5,
        };
        assert_eq!(a.try_add(&other_term), None);
        assert_eq!(
            Angle::Constant(1.0).try_add(&Angle::Constant(0.5)),
            Some(Angle::Constant(1.5))
        );
        assert_eq!(
            a.try_add(&Angle::Beta {
                layer: 0,
                scale: 1.0
            }),
            None
        );
    }

    #[test]
    fn zero_detection_and_rescale() {
        assert!(Angle::Constant(0.0).is_zero());
        assert!(Angle::Gamma {
            layer: 0,
            scale: 0.0,
            term: 0
        }
        .is_zero());
        assert!(!Angle::Beta {
            layer: 0,
            scale: 0.1
        }
        .is_zero());
    }
}
