//! The Ising Hamiltonian representation (Eq. 1 and Table 2 of the paper).

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::{IsingError, Spin, SpinVec};

/// An Ising Hamiltonian `C(z) = Σ h_i z_i + Σ_{i<j} J_ij z_i z_j + offset`.
///
/// Variables are indexed `0..num_vars` and take values in `{−1, +1}`.
/// Quadratic coefficients are stored once per unordered pair with the
/// canonical key `(i, j), i < j`; setting `J(j, i)` is equivalent to setting
/// `J(i, j)`.
///
/// In the graph view used throughout the paper, `J_ij` is the weight of edge
/// `(i, j)` and `h_i` the weight of node `i`; a node's *degree* is its number
/// of incident non-zero couplings, and the highest-degree nodes are the
/// *hotspots* that FrozenQubits freezes.
///
/// # Example
///
/// ```
/// use fq_ising::{IsingModel, SpinVec};
///
/// let mut m = IsingModel::new(3);
/// m.set_coupling(0, 1, 1.0)?;
/// m.set_coupling(1, 2, -1.0)?;
/// m.set_linear(0, 0.5)?;
/// m.set_offset(2.0);
///
/// // C(z) for z = (+1, +1, +1): 0.5 + (1 - 1) + 2 = 2.5
/// assert_eq!(m.energy(&SpinVec::all_up(3))?, 2.5);
/// # Ok::<(), fq_ising::IsingError>(())
/// ```
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct IsingModel {
    num_vars: usize,
    h: Vec<f64>,
    couplings: BTreeMap<(usize, usize), f64>,
    offset: f64,
}

impl IsingModel {
    /// Creates a model over `num_vars` variables with all coefficients zero.
    #[must_use]
    pub fn new(num_vars: usize) -> IsingModel {
        IsingModel {
            num_vars,
            h: vec![0.0; num_vars],
            couplings: BTreeMap::new(),
            offset: 0.0,
        }
    }

    /// Number of spin variables.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Number of stored (non-zero) quadratic terms, `|J|` in §3.8.
    #[must_use]
    pub fn num_couplings(&self) -> usize {
        self.couplings.len()
    }

    /// The constant offset term.
    #[must_use]
    pub fn offset(&self) -> f64 {
        self.offset
    }

    /// Sets the constant offset term.
    pub fn set_offset(&mut self, offset: f64) {
        self.offset = offset;
    }

    /// The linear coefficient `h_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_vars`.
    #[must_use]
    pub fn linear(&self, i: usize) -> f64 {
        self.h[i]
    }

    /// Sets the linear coefficient `h_i`.
    ///
    /// # Errors
    ///
    /// Returns [`IsingError::VariableOutOfRange`] if `i >= num_vars` and
    /// [`IsingError::NonFiniteCoefficient`] for NaN/infinite values.
    pub fn set_linear(&mut self, i: usize, value: f64) -> Result<(), IsingError> {
        self.check_var(i)?;
        check_finite(value, || format!("h[{i}]"))?;
        self.h[i] = value;
        Ok(())
    }

    /// Adds to the linear coefficient `h_i`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`IsingModel::set_linear`].
    pub fn add_linear(&mut self, i: usize, delta: f64) -> Result<(), IsingError> {
        self.check_var(i)?;
        check_finite(delta, || format!("h[{i}]"))?;
        self.h[i] += delta;
        Ok(())
    }

    /// The quadratic coefficient of the unordered pair `{i, j}` (0 if unset).
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or `i == j`.
    #[must_use]
    pub fn coupling(&self, i: usize, j: usize) -> f64 {
        assert!(i != j, "self-coupling queried");
        assert!(i < self.num_vars && j < self.num_vars, "index out of range");
        let key = canonical(i, j);
        self.couplings.get(&key).copied().unwrap_or(0.0)
    }

    /// Sets the quadratic coefficient of the unordered pair `{i, j}`.
    ///
    /// Setting a coefficient to exactly `0.0` removes the term (and the edge
    /// from the graph view).
    ///
    /// # Errors
    ///
    /// Returns [`IsingError::SelfCoupling`] if `i == j`,
    /// [`IsingError::VariableOutOfRange`] for out-of-range indices and
    /// [`IsingError::NonFiniteCoefficient`] for NaN/infinite values.
    pub fn set_coupling(&mut self, i: usize, j: usize, value: f64) -> Result<(), IsingError> {
        self.check_var(i)?;
        self.check_var(j)?;
        if i == j {
            return Err(IsingError::SelfCoupling(i));
        }
        check_finite(value, || format!("J[{i},{j}]"))?;
        let key = canonical(i, j);
        if value == 0.0 {
            self.couplings.remove(&key);
        } else {
            self.couplings.insert(key, value);
        }
        Ok(())
    }

    /// Adds to the quadratic coefficient of the unordered pair `{i, j}`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`IsingModel::set_coupling`].
    pub fn add_coupling(&mut self, i: usize, j: usize, delta: f64) -> Result<(), IsingError> {
        let current = {
            self.check_var(i)?;
            self.check_var(j)?;
            if i == j {
                return Err(IsingError::SelfCoupling(i));
            }
            self.couplings.get(&canonical(i, j)).copied().unwrap_or(0.0)
        };
        self.set_coupling(i, j, current + delta)
    }

    /// Iterates over the quadratic terms as `((i, j), J_ij)` with `i < j`.
    pub fn couplings(&self) -> impl Iterator<Item = ((usize, usize), f64)> + '_ {
        self.couplings.iter().map(|(&k, &v)| (k, v))
    }

    /// Iterates over `(i, h_i)` for **all** variables, including zeros.
    pub fn linears(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.h.iter().copied().enumerate()
    }

    /// Evaluates `C(z)` for a full assignment.
    ///
    /// # Errors
    ///
    /// Returns [`IsingError::DimensionMismatch`] if `z.len() != num_vars`.
    pub fn energy(&self, z: &SpinVec) -> Result<f64, IsingError> {
        self.energy_of(z.as_slice())
    }

    /// Evaluates `C(z)` for a full assignment given as a spin slice.
    ///
    /// # Errors
    ///
    /// Returns [`IsingError::DimensionMismatch`] if `z.len() != num_vars`.
    pub fn energy_of(&self, z: &[Spin]) -> Result<f64, IsingError> {
        if z.len() != self.num_vars {
            return Err(IsingError::DimensionMismatch {
                got: z.len(),
                expected: self.num_vars,
            });
        }
        let mut e = self.offset;
        for (i, &hi) in self.h.iter().enumerate() {
            if hi != 0.0 {
                e += hi * z[i].as_f64();
            }
        }
        for (&(i, j), &jij) in &self.couplings {
            e += jij * z[i].as_f64() * z[j].as_f64();
        }
        Ok(e)
    }

    /// The degree (number of incident non-zero couplings) of each variable.
    #[must_use]
    pub fn degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.num_vars];
        for &(i, j) in self.couplings.keys() {
            deg[i] += 1;
            deg[j] += 1;
        }
        deg
    }

    /// The degree of a single variable.
    ///
    /// # Panics
    ///
    /// Panics if `i >= num_vars`.
    #[must_use]
    pub fn degree(&self, i: usize) -> usize {
        assert!(i < self.num_vars, "index out of range");
        self.couplings
            .keys()
            .filter(|&&(a, b)| a == i || b == i)
            .count()
    }

    /// Adjacency list: `adjacency()[i]` holds `(j, J_ij)` for each neighbour.
    #[must_use]
    pub fn adjacency(&self) -> Vec<Vec<(usize, f64)>> {
        let mut adj = vec![Vec::new(); self.num_vars];
        for (&(i, j), &jij) in &self.couplings {
            adj[i].push((j, jij));
            adj[j].push((i, jij));
        }
        adj
    }

    /// Variables sorted by degree, highest first; ties broken by lower index.
    ///
    /// The first `m` entries are the *hotspots* FrozenQubits freezes (§3.5).
    #[must_use]
    pub fn hotspots(&self) -> Vec<usize> {
        let deg = self.degrees();
        let mut order: Vec<usize> = (0..self.num_vars).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(deg[i]), i));
        order
    }

    /// Whether every linear coefficient is exactly zero.
    ///
    /// This is the precondition of the spin-flip symmetry theorem (§3.7.2):
    /// when it holds, `C(z) = C(−z)` for every `z`.
    #[must_use]
    pub fn has_zero_linear_terms(&self) -> bool {
        self.h.iter().all(|&hi| hi == 0.0)
    }

    fn check_var(&self, i: usize) -> Result<(), IsingError> {
        if i >= self.num_vars {
            Err(IsingError::VariableOutOfRange {
                index: i,
                num_vars: self.num_vars,
            })
        } else {
            Ok(())
        }
    }
}

impl fmt::Debug for IsingModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "IsingModel {{ vars: {}, couplings: {}, offset: {} }}",
            self.num_vars,
            self.couplings.len(),
            self.offset
        )
    }
}

impl fmt::Display for IsingModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "C(z) =")?;
        let mut first = true;
        for (i, hi) in self.linears() {
            if hi != 0.0 {
                write!(f, "{}{hi}·z{i}", sep(&mut first))?;
            }
        }
        for ((i, j), jij) in self.couplings() {
            write!(f, "{}{jij}·z{i}z{j}", sep(&mut first))?;
        }
        if self.offset != 0.0 || first {
            write!(f, "{}{}", sep(&mut first), self.offset)?;
        }
        Ok(())
    }
}

fn sep(first: &mut bool) -> &'static str {
    if *first {
        *first = false;
        " "
    } else {
        " + "
    }
}

fn canonical(i: usize, j: usize) -> (usize, usize) {
    if i < j {
        (i, j)
    } else {
        (j, i)
    }
}

fn check_finite(v: f64, place: impl FnOnce() -> String) -> Result<(), IsingError> {
    if v.is_finite() {
        Ok(())
    } else {
        Err(IsingError::NonFiniteCoefficient { place: place() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> IsingModel {
        let mut m = IsingModel::new(3);
        m.set_coupling(0, 1, 1.0).unwrap();
        m.set_coupling(0, 2, 1.0).unwrap();
        m.set_coupling(1, 2, 1.0).unwrap();
        m
    }

    #[test]
    fn energy_matches_hand_computation() {
        let mut m = triangle();
        m.set_linear(0, 0.5).unwrap();
        m.set_offset(1.0);
        // z = (+1, -1, -1): 0.5 + (-1 - 1 + 1) + 1 = 0.5
        let z = SpinVec::from_bits(&[0, 1, 1]);
        assert!((m.energy(&z).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn coupling_is_symmetric_in_indices() {
        let mut m = IsingModel::new(4);
        m.set_coupling(3, 1, -2.0).unwrap();
        assert_eq!(m.coupling(1, 3), -2.0);
        assert_eq!(m.coupling(3, 1), -2.0);
        assert_eq!(m.num_couplings(), 1);
    }

    #[test]
    fn setting_zero_removes_edge() {
        let mut m = triangle();
        assert_eq!(m.num_couplings(), 3);
        m.set_coupling(0, 1, 0.0).unwrap();
        assert_eq!(m.num_couplings(), 2);
        assert_eq!(m.degree(0), 1);
    }

    #[test]
    fn rejects_bad_indices_and_values() {
        let mut m = IsingModel::new(2);
        assert!(matches!(
            m.set_coupling(0, 5, 1.0),
            Err(IsingError::VariableOutOfRange { .. })
        ));
        assert!(matches!(
            m.set_coupling(1, 1, 1.0),
            Err(IsingError::SelfCoupling(1))
        ));
        assert!(matches!(
            m.set_linear(0, f64::NAN),
            Err(IsingError::NonFiniteCoefficient { .. })
        ));
        assert!(matches!(
            m.energy(&SpinVec::all_up(3)),
            Err(IsingError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn degrees_and_hotspots() {
        let mut m = IsingModel::new(5);
        // Star around 2 plus one extra edge: degrees [2,1,3,1,1].
        m.set_coupling(2, 0, 1.0).unwrap();
        m.set_coupling(2, 1, 1.0).unwrap();
        m.set_coupling(2, 3, 1.0).unwrap();
        m.set_coupling(0, 4, 1.0).unwrap();
        assert_eq!(m.degrees(), vec![2, 1, 3, 1, 1]);
        assert_eq!(m.hotspots()[0], 2);
        assert_eq!(m.hotspots()[1], 0);
    }

    #[test]
    fn zero_linear_detection() {
        let mut m = triangle();
        assert!(m.has_zero_linear_terms());
        m.set_linear(2, 0.1).unwrap();
        assert!(!m.has_zero_linear_terms());
    }

    #[test]
    fn adjacency_is_consistent() {
        let m = triangle();
        let adj = m.adjacency();
        assert_eq!(adj[0].len(), 2);
        assert_eq!(adj[1].len(), 2);
        assert_eq!(adj[2].len(), 2);
    }

    #[test]
    fn display_contains_terms() {
        let mut m = IsingModel::new(2);
        m.set_coupling(0, 1, 2.0).unwrap();
        m.set_linear(0, -1.0).unwrap();
        let s = m.to_string();
        assert!(s.contains("z0z1"), "{s}");
        assert!(s.contains("-1"), "{s}");
    }
}
