//! Measurement-outcome distributions and expectation values.
//!
//! Running a QAOA circuit for `τ` trials yields a histogram of measured
//! bitstrings; the classical optimizer consumes the **expectation value** of
//! the Hamiltonian under that histogram, and the final answer is the best
//! single outcome. [`OutputDistribution`] models both uses, plus the global
//! bit-flip transform that infers a pruned sub-problem's distribution from
//! its symmetric partner (§3.7.2).

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::{IsingError, IsingModel, SpinVec};

/// A histogram of measured spin configurations.
///
/// # Example
///
/// ```
/// use fq_ising::{IsingModel, OutputDistribution, SpinVec};
///
/// let mut m = IsingModel::new(2);
/// m.set_coupling(0, 1, 1.0)?;
///
/// let mut d = OutputDistribution::new(2);
/// d.record(SpinVec::from_bits(&[0, 1]), 3); // energy −1
/// d.record(SpinVec::from_bits(&[0, 0]), 1); // energy +1
/// assert_eq!(d.total_shots(), 4);
/// assert_eq!(d.expectation(&m)?, (3.0 * -1.0 + 1.0) / 4.0);
/// # Ok::<(), fq_ising::IsingError>(())
/// ```
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct OutputDistribution {
    num_vars: usize,
    counts: HashMap<SpinVec, u64>,
    total: u64,
}

impl OutputDistribution {
    /// Creates an empty distribution over `num_vars` spins.
    #[must_use]
    pub fn new(num_vars: usize) -> OutputDistribution {
        OutputDistribution {
            num_vars,
            counts: HashMap::new(),
            total: 0,
        }
    }

    /// Number of spin variables per outcome.
    #[must_use]
    pub fn num_vars(&self) -> usize {
        self.num_vars
    }

    /// Total number of recorded shots.
    #[must_use]
    pub fn total_shots(&self) -> u64 {
        self.total
    }

    /// Records `count` observations of `outcome`.
    ///
    /// # Panics
    ///
    /// Panics if the outcome length does not match `num_vars`.
    pub fn record(&mut self, outcome: SpinVec, count: u64) {
        assert_eq!(
            outcome.len(),
            self.num_vars,
            "outcome length {} != distribution width {}",
            outcome.len(),
            self.num_vars
        );
        *self.counts.entry(outcome).or_insert(0) += count;
        self.total += count;
    }

    /// Iterates over `(outcome, count)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (&SpinVec, u64)> + '_ {
        self.counts.iter().map(|(k, &v)| (k, v))
    }

    /// The empirical probability of `outcome` (0 if never seen or empty).
    #[must_use]
    pub fn probability(&self, outcome: &SpinVec) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        self.counts.get(outcome).copied().unwrap_or(0) as f64 / self.total as f64
    }

    /// The expectation value `⟨C⟩ = Σ p(z)·C(z)` under this distribution.
    ///
    /// # Errors
    ///
    /// Returns [`IsingError::Empty`] for an empty distribution and
    /// [`IsingError::DimensionMismatch`] if the model width differs.
    pub fn expectation(&self, model: &IsingModel) -> Result<f64, IsingError> {
        if self.total == 0 {
            return Err(IsingError::Empty);
        }
        let mut acc = 0.0;
        for (z, c) in self.iter() {
            acc += model.energy(z)? * c as f64;
        }
        Ok(acc / self.total as f64)
    }

    /// The lowest-energy outcome observed and its energy. Energy ties go
    /// to the lexicographically smallest outcome, so the result never
    /// depends on the map's iteration order (two runs recording the same
    /// outcomes always agree, whatever order they saw them in).
    ///
    /// # Errors
    ///
    /// Returns [`IsingError::Empty`] for an empty distribution and
    /// [`IsingError::DimensionMismatch`] if the model width differs.
    pub fn best(&self, model: &IsingModel) -> Result<(SpinVec, f64), IsingError> {
        let mut best: Option<(SpinVec, f64)> = None;
        for (z, _) in self.iter() {
            let e = model.energy(z)?;
            let better = match &best {
                None => true,
                Some((bz, be)) => e < *be || (e == *be && z < bz),
            };
            if better {
                best = Some((z.clone(), e));
            }
        }
        best.ok_or(IsingError::Empty)
    }

    /// The most frequently observed outcome.
    ///
    /// # Errors
    ///
    /// Returns [`IsingError::Empty`] for an empty distribution.
    pub fn mode(&self) -> Result<(SpinVec, u64), IsingError> {
        self.counts
            .iter()
            .max_by_key(|&(z, &c)| (c, std::cmp::Reverse(z.clone())))
            .map(|(z, &c)| (z.clone(), c))
            .ok_or(IsingError::Empty)
    }

    /// The distribution with **every bit of every outcome flipped** — the
    /// symmetric partner's distribution per §3.7.2.
    #[must_use]
    pub fn flipped(&self) -> OutputDistribution {
        let mut out = OutputDistribution::new(self.num_vars);
        for (z, c) in self.iter() {
            out.record(z.flipped(), c);
        }
        out
    }

    /// Merges another distribution into this one.
    ///
    /// # Errors
    ///
    /// Returns [`IsingError::DimensionMismatch`] if widths differ.
    pub fn merge(&mut self, other: &OutputDistribution) -> Result<(), IsingError> {
        if other.num_vars != self.num_vars {
            return Err(IsingError::DimensionMismatch {
                got: other.num_vars,
                expected: self.num_vars,
            });
        }
        for (z, c) in other.iter() {
            self.record(z.clone(), c);
        }
        Ok(())
    }

    /// Maps every outcome through a [`crate::FrozenProblem`] decode, producing a
    /// distribution over the parent problem's variables.
    ///
    /// # Errors
    ///
    /// Propagates decode errors on width mismatch.
    pub fn decode(&self, frozen: &crate::FrozenProblem) -> Result<OutputDistribution, IsingError> {
        let mut out = OutputDistribution::new(frozen.parent_vars());
        for (z, c) in self.iter() {
            out.record(frozen.decode(z)?, c);
        }
        Ok(out)
    }
}

impl FromIterator<(SpinVec, u64)> for OutputDistribution {
    /// Collects `(outcome, count)` pairs; the width is taken from the first
    /// outcome (empty input produces a zero-width distribution).
    fn from_iter<I: IntoIterator<Item = (SpinVec, u64)>>(iter: I) -> OutputDistribution {
        let mut it = iter.into_iter().peekable();
        let width = it.peek().map_or(0, |(z, _)| z.len());
        let mut d = OutputDistribution::new(width);
        for (z, c) in it {
            d.record(z, c);
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Spin;

    fn pair_model() -> IsingModel {
        let mut m = IsingModel::new(2);
        m.set_coupling(0, 1, 1.0).unwrap();
        m
    }

    #[test]
    fn expectation_weights_by_counts() {
        let m = pair_model();
        let mut d = OutputDistribution::new(2);
        d.record(SpinVec::from_bits(&[0, 0]), 1); // +1
        d.record(SpinVec::from_bits(&[0, 1]), 3); // −1
        assert!((d.expectation(&m).unwrap() - -0.5).abs() < 1e-12);
    }

    #[test]
    fn best_and_mode_differ_when_noise_dominates() {
        let m = pair_model();
        let mut d = OutputDistribution::new(2);
        d.record(SpinVec::from_bits(&[0, 0]), 10); // common but bad (+1)
        d.record(SpinVec::from_bits(&[1, 0]), 2); // rare but optimal (−1)
        assert_eq!(d.mode().unwrap().0, SpinVec::from_bits(&[0, 0]));
        assert_eq!(d.best(&m).unwrap().0, SpinVec::from_bits(&[1, 0]));
    }

    #[test]
    fn flipped_preserves_counts_and_symmetric_expectation() {
        let m = pair_model();
        let mut d = OutputDistribution::new(2);
        d.record(SpinVec::from_bits(&[0, 1]), 5);
        d.record(SpinVec::from_bits(&[0, 0]), 2);
        let f = d.flipped();
        assert_eq!(f.total_shots(), d.total_shots());
        assert_eq!(
            f.probability(&SpinVec::from_bits(&[1, 0])),
            d.probability(&SpinVec::from_bits(&[0, 1]))
        );
        // Symmetric model ⇒ identical expectation on the flipped distribution.
        assert!((d.expectation(&m).unwrap() - f.expectation(&m).unwrap()).abs() < 1e-12);
    }

    #[test]
    fn best_breaks_energy_ties_deterministically() {
        // A zero-coupling model makes every outcome's energy 0: all four
        // outcomes tie, so only the lexicographic rule can decide —
        // independent of the backing map's iteration order.
        let m = IsingModel::new(2);
        for _ in 0..8 {
            // Fresh maps get fresh hash seeds; the answer must not move.
            let mut d = OutputDistribution::new(2);
            for bits in [[1, 1], [0, 1], [1, 0], [0, 0]] {
                d.record(SpinVec::from_bits(&bits), 1);
            }
            let (z, e) = d.best(&m).unwrap();
            // Smallest by `SpinVec`'s ordering: DOWN (−1, bit 1) sorts
            // before UP (+1, bit 0), so the all-down outcome wins.
            assert_eq!(z, SpinVec::from_bits(&[1, 1]));
            assert_eq!(e, 0.0);
        }
    }

    #[test]
    fn decode_lifts_to_parent_space() {
        let mut parent = IsingModel::new(3);
        parent.set_coupling(0, 1, 1.0).unwrap();
        parent.set_coupling(1, 2, 1.0).unwrap();
        let frozen = parent.freeze(&[(1, Spin::DOWN)]).unwrap();

        let mut d = OutputDistribution::new(2);
        d.record(SpinVec::from_bits(&[0, 1]), 4);
        let lifted = d.decode(&frozen).unwrap();
        assert_eq!(lifted.num_vars(), 3);
        let expect = SpinVec::from_bits(&[0, 1, 1]); // frozen z1=−1 in the middle
        assert_eq!(lifted.probability(&expect), 1.0);
        // Sub-model expectation equals parent expectation of decoded dist.
        let e_sub = d.expectation(frozen.model()).unwrap();
        let e_parent = lifted.expectation(&parent).unwrap();
        assert!((e_sub - e_parent).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = OutputDistribution::new(1);
        a.record(SpinVec::from_bits(&[0]), 1);
        let mut b = OutputDistribution::new(1);
        b.record(SpinVec::from_bits(&[0]), 2);
        b.record(SpinVec::from_bits(&[1]), 3);
        a.merge(&b).unwrap();
        assert_eq!(a.total_shots(), 6);
        assert_eq!(a.iter().count(), 2);
        let wrong = OutputDistribution::new(2);
        assert!(a.merge(&wrong).is_err());
    }

    #[test]
    fn empty_distribution_errors() {
        let d = OutputDistribution::new(2);
        assert!(matches!(
            d.expectation(&pair_model()),
            Err(IsingError::Empty)
        ));
        assert!(matches!(d.best(&pair_model()), Err(IsingError::Empty)));
        assert!(matches!(d.mode(), Err(IsingError::Empty)));
    }

    #[test]
    fn collects_from_iterator() {
        let d: OutputDistribution =
            vec![(SpinVec::from_bits(&[0]), 2), (SpinVec::from_bits(&[1]), 1)]
                .into_iter()
                .collect();
        assert_eq!(d.total_shots(), 3);
        assert_eq!(d.num_vars(), 1);
    }
}
