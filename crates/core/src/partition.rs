//! Partitioning a problem into sub-problems with symmetry pruning
//! (§3.3 + §3.7.2).

use fq_ising::symmetry::{partner_mask, representative_masks};
use fq_ising::{FrozenProblem, IsingModel, Spin};
use serde::{Deserialize, Serialize};

use crate::FqError;

/// One sub-problem scheduled for execution, together with its pruned
/// symmetric partner (if any).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SubproblemExec {
    /// The frozen sub-problem to actually run.
    pub problem: FrozenProblem,
    /// The branch bitmask (bit `t` set ⇒ frozen qubit `t` is `−1`).
    pub mask: u64,
    /// The bitmask of the symmetric partner this execution also covers
    /// (its outcomes are the bit-flips of this one's). `None` when the
    /// parent is not symmetric or `m = 0`.
    pub partner_mask: Option<u64>,
}

/// The full execution plan for freezing a set of qubits.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    /// Sub-problems to execute.
    pub executed: Vec<SubproblemExec>,
    /// The frozen qubit indices, in freeze order.
    pub frozen_qubits: Vec<usize>,
    /// Whether symmetry pruning halved the execution set.
    pub pruned: bool,
}

impl Partition {
    /// Total number of sub-spaces the state space was divided into
    /// (`2^m`), counting pruned partners.
    #[must_use]
    pub fn total_subspaces(&self) -> u64 {
        1u64 << self.frozen_qubits.len()
    }

    /// Number of circuits actually executed (the paper's *quantum cost*;
    /// `2^{m−1}` under pruning).
    #[must_use]
    pub fn quantum_cost(&self) -> u64 {
        self.executed.len() as u64
    }
}

/// The most qubits one job may freeze. Freezing `m` qubits enumerates
/// `2^m` sub-spaces as `u64` branch masks, so `m` must stay far below the
/// mask width: the cap allows at most `2^16` sub-spaces (`2^15` executed
/// branches under symmetry pruning). The paper's scaling study freezes at
/// most 10.
pub const MAX_FROZEN_QUBITS: usize = 16;

/// Refuses a freeze count above [`MAX_FROZEN_QUBITS`]: the one error both
/// the spec refusal rules and [`partition_problem`] answer with.
pub(crate) fn check_frozen_count(m: usize) -> Result<(), FqError> {
    if m > MAX_FROZEN_QUBITS {
        return Err(FqError::InvalidConfig(format!(
            "freezing {m} qubits would enumerate 2^{m} sub-problems; \
             at most {MAX_FROZEN_QUBITS} qubits may be frozen"
        )));
    }
    Ok(())
}

/// Builds the execution plan for freezing `qubits` of `model`.
///
/// When the parent model is spin-flip symmetric (all `h_i = 0`, §3.7.2) and
/// `prune` is set, only the `2^{m−1}` branches whose first frozen spin is
/// `+1` are scheduled; each covers its all-spins-negated partner, whose
/// output distribution is recovered by flipping every bit.
///
/// # Errors
///
/// Returns [`FqError::InvalidConfig`] for more than
/// [`MAX_FROZEN_QUBITS`] qubits, before enumerating any branch, and
/// propagates freezing errors (bad indices, duplicates).
///
/// # Example
///
/// ```
/// use fq_ising::IsingModel;
/// use frozenqubits::partition_problem;
///
/// let mut m = IsingModel::new(4);
/// m.set_coupling(0, 1, 1.0)?;
/// m.set_coupling(0, 2, 1.0)?;
/// m.set_coupling(0, 3, -1.0)?;
///
/// // Freezing 2 qubits of a symmetric model: 4 sub-spaces, 2 executions.
/// let plan = partition_problem(&m, &[0, 1], true)?;
/// assert_eq!(plan.total_subspaces(), 4);
/// assert_eq!(plan.quantum_cost(), 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn partition_problem(
    model: &IsingModel,
    qubits: &[usize],
    prune: bool,
) -> Result<Partition, FqError> {
    let m = qubits.len();
    check_frozen_count(m)?;
    let symmetric = model.has_zero_linear_terms();
    let use_pruning = prune && symmetric && m >= 1;

    let masks: Vec<u64> = if use_pruning {
        representative_masks(m)
    } else {
        (0..(1u64 << m)).collect()
    };

    let mut executed = Vec::with_capacity(masks.len());
    for mask in masks {
        let assignment: Vec<(usize, Spin)> = qubits
            .iter()
            .enumerate()
            .map(|(t, &q)| {
                let s = if (mask >> t) & 1 == 0 {
                    Spin::UP
                } else {
                    Spin::DOWN
                };
                (q, s)
            })
            .collect();
        let problem = model.freeze(&assignment)?;
        executed.push(SubproblemExec {
            problem,
            mask,
            partner_mask: use_pruning.then(|| partner_mask(mask, m)),
        });
    }
    Ok(Partition {
        executed,
        frozen_qubits: qubits.to_vec(),
        pruned: use_pruning,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fq_ising::SpinVec;

    fn symmetric_model() -> IsingModel {
        let mut m = IsingModel::new(5);
        m.set_coupling(0, 1, 1.0).unwrap();
        m.set_coupling(0, 2, -1.0).unwrap();
        m.set_coupling(0, 3, 1.0).unwrap();
        m.set_coupling(3, 4, 1.0).unwrap();
        m
    }

    #[test]
    fn pruning_halves_executions() {
        let m = symmetric_model();
        for k in 1..=3usize {
            let qubits: Vec<usize> = (0..k).collect();
            let plan = partition_problem(&m, &qubits, true).unwrap();
            assert_eq!(plan.quantum_cost(), 1 << (k - 1));
            assert_eq!(plan.total_subspaces(), 1 << k);
            assert!(plan.pruned);
        }
    }

    #[test]
    fn no_pruning_without_symmetry() {
        let mut m = symmetric_model();
        m.set_linear(4, 0.5).unwrap();
        let plan = partition_problem(&m, &[0, 1], true).unwrap();
        assert_eq!(plan.quantum_cost(), 4);
        assert!(!plan.pruned);
        assert!(plan.executed.iter().all(|e| e.partner_mask.is_none()));
    }

    #[test]
    fn m_zero_runs_the_original_problem() {
        let m = symmetric_model();
        let plan = partition_problem(&m, &[], true).unwrap();
        assert_eq!(plan.quantum_cost(), 1);
        assert_eq!(plan.executed[0].problem.model(), &m);
    }

    #[test]
    fn executed_plus_partners_cover_every_subspace() {
        let m = symmetric_model();
        let plan = partition_problem(&m, &[0, 3], true).unwrap();
        let mut covered = std::collections::BTreeSet::new();
        for e in &plan.executed {
            covered.insert(e.mask);
            if let Some(p) = e.partner_mask {
                covered.insert(p);
            }
        }
        assert_eq!(covered.len(), 4);
    }

    #[test]
    fn freeze_counts_above_the_cap_are_refused_before_enumerating() {
        // At m = 64 an unchecked `1 << m` overflows the mask width.
        let wide = IsingModel::new(64);
        let qubits: Vec<usize> = (0..64).collect();
        for prune in [true, false] {
            assert!(matches!(
                partition_problem(&wide, &qubits, prune),
                Err(FqError::InvalidConfig(msg)) if msg.contains("at most 16 qubits")
            ));
        }
        // The cap itself still enumerates: 2^15 branches under pruning.
        let at_cap = IsingModel::new(MAX_FROZEN_QUBITS);
        let qubits: Vec<usize> = (0..MAX_FROZEN_QUBITS).collect();
        let plan = partition_problem(&at_cap, &qubits, true).unwrap();
        assert_eq!(plan.quantum_cost(), 1 << (MAX_FROZEN_QUBITS - 1));
    }

    #[test]
    fn partner_energies_mirror_exactly() {
        // The energy of any point in an executed branch equals the energy
        // of its bit-flip in the partner branch.
        let m = symmetric_model();
        let plan = partition_problem(&m, &[0], true).unwrap();
        let exec = &plan.executed[0];
        assert_eq!(exec.partner_mask, Some(1));
        let partner = partition_problem(&m, &[0], false)
            .unwrap()
            .executed
            .into_iter()
            .find(|e| e.mask == 1)
            .unwrap();
        for idx in 0..16u64 {
            let y = SpinVec::from_index(idx, 4);
            let e_exec = exec.problem.model().energy(&y).unwrap();
            let e_partner = partner.problem.model().energy(&y.flipped()).unwrap();
            assert!((e_exec - e_partner).abs() < 1e-12);
        }
    }
}
