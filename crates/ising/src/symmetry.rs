//! The spin-flip symmetry theorem of §3.7.2 and the sub-problem pruning it
//! enables.
//!
//! **Theorem.** If every linear coefficient of an Ising Hamiltonian is zero,
//! then `C(z) = C(−z)` for all `z`: each quadratic term `J_ij·z_i·z_j` is
//! invariant under the global flip because the product of two flipped spins
//! is unchanged. Consequently the number of global minima is even, and the
//! two sub-problems obtained by freezing any one qubit with `+1` / `−1` are
//! mirror images of one another.
//!
//! FrozenQubits exploits this to run only half of the `2^m` sub-problems:
//! each executed branch's partner is the branch with **all** frozen spins
//! negated, and the partner's output distribution is obtained by flipping
//! every bit of the executed branch's outcomes ([`partner_mask`],
//! [`representative_masks`]).

use crate::{IsingError, IsingModel, SpinVec};

/// Whether the model is symmetric under the global spin flip.
///
/// For Ising Hamiltonians this is exactly the condition "all linear
/// coefficients are zero" — sufficient by the theorem above, and necessary
/// because `C(z) − C(−z) = 2·Σ h_i z_i` which is non-zero somewhere unless
/// every `h_i` vanishes.
#[must_use]
pub fn is_spin_flip_symmetric(model: &IsingModel) -> bool {
    model.has_zero_linear_terms()
}

/// Exhaustively verifies `C(z) = C(−z)` over the whole state space.
///
/// Intended for tests and demonstrations; the analytic check
/// [`is_spin_flip_symmetric`] is `O(N)`.
///
/// # Errors
///
/// Returns [`IsingError::ProblemTooLarge`] for models with more than 24
/// variables.
pub fn verify_spin_flip_symmetry(model: &IsingModel) -> Result<bool, IsingError> {
    let n = model.num_vars();
    if n > 24 {
        return Err(IsingError::ProblemTooLarge {
            num_vars: n,
            limit: 24,
        });
    }
    for idx in 0..(1u64 << n) {
        let z = SpinVec::from_index(idx, n);
        let e = model.energy(&z)?;
        let ef = model.energy(&z.flipped())?;
        if (e - ef).abs() > 1e-9 {
            return Ok(false);
        }
    }
    Ok(true)
}

/// The bitmask of the branch that is the global-flip partner of `mask`
/// when `m` qubits are frozen: all `m` frozen spins negated.
///
/// Masks follow the convention of
/// [`enumerate_subproblems`](crate::enumerate_subproblems): bit `t` set
/// means frozen qubit `t` takes spin `−1`.
#[must_use]
pub fn partner_mask(mask: u64, m: usize) -> u64 {
    !mask & ((1u64 << m) - 1)
}

/// The canonical half of the `2^m` branches to actually execute when the
/// parent model is spin-flip symmetric: the branches whose **first** frozen
/// qubit is `+1` (bit 0 clear). Every omitted branch is the
/// [`partner_mask`] of exactly one returned mask.
#[must_use]
pub fn representative_masks(m: usize) -> Vec<u64> {
    if m == 0 {
        return vec![0];
    }
    (0..(1u64 << m)).filter(|mask| mask & 1 == 0).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Spin;

    fn symmetric_model() -> IsingModel {
        let mut m = IsingModel::new(4);
        m.set_coupling(0, 1, 1.0).unwrap();
        m.set_coupling(1, 2, -1.0).unwrap();
        m.set_coupling(2, 3, 1.0).unwrap();
        m.set_coupling(0, 3, 1.0).unwrap();
        m
    }

    #[test]
    fn zero_linear_models_are_symmetric() {
        let m = symmetric_model();
        assert!(is_spin_flip_symmetric(&m));
        assert!(verify_spin_flip_symmetry(&m).unwrap());
    }

    #[test]
    fn nonzero_linear_breaks_symmetry() {
        let mut m = symmetric_model();
        m.set_linear(2, 0.5).unwrap();
        assert!(!is_spin_flip_symmetric(&m));
        assert!(!verify_spin_flip_symmetry(&m).unwrap());
    }

    #[test]
    fn partner_mask_is_involution_and_complements() {
        for m in 1..=4usize {
            for mask in 0..(1u64 << m) {
                let p = partner_mask(mask, m);
                assert_eq!(partner_mask(p, m), mask);
                assert_eq!(mask & p, 0);
                assert_eq!(mask | p, (1 << m) - 1);
            }
        }
    }

    #[test]
    fn representatives_cover_all_branches_once() {
        for m in 1..=5usize {
            let reps = representative_masks(m);
            assert_eq!(reps.len(), 1 << (m - 1));
            let mut seen = vec![false; 1 << m];
            for &r in &reps {
                assert!(!seen[r as usize]);
                seen[r as usize] = true;
                let p = partner_mask(r, m) as usize;
                assert!(!seen[p]);
                seen[p] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn partner_subproblem_solutions_are_flips() {
        // For a symmetric parent, the optimum of the +1 branch, flipped,
        // must be an optimum of the −1 branch with the same energy.
        let m = symmetric_model();
        let plus = m.freeze(&[(0, Spin::UP)]).unwrap();
        let minus = m.freeze(&[(0, Spin::DOWN)]).unwrap();
        for idx in 0..8u64 {
            let y = SpinVec::from_index(idx, 3);
            let e_plus = plus.model().energy(&y).unwrap();
            let e_minus = minus.model().energy(&y.flipped()).unwrap();
            assert!((e_plus - e_minus).abs() < 1e-12);
        }
    }

    #[test]
    fn m_zero_has_single_representative() {
        assert_eq!(representative_masks(0), vec![0]);
    }
}
