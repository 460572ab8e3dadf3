//! Classical solvers used to obtain reference optima (`C_min`) for the
//! Approximation-Ratio metrics (Eqs. 4–5) and as sanity baselines.
//!
//! * [`exact_solve`] — exhaustive Gray-code search, exact up to 30 variables;
//! * [`simulated_annealing`] — the standard workhorse for the 500-qubit
//!   practical-scale study of §6, where exhaustive search is impossible.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{IsingError, IsingModel, Spin, SpinVec};

/// The result of an exhaustive search.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ExactSolution {
    /// One global minimizer (the first found in Gray-code order).
    pub best: SpinVec,
    /// The global minimum energy `C_min`.
    pub energy: f64,
    /// How many assignments attain the minimum (even for symmetric models).
    pub num_optima: usize,
}

/// Exhaustively minimizes `C(z)` by enumerating the state space in Gray-code
/// order, so each step flips exactly one spin and updates the energy in
/// `O(deg)` time.
///
/// # Errors
///
/// Returns [`IsingError::ProblemTooLarge`] for models with more than 30
/// variables, and [`IsingError::Empty`] for zero-variable models.
///
/// # Example
///
/// ```
/// use fq_ising::{solve::exact_solve, IsingModel};
///
/// let mut m = IsingModel::new(2);
/// m.set_coupling(0, 1, 1.0)?; // antiferromagnetic pair
/// let sol = exact_solve(&m)?;
/// assert_eq!(sol.energy, -1.0);
/// assert_eq!(sol.num_optima, 2); // (+1,−1) and (−1,+1)
/// # Ok::<(), fq_ising::IsingError>(())
/// ```
pub fn exact_solve(model: &IsingModel) -> Result<ExactSolution, IsingError> {
    let n = model.num_vars();
    if n == 0 {
        return Err(IsingError::Empty);
    }
    if n > 30 {
        return Err(IsingError::ProblemTooLarge {
            num_vars: n,
            limit: 30,
        });
    }

    let adj = model.adjacency();
    let mut z = SpinVec::all_up(n);
    let mut energy = model.energy(&z)?;
    let mut best = z.clone();
    let mut best_energy = energy;
    let mut num_optima = 1usize;

    for step in 1..(1u64 << n) {
        // Gray code: bit flipped at step t is trailing_zeros(t).
        let k = step.trailing_zeros() as usize;
        let mut local = model.linear(k);
        for &(j, jij) in &adj[k] {
            local += jij * z.spin(j).as_f64();
        }
        energy += -2.0 * local * z.spin(k).as_f64();
        z.flip(k);

        if energy < best_energy - 1e-12 {
            best_energy = energy;
            best = z.clone();
            num_optima = 1;
        } else if (energy - best_energy).abs() <= 1e-12 {
            num_optima += 1;
        }
    }

    Ok(ExactSolution {
        best,
        energy: best_energy,
        num_optima,
    })
}

/// Configuration for [`simulated_annealing`].
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct AnnealConfig {
    /// Number of full sweeps (each sweep proposes one flip per variable).
    pub sweeps: usize,
    /// Independent restarts; the best result over restarts is returned.
    pub restarts: usize,
    /// Initial inverse temperature.
    pub beta_start: f64,
    /// Final inverse temperature.
    pub beta_end: f64,
}

impl Default for AnnealConfig {
    fn default() -> Self {
        AnnealConfig {
            sweeps: 200,
            restarts: 4,
            beta_start: 0.1,
            beta_end: 5.0,
        }
    }
}

/// Minimizes `C(z)` with restarted simulated annealing under a geometric
/// inverse-temperature schedule. Deterministic for a fixed `seed`.
///
/// # Errors
///
/// Returns [`IsingError::Empty`] for zero-variable models.
pub fn simulated_annealing(
    model: &IsingModel,
    config: &AnnealConfig,
    seed: u64,
) -> Result<(SpinVec, f64), IsingError> {
    let n = model.num_vars();
    if n == 0 {
        return Err(IsingError::Empty);
    }
    let adj = model.adjacency();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut best: Option<(SpinVec, f64)> = None;

    for _ in 0..config.restarts.max(1) {
        let mut z: SpinVec = (0..n)
            .map(|_| {
                if rng.random::<bool>() {
                    Spin::UP
                } else {
                    Spin::DOWN
                }
            })
            .collect();
        let mut energy = model.energy(&z)?;
        let sweeps = config.sweeps.max(1);
        for sweep in 0..sweeps {
            let t = sweep as f64 / sweeps as f64;
            let beta = config.beta_start * (config.beta_end / config.beta_start).powf(t);
            for _ in 0..n {
                let k = rng.random_range(0..n);
                let mut local = model.linear(k);
                for &(j, jij) in &adj[k] {
                    local += jij * z.spin(j).as_f64();
                }
                let delta = -2.0 * local * z.spin(k).as_f64();
                if delta <= 0.0 || rng.random::<f64>() < (-beta * delta).exp() {
                    z.flip(k);
                    energy += delta;
                }
            }
        }
        // Polish with a greedy pass so the answer is at least locally optimal.
        energy += descend(model, &adj, &mut z);
        if best.as_ref().is_none_or(|(_, e)| energy < *e) {
            best = Some((z, energy));
        }
    }

    Ok(best.expect("at least one restart"))
}

/// Flips spins while any flip improves; returns the total energy change.
fn descend(model: &IsingModel, adj: &[Vec<(usize, f64)>], z: &mut SpinVec) -> f64 {
    let mut total = 0.0;
    loop {
        let mut improved = false;
        for (k, neighbours) in adj.iter().enumerate() {
            let mut local = model.linear(k);
            for &(j, jij) in neighbours {
                local += jij * z.spin(j).as_f64();
            }
            let delta = -2.0 * local * z.spin(k).as_f64();
            if delta < -1e-12 {
                z.flip(k);
                total += delta;
                improved = true;
            }
        }
        if !improved {
            return total;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frustrated_ring(n: usize) -> IsingModel {
        let mut m = IsingModel::new(n);
        for i in 0..n {
            let w = if i == 0 { -1.0 } else { 1.0 };
            m.set_coupling(i, (i + 1) % n, w).unwrap();
        }
        m
    }

    #[test]
    fn exact_matches_naive_enumeration() {
        let m = frustrated_ring(6);
        let sol = exact_solve(&m).unwrap();
        let mut naive_best = f64::INFINITY;
        let mut naive_count = 0usize;
        for idx in 0..64u64 {
            let e = m.energy(&SpinVec::from_index(idx, 6)).unwrap();
            if e < naive_best - 1e-12 {
                naive_best = e;
                naive_count = 1;
            } else if (e - naive_best).abs() <= 1e-12 {
                naive_count += 1;
            }
        }
        assert!((sol.energy - naive_best).abs() < 1e-12);
        assert_eq!(sol.num_optima, naive_count);
        assert!((m.energy(&sol.best).unwrap() - sol.energy).abs() < 1e-12);
    }

    #[test]
    fn exact_respects_linear_terms_and_offset() {
        let mut m = IsingModel::new(3);
        m.set_linear(0, 10.0).unwrap();
        m.set_linear(1, -1.0).unwrap();
        m.set_offset(3.0);
        let sol = exact_solve(&m).unwrap();
        // Optimal: z0 = −1, z1 = +1, z2 free → energy 3 − 10 − 1 = −8, two optima.
        assert!((sol.energy - -8.0).abs() < 1e-12);
        assert_eq!(sol.num_optima, 2);
    }

    #[test]
    fn exact_rejects_oversized_problems() {
        let m = IsingModel::new(31);
        assert!(matches!(
            exact_solve(&m),
            Err(IsingError::ProblemTooLarge { .. })
        ));
        assert!(matches!(
            exact_solve(&IsingModel::new(0)),
            Err(IsingError::Empty)
        ));
    }

    #[test]
    fn annealing_finds_exact_optimum_on_small_instances() {
        let m = frustrated_ring(10);
        let exact = exact_solve(&m).unwrap();
        let (z, e) = simulated_annealing(&m, &AnnealConfig::default(), 7).unwrap();
        assert!(
            (e - exact.energy).abs() < 1e-9,
            "SA {e} vs exact {}",
            exact.energy
        );
        assert!((m.energy(&z).unwrap() - e).abs() < 1e-9);
    }

    #[test]
    fn annealing_is_deterministic_per_seed() {
        let m = frustrated_ring(12);
        let a = simulated_annealing(&m, &AnnealConfig::default(), 3).unwrap();
        let b = simulated_annealing(&m, &AnnealConfig::default(), 3).unwrap();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }

    #[test]
    fn symmetric_model_has_even_optima_in_exact_count() {
        let m = frustrated_ring(5);
        assert!(m.has_zero_linear_terms());
        let sol = exact_solve(&m).unwrap();
        assert_eq!(sol.num_optima % 2, 0);
    }
}
