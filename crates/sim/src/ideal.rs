//! Ideal (noise-free) execution helpers: run a circuit and compute
//! `EV_ideal` for the ARG metric (Eq. 4).

use fq_circuit::{build_qaoa_circuit, QuantumCircuit};
use fq_ising::IsingModel;

use crate::{SimError, Statevector};

/// Runs a bound circuit from `|0…0⟩` and returns the final state.
///
/// # Errors
///
/// Returns [`SimError::TooManyQubits`] beyond the statevector limit and
/// [`SimError::ParametricCircuit`] for unbound angles.
///
/// # Example
///
/// ```
/// use fq_circuit::QuantumCircuit;
/// use fq_sim::run_circuit;
///
/// let mut qc = QuantumCircuit::new(2);
/// qc.h(0)?;
/// qc.cx(0, 1)?;
/// let sv = run_circuit(&qc)?;
/// assert!((sv.probability(0b11) - 0.5).abs() < 1e-12);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn run_circuit(circuit: &QuantumCircuit) -> Result<Statevector, SimError> {
    let mut sv = Statevector::zero_state(circuit.num_qubits())?;
    sv.run(circuit)?;
    Ok(sv)
}

/// The exact `p`-layer QAOA expectation value by statevector simulation.
///
/// For `p = 1` prefer [`crate::analytic::expectation_p1`], which has no
/// width limit; this function is the reference oracle and the only exact
/// option for `p ≥ 2`.
///
/// # Errors
///
/// Returns circuit-construction errors wrapped as
/// [`SimError::InvalidParameters`], plus the [`run_circuit`] conditions.
pub fn qaoa_expectation_sv(
    model: &IsingModel,
    gammas: &[f64],
    betas: &[f64],
) -> Result<f64, SimError> {
    let qc = build_qaoa_circuit(model, gammas.len().max(1))
        .map_err(|e| SimError::InvalidParameters(e.to_string()))?;
    let bound = qc
        .bind(gammas, betas)
        .map_err(|e| SimError::InvalidParameters(e.to_string()))?;
    let sv = run_circuit(&bound)?;
    sv.expectation_ising(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analytic::expectation_p1;

    fn pair_model() -> IsingModel {
        let mut m = IsingModel::new(2);
        m.set_coupling(0, 1, 1.0).unwrap();
        m
    }

    #[test]
    fn sv_expectation_agrees_with_analytic_p1() {
        let m = pair_model();
        let sv = qaoa_expectation_sv(&m, &[0.37], &[0.61]).unwrap();
        let an = expectation_p1(&m, 0.37, 0.61).unwrap();
        assert!((sv - an).abs() < 1e-10);
    }

    #[test]
    fn multi_layer_expectation_runs() {
        let m = pair_model();
        let ev = qaoa_expectation_sv(&m, &[0.3, 0.2], &[0.5, 0.1]).unwrap();
        assert!(ev.abs() <= 1.0 + 1e-9); // single ±1 coupling bounds |⟨C⟩|
    }

    #[test]
    fn good_p1_angles_beat_random_guessing() {
        // For the antiferromagnetic pair, ⟨C⟩ < 0 is achievable at p=1.
        let m = pair_model();
        let ev = qaoa_expectation_sv(
            &m,
            &[std::f64::consts::FRAC_PI_4],
            &[3.0 * std::f64::consts::FRAC_PI_8],
        )
        .unwrap();
        assert!(ev < -0.4, "expected a clearly negative EV, got {ev}");
    }
}
