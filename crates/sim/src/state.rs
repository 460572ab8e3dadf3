//! A dense statevector simulator.
//!
//! Basis states are indexed little-endian: bit `k` of the index is qubit
//! `k`, with bit value 0 meaning `|0⟩` (spin `+1`), matching
//! [`fq_ising::SpinVec::from_index`].

use fq_circuit::{Gate, QuantumCircuit};
use fq_ising::IsingModel;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::{Complex, SimError};

/// Hard cap on simulated width: 2^25 amplitudes ≈ 512 MiB.
pub const MAX_STATEVECTOR_QUBITS: usize = 25;

/// A normalized quantum state over `n` qubits.
///
/// # Example
///
/// ```
/// use fq_sim::Statevector;
///
/// let mut sv = Statevector::zero_state(1)?;
/// sv.apply_h(0);
/// // |+⟩: both amplitudes 1/√2.
/// assert!((sv.probability(0) - 0.5).abs() < 1e-12);
/// assert!((sv.probability(1) - 0.5).abs() < 1e-12);
/// # Ok::<(), fq_sim::SimError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Statevector {
    num_qubits: usize,
    amps: Vec<Complex>,
}

impl Statevector {
    /// The all-zeros computational basis state `|0…0⟩`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::TooManyQubits`] beyond
    /// [`MAX_STATEVECTOR_QUBITS`].
    pub fn zero_state(num_qubits: usize) -> Result<Statevector, SimError> {
        if num_qubits > MAX_STATEVECTOR_QUBITS {
            return Err(SimError::TooManyQubits {
                requested: num_qubits,
                limit: MAX_STATEVECTOR_QUBITS,
            });
        }
        let mut amps = vec![Complex::ZERO; 1usize << num_qubits];
        amps[0] = Complex::ONE;
        Ok(Statevector { num_qubits, amps })
    }

    /// Number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// The amplitude of basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn amplitude(&self, index: usize) -> Complex {
        self.amps[index]
    }

    /// The probability of measuring basis state `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn probability(&self, index: usize) -> f64 {
        self.amps[index].norm_sqr()
    }

    /// Total norm (should be 1 up to float error).
    #[must_use]
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Applies a Hadamard to qubit `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn apply_h(&mut self, k: usize) {
        let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        self.for_each_pair(k, |a0, a1| {
            let s = (a0 + a1).scale(inv_sqrt2);
            let d = (a0 - a1).scale(inv_sqrt2);
            (s, d)
        });
    }

    /// Applies a Pauli-X to qubit `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn apply_x(&mut self, k: usize) {
        self.for_each_pair(k, |a0, a1| (a1, a0));
    }

    /// Applies a Pauli-Y to qubit `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn apply_y(&mut self, k: usize) {
        self.for_each_pair(k, |a0, a1| ((-a1).mul_i(), a0.mul_i()));
    }

    /// Applies a Pauli-Z to qubit `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn apply_z(&mut self, k: usize) {
        self.for_each_pair(k, |a0, a1| (a0, -a1));
    }

    /// Applies `Rz(θ) = diag(e^{−iθ/2}, e^{+iθ/2})` to qubit `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn apply_rz(&mut self, k: usize, theta: f64) {
        let minus = Complex::cis(-theta / 2.0);
        let plus = Complex::cis(theta / 2.0);
        self.for_each_pair(k, |a0, a1| (a0 * minus, a1 * plus));
    }

    /// Applies `Rx(θ) = exp(−iθX/2)` to qubit `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k` is out of range.
    pub fn apply_rx(&mut self, k: usize, theta: f64) {
        let c = (theta / 2.0).cos();
        let s = (theta / 2.0).sin();
        self.for_each_pair(k, |a0, a1| {
            (
                a0.scale(c) - a1.mul_i().scale(s),
                a1.scale(c) - a0.mul_i().scale(s),
            )
        });
    }

    /// Applies a CNOT with the given control and target.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or they coincide.
    pub fn apply_cx(&mut self, control: usize, target: usize) {
        assert!(control != target, "cx needs distinct qubits");
        let cbit = 1usize << control;
        let tbit = 1usize << target;
        for i in 0..self.amps.len() {
            if i & cbit != 0 && i & tbit == 0 {
                self.amps.swap(i, i | tbit);
            }
        }
    }

    /// Applies a SWAP between two qubits.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range or they coincide.
    pub fn apply_swap(&mut self, a: usize, b: usize) {
        assert!(a != b, "swap needs distinct qubits");
        let abit = 1usize << a;
        let bbit = 1usize << b;
        for i in 0..self.amps.len() {
            if i & abit != 0 && i & bbit == 0 {
                self.amps.swap(i, (i & !abit) | bbit);
            }
        }
    }

    /// Applies a fully bound gate. `Measure` gates are ignored (sampling is
    /// a separate step).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::ParametricCircuit`] if the gate still holds a
    /// symbolic angle.
    pub fn apply_gate(&mut self, gate: &Gate) -> Result<(), SimError> {
        match *gate {
            Gate::H { q } => self.apply_h(q),
            Gate::X { q } => self.apply_x(q),
            Gate::Rz { q, theta } => {
                let t = constant_angle(theta)?;
                self.apply_rz(q, t);
            }
            Gate::Rx { q, theta } => {
                let t = constant_angle(theta)?;
                self.apply_rx(q, t);
            }
            Gate::Cx { control, target } => self.apply_cx(control, target),
            Gate::Swap { a, b } => self.apply_swap(a, b),
            Gate::Measure { .. } => {}
        }
        Ok(())
    }

    /// Runs every gate of a bound circuit.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WidthMismatch`] if the circuit is wider than the
    /// state and [`SimError::ParametricCircuit`] for unbound angles.
    pub fn run(&mut self, circuit: &QuantumCircuit) -> Result<(), SimError> {
        if circuit.num_qubits() > self.num_qubits {
            return Err(SimError::WidthMismatch {
                circuit: circuit.num_qubits(),
                state: self.num_qubits,
            });
        }
        for g in circuit.gates() {
            self.apply_gate(g)?;
        }
        Ok(())
    }

    /// Per-term expectations `(⟨Z_i⟩ per variable, ⟨Z_iZ_j⟩ per coupling in
    /// model order)` of a diagonal Ising Hamiltonian in this state — the
    /// statevector counterpart of
    /// [`crate::analytic::term_expectations_p1`], valid at any `p`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WidthMismatch`] if the model width differs from
    /// the state width.
    pub fn term_expectations(&self, model: &IsingModel) -> Result<(Vec<f64>, Vec<f64>), SimError> {
        if model.num_vars() != self.num_qubits {
            return Err(SimError::WidthMismatch {
                circuit: model.num_vars(),
                state: self.num_qubits,
            });
        }
        let mut z_exp = vec![0.0f64; self.num_qubits];
        let mut zz_exp = vec![0.0f64; model.num_couplings()];
        let pairs: Vec<(usize, usize)> = model.couplings().map(|(k, _)| k).collect();
        for (idx, amp) in self.amps.iter().enumerate() {
            let p = amp.norm_sqr();
            if p == 0.0 {
                continue;
            }
            for (k, ze) in z_exp.iter_mut().enumerate() {
                let s = if idx >> k & 1 == 0 { 1.0 } else { -1.0 };
                *ze += p * s;
            }
            for ((i, j), acc) in pairs.iter().zip(zz_exp.iter_mut()) {
                let si = if idx >> *i & 1 == 0 { 1.0 } else { -1.0 };
                let sj = if idx >> *j & 1 == 0 { 1.0 } else { -1.0 };
                *acc += p * si * sj;
            }
        }
        Ok((z_exp, zz_exp))
    }

    /// The expectation value of a diagonal Ising Hamiltonian in this state.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::WidthMismatch`] if the model width differs from
    /// the state width.
    pub fn expectation_ising(&self, model: &IsingModel) -> Result<f64, SimError> {
        let (z_exp, zz_exp) = self.term_expectations(model)?;
        ising_expectation_from_terms(model, &z_exp, &zz_exp)
    }

    /// Draws `shots` measurement outcomes (seeded), as basis indices.
    #[must_use]
    pub fn sample_indices(&self, shots: u64, seed: u64) -> Vec<usize> {
        draw_indices(&self.cumulative_probabilities(), shots, seed).collect()
    }

    /// The running sum of the basis-state probabilities: the table
    /// [`draw_indices`] inverts. Built once, it serves every draw from
    /// this state.
    pub(crate) fn cumulative_probabilities(&self) -> Vec<f64> {
        let mut acc = 0.0f64;
        self.amps
            .iter()
            .map(|a| {
                acc += a.norm_sqr();
                acc
            })
            .collect()
    }

    fn for_each_pair(
        &mut self,
        k: usize,
        mut f: impl FnMut(Complex, Complex) -> (Complex, Complex),
    ) {
        assert!(k < self.num_qubits, "qubit {k} out of range");
        let bit = 1usize << k;
        for i in 0..self.amps.len() {
            if i & bit == 0 {
                let (a0, a1) = f(self.amps[i], self.amps[i | bit]);
                self.amps[i] = a0;
                self.amps[i | bit] = a1;
            }
        }
    }
}

/// Draws `shots` seeded basis indices from a state's
/// [`Statevector::cumulative_probabilities`] table.
pub(crate) fn draw_indices(
    cumulative: &[f64],
    shots: u64,
    seed: u64,
) -> impl Iterator<Item = usize> + '_ {
    let total = cumulative
        .last()
        .copied()
        .unwrap_or(0.0)
        .max(f64::MIN_POSITIVE);
    let last = cumulative.len().saturating_sub(1);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..shots).map(move |_| {
        let u = rng.random::<f64>() * total;
        cumulative.partition_point(|&c| c < u).min(last)
    })
}

/// Assembles an Ising expectation from per-term expectations in the exact
/// accumulation order of [`Statevector::expectation_ising`] (which
/// delegates here), so callers holding the output of
/// [`Statevector::term_expectations`] derive the scalar bit-identically
/// without traversing the state a second time.
///
/// # Errors
///
/// Returns [`SimError::WidthMismatch`] when `z` does not match the
/// model's variable count and [`SimError::InvalidParameters`] when `zz`
/// does not match its coupling count.
pub fn ising_expectation_from_terms(
    model: &IsingModel,
    z: &[f64],
    zz: &[f64],
) -> Result<f64, SimError> {
    if z.len() != model.num_vars() {
        return Err(SimError::WidthMismatch {
            circuit: z.len(),
            state: model.num_vars(),
        });
    }
    if zz.len() != model.num_couplings() {
        return Err(SimError::InvalidParameters(format!(
            "{} coupling expectations for a model with {} couplings",
            zz.len(),
            model.num_couplings()
        )));
    }
    let mut ev = model.offset();
    for (i, hi) in model.linears() {
        ev += hi * z[i];
    }
    for (acc, (_, jij)) in zz.iter().zip(model.couplings()) {
        ev += jij * acc;
    }
    Ok(ev)
}

fn constant_angle(theta: fq_circuit::Angle) -> Result<f64, SimError> {
    match theta {
        fq_circuit::Angle::Constant(v) => Ok(v),
        _ => Err(SimError::ParametricCircuit),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fq_circuit::Angle;

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-10, "{a} vs {b}");
    }

    #[test]
    fn bell_state_probabilities() {
        let mut sv = Statevector::zero_state(2).unwrap();
        sv.apply_h(0);
        sv.apply_cx(0, 1);
        assert_close(sv.probability(0b00), 0.5);
        assert_close(sv.probability(0b11), 0.5);
        assert_close(sv.probability(0b01), 0.0);
        assert_close(sv.norm(), 1.0);
    }

    #[test]
    fn x_flips_and_y_z_phase() {
        let mut sv = Statevector::zero_state(1).unwrap();
        sv.apply_x(0);
        assert_close(sv.probability(1), 1.0);
        sv.apply_z(0);
        assert_close(sv.amplitude(1).re, -1.0);
        let mut sy = Statevector::zero_state(1).unwrap();
        sy.apply_y(0);
        // Y|0⟩ = i|1⟩.
        assert_close(sy.amplitude(1).im, 1.0);
    }

    #[test]
    fn rotations_preserve_norm() {
        let mut sv = Statevector::zero_state(3).unwrap();
        sv.apply_h(0);
        sv.apply_rx(1, 0.7);
        sv.apply_rz(0, 1.3);
        sv.apply_cx(0, 2);
        sv.apply_swap(1, 2);
        assert_close(sv.norm(), 1.0);
    }

    #[test]
    fn rx_pi_equals_x_up_to_phase() {
        let mut a = Statevector::zero_state(1).unwrap();
        a.apply_rx(0, std::f64::consts::PI);
        // Rx(π)|0⟩ = −i|1⟩.
        assert_close(a.probability(1), 1.0);
        assert_close(a.amplitude(1).im, -1.0);
    }

    #[test]
    fn swap_exchanges_qubits() {
        let mut sv = Statevector::zero_state(2).unwrap();
        sv.apply_x(0); // |01⟩ in (q1 q0) order = index 1
        sv.apply_swap(0, 1);
        assert_close(sv.probability(0b10), 1.0);
    }

    #[test]
    fn expectation_of_simple_models() {
        // |00⟩: ⟨Z0⟩ = ⟨Z1⟩ = +1, ⟨Z0Z1⟩ = +1.
        let sv = Statevector::zero_state(2).unwrap();
        let mut m = IsingModel::new(2);
        m.set_linear(0, 0.5).unwrap();
        m.set_coupling(0, 1, 2.0).unwrap();
        m.set_offset(1.0);
        assert_close(sv.expectation_ising(&m).unwrap(), 3.5);

        // Bell state: ⟨Z0⟩ = 0 but ⟨Z0Z1⟩ = +1.
        let mut bell = Statevector::zero_state(2).unwrap();
        bell.apply_h(0);
        bell.apply_cx(0, 1);
        assert_close(bell.expectation_ising(&m).unwrap(), 3.0);
    }

    #[test]
    fn run_rejects_parametric_circuits() {
        let mut qc = QuantumCircuit::new(1);
        qc.rz(
            0,
            Angle::Gamma {
                layer: 0,
                scale: 1.0,
                term: 0,
            },
        )
        .unwrap();
        let mut sv = Statevector::zero_state(1).unwrap();
        assert!(matches!(sv.run(&qc), Err(SimError::ParametricCircuit)));
    }

    #[test]
    fn sampling_matches_distribution() {
        let mut sv = Statevector::zero_state(1).unwrap();
        sv.apply_h(0);
        let samples = sv.sample_indices(10_000, 42);
        let ones = samples.iter().filter(|&&s| s == 1).count();
        assert!((ones as f64 / 10_000.0 - 0.5).abs() < 0.03);
        // Determinism.
        assert_eq!(samples, sv.sample_indices(10_000, 42));
    }

    #[test]
    fn width_limits_enforced() {
        assert!(Statevector::zero_state(MAX_STATEVECTOR_QUBITS + 1).is_err());
        let mut sv = Statevector::zero_state(1).unwrap();
        let qc = QuantumCircuit::new(2);
        assert!(matches!(sv.run(&qc), Err(SimError::WidthMismatch { .. })));
    }
}
