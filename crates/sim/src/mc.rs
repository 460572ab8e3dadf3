//! Monte-Carlo noisy sampling: stochastic Pauli injection over statevector
//! trajectories, plus readout and decoherence bit errors at sampling time.
//!
//! This is the small-`N` high-fidelity noise engine (the analytic
//! fidelity-product model in [`crate::noise`] covers arbitrary `N`). Each
//! *trajectory* realizes one random error pattern: after every gate, with
//! the gate's calibrated error probability, a uniformly random non-identity
//! Pauli is injected on the gate's qubits. Measurement outcomes are drawn
//! from each trajectory's final state and then corrupted by per-qubit
//! readout flips and a depolarizing decoherence flip derived from the
//! schedule duration and `T1`.
//!
//! Gate errors are rare, so most trajectories of a small circuit draw
//! none, and every trajectory's prefix up to its first error is the same
//! state. The sampler therefore draws every trajectory's error pattern
//! first (the generator stream never reads the state), advances one
//! error-free state gate by gate, forks each erring trajectory from it
//! right after its first error gate, and samples every error-free
//! trajectory from the one final state.

use fq_circuit::Gate;
use fq_ising::{OutputDistribution, Spin, SpinVec};
use fq_transpile::{Compiled, Device};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::state::draw_indices;
use crate::{gate_error_rates, SimError, Statevector};

/// Configuration of the Monte-Carlo sampler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct NoisySamplerConfig {
    /// Total measurement shots across all trajectories.
    pub shots: u64,
    /// Independent noise realizations (trajectories). More trajectories
    /// capture gate-error variance better; shots are split evenly.
    pub trajectories: u32,
    /// RNG seed; the sampler is fully deterministic per seed.
    pub seed: u64,
}

impl Default for NoisySamplerConfig {
    fn default() -> Self {
        NoisySamplerConfig {
            shots: 4096,
            trajectories: 32,
            seed: 7,
        }
    }
}

/// Samples a compiled circuit under the device's noise, returning a
/// distribution over the **logical** qubits (decoded through the final
/// layout).
///
/// # Errors
///
/// Returns [`SimError::TooManyQubits`] if the compacted circuit exceeds
/// the statevector limit, and [`SimError::InvalidParameters`] for zero
/// shots/trajectories.
///
/// # Memory
///
/// Peak memory is two states (the error-free one and one fork) plus one
/// cumulative probability table. At the
/// [`MAX_STATEVECTOR_QUBITS`](crate::MAX_STATEVECTOR_QUBITS) limit that is
/// 1 GiB of states, where simulating one trajectory at a time holds
/// 512 MiB.
///
/// # Example
///
/// ```
/// use fq_circuit::build_qaoa_circuit;
/// use fq_ising::IsingModel;
/// use fq_sim::{sample_noisy, NoisySamplerConfig};
/// use fq_transpile::{compile, CompileOptions, Device};
///
/// let mut m = IsingModel::new(3);
/// m.set_coupling(0, 1, 1.0)?;
/// m.set_coupling(1, 2, 1.0)?;
/// let qc = build_qaoa_circuit(&m, 1)?.bind(&[0.4], &[0.8])?;
/// let compiled = compile(&qc, &Device::ibm_montreal(), CompileOptions::level3())?;
/// let dist = sample_noisy(&compiled, &Device::ibm_montreal(), NoisySamplerConfig::default())?;
/// assert_eq!(dist.num_vars(), 3);
/// assert_eq!(dist.total_shots(), 4096);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn sample_noisy(
    compiled: &Compiled,
    device: &Device,
    config: NoisySamplerConfig,
) -> Result<OutputDistribution, SimError> {
    if config.shots == 0 || config.trajectories == 0 {
        return Err(SimError::InvalidParameters(
            "shots and trajectories must be positive".into(),
        ));
    }
    let (compact, layout) = compiled.compact();
    let mut cursor = Statevector::zero_state(compact.num_qubits())?;
    let gates = compact.gates();
    let errors = gate_error_rates(compiled, device);
    debug_assert_eq!(errors.len(), gates.len());
    let readout = Readout::new(compiled, device, layout);
    let trajectories = draw_trajectories(gates, &errors, config, readout.draws_per_shot());

    let mut dist = OutputDistribution::new(compiled.logical_qubits);
    let (mut forks, error_free): (Vec<&Trajectory>, Vec<&Trajectory>) =
        trajectories.iter().partition(|t| !t.errors.is_empty());
    forks.sort_by_key(|t| t.errors[0].gate);
    // Up to and including its first error gate, an erring trajectory's
    // state is the error-free one, so it forks from the cursor there.
    let mut applied = 0;
    for t in forks {
        let first = t.errors[0].gate;
        for g in &gates[applied..=first] {
            cursor.apply_gate(g)?;
        }
        applied = first + 1;
        let mut fork = cursor.clone();
        finish_with_errors(&mut fork, gates, &t.errors)?;
        readout.record(&mut dist, &fork.cumulative_probabilities(), t);
    }
    if !error_free.is_empty() {
        for g in &gates[applied..] {
            cursor.apply_gate(g)?;
        }
        let table = cursor.cumulative_probabilities();
        for t in error_free {
            readout.record(&mut dist, &table, t);
        }
    }
    Ok(dist)
}

/// A Pauli error one trajectory injects right after gate `gate`.
struct PauliError {
    gate: usize,
    qubit: usize,
    /// 0 = X, 1 = Y, 2 = Z.
    pauli: u8,
}

impl PauliError {
    fn inject(&self, sv: &mut Statevector) {
        match self.pauli {
            0 => sv.apply_x(self.qubit),
            1 => sv.apply_y(self.qubit),
            _ => sv.apply_z(self.qubit),
        }
    }
}

/// Everything one trajectory draws from the generator, drawn before any
/// state is simulated.
struct Trajectory {
    shots: u64,
    /// Its gate errors, in gate order.
    errors: Vec<PauliError>,
    sample_seed: u64,
    /// The generator as it stands at this trajectory's first per-shot flip.
    flips: StdRng,
}

/// Draws every trajectory's error pattern, sample seed and per-shot flips
/// in the order a trajectory-at-a-time simulation consumes them, skipping
/// the flips (they are replayed from [`Trajectory::flips`]). The stream
/// never depends on a state, so every draw can come first. Trajectories
/// without shots draw nothing.
fn draw_trajectories(
    gates: &[Gate],
    errors: &[f64],
    config: NoisySamplerConfig,
    draws_per_shot: usize,
) -> Vec<Trajectory> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let traj = u64::from(config.trajectories);
    let base = config.shots / traj;
    let extra = config.shots % traj;
    let mut out = Vec::new();
    for t in 0..traj {
        let shots = base + u64::from(t < extra);
        if shots == 0 {
            continue;
        }
        let mut pauli_errors = Vec::new();
        for (gate, (g, &e)) in gates.iter().zip(errors).enumerate() {
            if matches!(g, Gate::Measure { .. }) || e <= 0.0 {
                continue;
            }
            if rng.random::<f64>() < e {
                // Uniform over {X, Y, Z}; identity is excluded per-qubit,
                // which makes two-qubit injections a uniform draw over 9 of
                // the 15 non-identity two-qubit Paulis plus single-qubit
                // strays — adequate for a depolarizing-style channel.
                for qubit in g.qubits() {
                    let pauli = rng.random_range(0..3u8);
                    pauli_errors.push(PauliError { gate, qubit, pauli });
                }
            }
        }
        let sample_seed = rng.random::<u64>();
        let flips = rng.clone();
        for _ in 0..shots {
            for _ in 0..draws_per_shot {
                rng.random::<f64>();
            }
        }
        out.push(Trajectory {
            shots,
            errors: pauli_errors,
            sample_seed,
            flips,
        });
    }
    out
}

/// Runs the rest of the circuit on a state that has run every gate up to
/// and including the first error's, injecting each error right after its
/// gate.
fn finish_with_errors(
    sv: &mut Statevector,
    gates: &[Gate],
    errors: &[PauliError],
) -> Result<(), SimError> {
    let first = errors[0].gate;
    let mut pending = errors.iter().peekable();
    for (i, g) in gates.iter().enumerate().skip(first) {
        if i != first {
            sv.apply_gate(g)?;
        }
        while let Some(e) = pending.next_if(|e| e.gate == i) {
            e.inject(sv);
        }
    }
    Ok(())
}

/// The per-logical-qubit classical errors applied at sampling time, and
/// the decode of a compact basis index to logical spins.
struct Readout {
    /// `layout[logical]` is the logical qubit's compact index.
    layout: Vec<usize>,
    readout_flip: Vec<f64>,
    decoherence_flip: Vec<f64>,
}

impl Readout {
    fn new(compiled: &Compiled, device: &Device, layout: Vec<usize>) -> Readout {
        let duration_us = compiled.schedule.duration_ns / 1_000.0;
        let readout_flip = compiled
            .final_layout
            .iter()
            .map(|&p| device.readout_error(p))
            .collect();
        let decoherence_flip = compiled
            .final_layout
            .iter()
            .map(|&p| {
                let t1 = device.t1_us(p);
                if t1.is_finite() && t1 > 0.0 {
                    // Depolarizing approximation: half of the depolarized
                    // population flips the measured bit.
                    0.5 * (1.0 - (-duration_us / t1).exp())
                } else {
                    0.0
                }
            })
            .collect();
        Readout {
            layout,
            readout_flip,
            decoherence_flip,
        }
    }

    /// Uniforms one shot draws: a decoherence and a readout flip per
    /// logical qubit.
    fn draws_per_shot(&self) -> usize {
        2 * self.layout.len()
    }

    /// Draws a trajectory's shots from its final state's cumulative
    /// table, replays its flips, and records the logical outcomes.
    fn record(&self, dist: &mut OutputDistribution, cumulative: &[f64], t: &Trajectory) {
        let mut rng = t.flips.clone();
        for idx in draw_indices(cumulative, t.shots, t.sample_seed) {
            let mut spins = SpinVec::all_up(dist.num_vars());
            for (l, &c) in self.layout.iter().enumerate() {
                let mut bit = (idx >> c) & 1;
                if rng.random::<f64>() < self.decoherence_flip[l] {
                    bit ^= 1;
                }
                if rng.random::<f64>() < self.readout_flip[l] {
                    bit ^= 1;
                }
                spins.set(l, if bit == 0 { Spin::UP } else { Spin::DOWN });
            }
            dist.record(spins, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fq_circuit::build_qaoa_circuit;
    use fq_ising::IsingModel;
    use fq_transpile::{compile, CompileOptions, GateDurations, Topology};

    /// The trajectory-at-a-time loop: every trajectory simulates the whole
    /// circuit from |0…0⟩, drawing as it goes. [`sample_noisy`] must
    /// produce exactly its distribution.
    fn sample_noisy_reference(
        compiled: &Compiled,
        device: &Device,
        config: NoisySamplerConfig,
    ) -> Result<OutputDistribution, SimError> {
        let (compact, layout) = compiled.compact();
        let width = compact.num_qubits();
        let n_logical = compiled.logical_qubits;
        let errors = gate_error_rates(compiled, device);
        let duration_us = compiled.schedule.duration_ns / 1_000.0;
        let readout_flip: Vec<f64> = compiled
            .final_layout
            .iter()
            .map(|&p| device.readout_error(p))
            .collect();
        let decoherence_flip: Vec<f64> = compiled
            .final_layout
            .iter()
            .map(|&p| {
                let t1 = device.t1_us(p);
                if t1.is_finite() && t1 > 0.0 {
                    0.5 * (1.0 - (-duration_us / t1).exp())
                } else {
                    0.0
                }
            })
            .collect();

        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut dist = OutputDistribution::new(n_logical);
        let traj = u64::from(config.trajectories);
        let base = config.shots / traj;
        let extra = config.shots % traj;
        for t in 0..traj {
            let shots_here = base + u64::from(t < extra);
            if shots_here == 0 {
                continue;
            }
            let mut sv = Statevector::zero_state(width)?;
            for (g, &e) in compact.gates().iter().zip(&errors) {
                sv.apply_gate(g)?;
                if matches!(g, Gate::Measure { .. }) || e <= 0.0 {
                    continue;
                }
                if rng.random::<f64>() < e {
                    for q in g.qubits() {
                        match rng.random_range(0..3) {
                            0 => sv.apply_x(q),
                            1 => sv.apply_y(q),
                            _ => sv.apply_z(q),
                        }
                    }
                }
            }
            let sample_seed = rng.random::<u64>();
            for idx in sv.sample_indices(shots_here, sample_seed) {
                let mut spins = SpinVec::all_up(n_logical);
                for (l, &c) in layout.iter().enumerate() {
                    let mut bit = (idx >> c) & 1;
                    if rng.random::<f64>() < decoherence_flip[l] {
                        bit ^= 1;
                    }
                    if rng.random::<f64>() < readout_flip[l] {
                        bit ^= 1;
                    }
                    spins.set(l, if bit == 0 { Spin::UP } else { Spin::DOWN });
                }
                dist.record(spins, 1);
            }
        }
        Ok(dist)
    }

    /// A random Ising model of 2–8 variables: random couplings on a
    /// connected chain plus extras, optional linear terms.
    fn arb_model(rng: &mut StdRng) -> IsingModel {
        let n = rng.random_range(2..=8usize);
        let mut m = IsingModel::new(n);
        for i in 1..n {
            let j = rng.random_range(0..i);
            m.set_coupling(j, i, rng.random_range(-2.0..2.0)).unwrap();
        }
        for _ in 0..rng.random_range(0..=n) {
            let (i, j) = (rng.random_range(0..n), rng.random_range(0..n));
            if i != j {
                m.set_coupling(i, j, rng.random_range(-2.0..2.0)).unwrap();
            }
        }
        if rng.random::<bool>() {
            for i in 0..n {
                m.set_linear(i, rng.random_range(-1.5..1.5)).unwrap();
            }
        }
        m
    }

    #[test]
    fn forking_at_first_errors_equals_the_trajectory_loop() {
        // Nearly every trajectory errs on this device, some on the last
        // gate that can err; the ideal device draws no error at all.
        let noisy = Device::uniform(
            "uniform_0.3",
            Topology::falcon_27(),
            0.3,
            0.05,
            50.0,
            GateDurations::default(),
        )
        .unwrap();
        let mut devices = Device::all_ibm_machines();
        devices.push(Device::ideal("ideal", Topology::falcon_27()));
        devices.push(noisy);

        let (mut mixed_calls, mut last_gate_errors, mut zero_shot_calls) = (0, 0, 0);
        for case in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(0x3C_F0_4C ^ case);
            let model = arb_model(&mut rng);
            let p = rng.random_range(1..=2usize);
            let gammas: Vec<f64> = (0..p).map(|_| rng.random_range(-3.0..3.0)).collect();
            let betas: Vec<f64> = (0..p).map(|_| rng.random_range(-3.0..3.0)).collect();
            let qc = build_qaoa_circuit(&model, p)
                .unwrap()
                .bind(&gammas, &betas)
                .unwrap();
            let device = &devices[case as usize % devices.len()];
            let compiled = compile(&qc, device, CompileOptions::level3()).unwrap();
            let split = [
                (rng.random_range(16..=2_000u64), 16),
                (rng.random_range(1..16u64), 16),
                (rng.random_range(1..=600u64) * 7 + 3, 7),
                (rng.random_range(1..=300u64), 1),
            ];
            for (shots, trajectories) in split {
                let config = NoisySamplerConfig {
                    shots,
                    trajectories,
                    seed: rng.random(),
                };
                let label = format!("case {case}, {} p={p}, {config:?}", device.name());
                assert_eq!(
                    sample_noisy(&compiled, device, config).unwrap(),
                    sample_noisy_reference(&compiled, device, config).unwrap(),
                    "{label}"
                );

                // What the case exercised.
                let (compact, layout) = compiled.compact();
                let draws_per_shot = Readout::new(&compiled, device, layout).draws_per_shot();
                let errors = gate_error_rates(&compiled, device);
                let last_noisy = compact
                    .gates()
                    .iter()
                    .zip(&errors)
                    .rposition(|(g, &e)| !matches!(g, Gate::Measure { .. }) && e > 0.0);
                let drawn = draw_trajectories(compact.gates(), &errors, config, draws_per_shot);
                let forks = drawn.iter().filter(|t| !t.errors.is_empty()).count();
                mixed_calls += usize::from(forks > 0 && forks < drawn.len());
                last_gate_errors += drawn
                    .iter()
                    .filter(|t| t.errors.iter().any(|e| Some(e.gate) == last_noisy))
                    .count();
                zero_shot_calls += usize::from(drawn.len() < trajectories as usize);
            }
        }
        assert!(
            mixed_calls > 0,
            "no call mixed erring and error-free trajectories"
        );
        assert!(
            last_gate_errors > 0,
            "no trajectory erred on its last noisy gate"
        );
        assert!(zero_shot_calls > 0, "no call had zero-shot trajectories");
    }

    fn chain_model(n: usize) -> IsingModel {
        let mut m = IsingModel::new(n);
        for i in 1..n {
            m.set_coupling(i - 1, i, 1.0).unwrap();
        }
        m
    }

    fn compile_chain(n: usize, device: &Device) -> (IsingModel, Compiled) {
        let m = chain_model(n);
        let qc = build_qaoa_circuit(&m, 1)
            .unwrap()
            .bind(&[0.5], &[0.9])
            .unwrap();
        (m, compile(&qc, device, CompileOptions::level3()).unwrap())
    }

    #[test]
    fn ideal_device_reproduces_ideal_expectation() {
        let dev = Device::ideal("ideal", Topology::grid(3, 3).unwrap());
        let (m, c) = compile_chain(4, &dev);
        let dist = sample_noisy(
            &c,
            &dev,
            NoisySamplerConfig {
                shots: 20_000,
                trajectories: 4,
                seed: 1,
            },
        )
        .unwrap();
        let noisy_ev = dist.expectation(&m).unwrap();
        let ideal_ev = crate::analytic::expectation_p1(&m, 0.5, 0.9).unwrap();
        assert!(
            (noisy_ev - ideal_ev).abs() < 0.05,
            "sampled {noisy_ev} vs ideal {ideal_ev}"
        );
    }

    #[test]
    fn noise_pushes_expectation_toward_zero() {
        let ideal_dev = Device::ideal("ideal", Topology::grid(3, 3).unwrap());
        let noisy_dev = Device::ibm_toronto();
        let (m, ci) = compile_chain(6, &ideal_dev);
        let (_, cn) = compile_chain(6, &noisy_dev);
        let cfg = NoisySamplerConfig {
            shots: 20_000,
            trajectories: 64,
            seed: 5,
        };
        let ev_ideal = sample_noisy(&ci, &ideal_dev, cfg)
            .unwrap()
            .expectation(&m)
            .unwrap();
        let ev_noisy = sample_noisy(&cn, &noisy_dev, cfg)
            .unwrap()
            .expectation(&m)
            .unwrap();
        assert!(
            ev_noisy.abs() < ev_ideal.abs(),
            "noise must attenuate: ideal {ev_ideal}, noisy {ev_noisy}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let dev = Device::ibm_montreal();
        let (_, c) = compile_chain(4, &dev);
        let cfg = NoisySamplerConfig {
            shots: 500,
            trajectories: 8,
            seed: 42,
        };
        let a = sample_noisy(&c, &dev, cfg).unwrap();
        let b = sample_noisy(&c, &dev, cfg).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn shot_accounting_is_exact() {
        let dev = Device::ibm_montreal();
        let (_, c) = compile_chain(3, &dev);
        // 1000 shots over 7 trajectories does not divide evenly.
        let dist = sample_noisy(
            &c,
            &dev,
            NoisySamplerConfig {
                shots: 1000,
                trajectories: 7,
                seed: 2,
            },
        )
        .unwrap();
        assert_eq!(dist.total_shots(), 1000);
    }

    #[test]
    fn zero_config_is_rejected() {
        let dev = Device::ibm_montreal();
        let (_, c) = compile_chain(3, &dev);
        assert!(sample_noisy(
            &c,
            &dev,
            NoisySamplerConfig {
                shots: 0,
                trajectories: 1,
                seed: 0
            }
        )
        .is_err());
        assert!(sample_noisy(
            &c,
            &dev,
            NoisySamplerConfig {
                shots: 10,
                trajectories: 0,
                seed: 0
            }
        )
        .is_err());
    }
}
