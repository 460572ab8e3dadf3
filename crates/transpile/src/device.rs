//! Device models: topology plus calibration data.
//!
//! The paper evaluates on eight IBMQ systems (§4.2). Real calibration data
//! changes daily and is not redistributable, so each preset carries
//! *synthetic* calibration sampled (seeded, hence reproducible) around the
//! published scale for that machine class: ~1% CNOT error and ~400 ns CNOT
//! latency (§1, §2.2), per-machine quality factors chosen so the
//! cross-machine spread of Fig. 13 is preserved.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{Fnv64, Topology, TranspileError};

/// Gate and measurement durations in nanoseconds.
///
/// `Rz` is a virtual (frame-change) gate on IBM hardware: zero duration and
/// zero error (§3.3).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct GateDurations {
    /// Single-qubit gate duration (H, X, Rx).
    pub single_ns: f64,
    /// Two-qubit CNOT duration.
    pub cx_ns: f64,
    /// Measurement duration.
    pub readout_ns: f64,
}

impl Default for GateDurations {
    fn default() -> Self {
        // Paper §2.2: CNOTs take ~400 ns, ~10x slower than 1q gates.
        GateDurations {
            single_ns: 40.0,
            cx_ns: 400.0,
            readout_ns: 3_500.0,
        }
    }
}

/// A NISQ device: coupling topology plus per-element calibration.
///
/// The topology (with its all-pairs distance table, the bulk of a
/// device's memory) sits behind an [`Arc`], so clones share it. The
/// calibration is fixed at construction, so its [`Device::fingerprint`]
/// is hashed once there.
///
/// # Example
///
/// ```
/// use fq_transpile::Device;
///
/// let dev = Device::ibm_montreal();
/// assert_eq!(dev.num_qubits(), 27);
/// let (a, b) = dev.topology().edges()[0];
/// let err = dev.cnot_error(a, b);
/// assert!(err > 0.0 && err < 0.1);
/// ```
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Device {
    name: String,
    topology: Arc<Topology>,
    cnot_error: Vec<f64>,
    readout_error: Vec<f64>,
    t1_us: Vec<f64>,
    t2_us: Vec<f64>,
    durations: GateDurations,
    fingerprint: u64,
}

impl Device {
    /// The one place a device is assembled: every constructor ends here,
    /// so every device carries its fingerprint.
    fn new(
        name: String,
        topology: Topology,
        cnot_error: Vec<f64>,
        readout_error: Vec<f64>,
        t1_us: Vec<f64>,
        t2_us: Vec<f64>,
        durations: GateDurations,
    ) -> Device {
        let mut device = Device {
            name,
            topology: Arc::new(topology),
            cnot_error,
            readout_error,
            t1_us,
            t2_us,
            durations,
            fingerprint: 0,
        };
        device.fingerprint = device.hash_calibration();
        device
    }

    /// The FNV-1a hash behind [`Device::fingerprint`].
    fn hash_calibration(&self) -> u64 {
        let mut h = Fnv64::new();
        let n = self.num_qubits();
        h.write_usize(n);
        for &(a, b) in self.topology.edges() {
            h.write_usize(a);
            h.write_usize(b);
            h.write_f64(self.cnot_error(a, b));
        }
        for q in 0..n {
            h.write_f64(self.readout_error[q]);
            h.write_f64(self.t1_us[q]);
            h.write_f64(self.t2_us[q]);
        }
        h.write_f64(self.durations.single_ns);
        h.write_f64(self.durations.cx_ns);
        h.write_f64(self.durations.readout_ns);
        h.finish()
    }

    /// Builds a device with uniform calibration values.
    ///
    /// # Errors
    ///
    /// Returns [`TranspileError::InvalidParameters`] for error rates
    /// outside `[0, 1)` or non-positive coherence times.
    pub fn uniform(
        name: impl Into<String>,
        topology: Topology,
        cnot_error: f64,
        readout_error: f64,
        t1_us: f64,
        durations: GateDurations,
    ) -> Result<Device, TranspileError> {
        if !(0.0..1.0).contains(&cnot_error) || !(0.0..1.0).contains(&readout_error) {
            return Err(TranspileError::InvalidParameters(
                "error rates must lie in [0, 1)".into(),
            ));
        }
        if t1_us <= 0.0 {
            return Err(TranspileError::InvalidParameters(
                "t1 must be positive".into(),
            ));
        }
        let n = topology.num_qubits();
        let m = topology.edges().len();
        Ok(Device::new(
            name.into(),
            topology,
            vec![cnot_error; m],
            vec![readout_error; n],
            vec![t1_us; n],
            vec![t1_us; n],
            durations,
        ))
    }

    /// An error-free device on the given topology (for `EV_ideal`).
    #[must_use]
    pub fn ideal(name: impl Into<String>, topology: Topology) -> Device {
        let n = topology.num_qubits();
        let m = topology.edges().len();
        Device::new(
            name.into(),
            topology,
            vec![0.0; m],
            vec![0.0; n],
            vec![f64::INFINITY; n],
            vec![f64::INFINITY; n],
            GateDurations::default(),
        )
    }

    /// Builds a device with calibration values scattered log-normally
    /// around the given means (seeded).
    fn calibrated(
        name: &str,
        topology: Topology,
        mean_cx_err: f64,
        mean_ro_err: f64,
        mean_t1_us: f64,
        seed: u64,
    ) -> Device {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = topology.num_qubits();
        let m = topology.edges().len();
        // Log-normal-ish scatter: mean · exp(σ·u), u uniform in [−1, 1].
        let scatter = |mean: f64, sigma: f64, rng: &mut StdRng| -> f64 {
            mean * (sigma * (2.0 * rng.random::<f64>() - 1.0)).exp()
        };
        let cnot_error = (0..m)
            .map(|_| scatter(mean_cx_err, 0.6, &mut rng).min(0.5))
            .collect();
        let readout_error = (0..n)
            .map(|_| scatter(mean_ro_err, 0.5, &mut rng).min(0.5))
            .collect();
        let t1_us: Vec<f64> = (0..n).map(|_| scatter(mean_t1_us, 0.3, &mut rng)).collect();
        let t2_us = t1_us.iter().map(|&t| 0.8 * t).collect();
        Device::new(
            name.into(),
            topology,
            cnot_error,
            readout_error,
            t1_us,
            t2_us,
            GateDurations::default(),
        )
    }

    /// IBM Montreal (27-qubit Falcon) — the primary machine of Figs. 7–11.
    #[must_use]
    pub fn ibm_montreal() -> Device {
        Device::calibrated(
            "ibmq_montreal",
            Topology::falcon_27(),
            0.009,
            0.020,
            110.0,
            1,
        )
    }

    /// IBM Toronto (27-qubit Falcon).
    #[must_use]
    pub fn ibm_toronto() -> Device {
        Device::calibrated("ibmq_toronto", Topology::falcon_27(), 0.012, 0.035, 90.0, 2)
    }

    /// IBM Mumbai (27-qubit Falcon).
    #[must_use]
    pub fn ibm_mumbai() -> Device {
        Device::calibrated("ibmq_mumbai", Topology::falcon_27(), 0.010, 0.025, 105.0, 3)
    }

    /// IBM Auckland (27-qubit Falcon) — the machine of the Fig. 12
    /// landscape study.
    #[must_use]
    pub fn ibm_auckland() -> Device {
        Device::calibrated(
            "ibm_auckland",
            Topology::falcon_27(),
            0.008,
            0.016,
            130.0,
            4,
        )
    }

    /// IBM Hanoi (27-qubit Falcon).
    #[must_use]
    pub fn ibm_hanoi() -> Device {
        Device::calibrated("ibm_hanoi", Topology::falcon_27(), 0.0085, 0.018, 120.0, 5)
    }

    /// IBM Cairo (27-qubit Falcon).
    #[must_use]
    pub fn ibm_cairo() -> Device {
        Device::calibrated("ibm_cairo", Topology::falcon_27(), 0.0095, 0.022, 100.0, 6)
    }

    /// IBM Brooklyn (65-qubit Hummingbird).
    #[must_use]
    pub fn ibm_brooklyn() -> Device {
        Device::calibrated(
            "ibmq_brooklyn",
            Topology::hummingbird_65(),
            0.014,
            0.040,
            75.0,
            7,
        )
    }

    /// IBM Washington (127-qubit Eagle).
    #[must_use]
    pub fn ibm_washington() -> Device {
        Device::calibrated(
            "ibm_washington",
            Topology::eagle_127(),
            0.013,
            0.030,
            95.0,
            8,
        )
    }

    /// All eight machines of the Fig. 13 cross-machine study, in the
    /// paper's order.
    #[must_use]
    pub fn all_ibm_machines() -> Vec<Device> {
        vec![
            Device::ibm_montreal(),
            Device::ibm_toronto(),
            Device::ibm_mumbai(),
            Device::ibm_auckland(),
            Device::ibm_hanoi(),
            Device::ibm_cairo(),
            Device::ibm_brooklyn(),
            Device::ibm_washington(),
        ]
    }

    /// The optimistic-error 50×50 grid of the practical-scale study
    /// (§6.3): 0.1% CNOT error, 0.5% readout error, 500 µs decoherence.
    ///
    /// # Panics
    ///
    /// Never panics; parameters are statically valid.
    #[must_use]
    pub fn grid_2500() -> Device {
        Device::uniform(
            "grid-50x50",
            Topology::grid(50, 50).expect("static grid is valid"),
            0.001,
            0.005,
            500.0,
            GateDurations::default(),
        )
        .expect("static parameters are valid")
    }

    /// Device name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The coupling topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Number of physical qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.topology.num_qubits()
    }

    /// CNOT error rate on the coupler between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `{a, b}` is not a coupler of this device.
    #[must_use]
    pub fn cnot_error(&self, a: usize, b: usize) -> f64 {
        let idx = self
            .topology
            .coupler(a, b)
            .unwrap_or_else(|| panic!("({a}, {b}) is not a coupler of {}", self.name));
        self.cnot_error[idx]
    }

    /// Readout error of physical qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn readout_error(&self, q: usize) -> f64 {
        self.readout_error[q]
    }

    /// Relaxation time `T1` of physical qubit `q` in microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn t1_us(&self, q: usize) -> f64 {
        self.t1_us[q]
    }

    /// Dephasing time `T2` of physical qubit `q` in microseconds.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn t2_us(&self, q: usize) -> f64 {
        self.t2_us[q]
    }

    /// Gate durations.
    #[must_use]
    pub fn durations(&self) -> GateDurations {
        self.durations
    }

    /// A stable FNV-1a fingerprint of every device property that layout,
    /// routing, scheduling or the noise models read: topology, per-edge
    /// CNOT errors, per-qubit readout errors and coherence times, and
    /// gate durations. The name is not part of it. Two same-named but
    /// differently calibrated devices get different fingerprints, so
    /// templates compiled for them never collide — in memory, on disk,
    /// or across shards. Computed once when the device is built.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Mean CNOT error over all couplers.
    #[must_use]
    pub fn mean_cnot_error(&self) -> f64 {
        if self.cnot_error.is_empty() {
            0.0
        } else {
            self.cnot_error.iter().sum::<f64>() / self.cnot_error.len() as f64
        }
    }

    /// A per-edge quality score in `(0, 1]`: `1 − cnot_error`, used by the
    /// noise-adaptive layout.
    #[must_use]
    pub fn edge_fidelity(&self, a: usize, b: usize) -> f64 {
        1.0 - self.cnot_error(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_expected_sizes() {
        assert_eq!(Device::ibm_montreal().num_qubits(), 27);
        assert_eq!(Device::ibm_brooklyn().num_qubits(), 65);
        assert_eq!(Device::ibm_washington().num_qubits(), 127);
        assert_eq!(Device::grid_2500().num_qubits(), 2500);
        assert_eq!(Device::all_ibm_machines().len(), 8);
    }

    #[test]
    fn calibration_is_reproducible() {
        let a = Device::ibm_montreal();
        let b = Device::ibm_montreal();
        assert_eq!(a, b);
    }

    #[test]
    fn calibration_scales_follow_the_machine_class() {
        let auckland = Device::ibm_auckland();
        let brooklyn = Device::ibm_brooklyn();
        assert!(auckland.mean_cnot_error() < brooklyn.mean_cnot_error());
        for dev in Device::all_ibm_machines() {
            assert!(dev.mean_cnot_error() > 0.001 && dev.mean_cnot_error() < 0.1);
        }
    }

    #[test]
    fn ideal_device_is_error_free() {
        let dev = Device::ideal("ideal", Topology::linear(4).unwrap());
        let (a, b) = dev.topology().edges()[0];
        assert_eq!(dev.cnot_error(a, b), 0.0);
        assert_eq!(dev.readout_error(0), 0.0);
        assert!(dev.t1_us(0).is_infinite());
    }

    #[test]
    fn uniform_validates_ranges() {
        let topo = Topology::linear(2).unwrap();
        assert!(
            Device::uniform("x", topo.clone(), 1.5, 0.0, 1.0, GateDurations::default()).is_err()
        );
        assert!(
            Device::uniform("x", topo.clone(), 0.01, 0.0, -1.0, GateDurations::default()).is_err()
        );
        assert!(Device::uniform("x", topo, 0.01, 0.005, 100.0, GateDurations::default()).is_ok());
    }

    #[test]
    #[should_panic(expected = "is not a coupler")]
    fn cnot_error_panics_off_coupler() {
        let dev = Device::ibm_montreal();
        let _ = dev.cnot_error(0, 26);
    }

    #[test]
    #[should_panic(expected = "is not a coupler")]
    fn edge_fidelity_panics_off_coupler() {
        let topo = Topology::heavy_hex_rows(&[5, 5]).unwrap();
        let dev = Device::calibrated("hex", topo, 0.01, 0.02, 100.0, 9);
        let _ = dev.edge_fidelity(0, 2);
    }

    /// The edge-list scan the coupler index replaced.
    fn scanned_cnot_error(dev: &Device, a: usize, b: usize) -> Option<f64> {
        let key = (a.min(b), a.max(b));
        let edges = dev.topology().edges();
        edges
            .iter()
            .position(|&e| e == key)
            .map(|i| dev.cnot_error[i])
    }

    #[test]
    fn coupler_lookups_equal_an_edge_list_scan() {
        let mut devices = Device::all_ibm_machines();
        devices.push(Device::grid_2500());
        let generated = [
            Topology::linear(2).unwrap(),
            Topology::linear(17).unwrap(),
            Topology::grid(1, 5).unwrap(),
            Topology::grid(4, 7).unwrap(),
            Topology::heavy_hex_rows(&[3]).unwrap(),
            Topology::heavy_hex_rows(&[7, 9, 6]).unwrap(),
            Topology::heavy_hex_rows(&[11, 11, 11, 11]).unwrap(),
        ];
        for (seed, topo) in generated.into_iter().enumerate() {
            devices.push(Device::calibrated(
                "generated",
                topo,
                0.01,
                0.02,
                100.0,
                seed as u64,
            ));
        }
        for dev in &devices {
            let n = dev.num_qubits();
            for a in 0..n {
                // Every coupler both ways round, plus non-couplers near
                // and far.
                let near = a.saturating_sub(2)..(a + 3).min(n);
                let others = dev.topology().neighbors(a).iter().copied();
                for b in others.chain(near).chain([n - 1 - a]) {
                    let scanned = scanned_cnot_error(dev, a, b);
                    assert_eq!(dev.topology().are_adjacent(a, b), scanned.is_some());
                    if let Some(e) = scanned {
                        assert_eq!(dev.cnot_error(a, b).to_bits(), e.to_bits(), "{a}-{b}");
                        assert_eq!(dev.edge_fidelity(a, b).to_bits(), (1.0 - e).to_bits());
                    }
                }
            }
        }
    }
}
