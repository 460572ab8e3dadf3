//! Template fingerprints pinned as written-out hex, across commits.
//!
//! A template's fingerprint is its address everywhere outside the
//! process: the `--cache-dir` spill filename, the
//! `/v1/templates/{fingerprint}` path, and the key a dispatcher routes a
//! job by. It hashes the device's topology and calibration (see
//! `Device::fingerprint`), so a change to how `Topology` or `Device`
//! stores, looks up or hashes a coupler could move every value silently:
//! every store on disk would be orphaned and jobs would change shards.
//! The preset values were recorded before the topology gained its
//! coupler index and the presets became shared, the custom-device values
//! before devices hashed their calibration at construction; they must
//! never change.

use fq_transpile::{Device, GateDurations, Topology};
use frozenqubits::api::{DeviceSpec, Job, JobBuilder, JobKind, JobSpec, QosTier};

/// The template fingerprint of a frozen BA job (n = 12, d = 1, seed 7,
/// two frozen qubits) on each preset. The job has one unit, and an exact
/// job routes by its last unit's fingerprint, so both calls name it.
const FROZEN_PINS: [(DeviceSpec, &str); 9] = [
    (DeviceSpec::IbmMontreal, "894a8d0036b8e08f"),
    (DeviceSpec::IbmToronto, "a5dfb7abdeac0c3b"),
    (DeviceSpec::IbmMumbai, "c739a175643d6e7f"),
    (DeviceSpec::IbmAuckland, "28c947845c6a816f"),
    (DeviceSpec::IbmHanoi, "04637a17105ab3be"),
    (DeviceSpec::IbmCairo, "0bc678ae164f310a"),
    (DeviceSpec::IbmBrooklyn, "fb84b12e4d77f51c"),
    (DeviceSpec::IbmWashington, "24aa483d404ff314"),
    (DeviceSpec::Grid2500, "822e4015e7eb3240"),
];

fn frozen_spec(device: DeviceSpec) -> JobSpec {
    JobBuilder::new()
        .barabasi_albert(12, 1, 7)
        .device(device)
        .num_frozen(2)
        .frozen()
        .build()
        .unwrap()
}

#[test]
fn frozen_spec_fingerprints_are_pinned_on_every_preset() {
    assert_eq!(FROZEN_PINS.map(|(d, _)| d), DeviceSpec::ALL);
    for (device, pin) in FROZEN_PINS {
        let spec = frozen_spec(device);
        assert_eq!(spec.unit_fingerprints().unwrap(), [pin], "{device:?}");
        assert_eq!(spec.routing_fingerprint().unwrap(), pin, "{device:?}");
    }
}

/// The same frozen job on two devices no preset covers: a uniform
/// device on a generated grid and an error-free generated heavy-hex
/// lattice, built through the in-process `Job::from_parts`.
#[test]
fn custom_device_fingerprints_are_pinned() {
    let spec = frozen_spec(DeviceSpec::IbmMontreal);
    let model = spec.problem.resolve().unwrap();
    let uniform = Device::uniform(
        "grid-4x5",
        Topology::grid(4, 5).unwrap(),
        0.007,
        0.02,
        80.0,
        GateDurations::default(),
    )
    .unwrap();
    let ideal = Device::ideal("ideal-hex", Topology::heavy_hex_rows(&[7, 9, 6]).unwrap());
    for (device, pin) in [(uniform, "f2badb0ea474f96a"), (ideal, "f82e66ddaf131962")] {
        let job = Job::from_parts(&model, &device, &spec.config, JobKind::Frozen);
        assert_eq!(job.unit_fingerprints().unwrap(), [pin], "{}", device.name());
    }
}

#[test]
fn compare_spec_fingerprints_are_pinned() {
    let compare = JobBuilder::new()
        .barabasi_albert(14, 2, 3)
        .device(DeviceSpec::IbmToronto)
        .num_frozen(1)
        .compare()
        .build()
        .unwrap();
    assert_eq!(
        compare.unit_fingerprints().unwrap(),
        ["8e1a59fe58975056", "c25b43728fa9380a"]
    );
    assert_eq!(compare.routing_fingerprint().unwrap(), "c25b43728fa9380a");
}

#[test]
fn fast_tier_routing_fingerprint_is_pinned() {
    // A `cluster-cold`-shaped job: the template is tier-independent, the
    // routing key folds the tier in.
    let fast = JobBuilder::new()
        .barabasi_albert(20, 2, 998_990_652)
        .device(DeviceSpec::IbmCairo)
        .num_frozen(1)
        .frozen()
        .tier(QosTier::Fast)
        .build()
        .unwrap();
    assert_eq!(fast.unit_fingerprints().unwrap(), ["3a584515bcc3cd25"]);
    assert_eq!(fast.routing_fingerprint().unwrap(), "110e027808658e8c");
}
