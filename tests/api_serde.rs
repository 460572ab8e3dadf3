//! Golden tests pinning the JSON wire format of `JobSpec`/`JobResult`
//! **before** any service layer exists: the canonical writer must
//! round-trip byte for byte, and the exact bytes of representative specs
//! are asserted literally so accidental format drift fails loudly.

use frozenqubits::api::{BackendSpec, DeviceSpec, GraphWeighting, JobBuilder, JobSpec};
use frozenqubits::{
    CircuitMetrics, ExecutorKind, FqError, HotspotStrategy, JobResult, RunSummary, MAX_SHOTS,
};

#[test]
fn default_compare_spec_matches_the_golden_bytes() {
    let spec = JobBuilder::new()
        .barabasi_albert(12, 1, 7)
        .device(DeviceSpec::IbmMontreal)
        .compare()
        .build()
        .unwrap();
    let golden = concat!(
        "{\"v\":1,",
        "\"problem\":{\"type\":\"barabasi_albert\",\"n\":12,\"d\":1,\"seed\":7},",
        "\"device\":\"ibmq_montreal\",",
        "\"config\":{\"num_frozen\":1,\"layers\":1,",
        "\"hotspots\":{\"policy\":\"max_degree\"},\"prune_symmetric\":true,",
        "\"compile\":{\"layout\":\"noise_adaptive\",\"optimize\":true},",
        "\"param_grid\":15,\"seed\":0,\"executor\":{\"kind\":\"parallel\"}},",
        "\"backend\":\"sim\",",
        "\"kind\":{\"type\":\"compare\"}}",
    );
    assert_eq!(spec.to_json(), golden);
    let parsed = JobSpec::from_json(golden).unwrap();
    assert_eq!(parsed, spec);
    assert_eq!(parsed.to_json(), golden, "byte-for-byte round trip");
}

#[test]
fn every_spec_variant_round_trips_byte_for_byte() {
    let mut model = fq_ising::IsingModel::new(5);
    model.set_coupling(0, 4, -1.0).unwrap();
    model.set_coupling(1, 4, 0.5).unwrap();
    model.set_linear(2, 0.125).unwrap();
    model.set_offset(-2.5);

    let mut config = frozenqubits::FrozenQubitsConfig::with_frozen(2);
    config.hotspots = HotspotStrategy::Explicit(vec![4, 0]);
    config.executor = ExecutorKind::Threads(3);
    config.seed = 99;

    let specs = [
        JobBuilder::new()
            .ising(model)
            .device(DeviceSpec::IbmAuckland)
            .config(config)
            .backend(BackendSpec::NoiseModel)
            .compare()
            .build()
            .unwrap(),
        JobBuilder::new()
            .graph(
                4,
                vec![(0, 1), (1, 2), (2, 3), (3, 0)],
                GraphWeighting::Pm1 { seed: 11 },
            )
            .device(DeviceSpec::Grid2500)
            .baseline()
            .build()
            .unwrap(),
        JobBuilder::new()
            .graph(3, vec![(0, 1), (1, 2)], GraphWeighting::Unit)
            .device(DeviceSpec::IbmWashington)
            .frozen()
            .build()
            .unwrap(),
    ];
    for spec in specs {
        let text = spec.to_json();
        let back = JobSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), text, "byte-for-byte round trip");
    }
}

#[test]
fn handcrafted_result_matches_the_golden_bytes() {
    let result = JobResult::Frozen {
        summary: RunSummary {
            label: "FQ(m=1)".into(),
            circuit_qubits: 11,
            circuits_executed: 1,
            metrics: CircuitMetrics {
                logical_cnots: 20,
                compiled_cnots: 26,
                swap_count: 2,
                depth: 18,
                duration_ns: 3520.5,
            },
            ev_ideal: -7.25,
            ev_noisy: -3.625,
            arg: 0.5,
            log_eps: -1.5,
            params: (0.4, -0.2),
        },
        frozen_qubits: vec![3],
    };
    let golden = concat!(
        "{\"v\":1,\"kind\":\"frozen\",",
        "\"summary\":{\"label\":\"FQ(m=1)\",\"circuit_qubits\":11,",
        "\"circuits_executed\":1,",
        "\"metrics\":{\"logical_cnots\":20,\"compiled_cnots\":26,",
        "\"swap_count\":2,\"depth\":18,\"duration_ns\":3520.5},",
        "\"ev_ideal\":-7.25,\"ev_noisy\":-3.625,\"arg\":0.5,\"log_eps\":-1.5,",
        "\"params\":[0.4,-0.2]},",
        "\"frozen_qubits\":[3]}",
    );
    assert_eq!(result.to_json(), golden);
    let parsed = JobResult::from_json(golden).unwrap();
    assert_eq!(parsed, result);
    assert_eq!(parsed.to_json(), golden);
}

#[test]
fn executed_results_round_trip_for_every_kind() {
    let base = JobBuilder::new()
        .barabasi_albert(8, 1, 5)
        .device(DeviceSpec::IbmMontreal)
        .seed(1);
    let kinds = [
        base.clone().baseline().build().unwrap(),
        base.clone().frozen().build().unwrap(),
        base.clone().compare().build().unwrap(),
        base.sample(256).build().unwrap(),
    ];
    for spec in kinds {
        let result = spec.run().unwrap();
        let text = result.to_json();
        let back = JobResult::from_json(&text).unwrap();
        assert_eq!(back, result, "{} result diverged", result.kind_name());
        assert_eq!(back.to_json(), text, "byte-for-byte round trip");
    }
}

#[test]
fn full_range_u64_seeds_survive_the_wire() {
    // Seeds above 2^53 must not be squeezed through f64.
    let spec = JobBuilder::new()
        .barabasi_albert(8, 1, u64::MAX)
        .device(DeviceSpec::IbmMontreal)
        .seed(u64::MAX - 1)
        .sample(MAX_SHOTS)
        .build()
        .unwrap();
    let text = spec.to_json();
    assert!(
        text.contains("18446744073709551615"),
        "exact digits on the wire"
    );
    let back = JobSpec::from_json(&text).unwrap();
    assert_eq!(back, spec);
    assert_eq!(back.to_json(), text);
}

#[test]
fn corrupt_distribution_widths_error_instead_of_panicking() {
    let text = concat!(
        "{\"v\":1,\"kind\":\"sample\",\"outcome\":{\"best\":\"000\",\"energy\":-1,",
        "\"distribution\":[[\"0101\",3]],\"frozen_qubits\":[]}}",
    );
    assert!(matches!(
        JobResult::from_json(text),
        Err(FqError::Serde(msg)) if msg.contains("spins")
    ));
}

#[test]
fn malformed_documents_are_rejected_with_serde_errors() {
    for text in [
        "",
        "{",
        "{\"v\":1}",
        "{\"v\":7,\"kind\":\"baseline\"}",
        "{\"v\":1,\"kind\":\"astrology\"}",
    ] {
        assert!(
            matches!(JobResult::from_json(text), Err(FqError::Serde(_))),
            "`{text}` must fail as a Serde error"
        );
    }
}
