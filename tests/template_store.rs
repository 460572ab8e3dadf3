//! Artifact-fidelity acceptance for the tiered template store:
//!
//! * serialize → deserialize → `instantiate` is **byte-identical** to
//!   the in-memory template, across every `LayoutStrategy` ×
//!   `CompileOptions` combination;
//! * a truncated / corrupted / version-skewed on-disk entry is a silent
//!   recompile (a miss), never a panic or a wrong answer;
//! * a spill-backed store promotes on hit, demotes on eviction, and a
//!   second runner over the same directory serves repeat batches from
//!   its own cache without new misses.
//!
//! (The process-global `compile_invocations()` zero-delta pin for warm
//! starts lives in `tests/warm_start.rs`, which holds a single test so
//! nothing else compiles concurrently; here every assertion uses
//! per-cache counters, which are safe under the parallel test runner.)

use fq_ising::Spin;
use fq_transpile::{CompileOptions, Device, LayoutStrategy};
use frozenqubits::api::{BatchRunner, DeviceSpec, JobBuilder, JobSpec};
use frozenqubits::{CompiledTemplate, MemoryStore, ShapeSignature, TemplateArtifact, TemplateKey};
use std::path::PathBuf;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fq-template-store-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn frozen_spec(n: usize, seed: u64) -> JobSpec {
    JobBuilder::new()
        .barabasi_albert(n, 1, seed)
        .device(DeviceSpec::IbmMontreal)
        .frozen()
        .build()
        .unwrap()
}

#[test]
fn round_trip_instantiates_byte_identically_across_all_compile_options() {
    // A frozen family: the template is compiled from the `+` branch and
    // edited for the `−` sibling — the exact reuse path a deserialized
    // artifact must reproduce bit for bit.
    let parent = frozen_spec(10, 7).problem.resolve().unwrap();
    let hub = parent.hotspots()[0];
    let plus = parent.freeze(&[(hub, Spin::UP)]).unwrap();
    let minus = parent.freeze(&[(hub, Spin::DOWN)]).unwrap();
    let device = Device::ibm_montreal();

    for layout in [LayoutStrategy::Trivial, LayoutStrategy::NoiseAdaptive] {
        for optimize in [false, true] {
            for layers in [1usize, 2] {
                let options = CompileOptions { layout, optimize };
                let template =
                    CompiledTemplate::compile(plus.model(), layers, &device, options).unwrap();
                let key =
                    TemplateKey::new(ShapeSignature::of(plus.model()), &device, layers, options);
                let artifact = TemplateArtifact::new(key, template.clone());

                // Wire round trip: value equality and canonical bytes.
                let text = artifact.to_json();
                let back = TemplateArtifact::from_json(&text).unwrap();
                assert_eq!(back.template(), &template, "{options:?} p={layers}");
                assert_eq!(back.to_json(), text, "canonical writer");

                // The restored template instantiates the sibling
                // byte-identically to the in-memory one: same routed
                // circuit, same layouts, same schedule, bit for bit.
                let direct = template.edit_for(minus.model()).unwrap();
                let restored = back.template().edit_for(minus.model()).unwrap();
                assert_eq!(restored, direct, "{options:?} p={layers}");
            }
        }
    }
}

#[test]
fn damaged_disk_entries_recompile_silently_with_identical_results() {
    let dir = temp_dir("damage");
    let specs = vec![frozen_spec(10, 3), frozen_spec(12, 3)];

    let seeded = BatchRunner::new().with_cache_dir(&dir).unwrap();
    let reference: Vec<String> = seeded
        .run_all(&specs)
        .unwrap()
        .iter()
        .map(frozenqubits::JobResult::to_json)
        .collect();
    let artifacts: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.to_str().is_some_and(|s| s.ends_with(".fqt.json")))
        .collect();
    assert_eq!(artifacts.len(), seeded.templates_compiled());

    // Three flavors of damage, cycled over the spilled files: truncated,
    // garbage, version-skewed.
    for (i, path) in artifacts.iter().enumerate() {
        let full = std::fs::read_to_string(path).unwrap();
        let damaged = match i % 3 {
            0 => full[..full.len() / 2].to_string(),
            1 => "{]not json".to_string(),
            _ => full.replacen("\"v\":1", "\"v\":99", 1),
        };
        std::fs::write(path, damaged).unwrap();
    }

    // A fresh runner over the damaged directory recompiles every shape
    // (misses, not errors) and produces byte-identical results.
    let recovered = BatchRunner::new().with_cache_dir(&dir).unwrap();
    let results = recovered.run_all(&specs).unwrap();
    for (result, expected) in results.iter().zip(&reference) {
        assert_eq!(&result.to_json(), expected);
    }
    let stats = recovered.cache_stats();
    assert_eq!(
        stats.misses as usize,
        recovered.templates_compiled(),
        "every damaged entry is a miss"
    );
    assert!(stats.spills >= stats.misses, "recompiles re-spill to disk");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn second_runner_over_the_same_dir_starts_warm() {
    // The per-cache-counter version of the warm-start guarantee (the
    // process-global compile-counter pin is in tests/warm_start.rs).
    let dir = temp_dir("warm");
    let specs = vec![frozen_spec(10, 5), frozen_spec(12, 5), frozen_spec(10, 6)];

    let cold = BatchRunner::new().with_cache_dir(&dir).unwrap();
    let first = cold.run_all(&specs).unwrap();
    assert!(cold.cache_stats().misses > 0, "cold start compiles");

    let warm = BatchRunner::new().with_cache_dir(&dir).unwrap();
    let second = warm.run_all(&specs).unwrap();
    let stats = warm.cache_stats();
    assert_eq!(stats.misses, 0, "warm start never compiles: {stats:?}");
    assert_eq!(
        stats.promotions as usize,
        warm.templates_compiled(),
        "every shape was promoted from the spill tier once"
    );
    for (a, b) in first.iter().zip(&second) {
        assert_eq!(a.to_json(), b.to_json(), "byte-identical across restarts");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bounded_memory_tier_demotes_and_keeps_serving() {
    let dir = temp_dir("demote");
    let store = MemoryStore::with_capacity(1).spill_to(&dir).unwrap();
    let runner = BatchRunner::new().with_store(Box::new(store));
    let specs = vec![frozen_spec(10, 8), frozen_spec(12, 8)];
    let first = runner.run_all(&specs).unwrap();

    let stats = runner.cache_stats();
    assert_eq!(stats.len, 1, "memory bound holds");
    assert!(stats.evictions >= 1, "the second shape demoted the first");
    assert_eq!(stats.spill_len, 2, "both shapes live in the spill tier");

    // Re-running hits: memory for one shape, the spill tier (with
    // promotion) for the other — never a recompile.
    let again = runner.run_all(&specs).unwrap();
    let stats = runner.cache_stats();
    assert_eq!(stats.misses, 2, "still only the two cold compiles");
    assert!(stats.promotions >= 1);
    for (a, b) in first.iter().zip(&again) {
        assert_eq!(a.to_json(), b.to_json());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cache_exposes_the_warm_transfer_surface() {
    // index() + artifact() + insert_artifact(): the store surface the
    // HTTP endpoints serve, exercised here without a socket.
    let source = BatchRunner::new();
    source.run_all(&[frozen_spec(10, 9)]).unwrap();
    let index = source.cache().index();
    assert_eq!(index.len(), source.templates_compiled());

    let artifact = source.cache().artifact(&index[0].fingerprint).unwrap();
    assert_eq!(artifact.fingerprint(), index[0].fingerprint);

    // A second runner warmed by hand serves the same spec without
    // compiling.
    let target = BatchRunner::new();
    target.cache().insert_artifact(&artifact);
    target.run_all(&[frozen_spec(10, 9)]).unwrap();
    assert_eq!(target.cache_stats().misses, 0, "pushed template serves");
    assert!(source.cache().artifact("0000000000000000").is_none());
}
