//! The benchmark's self-tests: seeded inputs, result digests, span
//! arithmetic and the report format.

use std::collections::HashSet;

use perfbench::inputs::{self, ColdInstance, Stream};
use perfbench::report::{self, Report};
use perfbench::stats::Digest;
use perfbench::trace::{self_times, Span, Tracer};
use perfbench::workloads::{self, Options, Workload};
use serde::json::Value;

fn wire(specs: &[frozenqubits::api::JobSpec]) -> Vec<String> {
    specs.iter().map(|s| s.to_json()).collect()
}

#[test]
fn the_same_seed_gives_byte_identical_inputs() {
    let scenarios = inputs::core_scenarios();
    assert_eq!(
        scenarios.len(),
        12,
        "the pinned core corpus has 12 scenarios"
    );
    for seed in [1, 42] {
        assert_eq!(
            wire(&inputs::sweep_batch(&scenarios, seed, Stream::Sweep, 3)),
            wire(&inputs::sweep_batch(
                &inputs::core_scenarios(),
                seed,
                Stream::Sweep,
                3
            ))
        );
        assert_eq!(
            wire(&inputs::shard_fast_specs(seed)),
            wire(&inputs::shard_fast_specs(seed))
        );
        let cold = |s| {
            (0..50)
                .map(|i| ColdInstance::generate(s, Stream::Cold, i).spec().to_json())
                .collect::<Vec<_>>()
        };
        assert_eq!(cold(seed), cold(seed));
    }
    assert_ne!(
        wire(&inputs::shard_fast_specs(1)),
        wire(&inputs::shard_fast_specs(2)),
        "another seed gives other pipeline seeds"
    );
}

#[test]
fn another_seed_gives_new_cold_instances() {
    let fingerprints = |seed| {
        (0..300)
            .map(|i| {
                ColdInstance::generate(seed, Stream::Cold, i)
                    .spec()
                    .spec_fingerprint()
            })
            .collect::<HashSet<_>>()
    };
    let (one, two) = (fingerprints(1), fingerprints(2));
    assert_eq!(one.len(), 300, "instances within a run are distinct");
    assert!(
        one.is_disjoint(&two),
        "seed 2 shares no instance with seed 1"
    );
    let warmup: HashSet<_> = (0..300)
        .map(|i| {
            ColdInstance::generate(1, Stream::ColdWarmup, i)
                .spec()
                .spec_fingerprint()
        })
        .collect();
    assert!(
        one.is_disjoint(&warmup),
        "warm-up never pre-compiles a timed instance"
    );
}

#[test]
fn cold_instances_cover_the_stated_families_and_sizes() {
    let instances: Vec<_> = (0..600)
        .map(|i| ColdInstance::generate(7, Stream::Cold, i))
        .collect();
    assert!(instances
        .iter()
        .all(|c| (12..=27).contains(&c.n) && (1..=2).contains(&c.m)));
    for family in [
        inputs::Family::Ba1,
        inputs::Family::Ba2,
        inputs::Family::Regular3,
    ] {
        assert!(instances.iter().any(|c| c.family == family));
    }
    assert!(
        instances.iter().any(|c| c.n == 27),
        "up to the device width"
    );
    // The graph recipe and the explicit model are the same problem.
    let c = instances
        .iter()
        .find(|c| c.family == inputs::Family::Regular3)
        .expect("a 3-regular instance");
    assert_eq!(
        c.spec().problem.resolve().expect("resolves"),
        c.explicit_spec().problem.resolve().expect("resolves")
    );
}

fn digest_of(workload: Workload, seed: u64, seconds: f64) -> (String, u64) {
    let options = Options {
        workload,
        seed,
        seconds,
        trace: false,
    };
    let outcome = workloads::run(&options, &mut Tracer::with_capacity(0)).expect("runs");
    assert_eq!(
        outcome.wrong,
        0,
        "{}: every result matches",
        workload.name()
    );
    (outcome.digest.hex(), outcome.attempted)
}

#[test]
fn the_same_seed_gives_the_same_result_digest() {
    for (workload, seconds) in [
        (Workload::SweepExact, 0.05),
        (Workload::ShardFast, 0.02),
        (Workload::ClusterCold, 0.05),
    ] {
        let first = digest_of(workload, 3, seconds);
        assert_eq!(
            first,
            digest_of(workload, 3, seconds),
            "{}",
            workload.name()
        );
        // shard-fast varies only the pipeline seed, which a fast-tier
        // analytic job's result does not depend on.
        if workload != Workload::ShardFast {
            assert_ne!(
                first,
                digest_of(workload, 4, seconds),
                "{}",
                workload.name()
            );
        }
    }
}

#[test]
fn a_changed_result_byte_changes_the_digest() {
    let digest = |hashes: &[u64]| {
        let mut d = Digest::default();
        hashes.iter().for_each(|&h| d.push(h));
        d.hex()
    };
    let a = perfbench::stats::fnv1a(b"{\"v\":1,\"ev\":-1.25}");
    let b = perfbench::stats::fnv1a(b"{\"v\":1,\"ev\":-1.26}");
    assert_ne!(a, b);
    assert_ne!(digest(&[a, a]), digest(&[a, b]));
    assert_ne!(digest(&[a, b]), digest(&[b, a]), "order matters");
}

fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
    Span {
        name,
        start_ns,
        end_ns,
        parent,
        job: 0,
    }
}

#[test]
fn self_time_is_duration_minus_covered_children() {
    let spans = [
        span("job", 0, 100, None),       // 0
        span("post", 10, 60, Some(0)),   // 1
        span("check", 70, 80, Some(0)),  // 2
        span("decode", 20, 30, Some(1)), // 3
        span("engine", 25, 50, Some(1)), // 4: overlaps decode by 5
        span("worker", 40, 90, Some(4)), // 5: runs past its parent
        span("orphan", 0, 10, Some(99)), // 6: unknown parent
    ];
    let own = self_times(&spans);
    assert_eq!(own[0], 100 - 50 - 10);
    assert_eq!(own[1], 50 - 30, "children 20..50 cover 30 ns once");
    assert_eq!(own[2], 10);
    assert_eq!(own[3], 10);
    assert_eq!(own[4], 25 - 10, "the child is clipped to 40..50");
    assert_eq!(own[5], 50);
    assert_eq!(own[6], 10);
}

#[test]
fn the_tracer_keeps_a_bounded_buffer_and_pauses() {
    let mut tracer = Tracer::with_capacity(2);
    let root = tracer.begin("a", None, 1);
    tracer.set_active(false);
    assert_eq!(tracer.begin("paused", root, 1), None);
    tracer.set_active(true);
    let child = tracer.begin("b", root, 1);
    assert_eq!(tracer.begin("c", root, 1), None, "buffer full");
    tracer.end(child);
    tracer.end(root);
    assert_eq!(tracer.spans().len(), 2);
    assert_eq!(tracer.dropped(), 1);
    assert_eq!(tracer.spans()[1].parent, Some(0));
    let mut off = Tracer::with_capacity(0);
    off.set_active(true);
    assert_eq!(off.begin("x", None, 0), None, "capacity 0 stays off");
}

#[test]
fn the_report_parser_reads_every_metric_with_its_unit() {
    for catalogue in [report::END_TO_END, report::PER_LAYER] {
        let values: Vec<(&'static str, f64)> = catalogue
            .iter()
            .enumerate()
            .map(|(i, m)| (m.name, 0.1 + i as f64 * 1234.5678901))
            .collect();
        let line = Report::new(true, 9, 1, catalogue, &values).to_json_line();
        let parsed = Report::parse(&line).expect("parses");
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (9, 1));
        assert_eq!(parsed.metrics.len(), catalogue.len());
        for ((name, value, unit), (m, (_, expected))) in
            parsed.metrics.iter().zip(catalogue.iter().zip(&values))
        {
            assert_eq!((name.as_str(), unit.as_str()), (m.name, m.unit));
            assert_eq!(value, expected, "{name} keeps every digit");
        }
    }
    assert!(Report::parse("{\"correct\":true}").is_err());
}

#[test]
fn benchmark_json_lists_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = Value::parse(&text).expect("valid JSON");
    for (key, catalogue) in [
        ("end_to_end", report::END_TO_END),
        ("per_layer", report::PER_LAYER),
    ] {
        let listed: Vec<(String, String, String)> = doc
            .field(key)
            .and_then(Value::as_array)
            .expect("a list")
            .iter()
            .map(|m| {
                let s = |k: &str| m.field(k).and_then(Value::as_str).expect(k).to_string();
                (s("name"), s("unit"), s("better"))
            })
            .collect();
        let expected: Vec<(String, String, String)> = catalogue
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect();
        assert_eq!(listed, expected, "{key}");
    }
    let workloads: Vec<String> = doc
        .field("workloads")
        .and_then(Value::as_array)
        .expect("a list")
        .iter()
        .map(|w| {
            w.field("name")
                .and_then(Value::as_str)
                .expect("name")
                .to_string()
        })
        .collect();
    let known: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, known);
}
