//! The metric catalogue and the report line every run ends with.
//!
//! The last line of a run's standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! An untraced run reports every [`END_TO_END`] metric, a traced run
//! every [`PER_LAYER`] one. `BENCHMARK.json` at the repository root
//! lists the same names and units (pinned by the self-tests).

use serde::json::Value;

/// One metric: name, unit, and which direction is better.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricDef {
    /// Metric name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the system sees; measured only by untraced runs.
pub const END_TO_END: &[MetricDef] = &[
    def("setup_s", "s", "lower"),
    def("jobs_per_s", "jobs/s", "higher"),
    def("latency_p50_ms", "ms", "lower"),
    def("cpu_ms_per_job", "ms", "lower"),
    def("peak_rss_mb", "MB", "lower"),
];

/// Printed by untraced runs beside [`END_TO_END`] but not part of the
/// report line: `failed_share` is 0 on two of the three workloads (the
/// line carries it as `failed`/`attempted`), and a 99th percentile is
/// only steady where a run has ~10^5 samples (`shard-fast`).
pub const END_TO_END_EXTRA: &[MetricDef] = &[
    def("failed_share", "share", "lower"),
    def("latency_p99_ms", "ms", "lower"),
];

/// Single layers, measured by traced runs.
pub const PER_LAYER: &[MetricDef] = &[
    def("api.decode_us", "us", "lower"),
    def("api.encode_us", "us", "lower"),
    def("api.response_bytes", "bytes", "lower"),
    def("api.resolve_us", "us", "lower"),
    def("plan.unit_us", "us", "lower"),
    def("plan.hit_share", "share", "higher"),
    def("plan.templates_resident", "count", "lower"),
    def("transpile.compiles_per_job", "compiles/job", "lower"),
    def("transpile.compile_us", "us", "lower"),
    def("transpile.stuck_share", "share", "lower"),
    def("optim.branch_us", "us", "lower"),
    def("exec.branch_us", "us", "lower"),
    def("exec.branches_per_job", "branches/job", "lower"),
    def("sim.sample_us", "us", "lower"),
    def("engine.job_us", "us", "lower"),
    def("serve.healthz_us", "us", "lower"),
    def("serve.post_us", "us", "lower"),
    def("serve.self_us", "us", "lower"),
    def("serve.connects_per_job", "dials/job", "lower"),
    def("dispatch.post_us", "us", "lower"),
    def("dispatch.self_us", "us", "lower"),
    def("dispatch.rerouted_per_job", "reroutes/job", "lower"),
    def("dispatch.shed_per_job", "sheds/job", "lower"),
    def("dispatch.warm_pushes", "count", "lower"),
    def("dispatch.owner_share_max", "share", "lower"),
    def("proc.ctx_switches_per_job", "switches/job", "lower"),
    def("proc.minor_faults_per_job", "faults/job", "lower"),
    def("client.latency_p99_ms", "ms", "lower"),
    def("trace.overhead_share", "share", "lower"),
];

/// Looks a metric up in every catalogue.
#[must_use]
pub fn find(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(END_TO_END_EXTRA)
        .chain(PER_LAYER)
        .find(|m| m.name == name)
}

/// A parsed or about-to-be-printed report line.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Every result matched its reference.
    pub correct: bool,
    /// Jobs attempted in the timed phase.
    pub attempted: u64,
    /// Jobs that failed or were wrong.
    pub failed: u64,
    /// `(name, value, unit)` in catalogue order.
    pub metrics: Vec<(String, f64, String)>,
}

impl Report {
    /// Builds a report from measured values, taking names and units from
    /// `catalogue`.
    ///
    /// # Panics
    ///
    /// If `values` misses a catalogue metric — a benchmark bug.
    #[must_use]
    pub fn new(
        correct: bool,
        attempted: u64,
        failed: u64,
        catalogue: &[MetricDef],
        values: &[(&'static str, f64)],
    ) -> Report {
        let metrics = catalogue
            .iter()
            .map(|m| {
                let value = values
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .map(|&(_, v)| v)
                    .unwrap_or_else(|| panic!("metric {} was not measured", m.name));
                (m.name.to_string(), value, m.unit.to_string())
            })
            .collect();
        Report {
            correct,
            attempted,
            failed,
            metrics,
        }
    }

    /// The one-line JSON form. Values keep every digit Rust's shortest
    /// round-trip formatting gives; a non-finite value prints as 0.
    #[must_use]
    pub fn to_json_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!(
                    "{}:{{\"value\":{value:?},\"unit\":{}}}",
                    Value::string(name.as_str()).to_json(),
                    Value::string(unit.as_str()).to_json()
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct, self.attempted, self.failed
        )
    }

    /// Parses a report line.
    ///
    /// # Errors
    ///
    /// A message naming the missing or malformed field.
    pub fn parse(line: &str) -> Result<Report, String> {
        let value = Value::parse(line.trim()).map_err(|e| e.0)?;
        let field = |key: &str| value.field(key).map_err(|e| e.0);
        let metrics = match field("metrics")? {
            Value::Object(pairs) => pairs
                .iter()
                .map(|(name, metric)| {
                    let number = metric.field("value").and_then(Value::as_f64);
                    let unit = metric
                        .field("unit")
                        .and_then(|u| u.as_str().map(String::from));
                    match (number, unit) {
                        (Ok(v), Ok(u)) => Ok((name.clone(), v, u)),
                        _ => Err(format!("metric {name} lacks a numeric value or a unit")),
                    }
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => return Err("`metrics` is not an object".to_string()),
        };
        Ok(Report {
            correct: field("correct")?.as_bool().map_err(|e| e.0)?,
            attempted: field("attempted")?.as_u64().map_err(|e| e.0)?,
            failed: field("failed")?.as_u64().map_err(|e| e.0)?,
            metrics,
        })
    }

    /// The value of metric `name`, if present.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }
}

/// Formats one human-readable metric line: `metric <name> <value> <unit>`.
#[must_use]
pub fn metric_line(name: &str, value: f64) -> String {
    let unit = find(name).map_or("", |m| m.unit);
    format!("metric {name:<28} {value:>14.6} {unit}")
}
