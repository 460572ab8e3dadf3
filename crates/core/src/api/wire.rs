//! The pinned JSON wire format for [`JobSpec`] and [`JobResult`].
//!
//! Hand-written against the canonical document model in
//! [`serde::json`] (the in-tree shim): objects keep field order, the
//! writer emits no whitespace, and numbers use shortest round-trip form,
//! so `to_json(from_json(s)) == s` byte for byte. Golden tests in
//! `tests/api_serde.rs` pin the format; change it only with a version
//! bump of the `"v"` field.

use serde::json::Value;

use fq_ising::{IsingModel, OutputDistribution, SpinVec};
use fq_transpile::{CompileOptions, LayoutStrategy};

use crate::api::{
    BackendSpec, DeviceSpec, ErrorModel, GraphWeighting, JobKind, JobResult, JobSpec, ProblemSpec,
};
use crate::pipeline::CircuitMetrics;
use crate::solve::SolveOutcome;
use crate::{
    ExecutorKind, FqError, FrozenQubitsConfig, HotspotStrategy, QosTier, Report, RunSummary,
};

/// Wire-format version tag of the original (exact-tier) documents.
pub const WIRE_VERSION: u64 = 1;

/// Wire-format version tag of documents carrying QoS-tier fields: a
/// spec with a top-level `"tier"` or a result with an `"error_model"`.
///
/// The versioning is canonical in both directions: an exact job always
/// serializes as v1 (so every pre-tier golden byte is unchanged), a
/// non-exact job always serializes as v2 with its tier field present,
/// and the parser rejects the mixed forms (v1 + tier, v2 − tier,
/// v2 + `"exact"`), so each document has exactly one wire form.
pub const WIRE_VERSION_TIERED: u64 = 2;

fn num(x: f64) -> Value {
    Value::Number(x)
}

fn unum(x: u64) -> Value {
    // Exact across the full u64 range (seeds!), unlike going through f64.
    Value::UInt(x)
}

fn idx(x: usize) -> Value {
    Value::UInt(x as u64)
}

fn bad(msg: impl Into<String>) -> FqError {
    FqError::Serde(msg.into())
}

impl JobSpec {
    /// Serializes to the canonical JSON wire form — v1 for exact jobs
    /// (byte-identical to the pre-tier format), v2 with a top-level
    /// `"tier"` field for approximate jobs.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut pairs = vec![
            (
                "v",
                unum(if self.config.tier.is_exact() {
                    WIRE_VERSION
                } else {
                    WIRE_VERSION_TIERED
                }),
            ),
            ("problem", problem_to_value(&self.problem)),
            ("device", Value::string(self.device.name())),
            ("config", config_to_value(&self.config)),
            ("backend", Value::string(self.backend.name())),
            ("kind", kind_to_value(self.kind)),
        ];
        if !self.config.tier.is_exact() {
            pairs.push(("tier", Value::string(self.config.tier.name())));
        }
        Value::object(pairs).to_json()
    }

    /// Parses the canonical JSON wire form, then applies the refusal
    /// rules [`JobBuilder::build`](crate::api::JobBuilder::build) applies
    /// — all but materializing graph and generator problems, which waits
    /// for the run.
    ///
    /// # Errors
    ///
    /// Returns [`FqError::Serde`] for malformed documents or unknown
    /// names/versions, [`FqError::UnknownTier`] for an unrecognized tier
    /// name (so the service edge can answer with a structured 422
    /// instead of a generic parse failure), and the builder's
    /// [`FqError::InvalidConfig`] / [`FqError::TooManyFrozen`] for a
    /// well-formed spec it would refuse.
    pub fn from_json(text: &str) -> Result<JobSpec, FqError> {
        let v = Value::parse(text)?;
        let tier = spec_tier_from_value(&v)?;
        let device_name = v.field("device")?.as_str()?;
        let spec = JobSpec {
            problem: problem_from_value(v.field("problem")?)?,
            device: DeviceSpec::from_name(device_name)
                .ok_or_else(|| bad(format!("unknown device `{device_name}`")))?,
            config: FrozenQubitsConfig {
                tier,
                ..config_from_value(v.field("config")?)?
            },
            backend: {
                let name = v.field("backend")?.as_str()?;
                BackendSpec::from_name(name)
                    .ok_or_else(|| bad(format!("unknown backend `{name}`")))?
            },
            kind: kind_from_value(v.field("kind")?)?,
        };
        spec.check()?;
        Ok(spec)
    }
}

/// Resolves the version/tier pair of a spec document, rejecting every
/// non-canonical combination.
fn spec_tier_from_value(v: &Value) -> Result<QosTier, FqError> {
    let version = v.field("v")?.as_u64()?;
    match version {
        WIRE_VERSION => {
            if v.get("tier").is_some() {
                return Err(bad(
                    "wire v1 carries no tier field; non-exact tiers use wire v2",
                ));
            }
            Ok(QosTier::Exact)
        }
        WIRE_VERSION_TIERED => {
            let Some(tier_value) = v.get("tier") else {
                return Err(bad(format!(
                    "unsupported wire version {version} without a tier field"
                )));
            };
            let name = tier_value.as_str()?;
            let tier =
                QosTier::from_name(name).ok_or_else(|| FqError::UnknownTier(name.to_string()))?;
            if tier.is_exact() {
                return Err(bad("tier `exact` is canonically wire v1, not v2"));
            }
            Ok(tier)
        }
        other => Err(bad(format!("unsupported wire version {other}"))),
    }
}

impl JobResult {
    /// Serializes to the canonical JSON wire form — v1 for plain
    /// results (byte-identical to the pre-tier format), v2 with an
    /// `"error_model"` field, same payload schema, for `Approx`
    /// wrappers.
    #[must_use]
    pub fn to_json(&self) -> String {
        let (mut plain, mut error_model) = (self, None);
        while let JobResult::Approx {
            error_model: em,
            inner,
        } = plain
        {
            error_model = Some(em);
            plain = inner;
        }
        let mut pairs = vec![
            (
                "v",
                unum(if error_model.is_some() {
                    WIRE_VERSION_TIERED
                } else {
                    WIRE_VERSION
                }),
            ),
            ("kind", Value::string(plain.kind_name())),
        ];
        if let Some(em) = error_model {
            pairs.push(("error_model", error_model_to_value(em)));
        }
        match plain {
            JobResult::Baseline(summary) => pairs.push(("summary", summary_to_value(summary))),
            JobResult::Frozen {
                summary,
                frozen_qubits,
            } => {
                pairs.push(("summary", summary_to_value(summary)));
                pairs.push((
                    "frozen_qubits",
                    Value::Array(frozen_qubits.iter().map(|&q| idx(q)).collect()),
                ));
            }
            JobResult::Compare(report) => pairs.push(("report", report_to_value(report))),
            JobResult::Sample(outcome) => pairs.push(("outcome", outcome_to_value(outcome))),
            JobResult::Approx { .. } => unreachable!("unwrapped above"),
        }
        Value::object(pairs).to_json()
    }

    /// Parses the canonical JSON wire form.
    ///
    /// # Errors
    ///
    /// Returns [`FqError::Serde`] for malformed documents or unknown
    /// kinds/versions.
    pub fn from_json(text: &str) -> Result<JobResult, FqError> {
        let v = Value::parse(text)?;
        let version = v.field("v")?.as_u64()?;
        let error_model = match version {
            WIRE_VERSION => {
                if v.get("error_model").is_some() {
                    return Err(bad(
                        "wire v1 carries no error_model; approximate results use wire v2",
                    ));
                }
                None
            }
            WIRE_VERSION_TIERED => match v.get("error_model") {
                Some(em) => Some(error_model_from_value(em)?),
                None => {
                    return Err(bad(format!(
                        "unsupported wire version {version} without an error_model field"
                    )))
                }
            },
            other => return Err(bad(format!("unsupported wire version {other}"))),
        };
        let plain = match v.field("kind")?.as_str()? {
            "baseline" => JobResult::Baseline(summary_from_value(v.field("summary")?)?),
            "frozen" => JobResult::Frozen {
                summary: summary_from_value(v.field("summary")?)?,
                frozen_qubits: v
                    .field("frozen_qubits")?
                    .as_array()?
                    .iter()
                    .map(Value::as_usize)
                    .collect::<Result<_, _>>()?,
            },
            "compare" => JobResult::Compare(report_from_value(v.field("report")?)?),
            "sample" => JobResult::Sample(outcome_from_value(v.field("outcome")?)?),
            other => return Err(bad(format!("unknown result kind `{other}`"))),
        };
        Ok(match error_model {
            Some(error_model) => JobResult::Approx {
                error_model,
                inner: Box::new(plain),
            },
            None => plain,
        })
    }
}

fn error_model_to_value(em: &ErrorModel) -> Value {
    Value::object(vec![
        ("tier", Value::string(em.tier.name())),
        ("scan_resolution", idx(em.scan_resolution)),
        ("refine_resolution", idx(em.refine_resolution)),
        ("optimizer_evals", idx(em.optimizer_evals)),
        ("lightcone_depth", idx(em.lightcone_depth)),
        ("term_sample_keep", num(em.term_sample_keep)),
        ("rel_bound", num(em.rel_bound)),
        ("abs_floor", num(em.abs_floor)),
    ])
}

fn error_model_from_value(v: &Value) -> Result<ErrorModel, FqError> {
    let name = v.field("tier")?.as_str()?;
    let tier = QosTier::from_name(name).ok_or_else(|| FqError::UnknownTier(name.to_string()))?;
    if tier.is_exact() {
        return Err(bad("an error_model cannot carry tier `exact`"));
    }
    Ok(ErrorModel {
        tier,
        scan_resolution: v.field("scan_resolution")?.as_usize()?,
        refine_resolution: v.field("refine_resolution")?.as_usize()?,
        optimizer_evals: v.field("optimizer_evals")?.as_usize()?,
        lightcone_depth: v.field("lightcone_depth")?.as_usize()?,
        term_sample_keep: v.field("term_sample_keep")?.as_f64()?,
        rel_bound: v.field("rel_bound")?.as_f64()?,
        abs_floor: v.field("abs_floor")?.as_f64()?,
    })
}

pub(crate) fn problem_to_value(problem: &ProblemSpec) -> Value {
    match problem {
        ProblemSpec::Ising(model) => {
            let mut pairs = vec![
                ("type", Value::string("ising")),
                ("num_vars", idx(model.num_vars())),
                ("offset", num(model.offset())),
            ];
            let linear: Vec<Value> = model
                .linears()
                .filter(|&(_, h)| h != 0.0)
                .map(|(i, h)| Value::Array(vec![idx(i), num(h)]))
                .collect();
            pairs.push(("linear", Value::Array(linear)));
            let couplings: Vec<Value> = model
                .couplings()
                .map(|((i, j), jij)| Value::Array(vec![idx(i), idx(j), num(jij)]))
                .collect();
            pairs.push(("couplings", Value::Array(couplings)));
            Value::object(pairs)
        }
        ProblemSpec::Graph {
            num_nodes,
            edges,
            weighting,
        } => {
            let mut pairs = vec![
                ("type", Value::string("graph")),
                ("num_nodes", idx(*num_nodes)),
                (
                    "edges",
                    Value::Array(
                        edges
                            .iter()
                            .map(|&(a, b)| Value::Array(vec![idx(a), idx(b)]))
                            .collect(),
                    ),
                ),
            ];
            match weighting {
                GraphWeighting::Unit => pairs.push(("weighting", Value::string("unit"))),
                GraphWeighting::Pm1 { seed } => {
                    pairs.push(("weighting", Value::string("pm1")));
                    pairs.push(("weighting_seed", unum(*seed)));
                }
            }
            Value::object(pairs)
        }
        ProblemSpec::BarabasiAlbert { n, d, seed } => Value::object(vec![
            ("type", Value::string("barabasi_albert")),
            ("n", idx(*n)),
            ("d", idx(*d)),
            ("seed", unum(*seed)),
        ]),
    }
}

fn problem_from_value(v: &Value) -> Result<ProblemSpec, FqError> {
    match v.field("type")?.as_str()? {
        "ising" => {
            let mut model = IsingModel::new(v.field("num_vars")?.as_usize()?);
            model.set_offset(v.field("offset")?.as_f64()?);
            for item in v.field("linear")?.as_array()? {
                let pair = item.as_array()?;
                if pair.len() != 2 {
                    return Err(bad("linear entries are [index, h] pairs"));
                }
                model.set_linear(pair[0].as_usize()?, pair[1].as_f64()?)?;
            }
            for item in v.field("couplings")?.as_array()? {
                let triple = item.as_array()?;
                if triple.len() != 3 {
                    return Err(bad("coupling entries are [i, j, J] triples"));
                }
                model.set_coupling(
                    triple[0].as_usize()?,
                    triple[1].as_usize()?,
                    triple[2].as_f64()?,
                )?;
            }
            Ok(ProblemSpec::Ising(model))
        }
        "graph" => {
            let edges = v
                .field("edges")?
                .as_array()?
                .iter()
                .map(|item| {
                    let pair = item.as_array()?;
                    if pair.len() != 2 {
                        return Err(serde::json::JsonError("edges are [a, b] pairs".into()));
                    }
                    Ok((pair[0].as_usize()?, pair[1].as_usize()?))
                })
                .collect::<Result<_, _>>()?;
            let weighting = match v.field("weighting")?.as_str()? {
                "unit" => GraphWeighting::Unit,
                "pm1" => GraphWeighting::Pm1 {
                    seed: v.field("weighting_seed")?.as_u64()?,
                },
                other => return Err(bad(format!("unknown weighting `{other}`"))),
            };
            Ok(ProblemSpec::Graph {
                num_nodes: v.field("num_nodes")?.as_usize()?,
                edges,
                weighting,
            })
        }
        "barabasi_albert" => Ok(ProblemSpec::BarabasiAlbert {
            n: v.field("n")?.as_usize()?,
            d: v.field("d")?.as_usize()?,
            seed: v.field("seed")?.as_u64()?,
        }),
        other => Err(bad(format!("unknown problem type `{other}`"))),
    }
}

fn config_to_value(config: &FrozenQubitsConfig) -> Value {
    Value::object(vec![
        ("num_frozen", idx(config.num_frozen)),
        ("layers", idx(config.layers)),
        ("hotspots", hotspots_to_value(&config.hotspots)),
        ("prune_symmetric", Value::Bool(config.prune_symmetric)),
        ("compile", compile_to_value(config.compile)),
        ("param_grid", idx(config.param_grid)),
        ("seed", unum(config.seed)),
        ("executor", executor_to_value(config.executor)),
    ])
}

fn config_from_value(v: &Value) -> Result<FrozenQubitsConfig, FqError> {
    Ok(FrozenQubitsConfig {
        num_frozen: v.field("num_frozen")?.as_usize()?,
        layers: v.field("layers")?.as_usize()?,
        hotspots: hotspots_from_value(v.field("hotspots")?)?,
        prune_symmetric: v.field("prune_symmetric")?.as_bool()?,
        compile: compile_from_value(v.field("compile")?)?,
        param_grid: v.field("param_grid")?.as_usize()?,
        seed: v.field("seed")?.as_u64()?,
        executor: executor_from_value(v.field("executor")?)?,
        // The tier travels as a top-level versioned field, not inside
        // the config object; the caller overrides this for wire v2.
        tier: QosTier::Exact,
    })
}

fn hotspots_to_value(strategy: &HotspotStrategy) -> Value {
    match strategy {
        HotspotStrategy::MaxDegree => Value::object(vec![("policy", Value::string("max_degree"))]),
        HotspotStrategy::MaxAbsCoupling => {
            Value::object(vec![("policy", Value::string("max_abs_coupling"))])
        }
        HotspotStrategy::Random(seed) => Value::object(vec![
            ("policy", Value::string("random")),
            ("seed", unum(*seed)),
        ]),
        HotspotStrategy::Explicit(qubits) => Value::object(vec![
            ("policy", Value::string("explicit")),
            (
                "qubits",
                Value::Array(qubits.iter().map(|&q| idx(q)).collect()),
            ),
        ]),
    }
}

fn hotspots_from_value(v: &Value) -> Result<HotspotStrategy, FqError> {
    match v.field("policy")?.as_str()? {
        "max_degree" => Ok(HotspotStrategy::MaxDegree),
        "max_abs_coupling" => Ok(HotspotStrategy::MaxAbsCoupling),
        "random" => Ok(HotspotStrategy::Random(v.field("seed")?.as_u64()?)),
        "explicit" => Ok(HotspotStrategy::Explicit(
            v.field("qubits")?
                .as_array()?
                .iter()
                .map(Value::as_usize)
                .collect::<Result<_, _>>()?,
        )),
        other => Err(bad(format!("unknown hotspot policy `{other}`"))),
    }
}

pub(crate) fn compile_to_value(options: CompileOptions) -> Value {
    // Exhaustive on purpose: a new LayoutStrategy variant must fail to
    // compile here until it gets a wire name.
    let layout = match options.layout {
        LayoutStrategy::Trivial => "trivial",
        LayoutStrategy::NoiseAdaptive => "noise_adaptive",
    };
    Value::object(vec![
        ("layout", Value::string(layout)),
        ("optimize", Value::Bool(options.optimize)),
    ])
}

pub(crate) fn compile_from_value(v: &Value) -> Result<CompileOptions, FqError> {
    let layout = match v.field("layout")?.as_str()? {
        "trivial" => LayoutStrategy::Trivial,
        "noise_adaptive" => LayoutStrategy::NoiseAdaptive,
        other => return Err(bad(format!("unknown layout strategy `{other}`"))),
    };
    Ok(CompileOptions {
        layout,
        optimize: v.field("optimize")?.as_bool()?,
    })
}

fn executor_to_value(kind: ExecutorKind) -> Value {
    match kind {
        ExecutorKind::Sequential => Value::object(vec![("kind", Value::string("sequential"))]),
        ExecutorKind::Parallel => Value::object(vec![("kind", Value::string("parallel"))]),
        ExecutorKind::Threads(t) => Value::object(vec![
            ("kind", Value::string("threads")),
            ("threads", idx(t)),
        ]),
    }
}

fn executor_from_value(v: &Value) -> Result<ExecutorKind, FqError> {
    match v.field("kind")?.as_str()? {
        "sequential" => Ok(ExecutorKind::Sequential),
        "parallel" => Ok(ExecutorKind::Parallel),
        "threads" => Ok(ExecutorKind::Threads(v.field("threads")?.as_usize()?)),
        other => Err(bad(format!("unknown executor kind `{other}`"))),
    }
}

fn kind_to_value(kind: JobKind) -> Value {
    match kind {
        JobKind::Baseline => Value::object(vec![("type", Value::string("baseline"))]),
        JobKind::Frozen => Value::object(vec![("type", Value::string("frozen"))]),
        JobKind::Compare => Value::object(vec![("type", Value::string("compare"))]),
        JobKind::Sample { shots } => Value::object(vec![
            ("type", Value::string("sample")),
            ("shots", unum(shots)),
        ]),
    }
}

fn kind_from_value(v: &Value) -> Result<JobKind, FqError> {
    match v.field("type")?.as_str()? {
        "baseline" => Ok(JobKind::Baseline),
        "frozen" => Ok(JobKind::Frozen),
        "compare" => Ok(JobKind::Compare),
        "sample" => Ok(JobKind::Sample {
            shots: v.field("shots")?.as_u64()?,
        }),
        other => Err(bad(format!("unknown job kind `{other}`"))),
    }
}

fn metrics_to_value(metrics: &CircuitMetrics) -> Value {
    Value::object(vec![
        ("logical_cnots", idx(metrics.logical_cnots)),
        ("compiled_cnots", idx(metrics.compiled_cnots)),
        ("swap_count", idx(metrics.swap_count)),
        ("depth", idx(metrics.depth)),
        ("duration_ns", num(metrics.duration_ns)),
    ])
}

fn metrics_from_value(v: &Value) -> Result<CircuitMetrics, FqError> {
    Ok(CircuitMetrics {
        logical_cnots: v.field("logical_cnots")?.as_usize()?,
        compiled_cnots: v.field("compiled_cnots")?.as_usize()?,
        swap_count: v.field("swap_count")?.as_usize()?,
        depth: v.field("depth")?.as_usize()?,
        duration_ns: v.field("duration_ns")?.as_f64()?,
    })
}

fn summary_to_value(summary: &RunSummary) -> Value {
    Value::object(vec![
        ("label", Value::string(&summary.label)),
        ("circuit_qubits", idx(summary.circuit_qubits)),
        ("circuits_executed", unum(summary.circuits_executed)),
        ("metrics", metrics_to_value(&summary.metrics)),
        ("ev_ideal", num(summary.ev_ideal)),
        ("ev_noisy", num(summary.ev_noisy)),
        ("arg", num(summary.arg)),
        ("log_eps", num(summary.log_eps)),
        (
            "params",
            Value::Array(vec![num(summary.params.0), num(summary.params.1)]),
        ),
    ])
}

fn summary_from_value(v: &Value) -> Result<RunSummary, FqError> {
    let params = v.field("params")?.as_array()?;
    if params.len() != 2 {
        return Err(bad("params is a [gamma, beta] pair"));
    }
    Ok(RunSummary {
        label: v.field("label")?.as_str()?.to_string(),
        circuit_qubits: v.field("circuit_qubits")?.as_usize()?,
        circuits_executed: v.field("circuits_executed")?.as_u64()?,
        metrics: metrics_from_value(v.field("metrics")?)?,
        ev_ideal: v.field("ev_ideal")?.as_f64()?,
        ev_noisy: v.field("ev_noisy")?.as_f64()?,
        arg: v.field("arg")?.as_f64()?,
        log_eps: v.field("log_eps")?.as_f64()?,
        params: (params[0].as_f64()?, params[1].as_f64()?),
    })
}

fn report_to_value(report: &Report) -> Value {
    Value::object(vec![
        ("baseline", summary_to_value(&report.baseline)),
        ("frozen", summary_to_value(&report.frozen)),
        (
            "frozen_qubits",
            Value::Array(report.frozen_qubits.iter().map(|&q| idx(q)).collect()),
        ),
        ("improvement", num(report.improvement)),
    ])
}

fn report_from_value(v: &Value) -> Result<Report, FqError> {
    Ok(Report {
        baseline: summary_from_value(v.field("baseline")?)?,
        frozen: summary_from_value(v.field("frozen")?)?,
        frozen_qubits: v
            .field("frozen_qubits")?
            .as_array()?
            .iter()
            .map(Value::as_usize)
            .collect::<Result<_, _>>()?,
        improvement: v.field("improvement")?.as_f64()?,
    })
}

fn outcome_to_value(outcome: &SolveOutcome) -> Value {
    // HashMap-backed distributions iterate nondeterministically; sort by
    // outcome index so the wire form is canonical.
    let mut entries: Vec<(&SpinVec, u64)> = outcome.distribution.iter().collect();
    entries.sort_by_key(|(z, _)| z.to_index());
    Value::object(vec![
        ("best", Value::string(outcome.best.to_bitstring())),
        ("energy", num(outcome.energy)),
        (
            "distribution",
            Value::Array(
                entries
                    .into_iter()
                    .map(|(z, count)| {
                        Value::Array(vec![Value::string(z.to_bitstring()), unum(count)])
                    })
                    .collect(),
            ),
        ),
        (
            "frozen_qubits",
            Value::Array(outcome.frozen_qubits.iter().map(|&q| idx(q)).collect()),
        ),
    ])
}

fn outcome_from_value(v: &Value) -> Result<SolveOutcome, FqError> {
    let best = SpinVec::parse_bitstring(v.field("best")?.as_str()?)?;
    let mut distribution = OutputDistribution::new(best.len());
    for item in v.field("distribution")?.as_array()? {
        let pair = item.as_array()?;
        if pair.len() != 2 {
            return Err(bad("distribution entries are [bitstring, count] pairs"));
        }
        let outcome = SpinVec::parse_bitstring(pair[0].as_str()?)?;
        // record() asserts on width; turn corrupt documents into errors
        // instead of panics.
        if outcome.len() != best.len() {
            return Err(bad(format!(
                "distribution outcome has {} spins, expected {}",
                outcome.len(),
                best.len()
            )));
        }
        distribution.record(outcome, pair[1].as_u64()?);
    }
    Ok(SolveOutcome {
        best,
        energy: v.field("energy")?.as_f64()?,
        distribution,
        frozen_qubits: v
            .field("frozen_qubits")?
            .as_array()?
            .iter()
            .map(Value::as_usize)
            .collect::<Result<_, _>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{ErrorModel, JobBuilder, QosTier};

    #[test]
    fn spec_round_trips_byte_for_byte() {
        let spec = JobBuilder::new()
            .barabasi_albert(12, 1, 7)
            .device(DeviceSpec::IbmAuckland)
            .backend(BackendSpec::NoiseModel)
            .num_frozen(2)
            .frozen()
            .build()
            .unwrap();
        let text = spec.to_json();
        let back = JobSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn explicit_ising_spec_round_trips() {
        let mut model = IsingModel::new(4);
        model.set_coupling(0, 1, 1.0).unwrap();
        model.set_coupling(1, 2, -0.5).unwrap();
        model.set_linear(3, 0.25).unwrap();
        model.set_offset(1.5);
        let spec = JobBuilder::new()
            .ising(model)
            .device(DeviceSpec::IbmMontreal)
            .compare()
            .build()
            .unwrap();
        let text = spec.to_json();
        let back = JobSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json(), text);
    }

    #[test]
    fn unknown_names_fail_loudly() {
        let spec = JobBuilder::new()
            .barabasi_albert(8, 1, 1)
            .device(DeviceSpec::IbmMontreal)
            .baseline()
            .build()
            .unwrap();
        let text = spec.to_json();
        for (from, to) in [
            ("ibmq_montreal", "ibm_atlantis"),
            ("\"sim\"", "\"warp\""),
            ("baseline", "vibes"),
            ("\"v\":1", "\"v\":2"),
        ] {
            let mutated = text.replace(from, to);
            assert!(
                matches!(JobSpec::from_json(&mutated), Err(FqError::Serde(_))),
                "`{to}` must be rejected"
            );
        }
    }

    fn spec_with(tier: Option<QosTier>) -> JobSpec {
        let mut builder = JobBuilder::new()
            .barabasi_albert(8, 1, 1)
            .device(DeviceSpec::IbmMontreal)
            .baseline();
        if let Some(tier) = tier {
            builder = builder.tier(tier);
        }
        builder.build().unwrap()
    }

    #[test]
    fn tiered_specs_use_wire_v2_and_exact_stays_v1() {
        let exact = spec_with(None).to_json();
        assert!(exact.contains("\"v\":1"), "{exact}");
        assert!(!exact.contains("\"tier\""), "{exact}");

        let tiered = spec_with(Some(QosTier::Fast));
        let text = tiered.to_json();
        assert!(text.contains("\"v\":2"), "{text}");
        assert!(text.contains("\"tier\":\"fast\""), "{text}");
        let back = JobSpec::from_json(&text).unwrap();
        assert_eq!(back, tiered);
        assert_eq!(back.to_json(), text, "byte round-trip");
    }

    #[test]
    fn non_canonical_tier_encodings_are_rejected() {
        let tiered = spec_with(Some(QosTier::Balanced)).to_json();

        // A tier field on wire v1 — v1 predates tiers.
        let v1_with_tier = tiered.replace("\"v\":2", "\"v\":1");
        assert!(JobSpec::from_json(&v1_with_tier).is_err());

        // Wire v2 spelling out the default tier — the canonical form of
        // an exact spec is v1 with no tier field.
        let v2_exact = tiered.replace("\"tier\":\"balanced\"", "\"tier\":\"exact\"");
        assert!(JobSpec::from_json(&v2_exact).is_err());

        // Wire v2 with the tier field missing entirely.
        let v2_missing = tiered.replace(",\"tier\":\"balanced\"", "");
        let err = JobSpec::from_json(&v2_missing).unwrap_err();
        assert!(
            err.to_string().contains("unsupported wire version"),
            "{err}"
        );

        // A tier name this build does not know gets its own variant so
        // the service edge can map it to a structured 422.
        let unknown = tiered.replace("\"tier\":\"balanced\"", "\"tier\":\"turbo\"");
        assert!(matches!(
            JobSpec::from_json(&unknown),
            Err(FqError::UnknownTier(name)) if name == "turbo"
        ));
    }

    #[test]
    fn approx_results_carry_their_error_model_on_wire_v2() {
        let exact = spec_with(None).run().unwrap();
        assert!(exact.error_model().is_none());
        let exact_text = exact.to_json();
        assert!(exact_text.contains("\"v\":1"), "{exact_text}");
        assert!(!exact_text.contains("error_model"), "{exact_text}");

        let result = spec_with(Some(QosTier::Balanced)).run().unwrap();
        let em = *result.error_model().expect("non-exact result has a model");
        assert_eq!(em, ErrorModel::balanced());
        let text = result.to_json();
        assert!(text.contains("\"v\":2"), "{text}");
        assert!(text.contains("\"error_model\""), "{text}");
        assert!(text.contains("\"tier\":\"balanced\""), "{text}");
        let back = JobResult::from_json(&text).unwrap();
        assert_eq!(back, result);
        assert_eq!(back.to_json(), text, "byte round-trip");

        // An error model on a v1 result is as non-canonical as a tier
        // on a v1 spec.
        let v1_with_model = text.replace("\"v\":2", "\"v\":1");
        assert!(JobResult::from_json(&v1_with_model).is_err());
    }
}
