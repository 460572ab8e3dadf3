//! The `dispatch` binary: run the cluster front door over a fleet of
//! `fq-serve` shards.
//!
//! ```text
//! dispatch --shard HOST:PORT [--shard HOST:PORT ...]
//!          [--addr HOST:PORT] [--forwarders N] [--queue-capacity N]
//!          [--sync-wait-secs N] [--sentinel-interval-ms N]
//!          [--warm-batch N] [--retry-rounds N] [--retry-backoff-ms N]
//!          [--retry-backoff-cap-ms N] [--probe-timeout-ms N]
//!          [--job-ttl-secs N] [--max-done-jobs N]
//!          [--max-body BYTES] [--max-connections N]
//!          [--auth-token TOKEN]
//! ```
//!
//! Defaults listen on `127.0.0.1:8070`. `FQ_DISPATCH_ADDR` overrides
//! the default address and `FQ_AUTH_TOKEN` the default token (flags
//! beat the environment). At least one `--shard` is required; more can
//! join at runtime via `POST /v1/shards`. The token, when set, gates
//! `POST /v1/shards` here and is presented to shards on sentinel
//! template pushes — run one token cluster-wide.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Duration;

use fq_dispatch::{DispatchConfig, Dispatcher};

const USAGE: &str = "usage: dispatch --shard HOST:PORT [--shard HOST:PORT ...]
                [--addr HOST:PORT] [--forwarders N] [--queue-capacity N]
                [--sync-wait-secs N] [--sentinel-interval-ms N]
                [--warm-batch N] [--retry-rounds N] [--retry-backoff-ms N]
                [--retry-backoff-cap-ms N] [--probe-timeout-ms N]
                [--job-ttl-secs N] [--max-done-jobs N]
                [--max-body BYTES] [--max-connections N]
                [--auth-token TOKEN]

Fronts a fleet of fq-serve shards with the shard job API:
  POST /v1/jobs             submit a JobSpec; routed by template affinity
  GET  /v1/jobs/{id}        poll a dispatcher-side submission
  POST /v1/batch            a JSON array of specs; scattered and merged in order
  GET  /v1/healthz          dispatcher liveness
  GET  /v1/stats            shard roster/health/telemetry + cluster counters
  GET  /v1/shards           the shard roster
  POST /v1/shards           admin join ({\"addr\":\"host:port\"}), token-gated

Jobs route to shards by rendezvous-hashing their template fingerprint,
so each compiled template concentrates on one shard. A background
sentinel probes shard health and stats, and pushes compiled templates
toward their rendezvous owners so cold or newly joined shards warm up
while the cluster runs.
FQ_DISPATCH_ADDR sets the default address and FQ_AUTH_TOKEN the default
token; flags win over the environment. FQ_FAULT_PLAN (chaos testing
only, e.g. `seed=7;dial:refuse:1/4;response:truncate:1/8`) arms
deterministic fault injection on the forwarding paths; never set it in
production.";

fn parse_args(args: &[String]) -> Result<Option<DispatchConfig>, String> {
    let fault_plan = fq_faults::FaultPlan::from_env("FQ_FAULT_PLAN")?;
    if fault_plan.is_some() {
        eprintln!(
            "fq-dispatch: FQ_FAULT_PLAN set — injecting chaos faults (never use in production)"
        );
    }
    let mut config = DispatchConfig {
        addr: std::env::var("FQ_DISPATCH_ADDR").unwrap_or_else(|_| "127.0.0.1:8070".into()),
        auth_token: std::env::var("FQ_AUTH_TOKEN").ok(),
        fault_plan: fault_plan.map(std::sync::Arc::new),
        ..DispatchConfig::default()
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(None);
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let numeric = |what: &str| {
            value
                .parse::<usize>()
                .map_err(|_| format!("{what} must be an integer, got `{value}`"))
        };
        match flag.as_str() {
            "--addr" => config.addr = value.clone(),
            "--shard" => config.shards.push(value.clone()),
            "--auth-token" => config.auth_token = Some(value.clone()),
            "--forwarders" => config.forwarders = numeric("--forwarders")?,
            "--queue-capacity" => config.queue_capacity = numeric("--queue-capacity")?,
            "--sync-wait-secs" => {
                config.sync_wait = Duration::from_secs(numeric("--sync-wait-secs")? as u64);
            }
            "--sentinel-interval-ms" => {
                config.sentinel_interval =
                    Duration::from_millis(numeric("--sentinel-interval-ms")? as u64);
            }
            "--warm-batch" => config.warm_batch = numeric("--warm-batch")?,
            "--retry-rounds" => config.retry_rounds = numeric("--retry-rounds")?,
            "--retry-backoff-ms" => {
                config.retry_backoff = Duration::from_millis(numeric("--retry-backoff-ms")? as u64);
            }
            "--retry-backoff-cap-ms" => {
                config.retry_backoff_cap =
                    Duration::from_millis(numeric("--retry-backoff-cap-ms")? as u64);
            }
            "--probe-timeout-ms" => {
                config.probe_timeout = Duration::from_millis(numeric("--probe-timeout-ms")? as u64);
            }
            "--job-ttl-secs" => {
                config.job_ttl = Duration::from_secs(numeric("--job-ttl-secs")? as u64);
            }
            "--max-done-jobs" => config.max_done_jobs = numeric("--max-done-jobs")?,
            "--max-body" => config.max_body_bytes = numeric("--max-body")?,
            "--max-connections" => config.max_connections = numeric("--max-connections")?,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    if config.shards.is_empty() {
        return Err("at least one --shard HOST:PORT is required".into());
    }
    Ok(Some(config))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let config = match parse_args(&args) {
        Ok(Some(config)) => config,
        Ok(None) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(message) => {
            eprintln!("dispatch: {message}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let shards = config.shards.len();
    match Dispatcher::spawn(config) {
        Ok(handle) => {
            println!(
                "fq-dispatch listening on http://{} ({} shard{}); try: curl http://{}/v1/stats",
                handle.addr(),
                shards,
                if shards == 1 { "" } else { "s" },
                handle.addr()
            );
            handle.join();
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("dispatch: failed to start: {error}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_usage_flag_parses_and_no_other_does() {
        // Each flag of the synopsis, followed by a value of the kind its
        // placeholder names.
        let synopsis = USAGE.split("\n\n").next().expect("a synopsis");
        let words: Vec<&str> = synopsis
            .split([' ', '\n', '[', ']'])
            .filter(|word| !word.is_empty())
            .collect();
        let args: Vec<String> = words
            .windows(2)
            .filter(|pair| pair[0].starts_with("--"))
            .flat_map(|pair| match pair[1] {
                "N" | "BYTES" => [pair[0], "1"],
                "HOST:PORT" => [pair[0], "127.0.0.1:1"],
                other => [pair[0], other],
            })
            .map(str::to_string)
            .collect();
        assert!(args.len() > 20, "{args:?}");
        assert!(parse_args(&args).unwrap().is_some());
        for flag in ["--backend", "--engine-threads"] {
            let error = parse_args(&[flag.to_string(), "1".to_string()]).unwrap_err();
            assert!(error.contains("unknown flag"), "{error}");
        }
    }
}
