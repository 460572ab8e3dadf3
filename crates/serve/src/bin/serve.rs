//! The `serve` binary: run the FrozenQubits HTTP job service.
//!
//! ```text
//! serve [--addr HOST:PORT] [--workers N] [--queue-capacity N]
//!       [--cache-dir PATH] [--cache-capacity N]
//!       [--warm-from HOST:PORT] [--warm-limit N]
//!       [--template-push-cap N]
//!       [--job-ttl-secs N] [--max-done-jobs N]
//!       [--max-body BYTES] [--sync-wait-secs N] [--max-connections N]
//!       [--auth-token TOKEN]
//! ```
//!
//! Defaults serve on `127.0.0.1:8077` with 4 workers. `FQ_SERVE_ADDR`
//! overrides the default address and `FQ_CACHE_DIR` the default cache
//! directory (flags beat the environment). With `--cache-dir`, compiled
//! templates spill to disk and a restarted process starts warm; with
//! `--warm-from`, a fresh shard pulls a peer's hottest templates at
//! boot. The job registry retains finished results for `--job-ttl-secs`
//! (bounded by `--max-done-jobs`); polling an expired id yields a
//! structured `410`. With `--auth-token` (or `FQ_AUTH_TOKEN`), template
//! pushes require the matching bearer token. Everything else is
//! in-memory and safe to kill.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Duration;

use fq_serve::{Server, ServerConfig};

const USAGE: &str = "usage: serve [--addr HOST:PORT] [--workers N] [--queue-capacity N]
             [--cache-dir PATH] [--cache-capacity N]
             [--warm-from HOST:PORT] [--warm-limit N]
             [--template-push-cap N]
             [--job-ttl-secs N] [--max-done-jobs N]
             [--max-body BYTES] [--sync-wait-secs N] [--max-connections N]
             [--auth-token TOKEN]

Serves the FrozenQubits job API over HTTP/1.1:
  POST /v1/jobs             submit a JobSpec (sync; ?mode=async to queue)
  GET  /v1/jobs/{id}        poll an async submission
  GET  /v1/healthz          liveness probe
  GET  /v1/stats            cache/queue/job telemetry
  GET  /v1/templates        resident-template index, hottest first
                            (warm-transfer source; ?limit=K keeps K rows)
  GET  /v1/templates/{fp}   one serialized template artifact
  POST /v1/templates        push a template artifact into this shard

--cache-dir spills compiled templates to disk so restarts start warm;
--warm-from pulls a peer shard's hottest templates at boot.
--auth-token gates POST /v1/templates behind `authorization: Bearer
<token>` (401 otherwise); read endpoints stay open.
FQ_SERVE_ADDR sets the default address, FQ_CACHE_DIR the default cache
directory, and FQ_AUTH_TOKEN the default token; flags win over the
environment. FQ_FAULT_PLAN (chaos testing only, e.g.
`seed=42;worker:panic:1/8;accept:stall:1/4:ms=50`) arms deterministic
fault injection; never set it in production.";

fn parse_args(args: &[String]) -> Result<Option<ServerConfig>, String> {
    let fault_plan = fq_faults::FaultPlan::from_env("FQ_FAULT_PLAN")?;
    if fault_plan.is_some() {
        eprintln!("fq-serve: FQ_FAULT_PLAN set — injecting chaos faults (never use in production)");
    }
    let mut config = ServerConfig {
        addr: std::env::var("FQ_SERVE_ADDR").unwrap_or_else(|_| "127.0.0.1:8077".into()),
        cache_dir: std::env::var("FQ_CACHE_DIR").ok(),
        auth_token: std::env::var("FQ_AUTH_TOKEN").ok(),
        fault_plan: fault_plan.map(std::sync::Arc::new),
        ..ServerConfig::default()
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
            "--auth-token" => config.auth_token = Some(value.clone()),
            "--workers" => config.workers = numeric("--workers")?,
            "--queue-capacity" => config.queue_capacity = numeric("--queue-capacity")?,
            "--cache-capacity" => config.cache_capacity = Some(numeric("--cache-capacity")?),
            "--cache-dir" => config.cache_dir = Some(value.clone()),
            "--warm-from" => config.warm_from = Some(value.clone()),
            "--warm-limit" => config.warm_limit = numeric("--warm-limit")?,
            "--template-push-cap" => config.template_push_cap = numeric("--template-push-cap")?,
            "--job-ttl-secs" => {
                config.job_ttl = Duration::from_secs(numeric("--job-ttl-secs")? as u64);
            }
            "--max-done-jobs" => config.max_done_jobs = numeric("--max-done-jobs")?,
            "--max-body" => config.max_body_bytes = numeric("--max-body")?,
            "--max-connections" => config.max_connections = numeric("--max-connections")?,
            "--sync-wait-secs" => {
                config.sync_wait = Duration::from_secs(numeric("--sync-wait-secs")? as u64);
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
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
            eprintln!("serve: {message}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };

    let workers = config.workers;
    match Server::spawn(config) {
        Ok(handle) => {
            println!(
                "fq-serve listening on http://{} ({} workers); try: curl http://{}/v1/healthz",
                handle.addr(),
                workers,
                handle.addr()
            );
            handle.join();
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("serve: failed to start: {error}");
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
