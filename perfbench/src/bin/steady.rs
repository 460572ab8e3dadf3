//! `steady [--seconds S] [--seeds N] [--first-seed K] [--out FILE]`
//!
//! Runs the benchmark once per seed on every workload — seeds outer,
//! workloads inner, so slow drifts of the host hit every workload alike
//! — and writes the steadiness record: every run's raw end-to-end
//! numbers, each metric's quartiles and spread next to its bound from
//! `BENCHMARK.json`, and the host the runs were made on. Run it from the
//! repository root after building the `perfbench` binary beside it.

use std::process::Command;

use perfbench::report::Report;
use perfbench::stats::{median, quartiles, spread};
use perfbench::sys::{self, Host};
use perfbench::workloads::Workload;
use serde::json::Value;

struct Args {
    seconds: String,
    seeds: u64,
    first_seed: u64,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seconds: "20".into(),
        seeds: 10,
        first_seed: 1,
        out: "perfbench/steadiness.json".into(),
    };
    let raw: Vec<String> = std::env::args().skip(1).collect();
    for pair in raw.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--seconds" => args.seconds = value.clone(),
            "--seeds" => args.seeds = value.parse().map_err(|_| "bad --seeds")?,
            "--first-seed" => args.first_seed = value.parse().map_err(|_| "bad --first-seed")?,
            "--out" => args.out = value.clone(),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// `(name, bound)` of every end-to-end metric in `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let value = Value::parse(&text).map_err(|e| e.0)?;
    value
        .field("end_to_end")
        .and_then(Value::as_array)
        .map_err(|e| e.0)?
        .iter()
        .map(|m| {
            let name = m
                .field("name")
                .and_then(Value::as_str)
                .map_err(|e| e.0.clone())?;
            let bound = m
                .field("bound")
                .and_then(Value::as_f64)
                .map_err(|e| e.0.clone())?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

fn commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> Result<(), String> {
    let args = parse_args()?;
    let bounds = bounds()?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bench = exe.with_file_name("perfbench");
    let host = Host::probe();
    let steal_before = sys::steal_ticks(&[]);
    let started = std::time::Instant::now();

    // runs[workload] = [(seed, report)]
    let mut runs: Vec<Vec<(u64, Report)>> = vec![Vec::new(); Workload::ALL.len()];
    for seed in args.first_seed..args.first_seed + args.seeds {
        for (w, workload) in Workload::ALL.iter().map(|w| w.name()).enumerate() {
            let output = Command::new(&bench)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &args.seconds, "--trace", "0"])
                .output()
                .map_err(|e| format!("running {}: {e}", bench.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let last = stdout.lines().last().unwrap_or_default();
            let report =
                Report::parse(last).map_err(|e| format!("{workload} seed {seed}: {e}: {last}"))?;
            if !output.status.success() || !report.correct {
                return Err(format!("{workload} seed {seed} failed:\n{stdout}"));
            }
            eprintln!("{workload} seed {seed}: {last}");
            runs[w].push((seed, report));
        }
    }

    let mut workloads = Vec::new();
    for (name, runs) in Workload::ALL.iter().map(|w| w.name()).zip(&runs) {
        let mut metrics = Vec::new();
        for (metric, bound) in &bounds {
            let values: Vec<f64> = runs.iter().filter_map(|(_, r)| r.value(metric)).collect();
            if values.len() < 2 {
                continue;
            }
            let [q1, q2, q3] = quartiles(&values);
            let s = spread(&values);
            println!(
                "{name:<13} {metric:<15} median {:>12.4}  spread {:>6.2}%  bound {:>4.0}%{}",
                median(&values),
                s * 100.0,
                bound * 100.0,
                if s > bound / 3.0 {
                    "  ABOVE A THIRD OF THE BOUND"
                } else {
                    ""
                }
            );
            metrics.push((
                metric.as_str(),
                Value::object(vec![
                    (
                        "values",
                        Value::Array(values.iter().map(|&v| Value::Number(v)).collect()),
                    ),
                    (
                        "quartiles",
                        Value::Array([q1, q2, q3].iter().map(|&v| Value::Number(v)).collect()),
                    ),
                    ("spread", Value::Number(s)),
                    ("bound", Value::Number(*bound)),
                ]),
            ));
        }
        workloads.push((
            name,
            Value::object(vec![
                (
                    "seeds",
                    Value::Array(runs.iter().map(|(s, _)| Value::UInt(*s)).collect()),
                ),
                (
                    "attempted",
                    Value::Array(runs.iter().map(|(_, r)| Value::UInt(r.attempted)).collect()),
                ),
                (
                    "failed",
                    Value::Array(runs.iter().map(|(_, r)| Value::UInt(r.failed)).collect()),
                ),
                ("metrics", Value::object(metrics)),
            ]),
        ));
    }

    let allowed = sys::allowed_cpus();
    let record = Value::object(vec![
        (
            "host",
            Value::object(vec![
                ("commit", Value::string(commit())),
                ("nproc", Value::UInt(host.nproc as u64)),
                ("cpu_model", Value::string(host.cpu_model.clone())),
                ("cpu_flags", Value::string(host.cpu_flags.clone())),
                (
                    "affinity",
                    Value::string(format!(
                        "set-up, timed phase and peel on cpu {1} of {0}; references on {0}",
                        sys::cpu_list(&allowed),
                        allowed.last().copied().unwrap_or(0)
                    )),
                ),
                (
                    "steal_ticks",
                    Value::UInt(sys::steal_ticks(&[]) - steal_before),
                ),
                ("wall_s", Value::Number(started.elapsed().as_secs_f64())),
                ("pmu", Value::string(host.pmu)),
            ]),
        ),
        ("seconds", Value::string(args.seconds.clone())),
        ("workloads", Value::object(workloads)),
    ]);
    std::fs::write(&args.out, record.to_json() + "\n").map_err(|e| format!("{}: {e}", args.out))?;
    println!("wrote {}", args.out);
    Ok(())
}
