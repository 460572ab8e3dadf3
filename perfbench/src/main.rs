//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload in this process and prints its metrics, one per
//! line with its unit, then the report line (see `report.rs`). Exits
//! non-zero when any result differs from its reference.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::{self, Report};
use perfbench::sys::{self, Host};
use perfbench::trace::{self, Tracer};
use perfbench::workloads::{self, Options, Workload};

const USAGE: &str = "usage: perfbench --workload <sweep-exact|shard-fast|cluster-cold> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: impl Iterator<Item = String>) -> Result<Options, String> {
    let args: Vec<String> = args.collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?;
    let options = Options {
        workload: Workload::from_name(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|_| "--seed must be a non-negative integer".to_string())?,
        seconds: value("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0 && s.is_finite())
            .ok_or("--seconds must be a positive number")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err("--trace must be 0 or 1".to_string()),
        },
    };
    Ok(options)
}

fn main() -> ExitCode {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if std::env::var_os("FQ_THREADS").is_some() {
        // The benchmark measures the engine's default thread count.
        eprintln!("perfbench: ignoring FQ_THREADS");
        std::env::remove_var("FQ_THREADS");
    }
    let host = Host::probe();
    let steal_before = sys::steal_ticks(&[]);
    let jobs = options.workload.jobs_for(options.seconds);
    let mut tracer = Tracer::with_capacity(if options.trace { 2 * jobs + 100_000 } else { 0 });
    let outcome = match workloads::run(&options, &mut tracer) {
        Ok(outcome) => outcome,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(1);
        }
    };

    println!(
        "perfbench workload={} seed={} seconds={} trace={} jobs={jobs}",
        options.workload.name(),
        options.seed,
        options.seconds,
        u8::from(options.trace)
    );
    println!(
        "host: nproc={} cpu=\"{}\" pmu={} steal_ticks={}",
        host.nproc,
        host.cpu_model,
        host.pmu,
        sys::steal_ticks(&[]) - steal_before
    );
    for note in &outcome.notes {
        println!("note: {note}");
    }
    println!(
        "digest: {} over {} jobs ({} failed, {} wrong)",
        outcome.digest.hex(),
        outcome.attempted,
        outcome.failed,
        outcome.wrong
    );
    let catalogue = if options.trace {
        report::PER_LAYER
    } else {
        println!(
            "{}",
            report::metric_line("failed_share", value(&outcome, "failed_share"))
        );
        println!(
            "{}",
            report::metric_line("latency_p99_ms", value(&outcome, "latency_p99_ms"))
        );
        report::END_TO_END
    };
    for metric in catalogue {
        println!(
            "{}",
            report::metric_line(metric.name, value(&outcome, metric.name))
        );
    }
    if options.trace {
        let path = PathBuf::from(format!(
            "perfbench/out/trace-{}-seed{}.tsv",
            options.workload.name(),
            options.seed
        ));
        match tracer.write_tsv(&path) {
            Ok(()) => println!(
                "spans: {} written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
        println!("spans dropped (buffer full): {}", tracer.dropped());
        println!("span                      count    mean_us    self_us");
        for (name, (count, total, own)) in trace::totals_by_name(tracer.spans()) {
            let mean = |ns: u64| ns as f64 / count.max(1) as f64 / 1e3;
            println!(
                "{name:<22} {count:>8} {:>10.2} {:>10.2}",
                mean(total),
                mean(own)
            );
        }
    }
    let report = Report::new(
        outcome.wrong == 0,
        outcome.attempted,
        outcome.failed,
        catalogue,
        &outcome.values,
    );
    println!("{}", report.to_json_line());
    if outcome.wrong == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn value(outcome: &workloads::Outcome, name: &str) -> f64 {
    outcome
        .values
        .iter()
        .find(|(n, _)| *n == name)
        .map_or(f64::NAN, |&(_, v)| v)
}
