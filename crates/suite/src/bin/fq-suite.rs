//! The `fq-suite` binary: run, combine, and report on scenario suites.
//!
//! ```text
//! fq-suite run <suite> [--dir DIR] [--live HOST:PORT] [--smoke]
//!                      [--label NAME] [--out FILE]
//! fq-suite combine --out FILE <run.json>...
//! fq-suite report <run.json> [--md FILE] [--bench FILE]
//! fq-suite fingerprint <suite> [--dir DIR] [--smoke]
//! fq-suite list [--dir DIR]
//! ```
//!
//! `run` executes a named suite (from `--dir`, `$FQ_SUITE_DIR`, or the
//! workspace `suites/`) either in-process through `BatchRunner` or
//! against a live shard/dispatcher, and writes a run file whose
//! scenario section is deterministic. `combine` merges run files keyed
//! by scenario id, failing loudly on any divergence. `report` renders
//! `reports/<suite>.md` plus `BENCH_suite.json`. `fingerprint` prints
//! one `id spec-fingerprint routing-fingerprint` line per scenario —
//! the cross-process determinism probe the suite tests diff.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use fq_suite::{
    combine, corpus_dir, render_bench_json, render_markdown, run_suite, RunMode, Suite, SuiteRun,
};

const USAGE: &str = "usage: fq-suite <command>

commands:
  run <suite> [--dir DIR] [--live HOST:PORT] [--smoke] [--label NAME] [--out FILE]
      execute a suite; writes results/suite_<suite>[-smoke].json by default
  combine --out FILE <run.json>...
      merge run files keyed by scenario id (byte-identity enforced)
  report <run.json> [--md FILE] [--bench FILE]
      render reports/<suite>.md and BENCH_suite.json
  fingerprint <suite> [--dir DIR] [--smoke]
      print `id spec-fp routing-fp` per scenario (determinism probe)
  list [--dir DIR]
      list suites in the corpus directory

The corpus directory defaults to $FQ_SUITE_DIR, then ./suites, then the
workspace suites/ next to the fq-suite crate.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") || args.is_empty() {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let result = match args[0].as_str() {
        "run" => cmd_run(&args[1..]),
        "combine" => cmd_combine(&args[1..]),
        "report" => cmd_report(&args[1..]),
        "fingerprint" => cmd_fingerprint(&args[1..]),
        "list" => cmd_list(&args[1..]),
        other => Err(format!("unknown command `{other}`\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("fq-suite: {message}");
            ExitCode::from(2)
        }
    }
}

/// Parsed `(positionals, flag values)` for one subcommand.
struct Parsed {
    positional: Vec<String>,
    dir: Option<String>,
    live: Option<String>,
    smoke: bool,
    label: Option<String>,
    out: Option<String>,
    md: Option<String>,
    bench: Option<String>,
}

fn parse(args: &[String]) -> Result<Parsed, String> {
    let mut parsed = Parsed {
        positional: Vec::new(),
        dir: None,
        live: None,
        smoke: false,
        label: None,
        out: None,
        md: None,
        bench: None,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--dir" => parsed.dir = Some(value("--dir")?),
            "--live" => parsed.live = Some(value("--live")?),
            "--label" => parsed.label = Some(value("--label")?),
            "--out" => parsed.out = Some(value("--out")?),
            "--md" => parsed.md = Some(value("--md")?),
            "--bench" => parsed.bench = Some(value("--bench")?),
            "--smoke" => parsed.smoke = true,
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            _ => parsed.positional.push(arg.clone()),
        }
    }
    Ok(parsed)
}

fn resolved_dir(parsed: &Parsed) -> PathBuf {
    parsed.dir.as_ref().map_or_else(corpus_dir, PathBuf::from)
}

fn cmd_run(args: &[String]) -> Result<(), String> {
    let parsed = parse(args)?;
    let [name] = parsed.positional.as_slice() else {
        return Err("run takes exactly one suite name".to_string());
    };
    let dir = resolved_dir(&parsed);
    let suite = Suite::load(&dir, name).map_err(|e| e.to_string())?;
    let mode = match &parsed.live {
        Some(addr) => RunMode::Live(addr.clone()),
        None => RunMode::InProcess,
    };
    let label = parsed.label.clone().unwrap_or_else(|| mode.name().into());
    let run = run_suite(&suite, &mode, parsed.smoke, &label).map_err(|e| e.to_string())?;

    let failed: Vec<&str> = run
        .records
        .iter()
        .filter(|r| !r.ok)
        .map(|r| r.id.as_str())
        .collect();
    let out = parsed.out.clone().unwrap_or_else(|| {
        format!(
            "results/suite_{name}{}.json",
            if parsed.smoke { "-smoke" } else { "" }
        )
    });
    write_creating_dirs(Path::new(&out), &run.to_json())?;
    println!(
        "fq-suite: ran {} scenario(s) of `{name}` ({}) in {:.1} ms -> {out}",
        run.records.len(),
        mode.name(),
        run.timing[0].total_millis
    );
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "{} scenario(s) failed: {}",
            failed.len(),
            failed.join(", ")
        ))
    }
}

fn cmd_combine(args: &[String]) -> Result<(), String> {
    let parsed = parse(args)?;
    let out = parsed
        .out
        .clone()
        .ok_or_else(|| "combine requires --out FILE".to_string())?;
    if parsed.positional.is_empty() {
        return Err("combine needs at least one run file".to_string());
    }
    let mut runs = Vec::new();
    for path in &parsed.positional {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        runs.push(SuiteRun::from_json(&text).map_err(|e| format!("{path}: {e}"))?);
    }
    let merged = combine(&runs).map_err(|e| e.to_string())?;
    write_creating_dirs(Path::new(&out), &merged.to_json())?;
    println!(
        "fq-suite: combined {} run file(s), {} scenario(s) -> {out}",
        runs.len(),
        merged.records.len()
    );
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let parsed = parse(args)?;
    let [path] = parsed.positional.as_slice() else {
        return Err("report takes exactly one run file".to_string());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let run = SuiteRun::from_json(&text).map_err(|e| e.to_string())?;
    let md_path = parsed
        .md
        .clone()
        .unwrap_or_else(|| format!("reports/{}.md", run.suite));
    let bench_path = parsed
        .bench
        .clone()
        .unwrap_or_else(|| "BENCH_suite.json".to_string());
    write_creating_dirs(Path::new(&md_path), &render_markdown(&run))?;
    write_creating_dirs(Path::new(&bench_path), &render_bench_json(&run))?;
    println!("fq-suite: wrote {md_path} and {bench_path}");
    Ok(())
}

fn cmd_fingerprint(args: &[String]) -> Result<(), String> {
    let parsed = parse(args)?;
    let [name] = parsed.positional.as_slice() else {
        return Err("fingerprint takes exactly one suite name".to_string());
    };
    let suite = Suite::load(&resolved_dir(&parsed), name).map_err(|e| e.to_string())?;
    for scenario in suite.selected(parsed.smoke) {
        let spec = scenario
            .to_spec()
            .map_err(|e| format!("scenario `{}`: {e}", scenario.id))?;
        let routing = spec
            .routing_fingerprint()
            .map_err(|e| format!("scenario `{}`: {e}", scenario.id))?;
        println!("{} {} {}", scenario.id, spec.spec_fingerprint(), routing);
    }
    Ok(())
}

fn cmd_list(args: &[String]) -> Result<(), String> {
    let parsed = parse(args)?;
    let dir = resolved_dir(&parsed);
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot read corpus dir {}: {e}", dir.display()))?
        .filter_map(|entry| {
            let path = entry.ok()?.path();
            (path.extension()? == "json").then(|| path.file_stem()?.to_str().map(String::from))?
        })
        .collect();
    names.sort();
    for name in names {
        match Suite::load(&dir, &name) {
            Ok(suite) => println!(
                "{name}: {} scenario(s), {} smoke — {}",
                suite.scenarios.len(),
                suite.scenarios.iter().filter(|s| s.smoke).count(),
                suite.description
            ),
            Err(e) => println!("{name}: INVALID ({e})"),
        }
    }
    Ok(())
}

fn write_creating_dirs(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        }
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}
