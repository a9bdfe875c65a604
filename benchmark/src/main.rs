//! End-to-end benchmark of a whole download: keyed-coefficient encode →
//! dissemination → Schnorr handshake → Eq.-2 serve pass → transport →
//! digest verify → decode, over the event-loop reactor.
//!
//! ```text
//! asymshare-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                     [--results-dir <dir>]        one workload, one process
//! asymshare-benchmark [--seed <n>] [--seconds <s> | --quick]
//!                                                  the full set, results.json
//! asymshare-benchmark --aa [--runs <r>] [--seed <n>] [--seconds <s>]
//! asymshare-benchmark --selftest
//! asymshare-benchmark --manifest                   print BENCHMARK.json
//! asymshare-benchmark --describe                   print the tables as markdown
//! ```
//!
//! `benchmark/run.sh` builds this in release mode and passes its arguments
//! through. The last line of a one-workload run is the result object
//! `{"correct", "attempted", "failed", "metrics"}`; everything above it is
//! for people.

mod json;
mod metrics;
mod ops;
mod probes;
mod run;
mod stats;
mod suite;
mod sys;
mod trace;
mod world;

use std::path::PathBuf;
use std::process::ExitCode;

#[global_allocator]
static ALLOCATOR: sys::CountingAlloc = sys::CountingAlloc;

/// Environment variables that change what the product does; a run scrubs
/// them so every number is taken on the default configuration, and records
/// what they were.
const SCRUBBED: [&str; 2] = ["ASYMSHARE_THREADS", "ASYMSHARE_FAULT_SEED"];

#[derive(Default)]
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    results_dir: Option<PathBuf>,
    quick: bool,
    aa: bool,
    runs: usize,
    selftest: bool,
    manifest: bool,
    describe: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        seed: 1,
        runs: 1,
        ..Cli::default()
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
                cli.seconds = Some(seconds);
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--results-dir" => cli.results_dir = Some(PathBuf::from(value("a directory")?)),
            "--runs" => {
                cli.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?;
                if cli.runs == 0 {
                    return Err("--runs must be at least 1".to_owned());
                }
            }
            "--quick" => cli.quick = true,
            "--aa" => cli.aa = true,
            "--selftest" => cli.selftest = true,
            "--manifest" => cli.manifest = true,
            "--describe" => cli.describe = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

fn print_report(args: &run::RunArgs, report: &run::Report) {
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("  {:<40} {:>14}", "ops_attempted", report.attempted);
    println!("  {:<40} {:>14}", "ops_failed", report.failed);
    for (def, value) in &report.metrics {
        println!("  {:<40} {:>14.4} {}", def.name, value, def.unit);
    }
    for (name, value, unit) in &report.info {
        println!("  {name:<40} {value:>14.4} {unit}");
    }
    for warning in &report.warnings {
        println!("warning: {warning}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted,
        report.failed,
        json::metrics_object(
            report
                .metrics
                .iter()
                .map(|(def, value)| (def.name, *value, def.unit))
        )
    );
}

fn real_main() -> Result<ExitCode, String> {
    let cli = parse_cli()?;
    if cli.manifest {
        print!("{}", suite::benchmark_json());
        return Ok(ExitCode::SUCCESS);
    }
    if cli.describe {
        print!("{}", suite::describe());
        return Ok(ExitCode::SUCCESS);
    }
    if cfg!(debug_assertions) {
        return Err(
            "refusing to measure a debug build; use benchmark/run.sh (cargo build --release)"
                .to_owned(),
        );
    }
    // Single-threaded here, so editing the environment is sound.
    let mut scrubbed = Vec::new();
    for name in SCRUBBED {
        if let Ok(value) = std::env::var(name) {
            eprintln!("note: {name}={value} scrubbed from the environment");
            std::env::remove_var(name);
            scrubbed.push((name.to_owned(), value));
        }
    }
    let results_dir = cli
        .results_dir
        .clone()
        .unwrap_or_else(suite::default_results_dir);
    let default_seconds = if cli.quick {
        f64::from(suite::RUN_SECONDS) / 10.0
    } else {
        f64::from(suite::RUN_SECONDS)
    };
    let seconds = cli.seconds.unwrap_or(default_seconds);

    if cli.selftest {
        suite::selftest()?;
        return Ok(ExitCode::SUCCESS);
    }
    std::fs::create_dir_all(&results_dir).map_err(|e| format!("{}: {e}", results_dir.display()))?;
    if cli.aa {
        let held = suite::aa(cli.seed, seconds, cli.runs, &results_dir, &scrubbed)?;
        return Ok(if held {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    let Some(name) = &cli.workload else {
        let correct = suite::suite(cli.seed, seconds, &results_dir, &scrubbed)?;
        return Ok(if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    };
    let spec = world::spec_named(name).ok_or_else(|| {
        let names: Vec<&str> = world::SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let args = run::RunArgs {
        spec,
        seed: cli.seed,
        seconds,
        trace: cli.trace,
        results_dir,
    };
    let report = run::run(&args);
    print_report(&args, &report);
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("asymshare-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
