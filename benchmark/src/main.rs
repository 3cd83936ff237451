//! Command line of the benchmark. `run.sh` builds and then executes this.
//!
//! ```text
//! secmod_benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last line of stdout is the result JSON
//! secmod_benchmark [--seed <n>] [--seconds <s>] [--smoke] [--repeat <n>]
//!     all seven workloads, untraced then traced, each in a fresh process
//! secmod_benchmark --print-benchmark-json
//! ```

use secmod_benchmark::run::{self, RunArgs};
use secmod_benchmark::workloads::Kind;
use secmod_benchmark::{schema, suite};
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    smoke: bool,
    repeat: usize,
    print_schema: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: schema::RUN_SECONDS as f64,
        trace: false,
        quick: false,
        smoke: false,
        repeat: 1,
        print_schema: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cli.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--repeat" => {
                cli.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--quick" => cli.quick = true,
            "--smoke" => cli.smoke = true,
            "--print-benchmark-json" => cli.print_schema = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
        return Err(format!("--seconds must be in (0, 60], not {}", cli.seconds));
    }
    if cli.repeat == 0 {
        return Err("--repeat must be at least 1".into());
    }
    Ok(cli)
}

/// The benchmark's directory inside the checkout the command runs from.
fn out_dir() -> PathBuf {
    PathBuf::from("benchmark/out")
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("secmod_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    if cli.print_schema {
        print!("{}", schema::benchmark_json_text());
        return ExitCode::SUCCESS;
    }
    let Some(name) = cli.workload else {
        let ok = suite::run(&suite::SuiteArgs {
            seed: cli.seed,
            seconds: cli.seconds,
            smoke: cli.smoke,
            repeat: cli.repeat,
            out_dir: out_dir(),
        });
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    };
    let Some(kind) = Kind::from_name(&name) else {
        eprintln!("secmod_benchmark: no workload named {name}");
        return ExitCode::from(2);
    };
    let report = run::run(&RunArgs {
        kind,
        seed: cli.seed,
        seconds: cli.seconds,
        traced: cli.trace,
        quick: cli.quick,
        out_dir: out_dir(),
    });
    println!(
        "workload {} seed {} seconds {} trace {}",
        kind.name(),
        cli.seed,
        cli.seconds,
        cli.trace as u8
    );
    for note in &report.notes {
        println!("note {note}");
    }
    for (metric, value) in &report.metrics {
        println!("metric {} {} {}", metric.name, value, metric.unit);
    }
    println!("{}", report.result_line());
    // A run that produced wrong answers has still reported: the result line
    // carries `correct: false`, and the exit code is for runs that could not
    // report at all.
    ExitCode::SUCCESS
}
