//! Regenerate the paper's evaluation (Figures 7 and 8).
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p secmod_bench --bin figure8              # quick config
//! cargo run --release -p secmod_bench --bin figure8 -- --paper   # 1,000,000 calls x 10 trials
//! cargo run --release -p secmod_bench --bin figure8 -- --calls 50000 --trials 5
//! ```
//!
//! `--calls` and `--trials` take a positive whole number; anything else
//! is refused with a message and exit code 2.

use secmod_bench::harness::{run_figure8, TrialConfig};
use secmod_bench::sysinfo;
use secmod_kernel::CostModel;

/// The positive count that follows `flag`, or why there is none.
fn count<T: std::str::FromStr + PartialEq + From<u8>>(
    flag: &str,
    value: Option<&String>,
) -> Result<T, String> {
    match value.map(|v| v.parse::<T>()) {
        Some(Ok(n)) if n != T::from(0) => Ok(n),
        _ => Err(format!("{flag} takes a positive whole number")),
    }
}

fn parse_args() -> Result<TrialConfig, String> {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--paper") {
        return Ok(TrialConfig::paper());
    }
    let mut config = TrialConfig::quick();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--calls" => {
                config.calls_per_trial = count("--calls", args.get(i + 1))?;
                config.rpc_calls_per_trial = (config.calls_per_trial / 10).max(1);
                i += 2;
            }
            "--trials" => {
                config.trials = count("--trials", args.get(i + 1))?;
                i += 2;
            }
            other => {
                eprintln!("ignoring unknown argument {other}");
                i += 1;
            }
        }
    }
    Ok(config)
}

fn main() {
    let config = parse_args().unwrap_or_else(|err| {
        eprintln!("figure8: {err}");
        std::process::exit(2);
    });
    println!("=== Figure 7: test system information ===\n");
    println!("{}", sysinfo::simulated_system_info(&CostModel::default()));
    println!("{}", sysinfo::host_system_info());

    println!(
        "=== Figure 8: performance comparisons ({} calls/trial, {} trials, RPC {} calls/trial) ===",
        config.calls_per_trial, config.trials, config.rpc_calls_per_trial
    );
    let report = run_figure8(config);
    println!("{}", report.render());

    println!("Paper reference (599 MHz P-III, OpenBSD 3.6):");
    println!("  getpid()          0.658 us   (stdev 0.0092)");
    println!("  SMOD(SMOD-getpid) 6.532 us   (stdev 0.2985)");
    println!("  SMOD(test-incr)   6.407 us   (stdev 0.0751)");
    println!("  RPC(test-incr)   63.230 us   (stdev 0.1348)");
}
