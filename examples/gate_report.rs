//! Walkthrough: the `secmod_gate` scenario report.
//!
//! Runs every row of the scenario table (`ScenarioKind::ALL`; the key
//! printed after the rows says what each one does) against the sharded
//! decision-cache gateway (for the kernel-backed scenarios: the gateway
//! *embedded in* the kernel's dispatch path) and prints ops/sec, cache
//! hit rate, the (seed-deterministic) allow/deny split, and the
//! simulated-cost latency quantiles for each.
//!
//! ```sh
//! cargo run --release --example gate_report
//! cargo run --release --example gate_report -- --threads 2 --ops 2000 --seed 7
//! cargo run --release --example gate_report -- --threads 4 --drainers 2 --only plane
//! cargo run --release --example gate_report -- --metrics
//! ```

use secmod::gate::{run_metrics_demo, run_scenario, ScenarioConfig, ScenarioKind};

fn parse_flag(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn parse_str_flag<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = parse_flag(&args, "--seed").unwrap_or(42);
    let threads = parse_flag(&args, "--threads").unwrap_or(4) as usize;
    // --drainers: dedicated drainer threads for the plane scenario
    // (0 = auto: max(1, threads/4), keeping producers >> drainers).
    let drainers = parse_flag(&args, "--drainers").unwrap_or(0) as usize;
    // --submit-batch N: plane producers coalesce N entries per doorbell
    // (0/1 = classic one-doorbell-per-entry submission).
    let submit_batch = parse_flag(&args, "--submit-batch").unwrap_or(1) as usize;
    // --only <name>: run a single scenario (CI smoke legs use this). An
    // unknown name is a hard error — a typo'd CI leg that silently ran
    // zero scenarios would still exit green.
    let only = parse_str_flag(&args, "--only");
    // --metrics: skip the scenario sweep and instead drive all five
    // dispatch flavors against ONE kernel, printing its DispatchMetrics
    // text report (the CI observability smoke runs this shape).
    if args.iter().any(|a| a == "--metrics") {
        println!("secmod dispatch metrics demo (seed {seed})");
        println!("all five dispatch flavors against one kernel; simulated-cost nanoseconds.\n");
        print!("{}", run_metrics_demo(seed));
        return;
    }
    if let Some(name) = only {
        if !ScenarioKind::ALL.iter().any(|k| k.name() == name) {
            let known: Vec<&str> = ScenarioKind::ALL.iter().map(|k| k.name()).collect();
            eprintln!(
                "gate_report: unknown scenario `{name}` (expected one of: {})",
                known.join(", ")
            );
            std::process::exit(2);
        }
    }
    // The examples smoke test runs every example with no args in the debug
    // profile; keep that default shape small so `cargo test` stays fast,
    // and let release builds default to a measurement-worthy size.
    let default_ops = if cfg!(debug_assertions) {
        2_000
    } else {
        50_000
    };
    let ops = parse_flag(&args, "--ops").unwrap_or(default_ops);

    println!("secmod_gate scenario report");
    println!(
        "seed {seed}, {threads} worker thread(s), {ops} ops/thread, 64 tenants x 8 modules x 8 ops"
    );
    println!(
        "decisions are seed-deterministic; the coherence property guarantees the cache cannot"
    );
    println!("change an answer, only the cost of computing it.\n");

    for kind in ScenarioKind::ALL {
        if only.is_some_and(|name| name != kind.name()) {
            continue;
        }
        let cfg = ScenarioConfig::builder(kind)
            .seed(seed)
            .threads(threads)
            .ops_per_thread(ops)
            .drainers(drainers)
            .submit_batch(submit_batch)
            .build();
        let report = run_scenario(&cfg);
        println!("{report}");
    }

    println!("\nscenario key:");
    let width = ScenarioKind::ALL.map(|k| k.name().len());
    let width = width.into_iter().max().unwrap_or(0);
    for kind in ScenarioKind::ALL {
        let (name, summary) = (kind.name(), kind.summary());
        let split = kind
            .split_of()
            .map(|base| format!(" [split == `{}`]", base.name()));
        println!("  {name:<width$}  {summary}{}", split.unwrap_or_default());
    }
    println!("\nlatency columns (p50/p99/p99.9) are simulated-cost nanoseconds from the");
    println!("kernel's per-flavor dispatch histograms; run with --metrics for the full table.");
}
