//! Walkthrough: the `secmod_async` futures frontend.
//!
//! Demonstrates `plane.call(proc_id, args).await` end to end:
//!
//! ```text
//!   logical client (task)                  drainer threads
//!   ─────────────────────                  ───────────────
//!   poll: park waker,                      sweep ready
//!     submit SmodCallReq ──ring──────────▶ sessions,
//!                                          post SmodCallResp,
//!                                          mark completed, then
//!   woken: poll again,                     route: pop completions,
//!     take response ◀────────────────────    wake parked wakers
//! ```
//!
//! A handful of OS threads (executor workers + drainers)
//! multiplex the whole logical-client population: tasks suspend instead
//! of blocking, so scaling logical clients 10x–1000x past the thread
//! count costs coordination, not threads.
//!
//! ```sh
//! cargo run --release --example async_report
//! cargo run --release --example async_report -- --logical 1000 --drainers 2
//! cargo run --release --example async_report -- --threads 2 --ops 20000 --seed 7
//! ```

use secmod::gate::{run_scenario, ScenarioConfig, ScenarioKind};
use secmod::kernel::PlaneConfig;
use secmod::r#async::{block_on, join_all, AsyncPlane};
use std::sync::Arc;

fn parse_flag(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = parse_flag(&args, "--seed").unwrap_or(42);
    let threads = parse_flag(&args, "--threads").unwrap_or(2) as usize;
    let drainers = parse_flag(&args, "--drainers").unwrap_or(1) as usize;
    // The examples smoke test runs every example argless in the debug
    // profile; keep that default small.
    let default_logical = if cfg!(debug_assertions) { 64 } else { 256 };
    let logical = parse_flag(&args, "--logical").unwrap_or(default_logical) as usize;
    let default_ops = if cfg!(debug_assertions) {
        2_000
    } else {
        50_000
    };
    // Total operations across ALL logical clients (the scenario engine
    // splits cfg.threads * cfg.ops_per_thread across them).
    let ops = parse_flag(&args, "--ops").unwrap_or(default_ops);

    println!("secmod_async futures frontend report");
    println!(
        "seed {seed}, {logical} logical clients over {threads} executor thread(s) + \
         {drainers} drainer(s)"
    );
    println!("tasks await plane.call() futures; the drainer that swept a call routes its");
    println!("completion back to the parked waker, so clients suspend instead of blocking.\n");

    // --- 1. a taste of the API: three awaited calls on one session ----
    let dispatch = secmod::gate::build_dispatch_kernel(
        &ScenarioConfig::builder(ScenarioKind::AsyncDispatch)
            .quick()
            .seed(seed)
            .build(),
    );
    let incr = dispatch.func_ids[1];
    let client = dispatch.clients[0];
    let kernel = Arc::new(dispatch.kernel);
    let plane = AsyncPlane::start(
        Arc::clone(&kernel),
        PlaneConfig::builder().drainers(drainers).build(),
    )
    .expect("start async plane");
    let session = plane.session(client).expect("attach session");
    let answers: Vec<u64> = block_on(join_all((0..3u64).map(|i| {
        let session = session.clone();
        Box::pin(async move {
            let ret = session.call(incr, i.to_le_bytes()).await.expect("incr");
            u64::from_le_bytes(ret.try_into().unwrap())
        })
    })));
    println!(
        "three awaited incr calls -> {answers:?} ({} completions routed by the drainers)",
        plane.routed()
    );
    // `call_costed` surfaces the simulated per-call cost next to the
    // return bytes — the same `cost_ns` the dispatch histograms record.
    let (ret, cost_ns) =
        block_on(session.call_costed(incr, 7u64.to_le_bytes())).expect("costed incr");
    println!(
        "call_costed(incr, 7) -> {} at {cost_ns} simulated ns",
        u64::from_le_bytes(ret.try_into().unwrap())
    );
    println!(
        "async flavor so far: {}\n",
        kernel.metrics.latency(secmod::obs::Flavor::Async).summary()
    );
    drop(session);
    plane.shutdown();

    // --- 2. the async scenario at the requested population ------------
    let cfg = ScenarioConfig::builder(ScenarioKind::AsyncDispatch)
        .seed(seed)
        .threads(threads)
        .ops_per_thread(ops / threads.max(1) as u64)
        .drainers(drainers)
        .logical_clients(logical)
        .build();
    println!(
        "ScenarioKind::AsyncDispatch ({logical} logical clients, {threads} executor \
         thread(s), {} total ops):",
        cfg.total_ops()
    );
    let report = run_scenario(&cfg);
    println!("{report}");

    // --- 3. completions/sec as logical clients scale past threads -----
    // The acceptance shape of the frontend: multiplying logical clients
    // by 10x and 100x while OS threads stay fixed should cost
    // coordination, not collapse. (Definitive numbers come from the
    // `async_fanout` benchmark workload; this is the quick view.)
    println!(
        "\nscaling logical clients at fixed OS threads ({threads} executor + {drainers} drainer):"
    );
    let scale_ops = ops.min(10_000);
    for factor in [1usize, 10, 100] {
        let population = threads.max(1) * factor;
        let cfg = ScenarioConfig::builder(ScenarioKind::AsyncDispatch)
            .seed(seed)
            .threads(threads)
            .ops_per_thread(scale_ops / threads.max(1) as u64)
            .drainers(drainers)
            .logical_clients(population)
            .build();
        let report = run_scenario(&cfg);
        let tail = report
            .latency
            .map(|l| format!("  p50 {} p99 {} p99.9 {} ns", l.p50, l.p99, l.p999))
            .unwrap_or_default();
        println!(
            "  {population:>5} logical clients: {:>12.0} completions/sec \
             ({} ops, {} allows / {} denies){tail}",
            report.ops_per_sec, report.total_ops, report.allows, report.denies
        );
    }
    println!("\nthe p50/p99/p99.9 columns are simulated-cost nanoseconds per completed call,");
    println!("recorded by the drainers' routing pass into the kernel's async-flavor histogram.");

    println!("\npaper mapping: the async frontend rides the same amortisation argument as the");
    println!("dispatch plane — producers never trap, sweeps amortise the fixed syscall cost");
    println!("across every ready session — and adds suspension on top: a parked waker costs");
    println!("no OS thread, so the client population can scale orders of magnitude past the");
    println!("thread count while per-call cost stays the plane's swept cost.");
}
