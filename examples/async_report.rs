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
//! of blocking, so scaling logical clients past the thread count costs
//! coordination, not threads. (The `async_fanout` benchmark workload
//! measures that; this walkthrough only shows the API.)
//!
//! ```sh
//! cargo run --release --example async_report
//! cargo run --release --example async_report -- --drainers 2 --seed 7
//! ```

use secmod::kernel::PlaneConfig;
use secmod::r#async::{block_on, join_all, AsyncPlane};
use secmod::world::{build_dispatch_kernel_with_clients, WorldConfig};
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
    let drainers = parse_flag(&args, "--drainers").unwrap_or(1) as usize;

    println!("secmod_async futures frontend report");
    println!("seed {seed}, {drainers} drainer(s)");
    println!("tasks await plane.call() futures; the drainer that swept a call routes its");
    println!("completion back to the parked waker, so clients suspend instead of blocking.\n");

    // A taste of the API: three awaited calls on one session.
    let dispatch = build_dispatch_kernel_with_clients(&WorldConfig::new(seed), 1);
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
        "async flavor so far: {}",
        kernel.metrics.latency(secmod::obs::Flavor::Async).summary()
    );
    drop(session);
    plane.shutdown();

    println!("\npaper mapping: the async frontend rides the same amortisation argument as the");
    println!("dispatch plane — producers never trap, sweeps amortise the fixed syscall cost");
    println!("across every ready session — and adds suspension on top: a parked waker costs");
    println!("no OS thread, so the client population can scale orders of magnitude past the");
    println!("thread count while per-call cost stays the plane's swept cost.");
}
