//! `fig8_concurrent`: the concurrency extension of Figure 8 — ops/sec of
//! the real kernel dispatch path (`sys_smod_call` on one shared `&self`
//! kernel) at 1/2/4/8 threads, cached (per-module gateway decision cache)
//! vs the uncached baseline (same code path, cache disabled, every call
//! runs the policy engine).
//!
//! A summary block after the criterion entries prints the absolute
//! ops/sec of every row and the cached@4t / uncached@1t ratio. The ratio
//! carries no verdict: it says how slow an engine miss is as much as how
//! good the cache is, so a cheaper miss lowers it without anything having
//! got worse.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use secmod_gate::{
    build_dispatch_kernel, CacheConfig, DispatchKernel, ScenarioConfig, ScenarioKind,
};
use secmod_kernel::smod::SmodCallArgs;
use std::time::Instant;

/// Calls per thread per measured batch.
const BATCH: u64 = 256;

fn config(threads: usize, cache: CacheConfig) -> ScenarioConfig {
    ScenarioConfig::builder(ScenarioKind::KernelDispatch)
        .seed(42)
        .threads(threads)
        .cache(cache)
        .build()
}

/// Drive one batch: every worker thread issues `BATCH` allowed calls on
/// its own session of the shared kernel.
fn run_batch(dispatch: &DispatchKernel, threads: usize) {
    let allowed = dispatch.func_ids[1];
    if threads == 1 {
        // No thread-spawn overhead in the single-thread rows.
        dispatch_calls(dispatch, 0, allowed);
        return;
    }
    std::thread::scope(|s| {
        for t in 0..threads {
            s.spawn(move || dispatch_calls(dispatch, t, allowed));
        }
    });
}

fn dispatch_calls(dispatch: &DispatchKernel, thread: usize, func_id: u32) {
    let client = dispatch.clients[thread];
    for i in 0..BATCH {
        let reply = dispatch
            .kernel
            .sys_smod_call(
                client,
                SmodCallArgs {
                    m_id: dispatch.module,
                    func_id,
                    frame_pointer: 0xBFFF_0000,
                    return_address: 0x0000_1000,
                    args: i.to_le_bytes().to_vec(),
                },
            )
            .expect("allowed dispatch");
        std::hint::black_box(reply);
    }
}

/// Wall-clock ops/sec over `total` calls spread across `threads` threads.
fn measure_ops_per_sec(dispatch: &DispatchKernel, threads: usize, total: u64) -> f64 {
    let batches = total / (BATCH * threads as u64);
    let start = Instant::now();
    for _ in 0..batches.max(1) {
        run_batch(dispatch, threads);
    }
    let done = batches.max(1) * BATCH * threads as u64;
    done as f64 / start.elapsed().as_secs_f64().max(1e-9)
}

fn fig8_concurrent(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig8_concurrent");

    let rows: [(&str, CacheConfig, usize); 5] = [
        ("uncached_1thread", CacheConfig::disabled(), 1),
        ("cached_1thread", CacheConfig::default(), 1),
        ("cached_2threads", CacheConfig::default(), 2),
        ("cached_4threads", CacheConfig::default(), 4),
        ("cached_8threads", CacheConfig::default(), 8),
    ];
    for (name, cache, threads) in rows {
        let dispatch = build_dispatch_kernel(&config(threads, cache));
        group.throughput(Throughput::Elements(BATCH * threads as u64));
        group.bench_function(name, |b| b.iter(|| run_batch(&dispatch, threads)));
    }
    group.finish();

    // Explicit scaling summary (wall-clock, outside the criterion loop so
    // it is printed even under tiny CI budgets).
    let uncached = build_dispatch_kernel(&config(1, CacheConfig::disabled()));
    let uncached_1t = measure_ops_per_sec(&uncached, 1, 8_192);
    println!("\nfig8_concurrent summary (kernel sys_smod_call path):");
    println!("  uncached 1 thread : {uncached_1t:>12.0} ops/sec (policy engine on every call)");
    let mut cached_4t = 0.0;
    for threads in [1usize, 2, 4, 8] {
        let dispatch = build_dispatch_kernel(&config(threads, CacheConfig::default()));
        let ops = measure_ops_per_sec(&dispatch, threads, 16_384 * threads as u64);
        if threads == 4 {
            cached_4t = ops;
        }
        println!("  cached {threads:>2} thread(s): {ops:>12.0} ops/sec");
    }
    let ratio = cached_4t / uncached_1t.max(1e-9);
    println!("  cached@4t / uncached@1t = {cached_4t:.0} / {uncached_1t:.0} = {ratio:.1}x");
}

criterion_group!(benches, fig8_concurrent);
criterion_main!(benches);
