//! Gateway throughput: what the sharded decision cache buys (and costs)
//! relative to uncached `PolicyEngine::query`, per workload shape.
//!
//! `cached_hot` / `uncached_hot` / `uncached_gateway` isolate the
//! per-decision win on a repeated request (the zipfian best case):
//! `uncached_hot` is the engine alone against a prebuilt `Environment`,
//! `uncached_gateway` is what a miss pays on the kernel's path — the same
//! request through a `CacheConfig::disabled()` gateway (key hash, shard
//! probe, engine read lock, conditions evaluated against the request's
//! own fields). `scenario/*` runs the full multi-threaded scenario engine
//! end to end, so the numbers include thread spawn, universe
//! construction, and churn-actor kernel work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use secmod_gate::{
    build_universe, run_scenario, AccessRequest, CacheConfig, ScenarioConfig, ScenarioKind,
};

fn bench_config(kind: ScenarioKind) -> ScenarioConfig {
    ScenarioConfig::builder(kind)
        .seed(42)
        .threads(2)
        .ops_per_thread(2_000)
        .build()
}

fn gate_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("gate");

    // Single repeated decision: cache hit vs full fixpoint, same universe.
    let cfg = bench_config(ScenarioKind::Uniform);
    let (gateway, universe) = build_universe(&cfg);
    let requesters = std::slice::from_ref(&universe.tenants[0]);
    let request = AccessRequest {
        requesters,
        app_domain: "bench",
        module: &universe.modules[0],
        version: 1,
        operation: &universe.operations[1],
        uid: 1000,
    };
    assert!(
        gateway.is_allowed(&request),
        "bench request must be allowed"
    );
    group.bench_function("cached_hot", |b| {
        b.iter(|| gateway.check(std::hint::black_box(&request)).unwrap())
    });
    let env = request.environment();
    group.bench_function("uncached_hot", |b| {
        b.iter(|| gateway.with_engine(|e| e.query(std::hint::black_box(requesters), &env).unwrap()))
    });
    let uncached_cfg = ScenarioConfig::builder(ScenarioKind::Uniform)
        .seed(42)
        .cache(CacheConfig::disabled())
        .build();
    let (uncached_gateway, _) = build_universe(&uncached_cfg);
    group.bench_function("uncached_gateway", |b| {
        b.iter(|| uncached_gateway.is_allowed_tiered(std::hint::black_box(&request)))
    });

    // Full scenario engine, 2 threads end to end.
    for kind in ScenarioKind::ALL {
        let cfg = bench_config(kind);
        group.throughput(Throughput::Elements(
            cfg.threads as u64 * cfg.ops_per_thread,
        ));
        group.bench_with_input(BenchmarkId::new("scenario", kind.name()), &cfg, |b, cfg| {
            b.iter(|| run_scenario(std::hint::black_box(cfg)))
        });
    }
    group.finish();
}

criterion_group!(benches, gate_throughput);
criterion_main!(benches);
