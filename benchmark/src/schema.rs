//! The benchmark's contract as data: workloads and why they exist, the
//! end-to-end metrics with their regression bounds, the per-layer metrics.
//! `../BENCHMARK.json` is this table printed (`--print-benchmark-json`);
//! a test keeps the two equal.

use crate::json::Json;
use crate::workloads::Kind;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 10;

/// End-to-end metrics, each with the share of the parent's median by which
/// it may get worse before a change counts as a regression. The timed ones
/// carry the widest bound a benchmark may state: on the shared two-core
/// hosts this runs on, a run that is disturbed from start to end reads up
/// to a fifth low, and a bound must sit above what the same code does to
/// itself (README, "Noise method").
pub const END_TO_END: [(Metric, f64); 4] = [
    (m("ops_per_s", "ops/s", Better::Higher), 0.25),
    (m("op_p50_us", "us", Better::Lower), 0.25),
    (m("setup_s", "s", Better::Lower), 0.25),
    (m("peak_rss_mib", "MiB", Better::Lower), 0.10),
];

const fn m(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric { name, unit, better }
}

use Better::{Higher as H, Lower as L};

/// Per-layer metrics, printed by the traced run for every workload. A
/// metric of a layer a workload never enters reads 0 there.
pub const PER_LAYER: [Metric; 49] = [
    // policy
    m("policy.l0_hit_ns", "ns", L),
    m("policy.sharded_hit_ns", "ns", L),
    m("policy.engine_eval_ns", "ns", L),
    m("policy.hit_ratio", "ratio", H),
    m("policy.l0_share", "ratio", H),
    m("policy.epoch_bumps", "count", L),
    m("policy.evictions", "count", L),
    // ring
    m("ring.push_pop_ns", "ns", L),
    m("ring.fill_ns_per_entry", "ns", L),
    m("ring.reap_ns_per_entry", "ns", L),
    m("ring.arena_place_ns_4k", "ns", L),
    m("ring.arena_place_ns_64k", "ns", L),
    m("ring.arena_fill_ns_per_entry", "ns", L),
    m("ring.arena_fallbacks", "count", L),
    m("ring.full_bounces", "count", L),
    m("ring.bytes_in_flight_end", "B", L),
    // kernel
    m("kernel.call_ns", "ns", L),
    m("kernel.sweep_ns_per_entry", "ns", L),
    m("kernel.batch_ns_per_entry", "ns", L),
    m("kernel.session_resolve_ns", "ns", L),
    m("kernel.sweep_idle_ns", "ns", L),
    m("kernel.submit_ns_per_entry", "ns", L),
    m("kernel.reap_wait_share", "ratio", L),
    m("kernel.entries_per_sweep", "count", H),
    m("kernel.idle_sweep_ratio", "ratio", L),
    m("kernel.unparks_per_kop", "count", L),
    m("kernel.parks_per_kop", "count", L),
    m("kernel.smod_add_ns", "ns", L),
    m("kernel.start_session_ns", "ns", L),
    m("kernel.detach_ns", "ns", L),
    m("kernel.plane_start_ns", "ns", L),
    m("kernel.sim_us_per_op", "us", L),
    // async
    m("async.call_p50_us", "us", L),
    m("async.spawn_ns_per_task", "ns", L),
    m("async.block_on_call_us", "us", L),
    m("async.overhead_ns_per_op", "ns", L),
    m("async.routed_per_op", "ratio", L),
    m("async.resubmits", "count", L),
    // obs
    m("obs.hist_record_ns", "ns", L),
    m("obs.report_ns", "ns", L),
    // module
    m("module.seal_ns", "ns", L),
    // client: the harness's own cost, never to be mistaken for the program's
    m("client.gen_ns_per_op", "ns", L),
    m("client.verify_ns_per_op", "ns", L),
    m("client.op_p99_us", "us", L),
    m("client.trace_overhead_pct", "%", L),
    m("client.calib_alu_ns", "ns", L),
    m("client.calib_chase_ns", "ns", L),
    m("client.pinned", "count", H),
    m("client.nproc", "count", H),
];

/// Why each workload exists: which layer does its work, which it bypasses.
pub fn why(kind: Kind) -> &'static str {
    match kind {
        Kind::SyncCall => "One sys_smod_call per op over 4 sessions: the fixed per-call path and L0 decision hits do all the work; ring, arena, plane and async do none.",
        Kind::PolicyChurn => "sync_call over 64 sessions with a detach and re-establish every 4096 ops: every epoch bump refills the decision tiers through the engine; invalidation cost shows here.",
        Kind::SweepInline => "Fill 64 sessions x 32 entries, one sys_smod_sweep, reap, on one thread: ring push/pop, readiness bitmap, session resolve and the chunked drain; no doorbell, park or engine.",
        Kind::ArenaBatch => "16 ring pairs with arena regions, payloads 8 B to 64 KiB, drained by sys_smod_call_batch: arena place/recycle and payload copy dominate; only user of the batch entry point.",
        Kind::PlaneStream => "One producer, 8 plane handles, 128 in flight each, 32 entries per doorbell, one pinned drainer kept fed: cross-core ring traffic at saturation; the wake path is amortised away.",
        Kind::PlanePingpong => "One handle at depth 1, submit, spin on reap, 4 us think time: doorbell, unpark, idle sweep and park are paid on every op and batching amortises nothing; the latency workload.",
        Kind::AsyncFanout => "256 tasks on a one-thread executor over 8 async sessions, each awaiting calls one at a time: executor, waker, slot-table routing and reactor on top of plane_stream's path.",
    }
}

fn metric_json(metric: &Metric, bound: Option<f64>) -> Json {
    let mut pairs = vec![
        ("name", Json::str(metric.name)),
        ("unit", Json::str(metric.unit)),
        ("better", Json::str(metric.better.as_str())),
    ];
    if let Some(b) = bound {
        pairs.push(("bound", Json::Num(b)));
    }
    Json::obj(pairs)
}

/// The content of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(RUN_SECONDS)),
        (
            "workloads",
            Json::Arr(
                Kind::ALL
                    .iter()
                    .map(|&k| {
                        Json::obj([("name", Json::str(k.name())), ("why", Json::str(why(k)))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|(metric, bound)| metric_json(metric, Some(*bound)))
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(|m| metric_json(m, None)).collect()),
        ),
    ])
}

/// `BENCHMARK.json` as committed: one top-level key per line.
pub fn benchmark_json_text() -> String {
    let Json::Obj(pairs) = benchmark_json() else {
        unreachable!("benchmark_json builds an object")
    };
    let mut out = String::from("{\n");
    for (i, (key, value)) in pairs.iter().enumerate() {
        let comma = if i + 1 < pairs.len() { "," } else { "" };
        match value {
            Json::Arr(items) if matches!(items.first(), Some(Json::Obj(_))) => {
                out.push_str(&format!("  {}: [\n", Json::str(key.as_str())));
                for (j, item) in items.iter().enumerate() {
                    let comma = if j + 1 < items.len() { "," } else { "" };
                    out.push_str(&format!("    {item}{comma}\n"));
                }
                out.push_str(&format!("  ]{comma}\n"));
            }
            other => out.push_str(&format!("  {}: {other}{comma}\n", Json::str(key.as_str()))),
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn the_tables_meet_the_contract_limits() {
        let mut names = HashSet::new();
        for metric in END_TO_END.iter().map(|(m, _)| m).chain(PER_LAYER.iter()) {
            assert!(name_ok(metric.name), "{}", metric.name);
            assert!(unit_ok(metric.unit), "{}", metric.unit);
            assert!(names.insert(metric.name), "{} used twice", metric.name);
        }
        for kind in Kind::ALL {
            assert!(name_ok(kind.name()));
            assert!(names.insert(kind.name()));
            let why = why(kind);
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{}: {}",
                kind.name(),
                why.len()
            );
        }
        assert!(END_TO_END.iter().all(|(_, b)| *b > 0.0 && *b <= 0.25));
        let setup = END_TO_END
            .iter()
            .find(|(m, _)| m.name == "setup_s")
            .unwrap();
        assert_eq!((setup.0.unit, setup.0.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|(_, b)| *b <= setup.1));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(benchmark_json_text().len() < 64 * 1024);
    }

    #[test]
    fn benchmark_json_on_disk_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("read ../BENCHMARK.json");
        assert_eq!(
            on_disk,
            benchmark_json_text(),
            "regenerate with: benchmark/run.sh --print-benchmark-json > BENCHMARK.json"
        );
    }
}
