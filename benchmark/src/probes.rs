//! Isolated layer probes: one public function of one layer, timed alone on
//! inputs from the workloads' generator. They run once per traced
//! invocation. A probe prices a layer; the in-situ spans say how much of a
//! workload that layer is.

use crate::entry::{
    self, ArenaProbe, DecisionProbe, HistogramProbe, RingProbe, Tier, World, TENANTS,
};
use crate::gen::{Op, OpGen, OPERATIONS};
use crate::stats::median;
use crate::verify::EACCES;
use std::hint::black_box;
use std::time::Instant;

/// Probe results by per-layer metric name, plus notes for the report.
#[derive(Default)]
pub struct ProbeResults {
    pub values: Vec<(&'static str, f64)>,
    /// A probe that could not measure what it names says so here, and the
    /// run is then not `correct`.
    pub faults: Vec<String>,
    /// Divisor on iteration counts (1 = full length).
    scale: u64,
}

impl ProbeResults {
    fn put(&mut self, name: &'static str, value: f64) {
        self.values.push((name, value));
    }
}

/// Mean nanoseconds per call of `f` over `iters` calls, median of `reps`
/// repetitions after one warm-up repetition.
fn time_ns(reps: usize, iters: u64, mut f: impl FnMut(u64)) -> f64 {
    let iters = iters.max(1);
    let mut samples = Vec::with_capacity(reps);
    for rep in 0..=reps {
        let t = Instant::now();
        for i in 0..iters {
            f(i);
        }
        let ns = t.elapsed().as_nanos() as f64 / iters as f64;
        if rep > 0 {
            samples.push(ns);
        }
    }
    median(&mut samples)
}

fn policy(seed: u64, out: &mut ProbeResults) {
    // L0: 4 tenants x 8 operations = the 32 keys `sync_call` cycles
    // through. Keep the keys that stay resident (two keys may share an L0
    // set and evict each other).
    let probe = DecisionProbe::new(seed, true);
    let hot: Vec<usize> = (0..4 * OPERATIONS).collect();
    for _ in 0..3 {
        for &k in &hot {
            probe.decide(k);
        }
    }
    let resident: Vec<usize> = hot
        .iter()
        .copied()
        .filter(|&k| probe.decide(k).1 == Tier::L0)
        .collect();
    if resident.len() < hot.len() / 2 {
        out.faults.push(format!(
            "only {} of 32 keys stay in the L0 tier",
            resident.len()
        ));
    }
    let mut wrong = 0u64;
    let n = resident.len().max(1) as u64;
    let l0 = time_ns(9, 200_000 / out.scale, |i| {
        let k = resident[(i % n) as usize];
        let (allowed, tier) = probe.decide(k);
        wrong += u64::from(allowed != probe.expect_allowed(k) || tier != Tier::L0);
    });
    out.put("policy.l0_hit_ns", l0);

    // Sharded tier: the first decision after the thread's L0 is emptied.
    // The clearing is outside the timed stretch.
    let keys = probe.keys();
    for k in 0..keys {
        probe.decide(k);
    }
    let mut samples = Vec::new();
    for round in 0..4000 / out.scale as usize {
        DecisionProbe::clear_l0();
        let base = (round * 32) % keys;
        let t = Instant::now();
        for k in base..base + 32 {
            let (allowed, tier) = probe.decide(k);
            wrong += u64::from(allowed != probe.expect_allowed(k) || tier != Tier::Sharded);
        }
        samples.push(t.elapsed().as_nanos() as f64 / 32.0);
    }
    out.put("policy.sharded_hit_ns", median(&mut samples));

    // Engine: the same question with every cache tier disabled.
    let uncached = DecisionProbe::new(seed, false);
    let engine = time_ns(5, 2_000 / out.scale, |i| {
        let k = (i as usize * 7) % keys;
        let (allowed, tier) = uncached.decide(k);
        wrong += u64::from(allowed != uncached.expect_allowed(k) || tier != Tier::Engine);
    });
    out.put("policy.engine_eval_ns", engine);
    if wrong > 0 {
        out.faults.push(format!(
            "{wrong} policy probe decisions had the wrong answer or tier"
        ));
    }
}

fn ring(out: &mut ProbeResults) {
    let probe = RingProbe::new(256);
    let mut wrong = 0u64;
    let ns = time_ns(9, 500_000 / out.scale, |i| {
        wrong += u64::from(black_box(probe.push_pop(i)) != i);
    });
    out.put("ring.push_pop_ns", ns);

    let arena = ArenaProbe::new(4 << 20);
    let payload = vec![0x5Au8; 64 * 1024];
    let mut on_heap = 0u64;
    let ns = time_ns(9, 100_000 / out.scale, |_| {
        on_heap += u64::from(!arena.place_drop(black_box(&payload[..4096])));
    });
    out.put("ring.arena_place_ns_4k", ns);
    let ns = time_ns(9, 20_000 / out.scale, |_| {
        on_heap += u64::from(!arena.place_drop(black_box(&payload[..])));
    });
    out.put("ring.arena_place_ns_64k", ns);
    if wrong + on_heap > 0 {
        out.faults.push(format!(
            "ring probes: {wrong} wrong cookies, {on_heap} placements missed the arena"
        ));
    }
}

/// Build a world with every tenant connected, untimed.
fn probe_world(seed: u64) -> World {
    let mut world = World::register(
        entry::boot(),
        entry::seal_module(),
        entry::build_policy(seed),
        seed,
    );
    for _ in 0..TENANTS {
        world.connect();
    }
    world
}

fn kernel(seed: u64, world: &World, out: &mut ProbeResults) {
    let set = world.sweep_set(128);
    let mut gen = OpGen::new(seed, 0xBEEF, TENANTS, 1);
    let mut ops: Vec<Op> = Vec::new();
    let mut sink = Vec::new();
    let mut wrong = 0u64;
    // The same 64 entries spread over 64 sessions, then all on one: the
    // difference is 63 session resolutions.
    let rounds = 3000 / out.scale;
    let mut sweep_of = |spread: bool| {
        let mut samples = Vec::new();
        for _ in 0..rounds {
            gen.fill_block(&mut ops, TENANTS);
            if spread {
                for (s, op) in ops.iter().enumerate() {
                    set.fill(world, s, std::slice::from_ref(op), s);
                }
            } else {
                set.fill(world, 0, &ops, 0);
            }
            let t = Instant::now();
            let drained = world.sweep(&set, TENANTS);
            samples.push(t.elapsed().as_nanos() as f64);
            wrong += u64::from(drained != TENANTS);
            sink.clear();
            for s in 0..if spread { TENANTS } else { 1 } {
                set.reap(s, &mut sink);
            }
            wrong += sink
                .iter()
                .zip(&ops)
                .filter(|(c, op)| {
                    if op.denied() {
                        c.errno != EACCES
                    } else {
                        c.errno != 0 || c.ret != op.value + 1
                    }
                })
                .count() as u64;
        }
        median(&mut samples)
    };
    let spread = sweep_of(true);
    let packed = sweep_of(false);
    out.put(
        "kernel.session_resolve_ns",
        (spread - packed) / (TENANTS - 1) as f64,
    );

    let idle = time_ns(9, 100_000 / out.scale, |_| {
        wrong += black_box(world.sweep(&set, TENANTS)) as u64;
    });
    out.put("kernel.sweep_idle_ns", idle);
    if wrong > 0 {
        out.faults
            .push(format!("kernel probes: {wrong} wrong sweep outcomes"));
    }
}

fn async_call(seed: u64, world: &World, out: &mut ProbeResults) {
    let aw = world.start_async(256);
    let session = aw.attach(world, 0);
    let mut gen = OpGen::new(seed, 0xA51C, 1, 1);
    let mut ops = Vec::new();
    gen.fill_block(&mut ops, 100 + 2000 / out.scale as usize);
    let mut wrong = 0u64;
    let mut samples = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let t = Instant::now();
        let (errno, ret) = aw.block_on_call(world, &session, op);
        let us = t.elapsed().as_nanos() as f64 / 1000.0;
        if i >= 100 {
            samples.push(us);
        }
        wrong += u64::from(if op.denied() {
            errno != EACCES
        } else {
            errno != 0 || ret != op.value + 1
        });
    }
    out.put("async.block_on_call_us", median(&mut samples));
    drop(session);
    aw.shutdown();
    if wrong > 0 {
        out.faults
            .push(format!("async probe: {wrong} wrong call outcomes"));
    }
}

fn obs(world: &World, out: &mut ProbeResults) {
    let hist = HistogramProbe::new();
    let ns = time_ns(9, 500_000 / out.scale, |i| {
        hist.record(black_box(5_000 + (i & 0xFFF)))
    });
    out.put("obs.hist_record_ns", ns);
    black_box(hist.count());
    // The report of a kernel whose histograms the probes above filled.
    let mut bytes = 0usize;
    let ns = time_ns(5, 200 / out.scale, |_| {
        bytes += black_box(world.metrics_report()).len()
    });
    out.put("obs.report_ns", ns);
    if bytes == 0 {
        out.faults.push("metrics report was empty".into());
    }
}

/// Run every probe. `quick` cuts every repetition count by 16: enough to
/// check the probes still measure what they name, not to trust the values.
pub fn run(seed: u64, quick: bool) -> ProbeResults {
    let mut out = ProbeResults {
        scale: if quick { 16 } else { 1 },
        ..ProbeResults::default()
    };
    out.put("client.calib_alu_ns", crate::host::calib_alu_ns());
    out.put("client.calib_chase_ns", crate::host::calib_chase_ns());
    policy(seed, &mut out);
    ring(&mut out);
    let world = probe_world(seed);
    kernel(seed, &world, &mut out);
    async_call(seed, &world, &mut out);
    obs(&world, &mut out);
    out
}
