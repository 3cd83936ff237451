//! One run of one workload: set-up, a fixed prefix, timed windows, tear
//! down. With `--trace 0` it reports the end-to-end metrics; with
//! `--trace 1` it alternates traced and untraced windows, runs the layer
//! probes, and reports the per-layer metrics.

use crate::entry::Counters;
use crate::host::{self, Cores};
use crate::json::Json;
use crate::probes;
use crate::schema::{Metric, END_TO_END, PER_LAYER};
use crate::stats::{best_decile, median, percentile_sorted};
use crate::trace::{self, SelfTime, Span, Tracer};
use crate::verify::Verdict;
use crate::workloads::{self, Finish, Kind, Workload, ASYNC_TASKS};
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Timed windows of an untraced run; the traced run has as many, half of
/// them traced.
pub const WINDOWS: usize = 200;
/// World builds before the first block; the last is the world that is
/// loaded. One more world is built, timed and dropped before every window,
/// so the builds `setup_s` is taken from are spread over the whole run.
const FIRST_BUILDS: usize = 5;
/// Latency samples kept for the tail percentile.
const TAIL_SAMPLES: usize = 2_000_000;

pub struct RunArgs {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// One short window, two builds, light probes: checks everything,
    /// measures nothing worth keeping.
    pub quick: bool,
    /// Where the span file goes.
    pub out_dir: PathBuf,
}

pub struct RunReport {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// The metrics this mode reports, in schema order.
    pub metrics: Vec<(Metric, f64)>,
    /// Lines for the reader: figures that are not gated, and faults.
    pub notes: Vec<String>,
}

impl RunReport {
    /// The last line of standard output.
    pub fn result_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(m, v)| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(*v)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
    }
}

/// What the timed windows of one tracing mode measured.
#[derive(Default)]
struct Windows {
    ops_per_s: Vec<f64>,
    p50_ns: Vec<f64>,
    /// Every latency sample of every window, for the tail percentile.
    all_ns: Vec<u64>,
    ops: u64,
    blocks: u64,
}

impl Windows {
    /// Throughput of the best tenth of the windows.
    fn ops_per_s(&self) -> f64 {
        best_decile(&mut self.ops_per_s.clone(), true)
    }

    /// Median latency in the best tenth of the windows.
    fn p50_us(&self) -> f64 {
        best_decile(&mut self.p50_ns.clone(), false) / 1000.0
    }

    /// For the reader: how disturbed the run was.
    fn describe(&self) -> String {
        let mut v = self.ops_per_s.clone();
        let med = median(&mut v);
        format!(
            "{} windows: ops_per_s min {:.0} median {med:.0} best-decile {:.0} max {:.0}; op_p50_us median {}",
            v.len(),
            v[0],
            self.ops_per_s(),
            v[v.len() - 1],
            median(&mut self.p50_ns.clone()) / 1000.0,
        )
    }

    /// The highest percentile with at least ten samples beyond it, capped
    /// at p99, and which one it is.
    fn tail_us(&mut self) -> (f64, f64) {
        if self.all_ns.is_empty() {
            return (0.0, 0.0);
        }
        self.all_ns.sort_unstable();
        let n = self.all_ns.len() as f64;
        let q = (1.0 - 10.0 / n).clamp(0.5, 0.99);
        (percentile_sorted(&self.all_ns, q) as f64 / 1000.0, q)
    }
}

struct Session {
    workload: Box<dyn Workload>,
    verdict: Verdict,
    lat: Vec<u64>,
    blocks: u64,
}

impl Session {
    fn new(workload: Box<dyn Workload>) -> Session {
        Session {
            workload,
            verdict: Verdict::default(),
            lat: Vec::new(),
            blocks: 0,
        }
    }

    fn block(&mut self, tr: &mut Tracer) -> usize {
        self.blocks += 1;
        self.workload.block(tr, &mut self.lat, &mut self.verdict)
    }

    /// Run blocks until `len` has passed and add the window to `into`.
    fn window(&mut self, tr: &mut Tracer, len: Duration, into: &mut Windows) {
        self.lat.clear();
        let start = Instant::now();
        let (mut ops, mut blocks) = (0u64, 0u64);
        let elapsed = loop {
            ops += self.block(tr) as u64;
            blocks += 1;
            let elapsed = start.elapsed();
            if elapsed >= len {
                break elapsed;
            }
        };
        into.ops_per_s.push(ops as f64 / elapsed.as_secs_f64());
        into.ops += ops;
        into.blocks += blocks;
        if !self.lat.is_empty() {
            self.lat.sort_unstable();
            into.p50_ns.push(percentile_sorted(&self.lat, 0.5) as f64);
            let room = TAIL_SAMPLES.saturating_sub(into.all_ns.len());
            into.all_ns
                .extend_from_slice(&self.lat[..room.min(self.lat.len())]);
        }
    }
}

/// Build one world and time the build.
fn build(kind: Kind, seed: u64, at: &Cores, tr: &mut Tracer) -> (Box<dyn Workload>, f64) {
    let t = Instant::now();
    let built = workloads::build(kind, seed, at.spin_wait(), tr);
    (built, t.elapsed().as_secs_f64())
}

/// The builds before the first block: each timed into `times`, each torn
/// down outside the timed stretch, the last one kept.
fn set_up(args: &RunArgs, at: &Cores, tr: &mut Tracer, times: &mut Vec<f64>) -> Session {
    let mut kept: Option<Box<dyn Workload>> = None;
    for _ in 0..if args.quick { 2 } else { FIRST_BUILDS } {
        drop(kept.take());
        let (built, took) = build(args.kind, args.seed, at, tr);
        times.push(took);
        kept = Some(built);
    }
    Session::new(kept.expect("at least one build"))
}

/// One more world, built, timed and dropped: a set-up sample taken at this
/// point of the run.
fn sample_build(args: &RunArgs, at: &Cores, times: &mut Vec<f64>) {
    let (built, took) = build(args.kind, args.seed, at, &mut Tracer::new(false));
    times.push(took);
    drop(built);
}

/// What the fixed prefix read off the program's counters.
struct Prefix {
    ops: u64,
    sim_us_per_op: f64,
    allows: u64,
    denies: u64,
}

fn prefix(session: &mut Session, kind: Kind, quick: bool) -> Prefix {
    let blocks = if quick {
        kind.prefix_blocks() / 8
    } else {
        kind.prefix_blocks()
    };
    let mut off = Tracer::new(false);
    let before = session.workload.counters();
    let mut ops = 0u64;
    for _ in 0..blocks {
        ops += session.block(&mut off) as u64;
    }
    let after = session.workload.counters();
    Prefix {
        ops,
        sim_us_per_op: (after.sim_ns - before.sim_ns) as f64 / ops.max(1) as f64 / 1000.0,
        allows: session.verdict.allows,
        denies: session.verdict.denies,
    }
}

/// Checks every run makes on the way out, whatever it reports.
fn closing_checks(
    kind: Kind,
    session_blocks: u64,
    verdict: &mut Verdict,
    finish: &Finish,
    notes: &mut Vec<String>,
) -> bool {
    let c = &finish.counters;
    let mut ok = true;
    if c.bytes_in_flight != 0 {
        // Leaked arena bytes fail the run the way a wrong value does.
        verdict.failed += 1;
        ok = false;
        notes.push(format!(
            "FAULT arena bytes in flight at the end: {}",
            c.bytes_in_flight
        ));
    }
    let expected_epoch = if kind == Kind::PolicyChurn {
        session_blocks
    } else {
        0
    };
    if c.epoch != expected_epoch {
        ok = false;
        notes.push(format!(
            "FAULT kernel epoch {} does not match the churn schedule {expected_epoch}",
            c.epoch
        ));
    }
    if c.full_bounces != 0 || c.arena_fallbacks != 0 {
        // Not a wrong answer, but the workload then measures backpressure.
        notes.push(format!(
            "WARNING sizing: {} ring bounces, {} arena fallbacks",
            c.full_bounces, c.arena_fallbacks
        ));
    }
    if verdict.failed > 0 {
        ok = false;
        notes.push(format!("FAULT verifier: {verdict:?}"));
    }
    ok
}

fn prefix_notes(kind: Kind, p: &Prefix, notes: &mut Vec<String>) {
    let paper = if kind == Kind::SyncCall {
        " (paper, Figure 8 SMOD test-incr: 6.407)"
    } else {
        ""
    };
    let exact = if kind.single_thread() {
        "repeats exactly for a seed"
    } else {
        "timing-dependent"
    };
    notes.push(format!(
        "prefix {} ops: kernel.sim_us_per_op {}{paper}, allow/deny {}/{} ({exact})",
        p.ops, p.sim_us_per_op, p.allows, p.denies
    ));
}

pub fn run(args: &RunArgs) -> RunReport {
    let at = Cores::pin_load_thread();
    if args.traced {
        run_traced(args, &at)
    } else {
        run_untraced(args, &at)
    }
}

fn window_plan(args: &RunArgs) -> (usize, Duration) {
    if args.quick {
        (if args.traced { 2 } else { 1 }, Duration::from_millis(150))
    } else {
        (
            WINDOWS,
            Duration::from_secs_f64(args.seconds / WINDOWS as f64),
        )
    }
}

fn run_untraced(args: &RunArgs, at: &Cores) -> RunReport {
    let mut off = Tracer::new(false);
    let mut setup = Vec::new();
    let mut session = set_up(args, at, &mut off, &mut setup);
    let pre = prefix(&mut session, args.kind, args.quick);
    // Read here, after a fixed amount of work, so that the figure does not
    // grow with how many ops the host let the windows complete.
    let rss = host::peak_rss_mib().unwrap_or(f64::NAN);
    let (n, len) = window_plan(args);
    let mut windows = Windows::default();
    for _ in 0..n {
        sample_build(args, at, &mut setup);
        session.window(&mut off, len, &mut windows);
    }
    let Session {
        workload,
        mut verdict,
        blocks,
        ..
    } = session;
    let finish = workload.finish(&mut verdict);
    let mut notes = Vec::new();
    let ok = closing_checks(args.kind, blocks, &mut verdict, &finish, &mut notes);
    prefix_notes(args.kind, &pre, &mut notes);
    notes.push(format!("{} of {len:?}", windows.describe()));
    let (tail, q) = windows.tail_us();
    notes.push(format!(
        "client.op_p{} {tail} us over {} samples (not gated); client.pinned {}; nproc {}",
        q * 100.0,
        windows.all_ns.len(),
        at.pinned() as u8,
        at.count()
    ));
    let mut sorted = setup.clone();
    let setup_median = median(&mut sorted);
    notes.push(format!(
        "setup_s over {} builds: min {} median {setup_median} max {}",
        sorted.len(),
        sorted[0],
        sorted[sorted.len() - 1]
    ));
    notes.push(format!("failed_share {}", verdict.failed_share()));
    let values = [
        windows.ops_per_s(),
        windows.p50_us(),
        best_decile(&mut setup, false),
        rss,
    ];
    RunReport {
        correct: ok && values.iter().all(|v| v.is_finite() && *v > 0.0),
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics: END_TO_END.iter().map(|(m, _)| *m).zip(values).collect(),
        notes,
    }
}

/// Per-layer values under construction: every name starts at 0, which is
/// also what a layer the workload never enters reads.
struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|m| (m.name, 0.0)).collect())
    }

    fn set(&mut self, name: &'static str, value: f64) {
        let slot = self
            .0
            .get_mut(name)
            .unwrap_or_else(|| panic!("{name} is not a per-layer metric"));
        *slot = if value.is_finite() { value } else { 0.0 };
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn run_traced(args: &RunArgs, at: &Cores) -> RunReport {
    let mut notes = Vec::new();
    let mut layers = Layers::new();
    let probed = probes::run(args.seed, args.quick);
    for (name, value) in &probed.values {
        layers.set(name, *value);
    }
    notes.extend(probed.faults.iter().map(|f| format!("FAULT probe: {f}")));

    // Traced builds give the set-up spans; the last one is the world the
    // windows run on.
    let mut tr = Tracer::new(true);
    let mut build_times = Vec::new();
    let mut session = set_up(args, at, &mut tr, &mut build_times);
    let builds = build_times.len();
    let sessions_per_build = session.workload.sessions() as u64;
    tr.set_enabled(false);
    let pre = prefix(&mut session, args.kind, args.quick);

    // Alternate, so drift in the host hits both modes alike.
    let (n, len) = window_plan(args);
    let (mut plain, mut traced) = (Windows::default(), Windows::default());
    for i in 0..n {
        let on = i % 2 == 1;
        tr.set_enabled(on);
        session.window(&mut tr, len, if on { &mut traced } else { &mut plain });
    }
    tr.set_enabled(false);
    let Session {
        workload,
        mut verdict,
        blocks,
        ..
    } = session;
    let finish = workload.finish(&mut verdict);
    let mut ok = closing_checks(args.kind, blocks, &mut verdict, &finish, &mut notes);
    ok &= probed.faults.is_empty();
    prefix_notes(args.kind, &pre, &mut notes);

    // --- in situ: self times of the spans -------------------------------
    if let Err(e) = trace::check_links(tr.spans()) {
        ok = false;
        notes.push(format!("FAULT span links: {e}"));
    }
    // Set-up trees and block trees are aggregated apart: both hold
    // `kernel.start_session` spans, and only block trees sum to block time.
    let setup_cycles: HashSet<u32> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "setup")
        .map(|s| s.cycle)
        .collect();
    let in_setup = |s: &&Span| setup_cycles.contains(&s.cycle);
    let setup_selfs = trace::self_times(tr.spans().iter().filter(in_setup));
    let selfs = trace::self_times(tr.spans().iter().filter(|s| !in_setup(s)));
    let self_of = |map: &BTreeMap<&'static str, SelfTime>, name: &str| {
        map.get(name).map_or(0, |s| s.self_ns) as f64
    };
    let per = |name: &str, units: u64| {
        if units == 0 {
            0.0
        } else {
            (self_of(&selfs, name) + self_of(&setup_selfs, name)) / units as f64
        }
    };
    let ops = traced.ops;
    let cycle_ns = trace::root_ns(tr.spans().iter().filter(|s| !in_setup(s)));
    let churns = if args.kind == Kind::PolicyChurn {
        traced.blocks
    } else {
        0
    };
    let builds = builds as u64;
    layers.set("client.gen_ns_per_op", per("client.gen", ops));
    layers.set("client.verify_ns_per_op", per("client.verify", ops));
    layers.set("kernel.call_ns", per("kernel.call", ops));
    layers.set("kernel.sweep_ns_per_entry", per("kernel.sweep", ops));
    layers.set("kernel.batch_ns_per_entry", per("kernel.batch", ops));
    layers.set("ring.fill_ns_per_entry", per("ring.fill", ops));
    layers.set("ring.arena_fill_ns_per_entry", per("ring.arena_fill", ops));
    layers.set("ring.reap_ns_per_entry", per("ring.reap", ops));
    layers.set("kernel.submit_ns_per_entry", per("kernel.submit", ops));
    layers.set("kernel.reap_wait_share", per("kernel.reap_wait", cycle_ns));
    layers.set("kernel.detach_ns", per("kernel.detach", churns));
    layers.set(
        "kernel.start_session_ns",
        per("kernel.start_session", builds * sessions_per_build + churns),
    );
    layers.set("kernel.smod_add_ns", per("kernel.smod_add", builds));
    layers.set("kernel.plane_start_ns", per("kernel.plane_start", builds));
    layers.set("module.seal_ns", per("module.seal", builds));
    layers.set(
        "async.spawn_ns_per_task",
        per("async.spawn", traced.blocks * ASYNC_TASKS as u64),
    );
    if args.kind == Kind::AsyncFanout {
        layers.set("async.call_p50_us", plain.p50_us());
    }
    let self_sum: u64 = selfs.values().map(|s| s.self_ns).sum();
    notes.push(format!(
        "in situ: {} spans, {} traced blocks; self times sum to {self_sum} ns of {cycle_ns} ns block time",
        tr.spans().len(),
        traced.blocks,
    ));
    if self_sum != cycle_ns {
        ok = false;
        notes.push("FAULT self times do not sum to the block time".into());
    }
    for (name, s) in &selfs {
        notes.push(format!(
            "  span {name}: self {} ns over {} spans, {:.1}% of block time",
            s.self_ns,
            s.spans,
            s.self_ns as f64 / cycle_ns.max(1) as f64 * 100.0
        ));
    }

    // --- counts: the program's own counters -------------------------------
    let c: &Counters = &finish.counters;
    let decisions = c.gate_hits + c.gate_misses;
    layers.set("policy.hit_ratio", ratio(c.gate_hits, decisions));
    layers.set(
        "policy.l0_share",
        ratio(c.gate_hits.saturating_sub(c.shared_hits), decisions),
    );
    layers.set("policy.epoch_bumps", c.epoch as f64);
    layers.set("policy.evictions", c.evictions as f64);
    layers.set("ring.arena_fallbacks", c.arena_fallbacks as f64);
    layers.set("ring.full_bounces", c.full_bounces as f64);
    layers.set("ring.bytes_in_flight_end", c.bytes_in_flight as f64);
    layers.set("kernel.sim_us_per_op", pre.sim_us_per_op);
    let kops = verdict.attempted / 1000;
    layers.set("kernel.unparks_per_kop", ratio(c.unparks, kops));
    layers.set("kernel.parks_per_kop", ratio(c.parks, kops));
    layers.set("async.resubmits", c.resubmits as f64);
    if let Some(d) = finish.drainer {
        layers.set(
            "kernel.entries_per_sweep",
            ratio(d.drained, d.productive_sweeps),
        );
        layers.set(
            "kernel.idle_sweep_ratio",
            ratio(d.sweeps - d.productive_sweeps, d.sweeps),
        );
    }
    if let Some(routed) = finish.routed {
        layers.set("async.routed_per_op", ratio(routed, verdict.attempted));
    }

    // --- the harness itself ---------------------------------------------------
    let (tail, _) = plain.tail_us();
    layers.set("client.op_p99_us", tail);
    let (plain_rate, traced_rate) = (plain.ops_per_s(), traced.ops_per_s());
    layers.set(
        "client.trace_overhead_pct",
        (plain_rate - traced_rate) / plain_rate * 100.0,
    );
    layers.set("client.pinned", at.pinned() as u8 as f64);
    layers.set("client.nproc", at.count() as f64);
    notes.push(format!(
        "ops_per_s untraced {plain_rate} vs traced {traced_rate} over {} window pairs of {len:?}",
        n / 2
    ));

    if args.kind == Kind::AsyncFanout {
        // The frontend's price: the same run's plane_stream, ns per op.
        let mut off = Tracer::new(false);
        let mut stream = Session::new(build(Kind::PlaneStream, args.seed, at, &mut off).0);
        prefix(&mut stream, Kind::PlaneStream, args.quick);
        let mut windows = Windows::default();
        for _ in 0..(n / 4).max(1) {
            stream.window(&mut off, len, &mut windows);
        }
        let mut stream_verdict = stream.verdict;
        stream.workload.finish(&mut stream_verdict);
        ok &= stream_verdict.failed == 0;
        let stream_rate = windows.ops_per_s();
        layers.set(
            "async.overhead_ns_per_op",
            1e9 / plain_rate - 1e9 / stream_rate,
        );
        notes.push(format!("plane_stream reference: {stream_rate} ops/s"));
    }

    let path = args
        .out_dir
        .join(format!("spans-{}.jsonl", args.kind.name()));
    match tr.write_jsonl(&path) {
        Ok(()) => notes.push(format!("spans written to {}", path.display())),
        Err(e) => {
            ok = false;
            notes.push(format!("FAULT writing {}: {e}", path.display()));
        }
    }

    RunReport {
        correct: ok,
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics: PER_LAYER.iter().map(|m| (*m, layers.0[m.name])).collect(),
        notes,
    }
}
