//! The seven closed-loop workloads.
//!
//! Each has one load thread, which is the caller the end-to-end metrics
//! speak for. A workload processes fixed blocks of ops in phases
//! (generate, call or submit, drain, reap, verify); the tracer, when on,
//! records one span per phase per block. Every block is verified in full.
//! Sizing notes sit on the constants; why each workload exists is in
//! `schema::WORKLOADS` and the README.

use crate::entry::{
    self, ArenaRings, AsyncWorld, Counters, DrainerStats, Handle, Plane, Session, SweepSet, World,
};
use crate::gen::{Op, OpGen};
use crate::trace::Tracer;
use crate::verify::{Completion, Verdict, Verifier};
use std::time::{Duration, Instant};

/// Which workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    SyncCall,
    PolicyChurn,
    SweepInline,
    ArenaBatch,
    PlaneStream,
    PlanePingpong,
    AsyncFanout,
}

impl Kind {
    pub const ALL: [Kind; 7] = [
        Kind::SyncCall,
        Kind::PolicyChurn,
        Kind::SweepInline,
        Kind::ArenaBatch,
        Kind::PlaneStream,
        Kind::PlanePingpong,
        Kind::AsyncFanout,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::SyncCall => "sync_call",
            Kind::PolicyChurn => "policy_churn",
            Kind::SweepInline => "sweep_inline",
            Kind::ArenaBatch => "arena_batch",
            Kind::PlaneStream => "plane_stream",
            Kind::PlanePingpong => "plane_pingpong",
            Kind::AsyncFanout => "async_fanout",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether only the load thread runs program code. On these the
    /// program's counters and simulated clock repeat exactly for a seed.
    pub fn single_thread(self) -> bool {
        matches!(
            self,
            Kind::SyncCall | Kind::PolicyChurn | Kind::SweepInline | Kind::ArenaBatch
        )
    }

    /// Blocks of the fixed-length prefix every run starts with. It warms
    /// caches and lazy state, and because its length does not depend on
    /// the clock, the counters read over it repeat exactly.
    pub fn prefix_blocks(self) -> usize {
        match self {
            Kind::AsyncFanout => 16,
            _ => 64,
        }
    }

    fn salt(self) -> u64 {
        self as u64 + 1
    }
}

/// What a workload hands back when it is torn down.
#[derive(Clone, Copy, Debug, Default)]
pub struct Finish {
    pub counters: Counters,
    /// `PlaneStats` of the threaded workloads.
    pub drainer: Option<DrainerStats>,
    /// Completions the async reactor routed.
    pub routed: Option<u64>,
}

/// A built world plus the load loop over it.
pub trait Workload {
    /// Run one block. Pushes sampled submit-to-completion latencies (ns)
    /// to `lat`, adds to `verdict`, returns the ops verified.
    fn block(&mut self, tr: &mut Tracer, lat: &mut Vec<u64>, verdict: &mut Verdict) -> usize;
    /// The program's counters as they stand.
    fn counters(&self) -> Counters;
    /// Connected sessions (for per-session setup figures).
    fn sessions(&self) -> usize;
    /// Drain what is in flight, stop the program's threads, read the
    /// final counters.
    fn finish(self: Box<Self>, verdict: &mut Verdict) -> Finish;
}

/// One complete world build, staged so each stage gets a span: kernel
/// boot, module build and seal, policy, `sys_smod_add`, one
/// `sys_smod_start_session` plus handshakes per client, and the plane or
/// executor start. `setup_s` times this whole function. `spin` says whether
/// the load thread may spin while it waits on a drainer.
pub fn build(kind: Kind, seed: u64, spin: bool, tr: &mut Tracer) -> Box<dyn Workload> {
    let sessions = match kind {
        Kind::SyncCall => SYNC_SESSIONS,
        Kind::PolicyChurn | Kind::SweepInline => entry::TENANTS,
        Kind::ArenaBatch => ARENA_SESSIONS,
        Kind::PlaneStream => STREAM_HANDLES,
        Kind::PlanePingpong => 1,
        Kind::AsyncFanout => ASYNC_SESSIONS,
    };
    let (root, t) = tr.open("setup", None);
    let booted = entry::boot();
    let t = tr.phase("kernel.boot", root, t);
    let sealed = entry::seal_module();
    let t = tr.phase("module.seal", root, t);
    let policy = entry::build_policy(seed);
    let t = tr.phase("policy.build", root, t);
    let mut world = World::register(booted, sealed, policy, seed);
    let t = tr.phase("kernel.smod_add", root, t);
    for _ in 0..sessions {
        world.connect();
    }
    let t = tr.phase("kernel.start_session", root, t);
    let base = Base::new(kind, seed, world, sessions);
    let built: Box<dyn Workload> = match kind {
        Kind::SyncCall => Box::new(SyncCall { base, churn: false }),
        Kind::PolicyChurn => Box::new(SyncCall { base, churn: true }),
        Kind::SweepInline => {
            let set = base.world.sweep_set(SWEEP_RING);
            Box::new(SweepInline { base, set })
        }
        Kind::ArenaBatch => {
            let rings = base.world.arena_rings(ARENA_RING, ARENA_BYTES, ARENA_QUOTA);
            Box::new(ArenaBatch {
                base,
                rings: Some(rings),
                payload: vec![0xA5; 64 * 1024],
            })
        }
        Kind::PlaneStream => {
            let plane = base.world.start_plane(STREAM_RING);
            let handles = (0..sessions)
                .map(|c| plane.attach(&base.world, c))
                .collect();
            tr.phase("kernel.plane_start", root, t);
            Box::new(PlaneStream {
                base,
                plane,
                handles,
                in_flight: None,
                spare: Block::default(),
                spin,
            })
        }
        Kind::PlanePingpong => {
            let plane = base.world.start_plane(STREAM_RING);
            let handle = plane.attach(&base.world, 0);
            tr.phase("kernel.plane_start", root, t);
            Box::new(PlanePingpong {
                base,
                plane,
                handle,
                spin,
            })
        }
        Kind::AsyncFanout => {
            let aw = base.world.start_async(STREAM_RING);
            let sessions = (0..sessions).map(|c| aw.attach(&base.world, c)).collect();
            tr.phase("kernel.plane_start", root, t);
            Box::new(AsyncFanout { base, aw, sessions })
        }
    };
    tr.close(root);
    built
}

/// State every workload has: the world, its op stream, and the buffers of
/// the current block.
struct Base {
    world: World,
    gen: OpGen,
    ops: Vec<Op>,
    completions: Vec<Completion>,
    verifier: Verifier,
    sessions: usize,
    block_ops: usize,
    blocks: u64,
}

impl Base {
    fn new(kind: Kind, seed: u64, world: World, sessions: usize) -> Base {
        let (block_ops, run) = match kind {
            Kind::SyncCall => (SYNC_BLOCK, 1),
            Kind::PolicyChurn => (CHURN_EVERY, 1),
            Kind::SweepInline => (sessions * BATCH, BATCH),
            Kind::ArenaBatch => (sessions * BATCH, BATCH),
            Kind::PlaneStream => (sessions * STREAM_RUN, STREAM_RUN),
            Kind::PlanePingpong => (PINGPONG_BLOCK, 1),
            Kind::AsyncFanout => (ASYNC_TASKS * ASYNC_CALLS, ASYNC_CALLS),
        };
        Base {
            world,
            gen: OpGen::new(seed, kind.salt(), sessions, run),
            ops: Vec::with_capacity(block_ops),
            completions: Vec::with_capacity(block_ops),
            verifier: Verifier::new(),
            sessions,
            block_ops,
            blocks: 0,
        }
    }

    /// The session whose first entry is stamped this block. Rotates so no
    /// one ring position is favoured.
    fn stamped(&self) -> usize {
        (self.blocks % self.sessions as u64) as usize
    }
}

macro_rules! base_accessors {
    () => {
        fn counters(&self) -> Counters {
            self.base.world.counters()
        }
        fn sessions(&self) -> usize {
            self.base.sessions
        }
    };
}

// ---------------------------------------------------------------------
// sync_call and policy_churn: one `sys_smod_call` per op.
// ---------------------------------------------------------------------

/// Sessions `sync_call` rotates over: 4 x 8 operations = 32 decision keys,
/// fewer than the L0 tier's 64 slots, so the steady state is all L0 hits.
const SYNC_SESSIONS: usize = 4;
/// ~0.4 ms of calls per block: long enough that five phase spans cost
/// nothing, short enough for a thousand blocks per window.
const SYNC_BLOCK: usize = 2048;
/// `policy_churn` detaches and re-establishes one session per this many
/// ops. Each epoch bump sends all 64 x 8 = 512 keys back to the engine:
/// 512 / 4096 = 12.5% of decisions miss, and 512 keys overflow the L0.
const CHURN_EVERY: usize = 4096;
/// One call in this many is timed individually.
const SYNC_SAMPLE: usize = 64;

struct SyncCall {
    base: Base,
    churn: bool,
}

impl Workload for SyncCall {
    fn block(&mut self, tr: &mut Tracer, lat: &mut Vec<u64>, verdict: &mut Verdict) -> usize {
        let b = &mut self.base;
        let (root, t) = tr.open("cycle", None);
        b.gen.fill_block(&mut b.ops, b.block_ops);
        let t = tr.phase("client.gen", root, t);
        b.completions.clear();
        for (i, op) in b.ops.iter().enumerate() {
            let (errno, ret) = if i % SYNC_SAMPLE == 0 {
                let t0 = Instant::now();
                let out = b.world.call(op);
                lat.push(t0.elapsed().as_nanos() as u64);
                out
            } else {
                b.world.call(op)
            };
            b.completions.push(Completion {
                user_data: i as u64,
                errno,
                ret,
            });
        }
        let mut t = tr.phase("kernel.call", root, t);
        if self.churn {
            let victim = b.stamped();
            b.world.detach(victim);
            t = tr.phase("kernel.detach", root, t);
            b.world.reattach(victim);
            t = tr.phase("kernel.start_session", root, t);
        }
        b.verifier
            .check_block(&b.ops, &b.completions, true, verdict);
        tr.phase("client.verify", root, t);
        tr.close(root);
        b.blocks += 1;
        b.block_ops
    }

    base_accessors!();

    fn finish(self: Box<Self>, _verdict: &mut Verdict) -> Finish {
        Finish {
            counters: self.base.world.counters(),
            ..Finish::default()
        }
    }
}

// ---------------------------------------------------------------------
// sweep_inline: fill 64 x 32, one sys_smod_sweep, reap.
// ---------------------------------------------------------------------

/// Entries per session per block, in the ring workloads.
const BATCH: usize = 32;
/// Ring capacity of `sweep_inline`: twice the batch, so nothing bounces.
const SWEEP_RING: usize = 64;

struct SweepInline {
    base: Base,
    set: SweepSet,
}

impl Workload for SweepInline {
    fn block(&mut self, tr: &mut Tracer, lat: &mut Vec<u64>, verdict: &mut Verdict) -> usize {
        let b = &mut self.base;
        let stamped = b.stamped();
        let (root, t) = tr.open("cycle", None);
        b.gen.fill_block(&mut b.ops, b.block_ops);
        let t = tr.phase("client.gen", root, t);
        let mut pushed_at = None;
        let mut bounced = 0;
        for s in 0..b.sessions {
            if s == stamped {
                pushed_at = Some(Instant::now());
            }
            bounced += self
                .set
                .fill(&b.world, s, &b.ops[s * BATCH..(s + 1) * BATCH], s * BATCH);
        }
        let t = tr.phase("ring.fill", root, t);
        // One sweep drains every ready session; a second only runs if the
        // first was cut short, and an empty one ends the loop.
        let mut drained = 0;
        while drained < b.block_ops - bounced {
            let n = b.world.sweep(&self.set, BATCH);
            if n == 0 {
                break;
            }
            drained += n;
        }
        let t = tr.phase("kernel.sweep", root, t);
        b.completions.clear();
        for s in 0..b.sessions {
            self.set.reap(s, &mut b.completions);
            if s == stamped {
                let at = pushed_at.take().expect("stamped session was filled");
                lat.push(at.elapsed().as_nanos() as u64);
            }
        }
        let t = tr.phase("ring.reap", root, t);
        b.verifier
            .check_block(&b.ops, &b.completions, true, verdict);
        tr.phase("client.verify", root, t);
        tr.close(root);
        b.blocks += 1;
        b.block_ops
    }

    base_accessors!();

    fn finish(self: Box<Self>, _verdict: &mut Verdict) -> Finish {
        Finish {
            counters: self.base.world.counters(),
            ..Finish::default()
        }
    }
}

// ---------------------------------------------------------------------
// arena_batch: 16 ring pairs with arena regions, sys_smod_call_batch.
// ---------------------------------------------------------------------

const ARENA_SESSIONS: usize = 16;
const ARENA_RING: usize = 64;
/// Payload sizes, cycling: five inline, two from the magazine class
/// (4 KiB), one from the shared freelist (64 KiB).
const ARENA_SIZES: [usize; 8] = [8, 8, 8, 8, 8, 4096, 4096, 64 * 1024];
/// A block holds 16 x (4 x 64 KiB + 8 x 4 KiB) = 4.5 MiB in flight, plus
/// up to 16 parked 4 KiB blocks per region; 8 MiB leaves the arena slack,
/// so `ring.arena_fallbacks` stays 0.
const ARENA_BYTES: usize = 8 << 20;
const ARENA_QUOTA: usize = 1 << 20;

struct ArenaBatch {
    base: Base,
    /// `None` only while `finish` runs (dropping the regions flushes
    /// their magazines, which the final in-flight reading needs).
    rings: Option<ArenaRings>,
    payload: Vec<u8>,
}

impl Workload for ArenaBatch {
    fn block(&mut self, tr: &mut Tracer, lat: &mut Vec<u64>, verdict: &mut Verdict) -> usize {
        let b = &mut self.base;
        let rings = self.rings.as_ref().expect("rings live until finish");
        let stamped = b.stamped();
        let (root, t) = tr.open("cycle", None);
        b.gen.fill_block(&mut b.ops, b.block_ops);
        let t = tr.phase("client.gen", root, t);
        let mut pushed_at = None;
        for s in 0..b.sessions {
            if s == stamped {
                pushed_at = Some(Instant::now());
            }
            rings.fill(
                &b.world,
                s,
                &b.ops[s * BATCH..(s + 1) * BATCH],
                s * BATCH,
                &ARENA_SIZES,
                &mut self.payload,
            );
        }
        let t = tr.phase("ring.arena_fill", root, t);
        for s in 0..b.sessions {
            b.world.call_batch(rings, s, BATCH);
        }
        let t = tr.phase("kernel.batch", root, t);
        b.completions.clear();
        for s in 0..b.sessions {
            rings.reap(s, &mut b.completions);
            if s == stamped {
                let at = pushed_at.take().expect("stamped session was filled");
                lat.push(at.elapsed().as_nanos() as u64);
            }
        }
        let t = tr.phase("ring.reap", root, t);
        b.verifier
            .check_block(&b.ops, &b.completions, true, verdict);
        tr.phase("client.verify", root, t);
        tr.close(root);
        b.blocks += 1;
        b.block_ops
    }

    base_accessors!();

    fn finish(mut self: Box<Self>, _verdict: &mut Verdict) -> Finish {
        self.rings = None;
        Finish {
            counters: self.base.world.counters(),
            ..Finish::default()
        }
    }
}

// ---------------------------------------------------------------------
// plane_stream: one producer, 8 handles, a drainer that never parks.
// ---------------------------------------------------------------------

const STREAM_HANDLES: usize = 8;
/// Entries per handle per block. Two blocks are in flight at once (block
/// k+1 is submitted before block k is reaped, so the drainer always has
/// work), which makes 128 in flight per handle.
const STREAM_RUN: usize = 64;
/// Entries per doorbell.
const STREAM_DOORBELL: usize = 32;
/// Ring capacity: twice the in-flight depth, so nothing bounces.
const STREAM_RING: usize = 256;

#[derive(Default)]
struct Block {
    ops: Vec<Op>,
    /// 0 or `block_ops`: keeps the cookies of the two blocks in flight
    /// apart, so a completion of the wrong block fails verification.
    cookie_base: usize,
    stamp: Option<(usize, Instant)>,
}

struct PlaneStream {
    base: Base,
    plane: Plane,
    handles: Vec<Handle>,
    in_flight: Option<Block>,
    spare: Block,
    spin: bool,
}

impl PlaneStream {
    /// Reap one block's completions from every handle, polling until all
    /// have arrived. Time during which every completion ring was empty is
    /// time the load thread waited on the drainer.
    fn reap(&mut self, block: &mut Block, tr: &mut Tracer, parent: u32, lat: &mut Vec<u64>) {
        let b = &mut self.base;
        let (span, start) = tr.open("ring.reap", Some(parent));
        let mut remaining = [STREAM_RUN; STREAM_HANDLES];
        let mut left = b.block_ops;
        let mut waited = 0u64;
        let mut empty_since = None;
        b.completions.clear();
        while left > 0 {
            let mut got = 0;
            for (h, handle) in self.handles.iter().enumerate() {
                while remaining[h] > 0 {
                    let Some(mut c) = handle.reap() else { break };
                    if remaining[h] == STREAM_RUN {
                        if let Some((_, at)) = block.stamp.take_if(|(s, _)| *s == h) {
                            lat.push(at.elapsed().as_nanos() as u64);
                        }
                    }
                    c.user_data = c.user_data.wrapping_sub(block.cookie_base as u64);
                    b.completions.push(c);
                    remaining[h] -= 1;
                    got += 1;
                }
            }
            left -= got;
            if got > 0 {
                if let Some(since) = empty_since.take() {
                    waited += tr.mark() - since;
                }
            } else {
                if empty_since.is_none() && tr.enabled() {
                    empty_since = Some(tr.mark());
                }
                wait(self.spin);
            }
        }
        tr.interval("kernel.reap_wait", span, start, waited);
        tr.close(span);
    }
}

/// Between two polls of an empty completion ring. The load thread spins
/// when it has a core to itself and yields when it may share one with the
/// drainer it is waiting for.
#[inline]
fn wait(spin: bool) {
    if spin {
        std::hint::spin_loop();
    } else {
        std::thread::yield_now();
    }
}

impl Workload for PlaneStream {
    fn block(&mut self, tr: &mut Tracer, lat: &mut Vec<u64>, verdict: &mut Verdict) -> usize {
        let stamped = self.base.stamped();
        let (root, t) = tr.open("cycle", None);
        let mut next = std::mem::take(&mut self.spare);
        next.cookie_base = match &self.in_flight {
            Some(prev) if prev.cookie_base == 0 => self.base.block_ops,
            _ => 0,
        };
        self.base.gen.fill_block(&mut next.ops, self.base.block_ops);
        let t = tr.phase("client.gen", root, t);
        for (h, handle) in self.handles.iter().enumerate() {
            if h == stamped {
                next.stamp = Some((h, Instant::now()));
            }
            handle.submit_run(
                &self.base.world,
                &next.ops[h * STREAM_RUN..(h + 1) * STREAM_RUN],
                next.cookie_base + h * STREAM_RUN,
                STREAM_DOORBELL,
            );
        }
        tr.phase("kernel.submit", root, t);
        self.base.blocks += 1;
        let mut done = 0;
        if let Some(mut prev) = self.in_flight.take() {
            self.reap(&mut prev, tr, root, lat);
            let t = tr.mark();
            let b = &mut self.base;
            b.verifier
                .check_block(&prev.ops, &b.completions, true, verdict);
            tr.phase("client.verify", root, t);
            done = b.block_ops;
            self.spare = prev;
        }
        self.in_flight = Some(next);
        tr.close(root);
        done
    }

    base_accessors!();

    fn finish(mut self: Box<Self>, verdict: &mut Verdict) -> Finish {
        if let Some(mut last) = self.in_flight.take() {
            let mut off = Tracer::new(false);
            self.reap(&mut last, &mut off, 0, &mut Vec::new());
            let b = &mut self.base;
            b.verifier
                .check_block(&last.ops, &b.completions, true, verdict);
        }
        let this = *self;
        drop(this.handles);
        let drainer = this.plane.shutdown();
        Finish {
            counters: this.base.world.counters(),
            drainer: Some(drainer),
            routed: None,
        }
    }
}

// ---------------------------------------------------------------------
// plane_pingpong: depth 1, one park and one unpark per op.
// ---------------------------------------------------------------------

/// ~4 ms of round trips per block.
const PINGPONG_BLOCK: usize = 256;
/// What the caller does with an answer before it calls again. Without it
/// the next submit races the drainer's way to its park, and a run is an
/// unrepeatable mix of parked round trips (~12 us) and ones that caught
/// the drainer still awake (~3 us). With it the drainer has always parked,
/// as it has for any caller that uses what it asked for.
const PINGPONG_THINK: Duration = Duration::from_micros(4);

struct PlanePingpong {
    base: Base,
    plane: Plane,
    handle: Handle,
    spin: bool,
}

impl Workload for PlanePingpong {
    fn block(&mut self, tr: &mut Tracer, lat: &mut Vec<u64>, verdict: &mut Verdict) -> usize {
        let b = &mut self.base;
        let traced = tr.enabled();
        let (root, t) = tr.open("cycle", None);
        b.gen.fill_block(&mut b.ops, b.block_ops);
        tr.phase("client.gen", root, t);
        // Submit and wait alternate per op, so the two are summed over the
        // block and recorded as one interval each inside `client.issue`.
        let (issue, issue_start) = tr.open("client.issue", Some(root));
        let (mut submit_ns, mut wait_ns) = (0u64, 0u64);
        b.completions.clear();
        for (i, op) in b.ops.iter().enumerate() {
            let t0 = Instant::now();
            let accepted = self.handle.submit(&b.world, op, i as u64);
            let t1 = traced.then(Instant::now);
            let completion = loop {
                if !accepted {
                    break None;
                }
                if let Some(c) = self.handle.reap() {
                    break Some(c);
                }
                wait(self.spin);
            };
            let t2 = Instant::now();
            lat.push((t2 - t0).as_nanos() as u64);
            if let Some(t1) = t1 {
                submit_ns += (t1 - t0).as_nanos() as u64;
                wait_ns += (t2 - t1).as_nanos() as u64;
            }
            b.completions.extend(completion);
            while t2.elapsed() < PINGPONG_THINK {
                std::hint::spin_loop();
            }
        }
        let think_ns = PINGPONG_THINK.as_nanos() as u64 * b.block_ops as u64;
        tr.interval("kernel.submit", issue, issue_start, submit_ns);
        tr.interval("kernel.reap_wait", issue, issue_start + submit_ns, wait_ns);
        tr.interval(
            "client.think",
            issue,
            issue_start + submit_ns + wait_ns,
            think_ns,
        );
        let t = tr.close(issue);
        b.verifier
            .check_block(&b.ops, &b.completions, true, verdict);
        tr.phase("client.verify", root, t);
        tr.close(root);
        b.blocks += 1;
        b.block_ops
    }

    base_accessors!();

    fn finish(self: Box<Self>, _verdict: &mut Verdict) -> Finish {
        let this = *self;
        drop(this.handle);
        let drainer = this.plane.shutdown();
        Finish {
            counters: this.base.world.counters(),
            drainer: Some(drainer),
            routed: None,
        }
    }
}

// ---------------------------------------------------------------------
// async_fanout: 256 tasks, 8 sessions, one executor thread.
// ---------------------------------------------------------------------

const ASYNC_SESSIONS: usize = 8;
/// Tasks per block.
pub const ASYNC_TASKS: usize = 256;
/// Calls each task awaits, one at a time, per block: 32 tasks share a
/// session, so at most 32 calls are in flight on one ring pair.
const ASYNC_CALLS: usize = 32;
/// One call in this many is timed, inside the task.
const ASYNC_SAMPLE: usize = 8;

struct AsyncFanout {
    base: Base,
    aw: AsyncWorld,
    sessions: Vec<Session>,
}

impl Workload for AsyncFanout {
    fn block(&mut self, tr: &mut Tracer, lat: &mut Vec<u64>, verdict: &mut Verdict) -> usize {
        let b = &mut self.base;
        let (root, t) = tr.open("cycle", None);
        b.gen.fill_block(&mut b.ops, b.block_ops);
        let t = tr.phase("client.gen", root, t);
        let tasks: Vec<_> = b
            .ops
            .chunks(ASYNC_CALLS)
            .enumerate()
            .map(|(task, ops)| {
                self.aw.spawn(
                    &b.world,
                    &self.sessions[task % ASYNC_SESSIONS],
                    ops.to_vec(),
                    task * ASYNC_CALLS,
                    ASYNC_SAMPLE,
                )
            })
            .collect();
        let t = tr.phase("async.spawn", root, t);
        b.completions.clear();
        for task in tasks {
            let out = task.join();
            b.completions.extend_from_slice(&out.completions);
            lat.extend_from_slice(&out.latencies_ns);
        }
        let t = tr.phase("async.join", root, t);
        // Completions are routed by cookie, not by ring order: no FIFO
        // contract to check.
        b.verifier
            .check_block(&b.ops, &b.completions, false, verdict);
        tr.phase("client.verify", root, t);
        tr.close(root);
        b.blocks += 1;
        b.block_ops
    }

    base_accessors!();

    fn finish(self: Box<Self>, _verdict: &mut Verdict) -> Finish {
        let this = *self;
        drop(this.sessions);
        let routed = this.aw.routed();
        let drainer = this.aw.shutdown();
        Finish {
            counters: this.base.world.counters(),
            drainer: Some(drainer),
            routed: Some(routed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build `kind`, run `blocks` blocks, tear down.
    fn drive(kind: Kind, seed: u64, blocks: usize) -> (Verdict, Finish, u64) {
        let mut off = Tracer::new(false);
        let mut workload = build(kind, seed, false, &mut off);
        let (mut verdict, mut lat) = (Verdict::default(), Vec::new());
        for _ in 0..blocks {
            workload.block(&mut off, &mut lat, &mut verdict);
        }
        let sim_ns = workload.counters().sim_ns;
        assert!(!lat.is_empty(), "{} sampled no latency", kind.name());
        let finish = workload.finish(&mut verdict);
        (verdict, finish, sim_ns)
    }

    #[test]
    fn every_workload_completes_every_op_correctly() {
        for kind in Kind::ALL {
            let (verdict, finish, _) = drive(kind, 42, 3);
            let name = kind.name();
            assert_eq!(verdict.failed, 0, "{name}: {verdict:?}");
            assert!(
                verdict.attempted > 0 && verdict.denies > 0,
                "{name}: {verdict:?}"
            );
            assert_eq!(verdict.allows + verdict.denies, verdict.attempted, "{name}");
            assert_eq!(finish.counters.bytes_in_flight, 0, "{name}");
            assert_eq!(finish.counters.full_bounces, 0, "{name}");
            assert_eq!(finish.counters.arena_fallbacks, 0, "{name}");
            let churned = if kind == Kind::PolicyChurn { 3 } else { 0 };
            assert_eq!(finish.counters.epoch, churned, "{name}");
            assert_eq!(finish.drainer.is_some(), !kind.single_thread(), "{name}");
            if let Some(routed) = finish.routed {
                assert_eq!(routed, verdict.attempted, "{name}");
            }
        }
    }

    #[test]
    fn a_seed_fixes_the_split_and_the_simulated_clock_on_single_thread_workloads() {
        for kind in Kind::ALL.into_iter().filter(|k| k.single_thread()) {
            let name = kind.name();
            let (v1, f1, sim1) = drive(kind, 42, 4);
            let (v2, f2, sim2) = drive(kind, 42, 4);
            assert_eq!((v1.allows, v1.denies), (v2.allows, v2.denies), "{name}");
            assert_eq!(sim1, sim2, "{name}");
            assert_eq!(
                (f1.counters.gate_hits, f1.counters.gate_misses),
                (f2.counters.gate_hits, f2.counters.gate_misses),
                "{name}"
            );
            let (v3, _, sim3) = drive(kind, 43, 4);
            assert_ne!((v1.allows, sim1), (v3.allows, sim3), "{name}: seed ignored");
        }
    }
}
