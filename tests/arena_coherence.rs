//! Zero-copy coherence: dispatch through an arena-backed `RingSet`
//! must be *observationally identical* to the plain copy path and to
//! sequential `sys_smod_call`s — same result bytes, same errnos, same
//! order — for ANY mix of payload sizes, while charging no more
//! simulated time than the copy path (an arena-resident block crosses
//! the ring as a descriptor: one slot hand-off instead of a per-byte
//! copy charge).
//!
//! Also covered: mid-batch detach (a session deregistered with
//! requests still queued must free its in-flight arena slots when the
//! rings drop — no leak survives teardown), and the arena's own
//! no-overlap / no-leak property (concurrent live blocks never alias,
//! and freeing everything returns the arena to zero bytes in flight).

use proptest::prelude::*;
use proptest::{collection, prop_assert, prop_assert_eq, proptest};
use secmod::world::{build_dispatch_kernel_with_clients, DispatchKernel, WorldConfig};
use secmod_kernel::smod::SmodCallArgs;
use secmod_ring::{
    ArenaRegion, ArgArena, ArgRef, RingPairConfig, RingSet, RingSlotId, SmodCallReq,
};
use std::sync::Arc;

const MAX_SESSIONS: usize = 4;
const ARENA_BYTES: usize = 1 << 20;

/// Payload size classes: well inside the inline ceiling, exactly at it,
/// and a block that must travel through the arena (or the heap
/// fallback on the copy path).
const SIZES: [usize; 3] = [8, 64, 4096];

fn universe(seed: u64, sessions: usize) -> DispatchKernel {
    build_dispatch_kernel_with_clients(&WorldConfig::new(seed), sessions)
}

/// Per-session op lists: `(func index, arg, size class)`. The argument
/// value always sits in the first 8 bytes; the rest of the block is a
/// deterministic fill the kernel bodies ignore, so results must not
/// depend on how the block travelled.
type Plan = Vec<Vec<(usize, u64, usize)>>;

fn payload(arg: u64, class: usize) -> Vec<u8> {
    let mut buf = vec![(arg as u8) ^ (class as u8).wrapping_mul(0x5B); SIZES[class]];
    buf[..8].copy_from_slice(&arg.to_le_bytes());
    buf
}

fn resolve_func(dispatch: &DispatchKernel, func: usize) -> u32 {
    if func < dispatch.func_ids.len() {
        dispatch.func_ids[func]
    } else {
        u32::MAX
    }
}

fn run_sequential(dispatch: &DispatchKernel, plan: &Plan) -> Vec<Vec<(i32, Vec<u8>)>> {
    plan.iter()
        .enumerate()
        .map(|(s, ops)| {
            let client = dispatch.clients[s];
            ops.iter()
                .map(|&(func, arg, class)| {
                    match dispatch.kernel.sys_smod_call(
                        client,
                        SmodCallArgs {
                            m_id: dispatch.module,
                            func_id: resolve_func(dispatch, func),
                            frame_pointer: 0,
                            return_address: 0,
                            args: payload(arg, class),
                        },
                    ) {
                        Ok(ret) => (0, ret),
                        Err(e) => (e.code(), Vec::new()),
                    }
                })
                .collect()
        })
        .collect()
}

/// Drive the plan through one sweep over a `RingSet`, arena-backed or
/// plain, and reap per-session `(errno, result)` lists.
fn run_swept(dispatch: &DispatchKernel, plan: &Plan, use_arena: bool) -> Vec<Vec<(i32, Vec<u8>)>> {
    let set = if use_arena {
        let arena = ArgArena::with_metrics(ARENA_BYTES, Arc::clone(&dispatch.kernel.metrics.arena));
        RingSet::with_arena(plan.len().max(1), arena, ARENA_BYTES)
    } else {
        RingSet::with_capacity(plan.len().max(1))
    };
    let mut slots: Vec<Option<RingSlotId>> = Vec::with_capacity(plan.len());
    let mut budget = 1usize;
    for (s, ops) in plan.iter().enumerate() {
        if ops.is_empty() {
            slots.push(None);
            continue;
        }
        let client = dispatch.clients[s];
        let session = dispatch.kernel.session_of(client).unwrap().id.0;
        budget = budget.max(ops.len());
        let slot = set
            .register(
                session,
                client.0,
                RingPairConfig {
                    submission: ops.len(),
                    completion: ops.len(),
                },
            )
            .unwrap();
        let rings = set.get(slot).unwrap();
        assert_eq!(rings.arena.is_some(), use_arena);
        for (i, &(func, arg, class)) in ops.iter().enumerate() {
            set.submit(
                slot,
                SmodCallReq {
                    session,
                    proc_id: resolve_func(dispatch, func),
                    user_data: ((s as u64) << 32) | i as u64,
                    args: ArgRef::place_vec(payload(arg, class), rings.arena.as_ref()),
                },
            )
            .unwrap();
        }
        slots.push(Some(slot));
    }
    let drainer = dispatch
        .kernel
        .spawn_process(
            "arena-drainer",
            secmod_kernel::Credential::root(),
            vec![0x90; 4096],
            2,
            2,
        )
        .unwrap();
    let report = dispatch
        .kernel
        .sys_smod_sweep(drainer, &set, budget)
        .unwrap();
    let expected: usize = plan.iter().map(Vec::len).sum();
    assert_eq!(report.drained, expected, "sweep lost or invented entries");

    plan.iter()
        .zip(&slots)
        .map(|(ops, slot)| {
            let slot = match slot {
                Some(slot) => *slot,
                None => return Vec::new(),
            };
            let rings = set.get(slot).unwrap();
            let mut out = Vec::with_capacity(ops.len());
            while let Some(resp) = rings.cq.pop_spsc() {
                out.push((resp.errno, resp.into_ret()));
            }
            out
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    /// Arena-backed dispatch == copy-path dispatch == sequential calls,
    /// bit for bit, for ANY per-session mix of allowed / restricted /
    /// unknown functions at ANY payload size — and the arena run never
    /// charges more simulated time than the copy run (strictly less the
    /// moment any known-function request carries an oversize block).
    #[test]
    fn arena_dispatch_equals_copy_dispatch_equals_sequential(
        seed in 0u64..1_000,
        plan in collection::vec(
            collection::vec((0usize..6, 0u64..10_000, 0usize..3), 0..24),
            1..=MAX_SESSIONS,
        ),
    ) {
        let sequential_kernel = universe(seed, plan.len());
        let copy_kernel = universe(seed, plan.len());
        let arena_kernel = universe(seed, plan.len());
        prop_assert_eq!(&sequential_kernel.func_ids, &copy_kernel.func_ids);
        prop_assert_eq!(&sequential_kernel.func_ids, &arena_kernel.func_ids);

        let sequential = run_sequential(&sequential_kernel, &plan);

        let t0 = copy_kernel.kernel.clock.now_ns();
        let copied = run_swept(&copy_kernel, &plan, false);
        let copy_ns = copy_kernel.kernel.clock.now_ns() - t0;

        let t0 = arena_kernel.kernel.clock.now_ns();
        let arena = run_swept(&arena_kernel, &plan, true);
        let arena_ns = arena_kernel.kernel.clock.now_ns() - t0;

        prop_assert_eq!(&sequential, &copied, "copy-path sweep diverged");
        prop_assert_eq!(&sequential, &arena, "arena-path sweep diverged");

        // The descriptor hand-off is the whole point: the arena run
        // charges `ring_slot_ns` per oversize block where the copy run
        // pays per byte. A known-function 4 KiB request makes the gap
        // strict; without one the two cost models are byte-identical.
        let big_known = plan.iter().flatten()
            .filter(|&&(func, _, class)| {
                SIZES[class] > 64 && func < sequential_kernel.func_ids.len()
            })
            .count();
        if big_known > 0 {
            prop_assert!(
                arena_ns < copy_ns,
                "arena {} ns not cheaper than copy {} ns with {} oversize blocks",
                arena_ns, copy_ns, big_known
            );
        } else {
            prop_assert_eq!(arena_ns, copy_ns, "inline-only plans must cost the same");
        }

        // No leak: every request was consumed by the kernel drain and
        // every completion reaped, so the shared arena settles to zero
        // bytes in flight.
        prop_assert_eq!(arena_kernel.kernel.metrics.arena.bytes_in_flight.get(), 0);
        prop_assert_eq!(arena_kernel.kernel.metrics.arena.gen_mismatches.get(), 0);
    }

    /// Live arena blocks never alias: fill N oversize blocks with
    /// distinct patterns, then read every one back *after* all
    /// allocations — any freelist overlap would have corrupted an
    /// earlier block. Dropping everything returns the region to zero
    /// bytes in flight, and the space is immediately reusable.
    #[test]
    fn live_arena_blocks_never_overlap_and_never_leak(
        blocks in collection::vec((65usize..5_000, 0u64..256), 1..32),
    ) {
        let arena = ArgArena::with_capacity(ARENA_BYTES);
        let region = ArenaRegion::new(Arc::clone(&arena), ARENA_BYTES);
        let mut live: Vec<(ArgRef, Vec<u8>)> = Vec::with_capacity(blocks.len());
        for &(len, fill) in &blocks {
            let mut expect = vec![fill as u8; len];
            expect[..8].copy_from_slice(&(len as u64).to_le_bytes());
            let placed = ArgRef::place(&expect, Some(&region));
            prop_assert!(placed.is_arena(), "oversize block fell back off the arena");
            live.push((placed, expect));
        }
        for (placed, expect) in &live {
            prop_assert_eq!(placed.as_slice(), &expect[..], "arena blocks aliased");
        }
        prop_assert!(region.in_flight() > 0);
        drop(live);
        prop_assert_eq!(region.in_flight(), 0, "freed blocks still charged");
        // The space comes straight back.
        let again = ArgRef::place(&[7u8; 4096], Some(&region));
        prop_assert!(again.is_arena());
    }
}

/// Detaching a session mid-batch — requests submitted, sweep not yet
/// run — must not leak its arena slots: the deregistered rings free
/// every in-flight block when they drop, and the surviving session's
/// sweep is untouched.
#[test]
fn mid_batch_detach_frees_in_flight_arena_slots() {
    let dispatch = universe(5, 2);
    let metrics = Arc::clone(&dispatch.kernel.metrics.arena);
    let arena = ArgArena::with_metrics(ARENA_BYTES, Arc::clone(&metrics));
    let set = RingSet::with_arena(2, arena, ARENA_BYTES);

    let mut slots = Vec::new();
    for s in 0..2 {
        let client = dispatch.clients[s];
        let session = dispatch.kernel.session_of(client).unwrap().id.0;
        let slot = set
            .register(
                session,
                client.0,
                RingPairConfig {
                    submission: 12,
                    completion: 12,
                },
            )
            .unwrap();
        let rings = set.get(slot).unwrap();
        for i in 0..12u64 {
            set.submit(
                slot,
                SmodCallReq {
                    session,
                    proc_id: dispatch.func_ids[1], // the incr body: arg + 1
                    user_data: i,
                    args: ArgRef::place_vec(payload(1000 * s as u64 + i, 2), rings.arena.as_ref()),
                },
            )
            .unwrap();
        }
        slots.push(slot);
    }
    assert!(
        metrics.bytes_in_flight.get() > 0,
        "oversize args must be arena-resident before the sweep"
    );

    // Detach session 1 with its whole batch still queued.
    let detached = set.deregister(slots[1]).expect("slot was registered");

    let drainer = dispatch
        .kernel
        .spawn_process(
            "detach-drainer",
            secmod_kernel::Credential::root(),
            vec![0x90; 4096],
            2,
            2,
        )
        .unwrap();
    let report = dispatch.kernel.sys_smod_sweep(drainer, &set, 12).unwrap();
    assert_eq!(report.drained, 12, "only the surviving session drains");

    let rings = set.get(slots[0]).unwrap();
    let mut reaped = 0u64;
    while let Some(resp) = rings.cq.pop_spsc() {
        assert_eq!(resp.errno, 0);
        assert_eq!(
            u64::from_le_bytes(resp.into_ret().try_into().unwrap()),
            reaped + 1,
            "surviving session's results perturbed by the detach"
        );
        reaped += 1;
    }
    assert_eq!(reaped, 12);

    // The detached session's 12 blocks are still charged — freed only
    // when its rings (and the requests inside them) actually drop.
    assert!(metrics.bytes_in_flight.get() > 0);
    drop(detached);
    // The survivor's region may still park recycled blocks in its
    // magazine (charged by design); dropping its rings flushes them,
    // and anything left after that is a genuine leak.
    drop(rings);
    let survivor = set.deregister(slots[0]).expect("slot was registered");
    drop(survivor);
    assert_eq!(
        metrics.bytes_in_flight.get(),
        0,
        "mid-batch detach leaked arena slots"
    );
}
