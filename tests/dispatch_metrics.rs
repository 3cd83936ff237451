//! One kernel, every dispatch flavor: drive `sys_smod_call`,
//! `sys_smod_call_batch`, `sys_smod_sweep`, a `DispatchPlane` and an
//! `AsyncPlane` against the same kernel and hold its `DispatchMetrics`
//! to account for each of them.
//!
//! Every flavor row of the rendered report must have samples — a
//! "(no samples)" row means a path lost its instrumentation — and each
//! checked entry is counted exactly once among syscall, batch, sweep and
//! plane, so those four counts sum to the gate's hits plus misses. The
//! async row overlays the plane entries it routed. Each flavor's draw
//! cycles through every operation, `restricted` included, so denied
//! calls are recorded too: a deny still costs its policy check.

use secmod::kernel::smod::SmodCallArgs;
use secmod::kernel::{DispatchPlane, Errno, Kernel, PlaneConfig};
use secmod::obs::Flavor;
use secmod::prelude::{Credential, DispatchError};
use secmod::r#async::{block_on, AsyncPlane};
use secmod::ring::{RingPairConfig, RingSet, SmodCallReq, SMOD_BATCH_DEFAULT_BUDGET};
use secmod::world::{build_dispatch_kernel_with_clients, WorldConfig};
use std::sync::Arc;

/// Calls each single-session flavor makes.
const CALLS: u64 = 64;
/// Sessions the direct sweep visits in its one trap.
const SWEPT_SESSIONS: usize = 2;

#[test]
fn every_flavor_records_and_each_entry_is_counted_once() {
    let world = build_dispatch_kernel_with_clients(&WorldConfig::new(7), SWEPT_SESSIONS);
    let (module, clients, func_ids) = (world.module, world.clients, world.func_ids);
    let kernel = Arc::new(world.kernel);
    let client = clients[0];
    let session = kernel.session_of(client).expect("established").id.0;
    let op = |i: u64| func_ids[i as usize % func_ids.len()];
    let req = |session: u32, i: u64| SmodCallReq {
        session,
        proc_id: op(i),
        user_data: i,
        args: i.to_le_bytes().into(),
    };

    // syscall: one trap per call.
    for i in 0..CALLS {
        let args = SmodCallArgs {
            m_id: module,
            func_id: op(i),
            frame_pointer: 0xBFFF_0000,
            return_address: 0x0000_1000,
            args: i.to_le_bytes().to_vec(),
        };
        let _ = kernel.sys_smod_call(client, args);
    }

    // batch: one ring pair drained by `sys_smod_call_batch`.
    let (sq, cq) = RingPairConfig::default().build();
    for i in 0..CALLS {
        sq.push_spsc(req(session, i)).expect("room");
    }
    let mut drained = 0;
    while !sq.is_empty() {
        let report = kernel
            .sys_smod_call_batch(client, &sq, &cq, SMOD_BATCH_DEFAULT_BUDGET)
            .expect("batch");
        drained += report.drained;
    }
    assert_eq!(drained as u64, CALLS);
    assert_eq!(std::iter::from_fn(|| cq.pop_spsc()).count() as u64, CALLS);

    // sweep: one direct `sys_smod_sweep` over every client's session, each
    // queued with one call of every operation.
    let set = RingSet::with_capacity(clients.len());
    for &c in &clients {
        let session = kernel.session_of(c).expect("established").id.0;
        let slot = set.register(session, c.0, RingPairConfig::default());
        let slot = slot.expect("a free slot");
        for i in 0..func_ids.len() as u64 {
            set.submit(slot, req(session, i)).expect("room");
        }
    }
    let sweeper = kernel
        .spawn_process("sweeper", Credential::root(), vec![0x90; 4096], 2, 2)
        .expect("spawn sweeper");
    let report = kernel
        .sys_smod_sweep(sweeper, &set, SMOD_BATCH_DEFAULT_BUDGET)
        .expect("sweep");
    let swept = (SWEPT_SESSIONS * func_ids.len()) as u64;
    assert_eq!(report.drained as u64, swept);

    // plane: one producer, one drainer.
    let plane = DispatchPlane::start(
        Arc::clone(&kernel),
        PlaneConfig::builder().drainers(1).build(),
    )
    .expect("start plane");
    let handle = plane.attach(client).expect("attach");
    let (mut sent, mut reaped) = (0, 0);
    while reaped < CALLS {
        if sent < CALLS
            && handle
                .submit(op(sent), sent, sent.to_le_bytes().to_vec())
                .is_ok()
        {
            sent += 1;
        }
        while handle.reap().is_some() {
            reaped += 1;
        }
        std::thread::yield_now();
    }
    drop(handle);
    plane.shutdown();

    // async: awaited calls on an `AsyncPlane`, whose drainers record the
    // entries under `plane` and route each completion under `async`.
    let plane = AsyncPlane::start(
        Arc::clone(&kernel),
        PlaneConfig::builder().drainers(1).build(),
    )
    .expect("start async plane");
    let awaited = plane.session(client).expect("attach async session");
    for i in 0..CALLS {
        match block_on(awaited.call(op(i), i.to_le_bytes())) {
            Ok(ret) => assert_eq!(ret, (i + 1).to_le_bytes()),
            Err(DispatchError::Errno(errno)) => assert_eq!(errno, Errno::EACCES),
            Err(e) => panic!("unexpected async outcome: {e}"),
        }
    }
    drop(awaited);
    plane.shutdown();

    assert_flavors_account_for_every_entry(&kernel, swept);
}

fn assert_flavors_account_for_every_entry(kernel: &Kernel, swept: u64) {
    let report = kernel.metrics_report();
    assert!(
        !report.contains("(no samples)"),
        "a flavor recorded nothing:\n{report}"
    );
    for flavor in Flavor::ALL {
        let name = flavor.name();
        assert!(report.contains(name), "missing {name} row:\n{report}");
    }
    let metrics = &kernel.metrics;
    let count = |flavor| metrics.latency(flavor).count();
    assert_eq!(count(Flavor::Syscall), CALLS);
    assert_eq!(count(Flavor::Batch), CALLS);
    assert_eq!(count(Flavor::Sweep), swept);
    assert_eq!(count(Flavor::Plane), 2 * CALLS, "plane + async entries");
    assert_eq!(count(Flavor::Async), CALLS);
    let entries: u64 = [Flavor::Syscall, Flavor::Batch, Flavor::Sweep, Flavor::Plane]
        .into_iter()
        .map(count)
        .sum();
    let (hits, misses) = (metrics.gate_hits.get(), metrics.gate_misses.get());
    assert_eq!(
        entries,
        hits + misses,
        "flavor entries must partition the gate's lookups:\n{report}"
    );
    // The sweep counters describe direct `sys_smod_sweep` calls only: the
    // plane drainers' many sweeps are not traps anyone paid for.
    assert_eq!(metrics.sweep_traps.get(), 1, "one direct sweep");
    assert_eq!(metrics.sweep_sessions.get(), SWEPT_SESSIONS as u64);
}
