//! The claims `examples/ring_report.rs` prints, asserted: the example is
//! a walkthrough and only narrates; what it says must hold is held here,
//! on the same shapes.

use secmod::gate::{build_dispatch_kernel_with_clients, ScenarioConfig, ScenarioKind};
use secmod::prelude::Credential;
use secmod::qos::{QosPolicy, SweepScheduler, TenantSpec};
use secmod::ring::{ArgArena, ArgRef, RingPairConfig, RingSet, SmodCallReq};
use std::sync::Arc;

/// The zero-copy leg: 32 calls carrying 64 KiB blocks through one
/// session's arena-backed rings and one `sys_smod_sweep`. Once every
/// completion is reaped the arena must be back to zero bytes in flight —
/// with the rings still alive, so nothing is settled by a drop.
#[test]
fn arena_settles_to_zero_after_a_64k_sweep() {
    const BIG: usize = 64 * 1024;
    const CALLS: usize = 32;
    let cfg = ScenarioConfig::builder(ScenarioKind::PlaneDispatch)
        .seed(42)
        .threads(1)
        .build();
    let dispatch = build_dispatch_kernel_with_clients(&cfg, 1);
    let kernel = &dispatch.kernel;
    let gauge = &kernel.metrics.arena.bytes_in_flight;
    let arena = ArgArena::with_metrics(8 << 20, Arc::clone(&kernel.metrics.arena));
    let set = RingSet::with_arena(1, arena, 8 << 20);
    let client = dispatch.clients[0];
    let session = kernel.session_of(client).unwrap().id.0;
    let ring = RingPairConfig {
        submission: CALLS,
        completion: CALLS,
    };
    let slot = set.register(session, client.0, ring).expect("register");
    let rings = set.get(slot).expect("rings");
    for i in 0..CALLS as u64 {
        let mut block = vec![0u8; BIG];
        block[..8].copy_from_slice(&i.to_le_bytes());
        let req = SmodCallReq {
            session,
            proc_id: dispatch.func_ids[1],
            user_data: i,
            args: ArgRef::place_vec(block, rings.arena.as_ref()),
        };
        set.submit(slot, req).expect("submit");
    }
    assert!(
        gauge.get() >= (CALLS * BIG) as u64,
        "64 KiB blocks must be arena-resident before the sweep"
    );
    let drainer = kernel
        .spawn_process("claims-drainer", Credential::root(), vec![0x90; 4096], 2, 2)
        .expect("drainer");
    let report = kernel.sys_smod_sweep(drainer, &set, CALLS).expect("sweep");
    assert_eq!(report.drained, CALLS);
    let mut reaped = 0;
    while let Some(resp) = rings.cq.pop_spsc() {
        assert!(resp.is_ok());
        reaped += 1;
    }
    assert_eq!(reaped, CALLS);
    assert_eq!(gauge.get(), 0, "arena leaked bytes after the 64 KiB sweep");
}

/// The jitter table: tenant 0 offers one slot, tenant 1 floods four, both
/// always backlogged, the scheduler driven directly. Every tenant is
/// served again after its first service.
#[test]
fn every_tenant_is_reserved_against_a_slot_flood() {
    const ROUNDS: u64 = 4_096;
    let tenants = [TenantSpec::new(0, 1), TenantSpec::new(1, 1)];
    let sched = SweepScheduler::new(QosPolicy::weighted_fair(tenants).with_quantum(16));
    let candidates = [(0usize, 0u32), (1, 1), (2, 1), (3, 1), (4, 1)];
    let mut services = [0u64; 2];
    for _ in 0..ROUNDS {
        let plan = sched.plan(&candidates, 16);
        for (tenant, served) in services.iter_mut().enumerate() {
            *served += u64::from(plan.chosen.iter().any(|c| c.tenant == tenant as u32));
        }
        for c in &plan.chosen {
            sched.charge(c.tenant, c.budget as u64);
        }
    }
    for (tenant, served) in services.iter().enumerate() {
        assert!(*served >= 2, "tenant {tenant} was never re-served");
    }
}
