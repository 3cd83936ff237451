//! Walkthrough: the `secmod_ring` batched dispatch path.
//!
//! Demonstrates the submit → drain → complete cycle end to end:
//!
//! ```text
//!   client thread                       kernel (sys_smod_call_batch)
//!   ─────────────                       ────────────────────────────
//!   SmodCallReq ─push→ SubmissionRing ─pop→ resolve session ONCE
//!                                            ├─ policy check per entry
//!                                            │  (session verdict / gateway)
//!                                            ├─ function body per entry
//!   SmodCallResp ←pop─ CompletionRing ←push──┘
//! ```
//!
//! then sweeps batch sizes through the cost model (amortised fixed cost
//! per entry), runs the same batch against the simulated clock, shows
//! the **dispatch plane** (multi-session sweeps: per-session batches →
//! one `sys_smod_sweep`, then a drainer-count sweep through the real
//! `DispatchPlane`), demonstrates the **zero-copy argument path**
//! (64 KiB blocks by value vs by `ArgArena` descriptor), runs the
//! multi-threaded `ring`, `plane` and `arena` workload scenarios, and
//! finishes with the **QoS plane**: the weighted-fair `multitenant`
//! scenario plus a per-tenant lane report showing the victim's drain
//! share, a **jitter** analysis (per-tenant inter-service gap
//! distributions under DRR; that every tenant is re-served is asserted
//! by `tests/ring_report_claims.rs`), and a pinned-vs-unpinned drainer
//! wall-clock diagnostic (non-gating).
//!
//! ```sh
//! cargo run --release --example ring_report
//! cargo run --release --example ring_report -- --threads 2 --ops 2000 --seed 7
//! ```

use secmod::gate::{run_scenario, ScenarioConfig, ScenarioKind};
use secmod::kernel::CostModel;
use secmod::prelude::*;
use secmod::ring::{Ring, RingPairConfig, RingSet, SmodCallReq};
use std::sync::Arc;

/// Submit `total` incr calls round-robin over `handles` and reap every
/// completion — the minimal producer loop shared by the drainer-count
/// sweep, the QoS fairness demo and the pinned-drainer diagnostic below.
fn drive(handles: &[secmod::kernel::PlaneHandle], incr_func: u32, total: u64) {
    let mut sent = 0u64;
    let mut received = 0u64;
    while received < total {
        if sent < total {
            let h = &handles[(sent % handles.len() as u64) as usize];
            if h.submit(incr_func, sent, sent.to_le_bytes().to_vec())
                .is_ok()
            {
                sent += 1;
            }
        }
        for h in handles {
            while h.reap().is_some() {
                received += 1;
            }
        }
    }
}

fn parse_flag(args: &[String], flag: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = parse_flag(&args, "--seed").unwrap_or(42);
    let threads = parse_flag(&args, "--threads").unwrap_or(4) as usize;
    let default_ops = if cfg!(debug_assertions) {
        2_000
    } else {
        50_000
    };
    let ops = parse_flag(&args, "--ops").unwrap_or(default_ops);

    println!("secmod_ring batched dispatch report");
    println!("submit -> drain -> complete: SmodCallReq rings in, SmodCallResp rings out;");
    println!("the kernel resolves session/credential/gateway once per batch.\n");

    // --- 1. the cost model's amortisation argument ---------------------
    let cost = CostModel::default();
    println!("amortised fixed cost per entry (CostModel::batched_dispatch_ns):");
    println!(
        "  single sys_smod_call fixed overhead: {} ns",
        cost.smod_call_overhead(0)
    );
    for batch in [1usize, 8, 32, 128] {
        let total = cost.batched_dispatch_ns(batch);
        println!(
            "  batch {batch:>4}: {total:>6} ns fixed  ->  {:>5} ns/entry",
            total / batch as u64
        );
    }

    // --- 2. one real batch on the simulated clock ----------------------
    let module = SecureModuleBuilder::new("libring", 1)
        .function("incr", |_ctx, args| {
            let v = u64::from_le_bytes(args[..8].try_into().unwrap());
            Ok((v + 1).to_le_bytes().to_vec())
        })
        .allow_credential(b"ring-demo-key")
        .build()
        .expect("build demo module");
    let mut world = SimWorld::new();
    world.install(&module).expect("install");
    let client = world
        .spawn_client(
            "ring-app",
            Credential::user(1000, 100).with_smod_credential("libring", b"ring-demo-key"),
        )
        .expect("spawn client");
    world.connect(client, "libring", 0).expect("connect");

    const BATCH: usize = 32;
    let incr_id = world.func_id(client, "incr").expect("resolve incr");
    // One ring entry per argument block, for `client`'s session.
    let reqs = |w: &SimWorld, client| {
        let session = w.kernel.session_of(client).expect("session").id.0;
        (0..BATCH as u64).map(move |i| SmodCallReq {
            session,
            proc_id: incr_id,
            user_data: i,
            args: i.to_le_bytes().into(),
        })
    };
    let (_, sequential_ns) = world.measure(|w| {
        for i in 0..BATCH as u64 {
            w.call(client, "incr", &i.to_le_bytes())
                .expect("sequential call");
        }
    });
    let ring = RingPairConfig {
        submission: BATCH,
        completion: BATCH,
    };
    let (sq, cq) = ring.build();
    for req in reqs(&world, client) {
        sq.push_spsc(req).expect("ring sized to the batch");
    }
    let (report, batched_ns) = world.measure(|w| {
        w.kernel
            .sys_smod_call_batch(client, &sq, &cq, BATCH)
            .expect("batched call")
    });
    println!("\none batch of {BATCH} incr calls through SimWorld (simulated clock):");
    println!("  sequential sys_smod_call x{BATCH}: {sequential_ns:>8} ns");
    println!(
        "  sys_smod_call_batch (1 drain)  : {batched_ns:>8} ns  ({}/{BATCH} completed)",
        report.completed
    );
    println!(
        "  amortisation: {:.1}x cheaper on the simulated clock",
        sequential_ns as f64 / batched_ns.max(1) as f64
    );
    println!(
        "  first four completions -> {:?}",
        std::iter::from_fn(|| cq.pop_spsc())
            .take(4)
            .map(|resp| secmod::DispatchError::from_resp(resp)
                .map(|ret| u64::from_le_bytes(ret.try_into().unwrap())))
            .collect::<Vec<_>>()
    );

    // --- 3. the dispatch plane: multi-session sweeps -------------------
    // 3a. One sweep vs per-client batches on the simulated clock: eight
    // clients, one batch each — sys_smod_call_batch pays the fixed trap
    // per client, sys_smod_sweep pays it once for all of them and
    // resolves each session exactly once.
    const PLANE_CLIENTS: usize = 8;
    let mut sweep_world = SimWorld::new();
    sweep_world.install(&module).expect("install");
    let plane_clients: Vec<_> = (0..PLANE_CLIENTS)
        .map(|i| {
            let c = sweep_world
                .spawn_client(
                    &format!("plane-app{i}"),
                    Credential::user(1000, 100).with_smod_credential("libring", b"ring-demo-key"),
                )
                .expect("spawn client");
            sweep_world.connect(c, "libring", 0).expect("connect");
            c
        })
        .collect();
    let sweeper = sweep_world
        .spawn_client("sweeper", Credential::root())
        .expect("spawn sweeper");
    let set = RingSet::with_capacity(PLANE_CLIENTS);
    let slots: Vec<_> = plane_clients
        .iter()
        .map(|&c| {
            let session = sweep_world.kernel.session_of(c).expect("session").id.0;
            set.register(session, c.0, ring).expect("register")
        })
        .collect();
    let fill = |w: &SimWorld| {
        for (&c, &slot) in plane_clients.iter().zip(&slots) {
            for req in reqs(w, c) {
                set.submit(slot, req).expect("ring sized to the batch");
            }
        }
    };
    let reap = || -> usize {
        let oks = |slot: &secmod::ring::RingSlotId| {
            let rings = set.get(*slot).expect("slot");
            std::iter::from_fn(|| rings.cq.pop_spsc())
                .filter(|resp| resp.is_ok())
                .count()
        };
        slots.iter().map(oks).sum()
    };
    fill(&sweep_world);
    let (_, per_client_ns) = sweep_world.measure(|w| {
        for (&c, &slot) in plane_clients.iter().zip(&slots) {
            let rings = set.get(slot).expect("slot");
            w.kernel
                .sys_smod_call_batch(c, &rings.sq, &rings.cq, BATCH)
                .expect("batched call");
        }
    });
    reap();
    fill(&sweep_world);
    let (_, sweep_ns) = sweep_world.measure(|w| {
        w.kernel
            .sys_smod_sweep(sweeper, &set, BATCH)
            .expect("sweep")
    });
    let swept_ok = reap();
    println!(
        "\ndispatch plane, level 1 — one sweep over {PLANE_CLIENTS} sessions x {BATCH} calls \
         (simulated clock):"
    );
    println!("  per-client sys_smod_call_batch x{PLANE_CLIENTS}: {per_client_ns:>8} ns");
    println!(
        "  one sys_smod_sweep             : {sweep_ns:>8} ns  ({swept_ok}/{} completed)",
        PLANE_CLIENTS * BATCH
    );
    println!(
        "  multi-session amortisation: {:.1}x cheaper — each session resolved once per sweep,",
        per_client_ns as f64 / sweep_ns.max(1) as f64
    );
    println!("  the trap and context-switch pair paid once for all sessions");

    // 3b. Dedicated drainer threads: the same total work pushed through a
    // real DispatchPlane at 1, 2 and 4 drainers. Producers never trap;
    // the simulated cost varies with how many sweeps the drainers needed
    // (more drainers -> smaller, more frequent sweeps -> more fixed-cost
    // traps), which is exactly the trade the plane exposes.
    println!("\ndispatch plane, level 2 — dedicated drainer threads (producers never trap):");
    for drainer_count in [1usize, 2, 4] {
        let dispatch = secmod::gate::build_dispatch_kernel_with_clients(
            &ScenarioConfig::builder(ScenarioKind::PlaneDispatch)
                .seed(seed)
                .threads(1)
                .build(),
            PLANE_CLIENTS,
        );
        let incr_func = dispatch.func_ids[1];
        let clients = dispatch.clients.clone();
        let kernel = Arc::new(dispatch.kernel);
        let t0 = kernel.clock.now_ns();
        let plane = secmod::kernel::DispatchPlane::start(
            Arc::clone(&kernel),
            secmod::kernel::PlaneConfig::builder()
                .drainers(drainer_count)
                .build(),
        )
        .expect("start plane");
        let per_producer = 256u64;
        std::thread::scope(|scope| {
            for &client in &clients {
                let handle = plane.attach(client).expect("attach");
                scope.spawn(move || drive(&[handle], incr_func, per_producer));
            }
        });
        let stats = plane.shutdown();
        let simulated_ns = kernel.clock.now_ns() - t0;
        println!(
            "  {drainer_count} drainer(s): {:>6} entries in {:>4} sweeps ({:>5.1} entries/sweep), \
             {simulated_ns:>8} ns simulated",
            stats.completed,
            stats.productive_sweeps,
            stats.completed as f64 / stats.productive_sweeps.max(1) as f64,
        );
    }

    // --- 4. the zero-copy argument path --------------------------------
    // 64 KiB blocks end-to-end through one session's rings, twice: a
    // copy-backed set (every byte pays `copy_per_byte_ns` at drain) and
    // an arena-backed set (the block is placed once in the shared
    // `ArgArena`; the ring carries an `(offset, len, gen)` descriptor
    // and the drain charges one slot hand-off). The paper's shared-stack
    // argument, in cost-model form.
    use secmod::ring::{ArgArena, ArgRef};
    const BIG: usize = 64 * 1024;
    const BIG_CALLS: usize = 32;
    let mut sim_ns = [0u64; 2];
    let (mut high_water, mut in_flight) = (0u64, 0u64);
    for (which, use_arena) in [(0usize, false), (1usize, true)] {
        let dispatch = secmod::gate::build_dispatch_kernel_with_clients(
            &ScenarioConfig::builder(ScenarioKind::PlaneDispatch)
                .seed(seed)
                .threads(1)
                .build(),
            1,
        );
        let set = if use_arena {
            let arena = ArgArena::with_metrics(8 << 20, Arc::clone(&dispatch.kernel.metrics.arena));
            RingSet::with_arena(1, arena, 8 << 20)
        } else {
            RingSet::with_capacity(1)
        };
        let client = dispatch.clients[0];
        let session = dispatch.kernel.session_of(client).unwrap().id.0;
        let slot = set
            .register(
                session,
                client.0,
                RingPairConfig {
                    submission: BIG_CALLS,
                    completion: BIG_CALLS,
                },
            )
            .expect("register");
        let rings = set.get(slot).expect("rings");
        let drainer = dispatch
            .kernel
            .spawn_process("report-drainer", Credential::root(), vec![0x90; 4096], 2, 2)
            .expect("drainer");
        let t0 = dispatch.kernel.clock.now_ns();
        for i in 0..BIG_CALLS as u64 {
            let mut block = vec![0u8; BIG];
            block[..8].copy_from_slice(&i.to_le_bytes());
            set.submit(
                slot,
                SmodCallReq {
                    session,
                    proc_id: dispatch.func_ids[1],
                    user_data: i,
                    args: ArgRef::place_vec(block, rings.arena.as_ref()),
                },
            )
            .expect("submit");
        }
        dispatch
            .kernel
            .sys_smod_sweep(drainer, &set, BIG_CALLS)
            .expect("sweep");
        while rings.cq.pop_spsc().is_some() {}
        sim_ns[which] = dispatch.kernel.clock.now_ns() - t0;
        if use_arena {
            let arena = &dispatch.kernel.metrics.arena;
            high_water = arena.bytes_in_flight.high_water();
            in_flight = arena.bytes_in_flight.get();
        }
    }
    let ratio = sim_ns[0] as f64 / sim_ns[1].max(1) as f64;
    println!("\nzero-copy argument path — {BIG_CALLS} calls x 64 KiB args (simulated clock):");
    println!(
        "  copy-backed rings : {:>10} ns (per-byte marshal at drain)",
        sim_ns[0]
    );
    println!(
        "  arena-backed rings: {:>10} ns (descriptor hand-off)",
        sim_ns[1]
    );
    println!(
        "  copy / arena = {ratio:.1}x {} — arena high water {high_water} B, \
         {in_flight} B in flight after reap",
        if ratio >= 2.0 {
            "(>= 2x acceptance bar)"
        } else {
            "(BELOW the 2x acceptance bar!)"
        }
    );

    // --- 5. the raw ring, for the curious ------------------------------
    let ring: Ring<SmodCallReq> = Ring::with_capacity(8);
    ring.push(SmodCallReq {
        session: 1,
        proc_id: 0,
        user_data: 7,
        args: vec![1, 2, 3].into(),
    })
    .expect("push");
    let entry = ring.pop().expect("pop");
    println!(
        "\nring taste: capacity {} (power of two), FIFO cookie echo: user_data {}",
        ring.capacity(),
        entry.user_data
    );

    // --- 6. the multi-threaded ring + plane scenarios ------------------
    let ring_cfg = ScenarioConfig::builder(ScenarioKind::RingDispatch)
        .seed(seed)
        .threads(threads)
        .ops_per_thread(ops)
        .build();
    println!(
        "\nScenarioKind::RingDispatch ({threads} producers, {} drainer(s), {ops} ops/producer):",
        ring_cfg.effective_drainers()
    );
    let report = run_scenario(&ring_cfg);
    println!("{report}");
    let plane_cfg = ScenarioConfig::builder(ScenarioKind::PlaneDispatch)
        .seed(seed)
        .threads(threads)
        .ops_per_thread(ops)
        .build();
    println!(
        "\nScenarioKind::PlaneDispatch ({threads} producers, {} dedicated drainer(s), \
         {ops} ops/producer):",
        plane_cfg.effective_drainers()
    );
    let report = run_scenario(&plane_cfg);
    println!("{report}");
    let arena_cfg = ScenarioConfig::builder(ScenarioKind::ArenaMix)
        .seed(seed)
        .threads(threads)
        .ops_per_thread(ops)
        .build();
    println!(
        "\nScenarioKind::ArenaMix (same plane, every 4th submission a 64 KiB arena block,\n\
         the rest 8 B inline — the runner asserts 0 arena bytes in flight after shutdown):"
    );
    let report = run_scenario(&arena_cfg);
    println!("{report}");

    // --- 7. the QoS plane: weighted-fair sweeps, per-tenant lanes ------
    // First the full scenario (its runner *asserts* the starvation floor:
    // the victim must hold >= 25% of drain service at its own finish
    // line, half its 50% fair share), then a small inline plane so the
    // per-tenant lane ledger and the victim's share can be printed.
    use secmod::qos::{QosPolicy, TenantId, TenantSpec};
    let mt_cfg = ScenarioConfig::builder(ScenarioKind::MultiTenant)
        .seed(seed)
        .threads(threads)
        .ops_per_thread(ops)
        .build();
    println!(
        "\nScenarioKind::MultiTenant ({threads} producers: thread 0 is a 1-slot victim\n\
         tenant, every other thread floods 4 slots for the adversary tenant; equal\n\
         weights, so weighted-fair sweeps must keep serving the victim):"
    );
    let report = run_scenario(&mt_cfg);
    println!("{report}");

    let dispatch = secmod::gate::build_dispatch_kernel_with_clients(
        &ScenarioConfig::builder(ScenarioKind::MultiTenant)
            .seed(seed)
            .threads(1)
            .build(),
        2,
    );
    let incr_func = dispatch.func_ids[1];
    let victim_client = dispatch.clients[0];
    let flood_client = dispatch.clients[1];
    let kernel = Arc::new(dispatch.kernel);
    let plane = secmod::kernel::DispatchPlane::start(
        Arc::clone(&kernel),
        secmod::kernel::PlaneConfig::builder()
            .drainers(1)
            .slots(5)
            .qos(
                QosPolicy::weighted_fair([TenantSpec::new(0, 1), TenantSpec::new(1, 1)])
                    .with_quantum(16),
            )
            .build(),
    )
    .expect("start qos plane");
    let sched = plane.scheduler().expect("qos plane has a scheduler");
    let victim = plane
        .attach_tenant(victim_client, TenantId(0))
        .expect("attach victim");
    let flood: Vec<_> = (0..4)
        .map(|_| {
            plane
                .attach_tenant(flood_client, TenantId(1))
                .expect("attach adversary")
        })
        .collect();
    const FAIR_OPS: u64 = 512;
    use std::sync::atomic::{AtomicU64, Ordering};
    let at_victim_finish = [AtomicU64::new(0), AtomicU64::new(0)];
    std::thread::scope(|scope| {
        let sched = &sched;
        let at_victim_finish = &at_victim_finish;
        scope.spawn(move || {
            drive(&[victim], incr_func, FAIR_OPS);
            for (i, cell) in at_victim_finish.iter().enumerate() {
                cell.store(
                    sched.metrics().lane(i as u32).drained.get(),
                    Ordering::SeqCst,
                );
            }
        });
        scope.spawn(move || drive(&flood, incr_func, FAIR_OPS));
    });
    let stats = plane.shutdown();
    let v = at_victim_finish[0].load(Ordering::SeqCst);
    let a = at_victim_finish[1].load(Ordering::SeqCst);
    let share = v as f64 / (v + a).max(1) as f64;
    println!(
        "inline QoS plane: a 1-slot victim vs an adversary holding 4 slots but offering\n\
         the same traffic ({FAIR_OPS} calls each), 1 drainer, equal weights, quantum 16\n\
         — {} entries drained in {} sweeps; 4x the slots must not buy drain share:",
        stats.drained, stats.sweeps
    );
    println!(
        "  victim share of drain service at its finish line: {:.0}% \
         (fair share 50%, floor 25%)",
        share * 100.0
    );
    print!("{}", sched.metrics().text_report());

    // --- 7b. DRR jitter: inter-service gaps -----------------------------
    // DRR minimises *jitter*: every backlogged tenant is served nearly
    // every sweep, so inter-service gaps sit at one sweep period. Both
    // tenants stay backlogged and the scheduler is driven directly with a
    // synthetic clock, so the gap distributions are exact, not scheduling
    // noise. That every tenant is re-served is asserted by
    // tests/ring_report_claims.rs; here the gaps are only printed.
    use secmod::qos::SweepScheduler;
    const SWEEP_PERIOD_NS: u64 = 250; // one scheduling round per period
    const JITTER_TENANTS: u64 = 2;
    const JITTER_ROUNDS: u64 = 4_096; // 1 ms simulated
    let percentile = |sorted: &[u64], q: f64| -> u64 {
        let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
        sorted[idx]
    };
    println!(
        "\nDRR jitter — per-tenant inter-service gap over {JITTER_ROUNDS} sweeps\n\
         (sweep period {SWEEP_PERIOD_NS} ns; tenant 0 offers 1 slot, tenant 1 floods 4;\n\
         both always backlogged):"
    );
    let jitter_sched = SweepScheduler::new(
        QosPolicy::weighted_fair([TenantSpec::new(0, 1), TenantSpec::new(1, 1)]).with_quantum(16),
    );
    let candidates: Vec<(usize, u32)> = [(0usize, 0u32), (1, 1), (2, 1), (3, 1), (4, 1)].into();
    let mut last_served = [None::<u64>; 2];
    let mut gaps: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    for round in 0..JITTER_ROUNDS {
        let now = round * SWEEP_PERIOD_NS;
        let plan = jitter_sched.plan(&candidates, 16);
        for tenant in 0..JITTER_TENANTS as u32 {
            if plan.chosen.iter().any(|c| c.tenant == tenant) {
                if let Some(prev) = last_served[tenant as usize] {
                    gaps[tenant as usize].push(now - prev);
                }
                last_served[tenant as usize] = Some(now);
            }
        }
        for c in &plan.chosen {
            jitter_sched.charge(c.tenant, c.budget as u64);
        }
    }
    for (tenant, gap) in gaps.iter_mut().enumerate() {
        gap.sort_unstable();
        let Some(&max) = gap.last() else {
            println!("    tenant {tenant}: never re-served");
            continue;
        };
        let (p50, p99) = (percentile(gap, 0.50), percentile(gap, 0.99));
        println!("    tenant {tenant}: gap p50 {p50:>5} ns  p99 {p99:>5} ns  max {max:>5} ns");
    }

    // --- 8. pinned vs unpinned drainers: wall-clock diagnostic ---------
    // The same plane workload twice, drainers unpinned then pinned to
    // cores. Wall-clock, not the simulated clock — and NON-GATING:
    // affinity is best-effort (containers and cpusets may refuse the
    // mask, and a 2-core runner can make pinning a pessimisation), so
    // this prints the two timings and never asserts a direction.
    use std::time::Instant;
    println!("\npinned vs unpinned drainers — wall-clock sweep diagnostic (non-gating):");
    for pinned in [false, true] {
        let dispatch = secmod::gate::build_dispatch_kernel_with_clients(
            &ScenarioConfig::builder(ScenarioKind::PlaneDispatch)
                .seed(seed)
                .threads(1)
                .build(),
            PLANE_CLIENTS,
        );
        let incr_func = dispatch.func_ids[1];
        let clients = dispatch.clients.clone();
        let kernel = Arc::new(dispatch.kernel);
        let plane = secmod::kernel::DispatchPlane::start(
            Arc::clone(&kernel),
            secmod::kernel::PlaneConfig::builder()
                .drainers(2)
                .pin_drainers(pinned)
                .build(),
        )
        .expect("start plane");
        let per_producer = 2_048u64;
        let wall0 = Instant::now();
        std::thread::scope(|scope| {
            for &client in &clients {
                let handle = plane.attach(client).expect("attach");
                scope.spawn(move || drive(&[handle], incr_func, per_producer));
            }
        });
        let stats = plane.shutdown();
        let wall = wall0.elapsed();
        println!(
            "  pin_drainers({pinned:>5}): {:>6} entries in {:>10.3?} wall \
             ({:>9.0} entries/sec, {} sweeps)",
            stats.completed,
            wall,
            stats.completed as f64 / wall.as_secs_f64().max(1e-9),
            stats.sweeps
        );
    }

    println!("\nthe p50/p99/p99.9 columns are simulated-cost nanoseconds per drained entry,");
    println!("from the kernel's per-flavor dispatch histograms (secmod_obs): the ring row");
    println!("records at sys_smod_call_batch drain time, the plane row at producer reap time.");
    println!("\npaper mapping: the SecModule call is ~10x cheaper than local RPC because it");
    println!("avoids marshalling and the socket round trip; batching goes after what remains —");
    println!("the fixed syscall-entry and resolution cost per call — by amortising it across");
    println!("a ring of submissions, the way io_uring amortises syscall entry for I/O. The");
    println!("dispatch plane takes the same argument across sessions: one sweep resolves every");
    println!("ready session once, so the trap amortises across *all* clients' rings and the");
    println!("producers themselves never enter the kernel at all.");
}
