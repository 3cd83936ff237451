//! Multi-session sweep coherence: one `sys_smod_sweep` over N sessions
//! must be *observationally identical* to driving each session
//! sequentially through `sys_smod_call` — per session the same results,
//! the same errnos, the same order; across sessions no loss and no
//! leakage (every completion lands in its own session's ring, carrying
//! its own session's values) — while charging strictly less simulated
//! time than the per-session batched drains it subsumes.
//!
//! Two dispatch kernels are built from the same seed (identical policy,
//! module, session pool); one is driven call-by-call per session, the
//! other through a `RingSet` and a single sweep. The property test draws
//! an arbitrary per-session mix of allowed, denied, and unknown-function
//! requests — including sessions with no work at all, which must simply
//! not be visited.

use proptest::prelude::*;
use proptest::{collection, prop_assert, prop_assert_eq, proptest};
use secmod::world::{build_dispatch_kernel_with_clients, DispatchKernel, WorldConfig};
use secmod_kernel::smod::SmodCallArgs;
use secmod_ring::{RingPairConfig, RingSet, RingSlotId, SmodCallReq};

const MAX_SESSIONS: usize = 6;

fn universe(seed: u64, sessions: usize) -> DispatchKernel {
    build_dispatch_kernel_with_clients(&WorldConfig::new(seed), sessions)
}

/// Per-session op lists: `plan[s]` is the (func index, arg) sequence
/// session `s` submits. Func indices past the table model unknown ids.
type Plan = Vec<Vec<(usize, u64)>>;

fn resolve_func(dispatch: &DispatchKernel, func: usize) -> u32 {
    if func < dispatch.func_ids.len() {
        dispatch.func_ids[func]
    } else {
        u32::MAX
    }
}

/// Drive every session sequentially; returns per-session `(errno,
/// result)` lists.
fn run_sequential(dispatch: &DispatchKernel, plan: &Plan) -> Vec<Vec<(i32, Vec<u8>)>> {
    plan.iter()
        .enumerate()
        .map(|(s, ops)| {
            let client = dispatch.clients[s];
            ops.iter()
                .map(|&(func, arg)| {
                    match dispatch.kernel.sys_smod_call(
                        client,
                        SmodCallArgs {
                            m_id: dispatch.module,
                            func_id: resolve_func(dispatch, func),
                            frame_pointer: 0,
                            return_address: 0,
                            args: arg.to_le_bytes().to_vec(),
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

/// Drive the same plan through one multi-session sweep. `user_data`
/// tags every submission with `(session << 32) | index` so any
/// cross-session leakage is caught by the cookie, not just the payload.
fn run_swept(dispatch: &DispatchKernel, plan: &Plan) -> Vec<Vec<(i32, Vec<u8>)>> {
    let set = RingSet::with_capacity(plan.len().max(1));
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
        for (i, &(func, arg)) in ops.iter().enumerate() {
            set.submit(
                slot,
                SmodCallReq {
                    session,
                    proc_id: resolve_func(dispatch, func),
                    user_data: ((s as u64) << 32) | i as u64,
                    args: arg.to_le_bytes().into(),
                },
            )
            .unwrap();
        }
        slots.push(Some(slot));
    }
    let drainer = dispatch
        .kernel
        .spawn_process(
            "coherence-drainer",
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
    assert_eq!(report.sessions_dead, 0);

    plan.iter()
        .zip(&slots)
        .enumerate()
        .map(|(s, (ops, slot))| {
            let slot = match slot {
                Some(slot) => *slot,
                None => return Vec::new(),
            };
            let rings = set.get(slot).unwrap();
            let mut out = Vec::with_capacity(ops.len());
            while let Some(resp) = rings.cq.pop_spsc() {
                assert_eq!(
                    (resp.user_data >> 32) as usize,
                    s,
                    "session {s} reaped another session's completion"
                );
                assert_eq!(
                    (resp.user_data & 0xFFFF_FFFF) as usize,
                    out.len(),
                    "session {s} completions reordered"
                );
                out.push((resp.errno, resp.into_ret()));
            }
            out
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// One sweep over N sessions equals N sequential per-session runs
    /// under identical policy state — no loss, no duplication, no
    /// cross-session leakage — for ANY per-session mix of allowed /
    /// restricted / unknown functions, at no more simulated cost than
    /// the per-session batched drains plus nothing.
    #[test]
    fn sweep_equals_per_session_sequential(
        seed in 0u64..1_000,
        plan in collection::vec(
            collection::vec((0usize..6, 0u64..10_000), 0..40),
            1..=MAX_SESSIONS,
        ),
    ) {
        let sequential_kernel = universe(seed, plan.len());
        let swept_kernel = universe(seed, plan.len());
        prop_assert_eq!(&sequential_kernel.func_ids, &swept_kernel.func_ids);

        let t0 = sequential_kernel.kernel.clock.now_ns();
        let sequential = run_sequential(&sequential_kernel, &plan);
        let sequential_ns = sequential_kernel.kernel.clock.now_ns() - t0;

        let t0 = swept_kernel.kernel.clock.now_ns();
        let swept = run_swept(&swept_kernel, &plan);
        let swept_ns = swept_kernel.kernel.clock.now_ns() - t0;

        prop_assert_eq!(sequential, swept, "swept dispatch diverged");
        // One sweep never costs more simulated time than the same calls
        // made one by one, modulo its own single trap (a plan made
        // entirely of unknown-function entries pays one trap against a
        // sequential cost of zero).
        let trap = swept_kernel.kernel.cost.syscall_trap_ns;
        prop_assert!(
            swept_ns <= sequential_ns + trap,
            "swept {} ns vs sequential {} ns (+{} trap)",
            swept_ns, sequential_ns, trap
        );
    }
}

/// Sessions with identical workloads stay fully isolated: every
/// completion ring holds exactly its own session's answers (the incr
/// body returns arg+1, and each session uses a disjoint arg range).
#[test]
fn identical_workloads_do_not_cross_pollinate() {
    let dispatch = universe(7, 4);
    let plan: Plan = (0..4)
        .map(|s| (0..24).map(|i| (1usize, (1000 * s + i) as u64)).collect())
        .collect();
    let swept = run_swept(&dispatch, &plan);
    for (s, per_session) in swept.iter().enumerate() {
        assert_eq!(per_session.len(), 24);
        for (i, (errno, ret)) in per_session.iter().enumerate() {
            assert_eq!(*errno, 0);
            assert_eq!(
                u64::from_le_bytes(ret.clone().try_into().unwrap()),
                (1000 * s + i) as u64 + 1,
                "session {s} entry {i} carries a foreign result"
            );
        }
    }
}
