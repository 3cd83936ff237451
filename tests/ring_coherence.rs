//! Batched-dispatch coherence: `sys_smod_call_batch` must be
//! *observationally identical* to N sequential `sys_smod_call`s under the
//! same policy state — same results, same errnos, same order — while
//! charging strictly less simulated time (the amortised fixed cost).
//!
//! Two dispatch kernels are built from the same seed (identical policy,
//! module, sessions); one is driven call-by-call, the other through a
//! submission/completion ring pair. The property test draws arbitrary
//! mixed sequences of allowed, denied, and unknown-function requests.

use proptest::prelude::*;
use proptest::{collection, prop_assert, prop_assert_eq, proptest};
use secmod::world::{build_dispatch_kernel_with_clients, DispatchKernel, WorldConfig};
use secmod_kernel::smod::SmodCallArgs;
use secmod_kernel::Errno;
use secmod_ring::{Ring, SmodCallReq};

fn universe(seed: u64) -> DispatchKernel {
    build_dispatch_kernel_with_clients(&WorldConfig::new(seed), 1)
}

/// Drive `ops` sequentially; returns per-op `(errno, result bytes)`.
fn run_sequential(dispatch: &DispatchKernel, ops: &[(usize, u64)]) -> Vec<(i32, Vec<u8>)> {
    let client = dispatch.clients[0];
    ops.iter()
        .map(|&(func, arg)| {
            // Index past the end models an unknown function id.
            let func_id = if func < dispatch.func_ids.len() {
                dispatch.func_ids[func]
            } else {
                u32::MAX
            };
            match dispatch.kernel.sys_smod_call(
                client,
                SmodCallArgs {
                    m_id: dispatch.module,
                    func_id,
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
}

/// Drive the same ops through one batched drain.
fn run_batched(dispatch: &DispatchKernel, ops: &[(usize, u64)]) -> Vec<(i32, Vec<u8>)> {
    let client = dispatch.clients[0];
    let session = dispatch.kernel.session_of(client).unwrap().id.0;
    let sq = Ring::with_capacity(ops.len().max(1));
    let cq = Ring::with_capacity(ops.len().max(1));
    for (i, &(func, arg)) in ops.iter().enumerate() {
        let proc_id = if func < dispatch.func_ids.len() {
            dispatch.func_ids[func]
        } else {
            u32::MAX
        };
        sq.push_spsc(SmodCallReq {
            session,
            proc_id,
            user_data: i as u64,
            args: arg.to_le_bytes().into(),
        })
        .unwrap();
    }
    let report = dispatch
        .kernel
        .sys_smod_call_batch(client, &sq, &cq, ops.len().max(1))
        .unwrap();
    assert_eq!(report.drained, ops.len());
    assert_eq!(report.sessions_dead, 0);
    let mut out = Vec::with_capacity(ops.len());
    while let Some(resp) = cq.pop_spsc() {
        assert_eq!(resp.user_data as usize, out.len(), "completion reordered");
        out.push((resp.errno, resp.into_ret()));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]
    /// Batched results equal N sequential results under identical policy
    /// state, for ANY mix of allowed / restricted / unknown functions.
    #[test]
    fn batched_equals_sequential(
        seed in 0u64..1_000,
        ops in collection::vec((0usize..6, 0u64..10_000), 1..80),
    ) {
        let sequential_kernel = universe(seed);
        let batched_kernel = universe(seed);
        prop_assert_eq!(&sequential_kernel.func_ids, &batched_kernel.func_ids);

        let t0 = sequential_kernel.kernel.clock.now_ns();
        let sequential = run_sequential(&sequential_kernel, &ops);
        let sequential_ns = sequential_kernel.kernel.clock.now_ns() - t0;

        let t0 = batched_kernel.kernel.clock.now_ns();
        let batched = run_batched(&batched_kernel, &ops);
        let batched_ns = batched_kernel.kernel.clock.now_ns() - t0;

        prop_assert_eq!(sequential, batched, "batched dispatch diverged");
        // Batching never costs *more* simulated time than the same calls
        // made one by one, modulo the batch syscall's own single trap:
        // `sys_smod_call`'s validation-error paths charge nothing at all,
        // so a batch of only unknown-function entries pays its one trap
        // against a sequential cost of zero.
        let trap = batched_kernel.kernel.cost.syscall_trap_ns;
        prop_assert!(
            batched_ns <= sequential_ns + trap,
            "batched {} ns vs sequential {} ns (+{} trap) for {} ops",
            batched_ns, sequential_ns, trap, ops.len()
        );
    }
}

/// The denied slice behaves identically too: a batch that is 100%
/// restricted completes every entry with EACCES and charges only
/// policy+fixed costs.
#[test]
fn all_denied_batch_is_all_eacces() {
    let dispatch = universe(99);
    let ops: Vec<(usize, u64)> = (0..20).map(|i| (0usize, i as u64)).collect(); // func 0 = "restricted"
    let batched = run_batched(&dispatch, &ops);
    assert_eq!(batched.len(), 20);
    for (errno, ret) in batched {
        assert_eq!(errno, Errno::EACCES.code());
        assert!(ret.is_empty());
    }
}
