//! Async frontend coherence: N logical clients awaiting their calls on
//! an `AsyncPlane` must observe exactly the results and errnos that the
//! same requests produce through sequential `sys_smod_call` — futures,
//! suspension, backpressure and completion routing may change *when* an
//! answer arrives, never *what* it is.
//!
//! Two dispatch kernels are built from the same seed (identical policy,
//! module, session pool); one is driven call-by-call, the other through
//! the futures frontend with logical clients multiplexed over a small
//! executor. The property test draws an arbitrary per-client mix of
//! allowed, denied, and unknown-function requests.
//!
//! Two deterministic companions pin down the mechanics on the simulated
//! driver: a waker-storm test (one sweep wakes every parked client at
//! once) and a cancellation test (futures dropped mid-await leak neither
//! table entries nor ring slots).

use proptest::prelude::*;
use proptest::{collection, prop_assert_eq, proptest};
use secmod::world::{build_dispatch_kernel_with_clients, DispatchKernel, WorldConfig};
use secmod_async::{AsyncPlane, CallFuture, Executor, SimDriver};
use secmod_kernel::dispatch::DispatchError;
use secmod_kernel::smod::SmodCallArgs;
use secmod_kernel::PlaneConfig;
use secmod_ring::RingPairConfig;
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

const MAX_LOGICAL: usize = 8;
/// Logical clients share this many real kernel sessions.
const SESSIONS: usize = 3;

fn universe(seed: u64, sessions: usize) -> DispatchKernel {
    // One delegated tenant per requested session: the builder caps
    // clients at the tenant count.
    let cfg = WorldConfig {
        tenants: sessions.max(16),
        ..WorldConfig::new(seed)
    };
    build_dispatch_kernel_with_clients(&cfg, sessions)
}

/// Per-logical-client op lists: `plan[c]` is the (func index, arg)
/// sequence client `c` issues in order. Indices past the function table
/// model unknown proc ids.
type Plan = Vec<Vec<(usize, u64)>>;

fn resolve_func(dispatch: &DispatchKernel, func: usize) -> u32 {
    if func < dispatch.func_ids.len() {
        dispatch.func_ids[func]
    } else {
        u32::MAX
    }
}

/// Drive every logical client's ops in order through plain
/// `sys_smod_call`; returns per-client `(errno, result)` lists.
fn run_sequential(dispatch: &DispatchKernel, plan: &Plan) -> Vec<Vec<(i32, Vec<u8>)>> {
    plan.iter()
        .enumerate()
        .map(|(c, ops)| {
            let client = dispatch.clients[c % dispatch.clients.len()];
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

/// Drive the same plan as futures: one task per logical client on a
/// 2-thread executor, all awaiting on one `AsyncPlane`.
fn run_async(dispatch: DispatchKernel, plan: &Plan) -> Vec<Vec<(i32, Vec<u8>)>> {
    let DispatchKernel {
        kernel, clients, ..
    } = dispatch;
    let kernel = Arc::new(kernel);
    let plane = AsyncPlane::start(
        Arc::clone(&kernel),
        PlaneConfig::builder()
            .drainers(1)
            .slots(clients.len())
            .build(),
    )
    .expect("start async plane");
    let exec = Executor::new(2);
    let handles: Vec<_> = plan
        .iter()
        .enumerate()
        .map(|(c, ops)| {
            let session = plane
                .session(clients[c % clients.len()])
                .expect("attach async session");
            let ops = ops.clone();
            exec.spawn(async move {
                let mut out = Vec::with_capacity(ops.len());
                for (proc_id, arg) in ops {
                    match session.call(proc_id as u32, arg.to_le_bytes()).await {
                        Ok(ret) => out.push((0, ret)),
                        Err(DispatchError::Errno(e)) => out.push((e.code(), Vec::new())),
                        Err(e) => panic!("unexpected async outcome: {e}"),
                    }
                }
                out
            })
        })
        .collect();
    let results = handles.into_iter().map(|h| h.join()).collect();
    drop(exec);
    plane.shutdown();
    results
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]
    /// N logical clients awaiting on an `AsyncPlane` produce the same
    /// per-client result/errno sequences as the same requests through
    /// `sys_smod_call` sequentially, for ANY mix of allowed / restricted
    /// / unknown functions — sharing a handful of real sessions and a
    /// 2-thread executor.
    #[test]
    fn async_plane_equals_sequential_syscalls(
        seed in 0u64..1_000,
        raw_plan in collection::vec(
            collection::vec((0usize..6, 0u64..10_000), 0..24),
            1..=MAX_LOGICAL,
        ),
    ) {
        let sessions = raw_plan.len().min(SESSIONS);
        let sequential_kernel = universe(seed, sessions);
        let async_kernel = universe(seed, sessions);
        prop_assert_eq!(&sequential_kernel.func_ids, &async_kernel.func_ids);

        // The async side submits resolved proc ids, so resolve the plan
        // once up front against the (identical) function tables.
        let plan: Plan = raw_plan
            .iter()
            .map(|ops| {
                ops.iter()
                    .map(|&(func, arg)| (resolve_func(&sequential_kernel, func) as usize, arg))
                    .collect()
            })
            .collect();

        let sequential = run_sequential(&sequential_kernel, &raw_plan);
        let concurrent = run_async(async_kernel, &plan);
        prop_assert_eq!(sequential, concurrent, "async dispatch diverged");
    }
}

struct CountWake(AtomicUsize);

impl Wake for CountWake {
    fn wake(self: Arc<Self>) {
        self.0.fetch_add(1, Ordering::AcqRel);
    }
}

/// The waker storm: many clients park on in-flight calls, ONE sweep
/// answers them all, and the single routing pass that follows must wake
/// every one of them — no lost wakeups, no stragglers.
#[test]
fn one_sweep_wakes_every_parked_client() {
    const CLIENTS: usize = 48;
    let dispatch = universe(31, CLIENTS);
    let incr = dispatch.func_ids[1];
    let driver = SimDriver::new(&dispatch.kernel, CLIENTS, RingPairConfig::default(), 1).unwrap();

    let mut futures: Vec<Pin<Box<CallFuture>>> = Vec::with_capacity(CLIENTS);
    let mut wakes: Vec<Arc<CountWake>> = Vec::with_capacity(CLIENTS);
    for (i, client) in dispatch.clients.iter().enumerate() {
        let session = driver.attach(*client).unwrap();
        let mut future = Box::pin(session.call(incr, (i as u64).to_le_bytes()));
        let counter = Arc::new(CountWake(AtomicUsize::new(0)));
        let waker = Waker::from(Arc::clone(&counter));
        let poll = future.as_mut().poll(&mut Context::from_waker(&waker));
        assert!(poll.is_pending(), "client {i} completed before any sweep");
        futures.push(future);
        wakes.push(counter);
        // The session handle may drop here: the future's SessionCore Arc
        // keeps the slot alive until the call resolves.
    }
    assert!(wakes.iter().all(|w| w.0.load(Ordering::Acquire) == 0));

    let (drained, routed) = driver.pump();
    assert_eq!(drained, CLIENTS, "one sweep must drain every session");
    assert_eq!(routed, CLIENTS, "one pass must route every completion");
    for (i, counter) in wakes.iter().enumerate() {
        assert_eq!(
            counter.0.load(Ordering::Acquire),
            1,
            "client {i} was not woken by the storm"
        );
    }
    for (i, mut future) in futures.into_iter().enumerate() {
        let waker = Waker::from(Arc::new(CountWake(AtomicUsize::new(0))));
        match future.as_mut().poll(&mut Context::from_waker(&waker)) {
            Poll::Ready(Ok(ret)) => {
                assert_eq!(u64::from_le_bytes(ret.try_into().unwrap()), i as u64 + 1);
            }
            other => panic!("client {i} not ready after the storm: {other:?}"),
        }
    }
}

/// Futures dropped mid-await must leak nothing: their table entries go
/// with them, their completions are discarded by the router, and once
/// the sessions drop too the ring set is empty again.
#[test]
fn dropping_futures_mid_await_leaks_no_ring_state() {
    let dispatch = universe(17, 1);
    let incr = dispatch.func_ids[1];
    let driver = SimDriver::new(&dispatch.kernel, 1, RingPairConfig::default(), 8).unwrap();
    let session = driver.attach(dispatch.clients[0]).unwrap();

    // Every call carries an oversize block (the value in the first 8
    // bytes, the rest filler), so each pending future holds a live
    // arena slot — cancellation must give those bytes back too.
    let big_arg = |v: u64| {
        let mut block = vec![0xA5u8; 4096];
        block[..8].copy_from_slice(&v.to_le_bytes());
        block
    };

    let noop = Waker::from(Arc::new(CountWake(AtomicUsize::new(0))));
    let mut cx = Context::from_waker(&noop);
    let mut futures: Vec<Pin<Box<CallFuture>>> = (0..8u64)
        .map(|i| {
            let mut future = Box::pin(session.call(incr, big_arg(i)));
            assert!(future.as_mut().poll(&mut cx).is_pending());
            future
        })
        .collect();
    assert_eq!(session.in_flight(), 8);
    let arena = &dispatch.kernel.metrics.arena;
    assert!(
        arena.bytes_in_flight.get() > 0,
        "oversize args must be arena-resident while queued"
    );

    // Cancel every other call while all eight are in the kernel's queue.
    let survivors: Vec<Pin<Box<CallFuture>>> = futures
        .drain(..)
        .enumerate()
        .filter_map(|(i, f)| (i % 2 == 0).then_some(f))
        .collect();
    assert_eq!(session.in_flight(), 4, "drop must remove the table entry");

    // The kernel still answers all eight; the router must deliver four
    // and discard four orphans.
    let (drained, routed) = driver.pump();
    assert_eq!(drained, 8);
    assert_eq!(routed, 8);
    // The four delivered responses sit in the table until their futures
    // poll them out; the four orphans must already be gone.
    assert_eq!(session.in_flight(), 4);

    for (i, mut future) in survivors.into_iter().enumerate() {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(Ok(ret)) => {
                let expect = 2 * i as u64 + 1; // survivors carried even args
                assert_eq!(u64::from_le_bytes(ret.try_into().unwrap()), expect);
            }
            other => panic!("survivor {i} lost its completion: {other:?}"),
        }
    }
    assert_eq!(
        session.in_flight(),
        0,
        "resolved futures must clear the table"
    );

    // A fresh oversize call on the same session still works end to end.
    let value = driver.run(vec![async {
        session.call(incr, big_arg(100)).await.unwrap()
    }]);
    assert_eq!(
        u64::from_le_bytes(value[0].clone().try_into().unwrap()),
        101
    );

    drop(session);
    assert!(
        driver.ring_set().is_empty(),
        "dropped session must free its ring slot"
    );
    // Eight drained requests, four orphaned responses, one follow-up
    // call, one dropped session: every arena slot came back.
    assert_eq!(
        arena.bytes_in_flight.get(),
        0,
        "cancellation or teardown leaked arena bytes"
    );
}
