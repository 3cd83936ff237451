//! [`AsyncPlane`]: the futures frontend over a
//! [`DispatchPlane`].
//!
//! The plane's drainer threads sweep the ring set and post completions;
//! what the async frontend adds is the **routing**: the drainer that has
//! just posted completions pops the completion ring of every session
//! attached here and hands each response to the waker parked under its
//! `user_data` cookie. Whoever sweeps, routes — the same rule
//! [`crate::SimDriver`] follows on its caller's thread. The division of
//! labor:
//!
//! ```text
//!   task: session.call(..).await
//!     │ park waker in SlotTable, push sq, mark_ready
//!     ▼
//!   drainer: sweep ──▶ kernel ──post cq
//!     then, completion hook on the same thread: pop every attached cq
//!       → route resp to waker → executor re-polls task
//! ```
//!
//! No completion is left behind: every completion is posted by a sweep
//! whose thread fires the hook afterwards (a drainer, or the shutdown
//! thread after the plane's final sweeps). Drainers may route at once;
//! each completion is still popped exactly once.
//!
//! Nobody on the async side busy-spins: tasks suspend (a parked waker
//! costs a table entry, not a thread). The drainers park too, on the
//! plane's readiness handshake — with one bounded exception: when the
//! traffic is a caller who waits for each answer, one drainer polls the
//! readiness bitmap for up to 50 µs before it parks (see
//! `secmod_kernel::plane`, "Idle drainers"). A fan-out of tasks like the
//! one this module exists for is streaming traffic and keeps the
//! drainers in the parking regime, where the park is free batching.
//! That is how 100k+ logical clients ride on a handful of OS threads —
//! the paper's fixed-cost-per-dispatch story measured at a concurrency
//! the original syscall frontend cannot even express.

use crate::route::{route_completions, Route, SlotTable, TableMap};
use crate::session::{AsyncSession, CallFuture, SessionCore, Target};
use parking_lot::Mutex;
use secmod_kernel::plane::{DispatchPlane, PlaneConfig, PlaneStats};
use secmod_kernel::proc::Pid;
use secmod_kernel::{Kernel, SysResult};
use secmod_obs::DispatchMetrics;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The async dispatch frontend: a [`DispatchPlane`] whose drainers route
/// the completions they post to the wakers of the tasks awaiting them.
pub struct AsyncPlane {
    /// `None` only after [`AsyncPlane::shutdown`] has taken it.
    plane: Option<DispatchPlane>,
    tables: Arc<TableMap>,
    routed: Arc<AtomicU64>,
    /// The kernel's dispatch-metrics registry: routing records each
    /// completion's cost under the async flavor, and sessions count
    /// their backpressure re-submits here.
    metrics: Arc<DispatchMetrics>,
    /// Per-client session cache backing [`AsyncPlane::call`]; cleared at
    /// shutdown.
    sessions: Mutex<HashMap<u32, AsyncSession>>,
}

impl std::fmt::Debug for AsyncPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncPlane")
            .field("routed", &self.routed.load(Ordering::Relaxed))
            .field("attached_tables", &self.tables.lock().len())
            .finish()
    }
}

impl AsyncPlane {
    /// Start the underlying plane with completion routing on its drainers.
    pub fn start(kernel: Arc<Kernel>, cfg: PlaneConfig) -> SysResult<AsyncPlane> {
        let metrics = Arc::clone(&kernel.metrics);
        let plane = DispatchPlane::start(kernel, cfg)?;
        let tables: Arc<TableMap> = Arc::new(Mutex::new(BTreeMap::new()));
        let routed = Arc::new(AtomicU64::new(0));
        // The hook runs on whichever drainer just posted completions (and
        // once more on the shutdown thread, after the last sweep).
        {
            let tables = Arc::clone(&tables);
            let routed = Arc::clone(&routed);
            let metrics = Arc::clone(&metrics);
            let registered = plane.on_completions(Arc::new(move || {
                route_completions(&tables, &metrics, Some(&routed));
            }));
            debug_assert!(registered, "a fresh plane has no completion hook");
        }
        Ok(AsyncPlane {
            plane: Some(plane),
            tables,
            routed,
            metrics,
            sessions: Mutex::new(HashMap::new()),
        })
    }

    /// Attach `client`'s established session, returning a cloneable
    /// async handle. Each call allocates its own ring slot; prefer
    /// [`AsyncPlane::call`] (which caches one attachment per client)
    /// unless you want several independent ring pairs for one client.
    pub fn attach(&self, client: Pid) -> SysResult<AsyncSession> {
        let plane = self.plane.as_ref().expect("plane not shut down");
        let handle = plane.attach(client)?;
        let table = Arc::new(SlotTable::default());
        let route = Route {
            rings: Arc::clone(handle.rings()),
            table: Arc::clone(&table),
        };
        self.tables.lock().insert(handle.slot().0, route);
        Ok(AsyncSession {
            core: Arc::new(SessionCore {
                target: Target::Plane(handle),
                table,
                tables: Arc::clone(&self.tables),
                metrics: Some(Arc::clone(&self.metrics)),
            }),
        })
    }

    /// The cached session for `client`, attaching on first use.
    pub fn session(&self, client: Pid) -> SysResult<AsyncSession> {
        if let Some(session) = self.sessions.lock().get(&client.0) {
            return Ok(session.clone());
        }
        let session = self.attach(client)?;
        Ok(self
            .sessions
            .lock()
            .entry(client.0)
            .or_insert(session)
            .clone())
    }

    /// The headline call: `plane.call(client, proc_id, args)?.await`.
    pub fn call(
        &self,
        client: Pid,
        proc_id: u32,
        args: impl Into<Vec<u8>>,
    ) -> SysResult<CallFuture> {
        Ok(self.session(client)?.call(proc_id, args))
    }

    /// Completions routed to wakers so far.
    pub fn routed(&self) -> u64 {
        self.routed.load(Ordering::Relaxed)
    }

    /// Stop everything, in dependency order: the plane first (every
    /// accepted submission is swept through and posted, and its final
    /// completion hook routes those responses), then the tables detach
    /// (anything still parked resolves `Detached`).
    pub fn shutdown(mut self) -> PlaneStats {
        self.stop_parts().expect("shutdown consumes a live plane")
    }

    fn stop_parts(&mut self) -> Option<PlaneStats> {
        let plane = self.plane.take()?;
        let stats = plane.shutdown();
        for route in self.tables.lock().values() {
            route.table.detach();
        }
        self.sessions.lock().clear();
        Some(stats)
    }
}

impl Drop for AsyncPlane {
    fn drop(&mut self) {
        self.stop_parts();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{block_on, join_all, Executor};
    use crate::testutil::kernel_with_clients;
    use secmod_kernel::dispatch::DispatchError;
    use secmod_kernel::Errno;
    use std::future::Future;
    use std::pin::Pin;
    use std::task::{Context, Wake, Waker};

    #[test]
    fn each_entry_is_counted_exactly_once() {
        // One kernel behind every entry point: the dispatch histograms
        // partition the entries the gate decided, and the async overlay
        // counts each routed completion once.
        use secmod_kernel::smod::SmodCallArgs;
        use secmod_kernel::Credential;
        use secmod_obs::Flavor;
        use secmod_ring::{RingPairConfig, RingSet, SmodCallReq};
        const CALLS: u64 = 12;
        let (k, m_id, clients, incr) = kernel_with_clients(5);
        let kernel = Arc::new(k);
        let req = |session: u32, i: u64| SmodCallReq {
            session,
            proc_id: incr,
            user_data: i,
            args: i.to_le_bytes().into(),
        };
        let session_of = |client: Pid| kernel.session_of(client).unwrap().id.0;

        for i in 0..CALLS {
            let call = SmodCallArgs {
                m_id,
                func_id: incr,
                frame_pointer: 0,
                return_address: 0,
                args: i.to_le_bytes().to_vec(),
            };
            kernel.sys_smod_call(clients[0], call).unwrap();
        }

        let (sq, cq) = RingPairConfig::default().build();
        for i in 0..CALLS {
            sq.push(req(session_of(clients[1]), i)).unwrap();
        }
        let batch = kernel
            .sys_smod_call_batch(clients[1], &sq, &cq, 128)
            .unwrap();
        assert_eq!(batch.completed as u64, CALLS);

        let set = RingSet::with_capacity(1);
        let ring = RingPairConfig::default();
        let slot = set
            .register(session_of(clients[2]), clients[2].0, ring)
            .unwrap();
        for i in 0..CALLS {
            set.submit(slot, req(session_of(clients[2]), i)).unwrap();
        }
        let sweeper = kernel
            .spawn_process("sweeper", Credential::root(), vec![0x90; 4096], 2, 2)
            .unwrap();
        let sweep = kernel.sys_smod_sweep(sweeper, &set, 128).unwrap();
        assert_eq!(sweep.completed as u64, CALLS);

        let plane = DispatchPlane::start(Arc::clone(&kernel), PlaneConfig::default()).unwrap();
        let handle = plane.attach(clients[3]).unwrap();
        for i in 0..CALLS {
            handle.submit(incr, i, i.to_le_bytes().to_vec()).unwrap();
        }
        let mut reaped = 0;
        while reaped < CALLS {
            match handle.reap() {
                Some(resp) => {
                    assert!(resp.is_ok());
                    reaped += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        drop(handle);
        plane.shutdown();

        let async_plane = AsyncPlane::start(Arc::clone(&kernel), PlaneConfig::default()).unwrap();
        let session = async_plane.session(clients[4]).unwrap();
        for i in 0..CALLS {
            block_on(session.call(incr, i.to_le_bytes())).unwrap();
        }
        let routed = async_plane.routed();
        async_plane.shutdown();

        let m = &kernel.metrics;
        let count = |flavor| m.latency(flavor).count();
        assert_eq!(count(Flavor::Syscall), CALLS);
        assert_eq!(count(Flavor::Batch), CALLS);
        assert_eq!(count(Flavor::Sweep), CALLS, "only sys_smod_sweep");
        assert_eq!(count(Flavor::Plane), 2 * CALLS, "both planes' drainers");
        let dispatched: u64 = [Flavor::Syscall, Flavor::Batch, Flavor::Sweep, Flavor::Plane]
            .into_iter()
            .map(count)
            .sum();
        assert_eq!(dispatched, m.gate_hits.get() + m.gate_misses.get());
        assert_eq!(routed, CALLS);
        assert_eq!(count(Flavor::Async), routed);
    }

    #[test]
    fn a_hundred_logical_clients_share_two_executor_threads() {
        // Spread over four sessions, so one drainer's routing pass pops
        // completions the other drainer posted.
        let (k, _m, clients, incr) = kernel_with_clients(4);
        let kernel = Arc::new(k);
        let plane = AsyncPlane::start(
            Arc::clone(&kernel),
            PlaneConfig::builder().drainers(2).build(),
        )
        .unwrap();
        let sessions: Vec<AsyncSession> =
            clients.iter().map(|c| plane.session(*c).unwrap()).collect();
        let exec = Executor::new(2);
        let handles: Vec<_> = (0..100u64)
            .map(|i| {
                let session = sessions[i as usize % sessions.len()].clone();
                exec.spawn(async move {
                    let ret = session.call(incr, i.to_le_bytes()).await.unwrap();
                    u64::from_le_bytes(ret.try_into().unwrap())
                })
            })
            .collect();
        let sum: u64 = handles.into_iter().map(|h| h.join()).sum();
        assert_eq!(sum, (1..=100u64).sum::<u64>());
        assert_eq!(
            plane.routed(),
            100,
            "every completion is routed exactly once, and counted before its wake"
        );
        assert!(sessions.iter().all(|s| s.in_flight() == 0));
        plane.shutdown();
    }

    #[test]
    fn async_dispatcher_matches_the_kernel_flavor() {
        // The same 32 calls — every fifth names an unknown function —
        // through `sys_smod_call_batch` and through awaited futures.
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let client = clients[0];
        let calls: Vec<(u32, Vec<u8>)> = (0..32u64)
            .map(|i| {
                let func = if i % 5 == 0 { u32::MAX } else { incr };
                (func, i.to_le_bytes().to_vec())
            })
            .collect();
        let session = k.session_of(client).unwrap().id.0;
        let (sq, cq) = secmod_ring::RingPairConfig::default().build();
        for (i, (proc_id, args)) in calls.iter().enumerate() {
            sq.push_spsc(secmod_ring::SmodCallReq {
                session,
                proc_id: *proc_id,
                user_data: i as u64,
                args: args.as_slice().into(),
            })
            .unwrap();
        }
        k.sys_smod_call_batch(client, &sq, &cq, 32).unwrap();
        let expected: Vec<_> = std::iter::from_fn(|| cq.pop_spsc())
            .map(DispatchError::from_resp)
            .collect();
        assert_eq!(expected.len(), 32);
        assert_eq!(expected[0], Err(DispatchError::Errno(Errno::ENOENT)));

        let plane = AsyncPlane::start(Arc::new(k), PlaneConfig::default()).unwrap();
        let futures = plane.session(client).unwrap().call_batch(calls);
        assert_eq!(block_on(join_all(futures)), expected);
        assert_eq!(
            block_on(plane.call(client, incr, 41u64.to_le_bytes()).unwrap()).unwrap(),
            42u64.to_le_bytes().to_vec()
        );
        plane.shutdown();
    }

    #[test]
    fn dropping_a_future_mid_await_leaks_nothing() {
        struct NoopWake;
        impl Wake for NoopWake {
            fn wake(self: Arc<Self>) {}
        }
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let kernel = Arc::new(k);
        let plane = AsyncPlane::start(kernel, PlaneConfig::default()).unwrap();
        let session = plane.session(clients[0]).unwrap();
        let waker = Waker::from(Arc::new(NoopWake));
        let mut cx = Context::from_waker(&waker);
        // First poll submits; drop before completion is cancellation.
        // (If the drainer wins the race and the poll is already Ready,
        // the drop is an ordinary one — both paths must leave the table
        // empty.)
        let mut future = session.call(incr, 1u64.to_le_bytes());
        let _ = Pin::new(&mut future).poll(&mut cx);
        drop(future);
        // The orphaned completion (if any) is discarded by the router;
        // nothing stays registered and the session keeps working.
        let ret = block_on(session.call(incr, 9u64.to_le_bytes())).unwrap();
        assert_eq!(ret, 10u64.to_le_bytes().to_vec());
        assert_eq!(session.in_flight(), 0);
        plane.shutdown();
    }

    #[test]
    fn call_costed_surfaces_the_simulated_cost() {
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let kernel = Arc::new(k);
        let plane = AsyncPlane::start(Arc::clone(&kernel), PlaneConfig::default()).unwrap();
        let session = plane.session(clients[0]).unwrap();
        let (ret, cost_ns) = block_on(session.call_costed(incr, 5u64.to_le_bytes())).unwrap();
        assert_eq!(ret, 6u64.to_le_bytes().to_vec());
        assert!(
            cost_ns >= kernel.cost.cached_decision_ns,
            "the cost covers at least the policy decision, got {cost_ns}"
        );
        // Routing recorded the completion under the async flavor.
        let summary = kernel.metrics.latency(secmod_obs::Flavor::Async);
        assert!(summary.count() >= 1);
        plane.shutdown();
    }

    #[test]
    fn call_batch_resolves_every_call_with_one_doorbell() {
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let kernel = Arc::new(k);
        let plane = AsyncPlane::start(Arc::clone(&kernel), PlaneConfig::default()).unwrap();
        let session = plane.session(clients[0]).unwrap();
        let futures = session.call_batch((0..32u64).map(|i| (incr, i.to_le_bytes().to_vec())));
        assert_eq!(futures.len(), 32);
        let results = block_on(join_all(futures));
        for (i, result) in results.into_iter().enumerate() {
            assert_eq!(result.unwrap(), (i as u64 + 1).to_le_bytes().to_vec());
        }
        assert_eq!(session.in_flight(), 0);
        plane.shutdown();
    }

    #[test]
    fn call_batch_bounces_retry_through_the_poll_path() {
        // A 4-deep submission ring: most of a 32-call burst bounces at
        // batch time and must still resolve via first-poll resubmission.
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let kernel = Arc::new(k);
        let plane = AsyncPlane::start(
            Arc::clone(&kernel),
            PlaneConfig {
                ring: secmod_ring::RingPairConfig {
                    submission: 4,
                    completion: 64,
                },
                ..PlaneConfig::default()
            },
        )
        .unwrap();
        let session = plane.session(clients[0]).unwrap();
        let futures = session.call_batch((0..32u64).map(|i| (incr, i.to_le_bytes().to_vec())));
        let results = block_on(join_all(futures));
        for (i, result) in results.into_iter().enumerate() {
            assert_eq!(result.unwrap(), (i as u64 + 1).to_le_bytes().to_vec());
        }
        assert!(
            kernel.metrics.async_resubmits.get() > 0,
            "a 4-deep ring must have bounced part of the burst"
        );
        plane.shutdown();
    }

    #[test]
    fn a_bounced_call_is_not_left_waiting_for_a_wake_already_sent() {
        // A 2-slot submission ring under 32 concurrent callers: nearly
        // every call bounces `Full` at least once. A bounce whose waiter
        // registration lands after the drainer emptied the ring and woke
        // the (still empty) waiter list must retry, not wait for a wake
        // that was already sent; each round is joined with a timeout, so
        // a lost wakeup fails here instead of hanging.
        const WIDTH: u64 = 32;
        const ROUNDS: u64 = 5_000;
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let plane = AsyncPlane::start(
            Arc::new(k),
            PlaneConfig::builder()
                .drainers(1)
                .ring(secmod_ring::RingPairConfig {
                    submission: 1,
                    completion: 64,
                })
                .build(),
        )
        .unwrap();
        let session = plane.session(clients[0]).unwrap();
        let exec = Executor::new(2);
        let (tx, rx) = std::sync::mpsc::channel();
        for round in 0..ROUNDS {
            for i in 0..WIDTH {
                let (session, tx) = (session.clone(), tx.clone());
                exec.spawn(async move {
                    let _ = tx.send(session.call(incr, i.to_le_bytes()).await);
                });
            }
            for _ in 0..WIDTH {
                let ret = rx
                    .recv_timeout(std::time::Duration::from_secs(3))
                    .unwrap_or_else(|_| panic!("round {round}: a bounced call was never woken"));
                assert!(ret.is_ok());
            }
        }
        drop(exec);
        plane.shutdown();
    }

    #[test]
    fn calls_on_a_detached_session_resolve_eidrm() {
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let kernel = Arc::new(k);
        let plane = AsyncPlane::start(Arc::clone(&kernel), PlaneConfig::default()).unwrap();
        let session = plane.session(clients[0]).unwrap();
        kernel
            .smod_detach(clients[0], "detached before calling")
            .unwrap();
        // Large payloads, so the arena has blocks in flight to give back.
        let futures = (0..8u8).map(|i| session.call(incr, vec![i; 1000]));
        for result in block_on(join_all(futures)) {
            assert_eq!(result, Err(DispatchError::Errno(Errno::EIDRM)));
        }
        assert_eq!(session.in_flight(), 0);
        drop(session);
        plane.shutdown();
        assert_eq!(kernel.metrics.arena.bytes_in_flight.get(), 0);
    }

    #[test]
    fn calls_after_shutdown_resolve_detached() {
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let kernel = Arc::new(k);
        let plane = AsyncPlane::start(kernel, PlaneConfig::default()).unwrap();
        let session = plane.session(clients[0]).unwrap();
        assert!(block_on(session.call(incr, 1u64.to_le_bytes())).is_ok());
        plane.shutdown();
        assert_eq!(
            block_on(session.call(incr, 2u64.to_le_bytes())),
            Err(DispatchError::Detached)
        );
    }
}
