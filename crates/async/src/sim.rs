//! [`SimDriver`]: the async frontend on the simulated clock — no OS
//! threads, no wall time, fully deterministic.
//!
//! Where [`crate::AsyncPlane`]'s drainer threads sweep and then route
//! what they posted, the sim driver does both on its caller's thread: each
//! [`SimDriver::run`] round polls every unfinished future (submissions
//! land in the rings), performs one `sys_smod_sweep` as its dedicated
//! drainer process (costs accrue to the simulated clock, exactly like
//! every other simulated dispatch flavor), then routes the posted
//! completions back into the futures' tables. Poll order, sweep order
//! and routing order are all fixed, so a seeded workload produces the
//! same interleaving on every run — which is what lets the coherence
//! proptests compare async outcomes against sequential `sys_smod_call`
//! byte for byte.

use crate::route::{route_completions, Route, TableMap};
use crate::session::{AsyncSession, SessionCore, Target};
use crate::SlotTable;
use parking_lot::Mutex;
use secmod_kernel::{Credential, Errno, Kernel, Pid, SessionState, SysResult};
use secmod_ring::{ArgArena, RingPairConfig, RingSet};
use std::collections::BTreeMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

/// Rounds `run` tolerates with zero progress (no future completed, no
/// entry drained, no completion routed) before declaring the workload
/// stuck. One idle round is normal (e.g. every future already submitted,
/// sweep pending); several in a row means a future awaits something the
/// rings will never produce.
const STALL_LIMIT: u32 = 4;

/// Argument-arena capacity backing the driver's ring set.
const SIM_ARENA_BYTES: usize = 1 << 20;

/// `run` polls every future each round, so wake notifications carry no
/// information — a no-op waker keeps the loop honest about that.
struct NoopWake;

impl Wake for NoopWake {
    fn wake(self: Arc<Self>) {}
}

/// Deterministic single-threaded async driver over a borrowed kernel.
pub struct SimDriver<'k> {
    kernel: &'k Kernel,
    /// The root process the sweeps are charged to.
    drainer: Pid,
    set: Arc<RingSet>,
    tables: Arc<TableMap>,
    ring: RingPairConfig,
    session_budget: usize,
}

impl<'k> SimDriver<'k> {
    /// Build a driver with its own ring set (`slots` sessions max, each
    /// with `ring`-sized pairs) and a dedicated drainer process;
    /// `session_budget` entries are drained per session per sweep.
    pub fn new(
        kernel: &'k Kernel,
        slots: usize,
        ring: RingPairConfig,
        session_budget: usize,
    ) -> SysResult<SimDriver<'k>> {
        let drainer =
            kernel.spawn_process("sim-drainer", Credential::root(), vec![0x90; 4096], 2, 2)?;
        // Same zero-copy path the live plane uses: large payloads ride a
        // shared arena (1 MiB, quota = whole arena per session) so the sim
        // exercises descriptor dispatch deterministically too.
        let arena = ArgArena::with_metrics(SIM_ARENA_BYTES, Arc::clone(&kernel.metrics.arena));
        Ok(SimDriver {
            kernel,
            drainer,
            set: Arc::new(RingSet::with_arena(slots, arena, SIM_ARENA_BYTES)),
            tables: Arc::new(Mutex::new(BTreeMap::new())),
            ring,
            session_budget: session_budget.max(1),
        })
    }

    /// Attach `client`'s established session (same contract as
    /// [`secmod_kernel::plane::DispatchPlane::attach`]: `EPERM` without a
    /// session, `EINVAL` before the handshake completes, `ENOMEM` when
    /// every slot is taken).
    pub fn attach(&self, client: Pid) -> SysResult<AsyncSession> {
        let session = self.kernel.session_of(client).ok_or(Errno::EPERM)?;
        if session.state() != SessionState::Established {
            return Err(Errno::EINVAL);
        }
        let slot = self
            .set
            .register(session.id.0, client.0, self.ring)
            .ok_or(Errno::ENOMEM)?;
        let rings = self.set.get(slot).expect("freshly registered slot");
        let table = Arc::new(SlotTable::default());
        let route = Route {
            rings: Arc::clone(&rings),
            table: Arc::clone(&table),
        };
        self.tables.lock().insert(slot.0, route);
        Ok(AsyncSession {
            core: Arc::new(SessionCore {
                target: Target::Raw {
                    set: Arc::clone(&self.set),
                    slot,
                    rings,
                },
                table,
                tables: Arc::clone(&self.tables),
                metrics: Some(Arc::clone(&self.kernel.metrics)),
            }),
        })
    }

    /// The driver's ring set (for tests asserting on slot state).
    pub fn ring_set(&self) -> &Arc<RingSet> {
        &self.set
    }

    // surface: one sweep and one route, so a test polling by hand sees what one sweep wakes
    /// One explicit turn of the crank: a single `sys_smod_sweep` over
    /// every ready session followed by a single routing pass, returning
    /// `(entries drained, completions routed)`.
    ///
    /// [`SimDriver::run`] does this implicitly between poll rounds; the
    /// standalone form exists for tests that poll futures by hand and
    /// need to observe exactly what one sweep wakes.
    ///
    /// # Panics
    ///
    /// Panics if the drainer's sweep fails.
    pub fn pump(&self) -> (usize, usize) {
        let report = self
            .kernel
            .sys_smod_sweep(self.drainer, &self.set, self.session_budget)
            .expect("sim drainer sweep");
        let routed = route_completions(&self.tables, &self.kernel.metrics, None);
        (report.drained, routed)
    }

    /// Drive every future to completion, returning their outputs in
    /// input order.
    ///
    /// # Panics
    ///
    /// Panics if the futures stop making progress (awaiting something
    /// other than this driver's rings) or if the drainer's sweep fails.
    pub fn run<T, F: Future<Output = T>>(&self, futures: impl IntoIterator<Item = F>) -> Vec<T> {
        let mut slots: Vec<Option<Pin<Box<F>>>> =
            futures.into_iter().map(|f| Some(Box::pin(f))).collect();
        let mut outputs: Vec<Option<T>> = slots.iter().map(|_| None).collect();
        let waker = Waker::from(Arc::new(NoopWake));
        let mut cx = Context::from_waker(&waker);
        let mut stalled = 0u32;
        loop {
            let mut completed = 0usize;
            let mut pending = 0usize;
            for i in 0..slots.len() {
                if let Some(future) = slots[i].as_mut() {
                    match future.as_mut().poll(&mut cx) {
                        Poll::Ready(value) => {
                            outputs[i] = Some(value);
                            slots[i] = None;
                            completed += 1;
                        }
                        Poll::Pending => pending += 1,
                    }
                }
            }
            if pending == 0 {
                break;
            }
            let (drained, routed) = self.pump();
            if completed > 0 || drained > 0 || routed > 0 {
                stalled = 0;
            } else {
                stalled += 1;
                assert!(
                    stalled < STALL_LIMIT,
                    "SimDriver stalled: {pending} futures pending with no ring progress"
                );
            }
        }
        outputs
            .into_iter()
            .map(|slot| slot.expect("every future completed"))
            .collect()
    }
}

impl std::fmt::Debug for SimDriver<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimDriver")
            .field("drainer", &self.drainer)
            .field("session_budget", &self.session_budget)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::kernel_with_clients;

    #[test]
    fn interleaved_clients_complete_deterministically() {
        let (k, _m, clients, incr) = kernel_with_clients(3);
        let run_once = || -> Vec<u64> {
            let driver = SimDriver::new(&k, 4, RingPairConfig::default(), 8).unwrap();
            let sessions: Vec<AsyncSession> =
                clients.iter().map(|c| driver.attach(*c).unwrap()).collect();
            let futures: Vec<_> = sessions
                .iter()
                .enumerate()
                .map(|(i, session)| {
                    let session = session.clone();
                    async move {
                        // A dependent chain: each await's result feeds the
                        // next call, so suspension actually interleaves
                        // the three clients within one driver.
                        let mut acc = i as u64;
                        for _ in 0..5 {
                            let ret = session.call(incr, acc.to_le_bytes()).await.unwrap();
                            acc = u64::from_le_bytes(ret.try_into().unwrap());
                        }
                        acc
                    }
                })
                .collect();
            driver.run(futures)
        };
        let first = run_once();
        assert_eq!(first, vec![5, 6, 7]);
        assert_eq!(first, run_once(), "same workload, same interleaving");
    }

    #[test]
    fn tiny_rings_backpressure_resolves_without_spinning() {
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let driver = SimDriver::new(
            &k,
            1,
            RingPairConfig {
                submission: 2,
                completion: 2,
            },
            2,
        )
        .unwrap();
        let session = driver.attach(clients[0]).unwrap();
        // 16 concurrent calls through a 2-deep ring: most bounce `Full`
        // on first poll and must be resumed by routed completions.
        let futures: Vec<_> = (0..16u64)
            .map(|i| {
                let session = session.clone();
                async move {
                    let ret = session.call(incr, i.to_le_bytes()).await.unwrap();
                    u64::from_le_bytes(ret.try_into().unwrap())
                }
            })
            .collect();
        assert_eq!(driver.run(futures), (1..=16u64).collect::<Vec<_>>());
    }

    #[test]
    fn submitted_calls_of_a_detached_session_resolve_eidrm() {
        use secmod_kernel::dispatch::DispatchError;
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let driver = SimDriver::new(&k, 1, RingPairConfig::default(), 8).unwrap();
        let session = driver.attach(clients[0]).unwrap();
        // Large payloads, so the arena has blocks in flight to give back.
        let mut futures: Vec<_> = (0..8u8)
            .map(|i| session.call(incr, vec![i; 1000]))
            .collect();
        let waker = Waker::from(Arc::new(NoopWake));
        let mut cx = Context::from_waker(&waker);
        for future in &mut futures {
            assert!(
                Pin::new(future).poll(&mut cx).is_pending(),
                "queued, not run"
            );
        }
        k.smod_detach(clients[0], "detached with calls queued")
            .unwrap();
        for result in driver.run(futures) {
            assert_eq!(result, Err(DispatchError::Errno(Errno::EIDRM)));
        }
        assert_eq!(session.in_flight(), 0);
        drop(session);
        assert_eq!(k.metrics.arena.bytes_in_flight.get(), 0);
    }

    #[test]
    fn attach_refuses_the_sessions_handle() {
        let (k, _m, clients, _incr) = kernel_with_clients(1);
        let driver = SimDriver::new(&k, 1, RingPairConfig::default(), 4).unwrap();
        let handle = k.session_of(clients[0]).unwrap().handle;
        assert!(matches!(driver.attach(handle), Err(Errno::EPERM)));
        assert!(driver.ring_set().is_empty());
    }

    #[test]
    fn dropped_sessions_free_their_slots() {
        let (k, _m, clients, _incr) = kernel_with_clients(1);
        // Capacity rounds up to one bitmap word (64 slots); attach/drop
        // far more times than that — a leaked slot per cycle would
        // exhaust the set long before 200.
        let driver = SimDriver::new(&k, 1, RingPairConfig::default(), 4).unwrap();
        assert_eq!(driver.ring_set().capacity(), 64);
        for _ in 0..200 {
            let session = driver.attach(clients[0]).unwrap();
            drop(session);
        }
        assert!(
            driver.ring_set().is_empty(),
            "every slot returned to the free list"
        );
        // And a full set really does answer ENOMEM.
        let held: Vec<AsyncSession> = (0..64)
            .map(|_| driver.attach(clients[0]).unwrap())
            .collect();
        assert!(matches!(driver.attach(clients[0]), Err(Errno::ENOMEM)));
        drop(held);
    }
}
