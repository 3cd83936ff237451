//! [`AsyncSession`] and [`CallFuture`]: `session.call(proc_id,
//! args).await` as a plain `std::future::Future`.
//!
//! A session object is cheap to clone and share — *that* is the
//! multiplexing point: any number of logical clients (tasks) can issue
//! calls on one attached session concurrently, each distinguished by a
//! per-session `user_data` cookie allocated at submission. The future
//! drives the whole life cycle from its `poll`:
//!
//! 1. **Unsubmitted** — allocate the cookie, park the waker in the
//!    session's [`SlotTable`], copy the arguments from the future's own
//!    buffer into the submission ring, and return `Pending` straight
//!    after the push: the waker parked first is the one a completion
//!    routed at any later moment wakes. A `Full` bounce parks the task on
//!    the table's backpressure list instead of spinning (the paper's
//!    fixed-cost argument in async clothing: a stalled producer must cost
//!    a suspended task, not a burning core).
//! 2. **Submitted** — woken, take the response the router delivered
//!    into the table entry, or re-park the waker if it has not come yet.
//! 3. **Done** — the entry is removed; the outcome is the
//!    [`DispatchOutcome`] its completion maps to.
//!
//! Dropping the future at any point removes its table entry: an
//! already-submitted request still executes (the kernel has it), but its
//! completion is discarded by the router — cancellation without leaks.

use crate::route::{SlotTable, TableMap};
use secmod_kernel::dispatch::{DispatchError, DispatchOutcome};
use secmod_kernel::plane::PlaneHandle;
use secmod_kernel::proc::Pid;
use secmod_obs::DispatchMetrics;
use secmod_ring::{
    ArgRef, RingSet, RingSlotId, SessionRings, SmodCallReq, SmodCallResp, SubmitError,
};
use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::task::{Context, Poll};

/// Where a session's submissions go: through a live plane (drainer
/// threads do the sweeping) or straight into a raw ring set (the sim
/// driver pumps sweeps itself).
pub(crate) enum Target {
    /// Attached to a [`secmod_kernel::plane::DispatchPlane`].
    Plane(PlaneHandle),
    /// Registered directly in a ring set the driver owns.
    Raw {
        set: Arc<RingSet>,
        slot: RingSlotId,
        rings: Arc<SessionRings>,
    },
}

/// Why a submit did not land (the bounced request itself is dropped,
/// which frees any arena slot it held, so a retry re-places cleanly).
enum Refused {
    /// The submission ring is full; space reappears as entries complete.
    Full,
    /// The slot or the plane is gone; no retry will ever land.
    Detached,
}

impl Target {
    /// Copy `args` straight from the caller's buffer into the ring entry
    /// (or the arena, when large): the future keeps its own bytes for a
    /// retry, so a bounce costs no copy it would not pay anyway.
    fn submit(&self, proc_id: u32, user_data: u64, args: &[u8]) -> Result<(), Refused> {
        match self {
            // A one-entry `submit_many` does the inline-vs-arena placement
            // and rings the doorbell.
            Target::Plane(handle) => match handle.submit_many(&[(proc_id, user_data, args)]) {
                Ok(0) => Err(Refused::Full),
                Ok(_) => Ok(()),
                Err(_) => Err(Refused::Detached),
            },
            Target::Raw { set, slot, rings } => set
                .submit(
                    *slot,
                    SmodCallReq {
                        session: rings.session,
                        proc_id,
                        user_data,
                        args: ArgRef::place(args, rings.arena.as_ref()),
                    },
                )
                .map_err(|err| match err {
                    SubmitError::Full(_) => Refused::Full,
                    SubmitError::Detached(_) => Refused::Detached,
                }),
        }
    }

    pub(crate) fn rings(&self) -> &Arc<SessionRings> {
        match self {
            Target::Plane(handle) => handle.rings(),
            Target::Raw { rings, .. } => rings,
        }
    }

    pub(crate) fn slot(&self) -> RingSlotId {
        match self {
            Target::Plane(handle) => handle.slot(),
            Target::Raw { slot, .. } => *slot,
        }
    }
}

/// Shared guts of an attached async session. Lives as long as the last
/// session clone *or in-flight future* referencing it.
pub(crate) struct SessionCore {
    pub(crate) target: Target,
    pub(crate) table: Arc<SlotTable>,
    /// The owning frontend's slot→table registry, so teardown is
    /// self-service: dropping the last reference unhooks the table.
    pub(crate) tables: Arc<TableMap>,
    /// The kernel's dispatch-metrics registry (backpressure re-submits
    /// are counted here); `None` keeps hand-built test fixtures cheap.
    pub(crate) metrics: Option<Arc<DispatchMetrics>>,
}

impl Drop for SessionCore {
    fn drop(&mut self) {
        self.tables.lock().remove(&self.target.slot().0);
        if let Target::Raw { set, slot, .. } = &self.target {
            set.deregister(*slot);
        }
        // Plane targets deregister via PlaneHandle's own Drop.
    }
}

/// A client's asynchronous attachment: clone it into as many logical
/// clients as you like; every clone submits into the same session ring
/// pair and completions route back by cookie.
#[derive(Clone)]
pub struct AsyncSession {
    pub(crate) core: Arc<SessionCore>,
}

impl std::fmt::Debug for AsyncSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AsyncSession")
            .field("slot", &self.core.target.slot())
            .field("in_flight", &self.core.table.in_flight())
            .finish()
    }
}

impl AsyncSession {
    /// Issue one call; `.await` the returned future for its outcome.
    pub fn call(&self, proc_id: u32, args: impl Into<Vec<u8>>) -> CallFuture {
        CallFuture {
            inner: self.call_inner(proc_id, args.into()),
        }
    }

    /// Issue one call, resolving to `(return bytes, simulated cost in
    /// nanoseconds)` — the same `cost_ns` every synchronous flavor
    /// surfaces through [`secmod_ring::SmodCallResp`], which the plain
    /// [`AsyncSession::call`] discards.
    pub fn call_costed(&self, proc_id: u32, args: impl Into<Vec<u8>>) -> CostedCallFuture {
        CostedCallFuture {
            inner: self.call_inner(proc_id, args.into()),
        }
    }

    fn call_inner(&self, proc_id: u32, args: Vec<u8>) -> CallInner {
        CallInner {
            core: Arc::clone(&self.core),
            state: CallState::Unsubmitted {
                proc_id,
                args,
                user_data: None,
            },
        }
    }

    /// Issue a burst of calls with one doorbell: on a plane-backed
    /// session every accepted entry is pushed eagerly through a
    /// [`secmod_kernel::plane::SubmitBatch`], so the drainers see one
    /// readiness flag and at most one unpark for the whole burst instead
    /// of one per call. Entries that bounce off a full submission ring
    /// come back as ordinary unsubmitted futures — their first poll
    /// retries through the standard backpressure path (counted in
    /// `async_resubmits`), so awaiting the returned futures always
    /// resolves every call.
    ///
    /// Raw (driver-pumped) sessions have no parked drainer to coalesce
    /// wakeups for; they take the per-call path unchanged.
    pub fn call_batch<I>(&self, calls: I) -> Vec<CallFuture>
    where
        I: IntoIterator<Item = (u32, Vec<u8>)>,
    {
        let Target::Plane(handle) = &self.core.target else {
            return calls
                .into_iter()
                .map(|(proc_id, args)| self.call(proc_id, args))
                .collect();
        };
        let mut futures = Vec::new();
        let mut batch = handle.batch();
        for (proc_id, args) in calls {
            let ud = self.core.target.rings().alloc_user_data();
            // Register the cookie before submitting so a completion
            // racing this loop has somewhere to land; the waker is
            // parked by the first poll.
            self.core.table.pending.lock().entry(ud).or_default();
            let state = match batch.push(proc_id, ud, args) {
                Ok(()) => CallState::Submitted { user_data: ud },
                // Bounced (the guard flushed the prefix) or the plane is
                // stopping: take the arguments back out of the refused
                // request and hand the poll path an unsubmitted future
                // with the cookie pinned — it retries or resolves
                // `Detached`.
                Err(err) => {
                    if err.is_full() {
                        if let Some(metrics) = &self.core.metrics {
                            metrics.async_resubmits.incr();
                        }
                    }
                    CallState::Unsubmitted {
                        proc_id,
                        args: err.into_req().args.into_vec(),
                        user_data: Some(ud),
                    }
                }
            };
            futures.push(CallFuture {
                inner: CallInner {
                    core: Arc::clone(&self.core),
                    state,
                },
            });
        }
        batch.flush();
        futures
    }

    /// The client pid this session dispatches as.
    pub fn client(&self) -> Pid {
        Pid(self.core.target.rings().owner)
    }

    /// Calls currently awaiting completion on this session.
    pub fn in_flight(&self) -> usize {
        self.core.table.in_flight()
    }
}

enum CallState {
    Unsubmitted {
        proc_id: u32,
        args: Vec<u8>,
        /// Set once the cookie (and its table entry) exists — i.e. after
        /// the first poll, even if the submit itself keeps bouncing.
        user_data: Option<u64>,
    },
    Submitted {
        user_data: u64,
    },
    Done,
}

/// The shared call state machine: both public futures drive this to a
/// raw [`SmodCallResp`] and differ only in how they project the result.
struct CallInner {
    core: Arc<SessionCore>,
    state: CallState,
}

impl CallInner {
    fn poll_resp(&mut self, cx: &mut Context<'_>) -> Poll<Result<SmodCallResp, DispatchError>> {
        loop {
            match &mut self.state {
                CallState::Unsubmitted {
                    proc_id,
                    args,
                    user_data,
                } => {
                    let table = &self.core.table;
                    if table.detached.load(Ordering::Acquire) {
                        if let Some(ud) = user_data {
                            table.pending.lock().remove(ud);
                        }
                        self.state = CallState::Done;
                        return Poll::Ready(Err(DispatchError::Detached));
                    }
                    let ud = *user_data
                        .get_or_insert_with(|| self.core.target.rings().alloc_user_data());
                    // Park the waker *before* submitting: a completion
                    // racing this poll finds somewhere to deliver.
                    table.pending.lock().entry(ud).or_default().waker = Some(cx.waker().clone());
                    match self.core.target.submit(*proc_id, ud, args) {
                        Ok(()) => {
                            // The waker parked above is this poll's one
                            // registration: a completion routed from here
                            // on finds it and wakes the task, and the
                            // next poll takes the response.
                            self.state = CallState::Submitted { user_data: ud };
                            return Poll::Pending;
                        }
                        Err(Refused::Full) => {
                            // Backpressure: suspend until the router sees
                            // a completion on this session (which implies
                            // submission-ring space reappeared). Each
                            // bounce is one deferred re-submit.
                            if let Some(metrics) = &self.core.metrics {
                                metrics.async_resubmits.incr();
                            }
                            table.submit_waiters.lock().push(cx.waker().clone());
                            // A drainer may have emptied the ring and woken
                            // the waiters between the bounce and the push
                            // above: with room now, retry instead of waiting
                            // for a wake that was already sent.
                            let sq = &self.core.target.rings().sq;
                            if sq.len() < sq.capacity() {
                                continue;
                            }
                            return Poll::Pending;
                        }
                        Err(Refused::Detached) => {
                            table.pending.lock().remove(&ud);
                            self.state = CallState::Done;
                            return Poll::Ready(Err(DispatchError::Detached));
                        }
                    }
                }
                CallState::Submitted { user_data } => {
                    let ud = *user_data;
                    let table = &self.core.table;
                    let mut pending = table.pending.lock();
                    let Some(entry) = pending.get_mut(&ud) else {
                        // Entry vanished without us removing it — only
                        // teardown does that.
                        drop(pending);
                        self.state = CallState::Done;
                        return Poll::Ready(Err(DispatchError::Detached));
                    };
                    if let Some(resp) = entry.resp.take() {
                        pending.remove(&ud);
                        drop(pending);
                        self.state = CallState::Done;
                        return Poll::Ready(Ok(resp));
                    }
                    if table.detached.load(Ordering::Acquire) {
                        // Shut down with the response never routed: the
                        // call is lost to teardown.
                        pending.remove(&ud);
                        drop(pending);
                        self.state = CallState::Done;
                        return Poll::Ready(Err(DispatchError::Detached));
                    }
                    entry.waker = Some(cx.waker().clone());
                    return Poll::Pending;
                }
                CallState::Done => panic!("call future polled after completion"),
            }
        }
    }
}

impl Drop for CallInner {
    fn drop(&mut self) {
        let user_data = match &self.state {
            CallState::Unsubmitted { user_data, .. } => *user_data,
            CallState::Submitted { user_data } => Some(*user_data),
            CallState::Done => None,
        };
        if let Some(ud) = user_data {
            // Cancelled mid-await: unregister the cookie so the router
            // discards the completion instead of leaking the entry.
            self.core.table.pending.lock().remove(&ud);
        }
    }
}

/// One in-flight `call`; resolves to the unified [`DispatchOutcome`].
///
/// Cancellation-safe: dropping it mid-await unregisters the cookie, and
/// the router discards the orphaned completion when it arrives.
pub struct CallFuture {
    inner: CallInner,
}

impl Future for CallFuture {
    type Output = DispatchOutcome;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<DispatchOutcome> {
        // No self-references: plain field access is fine.
        match self.get_mut().inner.poll_resp(cx) {
            Poll::Ready(Ok(resp)) => Poll::Ready(DispatchError::from_resp(resp)),
            Poll::Ready(Err(e)) => Poll::Ready(Err(e)),
            Poll::Pending => Poll::Pending,
        }
    }
}

/// One in-flight [`AsyncSession::call_costed`]; resolves to the return
/// bytes *and* the call's simulated `cost_ns`. Cancellation-safe exactly
/// like [`CallFuture`].
pub struct CostedCallFuture {
    inner: CallInner,
}

impl Future for CostedCallFuture {
    type Output = Result<(Vec<u8>, u64), DispatchError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        match self.get_mut().inner.poll_resp(cx) {
            Poll::Ready(Ok(resp)) => {
                let cost_ns = resp.cost_ns;
                Poll::Ready(DispatchError::from_resp(resp).map(|ret| (ret, cost_ns)))
            }
            Poll::Ready(Err(e)) => Poll::Ready(Err(e)),
            Poll::Pending => Poll::Pending,
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::testutil::kernel_with_clients;
    use crate::SimDriver;
    use secmod_ring::RingPairConfig;
    use std::future::Future;
    use std::pin::Pin;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::task::{Context, Poll, Wake, Waker};

    struct CountWake(AtomicUsize);

    impl Wake for CountWake {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::AcqRel);
        }
    }

    #[test]
    fn the_first_poll_submits_and_parks_the_one_waker_a_route_wakes() {
        let (k, _m, clients, incr) = kernel_with_clients(1);
        let driver = SimDriver::new(&k, 1, RingPairConfig::default(), 8).unwrap();
        let session = driver.attach(clients[0]).unwrap();
        // An inline payload and one large enough to ride the arena.
        for len in [8, 1000] {
            let mut args = 41u64.to_le_bytes().to_vec();
            args.resize(len, 0);
            let wakes = Arc::new(CountWake(AtomicUsize::new(0)));
            let waker = Waker::from(Arc::clone(&wakes));
            let mut cx = Context::from_waker(&waker);
            let mut call = session.call(incr, args);

            assert!(Pin::new(&mut call).poll(&mut cx).is_pending());
            assert_eq!(session.in_flight(), 1, "the first poll submitted");
            assert_eq!(
                Arc::strong_count(&wakes),
                3,
                "one clone parked in the table, beside `wakes` and `waker`"
            );
            assert_eq!(wakes.0.load(Ordering::Acquire), 0);

            assert_eq!(
                driver.pump(),
                (1, 1),
                "one sweep drains it, one route routes it"
            );
            assert_eq!(wakes.0.load(Ordering::Acquire), 1, "woken exactly once");
            assert_eq!(
                Pin::new(&mut call).poll(&mut cx),
                Poll::Ready(Ok(42u64.to_le_bytes().to_vec()))
            );
            assert_eq!(session.in_flight(), 0);
            assert_eq!(wakes.0.load(Ordering::Acquire), 1);
        }
        drop(session);
        assert_eq!(k.metrics.arena.bytes_in_flight.get(), 0);
    }
}
