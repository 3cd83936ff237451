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
//!    session's [`SlotTable`], push into the submission ring. A `Full`
//!    bounce parks the task on the table's backpressure list instead of
//!    spinning (the paper's fixed-cost argument in async clothing: a
//!    stalled producer must cost a suspended task, not a burning core).
//! 2. **Submitted** — wait for the router to deliver the response into
//!    the table entry and wake us.
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

impl Target {
    fn submit(&self, proc_id: u32, user_data: u64, args: Vec<u8>) -> Result<(), SubmitError> {
        match self {
            // PlaneHandle::submit does the inline-vs-arena placement.
            Target::Plane(handle) => handle.submit(proc_id, user_data, args),
            Target::Raw { set, slot, rings } => set.submit(
                *slot,
                SmodCallReq {
                    session: rings.session,
                    proc_id,
                    user_data,
                    // Large payloads ride the set's arena when it has one
                    // (a bounced req frees its slot on drop, so retries
                    // re-place cleanly).
                    args: ArgRef::place_vec(args, rings.arena.as_ref()),
                },
            ),
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
            let state = match batch.push(proc_id, ud, args.clone()) {
                Ok(()) => CallState::Submitted { user_data: ud },
                // Bounced (the guard flushed the prefix) or the plane is
                // stopping: hand the poll path an unsubmitted future with
                // the cookie pinned — it retries or resolves `Detached`.
                Err(err) => {
                    if matches!(err, SubmitError::Full(_)) {
                        if let Some(metrics) = &self.core.metrics {
                            metrics.async_resubmits.incr();
                        }
                    }
                    CallState::Unsubmitted {
                        proc_id,
                        args,
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
                    match self.core.target.submit(*proc_id, ud, args.clone()) {
                        Ok(()) => {
                            self.state = CallState::Submitted { user_data: ud };
                            // Fall through: the response may already be
                            // routed by the time we re-check.
                        }
                        Err(SubmitError::Full(_)) => {
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
                        Err(SubmitError::Detached(_)) => {
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
