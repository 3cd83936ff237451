//! Completion routing: `user_data` → waker tables, fed by the
//! completion rings of the attached sessions.
//!
//! Each attached session (= one ring-set slot) owns a [`SlotTable`]: a
//! map from in-flight `user_data` cookies to the pending call's state
//! (parked waker, then the routed response), plus a list of wakers
//! parked on submission backpressure. A router pass
//! ([`route_completions`]) pops the completion ring of every attached
//! session in slot order and routes each response to its waker — the
//! "waker storm": one sweep's worth of completions wakes every logical
//! client it answered, however many OS threads those clients are
//! multiplexed over. A session with nothing posted costs the pass two
//! atomic loads (its completion ring's emptiness check). The pass also
//! records each routed completion's cost under the async flavor, one
//! `record_n` per run of equal costs — the drainer that produced the
//! completion already recorded it under the plane flavor, so async is
//! an overlay, not a second count of the same dispatch.
//!
//! Cancellation falls out of the table shape: a [`crate::CallFuture`]
//! that is dropped mid-await removes its own entry, so its completion
//! arrives, finds no entry, and is discarded — no waker leak, no slot
//! leak, nothing for anyone to clean up later.

use parking_lot::Mutex;
use secmod_obs::{DispatchMetrics, Flavor};
use secmod_ring::{SessionRings, SmodCallResp};
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::task::Waker;

/// The cookie table's hasher. A session allocates its cookies itself,
/// one after another, so there is no adversary for SipHash to resist: a
/// multiply by 2^64 / φ spreads consecutive cookies across the high bits
/// the table's control bytes read and, being odd, keeps the low bits
/// that pick a bucket distinct.
#[derive(Default)]
pub(crate) struct CookieHasher(u64);

impl Hasher for CookieHasher {
    fn write_u64(&mut self, cookie: u64) {
        self.0 = cookie.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("cookies hash through write_u64")
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`SlotTable::pending`]'s `BuildHasher`.
pub(crate) type CookieHash = BuildHasherDefault<CookieHasher>;

/// One in-flight call's routing state.
#[derive(Debug, Default)]
pub(crate) struct Pending {
    /// Where to deliver the wake (refreshed on every poll).
    pub waker: Option<Waker>,
    /// The routed response, once the router has seen it.
    pub resp: Option<SmodCallResp>,
}

/// Per-session routing table (keyed by `user_data`) plus
/// backpressure-waiter parking.
#[derive(Debug, Default)]
pub struct SlotTable {
    pub(crate) pending: Mutex<HashMap<u64, Pending, CookieHash>>,
    /// Wakers of callers whose submit bounced with `Full`, woken after
    /// the next routed completion (completions imply the drainer popped
    /// submissions, i.e. submission-ring space reappeared).
    pub(crate) submit_waiters: Mutex<Vec<Waker>>,
    /// Flipped at shutdown: pending polls stop waiting and resolve to
    /// `Detached`.
    pub(crate) detached: AtomicBool,
}

impl SlotTable {
    /// How many calls are currently in flight on this session.
    pub fn in_flight(&self) -> usize {
        self.pending.lock().len()
    }

    /// Mark the table detached and wake everything still parked on it.
    pub(crate) fn detach(&self) {
        self.detached.store(true, Ordering::Release);
        let wakers: Vec<Waker> = {
            let mut pending = self.pending.lock();
            pending
                .values_mut()
                .filter_map(|p| p.waker.take())
                .collect()
        };
        for waker in wakers {
            waker.wake();
        }
        for waker in self.submit_waiters.lock().drain(..) {
            waker.wake();
        }
    }
}

/// One attached session as the router sees it: the rings it pops and
/// the table it routes into.
pub(crate) struct Route {
    pub(crate) rings: Arc<SessionRings>,
    pub(crate) table: Arc<SlotTable>,
}

/// The router's shared view: slot index → route, iterated in slot order.
pub(crate) type TableMap = Mutex<BTreeMap<usize, Route>>;

/// One router pass: pop every attached session's completions, deliver
/// each to its waker (or discard it if the awaiting future was
/// cancelled), and release the backpressure waiters of every session
/// that had completions. Returns how many completions were routed.
/// Each routed completion's simulated cost lands in `metrics`'
/// async-flavor histogram — the latency observed *through the futures
/// frontend*, an overlay on the plane-flavor record the drainer made
/// while producing it. A session's completions are tallied in runs of
/// equal cost (one function and payload size cost the same), and each
/// run is one `record_n`, so a pass pays two atomic adds per run rather
/// than per completion.
///
/// `counter`, if given, gains each session's count while its table is
/// still locked (the unlock publishes the relaxed add to whoever locks
/// next), so no call resolves before its completion is counted. Every
/// wake runs after the map and every table are unlocked: a woken
/// future's poll re-locks its table immediately. Passes on several
/// threads take turns on the map; each completion is popped once.
pub(crate) fn route_completions(
    tables: &TableMap,
    metrics: &DispatchMetrics,
    counter: Option<&AtomicU64>,
) -> usize {
    let latency = metrics.latency(Flavor::Async);
    let mut routed = 0;
    let mut wakers: Vec<Waker> = Vec::new();
    for route in tables.lock().values() {
        if route.rings.cq.is_empty() {
            continue;
        }
        let mut pending = route.table.pending.lock();
        let mut popped = 0u64;
        // The current run of equal, nonzero costs: `(cost, length)`.
        let mut run = (0u64, 0u64);
        while let Some(resp) = route.rings.cq.pop() {
            popped += 1;
            if resp.cost_ns > 0 {
                if resp.cost_ns != run.0 {
                    latency.record_n(run.0, run.1);
                    run = (resp.cost_ns, 0);
                }
                run.1 += 1;
            }
            if let Some(entry) = pending.get_mut(&resp.user_data) {
                entry.resp = Some(resp);
                wakers.extend(entry.waker.take());
            }
            // else: cancelled mid-await — the response is discarded.
        }
        latency.record_n(run.0, run.1);
        if let Some(counter) = counter {
            counter.fetch_add(popped, Ordering::Relaxed);
        }
        drop(pending);
        routed += popped as usize;
        wakers.append(&mut route.table.submit_waiters.lock());
    }
    for waker in wakers {
        waker.wake();
    }
    routed
}

#[cfg(test)]
mod tests {
    use super::*;
    use secmod_ring::{RingPairConfig, RingSet};
    use std::sync::atomic::AtomicUsize;
    use std::task::Wake;

    struct CountWake(AtomicUsize);
    impl Wake for CountWake {
        fn wake(self: Arc<Self>) {
            self.0.fetch_add(1, Ordering::AcqRel);
        }
    }

    fn resp(user_data: u64) -> SmodCallResp {
        SmodCallResp {
            user_data,
            ret: secmod_ring::ArgRef::empty(),
            errno: 0,
            cost_ns: 0,
        }
    }

    #[test]
    fn routes_to_the_right_entry_and_discards_cancelled() {
        let set = RingSet::with_capacity(1);
        let slot = set.register(1, 1, RingPairConfig::default()).unwrap();
        let rings = set.get(slot).unwrap();
        let table = Arc::new(SlotTable::default());
        let route = Route {
            rings: Arc::clone(&rings),
            table: Arc::clone(&table),
        };
        let tables: TableMap = Mutex::new([(slot.0, route)].into_iter().collect());

        let counter = Arc::new(CountWake(AtomicUsize::new(0)));
        table.pending.lock().insert(
            7,
            Pending {
                waker: Some(Waker::from(Arc::clone(&counter))),
                resp: None,
            },
        );
        // user_data 9 has no entry: a cancelled call.
        rings.cq.push(resp(7)).unwrap();
        rings.cq.push(resp(9)).unwrap();

        let metrics = DispatchMetrics::new();
        let routed = route_completions(&tables, &metrics, None);
        assert_eq!(routed, 2);
        assert_eq!(metrics.latency(Flavor::Async).count(), 0, "free entries");
        assert_eq!(counter.0.load(Ordering::Acquire), 1);
        let pending = table.pending.lock();
        assert!(pending.get(&7).unwrap().resp.is_some());
        assert!(
            !pending.contains_key(&9),
            "cancelled cookie must not reappear"
        );
        drop(pending);
        // The submission path consumed nothing here, but the rings must
        // be fully reaped.
        assert!(rings.cq.pop().is_none());
    }

    #[test]
    fn each_routed_cost_is_recorded_once_in_runs() {
        let set = RingSet::with_capacity(1);
        let slot = set.register(1, 1, RingPairConfig::default()).unwrap();
        let rings = set.get(slot).unwrap();
        let route = Route {
            rings: Arc::clone(&rings),
            table: Arc::new(SlotTable::default()),
        };
        let tables: TableMap = Mutex::new([(slot.0, route)].into_iter().collect());
        let costs = [90u64, 90, 0, 90, 300, 300, 90];
        for (user_data, cost_ns) in (0u64..).zip(costs) {
            rings
                .cq
                .push(SmodCallResp {
                    cost_ns,
                    ..resp(user_data)
                })
                .unwrap();
        }
        let metrics = DispatchMetrics::new();
        assert_eq!(route_completions(&tables, &metrics, None), costs.len());
        let latency = metrics.latency(Flavor::Async);
        assert_eq!(latency.count(), 6, "every costed completion, once");
        assert_eq!(latency.sum(), costs.iter().sum::<u64>());
    }

    #[test]
    fn detach_wakes_everything() {
        let table = SlotTable::default();
        let pending_wake = Arc::new(CountWake(AtomicUsize::new(0)));
        let waiter_wake = Arc::new(CountWake(AtomicUsize::new(0)));
        table.pending.lock().insert(
            1,
            Pending {
                waker: Some(Waker::from(Arc::clone(&pending_wake))),
                resp: None,
            },
        );
        table
            .submit_waiters
            .lock()
            .push(Waker::from(Arc::clone(&waiter_wake)));
        table.detach();
        assert_eq!(pending_wake.0.load(Ordering::Acquire), 1);
        assert_eq!(waiter_wake.0.load(Ordering::Acquire), 1);
        assert!(table.detached.load(Ordering::Acquire));
    }
}
