//! [`RingSet`]: the multi-session ring registry behind the dispatch
//! plane.
//!
//! One session's ring pair amortises fixed dispatch cost across a batch;
//! a *sweep* amortises it across sessions — one drainer visiting many
//! clients' rings in a single syscall-equivalent. For that the drainer
//! needs two things this type provides:
//!
//! * a **registry** of per-session [`SessionRings`] (submission ring,
//!   completion ring, and the raw session/owner ids the kernel will
//!   validate against), addressed by a stable [`RingSlotId`],
//! * a cheap **"has work" readiness bitmap** — one bit per slot in
//!   cache-line-padded `AtomicU64` words — so an idle sweep costs a few
//!   word loads instead of touching every ring's head/tail cache lines.
//!
//! Completions need no bitmap: whoever consumes them (a plane handle's
//! owner, the async frontend's router) already knows which sessions it
//! serves and pops their completion rings directly.
//!
//! The readiness protocol is clear-then-drain, the classic lost-wakeup
//! shape: a producer pushes into its submission ring and *then* sets the
//! slot's ready bit (release); a sweeper claims a whole word of ready
//! bits with `swap(0)` and then drains each claimed ring. A push that
//! races the swap either lands before the drain (and is consumed) or
//! re-sets the bit afterwards (and is seen by the next sweep); a drain
//! cut short by its budget re-marks the slot itself. The bitmap is a
//! hint, never an invariant — a set bit with an empty ring costs one
//! wasted visit, a queued entry always has its bit set (or is already
//! being drained).
//!
//! Like everything in this crate the type is kernel-agnostic: slots carry
//! raw `u32` session ids, owner pids, *and tenant ids*, so the kernel
//! (which sits above this crate) can validate ownership at sweep time
//! and the QoS layer can schedule per tenant, without a dependency
//! cycle either way.
//!
//! Every claim is ledgered. [`RingSet::claim_ready`] moves whole bitmap
//! words into the sweeping drainer's [`ClaimLedger`] — a crash-observable
//! mirror of the bits the claim took off the bitmap — before it hands
//! out a single slot; [`RingSet::drain_claimed`] visits one claimed slot
//! and [`RingSet::release_claimed`] hands one back unvisited (a scheduler
//! sitting between claim and drain deferred it), each clearing the slot's
//! ledger bit. [`RingSet::sweep_ready`] is the two chained with nothing in
//! between. If the drainer dies between claim and drain, the bits survive
//! in the ledger and [`RingSet::reclaim`] moves them back onto the bitmap
//! — that is the plane's no-entry-lost recovery path, run by the dying
//! drainer's exit guard.

use crate::arena::{ArenaRegion, ArgArena};
use crate::call::{RingPairConfig, SmodCallReq, SubmissionRing};
use crate::ring::CachePadded;
use crate::CompletionRing;
use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A stable index into a [`RingSet`] (valid until deregistered).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct RingSlotId(pub usize);

/// Why a submission was refused, with the request handed back so the
/// caller retries without a clone.
///
/// The two cases call for opposite reactions, which is why this is an
/// enum and not a bare `Err(req)`:
///
/// * [`SubmitError::Full`] is **backpressure**: the submission ring has
///   no free slot *right now*, but the slot stays flagged ready, a
///   drainer is (or will be) working the ring, and space is guaranteed to
///   reappear once in-flight entries complete. Park, await a completion,
///   or spin-retry — the request is still valid.
/// * [`SubmitError::Detached`] is **teardown**: the slot has been
///   deregistered (session closed, plane shut down). Space will *never*
///   reappear; retrying is useless and the caller should surface the
///   loss.
#[derive(Debug, PartialEq, Eq)]
pub enum SubmitError {
    /// The submission ring is full; retry after a completion frees a
    /// slot. The slot's ready bit is already set.
    Full(SmodCallReq),
    /// The slot is no longer registered; the request can never be
    /// delivered.
    Detached(SmodCallReq),
}

impl SubmitError {
    /// Recover the request for a retry or post-mortem.
    pub fn into_req(self) -> SmodCallReq {
        match self {
            SubmitError::Full(req) | SubmitError::Detached(req) => req,
        }
    }

    /// Is this transient backpressure (retry will eventually succeed)?
    pub fn is_full(&self) -> bool {
        matches!(self, SubmitError::Full(_))
    }
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Full(_) => write!(f, "submission ring full (backpressure; retry)"),
            SubmitError::Detached(_) => write!(f, "ring slot detached (teardown; do not retry)"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A per-drainer mirror of the ready bits the drainer has claimed but
/// not yet drained or released.
///
/// The claiming swap takes bits off the shared bitmap; without a
/// record, a drainer that died mid-sweep would take them to the grave.
/// [`RingSet::claim_ready`] therefore records every claimed word here
/// and each slot's bit is cleared as its drain or release finishes, so
/// the set of in-flight claims outlives the sweep that made them. When
/// the drainer dies, its exit path calls [`RingSet::reclaim`], which ORs
/// the surviving bits back onto the readiness bitmap and clears the
/// stuck drain flags — no entry lost, and none duplicated, because
/// submission entries are only ever popped during a drain.
///
/// Only the owning drainer writes the words (two read-modify-writes per
/// visited slot), and its exit path reads them, once. Each word sits on
/// a cache line of its own so those writes never contend with whatever
/// the allocator placed next to the ledger.
#[derive(Debug)]
pub struct ClaimLedger {
    words: Box<[CachePadded<AtomicU64>]>,
}

impl ClaimLedger {
    fn new(words: usize) -> ClaimLedger {
        ClaimLedger {
            words: (0..words).map(|_| CachePadded(AtomicU64::new(0))).collect(),
        }
    }

    #[inline]
    fn record_word(&self, word_idx: usize, bits: u64) {
        if bits != 0 {
            self.words[word_idx].0.fetch_or(bits, Ordering::Release);
        }
    }

    #[inline]
    fn clear_bit(&self, slot: usize) {
        self.words[slot / 64]
            .0
            .fetch_and(!(1u64 << (slot % 64)), Ordering::Release);
    }

    /// Bits currently claimed and unresolved.
    pub fn claimed_count(&self) -> usize {
        self.words
            .iter()
            .map(|w| w.0.load(Ordering::Acquire).count_ones() as usize)
            .sum()
    }

    /// Is every claim resolved (drained or released)?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|w| w.0.load(Ordering::Acquire) == 0)
    }
}

/// One registered session's ring pair, shared between its producer and
/// every sweeper.
#[derive(Debug)]
pub struct SessionRings {
    /// The raw session id (`SessionId.0`) entries must name.
    pub session: u32,
    /// The raw pid of the client that owns the session — the kernel
    /// validates it against the live session at sweep time, so a slot
    /// cannot be replayed against somebody else's session.
    pub owner: u32,
    /// The raw tenant id the slot was registered under (`TenantId.0` in
    /// the QoS layer; 0 for legacy registrations). Carried here so a
    /// weighted-fair sweep can bucket claimed slots by tenant without a
    /// side table.
    pub tenant: u32,
    /// Producer → kernel submissions.
    pub sq: SubmissionRing,
    /// Kernel → producer completions.
    pub cq: CompletionRing,
    /// The session's quota over the set's shared [`ArgArena`], when the
    /// set was built with one ([`RingSet::with_arena`]). Producers place
    /// large argument payloads here; the kernel places large results
    /// here. `None` means every payload travels by value (the copy
    /// path).
    pub arena: Option<ArenaRegion>,
    /// Per-slot drain exclusivity: at most one sweeper drains this slot
    /// at a time, so a producer re-flagging the bit mid-drain cannot
    /// hand the *same* rings to a second sweeper — which would interleave
    /// completions (breaking per-session FIFO) and double-reserve the
    /// completion ring's free space. Taken by [`RingSet::drain_claimed`];
    /// a sweeper finding the slot busy hands the ready bit back instead.
    draining: AtomicBool,
    /// Monotonic source of per-session `user_data` cookies (see
    /// [`SessionRings::alloc_user_data`]).
    next_user_data: AtomicU64,
}

impl SessionRings {
    /// Allocate the next `user_data` cookie for this session.
    ///
    /// Cookies are unique *per session* (a plain monotonic counter), which
    /// is all completion routing needs: responses come back on this
    /// session's own completion ring, so a consumer keying pending state
    /// by `user_data` within the slot can never collide with another
    /// session's cookies.
    pub fn alloc_user_data(&self) -> u64 {
        self.next_user_data.fetch_add(1, Ordering::Relaxed)
    }
}

/// Registry of per-session ring pairs with a readiness bitmap.
///
/// All methods take `&self`; share the set behind an `Arc` (or borrow it
/// across scoped threads). Registration is rare and lock-guarded; the
/// sweep path takes only per-slot read locks and bitmap atomics.
pub struct RingSet {
    slots: Box<[RwLock<Option<Arc<SessionRings>>>]>,
    /// One ready bit per slot, 64 slots per padded word.
    ready: Box<[CachePadded<AtomicU64>]>,
    /// Free slot indices (registration pops, deregistration pushes).
    free: Mutex<Vec<usize>>,
    len: AtomicUsize,
    /// The shared argument arena and per-session quota handed to each
    /// registered slot, when the set was built with one.
    arena: Option<(Arc<ArgArena>, usize)>,
}

impl std::fmt::Debug for RingSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RingSet")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("ready", &self.ready_count())
            .finish()
    }
}

impl RingSet {
    /// Create a set with room for at least `capacity` sessions (rounded
    /// up to a multiple of 64 so the bitmap has no partial word).
    pub fn with_capacity(capacity: usize) -> RingSet {
        RingSet::build(capacity, None)
    }

    /// [`RingSet::with_capacity`] plus a shared [`ArgArena`]: every slot
    /// registered afterwards gets an [`ArenaRegion`] bounded to
    /// `session_quota` bytes in flight, enabling the zero-copy argument
    /// path for that session (oversize traffic degrades to the copy
    /// fallback instead of starving neighbours).
    pub fn with_arena(capacity: usize, arena: Arc<ArgArena>, session_quota: usize) -> RingSet {
        RingSet::build(capacity, Some((arena, session_quota)))
    }

    fn build(capacity: usize, arena: Option<(Arc<ArgArena>, usize)>) -> RingSet {
        let cap = capacity.max(1).div_ceil(64) * 64;
        RingSet {
            slots: (0..cap).map(|_| RwLock::new(None)).collect(),
            ready: (0..cap / 64)
                .map(|_| CachePadded(AtomicU64::new(0)))
                .collect(),
            free: Mutex::new((0..cap).rev().collect()),
            len: AtomicUsize::new(0),
            arena,
        }
    }

    /// The shared arena behind this set's zero-copy path, if any.
    pub fn arena(&self) -> Option<&Arc<ArgArena>> {
        self.arena.as_ref().map(|(a, _)| a)
    }

    /// Maximum number of registered sessions.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Currently registered sessions.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Register a session's ring pair under the default tenant (0).
    /// Returns `None` when the set is full. `session`/`owner` are the
    /// raw session id and client pid the kernel will validate at sweep
    /// time.
    pub fn register(&self, session: u32, owner: u32, cfg: RingPairConfig) -> Option<RingSlotId> {
        self.register_for_tenant(session, owner, 0, cfg)
    }

    /// [`RingSet::register`] with an explicit tenant id, so a QoS sweep
    /// can schedule the slot under that tenant's budget.
    pub fn register_for_tenant(
        &self,
        session: u32,
        owner: u32,
        tenant: u32,
        cfg: RingPairConfig,
    ) -> Option<RingSlotId> {
        let idx = self.free.lock().pop()?;
        let (sq, cq) = cfg.build();
        *self.slots[idx].write() = Some(Arc::new(SessionRings {
            session,
            owner,
            tenant,
            sq,
            cq,
            arena: self.arena.as_ref().map(|(arena, quota)| {
                ArenaRegion::with_magazine(Arc::clone(arena), *quota, crate::MAGAZINE_DEPTH)
            }),
            draining: AtomicBool::new(false),
            next_user_data: AtomicU64::new(0),
        }));
        self.len.fetch_add(1, Ordering::Relaxed);
        Some(RingSlotId(idx))
    }

    /// Remove a slot, returning its rings (callers reap any completions
    /// still queued). The ready bit is cleared; a sweep that raced the
    /// removal simply finds the slot empty.
    pub fn deregister(&self, slot: RingSlotId) -> Option<Arc<SessionRings>> {
        let rings = self.slots.get(slot.0)?.write().take()?;
        self.ready[slot.0 / 64]
            .0
            .fetch_and(!(1u64 << (slot.0 % 64)), Ordering::AcqRel);
        self.len.fetch_sub(1, Ordering::Relaxed);
        self.free.lock().push(slot.0);
        Some(rings)
    }

    /// The rings registered at `slot`, if any.
    pub fn get(&self, slot: RingSlotId) -> Option<Arc<SessionRings>> {
        self.slots.get(slot.0)?.read().clone()
    }

    /// Mark a slot as having work. Producers call this after pushing; the
    /// release store pairs with the sweeper's acquire swap.
    pub fn mark_ready(&self, slot: RingSlotId) {
        self.ready[slot.0 / 64]
            .0
            .fetch_or(1u64 << (slot.0 % 64), Ordering::Release);
    }

    /// Push one request into `slot`'s submission ring and flag the slot
    /// ready.
    ///
    /// On a full ring the request comes back as [`SubmitError::Full`] with
    /// the slot still flagged, so a sweeper will make room — that is the
    /// backpressure contract: `Full` always resolves once in-flight
    /// entries complete. A deregistered slot returns
    /// [`SubmitError::Detached`], which never resolves.
    pub fn submit(&self, slot: RingSlotId, req: SmodCallReq) -> Result<(), SubmitError> {
        let rings = match self.get(slot) {
            Some(r) => r,
            None => return Err(SubmitError::Detached(req)),
        };
        let outcome = rings.sq.push(req);
        // Flag even on a full ring: the producer wants a drain either way.
        self.mark_ready(slot);
        outcome.map_err(SubmitError::Full)
    }

    /// Number of slots currently flagged ready (approximate).
    pub fn ready_count(&self) -> usize {
        self.ready
            .iter()
            .map(|w| w.0.load(Ordering::Relaxed).count_ones() as usize)
            .sum()
    }

    /// Is any slot flagged ready?
    pub fn any_ready(&self) -> bool {
        // Acquire pairs with the producer's release `mark_ready`: a
        // sweeper deciding whether to park sees every bit set before the
        // call (its park timeout backstops the remaining race window).
        self.ready.iter().any(|w| w.0.load(Ordering::Acquire) != 0)
    }

    /// Flag every registered slot ready (shutdown sweeps use this to
    /// force one final full visit).
    pub fn mark_all_ready(&self) {
        for idx in 0..self.slots.len() {
            if self.slots[idx].read().is_some() {
                self.mark_ready(RingSlotId(idx));
            }
        }
    }

    /// Claim the current ready set and visit each claimed slot exactly
    /// once: for every ready slot that is still registered, `visit(slot,
    /// rings)` runs; returning `true` re-marks the slot (work left
    /// behind, e.g. a budget cut the drain short). Returns how many slots
    /// were visited.
    ///
    /// This is [`RingSet::claim_ready`] with every claimed slot passed
    /// straight to [`RingSet::drain_claimed`], over a ledger that lives
    /// for the call — for callers nobody supervises.
    pub fn sweep_ready(
        &self,
        mut visit: impl FnMut(RingSlotId, &Arc<SessionRings>) -> bool,
    ) -> usize {
        let ledger = self.claim_ledger();
        let mut visited = 0;
        self.claim_ready(&ledger, |slot, _tenant| {
            visited += usize::from(self.drain_claimed(slot, &ledger, &mut visit));
        });
        visited
    }

    /// A fresh [`ClaimLedger`] sized for this set's bitmap. Each drainer
    /// owns one and reclaims it on its way out.
    pub fn claim_ledger(&self) -> ClaimLedger {
        ClaimLedger::new(self.ready.len())
    }

    /// The tenant id `slot` was registered under, if registered.
    pub fn tenant_of(&self, slot: RingSlotId) -> Option<u32> {
        self.slots.get(slot.0)?.read().as_ref().map(|r| r.tenant)
    }

    /// Claim every ready word into `ledger` and hand each claimed slot
    /// that is still registered, with its tenant id, to `each`. Returns
    /// how many slots were handed out.
    ///
    /// Claiming is one atomic swap per word, so two concurrent sweeps
    /// partition the ready set between them instead of convoying on the
    /// same rings. No drain exclusivity is taken here — that happens per
    /// slot in [`RingSet::drain_claimed`] — so `each` may drain the slot
    /// on the spot or queue it for a scheduler without holding any ring
    /// busy. A word's bits are in the ledger *before* `each` sees the
    /// first of its slots; unresolved bits stay there until
    /// [`RingSet::drain_claimed`] / [`RingSet::release_claimed`] clear
    /// them, or [`RingSet::reclaim`] sweeps them back after the drainer
    /// died.
    pub fn claim_ready(
        &self,
        ledger: &ClaimLedger,
        mut each: impl FnMut(RingSlotId, u32),
    ) -> usize {
        let mut claimed_slots = 0;
        for (word_idx, word) in self.ready.iter().enumerate() {
            let mut claimed = word.0.swap(0, Ordering::AcqRel);
            ledger.record_word(word_idx, claimed);
            while claimed != 0 {
                let bit = claimed.trailing_zeros() as usize;
                claimed &= claimed - 1;
                let slot = RingSlotId(word_idx * 64 + bit);
                match self.tenant_of(slot) {
                    Some(tenant) => {
                        claimed_slots += 1;
                        each(slot, tenant);
                    }
                    // Deregistered after flagging: nothing to drain, so
                    // nothing to keep claimed.
                    None => ledger.clear_bit(slot.0),
                }
            }
        }
        claimed_slots
    }

    /// Visit one claimed slot. The drain flag gives **per-slot
    /// exclusivity**: a producer that re-flags a slot while sweeper A is
    /// mid-drain cannot hand the same rings to sweeper B — B finds the
    /// slot busy, returns the ready bit, and moves on. One sweeper per
    /// slot at a time is what keeps completions in per-session
    /// submission order and the completion-ring space reservation
    /// single-counted. A visitor returning `true` re-marks the slot. The
    /// slot's ledger bit is cleared however the visit resolves — unless
    /// the visitor never returns, which is the case the ledger exists
    /// for. Returns whether the visitor ran.
    pub fn drain_claimed(
        &self,
        slot: RingSlotId,
        ledger: &ClaimLedger,
        visit: impl FnOnce(RingSlotId, &Arc<SessionRings>) -> bool,
    ) -> bool {
        let Some(rings) = self.get(slot) else {
            ledger.clear_bit(slot.0);
            return false;
        };
        if rings
            .draining
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            // Another sweeper is mid-drain on these rings: hand the bit
            // back so whoever finishes (or the next sweep) picks the
            // work up.
            self.release_claimed(slot, ledger);
            return false;
        }
        let remark = visit(slot, &rings);
        rings.draining.store(false, Ordering::Release);
        if remark {
            self.mark_ready(slot);
        }
        ledger.clear_bit(slot.0);
        true
    }

    /// Release a claimed slot unscheduled (the scheduler deferred it):
    /// the ready bit goes straight back onto the bitmap and the ledger
    /// forgets the claim. The deferred tenant loses priority, not work.
    pub fn release_claimed(&self, slot: RingSlotId, ledger: &ClaimLedger) {
        self.mark_ready(slot);
        ledger.clear_bit(slot.0);
    }

    /// Recover a dead drainer's unresolved claims: move every bit still
    /// in `ledger` back onto the readiness bitmap and clear the drain
    /// flag of each affected slot. Returns how many slots were
    /// reclaimed.
    ///
    /// **Only safe once the owning drainer is certainly dead** (called
    /// from its own exit path, after its last visit): clearing a live
    /// drainer's drain flag would let a second sweeper interleave the
    /// same rings. The
    /// entries themselves were never popped — submission entries leave
    /// the ring only inside a drain — so the re-marked slots re-drain
    /// exactly the entries the dead drainer stranded, once.
    pub fn reclaim(&self, ledger: &ClaimLedger) -> usize {
        let mut reclaimed = 0;
        for (word_idx, word) in ledger.words.iter().enumerate() {
            let mut bits = word.0.swap(0, Ordering::AcqRel);
            if bits == 0 {
                continue;
            }
            self.ready[word_idx].0.fetch_or(bits, Ordering::Release);
            while bits != 0 {
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let slot = RingSlotId(word_idx * 64 + bit);
                if let Some(rings) = self.get(slot) {
                    rings.draining.store(false, Ordering::Release);
                }
                reclaimed += 1;
            }
        }
        reclaimed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(session: u32, user_data: u64) -> SmodCallReq {
        SmodCallReq {
            session,
            proc_id: 1,
            user_data,
            args: crate::ArgRef::empty(),
        }
    }

    #[test]
    fn capacity_rounds_to_whole_bitmap_words() {
        assert_eq!(RingSet::with_capacity(1).capacity(), 64);
        assert_eq!(RingSet::with_capacity(64).capacity(), 64);
        assert_eq!(RingSet::with_capacity(65).capacity(), 128);
    }

    #[test]
    fn register_submit_sweep_deregister() {
        let set = RingSet::with_capacity(4);
        let a = set.register(10, 100, RingPairConfig::default()).unwrap();
        let b = set.register(11, 101, RingPairConfig::default()).unwrap();
        assert_eq!(set.len(), 2);
        assert!(!set.any_ready());

        set.submit(a, req(10, 1)).unwrap();
        set.submit(a, req(10, 2)).unwrap();
        set.submit(b, req(11, 3)).unwrap();
        assert_eq!(set.ready_count(), 2);

        let mut seen = Vec::new();
        let visited = set.sweep_ready(|slot, rings| {
            while let Some(r) = rings.sq.pop() {
                seen.push((slot, r.user_data));
            }
            false
        });
        assert_eq!(visited, 2);
        assert_eq!(seen, vec![(a, 1), (a, 2), (b, 3)]);
        assert!(!set.any_ready(), "claimed bits stay cleared");

        let rings = set.deregister(a).unwrap();
        assert_eq!(rings.session, 10);
        assert_eq!(rings.owner, 100);
        assert_eq!(set.len(), 1);
        assert!(set.get(a).is_none());
        // The freed slot is reusable.
        let c = set.register(12, 102, RingPairConfig::default()).unwrap();
        assert_eq!(set.len(), 2);
        assert!(set.get(c).is_some());
    }

    #[test]
    fn full_set_refuses_registration() {
        let set = RingSet::with_capacity(64);
        let slots: Vec<_> = (0..64)
            .map(|i| {
                set.register(
                    i,
                    i,
                    RingPairConfig {
                        submission: 2,
                        completion: 2,
                    },
                )
                .unwrap()
            })
            .collect();
        assert!(set.register(99, 99, RingPairConfig::default()).is_none());
        set.deregister(slots[7]).unwrap();
        assert!(set.register(99, 99, RingPairConfig::default()).is_some());
    }

    #[test]
    fn budget_cut_drains_remark_the_slot() {
        let set = RingSet::with_capacity(1);
        let a = set.register(1, 1, RingPairConfig::default()).unwrap();
        for i in 0..4 {
            set.submit(a, req(1, i)).unwrap();
        }
        // Visit with a budget of 2: the visitor reports leftover work.
        let visited = set.sweep_ready(|_, rings| {
            rings.sq.pop().unwrap();
            rings.sq.pop().unwrap();
            !rings.sq.is_empty()
        });
        assert_eq!(visited, 1);
        assert!(set.any_ready(), "short drain must re-flag the slot");
        let visited = set.sweep_ready(|_, rings| {
            while rings.sq.pop().is_some() {}
            false
        });
        assert_eq!(visited, 1);
        assert!(!set.any_ready());
    }

    #[test]
    fn submit_errors_distinguish_backpressure_from_teardown() {
        let set = RingSet::with_capacity(1);
        let cfg = RingPairConfig {
            submission: 2,
            completion: 2,
        };
        let a = set.register(1, 1, cfg).unwrap();
        set.submit(a, req(1, 0)).unwrap();
        set.submit(a, req(1, 1)).unwrap();
        // Full ring: backpressure, request handed back, slot stays ready.
        match set.submit(a, req(1, 2)) {
            Err(SubmitError::Full(back)) => assert_eq!(back.user_data, 2),
            other => panic!("expected Full, got {other:?}"),
        }
        assert!(
            set.any_ready(),
            "a refused submit must leave the slot flagged"
        );
        // Deregistered slot: teardown, a different error.
        set.deregister(a).unwrap();
        match set.submit(a, req(1, 3)) {
            Err(SubmitError::Detached(back)) => {
                assert_eq!(back.user_data, 3);
            }
            other => panic!("expected Detached, got {other:?}"),
        }
    }

    #[test]
    fn user_data_cookies_are_monotonic_per_session() {
        let set = RingSet::with_capacity(2);
        let a = set.register(1, 1, RingPairConfig::default()).unwrap();
        let b = set.register(2, 2, RingPairConfig::default()).unwrap();
        let ra = set.get(a).unwrap();
        let rb = set.get(b).unwrap();
        assert_eq!(ra.alloc_user_data(), 0);
        assert_eq!(ra.alloc_user_data(), 1);
        // Sessions count independently.
        assert_eq!(rb.alloc_user_data(), 0);
        assert_eq!(ra.alloc_user_data(), 2);
    }

    #[test]
    fn deregistered_slot_is_skipped_by_the_sweep() {
        let set = RingSet::with_capacity(2);
        let a = set.register(1, 1, RingPairConfig::default()).unwrap();
        set.submit(a, req(1, 0)).unwrap();
        set.deregister(a).unwrap();
        // A re-mark racing the deregistration leaves a stale bit; the
        // sweep must tolerate it.
        set.ready[0].0.fetch_or(1, Ordering::Release);
        let visited = set.sweep_ready(|_, _| panic!("empty slot visited"));
        assert_eq!(visited, 0);
    }

    #[test]
    fn mark_all_ready_flags_only_registered_slots() {
        let set = RingSet::with_capacity(4);
        let _a = set.register(1, 1, RingPairConfig::default()).unwrap();
        let b = set.register(2, 2, RingPairConfig::default()).unwrap();
        set.deregister(b).unwrap();
        set.mark_all_ready();
        assert_eq!(set.ready_count(), 1);
    }

    #[test]
    fn a_slot_mid_drain_is_never_handed_to_a_second_sweeper() {
        // Sweeper A parks inside its visit; the producer re-flags the
        // slot; sweeper B must *not* get the same rings — it returns the
        // bit instead, and A (or a later sweep) picks the new work up.
        let set = Arc::new(RingSet::with_capacity(1));
        let a = set.register(1, 1, RingPairConfig::default()).unwrap();
        set.submit(a, req(1, 0)).unwrap();
        let in_visit = Arc::new(AtomicBool::new(false));
        let release = Arc::new(AtomicBool::new(false));
        std::thread::scope(|s| {
            let sweeper_a = {
                let (set, in_visit, release) = (&set, &in_visit, &release);
                s.spawn(move || {
                    set.sweep_ready(|_, rings| {
                        rings.sq.pop().unwrap();
                        in_visit.store(true, Ordering::Release);
                        while !release.load(Ordering::Acquire) {
                            std::thread::yield_now();
                        }
                        false
                    })
                })
            };
            while !in_visit.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            // Producer races in new work mid-drain; sweeper B sees the
            // bit but must skip the busy slot and leave the bit set.
            set.submit(a, req(1, 1)).unwrap();
            let visited_by_b = set.sweep_ready(|_, _| panic!("slot handed out twice"));
            assert_eq!(visited_by_b, 0);
            assert!(set.any_ready(), "B must hand the ready bit back");
            release.store(true, Ordering::Release);
            assert_eq!(sweeper_a.join().unwrap(), 1);
        });
        // The slot is free again: the handed-back work is sweepable.
        let drained = std::cell::Cell::new(0);
        set.sweep_ready(|_, rings| {
            while rings.sq.pop().is_some() {
                drained.set(drained.get() + 1);
            }
            false
        });
        assert_eq!(drained.get(), 1);
    }

    #[test]
    fn arena_backed_sets_hand_each_session_a_quota_region() {
        let arena = ArgArena::with_capacity(1 << 16);
        let set = RingSet::with_arena(2, Arc::clone(&arena), 4096);
        assert!(set.arena().is_some());
        let a = set.register(1, 1, RingPairConfig::default()).unwrap();
        let rings = set.get(a).unwrap();
        let region = rings.arena.as_ref().expect("arena-backed slot");
        assert_eq!(region.quota(), 4096);

        // A large payload placed through the region travels by
        // descriptor and its bytes survive the ring hand-off.
        let payload = vec![0xAB; 1000];
        let mut r = req(1, 9);
        r.args = crate::ArgRef::place(&payload, rings.arena.as_ref());
        assert!(r.args.is_arena());
        set.submit(a, r).unwrap();
        set.sweep_ready(|_, rings| {
            let got = rings.sq.pop().unwrap();
            assert_eq!(got.args.as_slice(), payload.as_slice());
            false
        });
        // The drained slot recycles into the region's magazine (still
        // charged); flushing settles the quota back to zero.
        assert!(region.magazine_resident() > 0, "drained block parks");
        region.flush_magazine();
        assert_eq!(region.in_flight(), 0, "drained request freed its slot");

        // Plain sets stay on the copy path.
        let plain = RingSet::with_capacity(1);
        assert!(plain.arena().is_none());
        let b = plain.register(1, 1, RingPairConfig::default()).unwrap();
        assert!(plain.get(b).unwrap().arena.is_none());
    }

    #[test]
    fn registration_carries_the_tenant_id() {
        let set = RingSet::with_capacity(2);
        let legacy = set.register(1, 1, RingPairConfig::default()).unwrap();
        let tenanted = set
            .register_for_tenant(2, 2, 7, RingPairConfig::default())
            .unwrap();
        assert_eq!(
            set.tenant_of(legacy),
            Some(0),
            "legacy slots land in tenant 0"
        );
        assert_eq!(set.tenant_of(tenanted), Some(7));
        assert_eq!(set.get(tenanted).unwrap().tenant, 7);
        set.deregister(tenanted).unwrap();
        assert_eq!(set.tenant_of(tenanted), None);
    }

    #[test]
    fn claim_drain_release_round_trip_clears_the_ledger() {
        let set = RingSet::with_capacity(2);
        let a = set
            .register_for_tenant(1, 1, 3, RingPairConfig::default())
            .unwrap();
        let b = set
            .register_for_tenant(2, 2, 4, RingPairConfig::default())
            .unwrap();
        set.submit(a, req(1, 10)).unwrap();
        set.submit(b, req(2, 20)).unwrap();

        let ledger = set.claim_ledger();
        let mut candidates = Vec::new();
        let claimed = set.claim_ready(&ledger, |slot, tenant| candidates.push((slot, tenant)));
        assert_eq!(claimed, 2);
        assert_eq!(candidates, vec![(a, 3), (b, 4)]);
        assert_eq!(ledger.claimed_count(), 2, "claims are observable");
        assert!(!set.any_ready(), "claimed bits left the bitmap");

        // Drain one slot, defer the other.
        let drained = set.drain_claimed(a, &ledger, |_, rings| {
            assert_eq!(rings.sq.pop().unwrap().user_data, 10);
            false
        });
        assert!(drained);
        set.release_claimed(b, &ledger);
        assert!(ledger.is_empty(), "both claims resolved");
        assert_eq!(set.ready_count(), 1, "released slot is ready again");
        set.sweep_ready(|slot, rings| {
            assert_eq!(slot, b);
            assert_eq!(rings.sq.pop().unwrap().user_data, 20);
            false
        });
    }

    #[test]
    fn drain_claimed_hands_busy_slots_back() {
        let set = RingSet::with_capacity(1);
        let a = set.register(1, 1, RingPairConfig::default()).unwrap();
        set.submit(a, req(1, 0)).unwrap();
        let ledger = set.claim_ledger();
        assert_eq!(set.claim_ready(&ledger, |_, _| ()), 1);
        // Another sweeper is mid-drain on the slot.
        set.get(a).unwrap().draining.store(true, Ordering::Release);
        assert!(!set.drain_claimed(a, &ledger, |_, _| panic!("busy slot visited")));
        assert!(set.any_ready(), "bit handed back for the live drainer");
        assert!(ledger.is_empty(), "claim resolved without draining");
        set.get(a).unwrap().draining.store(false, Ordering::Release);
    }

    #[test]
    fn crashed_claims_are_reclaimed_and_drain_exactly_once() {
        let set = RingSet::with_capacity(3);
        let slots: Vec<RingSlotId> = (0..3)
            .map(|i| {
                set.register_for_tenant(i, i, i, RingPairConfig::default())
                    .unwrap()
            })
            .collect();
        for (i, slot) in slots.iter().enumerate() {
            for n in 0..4u64 {
                set.submit(*slot, req(i as u32, n)).unwrap();
            }
        }

        // The doomed drainer claims all three slots, drains the first,
        // and dies two entries into the second.
        let ledger = set.claim_ledger();
        let mut seen = Vec::new();
        let died = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            set.claim_ready(&ledger, |slot, _| {
                set.drain_claimed(slot, &ledger, |slot, rings| {
                    while let Some(r) = rings.sq.pop() {
                        seen.push((slot, r.user_data));
                        if (slot, r.user_data) == (slots[1], 1) {
                            panic!("drainer dies mid-visit");
                        }
                    }
                    false
                });
            })
        }));
        assert!(died.is_err());
        assert_eq!(ledger.claimed_count(), 2, "the unfinished claims survive");
        assert!(!set.any_ready(), "stranded work is invisible to the bitmap");
        // Even a forced re-mark cannot reach the slot it died in: the
        // dead drainer's drain flag still excludes everyone.
        set.mark_ready(slots[1]);
        assert_eq!(set.sweep_ready(|_, _| panic!("stranded slot drained")), 0);

        // The dead drainer's exit path: reclaim, then a normal sweep
        // finds every remaining entry exactly once.
        assert_eq!(set.reclaim(&ledger), 2);
        assert!(ledger.is_empty());
        set.sweep_ready(|slot, rings| {
            while let Some(r) = rings.sq.pop() {
                seen.push((slot, r.user_data));
            }
            false
        });
        seen.sort_by_key(|(s, d)| (s.0, *d));
        let expect: Vec<(RingSlotId, u64)> = slots
            .iter()
            .flat_map(|s| (0..4u64).map(move |n| (*s, n)))
            .collect();
        assert_eq!(seen, expect, "no loss, no duplicates");
        assert!(slots.iter().all(|s| set.get(*s).unwrap().sq.is_empty()));
    }

    #[test]
    fn ledger_words_sit_on_cache_lines_of_their_own() {
        let ledger = RingSet::with_capacity(256).claim_ledger();
        assert_eq!(ledger.words.len(), 4);
        for word in ledger.words.iter() {
            assert_eq!(word as *const CachePadded<AtomicU64> as usize % 64, 0);
        }
    }

    #[test]
    fn concurrent_producers_and_sweepers_lose_nothing() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: u64 = 2_000;
        let set = Arc::new(RingSet::with_capacity(PRODUCERS));
        let slots: Vec<RingSlotId> = (0..PRODUCERS)
            .map(|i| {
                set.register(i as u32, i as u32, RingPairConfig::default())
                    .unwrap()
            })
            .collect();
        let received = Arc::new(AtomicUsize::new(0));
        std::thread::scope(|s| {
            for (i, slot) in slots.iter().enumerate() {
                let set = Arc::clone(&set);
                let slot = *slot;
                s.spawn(move || {
                    for n in 0..PER_PRODUCER {
                        let mut r = req(i as u32, n);
                        while let Err(back) = set.submit(slot, r) {
                            assert!(back.is_full(), "registered slot reported detached");
                            r = back.into_req();
                            std::thread::yield_now();
                        }
                    }
                });
            }
            for _ in 0..2 {
                let set = Arc::clone(&set);
                let received = Arc::clone(&received);
                s.spawn(move || {
                    while received.load(Ordering::Acquire) < PRODUCERS * PER_PRODUCER as usize {
                        let mut got = 0;
                        set.sweep_ready(|_, rings| {
                            while rings.sq.pop().is_some() {
                                got += 1;
                            }
                            false
                        });
                        if got == 0 {
                            std::thread::yield_now();
                        } else {
                            received.fetch_add(got, Ordering::AcqRel);
                        }
                    }
                });
            }
        });
        assert_eq!(
            received.load(Ordering::Acquire),
            PRODUCERS * PER_PRODUCER as usize
        );
        assert!(slots.iter().all(|s| set.get(*s).unwrap().sq.is_empty()));
    }
}
