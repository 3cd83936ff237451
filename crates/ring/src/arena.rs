//! [`ArgArena`]: the shared-memory byte arena behind the zero-copy
//! argument path.
//!
//! The paper's core argument is that a SecModule call beats RPC because
//! arguments live on a *shared stack* instead of being marshalled and
//! copied (the XDR-vs-argblock comparison in Figure 7/8). The ring
//! dispatch path reintroduced a copy: every `SmodCallReq` carried its
//! argument block by value, so a 64 KiB payload was copied into the
//! request, through the ring, and again into the response. This module
//! removes it: large payloads are written **once** into a shared arena
//! and passed by `(offset, len, generation)` descriptor; the kernel
//! drain loop reads them in place, exactly as the paper's in-process
//! design shares the caller's stack frame.
//!
//! Three types cooperate:
//!
//! * [`ArgArena`] — one contiguous byte region with power-of-two
//!   segregated freelists (64 B minimum class) carved lazily from a bump
//!   pointer. Every granule carries a generation tag, bumped on free, so
//!   a stale descriptor (use-after-reap) is detected instead of reading
//!   someone else's bytes.
//! * [`ArenaRegion`] — a per-session *quota* over the shared arena: the
//!   storage is common, but each session's bytes-in-flight are bounded,
//!   so one flooding session degrades to the copy fallback instead of
//!   starving its neighbours.
//! * [`ArenaSlot`] — an RAII handle to one allocation. Dropping it frees
//!   the slot and settles the accounting, which is what makes every
//!   teardown path (EIDRM fills, ring drops, async drop-cancel, bounced
//!   submissions) leak-free without special cases: the slot rides inside
//!   [`ArgRef::Arena`] and dies with the request
//!   or response that owned it. Every slot belongs to a region: it holds
//!   the region's state (which owns the arena) and its
//!   `(offset, len, generation)` triple, 24 bytes in all, and derives the
//!   block it was charged from `len`.
//!
//! [`ArgRef`] is 32 bytes: payloads up to [`INLINE_ARG_MAX`] (24) bytes
//! ride inline, which with the entry header fits a whole
//! `SmodCallReq`/`SmodCallResp` ring slot in one 64-byte cache line.
//!
//! # Safety
//!
//! This module extends the crate's small `unsafe` surface (see
//! [`crate::ring`]): the arena's bytes live behind an `UnsafeCell`, and
//! the alloc/free protocol hands each `[offset, offset + len)` range to
//! exactly one owner at a time — the producer that allocated it, then
//! (by ring handoff, which is `Release`/`Acquire`) the consumer that
//! pops the descriptor. Between alloc and free nobody else reads or
//! writes the range, the same exclusivity argument the Vyukov ring
//! makes for its slots.
//!
//! The bytes start uninitialised, so an arena commits memory only for
//! the pages its payloads touch. No uninitialised byte is ever read:
//! every [`ArenaSlot`] is born in `ArenaRegion::adopt`, which first
//! writes exactly the slot's `len` bytes at its offset, and a slot is
//! read only through `ArgArena::slice`, which covers exactly
//! `[offset, offset + len)`.

use crate::ring::CachePadded;
use parking_lot::Mutex;
use secmod_obs::ArenaMetrics;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Arena allocation granularity and the smallest size class: every slot
/// is a power-of-two multiple of this many bytes, and generation tags
/// are tracked per granule.
pub const ARENA_GRANULE: usize = 64;

/// Payloads at or below this many bytes ride inline in the ring entry;
/// larger payloads go through the arena when one is attached. 24 is what
/// keeps [`ArgRef`] at 32 bytes and so each call-ring slot at one 64-byte
/// line: a 25–64 B payload costs an arena slot (or a heap copy) instead
/// of a second cache line on every entry.
pub const INLINE_ARG_MAX: usize = 24;

/// Default per-class resident cap for region magazines (see
/// [`ArenaRegion::with_magazine`]): how many free blocks of one size
/// class a region may keep parked for reuse before drops fall back to
/// the shared freelist.
pub const MAGAZINE_DEPTH: usize = 16;

/// Largest size class a magazine caches: blocks of
/// `ARENA_GRANULE << MAG_MAX_CLASS` bytes (4 KiB). Bigger blocks always
/// use the shared freelists — parking a handful of 64 KiB runs per
/// session would pin real capacity for traffic that is rare by
/// construction.
const MAG_MAX_CLASS: usize = 6;

/// One size class: free offsets of one power-of-two block size.
#[derive(Debug, Default)]
struct FreeList(Mutex<Vec<u32>>);

/// The shared argument arena. See the module docs.
pub struct ArgArena {
    /// The byte region. Per-byte `UnsafeCell` because slots are written
    /// and read through `&self`; the alloc/free protocol provides
    /// exclusivity per range. `MaybeUninit` because a byte is written
    /// only when a payload first lands on it (see the module's safety
    /// notes).
    bytes: Box<[UnsafeCell<MaybeUninit<u8>>]>,
    /// Next never-allocated offset; blocks are carved from here when a
    /// size class's freelist is empty. Never rewinds.
    bump: CachePadded<AtomicU64>,
    /// Per-class freelists; class `c` holds blocks of
    /// `ARENA_GRANULE << c` bytes.
    classes: Box<[FreeList]>,
    /// Per-granule generation tags (indexed by `offset / ARENA_GRANULE`),
    /// bumped on free. A descriptor whose generation no longer matches
    /// its first granule's tag is stale.
    generations: Box<[AtomicU32]>,
    /// Shared utilisation accounting (optional).
    metrics: Option<Arc<ArenaMetrics>>,
}

// SAFETY: the arena is a slot allocator — `alloc_block` and `grab_blocks`
// hand each `[offset, offset + len)` range to exactly one `ArenaSlot`
// owner, and the range is not touched by anyone else until that slot is
// dropped (frees re-insert it into a freelist under a lock). Cross-thread
// handoff of a slot happens through the dispatch rings, whose
// `Release`/`Acquire` sequence protocol orders the producer's writes
// before the consumer's reads. All remaining shared state is atomics
// and mutex-guarded freelists.
unsafe impl Send for ArgArena {}
unsafe impl Sync for ArgArena {}

// The generation tags are built as `u32`s and read as `AtomicU32`s.
const _: () = assert!(
    std::mem::size_of::<AtomicU32>() == std::mem::size_of::<u32>()
        && std::mem::align_of::<AtomicU32>() == std::mem::align_of::<u32>()
);

impl std::fmt::Debug for ArgArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArgArena")
            .field("capacity", &self.capacity())
            .field("bump", &self.bump.0.load(Ordering::Relaxed))
            .finish()
    }
}

impl ArgArena {
    /// Create an arena of at least `capacity` bytes (rounded up to a
    /// whole number of granules, minimum one granule).
    pub fn with_capacity(capacity: usize) -> Arc<ArgArena> {
        ArgArena::build(capacity, None)
    }

    /// [`ArgArena::with_capacity`] wired to a shared metrics registry:
    /// allocs, frees, bytes in flight and fallback counts land there.
    pub fn with_metrics(capacity: usize, metrics: Arc<ArenaMetrics>) -> Arc<ArgArena> {
        ArgArena::build(capacity, Some(metrics))
    }

    fn build(capacity: usize, metrics: Option<Arc<ArenaMetrics>>) -> Arc<ArgArena> {
        let granules = capacity.max(ARENA_GRANULE).div_ceil(ARENA_GRANULE);
        let capacity = granules * ARENA_GRANULE;
        // Largest class that fits the region: ARENA_GRANULE << n_classes-1.
        let n_classes = (capacity / ARENA_GRANULE)
            .next_power_of_two()
            .trailing_zeros() as usize
            + 1;
        let bytes = Box::<[u8]>::new_uninit_slice(capacity);
        // Zeroed by the allocator, so a large arena's tags are untouched
        // pages until a block is carved over them.
        let generations = vec![0u32; granules].into_boxed_slice();
        Arc::new(ArgArena {
            // SAFETY: `UnsafeCell<T>` is `repr(transparent)` over `T`, so
            // the slice keeps its length, layout and allocation.
            bytes: unsafe {
                Box::from_raw(Box::into_raw(bytes) as *mut [UnsafeCell<MaybeUninit<u8>>])
            },
            bump: CachePadded(AtomicU64::new(0)),
            classes: (0..n_classes).map(|_| FreeList::default()).collect(),
            // SAFETY: `AtomicU32` has the size, alignment (asserted above)
            // and bit validity of `u32`, and the box is the only owner of
            // its allocation.
            generations: unsafe { Box::from_raw(Box::into_raw(generations) as *mut [AtomicU32]) },
            metrics,
        })
    }

    /// A pointer to the `len` bytes at `offset`, derived from the whole
    /// slice so it may address the range in one piece.
    fn range_ptr(&self, offset: u32, len: usize) -> *mut u8 {
        assert!(
            (offset as usize).saturating_add(len) <= self.bytes.len(),
            "arena range {offset}+{len} out of bounds"
        );
        // SAFETY: the assert keeps the offset pointer, and the range
        // behind it, inside the one allocation.
        let cell = unsafe { self.bytes.as_ptr().add(offset as usize) };
        UnsafeCell::raw_get(cell).cast::<u8>()
    }

    /// Total bytes the arena can hold.
    pub fn capacity(&self) -> usize {
        self.bytes.len()
    }

    /// The size class for a payload of `len` bytes, or `None` when the
    /// payload exceeds the largest class.
    fn class_of(&self, len: usize) -> Option<usize> {
        let blocks = len.max(1).div_ceil(ARENA_GRANULE).next_power_of_two();
        let class = blocks.trailing_zeros() as usize;
        (class < self.classes.len()).then_some(class)
    }

    /// The block size (bytes) of size class `class`.
    fn class_bytes(class: usize) -> usize {
        ARENA_GRANULE << class
    }

    /// The class and block size of a live slot holding `len` bytes: what
    /// it was charged, derived rather than stored.
    fn block_of(&self, len: u32) -> (usize, u64) {
        let class = self
            .class_of(len as usize)
            .expect("a live slot was allocated from a valid class");
        (class, Self::class_bytes(class) as u64)
    }

    /// Take one free block of `class`: a freelist pop, else a fresh carve
    /// from the bump region. `None` when the arena is out of space. The
    /// block is counted as allocated at once.
    fn alloc_block(&self, class: usize) -> Option<u32> {
        let block = Self::class_bytes(class);
        let offset = match self.classes[class].0.lock().pop() {
            Some(offset) => offset,
            None => {
                // Carve a fresh block from the bump region.
                let offset = self.bump.0.fetch_add(block as u64, Ordering::Relaxed);
                if offset + block as u64 > self.capacity() as u64 {
                    // Roll the reservation back so repeated failures
                    // cannot push `bump` past the point where later,
                    // smaller allocations would still fit.
                    self.bump.0.fetch_sub(block as u64, Ordering::Relaxed);
                    return None;
                }
                offset as u32
            }
        };
        if let Some(m) = &self.metrics {
            m.allocs.incr();
            m.bytes_in_flight.add(block as u64);
        }
        Some(offset)
    }

    /// Copy `payload` into the block at `offset`, which the caller owns,
    /// and return the block's current generation.
    fn write(&self, offset: u32, payload: &[u8]) -> u32 {
        let gen = self.generations[offset as usize / ARENA_GRANULE].load(Ordering::Acquire);
        // SAFETY: the block at `offset` was popped from a freelist, carved
        // from the bump pointer or popped from a magazine by the caller —
        // in every case this thread is its only owner until the slot it
        // becomes is dropped, and the block holds at least
        // `payload.len()` bytes. `range_ptr` checked that the range lies
        // in the region's one allocation.
        unsafe {
            std::ptr::copy_nonoverlapping(
                payload.as_ptr(),
                self.range_ptr(offset, payload.len()),
                payload.len(),
            );
        }
        gen
    }

    /// Read a slot's bytes. Only called through [`ArenaSlot::as_slice`],
    /// whose ownership makes the range stable.
    fn slice(&self, offset: u32, len: u32) -> &[u8] {
        if len == 0 {
            return &[];
        }
        // SAFETY: the caller owns the slot covering this range; nobody
        // else writes it until the slot is freed. `adopt` wrote exactly
        // these `len` bytes before the slot existed, so none is
        // uninitialised, and `range_ptr` checked that the range lies in
        // the region's one allocation.
        unsafe { std::slice::from_raw_parts(self.range_ptr(offset, len as usize), len as usize) }
    }

    /// Return a slot's block to its freelist and bump the generation so
    /// stale descriptors are detectable. Internal: driven by
    /// [`ArenaSlot`]'s `Drop`.
    fn free(&self, offset: u32, len: u32, gen: u32) {
        let (class, block) = self.block_of(len);
        let granule = offset as usize / ARENA_GRANULE;
        let current = self.generations[granule].load(Ordering::Acquire);
        if current != gen {
            // A stale double-free (the slot was already recycled): drop
            // it on the floor rather than corrupting the freelist.
            if let Some(m) = &self.metrics {
                m.gen_mismatches.incr();
            }
            return;
        }
        self.generations[granule].store(gen.wrapping_add(1), Ordering::Release);
        if let Some(m) = &self.metrics {
            m.frees.incr();
            m.bytes_in_flight.sub(block);
        }
        self.classes[class].0.lock().push(offset);
    }

    /// Bulk-acquire up to `want` blocks of `class` for a magazine refill:
    /// freelist pops first (one lock acquisition for the whole batch),
    /// then bump carves. The blocks are accounted as allocated (and their
    /// bytes as in flight) immediately — magazine-resident blocks count
    /// as charged, which is what keeps `bytes_in_flight == 0` teardown
    /// invariants exact: every grabbed block is either returned by
    /// [`ArgArena::return_blocks`] or freed through a slot. Returns how
    /// many blocks were pushed onto `out`.
    fn grab_blocks(&self, class: usize, want: usize, out: &mut Vec<u32>) -> usize {
        let block = Self::class_bytes(class);
        let mut got = 0;
        {
            let mut list = self.classes[class].0.lock();
            while got < want {
                match list.pop() {
                    Some(offset) => {
                        out.push(offset);
                        got += 1;
                    }
                    None => break,
                }
            }
        }
        while got < want {
            let offset = self.bump.0.fetch_add(block as u64, Ordering::Relaxed);
            if offset + block as u64 > self.capacity() as u64 {
                self.bump.0.fetch_sub(block as u64, Ordering::Relaxed);
                break;
            }
            out.push(offset as u32);
            got += 1;
        }
        if got > 0 {
            if let Some(m) = &self.metrics {
                m.allocs.add(got as u64);
                m.bytes_in_flight.add((got * block) as u64);
            }
        }
        got
    }

    /// Return a magazine's parked blocks of `class` to the shared
    /// freelist in bulk — one lock acquisition, one metrics settle.
    /// Generations were already bumped when each block entered the
    /// magazine (recycle) or were never observed by a descriptor (refill
    /// surplus), so the blocks go straight back.
    fn return_blocks(&self, class: usize, offsets: &mut Vec<u32>) {
        if offsets.is_empty() {
            return;
        }
        if let Some(m) = &self.metrics {
            m.frees.add(offsets.len() as u64);
            m.bytes_in_flight
                .sub((offsets.len() * Self::class_bytes(class)) as u64);
        }
        self.classes[class].0.lock().append(offsets);
    }

    /// Count one fallback-to-copy event (arena full or quota exhausted).
    fn count_fallback(&self) {
        if let Some(m) = &self.metrics {
            m.alloc_fallbacks.incr();
        }
    }

    /// The metrics registry this arena reports into, if any.
    pub fn metrics(&self) -> Option<&Arc<ArenaMetrics>> {
        self.metrics.as_ref()
    }
}

/// A region's parked free blocks: one bounded stack of pre-charged
/// offsets per (small) size class, sitting in front of the arena's
/// shared freelists. While a block is resident here it stays charged to
/// the region's quota and to the arena's `bytes_in_flight` — the
/// magazine moves *where* a free block waits, never what is accounted.
///
/// The magazine is region-local rather than literally thread-local: a
/// ring session has one producer by construction, so the region's
/// private mutex is uncontended on the hot path (and every access uses
/// `try_lock`, degrading to the shared path instead of ever blocking a
/// drainer against a producer).
struct Magazine {
    /// `stacks[c]` holds free offsets of class `c` blocks, newest last.
    stacks: Box<[Vec<u32>]>,
    /// Per-class resident cap; recycle falls back to the shared freelist
    /// beyond it.
    depth: usize,
}

impl Magazine {
    /// Bytes parked across all classes.
    fn resident_bytes(&self) -> u64 {
        self.stacks
            .iter()
            .enumerate()
            .map(|(class, stack)| (stack.len() * ArgArena::class_bytes(class)) as u64)
            .sum()
    }

    /// Return every parked block to `arena`'s shared freelists and
    /// uncharge them from `in_flight`. Returns the bytes released.
    fn flush(&mut self, arena: &ArgArena, in_flight: &AtomicU64) -> u64 {
        let released = self.resident_bytes();
        for (class, stack) in self.stacks.iter_mut().enumerate() {
            arena.return_blocks(class, stack);
        }
        if released > 0 {
            in_flight.fetch_sub(released, Ordering::AcqRel);
        }
        released
    }
}

impl std::fmt::Debug for Magazine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Magazine")
            .field("depth", &self.depth)
            .field("resident_bytes", &self.resident_bytes())
            .finish()
    }
}

/// Internal per-region accounting shared by the region and the slots it
/// allocated (slots settle the quota on drop). It owns the arena handle,
/// so a slot reaches both its bytes and its region through one pointer.
#[derive(Debug)]
struct RegionState {
    arena: Arc<ArgArena>,
    in_flight: AtomicU64,
    /// The region's magazine, when enabled ([`ArenaRegion::with_magazine`]).
    magazine: Option<Mutex<Magazine>>,
}

impl RegionState {
    /// Try to park a dropping slot's block in the magazine instead of
    /// freeing it: generation check-and-bump exactly as [`ArgArena::free`]
    /// performs it, then a stack push — the block stays charged. Returns
    /// `false` (caller takes the shared free path) when there is no
    /// magazine, the class is too big, the stack is full, the lock is
    /// contended, or the generation is stale (the shared path then counts
    /// the mismatch, as before).
    fn try_recycle(&self, class: usize, offset: u32, gen: u32) -> bool {
        let Some(mutex) = self.magazine.as_ref() else {
            return false;
        };
        let Some(mut mag) = mutex.try_lock() else {
            return false;
        };
        if class >= mag.stacks.len() || mag.stacks[class].len() >= mag.depth {
            return false;
        }
        let granule = offset as usize / ARENA_GRANULE;
        let generations = &self.arena.generations;
        if generations[granule].load(Ordering::Acquire) != gen {
            return false;
        }
        generations[granule].store(gen.wrapping_add(1), Ordering::Release);
        mag.stacks[class].push(offset);
        true
    }
}

impl Drop for RegionState {
    fn drop(&mut self) {
        // The last handle (region clone or outstanding slot) is gone:
        // settle the magazine so `bytes_in_flight` returns to exactly
        // what it was before the region existed. This is what keeps the
        // plane/teardown `bytes_in_flight == 0` assertions holding
        // bit-for-bit with magazines enabled.
        if let Some(mutex) = self.magazine.as_mut() {
            mutex.get_mut().flush(&self.arena, &self.in_flight);
        }
    }
}

/// A per-session quota over a shared [`ArgArena`].
///
/// Cloning is cheap (one `Arc`); clones share the quota accounting, so
/// a session's producer and the kernel's result placement draw from the
/// same budget.
#[derive(Clone, Debug)]
pub struct ArenaRegion {
    state: Arc<RegionState>,
    /// Most bytes this region may hold in flight at once.
    quota: u64,
}

impl ArenaRegion {
    /// A region of `arena` bounded to `quota` bytes in flight.
    pub fn new(arena: Arc<ArgArena>, quota: usize) -> ArenaRegion {
        ArenaRegion::build(arena, quota, None)
    }

    /// [`ArenaRegion::new`] plus a magazine: the region keeps up to
    /// `depth` free blocks per (small) size class parked for reuse, so
    /// the common oversize-arg allocation is a stack pop under the
    /// region's own (uncontended) lock instead of a shared freelist
    /// acquisition. Parked blocks count as charged — against the quota
    /// and against the arena's `bytes_in_flight` — and are flushed back
    /// to the shared freelists when the region's last handle drops, on
    /// [`ArenaRegion::flush_magazine`], or automatically when quota or
    /// arena pressure needs the bytes back.
    pub fn with_magazine(arena: Arc<ArgArena>, quota: usize, depth: usize) -> ArenaRegion {
        // Only classes the arena actually has, capped at the magazine
        // maximum (4 KiB blocks).
        let n_classes = arena.classes.len().min(MAG_MAX_CLASS + 1);
        let magazine = Magazine {
            stacks: (0..n_classes).map(|_| Vec::with_capacity(depth)).collect(),
            depth: depth.max(1),
        };
        ArenaRegion::build(arena, quota, Some(Mutex::new(magazine)))
    }

    fn build(arena: Arc<ArgArena>, quota: usize, magazine: Option<Mutex<Magazine>>) -> ArenaRegion {
        ArenaRegion {
            state: Arc::new(RegionState {
                arena,
                in_flight: AtomicU64::new(0),
                magazine,
            }),
            quota: quota as u64,
        }
    }

    /// Optimistically charge `bytes` against the quota; `Err` rolls the
    /// charge back. The charge is what bounds a flooding session: its
    /// oversize traffic degrades to the copy fallback while other
    /// regions keep their arena budget.
    fn charge(&self, bytes: u64) -> Result<(), ()> {
        if self.state.in_flight.fetch_add(bytes, Ordering::AcqRel) + bytes > self.quota {
            self.state.in_flight.fetch_sub(bytes, Ordering::AcqRel);
            return Err(());
        }
        Ok(())
    }

    /// Charge up to `want` blocks of `block` bytes each, returning how
    /// many fit under the quota (possibly zero). Overshoot is rolled
    /// back, so concurrent clones stay exact.
    fn charge_up_to(&self, want: usize, block: u64) -> usize {
        let want_bytes = want as u64 * block;
        let prev = self.state.in_flight.fetch_add(want_bytes, Ordering::AcqRel);
        let room = self.quota.saturating_sub(prev);
        let granted = (room / block).min(want as u64);
        let excess = want_bytes - granted * block;
        if excess > 0 {
            self.state.in_flight.fetch_sub(excess, Ordering::AcqRel);
        }
        granted as usize
    }

    /// Copy `payload` into the block at `offset`, which this region has
    /// charged and the caller owns, and wrap it as this region's slot.
    fn adopt(&self, offset: u32, payload: &[u8]) -> ArenaSlot {
        ArenaSlot {
            gen: self.state.arena.write(offset, payload),
            state: Arc::clone(&self.state),
            offset,
            len: payload.len() as u32,
        }
    }

    /// Pop a parked block and adopt the payload into it. The quota stays
    /// as-is: the block was already charged when it entered the magazine.
    fn alloc_from_magazine(
        &self,
        mag: &mut Magazine,
        class: usize,
        payload: &[u8],
    ) -> Option<ArenaSlot> {
        let offset = mag.stacks.get_mut(class)?.pop()?;
        Some(self.adopt(offset, payload))
    }

    /// Refill `class`'s stack: charge as many blocks as quota allows (up
    /// to the magazine depth), then bulk-grab them from the arena under
    /// one freelist lock. Blocks that were charged but not obtainable
    /// (arena exhausted) are uncharged again. Returns how many blocks
    /// landed in the stack.
    fn refill_magazine(&self, mag: &mut Magazine, class: usize, block: u64) -> usize {
        let want = mag.depth.saturating_sub(mag.stacks[class].len());
        if want == 0 {
            return 0;
        }
        let granted = self.charge_up_to(want, block);
        if granted == 0 {
            return 0;
        }
        let got = self
            .state
            .arena
            .grab_blocks(class, granted, &mut mag.stacks[class]);
        if got < granted {
            self.state
                .in_flight
                .fetch_sub((granted - got) as u64 * block, Ordering::AcqRel);
        }
        got
    }

    /// Copy `payload` into an arena slot charged to this region, or
    /// `None` when the quota or the arena is exhausted (the fallback is
    /// counted against the arena's metrics either way).
    ///
    /// With a magazine enabled the common case is a pointer pop from the
    /// region's parked blocks; an empty stack triggers a bulk refill
    /// under the shared lock. Either way the quota bound is unchanged:
    /// when parked-but-idle bytes are what stands between this
    /// allocation and its quota (or the arena's capacity), the magazine
    /// is flushed and the allocation retried once — a region with a
    /// magazine can always reach exactly the in-flight bytes a plain
    /// region could.
    pub fn alloc_with(&self, payload: &[u8]) -> Option<ArenaSlot> {
        let arena = &self.state.arena;
        let Some(class) = arena.class_of(payload.len()) else {
            arena.count_fallback();
            return None;
        };
        let block = ArgArena::class_bytes(class) as u64;
        // Fast path: magazine pop (refilling in bulk when empty).
        if let Some(mutex) = self.state.magazine.as_ref() {
            if class < MAG_MAX_CLASS + 1 {
                if let Some(mut mag) = mutex.try_lock() {
                    if class < mag.stacks.len() {
                        if let Some(slot) = self.alloc_from_magazine(&mut mag, class, payload) {
                            return Some(slot);
                        }
                        if self.refill_magazine(&mut mag, class, block) > 0 {
                            if let Some(slot) = self.alloc_from_magazine(&mut mag, class, payload) {
                                return Some(slot);
                            }
                        }
                    }
                }
            }
        }
        // Shared path — also the magazine's pressure valve: a failed
        // charge or an exhausted arena flushes the parked blocks and
        // retries once before falling back to the copy path.
        if self.charge(block).is_err()
            && (self.flush_magazine() == 0 || self.charge(block).is_err())
        {
            arena.count_fallback();
            return None;
        }
        let mut offset = arena.alloc_block(class);
        if offset.is_none() && self.flush_magazine() > 0 {
            // Arena-level exhaustion: our own parked blocks may be
            // exactly the capacity the arena is missing.
            offset = arena.alloc_block(class);
        }
        match offset {
            Some(offset) => Some(self.adopt(offset, payload)),
            None => {
                self.state.in_flight.fetch_sub(block, Ordering::AcqRel);
                arena.count_fallback();
                None
            }
        }
    }

    /// Bytes currently charged to this region — live slots plus any
    /// magazine-resident (parked) blocks.
    pub fn in_flight(&self) -> u64 {
        self.state.in_flight.load(Ordering::Acquire)
    }

    /// Bytes parked in the region's magazine (charged but idle). Zero
    /// for regions without a magazine.
    pub fn magazine_resident(&self) -> u64 {
        match self.state.magazine.as_ref() {
            Some(mutex) => mutex.lock().resident_bytes(),
            None => 0,
        }
    }

    /// Return every parked block to the shared freelists and uncharge
    /// them, settling `in_flight` down to live slots only. Returns the
    /// bytes released. A no-op (0) for regions without a magazine.
    pub fn flush_magazine(&self) -> u64 {
        match self.state.magazine.as_ref() {
            Some(mutex) => mutex.lock().flush(&self.state.arena, &self.state.in_flight),
            None => 0,
        }
    }

    /// The region's quota in bytes.
    pub fn quota(&self) -> u64 {
        self.quota
    }

    /// The shared arena this region draws from.
    pub fn arena(&self) -> &Arc<ArgArena> {
        &self.state.arena
    }
}

/// RAII ownership of one arena allocation: dropping the slot frees it
/// (and settles the owning region's quota by the block its `len` was
/// charged). Not `Clone` — exactly one owner at a time is the whole
/// safety argument.
pub struct ArenaSlot {
    /// The owning region's state, and through it the arena.
    state: Arc<RegionState>,
    offset: u32,
    len: u32,
    /// Generation observed at alloc; must still match at free.
    gen: u32,
}

const _: () = assert!(std::mem::size_of::<ArenaSlot>() == 24);

impl ArenaSlot {
    /// The payload, read in place from the shared arena.
    pub fn as_slice(&self) -> &[u8] {
        self.state.arena.slice(self.offset, self.len)
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Is the payload empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The descriptor triple `(offset, len, generation)` — what would
    /// cross a real shared-memory boundary instead of the payload.
    pub fn descriptor(&self) -> (u32, u32, u32) {
        (self.offset, self.len, self.gen)
    }

    /// Does this slot's generation still match the arena's tag (i.e. the
    /// slot has not been recycled under a stale descriptor)?
    pub fn is_current(&self) -> bool {
        self.state.arena.generations[self.offset as usize / ARENA_GRANULE].load(Ordering::Acquire)
            == self.gen
    }
}

impl std::fmt::Debug for ArenaSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArenaSlot")
            .field("offset", &self.offset)
            .field("len", &self.len)
            .field("gen", &self.gen)
            .finish()
    }
}

impl Drop for ArenaSlot {
    fn drop(&mut self) {
        let state = &self.state;
        let (class, block) = state.arena.block_of(self.len);
        // Park the block in the magazine when there is room: the
        // generation is checked and bumped exactly as `free` would, and
        // the block stays charged for reuse.
        if state.try_recycle(class, self.offset, self.gen) {
            return;
        }
        state.arena.free(self.offset, self.len, self.gen);
        state.in_flight.fetch_sub(block, Ordering::AcqRel);
    }
}

/// Inline payload storage for [`ArgRef::Inline`], wrapped to force
/// 8-byte alignment. A bare `[u8; N]` has alignment 1, and an enum
/// variant mixing an align-1 byte array with pointer-carrying variants
/// compiles to byte-granular moves through the ring slots; aligning
/// the array lets every enum move copy whole words (measurably faster
/// on the small-payload hand-off path).
#[derive(Clone, Copy)]
#[repr(align(8))]
pub struct InlineBuf(pub [u8; INLINE_ARG_MAX]);

/// An argument or result payload: inline bytes for small blocks, an
/// owned heap copy when no arena is available (or it is full), or an
/// arena descriptor for the zero-copy path. 32 bytes in every variant,
/// so a call-ring entry carrying one fits a single cache line.
///
/// Equality and hashing are by payload bytes — two `ArgRef`s carrying
/// the same bytes compare equal regardless of representation, which is
/// what lets the coherence suites diff arena-backed runs against
/// copy-path runs bit for bit.
pub enum ArgRef {
    /// ≤ [`INLINE_ARG_MAX`] bytes stored directly in the ring entry.
    Inline {
        /// Payload length (`≤ INLINE_ARG_MAX`).
        len: u8,
        /// The payload bytes (`buf[..len]`).
        buf: InlineBuf,
    },
    /// An owned heap copy of a payload above [`INLINE_ARG_MAX`] that
    /// found no arena room (no region, quota exhausted, arena full, or
    /// larger than the arena's largest class).
    Heap(Vec<u8>),
    /// A slot in a shared [`ArgArena`], read in place.
    Arena(ArenaSlot),
}

const _: () = assert!(std::mem::size_of::<ArgRef>() == 32);

impl ArgRef {
    /// An empty payload.
    pub fn empty() -> ArgRef {
        ArgRef::Inline {
            len: 0,
            buf: InlineBuf([0; INLINE_ARG_MAX]),
        }
    }

    /// The part of the size rule that borrowed and owned payloads share:
    /// inline when small, else an arena slot when a region is given and
    /// has budget. `None` leaves the caller its by-value fallback.
    fn place_shared(bytes: &[u8], region: Option<&ArenaRegion>) -> Option<ArgRef> {
        if bytes.len() <= INLINE_ARG_MAX {
            let mut buf = InlineBuf([0u8; INLINE_ARG_MAX]);
            buf.0[..bytes.len()].copy_from_slice(bytes);
            return Some(ArgRef::Inline {
                len: bytes.len() as u8,
                buf,
            });
        }
        region?.alloc_with(bytes).map(ArgRef::Arena)
    }

    /// Place `bytes` by the size rule: inline when small, an arena slot
    /// when a region is given and has budget, an owned copy otherwise.
    pub fn place(bytes: &[u8], region: Option<&ArenaRegion>) -> ArgRef {
        ArgRef::place_shared(bytes, region).unwrap_or_else(|| ArgRef::Heap(bytes.to_vec()))
    }

    /// [`ArgRef::place_vec`] with no arena region.
    pub fn from_vec(bytes: Vec<u8>) -> ArgRef {
        ArgRef::place_vec(bytes, None)
    }

    /// [`ArgRef::place`] for an owned buffer — the same size rule, so a
    /// payload's representation never depends on whether it arrived as a
    /// slice or as a `Vec`.
    ///
    /// Small buffers are copied inline and the `Vec` is freed here, on
    /// the thread that allocated it. An `ArgRef` is made to be consumed
    /// on another thread (the drainer drops a request, the producer drops
    /// a result), so a small `Heap` would be a `malloc` on one core and a
    /// `free` on the other for every call — which costs the plane's
    /// producer more than the ring hand-off itself. The price is that
    /// [`ArgRef::into_vec`] on an inline payload allocates.
    ///
    /// Large buffers go to the arena when the region has budget; only
    /// the quota/full fallback (and "no region") keeps the buffer, as
    /// `Heap`, instead of copying it.
    pub fn place_vec(bytes: Vec<u8>, region: Option<&ArenaRegion>) -> ArgRef {
        ArgRef::place_shared(&bytes, region).unwrap_or(ArgRef::Heap(bytes))
    }

    /// The payload bytes, wherever they live.
    pub fn as_slice(&self) -> &[u8] {
        match self {
            ArgRef::Inline { len, buf } => &buf.0[..*len as usize],
            ArgRef::Heap(v) => v,
            ArgRef::Arena(slot) => slot.as_slice(),
        }
    }

    /// Payload length in bytes.
    pub fn len(&self) -> usize {
        match self {
            ArgRef::Inline { len, .. } => *len as usize,
            ArgRef::Heap(v) => v.len(),
            ArgRef::Arena(slot) => slot.len(),
        }
    }

    /// Is the payload empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Does the payload avoid a per-byte copy through the ring (i.e. it
    /// rides by descriptor)? The cost model charges arena payloads a
    /// flat slot fee instead of `copy_per_byte_ns x len`.
    pub fn is_arena(&self) -> bool {
        matches!(self, ArgRef::Arena(_))
    }

    /// Extract an owned copy of the payload, consuming the ref (and
    /// freeing the arena slot, when there is one). Only `Heap` hands its
    /// buffer over; inline and arena payloads are copied out.
    pub fn into_vec(self) -> Vec<u8> {
        match self {
            ArgRef::Heap(v) => v,
            other => other.as_slice().to_vec(),
        }
    }
}

impl Default for ArgRef {
    fn default() -> ArgRef {
        ArgRef::empty()
    }
}

impl Clone for ArgRef {
    /// Cloning an arena-backed ref produces an owned copy: the slot has
    /// exactly one owner, so a clone cannot share it.
    fn clone(&self) -> ArgRef {
        match self {
            ArgRef::Inline { len, buf } => ArgRef::Inline {
                len: *len,
                buf: *buf,
            },
            ArgRef::Heap(v) => ArgRef::Heap(v.clone()),
            ArgRef::Arena(slot) => ArgRef::Heap(slot.as_slice().to_vec()),
        }
    }
}

impl PartialEq for ArgRef {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ArgRef {}

impl std::fmt::Debug for ArgRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mode = match self {
            ArgRef::Inline { .. } => "inline",
            ArgRef::Heap(_) => "heap",
            ArgRef::Arena(_) => "arena",
        };
        write!(f, "ArgRef::{mode}({} B)", self.len())
    }
}

impl From<Vec<u8>> for ArgRef {
    fn from(bytes: Vec<u8>) -> ArgRef {
        ArgRef::from_vec(bytes)
    }
}

impl From<&[u8]> for ArgRef {
    fn from(bytes: &[u8]) -> ArgRef {
        ArgRef::place(bytes, None)
    }
}

impl<const N: usize> From<[u8; N]> for ArgRef {
    fn from(bytes: [u8; N]) -> ArgRef {
        ArgRef::place(&bytes, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A region of `arena` whose quota never binds: the arena alone
    /// decides whether an allocation fits.
    fn unlimited(arena: &Arc<ArgArena>) -> ArenaRegion {
        ArenaRegion::new(Arc::clone(arena), usize::MAX)
    }

    #[test]
    fn round_trips_payloads_of_every_class() {
        let region = unlimited(&ArgArena::with_capacity(1 << 20));
        for size in [1usize, 63, 64, 65, 512, 4096, 65536] {
            let payload: Vec<u8> = (0..size).map(|i| (i % 251) as u8).collect();
            let slot = region.alloc_with(&payload).expect("alloc");
            assert_eq!(slot.as_slice(), payload.as_slice(), "size {size}");
            assert!(slot.is_current());
        }
    }

    #[test]
    fn freed_blocks_are_reused_and_generations_advance() {
        let region = unlimited(&ArgArena::with_capacity(4096));
        let slot = region.alloc_with(&[7u8; 100]).unwrap();
        let (off1, _, gen1) = slot.descriptor();
        drop(slot);
        let slot2 = region.alloc_with(&[9u8; 100]).unwrap();
        let (off2, _, gen2) = slot2.descriptor();
        assert_eq!(off1, off2, "freelist must recycle the block");
        assert_eq!(gen2, gen1.wrapping_add(1), "free must bump the generation");
    }

    #[test]
    fn exhaustion_returns_none_and_recovers() {
        let region = unlimited(&ArgArena::with_capacity(256));
        let a = region.alloc_with(&[1u8; 128]).unwrap();
        let b = region.alloc_with(&[2u8; 128]).unwrap();
        assert!(region.alloc_with(&[3u8; 64]).is_none(), "arena is full");
        // Payloads beyond the largest class can never fit.
        assert!(region.alloc_with(&vec![0u8; 1024]).is_none());
        drop(a);
        let c = region.alloc_with(&[4u8; 128]).unwrap();
        assert_eq!(c.as_slice(), &[4u8; 128]);
        drop((b, c));
    }

    #[test]
    fn region_quota_bounds_in_flight_bytes() {
        let arena = ArgArena::with_capacity(1 << 16);
        let region = ArenaRegion::new(Arc::clone(&arena), 4096);
        let a = region.alloc_with(&[1u8; 2048]).unwrap();
        let b = region.alloc_with(&[2u8; 2048]).unwrap();
        assert_eq!(region.in_flight(), 4096);
        assert!(
            region.alloc_with(&[3u8; 128]).is_none(),
            "quota exhausted even though the arena has space"
        );
        drop(a);
        assert_eq!(region.in_flight(), 2048);
        let c = region.alloc_with(&[4u8; 1024]).unwrap();
        drop((b, c));
        assert_eq!(region.in_flight(), 0, "drops settle the quota");
    }

    #[test]
    fn metrics_track_alloc_free_and_fallbacks() {
        let metrics = Arc::new(secmod_obs::ArenaMetrics::new());
        let arena = ArgArena::with_metrics(4096, Arc::clone(&metrics));
        let region = ArenaRegion::new(Arc::clone(&arena), 4096);
        let slot = region.alloc_with(&[5u8; 1000]).unwrap();
        assert_eq!(metrics.allocs.get(), 1);
        assert_eq!(metrics.bytes_in_flight.get(), 1024);
        assert!(region.alloc_with(&vec![0u8; 100_000]).is_none());
        assert_eq!(metrics.alloc_fallbacks.get(), 1);
        drop(slot);
        assert_eq!(metrics.frees.get(), 1);
        assert_eq!(metrics.bytes_in_flight.get(), 0);
        assert_eq!(metrics.bytes_in_flight.high_water(), 1024);
    }

    #[test]
    fn argref_placement_rule_and_equality_by_bytes() {
        let arena = ArgArena::with_capacity(1 << 16);
        let region = ArenaRegion::new(arena, 1 << 16);
        let small = ArgRef::place(&[1, 2, 3], Some(&region));
        assert!(matches!(small, ArgRef::Inline { .. }));
        let big = ArgRef::place(&[9u8; 1000], Some(&region));
        assert!(big.is_arena());
        let copy = ArgRef::place(&[9u8; 1000], None);
        assert!(matches!(copy, ArgRef::Heap(_)));
        assert_eq!(big, copy, "equality is by payload bytes");
        // Cloning an arena ref degrades to an owned copy; the original
        // keeps the slot.
        let cloned = big.clone();
        assert!(matches!(cloned, ArgRef::Heap(_)));
        assert_eq!(cloned.as_slice(), big.as_slice());
        assert_eq!(big.into_vec(), vec![9u8; 1000]);
        assert_eq!(region.in_flight(), 0, "into_vec freed the slot");
    }

    #[test]
    fn owned_buffers_follow_the_same_size_rule_as_slices() {
        let arena = ArgArena::with_capacity(1 << 16);
        let region = ArenaRegion::new(arena, 4096);
        for size in [0usize, 8, INLINE_ARG_MAX] {
            for region in [None, Some(&region)] {
                let small = ArgRef::place_vec(vec![7u8; size], region);
                assert!(matches!(small, ArgRef::Inline { .. }), "{size} B");
                assert_eq!(small.as_slice(), vec![7u8; size]);
            }
            assert!(matches!(
                ArgRef::from(vec![7u8; size]),
                ArgRef::Inline { .. }
            ));
        }
        let big = vec![9u8; INLINE_ARG_MAX + 1];
        assert!(matches!(ArgRef::from_vec(big.clone()), ArgRef::Heap(_)));
        let in_arena = ArgRef::place_vec(big.clone(), Some(&region));
        assert!(in_arena.is_arena());
        assert_eq!(in_arena, ArgRef::from_vec(big), "equality is by bytes");
        drop(in_arena);

        // Quota exhausted: the fallback keeps the caller's buffer.
        let hog = region.alloc_with(&[1u8; 4096]).unwrap();
        let payload = vec![3u8; 1000];
        let buffer = payload.as_ptr();
        match ArgRef::place_vec(payload, Some(&region)) {
            ArgRef::Heap(kept) => assert_eq!(kept.as_ptr(), buffer, "no copy"),
            other => panic!("expected the heap fallback, got {other:?}"),
        }
        drop(hog);
        assert_eq!(region.in_flight(), 0);
    }

    #[test]
    fn magazine_pops_skip_the_shared_freelist_and_stay_charged() {
        let metrics = Arc::new(secmod_obs::ArenaMetrics::new());
        let arena = ArgArena::with_metrics(1 << 16, Arc::clone(&metrics));
        let region = ArenaRegion::with_magazine(Arc::clone(&arena), 1 << 16, 4);
        // First alloc bulk-refills: 4 blocks grabbed, all charged.
        let a = region.alloc_with(&[1u8; 100]).unwrap();
        assert_eq!(metrics.allocs.get(), 4, "refill grabs a batch");
        assert_eq!(metrics.bytes_in_flight.get(), 4 * 128);
        assert_eq!(region.in_flight(), 4 * 128);
        assert_eq!(region.magazine_resident(), 3 * 128);
        // Drop parks the block; the charge does not move.
        drop(a);
        assert_eq!(region.magazine_resident(), 4 * 128);
        assert_eq!(region.in_flight(), 4 * 128);
        assert_eq!(metrics.frees.get(), 0, "park is not a free");
        // Subsequent allocs are pure pops: no new arena allocs.
        let b = region.alloc_with(&[2u8; 100]).unwrap();
        let c = region.alloc_with(&[3u8; 100]).unwrap();
        assert_eq!(metrics.allocs.get(), 4, "pops must not touch the arena");
        assert_eq!(b.as_slice(), &[2u8; 100]);
        assert_eq!(c.as_slice(), &[3u8; 100]);
        drop((b, c));
        // Flush settles everything bit-for-bit.
        assert_eq!(region.flush_magazine(), 4 * 128);
        assert_eq!(region.in_flight(), 0);
        assert_eq!(metrics.bytes_in_flight.get(), 0);
        assert_eq!(metrics.frees.get(), 4);
    }

    #[test]
    fn magazine_recycle_bumps_generations_like_free() {
        let arena = ArgArena::with_capacity(1 << 16);
        let region = ArenaRegion::with_magazine(Arc::clone(&arena), 1 << 16, 4);
        let slot = region.alloc_with(&[7u8; 100]).unwrap();
        let (off1, _, gen1) = slot.descriptor();
        drop(slot); // parks in the magazine, bumping the generation
        let slot2 = region.alloc_with(&[9u8; 100]).unwrap();
        let (off2, _, gen2) = slot2.descriptor();
        assert_eq!(off1, off2, "magazine must recycle the parked block");
        assert_eq!(
            gen2,
            gen1.wrapping_add(1),
            "parking must bump the generation exactly as free does"
        );
    }

    #[test]
    fn magazine_never_shrinks_the_effective_quota() {
        // Quota fits exactly two 2 KiB blocks. The magazine refill for a
        // small class parks idle bytes; a large alloc that needs the full
        // quota must flush them and succeed, exactly as a plain region
        // would have.
        let arena = ArgArena::with_capacity(1 << 16);
        let region = ArenaRegion::with_magazine(Arc::clone(&arena), 4096, 16);
        let small = region.alloc_with(&[1u8; 100]).unwrap();
        assert!(
            region.magazine_resident() > 0,
            "refill must have parked blocks"
        );
        drop(small);
        let big = region
            .alloc_with(&[2u8; 4096])
            .expect("full-quota alloc must flush the magazine and succeed");
        assert_eq!(region.in_flight(), 4096);
        drop(big); // parks (class 6 is still magazine-cached)
        region.flush_magazine();
        assert_eq!(region.in_flight(), 0);
    }

    #[test]
    fn region_drop_returns_parked_capacity_to_other_regions() {
        // Arena of 8 granules (512 B). Region A's refill grabs — and its
        // magazine then parks — every block; a plain region B is starved
        // until A's last handle drops and the terminal flush returns the
        // blocks to the shared freelists.
        let arena = ArgArena::with_capacity(512);
        let a = ArenaRegion::with_magazine(Arc::clone(&arena), 512, 16);
        drop(a.alloc_with(&[1u8; 65]).unwrap()); // carve 4 × 128 B, park all
        assert_eq!(a.magazine_resident(), 512);
        let b = ArenaRegion::new(Arc::clone(&arena), 512);
        assert!(
            b.alloc_with(&[4u8; 65]).is_none(),
            "A's parked blocks pin the whole arena"
        );
        drop(a);
        assert!(
            b.alloc_with(&[4u8; 65]).is_some(),
            "dropping A must flush its parked blocks back"
        );
    }

    #[test]
    fn region_drop_flushes_magazine_to_zero_bytes_in_flight() {
        let metrics = Arc::new(secmod_obs::ArenaMetrics::new());
        let arena = ArgArena::with_metrics(1 << 16, Arc::clone(&metrics));
        let region = ArenaRegion::with_magazine(Arc::clone(&arena), 1 << 16, 8);
        let slot = region.alloc_with(&[5u8; 200]).unwrap();
        assert!(metrics.bytes_in_flight.get() > 0);
        // Region handle drops first; the slot still holds the state alive.
        drop(region);
        assert!(metrics.bytes_in_flight.get() > 0);
        drop(slot);
        assert_eq!(
            metrics.bytes_in_flight.get(),
            0,
            "terminal drop must flush parked blocks"
        );
        assert_eq!(metrics.allocs.get(), metrics.frees.get());
    }

    #[test]
    fn concurrent_alloc_free_never_overlaps() {
        let region = unlimited(&ArgArena::with_capacity(1 << 20));
        let threads = 4;
        std::thread::scope(|scope| {
            for t in 0..threads {
                let region = &region;
                scope.spawn(move || {
                    for round in 0..500u32 {
                        let size = 65 + ((t * 131 + round as usize * 37) % 2000);
                        let fill = (t as u8).wrapping_mul(31).wrapping_add(round as u8);
                        let payload = vec![fill; size];
                        if let Some(slot) = region.alloc_with(&payload) {
                            // An overlap with another thread's live slot
                            // would tear this read.
                            assert_eq!(slot.as_slice(), payload.as_slice());
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn region_slots_return_exactly_what_they_charged_across_threads() {
        // Each slot is allocated here and dropped on another thread; the
        // block it settles is derived from its length, so it must be the
        // block it was charged, to the byte, with or without a magazine.
        let charges = [
            (25usize, 64u64),
            (64, 64),
            (65, 128),
            (4096, 4096),
            (4097, 8192),
            (65536, 65536),
        ];
        for (size, charged) in charges {
            for magazine in [false, true] {
                let case = format!("{size} B, magazine {magazine}");
                let metrics = Arc::new(secmod_obs::ArenaMetrics::new());
                let arena = ArgArena::with_metrics(1 << 20, Arc::clone(&metrics));
                let region = if magazine {
                    ArenaRegion::with_magazine(arena, 1 << 20, MAGAZINE_DEPTH)
                } else {
                    ArenaRegion::new(arena, 1 << 20)
                };
                let slots: Vec<ArenaSlot> = (0..8u8)
                    .map(|i| region.alloc_with(&vec![i; size]).expect(&case))
                    .collect();
                let parked = region.magazine_resident();
                assert_eq!(region.in_flight(), 8 * charged + parked, "{case}");
                assert_eq!(metrics.bytes_in_flight.get(), region.in_flight(), "{case}");
                std::thread::scope(|scope| {
                    scope.spawn(move || {
                        for (i, slot) in (0u8..).zip(slots) {
                            assert_eq!(slot.as_slice(), vec![i; size].as_slice());
                            drop(slot);
                        }
                    });
                });
                assert_eq!(region.in_flight(), region.magazine_resident(), "{case}");
                region.flush_magazine();
                assert_eq!(region.in_flight(), 0, "{case}");
                assert_eq!(metrics.bytes_in_flight.get(), 0, "{case}");
                assert_eq!(metrics.allocs.get(), metrics.frees.get(), "{case}");
                assert_eq!(metrics.gen_mismatches.get(), 0, "{case}");
            }
        }
    }
}
