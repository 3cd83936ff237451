//! A bounded lock-free ring: fixed power-of-two capacity, Vyukov-style
//! per-slot sequence numbers, cache-line-padded head/tail counters, and
//! one cache line per slot (a call-ring slot — sequence word plus a
//! 48-B request or 56-B response — fills exactly one).
//!
//! The protocol (D. Vyukov's bounded MPMC queue): slot `i` carries a
//! sequence number. A producer may claim position `t` when
//! `slots[t & mask].seq == t`; after writing the value it publishes with
//! `seq = t + 1`. A consumer may take position `h` when `seq == h + 1`;
//! after reading it recycles the slot with `seq = h + capacity`. The
//! head/tail counters only ever race on CAS, never on the slot payloads:
//! between the claim and the publish exactly one thread owns the slot.
//!
//! [`Ring::push_many`] and [`Ring::pop_many`] claim a *run* of positions
//! with one CAS: they read the slots at `pos..pos + n` and, if every one
//! passes the check above, advance the counter from `pos` to `pos + n`.
//! Head and tail are monotone `u64`s that only move by claims, so a CAS
//! that still finds `pos` proves no other thread claimed any position in
//! the run, and a slot's sequence number names the one lap it belongs
//! to. Each position of the run is then filled or taken exactly as a
//! single push or pop would; `push` and `pop` are the run of one.
//!
//! This crate is the one place in the workspace that uses `unsafe`: the
//! payload lives in an `UnsafeCell<MaybeUninit<T>>` per slot, exactly as
//! in crossbeam's `ArrayQueue`. The unsafe surface is two lines, the
//! write in `fill` and the read in `take`, which every path (single,
//! run and SPSC alike) goes through, each guarded by the sequence
//! protocol above; everything else in the workspace stays
//! `#![forbid(unsafe_code)]`.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, Ordering};

/// Pad a value out to its own cache line so head and tail counters (and
/// the hot slot metadata around them) do not false-share.
#[derive(Debug, Default)]
#[repr(align(64))]
pub struct CachePadded<T>(pub T);

/// One ring position: the sequence word and the entry it guards, aligned
/// to a cache line. A slot of the call rings is exactly one line
/// (`crate::call` asserts it), so a hand-off moves one line between
/// cores, and no two positions share a line for neighbouring producers
/// and consumers to false-share.
#[repr(align(64))]
pub(crate) struct Slot<T> {
    /// Vyukov sequence word; see the module docs for the protocol.
    seq: AtomicU64,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded multi-producer / multi-consumer ring with single-producer
/// and single-consumer fast paths.
///
/// All methods take `&self`; share the ring behind an `Arc` (or plain
/// borrow across scoped threads).
pub struct Ring<T> {
    slots: Box<[Slot<T>]>,
    mask: u64,
    /// Next position a consumer will take.
    head: CachePadded<AtomicU64>,
    /// Next position a producer will claim.
    tail: CachePadded<AtomicU64>,
}

// SAFETY: the sequence protocol hands each slot to exactly one thread at
// a time (the producer that claimed its position, then the consumer that
// claimed it back), so sharing the ring across threads only ever moves
// `T` values between threads — the same bound a channel needs.
unsafe impl<T: Send> Send for Ring<T> {}
unsafe impl<T: Send> Sync for Ring<T> {}

impl<T> std::fmt::Debug for Ring<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ring")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

impl<T> Ring<T> {
    /// Create a ring with at least `capacity` slots (rounded up to the
    /// next power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Ring<T> {
        let cap = capacity.max(2).next_power_of_two() as u64;
        let slots = (0..cap)
            .map(|i| Slot {
                seq: AtomicU64::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Ring {
            slots,
            mask: cap - 1,
            head: CachePadded(AtomicU64::new(0)),
            tail: CachePadded(AtomicU64::new(0)),
        }
    }

    /// The fixed slot count.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Entries currently queued (approximate under concurrency).
    pub fn len(&self) -> usize {
        let tail = self.tail.0.load(Ordering::Acquire);
        let head = self.head.0.load(Ordering::Acquire);
        tail.saturating_sub(head) as usize
    }

    /// Is the ring (approximately) empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write `value` into a claimed slot and publish it as position `pos`.
    #[inline]
    fn fill(&self, pos: u64, value: T) {
        let slot = &self.slots[(pos & self.mask) as usize];
        // SAFETY: the caller claimed position `pos` (CAS on tail, or the
        // SPSC store protocol), so until the seq store below no other
        // thread reads or writes this slot.
        unsafe { (*slot.value.get()).write(value) };
        slot.seq.store(pos + 1, Ordering::Release);
    }

    /// Read the value out of a claimed slot `pos` and recycle the slot.
    #[inline]
    fn take(&self, pos: u64) -> T {
        let slot = &self.slots[(pos & self.mask) as usize];
        // SAFETY: the caller observed `seq == pos + 1` and claimed the
        // position (CAS on head, or the SPSC store protocol): the
        // producer's Release store happened-before this read, the slot
        // holds an initialised value, and no other thread touches it
        // until the recycling seq store below.
        let value = unsafe { (*slot.value.get()).assume_init_read() };
        slot.seq
            .store(pos + self.slots.len() as u64, Ordering::Release);
        value
    }

    /// Claim the longest run of up to `max` positions of `counter` (head
    /// or tail) whose slots all read `seq == pos + lag`: `lag` 0 finds
    /// free slots for producers, `lag` 1 published ones for consumers.
    /// One CAS claims the whole run; the returned `(start, n)` hands
    /// positions `start..start + n` to the caller, `n == 0` meaning the
    /// ring was full (or empty) at `counter`, or `max` was 0.
    #[inline]
    fn claim(&self, counter: &AtomicU64, lag: u64, max: usize) -> (u64, usize) {
        let mut start = counter.load(Ordering::Relaxed);
        loop {
            let mut n = 0;
            while n < max {
                let pos = start + n as u64;
                let seq = self.slots[(pos & self.mask) as usize]
                    .seq
                    .load(Ordering::Acquire);
                if seq != pos + lag {
                    if n == 0 && seq > pos + lag {
                        // Another thread claimed `start`: catch up.
                        start = counter.load(Ordering::Relaxed);
                        continue;
                    }
                    break; // not yet recycled (full) or published (empty)
                }
                n += 1;
            }
            if n == 0 {
                return (start, 0);
            }
            match counter.compare_exchange_weak(
                start,
                start + n as u64,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return (start, n),
                Err(actual) => start = actual,
            }
        }
    }

    /// Multi-producer push. Returns the value back when the ring is full.
    pub fn push(&self, value: T) -> Result<(), T> {
        match self.claim(&self.tail.0, 0, 1) {
            (pos, 1) => {
                self.fill(pos, value);
                Ok(())
            }
            _ => Err(value),
        }
    }

    /// Multi-producer push of a run: move as many entries as there are
    /// free slots from the front of `values` into the ring, in order,
    /// under one tail CAS. Returns how many it pushed (0 when the ring is
    /// full); the rest stay in `values`.
    pub fn push_many(&self, values: &mut Vec<T>) -> usize {
        let (start, n) = self.claim(&self.tail.0, 0, values.len());
        for (pos, value) in (start..).zip(values.drain(..n)) {
            self.fill(pos, value);
        }
        n
    }

    /// Single-producer push fast path: no CAS, plain tail store.
    ///
    /// Correct only while this thread is the sole producer; the ring must
    /// never see concurrent `push`/`push_spsc` from another thread while
    /// this path is in use.
    pub fn push_spsc(&self, value: T) -> Result<(), T> {
        let tail = self.tail.0.load(Ordering::Relaxed);
        let slot = &self.slots[(tail & self.mask) as usize];
        if slot.seq.load(Ordering::Acquire) != tail {
            return Err(value); // full
        }
        self.tail.0.store(tail + 1, Ordering::Relaxed);
        self.fill(tail, value);
        Ok(())
    }

    /// Multi-consumer pop. Returns `None` when the ring is empty (or a
    /// producer is mid-write at the head; callers retry on their own
    /// terms).
    pub fn pop(&self) -> Option<T> {
        match self.claim(&self.head.0, 1, 1) {
            (pos, 1) => Some(self.take(pos)),
            _ => None,
        }
    }

    /// Multi-consumer pop of a run: append up to `max` entries to `out`
    /// in FIFO order, claiming the published run at the head with one
    /// head CAS. Returns how many it took; a run stops short at the first
    /// slot not yet published.
    pub fn pop_many(&self, out: &mut Vec<T>, max: usize) -> usize {
        let (start, n) = self.claim(&self.head.0, 1, max);
        out.extend((start..start + n as u64).map(|pos| self.take(pos)));
        n
    }

    /// Single-consumer pop fast path: no CAS, plain head store. Correct
    /// only while this thread is the sole consumer (same caveat as
    /// [`Ring::push_spsc`]).
    pub fn pop_spsc(&self) -> Option<T> {
        let head = self.head.0.load(Ordering::Relaxed);
        let slot = &self.slots[(head & self.mask) as usize];
        if slot.seq.load(Ordering::Acquire) != head + 1 {
            return None; // empty
        }
        self.head.0.store(head + 1, Ordering::Relaxed);
        Some(self.take(head))
    }
}

impl<T> Drop for Ring<T> {
    fn drop(&mut self) {
        // Drain undelivered entries so their payloads are dropped.
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn slots_start_on_cache_lines() {
        use crate::call::{SmodCallReq, SmodCallResp};
        fn lines<T>(ring: &Ring<T>) {
            let base = ring.slots.as_ptr() as usize;
            assert_eq!(base % 64, 0, "slot array is line-aligned");
            let second = &ring.slots[1] as *const Slot<T> as usize;
            assert_eq!(second - base, 64, "one slot per line");
        }
        lines(&Ring::<SmodCallReq>::with_capacity(8));
        lines(&Ring::<SmodCallResp>::with_capacity(8));
        lines(&Ring::<u32>::with_capacity(8));
    }

    #[test]
    fn capacity_rounds_to_power_of_two() {
        assert_eq!(Ring::<u32>::with_capacity(0).capacity(), 2);
        assert_eq!(Ring::<u32>::with_capacity(8).capacity(), 8);
        assert_eq!(Ring::<u32>::with_capacity(9).capacity(), 16);
        assert_eq!(Ring::<u32>::with_capacity(100).capacity(), 128);
    }

    #[test]
    fn fifo_order_single_thread() {
        let ring = Ring::with_capacity(8);
        for i in 0..8u32 {
            ring.push(i).unwrap();
        }
        assert_eq!(ring.len(), 8);
        assert_eq!(ring.push(99), Err(99), "ring must report full");
        for i in 0..8u32 {
            assert_eq!(ring.pop(), Some(i));
        }
        assert_eq!(ring.pop(), None);
        assert!(ring.is_empty());
    }

    #[test]
    fn wraparound_reuses_slots() {
        let ring = Ring::with_capacity(4);
        for round in 0..10u32 {
            for i in 0..4 {
                ring.push(round * 4 + i).unwrap();
            }
            for i in 0..4 {
                assert_eq!(ring.pop(), Some(round * 4 + i));
            }
        }
    }

    #[test]
    fn spsc_fast_path_matches_general_path() {
        let ring = Ring::with_capacity(4);
        ring.push_spsc(1u32).unwrap();
        ring.push(2).unwrap();
        ring.push_spsc(3).unwrap();
        assert_eq!(ring.pop_spsc(), Some(1));
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.pop_spsc(), Some(3));
        assert_eq!(ring.pop_spsc(), None);
        for _ in 0..2 {
            for i in 0..4u32 {
                ring.push_spsc(i).unwrap();
            }
            assert!(ring.push_spsc(9).is_err());
            for i in 0..4u32 {
                assert_eq!(ring.pop_spsc(), Some(i));
            }
        }
    }

    #[test]
    fn heap_payloads_survive_the_ring_and_drop_cleanly() {
        // Heap payloads (Vec) round-trip intact, and entries still queued
        // at drop time are freed (leaks would trip sanitizers/valgrind and
        // show up as memory growth in a long-running plane).
        let ring = Ring::with_capacity(8);
        for i in 0..6u8 {
            ring.push(vec![i; 100]).unwrap();
        }
        assert_eq!(ring.pop(), Some(vec![0u8; 100]));
        assert_eq!(ring.pop(), Some(vec![1u8; 100]));
        drop(ring); // four entries still queued
    }

    #[test]
    fn runs_keep_fifo_order_across_the_wrap() {
        let ring = Ring::with_capacity(8);
        let mut out = Vec::new();
        let mut next = 0u32;
        // Runs of 5 on an 8-slot ring straddle the mask on most rounds.
        for round in 0..10u32 {
            let mut values: Vec<u32> = (next..next + 5).collect();
            assert_eq!(ring.push_many(&mut values), 5);
            assert!(values.is_empty());
            assert_eq!(ring.pop_many(&mut out, 5), 5);
            assert_eq!(out, (round * 5..round * 5 + 5).collect::<Vec<_>>());
            out.clear();
            next += 5;
        }
        assert!(ring.is_empty());
    }

    #[test]
    fn a_run_stops_at_the_first_slot_not_ready() {
        let ring = Ring::with_capacity(8);
        // Push: a full ring takes nothing; one free slot takes one.
        let mut values: Vec<u32> = (0..6).collect();
        assert_eq!(ring.push_many(&mut values), 6);
        let mut values = vec![6, 7, 8, 9];
        assert_eq!(ring.push_many(&mut values), 2, "only two slots free");
        assert_eq!(values, vec![8, 9], "the unpushed suffix stays, in order");
        assert_eq!(ring.push_many(&mut values), 0, "full ring");
        assert_eq!(values.len(), 2);

        // Pop: stops at the first slot not yet published. Claim tail
        // position 8 by hand and leave it unpublished, as a producer
        // between its CAS and its fill would, then publish position 9
        // behind it.
        let mut out = Vec::new();
        assert_eq!(ring.pop_many(&mut out, 3), 3);
        assert_eq!(out, vec![0, 1, 2]);
        ring.tail.0.store(9, Ordering::Relaxed);
        ring.push(99).unwrap();
        out.clear();
        assert_eq!(ring.pop_many(&mut out, 8), 5, "only 3..=7 are published");
        assert_eq!(out, vec![3, 4, 5, 6, 7]);
        assert_eq!(ring.pop_many(&mut out, 8), 0, "position 8 is unpublished");
        ring.fill(8, 98);
        out.clear();
        assert_eq!(ring.pop_many(&mut out, 8), 2);
        assert_eq!(out, vec![98, 99]);
        assert_eq!(ring.pop_many(&mut out, 8), 0, "empty ring");
    }

    #[test]
    fn a_push_run_stops_at_a_slot_not_yet_recycled() {
        let ring = Ring::with_capacity(4);
        let mut values: Vec<u32> = (0..4).collect();
        assert_eq!(ring.push_many(&mut values), 4);
        // Claim head position 0 by hand without recycling its slot, as a
        // consumer between its CAS and its read would; recycle position 1.
        ring.head.0.store(1, Ordering::Relaxed);
        assert_eq!(ring.pop(), Some(1));
        let mut values = vec![4, 5];
        assert_eq!(
            ring.push_many(&mut values),
            0,
            "slot of position 4 not recycled"
        );
        assert_eq!(ring.take(0), 0);
        assert_eq!(ring.push_many(&mut values), 2);
        let mut out = Vec::new();
        assert_eq!(ring.pop_many(&mut out, 4), 4);
        assert_eq!(out, vec![2, 3, 4, 5]);
    }

    #[test]
    fn a_zero_length_run_returns_at_once() {
        let ring = Ring::with_capacity(4);
        ring.push(1u32).unwrap();
        let mut out = Vec::new();
        assert_eq!(ring.pop_many(&mut out, 0), 0, "non-empty ring, max 0");
        assert!(out.is_empty());
        assert_eq!(ring.push_many(&mut Vec::new()), 0);
        assert_eq!(ring.len(), 1);
        assert_eq!(ring.pop(), Some(1));
    }

    #[test]
    fn runs_mix_with_the_spsc_fast_paths() {
        let ring = Ring::with_capacity(8);
        ring.push_spsc(0u32).unwrap();
        let mut values = vec![1, 2, 3];
        assert_eq!(ring.push_many(&mut values), 3);
        ring.push_spsc(4).unwrap();
        assert_eq!(ring.pop_spsc(), Some(0));
        let mut out = Vec::new();
        assert_eq!(ring.pop_many(&mut out, 2), 2);
        assert_eq!(out, vec![1, 2]);
        assert_eq!(ring.pop_spsc(), Some(3));
        assert_eq!(ring.pop_many(&mut out, 8), 1);
        assert_eq!(out, vec![1, 2, 4]);
        assert_eq!(ring.pop_spsc(), None);
    }

    #[test]
    fn concurrent_runs_never_lose_duplicate_or_reorder() {
        const PRODUCERS: u64 = 4;
        const CONSUMERS: usize = 2;
        const PER_PRODUCER: u64 = 20_000;
        let ring = Ring::with_capacity(64);
        let received = AtomicU64::new(0);
        let seen = std::thread::scope(|s| {
            for p in 0..PRODUCERS {
                let ring = &ring;
                s.spawn(move || {
                    let mut rng = 0x9e37_79b9_7f4a_7c15 ^ p;
                    let mut next = 0;
                    let mut run = Vec::new();
                    while next < PER_PRODUCER {
                        // xorshift: run lengths 1..=40, some longer than
                        // the free space a busy ring has.
                        rng ^= rng << 13;
                        rng ^= rng >> 7;
                        rng ^= rng << 17;
                        let len = (rng % 40 + 1).min(PER_PRODUCER - next);
                        run.extend((next..next + len).map(|i| (p, i)));
                        next += len;
                        while !run.is_empty() {
                            if ring.push_many(&mut run) == 0 {
                                std::thread::yield_now();
                            }
                        }
                    }
                });
            }
            let consumers: Vec<_> = (0..CONSUMERS)
                .map(|c| {
                    let (ring, received) = (&ring, &received);
                    s.spawn(move || {
                        let mut rng = 0x2545_f491_4f6c_dd1d ^ c as u64;
                        let mut last_seen = [None::<u64>; PRODUCERS as usize];
                        let mut got = Vec::new();
                        let mut out = Vec::new();
                        while received.load(Ordering::Relaxed) < PRODUCERS * PER_PRODUCER {
                            rng ^= rng << 13;
                            rng ^= rng >> 7;
                            rng ^= rng << 17;
                            let n = ring.pop_many(&mut out, (rng % 48) as usize);
                            if n == 0 {
                                std::thread::yield_now();
                                continue;
                            }
                            received.fetch_add(n as u64, Ordering::Relaxed);
                            for (p, i) in out.drain(..) {
                                // Per-producer FIFO within one consumer's
                                // view: its claims are ordered runs of
                                // the ring's one global order.
                                let prev = last_seen[p as usize].replace(i);
                                assert!(prev.is_none_or(|prev| i > prev), "producer {p} reordered");
                                got.push((p, i));
                            }
                        }
                        got
                    })
                })
                .collect();
            consumers
                .into_iter()
                .flat_map(|c| c.join().unwrap())
                .collect::<Vec<_>>()
        });
        assert_eq!(ring.pop(), None);
        let mut seen = seen;
        seen.sort_unstable();
        let want: Vec<_> = (0..PRODUCERS)
            .flat_map(|p| (0..PER_PRODUCER).map(move |i| (p, i)))
            .collect();
        assert_eq!(seen, want, "every entry exactly once");
    }

    #[test]
    fn concurrent_producers_never_lose_or_duplicate() {
        const PRODUCERS: u64 = 4;
        const PER_PRODUCER: u64 = 5_000;
        let ring = Arc::new(Ring::with_capacity(64));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let ring = Arc::clone(&ring);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let mut v = (p, i);
                    while let Err(back) = ring.push(v) {
                        v = back;
                        std::thread::yield_now();
                    }
                }
            }));
        }
        let consumer = {
            let ring = Arc::clone(&ring);
            std::thread::spawn(move || {
                let mut last_seen = [None::<u64>; PRODUCERS as usize];
                let mut received = 0u64;
                while received < PRODUCERS * PER_PRODUCER {
                    match ring.pop() {
                        Some((p, i)) => {
                            // Per-producer FIFO: sequence numbers from one
                            // producer arrive strictly increasing.
                            let prev = last_seen[p as usize].replace(i);
                            assert!(prev.is_none_or(|prev| i > prev), "producer {p} reordered");
                            received += 1;
                        }
                        None => std::thread::yield_now(),
                    }
                }
                assert_eq!(ring.pop(), None);
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        consumer.join().unwrap();
    }
}
