//! [`Doorbell`]: the wake/park handshake between the threads that publish
//! work and the threads that wait for it. A plane's producers ring its
//! drainers' doorbell after they flag a slot ready; a drainer rings a
//! caller's after it posts completions, through the plane's completion
//! hook (the way `secmod_core::native::CrossThread` waits).
//!
//! The ringer publishes its work, then calls [`Doorbell::ring`]: a
//! `SeqCst` fence, two relaxed loads, and an unpark only if some waiter is
//! idle and none spins. The waiter spins while [`room_to_poll`] allows,
//! then gives back its spinner claim, announces itself idle, fences, looks
//! for the work once more, and parks with a backstop timeout.
//!
//! **Why no ring is lost.** The halves are a Dekker pair: (store the work;
//! fence; load `idle` and `spinning`) against (store the marks; fence;
//! look for the work). `SeqCst` fences are totally ordered, and whichever
//! side fences second sees the other's store. So either the waiter's look
//! finds the work, or the ringer sees `idle > 0` with no spinner and
//! unparks every seat; an unpark that lands before the park is stored as
//! the thread's permit, and the park returns at once. The work is a
//! `Release` store only, so the ringer needs its fence as much as the
//! waiter does: without it the store can still sit in the store buffer
//! when the loads run. A spinner claim silences every ring while it
//! stands, which is safe because its holder gives it back, announces,
//! fences and looks before it parks.
//!
//! Each mark is a value its waiter drops (`IdleMark`, `SpinnerClaim`), so
//! a waiter that unwinds gives both back: a count left behind would make
//! every later ring unpark, and a claim left behind would silence them.

use parking_lot::RwLock;
use secmod_ring::ring::CachePadded;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// How long [`Doorbell::wait`] spins before it parks: a few uncontended
/// round trips. An answer later than that waits on a ringer that is
/// parked or short of a CPU, and a longer spin would hold the CPU it needs.
const WAIT_WINDOW: Duration = Duration::from_micros(5);

/// The waiters' seats and the two words every ring reads, each word on a
/// cache line of its own, so a ringer's loads miss only when it changed.
#[derive(Debug)]
pub struct Doorbell {
    /// The thread a ring unparks at each seat.
    sleepers: RwLock<Vec<Option<Thread>>>,
    /// Waiters that are (about to be) parked. While it is 0 a ring is a
    /// fence and two loads, with no futex op.
    pub(crate) idle: CachePadded<AtomicUsize>,
    /// Set while a waiter holds the spinner claim: it will see the work by
    /// itself, so rings skip the unpark even though others are parked.
    pub(crate) spinning: CachePadded<AtomicBool>,
}

impl Doorbell {
    /// A doorbell with `seats` empty seats.
    pub fn new(seats: usize) -> Doorbell {
        Doorbell {
            sleepers: RwLock::new(vec![None; seats]),
            idle: CachePadded(AtomicUsize::new(0)),
            spinning: CachePadded(AtomicBool::new(false)),
        }
    }

    /// Put `thread` in `seat`, before it first waits there.
    pub fn seat(&self, seat: usize, thread: Thread) {
        self.sleepers.write()[seat] = Some(thread);
    }

    pub(crate) fn seats(&self) -> usize {
        self.sleepers.read().len()
    }

    /// The ringer's half, called *after* the work is published: wake the
    /// waiters unless one of them is certain to see the work by itself.
    #[inline]
    pub fn ring(&self) {
        fence(Ordering::SeqCst);
        if self.spinning.0.load(Ordering::Relaxed) || self.idle.0.load(Ordering::Relaxed) == 0 {
            return;
        }
        self.unpark_all();
    }

    /// Unpark every seated thread (a running one keeps it as a permit).
    pub(crate) fn unpark_all(&self) {
        for t in self.sleepers.read().iter().flatten() {
            t.unpark();
        }
    }

    /// Take the spinner claim, or `None` while another waiter holds it.
    pub(crate) fn claim_spinner(&self) -> Option<SpinnerClaim<'_>> {
        self.spinning
            .0
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| SpinnerClaim(self))
    }

    /// Count the caller in `idle` until the returned mark drops, and
    /// fence: a ring that its next look misses will see the count.
    pub(crate) fn announce(&self) -> IdleMark<'_> {
        self.idle.0.fetch_add(1, Ordering::AcqRel);
        fence(Ordering::SeqCst);
        IdleMark(self)
    }

    /// The whole waiter's half, for a seated waiter with nothing else to
    /// do: spin on `look` for up to `WAIT_WINDOW` if `may_spin`, then
    /// announce, look and park (for at most `backstop`) until it answers.
    pub fn wait<T>(
        &self,
        may_spin: bool,
        backstop: Duration,
        mut look: impl FnMut() -> Option<T>,
    ) -> T {
        let window = if may_spin {
            WAIT_WINDOW
        } else {
            Duration::ZERO
        };
        if let Some(found) = spin(window, Instant::now(), &mut look) {
            return found;
        }
        loop {
            let _idle = self.announce();
            if let Some(found) = look() {
                return found;
            }
            std::thread::park_timeout(backstop);
        }
    }
}

/// A waiter's count in a [`Doorbell`]'s `idle`, given back on drop.
pub(crate) struct IdleMark<'a>(&'a Doorbell);

impl Drop for IdleMark<'_> {
    fn drop(&mut self) {
        self.0.idle.0.fetch_sub(1, Ordering::AcqRel);
    }
}

/// The spinner claim on a [`Doorbell`], given back on drop.
pub(crate) struct SpinnerClaim<'a>(&'a Doorbell);

impl Drop for SpinnerClaim<'_> {
    fn drop(&mut self) {
        self.0.spinning.0.store(false, Ordering::Release);
    }
}

/// Call `look` until it answers or `window` has passed since `from`.
pub(crate) fn spin<T>(
    window: Duration,
    from: Instant,
    mut look: impl FnMut() -> Option<T>,
) -> Option<T> {
    loop {
        if let Some(found) = look() {
            return Some(found);
        }
        if from.elapsed() >= window {
            return None;
        }
        std::hint::spin_loop();
    }
}

/// The CPUs the calling thread may run on; where the platform does not
/// tell, the first `available_parallelism` of them.
pub fn thread_cpus() -> affinity::CpuSet {
    affinity::get_thread_affinity().unwrap_or_else(|_| {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut cpus = affinity::CpuSet::empty();
        for cpu in 0..cores.min(affinity::MAX_CPUS) {
            let _ = cpus.add(cpu);
        }
        cpus
    })
}

/// Never spin on one CPU: a waiter confined to `mine` may spin for a
/// ringer confined to `theirs` only if the two sets together hold more
/// than one CPU, or the spin keeps the ringer it waits for off the CPU.
/// (A drainer reads its own set after its pin.)
pub fn room_to_poll(mine: &affinity::CpuSet, theirs: &affinity::CpuSet) -> bool {
    (0..affinity::MAX_CPUS)
        .filter(|&cpu| mine.contains(cpu) || theirs.contains(cpu))
        .nth(1)
        .is_some()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_ring_that_races_an_announce_is_never_lost() {
        // The waiter never spins: each handoff its first look misses goes
        // through announce, look and park, and the ringer publishes while
        // the waiter is anywhere in that sequence. A ring lost between
        // the announce and the park waits out the backstop.
        const HANDOFFS: u32 = 10_000;
        let backstop = Duration::from_secs(60);
        let bell = Doorbell::new(1);
        let word = AtomicBool::new(false);
        bell.seat(0, std::thread::current());
        std::thread::scope(|s| {
            s.spawn(|| {
                for _ in 0..HANDOFFS {
                    while word.load(Ordering::Acquire) {
                        std::thread::yield_now();
                    }
                    word.store(true, Ordering::Release);
                    bell.ring();
                }
            });
            for i in 0..HANDOFFS {
                let from = Instant::now();
                bell.wait(false, backstop, || {
                    word.swap(false, Ordering::AcqRel).then_some(())
                });
                assert!(
                    from.elapsed() < backstop / 2,
                    "handoff {i} took {:?}: a ring was lost",
                    from.elapsed()
                );
            }
        });
    }
}
