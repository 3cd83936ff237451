//! The simulated clock.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// Number of independent counter stripes (power of two).
const STRIPES: usize = 16;

/// One stripe: an `AtomicU64` padded out to a cache line of its own, so
/// two threads charging different stripes never write the same line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct Stripe(AtomicU64);

/// A full set of stripes, all zero.
fn stripes() -> [Stripe; STRIPES] {
    std::array::from_fn(|_| Stripe::default())
}

/// Map a hint (a pid, a session id) onto one of `buckets` stripes/shards
/// with a SplitMix-style multiply so consecutive ids spread across
/// distinct cache lines. Shared by the clock stripes, the striped
/// counters, and the process/session table shards so the spread function
/// only exists once. `buckets` must be a power of two ≤ 16 (the index is
/// taken from the top 4 bits of the product).
pub(crate) fn stripe_index(hint: u64, buckets: usize) -> usize {
    debug_assert!(buckets.is_power_of_two() && buckets <= 16);
    (hint.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 60) as usize & (buckets - 1)
}

/// A nanosecond-resolution simulated clock.
///
/// The kernel charges every operation's modelled cost here; benchmarks that
/// run on the simulated backend read elapsed simulated time instead of wall
/// time, which makes them deterministic and lets the default cost model be
/// calibrated against the paper's 599 MHz Pentium III.
///
/// The counter is **striped**: `advance` adds to one of `STRIPES`
/// independent atomics, each on its own cache line, chosen by the
/// caller's hint (the kernel passes the charged pid), and `now_ns` sums
/// the stripes. Concurrent `&self` syscall
/// paths therefore do not bounce a single cache line between cores on
/// every charge — the dominant scaling cost of a naive shared counter —
/// while total advanced time stays exact.
#[derive(Debug)]
pub struct SimClock {
    stripes: [Stripe; STRIPES],
}

impl Default for SimClock {
    fn default() -> Self {
        SimClock { stripes: stripes() }
    }
}

impl SimClock {
    /// A clock starting at zero.
    pub fn new() -> SimClock {
        SimClock::default()
    }

    /// Current simulated time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.stripes
            .iter()
            .fold(0u64, |acc, s| acc.saturating_add(s.0.load(Relaxed)))
    }

    /// Advance the clock by `ns` nanoseconds (stripe 0).
    pub fn advance(&self, ns: u64) {
        self.advance_striped(0, ns);
    }

    /// Advance the clock by `ns` nanoseconds on the stripe selected by
    /// `hint` (any per-thread-ish value — the kernel passes the pid being
    /// charged — so concurrent charges land on distinct cache lines).
    pub fn advance_striped(&self, hint: u64, ns: u64) {
        let stripe = &self.stripes[stripe_index(hint, STRIPES)].0;
        // Saturating add (fetch_add would wrap); contention on a stripe is
        // rare by construction, so the CAS loop is effectively one shot.
        let mut current = stripe.load(Relaxed);
        loop {
            let next = current.saturating_add(ns);
            match stripe.compare_exchange_weak(current, next, Relaxed, Relaxed) {
                Ok(_) => return,
                Err(seen) => current = seen,
            }
        }
    }

    /// Elapsed nanoseconds since `earlier`.
    pub fn since(&self, earlier_ns: u64) -> u64 {
        self.now_ns().saturating_sub(earlier_ns)
    }
}

/// A sum-on-read event counter striped across cache lines, for counts
/// bumped on the hot dispatch path from many threads at once (context
/// switches, per-module call statistics). Same idea as [`SimClock`]'s
/// stripes: the caller passes a hint (a pid) choosing the stripe, so
/// concurrent increments do not fight over one cache line; reads sum.
#[derive(Debug)]
pub struct StripedCounter {
    stripes: [Stripe; STRIPES],
}

impl Default for StripedCounter {
    fn default() -> Self {
        StripedCounter { stripes: stripes() }
    }
}

impl StripedCounter {
    /// A counter at zero.
    pub fn new() -> StripedCounter {
        StripedCounter::default()
    }

    /// Add `n` on the stripe selected by `hint`.
    pub fn add(&self, hint: u64, n: u64) {
        self.stripes[stripe_index(hint, STRIPES)]
            .0
            .fetch_add(n, Relaxed);
    }

    /// The total across all stripes.
    pub fn sum(&self) -> u64 {
        self.stripes
            .iter()
            .fold(0u64, |acc, s| acc.wrapping_add(s.0.load(Relaxed)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_gives_every_stripe_its_own_line() {
        fn lines(stripes: &[Stripe; STRIPES]) -> Vec<usize> {
            stripes
                .iter()
                .map(|s| &s.0 as *const AtomicU64 as usize / 64)
                .collect()
        }
        let (clock, counter) = (SimClock::new(), StripedCounter::new());
        for lines in [lines(&clock.stripes), lines(&counter.stripes)] {
            let distinct: std::collections::BTreeSet<_> = lines.iter().collect();
            assert_eq!(distinct.len(), STRIPES, "two stripes share a line");
        }
        assert_eq!(std::mem::size_of::<SimClock>(), STRIPES * 64);
    }

    #[test]
    fn advances_monotonically() {
        let c = SimClock::new();
        assert_eq!(c.now_ns(), 0);
        c.advance(100);
        c.advance(50);
        assert_eq!(c.now_ns(), 150);
        assert_eq!(c.since(100), 50);
        assert_eq!(c.since(1000), 0);
    }

    #[test]
    fn striped_advances_all_count() {
        let c = SimClock::new();
        for pid in 0..100u64 {
            c.advance_striped(pid, 10);
        }
        assert_eq!(c.now_ns(), 1000);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let c = SimClock::new();
        c.advance(u64::MAX);
        c.advance(10);
        assert_eq!(c.now_ns(), u64::MAX);
    }

    #[test]
    fn concurrent_advances_all_land() {
        let c = SimClock::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = &c;
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.advance_striped(t, 3);
                    }
                });
            }
        });
        assert_eq!(c.now_ns(), 4 * 10_000 * 3);
    }
}
