//! `secmod_obs` — the observability layer: lock-free latency histograms
//! and the per-flavor dispatch metrics registry.
//!
//! Everything this repro measured before this crate was a throughput
//! *mean*; production claims live in the *tail*. The per-call simulated
//! cost (`cost_ns`) already flows through every dispatch path — this
//! crate buckets it:
//!
//! * [`Histogram`] — a fixed-size **log-linear** histogram: values
//!   0–15 ns land in exact unit buckets, every later power-of-two octave
//!   is split into 16 linear sub-buckets (≤ 6.25 % relative bucket
//!   width, ≤ ~3.2 % error at the reported midpoint). Recording is two
//!   relaxed `fetch_add`s — no locks, no allocation, mergeable across
//!   threads, cheap enough to leave on in the hot dispatch path.
//! * [`DispatchMetrics`] — one histogram per dispatch flavor
//!   ([`Flavor`]: syscall / batch / sweep / plane partition the
//!   dispatched entries, async overlays the routed ones) plus the
//!   counters the system already computes and used to throw away: gate
//!   hit/miss, ring full-bounces, sweep sessions-per-trap, drainer
//!   park/unpark cycles, EIDRM teardown failures, async re-submits.
//! * [`LatencySummary`] / [`HistogramSnapshot`] — point-in-time copies
//!   for reports, and [`DispatchMetrics::text_report`] renders the whole
//!   registry as the table `gate_report --metrics` prints.
//!
//! The crate sits *below* the kernel (it depends on nothing), so every
//! layer — kernel syscalls, the dispatch plane, the async frontend — can
//! record into one shared registry without a dependency cycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` linear buckets.
const SUB_BITS: u32 = 4;
/// Linear sub-buckets per octave (and the exact-bucket span at the low
/// end: values below this land in unit-width buckets).
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Total bucket count covering the full `u64` range: 16 exact buckets
/// plus 16 sub-buckets for each of the 60 remaining octaves.
pub const NUM_BUCKETS: usize = (SUB_BUCKETS as usize) * (64 - SUB_BITS as usize + 1);

/// The bucket index a value lands in. Monotonic in `v`; exact below
/// `SUB_BUCKETS`, log-linear above.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros(); // floor(log2 v), >= SUB_BITS
        let mantissa = (v >> (exp - SUB_BITS)) & (SUB_BUCKETS - 1);
        ((exp - SUB_BITS + 1) as usize) << SUB_BITS | mantissa as usize
    }
}

/// The smallest value mapping to `idx`.
#[inline]
pub fn bucket_low(idx: usize) -> u64 {
    if idx < SUB_BUCKETS as usize {
        idx as u64
    } else {
        let exp = (idx >> SUB_BITS as usize) as u32 + SUB_BITS - 1;
        let mantissa = (idx as u64) & (SUB_BUCKETS - 1);
        (1u64 << exp) + (mantissa << (exp - SUB_BITS))
    }
}

/// The width (count of distinct values) of bucket `idx`.
#[inline]
pub fn bucket_width(idx: usize) -> u64 {
    if idx < SUB_BUCKETS as usize {
        1
    } else {
        let exp = (idx >> SUB_BITS as usize) as u32 + SUB_BITS - 1;
        1u64 << (exp - SUB_BITS)
    }
}

/// The representative value reported for bucket `idx` (its midpoint, so
/// quantile estimates err by at most half a bucket width).
#[inline]
fn bucket_mid(idx: usize) -> u64 {
    bucket_low(idx) + (bucket_width(idx) >> 1)
}

/// Quantile estimation over a bucket-count slice: the midpoint of the
/// bucket holding the `ceil(q * total)`-th recorded value (1-based), the
/// same rank a sorted-sample oracle would report.
fn quantile_of(buckets: &[u64], total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * total as f64).ceil() as u64).clamp(1, total);
    let mut seen = 0u64;
    for (idx, &c) in buckets.iter().enumerate() {
        seen += c;
        if seen >= rank {
            return bucket_mid(idx);
        }
    }
    bucket_mid(NUM_BUCKETS - 1)
}

/// A lock-free fixed-bucket log-linear latency histogram.
///
/// `record` is two relaxed `fetch_add`s (bucket + running sum) — cheap
/// enough for the cached dispatch hot path. Reads (`count`, `p`,
/// `snapshot`) scan the buckets with relaxed loads; under concurrent
/// recording they see *some* recent state, which is all a report needs.
///
/// The header (`buckets` pointer + `sum`) is aligned to a cache line of
/// its own: every `record` reads the one and writes the other, so two
/// histograms recorded from different cores must never sit side by side
/// on a line (in an array, 24 bytes apart, they would).
#[repr(align(64))]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    /// Running sum of recorded values (for the mean).
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram covering the full `u64` range.
    pub fn new() -> Histogram {
        Histogram {
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    /// Record one value. Lock-free; callable from any thread.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Record `n` occurrences of `v` in two atomic adds.
    #[inline]
    pub fn record_n(&self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[bucket_index(v)].fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
    }

    /// Total recorded values (a relaxed scan).
    pub fn count(&self) -> u64 {
        self.buckets.iter().map(|b| b.load(Ordering::Relaxed)).sum()
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum() as f64 / count as f64
        }
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`): the midpoint of the
    /// bucket holding the rank-`ceil(q·count)` value, so the estimate is
    /// within half a bucket width (≤ ~3.2 %) of the exact order
    /// statistic. Returns 0 when empty.
    pub fn p(&self, q: f64) -> u64 {
        self.snapshot().p(q)
    }

    /// Fold another histogram into this one (bucket-wise addition).
    /// Merging is associative and commutative, so per-thread histograms
    /// can be combined in any order.
    pub fn merge(&self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            let c = theirs.load(Ordering::Relaxed);
            if c > 0 {
                mine.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.sum
            .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Zero every bucket. Not atomic with respect to concurrent
    /// recorders: records racing the reset land before or after it.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }

    /// The p50/p99/p99.9 summary reports print.
    pub fn summary(&self) -> LatencySummary {
        self.snapshot().summary()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.snapshot();
        f.debug_struct("Histogram")
            .field("count", &s.count())
            .field("mean", &s.mean())
            .field("p50", &s.p(0.50))
            .field("p99", &s.p(0.99))
            .finish()
    }
}

/// A plain (non-atomic) copy of a histogram's state, for consistent
/// report rendering.
#[derive(Clone, Debug)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    sum: u64,
}

impl HistogramSnapshot {
    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// Quantile estimate; see [`Histogram::p`].
    pub fn p(&self, q: f64) -> u64 {
        quantile_of(&self.buckets, self.count(), q)
    }

    /// Smallest non-empty bucket's low edge (0 when empty).
    pub fn min(&self) -> u64 {
        self.buckets
            .iter()
            .position(|&c| c > 0)
            .map(bucket_low)
            .unwrap_or(0)
    }

    /// Largest non-empty bucket's high edge (0 when empty).
    pub fn max(&self) -> u64 {
        self.buckets
            .iter()
            .rposition(|&c| c > 0)
            .map(|idx| bucket_low(idx) + bucket_width(idx) - 1)
            .unwrap_or(0)
    }

    /// The p50/p99/p99.9 summary reports print.
    pub fn summary(&self) -> LatencySummary {
        let count = self.count();
        LatencySummary {
            count,
            p50: quantile_of(&self.buckets, count, 0.50),
            p99: quantile_of(&self.buckets, count, 0.99),
            p999: quantile_of(&self.buckets, count, 0.999),
        }
    }
}

/// The three percentiles every report prints, plus the sample count
/// they were estimated from. `Copy`, so reports can embed it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// Values the percentiles were estimated over.
    pub count: u64,
    /// Median (ns).
    pub p50: u64,
    /// 99th percentile (ns).
    pub p99: u64,
    /// 99.9th percentile (ns).
    pub p999: u64,
}

impl std::fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "p50 {:>6} p99 {:>6} p99.9 {:>6} ns",
            self.p50, self.p99, self.p999
        )
    }
}

/// A monotonically increasing event counter (relaxed atomics).
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add one.
    #[inline]
    pub fn incr(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if n > 0 {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Overwrite with `n` — for mirroring a value owned elsewhere (the
    /// kernel tracer's drop count) into a report, not for accumulating.
    pub fn set(&self, n: u64) {
        self.0.store(n, Ordering::Relaxed);
    }

    /// Zero the counter.
    pub fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// An up/down gauge with a high-water mark (relaxed atomics).
///
/// The arena's bytes-in-flight accounting needs more than a monotonic
/// counter: allocations add, frees subtract, and leak checks assert the
/// value returns to zero. The high-water mark records the largest value
/// ever observed after an `add`, so reports can show peak utilisation
/// even after the traffic has drained.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
    high: AtomicU64,
}

impl Gauge {
    /// Raise the gauge by `n`, updating the high-water mark.
    #[inline]
    pub fn add(&self, n: u64) {
        if n == 0 {
            return;
        }
        let now = self.value.fetch_add(n, Ordering::Relaxed) + n;
        self.high.fetch_max(now, Ordering::Relaxed);
    }

    /// Lower the gauge by `n`. Every `sub` must pair with an earlier
    /// `add` (the arena's slot-ownership handoff guarantees the order),
    /// so the gauge never underflows.
    #[inline]
    pub fn sub(&self, n: u64) {
        if n > 0 {
            self.value.fetch_sub(n, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Largest value the gauge has held.
    pub fn high_water(&self) -> u64 {
        self.high.load(Ordering::Relaxed)
    }

    /// Zero the gauge and its high-water mark.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
        self.high.store(0, Ordering::Relaxed);
    }
}

/// Argument-arena utilisation: how the zero-copy path is actually used.
///
/// Lives behind an `Arc` shared between the kernel's
/// [`DispatchMetrics`] registry and every `ArgArena` the ring layer
/// creates, so slot alloc/free accounting lands in the same report as
/// the dispatch histograms.
#[derive(Debug, Default)]
pub struct ArenaMetrics {
    /// Bytes currently held by live arena slots (allocated, not yet
    /// freed). Returns to 0 when every request and response has been
    /// reaped or torn down — the leak check every scenario asserts.
    pub bytes_in_flight: Gauge,
    /// Arena slot allocations that succeeded.
    pub allocs: Counter,
    /// Arena slot frees (matches `allocs` when nothing is in flight).
    pub frees: Counter,
    /// Allocations that fell back to an owned heap copy (arena full,
    /// per-session quota exhausted, or payload larger than the arena).
    pub alloc_fallbacks: Counter,
    /// Dispatched argument blocks small enough to ride inline in the
    /// ring entry.
    pub inline_args: Counter,
    /// Dispatched argument blocks passed by arena descriptor.
    pub arena_args: Counter,
    /// Frees or reads whose generation tag did not match the slot's
    /// current generation (use-after-reap attempts, caught and dropped).
    pub gen_mismatches: Counter,
}

impl ArenaMetrics {
    /// An empty registry.
    pub fn new() -> ArenaMetrics {
        ArenaMetrics::default()
    }

    /// Zero every gauge and counter.
    pub fn reset(&self) {
        self.bytes_in_flight.reset();
        for c in [
            &self.allocs,
            &self.frees,
            &self.alloc_fallbacks,
            &self.inline_args,
            &self.arena_args,
            &self.gen_mismatches,
        ] {
            c.reset();
        }
    }
}

/// The five dispatch flavors that record latency, one histogram each.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flavor {
    /// One `sys_smod_call` per dispatch (trap + resolution every call).
    Syscall,
    /// `sys_smod_call_batch`: one session drained per trap.
    Batch,
    /// `sys_smod_sweep`: every ready session drained per trap. Direct
    /// calls only; a plane's drainers record under [`Flavor::Plane`].
    Sweep,
    /// What a `DispatchPlane`'s drainers drained (recorded by the drain,
    /// as it computes each entry's cost; a producer's reap records
    /// nothing).
    Plane,
    /// The futures frontend: each completion routed to its waker,
    /// recorded in runs of equal cost. An overlay on the plane entries it
    /// routed, not a fifth share of the dispatched entries.
    Async,
}

impl Flavor {
    /// Every flavor, in report order.
    pub const ALL: [Flavor; 5] = [
        Flavor::Syscall,
        Flavor::Batch,
        Flavor::Sweep,
        Flavor::Plane,
        Flavor::Async,
    ];

    /// Short name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            Flavor::Syscall => "syscall",
            Flavor::Batch => "batch",
            Flavor::Sweep => "sweep",
            Flavor::Plane => "plane",
            Flavor::Async => "async",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// An empty, cache-line-aligned marker: in a `#[repr(C)]` struct the
/// field after it starts a new line.
#[derive(Debug, Default)]
#[repr(align(64))]
struct LineBoundary;

/// The dispatch metrics registry: one latency histogram per
/// [`Flavor`] plus the event counters every layer feeds.
///
/// One registry lives in each `Kernel`; the plane's drainers, the
/// async frontend, and the syscall paths all record into it
/// (`Kernel::metrics`). Each dispatched entry is recorded once, by the
/// drain that computed its cost, under its entry point's flavor: the
/// `syscall`, `batch`, `sweep` and `plane` counts sum to `gate_hits +
/// gate_misses`, and `async` counts the completions routed on top.
///
/// The layout rule: **a word written per call has exactly one writing
/// role per cache line.** The roles are the thread that *drains* (the
/// syscall, batch and sweep callers — in a plane, the drainer threads,
/// which also route async completions) and the thread that *submits and
/// reaps* (plane producers, async tasks). They run on different cores at
/// the same time, and a locked add on a line the other core has just
/// written is paid for on both.
/// So each histogram is its own line ([`Histogram`] is line-aligned),
/// and the counters are laid out in declaration order (`repr(C)`) in
/// three groups divided by line boundaries: drain-side, then
/// submit-side, then the words nobody writes per call.
#[derive(Debug, Default)]
#[repr(C)]
pub struct DispatchMetrics {
    latency: [Histogram; 5],
    // --- written by the draining thread -------------------------------
    /// Per-call decision-cache hits observed on dispatch paths.
    pub gate_hits: Counter,
    /// Per-call decision-cache misses (full policy fixpoint runs).
    pub gate_misses: Counter,
    /// `sys_smod_sweep` invocations (traps paid).
    pub sweep_traps: Counter,
    /// Ready sessions visited across all sweeps — divide by
    /// [`DispatchMetrics::sweep_traps`] for sessions-per-trap.
    pub sweep_sessions: Counter,
    /// Times a plane drainer parked (found no ready work).
    pub drainer_parks: Counter,
    /// Times a parked drainer was explicitly woken by a producer.
    pub drainer_unparks: Counter,
    /// Poll windows of an idle drainer that ended with work showing up:
    /// a wake-up no producer paid a futex call for.
    pub drainer_spin_hits: Counter,
    /// Poll windows that expired empty (the drainer parked after all).
    pub drainer_spin_timeouts: Counter,
    /// Entries failed with `EIDRM` (session torn down mid-flight).
    pub eidrm_failures: Counter,
    // --- written by the submitting / reaping thread -------------------
    _submit_side: LineBoundary,
    /// Submissions bounced off a full ring (backpressure events).
    pub ring_full_bounces: Counter,
    /// Async submissions re-parked on a full ring and later re-submitted.
    pub async_resubmits: Counter,
    // --- read per call, written by no call ----------------------------
    _read_mostly: LineBoundary,
    /// Trace events evicted from the kernel's bounded trace buffer — a
    /// mirror of `Tracer::dropped_events`, refreshed by the kernel's
    /// report path so silently truncated traces show up here.
    pub trace_dropped: Counter,
    /// Argument-arena utilisation (shared with every `ArgArena` wired to
    /// this registry, so slot accounting lands in the same report).
    pub arena: std::sync::Arc<ArenaMetrics>,
}

impl DispatchMetrics {
    /// An empty registry.
    pub fn new() -> DispatchMetrics {
        DispatchMetrics::default()
    }

    /// The latency histogram for one dispatch flavor.
    pub fn latency(&self, flavor: Flavor) -> &Histogram {
        &self.latency[flavor.index()]
    }

    /// Average ready sessions visited per sweep trap.
    pub fn sessions_per_trap(&self) -> f64 {
        let traps = self.sweep_traps.get();
        if traps == 0 {
            0.0
        } else {
            self.sweep_sessions.get() as f64 / traps as f64
        }
    }

    /// Zero every histogram and counter (not atomic against concurrent
    /// recorders).
    pub fn reset(&self) {
        for h in &self.latency {
            h.reset();
        }
        for c in [
            &self.gate_hits,
            &self.gate_misses,
            &self.ring_full_bounces,
            &self.sweep_traps,
            &self.sweep_sessions,
            &self.drainer_parks,
            &self.drainer_unparks,
            &self.drainer_spin_hits,
            &self.drainer_spin_timeouts,
            &self.eidrm_failures,
            &self.async_resubmits,
            &self.trace_dropped,
        ] {
            c.reset();
        }
        self.arena.reset();
    }

    /// Render the whole registry as the table `gate_report --metrics`
    /// prints: one row per flavor that recorded anything, then the
    /// counter line.
    pub fn text_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<8} {:>10} {:>10} {:>8} {:>8} {:>8} {:>8} {:>10}",
            "flavor", "count", "mean ns", "p50", "p99", "p99.9", "min", "max"
        );
        for flavor in Flavor::ALL {
            let snap = self.latency(flavor).snapshot();
            let count = snap.count();
            if count == 0 {
                let _ = writeln!(out, "{:<8} {:>10} (no samples)", flavor.name(), 0);
                continue;
            }
            let _ = writeln!(
                out,
                "{:<8} {:>10} {:>10.1} {:>8} {:>8} {:>8} {:>8} {:>10}",
                flavor.name(),
                count,
                snap.mean(),
                snap.p(0.50),
                snap.p(0.99),
                snap.p(0.999),
                snap.min(),
                snap.max(),
            );
        }
        let gate_total = self.gate_hits.get() + self.gate_misses.get();
        let hit_rate = if gate_total == 0 {
            0.0
        } else {
            self.gate_hits.get() as f64 / gate_total as f64
        };
        let _ = writeln!(
            out,
            "gate {} hits / {} misses ({:.1}% hit)  ring full-bounces {}  eidrm {}",
            self.gate_hits.get(),
            self.gate_misses.get(),
            hit_rate * 100.0,
            self.ring_full_bounces.get(),
            self.eidrm_failures.get(),
        );
        let _ = writeln!(
            out,
            "sweeps {} traps / {} sessions ({:.1} sessions/trap)  drainer parks {} unparks {} spin-hits {} spin-timeouts {}  async resubmits {}  trace dropped {}",
            self.sweep_traps.get(),
            self.sweep_sessions.get(),
            self.sessions_per_trap(),
            self.drainer_parks.get(),
            self.drainer_unparks.get(),
            self.drainer_spin_hits.get(),
            self.drainer_spin_timeouts.get(),
            self.async_resubmits.get(),
            self.trace_dropped.get(),
        );
        let inline = self.arena.inline_args.get();
        let via_arena = self.arena.arena_args.get();
        let split_total = inline + via_arena;
        let arena_pct = if split_total == 0 {
            0.0
        } else {
            via_arena as f64 / split_total as f64 * 100.0
        };
        let _ = writeln!(
            out,
            "arena {} B in flight (high-water {} B)  args {} inline / {} arena ({:.1}% arena)  fallbacks {}  gen-mismatch {}",
            self.arena.bytes_in_flight.get(),
            self.arena.bytes_in_flight.high_water(),
            inline,
            via_arena,
            arena_pct,
            self.arena.alloc_fallbacks.get(),
            self.arena.gen_mismatches.get(),
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotonic_and_continuous() {
        // Every boundary value lands one bucket after its predecessor's
        // bucket or in the same bucket — never earlier.
        let mut prev = 0;
        for v in 0..4096u64 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index regressed at {v}");
            assert!(idx == prev || idx == prev + 1, "index skipped at {v}");
            prev = idx;
        }
        // The low edge of every bucket maps back to that bucket, and the
        // high edge stays inside it.
        for idx in 0..NUM_BUCKETS {
            assert_eq!(bucket_index(bucket_low(idx)), idx);
            let high = bucket_low(idx) + (bucket_width(idx) - 1);
            assert_eq!(bucket_index(high), idx);
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::new();
        for v in 0..16u64 {
            h.record(v);
        }
        for v in 0..16u64 {
            let rank_q = (v as f64 + 1.0) / 16.0;
            assert_eq!(h.p(rank_q), v, "exact bucket for {v}");
        }
    }

    #[test]
    fn quantiles_land_within_a_bucket_of_the_oracle() {
        let h = Histogram::new();
        let mut values: Vec<u64> = (0..10_000u64).map(|i| i * 37 % 100_000).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
            let oracle = values[rank - 1];
            let est = h.p(q);
            let width = bucket_width(bucket_index(oracle));
            assert!(
                est.abs_diff(oracle) <= width,
                "p({q}): est {est} vs oracle {oracle} (width {width})"
            );
        }
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in [0u64, 5, 17, 800, 12_345, 1 << 40] {
            a.record(v);
            all.record(v);
        }
        for v in [3u64, 17, 999_999] {
            b.record(v);
            all.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.p(q), all.p(q));
        }
    }

    #[test]
    fn reset_empties_the_histogram() {
        let h = Histogram::new();
        h.record(42);
        h.record_n(7, 10);
        assert_eq!(h.count(), 11);
        assert_eq!(h.sum(), 42 + 70);
        h.reset();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p(0.5), 0);
    }

    #[test]
    fn metrics_registry_round_trips() {
        let m = DispatchMetrics::new();
        for flavor in Flavor::ALL {
            m.latency(flavor).record(100);
            m.latency(flavor).record(10_000);
        }
        m.gate_hits.add(9);
        m.gate_misses.incr();
        m.sweep_traps.add(4);
        m.sweep_sessions.add(10);
        assert!((m.sessions_per_trap() - 2.5).abs() < 1e-9);
        let report = m.text_report();
        for flavor in Flavor::ALL {
            assert!(report.contains(flavor.name()), "missing {}", flavor.name());
            assert!(m.latency(flavor).summary().p50 > 0);
        }
        assert!(report.contains("9 hits / 1 misses (90.0% hit)"));
        m.drainer_spin_hits.add(7);
        m.drainer_spin_timeouts.add(2);
        assert!(m.text_report().contains("spin-hits 7 spin-timeouts 2"));
        m.trace_dropped.set(17);
        assert_eq!(m.trace_dropped.get(), 17);
        m.trace_dropped.set(3);
        assert_eq!(m.trace_dropped.get(), 3, "set overwrites, not accumulates");
        assert!(m.text_report().contains("trace dropped 3"));
        m.reset();
        assert_eq!(m.latency(Flavor::Syscall).count(), 0);
        assert_eq!(m.gate_hits.get(), 0);
        assert_eq!(m.drainer_spin_hits.get(), 0);
        assert_eq!(m.drainer_spin_timeouts.get(), 0);
        assert_eq!(m.trace_dropped.get(), 0);
    }

    #[test]
    fn layout_keeps_one_writing_role_per_line() {
        fn line<T>(field: &T) -> usize {
            field as *const T as usize / 64
        }
        let m = DispatchMetrics::new();
        let (sweep, plane) = (m.latency(Flavor::Sweep), m.latency(Flavor::Plane));
        for h in [sweep, plane] {
            assert_eq!(h as *const Histogram as usize % 64, 0);
        }
        assert_ne!(line(sweep), line(plane));
        // Drain-side counters, submit-side counters and the read-mostly
        // tail never share a line with each other or with a histogram.
        let drain_side = [line(&m.gate_hits), line(&m.eidrm_failures)];
        let submit_side = [line(&m.ring_full_bounces), line(&m.async_resubmits)];
        let read_mostly = [line(&m.trace_dropped), line(&m.arena)];
        assert!(line(m.latency(Flavor::Async)) < drain_side[0]);
        assert!(drain_side[1] < submit_side[0]);
        assert_eq!(submit_side[0], submit_side[1]);
        assert!(submit_side[1] < read_mostly[0]);
        assert_eq!(read_mostly[0], read_mostly[1]);
    }

    #[test]
    fn gauge_tracks_value_and_high_water() {
        let g = Gauge::default();
        g.add(100);
        g.add(50);
        assert_eq!(g.get(), 150);
        g.sub(120);
        assert_eq!(g.get(), 30);
        assert_eq!(g.high_water(), 150, "high-water survives the drain");
        g.add(10);
        assert_eq!(g.high_water(), 150, "smaller peaks do not move it");
        g.reset();
        assert_eq!((g.get(), g.high_water()), (0, 0));
    }

    #[test]
    fn arena_metrics_land_in_the_text_report_and_reset() {
        let m = DispatchMetrics::new();
        m.arena.bytes_in_flight.add(65536);
        m.arena.allocs.incr();
        m.arena.inline_args.add(3);
        m.arena.arena_args.incr();
        m.arena.alloc_fallbacks.incr();
        let report = m.text_report();
        assert!(report.contains("arena 65536 B in flight"), "{report}");
        assert!(
            report.contains("3 inline / 1 arena (25.0% arena)"),
            "{report}"
        );
        m.arena.bytes_in_flight.sub(65536);
        m.arena.frees.incr();
        assert_eq!(m.arena.bytes_in_flight.get(), 0);
        assert_eq!(m.arena.bytes_in_flight.high_water(), 65536);
        m.reset();
        assert_eq!(m.arena.allocs.get(), 0);
        assert_eq!(m.arena.bytes_in_flight.high_water(), 0);
    }

    #[test]
    fn summary_display_is_stable() {
        let h = Histogram::new();
        h.record_n(1000, 100);
        let s = h.summary();
        assert_eq!(s.count, 100);
        assert!(s.p50 >= 960 && s.p50 <= 1056, "p50 {} off-bucket", s.p50);
        assert!(format!("{s}").contains("p99.9"));
    }
}
