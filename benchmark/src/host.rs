//! What the benchmark asks of the host: a core to sit on, the process's
//! peak memory, and two calibration kernels that run no repo code, so a
//! reading can be told apart from the host it was taken on.

use crate::gen::Rng;
use std::hint::black_box;
use std::time::Instant;

/// The cores this process may use and where its threads sit.
///
/// The load thread pins itself to the last core before it builds anything.
/// Threads inherit the mask of the thread that spawns them, so the
/// program's unpinned helpers (executor worker, reactor) share that core
/// with the load thread, which sleeps while they work; drainers pin
/// themselves (`PlaneConfig::pin_drainers`), drainer 0 to core 0. On two
/// cores that leaves nothing for the scheduler to decide, which is what
/// makes one run like the next.
pub struct Cores {
    count: usize,
    pinned: bool,
}

impl Cores {
    /// Count the cores (before the mask narrows the count) and pin the
    /// calling thread to the last one. Best-effort.
    pub fn pin_load_thread() -> Cores {
        let count = std::thread::available_parallelism().map_or(1, |n| n.get());
        Cores {
            count,
            pinned: affinity::pin_to_core(count - 1).is_ok(),
        }
    }

    /// Cores available to the process.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether the pin took.
    pub fn pinned(&self) -> bool {
        self.pinned
    }

    /// Whether a thread waiting on the drainer may spin: it has a core to
    /// itself only if it is pinned and the drainer has another.
    pub fn spin_wait(&self) -> bool {
        self.pinned && self.count >= 2
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Best of `reps` timings of `f`, in nanoseconds per `per` units of work.
/// The minimum, not the median: a calibration kernel has one true cost and
/// every disturbance adds to it.
fn best_ns_per(reps: usize, per: u64, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as f64 / per as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// ALU kernel: a dependent multiply-xorshift chain, no memory traffic.
/// Nanoseconds per step.
pub fn calib_alu_ns() -> f64 {
    const STEPS: u64 = 1 << 21;
    best_ns_per(7, STEPS, || {
        let mut x = black_box(0x9E37_79B9_7F4A_7C15u64);
        for _ in 0..STEPS {
            x = (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        }
        black_box(x);
    })
}

/// Memory kernel: a dependent-load chase through one random cycle over
/// 32 MiB of indices, larger than any cache level it may meet.
/// Nanoseconds per load.
pub fn calib_chase_ns() -> f64 {
    const SLOTS: usize = 1 << 23;
    const LOADS: u64 = 1 << 19;
    // Sattolo's shuffle: a permutation that is a single cycle.
    let mut next: Vec<u32> = (0..SLOTS as u32).collect();
    let mut rng = Rng::new(0xC0FF_EE00_D15E_A5E5);
    for i in (1..SLOTS).rev() {
        let j = (rng.next_u64() % i as u64) as usize;
        next.swap(i, j);
    }
    let mut at = 0u32;
    best_ns_per(5, LOADS, || {
        for _ in 0..LOADS {
            at = next[at as usize];
        }
        black_box(at);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_facts_are_sane() {
        assert!(Cores::pin_load_thread().count() >= 1);
        if cfg!(target_os = "linux") {
            assert!(peak_rss_mib().unwrap() > 0.5);
        }
        let alu = calib_alu_ns();
        assert!(alu > 0.0 && alu < 1000.0, "alu step {alu} ns");
    }
}
