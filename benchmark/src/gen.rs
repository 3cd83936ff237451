//! Seeded operation streams. Everything a workload sends to the program
//! derives from `--seed`: which operation each call names (and therefore
//! the allow/deny split, since operation 0 is the `restricted` one) and
//! the argument value whose successor the module must return.

/// SplitMix64: small, fast, and good enough to decorrelate streams.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Operations the module exports; index 0 is `restricted` and is denied to
/// every tenant by policy.
pub const OPERATIONS: usize = 8;

/// One operation of a block. Its position in the block is its `user_data`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Op {
    /// Index into the world's connected sessions.
    pub session: u16,
    /// Index into the module's operations (`0` = restricted).
    pub func: u8,
    /// The argument; an allowed call must return `value + 1`.
    pub value: u64,
}

impl Op {
    /// Whether policy must deny this op (`EACCES` is then the correct
    /// outcome, not a failure).
    pub fn denied(&self) -> bool {
        self.func == 0
    }
}

/// Generator of one workload's op stream.
#[derive(Clone, Debug)]
pub struct OpGen {
    rng: Rng,
    sessions: usize,
    /// Consecutive ops that go to one session before moving to the next
    /// (1 = round-robin per op; 32 = a 32-entry batch per session).
    run: usize,
}

impl OpGen {
    /// `salt` separates the streams of different workloads under one seed.
    pub fn new(seed: u64, salt: u64, sessions: usize, run: usize) -> OpGen {
        assert!(sessions > 0 && sessions <= u16::MAX as usize && run > 0);
        let mut mixer = Rng::new(seed ^ salt.wrapping_mul(0xA076_1D64_78BD_642F));
        OpGen {
            rng: Rng::new(mixer.next_u64()),
            sessions,
            run,
        }
    }

    /// Replace `out` with the next `n` ops. Every block starts at session
    /// 0, so a block's layout does not depend on how many came before.
    pub fn fill_block(&mut self, out: &mut Vec<Op>, n: usize) {
        out.clear();
        for i in 0..n {
            let r = self.rng.next_u64();
            out.push(Op {
                session: ((i / self.run) % self.sessions) as u16,
                func: (r % OPERATIONS as u64) as u8,
                // Top bits cleared: `value + 1` can never overflow.
                value: r >> 8,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(seed: u64, salt: u64) -> Vec<Op> {
        let mut g = OpGen::new(seed, salt, 4, 1);
        let (mut all, mut block) = (Vec::new(), Vec::new());
        for _ in 0..4 {
            g.fill_block(&mut block, 256);
            all.extend_from_slice(&block);
        }
        all
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = stream(42, 1);
        assert_eq!(a, stream(42, 1));
        let b = stream(43, 1);
        assert_ne!(a, b);
        // Workloads do not share a stream under one seed.
        assert_ne!(a, stream(42, 2));
        // The allow/deny split is part of the stream.
        let denies = |s: &[Op]| s.iter().filter(|o| o.denied()).count();
        assert_eq!(denies(&a), denies(&stream(42, 1)));
        assert!(denies(&a) > 0 && denies(&a) < a.len() / 4);
    }

    #[test]
    fn session_layout_follows_run_length() {
        let mut g = OpGen::new(7, 0, 3, 2);
        let mut block = Vec::new();
        g.fill_block(&mut block, 8);
        let sessions: Vec<u16> = block.iter().map(|o| o.session).collect();
        assert_eq!(sessions, [0, 0, 1, 1, 2, 2, 0, 0]);
        assert!(block.iter().all(|o| (o.func as usize) < OPERATIONS));
        assert!(block.iter().all(|o| o.value.checked_add(1).is_some()));
    }
}
