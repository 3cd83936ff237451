//! The completion verifier. Every op of every block is checked, in traced
//! and untraced runs alike; an op that fails any check counts once.

use crate::gen::Op;

/// `Errno::EACCES.code()`: the correct outcome of a call policy denies.
pub const EACCES: i32 = 13;

/// `ret` of a completion whose result was not exactly eight bytes.
pub const BAD_RET: u64 = u64::MAX;

/// What the caller observed for one op, in the order it observed it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Completion {
    /// The op's position in its block, echoed by the program.
    pub user_data: u64,
    pub errno: i32,
    /// The returned value; 0 on error, [`BAD_RET`] if malformed.
    pub ret: u64,
}

/// Running totals over all verified blocks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Verdict {
    pub attempted: u64,
    /// Ops that failed at least one check, plus completions that belong to
    /// no op of the block.
    pub failed: u64,
    pub allows: u64,
    pub denies: u64,
    // Why ops failed (an op with two faults shows in two of these).
    pub wrong_value: u64,
    pub bad_errno: u64,
    pub duplicate: u64,
    pub missing: u64,
    pub fifo: u64,
    pub unknown: u64,
}

impl Verdict {
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Seen {
    No,
    Good,
    Bad,
}

/// Reusable per-block state.
pub struct Verifier {
    seen: Vec<Seen>,
    /// Highest `user_data` completed so far, per session (`-1` = none).
    last: Vec<i64>,
}

impl Verifier {
    pub fn new() -> Verifier {
        Verifier {
            seen: Vec::new(),
            last: Vec::new(),
        }
    }

    /// Check one block. `completions` is in observation order. With `fifo`
    /// the completions of one session must come back in the order its ops
    /// were submitted (block order), which holds whenever a single drainer
    /// serves the session.
    pub fn check_block(
        &mut self,
        ops: &[Op],
        completions: &[Completion],
        fifo: bool,
        total: &mut Verdict,
    ) {
        self.seen.clear();
        self.seen.resize(ops.len(), Seen::No);
        self.last.clear();
        total.attempted += ops.len() as u64;
        for c in completions {
            let Some(op) = ops.get(c.user_data as usize) else {
                total.unknown += 1;
                total.failed += 1;
                continue;
            };
            let idx = c.user_data as usize;
            let mut good = true;
            if self.seen[idx] != Seen::No {
                total.duplicate += 1;
                good = false;
            }
            if op.denied() {
                if c.errno == EACCES {
                    total.denies += u64::from(self.seen[idx] == Seen::No);
                } else {
                    total.bad_errno += 1;
                    good = false;
                }
            } else if c.errno != 0 {
                total.bad_errno += 1;
                good = false;
            } else if c.ret != op.value + 1 {
                total.wrong_value += 1;
                good = false;
            } else {
                total.allows += u64::from(self.seen[idx] == Seen::No);
            }
            if fifo {
                let session = op.session as usize;
                if self.last.len() <= session {
                    self.last.resize(session + 1, -1);
                }
                if (idx as i64) < self.last[session] {
                    total.fifo += 1;
                    good = false;
                } else {
                    self.last[session] = idx as i64;
                }
            }
            if !good && self.seen[idx] != Seen::Bad {
                total.failed += 1;
                self.seen[idx] = Seen::Bad;
            } else if good {
                self.seen[idx] = Seen::Good;
            }
        }
        let missing = self.seen.iter().filter(|&&s| s == Seen::No).count() as u64;
        total.missing += missing;
        total.failed += missing;
    }
}

impl Default for Verifier {
    fn default() -> Self {
        Verifier::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::OpGen;

    fn block() -> (Vec<Op>, Vec<Completion>) {
        let mut g = OpGen::new(42, 9, 2, 4);
        let mut ops = Vec::new();
        g.fill_block(&mut ops, 64);
        assert!(ops.iter().any(|o| o.denied()) && ops.iter().any(|o| !o.denied()));
        let completions = ops
            .iter()
            .enumerate()
            .map(|(i, op)| Completion {
                user_data: i as u64,
                errno: if op.denied() { EACCES } else { 0 },
                ret: if op.denied() { 0 } else { op.value + 1 },
            })
            .collect();
        (ops, completions)
    }

    fn run(ops: &[Op], completions: &[Completion]) -> Verdict {
        let mut v = Verdict::default();
        Verifier::new().check_block(ops, completions, true, &mut v);
        v
    }

    #[test]
    fn a_correct_block_passes_and_denials_are_not_failures() {
        let (ops, completions) = block();
        let v = run(&ops, &completions);
        assert_eq!(v.attempted, 64);
        assert_eq!(v.failed, 0);
        assert_eq!(v.denies, ops.iter().filter(|o| o.denied()).count() as u64);
        assert_eq!(v.allows + v.denies, 64);
        assert_eq!(v.failed_share(), 0.0);
    }

    #[test]
    fn a_wrong_value_fails_one_op() {
        let (ops, mut completions) = block();
        let i = ops.iter().position(|o| !o.denied()).unwrap();
        completions[i].ret += 1;
        let v = run(&ops, &completions);
        assert_eq!((v.failed, v.wrong_value), (1, 1));
    }

    #[test]
    fn an_unexpected_errno_fails_and_a_missing_denial_fails() {
        let (ops, mut completions) = block();
        let allowed = ops.iter().position(|o| !o.denied()).unwrap();
        let denied = ops.iter().position(|o| o.denied()).unwrap();
        completions[allowed].errno = 82; // EIDRM
        completions[denied].errno = 0; // let through what policy denies
        let v = run(&ops, &completions);
        assert_eq!((v.failed, v.bad_errno), (2, 2));
    }

    #[test]
    fn a_duplicate_fails_one_op() {
        let (ops, mut completions) = block();
        completions.push(completions[5]);
        let v = run(&ops, &completions);
        // The replay also arrives out of order; it is still one failed op.
        assert_eq!((v.failed, v.duplicate), (1, 1));
    }

    #[test]
    fn a_dropped_completion_fails_one_op() {
        let (ops, mut completions) = block();
        completions.remove(17);
        let v = run(&ops, &completions);
        assert_eq!((v.failed, v.missing), (1, 1));
    }

    #[test]
    fn a_fifo_swap_within_a_session_fails_and_across_sessions_does_not() {
        let (ops, mut completions) = block();
        assert_eq!(ops[0].session, ops[1].session);
        completions.swap(0, 1);
        let v = run(&ops, &completions);
        assert_eq!((v.failed, v.fifo), (1, 1));

        let (ops, mut completions) = block();
        assert_ne!(ops[3].session, ops[4].session);
        completions.swap(3, 4);
        assert_eq!(run(&ops, &completions).failed, 0);
        // Without the FIFO contract (async routing) order is free.
        let (ops, mut completions) = block();
        completions.reverse();
        let mut v = Verdict::default();
        Verifier::new().check_block(&ops, &completions, false, &mut v);
        assert_eq!(v.failed, 0);
    }

    #[test]
    fn a_completion_for_no_op_fails() {
        let (ops, mut completions) = block();
        completions.push(Completion {
            user_data: 9999,
            errno: 0,
            ret: 1,
        });
        let v = run(&ops, &completions);
        assert_eq!((v.failed, v.unknown), (1, 1));
    }
}
