//! The syscall/dispatch cost model.
//!
//! The paper's Figure 8 measures four configurations on a 599 MHz Pentium
//! III under OpenBSD 3.6:
//!
//! | configuration        | µs/call  |
//! |----------------------|----------|
//! | native `getpid()`    | 0.658    |
//! | SMOD(getpid)         | 6.532    |
//! | SMOD(testincr)       | 6.407    |
//! | RPC(testincr), local | 63.23    |
//!
//! The default [`CostModel`] is calibrated so that the *simulated* backend
//! reproduces those magnitudes: a bare trap costs ~0.65 µs, and an
//! `smod_call` round trip (trap + credential check + message send + two
//! context switches + message receive + stub work) lands near ~6.4 µs.
//! The model is explicit and adjustable so ablation benchmarks can vary a
//! single component (e.g. policy complexity) and observe the effect.

use serde::{Deserialize, Serialize};

/// Per-operation costs in nanoseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CostModel {
    /// Cost of entering and leaving the kernel (trap + return).
    pub syscall_trap_ns: u64,
    /// Additional cost of a trivial syscall body (e.g. `getpid`).
    pub trivial_syscall_ns: u64,
    /// One context switch between processes.
    pub context_switch_ns: u64,
    /// One SYSV `msgsnd`/`msgrcv` operation (already-awake receiver).
    pub msg_op_ns: u64,
    /// One shared-memory dispatch-ring slot hand-off (claim + copy +
    /// publish of a single submission or completion slot) as performed by
    /// a *resident* drainer that is already in kernel context. The
    /// caller-driven batched path still prices its per-entry hand-off as
    /// a msgsnd/msgrcv pair ([`CostModel::batched_dispatch_ns`]); the
    /// sweep path gets to use this much cheaper slot cost because the
    /// drainer never re-enters the kernel per entry — the
    /// interception-hoisting argument, in cost-model form.
    pub ring_slot_ns: u64,
    /// Handling one page fault (zero-fill or share).
    pub page_fault_ns: u64,
    /// Copying one byte of arguments/results across the user/kernel
    /// boundary.
    pub copy_per_byte_ns: u64,
    /// Evaluating one node of a policy condition expression.
    pub policy_per_node_ns: u64,
    /// Serving an access decision from the module gateway's sharded
    /// decision cache (one lookup), charged instead of
    /// `policy_per_node_ns × complexity` when the per-call check hits.
    /// Calibrated to the measured ~85 ns cached-hit cost of the gate.
    pub cached_decision_ns: u64,
    /// Fixed cost of the credential lookup + session validation done on
    /// every `smod_call`.
    pub credential_check_ns: u64,
    /// Cost of the handle-side stub (`smod_stub_receive`): switching to the
    /// secret stack, popping the kernel frame, relaying, restoring.
    pub stub_receive_ns: u64,
    /// Cost of the client-side assembly stub.
    pub stub_call_ns: u64,
    /// Cost of forcibly sharing one map entry during `uvmspace_force_share`.
    pub force_share_per_entry_ns: u64,
    /// Fixed cost of creating a process (fork) in the kernel.
    pub fork_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::pentium3_openbsd36()
    }
}

impl CostModel {
    /// Costs calibrated to the paper's test machine (599 MHz P-III,
    /// OpenBSD 3.6) so that the simulated Figure 8 reproduces the paper's
    /// magnitudes.
    pub const fn pentium3_openbsd36() -> CostModel {
        CostModel {
            syscall_trap_ns: 550,
            trivial_syscall_ns: 108,
            context_switch_ns: 1_450,
            msg_op_ns: 700,
            ring_slot_ns: 120,
            page_fault_ns: 2_500,
            copy_per_byte_ns: 6,
            policy_per_node_ns: 120,
            cached_decision_ns: 85,
            credential_check_ns: 300,
            stub_receive_ns: 350,
            stub_call_ns: 150,
            force_share_per_entry_ns: 4_000,
            fork_ns: 90_000,
        }
    }

    /// A zero-cost model (useful when a test only cares about behaviour).
    pub const fn free() -> CostModel {
        CostModel {
            syscall_trap_ns: 0,
            trivial_syscall_ns: 0,
            context_switch_ns: 0,
            msg_op_ns: 0,
            ring_slot_ns: 0,
            page_fault_ns: 0,
            copy_per_byte_ns: 0,
            policy_per_node_ns: 0,
            cached_decision_ns: 0,
            credential_check_ns: 0,
            stub_receive_ns: 0,
            stub_call_ns: 0,
            force_share_per_entry_ns: 0,
            fork_ns: 0,
        }
    }

    /// Modelled cost of a native `getpid()` call.
    pub fn getpid_cost(&self) -> u64 {
        self.syscall_trap_ns + self.trivial_syscall_ns
    }

    /// Modelled cost of one `smod_call` round trip, excluding the policy
    /// evaluation (which scales with the policy) and the function body.
    ///
    /// client stub → trap → credential check → msgsnd → context switch to
    /// handle → msgrcv → handle stub → … function … → msgsnd → context
    /// switch back → msgrcv → return from trap.
    pub fn smod_call_overhead(&self, arg_bytes: usize) -> u64 {
        self.stub_call_ns
            + self.syscall_trap_ns
            + self.credential_check_ns
            + 2 * self.msg_op_ns
            + 2 * self.context_switch_ns
            + self.stub_receive_ns
            + self.copy_per_byte_ns * arg_bytes as u64
    }

    /// Modelled *fixed* cost of one `sys_smod_call_batch` invocation
    /// draining `batch_len` entries, excluding per-entry policy/copy/body
    /// work (charged separately, exactly as in the single-call path).
    ///
    /// The single-call fixed work — client stub, trap, credential/session
    /// resolution, handle stub, two context switches — is paid **once per
    /// batch**; only the ring hand-off (the msgsnd/msgrcv analogue: one
    /// submission-slot pop and one completion-slot push) stays per entry.
    /// The per-entry share `batched_dispatch_ns(n) / n` is therefore
    /// strictly decreasing in `n`, approaching the pure hand-off cost —
    /// the io_uring/LSM-style amortisation argument, in cost-model form.
    /// `batched_dispatch_ns(1)` equals `smod_call_overhead(0)`: a batch of
    /// one buys nothing.
    pub fn batched_dispatch_ns(&self, batch_len: usize) -> u64 {
        let once_per_batch = self.stub_call_ns
            + self.syscall_trap_ns
            + self.credential_check_ns
            + self.stub_receive_ns
            + 2 * self.context_switch_ns;
        once_per_batch + 2 * self.msg_op_ns * batch_len as u64
    }

    /// Modelled *fixed* cost of one `sys_smod_sweep` invocation that
    /// resolved `sessions` ready sessions and dispatched `entries`
    /// checked entries across them, excluding per-entry policy/copy/body
    /// work (charged separately, exactly as on the batched path).
    ///
    /// Three tiers of amortisation, one per paper-motivated fixed cost:
    ///
    /// * **once per sweep** — the trap, the stubs and the context-switch
    ///   pair are paid a single time no matter how many sessions the
    ///   sweep visits; this is the multi-session analogue of
    ///   [`CostModel::batched_dispatch_ns`]'s once-per-batch term.
    /// * **once per session** — the credential/session resolution
    ///   ([`CostModel::credential_check_ns`]) is paid once per *session*
    ///   per sweep, not once per entry or once per batch invocation.
    /// * **per entry** — only the shared-memory ring slot hand-off
    ///   ([`CostModel::ring_slot_ns`], one submission pop + one
    ///   completion push) remains: the resident drainer consumes the
    ///   rings directly, with no msgsnd/msgrcv analogue per entry.
    ///
    /// `sweep_dispatch_ns(1, n)` is strictly below
    /// `batched_dispatch_ns(n)` for every `n >= 1` (same once-per-batch
    /// fixed term, cheaper hand-off), and at the shape the `sweep_inline`
    /// benchmark workload runs (64 sessions, batch 32) it comes out
    /// ≥ 1.5x cheaper than 64 round-robined batched drains — both
    /// properties are unit-tested below.
    pub fn sweep_dispatch_ns(&self, sessions: usize, entries: usize) -> u64 {
        let once_per_sweep = self.stub_call_ns
            + self.syscall_trap_ns
            + self.stub_receive_ns
            + 2 * self.context_switch_ns;
        once_per_sweep
            + self.credential_check_ns * sessions as u64
            + 2 * self.ring_slot_ns * entries as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_reproduces_paper_magnitudes() {
        let m = CostModel::default();
        let getpid_us = m.getpid_cost() as f64 / 1000.0;
        let smod_us = m.smod_call_overhead(16) as f64 / 1000.0;
        // Paper: 0.658 µs and ~6.4-6.5 µs.  Allow generous bands — the point
        // is the magnitude and the ratio, not the third significant digit.
        assert!((0.4..1.0).contains(&getpid_us), "getpid {getpid_us} µs");
        assert!((5.0..8.0).contains(&smod_us), "smod {smod_us} µs");
        let ratio = smod_us / getpid_us;
        assert!((6.0..14.0).contains(&ratio), "smod/getpid ratio {ratio}");
    }

    #[test]
    fn free_model_charges_nothing() {
        let m = CostModel::free();
        assert_eq!(m.getpid_cost(), 0);
        assert_eq!(m.smod_call_overhead(1000), 0);
    }

    #[test]
    fn argument_size_increases_cost() {
        let m = CostModel::default();
        assert!(m.smod_call_overhead(4096) > m.smod_call_overhead(4));
    }

    #[test]
    fn batched_per_entry_cost_is_monotonically_decreasing() {
        let m = CostModel::default();
        // A batch of one is exactly a single call's fixed overhead.
        assert_eq!(m.batched_dispatch_ns(1), m.smod_call_overhead(0));
        let per_entry = |n: usize| m.batched_dispatch_ns(n) as f64 / n as f64;
        let sweep = [1usize, 8, 32, 128];
        for pair in sweep.windows(2) {
            assert!(
                per_entry(pair[1]) < per_entry(pair[0]),
                "per-entry cost not decreasing: {} ns at {} vs {} ns at {}",
                per_entry(pair[1]),
                pair[1],
                per_entry(pair[0]),
                pair[0],
            );
        }
        // The amortised floor is the pure per-entry ring hand-off.
        assert!(per_entry(4096) < 2.0 * m.msg_op_ns as f64 + 2.0);
    }

    #[test]
    fn sweep_is_strictly_cheaper_than_the_batched_path_it_subsumes() {
        let m = CostModel::default();
        // A one-session sweep beats a one-session batch at every size:
        // identical once-per-trap term, cheaper per-entry hand-off.
        for n in [1usize, 8, 32, 128, 4096] {
            assert!(
                m.sweep_dispatch_ns(1, n) < m.batched_dispatch_ns(n),
                "sweep(1, {n}) not below batch({n})"
            );
        }
        // The per-entry share keeps falling as more sessions join a sweep
        // (the per-session credential term amortises the trap; entries
        // amortise everything else).
        let per_entry = |s: usize, n: usize| m.sweep_dispatch_ns(s, s * n) as f64 / (s * n) as f64;
        assert!(per_entry(64, 32) < per_entry(8, 32));
        assert!(per_entry(8, 32) < per_entry(1, 32));
    }

    #[test]
    fn sweep_acceptance_point_meets_the_bar() {
        // The `sweep_inline` workload's shape: 64 sessions with
        // 32 entries each, one sweep vs 64 round-robined batched drains at
        // equal total entries. The model must put the sweep >= 1.5x ahead.
        let m = CostModel::default();
        let round_robin = 64 * m.batched_dispatch_ns(32);
        let sweep = m.sweep_dispatch_ns(64, 64 * 32);
        let ratio = round_robin as f64 / sweep as f64;
        assert!(
            ratio >= 1.5,
            "sweep amortisation ratio {ratio:.2} below the 1.5x bar \
             ({round_robin} ns round-robin vs {sweep} ns sweep)"
        );
    }
}
