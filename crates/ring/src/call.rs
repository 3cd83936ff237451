//! The batched-dispatch wire types carried by the rings.
//!
//! A client thread fills [`SmodCallReq`] entries into a
//! [`SubmissionRing`]; the kernel's `sys_smod_call_batch` resolves the
//! session/credential/gateway once, drains up to its batch budget, runs
//! each function body, and pushes one [`SmodCallResp`] per request into
//! the paired [`CompletionRing`]. `user_data` is the io_uring-style
//! cookie: the kernel echoes it untouched so a client multiplexing many
//! logical operations over one ring can match completions to requests
//! without relying on ordering. Completions arrive in submission order
//! only while a *single* drainer serves the ring pair; concurrent
//! drainers sweeping one ring (legal: several `sys_smod_call_batch`
//! callers may drain the same pair) may interleave their chunks, so
//! order-sensitive clients must match on `user_data`.
//!
//! Both entries are sized to the ring's cache line: a request is 48 B
//! and a response 56 B, so with its sequence word each ring slot is one
//! 64-byte line and a hand-off moves exactly one line between cores.
//! What keeps them there is [`ArgRef`]'s 32 bytes: payloads up to
//! [`crate::INLINE_ARG_MAX`] (24) bytes ride inline, larger ones by
//! arena descriptor or heap pointer.
//!
//! The types are deliberately kernel-agnostic (raw `u32` session ids,
//! raw errno codes): this crate sits below `secmod_kernel` in the
//! dependency graph so both the kernel and the RPC transport can share
//! one definition.

use crate::arena::ArgRef;
use crate::ring::{Ring, Slot};

/// Default number of submission entries a single `sys_smod_call_batch`
/// invocation will drain.
pub const SMOD_BATCH_DEFAULT_BUDGET: usize = 128;

/// One batched call request: "invoke function `proc_id` of the module
/// bound to `session` with `args`".
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmodCallReq {
    /// The raw session id (`SessionId.0`) the caller holds.
    pub session: u32,
    /// The function id within the module's stub table.
    pub proc_id: u32,
    /// Caller cookie echoed verbatim in the matching completion.
    pub user_data: u64,
    /// Marshalled argument bytes (what the client stub placed on the
    /// shared stack). Small payloads ride inline in the ring entry;
    /// large ones pass by [`ArgRef::Arena`] descriptor when the slot has
    /// an arena region attached — the zero-copy path.
    pub args: ArgRef,
}

/// One batched call completion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmodCallResp {
    /// The request's `user_data`, echoed verbatim.
    pub user_data: u64,
    /// Marshalled result bytes (empty on error). Like request args,
    /// large results pass by arena descriptor; dropping an unread
    /// response frees the slot via [`ArgRef`]'s RAII.
    pub ret: ArgRef,
    /// 0 on success, else the kernel errno code (`Errno::code()`).
    pub errno: i32,
    /// Simulated nanoseconds charged for this entry (policy check, copy,
    /// function body); the amortised per-batch fixed cost is charged
    /// separately and reported by the batch call itself.
    pub cost_ns: u64,
}

impl SmodCallResp {
    /// Did the call succeed?
    pub fn is_ok(&self) -> bool {
        self.errno == 0
    }

    /// The result bytes, wherever they live (inline, heap, or read in
    /// place from the arena).
    pub fn ret_bytes(&self) -> &[u8] {
        self.ret.as_slice()
    }

    /// Take an owned copy of the result, consuming the response (and
    /// freeing its arena slot, when there is one).
    pub fn into_ret(self) -> Vec<u8> {
        self.ret.into_vec()
    }
}

// Each ring slot of either direction is exactly one cache line: the
// 8-B sequence word plus a 48-B request or a 56-B response.
const _: () = assert!(std::mem::size_of::<SmodCallReq>() == 48);
const _: () = assert!(std::mem::size_of::<SmodCallResp>() == 56);
const _: () = assert!(std::mem::size_of::<Slot<SmodCallReq>>() == 64);
const _: () = assert!(std::mem::size_of::<Slot<SmodCallResp>>() == 64);

/// Client → kernel request ring.
pub type SubmissionRing = Ring<SmodCallReq>;
/// Kernel → client completion ring.
pub type CompletionRing = Ring<SmodCallResp>;

/// Sizing for a submission/completion ring pair.
#[derive(Clone, Copy, Debug)]
pub struct RingPairConfig {
    /// Submission ring capacity (rounded up to a power of two).
    pub submission: usize,
    /// Completion ring capacity; must end up >= the submission capacity
    /// so a full drain can never stall publishing completions.
    pub completion: usize,
}

impl Default for RingPairConfig {
    fn default() -> Self {
        RingPairConfig {
            submission: 256,
            completion: 256,
        }
    }
}

impl RingPairConfig {
    /// Build the ring pair.
    pub fn build(self) -> (SubmissionRing, CompletionRing) {
        (
            Ring::with_capacity(self.submission),
            Ring::with_capacity(self.completion.max(self.submission)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_pair_carries_requests_and_responses() {
        let (sq, cq) = RingPairConfig::default().build();
        assert!(cq.capacity() >= sq.capacity());
        let req = SmodCallReq {
            session: 1,
            proc_id: 2,
            user_data: 77,
            args: 41u64.to_le_bytes().into(),
        };
        sq.push_spsc(req.clone()).unwrap();
        let drained = sq.pop_spsc().unwrap();
        assert_eq!(drained, req);
        cq.push_spsc(SmodCallResp {
            user_data: drained.user_data,
            ret: 42u64.to_le_bytes().into(),
            errno: 0,
            cost_ns: 85,
        })
        .unwrap();
        let resp = cq.pop_spsc().unwrap();
        assert!(resp.is_ok());
        assert_eq!(resp.user_data, 77);
        assert_eq!(resp.into_ret(), 42u64.to_le_bytes().to_vec());
    }

    #[test]
    fn completion_ring_never_smaller_than_submission() {
        let (sq, cq) = RingPairConfig {
            submission: 128,
            completion: 8,
        }
        .build();
        assert_eq!(sq.capacity(), 128);
        assert_eq!(cq.capacity(), 128);
    }
}
