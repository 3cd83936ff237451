//! The outcome vocabulary the ring-based frontends share.
//!
//! A completion popped off a ring ([`SmodCallResp`]) carries an errno
//! code; a caller reacts to one of three things, and [`DispatchError`]
//! names them: a kernel verdict ([`DispatchError::Errno`] — denial,
//! unknown function, torn-down session), transient backpressure
//! ([`DispatchError::Backpressure`] — retry after completions drain), and
//! permanent teardown ([`DispatchError::Detached`] — stop retrying).
//! [`DispatchError::from_resp`] is the one place a completion becomes a
//! `Result`; the async frontend's futures resolve to it.

use crate::errno::Errno;
use secmod_ring::SmodCallResp;

/// What one dispatched call produced: the return bytes, or why not.
pub type DispatchOutcome = Result<Vec<u8>, DispatchError>;

/// Why a dispatched call produced no return bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchError {
    /// The kernel answered with an errno (policy denial, unknown
    /// function, session torn down mid-call, …).
    Errno(Errno),
    /// Transient backpressure: a ring had no space. The request was not
    /// accepted; retry after reaping/awaiting completions.
    Backpressure,
    /// The frontend is permanently gone (plane shut down, session slot
    /// deregistered). Retrying can never succeed.
    Detached,
}

impl DispatchError {
    /// Map a ring completion to an outcome.
    pub fn from_resp(resp: SmodCallResp) -> DispatchOutcome {
        if resp.is_ok() {
            Ok(resp.into_ret())
        } else {
            Err(DispatchError::Errno(
                Errno::from_code(resp.errno).unwrap_or(Errno::EINVAL),
            ))
        }
    }
}

impl From<Errno> for DispatchError {
    fn from(e: Errno) -> DispatchError {
        DispatchError::Errno(e)
    }
}

impl std::fmt::Display for DispatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DispatchError::Errno(e) => write!(f, "kernel errno {e}"),
            DispatchError::Backpressure => write!(f, "backpressure (retry after completions)"),
            DispatchError::Detached => write!(f, "frontend detached (do not retry)"),
        }
    }
}

impl std::error::Error for DispatchError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::tests::{kernel_with_clients, req};
    use crate::plane::{DispatchPlane, PlaneConfig};
    use secmod_ring::RingPairConfig;
    use std::sync::Arc;

    /// `n` calls, every `bad_every`-th naming an unknown function, pushed
    /// through `sys_smod_call_batch` and mapped with `from_resp`, in
    /// completion (= submission) order.
    fn batched(
        k: &crate::kernel::Kernel,
        client: crate::proc::Pid,
        incr: u32,
        n: u64,
        bad_every: u64,
    ) -> Vec<DispatchOutcome> {
        let (sq, cq) = RingPairConfig {
            submission: n as usize,
            completion: n as usize,
        }
        .build();
        for i in 0..n {
            let func = if i % bad_every == 0 { u32::MAX } else { incr };
            sq.push_spsc(req(k, client, func, i, i)).unwrap();
        }
        k.sys_smod_call_batch(client, &sq, &cq, n as usize).unwrap();
        std::iter::from_fn(|| cq.pop_spsc())
            .enumerate()
            .map(|(i, resp)| {
                assert_eq!(resp.user_data, i as u64, "completions keep call order");
                DispatchError::from_resp(resp)
            })
            .collect()
    }

    #[test]
    fn kernel_dispatch_batch_keeps_call_order() {
        let (k, _m, clients, incr) = kernel_with_clients(None, 1);
        let outcomes = batched(&k, clients[0], incr, 10, 5);
        assert_eq!(outcomes.len(), 10);
        for (i, outcome) in outcomes.iter().enumerate() {
            if i % 5 == 0 {
                assert_eq!(outcome, &Err(DispatchError::Errno(Errno::ENOENT)));
            } else {
                assert_eq!(outcome, &Ok((i as u64 + 1).to_le_bytes().to_vec()));
            }
        }
    }

    #[test]
    fn plane_handle_dispatches_the_same_outcomes_as_the_kernel() {
        let (k, _m, clients, incr) = kernel_with_clients(None, 1);
        let client = clients[0];
        let expected = batched(&k, client, incr, 64, 7);

        let plane = DispatchPlane::start(Arc::new(k), PlaneConfig::default()).unwrap();
        let handle = plane.attach(client).unwrap();
        let mut outcomes: Vec<Option<DispatchOutcome>> = vec![None; 64];
        for i in 0..64u64 {
            let func = if i % 7 == 0 { u32::MAX } else { incr };
            handle.submit(func, i, i.to_le_bytes().to_vec()).unwrap();
        }
        let mut reaped = 0;
        while reaped < 64 {
            match handle.reap() {
                Some(resp) => {
                    let idx = resp.user_data as usize;
                    assert!(outcomes[idx].is_none(), "entry {idx} completed twice");
                    outcomes[idx] = Some(DispatchError::from_resp(resp));
                    reaped += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        let outcomes: Vec<DispatchOutcome> = outcomes.into_iter().flatten().collect();
        assert_eq!(outcomes, expected);
        plane.shutdown();
    }
}
