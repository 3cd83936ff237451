//! # secmod-ring
//!
//! Batched submission/completion dispatch rings — the io_uring-shaped
//! counterpart to `sys_smod_call`.
//!
//! The paper's headline result is that a SecModule call is ~10x cheaper
//! than the identical RPC round trip; what remains after the decision
//! cache (PR 3) is the *fixed* per-call cost: syscall entry, session and
//! credential resolution, and cost-model accounting. This crate provides
//! the data structures that amortise those fixed costs across N calls,
//! the same way io_uring amortises syscall entry across a queue of I/O
//! requests and LSM deployments amortise per-hook work on hot paths:
//!
//! * [`ring`] — a bounded power-of-two [`Ring`]: Vyukov-style sequence
//!   slots, one cache line each, with cache-line-padded head/tail
//!   counters. Multi-producer /
//!   multi-consumer by CAS, plus documented single-producer
//!   ([`Ring::push_spsc`]) and single-consumer ([`Ring::pop_spsc`]) fast
//!   paths that replace the CAS with a plain store.
//! * [`call`] — the wire types carried by the rings:
//!   [`SmodCallReq`] `{ session, proc_id, user_data, args }` flowing
//!   client → kernel through a [`SubmissionRing`], and [`SmodCallResp`]
//!   `{ user_data, ret, errno, cost_ns }` flowing back through a
//!   [`CompletionRing`]. The kernel's `sys_smod_call_batch` resolves the
//!   session once, then drains the submission ring up to a batch budget.
//! * [`arena`] — an [`ArgArena`]: the shared-memory byte arena behind
//!   the zero-copy argument path. Payloads above [`arena::INLINE_ARG_MAX`]
//!   bytes are written once into an arena slot and travel by
//!   `(offset, len, generation)` descriptor ([`ArgRef::Arena`]) instead
//!   of by value — the ring analogue of the paper's shared argument
//!   stack; payloads up to 24 B ride inline in the ring entry, borrowed
//!   or owned alike (which keeps every call-ring slot to one 64-byte
//!   cache line), and a larger one degrades to an owned copy
//!   ([`ArgRef::Heap`]) when no arena is attached or it is full. Slots
//!   are power-of-two sized off segregated freelists, generation-tagged
//!   against use-after-reap, quota-bounded per session
//!   ([`arena::ArenaRegion`]), and freed by RAII ([`arena::ArenaSlot`])
//!   so every teardown path — EIDRM fills, ring drops, async drop-cancel
//!   — releases in-flight bytes automatically.
//! * [`set`] — a [`RingSet`]: the multi-session registry behind the
//!   dispatch plane. Per-session [`set::SessionRings`] pairs addressed by
//!   [`set::RingSlotId`], plus a cache-line-padded readiness bitmap so a
//!   sweep (`sys_smod_sweep`) finds the rings with work in a handful of
//!   word loads and resolves each ready session once per visit.
//!   Submission refusals are typed ([`set::SubmitError`]) so callers can tell backpressure
//!   (`Full`: retry after a completion) from teardown (`Detached`: never
//!   retry). Slots carry a raw tenant id, and every sweep records its
//!   in-flight claims in a per-drainer [`set::ClaimLedger`] so a dead
//!   drainer's stranded readiness bits can be reclaimed.
//!
//! Nearly all of the workspace's `unsafe` lives in this crate (the rest
//! is the `vendor/affinity` syscall shim and `secmod_crypto`'s one call
//! into its SHA-extension kernel): ring slot payloads live in
//! `UnsafeCell<MaybeUninit<T>>` (as in crossbeam's `ArrayQueue`), with
//! the Vyukov sequence protocol guaranteeing each slot is owned by
//! exactly one thread between its sequence transitions, and [`arena`]
//! slots make the same exclusive-owner argument over byte ranges handed
//! out by the alloc/free protocol. The unsafe surface is confined to
//! [`ring`]'s two four-line accessors and [`arena`]'s three, plus the
//! arena constructor's two casts that let its bytes start uninitialised
//! and its generation tags start as zeroed pages — a per-slot mutex
//! alternative measured ~2x slower per hand-off, which is exactly the
//! margin the batched-dispatch acceptance bar lives on.

#![deny(unsafe_op_in_unsafe_fn)]
#![warn(missing_docs)]

pub mod arena;
pub mod call;
pub mod ring;
pub mod set;

pub use arena::{ArenaRegion, ArenaSlot, ArgArena, ArgRef, INLINE_ARG_MAX, MAGAZINE_DEPTH};
pub use call::{CompletionRing, SmodCallReq, SmodCallResp, SMOD_BATCH_DEFAULT_BUDGET};
pub use call::{RingPairConfig, SubmissionRing};
pub use ring::Ring;
pub use set::{ClaimLedger, RingSet, RingSlotId, SessionRings, SubmitError};
