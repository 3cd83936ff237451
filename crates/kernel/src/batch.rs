//! `sys_smod_call_batch`: the io_uring-shaped batched entry point over
//! the `sys_smod_call` dispatch path — plus the shared chunk-drain
//! machinery the multi-session sweep ([`crate::sweep`]) reuses.
//!
//! A single `sys_smod_call` pays fixed costs on every invocation —
//! syscall entry, process/session resolution, cost-model accounting —
//! before any useful work happens. The batched entry point resolves the
//! caller's session, credential prototype and module gateway **once**,
//! then drains up to `batch_budget` [`SmodCallReq`] entries from a
//! [`SubmissionRing`], pushing one [`SmodCallResp`] per entry into the
//! paired [`CompletionRing`]. The fixed work is charged once per batch
//! through [`crate::cost::CostModel::batched_dispatch_ns`]; per-entry
//! work (policy decision, argument copy, the function body) is charged
//! per entry, with cached vs uncached decisions still priced honestly.
//!
//! Entries are processed in chunks of [`BATCH_CHUNK`] under one
//! acquisition of the client/handle pair locks, so a long batch does not
//! starve teardown: between chunks the kernel re-reads the invalidation
//! epochs, and if anything moved it re-validates that the session and
//! its module still exist. A detach or module removal that lands
//! mid-batch therefore fails every remaining entry with `EIDRM`
//! ("identifier removed") instead of dispatching into a dead module —
//! the batched analogue of the single-call path's epoch fold.
//!
//! Within a chunk, decisions are served from a **drain-local memo**
//! keyed by function id: the first entry for a function resolves through
//! the module gateway (and charges the true cached/uncached cost),
//! repeats are priced as cached decisions. The memo is cleared whenever
//! the gateway's epoch moves (policy grant, key registration, or any
//! kernel detach/remove), so its staleness window is one chunk — the
//! same window at which teardown is honoured.
//!
//! The chunked loop itself — epoch re-read, per-chunk credential
//! re-verification, EIDRM on teardown, completion-space reservation — is
//! factored into [`SessionDrain`] / [`Kernel::drain_session_rings`] so
//! that the per-session path here and the multi-session
//! `sys_smod_sweep` share one implementation instead of two copies of
//! the re-check logic.

use crate::errno::Errno;
use crate::kernel::Kernel;
use crate::proc::Pid;
use crate::smod::{Session, SessionState};
use crate::smodreg::{FunctionBody, RegisteredModule};
use crate::trace::Event;
use crate::SysResult;
use secmod_obs::Flavor;
use secmod_ring::{ArenaRegion, ArgRef, CompletionRing, SmodCallReq, SmodCallResp, SubmissionRing};
use std::sync::Arc;

/// Entries processed under one acquisition of the client/handle pair
/// locks. Small enough that a racing detach waits at most one chunk for
/// the client lock; large enough that lock traffic stays amortised.
pub const BATCH_CHUNK: usize = 32;

/// What one `sys_smod_call_batch` invocation did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BatchReport {
    /// Submission entries consumed (≤ the batch budget).
    pub drained: usize,
    /// Entries that completed successfully (`errno == 0`).
    pub completed: usize,
    /// Entries that completed with an error (denied, unknown function,
    /// wrong session, or failed because the session died mid-batch).
    pub failed: usize,
    /// The session or its module vanished mid-batch; every entry drained
    /// after the vanishing completed with `EIDRM`.
    pub aborted: bool,
    /// The amortised per-batch fixed cost charged to the caller:
    /// [`crate::cost::CostModel::batched_dispatch_ns`] of the entries
    /// that underwent a policy check or body run (validation rejects are
    /// free, as on the single-call path).
    pub fixed_cost_ns: u64,
}

/// The drain's one tally: everything a drained entry adds to the shared
/// [`secmod_obs::DispatchMetrics`] registry is counted here and flushed
/// once per drain, so the per-entry loop writes no shared cache line and
/// the registry is exact again by the time the drain returns. (A
/// producer that reaps a completion *while* its drain is still running
/// may read totals that do not include it yet.)
///
/// Latency is tallied as runs of equal `cost_ns`: entries of one
/// function and payload size cost the same, so a drain has a handful of
/// distinct values and records each run with one `record_n`.
#[derive(Default)]
struct DrainTally {
    gate_hits: u64,
    gate_misses: u64,
    inline_args: u64,
    arena_args: u64,
    eidrm_failures: u64,
    run_cost_ns: u64,
    run_len: u64,
}

impl DrainTally {
    fn gate(&mut self, tier: secmod_policy::DecisionTier) {
        if tier.is_cached() {
            self.gate_hits += 1;
        } else {
            self.gate_misses += 1;
        }
    }

    fn latency(&mut self, latency: &secmod_obs::Histogram, cost_ns: u64) {
        if cost_ns != self.run_cost_ns {
            latency.record_n(self.run_cost_ns, self.run_len);
            self.run_cost_ns = cost_ns;
            self.run_len = 0;
        }
        self.run_len += 1;
    }

    fn flush(self, latency: &secmod_obs::Histogram, metrics: &secmod_obs::DispatchMetrics) {
        latency.record_n(self.run_cost_ns, self.run_len);
        metrics.gate_hits.add(self.gate_hits);
        metrics.gate_misses.add(self.gate_misses);
        metrics.arena.inline_args.add(self.inline_args);
        metrics.arena.arena_args.add(self.arena_args);
        metrics.eidrm_failures.add(self.eidrm_failures);
    }
}

/// One memoised per-drain dispatch decision for a function id.
enum MemoEntry {
    /// No such stub: `ENOENT`.
    Missing,
    /// Policy denies the caller this function: `EACCES`.
    Denied,
    /// Stub exists but no body is registered: `ENOSYS`.
    NoBody,
    /// Allowed; the body to run (Arc-cloned once per drain, not per call).
    Allowed(FunctionBody),
}

/// Reusable drain buffers: the decision memo and the chunk staging
/// areas. A sweep allocates one of these and reuses it across every
/// session it visits (the memo is cleared per session — decisions are
/// valid only for the credential they were resolved under).
pub(crate) struct DrainScratch {
    memo: Vec<(u32, MemoEntry)>,
    chunk: Vec<SmodCallReq>,
    responses: Vec<SmodCallResp>,
}

impl DrainScratch {
    pub(crate) fn new() -> DrainScratch {
        DrainScratch {
            memo: Vec::new(),
            chunk: Vec::with_capacity(BATCH_CHUNK),
            responses: Vec::with_capacity(BATCH_CHUNK),
        }
    }
}

/// The once-per-drain resolution of a session: the pinned session and
/// module, the epochs the decision memo is valid under, and the
/// credential identity the per-chunk re-verification compares against.
/// Built by [`Kernel::resolve_session_drain`]; consumed by
/// [`Kernel::drain_session_rings`]. This is the "resolve once" that the
/// batched path performs per syscall and the sweep performs once per
/// session per sweep.
pub(crate) struct SessionDrain {
    pub(crate) session: Arc<Session>,
    module: Arc<RegisteredModule>,
    kernel_epoch: u64,
    gate_epoch: u64,
    /// Credential identity decisions were last memoised under; movement
    /// clears the memo (per-chunk re-verification).
    last_cred: (u32, Option<u64>),
    dead: bool,
}

/// What one [`Kernel::drain_session_rings`] call did (the per-session
/// slice of a [`BatchReport`] / [`crate::sweep::SweepReport`]).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct DrainOutcome {
    pub drained: usize,
    pub completed: usize,
    pub failed: usize,
    /// Entries that underwent a policy check or body run — the count the
    /// amortised fixed cost is charged for (validation rejects are free).
    pub checked: usize,
    /// Per-entry simulated nanoseconds accumulated (policy, copy, body).
    pub entry_ns: u64,
    /// The session or module vanished mid-drain; the remainder was
    /// completed with `EIDRM`.
    pub aborted: bool,
}

/// Fail every queued submission with `EIDRM` — the path for a ring whose
/// session was already gone when the drain reached it. Respects
/// completion-ring space exactly like a live drain: entries that cannot
/// be answered yet stay queued (the caller re-flags the slot). Returns
/// how many entries were answered.
pub(crate) fn fail_all_eidrm(sq: &SubmissionRing, cq: &CompletionRing) -> usize {
    let mut failed = 0;
    loop {
        let cq_free = cq.capacity() - cq.len().min(cq.capacity());
        if cq_free == 0 {
            return failed;
        }
        let mut took = 0;
        while took < cq_free {
            match sq.pop() {
                Some(req) => {
                    took += 1;
                    // `req` drops here, freeing any arena slot its args
                    // held — the EIDRM path leaks nothing.
                    let mut pending = SmodCallResp {
                        user_data: req.user_data,
                        ret: ArgRef::empty(),
                        errno: Errno::EIDRM.code(),
                        cost_ns: 0,
                    };
                    while let Err(back) = cq.push(pending) {
                        pending = back;
                        std::thread::yield_now();
                    }
                }
                None => return failed + took,
            }
        }
        failed += took;
    }
}

impl Kernel {
    /// Batched `sys_smod_call`: drain up to `batch_budget` entries from
    /// `sq`, completing each into `cq`.
    ///
    /// The caller must be the client of an established session, exactly
    /// as for `sys_smod_call`; every drained entry must name that session
    /// (`req.session`), or it completes with `EPERM`. The completion ring
    /// must be at least as large as the submission ring (`EINVAL`
    /// otherwise), and each chunk reserves completion-ring space before
    /// consuming submissions — a caller that batches repeatedly without
    /// reaping gets a short (possibly zero-entry) drain back rather than
    /// a kernel thread deadlocked against its own unreaped completions.
    /// Only when concurrent drainers overcommit the same ring does the
    /// publish path fall back to spinning until the consumer catches up.
    ///
    /// Takes `&self`: any number of threads may drain different rings
    /// concurrently, and producers may keep submitting into `sq` while a
    /// drain is in flight — MPSC submission is the intended shape.
    pub fn sys_smod_call_batch(
        &self,
        caller: Pid,
        sq: &SubmissionRing,
        cq: &CompletionRing,
        batch_budget: usize,
    ) -> SysResult<BatchReport> {
        if cq.capacity() < sq.capacity() {
            return Err(Errno::EINVAL);
        }
        // --- once-per-batch resolution (the amortised fixed work) -------
        let link = self.procs.with(caller, |p| p.smod)?.ok_or(Errno::EPERM)?;
        let session = self.sessions.get(link.session).ok_or(Errno::EPERM)?;
        if caller != session.client {
            return Err(Errno::EPERM);
        }
        if session.state() != SessionState::Established {
            return Err(Errno::EINVAL);
        }
        let mut drain = self.resolve_session_drain(session);
        let mut scratch = DrainScratch::new();
        let outcome = self.drain_session_rings(
            &mut drain,
            sq,
            cq,
            None,
            batch_budget,
            &mut scratch,
            Flavor::Batch,
        );

        let mut report = BatchReport {
            drained: outcome.drained,
            completed: outcome.completed,
            failed: outcome.failed,
            aborted: outcome.aborted,
            fixed_cost_ns: 0,
        };
        // --- amortised accounting ---------------------------------------
        // The amortised fixed cost covers the entries that actually went
        // through a policy check or body — entries rejected during
        // validation (unknown function, wrong session, dead session) are
        // free, exactly as `sys_smod_call`'s validation-error paths
        // charge nothing. A drain that checked nothing (empty, or all
        // entries invalid) still pays the bare trap.
        if outcome.checked > 0 {
            report.fixed_cost_ns = self.cost.batched_dispatch_ns(outcome.checked);
            let _ = self
                .procs
                .with_mut(caller, |p| p.cpu_time_ns += report.fixed_cost_ns);
            self.clock
                .advance_striped(caller.0 as u64, report.fixed_cost_ns + outcome.entry_ns);
            // One context-switch pair per *batch* — the single-call path
            // records one pair per call; this is the amortisation.
            self.context_switch_n(caller, 2);
        } else {
            self.charge(caller, self.cost.syscall_trap_ns);
        }
        Ok(report)
    }

    /// Resolve a session for a drain: pin the module `Arc`, fold the
    /// kernel epoch into the gateway, and snapshot the epochs and the
    /// memoised credential identity. This is the fixed work the batched
    /// path pays once per syscall and the sweep pays once per session per
    /// sweep.
    pub(crate) fn resolve_session_drain(&self, session: Arc<Session>) -> SessionDrain {
        let module = Arc::clone(session.module_ref());
        let kernel_epoch = self.smod_epoch();
        module.gateway.observe_kernel_epoch(kernel_epoch);
        let gate_epoch = module.gateway.epoch();
        let last_cred = (session.proto.uid, session.proto.principal_fp);
        SessionDrain {
            session,
            module,
            kernel_epoch,
            gate_epoch,
            last_cred,
            dead: false,
        }
    }

    /// The shared chunked drain: pop up to `budget` entries from `sq` in
    /// [`BATCH_CHUNK`]-sized chunks, re-reading the invalidation epochs
    /// and re-verifying the live credential between chunks, running each
    /// entry under one pair-lock acquisition per chunk, and publishing
    /// one completion per entry into `cq` (completion space is reserved
    /// *before* submissions are consumed). Teardown detected mid-drain
    /// fails the remainder with `EIDRM`.
    ///
    /// Both `sys_smod_call_batch` (one session per syscall) and
    /// `sys_smod_sweep` (every ready session per syscall) funnel through
    /// here, so the epoch/credential re-check semantics cannot drift
    /// between the two paths.
    #[allow(clippy::too_many_arguments)] // one arg per drain resource; bundling would obscure them
    pub(crate) fn drain_session_rings(
        &self,
        d: &mut SessionDrain,
        sq: &SubmissionRing,
        cq: &CompletionRing,
        region: Option<&ArenaRegion>,
        budget: usize,
        scratch: &mut DrainScratch,
        flavor: Flavor,
    ) -> DrainOutcome {
        scratch.memo.clear();
        let mut outcome = DrainOutcome::default();
        let mut tally = DrainTally::default();
        let latency = self.metrics.latency(flavor);
        let trace = self.tracer.enabled();
        // Two refcount bumps per drain keep the borrows of `d` (mutated
        // inside the pair-locked closure) disjoint from the session/module
        // handles used around it.
        let session = Arc::clone(&d.session);
        let module = Arc::clone(&d.module);
        let DrainScratch {
            memo,
            chunk,
            responses,
        } = scratch;

        while outcome.drained < budget {
            // Reserve completion space *before* consuming submissions: a
            // chunk is only popped if its completions can be published
            // without waiting on the consumer. A caller that batches
            // repeatedly without reaping therefore gets a short (or
            // zero-entry) drain back instead of deadlocking the kernel
            // against its own unreaped completion ring; concurrent
            // reaping only ever increases the space observed here.
            let cq_free = cq.capacity() - cq.len().min(cq.capacity());
            let take = BATCH_CHUNK.min(budget - outcome.drained).min(cq_free);
            while chunk.len() < take {
                match sq.pop() {
                    Some(req) => chunk.push(req),
                    None => break,
                }
            }
            if chunk.is_empty() {
                break;
            }

            // Epoch fold between chunks: a detach/remove that completed
            // since the last chunk invalidates the pinned session; any
            // epoch movement (including live policy mutations through the
            // gateway) invalidates the drain-local decision memo.
            if !d.dead {
                let now = self.smod_epoch();
                if now != d.kernel_epoch {
                    d.kernel_epoch = now;
                    module.gateway.observe_kernel_epoch(now);
                    d.dead = self.sessions.get(session.id).is_none()
                        || self.registry.get(session.module).is_err();
                }
                let gate_now = module.gateway.epoch();
                if gate_now != d.gate_epoch {
                    d.gate_epoch = gate_now;
                    memo.clear();
                }
            }

            if d.dead {
                outcome.aborted = true;
                responses.extend(chunk.iter().map(|req| SmodCallResp {
                    user_data: req.user_data,
                    ret: ArgRef::empty(),
                    errno: Errno::EIDRM.code(),
                    cost_ns: 0,
                }));
            } else {
                let pair_outcome = session.with_pair(|handle_proc, client_proc| {
                    // Per-chunk credential re-verification: the client is
                    // already pair-locked here, so consulting the live
                    // credential costs a fingerprint comparison, no extra
                    // locking. A mismatch (revocation mid-batch) switches
                    // the chunk to a live-derived view and invalidates
                    // the drain memo.
                    let module_name = &module.package.image.name;
                    let cred_now = (
                        client_proc.cred.uid,
                        client_proc.cred.principal_fp64(module_name),
                    );
                    if cred_now != d.last_cred {
                        d.last_cred = cred_now;
                        memo.clear();
                    }
                    let live: Option<(String, Option<secmod_policy::Principal>, u32)> =
                        if session.proto.matches(&client_proc.cred, module_name) {
                            None
                        } else {
                            Some((
                                client_proc.name.clone(),
                                client_proc.cred.principal_for(module_name),
                                client_proc.cred.uid,
                            ))
                        };
                    let mut client_ns = 0u64;
                    let mut handle_ns = 0u64;
                    let mut bodies_run = 0u64;
                    for req in chunk.iter() {
                        let (resp, extra_ns, ran) = self.batch_entry(
                            &session,
                            &module,
                            req,
                            region,
                            live.as_ref(),
                            memo,
                            &mut tally,
                            |body, args| {
                                let mut ctx = crate::smodreg::HandleCtx {
                                    handle_vm: &mut handle_proc.vm,
                                    client_vm: &client_proc.vm,
                                    client_pid: session.client,
                                    extra_ns: 0,
                                };
                                let result = body(&mut ctx, args);
                                (result, ctx.extra_ns)
                            },
                        );
                        client_ns += resp.cost_ns - extra_ns;
                        handle_ns += extra_ns;
                        bodies_run += u64::from(ran);
                        responses.push(resp);
                    }
                    client_proc.cpu_time_ns += client_ns;
                    handle_proc.cpu_time_ns += handle_ns;
                    bodies_run
                });
                match pair_outcome {
                    Ok(bodies_run) => {
                        session.note_calls(bodies_run);
                        module.note_calls_dispatched(session.client.0 as u64, bodies_run);
                    }
                    // The pair became unlockable (a process was reaped):
                    // the session is dead no matter which errno the lock
                    // reported, so fail this chunk — and the rest of the
                    // drain — with the same `EIDRM` the epoch-detected
                    // teardown path uses, keeping the "everything after
                    // the vanishing is EIDRM" contract.
                    Err(_) => {
                        d.dead = true;
                        outcome.aborted = true;
                        responses.extend(chunk.iter().map(|req| SmodCallResp {
                            user_data: req.user_data,
                            ret: ArgRef::empty(),
                            errno: Errno::EIDRM.code(),
                            cost_ns: 0,
                        }));
                    }
                }
            }

            for (req, resp) in chunk.drain(..).zip(responses.drain(..)) {
                if trace {
                    self.tracer.record(Event::SmodCall {
                        session: session.id,
                        func_id: req.proc_id,
                        symbol: module
                            .package
                            .stub_table
                            .by_id(req.proc_id)
                            .map(|s| s.symbol.clone())
                            .unwrap_or_default(),
                        allowed: resp.is_ok(),
                    });
                }
                outcome.drained += 1;
                if resp.is_ok() {
                    outcome.completed += 1;
                } else {
                    outcome.failed += 1;
                }
                outcome.checked += usize::from(resp.cost_ns > 0);
                outcome.entry_ns += resp.cost_ns;
                // Validation rejects carry `cost_ns == 0` and would only
                // flatten the distribution — record the entries that did
                // real per-entry work, the same set `checked` counts.
                if resp.cost_ns > 0 {
                    tally.latency(latency, resp.cost_ns);
                }
                tally.eidrm_failures += u64::from(resp.errno == Errno::EIDRM.code());
                let mut pending = resp;
                while let Err(back) = cq.push(pending) {
                    pending = back;
                    std::thread::yield_now();
                }
            }
        }
        tally.flush(latency, &self.metrics);
        outcome
    }

    /// Process one submission entry: validate, resolve the decision (from
    /// the drain memo, or through the module gateway on the first sight
    /// of this function id — cached vs uncached charged honestly), run
    /// the body via `run` (which supplies the pair-locked
    /// [`crate::smodreg::HandleCtx`]), and assemble the completion.
    /// `live` overrides the session prototype when the chunk found the
    /// live credential diverged from it. Returns the completion, the
    /// body's extra charged nanoseconds (already included in `cost_ns`),
    /// and whether a body actually ran.
    #[allow(clippy::type_complexity, clippy::too_many_arguments)]
    fn batch_entry(
        &self,
        session: &Session,
        module: &RegisteredModule,
        req: &SmodCallReq,
        region: Option<&ArenaRegion>,
        live: Option<&(String, Option<secmod_policy::Principal>, u32)>,
        memo: &mut Vec<(u32, MemoEntry)>,
        tally: &mut DrainTally,
        run: impl FnOnce(&FunctionBody, &[u8]) -> (SysResult<Vec<u8>>, u64),
    ) -> (SmodCallResp, u64, bool) {
        let fail = |errno: Errno, cost_ns: u64| {
            (
                SmodCallResp {
                    user_data: req.user_data,
                    ret: ArgRef::empty(),
                    errno: errno.code(),
                    cost_ns,
                },
                0,
                false,
            )
        };
        if req.session != session.id.0 {
            return fail(Errno::EPERM, 0);
        }
        // Resolve the decision: memo hit, or first-sight gateway probe.
        let mut policy_cost = self.cost.cached_decision_ns;
        let memo_idx = match memo.iter().position(|(id, _)| *id == req.proc_id) {
            Some(idx) => idx,
            None => {
                let entry = match module.package.stub_table.by_id(req.proc_id) {
                    None => MemoEntry::Missing,
                    Some(stub) => {
                        let proto = &session.proto;
                        let (app_domain, principal, uid) = match live {
                            Some((name, principal, uid)) => {
                                (name.as_str(), principal.as_ref(), *uid)
                            }
                            None => (
                                proto.client_name.as_str(),
                                proto.principal.as_ref(),
                                proto.uid,
                            ),
                        };
                        let (allowed, tier) =
                            module.check_operation(app_domain, principal, uid, &stub.symbol);
                        tally.gate(tier);
                        // The first sight of a function in a drain pays
                        // the true decision cost; repeats are memo hits.
                        policy_cost = if tier.is_cached() {
                            self.cost.cached_decision_ns
                        } else {
                            self.cost.policy_per_node_ns * module.policy_complexity as u64
                        };
                        if !allowed {
                            MemoEntry::Denied
                        } else {
                            match module.functions.get(req.proc_id) {
                                Some(body) => MemoEntry::Allowed(body),
                                None => MemoEntry::NoBody,
                            }
                        }
                    }
                };
                memo.push((req.proc_id, entry));
                memo.len() - 1
            }
        };
        // The zero-copy payoff, in cost-model form: an arena-resident
        // argument block crosses the ring as an `(offset, len, gen)`
        // descriptor, so the kernel charges one extra slot hand-off
        // instead of `copy_per_byte_ns x len` — the paper's shared-stack
        // argument. By-value args (inline or heap) still pay per byte.
        let copy_cost = if req.args.is_arena() {
            tally.arena_args += 1;
            self.cost.ring_slot_ns
        } else {
            tally.inline_args += 1;
            self.cost.copy_per_byte_ns * req.args.len() as u64
        };
        match &memo[memo_idx].1 {
            MemoEntry::Missing => fail(Errno::ENOENT, 0),
            MemoEntry::Denied => fail(Errno::EACCES, policy_cost + copy_cost),
            MemoEntry::NoBody => fail(Errno::ENOSYS, policy_cost + copy_cost),
            MemoEntry::Allowed(body) => {
                let (result, extra_ns) = run(body, req.args.as_slice());
                let cost_ns = policy_cost + copy_cost + extra_ns;
                match result {
                    // Large results go back through the session's arena
                    // region too, when there is one — the completion
                    // carries a descriptor and the producer reads the
                    // result in place at reap time.
                    Ok(ret) => (
                        SmodCallResp {
                            user_data: req.user_data,
                            ret: ArgRef::place_vec(ret, region),
                            errno: 0,
                            cost_ns,
                        },
                        extra_ns,
                        true,
                    ),
                    Err(e) => (
                        SmodCallResp {
                            user_data: req.user_data,
                            ret: ArgRef::empty(),
                            errno: e.code(),
                            cost_ns,
                        },
                        extra_ns,
                        true,
                    ),
                }
            }
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::cred::Credential;
    use crate::smod::{ModuleKeyDelivery, SmodCallArgs};
    use crate::smodreg::FunctionTable;
    use secmod_module::builder::ModuleBuilder;
    use secmod_module::{ModuleId, SmodPackage, StubTable};
    use secmod_policy::assertion::{Assertion, LicenseeExpr};
    use secmod_policy::{PolicyEngine, Principal};
    use secmod_ring::{Ring, SMOD_BATCH_DEFAULT_BUDGET};
    use std::sync::atomic::{AtomicBool, Ordering};

    pub(crate) const ALICE_KEY: &[u8] = b"batch-alice-key";
    const MAC_KEY: &[u8] = b"batch-mac-key";

    /// The hook the mid-batch / mid-sweep teardown tests use to ask for a
    /// teardown while a drain is in flight: the first body to run sets
    /// `entered`, which the tearing-down thread waits for, and while
    /// `open` is unset every body sleeps 1 ms, which keeps the drain in
    /// flight until the teardown has landed.
    #[derive(Debug, Default)]
    pub(crate) struct SlowGate {
        pub(crate) entered: AtomicBool,
        pub(crate) open: AtomicBool,
    }

    impl SlowGate {
        /// Block until a body is running (so a drain is in flight and,
        /// with the gate closed, will be for a while yet).
        pub(crate) fn wait_entered(&self) {
            while !self.entered.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }
    }

    /// Register the libc-like module with a policy granting alice every
    /// function except `strlen`; every body returns its u64 argument + 1.
    /// `slow_gate`, when set, slows the bodies down as [`SlowGate`]
    /// describes. `n_clients` clients are spawned, each
    /// presenting the alice credential through its own session (the sweep
    /// tests drain many sessions; the batch tests use client 0).
    pub(crate) fn kernel_with_clients(
        slow_gate: Option<Arc<SlowGate>>,
        n_clients: usize,
    ) -> (Kernel, ModuleId, Vec<Pid>, u32) {
        let k = Kernel::new(CostModel::default());
        let registrar = k
            .spawn_process("registrar", Credential::root(), vec![0x90; 4096], 2, 2)
            .unwrap();
        let image = ModuleBuilder::libc_like();
        let key = b"0123456789abcdef".to_vec();
        let nonce = [4u8; 8];
        let enc = secmod_crypto::SelectiveEncryptor::new(&key, nonce).unwrap();
        let package = SmodPackage::seal(&image, &enc, MAC_KEY).unwrap();

        let mut policy = PolicyEngine::new();
        let alice = Principal::from_key("uid1000", ALICE_KEY);
        policy
            .add_assertion(
                Assertion::policy(LicenseeExpr::Single(alice), "function != \"strlen\"").unwrap(),
            )
            .unwrap();

        let stub_table = StubTable::generate(&image);
        let mut functions = FunctionTable::new();
        for stub in &stub_table.stubs {
            let gate = slow_gate.clone();
            functions.register(stub.func_id, move |_ctx, args| {
                if let Some(gate) = &gate {
                    gate.entered.store(true, Ordering::Release);
                    if !gate.open.load(Ordering::Acquire) {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
                let v = u64::from_le_bytes(args[..8].try_into().map_err(|_| Errno::EINVAL)?);
                Ok((v + 1).to_le_bytes().to_vec())
            });
        }
        let incr_id = stub_table.by_name("testincr").unwrap().func_id;

        let m_id = k
            .sys_smod_add(
                registrar,
                package,
                ModuleKeyDelivery::Raw { key, nonce },
                MAC_KEY,
                policy,
                functions,
            )
            .unwrap();
        let clients: Vec<Pid> = (0..n_clients)
            .map(|i| {
                let client = k
                    .spawn_process(
                        &format!("batch-client{i}"),
                        Credential::user(1000, 100).with_smod_credential("libc", ALICE_KEY),
                        vec![0x90; 4096],
                        4,
                        4,
                    )
                    .unwrap();
                let (_session, handle) = k.sys_smod_start_session(client, m_id).unwrap();
                k.sys_smod_session_info(handle).unwrap();
                k.sys_smod_handle_info(client).unwrap();
                client
            })
            .collect();
        (k, m_id, clients, incr_id)
    }

    fn kernel_with_module(slow_gate: Option<Arc<SlowGate>>) -> (Kernel, ModuleId, Pid, u32) {
        let (k, m_id, clients, incr) = kernel_with_clients(slow_gate, 1);
        (k, m_id, clients[0], incr)
    }

    pub(crate) fn req(
        k: &Kernel,
        client: Pid,
        proc_id: u32,
        user_data: u64,
        arg: u64,
    ) -> SmodCallReq {
        SmodCallReq {
            session: k.session_of(client).unwrap().id.0,
            proc_id,
            user_data,
            args: arg.to_le_bytes().into(),
        }
    }

    fn rings(capacity: usize) -> (SubmissionRing, CompletionRing) {
        (Ring::with_capacity(capacity), Ring::with_capacity(capacity))
    }

    #[test]
    fn batch_matches_sequential_results_and_order() {
        let (k, _m, client, incr) = kernel_with_module(None);
        let (sq, cq) = rings(64);
        for i in 0..40u64 {
            sq.push_spsc(req(&k, client, incr, i, 100 + i)).unwrap();
        }
        let report = k
            .sys_smod_call_batch(client, &sq, &cq, SMOD_BATCH_DEFAULT_BUDGET)
            .unwrap();
        assert_eq!(report.drained, 40);
        assert_eq!(report.completed, 40);
        assert_eq!(report.failed, 0);
        assert!(!report.aborted);
        assert_eq!(report.fixed_cost_ns, k.cost.batched_dispatch_ns(40));
        for i in 0..40u64 {
            let resp = cq.pop_spsc().expect("completion present");
            assert_eq!(resp.user_data, i, "completions preserve FIFO order");
            assert!(resp.is_ok());
            assert_eq!(
                u64::from_le_bytes(resp.ret_bytes().try_into().unwrap()),
                101 + i
            );
            assert!(resp.cost_ns > 0, "entries charge per-entry cost");
        }
        assert!(cq.pop_spsc().is_none());
        assert_eq!(k.session_of(client).unwrap().calls(), 40);
    }

    #[test]
    fn batch_respects_budget_and_leaves_the_rest_queued() {
        let (k, _m, client, incr) = kernel_with_module(None);
        let (sq, cq) = rings(32);
        for i in 0..10u64 {
            sq.push_spsc(req(&k, client, incr, i, i)).unwrap();
        }
        let report = k.sys_smod_call_batch(client, &sq, &cq, 4).unwrap();
        assert_eq!(report.drained, 4);
        assert_eq!(sq.len(), 6, "unbudgeted entries stay queued");
        let report = k.sys_smod_call_batch(client, &sq, &cq, 64).unwrap();
        assert_eq!(report.drained, 6);
        assert!(sq.is_empty());
    }

    #[test]
    fn per_entry_failures_do_not_poison_the_batch() {
        let (k, m_id, client, incr) = kernel_with_module(None);
        let strlen = k
            .registry
            .get(m_id)
            .unwrap()
            .package
            .stub_table
            .by_name("strlen")
            .unwrap()
            .func_id;
        let (sq, cq) = rings(16);
        sq.push_spsc(req(&k, client, incr, 0, 1)).unwrap();
        // Wrong session id in the entry.
        let mut bad_session = req(&k, client, incr, 1, 2);
        bad_session.session += 1000;
        sq.push_spsc(bad_session).unwrap();
        // Unknown function id.
        sq.push_spsc(req(&k, client, 9999, 2, 3)).unwrap();
        // Policy-denied function.
        sq.push_spsc(req(&k, client, strlen, 3, 4)).unwrap();
        sq.push_spsc(req(&k, client, incr, 4, 5)).unwrap();

        let report = k.sys_smod_call_batch(client, &sq, &cq, 16).unwrap();
        assert_eq!(report.drained, 5);
        assert_eq!(report.completed, 2);
        assert_eq!(report.failed, 3);
        assert!(!report.aborted);
        let errnos: Vec<i32> = (0..5).map(|_| cq.pop_spsc().unwrap().errno).collect();
        assert_eq!(
            errnos,
            vec![
                0,
                Errno::EPERM.code(),
                Errno::ENOENT.code(),
                Errno::EACCES.code(),
                0
            ]
        );
    }

    #[test]
    fn live_policy_mutation_is_visible_at_the_next_chunk() {
        // The drain memo may serve a decision for at most one chunk: a
        // grant added mid-batch (here: between two batched drains, and
        // within one batch across a chunk boundary) must flip the denied
        // function to allowed.
        let (k, m_id, client, _incr) = kernel_with_module(None);
        let strlen = k
            .registry
            .get(m_id)
            .unwrap()
            .package
            .stub_table
            .by_name("strlen")
            .unwrap()
            .func_id;
        let (sq, cq) = rings(BATCH_CHUNK * 2);
        for i in 0..BATCH_CHUNK as u64 {
            sq.push_spsc(req(&k, client, strlen, i, i)).unwrap();
        }
        let report = k
            .sys_smod_call_batch(client, &sq, &cq, BATCH_CHUNK)
            .unwrap();
        assert_eq!(report.failed, BATCH_CHUNK);
        for _ in 0..BATCH_CHUNK {
            assert_eq!(cq.pop_spsc().unwrap().errno, Errno::EACCES.code());
        }
        // Grant strlen through the live gateway (bumps the gateway epoch,
        // which clears any drain memo at the next chunk boundary).
        let alice = Principal::from_key("uid1000", ALICE_KEY);
        k.registry
            .get(m_id)
            .unwrap()
            .gateway
            .add_assertion(Assertion::policy(LicenseeExpr::Single(alice), "").unwrap())
            .unwrap();
        for i in 0..BATCH_CHUNK as u64 {
            sq.push_spsc(req(&k, client, strlen, i, i)).unwrap();
        }
        let report = k
            .sys_smod_call_batch(client, &sq, &cq, BATCH_CHUNK)
            .unwrap();
        assert_eq!(report.completed, BATCH_CHUNK, "grant must be visible");
    }

    #[test]
    fn validation_only_batches_charge_just_the_trap() {
        // `sys_smod_call` charges nothing on its validation-error paths
        // (unknown function, wrong module); a batch made entirely of such
        // entries must not charge the amortised fixed cost either — only
        // the syscall trap the drain itself cost.
        let (k, _m, client, _incr) = kernel_with_module(None);
        let (sq, cq) = rings(8);
        for i in 0..4u64 {
            sq.push_spsc(req(&k, client, u32::MAX, i, i)).unwrap();
        }
        let before = k.clock.now_ns();
        let report = k.sys_smod_call_batch(client, &sq, &cq, 8).unwrap();
        assert_eq!(report.drained, 4);
        assert_eq!(report.failed, 4);
        assert_eq!(report.fixed_cost_ns, 0);
        assert_eq!(k.clock.now_ns() - before, k.cost.syscall_trap_ns);
        for _ in 0..4 {
            assert_eq!(cq.pop_spsc().unwrap().errno, Errno::ENOENT.code());
        }
    }

    #[test]
    fn unreaped_completions_stop_the_drain_instead_of_hanging() {
        // Regression: sq and cq both capacity 8 passes the EINVAL guard;
        // batching twice without reaping used to spin forever inside the
        // kernel (the only consumer of cq being the blocked caller).
        let (k, _m, client, incr) = kernel_with_module(None);
        let (sq, cq) = rings(8);
        for i in 0..8u64 {
            sq.push_spsc(req(&k, client, incr, i, i)).unwrap();
        }
        assert_eq!(
            k.sys_smod_call_batch(client, &sq, &cq, 8).unwrap().drained,
            8
        );
        // cq now holds 8 unreaped completions; resubmit and drain again.
        for i in 0..8u64 {
            sq.push_spsc(req(&k, client, incr, i, i)).unwrap();
        }
        let report = k.sys_smod_call_batch(client, &sq, &cq, 8).unwrap();
        assert_eq!(report.drained, 0, "full cq must stop the drain");
        assert_eq!(sq.len(), 8, "submissions must stay queued");
        // Reap half: the next drain makes exactly that much progress.
        for _ in 0..4 {
            assert!(cq.pop_spsc().unwrap().is_ok());
        }
        let report = k.sys_smod_call_batch(client, &sq, &cq, 8).unwrap();
        assert_eq!(report.drained, 4);
        assert_eq!(sq.len(), 4);
    }

    #[test]
    fn credential_revocation_is_honoured_by_the_batched_path() {
        // The paper's "credentials are re-verified on every smod_call"
        // invariant, batched: stripping the credential mid-session turns
        // the very next batched drain into denials.
        let (k, _m, client, incr) = kernel_with_module(None);
        let (sq, cq) = rings(16);
        sq.push_spsc(req(&k, client, incr, 0, 1)).unwrap();
        assert_eq!(
            k.sys_smod_call_batch(client, &sq, &cq, 16)
                .unwrap()
                .completed,
            1
        );
        assert!(cq.pop_spsc().unwrap().is_ok());

        k.procs
            .with_mut(client, |p| p.cred = Credential::user(1000, 100))
            .unwrap();
        for i in 0..8u64 {
            sq.push_spsc(req(&k, client, incr, i, i)).unwrap();
        }
        let report = k.sys_smod_call_batch(client, &sq, &cq, 16).unwrap();
        assert_eq!(report.failed, 8, "revoked credential must deny the batch");
        for _ in 0..8 {
            assert_eq!(cq.pop_spsc().unwrap().errno, Errno::EACCES.code());
        }
    }

    #[test]
    fn validation_mirrors_sys_smod_call() {
        let (k, m_id, client, incr) = kernel_with_module(None);
        let (sq, cq) = rings(8);
        // A completion ring smaller than the submission ring is refused.
        let small_cq: CompletionRing = Ring::with_capacity(4);
        assert_eq!(
            k.sys_smod_call_batch(client, &sq, &small_cq, 8)
                .unwrap_err(),
            Errno::EINVAL
        );
        // A process without a session cannot batch.
        let loner = k
            .spawn_process("loner", Credential::user(9, 9), vec![0x90; 4096], 2, 2)
            .unwrap();
        assert_eq!(
            k.sys_smod_call_batch(loner, &sq, &cq, 8).unwrap_err(),
            Errno::EPERM
        );
        // A half-established session cannot batch.
        let late = k
            .spawn_process(
                "late",
                Credential::user(1000, 100).with_smod_credential("libc", ALICE_KEY),
                vec![0x90; 4096],
                4,
                4,
            )
            .unwrap();
        k.sys_smod_start_session(late, m_id).unwrap();
        assert_eq!(
            k.sys_smod_call_batch(late, &sq, &cq, 8).unwrap_err(),
            Errno::EINVAL
        );
        // An empty drain still charges a trap and reports zero work.
        let before = k.clock.now_ns();
        let report = k.sys_smod_call_batch(client, &sq, &cq, 8).unwrap();
        assert_eq!(report, BatchReport::default());
        assert_eq!(k.clock.now_ns() - before, k.cost.syscall_trap_ns);
        let _ = incr;
    }

    #[test]
    fn batched_clock_cost_is_amortised_vs_sequential() {
        const N: u64 = 64;
        let (seq_kernel, m_id, seq_client, incr) = kernel_with_module(None);
        let (batch_kernel, _m2, batch_client, incr2) = kernel_with_module(None);
        assert_eq!(incr, incr2);

        let t0 = seq_kernel.clock.now_ns();
        for i in 0..N {
            seq_kernel
                .sys_smod_call(
                    seq_client,
                    SmodCallArgs {
                        m_id,
                        func_id: incr,
                        frame_pointer: 0,
                        return_address: 0,
                        args: i.to_le_bytes().to_vec(),
                    },
                )
                .unwrap();
        }
        let sequential_ns = seq_kernel.clock.now_ns() - t0;

        let (sq, cq) = rings(N as usize);
        for i in 0..N {
            sq.push_spsc(req(&batch_kernel, batch_client, incr, i, i))
                .unwrap();
        }
        let t0 = batch_kernel.clock.now_ns();
        let report = batch_kernel
            .sys_smod_call_batch(batch_client, &sq, &cq, N as usize)
            .unwrap();
        let batched_ns = batch_kernel.clock.now_ns() - t0;
        assert_eq!(report.completed, N as usize);
        // Same results...
        for i in 0..N {
            let resp = cq.pop_spsc().unwrap();
            assert_eq!(
                u64::from_le_bytes(resp.into_ret().try_into().unwrap()),
                i + 1
            );
        }
        // ...at a fraction of the simulated cost: the fixed per-call work
        // is paid once. Even a conservative bound (4x cheaper) holds with
        // the default cost model at batch 64.
        assert!(
            batched_ns * 4 < sequential_ns,
            "batched {batched_ns} ns not amortised vs sequential {sequential_ns} ns"
        );
    }

    #[test]
    fn module_removed_mid_batch_fails_remaining_entries() {
        // Deep enough that the batch outlasts a run of lost lock
        // handovers: the teardown gets the client's process locks only
        // between two chunks, on a mutex that is not fair (see
        // `detach_racing_a_sweep_fails_the_remainder_with_eidrm`).
        const ENTRIES: usize = 128 * BATCH_CHUNK;
        let gate = Arc::new(SlowGate::default());
        let (k, m_id, client, incr) = kernel_with_module(Some(Arc::clone(&gate)));
        let (sq, cq) = rings(ENTRIES);
        for i in 0..ENTRIES as u64 {
            sq.push_spsc(req(&k, client, incr, i, i)).unwrap();
        }

        let k = &k;
        let report = std::thread::scope(|s| {
            // The teardown actor: wait for the batch to be mid-flight
            // (the first body is running; bodies sleep while the gate is
            // closed), then detach the session and remove the module —
            // both bump the kernel epoch.
            s.spawn(|| {
                gate.wait_entered();
                k.smod_detach(client, "mid-batch teardown").unwrap();
                k.sys_smod_remove(Pid(1), m_id).unwrap();
                gate.open.store(true, Ordering::Release);
            });
            k.sys_smod_call_batch(client, &sq, &cq, ENTRIES).unwrap()
        });

        assert_eq!(report.drained, ENTRIES, "every entry must be answered");
        assert!(report.aborted, "teardown mid-batch must be reported");
        assert!(
            report.completed > 0,
            "the leading chunk ran before teardown"
        );
        assert!(report.failed > 0, "entries after the teardown must fail");
        // Completions: a prefix of successes, then EIDRM for everything
        // drained after the module vanished — never an Allow afterwards.
        let mut seen_dead = false;
        let mut cost_ns = 0;
        for i in 0..ENTRIES {
            let resp = cq.pop_spsc().expect("completion present");
            cost_ns += resp.cost_ns;
            if resp.is_ok() {
                assert!(
                    !seen_dead,
                    "entry {i} succeeded after the module was removed"
                );
            } else {
                assert_eq!(resp.errno, Errno::EIDRM.code());
                assert_eq!(resp.cost_ns, 0);
                seen_dead = true;
            }
        }
        assert!(seen_dead);
        // The aborted drain's tally reached the registry intact.
        let latency = k.metrics.latency(Flavor::Batch);
        assert_eq!(latency.count(), report.completed as u64);
        assert_eq!(latency.sum(), cost_ns);
        assert_eq!(k.metrics.eidrm_failures.get(), report.failed as u64);
        assert_eq!(k.metrics.arena.inline_args.get(), report.completed as u64);
    }
}
