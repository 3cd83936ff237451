//! `sys_smod_call_batch`: the io_uring-shaped batched entry point over
//! the `sys_smod_call` dispatch path — plus the shared chunk-drain
//! machinery the multi-session sweep ([`crate::sweep`]) reuses.
//!
//! A single `sys_smod_call` pays fixed costs on every invocation —
//! syscall entry, process/session resolution, cost-model accounting —
//! before any useful work happens. The batched entry point resolves the
//! caller's session and module gateway **once**, then drains up to
//! `batch_budget` [`SmodCallReq`] entries from a [`SubmissionRing`],
//! running each through the same `Kernel::call_entry` a single call
//! runs and pushing one [`SmodCallResp`] per entry into the paired
//! [`CompletionRing`]. The fixed work is charged once per batch through
//! [`crate::cost::CostModel::batched_dispatch_ns`] by the same
//! `Kernel::finish_trap` a single call leaves through; per-entry work
//! (policy decision, argument copy, the function body) is charged per
//! entry, with cached vs uncached decisions still priced honestly.
//!
//! Entries are processed in chunks of [`BATCH_CHUNK`] under one hold of
//! the client/handle pair locks, so a long batch does not starve
//! teardown: between chunks the kernel re-reads the invalidation epochs,
//! and if anything moved it re-validates that the session is still in
//! the session table (a session there pins its module). A detach or
//! module removal that lands mid-batch therefore
//! fails every remaining entry with `EIDRM` ("identifier removed")
//! instead of dispatching into a dead module — the batched analogue of
//! the single-call path's epoch fold.
//!
//! Decisions come from the same place as on the single call: the
//! session's verdicts, which the pair-lock hold re-stamps with the
//! gateway epoch (policy grant, key registration, or any kernel
//! detach/remove clears them), so a decision is stale for at most one
//! chunk — the same window at which teardown is honoured. A repeat the
//! session holds is priced as a cached decision; anything else pays what
//! the gateway's answering tier cost.
//!
//! There is one drain loop and one account of what it did.
//! `Kernel::drain_session_rings` — completion-space reservation, a chunk
//! claimed off the submission ring at once, epoch re-read, the chunk
//! under the pair lock, its arguments freed, its completions published
//! at once — runs for this entry point and for every slot a sweep
//! visits. A drain that starts without a session (a sweep slot whose
//! session is gone) or loses it mid-way answers everything it consumes
//! with `EIDRM` from that same loop, which is the only place an `EIDRM`
//! completion is posted. What the drain did is counted in the trap's
//! `TrapTally`, and this entry point and the sweep both hand it back as
//! one [`DrainReport`].

use crate::errno::Errno;
use crate::kernel::Kernel;
use crate::proc::Pid;
use crate::smod::{PairHold, Session, SessionState, TrapTally};
use crate::SysResult;
use secmod_obs::Flavor;
use secmod_ring::{ArenaRegion, ArgRef, CompletionRing, SmodCallReq, SmodCallResp, SubmissionRing};

/// Entries processed under one acquisition of the client/handle pair
/// locks. Small enough that a racing detach costs at most one chunk of
/// work it no longer wanted; large enough that lock traffic stays
/// amortised.
pub const BATCH_CHUNK: usize = 32;

/// What one drain trap did: the report `sys_smod_call_batch` and every
/// sweep return. The trap's `TrapTally` counts it while the drain runs
/// and `Kernel::finish_trap` hands it back, so there is one account per
/// trap and no copy of it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Ring-set slots a sweep claimed and visited (the batched path visits
    /// its caller's own rings, no slot, and leaves this 0).
    pub sessions_ready: usize,
    /// Visited slots whose session was live and drained without a
    /// teardown.
    pub sessions_swept: usize,
    /// Sessions found dead: a slot whose session was gone, not
    /// established or owned by a different pid, or a session (the
    /// batching caller's included) torn down mid-drain. Every entry
    /// drained from it after that completed with `EIDRM`.
    pub sessions_dead: usize,
    /// Submission entries consumed.
    pub drained: usize,
    /// Entries that completed successfully (`errno == 0`).
    pub completed: usize,
    /// Entries that completed with an error (denied, unknown function,
    /// wrong session, or `EIDRM`).
    pub failed: usize,
    /// The amortised fixed cost charged to the trapping caller: the entry
    /// point's cost-model formula
    /// ([`crate::cost::CostModel::batched_dispatch_ns`],
    /// [`crate::cost::CostModel::sweep_dispatch_ns`]) over the entries that
    /// underwent a policy check or body run, or 0 when none did (validation
    /// rejects and `EIDRM` fills are free; such a trap pays the bare trap).
    pub fixed_cost_ns: u64,
}

/// Reusable drain buffers: the chunk staging areas. A sweep allocates one
/// of these and reuses it across every session it visits.
pub(crate) struct DrainScratch {
    chunk: Vec<SmodCallReq>,
    responses: Vec<SmodCallResp>,
}

impl DrainScratch {
    pub(crate) fn new() -> DrainScratch {
        DrainScratch {
            chunk: Vec::with_capacity(BATCH_CHUNK),
            responses: Vec::with_capacity(BATCH_CHUNK),
        }
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
    ) -> SysResult<DrainReport> {
        if cq.capacity() < sq.capacity() {
            return Err(Errno::EINVAL);
        }
        // --- once-per-batch resolution (the amortised fixed work) -------
        let session = self.client_session(caller)?;
        if session.state() != SessionState::Established {
            return Err(Errno::EINVAL);
        }
        let mut tally = TrapTally::new(self.metrics.latency(Flavor::Batch), 0);
        self.drain_session_rings(
            Some(&session),
            sq,
            cq,
            None,
            batch_budget,
            &mut DrainScratch::new(),
            &mut tally,
        );
        // The amortised fixed cost covers the entries that actually went
        // through a policy check or body; one context-switch pair per
        // *batch* — the single-call path pays one per call.
        let fixed_ns = self.cost.batched_dispatch_ns(tally.checked);
        self.procs
            .with_mut(caller, |p| self.finish_trap(p, tally, fixed_ns))
    }

    /// The one chunked drain: claim up to `budget` entries from `sq` in
    /// [`BATCH_CHUNK`]-sized chunks, one head CAS per chunk, reserving
    /// completion space *before* consuming submissions; run the chunk,
    /// drop its requests (freeing their arena argument slots), then
    /// publish its completions into `cq` with one tail CAS unless an
    /// overcommitted `cq` makes it wait. For a live `session` the kernel
    /// epoch is folded into the module gateway first and re-read between
    /// chunks, and each chunk runs through [`Kernel::call_entry`] under
    /// one hold of the pair lock (which re-verifies the live credential
    /// and re-stamps the session's verdicts). A session torn down
    /// mid-drain, or `None` — a slot whose session was already gone —
    /// makes the drain *dead*: every entry it consumes from then on
    /// completes with `EIDRM`.
    ///
    /// `sys_smod_call_batch`, every live sweep visit and every dead-slot
    /// visit funnel through here, so the epoch/credential re-check and the
    /// `EIDRM` fill cannot drift between paths. What the drain did lands in
    /// the trap's `tally`: its [`DrainReport`] counts and what it adds to
    /// the metrics registry.
    #[allow(clippy::too_many_arguments)] // one arg per drain resource; bundling would obscure them
    pub(crate) fn drain_session_rings(
        &self,
        session: Option<&Session>,
        sq: &SubmissionRing,
        cq: &CompletionRing,
        region: Option<&ArenaRegion>,
        budget: usize,
        scratch: &mut DrainScratch,
        tally: &mut TrapTally<'_>,
    ) {
        let mut kernel_epoch = self.smod_epoch();
        if let Some(session) = session {
            session
                .module_ref()
                .gateway
                .observe_kernel_epoch(kernel_epoch);
        }
        let mut dead = session.is_none();
        let mut drained = 0;
        let DrainScratch { chunk, responses } = scratch;

        while drained < budget {
            // Reserve completion space *before* consuming submissions: a
            // chunk is only popped if its completions can be published
            // without waiting on the consumer. A caller that batches
            // repeatedly without reaping therefore gets a short (or
            // zero-entry) drain back instead of deadlocking the kernel
            // against its own unreaped completion ring; concurrent
            // reaping only ever increases the space observed here.
            let cq_free = cq.capacity() - cq.len().min(cq.capacity());
            let take = BATCH_CHUNK.min(budget - drained).min(cq_free);
            if sq.pop_many(chunk, take) == 0 {
                break;
            }

            if let Some(session) = session.filter(|_| !dead) {
                // Epoch fold between chunks: a detach/remove that
                // bumped the epoch since the last chunk invalidates the
                // pinned session (and, through the gateway epoch, its
                // verdicts). The table alone says whether the session
                // lives: `sys_smod_remove` refuses a module that a
                // session in the table is bound to.
                let now = self.smod_epoch();
                if now != kernel_epoch {
                    kernel_epoch = now;
                    session.module_ref().gateway.observe_kernel_epoch(now);
                    dead = self
                        .sessions
                        .get(session.client)
                        .is_none_or(|now| now.id != session.id);
                }
                if !dead {
                    let held = session.hold_pair(|hold| {
                        for req in chunk.iter() {
                            responses.push(self.ring_entry(hold, tally, req, region));
                        }
                    });
                    // A pair that cannot be locked is a dead session,
                    // whatever errno the lock reported: this chunk and the
                    // rest of the drain fail with the `EIDRM` of an
                    // epoch-detected teardown.
                    dead = held.is_err();
                }
            }
            if dead {
                responses.extend(chunk.iter().map(|req| SmodCallResp {
                    user_data: req.user_data,
                    ret: ArgRef::empty(),
                    errno: Errno::EIDRM.code(),
                    cost_ns: 0,
                }));
            }

            // Free any arena slot the arguments held before the producer
            // can see a completion, then publish the chunk's completions.
            drained += chunk.len();
            chunk.clear();
            for resp in responses.iter() {
                if resp.is_ok() {
                    tally.report.completed += 1;
                } else {
                    tally.report.failed += 1;
                }
                tally.eidrm_failures += u64::from(resp.errno == Errno::EIDRM.code());
            }
            while !responses.is_empty() {
                if cq.push_many(responses) == 0 {
                    std::thread::yield_now();
                }
            }
        }
        tally.report.drained += drained;
        tally.report.sessions_dead += usize::from(dead);
    }

    /// One ring entry through [`Kernel::call_entry`]: the entry must name
    /// the session being drained (`EPERM`, free, otherwise); its argument
    /// block is priced by how it crossed the ring; the result goes back
    /// through the session's arena region when there is one and it is
    /// large, so the producer reads it in place at reap time.
    fn ring_entry(
        &self,
        hold: &mut PairHold<'_>,
        tally: &mut TrapTally<'_>,
        req: &SmodCallReq,
        region: Option<&ArenaRegion>,
    ) -> SmodCallResp {
        let (result, cost_ns) = if req.session != hold.session.id.0 {
            (Err(Errno::EPERM), 0)
        } else {
            // The zero-copy payoff, in cost-model form: an arena-resident
            // argument block crosses the ring as an `(offset, len, gen)`
            // descriptor, so the kernel charges one extra slot hand-off
            // instead of `copy_per_byte_ns x len` — the paper's
            // shared-stack argument. By-value args (inline or heap) still
            // pay per byte.
            let copy_ns = if req.args.is_arena() {
                tally.arena_args += 1;
                self.cost.ring_slot_ns
            } else {
                tally.inline_args += 1;
                self.cost.copy_per_byte_ns * req.args.len() as u64
            };
            self.call_entry(hold, tally, req.proc_id, req.args.as_slice(), copy_ns)
        };
        let (ret, errno) = match result {
            Ok(ret) => (ArgRef::place_vec(ret, region), 0),
            Err(e) => (ArgRef::empty(), e.code()),
        };
        SmodCallResp {
            user_data: req.user_data,
            ret,
            errno,
            cost_ns,
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
    use crate::trace::Event;
    use secmod_module::builder::ModuleBuilder;
    use secmod_module::{ModuleId, SmodPackage, StubTable};
    use secmod_policy::assertion::{Assertion, LicenseeExpr};
    use secmod_policy::{CacheConfig, PolicyEngine, Principal};
    use secmod_ring::{Ring, SMOD_BATCH_DEFAULT_BUDGET};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

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
    /// function except `strlen`; every body returns its u64 argument + 1
    /// (`EINVAL` when that overflows), and `free` has no body at all.
    /// `slow_gate`, when set, slows the bodies down as [`SlowGate`]
    /// describes. `n_clients` clients are spawned, each
    /// presenting the alice credential through its own session (the sweep
    /// tests drain many sessions; the batch tests use client 0).
    pub(crate) fn kernel_with_clients(
        slow_gate: Option<Arc<SlowGate>>,
        n_clients: usize,
    ) -> (Kernel, ModuleId, Vec<Pid>, u32) {
        clients_on(Kernel::new(CostModel::default()), slow_gate, n_clients)
    }

    /// [`kernel_with_clients`] on a kernel the caller booted.
    pub(crate) fn clients_on(
        k: Kernel,
        slow_gate: Option<Arc<SlowGate>>,
        n_clients: usize,
    ) -> (Kernel, ModuleId, Vec<Pid>, u32) {
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
        for stub in stub_table.stubs.iter().filter(|s| s.symbol != "free") {
            let gate = slow_gate.clone();
            functions.register(stub.func_id, move |_ctx, args| {
                if let Some(gate) = &gate {
                    gate.entered.store(true, Ordering::Release);
                    if !gate.open.load(Ordering::Acquire) {
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                }
                let v = u64::from_le_bytes(args[..8].try_into().map_err(|_| Errno::EINVAL)?);
                Ok(v.checked_add(1)
                    .ok_or(Errno::EINVAL)?
                    .to_le_bytes()
                    .to_vec())
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
        assert_eq!(report.sessions_dead, 0);
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
        assert_eq!(report.sessions_dead, 0);
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
    fn both_call_entry_points_resolve_the_caller_the_same_way() {
        // `sys_smod_call` and `sys_smod_call_batch` find the caller's
        // session through the session table: a pid that does not exist is
        // `ESRCH`; the handle and a detached client hold no session and
        // get `EPERM`; a client that re-established (`policy_churn`'s
        // cycle) calls on its new session straight away.
        let (k, m_id, client, incr) = kernel_with_module(None);
        let (sq, cq) = rings(8);
        let single = |caller: Pid| {
            k.sys_smod_call(
                caller,
                SmodCallArgs {
                    m_id,
                    func_id: incr,
                    frame_pointer: 0,
                    return_address: 0,
                    args: 1u64.to_le_bytes().to_vec(),
                },
            )
        };
        let errnos = |caller: Pid| {
            (
                single(caller).unwrap_err(),
                k.sys_smod_call_batch(caller, &sq, &cq, 8).unwrap_err(),
            )
        };
        let handle = k.session_of(client).unwrap().handle;
        assert_eq!(errnos(Pid(9_999)), (Errno::ESRCH, Errno::ESRCH));
        assert_eq!(errnos(handle), (Errno::EPERM, Errno::EPERM));
        k.smod_detach(client, "cycle").unwrap();
        assert_eq!(errnos(client), (Errno::EPERM, Errno::EPERM));

        let (session, handle) = k.sys_smod_start_session(client, m_id).unwrap();
        k.sys_smod_session_info(handle).unwrap();
        k.sys_smod_handle_info(client).unwrap();
        assert_eq!(single(client).unwrap(), 2u64.to_le_bytes());
        sq.push_spsc(req(&k, client, incr, 7, 41)).unwrap();
        let report = k.sys_smod_call_batch(client, &sq, &cq, 8).unwrap();
        assert_eq!(report.completed, 1);
        assert_eq!(cq.pop_spsc().unwrap().ret_bytes(), 42u64.to_le_bytes());
        let now = k.session_of(client).unwrap();
        assert_eq!((now.id, now.calls()), (session, 2));
    }

    #[test]
    fn live_policy_mutation_is_visible_at_the_next_chunk() {
        // A session's verdict may serve a decision for at most one chunk:
        // a grant added mid-batch (here: between two batched drains, and
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
        // which clears the session's verdicts at the next hold).
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
    fn every_entry_point_gives_one_call_the_same_errno_bytes_and_cost() {
        // {allowed, EACCES, ENOENT, ENOSYS, body error} through
        // {sys_smod_call, sys_smod_call_batch, sys_smod_sweep}: one entry
        // per trap, so the clock moves by the entry's own cost plus the
        // entry point's fixed term — its cost-model formula when the entry
        // was checked, the bare trap when it was not.
        let (k, m_id, client, incr) = kernel_with_module(None);
        let func = |name: &str| {
            let module = k.registry.get(m_id).unwrap();
            module.package.stub_table.by_name(name).unwrap().func_id
        };
        let cases = [
            (
                "allowed",
                incr,
                41u64,
                Ok(42u64.to_le_bytes().to_vec()),
                Some(true),
            ),
            ("denied", func("strlen"), 1, Err(Errno::EACCES), Some(false)),
            ("unknown function", 9999, 1, Err(Errno::ENOENT), None),
            ("no body", func("free"), 1, Err(Errno::ENOSYS), Some(true)),
            ("body error", incr, u64::MAX, Err(Errno::EINVAL), Some(true)),
        ];
        let single = |proc_id: u32, arg: u64| {
            k.sys_smod_call(
                client,
                SmodCallArgs {
                    m_id,
                    func_id: proc_id,
                    frame_pointer: 0,
                    return_address: 0,
                    args: arg.to_le_bytes().to_vec(),
                },
            )
        };
        // Warm the decision tiers: every priced decision below is a hit.
        for (_, proc_id, arg, ..) in &cases {
            let _ = single(*proc_id, *arg);
        }
        let drainer = k
            .spawn_process("sweeper", Credential::root(), vec![0x90; 4096], 2, 2)
            .unwrap();
        let set = secmod_ring::RingSet::with_capacity(1);
        let session = k.session_of(client).unwrap().id.0;
        let slot = set.register(session, client.0, Default::default()).unwrap();
        let (sq, cq) = rings(8);
        let unpack = |resp: SmodCallResp| {
            let errno = resp.errno;
            let cost_ns = resp.cost_ns;
            let ret = resp.into_ret();
            let result = Errno::from_code(errno).map_or(Ok(ret), Err);
            (result, cost_ns)
        };
        let priced = k.cost.cached_decision_ns + 8 * k.cost.copy_per_byte_ns;

        for (name, proc_id, arg, want, verdict) in cases {
            let want_cost = if want == Err(Errno::ENOENT) {
                0
            } else {
                priced
            };
            let fixed = |formula: u64| match want_cost {
                0 => k.cost.syscall_trap_ns,
                _ => formula,
            };
            k.tracer.clear();

            let t0 = k.clock.now_ns();
            assert_eq!(single(proc_id, arg), want, "{name}: sys_smod_call");
            let call_ns = k.clock.now_ns() - t0;
            assert_eq!(
                call_ns - fixed(k.cost.smod_call_overhead(0)),
                want_cost,
                "{name}: sys_smod_call cost"
            );

            sq.push_spsc(req(&k, client, proc_id, 0, arg)).unwrap();
            let t0 = k.clock.now_ns();
            k.sys_smod_call_batch(client, &sq, &cq, 8).unwrap();
            let batch_ns = k.clock.now_ns() - t0;
            assert_eq!(
                unpack(cq.pop_spsc().unwrap()),
                (want.clone(), want_cost),
                "{name}: sys_smod_call_batch"
            );
            assert_eq!(
                batch_ns - fixed(k.cost.batched_dispatch_ns(1)),
                want_cost,
                "{name}: sys_smod_call_batch cost"
            );

            set.submit(slot, req(&k, client, proc_id, 0, arg)).unwrap();
            let t0 = k.clock.now_ns();
            k.sys_smod_sweep(drainer, &set, 8).unwrap();
            let sweep_ns = k.clock.now_ns() - t0;
            let swept = set.get(slot).unwrap().cq.pop_spsc().unwrap();
            assert_eq!(unpack(swept), (want, want_cost), "{name}: sys_smod_sweep");
            assert_eq!(
                sweep_ns - fixed(k.cost.sweep_dispatch_ns(1, 1)),
                want_cost,
                "{name}: sys_smod_sweep cost"
            );

            // One `SmodCall` event per path when policy ran, carrying its
            // verdict; none when it did not.
            let verdicts: Vec<bool> = k
                .tracer
                .events()
                .iter()
                .filter_map(|e| match e {
                    Event::SmodCall { allowed, .. } => Some(*allowed),
                    _ => None,
                })
                .collect();
            assert_eq!(
                verdicts,
                vec![verdict; 3].into_iter().flatten().collect::<Vec<_>>()
            );
        }
    }

    #[test]
    fn validation_only_batches_charge_just_the_trap() {
        // An unknown function is rejected before any decision is taken; a
        // batch made entirely of such entries does not charge the
        // amortised fixed cost — only the syscall trap the drain itself
        // cost, as a `sys_smod_call` of an unknown function does.
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
    fn the_uncached_baseline_is_uncached_on_every_path() {
        // `CacheConfig::disabled()` is the uncached baseline: however often
        // a function repeats, on the single call, the batch and the sweep,
        // every checked entry is an engine evaluation, priced as one.
        const N: u64 = 16;
        let k = Kernel::with_gate_config(CostModel::default(), CacheConfig::disabled());
        let (k, m_id, clients, incr) = clients_on(k, None, 1);
        let client = clients[0];
        let complexity = k.registry.get(m_id).unwrap().policy_complexity as u64;
        let entry_ns = k.cost.policy_per_node_ns * complexity + 8 * k.cost.copy_per_byte_ns;

        for i in 0..N {
            let t0 = k.clock.now_ns();
            let args = SmodCallArgs {
                m_id,
                func_id: incr,
                frame_pointer: 0,
                return_address: 0,
                args: i.to_le_bytes().to_vec(),
            };
            k.sys_smod_call(client, args).unwrap();
            let call_ns = k.clock.now_ns() - t0;
            assert_eq!(call_ns, k.cost.smod_call_overhead(0) + entry_ns);
        }

        let (sq, cq) = rings(N as usize);
        for i in 0..N {
            sq.push_spsc(req(&k, client, incr, i, i)).unwrap();
        }
        let batch = k.sys_smod_call_batch(client, &sq, &cq, N as usize).unwrap();
        assert_eq!(batch.completed, N as usize);
        let mut costs: Vec<u64> = (0..N).map(|_| cq.pop_spsc().unwrap().cost_ns).collect();

        let drainer = k
            .spawn_process("sweeper", Credential::root(), vec![0x90; 4096], 2, 2)
            .unwrap();
        let set = secmod_ring::RingSet::with_capacity(1);
        let session = k.session_of(client).unwrap().id.0;
        let slot = set.register(session, client.0, Default::default()).unwrap();
        for i in 0..N {
            set.submit(slot, req(&k, client, incr, i, i)).unwrap();
        }
        let sweep = k.sys_smod_sweep(drainer, &set, N as usize).unwrap();
        assert_eq!(sweep.completed, N as usize);
        let swept = set.get(slot).unwrap();
        costs.extend((0..N).map(|_| swept.cq.pop_spsc().unwrap().cost_ns));

        assert_eq!(costs, vec![entry_ns; 2 * N as usize]);
        assert_eq!(k.metrics.gate_hits.get(), 0);
        assert_eq!(k.metrics.gate_misses.get(), 3 * N);
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
        assert_eq!(report, DrainReport::default());
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
        // is paid once. Under the default model an entry costs 133 ns (a
        // cached decision + 8 copied bytes) on either path; 64 calls pay
        // 64 x 5 650 fixed on top, one batch pays 4 250 once + 64 x 1 400
        // for the per-entry message pair: 370 112 vs 102 362 ns, 3.6x
        // (bounded by 5 783 / 1 533 = 3.8x however long the batch). The
        // first decision on each kernel is a miss and costs its premium.
        let cost = &seq_kernel.cost;
        let entry = cost.cached_decision_ns + 8 * cost.copy_per_byte_ns;
        let complexity = seq_kernel.registry.get(m_id).unwrap().policy_complexity;
        let miss_premium = cost.policy_per_node_ns * complexity as u64 - cost.cached_decision_ns;
        assert_eq!(
            sequential_ns,
            N * (cost.smod_call_overhead(0) + entry) + miss_premium
        );
        assert_eq!(
            batched_ns,
            cost.batched_dispatch_ns(N as usize) + N * entry + miss_premium
        );
        assert!(
            batched_ns * 7 < sequential_ns * 2,
            "batched {batched_ns} ns not 3.5x below sequential {sequential_ns} ns"
        );
    }

    #[test]
    fn module_removed_mid_batch_fails_remaining_entries() {
        const ENTRIES: usize = 4 * BATCH_CHUNK;
        let gate = Arc::new(SlowGate::default());
        let (k, m_id, client, incr) = kernel_with_module(Some(Arc::clone(&gate)));
        let (sq, cq) = rings(ENTRIES);
        for i in 0..ENTRIES as u64 {
            sq.push_spsc(req(&k, client, incr, i, i)).unwrap();
        }

        let k = &k;
        let (report, answered_at_detach) = std::thread::scope(|s| {
            // The teardown actor: wait for the batch to be mid-flight
            // (the first body is running; bodies sleep while the gate is
            // closed), then detach the session and remove the module —
            // both bump the kernel epoch.
            let teardown = s.spawn(|| {
                gate.wait_entered();
                k.smod_detach(client, "mid-batch teardown").unwrap();
                let answered = cq.len();
                k.sys_smod_remove(Pid(1), m_id).unwrap();
                gate.open.store(true, Ordering::Release);
                answered
            });
            let report = k.sys_smod_call_batch(client, &sq, &cq, ENTRIES).unwrap();
            (report, teardown.join().unwrap())
        });

        assert_eq!(report.drained, ENTRIES, "every entry must be answered");
        assert_eq!(
            report.sessions_dead, 1,
            "teardown mid-batch must be reported"
        );
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
        // The detach takes effect at the next chunk boundary: only the
        // chunk in flight when it returned may still succeed on top of
        // what was answered by then.
        assert!(
            report.completed <= answered_at_detach + BATCH_CHUNK,
            "{} entries succeeded, {answered_at_detach} were answered when the detach returned",
            report.completed
        );
        // The aborted drain's tally reached the registry intact.
        let latency = k.metrics.latency(Flavor::Batch);
        assert_eq!(latency.count(), report.completed as u64);
        assert_eq!(latency.sum(), cost_ns);
        assert_eq!(k.metrics.eidrm_failures.get(), report.failed as u64);
        assert_eq!(k.metrics.arena.inline_args.get(), report.completed as u64);
    }
}
