//! The SecModule syscall family (paper Figure 4) and session management.
//!
//! The paper prices a protected call as one fixed sequence — trap,
//! credential check, policy decision, message op, switch pair — and this
//! module holds it once: `Kernel::call_entry` is the per-call sequence,
//! `Session::hold_pair` the lock and credential view it runs under, and
//! `Kernel::finish_trap` the accounting every trap ends in.
//! `sys_smod_call` is those three at depth 1; the batched and swept
//! drains ([`crate::batch`], [`crate::sweep`]) run the same three over
//! ring entries.
//!
//! Dispatch takes `&self` and is driven from many threads at once. The
//! per-call policy decision is the session's verdict when it holds one
//! (see `Kernel::call_entry`); otherwise it goes through the module's
//! embedded [`secmod_policy::Gateway`], whose epoch only a policy
//! mutation moves: a session's teardown changes no decision, so it
//! invalidates none. Only a miss falls back to the full `PolicyEngine`
//! fixpoint, and the cost model charges the cached vs uncached cost
//! accordingly. The kernel's `smod_epoch` is the teardown fence alone:
//! a drain re-reads it between chunks to notice a detach or removal.

use crate::batch::DrainReport;
use crate::errno::Errno;
use crate::kernel::Kernel;
use crate::proc::{Pid, Process, SmodLink};
use crate::smodreg::{FunctionBody, FunctionTable, HandleCtx, RegisteredModule};
use crate::table::ProcRef;
use crate::trace::Event;
use crate::SysResult;
use parking_lot::{Mutex, RwLock};
use secmod_module::{ModuleId, SmodPackage};
use secmod_obs::{DispatchMetrics, Flavor, Histogram};
use secmod_policy::{PolicyEngine, Principal};
use secmod_vm::VmSpace;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering::Relaxed, Ordering::SeqCst};
use std::sync::Arc;

/// A SecModule session identifier.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u32);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sess{}", self.0)
    }
}

/// The handshake state of a session (Figure 1 steps 2–4).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SessionState {
    /// `sys_smod_start_session` completed: the handle exists but has not
    /// yet reported in.
    Created,
    /// `sys_smod_session_info` completed: the address spaces are shared and
    /// the handle is waiting for work.
    HandleReady,
    /// `sys_smod_handle_info` completed: calls may be dispatched.
    Established,
}

impl SessionState {
    fn from_u8(v: u8) -> SessionState {
        match v {
            0 => SessionState::Created,
            1 => SessionState::HandleReady,
            _ => SessionState::Established,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            SessionState::Created => 0,
            SessionState::HandleReady => 1,
            SessionState::Established => 2,
        }
    }
}

/// The memoised per-session [`secmod_policy::AccessRequest`] prototype:
/// the owned pieces
/// of the per-call credential question, pinned at session establishment so
/// `sys_smod_call` (and the batched path) builds its request by borrowing
/// instead of cloning the client name and principal on every dispatch.
///
/// Memoisation does **not** weaken the paper's "credentials are
/// re-verified on every call": each dispatch still consults the live
/// credential, but only to compare `(uid, principal fingerprint)` against
/// this prototype — an allocation-free u64 comparison. Only when the live
/// credential no longer matches (revocation, key swap) does the dispatch
/// fall back to re-deriving the request from the process, which then
/// denies or re-evaluates exactly as the un-memoised path did. The name
/// component can only change through `sys_execve`, which detaches the
/// session first.
#[derive(Debug)]
pub(crate) struct CallProto {
    /// The client process name (the request's `app_domain`).
    pub(crate) client_name: String,
    /// The principal the client's credential identifies for this module
    /// (`None` when the credential carries no material for it — every
    /// check then denies, as the uncached path always has).
    pub(crate) principal: Option<Principal>,
    /// `principal`'s 64-bit fingerprint, compared against the live
    /// credential on every dispatch.
    pub(crate) principal_fp: Option<u64>,
    /// The client uid.
    pub(crate) uid: u32,
}

impl CallProto {
    /// Does the live credential still present the identity this prototype
    /// was memoised from?
    pub(crate) fn matches(&self, cred: &crate::cred::Credential, module: &str) -> bool {
        cred.uid == self.uid && cred.principal_fp64(module) == self.principal_fp
    }
}

/// An active client/handle session. Shared (`Arc`) between the session
/// table and in-flight dispatches. The session pins the registered
/// module and both processes' lock handles, so a dispatch resolves
/// everything it needs with one lookup of its client in the
/// [`SessionTable`] — no process-table or registry traffic on the hot
/// path. The handshake state is an atomic any thread may read; the call
/// counter is written only under `Session::hold_pair`, which is also
/// where the caller's ownership of the session is checked.
#[derive(Debug)]
pub struct Session {
    /// The session id.
    pub id: SessionId,
    /// The client process.
    pub client: Pid,
    /// The handle co-process.
    pub handle: Pid,
    /// The module this session grants access to.
    pub module: ModuleId,
    state: AtomicU8,
    calls: AtomicU64,
    /// The registered module (shared with the registry): dispatch goes
    /// straight to its gateway and function table.
    module_ref: Arc<RegisteredModule>,
    /// Memoised per-call access-request prototype (no per-dispatch clones).
    pub(crate) proto: CallProto,
    /// The session's decisions; locked once per [`Session::hold_pair`].
    verdicts: Mutex<Verdicts>,
    /// The client process's lock handle.
    client_ref: ProcRef,
    /// The handle process's lock handle.
    handle_ref: ProcRef,
}

impl Session {
    /// Handshake state.
    pub fn state(&self) -> SessionState {
        SessionState::from_u8(self.state.load(SeqCst))
    }

    /// Number of calls dispatched over this session.
    pub fn calls(&self) -> u64 {
        self.calls.load(Relaxed)
    }

    /// The registered module this session dispatches into.
    pub fn module_ref(&self) -> &Arc<RegisteredModule> {
        &self.module_ref
    }

    /// Advance the handshake if it is exactly at `from`; returns whether
    /// the transition happened (false ⇒ out-of-order handshake step).
    fn transition(&self, from: SessionState, to: SessionState) -> bool {
        self.state
            .compare_exchange(from.as_u8(), to.as_u8(), SeqCst, SeqCst)
            .is_ok()
    }

    /// Lock the client/handle pair (pid-ordered), take the credential
    /// view and the session's verdicts for as long as the lock is held,
    /// and run `f`. The hold fails with `EPERM`, before `f` runs, unless
    /// the client's link still names this session: only the client bound
    /// to a session may call through it (§1's "handle must be valid only
    /// for a specific process"), and checking it here, under the client's
    /// lock, makes a stale table entry harmless. The live
    /// credential is consulted on every hold, but only to compare
    /// `(uid, principal fingerprint)` against the session's memoised
    /// prototype; only a mismatch (credential revoked or swapped
    /// mid-session) re-derives the request from the process. Verdicts
    /// stamped with another gateway epoch are cleared. Bodies that ran
    /// under the hold are counted once, at its end.
    ///
    /// Forced inline together with [`Kernel::call_entry`]: left to the
    /// optimiser, `sys_smod_call` keeps both as calls and the closure's
    /// captures go through memory — measured 5-10% of `sync_call` /
    /// `policy_churn` throughput (PR 22 in CHANGES.md).
    #[inline(always)]
    pub(crate) fn hold_pair<R>(&self, f: impl FnOnce(&mut PairHold<'_>) -> R) -> SysResult<R> {
        let (out, bodies_run) = crate::table::lock_pair_ordered(
            self.handle,
            &self.handle_ref,
            self.client,
            &self.client_ref,
            |handle, client| {
                if client.smod.map(|link| link.session) != Some(self.id) {
                    return Err(Errno::EPERM);
                }
                let module_name = &self.module_ref.package.image.name;
                let live = (!self.proto.matches(&client.cred, module_name)).then(|| {
                    (
                        client.name.clone(),
                        client.cred.principal_for(module_name),
                        client.cred.uid,
                    )
                });
                let mut verdicts = self.verdicts.lock();
                let epoch = self.module_ref.gateway.epoch();
                if verdicts.epoch != epoch {
                    verdicts.epoch = epoch;
                    verdicts.slots.fill(None);
                }
                let mut hold = PairHold {
                    session: self,
                    handle,
                    client,
                    live,
                    verdicts: &mut verdicts,
                    bodies_run: 0,
                };
                let out = f(&mut hold);
                let bodies_run = hold.bodies_run;
                if bodies_run > 0 {
                    // The pair lock is the counter's only writer.
                    self.calls
                        .store(self.calls.load(Relaxed) + bodies_run, Relaxed);
                }
                Ok((out, bodies_run))
            },
        )??;
        if bodies_run > 0 {
            self.module_ref
                .note_calls_dispatched(self.client.0 as u64, bodies_run);
        }
        Ok(out)
    }
}

const SESSION_SHARDS: usize = 16;

/// The kernel's table of active sessions: 16 `RwLock`-sharded maps from
/// client pid to the client's one [`Session`]. Every lookup, publication
/// and teardown starts from the client: `sys_smod_start_session` inserts
/// under the client's process lock, in the same step that links the
/// client; a teardown removes the entry only while it is still the
/// session it tore down; a handle reaches its session through its link's
/// peer. The table only finds a session: the ownership check lives in
/// `Session::hold_pair`, under the client's lock. Dispatch reads clone
/// the `Arc` and drop the shard lock; only establishment and teardown
/// take a write lock, and concurrent dispatches for different clients
/// touch different shard lock words.
#[derive(Debug)]
pub struct SessionTable {
    shards: [RwLock<BTreeMap<Pid, Arc<Session>>>; SESSION_SHARDS],
}

impl Default for SessionTable {
    fn default() -> Self {
        SessionTable {
            shards: std::array::from_fn(|_| RwLock::new(BTreeMap::new())),
        }
    }
}

impl SessionTable {
    /// Create an empty table.
    pub fn new() -> SessionTable {
        SessionTable::default()
    }

    fn shard(&self, client: Pid) -> &RwLock<BTreeMap<Pid, Arc<Session>>> {
        &self.shards[crate::clock::stripe_index(client.0 as u64, SESSION_SHARDS)]
    }

    /// The session `client` holds, if any.
    pub fn get(&self, client: Pid) -> Option<Arc<Session>> {
        self.shard(client).read().get(&client).cloned()
    }

    /// Number of active sessions.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// Are there no active sessions?
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.read().is_empty())
    }

    /// Is any active session bound to `module`?
    pub fn any_for_module(&self, module: ModuleId) -> bool {
        self.shards
            .iter()
            .any(|s| s.read().values().any(|session| session.module == module))
    }

    fn insert(&self, session: Arc<Session>) {
        self.shard(session.client)
            .write()
            .insert(session.client, session);
    }

    /// Remove whatever session `client` holds.
    fn take(&self, client: Pid) -> Option<Arc<Session>> {
        self.shard(client).write().remove(&client)
    }

    /// Remove `client`'s session while it is still session `id`: a
    /// teardown that read an old link must not remove the session
    /// established since.
    fn remove(&self, client: Pid, id: SessionId) -> Option<Arc<Session>> {
        let mut shard = self.shard(client).write();
        shard.get(&client).filter(|s| s.id == id)?;
        shard.remove(&client)
    }
}

/// Arguments to `sys_smod_call` (paper: `sys_smod_call(framep, rtnaddr,
/// m_id, funcID)`; the argument words themselves live on the shared stack
/// and are passed here as marshalled bytes).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SmodCallArgs {
    /// The module being called.
    pub m_id: ModuleId,
    /// The function id within the module's stub table.
    pub func_id: u32,
    /// The client's frame pointer at the call site (bookkeeping only).
    pub frame_pointer: u64,
    /// The client's return address (bookkeeping only).
    pub return_address: u64,
    /// Marshalled argument bytes (what the client stub placed on the shared
    /// stack).
    pub args: Vec<u8>,
}

/// How the module key reaches the kernel at registration time (§4.4).
#[derive(Clone, Debug)]
pub enum ModuleKeyDelivery {
    /// Creator and host are the same principal: raw key material.
    Raw {
        /// The AES key bytes.
        key: Vec<u8>,
        /// The CTR nonce used when sealing.
        nonce: [u8; 8],
    },
    /// Multi-user case: the key is wrapped with the host system's RSA
    /// public key.
    Wrapped {
        /// RSA-wrapped key blob.
        blob: Vec<u8>,
        /// The CTR nonce used when sealing.
        nonce: [u8; 8],
    },
    /// The package is not encrypted (unmap-based protection only).
    None,
}

/// One hold of a session's pair lock: what every entry dispatched under
/// it shares. Built by [`Session::hold_pair`].
pub(crate) struct PairHold<'a> {
    pub(crate) session: &'a Session,
    pub(crate) handle: &'a mut Process,
    pub(crate) client: &'a mut Process,
    /// `(client name, principal, uid)` re-derived from the live credential
    /// when it no longer matches the session's [`CallProto`].
    live: Option<(String, Option<Principal>, u32)>,
    verdicts: &'a mut Verdicts,
    bodies_run: u64,
}

/// A session's decisions: one slot per stub (func ids are dense), valid
/// for its [`CallProto`] identity at the gateway epoch they are stamped
/// with. Only touched under the pair lock, so the mutex is uncontended.
pub(crate) struct Verdicts {
    epoch: u64,
    slots: Box<[Option<Verdict>]>,
}

impl std::fmt::Debug for Verdicts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Verdicts(epoch {})", self.epoch)
    }
}

/// What the kernel decided about one existing function id under one
/// credential view — the value a session's [`Verdicts`] slot holds.
#[derive(Clone)]
pub(crate) enum Verdict {
    /// Policy denies the caller this function: `EACCES`.
    Denied,
    /// Allowed, but no body is registered: `ENOSYS`.
    NoBody,
    /// Allowed; the body to run (Arc-cloned once per decision).
    Allowed(FunctionBody),
}

/// The one account of a trap: everything it adds to the shared
/// [`DispatchMetrics`] registry, counted locally and flushed once by
/// [`Kernel::finish_trap`] (so the per-entry loop writes no shared cache
/// line and the registry is exact again by the time the trap returns),
/// and the [`DrainReport`] a drain trap returns. (A producer that reaps a
/// completion *while* its drain is still running may read totals that do
/// not include it yet.)
///
/// Latency is tallied as runs of equal cost: entries of one function and
/// payload size cost the same, so a drain has a handful of distinct values
/// and records each run with one `record_n`.
pub(crate) struct TrapTally<'k> {
    latency: &'k Histogram,
    /// Added to every latency sample: the whole fixed term at depth 1,
    /// where the call *is* the trap; nothing on the drains, whose fixed
    /// term is amortised over entries and charged at the tail.
    sample_base_ns: u64,
    run_cost_ns: u64,
    run_len: u64,
    /// Entries that underwent a policy check or body run — the count the
    /// amortised fixed cost is charged for (validation rejects are free).
    pub(crate) checked: usize,
    /// Per-entry simulated nanoseconds accumulated (policy, copy, body).
    pub(crate) entry_ns: u64,
    gate_hits: u64,
    gate_misses: u64,
    pub(crate) inline_args: u64,
    pub(crate) arena_args: u64,
    pub(crate) eidrm_failures: u64,
    /// What the trap did to the rings it drained; `finish_trap` fills in
    /// the fixed cost and returns it.
    pub(crate) report: DrainReport,
    /// Sessions that had at least one checked entry — the sessions a
    /// sweep's fixed cost charges a credential check for.
    pub(crate) sessions_checked: usize,
}

impl<'k> TrapTally<'k> {
    pub(crate) fn new(latency: &'k Histogram, sample_base_ns: u64) -> TrapTally<'k> {
        TrapTally {
            latency,
            sample_base_ns,
            run_cost_ns: 0,
            run_len: 0,
            checked: 0,
            entry_ns: 0,
            gate_hits: 0,
            gate_misses: 0,
            inline_args: 0,
            arena_args: 0,
            eidrm_failures: 0,
            report: DrainReport::default(),
            sessions_checked: 0,
        }
    }

    /// Count one checked entry. A zero cost means nothing was checked (or
    /// the cost model is free): it would only flatten the distribution.
    fn entry(&mut self, cost_ns: u64) {
        if cost_ns == 0 {
            return;
        }
        self.checked += 1;
        self.entry_ns += cost_ns;
        if cost_ns != self.run_cost_ns {
            self.record_run();
            self.run_cost_ns = cost_ns;
            self.run_len = 0;
        }
        self.run_len += 1;
    }

    fn record_run(&self) {
        self.latency
            .record_n(self.sample_base_ns + self.run_cost_ns, self.run_len);
    }

    fn flush(self, metrics: &DispatchMetrics) -> DrainReport {
        self.record_run();
        // `Counter::add` skips a zero, the common case at depth 1.
        metrics.gate_hits.add(self.gate_hits);
        metrics.gate_misses.add(self.gate_misses);
        metrics.arena.inline_args.add(self.inline_args);
        metrics.arena.arena_args.add(self.arena_args);
        metrics.eidrm_failures.add(self.eidrm_failures);
        self.report
    }
}

impl Kernel {
    // ----------------------------------------------------------------
    // Registration (305 sys_smod_add, 306 sys_smod_remove, 301 sys_smod_find)
    // ----------------------------------------------------------------

    /// `sys_smod_add`: register a sealed module with the kernel.
    ///
    /// The kernel imports the module key into its key store (it never again
    /// leaves kernel space), verifies the package MAC, unseals the text and
    /// checks the plaintext fingerprint, and stores the module together with
    /// its access policy — fronted by a shared, decision-caching
    /// [`secmod_policy::Gateway`] sized by [`Kernel::gate_config`] — and
    /// function bodies.
    pub fn sys_smod_add(
        &self,
        registered_by: Pid,
        package: SmodPackage,
        key_delivery: ModuleKeyDelivery,
        mac_key: &[u8],
        policy: PolicyEngine,
        functions: FunctionTable,
    ) -> SysResult<ModuleId> {
        let trap = self.cost.syscall_trap_ns;
        self.charge(registered_by, trap);
        let uid = self.procs.with(registered_by, |p| p.cred.uid)?;

        package.verify_mac(mac_key).map_err(|_| Errno::EACCES)?;

        let label = format!("{}-{}", package.image.name, package.image.version);
        let key = match key_delivery {
            ModuleKeyDelivery::Raw { key, nonce } => self
                .keystore
                .import_raw(&label, &key, nonce)
                .map_err(|_| Errno::EINVAL)?,
            ModuleKeyDelivery::Wrapped { blob, nonce } => self
                .keystore
                .import_wrapped(&label, &blob, nonce)
                .map_err(|_| Errno::EACCES)?,
            ModuleKeyDelivery::None => {
                if package.encrypted {
                    return Err(Errno::EINVAL);
                }
                // A key is still generated for MAC-style bookkeeping.
                self.keystore
                    .generate(&label, 16)
                    .map_err(|_| Errno::EINVAL)?
            }
        };

        let encryptor = self.keystore.encryptor(key).map_err(|_| Errno::EINVAL)?;
        let plaintext = package.unseal(&encryptor).map_err(|_| Errno::EACCES)?;

        let id = self.registry.allocate_id();
        let name = package.image.name.clone();
        self.registry.insert(RegisteredModule::new(
            id,
            package,
            plaintext,
            key,
            secmod_policy::Gateway::new(policy, self.gate_config),
            functions,
            uid,
        ));
        self.tracer
            .record(Event::ModuleRegistered { module: id, name });
        Ok(id)
    }

    /// `sys_smod_remove`: deregister a module.  Only the registering uid (or
    /// root) may remove it, and not while sessions are active.
    pub fn sys_smod_remove(&self, caller: Pid, m_id: ModuleId) -> SysResult<()> {
        let trap = self.cost.syscall_trap_ns;
        self.charge(caller, trap);
        let uid = self.procs.with(caller, |p| p.cred.uid)?;
        {
            let module = self.registry.get(m_id)?;
            if uid != 0 && uid != module.registered_by_uid {
                return Err(Errno::EPERM);
            }
        }
        // The session check runs under the registry write lock so it
        // cannot race an in-flight sys_smod_start_session, which publishes
        // its session under the registry *read* lock (see
        // `SmodRegistry::remove_if`).
        let removed = self
            .registry
            .remove_if(m_id, || !self.sessions.any_for_module(m_id))?;
        let _ = self.keystore.revoke(removed.key);
        self.smod_epoch.fetch_add(1, SeqCst);
        self.tracer.record(Event::ModuleRemoved { module: m_id });
        Ok(())
    }

    /// `sys_smod_find(name, version)`: look up a registered module.
    /// A version of 0 means "latest".
    pub fn sys_smod_find(&self, caller: Pid, name: &str, version: u32) -> SysResult<ModuleId> {
        let trap = self.cost.syscall_trap_ns;
        self.charge(caller, trap);
        if !self.procs.exists(caller) {
            return Err(Errno::ESRCH);
        }
        let id = self.registry.find(name, version)?;
        self.tracer.record(Event::ModuleFound {
            client: caller,
            module: id,
        });
        Ok(id)
    }

    // ----------------------------------------------------------------
    // Session establishment (320, 303, 304)
    // ----------------------------------------------------------------

    /// `sys_smod_start_session`: the kernel verifies the client's
    /// credentials against the module policy (through the module's shared
    /// gateway, so repeated session churn against the same module hits the
    /// decision cache), "forcibly forks" the handle co-process (which alone
    /// receives the module text and a small secret heap/stack segment), and
    /// links the pair.
    pub fn sys_smod_start_session(
        &self,
        client: Pid,
        m_id: ModuleId,
    ) -> SysResult<(SessionId, Pid)> {
        let cost = self.cost.syscall_trap_ns + self.cost.fork_ns;
        self.charge(client, cost);

        if self.procs.with(client, |p| p.smod.is_some())? {
            // One session per client in this prototype (the paper's model:
            // the handle is started per client request).
            return Err(Errno::EBUSY);
        }

        let module = self.registry.get(m_id)?;
        let module_name = module.package.image.name.clone();

        // Credential / policy check for session establishment. A session
        // may be established if the credential authorises the session
        // itself or *any* exported function — individual calls are still
        // checked one by one in sys_smod_call. Each candidate question
        // goes through the gateway, so a cycling client re-establishing a
        // session answers from cache.
        let (client_name, client_cred) = self
            .procs
            .with(client, |p| (p.name.clone(), p.cred.clone()))?;
        let mut all_cached = true;
        let principal = client_cred.principal_for(&module_name);
        // No credential for this module denies outright, without touching
        // the gateway (and therefore at the cached-decision price).
        let allowed = principal.is_some()
            && std::iter::once("__start_session__")
                .chain(
                    module
                        .package
                        .stub_table
                        .stubs
                        .iter()
                        .map(|s| s.symbol.as_str()),
                )
                .any(|function| {
                    let (allowed, tier) = module.check_operation(
                        &client_name,
                        principal.as_ref(),
                        client_cred.uid,
                        function,
                    );
                    all_cached &= tier.is_cached();
                    allowed
                });
        let policy_cost = if all_cached {
            self.cost.cached_decision_ns + self.cost.credential_check_ns
        } else {
            self.cost.policy_per_node_ns * module.policy_complexity as u64
                + self.cost.credential_check_ns
        };
        self.charge(client, policy_cost);
        if !allowed {
            return Err(Errno::EACCES);
        }

        // Build the handle's address space: module text only in the handle.
        let handle_name = format!("smod-handle[{}:{}]", module_name, client);
        let handle_vm = VmSpace::new_user(
            &handle_name,
            self.layout,
            Arc::new(module.plaintext.text.data.clone()),
            1,
            1,
        )
        .map_err(Errno::from)?;
        let handle = self.procs.allocate_pid();
        let mut handle_proc =
            crate::proc::Process::new(handle, client, &handle_name, client_cred.clone(), handle_vm);
        handle_proc.flags.no_coredump = true;
        handle_proc.flags.no_ptrace = true;
        handle_proc.flags.smod_handle = true;
        self.procs.insert(handle_proc);

        let session = SessionId(self.next_session.fetch_add(1, Relaxed));
        let session_entry = Arc::new(Session {
            id: session,
            client,
            handle,
            module: m_id,
            state: AtomicU8::new(SessionState::Created.as_u8()),
            calls: AtomicU64::new(0),
            module_ref: Arc::clone(&module),
            proto: CallProto {
                principal_fp: principal.as_ref().map(Principal::fingerprint),
                principal,
                client_name,
                uid: client_cred.uid,
            },
            verdicts: Mutex::new(Verdicts {
                epoch: 0,
                slots: vec![None; module.package.stub_table.len()].into(),
            }),
            client_ref: self.procs.get(client)?,
            handle_ref: self.procs.get(handle)?,
        });
        // Publish in one step — link the client, insert the session —
        // under the registry read lock, re-checking that the module is
        // still registered: sys_smod_remove holds the write lock across
        // its no-active-sessions check, so it either sees this session
        // (EBUSY) or has removed the module first (this re-check fails).
        // And under the client's lock, where the link is a check-and-set:
        // of two racing start_sessions for one client only one publishes.
        let linked = self
            .registry
            .if_present(m_id, || {
                self.procs.with_mut(client, |p| {
                    if p.smod.is_some() {
                        return false;
                    }
                    p.flags.smod_client = true;
                    p.flags.no_coredump = true;
                    p.flags.no_ptrace = true;
                    p.smod = Some(SmodLink {
                        session,
                        peer: handle,
                        module: m_id,
                    });
                    self.sessions.insert(session_entry);
                    true
                })
            })
            .and_then(|linked| linked);
        if linked != Ok(true) {
            // Lost the race, or the module or the client is gone: nothing
            // was published, only the handle was built.
            self.procs.remove(handle);
            return Err(linked.err().unwrap_or(Errno::EBUSY));
        }
        self.procs.with_mut(handle, |h| {
            h.smod = Some(SmodLink {
                session,
                peer: client,
                module: m_id,
            });
        })?;
        module.note_session_started(client.0 as u64);
        self.tracer.record(Event::SessionStarted {
            session,
            client,
            handle,
            module: m_id,
        });
        Ok((session, handle))
    }

    /// `sys_smod_session_info`: called *by the handle* (Figure 1 step 3).
    /// The kernel forcibly unmaps the handle's data/heap/stack and shares
    /// the client's pages into the same address range
    /// (`uvmspace_force_share`), then maps the handle's secret stack/heap.
    pub fn sys_smod_session_info(&self, handle: Pid) -> SysResult<()> {
        let trap = self.cost.syscall_trap_ns;
        self.charge(handle, trap);
        let session = self.member_session(handle)?;
        if session.handle != handle {
            return Err(Errno::EPERM);
        }
        if !session.transition(SessionState::Created, SessionState::HandleReady) {
            return Err(Errno::EINVAL);
        }

        let share_range = self.layout.share_region();
        let shared_entries =
            self.procs
                .with_pair_mut(handle, session.client, |handle_proc, client_proc| {
                    let shared = handle_proc
                        .vm
                        .force_share_from(&mut client_proc.vm, share_range)
                        .map_err(Errno::from)?;
                    handle_proc.vm.map_secret_region().map_err(Errno::from)?;
                    Ok::<usize, Errno>(shared)
                })??;
        let share_cost = self.cost.force_share_per_entry_ns * shared_entries as u64;
        self.charge(handle, share_cost);

        self.tracer.record(Event::HandleReady {
            session: session.id,
            shared_entries,
        });
        Ok(())
    }

    /// `sys_smod_handle_info`: called *by the client* to conclude the
    /// handshake (Figure 1 step 4).
    pub fn sys_smod_handle_info(&self, client: Pid) -> SysResult<()> {
        let trap = self.cost.syscall_trap_ns;
        self.charge(client, trap);
        let session = self.member_session(client)?;
        if session.client != client {
            return Err(Errno::EPERM);
        }
        if !session.transition(SessionState::HandleReady, SessionState::Established) {
            return Err(Errno::EINVAL);
        }
        self.tracer.record(Event::HandshakeComplete {
            session: session.id,
        });
        Ok(())
    }

    // ----------------------------------------------------------------
    // Dispatch (307 sys_smod_call)
    // ----------------------------------------------------------------

    /// `sys_smod_call`: the kernel-mediated indirect dispatch of Figure 3.
    ///
    /// The kernel finds the caller's session with one session-table lookup
    /// (`ESRCH` for no such process, `EPERM` for a caller that holds no
    /// session), checks that it is established and for `m_id`, then runs
    /// the one protected-call sequence (`Kernel::call_entry`) under one
    /// hold of the pair lock — which fails with `EPERM` unless the caller
    /// is still the session's client — and leaves through the one
    /// accounting tail (`Kernel::finish_trap`): a drain of depth 1 with
    /// no ring, charged [`crate::cost::CostModel::smod_call_overhead`] as
    /// its fixed term.
    ///
    /// Takes `&self`: any number of threads may dispatch concurrently;
    /// calls on different sessions only share read locks and the module's
    /// sharded decision cache.
    pub fn sys_smod_call(&self, caller: Pid, call: SmodCallArgs) -> SysResult<Vec<u8>> {
        let session = self.client_session(caller)?;
        if session.state() != SessionState::Established {
            return Err(Errno::EINVAL);
        }
        if call.m_id != session.module {
            return Err(Errno::EACCES);
        }
        let fixed_ns = self.cost.smod_call_overhead(0);
        let copy_ns = self.cost.copy_per_byte_ns * call.args.len() as u64;
        let mut tally = TrapTally::new(self.metrics.latency(Flavor::Syscall), fixed_ns);
        session.hold_pair(|hold| {
            let (result, _cost_ns) =
                self.call_entry(hold, &mut tally, call.func_id, &call.args, copy_ns);
            self.finish_trap(hold.client, tally, fixed_ns);
            result
        })?
    }

    /// One protected call, in the paper's order: stub lookup → credential
    /// view (the session's [`CallProto`], or the live credential when the
    /// hold found it diverged) → policy decision → pricing → errno mapping
    /// → function body under a [`HandleCtx`]. Every dispatch path runs
    /// exactly this: `sys_smod_call` once per trap, the chunk loop of
    /// [`Kernel::drain_session_rings`] once per drained entry.
    ///
    /// The decision is the session's verdict when it holds one and the
    /// credential view is its own (a gate hit at the cached price);
    /// anything else asks the gateway and pays what the answering tier
    /// cost. The session keeps only a cache tier's answer for its own
    /// identity: an engine answer never becomes a cached one, and a
    /// diverged credential is decided by the gateway every time.
    /// `copy_ns` is what moving `args` across the boundary cost on the
    /// caller's transport. Returns the body's result (or `ENOENT` /
    /// `EACCES` / `ENOSYS`) and the entry's simulated cost — policy +
    /// copy + whatever the body charged — which has then already been
    /// charged to the pair and to `tally`. `ENOENT` costs nothing: no
    /// decision was taken.
    #[inline(always)] // see `Session::hold_pair`
    pub(crate) fn call_entry(
        &self,
        hold: &mut PairHold<'_>,
        tally: &mut TrapTally<'_>,
        proc_id: u32,
        args: &[u8],
        copy_ns: u64,
    ) -> (SysResult<Vec<u8>>, u64) {
        let session = hold.session;
        let module = &session.module_ref;
        let Some(slot) = hold.verdicts.slots.get_mut(proc_id as usize) else {
            return (Err(Errno::ENOENT), 0);
        };
        let mut policy_ns = self.cost.cached_decision_ns;
        let fresh;
        let verdict = match slot {
            Some(verdict) if hold.live.is_none() => {
                tally.gate_hits += 1;
                &*verdict
            }
            _ => {
                let Some(stub) = module.package.stub_table.by_id(proc_id) else {
                    return (Err(Errno::ENOENT), 0);
                };
                let proto = &session.proto;
                let (app_domain, principal, uid) = match &hold.live {
                    Some((name, principal, uid)) => (name.as_str(), principal.as_ref(), *uid),
                    None => (
                        proto.client_name.as_str(),
                        proto.principal.as_ref(),
                        proto.uid,
                    ),
                };
                let (allowed, tier) =
                    module.check_operation(app_domain, principal, uid, &stub.symbol);
                if tier.is_cached() {
                    tally.gate_hits += 1;
                } else {
                    tally.gate_misses += 1;
                    policy_ns = self.cost.policy_per_node_ns * module.policy_complexity as u64;
                }
                let verdict = if !allowed {
                    Verdict::Denied
                } else if let Some(body) = module.functions.get(proc_id) {
                    Verdict::Allowed(body)
                } else {
                    Verdict::NoBody
                };
                if tier.is_cached() && hold.live.is_none() {
                    &*slot.insert(verdict)
                } else {
                    fresh = verdict;
                    &fresh
                }
            }
        };
        if self.tracer.enabled() {
            self.tracer.record(Event::SmodCall {
                session: session.id,
                func_id: proc_id,
                symbol: module
                    .package
                    .stub_table
                    .by_id(proc_id)
                    .map(|s| s.symbol.clone())
                    .unwrap_or_default(),
                allowed: !matches!(verdict, Verdict::Denied),
            });
        }
        let (result, body_ns) = match verdict {
            Verdict::Allowed(body) => {
                let mut ctx = HandleCtx {
                    handle_vm: &mut hold.handle.vm,
                    client_vm: &hold.client.vm,
                    client_pid: session.client,
                    extra_ns: 0,
                };
                let result = body(&mut ctx, args);
                hold.bodies_run += 1;
                (result, ctx.extra_ns)
            }
            Verdict::NoBody => (Err(Errno::ENOSYS), 0),
            Verdict::Denied => (Err(Errno::EACCES), 0),
        };
        hold.client.cpu_time_ns += policy_ns + copy_ns;
        hold.handle.cpu_time_ns += body_ns;
        let cost_ns = policy_ns + copy_ns + body_ns;
        tally.entry(cost_ns);
        (result, cost_ns)
    }

    /// The one accounting tail every trap into the dispatch path leaves
    /// through (`sys_smod_call`, `sys_smod_call_batch`, every sweep).
    /// `caller` is the trapping process, locked by whoever calls; per-entry
    /// costs were charged to each entry's pair as it ran and summed in
    /// `tally`. A trap that checked something charges the caller its
    /// amortised `fixed_ns` — the cost-model formula of the entry point,
    /// which already contains the context-switch pair — advances the clock
    /// by fixed + entries and counts the pair; a trap that checked nothing
    /// (empty, or nothing but validation rejects) pays the bare trap. Then
    /// the tally reaches the metrics registry, and its report — with the
    /// fixed cost charged, 0 for a bare trap — is returned.
    pub(crate) fn finish_trap(
        &self,
        caller: &mut Process,
        mut tally: TrapTally<'_>,
        fixed_ns: u64,
    ) -> DrainReport {
        let stripe = caller.pid.0 as u64;
        if tally.checked == 0 {
            caller.cpu_time_ns += self.cost.syscall_trap_ns;
            self.clock
                .advance_striped(stripe, self.cost.syscall_trap_ns);
        } else {
            caller.cpu_time_ns += fixed_ns;
            self.clock
                .advance_striped(stripe, fixed_ns + tally.entry_ns);
            self.context_switch_n(caller.pid, 2);
            tally.report.fixed_cost_ns = fixed_ns;
        }
        tally.flush(&self.metrics)
    }

    // ----------------------------------------------------------------
    // Session teardown and the special functions of §4.3
    // ----------------------------------------------------------------

    /// Detach the SecModule session `pid` is a member of — as its client
    /// or as its handle: remove the session, kill and reap the handle, and
    /// clear the client's link and flags. The one teardown: `sys_exit`,
    /// `sys_execve` and `crash_process` all come through here.
    ///
    /// A client's session leaves the table, and the epoch moves, before
    /// any process lock is taken: a drain holds the client's lock for a
    /// whole chunk, so a detach that waited for it could wait out the
    /// drain. Each chunk boundary re-reads the epoch, so at most the chunk
    /// in flight runs after the detach. A handle finds its session
    /// through its own link, under its own lock.
    pub fn smod_detach(&self, pid: Pid, reason: &str) -> SysResult<()> {
        let session = match self.sessions.take(pid) {
            Some(session) => session,
            None => {
                let session = self.member_session(pid)?;
                self.sessions
                    .remove(session.client, session.id)
                    .ok_or(Errno::EINVAL)?
            }
        };
        self.smod_epoch.fetch_add(1, SeqCst);

        // Kill the handle and reap it here: `sys_wait` never sees handles,
        // so nothing else would.
        self.procs.remove(session.handle);
        // Clear the client.
        let _ = self.procs.with_mut(session.client, |c| {
            c.smod = None;
            c.flags.smod_client = false;
        });
        self.tracer.record(Event::SessionDetached {
            session: session.id,
            reason: reason.to_string(),
        });
        Ok(())
    }

    /// The paper's `fork()` special handling (§4.3): "the ideal action is to
    /// duplicate the child process twice, and force the first child to be
    /// the handle for the second."  Here: fork the client, then establish a
    /// brand-new session (and handle) for the child against the same module.
    /// "Multiple clients should not share the handle."
    pub fn sys_smod_fork(&self, client: Pid) -> SysResult<(Pid, SessionId, Pid)> {
        let link = self.procs.with(client, |p| p.smod)?.ok_or(Errno::EINVAL)?;
        let module = link.module;
        let child = self.sys_fork(client)?;
        // The child gets its own handle and session.
        let (session, handle) = self.sys_smod_start_session(child, module)?;
        self.sys_smod_session_info(handle)?;
        self.sys_smod_handle_info(child)?;
        Ok((child, session, handle))
    }

    /// The session a client currently holds, if any. A handle holds none:
    /// the session table is keyed by client.
    pub fn session_of(&self, pid: Pid) -> Option<Arc<Session>> {
        self.sessions.get(pid)
    }

    /// The session `pid` is a member of, through its link: a client's own
    /// entry, or a handle's peer's. `EINVAL` when `pid` holds no link or
    /// the link names a session that is gone.
    fn member_session(&self, pid: Pid) -> SysResult<Arc<Session>> {
        let (link, is_handle) = self.procs.with(pid, |p| (p.smod, p.flags.smod_handle))?;
        let link = link.ok_or(Errno::EINVAL)?;
        let client = if is_handle { link.peer } else { pid };
        self.sessions
            .get(client)
            .filter(|s| s.id == link.session)
            .ok_or(Errno::EINVAL)
    }

    /// The session `caller` holds as its client: `ESRCH` when no such
    /// process exists, `EPERM` when it holds none. Whether `caller` still
    /// owns what the table returned is checked by `Session::hold_pair`.
    pub(crate) fn client_session(&self, caller: Pid) -> SysResult<Arc<Session>> {
        self.session_of(caller).ok_or_else(|| {
            if self.procs.exists(caller) {
                Errno::EPERM
            } else {
                Errno::ESRCH
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::cred::Credential;
    use secmod_module::builder::ModuleBuilder;
    use secmod_module::StubTable;
    use secmod_policy::assertion::{Assertion, LicenseeExpr};
    use secmod_policy::Principal;
    use secmod_vm::Vaddr;

    const ALICE_KEY: &[u8] = b"alice-credential-key";

    /// Build and register the paper's libc-like module with an
    /// "alice is always allowed" policy, returning (kernel, module id).
    fn kernel_with_module() -> (Kernel, ModuleId) {
        let k = Kernel::new(CostModel::default());
        let registrar = k
            .spawn_process("registrar", Credential::root(), vec![0x90; 4096], 2, 2)
            .unwrap();

        let image = ModuleBuilder::libc_like();
        let key = b"0123456789abcdef".to_vec();
        let nonce = [7u8; 8];
        let enc = secmod_crypto::SelectiveEncryptor::new(&key, nonce).unwrap();
        let package = SmodPackage::seal(&image, &enc, b"toolchain-mac-key").unwrap();

        let mut policy = PolicyEngine::new();
        let alice = Principal::from_key("uid1000", ALICE_KEY);
        policy
            .add_assertion(Assertion::policy(LicenseeExpr::Single(alice), "").unwrap())
            .unwrap();

        let stub_table = StubTable::generate(&image);
        let mut functions = FunctionTable::new();
        // testincr: read a u64 argument, return it + 1.
        let incr_id = stub_table.by_name("testincr").unwrap().func_id;
        functions.register(incr_id, |_ctx, args| {
            let v = u64::from_le_bytes(args[..8].try_into().map_err(|_| Errno::EINVAL)?);
            Ok((v + 1).to_le_bytes().to_vec())
        });
        // getpid over SecModule: returns the client pid, charges a trivial
        // syscall's worth of work.
        let getpid_id = stub_table.by_name("getpid").unwrap().func_id;
        functions.register(getpid_id, |ctx, _args| {
            ctx.charge_ns(108);
            Ok((ctx.client_pid.0 as u64).to_le_bytes().to_vec())
        });
        // strlen: read a NUL-terminated string from shared memory.
        let strlen_id = stub_table.by_name("strlen").unwrap().func_id;
        functions.register(strlen_id, |ctx, args| {
            let addr = Vaddr(u64::from_le_bytes(
                args[..8].try_into().map_err(|_| Errno::EINVAL)?,
            ));
            let mut len = 0u64;
            loop {
                let byte = ctx.read(Vaddr(addr.0 + len), 1)?;
                if byte[0] == 0 {
                    break;
                }
                len += 1;
            }
            Ok(len.to_le_bytes().to_vec())
        });

        let m_id = k
            .sys_smod_add(
                registrar,
                package,
                ModuleKeyDelivery::Raw { key, nonce },
                b"toolchain-mac-key",
                policy,
                functions,
            )
            .unwrap();
        (k, m_id)
    }

    fn spawn_alice(k: &Kernel) -> Pid {
        k.spawn_process(
            "client",
            Credential::user(1000, 100).with_smod_credential("libc", ALICE_KEY),
            vec![0x90; 4096],
            4,
            4,
        )
        .unwrap()
    }

    fn establish(k: &Kernel, client: Pid, m_id: ModuleId) -> (SessionId, Pid) {
        let (session, handle) = k.sys_smod_start_session(client, m_id).unwrap();
        k.sys_smod_session_info(handle).unwrap();
        k.sys_smod_handle_info(client).unwrap();
        (session, handle)
    }

    fn testincr_id(k: &Kernel, m_id: ModuleId) -> u32 {
        k.registry
            .get(m_id)
            .unwrap()
            .package
            .stub_table
            .by_name("testincr")
            .unwrap()
            .func_id
    }

    fn call(
        k: &Kernel,
        client: Pid,
        m_id: ModuleId,
        func_id: u32,
        args: Vec<u8>,
    ) -> SysResult<Vec<u8>> {
        k.sys_smod_call(
            client,
            SmodCallArgs {
                m_id,
                func_id,
                frame_pointer: 0xBFFF_0000,
                return_address: 0x0000_1234,
                args,
            },
        )
    }

    #[test]
    fn registration_and_find() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        assert_eq!(k.sys_smod_find(client, "libc", 36).unwrap(), m_id);
        assert_eq!(k.sys_smod_find(client, "libc", 0).unwrap(), m_id);
        assert_eq!(
            k.sys_smod_find(client, "libc", 9).unwrap_err(),
            Errno::ENOENT
        );
        assert_eq!(
            k.sys_smod_find(client, "libz", 0).unwrap_err(),
            Errno::ENOENT
        );
    }

    #[test]
    fn add_rejects_bad_mac_and_bad_key() {
        let k = Kernel::new(CostModel::default());
        let registrar = k
            .spawn_process("r", Credential::root(), vec![0x90; 4096], 2, 2)
            .unwrap();
        let image = ModuleBuilder::libc_like();
        let key = b"0123456789abcdef".to_vec();
        let nonce = [7u8; 8];
        let enc = secmod_crypto::SelectiveEncryptor::new(&key, nonce).unwrap();
        let package = SmodPackage::seal(&image, &enc, b"mac-key").unwrap();

        // Wrong MAC key.
        assert_eq!(
            k.sys_smod_add(
                registrar,
                package.clone(),
                ModuleKeyDelivery::Raw {
                    key: key.clone(),
                    nonce
                },
                b"wrong-mac",
                PolicyEngine::new(),
                FunctionTable::new(),
            )
            .unwrap_err(),
            Errno::EACCES
        );
        // Wrong module key: unsealing produces the wrong fingerprint.
        assert_eq!(
            k.sys_smod_add(
                registrar,
                package.clone(),
                ModuleKeyDelivery::Raw {
                    key: b"ffffffffffffffff".to_vec(),
                    nonce
                },
                b"mac-key",
                PolicyEngine::new(),
                FunctionTable::new(),
            )
            .unwrap_err(),
            Errno::EACCES
        );
        // Declaring an encrypted package as unencrypted is invalid.
        assert_eq!(
            k.sys_smod_add(
                registrar,
                package,
                ModuleKeyDelivery::None,
                b"mac-key",
                PolicyEngine::new(),
                FunctionTable::new(),
            )
            .unwrap_err(),
            Errno::EINVAL
        );
    }

    #[test]
    fn full_handshake_and_call() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        let (session, handle) = establish(&k, client, m_id);

        // The pair is linked both ways.
        assert_eq!(
            k.procs.with(client, |p| p.smod.unwrap().peer).unwrap(),
            handle
        );
        assert_eq!(
            k.procs.with(handle, |p| p.smod.unwrap().peer).unwrap(),
            client
        );
        assert_eq!(k.session_of(client).unwrap().id, session);

        // testincr(41) == 42.
        let func = testincr_id(&k, m_id);
        let reply = call(&k, client, m_id, func, 41u64.to_le_bytes().to_vec()).unwrap();
        assert_eq!(u64::from_le_bytes(reply.try_into().unwrap()), 42);
        assert_eq!(k.session_of(client).unwrap().calls(), 1);
        assert_eq!(k.registry.get(m_id).unwrap().calls_dispatched(), 1);
    }

    #[test]
    fn handshake_order_is_enforced() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        let (_, handle) = k.sys_smod_start_session(client, m_id).unwrap();
        // Client cannot conclude before the handle reported ready.
        assert_eq!(k.sys_smod_handle_info(client).unwrap_err(), Errno::EINVAL);
        // Client cannot impersonate the handle.
        assert_eq!(k.sys_smod_session_info(client).unwrap_err(), Errno::EPERM);
        // Calls are rejected before the handshake completes.
        let func = testincr_id(&k, m_id);
        assert_eq!(
            call(&k, client, m_id, func, 1u64.to_le_bytes().to_vec()).unwrap_err(),
            Errno::EINVAL
        );
        // Correct order works.
        k.sys_smod_session_info(handle).unwrap();
        k.sys_smod_handle_info(client).unwrap();
        // Repeating a handshake step fails.
        assert_eq!(k.sys_smod_session_info(handle).unwrap_err(), Errno::EINVAL);
        assert_eq!(k.sys_smod_handle_info(client).unwrap_err(), Errno::EINVAL);
    }

    #[test]
    fn credential_failure_denies_session_and_calls() {
        let (k, m_id) = kernel_with_module();
        // mallory has no credential for libc.
        let mallory = k
            .spawn_process(
                "mallory",
                Credential::user(666, 666),
                vec![0x90; 4096],
                4,
                4,
            )
            .unwrap();
        assert_eq!(
            k.sys_smod_start_session(mallory, m_id).unwrap_err(),
            Errno::EACCES
        );
        // carol presents the wrong key material.
        let carol = k
            .spawn_process(
                "carol",
                Credential::user(1000, 100).with_smod_credential("libc", b"not-alices-key"),
                vec![0x90; 4096],
                4,
                4,
            )
            .unwrap();
        assert_eq!(
            k.sys_smod_start_session(carol, m_id).unwrap_err(),
            Errno::EACCES
        );
    }

    #[test]
    fn stolen_session_cannot_be_used_by_another_process() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        establish(&k, client, m_id);
        // A different process — even with the same credentials — cannot call
        // through the client's session.
        let thief = spawn_alice(&k);
        let func = testincr_id(&k, m_id);
        assert_eq!(
            call(&k, thief, m_id, func, 1u64.to_le_bytes().to_vec()).unwrap_err(),
            Errno::EPERM
        );
    }

    #[test]
    fn module_text_is_only_mapped_in_the_handle() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        let (_, handle) = establish(&k, client, m_id);

        let text_base = k.layout.text_base;
        // The handle's text at text_base is the module's plaintext text.
        let module_text = k.registry.get(m_id).unwrap().plaintext.text.data.clone();
        let handle_text = k
            .read_user_memory(handle, Vaddr(text_base), 32.min(module_text.len()))
            .unwrap();
        assert_eq!(&handle_text[..], &module_text[..handle_text.len()]);
        // The client's own text is its program image, not the module.
        let client_text = k.read_user_memory(client, Vaddr(text_base), 32).unwrap();
        assert_eq!(client_text, vec![0x90u8; 32]);
        assert_ne!(handle_text, client_text);
    }

    #[test]
    fn shared_memory_lets_the_handle_work_on_client_data() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        establish(&k, client, m_id);

        // Client writes a C string into its heap; SMOD strlen sees it
        // through the shared pages.
        let addr = Vaddr(k.layout.data_base + 64);
        k.write_user_memory(client, addr, b"hello, secmodule\0")
            .unwrap();
        let strlen_id = k
            .registry
            .get(m_id)
            .unwrap()
            .package
            .stub_table
            .by_name("strlen")
            .unwrap()
            .func_id;
        let reply = call(&k, client, m_id, strlen_id, addr.0.to_le_bytes().to_vec()).unwrap();
        assert_eq!(u64::from_le_bytes(reply.try_into().unwrap()), 16);
    }

    #[test]
    fn smod_getpid_reports_the_client_pid() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        let (_, handle) = establish(&k, client, m_id);
        let getpid_id = k
            .registry
            .get(m_id)
            .unwrap()
            .package
            .stub_table
            .by_name("getpid")
            .unwrap()
            .func_id;
        let reply = call(&k, client, m_id, getpid_id, vec![]).unwrap();
        assert_eq!(
            u64::from_le_bytes(reply.try_into().unwrap()),
            client.0 as u64
        );
        // And the native getpid syscall from the handle also reports the client.
        assert_eq!(k.sys_getpid(handle).unwrap(), client);
    }

    #[test]
    fn ptrace_and_coredumps_are_restricted_for_the_pair() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        let (_, handle) = establish(&k, client, m_id);
        let debugger = k
            .spawn_process("gdb", Credential::root(), vec![0x90; 4096], 2, 2)
            .unwrap();
        assert_eq!(
            k.sys_ptrace_attach(debugger, handle).unwrap_err(),
            Errno::EPERM
        );
        assert_eq!(
            k.sys_ptrace_attach(debugger, client).unwrap_err(),
            Errno::EPERM
        );
        // Crashing the handle never produces a core image.
        assert!(!k.crash_process(handle).unwrap());
        assert!(k
            .tracer
            .events()
            .iter()
            .any(|e| matches!(e, Event::CoreDumpSuppressed { .. })));
    }

    #[test]
    fn exit_kills_the_handle_and_removes_the_session() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        let (_, handle) = establish(&k, client, m_id);
        k.sys_exit(client, 0).unwrap();
        assert_eq!(k.procs.with(handle, |_| ()).unwrap_err(), Errno::ESRCH);
        assert!(k.sessions.is_empty());
        assert!(k
            .tracer
            .events()
            .iter()
            .any(|e| matches!(e, Event::SessionDetached { .. })));
    }

    #[test]
    fn execve_detaches_and_allows_a_fresh_session() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        let (_, handle) = establish(&k, client, m_id);
        k.sys_execve(client, "newprog", vec![0xCC; 4096]).unwrap();
        assert_eq!(k.procs.with(handle, |_| ()).unwrap_err(), Errno::ESRCH);
        assert!(k.sessions.is_empty());
        // The new image can set up a new session (its crt0 would do this).
        let (session2, handle2) = k.sys_smod_start_session(client, m_id).unwrap();
        k.sys_smod_session_info(handle2).unwrap();
        k.sys_smod_handle_info(client).unwrap();
        assert_eq!(k.session_of(client).unwrap().id, session2);
    }

    #[test]
    fn a_handles_exit_execve_or_crash_frees_its_client() {
        // Each ends the pair from the handle's side. The detach reaps the
        // handle and clears the *client's* link, so the client can start
        // and use a new session. A handle's execve fails `ESRCH`: the
        // detach has reaped the process it would have replaced.
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        let func = testincr_id(&k, m_id);
        for end in ["exit", "execve", "crash"] {
            let (_, handle) = establish(&k, client, m_id);
            match end {
                "exit" => k.sys_exit(handle, 0).unwrap(),
                "execve" => assert_eq!(
                    k.sys_execve(handle, "other", vec![0xCC; 4096]),
                    Err(Errno::ESRCH)
                ),
                _ => assert!(!k.crash_process(handle).unwrap()),
            }
            assert!(!k.procs.exists(handle), "{end}");
            assert!(k.sessions.is_empty(), "{end}");
            let (link, flagged) = k
                .procs
                .with(client, |p| (p.smod, p.flags.smod_client))
                .unwrap();
            assert!(link.is_none() && !flagged, "{end}: client still linked");
            establish(&k, client, m_id);
            let reply = call(&k, client, m_id, func, 1u64.to_le_bytes().to_vec()).unwrap();
            assert_eq!(reply, 2u64.to_le_bytes(), "{end}");
            k.smod_detach(client, "next end").unwrap();
        }
    }

    #[test]
    fn detach_and_reestablish_cycles_leave_no_process_behind() {
        // Every detach reaps its handle: a client cycling its session
        // (what `policy_churn` does every 4096 ops) must not grow the
        // process table by one zombie per cycle.
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        establish(&k, client, m_id);
        let before = k.procs.len();
        for _ in 0..100 {
            k.smod_detach(client, "cycle").unwrap();
            establish(&k, client, m_id);
        }
        assert_eq!(k.procs.len(), before);
    }

    #[test]
    fn smod_fork_gives_the_child_its_own_handle() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        let (session, handle) = establish(&k, client, m_id);
        let (child, child_session, child_handle) = k.sys_smod_fork(client).unwrap();
        assert_ne!(child_session, session);
        assert_ne!(child_handle, handle);
        // Both clients can call independently.
        let func = testincr_id(&k, m_id);
        let r1 = call(&k, client, m_id, func, 10u64.to_le_bytes().to_vec()).unwrap();
        let r2 = call(&k, child, m_id, func, 20u64.to_le_bytes().to_vec()).unwrap();
        assert_eq!(u64::from_le_bytes(r1.try_into().unwrap()), 11);
        assert_eq!(u64::from_le_bytes(r2.try_into().unwrap()), 21);
    }

    #[test]
    fn remove_requires_owner_and_no_sessions() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        // Non-owner cannot remove.
        assert_eq!(k.sys_smod_remove(client, m_id).unwrap_err(), Errno::EPERM);
        // Owner cannot remove while a session is active.
        let registrar = Pid(1);
        establish(&k, client, m_id);
        assert_eq!(
            k.sys_smod_remove(registrar, m_id).unwrap_err(),
            Errno::EBUSY
        );
        // After the client exits, removal succeeds.
        k.sys_exit(client, 0).unwrap();
        k.sys_smod_remove(registrar, m_id).unwrap();
        assert_eq!(
            k.sys_smod_find(client, "libc", 0).unwrap_err(),
            Errno::ENOENT
        );
    }

    #[test]
    fn smod_epoch_bumps_on_detach_and_remove() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        assert_eq!(k.smod_epoch(), 0);
        establish(&k, client, m_id);
        // Establishing alone does not invalidate anything.
        assert_eq!(k.smod_epoch(), 0);
        k.smod_detach(client, "test").unwrap();
        assert_eq!(k.smod_epoch(), 1);
        k.sys_smod_remove(Pid(1), m_id).unwrap();
        assert_eq!(k.smod_epoch(), 2);
        // A failed removal must not bump.
        assert_eq!(k.sys_smod_remove(Pid(1), m_id).unwrap_err(), Errno::ENOENT);
        assert_eq!(k.smod_epoch(), 2);
    }

    #[test]
    fn double_session_per_client_is_rejected() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        establish(&k, client, m_id);
        assert_eq!(
            k.sys_smod_start_session(client, m_id).unwrap_err(),
            Errno::EBUSY
        );
    }

    #[test]
    fn racing_start_sessions_index_only_the_winner() {
        // Two start_sessions for one client, released together: exactly
        // one wins and calls through its session after the handshake. The
        // loser — whether refused up front or at the link — leaves no
        // table entry and no handle behind, so once the winner detaches
        // the table is empty and the process count is back where it was.
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        let func = testincr_id(&k, m_id);
        let procs = k.procs.len();
        for round in 0..200u64 {
            let barrier = std::sync::Barrier::new(2);
            let results: Vec<SysResult<(SessionId, Pid)>> = std::thread::scope(|s| {
                let racers: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            k.sys_smod_start_session(client, m_id)
                        })
                    })
                    .collect();
                racers.into_iter().map(|r| r.join().unwrap()).collect()
            });
            let won: Vec<_> = results.iter().filter_map(|r| r.as_ref().ok()).collect();
            assert_eq!(won.len(), 1, "round {round}: {results:?}");
            assert!(results.contains(&Err(Errno::EBUSY)), "round {round}");
            let (session, handle) = *won[0];
            assert_eq!(k.session_of(client).unwrap().id, session);
            k.sys_smod_session_info(handle).unwrap();
            k.sys_smod_handle_info(client).unwrap();
            let reply = call(&k, client, m_id, func, round.to_le_bytes().to_vec()).unwrap();
            assert_eq!(reply, (round + 1).to_le_bytes());
            k.smod_detach(client, "round over").unwrap();
            assert!(k.sessions.is_empty());
            assert!(k.session_of(client).is_none(), "round {round}");
            assert_eq!(k.procs.len(), procs, "round {round}");
        }
    }

    #[test]
    fn racing_start_session_and_remove_agree() {
        // `sys_smod_remove`'s no-active-sessions check runs under the
        // registry write lock, start_session's publication under its read
        // lock. Released together, either the remove sees the session
        // (`EBUSY`) and the session completes its handshake and calls, or
        // the module goes first and start_session fails `ENOENT` with no
        // table entry, no handle process and no client link left behind.
        let registrar = Pid(1);
        for round in 0..100u64 {
            let (k, m_id) = kernel_with_module();
            let client = spawn_alice(&k);
            let procs = k.procs.len();
            let barrier = std::sync::Barrier::new(2);
            let (started, removed) = std::thread::scope(|s| {
                let start = s.spawn(|| {
                    barrier.wait();
                    k.sys_smod_start_session(client, m_id)
                });
                let remove = s.spawn(|| {
                    barrier.wait();
                    // A growing head start for start_session walks the
                    // remove across its whole establishment, so both
                    // outcomes occur.
                    let t0 = std::time::Instant::now();
                    while t0.elapsed() < std::time::Duration::from_micros(round * 5) {
                        std::hint::spin_loop();
                    }
                    k.sys_smod_remove(registrar, m_id)
                });
                (start.join().unwrap(), remove.join().unwrap())
            });
            match removed {
                Err(Errno::EBUSY) => {
                    let (_, handle) = started.unwrap();
                    k.sys_smod_session_info(handle).unwrap();
                    k.sys_smod_handle_info(client).unwrap();
                    let func = testincr_id(&k, m_id);
                    let reply = call(&k, client, m_id, func, round.to_le_bytes().to_vec());
                    assert_eq!(reply.unwrap(), (round + 1).to_le_bytes());
                }
                Ok(()) => {
                    assert_eq!(started.unwrap_err(), Errno::ENOENT, "round {round}");
                    assert!(k.sessions.is_empty(), "round {round}");
                    assert_eq!(k.procs.len(), procs, "round {round}");
                    assert!(k.procs.with(client, |p| p.smod).unwrap().is_none());
                }
                other => panic!("round {round}: remove returned {other:?}"),
            }
        }
    }

    #[test]
    fn a_stale_client_index_entry_fails_instead_of_calling() {
        // The ownership check under the pair lock is what makes the table
        // safe: plant a detached session back in it, and a call fails
        // `EPERM` while a batched entry completes `EIDRM` — neither runs.
        use secmod_ring::{CompletionRing, Ring, SmodCallReq, SubmissionRing};
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        establish(&k, client, m_id);
        let stale = k.session_of(client).unwrap();
        k.smod_detach(client, "stale").unwrap();
        k.sessions.insert(Arc::clone(&stale));
        let func = testincr_id(&k, m_id);
        assert_eq!(
            call(&k, client, m_id, func, 1u64.to_le_bytes().to_vec()).unwrap_err(),
            Errno::EPERM
        );
        let (sq, cq): (SubmissionRing, CompletionRing) =
            (Ring::with_capacity(4), Ring::with_capacity(4));
        sq.push_spsc(SmodCallReq {
            session: stale.id.0,
            proc_id: func,
            user_data: 0,
            args: 1u64.to_le_bytes().into(),
        })
        .unwrap();
        let report = k.sys_smod_call_batch(client, &sq, &cq, 4).unwrap();
        assert_eq!(report.sessions_dead, 1);
        assert_eq!(cq.pop_spsc().unwrap().errno, Errno::EIDRM.code());
        assert_eq!(stale.calls(), 0);
    }

    #[test]
    fn wrong_module_or_function_is_rejected() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        establish(&k, client, m_id);
        let func = testincr_id(&k, m_id);
        // Unknown function id.
        assert_eq!(
            call(&k, client, m_id, 9999, vec![]).unwrap_err(),
            Errno::ENOENT
        );
        // Module id not matching the session.
        assert_eq!(
            call(&k, client, ModuleId(999), func, vec![]).unwrap_err(),
            Errno::EACCES
        );
    }

    #[test]
    fn per_call_check_hits_the_module_gateway_cache() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        establish(&k, client, m_id);
        let func = testincr_id(&k, m_id);

        // First call misses (plus the session-establishment lookups);
        // repeated calls of the same function are pure cache hits — the
        // second from the thread-local L0 tier, the rest from the session's
        // own verdict, so the *sharded* cache sees only the one insert
        // while the kernel's gate counters see every hit.
        let before = k.registry.get(m_id).unwrap().gateway.cache_stats();
        let (hits0, misses0) = (k.metrics.gate_hits.get(), k.metrics.gate_misses.get());
        for i in 0..50u64 {
            call(&k, client, m_id, func, i.to_le_bytes().to_vec()).unwrap();
        }
        let after = k.registry.get(m_id).unwrap().gateway.cache_stats();
        assert!(
            k.metrics.gate_hits.get() >= hits0 + 49,
            "cached dispatch must hit: {before:?} -> {after:?}"
        );
        assert_eq!(
            k.metrics.gate_misses.get(),
            misses0 + 1,
            "only the first call may miss"
        );
        assert_eq!(
            after.misses,
            before.misses + 1,
            "only the first call may reach the sharded tier's engine path"
        );

        // And the cached calls are cheaper on the simulated clock than the
        // uncached first one.
        let t0 = k.clock.now_ns();
        call(&k, client, m_id, func, 1u64.to_le_bytes().to_vec()).unwrap();
        let cached_ns = k.clock.now_ns() - t0;
        let uncached_equiv = k.cost.smod_call_overhead(8)
            + k.cost.policy_per_node_ns
                * k.registry.get(m_id).unwrap().policy_complexity.max(1) as u64;
        assert!(
            cached_ns < uncached_equiv,
            "cached call {cached_ns} ns not cheaper than uncached model"
        );
    }

    #[test]
    fn concurrent_dispatch_from_many_threads() {
        let (k, m_id) = kernel_with_module();
        let func = testincr_id(&k, m_id);
        let clients: Vec<Pid> = (0..4)
            .map(|_| {
                let c = spawn_alice(&k);
                establish(&k, c, m_id);
                c
            })
            .collect();
        let k = &k;
        std::thread::scope(|s| {
            for &c in &clients {
                s.spawn(move || {
                    for i in 0..500u64 {
                        let r = call(k, c, m_id, func, i.to_le_bytes().to_vec()).unwrap();
                        assert_eq!(u64::from_le_bytes(r.try_into().unwrap()), i + 1);
                    }
                });
            }
        });
        assert_eq!(k.registry.get(m_id).unwrap().calls_dispatched(), 4 * 500);
        for &c in &clients {
            assert_eq!(k.session_of(c).unwrap().calls(), 500);
        }
    }

    #[test]
    fn simulated_cost_reproduces_figure8_magnitudes() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        establish(&k, client, m_id);
        let func = testincr_id(&k, m_id);

        // Native getpid cost.
        let t0 = k.clock.now_ns();
        k.sys_getpid(client).unwrap();
        let getpid_ns = k.clock.now_ns() - t0;

        // SMOD(testincr) cost.
        let t1 = k.clock.now_ns();
        call(&k, client, m_id, func, 5u64.to_le_bytes().to_vec()).unwrap();
        let smod_ns = k.clock.now_ns() - t1;

        let ratio = smod_ns as f64 / getpid_ns as f64;
        assert!(
            (0.4..1.2).contains(&(getpid_ns as f64 / 1000.0)),
            "getpid {getpid_ns} ns"
        );
        assert!(
            (4.0..12.0).contains(&(smod_ns as f64 / 1000.0)),
            "smod {smod_ns} ns"
        );
        assert!(ratio > 5.0 && ratio < 20.0, "ratio {ratio}");
    }

    #[test]
    fn figure1_event_sequence_is_recorded() {
        let (k, m_id) = kernel_with_module();
        let client = spawn_alice(&k);
        k.sys_smod_find(client, "libc", 0).unwrap();
        let (_, handle) = k.sys_smod_start_session(client, m_id).unwrap();
        k.sys_smod_session_info(handle).unwrap();
        k.sys_smod_handle_info(client).unwrap();
        let func = testincr_id(&k, m_id);
        call(&k, client, m_id, func, 1u64.to_le_bytes().to_vec()).unwrap();

        let kinds: Vec<&'static str> = k
            .tracer
            .events()
            .iter()
            .map(|e| match e {
                Event::ModuleRegistered { .. } => "registered",
                Event::ModuleFound { .. } => "found",
                Event::SessionStarted { .. } => "start_session",
                Event::HandleReady { .. } => "session_info",
                Event::HandshakeComplete { .. } => "handle_info",
                Event::SmodCall { .. } => "smod_call",
                _ => "other",
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "registered",
                "found",
                "start_session",
                "session_info",
                "handle_info",
                "smod_call"
            ]
        );
    }
}
