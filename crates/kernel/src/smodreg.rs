//! The kernel's SecModule registry and the function bodies the handle
//! executes.
//!
//! "A separate tool chain registers the SecModule m with the kernel, which
//! must keep track of the registered SecModules" (§3).  The registry maps
//! `(name, version)` to a [`RegisteredModule`]: the sealed package delivered
//! by the toolchain, the kernel-only key that unseals it, the access policy,
//! and — because this is a simulation rather than real machine code — a
//! table of Rust closures standing in for the functions held in the module
//! text.  The closures run "in the handle": they receive a [`HandleCtx`]
//! that exposes the handle's view of the shared client memory, exactly the
//! access a real SecModule function would have.

use crate::clock::StripedCounter;
use crate::errno::Errno;
use crate::proc::Pid;
use crate::SysResult;
use parking_lot::RwLock;
use secmod_crypto::keystore::KeyHandle;
use secmod_module::{ModuleId, ModuleImage, SmodPackage};
use secmod_policy::Gateway;
use secmod_vm::{Vaddr, VmSpace};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, Ordering::Relaxed};
use std::sync::Arc;

/// The execution context a module function body receives: the handle's
/// address space (which shares data/heap/stack with the client) plus the
/// client's space for peer-fault resolution.
pub struct HandleCtx<'a> {
    /// The handle process's address space.
    pub handle_vm: &'a mut VmSpace,
    /// The client process's address space (read-only reference used for
    /// peer-fault sharing).
    pub client_vm: &'a VmSpace,
    /// Pid of the client on whose behalf the call executes.
    pub client_pid: Pid,
    /// Extra simulated nanoseconds the body wants charged (e.g. a function
    /// that itself performs a syscall).
    pub extra_ns: u64,
}

impl<'a> HandleCtx<'a> {
    /// Read bytes from the shared address space.
    pub fn read(&mut self, addr: Vaddr, len: usize) -> SysResult<Vec<u8>> {
        self.handle_vm
            .read_bytes_with_peer(addr, len, Some(self.client_vm))
            .map_err(Errno::from)
    }

    /// Write bytes into the shared address space (visible to the client).
    pub fn write(&mut self, addr: Vaddr, data: &[u8]) -> SysResult<()> {
        self.handle_vm
            .write_bytes_with_peer(addr, data, Some(self.client_vm))
            .map_err(Errno::from)
    }

    /// Read a little-endian `u64` from shared memory.
    pub fn read_u64(&mut self, addr: Vaddr) -> SysResult<u64> {
        let bytes = self.read(addr, 8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("8 bytes read")))
    }

    /// Write a little-endian `u64` to shared memory.
    pub fn write_u64(&mut self, addr: Vaddr, value: u64) -> SysResult<()> {
        self.write(addr, &value.to_le_bytes())
    }

    /// Charge extra simulated time to this call (e.g. the body of
    /// `SMOD-getpid` performing the real `getpid` work).
    pub fn charge_ns(&mut self, ns: u64) {
        self.extra_ns += ns;
    }
}

/// A function body: takes the execution context and the marshalled argument
/// bytes from the shared stack, returns the marshalled result bytes.
pub type FunctionBody = Arc<dyn Fn(&mut HandleCtx<'_>, &[u8]) -> SysResult<Vec<u8>> + Send + Sync>;

/// The table of function bodies for one module, keyed by function id
/// (matching the module's stub table).
#[derive(Clone, Default)]
pub struct FunctionTable {
    bodies: HashMap<u32, FunctionBody>,
}

impl std::fmt::Debug for FunctionTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FunctionTable({} functions)", self.bodies.len())
    }
}

impl FunctionTable {
    /// Create an empty table.
    pub fn new() -> FunctionTable {
        FunctionTable::default()
    }

    /// Register a body for `func_id`.
    pub fn register<F>(&mut self, func_id: u32, body: F)
    where
        F: Fn(&mut HandleCtx<'_>, &[u8]) -> SysResult<Vec<u8>> + Send + Sync + 'static,
    {
        self.bodies.insert(func_id, Arc::new(body));
    }

    /// Look up a body.
    pub fn get(&self, func_id: u32) -> Option<FunctionBody> {
        self.bodies.get(&func_id).cloned()
    }

    /// Number of registered bodies.
    pub fn len(&self) -> usize {
        self.bodies.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.bodies.is_empty()
    }
}

/// A module registered with the kernel.
///
/// Shared (`Arc`) between the registry and in-flight syscalls: everything
/// set at registration time is immutable, the per-module statistics are
/// atomics, and the access policy lives inside a concurrent
/// [`Gateway`] whose sharded decision cache serves the per-call check of
/// `sys_smod_call` — the gateway is *inside* the kernel's dispatch path,
/// the way the LSM access vector cache sits inside the hook, not in front
/// of it.
pub struct RegisteredModule {
    /// The module id assigned at registration.
    pub id: ModuleId,
    /// The sealed package as delivered by the toolchain (text possibly
    /// encrypted).
    pub package: SmodPackage,
    /// The plaintext image — exists only inside the kernel, handed only to
    /// handle processes.
    pub plaintext: ModuleImage,
    /// The key that seals/unseals the module text (kernel key store handle).
    pub key: KeyHandle,
    /// The access policy behind a concurrent, decision-caching gateway.
    /// Every session start and every call is checked here; concurrent
    /// sessions against this module share this one gateway (and therefore
    /// its cache) instead of re-checking independently.
    pub gateway: Gateway,
    /// AST node count of the policy at registration time, used by the cost
    /// model to charge uncached (full fixpoint) policy evaluations.
    pub policy_complexity: usize,
    /// Function bodies executed by the handle.
    pub functions: FunctionTable,
    /// Uid of the principal that registered the module (may remove it).
    pub registered_by_uid: u32,
    sessions_started: StripedCounter,
    calls_dispatched: StripedCounter,
}

impl RegisteredModule {
    /// Assemble a registered module around an already-built gateway
    /// (`Gateway::new(policy, cache_config)` is the usual entry point).
    pub fn new(
        id: ModuleId,
        package: SmodPackage,
        plaintext: ModuleImage,
        key: KeyHandle,
        gateway: Gateway,
        functions: FunctionTable,
        registered_by_uid: u32,
    ) -> RegisteredModule {
        let policy_complexity = gateway.with_engine(|e| e.total_complexity());
        RegisteredModule {
            id,
            package,
            plaintext,
            key,
            gateway,
            policy_complexity,
            functions,
            registered_by_uid,
            sessions_started: StripedCounter::new(),
            calls_dispatched: StripedCounter::new(),
        }
    }

    /// Number of sessions ever started against this module.
    pub fn sessions_started(&self) -> u64 {
        self.sessions_started.sum()
    }

    /// Number of calls dispatched against this module.
    pub fn calls_dispatched(&self) -> u64 {
        self.calls_dispatched.sum()
    }

    /// Record a session start (hint: the client pid, for striping).
    pub(crate) fn note_session_started(&self, hint: u64) {
        self.sessions_started.add(hint, 1);
    }

    /// Record `n` dispatched calls (hint: the client pid, for striping);
    /// the dispatch path counts once per hold of the pair lock.
    pub(crate) fn note_calls_dispatched(&self, hint: u64, n: u64) {
        self.calls_dispatched.add(hint, n);
    }

    /// The per-call credential/policy question, asked of this module's
    /// gateway: may `principal` (acting for `uid` in `app_domain`)
    /// invoke `operation`? Returns `(allowed, tier)` where the tier says
    /// which layer of the decision stack answered (thread-local L0,
    /// sharded cache, or the engine); a missing principal denies without
    /// consulting the gateway, exactly as an engine query with no
    /// requesters would. Every dispatch path (single-call fast and slow,
    /// batched) funnels through here so the request shape cannot diverge
    /// between them.
    pub(crate) fn check_operation(
        &self,
        app_domain: &str,
        principal: Option<&secmod_policy::Principal>,
        uid: u32,
        operation: &str,
    ) -> (bool, secmod_policy::DecisionTier) {
        match principal {
            // No principal denies without consulting the gateway; billed as
            // an engine-tier (uncached) decision, as before.
            None => (false, secmod_policy::DecisionTier::Engine),
            Some(principal) => {
                let request = secmod_policy::AccessRequest {
                    requesters: std::slice::from_ref(principal),
                    app_domain,
                    module: &self.package.image.name,
                    version: self.package.image.version.0,
                    operation,
                    uid: uid as i64,
                };
                self.gateway.is_allowed_tiered(&request)
            }
        }
    }
}

impl std::fmt::Debug for RegisteredModule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegisteredModule")
            .field("id", &self.id)
            .field("name", &self.package.image.name)
            .field("version", &self.package.image.version)
            .field("functions", &self.functions.len())
            .finish()
    }
}

/// The registry of all SecModules known to the kernel.
///
/// The module table sits behind a `RwLock`; lookups on the dispatch path
/// take the read lock just long enough to clone the module's `Arc`, so
/// registration/removal (write-locked, rare) never stalls in-flight calls
/// for long and concurrent dispatches never contend with each other here.
#[derive(Default)]
pub struct SmodRegistry {
    modules: RwLock<BTreeMap<ModuleId, Arc<RegisteredModule>>>,
    next_id: AtomicU32,
}

impl std::fmt::Debug for SmodRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SmodRegistry")
            .field("modules", &self.len())
            .finish()
    }
}

impl SmodRegistry {
    /// Create an empty registry.
    pub fn new() -> SmodRegistry {
        SmodRegistry {
            modules: RwLock::new(BTreeMap::new()),
            next_id: AtomicU32::new(1),
        }
    }

    /// Allocate the next module id.
    pub fn allocate_id(&self) -> ModuleId {
        ModuleId(self.next_id.fetch_add(1, Relaxed))
    }

    /// Insert a registered module.
    pub fn insert(&self, module: RegisteredModule) {
        self.modules.write().insert(module.id, Arc::new(module));
    }

    /// Look up by id, returning a shared handle usable without holding any
    /// registry lock.
    pub fn get(&self, id: ModuleId) -> SysResult<Arc<RegisteredModule>> {
        self.modules.read().get(&id).cloned().ok_or(Errno::ENOENT)
    }

    /// Remove a module.
    pub fn remove(&self, id: ModuleId) -> SysResult<Arc<RegisteredModule>> {
        self.modules.write().remove(&id).ok_or(Errno::ENOENT)
    }

    /// Remove a module only if `may_remove()` holds, evaluated *under the
    /// registry write lock*. Together with [`SmodRegistry::if_present`]
    /// (whose closure runs under the read lock) this closes the
    /// check-then-act window between "no sessions are active" and an
    /// in-flight session establishment: the establishment publishes its
    /// session while read-locked here, so this write-locked check either
    /// sees that session (and refuses with `EBUSY`) or excludes it until
    /// the removal is done (and the establishment's re-check then fails).
    pub fn remove_if(
        &self,
        id: ModuleId,
        may_remove: impl FnOnce() -> bool,
    ) -> SysResult<Arc<RegisteredModule>> {
        let mut modules = self.modules.write();
        if !modules.contains_key(&id) {
            return Err(Errno::ENOENT);
        }
        if !may_remove() {
            return Err(Errno::EBUSY);
        }
        modules.remove(&id).ok_or(Errno::ENOENT)
    }

    /// Run `f` while holding the registry read lock, provided `id` is
    /// (still) registered. See [`SmodRegistry::remove_if`] for the
    /// invariant this pair maintains.
    pub fn if_present<R>(&self, id: ModuleId, f: impl FnOnce() -> R) -> SysResult<R> {
        let modules = self.modules.read();
        if !modules.contains_key(&id) {
            return Err(Errno::ENOENT);
        }
        Ok(f())
    }

    /// Find a module by name and version (`sys_smod_find`).  A version of 0
    /// matches the highest registered version of that name.
    pub fn find(&self, name: &str, version: u32) -> SysResult<ModuleId> {
        let modules = self.modules.read();
        let mut best: Option<(u32, ModuleId)> = None;
        for m in modules.values() {
            if m.package.image.name != name {
                continue;
            }
            let v = m.package.image.version.0;
            if version == 0 {
                if best.map(|(bv, _)| v > bv).unwrap_or(true) {
                    best = Some((v, m.id));
                }
            } else if v == version {
                return Ok(m.id);
            }
        }
        best.map(|(_, id)| id).ok_or(Errno::ENOENT)
    }

    /// Number of registered modules.
    pub fn len(&self) -> usize {
        self.modules.read().len()
    }

    /// Is the registry empty?
    pub fn is_empty(&self) -> bool {
        self.modules.read().is_empty()
    }

    /// Snapshot of the registered modules (shared handles).
    pub fn snapshot(&self) -> Vec<Arc<RegisteredModule>> {
        self.modules.read().values().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use secmod_crypto::KeyStore;
    use secmod_module::builder::ModuleBuilder;
    use secmod_policy::{CacheConfig, PolicyEngine};

    fn registered(name: &str, version: u32, id: u32) -> RegisteredModule {
        let mut b = ModuleBuilder::new(name, version);
        b.add_function(secmod_module::builder::FunctionSpec::new("f", 8));
        let image = b.build(false).unwrap();
        let ks = KeyStore::new(b"test");
        let key = ks.generate("k", 16).unwrap();
        let pkg = SmodPackage::seal_unencrypted(&image, b"mac").unwrap();
        RegisteredModule::new(
            ModuleId(id),
            pkg,
            image,
            key,
            Gateway::new(PolicyEngine::new(), CacheConfig::default()),
            FunctionTable::new(),
            0,
        )
    }

    #[test]
    fn function_table_register_and_lookup() {
        let mut t = FunctionTable::new();
        assert!(t.is_empty());
        t.register(0, |_ctx, args| Ok(args.to_vec()));
        t.register(1, |_ctx, _args| Ok(vec![42]));
        assert_eq!(t.len(), 2);
        assert!(t.get(0).is_some());
        assert!(t.get(1).is_some());
        assert!(t.get(2).is_none());
    }

    #[test]
    fn registry_find_by_name_and_version() {
        let r = SmodRegistry::new();
        let id1 = r.allocate_id();
        let id2 = r.allocate_id();
        let id3 = r.allocate_id();
        assert_eq!(id1, ModuleId(1));
        let mut m1 = registered("libc", 1, 1);
        m1.id = id1;
        let mut m2 = registered("libc", 2, 2);
        m2.id = id2;
        let mut m3 = registered("libm", 1, 3);
        m3.id = id3;
        r.insert(m1);
        r.insert(m2);
        r.insert(m3);

        assert_eq!(r.len(), 3);
        assert_eq!(r.find("libc", 1).unwrap(), id1);
        assert_eq!(r.find("libc", 2).unwrap(), id2);
        // version 0 = latest
        assert_eq!(r.find("libc", 0).unwrap(), id2);
        assert_eq!(r.find("libm", 0).unwrap(), id3);
        assert_eq!(r.find("libc", 9).unwrap_err(), Errno::ENOENT);
        assert_eq!(r.find("libz", 0).unwrap_err(), Errno::ENOENT);

        assert!(r.get(id1).is_ok());
        r.remove(id1).unwrap();
        assert_eq!(r.get(id1).unwrap_err(), Errno::ENOENT);
        assert_eq!(r.remove(id1).unwrap_err(), Errno::ENOENT);
    }
}
