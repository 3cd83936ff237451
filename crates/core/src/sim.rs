//! The simulated backend: a complete SecModule deployment on top of the
//! `secmod-kernel` simulator.
//!
//! `SimWorld` plays the role of the machine: it boots a kernel, registers
//! modules (the toolchain + `sys_smod_add` path), spawns client processes,
//! runs the crt0-style session handshake on their behalf, and dispatches
//! calls through `sys_smod_call`.  Everything is deterministic, and the
//! kernel's simulated clock gives reproducible Figure 8-style timings.
//!
//! Concurrency: the underlying kernel is `&self` end to end, so once the
//! world is set up (modules installed, clients connected — the `&mut self`
//! methods), any number of threads may drive [`SimWorld::call`] /
//! [`SimWorld::native_getpid`] / [`SimWorld::peek`] / [`SimWorld::poke`]
//! concurrently through a shared `&SimWorld`. Which lock is held where: a
//! dispatch takes the kernel's process-map and session-map read locks just
//! long enough to clone handles, the per-call policy check is a lookup in
//! the module's sharded decision cache (engine read lock only on a miss),
//! and the body runs under the client/handle pair's two process mutexes —
//! so calls on different sessions proceed in parallel.

use crate::secure_module::SecureModule;
use crate::{Result, SmodError};
use secmod_kernel::smod::{SessionId, SmodCallArgs};
use secmod_kernel::{CostModel, Credential, Kernel, Pid};
use secmod_module::ModuleId;
use secmod_vm::Vaddr;
use std::collections::HashMap;
use std::sync::Arc;

/// A simulated machine running the SecModule framework.
pub struct SimWorld {
    /// The underlying kernel (public so tests and benches can inspect the
    /// clock, the tracer, processes and sessions directly, and shared so a
    /// [`secmod_kernel::plane::DispatchPlane`] can start on it).
    pub kernel: Arc<Kernel>,
    registrar: Pid,
    /// Installed modules by name.
    modules: HashMap<String, ModuleId>,
    /// Stub lookup per module id (symbol → func id).
    stubs: HashMap<ModuleId, HashMap<String, u32>>,
    /// Which module each client is connected to.
    client_modules: HashMap<Pid, ModuleId>,
}

impl std::fmt::Debug for SimWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimWorld")
            .field("modules", &self.modules.len())
            .field("kernel", &self.kernel)
            .finish()
    }
}

impl Default for SimWorld {
    fn default() -> Self {
        Self::new()
    }
}

impl SimWorld {
    /// Boot a world with the default (paper-calibrated) cost model.
    pub fn new() -> SimWorld {
        let kernel = Kernel::new(CostModel::default());
        let registrar = kernel
            .spawn_process("smod-registrar", Credential::root(), vec![0x90; 4096], 2, 2)
            .expect("registrar process");
        SimWorld {
            kernel: Arc::new(kernel),
            registrar,
            modules: HashMap::new(),
            stubs: HashMap::new(),
            client_modules: HashMap::new(),
        }
    }

    /// Register a [`SecureModule`] with the kernel (`sys_smod_add`).
    pub fn install(&mut self, module: &SecureModule) -> Result<ModuleId> {
        let id = self.kernel.sys_smod_add(
            self.registrar,
            module.package.clone(),
            module.key_delivery(),
            &module.mac_key,
            module.policy.clone(),
            module.function_table(),
        )?;
        self.modules.insert(module.name.clone(), id);
        let map = module
            .stub_table
            .stubs
            .iter()
            .map(|s| (s.symbol.clone(), s.func_id))
            .collect();
        self.stubs.insert(id, map);
        Ok(id)
    }

    // surface: the registrar's sys_smod_remove, which ends a module's life; only tests reach it
    /// Remove a module (`sys_smod_remove`, performed by the registrar).
    pub fn uninstall(&mut self, name: &str) -> Result<()> {
        let id = *self
            .modules
            .get(name)
            .ok_or_else(|| SmodError::UnknownFunction(name.to_string()))?;
        self.kernel.sys_smod_remove(self.registrar, id)?;
        self.modules.remove(name);
        self.stubs.remove(&id);
        Ok(())
    }

    /// The module id registered under `name`, if any.
    pub fn module_id(&self, name: &str) -> Option<ModuleId> {
        self.modules.get(name).copied()
    }

    /// Spawn a client process with the given credentials.
    pub fn spawn_client(&mut self, name: &str, cred: Credential) -> Result<Pid> {
        Ok(self
            .kernel
            .spawn_process(name, cred, vec![0x90; 4096], 8, 4)?)
    }

    /// The crt0 sequence of Figure 1 steps (1)–(4): find the module, start a
    /// session (which creates the handle), let the handle report in
    /// (`smod_session_info`, forcing the address-space share), and conclude
    /// with `smod_handle_info`.
    pub fn connect(&mut self, client: Pid, module_name: &str, version: u32) -> Result<SessionId> {
        let m_id = self.kernel.sys_smod_find(client, module_name, version)?;
        let (session, handle) = self.kernel.sys_smod_start_session(client, m_id)?;
        self.kernel.sys_smod_session_info(handle)?;
        self.kernel.sys_smod_handle_info(client)?;
        self.client_modules.insert(client, m_id);
        Ok(session)
    }

    /// Dispatch a call through `sys_smod_call` by symbol name. Takes
    /// `&self`: safe to drive from many threads at once.
    pub fn call(&self, client: Pid, symbol: &str, args: &[u8]) -> Result<Vec<u8>> {
        let m_id = *self
            .client_modules
            .get(&client)
            .ok_or(SmodError::NoSession)?;
        let func_id = *self
            .stubs
            .get(&m_id)
            .and_then(|m| m.get(symbol))
            .ok_or_else(|| SmodError::UnknownFunction(symbol.to_string()))?;
        Ok(self.kernel.sys_smod_call(
            client,
            SmodCallArgs {
                m_id,
                func_id,
                frame_pointer: 0xBFFF_0000,
                return_address: 0x0000_1000,
                args: args.to_vec(),
            },
        )?)
    }

    /// Native (non-SecModule) `getpid()` for the baseline measurement.
    pub fn native_getpid(&self, client: Pid) -> Result<Pid> {
        Ok(self.kernel.sys_getpid(client)?)
    }

    /// Write into a client's memory (test/workload convenience).
    pub fn poke(&self, client: Pid, addr: Vaddr, data: &[u8]) -> Result<()> {
        Ok(self.kernel.write_user_memory(client, addr, data)?)
    }

    /// Read from a client's memory.
    pub fn peek(&self, client: Pid, addr: Vaddr, len: usize) -> Result<Vec<u8>> {
        Ok(self.kernel.read_user_memory(client, addr, len)?)
    }

    /// The base of the client heap (a convenient place for workloads to put
    /// shared data).
    pub fn heap_base(&self) -> Vaddr {
        Vaddr(self.kernel.layout.data_base)
    }

    /// Elapsed simulated nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.kernel.clock.now_ns()
    }

    /// Measure the simulated time of `f` in nanoseconds.
    pub fn measure<T>(&self, f: impl FnOnce(&SimWorld) -> T) -> (T, u64) {
        let start = self.now_ns();
        let value = f(self);
        (value, self.now_ns() - start)
    }

    /// `fork()` a connected client the SecModule way: the child gets its own
    /// handle and session (§4.3).
    pub fn fork_client(&mut self, client: Pid) -> Result<Pid> {
        let (child, _session, _handle) = self.kernel.sys_smod_fork(client)?;
        let m_id = *self
            .client_modules
            .get(&client)
            .ok_or(SmodError::NoSession)?;
        self.client_modules.insert(child, m_id);
        Ok(child)
    }

    // surface: a client's detach, which ends a session's life; only tests reach it
    /// Disconnect a client (kills its handle, removes the session).
    pub fn disconnect(&mut self, client: Pid) -> Result<()> {
        self.kernel.smod_detach(client, "client disconnect")?;
        self.client_modules.remove(&client);
        Ok(())
    }

    /// Resolve a connected client's `symbol` to the func id the ring
    /// entries and the async frontend name functions by.
    pub fn func_id(&self, client: Pid, symbol: &str) -> Result<u32> {
        let m_id = *self
            .client_modules
            .get(&client)
            .ok_or(SmodError::NoSession)?;
        self.stubs
            .get(&m_id)
            .and_then(|m| m.get(symbol))
            .copied()
            .ok_or_else(|| SmodError::UnknownFunction(symbol.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::secure_module::SecureModuleBuilder;
    use secmod_async::SimDriver;
    use secmod_ring::{RingPairConfig, SmodCallReq};

    const KEY: &[u8] = b"alice-key";

    fn demo_module() -> SecureModule {
        SecureModuleBuilder::new("libdemo", 1)
            .function("incr", |_ctx, args| {
                let v = u64::from_le_bytes(args[..8].try_into().unwrap());
                Ok((v + 1).to_le_bytes().to_vec())
            })
            .function("peek_heap", |ctx, args| {
                let addr = u64::from_le_bytes(args[..8].try_into().unwrap());
                let len = u64::from_le_bytes(args[8..16].try_into().unwrap()) as usize;
                ctx.read(Vaddr(addr), len)
            })
            .allow_credential(KEY)
            .build()
            .unwrap()
    }

    fn connected_world() -> (SimWorld, Pid) {
        let mut world = SimWorld::new();
        world.install(&demo_module()).unwrap();
        let client = world
            .spawn_client(
                "app",
                Credential::user(1000, 100).with_smod_credential("libdemo", KEY),
            )
            .unwrap();
        world.connect(client, "libdemo", 0).unwrap();
        (world, client)
    }

    #[test]
    fn install_connect_call() {
        let (world, client) = connected_world();
        assert!(world.module_id("libdemo").is_some());
        let reply = world.call(client, "incr", &41u64.to_le_bytes()).unwrap();
        assert_eq!(u64::from_le_bytes(reply.try_into().unwrap()), 42);
    }

    #[test]
    fn async_driver_agrees_with_sequential_calls() {
        let (world, client) = connected_world();
        let incr = world.func_id(client, "incr").unwrap();
        let driver = SimDriver::new(&world.kernel, 4, RingPairConfig::default(), 8).unwrap();
        let session = driver.attach(client).unwrap();
        let futures: Vec<_> = (0..10u64)
            .map(|i| {
                let session = session.clone();
                async move { session.call(incr, i.to_le_bytes()).await }
            })
            .collect();
        let outcomes = driver.run(futures);
        for (i, outcome) in outcomes.into_iter().enumerate() {
            let expected = world
                .call(client, "incr", &(i as u64).to_le_bytes())
                .unwrap();
            assert_eq!(outcome.unwrap(), expected);
        }
    }

    #[test]
    fn handle_reads_client_heap_through_shared_pages() {
        let (world, client) = connected_world();
        let addr = world.heap_base();
        world.poke(client, addr, b"shared secret").unwrap();
        let mut args = addr.0.to_le_bytes().to_vec();
        args.extend_from_slice(&13u64.to_le_bytes());
        let reply = world.call(client, "peek_heap", &args).unwrap();
        assert_eq!(reply, b"shared secret");
    }

    #[test]
    fn unknown_symbol_and_missing_session_errors() {
        let (mut world, client) = connected_world();
        assert!(matches!(
            world.call(client, "nonexistent", &[]),
            Err(SmodError::UnknownFunction(_))
        ));
        let loner = world.spawn_client("loner", Credential::user(1, 1)).unwrap();
        assert!(matches!(
            world.call(loner, "incr", &[]),
            Err(SmodError::NoSession)
        ));
    }

    #[test]
    fn credential_gate_applies() {
        let mut world = SimWorld::new();
        world.install(&demo_module()).unwrap();
        let intruder = world
            .spawn_client("intruder", Credential::user(2000, 2000))
            .unwrap();
        assert!(world.connect(intruder, "libdemo", 0).is_err());
    }

    #[test]
    fn fork_and_disconnect() {
        let (mut world, client) = connected_world();
        let child = world.fork_client(client).unwrap();
        let r = world.call(child, "incr", &9u64.to_le_bytes()).unwrap();
        assert_eq!(u64::from_le_bytes(r.try_into().unwrap()), 10);
        world.disconnect(client).unwrap();
        assert!(world.call(client, "incr", &0u64.to_le_bytes()).is_err());
        // The child's session is independent and still works.
        let r = world.call(child, "incr", &1u64.to_le_bytes()).unwrap();
        assert_eq!(u64::from_le_bytes(r.try_into().unwrap()), 2);
    }

    #[test]
    fn uninstall_requires_no_sessions() {
        let (mut world, client) = connected_world();
        assert!(world.uninstall("libdemo").is_err());
        world.disconnect(client).unwrap();
        world.uninstall("libdemo").unwrap();
        assert!(world.module_id("libdemo").is_none());
    }

    /// One `SmodCallReq` per argument block, in order, for `client`'s
    /// session.
    fn incr_reqs<'a>(
        world: &'a SimWorld,
        client: Pid,
        args: &'a [Vec<u8>],
    ) -> impl Iterator<Item = SmodCallReq> + 'a {
        let session = world.kernel.session_of(client).unwrap().id.0;
        let proc_id = world.func_id(client, "incr").unwrap();
        args.iter().enumerate().map(move |(i, a)| SmodCallReq {
            session,
            proc_id,
            user_data: i as u64,
            args: a.as_slice().into(),
        })
    }

    /// Every completion, in order, is `incr` of its argument block.
    fn assert_incremented(cq: &secmod_ring::CompletionRing, n: u64) {
        for i in 0..n {
            let resp = cq.pop_spsc().expect("one completion per entry");
            assert_eq!(resp.user_data, i);
            assert!(resp.is_ok());
            assert_eq!(
                u64::from_le_bytes(resp.into_ret().try_into().unwrap()),
                i + 1
            );
        }
        assert!(cq.pop_spsc().is_none());
    }

    #[test]
    fn call_batch_matches_sequential_calls_at_lower_cost() {
        let (world, client) = connected_world();
        let args: Vec<Vec<u8>> = (0..32u64).map(|i| i.to_le_bytes().to_vec()).collect();

        let (_, sequential_ns) = world.measure(|w| {
            for a in &args {
                w.call(client, "incr", a).unwrap();
            }
        });
        let (sq, cq) = RingPairConfig {
            submission: 32,
            completion: 32,
        }
        .build();
        for req in incr_reqs(&world, client, &args) {
            sq.push_spsc(req).unwrap();
        }
        let (report, batched_ns) =
            world.measure(|w| w.kernel.sys_smod_call_batch(client, &sq, &cq, 32).unwrap());
        assert_eq!(report.completed, 32);
        assert_incremented(&cq, 32);
        assert!(
            batched_ns < sequential_ns,
            "batched {batched_ns} ns not cheaper than sequential {sequential_ns} ns"
        );
        assert!(matches!(
            world.func_id(client, "nope"),
            Err(SmodError::UnknownFunction(_))
        ));
    }

    #[test]
    fn call_sweep_matches_per_client_batches_at_lower_cost() {
        // Three connected clients, one batch each: the sweep answers
        // exactly what per-client batched drains answer, in order, and
        // costs less on the simulated clock (one trap instead of three).
        let mut world = SimWorld::new();
        world.install(&demo_module()).unwrap();
        let clients: Vec<Pid> = (0..3)
            .map(|i| {
                let c = world
                    .spawn_client(
                        &format!("app{i}"),
                        Credential::user(1000, 100).with_smod_credential("libdemo", KEY),
                    )
                    .unwrap();
                world.connect(c, "libdemo", 0).unwrap();
                c
            })
            .collect();
        let args: Vec<Vec<u8>> = (0..16u64).map(|i| i.to_le_bytes().to_vec()).collect();
        let ring = RingPairConfig {
            submission: 16,
            completion: 16,
        };
        let set = secmod_ring::RingSet::with_capacity(clients.len());
        let slots: Vec<_> = clients
            .iter()
            .map(|&c| {
                let session = world.kernel.session_of(c).unwrap().id.0;
                set.register(session, c.0, ring).unwrap()
            })
            .collect();

        let (_, batched_ns) = world.measure(|w| {
            for (&c, &slot) in clients.iter().zip(&slots) {
                let rings = set.get(slot).unwrap();
                for req in incr_reqs(w, c, &args) {
                    rings.sq.push_spsc(req).unwrap();
                }
                w.kernel
                    .sys_smod_call_batch(c, &rings.sq, &rings.cq, 16)
                    .unwrap();
                assert_incremented(&rings.cq, 16);
            }
        });
        let (report, sweep_ns) = world.measure(|w| {
            for (&c, &slot) in clients.iter().zip(&slots) {
                for req in incr_reqs(w, c, &args) {
                    set.submit(slot, req).unwrap();
                }
            }
            w.kernel.sys_smod_sweep(w.registrar, &set, 16).unwrap()
        });
        assert_eq!((report.sessions_swept, report.completed), (3, 48));
        for &slot in &slots {
            assert_incremented(&set.get(slot).unwrap().cq, 16);
        }
        assert!(
            sweep_ns < batched_ns,
            "sweep {sweep_ns} ns not cheaper than per-client batches {batched_ns} ns"
        );
    }

    #[test]
    fn simulated_time_advances_per_call() {
        let (world, client) = connected_world();
        let (_, smod_ns) = world.measure(|w| w.call(client, "incr", &1u64.to_le_bytes()).unwrap());
        let (_, getpid_ns) = world.measure(|w| w.native_getpid(client).unwrap());
        assert!(smod_ns > getpid_ns);
        let ratio = smod_ns as f64 / getpid_ns as f64;
        assert!(ratio > 5.0, "smod/getpid ratio {ratio}");
    }
}
