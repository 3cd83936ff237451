//! The one file that calls into the program.
//!
//! Every other file of the benchmark sees the program through the types
//! and functions here, so a change to the program's entry points (folding
//! `sys_smod_call_batch` into the sweep, one `Gateway::decide`, …) needs a
//! follow-up in this file only. The world is built from kernel syscalls
//! (`Kernel::with_gate_config`, `SmodPackage::seal`, `sys_smod_add`,
//! `sys_smod_start_session`), not from `secmod_gate::scenario` helpers,
//! which a later change is free to restructure.
//!
//! Nothing here records a span or reads a clock except the async task
//! body, whose sampled call latency cannot be taken from outside the task.

use crate::gen::{Op, OPERATIONS};
use crate::verify::{Completion, BAD_RET};
use secmod_async::{AsyncPlane, AsyncSession, Executor, JoinHandle};
use secmod_crypto::SelectiveEncryptor;
use secmod_kernel::dispatch::DispatchError;
use secmod_kernel::smod::{ModuleKeyDelivery, SmodCallArgs};
use secmod_kernel::smodreg::FunctionTable;
use secmod_kernel::{CostModel, Credential, DispatchPlane, Errno, Kernel, Pid, PlaneConfig};
use secmod_kernel::{PlaneHandle, PlaneStats};
use secmod_module::builder::{FunctionSpec, ModuleBuilder};
use secmod_module::{ModuleId, SmodPackage, StubTable};
use secmod_obs::Histogram;
use secmod_policy::{
    AccessRequest, Assertion, CacheConfig, DecisionTier, Gateway, LicenseeExpr, PolicyEngine,
    Principal,
};
use secmod_ring::{
    ArenaRegion, ArgArena, ArgRef, CompletionRing, Ring, RingPairConfig, RingSet, RingSlotId,
    SessionRings, SmodCallReq, SmodCallResp, SubmissionRing, MAGAZINE_DEPTH,
};
use std::sync::Arc;
use std::time::Instant;

const MODULE_NAME: &str = "libdispatch";
const MODULE_KEY: &[u8; 16] = b"0123456789abcdef";
const MODULE_NONCE: [u8; 8] = [9u8; 8];
const MAC_KEY: &[u8] = b"dispatch-mac-key";

/// Tenants the vendor delegates to: the policy's size, and so the cost of
/// an uncached decision, is the same in every workload.
pub const TENANTS: usize = 64;

fn completion(resp: SmodCallResp) -> Completion {
    Completion {
        user_data: resp.user_data,
        errno: resp.errno,
        ret: ret_value(resp.errno, resp.ret_bytes()),
    }
}

fn ret_value(errno: i32, bytes: &[u8]) -> u64 {
    match (errno, <[u8; 8]>::try_from(bytes)) {
        (0, Ok(b)) => u64::from_le_bytes(b),
        (0, Err(_)) => BAD_RET,
        _ => 0,
    }
}

// ---------------------------------------------------------------------
// World building, one function per stage so the caller can time each.
// ---------------------------------------------------------------------

/// A sealed module ready for `sys_smod_add`.
pub struct SealedModule {
    package: SmodPackage,
    functions: FunctionTable,
    func_ids: [u32; OPERATIONS],
}

/// Build the module image (operation 0 is `restricted`, the rest `opN`;
/// every body returns its 8-byte argument plus one) and seal it.
pub fn seal_module() -> SealedModule {
    let names: Vec<String> = std::iter::once("restricted".to_string())
        .chain((1..OPERATIONS).map(|o| format!("op{o}")))
        .collect();
    let mut builder = ModuleBuilder::new(MODULE_NAME, 1);
    for name in &names {
        builder.add_function(FunctionSpec::new(name, 64));
    }
    let image = builder.build(false).expect("build module image");
    let stubs = StubTable::generate(&image);
    let mut func_ids = [0u32; OPERATIONS];
    let mut functions = FunctionTable::new();
    for (slot, name) in func_ids.iter_mut().zip(&names) {
        *slot = stubs
            .by_name(name)
            .expect("stub for every operation")
            .func_id;
        functions.register(*slot, |_ctx, args| {
            let head = args.get(..8).ok_or(Errno::EINVAL)?;
            let v = u64::from_le_bytes(head.try_into().expect("eight bytes"));
            Ok((v + 1).to_le_bytes().to_vec())
        });
    }
    let enc = SelectiveEncryptor::new(MODULE_KEY, MODULE_NONCE).expect("module key");
    let package = SmodPackage::seal(&image, &enc, MAC_KEY).expect("seal module");
    SealedModule {
        package,
        functions,
        func_ids,
    }
}

fn tenant_key(t: usize, seed: u64) -> Vec<u8> {
    format!("tenant-key-{t}-{seed}").into_bytes()
}

/// The policy every workload runs under: root trusts the vendor for this
/// module; the vendor delegates to each of [`TENANTS`] tenants everything
/// but `restricted`. An uncached decision is a two-hop fixpoint.
pub fn build_policy(seed: u64) -> PolicyEngine {
    let vendor_key = format!("dispatch-vendor-key-{seed}");
    let vendor = Principal::from_key("vendor", vendor_key.as_bytes());
    let mut policy = PolicyEngine::new();
    policy.register_key(&vendor, vendor_key.as_bytes());
    policy
        .add_assertion(
            Assertion::policy(
                LicenseeExpr::Single(vendor.clone()),
                &format!("module == \"{MODULE_NAME}\""),
            )
            .expect("root assertion"),
        )
        .expect("add root assertion");
    for t in 0..TENANTS {
        let tenant = Principal::from_key("tenant", &tenant_key(t, seed));
        policy
            .add_assertion(
                Assertion::delegation(
                    vendor.clone(),
                    LicenseeExpr::Single(tenant),
                    "function != \"restricted\"",
                )
                .expect("delegation")
                .sign(vendor_key.as_bytes()),
            )
            .expect("add delegation");
    }
    policy
}

/// A connected client: its process and its established session.
#[derive(Clone, Copy, Debug)]
pub struct Client {
    pid: Pid,
    session: u32,
}

/// One kernel with one registered module and its connected clients.
pub struct World {
    kernel: Arc<Kernel>,
    module: ModuleId,
    func_ids: [u32; OPERATIONS],
    clients: Vec<Client>,
    /// A root process for the load thread's own sweeps to be charged to.
    sweeper: Pid,
    seed: u64,
}

fn spawn(kernel: &Kernel, name: &str, cred: Credential) -> Pid {
    kernel
        .spawn_process(name, cred, vec![0x90; 4096], 4, 4)
        .expect("spawn process")
}

/// A booted kernel with nothing registered yet.
pub struct Booted {
    kernel: Kernel,
    registrar: Pid,
}

/// Boot a kernel whose modules get the default decision cache.
pub fn boot() -> Booted {
    let kernel = Kernel::with_gate_config(CostModel::default(), CacheConfig::default());
    // The kernel's event log would serialise threads on its mutex and
    // grow without bound; the workloads measure dispatch, not logging.
    kernel.tracer.set_enabled(false);
    let registrar = spawn(&kernel, "registrar", Credential::root());
    Booted { kernel, registrar }
}

impl World {
    /// Register the module (`sys_smod_add`).
    pub fn register(
        booted: Booted,
        sealed: SealedModule,
        policy: PolicyEngine,
        seed: u64,
    ) -> World {
        let Booted { kernel, registrar } = booted;
        let module = kernel
            .sys_smod_add(
                registrar,
                sealed.package,
                ModuleKeyDelivery::Raw {
                    key: MODULE_KEY.to_vec(),
                    nonce: MODULE_NONCE,
                },
                MAC_KEY,
                policy,
                sealed.functions,
            )
            .expect("sys_smod_add");
        let sweeper = spawn(&kernel, "sweeper", Credential::root());
        World {
            kernel: Arc::new(kernel),
            module,
            func_ids: sealed.func_ids,
            clients: Vec::new(),
            sweeper,
            seed,
        }
    }

    fn establish(&self, pid: Pid) -> u32 {
        let (session, handle) = self
            .kernel
            .sys_smod_start_session(pid, self.module)
            .expect("sys_smod_start_session");
        self.kernel
            .sys_smod_session_info(handle)
            .expect("handle side of the handshake");
        self.kernel
            .sys_smod_handle_info(pid)
            .expect("client side of the handshake");
        session.0
    }

    /// Spawn the next tenant's client and establish its session
    /// (`sys_smod_start_session` plus both handshakes).
    pub fn connect(&mut self) {
        let t = self.clients.len();
        assert!(t < TENANTS, "every client needs its own delegation");
        let cred = Credential::user(1000 + t as u32, 100)
            .with_smod_credential(MODULE_NAME, &tenant_key(t, self.seed));
        let pid = spawn(&self.kernel, &format!("client{t}"), cred);
        let session = self.establish(pid);
        self.clients.push(Client { pid, session });
    }

    pub fn clients(&self) -> usize {
        self.clients.len()
    }

    /// One `sys_smod_call`, as the paper's Figure 8 SMOD row makes it.
    #[inline]
    pub fn call(&self, op: &Op) -> (i32, u64) {
        let outcome = self.kernel.sys_smod_call(
            self.clients[op.session as usize].pid,
            SmodCallArgs {
                m_id: self.module,
                func_id: self.func_ids[op.func as usize],
                frame_pointer: 0xBFFF_0000,
                return_address: 0x0000_1000,
                args: op.value.to_le_bytes().to_vec(),
            },
        );
        match outcome {
            Ok(bytes) => (0, ret_value(0, &bytes)),
            Err(e) => (e.code(), 0),
        }
    }

    /// `smod_detach`: tears the session down and bumps the kernel's
    /// invalidation epoch, which empties every decision tier.
    pub fn detach(&self, client: usize) {
        self.kernel
            .smod_detach(self.clients[client].pid, "benchmark churn")
            .expect("smod_detach");
    }

    /// Re-establish a detached client's session.
    pub fn reattach(&mut self, client: usize) {
        self.clients[client].session = self.establish(self.clients[client].pid);
    }

    /// The rings of a sweep: one pair per client, registered in a
    /// `RingSet` the load thread sweeps itself.
    pub fn sweep_set(&self, ring_capacity: usize) -> SweepSet {
        let set = RingSet::with_capacity(self.clients.len());
        let cfg = RingPairConfig {
            submission: ring_capacity,
            completion: ring_capacity,
        };
        let slots: Vec<RingSlotId> = self
            .clients
            .iter()
            .map(|c| {
                set.register(c.session, c.pid.0, cfg)
                    .expect("free ring slot")
            })
            .collect();
        let rings = slots
            .iter()
            .map(|&s| set.get(s).expect("registered slot"))
            .collect();
        SweepSet { set, slots, rings }
    }

    /// One `sys_smod_sweep` over every ready session. Returns entries
    /// drained.
    #[inline]
    pub fn sweep(&self, rings: &SweepSet, session_budget: usize) -> usize {
        self.kernel
            .sys_smod_sweep(self.sweeper, &rings.set, session_budget)
            .expect("sys_smod_sweep")
            .drained
    }

    /// Per-client ring pairs with an arena region each, for
    /// `sys_smod_call_batch`.
    pub fn arena_rings(
        &self,
        ring_capacity: usize,
        arena_bytes: usize,
        quota: usize,
    ) -> ArenaRings {
        let arena = ArgArena::with_metrics(arena_bytes, Arc::clone(&self.kernel.metrics.arena));
        let cfg = RingPairConfig {
            submission: ring_capacity,
            completion: ring_capacity,
        };
        let lanes = self
            .clients
            .iter()
            .map(|_| {
                let (sq, cq) = cfg.build();
                let region = ArenaRegion::with_magazine(Arc::clone(&arena), quota, MAGAZINE_DEPTH);
                ArenaLane { sq, cq, region }
            })
            .collect();
        ArenaRings { lanes }
    }

    /// One `sys_smod_call_batch` on one client's ring pair. Returns
    /// entries drained.
    #[inline]
    pub fn call_batch(&self, rings: &ArenaRings, client: usize, budget: usize) -> usize {
        let lane = &rings.lanes[client];
        self.kernel
            .sys_smod_call_batch(self.clients[client].pid, &lane.sq, &lane.cq, budget)
            .expect("sys_smod_call_batch")
            .drained
    }

    fn plane_config(ring_capacity: usize) -> PlaneConfig {
        PlaneConfig::builder()
            .drainers(1)
            .slots(TENANTS)
            .ring(RingPairConfig {
                submission: ring_capacity,
                completion: ring_capacity,
            })
            .pin_drainers(true)
            .build()
    }

    /// Start a `DispatchPlane` with one drainer, pinned to core 0.
    pub fn start_plane(&self, ring_capacity: usize) -> Plane {
        let inner =
            DispatchPlane::start(Arc::clone(&self.kernel), World::plane_config(ring_capacity))
                .expect("start dispatch plane");
        Plane { inner }
    }

    /// Start an `AsyncPlane` (one pinned drainer plus the reactor) and an
    /// executor with one worker thread.
    pub fn start_async(&self, ring_capacity: usize) -> AsyncWorld {
        let plane = AsyncPlane::start(Arc::clone(&self.kernel), World::plane_config(ring_capacity))
            .expect("start async plane");
        AsyncWorld {
            exec: Executor::new(1),
            plane,
        }
    }

    /// The program's own counters, as they stand.
    pub fn counters(&self) -> Counters {
        let m = &self.kernel.metrics;
        let cache = self
            .kernel
            .registry
            .get(self.module)
            .expect("module registered")
            .gateway
            .cache_stats();
        Counters {
            sim_ns: self.kernel.clock.now_ns(),
            epoch: self.kernel.smod_epoch(),
            gate_hits: m.gate_hits.get(),
            gate_misses: m.gate_misses.get(),
            shared_hits: cache.hits,
            evictions: cache.evictions,
            full_bounces: m.ring_full_bounces.get(),
            parks: m.drainer_parks.get(),
            unparks: m.drainer_unparks.get(),
            resubmits: m.async_resubmits.get(),
            arena_fallbacks: m.arena.alloc_fallbacks.get(),
            bytes_in_flight: m.arena.bytes_in_flight.get(),
        }
    }

    /// `Kernel::metrics_report`, the text an operator reads.
    pub fn metrics_report(&self) -> String {
        self.kernel.metrics_report()
    }
}

/// A snapshot of the program's public counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// `Kernel::clock`: simulated nanoseconds charged so far.
    pub sim_ns: u64,
    pub epoch: u64,
    /// Decisions served by the L0 or the sharded tier.
    pub gate_hits: u64,
    /// Decisions the policy engine evaluated.
    pub gate_misses: u64,
    /// Hits of the sharded tier alone (it only sees L0 misses).
    pub shared_hits: u64,
    pub evictions: u64,
    pub full_bounces: u64,
    pub parks: u64,
    pub unparks: u64,
    pub resubmits: u64,
    pub arena_fallbacks: u64,
    pub bytes_in_flight: u64,
}

// ---------------------------------------------------------------------
// Rung 3: rings swept inline by the load thread.
// ---------------------------------------------------------------------

pub struct SweepSet {
    set: RingSet,
    slots: Vec<RingSlotId>,
    rings: Vec<Arc<SessionRings>>,
}

impl SweepSet {
    /// Push one session's run of ops (SPSC) and flag the session ready
    /// once. `base` is the block position of `ops[0]`. Returns bounces.
    #[inline]
    pub fn fill(&self, world: &World, session: usize, ops: &[Op], base: usize) -> usize {
        let rings = &self.rings[session];
        let mut bounced = 0;
        for (i, op) in ops.iter().enumerate() {
            let req = SmodCallReq {
                session: rings.session,
                proc_id: world.func_ids[op.func as usize],
                user_data: (base + i) as u64,
                args: op.value.to_le_bytes().into(),
            };
            bounced += usize::from(rings.sq.push_spsc(req).is_err());
        }
        self.set.mark_ready(self.slots[session]);
        bounced
    }

    /// Pop every completion of one session into `out`.
    #[inline]
    pub fn reap(&self, session: usize, out: &mut Vec<Completion>) {
        while let Some(resp) = self.rings[session].cq.pop_spsc() {
            out.push(completion(resp));
        }
    }
}

// ---------------------------------------------------------------------
// Rung 2 plus the zero-copy path: per-session rings and arena regions.
// ---------------------------------------------------------------------

struct ArenaLane {
    sq: SubmissionRing,
    cq: CompletionRing,
    region: ArenaRegion,
}

pub struct ArenaRings {
    lanes: Vec<ArenaLane>,
}

impl ArenaRings {
    /// Place and push one session's run of ops. `payload` is scratch of at
    /// least the largest size; op `i` sends `sizes[i % sizes.len()]` bytes
    /// whose first eight are its value. Payloads above the inline limit go
    /// through `ArgRef::place` into the session's region. Returns bounces.
    #[inline]
    pub fn fill(
        &self,
        world: &World,
        session: usize,
        ops: &[Op],
        base: usize,
        sizes: &[usize],
        payload: &mut [u8],
    ) -> usize {
        let lane = &self.lanes[session];
        let mut bounced = 0;
        for (i, op) in ops.iter().enumerate() {
            let size = sizes[i % sizes.len()];
            payload[..8].copy_from_slice(&op.value.to_le_bytes());
            let req = SmodCallReq {
                session: world.clients[session].session,
                proc_id: world.func_ids[op.func as usize],
                user_data: (base + i) as u64,
                args: ArgRef::place(&payload[..size], Some(&lane.region)),
            };
            bounced += usize::from(lane.sq.push_spsc(req).is_err());
        }
        bounced
    }

    #[inline]
    pub fn reap(&self, session: usize, out: &mut Vec<Completion>) {
        while let Some(resp) = self.lanes[session].cq.pop_spsc() {
            out.push(completion(resp));
        }
    }
}

// ---------------------------------------------------------------------
// Rung 4: the dispatch plane.
// ---------------------------------------------------------------------

pub struct Plane {
    inner: DispatchPlane,
}

/// What the plane's drainers did, from `PlaneStats` at shutdown.
#[derive(Clone, Copy, Debug, Default)]
pub struct DrainerStats {
    pub sweeps: u64,
    pub productive_sweeps: u64,
    pub drained: u64,
}

impl From<PlaneStats> for DrainerStats {
    fn from(s: PlaneStats) -> Self {
        DrainerStats {
            sweeps: s.sweeps,
            productive_sweeps: s.productive_sweeps,
            drained: s.drained,
        }
    }
}

impl Plane {
    pub fn attach(&self, world: &World, client: usize) -> Handle {
        Handle {
            inner: self
                .inner
                .attach(world.clients[client].pid)
                .expect("attach to plane"),
        }
    }

    /// Stop and join the drainers.
    pub fn shutdown(self) -> DrainerStats {
        self.inner.shutdown().into()
    }
}

pub struct Handle {
    inner: PlaneHandle,
}

impl Handle {
    /// Push a run of ops through `SubmitBatch`, ringing the doorbell once
    /// per `per_doorbell` entries. Returns bounces (a bounced op is not
    /// retried: the sizing is wrong and the verifier will report it).
    #[inline]
    pub fn submit_run(&self, world: &World, ops: &[Op], base: usize, per_doorbell: usize) -> usize {
        let mut bounced = 0;
        let mut batch = self.inner.batch();
        for (i, op) in ops.iter().enumerate() {
            let pushed = batch.push(
                world.func_ids[op.func as usize],
                (base + i) as u64,
                op.value.to_le_bytes().to_vec(),
            );
            bounced += usize::from(pushed.is_err());
            if batch.pending() == per_doorbell {
                batch.flush();
            }
        }
        batch.flush();
        bounced
    }

    /// One `PlaneHandle::submit`: push, readiness bit, doorbell.
    #[inline]
    pub fn submit(&self, world: &World, op: &Op, user_data: u64) -> bool {
        self.inner
            .submit(
                world.func_ids[op.func as usize],
                user_data,
                op.value.to_le_bytes().to_vec(),
            )
            .is_ok()
    }

    #[inline]
    pub fn reap(&self) -> Option<Completion> {
        self.inner.reap().map(completion)
    }
}

// ---------------------------------------------------------------------
// Rung 5: the futures frontend.
// ---------------------------------------------------------------------

pub struct AsyncWorld {
    // Declared first so it drops first: the worker must stop polling
    // before the plane its tasks talk to goes away.
    exec: Executor,
    plane: AsyncPlane,
}

/// What one task observed: its completions in await order and the sampled
/// call latencies (ns).
pub struct TaskOutput {
    pub completions: Vec<Completion>,
    pub latencies_ns: Vec<u64>,
}

pub struct Task {
    inner: JoinHandle<TaskOutput>,
}

impl Task {
    /// Block until the task has awaited all its calls.
    pub fn join(self) -> TaskOutput {
        self.inner.join()
    }
}

#[derive(Clone)]
pub struct Session {
    inner: AsyncSession,
}

impl AsyncWorld {
    /// Attach a client's session (its own ring pair and routing table).
    pub fn attach(&self, world: &World, client: usize) -> Session {
        Session {
            inner: self
                .plane
                .attach(world.clients[client].pid)
                .expect("attach async session"),
        }
    }

    /// Spawn a task that awaits `ops` one at a time on `session`. `base`
    /// is the block position of `ops[0]`; every `sample_every`-th call is
    /// timed from before `call()` to after the await.
    pub fn spawn(
        &self,
        world: &World,
        session: &Session,
        ops: Vec<Op>,
        base: usize,
        sample_every: usize,
    ) -> Task {
        let session = session.inner.clone();
        let func_ids = world.func_ids;
        let inner = self.exec.spawn(async move {
            let mut out = TaskOutput {
                completions: Vec::with_capacity(ops.len()),
                latencies_ns: Vec::with_capacity(ops.len() / sample_every + 1),
            };
            for (i, op) in ops.iter().enumerate() {
                let timed = (i % sample_every == 0).then(Instant::now);
                let outcome = session
                    .call(func_ids[op.func as usize], op.value.to_le_bytes())
                    .await;
                if let Some(t) = timed {
                    out.latencies_ns.push(t.elapsed().as_nanos() as u64);
                }
                let (errno, ret) = match outcome {
                    Ok(bytes) => (0, ret_value(0, &bytes)),
                    Err(DispatchError::Errno(e)) => (e.code(), 0),
                    // Never a correct outcome on a live plane.
                    Err(DispatchError::Backpressure) => (-1, 0),
                    Err(DispatchError::Detached) => (-2, 0),
                };
                out.completions.push(Completion {
                    user_data: (base + i) as u64,
                    errno,
                    ret,
                });
            }
            out
        });
        Task { inner }
    }

    /// One awaited call driven on the calling thread (`block_on`).
    pub fn block_on_call(&self, world: &World, session: &Session, op: &Op) -> (i32, u64) {
        let fut = session
            .inner
            .call(world.func_ids[op.func as usize], op.value.to_le_bytes());
        match secmod_async::block_on(fut) {
            Ok(bytes) => (0, ret_value(0, &bytes)),
            Err(DispatchError::Errno(e)) => (e.code(), 0),
            Err(_) => (-1, 0),
        }
    }

    /// Completions the reactor has routed to wakers.
    pub fn routed(&self) -> u64 {
        self.plane.routed()
    }

    /// Stop the executor, then the plane and its reactor.
    pub fn shutdown(self) -> DrainerStats {
        drop(self.exec);
        self.plane.shutdown().into()
    }
}

// ---------------------------------------------------------------------
// Isolated layer probes.
// ---------------------------------------------------------------------

/// Which tier of the decision stack answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    L0,
    Sharded,
    Engine,
}

/// A `Gateway` of its own over the benchmark policy, for timing
/// `is_allowed_tiered` tier by tier.
pub struct DecisionProbe {
    gateway: Gateway,
    tenants: Vec<Principal>,
    operations: Vec<String>,
}

impl DecisionProbe {
    pub fn new(seed: u64, cache_enabled: bool) -> DecisionProbe {
        let config = if cache_enabled {
            CacheConfig::default()
        } else {
            CacheConfig::disabled()
        };
        DecisionProbe {
            gateway: Gateway::new(build_policy(seed), config),
            tenants: (0..TENANTS)
                .map(|t| Principal::from_key("tenant", &tenant_key(t, seed)))
                .collect(),
            operations: std::iter::once("restricted".to_string())
                .chain((1..OPERATIONS).map(|o| format!("op{o}")))
                .collect(),
        }
    }

    /// Keys the probe can ask about (tenant x operation).
    pub fn keys(&self) -> usize {
        self.tenants.len() * self.operations.len()
    }

    /// Decide key `k`. The allowed answer is known: everything but
    /// operation 0.
    #[inline]
    pub fn decide(&self, k: usize) -> (bool, Tier) {
        let tenant = k / self.operations.len() % self.tenants.len();
        let req = AccessRequest {
            requesters: std::slice::from_ref(&self.tenants[tenant]),
            app_domain: "client",
            module: MODULE_NAME,
            version: 1,
            operation: &self.operations[k % self.operations.len()],
            uid: 1000 + tenant as i64,
        };
        let (allowed, tier) = self.gateway.is_allowed_tiered(&req);
        let tier = match tier {
            DecisionTier::L0 => Tier::L0,
            DecisionTier::Shared => Tier::Sharded,
            DecisionTier::Engine => Tier::Engine,
        };
        (allowed, tier)
    }

    /// Whether key `k` must be allowed.
    pub fn expect_allowed(&self, k: usize) -> bool {
        !k.is_multiple_of(self.operations.len())
    }

    /// Empty the calling thread's L0 table.
    pub fn clear_l0() {
        secmod_policy::l0::clear_thread_cache();
    }
}

/// A bare ring of call requests, for the SPSC push+pop probe.
pub struct RingProbe {
    ring: Ring<SmodCallReq>,
}

impl RingProbe {
    pub fn new(capacity: usize) -> RingProbe {
        RingProbe {
            ring: Ring::with_capacity(capacity),
        }
    }

    /// Push one request and pop it again; returns the popped cookie.
    #[inline]
    pub fn push_pop(&self, user_data: u64) -> u64 {
        let req = SmodCallReq {
            session: 1,
            proc_id: 1,
            user_data,
            args: user_data.to_le_bytes().into(),
        };
        self.ring.push_spsc(req).expect("probe ring has room");
        self.ring.pop_spsc().expect("just pushed").user_data
    }
}

/// An arena region of its own, for the place+drop probe.
pub struct ArenaProbe {
    region: ArenaRegion,
}

impl ArenaProbe {
    pub fn new(arena_bytes: usize) -> ArenaProbe {
        let arena = ArgArena::with_capacity(arena_bytes);
        ArenaProbe {
            region: ArenaRegion::with_magazine(arena, arena_bytes, MAGAZINE_DEPTH),
        }
    }

    /// `ArgRef::place` then drop. Returns whether the payload landed in
    /// the arena (a fallback to the heap would time the wrong thing).
    #[inline]
    pub fn place_drop(&self, payload: &[u8]) -> bool {
        ArgRef::place(payload, Some(&self.region)).is_arena()
    }
}

/// A latency histogram of the observability layer.
pub struct HistogramProbe {
    hist: Histogram,
}

impl HistogramProbe {
    pub fn new() -> HistogramProbe {
        HistogramProbe {
            hist: Histogram::new(),
        }
    }

    #[inline]
    pub fn record(&self, v: u64) {
        self.hist.record(v);
    }

    pub fn count(&self) -> u64 {
        self.hist.count()
    }
}

impl Default for HistogramProbe {
    fn default() -> Self {
        HistogramProbe::new()
    }
}
