//! The workload scenario engine: one table of traffic shapes, one runner.
//!
//! Modelled on actor-based access-control evaluation frameworks (Garrison
//! & Lee): a workload is a set of *actors* — producers, a churn actor, a
//! stall antagonist, a crashing drainer — composed over one simulation
//! loop, not a program per workload. The private `SCENARIOS` table holds
//! one row per [`ScenarioKind`]: its name and one-line summary
//! ([`ScenarioKind::name`], [`ScenarioKind::summary`] — the only place the
//! shapes are described; `gate_report` prints its key from them), the
//! frontend its producers drive, its topology, its traffic, its fault
//! actor, the row whose allow/deny split it must reproduce, and its
//! post-run checks. [`run_scenario`] resolves the row once, builds its
//! world, spawns its actors in one `thread::scope`, takes their counters
//! from the join handles, shuts down, runs the row's checks and assembles
//! the [`ScenarioReport`].
//!
//! All randomness comes from per-producer `SmallRng` streams seeded from
//! `ScenarioConfig::seed`, so the request sequence — and therefore the
//! allow/deny totals — is exactly reproducible no matter how threads
//! interleave (the cache is coherent, so caching cannot change answers;
//! only the hit counters are timing-dependent). Every kernel-backed row
//! draws its operations the same way (one draw per submission, none while
//! a bounced request is pending), which is why a row that only reshuffles
//! *when and by whom* work is drained reproduces another row's split bit
//! for bit.

use crate::cache::{mix64, CacheConfig, CacheStats};
use crate::gateway::{AccessRequest, Gateway};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use secmod_async::{AsyncPlane, Executor};
use secmod_kernel::dispatch::DispatchError;
use secmod_kernel::smod::SmodCallArgs;
use secmod_kernel::smodreg::FunctionTable;
use secmod_kernel::{
    Credential, DispatchPlane, Errno, Kernel, Pid, PlaneConfig, PlaneHandle, PlaneStats,
    SubmitBatch,
};
use secmod_module::builder::{FunctionSpec, ModuleBuilder};
use secmod_module::{ModuleId, SmodPackage, StubTable};
use secmod_obs::{Flavor, LatencySummary};
use secmod_policy::{Assertion, LicenseeExpr, PolicyEngine, Principal};
use secmod_qos::{QosPolicy, SweepScheduler, TenantId, TenantLane, TenantSpec};
use secmod_ring::{
    CompletionRing, RingPairConfig, SmodCallReq, SmodCallResp, SubmissionRing, SubmitError,
    SMOD_BATCH_DEFAULT_BUDGET,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The traffic shapes the engine can generate — one row of the scenario
/// table each; [`ScenarioKind::summary`] says what a row does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScenarioKind {
    /// Uniform tenant/module/operation draws against a gateway.
    Uniform,
    /// Zipf-skewed tenant popularity (hot keys).
    ZipfianHotKey,
    /// Every request is a brand-new cache key.
    AdversarialThrash,
    /// Uniform traffic plus kernel sessions detaching mid-stream.
    Churn,
    /// Concurrent `sys_smod_call` dispatch through one shared kernel.
    KernelDispatch,
    /// Kernel dispatch with sessions ≫ threads, round-robined per worker.
    SessionPool,
    /// Batched dispatch: per-session ring pairs drained by
    /// `sys_smod_call_batch` callers.
    RingDispatch,
    /// Dispatch plane: producers never trap, dedicated drainers sweep.
    PlaneDispatch,
    /// Async frontend: logical clients (≫ threads) awaiting calls.
    AsyncDispatch,
    /// Plane dispatch under a stall antagonist (fault injection).
    DrainerStall,
    /// Plane dispatch with every fourth payload a 64 KiB arena block.
    ArenaMix,
    /// Weighted-fair QoS plane: a one-slot victim tenant versus a
    /// flooding adversary tenant.
    MultiTenant,
    /// Plane-attachment and kernel-session churn mid-traffic.
    ChurnStorm,
    /// Thundering-herd session establishment from a barrier.
    HerdEstablish,
    /// Drainer death and supervised recovery on the QoS plane.
    DrainerCrash,
}

/// Which entry point a row's producers drive.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Frontend {
    /// A free-standing [`Gateway`]: one `is_allowed` per request, no
    /// kernel.
    Gateway,
    /// One `sys_smod_call` trap per request, so every per-call check goes
    /// through the module's *embedded* gateway (the decision cache inside
    /// the kernel dispatch path).
    Syscall,
    /// A raw ring pair per producer; `max(1, threads / 2)` drainer
    /// threads trap into `sys_smod_call_batch`, which resolves session,
    /// credential and gateway once per batch.
    Rings,
    /// Slots on one shared `DispatchPlane`: producers interact with the
    /// kernel only through memory (ring pushes and readiness bits) and
    /// the plane's drainers resolve each ready session once per sweep.
    Plane,
    /// `logical_clients` tasks awaiting calls on an [`AsyncPlane`],
    /// polled by `threads` executor workers: suspension replaces
    /// blocking, so a handful of OS threads multiplex the population.
    Async,
}

impl Frontend {
    /// The dispatch flavor whose latency histogram the frontend fills.
    fn flavor(self) -> Option<Flavor> {
        match self {
            Frontend::Gateway => None,
            Frontend::Syscall => Some(Flavor::Syscall),
            Frontend::Rings => Some(Flavor::Batch),
            Frontend::Plane => Some(Flavor::Plane),
            Frontend::Async => Some(Flavor::Async),
        }
    }
}

/// Sessions each producer drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Sessions {
    /// This many established sessions of its own.
    Own(usize),
    /// The whole `tenants`-sized pool, shared: consecutive requests from
    /// one producer land on *different* sessions, so the session-table
    /// shards (and per-process locks) feel honest multi-tenant pressure.
    Pool,
}

/// How a row's plane slots are split between QoS tenants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Tenancy {
    /// One slot per session, no QoS policy.
    Flat,
    /// Producer 0 is the victim tenant with one slot; every other
    /// producer floods [`ADVERSARY_HANDLES`] slots for the adversary
    /// tenant with the *same* request stream a plain producer would
    /// issue. Weighted-fair sweeps at equal weights: the victim's fair
    /// share of drain service is 50%, where naive bitmap-order sweeping
    /// would give it `1 / (1 + 4(n - 1))`.
    VictimVsFlood,
}

/// How a gateway row draws its cache key. Kernel-backed rows only ever
/// draw the operation (uniformly — the session fixes tenant and module),
/// so the deterministic slice aimed at `"restricted"` is denied.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Draw {
    /// Tenant, module and operation all uniform.
    Uniform,
    /// Zipf-ranked tenant on its home module.
    Zipf,
    /// Uniform tenant on its home module under a uid no request reuses:
    /// every lookup misses and every insert is wasted work.
    FreshUid,
}

/// The actor a row adds to its producers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Fault {
    /// None: producers only.
    None,
    /// A churn actor attaches and detaches real kernel sessions; every
    /// detach bumps `Kernel::smod_epoch`, which the actor folds into the
    /// gateway, invalidating the cache under the workers' feet.
    Churn,
    /// A stall antagonist repeatedly claims the ring set's readiness bits
    /// and drain-exclusivity flags and sleeps on them without draining:
    /// the real drainers bounce, queued entries age, and only the *tail*
    /// of the latency distribution moves — which is exactly what the
    /// per-flavor histograms exist to expose.
    Stall,
    /// Every session is torn down before the clock starts; all producers
    /// re-handshake theirs simultaneously from one barrier.
    Herd,
    /// Every [`STORM_REHANDSHAKE_EVERY`] bursts a producer cycles its
    /// whole kernel session — `smod_detach` (bumping the invalidation
    /// epoch under the other producers' cache entries) and a full
    /// re-handshake — so epoch churn lands mid-traffic.
    Storm,
    /// Drainer 0 carries the crash drill ([`PlaneConfig::crash`]): it
    /// claims ready slots exactly like a real sweep and dies holding
    /// them. Its exit guard must reclaim the stranded claims and respawn
    /// the seat, all mid-traffic, even when it is the plane's only
    /// drainer.
    Crash,
}

/// A post-run check a row owes; `verify` spells each one out. (The
/// exactly-once check every ring-shaped row shares lives in `drive`.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Check {
    /// Arena bytes in flight are back to exactly zero.
    ArenaSettled,
    /// The victim tenant held at least half its fair share of drain
    /// service, every entry shows in a tenant lane, the plane stayed clean.
    VictimKeepsShare,
    /// The invalidation epoch moved for every session a producer cycled.
    EpochChurned,
    /// The crash fired, the seat was respawned, its claims were reclaimed,
    /// and the kernel's bounce counter matches the producers' own.
    CrashRecovered,
}

/// One row of the scenario table.
#[derive(Clone, Copy, Debug)]
struct Row {
    kind: ScenarioKind,
    /// Short name used in reports and CLI arguments.
    name: &'static str,
    /// What the row does, in one line.
    summary: &'static str,
    frontend: Frontend,
    // Topology.
    sessions: Sessions,
    tenancy: Tenancy,
    // Traffic.
    draw: Draw,
    /// Every fourth payload is a 64 KiB block (value in the first 8
    /// bytes) that must travel by arena descriptor; the rest stay inline.
    arena_mix: bool,
    /// Producers honour `ScenarioConfig::submit_batch` (entries per
    /// doorbell); other rows ring once per entry.
    coalesce: bool,
    /// Producers split their ops into this many bursts, attaching fresh
    /// plane slots per burst and dropping them (the slots deregister)
    /// once the burst is fully reaped.
    bursts: u64,
    fault: Fault,
    /// The row whose allow/deny split this one reproduces bit for bit.
    split_of: Option<ScenarioKind>,
    checks: &'static [Check],
}

/// The victim tenant of [`Tenancy::VictimVsFlood`].
const VICTIM_TENANT: u32 = 0;
/// The adversary tenant of [`Tenancy::VictimVsFlood`].
const ADVERSARY_TENANT: u32 = 1;
/// Slots each adversary producer floods (same client, so same decisions).
const ADVERSARY_HANDLES: usize = 4;
/// Sessions each producer re-handshakes from the herd barrier.
const HERD_SESSIONS: usize = 4;
/// Submission bursts per producer in the churn storm.
const STORM_BURSTS: u64 = 8;
/// The storm cycles the whole kernel session every this-many bursts.
const STORM_REHANDSHAKE_EVERY: u64 = 2;
/// Zipf exponent of the hot-key row (≈1.1 is web-like).
const ZIPF_EXPONENT: f64 = 1.1;

/// A plain gateway row; every row below states only where it differs.
const BASE: Row = Row {
    kind: ScenarioKind::Uniform,
    name: "",
    summary: "",
    frontend: Frontend::Gateway,
    sessions: Sessions::Own(1),
    tenancy: Tenancy::Flat,
    draw: Draw::Uniform,
    arena_mix: false,
    coalesce: false,
    bursts: 1,
    fault: Fault::None,
    split_of: None,
    checks: &[],
};

/// A variant of the plane row: same frontend, same split.
const ON_PLANE: Row = Row {
    frontend: Frontend::Plane,
    split_of: Some(ScenarioKind::PlaneDispatch),
    ..BASE
};

/// The scenario table, in report order.
const SCENARIOS: [Row; 15] = [
    Row {
        kind: ScenarioKind::Uniform,
        name: "uniform",
        summary: "every tenant/module/operation equally likely: steady-state reuse under eviction",
        ..BASE
    },
    Row {
        kind: ScenarioKind::ZipfianHotKey,
        name: "zipfian",
        summary: "Zipf-skewed hot tenants: the multi-tenant skew a decision cache exists for",
        draw: Draw::Zipf,
        ..BASE
    },
    Row {
        kind: ScenarioKind::AdversarialThrash,
        name: "thrash",
        summary: "a fresh uid per request: no key repeats, hit rate pinned at 0, pure overhead",
        draw: Draw::FreshUid,
        ..BASE
    },
    Row {
        kind: ScenarioKind::Churn,
        name: "churn",
        summary: "uniform, while a churn actor detaches real kernel sessions (epoch bumps)",
        fault: Fault::Churn,
        split_of: Some(ScenarioKind::Uniform),
        ..BASE
    },
    Row {
        kind: ScenarioKind::KernelDispatch,
        name: "kernel",
        summary: "N threads, one pinned session each, sys_smod_call through the embedded gateway",
        frontend: Frontend::Syscall,
        ..BASE
    },
    Row {
        kind: ScenarioKind::SessionPool,
        name: "pool",
        summary: "kernel with sessions >> threads: each worker round-robins the whole tenant pool",
        frontend: Frontend::Syscall,
        sessions: Sessions::Pool,
        split_of: Some(ScenarioKind::KernelDispatch),
        ..BASE
    },
    Row {
        kind: ScenarioKind::RingDispatch,
        name: "ring",
        summary: "producers fill ring pairs; threads/2 drainers batch via sys_smod_call_batch",
        frontend: Frontend::Rings,
        split_of: Some(ScenarioKind::KernelDispatch),
        ..BASE
    },
    Row {
        kind: ScenarioKind::PlaneDispatch,
        name: "plane",
        summary: "producers attach to one DispatchPlane and never trap; its drainers sweep",
        coalesce: true,
        split_of: Some(ScenarioKind::KernelDispatch),
        checks: &[Check::ArenaSettled],
        ..ON_PLANE
    },
    Row {
        kind: ScenarioKind::AsyncDispatch,
        name: "async",
        summary: "logical clients >> threads: tasks await calls on an AsyncPlane; drainers route",
        frontend: Frontend::Async,
        ..BASE
    },
    Row {
        kind: ScenarioKind::DrainerStall,
        name: "stall",
        summary: "plane + an antagonist sitting on claimed readiness bits: only the tail stretches",
        coalesce: true,
        fault: Fault::Stall,
        checks: &[Check::ArenaSettled],
        ..ON_PLANE
    },
    Row {
        kind: ScenarioKind::ArenaMix,
        name: "arena",
        summary: "plane, every 4th payload a 64 KiB ArgArena block; settles to 0 bytes in flight",
        arena_mix: true,
        coalesce: true,
        checks: &[Check::ArenaSettled],
        ..ON_PLANE
    },
    Row {
        kind: ScenarioKind::MultiTenant,
        name: "multitenant",
        summary: "1-slot victim tenant vs 4-slot flooders, weighted-fair: victim keeps >= 25%",
        tenancy: Tenancy::VictimVsFlood,
        checks: &[Check::VictimKeepsShare],
        ..ON_PLANE
    },
    Row {
        kind: ScenarioKind::ChurnStorm,
        name: "churnstorm",
        summary: "plane in bursts: slot dropped per burst, session re-handshaken every 2nd",
        bursts: STORM_BURSTS,
        fault: Fault::Storm,
        checks: &[Check::EpochChurned],
        ..ON_PLANE
    },
    Row {
        kind: ScenarioKind::HerdEstablish,
        name: "herd",
        summary: "all sessions detached, then 4 per producer re-established from one barrier",
        sessions: Sessions::Own(HERD_SESSIONS),
        fault: Fault::Herd,
        ..ON_PLANE
    },
    Row {
        kind: ScenarioKind::DrainerCrash,
        name: "crash",
        summary: "drainer 0 dies holding claims; its exit guard reclaims, respawns; exactly-once",
        fault: Fault::Crash,
        checks: &[Check::CrashRecovered],
        ..ON_PLANE
    },
];

impl ScenarioKind {
    /// Every scenario, in report order.
    pub const ALL: [ScenarioKind; SCENARIOS.len()] = {
        let mut all = [ScenarioKind::Uniform; SCENARIOS.len()];
        let mut i = 0;
        while i < all.len() {
            all[i] = SCENARIOS[i].kind;
            i += 1;
        }
        all
    };

    fn row(self) -> &'static Row {
        let row = SCENARIOS.iter().find(|row| row.kind == self);
        row.expect("every kind has a row")
    }

    /// Short name used in reports and CLI arguments.
    pub fn name(&self) -> &'static str {
        self.row().name
    }

    /// What the scenario does, in one line.
    pub fn summary(&self) -> &'static str {
        self.row().summary
    }

    /// The scenario whose allow/deny split this one reproduces bit for
    /// bit (same seed, same shape), if it names one.
    pub fn split_of(&self) -> Option<ScenarioKind> {
        self.row().split_of
    }
}

/// Sizing and shape of one scenario run.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioConfig {
    /// Which traffic shape to generate.
    pub kind: ScenarioKind,
    /// Number of simulated tenant principals.
    pub tenants: usize,
    /// Number of protected modules.
    pub modules: usize,
    /// Operations (exported functions) per module.
    pub operations: usize,
    /// Worker threads driving the gateway.
    pub threads: usize,
    /// Requests issued per worker thread.
    pub ops_per_thread: u64,
    /// Master seed; every worker derives its own stream from it.
    pub seed: u64,
    /// Sets the churn actor's detach budget: it runs `total ops /
    /// churn_interval` attach/detach cycles concurrently with the workers
    /// (a cycle *count*, not pacing — the actor is not synchronised with
    /// worker progress).
    pub churn_interval: u64,
    /// Dedicated drainer threads for the plane and async scenarios
    /// (0 = auto: `max(1, threads / 4)`, keeping producers ≫ drainers).
    pub drainers: usize,
    /// Logical clients (awaiting tasks) for
    /// [`ScenarioKind::AsyncDispatch`] (0 = auto: `threads × 32`). The
    /// point of the scenario is `logical_clients ≫ threads`.
    pub logical_clients: usize,
    /// Producer-side doorbell coalescing for [`ScenarioKind::PlaneDispatch`]
    /// and its stall / arena variants: each producer pushes up to this
    /// many entries per burst through a
    /// [`secmod_kernel::plane::SubmitBatch`] before ringing the doorbell
    /// once. `0`/`1` keep the classic one-doorbell-per-entry submit.
    pub submit_batch: usize,
    /// Decision cache sizing.
    pub cache: CacheConfig,
}

impl ScenarioConfig {
    /// Start building a config for `kind`, from the full-size defaults
    /// (64 tenants, 8×8 key space, 4 threads, 50k ops/thread).
    pub fn builder(kind: ScenarioKind) -> ScenarioConfigBuilder {
        ScenarioConfigBuilder {
            cfg: ScenarioConfig {
                kind,
                tenants: 64,
                modules: 8,
                operations: 8,
                threads: 4,
                ops_per_thread: 50_000,
                seed: 0,
                churn_interval: 1024,
                drainers: 0,
                logical_clients: 0,
                submit_batch: 1,
                cache: CacheConfig::default(),
            },
        }
    }

    /// The drainer-thread count the run will use.
    pub fn effective_drainers(&self) -> usize {
        let row = self.kind.row();
        if row.frontend == Frontend::Rings {
            // Ring drainers are batch-trap callers, not plane seats: the
            // `drainers` knob does not apply to them.
            return (self.threads / 2).max(1);
        }
        if self.drainers > 0 {
            self.drainers
        } else {
            (self.threads / 4).max(1)
        }
    }

    /// The logical-client count the async scenario will use.
    pub fn effective_logical_clients(&self) -> usize {
        if self.logical_clients > 0 {
            self.logical_clients
        } else {
            self.threads.max(1) * 32
        }
    }

    /// Total operations the run issues (`threads * ops_per_thread`);
    /// the async kind splits this total across its logical clients.
    pub fn total_ops(&self) -> u64 {
        self.threads as u64 * self.ops_per_thread
    }
}

/// Builder for [`ScenarioConfig`] — `ScenarioConfig::builder(kind)`
/// starts from the full-size shape; [`ScenarioConfigBuilder::quick`]
/// switches to the CI smoke shape; individual setters override fields.
#[derive(Clone, Debug)]
pub struct ScenarioConfigBuilder {
    cfg: ScenarioConfig,
}

impl ScenarioConfigBuilder {
    /// Apply the small test/CI shape (16 tenants, 4×4 key space, 2
    /// threads, 2k ops/thread, an 8×512 cache).
    pub fn quick(mut self) -> Self {
        self.cfg.tenants = 16;
        self.cfg.modules = 4;
        self.cfg.operations = 4;
        self.cfg.threads = 2;
        self.cfg.ops_per_thread = 2_000;
        self.cfg.churn_interval = 256;
        self.cfg.cache = CacheConfig {
            shards: 8,
            capacity: 512,
        };
        self
    }

    /// Master seed; every worker derives its own stream from it.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Number of simulated tenant principals.
    pub fn tenants(mut self, tenants: usize) -> Self {
        self.cfg.tenants = tenants;
        self
    }

    /// Worker threads driving the gateway.
    pub fn threads(mut self, threads: usize) -> Self {
        self.cfg.threads = threads;
        self
    }

    /// Requests issued per worker thread.
    pub fn ops_per_thread(mut self, ops: u64) -> Self {
        self.cfg.ops_per_thread = ops;
        self
    }

    /// Dedicated drainer threads (0 = auto).
    pub fn drainers(mut self, drainers: usize) -> Self {
        self.cfg.drainers = drainers;
        self
    }

    /// Logical clients for the async scenario (0 = auto: threads × 32).
    pub fn logical_clients(mut self, clients: usize) -> Self {
        self.cfg.logical_clients = clients;
        self
    }

    /// Producer burst size for coalesced plane submission (0/1 = one
    /// doorbell per entry).
    pub fn submit_batch(mut self, burst: usize) -> Self {
        self.cfg.submit_batch = burst;
        self
    }

    /// Decision cache sizing.
    pub fn cache(mut self, cache: CacheConfig) -> Self {
        self.cfg.cache = cache;
        self
    }

    /// Finish building.
    pub fn build(self) -> ScenarioConfig {
        self.cfg
    }
}

/// The shared cast of a scenario: tenant principals and the module /
/// operation namespace they fight over.
pub struct Universe {
    /// One principal per simulated tenant.
    pub tenants: Vec<Principal>,
    /// Module names (`mod0`..).
    pub modules: Vec<String>,
    /// Operation names; index 0 is `"restricted"`, which vendors never
    /// delegate, so a deterministic slice of traffic is denied.
    pub operations: Vec<String>,
}

impl Universe {
    fn home_module(&self, tenant: usize) -> usize {
        tenant % self.modules.len()
    }
}

/// Operation names for `cfg`; index 0 is `"restricted"`.
fn operation_names(cfg: &ScenarioConfig) -> Vec<String> {
    std::iter::once("restricted".to_string())
        .chain((1..cfg.operations.max(2)).map(|o| format!("op{o}")))
        .collect()
}

/// The grant every scenario policy is made of: the policy root trusts
/// `vendor` for `module`, and `vendor` delegates to each of `tenants` for
/// everything except the `"restricted"` operation.
fn vendor_grants<'a>(
    vendor: &'a Principal,
    vendor_key: &'a [u8],
    module: &str,
    tenants: impl Iterator<Item = Principal> + 'a,
) -> impl Iterator<Item = Assertion> + 'a {
    let trust = format!("module == \"{module}\"");
    let root = Assertion::policy(LicenseeExpr::Single(vendor.clone()), &trust).unwrap();
    std::iter::once(root).chain(tenants.map(move |tenant| {
        let tenant = LicenseeExpr::Single(tenant);
        Assertion::delegation(vendor.clone(), tenant, "function != \"restricted\"")
            .unwrap()
            .sign(vendor_key)
    }))
}

/// Build the universe and a gateway fronting its policy: one vendor per
/// module, delegating to the tenants homed on it (see `vendor_grants`).
/// Every decision therefore exercises a two-hop delegation chain —
/// exactly the kind of repeated fixpoint work a decision cache is for.
pub fn build_universe(cfg: &ScenarioConfig) -> (Gateway, Universe) {
    let tenant = |t| {
        let key = format!("tenant-key-{t}-{}", cfg.seed);
        Principal::from_key(&format!("tenant{t}"), key.as_bytes())
    };
    let universe = Universe {
        tenants: (0..cfg.tenants).map(tenant).collect(),
        modules: (0..cfg.modules).map(|m| format!("mod{m}")).collect(),
        operations: operation_names(cfg),
    };
    let gateway = Gateway::new(PolicyEngine::new(), cfg.cache);
    for (m, module) in universe.modules.iter().enumerate() {
        let vendor_key = format!("vendor-key-{m}");
        let vendor = Principal::from_key(&format!("vendor{m}"), vendor_key.as_bytes());
        gateway.register_key(&vendor, vendor_key.as_bytes());
        // Tenant t is homed on module `t % modules` (`Universe::home_module`).
        let homed = universe.tenants.iter().skip(m).step_by(cfg.modules);
        for grant in vendor_grants(&vendor, vendor_key.as_bytes(), module, homed.cloned()) {
            gateway.add_assertion(grant).unwrap();
        }
    }
    (gateway, universe)
}

/// Zipf sampler over ranks `0..n` via an inverse-CDF table.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, exponent: f64) -> Zipf {
        let mut cdf: Vec<f64> = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(exponent);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SmallRng) -> usize {
        use rand::RngCore;
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// The session handshake, start to finish: start the session, wait for
/// its handle process, complete the handshake. Every actor that
/// establishes or re-establishes a session does it through here.
fn establish(kernel: &Kernel, client: Pid, module: ModuleId) {
    let (_session, handle) = kernel
        .sys_smod_start_session(client, module)
        .expect("start session");
    kernel.sys_smod_session_info(handle).expect("handle ready");
    kernel.sys_smod_handle_info(client).expect("handshake");
}

/// The churn actor: detach and re-establish a real SecModule session on a
/// kernel of its own, `total ops / churn_interval` times, folding the
/// kernel's invalidation epoch into the gateway after every detach.
fn churn_actor(gateway: &Gateway, cfg: &ScenarioConfig) -> WorkerStats {
    let own = build_dispatch_kernel_with_clients(cfg, 1);
    let (kernel, client) = (&own.kernel, own.clients[0]);
    for _ in 0..(cfg.total_ops() / cfg.churn_interval).max(1) {
        kernel.smod_detach(client, "churn").expect("detach");
        gateway.observe_kernel_epoch(kernel.smod_epoch());
        establish(kernel, client, own.module);
    }
    WorkerStats {
        epoch_bumps: kernel.smod_epoch(),
        ..WorkerStats::default()
    }
}

/// A live kernel-dispatch universe: one shared kernel, one registered
/// module (whose embedded gateway serves every per-call check), and a
/// pool of established sessions. Built by [`build_dispatch_kernel`] (one
/// client per worker thread) or [`build_dispatch_kernel_with_clients`]
/// (an explicit session-pool size); also reused by the ring and sweep
/// coherence suites under `tests/`.
pub struct DispatchKernel {
    /// The shared kernel; every syscall takes `&self`.
    pub kernel: Kernel,
    /// The registered benchmark module.
    pub module: ModuleId,
    /// The connected clients. For [`ScenarioKind::KernelDispatch`] thread
    /// i drives client i; for [`ScenarioKind::SessionPool`] the workers
    /// round-robin over the whole pool.
    pub clients: Vec<Pid>,
    /// Function ids of the module's operations; index 0 is the
    /// `"restricted"` operation that the policy denies.
    pub func_ids: Vec<u32>,
}

/// Build a kernel for the kernel-dispatch scenario: one module protected
/// by a vendor → per-tenant delegation policy (each decision is a two-hop
/// fixpoint when uncached, exactly what the embedded decision cache
/// amortises), `threads` clients with per-tenant credentials, and an
/// established session per client. The module's gateway is sized by
/// `cfg.cache` — pass [`CacheConfig::disabled`] to measure the uncached
/// baseline through the identical code path.
pub fn build_dispatch_kernel(cfg: &ScenarioConfig) -> DispatchKernel {
    build_dispatch_kernel_with_clients(cfg, cfg.threads)
}

/// [`build_dispatch_kernel`] with an explicit connected-client count: the
/// session-pool and ring scenarios establish more sessions than worker
/// threads. `n_clients` is clamped to the tenant key space
/// (`cfg.tenants.max(cfg.threads)`) so every client has a delegation.
pub fn build_dispatch_kernel_with_clients(
    cfg: &ScenarioConfig,
    n_clients: usize,
) -> DispatchKernel {
    const MODULE_NAME: &str = "libdispatch";
    let kernel = Kernel::with_gate_config(secmod_kernel::CostModel::default(), cfg.cache);
    // Tracing every dispatch from N threads would serialise the workers on
    // the tracer mutex and grow an unbounded log; the scenario measures
    // dispatch, not tracing.
    kernel.tracer.set_enabled(false);
    let registrar = kernel
        .spawn_process(
            "dispatch-registrar",
            Credential::root(),
            vec![0x90; 4096],
            2,
            2,
        )
        .expect("spawn registrar");

    // The module image: operation 0 is "restricted", the rest are opN.
    let operations = operation_names(cfg);
    let mut builder = ModuleBuilder::new(MODULE_NAME, 1);
    for op in &operations {
        builder.add_function(FunctionSpec::new(op, 64));
    }
    let image = builder.build(false).expect("build dispatch image");
    let stub_table = StubTable::generate(&image);
    let func_ids: Vec<u32> = operations
        .iter()
        .map(|op| stub_table.by_name(op).expect("stub exists").func_id)
        .collect();
    let mut functions = FunctionTable::new();
    for &func_id in &func_ids {
        functions.register(func_id, |_ctx, args| {
            let v = u64::from_le_bytes(args[..8].try_into().map_err(|_| Errno::EINVAL)?);
            Ok((v + 1).to_le_bytes().to_vec())
        });
    }

    // One delegation per tenant (not per worker): the policy's size — and
    // therefore the uncached fixpoint cost — is set by `cfg.tenants`, so an
    // uncached 1-thread baseline evaluates the same policy a cached
    // 8-thread run does. Workers use the first `cfg.threads` tenants.
    let tenant_keys: Vec<Vec<u8>> = (0..cfg.tenants.max(cfg.threads))
        .map(|t| format!("tenant-key-{t}-{}", cfg.seed).into_bytes())
        .collect();
    let vendor_key = format!("dispatch-vendor-key-{}", cfg.seed);
    let vendor = Principal::from_key("vendor", vendor_key.as_bytes());
    let mut policy = PolicyEngine::new();
    policy.register_key(&vendor, vendor_key.as_bytes());
    let tenants = tenant_keys
        .iter()
        .map(|key| Principal::from_key("tenant", key));
    for grant in vendor_grants(&vendor, vendor_key.as_bytes(), MODULE_NAME, tenants) {
        policy.add_assertion(grant).unwrap();
    }

    let module_key = b"0123456789abcdef".to_vec();
    let nonce = [9u8; 8];
    let enc = secmod_crypto::SelectiveEncryptor::new(&module_key, nonce).expect("encryptor");
    let package = SmodPackage::seal(&image, &enc, b"dispatch-mac-key").expect("seal");
    let module = kernel
        .sys_smod_add(
            registrar,
            package,
            secmod_kernel::smod::ModuleKeyDelivery::Raw {
                key: module_key,
                nonce,
            },
            b"dispatch-mac-key",
            policy,
            functions,
        )
        .expect("register dispatch module");

    let clients: Vec<Pid> = tenant_keys
        .iter()
        .take(n_clients.clamp(1, tenant_keys.len()))
        .enumerate()
        .map(|(t, key)| {
            let client = kernel
                .spawn_process(
                    &format!("dispatch-client{t}"),
                    Credential::user(1000 + t as u32, 100).with_smod_credential(MODULE_NAME, key),
                    vec![0x90; 4096],
                    4,
                    4,
                )
                .expect("spawn dispatch client");
            establish(&kernel, client, module);
            client
        })
        .collect();

    DispatchKernel {
        kernel,
        module,
        clients,
        func_ids,
    }
}

/// What one actor counted. Producers fill the decision split and their
/// backpressure bounces; the churn actor fills `epoch_bumps`; the victim
/// producer of [`Tenancy::VictimVsFlood`] fills `lanes_at_finish`.
#[derive(Clone, Copy, Debug, Default)]
struct WorkerStats {
    allows: u64,
    denies: u64,
    epoch_bumps: u64,
    /// Full-ring bounces this producer personally absorbed.
    full_bounces: u64,
    /// The (victim, adversary) lane drain counters at the moment the
    /// victim finished — the instant the fairness contract is judged at.
    lanes_at_finish: Option<(u64, u64)>,
}

impl WorkerStats {
    /// Count one decision by the errno it came back with.
    fn tally(&mut self, errno: i32) {
        if errno == 0 {
            self.allows += 1;
        } else if errno == Errno::EACCES.code() {
            self.denies += 1;
        } else {
            panic!("unexpected dispatch errno {errno}");
        }
    }

    fn absorb(&mut self, other: WorkerStats) {
        self.allows += other.allows;
        self.denies += other.denies;
        self.epoch_bumps += other.epoch_bumps;
        self.full_bounces += other.full_bounces;
        self.lanes_at_finish = self.lanes_at_finish.or(other.lanes_at_finish);
    }
}

fn uniform(rng: &mut SmallRng, n: usize) -> usize {
    rng.gen_range(0..n as u64) as usize
}

/// The one operation draw every kernel-backed producer makes.
fn draw_op(rng: &mut SmallRng, func_ids: &[u32]) -> u32 {
    func_ids[uniform(rng, func_ids.len())]
}

/// One end a producer submits to and reaps from.
enum Port<'a> {
    /// A slot on the dispatch plane.
    Plane(PlaneHandle),
    /// A raw ring pair some `sys_smod_call_batch` caller drains. The
    /// producer is the only pusher of `sq` and the only popper of `cq`,
    /// hence the SPSC fast paths.
    Ring {
        session: u32,
        sq: &'a SubmissionRing,
        cq: &'a CompletionRing,
    },
}

/// An open doorbell burst on a [`Port`]: pushes land in the submission
/// ring at once; a plane's doorbell rings when the burst drops (a raw
/// ring has none — its drainers poll).
enum Burst<'a> {
    Plane(SubmitBatch<'a>),
    Ring(u32, &'a SubmissionRing),
}

impl Port<'_> {
    fn open(&self) -> Burst<'_> {
        match self {
            Port::Plane(handle) => Burst::Plane(handle.batch()),
            Port::Ring { session, sq, .. } => Burst::Ring(*session, sq),
        }
    }

    fn reap(&self) -> Option<SmodCallResp> {
        match self {
            Port::Plane(handle) => handle.reap(),
            Port::Ring { cq, .. } => cq.pop_spsc(),
        }
    }
}

impl Burst<'_> {
    /// Push one request; `false` is a full-ring bounce (the plane has
    /// already flushed the accepted prefix, so space reappears as those
    /// entries complete).
    fn push(&mut self, proc_id: u32, user_data: u64, args: Vec<u8>) -> bool {
        match self {
            Burst::Plane(batch) => match batch.push(proc_id, user_data, args) {
                Ok(()) => true,
                Err(SubmitError::Full(_)) => false,
                Err(SubmitError::Detached(_)) => panic!("plane detached mid-run"),
            },
            Burst::Ring(session, sq) => sq
                .push_spsc(SmodCallReq {
                    session: *session,
                    proc_id,
                    user_data,
                    args: args.into(),
                })
                .is_ok(),
        }
    }
}

/// The producer loop: submit `ops` requests over `ports`, `burst` entries
/// per doorbell on one port at a time (round-robin; `burst == 1` is the
/// classic one-doorbell-per-entry submit), reaping every completion
/// before returning. `next_proc` is consulted once per submission and
/// never while a bounced request is pending, so a producer's split is
/// independent of how many ports it spreads its stream over and of how
/// often it bounced. `user_data` is the submission index — unique per
/// call, which the seen-bitmap keys on: a lost *or* duplicated
/// completion fails loudly, on every ring-shaped row.
fn drive(
    ports: &[Port<'_>],
    ops: u64,
    burst: u64,
    arena_mix: bool,
    mut next_proc: impl FnMut() -> u32,
) -> WorkerStats {
    let mut stats = WorkerStats::default();
    let mut seen = vec![false; ops as usize];
    let mut sent = 0u64;
    let mut received = 0u64;
    let mut bounced: Option<u32> = None;
    while received < ops {
        let mut progressed = false;
        if sent < ops {
            let mut open = ports[(sent / burst % ports.len() as u64) as usize].open();
            for _ in 0..burst.min(ops - sent) {
                let proc_id = bounced.take().unwrap_or_else(&mut next_proc);
                let mut args = sent.to_le_bytes().to_vec();
                if arena_mix && sent.is_multiple_of(4) {
                    args.resize(64 * 1024, 0);
                }
                if open.push(proc_id, sent, args) {
                    sent += 1;
                    progressed = true;
                } else {
                    // Backpressure: hold the request and retry the same
                    // port after reaping.
                    stats.full_bounces += 1;
                    bounced = Some(proc_id);
                    break;
                }
            }
        }
        for port in ports {
            while let Some(resp) = port.reap() {
                received += 1;
                progressed = true;
                stats.tally(resp.errno);
                let idx = resp.user_data as usize;
                assert!(!seen[idx], "entry {idx} completed twice");
                seen[idx] = true;
            }
        }
        if !progressed {
            std::thread::yield_now();
        }
    }
    stats
}

/// What a run's actors act on. (One per run, never stored in bulk: the
/// size gap between the variants costs nothing.)
#[allow(clippy::large_enum_variant)]
enum World {
    /// Gateway rows: a free-standing gateway and the key universe.
    Gateway(Gateway, Universe),
    /// Kernel-backed rows: a live kernel with established sessions.
    Kernel(Live),
}

/// A [`DispatchKernel`] with its kernel behind the `Arc` the planes need.
struct Live {
    kernel: Arc<Kernel>,
    module: ModuleId,
    clients: Vec<Pid>,
    func_ids: Vec<u32>,
}

/// A row's frontend, started.
enum Front<'w> {
    Gateway(&'w Gateway, &'w Universe),
    Syscall(&'w Live),
    Rings(&'w Live, Vec<(SubmissionRing, CompletionRing)>),
    Plane(&'w Live, DispatchPlane),
    Async(&'w Live, AsyncPlane),
}

/// The one context every actor of a run resolves against.
struct Run<'w> {
    cfg: &'w ScenarioConfig,
    row: &'static Row,
    front: Front<'w>,
    /// Producers that have finished; the service actors (ring drainers,
    /// stall antagonist) run until it reaches `cfg.threads`.
    done: AtomicUsize,
    /// Releases the herd.
    barrier: Barrier,
}

impl World {
    fn build(cfg: &ScenarioConfig) -> World {
        let row = cfg.kind.row();
        if row.frontend == Frontend::Gateway {
            let (gateway, universe) = build_universe(cfg);
            return World::Gateway(gateway, universe);
        }
        let n_clients = match row.sessions {
            Sessions::Own(n) => cfg.threads * n,
            Sessions::Pool => cfg.tenants.max(cfg.threads),
        };
        let dispatch = build_dispatch_kernel_with_clients(cfg, n_clients);
        World::Kernel(Live {
            kernel: Arc::new(dispatch.kernel),
            module: dispatch.module,
            clients: dispatch.clients,
            func_ids: dispatch.func_ids,
        })
    }

    /// Start `cfg`'s frontend on this world.
    fn front(&self, cfg: &ScenarioConfig) -> Front<'_> {
        let row = cfg.kind.row();
        match (self, row.frontend) {
            (World::Gateway(gateway, universe), Frontend::Gateway) => {
                Front::Gateway(gateway, universe)
            }
            (World::Kernel(live), Frontend::Syscall) => Front::Syscall(live),
            (World::Kernel(live), Frontend::Rings) => {
                let pair = |_| RingPairConfig::default().build();
                Front::Rings(live, (0..cfg.threads).map(pair).collect())
            }
            (World::Kernel(live), Frontend::Plane) => {
                let plane = DispatchPlane::start(Arc::clone(&live.kernel), plane_config(cfg, live));
                Front::Plane(live, plane.expect("start dispatch plane"))
            }
            (World::Kernel(live), Frontend::Async) => {
                let plane = AsyncPlane::start(Arc::clone(&live.kernel), plane_config(cfg, live));
                Front::Async(live, plane.expect("start async plane"))
            }
            _ => panic!("{} cannot run on this world", row.name),
        }
    }
}

/// The plane a row runs on: a slot per attachment, a QoS policy for
/// tenant rows, the crash drill for the crash row.
fn plane_config(cfg: &ScenarioConfig, live: &Live) -> PlaneConfig {
    let row = cfg.kind.row();
    let slots = match row.tenancy {
        Tenancy::Flat => live.clients.len(),
        Tenancy::VictimVsFlood => 1 + ADVERSARY_HANDLES * cfg.threads.saturating_sub(1),
    };
    let mut plane = PlaneConfig::builder()
        .drainers(cfg.effective_drainers())
        .slots(slots);
    if row.tenancy == Tenancy::VictimVsFlood {
        let equal = [VICTIM_TENANT, ADVERSARY_TENANT].map(|tenant| TenantSpec::new(tenant, 1));
        plane = plane.qos(QosPolicy::weighted_fair(equal).with_quantum(16));
    }
    if row.fault == Fault::Crash {
        plane = plane.crash();
    }
    plane.build()
}

/// One producer of `run`: issue `ops_per_thread` requests through the
/// row's frontend from this producer's own `SmallRng` stream.
fn produce(run: &Run<'_>, idx: usize) -> WorkerStats {
    let Run { cfg, row, .. } = *run;
    let ops = cfg.ops_per_thread;
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ mix64(idx as u64 + 1));
    let mut stats = WorkerStats::default();
    // The sessions this producer drives. (The builder clamps the client
    // pool to the tenant key space; spread whatever came back evenly.)
    let mine = |live: &'_ Live| match row.sessions {
        Sessions::Pool => 0..live.clients.len(),
        Sessions::Own(_) => {
            let per = (live.clients.len() / cfg.threads).max(1);
            idx * per..(idx + 1) * per
        }
    };
    match &run.front {
        Front::Gateway(gateway, universe) => {
            let zipf = Zipf::new(universe.tenants.len(), ZIPF_EXPONENT);
            for op_idx in 0..ops {
                let tenant = match row.draw {
                    Draw::Zipf => zipf.sample(&mut rng),
                    _ => uniform(&mut rng, universe.tenants.len()),
                };
                let module = match row.draw {
                    Draw::Uniform => uniform(&mut rng, universe.modules.len()),
                    _ => universe.home_module(tenant),
                };
                let operation = uniform(&mut rng, universe.operations.len());
                let uid = match row.draw {
                    Draw::FreshUid => 1_000_000 + idx as u64 * ops + op_idx,
                    _ => 1000 + tenant as u64,
                };
                let allowed = gateway.is_allowed(&AccessRequest {
                    requesters: std::slice::from_ref(&universe.tenants[tenant]),
                    app_domain: "scenario",
                    module: &universe.modules[module],
                    version: 1,
                    operation: &universe.operations[operation],
                    uid: uid as i64,
                });
                stats.tally(if allowed { 0 } else { Errno::EACCES.code() });
            }
        }
        Front::Syscall(live) => {
            let mine = &live.clients[mine(live)];
            for op_idx in 0..ops {
                let args = SmodCallArgs {
                    m_id: live.module,
                    func_id: draw_op(&mut rng, &live.func_ids),
                    frame_pointer: 0xBFFF_0000,
                    return_address: 0x0000_1000,
                    args: op_idx.to_le_bytes().to_vec(),
                };
                // A pool rotates over every session; a pinned producer's
                // slice has one entry.
                let client = mine[(idx + op_idx as usize) % mine.len()];
                let outcome = live.kernel.sys_smod_call(client, args);
                stats.tally(outcome.err().map_or(0, Errno::code));
            }
        }
        Front::Rings(live, pairs) => {
            let session = live.kernel.session_of(live.clients[idx]);
            let port = Port::Ring {
                session: session.expect("producer session established").id.0,
                sq: &pairs[idx].0,
                cq: &pairs[idx].1,
            };
            stats = drive(&[port], ops, 1, false, || draw_op(&mut rng, &live.func_ids));
        }
        Front::Plane(live, plane) => {
            let mine = &live.clients[mine(live)];
            if row.fault == Fault::Herd {
                run.barrier.wait();
                // The stampede: every producer re-handshakes all its
                // sessions at once against the shared kernel.
                for &client in mine {
                    establish(&live.kernel, client, live.module);
                }
            }
            let (tenant, slots) = match row.tenancy {
                Tenancy::Flat => (TenantId::DEFAULT, 1),
                Tenancy::VictimVsFlood if idx == 0 => (TenantId(VICTIM_TENANT), 1),
                Tenancy::VictimVsFlood => (TenantId(ADVERSARY_TENANT), ADVERSARY_HANDLES),
            };
            let per_doorbell = cfg.submit_batch.max(1) as u64;
            for n in 0..row.bursts {
                if row.fault == Fault::Storm && n > 0 && n.is_multiple_of(STORM_REHANDSHAKE_EVERY) {
                    // The previous burst was fully reaped before its slot
                    // dropped, so nothing is in flight: the detach can
                    // never strand an entry into EIDRM.
                    for &client in mine {
                        let detached = live.kernel.smod_detach(client, "churn storm");
                        detached.expect("detach");
                        establish(&live.kernel, client, live.module);
                    }
                }
                let attach = |client| plane.attach_tenant(client, tenant);
                let ports: Vec<Port<'_>> = mine
                    .iter()
                    .flat_map(|&client| std::iter::repeat_n(client, slots))
                    .map(|client| Port::Plane(attach(client).expect("attach producer")))
                    .collect();
                // The last burst takes the remainder.
                let share = ops / row.bursts;
                let burst_ops = ops - n * share;
                stats.absorb(drive(
                    &ports,
                    if n + 1 == row.bursts {
                        burst_ops
                    } else {
                        share
                    },
                    if row.coalesce { per_doorbell } else { 1 },
                    row.arena_mix,
                    || draw_op(&mut rng, &live.func_ids),
                ));
            }
            if row.tenancy == Tenancy::VictimVsFlood && idx == 0 {
                let sched = plane.scheduler().expect("qos plane has a scheduler");
                let drained = |tenant| sched.metrics().lane(tenant).drained.get();
                stats.lanes_at_finish = Some((drained(VICTIM_TENANT), drained(ADVERSARY_TENANT)));
            }
        }
        // One host actor for the whole population: many logical clients
        // share each OS client's session — the point of the frontend.
        Front::Async(live, plane) => {
            let exec = Executor::new(cfg.threads.max(1));
            let logical = cfg.effective_logical_clients().max(1) as u64;
            let total = cfg.total_ops();
            let spawn = |lc: u64| {
                let client = live.clients[lc as usize % live.clients.len()];
                let session = plane.session(client).expect("attach async session");
                let func_ids = live.func_ids.clone();
                let mut rng = SmallRng::seed_from_u64(cfg.seed ^ mix64(lc + 1));
                let ops = total / logical + u64::from(lc < total % logical);
                exec.spawn(async move {
                    let mut stats = WorkerStats::default();
                    for i in 0..ops {
                        let func_id = draw_op(&mut rng, &func_ids);
                        stats.tally(match session.call(func_id, i.to_le_bytes()).await {
                            Ok(_) => 0,
                            Err(DispatchError::Errno(errno)) => errno.code(),
                            Err(e) => panic!("unexpected async outcome: {e}"),
                        });
                    }
                    stats
                })
            };
            let tasks: Vec<_> = (0..logical).map(spawn).collect();
            for task in tasks {
                stats.absorb(task.join());
            }
        }
    }
    run.done.fetch_add(1, Ordering::Release);
    stats
}

/// A ring-row drainer: trap into `sys_smod_call_batch` on every pair —
/// starting at `first`, so two drainers do not convoy on the same ring —
/// until every producer is done and every submission ring is dry.
fn drain_rings(
    run: &Run<'_>,
    live: &Live,
    pairs: &[(SubmissionRing, CompletionRing)],
    first: usize,
) -> WorkerStats {
    loop {
        let mut drained_any = false;
        for i in 0..pairs.len() {
            let ring = (i + first) % pairs.len();
            let (sq, cq) = &pairs[ring];
            let report = live
                .kernel
                .sys_smod_call_batch(live.clients[ring], sq, cq, SMOD_BATCH_DEFAULT_BUDGET)
                .expect("batch dispatch");
            drained_any |= report.drained > 0;
        }
        if !drained_any {
            if run.done.load(Ordering::Acquire) == run.cfg.threads
                && pairs.iter().all(|(sq, _)| sq.is_empty())
            {
                return WorkerStats::default();
            }
            std::thread::yield_now();
        }
    }
}

/// The stall antagonist: claim whatever is ready and sit on it. While the
/// closure holds a slot, its drain-exclusivity flag blocks the real
/// drainers, and the readiness bits claimed alongside it hide the
/// remaining slots from their sweeps. Nothing is popped; returning `true`
/// re-flags the slot so the work is *delayed*, never lost.
fn stall_drainers(run: &Run<'_>, plane: &DispatchPlane) -> WorkerStats {
    let set = plane.ring_set();
    while run.done.load(Ordering::Acquire) < run.cfg.threads {
        set.sweep_ready(|_slot, _rings| {
            std::thread::sleep(Duration::from_micros(200));
            true
        });
        std::thread::sleep(Duration::from_micros(50));
    }
    WorkerStats::default()
}

impl World {
    /// Run `cfg`'s row on this world: start its frontend, spawn its
    /// actors in one scope, shut down, run its checks. Returns the
    /// traffic phase's wall-clock duration and the actors' summed counters.
    fn run(&self, cfg: &ScenarioConfig) -> (Duration, WorkerStats) {
        let row = cfg.kind.row();
        let run = Run {
            cfg,
            row,
            front: self.front(cfg),
            done: AtomicUsize::new(0),
            barrier: Barrier::new(cfg.threads),
        };
        if let (Fault::Herd, Front::Plane(live, _)) = (row.fault, &run.front) {
            // Tear every established session down: the herd starts cold.
            for &client in &live.clients {
                let detached = live.kernel.smod_detach(client, "herd teardown");
                detached.expect("detach");
            }
        }

        let start = Instant::now();
        let mut totals = WorkerStats::default();
        std::thread::scope(|scope| {
            let run = &run;
            let mut actors = Vec::new();
            let mut producers = cfg.threads;
            match &run.front {
                Front::Gateway(gateway, _) if row.fault == Fault::Churn => {
                    actors.push(scope.spawn(move || churn_actor(gateway, cfg)));
                }
                Front::Rings(live, pairs) => {
                    for first in 0..cfg.effective_drainers() {
                        actors.push(scope.spawn(move || drain_rings(run, live, pairs, first)));
                    }
                }
                Front::Plane(_, plane) if row.fault == Fault::Stall => {
                    actors.push(scope.spawn(move || stall_drainers(run, plane)));
                }
                Front::Async(..) => producers = 1,
                _ => {}
            }
            for idx in 0..producers {
                actors.push(scope.spawn(move || produce(run, idx)));
            }
            for actor in actors {
                totals.absorb(actor.join().expect("scenario actor panicked"));
            }
        });
        // The producers only finished once every entry completed —
        // including the ones a crashed drainer died holding — so recovery,
        // if any was needed, has already happened.
        let plane_end = match run.front {
            Front::Plane(live, plane) => {
                let (sched, crash_fired) = (plane.scheduler(), plane.crash_fired());
                Some((live, plane.shutdown(), sched, crash_fired))
            }
            Front::Async(_, plane) => {
                plane.shutdown();
                None
            }
            _ => None,
        };
        let elapsed = start.elapsed();
        for &check in row.checks {
            let (live, plane, sched, crash_fired) =
                plane_end.as_ref().expect("checked rows run on the plane");
            verify(
                check,
                cfg,
                live,
                plane,
                sched.as_deref(),
                *crash_fired,
                &totals,
            );
        }
        (elapsed, totals)
    }

    /// Assemble the report — the one place a [`ScenarioReport`] is built.
    ///
    /// Kernel-backed rows take hit/miss from the kernel's gate counters:
    /// with the thread-local L0 tier fronting the sharded cache, the
    /// shard's own counters only ever see L0 misses, so they no longer
    /// measure "decisions served from a cache" — the gate counters do (L0
    /// and sharded hits both count as hits, exactly as they are billed).
    /// Occupancy, insertions and evictions still come from the sharded
    /// tier, which is the only tier with resident state to report.
    fn report(
        &self,
        cfg: &ScenarioConfig,
        elapsed: Duration,
        totals: WorkerStats,
    ) -> ScenarioReport {
        let (cache, epoch_bumps, latency) = match self {
            World::Gateway(gateway, _) => (gateway.cache_stats(), totals.epoch_bumps, None),
            World::Kernel(live) => {
                let kernel = &live.kernel;
                let module = kernel.registry.get(live.module).expect("module registered");
                let mut cache = module.gateway.cache_stats();
                cache.hits = kernel.metrics.gate_hits.get();
                cache.misses = kernel.metrics.gate_misses.get();
                // `None` when the flavor recorded nothing.
                let flavor = cfg.kind.row().frontend.flavor();
                let latency = flavor
                    .map(|flavor| kernel.metrics.latency(flavor))
                    .filter(|hist| hist.count() > 0)
                    .map(|hist| hist.summary());
                (cache, kernel.smod_epoch(), latency)
            }
        };
        let total_ops = cfg.total_ops();
        ScenarioReport {
            kind: cfg.kind,
            threads: cfg.threads,
            total_ops,
            elapsed,
            ops_per_sec: total_ops as f64 / elapsed.as_secs_f64().max(1e-9),
            allows: totals.allows,
            denies: totals.denies,
            epoch_bumps,
            cache,
            latency,
        }
    }
}

/// Hold a finished plane run to one of its row's checks.
fn verify(
    check: Check,
    cfg: &ScenarioConfig,
    live: &Live,
    plane: &PlaneStats,
    sched: Option<&SweepScheduler>,
    crash_fired: bool,
    totals: &WorkerStats,
) {
    let metrics = &live.kernel.metrics;
    let total_ops = cfg.total_ops();
    match check {
        Check::ArenaSettled => assert_eq!(
            metrics.arena.bytes_in_flight.get(),
            0,
            "arena bytes still in flight after {} shutdown",
            cfg.kind.name()
        ),
        Check::VictimKeepsShare => {
            if let Some((victim, flood)) = totals.lanes_at_finish.filter(|_| cfg.threads > 1) {
                let share = victim as f64 / (victim + flood).max(1) as f64;
                assert!(
                    share >= 0.25,
                    "victim starved: {victim} of {} drains ({:.1}% < 25% floor)",
                    victim + flood,
                    share * 100.0
                );
            }
            // The producers reaped everything before the scope closed, so
            // every entry was drained by a QoS sweep (never the shutdown
            // fallback) and the tenant lanes must sum to the op count.
            let lanes = sched.expect("qos plane has a scheduler").metrics().lanes();
            let drained: u64 = lanes.iter().map(|l| l.drained.get()).sum();
            assert_eq!(drained, total_ops, "tenant lanes missed drains");
            let answered = |l: &Arc<TenantLane>| l.completed.get() + l.failed.get();
            let answered: u64 = lanes.iter().map(answered).sum();
            assert_eq!(answered, total_ops, "tenant lanes missed outcomes");
            assert_eq!(plane.drained, total_ops);
            // Plane hygiene: every park was matched by an unpark, and no
            // session saw EIDRM (nothing detached mid-run).
            let (parks, unparks) = (metrics.drainer_parks.get(), metrics.drainer_unparks.get());
            assert_eq!(parks, unparks, "drainer park/unpark imbalance");
            assert_eq!(metrics.eidrm_failures.get(), 0, "unexpected EIDRM");
        }
        Check::EpochChurned => {
            // Each producer cycled its session at bursts 2, 4, 6, …
            let cycles = (STORM_BURSTS / STORM_REHANDSHAKE_EVERY).saturating_sub(1);
            assert!(
                live.kernel.smod_epoch() >= cfg.threads as u64 * cycles,
                "the storm never bumped the invalidation epoch"
            );
        }
        Check::CrashRecovered => {
            assert!(crash_fired, "the crash drill never fired");
            assert!(plane.drainer_restarts >= 1, "dead seat never respawned");
            assert!(plane.reclaimed >= 1, "stranded claims never reclaimed");
            // Deterministic metrics wiring: the kernel counted exactly the
            // Full bounces the producers absorbed, no more, no fewer.
            assert_eq!(
                metrics.ring_full_bounces.get(),
                totals.full_bounces,
                "ring_full_bounces out of step with observed backpressure"
            );
        }
    }
}

/// Run one scenario: build its row's world, run the row's actors on it,
/// and assemble the report.
pub fn run_scenario(cfg: &ScenarioConfig) -> ScenarioReport {
    let world = World::build(cfg);
    let (elapsed, totals) = world.run(cfg);
    world.report(cfg, elapsed, totals)
}

/// Drive all five dispatch flavors against **one** kernel and render its
/// [`DispatchMetrics`][secmod_obs::DispatchMetrics] text report — the
/// `gate_report --metrics` walkthrough and the CI observability smoke.
///
/// The syscall, batch, plane and async rows run in turn on the same
/// world; the two plane frontends bring their own drainer threads, whose
/// `sys_smod_sweep`s populate the sweep flavor — so one small demo lights
/// up every row of the report. The draw includes `restricted`, so denied
/// calls are recorded too — a deny still costs its policy check.
pub fn run_metrics_demo(seed: u64) -> String {
    let cfg = ScenarioConfig::builder(ScenarioKind::KernelDispatch)
        .quick()
        .seed(seed)
        .threads(1)
        .ops_per_thread(64)
        .build();
    let world = World::build(&cfg);
    for kind in [
        ScenarioKind::KernelDispatch,
        ScenarioKind::RingDispatch,
        ScenarioKind::PlaneDispatch,
        ScenarioKind::AsyncDispatch,
    ] {
        world.run(&ScenarioConfig { kind, ..cfg });
    }
    let World::Kernel(live) = world else {
        unreachable!("the kernel row builds a kernel world");
    };
    live.kernel.metrics_report()
}

/// The outcome of one scenario run.
#[derive(Clone, Copy, Debug)]
pub struct ScenarioReport {
    /// Which scenario ran.
    pub kind: ScenarioKind,
    /// Worker threads used.
    pub threads: usize,
    /// Total requests issued.
    pub total_ops: u64,
    /// Wall-clock duration of the traffic phase.
    pub elapsed: Duration,
    /// Requests per second across all threads.
    pub ops_per_sec: f64,
    /// Requests allowed (deterministic for a given config + seed).
    pub allows: u64,
    /// Requests denied (deterministic for a given config + seed).
    pub denies: u64,
    /// Epoch bumps folded in by the churn actor (0 for other scenarios).
    pub epoch_bumps: u64,
    /// Decision-cache counters for the run.
    pub cache: CacheStats,
    /// Simulated per-call latency quantiles for the dispatch flavor the
    /// scenario drives (`None` for gateway-only scenarios, which never
    /// enter a kernel dispatch path).
    pub latency: Option<LatencySummary>,
}

impl ScenarioReport {
    /// Cache hit rate over the run.
    pub fn hit_rate(&self) -> f64 {
        self.cache.hit_rate()
    }
}

impl std::fmt::Display for ScenarioReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The first column is as wide as the longest name in the table.
        let width = SCENARIOS.iter().map(|row| row.name.len()).max();
        let width = width.unwrap_or(0);
        write!(
            f,
            "{:<width$} {:>2} thr {:>9} ops {:>12.0} ops/sec  hit-rate {:>5.1}%  allow {:>8} deny {:>8} evict {:>6} bumps {:>4}",
            self.kind.name(),
            self.threads,
            self.total_ops,
            self.ops_per_sec,
            self.hit_rate() * 100.0,
            self.allows,
            self.denies,
            self.cache.evictions,
            self.epoch_bumps,
        )?;
        if let Some(latency) = &self.latency {
            write!(f, "  {latency}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    const SEED: u64 = 11;

    fn quick(kind: ScenarioKind, seed: u64) -> ScenarioConfig {
        ScenarioConfig::builder(kind).quick().seed(seed).build()
    }

    /// Every row's quick run at [`SEED`], run once and shared by the tests
    /// below.
    fn report_of(kind: ScenarioKind) -> &'static ScenarioReport {
        static REPORTS: OnceLock<Vec<ScenarioReport>> = OnceLock::new();
        let run = |row: &Row| run_scenario(&quick(row.kind, SEED));
        let reports = REPORTS.get_or_init(|| SCENARIOS.iter().map(run).collect());
        reports.iter().find(|r| r.kind == kind).expect("a report")
    }

    fn split(report: &ScenarioReport) -> (u64, u64) {
        (report.allows, report.denies)
    }

    /// The table's contract, row by row: every request is accounted for,
    /// the split is a pure function of the seed however the threads
    /// interleave, and a row that only reshuffles *when and by whom* work
    /// is drained (pool shard pressure, batching, the plane, a stalled or
    /// crashed drainer, payload placement, tenant scheduling, attachment
    /// and epoch churn) reproduces the split of the row it names bit for
    /// bit. Latency quantiles are present and monotone on every row that
    /// enters a kernel dispatch path, and only there.
    #[test]
    fn every_scenario_accounts_for_every_request() {
        for row in &SCENARIOS {
            let (name, report) = (row.name, report_of(row.kind));
            assert_eq!(report.allows + report.denies, report.total_ops, "{name}");
            assert!(report.allows > 0, "{name} never allowed");
            assert!(report.denies > 0, "{name} never denied");
            let again = run_scenario(&quick(row.kind, SEED));
            assert_eq!(split(&again), split(report), "{name} not deterministic");
            if let Some(base) = row.split_of {
                assert_eq!(split(report), split(report_of(base)), "{name} diverged");
            }
        }
    }

    #[test]
    fn dispatch_scenarios_report_latency_quantiles() {
        for row in &SCENARIOS {
            let (name, latency) = (row.name, report_of(row.kind).latency);
            // Gateway-only rows never enter a kernel dispatch path.
            assert_eq!(
                latency.is_some(),
                row.frontend != Frontend::Gateway,
                "{name}"
            );
            if let Some(l) = latency {
                assert!(l.count > 0, "{name} recorded nothing");
                let monotone = l.p50 > 0 && l.p99 >= l.p50 && l.p999 >= l.p99;
                assert!(monotone, "{name} quantiles not monotone: {l}");
            }
        }
    }

    #[test]
    fn decisions_are_deterministic_per_seed_despite_threads() {
        // Same seed, same split; and the seed genuinely shapes the traffic
        // (checked on uniform, where the allow count has enough entropy to
        // not collide). Every other row's determinism is the table test's.
        let run = |seed| split(&run_scenario(&quick(ScenarioKind::Uniform, seed)));
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn thrash_never_hits_and_zipf_mostly_hits() {
        let thrash = report_of(ScenarioKind::AdversarialThrash);
        assert_eq!(thrash.cache.hits, 0, "thrash keys must be unique");
        assert!(thrash.cache.evictions > 0, "thrash must overflow the cache");
        let zipf = report_of(ScenarioKind::ZipfianHotKey).hit_rate();
        assert!(zipf > 0.9, "zipf hit rate {zipf:.3} suspiciously low");
    }

    #[test]
    fn kernel_dispatch_serves_checks_from_the_embedded_cache() {
        // Single calls, batches and sweeps all consult the same embedded
        // gateway, and its cache serves the steady state of each.
        for kind in [
            ScenarioKind::KernelDispatch,
            ScenarioKind::RingDispatch,
            ScenarioKind::PlaneDispatch,
        ] {
            let rate = report_of(kind).hit_rate();
            assert!(rate > 0.9, "{} hit rate {rate:.3} too low", kind.name());
        }
    }

    #[test]
    fn kernel_dispatch_uncached_baseline_never_hits() {
        let mut cfg = quick(ScenarioKind::KernelDispatch, SEED);
        cfg.cache = CacheConfig::disabled();
        let uncached = run_scenario(&cfg);
        assert_eq!(uncached.cache.hits, 0, "disabled cache must never hit");
        // Identical traffic, identical decisions: the cache only changes
        // the cost of computing an answer, never the answer.
        assert_eq!(split(&uncached), split(report_of(cfg.kind)));
    }

    /// The report assembly itself, deterministically: one thread, a fixed
    /// list of `sys_smod_call`s over `keys` distinct (client, operation)
    /// pairs. Each key misses once and hits ever after — mostly in the
    /// thread-local L0 tier, which the sharded tier's own hit counter never
    /// sees — so a report assembled from anything but the kernel's gate
    /// counters cannot produce these numbers. Built for a QoS row, the
    /// kind furthest from the plain kernel row that shares the assembly.
    #[test]
    fn report_assembly_reads_the_gate_counters() {
        const ROUNDS: u64 = 5;
        let cfg = quick(ScenarioKind::MultiTenant, 5);
        let world = World::build(&cfg);
        let World::Kernel(live) = &world else {
            panic!("multitenant is kernel-backed");
        };
        let assemble = || world.report(&cfg, Duration::ZERO, WorkerStats::default());
        let before = assemble().cache;
        for round in 0..ROUNDS {
            for &client in &live.clients {
                for &func_id in &live.func_ids {
                    let args = SmodCallArgs {
                        m_id: live.module,
                        func_id,
                        frame_pointer: 0xBFFF_0000,
                        return_address: 0x0000_1000,
                        args: round.to_le_bytes().to_vec(),
                    };
                    let _ = live.kernel.sys_smod_call(client, args);
                }
            }
        }
        let after = assemble().cache;
        let keys = (live.clients.len() * live.func_ids.len()) as u64;
        assert_eq!(after.misses - before.misses, keys);
        assert_eq!(after.hits - before.hits, ROUNDS * keys - keys);
    }

    #[test]
    fn report_columns_line_up_under_the_longest_name() {
        let column = |kind| {
            let line = report_of(kind).to_string();
            line.find(" thr ").expect("thread column")
        };
        let longest = SCENARIOS.iter().max_by_key(|row| row.name.len()).unwrap();
        for row in &SCENARIOS {
            assert_eq!(column(row.kind), column(longest.kind), "{}", row.name);
        }
    }

    #[test]
    fn session_pool_spreads_load_over_many_sessions() {
        let cfg = quick(ScenarioKind::SessionPool, SEED);
        let World::Kernel(live) = World::build(&cfg) else {
            panic!("pool is kernel-backed");
        };
        assert_eq!(live.clients.len(), cfg.tenants, "one session per tenant");
    }

    #[test]
    fn plane_dispatch_honours_the_drainer_knob() {
        // producers >> drainers by default; an explicit drainer count is
        // respected, and is a throughput knob, never a correctness knob.
        let cfg = quick(ScenarioKind::PlaneDispatch, SEED);
        assert_eq!(cfg.effective_drainers(), 1, "auto: max(1, threads/4)");
        let two = ScenarioConfig { drainers: 2, ..cfg };
        assert_eq!(two.effective_drainers(), 2);
        assert_eq!(split(&run_scenario(&two)), split(report_of(cfg.kind)));
        // Ring drainers are batch-trap callers — max(1, threads/2), knob or
        // no knob — and the crash drill's lone seat respawns itself.
        let (kind, threads) = (ScenarioKind::RingDispatch, 6);
        let ring = ScenarioConfig {
            kind,
            threads,
            ..two
        };
        assert_eq!(ring.effective_drainers(), 3);
        let kind = ScenarioKind::DrainerCrash;
        assert_eq!(ScenarioConfig { kind, ..cfg }.effective_drainers(), 1);
    }

    #[test]
    fn metrics_demo_lights_up_every_flavor() {
        let report = run_metrics_demo(7);
        // One kernel, one report: every dispatch flavor must have
        // recorded samples — a "(no samples)" row means a path lost its
        // instrumentation.
        let complete = !report.contains("(no samples)");
        assert!(complete, "a flavor recorded nothing:\n{report}");
        for flavor in Flavor::ALL {
            let name = flavor.name();
            assert!(report.contains(name), "missing {name} row:\n{report}");
        }
        assert!(report.contains("gate "), "missing counter line:\n{report}");
    }

    #[test]
    fn churn_bumps_epochs_but_never_changes_decisions() {
        // The hit *counters* are timing-dependent (the unpaced actors race
        // the workers), so they are not asserted against the unchurned
        // rows'; what coherence guarantees is the identical split, which
        // the table test checks for both rows. Here: the churn landed.
        let churn = report_of(ScenarioKind::Churn).epoch_bumps;
        assert!(churn > 0, "churn actor never detached");
        let storm = report_of(ScenarioKind::ChurnStorm).epoch_bumps;
        assert!(storm > 0, "the storm never cycled a session");
    }

    #[test]
    fn async_dispatch_multiplexes_logical_clients_over_few_threads() {
        // Far more logical clients than executor threads: the futures
        // frontend must still account for every request, and the allow /
        // deny split must be a pure function of the seed.
        let mut cfg = quick(ScenarioKind::AsyncDispatch, 9);
        // Auto sizing when the knob is unset: threads x 32 tasks.
        assert_eq!(cfg.effective_logical_clients(), 64);
        cfg.logical_clients = 48;
        assert_eq!(cfg.effective_logical_clients(), 48);
        let a = run_scenario(&cfg);
        assert_eq!(a.allows + a.denies, a.total_ops, "async lost requests");
        assert!(a.allows > 0 && a.denies > 0);
        assert_eq!(split(&a), split(&run_scenario(&cfg)));
    }
}
