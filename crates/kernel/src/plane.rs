//! [`DispatchPlane`]: dedicated drainer threads over a shared
//! [`RingSet`] — producers never trap at all.
//!
//! The sweep (`sys_smod_sweep`) lets one drainer serve many sessions per
//! syscall-equivalent; the plane supplies the drainers. It owns a
//! [`RingSet`], spawns a configurable number of OS threads (each backed
//! by a kernel process so sweep costs are attributed somewhere real),
//! and parks them when the set is idle. A producer attaches its
//! established session ([`DispatchPlane::attach`]), receives a
//! [`PlaneHandle`], and from then on interacts with the kernel **only
//! through memory**: `submit` pushes into the session's submission ring,
//! flags the readiness bit and unparks a drainer; `reap` pops
//! completions. The drainer threads do all the trapping, amortised
//! across every attached session.
//!
//! ```text
//!   producer threads                 dispatch plane
//!   ────────────────                 ──────────────
//!   handle.submit(...) ─┐
//!   handle.submit(...) ─┼─► RingSet ──ready bits──► drainer 0 ─┐ sys_smod_sweep
//!   handle.submit(...) ─┘   (SQ/CQ       ▲          drainer 1 ─┘ (resolve each
//!          ▲               per session)  │park/unpark             session once)
//!          └────────── handle.reap() ◄───┴──────────── completions
//! ```
//!
//! ## Idle drainers: poll, then park
//!
//! A drainer whose sweep found the set empty either **parks**, which
//! costs the next producer a futex wake but lets a streaming producer's
//! entries pile up into one sweep for free, or **polls**
//! [`RingSet::any_ready`] for a bounded window (`POLL_WINDOW`), which
//! costs the producer nothing and a core its idle time. A per-drainer
//! `PollController` picks the regime from the traffic. At most one
//! drainer per plane polls at a time, and none where it shares a single
//! CPU with the thread that started the plane (`room_to_poll`) or after a
//! sweep that left unserviceable slots flagged. The wake and the park are
//! the two halves of the plane's [`Doorbell`], whose doc holds the
//! argument that no doorbell is lost.
//!
//! ## Multi-tenant planes, dead drainers
//!
//! A plane configured with a [`QosPolicy`] ([`PlaneConfigBuilder::qos`])
//! hosts sessions from many tenants: [`DispatchPlane::attach_tenant`]
//! tags each slot with a [`TenantId`], and the shared [`SweepScheduler`]
//! plans a weighted-fair split between claim and drain.
//!
//! Every drainer sweeps through its own [`ClaimLedger`], and recovers its
//! own seat, the way the kernel tears a process down on its exit path
//! rather than on a timer. A drainer dies when a handler panics out of a
//! visit, or when its kernel process exits and its next sweep fails
//! `ESRCH`. Either way its exit guard hands back what the ledger still
//! holds claimed, adds the drainer's work to the plane's account and,
//! unless the plane is stopping, spawns the seat's next drainer. Nothing
//! watches a live drainer, so a long drain is never mistaken for a dead
//! one. Shutdown flags every slot once more and lets each drainer sweep
//! the set dry before joining.

use crate::batch::{DrainReport, DrainScratch};
use crate::cred::Credential;
use crate::doorbell::{room_to_poll, spin, thread_cpus, Doorbell, SpinnerClaim};
use crate::errno::Errno;
use crate::kernel::Kernel;
use crate::proc::Pid;
use crate::smod::SessionState;
use crate::SysResult;
use parking_lot::Mutex;
use secmod_obs::Flavor;
use secmod_qos::{QosPolicy, SweepScheduler, TenantId};
use secmod_ring::ring::CachePadded;
use secmod_ring::{
    ArgArena, ArgRef, ClaimLedger, RingPairConfig, RingSet, RingSlotId, SessionRings, SmodCallReq,
    SmodCallResp, SubmitError, SMOD_BATCH_DEFAULT_BUDGET,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a drainer in the polling regime watches the readiness bitmap
/// before it gives up and parks. Long enough to cover a caller's think
/// time between two calls, short enough that one wasted window (which
/// also ends the regime) costs less than a dozen futex wakes.
const POLL_WINDOW: Duration = Duration::from_micros(50);
/// A run of sweeps that served at most this many entries before the set
/// went empty is *shallow*: the signature of a caller who waits for each
/// answer, for whom a park buys no batching.
const SHALLOW_RUN: u64 = 2;
/// Consecutive shallow idle episodes that enter the polling regime.
const ENTER_AFTER: u32 = 8;
/// Work that shows up this soon after the set went empty would have been
/// swept with its successors had the drainer parked instead: the
/// signature of a streaming producer, whom a polling drainer only chases.
const FAST_ARRIVAL: Duration = Duration::from_micros(1);
/// Consecutive fast arrivals that leave the polling regime.
const LEAVE_AFTER: u32 = 8;
/// Entries drained per session per sweep (the anti-starvation budget).
const SESSION_BUDGET: usize = SMOD_BATCH_DEFAULT_BUDGET;
/// Capacity of the argument arena shared by a plane's sessions. Payloads
/// above [`secmod_ring::INLINE_ARG_MAX`] pass by `(offset, len)`
/// descriptor instead of through the ring slot. Each attached session's
/// region quota is the full arena (the arena itself is the shared
/// ceiling).
const ARENA_BYTES: usize = 1 << 20;

/// One idle episode of a drainer: the wait that began when a sweep found
/// nothing to drain, and the run of productive sweeps that followed it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct IdleEpisode {
    /// Entries served between the end of the wait and the next idle.
    served: u64,
    /// How long the wait lasted, polled or parked.
    arrival_gap: Duration,
    /// The wait was a poll window that expired with nothing ready.
    timed_out: bool,
}

/// Decides, from the idle episodes a drainer has just lived through,
/// whether its next wait polls or parks. Two regimes with hysteresis:
/// entering takes [`ENTER_AFTER`] shallow episodes in a row, leaving
/// takes one wasted window or [`LEAVE_AFTER`] fast arrivals in a row. A
/// single threshold on the run length flips a fan-out producer into the
/// chasing regime by itself (each chased sweep is shallow), which is why
/// there are two.
#[derive(Debug, Default)]
struct PollController {
    polling: bool,
    /// Consecutive episodes arguing for the other regime.
    streak: u32,
}

impl PollController {
    fn observe(&mut self, episode: IdleEpisode) {
        let (decisive, argues, needed) = if self.polling {
            let fast = episode.arrival_gap < FAST_ARRIVAL;
            (episode.timed_out, fast, LEAVE_AFTER)
        } else {
            // A wake-up that served nothing (a park timeout on an idle
            // plane, a doorbell the other drainer answered) says nothing
            // about the traffic.
            if episode.served == 0 {
                return;
            }
            (false, episode.served <= SHALLOW_RUN, ENTER_AFTER)
        };
        self.streak = if argues { self.streak + 1 } else { 0 };
        if decisive || self.streak >= needed {
            self.polling = !self.polling;
            self.streak = 0;
        }
    }
}

/// Sizing and behaviour of a [`DispatchPlane`].
#[derive(Clone, Debug)]
pub struct PlaneConfig {
    /// Dedicated drainer OS threads (min 1).
    pub drainers: usize,
    /// Maximum attached sessions (ring-set capacity).
    pub slots: usize,
    /// Ring pair sizing for each attached session.
    pub ring: RingPairConfig,
    /// How long an idle drainer parks before re-checking the set: the
    /// pace of retries on slots a sweep could not serve. Crate-visible:
    /// only the plane's own tests set it.
    pub(crate) park_timeout: Duration,
    /// Pin drainer `i` to core `i % available_parallelism` via
    /// `sched_setaffinity`. Best-effort: platforms without affinity
    /// support run unpinned.
    pub pin_drainers: bool,
    /// Multi-tenant scheduling policy. `None` drains every claimed slot
    /// in bitmap order; `Some` puts the weighted-fair scheduler between
    /// claim and drain.
    pub qos: Option<QosPolicy>,
}

impl Default for PlaneConfig {
    fn default() -> Self {
        PlaneConfig {
            drainers: 2,
            slots: 64,
            ring: RingPairConfig::default(),
            park_timeout: Duration::from_millis(1),
            pin_drainers: false,
            qos: None,
        }
    }
}

impl PlaneConfig {
    /// Start building a config from the defaults:
    /// `PlaneConfig::builder().drainers(2).slots(128).build()`.
    pub fn builder() -> PlaneConfigBuilder {
        PlaneConfigBuilder {
            cfg: PlaneConfig::default(),
        }
    }
}

/// Builder for [`PlaneConfig`] — each setter overrides one default.
#[derive(Clone, Debug)]
pub struct PlaneConfigBuilder {
    cfg: PlaneConfig,
}

impl PlaneConfigBuilder {
    /// Dedicated drainer OS threads (min 1).
    pub fn drainers(mut self, drainers: usize) -> Self {
        self.cfg.drainers = drainers;
        self
    }

    /// Maximum attached sessions (ring-set capacity).
    pub fn slots(mut self, slots: usize) -> Self {
        self.cfg.slots = slots;
        self
    }

    /// Ring pair sizing for each attached session.
    pub fn ring(mut self, ring: RingPairConfig) -> Self {
        self.cfg.ring = ring;
        self
    }

    /// Pin drainer threads to cores (best-effort).
    pub fn pin_drainers(mut self, pin_drainers: bool) -> Self {
        self.cfg.pin_drainers = pin_drainers;
        self
    }

    /// Multi-tenant scheduling policy (puts the scheduler between the
    /// drainers' claim and drain).
    pub fn qos(mut self, policy: QosPolicy) -> Self {
        self.cfg.qos = Some(policy);
        self
    }

    /// Finish the build.
    pub fn build(self) -> PlaneConfig {
        self.cfg
    }
}

/// Aggregate work done by the plane's drainers. Each drainer's exit guard
/// adds its share when the drainer ends, however it ends.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlaneStats {
    /// Sweeps run, across all drainers and the shutdown pass.
    pub sweeps: u64,
    /// Sweeps that found at least one ready session.
    pub productive_sweeps: u64,
    /// Entries drained.
    pub drained: u64,
    /// Entries completed successfully.
    pub completed: u64,
    /// Entries completed with an error.
    pub failed: u64,
    /// Drainers respawned by the exit guard of a drainer that died while
    /// the plane was running.
    pub drainer_restarts: u64,
    /// Readiness bits the drainers' exit guards handed back from their
    /// claim ledgers: the claims each drainer died holding.
    pub reclaimed: u64,
}

impl PlaneStats {
    fn absorb(&mut self, report: &DrainReport) {
        self.sweeps += 1;
        self.productive_sweeps += u64::from(report.sessions_ready > 0);
    }

    /// Add what the drains through `scratch` popped and answered: counted
    /// chunk by chunk, so it holds the answers of a sweep that unwound.
    fn answered(&mut self, scratch: &DrainScratch) {
        self.drained += scratch.drained;
        self.completed += scratch.completed;
        self.failed += scratch.failed;
    }

    fn merge(&mut self, s: &PlaneStats) {
        self.sweeps += s.sweeps;
        self.productive_sweeps += s.productive_sweeps;
        self.drained += s.drained;
        self.completed += s.completed;
        self.failed += s.failed;
        self.drainer_restarts += s.drainer_restarts;
        self.reclaimed += s.reclaimed;
    }
}

/// Per-drainer spawn parameters, reused by respawns.
struct DrainerParams {
    park_timeout: Duration,
    pin_drainers: bool,
    /// `available_parallelism` of the thread that started the plane.
    cores: usize,
    /// The CPUs that thread may run on. It stands in for the producers,
    /// whose threads the plane never sees.
    starter_cpus: affinity::CpuSet,
}

/// What a plane's drainers, producers and shutdown share. `stop`, which
/// every submission reads, sits on a cache line of its own, as the
/// doorbell's words do.
struct PlaneShared {
    kernel: Arc<Kernel>,
    set: Arc<RingSet>,
    /// The drainers' doorbell, one seat per drainer.
    doorbell: Doorbell,
    stop: CachePadded<AtomicBool>,
    /// See [`DispatchPlane::on_completions`].
    completion_hook: OnceLock<Arc<dyn Fn() + Send + Sync>>,
    /// The QoS scheduler, when the plane is multi-tenant.
    sched: Option<Arc<SweepScheduler>>,
    params: DrainerParams,
    /// Drainer join handles, shared so a dying drainer can push its
    /// replacement's.
    handles: Mutex<Vec<JoinHandle<()>>>,
    /// The work of every drainer that has ended, written by its exit
    /// guard.
    account: Mutex<PlaneStats>,
    /// Kernel process charged for the shutdown's inline sweep.
    reaper_pid: Pid,
}

impl PlaneShared {
    /// Tell the registered completion consumer (if any) that new
    /// completions were pushed.
    fn notify_completions(&self) {
        if let Some(hook) = self.completion_hook.get() {
            hook();
        }
    }
}

/// A running dispatch plane. Dropping it without calling
/// [`DispatchPlane::shutdown`] also stops and joins the drainers.
pub struct DispatchPlane {
    shared: Arc<PlaneShared>,
    ring: RingPairConfig,
    joined: bool,
}

impl std::fmt::Debug for DispatchPlane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DispatchPlane")
            .field("drainers", &self.shared.doorbell.seats())
            .field("attached", &self.shared.set.len())
            .field("multi_tenant", &self.shared.sched.is_some())
            .finish()
    }
}

impl DispatchPlane {
    /// Start a plane over `kernel`: spawn `cfg.drainers` drainer threads,
    /// each backed by a root-credentialled kernel process named
    /// `plane-drainer<i>` that the sweep's amortised fixed cost is
    /// charged to.
    pub fn start(kernel: Arc<Kernel>, cfg: PlaneConfig) -> SysResult<DispatchPlane> {
        let arena = ArgArena::with_metrics(ARENA_BYTES, Arc::clone(&kernel.metrics.arena));
        let set = Arc::new(RingSet::with_arena(cfg.slots, arena, ARENA_BYTES));
        let n = cfg.drainers.max(1);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let sched = cfg
            .qos
            .as_ref()
            .map(|p| Arc::new(SweepScheduler::new(p.clone())));
        // The reaper process exists for one job: charging the shutdown's
        // inline sweep somewhere real once no drainer is left to run it.
        let reaper_pid =
            kernel.spawn_process("plane-reaper", Credential::root(), vec![0x90; 4096], 2, 2)?;
        let plane = DispatchPlane {
            shared: Arc::new(PlaneShared {
                kernel: Arc::clone(&kernel),
                set,
                doorbell: Doorbell::new(n),
                stop: CachePadded(AtomicBool::new(false)),
                completion_hook: OnceLock::new(),
                sched,
                params: DrainerParams {
                    park_timeout: cfg.park_timeout,
                    pin_drainers: cfg.pin_drainers,
                    cores,
                    starter_cpus: thread_cpus(),
                },
                handles: Mutex::new(Vec::new()),
                account: Mutex::new(PlaneStats::default()),
                reaper_pid,
            }),
            ring: cfg.ring,
            joined: false,
        };
        // A failed spawn drops `plane`, which stops and joins the seats
        // already running.
        for seat in 0..n {
            spawn_drainer(&plane.shared, seat, 0)?;
        }
        Ok(plane)
    }

    /// Attach a client's established session in [`TenantId::DEFAULT`]
    /// and hand back the producer-side [`PlaneHandle`]: `EPERM` without a
    /// session, `EINVAL` before the handshake completes, `ENOMEM` when
    /// every slot is taken.
    pub fn attach(&self, client: Pid) -> SysResult<PlaneHandle> {
        self.attach_tenant(client, TenantId::DEFAULT)
    }

    /// [`DispatchPlane::attach`], with the slot tagged for `tenant` so
    /// the QoS sweep schedules it under that tenant's weight. On a plane
    /// without a QoS policy the tag is carried but ignored.
    pub fn attach_tenant(&self, client: Pid, tenant: TenantId) -> SysResult<PlaneHandle> {
        let session = self.shared.kernel.session_of(client).ok_or(Errno::EPERM)?;
        if session.state() != SessionState::Established {
            return Err(Errno::EINVAL);
        }
        let slot = self
            .shared
            .set
            .register_for_tenant(session.id.0, client.0, tenant.0, self.ring)
            .ok_or(Errno::ENOMEM)?;
        let rings = self.shared.set.get(slot).expect("freshly registered slot");
        Ok(PlaneHandle {
            shared: Arc::clone(&self.shared),
            slot,
            rings,
        })
    }

    /// The plane's shared ring set, for callers that inspect or sweep it
    /// directly; producers go through [`DispatchPlane::attach`].
    pub fn ring_set(&self) -> Arc<RingSet> {
        Arc::clone(&self.shared.set)
    }

    /// Register the plane's one completion hook, called on a drainer
    /// thread after every sweep that pushed completions and once more at
    /// shutdown. Only the first call registers (and returns `true`), so
    /// drainers read the hook with one load and no lock. Several drainers
    /// may run it at once; it must not block beyond short mutex holds.
    pub fn on_completions(&self, hook: Arc<dyn Fn() + Send + Sync>) -> bool {
        self.shared.completion_hook.set(hook).is_ok()
    }

    /// Currently attached sessions.
    pub fn attached(&self) -> usize {
        self.shared.set.len()
    }

    /// The QoS scheduler, when the plane was started with a policy.
    /// Tests and reports read per-tenant lanes through
    /// [`SweepScheduler::metrics`].
    pub fn scheduler(&self) -> Option<Arc<SweepScheduler>> {
        self.shared.sched.clone()
    }

    /// Stop the drainers (after one final forced sweep of every attached
    /// slot), join them, and return their aggregate stats.
    pub fn shutdown(mut self) -> PlaneStats {
        self.stop_and_join()
    }

    fn stop_and_join(&mut self) -> PlaneStats {
        self.joined = true;
        self.shared.stop.0.store(true, Ordering::Release);
        self.shared.set.mark_all_ready();
        // Unconditionally: a ring skips the parked while a spinner polls.
        self.shared.doorbell.unpark_all();
        // A drainer that dies now pushes its replacement's handle before
        // its join returns, and the lock is released before each join, so
        // the loop sees every drainer. A panicked one's exit guard has run.
        let next = || self.shared.handles.lock().pop();
        while let Some(handle) = next() {
            let _ = handle.join();
        }
        let mut stats = *self.shared.account.lock();
        // Finish inline, with no scheduler, whatever is still flagged
        // (slots a last scheduled sweep deferred, a seat whose respawn
        // failed): no drainer remains to do it.
        let ledger = self.shared.set.claim_ledger();
        let mut scratch = DrainScratch::default();
        while self.shared.set.any_ready() {
            let Ok(report) = self.shared.kernel.sweep_claimed(
                self.shared.reaper_pid,
                &self.shared.set,
                &ledger,
                None,
                SESSION_BUDGET,
                Flavor::Plane,
                &mut scratch,
            ) else {
                break;
            };
            stats.absorb(&report);
            if report.drained == 0 {
                break;
            }
        }
        stats.answered(&scratch);
        // This thread ran the last sweeps, so it hands their answers on.
        self.shared.notify_completions();
        stats
    }
}

impl Drop for DispatchPlane {
    fn drop(&mut self) {
        if !self.joined {
            self.stop_and_join();
        }
    }
}

/// Spawn the drainer for `seat` and push its join handle. Generation 0 is
/// the plane's start; each respawn carries the next generation in the
/// process name, so the cost model attributes each drainer separately.
/// `EAGAIN` when no thread can be spawned.
fn spawn_drainer(shared: &Arc<PlaneShared>, seat: usize, generation: u64) -> SysResult<()> {
    let name = if generation == 0 {
        format!("plane-drainer{seat}")
    } else {
        format!("plane-drainer{seat}r{generation}")
    };
    let pid = shared
        .kernel
        .spawn_process(&name, Credential::root(), vec![0x90; 4096], 2, 2)?;
    let ctx = DrainerCtx {
        pid,
        seat,
        generation,
        ledger: shared.set.claim_ledger(),
        scratch: DrainScratch::default(),
        stats: PlaneStats::default(),
        pin_core: shared
            .params
            .pin_drainers
            .then_some(seat % shared.params.cores),
    };
    let shared_for_thread = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name(format!("smod-drainer{seat}"))
        .spawn(move || {
            // Armed inside the thread: a spawn that fails must not run
            // the exit path of a drainer that never ran.
            let mut guard = ExitGuard {
                shared: shared_for_thread,
                ctx,
            };
            guard.shared.doorbell.seat(seat, std::thread::current());
            drainer_loop(&guard.shared, &mut guard.ctx);
        })
        .map_err(|_| Errno::EAGAIN)?;
    shared.handles.lock().push(handle);
    Ok(())
}

/// Everything one drainer owns.
struct DrainerCtx {
    pid: Pid,
    seat: usize,
    generation: u64,
    ledger: ClaimLedger,
    pin_core: Option<usize>,
    /// The drain buffers, and the count of what this drainer has
    /// answered: its exit guard reads that count however the drainer
    /// ends.
    scratch: DrainScratch,
    /// The sweeps this drainer has run, handed to the plane's account by
    /// its exit guard with the scratch's count.
    stats: PlaneStats,
}

/// A drainer thread's exit path. It drops however `drainer_loop` ends:
/// a panic unwinding out of a visit, the return after a sweep refused
/// because the drainer's process exited, or the exit after the stop-time
/// sweep. The loop's doorbell marks, its spinner claim and its idle
/// count, are its locals: they are given back before the guard runs.
struct ExitGuard {
    shared: Arc<PlaneShared>,
    ctx: DrainerCtx,
}

impl Drop for ExitGuard {
    fn drop(&mut self) {
        let shared = &self.shared;
        // Whatever the ledger holds, the drainer died holding.
        self.ctx.stats.reclaimed = shared.set.reclaim(&self.ctx.ledger) as u64;
        self.ctx.stats.answered(&self.ctx.scratch);
        // A failed respawn leaves the seat empty; the other seats, or the
        // shutdown's inline sweep, drain what it would have.
        let stopping = shared.stop.0.load(Ordering::Acquire);
        self.ctx.stats.drainer_restarts = u64::from(
            !stopping && spawn_drainer(shared, self.ctx.seat, self.ctx.generation + 1).is_ok(),
        );
        shared.account.lock().merge(&self.ctx.stats);
        if !stopping {
            // The reclaimed work, and any doorbell the dead drainer's
            // spinner claim silenced, must not wait for the next doorbell.
            shared.doorbell.ring();
        }
    }
}

fn drainer_loop(shared: &PlaneShared, ctx: &mut DrainerCtx) {
    if let Some(core) = ctx.pin_core {
        // Best-effort: a refused mask leaves the drainer migratable.
        let _ = affinity::pin_to_core(core);
    }
    let park_timeout = shared.params.park_timeout;
    let may_poll = room_to_poll(&thread_cpus(), &shared.params.starter_cpus);
    let mut controller = PollController::default();
    let mut episode = IdleEpisode::default();
    // Held from the poll that takes it through the sweeps its hits start:
    // producers go on skipping the unpark, and that is safe because this
    // drainer sweeps again before it parks.
    let mut spinner: Option<SpinnerClaim<'_>> = None;
    // `Err` means the drainer's own process has exited: end this drainer,
    // and its exit guard starts the seat over on a fresh one.
    while let Ok(drained) = sweep_once(shared, ctx) {
        if drained > 0 {
            episode.served += drained;
            continue;
        }
        // Post-stop, a no-progress sweep means the set is as dry as the
        // drainers can get it; the shutdown's inline pass does the rest.
        if shared.stop.0.load(Ordering::Acquire) {
            break;
        }
        // Idle: the episode that just ended picks this one's regime.
        controller.observe(std::mem::take(&mut episode));
        let idle_from = Instant::now();
        // Bits still set after a sweep that drained nothing are on slots
        // it could not serve (a full completion ring, a deferred tenant):
        // polling them would peg a core, so those go to the timed park.
        if may_poll && controller.polling && !shared.set.any_ready() {
            spinner = spinner.or_else(|| shared.doorbell.claim_spinner());
            if spinner.is_some() {
                let hit = spin(POLL_WINDOW, idle_from, || {
                    (shared.set.any_ready() || shared.stop.0.load(Ordering::Acquire)).then_some(())
                });
                if hit.is_some() {
                    shared.kernel.metrics.drainer_spin_hits.incr();
                    episode.arrival_gap = idle_from.elapsed();
                    continue;
                }
                shared.kernel.metrics.drainer_spin_timeouts.incr();
                episode.timed_out = true;
            }
        }
        // The doorbell's waiter half: give the claim back, announce, look
        // once more (the rescue sweep), park.
        spinner = None;
        let parking = shared.doorbell.announce();
        let mut rescued = false;
        if shared.set.any_ready() {
            // A doorbell that raced the announcement, or flags on slots
            // no sweep can serve: only a sweep tells them apart. Whatever
            // is flagged after this one's claim has seen `idle > 0`.
            let drained = sweep_once(shared, ctx);
            episode.served += drained.unwrap_or(0);
            rescued = drained != Ok(0);
        }
        if !rescued {
            // The timeout paces retries on unserviceable slots.
            shared.kernel.metrics.drainer_parks.incr();
            std::thread::park_timeout(park_timeout);
            shared.kernel.metrics.drainer_unparks.incr();
        }
        drop(parking);
        episode.arrival_gap = idle_from.elapsed();
    }
}

/// One sweep of the set on behalf of drainer `ctx`, folded into its
/// stats; returns the entries it answered.
fn sweep_once(shared: &PlaneShared, ctx: &mut DrainerCtx) -> SysResult<u64> {
    let report = shared.kernel.sweep_claimed(
        ctx.pid,
        &shared.set,
        &ctx.ledger,
        shared.sched.as_deref(),
        SESSION_BUDGET,
        Flavor::Plane,
        &mut ctx.scratch,
    )?;
    ctx.stats.absorb(&report);
    if report.drained > 0 {
        shared.notify_completions();
    }
    Ok(report.drained as u64)
}

/// A producer's attachment to the plane: submit and reap without ever
/// trapping. Dropping the handle detaches the slot from the set.
pub struct PlaneHandle {
    shared: Arc<PlaneShared>,
    slot: RingSlotId,
    rings: Arc<SessionRings>,
}

impl std::fmt::Debug for PlaneHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlaneHandle")
            .field("slot", &self.slot)
            .field("session", &self.rings.session)
            .finish()
    }
}

impl PlaneHandle {
    /// Submit one call: a one-entry [`SubmitBatch`]. The backpressure
    /// contract: [`SubmitError::Full`] means the submission ring has no
    /// free slot *right now*, but the slot is flagged and the drainers are
    /// awake, so space reappears as the in-flight entries complete: reap,
    /// yield and retry. [`SubmitError::Detached`] means the plane has shut
    /// down and retrying is useless.
    pub fn submit(&self, proc_id: u32, user_data: u64, args: Vec<u8>) -> Result<(), SubmitError> {
        self.batch().push(proc_id, user_data, args)
    }

    /// Begin a coalesced submission batch: N entries pay one readiness
    /// bit and at most one unpark, where N calls to
    /// [`PlaneHandle::submit`] paid N of each.
    pub fn batch(&self) -> SubmitBatch<'_> {
        SubmitBatch {
            handle: self,
            pending: 0,
        }
    }

    /// Submit `calls` (`(proc_id, user_data, args)`) with a single
    /// doorbell, returning how many entries were accepted. `Ok(n)` with
    /// `n < calls.len()` means entry `n` bounced off a full submission
    /// ring (one `ring_full_bounces` tick) after the doorbell rang for the
    /// accepted prefix: reap and retry `calls[n..]`. `Err` is only ever
    /// [`SubmitError::Detached`].
    pub fn submit_many(&self, calls: &[(u32, u64, &[u8])]) -> Result<usize, SubmitError> {
        let mut batch = self.batch();
        for (accepted, (proc_id, user_data, args)) in calls.iter().enumerate() {
            let args = ArgRef::place(args, self.rings.arena.as_ref());
            match batch.push_ref(*proc_id, *user_data, args) {
                Ok(()) => {}
                // `push` already flushed the accepted prefix.
                Err(SubmitError::Full(_)) => return Ok(accepted),
                Err(err) => return Err(err),
            }
        }
        batch.flush();
        Ok(calls.len())
    }

    /// Pop one completion, if any. Records nothing (the drainer already
    /// did), so a reap touches no line but the ring's.
    pub fn reap(&self) -> Option<SmodCallResp> {
        self.rings.cq.pop()
    }

    /// Entries currently queued for dispatch (approximate).
    pub fn pending(&self) -> usize {
        self.rings.sq.len()
    }

    /// This attachment's slot in the plane's ring set.
    pub fn slot(&self) -> RingSlotId {
        self.slot
    }

    /// The attachment's shared ring pair (the async frontend reaps the
    /// completion ring through this without going via the set).
    pub fn rings(&self) -> &Arc<SessionRings> {
        &self.rings
    }

    /// Allocate the next per-session `user_data` cookie (see
    /// [`SessionRings::alloc_user_data`]).
    pub fn alloc_user_data(&self) -> u64 {
        self.rings.alloc_user_data()
    }
}

impl Drop for PlaneHandle {
    fn drop(&mut self) {
        self.shared.set.deregister(self.slot);
    }
}

/// A producer-local submission batch (see [`PlaneHandle::batch`]): pushes
/// go straight into the submission ring, and the doorbell rings at
/// [`SubmitBatch::flush`], at the guard's drop, or at the first bounce. A
/// batch can delay the doorbell, never lose it.
#[derive(Debug)]
pub struct SubmitBatch<'a> {
    handle: &'a PlaneHandle,
    /// Entries pushed since the last doorbell.
    pending: usize,
}

impl SubmitBatch<'_> {
    /// Push one call into the submission ring *without* ringing the
    /// doorbell. Large payloads go through the session's arena region,
    /// and fall back to by-value when its quota is spent. On either
    /// [`SubmitError`] the accepted prefix is flushed first, and a `Full`
    /// bounce records one `ring_full_bounces` tick.
    pub fn push(&mut self, proc_id: u32, user_data: u64, args: Vec<u8>) -> Result<(), SubmitError> {
        let args = ArgRef::place_vec(args, self.handle.rings.arena.as_ref());
        self.push_ref(proc_id, user_data, args)
    }

    /// [`SubmitBatch::push`] of an already placed argument block, so a
    /// borrowed slice reaches the ring (or the arena) with no owned copy.
    fn push_ref(&mut self, proc_id: u32, user_data: u64, args: ArgRef) -> Result<(), SubmitError> {
        let req = SmodCallReq {
            session: self.handle.rings.session,
            proc_id,
            user_data,
            args,
        };
        if self.handle.shared.stop.0.load(Ordering::Acquire) {
            self.flush();
            return Err(SubmitError::Detached(req));
        }
        match self.handle.rings.sq.push(req) {
            Ok(()) => {
                self.pending += 1;
                Ok(())
            }
            Err(req) => {
                // Ring the doorbell even if nothing is pending: the ring
                // being full means in-flight work this drain will clear.
                self.pending = 0;
                self.handle.shared.set.mark_ready(self.handle.slot);
                self.handle.shared.doorbell.ring();
                self.handle.shared.kernel.metrics.ring_full_bounces.incr();
                Err(SubmitError::Full(req))
            }
        }
    }

    /// Entries accepted since the last doorbell.
    pub fn pending(&self) -> usize {
        self.pending
    }

    /// Ring the doorbell for everything pushed since the last flush:
    /// one readiness bit, at most one drainer unpark. Returns how many
    /// entries the flush covered (0 = no-op, no wakeup).
    pub fn flush(&mut self) -> usize {
        let n = std::mem::take(&mut self.pending);
        if n > 0 {
            self.handle.shared.set.mark_ready(self.handle.slot);
            self.handle.shared.doorbell.ring();
        }
        n
    }
}

impl Drop for SubmitBatch<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::tests::kernel_with_clients;
    use crate::batch::BATCH_CHUNK;
    use std::sync::atomic::AtomicUsize;

    fn plane_fixture(
        n_clients: usize,
        drainers: usize,
    ) -> (Arc<Kernel>, DispatchPlane, Vec<Pid>, u32) {
        let (k, _m, clients, incr) = kernel_with_clients(None, n_clients);
        let kernel = Arc::new(k);
        let plane = DispatchPlane::start(
            Arc::clone(&kernel),
            PlaneConfig {
                drainers,
                ..PlaneConfig::default()
            },
        )
        .unwrap();
        (kernel, plane, clients, incr)
    }

    #[test]
    fn producers_dispatch_without_ever_trapping() {
        const PER_PRODUCER: u64 = 500;
        let (kernel, plane, clients, incr) = plane_fixture(4, 2);
        let handles: Vec<PlaneHandle> = clients.iter().map(|&c| plane.attach(c).unwrap()).collect();
        std::thread::scope(|s| {
            for handle in &handles {
                s.spawn(move || {
                    let mut received = 0u64;
                    let mut sent = 0u64;
                    let mut sum = 0u64;
                    while received < PER_PRODUCER {
                        if sent < PER_PRODUCER
                            && handle
                                .submit(incr, sent, sent.to_le_bytes().to_vec())
                                .is_ok()
                        {
                            sent += 1;
                        }
                        while let Some(resp) = handle.reap() {
                            assert!(resp.is_ok());
                            sum += u64::from_le_bytes(resp.into_ret().try_into().unwrap());
                            received += 1;
                        }
                    }
                    // Σ (i + 1) for i in 0..N
                    assert_eq!(sum, PER_PRODUCER * (PER_PRODUCER + 1) / 2);
                });
            }
        });
        drop(handles);
        let stats = plane.shutdown();
        assert_eq!(stats.drained, 4 * PER_PRODUCER);
        assert_eq!(stats.completed, 4 * PER_PRODUCER);
        assert_eq!(stats.failed, 0);
        // The producers' processes never paid a trap: every simulated cost
        // on their pids came from the drained entries (policy/copy/body),
        // all charged under the drainers' sweeps. The drainer processes
        // carry the fixed costs.
        for i in 0..2 {
            let drainer = pid_named(&kernel, &format!("plane-drainer{i}"));
            let drainer_ns = kernel.procs.with(drainer, |p| p.cpu_time_ns).unwrap();
            assert!(drainer_ns > 0, "drainer {i} never charged a sweep");
        }
    }

    #[test]
    fn attach_validates_sessions_and_capacity() {
        let (kernel, plane, clients, _incr) = plane_fixture(1, 1);
        // No session at all.
        let loner = kernel
            .spawn_process("loner", Credential::user(5, 5), vec![0x90; 4096], 2, 2)
            .unwrap();
        assert_eq!(plane.attach(loner).unwrap_err(), Errno::EPERM);
        // A session's handle is a member of the pair, not its client.
        let session_handle = kernel.session_of(clients[0]).unwrap().handle;
        assert_eq!(plane.attach(session_handle).unwrap_err(), Errno::EPERM);
        // Attach, fill the (64-slot) set, and overflow it.
        let handle = plane.attach(clients[0]).unwrap();
        let mut extras = Vec::new();
        loop {
            match plane.attach(clients[0]) {
                Ok(h) => extras.push(h),
                Err(e) => {
                    assert_eq!(e, Errno::ENOMEM);
                    break;
                }
            }
        }
        assert_eq!(plane.attached(), 64);
        drop(extras);
        assert_eq!(plane.attached(), 1, "dropping handles frees slots");
        drop(handle);
        assert_eq!(plane.attached(), 0);
    }

    #[test]
    fn shutdown_drains_work_submitted_but_not_yet_swept() {
        let (_kernel, plane, clients, incr) = plane_fixture(1, 1);
        let handle = plane.attach(clients[0]).unwrap();
        for i in 0..32u64 {
            handle.submit(incr, i, i.to_le_bytes().to_vec()).unwrap();
        }
        let stats = plane.shutdown();
        assert_eq!(stats.completed, 32, "shutdown must sweep the set dry");
        for i in 0..32u64 {
            let resp = handle.reap().expect("completion after shutdown");
            assert_eq!(resp.user_data, i);
            assert!(resp.is_ok());
        }
        // Post-shutdown submission is teardown, not backpressure.
        match handle.submit(incr, 99, Vec::new()) {
            Err(SubmitError::Detached(req)) => assert_eq!(req.user_data, 99),
            other => panic!("expected Detached after shutdown, got {other:?}"),
        }
    }

    #[test]
    fn batched_submission_defers_the_doorbell_until_flush() {
        let (_kernel, plane, clients, incr) = plane_fixture(1, 1);
        let handle = plane.attach(clients[0]).unwrap();
        let set = plane.ring_set();
        let mut batch = handle.batch();
        for i in 0..8u64 {
            batch.push(incr, i, i.to_le_bytes().to_vec()).unwrap();
        }
        assert_eq!(batch.pending(), 8);
        assert!(
            !set.any_ready(),
            "entries must stay invisible to the sweep until the doorbell"
        );
        assert_eq!(batch.flush(), 8);
        assert_eq!(batch.flush(), 0, "an empty flush is a no-op");
        drop(batch);
        let mut sum = 0u64;
        let mut received = 0;
        while received < 8 {
            while let Some(resp) = handle.reap() {
                assert!(resp.is_ok());
                sum += u64::from_le_bytes(resp.into_ret().try_into().unwrap());
                received += 1;
            }
            std::thread::yield_now();
        }
        // Σ (i + 1) for i in 0..8
        assert_eq!(sum, 36);
    }

    #[test]
    fn dropping_a_batch_flushes_the_doorbell() {
        let (_kernel, plane, clients, incr) = plane_fixture(1, 1);
        let handle = plane.attach(clients[0]).unwrap();
        {
            let mut batch = handle.batch();
            for i in 0..4u64 {
                batch.push(incr, i, i.to_le_bytes().to_vec()).unwrap();
            }
            // No explicit flush: the drop guarantee must deliver.
        }
        let mut received = 0;
        while received < 4 {
            while let Some(resp) = handle.reap() {
                assert!(resp.is_ok());
                received += 1;
            }
            std::thread::yield_now();
        }
    }

    #[test]
    fn submit_many_counts_one_bounce_per_full_event() {
        // A 4-deep submission ring with the doorbell deferred: the whole
        // prefix fits silently, the first overflow flushes and bounces.
        let (k, _m, clients, incr) = kernel_with_clients(None, 1);
        let kernel = Arc::new(k);
        let plane = DispatchPlane::start(
            Arc::clone(&kernel),
            PlaneConfig {
                drainers: 1,
                ring: secmod_ring::RingPairConfig {
                    submission: 4,
                    completion: 64,
                },
                ..PlaneConfig::default()
            },
        )
        .unwrap();
        let handle = plane.attach(clients[0]).unwrap();
        let payloads: Vec<Vec<u8>> = (0..6u64).map(|i| i.to_le_bytes().to_vec()).collect();
        let calls: Vec<(u32, u64, &[u8])> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| (incr, i as u64, p.as_slice()))
            .collect();
        let bounces0 = kernel.metrics.ring_full_bounces.get();
        let accepted = handle.submit_many(&calls).unwrap();
        assert!(
            accepted < calls.len(),
            "a 4-deep ring cannot take 6 entries in one batch"
        );
        assert_eq!(
            kernel.metrics.ring_full_bounces.get(),
            bounces0 + 1,
            "one bounce event, not one per rejected entry"
        );
        // The Full contract: the bounce rang the doorbell, so space
        // reappears — reap and resubmit the remainder.
        let mut done = accepted;
        let mut received = 0;
        let mut sum = 0u64;
        while received < calls.len() {
            if done < calls.len() {
                if let Ok(n) = handle.submit_many(&calls[done..]) {
                    done += n;
                }
            }
            while let Some(resp) = handle.reap() {
                assert!(resp.is_ok());
                sum += u64::from_le_bytes(resp.into_ret().try_into().unwrap());
                received += 1;
            }
            std::thread::yield_now();
        }
        // Σ (i + 1) for i in 0..6
        assert_eq!(sum, 21);
        plane.shutdown();
    }

    #[test]
    fn completion_hook_fires_on_drain_and_shutdown() {
        let (_kernel, plane, clients, incr) = plane_fixture(1, 1);
        let fired = Arc::new(AtomicUsize::new(0));
        {
            let fired = Arc::clone(&fired);
            plane.on_completions(Arc::new(move || {
                fired.fetch_add(1, Ordering::AcqRel);
            }));
        }
        let handle = plane.attach(clients[0]).unwrap();
        handle.submit(incr, 0, 0u64.to_le_bytes().to_vec()).unwrap();
        // The drainer must notify once the completion lands.
        while handle.reap().is_none() {
            std::thread::yield_now();
        }
        while fired.load(Ordering::Acquire) == 0 {
            std::thread::yield_now();
        }
        let before_shutdown = fired.load(Ordering::Acquire);
        plane.shutdown();
        assert!(
            fired.load(Ordering::Acquire) > before_shutdown,
            "shutdown must fire the hook one final time"
        );
    }

    #[test]
    fn a_second_completion_hook_is_refused() {
        let (_kernel, plane, clients, incr) = plane_fixture(1, 1);
        let counting = |count: &Arc<AtomicUsize>| -> Arc<dyn Fn() + Send + Sync> {
            let count = Arc::clone(count);
            Arc::new(move || {
                count.fetch_add(1, Ordering::AcqRel);
            })
        };
        let (first, second) = (Arc::default(), Arc::default());
        assert!(plane.on_completions(counting(&first)));
        assert!(
            !plane.on_completions(counting(&second)),
            "a plane takes one hook for its whole life"
        );
        let handle = plane.attach(clients[0]).unwrap();
        round_trip(&handle, incr, 0);
        drop(handle);
        plane.shutdown();
        assert!(first.load(Ordering::Acquire) > 0, "the first hook stays");
        assert_eq!(
            second.load(Ordering::Acquire),
            0,
            "the refused one never runs"
        );
    }

    #[test]
    fn qos_plane_serves_every_tenant_and_fills_their_lanes() {
        use secmod_qos::TenantSpec;
        const PER_PRODUCER: u64 = 200;
        let (k, _m, clients, incr) = kernel_with_clients(None, 2);
        let kernel = Arc::new(k);
        let plane = DispatchPlane::start(
            Arc::clone(&kernel),
            PlaneConfig::builder()
                .drainers(2)
                .qos(QosPolicy::weighted_fair([
                    TenantSpec::new(1, 1),
                    TenantSpec::new(2, 1),
                ]))
                .build(),
        )
        .unwrap();
        let handles: Vec<PlaneHandle> = clients
            .iter()
            .zip([TenantId(1), TenantId(2)])
            .map(|(&c, t)| plane.attach_tenant(c, t).unwrap())
            .collect();
        std::thread::scope(|s| {
            for handle in &handles {
                s.spawn(move || {
                    let mut received = 0u64;
                    let mut sent = 0u64;
                    while received < PER_PRODUCER {
                        if sent < PER_PRODUCER
                            && handle
                                .submit(incr, sent, sent.to_le_bytes().to_vec())
                                .is_ok()
                        {
                            sent += 1;
                        }
                        while let Some(resp) = handle.reap() {
                            assert!(resp.is_ok());
                            received += 1;
                        }
                    }
                });
            }
        });
        let sched = plane.scheduler().expect("qos plane has a scheduler");
        drop(handles);
        let stats = plane.shutdown();
        assert_eq!(stats.completed, 2 * PER_PRODUCER);
        assert_eq!(stats.failed, 0);
        for tenant in [1u32, 2] {
            let lane = sched.metrics().lane(tenant);
            assert_eq!(
                lane.completed.get(),
                PER_PRODUCER,
                "tenant{tenant} lane under-counts"
            );
            assert!(lane.drained.get() >= PER_PRODUCER);
        }
    }

    /// Queue call `id` on `handle`'s slot and flag the slot, ringing no
    /// doorbell: a parked drainer sleeps on.
    fn submit_quietly(
        plane: &DispatchPlane,
        handle: &PlaneHandle,
        incr: u32,
        id: u64,
        args: Vec<u8>,
    ) {
        let req = SmodCallReq {
            session: handle.rings().session,
            proc_id: incr,
            user_data: id,
            args: ArgRef::place_vec(args, None),
        };
        assert!(plane.shared.set.submit(handle.slot(), req).is_ok());
    }

    #[test]
    fn crashed_drainer_is_reclaimed_respawned_and_no_entry_is_lost() {
        // A drainer dies the way a real one does: a handler panics out of
        // a visit. Its sweep claims slots A and B with one word swap and
        // dies inside A's visit, with B's claim still in its ledger and
        // A's drain flag held: only its exit guard can give them back.
        const ROUND_TRIPS: u64 = 4;
        const GOOD: u64 = 16;
        const LATER: u64 = ROUND_TRIPS + GOOD;
        // The ledger is the sweep's, not the scheduler's: a plane with
        // no policy recovers exactly like one with.
        for qos in [None, Some(QosPolicy::weighted_fair([]))] {
            let (k, _m, clients, incr) = kernel_with_clients(None, 2);
            let plane = DispatchPlane::start(
                Arc::new(k),
                PlaneConfig {
                    drainers: 1,
                    // Only the wake below, or the respawn, sweeps.
                    park_timeout: Duration::from_secs(60),
                    qos: qos.clone(),
                    ..PlaneConfig::default()
                },
            )
            .unwrap();
            // A's bit sits below B's, so the sweep visits A first.
            let a = plane.attach(clients[0]).unwrap();
            let b = plane.attach(clients[1]).unwrap();
            for i in 0..ROUND_TRIPS {
                round_trip(&b, incr, i);
            }
            let shared = &plane.shared;
            while shared.doorbell.idle.0.load(Ordering::Acquire) == 0
                || shared.doorbell.spinning.0.load(Ordering::Acquire)
            {
                std::thread::yield_now();
            }
            // An empty argument block makes the fixture's body panic
            // slicing its eight bytes.
            submit_quietly(&plane, &a, incr, u64::MAX, Vec::new());
            for id in ROUND_TRIPS..LATER {
                submit_quietly(&plane, &b, incr, id, id.to_le_bytes().to_vec());
            }
            shared.doorbell.unpark_all();
            let mut good = Ledger::new(ROUND_TRIPS..LATER);
            while good.answered < good.total() {
                good.reap(&b, false);
            }
            // Served only if the guard cleared the drain flag A's visit
            // died holding; FIFO puts the poison's answer, if any, first.
            a.submit(incr, LATER, LATER.to_le_bytes().to_vec()).unwrap();
            assert_eq!(
                next_completion(&a).user_data,
                LATER,
                "the poison was answered ({qos:?})"
            );
            let stats = plane.shutdown();
            assert!(
                a.reap().is_none() && b.reap().is_none(),
                "an entry was answered twice ({qos:?})"
            );
            assert_eq!(stats.drainer_restarts, 1, "{qos:?}");
            assert!(stats.reclaimed >= 1, "claim never reclaimed ({qos:?})");
            // The dead drainer's round trips are in the account too.
            assert_eq!(stats.completed, LATER + 1, "{qos:?}");
            assert_eq!(stats.failed, 0, "{qos:?}");
        }
    }

    #[test]
    fn an_exited_drainer_is_respawned_and_no_entry_is_lost() {
        const CALLS: u64 = 200;
        let (k, _m, clients, incr) = kernel_with_clients(None, 1);
        let kernel = Arc::new(k);
        let plane = DispatchPlane::start(
            Arc::clone(&kernel),
            PlaneConfig {
                drainers: 1,
                park_timeout: Duration::from_secs(60),
                ..PlaneConfig::default()
            },
        )
        .unwrap();
        let handle = plane.attach(clients[0]).unwrap();
        let mut first = Ledger::new(0..CALLS / 2);
        stream(&handle, incr, &mut first, 1, 1, 0);
        let drainer = pid_named(&kernel, "plane-drainer0");
        kernel.sys_exit(drainer, 0).unwrap();
        let cpu_time = |pid| kernel.procs.with(pid, |p| p.cpu_time_ns).unwrap();
        let charged = cpu_time(drainer);
        // The exited drainer's next sweep is refused, and its exit guard
        // hands the seat to a fresh process.
        let mut second = Ledger::new(CALLS / 2..CALLS);
        stream(&handle, incr, &mut second, 1, 1, 0);
        let respawned = pid_named(&kernel, "plane-drainer0r1");
        assert!(kernel.procs.with(respawned, |p| p.is_alive()).unwrap());
        assert_eq!(cpu_time(drainer), charged, "the exited drainer swept on");
        let stats = plane.shutdown();
        assert!(handle.reap().is_none(), "an entry was answered twice");
        assert_eq!(stats.drainer_restarts, 1);
        assert_eq!(stats.completed, CALLS);
    }

    /// Whether (unpinned) drainers started from this thread may poll.
    fn host_can_poll() -> bool {
        let here = thread_cpus();
        room_to_poll(&here, &here)
    }

    #[test]
    fn polling_needs_a_second_cpu_between_drainer_and_starter() {
        let cpus = |list: &[usize]| {
            let mut set = affinity::CpuSet::empty();
            for &cpu in list {
                set.add(cpu).unwrap();
            }
            set
        };
        // A one-CPU host, and a drainer that inherited its pinned
        // starter's only CPU: no room.
        assert!(!room_to_poll(&cpus(&[0]), &cpus(&[0])));
        assert!(!room_to_poll(&cpus(&[70]), &cpus(&[70])));
        // A drainer that pinned itself away from its pinned starter, and
        // the usual case of neither being confined.
        assert!(room_to_poll(&cpus(&[0]), &cpus(&[1])));
        assert!(room_to_poll(&cpus(&[0, 1]), &cpus(&[0, 1])));
        assert!(room_to_poll(&cpus(&[3]), &cpus(&[2, 3])));
    }

    fn spins(kernel: &Kernel) -> u64 {
        kernel.metrics.drainer_spin_hits.get() + kernel.metrics.drainer_spin_timeouts.get()
    }

    /// The next answer on `handle`, waited for up to [`ANSWER_LIMIT`].
    fn next_completion(handle: &PlaneHandle) -> SmodCallResp {
        let from = Instant::now();
        loop {
            match handle.reap() {
                Some(resp) => break resp,
                None => {
                    assert!(
                        from.elapsed() < ANSWER_LIMIT,
                        "no answer for {ANSWER_LIMIT:?}"
                    );
                    std::thread::yield_now();
                }
            }
        }
    }

    /// The pid of the kernel process called `name`.
    fn pid_named(kernel: &Kernel, name: &str) -> Pid {
        kernel
            .procs
            .pids()
            .into_iter()
            .find(|&p| {
                kernel
                    .procs
                    .with(p, |proc_| proc_.name == name)
                    .unwrap_or(false)
            })
            .unwrap_or_else(|| panic!("no process named {name}"))
    }

    /// One depth-1 round trip: submit, wait for the answer.
    fn round_trip(handle: &PlaneHandle, incr: u32, i: u64) {
        handle.submit(incr, i, i.to_le_bytes().to_vec()).unwrap();
        let resp = next_completion(handle);
        assert_eq!(resp.user_data, i);
        assert!(resp.is_ok());
    }

    fn shallow() -> IdleEpisode {
        IdleEpisode {
            served: 1,
            arrival_gap: Duration::from_micros(4),
            timed_out: false,
        }
    }

    fn polling_controller() -> PollController {
        let mut c = PollController::default();
        for _ in 0..ENTER_AFTER {
            assert!(!c.polling);
            c.observe(shallow());
        }
        assert!(c.polling, "{ENTER_AFTER} shallow episodes enter polling");
        c
    }

    #[test]
    fn controller_enters_polling_after_a_streak_of_shallow_episodes() {
        polling_controller();
        // A deep run, or one in the middle of the streak, never does.
        let mut c = PollController::default();
        for i in 0..10 * ENTER_AFTER {
            let served = if i % ENTER_AFTER == ENTER_AFTER - 1 {
                SHALLOW_RUN + 1
            } else {
                SHALLOW_RUN
            };
            c.observe(IdleEpisode {
                served,
                ..shallow()
            });
            assert!(!c.polling, "episode {i} entered polling");
        }
        // Wake-ups that served nothing neither count nor reset.
        let mut c = PollController::default();
        for _ in 0..ENTER_AFTER - 1 {
            c.observe(shallow());
            c.observe(IdleEpisode::default());
        }
        assert!(!c.polling);
        c.observe(shallow());
        assert!(c.polling);
    }

    #[test]
    fn controller_leaves_polling_on_one_wasted_window() {
        let mut c = polling_controller();
        c.observe(IdleEpisode {
            served: 0,
            arrival_gap: POLL_WINDOW,
            timed_out: true,
        });
        assert!(!c.polling);
        // And needs the whole streak again to come back.
        for _ in 0..ENTER_AFTER - 1 {
            c.observe(shallow());
        }
        assert!(!c.polling);
    }

    #[test]
    fn controller_leaves_polling_after_a_streak_of_fast_arrivals() {
        let fast = IdleEpisode {
            served: 1,
            arrival_gap: FAST_ARRIVAL / 2,
            timed_out: false,
        };
        let mut c = polling_controller();
        // Fast arrivals broken up by a slow one never add up...
        for _ in 0..4 {
            for _ in 0..LEAVE_AFTER - 1 {
                c.observe(fast);
            }
            c.observe(shallow());
            assert!(c.polling);
        }
        // ...an unbroken streak does.
        for _ in 0..LEAVE_AFTER {
            assert!(c.polling);
            c.observe(fast);
        }
        assert!(!c.polling);
    }

    #[test]
    fn depth_one_round_trips_never_wait_out_the_park_timeout() {
        // With a park timeout of a minute, one doorbell lost between a
        // drainer's last look at the bitmap and its park would stall the
        // loop for longer than the whole test may take.
        const ROUND_TRIPS: u64 = 100_000;
        let park_timeout = Duration::from_secs(60);
        let (k, _m, clients, incr) = kernel_with_clients(None, 1);
        let plane = DispatchPlane::start(
            Arc::new(k),
            PlaneConfig {
                drainers: 1,
                park_timeout,
                ..PlaneConfig::default()
            },
        )
        .unwrap();
        let handle = plane.attach(clients[0]).unwrap();
        let started = Instant::now();
        for i in 0..ROUND_TRIPS {
            round_trip(&handle, incr, i);
        }
        drop(handle);
        let stats = plane.shutdown();
        assert_eq!(stats.completed, ROUND_TRIPS);
        assert!(
            started.elapsed() < park_timeout / 2,
            "{ROUND_TRIPS} round trips and the shutdown took {:?}: a wake-up was lost",
            started.elapsed()
        );
    }

    #[test]
    fn a_drainer_that_dies_holding_the_spinner_claim_gives_it_back() {
        // A claim the dead drainer kept would silence every later
        // doorbell: each round trip would wait out this timeout, and no
        // drainer could poll again.
        // The drainer is not always polling when the fatal entry lands,
        // so it dies several times over.
        const DEATHS: u64 = 8;
        let park_timeout = Duration::from_secs(10);
        let (k, _m, clients, incr) = kernel_with_clients(None, 1);
        let kernel = Arc::new(k);
        let plane = DispatchPlane::start(
            Arc::clone(&kernel),
            PlaneConfig {
                drainers: 1,
                park_timeout,
                ..PlaneConfig::default()
            },
        )
        .unwrap();
        let handle = plane.attach(clients[0]).unwrap();
        let hits = &kernel.metrics.drainer_spin_hits;
        // A caller who waits for each answer and thinks a little before
        // the next call (back-to-back calls read as a streaming producer,
        // which ends the polling regime), until the drainer's polls have
        // answered several calls in a row.
        let think = || {
            let from = Instant::now();
            while from.elapsed() < Duration::from_micros(10) {
                std::hint::spin_loop();
            }
        };
        let settle = |sent: &mut u64| {
            let (from, mut polled_in_a_row) = (*sent, 0);
            while *sent < from + 64 || (host_can_poll() && polled_in_a_row < 8) {
                let before = hits.get();
                think();
                let started = Instant::now();
                round_trip(&handle, incr, *sent);
                assert!(
                    started.elapsed() < park_timeout / 2,
                    "round trip {sent} waited out the park timeout"
                );
                polled_in_a_row = if hits.get() > before {
                    polled_in_a_row + 1
                } else {
                    0
                };
                *sent += 1;
                assert!(
                    *sent < from + 1_000_000,
                    "no drainer settled into polling: the claim was never returned"
                );
            }
        };
        let mut sent = 0;
        for death in 1..=DEATHS {
            settle(&mut sent);
            // An empty argument block makes the fixture's body panic
            // slicing its eight bytes: the drainer unwinds out of the
            // sweep its poll hit started, with the spinner claim in hand.
            handle.submit(incr, u64::MAX, Vec::new()).unwrap();
            while plane.shared.account.lock().drainer_restarts < death {
                std::thread::yield_now();
            }
        }
        // The last respawn, too, answers promptly and gets to poll.
        settle(&mut sent);
        drop(handle);
        let stats = plane.shutdown();
        assert_eq!(stats.drainer_restarts, DEATHS);
        // The dead drainers' work is in the account: every call but the
        // fatal ones was answered.
        assert_eq!(stats.completed, sent);
    }

    #[test]
    fn a_drainer_that_dies_in_its_rescue_sweep_gives_back_its_idle_count() {
        // A drainer counts itself in `idle` before its last look at the
        // bitmap, and sweeps what that look finds. A poison entry landing
        // in that window panics the rescue sweep with the count taken; a
        // count left behind would make every later doorbell unpark. Each
        // respawn answers one round trip and then meets a poison entry,
        // so some of the deaths land in the window.
        const DEATHS: u64 = 300;
        let (k, _m, clients, incr) = kernel_with_clients(None, 1);
        let plane = DispatchPlane::start(
            Arc::new(k),
            PlaneConfig {
                drainers: 1,
                park_timeout: Duration::from_secs(60),
                ..PlaneConfig::default()
            },
        )
        .unwrap();
        let handle = plane.attach(clients[0]).unwrap();
        for death in 1..=DEATHS {
            round_trip(&handle, incr, death);
            // An empty argument block makes the fixture's body panic
            // slicing its eight bytes.
            handle.submit(incr, u64::MAX, Vec::new()).unwrap();
            while plane.shared.account.lock().drainer_restarts < death {
                std::thread::yield_now();
            }
        }
        // The last respawn finds nothing to do and parks.
        let idle = &plane.shared.doorbell.idle.0;
        let from = Instant::now();
        while idle.load(Ordering::Acquire) == 0 {
            assert!(from.elapsed() < ANSWER_LIMIT, "the drainer never parked");
            std::thread::yield_now();
        }
        assert_eq!(
            idle.load(Ordering::Acquire),
            1,
            "one parked drainer, after {DEATHS} deaths"
        );
        drop(handle);
        let stats = plane.shutdown();
        assert_eq!(stats.drainer_restarts, DEATHS);
        assert_eq!(stats.completed, DEATHS);
    }

    #[test]
    fn answers_published_before_a_panic_in_the_same_sweep_are_counted() {
        // One chunk of good entries and a poison entry behind it, rung in
        // with one doorbell: the drainer's one sweep publishes the chunk's
        // answers, then panics on the poison. The answers it handed out
        // are in the account.
        let (k, _m, clients, incr) = kernel_with_clients(None, 1);
        let plane = DispatchPlane::start(
            Arc::new(k),
            PlaneConfig {
                drainers: 1,
                park_timeout: Duration::from_secs(60),
                ..PlaneConfig::default()
            },
        )
        .unwrap();
        let handle = plane.attach(clients[0]).unwrap();
        let good = BATCH_CHUNK as u64;
        let args: Vec<[u8; 8]> = (0..good).map(u64::to_le_bytes).collect();
        let mut calls: Vec<(u32, u64, &[u8])> = (0..good)
            .map(|i| (incr, i, args[i as usize].as_slice()))
            .collect();
        // An empty argument block makes the fixture's body panic slicing
        // its eight bytes.
        calls.push((incr, u64::MAX, &[]));
        assert_eq!(handle.submit_many(&calls), Ok(calls.len()));
        for i in 0..good {
            let resp = next_completion(&handle);
            assert_eq!((resp.user_data, resp.errno), (i, 0));
        }
        let from = Instant::now();
        while plane.shared.account.lock().drainer_restarts == 0 {
            assert!(from.elapsed() < ANSWER_LIMIT, "the poison never struck");
            std::thread::yield_now();
        }
        drop(handle);
        let stats = plane.shutdown();
        assert_eq!(stats.drainer_restarts, 1);
        assert_eq!(stats.completed, good, "the dead drainer's answers");
        assert_eq!(stats.failed, 0);
    }

    #[test]
    fn a_slot_stuck_on_a_full_completion_ring_parks_instead_of_polling() {
        let (k, _m, clients, incr) = kernel_with_clients(None, 1);
        let kernel = Arc::new(k);
        let plane = DispatchPlane::start(
            Arc::clone(&kernel),
            PlaneConfig::builder()
                .drainers(1)
                .ring(secmod_ring::RingPairConfig {
                    submission: 4,
                    completion: 4,
                })
                .build(),
        )
        .unwrap();
        let handle = plane.attach(clients[0]).unwrap();
        // A caller who waits first, so the drainer is in the polling
        // regime when the slot gets stuck.
        let mut sent = 0;
        while sent < 64 || (host_can_poll() && spins(&kernel) == 0) {
            round_trip(&handle, incr, sent);
            sent += 1;
            assert!(sent < 1_000_000, "the drainer never started polling");
        }
        // Now stop reaping: four answers fill the completion ring, the
        // fifth entry stays queued and keeps the slot flagged.
        for i in 0..5 {
            handle.submit(incr, sent + i, vec![0; 8]).unwrap();
            while i < 4 && handle.rings().cq.len() <= i as usize {
                std::thread::yield_now();
            }
        }
        let parks = &kernel.metrics.drainer_parks;
        let wait_for_parks = |n: u64| {
            let from = parks.get();
            while parks.get() < from + n {
                std::thread::yield_now();
            }
        };
        // Let a poll window that was open when the slot got stuck close.
        wait_for_parks(2);
        let before = spins(&kernel);
        wait_for_parks(8);
        assert_eq!(handle.pending(), 1, "the fifth entry cannot be served");
        assert_eq!(
            spins(&kernel),
            before,
            "a sweep that can serve nothing must lead to the timed park"
        );
        // Reaping unsticks it.
        for i in 0..5 {
            assert_eq!(next_completion(&handle).user_data, sent + i);
        }
        drop(handle);
        plane.shutdown();
    }

    #[test]
    fn only_one_drainer_polls_at_a_time() {
        let (kernel, plane, clients, incr) = plane_fixture(1, 2);
        let handle = plane.attach(clients[0]).unwrap();
        // Hold the spinner's claim ourselves. Both drainers reach the
        // polling regime (every answer below is a shallow episode for the
        // one that gave it), and neither may act on it. Doorbells go
        // unanswered while the claim is held, so each round trip waits
        // for a park to time out.
        plane
            .shared
            .doorbell
            .spinning
            .0
            .store(true, Ordering::Release);
        for i in 0..64 {
            round_trip(&handle, incr, i);
        }
        assert_eq!(spins(&kernel), 0, "a drainer polled beside the claim");
        plane
            .shared
            .doorbell
            .spinning
            .0
            .store(false, Ordering::Release);
        // Released, the claim is taken by a drainer.
        let mut sent = 64;
        while host_can_poll() && spins(&kernel) == 0 {
            round_trip(&handle, incr, sent);
            sent += 1;
            assert!(sent < 1_000_000, "no drainer took the released claim");
        }
        drop(handle);
        plane.shutdown();
    }

    #[test]
    fn a_drainer_inside_a_long_drain_is_not_replaced() {
        // One doorbell, 96 entries, 1 ms bodies: a single sweep that runs
        // for ~100 ms. Nothing may take the drainer for dead meanwhile
        // and start a second one on the same rings.
        use crate::batch::tests::SlowGate;
        const ENTRIES: u64 = 96;
        let gate = Arc::new(SlowGate::default());
        let (k, _m, clients, incr) = kernel_with_clients(Some(gate), 1);
        let plane =
            DispatchPlane::start(Arc::new(k), PlaneConfig::builder().drainers(1).build()).unwrap();
        let handle = plane.attach(clients[0]).unwrap();
        let mut batch = handle.batch();
        for i in 0..ENTRIES {
            batch.push(incr, i, i.to_le_bytes().to_vec()).unwrap();
        }
        drop(batch);
        let mut last = None;
        for _ in 0..ENTRIES {
            let resp = next_completion(&handle);
            assert!(resp.is_ok());
            assert!(
                last < Some(resp.user_data),
                "completion {} after {last:?}: per-session FIFO broken",
                resp.user_data
            );
            last = Some(resp.user_data);
        }
        drop(handle);
        let stats = plane.shutdown();
        assert_eq!(stats.drainer_restarts, 0, "a live drainer was replaced");
        assert_eq!(stats.completed, ENTRIES);
    }

    #[test]
    fn detached_session_surfaces_eidrm_through_the_plane() {
        let (kernel, plane, clients, incr) = plane_fixture(1, 1);
        let handle = plane.attach(clients[0]).unwrap();
        kernel.smod_detach(clients[0], "plane test").unwrap();
        handle.submit(incr, 7, 7u64.to_le_bytes().to_vec()).unwrap();
        let resp = loop {
            match handle.reap() {
                Some(resp) => break resp,
                None => std::thread::yield_now(),
            }
        };
        assert_eq!(resp.errno, Errno::EIDRM.code());
        assert_eq!(resp.user_data, 7);
        plane.shutdown();
    }

    /// How long a producer waits for any answer before calling one lost:
    /// a lost doorbell or a stranded entry fails the test, not hangs it.
    const ANSWER_LIMIT: Duration = Duration::from_secs(10);

    /// A producer's ledger of the calls `first..first + seen.len()`. A
    /// call's argument is its id, so its answer is `id + 1`.
    struct Ledger {
        first: u64,
        seen: Vec<bool>,
        answered: u64,
        eidrm: u64,
        last_answer: Instant,
    }

    impl Ledger {
        fn new(ids: std::ops::Range<u64>) -> Ledger {
            Ledger {
                first: ids.start,
                seen: vec![false; (ids.end - ids.start) as usize],
                answered: 0,
                eidrm: 0,
                last_answer: Instant::now(),
            }
        }

        fn total(&self) -> u64 {
            self.seen.len() as u64
        }

        /// Reap what `handle` has ready. Each call must be answered
        /// exactly once, with `id + 1` or, when `eidrm_ok`, with `EIDRM`.
        fn reap(&mut self, handle: &PlaneHandle, eidrm_ok: bool) {
            let before = self.answered;
            while let Some(resp) = handle.reap() {
                let id = resp.user_data;
                let idx = (id - self.first) as usize;
                assert!(!self.seen[idx], "call {id} answered twice");
                self.seen[idx] = true;
                self.answered += 1;
                if eidrm_ok && resp.errno == Errno::EIDRM.code() {
                    self.eidrm += 1;
                } else {
                    assert!(resp.is_ok(), "call {id} failed: errno {}", resp.errno);
                    let ret = u64::from_le_bytes(resp.into_ret().try_into().unwrap());
                    assert_eq!(ret, id + 1, "call {id} got another call's answer");
                }
            }
            if self.answered > before {
                self.last_answer = Instant::now();
                return;
            }
            assert!(
                self.last_answer.elapsed() < ANSWER_LIMIT,
                "no answer for {ANSWER_LIMIT:?}: {} of {} calls outstanding",
                self.total() - self.answered,
                self.total()
            );
            std::thread::yield_now();
        }
    }

    /// Stream the ledger's calls through `handle`, `burst` per
    /// `SubmitBatch` (its drop rings the doorbell once), never more than
    /// `depth` in flight: the ring never fills, so no bounce rings a
    /// doorbell in the batch's place. With `big_every > 0` every
    /// `big_every`-th payload is a 64 KiB block that travels through the
    /// plane's arena.
    fn stream(
        handle: &PlaneHandle,
        incr: u32,
        ledger: &mut Ledger,
        burst: u64,
        depth: u64,
        big_every: u64,
    ) {
        let mut sent = 0;
        while ledger.answered < ledger.total() {
            let n = burst.min(ledger.total() - sent);
            if n > 0 && sent - ledger.answered + n <= depth {
                let mut batch = handle.batch();
                for id in ledger.first + sent..ledger.first + sent + n {
                    let mut args = id.to_le_bytes().to_vec();
                    if big_every > 0 && id.is_multiple_of(big_every) {
                        args.resize(64 * 1024, 0);
                    }
                    batch
                        .push(incr, id, args)
                        .expect("depth never fills the ring");
                }
                sent += n;
            }
            ledger.reap(handle, false);
        }
    }

    #[test]
    fn coalesced_bursts_reach_a_lone_drainer_exactly_once() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: u64 = 2_000;
        const BURST: u64 = 32;
        let (kernel, plane, clients, incr) = plane_fixture(PRODUCERS, 1);
        std::thread::scope(|s| {
            for (p, &client) in clients.iter().enumerate() {
                let handle = plane.attach(client).unwrap();
                s.spawn(move || {
                    let first = p as u64 * PER_PRODUCER;
                    let mut ledger = Ledger::new(first..first + PER_PRODUCER);
                    stream(&handle, incr, &mut ledger, BURST, 2 * BURST, 0);
                });
            }
        });
        let stats = plane.shutdown();
        assert_eq!(stats.completed, PRODUCERS as u64 * PER_PRODUCER);
        // Every doorbell was a batch's: no bounce rang one in its place.
        assert_eq!(kernel.metrics.ring_full_bounces.get(), 0);
    }

    #[test]
    fn a_stall_antagonist_delays_entries_but_never_loses_one() {
        const PRODUCERS: usize = 2;
        const PER_PRODUCER: u64 = 1_000;
        let (kernel, plane, clients, incr) = plane_fixture(PRODUCERS, 1);
        let set = plane.ring_set();
        let handles: Vec<PlaneHandle> = clients.iter().map(|&c| plane.attach(c).unwrap()).collect();
        let slots: Vec<RingSlotId> = handles.iter().map(PlaneHandle::slot).collect();
        let (done, held) = (AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|s| {
            // The antagonist flags every slot itself, so it always has
            // something to sit on, then claims whatever is ready and sits
            // on it: the claimed bits hide the slots from the drainer, the
            // drain flag of the one it visits blocks it, and `true`
            // re-flags the slot, so the work is delayed, never dropped.
            s.spawn(|| {
                while done.load(Ordering::Acquire) < PRODUCERS {
                    slots.iter().for_each(|&slot| set.mark_ready(slot));
                    let ledger = set.claim_ledger();
                    set.claim_ready(&ledger, |slot, _tenant| {
                        set.drain_claimed(slot, &ledger, |_slot, _rings| {
                            held.fetch_add(1, Ordering::Relaxed);
                            std::thread::sleep(Duration::from_micros(200));
                            true
                        });
                    });
                    std::thread::sleep(Duration::from_micros(50));
                }
            });
            for (p, handle) in handles.into_iter().enumerate() {
                let done = &done;
                s.spawn(move || {
                    let first = p as u64 * PER_PRODUCER;
                    let mut ledger = Ledger::new(first..first + PER_PRODUCER);
                    stream(&handle, incr, &mut ledger, 4, 64, 4);
                    done.fetch_add(1, Ordering::Release);
                });
            }
        });
        assert!(
            held.load(Ordering::Relaxed) > 0,
            "the antagonist never held a slot"
        );
        let stats = plane.shutdown();
        assert_eq!(stats.completed, PRODUCERS as u64 * PER_PRODUCER);
        assert_eq!(
            kernel.metrics.arena.bytes_in_flight.get(),
            0,
            "arena bytes leaked"
        );
    }

    #[test]
    fn a_churn_storm_answers_every_entry_once_and_moves_the_epoch_per_cycle() {
        const BURSTS: u64 = 16;
        const BURST: u64 = 32;
        const NEIGHBOUR_OPS: u64 = 4_000;
        let (k, module, clients, incr) = kernel_with_clients(None, 2);
        let kernel = Arc::new(k);
        let plane = DispatchPlane::start(Arc::clone(&kernel), PlaneConfig::default()).unwrap();
        let (storm, neighbour) = (clients[0], clients[1]);
        let epoch_before = kernel.smod_epoch();
        let eidrm = std::thread::scope(|s| {
            let handle = plane.attach(neighbour).unwrap();
            s.spawn(move || {
                let mut ledger = Ledger::new(0..NEIGHBOUR_OPS);
                stream(&handle, incr, &mut ledger, 8, 64, 0);
            });
            // The storm: a fresh slot per burst, dropped once the burst
            // is answered; every second burst its session is detached
            // with the burst in flight, then re-handshaken.
            let mut ledger = Ledger::new(0..BURSTS * BURST);
            for burst in 0..BURSTS {
                let handle = plane.attach(storm).unwrap();
                let mut batch = handle.batch();
                for id in burst * BURST..(burst + 1) * BURST {
                    batch.push(incr, id, id.to_le_bytes().to_vec()).unwrap();
                }
                drop(batch);
                let cycle = burst % 2 == 1;
                if cycle {
                    kernel.smod_detach(storm, "churn storm").unwrap();
                }
                while ledger.answered < (burst + 1) * BURST {
                    ledger.reap(&handle, cycle);
                }
                drop(handle);
                if cycle {
                    let (_session, handle) = kernel.sys_smod_start_session(storm, module).unwrap();
                    kernel.sys_smod_session_info(handle).unwrap();
                    kernel.sys_smod_handle_info(storm).unwrap();
                }
            }
            ledger.eidrm
        });
        let cycles = BURSTS / 2;
        assert_eq!(
            kernel.smod_epoch() - epoch_before,
            cycles,
            "one epoch move per cycle"
        );
        let stats = plane.shutdown();
        assert_eq!(
            stats.completed + stats.failed,
            BURSTS * BURST + NEIGHBOUR_OPS
        );
        assert_eq!(
            stats.failed, eidrm,
            "only the storm's detached bursts may fail"
        );
    }
}
