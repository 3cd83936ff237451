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
//! A drainer whose sweep found the set empty has two ways to wait. It can
//! **park** (`std::thread::park_timeout`), which costs the next producer
//! a futex wake and the entry a wake-up latency, but lets a streaming
//! producer's entries pile up into one sweep for free. Or it can **poll**
//! [`RingSet::any_ready`] (a bitmap load, no trap) for a bounded window
//! (`POLL_WINDOW`) and sweep the moment a bit appears, which costs the
//! producer nothing and a core its idle time. A per-drainer
//! `PollController` picks the regime from the traffic: several
//! consecutive shallow idle episodes (a caller who waits for each answer)
//! enter polling; one wasted window, or several arrivals in a row that
//! the park would have batched anyway (a streaming producer), leave it.
//! At most one drainer per plane polls at a time, and none does where it
//! shares a single CPU with the thread that started the plane
//! (`room_to_poll`) or after a sweep that left unserviceable slots
//! flagged.
//!
//! The park itself uses the permit protocol (`park` + `unpark`) and a
//! Dekker handshake: a producer sets its readiness bit and *then* looks
//! for someone to wake (`PlaneShared::wake`); a drainer announces
//! itself idle and *then* re-checks the bitmap, with a `SeqCst` fence
//! between the two steps on both sides, so one of them always sees the
//! other. The park timeout only paces retries on slots a sweep could not
//! serve. Shutdown flags every slot once more and lets each drainer
//! sweep the set dry before joining.
//!
//! ## Multi-tenant planes, dead drainers
//!
//! Every drainer sweeps through its own [`ClaimLedger`]: the ready
//! slots it claims stay recorded there until each one's visit has
//! returned. A plane configured with a [`QosPolicy`]
//! ([`PlaneConfigBuilder::qos`]) hosts sessions from many tenants:
//! [`DispatchPlane::attach_tenant`] tags each attachment's ring-set slot
//! with a [`TenantId`], and the shared [`SweepScheduler`] sits between
//! claim and drain — it plans a weighted-fair split, the chosen slots are
//! drained, the deferred ones released.
//!
//! A drainer recovers its own seat, the way the kernel tears a process
//! down on its exit path rather than on a timer. Each drainer thread owns
//! an exit guard that runs however the thread ends — a return, or a
//! panic unwinding out of a visit. The guard hands back whatever the
//! ledger still holds claimed (the readiness bits go back to the set and
//! the drain flag the drainer died holding is cleared, so no submitted
//! entry is stranded) and, unless the plane is stopping, spawns the
//! seat's next drainer. Nothing watches a live drainer, so a long drain
//! is never mistaken for a dead one. [`PlaneConfig::crash`]
//! ([`PlaneConfigBuilder::crash`]) is the fault drill that proves the
//! loop: drainer 0 makes the sweep's own claim, then dies inside its
//! first visit.

use crate::batch::DrainReport;
use crate::cred::Credential;
use crate::errno::Errno;
use crate::kernel::Kernel;
use crate::proc::Pid;
use crate::smod::SessionState;
use crate::SysResult;
use parking_lot::{Mutex, RwLock};
use secmod_obs::{Counter, Flavor};
use secmod_qos::{QosPolicy, SweepScheduler, TenantId};
use secmod_ring::{
    ArgArena, ArgRef, ClaimLedger, RingPairConfig, RingSet, RingSlotId, SessionRings, SmodCallReq,
    SmodCallResp, SubmitError, SMOD_BATCH_DEFAULT_BUDGET,
};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::{JoinHandle, Thread};
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
    /// How long an idle drainer parks before re-checking the set (the
    /// backstop for a lost unpark race; producers normally wake drainers
    /// long before this expires).
    pub park_timeout: Duration,
    /// Pin drainer `i` to core `i % available_parallelism` via
    /// `sched_setaffinity`. Best-effort: platforms without affinity
    /// support run unpinned.
    pub pin_drainers: bool,
    /// Multi-tenant scheduling policy. `None` drains every claimed slot
    /// in bitmap order (every registration lands in
    /// [`TenantId::DEFAULT`]); `Some` puts the weighted-fair scheduler
    /// between claim and drain.
    pub qos: Option<QosPolicy>,
    /// Fault-injection drill: drainer 0 makes the sweep's own claim
    /// into its seat's ledger, takes the first claimed slot's drain flag,
    /// then dies holding both (its thread exits without draining). Fires
    /// once per plane, on the first queued work drainer 0 claims — a
    /// crash that strands nothing proves nothing. Until it has fired the
    /// other drainers stand aside, and drainer 0 parks between claims
    /// instead of sweeping, so it fires by construction, not by winning a
    /// race. A plane that stops first never fires it.
    pub crash: bool,
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
            crash: false,
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

    /// Arm the drainer-crash fault drill ([`PlaneConfig::crash`]).
    pub fn crash(mut self) -> Self {
        self.cfg.crash = true;
        self
    }

    /// Finish the build.
    pub fn build(self) -> PlaneConfig {
        self.cfg
    }
}

/// Aggregate work done by the plane's drainers (summed at shutdown).
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
        self.drained += report.drained as u64;
        self.completed += report.completed as u64;
        self.failed += report.failed as u64;
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

/// Per-drainer spawn parameters, reused when a dead drainer's exit guard
/// respawns its seat.
struct DrainerParams {
    park_timeout: Duration,
    pin_drainers: bool,
    /// `available_parallelism` of the thread that started the plane.
    cores: usize,
    /// The CPUs that thread may run on. It stands in for the producers,
    /// whose threads the plane never sees.
    starter_cpus: affinity::CpuSet,
}

struct PlaneShared {
    kernel: Arc<Kernel>,
    set: Arc<RingSet>,
    stop: AtomicBool,
    /// Invoked by a drainer after any sweep that produced completions
    /// (and once more at shutdown). The async frontend routes the posted
    /// completions to their wakers from here, on the thread that posted
    /// them; `None` costs the drainers one relaxed load per sweep.
    completion_hook: RwLock<Option<Arc<dyn Fn() + Send + Sync>>>,
    /// Drainer threads for unparking, one entry per seat. Sized at start;
    /// each drainer installs itself before its first sweep, so a
    /// replacement always lands after the drainer it replaces.
    sleepers: RwLock<Vec<Option<Thread>>>,
    /// How many drainers are (about to be) parked. Producers skip the
    /// unpark entirely while it is 0 — the hot path's wake is then a
    /// fence and two loads, not a futex op per submission. A drainer
    /// increments, fences, and only then makes its final readiness check
    /// (`drainer_loop`); a producer sets its bit, fences, and only then
    /// loads this (`wake`). So a producer that observes 0 raced a
    /// drainer that will still see its readiness bit.
    idle: AtomicUsize,
    /// Set while one drainer polls the readiness bitmap instead of
    /// parking. It is the claim that keeps a plane to one spinner, and it
    /// tells producers that their bit will be seen without an unpark
    /// even though the other drainers are parked. Cleared before the
    /// spinner announces itself idle, under the same handshake as `idle`.
    spinning: AtomicBool,
    /// The QoS scheduler, when the plane is multi-tenant.
    sched: Option<Arc<SweepScheduler>>,
    /// Whether the fault drill is armed, and its fired-once latch.
    crash: bool,
    crash_fired: AtomicBool,
    /// Spawn parameters reused by respawns.
    params: DrainerParams,
    /// Drainer join handles. Shared (not on `DispatchPlane`) so a dying
    /// drainer can push its replacement's; drained at shutdown, where
    /// joining a dying drainer waits out that push.
    handles: Mutex<Vec<JoinHandle<PlaneStats>>>,
    /// Seats respawned, and claims handed back, by drainers' exit guards.
    restarts: Counter,
    reclaimed: Counter,
    /// Kernel process charged for the shutdown's inline sweep.
    reaper_pid: Pid,
}

impl PlaneShared {
    /// The producer's half of the doorbell, rung *after* the readiness
    /// bit is set: wake the drainers unless one of them is certain to see
    /// the bit by itself, because it is polling or has yet to make its
    /// final check before parking.
    fn wake(&self) {
        // Dekker pair with `drainer_loop`: (set bit, fence, load flags)
        // here against (store flags, fence, load bits) there. The bit is
        // set with `Release` only, so the store-load order needs the
        // fence on this side too.
        fence(Ordering::SeqCst);
        if self.spinning.load(Ordering::Relaxed) || self.idle.load(Ordering::Relaxed) == 0 {
            return;
        }
        self.unpark_all();
    }

    /// Unpark every drainer (on a running thread that is a stored permit,
    /// so overshooting is safe, just not free).
    fn unpark_all(&self) {
        for t in self.sleepers.read().iter().flatten() {
            t.unpark();
        }
    }

    /// Tell the registered completion consumer (if any) that new
    /// completions were pushed.
    fn notify_completions(&self) {
        if let Some(hook) = self.completion_hook.read().as_ref() {
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
            .field("drainers", &self.shared.sleepers.read().len())
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
                stop: AtomicBool::new(false),
                completion_hook: RwLock::new(None),
                sleepers: RwLock::new(vec![None; n]),
                idle: AtomicUsize::new(0),
                spinning: AtomicBool::new(false),
                sched,
                crash: cfg.crash,
                crash_fired: AtomicBool::new(false),
                params: DrainerParams {
                    park_timeout: cfg.park_timeout,
                    pin_drainers: cfg.pin_drainers,
                    cores,
                    starter_cpus: thread_cpus(cores),
                },
                handles: Mutex::new(Vec::new()),
                restarts: Counter::default(),
                reclaimed: Counter::default(),
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

    /// Attach a client's established session: register its ring pair in
    /// the plane's set and hand back the producer-side [`PlaneHandle`].
    /// `EPERM` without a session, `EINVAL` before the handshake
    /// completes, `ENOMEM` when every slot is taken. The attachment
    /// lands in [`TenantId::DEFAULT`]; multi-tenant callers use
    /// [`DispatchPlane::attach_tenant`].
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
    /// directly (tests, fault drills); producers go through
    /// [`DispatchPlane::attach`].
    pub fn ring_set(&self) -> Arc<RingSet> {
        Arc::clone(&self.shared.set)
    }

    /// Register the completion-notification hook: called by a drainer
    /// after every sweep that pushed completions, and once more at
    /// shutdown, on the thread that ran the last sweep. At most one
    /// consumer; registering again replaces the previous hook. The hook
    /// runs on drainer threads, several at once when there are several
    /// drainers: it routes what was posted and must not block beyond
    /// short mutex holds.
    pub fn on_completions(&self, hook: Arc<dyn Fn() + Send + Sync>) {
        *self.shared.completion_hook.write() = Some(hook);
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
        self.shared.stop.store(true, Ordering::Release);
        self.shared.set.mark_all_ready();
        // Unconditionally: a parked drainer must not sleep out its
        // timeout because a polling one made the doorbell look answered.
        self.shared.unpark_all();
        // A drainer that dies now pushes its replacement's handle before
        // its own join returns, so the loop sees every one.
        let mut stats = PlaneStats::default();
        loop {
            let handle = self.shared.handles.lock().pop();
            let Some(handle) = handle else { break };
            stats.merge(&handle.join().expect("plane drainer panicked"));
        }
        // Every drainer handed back its own claims on the way out. Finish
        // inline, with no scheduler, whatever is still flagged — slots the
        // drainers' last scheduled sweeps deferred, or a seat's work when
        // its respawn failed — since no drainer remains to do it. These
        // are the plane's sweeps, recorded as the drainers' are.
        let ledger = self.shared.set.claim_ledger();
        while self.shared.set.any_ready() {
            let Ok(report) = self.shared.kernel.sweep_claimed(
                self.shared.reaper_pid,
                &self.shared.set,
                &ledger,
                None,
                SESSION_BUDGET,
                Flavor::Plane,
            ) else {
                break;
            };
            stats.absorb(&report);
            if report.drained == 0 {
                break;
            }
        }
        stats.drainer_restarts += self.shared.restarts.get();
        stats.reclaimed += self.shared.reclaimed.get();
        // One final notification after the last drainer exits: whatever
        // the shutdown sweeps completed is now visible, and this thread
        // ran those sweeps, so it is the one to hand them on.
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
            let guard = ExitGuard {
                shared: shared_for_thread,
                ctx,
            };
            guard.shared.sleepers.write()[seat] = Some(std::thread::current());
            drainer_loop(&guard.shared, &guard.ctx)
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
}

/// A drainer thread's exit path. It drops however `drainer_loop` ends:
/// the crash drill's return, a panic unwinding out of a visit, or the
/// exit after the stop-time sweep.
struct ExitGuard {
    shared: Arc<PlaneShared>,
    ctx: DrainerCtx,
}

impl Drop for ExitGuard {
    fn drop(&mut self) {
        let shared = &self.shared;
        // Only this thread ever claimed into the ledger, and it is done:
        // whatever the ledger holds, the drainer died holding. Empty on a
        // clean exit.
        let reclaimed = shared.set.reclaim(&self.ctx.ledger);
        shared.reclaimed.add(reclaimed as u64);
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        // A failed respawn (no process or thread to be had) leaves the
        // seat empty; the other seats, or the shutdown's inline sweep,
        // drain what it would have.
        if spawn_drainer(shared, self.ctx.seat, self.ctx.generation + 1).is_ok() {
            shared.restarts.incr();
            // The reclaimed work must not wait for the next doorbell.
            shared.wake();
        }
    }
}

fn drainer_loop(shared: &PlaneShared, ctx: &DrainerCtx) -> PlaneStats {
    if let Some(core) = ctx.pin_core {
        // Best-effort: a refused mask (container cpuset, non-Linux) just
        // leaves the drainer migratable, exactly as before pinning existed.
        let _ = affinity::pin_to_core(core);
    }
    let park_timeout = shared.params.park_timeout;
    let may_poll = room_to_poll(
        &thread_cpus(shared.params.cores),
        &shared.params.starter_cpus,
    );
    let mut controller = PollController::default();
    let mut episode = IdleEpisode::default();
    let mut stats = PlaneStats::default();
    loop {
        // The fault drill fires once per plane, so the respawned seat
        // does not re-die. Until it has (or the plane stops), the other
        // seats leave the ready set to drainer 0, and drainer 0 only ever
        // claims to die: the drill fires on the first work there is, not
        // whenever drainer 0 happens to win a race.
        if shared.crash
            && !shared.crash_fired.load(Ordering::Acquire)
            && !shared.stop.load(Ordering::Acquire)
        {
            if ctx.seat == 0 && dies_mid_visit(shared, ctx) {
                shared.crash_fired.store(true, Ordering::Release);
                return stats;
            }
            std::thread::park_timeout(park_timeout);
            continue;
        }
        // `Err` means the drainer's own process is gone (killed through
        // the kernel): end this drainer, and its exit guard starts the
        // seat over on a fresh one.
        let Ok(drained) = sweep_once(shared, ctx, &mut stats) else {
            break;
        };
        // Progress = entries answered.
        if drained > 0 {
            episode.served += drained;
            continue;
        }
        // Post-stop, a no-progress sweep means the set is as dry as it
        // can get (the shutdown path force-flagged every slot first):
        // exit even if unserviceable ready bits remain. (A scheduled
        // sweep may still be *deferring* over-budget slots here; the
        // shutdown path finishes those with its inline pass.)
        if shared.stop.load(Ordering::Acquire) {
            break;
        }
        // Idle. The episode that just ended tells the controller how to
        // spend this one.
        controller.observe(std::mem::take(&mut episode));
        let idle_from = Instant::now();
        // Bits still set after a sweep that drained nothing are on slots
        // it could not serve (a producer stopped reaping and its full
        // completion ring keeps its slot "ready"; a QoS sweep deferred a
        // tenant): polling a bitmap that never clears would peg a core
        // without serving anyone, so those go to the timed park.
        if may_poll
            && controller.polling
            && !shared.set.any_ready()
            && shared
                .spinning
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
        {
            let hit = poll_ready(shared, idle_from);
            // Producers skipped the unpark while the claim stood. The
            // fence makes every bit set by one who saw it standing
            // visible to the sweep (or the final look) that comes next.
            shared.spinning.store(false, Ordering::Release);
            fence(Ordering::SeqCst);
            if hit {
                shared.kernel.metrics.drainer_spin_hits.incr();
                episode.arrival_gap = idle_from.elapsed();
                continue;
            }
            shared.kernel.metrics.drainer_spin_timeouts.incr();
            episode.timed_out = true;
        }
        // Announce the park, *then* look once more (the drainer's half
        // of the handshake in `PlaneShared::wake`): a producer whose bit
        // this look misses is one that will see `idle > 0` and unpark us
        // (stored permit — a park after the unpark returns at once).
        shared.idle.fetch_add(1, Ordering::AcqRel);
        fence(Ordering::SeqCst);
        let mut rescued = false;
        if shared.set.any_ready() {
            // A doorbell that raced the announcement, or flags on slots
            // no sweep can serve: only a sweep tells them apart. Whatever
            // is flagged after this one's claim has seen `idle > 0`.
            let drained = sweep_once(shared, ctx, &mut stats);
            episode.served += drained.unwrap_or(0);
            rescued = drained != Ok(0);
        }
        if !rescued {
            // The timeout paces retries on unserviceable slots.
            shared.kernel.metrics.drainer_parks.incr();
            std::thread::park_timeout(park_timeout);
            shared.kernel.metrics.drainer_unparks.incr();
        }
        shared.idle.fetch_sub(1, Ordering::AcqRel);
        episode.arrival_gap = idle_from.elapsed();
    }
    stats
}

/// The fault drill's death: make the sweep's claim, start the first visit
/// and unwind out of it — the claimed bits in the ledger, the slot's drain
/// flag held, exactly what a drainer killed mid-drain leaves behind.
/// `false` when nothing was queued (the claim then returns normally: a
/// crash that strands nothing exercises nothing).
fn dies_mid_visit(shared: &PlaneShared, ctx: &DrainerCtx) -> bool {
    // `resume_unwind` is a panic that skips the panic hook: the death is
    // staged, so it prints nothing.
    catch_unwind(AssertUnwindSafe(|| {
        shared.set.claim_ready(&ctx.ledger, |slot, _tenant| {
            shared.set.drain_claimed(slot, &ctx.ledger, |_, rings| {
                if rings.sq.is_empty() {
                    return false; // a stale bit: nothing here to strand
                }
                resume_unwind(Box::new("crash drill"))
            });
        })
    }))
    .is_err()
}

/// One sweep of the set on behalf of drainer `ctx`, folded into `stats`;
/// returns the entries it answered.
fn sweep_once(shared: &PlaneShared, ctx: &DrainerCtx, stats: &mut PlaneStats) -> SysResult<u64> {
    let report = shared.kernel.sweep_claimed(
        ctx.pid,
        &shared.set,
        &ctx.ledger,
        shared.sched.as_deref(),
        SESSION_BUDGET,
        Flavor::Plane,
    )?;
    stats.absorb(&report);
    if report.drained > 0 {
        // Completions were pushed: hand them to the registered consumer
        // on this thread.
        shared.notify_completions();
    }
    Ok(report.drained as u64)
}

/// The CPUs the calling thread may run on; where the platform does not
/// tell, the first `cores` of them.
fn thread_cpus(cores: usize) -> affinity::CpuSet {
    affinity::get_thread_affinity().unwrap_or_else(|_| {
        let mut cpus = affinity::CpuSet::empty();
        for cpu in 0..cores.min(affinity::MAX_CPUS) {
            let _ = cpus.add(cpu);
        }
        cpus
    })
}

/// Never poll on one CPU: a drainer confined to `mine` may poll for
/// producers confined to `theirs` only if the two sets together hold more
/// than one CPU, or the poll keeps the producer it waits for off the CPU.
/// A drainer reads its own set after its pin, so a starter pinned to one
/// CPU leaves room exactly when the drainers pin themselves elsewhere
/// (`PlaneConfig::pin_drainers`); unpinned, they inherit its one CPU.
fn room_to_poll(mine: &affinity::CpuSet, theirs: &affinity::CpuSet) -> bool {
    (0..affinity::MAX_CPUS)
        .filter(|&cpu| mine.contains(cpu) || theirs.contains(cpu))
        .nth(1)
        .is_some()
}

/// Watch the readiness bitmap from `from` for up to [`POLL_WINDOW`].
/// `true` the moment a bit (or the stop flag) shows, `false` when the
/// window closes.
fn poll_ready(shared: &PlaneShared, from: Instant) -> bool {
    loop {
        if shared.set.any_ready() || shared.stop.load(Ordering::Acquire) {
            return true;
        }
        if from.elapsed() >= POLL_WINDOW {
            return false;
        }
        std::hint::spin_loop();
    }
}

/// A producer's attachment to the plane: submit and reap without ever
/// trapping. Dropping the handle detaches the slot from the set (any
/// unreaped completions are dropped with the rings once the last `Arc`
/// goes away).
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
    /// Submit one call: push into the submission ring (the session id is
    /// filled in from the attachment), flag readiness, and wake a
    /// drainer.
    ///
    /// The backpressure contract: [`SubmitError::Full`] means the
    /// submission ring has no free slot *right now*, but the slot is
    /// already flagged and the drainers are awake, so space is guaranteed
    /// to reappear as the in-flight entries complete — reap, yield and
    /// retry. [`SubmitError::Detached`] means the plane has shut down:
    /// no drainer will ever run again and retrying is useless.
    ///
    /// This is a one-entry [`SubmitBatch`]: the push, and the doorbell
    /// when the batch drops.
    pub fn submit(&self, proc_id: u32, user_data: u64, args: Vec<u8>) -> Result<(), SubmitError> {
        self.batch().push(proc_id, user_data, args)
    }

    /// Begin a coalesced submission batch. Entries pushed through the
    /// returned guard land in the submission ring immediately, but the
    /// doorbell — the readiness bit plus the drainer unpark — rings once
    /// per batch instead of once per entry: at [`SubmitBatch::flush`],
    /// when the guard drops, or on the first bounce. A parked drainer is
    /// woken at most once per flush, so a producer batching N entries
    /// pays one `mark_ready` + one `unpark` where N calls to
    /// [`PlaneHandle::submit`] paid N of each.
    pub fn batch(&self) -> SubmitBatch<'_> {
        SubmitBatch {
            handle: self,
            pending: 0,
        }
    }

    /// Submit `calls` (`(proc_id, user_data, args)`) with a single
    /// doorbell, returning how many entries were accepted.
    ///
    /// `Ok(n)` with `n < calls.len()` means entry `n` bounced off a full
    /// submission ring: the doorbell has already rung for the accepted
    /// prefix (the `Full` contract — space reappears as they complete),
    /// so reap and retry `calls[n..]`. Exactly one `ring_full_bounces`
    /// tick is recorded per bounce event, not per unsubmitted entry.
    /// `Err` is only ever [`SubmitError::Detached`]: the plane has shut
    /// down and the remaining entries will never be accepted.
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

    /// Pop one completion, if any. Records nothing: the drainer already
    /// put the entry's cost in the plane-flavor histogram when it
    /// computed it, so a reap touches no line but the ring's.
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
/// go straight into the submission ring, the doorbell rings once.
///
/// The flush guarantee: every accepted entry is made visible to the
/// drainers no later than the guard's drop — a batch can delay the
/// doorbell, never lose it. Bounces flush eagerly so the standard `Full`
/// contract (slot flagged, drainer awake, space guaranteed to reappear)
/// holds at the moment the caller sees the error.
pub struct SubmitBatch<'a> {
    handle: &'a PlaneHandle,
    /// Entries pushed since the last doorbell.
    pending: usize,
}

impl std::fmt::Debug for SubmitBatch<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmitBatch")
            .field("slot", &self.handle.slot)
            .field("pending", &self.pending)
            .finish()
    }
}

impl SubmitBatch<'_> {
    /// Push one call into the submission ring *without* ringing the
    /// doorbell; the session id is filled in from the attachment. Large
    /// payloads go through the session's arena region (when the plane
    /// has one): the ring slot then carries a 12-byte descriptor and the
    /// kernel reads the bytes in place. Quota exhaustion falls back to
    /// by-value transparently.
    ///
    /// On [`SubmitError::Full`] the accepted prefix is flushed first
    /// (drainers are already making space when the caller sees the
    /// bounce) and one `ring_full_bounces` tick is recorded. On
    /// [`SubmitError::Detached`] the prefix is also flushed — the
    /// shutdown sweep drains whatever was accepted.
    pub fn push(&mut self, proc_id: u32, user_data: u64, args: Vec<u8>) -> Result<(), SubmitError> {
        let args = ArgRef::place_vec(args, self.handle.rings.arena.as_ref());
        self.push_ref(proc_id, user_data, args)
    }

    /// [`SubmitBatch::push`] of an already placed argument block — what
    /// the callers that start from a borrowed slice use, so the bytes go
    /// from the slice into the ring entry (or the arena) with no owned
    /// copy in between.
    fn push_ref(&mut self, proc_id: u32, user_data: u64, args: ArgRef) -> Result<(), SubmitError> {
        let req = SmodCallReq {
            session: self.handle.rings.session,
            proc_id,
            user_data,
            args,
        };
        if self.handle.shared.stop.load(Ordering::Acquire) {
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
                self.handle.shared.wake();
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
            self.handle.shared.wake();
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
            let drainer_ns = kernel
                .procs
                .with(
                    kernel
                        .procs
                        .pids()
                        .into_iter()
                        .find(|p| {
                            kernel
                                .procs
                                .with(*p, |proc_| proc_.name == format!("plane-drainer{i}"))
                                .unwrap_or(false)
                        })
                        .expect("drainer process exists"),
                    |p| p.cpu_time_ns,
                )
                .unwrap();
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

    #[test]
    fn crashed_drainer_is_reclaimed_respawned_and_no_entry_is_lost() {
        const ENTRIES: u64 = 48;
        // The ledger is the sweep's, not the scheduler's: a plane with
        // no policy recovers exactly like one with.
        for qos in [None, Some(QosPolicy::weighted_fair([]))] {
            let (k, _m, clients, incr) = kernel_with_clients(None, 1);
            let plane = DispatchPlane::start(
                Arc::new(k),
                PlaneConfig {
                    drainers: 1,
                    qos: qos.clone(),
                    crash: true,
                    ..PlaneConfig::default()
                },
            )
            .unwrap();
            let handle = plane.attach(clients[0]).unwrap();
            // The lone drainer dies on the first submission it sees (the
            // crash drill claims the ready bit and exits), so every reaped
            // completion below proves its exit guard reclaimed the claim
            // and respawned the seat.
            let mut seen = vec![false; ENTRIES as usize];
            let mut received = 0u64;
            let mut sent = 0u64;
            while received < ENTRIES {
                if sent < ENTRIES
                    && handle
                        .submit(incr, sent, sent.to_le_bytes().to_vec())
                        .is_ok()
                {
                    sent += 1;
                }
                while let Some(resp) = handle.reap() {
                    assert!(resp.is_ok());
                    let idx = resp.user_data as usize;
                    assert!(!seen[idx], "entry {idx} completed twice ({qos:?})");
                    seen[idx] = true;
                    received += 1;
                }
                std::thread::yield_now();
            }
            assert!(
                plane.shared.crash_fired.load(Ordering::Acquire),
                "the drill must have fired ({qos:?})"
            );
            drop(handle);
            let stats = plane.shutdown();
            assert!(seen.iter().all(|&s| s), "an entry was lost ({qos:?})");
            assert_eq!(stats.completed, ENTRIES);
            assert!(
                stats.drainer_restarts >= 1,
                "seat never respawned ({qos:?})"
            );
            assert!(stats.reclaimed >= 1, "claim never reclaimed ({qos:?})");
        }
    }

    /// Whether (unpinned) drainers started from this thread may poll.
    fn host_can_poll() -> bool {
        let here = thread_cpus(std::thread::available_parallelism().map_or(1, |n| n.get()));
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

    fn next_completion(handle: &PlaneHandle) -> SmodCallResp {
        loop {
            match handle.reap() {
                Some(resp) => break resp,
                None => std::thread::yield_now(),
            }
        }
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
        plane.shared.spinning.store(true, Ordering::Release);
        for i in 0..64 {
            round_trip(&handle, incr, i);
        }
        assert_eq!(spins(&kernel), 0, "a drainer polled beside the claim");
        plane.shared.spinning.store(false, Ordering::Release);
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
                    set.sweep_ready(|_slot, _rings| {
                        held.fetch_add(1, Ordering::Relaxed);
                        std::thread::sleep(Duration::from_micros(200));
                        true
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
