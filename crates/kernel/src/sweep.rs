//! `sys_smod_sweep`: the multi-session drain — one syscall-equivalent
//! that visits *every* ready session in a [`RingSet`].
//!
//! `sys_smod_call_batch` amortises fixed dispatch cost across one
//! session's batch; what remains is one trap and one session resolution
//! *per session* per drain round. The sweep hoists those too: a single
//! invocation claims the ring set's readiness bitmap, resolves each
//! ready session — session table lookup, ownership check, epoch fold
//! into the module gateway — **once per sweep**, and runs every claimed
//! slot through the chunked drain the batched path runs
//! (`Kernel::drain_session_rings`). Each visit adds to the trap's one
//! `TrapTally`, which the sweep returns as its [`DrainReport`], the same
//! report `sys_smod_call_batch` returns.
//!
//! Cost model: the trap, stubs and context-switch pair are charged once
//! per sweep, credential/session resolution once per session, and per
//! entry only the shared-memory ring-slot hand-off —
//! [`crate::cost::CostModel::sweep_dispatch_ns`]. This is the LSM-style
//! amortisation argument taken one level further: per-hook fixed work is
//! hoisted first out of the call (PR 4's batch), then out of the session
//! (this sweep).
//!
//! Safety semantics per slot:
//!
//! * a slot whose session is gone, half-established, or registered under
//!   a different owner pid than the live session's client is drained
//!   with no session and no budget: every queued entry its completion
//!   ring has room for completes with `EIDRM`, and a stale or replayed
//!   slot can never dispatch into somebody else's session;
//! * a detach/remove racing an in-flight sweep is honoured at the next
//!   chunk boundary of that session's drain, which fails the remainder
//!   with `EIDRM` in the same loop, exactly like the batched path;
//! * every ready slot is visited at most once per sweep and every ready
//!   slot *is* visited (the readiness words are claimed wholesale), so
//!   one hot ring can neither starve the others nor be drained past
//!   `session_budget` in a single sweep — leftovers re-flag the slot;
//! * every claim is recorded in the sweeping drainer's [`ClaimLedger`]
//!   until its slot's visit has returned, so a drainer that dies
//!   mid-sweep strands nothing: whoever holds the ledger hands the
//!   claims back with [`RingSet::reclaim`].
//!
//! There is one sweep, `Kernel::sweep_claimed`. A [`SweepScheduler`]
//! is the only thing that varies: without one every claimed slot is
//! drained as it is claimed, in bitmap order; with one the claimed slots
//! are planned first — which tenants drain this round and with what
//! budget — and the rest go back to the bitmap, and each tenant's lane is
//! charged what its slots' visits added to the trap's report.

use crate::batch::{DrainReport, DrainScratch};
use crate::kernel::Kernel;
use crate::proc::Pid;
use crate::smod::{SessionId, SessionState, TrapTally};
use crate::SysResult;
use secmod_obs::Flavor;
use secmod_qos::SweepScheduler;
use secmod_ring::set::ClaimLedger;
use secmod_ring::{RingSet, RingSlotId, SessionRings};

impl Kernel {
    /// The per-slot sweep body: resolve the slot's session once and drain
    /// its rings into the sweep's `tally` — up to `session_budget` entries
    /// of a live session; for a dead or foreign slot, `EIDRM` for every
    /// queued entry its completion ring has room for, so one visit empties
    /// it unless the producer has stopped reaping.
    fn sweep_visit(
        &self,
        rings: &SessionRings,
        session_budget: usize,
        scratch: &mut DrainScratch,
        tally: &mut TrapTally<'_>,
    ) {
        tally.report.sessions_ready += 1;
        // --- once-per-sweep resolution of this session ------------------
        let live = self
            .sessions
            .get(SessionId(rings.session))
            .filter(|s| s.client.0 == rings.owner)
            .filter(|s| s.state() == SessionState::Established);
        let budget = if live.is_some() {
            session_budget
        } else {
            usize::MAX
        };
        let (checked, dead) = (tally.checked, tally.report.sessions_dead);
        self.drain_session_rings(
            live.as_deref(),
            &rings.sq,
            &rings.cq,
            rings.arena.as_ref(),
            budget,
            scratch,
            tally,
        );
        tally.sessions_checked += usize::from(tally.checked > checked);
        tally.report.sessions_swept += usize::from(tally.report.sessions_dead == dead);
    }

    /// Drain every ready session in `set`, up to `session_budget` entries
    /// per session, in one syscall-equivalent.
    ///
    /// `caller` is the sweeping drainer (any live process); it is charged
    /// the amortised fixed cost. Per-entry costs are charged to each
    /// session's own client, exactly as on the batched path. Takes
    /// `&self`: concurrent sweeps partition the ready set between
    /// themselves (the readiness words are claimed atomically), and
    /// producers may keep submitting while a sweep is in flight.
    ///
    /// This is `Kernel::sweep_claimed` with no scheduler and a ledger
    /// that lives for the call: the claims of a caller who dies in here
    /// are observable to nobody, so this is the entry point for callers
    /// nobody supervises. The plane's drainers sweep through their
    /// seat's ledger instead.
    pub fn sys_smod_sweep(
        &self,
        caller: Pid,
        set: &RingSet,
        session_budget: usize,
    ) -> SysResult<DrainReport> {
        self.sweep_claimed(caller, set, &set.claim_ledger(), None, session_budget)
    }

    /// The sweep: claim the ready set into the drainer's `ledger`, visit
    /// the claimed slots, account for the trap.
    ///
    /// Without a scheduler each claimed slot is drained on the spot with
    /// `session_budget`. With one, `sched` plans which tenants' slots
    /// drain this round (and with what per-slot budget), the deferred
    /// ones are released straight back to the bitmap, and each tenant's
    /// deficit and lane are charged for what its slots drained. Either
    /// way a claim stays in `ledger` until its visit has returned, so the
    /// drainer's exit guard can reclaim it if the drainer dies
    /// mid-sweep.
    pub(crate) fn sweep_claimed(
        &self,
        caller: Pid,
        set: &RingSet,
        ledger: &ClaimLedger,
        sched: Option<&SweepScheduler>,
        session_budget: usize,
    ) -> SysResult<DrainReport> {
        self.procs.with(caller, |_| ())?; // the drainer must be a live process
        let mut tally = TrapTally::new(self.metrics.latency(Flavor::Sweep), 0);
        let mut scratch = DrainScratch::new();
        // One claimed slot's visit; `false` when the slot was busy or gone.
        let mut visit = |slot: RingSlotId, budget: usize, tally: &mut TrapTally<'_>| {
            set.drain_claimed(slot, ledger, |_, rings| {
                self.sweep_visit(rings, budget, &mut scratch, tally);
                // Budget leftovers (or a cq-full stall) re-flag the slot
                // so the next sweep picks it straight back up.
                !rings.sq.is_empty()
            })
        };
        match sched {
            None => {
                set.claim_ready(ledger, |slot, _tenant| {
                    visit(slot, session_budget, &mut tally);
                });
            }
            Some(sched) => {
                let mut candidates: Vec<(usize, u32)> = Vec::new();
                set.claim_ready(ledger, |slot, tenant| candidates.push((slot.0, tenant)));
                let plan = sched.plan(&candidates, session_budget);
                for &(slot, _tenant) in &plan.deferred {
                    set.release_claimed(RingSlotId(slot), ledger);
                }
                for chosen in &plan.chosen {
                    // The tenant pays for exactly what its slot's visit
                    // added to the trap's report.
                    let before = tally.report;
                    if visit(RingSlotId(chosen.slot), chosen.budget, &mut tally) {
                        let after = &tally.report;
                        sched.charge(chosen.tenant, (after.drained - before.drained) as u64);
                        let lane = sched.metrics().lane(chosen.tenant);
                        lane.completed
                            .add((after.completed - before.completed) as u64);
                        lane.failed.add((after.failed - before.failed) as u64);
                    }
                }
            }
        }
        // One trap, however many sessions it visited — the pair of
        // counters behind `DispatchMetrics::sessions_per_trap`, the
        // paper's multi-session amortisation made observable — and one
        // context-switch pair per *sweep*.
        self.metrics.sweep_traps.incr();
        self.metrics
            .sweep_sessions
            .add(tally.report.sessions_ready as u64);
        let fixed_ns = self
            .cost
            .sweep_dispatch_ns(tally.sessions_checked, tally.checked);
        self.procs
            .with_mut(caller, |p| self.finish_trap(p, tally, fixed_ns))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::tests::{kernel_with_clients, req, SlowGate};
    use crate::batch::BATCH_CHUNK;
    use crate::errno::Errno;
    use secmod_ring::{RingPairConfig, RingSlotId, SMOD_BATCH_DEFAULT_BUDGET};
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    /// Register `clients`' sessions in a fresh ring set (slot i ↔ client i).
    fn ring_set_for(
        k: &Kernel,
        clients: &[Pid],
        ring_capacity: usize,
    ) -> (RingSet, Vec<RingSlotId>) {
        let set = RingSet::with_capacity(clients.len());
        let slots = clients
            .iter()
            .map(|&c| {
                let session = k.session_of(c).unwrap();
                set.register(
                    session.id.0,
                    c.0,
                    RingPairConfig {
                        submission: ring_capacity,
                        completion: ring_capacity,
                    },
                )
                .unwrap()
            })
            .collect();
        (set, slots)
    }

    fn sweeper(k: &Kernel) -> Pid {
        k.spawn_process(
            "sweeper",
            crate::cred::Credential::root(),
            vec![0x90; 4096],
            2,
            2,
        )
        .unwrap()
    }

    #[test]
    fn sweep_drains_every_ready_session_once() {
        const SESSIONS: usize = 8;
        const PER_SESSION: u64 = 16;
        let (k, _m, clients, incr) = kernel_with_clients(None, SESSIONS);
        let (set, slots) = ring_set_for(&k, &clients, 64);
        let drainer = sweeper(&k);
        for (s, &client) in clients.iter().enumerate() {
            for i in 0..PER_SESSION {
                set.submit(slots[s], req(&k, client, incr, i, 100 * s as u64 + i))
                    .unwrap();
            }
        }
        let report = k
            .sys_smod_sweep(drainer, &set, SMOD_BATCH_DEFAULT_BUDGET)
            .unwrap();
        assert_eq!(report.sessions_ready, SESSIONS);
        assert_eq!(report.sessions_swept, SESSIONS);
        assert_eq!(report.sessions_dead, 0);
        assert_eq!(report.drained, SESSIONS * PER_SESSION as usize);
        assert_eq!(report.completed, SESSIONS * PER_SESSION as usize);
        assert_eq!(report.failed, 0);
        assert_eq!(
            report.fixed_cost_ns,
            k.cost
                .sweep_dispatch_ns(SESSIONS, SESSIONS * PER_SESSION as usize)
        );
        // Per-session completions: FIFO, correct values, no cross-session
        // leakage (user_data encodes the producing session).
        for (s, _) in clients.iter().enumerate() {
            let rings = set.get(slots[s]).unwrap();
            for i in 0..PER_SESSION {
                let resp = rings.cq.pop_spsc().unwrap();
                assert!(resp.is_ok());
                assert_eq!(resp.user_data, i, "session {s} reordered");
                assert!(
                    matches!(resp.ret, secmod_ring::ArgRef::Inline { .. }),
                    "the body's 8-byte `Vec` must not cross to the reaper: {:?}",
                    resp.ret
                );
                assert_eq!(
                    u64::from_le_bytes(resp.into_ret().try_into().unwrap()),
                    100 * s as u64 + i + 1,
                    "session {s} got another session's result"
                );
            }
            assert!(rings.cq.pop_spsc().is_none());
        }
        assert!(!set.any_ready(), "fully drained slots stay unflagged");
    }

    #[test]
    fn every_ready_ring_is_visited_within_one_sweep() {
        // The starvation guarantee: even when every ring holds more work
        // than the per-session budget, a single sweep still visits all of
        // them — the hot first ring cannot monopolise the drainer.
        const SESSIONS: usize = 8;
        const QUEUED: u64 = 64;
        const BUDGET: usize = 16;
        let (k, _m, clients, incr) = kernel_with_clients(None, SESSIONS);
        let (set, slots) = ring_set_for(&k, &clients, QUEUED as usize);
        let drainer = sweeper(&k);
        for (s, &client) in clients.iter().enumerate() {
            for i in 0..QUEUED {
                set.submit(slots[s], req(&k, client, incr, i, i)).unwrap();
            }
        }
        let report = k.sys_smod_sweep(drainer, &set, BUDGET).unwrap();
        assert_eq!(report.sessions_ready, SESSIONS, "a ready ring was skipped");
        assert_eq!(report.drained, SESSIONS * BUDGET);
        for slot in &slots {
            let rings = set.get(*slot).unwrap();
            assert_eq!(
                rings.cq.len(),
                BUDGET,
                "every session advances by exactly its budget"
            );
            assert_eq!(rings.sq.len(), (QUEUED as usize) - BUDGET);
        }
        assert_eq!(
            set.ready_count(),
            SESSIONS,
            "slots with leftovers must be re-flagged"
        );
        // Sweeping to dryness visits everyone again until nothing is left.
        let mut guard = 0;
        while set.any_ready() {
            k.sys_smod_sweep(drainer, &set, BUDGET).unwrap();
            guard += 1;
            assert!(guard < 16, "sweep failed to converge");
        }
        for slot in &slots {
            assert!(set.get(*slot).unwrap().sq.is_empty());
        }
    }

    #[test]
    fn dead_and_foreign_slots_fail_with_eidrm() {
        let (k, _m, clients, incr) = kernel_with_clients(None, 3);
        let (set, slots) = ring_set_for(&k, &clients, 8);
        let drainer = sweeper(&k);
        // Slot 0: session detached before the sweep.
        for i in 0..4u64 {
            set.submit(slots[0], req(&k, clients[0], incr, i, i))
                .unwrap();
        }
        // Slot 1 stays live.
        for i in 0..4u64 {
            set.submit(slots[1], req(&k, clients[1], incr, i, i))
                .unwrap();
        }
        // Slot 2: registered under the wrong owner — a replayed slot.
        let foreign = {
            let session = k.session_of(clients[2]).unwrap();
            set.deregister(slots[2]).unwrap();
            set.register(session.id.0, clients[0].0, RingPairConfig::default())
                .unwrap()
        };
        for i in 0..4u64 {
            set.submit(foreign, req(&k, clients[2], incr, i, i))
                .unwrap();
        }
        k.smod_detach(clients[0], "pre-sweep detach").unwrap();

        let report = k
            .sys_smod_sweep(drainer, &set, SMOD_BATCH_DEFAULT_BUDGET)
            .unwrap();
        assert_eq!(report.sessions_ready, 3);
        assert_eq!(report.sessions_swept, 1);
        assert_eq!(report.sessions_dead, 2);
        assert_eq!(report.completed, 4);
        assert_eq!(report.failed, 8);
        for slot in [slots[0], foreign] {
            let rings = set.get(slot).unwrap();
            for _ in 0..4 {
                assert_eq!(rings.cq.pop_spsc().unwrap().errno, Errno::EIDRM.code());
            }
        }
        let live = set.get(slots[1]).unwrap();
        for _ in 0..4 {
            assert!(live.cq.pop_spsc().unwrap().is_ok());
        }
    }

    #[test]
    fn a_dead_slot_is_answered_as_far_as_its_completion_ring_has_room() {
        // A detached session's slot holds more than a sweep's budget, and
        // its completion ring is mostly full of completions the client has
        // not reaped. Each sweep answers exactly what fits, the slot stays
        // flagged while entries remain, and once the client reaps, one
        // visit answers everything left, past the budget: every entry gets
        // exactly one EIDRM.
        const BUDGET: usize = SMOD_BATCH_DEFAULT_BUDGET;
        const RING: usize = 4 * BUDGET;
        const ROOM: usize = BUDGET / 2;
        const QUEUED: usize = 2 * BUDGET + ROOM;
        let (k, _m, clients, incr) = kernel_with_clients(None, 1);
        let client = clients[0];
        let (set, slots) = ring_set_for(&k, &clients, RING);
        let rings = set.get(slots[0]).unwrap();
        let drainer = sweeper(&k);
        for i in 0..(RING - ROOM) as u64 {
            set.submit(slots[0], req(&k, client, incr, i, i)).unwrap();
        }
        let live = k.sys_smod_sweep(drainer, &set, RING).unwrap();
        assert_eq!(live.completed, RING - ROOM);
        let user_data = |i: usize| (RING + i) as u64;
        for i in 0..QUEUED {
            set.submit(slots[0], req(&k, client, incr, user_data(i), 0))
                .unwrap();
        }
        k.smod_detach(client, "dead slot").unwrap();

        let first = k.sys_smod_sweep(drainer, &set, BUDGET).unwrap();
        assert_eq!(
            (first.sessions_dead, first.drained, first.failed),
            (1, ROOM, ROOM)
        );
        assert_eq!(rings.sq.len(), QUEUED - ROOM);
        assert!(set.any_ready(), "a slot with entries left stays flagged");

        let mut eidrm = Vec::new();
        let reap = |eidrm: &mut Vec<u64>| {
            while let Some(resp) = rings.cq.pop_spsc() {
                if resp.user_data >= RING as u64 {
                    assert_eq!(resp.errno, Errno::EIDRM.code());
                    eidrm.push(resp.user_data);
                } else {
                    assert!(resp.is_ok());
                }
            }
        };
        reap(&mut eidrm);
        let rest = k.sys_smod_sweep(drainer, &set, BUDGET).unwrap();
        assert_eq!(
            (rest.sessions_dead, rest.drained, rest.failed),
            (1, QUEUED - ROOM, QUEUED - ROOM)
        );
        assert!(rings.sq.is_empty());
        assert!(!set.any_ready(), "an emptied slot is not re-flagged");
        reap(&mut eidrm);
        assert_eq!(eidrm, (0..QUEUED).map(user_data).collect::<Vec<_>>());
        assert_eq!(k.metrics.eidrm_failures.get(), QUEUED as u64);
    }

    #[test]
    fn detach_racing_a_sweep_fails_the_remainder_with_eidrm() {
        // The sweep analogue of module_removed_mid_batch: while a sweep is
        // mid-drain (bodies sleeping behind the gate), one session
        // detaches. Its remaining entries must fail with EIDRM — and the
        // *other* session must be entirely unaffected.
        //
        // The detach needs the victim's process locks, which the drain
        // holds for a whole chunk at a time and hands over only between
        // chunks, for microseconds, on a mutex that is not fair: a loaded
        // host can make the detach lose that race several times running.
        // The victim's queue is therefore deep enough that its drain
        // outlasts any such run (each lost chunk costs 32 ms of sleeping
        // bodies; once the detach lands the gate opens and the rest is
        // answered at full speed).
        const ENTRIES: usize = 128 * BATCH_CHUNK;
        let gate = Arc::new(SlowGate::default());
        let (k, _m, clients, incr) = kernel_with_clients(Some(Arc::clone(&gate)), 2);
        let (set, slots) = ring_set_for(&k, &clients, ENTRIES);
        let drainer = sweeper(&k);
        for (s, &client) in clients.iter().enumerate() {
            for i in 0..ENTRIES as u64 {
                set.submit(slots[s], req(&k, client, incr, i, i)).unwrap();
            }
        }

        let k = &k;
        let (victim, survivor) = (clients[0], clients[1]);
        let victim_rings = set.get(slots[0]).unwrap();
        let (report, answered_at_detach) = std::thread::scope(|s| {
            let detacher = s.spawn(|| {
                // The first body is running, so the victim (slot 0, swept
                // first) is inside its first chunk: the detach is asked
                // for mid-sweep whatever the scheduler does.
                gate.wait_entered();
                k.smod_detach(victim, "mid-sweep teardown").unwrap();
                let answered = victim_rings.cq.len();
                gate.open.store(true, Ordering::Release);
                answered
            });
            let report = k.sys_smod_sweep(drainer, &set, ENTRIES).unwrap();
            (report, detacher.join().unwrap())
        });

        assert_eq!(report.drained, 2 * ENTRIES, "every entry must be answered");
        assert!(report.failed > 0, "the detached session must lose entries");

        // Victim: a prefix of successes, then EIDRM — never an Allow after
        // the detach.
        let mut seen_dead = false;
        let mut victim_ok = 0;
        for i in 0..ENTRIES {
            let resp = victim_rings.cq.pop_spsc().expect("victim completion");
            if resp.is_ok() {
                assert!(!seen_dead, "entry {i} succeeded after the detach");
                victim_ok += 1;
            } else {
                assert_eq!(resp.errno, Errno::EIDRM.code());
                seen_dead = true;
            }
        }
        assert!(seen_dead, "the detach landed after the sweep finished");
        // The detach takes effect at the next chunk boundary: only the
        // chunk that had passed its epoch check when the detach returned
        // may still succeed on top of what was answered by then.
        assert!(
            victim_ok <= answered_at_detach + BATCH_CHUNK,
            "{victim_ok} entries succeeded, {answered_at_detach} were answered when the detach returned"
        );
        // Survivor: every single entry completed normally.
        let survivor_rings = set.get(slots[1]).unwrap();
        for _ in 0..ENTRIES {
            let resp = survivor_rings.cq.pop_spsc().expect("survivor completion");
            assert!(resp.is_ok(), "the surviving session must be unaffected");
        }
        assert_eq!(report.completed, victim_ok + ENTRIES);
        assert_eq!(k.session_of(survivor).unwrap().calls(), ENTRIES as u64);
    }

    #[test]
    fn registry_totals_equal_what_the_reaped_responses_add_up_to() {
        // The drain tallies its metrics locally and flushes them when it
        // returns. Whatever the mix — allowed, denied, unknown function,
        // wrong session; inline and arena payloads; several distinct
        // costs; a drain cut short by a full completion ring — the
        // registry must read exactly what the responses add up to.
        use secmod_ring::{ArgArena, ArgRef, SmodCallReq};
        const LARGE: usize = 1000;
        let (k, m_id, clients, incr) = kernel_with_clients(None, 1);
        let client = clients[0];
        let module = k.registry.get(m_id).unwrap();
        let strlen = module.package.stub_table.by_name("strlen").unwrap().func_id;
        let cached = k.cost.cached_decision_ns;
        let uncached = k.cost.policy_per_node_ns * module.policy_complexity as u64;
        assert_ne!(cached, uncached, "a miss must be visible in cost_ns");

        let session = k.session_of(client).unwrap().id.0;
        let set = RingSet::with_arena(1, ArgArena::with_capacity(1 << 20), 1 << 20);
        let slot = set
            .register(
                session,
                client.0,
                RingPairConfig {
                    submission: 64,
                    completion: 64,
                },
            )
            .unwrap();
        let rings = set.get(slot).unwrap();
        let drainer = sweeper(&k);

        // (proc_id, payload bytes, names the right session)
        let kinds = [
            (incr, 8, true),
            (incr, 16, true),
            (incr, LARGE, true),
            (strlen, 8, true),
            (9999, 8, true),
            (incr, 8, false),
        ];
        let mut submitted = 0u64;
        let mut submit = |n: u64| {
            for _ in 0..n {
                let (proc_id, len, right_session) = kinds[submitted as usize % kinds.len()];
                let mut payload = vec![0u8; len];
                payload[..8].copy_from_slice(&submitted.to_le_bytes());
                let args = ArgRef::place_vec(payload, rings.arena.as_ref());
                assert_eq!(args.is_arena(), len == LARGE);
                let req = SmodCallReq {
                    session: if right_session {
                        session
                    } else {
                        session + 1000
                    },
                    proc_id,
                    user_data: submitted,
                    args,
                };
                set.submit(slot, req).unwrap();
                submitted += 1;
            }
        };

        #[derive(Default, Debug, PartialEq)]
        struct Totals {
            count: u64,
            sum: u64,
            inline_args: u64,
            arena_args: u64,
            decisions: u64,
            misses: u64,
        }
        let mut expected = Totals::default();
        let reap_drain = |expected: &mut Totals, drained: usize| {
            for _ in 0..drained {
                let resp = rings
                    .cq
                    .pop_spsc()
                    .expect("one completion per drained entry");
                let (proc_id, len, right_session) = kinds[resp.user_data as usize % kinds.len()];
                expected.count += u64::from(resp.cost_ns > 0);
                expected.sum += resp.cost_ns;
                if !right_session {
                    assert_eq!(resp.errno, Errno::EPERM.code());
                    continue;
                }
                let copy_ns = if len == LARGE {
                    expected.arena_args += 1;
                    k.cost.ring_slot_ns
                } else {
                    expected.inline_args += 1;
                    k.cost.copy_per_byte_ns * len as u64
                };
                if proc_id == 9999 {
                    assert_eq!(resp.errno, Errno::ENOENT.code());
                    continue;
                }
                let denied = resp.errno == Errno::EACCES.code();
                assert_eq!(denied, proc_id == strlen);
                assert!(denied || resp.is_ok());
                expected.decisions += 1;
                let policy_ns = resp.cost_ns - copy_ns;
                assert!(policy_ns == cached || policy_ns == uncached);
                expected.misses += u64::from(policy_ns == uncached);
            }
        };
        let registry = || Totals {
            count: k.metrics.latency(Flavor::Sweep).count(),
            sum: k.metrics.latency(Flavor::Sweep).sum(),
            inline_args: k.metrics.arena.inline_args.get(),
            arena_args: k.metrics.arena.arena_args.get(),
            decisions: k.metrics.gate_hits.get() + k.metrics.gate_misses.get(),
            misses: k.metrics.gate_misses.get(),
        };

        // A full mixed drain, left unreaped...
        submit(40);
        let first = k.sys_smod_sweep(drainer, &set, 64).unwrap();
        assert_eq!(first.drained, 40);
        // ...so the next one runs out of completion ring after 24.
        submit(40);
        let short = k.sys_smod_sweep(drainer, &set, 64).unwrap();
        assert_eq!(short.drained, 24, "a full completion ring ends the drain");
        reap_drain(&mut expected, first.drained);
        reap_drain(&mut expected, short.drained);
        assert_eq!(registry(), expected);
        assert_eq!(expected.misses, 2, "`incr` and `strlen`, once each");
        assert!(expected.arena_args > 0 && expected.inline_args > 0);

        let rest = k.sys_smod_sweep(drainer, &set, 64).unwrap();
        assert_eq!(rest.drained, 16);
        reap_drain(&mut expected, rest.drained);
        assert_eq!(registry(), expected);
        assert_eq!(
            expected.decisions, 54,
            "every entry past the session and stub checks takes one decision"
        );
        assert_eq!(k.metrics.eidrm_failures.get(), 0);
        assert_eq!(k.metrics.arena.bytes_in_flight.get(), 0);
    }

    #[test]
    fn a_verdict_decided_in_a_sweep_answers_the_next_single_call() {
        // The session's verdicts are one table for every path: a function
        // decided inside a sweep (an engine miss, then a cached answer the
        // session keeps) is answered by the next `sys_smod_call` without
        // asking the gateway — one gate hit, and the sharded tier (which
        // the call would reach, its thread's L0 being wiped) sees nothing.
        let (k, m_id, clients, incr) = kernel_with_clients(None, 1);
        let client = clients[0];
        let (set, slots) = ring_set_for(&k, &clients, 8);
        let drainer = sweeper(&k);
        for i in 0..2 {
            set.submit(slots[0], req(&k, client, incr, i, i)).unwrap();
        }
        assert_eq!(k.sys_smod_sweep(drainer, &set, 8).unwrap().completed, 2);
        assert_eq!(k.metrics.gate_misses.get(), 1);

        secmod_policy::l0::clear_thread_cache();
        let gateway = &k.registry.get(m_id).unwrap().gateway;
        let (hits, sharded_hits) = (k.metrics.gate_hits.get(), gateway.cache_stats().hits);
        let call = crate::smod::SmodCallArgs {
            m_id,
            func_id: incr,
            frame_pointer: 0,
            return_address: 0,
            args: 41u64.to_le_bytes().to_vec(),
        };
        assert_eq!(
            k.sys_smod_call(client, call).unwrap(),
            42u64.to_le_bytes().to_vec()
        );
        assert_eq!(k.metrics.gate_hits.get(), hits + 1);
        assert_eq!(k.metrics.gate_misses.get(), 1);
        assert_eq!(gateway.cache_stats().hits, sharded_hits);
    }

    #[test]
    fn empty_sweep_charges_just_the_trap() {
        let (k, _m, clients, _incr) = kernel_with_clients(None, 2);
        let (set, _slots) = ring_set_for(&k, &clients, 8);
        let drainer = sweeper(&k);
        let before = k.clock.now_ns();
        let report = k.sys_smod_sweep(drainer, &set, 8).unwrap();
        assert_eq!(report, DrainReport::default());
        assert_eq!(k.clock.now_ns() - before, k.cost.syscall_trap_ns);
        // A vanished drainer cannot sweep.
        assert_eq!(
            k.sys_smod_sweep(Pid(999), &set, 8).unwrap_err(),
            Errno::ESRCH
        );
    }

    #[test]
    fn qos_sweep_with_one_tenant_matches_the_plain_sweep() {
        use secmod_qos::{QosPolicy, SweepScheduler, TenantSpec};
        const SESSIONS: usize = 4;
        const PER_SESSION: u64 = 16;
        let (k, _m, clients, incr) = kernel_with_clients(None, SESSIONS);
        let (set, slots) = ring_set_for(&k, &clients, 64);
        let drainer = sweeper(&k);
        for (s, &client) in clients.iter().enumerate() {
            for i in 0..PER_SESSION {
                set.submit(slots[s], req(&k, client, incr, i, 100 * s as u64 + i))
                    .unwrap();
            }
        }
        let sched = SweepScheduler::new(
            QosPolicy::weighted_fair([TenantSpec::new(0, 1)]).with_quantum(1024),
        );
        let ledger = set.claim_ledger();
        let report = k
            .sweep_claimed(
                drainer,
                &set,
                &ledger,
                Some(&sched),
                SMOD_BATCH_DEFAULT_BUDGET,
            )
            .unwrap();
        assert_eq!(report.sessions_ready, SESSIONS);
        assert_eq!(report.completed, SESSIONS * PER_SESSION as usize);
        assert!(ledger.is_empty(), "every claim resolved");
        for (s, _) in clients.iter().enumerate() {
            let rings = set.get(slots[s]).unwrap();
            for i in 0..PER_SESSION {
                let resp = rings.cq.pop_spsc().unwrap();
                assert!(resp.is_ok());
                assert_eq!(resp.user_data, i, "session {s} reordered");
                assert_eq!(
                    u64::from_le_bytes(resp.into_ret().try_into().unwrap()),
                    100 * s as u64 + i + 1,
                );
            }
        }
        let lane = sched.metrics().lane(0);
        assert_eq!(lane.drained.get(), (SESSIONS as u64) * PER_SESSION);
        assert_eq!(lane.completed.get(), (SESSIONS as u64) * PER_SESSION);
    }

    #[test]
    fn qos_lanes_count_each_tenants_failures_as_its_completions_do() {
        use secmod_qos::{QosPolicy, SweepScheduler, TenantSpec};
        // Tenant 0: one detached slot (every entry fails with EIDRM) and
        // one live slot. Tenant 1: one live slot whose calls alternate
        // between a granted and a denied function. Each lane must count
        // exactly what its tenant's reaped completions add up to.
        const PER_SLOT: u64 = 40;
        let (k, m_id, clients, incr) = kernel_with_clients(None, 3);
        let strlen = k
            .registry
            .get(m_id)
            .unwrap()
            .package
            .stub_table
            .by_name("strlen")
            .unwrap()
            .func_id;
        let set = RingSet::with_capacity(clients.len());
        let tenants = [0u32, 0, 1];
        let slots: Vec<RingSlotId> = clients
            .iter()
            .zip(tenants)
            .map(|(&c, tenant)| {
                let session = k.session_of(c).unwrap();
                set.register_for_tenant(session.id.0, c.0, tenant, RingPairConfig::default())
                    .unwrap()
            })
            .collect();
        for (s, &client) in clients.iter().enumerate() {
            for i in 0..PER_SLOT {
                let proc_id = if s == 2 && i % 2 == 1 { strlen } else { incr };
                set.submit(slots[s], req(&k, client, proc_id, i, i))
                    .unwrap();
            }
        }
        k.smod_detach(clients[0], "tenant 0 loses a session")
            .unwrap();

        let drainer = sweeper(&k);
        let sched = SweepScheduler::new(
            QosPolicy::weighted_fair([TenantSpec::new(0, 1), TenantSpec::new(1, 1)])
                .with_quantum(16),
        );
        let ledger = set.claim_ledger();
        let mut reaped = [(0u64, 0u64); 2]; // (completed, failed) per tenant
        let mut guard = 0;
        while set.any_ready() {
            k.sweep_claimed(drainer, &set, &ledger, Some(&sched), 16)
                .unwrap();
            for (s, slot) in slots.iter().enumerate() {
                let totals = &mut reaped[tenants[s] as usize];
                while let Some(resp) = set.get(*slot).unwrap().cq.pop_spsc() {
                    if resp.is_ok() {
                        totals.0 += 1;
                    } else {
                        totals.1 += 1;
                    }
                }
            }
            guard += 1;
            assert!(guard < 100, "the sweeps failed to converge");
        }
        assert_eq!(reaped, [(PER_SLOT, PER_SLOT), (PER_SLOT / 2, PER_SLOT / 2)]);
        for (tenant, (completed, failed)) in reaped.into_iter().enumerate() {
            let lane = sched.metrics().lane(tenant as u32);
            assert_eq!(lane.completed.get(), completed, "tenant {tenant}");
            assert_eq!(lane.failed.get(), failed, "tenant {tenant}");
            assert_eq!(lane.drained.get(), completed + failed, "tenant {tenant}");
        }
    }

    #[test]
    fn qos_sweep_holds_the_victims_share_against_a_slot_flood() {
        use secmod_qos::{QosPolicy, SweepScheduler, TenantSpec};
        // Victim tenant 0: one session. Adversary tenant 1: every other
        // session, all flooded. Equal weights — slot-count round robin
        // would give the victim 1/13 of the service; DRR must hold ~1/2.
        const ADV_SESSIONS: usize = 12;
        const QUEUED: u64 = 64;
        let (k, _m, clients, incr) = kernel_with_clients(None, 1 + ADV_SESSIONS);
        let set = RingSet::with_capacity(clients.len());
        let slots: Vec<RingSlotId> = clients
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let session = k.session_of(c).unwrap();
                let tenant = u32::from(i > 0);
                set.register_for_tenant(
                    session.id.0,
                    c.0,
                    tenant,
                    RingPairConfig {
                        submission: QUEUED as usize,
                        completion: QUEUED as usize,
                    },
                )
                .unwrap()
            })
            .collect();
        for (s, &client) in clients.iter().enumerate() {
            for i in 0..QUEUED {
                set.submit(slots[s], req(&k, client, incr, i, i)).unwrap();
            }
        }
        let drainer = sweeper(&k);
        let sched = SweepScheduler::new(
            QosPolicy::weighted_fair([TenantSpec::new(0, 1), TenantSpec::new(1, 1)])
                .with_quantum(16),
        );
        let ledger = set.claim_ledger();
        // Sweep until the victim's backlog is gone, reaping completions
        // as we go so full completion rings never stall the drain.
        let victim_rings = set.get(slots[0]).unwrap();
        let mut guard = 0;
        while !victim_rings.sq.is_empty() {
            k.sweep_claimed(drainer, &set, &ledger, Some(&sched), 64)
                .unwrap();
            for slot in &slots {
                let rings = set.get(*slot).unwrap();
                while rings.cq.pop_spsc().is_some() {}
            }
            guard += 1;
            assert!(guard < 200, "victim backlog failed to drain");
        }
        let victim = sched.metrics().lane(0).drained.get();
        let adversary = sched.metrics().lane(1).drained.get();
        assert_eq!(victim, QUEUED);
        let share = victim as f64 / (victim + adversary) as f64;
        assert!(
            share >= 0.25,
            "victim got {share:.3} of service while backlogged \
             (victim {victim}, adversary {adversary}) — below half its fair share"
        );
        assert!(
            sched.metrics().lane(0).starvation.high_water() <= 2,
            "victim should never build a starvation streak"
        );
    }

    #[test]
    fn qos_sweep_recovers_a_dead_drainers_stranded_claims() {
        use secmod_qos::{QosPolicy, SweepScheduler, TenantSpec};
        const SESSIONS: usize = 4;
        const PER_SESSION: u64 = 8;
        let (k, _m, clients, incr) = kernel_with_clients(None, SESSIONS);
        let (set, slots) = ring_set_for(&k, &clients, 16);
        for (s, &client) in clients.iter().enumerate() {
            for i in 0..PER_SESSION {
                set.submit(slots[s], req(&k, client, incr, i, i)).unwrap();
            }
        }
        // Drainer A claims everything and dies before draining.
        let dead_ledger = set.claim_ledger();
        assert_eq!(set.claim_ready(&dead_ledger, |_, _| ()), SESSIONS);
        // A's exit path reclaims, then drainer B sweeps normally.
        assert_eq!(set.reclaim(&dead_ledger), SESSIONS);
        let drainer_b = sweeper(&k);
        let sched = SweepScheduler::new(
            QosPolicy::weighted_fair([TenantSpec::new(0, 1)]).with_quantum(1024),
        );
        let ledger_b = set.claim_ledger();
        let report = k
            .sweep_claimed(drainer_b, &set, &ledger_b, Some(&sched), 64)
            .unwrap();
        assert_eq!(
            report.completed,
            SESSIONS * PER_SESSION as usize,
            "every stranded entry completes"
        );
        for slot in &slots {
            let rings = set.get(*slot).unwrap();
            let mut seen = Vec::new();
            while let Some(resp) = rings.cq.pop_spsc() {
                assert!(resp.is_ok());
                seen.push(resp.user_data);
            }
            assert_eq!(
                seen,
                (0..PER_SESSION).collect::<Vec<_>>(),
                "exactly once, in order"
            );
        }
    }

    #[test]
    fn sweep_clock_cost_beats_per_session_batch_round_robin() {
        // The acceptance shape on the simulated clock: 64 sessions x batch
        // 32, one sweep vs 64 round-robined batched drains at equal total
        // entries — the sweep must come out >= 1.5x cheaper.
        const SESSIONS: usize = 64;
        const BATCH: usize = 32;

        let (rr, _m, rr_clients, incr) = kernel_with_clients(None, SESSIONS);
        let pairs: Vec<_> = (0..SESSIONS)
            .map(|_| {
                RingPairConfig {
                    submission: BATCH,
                    completion: BATCH,
                }
                .build()
            })
            .collect();
        for (s, &client) in rr_clients.iter().enumerate() {
            for i in 0..BATCH as u64 {
                pairs[s].0.push_spsc(req(&rr, client, incr, i, i)).unwrap();
            }
        }
        let t0 = rr.clock.now_ns();
        for (s, &client) in rr_clients.iter().enumerate() {
            let report = rr
                .sys_smod_call_batch(client, &pairs[s].0, &pairs[s].1, BATCH)
                .unwrap();
            assert_eq!(report.completed, BATCH);
        }
        let round_robin_ns = rr.clock.now_ns() - t0;

        let (sw, _m2, sw_clients, incr2) = kernel_with_clients(None, SESSIONS);
        assert_eq!(incr, incr2);
        let (set, slots) = ring_set_for(&sw, &sw_clients, BATCH);
        let drainer = sweeper(&sw);
        for (s, &client) in sw_clients.iter().enumerate() {
            for i in 0..BATCH as u64 {
                set.submit(slots[s], req(&sw, client, incr, i, i)).unwrap();
            }
        }
        let t0 = sw.clock.now_ns();
        let report = sw.sys_smod_sweep(drainer, &set, BATCH).unwrap();
        let sweep_ns = sw.clock.now_ns() - t0;
        assert_eq!(report.completed, SESSIONS * BATCH);

        let ratio = round_robin_ns as f64 / sweep_ns as f64;
        assert!(
            ratio >= 1.5,
            "sweep {sweep_ns} ns not >= 1.5x cheaper than round-robin {round_robin_ns} ns \
             (ratio {ratio:.2})"
        );
    }
}
