//! The weighted-fair sweep scheduler.
//!
//! A QoS sweep runs in three steps: the ring layer *claims* every ready
//! word of the readiness bitmap into the drainer's `ClaimLedger`, the
//! scheduler *plans* which claimed slots this round actually drains (and
//! with what per-slot entry budget), and the kernel drains the chosen
//! slots and *charges* each tenant for the entries it consumed. Slots
//! the plan defers are released straight back to the bitmap, so a
//! deferred tenant loses scheduling priority, never work.
//!
//! The planner is deficit round robin (DRR) over tenants: each round a
//! tenant with ready work accrues `quantum x weight` entries of credit
//! (capped at [`DEFICIT_CAP_ROUNDS`] rounds' worth so an idle tenant
//! cannot hoard an unbounded burst), the round-robin cursor rotates so
//! no tenant is permanently served first, and a tenant's credit is
//! split evenly across its ready slots so one hot ring cannot starve
//! its sibling rings within the same tenant.

use parking_lot::Mutex;
use std::collections::HashMap;

use crate::metrics::QosMetrics;
use crate::QosPolicy;

/// Deficit accrual cap, in rounds: a tenant's banked credit never
/// exceeds `DEFICIT_CAP_ROUNDS x quantum x weight`, so a long-idle
/// tenant re-enters with a bounded burst instead of an unbounded one.
pub const DEFICIT_CAP_ROUNDS: u64 = 4;

/// One slot the scheduler picked for draining this round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChosenSlot {
    /// Ring-set slot index.
    pub slot: usize,
    /// The tenant the slot belongs to.
    pub tenant: u32,
    /// Entry budget for this slot's drain (never 0).
    pub budget: usize,
}

/// The outcome of one scheduling round over a set of claimed slots.
#[derive(Clone, Debug, Default)]
pub struct SweepPlan {
    /// Slots to drain, in service order, each with its entry budget.
    pub chosen: Vec<ChosenSlot>,
    /// `(slot, tenant)` pairs to release back to the readiness bitmap
    /// unscheduled.
    pub deferred: Vec<(usize, u32)>,
}

#[derive(Default)]
struct LaneState {
    /// Outstanding drain credit in entries. Goes negative when a drain
    /// overshoots (charged after the fact), which self-corrects: the
    /// next round's accrual starts from the overdraft.
    deficit: i64,
}

#[derive(Default)]
struct SchedState {
    lanes: HashMap<u32, LaneState>,
    /// Round-robin service order over tenants, in first-seen order.
    rr: Vec<u32>,
    /// Rotates one tenant per round so the service order is fair.
    cursor: usize,
}

/// The plane-wide sweep scheduler. Shared (`Arc`) by every drainer of a
/// plane; `plan` is serialized by an internal lock, which is fine — it
/// runs once per sweep, not per entry.
pub struct SweepScheduler {
    policy: QosPolicy,
    state: Mutex<SchedState>,
    metrics: QosMetrics,
}

impl SweepScheduler {
    /// A scheduler enforcing `policy`.
    pub fn new(policy: QosPolicy) -> SweepScheduler {
        SweepScheduler {
            policy,
            state: Mutex::new(SchedState::default()),
            metrics: QosMetrics::new(),
        }
    }

    /// The policy this scheduler enforces.
    pub fn policy(&self) -> &QosPolicy {
        &self.policy
    }

    /// The per-tenant counter registry.
    pub fn metrics(&self) -> &QosMetrics {
        &self.metrics
    }

    /// Plan one round over the claimed `candidates` (`(slot, tenant)`
    /// pairs, in claim order). `session_budget` caps any single slot's
    /// entry budget.
    pub fn plan(&self, candidates: &[(usize, u32)], session_budget: usize) -> SweepPlan {
        let mut plan = SweepPlan::default();
        if candidates.is_empty() {
            return plan;
        }
        let session_budget = session_budget.max(1);

        // Group by tenant, preserving first-seen order within the round.
        let mut groups: Vec<(u32, Vec<usize>)> = Vec::new();
        for &(slot, tenant) in candidates {
            self.metrics.lane(tenant).claimed.incr();
            match groups.iter_mut().find(|(t, _)| *t == tenant) {
                Some((_, slots)) => slots.push(slot),
                None => groups.push((tenant, vec![slot])),
            }
        }

        self.plan_drr(&groups, session_budget, &mut plan);

        for c in &plan.chosen {
            self.metrics.lane(c.tenant).chosen.incr();
        }
        for &(_, tenant) in &plan.deferred {
            self.metrics.lane(tenant).deferred.incr();
        }
        // Starvation accounting: a tenant that had candidates but got
        // nothing chosen extends its streak; any service resets it. The
        // gauge's high-water mark keeps the worst streak ever.
        for (tenant, _) in &groups {
            let lane = self.metrics.lane(*tenant);
            if plan.chosen.iter().any(|c| c.tenant == *tenant) {
                lane.starvation.sub(lane.starvation.get());
            } else {
                lane.starved_rounds.incr();
                lane.starvation.add(1);
            }
        }
        plan
    }

    fn plan_drr(&self, groups: &[(u32, Vec<usize>)], session_budget: usize, plan: &mut SweepPlan) {
        let mut state = self.state.lock();
        for (tenant, _) in groups {
            if !state.lanes.contains_key(tenant) {
                state.lanes.insert(*tenant, LaneState::default());
                state.rr.push(*tenant);
            }
            let weight = self.policy.weight_of(*tenant);
            let accrual = (self.policy.quantum as u64 * weight) as i64;
            let cap = (DEFICIT_CAP_ROUNDS as i64).saturating_mul(accrual);
            let lane = state.lanes.get_mut(tenant).expect("lane just inserted");
            lane.deficit = (lane.deficit + accrual).min(cap);
        }
        // Serve tenants in rr order starting at the cursor, then rotate.
        let order: Vec<u32> = {
            let n = state.rr.len();
            let start = state.cursor % n.max(1);
            (0..n).map(|i| state.rr[(start + i) % n]).collect()
        };
        state.cursor = state.cursor.wrapping_add(1);
        for tenant in order {
            let Some((_, slots)) = groups.iter().find(|(t, _)| *t == tenant) else {
                continue;
            };
            let lane = state.lanes.get_mut(&tenant).expect("served lane exists");
            let mut avail = lane.deficit.max(0) as usize;
            // Split the credit evenly across the tenant's ready slots so
            // a single hot ring cannot monopolise the tenant's share.
            let fair_cut = (avail / slots.len()).max(1);
            for &slot in slots {
                if avail == 0 {
                    plan.deferred.push((slot, tenant));
                    continue;
                }
                let budget = fair_cut.min(session_budget).min(avail).max(1);
                avail -= budget.min(avail);
                plan.chosen.push(ChosenSlot {
                    slot,
                    tenant,
                    budget,
                });
            }
        }
    }

    /// Charge `tenant` for `entries` actually drained: spends the
    /// tenant's banked credit, possibly into overdraft.
    pub fn charge(&self, tenant: u32, entries: u64) {
        self.metrics.lane(tenant).drained.add(entries);
        let mut state = self.state.lock();
        if let Some(lane) = state.lanes.get_mut(&tenant) {
            lane.deficit -= entries as i64;
        }
    }
}

impl std::fmt::Debug for SweepScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepScheduler")
            .field("policy", &self.policy)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TenantSpec;

    /// Drive `rounds` scheduling rounds where the adversary tenant 1
    /// always has `adv_slots` backlogged slots and the victim tenant 0
    /// has one; each chosen slot "drains" its full budget. Returns
    /// (victim_entries, adversary_entries).
    fn run_rounds(sched: &SweepScheduler, adv_slots: usize, rounds: usize) -> (u64, u64) {
        let (mut victim, mut adv) = (0u64, 0u64);
        for _ in 0..rounds {
            let mut candidates = vec![(0usize, 0u32)];
            candidates.extend((1..=adv_slots).map(|s| (s, 1u32)));
            // A session budget comfortably above quantum x weight, so the
            // per-slot cap never clips a heavy tenant with few slots.
            let plan = sched.plan(&candidates, 256);
            for c in &plan.chosen {
                match c.tenant {
                    0 => victim += c.budget as u64,
                    _ => adv += c.budget as u64,
                }
                sched.charge(c.tenant, c.budget as u64);
            }
        }
        (victim, adv)
    }

    #[test]
    fn equal_weights_split_service_evenly_despite_slot_flood() {
        let sched = SweepScheduler::new(QosPolicy::weighted_fair([
            TenantSpec::new(0, 1),
            TenantSpec::new(1, 1),
        ]));
        // Adversary floods 12 slots against the victim's 1: slot-count
        // round robin would give the victim ~7.7%; DRR must hold ~50%.
        let (victim, adv) = run_rounds(&sched, 12, 50);
        let share = victim as f64 / (victim + adv) as f64;
        assert!(
            share > 0.45 && share < 0.55,
            "victim share {share:.3} (victim {victim}, adversary {adv})"
        );
    }

    #[test]
    fn weights_scale_the_split() {
        let sched = SweepScheduler::new(QosPolicy::weighted_fair([
            TenantSpec::new(0, 3),
            TenantSpec::new(1, 1),
        ]));
        let (victim, adv) = run_rounds(&sched, 8, 50);
        let share = victim as f64 / (victim + adv) as f64;
        assert!(
            share > 0.65 && share < 0.85,
            "3:1 weights should yield ~75% share, got {share:.3}"
        );
    }

    #[test]
    fn credit_is_split_across_a_tenants_slots() {
        let sched =
            SweepScheduler::new(QosPolicy::weighted_fair([TenantSpec::new(5, 1)]).with_quantum(64));
        let candidates: Vec<(usize, u32)> = (0..4).map(|s| (s, 5u32)).collect();
        let plan = sched.plan(&candidates, 128);
        assert_eq!(plan.chosen.len(), 4, "every slot served: {plan:?}");
        for c in &plan.chosen {
            assert_eq!(c.budget, 16, "64 credit / 4 slots");
        }
    }

    #[test]
    fn overdrafted_tenant_defers_but_recovers() {
        let sched =
            SweepScheduler::new(QosPolicy::weighted_fair([TenantSpec::new(0, 1)]).with_quantum(4));
        let plan = sched.plan(&[(0, 0)], 64);
        assert_eq!(plan.chosen.len(), 1);
        // Overshoot the credit far past the cap'd accrual.
        sched.charge(0, 40);
        let starved = sched.plan(&[(0, 0)], 64);
        assert!(starved.chosen.is_empty(), "overdraft defers: {starved:?}");
        assert_eq!(starved.deferred, vec![(0, 0)]);
        // Accrual eventually pays the overdraft back.
        let mut served = false;
        for _ in 0..12 {
            if !sched.plan(&[(0, 0)], 64).chosen.is_empty() {
                served = true;
                break;
            }
        }
        assert!(served, "tenant recovers from overdraft");
        let lane = sched.metrics().lane(0);
        assert!(lane.starved_rounds.get() >= 1);
        assert!(lane.starvation.high_water() >= 1, "worst streak recorded");
        assert_eq!(lane.starvation.get(), 0, "streak reset on service");
    }

    #[test]
    fn deficit_accrual_is_capped() {
        let sched =
            SweepScheduler::new(QosPolicy::weighted_fair([TenantSpec::new(0, 1)]).with_quantum(8));
        // Many idle rounds (candidates present, never charged) cannot
        // bank more than DEFICIT_CAP_ROUNDS x quantum.
        for _ in 0..100 {
            sched.plan(&[(0, 0)], 1_000_000);
        }
        let plan = sched.plan(&[(0, 0)], 1_000_000);
        assert!(
            plan.chosen[0].budget <= (DEFICIT_CAP_ROUNDS as usize) * 8,
            "budget {} exceeds cap",
            plan.chosen[0].budget
        );
    }

    #[test]
    fn service_order_rotates_between_rounds() {
        let sched = SweepScheduler::new(QosPolicy::weighted_fair([
            TenantSpec::new(0, 1),
            TenantSpec::new(1, 1),
        ]));
        let candidates = [(0usize, 0u32), (1usize, 1u32)];
        let first = sched.plan(&candidates, 64).chosen[0].tenant;
        let second = sched.plan(&candidates, 64).chosen[0].tenant;
        assert_ne!(first, second, "cursor rotates the first-served tenant");
    }
}
