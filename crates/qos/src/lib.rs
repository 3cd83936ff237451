//! `secmod_qos` — tenant isolation for shared dispatch planes: who gets
//! the sweep budget.
//!
//! The paper measures access-control dispatch cost for a single caller;
//! at production scale one [`DispatchPlane`](../secmod_kernel) is shared
//! by many modules and many *tenants*, and the bottleneck moves from
//! per-call cost to scheduling: an adversarial tenant that floods its
//! rings must not starve a well-behaved neighbour. This crate is that
//! scheduling layer. (A drainer that dies mid-sweep is the plane's own
//! business: its exit guard hands the claimed readiness bits back and
//! respawns the seat, on the dying thread, with nothing from here.)
//!
//! * [`TenantId`] / [`TenantSpec`] / [`QosPolicy`] — tenant identities
//!   and their weights. The ring layer carries the tenant as a raw `u32`
//!   per slot (it stays kernel- and QoS-agnostic, like the raw session
//!   and owner ids it already carries); everything above wraps it here.
//! * [`SweepScheduler`] ([`sched`]) — deficit-round-robin over the slots
//!   a sweep claimed from the readiness bitmap: each tenant accrues
//!   `quantum x weight` drain credit per round, slots of overdrafted
//!   tenants are deferred (released back to the bitmap), and the
//!   round-robin cursor rotates so no tenant is always served first.
//! * [`QosMetrics`] / [`TenantLane`] ([`metrics`]) — per-tenant sweep
//!   counters (claimed / chosen / deferred / drained / completed) and a
//!   starvation gauge whose high-water mark records the worst streak of
//!   consecutive unserved rounds.
//!
//! Like `secmod_obs`, the crate sits *below* the kernel so the ring, the
//! kernel sweep path, and the plane's drainers can all share one
//! scheduler without a dependency cycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod sched;

pub use metrics::{QosMetrics, TenantLane};
pub use sched::{ChosenSlot, SweepPlan, SweepScheduler};

/// A tenant identity, carried per ring slot.
///
/// The ring layer stores this as a bare `u32` next to the raw session
/// and owner ids; this newtype is the layer everything above the ring
/// speaks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TenantId(pub u32);

impl TenantId {
    /// The tenant every legacy (pre-QoS) registration lands in.
    pub const DEFAULT: TenantId = TenantId(0);
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tenant{}", self.0)
    }
}

/// One tenant's share of the sweep budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenantSpec {
    /// The tenant this spec describes.
    pub id: TenantId,
    /// Relative drain weight (credit accrued per scheduling round is
    /// `quantum x weight`). Clamped to at least 1 by [`TenantSpec::new`].
    pub weight: u32,
}

impl TenantSpec {
    /// A spec for tenant `id` with `weight` (clamped to >= 1).
    pub fn new(id: u32, weight: u32) -> TenantSpec {
        TenantSpec {
            id: TenantId(id),
            weight: weight.max(1),
        }
    }
}

/// The plane-level QoS policy: the tenant roster and the per-round drain
/// quantum of the deficit-round-robin scheduler ([`sched`]).
#[derive(Clone, Debug)]
pub struct QosPolicy {
    /// Known tenants and their weights. Tenants that show up in traffic
    /// without a spec weigh 1.
    pub tenants: Vec<TenantSpec>,
    /// Base drain credit (in ring entries) accrued per scheduling round,
    /// scaled by each tenant's weight.
    pub quantum: usize,
}

impl QosPolicy {
    /// A weighted-fair policy over `tenants` with the default quantum.
    pub fn weighted_fair(tenants: impl IntoIterator<Item = TenantSpec>) -> QosPolicy {
        QosPolicy {
            tenants: tenants.into_iter().collect(),
            quantum: 64,
        }
    }

    /// Override the per-round drain quantum (clamped to >= 1).
    pub fn with_quantum(mut self, quantum: usize) -> QosPolicy {
        self.quantum = quantum.max(1);
        self
    }

    /// The weight of `tenant` (the listed weight, or 1).
    pub fn weight_of(&self, tenant: u32) -> u64 {
        self.tenants
            .iter()
            .find(|s| s.id.0 == tenant)
            .map_or(1, |s| s.weight as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tenant_spec_clamps_weight() {
        assert_eq!(TenantSpec::new(3, 0).weight, 1);
        assert_eq!(TenantSpec::new(3, 7).weight, 7);
        assert_eq!(format!("{}", TenantId(4)), "tenant4");
    }

    #[test]
    fn policy_weight_lookup_falls_back_to_default() {
        let p = QosPolicy::weighted_fair([TenantSpec::new(1, 3)]);
        assert_eq!(p.weight_of(1), 3);
        assert_eq!(p.weight_of(99), 1);
        assert_eq!(p.with_quantum(0).quantum, 1);
    }
}
