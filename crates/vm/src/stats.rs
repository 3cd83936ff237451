//! Per-address-space fault and sharing statistics.

use serde::{Deserialize, Serialize};

/// Counters maintained by the fault handler and sharing operations.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VmStats {
    /// Total faults handled (successfully or not).
    pub faults: u64,
    /// Zero-fill page allocations.
    pub zero_fills: u64,
    /// Copy-on-write page copies.
    pub cow_breaks: u64,
    /// Faults satisfied by sharing a mapping from the smod peer
    /// (the paper's modified `uvm_fault()` path).
    pub peer_shares: u64,
    /// Faults that ended in a segmentation fault.
    pub segfaults: u64,
    /// Faults that ended in a protection violation.
    pub protection_violations: u64,
    /// Entries shared by `uvmspace_force_share`.
    pub force_shared_entries: u64,
    /// Heap size changes performed by `sys_obreak`.
    pub obreak_calls: u64,
}

impl VmStats {
    /// Reset all counters to zero.
    pub fn reset(&mut self) {
        *self = VmStats::default();
    }
}

impl std::fmt::Display for VmStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "faults={} zero_fills={} cow_breaks={} peer_shares={} segfaults={} prot_violations={} force_shared={} obreak={}",
            self.faults,
            self.zero_fills,
            self.cow_breaks,
            self.peer_shares,
            self.segfaults,
            self.protection_violations,
            self.force_shared_entries,
            self.obreak_calls
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_zeroed_and_reset_works() {
        let mut s = VmStats::default();
        assert_eq!(s.faults, 0);
        s.faults = 10;
        s.segfaults = 2;
        s.protection_violations = 1;
        s.reset();
        assert_eq!(s, VmStats::default());
    }

    #[test]
    fn display_contains_counters() {
        let s = VmStats {
            peer_shares: 3,
            ..Default::default()
        };
        let text = s.to_string();
        assert!(text.contains("peer_shares=3"));
    }
}
