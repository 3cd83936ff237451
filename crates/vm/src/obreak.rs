//! `sys_obreak()` — heap growth and shrinkage, with the SecModule twist.
//!
//! The paper modifies `sys_obreak()` (and the `uvm_map()` call it makes) so
//! that "additional heap space [is requested] as shared, if the request came
//! for one of the process\[es\] in a SecModule pair".  Here, growth of a
//! paired process's heap creates/extends a *shared* entry; the peer picks up
//! the new pages lazily through the modified fault path
//! ([`crate::space::VmSpace::fault_with_peer`]).

use crate::addr::{page_align_up, VRange, Vaddr, PAGE_SIZE};
use crate::entry::{Inherit, MapEntry, Protection};
use crate::space::VmSpace;
use crate::{Result, VmError};

/// Outcome of an `obreak` call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObreakOutcome {
    /// The previous break value.
    pub old_brk: Vaddr,
    /// The new break value (page aligned).
    pub new_brk: Vaddr,
    /// Number of pages added (positive growth only).
    pub pages_added: u64,
    /// Number of pages removed (shrink only).
    pub pages_removed: u64,
    /// Whether the newly added region was created as a shared mapping
    /// (SecModule pair member).
    pub shared: bool,
}

/// Simulated `sys_obreak(p, nsize)`: move the heap break of `space` to
/// `new_break` (rounded up to a page).
///
/// If the space is a member of an smod pair (its share range is set), any
/// newly created heap entry is marked shared so that the peer can map it in
/// on fault — this mirrors the paper's modified `sys_obreak`/`uvm_map`.
pub fn sys_obreak(space: &mut VmSpace, new_break: Vaddr) -> Result<ObreakOutcome> {
    let layout = space.layout;
    let data_region = layout.data_region();
    let old_brk = space.brk();
    let aligned_new = Vaddr(page_align_up(new_break.0));

    if aligned_new < Vaddr(layout.data_base) {
        return Err(VmError::OutOfRange {
            reason: "break below the start of the data segment",
        });
    }
    if aligned_new > data_region.end {
        return Err(VmError::OutOfRange {
            reason: "break beyond the maximum data size (MAXDSIZ)",
        });
    }

    let is_paired = space.smod_share_range().is_some();
    let mut outcome = ObreakOutcome {
        old_brk,
        new_brk: aligned_new,
        pages_added: 0,
        pages_removed: 0,
        shared: false,
    };

    if aligned_new > old_brk {
        let grow = VRange::new(old_brk, aligned_new);
        outcome.pages_added = grow.len() / PAGE_SIZE;
        // Extend the existing heap entry if one ends exactly at the old
        // break and growing it does not collide; otherwise insert a new one.
        let existing_start = space
            .map
            .entries()
            .find(|e| e.range.end == old_brk && e.label.starts_with("data"))
            .map(|e| e.range.start);
        let extended = match existing_start {
            Some(start) if !is_paired => space.map.grow_entry(start, aligned_new).is_ok(),
            // For paired processes the paper allocates the growth as a new
            // *shared* mapping rather than silently extending a private one.
            _ => false,
        };
        if !extended {
            let mut entry = MapEntry::new_anon(grow, Protection::RW, "data/heap");
            if is_paired {
                entry.shared = true;
                entry.inherit = Inherit::Share;
                outcome.shared = true;
            }
            space.map.insert(entry)?;
        }
    } else if aligned_new < old_brk {
        let shrink = VRange::new(aligned_new, old_brk);
        outcome.pages_removed = shrink.len() / PAGE_SIZE;
        space.map.unmap(shrink)?;
    }

    space.set_brk(aligned_new);
    space.stats.obreak_calls += 1;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::AccessType;
    use crate::layout::Layout;
    use std::sync::Arc;

    fn space(name: &str, heap_pages: u64) -> VmSpace {
        VmSpace::new_user(
            name,
            Layout::openbsd_i386(),
            Arc::new(vec![0u8; 4096]),
            heap_pages,
            4,
        )
        .unwrap()
    }

    #[test]
    fn grow_and_use_new_heap() {
        let mut s = space("p", 2);
        let old = s.brk();
        let target = Vaddr(old.0 + 3 * PAGE_SIZE + 100); // unaligned on purpose
        let out = sys_obreak(&mut s, target).unwrap();
        assert_eq!(out.old_brk, old);
        assert_eq!(out.new_brk, Vaddr(page_align_up(target.0)));
        assert_eq!(out.pages_added, 4);
        assert!(!out.shared);
        // New memory is usable.
        s.write_bytes(Vaddr(old.0 + PAGE_SIZE), b"grown").unwrap();
        assert_eq!(s.read_bytes(Vaddr(old.0 + PAGE_SIZE), 5).unwrap(), b"grown");
        assert_eq!(s.stats.obreak_calls, 1);
    }

    #[test]
    fn shrink_releases_pages() {
        let mut s = space("p", 8);
        let old = s.brk();
        s.write_bytes(Vaddr(old.0 - PAGE_SIZE), b"tail").unwrap();
        let new = Vaddr(old.0 - 4 * PAGE_SIZE);
        let out = sys_obreak(&mut s, new).unwrap();
        assert_eq!(out.pages_removed, 4);
        assert_eq!(s.brk(), new);
        // The released range is no longer mapped.
        assert!(s.fault(Vaddr(new.0), AccessType::Read).is_err());
        // The retained range still works.
        s.write_bytes(Vaddr(s.layout.data_base), b"kept").unwrap();
    }

    #[test]
    fn same_break_is_a_noop() {
        let mut s = space("p", 2);
        let old = s.brk();
        let out = sys_obreak(&mut s, old).unwrap();
        assert_eq!(out.pages_added, 0);
        assert_eq!(out.pages_removed, 0);
        assert_eq!(s.brk(), old);
    }

    #[test]
    fn limits_are_enforced() {
        let mut s = space("p", 2);
        let below = Vaddr(s.layout.data_base - PAGE_SIZE);
        let beyond = Vaddr(s.layout.data_region().end.0 + PAGE_SIZE);
        let limit = s.layout.data_region().end;
        assert!(sys_obreak(&mut s, below).is_err());
        assert!(sys_obreak(&mut s, beyond).is_err());
        // Exactly at the limit is allowed.
        sys_obreak(&mut s, limit).unwrap();
    }

    #[test]
    fn paired_growth_is_shared_and_visible_to_peer() {
        let mut client = space("client", 4);
        let mut handle = space("handle", 4);
        let share = client.layout.share_region();
        handle.force_share_from(&mut client, share).unwrap();

        // Client grows its heap after the pair is established.
        let old = client.brk();
        let out = sys_obreak(&mut client, Vaddr(old.0 + 2 * PAGE_SIZE)).unwrap();
        assert!(out.shared, "growth of a paired process must be shared");

        // Client writes into the new pages; handle sees them via peer fault.
        client.write_bytes(old, b"new heap page").unwrap();
        let got = handle.read_bytes_with_peer(old, 13, Some(&client)).unwrap();
        assert_eq!(got, b"new heap page");
        assert!(handle.stats.peer_shares >= 1);
    }

    #[test]
    fn unpaired_growth_extends_existing_entry() {
        let mut s = space("p", 2);
        let entries_before = s.map.len();
        let target = Vaddr(s.brk().0 + PAGE_SIZE);
        sys_obreak(&mut s, target).unwrap();
        // The heap entry was extended in place, not duplicated.
        assert_eq!(s.map.len(), entries_before);
    }

    #[test]
    fn grow_then_shrink_roundtrip() {
        let mut s = space("p", 2);
        let original = s.brk();
        sys_obreak(&mut s, Vaddr(original.0 + 8 * PAGE_SIZE)).unwrap();
        sys_obreak(&mut s, original).unwrap();
        assert_eq!(s.brk(), original);
        // Memory below the original break still usable.
        s.write_bytes(Vaddr(s.layout.data_base), b"ok").unwrap();
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        #[test]
        fn prop_brk_always_page_aligned_and_in_bounds(
            deltas in proptest::collection::vec(-8i64..8, 1..12)) {
            let mut s = space("p", 4);
            for d in deltas {
                let target = (s.brk().0 as i64 + d * PAGE_SIZE as i64).max(0) as u64;
                let _ = sys_obreak(&mut s, Vaddr(target));
                proptest::prop_assert_eq!(s.brk().0 % PAGE_SIZE, 0);
                proptest::prop_assert!(s.brk().0 >= s.layout.data_base);
                proptest::prop_assert!(s.brk() <= s.layout.data_region().end);
            }
        }
    }
}
