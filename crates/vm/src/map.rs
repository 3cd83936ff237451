//! The per-address-space map of entries (`vm_map` analogue).

use crate::addr::{VRange, Vaddr, PAGE_SIZE};
use crate::entry::{MapEntry, Protection};
use crate::{Result, VmError};
use std::collections::BTreeMap;

/// An ordered collection of non-overlapping [`MapEntry`]s.
#[derive(Clone, Debug, Default)]
pub struct VmMap {
    entries: BTreeMap<u64, MapEntry>,
}

impl VmMap {
    /// Create an empty map.
    pub fn new() -> VmMap {
        VmMap::default()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the map empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Insert an entry at a fixed address (UVM `uvm_map()` with
    /// `UVM_FLAG_FIXED`).  Fails if the range is unaligned, empty, or
    /// overlaps an existing entry.
    pub fn insert(&mut self, entry: MapEntry) -> Result<()> {
        let range = entry.range;
        if range.is_empty() {
            return Err(VmError::InvalidRange {
                reason: "empty mapping",
            });
        }
        if !range.start.is_page_aligned() || !range.end.is_page_aligned() {
            return Err(VmError::InvalidRange {
                reason: "mapping bounds must be page aligned",
            });
        }
        if self.entries_overlapping(range).next().is_some() {
            return Err(VmError::MappingOverlap { range });
        }
        self.entries.insert(range.start.0, entry);
        Ok(())
    }

    /// The entry containing `addr`, if any.
    pub fn entry_at(&self, addr: Vaddr) -> Option<&MapEntry> {
        self.entries
            .range(..=addr.0)
            .next_back()
            .map(|(_, e)| e)
            .filter(|e| e.contains(addr))
    }

    /// Mutable access to the entry containing `addr`.
    pub fn entry_at_mut(&mut self, addr: Vaddr) -> Option<&mut MapEntry> {
        self.entries
            .range_mut(..=addr.0)
            .next_back()
            .map(|(_, e)| e)
            .filter(|e| e.contains(addr))
    }

    /// Iterate over all entries in address order.
    pub fn entries(&self) -> impl Iterator<Item = &MapEntry> {
        self.entries.values()
    }

    /// Iterate over entries that overlap `range`.
    pub fn entries_overlapping(&self, range: VRange) -> impl Iterator<Item = &MapEntry> {
        self.entries
            .values()
            .filter(move |e| e.range.overlaps(&range))
    }

    /// Remove every mapping that overlaps `range`, clipping entries that
    /// straddle the boundary (UVM `uvm_unmap()`).  Returns the number of
    /// whole or partial entries affected.
    pub fn unmap(&mut self, range: VRange) -> Result<usize> {
        if range.is_empty() {
            return Ok(0);
        }
        if !range.start.is_page_aligned() || !range.end.is_page_aligned() {
            return Err(VmError::InvalidRange {
                reason: "unmap bounds must be page aligned",
            });
        }
        let keys: Vec<u64> = self
            .entries_overlapping(range)
            .map(|e| e.range.start.0)
            .collect();
        let affected = keys.len();
        for key in keys {
            let entry = self.entries.remove(&key).expect("key just observed");
            // Left remainder.
            if entry.range.start < range.start {
                let left = entry.clipped(VRange::new(entry.range.start, range.start));
                self.entries.insert(left.range.start.0, left);
            }
            // Right remainder.
            if entry.range.end > range.end {
                let right = entry.clipped(VRange::new(range.end, entry.range.end));
                self.entries.insert(right.range.start.0, right);
            }
        }
        Ok(affected)
    }

    /// Change protection on every entry fully or partially inside `range`,
    /// clipping entries at the boundaries (UVM `uvm_map_protect()`).
    pub fn protect(&mut self, range: VRange, prot: Protection) -> Result<usize> {
        if !range.start.is_page_aligned() || !range.end.is_page_aligned() {
            return Err(VmError::InvalidRange {
                reason: "protect bounds must be page aligned",
            });
        }
        let keys: Vec<u64> = self
            .entries_overlapping(range)
            .map(|e| e.range.start.0)
            .collect();
        let affected = keys.len();
        for key in keys {
            let entry = self.entries.remove(&key).expect("key just observed");
            let middle_range = entry.range.intersect(&range).expect("overlap checked");
            if entry.range.start < middle_range.start {
                let left = entry.clipped(VRange::new(entry.range.start, middle_range.start));
                self.entries.insert(left.range.start.0, left);
            }
            if entry.range.end > middle_range.end {
                let right = entry.clipped(VRange::new(middle_range.end, entry.range.end));
                self.entries.insert(right.range.start.0, right);
            }
            let mut middle = entry.clipped(middle_range);
            middle.prot = prot;
            self.entries.insert(middle.range.start.0, middle);
        }
        Ok(affected)
    }

    /// Grow an existing entry in place so that its end becomes `new_end`
    /// (used by `sys_obreak` for heap growth).  The grown region must not
    /// collide with the next entry.
    pub fn grow_entry(&mut self, start: Vaddr, new_end: Vaddr) -> Result<()> {
        if !new_end.is_page_aligned() {
            return Err(VmError::InvalidRange {
                reason: "grow target must be page aligned",
            });
        }
        // Collision check against the next entry.
        let current_end = match self.entries.get(&start.0) {
            Some(e) => e.range.end,
            None => {
                return Err(VmError::InvalidRange {
                    reason: "no entry starts at the given address",
                })
            }
        };
        if new_end < current_end {
            return Err(VmError::InvalidRange {
                reason: "grow_entry cannot shrink",
            });
        }
        if let Some((_, next)) = self.entries.range(start.0 + 1..).next() {
            if next.range.start < new_end {
                return Err(VmError::MappingOverlap { range: next.range });
            }
        }
        let entry = self.entries.get_mut(&start.0).expect("checked above");
        entry.range = VRange::new(entry.range.start, new_end);
        Ok(())
    }

    /// A human-readable listing of the map (similar to `procmap`), useful in
    /// tests and examples.
    pub fn describe(&self) -> String {
        let mut s = String::new();
        for e in self.entries.values() {
            s.push_str(&format!(
                "{:#012x}-{:#012x} {:?} {}{} {}\n",
                e.range.start.0,
                e.range.end.0,
                e.prot,
                if e.shared { "shared " } else { "private" },
                "",
                e.label
            ));
        }
        s
    }
}

/// Check that an address range is page aligned and non-empty (helper shared
/// by kernel-level wrappers).
pub fn validate_user_range(range: VRange) -> Result<()> {
    if range.is_empty() {
        return Err(VmError::InvalidRange {
            reason: "empty range",
        });
    }
    if !range.start.0.is_multiple_of(PAGE_SIZE) || !range.end.0.is_multiple_of(PAGE_SIZE) {
        return Err(VmError::InvalidRange {
            reason: "range must be page aligned",
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::MapEntry;

    fn anon(start: u64, pages: u64, label: &str) -> MapEntry {
        MapEntry::new_anon(
            VRange::from_raw(start, start + pages * PAGE_SIZE),
            Protection::RW,
            label,
        )
    }

    #[test]
    fn insert_and_lookup() {
        let mut m = VmMap::new();
        m.insert(anon(0x1000, 2, "a")).unwrap();
        m.insert(anon(0x4000, 1, "b")).unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m.entry_at(Vaddr(0x1000)).unwrap().label, "a");
        assert_eq!(m.entry_at(Vaddr(0x2fff)).unwrap().label, "a");
        assert!(m.entry_at(Vaddr(0x3000)).is_none());
        assert_eq!(m.entry_at(Vaddr(0x4000)).unwrap().label, "b");
        assert!(m.entry_at(Vaddr(0x5000)).is_none());
    }

    #[test]
    fn insert_rejects_overlap_and_bad_ranges() {
        let mut m = VmMap::new();
        m.insert(anon(0x1000, 2, "a")).unwrap();
        assert!(matches!(
            m.insert(anon(0x2000, 2, "b")),
            Err(VmError::MappingOverlap { .. })
        ));
        assert!(matches!(
            m.insert(anon(0x1000, 0, "empty")),
            Err(VmError::InvalidRange { .. })
        ));
        let unaligned = MapEntry::new_anon(VRange::from_raw(0x100, 0x1100), Protection::RW, "u");
        assert!(matches!(
            m.insert(unaligned),
            Err(VmError::InvalidRange { .. })
        ));
    }

    #[test]
    fn unmap_whole_and_partial() {
        let mut m = VmMap::new();
        m.insert(anon(0x1000, 4, "a")).unwrap(); // 0x1000-0x5000
                                                 // Unmap the middle two pages; entry is split into two remainders.
        assert_eq!(m.unmap(VRange::from_raw(0x2000, 0x4000)).unwrap(), 1);
        assert_eq!(m.len(), 2);
        assert!(m.entry_at(Vaddr(0x1000)).is_some());
        assert!(m.entry_at(Vaddr(0x2000)).is_none());
        assert!(m.entry_at(Vaddr(0x3fff)).is_none());
        assert!(m.entry_at(Vaddr(0x4000)).is_some());
        // Unmap everything.
        assert_eq!(m.unmap(VRange::from_raw(0x0, 0x10_000)).unwrap(), 2);
        assert!(m.is_empty());
        // Unmapping nothing is fine.
        assert_eq!(m.unmap(VRange::from_raw(0x0, 0x10_000)).unwrap(), 0);
        assert_eq!(m.unmap(VRange::from_raw(0x0, 0x0)).unwrap(), 0);
        // Unaligned unmap is rejected.
        assert!(m.unmap(VRange::from_raw(0x100, 0x200)).is_err());
    }

    #[test]
    fn split_entries_share_backing_amap() {
        let mut m = VmMap::new();
        m.insert(anon(0x1000, 4, "heap")).unwrap();
        // Touch a page in the soon-to-be-left part.
        let amap = m.entry_at(Vaddr(0x1000)).unwrap().amap().unwrap().clone();
        amap.lookup_or_zero_fill(1).0.write(0, b"keep");
        m.unmap(VRange::from_raw(0x3000, 0x4000)).unwrap();
        let left = m.entry_at(Vaddr(0x1000)).unwrap();
        let mut buf = [0u8; 4];
        left.amap().unwrap().lookup(1).unwrap().read(0, &mut buf);
        assert_eq!(&buf, b"keep");
    }

    #[test]
    fn protect_splits_and_updates() {
        let mut m = VmMap::new();
        m.insert(anon(0x1000, 4, "a")).unwrap();
        assert_eq!(
            m.protect(VRange::from_raw(0x2000, 0x3000), Protection::READ)
                .unwrap(),
            1
        );
        assert_eq!(m.len(), 3);
        assert_eq!(m.entry_at(Vaddr(0x1000)).unwrap().prot, Protection::RW);
        assert_eq!(m.entry_at(Vaddr(0x2000)).unwrap().prot, Protection::READ);
        assert_eq!(m.entry_at(Vaddr(0x3000)).unwrap().prot, Protection::RW);
        assert!(m
            .protect(VRange::from_raw(0x1, 0x2), Protection::READ)
            .is_err());
    }

    #[test]
    fn grow_entry_checks_collisions() {
        let mut m = VmMap::new();
        m.insert(anon(0x1000, 1, "heap")).unwrap();
        m.insert(anon(0x5000, 1, "other")).unwrap();
        m.grow_entry(Vaddr(0x1000), Vaddr(0x4000)).unwrap();
        assert_eq!(m.entry_at(Vaddr(0x3fff)).unwrap().label, "heap");
        // Growing into the next entry fails.
        assert!(m.grow_entry(Vaddr(0x1000), Vaddr(0x6000)).is_err());
        // Growing a nonexistent entry fails.
        assert!(m.grow_entry(Vaddr(0x9000), Vaddr(0xa000)).is_err());
        // Shrinking through grow_entry fails.
        assert!(m.grow_entry(Vaddr(0x1000), Vaddr(0x2000)).is_err());
        // Unaligned target fails.
        assert!(m.grow_entry(Vaddr(0x1000), Vaddr(0x4100)).is_err());
    }

    #[test]
    fn describe_lists_entries() {
        let mut m = VmMap::new();
        m.insert(anon(0x1000, 1, "heap")).unwrap();
        let desc = m.describe();
        assert!(desc.contains("heap"));
        assert!(desc.contains("rw-"));
    }

    #[test]
    fn validate_user_range_helper() {
        assert!(validate_user_range(VRange::from_raw(0x1000, 0x2000)).is_ok());
        assert!(validate_user_range(VRange::from_raw(0x1000, 0x1000)).is_err());
        assert!(validate_user_range(VRange::from_raw(0x1001, 0x2000)).is_err());
    }

    proptest::proptest! {
        #[test]
        fn prop_unmap_never_leaves_overlaps(
            starts in proptest::collection::vec(0u64..64, 1..10),
            sizes in proptest::collection::vec(1u64..8, 1..10),
            unmap_start in 0u64..64, unmap_len in 1u64..16) {
            let mut m = VmMap::new();
            for (s, z) in starts.iter().zip(sizes.iter()) {
                let start = s * PAGE_SIZE;
                let end = start + z * PAGE_SIZE;
                // Ignore overlapping inserts; we only care about map integrity.
                let _ = m.insert(MapEntry::new_anon(
                    VRange::from_raw(start, end), Protection::RW, "x"));
            }
            let range = VRange::from_raw(unmap_start * PAGE_SIZE,
                                         (unmap_start + unmap_len) * PAGE_SIZE);
            m.unmap(range).unwrap();
            // No entry may overlap the unmapped range, and entries must be
            // pairwise disjoint.
            let entries: Vec<VRange> = m.entries().map(|e| e.range).collect();
            for e in &entries {
                proptest::prop_assert!(!e.overlaps(&range));
            }
            for (i, a) in entries.iter().enumerate() {
                for b in entries.iter().skip(i + 1) {
                    proptest::prop_assert!(!a.overlaps(b));
                }
            }
        }
    }
}
