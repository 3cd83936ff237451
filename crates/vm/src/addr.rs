//! Virtual addresses, page arithmetic and address ranges.

use serde::{Deserialize, Serialize};

/// Page size used throughout the simulator (the i386 page size of the
/// paper's test machine).
pub const PAGE_SIZE: u64 = 4096;

/// A virtual address in a simulated address space.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Vaddr(pub u64);

impl Vaddr {
    /// The null address.
    pub const NULL: Vaddr = Vaddr(0);

    /// Construct from a raw value.
    pub const fn new(v: u64) -> Self {
        Vaddr(v)
    }

    /// Raw numeric value.
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Virtual page number (address divided by the page size).
    pub const fn vpn(self) -> u64 {
        self.0 / PAGE_SIZE
    }

    /// Offset within the page.
    pub const fn page_offset(self) -> u64 {
        self.0 % PAGE_SIZE
    }

    /// Is this address page aligned?
    pub const fn is_page_aligned(self) -> bool {
        self.0.is_multiple_of(PAGE_SIZE)
    }

    /// Address of the start of the containing page.
    pub const fn page_base(self) -> Vaddr {
        Vaddr(self.0 - self.0 % PAGE_SIZE)
    }

    /// Saturating addition of a byte offset.
    pub fn saturating_add(self, off: u64) -> Vaddr {
        Vaddr(self.0.saturating_add(off))
    }
}

impl std::fmt::Display for Vaddr {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

impl From<u64> for Vaddr {
    fn from(v: u64) -> Self {
        Vaddr(v)
    }
}

/// Round an address down to a page boundary.
pub const fn page_align_down(v: u64) -> u64 {
    v - v % PAGE_SIZE
}

/// Round an address up to a page boundary.
pub const fn page_align_up(v: u64) -> u64 {
    match v % PAGE_SIZE {
        0 => v,
        r => v + (PAGE_SIZE - r),
    }
}

/// A half-open virtual address range `[start, end)`.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct VRange {
    /// Inclusive start address.
    pub start: Vaddr,
    /// Exclusive end address.
    pub end: Vaddr,
}

impl VRange {
    /// Construct a range; `start <= end` is required.
    pub fn new(start: Vaddr, end: Vaddr) -> Self {
        assert!(start <= end, "inverted range");
        VRange { start, end }
    }

    /// Construct from raw u64 bounds.
    pub fn from_raw(start: u64, end: u64) -> Self {
        Self::new(Vaddr(start), Vaddr(end))
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.end.0 - self.start.0
    }

    /// Is the range empty?
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Does the range contain the address?
    pub fn contains(&self, addr: Vaddr) -> bool {
        addr >= self.start && addr < self.end
    }

    /// Does the range fully contain another range?
    pub fn contains_range(&self, other: &VRange) -> bool {
        other.start >= self.start && other.end <= self.end
    }

    /// Do two ranges overlap?
    pub fn overlaps(&self, other: &VRange) -> bool {
        self.start < other.end && other.start < self.end
    }

    /// Intersection of two ranges, if non-empty.
    pub fn intersect(&self, other: &VRange) -> Option<VRange> {
        let start = self.start.max(other.start);
        let end = self.end.min(other.end);
        if start < end {
            Some(VRange { start, end })
        } else {
            None
        }
    }

    /// Iterate over the page base addresses covered by this range.
    pub fn pages(&self) -> impl Iterator<Item = Vaddr> {
        let start = page_align_down(self.start.0);
        let end = page_align_up(self.end.0);
        (start..end).step_by(PAGE_SIZE as usize).map(Vaddr)
    }
}

impl std::fmt::Display for VRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {})", self.start, self.end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vaddr_page_arithmetic() {
        let a = Vaddr(0x1234);
        assert_eq!(a.vpn(), 1);
        assert_eq!(a.page_offset(), 0x234);
        assert!(!a.is_page_aligned());
        assert_eq!(a.page_base(), Vaddr(0x1000));
        assert!(Vaddr(0x2000).is_page_aligned());
        assert_eq!(Vaddr(0).page_base(), Vaddr(0));
    }

    #[test]
    fn align_helpers() {
        assert_eq!(page_align_down(0x1fff), 0x1000);
        assert_eq!(page_align_down(0x2000), 0x2000);
        assert_eq!(page_align_up(0x1001), 0x2000);
        assert_eq!(page_align_up(0x2000), 0x2000);
        assert_eq!(page_align_up(0), 0);
    }

    #[test]
    fn checked_and_saturating_add() {
        assert_eq!(Vaddr(10).saturating_add(5), Vaddr(15));
        assert_eq!(Vaddr(u64::MAX).saturating_add(10), Vaddr(u64::MAX));
    }

    #[test]
    fn range_basics() {
        let r = VRange::from_raw(0x1000, 0x3000);
        assert_eq!(r.len(), 0x2000);
        assert!(r.contains(Vaddr(0x1000)));
        assert!(r.contains(Vaddr(0x2fff)));
        assert!(!r.contains(Vaddr(0x3000)));
        assert!(!r.is_empty());
        assert!(VRange::from_raw(5, 5).is_empty());
    }

    #[test]
    #[should_panic]
    fn inverted_range_panics() {
        VRange::from_raw(10, 5);
    }

    #[test]
    fn range_overlap_and_intersection() {
        let a = VRange::from_raw(0x1000, 0x3000);
        let b = VRange::from_raw(0x2000, 0x4000);
        let c = VRange::from_raw(0x3000, 0x5000);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert_eq!(a.intersect(&b), Some(VRange::from_raw(0x2000, 0x3000)));
        assert_eq!(a.intersect(&c), None);
        assert!(a.contains_range(&VRange::from_raw(0x1000, 0x2000)));
        assert!(!a.contains_range(&b));
    }

    #[test]
    fn range_page_iteration() {
        let r = VRange::from_raw(0x1800, 0x3800);
        let pages: Vec<u64> = r.pages().map(|p| p.0).collect();
        assert_eq!(pages, vec![0x1000, 0x2000, 0x3000]);
    }

    proptest::proptest! {
        #[test]
        fn prop_align_roundtrip(v in 0u64..1u64 << 40) {
            let down = page_align_down(v);
            let up = page_align_up(v);
            proptest::prop_assert!(down <= v && v <= up);
            proptest::prop_assert_eq!(down % PAGE_SIZE, 0);
            proptest::prop_assert_eq!(up % PAGE_SIZE, 0);
            proptest::prop_assert!(up - down <= PAGE_SIZE);
        }

        #[test]
        fn prop_intersection_is_symmetric(a0 in 0u64..1000, a1 in 0u64..1000,
                                          b0 in 0u64..1000, b1 in 0u64..1000) {
            let a = VRange::from_raw(a0.min(a1), a0.max(a1));
            let b = VRange::from_raw(b0.min(b1), b0.max(b1));
            proptest::prop_assert_eq!(a.intersect(&b), b.intersect(&a));
            proptest::prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
        }
    }
}
