//! Address spaces (`vmspace` analogue): layout-aware maps with a fault
//! handler, fork, and the SecModule forced-sharing operation.

use crate::addr::{page_align_up, VRange, Vaddr, PAGE_SIZE};
use crate::entry::{Inherit, MapEntry, MapKind, Protection};
use crate::fault::{AccessType, FaultOutcome};
use crate::layout::Layout;
use crate::map::VmMap;
use crate::stats::VmStats;
use crate::{Result, VmError};
use std::sync::Arc;

/// A simulated address space.
#[derive(Debug)]
pub struct VmSpace {
    /// The entry map.
    pub map: VmMap,
    /// Layout parameters (region boundaries).
    pub layout: Layout,
    /// Fault/sharing statistics.
    pub stats: VmStats,
    /// Human-readable name (usually the owning process name).
    pub name: String,
    /// Current heap break (end of the data segment).
    brk: Vaddr,
    /// If this space is a member of an smod pair, the forcibly shared range.
    smod_share: Option<VRange>,
}

impl VmSpace {
    /// Create an empty address space with the given layout.
    pub fn new(name: &str, layout: Layout) -> VmSpace {
        VmSpace {
            map: VmMap::new(),
            layout,
            stats: VmStats::default(),
            name: name.to_string(),
            brk: Vaddr(layout.data_base),
            smod_share: None,
        }
    }

    /// Create a user address space with the traditional text / data+heap /
    /// stack triple of the paper's Figure 2.
    ///
    /// * `text_image` — the program text bytes (mapped read+execute).
    /// * `heap_pages` — initial heap size in pages.
    /// * `stack_pages` — initial stack size in pages.
    pub fn new_user(
        name: &str,
        layout: Layout,
        text_image: Arc<Vec<u8>>,
        heap_pages: u64,
        stack_pages: u64,
    ) -> Result<VmSpace> {
        let mut space = VmSpace::new(name, layout);
        let text_len = page_align_up(text_image.len().max(1) as u64);
        let text_range = VRange::from_raw(layout.text_base, layout.text_base + text_len);
        space.map.insert(MapEntry::new_object(
            text_range,
            Protection::RX,
            text_image,
            0,
            "text",
        ))?;

        let heap_len = heap_pages * PAGE_SIZE;
        let heap_range = VRange::from_raw(layout.data_base, layout.data_base + heap_len);
        if heap_len > 0 {
            space
                .map
                .insert(MapEntry::new_anon(heap_range, Protection::RW, "data/heap"))?;
        }
        space.brk = heap_range.end;

        let stack_range = layout.initial_stack(stack_pages);
        space
            .map
            .insert(MapEntry::new_anon(stack_range, Protection::RW, "stack"))?;
        Ok(space)
    }

    /// The current heap break.
    pub fn brk(&self) -> Vaddr {
        self.brk
    }

    /// Set the heap break value (bookkeeping only; used by `sys_obreak`).
    pub(crate) fn set_brk(&mut self, brk: Vaddr) {
        self.brk = brk;
    }

    /// The forcibly shared range, if this space belongs to an smod pair.
    pub fn smod_share_range(&self) -> Option<VRange> {
        self.smod_share
    }

    // surface: §3's unmapped secret region is checked through it, by the address-space tests only
    /// Is there any mapping covering `addr`?
    pub fn has_mapping(&self, addr: Vaddr) -> bool {
        self.map.entry_at(addr).is_some()
    }

    /// Handle a page fault at `addr` without a peer (ordinary process).
    pub fn fault(&mut self, addr: Vaddr, access: AccessType) -> Result<FaultOutcome> {
        self.fault_with_peer(addr, access, None)
    }

    /// Handle a page fault at `addr` for a member of an smod pair.
    ///
    /// This is the paper's modified `uvm_fault()`: if no local mapping
    /// covers the address, but the address lies inside the pair's shared
    /// region and the *peer* has a valid mapping there, the peer's entry is
    /// mapped in as a share and the fault is retried.
    pub fn fault_with_peer(
        &mut self,
        addr: Vaddr,
        access: AccessType,
        peer: Option<&VmSpace>,
    ) -> Result<FaultOutcome> {
        self.stats.faults += 1;
        let mut outcome = FaultOutcome::default();

        if self.map.entry_at(addr).is_none() {
            // "Unavailable mapping" — consult the peer if we are paired.
            let shared = self.try_share_from_peer(addr, peer)?;
            if shared {
                outcome.shared_from_peer = true;
                self.stats.peer_shares += 1;
            } else {
                self.stats.segfaults += 1;
                return Err(VmError::SegmentationFault { addr });
            }
        }

        let entry = self.map.entry_at(addr).expect("entry present after share");
        if !entry.prot.allows(access.required_protection()) {
            self.stats.protection_violations += 1;
            return Err(VmError::ProtectionViolation {
                addr,
                attempted: access,
                allowed: entry.prot,
            });
        }

        match &entry.kind {
            MapKind::Object { .. } => {
                // Object-backed pages are materialised directly from the
                // image on access; nothing to do at fault time.
                outcome.already_resident = true;
            }
            MapKind::Anon { amap } => {
                let vpn = addr.vpn();
                let amap = amap.clone();
                let was_resident = amap.lookup(vpn).is_some();
                let page_shared = amap.page_is_shared(vpn);
                if !was_resident {
                    amap.lookup_or_zero_fill(vpn);
                    outcome.zero_filled = true;
                    self.stats.zero_fills += 1;
                } else if access == AccessType::Write && page_shared {
                    // Copy-on-write break: the frame is referenced by another
                    // amap (e.g. after fork).  Client↔handle sharing is
                    // expressed by *both* entries holding the same amap, so
                    // the frame's reference count stays at one and genuine
                    // shared writes never trigger a break.
                    amap.cow_break(vpn);
                    outcome.cow_copied = true;
                    self.stats.cow_breaks += 1;
                } else {
                    outcome.already_resident = true;
                }
            }
        }
        Ok(outcome)
    }

    /// Attempt to satisfy a missing mapping from the smod peer.  Returns
    /// `Ok(true)` if an entry was shared in.
    fn try_share_from_peer(&mut self, addr: Vaddr, peer: Option<&VmSpace>) -> Result<bool> {
        let share_range = match (self.smod_share, peer) {
            (Some(r), Some(_)) => r,
            _ => return Ok(false),
        };
        if !share_range.contains(addr) {
            return Ok(false);
        }
        let peer = peer.expect("checked above");
        let peer_entry = match peer.map.entry_at(addr) {
            Some(e) => e,
            None => return Ok(false),
        };
        // Only the portion of the peer entry inside the share region may be
        // mapped in.
        let clipped = match peer_entry.range.intersect(&share_range) {
            Some(r) => r,
            None => return Ok(false),
        };
        // Avoid colliding with whatever we already have mapped inside that
        // clipped range: share page-by-page region around the fault address.
        // The simple and sufficient policy is to share the maximal sub-range
        // of `clipped` around `addr` that is currently unmapped locally.
        let sub = self.unmapped_subrange_around(addr, clipped);
        let new_entry = peer_entry.share_clipped(sub);
        self.map.insert(new_entry)?;
        Ok(true)
    }

    /// Largest sub-range of `bound` containing `addr` that has no local
    /// mapping (so it can be inserted without overlap).
    fn unmapped_subrange_around(&self, addr: Vaddr, bound: VRange) -> VRange {
        debug_assert!(bound.contains(addr));
        let page = addr.page_base();
        let mut start = page;
        let mut end = Vaddr(page.0 + PAGE_SIZE);
        // Extend left.
        while start > bound.start {
            let candidate = Vaddr(start.0 - PAGE_SIZE);
            if self.map.entry_at(candidate).is_some() {
                break;
            }
            start = candidate;
        }
        // Extend right.
        while end < bound.end {
            if self.map.entry_at(end).is_some() {
                break;
            }
            end = Vaddr(end.0 + PAGE_SIZE);
        }
        VRange::new(start.max(bound.start), end.min(bound.end))
    }

    /// Read `len` bytes starting at `addr` (no peer).
    pub fn read_bytes(&mut self, addr: Vaddr, len: usize) -> Result<Vec<u8>> {
        self.read_bytes_with_peer(addr, len, None)
    }

    /// Write `data` starting at `addr` (no peer).
    pub fn write_bytes(&mut self, addr: Vaddr, data: &[u8]) -> Result<()> {
        self.write_bytes_with_peer(addr, data, None)
    }

    /// Read bytes, resolving missing mappings through the smod peer.
    pub fn read_bytes_with_peer(
        &mut self,
        addr: Vaddr,
        len: usize,
        peer: Option<&VmSpace>,
    ) -> Result<Vec<u8>> {
        let mut out = vec![0u8; len];
        let mut done = 0usize;
        while done < len {
            let cur = Vaddr(addr.0 + done as u64);
            self.fault_with_peer(cur, AccessType::Read, peer)?;
            let entry = self.map.entry_at(cur).expect("mapped after fault");
            let page_off = cur.page_offset() as usize;
            let n = usize::min(PAGE_SIZE as usize - page_off, len - done);
            match &entry.kind {
                MapKind::Anon { amap } => {
                    let page = amap
                        .lookup(cur.vpn())
                        .expect("anon page resident after fault");
                    page.read(page_off, &mut out[done..done + n]);
                }
                MapKind::Object { image, offset } => {
                    let img_off = (offset + (cur.0 - entry.range.start.0)) as usize;
                    for i in 0..n {
                        out[done + i] = image.get(img_off + i).copied().unwrap_or(0);
                    }
                }
            }
            done += n;
        }
        Ok(out)
    }

    /// Write bytes, resolving missing mappings through the smod peer.
    pub fn write_bytes_with_peer(
        &mut self,
        addr: Vaddr,
        data: &[u8],
        peer: Option<&VmSpace>,
    ) -> Result<()> {
        let mut done = 0usize;
        while done < data.len() {
            let cur = Vaddr(addr.0 + done as u64);
            self.fault_with_peer(cur, AccessType::Write, peer)?;
            let entry = self.map.entry_at(cur).expect("mapped after fault");
            let page_off = cur.page_offset() as usize;
            let n = usize::min(PAGE_SIZE as usize - page_off, data.len() - done);
            match &entry.kind {
                MapKind::Anon { amap } => {
                    let page = amap
                        .lookup(cur.vpn())
                        .expect("anon page resident after fault");
                    page.write(page_off, &data[done..done + n]);
                }
                MapKind::Object { .. } => {
                    // fault_with_peer already rejected writes unless the
                    // object mapping is writable, which we never create.
                    return Err(VmError::ProtectionViolation {
                        addr: cur,
                        attempted: AccessType::Write,
                        allowed: entry.prot,
                    });
                }
            }
            done += n;
        }
        Ok(())
    }

    /// Duplicate the address space for `fork()`, honouring per-entry
    /// inheritance (copy-on-write for private entries, sharing for shared
    /// ones).
    pub fn fork(&self, child_name: &str) -> VmSpace {
        let mut child = VmSpace::new(child_name, self.layout);
        for entry in self.map.entries() {
            // Entries that are shared only because of an smod pairing are
            // inherited copy-on-write like ordinary memory: the forked child
            // is *not* a member of the pair (it must establish its own
            // session and handle, per §4.3).
            let forced_share = self
                .smod_share
                .map(|r| entry.shared && r.overlaps(&entry.range))
                .unwrap_or(false);
            let cloned = if forced_share {
                let mut private = entry.clone();
                private.inherit = Inherit::Copy;
                private.shared = false;
                private.fork_clone()
            } else {
                entry.fork_clone()
            };
            if let Some(cloned) = cloned {
                child
                    .map
                    .insert(cloned)
                    .expect("parent map had no overlaps");
            }
        }
        child.brk = self.brk;
        child.smod_share = None;
        child
    }

    /// `uvmspace_force_share()`: make *this* space (the handle) share the
    /// client's mappings inside `range`.
    ///
    /// All handle mappings inside `range` are unmapped, the client's
    /// overlapping entries are mapped into the handle as shares, the
    /// client's entries are marked shared, and both spaces record the share
    /// range so later faults resolve through the peer.  Returns the number
    /// of entries shared.
    pub fn force_share_from(&mut self, client: &mut VmSpace, range: VRange) -> Result<usize> {
        crate::map::validate_user_range(range)?;
        self.map.unmap(range)?;

        // Mark client entries inside the range as shared so their pages are
        // never COW-broken away from under the handle.
        let client_keys: Vec<Vaddr> = client
            .map
            .entries_overlapping(range)
            .map(|e| e.range.start)
            .collect();
        let mut shared_count = 0usize;
        for key in client_keys {
            // Clip to the shared region and insert into the handle.
            let (clipped_range, shared_entry) = {
                let entry = client.map.entry_at(key).expect("key just observed");
                let clipped = entry
                    .range
                    .intersect(&range)
                    .expect("overlap guaranteed by selection");
                (clipped, entry.share_clipped(clipped))
            };
            self.map.insert(shared_entry)?;
            shared_count += 1;

            // Mark the client's own entry as shared (inherit share) so fork
            // and COW logic keep the pages common.
            if let Some(e) = client.map.entry_at_mut(key) {
                if range.contains_range(&e.range) || clipped_range == e.range {
                    e.shared = true;
                    e.inherit = Inherit::Share;
                } else {
                    // Entry straddles the share boundary; mark it shared as a
                    // whole (conservative — matches the kernel patch which
                    // marks the whole vm_map_entry).
                    e.shared = true;
                    e.inherit = Inherit::Share;
                }
            }
        }

        self.smod_share = Some(range);
        client.smod_share = Some(range);
        self.stats.force_shared_entries += shared_count as u64;
        Ok(shared_count)
    }

    /// Map the handle-only secret stack/heap region (never shared with the
    /// client).  Returns the range mapped.
    pub fn map_secret_region(&mut self) -> Result<VRange> {
        let range = self.layout.secret_region();
        let mut entry = MapEntry::new_anon(range, Protection::RW, "secret-stack/heap");
        entry.inherit = Inherit::None; // never inherited, never shared
        self.map.insert(entry)?;
        Ok(range)
    }

    // surface: §3's shared stack and heap, checked frame by frame, by the address-space tests only
    /// Verify that every byte in `range` is backed by the *same* page frames
    /// in `self` and `other` (used by tests to prove genuine sharing).
    pub fn shares_pages_with(&self, other: &VmSpace, range: VRange) -> bool {
        for page_addr in range.pages() {
            let a = self.map.entry_at(page_addr).and_then(|e| e.amap().cloned());
            let b = other
                .map
                .entry_at(page_addr)
                .and_then(|e| e.amap().cloned());
            match (a, b) {
                (Some(a), Some(b)) => {
                    if !Arc::ptr_eq(&a, &b) {
                        return false;
                    }
                }
                _ => return false,
            }
        }
        true
    }

    /// A `procmap`-style description of the address space.
    pub fn describe(&self) -> String {
        format!(
            "address space `{}` (brk={}, share={:?})\n{}",
            self.name,
            self.brk,
            self.smod_share,
            self.map.describe()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text() -> Arc<Vec<u8>> {
        Arc::new((0..8192u32).map(|i| (i % 251) as u8).collect())
    }

    fn user_space(name: &str) -> VmSpace {
        VmSpace::new_user(name, Layout::openbsd_i386(), text(), 4, 4).unwrap()
    }

    #[test]
    fn new_user_space_has_standard_regions() {
        let s = user_space("client");
        let l = s.layout;
        assert!(s.has_mapping(Vaddr(l.text_base)));
        assert!(s.has_mapping(Vaddr(l.data_base)));
        assert!(s.has_mapping(Vaddr(l.stack_top - 1)));
        assert_eq!(s.brk(), Vaddr(l.data_base + 4 * PAGE_SIZE));
        // Nothing mapped in the secret region yet.
        assert!(!s.has_mapping(Vaddr(l.secret_base)));
        let desc = s.describe();
        assert!(desc.contains("text") && desc.contains("stack"));
    }

    #[test]
    fn zero_fill_and_resident_faults() {
        let mut s = user_space("p");
        let heap = Vaddr(s.layout.data_base);
        let o1 = s.fault(heap, AccessType::Write).unwrap();
        assert!(o1.zero_filled);
        let o2 = s.fault(heap, AccessType::Write).unwrap();
        assert!(o2.already_resident);
        assert_eq!(s.stats.zero_fills, 1);
        assert_eq!(s.stats.faults, 2);
    }

    #[test]
    fn segfault_outside_mappings() {
        let mut s = user_space("p");
        let err = s.fault(Vaddr(0xA000_0000), AccessType::Read).unwrap_err();
        assert!(matches!(err, VmError::SegmentationFault { .. }));
        assert_eq!(s.stats.segfaults, 1);
    }

    #[test]
    fn text_is_executable_but_not_writable() {
        let mut s = user_space("p");
        let text_addr = Vaddr(s.layout.text_base);
        s.fault(text_addr, AccessType::Execute).unwrap();
        s.fault(text_addr, AccessType::Read).unwrap();
        let err = s.fault(text_addr, AccessType::Write).unwrap_err();
        assert!(matches!(err, VmError::ProtectionViolation { .. }));
        assert_eq!(s.stats.protection_violations, 1);
    }

    #[test]
    fn read_write_roundtrip_crossing_pages() {
        let mut s = user_space("p");
        let addr = Vaddr(s.layout.data_base + PAGE_SIZE - 10);
        let data: Vec<u8> = (0..50u8).collect();
        s.write_bytes(addr, &data).unwrap();
        assert_eq!(s.read_bytes(addr, 50).unwrap(), data);
    }

    #[test]
    fn read_from_text_returns_image_bytes() {
        let mut s = user_space("p");
        let got = s.read_bytes(Vaddr(s.layout.text_base + 100), 16).unwrap();
        let img = text();
        assert_eq!(&got, &img[100..116]);
        // Writing to text fails.
        assert!(s.write_bytes(Vaddr(s.layout.text_base), b"x").is_err());
    }

    #[test]
    fn fork_is_copy_on_write() {
        let mut parent = user_space("parent");
        let addr = Vaddr(parent.layout.data_base);
        parent.write_bytes(addr, b"parent data").unwrap();

        let mut child = parent.fork("child");
        assert_eq!(child.read_bytes(addr, 11).unwrap(), b"parent data");

        // Child writes; parent must not observe them.
        child.write_bytes(addr, b"child  data").unwrap();
        assert_eq!(parent.read_bytes(addr, 11).unwrap(), b"parent data");
        assert_eq!(child.read_bytes(addr, 11).unwrap(), b"child  data");
        assert!(child.stats.cow_breaks >= 1);

        // Parent writes elsewhere; child unaffected.
        let other = Vaddr(parent.layout.data_base + PAGE_SIZE);
        parent.write_bytes(other, b"more").unwrap();
        assert_eq!(child.read_bytes(other, 4).unwrap(), vec![0u8; 4]);
    }

    #[test]
    fn force_share_makes_pages_common() {
        let mut client = user_space("client");
        let mut handle = user_space("handle");
        let share = client.layout.share_region();

        let addr = Vaddr(client.layout.data_base);
        client.write_bytes(addr, b"before share").unwrap();

        let shared = handle.force_share_from(&mut client, share).unwrap();
        assert!(shared >= 2, "heap and stack entries should be shared");
        assert!(client.smod_share_range().is_some());
        assert!(handle.smod_share_range().is_some());

        // Pre-existing data is visible to the handle.
        assert_eq!(
            handle
                .read_bytes_with_peer(addr, 12, Some(&client))
                .unwrap(),
            b"before share"
        );

        // Writes from either side are visible to the other.
        handle
            .write_bytes_with_peer(addr, b"handle wrote", Some(&client))
            .unwrap();
        assert_eq!(client.read_bytes(addr, 12).unwrap(), b"handle wrote");

        client.write_bytes(addr, b"client wrote").unwrap();
        assert_eq!(
            handle
                .read_bytes_with_peer(addr, 12, Some(&client))
                .unwrap(),
            b"client wrote"
        );

        // The heap/stack pages are literally the same frames.
        let heap_range =
            VRange::from_raw(client.layout.data_base, client.layout.data_base + PAGE_SIZE);
        assert!(handle.shares_pages_with(&client, heap_range));
    }

    #[test]
    fn force_share_excludes_text() {
        let mut client = user_space("client");
        let mut handle = user_space("handle");
        let share = client.layout.share_region();
        handle.force_share_from(&mut client, share).unwrap();
        // The handle still has its own text mapping (not the client's) and
        // the share region never includes text addresses.
        assert!(!share.contains(Vaddr(client.layout.text_base)));
        let client_text = client.map.entry_at(Vaddr(client.layout.text_base)).unwrap();
        let handle_text = handle.map.entry_at(Vaddr(handle.layout.text_base)).unwrap();
        assert!(!client_text.shared);
        assert!(!handle_text.shared);
    }

    #[test]
    fn peer_fault_shares_newly_grown_client_memory() {
        // The key behaviour of the modified uvm_fault(): after force-share,
        // memory the client maps later (e.g. heap growth) becomes visible to
        // the handle on first touch, because the handle's fault consults the
        // client's map.
        let mut client = user_space("client");
        let mut handle = user_space("handle");
        let share = client.layout.share_region();
        handle.force_share_from(&mut client, share).unwrap();

        // Client maps a brand-new anonymous region inside the share range.
        let new_range = VRange::from_raw(
            client.layout.data_base + 0x100_0000,
            client.layout.data_base + 0x100_0000 + 2 * PAGE_SIZE,
        );
        client
            .map
            .insert(MapEntry::new_anon(new_range, Protection::RW, "mmap"))
            .unwrap();
        client.write_bytes(new_range.start, b"fresh pages").unwrap();

        // The handle has no mapping there yet.
        assert!(!handle.has_mapping(new_range.start));

        // But a peer-aware fault resolves it.
        let out = handle
            .fault_with_peer(new_range.start, AccessType::Read, Some(&client))
            .unwrap();
        assert!(out.shared_from_peer);
        assert_eq!(handle.stats.peer_shares, 1);
        assert_eq!(
            handle
                .read_bytes_with_peer(new_range.start, 11, Some(&client))
                .unwrap(),
            b"fresh pages"
        );

        // Without a peer, the same fault on a third space segfaults.
        let mut stranger = user_space("stranger");
        assert!(stranger.fault(new_range.start, AccessType::Read).is_err());
    }

    #[test]
    fn peer_fault_does_not_share_outside_share_region() {
        let mut client = user_space("client");
        let mut handle = user_space("handle");
        let share = client.layout.share_region();
        handle.force_share_from(&mut client, share).unwrap();

        // The client's text is outside the share region: the handle cannot
        // pull it in via a peer fault.
        // (The handle has its own text here; use an address in the client
        // text region that the handle does not map — extend client text.)
        let client_text_end = client
            .map
            .entry_at(Vaddr(client.layout.text_base))
            .unwrap()
            .range
            .end;
        let extra_text = VRange::new(client_text_end, Vaddr(client_text_end.0 + PAGE_SIZE));
        client
            .map
            .insert(MapEntry::new_object(
                extra_text,
                Protection::RX,
                Arc::new(vec![0x90u8; PAGE_SIZE as usize]),
                0,
                "text2",
            ))
            .unwrap();
        let err = handle
            .fault_with_peer(extra_text.start, AccessType::Read, Some(&client))
            .unwrap_err();
        assert!(matches!(err, VmError::SegmentationFault { .. }));
    }

    #[test]
    fn secret_region_is_handle_private() {
        let mut client = user_space("client");
        let mut handle = user_space("handle");
        let share = client.layout.share_region();
        handle.force_share_from(&mut client, share).unwrap();
        let secret = handle.map_secret_region().unwrap();

        handle
            .write_bytes(secret.start, b"secret stack data")
            .unwrap();
        // The client cannot see it: the address is outside the share region
        // so a peer fault will not map it.
        let err = client
            .fault_with_peer(secret.start, AccessType::Read, Some(&handle))
            .unwrap_err();
        assert!(matches!(err, VmError::SegmentationFault { .. }));
        // And a fork of the handle does not carry it (Inherit::None).
        let forked = handle.fork("forked-handle");
        assert!(!forked.has_mapping(secret.start));
    }

    #[test]
    fn force_share_requires_aligned_range() {
        let mut client = user_space("client");
        let mut handle = user_space("handle");
        let bad = VRange::from_raw(0x1001, 0x2001);
        assert!(handle.force_share_from(&mut client, bad).is_err());
    }

    #[test]
    fn shares_pages_with_is_false_for_unrelated_spaces() {
        let a = user_space("a");
        let b = user_space("b");
        let heap = VRange::from_raw(a.layout.data_base, a.layout.data_base + PAGE_SIZE);
        assert!(!a.shares_pages_with(&b, heap));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        #[test]
        fn prop_shared_heap_writes_visible_both_ways(
            offsets in proptest::collection::vec(0u64..16 * PAGE_SIZE - 3, 1..16),
            from_handle in proptest::collection::vec(proptest::bool::ANY, 1..16)) {
            let mut client = VmSpace::new_user("c", Layout::openbsd_i386(), text(), 16, 4).unwrap();
            let mut handle = VmSpace::new_user("h", Layout::openbsd_i386(), text(), 16, 4).unwrap();
            let share = client.layout.share_region();
            handle.force_share_from(&mut client, share).unwrap();
            let base = client.layout.data_base;
            for (i, (off, from_h)) in offsets.iter().zip(from_handle.iter()).enumerate() {
                let addr = Vaddr(base + off);
                let val = [i as u8; 3];
                if *from_h {
                    handle.write_bytes_with_peer(addr, &val, Some(&client)).unwrap();
                } else {
                    client.write_bytes_with_peer(addr, &val, Some(&handle)).unwrap();
                }
                let via_client = client.read_bytes_with_peer(addr, 3, Some(&handle)).unwrap();
                let via_handle = handle.read_bytes_with_peer(addr, 3, Some(&client)).unwrap();
                proptest::prop_assert_eq!(&via_client, &val);
                proptest::prop_assert_eq!(&via_handle, &val);
            }
        }
    }
}
