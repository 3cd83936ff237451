//! Physical page frames and anonymous-memory maps ("amaps").
//!
//! In UVM, anonymous memory is tracked by `amap`/`anon` structures; pages
//! are attached lazily on first fault (zero-fill) and may be shared between
//! address spaces.  Here an [`Amap`] is a mutex-protected map from virtual
//! page number to a reference-counted [`Page`].  Two map entries that hold
//! the *same* `Arc<Amap>` see the same pages — that is exactly how the
//! forced sharing between SecModule client and handle is expressed.

use crate::addr::PAGE_SIZE;
use parking_lot::{Mutex, RwLock};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A single simulated page frame.
#[derive(Debug)]
pub struct Page {
    data: RwLock<Box<[u8]>>,
}

impl Page {
    /// Allocate a zero-filled page.
    fn zeroed() -> Arc<Page> {
        Arc::new(Page {
            data: RwLock::new(vec![0u8; PAGE_SIZE as usize].into_boxed_slice()),
        })
    }

    /// Allocate a page initialised with `data` (padded/truncated to a page).
    pub fn from_bytes(data: &[u8]) -> Arc<Page> {
        let mut buf = vec![0u8; PAGE_SIZE as usize];
        let n = data.len().min(PAGE_SIZE as usize);
        buf[..n].copy_from_slice(&data[..n]);
        Arc::new(Page {
            data: RwLock::new(buf.into_boxed_slice()),
        })
    }

    /// Deep copy of the page contents into a fresh frame (used for
    /// copy-on-write resolution).
    pub fn duplicate(&self) -> Arc<Page> {
        let data = self.data.read();
        Page::from_bytes(&data)
    }

    /// Read bytes at `offset` into `out`.  Panics if the access crosses the
    /// page boundary (callers split accesses per page).
    pub fn read(&self, offset: usize, out: &mut [u8]) {
        assert!(offset + out.len() <= PAGE_SIZE as usize, "page overrun");
        let data = self.data.read();
        out.copy_from_slice(&data[offset..offset + out.len()]);
    }

    /// Write bytes at `offset`.
    pub fn write(&self, offset: usize, src: &[u8]) {
        assert!(offset + src.len() <= PAGE_SIZE as usize, "page overrun");
        let mut data = self.data.write();
        data[offset..offset + src.len()].copy_from_slice(src);
    }

    /// Snapshot the whole page.
    pub fn snapshot(&self) -> Vec<u8> {
        self.data.read().to_vec()
    }
}

/// An anonymous-memory map: virtual page number → page frame.
///
/// Cloning the `Arc<Amap>` creates a *shared* view (both holders see the
/// same pages); [`Amap::deep_copy`] creates a private copy with
/// copy-on-write semantics handled by the fault path.
#[derive(Debug, Default)]
pub struct Amap {
    pages: Mutex<BTreeMap<u64, Arc<Page>>>,
}

impl Amap {
    /// Create an empty amap.
    pub fn new() -> Arc<Amap> {
        Arc::new(Amap::default())
    }

    /// Look up the page for a virtual page number.
    pub fn lookup(&self, vpn: u64) -> Option<Arc<Page>> {
        self.pages.lock().get(&vpn).cloned()
    }

    /// Insert (or replace) the page for a virtual page number.
    pub fn insert(&self, vpn: u64, page: Arc<Page>) {
        self.pages.lock().insert(vpn, page);
    }

    /// Remove the page for a virtual page number.
    pub fn remove(&self, vpn: u64) -> Option<Arc<Page>> {
        self.pages.lock().remove(&vpn)
    }

    /// Number of resident pages.
    pub fn resident(&self) -> usize {
        self.pages.lock().len()
    }

    /// Is the amap empty?
    pub fn is_empty(&self) -> bool {
        self.resident() == 0
    }

    /// Get the page for `vpn`, allocating a zero-filled one if absent
    /// (UVM's zero-fill-on-demand).  Returns `(page, allocated)`.
    pub fn lookup_or_zero_fill(&self, vpn: u64) -> (Arc<Page>, bool) {
        let mut pages = self.pages.lock();
        if let Some(p) = pages.get(&vpn) {
            (p.clone(), false)
        } else {
            let p = Page::zeroed();
            pages.insert(vpn, p.clone());
            (p, true)
        }
    }

    /// Replace the page at `vpn` with a private duplicate and return it
    /// (copy-on-write resolution).  If the page is absent a zero page is
    /// installed instead.
    pub fn cow_break(&self, vpn: u64) -> Arc<Page> {
        let mut pages = self.pages.lock();
        let new_page = match pages.get(&vpn) {
            Some(p) => p.duplicate(),
            None => Page::zeroed(),
        };
        pages.insert(vpn, new_page.clone());
        new_page
    }

    /// Create a private deep copy of this amap.  Pages are shared by
    /// reference (`Arc` clone); copy-on-write is resolved lazily by the
    /// fault handler via [`Amap::cow_break`].
    pub fn deep_copy(&self) -> Arc<Amap> {
        let pages = self.pages.lock();
        Arc::new(Amap {
            pages: Mutex::new(pages.clone()),
        })
    }

    /// Whether a particular page is currently shared with another amap
    /// (i.e. its frame has more than one strong reference besides this map's).
    pub fn page_is_shared(&self, vpn: u64) -> bool {
        self.pages
            .lock()
            .get(&vpn)
            .map(|p| Arc::strong_count(p) > 1)
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_page_is_zero() {
        let p = Page::zeroed();
        let mut buf = [0xFFu8; 16];
        p.read(0, &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn page_read_write() {
        let p = Page::zeroed();
        p.write(100, b"hello");
        let mut buf = [0u8; 5];
        p.read(100, &mut buf);
        assert_eq!(&buf, b"hello");
    }

    #[test]
    #[should_panic]
    fn page_overrun_read_panics() {
        let p = Page::zeroed();
        let mut buf = [0u8; 8];
        p.read(PAGE_SIZE as usize - 4, &mut buf);
    }

    #[test]
    #[should_panic]
    fn page_overrun_write_panics() {
        let p = Page::zeroed();
        p.write(PAGE_SIZE as usize - 2, &[0u8; 4]);
    }

    #[test]
    fn page_from_bytes_and_duplicate() {
        let p = Page::from_bytes(b"abc");
        let mut buf = [0u8; 4];
        p.read(0, &mut buf);
        assert_eq!(&buf, b"abc\0");
        let d = p.duplicate();
        d.write(0, b"xyz");
        p.read(0, &mut buf);
        assert_eq!(&buf, b"abc\0", "duplicate must not alias the original");
    }

    #[test]
    fn amap_zero_fill_on_demand() {
        let amap = Amap::new();
        assert!(amap.is_empty());
        let (p1, allocated1) = amap.lookup_or_zero_fill(7);
        assert!(allocated1);
        let (p2, allocated2) = amap.lookup_or_zero_fill(7);
        assert!(!allocated2);
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(amap.resident(), 1);
    }

    #[test]
    fn amap_shared_view_sees_writes() {
        let amap = Amap::new();
        let shared = amap.clone(); // Arc<Amap> clone in practice happens at the entry level
        let (p, _) = amap.lookup_or_zero_fill(3);
        p.write(0, b"shared!");
        let q = shared.lookup(3).unwrap();
        let mut buf = [0u8; 7];
        q.read(0, &mut buf);
        assert_eq!(&buf, b"shared!");
    }

    #[test]
    fn amap_deep_copy_is_cow() {
        let original = Amap::new();
        let (p, _) = original.lookup_or_zero_fill(1);
        p.write(0, b"orig");

        let copy = original.deep_copy();
        // Pages are initially shared by reference.
        assert!(copy.page_is_shared(1));

        // COW break in the copy leaves the original untouched.
        let new_page = copy.cow_break(1);
        new_page.write(0, b"copy");
        let mut buf = [0u8; 4];
        original.lookup(1).unwrap().read(0, &mut buf);
        assert_eq!(&buf, b"orig");
        copy.lookup(1).unwrap().read(0, &mut buf);
        assert_eq!(&buf, b"copy");
    }

    #[test]
    fn amap_cow_break_on_absent_page_installs_zero() {
        let amap = Amap::new();
        let p = amap.cow_break(9);
        let mut buf = [0u8; 8];
        p.read(0, &mut buf);
        assert_eq!(buf, [0u8; 8]);
        assert_eq!(amap.resident(), 1);
    }

    #[test]
    fn amap_remove() {
        let amap = Amap::new();
        amap.insert(4, Page::zeroed());
        assert_eq!(amap.resident(), 1);
        assert!(amap.remove(4).is_some());
        assert!(amap.remove(4).is_none());
        assert!(amap.is_empty());
    }
}
