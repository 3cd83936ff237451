//! Address-space layout constants matching the paper's Figure 2.
//!
//! The paper's test system is OpenBSD 3.6 on i386.  The layout there is:
//! text low in the address space, the data segment (and the `brk` heap)
//! above it, and the user stack near the top growing downward.  SecModule
//! adds one more region that exists *only in the handle process*: a small
//! secret stack/heap area placed above the ordinary stack, used by
//! `smod_std_handle()` so that the handle-side stub can run without
//! disturbing the stack it shares with the client.
//!
//! The shared region of an smod pair runs "just below the traditional
//! OpenBSD data segment, to just above the end of the traditional OpenBSD
//! stack segment bottom" (§4): in this model, `[data_base, stack_top)`.

use crate::addr::{VRange, PAGE_SIZE};
use serde::{Deserialize, Serialize};

/// Address-space layout parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Layout {
    /// Base of the text (code) region.
    pub text_base: u64,
    /// Maximum size of the text region in bytes.
    pub text_max: u64,
    /// Base of the data segment; the heap (`brk`) starts here.
    pub data_base: u64,
    /// Maximum data size (OpenBSD `MAXDSIZ`).
    pub data_max: u64,
    /// Top of the user stack (highest stack address, exclusive); the stack
    /// grows downward from here.
    pub stack_top: u64,
    /// Maximum stack size in bytes.
    pub stack_max: u64,
    /// Base of the handle-only secret region.
    pub secret_base: u64,
    /// Size of the handle-only secret region in bytes.
    pub secret_size: u64,
}

impl Default for Layout {
    fn default() -> Self {
        Layout::openbsd_i386()
    }
}

impl Layout {
    /// The OpenBSD 3.6 / i386-flavoured layout used by the paper's prototype.
    pub const fn openbsd_i386() -> Layout {
        Layout {
            text_base: 0x0000_1000,
            text_max: 0x0FFF_F000,
            data_base: 0x1000_0000,
            data_max: 0x4000_0000,  // 1 GiB MAXDSIZ-ish
            stack_top: 0xDFBF_E000, // USRSTACK
            stack_max: 0x0400_0000, // 64 MiB
            secret_base: 0xE000_0000,
            secret_size: 0x0040_0000, // 4 MiB secret stack/heap
        }
    }

    /// A small layout for fast unit tests (few pages per region).
    pub const fn tiny() -> Layout {
        Layout {
            text_base: 0x1000,
            text_max: 0x4000,
            data_base: 0x10_000,
            data_max: 0x40_000,
            stack_top: 0x100_000,
            stack_max: 0x10_000,
            secret_base: 0x200_000,
            secret_size: 0x8_000,
        }
    }

    /// The region in which the data segment / heap may live.
    pub fn data_region(&self) -> VRange {
        VRange::from_raw(self.data_base, self.data_base + self.data_max)
    }

    /// The handle-only secret stack/heap region.
    pub fn secret_region(&self) -> VRange {
        VRange::from_raw(self.secret_base, self.secret_base + self.secret_size)
    }

    /// The region forcibly shared between a SecModule client and its handle:
    /// everything from the start of the data segment up to the top of the
    /// stack.  Text (below) and the secret region (above) are excluded.
    pub fn share_region(&self) -> VRange {
        VRange::from_raw(self.data_base, self.stack_top)
    }

    /// Validate internal consistency (ordering, alignment, non-overlap).
    pub fn validate(&self) -> Result<(), String> {
        let all = [
            ("text_base", self.text_base),
            ("data_base", self.data_base),
            ("stack_top", self.stack_top),
            ("secret_base", self.secret_base),
        ];
        for (name, v) in all {
            if v % PAGE_SIZE != 0 {
                return Err(format!("{name} is not page aligned"));
            }
        }
        if self.text_base + self.text_max > self.data_base {
            return Err("text region overlaps data region".into());
        }
        if self.data_base + self.data_max > self.stack_top - self.stack_max {
            return Err("data region overlaps stack region".into());
        }
        if self.stack_top > self.secret_base {
            return Err("stack region overlaps secret region".into());
        }
        Ok(())
    }

    /// Initial stack range for a new process: `initial_pages` pages ending
    /// at `stack_top`.
    pub fn initial_stack(&self, initial_pages: u64) -> VRange {
        let size = initial_pages * PAGE_SIZE;
        VRange::from_raw(self.stack_top - size.min(self.stack_max), self.stack_top)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Vaddr;

    fn text_region(l: &Layout) -> VRange {
        VRange::from_raw(l.text_base, l.text_base + l.text_max)
    }

    /// The stack grows down from `stack_top` to at most
    /// `stack_top - stack_max`.
    fn stack_region(l: &Layout) -> VRange {
        VRange::from_raw(l.stack_top - l.stack_max, l.stack_top)
    }

    #[test]
    fn default_layout_is_valid() {
        Layout::default().validate().unwrap();
        Layout::openbsd_i386().validate().unwrap();
        Layout::tiny().validate().unwrap();
    }

    #[test]
    fn regions_are_ordered_and_disjoint() {
        let l = Layout::openbsd_i386();
        let text = text_region(&l);
        let data = l.data_region();
        let stack = stack_region(&l);
        let secret = l.secret_region();
        assert!(text.end <= data.start);
        assert!(data.end <= stack.start);
        assert!(stack.end <= secret.start);
        assert!(!text.overlaps(&data));
        assert!(!data.overlaps(&stack));
        assert!(!stack.overlaps(&secret));
    }

    #[test]
    fn share_region_covers_data_and_stack_but_not_text_or_secret() {
        let l = Layout::openbsd_i386();
        let share = l.share_region();
        assert!(share.contains_range(&l.data_region()));
        assert!(share.contains_range(&stack_region(&l)));
        assert!(!share.overlaps(&text_region(&l)));
        assert!(!share.overlaps(&l.secret_region()));
    }

    #[test]
    fn invalid_layouts_are_rejected() {
        let mut l = Layout::openbsd_i386();
        l.text_base += 1;
        assert!(l.validate().is_err());

        let mut l = Layout::openbsd_i386();
        l.text_max = l.data_base; // text would reach past data_base
        assert!(l.validate().is_err());

        let mut l = Layout::openbsd_i386();
        l.secret_base = l.stack_top - PAGE_SIZE;
        assert!(l.validate().is_err());
    }

    #[test]
    fn initial_stack_and_sp() {
        let l = Layout::openbsd_i386();
        let stack = l.initial_stack(4);
        assert_eq!(stack.end.0, l.stack_top);
        assert_eq!(stack.len(), 4 * PAGE_SIZE);
        assert!(stack.contains(Vaddr(l.stack_top - 1)));
    }
}
