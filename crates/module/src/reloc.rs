//! Relocations: the byte ranges the link editor patches, and therefore the
//! ranges the selective encryptor must leave in plaintext (§4.1: "we do not
//! touch any locations in the library that will need to be modified by the
//! linking process").

use crate::section::SectionKind;
use secmod_crypto::selective::SkipRange;
use serde::{Deserialize, Serialize};

/// The relocation kinds the synthetic ISA uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RelocKind {
    /// 32-bit absolute address of the target symbol.
    Abs32,
    /// 32-bit PC-relative displacement to the target symbol (as used by
    /// call instructions).
    Rel32,
}

impl RelocKind {
    /// Size in bytes of the patched field.
    pub fn size(self) -> usize {
        4
    }
}

/// A relocation record.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Relocation {
    /// Section whose bytes are patched.
    pub section: SectionKind,
    /// Byte offset of the patched field within the section.
    pub offset: usize,
    /// Relocation kind.
    pub kind: RelocKind,
    /// Name of the symbol whose address is written.
    pub target: String,
    /// Constant added to the symbol address.
    pub addend: i64,
}

impl Relocation {
    /// Create an absolute relocation.
    pub fn abs32(section: SectionKind, offset: usize, target: &str) -> Relocation {
        Relocation {
            section,
            offset,
            kind: RelocKind::Abs32,
            target: target.to_string(),
            addend: 0,
        }
    }

    /// Create a PC-relative relocation.
    pub fn rel32(section: SectionKind, offset: usize, target: &str) -> Relocation {
        Relocation {
            section,
            offset,
            kind: RelocKind::Rel32,
            target: target.to_string(),
            addend: 0,
        }
    }

    /// The byte range this relocation patches.
    pub(crate) fn patched_range(&self) -> std::ops::Range<usize> {
        self.offset..self.offset + self.kind.size()
    }

    /// The skip range handed to the selective encryptor: the patched bytes.
    fn skip_range(&self) -> SkipRange {
        let patched = self.patched_range();
        SkipRange::new(patched.start, patched.end)
    }
}

/// Collect the skip ranges for all relocations that patch `section`.
pub fn skip_ranges_for(relocs: &[Relocation], section: SectionKind) -> Vec<SkipRange> {
    relocs
        .iter()
        .filter(|r| r.section == section)
        .map(|r| r.skip_range())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges() {
        let r = Relocation::abs32(SectionKind::Text, 0x10, "malloc");
        assert_eq!(r.patched_range(), 0x10..0x14);
        assert_eq!(r.skip_range(), SkipRange::new(0x10, 0x14));
        assert_eq!(r.kind.size(), 4);
    }

    #[test]
    fn skip_ranges_filter_by_section() {
        let relocs = vec![
            Relocation::abs32(SectionKind::Text, 0, "a"),
            Relocation::rel32(SectionKind::Text, 8, "b"),
            Relocation::abs32(SectionKind::Data, 4, "c"),
        ];
        let text_skips = skip_ranges_for(&relocs, SectionKind::Text);
        assert_eq!(text_skips.len(), 2);
        assert_eq!(text_skips[0], SkipRange::new(0, 4));
        assert_eq!(text_skips[1], SkipRange::new(8, 12));
        assert_eq!(skip_ranges_for(&relocs, SectionKind::Data).len(), 1);
        assert_eq!(skip_ranges_for(&relocs, SectionKind::RoData).len(), 0);
    }
}
