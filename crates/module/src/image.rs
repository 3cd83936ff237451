//! The module image: the unit the kernel registers and the handle executes.

use crate::reloc::Relocation;
use crate::section::{Section, SectionKind};
use crate::symbol::{Symbol, SymbolKind};
use serde::{Deserialize, Serialize};

/// A module identifier assigned by the kernel at registration time
/// (the `m_id` of the paper's syscall interface).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ModuleId(pub u32);

impl std::fmt::Display for ModuleId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A module version.  The paper's `sys_smod_find(name, version)` looks up a
/// module by name *and* version ("consisting of name and version").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ModuleVersion(pub u32);

impl std::fmt::Display for ModuleVersion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// A complete module image: sections, symbols and relocations.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ModuleImage {
    /// Module name (e.g. `"libc"`).
    pub name: String,
    /// Module version.
    pub version: ModuleVersion,
    /// The `.text` section.
    pub text: Section,
    /// The `.data` section.
    pub data: Section,
    /// The `.rodata` section.
    pub rodata: Section,
    /// Symbol table.
    pub symbols: Vec<Symbol>,
    /// Relocation table.
    pub relocations: Vec<Relocation>,
}

impl ModuleImage {
    /// Create an empty image.
    pub fn empty(name: &str, version: u32) -> ModuleImage {
        ModuleImage {
            name: name.to_string(),
            version: ModuleVersion(version),
            text: Section::empty(SectionKind::Text),
            data: Section::empty(SectionKind::Data),
            rodata: Section::empty(SectionKind::RoData),
            symbols: Vec::new(),
            relocations: Vec::new(),
        }
    }

    /// The section of the given kind.
    pub fn section(&self, kind: SectionKind) -> &Section {
        match kind {
            SectionKind::Text => &self.text,
            SectionKind::Data => &self.data,
            SectionKind::RoData => &self.rodata,
        }
    }

    /// Find a symbol by name.
    pub fn symbol(&self, name: &str) -> Option<&Symbol> {
        self.symbols.iter().find(|s| s.name == name)
    }

    /// All global function symbols, in text order — the set of callable,
    /// protectable entry points.
    pub fn exported_functions(&self) -> Vec<&Symbol> {
        let mut funcs: Vec<&Symbol> = self
            .symbols
            .iter()
            .filter(|s| s.global && s.kind == SymbolKind::Function)
            .collect();
        funcs.sort_by_key(|s| s.offset);
        funcs
    }

    /// A stable content fingerprint of the image (name, version, sections,
    /// symbols, relocations) used in registration packages.
    pub fn fingerprint(&self) -> [u8; 32] {
        use secmod_crypto::sha256::Sha256;
        let mut h = Sha256::new();
        h.update(self.name.as_bytes());
        h.update(&self.version.0.to_le_bytes());
        h.update(&self.text.data);
        h.update(&self.data.data);
        h.update(&self.rodata.data);
        for s in &self.symbols {
            h.update(s.name.as_bytes());
            h.update(&(s.offset as u64).to_le_bytes());
            h.update(&(s.size as u64).to_le_bytes());
        }
        for r in &self.relocations {
            h.update(r.target.as_bytes());
            h.update(&(r.offset as u64).to_le_bytes());
        }
        h.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_image() {
        let img = ModuleImage::empty("libc", 1);
        assert_eq!(img.name, "libc");
        assert_eq!(img.version, ModuleVersion(1));
        assert_eq!(img.text.len() + img.data.len() + img.rodata.len(), 0);
        assert!(img.exported_functions().is_empty());
        assert!(img.symbol("malloc").is_none());
        assert_eq!(ModuleId(3).to_string(), "m3");
        assert_eq!(ModuleVersion(2).to_string(), "v2");
    }

    #[test]
    fn sections_by_kind() {
        let mut img = ModuleImage::empty("x", 1);
        img.text.append(b"code");
        img.data.append(b"data!");
        img.rodata.append(b"ro");
        assert_eq!(img.section(SectionKind::Text).len(), 4);
        assert_eq!(img.section(SectionKind::Data).len(), 5);
        assert_eq!(img.section(SectionKind::RoData).len(), 2);
        assert_eq!(img.text.len() + img.data.len() + img.rodata.len(), 11);
    }

    #[test]
    fn exported_functions_sorted_and_filtered() {
        let mut img = ModuleImage::empty("x", 1);
        img.symbols.push(Symbol::function("zeta", 0x200, 0x10));
        img.symbols.push(Symbol::function("alpha", 0x100, 0x10));
        img.symbols
            .push(Symbol::function("hidden", 0x000, 0x10).local());
        img.symbols
            .push(Symbol::object("table", SectionKind::Data, 0, 8));
        let funcs = img.exported_functions();
        assert_eq!(funcs.len(), 2);
        assert_eq!(funcs[0].name, "alpha");
        assert_eq!(funcs[1].name, "zeta");
    }

    #[test]
    fn fingerprint_changes_with_content() {
        let mut a = ModuleImage::empty("x", 1);
        let f1 = a.fingerprint();
        a.text.append(b"\x90\x90");
        let f2 = a.fingerprint();
        assert_ne!(f1, f2);
        let b = ModuleImage::empty("x", 2);
        assert_ne!(ModuleImage::empty("x", 1).fingerprint(), b.fingerprint());
        // Deterministic.
        assert_eq!(a.fingerprint(), a.fingerprint());
    }
}
