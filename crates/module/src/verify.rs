//! Structural validation of module images.

use crate::image::ModuleImage;
use crate::{ModuleError, Result};
use std::collections::HashSet;

/// Validate an image:
///
/// * symbol names are unique,
/// * every symbol's byte range lies inside its section,
/// * every relocation field lies inside its section,
/// * every relocation target is defined by the image, unless
///   `allow_extern_relocs` is set.
pub fn check(image: &ModuleImage, allow_extern_relocs: bool) -> Result<()> {
    let mut names: HashSet<&str> = HashSet::new();
    for sym in &image.symbols {
        if !names.insert(sym.name.as_str()) {
            return Err(ModuleError::DuplicateSymbol {
                name: sym.name.clone(),
            });
        }
        let section_len = image.section(sym.section).len();
        if sym.offset + sym.size > section_len {
            return Err(ModuleError::OutOfBounds {
                what: format!(
                    "symbol `{}` [{:#x}, {:#x}) exceeds {} length {:#x}",
                    sym.name,
                    sym.offset,
                    sym.offset + sym.size,
                    sym.section.name(),
                    section_len
                ),
            });
        }
    }

    for reloc in &image.relocations {
        let section_len = image.section(reloc.section).len();
        if reloc.offset + reloc.kind.size() > section_len {
            return Err(ModuleError::OutOfBounds {
                what: format!(
                    "relocation at {:#x} exceeds {} length {:#x}",
                    reloc.offset,
                    reloc.section.name(),
                    section_len
                ),
            });
        }
        if !names.contains(reloc.target.as_str()) && !allow_extern_relocs {
            return Err(ModuleError::UnknownSymbol {
                name: reloc.target.clone(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionSpec, ModuleBuilder};
    use crate::reloc::Relocation;
    use crate::section::SectionKind;
    use crate::symbol::Symbol;

    fn valid_image() -> ModuleImage {
        let mut b = ModuleBuilder::new("m", 1);
        b.add_function(FunctionSpec::new("f", 16));
        b.add_data_object("d", &[0u8; 4]);
        b.build(false).unwrap()
    }

    #[test]
    fn valid_image_passes() {
        let img = valid_image();
        check(&img, false).unwrap();
        check(&ModuleBuilder::libc_like(), false).unwrap();
    }

    #[test]
    fn duplicate_symbol_detected() {
        let mut img = valid_image();
        img.symbols.push(Symbol::function("f", 0, 4));
        assert!(matches!(
            check(&img, false),
            Err(ModuleError::DuplicateSymbol { .. })
        ));
    }

    #[test]
    fn symbol_out_of_bounds_detected() {
        let mut img = valid_image();
        img.symbols.push(Symbol::function("ghost", 0x10_000, 16));
        assert!(matches!(
            check(&img, false),
            Err(ModuleError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn relocation_out_of_bounds_detected() {
        let mut img = valid_image();
        img.relocations
            .push(Relocation::abs32(SectionKind::Text, 0x10_000, "f"));
        assert!(matches!(
            check(&img, false),
            Err(ModuleError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn unknown_relocation_target_detected_unless_extern() {
        let mut img = valid_image();
        img.relocations
            .push(Relocation::rel32(SectionKind::Text, 0, "nowhere"));
        assert!(matches!(
            check(&img, false),
            Err(ModuleError::UnknownSymbol { .. })
        ));
        check(&img, true).unwrap();
    }
}
