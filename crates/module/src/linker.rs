//! The link editor: assigns addresses to sections/symbols and patches
//! relocation fields.
//!
//! Crucially for SecModule, linking touches *only* the relocation fields —
//! which is why the selective encryptor can leave those fields in plaintext
//! and the encrypted library remains linkable (§4.1).

use crate::image::ModuleImage;
use crate::reloc::RelocKind;
use crate::section::SectionKind;
use crate::{ModuleError, Result};
use std::collections::HashMap;

/// The result of linking an image at concrete base addresses.
#[derive(Clone, Debug, PartialEq)]
pub struct LinkedImage {
    /// Patched text bytes.
    pub text: Vec<u8>,
    /// Data bytes (patched if any data relocations exist).
    pub data: Vec<u8>,
    /// Read-only data bytes.
    pub rodata: Vec<u8>,
    /// Base address the text was linked at.
    pub text_base: u64,
    /// Base address the data was linked at.
    pub data_base: u64,
    /// Base address the rodata was linked at.
    pub rodata_base: u64,
    /// Resolved absolute address of every symbol defined by the image.
    pub symbol_addresses: HashMap<String, u64>,
}

/// Link `image` at the given base addresses, resolving any symbols not
/// defined by the image through `externs`.
pub fn link_at(
    image: &ModuleImage,
    text_base: u64,
    data_base: u64,
    rodata_base: u64,
    externs: &HashMap<String, u64>,
) -> Result<LinkedImage> {
    let section_base = |kind: SectionKind| match kind {
        SectionKind::Text => text_base,
        SectionKind::Data => data_base,
        SectionKind::RoData => rodata_base,
    };

    // Resolve symbol addresses.
    let mut symbol_addresses: HashMap<String, u64> = HashMap::new();
    for sym in &image.symbols {
        symbol_addresses.insert(
            sym.name.clone(),
            section_base(sym.section) + sym.offset as u64,
        );
    }

    let resolve = |name: &str| -> Result<u64> {
        symbol_addresses
            .get(name)
            .or_else(|| externs.get(name))
            .copied()
            .ok_or_else(|| ModuleError::UnknownSymbol {
                name: name.to_string(),
            })
    };

    let mut text = image.text.data.clone();
    let mut data = image.data.data.clone();
    let rodata = image.rodata.data.clone();

    for reloc in &image.relocations {
        let target = resolve(&reloc.target)?;
        let site_base = section_base(reloc.section);
        let buf: &mut Vec<u8> = match reloc.section {
            SectionKind::Text => &mut text,
            SectionKind::Data => &mut data,
            SectionKind::RoData => {
                return Err(ModuleError::Malformed {
                    reason: "relocations against .rodata are not supported".to_string(),
                })
            }
        };
        if reloc.offset + 4 > buf.len() {
            return Err(ModuleError::OutOfBounds {
                what: format!(
                    "relocation at {:#x} in {}",
                    reloc.offset,
                    reloc.section.name()
                ),
            });
        }
        let value: u32 = match reloc.kind {
            RelocKind::Abs32 => (target as i64 + reloc.addend) as u32,
            RelocKind::Rel32 => {
                // Displacement relative to the end of the 4-byte field.
                let site = site_base + reloc.offset as u64 + 4;
                ((target as i64 + reloc.addend) - site as i64) as u32
            }
        };
        buf[reloc.offset..reloc.offset + 4].copy_from_slice(&value.to_le_bytes());
    }

    Ok(LinkedImage {
        text,
        data,
        rodata,
        text_base,
        data_base,
        rodata_base,
        symbol_addresses,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{FunctionSpec, ModuleBuilder};
    use crate::reloc::skip_ranges_for;
    use secmod_crypto::selective::SelectiveEncryptor;

    fn sample_image() -> ModuleImage {
        let mut b = ModuleBuilder::new("m", 1);
        b.add_data_object("counter", &[0u8; 8]);
        b.add_function(FunctionSpec::new("callee", 16));
        b.add_function(
            FunctionSpec::new("caller", 32)
                .calling("callee")
                .calling("external_fn")
                .referencing("counter"),
        );
        b.build(true).unwrap()
    }

    #[test]
    fn resolves_internal_and_external_symbols() {
        let img = sample_image();
        let mut externs = HashMap::new();
        externs.insert("external_fn".to_string(), 0xDEAD_0000u64);
        let linked = link_at(&img, 0x1000, 0x2000, 0x3000, &externs).unwrap();

        let callee = img.symbol("callee").unwrap();
        assert_eq!(
            linked.symbol_addresses.get("callee").copied(),
            Some(0x1000 + callee.offset as u64)
        );
        assert_eq!(
            linked.symbol_addresses.get("counter").copied(),
            Some(0x2000 + img.symbol("counter").unwrap().offset as u64)
        );
        assert!(linked
            .symbol_addresses
            .get("external_fn")
            .copied()
            .is_none());
        assert_eq!(linked.text.len(), img.text.len());
    }

    #[test]
    fn patches_rel32_and_abs32_fields_correctly() {
        let img = sample_image();
        let mut externs = HashMap::new();
        externs.insert("external_fn".to_string(), 0x9000u64);
        let linked = link_at(&img, 0x1000, 0x2000, 0x3000, &externs).unwrap();

        // Find the relocations and verify the encoded values.
        for reloc in &img.relocations {
            let field = u32::from_le_bytes(
                linked.text[reloc.offset..reloc.offset + 4]
                    .try_into()
                    .unwrap(),
            );
            match (&reloc.kind, reloc.target.as_str()) {
                (RelocKind::Abs32, "counter") => {
                    assert_eq!(
                        field as u64,
                        linked.symbol_addresses.get("counter").copied().unwrap()
                    );
                }
                (RelocKind::Rel32, target) => {
                    let target_addr = if target == "external_fn" {
                        0x9000u64
                    } else {
                        linked.symbol_addresses.get(target).copied().unwrap()
                    };
                    let site_end = 0x1000 + reloc.offset as u64 + 4;
                    assert_eq!(field, (target_addr.wrapping_sub(site_end)) as u32);
                }
                other => panic!("unexpected relocation {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_symbol_fails() {
        let img = sample_image();
        let err = link_at(&img, 0x1000, 0x2000, 0x3000, &HashMap::new()).unwrap_err();
        assert!(matches!(err, ModuleError::UnknownSymbol { name } if name == "external_fn"));
    }

    #[test]
    fn linking_unrelocated_bytes_is_identity() {
        // Only relocation fields may change.
        let img = sample_image();
        let mut externs = HashMap::new();
        externs.insert("external_fn".to_string(), 0x9000u64);
        let linked = link_at(&img, 0x1000, 0x2000, 0x3000, &externs).unwrap();
        let reloc_fields: Vec<std::ops::Range<usize>> =
            img.relocations.iter().map(|r| r.patched_range()).collect();
        for (i, (&orig, &new)) in img.text.data.iter().zip(linked.text.iter()).enumerate() {
            let in_reloc = reloc_fields.iter().any(|r| r.contains(&i));
            if !in_reloc {
                assert_eq!(orig, new, "non-relocation byte {i} changed during linking");
            }
        }
    }

    #[test]
    fn encrypted_image_is_still_linkable_and_decrypts_to_linked_plaintext() {
        // The paper's central toolchain property: encrypt everything except
        // relocation fields, link the encrypted image with ordinary tools,
        // then (in the kernel) decrypt the protected bytes — the result must
        // equal linking the plaintext image directly.
        let img = sample_image();
        let mut externs = HashMap::new();
        externs.insert("external_fn".to_string(), 0x9000u64);

        // 1. Link plaintext (reference result).
        let reference = link_at(&img, 0x1000, 0x2000, 0x3000, &externs).unwrap();

        // 2. Encrypt text, skipping relocation fields.
        let enc = SelectiveEncryptor::new(b"0123456789abcdef", [9u8; 8]).unwrap();
        let skips = skip_ranges_for(&img.relocations, SectionKind::Text);
        let mut encrypted_img = img.clone();
        enc.apply(&mut encrypted_img.text.data, &skips).unwrap();
        assert_ne!(encrypted_img.text.data, img.text.data);

        // 3. Link the *encrypted* image — standard tools never notice.
        let linked_encrypted = link_at(&encrypted_img, 0x1000, 0x2000, 0x3000, &externs).unwrap();

        // 4. Kernel-side decryption of the linked encrypted text.
        let mut decrypted = linked_encrypted.text.clone();
        enc.apply(&mut decrypted, &skips).unwrap();
        assert_eq!(decrypted, reference.text);
    }

    #[test]
    fn different_bases_change_abs32_but_not_function_bytes() {
        let img = sample_image();
        let mut externs = HashMap::new();
        externs.insert("external_fn".to_string(), 0x9000u64);
        let a = link_at(&img, 0x1000, 0x2000, 0x3000, &externs).unwrap();
        let b = link_at(&img, 0x1000, 0x8000, 0x3000, &externs).unwrap();
        assert_ne!(a.text, b.text, "abs32 data references must differ");
        assert_eq!(
            a.symbol_addresses.get("caller").copied(),
            b.symbol_addresses.get("caller").copied()
        );
    }
}
