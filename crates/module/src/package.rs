//! Registration packages: what the SecModule registration tool hands to the
//! kernel (`sys_smod_add()`).
//!
//! A package contains the module image with its text selectively encrypted
//! (relocation fields left in plaintext), the stub table for the client
//! side, the plaintext fingerprint (so the kernel can verify decryption),
//! and an integrity MAC over the whole package.

use crate::image::ModuleImage;
use crate::reloc::skip_ranges_for;
use crate::section::SectionKind;
use crate::stubgen::StubTable;
use crate::{ModuleError, Result};
use secmod_crypto::hmac::HmacSha256;
use secmod_crypto::selective::SelectiveEncryptor;

/// A sealed module ready for kernel registration.
#[derive(Clone, Debug, PartialEq)]
pub struct SmodPackage {
    /// The image, with `.text` selectively encrypted.
    pub image: ModuleImage,
    /// Client-side stub table.
    pub stub_table: StubTable,
    /// Fingerprint of the *plaintext* image (lets the kernel verify that
    /// decryption with its key produced the intended code).
    pub plaintext_fingerprint: [u8; 32],
    /// Whether the text section is encrypted (the paper also allows the
    /// unencrypted, unmap-based protection mode).
    pub encrypted: bool,
    /// HMAC over the package contents.
    pub mac: [u8; 32],
}

impl SmodPackage {
    /// Seal a plaintext image: encrypt its text (skipping relocation
    /// fields), generate stubs, and MAC the result.
    pub fn seal(
        image: &ModuleImage,
        encryptor: &SelectiveEncryptor,
        mac_key: &[u8],
    ) -> Result<SmodPackage> {
        crate::verify::check(image, true)?;
        let stub_table = StubTable::generate(image);
        let plaintext_fingerprint = image.fingerprint();

        let mut sealed = image.clone();
        let skips = skip_ranges_for(&image.relocations, SectionKind::Text);
        encryptor.apply(&mut sealed.text.data, &skips)?;

        let mut pkg = SmodPackage {
            image: sealed,
            stub_table,
            plaintext_fingerprint,
            encrypted: true,
            mac: [0u8; 32],
        };
        pkg.mac = pkg.compute_mac(mac_key);
        Ok(pkg)
    }

    // surface: the paper's second protection mode; the kernel unseals both, only tests seal this one
    /// Seal without encryption — the paper's second protection mode, where
    /// the kernel simply never maps the text into the client ("have the
    /// kernel unmap the images of the shared library from the client's
    /// address space").
    pub fn seal_unencrypted(image: &ModuleImage, mac_key: &[u8]) -> Result<SmodPackage> {
        crate::verify::check(image, true)?;
        let mut pkg = SmodPackage {
            image: image.clone(),
            stub_table: StubTable::generate(image),
            plaintext_fingerprint: image.fingerprint(),
            encrypted: false,
            mac: [0u8; 32],
        };
        pkg.mac = pkg.compute_mac(mac_key);
        Ok(pkg)
    }

    fn compute_mac(&self, mac_key: &[u8]) -> [u8; 32] {
        let mut h = HmacSha256::new(mac_key);
        h.update(self.image.name.as_bytes());
        h.update(&self.image.version.0.to_le_bytes());
        h.update(&[self.encrypted as u8]);
        h.update(&self.plaintext_fingerprint);
        h.update(&self.image.text.data);
        h.update(&self.image.data.data);
        h.update(&self.image.rodata.data);
        for stub in &self.stub_table.stubs {
            h.update(stub.symbol.as_bytes());
            h.update(&stub.func_id.to_le_bytes());
        }
        h.finalize()
    }

    /// Verify the package MAC.
    pub fn verify_mac(&self, mac_key: &[u8]) -> Result<()> {
        if secmod_crypto::ct_eq(&self.compute_mac(mac_key), &self.mac) {
            Ok(())
        } else {
            Err(ModuleError::IntegrityFailure)
        }
    }

    /// Kernel-side unsealing: decrypt the text (if encrypted) and verify the
    /// plaintext fingerprint.  Returns the plaintext image the handle will
    /// execute.
    pub fn unseal(&self, encryptor: &SelectiveEncryptor) -> Result<ModuleImage> {
        let mut plain = self.image.clone();
        if self.encrypted {
            let skips = skip_ranges_for(&plain.relocations, SectionKind::Text);
            encryptor.apply(&mut plain.text.data, &skips)?;
        }
        if plain.fingerprint() != self.plaintext_fingerprint {
            return Err(ModuleError::IntegrityFailure);
        }
        Ok(plain)
    }

    /// Size in bytes of the text that is actually protected by encryption.
    pub fn protected_text_bytes(&self) -> usize {
        if !self.encrypted {
            return 0;
        }
        let skips = skip_ranges_for(&self.image.relocations, SectionKind::Text);
        SelectiveEncryptor::protected_bytes(self.image.text.len(), &skips)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;

    fn good_encryptor() -> SelectiveEncryptor {
        SelectiveEncryptor::new(b"kernel-key-16byt", [1u8; 8]).unwrap()
    }

    #[test]
    fn seal_and_unseal_roundtrip() {
        let img = ModuleBuilder::libc_like();
        let enc = good_encryptor();
        let pkg = SmodPackage::seal(&img, &enc, b"mac-key").unwrap();
        assert!(pkg.encrypted);
        assert_ne!(pkg.image.text.data, img.text.data, "text must be encrypted");
        assert_eq!(pkg.image.data.data, img.data.data, "data is not encrypted");
        pkg.verify_mac(b"mac-key").unwrap();
        assert!(pkg.verify_mac(b"wrong").is_err());

        let plain = pkg.unseal(&enc).unwrap();
        assert_eq!(plain, img);
        assert!(pkg.protected_text_bytes() > 0);
        assert!(pkg.protected_text_bytes() < img.text.len());
    }

    #[test]
    fn relocation_fields_survive_sealing_in_plaintext() {
        let img = ModuleBuilder::libc_like();
        let enc = good_encryptor();
        let pkg = SmodPackage::seal(&img, &enc, b"k").unwrap();
        for reloc in &img.relocations {
            if reloc.section == SectionKind::Text {
                assert_eq!(
                    &pkg.image.text.data[reloc.patched_range()],
                    &img.text.data[reloc.patched_range()],
                    "relocation field at {:#x} must not be encrypted",
                    reloc.offset
                );
            }
        }
    }

    #[test]
    fn unseal_with_wrong_key_detected() {
        let img = ModuleBuilder::libc_like();
        let pkg = SmodPackage::seal(&img, &good_encryptor(), b"k").unwrap();
        let wrong = SelectiveEncryptor::new(b"wrong-key-16byte", [1u8; 8]).unwrap();
        assert!(matches!(
            pkg.unseal(&wrong),
            Err(ModuleError::IntegrityFailure)
        ));
    }

    #[test]
    fn tampered_package_fails_mac_and_unseal() {
        let img = ModuleBuilder::libc_like();
        let enc = good_encryptor();
        let mut pkg = SmodPackage::seal(&img, &enc, b"k").unwrap();
        pkg.image.text.data[40] ^= 0xFF;
        assert!(pkg.verify_mac(b"k").is_err());
        assert!(pkg.unseal(&enc).is_err());
    }

    #[test]
    fn unencrypted_mode() {
        let img = ModuleBuilder::libc_like();
        let pkg = SmodPackage::seal_unencrypted(&img, b"k").unwrap();
        assert!(!pkg.encrypted);
        assert_eq!(pkg.image.text.data, img.text.data);
        assert_eq!(pkg.protected_text_bytes(), 0);
        pkg.verify_mac(b"k").unwrap();
        // Unsealing is a no-op decrypt plus fingerprint check.
        assert_eq!(pkg.unseal(&good_encryptor()).unwrap(), img);
    }

    #[test]
    fn stub_table_embedded_in_package() {
        let img = ModuleBuilder::libc_like();
        let pkg = SmodPackage::seal_unencrypted(&img, b"k").unwrap();
        assert_eq!(pkg.stub_table.len(), img.exported_functions().len());
        assert!(pkg.stub_table.by_name("testincr").is_some());
    }

    #[test]
    fn invalid_key_length_is_rejected_by_encryptor() {
        assert!(SelectiveEncryptor::new(b"kernel-module-key", [1u8; 8]).is_err());
    }
}
