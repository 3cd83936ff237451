//! The kernel-resident key store.
//!
//! §4.4 of the paper: "Once the SecModules are registered, the secret keys
//! for each encrypted segment in m exist only in kernel space."  The
//! [`KeyStore`] models that: keys are inserted by the registration path,
//! referenced by opaque [`KeyHandle`]s, can be *used* (to build a
//! [`SelectiveEncryptor`] or compute a MAC) by kernel-side code, but can
//! never be exported to a client.  Keys may also arrive wrapped with the
//! host system's RSA public key and are unwrapped inside the store.

use crate::hmac::HmacSha256;
use crate::rng::HashDrbg;
use crate::rsa::RsaPrivateKey;
use crate::selective::SelectiveEncryptor;
use crate::{CryptoError, Result};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Opaque handle naming a key inside the [`KeyStore`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct KeyHandle(pub u64);

#[derive(Clone)]
struct StoredKey {
    material: Vec<u8>,
    nonce: [u8; 8],
    label: String,
    revoked: bool,
}

/// Kernel-space key registry.  Keys never leave the store in plaintext.
pub struct KeyStore {
    inner: Mutex<KeyStoreInner>,
}

struct KeyStoreInner {
    keys: HashMap<KeyHandle, StoredKey>,
    next_id: u64,
    host_key: Option<RsaPrivateKey>,
    rng: HashDrbg,
}

impl Default for KeyStore {
    fn default() -> Self {
        Self::new(b"secmodule-keystore")
    }
}

impl std::fmt::Debug for KeyStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("KeyStore")
            .field("keys", &inner.keys.len())
            .field("has_host_key", &inner.host_key.is_some())
            .finish()
    }
}

impl KeyStore {
    /// Create a key store seeded from the given material (deterministic for
    /// a given seed, which keeps the kernel simulator reproducible).
    pub fn new(seed: &[u8]) -> Self {
        KeyStore {
            inner: Mutex::new(KeyStoreInner {
                keys: HashMap::new(),
                next_id: 1,
                host_key: None,
                rng: HashDrbg::new(seed),
            }),
        }
    }

    // surface: §4.4's host key, which import_wrapped unwraps module keys under; only tests set one
    /// Install the host system's RSA private key, enabling
    /// [`KeyStore::import_wrapped`].
    pub fn set_host_key(&self, key: RsaPrivateKey) {
        self.inner.lock().host_key = Some(key);
    }

    /// Generate a fresh module key of `len` bytes (16/24/32) and store it.
    pub fn generate(&self, label: &str, len: usize) -> Result<KeyHandle> {
        if !matches!(len, 16 | 24 | 32) {
            return Err(CryptoError::InvalidKeyLength { got: len });
        }
        let mut inner = self.inner.lock();
        let material = inner.rng.bytes(len);
        let mut nonce = [0u8; 8];
        let nb = inner.rng.bytes(8);
        nonce.copy_from_slice(&nb);
        Ok(Self::insert(&mut inner, material, nonce, label))
    }

    /// Import raw key material directly (used by the registration tool when
    /// creator and host are the same principal, §4.4 "test case").
    pub fn import_raw(&self, label: &str, material: &[u8], nonce: [u8; 8]) -> Result<KeyHandle> {
        if !matches!(material.len(), 16 | 24 | 32) {
            return Err(CryptoError::InvalidKeyLength {
                got: material.len(),
            });
        }
        let mut inner = self.inner.lock();
        Ok(Self::insert(&mut inner, material.to_vec(), nonce, label))
    }

    /// Import a module key that was wrapped with the host's public key
    /// (the multi-user scenario of §4.4).
    pub fn import_wrapped(&self, label: &str, wrapped: &[u8], nonce: [u8; 8]) -> Result<KeyHandle> {
        let mut inner = self.inner.lock();
        let host = inner.host_key.clone().ok_or(CryptoError::UnknownKey)?;
        let material = host.unwrap(wrapped)?;
        if !matches!(material.len(), 16 | 24 | 32) {
            return Err(CryptoError::InvalidKeyLength {
                got: material.len(),
            });
        }
        Ok(Self::insert(&mut inner, material, nonce, label))
    }

    fn insert(
        inner: &mut KeyStoreInner,
        material: Vec<u8>,
        nonce: [u8; 8],
        label: &str,
    ) -> KeyHandle {
        let handle = KeyHandle(inner.next_id);
        inner.next_id += 1;
        inner.keys.insert(
            handle,
            StoredKey {
                material,
                nonce,
                label: label.to_string(),
                revoked: false,
            },
        );
        handle
    }

    /// Build a [`SelectiveEncryptor`] for the named key.  This is the only
    /// way the key is ever *used*; the material itself is not returned.
    pub fn encryptor(&self, handle: KeyHandle) -> Result<SelectiveEncryptor> {
        let inner = self.inner.lock();
        let key = inner.keys.get(&handle).ok_or(CryptoError::UnknownKey)?;
        if key.revoked {
            return Err(CryptoError::UnknownKey);
        }
        SelectiveEncryptor::new(&key.material, key.nonce)
    }

    /// Compute an HMAC tag with the named key (used to MAC credentials and
    /// registration blobs).
    pub fn mac(&self, handle: KeyHandle, message: &[u8]) -> Result<[u8; 32]> {
        let inner = self.inner.lock();
        let key = inner.keys.get(&handle).ok_or(CryptoError::UnknownKey)?;
        if key.revoked {
            return Err(CryptoError::UnknownKey);
        }
        Ok(HmacSha256::mac(&key.material, message))
    }

    /// Verify an HMAC tag with the named key.
    pub fn verify_mac(&self, handle: KeyHandle, message: &[u8], tag: &[u8]) -> Result<bool> {
        Ok(crate::ct_eq(&self.mac(handle, message)?, tag))
    }

    /// Revoke a key; subsequent use fails.
    pub fn revoke(&self, handle: KeyHandle) -> Result<()> {
        let mut inner = self.inner.lock();
        match inner.keys.get_mut(&handle) {
            Some(k) => {
                k.revoked = true;
                Ok(())
            }
            None => Err(CryptoError::UnknownKey),
        }
    }

    /// The human-readable label of a key.
    pub fn label(&self, handle: KeyHandle) -> Result<String> {
        let inner = self.inner.lock();
        inner
            .keys
            .get(&handle)
            .map(|k| k.label.clone())
            .ok_or(CryptoError::UnknownKey)
    }

    /// Number of (non-revoked) keys currently stored.
    pub fn len(&self) -> usize {
        self.inner
            .lock()
            .keys
            .values()
            .filter(|k| !k.revoked)
            .count()
    }

    /// True if the store holds no live keys.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rsa::generate_keypair;

    #[test]
    fn generate_and_use_key() {
        let ks = KeyStore::new(b"t");
        let h = ks.generate("libc-text", 16).unwrap();
        assert_eq!(ks.label(h).unwrap(), "libc-text");
        assert_eq!(ks.len(), 1);
        let enc = ks.encryptor(h).unwrap();
        let mut data = vec![1u8; 64];
        enc.apply(&mut data, &[]).unwrap();
        assert_ne!(data, vec![1u8; 64]);
    }

    #[test]
    fn generate_rejects_bad_length() {
        let ks = KeyStore::new(b"t");
        assert!(ks.generate("x", 15).is_err());
        assert!(ks.generate("x", 0).is_err());
        assert!(ks.generate("x", 33).is_err());
    }

    #[test]
    fn deterministic_for_same_seed() {
        let a = KeyStore::new(b"same");
        let b = KeyStore::new(b"same");
        let ha = a.generate("k", 16).unwrap();
        let hb = b.generate("k", 16).unwrap();
        assert_eq!(a.mac(ha, b"m").unwrap(), b.mac(hb, b"m").unwrap());
    }

    #[test]
    fn mac_and_verify() {
        let ks = KeyStore::new(b"t");
        let h = ks.generate("mac-key", 32).unwrap();
        let tag = ks.mac(h, b"credential blob").unwrap();
        assert!(ks.verify_mac(h, b"credential blob", &tag).unwrap());
        assert!(!ks.verify_mac(h, b"tampered blob", &tag).unwrap());
    }

    #[test]
    fn unknown_and_revoked_keys_fail() {
        let ks = KeyStore::new(b"t");
        assert!(ks.mac(KeyHandle(99), b"x").is_err());
        let h = ks.generate("k", 16).unwrap();
        ks.revoke(h).unwrap();
        assert!(ks.encryptor(h).is_err());
        assert!(ks.mac(h, b"x").is_err());
        assert_eq!(ks.len(), 0);
        assert!(ks.is_empty());
        assert!(ks.revoke(KeyHandle(1234)).is_err());
    }

    #[test]
    fn import_raw_and_reuse() {
        let ks = KeyStore::new(b"t");
        let h = ks
            .import_raw("imported", b"0123456789abcdef", [1u8; 8])
            .unwrap();
        let enc = ks.encryptor(h).unwrap();
        // Must behave exactly like a SelectiveEncryptor built directly.
        let direct = SelectiveEncryptor::new(b"0123456789abcdef", [1u8; 8]).unwrap();
        let mut a = vec![5u8; 48];
        let mut b = vec![5u8; 48];
        enc.apply(&mut a, &[]).unwrap();
        direct.apply(&mut b, &[]).unwrap();
        assert_eq!(a, b);
        assert!(ks.import_raw("bad", b"short", [0u8; 8]).is_err());
    }

    #[test]
    fn wrapped_import_via_host_key() {
        // The module creator wraps the key under the hosting system's
        // public key; only the host's store can import it.
        let creator = KeyStore::new(b"creator");
        let module_key = creator
            .import_raw("module-m", b"0123456789abcdef", [2u8; 8])
            .unwrap();

        let host = KeyStore::new(b"host");
        let mut rng = HashDrbg::new(b"host-rsa");
        let host_rsa = generate_keypair(512, &mut rng);
        let host_pub = host_rsa.public.clone();
        host.set_host_key(host_rsa);

        let wrapped = host_pub.wrap(b"0123456789abcdef", &mut rng).unwrap();
        let imported = host.import_wrapped("module-m", &wrapped, [2u8; 8]).unwrap();

        // Both stores must produce identical encryptors for the same key.
        let mut a = vec![9u8; 32];
        let mut b = vec![9u8; 32];
        creator
            .encryptor(module_key)
            .unwrap()
            .apply(&mut a, &[])
            .unwrap();
        host.encryptor(imported)
            .unwrap()
            .apply(&mut b, &[])
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn import_wrapped_without_host_key_fails() {
        let ks = KeyStore::new(b"t");
        assert!(ks.import_wrapped("x", &[0u8; 64], [0u8; 8]).is_err());
    }
}
