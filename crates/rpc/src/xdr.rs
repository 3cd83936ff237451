//! XDR (External Data Representation, RFC 4506) encoding and decoding.
//!
//! The paper notes that SecModule's argument marshalling "develops the same
//! flavor as that of the XDR … Protocol used in RPC"; here is the real
//! thing for the RPC baseline.

use crate::{Result, RpcError};
use bytes::{Buf, BufMut, BytesMut};

/// An XDR encoder: big-endian, 4-byte aligned, as per RFC 4506.
#[derive(Debug, Default)]
pub struct XdrEncoder {
    buf: BytesMut,
}

impl XdrEncoder {
    /// Create an empty encoder.
    pub fn new() -> XdrEncoder {
        XdrEncoder::default()
    }

    /// Finish and return the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf.to_vec()
    }

    /// Current length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the buffer empty?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Encode a 32-bit unsigned integer.
    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.put_u32(v);
        self
    }

    /// Encode a 64-bit unsigned integer (XDR "unsigned hyper").
    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.put_u64(v);
        self
    }

    /// Encode variable-length opaque data (length prefix + padding).
    pub fn put_opaque(&mut self, data: &[u8]) -> &mut Self {
        self.put_u32(data.len() as u32);
        self.buf.put_slice(data);
        let pad = (4 - data.len() % 4) % 4;
        for _ in 0..pad {
            self.buf.put_u8(0);
        }
        self
    }
}

/// An XDR decoder.
#[derive(Debug)]
pub struct XdrDecoder {
    buf: BytesMut,
}

impl XdrDecoder {
    /// Create a decoder over `data`.
    pub fn new(data: &[u8]) -> XdrDecoder {
        XdrDecoder {
            buf: BytesMut::from(data),
        }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn need(&self, n: usize) -> Result<()> {
        if self.buf.len() < n {
            Err(RpcError::Xdr(format!(
                "need {n} bytes, {} remaining",
                self.buf.len()
            )))
        } else {
            Ok(())
        }
    }

    /// Decode a 32-bit unsigned integer.
    pub fn get_u32(&mut self) -> Result<u32> {
        self.need(4)?;
        Ok(self.buf.get_u32())
    }

    /// Decode a 64-bit unsigned integer.
    pub fn get_u64(&mut self) -> Result<u64> {
        self.need(8)?;
        Ok(self.buf.get_u64())
    }

    /// Decode variable-length opaque data.
    pub fn get_opaque(&mut self) -> Result<Vec<u8>> {
        let len = self.get_u32()? as usize;
        let padded = len + (4 - len % 4) % 4;
        self.need(padded)?;
        let mut data = vec![0u8; len];
        self.buf.copy_to_slice(&mut data);
        // Discard padding.
        for _ in 0..padded - len {
            self.buf.get_u8();
        }
        Ok(data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_roundtrip() {
        let mut e = XdrEncoder::new();
        e.put_u32(42).put_u64(1 << 40);
        let bytes = e.into_bytes();
        assert_eq!(bytes.len(), 4 + 8);
        let mut d = XdrDecoder::new(&bytes);
        assert_eq!(d.get_u32().unwrap(), 42);
        assert_eq!(d.get_u64().unwrap(), 1 << 40);
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn big_endian_wire_format() {
        let mut e = XdrEncoder::new();
        e.put_u32(0x0102_0304);
        assert_eq!(e.into_bytes(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn opaque_padding() {
        for len in 0..9usize {
            let data: Vec<u8> = (0..len as u8).collect();
            let mut e = XdrEncoder::new();
            e.put_opaque(&data);
            let bytes = e.into_bytes();
            assert_eq!(bytes.len() % 4, 0, "XDR items are 4-byte aligned");
            let mut d = XdrDecoder::new(&bytes);
            assert_eq!(d.get_opaque().unwrap(), data);
            assert_eq!(d.remaining(), 0);
        }
    }

    #[test]
    fn decode_errors() {
        let mut d = XdrDecoder::new(&[0, 0]);
        assert!(d.get_u32().is_err());
        let mut d = XdrDecoder::new(&[0, 0, 0, 9, 1, 2]);
        assert!(d.get_opaque().is_err());
    }

    proptest::proptest! {
        #[test]
        fn prop_opaque_roundtrip(data in proptest::collection::vec(0u8..=255, 0..512)) {
            let mut e = XdrEncoder::new();
            e.put_opaque(&data);
            let mut d = XdrDecoder::new(&e.into_bytes());
            proptest::prop_assert_eq!(d.get_opaque().unwrap(), data);
        }

        #[test]
        fn prop_mixed_roundtrip(a in proptest::num::u32::ANY, b in proptest::num::u64::ANY,
                                s in "[a-zA-Z0-9 ]{0,64}") {
            let mut e = XdrEncoder::new();
            e.put_u32(a).put_opaque(s.as_bytes()).put_u64(b);
            let mut d = XdrDecoder::new(&e.into_bytes());
            proptest::prop_assert_eq!(d.get_u32().unwrap(), a);
            proptest::prop_assert_eq!(d.get_opaque().unwrap(), s.as_bytes());
            proptest::prop_assert_eq!(d.get_u64().unwrap(), b);
        }
    }
}
