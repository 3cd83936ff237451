//! Argument marshalling "in the traditional stack passing mechanism" (§3).
//!
//! Arguments are laid out the way a C caller would push them: a sequence of
//! 32/64-bit words and byte blocks, little-endian (the paper's i386 test
//! machine).  Because client and handle share the stack pages, only the
//! *word sequence* crosses the kernel; pointers stay valid on both sides.

use crate::{Result, SmodError};

/// Builds a marshalled argument block.
#[derive(Clone, Debug, Default)]
pub struct ArgWriter {
    buf: Vec<u8>,
}

impl ArgWriter {
    /// Create an empty writer.
    pub fn new() -> ArgWriter {
        ArgWriter::default()
    }

    // surface: §3's stack-passing marshalling, which ArgReader reads; only tests marshal by hand
    /// Push a 64-bit unsigned value.
    pub fn push_u64(mut self, v: u64) -> ArgWriter {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Finish and return the marshalled bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Current size in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is the block empty?
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Reads a marshalled argument block.
#[derive(Debug)]
pub struct ArgReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ArgReader<'a> {
    /// Create a reader over marshalled bytes.
    pub fn new(buf: &'a [u8]) -> ArgReader<'a> {
        ArgReader { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(SmodError::BadArguments(format!(
                "needed {n} bytes at offset {}, only {} available",
                self.pos,
                self.buf.len() - self.pos
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read a 64-bit unsigned value.
    pub fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a length-prefixed byte block.
    pub fn bytes(&mut self) -> Result<Vec<u8>> {
        let len = self.u64()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_arguments() {
        // Signed values, 32-bit values and addresses are widened to a
        // stack word; a byte block is its length word, then its bytes.
        let mut block = ArgWriter::new()
            .push_u64(42)
            .push_u64(-7i64 as u64)
            .push_u64(0xDEAD)
            .push_u64(0x1000_0000)
            .push_u64(5)
            .finish();
        block.extend_from_slice(b"hello");
        let mut r = ArgReader::new(&block);
        assert_eq!(r.u64().unwrap(), 42);
        assert_eq!(r.u64().unwrap() as i64, -7);
        assert_eq!(r.u64().unwrap(), 0xDEAD);
        assert_eq!(r.u64().unwrap(), 0x1000_0000);
        assert_eq!(r.bytes().unwrap(), b"hello");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn truncated_blocks_error() {
        let block = ArgWriter::new().push_u64(1).finish();
        let mut r = ArgReader::new(&block[..4]);
        assert!(r.u64().is_err());
        let mut block = ArgWriter::new().push_u64(3).finish();
        block.extend_from_slice(&[1, 2, 3]);
        let mut r = ArgReader::new(&block[..9]);
        assert!(r.bytes().is_err());
    }

    #[test]
    fn empty_writer() {
        let w = ArgWriter::new();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
        assert!(w.finish().is_empty());
    }

    proptest::proptest! {
        #[test]
        fn prop_u64_sequence_roundtrip(values in proptest::collection::vec(proptest::num::u64::ANY, 0..32)) {
            let mut w = ArgWriter::new();
            for v in &values {
                w = w.push_u64(*v);
            }
            let block = w.finish();
            let mut r = ArgReader::new(&block);
            for v in &values {
                proptest::prop_assert_eq!(r.u64().unwrap(), *v);
            }
            proptest::prop_assert_eq!(r.remaining(), 0);
        }
    }
}
