//! Snapshot wire format: a hand-rolled little-endian byte stream used
//! to freeze and restore simulator state bit-exactly.
//!
//! The workspace has no external dependencies, so serialization is
//! explicit: every snapshottable container writes its dynamic state
//! through a [`SnapWriter`] and reads it back through a [`SnapReader`].
//! Configuration-derived structure (cache geometry, bus latencies,
//! kernel layout) is *not* serialized — restore reconstructs it from
//! the same configuration and then overwrites the dynamic fields, which
//! keeps snapshots small and makes a format/config mismatch loud.
//!
//! Byte images produced by the same code revision for the same state
//! are identical, so snapshot bytes double as a state-equality witness:
//! two worlds are bit-exact iff their snapshots are equal. The warm-up
//! checkpoint cache in `oscar-core` and the run engine's differential
//! tests rely on exactly that.

/// Version stamp for the snapshot byte format. Bump on any layout
/// change: stale on-disk checkpoints (see the `--checkpoint-dir` cache)
/// are keyed by this constant and silently invalidated when it moves.
pub const SNAP_FORMAT_VERSION: u32 = 4;

/// Errors raised while decoding a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapError {
    /// The byte stream ended before the value being read.
    Eof,
    /// The stream decoded but the value was impossible (bad tag,
    /// mismatched length, wrong magic). The payload names the decoder.
    Corrupt(&'static str),
}

impl std::fmt::Display for SnapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapError::Eof => write!(f, "snapshot truncated"),
            SnapError::Corrupt(what) => write!(f, "snapshot corrupt: {what}"),
        }
    }
}

impl std::error::Error for SnapError {}

/// Builds a snapshot byte stream (little-endian, densely packed).
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// An empty writer.
    pub fn new() -> Self {
        SnapWriter::default()
    }

    /// Consumes the writer, returning the bytes written.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `u16`, little-endian.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `i64`, little-endian two's complement.
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Writes a `bool` as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.usize(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Writes a length-prefixed raw byte slice.
    pub fn bytes(&mut self, b: &[u8]) {
        self.usize(b.len());
        self.buf.extend_from_slice(b);
    }

    /// Writes a length-prefixed slice of `u64`s.
    pub fn u64_slice(&mut self, vs: &[u64]) {
        self.usize(vs.len());
        for &v in vs {
            self.u64(v);
        }
    }
}

/// Reads a snapshot byte stream written by [`SnapWriter`].
#[derive(Debug)]
pub struct SnapReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Starts reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        SnapReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless the stream was fully consumed (trailing garbage
    /// means the writer and reader disagree about the format).
    pub fn expect_end(&self) -> Result<(), SnapError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapError::Corrupt("trailing bytes"))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapError> {
        if self.remaining() < n {
            return Err(SnapError::Eof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, SnapError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    pub fn u16(&mut self) -> Result<u16, SnapError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `usize` written by [`SnapWriter::usize`], failing if the
    /// value does not fit the host's `usize`.
    pub fn usize(&mut self) -> Result<usize, SnapError> {
        usize::try_from(self.u64()?).map_err(|_| SnapError::Corrupt("usize overflow"))
    }

    /// Reads a `bool`, rejecting any byte other than 0/1.
    pub fn bool(&mut self) -> Result<bool, SnapError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapError::Corrupt("bool tag")),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapError> {
        let n = self.usize()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapError::Corrupt("utf-8 string"))
    }

    /// Reads a length-prefixed raw byte slice.
    pub fn bytes(&mut self) -> Result<Vec<u8>, SnapError> {
        let n = self.usize()?;
        Ok(self.take(n)?.to_vec())
    }

    /// Reads a length-prefixed slice of `u64`s.
    pub fn u64_vec(&mut self) -> Result<Vec<u64>, SnapError> {
        let n = self.usize()?;
        let mut out = Vec::with_capacity(n.min(self.remaining() / 8 + 1));
        for _ in 0..n {
            out.push(self.u64()?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_every_primitive() {
        let mut w = SnapWriter::new();
        w.u8(7);
        w.u16(0xbeef);
        w.u32(0xdead_beef);
        w.u64(u64::MAX - 3);
        w.i64(-42);
        w.usize(123_456);
        w.bool(true);
        w.bool(false);
        w.str("hello");
        w.bytes(&[1, 2, 3]);
        w.u64_slice(&[10, 20, 30]);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 0xbeef);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 3);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.usize().unwrap(), 123_456);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.bytes().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.u64_vec().unwrap(), vec![10, 20, 30]);
        r.expect_end().unwrap();
    }

    #[test]
    fn truncation_and_corruption_are_detected() {
        let mut w = SnapWriter::new();
        w.u64(1);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes[..4]);
        assert_eq!(r.u64(), Err(SnapError::Eof));

        let mut w = SnapWriter::new();
        w.u8(9);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        assert_eq!(r.bool(), Err(SnapError::Corrupt("bool tag")));

        let mut w = SnapWriter::new();
        w.u8(0);
        w.u8(0);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        r.u8().unwrap();
        assert!(r.expect_end().is_err());
    }
}
