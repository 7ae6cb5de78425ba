//! Minimal byte codec for checkpoint payloads.
//!
//! Durable state serializes through this explicit little-endian
//! writer/reader — every field written in a fixed order, every read
//! bounds-checked. [`Dec`] never panics: malformed input surfaces as a
//! [`CodecError`] carrying the offset, which the store maps into
//! [`StoreError::Corrupt`](crate::StoreError::Corrupt).

/// A decoding failure: the payload ended early or held an impossible value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    /// Byte offset within the payload where decoding failed.
    pub offset: usize,
    /// What was expected there.
    pub message: String,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error at offset {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for CodecError {}

/// Append-only encoder over a growable byte buffer.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Enc::default()
    }

    pub fn put_u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    pub fn put_bool(&mut self, v: bool) -> &mut Self {
        self.put_u8(v as u8)
    }

    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn put_f64(&mut self, v: f64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Length-prefixed (u32) raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
        self
    }

    /// Length-prefixed (u32) UTF-8 string.
    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    /// The encoded payload.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Bounds-checked decoder over a byte slice.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    fn err(&self, message: impl Into<String>) -> CodecError {
        CodecError {
            offset: self.pos,
            message: message.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| self.err(format!("{n} more bytes needed, payload exhausted")))?;
        // `get` instead of indexing: decode paths must be panic-free even
        // if the bounds logic above ever regresses (`clippy::indexing_slicing`
        // is denied crate-wide).
        let out = self
            .buf
            .get(self.pos..end)
            .ok_or_else(|| self.err(format!("{n} more bytes needed, payload exhausted")))?;
        self.pos = end;
        Ok(out)
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?.first().copied().unwrap_or(0))
    }

    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(CodecError {
                offset: self.pos - 1,
                message: format!("bad bool byte {b:#04x}"),
            }),
        }
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let at = self.pos;
        // An explicit error, not `unwrap_or_default()`: if `take` ever
        // returned a short slice, decoding it as zero would silently
        // fabricate a value from corrupt input.
        let b: [u8; 4] = self.take(4)?.try_into().map_err(|_| CodecError {
            offset: at,
            message: "internal: take(4) returned a short slice".into(),
        })?;
        Ok(u32::from_le_bytes(b))
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let at = self.pos;
        let b: [u8; 8] = self.take(8)?.try_into().map_err(|_| CodecError {
            offset: at,
            message: "internal: take(8) returned a short slice".into(),
        })?;
        Ok(u64::from_le_bytes(b))
    }

    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A length-prefixed byte run written by [`Enc::put_bytes`].
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// A length-prefixed UTF-8 string written by [`Enc::put_str`].
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let at = self.pos;
        std::str::from_utf8(self.bytes()?).map_err(|e| CodecError {
            offset: at,
            message: format!("invalid UTF-8: {e}"),
        })
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Asserts the payload was consumed exactly — trailing garbage is
    /// corruption, not slack.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError {
                offset: self.pos,
                message: format!("{} trailing bytes after payload", self.remaining()),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_type() {
        let mut e = Enc::new();
        e.put_u8(7)
            .put_bool(true)
            .put_u32(0xDEAD_BEEF)
            .put_u64(u64::MAX - 1)
            .put_f64(-0.5)
            .put_bytes(b"raw")
            .put_str("snök");
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 1);
        assert_eq!(d.f64().unwrap(), -0.5);
        assert_eq!(d.bytes().unwrap(), b"raw");
        assert_eq!(d.str().unwrap(), "snök");
        d.finish().unwrap();
    }

    #[test]
    fn short_reads_error_instead_of_panicking() {
        let mut d = Dec::new(&[1, 2]);
        assert!(d.u32().is_err());
        // A length prefix larger than the remaining buffer must not wrap
        // or allocate — just error.
        let huge = u32::MAX.to_le_bytes();
        let mut d = Dec::new(&huge);
        assert!(d.bytes().is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut e = Enc::new();
        e.put_u8(1);
        let mut bytes = e.into_bytes();
        bytes.push(9);
        let mut d = Dec::new(&bytes);
        d.u8().unwrap();
        assert!(d.finish().is_err());
    }

    #[test]
    fn bad_bool_and_bad_utf8_are_errors() {
        let mut d = Dec::new(&[2]);
        assert!(d.bool().is_err());
        let mut e = Enc::new();
        e.put_bytes(&[0xFF, 0xFE]);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(d.str().is_err());
    }

    /// Regression: a short buffer must error from `u32`/`u64`, never
    /// silently decode as zero (the old `unwrap_or_default()` would have
    /// fabricated `0` had the bounds check ever regressed).
    #[test]
    fn short_integer_reads_error_instead_of_decoding_zero() {
        for len in 0..4 {
            let buf = vec![0xAB; len];
            let mut d = Dec::new(&buf);
            let err = d.u32().expect_err("short u32 accepted");
            assert_eq!(err.offset, 0, "len={len}");
        }
        for len in 0..8 {
            let buf = vec![0xAB; len];
            let mut d = Dec::new(&buf);
            assert!(d.u64().is_err(), "len={len}: short u64 accepted");
        }
        // Position is not advanced past a failed read: the error is
        // diagnosable at the offset where the field started.
        let buf = [1u8, 2, 3];
        let mut d = Dec::new(&buf);
        assert!(d.u32().is_err());
        assert_eq!(d.remaining(), 3);
    }
}
