//! The frame: a length-prefixed, CRC32-checksummed byte record.
//!
//! Layout (all little-endian):
//!
//! ```text
//! [u32 payload_len] [u32 crc32(payload)] [payload_len bytes]
//! ```
//!
//! Both snapshots and the WAL are sequences of frames, so both formats
//! inherit one validation story. Parsing distinguishes a **torn tail** — a
//! trailing frame whose bytes simply stop early, the signature of a write
//! interrupted by a crash — from **corruption** — a structurally complete
//! frame whose checksum (or length field) is wrong, which can only come
//! from bit rot or a foreign file. Torn tails are recoverable (truncate to
//! the clean prefix); corruption is not.

use crate::crc32::crc32;

/// Upper bound on a single frame's payload. A length field above this is
/// treated as corruption rather than an allocation request — a torn write
/// can truncate a frame but never fabricates an impossible header.
pub const MAX_FRAME_LEN: usize = 256 << 20;

/// Bytes of framing overhead per record (length + checksum).
pub const FRAME_HEADER_LEN: usize = 8;

/// Appends one framed `payload` to `out`.
pub fn write_frame(out: &mut Vec<u8>, payload: &[u8]) {
    assert!(payload.len() <= MAX_FRAME_LEN, "frame payload too large");
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// One step of frame parsing.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameEvent<'a> {
    /// A complete, checksum-valid frame.
    Frame(&'a [u8]),
    /// The buffer ends exactly at a frame boundary.
    Eof,
    /// The final frame's bytes stop early — an interrupted write. The
    /// clean prefix ends at `offset`.
    TornTail {
        /// Byte offset where the torn frame begins.
        offset: u64,
    },
    /// A structurally complete frame failed validation.
    Corrupt {
        /// Byte offset of the offending frame.
        offset: u64,
        /// What failed (checksum, impossible length).
        message: String,
    },
}

/// Reads a little-endian `u32` without panicking: decode paths must
/// degrade to `TornTail`/`Corrupt` on any malformed input, never abort
/// the process (`her-store` denies `unwrap`/`expect` and direct slice
/// indexing crate-wide).
fn read_u32_le(buf: &[u8], pos: usize) -> Option<u32> {
    let bytes: [u8; 4] = buf.get(pos..pos.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_le_bytes(bytes))
}

/// Sequential frame parser over an in-memory buffer.
pub struct Frames<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Frames<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Frames { buf, pos: 0 }
    }

    /// Offset of the next unparsed byte — after a [`FrameEvent::Frame`],
    /// the end of that frame (i.e. the length of the clean prefix so far).
    pub fn offset(&self) -> u64 {
        self.pos as u64
    }

    /// Parses the next frame.
    pub fn next_frame(&mut self) -> FrameEvent<'a> {
        let at = self.pos as u64;
        let remaining = self.buf.len() - self.pos;
        if remaining == 0 {
            return FrameEvent::Eof;
        }
        if remaining < FRAME_HEADER_LEN {
            return FrameEvent::TornTail { offset: at };
        }
        let Some(len) = read_u32_le(self.buf, self.pos).map(|v| v as usize) else {
            return FrameEvent::TornTail { offset: at };
        };
        if len > MAX_FRAME_LEN {
            return FrameEvent::Corrupt {
                offset: at,
                message: format!("impossible frame length {len}"),
            };
        }
        if remaining < FRAME_HEADER_LEN + len {
            return FrameEvent::TornTail { offset: at };
        }
        let Some(want) = read_u32_le(self.buf, self.pos + 4) else {
            return FrameEvent::TornTail { offset: at };
        };
        let Some(payload) = self
            .buf
            .get(self.pos + FRAME_HEADER_LEN..self.pos + FRAME_HEADER_LEN + len)
        else {
            return FrameEvent::TornTail { offset: at };
        };
        let got = crc32(payload);
        if got != want {
            return FrameEvent::Corrupt {
                offset: at,
                message: format!("checksum mismatch (stored {want:#010x}, computed {got:#010x})"),
            };
        }
        self.pos += FRAME_HEADER_LEN + len;
        FrameEvent::Frame(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn framed(payloads: &[&[u8]]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in payloads {
            write_frame(&mut out, p);
        }
        out
    }

    #[test]
    fn round_trips_multiple_frames() {
        let buf = framed(&[b"alpha", b"", b"gamma"]);
        let mut f = Frames::new(&buf);
        assert_eq!(f.next_frame(), FrameEvent::Frame(b"alpha"));
        assert_eq!(f.next_frame(), FrameEvent::Frame(b""));
        assert_eq!(f.next_frame(), FrameEvent::Frame(b"gamma"));
        assert_eq!(f.next_frame(), FrameEvent::Eof);
    }

    /// The acceptance property at the frame level: a buffer truncated at
    /// every possible byte offset yields a clean prefix of frames followed
    /// by Eof or TornTail — never Corrupt, never a wrong payload.
    #[test]
    fn truncation_at_every_offset_is_a_clean_prefix() {
        let payloads: [&[u8]; 3] = [b"first record", b"x", b"third and longest record"];
        let buf = framed(&payloads);
        for cut in 0..=buf.len() {
            let mut f = Frames::new(&buf[..cut]);
            let mut seen = 0;
            loop {
                match f.next_frame() {
                    FrameEvent::Frame(p) => {
                        assert_eq!(p, payloads[seen], "cut={cut}");
                        seen += 1;
                    }
                    FrameEvent::Eof | FrameEvent::TornTail { .. } => break,
                    FrameEvent::Corrupt { offset, message } => {
                        panic!("cut={cut}: spurious corruption at {offset}: {message}")
                    }
                }
            }
            assert!(seen <= payloads.len());
        }
    }

    #[test]
    fn bit_flip_is_corruption_not_torn_tail() {
        let buf = framed(&[b"record"]);
        for byte in FRAME_HEADER_LEN..buf.len() {
            let mut bad = buf.clone();
            bad[byte] ^= 0x40;
            let mut f = Frames::new(&bad);
            assert!(
                matches!(f.next_frame(), FrameEvent::Corrupt { .. }),
                "payload flip at byte {byte} undetected"
            );
        }
    }

    #[test]
    fn impossible_length_is_corruption() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&[0; 12]);
        let mut f = Frames::new(&buf);
        match f.next_frame() {
            FrameEvent::Corrupt { message, .. } => {
                assert!(message.contains("length"), "{message}")
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    /// Randomized codec property (Miri-clean: pure in-memory byte
    /// manipulation, no I/O, no clock): arbitrary payload sequences
    /// round-trip exactly, and a random single-byte corruption anywhere
    /// in the buffer is always reported as `Corrupt` or `TornTail` —
    /// never silently accepted, never a panic.
    #[test]
    fn random_payloads_round_trip_and_corruptions_are_caught() {
        use proptest::rng::TestRng;
        for case in 0..16u64 {
            let mut rng = TestRng::for_case("frame_codec", case);
            let payloads: Vec<Vec<u8>> = (0..1 + rng.below(5))
                .map(|_| (0..rng.below(40)).map(|_| rng.below(256) as u8).collect())
                .collect();
            let mut buf = Vec::new();
            for p in &payloads {
                write_frame(&mut buf, p);
            }
            let mut f = Frames::new(&buf);
            for (n, p) in payloads.iter().enumerate() {
                assert_eq!(
                    f.next_frame(),
                    FrameEvent::Frame(p.as_slice()),
                    "case {case}: frame {n}"
                );
            }
            assert_eq!(f.next_frame(), FrameEvent::Eof, "case {case}");

            // Flip one random byte: either a validation failure surfaces
            // or (flips in a later frame) the clean prefix still parses.
            let byte = rng.below(buf.len() as u64) as usize;
            let mut bad = buf.clone();
            bad[byte] ^= 1 << rng.below(8);
            let mut f = Frames::new(&bad);
            let mut clean = 0usize;
            let detected = loop {
                match f.next_frame() {
                    FrameEvent::Frame(_) => clean += 1,
                    FrameEvent::Eof => break false,
                    FrameEvent::TornTail { .. } | FrameEvent::Corrupt { .. } => break true,
                }
            };
            assert!(
                detected,
                "case {case}: flip at byte {byte} went undetected ({clean} clean frames)"
            );
            assert!(clean < payloads.len() + 1, "case {case}");
        }
    }

    #[test]
    fn torn_tail_reports_clean_prefix_offset() {
        let mut buf = framed(&[b"keep me"]);
        let clean = buf.len() as u64;
        buf.extend_from_slice(&[5, 0, 0]); // half a length field
        let mut f = Frames::new(&buf);
        assert!(matches!(f.next_frame(), FrameEvent::Frame(_)));
        assert_eq!(f.next_frame(), FrameEvent::TornTail { offset: clean });
    }
}
