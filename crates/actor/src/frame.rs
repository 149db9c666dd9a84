//! Length-prefixed, CRC-checked framing for byte-stream transports.
//!
//! TCP delivers a byte stream, not messages; a transport that ships
//! [`crate::wire`]-encoded messages over it needs a framing layer that
//! (a) finds message boundaries, (b) detects torn or corrupted frames
//! *before* handing bytes to the codec, and (c) refuses to allocate
//! unbounded memory on an adversarial or garbled length prefix. This
//! module is that layer, shared by the live TCP backend and its
//! deterministic fault-injection tests.
//!
//! # Frame layout
//!
//! ```text
//! [payload_len: u32 LE] [payload bytes] [crc32(payload): u32 LE]
//! ```
//!
//! The CRC (IEEE 802.3, [`crate::crc32`]) covers the payload only; a
//! mismatch means the stream is corrupt and the connection carrying it
//! must be torn down — once framing is lost there is no way to resync a
//! length-prefixed stream. [`FrameDecoder`] therefore returns a hard
//! [`FrameError`] (rather than skipping bytes) on any malformed input;
//! torn *tails* (a prefix of a valid frame) are simply incomplete and
//! yield `None` until more bytes arrive.
//!
//! # Example
//!
//! ```
//! use mcpaxos_actor::frame::{encode_frame, FrameDecoder};
//!
//! let mut wire = Vec::new();
//! encode_frame(b"hello", &mut wire).unwrap();
//! encode_frame(b"world", &mut wire).unwrap();
//!
//! let mut dec = FrameDecoder::new();
//! dec.push(&wire[..7]); // torn mid-frame: not ready yet
//! assert_eq!(dec.next_frame().unwrap(), None);
//! dec.push(&wire[7..]);
//! assert_eq!(dec.next_frame().unwrap().as_deref(), Some(&b"hello"[..]));
//! assert_eq!(dec.next_frame().unwrap().as_deref(), Some(&b"world"[..]));
//! assert_eq!(dec.next_frame().unwrap(), None);
//! ```

use crate::storage::crc32;
use std::fmt;

/// Fixed per-frame overhead: the length prefix plus the CRC trailer.
pub const FRAME_OVERHEAD: u64 = 8;

/// Default ceiling on a single frame's payload (16 MiB). Protocol
/// messages are far smaller; anything claiming more is a corrupt or
/// hostile length prefix and must not drive an allocation.
pub const MAX_FRAME_PAYLOAD: u32 = 16 * 1024 * 1024;

/// Error produced by framing or deframing malformed data.
///
/// Any error from [`FrameDecoder`] means the *stream* (not just one
/// frame) is unusable: the caller should close the connection and let
/// supervision re-establish it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameError {
    /// Human-readable description of what was malformed.
    pub what: &'static str,
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "frame error: {}", self.what)
    }
}

impl std::error::Error for FrameError {}

/// Appends one frame carrying `payload` to `out`.
///
/// # Errors
///
/// Returns [`FrameError`] if `payload` exceeds [`MAX_FRAME_PAYLOAD`]
/// (the receiving decoder would reject it anyway; senders should drop
/// the message and count the failure instead of shipping it).
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_PAYLOAD as usize {
        return Err(FrameError {
            what: "payload exceeds max frame size",
        });
    }
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    Ok(())
}

/// Incremental deframer over an arbitrary chunking of the byte stream.
///
/// Feed raw bytes with [`FrameDecoder::push`]; drain complete frames
/// with [`FrameDecoder::next_frame`]. The decoder owns a single buffer
/// whose consumed prefix is compacted away, so memory stays bounded by
/// one partial frame plus whatever was pushed but not yet drained.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    at: usize,
    max_payload: u32,
}

impl FrameDecoder {
    /// A decoder enforcing the default [`MAX_FRAME_PAYLOAD`].
    pub fn new() -> Self {
        Self::with_max_payload(MAX_FRAME_PAYLOAD)
    }

    /// A decoder rejecting payloads above `max_payload` bytes.
    pub fn with_max_payload(max_payload: u32) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            at: 0,
            max_payload,
        }
    }

    /// Appends raw stream bytes to the decode buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact the consumed prefix before growing: keeps the buffer
        // bounded by the unconsumed remainder.
        if self.at > 0 {
            self.buf.drain(..self.at);
            self.at = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Extracts the next complete frame's payload, `Ok(None)` when the
    /// buffered bytes end mid-frame (a torn tail — push more and retry).
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] when the stream is unrecoverable: a length
    /// prefix above the configured maximum, or a payload whose CRC does
    /// not match. The caller must discard the connection; subsequent
    /// calls keep failing.
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        let rest = &self.buf[self.at..];
        if rest.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
        if len > self.max_payload {
            return Err(FrameError {
                what: "length prefix exceeds max frame size",
            });
        }
        let total = 4 + len as usize + 4;
        if rest.len() < total {
            return Ok(None);
        }
        let payload = &rest[4..4 + len as usize];
        let stored = u32::from_le_bytes(rest[4 + len as usize..total].try_into().unwrap());
        if crc32(payload) != stored {
            return Err(FrameError {
                what: "frame crc mismatch",
            });
        }
        let out = payload.to_vec();
        self.at += total;
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        encode_frame(payload, &mut out).unwrap();
        out
    }

    #[test]
    fn roundtrip_over_any_chunking() {
        let payloads: Vec<Vec<u8>> = vec![vec![], vec![7], (0..=255).collect(), vec![0; 1000]];
        let mut wire = Vec::new();
        for p in &payloads {
            encode_frame(p, &mut wire).unwrap();
        }
        for chunk in [1usize, 3, 7, wire.len()] {
            let mut dec = FrameDecoder::new();
            let mut got = Vec::new();
            for piece in wire.chunks(chunk) {
                dec.push(piece);
                while let Some(f) = dec.next_frame().unwrap() {
                    got.push(f);
                }
            }
            assert_eq!(got, payloads, "chunk size {chunk}");
        }
    }

    #[test]
    fn torn_tail_is_incomplete_not_an_error() {
        let wire = frame(b"abcdef");
        for cut in 0..wire.len() {
            let mut dec = FrameDecoder::new();
            dec.push(&wire[..cut]);
            assert_eq!(dec.next_frame().unwrap(), None, "cut at {cut}");
        }
    }

    #[test]
    fn flipped_byte_fails_crc() {
        let wire = frame(b"payload bytes");
        // Flip every payload/CRC byte position in turn; each must surface
        // as an error, never as a different payload. (Flipping a *length*
        // byte may instead look torn — covered by the oversize test.)
        for i in 4..wire.len() {
            let mut bad = wire.clone();
            bad[i] ^= 0x01;
            let mut dec = FrameDecoder::new();
            dec.push(&bad);
            assert!(
                dec.next_frame().is_err(),
                "flip at {i} must not decode cleanly"
            );
        }
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocation() {
        let mut dec = FrameDecoder::new();
        dec.push(&u32::MAX.to_le_bytes());
        assert_eq!(
            dec.next_frame().unwrap_err().what,
            "length prefix exceeds max frame size"
        );
    }

    #[test]
    fn encoder_rejects_oversized_payload() {
        let mut dec = FrameDecoder::with_max_payload(8);
        let mut out = Vec::new();
        encode_frame(b"123456789", &mut out).unwrap();
        dec.push(&out);
        assert!(dec.next_frame().is_err());

        let big = vec![0u8; MAX_FRAME_PAYLOAD as usize + 1];
        let mut out = Vec::new();
        assert!(encode_frame(&big, &mut out).is_err());
        assert!(out.is_empty());
    }

    #[test]
    fn overhead_constant_matches_layout() {
        let wire = frame(b"xyz");
        assert_eq!(wire.len() as u64, 3 + FRAME_OVERHEAD);
    }
}
