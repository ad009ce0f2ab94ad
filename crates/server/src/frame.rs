//! The wire framing: length-prefixed, CRC-checked payloads.
//!
//! A frame is `payload_len:u32 | crc:u32 | payload`, both integers
//! little-endian and `crc = CRC32(payload)` — deliberately the same
//! layout as a WAL record (`subq_oodb::durable::codec`), and computed
//! with the same CRC32, so one checksum discipline covers both places
//! bytes cross a trust boundary. The payload is UTF-8 protocol text
//! (see [`crate::proto`]).
//!
//! Framing errors are *fatal to the connection*: a declared length over
//! the cap or a checksum mismatch means the byte stream can no longer be
//! trusted to contain frame boundaries at all, so the server sends one
//! typed error reply and closes. Errors *inside* a well-framed payload
//! (bad UTF-8, unparsable request text) are session-survivable and
//! handled a layer up.

use std::fmt;
use std::io::{self, Read, Write};
use subq_oodb::durable::codec::crc32;

/// Bytes of the `len | crc` header.
pub const HEADER_LEN: usize = 8;

/// Default cap on a single payload (1 MiB).
pub const DEFAULT_MAX_PAYLOAD: usize = 1 << 20;

/// A fatal framing error; the connection closes after reporting it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The declared payload length exceeds the negotiated cap.
    TooBig { declared: usize, max: usize },
    /// The payload failed its checksum.
    BadCrc { expected: u32, actual: u32 },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::TooBig { declared, max } => {
                write!(f, "frame of {declared} bytes exceeds the {max}-byte cap")
            }
            FrameError::BadCrc { expected, actual } => {
                write!(
                    f,
                    "frame checksum mismatch: header {expected:#010x}, payload {actual:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Appends one encoded frame to `out`.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    encode_frame_with(out, |out| out.extend_from_slice(payload));
}

/// Appends one frame whose payload `write` appends to `out` in place:
/// the header is reserved first and patched with the payload's length
/// and CRC afterwards, so the payload is never built anywhere else.
pub fn encode_frame_with(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let header = out.len();
    out.extend_from_slice(&[0; HEADER_LEN]);
    write(out);
    let payload = &out[header + HEADER_LEN..];
    let (len, crc) = (payload.len() as u32, crc32(payload));
    out[header..header + 4].copy_from_slice(&len.to_le_bytes());
    out[header + 4..header + HEADER_LEN].copy_from_slice(&crc.to_le_bytes());
}

/// An incremental frame decoder over bytes fed from a socket.
///
/// Feed raw reads through [`FrameDecoder::extend`]; pull complete frames
/// with [`FrameDecoder::next_frame`]. Buffered bytes never exceed the
/// payload cap plus one header plus one read chunk, because a header
/// declaring more is rejected before its payload is awaited.
#[derive(Debug)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    max_payload: usize,
}

impl FrameDecoder {
    pub fn new(max_payload: usize) -> Self {
        FrameDecoder {
            buf: Vec::new(),
            max_payload,
        }
    }

    /// Feeds raw bytes from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (undelivered frames and partial tail).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// The next complete frame's payload, `Ok(None)` when more bytes are
    /// needed, or a fatal [`FrameError`].
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        if self.buf.len() < HEADER_LEN {
            return Ok(None);
        }
        let declared = u32::from_le_bytes(self.buf[0..4].try_into().expect("4 bytes")) as usize;
        if declared > self.max_payload {
            return Err(FrameError::TooBig {
                declared,
                max: self.max_payload,
            });
        }
        let expected = u32::from_le_bytes(self.buf[4..8].try_into().expect("4 bytes"));
        if self.buf.len() < HEADER_LEN + declared {
            return Ok(None);
        }
        let payload = self.buf[HEADER_LEN..HEADER_LEN + declared].to_vec();
        let actual = crc32(&payload);
        if actual != expected {
            return Err(FrameError::BadCrc { expected, actual });
        }
        self.buf.drain(..HEADER_LEN + declared);
        Ok(Some(payload))
    }
}

/// Writes one frame to a blocking transport (client side).
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> io::Result<()> {
    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    encode_frame(payload, &mut bytes);
    w.write_all(&bytes)
}

/// Reads one frame from a blocking transport (client side); framing
/// errors surface as `InvalidData`, a clean peer close as
/// `UnexpectedEof`.
pub fn read_frame<R: Read>(r: &mut R, max_payload: usize) -> io::Result<Vec<u8>> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let declared = u32::from_le_bytes(header[0..4].try_into().expect("4 bytes")) as usize;
    let expected = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
    if declared > max_payload {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameError::TooBig {
                declared,
                max: max_payload,
            },
        ));
    }
    let mut payload = vec![0u8; declared];
    r.read_exact(&mut payload)?;
    let actual = crc32(&payload);
    if actual != expected {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            FrameError::BadCrc { expected, actual },
        ));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_through_the_decoder() {
        let mut wire = Vec::new();
        encode_frame(b"hello", &mut wire);
        encode_frame(b"", &mut wire);
        encode_frame(b"world", &mut wire);
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);
        // Feed byte by byte: every prefix either yields a frame or asks
        // for more — never an error.
        let mut frames = Vec::new();
        for byte in wire {
            decoder.extend(&[byte]);
            while let Some(frame) = decoder.next_frame().expect("well-formed") {
                frames.push(frame);
            }
        }
        assert_eq!(
            frames,
            vec![b"hello".to_vec(), b"".to_vec(), b"world".to_vec()]
        );
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn oversized_length_is_fatal_before_the_payload_arrives() {
        let mut decoder = FrameDecoder::new(16);
        decoder.extend(&1_000_000u32.to_le_bytes());
        decoder.extend(&0u32.to_le_bytes());
        assert!(matches!(
            decoder.next_frame(),
            Err(FrameError::TooBig {
                declared: 1_000_000,
                max: 16
            })
        ));
    }

    #[test]
    fn corrupt_payload_fails_its_checksum() {
        let mut wire = Vec::new();
        encode_frame(b"payload", &mut wire);
        let last = wire.len() - 1;
        wire[last] ^= 0x40;
        let mut decoder = FrameDecoder::new(DEFAULT_MAX_PAYLOAD);
        decoder.extend(&wire);
        assert!(matches!(
            decoder.next_frame(),
            Err(FrameError::BadCrc { .. })
        ));
    }
}
