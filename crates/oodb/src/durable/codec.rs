//! The hand-rolled binary codec of the durable layer.
//!
//! The offline build has no serde, so both on-disk structures are
//! length-prefixed little-endian encodings written by hand:
//!
//! ```text
//! wal        := record*
//! record     := payload_len:u32  crc:u32  payload        crc = CRC32(payload)
//! payload    := start_version:u64  delta_count:u32  delta*
//! delta      := 0:u8 object:u32 name:str      (AddObject — the name the
//!                                              store minted, replayed verbatim)
//!             | 1:u8 object:u32 class:str     (AssertClass)
//!             | 2:u8 object:u32 class:str     (RetractClass)
//!             | 3:u8 from:u32 attr:str to:u32 (AssertAttr)
//!             | 4:u8 from:u32 attr:str to:u32 (RetractAttr)
//! str        := len:u32 utf8-bytes
//! ```
//!
//! A record is trusted only when its header is complete, its length is
//! sane, its CRC matches, and its payload parses to exactly
//! `payload_len` bytes — anything less is a torn or corrupt tail and
//! [`decode_records`] reports where the valid prefix ends instead of
//! guessing.

use crate::maintain::Delta;
use crate::store::ObjId;

/// Records longer than this are rejected as corrupt rather than
/// allocated: no transaction batch comes close (a delta encodes in tens
/// of bytes), so a larger length is a scrambled header.
const MAX_RECORD_LEN: u32 = 1 << 28;

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic bytewise table,
/// and `CRC_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so eight table lookups fold one 8-byte word.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC_POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), eight bytes per step.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let lo = crc ^ u32::from_le_bytes([word[0], word[1], word[2], word[3]]);
        let hi = u32::from_le_bytes([word[4], word[5], word[6], word[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &byte in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ byte as u32) & 0xFF) as usize];
    }
    !crc
}

// ---- primitive writers ----

pub(crate) fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, value: &str) {
    put_u32(out, value.len() as u32);
    out.extend_from_slice(value.as_bytes());
}

pub(crate) fn put_bytes(out: &mut Vec<u8>, value: &[u8]) {
    put_u32(out, value.len() as u32);
    out.extend_from_slice(value);
}

/// A bounds-checked reader over an encoded slice; every getter returns
/// `None` past the end, so decoders propagate truncation instead of
/// panicking.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Cursor { bytes, pos: 0 }
    }

    pub(crate) fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.bytes.len() {
            return None;
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Some(slice)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|b| b[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    pub(crate) fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    pub(crate) fn bytes(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// One committed transaction as the WAL stores it: the data version the
/// state was at when the transaction began, and its effective deltas.
/// `AddObject` deltas carry the minted name (the in-memory [`Delta`]
/// does not — the store owns the name table), so replay can re-create
/// the object under its original name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WalRecord {
    /// `data_version` before the first delta; the record advances the
    /// state to `start_version + deltas.len()`.
    pub start_version: u64,
    /// The deltas with the `AddObject` names recorded at commit time.
    pub deltas: Vec<(Delta, Option<String>)>,
}

fn put_delta(out: &mut Vec<u8>, delta: &Delta, name: Option<&str>) {
    match delta {
        Delta::AddObject { object } => {
            out.push(0);
            put_u32(out, object.0);
            put_str(out, name.expect("AddObject deltas carry their name"));
        }
        Delta::AssertClass { object, class } => {
            out.push(1);
            put_u32(out, object.0);
            put_str(out, class);
        }
        Delta::RetractClass { object, class } => {
            out.push(2);
            put_u32(out, object.0);
            put_str(out, class);
        }
        Delta::AssertAttr {
            from,
            attribute,
            to,
        } => {
            out.push(3);
            put_u32(out, from.0);
            put_str(out, attribute);
            put_u32(out, to.0);
        }
        Delta::RetractAttr {
            from,
            attribute,
            to,
        } => {
            out.push(4);
            put_u32(out, from.0);
            put_str(out, attribute);
            put_u32(out, to.0);
        }
    }
}

fn get_delta(cursor: &mut Cursor<'_>) -> Option<(Delta, Option<String>)> {
    let tag = cursor.u8()?;
    Some(match tag {
        0 => {
            let object = ObjId(cursor.u32()?);
            let name = cursor.str()?;
            (Delta::AddObject { object }, Some(name))
        }
        1 => (
            Delta::AssertClass {
                object: ObjId(cursor.u32()?),
                class: cursor.str()?,
            },
            None,
        ),
        2 => (
            Delta::RetractClass {
                object: ObjId(cursor.u32()?),
                class: cursor.str()?,
            },
            None,
        ),
        3 => (
            Delta::AssertAttr {
                from: ObjId(cursor.u32()?),
                attribute: cursor.str()?,
                to: ObjId(cursor.u32()?),
            },
            None,
        ),
        4 => (
            Delta::RetractAttr {
                from: ObjId(cursor.u32()?),
                attribute: cursor.str()?,
                to: ObjId(cursor.u32()?),
            },
            None,
        ),
        _ => return None,
    })
}

/// Appends one framed record (length, CRC, payload) to `out`.
pub fn encode_record(record: &WalRecord, out: &mut Vec<u8>) {
    let mut payload = Vec::new();
    put_u64(&mut payload, record.start_version);
    put_u32(&mut payload, record.deltas.len() as u32);
    for (delta, name) in &record.deltas {
        put_delta(&mut payload, delta, name.as_deref());
    }
    put_u32(out, payload.len() as u32);
    put_u32(out, crc32(&payload));
    out.extend_from_slice(&payload);
}

fn decode_payload(payload: &[u8]) -> Option<WalRecord> {
    let mut cursor = Cursor::new(payload);
    let start_version = cursor.u64()?;
    let count = cursor.u32()? as usize;
    let mut deltas = Vec::with_capacity(count.min(1 << 16));
    for _ in 0..count {
        deltas.push(get_delta(&mut cursor)?);
    }
    cursor.done().then_some(WalRecord {
        start_version,
        deltas,
    })
}

/// Every well-formed record from the front of `bytes`, plus the byte
/// length of that valid prefix. `bytes[valid_len..]` — a torn append,
/// a bit flip, or garbage — is the tail recovery truncates. The second
/// return is `bytes.len()` exactly when the whole log parsed.
pub fn decode_records(bytes: &[u8]) -> (Vec<WalRecord>, usize) {
    let mut records = Vec::new();
    let mut offset = 0usize;
    loop {
        let rest = &bytes[offset..];
        if rest.len() < 8 {
            break;
        }
        let payload_len = u32::from_le_bytes(rest[..4].try_into().expect("4 bytes"));
        let crc = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
        if payload_len > MAX_RECORD_LEN {
            break;
        }
        let end = 8 + payload_len as usize;
        if rest.len() < end {
            break;
        }
        let payload = &rest[8..end];
        if crc32(payload) != crc {
            break;
        }
        let Some(record) = decode_payload(payload) else {
            break;
        };
        records.push(record);
        offset += end;
    }
    (records, offset)
}

/// The byte offsets of the record boundaries in a WAL: `boundaries[0]`
/// is 0 and `boundaries[i]` is where record `i` starts (equivalently,
/// where record `i-1` ends); the final entry is the end of the valid
/// prefix. Crash-point scripting cuts and perturbs the log at and
/// around these offsets.
pub fn record_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut boundaries = vec![0usize];
    let mut offset = 0usize;
    while bytes.len() - offset >= 8 {
        let payload_len =
            u32::from_le_bytes(bytes[offset..offset + 4].try_into().expect("4 bytes"));
        if payload_len > MAX_RECORD_LEN {
            break;
        }
        let end = offset + 8 + payload_len as usize;
        if end > bytes.len() {
            break;
        }
        offset = end;
        boundaries.push(offset);
    }
    boundaries
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord {
                start_version: 0,
                deltas: vec![
                    (Delta::AddObject { object: ObjId(0) }, Some("mary".into())),
                    (
                        Delta::AssertClass {
                            object: ObjId(0),
                            class: "Patient".into(),
                        },
                        None,
                    ),
                ],
            },
            WalRecord {
                start_version: 2,
                deltas: vec![
                    (
                        Delta::AssertAttr {
                            from: ObjId(0),
                            attribute: "suffers".into(),
                            to: ObjId(1),
                        },
                        None,
                    ),
                    (
                        Delta::RetractAttr {
                            from: ObjId(0),
                            attribute: "suffers".into(),
                            to: ObjId(1),
                        },
                        None,
                    ),
                    (
                        Delta::RetractClass {
                            object: ObjId(0),
                            class: "Patient".into(),
                        },
                        None,
                    ),
                ],
            },
        ]
    }

    #[test]
    fn records_roundtrip_and_boundaries_frame_them() {
        let records = sample_records();
        let mut bytes = Vec::new();
        for record in &records {
            encode_record(record, &mut bytes);
        }
        let (decoded, valid) = decode_records(&bytes);
        assert_eq!(decoded, records);
        assert_eq!(valid, bytes.len());
        let boundaries = record_boundaries(&bytes);
        assert_eq!(boundaries.len(), 3);
        assert_eq!(boundaries[0], 0);
        assert_eq!(*boundaries.last().expect("nonempty"), bytes.len());
        // Each boundary is a valid decode split point.
        let (head, valid) = decode_records(&bytes[..boundaries[1]]);
        assert_eq!(head, records[..1]);
        assert_eq!(valid, boundaries[1]);
    }

    #[test]
    fn every_truncation_point_yields_a_clean_record_prefix() {
        let records = sample_records();
        let mut bytes = Vec::new();
        for record in &records {
            encode_record(record, &mut bytes);
        }
        let boundaries = record_boundaries(&bytes);
        for cut in 0..=bytes.len() {
            let (decoded, valid) = decode_records(&bytes[..cut]);
            // The valid prefix is the greatest record boundary ≤ cut.
            let expected = boundaries.iter().rev().find(|&&b| b <= cut).copied();
            assert_eq!(Some(valid), expected, "cut at {cut}");
            let whole = boundaries
                .iter()
                .position(|&b| b == valid)
                .expect("boundary");
            assert_eq!(decoded.len(), whole, "cut at {cut}");
            assert_eq!(decoded[..], records[..whole], "cut at {cut}");
        }
    }

    #[test]
    fn bit_flips_anywhere_invalidate_exactly_the_hit_record() {
        let records = sample_records();
        let mut bytes = Vec::new();
        for record in &records {
            encode_record(record, &mut bytes);
        }
        let boundaries = record_boundaries(&bytes);
        for offset in 0..bytes.len() {
            let mut corrupted = bytes.clone();
            corrupted[offset] ^= 0x10;
            let (decoded, valid) = decode_records(&corrupted);
            // Records before the flipped byte survive; the hit record
            // and everything after are rejected. (A flipped length
            // field may also swallow the rest — still only a shorter
            // prefix, never garbage decoded as data.)
            let hit = boundaries.iter().rev().find(|&&b| b <= offset).copied();
            assert!(valid <= hit.expect("boundary"), "flip at {offset}");
            assert!(decoded.len() < records.len(), "flip at {offset}");
            for (d, r) in decoded.iter().zip(&records) {
                assert_eq!(d, r, "flip at {offset}");
            }
        }
    }

    #[test]
    fn insane_lengths_and_bad_tags_are_rejected() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, MAX_RECORD_LEN + 1);
        put_u32(&mut bytes, 0);
        bytes.extend_from_slice(&[0u8; 64]);
        assert_eq!(decode_records(&bytes).1, 0);
        assert_eq!(record_boundaries(&bytes), vec![0]);

        // A payload with a valid CRC but an unknown delta tag.
        let mut payload = Vec::new();
        put_u64(&mut payload, 7);
        put_u32(&mut payload, 1);
        payload.push(9); // no such tag
        let mut framed = Vec::new();
        put_u32(&mut framed, payload.len() as u32);
        put_u32(&mut framed, crc32(&payload));
        framed.extend_from_slice(&payload);
        let (records, valid) = decode_records(&framed);
        assert!(records.is_empty());
        assert_eq!(valid, 0);
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// One step of the bytewise CRC-32 loop, kept as the oracle of the
    /// sliced one.
    fn crc32_byte(crc: u32, byte: u8) -> u32 {
        (crc >> 8) ^ CRC_TABLES[0][((crc ^ byte as u32) & 0xFF) as usize]
    }

    #[test]
    fn sliced_crc32_matches_the_bytewise_loop_at_every_length_and_offset() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..4096 + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state as u8
            })
            .collect();
        assert_eq!(
            !b"123456789".iter().fold(!0, |crc, &b| crc32_byte(crc, b)),
            0xCBF4_3926
        );
        for offset in 0..8 {
            // The bytewise state runs along the buffer, so the oracle of
            // every prefix costs one step.
            let mut oracle = !0u32;
            for len in 0..=4096 {
                let slice = &bytes[offset..offset + len];
                assert_eq!(crc32(slice), !oracle, "offset {offset}, length {len}");
                oracle = crc32_byte(oracle, bytes[offset + len]);
            }
        }
    }
}
