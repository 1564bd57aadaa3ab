//! The WAL record codec: one checksummed unit of appended payload.
//!
//! A record on disk is
//!
//! ```text
//!     0        4            4+8          4+8+P        4+8+P+4
//!     +--------+------------+--------------+------------+
//!     | u32 LE |  u64 LE    |   payload    |  u32 LE    |
//!     | len    |  seq       |   (P bytes)  |  crc32     |
//!     +--------+------------+--------------+------------+
//!               \_________ body (len bytes) _/
//! ```
//!
//! `len` counts the body (sequence number plus payload); the crc32
//! trailer (the same IEEE-reflected table `hh-space` uses for its
//! snapshot checksums) covers exactly the body bytes. Decoding is
//! fail-closed in the v3 snapshot-codec discipline: the length prefix
//! is bounded by [`MAX_RECORD_LEN`] *before* any slice is taken, a
//! short buffer is reported as [`RecordFault::Incomplete`] rather than
//! read past, and a checksum mismatch never yields a byte of payload.
//!
//! The parser deliberately cannot distinguish a torn tail from a
//! corrupted record — a torn write of the length field itself produces
//! arbitrary garbage. The segment scanner makes that call by position:
//! any fault in a **sealed** segment is structural damage (sealed
//! segments were fsynced whole before rotation), while a fault at the
//! tail of the **active** segment is the torn tail a crash legally
//! leaves behind (see [`crate::segment`]).

use hh_space::checksum::crc32;

/// Hard ceiling on one record body. An ingest frame is bounded well
/// under this by the server's batch cap; anything larger in a length
/// prefix is damage, not data.
pub const MAX_RECORD_LEN: usize = 1 << 20;

/// Bytes of framing around a record body: the u32 length prefix plus
/// the u32 crc32 trailer.
pub const RECORD_OVERHEAD: usize = 8;

/// The body's fixed prefix: the u64 sequence number.
const SEQ_LEN: usize = 8;

/// One decoded record, owning a copy of its payload (what the
/// collecting replay adapters return; the scan itself lends payloads).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Monotone sequence number (assigned by the log at append).
    pub seq: u64,
    /// Opaque payload bytes (the caller's encoding).
    pub payload: Vec<u8>,
}

/// Why a buffer position does not parse as a complete record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordFault {
    /// Fewer bytes remain than the record (or its framing) needs. At
    /// the tail of an active segment this is the normal torn write.
    Incomplete,
    /// The length prefix is outside `(SEQ_LEN..=MAX_RECORD_LEN)` — it
    /// cannot be a real record under any completion of the buffer.
    BadLength(u32),
    /// The body is present but its crc32 trailer does not match.
    Checksum,
}

impl std::fmt::Display for RecordFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Incomplete => write!(f, "record truncated mid-write"),
            Self::BadLength(len) => write!(f, "record length {len} outside any legal record"),
            Self::Checksum => write!(f, "record checksum mismatch"),
        }
    }
}

/// The on-disk byte length of a record carrying `payload_len` payload
/// bytes.
pub fn encoded_len(payload_len: usize) -> usize {
    RECORD_OVERHEAD + SEQ_LEN + payload_len
}

/// Appends the encoding of `(seq, payload)` to `out`.
///
/// # Panics
/// If `payload` would overflow [`MAX_RECORD_LEN`] — the caller bounds
/// payloads (the server's frame caps are far below this).
pub fn encode_record(seq: u64, payload: &[u8], out: &mut Vec<u8>) {
    let body_len = SEQ_LEN + payload.len();
    assert!(
        body_len <= MAX_RECORD_LEN,
        "record payload of {} bytes exceeds the {MAX_RECORD_LEN}-byte ceiling",
        payload.len()
    );
    out.reserve(RECORD_OVERHEAD + body_len);
    out.extend_from_slice(&(body_len as u32).to_le_bytes());
    let body_start = out.len();
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out[body_start..]);
    out.extend_from_slice(&crc.to_le_bytes());
}

/// Parses one record at the start of `buf`. Returns its sequence
/// number, its payload (borrowed from `buf`, never copied) and the bytes
/// it consumed, or the structured fault that stopped it.
pub fn parse_record(buf: &[u8]) -> Result<(u64, &[u8], usize), RecordFault> {
    if buf.len() < 4 {
        return Err(RecordFault::Incomplete);
    }
    let body_len = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
    // Bound the length before any arithmetic sizes an access from it.
    if (body_len as usize) < SEQ_LEN || body_len as usize > MAX_RECORD_LEN {
        return Err(RecordFault::BadLength(body_len));
    }
    let body_len = body_len as usize;
    let total = RECORD_OVERHEAD + body_len;
    if buf.len() < total {
        return Err(RecordFault::Incomplete);
    }
    let body = &buf[4..4 + body_len];
    let stored = u32::from_le_bytes([
        buf[4 + body_len],
        buf[4 + body_len + 1],
        buf[4 + body_len + 2],
        buf[4 + body_len + 3],
    ]);
    if crc32(body) != stored {
        return Err(RecordFault::Checksum);
    }
    let seq = u64::from_le_bytes(body[..SEQ_LEN].try_into().expect("bounded above"));
    Ok((seq, &body[SEQ_LEN..], total))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_preserves_seq_and_payload() {
        let mut buf = Vec::new();
        encode_record(7, b"hello", &mut buf);
        encode_record(8, &[], &mut buf);
        let (seq, payload, used) = parse_record(&buf).unwrap();
        assert_eq!(seq, 7);
        assert_eq!(payload, b"hello");
        assert_eq!(used, encoded_len(5));
        let (seq2, payload2, used2) = parse_record(&buf[used..]).unwrap();
        assert_eq!(seq2, 8);
        assert!(payload2.is_empty());
        assert_eq!(used + used2, buf.len());
    }

    #[test]
    fn every_truncation_is_incomplete_or_bad_length_never_a_panic() {
        let mut buf = Vec::new();
        encode_record(42, &[0xAB; 33], &mut buf);
        for cut in 0..buf.len() {
            match parse_record(&buf[..cut]) {
                Err(RecordFault::Incomplete | RecordFault::BadLength(_)) => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn every_bit_flip_is_caught() {
        let mut buf = Vec::new();
        encode_record(9, &[1, 2, 3, 4, 5, 6, 7, 8], &mut buf);
        for i in 0..buf.len() {
            let mut bent = buf.clone();
            bent[i] ^= 0x20;
            assert!(
                parse_record(&bent).is_err(),
                "flip at byte {i} slipped through"
            );
        }
    }

    #[test]
    fn hostile_length_is_rejected_before_any_slice() {
        let mut evil = (u32::MAX).to_le_bytes().to_vec();
        evil.extend_from_slice(&[0u8; 64]);
        assert_eq!(
            parse_record(&evil).unwrap_err(),
            RecordFault::BadLength(u32::MAX)
        );
        // A length below the seq prefix is equally impossible.
        let mut tiny = 4u32.to_le_bytes().to_vec();
        tiny.extend_from_slice(&[0u8; 64]);
        assert_eq!(parse_record(&tiny).unwrap_err(), RecordFault::BadLength(4));
    }
}
