//! The WAL record codec: one checksummed unit of appended payload.
//!
//! A record on disk is
//!
//! ```text
//!     0        4            4+8          4+8+P        4+8+P+8
//!     +--------+------------+--------------+------------+
//!     | u32 LE |  u64 LE    |   payload    |  u64 LE    |
//!     | len    |  seq       |   (P bytes)  |  fnv1a64x4 |
//!     +--------+------------+--------------+------------+
//!               \_________ body (len bytes) _/
//! ```
//!
//! `len` counts the body (sequence number plus payload); the trailer is
//! `hh-space`'s striped `fnv1a64x4` digest (the one the snapshot codec
//! signs with) of exactly the body bytes. Decoding is fail-closed in the v3
//! snapshot-codec discipline: the length prefix is bounded by
//! [`MAX_RECORD_LEN`] *before* any slice is taken, a short buffer is
//! reported as [`RecordFault::Incomplete`] rather than read past, and a
//! checksum mismatch never yields a byte of payload.
//!
//! The parser deliberately cannot distinguish a torn tail from a
//! corrupted record — a torn write of the length field itself produces
//! arbitrary garbage. The segment scanner makes that call by position:
//! any fault in a **sealed** segment is structural damage (sealed
//! segments were fsynced whole before rotation), while a fault at the
//! tail of the **active** segment is the torn tail a crash legally
//! leaves behind (see [`crate::segment`]).

use hh_space::checksum::fnv1a64x4;

/// Hard ceiling on one record body. An ingest frame is bounded well
/// under this by the server's batch cap; anything larger in a length
/// prefix is damage, not data.
pub const MAX_RECORD_LEN: usize = 1 << 20;

/// Bytes of framing around a record body: the u32 length prefix plus
/// the u64 digest trailer.
pub const RECORD_OVERHEAD: usize = 12;

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
    /// The body is present but its digest trailer does not match.
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
    let digest = fnv1a64x4(&out[body_start..]);
    out.extend_from_slice(&digest.to_le_bytes());
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
    let (body, trailer) = buf[4..total].split_at(body_len);
    let stored = u64::from_le_bytes(trailer.try_into().expect("sized above"));
    if fnv1a64x4(body) != stored {
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

    /// A ~300-byte record whose body (291 bytes) ends in a 3-byte
    /// sub-block tail, so the sweeps below cross the digest's striped
    /// words, its scalar tail, the length prefix and the trailer.
    fn sweep_record() -> Vec<u8> {
        let payload: Vec<u8> = (0..283u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 11) as u8)
            .collect();
        let mut buf = Vec::new();
        encode_record(0x0123_4567_89AB_CDEF, &payload, &mut buf);
        assert_eq!(buf.len(), encoded_len(283));
        buf
    }

    fn small_record() -> Vec<u8> {
        let mut buf = Vec::new();
        encode_record(9, &[1, 2, 3, 4, 5, 6, 7, 8], &mut buf);
        buf
    }

    /// Flips bit `bit` (0 = LSB of byte 0) of `buf`.
    fn flip(buf: &mut [u8], bit: usize) {
        buf[bit / 8] ^= 1 << (bit % 8);
    }

    /// Panics, naming the flipped bits, if `bent` parses as a record.
    fn assert_fault(bent: &[u8], bits: &[usize]) {
        if let Ok((seq, _, used)) = parse_record(bent) {
            let at: Vec<String> = bits
                .iter()
                .map(|b| format!("{b} (byte {})", b / 8))
                .collect();
            panic!(
                "flips of bits {} parsed as seq {seq}, {used} bytes",
                at.join(", ")
            );
        }
    }

    #[test]
    fn every_truncation_is_incomplete_or_bad_length_never_a_panic() {
        // A cut never touches the length prefix's value, so every cut of
        // a valid record — inside the prefix, the body or the trailer —
        // is a short buffer, never a bad length.
        for buf in [small_record(), sweep_record()] {
            for cut in 0..buf.len() {
                assert_eq!(
                    parse_record(&buf[..cut]),
                    Err(RecordFault::Incomplete),
                    "cut at byte {cut} of {}",
                    buf.len()
                );
            }
        }
    }

    #[test]
    fn every_bit_flip_is_caught() {
        for buf in [small_record(), sweep_record()] {
            for bit in 0..buf.len() * 8 {
                let mut bent = buf.clone();
                flip(&mut bent, bit);
                assert_fault(&bent, &[bit]);
            }
        }
    }

    #[test]
    fn two_bit_flips_within_320_bits_or_in_bit_63_of_any_two_words_are_faults() {
        // CRC-32 guaranteed every burst of up to 32 bits; pin ten times
        // that span for the digest that replaced it, over the length,
        // seq, payload and trailer alike. 320 bits reach past the next
        // word of the same digest lane (256 bits on). Bit-63 pairs of
        // body words join at any distance: a lone multiply carries a
        // bit-63 difference through unchanged, so with a plain FNV-1a
        // lane these pairs cancelled, in one lane or across lanes.
        let buf = sweep_record();
        let bits = buf.len() * 8;
        let near = (0..bits).flat_map(|a| (a + 1..=(a + 320).min(bits - 1)).map(move |b| (a, b)));
        let body_words = (buf.len() - RECORD_OVERHEAD) / 8;
        let top_bit = |word: usize| (4 + 8 * word + 7) * 8 + 7;
        let top = (0..body_words)
            .flat_map(|a| (a + 1..body_words).map(move |b| (top_bit(a), top_bit(b))));
        let mut bent = buf.clone();
        for (a, b) in near.chain(top) {
            flip(&mut bent, a);
            flip(&mut bent, b);
            assert_fault(&bent, &[a, b]);
            flip(&mut bent, a);
            flip(&mut bent, b);
        }
        assert_eq!(bent, buf);
    }

    #[test]
    fn a_zero_filled_tail_after_a_record_yields_no_record() {
        // Preallocated or zeroed-by-the-filesystem space past the last
        // write must not read as a record of any length.
        let buf = sweep_record();
        for zeros in 1..=buf.len() {
            let mut padded = buf.clone();
            padded.resize(buf.len() + zeros, 0);
            let (_, _, used) = parse_record(&padded).unwrap();
            assert_eq!(used, buf.len());
            if let Ok((seq, _, n)) = parse_record(&padded[used..]) {
                panic!("{zeros} zero bytes parsed as seq {seq}, {n} bytes");
            }
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
