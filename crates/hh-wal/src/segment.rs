//! Segment files: the header format, naming, and the fail-closed scan.
//!
//! A segment is `seg-<first_seq, 20 digits>.wal`: a 30-byte header
//! followed by records ([`crate::record`]). The header is
//!
//! ```text
//!     0                 14          22           30
//!     +-----------------+-----------+------------+
//!     | magic           | u64 LE    | u64 LE     |
//!     | hh.wal.seg.v2\n | first_seq | fnv1a64x4  |
//!     +-----------------+-----------+------------+
//! ```
//!
//! with the digest covering magic plus first_seq. The zero-padded
//! decimal name makes lexical directory order equal sequence order.
//!
//! There is one format: a v1 segment (`hh.wal.seg.v1\n`, CRC-32
//! trailers) is refused by name, never read (DESIGN §14.1).
//!
//! # Torn tail vs structural damage
//!
//! The scan applies the WAL's central distinction:
//!
//! * A **sealed** segment (any segment that is not the last) was
//!   fsynced in full before its successor was created. Every byte of
//!   it must parse; any fault is structural damage and fails the scan.
//! * The **active** (last) segment may legally end mid-record — a
//!   crash tears the tail. The scan stops at the first fault, reports
//!   the valid prefix length so the caller can truncate the file, and
//!   counts the discarded bytes. Damage *before* the tail looks
//!   identical to a torn tail from this side, which is exactly why
//!   acked durability is defined by the fsync boundary, not by what a
//!   later scan salvages.
//!
//! Sequence numbers are strictly consecutive: the first record must
//! carry the header's `first_seq`, and every record increments by one.
//! A gap or regression is structural (records are appended under one
//! lock; nothing can legally skip).
//!
//! # Streaming
//!
//! The scan copies nothing: each record's payload is lent to a visitor
//! straight out of the segment buffer, after its checksum and
//! continuity checks pass. A visitor that rejects a payload stops the
//! scan with an error, exactly like damage would.

use crate::record::parse_record;
use hh_space::checksum::fnv1a64x4;

/// Magic prefix of every segment file.
pub const SEGMENT_MAGIC: &[u8; 14] = b"hh.wal.seg.v2\n";

/// Magic of the retired v1 format, recognised only to name it in the
/// refusal.
const V1_SEGMENT_MAGIC: &[u8; 14] = b"hh.wal.seg.v1\n";

/// Byte length of the segment header.
pub const SEGMENT_HEADER_LEN: usize = 30;

/// Builds the file name for the segment whose first record is
/// `first_seq`.
pub fn segment_file_name(first_seq: u64) -> String {
    format!("seg-{first_seq:020}.wal")
}

/// Parses a segment file name back to its `first_seq`, if it is one.
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("seg-")?.strip_suffix(".wal")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Encodes the 30-byte segment header.
pub fn encode_header(first_seq: u64) -> [u8; SEGMENT_HEADER_LEN] {
    let mut out = [0u8; SEGMENT_HEADER_LEN];
    out[..14].copy_from_slice(SEGMENT_MAGIC);
    out[14..22].copy_from_slice(&first_seq.to_le_bytes());
    let digest = fnv1a64x4(&out[..22]);
    out[22..].copy_from_slice(&digest.to_le_bytes());
    out
}

/// Verifies a header and returns its `first_seq`.
pub fn decode_header(bytes: &[u8]) -> Result<u64, String> {
    if bytes.starts_with(V1_SEGMENT_MAGIC) {
        return Err("segment written by the v1 (CRC-32) WAL format; only v2 is read".into());
    }
    if bytes.len() < SEGMENT_HEADER_LEN {
        return Err(format!(
            "segment header truncated at {} of {SEGMENT_HEADER_LEN} bytes",
            bytes.len()
        ));
    }
    if &bytes[..14] != SEGMENT_MAGIC {
        return Err("segment magic mismatch".to_string());
    }
    let stored = u64::from_le_bytes(bytes[22..30].try_into().expect("sized above"));
    if fnv1a64x4(&bytes[..22]) != stored {
        return Err("segment header checksum mismatch".to_string());
    }
    Ok(u64::from_le_bytes(
        bytes[14..22].try_into().expect("sized above"),
    ))
}

/// What a segment scan found.
#[derive(Debug)]
pub struct SegmentScan {
    /// Records handed to the visitor, sequence numbers consecutive from
    /// the header.
    pub records: u64,
    /// Bytes of the file that parsed cleanly (header plus whole
    /// records). For an active segment with a torn tail this is where
    /// the file should be truncated before appending resumes.
    pub valid_len: u64,
    /// Bytes past `valid_len` that were discarded (torn tail). Always
    /// zero for sealed segments (damage there fails the scan instead).
    pub discarded_bytes: u64,
}

/// Scans one segment's bytes, calling `visit(seq, payload)` for every
/// record in order once its checksum and sequence continuity check out.
/// `sealed` selects the damage policy (see the module docs);
/// `expect_first` is the sequence number continuity requires of the
/// header.
///
/// # Errors
/// A description of the damage, or the visitor's own error (prefixed
/// with the record's sequence number). Records before the failure point
/// have already been visited.
pub fn scan_segment(
    bytes: &[u8],
    sealed: bool,
    expect_first: u64,
    mut visit: impl FnMut(u64, &[u8]) -> Result<(), String>,
) -> Result<SegmentScan, String> {
    let first_seq = decode_header(bytes)?;
    if first_seq != expect_first {
        return Err(format!(
            "segment claims first seq {first_seq} but continuity requires {expect_first}"
        ));
    }
    let mut off = SEGMENT_HEADER_LEN;
    let mut next_seq = first_seq;
    while off < bytes.len() {
        match parse_record(&bytes[off..]) {
            Ok((seq, payload, used)) => {
                if seq != next_seq {
                    return Err(format!(
                        "record seq {seq} where continuity requires {next_seq}"
                    ));
                }
                visit(seq, payload).map_err(|e| format!("record {seq} rejected: {e}"))?;
                next_seq += 1;
                off += used;
            }
            Err(fault) => {
                if sealed {
                    return Err(format!("sealed segment damaged at byte {off}: {fault}"));
                }
                break;
            }
        }
    }
    Ok(SegmentScan {
        records: next_seq - first_seq,
        valid_len: off as u64,
        discarded_bytes: (bytes.len() - off) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{encode_record, Record};

    /// Scans and collects the visited records.
    fn collect(
        bytes: &[u8],
        sealed: bool,
        expect_first: u64,
    ) -> Result<(SegmentScan, Vec<Record>), String> {
        let mut seen = Vec::new();
        let scan = scan_segment(bytes, sealed, expect_first, |seq, p| {
            seen.push(Record {
                seq,
                payload: p.to_vec(),
            });
            Ok(())
        })?;
        Ok((scan, seen))
    }

    fn segment_bytes(first_seq: u64, payloads: &[&[u8]]) -> Vec<u8> {
        let mut buf = encode_header(first_seq).to_vec();
        for (i, p) in payloads.iter().enumerate() {
            encode_record(first_seq + i as u64, p, &mut buf);
        }
        buf
    }

    #[test]
    fn names_sort_in_sequence_order_and_parse_back() {
        let names: Vec<String> = [1u64, 9, 10, 4_000_000_007]
            .iter()
            .map(|&s| segment_file_name(s))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(sorted, names);
        for (name, &seq) in names.iter().zip(&[1u64, 9, 10, 4_000_000_007]) {
            assert_eq!(parse_segment_file_name(name), Some(seq));
        }
        assert_eq!(parse_segment_file_name("seg-12.wal"), None);
        assert_eq!(parse_segment_file_name("spec.hhs"), None);
    }

    #[test]
    fn clean_scan_returns_consecutive_records() {
        let buf = segment_bytes(5, &[b"a", b"bb", b"ccc"]);
        let (scan, seen) = collect(&buf, true, 5).unwrap();
        assert_eq!(scan.records, 3);
        assert_eq!((seen[2].seq, seen[2].payload.as_slice()), (7, &b"ccc"[..]));
        assert_eq!(scan.valid_len, buf.len() as u64);
        assert_eq!(scan.discarded_bytes, 0);
    }

    #[test]
    fn torn_tail_truncates_in_active_but_fails_sealed() {
        let whole = segment_bytes(1, &[b"first", b"second"]);
        let first_end = {
            let one = segment_bytes(1, &[b"first"]);
            one.len()
        };
        for cut in first_end + 1..whole.len() {
            let torn = &whole[..cut];
            let (scan, _) = collect(torn, false, 1).unwrap();
            assert_eq!(scan.records, 1, "cut at {cut}");
            assert_eq!(scan.valid_len as usize, first_end);
            assert_eq!(scan.discarded_bytes as usize, cut - first_end);
            assert!(collect(torn, true, 1).is_err(), "sealed cut at {cut}");
        }
    }

    #[test]
    fn header_damage_and_seq_gaps_are_structural_everywhere() {
        let mut buf = segment_bytes(3, &[b"x"]);
        buf[2] ^= 0x01;
        assert!(collect(&buf, false, 3).is_err());

        // A record claiming the wrong seq is a gap, not a torn tail.
        let mut gap = encode_header(1).to_vec();
        encode_record(2, b"skipped one", &mut gap);
        assert!(collect(&gap, false, 1).is_err());

        // Continuity with the previous segment is enforced.
        let fine = segment_bytes(9, &[b"y"]);
        assert!(collect(&fine, true, 8).is_err());
        assert!(collect(&fine, true, 9).is_ok());
    }

    #[test]
    fn a_rejecting_visitor_stops_the_scan_after_the_records_before_it() {
        let buf = segment_bytes(1, &[b"ok", b"bad", b"never"]);
        let mut seen = Vec::new();
        let err = scan_segment(&buf, false, 1, |seq, p| {
            if p == b"bad" {
                return Err("payload refused".to_string());
            }
            seen.push(seq);
            Ok(())
        })
        .unwrap_err();
        assert!(
            err.contains("record 2") && err.contains("payload refused"),
            "{err}"
        );
        assert_eq!(
            seen,
            vec![1],
            "the record after the rejection is never visited"
        );
    }

    #[test]
    fn the_committed_v2_segment_is_what_the_encoder_writes_and_scans_identically() {
        // Committed bytes of a 3-record segment (first seq 7) written by
        // the v2 encoder: the on-disk format must not drift.
        let fixture: &[u8] = include_bytes!("../fixtures/seg-00000000000000000007.wal");
        let payloads: [&[u8]; 3] = [b"", b"heavy hitters", &[0xA5; 300]];
        assert_eq!(segment_bytes(7, &payloads), fixture, "encoder drifted");
        let (scan, seen) = collect(fixture, true, 7).unwrap();
        assert_eq!(scan.records, 3);
        assert_eq!(scan.valid_len, fixture.len() as u64);
        for (i, rec) in seen.iter().enumerate() {
            assert_eq!(
                (rec.seq, rec.payload.as_slice()),
                (7 + i as u64, payloads[i])
            );
        }
    }

    #[test]
    fn a_v1_segment_is_refused_by_name_before_any_record_is_visited() {
        // The same three records as written by the retired CRC-32 format.
        let v1: &[u8] = include_bytes!("../fixtures/v1/seg-00000000000000000007.wal");
        for sealed in [true, false] {
            let mut visited = 0;
            let err = scan_segment(v1, sealed, 7, |_, _| {
                visited += 1;
                Ok(())
            })
            .unwrap_err();
            assert!(err.contains("v1 (CRC-32) WAL format"), "{err}");
            assert_eq!(visited, 0, "sealed={sealed}");
        }
        // Even a v1 header cut short names its format.
        let err = decode_header(&v1[..20]).unwrap_err();
        assert!(err.contains("v1 (CRC-32)"), "{err}");
        // Any other magic is plain damage.
        let mut alien = encode_header(7);
        alien[..14].copy_from_slice(b"hh.wal.seg.v9\n");
        assert_eq!(decode_header(&alien).unwrap_err(), "segment magic mismatch");
    }
}
