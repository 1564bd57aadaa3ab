//! Mergeable summaries and binary snapshot/restore.
//!
//! A streaming summary is *mergeable* when summaries built over an
//! arbitrary partition of a stream can be combined into one summary of
//! the whole stream with the same guarantee — the standard route
//! (Agarwal–Cormode–Huang–Phillips–Wei–Yi 2012) to distributed
//! aggregation, checkpoint/resume, and windowed reporting. The
//! deterministic counter summaries (Misra–Gries, Space-Saving, Lossy
//! Counting) merge unconditionally; the randomized ones (the paper's
//! Algorithms 1 and 2, Count-Min, CountSketch) merge **only between
//! seed-aligned instances**: both sides must have drawn the same hash
//! functions, so that "bucket `i` of repetition `j`" means the same
//! item set in both tables and cell-wise addition is meaningful. The
//! `hh-pipeline` presets construct such instances by splitting the
//! *structure seed* (hash draws, shared) from the *stream seed*
//! (sampling coins, per-shard); see DESIGN.md §"Mergeable summaries".
//!
//! Snapshots are the persistence half of the same contract: a summary
//! serializes to a tagged binary buffer ([`MergeableSummary::to_bytes`],
//! an owned `Vec<u8>`) that restores to a bit-identical
//! summary — same future reports, same space accounting, and, because
//! the RNG and sampler states are captured too, the same behavior under
//! continued ingestion.
//!
//! # Example: partition, merge, snapshot, restore
//!
//! ```
//! use hh_core::{HeavyHitters, MergeableSummary, MisraGries, StreamSummary};
//!
//! let stream: Vec<u64> = (0..9_000u64).map(|i| if i % 3 == 0 { 7 } else { i }).collect();
//! let (left, right) = stream.split_at(4_000);
//!
//! // Summarize the two partitions independently (e.g. on two machines).
//! let mut a = MisraGries::new(16, 32);
//! a.insert_batch(left);
//! let mut b = MisraGries::new(16, 32);
//! b.insert_batch(right);
//!
//! // Ship `b` as bytes, restore it, and fold it into `a`.
//! let wire = b.to_bytes();
//! let restored = MisraGries::from_bytes(&wire).unwrap();
//! a.merge_from(&restored).unwrap();
//!
//! // The merged summary covers the whole stream: the 33% item is the
//! // undisputed maximum, with the combined stream's error bound.
//! assert_eq!(a.processed(), 9_000);
//! assert_eq!(a.argmax().unwrap().0, 7);
//! ```

use crate::error::{MergeError, SnapshotError};
use crate::traits::StreamSummary;

/// A summary of a substream that can be merged with summaries of
/// disjoint substreams, and checkpointed to bytes.
///
/// # Contract
///
/// * **Merge soundness.** If `self` summarizes substream `A` and
///   `other` summarizes a disjoint substream `B` (and the two are
///   structurally compatible — same parameters, same hash/sampler
///   seeds), then after `self.merge_from(&other)` the receiver
///   summarizes `A ⊎ B` with its type's error guarantee evaluated at
///   the combined stream length. The `prop_merge` suite enforces this
///   for every implementation in the workspace.
/// * **Snapshot fidelity.** `Self::from_bytes(&s.to_bytes())` succeeds
///   and reproduces `s.report()` (where applicable), `s`'s estimates,
///   and `s`'s space accounting bit-for-bit; randomized summaries also
///   restore their RNG/sampler state, so continued ingestion behaves
///   exactly as the original would have.
/// * **Tagging.** Buffers are tagged with a type-and-version string;
///   feeding one type's snapshot to another type's `from_bytes` returns
///   [`SnapshotError::WrongTag`] instead of misinterpreting bytes.
///
/// # Example
///
/// ```
/// use hh_core::{HhParams, HeavyHitters, MergeableSummary, SimpleListHh, StreamSummary};
///
/// let params = HhParams::new(0.05, 0.2).unwrap();
/// let m = 100_000u64;
/// // Seed-aligned instances: same structure seed (hash draws), distinct
/// // stream seeds (sampling coins) — the shape the pipeline presets build.
/// let mut a = SimpleListHh::with_seeds(params, 1 << 30, m, 7, 1).unwrap();
/// let mut b = SimpleListHh::with_seeds(params, 1 << 30, m, 7, 2).unwrap();
/// for i in 0..m {
///     let x = if i % 2 == 0 { 42 } else { i };
///     // An arbitrary position-based partition (not key-based): every
///     // third item goes left, the rest go right.
///     if i % 3 == 0 { a.insert(x) } else { b.insert(x) }
/// }
/// a.merge_from(&b).unwrap();
/// assert!(a.report().contains(42)); // the 50% item, found after merging
/// ```
pub trait MergeableSummary: StreamSummary + Sized {
    /// Folds `other` — a summary of a **disjoint** substream — into
    /// `self`, so that `self` afterwards summarizes the concatenation.
    ///
    /// # Errors
    /// [`MergeError::Incompatible`] if the two summaries were not built
    /// with the same parameters and structural seeds; `self` is left
    /// unchanged in that case.
    fn merge_from(&mut self, other: &Self) -> Result<(), MergeError>;

    /// Serializes the full summary state (tables, counters, hash seeds,
    /// RNG and sampler state) into a tagged binary buffer with a
    /// trailing integrity checksum.
    fn to_bytes(&self) -> Vec<u8>;

    /// Restores a summary from a buffer produced by
    /// [`MergeableSummary::to_bytes`]. The trailing checksum is
    /// verified before a single payload byte is interpreted, and the
    /// payload must consume the body exactly.
    ///
    /// Restore is total over arbitrary input: corrupted, truncated, or
    /// adversarially inflated bytes return a structured
    /// [`SnapshotError`] — never a panic, never an allocation sized
    /// from an unvalidated length prefix.
    ///
    /// # Errors
    /// [`SnapshotError`] if the buffer carries another type's tag
    /// (including an older format version of this type's), a bad
    /// checksum, or a malformed payload.
    fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError>;
}

/// Shared snapshot plumbing: the tagged-buffer encode/decode helpers
/// every [`MergeableSummary`] implementation routes through.
///
/// # Wire format (v3)
///
/// ```text
/// ┌──────────────────────┬─────────────────┬──────────────────────┐
/// │ tag ("hh.<type>.vN") │ payload (codec) │ fnv1a64x4 trailer 8B │
/// └──────────────────────┴─────────────────┴──────────────────────┘
/// ```
///
/// The trailer is the striped 64-bit digest
/// (`hh_space::checksum::fnv1a64x4`, four pipelined lanes — the
/// scalar FNV-1a chain would dominate large-snapshot round-trips) of
/// everything before it (tag included) and is verified **before** any
/// payload byte is
/// interpreted, so a corrupt buffer is rejected by one linear scan
/// rather than by whichever decoder happens to trip over it. Each
/// summary type accepts exactly one tag: a buffer behind any other
/// tag, an older format version of the same type included, is refused
/// with [`SnapshotError::WrongTag`].
pub mod snapshot {
    use super::SnapshotError;
    use hh_space::codec::{Codec, CodecError, ErrorKind, Reader, Writer};

    /// Size of the trailing integrity checksum in bytes.
    pub const CHECKSUM_LEN: usize = 8;

    /// Maps a codec failure class onto the snapshot error taxonomy.
    fn codec_err(e: CodecError) -> SnapshotError {
        match e.kind() {
            ErrorKind::Truncated => SnapshotError::Truncated,
            ErrorKind::LengthOverflow => SnapshotError::LengthOverflow(e.to_string()),
            ErrorKind::Invariant => SnapshotError::InvariantViolated(e.to_string()),
            ErrorKind::Invalid => SnapshotError::Malformed(e.to_string()),
        }
    }

    /// Whether `bytes` starts with the encoding `write_str(tag)`
    /// produces (u64 length prefix + raw bytes). A bounded peek: no
    /// allocation, no cursor, no trust in the prefix.
    fn starts_with_tag(bytes: &[u8], tag: &str) -> bool {
        let Some(prefix) = bytes.get(..8) else {
            return false;
        };
        let len = u64::from_le_bytes(prefix.try_into().expect("8-byte slice"));
        len == tag.len() as u64 && bytes[8..].starts_with(tag.as_bytes())
    }

    /// Encodes `value` behind `tag` (a `"hh.<type>.v<N>"` string that
    /// names the summary type and snapshot-format version) and appends
    /// the striped `fnv1a64x4` digest of the whole buffer as an 8-byte
    /// little-endian trailer.
    pub fn encode<T: Codec>(tag: &str, value: &T) -> Vec<u8> {
        encode_with(tag, |w| value.write_to(w))
    }

    /// [`encode`] for a payload written by `write`: a caller encodes
    /// from borrowed parts without building an owned [`Codec`] value.
    pub fn encode_with(tag: &str, write: impl FnOnce(&mut Writer)) -> Vec<u8> {
        let mut w = Writer::default();
        w.write_str(tag);
        write(&mut w);
        let mut buf = w.into_bytes();
        let digest = hh_space::checksum::fnv1a64x4(&buf);
        buf.extend_from_slice(&digest.to_le_bytes());
        buf
    }

    /// Decodes a buffer produced by [`encode`] with the same `tag`:
    /// verifies the trailer over everything before it, then decodes the
    /// payload between tag and trailer, which must consume it exactly.
    pub fn decode<T: Codec>(tag: &'static str, bytes: &[u8]) -> Result<T, SnapshotError> {
        if !starts_with_tag(bytes, tag) {
            let mut found = Reader::new(bytes).read_string().map_err(codec_err)?;
            found.truncate(64);
            return Err(SnapshotError::WrongTag {
                expected: tag,
                found,
            });
        }
        let body_len = bytes
            .len()
            .checked_sub(CHECKSUM_LEN)
            .ok_or(SnapshotError::Truncated)?;
        let (body, trailer) = bytes.split_at(body_len);
        if body.len() < 8 + tag.len() {
            // The trailer split ate into the tag itself: the buffer
            // lost bytes after encoding.
            return Err(SnapshotError::Truncated);
        }
        let stored = u64::from_le_bytes(trailer.try_into().expect("8-byte trailer"));
        if hh_space::checksum::fnv1a64x4(body) != stored {
            return Err(SnapshotError::ChecksumMismatch);
        }
        let mut r = Reader::new(body);
        let matched = r.check_str(tag).map_err(codec_err)?;
        debug_assert!(matched, "starts_with_tag pre-checked the tag");
        let value = T::read_from(&mut r).map_err(codec_err)?;
        if r.remaining() != 0 {
            return Err(SnapshotError::InvariantViolated(format!(
                "{} trailing bytes after payload",
                r.remaining()
            )));
        }
        Ok(value)
    }

    /// Writes a **non-decreasing** `u64` slice (threshold tables) as one
    /// delta-coded varint block through the codec's bulk byte channel:
    /// element count, then the first value and the LEB128 gaps in a
    /// single length-prefixed byte string.
    ///
    /// # Panics
    /// If the slice decreases anywhere: a caller bug, never silently
    /// mis-encoded.
    pub fn write_u64_slice_delta(values: &[u64], w: &mut Writer) {
        w.write_seq_len(values.len());
        w.write_byte_seq_with(|out| {
            if let Err(i) = hh_space::push_deltas(out, values) {
                panic!(
                    "delta-encoding a decreasing slice: values[{i}] > values[{}]",
                    i + 1
                );
            }
        });
    }

    /// Reads back a slice written by [`write_u64_slice_delta`].
    pub fn read_u64_slice_delta(r: &mut Reader<'_>) -> Result<Vec<u64>, CodecError> {
        let n = r.read_seq_len()?;
        let block = r.read_byte_slice()?;
        hh_space::decode_deltas(block, n)
            .ok_or_else(|| CodecError::invariant("malformed delta counter block"))
    }

    /// Writes a `[u64; 4]` RNG state (helper for the randomized
    /// summaries' codecs).
    pub fn write_rng_state(state: [u64; 4], w: &mut Writer) {
        for word in state {
            w.write_u64(word);
        }
    }

    /// Reads back a `[u64; 4]` RNG state written by [`write_rng_state`].
    pub fn read_rng_state(r: &mut Reader<'_>) -> Result<[u64; 4], CodecError> {
        let mut s = [0u64; 4];
        for word in &mut s {
            *word = r.read_u64()?;
        }
        Ok(s)
    }
}

/// Equality check helper for merge compatibility: returns the
/// incompatibility error when the two values differ.
pub(crate) fn check_compatible<T: PartialEq>(
    a: &T,
    b: &T,
    what: &'static str,
) -> Result<(), MergeError> {
    if a == b {
        Ok(())
    } else {
        Err(MergeError::Incompatible(what))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_roundtrip_and_tag_mismatch() {
        let v: Vec<u64> = vec![1, 2, 3];
        let buf = snapshot::encode("hh.test.v1", &v);
        let back: Vec<u64> = snapshot::decode("hh.test.v1", &buf).unwrap();
        assert_eq!(back, v);
        let err = snapshot::decode::<Vec<u64>>("hh.other.v1", &buf).unwrap_err();
        assert!(matches!(err, SnapshotError::WrongTag { .. }));
        // Losing trailing bytes shifts the trailer onto payload bytes:
        // the digest cannot match.
        let err = snapshot::decode::<Vec<u64>>("hh.test.v1", &buf[..buf.len() - 3]).unwrap_err();
        assert!(matches!(err, SnapshotError::ChecksumMismatch));
    }

    #[test]
    fn snapshot_checksum_rejects_every_bit_flip() {
        let v: Vec<u64> = vec![9, 8, 7, 6];
        let buf = snapshot::encode("hh.test.v1", &v);
        for i in 0..buf.len() {
            let mut bad = buf.to_vec();
            bad[i] ^= 1;
            let err = snapshot::decode::<Vec<u64>>("hh.test.v1", &bad).unwrap_err();
            // A flip in the tag region surfaces as WrongTag (or, when
            // it lands in the tag's length prefix, as a bounded-length
            // rejection); anywhere else the trailer catches it. Either
            // way: structured Err, never a panic.
            assert!(
                matches!(
                    err,
                    SnapshotError::ChecksumMismatch
                        | SnapshotError::WrongTag { .. }
                        | SnapshotError::LengthOverflow(_)
                        | SnapshotError::Truncated
                ),
                "offset {i}: {err}"
            );
        }
    }

    #[test]
    fn snapshot_rejects_trailing_garbage_and_empty_buffers() {
        let v: Vec<u64> = vec![1];
        let buf = snapshot::encode("hh.test.v1", &v);
        // Appending bytes (with a recomputed trailer) is caught by the
        // strict exact-consumption check.
        let mut padded = buf[..buf.len() - snapshot::CHECKSUM_LEN].to_vec();
        padded.extend_from_slice(&[0, 0, 0]);
        let digest = hh_space::checksum::fnv1a64x4(&padded);
        padded.extend_from_slice(&digest.to_le_bytes());
        let err = snapshot::decode::<Vec<u64>>("hh.test.v1", &padded).unwrap_err();
        assert!(matches!(err, SnapshotError::InvariantViolated(_)));
        // Degenerate inputs are classified, not panicked on.
        for bad in [&[][..], &[0u8; 3], &[0xFF; 16]] {
            assert!(snapshot::decode::<Vec<u64>>("hh.test.v1", bad).is_err());
        }
    }

    #[test]
    fn compatibility_helper_reports_field_name() {
        assert!(check_compatible(&1u64, &1u64, "x").is_ok());
        let err = check_compatible(&1u64, &2u64, "stream seeds").unwrap_err();
        assert_eq!(err, MergeError::Incompatible("stream seeds"));
        assert!(err.to_string().contains("stream seeds"));
    }
}
