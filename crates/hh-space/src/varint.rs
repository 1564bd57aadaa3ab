//! LEB128 varint slice codecs for snapshot payloads.
//!
//! The snapshot format serializes Algorithm 2's counter tables — tens
//! of thousands of `u64` cells whose values are almost all tiny (the
//! deferred-accounting analysis prices them at `O(1)` expected bits
//! each; that is the whole point of the Theorem-2 space bound). Writing
//! them as fixed 8-byte words costs 8× the information content *and*
//! one codec call per cell. These helpers instead append a whole
//! slice as one contiguous byte block — reserved once, written once —
//! straight into the buffer of the codec's bulk byte channel
//! ([`crate::codec::Writer::write_byte_seq_with`]), and decode it in
//! place from a borrowed slice ([`crate::codec::Reader::read_byte_slice`]).
//!
//! Two encodings:
//!
//! * [`push_uvarints`] — plain LEB128 per value: 1 byte for values
//!   below 128, which covers essentially every live T2/T3 cell.
//! * [`push_deltas`] — first value plus LEB128 *gaps*, for
//!   **non-decreasing** slices (epoch threshold tables, offset arrays),
//!   where the gaps are small even when the values are not.
//!
//! Decoders validate exhaustively (truncation, overlong > 10-byte runs,
//! unconsumed trailing bytes, element-count mismatch, delta overflow)
//! so a corrupted snapshot fails loudly instead of deserializing into a
//! structurally broken table.

/// Appends the LEB128 encoding of `v` to `out`.
#[inline]
pub fn push_uvarint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// The encoded length of `v` in bytes (1 for values below 128).
#[inline]
pub fn uvarint_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
    }
}

/// Reads one LEB128 value from `buf` starting at `*pos`, advancing
/// `*pos` past it. `None` on truncation or an overlong (> 10 byte /
/// > 64 bit) run.
#[inline]
pub fn read_uvarint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let &b = buf.get(*pos)?;
        *pos += 1;
        let payload = u64::from(b & 0x7F);
        // The 10th byte may only carry the single top bit of a u64.
        if shift >= 64 || (shift == 63 && payload > 1) {
            return None;
        }
        v |= payload << shift;
        if b < 0x80 {
            return Some(v);
        }
        shift += 7;
    }
}

/// SWAR lane width of the bulk encode/decode fast paths: 8 values (or
/// bytes) per step, tested with one OR-fold / one masked `u64` load.
const LANES: usize = 8;

/// High bit of every byte in a `u64` — the LEB128 continuation bits of
/// 8 packed single-byte values.
const CONT_BITS: u64 = 0x8080_8080_8080_8080;

/// Appends `values` to `out` as back-to-back LEB128 varints.
///
/// Counter slices are almost entirely sub-128 values (1 encoded byte),
/// so the encoder runs 8 values per step: one OR-fold proves the whole
/// lane is single-byte and writes it as one 8-byte block; lanes with a
/// wide value fall back to per-value encoding. Room is reserved for the
/// all-small common case, so `out` grows again only when wide values
/// appear.
pub fn push_uvarints(out: &mut Vec<u8>, values: &[u64]) {
    out.reserve(values.len() + values.len() / 8 + 16);
    let lanes = values.len() / LANES * LANES;
    for chunk in values[..lanes].chunks_exact(LANES) {
        if chunk.iter().fold(0, |a, &v| a | v) < 0x80 {
            let mut packed = [0u8; LANES];
            for (b, &v) in packed.iter_mut().zip(chunk) {
                *b = v as u8;
            }
            out.extend_from_slice(&packed);
        } else {
            for &v in chunk {
                push_uvarint(out, v);
            }
        }
    }
    for &v in &values[lanes..] {
        push_uvarint(out, v);
    }
}

/// Decodes exactly `n` values written by [`push_uvarints`]. `None` if
/// the block truncates early, carries an invalid run, or has leftover
/// bytes after the `n`-th value.
///
/// Mirror of the encoder's fast path: while at least 8 encoded bytes
/// remain and none of them carries a continuation bit (one masked
/// `u64` test), they are 8 complete values and unpack without the
/// per-byte loop.
pub fn decode_uvarints(buf: &[u8], n: usize) -> Option<Vec<u64>> {
    // A varint takes at least one byte, so `n` can never exceed the
    // block length — reject before allocating anything attacker-sized.
    if n > buf.len() {
        return None;
    }
    let mut out = Vec::with_capacity(n);
    let mut pos = 0usize;
    let mut left = n;
    while left >= LANES && pos + LANES <= buf.len() {
        let word = u64::from_le_bytes(buf[pos..pos + LANES].try_into().expect("lane width"));
        if word & CONT_BITS == 0 {
            // 8 complete one-byte values: unpack into a fixed array and
            // append in one bounds-checked copy.
            let mut vals = [0u64; LANES];
            for (i, v) in vals.iter_mut().enumerate() {
                *v = (word >> (8 * i)) & 0x7F;
            }
            out.extend_from_slice(&vals);
            pos += LANES;
            left -= LANES;
        } else {
            // One wide (or boundary-straddling) value the slow way,
            // then back to the lane test.
            out.push(read_uvarint(buf, &mut pos)?);
            left -= 1;
        }
    }
    for _ in 0..left {
        out.push(read_uvarint(buf, &mut pos)?);
    }
    (pos == buf.len()).then_some(out)
}

/// Appends a **non-decreasing** slice to `out` as its first value
/// followed by LEB128 gaps; the empty slice appends nothing.
///
/// # Errors
/// `Err(i)` if `values[i] > values[i + 1]`. The slice is checked before
/// anything is written, so `out` is then unchanged.
pub fn push_deltas(out: &mut Vec<u8>, values: &[u64]) -> Result<(), usize> {
    if let Some(i) = values.windows(2).position(|p| p[1] < p[0]) {
        return Err(i);
    }
    let Some(&first) = values.first() else {
        return Ok(());
    };
    out.reserve(values.len() + uvarint_len(first));
    push_uvarint(out, first);
    for p in values.windows(2) {
        push_uvarint(out, p[1] - p[0]);
    }
    Ok(())
}

/// Decodes exactly `n` values written by [`push_deltas`]; `None` on
/// any malformation, including a cumulative sum overflowing `u64`.
pub fn decode_deltas(buf: &[u8], n: usize) -> Option<Vec<u64>> {
    if n == 0 {
        return buf.is_empty().then_some(Vec::new());
    }
    if n > buf.len() {
        return None;
    }
    let mut pos = 0usize;
    let mut out = Vec::with_capacity(n);
    let mut acc = read_uvarint(buf, &mut pos)?;
    out.push(acc);
    for _ in 1..n {
        acc = acc.checked_add(read_uvarint(buf, &mut pos)?)?;
        out.push(acc);
    }
    (pos == buf.len()).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn uvarints(values: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        push_uvarints(&mut out, values);
        out
    }

    fn deltas(values: &[u64]) -> Result<Vec<u8>, usize> {
        let mut out = Vec::new();
        push_deltas(&mut out, values)?;
        Ok(out)
    }

    #[test]
    fn single_values_round_trip_at_every_width() {
        let mut probes = vec![0u64, 1, 127, 128, 300, u32::MAX as u64];
        probes.extend((0..64).map(|s| 1u64 << s));
        probes.push(u64::MAX);
        for v in probes {
            let mut buf = Vec::new();
            push_uvarint(&mut buf, v);
            assert_eq!(buf.len(), uvarint_len(v), "len of {v}");
            let mut pos = 0;
            assert_eq!(read_uvarint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn slices_round_trip_and_compress_small_values() {
        let values: Vec<u64> = (0..10_000u64).map(|i| i % 7).collect();
        let block = uvarints(&values);
        assert_eq!(block.len(), values.len(), "small values take 1 byte");
        assert_eq!(decode_uvarints(&block, values.len()).unwrap(), values);
        // Mixed widths too.
        let wide = vec![0, u64::MAX, 1, 1 << 40, 127, 128];
        let block = uvarints(&wide);
        assert_eq!(decode_uvarints(&block, wide.len()).unwrap(), wide);
    }

    #[test]
    fn decode_rejects_malformed_blocks() {
        let values = vec![5u64, 300, 7];
        let block = uvarints(&values);
        // Truncation, wrong element count, trailing garbage.
        assert_eq!(decode_uvarints(&block[..block.len() - 1], 3), None);
        assert_eq!(decode_uvarints(&block, 2), None);
        assert_eq!(decode_uvarints(&block, 4), None);
        let mut trailing = block.clone();
        trailing.push(0);
        assert_eq!(decode_uvarints(&trailing, 3), None);
        // Overlong run: 11 continuation bytes can encode nothing valid.
        let overlong = vec![0x80u8; 11];
        assert_eq!(decode_uvarints(&overlong, 1), None);
        // A 10th byte carrying more than the top bit overflows u64.
        let mut too_wide = vec![0xFFu8; 9];
        too_wide.push(0x02);
        assert_eq!(decode_uvarints(&too_wide, 1), None);
        // An absurd count cannot trigger a huge allocation.
        assert_eq!(decode_uvarints(&block, usize::MAX), None);
    }

    #[test]
    fn deltas_round_trip_monotone_slices() {
        let thresholds = vec![51u64, 71, 100, 142, 200, 283, 400];
        let block = deltas(&thresholds).unwrap();
        assert!(block.len() < 8 * thresholds.len());
        assert_eq!(decode_deltas(&block, thresholds.len()).unwrap(), thresholds);
        // Plateaus are fine (gap 0); decreases are not, and name their
        // index without writing anything.
        assert!(deltas(&[3, 3, 4]).is_ok());
        let mut out = vec![0xAB];
        assert_eq!(push_deltas(&mut out, &[3, 4, 2]), Err(1));
        assert_eq!(out, [0xAB]);
        // Empty slice.
        assert_eq!(deltas(&[]).unwrap(), Vec::<u8>::new());
        assert_eq!(decode_deltas(&[], 0), Some(Vec::new()));
    }

    #[test]
    fn delta_decode_rejects_overflow_and_truncation() {
        let block = deltas(&[u64::MAX - 1, u64::MAX]).unwrap();
        assert_eq!(
            decode_deltas(&block, 2).unwrap(),
            vec![u64::MAX - 1, u64::MAX]
        );
        // Crafted gaps that overflow the running sum must fail.
        let mut bad = Vec::new();
        push_uvarint(&mut bad, u64::MAX);
        push_uvarint(&mut bad, 1);
        assert_eq!(decode_deltas(&bad, 2), None);
        assert_eq!(decode_deltas(&block[..1], 2), None);
    }
}
