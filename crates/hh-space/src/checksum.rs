//! Vendored integrity checksums for the snapshot wire format and the
//! write-ahead log.
//!
//! Snapshot buffers travel between processes (checkpoint files today, a
//! network daemon next), so restore must be able to tell *corrupt* from
//! *well-formed* before interpreting a single length prefix. Two
//! dependency-free checksums are vendored here:
//!
//! * [`fnv1a64x4`] — four interleaved Fowler–Noll–Vo 1a (64-bit)
//!   chains over 8-byte words, folded into one 8-byte digest; the
//!   private scalar FNV-1a/64 (one multiply and one xor per byte)
//!   digests the sub-block tail. This is the trailer the snapshot
//!   codec appends (see `hh-core`'s `snapshot` module).
//! * [`crc32`] — CRC-32 (IEEE 802.3 polynomial, reflected), computed
//!   by a slicing-by-16 kernel over sixteen const-built 256-entry
//!   tables. It is the conventional 4-byte digest the WAL's record and
//!   segment-header trailers carry, so every ack and every replayed
//!   byte pays for it.
//!
//! Neither is cryptographic: both detect *accidents* (truncation,
//! bit rot, interleaved writes), not forgery. That is the right
//! contract for a checkpoint codec — authenticity, when needed, belongs
//! to the transport.

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The 64-bit FNV-1a digest of `bytes`: the textbook serial form,
/// [`fnv1a64x4`]'s tail helper.
#[must_use]
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The striped FNV-1a/64 digest of `bytes`: four independent FNV-1a
/// chains over interleaved 8-byte words, folded together (with the
/// scalar digest of the tail and the input length) through one final
/// FNV chain.
///
/// This is the snapshot codec's trailer digest. Plain FNV-1a/64 is a
/// strictly serial multiply chain — one 64-bit multiply *per byte*,
/// each depending on the last — which caps it near 0.25 bytes/cycle
/// and made checksumming dominate snapshot round-trips. The striped
/// variant issues four independent multiplies per 32-byte block, so
/// the chains pipeline and throughput is bounded by multiplier issue
/// rate instead of latency (~30× on large buffers). Error detection is
/// inherited: every FNV-1a step is a bijection on the lane state (xor,
/// then multiply by an odd prime), so any single-bit flip changes its
/// lane's digest, and the final fold mixes every lane and the length.
///
/// Not FNV-1a of the reference distribution (no published vectors) and
/// not cryptographic — it detects accidents, not forgery.
///
/// ```
/// use hh_space::checksum::fnv1a64x4;
/// assert_ne!(fnv1a64x4(b"hh.algo2.v3"), fnv1a64x4(b"hh.algo2.v2"));
/// assert_ne!(fnv1a64x4(b"ab"), fnv1a64x4(b"ba"));
/// ```
#[must_use]
pub fn fnv1a64x4(bytes: &[u8]) -> u64 {
    // Distinct lane seeds so a block permutation cannot cancel out.
    let mut lanes = [
        FNV_OFFSET,
        FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15,
        FNV_OFFSET ^ 0xc2b2_ae3d_27d4_eb4f,
        FNV_OFFSET ^ 0x1656_67b1_9e37_79f9,
    ];
    let mut chunks = bytes.chunks_exact(32);
    for chunk in &mut chunks {
        for (lane, word) in lanes.iter_mut().zip(chunk.chunks_exact(8)) {
            *lane ^= u64::from_le_bytes(word.try_into().expect("8-byte word"));
            *lane = lane.wrapping_mul(FNV_PRIME);
        }
    }
    let tail = fnv1a64(chunks.remainder());
    let mut h = FNV_OFFSET ^ (bytes.len() as u64);
    h = h.wrapping_mul(FNV_PRIME);
    for lane in lanes {
        h ^= lane;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h ^= tail;
    h.wrapping_mul(FNV_PRIME)
}

/// Slicing tables for the reflected CRC-32 (IEEE), built at compile
/// time. `CRC32_TABLES[0]` is the classic byte-at-a-time table;
/// `CRC32_TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so one lookup per table advances the register over a whole
/// 16-byte block.
const CRC32_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut t = 1;
    while t < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
};

/// The CRC-32 (IEEE 802.3) digest of `bytes`.
///
/// Slicing-by-16: each 16-byte block is folded into the register with
/// sixteen independent table lookups (byte `j` of the block through
/// table `15 - j`), instead of sixteen dependent byte steps. The digest
/// is bit-identical to the byte-at-a-time loop, which still handles
/// the final `len % 16` bytes.
///
/// ```
/// use hh_space::checksum::crc32;
/// // The canonical check value for this polynomial.
/// assert_eq!(crc32(b"123456789"), 0xCBF43926);
/// assert_eq!(crc32(b""), 0);
/// ```
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let word = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
    let byte = |w: u32, k: u32| ((w >> (8 * k)) & 0xFF) as usize;
    let mut c = !0u32;
    let mut blocks = bytes.chunks_exact(16);
    for block in &mut blocks {
        let a = word(&block[0..4]) ^ c;
        let b = word(&block[4..8]);
        let d = word(&block[8..12]);
        let e = word(&block[12..16]);
        c = t[15][byte(a, 0)]
            ^ t[14][byte(a, 1)]
            ^ t[13][byte(a, 2)]
            ^ t[12][byte(a, 3)]
            ^ t[11][byte(b, 0)]
            ^ t[10][byte(b, 1)]
            ^ t[9][byte(b, 2)]
            ^ t[8][byte(b, 3)]
            ^ t[7][byte(d, 0)]
            ^ t[6][byte(d, 1)]
            ^ t[5][byte(d, 2)]
            ^ t[4][byte(d, 3)]
            ^ t[3][byte(e, 0)]
            ^ t[2][byte(e, 1)]
            ^ t[1][byte(e, 2)]
            ^ t[0][byte(e, 3)];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook bit-at-a-time CRC-32 (no tables): the reference the
    /// sliced kernel must match exactly.
    fn crc32_reference(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c ^= u32::from(b);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
        }
        !c
    }

    #[test]
    fn fnv_matches_published_vectors() {
        // Vectors from the FNV reference distribution.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
        // Any flipped bit moves the digest.
        assert_ne!(fnv1a64(b"hh.algo2.v3"), fnv1a64(b"hh.algo2.v2"));
    }

    #[test]
    fn crc32_matches_published_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFFu8; 32]), 0xFF6C_AB0B);
    }

    #[test]
    fn sliced_crc32_matches_the_bitwise_reference_at_every_length_and_offset() {
        // One buffer, every start offset 0..16 (so blocks start at
        // every alignment) and every length 0..=300 (whole blocks plus
        // every tail length).
        let buf: Vec<u8> = (0..316u32)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 13) as u8)
            .collect();
        for start in 0..16 {
            for len in 0..=300 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_reference(s), "start {start}, len {len}");
            }
        }
    }

    #[test]
    fn single_bit_flips_always_change_every_digest() {
        // 259 bytes: exercises full 32-byte blocks AND a 3-byte tail.
        let base: Vec<u8> = (0..=255u8).chain(0..3u8).collect();
        let f0 = fnv1a64(&base);
        let s0 = fnv1a64x4(&base);
        let c0 = crc32(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(fnv1a64(&flipped), f0, "fnv missed flip at {i}:{bit}");
                assert_ne!(fnv1a64x4(&flipped), s0, "fnv x4 missed flip at {i}:{bit}");
                assert_ne!(crc32(&flipped), c0, "crc missed flip at {i}:{bit}");
            }
        }
    }

    #[test]
    fn truncation_changes_the_digest() {
        let base: Vec<u8> = (0..96u8).collect();
        let f0 = fnv1a64(&base);
        let s0 = fnv1a64x4(&base);
        for cut in 0..base.len() {
            assert_ne!(fnv1a64(&base[..cut]), f0, "fnv missed truncation at {cut}");
            assert_ne!(
                fnv1a64x4(&base[..cut]),
                s0,
                "fnv x4 missed truncation at {cut}"
            );
        }
    }

    #[test]
    fn striped_digest_distinguishes_block_permutations() {
        // Swapping two 8-byte words inside one block, or two whole
        // blocks, must move the digest: lanes are seeded distinctly and
        // each chain is position-sensitive.
        fn swap_words(buf: &mut [u8], a: usize, b: usize) {
            for i in 0..8 {
                buf.swap(a + i, b + i);
            }
        }
        let base: Vec<u8> = (0..64u8).collect();
        let s0 = fnv1a64x4(&base);
        let mut word_swapped = base.clone();
        swap_words(&mut word_swapped, 0, 8);
        assert_ne!(fnv1a64x4(&word_swapped), s0);
        let mut block_swapped = base.clone();
        swap_words(&mut block_swapped, 0, 32);
        assert_ne!(fnv1a64x4(&block_swapped), s0);
    }
}
