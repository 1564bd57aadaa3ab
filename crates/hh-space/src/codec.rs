//! The binary codec every snapshot, checkpoint and wire frame is
//! written in: little-endian fixed-width primitives, `u64` length
//! prefixes, a bulk byte channel for pre-encoded blocks, and a bulk
//! word channel for raw `u64` item blocks.
//!
//! A type opts in by implementing [`Codec`] against the two concrete
//! ends, [`Writer`] and [`Reader`]. Writes append to a `Vec<u8>` and
//! cannot fail. Reads are total over arbitrary input: every length
//! prefix is checked against the bytes left **before** anything is
//! allocated from it, and every failure carries an [`ErrorKind`] so
//! callers can tell a short buffer from a lying prefix from a decoded
//! value that breaks its type's invariants.
//!
//! ```
//! use hh_space::codec::{Reader, Writer};
//!
//! let mut w = Writer::default();
//! w.write_str("hh.example.v1");
//! w.write_byte_seq(&[1, 2, 3]);
//! let buf = w.into_bytes();
//!
//! let mut r = Reader::new(&buf);
//! assert!(r.check_str("hh.example.v1").unwrap());
//! assert_eq!(r.read_byte_seq().unwrap(), [1, 2, 3]);
//! assert_eq!(r.remaining(), 0);
//! ```

use core::fmt;

/// A value with one binary encoding.
pub trait Codec: Sized {
    /// Appends the encoding of `self` to `w`.
    fn write_to(&self, w: &mut Writer);

    /// Reads a value written by [`Codec::write_to`].
    ///
    /// # Errors
    /// [`CodecError`] if the input ends early, a length prefix claims
    /// more bytes than are left, or the decoded value breaks one of the
    /// type's invariants.
    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError>;
}

/// Failure class of a [`CodecError`], so callers can distinguish "the
/// buffer ended early" from "a length prefix is lying" from "the
/// decoded value is structurally impossible" without parsing message
/// strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The input ended before the value did.
    Truncated,
    /// A length prefix or element count exceeds the remaining input;
    /// rejected before any allocation sized from it.
    LengthOverflow,
    /// The bytes decoded but violate a structural invariant of the
    /// target type.
    Invariant,
    /// Any other malformed input (bad UTF-8, out-of-range field).
    Invalid,
}

/// Decode error: a failure class plus a human-readable message.
#[derive(Debug)]
pub struct CodecError {
    kind: ErrorKind,
    msg: String,
}

impl CodecError {
    fn new(kind: ErrorKind, msg: impl fmt::Display) -> Self {
        Self {
            kind,
            msg: msg.to_string(),
        }
    }

    /// The input ended before the value did.
    pub fn truncated() -> Self {
        Self::new(ErrorKind::Truncated, "unexpected end of input")
    }

    /// A length prefix or element count exceeds what the remaining
    /// input could possibly hold.
    pub fn length_overflow(msg: impl fmt::Display) -> Self {
        Self::new(ErrorKind::LengthOverflow, msg)
    }

    /// The bytes decoded, but the value violates a structural invariant
    /// of the target type.
    pub fn invariant(msg: impl fmt::Display) -> Self {
        Self::new(ErrorKind::Invariant, msg)
    }

    /// Any other malformed input.
    fn invalid(msg: impl fmt::Display) -> Self {
        Self::new(ErrorKind::Invalid, msg)
    }

    /// The failure class.
    pub fn kind(&self) -> ErrorKind {
        self.kind
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "codec: {}", self.msg)
    }
}

impl std::error::Error for CodecError {}

/// Byte-buffer encoder.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

// The primitives below are `#[inline]`: every encode and decode calls
// them from another crate, where a plain non-generic function would stay
// an out-of-line call per word.
impl Writer {
    /// Reserves room for roughly `additional` more encoded bytes, so a
    /// size-hinted snapshot is written once into one allocation instead
    /// of growing through reallocation-and-copy cycles.
    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a `bool` as one byte.
    #[inline]
    pub fn write_bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Writes a `u64`, little-endian.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes an `f64`, little-endian.
    #[inline]
    pub fn write_f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a string: `u64` length prefix, then the UTF-8 bytes.
    #[inline]
    pub fn write_str(&mut self, v: &str) {
        self.write_byte_seq(v.as_bytes());
    }

    /// Writes a sequence-length marker.
    #[inline]
    pub fn write_seq_len(&mut self, len: usize) {
        self.write_u64(len as u64);
    }

    /// Writes a length-prefixed opaque byte string in one `memcpy`: the
    /// bulk channel for pre-encoded payloads (packed counter arrays,
    /// varint blocks, nested snapshots).
    #[inline]
    pub fn write_byte_seq(&mut self, v: &[u8]) {
        self.write_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Writes the same length-prefixed byte string as
    /// [`Writer::write_byte_seq`], but lets `fill` append the bytes
    /// straight into the buffer and patches the prefix afterwards: a
    /// block encoder (varint counters) writes once, with no staging
    /// buffer to copy from.
    #[inline]
    pub fn write_byte_seq_with(&mut self, fill: impl FnOnce(&mut Vec<u8>)) {
        let at = self.buf.len();
        self.write_u64(0);
        fill(&mut self.buf);
        let len = (self.buf.len() - at - 8) as u64;
        self.buf[at..at + 8].copy_from_slice(&len.to_le_bytes());
    }

    /// Writes `words` as raw little-endian `u64`s, with no count: the
    /// bulk word channel for item blocks, whose count the caller
    /// writes in its own field. One reserve, one pass: the flattened
    /// byte iterator has an exact length, so `extend` sizes once and
    /// then stores without per-word capacity checks (about 4× faster
    /// than one `extend_from_slice` per word on a 4096-word block).
    #[inline]
    pub fn write_u64_words(&mut self, words: &[u64]) {
        self.buf.reserve(words.len() * 8);
        self.buf
            .extend(words.iter().flat_map(|word| word.to_le_bytes()));
    }
}

/// A writer that appends to `buf`, keeping what it holds and its
/// capacity: a hot path reuses one scratch buffer across encodes.
impl From<Vec<u8>> for Writer {
    fn from(buf: Vec<u8>) -> Self {
        Self { buf }
    }
}

/// Byte-buffer decoder.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Reader over a byte buffer.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Bytes not yet consumed. Strict decoders use this to reject
    /// buffers with trailing garbage after a complete payload.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::truncated());
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    /// Reads a u64 length prefix and validates it against the
    /// remaining input **before** the usize cast, so an untrusted
    /// prefix can never drive an allocation (or a 32-bit truncation)
    /// larger than the buffer that carried it.
    #[inline]
    fn bounded_len(&mut self, what: &str) -> Result<usize, CodecError> {
        let len = self.read_u64()?;
        if len > self.buf.len() as u64 {
            return Err(CodecError::length_overflow(format!(
                "{what} length {len} exceeds {} remaining bytes",
                self.buf.len()
            )));
        }
        Ok(len as usize)
    }

    #[inline]
    fn word(&mut self) -> Result<[u8; 8], CodecError> {
        let bytes = self.take(8)?;
        let mut w = [0u8; 8];
        w.copy_from_slice(bytes);
        Ok(w)
    }

    /// Reads a `bool` (any nonzero byte is `true`).
    #[inline]
    pub fn read_bool(&mut self) -> Result<bool, CodecError> {
        Ok(self.take(1)?[0] != 0)
    }

    /// Reads a `u64`.
    #[inline]
    pub fn read_u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.word()?))
    }

    /// Reads an `f64`.
    #[inline]
    pub fn read_f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.word()?))
    }

    /// Reads a string written by [`Writer::write_str`].
    pub fn read_string(&mut self) -> Result<String, CodecError> {
        let len = self.bounded_len("string")?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| CodecError::invalid("invalid utf-8"))
    }

    /// Reads a sequence-length marker. Every encoded element occupies
    /// at least one byte, so a valid count can never exceed the
    /// remaining input; bounding here makes
    /// `Vec::with_capacity(read_seq_len()?)` safe at every call site
    /// regardless of what the prefix claims.
    #[inline]
    pub fn read_seq_len(&mut self) -> Result<usize, CodecError> {
        self.bounded_len("sequence")
    }

    /// Reads a byte string written by [`Writer::write_byte_seq`],
    /// borrowed from the input: a block decoder (varint counters) reads
    /// it in place instead of from a copy.
    #[inline]
    pub fn read_byte_slice(&mut self) -> Result<&'a [u8], CodecError> {
        let len = self.bounded_len("byte string")?;
        self.take(len)
    }

    /// Reads a byte string written by [`Writer::write_byte_seq`] into an
    /// owned buffer.
    pub fn read_byte_seq(&mut self) -> Result<Vec<u8>, CodecError> {
        Ok(self.read_byte_slice()?.to_vec())
    }

    /// Reads `n` words written by [`Writer::write_u64_words`] into a
    /// new vector. See [`Reader::read_u64_words_into`].
    pub fn read_u64_words(&mut self, n: usize) -> Result<Vec<u64>, CodecError> {
        let mut words = Vec::new();
        self.read_u64_words_into(n, &mut words)?;
        Ok(words)
    }

    /// Reads `n` words written by [`Writer::write_u64_words`], appending
    /// them to `out` (a replay loop reuses one buffer). `n × 8` is
    /// checked, overflow included, against the remaining input
    /// **before** `out` grows, so a lying count costs no allocation.
    #[inline]
    pub fn read_u64_words_into(&mut self, n: usize, out: &mut Vec<u64>) -> Result<(), CodecError> {
        let bytes = n
            .checked_mul(8)
            .filter(|&bytes| bytes <= self.buf.len())
            .ok_or_else(|| {
                CodecError::length_overflow(format!(
                    "{n} words exceed {} remaining bytes",
                    self.buf.len()
                ))
            })?;
        let block = self.take(bytes)?;
        out.extend(
            block
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact(8)"))),
        );
        Ok(())
    }

    /// Reads a string written by [`Writer::write_str`] and reports
    /// whether it equals `expected`, comparing in place: the hot path
    /// of a format-tag check allocates nothing.
    #[inline]
    pub fn check_str(&mut self, expected: &str) -> Result<bool, CodecError> {
        let len = self.bounded_len("tag string")?;
        Ok(self.take(len)? == expected.as_bytes())
    }
}

impl Codec for u64 {
    fn write_to(&self, w: &mut Writer) {
        w.write_u64(*self);
    }
    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        r.read_u64()
    }
}

/// Two's complement, as the `u64` of the same bits.
impl Codec for i64 {
    fn write_to(&self, w: &mut Writer) {
        w.write_u64(*self as u64);
    }
    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(r.read_u64()? as i64)
    }
}

/// A count, then each element.
impl<T: Codec> Codec for Vec<T> {
    fn write_to(&self, w: &mut Writer) {
        w.write_seq_len(self.len());
        for item in self {
            item.write_to(w);
        }
    }
    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let len = r.read_seq_len()?;
        let mut out = Vec::new();
        for _ in 0..len {
            out.push(T::read_from(r)?);
        }
        Ok(out)
    }
}

/// The two fields back to back.
impl<A: Codec, B: Codec> Codec for (A, B) {
    fn write_to(&self, w: &mut Writer) {
        self.0.write_to(w);
        self.1.write_to(w);
    }
    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok((A::read_from(r)?, B::read_from(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Encodes one value.
    fn to_bytes<T: Codec>(value: &T) -> Vec<u8> {
        let mut w = Writer::default();
        value.write_to(&mut w);
        w.into_bytes()
    }

    /// Decodes one value from the front of `bytes`.
    fn from_bytes<T: Codec>(bytes: &[u8]) -> Result<T, CodecError> {
        T::read_from(&mut Reader::new(bytes))
    }

    #[test]
    fn primitive_and_vec_round_trip() {
        let v: Vec<u64> = vec![0, 1, 2, u64::MAX];
        let bytes = to_bytes(&v);
        assert_eq!(bytes.len(), 8 + 4 * 8);
        let back: Vec<u64> = from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn nested_tuple_round_trip() {
        // The codec's only tuple shapes are the ones snapshots use:
        // signed and unsigned words, nested pairs.
        let v: Vec<(u64, (i64, u64))> = vec![(1, (-5, 0)), (9, (i64::MIN, u64::MAX))];
        let bytes = to_bytes(&v);
        let back: Vec<(u64, (i64, u64))> = from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = to_bytes(&vec![7u64; 3]);
        let r: Result<Vec<u64>, _> = from_bytes(&bytes[..bytes.len() - 1]);
        assert!(r.is_err());
    }

    #[test]
    fn byte_seq_round_trip_via_bulk_pair() {
        let payload: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let mut w = Writer::default();
        w.write_byte_seq(&payload);
        w.write_u64(0xDEAD);
        let buf = w.into_bytes();
        // Length prefix + raw bytes + trailing word.
        assert_eq!(buf.len(), 8 + payload.len() + 8);
        let mut r = Reader::new(&buf);
        assert_eq!(r.read_byte_seq().unwrap(), payload);
        assert_eq!(r.read_u64().unwrap(), 0xDEAD);
        // Truncated payloads are rejected, not zero-filled.
        let mut r = Reader::new(&buf[..payload.len() / 2]);
        assert!(r.read_byte_seq().is_err());
    }

    #[test]
    fn in_place_byte_seq_matches_the_staged_one() {
        let payload: Vec<u8> = (0..300u16).map(|i| (i * 7) as u8).collect();
        let mut staged = Writer::default();
        staged.write_u64(9);
        staged.write_byte_seq(&payload);
        let mut in_place = Writer::default();
        in_place.write_u64(9);
        in_place.write_byte_seq_with(|out| out.extend_from_slice(&payload));
        let buf = in_place.into_bytes();
        assert_eq!(buf, staged.into_bytes());
        let mut r = Reader::new(&buf);
        assert_eq!(r.read_u64().unwrap(), 9);
        assert_eq!(r.read_byte_slice().unwrap(), &payload[..]);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn u64_words_are_the_per_word_encoding_without_a_count() {
        for words in [
            vec![],
            vec![0u64],
            vec![0, 1, u64::MAX, 0x0102_0304_0506_0708],
        ] {
            let mut bulk = Writer::default();
            bulk.write_u64_words(&words);
            let mut per_word = Writer::default();
            for &w in &words {
                per_word.write_u64(w);
            }
            let buf = bulk.into_bytes();
            assert_eq!(buf, per_word.into_bytes());
            let mut r = Reader::new(&buf);
            assert_eq!(r.read_u64_words(words.len()).unwrap(), words);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn lying_word_counts_are_rejected_before_the_output_grows() {
        let mut w = Writer::default();
        w.write_u64_words(&[1, 2, 3]);
        let buf = w.into_bytes();
        // One word more than the input holds, a count whose byte size
        // overflows `usize`, and one whose byte size would wrap to zero
        // under an unchecked multiply.
        for n in [4, usize::MAX, usize::MAX / 8 + 1] {
            let mut out = Vec::new();
            let err = Reader::new(&buf)
                .read_u64_words_into(n, &mut out)
                .unwrap_err();
            assert_eq!(err.kind(), ErrorKind::LengthOverflow, "count {n}");
            assert_eq!(out.capacity(), 0, "count {n} grew the output");
        }
        // Appends after what the buffer already holds.
        let mut out = vec![9];
        Reader::new(&buf).read_u64_words_into(2, &mut out).unwrap();
        assert_eq!(out, [9, 1, 2]);
    }

    #[test]
    fn inflated_length_prefixes_are_rejected_before_allocation() {
        // A buffer whose only content is a u64 length prefix claiming
        // u64::MAX elements/bytes: every length-prefixed read must
        // reject it as LengthOverflow without allocating.
        let huge = u64::MAX.to_le_bytes();
        let r: Result<Vec<u64>, _> = from_bytes(&huge);
        assert_eq!(r.unwrap_err().kind(), ErrorKind::LengthOverflow);
        let mut rd = Reader::new(&huge);
        assert_eq!(
            rd.read_byte_seq().unwrap_err().kind(),
            ErrorKind::LengthOverflow
        );
        let mut rd = Reader::new(&huge);
        assert_eq!(
            rd.read_string().unwrap_err().kind(),
            ErrorKind::LengthOverflow
        );
        let mut rd = Reader::new(&huge);
        assert_eq!(
            rd.check_str("hh.test.v1").unwrap_err().kind(),
            ErrorKind::LengthOverflow
        );
        // A plausible-but-too-large count is also rejected: 100 claimed
        // elements with 3 trailing bytes cannot be valid.
        let mut buf = 100u64.to_le_bytes().to_vec();
        buf.extend_from_slice(&[1, 2, 3]);
        let r: Result<Vec<u64>, _> = from_bytes(&buf);
        assert_eq!(r.unwrap_err().kind(), ErrorKind::LengthOverflow);
    }

    #[test]
    fn error_kinds_classify_failures() {
        let bytes = to_bytes(&vec![7u64; 3]);
        let r: Result<Vec<u64>, _> = from_bytes(&bytes[..bytes.len() - 1]);
        assert_eq!(r.unwrap_err().kind(), ErrorKind::Truncated);
        assert_eq!(CodecError::invariant("x").kind(), ErrorKind::Invariant);
        assert_eq!(CodecError::invalid("x").kind(), ErrorKind::Invalid);
    }

    #[test]
    fn string_and_option_round_trip() {
        // There is no std `String` or `Option` impl: strings ride the
        // writer's own pair, and the tag check compares in place.
        let mut w = Writer::default();
        w.write_str("heavy hitters");
        w.write_str("hh.test.v1");
        let buf = w.into_bytes();
        let mut r = Reader::new(&buf);
        assert_eq!(r.read_string().unwrap(), "heavy hitters");
        assert!(!r.check_str("hh.test.v2").unwrap());
        assert_eq!(r.remaining(), 0);
        // A non-UTF-8 string is malformed, not a panic.
        let mut bad = 2u64.to_le_bytes().to_vec();
        bad.extend_from_slice(&[0xFF, 0xFE]);
        assert_eq!(
            Reader::new(&bad).read_string().unwrap_err().kind(),
            ErrorKind::Invalid
        );
    }
}
