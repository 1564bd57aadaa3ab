//! Bit-budgeted randomness: draw whole `u64` words rarely, spend them in
//! `k`-bit slices.
//!
//! Footnote 3 of the paper rounds every sampling probability to a power
//! of two so that each coin flip is "a masked test of one random word".
//! Taken literally — one fresh word per flip — that is two orders of
//! magnitude more randomness (and RNG latency) than the decisions need:
//! a Bernoulli(2⁻ᵏ) trial consumes exactly `k` bits. [`BitBudget`] makes
//! the literal reading cheap by buffering one word and handing out
//! slices; [`BitSkipSampler`] goes further for *repeated* trials at the
//! same rate, pre-drawing the geometric gap to the next success so the
//! per-trial cost on the common path is a counter decrement.
//!
//! Both are exact: trials are carved from disjoint fresh bits, so the
//! joint distribution of decisions equals independent full-word masked
//! tests. Only the *draw order* against the backing RNG differs, which
//! is why seeded replays remain deterministic but produce a different
//! (equally valid) execution than the one-word-per-flip code they
//! replace.

use hh_space::codec::{Codec, CodecError, Reader, Writer};
use hh_space::space::{delta_bits, gamma_bits, SpaceUsage};
use rand::RngCore;

/// A buffered random-bit source: draws one `u64` at a time from the
/// backing RNG and serves `k`-bit slices out of it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitBudget {
    word: u64,
    left: u32,
}

impl BitBudget {
    /// An empty budget; the first take refills from the RNG.
    pub const fn new() -> Self {
        Self { word: 0, left: 0 }
    }

    /// Takes `k ≤ 64` fresh uniform bits as the low bits of the result.
    ///
    /// A refill discards the remainder of the previous word rather than
    /// splicing across words — slices never straddle a refill, so every
    /// slice is a contiguous run of fresh bits.
    #[inline]
    pub fn take<R: RngCore + ?Sized>(&mut self, k: u32, rng: &mut R) -> u64 {
        debug_assert!(k <= 64, "cannot take more than one word");
        if k == 0 {
            return 0;
        }
        if self.left < k {
            self.word = rng.next_u64();
            self.left = 64;
        }
        let out = if k == 64 {
            self.word
        } else {
            self.word & ((1u64 << k) - 1)
        };
        self.word = self.word.checked_shr(k).unwrap_or(0);
        self.left -= k;
        out
    }

    /// One Bernoulli(2⁻ᵏ) trial: true iff `k` fresh bits are all zero.
    #[inline]
    pub fn trial<R: RngCore + ?Sized>(&mut self, k: u32, rng: &mut R) -> bool {
        self.take(k, rng) == 0
    }

    /// Fresh bits still buffered.
    pub fn remaining(&self) -> u32 {
        self.left
    }
}

impl SpaceUsage for BitBudget {
    fn model_bits(&self) -> u64 {
        // The buffered word is randomness in flight, not summary state;
        // the paper's accounting charges the O(1)-word working store.
        64 + 7
    }
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Field-wise snapshot: the buffered word and the fresh-bit count, so a
/// restored budget hands out the exact slices the original would have.
impl Codec for BitBudget {
    fn write_to(&self, w: &mut Writer) {
        w.write_u64(self.word);
        w.write_u64(self.left as u64);
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let word = r.read_u64()?;
        let left = r.read_u64()?;
        if left > 64 {
            return Err(CodecError::invariant("BitBudget has at most 64 bits"));
        }
        Ok(Self {
            word,
            left: left as u32,
        })
    }
}

/// Geometric-skip sampler for repeated Bernoulli(2⁻ᵏ) trials, driven by
/// raw bits on the hot path.
///
/// Distributionally identical to flipping the coin per trial (and to
/// [`crate::SkipSampler`] at the same exponent), but the gap to the next
/// success is pre-drawn, so the common path per trial is
/// `remaining == 0` / decrement — no RNG call, no float math.
///
/// Gap draws adapt to the exponent. For small `k` (up to
/// [`BitSkipSampler::SCAN_MAX_K`]) the trial sequence is scanned
/// *exactly* in `k`-bit chunks of fresh words — a SWAR zero-chunk test
/// resolves `⌊64/k⌋` trials per word, about one word per gap, with no
/// float math anywhere. Scanning spends `k` bits per trial, i.e.
/// `Θ(k·2ᵏ)` bits per gap, so above the cutoff it would defeat the
/// point of skipping; large exponents instead draw the geometric gap in
/// O(1) by inversion (`⌊ln U / ln(1−2⁻ᵏ)⌋`), exactly as
/// [`crate::SkipSampler`] does for every `k`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitSkipSampler {
    k: u32,
    /// Failing trials remaining before the next success; `0` means the
    /// next trial succeeds.
    remaining: u64,
    primed: bool,
    /// SWAR masks for the zero-chunk scan: ones at each chunk's lowest
    /// bit / highest bit (covering `⌊64/k⌋` chunks; leftover high bits of
    /// a word are discarded).
    lows: u64,
    highs: u64,
}

impl BitSkipSampler {
    /// Largest exponent for which gaps are drawn by the exact bit scan.
    /// At `k = 6` a gap costs an expected `6·2⁶/64 = 6` words; beyond
    /// that the O(1) inversion draw wins (and by `k ≈ 40` scanning would
    /// be a practical hang).
    pub const SCAN_MAX_K: u32 = 6;

    /// Sampler with success probability `2⁻ᵏ`, `k ≤ 64`.
    pub fn with_exponent(k: u32) -> Self {
        assert!(k <= 64, "k must be at most 64");
        Self {
            k,
            remaining: 0,
            primed: false,
            lows: hh_space::swar::lane_lsbs(k),
            highs: hh_space::swar::lane_msbs(k),
        }
    }

    /// The success probability `2⁻ᵏ`.
    pub fn probability(&self) -> f64 {
        (0.5f64).powi(self.k as i32)
    }

    /// The exponent `k` (success probability is `2⁻ᵏ`). Batch callers
    /// use it to predict whether skip-ahead can pay: at `k = 0` every
    /// trial succeeds and there are no runs to skip.
    pub fn exponent(&self) -> u32 {
        self.k
    }

    /// Index of the first all-zero `k`-bit chunk of `w` (low to high),
    /// or `None` if none of the `⌊64/k⌋` covered chunks is zero.
    #[inline]
    fn first_zero_chunk(&self, w: u64) -> Option<u64> {
        if self.k == 1 {
            // Width-1 chunks: a zero chunk is a zero bit.
            return (w != u64::MAX).then(|| u64::from((!w).trailing_zeros()));
        }
        // Shared zero-lane SWAR scan (`hh_space::swar`); the cached
        // `lows`/`highs` constants keep the per-word cost at three ALU
        // operations plus a tzcnt.
        hh_space::swar::first_zero_lane(w, self.k, self.lows, self.highs).map(u64::from)
    }

    #[inline]
    fn draw_gap<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        self.primed = true;
        if self.k == 0 {
            self.remaining = 0;
            return;
        }
        if self.k > Self::SCAN_MAX_K {
            // O(1) inversion draw shared with SkipSampler.
            self.remaining = crate::bernoulli::geometric_gap(self.k, rng);
            return;
        }
        let per_word = (64 / self.k) as u64;
        let mut gap = 0u64;
        loop {
            let w = rng.next_u64();
            match self.first_zero_chunk(w) {
                Some(j) => {
                    self.remaining = gap + j;
                    return;
                }
                None => gap += per_word,
            }
        }
    }

    /// Runs one trial; returns whether it succeeded.
    #[inline]
    pub fn accept<R: RngCore + ?Sized>(&mut self, rng: &mut R) -> bool {
        if !self.primed {
            self.draw_gap(rng);
        }
        if self.remaining == 0 {
            self.draw_gap(rng);
            true
        } else {
            self.remaining -= 1;
            false
        }
    }

    /// Runs up to `n` consecutive trials; returns the offset of the
    /// first success (consuming it), or `None` if all `n` fail.
    ///
    /// Exactly equivalent — including the backing-RNG draw sequence — to
    /// calling [`BitSkipSampler::accept`] up to `n` times and stopping at
    /// the first `true`; see [`crate::SkipSampler::next_within`]. Batch
    /// callers use it to step over whole unsampled runs in one
    /// subtraction.
    #[inline]
    pub fn next_within<R: RngCore + ?Sized>(&mut self, n: u64, rng: &mut R) -> Option<u64> {
        if !self.primed {
            self.draw_gap(rng);
        }
        if self.remaining >= n {
            self.remaining -= n;
            return None;
        }
        let offset = self.remaining;
        self.draw_gap(rng);
        Some(offset)
    }
}

impl SpaceUsage for BitSkipSampler {
    fn model_bits(&self) -> u64 {
        // Exponent + countdown + primed flag; the SWAR masks are derived
        // from k, not stored state.
        delta_bits(self.k as u64) + gamma_bits(self.remaining) + 1
    }
    fn heap_bytes(&self) -> usize {
        0
    }
}

/// Field-wise snapshot of the random state only — exponent, countdown,
/// primed flag; the SWAR masks are derived from the exponent at restore
/// time. Restoring resumes the trial sequence exactly.
impl Codec for BitSkipSampler {
    fn write_to(&self, w: &mut Writer) {
        w.write_u64(self.k as u64);
        w.write_u64(self.remaining);
        w.write_bool(self.primed);
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let k = r.read_u64()?;
        if k > 64 {
            return Err(CodecError::invariant("BitSkipSampler exponent above 64"));
        }
        let remaining = r.read_u64()?;
        let primed = r.read_bool()?;
        let mut s = Self::with_exponent(k as u32);
        s.remaining = remaining;
        s.primed = primed;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CountingRng;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn take_returns_k_low_bits_and_refills() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut b = BitBudget::new();
        // 16 four-bit takes consume exactly one word.
        let mut counting = CountingRng::new(StdRng::seed_from_u64(1));
        for _ in 0..16 {
            let v = b.take(4, &mut counting);
            assert!(v < 16);
        }
        assert_eq!(counting.bits_drawn(), 64);
        // Taking zero bits consumes nothing.
        assert_eq!(b.take(0, &mut rng), 0);
        // A full-word take works.
        let mut c = BitBudget::new();
        let _ = c.take(64, &mut rng);
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn slices_reassemble_the_backing_words() {
        // Slices must be the exact low-to-high bits of the drawn words.
        let mut raw = StdRng::seed_from_u64(77);
        let expected: u64 = rand::RngCore::next_u64(&mut raw);
        let mut b = BitBudget::new();
        let mut replay = StdRng::seed_from_u64(77);
        let mut got = 0u64;
        for i in 0..8 {
            got |= b.take(8, &mut replay) << (8 * i);
        }
        assert_eq!(got, expected);
    }

    #[test]
    fn trial_rate_matches_exponent() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut b = BitBudget::new();
        let n = 1 << 18;
        for k in [1u32, 4, 7] {
            let hits = (0..n).filter(|_| b.trial(k, &mut rng)).count() as f64;
            let expect = n as f64 * (0.5f64).powi(k as i32);
            assert!(
                (hits - expect).abs() < 6.0 * expect.sqrt() + 6.0,
                "k={k}: {hits} vs {expect}"
            );
        }
    }

    #[test]
    fn skip_rate_matches_coin_for_various_k() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 1 << 18;
        for k in [0u32, 1, 2, 4, 5, 11] {
            let mut s = BitSkipSampler::with_exponent(k);
            let hits = (0..n).filter(|_| s.accept(&mut rng)).count() as f64;
            let expect = n as f64 * (0.5f64).powi(k as i32);
            assert!(
                (hits - expect).abs() < 6.0 * expect.sqrt() + 6.0,
                "k={k}: {hits} vs {expect}"
            );
        }
    }

    #[test]
    fn skip_gaps_are_geometric() {
        let mut rng = StdRng::seed_from_u64(7);
        let k = 4u32;
        let mut s = BitSkipSampler::with_exponent(k);
        let mut gaps = Vec::new();
        let mut since = 0u64;
        for _ in 0..1 << 18 {
            if s.accept(&mut rng) {
                gaps.push(since);
                since = 0;
            } else {
                since += 1;
            }
        }
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        let expect = (1u64 << k) as f64 - 1.0;
        assert!(
            (mean - expect).abs() < 0.1 * expect,
            "mean gap {mean} vs {expect}"
        );
    }

    #[test]
    fn first_zero_chunk_agrees_with_naive_scan() {
        let mut rng = StdRng::seed_from_u64(9);
        for k in [1u32, 2, 3, 4, 5, 8, 13, 21, 32, 63, 64] {
            let s = BitSkipSampler::with_exponent(k);
            let chunks = 64 / k;
            for _ in 0..500 {
                let w: u64 = rand::Rng::gen(&mut rng);
                let naive = (0..chunks).find(|&c| {
                    let chunk = (w >> (c * k)) & (u64::MAX >> (64 - k));
                    chunk == 0
                });
                assert_eq!(
                    s.first_zero_chunk(w),
                    naive.map(u64::from),
                    "k={k} w={w:#x}"
                );
            }
        }
    }

    #[test]
    fn large_exponent_gaps_cost_constant_randomness() {
        // Above SCAN_MAX_K the gap draw must be O(1) randomness, not a
        // Theta(k * 2^k)-bit scan: at k = 20, offering a full expected
        // gap's worth of trials must cost a bounded number of words.
        let k = 20u32;
        let mut s = BitSkipSampler::with_exponent(k);
        let mut rng = CountingRng::new(StdRng::seed_from_u64(4));
        let trials = 1u64 << 21; // ~2 expected successes
        let mut hits = 0u64;
        for _ in 0..trials {
            hits += u64::from(s.accept(&mut rng));
        }
        // One 64-bit word per gap draw (one draw per success, plus the
        // initial priming), with generous slack for the rejection path.
        assert!(
            rng.bits_drawn() <= 64 * 4 * (hits + 2),
            "drew {} bits for {} successes",
            rng.bits_drawn(),
            hits
        );
        // And the rate is still right.
        let expect = (trials >> k) as f64;
        assert!((hits as f64) < 8.0 * expect + 8.0, "rate off: {hits}");
    }

    #[test]
    fn inversion_path_gaps_are_geometric() {
        // Mean gap 2^k − 1 must hold on the large-k (inversion) path too.
        let mut rng = StdRng::seed_from_u64(17);
        let k = 9u32;
        let mut s = BitSkipSampler::with_exponent(k);
        let mut gaps = Vec::new();
        let mut since = 0u64;
        for _ in 0..1 << 21 {
            if s.accept(&mut rng) {
                gaps.push(since);
                since = 0;
            } else {
                since += 1;
            }
        }
        let mean = gaps.iter().sum::<u64>() as f64 / gaps.len() as f64;
        let expect = (1u64 << k) as f64 - 1.0;
        assert!(
            (mean - expect).abs() < 0.15 * expect,
            "mean gap {mean} vs {expect} over {} gaps",
            gaps.len()
        );
    }

    #[test]
    fn huge_exponents_accept_essentially_never() {
        // Regression: with the naive ln(1 - p) denominator, 1 - 2^-k
        // rounds to 1.0 for k >= 54 and the sampler accepted *every*
        // trial. With ln_1p the acceptance rate is ~2^-k, i.e. zero at
        // any observable scale.
        for k in [54u32, 60, 64] {
            let mut s = BitSkipSampler::with_exponent(k);
            let mut rng = StdRng::seed_from_u64(k as u64);
            let hits = (0..10_000).filter(|_| s.accept(&mut rng)).count();
            assert_eq!(hits, 0, "k={k} accepted {hits}/10000");
        }
    }

    #[test]
    fn probability_one_accepts_everything() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = BitSkipSampler::with_exponent(0);
        assert!((0..100).all(|_| s.accept(&mut rng)));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut rng = StdRng::seed_from_u64(33);
            let mut s = BitSkipSampler::with_exponent(3);
            (0..1000).map(|_| s.accept(&mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn next_within_matches_per_trial_accept() {
        // Batched skipping must reproduce the per-trial accept sequence
        // bit-for-bit (both scan-path and inversion-path exponents).
        for k in [1u32, 4, 6, 9] {
            let n_trials = 60_000u64;
            let mut scalar = BitSkipSampler::with_exponent(k);
            let mut rng_a = StdRng::seed_from_u64(7 + k as u64);
            let scalar_hits: Vec<u64> = (0..n_trials)
                .filter(|_| scalar.accept(&mut rng_a))
                .collect();
            let mut batch = BitSkipSampler::with_exponent(k);
            let mut rng_b = StdRng::seed_from_u64(7 + k as u64);
            let mut batch_hits = Vec::new();
            let mut pos = 0u64;
            for len in std::iter::repeat([3u64, 1, 513, 8192]).flatten() {
                if pos >= n_trials {
                    break;
                }
                let len = len.min(n_trials - pos);
                let mut off = 0u64;
                while let Some(j) = batch.next_within(len - off, &mut rng_b) {
                    batch_hits.push(pos + off + j);
                    off += j + 1;
                }
                pos += len;
            }
            assert_eq!(batch_hits, scalar_hits, "k={k}");
        }
    }

    #[test]
    fn randomness_budget_is_near_information_bound() {
        // ~64/k trials per word: the skip form spends ~1 word per 2^k
        // trials at k=8 (one gap draw per success, ~2^k/(64/k) words each).
        let k = 8u32;
        let items = 1u64 << 16;
        let mut s = BitSkipSampler::with_exponent(k);
        let mut rng = CountingRng::new(StdRng::seed_from_u64(3));
        for _ in 0..items {
            let _ = s.accept(&mut rng);
        }
        // k bits of information per trial is the bound; allow 3x slack
        // for discarded word remainders.
        assert!(
            rng.bits_drawn() < 3 * items * k as u64,
            "drew {} bits for {} trials",
            rng.bits_drawn(),
            items
        );
    }

    #[test]
    fn space_stays_tiny() {
        let s = BitSkipSampler::with_exponent(20);
        assert!(s.model_bits() < 64);
    }
}
