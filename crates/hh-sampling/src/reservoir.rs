//! Reservoir sampling (Vitter's Algorithm R).
//!
//! Maintains a uniform sample of fixed size `k` from a stream of unknown
//! length — the practical companion to §3.5: where Theorem 7 restarts
//! fixed-probability instances as the stream outgrows its guess, the
//! voting algorithms (Theorem 8) can equivalently keep an `ℓ`-vote
//! reservoir, which is what [`ReservoirSampler`] provides.

use hh_space::SpaceUsage;
use rand::Rng;

/// Uniform fixed-size sample over a stream of unknown length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReservoirSampler<T> {
    sample: Vec<T>,
    capacity: usize,
    seen: u64,
}

impl<T> ReservoirSampler<T> {
    /// Reservoir holding `capacity` items.
    ///
    /// # Panics
    /// If `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Self {
            sample: Vec::with_capacity(capacity),
            capacity,
            seen: 0,
        }
    }

    /// Offers one item.
    pub fn offer<R: Rng + ?Sized>(&mut self, item: T, rng: &mut R) {
        self.seen += 1;
        if self.sample.len() < self.capacity {
            self.sample.push(item);
        } else {
            let j = rng.gen_range(0..self.seen);
            if (j as usize) < self.capacity {
                self.sample[j as usize] = item;
            }
        }
    }

    /// The current sample (uniform over the items seen so far).
    pub fn sample(&self) -> &[T] {
        &self.sample
    }

    /// Total items offered.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the reservoir has filled to capacity.
    pub fn is_full(&self) -> bool {
        self.sample.len() == self.capacity
    }
}

impl<T: SpaceUsage> SpaceUsage for ReservoirSampler<T> {
    fn model_bits(&self) -> u64 {
        // Stored items plus the stream-position counter (log m bits; the
        // unknown-length wrappers replace this with a Morris counter).
        self.sample.model_bits() + hh_space::space::gamma_bits(self.seen)
    }
    fn heap_bytes(&self) -> usize {
        self.sample.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fills_then_stays_at_capacity() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut r = ReservoirSampler::new(10);
        for i in 0..5u64 {
            r.offer(i, &mut rng);
        }
        assert_eq!(r.sample().len(), 5);
        assert!(!r.is_full());
        for i in 5..100u64 {
            r.offer(i, &mut rng);
        }
        assert_eq!(r.sample().len(), 10);
        assert!(r.is_full());
        assert_eq!(r.seen(), 100);
    }

    #[test]
    fn uniformity_of_inclusion() {
        // Offer 0..50 into a size-5 reservoir many times; each item should
        // be included with probability ≈ 5/50 = 0.1.
        let mut rng = StdRng::seed_from_u64(8);
        let n = 50u64;
        let runs = 20_000;
        let mut counts = vec![0u32; n as usize];
        for _ in 0..runs {
            let mut r = ReservoirSampler::new(5);
            for i in 0..n {
                r.offer(i, &mut rng);
            }
            for &x in r.sample() {
                counts[x as usize] += 1;
            }
        }
        let expect = runs as f64 * 5.0 / n as f64;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.12, "item {i}: {c} vs {expect}");
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        ReservoirSampler::<u64>::new(0);
    }
}
