//! Zipf-distributed item source via rejection-inversion.
//!
//! Implements the Hörmann–Derflinger rejection-inversion sampler for
//! `p(k) ∝ k^{−a}` on `{1, …, n}` (the method behind Apache Commons'
//! `RejectionInversionZipfSampler`): `O(1)` expected time per draw and no
//! `O(n)` table, so the harness can use universes up to `2⁶³` — which the
//! space experiments need, since the `φ⁻¹ log n` term only dominates for
//! large `n`.
//!
//! Item ids are optionally scrambled through a linear bijection of `[n]`
//! so that "heavy" ids are not simply `0, 1, 2, …` (several baseline
//! structures would otherwise enjoy accidental locality).

use crate::ItemSource;
use rand::Rng;

/// Zipf(`a`) sampler over `[0, n)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ZipfGenerator {
    n: u64,
    exponent: f64,
    h_x1: f64,
    h_n: f64,
    s: f64,
    scramble: Option<(u64, u64)>,
}

impl ZipfGenerator {
    /// Zipf sampler with universe size `n ≥ 1` and exponent `a > 0`.
    ///
    /// # Panics
    /// If `n` is zero or `a` is not positive and finite.
    pub fn new(n: u64, exponent: f64) -> Self {
        assert!(n >= 1, "universe must be non-empty");
        assert!(
            exponent > 0.0 && exponent.is_finite(),
            "exponent must be positive"
        );
        let mut g = Self {
            n,
            exponent,
            h_x1: 0.0,
            h_n: 0.0,
            s: 0.0,
            scramble: None,
        };
        g.h_x1 = g.h_integral(1.5) - 1.0;
        g.h_n = g.h_integral(n as f64 + 0.5);
        g.s = 2.0 - g.h_integral_inverse(g.h_integral(2.5) - g.h(2.0));
        g
    }

    /// Scrambles output ids through the bijection `x ↦ (a·x + b) mod n`
    /// (`a` is forced coprime to `n`), decoupling frequency rank from id
    /// order.
    pub fn scrambled<R: Rng + ?Sized>(mut self, rng: &mut R) -> Self {
        let n = self.n;
        if n <= 2 {
            return self;
        }
        let mut a = rng.gen_range(1..n) | 1;
        while gcd(a, n) != 1 {
            a = (a + 2) % n;
            if a == 0 {
                a = 1;
            }
        }
        let b = rng.gen_range(0..n);
        self.scramble = Some((a, b));
        self
    }

    /// The distribution exponent `a`.
    pub fn exponent(&self) -> f64 {
        self.exponent
    }

    /// Probability of the rank-`r` item (1-indexed rank).
    pub fn rank_probability(&self, rank: u64) -> f64 {
        assert!(rank >= 1 && rank <= self.n);
        let z: f64 = (1..=self.n.min(1_000_000))
            .map(|k| (k as f64).powf(-self.exponent))
            .sum();
        (rank as f64).powf(-self.exponent) / z
    }

    /// The id the rank-`r` (1-indexed) item is emitted as, accounting for
    /// scrambling; rank 1 is the most frequent item.
    pub fn id_of_rank(&self, rank: u64) -> u64 {
        let raw = rank - 1;
        match self.scramble {
            Some((a, b)) => ((raw as u128 * a as u128 + b as u128) % self.n as u128) as u64,
            None => raw,
        }
    }

    // h(x) = x^{-a}
    fn h(&self, x: f64) -> f64 {
        (-self.exponent * x.ln()).exp()
    }

    // H(x) = (x^{1−a} − 1)/(1−a), computed stably through (e^t − 1)/t so
    // that a = 1 (where H(x) = ln x) is handled by the same code path.
    fn h_integral(&self, x: f64) -> f64 {
        let log_x = x.ln();
        helper2((1.0 - self.exponent) * log_x) * log_x
    }

    // H^{-1}(u)
    fn h_integral_inverse(&self, u: f64) -> f64 {
        let mut t = u * (1.0 - self.exponent);
        if t < -1.0 {
            t = -1.0;
        }
        (helper1(t) * u).exp()
    }
}

// ln(1+t)/t, stable near 0.
fn helper1(t: f64) -> f64 {
    if t.abs() > 1e-8 {
        t.ln_1p() / t
    } else {
        1.0 - t / 2.0 + t * t / 3.0
    }
}

// (e^t − 1)/t, stable near 0.
fn helper2(t: f64) -> f64 {
    if t.abs() > 1e-8 {
        t.exp_m1() / t
    } else {
        1.0 + t / 2.0 + t * t / 6.0
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

impl ItemSource for ZipfGenerator {
    fn next_item<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        let k = loop {
            let u = self.h_n + rng.gen::<f64>() * (self.h_x1 - self.h_n);
            let x = self.h_integral_inverse(u);
            let k = (x + 0.5).floor().clamp(1.0, self.n as f64);
            if k - x <= self.s || u >= self.h_integral(k + 0.5) - self.h(k) {
                break k as u64;
            }
        };
        self.id_of_rank(k)
    }

    fn universe(&self) -> u64 {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn empirical_top_prob(n: u64, a: f64, draws: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = ZipfGenerator::new(n, a);
        let top = g.id_of_rank(1);
        let hits = (0..draws).filter(|_| g.next_item(&mut rng) == top).count();
        hits as f64 / draws as f64
    }

    #[test]
    fn outputs_stay_in_universe() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = ZipfGenerator::new(100, 1.2).scrambled(&mut rng);
        for _ in 0..10_000 {
            assert!(g.next_item(&mut rng) < 100);
        }
    }

    #[test]
    fn top_item_frequency_matches_theory() {
        for &(n, a) in &[(100u64, 1.0f64), (1000, 1.5), (50, 0.8)] {
            let g = ZipfGenerator::new(n, a);
            let p1 = g.rank_probability(1);
            let emp = empirical_top_prob(n, a, 60_000, 7);
            assert!(
                (emp - p1).abs() < 0.02 + 0.1 * p1,
                "n={n} a={a}: emp {emp} vs theory {p1}"
            );
        }
    }

    #[test]
    fn monotone_decreasing_in_rank() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = ZipfGenerator::new(64, 1.1);
        let mut counts = vec![0u32; 64];
        for _ in 0..200_000 {
            counts[g.next_item(&mut rng) as usize] += 1;
        }
        // Rank 1 clearly above rank 4 above rank 16.
        assert!(counts[0] > counts[3] && counts[3] > counts[15]);
    }

    #[test]
    fn scrambling_is_a_bijection() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = ZipfGenerator::new(101, 1.0).scrambled(&mut rng);
        let ids: std::collections::HashSet<u64> = (1..=101).map(|r| g.id_of_rank(r)).collect();
        assert_eq!(ids.len(), 101);
        assert!(ids.iter().all(|&x| x < 101));
    }

    #[test]
    fn huge_universe_works_without_tables() {
        let mut rng = StdRng::seed_from_u64(8);
        let mut g = ZipfGenerator::new(1 << 62, 1.3);
        for _ in 0..1000 {
            let x = g.next_item(&mut rng);
            assert!(x < (1 << 62));
        }
    }

    #[test]
    #[should_panic(expected = "exponent must be positive")]
    fn bad_exponent_rejected() {
        ZipfGenerator::new(10, 0.0);
    }
}
