//! Rankings (permutations of the candidate set) and vote models.
//!
//! §2.1: "In the context of voting, the input data is an insertion-only
//! stream over the universe of all possible rankings (permutations)."
//! Uniform rankings (the *impartial culture* of social choice) carry no
//! signal; the [`MallowsModel`] concentrates around a center ranking with
//! geometric dispersion, and [`PlackettLuce`] draws candidates by weight —
//! both are standard vote models and give the experiments workloads where
//! the true winner is designed.

use rand::Rng;

/// A total order of candidates `0..n`: `order[0]` is the most preferred.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ranking {
    order: Vec<u32>,
}

impl Ranking {
    /// Validates that `order` is a permutation of `0..order.len()`.
    pub fn new(order: Vec<u32>) -> Result<Self, String> {
        let n = order.len();
        let mut seen = vec![false; n];
        for &c in &order {
            if (c as usize) >= n {
                return Err(format!("candidate {c} out of range for n={n}"));
            }
            if seen[c as usize] {
                return Err(format!("candidate {c} appears twice"));
            }
            seen[c as usize] = true;
        }
        Ok(Self { order })
    }

    /// The identity ranking `0 ≻ 1 ≻ … ≻ n−1`.
    pub fn identity(n: usize) -> Self {
        Self {
            order: (0..n as u32).collect(),
        }
    }

    /// A uniformly random ranking (impartial culture).
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        use rand::seq::SliceRandom;
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.shuffle(rng);
        Self { order }
    }

    /// Number of candidates.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether the ranking is over zero candidates.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Candidate at rank `pos` (0 = most preferred).
    pub fn at(&self, pos: usize) -> u32 {
        self.order[pos]
    }

    /// The most preferred candidate.
    pub fn top(&self) -> u32 {
        self.order[0]
    }

    /// The least preferred candidate.
    pub fn bottom(&self) -> u32 {
        *self.order.last().expect("non-empty ranking")
    }

    /// The full order, most preferred first.
    pub fn order(&self) -> &[u32] {
        &self.order
    }

    /// Position of each candidate: `positions()[c]` is the rank of `c`.
    pub fn positions(&self) -> Vec<u32> {
        let mut pos = vec![0u32; self.order.len()];
        for (i, &c) in self.order.iter().enumerate() {
            pos[c as usize] = i as u32;
        }
        pos
    }

    /// Whether candidate `a` is ranked ahead of candidate `b`.
    pub fn prefers(&self, a: u32, b: u32) -> bool {
        let pos = self.positions();
        pos[a as usize] < pos[b as usize]
    }

    /// The Borda contribution of candidate `c` in this vote: the number
    /// of candidates ranked behind `c` (Definition 6's scoring).
    pub fn borda_contribution(&self, c: u32) -> u64 {
        let pos = self.positions()[c as usize] as u64;
        (self.order.len() as u64 - 1) - pos
    }

    /// Kendall-tau distance to another ranking (number of discordant
    /// pairs) — the Mallows model's metric.
    pub fn kendall_tau(&self, other: &Ranking) -> u64 {
        assert_eq!(self.len(), other.len(), "rankings must share n");
        let pos = other.positions();
        // Count inversions of self mapped through other's positions.
        let mapped: Vec<u32> = self.order.iter().map(|&c| pos[c as usize]).collect();
        let mut inversions = 0u64;
        for i in 0..mapped.len() {
            for j in (i + 1)..mapped.len() {
                if mapped[i] > mapped[j] {
                    inversions += 1;
                }
            }
        }
        inversions
    }
}

/// The Mallows model: `Pr[π] ∝ dispersion^{d_KT(π, center)}`.
///
/// Sampled by the repeated-insertion method (RIM): candidates are taken
/// in center order and inserted into the growing ranking, position drawn
/// with geometrically decaying weights.
#[derive(Debug, Clone)]
pub struct MallowsModel {
    center: Ranking,
    dispersion: f64,
}

impl MallowsModel {
    /// Mallows model around `center` with `dispersion ∈ (0, 1]`;
    /// dispersion 1 is uniform, dispersion → 0 concentrates on the
    /// center.
    pub fn new(center: Ranking, dispersion: f64) -> Self {
        assert!(
            dispersion > 0.0 && dispersion <= 1.0,
            "dispersion must be in (0, 1]"
        );
        Self { center, dispersion }
    }

    /// The center ranking.
    pub fn center(&self) -> &Ranking {
        &self.center
    }

    /// Draws one vote.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Ranking {
        let n = self.center.len();
        let mut order: Vec<u32> = Vec::with_capacity(n);
        for i in 0..n {
            let c = self.center.at(i);
            // Insert at position j ∈ 0..=i with weight dispersion^(i−j):
            // j = i (the back, agreeing with the center) has weight 1.
            let mut weights = Vec::with_capacity(i + 1);
            let mut w = 1.0f64;
            for _ in 0..=i {
                weights.push(w);
                w *= self.dispersion;
            }
            weights.reverse(); // weights[j] = dispersion^(i−j)
            let total: f64 = weights.iter().sum();
            let mut u = rng.gen::<f64>() * total;
            let mut j = i;
            for (idx, &wj) in weights.iter().enumerate() {
                if u < wj {
                    j = idx;
                    break;
                }
                u -= wj;
            }
            order.insert(j, c);
        }
        Ranking { order }
    }
}

/// The Plackett–Luce model: candidates drawn without replacement with
/// probability proportional to their weight.
#[derive(Debug, Clone)]
pub struct PlackettLuce {
    weights: Vec<f64>,
}

impl PlackettLuce {
    /// Model with one positive weight per candidate.
    pub fn new(weights: Vec<f64>) -> Self {
        assert!(!weights.is_empty(), "need at least one candidate");
        assert!(
            weights.iter().all(|&w| w > 0.0 && w.is_finite()),
            "weights must be positive"
        );
        Self { weights }
    }

    /// Number of candidates.
    pub fn candidates(&self) -> usize {
        self.weights.len()
    }

    /// Draws one vote.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Ranking {
        let n = self.weights.len();
        let mut remaining: Vec<u32> = (0..n as u32).collect();
        let mut weights: Vec<f64> = self.weights.clone();
        let mut order = Vec::with_capacity(n);
        while !remaining.is_empty() {
            let total: f64 = weights.iter().sum();
            let mut u = rng.gen::<f64>() * total;
            let mut pick = remaining.len() - 1;
            for (idx, &w) in weights.iter().enumerate() {
                if u < w {
                    pick = idx;
                    break;
                }
                u -= w;
            }
            order.push(remaining.swap_remove(pick));
            weights.swap_remove(pick);
        }
        Ranking { order }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn validation_rejects_bad_permutations() {
        assert!(Ranking::new(vec![0, 1, 2]).is_ok());
        assert!(Ranking::new(vec![0, 0, 2]).is_err());
        assert!(Ranking::new(vec![0, 3, 1]).is_err());
        assert!(Ranking::new(vec![]).is_ok());
    }

    #[test]
    fn positions_invert_order() {
        let r = Ranking::new(vec![2, 0, 3, 1]).unwrap();
        assert_eq!(r.positions(), vec![1, 3, 0, 2]);
        assert_eq!(r.top(), 2);
        assert_eq!(r.bottom(), 1);
        assert!(r.prefers(2, 0));
        assert!(!r.prefers(1, 3));
    }

    #[test]
    fn borda_contribution_counts_beaten() {
        let r = Ranking::new(vec![2, 0, 3, 1]).unwrap();
        assert_eq!(r.borda_contribution(2), 3);
        assert_eq!(r.borda_contribution(0), 2);
        assert_eq!(r.borda_contribution(3), 1);
        assert_eq!(r.borda_contribution(1), 0);
    }

    #[test]
    fn kendall_tau_basics() {
        let id = Ranking::identity(4);
        assert_eq!(id.kendall_tau(&id), 0);
        let rev = Ranking::new(vec![3, 2, 1, 0]).unwrap();
        assert_eq!(id.kendall_tau(&rev), 6); // n(n−1)/2
        let one_swap = Ranking::new(vec![1, 0, 2, 3]).unwrap();
        assert_eq!(id.kendall_tau(&one_swap), 1);
        assert_eq!(one_swap.kendall_tau(&id), 1); // symmetric
    }

    #[test]
    fn random_rankings_are_valid_and_diverse() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Ranking::random(20, &mut rng);
        let b = Ranking::random(20, &mut rng);
        assert_eq!(a.len(), 20);
        assert!(Ranking::new(a.order().to_vec()).is_ok());
        assert_ne!(a, b, "two random 20-rankings should differ");
    }

    #[test]
    fn mallows_concentrates_near_center() {
        let mut rng = StdRng::seed_from_u64(2);
        let center = Ranking::identity(8);
        let tight = MallowsModel::new(center.clone(), 0.2);
        let loose = MallowsModel::new(center.clone(), 1.0);
        let avg_dist = |model: &MallowsModel, rng: &mut StdRng| -> f64 {
            (0..300)
                .map(|_| model.sample(rng).kendall_tau(&center) as f64)
                .sum::<f64>()
                / 300.0
        };
        let d_tight = avg_dist(&tight, &mut rng);
        let d_loose = avg_dist(&loose, &mut rng);
        assert!(
            d_tight < d_loose / 2.0,
            "tight {d_tight} should be well under loose {d_loose}"
        );
        // Uniform average Kendall distance is n(n−1)/4 = 14.
        assert!((d_loose - 14.0).abs() < 2.0, "loose {d_loose}");
    }

    #[test]
    fn mallows_dispersion_one_is_uniform_on_top_choice() {
        let mut rng = StdRng::seed_from_u64(3);
        let model = MallowsModel::new(Ranking::identity(4), 1.0);
        let mut tops = [0u32; 4];
        for _ in 0..8000 {
            tops[model.sample(&mut rng).top() as usize] += 1;
        }
        for (c, &t) in tops.iter().enumerate() {
            assert!((1600..=2400).contains(&t), "candidate {c}: {t}");
        }
    }

    #[test]
    fn plackett_luce_favors_heavy_weights() {
        let mut rng = StdRng::seed_from_u64(4);
        let model = PlackettLuce::new(vec![8.0, 1.0, 1.0]);
        let mut top0 = 0;
        let trials = 5000;
        for _ in 0..trials {
            if model.sample(&mut rng).top() == 0 {
                top0 += 1;
            }
        }
        let frac = top0 as f64 / trials as f64;
        assert!((frac - 0.8).abs() < 0.04, "top-0 fraction {frac}");
    }

    #[test]
    fn plackett_luce_produces_valid_permutations() {
        let mut rng = StdRng::seed_from_u64(5);
        let model = PlackettLuce::new(vec![1.0; 12]);
        for _ in 0..50 {
            let r = model.sample(&mut rng);
            assert!(Ranking::new(r.order().to_vec()).is_ok());
        }
    }
}
