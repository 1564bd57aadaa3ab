//! Exact election tallies — the ground-truth oracle for the voting
//! experiments.

use crate::ranking::Ranking;

/// An exact tally over a (small enough to store) list of votes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Election {
    n: usize,
    votes: u64,
    /// `pairwise[x][y]` = number of votes ranking `x` ahead of `y`.
    pairwise: Vec<Vec<u64>>,
    borda: Vec<u64>,
    plurality: Vec<u64>,
    veto: Vec<u64>,
}

impl Election {
    /// Empty election over `n` candidates.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            votes: 0,
            pairwise: vec![vec![0; n]; n],
            borda: vec![0; n],
            plurality: vec![0; n],
            veto: vec![0; n],
        }
    }

    /// Tallies a full vote list.
    pub fn from_votes(n: usize, votes: &[Ranking]) -> Self {
        let mut e = Self::new(n);
        for v in votes {
            e.add_vote(v);
        }
        e
    }

    /// Registers one vote.
    pub fn add_vote(&mut self, vote: &Ranking) {
        assert_eq!(vote.len(), self.n, "vote arity mismatch");
        self.votes += 1;
        let order = vote.order();
        for (i, &c) in order.iter().enumerate() {
            self.borda[c as usize] += (self.n - 1 - i) as u64;
            for &d in &order[i + 1..] {
                self.pairwise[c as usize][d as usize] += 1;
            }
        }
        self.plurality[vote.top() as usize] += 1;
        self.veto[vote.bottom() as usize] += 1;
    }

    /// Number of candidates.
    pub fn candidates(&self) -> usize {
        self.n
    }

    /// Number of votes `m`.
    pub fn votes(&self) -> u64 {
        self.votes
    }

    /// Exact Borda scores (Definition 6's scoring).
    pub fn borda_scores(&self) -> &[u64] {
        &self.borda
    }

    /// Exact maximin scores: `min_{y≠x} |{votes ranking x ahead of y}|`.
    pub fn maximin_scores(&self) -> Vec<u64> {
        (0..self.n)
            .map(|x| {
                (0..self.n)
                    .filter(|&y| y != x)
                    .map(|y| self.pairwise[x][y])
                    .min()
                    .unwrap_or(self.votes)
            })
            .collect()
    }

    /// Number of votes in which `x` is ranked ahead of `y`.
    pub fn defeats(&self, x: u32, y: u32) -> u64 {
        self.pairwise[x as usize][y as usize]
    }

    /// First-place counts (plurality scores).
    pub fn plurality_scores(&self) -> &[u64] {
        &self.plurality
    }

    /// Last-place counts (veto "dislikes").
    pub fn veto_scores(&self) -> &[u64] {
        &self.veto
    }

    /// The Borda winner (lowest id on ties).
    pub fn borda_winner(&self) -> Option<u32> {
        argmax(&self.borda)
    }

    /// The maximin winner (lowest id on ties).
    pub fn maximin_winner(&self) -> Option<u32> {
        argmax(&self.maximin_scores())
    }

    /// The plurality winner (lowest id on ties).
    pub fn plurality_winner(&self) -> Option<u32> {
        argmax(&self.plurality)
    }

    /// The veto winner: *fewest* last places (lowest id on ties).
    pub fn veto_winner(&self) -> Option<u32> {
        (0..self.n)
            .min_by_key(|&c| (self.veto[c], c))
            .map(|c| c as u32)
    }

    /// The Condorcet winner (beats every other candidate pairwise), if
    /// one exists.
    pub fn condorcet_winner(&self) -> Option<u32> {
        (0..self.n)
            .find(|&x| {
                (0..self.n)
                    .filter(|&y| y != x)
                    .all(|y| 2 * self.pairwise[x][y] > self.votes)
            })
            .map(|x| x as u32)
    }
}

fn argmax(scores: &[u64]) -> Option<u32> {
    if scores.is_empty() {
        return None;
    }
    let mut best = 0usize;
    for i in 1..scores.len() {
        if scores[i] > scores[best] {
            best = i;
        }
    }
    Some(best as u32)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(order: &[u32]) -> Ranking {
        Ranking::new(order.to_vec()).unwrap()
    }

    /// The 5-vote election from the margins example: 3 × (0 ≻ 1 ≻ 2),
    /// 2 × (1 ≻ 2 ≻ 0).
    fn small_election() -> Election {
        let votes = vec![
            r(&[0, 1, 2]),
            r(&[0, 1, 2]),
            r(&[0, 1, 2]),
            r(&[1, 2, 0]),
            r(&[1, 2, 0]),
        ];
        Election::from_votes(3, &votes)
    }

    #[test]
    fn borda_scores_by_hand() {
        let e = small_election();
        // Candidate 0: 3 votes × 2 + 2 × 0 = 6.
        // Candidate 1: 3 × 1 + 2 × 2 = 7.
        // Candidate 2: 3 × 0 + 2 × 1 = 2.
        assert_eq!(e.borda_scores(), &[6, 7, 2]);
        assert_eq!(e.borda_winner(), Some(1));
        // Conservation: Σ scores = m·n(n−1)/2 = 5·3 = 15.
        assert_eq!(e.borda_scores().iter().sum::<u64>(), 15);
    }

    #[test]
    fn pairwise_and_maximin_by_hand() {
        let e = small_election();
        assert_eq!(e.defeats(0, 1), 3);
        assert_eq!(e.defeats(1, 0), 2);
        assert_eq!(e.defeats(1, 2), 5);
        assert_eq!(e.defeats(2, 0), 2);
        // maximin: 0 → min(3, 3) = 3; 1 → min(2, 5) = 2; 2 → min(0, 2)=0.
        assert_eq!(e.maximin_scores(), vec![3, 2, 0]);
        assert_eq!(e.maximin_winner(), Some(0));
        // 0 beats everyone pairwise: Condorcet winner.
        assert_eq!(e.condorcet_winner(), Some(0));
    }

    #[test]
    fn plurality_and_veto() {
        let e = small_election();
        assert_eq!(e.plurality_scores(), &[3, 2, 0]);
        assert_eq!(e.plurality_winner(), Some(0));
        // Last places: candidate 2 in 3 votes, candidate 0 in 2.
        assert_eq!(e.veto_scores(), &[2, 0, 3]);
        assert_eq!(e.veto_winner(), Some(1));
    }

    #[test]
    fn condorcet_cycle_has_no_winner() {
        let votes = vec![r(&[0, 1, 2]), r(&[1, 2, 0]), r(&[2, 0, 1])];
        let e = Election::from_votes(3, &votes);
        assert_eq!(e.condorcet_winner(), None);
        // Fully symmetric: all Borda scores equal.
        assert_eq!(e.borda_scores(), &[3, 3, 3]);
    }

    #[test]
    fn borda_conservation_on_random_votes() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(7);
        let n = 9usize;
        let votes: Vec<Ranking> = (0..200).map(|_| Ranking::random(n, &mut rng)).collect();
        let e = Election::from_votes(n, &votes);
        let total: u64 = e.borda_scores().iter().sum();
        assert_eq!(total, 200 * (n as u64) * (n as u64 - 1) / 2);
        // Maximin never exceeds m.
        assert!(e.maximin_scores().iter().all(|&s| s <= 200));
    }
}
