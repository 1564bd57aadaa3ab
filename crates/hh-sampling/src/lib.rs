//! Sampling primitives and approximate counters.
//!
//! Everything the paper's algorithms need between the raw stream and their
//! tables lives here:
//!
//! * [`Lemma1Sampler`] — the `O(log log m)`-bit, `O(1)`-time
//!   sample-with-probability-`1/m` primitive of Lemma 1 (optimal by
//!   Proposition 2 of the paper's appendix).
//! * [`BernoulliSampler`] / [`SkipSampler`] — per-item coin flips with
//!   power-of-two probabilities (footnote 3 of the paper) and the
//!   geometric-gap variant that only does work at sampled positions — the
//!   mechanism behind the `O(1)` update-time discussion in §3.1.
//! * [`BitBudget`] / [`BitSkipSampler`] — bit-budgeted randomness for the
//!   per-repetition coins of Algorithm 2's hot path: buffered `k`-bit
//!   slices of one drawn word, and an exact geometric-skip
//!   Bernoulli(2⁻ᵏ) sampler whose common-path cost is one decrement.
//! * [`MorrisCounter`] — the approximate counter of Morris \[Mor78\] analyzed
//!   by Flajolet \[Fla85\], used by the unknown-stream-length constructions
//!   of §3.5 (Theorems 7 and 8).
//! * [`size`] — the sample-size calculators from Lemma 3 (and the DKW
//!   inequality) mapping `(ε, δ)` to the number of samples the algorithms
//!   draw.
//!
//! # Example
//!
//! ```
//! use hh_sampling::{SkipSampler, MorrisCounter};
//! use hh_space::SpaceUsage;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! // Sample ~1/64 of a stream with O(1) work on the common path.
//! let mut sampler = SkipSampler::with_probability(1.0 / 64.0);
//! let hits = (0..10_000).filter(|_| sampler.accept(&mut rng)).count();
//! assert!(hits > 60 && hits < 300);
//!
//! // Count a million events in a handful of bits.
//! let mut morris = MorrisCounter::with_accuracy(0.2);
//! for _ in 0..100_000 { morris.increment(&mut rng); }
//! assert!(morris.estimate() > 30_000.0 && morris.estimate() < 300_000.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bernoulli;
pub mod bitbudget;
pub mod counting_rng;
pub mod lemma1;
pub mod morris;
pub mod size;

pub use bernoulli::{BernoulliSampler, SkipSampler};
pub use bitbudget::{BitBudget, BitSkipSampler};
pub use counting_rng::CountingRng;
pub use lemma1::Lemma1Sampler;
pub use morris::MorrisCounter;
