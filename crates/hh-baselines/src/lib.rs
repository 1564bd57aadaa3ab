//! Baseline frequent-items algorithms — the prior art of §1 of the paper.
//!
//! The paper's headline claim is an improvement over algorithms that all
//! use `Ω(ε⁻¹(log n + log m))` bits: Misra–Gries \[MG82\] (rediscovered by
//! \[DLOM02, KSP03\]), CountSketch \[CCFC04\], Count-Min \[CM05\], sticky
//! sampling and lossy counting \[MM02\], and Space-Saving \[MAE05\]. This
//! crate implements them all behind the same
//! [`hh_core::StreamSummary`]/[`hh_core::HeavyHitters`] traits, with the
//! same honest [`hh_space::SpaceUsage`] accounting, so experiment E7 can
//! put them on one axis:
//!
//! * [`MisraGriesBaseline`] — deterministic, `k` counters over raw ids.
//! * [`SpaceSaving`] — the Stream-Summary linked-bucket structure of
//!   \[MAE05\] with true `O(1)` updates; overestimates, never misses.
//! * [`LossyCounting`] — deterministic windowed pruning \[MM02\].
//! * [`StickySampling`] — probabilistic counting with rate doubling
//!   \[MM02\].
//! * [`CountMin`] — `d×w` counter sketch with upward-biased point queries
//!   \[CM05\], plus a candidate set for heavy-hitter reporting.
//! * [`CountSketch`] — signed median sketch \[CCFC04\].
//! * [`SampleAndHold`] — sample once, count exactly thereafter \[EV03\].
//!
//! The mergeable baselines (Misra–Gries, Space-Saving, Lossy Counting,
//! Count-Min, CountSketch) implement [`hh_core::MergeableSummary`] —
//! merge plus binary snapshot/restore — next to their definitions
//! (DESIGN.md §7); `hh_pipeline::partition_and_merge` runs them in
//! parallel over a split stream.
//!
//! # Example
//!
//! ```
//! use hh_baselines::SpaceSaving;
//! use hh_core::{StreamSummary, HeavyHitters, FrequencyEstimator};
//!
//! let mut ss = SpaceSaving::new(0.05, 0.2, 1 << 20);
//! for i in 0..10_000u64 {
//!     ss.insert(if i % 3 == 0 { 7 } else { i });
//! }
//! assert!(ss.report().contains(7));          // 33% item at phi = 20%
//! assert!(ss.estimate(7) >= 3_333.0);        // never undercounts
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod count_min;
pub mod count_sketch;
pub mod lossy;
#[cfg(test)]
mod merge;
pub mod misra_gries;
pub mod sample_hold;
pub mod space_saving;
pub mod sticky;

pub use count_min::CountMin;
pub use count_sketch::CountSketch;
pub use lossy::LossyCounting;
pub use misra_gries::MisraGriesBaseline;
pub use sample_hold::SampleAndHold;
pub use space_saving::SpaceSaving;
pub use sticky::StickySampling;
