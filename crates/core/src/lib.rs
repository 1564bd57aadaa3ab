//! The paper's algorithms: optimal ℓ1-heavy hitters and friends.
//!
//! This crate implements every algorithm of Bhattacharyya–Dey–Woodruff,
//! *An Optimal Algorithm for ℓ1-Heavy Hitters in Insertion Streams and
//! Related Problems* (PODS 2016):
//!
//! | Paper | Type | Guarantee |
//! |-------|------|-----------|
//! | Algorithm 1 / Thm 1 | [`SimpleListHh`] | (ε,φ)-heavy hitters, `O(ε⁻¹ log ε⁻¹ + φ⁻¹ log n + log log m)` bits |
//! | Algorithm 2 / Thm 2 | [`OptimalListHh`] | (ε,φ)-heavy hitters, `O(ε⁻¹ log φ⁻¹ + φ⁻¹ log n + log log m)` bits |
//! | Thm 3 | [`EpsMaximum`] | max frequency ±εm, `O(min(ε⁻¹,n) log ε⁻¹ + log n + log log m)` bits |
//! | Algorithm 3 / Thm 4 | [`EpsMinimum`] | min frequency ±εm, `O(ε⁻¹ log log (εδ)⁻¹ + log log m)` bits |
//! | Thm 7 | [`UnknownLengthHh`] | (ε,φ)-heavy hitters without knowing `m` |
//!
//! (The voting-stream algorithms of Theorems 5, 6 and 8 live in the
//! `hh-votes` crate; the baselines the paper improves on live in
//! `hh-baselines`.)
//!
//! # Example
//!
//! ```
//! use hh_core::{HhParams, SimpleListHh, HeavyHitters, StreamSummary};
//!
//! // 1% additive error, report everything above 5% frequency.
//! let params = HhParams::new(0.01, 0.05).unwrap();
//! let m = 100_000u64;
//! let mut algo = SimpleListHh::new(params, 1 << 20, m, 42).unwrap();
//! for i in 0..m {
//!     // item 7 has frequency 50%, the rest is noise
//!     algo.insert(if i % 2 == 0 { 7 } else { i });
//! }
//! let report = algo.report();
//! assert!(report.contains(7));
//! let est = report.estimate(7).unwrap();
//! assert!((est - 50_000.0).abs() <= 0.01 * m as f64);
//! ```
//!
//! # Randomness and determinism
//!
//! Every algorithm owns a seeded [`rand::rngs::StdRng`]; runs are exactly
//! reproducible given the seed. Failure probability δ is a first-class
//! parameter: with probability at most δ a report may violate its
//! guarantee, exactly as in the paper.
//!
//! # Space accounting
//!
//! Every algorithm implements [`hh_space::SpaceUsage`]. `model_bits()`
//! charges the paper's storage model (§2.3): ids at `⌈log₂ range⌉` bits,
//! counters at Elias-gamma width, hash seeds, and `O(log log m)` sampler
//! state. The Table-1 experiments plot that number against the bound
//! formulas in `hh_space::bounds`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod algo1;
pub mod algo2;
pub mod cache;
pub mod config;
pub mod error;
pub mod maximum;
pub mod mergeable;
pub mod mg;
pub mod minimum;
pub mod report;
pub mod traits;
pub mod unknown;

pub use algo1::SimpleListHh;
pub use algo2::{EpochMode, OptimalListHh};
pub use cache::QueryCache;
pub use config::{Constants, HhParams};
pub use error::{MergeError, ParamError, SnapshotError};
pub use maximum::EpsMaximum;
pub use mergeable::MergeableSummary;
pub use mg::MisraGries;
pub use minimum::EpsMinimum;
pub use report::{ItemEstimate, Report};
pub use traits::{FrequencyEstimator, HeavyHitters, StreamSummary};
pub use unknown::{PositionTracking, UnknownLengthHh};

pub mod prelude {
    //! One-line import for downstream crates: the summary traits
    //! (including [`MergeableSummary`]) plus the five paper algorithms
    //! and their parameter type.
    //!
    //! ```
    //! use hh_core::prelude::*;
    //!
    //! let params = HhParams::new(0.01, 0.05).unwrap();
    //! let mut algo = SimpleListHh::new(params, 1 << 20, 1000, 42).unwrap();
    //! algo.insert(7);
    //! assert!(algo.report().estimate(7).is_some());
    //! ```

    pub use crate::config::HhParams;
    pub use crate::mergeable::MergeableSummary;
    pub use crate::report::{ItemEstimate, Report};
    pub use crate::traits::{FrequencyEstimator, HeavyHitters, StreamSummary};
    pub use crate::{EpsMaximum, EpsMinimum, OptimalListHh, SimpleListHh, UnknownLengthHh};
}
