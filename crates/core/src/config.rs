//! Problem parameters and internal constants profiles.

use crate::error::ParamError;
use hh_space::codec::{Codec, CodecError, Reader, Writer};

/// The `(ε, φ, δ)` triple of Definition 1: additive error `εm`, report
/// threshold `φm`, failure probability `δ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HhParams {
    eps: f64,
    phi: f64,
    delta: f64,
}

/// Field-wise snapshot of the validated `(ε, φ, δ)` triple; restore
/// re-runs the constructor validation, so a corrupted buffer cannot
/// smuggle in an invalid configuration.
impl Codec for HhParams {
    fn write_to(&self, w: &mut Writer) {
        w.write_f64(self.eps);
        w.write_f64(self.phi);
        w.write_f64(self.delta);
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let eps = r.read_f64()?;
        let phi = r.read_f64()?;
        let delta = r.read_f64()?;
        Self::with_delta(eps, phi, delta).map_err(CodecError::invariant)
    }
}

impl HhParams {
    /// Default failure probability. The paper states results "with
    /// arbitrarily large constant probability"; we default to 90%.
    pub const DEFAULT_DELTA: f64 = 0.1;

    /// Validates `0 < ε < φ ≤ 1` with the default δ.
    pub fn new(eps: f64, phi: f64) -> Result<Self, ParamError> {
        Self::with_delta(eps, phi, Self::DEFAULT_DELTA)
    }

    /// Validates `0 < ε < φ ≤ 1` and `δ ∈ (0, 1)`.
    pub fn with_delta(eps: f64, phi: f64, delta: f64) -> Result<Self, ParamError> {
        if !(eps > 0.0 && eps < 1.0 && eps.is_finite()) {
            return Err(ParamError::EpsOutOfRange(eps));
        }
        if !(phi > 0.0 && phi <= 1.0 && phi.is_finite()) {
            return Err(ParamError::PhiOutOfRange(phi));
        }
        if eps >= phi {
            return Err(ParamError::EpsNotBelowPhi { eps, phi });
        }
        if !(delta > 0.0 && delta < 1.0 && delta.is_finite()) {
            return Err(ParamError::DeltaOutOfRange(delta));
        }
        Ok(Self { eps, phi, delta })
    }

    /// Additive error fraction ε.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Report threshold fraction φ.
    pub fn phi(&self) -> f64 {
        self.phi
    }

    /// Failure probability δ.
    pub fn delta(&self) -> f64 {
        self.delta
    }
}

/// Internal constants of Algorithms 1–3.
///
/// The paper fixes proof-convenient constants ("the numerical constants
/// are chosen for convenience of analysis and have not been optimized",
/// §3.1.2). Both profiles keep the *formulas*; only the multipliers
/// differ. Experiments state which profile they use; the practical profile
/// is the default and is what the guarantee experiments (E11) validate
/// empirically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constants {
    /// Sample-budget multiplier: Algorithm 1 draws
    /// `ℓ = sample_factor · ln(6/δ) / ε²` samples in expectation
    /// (paper: 6, plus a hidden 6× in `p = 6ℓ/m`).
    pub sample_factor: f64,
    /// Misra–Gries table capacity: `⌈mg_capacity_factor / ε⌉` counters
    /// (paper: 1/ε; we default to 4/ε so the MG error `s/k` consumes only
    /// a quarter of the ε budget).
    pub mg_capacity_factor: f64,
    /// Hashed-id range: `⌈hash_range_factor · s_max² / δ⌉` where `s_max`
    /// is the high-probability cap on the sample count (paper: 4ℓ²/δ).
    pub hash_range_factor: f64,
    /// Algorithm 2 sample budget: `ℓ = a2_sample_factor / ε²`
    /// (paper: 10⁵).
    pub a2_sample_factor: f64,
    /// Algorithm 2 bucket count: `⌈a2_bucket_factor / ε⌉` hash buckets per
    /// repetition (paper: 100), realized as the doubled power of two that
    /// keeps the plain-universal repetition hash within the `1/buckets`
    /// collision budget (see `MultiplyShift64Family::covering_universal`).
    pub a2_bucket_factor: f64,
    /// Algorithm 2 repetitions: `max(a2_rep_min, ⌈a2_rep_factor·ln(12/φ)⌉)`
    /// (paper: 200·log(12/φ)).
    pub a2_rep_factor: f64,
    /// Minimum number of Algorithm 2 repetitions.
    pub a2_rep_min: usize,
    /// Algorithm 2 epoch scale: epoch `t = ⌊log₂(a2_epoch_scale·T2²)⌋`
    /// (paper: 10⁻⁶).
    pub a2_epoch_scale: f64,
    /// Algorithm 2 candidate-table capacity factor: `⌈a2_t1_factor/φ⌉`
    /// Misra-Gries entries over raw ids (paper: 2).
    pub a2_t1_factor: f64,
    /// ε-Minimum `S1` budget: `ℓ₁ = min_l1_factor · ln(6/(εδ)) / ε`
    /// (paper: 1).
    pub min_l1_factor: f64,
    /// ε-Minimum `S3` budget: `ℓ₃ = min_l3_factor · ln³(6/(εδ)) / ε`
    /// (paper: ln⁶ with factor 1; the practical profile lowers the power
    /// to 3 — see DESIGN.md substitutions).
    pub min_l3_factor: f64,
    /// ε-Minimum truncation cap: `min_cap_factor · ln⁴(2/(εδ))`
    /// (paper: 2·ln⁷).
    pub min_cap_factor: f64,
    /// Unknown-length growth factor `g`: instances cover stream-length
    /// ranges `[ℓ·gᵏ, ℓ·gᵏ⁺¹)` and at most `1/g` of the stream is
    /// discarded at a hand-over (paper: g = 1/ε).
    pub growth_factor_min: f64,
}

impl Constants {
    /// Constants exactly as printed in the paper's pseudocode. Runs are
    /// extremely conservative (e.g. `ℓ = 10⁵/ε²` samples for
    /// Algorithm 2).
    pub fn paper() -> Self {
        Self {
            sample_factor: 6.0,
            mg_capacity_factor: 1.0,
            hash_range_factor: 4.0,
            a2_sample_factor: 1e5,
            a2_bucket_factor: 100.0,
            a2_rep_factor: 200.0,
            a2_rep_min: 1,
            a2_epoch_scale: 1e-6,
            a2_t1_factor: 2.0,
            min_l1_factor: 1.0,
            min_l3_factor: 1.0,
            min_cap_factor: 2.0,
            growth_factor_min: 4.0,
        }
    }

    /// Smaller multipliers with the same asymptotics; validated
    /// empirically by experiment E11. This is the default profile.
    ///
    /// On `a2_sample_factor`: the paper's 10⁵ (and this profile's earlier
    /// 4·10³) keeps `ℓ = Θ(ε⁻²)` so conservative that `p = min(2ℓ/m, 1)`
    /// saturates at 1 on any stream short of m ≈ 10⁸, which silently
    /// moves Algorithm 2 out of the sampled regime its O(1)-amortized
    /// update analysis (§3.1) describes — every item then pays the full
    /// `R` repetitions. 250 keeps ℓ ≈ 5× Algorithm 1's effective
    /// per-sample budget (`6·ln(6/δ) ≈ 46` per ε⁻²), which leaves the
    /// (φ − ε)-separation margins at tens of standard deviations on the
    /// E11 workloads while letting realistic stream lengths actually
    /// sample (see DESIGN.md).
    pub fn practical() -> Self {
        Self {
            sample_factor: 16.0,
            mg_capacity_factor: 4.0,
            hash_range_factor: 1.0,
            a2_sample_factor: 250.0,
            // 24 (not 32): after the ×2 universality rounding the bucket
            // count lands one power of two lower across the working ε
            // range, which keeps the per-repetition epoch cache L1-sized;
            // the realized collision bound 2/2^l ≤ ε/24 still clears the
            // ε-budget share the bucket analysis allots.
            a2_bucket_factor: 24.0,
            a2_rep_factor: 5.0,
            a2_rep_min: 7,
            a2_epoch_scale: 4e-4,
            a2_t1_factor: 2.0,
            min_l1_factor: 2.0,
            min_l3_factor: 4.0,
            min_cap_factor: 8.0,
            growth_factor_min: 4.0,
        }
    }
}

impl Default for Constants {
    fn default() -> Self {
        Self::practical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_params_accepted() {
        let p = HhParams::new(0.01, 0.1).unwrap();
        assert_eq!(p.eps(), 0.01);
        assert_eq!(p.phi(), 0.1);
        assert_eq!(p.delta(), HhParams::DEFAULT_DELTA);
    }

    #[test]
    fn phi_equal_one_allowed() {
        assert!(HhParams::new(0.5, 1.0).is_ok());
    }

    #[test]
    fn eps_must_be_below_phi() {
        assert_eq!(
            HhParams::new(0.1, 0.1),
            Err(ParamError::EpsNotBelowPhi { eps: 0.1, phi: 0.1 })
        );
        assert!(HhParams::new(0.2, 0.1).is_err());
    }

    #[test]
    fn out_of_range_rejected() {
        assert!(matches!(
            HhParams::new(0.0, 0.5),
            Err(ParamError::EpsOutOfRange(_))
        ));
        assert!(matches!(
            HhParams::new(0.1, 1.5),
            Err(ParamError::PhiOutOfRange(_))
        ));
        assert!(matches!(
            HhParams::with_delta(0.1, 0.5, 0.0),
            Err(ParamError::DeltaOutOfRange(_))
        ));
        assert!(matches!(
            HhParams::new(f64::NAN, 0.5),
            Err(ParamError::EpsOutOfRange(_))
        ));
    }

    #[test]
    fn profiles_differ_but_paper_is_more_conservative() {
        let paper = Constants::paper();
        let practical = Constants::practical();
        assert!(paper.a2_sample_factor > practical.a2_sample_factor);
        assert!(paper.a2_rep_factor > practical.a2_rep_factor);
        assert_eq!(Constants::default(), practical);
    }
}
