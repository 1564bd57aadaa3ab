//! The object-safe serving facade: one summary type for all nine
//! implementations.
//!
//! The server hosts tenants whose summary *kind* is chosen per tenant
//! at `Create` time, so its banks cannot be generic over a summary
//! type — they need one runtime type that any of the workspace's nine
//! [`MergeableSummary`] implementations can stand behind.
//! [`DynSummary`] is that type: a boxed [`ErasedSummary`] that
//! implements the full summary contract (`StreamSummary`,
//! `HeavyHitters`, `MergeableSummary`, `SpaceUsage`) by delegation, so
//! everything built for concrete summaries — `ShardRuntime` ingestion,
//! reads under the shard cell locks, merges, checkpoint/recover — works
//! unchanged on the erased type.
//!
//! Two pieces make the erasure total rather than partial:
//!
//! * **Merging** goes through a kind check plus `Any` downcast: merging
//!   two `DynSummary` values of different kinds is a structured
//!   [`MergeError::Incompatible`], same-kind merges delegate to the
//!   concrete summary's own compatibility checks (parameters, seeds).
//! * **Restore** is tag-dispatched: snapshot buffers already carry
//!   `"hh.<type>.vN"` tags, so [`DynSummary::from_bytes`] probes
//!   each kind's decoder and lets the one whose tag matches run its
//!   full fail-closed validation. A buffer matching no kind is a
//!   [`SnapshotError::WrongTag`]; a buffer matching a kind but failing
//!   its validation reports that kind's structured error.
//!
//! Banks are built from [`TenantSpec::build_bank`], which splits seeds
//! exactly like the `hh-pipeline` presets: one *structure seed* shared
//! by every shard of the tenant (merge compatibility), a distinct
//! *stream seed* per shard (independent sampling).

use crate::proto::ProtocolError;
use bytes::Bytes;
use hh_baselines::{CountMin, CountSketch, LossyCounting, MisraGriesBaseline, SpaceSaving};
use hh_core::{
    HeavyHitters, HhParams, ItemEstimate, MergeError, MergeableSummary, MisraGries, OptimalListHh,
    Report, SimpleListHh, SnapshotError, StreamSummary,
};
use hh_dyadic::{DyadicHh, HeavyRange};
use hh_space::SpaceUsage;
use std::any::Any;

/// Which of the nine mergeable summary implementations a tenant runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SummaryKind {
    /// The paper's Algorithm 1 ([`SimpleListHh`]).
    Algo1,
    /// The paper's Algorithm 2 ([`OptimalListHh`]).
    Algo2,
    /// The hashed-id Misra–Gries core primitive ([`MisraGries`]).
    MisraGries,
    /// The raw-id Misra–Gries baseline ([`MisraGriesBaseline`]).
    MisraGriesBaseline,
    /// Space-Saving \[MAE05\] ([`SpaceSaving`]).
    SpaceSaving,
    /// Lossy Counting \[MM02\] ([`LossyCounting`]).
    LossyCounting,
    /// Count-Min \[CM05\] ([`CountMin`]).
    CountMin,
    /// CountSketch \[CCFC04\] ([`CountSketch`]).
    CountSketch,
    /// Dyadic range/prefix bank over Count-Min levels ([`DyadicHh`]) —
    /// the only kind that answers `RangeQuery`/`HeavyRanges`.
    Dyadic,
}

impl SummaryKind {
    /// Every servable kind, in wire-discriminant order (new kinds are
    /// appended — existing codes never move).
    pub const ALL: [SummaryKind; 9] = [
        SummaryKind::Algo1,
        SummaryKind::Algo2,
        SummaryKind::MisraGries,
        SummaryKind::MisraGriesBaseline,
        SummaryKind::SpaceSaving,
        SummaryKind::LossyCounting,
        SummaryKind::CountMin,
        SummaryKind::CountSketch,
        SummaryKind::Dyadic,
    ];

    /// Stable wire discriminant.
    pub fn code(self) -> u64 {
        Self::ALL
            .iter()
            .position(|&k| k == self)
            .expect("every kind is in ALL") as u64
    }

    /// Inverse of [`SummaryKind::code`].
    pub fn from_code(code: u64) -> Option<Self> {
        Self::ALL.get(code as usize).copied()
    }

    /// Human-readable name (matches the snapshot tag families).
    pub fn name(self) -> &'static str {
        match self {
            SummaryKind::Algo1 => "algo1",
            SummaryKind::Algo2 => "algo2",
            SummaryKind::MisraGries => "misra-gries",
            SummaryKind::MisraGriesBaseline => "baseline.misra-gries",
            SummaryKind::SpaceSaving => "baseline.space-saving",
            SummaryKind::LossyCounting => "baseline.lossy-counting",
            SummaryKind::CountMin => "baseline.count-min",
            SummaryKind::CountSketch => "baseline.count-sketch",
            SummaryKind::Dyadic => "dyadic",
        }
    }
}

/// Everything a tenant needs to (re)build its summary bank: the kind,
/// the problem parameters, and the shared structure seed.
///
/// Instances with the same spec are merge-compatible by construction:
/// deterministic kinds need only matching parameters, randomized kinds
/// additionally share `structure_seed` (their hash draws) while each
/// shard's sampling coins come from a derived per-shard stream seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TenantSpec {
    /// Which summary implementation the tenant runs.
    pub kind: SummaryKind,
    /// Additive error ε (fraction of the stream).
    pub eps: f64,
    /// Report threshold φ (fraction of the stream).
    pub phi: f64,
    /// Failure probability δ for the randomized kinds.
    pub delta: f64,
    /// Universe size `n` (ids are in `[0, n)`).
    pub universe: u64,
    /// Advertised stream length `m` (sampling rates key off this).
    pub m: u64,
    /// Structure seed: hash draws, shared across the tenant's shards.
    pub structure_seed: u64,
    /// Shards in the tenant's ingest bank (`1..=MAX_SHARDS`).
    pub shards: u32,
}

/// Upper bound on shards per tenant (a protocol-level sanity cap, not
/// a tuning recommendation).
pub const MAX_SHARDS: u32 = 64;

impl Default for TenantSpec {
    fn default() -> Self {
        Self {
            kind: SummaryKind::SpaceSaving,
            eps: 0.05,
            phi: 0.2,
            delta: 0.1,
            universe: 1 << 32,
            m: 1 << 24,
            structure_seed: 42,
            shards: 1,
        }
    }
}

/// SplitMix64 finalizer (the same mix the pipeline presets use).
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TenantSpec {
    /// Validates every field against its protocol-level range, so the
    /// concrete constructors below can never panic on hostile specs.
    ///
    /// # Errors
    /// [`ProtocolError::BadRequest`] naming the offending field.
    pub fn validate(&self) -> Result<(), ProtocolError> {
        let bad = |what: String| Err(ProtocolError::BadRequest(what));
        if !(self.eps > 0.0 && self.eps < 1.0) {
            return bad(format!("eps {} must be in (0, 1)", self.eps));
        }
        if !(self.phi > 0.0 && self.phi <= 1.0) {
            return bad(format!("phi {} must be in (0, 1]", self.phi));
        }
        if self.eps >= self.phi {
            return bad(format!("eps {} must be below phi {}", self.eps, self.phi));
        }
        if !(self.delta > 0.0 && self.delta < 1.0) {
            return bad(format!("delta {} must be in (0, 1)", self.delta));
        }
        if self.universe == 0 {
            return bad("universe must be at least 1".to_string());
        }
        if self.m == 0 {
            return bad("advertised stream length must be at least 1".to_string());
        }
        if self.shards == 0 || self.shards > MAX_SHARDS {
            return bad(format!(
                "shards {} must be in 1..={MAX_SHARDS}",
                self.shards
            ));
        }
        Ok(())
    }

    /// The stream seed shard `j` of this tenant samples with.
    fn stream_seed(&self, j: usize) -> u64 {
        mix64(mix64(self.structure_seed ^ 0x5EED).wrapping_add(j as u64))
    }

    /// Builds shard `j`'s summary. [`TenantSpec::validate`] must have
    /// passed (the constructors assume in-range parameters).
    fn build_shard(&self, j: usize) -> Result<DynSummary, ProtocolError> {
        let params = HhParams::with_delta(self.eps, self.phi, self.delta)?;
        Ok(match self.kind {
            SummaryKind::Algo1 => DynSummary::new(
                SummaryKind::Algo1,
                SimpleListHh::with_seeds(
                    params,
                    self.universe,
                    self.m,
                    self.structure_seed,
                    self.stream_seed(j),
                )?,
            ),
            SummaryKind::Algo2 => DynSummary::new(
                SummaryKind::Algo2,
                OptimalListHh::with_seeds(
                    params,
                    self.universe,
                    self.m,
                    self.structure_seed,
                    self.stream_seed(j),
                )?,
            ),
            SummaryKind::MisraGries => {
                // k counters bound the undercount by m/(k+1) ≤ εm.
                let capacity = (1.0 / self.eps).ceil() as usize;
                DynSummary::new(
                    SummaryKind::MisraGries,
                    MisraGries::for_universe(capacity, self.universe),
                )
            }
            SummaryKind::MisraGriesBaseline => DynSummary::new(
                SummaryKind::MisraGriesBaseline,
                MisraGriesBaseline::new(self.eps, self.phi, self.universe),
            ),
            SummaryKind::SpaceSaving => DynSummary::new(
                SummaryKind::SpaceSaving,
                SpaceSaving::new(self.eps, self.phi, self.universe),
            ),
            SummaryKind::LossyCounting => DynSummary::new(
                SummaryKind::LossyCounting,
                LossyCounting::new(self.eps, self.phi, self.universe),
            ),
            SummaryKind::CountMin => DynSummary::new(
                SummaryKind::CountMin,
                CountMin::new(
                    self.eps,
                    self.phi,
                    self.delta,
                    self.universe,
                    self.structure_seed,
                ),
            ),
            SummaryKind::CountSketch => DynSummary::new(
                SummaryKind::CountSketch,
                CountSketch::new(
                    self.eps,
                    self.phi,
                    self.delta,
                    self.universe,
                    self.structure_seed,
                ),
            ),
            // The Count-Min bank is deterministic given the structure
            // seed, so every shard is identical and merge-compatible.
            SummaryKind::Dyadic => DynSummary::new(
                SummaryKind::Dyadic,
                DyadicHh::count_min(
                    self.eps,
                    self.phi,
                    self.delta,
                    self.universe,
                    self.structure_seed,
                )?,
            ),
        })
    }

    /// Builds the tenant's full shard bank: `shards` seed-aligned
    /// summaries (shared structure seed, per-shard stream seeds), all
    /// merge-compatible with each other.
    ///
    /// # Errors
    /// [`ProtocolError::BadRequest`] on an out-of-range spec.
    pub fn build_bank(&self) -> Result<Vec<DynSummary>, ProtocolError> {
        self.validate()?;
        (0..self.shards as usize)
            .map(|j| self.build_shard(j))
            .collect()
    }
}

/// The object-safe method set [`DynSummary`] erases to. Implemented by
/// the private `Cell` wrapper for each of the nine kinds; not meant
/// to be implemented outside this module.
pub trait ErasedSummary: Send + Sync {
    /// Which implementation is behind the box.
    fn kind(&self) -> SummaryKind;
    /// [`StreamSummary::insert_batch`].
    fn insert_batch_dyn(&mut self, items: &[u64]);
    /// [`HeavyHitters::report`] (for [`MisraGries`], the full live
    /// entry list as a report — thresholding is the caller's).
    fn report_dyn(&self) -> Report;
    /// [`MergeableSummary::to_bytes`].
    fn to_bytes_dyn(&self) -> Bytes;
    /// Kind-checked [`MergeableSummary::merge_from`].
    fn merge_dyn(&mut self, other: &dyn ErasedSummary) -> Result<(), MergeError>;
    /// Downcast hook for [`ErasedSummary::merge_dyn`].
    fn as_any(&self) -> &dyn Any;
    /// [`Clone`], boxed.
    fn clone_dyn(&self) -> Box<dyn ErasedSummary>;
    /// [`SpaceUsage::heap_bytes`].
    fn heap_bytes_dyn(&self) -> usize;
    /// [`SpaceUsage::model_bits`].
    fn model_bits_dyn(&self) -> u64;
    /// [`DyadicHh::range_estimate`], for the kinds that answer range
    /// queries; `None` from every point summary.
    fn range_estimate_dyn(&self, _lo: u64, _hi: u64) -> Option<f64> {
        None
    }
    /// [`DyadicHh::heavy_ranges`], for the kinds that answer prefix
    /// queries; `None` from every point summary.
    fn heavy_ranges_dyn(&self, _phi: f64) -> Option<Vec<HeavyRange>> {
        None
    }
}

/// A concrete summary paired with its kind tag.
struct Cell<S> {
    kind: SummaryKind,
    inner: S,
}

/// The facade bound: everything the serving surface needs from a
/// concrete summary. All nine kinds satisfy it; `report` is supplied
/// per-kind by the macro below because [`MisraGries`] exposes entries
/// instead of implementing [`HeavyHitters`].
macro_rules! erase {
    ($ty:ty, $report:expr $(, $extra:item)*) => {
        impl ErasedSummary for Cell<$ty> {
            fn kind(&self) -> SummaryKind {
                self.kind
            }
            fn insert_batch_dyn(&mut self, items: &[u64]) {
                self.inner.insert_batch(items);
            }
            fn report_dyn(&self) -> Report {
                #[allow(clippy::redundant_closure_call)]
                ($report)(&self.inner)
            }
            fn to_bytes_dyn(&self) -> Bytes {
                self.inner.to_bytes()
            }
            fn merge_dyn(&mut self, other: &dyn ErasedSummary) -> Result<(), MergeError> {
                match other.as_any().downcast_ref::<Cell<$ty>>() {
                    Some(o) => self.inner.merge_from(&o.inner),
                    None => Err(MergeError::Incompatible("summary kinds")),
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn clone_dyn(&self) -> Box<dyn ErasedSummary> {
                Box::new(Cell {
                    kind: self.kind,
                    inner: self.inner.clone(),
                })
            }
            fn heap_bytes_dyn(&self) -> usize {
                self.inner.heap_bytes()
            }
            fn model_bits_dyn(&self) -> u64 {
                self.inner.model_bits()
            }
            $($extra)*
        }
    };
}

erase!(SimpleListHh, HeavyHitters::report);
erase!(OptimalListHh, HeavyHitters::report);
erase!(MisraGries, |mg: &MisraGries| Report::new(
    mg.live_entries()
        .map(|(item, count)| ItemEstimate {
            item,
            count: count as f64,
        })
        .collect(),
));
erase!(MisraGriesBaseline, HeavyHitters::report);
erase!(SpaceSaving, HeavyHitters::report);
erase!(LossyCounting, HeavyHitters::report);
erase!(CountMin, HeavyHitters::report);
erase!(CountSketch, HeavyHitters::report);
erase!(
    DyadicHh<CountMin>,
    HeavyHitters::report,
    fn range_estimate_dyn(&self, lo: u64, hi: u64) -> Option<f64> {
        Some(self.inner.range_estimate(lo, hi))
    },
    fn heavy_ranges_dyn(&self, phi: f64) -> Option<Vec<HeavyRange>> {
        Some(self.inner.heavy_ranges(phi))
    }
);

/// Any of the nine summary implementations behind one runtime type.
///
/// Implements the whole summary contract by delegation, so the shard
/// runtime, the tenant read path, and the snapshot/checkpoint machinery
/// all work on it unchanged. Restore is tag-dispatched across all
/// kinds; see the module docs.
pub struct DynSummary(Box<dyn ErasedSummary>);

impl std::fmt::Debug for DynSummary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DynSummary")
            .field("kind", &self.0.kind())
            .finish_non_exhaustive()
    }
}

impl Clone for DynSummary {
    fn clone(&self) -> Self {
        Self(self.0.clone_dyn())
    }
}

impl DynSummary {
    /// Erases a concrete summary under its kind tag.
    fn new<S>(kind: SummaryKind, inner: S) -> Self
    where
        Cell<S>: ErasedSummary + 'static,
    {
        Self(Box::new(Cell { kind, inner }))
    }

    /// Which implementation is behind the facade.
    pub fn kind(&self) -> SummaryKind {
        self.0.kind()
    }

    /// Estimated mass of the inclusive id range `[lo, hi]`; `None`
    /// unless the tenant runs the [`SummaryKind::Dyadic`] kind.
    pub fn range_estimate(&self, lo: u64, hi: u64) -> Option<f64> {
        self.0.range_estimate_dyn(lo, hi)
    }

    /// Heavy dyadic intervals at threshold `phi`; `None` unless the
    /// tenant runs the [`SummaryKind::Dyadic`] kind.
    pub fn heavy_ranges(&self, phi: f64) -> Option<Vec<HeavyRange>> {
        self.0.heavy_ranges_dyn(phi)
    }

    /// Restores `bytes` as a `kind` summary through `S`'s decoder.
    fn restore_as<S: MergeableSummary>(
        kind: SummaryKind,
        bytes: &[u8],
    ) -> Result<Self, SnapshotError>
    where
        Cell<S>: ErasedSummary + 'static,
    {
        S::from_bytes(bytes).map(|s| Self::new(kind, s))
    }

    /// Restores whichever kind's snapshot tag `bytes` carries; tried in
    /// [`SummaryKind::ALL`] order.
    fn restore_any(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut wrong_tag = None;
        for kind in SummaryKind::ALL {
            let outcome = match kind {
                SummaryKind::Algo1 => Self::restore_as::<SimpleListHh>(kind, bytes),
                SummaryKind::Algo2 => Self::restore_as::<OptimalListHh>(kind, bytes),
                SummaryKind::MisraGries => Self::restore_as::<MisraGries>(kind, bytes),
                SummaryKind::MisraGriesBaseline => {
                    Self::restore_as::<MisraGriesBaseline>(kind, bytes)
                }
                SummaryKind::SpaceSaving => Self::restore_as::<SpaceSaving>(kind, bytes),
                SummaryKind::LossyCounting => Self::restore_as::<LossyCounting>(kind, bytes),
                SummaryKind::CountMin => Self::restore_as::<CountMin>(kind, bytes),
                SummaryKind::CountSketch => Self::restore_as::<CountSketch>(kind, bytes),
                SummaryKind::Dyadic => Self::restore_as::<DyadicHh<CountMin>>(kind, bytes),
            };
            match outcome {
                Ok(restored) => return Ok(restored),
                // Another kind may still claim the tag; remember the
                // first mismatch in case none does.
                Err(SnapshotError::WrongTag { expected, found }) => {
                    wrong_tag.get_or_insert(SnapshotError::WrongTag { expected, found });
                }
                // The tag matched this kind and its fail-closed decoder
                // rejected the payload: that is the definitive error.
                Err(e) => return Err(e),
            }
        }
        Err(wrong_tag.unwrap_or(SnapshotError::Truncated))
    }
}

impl StreamSummary for DynSummary {
    fn insert(&mut self, item: u64) {
        self.0.insert_batch_dyn(&[item]);
    }

    fn insert_batch(&mut self, items: &[u64]) {
        self.0.insert_batch_dyn(items);
    }
}

impl HeavyHitters for DynSummary {
    fn report(&self) -> Report {
        self.0.report_dyn()
    }
}

impl MergeableSummary for DynSummary {
    fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        self.0.merge_dyn(&*other.0)
    }

    fn to_bytes(&self) -> Bytes {
        self.0.to_bytes_dyn()
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        Self::restore_any(bytes)
    }
}

impl SpaceUsage for DynSummary {
    fn model_bits(&self) -> u64 {
        self.0.model_bits_dyn()
    }

    fn heap_bytes(&self) -> usize {
        self.0.heap_bytes_dyn()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(kind: SummaryKind) -> TenantSpec {
        TenantSpec {
            kind,
            m: 100_000,
            universe: 1 << 20,
            ..TenantSpec::default()
        }
    }

    #[test]
    fn every_kind_builds_ingests_reports_and_roundtrips() {
        for kind in SummaryKind::ALL {
            let mut bank = spec(kind).build_bank().unwrap();
            assert_eq!(bank.len(), 1, "{kind:?}");
            let s = &mut bank[0];
            let stream: Vec<u64> = (0..50_000u64)
                .map(|i| if i % 3 == 0 { 7 } else { i })
                .collect();
            s.insert_batch(&stream);
            assert!(s.report().contains(7), "{kind:?} lost the 33% item");
            let bytes = s.to_bytes();
            let back = DynSummary::from_bytes(&bytes).unwrap();
            assert_eq!(back.kind(), kind, "tag dispatch picked the wrong kind");
            assert_eq!(back.to_bytes(), bytes, "{kind:?} restore not bit-identical");
        }
    }

    #[test]
    fn shards_are_seed_aligned_and_merge() {
        for kind in SummaryKind::ALL {
            let mut bank = spec(kind).tap_shards(4).build_bank().unwrap();
            let stream: Vec<u64> = (0..80_000u64)
                .map(|i| if i % 2 == 0 { 9 } else { i })
                .collect();
            for (j, chunk) in stream.chunks(20_000).enumerate() {
                bank[j].insert_batch(chunk);
            }
            let mut acc = bank.remove(0);
            for part in &bank {
                acc.merge_from(part)
                    .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            }
            assert!(acc.report().contains(9), "{kind:?} lost the 50% item");
        }
    }

    #[test]
    fn cross_kind_merge_is_a_structured_error() {
        let mut a = spec(SummaryKind::SpaceSaving)
            .build_bank()
            .unwrap()
            .remove(0);
        let b = spec(SummaryKind::CountMin).build_bank().unwrap().remove(0);
        assert_eq!(
            a.merge_from(&b).unwrap_err(),
            MergeError::Incompatible("summary kinds")
        );
    }

    #[test]
    fn restore_rejects_garbage_with_wrong_tag() {
        let err = DynSummary::from_bytes(b"definitely not a snapshot").unwrap_err();
        assert!(matches!(
            err,
            SnapshotError::WrongTag { .. }
                | SnapshotError::Truncated
                | SnapshotError::LengthOverflow(_)
                | SnapshotError::Malformed(_)
        ));
    }

    #[test]
    fn spec_validation_rejects_out_of_range_fields() {
        for bad in [
            TenantSpec {
                eps: 0.0,
                ..TenantSpec::default()
            },
            TenantSpec {
                eps: 0.3,
                phi: 0.2,
                ..TenantSpec::default()
            },
            TenantSpec {
                phi: 1.5,
                ..TenantSpec::default()
            },
            TenantSpec {
                delta: 1.0,
                ..TenantSpec::default()
            },
            TenantSpec {
                universe: 0,
                ..TenantSpec::default()
            },
            TenantSpec {
                m: 0,
                ..TenantSpec::default()
            },
            TenantSpec {
                shards: 0,
                ..TenantSpec::default()
            },
            TenantSpec {
                shards: MAX_SHARDS + 1,
                ..TenantSpec::default()
            },
        ] {
            assert!(bad.build_bank().is_err(), "{bad:?} accepted");
        }
    }

    impl TenantSpec {
        fn tap_shards(mut self, shards: u32) -> Self {
            self.shards = shards;
            self
        }
    }
}
