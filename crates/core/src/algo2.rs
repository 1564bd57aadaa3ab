//! Algorithm 2: the space-optimal (ε, φ)-List heavy hitters algorithm
//! (Theorem 2).
//!
//! Same sampling front end as Algorithm 1, but the per-candidate counting
//! machinery is replaced so the `ε⁻¹ log ε⁻¹` term drops to
//! `ε⁻¹ log φ⁻¹`:
//!
//! * **T1** — Misra–Gries over *raw* ids with `Θ(1/φ)` counters. Its
//!   counts are too coarse to use (error `Θ(φs)`), but its key set
//!   contains every `φ`-heavy item: the candidates.
//! * Per repetition `j` (there are `R = Θ(log φ⁻¹)` of them, driving the
//!   per-candidate failure probability below `Θ(φ)` for a union bound):
//!   * `h_j : [n] → [Θ(1/ε)]` hashes items to buckets; per-bucket counts
//!     estimate per-item counts up to the `Θ(εs)` collision mass.
//!   * **T2** — per-bucket subsampled counter (increment with probability
//!     `ε̂`): a constant-factor running estimate `f̄_i ≈ T2/ε̂` of the
//!     bucket count, used only to pick the *epoch*.
//!   * **T3** — the **accelerated counters**: in epoch
//!     `t = ⌊log₂(c·T2²)⌋`, increments are recorded with probability
//!     `p_t = min(ε̂·2ᵗ, 1)`. As the bucket grows, the sampling
//!     probability accelerates, keeping `Var[f̂] = O(ε⁻²)` *total* across
//!     epochs (the geometric-decay argument of Claim 2) while a naive
//!     fixed-rate counter would pay an extra `log ε⁻¹` factor.
//! * The estimate `f̂_j = Σ_t T3[i,j,t]/p_t` misses the mass a bucket
//!   saw before its epoch 0, so a live cell adds that prefix's
//!   expectation, `thresholds[0]/ε̂` (DESIGN.md §1.6), and a merge keeps
//!   every input's prefix; the median over `j` is compared against
//!   `(φ − ε/2)s`.
//!
//! Because `ε̂` is a power of two (footnote 3), every `p_t = 2^{t−k}` is a
//! power of two and each sampling decision is a test of `k − t` fresh
//! random bits.
//!
//! # Hot-path engineering (see DESIGN.md)
//!
//! The paper's headline is `O(1)` update time, so the insert path is
//! built to run at memory speed:
//!
//! * randomness is **bit-budgeted**: T2 coins come from a geometric-skip
//!   Bernoulli(2⁻ᵏ) sampler ([`hh_sampling::BitSkipSampler`], one counter
//!   decrement per trial) and T3 coins from `k − t`-bit slices of a
//!   buffered word ([`hh_sampling::BitBudget`]) — no fresh RNG word per
//!   repetition;
//! * the epoch `⌊log₂(c·T2²)⌋` is never recomputed with float math:
//!   an integer **threshold table** (`epoch_thresholds`) plus a per-bucket
//!   cached epoch byte make it a table lookup refreshed only when T2
//!   increments;
//! * tables are **flat arrays** (`slots`, `epochs` indexed by
//!   `rep · buckets + bucket`) plus a **row pool** holding a `(k+2)`-slot
//!   row — the cell's `k+1` T3 counters, then its T2 — only for each
//!   cell that has reached epoch 0 (a dead cell's T3 row is identically
//!   zero). A cell's `u32` slot holds its T2 count while it is below
//!   epoch 0 and its row offset after, so a cell costs 5 bytes until it
//!   goes live. The per-repetition hash is the single-multiply
//!   plain-universal multiply-shift
//!   ([`MultiplyShift64Family`], one `u64` multiply and a shift), drawn
//!   over a doubled power-of-two range so the Definition-2 collision
//!   bound of the bucket analysis is preserved;
//! * space accounting is **deferred**: updates touch raw counters only,
//!   and the gamma-bit sums the model charges are recomputed from the
//!   tables when a space query is made (`hh_space::gamma_sum_bits` /
//!   `sparse_slice_bits`).
//!
//! [`EpochMode::Flat`] is the ablation knob for E12: it disables `T3` and
//! estimates from `T2` alone, exhibiting the variance blow-up §3.1.2
//! warns about.

use crate::cache::QueryCache;
use crate::config::{Constants, HhParams};
use crate::error::{MergeError, ParamError, SnapshotError};
use crate::mergeable::{check_compatible, snapshot, MergeableSummary};
use crate::mg::MisraGries;
use crate::report::{ItemEstimate, Report};
use crate::traits::{HeavyHitters, StreamSummary};
use hh_hash::{HashFamily, HashFunction, MultiplyShift64Family, MultiplyShift64Hash};
use hh_sampling::{BitBudget, BitSkipSampler};
use hh_space::codec::{Codec, CodecError, Reader, Writer};
use hh_space::varint::{push_uvarint, read_uvarint};
use hh_space::{gamma_bits, push_uvarints, sparse_bits, SpaceUsage};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Whether the accelerated epoch counters (the paper's T3) are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochMode {
    /// Full Algorithm 2: epoch-indexed accelerated counters.
    Accelerated,
    /// Ablation: estimate from the flat ε̂-rate counter T2 alone. Same
    /// space shape, but per-estimate variance `Θ(f/ε̂)` instead of
    /// `O(ε̂⁻²)` — the failure §3.1.2's overview motivates T3 with.
    Flat,
}

/// Cached-epoch sentinel for "below epoch 0" (T2 too small for any
/// accelerated counter to be active).
const EPOCH_NONE: u8 = u8::MAX;

/// Reference epoch formula, unclamped: `⌊log₂(scale · v²)⌋`, or `None`
/// below epoch 0. Used only to build the integer threshold table at
/// construction; the hot path and all queries go through the table.
fn raw_epoch(v: u64, scale: f64) -> Option<u32> {
    if v == 0 {
        return None;
    }
    let x = scale * (v as f64) * (v as f64);
    if x < 1.0 {
        return None;
    }
    Some(x.log2().floor() as u32)
}

/// `thresholds[t] =` smallest T2 value whose (unclamped) epoch is at
/// least `t`, for `t ∈ [0, k]`. The epoch of `v` is then the largest `t`
/// with `v ≥ thresholds[t]` (or `None` below `thresholds[0]`), which
/// clamps at `k` by construction — clamping is sound because the sampling
/// probability `min(ε̂·2ᵗ, 1)` saturates there (line 15 of the paper's
/// pseudocode).
fn epoch_thresholds(scale: f64, k: u32) -> Vec<u64> {
    (0..=k)
        .map(|t| {
            // Seed the search a touch below √(2ᵗ/scale), then advance to
            // the first value the *reference formula* maps to epoch ≥ t,
            // so table and formula agree exactly at every boundary.
            let target = ((2f64).powi(t as i32) / scale).sqrt();
            let mut v = (target as u64).saturating_sub(2).max(1);
            while raw_epoch(v, scale).is_none_or(|e| e < t) {
                v += 1;
            }
            v
        })
        .collect()
}

/// Most fresh 64-bit words the aligned coin schedule may spend on one
/// sample's T3 slices. `⌈R / ⌊64/k⌋⌉` beyond this (huge `R` at large
/// `k`) falls back to the legacy buffered-bit schedule.
const MAX_COIN_WORDS: usize = 8;

/// Derives the aligned coin layout for `(k_eps, r)`: per-repetition
/// `(word, shift)` sources, the per-sample word budget `W`, and whether
/// the layout is representable at all (`k ∈ [1, 64]`, `R ≤ 64` so the
/// T2 coins fit one bitmask, `W ≤ MAX_COIN_WORDS`). Pure function of
/// the parameters — recomputed on snapshot restore, never serialized.
fn coin_layout(k_eps: u32, r: usize) -> (u32, bool) {
    // `k = 64` is excluded so the fast path's slice sentinel `1 << k`
    // stays a valid shift; that degenerate width keeps the legacy path.
    if k_eps == 0 || k_eps >= 64 || r > 64 {
        return (0, false);
    }
    let per = (64 / k_eps) as usize;
    let words = r.div_ceil(per);
    if words > MAX_COIN_WORDS {
        return (0, false);
    }
    (words as u32, true)
}

/// Whether a pool of `cells` rows of `kp1 + 1` slots (T3, then T2)
/// plus `reps` sinks can be addressed by `u32` offsets. Checked at
/// construction and at restore, so every row a later update or merge
/// opens fits.
fn pool_fits(cells: usize, kp1: usize, reps: usize) -> bool {
    cells
        .checked_mul(kp1 + 1)
        .and_then(|n| n.checked_add(reps))
        .is_some_and(|n| n <= u32::MAX as usize)
}

/// Whether every below-epoch-0 T2 count — each is below `thresholds[0]`
/// — fits a cell's `u32` slot. Checked next to [`pool_fits`].
fn slot_fits(thresholds: &[u64]) -> bool {
    thresholds[0] <= u64::from(u32::MAX) + 1
}

/// Appends a live cell's row to the pool: `kp1` zeroed T3 slots, then
/// the T2 slot holding `t2`. Returns the row's offset. Epochs never
/// regress, so a cell opens at most one row in its lifetime. The pool
/// grows by about an eighth of its length per step rather than
/// doubling: [`SpaceUsage::heap_bytes`] meters capacity, so the growth
/// slack stays below 1/8 of the rows.
#[inline]
fn open_row(pool: &mut Vec<u64>, kp1: usize, t2: u64) -> u32 {
    let at = pool.len();
    if pool.capacity() - at < kp1 + 1 {
        pool.reserve_exact((kp1 + 1).max(at / 8));
    }
    pool.resize(at + kp1, 0);
    pool.push(t2);
    u32::try_from(at).expect("pool_fits bounds every row offset")
}

/// A cell's T2 value, read through its epoch byte: the slot itself below
/// epoch 0, the last slot of the cell's row after.
#[inline]
fn t2_at(slot: u32, epoch: u8, pool: &[u64], kp1: usize) -> u64 {
    if epoch == EPOCH_NONE {
        u64::from(slot)
    } else {
        pool[slot as usize + kp1]
    }
}

/// One T2 coin for a cell: a dead cell counts in its slot until the
/// count reaches `thresholds[0]`, where the count moves into a newly
/// opened row and the slot takes the row's offset; a live cell counts in
/// its row. Either way the cached epoch follows the new count.
#[inline(always)]
fn bump_t2(slot: &mut u32, epoch: &mut u8, pool: &mut Vec<u64>, thresholds: &[u64], kp1: usize) {
    if *epoch == EPOCH_NONE {
        let v = u64::from(*slot) + 1;
        if v < thresholds[0] {
            *slot = v as u32;
            return;
        }
        *slot = open_row(pool, kp1, v);
        *epoch = OptimalListHh::advance_epoch(thresholds, EPOCH_NONE, v);
    } else {
        let at = *slot as usize + kp1;
        let v = pool[at] + 1;
        pool[at] = v;
        *epoch = OptimalListHh::advance_epoch(thresholds, *epoch, v);
    }
}

/// Sets a cell's T2 to `v`, never below its current value: the slot
/// keeps `v` while it stays below epoch 0, otherwise the cell's row
/// does, opened here if the cell was dead.
#[inline]
fn store_t2(
    slot: &mut u32,
    epoch: &mut u8,
    pool: &mut Vec<u64>,
    thresholds: &[u64],
    kp1: usize,
    v: u64,
) {
    let e = OptimalListHh::epoch_of(v, thresholds);
    if e == EPOCH_NONE {
        debug_assert_eq!(*epoch, EPOCH_NONE, "epochs never regress");
        *slot = v as u32;
    } else if *epoch == EPOCH_NONE {
        *slot = open_row(pool, kp1, v);
    } else {
        pool[*slot as usize + kp1] = v;
    }
    *epoch = e;
}

/// Merges `other`'s T2 count for `cell` into the cell's slot, epoch
/// byte and pool (`slots`, `epochs`, `pool` of the summary merged into):
/// both counts are read through their epoch bytes and summed in `u64`
/// before [`store_t2`] decides dead or live.
///
/// A live result also carries both inputs' pre-epoch-0 prefixes
/// (DESIGN.md §1.6). Each input's estimate holds `m · 2^k` of prefix,
/// with `m` = `thresholds[0]` for a live input and its T2 for a dead
/// one, while the merged cell's estimate adds `thresholds[0] · 2^k`
/// once; the difference, `m_self + m_other − thresholds[0]` (≥ 0, as
/// the sum reached epoch 0), goes into T3[0], which is weighted `2^k`.
/// The [`EpochMode::Flat`] ablation reads no T3 and keeps it zero.
#[inline]
fn merge_t2_cell(
    slots: &mut [u32],
    epochs: &mut [u8],
    pool: &mut Vec<u64>,
    other: &OptimalListHh,
    thresholds: &[u64],
    cell: usize,
) {
    let kp1 = thresholds.len();
    let thr0 = thresholds[0];
    let (mine, theirs) = (t2_at(slots[cell], epochs[cell], pool, kp1), other.t2(cell));
    let prefix = |t2: u64, epoch: u8| if epoch == EPOCH_NONE { t2 } else { thr0 };
    let prefixes = prefix(mine, epochs[cell]).saturating_add(prefix(theirs, other.epochs[cell]));
    store_t2(
        &mut slots[cell],
        &mut epochs[cell],
        pool,
        thresholds,
        kp1,
        mine.saturating_add(theirs),
    );
    if epochs[cell] != EPOCH_NONE && other.mode == EpochMode::Accelerated {
        let t3_0 = &mut pool[slots[cell] as usize];
        *t3_0 = t3_0.saturating_add(prefixes - thr0);
    }
}

/// Algorithm 2 of the paper (Theorem 2).
///
/// Per-repetition state lives in flat rep-major arrays (`slots`,
/// `epochs`) and one row pool rather than per-repetition
/// structs; see the module docs for the hot-path layout.
#[derive(Debug, Clone)]
pub struct OptimalListHh {
    params: HhParams,
    universe: u64,
    /// Stream-sampling front end (bit-driven geometric skip, identical
    /// in distribution and space accounting to the ln-based form).
    sampler: BitSkipSampler,
    p: f64,
    /// T1: Misra–Gries candidate set over raw ids.
    t1: MisraGries,
    /// Per-repetition hash functions `h_j`: single-multiply plain-universal
    /// multiply-shift, drawn with a doubled power-of-two range so the
    /// per-bucket collision bound matches the `Θ(1/ε)`-bucket analysis
    /// (see `MultiplyShift64Family::covering_universal` and DESIGN.md).
    hashes: Vec<MultiplyShift64Hash>,
    /// One `u32` per cell `j · buckets + i`, read through the cell's
    /// cached epoch: below epoch 0 it is the cell's count `T2[j, i]`
    /// (always below `thresholds[0]`); from epoch 0 on it is the pool
    /// offset of the cell's row, which carries T2 from then on.
    slots: Vec<u32>,
    /// The row pool. Slots `0..R` are the per-repetition *sink* cells
    /// that absorb the unconditional increment of failed trials (see
    /// `apply_sample`); they are excluded from estimates and accounting,
    /// and one per repetition keeps consecutive failed trials from
    /// forming a store-forward dependency chain on a single cell. After
    /// them sits one `(k+2)`-slot row per live cell, in the order the
    /// cells reached epoch 0 (§3.1.2: "not all the allowed cells will
    /// actually be used"): `T3[j, i, 0..=k]`, then `T2[j, i]`. A cell
    /// below epoch 0 has no row: its T3 row would be identically zero,
    /// since trials record only at a live epoch and epochs never regress.
    pool: Vec<u64>,
    /// Cached epoch of `T2[j, i]` (`EPOCH_NONE` below epoch 0),
    /// refreshed only when T2 increments.
    epochs: Vec<u8>,
    /// Integer epoch boundaries; see [`epoch_thresholds`].
    epoch_thresholds: Vec<u64>,
    buckets: u64,
    /// `ε̂ = 2^{-k_eps}`, the power-of-two rounding of the T2 rate.
    k_eps: u32,
    /// Geometric-skip source of the per-repetition Bernoulli(ε̂) T2 coins.
    t2_skip: BitSkipSampler,
    /// Buffered k-bit slices for the T3 coins (legacy coin schedule
    /// only — the aligned schedule below draws whole words per sample;
    /// the field stays live for the Flat ablation and for snapshot
    /// format stability).
    bits: BitBudget,
    /// Fresh words drawn per sample under the aligned coin schedule
    /// (`⌈R / ⌊64/k⌋⌉` — `⌊64/k⌋` k-bit slices per word, remainders
    /// discarded). Derived from `(k_eps, R)` at construction/restore,
    /// never serialized.
    slice_words: u32,
    /// Whether the aligned coin schedule is in effect (accelerated mode
    /// with a representable layout). Decides between the fast and the
    /// legacy per-sample update on *both* the scalar and batch paths,
    /// so the two stay draw-for-draw identical.
    fast_coins: bool,
    mode: EpochMode,
    samples: u64,
    rng: StdRng,
    /// Materialized read-side results (the candidate estimates and the
    /// thresholded report), invalidated by every query-visible mutation:
    /// the sampled-insert path, `merge_from`, and (by construction,
    /// since restore builds a fresh value) snapshot restore. Unsampled
    /// inserts advance only sampler state, which no query reads, so they
    /// leave the cache warm. See `QueryCache` and DESIGN.md §8.
    cache: QueryCache<ReadCache>,
}

/// What a quiescent summary serves without touching T2/T3: the
/// median-of-repetitions *sampled-stream* estimate for every current T1
/// candidate, plus the finished report built from them.
#[derive(Debug, Clone)]
struct ReadCache {
    /// `(item, median sampled estimate)` for every T1 candidate —
    /// including the below-threshold ones, so cached point queries hit
    /// for any candidate, not only reported items.
    candidates: Vec<(u64, f64)>,
    /// The thresholded report (stream-scale counts).
    report: Report,
}

impl OptimalListHh {
    /// Creates the algorithm for a stream of advertised length `m` over
    /// universe `[0, universe)`, default constants, accelerated mode.
    pub fn new(params: HhParams, universe: u64, m: u64, seed: u64) -> Result<Self, ParamError> {
        Self::with_constants(
            params,
            universe,
            m,
            seed,
            Constants::default(),
            EpochMode::Accelerated,
        )
    }

    /// Full-control constructor (constants profile and epoch-mode
    /// ablation knob).
    pub fn with_constants(
        params: HhParams,
        universe: u64,
        m: u64,
        seed: u64,
        consts: Constants,
        mode: EpochMode,
    ) -> Result<Self, ParamError> {
        if universe == 0 {
            return Err(ParamError::EmptyUniverse);
        }
        if m == 0 {
            return Err(ParamError::ZeroLength);
        }
        let eps = params.eps();
        let phi = params.phi();
        let mut rng = StdRng::seed_from_u64(seed);

        // ℓ = Θ(ε⁻²); constant from the profile (paper: 10⁵).
        let ell = (consts.a2_sample_factor / (eps * eps)).ceil();
        if !ell.is_finite() || ell < 1.0 {
            return Err(ParamError::BadConstants("algorithm-2 sample budget"));
        }
        // A non-positive or non-finite epoch scale would make the
        // threshold-table search below loop forever.
        let scale_ok = consts.a2_epoch_scale > 0.0 && consts.a2_epoch_scale.is_finite();
        if !scale_ok {
            return Err(ParamError::BadConstants("algorithm-2 epoch scale"));
        }
        let p_target = (2.0 * ell / m as f64).min(1.0);
        let sampler =
            BitSkipSampler::with_exponent(hh_sampling::bernoulli::pow2_exponent(p_target));
        let p = sampler.probability();

        // T1 capacity Θ(1/φ) over raw ids.
        let t1_cap = (consts.a2_t1_factor / phi).ceil() as usize;
        let t1 = MisraGries::new(t1_cap.max(1), hh_space::id_bits(universe));

        // Repetitions R = Θ(log(1/φ)), forced odd for a clean median.
        let mut r = ((consts.a2_rep_factor * (12.0 / phi).ln()).ceil() as usize)
            .max(consts.a2_rep_min)
            .max(1);
        if r % 2 == 0 {
            r += 1;
        }

        // Θ(1/ε) buckets, realized as the doubled power of two that keeps
        // the plain-universal multiply-shift within the per-bucket
        // collision budget of the analysis.
        let min_buckets = ((consts.a2_bucket_factor / eps).ceil() as u64).max(2);
        let k_eps = hh_sampling::bernoulli::pow2_exponent(eps);
        let family = MultiplyShift64Family::covering_universal(min_buckets);
        let hashes: Vec<MultiplyShift64Hash> = (0..r).map(|_| family.sample(&mut rng)).collect();
        let buckets = hashes[0].range();
        let cells = r * buckets as usize;
        if !pool_fits(cells, k_eps as usize + 1, r) {
            return Err(ParamError::BadConstants("algorithm-2 table shape"));
        }
        let thresholds = epoch_thresholds(consts.a2_epoch_scale, k_eps);
        if !slot_fits(&thresholds) {
            return Err(ParamError::BadConstants("algorithm-2 epoch scale"));
        }
        let (slice_words, layout_ok) = coin_layout(k_eps, r);

        Ok(Self {
            params,
            universe,
            sampler,
            p,
            t1,
            hashes,
            slots: vec![0; cells],
            // Only the per-repetition failed-trial sinks: no cell is live.
            pool: vec![0; r],
            epochs: vec![EPOCH_NONE; cells],
            epoch_thresholds: thresholds,
            buckets,
            k_eps,
            t2_skip: BitSkipSampler::with_exponent(k_eps),
            bits: BitBudget::new(),
            slice_words,
            fast_coins: layout_ok && mode == EpochMode::Accelerated,
            mode,
            samples: 0,
            rng,
            cache: QueryCache::new(),
        })
    }

    /// Creates a **seed-aligned** instance for merge-based pipelines:
    /// the `R` repetition hashes are drawn from `structure_seed` while
    /// the sampling coins (stream sampler, T2 skip, T3 bit budget) run
    /// off `stream_seed`. Instances sharing a structure seed agree
    /// bucket-for-bucket across repetitions — the precondition for
    /// [`MergeableSummary::merge_from`] — while distinct stream seeds
    /// keep their subsampling independent across shards.
    pub fn with_seeds(
        params: HhParams,
        universe: u64,
        m: u64,
        structure_seed: u64,
        stream_seed: u64,
    ) -> Result<Self, ParamError> {
        let mut a = Self::with_constants(
            params,
            universe,
            m,
            structure_seed,
            Constants::default(),
            EpochMode::Accelerated,
        )?;
        a.rng = StdRng::seed_from_u64(stream_seed);
        Ok(a)
    }

    /// The realized sampling probability.
    pub fn sampling_probability(&self) -> f64 {
        self.p
    }

    /// Number of sampled items (`s` in the paper).
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Number of repetitions `R`.
    pub fn repetitions(&self) -> usize {
        self.hashes.len()
    }

    /// Number of hash buckets per repetition (`Θ(1/ε)`).
    pub fn buckets(&self) -> u64 {
        self.buckets
    }

    /// Problem parameters.
    pub fn params(&self) -> HhParams {
        self.params
    }

    /// Per-term space decomposition `(t1_bits, counting_bits,
    /// sampler_bits)` matching the three terms of the Theorem-2 bound:
    /// `φ⁻¹ log n` (candidate ids), `ε⁻¹ log φ⁻¹` (T2/T3 tables, hash
    /// seeds, and the coin state — T2 skip countdown plus the buffered
    /// T3 bit word — across repetitions), `log log m` (sampler). Used by
    /// the Table-1 experiment to validate each term against its own
    /// formula.
    pub fn component_bits(&self) -> (u64, u64, u64) {
        let counting: u64 = (0..self.hashes.len())
            .map(|j| self.rep_counting_bits(j) + self.hashes[j].model_bits())
            .sum::<u64>()
            + self.t2_skip.model_bits()
            + self.bits.model_bits();
        (self.t1.model_bits(), counting, self.sampler.model_bits())
    }

    /// Deferred accounting for repetition `j`: dense gamma bits for its
    /// T2 counts (read through the epoch bytes, wherever each cell keeps
    /// its count) plus sparse bits for its `B·(k+1)`-slot T3 table (§3.1.2:
    /// "not all the allowed cells will actually be used"), read from
    /// the live rows only — every other slot is zero. Recomputed from
    /// the raw tables on demand — the insert path never maintains bit
    /// sums.
    fn rep_counting_bits(&self, j: usize) -> u64 {
        let b = self.buckets as usize;
        let kp1 = self.k_eps as usize + 1;
        let base = j * b;
        let t3 = Self::live_cells(&self.epochs[base..base + b]).flat_map(|i| {
            let row = self.row(base + i).expect("live cells own a row");
            row.iter().enumerate().map(move |(t, &c)| (i * kp1 + t, c))
        });
        let t2: u64 = (base..base + b).map(|cell| gamma_bits(self.t2(cell))).sum();
        t2 + sparse_bits(t3)
    }

    /// Cell `cell`'s T2 count, read through its epoch byte.
    #[inline]
    fn t2(&self, cell: usize) -> u64 {
        let kp1 = self.k_eps as usize + 1;
        t2_at(self.slots[cell], self.epochs[cell], &self.pool, kp1)
    }

    /// Cell `cell`'s `k+1` T3 counters, or `None` below epoch 0, where
    /// they are identically zero and have no place in the pool.
    #[inline]
    fn row(&self, cell: usize) -> Option<&[u64]> {
        (self.epochs[cell] != EPOCH_NONE).then(|| {
            let at = self.slots[cell] as usize;
            &self.pool[at..at + self.k_eps as usize + 1]
        })
    }

    /// Epoch for a T2 value: the largest `t ≤ k` with
    /// `value ≥ thresholds[t]`, i.e. `⌊log₂(c · v²)⌋` clamped to `[0, k]`,
    /// or `None` below epoch 0. Exposed for the ablation harness (E12).
    pub fn epoch(&self, t2_value: u64) -> Option<u32> {
        let n = self
            .epoch_thresholds
            .partition_point(|&thr| thr <= t2_value);
        n.checked_sub(1).map(|e| e as u32)
    }

    /// The epoch byte for a T2 value `v`: the number of thresholds it
    /// clears, minus one (zero wraps to [`EPOCH_NONE`]), with a
    /// below-epoch-0 early out on the first threshold — the common case
    /// on realistic workloads. The single source of truth for both bulk
    /// recompute sites (snapshot restore and the merge); must agree with
    /// the [`OptimalListHh::epoch`] table lookup, which the
    /// `bulk_epoch_recompute_matches_lookup` test pins.
    #[inline]
    fn epoch_of(v: u64, thresholds: &[u64]) -> u8 {
        if v < thresholds[0] {
            EPOCH_NONE
        } else {
            let cleared: u8 = thresholds.iter().map(|&t| u8::from(v >= t)).sum();
            cleared.wrapping_sub(1)
        }
    }

    /// The cells whose cached epoch is live, ascending — the cells that
    /// own a T3 row in the pool.
    ///
    /// The epoch bytes are scanned 8 at a time: an all-dead group is one
    /// `u64 == MAX` test (the sentinel is `0xFF`), the same SWAR shape
    /// as the sampler's zero-chunk scan, and on realistic workloads
    /// nearly every group is all-dead.
    fn live_cells(epochs: &[u8]) -> impl Iterator<Item = usize> + '_ {
        let groups = epochs.chunks_exact(8);
        let tail = (epochs.len() - groups.remainder().len(), groups.remainder());
        groups
            .enumerate()
            .filter(|(_, group)| {
                u64::from_ne_bytes((*group).try_into().expect("8-byte group")) != u64::MAX
            })
            .map(|(g, group)| (g * 8, group))
            .chain(std::iter::once(tail))
            .flat_map(|(base, group)| {
                group
                    .iter()
                    .enumerate()
                    .filter(|&(_, &e)| e != EPOCH_NONE)
                    .map(move |(i, _)| base + i)
            })
    }

    /// The cell slots, the epoch cache and the row pool rebuilt in one
    /// pass over the two v5 blocks: `t2_block` holds one varint per cell,
    /// `row_block` holds `t3_values` varints — `k+1` per live cell, in
    /// cell order, then one per sink. Each cell's epoch is derived from
    /// its T2 value as it is read. A dead cell keeps the count in its
    /// slot; a live one takes the next pool row, filled with its `k+1`
    /// T3 values from the row block and then its T2. The pool is
    /// allocated once at its exact size, sinks first. `None` if a block
    /// cannot hold its count, runs out early or has bytes left over, or
    /// if the live cells do not account for the row block's count.
    fn tables_from_blocks(
        t2_block: &[u8],
        cells: usize,
        thresholds: &[u64],
        row_block: &[u8],
        t3_values: usize,
        reps: usize,
    ) -> Option<(Vec<u32>, Vec<u8>, Vec<u64>)> {
        const HIGH: u64 = 0x8080_8080_8080_8080;
        const LOW: u64 = 0x0101_0101_0101_0101;
        let kp1 = thresholds.len();
        // A varint takes at least one byte: refuse counts the blocks
        // cannot hold before allocating for them.
        if cells > t2_block.len() || t3_values > row_block.len() || t3_values < reps {
            return None;
        }
        let live = (t3_values - reps) / kp1;
        if live * kp1 != t3_values - reps {
            return None;
        }
        let thr0 = thresholds[0];
        // Lane `i` of an all-one-byte word is at or above epoch 0 iff
        // adding `0x80 − thr0` sets its top bit; above 0x7F no one-byte
        // count is live.
        let probe = if thr0 > 0x7F { 0 } else { LOW * (0x80 - thr0) };
        let mut slots = vec![0u32; cells];
        let mut epochs = vec![EPOCH_NONE; cells];
        let mut pool = Vec::with_capacity(reps + live * (kp1 + 1));
        pool.resize(reps, 0);
        let (mut pos, mut row_pos, mut opened) = (0usize, 0usize, 0usize);
        let mut cell = 0usize;
        while cell < cells {
            // Fast path: eight one-byte counts, all below epoch 0 — on
            // realistic workloads nearly every group.
            if cell + 8 <= cells && pos + 8 <= t2_block.len() {
                let word =
                    u64::from_le_bytes(t2_block[pos..pos + 8].try_into().expect("lane width"));
                if word & HIGH == 0 && word.wrapping_add(probe) & HIGH == 0 {
                    for (i, s) in slots[cell..cell + 8].iter_mut().enumerate() {
                        *s = (word >> (8 * i)) as u32 & 0x7F;
                    }
                    pos += 8;
                    cell += 8;
                    continue;
                }
            }
            let v = read_uvarint(t2_block, &mut pos)?;
            let e = Self::epoch_of(v, thresholds);
            if e == EPOCH_NONE {
                slots[cell] = v as u32;
            } else {
                opened += 1;
                if opened > live {
                    return None;
                }
                slots[cell] = u32::try_from(pool.len()).ok()?;
                for _ in 0..kp1 {
                    pool.push(read_uvarint(row_block, &mut row_pos)?);
                }
                pool.push(v);
                epochs[cell] = e;
            }
            cell += 1;
        }
        // The sinks come last on the wire and first in the pool.
        for c in &mut pool[..reps] {
            *c = read_uvarint(row_block, &mut row_pos)?;
        }
        let whole = pos == t2_block.len() && row_pos == row_block.len() && opened == live;
        whole.then_some((slots, epochs, pool))
    }

    /// Refreshes a cached epoch after its T2 counter reached `v`. The old
    /// value is a valid starting hint because epochs only grow, so the
    /// scan is O(1) amortized over a counter's lifetime.
    #[inline]
    fn advance_epoch(thresholds: &[u64], cached: u8, v: u64) -> u8 {
        let mut idx = match cached {
            EPOCH_NONE => 0,
            e => e as usize + 1,
        };
        while idx < thresholds.len() && v >= thresholds[idx] {
            idx += 1;
        }
        match idx {
            0 => EPOCH_NONE,
            _ => (idx - 1) as u8,
        }
    }

    /// Sampled-stream estimate for one `(repetition, bucket)` cell of
    /// the flat tables. All the `p_t = 2^{t−k}` rescalings are powers of
    /// two, so the whole sum `Σ_t T3[t]/p_t` is formed as **integer
    /// shifts** into a `u128` accumulator and converted to `f64` once —
    /// no `powi` calls, no per-epoch float rounding. (The `u128` keeps
    /// the `t << (k − t)` terms exact even at `k = 64`; the sums saturate
    /// rather than trust a restored buffer's counts.)
    ///
    /// The estimate follows the cell's epoch (DESIGN.md §1.6). Below
    /// epoch 0 it is the flat-rate `T2/ε̂ = T2 · 2^k`: a stream shorter
    /// than the paper's `m = poly(1/ε)` regime may leave a bucket there
    /// for good, and the ε̂-rate tracker T2 is an unbiased
    /// (higher-variance) estimate of its count. From epoch 0 on it is the
    /// T3 sum plus `thresholds[0] · 2^k`, the expected number of sampled
    /// items that arrived before T2 reached epoch 0 and so never met a
    /// T3 trial. The [`EpochMode::Flat`] ablation always uses `T2/ε̂`.
    #[inline]
    fn cell_estimate(&self, cell: usize) -> f64 {
        let k = self.k_eps;
        let row = match self.mode {
            EpochMode::Flat => None,
            EpochMode::Accelerated => self.row(cell),
        };
        let est = match row {
            None => u128::from(self.t2(cell)) << k,
            // p_t = 2^{t−k}; divide by it ⇒ shift left by k − t.
            Some(row) => (0..=k)
                .zip(row)
                .fold(u128::from(self.epoch_thresholds[0]) << k, |acc, (t, &c)| {
                    acc.saturating_add(u128::from(c) << (k - t))
                }),
        };
        est as f64
    }

    /// Per-repetition estimate `f̂_j(x)` of the sampled-stream count of
    /// `x`'s bucket.
    fn estimate_rep(&self, j: usize, item: u64) -> f64 {
        self.cell_estimate(j * self.buckets as usize + self.hashes[j].hash(item) as usize)
    }

    /// Median-of-repetitions estimate of the sampled-stream count of
    /// `item`'s buckets. A stack scratch buffer and a linear-time
    /// selection replace the per-query allocation and full sort; queries
    /// stay `&self`-pure, so concurrent read-only reporting over a
    /// shared reference keeps compiling.
    fn estimate_sampled(&self, item: u64) -> f64 {
        let r = self.hashes.len();
        // R = Θ(log φ⁻¹): 64 covers every reachable configuration down
        // to φ ≈ 3·10⁻⁵; the heap fallback keeps smaller φ correct.
        let mut stack = [0f64; 64];
        let mut heap: Vec<f64>;
        let ests: &mut [f64] = if r <= 64 {
            &mut stack[..r]
        } else {
            heap = vec![0.0; r];
            &mut heap
        };
        for (j, e) in ests.iter_mut().enumerate() {
            *e = self.estimate_rep(j, item);
        }
        Self::median(ests)
    }

    /// Median by linear-time selection (total order via `total_cmp`; the
    /// estimates are never NaN — they are shifted integer counts).
    fn median(ests: &mut [f64]) -> f64 {
        let mid = ests.len() / 2;
        let (_, med, _) = ests.select_nth_unstable_by(mid, |a, b| a.total_cmp(b));
        *med
    }

    /// Builds the read cache: one **rep-major** pass over the flat
    /// tables filling an `R × |candidates|` estimate matrix, then a
    /// median per candidate and the `(φ − ε/2)s` threshold cut.
    ///
    /// Rep-major order matters on the cold path: repetition `j`'s hash
    /// and its T2/T3 rows are read for *all* candidates before moving to
    /// repetition `j + 1`, so each pass touches one contiguous row of
    /// the big tables instead of striding the full `R`-row span per
    /// item. Per-`(j, item)` arithmetic is `cell_estimate`,
    /// the same function the single-item path uses, so cached and cold
    /// answers are bit-identical.
    fn build_read_cache(&self) -> ReadCache {
        if self.samples == 0 {
            return ReadCache {
                candidates: Vec::new(),
                report: Report::default(),
            };
        }
        let items: Vec<u64> = self.t1.live_entries().map(|(item, _)| item).collect();
        let r = self.hashes.len();
        let b = self.buckets as usize;
        // Estimate matrix, item-major rows filled in rep-major order
        // (strided writes into a candidate-sized scratch, sequential
        // reads from the table rows — the tables are the big side).
        let mut ests = vec![0f64; items.len() * r];
        for (j, h) in self.hashes.iter().enumerate() {
            for (i, &item) in items.iter().enumerate() {
                ests[i * r + j] = self.cell_estimate(j * b + h.hash(item) as usize);
            }
        }
        let threshold = (self.params.phi() - self.params.eps() / 2.0) * self.samples as f64;
        let mut candidates = Vec::with_capacity(items.len());
        let mut reported = Vec::new();
        for (i, &item) in items.iter().enumerate() {
            let est = Self::median(&mut ests[i * r..(i + 1) * r]);
            candidates.push((item, est));
            if est >= threshold {
                reported.push(ItemEstimate {
                    item,
                    count: est / self.p,
                });
            }
        }
        ReadCache {
            candidates,
            report: Report::new(reported),
        }
    }

    /// The materialized read-side results, building them if a mutation
    /// (or construction) left the cache cold.
    fn read_cache(&self) -> &ReadCache {
        self.cache.get_or_build(|| self.build_read_cache())
    }
}

impl StreamSummary for OptimalListHh {
    #[inline]
    fn insert(&mut self, item: u64) {
        debug_assert!(item < self.universe, "item outside declared universe");
        // The common case — at realistic stream lengths `p ≪ 1` — is
        // "not sampled": one skip-counter decrement and out. Keeping the
        // heavy sampled body out of line lets this path inline into
        // callers' insert loops.
        if self.sampler.accept(&mut self.rng) {
            self.sampled_insert(item);
        }
    }

    /// Batch ingestion: the front-end sampler jumps directly to the next
    /// sampled position ([`BitSkipSampler::next_within`]), so an
    /// unsampled run costs one subtraction — its elements are never
    /// loaded — and all per-element work concentrates on the `s ≈ p·n`
    /// sampled items, which is the literal shape of the paper's
    /// O(1)-amortized argument. Each sampled item runs the same fused
    /// per-sample kernel as element-wise insertion (`apply_sample`
    /// under the aligned coin schedule), so same-seed batch runs are
    /// bit-identical to element-wise runs by construction; see
    /// DESIGN.md §10 for why the fused form beats a separately staged
    /// collect/apply split on L2-resident tables.
    fn insert_batch(&mut self, items: &[u64]) {
        debug_assert!(
            items.iter().all(|&x| x < self.universe),
            "item outside declared universe"
        );
        // Degenerate rate p = 1 (short advertised streams): every item
        // is sampled, so there are no unsampled runs to skip and the
        // `next_within` bookkeeping is pure overhead per element.
        // Delegate to the scalar loop — identical state and RNG draws
        // by the batch contract — so batching is never a pessimization.
        if self.sampler.exponent() == 0 {
            for &x in items {
                self.insert(x);
            }
            return;
        }
        self.skip_batch(items);
    }
}

impl OptimalListHh {
    /// Skip over unsampled runs, run the full per-sample update on each
    /// hit; state and RNG draws are identical to element-wise insertion
    /// by construction. (Deferring the T1 updates into one
    /// `MisraGries::insert_batch` call at the end commutes — T1 shares
    /// no state or coins with the tables — but measures ~4ms *slower*:
    /// inline, T1's probe chain hides under the RNG latency; extracted,
    /// it pays its full serial cost. Same shape as the staged-kernel
    /// rejection in DESIGN.md §10.)
    fn skip_batch(&mut self, items: &[u64]) {
        let mut i = 0usize;
        let n = items.len();
        while i < n {
            match self.sampler.next_within((n - i) as u64, &mut self.rng) {
                None => break,
                Some(off) => {
                    i += off as usize;
                    self.sampled_insert(items[i]);
                    i += 1;
                }
            }
        }
    }
}

/// Draws one sample's R-bit T2 coin mask from the geometric-skip
/// sampler: bit `j` set means repetition `j`'s Bernoulli(ε̂) coin came
/// up heads. At rate `2^{-k}` the common case is a single compare-and-
/// subtract covering all `R` trials — the per-trial `accept` chain this
/// replaces cost a data-dependent RNG round trip per repetition.
#[inline(always)]
fn draw_t2_mask(skip: &mut BitSkipSampler, rng: &mut StdRng, r: usize) -> u64 {
    let mut mask = 0u64;
    let mut off = 0usize;
    while off < r {
        match skip.next_within((r - off) as u64, rng) {
            None => break,
            Some(gap) => {
                off += gap as usize;
                mask |= 1u64 << off;
                off += 1;
            }
        }
    }
    mask
}

/// The shared per-sample T2/T3 update under the aligned coin schedule:
/// one pass over the `R` repetitions with every coin pre-drawn (`t2_mask`
/// bit `j` is repetition `j`'s T2 coin; the T3 slices sit `⌊64/k⌋` to a
/// word in `words`, in repetition order). Every caller — the scalar
/// fast path and, through it, the batch skip loop — computes this exact
/// update, so element-wise and batched ingestion are bit-identical by
/// construction.
///
/// Two restructurings keep the per-repetition trip lean:
///
/// - **T2 splits off.** Coins land at rate ε̂ = 2^{-k}, so almost every
///   repetition's T2 test is dead weight. A pop-bits loop over the mask
///   handles just the set bits, in ascending repetition order, *before*
///   the T3 pass — each repetition's trial reads only its own row, and
///   its own coin precedes it in both orders, so the final state
///   matches the interleaved form exactly.
/// - **Threshold-form trials.** A slice accepts at epoch `e` iff its
///   low `k − e` bits are zero, i.e. iff `e ≥ k − tz(slice)` with `tz`
///   clamped to `k` by a sentinel bit. One `tzcnt` and a signed byte
///   compare decide it, and `EPOCH_NONE = 0xFF` read as `i8` is `−1`,
///   below every threshold — the below-epoch-0 veto costs nothing.
///   Slices are consumed by shifting the current word in a register
///   (`w >>= k`), so the pass never re-derives a (word, shift) source
///   pair. The accept decision itself is a
///   conditional move: the outcome tracks the data, and a branch there
///   mispredicts its way to dominating the update cost.
///
/// T3 lives in the row pool: the sinks sit at pool offsets `0..R`, so a
/// failed trial's target is the repetition index itself, and an
/// accepted one lands at the cell's row offset plus its epoch. The
/// cell's slot is loaded on every trial but read as an offset only on
/// accept, which can happen only at a live epoch — exactly when the
/// slot holds the row's offset rather than a T2 count.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn apply_sample(
    hashes: &[MultiplyShift64Hash],
    slots: &mut [u32],
    pool: &mut Vec<u64>,
    epochs: &mut [u8],
    thresholds: &[u64],
    b: usize,
    kp1: usize,
    item: u64,
    t2_mask: u64,
    words: &[u64],
) {
    let k = kp1 as u32 - 1;
    let kmask = (1u64 << k) - 1;
    let top = 1u64 << k;
    let per = (64 / k) as usize;
    let r = hashes.len();
    // T2 pass: only the heads, ascending repetition order. A cell that
    // reaches epoch 0 here opens its T3 row before its trial below.
    let mut m = t2_mask;
    while m != 0 {
        let j = m.trailing_zeros() as usize;
        m &= m - 1;
        let cell = j * b + hashes[j].hash(item) as usize;
        bump_t2(&mut slots[cell], &mut epochs[cell], pool, thresholds, kp1);
    }
    // T3 pass: trial at p_t = 2^{t−k} for the cached epoch t; accepted
    // trials land in slot `e` of the cell's row, failures in the
    // repetition's sink cell.
    let mut j = 0usize;
    'words: for &word in words {
        let mut w = word;
        for _ in 0..per {
            if j == r {
                break 'words;
            }
            let cell = j * b + hashes[j].hash(item) as usize;
            let s = w & kmask | top;
            w >>= k;
            let thr = k as i32 - s.trailing_zeros() as i32;
            let e = epochs[cell];
            let accept = i32::from(e as i8) >= thr;
            let idx = if accept {
                slots[cell] as usize + e as usize
            } else {
                j
            };
            pool[idx] += 1;
            j += 1;
        }
    }
}

impl OptimalListHh {
    /// Full per-sample update: T1 candidate tracking plus the R-repetition
    /// T2/T3 pass.
    #[inline(never)]
    fn sampled_insert(&mut self, item: u64) {
        // Every sampled item is query-visible (it moves `samples`, T1,
        // and the tables); unsampled items never reach this function, so
        // they keep the read cache warm.
        self.cache.invalidate();
        self.samples += 1;
        self.t1.insert(item);
        if self.fast_coins {
            self.sampled_insert_fast(item);
        } else {
            self.sampled_insert_legacy(item);
        }
    }

    /// Scalar fast path under the aligned coin schedule: draw the
    /// sample's whole coin block up front — the T2 mask, then `W` fresh
    /// slice words — and replay it through the shared [`apply_sample`]
    /// body. Front-loading the draws takes the serial RNG chain off the
    /// table pass entirely: the old interleaved order re-entered the
    /// generator between every repetition, and each re-entry was a
    /// data-dependent round trip the out-of-order window could not hide.
    fn sampled_insert_fast(&mut self, item: u64) {
        let b = self.buckets as usize;
        let kp1 = self.k_eps as usize + 1;
        let r = self.hashes.len();
        let wn = self.slice_words as usize;
        let Self {
            hashes,
            slots,
            pool,
            epochs,
            epoch_thresholds,
            t2_skip,
            rng,
            ..
        } = self;
        let mut skip = *t2_skip;
        let t2_mask = draw_t2_mask(&mut skip, rng, r);
        *t2_skip = skip;
        let mut words = [0u64; MAX_COIN_WORDS];
        for w in words[..wn].iter_mut() {
            *w = rng.next_u64();
        }
        apply_sample(
            hashes,
            slots,
            pool,
            epochs,
            epoch_thresholds,
            b,
            kp1,
            item,
            t2_mask,
            &words[..wn],
        );
    }

    /// Legacy per-sample update (Flat ablation and unrepresentable coin
    /// layouts): per-repetition interleaved draws — T2 `accept`, then a
    /// buffered k-bit T3 slice — against the same tables.
    fn sampled_insert_legacy(&mut self, item: u64) {
        let b = self.buckets as usize;
        let k = self.k_eps;
        let kp1 = k as usize + 1;
        let accelerated = self.mode == EpochMode::Accelerated;
        // Split the borrows so each table is its own (non-aliasing) slice
        // and keep the two sampler states in registers across the loop:
        // through `&mut self` every store could alias the next
        // repetition's loads, which serializes the otherwise-independent
        // per-repetition chains.
        let Self {
            hashes,
            slots,
            pool,
            epochs,
            epoch_thresholds,
            t2_skip,
            bits,
            rng,
            ..
        } = self;
        let thresholds = epoch_thresholds.as_slice();
        let mut skip = *t2_skip;
        let mut buf = *bits;
        for (j, h) in hashes.iter().enumerate() {
            let cell = j * b + h.hash(item) as usize;
            // T2: increment with probability ε̂ = 2^{-k}; the geometric
            // skip makes the (1 − ε̂) common case one decrement.
            if skip.accept(rng) {
                bump_t2(&mut slots[cell], &mut epochs[cell], pool, thresholds, kp1);
            }
            if !accelerated {
                continue;
            }
            // T3 trial at p_t = 2^{t−k} for the cached epoch t, in the
            // fast path's threshold form: a fixed k-bit slice is drawn
            // either way (failed and below-epoch-0 trials just discard
            // it) and accepts iff `e ≥ k − tz(slice)`, with `tz` clamped
            // to `k`. Clamping with `min` rather than the fast path's
            // sentinel bit `1 << k` keeps the k = 64 corner in range: a
            // zero slice reads `tz = 64` there and accepts at every live
            // epoch. `EPOCH_NONE` read as `i8` is −1 and never accepts;
            // failed trials bounce their increment into the
            // per-repetition sink cell (pool offset `j`).
            let slice = buf.take(k, rng);
            let thr = k as i32 - slice.trailing_zeros().min(k) as i32;
            let e = epochs[cell];
            let idx = if i32::from(e as i8) >= thr {
                slots[cell] as usize + e as usize
            } else {
                j
            };
            pool[idx] += 1;
        }
        *t2_skip = skip;
        *bits = buf;
    }
}

impl HeavyHitters for OptimalListHh {
    /// The (ε, φ)-heavy-hitters report. After a quiescent period this is
    /// a cache hit — one clone of the materialized report — instead of a
    /// T2/T3 rescan; the first query after a mutation rebuilds the cache
    /// with the rep-major batched candidate scan.
    fn report(&self) -> Report {
        self.read_cache().report.clone()
    }
}

impl crate::traits::FrequencyEstimator for OptimalListHh {
    /// Point query: the median-of-repetitions bucket estimate scaled back
    /// by the sampling rate. Unlike the report path this works for any
    /// item, with accuracy `±(εm + collision mass of the item's buckets)`.
    /// When the read cache is warm and `item` is a T1 candidate, the
    /// answer is served from the cached candidate estimates (which hold
    /// exactly the value the cold scan would produce); other items — or
    /// a cold cache — fall through to the direct scan without building
    /// the cache, since a single point query costs less than a full
    /// candidate pass.
    fn estimate(&self, item: u64) -> f64 {
        if let Some(cache) = self.cache.get() {
            if let Some(&(_, est)) = cache.candidates.iter().find(|&&(i, _)| i == item) {
                return est / self.p;
            }
        }
        self.estimate_sampled(item) / self.p
    }
}

impl SpaceUsage for OptimalListHh {
    fn model_bits(&self) -> u64 {
        let (t1, counting, sampler) = self.component_bits();
        t1 + counting + sampler
    }

    fn heap_bytes(&self) -> usize {
        self.t1.heap_bytes()
            + self.slots.capacity() * 4
            + self.pool.capacity() * 8
            + self.epochs.capacity()
            + self.epoch_thresholds.capacity() * 8
            + self.hashes.capacity() * core::mem::size_of::<MultiplyShift64Hash>()
    }
}

/// Snapshot format version tag. v5 writes only the live T3 rows; v4
/// signs with the checksum's folded lane step; v3 appended the
/// trailing integrity checksum; v2 re-encoded the big arrays through
/// the codec's bulk byte channel: T2/T3 as varint blocks, the epoch
/// cache as raw bytes, the (monotone) threshold table delta-coded.
const A2_TAG: &str = "hh.algo2.v5";

/// Full-state snapshot: parameters, every hash seed, the T1/T2 tables,
/// the live T3 rows, and the three randomness sources (front-end
/// sampler, T2 skip, T3 bit budget, backing RNG). The epoch cache and
/// the Lemire constants are derived at restore time, not stored — and
/// neither is the read cache, which a restored instance rebuilds on
/// first query. The wire does not follow the memory layout: T2 goes out
/// as one exact count per cell, in cell order, whether the cell keeps
/// it in its slot or in its row.
///
/// The counter tables dominate the payload, so they go out as
/// length-prefixed varint blocks (the threshold table delta-coded by
/// [`snapshot::write_u64_slice_delta`]) in one preallocated buffer
/// instead of one codec call per cell. T3 is sent as the pool holds it (§3.1.2: "not all the allowed
/// cells will actually be used"): T2 and the threshold table come
/// first, so the reader knows every cell's epoch before the T3 block,
/// and the block holds only the rows of live cells
/// (`OptimalListHh::live_cells`), in cell order, then the `R` sink
/// cells. A dead cell has no row to send — and a buffer cannot express
/// mass in one.
impl Codec for OptimalListHh {
    fn write_to(&self, w: &mut Writer) {
        let kp1 = self.k_eps as usize + 1;
        let reps = self.hashes.len();
        let live = self.epochs.iter().filter(|&&e| e != EPOCH_NONE).count();
        let t3_values = live * kp1 + reps;
        debug_assert_eq!(
            self.pool.len(),
            live * (kp1 + 1) + reps,
            "one pool row per live cell"
        );
        // Preallocate: ~1 varint byte per T2 cell and per live T3 value
        // plus a fixed-field allowance (the epoch cache is not on the
        // wire).
        w.reserve(self.slots.len() + t3_values + 512);
        self.params.write_to(w);
        w.write_u64(self.universe);
        self.sampler.write_to(w);
        self.t1.write_to(w);
        self.hashes.write_to(w);
        // T2 as one varint block (count, then one LEB128 value per
        // cell), read through the epoch bytes. An all-dead group of
        // eight one-byte counts is packed in one store, the same fast
        // path `push_uvarints` takes.
        w.write_seq_len(self.slots.len());
        w.write_byte_seq_with(|out| {
            let groups = self.slots.len() / 8 * 8;
            for base in (0..groups).step_by(8) {
                let epochs = &self.epochs[base..base + 8];
                let dead = u64::from_ne_bytes(epochs.try_into().expect("8-byte group")) == u64::MAX;
                let slots = &self.slots[base..base + 8];
                if dead && slots.iter().fold(0, |a, &v| a | v) < 0x80 {
                    let mut packed = [0u8; 8];
                    for (b, &v) in packed.iter_mut().zip(slots) {
                        *b = v as u8;
                    }
                    out.extend_from_slice(&packed);
                } else {
                    for cell in base..base + 8 {
                        push_uvarint(out, self.t2(cell));
                    }
                }
            }
            for cell in groups..self.slots.len() {
                push_uvarint(out, self.t2(cell));
            }
        });
        snapshot::write_u64_slice_delta(&self.epoch_thresholds, w);
        w.write_u64(self.k_eps as u64);
        w.write_seq_len(t3_values);
        w.write_byte_seq_with(|out| {
            for cell in Self::live_cells(&self.epochs) {
                for &v in self.row(cell).expect("live cells own a row") {
                    push_uvarint(out, v);
                }
            }
            push_uvarints(out, &self.pool[..reps]);
        });
        self.t2_skip.write_to(w);
        self.bits.write_to(w);
        w.write_bool(self.mode == EpochMode::Accelerated);
        w.write_u64(self.samples);
        snapshot::write_rng_state(self.rng.to_state(), w);
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let params = HhParams::read_from(r)?;
        let universe = r.read_u64()?;
        if universe == 0 {
            return Err(CodecError::invariant("empty universe"));
        }
        let sampler = BitSkipSampler::read_from(r)?;
        let t1 = MisraGries::read_from(r)?;
        let hashes: Vec<MultiplyShift64Hash> = Vec::read_from(r)?;
        let reps = hashes.len();
        if reps == 0 {
            return Err(CodecError::invariant("no repetitions"));
        }
        let buckets = hashes[0].range();
        if hashes.iter().any(|h| h.range() != buckets) {
            return Err(CodecError::invariant("repetition ranges disagree"));
        }
        // Shape arithmetic over wire-supplied dimensions must be
        // checked: a forged `r`/`range` pair can overflow `usize`, and
        // under overflow-checks builds an unchecked multiply would
        // panic instead of returning `Err`.
        let shape_err = || CodecError::invariant("table shapes inconsistent");
        let cells = usize::try_from(buckets)
            .ok()
            .and_then(|b| reps.checked_mul(b))
            .ok_or_else(shape_err)?;
        // The T2 block is decoded only once the threshold table after it
        // says which counts are live, straight into the cell slots.
        if r.read_seq_len()? != cells {
            return Err(shape_err());
        }
        let t2_block = r.read_byte_slice()?;
        let epoch_thresholds: Vec<u64> = snapshot::read_u64_slice_delta(r)?;
        let k_eps = r.read_u64()?;
        if k_eps > 64 {
            return Err(CodecError::invariant("epsilon exponent above 64"));
        }
        let k_eps = k_eps as u32;
        let kp1 = k_eps as usize + 1;
        if epoch_thresholds.len() != kp1 {
            return Err(CodecError::invariant("epoch table shape inconsistent"));
        }
        // Every row a later update or merge opens must stay addressable,
        // and every dead count must fit its slot.
        if !pool_fits(cells, kp1, reps) {
            return Err(shape_err());
        }
        if !slot_fits(&epoch_thresholds) {
            return Err(CodecError::invariant(
                "epoch-0 threshold past the slot width",
            ));
        }
        // The epoch cache is derived state (the threshold-table lookup
        // of each T2 value, which `advance_epoch` maintains exactly), and
        // it decides which cells own a row: deriving it from T2 as the
        // T3 block is read keeps the snapshot smaller and gives a dead
        // cell no row by construction.
        //
        // Allocation stays proportional to the buffer. A dead cell took
        // at least one wire byte and costs 5 bytes in memory (its slot
        // and epoch byte). A live cell took at least `k+2` (its T2 and
        // its `k+1` row values) and costs `5 + 8·(k+2)`, and a sink took
        // at least one and costs 8. That is at most `8 + 5/(k+2) ≤ 10.5`
        // bytes per buffer byte, under 9 at the served `k = 4`.
        let t3_values = r.read_seq_len()?;
        let row_block = r.read_byte_slice()?;
        let (slots, epochs, pool) = Self::tables_from_blocks(
            t2_block,
            cells,
            &epoch_thresholds,
            row_block,
            t3_values,
            reps,
        )
        .ok_or_else(|| CodecError::invariant("malformed T2 or T3 block"))?;
        let t2_skip = BitSkipSampler::read_from(r)?;
        let bits = BitBudget::read_from(r)?;
        let accelerated = r.read_bool()?;
        let samples = r.read_u64()?;
        let rng = StdRng::from_state(snapshot::read_rng_state(r)?);

        let (slice_words, layout_ok) = coin_layout(k_eps, reps);
        Ok(Self {
            params,
            universe,
            sampler,
            p: sampler.probability(),
            t1,
            hashes,
            slots,
            pool,
            epochs,
            epoch_thresholds,
            buckets,
            k_eps,
            t2_skip,
            bits,
            slice_words,
            fast_coins: layout_ok && accelerated,
            mode: if accelerated {
                EpochMode::Accelerated
            } else {
                EpochMode::Flat
            },
            samples,
            rng,
            cache: QueryCache::new(),
        })
    }
}

impl MergeableSummary for OptimalListHh {
    /// The seed-aligned repetition-wise merge (BDW Algorithm 2): when
    /// both instances drew the same `h_j` per repetition, bucket `i` of
    /// repetition `j` counts the same item set in both, so `T2` and
    /// `T3` add cell-wise; each `T3[i, j, t]` remains a rate-`p_t`
    /// subsample of its bucket's arrivals, so the unbiased estimator
    /// `Σ_t T3[i,j,t]/p_t` and the Claim-2 variance argument carry over
    /// with the combined sample count. The candidate table merges as
    /// Misra–Gries, the epoch caches are recomputed outright from the
    /// merged `T2` values, and sample counts add.
    ///
    /// The pass is built for the read side's cadence (window rotations
    /// and combiner trees issue merges constantly): `T2` adds and the
    /// epoch recompute run fused over 8-cell blocks with a below-epoch-0
    /// early out, and the `T3` sweep adds only *other*'s pool rows — a
    /// bucket below epoch 0 owns none, which on realistic workloads is
    /// nearly all of them. A cell of `self` that the merged `T2` lifts
    /// to epoch 0 opens its row in the epoch pass, so every row of
    /// *other* has a row of `self` to land in.
    ///
    /// # Example
    ///
    /// ```
    /// use hh_core::{HeavyHitters, HhParams, MergeableSummary, OptimalListHh, StreamSummary};
    ///
    /// let params = HhParams::new(0.05, 0.2).unwrap();
    /// let m = 200_000u64;
    /// let mut a = OptimalListHh::with_seeds(params, 1 << 30, m, 7, 1).unwrap();
    /// let mut b = OptimalListHh::with_seeds(params, 1 << 30, m, 7, 2).unwrap();
    /// for i in 0..m {
    ///     let x = if i % 2 == 0 { 42 } else { i };
    ///     if i < m / 2 { a.insert(x) } else { b.insert(x) }
    /// }
    /// a.merge_from(&b).unwrap(); // halves combine into the full stream
    /// assert!(a.report().contains(42));
    /// ```
    fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        check_compatible(&self.params, &other.params, "parameters")?;
        check_compatible(&self.universe, &other.universe, "universes")?;
        check_compatible(&self.hashes, &other.hashes, "repetition hash seeds")?;
        check_compatible(&self.k_eps, &other.k_eps, "epsilon exponents")?;
        check_compatible(&self.p, &other.p, "sampling rates")?;
        check_compatible(
            &self.epoch_thresholds,
            &other.epoch_thresholds,
            "epoch thresholds",
        )?;
        check_compatible(&self.mode, &other.mode, "epoch modes")?;
        self.cache.invalidate();
        self.t1.merge_from(&other.t1)?;
        // Counter accumulation saturates throughout this merge: counts
        // near u64::MAX cannot occur for honestly ingested streams, but
        // a restored snapshot may carry them, and the merge must stay
        // total (no overflow panic) rather than trust them.
        self.samples = self.samples.saturating_add(other.samples);
        // T2 and the epoch cache, processed in 8-cell blocks. Each block
        // first sums its two slot rows lane-wise in `u64` (a fixed-trip
        // loop the compiler unrolls and vectorizes). A block dead on both
        // sides whose sums all stay below `thresholds[0]` stores them
        // back as counts — on realistic workloads nearly every block,
        // with no epoch byte touched. In any other block a lane dead on
        // both sides keeps its sum the same way, and every remaining lane
        // goes through `merge_t2_cell`: both sides' T2 read through their
        // epoch bytes, summed in `u64`, and stored by [`store_t2`], which
        // recomputes the epoch through [`OptimalListHh::epoch_of`]
        // (shared with snapshot restore) and opens the row of a cell the
        // sum lifts to epoch 0; a live result's T3[0] also takes the
        // pre-epoch-0 prefixes its estimate would otherwise drop.
        let kp1 = self.k_eps as usize + 1;
        let Self {
            slots,
            pool,
            epochs,
            epoch_thresholds,
            ..
        } = self;
        let thresholds = epoch_thresholds.as_slice();
        let thr0 = thresholds[0];
        let group = |e: &[u8]| u64::from_ne_bytes(e.try_into().expect("8-byte group"));
        let blocks = slots.len() / 8 * 8;
        for base in (0..blocks).step_by(8) {
            // Byte `i` is 0xFF exactly when lane `i` is dead on both sides.
            let dead = group(&epochs[base..base + 8]) & group(&other.epochs[base..base + 8]);
            let mut sum = [0u64; 8];
            for ((v, &a), &b) in sum
                .iter_mut()
                .zip(&slots[base..base + 8])
                .zip(&other.slots[base..base + 8])
            {
                *v = u64::from(a) + u64::from(b);
            }
            if dead == u64::MAX && sum.iter().all(|&v| v < thr0) {
                for (s, &v) in slots[base..base + 8].iter_mut().zip(&sum) {
                    *s = v as u32;
                }
                continue;
            }
            for (i, &v) in sum.iter().enumerate() {
                if (dead >> (8 * i)) & 0xFF == 0xFF && v < thr0 {
                    slots[base + i] = v as u32;
                } else {
                    merge_t2_cell(slots, epochs, pool, other, thresholds, base + i);
                }
            }
        }
        for cell in blocks..slots.len() {
            merge_t2_cell(slots, epochs, pool, other, thresholds, cell);
        }
        // T3 adds row-wise over other's pool rows only (a dead cell has
        // none, see [`OptimalListHh::live_cells`]), so the sweep costs
        // one pass over other's epoch bytes plus the touched rows.
        for cell in Self::live_cells(&other.epochs) {
            let src = other.row(cell).expect("live cells own a row");
            let at = self.slots[cell] as usize;
            debug_assert!(self.epochs[cell] != EPOCH_NONE, "merged epochs dominate");
            for (c, &o) in self.pool[at..at + kp1].iter_mut().zip(src) {
                *c = c.saturating_add(o);
            }
        }
        // The per-repetition sink cells absorb mass regardless of any
        // epoch, so they always add — which keeps them what they are,
        // discarded trials.
        let reps = self.hashes.len();
        for (c, &o) in self.pool[..reps].iter_mut().zip(&other.pool[..reps]) {
            *c = c.saturating_add(o);
        }
        Ok(())
    }

    fn to_bytes(&self) -> Vec<u8> {
        snapshot::encode(A2_TAG, self)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        snapshot::decode(A2_TAG, bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hh_streams::{arrange, OrderPolicy};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// T3 in the dense layout the pool replaced: `R·B` rows of `k+1`
    /// slots in cell order, dead rows zero, then the `R` sinks. Tables
    /// built in different row orders (ingest opens rows as cells go
    /// live, restore in cell order) compare equal through it.
    fn dense_t3(a: &OptimalListHh) -> Vec<u64> {
        let kp1 = a.k_eps as usize + 1;
        let reps = a.hashes.len();
        let cells = a.epochs.len();
        let mut t3 = vec![0; cells * kp1 + reps];
        for cell in OptimalListHh::live_cells(&a.epochs) {
            t3[cell * kp1..(cell + 1) * kp1].copy_from_slice(a.row(cell).unwrap());
        }
        t3[cells * kp1..].copy_from_slice(&a.pool[..reps]);
        t3
    }

    /// T2 in the dense `u64` layout the cell slots replaced: one count
    /// per cell, in cell order, wherever the cell keeps it.
    fn dense_t2(a: &OptimalListHh) -> Vec<u64> {
        (0..a.slots.len()).map(|cell| a.t2(cell)).collect()
    }

    /// Timing probe for the fused fast path, on one warm tenant and on
    /// 32 interleaved served-shape tenants; run with
    /// `cargo test --release -p hh-core kernel_probe -- --ignored --nocapture`.
    #[test]
    #[ignore = "manual perf probe, not a correctness test"]
    fn kernel_probe() {
        use std::time::Instant;
        let m: u64 = 1 << 21;
        let params = HhParams::new(0.05, 0.2).unwrap();
        let mut zipf_rng = StdRng::seed_from_u64(7);
        let n_items: u64 = 1 << 32;
        // The batch_update_time bench's exact stream.
        let mut gen = hh_streams::ZipfGenerator::new(n_items, 1.2).scrambled(&mut zipf_rng);
        let stream: Vec<u64> = hh_streams::collect_stream(&mut gen, m as usize, &mut zipf_rng);
        let mut a = OptimalListHh::new(params, n_items, m, 42).unwrap();
        eprintln!(
            "R={} buckets={} k_eps={} sampler_k={} p={}",
            a.repetitions(),
            a.buckets,
            a.k_eps,
            a.sampler.exponent(),
            a.p
        );
        let t0 = Instant::now();
        for chunk in stream.chunks(16384) {
            a.insert_batch(chunk);
        }
        let full = t0.elapsed();
        let r = a.hashes.len();
        let t3 = dense_t3(&a);
        let sinks: u64 = t3[t3.len() - r..].iter().sum();
        let accepts: u64 = t3[..t3.len() - r].iter().sum();
        let coins: u64 = dense_t2(&a).iter().sum();
        eprintln!(
            "full={:?} samples={} pairs={} accepts={} sinks={} t2coins={}",
            full,
            a.samples(),
            a.samples() * r as u64,
            accepts,
            sinks,
            coins
        );
        // The served multi-tenant shape: 32 tenants at p = 1 (ε 0.05,
        // φ 0.15, m = 200 000), each op ingesting one of 32 batches of
        // 1024 items of the same stream into a tenant picked with
        // Zipf(1.5) popularity, so 32 tenants' tables compete for cache
        // as they do in a server.
        const TENANTS: u64 = 32;
        const OPS: usize = 6_000;
        let params = HhParams::with_delta(0.05, 0.15, 0.1).unwrap();
        let mut tenants: Vec<OptimalListHh> = (0..TENANTS)
            .map(|t| OptimalListHh::with_seeds(params, n_items, 200_000, 42, t).unwrap())
            .collect();
        let mut popularity = hh_streams::ZipfGenerator::new(TENANTS, 1.5).scrambled(&mut zipf_rng);
        let picks = hh_streams::collect_stream(&mut popularity, OPS, &mut zipf_rng);
        let t0 = Instant::now();
        for (op, &t) in picks.iter().enumerate() {
            let batch = op % 32 * 1024;
            tenants[t as usize].insert_batch(&stream[batch..batch + 1024]);
        }
        let elapsed = t0.elapsed();
        let live: usize = tenants
            .iter()
            .map(|a| OptimalListHh::live_cells(&a.epochs).count())
            .sum();
        let heap: usize = tenants.iter().map(SpaceUsage::heap_bytes).sum();
        eprintln!(
            "{TENANTS} tenants: ns/item={:.1} live_cells={live} heap_bytes={heap}",
            elapsed.as_nanos() as f64 / (OPS * 1024) as f64
        );
    }

    fn planted_stream(m: u64, heavy: &[(u64, f64)], seed: u64) -> Vec<u64> {
        let mut counts: Vec<(u64, u64)> = heavy
            .iter()
            .map(|&(id, frac)| (id, (frac * m as f64).round() as u64))
            .collect();
        let used: u64 = counts.iter().map(|&(_, c)| c).sum();
        let fill = m - used;
        let light_ids = 4096u64;
        for j in 0..light_ids {
            let c = fill / light_ids + u64::from(j < fill % light_ids);
            if c > 0 {
                counts.push((1_000_000 + j, c));
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        arrange(&counts, OrderPolicy::Shuffled, &mut rng)
    }

    fn run(
        m: u64,
        heavy: &[(u64, f64)],
        eps: f64,
        phi: f64,
        seed: u64,
        mode: EpochMode,
    ) -> (OptimalListHh, Vec<u64>) {
        let params = HhParams::with_delta(eps, phi, 0.1).unwrap();
        let stream = planted_stream(m, heavy, seed);
        let mut a = OptimalListHh::with_constants(
            params,
            1 << 40,
            m,
            seed ^ 0xABCD,
            Constants::default(),
            mode,
        )
        .unwrap();
        a.insert_all(&stream);
        (a, stream)
    }

    #[test]
    fn finds_planted_heavy_hitters_with_estimates() {
        let m = 600_000u64;
        let heavy = [(7u64, 0.30), (8, 0.16), (9, 0.12)];
        let (a, _) = run(m, &heavy, 0.05, 0.1, 1, EpochMode::Accelerated);
        let r = a.report();
        for (item, frac) in heavy {
            assert!(r.contains(item), "missing heavy item {item}");
            let est = r.estimate(item).unwrap();
            let truth = frac * m as f64;
            assert!(
                (est - truth).abs() <= 0.05 * m as f64,
                "item {item}: est {est} truth {truth}"
            );
        }
    }

    #[test]
    fn rejects_items_below_phi_minus_eps() {
        let m = 600_000u64;
        // 55 sits at (φ−ε)m = 5%: must not be reported.
        let (a, _) = run(
            m,
            &[(7, 0.30), (55, 0.05)],
            0.05,
            0.1,
            2,
            EpochMode::Accelerated,
        );
        let r = a.report();
        assert!(r.contains(7));
        assert!(!r.contains(55), "item at (phi-eps)m must be suppressed");
    }

    #[test]
    fn epoch_boundaries_move_with_t2() {
        let params = HhParams::with_delta(0.05, 0.2, 0.1).unwrap();
        let a = OptimalListHh::new(params, 1 << 20, 1 << 20, 3).unwrap();
        assert_eq!(a.epoch(0), None);
        // Below the epoch-0 threshold T2² · c < 1.
        let thresh = (1.0 / Constants::default().a2_epoch_scale).sqrt();
        assert_eq!(a.epoch((thresh * 0.5) as u64), None);
        // Above it, epochs increase and clamp at k_eps.
        let t_lo = a.epoch((thresh * 1.5) as u64).unwrap();
        let t_hi = a.epoch((thresh * 100.0) as u64).unwrap();
        assert!(t_hi > t_lo);
        assert!(t_hi <= a.k_eps);
        assert_eq!(a.epoch(u32::MAX as u64), Some(a.k_eps));
    }

    #[test]
    fn epoch_table_matches_reference_formula() {
        // The integer threshold table must agree with the float formula
        // it replaced, including exactly at every boundary.
        let params = HhParams::with_delta(0.05, 0.2, 0.1).unwrap();
        let a = OptimalListHh::new(params, 1 << 20, 1 << 20, 3).unwrap();
        let scale = Constants::default().a2_epoch_scale;
        let reference = |v: u64| raw_epoch(v, scale).map(|e| e.min(a.k_eps));
        for v in 0..5000u64 {
            assert_eq!(a.epoch(v), reference(v), "v={v}");
        }
        for &thr in &a.epoch_thresholds {
            for v in [thr.saturating_sub(1), thr, thr + 1] {
                assert_eq!(a.epoch(v), reference(v), "boundary v={v}");
            }
        }
    }

    #[test]
    fn cached_epoch_advance_matches_lookup() {
        let params = HhParams::with_delta(0.02, 0.1, 0.1).unwrap();
        let a = OptimalListHh::new(params, 1 << 20, 1 << 20, 5).unwrap();
        let mut cached = EPOCH_NONE;
        for v in 1..20_000u64 {
            cached = OptimalListHh::advance_epoch(&a.epoch_thresholds, cached, v);
            let expect = match a.epoch(v) {
                None => EPOCH_NONE,
                Some(e) => e as u8,
            };
            assert_eq!(cached, expect, "v={v}");
        }
    }

    #[test]
    fn repetitions_are_odd_and_scale_with_phi() {
        let p1 = HhParams::with_delta(0.01, 0.5, 0.1).unwrap();
        let p2 = HhParams::with_delta(0.01, 0.02, 0.1).unwrap();
        let a1 = OptimalListHh::new(p1, 1 << 20, 1 << 20, 0).unwrap();
        let a2 = OptimalListHh::new(p2, 1 << 20, 1 << 20, 0).unwrap();
        assert_eq!(a1.repetitions() % 2, 1);
        assert_eq!(a2.repetitions() % 2, 1);
        assert!(a2.repetitions() > a1.repetitions());
    }

    #[test]
    fn flat_mode_still_counts_but_without_t3() {
        let m = 300_000u64;
        let (a, _) = run(m, &[(7, 0.40)], 0.05, 0.15, 4, EpochMode::Flat);
        // T3 untouched in flat mode.
        assert!(dense_t3(&a).iter().all(|&c| c == 0));
        let r = a.report();
        assert!(r.contains(7), "flat mode should still find a 40% item");
    }

    #[test]
    fn per_repetition_tables_scale_as_inverse_eps() {
        // Theorem 2's counting core: each repetition's T2+T3 cost is
        // Θ(ε⁻¹) bits with an ε-independent constant (cell values stay
        // Θ(1) in expectation because s ~ ε⁻², the subsample rate is ~ε
        // and there are ~ε⁻¹ buckets). Check that bits·ε is flat across a
        // 4x change in ε — this is what separates the optimal bound
        // ε⁻¹·log φ⁻¹ from Algorithm 1's ε⁻¹·log ε⁻¹.
        // Small sample budget keeps the test fast without changing shape.
        let consts = Constants {
            a2_sample_factor: 500.0,
            ..Constants::default()
        };
        let per_rep_bits = |eps: f64, seed: u64| -> f64 {
            let m = 1 << 21;
            let params = HhParams::with_delta(eps, 0.25, 0.1).unwrap();
            let stream = planted_stream(m, &[(1u64, 0.3)], seed);
            let mut a = OptimalListHh::with_constants(
                params,
                1 << 40,
                m,
                seed,
                consts,
                EpochMode::Accelerated,
            )
            .unwrap();
            a.insert_all(&stream);
            (0..a.repetitions())
                .map(|j| a.rep_counting_bits(j))
                .sum::<u64>() as f64
                / a.repetitions() as f64
        };
        let coarse = per_rep_bits(0.1, 5);
        let fine = per_rep_bits(0.025, 6);
        let ratio = (fine * 0.025) / (coarse * 0.1);
        assert!(
            (0.5..2.0).contains(&ratio),
            "bits*eps not flat: coarse {coarse}, fine {fine}, ratio {ratio}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let m = 100_000u64;
        let heavy = [(3u64, 0.5)];
        let (a, _) = run(m, &heavy, 0.1, 0.3, 9, EpochMode::Accelerated);
        let (b, _) = run(m, &heavy, 0.1, 0.3, 9, EpochMode::Accelerated);
        assert_eq!(a.report().entries(), b.report().entries());
    }

    #[test]
    fn batch_insert_is_bit_identical_to_element_wise() {
        let m = 200_000u64;
        let params = HhParams::with_delta(0.05, 0.15, 0.1).unwrap();
        let stream = planted_stream(m, &[(7, 0.30), (8, 0.18)], 21);
        let mut a = OptimalListHh::new(params, 1 << 40, m, 6).unwrap();
        for &x in &stream {
            a.insert(x);
        }
        let mut b = OptimalListHh::new(params, 1 << 40, m, 6).unwrap();
        for chunk in stream.chunks(4099) {
            b.insert_batch(chunk);
        }
        assert_eq!(a.report().entries(), b.report().entries());
        assert_eq!(a.samples(), b.samples());
        assert_eq!(a.component_bits(), b.component_bits());
    }

    #[test]
    fn saturated_rate_batch_delegates_and_stays_bit_identical() {
        // A short advertised stream saturates p = 1 (exponent 0): the
        // batch path must delegate to the scalar loop and still match
        // element-wise insertion exactly.
        let m = 2_000u64;
        let params = HhParams::with_delta(0.1, 0.3, 0.1).unwrap();
        let mut a = OptimalListHh::new(params, 1 << 20, m, 11).unwrap();
        assert_eq!(a.sampling_probability(), 1.0, "test needs the p = 1 regime");
        let stream: Vec<u64> = (0..m).map(|i| if i % 3 == 0 { 5 } else { i }).collect();
        let mut b = OptimalListHh::new(params, 1 << 20, m, 11).unwrap();
        for &x in &stream {
            a.insert(x);
        }
        for chunk in stream.chunks(311) {
            b.insert_batch(chunk);
        }
        assert_eq!(a.samples(), b.samples());
        assert_eq!(dense_t2(&a), dense_t2(&b));
        assert_eq!(dense_t3(&a), dense_t3(&b));
        assert_eq!(a.report().entries(), b.report().entries());
    }

    #[test]
    fn point_queries_track_heavy_items() {
        use crate::traits::FrequencyEstimator;
        let m = 400_000u64;
        let heavy = [(7u64, 0.35), (8, 0.2)];
        let (a, _) = run(m, &heavy, 0.05, 0.15, 31, EpochMode::Accelerated);
        for (item, frac) in heavy {
            let est = a.estimate(item);
            assert!(
                (est - frac * m as f64).abs() <= 0.05 * m as f64,
                "item {item}: est {est}"
            );
        }
    }

    #[test]
    fn short_stream_estimates_carry_the_pre_epoch_0_prefix() {
        // At p = 1 every stream item is a sample, and a bucket's T3 sees
        // nothing until its T2 reaches epoch 0: about thresholds[0] · 2^k
        // = 50 · 16 = 800 items at this shape, more than ε·m = 600. The
        // T3 sum alone leaves the top item ~800 under on every seed; the
        // prefix term puts it back within ε·m.
        let m = 12_000u64;
        for seed in 1..=5 {
            let (a, _) = run(m, &[(7, 0.30)], 0.05, 0.15, seed, EpochMode::Accelerated);
            assert_eq!(a.sampling_probability(), 1.0, "test needs p = 1");
            let est = a.report().estimate(7).expect("top item reported");
            let truth = 0.30 * m as f64;
            assert!(
                (est - truth).abs() <= 0.05 * m as f64,
                "seed {seed}: est {est}, truth {truth}"
            );
        }
    }

    #[test]
    fn epoch_scales_whose_dead_counts_overflow_a_slot_are_rejected() {
        // Below 2^-64 the epoch-0 threshold passes 2^32, and a dead
        // cell's count would no longer fit its u32 slot.
        let params = HhParams::with_delta(0.05, 0.2, 0.1).unwrap();
        let build = |scale: f64| {
            let consts = Constants {
                a2_epoch_scale: scale,
                ..Constants::default()
            };
            OptimalListHh::with_constants(
                params,
                1 << 20,
                1 << 20,
                0,
                consts,
                EpochMode::Accelerated,
            )
        };
        let fits = build(1e-18).unwrap();
        assert!(fits.epoch_thresholds[0] <= u64::from(u32::MAX));
        assert_eq!(
            build(1e-20).unwrap_err(),
            ParamError::BadConstants("algorithm-2 epoch scale")
        );
    }

    #[test]
    fn degenerate_epoch_scale_is_rejected_not_hung() {
        // A non-positive or NaN scale would make the threshold search
        // loop forever; construction must error instead.
        let params = HhParams::with_delta(0.05, 0.2, 0.1).unwrap();
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let consts = Constants {
                a2_epoch_scale: bad,
                ..Constants::default()
            };
            let r = OptimalListHh::with_constants(
                params,
                1 << 20,
                1 << 20,
                0,
                consts,
                EpochMode::Accelerated,
            );
            assert!(r.is_err(), "scale {bad} must be rejected");
        }
    }

    #[test]
    fn empty_stream_reports_nothing() {
        let params = HhParams::new(0.1, 0.3).unwrap();
        let a = OptimalListHh::new(params, 100, 1000, 0).unwrap();
        assert!(a.report().is_empty());
    }

    #[test]
    fn merged_partitions_find_the_heavy_hitters() {
        let m = 600_000u64;
        let params = HhParams::with_delta(0.05, 0.1, 0.1).unwrap();
        let stream = planted_stream(m, &[(7, 0.30), (8, 0.16), (55, 0.05)], 41);
        let mut parts: Vec<OptimalListHh> = (0..4)
            .map(|j| OptimalListHh::with_seeds(params, 1 << 40, m, 13, 500 + j).unwrap())
            .collect();
        for (i, chunk) in stream.chunks(1024).enumerate() {
            parts[i % 4].insert_batch(chunk);
        }
        let mut merged = parts.remove(0);
        let first_samples = merged.samples();
        for p in &parts {
            merged.merge_from(p).unwrap();
        }
        assert_eq!(
            merged.samples(),
            first_samples + parts.iter().map(|p| p.samples()).sum::<u64>()
        );
        let r = merged.report();
        assert!(
            r.contains(7) && r.contains(8),
            "merged report misses heavy items"
        );
        assert!(!r.contains(55), "(phi-eps)-light item must stay suppressed");
        for (item, frac) in [(7u64, 0.30), (8, 0.16)] {
            let est = r.estimate(item).unwrap();
            assert!(
                (est - frac * m as f64).abs() <= 0.05 * m as f64,
                "item {item}: est {est}"
            );
        }
    }

    #[test]
    fn merge_restores_epoch_cache_invariant() {
        // After a merge, every cached epoch byte must equal the table
        // lookup for the merged T2 value.
        let m = 300_000u64;
        let params = HhParams::with_delta(0.05, 0.15, 0.1).unwrap();
        let mut a = OptimalListHh::with_seeds(params, 1 << 40, m, 3, 30).unwrap();
        let mut b = OptimalListHh::with_seeds(params, 1 << 40, m, 3, 31).unwrap();
        a.insert_batch(&planted_stream(m / 2, &[(7, 0.4)], 1));
        b.insert_batch(&planted_stream(m / 2, &[(7, 0.4)], 2));
        a.merge_from(&b).unwrap();
        for (cell, v) in dense_t2(&a).into_iter().enumerate() {
            let expect = match a.epoch(v) {
                None => EPOCH_NONE,
                Some(e) => e as u8,
            };
            assert_eq!(a.epochs[cell], expect, "cell {cell} cache stale");
        }
    }

    #[test]
    fn bulk_epoch_recompute_matches_lookup() {
        // `epoch_of` (restore and the merge) recomputes epochs outright;
        // it must agree with the threshold-table lookup value for value,
        // including at every boundary.
        let params = HhParams::with_delta(0.02, 0.1, 0.1).unwrap();
        let a = OptimalListHh::new(params, 1 << 20, 1 << 20, 5).unwrap();
        let mut probes: Vec<u64> = (0..5000).collect();
        probes.extend(
            a.epoch_thresholds
                .iter()
                .flat_map(|&t| [t.saturating_sub(1), t, t + 1]),
        );
        for &v in &probes {
            let e = OptimalListHh::epoch_of(v, &a.epoch_thresholds);
            let expect = match a.epoch(v) {
                None => EPOCH_NONE,
                Some(t) => t as u8,
            };
            assert_eq!(e, expect, "v={v}");
        }
    }

    /// Asserts the slot and pool invariants: a dead cell's slot holds
    /// a count below `thresholds[0]`; every live cell's slot holds the
    /// offset of exactly one distinct, whole row past the sinks, whose
    /// last slot carries a T2 value of the cell's cached epoch; and the
    /// pool holds nothing else.
    fn assert_one_row_per_live_cell(a: &OptimalListHh) -> usize {
        let kp1 = a.k_eps as usize + 1;
        let reps = a.hashes.len();
        let thr0 = a.epoch_thresholds[0];
        let mut owners = vec![None; a.pool.len()];
        let mut live = 0usize;
        for (cell, &e) in a.epochs.iter().enumerate() {
            let slot = a.slots[cell];
            if e == EPOCH_NONE {
                assert!(
                    u64::from(slot) < thr0,
                    "dead cell {cell}: count {slot} at or past epoch 0"
                );
                continue;
            }
            live += 1;
            let at = slot as usize;
            assert!(
                at >= reps && (at - reps) % (kp1 + 1) == 0,
                "cell {cell}: offset {at}"
            );
            assert!(at + kp1 < a.pool.len(), "cell {cell}: row past the pool");
            let t2 = a.pool[at + kp1];
            assert_eq!(
                OptimalListHh::epoch_of(t2, &a.epoch_thresholds),
                e,
                "cell {cell}: row carries T2 {t2}, not one of epoch {e}"
            );
            assert_eq!(
                owners[at], None,
                "cells {:?} and {cell} share a row",
                owners[at]
            );
            owners[at] = Some(cell);
        }
        assert_eq!(
            a.pool.len(),
            reps + live * (kp1 + 1),
            "the pool holds an orphan row"
        );
        live
    }

    #[test]
    fn dead_epoch_rows_carry_no_t3_mass() {
        // A cell owns a T3 row exactly while its cached epoch is live:
        // a dead cell's row would be identically zero, so it has none,
        // and the merge, the encoder and the estimates read rows only
        // through live cells. Check the invariant on a loaded summary.
        let m = 400_000u64;
        let (a, _) = run(
            m,
            &[(7, 0.3), (8, 0.16)],
            0.05,
            0.15,
            77,
            EpochMode::Accelerated,
        );
        let live = assert_one_row_per_live_cell(&a);
        assert!(live > 0, "workload never reached epoch 0 — test is vacuous");
    }

    #[test]
    fn live_cells_visits_every_live_cell_including_a_partial_last_group() {
        let mut epochs = vec![EPOCH_NONE; 19];
        for cell in [0, 7, 8, 15, 17, 18] {
            epochs[cell] = 0;
        }
        epochs[9] = 3;
        let cells: Vec<usize> = OptimalListHh::live_cells(&epochs).collect();
        assert_eq!(cells, [0, 7, 8, 9, 15, 17, 18]);
        assert_eq!(OptimalListHh::live_cells(&[]).count(), 0);
    }

    #[test]
    fn merge_rejects_differently_seeded_instances() {
        use crate::error::MergeError;
        let params = HhParams::new(0.05, 0.2).unwrap();
        let mut a = OptimalListHh::with_seeds(params, 1 << 20, 10_000, 1, 10).unwrap();
        let b = OptimalListHh::with_seeds(params, 1 << 20, 10_000, 2, 11).unwrap();
        assert_eq!(
            a.merge_from(&b),
            Err(MergeError::Incompatible("repetition hash seeds"))
        );
    }

    #[test]
    fn snapshot_restores_report_and_resumes_bit_identically() {
        let m = 200_000u64;
        let params = HhParams::with_delta(0.05, 0.15, 0.1).unwrap();
        let stream = planted_stream(m, &[(7, 0.35), (8, 0.2)], 17);
        let (head, tail) = stream.split_at(stream.len() / 3);
        let mut a = OptimalListHh::new(params, 1 << 40, m, 5).unwrap();
        a.insert_batch(head);
        let mut restored = OptimalListHh::from_bytes(&a.to_bytes()).unwrap();
        assert_eq!(a.report().entries(), restored.report().entries());
        assert_eq!(a.component_bits(), restored.component_bits());
        // Resuming ingestion from the snapshot matches the original,
        // sample for sample (RNG and sampler state travel too).
        a.insert_batch(tail);
        restored.insert_batch(tail);
        assert_eq!(a.report().entries(), restored.report().entries());
        assert_eq!(a.samples(), restored.samples());
        assert_eq!(dense_t2(&a), dense_t2(&restored));
        assert_eq!(dense_t3(&a), dense_t3(&restored));
    }

    /// A seed-aligned instance at the served `tenant_churn` shape
    /// (ε 0.05, φ 0.15, δ 0.1, 32-bit universe, m = 200 000) after
    /// `batches` Zipf(1.2) batches of 1024 items.
    fn churn_shaped(batches: usize) -> OptimalListHh {
        let params = HhParams::with_delta(0.05, 0.15, 0.1).unwrap();
        let mut a = OptimalListHh::with_seeds(params, 1 << 32, 200_000, 42, 7).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut zipf = hh_streams::ZipfGenerator::new(1 << 32, 1.2).scrambled(&mut rng);
        for _ in 0..batches {
            a.insert_batch(&hh_streams::collect_stream(&mut zipf, 1024, &mut rng));
        }
        a
    }

    #[test]
    fn churn_shaped_snapshots_stay_under_32_kib() {
        // The dense v4 layout encoded both of these to ~142 KB: one
        // varint per T3 cell, R·B·(k+1) of them.
        for batches in [0, 32] {
            let a = churn_shaped(batches);
            let bytes = a.to_bytes();
            assert!(
                bytes.len() <= 32 << 10,
                "{batches} batches: {} bytes",
                bytes.len()
            );
            let back = OptimalListHh::from_bytes(&bytes).unwrap();
            assert_eq!(dense_t2(&back), dense_t2(&a));
            assert_eq!(dense_t3(&back), dense_t3(&a));
            assert_eq!(back.epochs, a.epochs);
        }
    }

    /// Sets `T2[cell] = v` (never below its current value) and refreshes
    /// the cell's epoch as the kernel does, opening its row if it goes
    /// live.
    fn raise_t2(a: &mut OptimalListHh, cell: usize, v: u64) {
        assert!(v >= a.t2(cell), "T2 never decreases");
        let kp1 = a.k_eps as usize + 1;
        store_t2(
            &mut a.slots[cell],
            &mut a.epochs[cell],
            &mut a.pool,
            &a.epoch_thresholds,
            kp1,
            v,
        );
    }

    #[test]
    fn heap_bytes_track_live_rows() {
        let fresh = churn_shaped(0);
        assert!(
            fresh.heap_bytes() <= 120 << 10,
            "fresh: {} bytes",
            fresh.heap_bytes()
        );
        let kp1 = fresh.k_eps as usize + 1;
        // The counting tables alone (T1's scratch and the decoded hash
        // vector's capacity move with their own history, not with T3).
        let tables = |a: &OptimalListHh| {
            a.slots.capacity() * 4 + a.epochs.capacity() + a.pool.capacity() * 8
        };
        let grown = churn_shaped(32);
        let live = assert_one_row_per_live_cell(&grown);
        assert!(live > 0, "workload never reached epoch 0 — test is vacuous");
        // Ingest adds (k+2) words per newly live cell (its T3 slots and
        // its T2), plus at most the pool's growth slack of an eighth of
        // its length.
        let rows = live * (kp1 + 1) * 8;
        let grew = tables(&grown) - tables(&fresh);
        let slack = grown.pool.len() / 8 * 8;
        assert!(
            (rows..=rows + slack).contains(&grew),
            "{live} live rows: grew {grew} bytes, rows {rows}, slack {slack}"
        );
        // A restore allocates its pool at exact size.
        let back = OptimalListHh::from_bytes(&grown.to_bytes()).unwrap();
        assert_eq!(back.pool.capacity(), back.pool.len());
        assert_eq!(tables(&back), tables(&fresh) + rows);
    }

    #[test]
    fn merge_opens_a_row_exactly_when_a_cell_goes_live() {
        let mut a = churn_shaped(8);
        let mut b = churn_shaped(0);
        b.rng = StdRng::seed_from_u64(99);
        let mut rng = StdRng::seed_from_u64(12);
        let mut zipf = hh_streams::ZipfGenerator::new(1 << 32, 1.2).scrambled(&mut rng);
        for _ in 0..8 {
            b.insert_batch(&hh_streams::collect_stream(&mut zipf, 1024, &mut rng));
        }
        let thr0 = a.epoch_thresholds[0];
        assert!(thr0 >= 2, "case 2 needs two dead halves");
        let dead_in_both: Vec<usize> = (0..a.slots.len())
            .filter(|&c| a.epochs[c] == EPOCH_NONE && b.epochs[c] == EPOCH_NONE)
            .collect();
        // Case 1: dead in `a`, live in `b` with mass in its row.
        let c1 = dead_in_both[0];
        raise_t2(&mut b, c1, thr0);
        let at = b.slots[c1] as usize;
        b.pool[at] = 3;
        b.pool[at + 1] = 1;
        // Case 2: dead in both, but the summed T2 crosses epoch 0.
        let c2 = dead_in_both[1];
        raise_t2(&mut a, c2, thr0 - 1);
        raise_t2(&mut b, c2, 1);
        assert!(a.epochs[c2] == EPOCH_NONE && b.epochs[c2] == EPOCH_NONE);

        let mut merged = a.clone();
        merged.merge_from(&b).unwrap();
        assert_one_row_per_live_cell(&merged);
        assert!(merged.epochs[c1] != EPOCH_NONE && merged.epochs[c2] != EPOCH_NONE);
        // T3 adds cell-wise, and each live cell's T3[0] also takes the
        // pre-epoch-0 prefixes its single `thresholds[0] · 2^k` term
        // does not cover: `thresholds[0]` per live input, T2 per dead one,
        // less the one the estimate adds.
        let kp1 = a.k_eps as usize + 1;
        let mut want: Vec<u64> = dense_t3(&a)
            .iter()
            .zip(dense_t3(&b))
            .map(|(x, y)| x + y)
            .collect();
        for cell in OptimalListHh::live_cells(&merged.epochs) {
            let prefix = |s: &OptimalListHh| {
                if s.epochs[cell] == EPOCH_NONE {
                    s.t2(cell)
                } else {
                    thr0
                }
            };
            want[cell * kp1] += prefix(&a) + prefix(&b) - thr0;
        }
        assert_eq!(dense_t3(&merged), want);
        assert_eq!(merged.row(c1).unwrap()[..2], [3 + a.t2(c1), 1]);
        assert!(merged.row(c2).unwrap().iter().all(|&c| c == 0));
        let bytes = merged.to_bytes();
        assert_eq!(OptimalListHh::from_bytes(&bytes).unwrap().to_bytes(), bytes);
    }

    #[test]
    fn decoded_heap_stays_within_14_bytes_per_buffer_byte() {
        // A dead cell costs 5 bytes in memory (its slot and epoch byte)
        // against at least one wire byte, a live cell `5 + 8·(k+2)`
        // against at least `k+2` (its T2 and its row values), and a sink
        // 8 against at least one: at most `8 + 5/(k+2)` bytes per buffer
        // byte, under 9 at this shape's `k = 4`. A fresh buffer is all
        // one-byte dead cells; the forged one (signed with a valid
        // trailer, but no stream can reach it) has every cell live at the
        // top epoch, the largest pool this shape can ask the decoder for.
        let fresh = churn_shaped(0);
        let mut forged = fresh.clone();
        let top = *forged.epoch_thresholds.last().unwrap();
        for cell in 0..forged.slots.len() {
            raise_t2(&mut forged, cell, top);
        }
        for (what, s) in [("fresh", fresh), ("forged", forged)] {
            let bytes = s.to_bytes();
            let back = OptimalListHh::from_bytes(&bytes).unwrap();
            assert!(
                back.heap_bytes() <= 9 * bytes.len() + (16 << 10),
                "{what}: {} heap bytes from {} wire bytes",
                back.heap_bytes(),
                bytes.len()
            );
        }
    }

    /// `body` with a freshly computed trailer: the checksum no longer
    /// protects anything, so the decoder's own bounds must.
    fn forge(body: &[u8]) -> Vec<u8> {
        let mut buf = body.to_vec();
        buf.extend_from_slice(&hh_space::fnv1a64x4(body).to_le_bytes());
        buf
    }

    #[test]
    fn forged_t3_blocks_one_value_short_or_long_are_refused() {
        let a = churn_shaped(32);
        let kp1 = a.k_eps as usize + 1;
        let t3 = dense_t3(&a);
        let sink = t3.len() - a.hashes.len();
        let mut values: Vec<u64> = OptimalListHh::live_cells(&a.epochs)
            .flat_map(|cell| t3[cell * kp1..(cell + 1) * kp1].iter().copied())
            .collect();
        values.extend_from_slice(&t3[sink..]);
        let block = |values: &[u64]| {
            let mut out = Vec::new();
            hh_space::push_uvarints(&mut out, values);
            out
        };
        // Locate the block on the wire: count, byte length, varints.
        let buf = a.to_bytes();
        let body = &buf[..buf.len() - 8];
        let honest = block(&values);
        let mut header = (values.len() as u64).to_le_bytes().to_vec();
        header.extend_from_slice(&(honest.len() as u64).to_le_bytes());
        header.extend_from_slice(&honest);
        let at = body
            .windows(header.len())
            .position(|w| w == header.as_slice())
            .expect("T3 block on the wire");
        let (head, tail) = (&body[..at], &body[at + header.len()..]);
        let splice = |count: usize, values: &[u64]| {
            let bytes = block(values);
            let mut out = head.to_vec();
            out.extend_from_slice(&(count as u64).to_le_bytes());
            out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
            out.extend_from_slice(&bytes);
            out.extend_from_slice(tail);
            forge(&out)
        };
        // The splice itself is faithful.
        assert_eq!(splice(values.len(), &values), buf.to_vec());
        let short = &values[..values.len() - 1];
        let mut long = values.clone();
        long.push(1);
        for (what, edited) in [("short", short), ("long", long.as_slice())] {
            // The count tells the truth about the edited block (the
            // shape check refuses it), or keeps the expected count (the
            // row decoder runs out or has bytes left over).
            for count in [edited.len(), values.len()] {
                let err = OptimalListHh::from_bytes(&splice(count, edited));
                assert!(
                    matches!(err, Err(SnapshotError::InvariantViolated(_))),
                    "{what} block, count {count}: {err:?}"
                );
            }
        }
    }

    #[test]
    fn t2_edits_that_move_a_cell_across_epoch_0_are_refused() {
        // Editing T2 while the epoch cache keeps its old bytes makes the
        // encoder write exactly the buffer a wire edit of that T2 value
        // would leave: the row block still follows the old liveness,
        // signed with a valid trailer.
        let a = churn_shaped(32);
        let live = OptimalListHh::live_cells(&a.epochs)
            .next()
            .expect("the workload reaches epoch 0");
        let dead = (0..a.epochs.len())
            .find(|&c| a.epochs[c] == EPOCH_NONE)
            .expect("some cell stays below epoch 0");
        let kp1 = a.k_eps as usize + 1;
        let mut killed = a.clone();
        killed.pool[a.slots[live] as usize + kp1] = 0;
        let mut revived = a.clone();
        revived.slots[dead] = a.epoch_thresholds[0] as u32;
        for (what, s) in [("live -> dead", killed), ("dead -> live", revived)] {
            let err = OptimalListHh::from_bytes(&s.to_bytes());
            assert!(
                matches!(err, Err(SnapshotError::InvariantViolated(_))),
                "{what}: {err:?}"
            );
        }
    }

    #[test]
    fn epoch_0_thresholds_past_the_slot_width_are_refused() {
        // A dead cell's count is below thresholds[0] and sits in a u32
        // slot, so the decoder refuses a table whose thresholds[0] passes
        // 2^32. The encoder signs the edited table, so only that check
        // stands in the way.
        for (thr0, fits) in [(1u64 << 32, true), ((1 << 32) + 1, false)] {
            let mut a = churn_shaped(0);
            let kp1 = a.epoch_thresholds.len() as u64;
            a.epoch_thresholds = (0..kp1).map(|t| thr0 + t).collect();
            let back = OptimalListHh::from_bytes(&a.to_bytes());
            if fits {
                assert!(back.is_ok(), "thresholds[0] = {thr0}: {:?}", back.err());
            } else {
                assert!(
                    matches!(back, Err(SnapshotError::InvariantViolated(_))),
                    "thresholds[0] = {thr0}: {:?}",
                    back.err()
                );
            }
        }
    }

    #[test]
    fn snapshot_rejects_cross_type_buffers() {
        use crate::SimpleListHh;
        let params = HhParams::new(0.1, 0.3).unwrap();
        let a1 = SimpleListHh::new(params, 1 << 20, 1000, 0).unwrap();
        let err = OptimalListHh::from_bytes(&a1.to_bytes()).unwrap_err();
        assert!(matches!(err, crate::SnapshotError::WrongTag { .. }));
    }
}
