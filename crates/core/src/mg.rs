//! The Misra–Gries frequent-items summary \[MG82\].
//!
//! Both of the paper's heavy-hitter algorithms embed a Misra–Gries table:
//! Algorithm 1 runs it over *hashed* ids ("Instead of storing the id of
//! any item x in the Misra-Gries table we only store the hash h(x)"),
//! Algorithm 2 runs it over raw ids with `2/φ` counters to produce its
//! candidate set. It is also the `O(ε⁻¹(log n + log m))`-bit baseline the
//! paper improves on, re-exported as such by `hh-baselines`.
//!
//! Guarantee: after `s` insertions, every estimate satisfies
//! `f_x − s/(k+1) ≤ estimate(x) ≤ f_x` where `k` is the capacity.
//!
//! The table is a small open-addressed array (multiplicative hash, linear
//! probing, ≤ 50% load) rather than a `HashMap`: this insert sits on the
//! per-sampled-item path of both heavy-hitter algorithms and *is* the
//! `misra_gries` baseline, so the hit path must be a multiply, a masked
//! probe, and one increment. A slot is live iff its count is nonzero —
//! Misra–Gries removes entries exactly when their counter hits zero, so
//! no tombstones are needed: the decrement-all step rebuilds the (tiny)
//! table, which the standard argument amortizes against earlier
//! increments.
//!
//! The decrement-all step is implemented directly; each decrement is paid
//! for by an earlier increment, so updates are amortized `O(1)` (worst-case
//! `O(1)` variants exist via the \[DLOM02\] doubly-linked group structure;
//! the paper's `O(1)` worst-case claim instead comes from spreading work
//! across the gaps between *sampled* items, which is how Algorithm 1 uses
//! this table).

use crate::error::{MergeError, SnapshotError};
use crate::mergeable::{check_compatible, snapshot, MergeableSummary};
use crate::traits::StreamSummary;
use hh_space::codec::{Codec, CodecError, Reader, Writer};
use hh_space::space::{gamma_bits, SpaceUsage};

/// Multiplicative-hash constant (2⁶⁴/φ, odd).
const SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// A Misra–Gries table with `k` counters over `u64` keys.
#[derive(Debug, Clone)]
pub struct MisraGries {
    /// Open-addressed parallel arrays; `counts[i] == 0` marks an empty
    /// slot. Power-of-two length `> 2·capacity`, so probe chains stay
    /// short and an empty slot always terminates a scan.
    keys: Vec<u64>,
    counts: Vec<u64>,
    /// `keys.len() - 1` (power-of-two mask).
    mask: usize,
    /// `64 − log₂(keys.len())`, the multiplicative-hash shift.
    shift: u32,
    /// Live entries.
    len: usize,
    capacity: usize,
    /// Bits charged per stored key (callers price raw ids at `log n` and
    /// hashed ids at `log(hash range)`).
    key_bits: u64,
    processed: u64,
    /// Reused survivor buffer for decrement-all / merge rebuilds.
    scratch: Vec<(u64, u64)>,
}

impl MisraGries {
    /// Table with `capacity ≥ 1` counters, charging `key_bits` per stored
    /// key in the space model.
    pub fn new(capacity: usize, key_bits: u64) -> Self {
        assert!(capacity >= 1, "capacity must be at least 1");
        // ≥ 2·(capacity+1) slots: at most ~50% load, so probes stay short
        // and an empty slot always exists to stop them.
        let slots = ((capacity + 1) * 2).next_power_of_two().max(4);
        Self {
            keys: vec![0; slots],
            counts: vec![0; slots],
            mask: slots - 1,
            shift: 64 - slots.trailing_zeros(),
            len: 0,
            capacity,
            key_bits,
            processed: 0,
            scratch: Vec::new(),
        }
    }

    /// Convenience constructor pricing keys as ids from `[0, universe)`.
    pub fn for_universe(capacity: usize, universe: u64) -> Self {
        Self::new(capacity, hh_space::id_bits(universe))
    }

    /// Number of counters configured.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of keys currently held.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Items inserted so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    #[inline]
    fn home_slot(&self, key: u64) -> usize {
        (key.wrapping_mul(SEED) >> self.shift) as usize
    }

    /// The lower-bound estimate for `key` (0 if absent).
    pub fn estimate(&self, key: u64) -> u64 {
        let mut i = self.home_slot(key);
        loop {
            let c = self.counts[i];
            if c == 0 {
                return 0;
            }
            if self.keys[i] == key {
                return c;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// The worst-case undercount: `processed / (capacity + 1)`.
    pub fn max_error(&self) -> u64 {
        self.processed / (self.capacity as u64 + 1)
    }

    /// Live `(key, count)` pairs in slot order (unsorted).
    fn live(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.keys
            .iter()
            .zip(&self.counts)
            .filter(|&(_, &c)| c > 0)
            .map(|(&k, &c)| (k, c))
    }

    /// Live `(key, count)` pairs in **slot order** (unsorted, no
    /// allocation). This is the read-side fast path for embedding
    /// algorithms that only need the candidate key set — e.g.
    /// Algorithm 2's report pass — and re-rank by their own estimates
    /// anyway; use [`MisraGries::entries`] when decreasing-count order
    /// matters.
    pub fn live_entries(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.live()
    }

    /// Current `(key, count)` pairs in decreasing count order.
    pub fn entries(&self) -> Vec<(u64, u64)> {
        let mut v: Vec<(u64, u64)> = self.live().collect();
        v.sort_unstable_by_key(|&(k, c)| (std::cmp::Reverse(c), k));
        v
    }

    /// The key with the largest counter, if any.
    pub fn argmax(&self) -> Option<(u64, u64)> {
        self.live().max_by_key(|&(k, c)| (c, std::cmp::Reverse(k)))
    }

    /// Places a key known to be absent, without capacity bookkeeping.
    fn place(&mut self, key: u64, count: u64) {
        debug_assert!(count > 0);
        let mut i = self.home_slot(key);
        while self.counts[i] != 0 {
            debug_assert_ne!(self.keys[i], key, "place() requires an absent key");
            i = (i + 1) & self.mask;
        }
        self.keys[i] = key;
        self.counts[i] = count;
        self.len += 1;
    }

    /// Rebuilds the table from `scratch` (survivor pairs). Clearing and
    /// re-placing sidesteps linear-probing tombstones: the table is at
    /// most `2·capacity` entries and rebuilds are amortized against the
    /// increments that funded the removed counts.
    fn rebuild_from_scratch(&mut self) {
        self.counts.fill(0);
        self.len = 0;
        let mut survivors = std::mem::take(&mut self.scratch);
        for &(k, c) in &survivors {
            self.place(k, c);
        }
        survivors.clear();
        self.scratch = survivors;
    }

    /// Merges another table into this one (sums counters, then reduces
    /// back to capacity by subtracting the (k+1)-th largest count — the
    /// standard mergeable-summaries construction, which preserves the
    /// error bound `s/(k+1)` for the combined stream).
    ///
    /// The counter sums run **in-table**: keys `other` shares with this
    /// table add straight into their slots (one probe each, no sorting
    /// or searching side structures), and only the keys this table has
    /// never seen go to a scratch list. If everything then fits within
    /// capacity the merge is done — the common case when the two tables
    /// track similar key sets, e.g. two halves of one skewed stream. On
    /// overflow the combined multiset is assembled in the (reused)
    /// scratch buffer, the `(k+1)`-th largest count is selected in
    /// place, and the survivors rebuild the slot array — `other` may
    /// hold more live entries than this table has slots (capacities
    /// need not match), so unconditional in-table *insertion* could
    /// fill every slot and leave the probe loops nowhere to terminate.
    /// Merges sit on the read side's window-rotation and combiner
    /// cadence, so the whole path allocates nothing after the first
    /// call.
    pub fn merge(&mut self, other: &MisraGries) {
        // Saturating: stays total even for near-u64::MAX stream
        // positions carried in through a restored snapshot.
        self.processed = self.processed.saturating_add(other.processed);
        let mut extra = std::mem::take(&mut self.scratch);
        extra.clear();
        for (k, c) in other.live() {
            if !self.add_if_present(k, c) {
                extra.push((k, c));
            }
        }
        if self.len + extra.len() <= self.capacity {
            for &(k, c) in &extra {
                self.place(k, c);
            }
            extra.clear();
            self.scratch = extra;
            return;
        }
        // Overflow: reduce the combined multiset by the (k+1)-th
        // largest count (the standard mergeable-summaries cut; key
        // order is irrelevant from here on — the rebuild places by
        // hash).
        let mut combined = extra;
        combined.extend(self.live());
        let cap = self.capacity;
        let (_, &mut (_, cut), _) = combined.select_nth_unstable_by(cap, |a, b| b.1.cmp(&a.1));
        combined.retain_mut(|(_, c)| {
            if *c > cut {
                *c -= cut;
                true
            } else {
                false
            }
        });
        self.scratch = combined;
        self.rebuild_from_scratch();
    }

    /// Adds `c` to `key`'s counter if the key is live; `false` leaves
    /// the table untouched (merge helper).
    #[inline]
    fn add_if_present(&mut self, key: u64, c: u64) -> bool {
        let mut i = self.home_slot(key);
        loop {
            let cc = self.counts[i];
            if cc == 0 {
                return false;
            }
            if self.keys[i] == key {
                self.counts[i] = cc.saturating_add(c);
                return true;
            }
            i = (i + 1) & self.mask;
        }
    }
}

/// Snapshot format version tag (see [`MergeableSummary::to_bytes`]).
/// v4 signs with the checksum's folded lane step; v3 appended the
/// trailing integrity checksum; v2 carried
/// the keys and counts as two varint blocks through the codec's bulk
/// byte channel instead of one codec call per pair.
const MG_TAG: &str = "hh.misra-gries.v4";

/// Content snapshot: parameters, stream position, and the live
/// `(key, count)` entries as one interleaved varint block (key, count,
/// key, count, …) in slot order — a single buffer built and written in
/// one pass, which is what keeps the round trip cheap for the
/// few-dozen-entry tables the algorithms embed. The physical slot
/// layout is probe-history noise and is deliberately not captured —
/// restore rebuilds a fresh table with identical content, estimates,
/// and space accounting (equality on this type is content-based for
/// the same reason).
impl Codec for MisraGries {
    fn write_to(&self, w: &mut Writer) {
        w.reserve(self.len * 6 + 64);
        w.write_u64(self.capacity as u64);
        w.write_u64(self.key_bits);
        w.write_u64(self.processed);
        w.write_seq_len(self.len);
        w.write_byte_seq_with(|block| {
            for (k, c) in self.live() {
                hh_space::varint::push_uvarint(block, k);
                hh_space::varint::push_uvarint(block, c);
            }
        });
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        // The table allocates 2·capacity slots eagerly, so the bound must
        // be tight enough that a crafted buffer cannot provoke a huge
        // allocation: 2^20 counters covers eps down to ~10^-6, far past
        // any configuration the constructors produce.
        let capacity = r.read_u64()?;
        if capacity == 0 || capacity > (1 << 20) {
            return Err(CodecError::invariant("MisraGries capacity out of range"));
        }
        let key_bits = r.read_u64()?;
        if key_bits > 64 {
            return Err(CodecError::invariant("MisraGries key width above 64 bits"));
        }
        let processed = r.read_u64()?;
        let n = r.read_seq_len()?;
        if n > capacity as usize {
            return Err(CodecError::invariant("MisraGries entries exceed capacity"));
        }
        let block = r.read_byte_slice()?;
        let mut entries = Vec::with_capacity(n);
        let mut total = 0u64;
        let mut pos = 0usize;
        for _ in 0..n {
            let bad = || CodecError::invariant("MisraGries malformed entry block");
            let k = hh_space::varint::read_uvarint(block, &mut pos).ok_or_else(bad)?;
            let c = hh_space::varint::read_uvarint(block, &mut pos).ok_or_else(bad)?;
            if c == 0 {
                return Err(CodecError::invariant("MisraGries zero-count entry"));
            }
            total = total
                .checked_add(c)
                .ok_or_else(|| CodecError::invariant("MisraGries counts exceed stream position"))?;
            entries.push((k, c));
        }
        // Retained counts can never exceed the stream positions that
        // funded them — a forged buffer violating this would poison
        // every downstream threshold computation.
        if total > processed {
            return Err(CodecError::invariant(
                "MisraGries counts exceed stream position",
            ));
        }
        if pos != block.len() {
            return Err(CodecError::invariant("MisraGries trailing bytes"));
        }
        // Validate key uniqueness *before* any entry is placed —
        // `place()` requires absent keys.
        let mut keys: Vec<u64> = entries.iter().map(|&(k, _)| k).collect();
        keys.sort_unstable();
        if keys.windows(2).any(|w| w[0] == w[1]) {
            return Err(CodecError::invariant("MisraGries duplicate keys"));
        }
        let mut table = MisraGries::new(capacity as usize, key_bits);
        for (k, c) in entries {
            table.place(k, c);
        }
        table.processed = processed;
        Ok(table)
    }
}

impl MergeableSummary for MisraGries {
    /// The classic mergeable-summaries counter merge (see
    /// [`MisraGries::merge`]): sum counters, subtract the `(k+1)`-th
    /// largest. Requires equal capacity and key pricing, so the merged
    /// table carries the combined stream's `s/(k+1)` bound at the same
    /// `k`.
    ///
    /// # Example
    ///
    /// ```
    /// use hh_core::{MergeableSummary, MisraGries, StreamSummary};
    ///
    /// let mut a = MisraGries::new(4, 16);
    /// a.insert_batch(&[7, 7, 7, 1]);
    /// let mut b = MisraGries::new(4, 16);
    /// b.insert_batch(&[7, 2, 2]);
    /// a.merge_from(&b).unwrap();
    /// assert_eq!(a.processed(), 7);
    /// assert_eq!(a.argmax().unwrap().0, 7);
    /// ```
    fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        check_compatible(&self.capacity, &other.capacity, "capacities")?;
        check_compatible(&self.key_bits, &other.key_bits, "key widths")?;
        self.merge(other);
        Ok(())
    }

    fn to_bytes(&self) -> Vec<u8> {
        snapshot::encode(MG_TAG, self)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        snapshot::decode(MG_TAG, bytes)
    }
}

impl PartialEq for MisraGries {
    /// Content equality (same entries, parameters, and stream position);
    /// the physical slot layout is history-dependent and irrelevant.
    fn eq(&self, other: &Self) -> bool {
        self.capacity == other.capacity
            && self.key_bits == other.key_bits
            && self.processed == other.processed
            && self.entries() == other.entries()
    }
}

impl Eq for MisraGries {}

impl MisraGries {
    /// The insert body after the stream-position increment, with the
    /// home slot already computed (shared by the scalar and batch paths;
    /// the home slot depends only on the key and the fixed table shape,
    /// so precomputed slots stay valid across decrement rebuilds).
    #[inline]
    fn insert_at(&mut self, key: u64, home: usize) {
        let mut i = home;
        loop {
            let c = self.counts[i];
            if c == 0 {
                break;
            }
            if self.keys[i] == key {
                self.counts[i] = c + 1;
                return;
            }
            i = (i + 1) & self.mask;
        }
        if self.len < self.capacity {
            self.keys[i] = key;
            self.counts[i] = 1;
            self.len += 1;
            return;
        }
        // Table full and key absent: decrement everything (the incoming
        // item's single unit annihilates with one unit of every counter)
        // and rebuild from the survivors.
        let mut survivors = std::mem::take(&mut self.scratch);
        survivors.clear();
        survivors.extend(self.live().filter(|&(_, c)| c > 1).map(|(k, c)| (k, c - 1)));
        self.scratch = survivors;
        self.rebuild_from_scratch();
    }
}

impl StreamSummary for MisraGries {
    fn insert(&mut self, key: u64) {
        self.processed += 1;
        self.insert_at(key, self.home_slot(key));
    }

    /// Batch ingestion: a hash pass fills a tile of home slots (a tight
    /// multiply/shift loop the compiler can pipeline, free of the probe
    /// loop's dependent loads), then the update pass probes in element
    /// order. State after the batch is bit-identical to element-wise
    /// insertion.
    fn insert_batch(&mut self, items: &[u64]) {
        const TILE: usize = 256;
        let mut slots = [0u32; TILE];
        for tile in items.chunks(TILE) {
            for (s, &key) in slots.iter_mut().zip(tile) {
                *s = self.home_slot(key) as u32;
            }
            self.processed += tile.len() as u64;
            for (&key, &home) in tile.iter().zip(&slots) {
                self.insert_at(key, home as usize);
            }
        }
    }
}

impl SpaceUsage for MisraGries {
    fn model_bits(&self) -> u64 {
        let filled: u64 = self
            .live()
            .map(|(_, c)| self.key_bits + gamma_bits(c))
            .sum();
        // Empty slots still need a presence bit; the stream-position
        // counter is charged at its variable-length cost.
        let empty = (self.capacity - self.len.min(self.capacity)) as u64;
        filled + empty + gamma_bits(self.processed)
    }

    fn heap_bytes(&self) -> usize {
        (self.keys.capacity() + self.counts.capacity()) * 8 + self.scratch.capacity() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(capacity: usize, stream: &[u64]) -> MisraGries {
        let mut mg = MisraGries::new(capacity, 16);
        mg.insert_all(stream);
        mg
    }

    #[test]
    fn exact_when_under_capacity() {
        let mg = run(10, &[1, 2, 2, 3, 3, 3]);
        assert_eq!(mg.estimate(1), 1);
        assert_eq!(mg.estimate(2), 2);
        assert_eq!(mg.estimate(3), 3);
        assert_eq!(mg.estimate(9), 0);
        assert_eq!(mg.max_error(), 0);
    }

    #[test]
    fn classic_error_bound_holds() {
        // Stream: item 0 heavy (400), 200 singletons. k = 7.
        let mut stream: Vec<u64> = std::iter::repeat_n(0, 400).collect();
        stream.extend(1000..1200u64);
        // Interleave adversarially: singleton after every other heavy copy.
        let mut inter = Vec::new();
        let mut singles = 1000..1200u64;
        for (i, &x) in stream.iter().enumerate() {
            if x == 0 {
                inter.push(0);
                if i % 2 == 0 {
                    if let Some(s) = singles.next() {
                        inter.push(s);
                    }
                }
            }
        }
        let mg = run(7, &inter);
        let s = mg.processed();
        let est = mg.estimate(0);
        assert!(est <= 400);
        assert!(
            est + s / 8 >= 400,
            "undercount too large: est {est}, bound {}",
            s / 8
        );
    }

    #[test]
    fn never_overestimates_on_random_streams() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let stream: Vec<u64> = (0..5000).map(|_| rng.gen_range(0..50)).collect();
        let mg = run(9, &stream);
        for key in 0..50u64 {
            let truth = stream.iter().filter(|&&x| x == key).count() as u64;
            let est = mg.estimate(key);
            assert!(est <= truth, "key {key}: est {est} > truth {truth}");
            assert!(est + mg.max_error() >= truth, "key {key} undercount");
        }
    }

    #[test]
    fn table_never_exceeds_capacity() {
        let mut mg = MisraGries::new(5, 16);
        for x in 0..10_000u64 {
            mg.insert(x % 97);
            assert!(mg.len() <= 5);
        }
    }

    #[test]
    fn entries_sorted_descending() {
        let mg = run(10, &[7, 7, 7, 8, 8, 9]);
        let e = mg.entries();
        assert_eq!(e[0], (7, 3));
        assert_eq!(e[1], (8, 2));
        assert_eq!(e[2], (9, 1));
        assert_eq!(mg.argmax(), Some((7, 3)));
    }

    #[test]
    fn content_equality_ignores_probe_history() {
        // Same multiset of counters via different histories (one table
        // went through decrement churn) must compare equal.
        let a = run(3, &[5, 5, 6]);
        let b = run(3, &[9, 7, 8, 5, 5, 6, 9, 7, 8]);
        // a: {5: 2, 6: 1}; b ends with the same survivors only if the
        // churn removed the rest — verify and compare content.
        assert_eq!(a.entries(), vec![(5, 2), (6, 1)]);
        let mut c = run(3, &[6, 5, 5]);
        c.processed = a.processed; // align stream position for Eq
        assert_eq!(a, c);
        assert_ne!(a, b);
    }

    #[test]
    fn merge_preserves_error_bound() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(11);
        let a_stream: Vec<u64> = (0..3000).map(|_| rng.gen_range(0..40)).collect();
        let b_stream: Vec<u64> = (0..2000).map(|_| rng.gen_range(0..40)).collect();
        let k = 9usize;
        let mut a = run(k, &a_stream);
        let b = run(k, &b_stream);
        a.merge(&b);
        assert!(a.len() <= k);
        assert_eq!(a.processed(), 5000);
        let bound = 5000 / (k as u64 + 1);
        for key in 0..40u64 {
            let truth = a_stream
                .iter()
                .chain(&b_stream)
                .filter(|&&x| x == key)
                .count() as u64;
            let est = a.estimate(key);
            assert!(est <= truth, "key {key} overestimates after merge");
            assert!(est + bound >= truth, "key {key} undercounts after merge");
        }
    }

    #[test]
    fn merge_from_larger_capacity_table_terminates_and_reduces() {
        // `other` holds more live entries than `a` has slots; the merge
        // must reduce to `a`'s capacity, not hang probing a full table.
        let mut a = run(4, &[1, 1, 1, 2, 2, 3, 4]);
        let mut b = MisraGries::new(32, 16);
        for k in 100..130u64 {
            for _ in 0..=(k - 100) {
                b.insert(k);
            }
        }
        assert!(b.len() > a.keys.len());
        a.merge(&b);
        assert!(a.len() <= 4);
        assert_eq!(a.processed(), 7 + b.processed());
        // The heaviest incoming key survives the cut.
        assert!(a.estimate(129) > 0);
    }

    #[test]
    fn space_accounts_keys_and_counters() {
        let mg = run(4, &[1, 1, 1]);
        // One filled slot: 16 key bits + gamma(3) = 5 bits; 3 empty slots;
        // processed = 3 → gamma(3) = 5.
        assert_eq!(mg.model_bits(), 16 + 5 + 3 + 5);
    }

    #[test]
    fn batch_insert_matches_element_wise() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let stream: Vec<u64> = (0..20_000).map(|_| rng.gen_range(0..500)).collect();
        let mut scalar = MisraGries::new(13, 16);
        for &x in &stream {
            scalar.insert(x);
        }
        let mut batch = MisraGries::new(13, 16);
        for chunk in stream.chunks(777) {
            batch.insert_batch(chunk);
        }
        assert_eq!(scalar, batch);
    }

    #[test]
    fn snapshot_roundtrip_is_content_identical() {
        use crate::mergeable::MergeableSummary;
        let mg = run(7, &(0..5000u64).map(|i| i % 61).collect::<Vec<_>>());
        let back = MisraGries::from_bytes(&mg.to_bytes()).unwrap();
        assert_eq!(mg, back);
        assert_eq!(mg.entries(), back.entries());
        assert_eq!(mg.model_bits(), back.model_bits());
        // Wrong tag and truncation are rejected.
        assert!(MisraGries::from_bytes(b"junk").is_err());
        let buf = mg.to_bytes();
        assert!(MisraGries::from_bytes(&buf[..buf.len() - 1]).is_err());
    }

    #[test]
    fn trait_merge_rejects_mismatched_tables() {
        use crate::error::MergeError;
        use crate::mergeable::MergeableSummary;
        let mut a = MisraGries::new(4, 16);
        let b = MisraGries::new(5, 16);
        assert_eq!(
            a.merge_from(&b),
            Err(MergeError::Incompatible("capacities"))
        );
        let c = MisraGries::new(4, 20);
        assert_eq!(
            a.merge_from(&c),
            Err(MergeError::Incompatible("key widths"))
        );
    }

    #[test]
    fn heavy_survivor_outlives_decrement_churn() {
        // A genuinely heavy key must survive many decrement-all rebuilds
        // with the classic bound intact.
        let mut stream = Vec::new();
        for i in 0..4000u64 {
            stream.push(42);
            stream.push(10_000 + i); // fresh singleton every step
        }
        let mg = run(4, &stream);
        assert!(mg.estimate(42) >= 4000 - mg.max_error());
        assert!(mg.estimate(42) <= 4000);
    }
}
