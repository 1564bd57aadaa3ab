//! Space-Saving \[MAE05\] with the Stream-Summary data structure.
//!
//! Space-Saving keeps exactly `k` monitored items. A monitored item's
//! counter is incremented in place; an unmonitored arrival *evicts* the
//! current minimum, inheriting its counter plus one and recording the
//! inherited value as its overestimation error. Guarantees after `m`
//! items:
//!
//! * `f_x ≤ count(x)` for monitored `x` (never undercounts),
//! * `count(x) − err(x) ≤ f_x` (the error field bounds the overshoot),
//! * `count(min) ≤ m/k`, so any item with `f > m/k` is monitored.
//!
//! The *Stream-Summary* structure (Figure 1 of \[MAE05\]) makes every
//! operation `O(1)`: items hang off *buckets* that hold their exact count;
//! buckets form a doubly-linked list in increasing count order, so "the
//! minimum item" and "move to count+1" are pointer operations. We
//! implement it slab-style (index-linked, no unsafe).

use hh_core::mergeable::snapshot;
use hh_core::{
    FrequencyEstimator, HeavyHitters, ItemEstimate, MergeError, MergeableSummary, QueryCache,
    Report, SnapshotError, StreamSummary,
};
use hh_hash::FastMap;
use hh_space::codec::{Codec, CodecError, Reader, Writer};
use hh_space::space::{gamma_bits, SpaceUsage};

const NONE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Node {
    item: u64,
    /// Overestimation error inherited at eviction time.
    err: u64,
    /// Bucket this node belongs to (bucket holds the count).
    bucket: u32,
    prev: u32,
    next: u32,
}

#[derive(Debug, Clone)]
struct Bucket {
    count: u64,
    /// First node in this bucket's item list.
    head: u32,
    prev: u32,
    next: u32,
}

/// The Space-Saving summary with `k` monitored items.
#[derive(Debug, Clone)]
pub struct SpaceSaving {
    capacity: usize,
    key_bits: u64,
    map: FastMap<u64, u32>,
    nodes: Vec<Node>,
    buckets: Vec<Bucket>,
    free_buckets: Vec<u32>,
    /// Bucket with the smallest count (list head), NONE when empty.
    min_bucket: u32,
    processed: u64,
    phi: f64,
    /// Materialized report; every mutation invalidates (see DESIGN.md §8).
    cache: QueryCache<Report>,
}

impl SpaceSaving {
    /// Summary with `⌈1/ε⌉` monitored items reporting at threshold `φ`.
    pub fn new(eps: f64, phi: f64, universe: u64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0,1)");
        assert!(phi > eps && phi <= 1.0, "need eps < phi <= 1");
        Self::with_capacity((1.0 / eps).ceil() as usize, phi, universe)
    }

    /// Summary with an explicit number of monitored items.
    pub fn with_capacity(capacity: usize, phi: f64, universe: u64) -> Self {
        assert!(capacity >= 1, "capacity must be at least 1");
        Self {
            capacity,
            key_bits: hh_space::id_bits(universe),
            map: hh_hash::fast_map_with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            buckets: Vec::new(),
            free_buckets: Vec::new(),
            min_bucket: NONE,
            processed: 0,
            phi,
            cache: QueryCache::new(),
        }
    }

    /// Number of monitored items.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing is monitored yet.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Monitored capacity `k`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Items processed.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// `(item, count, err)` for every monitored item, by decreasing count.
    pub fn entries(&self) -> Vec<(u64, u64, u64)> {
        let mut v: Vec<(u64, u64, u64)> = self
            .map
            .values()
            .map(|&ni| {
                let n = &self.nodes[ni as usize];
                (n.item, self.buckets[n.bucket as usize].count, n.err)
            })
            .collect();
        v.sort_unstable_by_key(|&(i, c, _)| (std::cmp::Reverse(c), i));
        v
    }

    /// The current minimum monitored count (`≤ m/k`), 0 when not full.
    pub fn min_count(&self) -> u64 {
        if self.map.len() < self.capacity {
            0
        } else {
            self.buckets[self.min_bucket as usize].count
        }
    }

    fn alloc_bucket(&mut self, count: u64) -> u32 {
        let b = Bucket {
            count,
            head: NONE,
            prev: NONE,
            next: NONE,
        };
        if let Some(i) = self.free_buckets.pop() {
            self.buckets[i as usize] = b;
            i
        } else {
            self.buckets.push(b);
            (self.buckets.len() - 1) as u32
        }
    }

    /// Unlinks `ni` from its bucket's item list; frees the bucket if it
    /// becomes empty. Returns the bucket index it was in.
    fn detach_node(&mut self, ni: u32) -> u32 {
        let (bi, prev, next) = {
            let n = &self.nodes[ni as usize];
            (n.bucket, n.prev, n.next)
        };
        if prev != NONE {
            self.nodes[prev as usize].next = next;
        } else {
            self.buckets[bi as usize].head = next;
        }
        if next != NONE {
            self.nodes[next as usize].prev = prev;
        }
        if self.buckets[bi as usize].head == NONE {
            // Unlink the now-empty bucket from the bucket list.
            let (bprev, bnext) = {
                let b = &self.buckets[bi as usize];
                (b.prev, b.next)
            };
            if bprev != NONE {
                self.buckets[bprev as usize].next = bnext;
            } else {
                self.min_bucket = bnext;
            }
            if bnext != NONE {
                self.buckets[bnext as usize].prev = bprev;
            }
            self.free_buckets.push(bi);
        }
        bi
    }

    /// Attaches node `ni` to the bucket with exact count `count`, which
    /// must sit at or right after position `after` in the bucket list
    /// (`after == NONE` means list head).
    fn attach_node(&mut self, ni: u32, count: u64, after: u32) {
        // Find or create the bucket.
        let next_of_after = if after == NONE {
            self.min_bucket
        } else {
            self.buckets[after as usize].next
        };
        let bi = if next_of_after != NONE && self.buckets[next_of_after as usize].count == count {
            next_of_after
        } else {
            let nb = self.alloc_bucket(count);
            // Splice between `after` and `next_of_after`.
            self.buckets[nb as usize].prev = after;
            self.buckets[nb as usize].next = next_of_after;
            if after == NONE {
                self.min_bucket = nb;
            } else {
                self.buckets[after as usize].next = nb;
            }
            if next_of_after != NONE {
                self.buckets[next_of_after as usize].prev = nb;
            }
            nb
        };
        // Push node at the head of the bucket's item list.
        let head = self.buckets[bi as usize].head;
        {
            let n = &mut self.nodes[ni as usize];
            n.bucket = bi;
            n.prev = NONE;
            n.next = head;
        }
        if head != NONE {
            self.nodes[head as usize].prev = ni;
        }
        self.buckets[bi as usize].head = ni;
    }

    /// An empty structure with the same parameters (for merge rebuilds).
    pub fn clone_empty(&self) -> Self {
        Self {
            capacity: self.capacity,
            key_bits: self.key_bits,
            map: hh_hash::fast_map_with_capacity(self.capacity),
            nodes: Vec::with_capacity(self.capacity),
            buckets: Vec::new(),
            free_buckets: Vec::new(),
            min_bucket: NONE,
            processed: 0,
            phi: self.phi,
            cache: QueryCache::new(),
        }
    }

    /// Restores `(item, count, err)` triples into an empty structure
    /// (merge rebuild). Triples may arrive in any order; they are sorted
    /// ascending so each bucket is appended at the tail.
    ///
    /// # Panics
    /// If the structure is non-empty or the triples exceed capacity.
    pub fn restore_entries(&mut self, mut triples: Vec<(u64, u64, u64)>, processed: u64) {
        assert!(self.map.is_empty(), "restore requires an empty structure");
        assert!(triples.len() <= self.capacity, "too many entries");
        // An empty *table* can still carry a warm (empty) report.
        self.cache.invalidate();
        // One bucket per distinct count at most: size the slab once so
        // the build loop never reallocates it.
        self.buckets.reserve(triples.len());
        triples.sort_unstable_by_key(|&(_, c, _)| c);
        // Ascending order lets the bucket list be built linearly — each
        // distinct count appends one bucket at the tail, repeats push
        // onto the tail bucket's item list — with none of the general
        // `attach_node` splicing (this path backs snapshot restore and
        // the merge rebuild, both on the read side's serving cadence).
        let mut tail = NONE; // current maximum bucket
        let mut tail_count = 0u64;
        for (item, count, err) in triples {
            assert!(count > 0, "restored counts must be positive");
            let ni = self.nodes.len() as u32;
            if tail == NONE || count != tail_count {
                let bi = self.buckets.len() as u32;
                self.buckets.push(Bucket {
                    count,
                    head: ni,
                    prev: tail,
                    next: NONE,
                });
                if tail == NONE {
                    self.min_bucket = bi;
                } else {
                    self.buckets[tail as usize].next = bi;
                }
                self.nodes.push(Node {
                    item,
                    err,
                    bucket: bi,
                    prev: NONE,
                    next: NONE,
                });
                tail = bi;
                tail_count = count;
            } else {
                let head = self.buckets[tail as usize].head;
                self.nodes[head as usize].prev = ni;
                self.nodes.push(Node {
                    item,
                    err,
                    bucket: tail,
                    prev: NONE,
                    next: head,
                });
                self.buckets[tail as usize].head = ni;
            }
            self.map.insert(item, ni);
        }
        self.processed = processed;
    }

    /// Increment with the singleton-bucket fast path: when `ni` is alone
    /// in its bucket and the successor bucket (if any) does not hold
    /// `count + 1`, the bucket's count can be bumped in place — the list
    /// order invariant is untouched and no detach/attach or bucket
    /// alloc/free runs. Distinct-count-heavy workloads (every skewed
    /// stream once the heavy items separate) take this path almost
    /// always. Falls back to the general relink otherwise; resulting
    /// structure is identical either way (buckets are per-distinct-count,
    /// so "bump in place" and "detach, attach to a fresh bucket" build
    /// the same bucket multiset).
    fn increment_fast(&mut self, ni: u32) {
        let n = &self.nodes[ni as usize];
        let bi = n.bucket;
        if n.prev == NONE && n.next == NONE {
            let (count, next) = {
                let b = &self.buckets[bi as usize];
                (b.count, b.next)
            };
            if next == NONE || self.buckets[next as usize].count > count + 1 {
                self.buckets[bi as usize].count = count + 1;
                return;
            }
        }
        self.increment(ni);
    }

    /// Increments a monitored node: detach, then attach at count+1. The
    /// destination bucket is adjacent in the bucket list, so this is O(1).
    fn increment(&mut self, ni: u32) {
        let old_bucket = self.nodes[ni as usize].bucket;
        let count = self.buckets[old_bucket as usize].count;
        let bucket_survives = {
            // Does the old bucket still hold other items after detach?
            let n = &self.nodes[ni as usize];
            n.prev != NONE || n.next != NONE
        };
        self.detach_node(ni);
        // The attach anchor: if the old bucket survived it precedes the
        // count+1 bucket; otherwise its predecessor does.
        let after = if bucket_survives {
            old_bucket
        } else {
            // detach freed the bucket; anchor at the bucket before the
            // free slot's old position. We saved nothing, so re-find from
            // min_bucket — but the freed bucket's prev pointer is intact
            // in its slab slot until reused, and detach pushed it to the
            // free list without clearing links.
            self.buckets[old_bucket as usize].prev
        };
        self.attach_node(ni, count + 1, after);
    }
}

impl StreamSummary for SpaceSaving {
    fn insert(&mut self, item: u64) {
        self.cache.invalidate();
        self.processed += 1;
        if let Some(&ni) = self.map.get(&item) {
            self.increment_fast(ni);
            return;
        }
        if self.map.len() < self.capacity {
            let ni = self.nodes.len() as u32;
            self.nodes.push(Node {
                item,
                err: 0,
                bucket: NONE,
                prev: NONE,
                next: NONE,
            });
            self.attach_node(ni, 1, NONE);
            // A count-1 bucket is always the minimum: verify the anchor.
            debug_assert_eq!(
                self.buckets[self.nodes[ni as usize].bucket as usize].count,
                1
            );
            self.map.insert(item, ni);
            return;
        }
        // Evict the minimum: reuse its node for the new item.
        let min_b = self.min_bucket;
        let ni = self.buckets[min_b as usize].head;
        let min_count = self.buckets[min_b as usize].count;
        let old_item = self.nodes[ni as usize].item;
        self.map.remove(&old_item);
        self.nodes[ni as usize].item = item;
        self.nodes[ni as usize].err = min_count;
        self.map.insert(item, ni);
        self.increment_fast(ni); // moves it to min_count + 1
    }

    /// Batch ingestion: the scalar body with the stream-position
    /// accounting hoisted out of the loop. Monitored entries, counts,
    /// and errors after the batch are identical to element-wise
    /// insertion (the physical slab layout may differ, which no query
    /// observes).
    fn insert_batch(&mut self, items: &[u64]) {
        self.cache.invalidate();
        self.processed += items.len() as u64;
        for &item in items {
            if let Some(&ni) = self.map.get(&item) {
                self.increment_fast(ni);
                continue;
            }
            if self.map.len() < self.capacity {
                let ni = self.nodes.len() as u32;
                self.nodes.push(Node {
                    item,
                    err: 0,
                    bucket: NONE,
                    prev: NONE,
                    next: NONE,
                });
                self.attach_node(ni, 1, NONE);
                self.map.insert(item, ni);
                continue;
            }
            let min_b = self.min_bucket;
            let ni = self.buckets[min_b as usize].head;
            let min_count = self.buckets[min_b as usize].count;
            let old_item = self.nodes[ni as usize].item;
            self.map.remove(&old_item);
            self.nodes[ni as usize].item = item;
            self.nodes[ni as usize].err = min_count;
            self.map.insert(item, ni);
            self.increment_fast(ni);
        }
    }
}

impl SpaceSaving {
    /// The cold report pass behind the cached [`HeavyHitters::report`].
    fn build_report(&self) -> Report {
        let threshold = self.phi * self.processed as f64;
        self.entries()
            .into_iter()
            .filter(|&(_, c, _)| c as f64 > threshold)
            .map(|(item, c, _)| ItemEstimate {
                item,
                count: c as f64,
            })
            .collect()
    }
}

impl HeavyHitters for SpaceSaving {
    /// The report — a cache hit after a quiescent period, a
    /// Stream-Summary scan on the first query after a mutation.
    fn report(&self) -> Report {
        self.cache.get_or_build(|| self.build_report()).clone()
    }
}

impl FrequencyEstimator for SpaceSaving {
    fn estimate(&self, item: u64) -> f64 {
        self.map
            .get(&item)
            .map(|&ni| self.buckets[self.nodes[ni as usize].bucket as usize].count as f64)
            .unwrap_or(0.0)
    }
}

/// Snapshot format version tag. v2 carries the monitored triples as
/// one interleaved varint block through the codec's bulk byte channel
/// instead of one codec call per field; v3 appended the trailing
/// integrity checksum; v4 signs with its folded lane step.
const TAG: &str = "hh.baseline.space-saving.v4";

/// Content snapshot: parameters, stream position, and the monitored
/// `(item, count, err)` triples as one interleaved varint block in
/// decreasing-count order — a single buffer built and written in one
/// pass. The slab/bucket pointer graph is a word-RAM artifact and is
/// rebuilt on restore; every query observes identical state.
impl Codec for SpaceSaving {
    fn write_to(&self, w: &mut Writer) {
        w.reserve(self.map.len() * 10 + 96);
        w.write_u64(self.capacity as u64);
        w.write_u64(self.key_bits);
        w.write_f64(self.phi);
        w.write_u64(self.processed);
        let triples = self.entries();
        w.write_seq_len(triples.len());
        w.write_byte_seq_with(|block| {
            for &(i, c, e) in &triples {
                hh_space::varint::push_uvarint(block, i);
                hh_space::varint::push_uvarint(block, c);
                hh_space::varint::push_uvarint(block, e);
            }
        });
    }

    fn read_from(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        // Capacity drives eager map/slab allocation; keep the accepted
        // range tight (2^20 monitored items covers eps down to ~10^-6)
        // so a crafted buffer cannot provoke a huge allocation.
        let capacity = r.read_u64()? as usize;
        if capacity == 0 || capacity > (1 << 20) {
            return Err(CodecError::invariant("SpaceSaving capacity out of range"));
        }
        let key_bits = r.read_u64()?;
        if key_bits > 64 {
            return Err(CodecError::invariant("key width exceeds 64 bits"));
        }
        let phi = r.read_f64()?;
        if !(phi > 0.0 && phi <= 1.0) {
            return Err(CodecError::invariant("invalid phi in snapshot"));
        }
        let processed = r.read_u64()?;
        let n = r.read_seq_len()?;
        if n > capacity {
            return Err(CodecError::invariant("SpaceSaving entries exceed capacity"));
        }
        let block = r.read_byte_slice()?;
        let mut triples: Vec<(u64, u64, u64)> = Vec::with_capacity(n);
        let mut pos = 0usize;
        for _ in 0..n {
            let bad = || CodecError::truncated();
            let i = hh_space::varint::read_uvarint(block, &mut pos).ok_or_else(bad)?;
            let c = hh_space::varint::read_uvarint(block, &mut pos).ok_or_else(bad)?;
            let e = hh_space::varint::read_uvarint(block, &mut pos).ok_or_else(bad)?;
            if c == 0 || e > c || c > processed {
                return Err(CodecError::invariant("SpaceSaving malformed triple"));
            }
            triples.push((i, c, e));
        }
        if pos != block.len() {
            return Err(CodecError::invariant("SpaceSaving trailing bytes"));
        }
        let mut keys: Vec<u64> = triples.iter().map(|&(i, _, _)| i).collect();
        keys.sort_unstable();
        if keys.windows(2).any(|w| w[0] == w[1]) {
            return Err(CodecError::invariant("SpaceSaving duplicate items"));
        }
        let mut ss = SpaceSaving {
            capacity,
            key_bits,
            map: hh_hash::fast_map_with_capacity(capacity),
            nodes: Vec::with_capacity(capacity),
            buckets: Vec::new(),
            free_buckets: Vec::new(),
            min_bucket: NONE,
            processed: 0,
            phi,
            cache: QueryCache::new(),
        };
        ss.restore_entries(triples, processed);
        Ok(ss)
    }
}

impl MergeableSummary for SpaceSaving {
    /// The \[ACH+12\] Space-Saving merge. For each item, each summary
    /// contributes its monitored `(count, err)`, or `(min_count,
    /// min_count)` if the item is unmonitored — sound because an
    /// unmonitored item's true count is at most `min_count`, so charging
    /// exactly that keeps both the overestimate (`f ≤ count`) and the
    /// error (`count − err ≤ f`) invariants. The top `k` combined
    /// triples are kept. Deterministic, so any two instances with the
    /// same capacity and pricing are compatible.
    fn merge_from(&mut self, other: &Self) -> Result<(), MergeError> {
        if self.capacity != other.capacity {
            return Err(MergeError::Incompatible("capacities"));
        }
        if self.key_bits != other.key_bits {
            return Err(MergeError::Incompatible("key widths"));
        }
        let self_min = self.min_count();
        let other_min = other.min_count();
        // Union by a two-pointer walk of the two item-sorted entry
        // lists — no hash maps, no hashing per item; merges sit on the
        // read side's combiner/rotation cadence, so their constant
        // matters.
        let mut a = self.entries();
        a.sort_unstable_by_key(|&(i, _, _)| i);
        let mut b = other.entries();
        b.sort_unstable_by_key(|&(i, _, _)| i);
        let mut combined: Vec<(u64, u64, u64)> = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() && j < b.len() {
            match a[i].0.cmp(&b[j].0) {
                std::cmp::Ordering::Less => {
                    let (it, c, e) = a[i];
                    combined.push((it, c.saturating_add(other_min), e.saturating_add(other_min)));
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    let (it, c, e) = b[j];
                    combined.push((it, c.saturating_add(self_min), e.saturating_add(self_min)));
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    combined.push((
                        a[i].0,
                        a[i].1.saturating_add(b[j].1),
                        a[i].2.saturating_add(b[j].2),
                    ));
                    i += 1;
                    j += 1;
                }
            }
        }
        for &(it, c, e) in &a[i..] {
            combined.push((it, c.saturating_add(other_min), e.saturating_add(other_min)));
        }
        for &(it, c, e) in &b[j..] {
            combined.push((it, c.saturating_add(self_min), e.saturating_add(self_min)));
        }
        combined.sort_unstable_by_key(|&(i, c, _)| (std::cmp::Reverse(c), i));
        combined.truncate(self.capacity);
        let total = self.processed.saturating_add(other.processed);
        let mut fresh = self.clone_empty();
        fresh.restore_entries(combined, total);
        *self = fresh;
        Ok(())
    }

    fn to_bytes(&self) -> Vec<u8> {
        snapshot::encode(TAG, self)
    }

    fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        snapshot::decode(TAG, bytes)
    }
}

impl SpaceUsage for SpaceSaving {
    fn model_bits(&self) -> u64 {
        // Per monitored item: id + count + err. Pointers are a word-RAM
        // artifact of the O(1) structure; the information content is the
        // (id, count, err) triples plus the stream position.
        let items: u64 = self
            .map
            .values()
            .map(|&ni| {
                let n = &self.nodes[ni as usize];
                self.key_bits
                    + gamma_bits(self.buckets[n.bucket as usize].count)
                    + gamma_bits(n.err)
            })
            .sum();
        items + (self.capacity - self.map.len()) as u64 + gamma_bits(self.processed)
    }

    fn heap_bytes(&self) -> usize {
        self.map.capacity() * 24
            + self.nodes.capacity() * std::mem::size_of::<Node>()
            + self.buckets.capacity() * std::mem::size_of::<Bucket>()
            + self.free_buckets.capacity() * 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn truth(stream: &[u64], item: u64) -> u64 {
        stream.iter().filter(|&&x| x == item).count() as u64
    }

    /// Validates the structural invariants of the bucket list.
    fn check_invariants(ss: &SpaceSaving) {
        let mut bi = ss.min_bucket;
        let mut last_count = 0u64;
        let mut items = 0usize;
        let mut seen_buckets = 0usize;
        while bi != NONE {
            let b = &ss.buckets[bi as usize];
            assert!(b.count > last_count, "bucket counts must increase");
            last_count = b.count;
            assert_ne!(b.head, NONE, "live bucket must be non-empty");
            let mut ni = b.head;
            let mut prev = NONE;
            while ni != NONE {
                let n = &ss.nodes[ni as usize];
                assert_eq!(n.bucket, bi, "node bucket pointer");
                assert_eq!(n.prev, prev, "node prev pointer");
                items += 1;
                prev = ni;
                ni = n.next;
            }
            seen_buckets += 1;
            assert!(seen_buckets <= ss.buckets.len(), "bucket list cycle");
            bi = b.next;
        }
        assert_eq!(items, ss.map.len(), "every mapped node is linked");
    }

    #[test]
    fn exact_below_capacity() {
        let mut ss = SpaceSaving::with_capacity(10, 0.3, 100);
        for x in [1u64, 2, 2, 3, 3, 3] {
            ss.insert(x);
            check_invariants(&ss);
        }
        assert_eq!(ss.estimate(3), 3.0);
        assert_eq!(ss.estimate(2), 2.0);
        assert_eq!(ss.estimate(1), 1.0);
        assert_eq!(ss.estimate(9), 0.0);
    }

    #[test]
    fn never_undercounts_and_error_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(5);
        let stream: Vec<u64> = (0..20_000)
            .map(|_| {
                if rng.gen_bool(0.3) {
                    7
                } else {
                    rng.gen_range(0..200)
                }
            })
            .collect();
        let k = 20usize;
        let mut ss = SpaceSaving::with_capacity(k, 0.2, 1 << 20);
        ss.insert_all(&stream);
        check_invariants(&ss);
        for (item, count, err) in ss.entries() {
            let f = truth(&stream, item);
            assert!(count >= f, "item {item}: count {count} < truth {f}");
            assert!(count - err <= f, "item {item}: count-err exceeds truth");
        }
        // min count ≤ m/k.
        assert!(ss.min_count() <= 20_000 / k as u64);
        // The heavy item must be monitored and nearly exact.
        let f7 = truth(&stream, 7);
        let e7 = ss.estimate(7);
        assert!(e7 >= f7 as f64 && e7 <= f7 as f64 + 20_000.0 / k as f64);
    }

    #[test]
    fn report_obeys_both_sides_of_definition_one() {
        // Planted frequencies around the φ threshold.
        let mut stream = Vec::new();
        stream.extend(std::iter::repeat_n(1u64, 15_000)); // 30%
        stream.extend(std::iter::repeat_n(2u64, 4_000)); // 8% ≤ (φ−ε)m with φ=0.2,ε=0.1
        for i in 0..31_000u64 {
            stream.push(1000 + (i % 8000));
        }
        let mut rng = StdRng::seed_from_u64(6);
        use rand::seq::SliceRandom;
        stream.shuffle(&mut rng);
        let mut ss = SpaceSaving::new(0.1, 0.2, 1 << 20);
        ss.insert_all(&stream);
        let r = ss.report();
        assert!(r.contains(1));
        assert!(!r.contains(2), "8% item must not be reported at phi=20%");
    }

    #[test]
    fn eviction_cycles_preserve_structure() {
        // Tiny capacity, many distinct items: constant evictions.
        let mut ss = SpaceSaving::with_capacity(3, 0.5, 1 << 20);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..5000 {
            ss.insert(rng.gen_range(0..50));
            check_invariants(&ss);
            assert!(ss.len() <= 3);
        }
    }

    #[test]
    fn adversarial_min_rotation() {
        // Round-robin over k+1 items forces an eviction every arrival once
        // the table is full — the worst case for the bucket list.
        let mut ss = SpaceSaving::with_capacity(4, 0.5, 64);
        for i in 0..10_000u64 {
            ss.insert(i % 5);
        }
        check_invariants(&ss);
        // Counts stay within [m/(k+1), m/(k+1) + m/k]-ish; the real check
        // is the overestimate bound:
        for (item, count, _) in ss.entries() {
            let f = 10_000 / 5;
            assert!(count >= f, "item {item} undercounted");
            assert!(count <= f + 10_000 / 4, "item {item} overshoots bound");
        }
    }

    #[test]
    fn batch_insert_matches_element_wise() {
        // Mixed workload: heavy hits (bump path), churn (evictions), and
        // a sub-capacity warmup — compare full monitored content.
        let mut rng = StdRng::seed_from_u64(12);
        let stream: Vec<u64> = (0..30_000)
            .map(|_| {
                if rng.gen_bool(0.35) {
                    rng.gen_range(0..8)
                } else {
                    rng.gen_range(0..4000)
                }
            })
            .collect();
        let mut scalar = SpaceSaving::with_capacity(24, 0.2, 1 << 20);
        for &x in &stream {
            scalar.insert(x);
        }
        let mut batch = SpaceSaving::with_capacity(24, 0.2, 1 << 20);
        for chunk in stream.chunks(501) {
            batch.insert_batch(chunk);
        }
        check_invariants(&batch);
        assert_eq!(scalar.entries(), batch.entries());
        assert_eq!(scalar.processed(), batch.processed());
        assert_eq!(scalar.min_count(), batch.min_count());
        assert_eq!(scalar.model_bits(), batch.model_bits());
    }

    #[test]
    fn bump_path_preserves_invariants_under_min_rotation() {
        // Round-robin over k+1 items: every arrival is an eviction into
        // the minimum bucket — the stress case for the in-place bump.
        let stream: Vec<u64> = (0..10_000u64).map(|i| i % 5).collect();
        let mut batch = SpaceSaving::with_capacity(4, 0.5, 64);
        for chunk in stream.chunks(97) {
            batch.insert_batch(chunk);
            check_invariants(&batch);
        }
        let mut scalar = SpaceSaving::with_capacity(4, 0.5, 64);
        for &x in &stream {
            scalar.insert(x);
        }
        assert_eq!(scalar.entries(), batch.entries());
    }

    #[test]
    fn space_accounting_counts_triples() {
        let mut ss = SpaceSaving::with_capacity(4, 0.5, 1 << 16);
        ss.insert(1);
        ss.insert(1);
        ss.insert(2);
        // Two items: (16-bit id + gamma(count) + gamma(0)) each, 2 empty
        // slots, gamma(3) position.
        let expect = (16 + gamma_bits(2) + 1) + (16 + gamma_bits(1) + 1) + 2 + gamma_bits(3);
        assert_eq!(ss.model_bits(), expect);
    }
}
