//! Distributed merge: checkpoint, ship, and combine seed-aligned
//! summaries — the PR-4 mergeability + persistence subsystem end to end.
//!
//! ```text
//! cargo run --release -p hh-examples --bin distributed_merge
//! ```
//!
//! Scenario: four ingest nodes each see an arbitrary slice of a
//! two-million-event stream (position-partitioned — no router in
//! front). Each node runs Algorithm 2
//! built from the *same structure seed* (so all four drew identical
//! repetition hashes) and its *own stream seed* (so sampling stays
//! independent). Every node checkpoints its summary to bytes; a
//! combiner restores the four snapshots and merges them bucket-wise.
//! The merged summary answers for the whole stream.

use hh_core::{HeavyHitters, HhParams, MergeableSummary, OptimalListHh, StreamSummary};
use hh_examples::{banner, count_with_share};
use hh_pipeline::seed_aligned_algo2;
use hh_space::SpaceUsage;
use hh_streams::{arrange, ExactCounts, OrderPolicy};
use rand::rngs::StdRng;
use rand::SeedableRng;

const HOT: u64 = 901_144;
const WARM: u64 = 88_205_401;
const COLD: u64 = 3_317_529_009;
const NODES: usize = 4;

fn main() {
    let params = HhParams::with_delta(0.05, 0.15, 0.05).expect("valid parameters");
    let m: u64 = 2_000_000;
    let universe: u64 = 1 << 32;

    banner("workload");
    let mut counts = vec![(HOT, m / 4), (WARM, m * 18 / 100), (COLD, m * 9 / 100)];
    let rest = m - counts.iter().map(|&(_, c)| c).sum::<u64>();
    let tail = 60_000u64;
    for j in 0..tail {
        counts.push((4_000_000_000 + j, rest / tail + u64::from(j < rest % tail)));
    }
    let mut rng = StdRng::seed_from_u64(2016);
    let stream = arrange(&counts, OrderPolicy::Shuffled, &mut rng);
    let oracle = ExactCounts::from_stream(&stream);
    println!("  m = {m} events, 25% / 18% / 9% planted, ~60k-id tail");
    println!("  {NODES} ingest nodes, each seeing an arbitrary contiguous slice");

    banner("per-node ingestion (seed-aligned Algorithm 2)");
    let mut nodes = seed_aligned_algo2(params, universe, m, NODES, 42).expect("valid parameters");
    let chunk = stream.len().div_ceil(NODES);
    for (j, (node, slice)) in nodes.iter_mut().zip(stream.chunks(chunk)).enumerate() {
        node.insert_batch(slice);
        println!(
            "  node {j}: {} events, {} sampled, {} bits",
            slice.len(),
            node.samples(),
            node.model_bits()
        );
    }

    banner("checkpoint -> wire -> restore");
    let wires: Vec<Vec<u8>> = nodes.iter().map(MergeableSummary::to_bytes).collect();
    let total_wire: usize = wires.iter().map(Vec::len).sum();
    println!(
        "  {} snapshots, {total_wire} bytes total ({} bytes/node)",
        wires.len(),
        total_wire / wires.len()
    );
    let restored: Vec<OptimalListHh> = wires
        .iter()
        .map(|w| OptimalListHh::from_bytes(w).expect("own snapshot restores"))
        .collect();

    banner("combiner: repetition-wise merge");
    let parts_bits: u64 = restored.iter().map(SpaceUsage::model_bits).sum();
    let mut it = restored.into_iter();
    let mut merged = it.next().expect("at least one node");
    for node in it {
        merged.merge_from(&node).expect("seed-aligned nodes merge");
    }
    println!(
        "  merged: {} samples, {} bits (sum of parts: {parts_bits} bits — gamma subadditivity)",
        merged.samples(),
        merged.model_bits()
    );

    let report = merged.report();
    for e in report.entries() {
        println!(
            "  item {:>12}  est {}",
            e.item,
            count_with_share(e.count, m)
        );
    }
    let hot_ok = report.contains(HOT);
    let warm_ok = report.contains(WARM);
    let cold_suppressed = !report.contains(COLD);
    let worst = report
        .entries()
        .iter()
        .map(|e| (e.count - oracle.freq(e.item) as f64).abs() / m as f64)
        .fold(0.0f64, f64::max);
    println!(
        "  audit: hot={hot_ok} warm={warm_ok} cold suppressed={cold_suppressed} \
         worst err {:.3}% (budget {:.1}%)",
        100.0 * worst,
        100.0 * params.eps()
    );
    assert!(
        hot_ok && warm_ok && cold_suppressed,
        "merged report violated Definition 1"
    );

    println!("\n  one merge contract: distributed combining and checkpoints.");
}
