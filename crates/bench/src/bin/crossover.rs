//! Experiment E7: the paper's algorithms against the six baselines.
//!
//! Four views:
//! 1. **Space vs log n** — the crossover study. The prior art pays
//!    `Θ(ε⁻¹(log n + log m))` bits; Theorems 1 and 2 pay `φ⁻¹ log n`
//!    only. As the universe grows, the paper's algorithms must win, and
//!    the table locates the crossover.
//! 2. **Accuracy on a Zipf stream** — recall/precision parity check at
//!    equal (ε, φ), confirming the space win is not bought with accuracy.
//! 3. **Update throughput** — the space/time tradeoff between the two
//!    paper algorithms and the Misra–Gries baseline on the E6 workload.
//!    Since the PR-2 hot-path rebuild (bit-budgeted RNG, multiply-shift
//!    repetition hashing, integer epochs, deferred accounting — see
//!    DESIGN.md), both algorithms run in the sampled regime the paper's
//!    O(1)-amortized analysis describes, so the old "optimal space costs
//!    80× in update time" artifact is gone: the remaining gap is the
//!    constant factor of the R-repetition counting machinery.
//! 4. **Partition-and-merge throughput** — the mergeable-summaries
//!    extension (S19): wall-clock speedup of sharded Misra–Gries over
//!    1..8 parts.
//!
//! Usage: `cargo run --release -p hh-bench --bin crossover`

use hh_baselines::{
    CountMin, CountSketch, LossyCounting, MisraGriesBaseline, SpaceSaving, StickySampling,
};
use hh_bench::{zipf_stream, Table};
use hh_core::{HeavyHitters, HhParams, OptimalListHh, SimpleListHh, StreamSummary};
use hh_pipeline::partition_and_merge;
use hh_space::SpaceUsage;
use hh_streams::ExactCounts;
use std::time::Instant;

const EPS: f64 = 0.05;
const PHI: f64 = 0.2;
const DELTA: f64 = 0.1;

fn space_vs_log_n() {
    let m = 1u64 << 21;
    let params = HhParams::with_delta(EPS, PHI, DELTA).unwrap();
    let mut t = Table::new(
        "E7a - model bits vs universe size (m = 2^21, eps = 0.05, phi = 0.2; 30 planted 3% items keep tables full)",
        &[
            "log2 n", "algo1", "algo2", "misra-gries", "space-saving", "lossy", "sticky",
            "count-min", "countsketch",
        ],
    );
    let mut series: Vec<(u32, Vec<u64>)> = Vec::new();
    // (log2 n, algo2 heap bytes, Misra-Gries heap bytes)
    let mut heaps: Vec<(u32, usize, usize)> = Vec::new();
    for log_n in [16u32, 24, 32, 48, 60] {
        let n = 1u64 << log_n;
        // The same distribution at every n (so only the id width moves):
        // 30 items at 3% each keep every id-storing table at capacity,
        // plus a light tail. Ids fit the smallest universe.
        let stream = {
            let mut counts: Vec<(u64, u64)> = (0..30u64).map(|i| (i, m * 3 / 100)).collect();
            let used: u64 = counts.iter().map(|&(_, c)| c).sum();
            let light = 4096u64;
            for j in 0..light {
                counts.push((1000 + j, (m - used) / light));
            }
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(42);
            hh_streams::arrange(&counts, hh_streams::OrderPolicy::Shuffled, &mut rng)
        };
        let mut a1 = SimpleListHh::new(params, n, m, 1).unwrap();
        let mut a2 = OptimalListHh::new(params, n, m, 2).unwrap();
        let mut mg = MisraGriesBaseline::new(EPS, PHI, n);
        let mut ss = SpaceSaving::new(EPS, PHI, n);
        let mut lc = LossyCounting::new(EPS, PHI, n);
        let mut st = StickySampling::new(EPS, PHI, DELTA, n, 3);
        let mut cm = CountMin::new(EPS, PHI, DELTA, n, 4);
        let mut cs = CountSketch::new(EPS, PHI, DELTA, n, 5);
        for &x in &stream {
            a1.insert(x);
            a2.insert(x);
            mg.insert(x);
            ss.insert(x);
            lc.insert(x);
            st.insert(x);
            cm.insert(x);
            cs.insert(x);
        }
        let bits = vec![
            a1.model_bits(),
            a2.model_bits(),
            mg.model_bits(),
            ss.model_bits(),
            lc.model_bits(),
            st.model_bits(),
            cm.model_bits(),
            cs.model_bits(),
        ];
        let mut row: Vec<hh_bench::Cell> = vec![u64::from(log_n).into()];
        row.extend(bits.iter().map(|&b| hh_bench::Cell::Int(b)));
        t.row(row);
        series.push((log_n, bits));
        heaps.push((log_n, a2.heap_bytes(), mg.heap_bytes()));
    }
    t.print();

    // The same sweep in resident bytes: model bits price only what the
    // analysis counts, while a tenant's memory budget meters heap bytes.
    let mut h = Table::new(
        "E7a heap - resident bytes vs universe size (algo2 vs misra-gries)",
        &["log2 n", "algo2 heap B", "misra-gries heap B", "algo2 / mg"],
    );
    for &(log_n, a2_heap, mg_heap) in &heaps {
        h.row(vec![
            u64::from(log_n).into(),
            a2_heap.into(),
            mg_heap.into(),
            hh_bench::Cell::Float(a2_heap as f64 / mg_heap as f64, 1),
        ]);
    }
    h.print();
    // Slope analysis: bits added per unit of log2 n, least-squares over
    // the sweep. The paper's algorithms only pay ids in the phi^-1 term
    // (about 1/phi = 5 id slots here); Misra-Gries-style baselines pay
    // ~2/eps = 40 id slots, so their slope must be ~8x steeper.
    let names = [
        "algo1",
        "algo2",
        "misra-gries",
        "space-saving",
        "lossy",
        "sticky",
        "count-min",
        "countsketch",
    ];
    let mut s = Table::new(
        "E7a slopes - bits per extra bit of log2 n (least squares)",
        &["algorithm", "slope", "ids paying log n (approx)"],
    );
    for (idx, name) in names.iter().enumerate() {
        let points: Vec<(f64, f64)> = series
            .iter()
            .map(|(l, b)| (f64::from(*l), b[idx] as f64))
            .collect();
        let (slope, _) = least_squares(&points);
        s.row(vec![
            (*name).into(),
            hh_bench::Cell::Float(slope, 1),
            hh_bench::Cell::Float(slope.max(0.0), 0),
        ]);
    }
    s.print();
    println!(
        "The paper's win: algo2 pays only its ~2/phi = 10 candidate ids per\n\
         log-n bit and algo1 only its ~1/phi T2 ids, while the id-storing\n\
         baselines (Misra-Gries, lossy, sticky) pay their full Theta(1/eps)\n\
         tables. Count-Min/CountSketch appear flat here because they defer\n\
         ids to a small candidate set - their weakness is the eps^-2-width\n\
         counter matrix visible in the absolute numbers.\n"
    );
    let algo2_bits: Vec<(f64, f64)> = series
        .iter()
        .map(|(l, b)| (f64::from(*l), b[1] as f64))
        .collect();
    let mg_bits: Vec<(f64, f64)> = series
        .iter()
        .map(|(l, b)| (f64::from(*l), b[2] as f64))
        .collect();
    let algo2_heap: Vec<(f64, f64)> = heaps
        .iter()
        .map(|&(l, a, _)| (f64::from(l), a as f64))
        .collect();
    let mg_heap: Vec<(f64, f64)> = heaps
        .iter()
        .map(|&(l, _, m)| (f64::from(l), m as f64))
        .collect();
    println!(
        "Crossover against Misra-Gries (where algo2 becomes the smaller one):\n\
         - in model bits: {}\n\
         - in heap bytes: {}\n",
        crossover(&algo2_bits, &mg_bits),
        crossover(&algo2_heap, &mg_heap),
    );
}

/// Least-squares line `(slope, intercept)` through `(x, y)` points.
fn least_squares(points: &[(f64, f64)]) -> (f64, f64) {
    let n = points.len() as f64;
    let xm = points.iter().map(|p| p.0).sum::<f64>() / n;
    let ym = points.iter().map(|p| p.1).sum::<f64>() / n;
    let slope = points
        .iter()
        .map(|&(x, y)| (x - xm) * (y - ym))
        .sum::<f64>()
        / points
            .iter()
            .map(|&(x, _)| (x - xm) * (x - xm))
            .sum::<f64>();
    (slope, ym - slope * xm)
}

/// The first swept log2 n where algo2 costs less than Misra-Gries or,
/// failing that, where the two least-squares lines meet.
fn crossover(algo2: &[(f64, f64)], mg: &[(f64, f64)]) -> String {
    if let Some((&(x, _), _)) = algo2.iter().zip(mg).find(|(a, m)| a.1 < m.1) {
        return format!("log2 n = {x} (measured)");
    }
    let (sa, ba) = least_squares(algo2);
    let (sm, bm) = least_squares(mg);
    if sm > sa {
        format!(
            "not in the sweep; the fitted lines meet at log2 n = {:.0}",
            (ba - bm) / (sm - sa)
        )
    } else {
        "never: Misra-Gries' cost does not grow faster than algo2's in log n".to_string()
    }
}

fn accuracy_on_zipf() {
    let m = 1usize << 20;
    let n = 1u64 << 32;
    let params = HhParams::with_delta(EPS, PHI, DELTA).unwrap();
    let stream = zipf_stream(m, n, 1.25, 11);
    let oracle = ExactCounts::from_stream(&stream);
    let truth: Vec<u64> = oracle.heavy_hitters(PHI).iter().map(|&(i, _)| i).collect();
    let forbidden: std::collections::HashSet<u64> =
        oracle.forbidden(PHI, EPS).into_iter().collect();

    let mut t = Table::new(
        "E7b - accuracy parity on Zipf(1.25), m = 2^20 (recall over true HH set / forbidden items reported)",
        &["algorithm", "true HH", "found", "forbidden reported", "model bits"],
    );
    let mut run = |name: &str, report: hh_core::Report, bits: u64| {
        let found = truth.iter().filter(|&&i| report.contains(i)).count();
        let bad = report
            .entries()
            .iter()
            .filter(|e| forbidden.contains(&e.item))
            .count();
        t.row(vec![
            name.into(),
            truth.len().into(),
            found.into(),
            bad.into(),
            bits.into(),
        ]);
    };

    let mut a1 = SimpleListHh::new(params, n, m as u64, 21).unwrap();
    a1.insert_all(&stream);
    run("algo1", a1.report(), a1.model_bits());
    let mut a2 = OptimalListHh::new(params, n, m as u64, 22).unwrap();
    a2.insert_all(&stream);
    run("algo2", a2.report(), a2.model_bits());
    let mut mg = MisraGriesBaseline::new(EPS, PHI, n);
    mg.insert_all(&stream);
    run("misra-gries", mg.report(), mg.model_bits());
    let mut ss = SpaceSaving::new(EPS, PHI, n);
    ss.insert_all(&stream);
    run("space-saving", ss.report(), ss.model_bits());
    let mut cm = CountMin::new(EPS, PHI, DELTA, n, 23);
    cm.insert_all(&stream);
    run("count-min", cm.report(), cm.model_bits());
    let mut cs = CountSketch::new(EPS, PHI, DELTA, n, 24);
    cs.insert_all(&stream);
    run("countsketch", cs.report(), cs.model_bits());
    t.print();
}

fn update_time_tradeoff() {
    // The E6 workload (Zipf(1.2), m = 2^21): wall-clock insert throughput
    // next to the model bits each algorithm holds at stream end — the
    // space/time tradeoff in one table.
    let m = 1usize << 21;
    let n = 1u64 << 32;
    let params = HhParams::with_delta(EPS, PHI, DELTA).unwrap();
    let stream = zipf_stream(m, n, 1.2, 7);
    let mut t = Table::new(
        "E7c - update time vs space on the E6 workload (Zipf 1.2, m = 2^21)",
        &["algorithm", "ns/item", "Melem/s", "model bits"],
    );
    let mut row = |name: &str, ns_per_item: f64, bits: u64| {
        t.row(vec![
            name.into(),
            hh_bench::Cell::Float(ns_per_item, 1),
            hh_bench::Cell::Float(1e3 / ns_per_item, 1),
            bits.into(),
        ]);
    };
    // Two timed repetitions each; report the better (first run warms the
    // stream and tables into cache).
    let mut best_a1 = f64::MAX;
    let mut bits_a1 = 0;
    let mut best_a2 = f64::MAX;
    let mut bits_a2 = 0;
    let mut best_mg = f64::MAX;
    let mut bits_mg = 0;
    for _ in 0..2 {
        let start = Instant::now();
        let mut a1 = SimpleListHh::new(params, n, m as u64, 1).unwrap();
        a1.insert_all(&stream);
        best_a1 = best_a1.min(start.elapsed().as_secs_f64() * 1e9 / m as f64);
        bits_a1 = a1.model_bits();

        let start = Instant::now();
        let mut a2 = OptimalListHh::new(params, n, m as u64, 2).unwrap();
        a2.insert_all(&stream);
        best_a2 = best_a2.min(start.elapsed().as_secs_f64() * 1e9 / m as f64);
        bits_a2 = a2.model_bits();

        let start = Instant::now();
        let mut mg = MisraGriesBaseline::new(EPS, PHI, n);
        mg.insert_all(&stream);
        best_mg = best_mg.min(start.elapsed().as_secs_f64() * 1e9 / m as f64);
        bits_mg = mg.model_bits();
    }
    row("algo1", best_a1, bits_a1);
    row("algo2", best_a2, bits_a2);
    row("misra-gries", best_mg, bits_mg);
    t.print();
    println!(
        "Both paper algorithms now sit within a small constant factor of\n\
         each other in update time (the sampled-regime skip path does O(1)\n\
         work on unsampled items); algo2 buys its smaller eps-term space\n\
         bound with the R = Theta(log 1/phi) repetition pass it runs on\n\
         each sampled item.\n"
    );
}

fn partition_and_merge_correctness() {
    // With Zipf(1.5) the rank-1 item holds ~38% of the stream - a clear
    // heavy hitter at phi = 0.2.
    let m = 1usize << 22;
    let n = 1u64 << 32;
    let stream = zipf_stream(m, n, 1.5, 31);
    let top = hh_bench::workloads::zipf_top_item(n, 1.5, 31);
    let mut t = Table::new(
        "E7d - partition-and-merge Misra-Gries (mergeable-summaries extension; single-CPU box, so the claim is correctness, not speedup)",
        &["shards", "wall ms", "heavy item found", "estimate gap vs sequential"],
    );
    let mut seq = MisraGriesBaseline::new(EPS, PHI, n);
    seq.insert_all(&stream);
    use hh_core::FrequencyEstimator;
    let seq_est = seq.estimate(top);
    for shards in [1usize, 2, 4, 8] {
        let start = Instant::now();
        let parts = (0..shards)
            .map(|_| MisraGriesBaseline::new(EPS, PHI, n))
            .collect();
        let merged =
            partition_and_merge(parts, &stream).expect("Misra-Gries summaries always merge");
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let found = merged.report().contains(top);
        let gap = (merged.estimate(top) - seq_est).abs() / m as f64;
        t.row(vec![
            shards.into(),
            hh_bench::Cell::Float(ms, 1),
            if found { "yes" } else { "NO" }.into(),
            gap.into(),
        ]);
    }
    t.print();
    println!(
        "Merging preserves the Misra-Gries guarantee: the merged estimate\n\
         stays within the combined eps-budget of the sequential run\n\
         regardless of shard count."
    );
}

fn main() {
    println!("# E7: paper algorithms vs baselines\n");
    space_vs_log_n();
    accuracy_on_zipf();
    update_time_tradeoff();
    partition_and_merge_correctness();
}
