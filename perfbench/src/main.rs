//! The serving benchmark: runs the real `hh-server` daemon over loopback
//! TCP on one named workload, checks every output against an exact
//! oracle, and prints the result as one JSON line (the last line of
//! stdout).
//!
//! ```text
//! perfbench --workload <ingest_wal|telemetry_mix|tenant_churn> --seed <n>
//!           --seconds <s> --trace <0|1> [--data <dir>]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` runs the
//! workload untraced and then again with the shadow replay of
//! [`trace`], and prints the per-layer metrics.

mod load;
mod oracle;
mod serve;
mod span;
mod stats;
mod trace;
mod workloads;

use serve::{Ctx, Outcome};
use stats::{json_num, json_str, percentile, Metrics, Pctl};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// The whole run's wall-clock cap. Requests not yet sent by then fail and
/// the run reports itself incorrect; nothing is retried.
const RUN_CAP: Duration = Duration::from_secs(150);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    data: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut data = PathBuf::from(".bench_build/perfbench-data");
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("not a seed"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|_| bad("not a whole number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            "--data" => data = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {:?}",
            workloads::NAMES
        ));
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        data,
    })
}

/// One line per percentile: value, sample count, samples beyond.
fn pctl_note(name: &str, p: &Pctl) -> String {
    format!(
        "{name} = {:.1} us (n = {}, {} beyond)",
        p.value, p.n, p.beyond
    )
}

/// `(send time, latency)` of each request; a failed request misses every
/// latency limit, so it counts as infinite.
fn latencies(timings: &[load::Timing]) -> Vec<(f64, f64)> {
    timings
        .iter()
        .map(|t| (t.sent, if t.ok { t.latency_us() } else { f64::INFINITY }))
        .collect()
}

/// The end-to-end metrics of an untraced pass, plus notes and problems.
fn end_to_end(o: &Outcome, notes: &mut Vec<String>, problems: &mut Vec<String>) -> Metrics {
    let mut m = Metrics::default();
    m.put("setup_s", stats::median(&o.setup_s), "s");
    let acked: Vec<(f64, f64)> = o
        .log
        .ingest
        .iter()
        .map(|t| (t.done, t.items as f64))
        .collect();
    notes.push(format!(
        "ingest_items_per_s = {} items/s",
        stats::windowed_rate(&acked, o.timed_s)
    ));
    m.put(
        "cpu_ns_per_item",
        o.cpu_s * 1e9 / o.log.items.max(1) as f64,
        "ns",
    );
    let ingest = latencies(&o.log.ingest);
    let reads = latencies(&o.log.reads);
    // Printed and sample-checked on every run, but not result metrics:
    // on the 2-core host the benchmark was tuned on, the ingest figures
    // follow the shared disk's fsync latency, which swung 2x within an
    // hour, and the p99s spread up to 0.45 of their median across seeds.
    // No regression gate bound can hold either.
    for (name, samples, pct, gated) in [
        ("ingest_ack_p50_us", &ingest, 50, false),
        ("ingest_ack_p99_us", &ingest, 99, false),
        ("query_p50_us", &reads, 50, true),
        ("query_p99_us", &reads, 99, false),
    ] {
        let span = samples.iter().map(|s| s.0).fold(0.0, f64::max);
        match stats::windowed_percentile(samples, span, pct) {
            Some(p) => {
                if !p.valid() {
                    problems.push(format!(
                        "{name} has only {} samples beyond it (n = {})",
                        p.beyond, p.n
                    ));
                }
                notes.push(format!(
                    "{name} = {:.1} us (median of {} windows; n = {}, >= {} beyond in each)",
                    p.value, p.windows, p.n, p.beyond
                ));
                if gated {
                    m.put(name, p.value, "us");
                }
            }
            None => problems.push(format!("{name} has no samples")),
        }
    }
    let ingest: Vec<f64> = ingest.iter().map(|s| s.1).collect();
    let reads: Vec<f64> = reads.iter().map(|s| s.1).collect();
    for (name, samples) in [("ingest", &ingest), ("query", &reads)] {
        let q: Vec<String> = [10, 25, 50, 75, 90, 99]
            .iter()
            .filter_map(|&p| percentile(samples, p).map(|v| format!("p{p} {:.0}", v.value)))
            .collect();
        notes.push(format!("{name} latency us: {}", q.join(", ")));
    }
    m.put("recovery_s", o.recovery_s, "s");
    m.put("resident_mb", o.health.1.resident_bytes as f64 / 1e6, "MB");
    // Reported and checked on every run, but not bounded metrics: the
    // largest error depends on the seed's data far more than on the code
    // (and reads 0 on exact range sketches), and failures are 0 on a
    // healthy run.
    notes.push(format!(
        "err_over_eps_max = {} ratio (must stay <= 1)",
        o.verdict.err_over_eps
    ));
    notes.push(format!(
        "failed_frac = {} fraction ({} of {} requests)",
        o.log.failed as f64 / o.log.attempted.max(1) as f64,
        o.log.failed,
        o.log.attempted
    ));
    m
}

/// Mean time of a span in microseconds (NaN if it never ran).
fn span_us(o: &Outcome, name: &str) -> f64 {
    let t = o.tracer.get(name);
    if t.count == 0 {
        f64::NAN
    } else {
        t.mean_us()
    }
}

/// Attributed time of one `attr.*` request span: its children's time.
fn attributed_us(o: &Outcome, name: &str) -> f64 {
    let t = o.tracer.get(name);
    (t.total_ns - t.self_ns) / t.count.max(1) as f64 / 1e3
}

/// The per-layer metrics: spans from the traced pass `t`, server
/// counters and schedules from the untraced pass `u`.
fn per_layer(u: &Outcome, t: &Outcome, notes: &mut Vec<String>) -> Metrics {
    let mut m = Metrics::default();
    let (h0, h1) = &u.health;
    let ingests = u.log.ingest.len().max(1) as f64;
    m.put(
        "proto.ingest_req_encode_us",
        span_us(t, "proto.ingest_req_encode"),
        "us",
    );
    m.put(
        "proto.ingest_req_decode_us",
        span_us(t, "proto.ingest_req_decode"),
        "us",
    );
    m.put(
        "proto.read_rsp_encode_us",
        span_us(t, "proto.read_rsp_encode"),
        "us",
    );
    m.put("proto.wire_bytes_per_item", u.wire_bytes_per_item, "B/item");
    let pings = t.log.pings.get("conn.ping");
    let ping_us = if pings.count == 0 {
        f64::NAN
    } else {
        pings.mean_us()
    };
    m.put("conn.ping_rtt_us", ping_us, "us");
    m.put(
        "durability.frame_encode_us",
        span_us(t, "durability.frame_encode"),
        "us",
    );
    let dedup = t.tracer.get("durability.dedup_check").total_ns
        + t.tracer.get("durability.dedup_admit").total_ns;
    m.put(
        "durability.dedup_ns",
        dedup / t.tracer.get("attr.ingest").count.max(1) as f64,
        "ns",
    );
    m.put("wal.append_us", span_us(t, "wal.append"), "us");
    let waits: Vec<f64> = t
        .tracer
        .samples("wal.commit_wait")
        .iter()
        .map(|ns| ns / 1e3)
        .collect();
    for (name, pct) in [
        ("wal.commit_wait_p50_us", 50),
        ("wal.commit_wait_p99_us", 99),
    ] {
        let p = percentile(&waits, pct);
        if let Some(p) = &p {
            notes.push(pctl_note(name, p));
        }
        m.put(name, p.map_or(f64::NAN, |p| p.value), "us");
    }
    let appended = h1.wal_appended.saturating_sub(h0.wal_appended) as f64;
    let fsyncs = h1.wal_fsyncs.saturating_sub(h0.wal_fsyncs) as f64;
    m.put(
        "wal.records_per_fsync",
        appended / fsyncs.max(1.0),
        "records/fsync",
    );
    m.put("wal.fsyncs_per_s", fsyncs / u.timed_s, "1/s");
    let scan = t.tracer.get("wal.replay_scan");
    m.put("wal.replay_scan_ms", scan.total_ns / 1e6, "ms");
    m.put(
        "wal.replay_records_per_s",
        t.replay_records as f64 / (scan.total_ns / 1e9),
        "records/s",
    );
    m.put(
        "pipeline.dispatch_us",
        span_us(t, "pipeline.dispatch"),
        "us",
    );
    m.put("pipeline.flush_us", span_us(t, "pipeline.flush"), "us");
    let shed = h1.shed_batches.saturating_sub(h0.shed_batches) as f64;
    m.put("pipeline.shed_frac", shed / ingests, "fraction");
    for (metric, span) in [
        ("tenant.refresh_us", "tenant.refresh"),
        ("tenant.clone_us", "tenant.clone"),
        ("tenant.merge_us", "tenant.merge"),
        ("tenant.freeze_us", "tenant.freeze"),
    ] {
        m.put(metric, span_us(t, span), "us");
    }
    let mut epochs = u.log.epochs.clone();
    epochs.sort_unstable();
    epochs.dedup();
    m.put(
        "tenant.refreshes_per_query",
        epochs.len() as f64 / u.log.epochs.len().max(1) as f64,
        "refreshes/query",
    );
    let ingest_rtt = span_us(t, "rtt.ingest");
    let read_rtt = span_us(t, "rtt.read");
    let ingest_attr = attributed_us(t, "attr.ingest");
    let read_attr = attributed_us(t, "attr.read");
    m.put("server.residual_us", ingest_rtt - ingest_attr, "us");
    m.put("server.read_residual_us", read_rtt - read_attr, "us");
    let evictions = h1.evictions.saturating_sub(h0.evictions) as f64;
    m.put(
        "server.evictions_per_op",
        evictions / u.ops.max(1) as f64,
        "evictions/op",
    );
    m.put(
        "store.save_tenant_ms",
        span_us(t, "store.save_tenant") / 1e3,
        "ms",
    );
    m.put(
        "store.load_all_ms",
        t.tracer.get("store.load_all").total_ns / 1e6,
        "ms",
    );
    let per_item = |span: &str| {
        let items = t.kernel_items.get(span).copied().unwrap_or(0);
        t.tracer.get(span).total_ns / items as f64
    };
    m.put(
        "core.algo2.insert_ns_per_item",
        per_item("core.algo2.insert"),
        "ns",
    );
    m.put(
        "core.algo2.report_us",
        span_us(t, "core.algo2.report"),
        "us",
    );
    m.put(
        "core.algo2.snapshot_encode_us",
        span_us(t, "core.algo2.snapshot_encode"),
        "us",
    );
    m.put(
        "core.algo2.snapshot_decode_us",
        span_us(t, "core.algo2.snapshot_decode"),
        "us",
    );
    m.put("dyadic.insert_ns_per_item", per_item("dyadic.insert"), "ns");
    m.put(
        "dyadic.heavy_ranges_us",
        span_us(t, "dyadic.heavy_ranges"),
        "us",
    );
    m.put(
        "dyadic.range_estimate_us",
        span_us(t, "dyadic.range_estimate"),
        "us",
    );
    m.put("dyadic.clone_us", span_us(t, "dyadic.clone"), "us");
    m.put("dyadic.merge_us", span_us(t, "dyadic.merge"), "us");
    let lag = percentile(&u.gen_lag_us, 99);
    if let Some(p) = &lag {
        notes.push(pctl_note("gen.lag_p99_us", p));
    }
    m.put("gen.lag_p99_us", lag.map_or(f64::NAN, |p| p.value), "us");
    m.put("summary.err_over_eps_max", u.verdict.err_over_eps, "ratio");
    m.put(
        "trace.attributed_frac.ingest",
        ingest_attr / ingest_rtt,
        "fraction",
    );
    m.put(
        "trace.attributed_frac.read",
        read_attr / read_rtt,
        "fraction",
    );
    let untraced_rtt = stats::mean(
        &u.log
            .ingest
            .iter()
            .filter(|r| r.ok)
            .map(|r| (r.done - r.sent) * 1e6)
            .collect::<Vec<_>>(),
    );
    m.put(
        "trace.overhead_frac",
        ingest_rtt / untraced_rtt - 1.0,
        "fraction",
    );
    notes.push(format!(
        "traced: {} ingests and {} reads shadowed; attributed {ingest_attr:.1} of {ingest_rtt:.1} us per ingest, {read_attr:.1} of {read_rtt:.1} us per read",
        t.tracer.get("attr.ingest").count,
        t.tracer.get("attr.read").count,
    ));
    m
}

fn pass(args: &Args, dir: PathBuf, cap: Instant, traced: bool) -> Result<Outcome, String> {
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        dir: dir.clone(),
        cap,
        traced,
    };
    let out = workloads::run(&args.workload, &ctx);
    let _ = std::fs::remove_dir_all(&dir);
    out
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let began = Instant::now();
    let cap = began + RUN_CAP;
    let run_dir = args.data.join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));

    let mut notes = Vec::new();
    let mut problems = Vec::new();
    let untraced = match pass(&args, run_dir.join("untraced"), cap, false) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let mut e2e = end_to_end(&untraced, &mut notes, &mut problems);
    let mut attempted = untraced.log.attempted;
    let mut failed = untraced.log.failed;
    problems.extend(untraced.log.problems.iter().cloned());
    problems.extend(untraced.verdict.violations.iter().cloned());

    let metrics = if args.trace {
        let mut traced = match pass(&args, run_dir.join("traced"), cap, true) {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench: traced {} failed: {e}", args.workload);
                std::process::exit(1);
            }
        };
        if let Err(e) = workloads::probe_other_kind(&args.workload, args.seed, &mut traced) {
            problems.push(format!("kind probe: {e}"));
        }
        attempted += traced.log.attempted;
        failed += traced.log.failed;
        problems.extend(traced.log.problems.iter().cloned());
        problems.extend(traced.verdict.violations.iter().cloned());
        per_layer(&untraced, &traced, &mut notes)
    } else {
        std::mem::take(&mut e2e)
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    if began.elapsed() > RUN_CAP {
        problems.push(format!("run exceeded its {RUN_CAP:?} wall-clock cap"));
    }
    problems.extend(metrics.problems());
    let printable: Metrics = Metrics(
        metrics
            .0
            .iter()
            .filter(|(_, v, _)| v.is_finite())
            .cloned()
            .collect(),
    );

    let host_cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    println!(
        "perfbench {} seed={} seconds={} trace={} host_cores={host_cores} commit={commit}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (k, v) in &untraced.params {
        println!("  {k} = {v}");
    }
    for n in &notes {
        println!("  {n}");
    }
    for (name, value, unit) in e2e.0.iter().chain(&metrics.0) {
        println!("  {name} = {value} {unit}");
    }
    for p in &problems {
        println!("  CHECK FAILED: {p}");
    }
    let record: Vec<String> = [
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("host_cores", host_cores.to_string()),
        ("commit", json_str(&commit)),
        ("wall_s", json_num(began.elapsed().as_secs_f64())),
    ]
    .into_iter()
    .map(|(k, v)| format!("{}: {v}", json_str(k)))
    .chain(
        untraced
            .params
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v))),
    )
    .chain([format!("\"samples\": {}", json_str(&notes.join("; ")))])
    .collect();
    println!("{{{}}}", record.join(", "));
    println!(
        "{}",
        stats::result_line(problems.is_empty(), attempted.max(1), failed, &printable)
    );
}
