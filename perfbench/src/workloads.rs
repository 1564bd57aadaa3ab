//! The three client-visible workloads.
//!
//! Each builds its inputs from the seed before set-up starts, so the
//! server only ever receives generated batches, and each does a fixed
//! amount of work sized from `--seconds` and the rates below, so a faster
//! server finishes sooner instead of writing a longer log.

use crate::load::{self, Timing};
use crate::oracle::{check_report, Verdict};
use crate::serve::{
    self, create_and_load, kill_and_recover, reports, setup, ClientLog, Ctx, Outcome, Pool,
    PING_EVERY,
};
use crate::trace::{self, ReadOp, Shadow};
use hh_server::{Client, Response, SummaryKind, Tenant, TenantSpec};
use hh_streams::{CidrZipf, ZipfGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;
/// Set-ups per `tenant_churn` run, whose set-up creates 32 tenants.
pub const CHURN_SETUP_REPS: usize = 5;
/// Kill-and-restart rounds per run where recovery takes well under a
/// second; `recovery_s` is their median. `ingest_wal` replays seconds of
/// log, so it recovers once.
pub const RECOVERY_REPS: usize = 3;

/// Algorithm-2 tenants: ε and φ.
pub const A2_EPS: f64 = 0.05;
/// See [`A2_EPS`].
pub const A2_PHI: f64 = 0.15;

/// `ingest_wal`: ingest requests per second per client the fixed work is
/// sized from (about what the parent commit sustains, so a run lasts
/// about `--seconds`).
pub const INGEST_WAL_REQ_PER_S: f64 = 1_800.0;
/// `ingest_wal`: items per request.
pub const INGEST_WAL_BATCH: usize = 4_096;
/// `ingest_wal`: write-then-`Query` rounds after the timed phase (3000,
/// so `query_p99_us` is a median over 3 windows of 1000 reads).
pub const INGEST_WAL_READS: usize = 3_000;

/// `telemetry_mix`: writer requests per second (open loop).
pub const TELEMETRY_WRITES_PER_S: f64 = 100.0;
/// `telemetry_mix`: reader requests per write.
pub const TELEMETRY_READS_PER_WRITE: usize = 4;
/// `telemetry_mix`: items per write.
pub const TELEMETRY_BATCH: usize = 448;
/// `telemetry_mix`: the dyadic tenant's ε and φ.
pub const DY_EPS: f64 = 0.2;
/// See [`DY_EPS`].
pub const DY_PHI: f64 = 0.25;
/// `telemetry_mix`: planted CIDR blocks as `(prefix, length, mass)`:
/// 10.0.0.0/8 and 192.168.0.0/16.
pub const BLOCKS: [(u64, u32, f64); 2] = [(10, 8, 0.40), (0xC0A8, 16, 0.30)];

/// `tenant_churn`: operations per second per client the fixed work is
/// sized from.
pub const CHURN_OPS_PER_S: f64 = 530.0;
/// `tenant_churn`: items per ingest.
pub const CHURN_BATCH: usize = 1_024;
/// `tenant_churn`: tenants in all (half per client).
pub const CHURN_TENANTS: usize = 32;
/// `tenant_churn`: every how many operations also issue a `Query`.
pub const CHURN_QUERY_EVERY: usize = 4;
/// `tenant_churn`: tenants the memory budget holds (plus half of one).
pub const CHURN_BUDGET_TENANTS: u64 = 16;
/// `tenant_churn`: Zipf exponent of tenant popularity. Skewed enough that
/// most operations hit a resident tenant, so the median sits clear of the
/// eviction/rehydration mode and the p99 clear inside it.
pub const CHURN_POPULARITY: f64 = 1.5;

/// SplitMix64, for deriving per-tenant seeds from the run seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn seed_of(seed: u64, a: u64, b: u64) -> u64 {
    mix(mix(seed ^ a.wrapping_mul(0xA24B_AED4_963E_E407)) ^ b)
}

/// An Algorithm-2 tenant spec advertising stream length `m`.
fn algo2_spec(m: u64, shards: u32) -> TenantSpec {
    TenantSpec {
        kind: SummaryKind::Algo2,
        eps: A2_EPS,
        phi: A2_PHI,
        universe: 1 << 32,
        m,
        shards,
        ..TenantSpec::default()
    }
}

/// The dyadic tenant spec of `telemetry_mix`.
fn dyadic_spec(m: u64) -> TenantSpec {
    TenantSpec {
        kind: SummaryKind::Dyadic,
        eps: DY_EPS,
        phi: DY_PHI,
        universe: 1 << 32,
        m,
        shards: 2,
        ..TenantSpec::default()
    }
}

/// A pool of Zipf(1.2) batches over the 32-bit universe.
fn zipf_pool(seed: u64, count: usize, len: usize) -> Pool {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut zipf = ZipfGenerator::new(1 << 32, 1.2).scrambled(&mut rng);
    Pool::generate(&mut zipf, mix(seed), count, len)
}

/// A pool of CIDR-Zipf batches with the planted [`BLOCKS`].
fn cidr_pool(seed: u64, count: usize, len: usize) -> (Pool, CidrZipf) {
    let mut g = CidrZipf::new(BLOCKS.to_vec(), 1.2);
    let pool = Pool::generate(&mut g, seed, count, len);
    (pool, g)
}

fn since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Sends one ingest, records it in `log`, and shadows it if sampled.
/// Returns the items acked, or `None` if the request failed.
#[allow(clippy::too_many_arguments)]
fn ingest_one(
    client: &mut Client,
    log: &mut ClientLog,
    shadow: Option<&Mutex<Shadow>>,
    name: &str,
    tenant: usize,
    shard: u32,
    pool: &Pool,
    b: usize,
) -> Option<u64> {
    let batch = &pool.batches[b];
    log.attempted += 1;
    let t0 = Instant::now();
    match client.ingest(name, shard, batch) {
        Ok(accepted) => {
            let rtt = t0.elapsed().as_nanos() as f64;
            log.acked(tenant, b, pool.batches.len(), batch.len(), accepted);
            if let Some(sh) = shadow {
                let mut sh = sh.lock().expect("shadow lock");
                if sh.sample() {
                    sh.ingest(name, shard, batch, rtt);
                }
            }
            Some(accepted)
        }
        Err(e) => {
            log.error("ingest", &e);
            None
        }
    }
}

/// Sends one read, records it in `log`, and shadows it if sampled.
/// Returns `Some(0)` (no items) on success, `None` on failure.
fn read_one(
    client: &mut Client,
    log: &mut ClientLog,
    shadow: Option<&Mutex<Shadow>>,
    name: &str,
    tenant: usize,
    op: ReadOp,
) -> Option<u64> {
    log.attempted += 1;
    let t0 = Instant::now();
    let result = match op {
        ReadOp::Query => client
            .query(name)
            .map(|(entries, epoch)| Response::Report { entries, epoch }),
        ReadOp::HeavyRanges(phi) => client
            .heavy_ranges(name, phi)
            .map(|(entries, epoch)| Response::Ranges { entries, epoch }),
        ReadOp::Range(lo, hi) => client
            .range_query(name, lo, hi)
            .map(|(estimate, epoch)| Response::RangeEstimate { estimate, epoch }),
    };
    match result {
        Ok(rsp) => {
            let rtt = t0.elapsed().as_nanos() as f64;
            let epoch = match rsp {
                Response::Report { epoch, .. }
                | Response::Ranges { epoch, .. }
                | Response::RangeEstimate { epoch, .. } => epoch,
                _ => unreachable!("reads answer with an epoch"),
            };
            log.epochs.push((tenant, epoch));
            if let Some(sh) = shadow {
                let mut sh = sh.lock().expect("shadow lock");
                let refreshed = sh.epoch_changed(name, epoch);
                if sh.sample() {
                    sh.read(name, op, &rsp, rtt, refreshed);
                }
            }
            Some(0)
        }
        Err(e) => {
            log.error("read", &e);
            None
        }
    }
}

/// Runs `f(client_index)` on `n` client threads and merges their logs.
fn clients(
    n: usize,
    f: impl Fn(usize) -> Result<ClientLog, String> + Sync,
) -> Result<ClientLog, String> {
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = (0..n).map(|c| s.spawn(move || f(c))).collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let mut all = ClientLog::default();
    for l in logs {
        all.absorb(l?);
    }
    Ok(all)
}

/// One closed-loop operation: ingest batch `.2` of pool `.1` into tenant
/// `.0`.
type Op = (usize, usize, usize);

/// A client's closed loop over `plan`: each operation ingests, and every
/// `query_every`-th (if any) also reads the same tenant's report. Closed loops have
/// no schedule, so each request is due when it is sent; the client's gap
/// from one reply to its next send is its generator lag. Times count from
/// `origin`, the phase's common start. Operations not started by the
/// run's cap fail.
#[allow(clippy::too_many_arguments)]
fn closed_loop_ops(
    ctx: &Ctx,
    origin: Instant,
    live: &serve::Live,
    shadow: Option<&Mutex<Shadow>>,
    names: &[String],
    pools: &[Pool],
    plan: &[Op],
    query_every: Option<usize>,
) -> Result<ClientLog, String> {
    let mut client = serve::connect(&live.server)?;
    let mut log = ClientLog::default();
    let start = origin;
    let mut last_done = None;
    for (k, &(t, p, b)) in plan.iter().enumerate() {
        if Instant::now() >= ctx.cap {
            log.attempted += 1;
            log.failed += 1;
            let now = since(start);
            log.ingest.push(Timing {
                due: now,
                sent: now,
                done: now,
                ok: false,
                items: 0,
            });
            continue;
        }
        let sent = since(start);
        if let Some(d) = last_done {
            log.gaps_us.push((sent - d) * 1e6);
        }
        let acked = ingest_one(&mut client, &mut log, shadow, &names[t], t, 0, &pools[p], b);
        let done = since(start);
        log.ingest.push(Timing {
            due: sent,
            sent,
            done,
            ok: acked.is_some(),
            items: acked.unwrap_or(0),
        });
        last_done = Some(done);
        if query_every.is_some_and(|q| (k + 1) % q == 0) {
            let sent = since(start);
            let acked = read_one(&mut client, &mut log, shadow, &names[t], t, ReadOp::Query);
            let done = since(start);
            log.reads.push(Timing {
                due: sent,
                sent,
                done,
                ok: acked.is_some(),
                items: 0,
            });
            last_done = Some(done);
        }
        if shadow.is_some() && k % PING_EVERY == 0 {
            trace::ping(&mut log.pings, &mut client);
            last_done = Some(since(start));
        }
    }
    Ok(log)
}

fn param(out: &mut Outcome, k: &str, v: impl ToString) {
    out.params.push((k.to_string(), v.to_string()));
}

/// Checks every Algorithm-2 tenant's report against its acked stream.
fn check_algo2(
    client: &mut Client,
    names: &[String],
    truths: &[crate::oracle::Truth],
) -> Result<(Vec<serve::Entries>, Verdict), String> {
    let before = reports(client, names)?;
    let mut v = Verdict::default();
    for ((name, report), truth) in names.iter().zip(&before).zip(truths) {
        let mut one = check_report(truth, report, A2_EPS, A2_PHI);
        for p in &mut one.violations {
            *p = format!("tenant {name}: {p}");
        }
        v.join(one);
    }
    Ok((before, v))
}

/// `ingest_wal`: 2 clients each own 2 of 4 Algorithm-2 tenants and
/// alternate between them, closed loop, 4096 Zipf(1.2) items a request;
/// then write-then-read rounds, a kill, and a timed recovery.
pub fn ingest_wal(ctx: &Ctx) -> Result<Outcome, String> {
    const CLIENTS: usize = 2;
    const TENANTS: usize = 4;
    const POOL: usize = 16;
    const PRELOAD: usize = 2;
    let per_client = ((ctx.seconds * INGEST_WAL_REQ_PER_S).round() as usize).max(2) / 2 * 2;
    let names: Vec<String> = (0..TENANTS).map(|t| format!("w{t}")).collect();
    let pools: Vec<Pool> = (0..TENANTS)
        .map(|t| zipf_pool(seed_of(ctx.seed, 1, t as u64), POOL, INGEST_WAL_BATCH))
        .collect();
    let m = ((per_client / 2 + PRELOAD + INGEST_WAL_READS / TENANTS) * INGEST_WAL_BATCH) as u64;
    let spec = algo2_spec(m, 1);
    let mut out = Outcome {
        wire_bytes_per_item: serve::wire_bytes_per_item(&pools[0].batches[0]),
        ..Outcome::default()
    };
    for (k, v) in [
        ("clients", CLIENTS.to_string()),
        ("tenants", format!("{TENANTS} algo2, 1 shard each")),
        ("batch_items", INGEST_WAL_BATCH.to_string()),
        ("requests_per_client", per_client.to_string()),
        (
            "nominal_requests_per_s_per_client",
            INGEST_WAL_REQ_PER_S.to_string(),
        ),
        ("write_then_read_rounds", INGEST_WAL_READS.to_string()),
        ("eps_phi", format!("{A2_EPS}/{A2_PHI}")),
        ("m_per_tenant", m.to_string()),
    ] {
        param(&mut out, k, v);
    }

    let shadow = ctx.shadow()?;
    if let Some(sh) = &shadow {
        let mut sh = sh.lock().expect("shadow lock");
        for n in &names {
            sh.register(n, spec)?;
        }
    }
    let (live, setup_s) = setup(ctx, SETUP_REPS, None, |c| {
        for (name, pool) in names.iter().zip(&pools) {
            create_and_load(c, name, spec, &pool.batches[..PRELOAD])?;
        }
        Ok(())
    })?;
    out.setup_s = setup_s;
    let h0 = serve::health(&live.server)?;

    let cpu0 = serve::process_cpu_s();
    let t0 = Instant::now();
    let log = clients(CLIENTS, |c| {
        let plan: Vec<Op> = (0..per_client)
            .map(|k| {
                let t = 2 * c + k % 2;
                (t, t, (PRELOAD + k / 2) % POOL)
            })
            .collect();
        closed_loop_ops(ctx, t0, &live, shadow.as_ref(), &names, &pools, &plan, None)
    })?;
    out.timed_s = t0.elapsed().as_secs_f64();
    out.cpu_s = serve::process_cpu_s() - cpu0;
    out.ops = (CLIENTS * per_client) as u64;
    out.gen_lag_us = log.gaps_us.clone();
    out.log = log;
    let h1 = serve::health(&live.server)?;
    out.health = (h0, h1);

    // Reads after writes, kept out of the timed ingest phase: one client
    // ingests a batch into each tenant in turn and then reads that
    // tenant's report, so every read refreshes the view (flush, clone,
    // freeze). Only the reads and the acks count from here on.
    let plan: Vec<Op> = (0..INGEST_WAL_READS)
        .map(|r| {
            let t = r % TENANTS;
            (t, t, (PRELOAD + per_client / 2 + r / TENANTS) % POOL)
        })
        .collect();
    let origin = Instant::now();
    let mut reads = closed_loop_ops(
        ctx,
        origin,
        &live,
        shadow.as_ref(),
        &names,
        &pools,
        &plan,
        Some(1),
    )?;
    reads.ingest.clear();
    reads.gaps_us.clear();
    reads.items = 0;
    out.log.absorb(reads);

    let truths: Vec<_> = (0..TENANTS)
        .map(|t| {
            let mut acks = out
                .log
                .acks
                .get(&t)
                .cloned()
                .unwrap_or_else(|| vec![0; POOL]);
            for a in &mut acks[..PRELOAD] {
                *a += 1;
            }
            pools[t].truth(&acks)
        })
        .collect();
    let before = {
        let mut client = serve::connect(&live.server)?;
        let (before, v) = check_algo2(&mut client, &names, &truths)?;
        out.verdict.join(v);
        before
    };
    let live = kill_and_recover(live, &names, &before, &mut out, ctx.traced, 1)?;
    live.server.kill();
    out.take_shadow(shadow);
    Ok(out)
}

/// `telemetry_mix`: one writer sends CIDR-Zipf batches to a 2-shard
/// dyadic tenant on a Poisson schedule while one reader alternates
/// `HeavyRanges` and `RangeQuery` at 4× the write rate; then the planted
/// blocks are checked, the server is killed, and recovery is timed.
pub fn telemetry_mix(ctx: &Ctx) -> Result<Outcome, String> {
    const POOL: usize = 32;
    const PRELOAD: usize = 4;
    let writes = (ctx.seconds * TELEMETRY_WRITES_PER_S).round().max(1.0) as usize;
    let reads = writes * TELEMETRY_READS_PER_WRITE;
    let read_rate = TELEMETRY_WRITES_PER_S * TELEMETRY_READS_PER_WRITE as f64;
    let mut rng = StdRng::seed_from_u64(seed_of(ctx.seed, 6, 0));
    let write_due = load::poisson_schedule(writes, TELEMETRY_WRITES_PER_S, &mut rng);
    let read_due = load::poisson_schedule(reads, read_rate, &mut rng);
    let name = "net".to_string();
    let names = vec![name.clone()];
    let (pool, cidr) = cidr_pool(seed_of(ctx.seed, 2, 0), POOL, TELEMETRY_BATCH);
    let blocks: Vec<(u64, u64)> = (0..BLOCKS.len()).map(|i| cidr.block_range(i)).collect();
    let m = ((writes + PRELOAD) * TELEMETRY_BATCH) as u64;
    let spec = dyadic_spec(m);
    let mut out = Outcome {
        wire_bytes_per_item: serve::wire_bytes_per_item(&pool.batches[0]),
        ..Outcome::default()
    };
    for (k, v) in [
        ("tenant", "1 dyadic, universe 2^32, 2 shards".to_string()),
        (
            "writes_per_s",
            format!("{TELEMETRY_WRITES_PER_S} (Poisson)"),
        ),
        ("reads_per_s", format!("{read_rate} (Poisson)")),
        ("batch_items", TELEMETRY_BATCH.to_string()),
        ("writes", writes.to_string()),
        ("reads", reads.to_string()),
        ("eps_phi", format!("{DY_EPS}/{DY_PHI}")),
        ("blocks", format!("{BLOCKS:?}")),
    ] {
        param(&mut out, k, v);
    }

    let shadow = ctx.shadow()?;
    if let Some(sh) = &shadow {
        sh.lock().expect("shadow lock").register(&name, spec)?;
    }
    let (live, setup_s) = setup(ctx, SETUP_REPS, None, |c| {
        create_and_load(c, &name, spec, &pool.batches[..PRELOAD])
    })?;
    out.setup_s = setup_s;
    let h0 = serve::health(&live.server)?;

    let cpu0 = serve::process_cpu_s();
    let start = Instant::now() + Duration::from_millis(50);
    let log = clients(2, |c| {
        let mut client = serve::connect(&live.server)?;
        let mut log = ClientLog::default();
        let shadow = shadow.as_ref();
        if c == 0 {
            let timings = load::open_loop(start, &write_due, ctx.cap, |k| {
                let b = (PRELOAD + k) % POOL;
                let acked = ingest_one(
                    &mut client,
                    &mut log,
                    shadow,
                    &name,
                    0,
                    (k % 2) as u32,
                    &pool,
                    b,
                );
                if shadow.is_some() && k % PING_EVERY == 0 {
                    trace::ping(&mut log.pings, &mut client);
                }
                acked
            });
            log.ingest = timings;
        } else {
            let timings = load::open_loop(start, &read_due, ctx.cap, |k| {
                let op = if k % 2 == 0 {
                    ReadOp::HeavyRanges(DY_PHI)
                } else {
                    let (lo, hi) = blocks[(k / 2) % blocks.len()];
                    ReadOp::Range(lo, hi)
                };
                read_one(&mut client, &mut log, shadow, &name, 0, op)
            });
            log.reads = timings;
        }
        Ok(log)
    })?;
    out.cpu_s = serve::process_cpu_s() - cpu0;
    out.timed_s = log
        .ingest
        .iter()
        .chain(&log.reads)
        .map(|t| t.done)
        .fold(0.0, f64::max);
    out.ops = log.attempted;
    out.gen_lag_us = log
        .ingest
        .iter()
        .chain(&log.reads)
        .map(Timing::lag_us)
        .collect();
    out.log = log;
    let h1 = serve::health(&live.server)?;
    out.health = (h0, h1);

    // Checks against the acked stream.
    let mut acks = out
        .log
        .acks
        .get(&0)
        .cloned()
        .unwrap_or_else(|| vec![0; POOL]);
    for a in &mut acks[..PRELOAD] {
        *a += 1;
    }
    let truth = pool.truth(&acks);
    let before = {
        let mut client = serve::connect(&live.server)?;
        let before = reports(&mut client, &names)?;
        let mut v = check_report(&truth, &before[0], DY_EPS, DY_PHI);
        let (ranges, _) = client
            .heavy_ranges(&name, DY_PHI)
            .map_err(|e| format!("heavy_ranges: {e}"))?;
        for (i, &(lo, hi)) in blocks.iter().enumerate() {
            let len = BLOCKS[i].1;
            if !ranges
                .iter()
                .any(|&(level, rlo, rhi, _)| level == len && rlo == lo && rhi == hi)
            {
                v.violations
                    .push(format!("HeavyRanges misses planted block {lo:#x}/{len}"));
            }
            let (est, _) = client
                .range_query(&name, lo, hi)
                .map_err(|e| format!("range_query: {e}"))?;
            let exact = pool.range_count(&acks, lo, hi);
            v.estimate(
                &format!("RangeQuery {lo:#x}/{len}"),
                est,
                exact,
                DY_EPS,
                truth.m(),
            );
        }
        for &(level, lo, hi, est) in &ranges {
            let exact = pool.range_count(&acks, lo, hi);
            v.estimate(
                &format!("HeavyRanges level {level} [{lo:#x}, {hi:#x}]"),
                est,
                exact,
                DY_EPS,
                truth.m(),
            );
        }
        out.verdict.join(v);
        before
    };
    let live = kill_and_recover(live, &names, &before, &mut out, ctx.traced, RECOVERY_REPS)?;
    live.server.kill();
    out.take_shadow(shadow);
    Ok(out)
}

/// What one Algorithm-2 tenant with `batches` pre-loaded holds in
/// memory, by the same `Tenant::resident_bytes` that `ServerHealth`
/// sums.
fn tenant_resident_bytes(spec: TenantSpec, batches: &[Vec<u64>]) -> Result<u64, String> {
    let mut t = Tenant::create(spec).map_err(|e| e.to_string())?;
    for b in batches {
        t.ingest("probe", 0, b).map_err(|e| e.to_string())?;
    }
    Ok(t.resident_bytes())
}

/// `tenant_churn`: 2 clients each own 16 of 32 Algorithm-2 tenants and
/// pick among them with Zipf popularity; each operation ingests 1024
/// items and every 4th also reads a `Query`. The memory budget holds
/// about half the tenants, so eviction saves and rehydration run on the
/// request path.
pub fn tenant_churn(ctx: &Ctx) -> Result<Outcome, String> {
    const CLIENTS: usize = 2;
    const PER_CLIENT: usize = CHURN_TENANTS / CLIENTS;
    const POOL: usize = 32;
    const PRELOAD: usize = 2;
    let ops_per_client = (ctx.seconds * CHURN_OPS_PER_S).round().max(1.0) as usize;
    let names: Vec<String> = (0..CHURN_TENANTS).map(|t| format!("c{t:02}")).collect();
    let pools: Vec<Pool> = (0..CLIENTS)
        .map(|c| zipf_pool(seed_of(ctx.seed, 3, c as u64), POOL, CHURN_BATCH))
        .collect();
    // The operation schedule per client: (tenant, pool, batch) per op.
    let plans: Vec<Vec<Op>> = (0..CLIENTS)
        .map(|c| {
            let mut rng = StdRng::seed_from_u64(seed_of(ctx.seed, 4, c as u64));
            let mut popularity =
                ZipfGenerator::new(PER_CLIENT as u64, CHURN_POPULARITY).scrambled(&mut rng);
            let picks = hh_streams::collect_stream(&mut popularity, ops_per_client, &mut rng);
            picks
                .into_iter()
                .enumerate()
                .map(|(k, p)| (c * PER_CLIENT + p as usize, c, (PRELOAD + k) % POOL))
                .collect()
        })
        .collect();
    let mut planned = vec![PRELOAD; CHURN_TENANTS];
    for plan in &plans {
        for &(t, _, _) in plan {
            planned[t] += 1;
        }
    }
    let specs: Vec<TenantSpec> = planned
        .iter()
        .map(|&n| algo2_spec((n * CHURN_BATCH) as u64, 1))
        .collect();
    let mut sorted_m: Vec<u64> = specs.iter().map(|s| s.m).collect();
    sorted_m.sort_unstable();
    let one = tenant_resident_bytes(
        algo2_spec(sorted_m[sorted_m.len() / 2], 1),
        &pools[0].batches[..PRELOAD],
    )?;
    let budget = one * CHURN_BUDGET_TENANTS + one / 2;
    let mut out = Outcome {
        wire_bytes_per_item: serve::wire_bytes_per_item(&pools[0].batches[0]),
        ..Outcome::default()
    };
    for (k, v) in [
        ("clients", CLIENTS.to_string()),
        (
            "tenants",
            format!("{CHURN_TENANTS} algo2, 1 shard each, Zipf({CHURN_POPULARITY}) popularity"),
        ),
        ("batch_items", CHURN_BATCH.to_string()),
        ("ops_per_client", ops_per_client.to_string()),
        ("nominal_ops_per_s_per_client", CHURN_OPS_PER_S.to_string()),
        ("query_every", CHURN_QUERY_EVERY.to_string()),
        ("eps_phi", format!("{A2_EPS}/{A2_PHI}")),
        ("tenant_resident_bytes", one.to_string()),
        ("memory_budget_bytes", budget.to_string()),
    ] {
        param(&mut out, k, v);
    }

    let shadow = ctx.shadow()?;
    if let Some(sh) = &shadow {
        let mut sh = sh.lock().expect("shadow lock");
        for (n, s) in names.iter().zip(&specs) {
            sh.register(n, *s)?;
        }
    }
    let (live, setup_s) = setup(ctx, CHURN_SETUP_REPS, Some(budget), |c| {
        for (t, (name, spec)) in names.iter().zip(&specs).enumerate() {
            create_and_load(c, name, *spec, &pools[t / PER_CLIENT].batches[..PRELOAD])?;
        }
        Ok(())
    })?;
    out.setup_s = setup_s;
    let h0 = serve::health(&live.server)?;

    let cpu0 = serve::process_cpu_s();
    let t0 = Instant::now();
    let log = clients(CLIENTS, |c| {
        let plan = &plans[c];
        closed_loop_ops(
            ctx,
            t0,
            &live,
            shadow.as_ref(),
            &names,
            &pools,
            plan,
            Some(CHURN_QUERY_EVERY),
        )
    })?;
    out.timed_s = t0.elapsed().as_secs_f64();
    out.cpu_s = serve::process_cpu_s() - cpu0;
    out.ops = (CLIENTS * ops_per_client) as u64;
    out.gen_lag_us = log.gaps_us.clone();
    out.log = log;
    let h1 = serve::health(&live.server)?;
    out.health = (h0, h1);

    let truths: Vec<_> = (0..CHURN_TENANTS)
        .map(|t| {
            let mut acks = out
                .log
                .acks
                .get(&t)
                .cloned()
                .unwrap_or_else(|| vec![0; POOL]);
            for a in &mut acks[..PRELOAD] {
                *a += 1;
            }
            pools[t / PER_CLIENT].truth(&acks)
        })
        .collect();
    let before = {
        let mut client = serve::connect(&live.server)?;
        let (before, v) = check_algo2(&mut client, &names, &truths)?;
        out.verdict.join(v);
        before
    };
    let live = kill_and_recover(live, &names, &before, &mut out, ctx.traced, RECOVERY_REPS)?;
    live.server.kill();
    out.take_shadow(shadow);
    Ok(out)
}

/// The workloads by name, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["ingest_wal", "telemetry_mix", "tenant_churn"];

/// Runs the workload called `name`.
pub fn run(name: &str, ctx: &Ctx) -> Result<Outcome, String> {
    match name {
        "ingest_wal" => ingest_wal(ctx),
        "telemetry_mix" => telemetry_mix(ctx),
        "tenant_churn" => tenant_churn(ctx),
        _ => Err(format!(
            "unknown workload {name:?}; expected one of {NAMES:?}"
        )),
    }
}

/// In-process request shapes of the kinds a workload does not serve, for
/// the traced run's per-kind spans: Algorithm-2 batches of `ingest_wal`
/// and CIDR batches of `telemetry_mix`.
pub fn probe_other_kind(name: &str, seed: u64, out: &mut Outcome) -> Result<(), String> {
    if name == "telemetry_mix" {
        let pool = zipf_pool(seed_of(seed, 5, 0), 16, INGEST_WAL_BATCH);
        let spec = algo2_spec((16 * INGEST_WAL_BATCH) as u64, 1);
        trace::probe_kind(
            &mut out.tracer,
            &mut out.kernel_items,
            spec,
            &pool.batches,
            &[],
        )
    } else {
        let (pool, cidr) = cidr_pool(seed_of(seed, 5, 1), 32, TELEMETRY_BATCH);
        let ranges: Vec<(u64, u64)> = (0..BLOCKS.len()).map(|i| cidr.block_range(i)).collect();
        let spec = dyadic_spec((32 * TELEMETRY_BATCH) as u64);
        trace::probe_kind(
            &mut out.tracer,
            &mut out.kernel_items,
            spec,
            &pool.batches,
            &ranges,
        )
    }
}
