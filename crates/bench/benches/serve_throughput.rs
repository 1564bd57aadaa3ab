//! BENCH_8 group: `serve_throughput` — the serving daemon measured
//! end-to-end over loopback TCP.
//!
//! Every other trajectory group benches in-process calls; this one pays
//! the full serving tax per operation — frame encode, socket write,
//! server decode, shard dispatch, response frame — so a regression in
//! any layer of `hh-server` (protocol codec, deadline plumbing, tenant
//! routing, live-shard reads) lands here even if the summaries
//! themselves got no slower:
//!
//! * **ping_rtt** — the protocol floor: one empty request/response
//!   round trip, bounding what framing + deadlines cost by themselves.
//! * **ingest_wire** — one acked batch per iteration, element
//!   throughput: the serving ingest path clients actually pay, the
//!   write-ahead log's append and commit fsync included.
//! * **query_wire** — one report read per iteration against a quiescent
//!   tenant: the cached serving read.
//! * **query_after_ingest_wire** — one small ingest, then one report
//!   read, per iteration: every read is the first after an ingest, so
//!   it pays the flush barrier and a cold report.
//!
//! Tail behaviour is recorded alongside the means as `_meta` entries
//! (`serve_query_p50_ns` / `serve_query_p99_ns` from a 400-call sweep),
//! since a serving path is judged by its p99, not its average.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use hh_server::client::Client;
use hh_server::facade::{SummaryKind, TenantSpec};
use hh_server::server::{Endpoint, Server, ServerConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

const BATCH: usize = 1 << 12;
/// The ingest in front of each `query_after_ingest_wire` read.
const SMALL_BATCH: usize = 64;
const UNIVERSE: u64 = 1 << 24;

/// A daemon on a loopback port with one SpaceSaving tenant pre-loaded,
/// plus a connected client. Checkpointing is pushed out of the
/// measurement window so the numbers are the steady-state serving path.
fn serving_pair() -> (Server, Client, std::path::PathBuf) {
    let root = std::env::temp_dir().join(format!("hh-serve-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let mut config = ServerConfig::new(&root);
    config.checkpoint_every = Duration::from_secs(3_600);
    let server = Server::start(config, Endpoint::Tcp("127.0.0.1:0".parse().unwrap()))
        .expect("bind loopback");
    let mut client = Client::connect_tcp(server.local_addr().unwrap()).expect("connect");
    let spec = TenantSpec {
        kind: SummaryKind::SpaceSaving,
        universe: UNIVERSE,
        m: 1 << 22,
        shards: 1,
        ..TenantSpec::default()
    };
    client.create("bench", spec).expect("create tenant");
    let warm = hh_bench::zipf_stream(1 << 16, UNIVERSE, 1.2, 7);
    for chunk in warm.chunks(BATCH) {
        client.ingest("bench", 0, chunk).expect("warm ingest");
    }
    (server, client, root)
}

fn bench_serving(c: &mut Criterion) {
    let (server, mut client, root) = serving_pair();
    let data = hh_bench::zipf_stream(1 << 18, UNIVERSE, 1.2, 11);

    // Tail sweep first, against the warm tenant, before the bench loops
    // perturb anything: 400 timed query round trips.
    let mut lat: Vec<u64> = (0..400)
        .map(|_| {
            let t0 = Instant::now();
            black_box(client.query("bench").expect("query"));
            t0.elapsed().as_nanos() as u64
        })
        .collect();
    lat.sort_unstable();
    c.record_metadata("serve_query_p50_ns", lat[lat.len() / 2] as f64);
    c.record_metadata("serve_query_p99_ns", lat[lat.len() * 99 / 100] as f64);

    let mut g = c.benchmark_group("serve_throughput");

    g.bench_function("ping_rtt", |b| b.iter(|| client.ping().expect("ping")));

    g.throughput(Throughput::Elements(BATCH as u64));
    let mut at = 0usize;
    g.bench_function("ingest_wire", |b| {
        b.iter(|| {
            let chunk = &data[at..at + BATCH];
            at = (at + BATCH) % (data.len() - BATCH);
            black_box(client.ingest("bench", 0, black_box(chunk)).expect("ingest"))
        })
    });

    g.throughput(Throughput::Elements(1));
    g.bench_function("query_wire", |b| {
        b.iter(|| black_box(client.query("bench").expect("query")))
    });

    let mut at = 0usize;
    g.bench_function("query_after_ingest_wire", |b| {
        b.iter(|| {
            let chunk = &data[at..at + SMALL_BATCH];
            at = (at + SMALL_BATCH) % (data.len() - SMALL_BATCH);
            client.ingest("bench", 0, black_box(chunk)).expect("ingest");
            black_box(client.query("bench").expect("query"))
        })
    });
    g.finish();

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

fn short() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(300))
}

criterion_group! {
    name = benches;
    config = short();
    targets = bench_serving
}
criterion_main!(benches);
