//! Serving demo: a fault-tolerant heavy-hitters daemon on loopback.
//!
//! ```text
//! cargo run --release -p hh-examples --bin serve_demo
//! ```
//!
//! Starts an `hh-server` on a loopback TCP port, provisions two tenants
//! with different summary engines — `ads` (SpaceSaving) and `search`
//! (the paper's Algorithm 2 via `OptimalListHh`) — and streams Zipf
//! traffic into both over the wire. Mid-stream the process "crashes":
//! the server is killed abruptly (no final checkpoint, as with SIGKILL)
//! and restarted over the same store directory. Boot recovery restores
//! every tenant from its checkpoint bundle and replays the write-ahead
//! log tail over it — the demo snapshots both tenants right before the
//! kill and proves the recovered state is **byte-identical**: nothing
//! acked is lost, not even the traffic that rode in after the last
//! checkpoint.

use hh_examples::banner;
use hh_server::client::Client;
use hh_server::facade::{SummaryKind, TenantSpec};
use hh_server::server::{Endpoint, Server, ServerConfig};
use hh_streams::{collect_stream, ZipfGenerator};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::net::SocketAddr;
use std::path::PathBuf;

const UNIVERSE: u64 = 1 << 24;
const BATCH: usize = 2_000;
const BATCHES_BEFORE_CRASH: usize = 30;
const BATCHES_AFTER_CRASH: usize = 30;

fn store_root() -> PathBuf {
    std::env::temp_dir().join(format!("hh-serve-demo-{}", std::process::id()))
}

fn start_server(root: &PathBuf) -> (Server, SocketAddr) {
    let server = Server::start(
        ServerConfig::new(root),
        Endpoint::Tcp("127.0.0.1:0".parse().expect("loopback addr")),
    )
    .expect("bind loopback");
    let addr = server.local_addr().expect("tcp endpoint has an address");
    (server, addr)
}

fn tenant_specs() -> [(&'static str, TenantSpec); 2] {
    [
        (
            "ads",
            TenantSpec {
                kind: SummaryKind::SpaceSaving,
                universe: UNIVERSE,
                m: (BATCH * (BATCHES_BEFORE_CRASH + BATCHES_AFTER_CRASH)) as u64,
                shards: 2,
                ..TenantSpec::default()
            },
        ),
        (
            "search",
            TenantSpec {
                kind: SummaryKind::Algo2,
                // Zipf(1.2)'s head item holds ~18% of the stream, so
                // the report threshold must sit below that.
                eps: 0.05,
                phi: 0.15,
                universe: UNIVERSE,
                m: (BATCH * (BATCHES_BEFORE_CRASH + BATCHES_AFTER_CRASH)) as u64,
                shards: 2,
                ..TenantSpec::default()
            },
        ),
    ]
}

/// Streams `batches` Zipf batches into both tenants, spreading each
/// tenant's traffic across its two shards.
fn stream_batches(
    client: &mut Client,
    rng: &mut StdRng,
    sources: &mut [(&str, ZipfGenerator); 2],
    batches: usize,
) -> u64 {
    let mut sent = 0;
    for i in 0..batches {
        for (tenant, zipf) in sources.iter_mut() {
            let items = collect_stream(zipf, BATCH, rng);
            let shard = (i % 2) as u32;
            sent += client
                .ingest_retry(tenant, shard, &items, 8)
                .expect("ingest acked");
        }
    }
    sent
}

fn show_reports(client: &mut Client) {
    for tenant in ["ads", "search"] {
        let (entries, epoch) = client.query(tenant).expect("query");
        let head: Vec<String> = entries
            .iter()
            .take(3)
            .map(|&(item, est)| format!("{item}≈{est:.0}"))
            .collect();
        println!(
            "  {tenant:<7} epoch {epoch:>2}  top-3: {}",
            if head.is_empty() {
                "(empty)".to_string()
            } else {
                head.join("  ")
            }
        );
    }
}

fn main() {
    let root = store_root();
    let _ = std::fs::remove_dir_all(&root);
    let mut rng = StdRng::seed_from_u64(2016);

    banner("boot");
    let (server, addr) = start_server(&root);
    println!("  serving on {addr}, store at {}", root.display());
    let mut client = Client::connect_tcp(addr).expect("connect");
    for (name, spec) in tenant_specs() {
        client.create(name, spec).expect("create tenant");
        println!("  tenant {name:<7} created");
    }

    banner("first half of the stream");
    let mut sources = [
        ("ads", ZipfGenerator::new(UNIVERSE, 1.4).scrambled(&mut rng)),
        (
            "search",
            ZipfGenerator::new(UNIVERSE, 1.2).scrambled(&mut rng),
        ),
    ];
    let sent = stream_batches(&mut client, &mut rng, &mut sources, BATCHES_BEFORE_CRASH);
    println!("  {sent} items acked across both tenants");
    let persisted = client.checkpoint().expect("checkpoint");
    println!("  checkpoint persisted {persisted} tenants");
    show_reports(&mut client);

    banner("crash");
    // Un-checkpointed traffic rides ahead of the crash. It lives only
    // in the write-ahead log, and every batch of it was acked, so it
    // must survive to the byte.
    let at_risk = stream_batches(&mut client, &mut rng, &mut sources, 2);
    let pre_kill: Vec<(&str, Vec<u8>)> = ["ads", "search"]
        .iter()
        .map(|&t| (t, client.snapshot(t).expect("pre-kill snapshot")))
        .collect();
    server.kill(); // abrupt — no shutdown checkpoint, like SIGKILL
    println!("  server killed with {at_risk} items acked past the last checkpoint");

    banner("restart + recovery");
    let (server, addr) = start_server(&root);
    let mut client = Client::connect_tcp(addr).expect("reconnect");
    let health = client.health().expect("health");
    println!(
        "  recovered {} tenants from {}, {} quarantined",
        health.recovered_tenants,
        root.display(),
        health.quarantined.len()
    );
    println!(
        "  wal replayed {} records across {} segments (depth now {})",
        health.wal_replayed, health.wal_segments, health.wal_depth
    );
    for (tenant, before) in &pre_kill {
        let after = client.snapshot(tenant).expect("post-recovery snapshot");
        assert_eq!(
            &after, before,
            "tenant {tenant}: acked data lost across the kill"
        );
        println!(
            "  tenant {tenant:<7} byte-identical to the pre-kill state ({} bytes)",
            after.len()
        );
    }
    show_reports(&mut client);

    banner("second half of the stream");
    let sent = stream_batches(&mut client, &mut rng, &mut sources, BATCHES_AFTER_CRASH);
    println!("  {sent} items acked after recovery");
    show_reports(&mut client);

    banner("graceful shutdown");
    client.shutdown_server().expect("shutdown acked");
    server.shutdown();
    let health_len = std::fs::read_dir(&root).map(|d| d.count()).unwrap_or(0);
    println!("  final checkpoint on disk ({health_len} store entries)");
    let _ = std::fs::remove_dir_all(&root);
}
