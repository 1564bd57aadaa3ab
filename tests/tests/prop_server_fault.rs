//! Fault-injection suite for the serving daemon (PR 8): the whole
//! `hh-server` stack — framing, protocol decode, admission, tenant
//! runtime, checkpointing — is driven through the `hh-faults`
//! corruptors and the [`hh_faults::net::FaultyConn`] transport faults,
//! and the contract is:
//!
//! 1. **fuzzed request frames** (truncation at every offset, sampled
//!    bit flips, inflated length prefixes, tag swaps) get a structured
//!    `Error` response or a clean close — never a panic, never a stuck
//!    connection — and the server stays fully serviceable afterwards;
//! 2. an **oversized frame prefix** is refused with `FrameTooLarge`
//!    before the server allocates from the lie, and the connection is
//!    closed;
//! 3. **mid-frame disconnects** and **stalls past the frame deadline**
//!    leave the server healthy: the victim connection is reaped, fresh
//!    clients are served;
//! 4. a **concurrent soak** with injected mid-request disconnects ends
//!    with every tenant byte-identical to a sequential oracle fed only
//!    the acknowledged batches;
//! 5. **kill -9** (abrupt process death, simulated by `Server::kill`)
//!    loses **nothing acked**, since every tenant is write-ahead
//!    logged: the restart serves the bundle plus the replayed log
//!    tail, byte-identical to an oracle fed every acked batch;
//! 6. the same protocol works over a **Unix domain socket**;
//! 7. **streaming replay fails closed**: recovery applies WAL records
//!    as it reads them, so damage found partway through a log (a
//!    rotten sealed segment, a checksum-valid record carrying a
//!    malformed frame) must still leave the tenant quarantined — never
//!    live on the prefix replayed before the damage — and a parallel
//!    boot quarantines exactly the damaged tenants while the rest serve
//!    byte-identically to an oracle;
//! 8. the WAL has **one on-disk format**: a tenant whose log still
//!    holds a v1 (CRC-32) segment boots quarantined with a reason that
//!    names the format, while its siblings serve unchanged, and the
//!    documented upgrade (graceful `Shutdown`, delete every `wal/`
//!    directory, restart) keeps every report and resumes acked,
//!    crash-safe ingest.

use hh_faults::corrupt;
use hh_faults::net::FaultyConn;
use hh_server::client::Client;
use hh_server::facade::{SummaryKind, TenantSpec};
use hh_server::proto::{read_frame, write_frame, ProtocolError, Request, Response, MAX_FRAME_LEN};
use hh_server::server::{Endpoint, Server, ServerConfig};
use hh_server::RetryPolicy;
use hh_wal::record::{encode_record, parse_record};
use hh_wal::segment::{encode_header, SEGMENT_HEADER_LEN};
use std::io::Write as _;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn tmp_root(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hh-server-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spec() -> TenantSpec {
    TenantSpec {
        kind: SummaryKind::SpaceSaving,
        shards: 1,
        m: 100_000,
        universe: 1 << 20,
        ..TenantSpec::default()
    }
}

fn start_tcp(tag: &str) -> (Server, PathBuf) {
    let root = tmp_root(tag);
    let server = Server::start(
        ServerConfig::fast(&root),
        Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
    )
    .unwrap();
    (server, root)
}

fn raw_conn(server: &Server) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr().unwrap()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    stream
}

/// Sends one (possibly corrupt) body as a well-formed frame and returns
/// what came back: a decoded response, or `None` if the server closed
/// or errored the connection. The 5-second read timeout turns a stuck
/// connection into a test failure rather than a hang.
fn exchange(server: &Server, body: &[u8]) -> Option<Response> {
    let mut stream = raw_conn(server);
    if write_frame(&mut stream, body).is_err() {
        return None;
    }
    match read_frame(&mut stream) {
        Ok(Some(rsp)) => Response::decode(&rsp).ok(),
        _ => None,
    }
}

#[test]
fn fuzzed_request_frames_never_kill_the_server() {
    let (server, root) = start_tcp("fuzz");
    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    client.create("canary", spec()).unwrap();
    client.ingest("canary", 0, &[7; 2_000]).unwrap();

    let valid = Request::Query {
        tenant: "canary".to_string(),
    }
    .encode();

    // (1a) Truncation at every offset: well-formed frame, short body.
    for cut in corrupt::truncations(&valid) {
        match exchange(&server, cut) {
            Some(Response::Error { .. }) | None => {}
            Some(other) => panic!("truncated body answered {other:?}"),
        }
    }

    // (1b) Sampled single-bit flips: the checksum trailer (or the tag
    // match, or the decode bounds) must catch every one; a flip may
    // also land harmlessly and still decode, but never panic. 128
    // deterministic samples cover tag, payload, and trailer regions.
    for flipped in corrupt::bit_flips(&valid, 0x5EED_F00D, 128) {
        let _ = exchange(&server, &flipped);
    }

    // (1c) Inflated length prefixes inside the body: the decoder's own
    // bounds must refuse before allocating from the lie.
    for inflated in corrupt::inflate_length_prefixes(&valid) {
        match exchange(&server, &inflated) {
            Some(Response::Error { .. }) | None => {}
            Some(other) => panic!("inflated prefix answered {other:?}"),
        }
    }

    // (1d) Tag swap: a response body where a request belongs.
    let swapped = corrupt::swap_tag(&valid, hh_server::REQUEST_TAG, hh_server::RESPONSE_TAG)
        .expect("request bodies start with the request tag");
    assert!(
        matches!(
            exchange(&server, &swapped),
            Some(Response::Error { .. }) | None
        ),
        "tag-swapped body must be refused"
    );

    // After the whole assault the server still serves: the canary
    // tenant is intact and reachable from a fresh connection.
    let mut after = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    after.ping().unwrap();
    let (entries, _) = after.query("canary").unwrap();
    assert!(entries.iter().any(|&(item, _)| item == 7));
    let health = after.health().unwrap();
    assert_eq!(health.tenants, 1);
    assert!(health.quarantined.is_empty());

    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn oversized_frame_prefix_is_refused_then_closed() {
    let (server, root) = start_tcp("bigframe");
    let mut stream = raw_conn(&server);
    let lie = (MAX_FRAME_LEN as u32) + 1;
    stream.write_all(&lie.to_le_bytes()).unwrap();

    // The server answers with a structured FrameTooLarge error...
    let body = read_frame(&mut stream)
        .expect("error frame arrives")
        .expect("connection not silently closed");
    match Response::decode(&body).unwrap() {
        Response::Error { code, message } => {
            let err = ProtocolError::from_wire(code, message);
            assert!(matches!(err, ProtocolError::FrameTooLarge { .. }), "{err}");
        }
        other => panic!("wanted Error, got {other:?}"),
    }
    // ...and then closes: the next read sees EOF, not a hang.
    assert!(matches!(read_frame(&mut stream), Ok(None) | Err(_)));

    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    client.ping().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn mid_frame_disconnects_leave_the_server_serviceable() {
    let (server, root) = start_tcp("sever");
    let body = Request::Ingest {
        tenant: "ghost".to_string(),
        shard: 0,
        client: 0,
        req_seq: 0,
        items: vec![1; 4_096],
    }
    .encode();

    // Sever at the prefix boundary, just inside the body, and deep
    // inside the batch payload: the server must reap each half-frame.
    for &offset in &[2usize, 4, 5, 64, body.len() / 2] {
        let mut conn = FaultyConn::new(raw_conn(&server)).sever_at(offset);
        let mut framed = Vec::with_capacity(4 + body.len());
        framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
        framed.extend_from_slice(&body);
        let err = conn.write_all(&framed).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
    }

    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    client.ping().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn stalled_writer_is_reaped_past_the_frame_deadline() {
    let (server, root) = start_tcp("stall");
    let body = Request::Ping.encode();
    let mut framed = Vec::with_capacity(4 + body.len());
    framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
    framed.extend_from_slice(&body);

    // The fast profile allows 200ms per frame; stall 800ms after the
    // length prefix. The server must abandon the connection instead of
    // waiting forever, so either our writes start failing or the
    // response never comes — but a fresh client is served immediately.
    let mut conn = FaultyConn::new(raw_conn(&server))
        .chunk(1)
        .stall_at(4, Duration::from_millis(800));
    let write = conn.write_all(&framed);
    let reply = match write {
        Ok(()) => read_frame(&mut conn).ok().flatten(),
        Err(_) => None,
    };
    assert!(
        reply.is_none(),
        "a byte-trickling staller must not be answered"
    );

    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    client.ping().unwrap();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn concurrent_soak_matches_sequential_oracle() {
    let (server, root) = start_tcp("soak");
    let addr = server.local_addr().unwrap();
    const CLIENTS: usize = 3;
    const BATCHES: u64 = 16;
    const BATCH_LEN: u64 = 400;

    // One single-shard tenant per client thread, so each tenant sees a
    // deterministic batch order and "byte-identical" is well-defined.
    let workers: Vec<_> = (0..CLIENTS)
        .map(|t| {
            std::thread::spawn(move || {
                let tenant = format!("soak{t}");
                let mut client = Client::connect_tcp(addr).unwrap();
                client.create(&tenant, spec()).unwrap();
                let mut oracle = spec().build_bank().unwrap().remove(0);
                for i in 0..BATCHES {
                    let items: Vec<u64> = (0..BATCH_LEN)
                        .map(|k| (t as u64) * 1_000_003 + i * 131 + k % 97)
                        .collect();
                    // Every third batch first rides a doomed connection
                    // that dies mid-request: the server never sees a
                    // complete frame, so the batch is NOT applied and
                    // the oracle must not count the failed attempt.
                    if i % 3 == 0 {
                        let body = Request::Ingest {
                            tenant: tenant.clone(),
                            shard: 0,
                            client: 0,
                            req_seq: 0,
                            items: items.clone(),
                        }
                        .encode();
                        let doomed = TcpStream::connect(addr).unwrap();
                        let mut conn = FaultyConn::new(doomed).sever_at(7 + (i as usize % 40));
                        let mut framed = Vec::with_capacity(4 + body.len());
                        framed.extend_from_slice(&(body.len() as u32).to_le_bytes());
                        framed.extend_from_slice(&body);
                        assert!(conn.write_all(&framed).is_err());
                    }
                    // The real attempt, retried through overload hints.
                    let accepted = client.ingest_retry(&tenant, 0, &items, 10).unwrap();
                    assert_eq!(accepted, items.len() as u64);
                    use hh_core::StreamSummary as _;
                    oracle.insert_batch(&items);
                }
                let served = client.snapshot(&tenant).unwrap();
                use hh_core::MergeableSummary as _;
                assert_eq!(
                    served,
                    oracle.to_bytes(),
                    "tenant {tenant}: served state diverged from the acked-batch oracle"
                );
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }

    let mut client = Client::connect_tcp(addr).unwrap();
    let health = client.health().unwrap();
    assert_eq!(health.tenants, CLIENTS as u64);
    assert!(health.quarantined.is_empty());
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn kill_with_wal_recovers_every_acked_batch() {
    let root = tmp_root("kill-wal");
    // No periodic checkpoints and no final one (kill): after the single
    // explicit checkpoint mid-stream, every acked batch lives only in
    // the write-ahead log when the server dies. The oracle is fed every
    // acked batch — the contract is zero acked loss, byte-identical.
    let mut config = ServerConfig::fast(&root);
    config.checkpoint_every = Duration::from_secs(3_600);
    let server = Server::start(
        config.clone(),
        Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
    )
    .unwrap();
    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    client.create("ten", spec()).unwrap();

    let mut oracle = spec().build_bank().unwrap().remove(0);
    for i in 0..12u64 {
        let items: Vec<u64> = (0..500).map(|k| i * 131 + k % 17).collect();
        assert_eq!(client.ingest("ten", 0, &items).unwrap(), 500);
        use hh_core::StreamSummary as _;
        oracle.insert_batch(&items);
        if i == 4 {
            // One checkpoint mid-stream: batches 0..=4 live in the
            // bundle, 5..=11 only in the log.
            assert_eq!(client.checkpoint().unwrap(), 1);
        }
    }
    server.kill();

    let server = Server::start(config, Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).unwrap();
    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    let health = client.health().unwrap();
    assert_eq!(health.recovered_tenants, 1);
    assert!(health.quarantined.is_empty());
    assert!(
        health.wal_replayed >= 7,
        "expected the 7 post-checkpoint batches replayed, health: {health:?}"
    );
    use hh_core::MergeableSummary as _;
    let served = client.snapshot("ten").unwrap();
    assert_eq!(
        served,
        oracle.to_bytes(),
        "recovered state diverged from the every-acked-batch oracle"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn wal_soak_reliable_ingest_survives_kill_cycles_exactly() {
    // Three kill/recover cycles under WAL durability with NO
    // checkpoints at all besides create: every cycle's acked batches
    // must accumulate across restarts, exactly once each, matching a
    // sequential oracle byte-for-byte.
    let root = tmp_root("wal-cycles");
    let mut config = ServerConfig::fast(&root);
    config.checkpoint_every = Duration::from_secs(3_600);
    let mut oracle = spec().build_bank().unwrap().remove(0);
    let policy = RetryPolicy::default();
    for cycle in 0..3u64 {
        let server = Server::start(
            config.clone(),
            Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
        )
        .unwrap();
        let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
        if cycle == 0 {
            client.create("ten", spec()).unwrap();
        }
        for i in 0..6u64 {
            let items: Vec<u64> = (0..300).map(|k| cycle * 977 + i * 131 + k % 13).collect();
            let accepted = client.ingest_reliable("ten", 0, &items, &policy).unwrap();
            assert_eq!(accepted, items.len() as u64);
            use hh_core::StreamSummary as _;
            oracle.insert_batch(&items);
        }
        server.kill();
    }
    let server = Server::start(config, Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).unwrap();
    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    use hh_core::MergeableSummary as _;
    let served = client.snapshot("ten").unwrap();
    assert_eq!(
        served,
        oracle.to_bytes(),
        "acked batches lost or double-applied across kill cycles"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn fuzzed_range_requests_never_kill_a_dyadic_tenant() {
    // The dyadic kind as the canary: a dyadic tenant keeps serving
    // range queries while its own RangeQuery/HeavyRanges frames are
    // corrupted, and a kill/restart cycle preserves the checkpointed
    // heavy forest.
    let (server, root) = start_tcp("dyadic-fuzz");
    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    let dyadic = TenantSpec {
        kind: SummaryKind::Dyadic,
        shards: 1,
        m: 100_000,
        universe: 1 << 16,
        ..TenantSpec::default()
    };
    client.create("net", dyadic).unwrap();
    let stream: Vec<u64> = (0..6_000u64)
        .map(|i| {
            if i % 2 == 0 {
                0xAB00 + (i % 256)
            } else {
                i % 0x4000
            }
        })
        .collect();
    client.ingest("net", 0, &stream).unwrap();

    let valid = Request::RangeQuery {
        tenant: "net".to_string(),
        lo: 0xAB00,
        hi: 0xABFF,
    }
    .encode();
    for cut in corrupt::truncations(&valid) {
        match exchange(&server, cut) {
            Some(Response::Error { .. }) | None => {}
            Some(other) => panic!("truncated range request answered {other:?}"),
        }
    }
    for flipped in corrupt::bit_flips(&valid, 0x00D1_AD1C, 128) {
        let _ = exchange(&server, &flipped);
    }
    let heavy = Request::HeavyRanges {
        tenant: "net".to_string(),
        phi: 0.25,
    }
    .encode();
    for flipped in corrupt::bit_flips(&heavy, 0x00D1_AD1D, 128) {
        let _ = exchange(&server, &flipped);
    }

    // The tenant answered none of that damage with corrupted state.
    let (estimate, _) = client.range_query("net", 0xAB00, 0xABFF).unwrap();
    assert!(
        (estimate - 3_000.0).abs() <= 0.05 * 6_000.0,
        "block mass {estimate} after fuzzing"
    );
    client.checkpoint().unwrap();
    server.kill();

    let server = Server::start(
        ServerConfig::fast(&root),
        Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
    )
    .unwrap();
    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    let (restored, _) = client.range_query("net", 0xAB00, 0xABFF).unwrap();
    assert_eq!(
        estimate.to_bits(),
        restored.to_bits(),
        "checkpointed range estimate must survive a kill bit-for-bit"
    );
    let (ranges, _) = client.heavy_ranges("net", 0.25).unwrap();
    assert!(
        ranges
            .iter()
            .any(|&(_, lo, hi, _)| lo <= 0xAB00 && 0xABFF <= hi),
        "heavy forest lost across recovery: {ranges:?}"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unix_domain_socket_smoke() {
    let root = tmp_root("uds");
    std::fs::create_dir_all(&root).unwrap();
    let sock = root.join("hh.sock");
    let server = Server::start(ServerConfig::fast(&root), Endpoint::Unix(sock.clone())).unwrap();
    let mut client = Client::connect_uds(&sock).unwrap();
    client.ping().unwrap();
    client.create("udst", spec()).unwrap();
    client.ingest("udst", 0, &[5; 2_000]).unwrap();
    let (entries, _) = client.query("udst").unwrap();
    assert!(entries.iter().any(|&(item, _)| item == 5));
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A config with 4 KiB WAL segments (two 500-item batches each), so a
/// handful of ingests seals several segments, and no periodic
/// checkpoint to compact them away.
fn small_segment_config(root: &Path) -> ServerConfig {
    let mut config = ServerConfig::fast(root);
    config.checkpoint_every = Duration::from_secs(3_600);
    config.wal_segment_bytes = 4 << 10;
    config
}

/// Deterministic batch `i` of tenant `t`.
fn batch(t: u64, i: u64) -> Vec<u64> {
    (0..500).map(|k| t * 10_007 + i * 131 + k % 17).collect()
}

/// A tenant's WAL segment files in sequence order.
fn wal_segments(root: &Path, tenant: &str) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(root.join(tenant).join("wal"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    segs.sort();
    segs
}

/// Rewrites `seg` so its first record carries an ingest frame whose
/// item count disagrees with its length, re-encoded with a valid
/// checksum: only the frame decoder can catch it.
fn plant_malformed_frame(seg: &Path) {
    let bytes = std::fs::read(seg).unwrap();
    let first_seq = u64::from_le_bytes(bytes[14..22].try_into().unwrap());
    let mut out = encode_header(first_seq).to_vec();
    let mut off = SEGMENT_HEADER_LEN;
    let mut first = true;
    while off < bytes.len() {
        let (seq, payload, used) = parse_record(&bytes[off..]).unwrap();
        let mut payload = payload.to_vec();
        if first {
            payload.truncate(payload.len() - 8);
            first = false;
        }
        encode_record(seq, &payload, &mut out);
        off += used;
    }
    std::fs::write(seg, &out).unwrap();
}

/// Asserts `tenant` is quarantined and refuses both reads and writes.
fn assert_quarantined(client: &mut Client, tenant: &str) {
    let health = client.health().unwrap();
    assert!(
        health.quarantined.contains(&tenant.to_string()),
        "{tenant} not quarantined: {:?}",
        health.quarantined
    );
    assert!(
        matches!(client.query(tenant), Err(ProtocolError::Quarantined(_))),
        "{tenant} serves reads from a half-replayed log"
    );
    assert!(matches!(
        client.ingest(tenant, 0, &[1, 2, 3]),
        Err(ProtocolError::Quarantined(_))
    ));
}

/// Creates `tenant` and ingests `batches` batches into it.
fn load(client: &mut Client, t: u64, tenant: &str, batches: u64) {
    client.create(tenant, spec()).unwrap();
    for i in 0..batches {
        assert_eq!(client.ingest(tenant, 0, &batch(t, i)).unwrap(), 500);
    }
}

#[test]
fn rot_in_the_third_of_five_sealed_segments_quarantines_the_tenant() {
    let root = tmp_root("stream-rot");
    let config = small_segment_config(&root);
    let server = Server::start(
        config.clone(),
        Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
    )
    .unwrap();
    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    load(&mut client, 1, "rot", 12);
    server.kill();

    let segs = wal_segments(&root, "rot");
    assert!(
        segs.len() >= 6,
        "need 5 sealed segments, got {}",
        segs.len()
    );
    let mut bytes = std::fs::read(&segs[2]).unwrap();
    bytes[SEGMENT_HEADER_LEN + 40] ^= 0x04;
    std::fs::write(&segs[2], &bytes).unwrap();

    let server = Server::start(config, Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).unwrap();
    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    assert_quarantined(&mut client, "rot");
    assert_eq!(
        client.health().unwrap().wal_replayed,
        0,
        "no live replay survives"
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn a_checksum_valid_malformed_frame_mid_log_quarantines_the_tenant() {
    let root = tmp_root("stream-frame");
    let config = small_segment_config(&root);
    let server = Server::start(
        config.clone(),
        Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
    )
    .unwrap();
    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    load(&mut client, 2, "frame", 12);
    server.kill();

    let segs = wal_segments(&root, "frame");
    assert!(
        segs.len() >= 4,
        "need a mid-log segment, got {}",
        segs.len()
    );
    plant_malformed_frame(&segs[segs.len() / 2]);
    // The damage is invisible to the log layer: every checksum holds.
    assert!(hh_wal::replay_dir(&root.join("frame").join("wal")).is_ok());

    let server = Server::start(config, Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).unwrap();
    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    assert_quarantined(&mut client, "frame");
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn parallel_boot_quarantines_exactly_the_damaged_tenants() {
    let root = tmp_root("stream-parallel");
    let config = small_segment_config(&root);
    let server = Server::start(
        config.clone(),
        Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
    )
    .unwrap();
    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    let names: Vec<String> = (0..8).map(|t| format!("p{t}")).collect();
    for (t, name) in names.iter().enumerate() {
        load(&mut client, t as u64, name, 6 + t as u64);
    }
    server.kill();

    // p2 rots inside a sealed segment; p5 carries a malformed frame;
    // p7's log is replaced by a segment the retired v1 (CRC-32) format
    // wrote.
    let segs = wal_segments(&root, "p2");
    let mut bytes = std::fs::read(&segs[1]).unwrap();
    bytes[SEGMENT_HEADER_LEN + 100] ^= 0x20;
    std::fs::write(&segs[1], &bytes).unwrap();
    plant_malformed_frame(&wal_segments(&root, "p5")[1]);
    for seg in wal_segments(&root, "p7") {
        std::fs::remove_file(seg).unwrap();
    }
    let v1: &[u8] = include_bytes!("../../crates/hh-wal/fixtures/v1/seg-00000000000000000007.wal");
    let v1_seg = root
        .join("p7")
        .join("wal")
        .join("seg-00000000000000000007.wal");
    std::fs::write(v1_seg, v1).unwrap();

    let server = Server::start(config, Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).unwrap();
    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    let health = client.health().unwrap();
    let damaged = ["p2", "p5", "p7"];
    assert_eq!(health.recovered_tenants, 8);
    assert_eq!(health.quarantined, damaged);
    for name in damaged {
        assert_quarantined(&mut client, name);
    }
    match client.query("p7") {
        Err(ProtocolError::Quarantined(why)) => {
            assert!(why.contains("v1 (CRC-32) WAL format"), "{why}");
        }
        other => panic!("expected the v1 log refused by name, got {other:?}"),
    }
    use hh_core::MergeableSummary as _;
    use hh_core::StreamSummary as _;
    for (t, name) in names.iter().enumerate() {
        if damaged.contains(&name.as_str()) {
            continue;
        }
        let mut oracle = spec().build_bank().unwrap().remove(0);
        for i in 0..6 + t as u64 {
            oracle.insert_batch(&batch(t as u64, i));
        }
        assert_eq!(
            client.snapshot(name).unwrap(),
            oracle.to_bytes(),
            "{name}: parallel boot diverged from the oracle"
        );
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// `tenant`'s served report with each estimate as raw bits, so equality
/// is byte-identity.
fn report_bits(client: &mut Client, tenant: &str) -> Vec<(u64, u64)> {
    let (entries, _) = client.query(tenant).unwrap();
    entries
        .iter()
        .map(|&(item, f)| (item, f.to_bits()))
        .collect()
}

#[test]
fn upgrade_by_shutdown_and_wal_wipe_keeps_every_report_and_resumes_acked_ingest() {
    // The one-shot WAL format upgrade, run on one build: a graceful
    // protocol `Shutdown` checkpoints every tenant, the operator deletes
    // each `<tenant>/wal`, and the restart reopens an empty log past
    // the checkpoint marks.
    let root = tmp_root("wal-upgrade");
    let config = small_segment_config(&root);
    let server = Server::start(
        config.clone(),
        Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
    )
    .unwrap();
    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    let names = ["u0", "u1", "u2"];
    let mut oracles = Vec::new();
    let mut reports = Vec::new();
    for (t, name) in names.iter().enumerate() {
        load(&mut client, t as u64, name, 3 + t as u64);
        let mut oracle = spec().build_bank().unwrap().remove(0);
        for i in 0..3 + t as u64 {
            use hh_core::StreamSummary as _;
            oracle.insert_batch(&batch(t as u64, i));
        }
        oracles.push(oracle);
        reports.push(report_bits(&mut client, name));
    }
    client.shutdown_server().unwrap();
    drop(client);
    server.shutdown();

    for name in names {
        std::fs::remove_dir_all(root.join(name).join("wal")).unwrap();
    }
    let server = Server::start(
        config.clone(),
        Endpoint::Tcp("127.0.0.1:0".parse().unwrap()),
    )
    .unwrap();
    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    let health = client.health().unwrap();
    assert!(health.quarantined.is_empty(), "{health:?}");
    assert_eq!(health.wal_replayed, 0, "the wiped logs hold nothing");
    use hh_core::MergeableSummary as _;
    let mut acked = Vec::new();
    for (t, name) in names.iter().enumerate() {
        assert_eq!(&report_bits(&mut client, name), &reports[t], "{name}");
        assert_eq!(
            client.snapshot(name).unwrap(),
            oracles[t].to_bytes(),
            "{name}: the checkpoint alone must carry every acked batch"
        );
        // The next ingest lands in the fresh log and is acked. The
        // served state after it is the reference (a restored
        // Space-Saving table may break count ties differently from one
        // that never stopped, so an uninterrupted oracle is not).
        assert_eq!(client.ingest(name, 0, &batch(t as u64, 100)).unwrap(), 500);
        acked.push(client.snapshot(name).unwrap());
    }
    server.kill();

    let server = Server::start(config, Endpoint::Tcp("127.0.0.1:0".parse().unwrap())).unwrap();
    let mut client = Client::connect_tcp(server.local_addr().unwrap()).unwrap();
    let health = client.health().unwrap();
    assert!(health.quarantined.is_empty(), "{health:?}");
    assert_eq!(health.wal_replayed, 3, "{health:?}");
    for (t, name) in names.iter().enumerate() {
        assert_eq!(
            client.snapshot(name).unwrap(),
            acked[t],
            "{name}: the post-upgrade ingest did not survive the kill"
        );
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
