//! The traced run's shadow: for a sample of the requests a client sends,
//! it drives the same request shape through the layers' public functions
//! in the server's order (`hh-server::{proto, durability, tenant, store}`,
//! `hh-wal`, `hh-pipeline::ShardRuntime`, the `hh-core`/`hh-dyadic`
//! summaries) and wraps each call in a span. The program itself carries
//! no instrumentation.
//!
//! Attribution: every shadowed request runs inside one `attr.*` span
//! whose children are the layer calls; the children's time is the
//! attributed time of that request, set against the client RTT the real
//! request took.

use crate::span::Tracer;
use hh_core::{HeavyHitters, MergeableSummary, StreamSummary};
use hh_pipeline::{Backpressure, FailurePolicy, Frozen, IngestMode, ShardRuntime};
use hh_server::durability::{encode_frame, BankSnapshot, DedupEntry, DedupTable};
use hh_server::{DynSummary, Request, Response, Store, SummaryKind, TenantSpec};
use hh_wal::{Wal, WalConfig};
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::{Duration, Instant};

/// How the server bounds a view refresh's flush barrier.
const FLUSH_TIMEOUT: Duration = Duration::from_secs(2);

/// Every how many shadowed ingests the shadow also saves its bank and
/// round-trips a snapshot (they cost about a millisecond each).
const SAVE_EVERY: u64 = 16;

/// A read request shape.
#[derive(Debug, Clone, Copy)]
pub enum ReadOp {
    /// `Query`: the heavy-hitter report.
    Query,
    /// `HeavyRanges` at this φ.
    HeavyRanges(f64),
    /// `RangeQuery` over `[lo, hi]`.
    Range(u64, u64),
}

impl ReadOp {
    fn request(self, tenant: &str) -> Request {
        let tenant = tenant.to_string();
        match self {
            Self::Query => Request::Query { tenant },
            Self::HeavyRanges(phi) => Request::HeavyRanges { tenant, phi },
            Self::Range(lo, hi) => Request::RangeQuery { tenant, lo, hi },
        }
    }
}

/// Span-name prefix of a summary kind's own calls.
fn kind_prefix(kind: SummaryKind) -> &'static str {
    match kind {
        SummaryKind::Dyadic => "dyadic",
        _ => "core.algo2",
    }
}

fn kind_span(kind: SummaryKind, op: &str) -> &'static str {
    match (kind, op) {
        (SummaryKind::Dyadic, "insert") => "dyadic.insert",
        (SummaryKind::Dyadic, "clone") => "dyadic.clone",
        (SummaryKind::Dyadic, "merge") => "dyadic.merge",
        (_, "insert") => "core.algo2.insert",
        (_, "clone") => "core.algo2.clone",
        (_, "merge") => "core.algo2.merge",
        _ => unreachable!("unknown kind span {op}"),
    }
}

/// One tenant's shadow bank, built like the server builds it.
struct ShadowTenant {
    spec: TenantSpec,
    runtime: ShardRuntime<DynSummary>,
    view: Option<Frozen<DynSummary>>,
    /// Epoch of the last read response seen for this tenant.
    last_epoch: Option<u64>,
}

/// Per-client shadow state; see the module docs.
pub struct Shadow {
    /// Spans recorded so far.
    pub tr: Tracer,
    /// Items passed to each kernel-insert span.
    pub kernel_items: BTreeMap<&'static str, u64>,
    every: u64,
    seen: u64,
    ingests: u64,
    wal: Wal,
    dedup: DedupTable,
    frame: Vec<u8>,
    store: Store,
    client: u64,
    req_seq: u64,
    tenants: HashMap<String, ShadowTenant>,
    kernels: HashMap<&'static str, DynSummary>,
}

impl Shadow {
    /// A shadow that replays every `every`-th request, with its own WAL
    /// and store under `dir` (production WAL settings).
    pub fn new(dir: &Path, every: u64, client: u64) -> Result<Self, String> {
        let (wal, _) = Wal::open(WalConfig::new(dir.join("wal")), 1)
            .map_err(|e| format!("shadow wal: {e}"))?;
        let store = Store::open(dir.join("store")).map_err(|e| format!("shadow store: {e}"))?;
        let mut tr = Tracer::default();
        tr.keep_samples("wal.commit_wait");
        Ok(Self {
            tr,
            kernel_items: BTreeMap::new(),
            every: every.max(1),
            seen: 0,
            ingests: 0,
            wal,
            dedup: DedupTable::default(),
            frame: Vec::new(),
            store,
            client,
            req_seq: 0,
            tenants: HashMap::new(),
            kernels: HashMap::new(),
        })
    }

    /// Counts one request and says whether to shadow it.
    pub fn sample(&mut self) -> bool {
        self.seen += 1;
        self.seen.is_multiple_of(self.every)
    }

    /// Registers a tenant with the spec the server built it from.
    pub fn register(&mut self, name: &str, spec: TenantSpec) -> Result<(), String> {
        let bank = spec.build_bank().map_err(|e| e.to_string())?;
        let mut runtime = ShardRuntime::new(bank, IngestMode::Auto);
        runtime.set_failure_policy(FailurePolicy::Quarantine);
        runtime.set_backpressure(Backpressure::Shed);
        let prefix = kind_prefix(spec.kind);
        if !self.kernels.contains_key(prefix) {
            let mut one = TenantSpec { shards: 1, ..spec }
                .build_bank()
                .map_err(|e| e.to_string())?;
            self.kernels.insert(prefix, one.pop().expect("one shard"));
        }
        self.tenants.insert(
            name.to_string(),
            ShadowTenant {
                spec,
                runtime,
                view: None,
                last_epoch: None,
            },
        );
        Ok(())
    }

    /// Replays one acked ingest of `items` into `tenant`'s shard `shard`
    /// whose real round trip took `rtt_ns`.
    pub fn ingest(&mut self, tenant: &str, shard: u32, items: &[u64], rtt_ns: f64) {
        self.req_seq += 1;
        let (client, req_seq) = (self.client, self.req_seq);
        let Self {
            tr,
            wal,
            dedup,
            frame,
            tenants,
            ..
        } = self;
        let t = tenants.get_mut(tenant).expect("registered tenant");
        tr.span("attr.ingest", |tr| {
            let bytes = tr.span("proto.ingest_req_encode", |_| {
                Request::Ingest {
                    tenant: tenant.to_string(),
                    shard,
                    client,
                    req_seq,
                    items: items.to_vec(),
                }
                .encode()
            });
            let req = tr.span("proto.ingest_req_decode", |_| Request::decode(&bytes));
            let Ok(Request::Ingest { items, .. }) = req else {
                panic!("an encoded ingest request failed to decode");
            };
            tr.span("durability.dedup_check", |_| dedup.check(client, req_seq));
            tr.span("pipeline.dispatch", |_| {
                let before = t.runtime.health();
                t.runtime.dispatch_ref(shard as usize, &items);
                let after = t.runtime.health();
                after.shed_items > before.shed_items
            });
            tr.span("durability.frame_encode", |_| {
                encode_frame(shard, client, req_seq, &items, frame);
            });
            let seq = tr
                .span("wal.append", |_| wal.append(frame))
                .expect("shadow wal append");
            tr.span("durability.dedup_admit", |_| {
                dedup.admit(
                    client,
                    DedupEntry {
                        req_seq,
                        accepted: items.len() as u64,
                        wal_seq: seq,
                    },
                );
            });
            tr.span("wal.commit_wait", |_| wal.commit(seq))
                .expect("shadow wal commit");
            let ack = tr.span("proto.ack_encode", |_| {
                Response::Ingested {
                    accepted: items.len() as u64,
                }
                .encode()
            });
            tr.span("proto.ack_decode", |_| Response::decode(&ack))
                .expect("ack decodes");
        });
        self.tr.enter("rtt.ingest");
        self.tr.exit(rtt_ns);

        let kind = t.spec.kind;
        let kernel = self
            .kernels
            .get_mut(kind_prefix(kind))
            .expect("kernel per kind");
        let name = kind_span(kind, "insert");
        self.tr.span(name, |_| kernel.insert_batch(items));
        *self.kernel_items.entry(name).or_default() += items.len() as u64;

        self.ingests += 1;
        if self.ingests.is_multiple_of(SAVE_EVERY) {
            self.save(tenant);
            if kind != SummaryKind::Dyadic {
                let kernel = &self.kernels[kind_prefix(kind)];
                let bytes = self
                    .tr
                    .span("core.algo2.snapshot_encode", |_| kernel.to_bytes());
                self.tr
                    .span("core.algo2.snapshot_decode", |_| {
                        DynSummary::from_bytes(&bytes)
                    })
                    .expect("snapshot round-trips");
            }
        }
    }

    /// Saves `tenant`'s shadow bank through the store, as an eviction or
    /// checkpoint round does.
    fn save(&mut self, tenant: &str) {
        let t = &self.tenants[tenant];
        let _ = t.runtime.flush_timeout(FLUSH_TIMEOUT);
        let bank = BankSnapshot {
            shards: t.runtime.map_summaries(|s| s.to_bytes().to_vec()),
            hwms: vec![0; t.spec.shards as usize],
            dedup: self.dedup.snapshot(),
        };
        let spec = t.spec;
        self.tr
            .span("store.save_tenant", |_| {
                self.store.save_tenant(tenant, &spec, &bank)
            })
            .expect("shadow save");
    }

    /// Notes the serving epoch of a read response (every read, shadowed
    /// or not) and reports whether the server refreshed its view for it.
    pub fn epoch_changed(&mut self, tenant: &str, epoch: u64) -> bool {
        let t = self.tenants.get_mut(tenant).expect("registered tenant");
        let changed = t.last_epoch != Some(epoch);
        t.last_epoch = Some(epoch);
        changed
    }

    /// Replays one read whose real reply was `rsp` and took `rtt_ns`;
    /// `refreshed` says whether the server rebuilt its view for it.
    pub fn read(&mut self, tenant: &str, op: ReadOp, rsp: &Response, rtt_ns: f64, refreshed: bool) {
        let Self { tr, tenants, .. } = self;
        let t = tenants.get_mut(tenant).expect("registered tenant");
        let kind = t.spec.kind;
        tr.span("attr.read", |tr| {
            let bytes = tr.span("proto.read_req_encode", |_| op.request(tenant).encode());
            tr.span("proto.read_req_decode", |_| Request::decode(&bytes))
                .expect("read request decodes");
            if refreshed || t.view.is_none() {
                let view = tr.span("tenant.refresh", |tr| refresh(tr, &t.runtime, kind));
                t.view = Some(view);
            }
            let view = t.view.as_ref().expect("view built");
            match op {
                ReadOp::Query => {
                    tr.span("tenant.report", |_| {
                        view.report()
                            .entries()
                            .iter()
                            .map(|e| (e.item, e.count))
                            .collect::<Vec<_>>()
                    });
                }
                ReadOp::HeavyRanges(phi) => {
                    tr.span("dyadic.heavy_ranges", |_| view.summary().heavy_ranges(phi));
                }
                ReadOp::Range(lo, hi) => {
                    tr.span("dyadic.range_estimate", |_| {
                        view.summary().range_estimate(lo, hi)
                    });
                }
            }
            let out = tr.span("proto.read_rsp_encode", |_| rsp.encode());
            tr.span("proto.read_rsp_decode", |_| Response::decode(&out))
                .expect("response decodes");
        });
        self.tr.enter("rtt.read");
        self.tr.exit(rtt_ns);
        if matches!(op, ReadOp::Query) && kind != SummaryKind::Dyadic {
            // The kernel copy has taken inserts since its last report, so
            // this is the cold report the first read after a write pays.
            let kernel = &self.kernels[kind_prefix(kind)];
            self.tr.span("core.algo2.report", |_| kernel.report());
        }
    }
}

/// A view refresh as the server performs it: flush the shard runtime,
/// clone every shard, merge the clones, freeze the merge.
fn refresh(
    tr: &mut Tracer,
    runtime: &ShardRuntime<DynSummary>,
    kind: SummaryKind,
) -> Frozen<DynSummary> {
    let _ = tr.span("pipeline.flush", |_| runtime.flush_timeout(FLUSH_TIMEOUT));
    let bank = tr.span("tenant.clone", |tr| {
        runtime.map_summaries(|s| tr.span(kind_span(kind, "clone"), |_| s.clone()))
    });
    let merged = tr.span("tenant.merge", |tr| merge(tr, bank, kind));
    tr.span("tenant.freeze", |_| Frozen::new(merged))
}

fn merge(tr: &mut Tracer, bank: Vec<DynSummary>, kind: SummaryKind) -> DynSummary {
    let mut parts = bank.into_iter();
    let mut acc = parts.next().expect("banks are non-empty");
    for part in parts {
        tr.span(kind_span(kind, "merge"), |_| acc.merge_from(&part))
            .expect("shards of one spec merge");
    }
    acc
}

/// Times what recovery reads from a killed store: each tenant's WAL
/// scanned by `hh_wal::replay_dir`, and the store's boot scan. Returns
/// the records the scans found.
pub fn trace_recovery(tr: &mut Tracer, root: &Path, tenants: &[String]) -> Result<u64, String> {
    let store = Store::open(root).map_err(|e| e.to_string())?;
    let mut records = 0;
    tr.span("wal.replay_scan", |_| -> Result<(), String> {
        for name in tenants {
            let replay = hh_wal::replay_dir(&store.wal_dir(name)).map_err(|e| e.to_string())?;
            records += replay.records.len() as u64;
        }
        Ok(())
    })?;
    let boot = tr
        .span("store.load_all", |_| store.load_all())
        .map_err(|e| e.to_string())?;
    if boot.recovered.len() != tenants.len() {
        return Err(format!(
            "boot scan restored {} of {} tenants",
            boot.recovered.len(),
            tenants.len()
        ));
    }
    Ok(records)
}

/// Measures a summary kind's own calls in-process on `batches` (the
/// request shape of the workload that serves that kind), for traced runs
/// whose workload does not serve it.
pub fn probe_kind(
    tr: &mut Tracer,
    kernel_items: &mut BTreeMap<&'static str, u64>,
    spec: TenantSpec,
    batches: &[Vec<u64>],
    ranges: &[(u64, u64)],
) -> Result<(), String> {
    let kind = spec.kind;
    let mut bank = TenantSpec { shards: 2, ..spec }
        .build_bank()
        .map_err(|e| e.to_string())?;
    let insert = kind_span(kind, "insert");
    for (i, batch) in batches.iter().enumerate() {
        let s = &mut bank[i % 2];
        tr.span(insert, |_| s.insert_batch(batch));
        *kernel_items.entry(insert).or_default() += batch.len() as u64;
    }
    let clones: Vec<DynSummary> = bank
        .iter()
        .map(|s| tr.span(kind_span(kind, "clone"), |_| s.clone()))
        .collect();
    let merged = merge(tr, clones, kind);
    if kind == SummaryKind::Dyadic {
        tr.span("dyadic.heavy_ranges", |_| merged.heavy_ranges(spec.phi));
        for &(lo, hi) in ranges {
            tr.span("dyadic.range_estimate", |_| merged.range_estimate(lo, hi));
        }
    } else {
        tr.span("core.algo2.report", |_| merged.report());
        let bytes = tr.span("core.algo2.snapshot_encode", |_| merged.to_bytes());
        tr.span("core.algo2.snapshot_decode", |_| {
            DynSummary::from_bytes(&bytes)
        })
        .map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Times one `Client::ping` round trip.
pub fn ping(tr: &mut Tracer, client: &mut hh_server::Client) -> bool {
    let t0 = Instant::now();
    let ok = client.ping().is_ok();
    tr.enter("conn.ping");
    tr.exit(t0.elapsed().as_nanos() as f64);
    ok
}
