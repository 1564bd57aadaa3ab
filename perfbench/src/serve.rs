//! What every workload shares: generated batch pools, the server
//! configuration, timed set-up, client threads, and kill-and-recover.

use crate::load::Timing;
use crate::oracle::{Truth, Verdict};
use crate::span::Tracer;
use crate::trace::{self, Shadow};
use hh_server::{Client, Endpoint, ProtocolError, Request, Server, ServerConfig, ServerHealth};
use hh_streams::{collect_stream, ExactCounts, ItemSource};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Every how many requests the traced pass shadows one.
pub const TRACE_EVERY: u64 = 4;

/// Every how many operations the traced pass pings.
pub const PING_EVERY: usize = 16;

/// Everything one workload pass needs to know about its run.
pub struct Ctx {
    /// Input seed.
    pub seed: u64,
    /// Nominal length of the timed phase.
    pub seconds: f64,
    /// Scratch directory for this pass (server stores, shadow files).
    pub dir: PathBuf,
    /// The run's wall-clock cap; requests not sent by then fail.
    pub cap: Instant,
    /// Whether this pass shadows requests for the per-layer spans.
    pub traced: bool,
}

impl Ctx {
    /// A shadow for this pass, if it is traced.
    pub fn shadow(&self) -> Result<Option<Mutex<Shadow>>, String> {
        if !self.traced {
            return Ok(None);
        }
        Shadow::new(
            &self.dir.join("shadow"),
            TRACE_EVERY,
            0x5EED_0000 ^ self.seed,
        )
        .map(|s| Some(Mutex::new(s)))
    }
}

/// A pool of generated batches with the exact counts of each; workloads
/// cycle through it so every acked stream has an exact oracle.
pub struct Pool {
    /// The batches, in generation order.
    pub batches: Vec<Vec<u64>>,
    /// Exact counts per batch.
    pub exact: Vec<ExactCounts>,
}

impl Pool {
    /// `count` batches of `len` items drawn from `source`.
    pub fn generate(source: &mut impl ItemSource, seed: u64, count: usize, len: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let batches: Vec<Vec<u64>> = (0..count)
            .map(|_| collect_stream(source, len, &mut rng))
            .collect();
        let exact = batches
            .iter()
            .map(|b| ExactCounts::from_stream(b))
            .collect();
        Self { batches, exact }
    }

    /// The exact counts of a stream that acked batch `b` `acks[b]` times.
    pub fn truth(&self, acks: &[u64]) -> Truth {
        let mut t = Truth::default();
        for (exact, &n) in self.exact.iter().zip(acks) {
            t.add(exact, n);
        }
        t
    }

    /// Exact count of acked items in `[lo, hi]`.
    pub fn range_count(&self, acks: &[u64], lo: u64, hi: u64) -> u64 {
        self.batches
            .iter()
            .zip(acks)
            .map(|(b, &n)| n * b.iter().filter(|&&x| lo <= x && x <= hi).count() as u64)
            .sum()
    }
}

/// Wire bytes per item of an `Ingest` frame carrying `batch`: the encoded
/// request plus its 4-byte length prefix.
pub fn wire_bytes_per_item(batch: &[u64]) -> f64 {
    let req = Request::Ingest {
        tenant: "t00".to_string(),
        shard: 0,
        client: 1,
        req_seq: 1,
        items: batch.to_vec(),
    };
    (req.encode().len() + 4) as f64 / batch.len() as f64
}

/// The production server configuration (`ServerConfig::new`: WAL with
/// 1 ms group commit) with the periodic checkpoint pushed past the run,
/// so replay size does not depend on timing.
pub fn config(root: &Path, memory_budget_bytes: Option<u64>) -> ServerConfig {
    let mut c = ServerConfig::new(root);
    c.checkpoint_every = Duration::from_secs(3_600);
    if let Some(b) = memory_budget_bytes {
        c.memory_budget_bytes = b;
    }
    c
}

/// Starts a server on a loopback port.
pub fn start(config: ServerConfig) -> Result<Server, String> {
    Server::start(config, Endpoint::Tcp(([127, 0, 0, 1], 0).into()))
        .map_err(|e| format!("server start: {e}"))
}

/// Connects a client to `server`.
pub fn connect(server: &Server) -> Result<Client, String> {
    let addr = server.local_addr().ok_or("server has no tcp address")?;
    Client::connect_tcp(addr).map_err(|e| format!("connect: {e}"))
}

/// A running server with the store it serves from.
pub struct Live {
    /// The daemon.
    pub server: Server,
    /// Its store root.
    pub root: PathBuf,
    /// Its memory budget, for restarts.
    pub budget: Option<u64>,
}

/// Sets up `reps` times from scratch (server start, then `prepare`
/// creating and pre-loading the tenants) and keeps the last instance.
/// Returns it with every set-up time in seconds.
pub fn setup(
    ctx: &Ctx,
    reps: usize,
    budget: Option<u64>,
    mut prepare: impl FnMut(&mut Client) -> Result<(), String>,
) -> Result<(Live, Vec<f64>), String> {
    let mut times = Vec::with_capacity(reps);
    for r in 0..reps {
        let root = ctx.dir.join(format!("store-{r}"));
        let t0 = Instant::now();
        let server = start(config(&root, budget))?;
        {
            let mut client = connect(&server)?;
            prepare(&mut client).map_err(|e| format!("set-up: {e}"))?;
        }
        times.push(t0.elapsed().as_secs_f64());
        if r + 1 == reps {
            return Ok((
                Live {
                    server,
                    root,
                    budget,
                },
                times,
            ));
        }
        server.kill();
        let _ = std::fs::remove_dir_all(&root);
    }
    Err("set-up ran zero times".to_string())
}

/// What one client thread saw.
#[derive(Default)]
pub struct ClientLog {
    /// Ingest timings.
    pub ingest: Vec<Timing>,
    /// Read timings.
    pub reads: Vec<Timing>,
    /// `(tenant, epoch)` of every read response.
    pub epochs: Vec<(usize, u64)>,
    /// `acks[tenant][batch]`: acked copies of each pool batch.
    pub acks: BTreeMap<usize, Vec<u64>>,
    /// Items acked.
    pub items: u64,
    /// Requests attempted and failed.
    pub attempted: u64,
    /// Requests that failed.
    pub failed: u64,
    /// Check violations and the first few request errors.
    pub problems: Vec<String>,
    /// Ping spans (traced pass only).
    pub pings: Tracer,
    /// Closed loop: microseconds from each reply to the next send.
    pub gaps_us: Vec<f64>,
}

impl ClientLog {
    /// Records an acked batch `b` of tenant `t` (checking the ack).
    pub fn acked(&mut self, t: usize, b: usize, pool_len: usize, len: usize, accepted: u64) {
        if accepted != len as u64 {
            self.problems.push(format!(
                "tenant {t}: ack accepted {accepted} of a {len}-item batch"
            ));
        }
        self.acks.entry(t).or_insert_with(|| vec![0; pool_len])[b] += 1;
        self.items += accepted;
    }

    /// Records a failed request.
    pub fn error(&mut self, what: &str, e: &ProtocolError) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(format!("{what} failed: {e}"));
        }
    }

    /// Folds another client's log into this one.
    pub fn absorb(&mut self, other: ClientLog) {
        self.ingest.extend(other.ingest);
        self.reads.extend(other.reads);
        self.epochs.extend(other.epochs);
        for (t, acks) in other.acks {
            let mine = self.acks.entry(t).or_insert_with(|| vec![0; acks.len()]);
            for (a, b) in mine.iter_mut().zip(acks) {
                *a += b;
            }
        }
        self.items += other.items;
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.pings.absorb(other.pings);
        self.gaps_us.extend(other.gaps_us);
    }
}

/// Everything a workload pass measured, before it becomes metrics.
#[derive(Default)]
pub struct Outcome {
    /// Set-up times (seconds), one per repetition.
    pub setup_s: Vec<f64>,
    /// Merged client logs of the timed phase and the post-run reads.
    pub log: ClientLog,
    /// Wall time of the timed phase.
    pub timed_s: f64,
    /// CPU time the whole process used in the timed phase.
    pub cpu_s: f64,
    /// Kill, restart and first answer from every tenant.
    pub recovery_s: f64,
    /// Health before and after the timed phase.
    pub health: (ServerHealth, ServerHealth),
    /// Operations the timed phase issued.
    pub ops: u64,
    /// The (ε, φ) checks and their largest error.
    pub verdict: Verdict,
    /// Generator lag samples (microseconds).
    pub gen_lag_us: Vec<f64>,
    /// Wire bytes per ingested item.
    pub wire_bytes_per_item: f64,
    /// Shadow spans (traced pass only).
    pub tracer: Tracer,
    /// Items per kernel-insert span (traced pass only).
    pub kernel_items: BTreeMap<&'static str, u64>,
    /// WAL records the recovery scan found (traced pass only).
    pub replay_records: u64,
    /// Workload parameters for the result record.
    pub params: Vec<(String, String)>,
}

impl Outcome {
    /// Moves a finished shadow's spans into the outcome.
    pub fn take_shadow(&mut self, shadow: Option<Mutex<Shadow>>) {
        if let Some(s) = shadow {
            let s = s
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            self.tracer.absorb(s.tr);
            for (k, v) in s.kernel_items {
                *self.kernel_items.entry(k).or_default() += v;
            }
        }
    }
}

/// A heavy-hitter report as `Query` returns it: `(item, estimate)`.
pub type Entries = Vec<(u64, f64)>;

/// Reads every tenant's report (`Query`), in order.
pub fn reports(client: &mut Client, tenants: &[String]) -> Result<Vec<Entries>, String> {
    tenants
        .iter()
        .map(|t| {
            client
                .query(t)
                .map(|(entries, _)| entries)
                .map_err(|e| format!("query {t}: {e}"))
        })
        .collect()
}

/// Kills the server, then restarts it from its store and times the
/// restart until every tenant has answered a `Query`, `reps` times over
/// (nothing is written in between, so each restart replays the same
/// log); `recovery_s` is the median. Each answer must equal the report
/// read before the kill ("acked means durable"). On a traced pass the
/// killed store's WAL scan and boot scan are timed first.
pub fn kill_and_recover(
    live: Live,
    tenants: &[String],
    before: &[Entries],
    out: &mut Outcome,
    traced: bool,
    reps: usize,
) -> Result<Live, String> {
    let Live {
        mut server,
        root,
        budget,
    } = live;
    let mut times = Vec::with_capacity(reps);
    for rep in 0..reps {
        server.kill();
        if traced && rep == 0 {
            out.replay_records = trace::trace_recovery(&mut out.tracer, &root, tenants)?;
        }
        let t0 = Instant::now();
        server = start(config(&root, budget))?;
        let after = {
            let mut client = connect(&server)?;
            reports(&mut client, tenants)?
        };
        times.push(t0.elapsed().as_secs_f64());
        for ((name, b), a) in tenants.iter().zip(before).zip(&after) {
            if a != b {
                out.verdict.violations.push(format!(
                    "tenant {name}: report after recovery differs from before the kill \
                     ({} vs {} entries)",
                    a.len(),
                    b.len()
                ));
            }
        }
    }
    out.recovery_s = crate::stats::median(&times);
    Ok(Live {
        server,
        root,
        budget,
    })
}

/// Creates `name` and ingests `batches` into it round-robin over its
/// shards, checking every ack.
pub fn create_and_load(
    client: &mut Client,
    name: &str,
    spec: hh_server::TenantSpec,
    batches: &[Vec<u64>],
) -> Result<(), String> {
    client
        .create(name, spec)
        .map_err(|e| format!("create {name}: {e}"))?;
    for (i, b) in batches.iter().enumerate() {
        let shard = (i % spec.shards as usize) as u32;
        let accepted = client
            .ingest(name, shard, b)
            .map_err(|e| format!("pre-load {name}: {e}"))?;
        if accepted != b.len() as u64 {
            return Err(format!(
                "pre-load {name}: ack accepted {accepted} of {}",
                b.len()
            ));
        }
    }
    Ok(())
}

/// CPU seconds (user + system) this process has used so far, all threads
/// included, exited ones too: the client threads and the in-process
/// server alike. Read from `/proc/self/stat` (Linux clock ticks of
/// 1/100 s); NaN where that is unavailable.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return f64::NAN;
    };
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return f64::NAN;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(user), Some(system)) => (user + system) / 100.0,
        _ => f64::NAN,
    }
}

/// Server health over a fresh connection.
pub fn health(server: &Server) -> Result<ServerHealth, String> {
    connect(server)?
        .health()
        .map_err(|e| format!("health: {e}"))
}
