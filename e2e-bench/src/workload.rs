//! The three workloads, their deterministic inputs, set-up, and the closed-loop query
//! runner.
//!
//! Every workload queries an insurance-shaped relation (`DatasetKind::Insurance`) with
//! M = 4 attributes under s = 5 EHL keys, caps the scan depth, and keeps intra-query
//! workers at the shipped default of 1.  Depths are capped because running a query to
//! NRA halting at these sizes takes minutes; a capped query returns its current top-k
//! estimate, which the plaintext oracle checks exactly.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use sectopk_core::{
    DataOwner, DirectSession, Query, QueryVariant, RemoteSession, Session, TransportKind,
    VariantChoice,
};
use sectopk_datasets::{generate, DatasetKind, DatasetSpec, QueryWorkload, WorkloadSpec};
use sectopk_metrics::{Registry, TraceHook};
use sectopk_protocols::{LinkProfile, SessionId, TcpCloudServer, TwoClouds};
use sectopk_server::{QueryClient, QueryServer};
use sectopk_storage::{EncryptionStats, Relation, SortedLists};

use crate::oracle;
use crate::trace::SpanRecorder;

/// Attributes per relation (M).
pub const ATTRIBUTES: usize = 4;
/// EHL keys (s).
pub const EHL_KEYS: usize = 5;
/// Queries per session in one cycle of a query stream.  A run ends on a cycle
/// boundary, so every run measures the same mix of variants and attribute counts, and
/// the exact counts come from the first cycle alone.
pub const CYCLE: usize = 3;
/// Upper bound on the queries one session may run, whatever the time budget.
const MAX_QUERIES: usize = 3 * 100;

/// How the sessions reach the crypto cloud S2.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// One session over loopback TCP to an S2 listener in this process
    /// (`QueryServer::listen`, the `sectopk-s2d` wire path).
    Tcp,
    /// One session with a private in-process S2.
    InProcess,
    /// Concurrent sessions multiplexed onto a shared `QueryServer` worker pool over a
    /// simulated link with the given round-trip time.
    Served { sessions: usize, s2_workers: usize, rtt_ms: u64 },
}

/// One named workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub modulus_bits: usize,
    pub rows: usize,
    pub depth_cap: usize,
    pub shape: Shape,
}

pub const WORKLOADS: [Workload; 3] = [
    // S1's per-depth homomorphic work dominates.  The N² products are 2048 bits, the
    // bigint Karatsuba path.  Per-depth cost does not depend on n, so n stays small.
    // Queries use m = 2: with m = 3 at this n, objects recur across the first depths of
    // the lists often enough that Qry_E and Qry_Ba round counts swing with the seed.
    Workload { name: "scan-1024", modulus_bits: 1024, rows: 16, depth_cap: 2, shape: Shape::Tcp },
    // Result resolution re-encodes all n objects on every query, and Enc of n·M items
    // is the heaviest set-up: the write path.  In-process, so transport is not on it.
    Workload {
        name: "resolve-n1000",
        modulus_bits: 512,
        rows: 1000,
        depth_cap: 2,
        shape: Shape::InProcess,
    },
    // The only workload where round count, the planner and the shared S2 pool matter:
    // every round pays a 50 ms RTT.
    Workload {
        name: "serve-wan50",
        modulus_bits: 512,
        rows: 64,
        depth_cap: 3,
        shape: Shape::Served { sessions: 2, s2_workers: 2, rtt_ms: 50 },
    },
];

/// SplitMix64 step: derives independent seeds for each input from the run's seed.
pub fn mix(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn sessions(&self) -> usize {
        match self.shape {
            Shape::Served { sessions, .. } => sessions,
            Shape::Tcp | Shape::InProcess => 1,
        }
    }

    pub fn rtt_seconds(&self) -> f64 {
        match self.shape {
            Shape::Served { rtt_ms, .. } => rtt_ms as f64 / 1e3,
            Shape::Tcp | Shape::InProcess => 0.0,
        }
    }

    /// The plaintext relation the data owner outsources.
    pub fn relation(&self, seed: u64) -> Relation {
        let spec =
            DatasetSpec { kind: DatasetKind::Insurance, rows: self.rows, attributes: ATTRIBUTES };
        generate(&spec, mix(seed, 1))
    }

    /// The query stream of session `session`.
    pub fn stream(&self, seed: u64, session: usize) -> Vec<Query> {
        (0..MAX_QUERIES)
            .map(|i| {
                let query_seed = mix(seed, 1000 + (session * MAX_QUERIES + i) as u64);
                let m = 2 + i % CYCLE;
                let (spec, variant) = match self.shape {
                    // m = 2, k = 3; the variant cycles Qry_F → Qry_E → Qry_Ba(p = 2).
                    // SecQuery runs its halting check (and the top-k choice matters)
                    // only once at least k objects are tracked, and 2 lists capped at
                    // 2 depths track at most 4, so k stays below m × cap.
                    Shape::Tcp => {
                        let variant = [
                            QueryVariant::Full,
                            QueryVariant::DupElim,
                            QueryVariant::Batched { p: 2 },
                        ][i % CYCLE];
                        (
                            QueryWorkload::fixed(ATTRIBUTES, 2, 3, query_seed),
                            VariantChoice::Fixed(variant),
                        )
                    }
                    // Qry_E, k = 3 (below m × cap, as above); m cycles 2 → 3 → 4.
                    Shape::InProcess => (
                        QueryWorkload::fixed(ATTRIBUTES, m, 3, query_seed),
                        VariantChoice::Fixed(QueryVariant::DupElim),
                    ),
                    // The planner picks the variant; k ∈ [2, 5] at random and m cycles
                    // 2 → 3 → 4, so every run carries the same attribute-count mix.
                    Shape::Served { .. } => {
                        let spec = WorkloadSpec { queries: 1, m_range: (m, m), k_range: (2, 5) };
                        let generated = QueryWorkload::generate(&spec, ATTRIBUTES, query_seed);
                        (generated.queries[0].clone(), VariantChoice::Auto)
                    }
                };
                Query::from_spec(spec).with_variant(variant).with_max_depth(self.depth_cap)
            })
            .collect()
    }
}

/// Wall-clock seconds of each set-up step.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimings {
    pub keygen_s: f64,
    pub outsource_s: f64,
    /// S2 start plus every session's connect.
    pub connect_s: f64,
}

impl SetupTimings {
    pub fn total(&self) -> f64 {
        self.keygen_s + self.outsource_s + self.connect_s
    }
}

/// One S1 session of a deployment.
pub enum Client {
    Remote(RemoteSession),
    Direct(DirectSession),
    Served(QueryClient),
}

impl Client {
    fn session(&mut self) -> &mut dyn Session {
        match self {
            Client::Remote(s) => s,
            Client::Direct(s) => s,
            Client::Served(s) => s,
        }
    }

    /// The session's two-cloud context, where the program exposes it.
    fn clouds_mut(&mut self) -> Option<&mut TwoClouds> {
        match self {
            Client::Remote(s) => Some(s.clouds_mut()),
            Client::Direct(s) => Some(s.clouds_mut()),
            Client::Served(_) => None,
        }
    }
}

/// A set-up deployment: keys, the outsourced relation, S2 and the connected sessions.
/// Fields drop in order, so sessions close before their listener and server.
pub struct Deployment {
    pub clients: Vec<Client>,
    _listener: Option<TcpCloudServer>,
    _server: Option<QueryServer>,
    pub owner: DataOwner,
    pub storage: EncryptionStats,
    pub timings: SetupTimings,
    pub registry: Registry,
}

impl Deployment {
    /// Set the workload up from scratch: keygen, Enc (`outsource_parallel`), S2 start
    /// and session connect.  With a recorder, the registry is enabled, every step is a
    /// span, and the program's trace hook is installed where a session exposes it.
    pub fn set_up(
        workload: &Workload,
        seed: u64,
        relation: &Relation,
        recorder: Option<&Arc<SpanRecorder>>,
    ) -> Result<Deployment, String> {
        let registry = if recorder.is_some() { Registry::enabled() } else { Registry::disabled() };
        let (owner, keygen_s) = timed(recorder, "setup:keygen", || {
            let mut rng = StdRng::seed_from_u64(mix(seed, 2));
            DataOwner::new(workload.modulus_bits, EHL_KEYS, &mut rng).map_err(|e| e.to_string())
        })?;
        let ((outsourced, storage), outsource_s) = timed(recorder, "setup:outsource", || {
            let mut rng = StdRng::seed_from_u64(mix(seed, 3));
            owner.outsource_parallel(relation, &mut rng).map_err(|e| e.to_string())
        })?;
        let session_seed = |i: usize| mix(seed, 4 + i as u64);
        let ((mut clients, listener, server), connect_s) =
            timed(recorder, "setup:connect", || {
                let mut clients = Vec::new();
                match workload.shape {
                    Shape::Tcp => {
                        let s2 = QueryServer::with_metrics(
                            owner.keys(),
                            outsourced.clone(),
                            1,
                            registry.clone(),
                        );
                        let tcp = s2.listen("127.0.0.1:0").map_err(|e| e.to_string())?;
                        let addr = tcp.local_addr().to_string();
                        let session = owner.connect_remote(&outsourced, &addr, session_seed(0));
                        clients.push(Client::Remote(session.map_err(|e| e.to_string())?));
                        Ok((clients, Some(tcp), Some(s2)))
                    }
                    Shape::InProcess => {
                        let session = owner.connect_with(
                            &outsourced,
                            session_seed(0),
                            TransportKind::InProcess,
                            true,
                        );
                        clients.push(Client::Direct(session.map_err(|e| e.to_string())?));
                        Ok((clients, None, None))
                    }
                    Shape::Served { sessions, s2_workers, rtt_ms } => {
                        let s2 = QueryServer::with_metrics(
                            owner.keys(),
                            outsourced.clone(),
                            s2_workers,
                            registry.clone(),
                        );
                        for i in 0..sessions {
                            let session = s2.open_session_with_workers(
                                SessionId(i as u64 + 1),
                                session_seed(i),
                                true,
                                LinkProfile::with_rtt_ms(rtt_ms),
                                1,
                            );
                            clients.push(Client::Served(session.map_err(|e| e.to_string())?));
                        }
                        Ok((clients, None, Some(s2)))
                    }
                }
            })?;
        if let Some(recorder) = recorder {
            for (i, client) in clients.iter_mut().enumerate() {
                if let Some(clouds) = client.clouds_mut() {
                    clouds.set_metrics(&registry, &(i + 1).to_string());
                    clouds.set_trace_hook(Arc::clone(recorder) as Arc<dyn TraceHook>);
                }
            }
        }
        Ok(Deployment {
            clients,
            _listener: listener,
            _server: server,
            owner,
            storage,
            timings: SetupTimings { keygen_s, outsource_s, connect_s },
            registry,
        })
    }
}

/// Run one set-up step and time it; when tracing, the step is also a span.
fn timed<T>(
    recorder: Option<&Arc<SpanRecorder>>,
    name: &str,
    step: impl FnOnce() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let started = Instant::now();
    let out = match recorder {
        Some(r) => r.span(name, None, step),
        None => step(),
    }?;
    Ok((out, started.elapsed().as_secs_f64()))
}

/// What one executed query produced.
#[derive(Clone, Debug)]
pub struct QueryRecord {
    pub session: usize,
    pub index: usize,
    pub latency_s: f64,
    pub secquery_s: f64,
    pub depth_last_s: f64,
    pub tracked_len: usize,
    pub rounds: u64,
    pub bytes: u64,
    pub variant: &'static str,
    /// (object id, worst, best) of each resolved result.
    pub answer: Vec<(Option<u64>, i64, i64)>,
    /// Why the query errored or failed the oracle.
    pub failure: Option<String>,
}

/// Run every session's query stream in a closed loop (each session sends its next query
/// only after the previous one returned): one cycle, then on until `until` has passed,
/// always finishing the current cycle.  Returns the records and each
/// session's wall time.
pub fn run_queries(
    workload: &Workload,
    deployment: &mut Deployment,
    seed: u64,
    lists: &SortedLists,
    until: Option<Instant>,
    recorder: Option<&SpanRecorder>,
) -> (Vec<QueryRecord>, Vec<f64>) {
    std::thread::scope(|scope| {
        let handles: Vec<_> = deployment
            .clients
            .iter_mut()
            .enumerate()
            .map(|(s, client)| {
                let stream = workload.stream(seed, s);
                scope.spawn(move || {
                    let started = Instant::now();
                    let records = run_session(client, s, &stream, lists, until, recorder);
                    (records, started.elapsed().as_secs_f64())
                })
            })
            .collect();
        let mut records = Vec::new();
        let mut walls = Vec::new();
        for handle in handles {
            let (session_records, wall) = handle.join().expect("a session thread panicked");
            records.extend(session_records);
            walls.push(wall);
        }
        (records, walls)
    })
}

fn run_session(
    client: &mut Client,
    s: usize,
    stream: &[Query],
    lists: &SortedLists,
    until: Option<Instant>,
    recorder: Option<&SpanRecorder>,
) -> Vec<QueryRecord> {
    let mut records = Vec::new();
    for (i, query) in stream.iter().enumerate() {
        let more = i < CYCLE || i % CYCLE != 0 || until.is_some_and(|t| Instant::now() < t);
        if !more {
            break;
        }
        if let (Client::Served(served), true) = (&mut *client, i > 0) {
            // What `QueryServer`'s serving loop does between two queries of a session.
            served.idle_refill();
        }
        let session = client.session();
        let before = session.metrics();
        let started = Instant::now();
        let outcome = match recorder {
            Some(r) => r.span("query", Some(query_id(s, i)), || session.execute(query)),
            None => session.execute(query),
        };
        let latency_s = started.elapsed().as_secs_f64();
        let channel = session.metrics().since(&before);
        let mut record = QueryRecord {
            session: s,
            index: i,
            latency_s,
            secquery_s: 0.0,
            depth_last_s: 0.0,
            tracked_len: 0,
            rounds: channel.rounds,
            bytes: channel.bytes,
            variant: "",
            answer: Vec::new(),
            failure: None,
        };
        match outcome {
            Ok(resolved) => {
                let stats = resolved.stats();
                record.secquery_s = stats.total_seconds;
                record.depth_last_s = stats.per_depth_seconds.last().copied().unwrap_or(0.0);
                record.tracked_len = stats.final_tracked_len;
                record.variant = resolved.plan().map_or("", |p| p.variant_name());
                record.answer = resolved
                    .results
                    .iter()
                    .map(|r| (r.object.map(|o| o.0), r.worst, r.best))
                    .collect();
                record.failure =
                    oracle::check(lists, query.spec(), stats.depths_scanned, &resolved.results)
                        .err();
            }
            Err(e) => record.failure = Some(e.to_string()),
        }
        records.push(record);
    }
    records
}

/// The id a query's span carries: unique across the sessions of one pass.
fn query_id(session: usize, index: usize) -> u64 {
    (session * MAX_QUERIES + index) as u64
}
