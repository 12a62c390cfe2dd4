//! Session-multiplexed serving: one crypto-cloud S2 worker pool answering many
//! concurrent S1 sessions over a single byte channel.
//!
//! # Why sessions
//!
//! The paper's deployment (§3.2) is a *service*: the primary cloud S1 answers top-k
//! queries for many independent clients, using the crypto cloud S2 as a co-processor.
//! This module serves that workload: a [`MultiplexServer`] owns a pool of S2 worker
//! threads and a registry of per-session state, and every connected
//! [`MultiplexTransport`] is one S1 session ([`MultiplexTransport::private`] gives one
//! session a dedicated single-worker server of its own):
//!
//! ```text
//!   session 1  S1 ──┐                               ┌── worker 1 ──┐
//!   session 2  S1 ──┤   Envelope{session, seq,      ├── worker 2 ──┤   per-session
//!   session 3  S1 ──┼──  frame bytes}  ───────────▶ ├── …          ├─▶ S2Engine
//!      …            │   shared mpsc byte channel    └── worker W ──┘   (keys shared
//!   session N  S1 ──┘                                                   behind Arc)
//!        ▲                                                 │
//!        └──────────── per-session reply channel ◀─────────┘
//! ```
//!
//! # Isolation and determinism
//!
//! Each session owns an [`S2Engine`] of its own (behind a `Mutex`, because any worker
//! may pick up its next request): its leakage ledger, accumulated equality bits, RNG
//! and nonce-pool shards are **per session**, so
//!
//! * ledgers never bleed between sessions — "what did S2 observe while serving client
//!   *i*" stays a well-defined question under concurrency, and
//! * every session's ciphertext stream is a deterministic function of its own seed
//!   ([`sectopk_crypto::pool::shard_seed`] decorrelates the shards), which makes *N*
//!   sessions served concurrently byte-identical to the same *N* sessions served one
//!   after another (asserted by `tests/concurrent_sessions.rs`).
//!
//! The engines share the key material (`S2Keys` is `Arc`-backed, so worker threads
//! share one copy of the moduli and Montgomery contexts), but no mutable state.
//!
//! Because a session's client blocks on [`Transport::round_trip`], at most one request
//! per session is in flight: workers never contend on a session's engine, only on the
//! shared inbox.
//!
//! # Wire envelope
//!
//! Every message on the multiplexed channel is an [`Envelope`]: a fixed 16-byte header
//! (session id and sequence number, both little-endian `u64`) followed by a frame — one
//! tag byte, then the wire-encoded message.  The server echoes the header on the reply,
//! and the transport verifies the echo, so a response can never be attributed to the
//! wrong session or request.  Metering counts the payload only (headers and tags are
//! local framing), which keeps [`crate::channel::ChannelMetrics`] byte-identical across
//! all three transport implementations.
//!
//! # Simulated link
//!
//! A [`LinkProfile`] optionally adds a per-round-trip RTT on the client side, modelling
//! the inter-cloud WAN of §11.2.5 (the paper assumes a 50 Mbps link between S1 and S2).
//! Under a latency-bound link, session multiplexing is what buys aggregate throughput:
//! while one session waits out its RTT, the worker pool serves the others.  The
//! `throughput` bench sweeps exactly this.
//!
//! # Fault tolerance: the session slot lifecycle
//!
//! A session's engine state (ledger, nonce shards, pending equality bits) must survive
//! the *connection* that carries its envelopes — the TCP listener parks a dropped
//! connection's slot and a resuming client reattaches to it:
//!
//! ```text
//!              attach()                    connection drops
//!   (free) ──────────────▶ ACTIVE ─────────────────────────────▶ PARKED
//!                            ▲                                   │    │
//!                            │            reattach()             │    │ TTL expires /
//!                            └───────────────────────────────────┘    │ drain
//!                                    (RESUMED: same slot,             ▼
//!                                     fresh reply channel)         EXPIRED
//!                                                              (DISCONNECT reaps
//!                                                               the slot; id free)
//! ```
//!
//! Exactly-once across the drop is guaranteed by a per-slot **last-reply cache**: every
//! request reply is remembered under its sequence number, and a retried `seq` (the
//! resumed client re-sending the envelope it never saw answered) is served from the
//! cache *without re-executing* — the engine's ledger and nonce streams advance exactly
//! once no matter how many times the frame is delivered.  The strict one-in-flight
//! discipline means a one-deep cache suffices.
//!
//! # Admission control
//!
//! [`PoolLimits`] bounds the pool: `max_sessions` caps the registry, and
//! `session_queue_depth` bounds each session's share of the shared inbox.  Work beyond
//! either bound is *shed* — rejected with a typed
//! [`WireErrorCode::Overloaded`](crate::wire::WireErrorCode) frame before touching any
//! engine state — so overload degrades into clean, retryable refusals instead of
//! unbounded queueing.

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use sectopk_metrics::{Counter, Histogram, Registry as MetricsRegistry};
use serde::{Deserialize, Serialize};

use crate::channel::{ChannelMetrics, Direction};
use crate::engine::S2Engine;
use crate::error::{ProtocolError, Result};
use crate::ledger::LeakageLedger;
use crate::plock::PoisonFree;
use crate::transport::{response_or_error, S1Request, S2Response, Transport, TransportKind};
use crate::wire;
use crate::wire::WireError;

/// Identifier of one S1 session on a multiplexed channel.  Chosen by the serving layer
/// (e.g. densely numbered client connections); must be unique per [`MultiplexServer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct SessionId(pub u64);

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// Bytes of the fixed envelope header: session id + sequence number, both `u64` LE.
pub const ENVELOPE_HEADER_LEN: usize = 16;

/// One message on the multiplexed byte channel: the session id, the sender's sequence
/// number (echoed verbatim on replies), and the tag-plus-payload frame.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Envelope {
    /// Which session this frame belongs to.
    pub session: SessionId,
    /// Request counter within the session; replies echo the request's value.
    pub seq: u64,
    /// Frame bytes: one tag byte (see `frame`) followed by the wire payload.
    pub frame: Vec<u8>,
}

impl Envelope {
    /// Encode header + frame into channel bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(ENVELOPE_HEADER_LEN + self.frame.len());
        out.extend_from_slice(&self.session.0.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&self.frame);
        out
    }

    /// Decode channel bytes back into an envelope.  The frame may be empty only for
    /// control messages that carry no tag; protocol traffic always has at least a tag.
    pub fn decode(bytes: &[u8]) -> Result<Envelope> {
        let Some((session, rest)) = bytes.split_first_chunk::<8>() else {
            return Err(ProtocolError::transport("truncated multiplex envelope"));
        };
        let Some((seq, frame)) = rest.split_first_chunk::<8>() else {
            return Err(ProtocolError::transport("truncated multiplex envelope"));
        };
        Ok(Envelope {
            session: SessionId(u64::from_le_bytes(*session)),
            seq: u64::from_le_bytes(*seq),
            frame: frame.to_vec(),
        })
    }
}

/// Frame tags (one leading tag byte, then the wire-encoded payload): the frame every
/// [`Envelope`] carries, on the multiplexed channel and on the TCP socket alike.
pub(crate) mod frame {
    /// S1 → S2: a protocol request (payload: [`crate::transport::S1Request`]).
    pub const REQUEST: u8 = 0;
    /// S1 → S2: fetch S2's ledger snapshot (control plane, unmetered).
    pub const FETCH_LEDGER: u8 = 1;
    /// S1 → S2: clear S2's ledger and session state (control plane, unmetered).
    pub const RESET: u8 = 2;
    /// S1 → S2: terminate one worker of the S2 pool.
    pub const SHUTDOWN: u8 = 3;
    /// S1 → S2: close one session, dropping its server-side state.
    pub const DISCONNECT: u8 = 4;
    /// S2 → S1: a protocol response (payload: [`crate::transport::S2Response`]).
    pub const RESPONSE: u8 = 16;
    /// S2 → S1: the requested ledger snapshot.
    pub const LEDGER: u8 = 17;
    /// S2 → S1: acknowledgement of a reset.
    pub const RESET_DONE: u8 = 18;
    /// S2 → S1: acknowledgement of a session disconnect.  Makes teardown synchronous,
    /// so a session id can be reused the moment its previous owner is dropped.
    pub const DISCONNECT_DONE: u8 = 19;
}

/// Prefix the wire encoding of `payload` with a frame tag byte.
pub(crate) fn framed<T: Serialize>(tag: u8, payload: &T) -> Vec<u8> {
    let body = wire::to_bytes(payload);
    let mut out = Vec::with_capacity(1 + body.len());
    out.push(tag);
    out.extend_from_slice(&body);
    out
}

/// Characteristics of the simulated S1 ↔ S2 link.  [`LinkProfile::ideal`] (the default)
/// adds nothing; a nonzero RTT makes every protocol round trip cost that much
/// wall-clock on the client side, modelling the WAN between the two clouds.  Metrics
/// and ledgers are unaffected — only latency.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkProfile {
    /// Round-trip time added to every protocol round trip (control traffic excluded).
    pub rtt: Duration,
}

impl LinkProfile {
    /// A zero-latency link (requests cost only their compute).
    pub fn ideal() -> Self {
        Self::default()
    }

    /// A link with the given round-trip time in milliseconds.
    pub fn with_rtt_ms(rtt_ms: u64) -> Self {
        LinkProfile { rtt: Duration::from_millis(rtt_ms) }
    }
}

/// Depth of each session's bounded reply queue.  The protocol is strictly
/// request/reply (a client or gateway bridge holds at most one envelope in flight per
/// session), so the queue never fills in correct operation; the bound is backpressure —
/// a worker facing a stalled session blocks instead of buffering replies without limit.
const REPLY_QUEUE_DEPTH: usize = 2;

/// Default per-session inbox bound (see [`PoolLimits::session_queue_depth`]): one
/// in-flight request, one duplicate from a resumed client's retry, plus slack for
/// control traffic.
const DEFAULT_SESSION_QUEUE_DEPTH: usize = 4;

/// Admission-control bounds of a [`MultiplexServer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PoolLimits {
    /// Maximum number of simultaneously registered sessions (attachment beyond this is
    /// shed with a typed overload rejection).
    pub max_sessions: usize,
    /// Maximum envelopes one session may have waiting in the shared
    /// inbox; submissions beyond it are shed with a
    /// [`WireErrorCode::Overloaded`](crate::wire::WireErrorCode) error frame instead of
    /// queueing without bound.
    pub session_queue_depth: usize,
}

impl Default for PoolLimits {
    fn default() -> Self {
        PoolLimits { max_sessions: usize::MAX, session_queue_depth: DEFAULT_SESSION_QUEUE_DEPTH }
    }
}

/// Pool-wide fault-tolerance counters (monotonic, observability only — never part of
/// the protocol state).
#[derive(Debug, Default)]
struct PoolStats {
    /// Replies served from a session's last-reply cache instead of re-execution.
    replayed: AtomicU64,
    /// Submissions shed because a session exceeded its inbox bound.
    shed: AtomicU64,
    /// Envelopes submitted to the shared inbox and not yet picked up by a worker.
    /// Approximate under teardown (shutdown frames are uncounted, decrements
    /// saturate); used only to sample inbox depth into the metrics histogram.
    pending: AtomicUsize,
}

/// Cached metric handles for the pool-level counters (see [`sectopk_metrics`]).  All
/// handles are no-ops when the server was built without a registry, so the hot path
/// pays one branch per event and the deterministic [`PoolStats`] stay the source of
/// truth either way.
#[derive(Clone, Debug, Default)]
struct PoolMetrics {
    /// Mirrors [`PoolStats::shed`] (`pool.shed`).
    shed: Counter,
    /// Mirrors [`PoolStats::replayed`] (`pool.replayed`).
    replayed: Counter,
    /// Sessions registered through [`MultiplexServer::attach`] (`pool.attached`).
    attached: Counter,
    /// Parked sessions taken over through [`MultiplexServer::reattach`]
    /// (`pool.reattached`).
    reattached: Counter,
    /// Sessions reaped through [`MultiplexServer::evict`] (`pool.evicted`).
    evicted: Counter,
    /// Inbox depth sampled at each submission (`pool.inbox_depth`).
    inbox_depth: Histogram,
}

impl PoolMetrics {
    fn from_registry(registry: &MetricsRegistry) -> Self {
        PoolMetrics {
            shed: registry.counter("pool.shed"),
            replayed: registry.counter("pool.replayed"),
            attached: registry.counter("pool.attached"),
            reattached: registry.counter("pool.reattached"),
            evicted: registry.counter("pool.evicted"),
            inbox_depth: registry.histogram("pool.inbox_depth"),
        }
    }
}

/// Per-session server-side state: the session's own engine (ledger, RNG, pool shards,
/// accumulated equality bits), the bounded channel its replies travel back on, the
/// count of submitted-but-not-yet-picked-up envelopes, and the last-reply cache that
/// makes
/// retried sequence numbers idempotent.
struct SessionSlot {
    /// Unique per *attachment* (not per session id): every inbox message is tagged
    /// with the epoch of the slot it was submitted through, and a worker drops
    /// messages whose epoch disagrees with the registered slot's.  Without this, a
    /// duplicate envelope lingering in the shared inbox past a session's teardown —
    /// e.g. a resumed client's re-send whose original was still queued — could be
    /// routed to a *new* session that re-attached under the same id, executing on the
    /// wrong engine and corrupting its inflight accounting.
    epoch: u64,
    engine: Mutex<S2Engine>,
    /// Swapped by [`MultiplexServer::reattach`] when a resumed connection takes over
    /// the session — the engine and cache survive, only the reply path changes.
    replies: Mutex<mpsc::SyncSender<Vec<u8>>>,
    /// Envelopes submitted through [`SessionConduit::submit`] and not yet answered.
    inflight: AtomicUsize,
    /// `(seq, encoded reply envelope)` of the most recent request reply.  A re-sent
    /// `seq` is answered from here without touching the engine (exactly-once effects).
    last_reply: Mutex<Option<(u64, Vec<u8>)>>,
}

impl SessionSlot {
    /// Send `bytes` down the session's *current* reply channel (best effort: a send
    /// failure means the session's client hung up and the reply is dropped).
    fn send_reply(&self, bytes: Vec<u8>) {
        let replies = self.replies.plock().clone();
        let _ = replies.send(bytes);
    }
}

/// Why a submission was refused by [`SessionConduit::submit`].
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum SubmitError {
    /// The session already has `session_queue_depth` envelopes waiting in the inbox.
    QueueFull,
    /// The server (and its inbox) is gone.
    ServerGone,
}

/// Raw channel endpoints of one registered session: the shared server inbox plus the
/// session's private reply queue.  Gateway bridges (the TCP listener's per-connection
/// threads) forward envelope bytes through these; local in-process clients use the
/// [`MultiplexTransport`] built on the same endpoints by [`MultiplexServer::connect`].
pub(crate) struct SessionConduit {
    pub(crate) to_server: mpsc::Sender<Vec<u8>>,
    pub(crate) from_server: mpsc::Receiver<Vec<u8>>,
    slot: Arc<SessionSlot>,
    queue_depth: usize,
    stats: Arc<PoolStats>,
    metrics: PoolMetrics,
}

impl SessionConduit {
    /// Submit one encoded envelope, enforcing the session's inbox bound.  DISCONNECT
    /// frames must go through [`SessionConduit::disconnect`] instead — teardown is
    /// never shed.
    pub(crate) fn submit(&self, bytes: Vec<u8>) -> std::result::Result<(), SubmitError> {
        let previous = self.slot.inflight.fetch_add(1, Ordering::SeqCst);
        if previous >= self.queue_depth {
            self.slot.inflight.fetch_sub(1, Ordering::SeqCst);
            self.stats.shed.fetch_add(1, Ordering::Relaxed);
            self.metrics.shed.incr();
            return Err(SubmitError::QueueFull);
        }
        self.to_server.send(tag_epoch(self.slot.epoch, &bytes)).map_err(|_| {
            self.slot.inflight.fetch_sub(1, Ordering::SeqCst);
            SubmitError::ServerGone
        })?;
        let depth = self.stats.pending.fetch_add(1, Ordering::Relaxed) + 1;
        self.metrics.inbox_depth.observe(depth as u64);
        Ok(())
    }

    /// Submit a teardown envelope, bypassing the inbox bound (reaping a session frees
    /// capacity and must never be refused for lack of it).
    pub(crate) fn disconnect(&self, bytes: Vec<u8>) -> std::result::Result<(), SubmitError> {
        self.to_server
            .send(tag_epoch(self.slot.epoch, &bytes))
            .map_err(|_| SubmitError::ServerGone)?;
        self.stats.pending.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Prefix an encoded envelope with the epoch of the slot it is being submitted
/// through; [`worker_loop`] strips and checks it (see [`SessionSlot::epoch`]).
fn tag_epoch(epoch: u64, bytes: &[u8]) -> Vec<u8> {
    let mut tagged = Vec::with_capacity(8 + bytes.len());
    tagged.extend_from_slice(&epoch.to_le_bytes());
    tagged.extend_from_slice(bytes);
    tagged
}

type Registry = Arc<Mutex<HashMap<SessionId, Arc<SessionSlot>>>>;

/// The crypto cloud S2 as a multi-session service: a worker-thread pool draining one
/// shared byte channel, routing each [`Envelope`] to its session's engine.
pub struct MultiplexServer {
    inbox: mpsc::Sender<Vec<u8>>,
    registry: Registry,
    workers: Vec<JoinHandle<()>>,
    limits: PoolLimits,
    stats: Arc<PoolStats>,
    metrics: PoolMetrics,
    metrics_registry: MetricsRegistry,
    /// Source of [`SessionSlot::epoch`] values; each attachment gets a fresh one.
    epochs: AtomicU64,
}

impl fmt::Debug for MultiplexServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiplexServer")
            .field("workers", &self.workers.len())
            .field("active_sessions", &self.active_sessions())
            .finish()
    }
}

/// Why [`MultiplexServer::attach`] refused a session (the engine is handed back so the
/// caller can retry without rebuilding it).
#[derive(Debug)]
pub(crate) struct AttachError {
    pub(crate) engine: S2Engine,
    pub(crate) reason: AttachReason,
}

/// Refusal class of an [`AttachError`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum AttachReason {
    /// The session id is already registered.
    InUse,
    /// The session table is at [`PoolLimits::max_sessions`] — a transient overload.
    Full,
}

impl MultiplexServer {
    /// Spawn a server with `workers` S2 worker threads (at least one) and no admission
    /// bounds beyond the [`PoolLimits`] defaults.
    pub fn new(workers: usize) -> Self {
        Self::with_limits(workers, PoolLimits::default())
    }

    /// Spawn a server with `workers` S2 worker threads (at least one) and explicit
    /// admission-control bounds.
    pub fn with_limits(workers: usize, limits: PoolLimits) -> Self {
        Self::with_limits_and_metrics(workers, limits, MetricsRegistry::disabled())
    }

    /// Spawn a server that additionally reports into `metrics_registry` (see
    /// [`sectopk_metrics::Registry`]): pool counters (`pool.shed`, `pool.replayed`,
    /// `pool.attached`, `pool.reattached`, `pool.evicted`), an inbox-depth histogram
    /// (`pool.inbox_depth`), per-worker busy-time histograms
    /// (`pool.worker.{i}.busy_nanos`), and every attached session engine's request
    /// counters.  A disabled registry makes every instrument a no-op; either way the
    /// protocol bytes, ledgers and [`ChannelMetrics`] are unaffected.
    pub fn with_limits_and_metrics(
        workers: usize,
        limits: PoolLimits,
        metrics_registry: MetricsRegistry,
    ) -> Self {
        let workers = workers.max(1);
        let limits = PoolLimits {
            max_sessions: limits.max_sessions.max(1),
            session_queue_depth: limits.session_queue_depth.max(1),
        };
        let (inbox, rx) = mpsc::channel::<Vec<u8>>();
        let shared_rx = Arc::new(Mutex::new(rx));
        let registry: Registry = Arc::new(Mutex::new(HashMap::new()));
        let stats = Arc::new(PoolStats::default());
        let metrics = PoolMetrics::from_registry(&metrics_registry);
        let handles = (0..workers)
            .map(|i| {
                let rx = Arc::clone(&shared_rx);
                let registry = Arc::clone(&registry);
                let stats = Arc::clone(&stats);
                let pool_metrics = metrics.clone();
                let busy = metrics_registry.histogram(&format!("pool.worker.{i}.busy_nanos"));
                std::thread::Builder::new()
                    .name(format!("sectopk-s2-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &registry, &stats, &pool_metrics, &busy))
                    .expect("spawn S2 worker thread")
            })
            .collect();
        MultiplexServer {
            inbox,
            registry,
            workers: handles,
            limits,
            stats,
            metrics,
            metrics_registry,
            epochs: AtomicU64::new(0),
        }
    }

    /// Number of worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Number of currently connected sessions.
    pub fn active_sessions(&self) -> usize {
        self.registry.plock().len()
    }

    /// The admission-control bounds this pool runs under.
    pub fn limits(&self) -> PoolLimits {
        self.limits
    }

    /// Replies served from a session's last-reply cache instead of re-executing the
    /// request — each one is a retry made idempotent.
    pub fn replayed_replies(&self) -> u64 {
        self.stats.replayed.load(Ordering::Relaxed)
    }

    /// Submissions shed because a session exceeded its inbox bound.
    pub fn shed_requests(&self) -> u64 {
        self.stats.shed.load(Ordering::Relaxed)
    }

    /// The metrics registry this pool reports into.  Disabled (all instruments no-ops)
    /// unless the server was built with [`MultiplexServer::with_limits_and_metrics`];
    /// snapshot it at any time with [`sectopk_metrics::Registry::snapshot`].
    pub fn metrics_registry(&self) -> &MetricsRegistry {
        &self.metrics_registry
    }

    /// Register `session` backed by `engine` and hand back the S1-side transport for
    /// it.  The engine carries the session's seed (and thereby its deterministic pool
    /// shards); build it with [`sectopk_crypto::pool::shard_seed`]-derived seeds when
    /// serving many sessions from one base seed.  Fails if the id is already connected
    /// or the session table is full.
    pub fn connect(
        &self,
        session: SessionId,
        engine: S2Engine,
        link: LinkProfile,
    ) -> Result<MultiplexTransport> {
        let conduit = self.attach(session, engine).map_err(|e| match e.reason {
            AttachReason::InUse => {
                ProtocolError::transport_rejected(format!("{session} is already connected"))
            }
            AttachReason::Full => ProtocolError::transport_overloaded(format!(
                "session table full ({} sessions)",
                self.limits.max_sessions
            )),
        })?;
        Ok(MultiplexTransport {
            session,
            seq: 0,
            conduit,
            link,
            metrics: ChannelMetrics::new(),
            private_server: None,
        })
    }

    /// Drop `session`'s slot from the registry immediately — the TCP listener's
    /// reaping path for dead or expired connections.  Safe to call only while no new
    /// attachment of the same id can exist (which holds for every listener call site:
    /// a fresh hello cannot claim an id while it is still registered).  A worker
    /// mid-request on the slot finishes against its own `Arc` and drops the reply.
    pub(crate) fn evict(&self, session: SessionId) {
        if self.registry.plock().remove(&session).is_some() {
            self.metrics.evicted.incr();
        }
    }

    /// Whether `session` is currently registered (active or parked — the pool does not
    /// distinguish; parking is the TCP listener's bookkeeping).
    pub(crate) fn has_session(&self, session: SessionId) -> bool {
        self.registry.plock().contains_key(&session)
    }

    /// Register `session` backed by `engine` and hand back the raw channel endpoints.
    /// On refusal the engine is handed back so the caller can retry under a different
    /// id (the TCP listener's session negotiation does exactly that).
    // The large Err *is* the point: the caller gets its engine back by value instead
    // of rebuilding it, and this is a cold, crate-internal path.
    #[allow(clippy::result_large_err)]
    pub(crate) fn attach(
        &self,
        session: SessionId,
        mut engine: S2Engine,
    ) -> std::result::Result<SessionConduit, AttachError> {
        let (reply_tx, reply_rx) = mpsc::sync_channel::<Vec<u8>>(REPLY_QUEUE_DEPTH);
        let mut registry = self.registry.plock();
        if registry.contains_key(&session) {
            return Err(AttachError { engine, reason: AttachReason::InUse });
        }
        if registry.len() >= self.limits.max_sessions {
            return Err(AttachError { engine, reason: AttachReason::Full });
        }
        // Every engine served by this pool reports into the pool's registry (request
        // counters, compute-time histograms); a disabled registry makes that a no-op.
        engine.set_metrics_registry(&self.metrics_registry);
        self.metrics.attached.incr();
        let slot = Arc::new(SessionSlot {
            epoch: 1 + self.epochs.fetch_add(1, Ordering::Relaxed),
            engine: Mutex::new(engine),
            replies: Mutex::new(reply_tx),
            inflight: AtomicUsize::new(0),
            last_reply: Mutex::new(None),
        });
        registry.insert(session, Arc::clone(&slot));
        Ok(SessionConduit {
            to_server: self.inbox.clone(),
            from_server: reply_rx,
            slot,
            queue_depth: self.limits.session_queue_depth,
            stats: Arc::clone(&self.stats),
            metrics: self.metrics.clone(),
        })
    }

    /// Take over an existing (parked) session: swap in a fresh reply channel and hand
    /// back conduit endpoints for the *same* slot — engine, ledger, nonce shards and
    /// last-reply cache all survive.  Returns `None` when the session is not
    /// registered (it was reaped, e.g. after its park TTL expired).
    pub(crate) fn reattach(&self, session: SessionId) -> Option<SessionConduit> {
        let registry = self.registry.plock();
        let slot = Arc::clone(registry.get(&session)?);
        let (reply_tx, reply_rx) = mpsc::sync_channel::<Vec<u8>>(REPLY_QUEUE_DEPTH);
        *slot.replies.plock() = reply_tx;
        self.metrics.reattached.incr();
        Some(SessionConduit {
            to_server: self.inbox.clone(),
            from_server: reply_rx,
            slot,
            queue_depth: self.limits.session_queue_depth,
            stats: Arc::clone(&self.stats),
            metrics: self.metrics.clone(),
        })
    }

    /// Drop `session`'s cached last reply if the client has already acknowledged it
    /// (`seq <= acked`): a resumed client that saw the reply will never re-send that
    /// sequence number, so the cache can be freed early.
    pub(crate) fn prune_replay(&self, session: SessionId, acked: u64) {
        let slot = {
            let registry = self.registry.plock();
            match registry.get(&session) {
                Some(slot) => Arc::clone(slot),
                None => return,
            }
        };
        let mut cached = slot.last_reply.plock();
        if let Some((seq, _)) = cached.as_ref() {
            if *seq <= acked {
                *cached = None;
            }
        }
    }
}

impl Drop for MultiplexServer {
    fn drop(&mut self) {
        // One shutdown envelope per worker; each worker exits on the first it sees.
        for _ in 0..self.workers.len() {
            let shutdown = Envelope { session: SessionId(0), seq: 0, frame: vec![frame::SHUTDOWN] };
            let _ = self.inbox.send(tag_epoch(0, &shutdown.encode()));
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // Dropping the slots closes every session's reply channel, so a client still
        // blocked on a response sees a clean "server is gone" error instead of a hang.
        self.registry.plock().clear();
    }
}

/// One S2 worker: drain the shared inbox, route each envelope to its session.
fn worker_loop(
    rx: &Mutex<mpsc::Receiver<Vec<u8>>>,
    registry: &Registry,
    stats: &PoolStats,
    metrics: &PoolMetrics,
    busy: &Histogram,
) {
    loop {
        // Hold the inbox lock only for the dequeue, not while processing.
        let incoming = match rx.plock().recv() {
            Ok(bytes) => bytes,
            Err(_) => return, // every transport and the server handle are gone
        };
        // Saturating: shutdown frames bypass the conduits and are never counted in.
        let _ = stats
            .pending
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| Some(v.saturating_sub(1)));
        // Every inbox message is `[8-byte LE slot epoch][encoded envelope]` (see
        // `tag_epoch`); a message whose epoch disagrees with the registered slot is a
        // leftover from a previous life of the session id and must be dropped, not
        // routed — its inflight accounting belongs to the dead slot.
        let Some((epoch_bytes, envelope_bytes)) = incoming.split_first_chunk::<8>() else {
            continue;
        };
        let epoch = u64::from_le_bytes(*epoch_bytes);
        let Ok(envelope) = Envelope::decode(envelope_bytes) else {
            continue; // undecodable channel noise: nothing to route a reply to
        };
        let Some((&tag, payload)) = envelope.frame.split_first() else {
            continue;
        };
        if tag == frame::SHUTDOWN {
            return;
        }
        let slot = {
            let mut registry = registry.plock();
            if tag == frame::DISCONNECT {
                if registry.get(&envelope.session).is_some_and(|slot| slot.epoch == epoch) {
                    if let Some(slot) = registry.remove(&envelope.session) {
                        // Acknowledge so the departing client can block until its id is
                        // actually free for reuse.
                        let ack = Envelope {
                            session: envelope.session,
                            seq: envelope.seq,
                            frame: vec![frame::DISCONNECT_DONE],
                        };
                        slot.send_reply(ack.encode());
                    }
                }
                continue;
            }
            match registry.get(&envelope.session) {
                Some(slot) if slot.epoch == epoch => Arc::clone(slot),
                // Unknown session or a stale epoch (raced with a disconnect, or a
                // duplicate outliving its session's life): nothing to execute.
                _ => continue,
            }
        };
        // Release the inbox slot at pickup, not after the reply: `inflight` counts the
        // session's share of the *queue*.  Releasing after reply delivery would let a
        // compliant one-in-flight client be spuriously shed whenever worker decrements
        // lag behind reply sends; releasing here keeps the shed bound precise — a
        // session only hits it when its submissions genuinely outpace the pool (e.g.
        // its replies back up and block the workers).
        slot.inflight.fetch_sub(1, Ordering::SeqCst);
        let timer = busy.start();
        let mut engine = slot.engine.plock();
        let reply_bytes: Vec<u8> = match tag {
            frame::REQUEST => {
                // Replay check, under the engine lock so the cache and the execution
                // serialize: a re-delivered sequence number (a resumed client
                // re-sending the envelope it never saw answered, or a duplicate still
                // in the inbox) is answered from the cache without touching the
                // engine — ledger and nonce streams advance exactly once.
                let mut cached = slot.last_reply.plock();
                if let Some((_, bytes)) =
                    cached.as_ref().filter(|(seq, _)| envelope.seq != 0 && *seq == envelope.seq)
                {
                    let bytes = bytes.clone();
                    stats.replayed.fetch_add(1, Ordering::Relaxed);
                    metrics.replayed.incr();
                    bytes
                } else {
                    let response = match wire::from_bytes::<S1Request>(payload) {
                        Ok(request) => engine.handle(&request).unwrap_or_else(S2Response::Error),
                        Err(e) => {
                            S2Response::Error(WireError::codec(format!("undecodable request: {e}")))
                        }
                    };
                    let reply = Envelope {
                        session: envelope.session,
                        seq: envelope.seq,
                        frame: framed(frame::RESPONSE, &response),
                    }
                    .encode();
                    if envelope.seq != 0 {
                        *cached = Some((envelope.seq, reply.clone()));
                    }
                    reply
                }
            }
            frame::FETCH_LEDGER => Envelope {
                session: envelope.session,
                seq: envelope.seq,
                frame: framed(frame::LEDGER, engine.ledger()),
            }
            .encode(),
            frame::RESET => {
                engine.reset();
                Envelope {
                    session: envelope.session,
                    seq: envelope.seq,
                    frame: vec![frame::RESET_DONE],
                }
                .encode()
            }
            _ => Envelope {
                session: envelope.session,
                seq: envelope.seq,
                frame: framed(frame::RESPONSE, &S2Response::Error(WireError::unknown_frame(tag))),
            }
            .encode(),
        };
        drop(engine);
        busy.stop(timer);
        // A send failure means the session's client hung up; drop the reply.
        slot.send_reply(reply_bytes);
    }
}

/// The S1 side of one multiplexed session: a [`Transport`] whose frames travel inside
/// session-tagged envelopes to a shared [`MultiplexServer`].
pub struct MultiplexTransport {
    session: SessionId,
    seq: u64,
    conduit: SessionConduit,
    link: LinkProfile,
    metrics: ChannelMetrics,
    /// When the transport was created through [`TransportKind::Multiplex`] rather than
    /// by connecting to an explicit server, it owns a private single-worker server that
    /// must live (and shut down) with it.
    private_server: Option<Box<MultiplexServer>>,
}

impl fmt::Debug for MultiplexTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MultiplexTransport")
            .field("session", &self.session)
            .field("metrics", &self.metrics)
            .finish()
    }
}

impl MultiplexTransport {
    /// A self-contained multiplexed transport: spins up a private single-worker
    /// [`MultiplexServer`] serving only this session.  This is what
    /// `SECTOPK_TRANSPORT=multiplex` uses, so the whole test suite can exercise the
    /// envelope path without managing a server.
    pub fn private(engine: S2Engine, link: LinkProfile) -> Result<Self> {
        let server = MultiplexServer::new(1);
        let mut transport = server.connect(SessionId(1), engine, link)?;
        transport.private_server = Some(Box::new(server));
        Ok(transport)
    }

    /// The session this transport speaks for.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// Ship one frame under sequence number `seq` and wait for the server's reply,
    /// verifying the envelope echo.  Protocol traffic uses the transport's incrementing
    /// counter; control traffic uses the reserved `seq` 0.  Either way the client holds
    /// at most one request in flight, so the blocking receive always pairs correctly.
    ///
    /// `delay` is the simulated link RTT: it runs *between* the send and the receive,
    /// so it overlaps with S2's compute exactly as propagation overlaps with remote
    /// work on a real link.
    fn exchange_with_seq(
        &self,
        seq: u64,
        frame_bytes: Vec<u8>,
        delay: Duration,
    ) -> Result<Envelope> {
        let envelope = Envelope { session: self.session, seq, frame: frame_bytes };
        self.conduit.submit(envelope.encode()).map_err(|e| match e {
            // A compliant client holds one request in flight, so its own submissions
            // are only ever shed under a pathological queue-depth configuration; the
            // typed overload error keeps even that case retryable.
            SubmitError::QueueFull => ProtocolError::Remote(WireError::overloaded(format!(
                "{} inbox full, request shed",
                self.session
            ))),
            SubmitError::ServerGone => ProtocolError::transport_io("multiplex server is gone"),
        })?;
        if !delay.is_zero() {
            std::thread::sleep(delay);
        }
        let incoming = self
            .conduit
            .from_server
            .recv()
            .map_err(|_| ProtocolError::transport_io("multiplex server hung up"))?;
        let reply = Envelope::decode(&incoming)?;
        if reply.session != self.session || reply.seq != seq {
            return Err(ProtocolError::transport(format!(
                "envelope echo mismatch: sent {}#{seq}, got {}#{}",
                self.session, reply.session, reply.seq
            )));
        }
        Ok(reply)
    }

    /// Ship one protocol frame under the next sequence number, over the simulated link.
    fn exchange(&mut self, frame_bytes: Vec<u8>) -> Result<Envelope> {
        self.seq += 1;
        self.exchange_with_seq(self.seq, frame_bytes, self.link.rtt)
    }

    /// One unmetered control-plane exchange (ledger fetch / reset), expecting a reply
    /// frame starting with `expected_reply`.  Control traffic skips the simulated link.
    fn control(&self, tag: u8, expected_reply: u8) -> Result<Vec<u8>> {
        let reply = self.exchange_with_seq(0, vec![tag], Duration::ZERO)?;
        match reply.frame.split_first() {
            Some((&t, payload)) if t == expected_reply => Ok(payload.to_vec()),
            _ => Err(ProtocolError::transport("unexpected control reply from S2")),
        }
    }
}

impl Transport for MultiplexTransport {
    fn round_trip(&mut self, request: S1Request) -> Result<S2Response> {
        let out_frame = framed(frame::REQUEST, &request);
        // Metered size = wire payload only; the tag byte and the 16-byte envelope
        // header are local framing, keeping metrics identical across transports.
        self.metrics.record(Direction::S1ToS2, out_frame.len() - 1, request.ciphertext_count());
        let reply = self.exchange(out_frame)?;
        let payload = match reply.frame.split_first() {
            Some((&frame::RESPONSE, payload)) => payload,
            _ => return Err(ProtocolError::transport("unexpected reply frame from S2")),
        };
        let response: S2Response = wire::from_bytes(payload)
            .map_err(|e| ProtocolError::transport(format!("undecodable response: {e}")))?;
        self.metrics.record(Direction::S2ToS1, payload.len(), response.ciphertext_count());
        response_or_error(response)
    }

    fn metrics(&self) -> ChannelMetrics {
        self.metrics
    }

    fn reset_metrics(&mut self) {
        self.metrics = ChannelMetrics::new();
    }

    fn s2_ledger(&self) -> LeakageLedger {
        // Control traffic is unmetered and skips the simulated link.  A dead server must
        // fail loudly rather than return an empty ledger.
        let payload = self
            .control(frame::FETCH_LEDGER, frame::LEDGER)
            .expect("multiplex server unavailable while fetching the session ledger");
        wire::from_bytes(&payload).expect("undecodable S2 ledger snapshot")
    }

    fn reset_s2(&mut self) {
        self.control(frame::RESET, frame::RESET_DONE)
            .expect("multiplex server unavailable while resetting the session");
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Multiplex
    }

    fn link(&self) -> LinkProfile {
        self.link
    }
}

impl Drop for MultiplexTransport {
    fn drop(&mut self) {
        let disconnect =
            Envelope { session: self.session, seq: self.seq + 1, frame: vec![frame::DISCONNECT] };
        if self.conduit.disconnect(disconnect.encode()).is_ok() {
            // Wait for the ack (or the channel closing) so the session id is free for
            // reuse the moment this drop returns; best effort if the server is gone.
            let _ = self.conduit.from_server.recv();
        }
        // A private server (if any) drops afterwards, joining its worker.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sectopk_crypto::keys::MasterKeys;
    use sectopk_crypto::paillier::{generate_keypair, MIN_MODULUS_BITS};
    use sectopk_crypto::pool::shard_seed;

    use crate::transport::InProcessTransport;

    fn master(seed: u64) -> MasterKeys {
        let mut rng = StdRng::seed_from_u64(seed);
        MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).unwrap()
    }

    fn engine_for(master: &MasterKeys, engine_seed: u64) -> S2Engine {
        let mut rng = StdRng::seed_from_u64(engine_seed ^ 0xABCD);
        let (own_pk, _own_sk) = generate_keypair(MIN_MODULUS_BITS, &mut rng).unwrap();
        S2Engine::new(master.s2_view(), own_pk, engine_seed)
    }

    fn compare_request(master: &MasterKeys, value: i64, rng: &mut StdRng) -> S1Request {
        S1Request::Compare {
            blinded: vec![master.paillier_public.encrypt_i64(value, rng).unwrap()],
            context: "test".into(),
        }
    }

    #[test]
    fn envelope_round_trips_and_rejects_truncation() {
        let envelope =
            Envelope { session: SessionId(77), seq: 12, frame: vec![frame::REQUEST, 1, 2, 3] };
        let bytes = envelope.encode();
        assert_eq!(bytes.len(), ENVELOPE_HEADER_LEN + 4);
        assert_eq!(Envelope::decode(&bytes).unwrap(), envelope);
        assert!(Envelope::decode(&bytes[..ENVELOPE_HEADER_LEN - 1]).is_err());
        // An empty frame decodes (control noise); the worker just skips it.
        let empty = Envelope { session: SessionId(1), seq: 0, frame: vec![] };
        assert_eq!(Envelope::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn multiplexed_session_matches_the_in_process_transport() {
        let master = master(21);
        let server = MultiplexServer::new(2);
        let mut mux =
            server.connect(SessionId(5), engine_for(&master, 99), LinkProfile::ideal()).unwrap();
        let mut reference = InProcessTransport::new(engine_for(&master, 99));

        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        let a = mux.round_trip(compare_request(&master, -4, &mut rng_a)).unwrap();
        let b = reference.round_trip(compare_request(&master, -4, &mut rng_b)).unwrap();
        assert_eq!(a, b, "same engine seed must answer identically");
        assert_eq!(mux.metrics(), reference.metrics(), "metering must be transport-invariant");
        assert_eq!(mux.s2_ledger().events(), reference.s2_ledger().events());
        assert_eq!(mux.kind(), TransportKind::Multiplex);
    }

    #[test]
    fn sessions_are_isolated_and_ledgers_do_not_bleed() {
        let master = master(22);
        let server = MultiplexServer::new(3);
        let mut s1 = server
            .connect(SessionId(1), engine_for(&master, shard_seed(7, 1)), LinkProfile::ideal())
            .unwrap();
        let mut s2 = server
            .connect(SessionId(2), engine_for(&master, shard_seed(7, 2)), LinkProfile::ideal())
            .unwrap();
        assert_eq!(server.active_sessions(), 2);

        let mut rng = StdRng::seed_from_u64(9);
        s1.round_trip(compare_request(&master, 1, &mut rng)).unwrap();
        s1.round_trip(compare_request(&master, -1, &mut rng)).unwrap();
        s2.round_trip(compare_request(&master, 2, &mut rng)).unwrap();

        assert_eq!(s1.s2_ledger().len(), 2, "session 1 observed its own two signs");
        assert_eq!(s2.s2_ledger().len(), 1, "session 2 observed exactly its own sign");
        assert_eq!(s1.metrics().rounds, 2);
        assert_eq!(s2.metrics().rounds, 1);

        // Resetting one session leaves the other's ledger intact.
        s1.reset_s2();
        assert!(s1.s2_ledger().is_empty());
        assert_eq!(s2.s2_ledger().len(), 1);
    }

    #[test]
    fn duplicate_session_ids_are_rejected() {
        let master = master(23);
        let server = MultiplexServer::new(1);
        let _first =
            server.connect(SessionId(9), engine_for(&master, 1), LinkProfile::ideal()).unwrap();
        let err =
            server.connect(SessionId(9), engine_for(&master, 2), LinkProfile::ideal()).unwrap_err();
        assert!(matches!(err, ProtocolError::Transport(_)));
        assert_eq!(server.active_sessions(), 1);
    }

    #[test]
    fn disconnect_frees_the_session_slot() {
        let master = master(24);
        let server = MultiplexServer::new(1);
        {
            let mut t =
                server.connect(SessionId(4), engine_for(&master, 5), LinkProfile::ideal()).unwrap();
            let mut rng = StdRng::seed_from_u64(1);
            t.round_trip(compare_request(&master, 3, &mut rng)).unwrap();
            assert_eq!(server.active_sessions(), 1);
        }
        // Teardown is synchronous (the drop waits for the disconnect ack), so the id is
        // immediately free for reuse.
        assert_eq!(server.active_sessions(), 0);
        let _t =
            server.connect(SessionId(4), engine_for(&master, 6), LinkProfile::ideal()).unwrap();
        assert_eq!(server.active_sessions(), 1);
    }

    #[test]
    fn dropped_server_errors_cleanly() {
        let master = master(25);
        let server = MultiplexServer::new(2);
        let mut t =
            server.connect(SessionId(8), engine_for(&master, 5), LinkProfile::ideal()).unwrap();
        drop(server);
        let mut rng = StdRng::seed_from_u64(2);
        let err = t.round_trip(compare_request(&master, 1, &mut rng)).unwrap_err();
        assert!(matches!(err, ProtocolError::Transport(_)));
    }

    #[test]
    fn private_server_backs_a_self_contained_transport() {
        let master = master(26);
        let mut t =
            MultiplexTransport::private(engine_for(&master, 31), LinkProfile::ideal()).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let response = t.round_trip(compare_request(&master, -2, &mut rng)).unwrap();
        assert_eq!(response, S2Response::Signs(vec![-1]));
        assert_eq!(t.metrics().rounds, 1);
        assert!(!t.s2_ledger().is_empty());
    }

    #[test]
    fn engine_errors_surface_without_killing_the_worker() {
        let master = master(27);
        let server = MultiplexServer::new(1);
        let mut t =
            server.connect(SessionId(3), engine_for(&master, 2), LinkProfile::ideal()).unwrap();
        use crate::transport::EqWants;
        let err = t
            .round_trip(S1Request::EqAggregate { rows: 2, cols: 2, want: EqWants::none() })
            .unwrap_err();
        assert!(matches!(err, ProtocolError::Remote(_)));
        // The single worker survived and still serves requests.
        let mut rng = StdRng::seed_from_u64(5);
        t.round_trip(compare_request(&master, 1, &mut rng)).unwrap();
    }

    #[test]
    fn retried_sequence_is_replayed_from_cache_not_reexecuted() {
        let master = master(31);
        let server = MultiplexServer::new(1);
        let conduit = server.attach(SessionId(6), engine_for(&master, 44)).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let request = compare_request(&master, 5, &mut rng);
        let env =
            Envelope { session: SessionId(6), seq: 1, frame: framed(frame::REQUEST, &request) };
        conduit.submit(env.encode()).unwrap();
        let first = conduit.from_server.recv().unwrap();
        // Deliver the exact same envelope again, as a resumed client's retry would.
        conduit.submit(env.encode()).unwrap();
        let second = conduit.from_server.recv().unwrap();
        assert_eq!(first, second, "replayed reply must be byte-identical");
        assert_eq!(server.replayed_replies(), 1);
        // The engine executed once: the session ledger holds exactly one sign event.
        let ledger_env =
            Envelope { session: SessionId(6), seq: 0, frame: vec![frame::FETCH_LEDGER] };
        conduit.submit(ledger_env.encode()).unwrap();
        let reply = Envelope::decode(&conduit.from_server.recv().unwrap()).unwrap();
        let (tag, payload) = reply.frame.split_first().unwrap();
        assert_eq!(*tag, frame::LEDGER);
        let ledger: LeakageLedger = wire::from_bytes(payload).unwrap();
        assert_eq!(ledger.len(), 1, "the compare must have executed exactly once");
    }

    #[test]
    fn pruned_replay_cache_reexecutes_a_resent_sequence() {
        // prune_replay models the client having ACKed the reply: the cache entry is
        // freed and a (protocol-violating) re-send executes afresh.
        let master = master(33);
        let server = MultiplexServer::new(1);
        let conduit = server.attach(SessionId(2), engine_for(&master, 11)).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let request = compare_request(&master, -7, &mut rng);
        let env =
            Envelope { session: SessionId(2), seq: 1, frame: framed(frame::REQUEST, &request) };
        conduit.submit(env.encode()).unwrap();
        conduit.from_server.recv().unwrap();
        server.prune_replay(SessionId(2), 1);
        conduit.submit(env.encode()).unwrap();
        conduit.from_server.recv().unwrap();
        assert_eq!(server.replayed_replies(), 0, "pruned entry cannot replay");
        // Pruning an unknown session is a no-op.
        server.prune_replay(SessionId(99), 5);
    }

    #[test]
    fn submissions_beyond_the_inbox_bound_are_shed() {
        let master = master(32);
        let server =
            MultiplexServer::with_limits(1, PoolLimits { max_sessions: 8, session_queue_depth: 1 });
        assert_eq!(server.limits().session_queue_depth, 1);
        let conduit = server.attach(SessionId(1), engine_for(&master, 7)).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        // Submit without ever reading replies: once the bounded reply queue fills, the
        // worker blocks mid-reply, the inbox stops draining, and the session's
        // inflight count pins above the bound, so a later submission must be shed.
        let mut shed = false;
        for seq in 1..=10u64 {
            let request = compare_request(&master, seq as i64, &mut rng);
            let env =
                Envelope { session: SessionId(1), seq, frame: framed(frame::REQUEST, &request) };
            match conduit.submit(env.encode()) {
                Ok(()) => {}
                Err(SubmitError::QueueFull) => {
                    shed = true;
                    break;
                }
                Err(SubmitError::ServerGone) => panic!("server vanished"),
            }
        }
        assert!(shed, "the inbox bound must shed before 10 unanswered submissions");
        assert!(server.shed_requests() >= 1);
    }

    #[test]
    fn session_table_full_is_a_typed_retryable_overload() {
        use crate::error::TransportErrorKind;
        let master = master(34);
        let server =
            MultiplexServer::with_limits(1, PoolLimits { max_sessions: 1, ..Default::default() });
        let _a =
            server.connect(SessionId(1), engine_for(&master, 1), LinkProfile::ideal()).unwrap();
        let err =
            server.connect(SessionId(2), engine_for(&master, 2), LinkProfile::ideal()).unwrap_err();
        assert!(err.is_retryable(), "a full session table is transient");
        assert!(
            matches!(&err, ProtocolError::Transport(e) if e.kind == TransportErrorKind::Overloaded),
            "unexpected error {err:?}"
        );
        // A duplicate id is permanent, not an overload.
        let dup =
            server.connect(SessionId(1), engine_for(&master, 3), LinkProfile::ideal()).unwrap_err();
        assert!(!dup.is_retryable());
    }

    #[test]
    fn reattach_preserves_engine_state_and_swaps_the_reply_channel() {
        let master = master(35);
        let server = MultiplexServer::new(1);
        let conduit = server.attach(SessionId(9), engine_for(&master, 21)).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let first = compare_request(&master, 2, &mut rng);
        let env = Envelope { session: SessionId(9), seq: 1, frame: framed(frame::REQUEST, &first) };
        conduit.submit(env.encode()).unwrap();
        conduit.from_server.recv().unwrap();

        // The connection "drops" (conduit kept alive to model a dying bridge); a new
        // conduit takes over the same slot.
        let resumed = server.reattach(SessionId(9)).expect("session is registered");
        let second = compare_request(&master, -3, &mut rng);
        let env =
            Envelope { session: SessionId(9), seq: 2, frame: framed(frame::REQUEST, &second) };
        resumed.submit(env.encode()).unwrap();
        resumed.from_server.recv().unwrap();

        // Both requests landed in the same engine: the ledger saw both signs.
        let ledger_env =
            Envelope { session: SessionId(9), seq: 0, frame: vec![frame::FETCH_LEDGER] };
        resumed.submit(ledger_env.encode()).unwrap();
        let reply = Envelope::decode(&resumed.from_server.recv().unwrap()).unwrap();
        let ledger: LeakageLedger = wire::from_bytes(&reply.frame[1..]).unwrap();
        assert_eq!(ledger.len(), 2, "the resumed slot kept its ledger");

        assert!(server.reattach(SessionId(99)).is_none(), "unknown sessions cannot reattach");
    }

    #[test]
    fn simulated_link_adds_wall_clock_but_not_traffic() {
        let master = master(28);
        let server = MultiplexServer::new(1);
        let mut fast =
            server.connect(SessionId(1), engine_for(&master, 9), LinkProfile::ideal()).unwrap();
        let mut slow = server
            .connect(SessionId(2), engine_for(&master, 9), LinkProfile::with_rtt_ms(30))
            .unwrap();
        let mut rng_a = StdRng::seed_from_u64(6);
        let mut rng_b = StdRng::seed_from_u64(6);
        fast.round_trip(compare_request(&master, 1, &mut rng_a)).unwrap();
        let start = std::time::Instant::now();
        slow.round_trip(compare_request(&master, 1, &mut rng_b)).unwrap();
        assert!(start.elapsed() >= Duration::from_millis(30), "RTT must cost wall-clock");
        assert_eq!(fast.metrics(), slow.metrics(), "the simulated link must not alter metrics");
    }
}
