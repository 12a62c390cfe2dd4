//! Real-socket transport: the crypto cloud S2 as a networked process.
//!
//! The other three transports keep both clouds in one process; this module makes the
//! §3.2 deployment literal.  A [`TcpCloudServer`] (the `sectopk-s2d` binary) listens on
//! a socket and feeds accepted connections into a [`crate::multiplex::MultiplexServer`]
//! worker pool; a [`TcpTransport`] is the S1 side of one connection, speaking the *same*
//! session-tagged [`Envelope`]s as the multiplexed transport, length-prefix-framed onto
//! the stream:
//!
//! ```text
//!    S1 process                                        S2 process (sectopk-s2d)
//!   ┌──────────────┐   frame = u32 LE length ‖ bytes  ┌────────────────────────────┐
//!   │ TcpTransport │ ───────────────────────────────▶ │ accept loop ─ bridge thread │
//!   │  (one conn = │   bytes = Envelope{session,seq,  │      │ per connection       │
//!   │  one session)│            tag ‖ wire payload}   │      ▼                      │
//!   │              │ ◀─────────────────────────────── │ MultiplexServer worker pool │
//!   └──────────────┘                                  └────────────────────────────┘
//! ```
//!
//! # Connection lifecycle
//!
//! 1. **Connect** with bounded retry and capped, deterministically jittered exponential
//!    backoff ([`TcpOptions`]).
//! 2. **Handshake**: the client sends a `ClientHello` — magic, protocol version
//!    ([`TCP_PROTOCOL_VERSION`]), and either a *fresh* session (a proposed id, 0 = server
//!    assigns, plus the [`EngineProvision`] that boots its S2 engine) or a *resume* of a
//!    parked one (session id, last acknowledged sequence number, resume token).  The
//!    server answers accept (negotiated id + a fresh resume token) or a typed reject.
//! 3. **Serve**: strict request/reply — the bridge thread forwards each envelope to the
//!    worker pool and ships the session's reply back.  At most one frame per connection
//!    is in flight, and the pool's bounded per-session reply queues give
//!    per-connection backpressure.  A session over its inbox bound is answered with a
//!    typed `overloaded` error frame instead of queueing without bound.
//! 4. **Teardown**: the client's `Drop` ships a `DISCONNECT` frame and blocks for the
//!    ack, exactly like the multiplexed transport.
//!
//! # Fault tolerance: the session lifecycle on the server
//!
//! A connection that dies *without* the DISCONNECT handshake (socket error, EOF,
//! cross-session injection) does not destroy its session.  When
//! [`TcpServerConfig::park_ttl`] is non-zero the bridge *parks* it — engine, leakage
//! ledger, nonce streams and last-reply cache stay registered in the pool — and a
//! reconnecting client presents its resume token to take the session over exactly where
//! it left off:
//!
//! ```text
//!              handshake Fresh                dirty socket exit
//!    (free) ──────────────────▶ ACTIVE ─────────────────────────▶ PARKED
//!               ▲                 │  ▲                              │ │
//!               │      DISCONNECT │  │ handshake Resume             │ │ park TTL
//!               │                 ▼  │ (token checked,              │ │ expires /
//!               │              (free)└──────────────────────────────┘ │ drain
//!               │                      replay cache pruned            ▼
//!               └─────────────────────────────────────────────────ᴿᴱᴬᴾᴱᴰ──▶ (free)
//! ```
//!
//! Exactly-once effects across a resume come from the pool's per-session last-reply
//! cache: the client re-sends the one envelope it never saw answered, and if the
//! server had already executed it the cached reply is replayed without touching the
//! engine — the ledgers and nonce streams advance exactly once, and the resumed run is
//! byte-identical to an uninterrupted one.
//!
//! On the client, [`RetryPolicy`] makes the recovery transparent: a retryable
//! transport failure mid-exchange triggers reconnect → resume handshake → re-send of
//! the unacknowledged envelope, under a bounded attempt/deadline budget with capped,
//! jittered backoff.  [`FaultPlan`] injects exactly these failures (severed sockets,
//! delayed replies) on a deterministic schedule, which is what the chaos soak harness
//! drives.
//!
//! # Metering
//!
//! Byte accounting excludes all framing — the 4-byte length prefix, the 16-byte
//! envelope header and the tag byte — so [`ChannelMetrics`] stays byte-identical with
//! the other three transports (asserted by `tests/transport_equivalence.rs`).  A
//! re-sent envelope is a physical retransmit of the same logical exchange and is *not*
//! re-metered.  Errors of the socket itself (timeout, reset, EOF) surface as
//! [`ProtocolError::Transport`] with a typed [`crate::TransportErrorKind`]; a
//! provisioning payload this size is key material, so production deployments would
//! wrap the socket in TLS — the handshake (and its resume token, which is an
//! anti-footgun, not a security boundary) is factored so that swap stays local to
//! this module.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sectopk_crypto::pool::shard_seed;
use sectopk_metrics::{Counter, Histogram as MetricsHistogram, Registry as MetricsRegistry};
use serde::{Deserialize, Serialize};

use crate::channel::{ChannelMetrics, Direction};
use crate::engine::EngineProvision;
use crate::error::{ProtocolError, Result};
use crate::ledger::LeakageLedger;
use crate::multiplex::{
    frame, framed, AttachReason, Envelope, MultiplexServer, SessionConduit, SessionId, SubmitError,
};
use crate::plock::PoisonFree;
use crate::transport::{response_or_error, S1Request, S2Response, Transport, TransportKind};
use crate::wire::{self, WireError};

/// Version of the TCP handshake and framing.  Bumped on any incompatible change; the
/// server rejects hellos carrying a different version.  v2 added session resumption
/// (the `Fresh`/`Resume` hello split, resume tokens, typed reject codes).
pub const TCP_PROTOCOL_VERSION: u64 = 2;

/// Magic string opening every `ClientHello`; lets the server reject a stray client
/// of some other protocol before trying to decode key material.
const TCP_MAGIC: &str = "sectopk";

/// Upper bound on one length-prefixed frame.  Generous for the protocol's largest
/// batched exchanges while turning a corrupted length prefix into a clean transport
/// error instead of an attempted multi-gigabyte allocation.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Session ids the server assigns start here, far above anything clients propose
/// densely, so negotiated and proposed ids never collide by accident.
const ASSIGNED_SESSION_BASE: u64 = 1 << 32;

/// How long a resume handshake waits for the dropped connection's bridge to park the
/// session before concluding someone else holds it.  The old bridge parks as soon as
/// it observes the dead socket, so this is a race-absorbing grace, not a timeout the
/// happy path ever sleeps through.
const RESUME_GRACE: Duration = Duration::from_secs(5);

/// Poll tick of the resume grace loop and of [`TcpCloudServer::drain`].
const POLL_TICK: Duration = Duration::from_millis(5);

/// Tick of the background sweeper that reaps parked sessions past their TTL.
const SWEEP_TICK: Duration = Duration::from_millis(20);

// ====================================================================================
// Length-prefixed framing
// ====================================================================================

/// Write one `u32 LE length ‖ bytes` frame in a single buffer (one syscall in the
/// common case, and no interleaving hazard if a writer is ever shared).
fn write_frame(mut w: impl Write, bytes: &[u8]) -> Result<()> {
    debug_assert!(bytes.len() <= MAX_FRAME_LEN);
    let mut out = Vec::with_capacity(4 + bytes.len());
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
    w.write_all(&out).map_err(|e| ProtocolError::from_io("writing frame", e))?;
    w.flush().map_err(|e| ProtocolError::from_io("flushing frame", e))
}

/// Read one length-prefixed frame.
fn read_frame(mut r: impl Read) -> Result<Vec<u8>> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len).map_err(|e| ProtocolError::from_io("reading frame header", e))?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_FRAME_LEN {
        return Err(ProtocolError::transport(format!(
            "oversized frame: {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf).map_err(|e| ProtocolError::from_io("reading frame body", e))?;
    Ok(buf)
}

// ====================================================================================
// Handshake messages
// ====================================================================================

/// First frame on every connection: identifies the protocol and either provisions a
/// fresh session or resumes a parked one.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct ClientHello {
    /// Must be [`TCP_MAGIC`].
    magic: String,
    /// Must be [`TCP_PROTOCOL_VERSION`].
    version: u64,
    /// What the connection wants from the server.
    kind: HelloKind,
}

/// The two ways a connection can claim a session.
#[derive(Clone, Debug, Serialize, Deserialize)]
enum HelloKind {
    /// Provision a new session.
    Fresh {
        /// Proposed session id; 0 asks the server to assign one.
        session: u64,
        /// Everything the server needs to boot this session's
        /// [`crate::engine::S2Engine`].
        provision: EngineProvision,
    },
    /// Take over a parked session after a dropped connection.
    Resume(ResumeHello),
}

/// Resume claim: which session, how far the client got, and proof it is the same
/// client (the token minted at the previous accept).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
struct ResumeHello {
    /// The session id negotiated by the dropped connection.
    session: u64,
    /// Highest protocol sequence number whose reply the client has seen; the server
    /// prunes the session's replay cache up to it.
    last_acked_seq: u64,
    /// The token the server minted at the previous accept of this session.
    resume_token: u64,
}

/// Why the server refused a `ClientHello`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
enum RejectCode {
    /// Undecodable hello or wrong magic.
    Malformed,
    /// Client speaks a different [`TCP_PROTOCOL_VERSION`].
    VersionMismatch,
    /// The session table (active + parked) is at capacity.  Transient.
    Full,
    /// The server is draining: finishing in-flight sessions, accepting no claims.
    /// Transient from the fleet's point of view (retry against a peer).
    Draining,
    /// Fresh hello proposing an id that is connected, or a resume racing a live
    /// connection that never died.
    SessionInUse,
    /// Resume refused outright: unknown session, expired park TTL, token mismatch,
    /// or another client already claimed it.
    ResumeDenied,
}

/// The server's answer to a `ClientHello`.
#[derive(Clone, Debug, Serialize, Deserialize)]
enum ServerHello {
    /// Connection admitted under the negotiated session id.
    Accept {
        /// The server's protocol version (equals the client's on accept).
        version: u64,
        /// The session id all subsequent envelopes must carry.
        session: u64,
        /// Token a future [`HelloKind::Resume`] of this session must present.
        /// Rotated on every accept, so a stale client cannot hijack a resumed
        /// session.
        resume_token: u64,
    },
    /// Connection refused; the socket closes after this frame.
    Reject {
        /// Machine-readable refusal class.
        code: RejectCode,
        /// Human-readable refusal reason.
        reason: String,
    },
}

/// Map a server rejection onto the typed error taxonomy: capacity refusals are
/// transient (retry), everything else is permanent.
fn rejection_error(peer: SocketAddr, code: RejectCode, reason: &str) -> ProtocolError {
    let message = format!("S2 at {peer} refused the connection: {reason}");
    match code {
        RejectCode::Full | RejectCode::Draining => ProtocolError::transport_overloaded(message),
        _ => ProtocolError::transport_rejected(message),
    }
}

// ====================================================================================
// Client policy: retry, backoff, fault injection
// ====================================================================================

/// Transparent-retry budget of a [`TcpTransport`]: how hard the client works to
/// reconnect, resume its session and re-send the unacknowledged envelope before a
/// retryable failure is surfaced to the caller.
///
/// The default is [`RetryPolicy::none`] — fail fast, exactly the pre-resumption
/// behaviour — so recovery is strictly opt-in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Reconnect attempts per logical exchange before giving up (0 disables retry).
    pub attempts: u32,
    /// Backoff before the first reconnect attempt; doubles per attempt.
    pub backoff: Duration,
    /// Upper bound the exponential backoff saturates at (zero = uncapped).
    pub backoff_cap: Duration,
    /// Wall-clock budget per logical exchange across all its attempts (zero = no
    /// deadline).  Exceeding it surfaces [`crate::TransportErrorKind::Exhausted`].
    pub deadline: Duration,
}

impl RetryPolicy {
    /// No retry: the first transport failure surfaces to the caller.
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 0,
            backoff: Duration::ZERO,
            backoff_cap: Duration::ZERO,
            deadline: Duration::ZERO,
        }
    }

    /// A sensible serving-fleet default: 6 attempts, 10ms → 500ms capped backoff,
    /// 30s overall deadline.
    pub fn standard() -> Self {
        RetryPolicy {
            attempts: 6,
            backoff: Duration::from_millis(10),
            backoff_cap: Duration::from_millis(500),
            deadline: Duration::from_secs(30),
        }
    }

    /// Whether this policy retries at all.
    pub fn is_enabled(&self) -> bool {
        self.attempts > 0
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::none()
    }
}

/// Deterministic fault injection for the chaos harness: the client severs or delays
/// its own connection on a fixed schedule of *logical* protocol frames (control
/// exchanges and retransmits are not counted), so a seeded run injects exactly the
/// same faults every time.
///
/// Faults fire only on the **first** attempt of each logical frame — a retry of the
/// same envelope is never re-faulted — which guarantees forward progress under any
/// enabled [`RetryPolicy`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    /// Every Nth logical frame: sever the connection *before* the request is written
    /// (the server never sees it; the retry re-executes it once).  0 disables.
    pub drop_before_send_every: u64,
    /// Every Nth logical frame: write the request, then sever before reading the
    /// reply (the server executes it; the retry is answered from the replay cache).
    /// 0 disables.
    pub drop_after_send_every: u64,
    /// Every Nth logical frame: sleep [`FaultPlan::delay`] after writing the request,
    /// simulating a stalled link. 0 disables.
    pub delay_every: u64,
    /// The stall injected by [`FaultPlan::delay_every`].
    pub delay: Duration,
}

impl FaultPlan {
    /// No injected faults.
    pub fn none() -> Self {
        FaultPlan {
            drop_before_send_every: 0,
            drop_after_send_every: 0,
            delay_every: 0,
            delay: Duration::ZERO,
        }
    }

    /// Sever the connection before sending every Nth logical frame.
    pub fn with_drop_before_send_every(mut self, every: u64) -> Self {
        self.drop_before_send_every = every;
        self
    }

    /// Sever the connection after sending every Nth logical frame.
    pub fn with_drop_after_send_every(mut self, every: u64) -> Self {
        self.drop_after_send_every = every;
        self
    }

    /// Stall for `delay` after sending every Nth logical frame.
    pub fn with_delay_every(mut self, every: u64, delay: Duration) -> Self {
        self.delay_every = every;
        self.delay = delay;
        self
    }

    /// Whether any fault is scheduled.
    pub fn is_active(&self) -> bool {
        self.drop_before_send_every > 0 || self.drop_after_send_every > 0 || self.delay_every > 0
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::none()
    }
}

/// Exponential backoff for `attempt` (0-based): `base * 2^attempt`, saturated at
/// `cap`, with deterministic jitter in [50%, 100%] drawn from `seed` — seeded runs
/// back off identically, and a fleet sharing a base schedule decorrelates by seed.
///
/// The doubling is computed in saturating 128-bit nanoseconds *before* the cap is
/// applied, so a large `attempt` (or an uncapped policy, `cap == 0`) pins at the
/// representable maximum instead of wrapping around to a tiny delay.
fn backoff_delay(base: Duration, cap: Duration, attempt: u32, seed: u64) -> Duration {
    if base.is_zero() {
        return Duration::ZERO;
    }
    let exponential = base.as_nanos().saturating_mul(1u128 << attempt.min(127));
    let capped = if cap.is_zero() { exponential } else { exponential.min(cap.as_nanos()) };
    // Integer jitter: floor(capped / 100) * percent never overflows (the division
    // comes first) and agrees exactly with the real-valued percentage whenever
    // `capped` is a multiple of 100ns.
    let percent = 50 + shard_seed(seed, u64::from(attempt) + 1) % 51;
    duration_from_nanos_saturating((capped / 100).saturating_mul(u128::from(percent)))
}

/// A `Duration` from 128-bit nanoseconds, pinned at `Duration::MAX` on overflow.
fn duration_from_nanos_saturating(nanos: u128) -> Duration {
    const NANOS_PER_SEC: u128 = 1_000_000_000;
    match u64::try_from(nanos / NANOS_PER_SEC) {
        Ok(secs) => Duration::new(secs, (nanos % NANOS_PER_SEC) as u32),
        Err(_) => Duration::MAX,
    }
}

// ====================================================================================
// Client options
// ====================================================================================

/// Connection policy of a [`TcpTransport`]: bounded connect retry with capped,
/// jittered exponential backoff, socket timeouts, an optional explicit session id,
/// the transparent [`RetryPolicy`], and the chaos harness's [`FaultPlan`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TcpOptions {
    /// Connection attempts before giving up (at least 1).
    pub connect_attempts: u32,
    /// Delay after the first failed attempt; doubles per retry up to
    /// [`TcpOptions::connect_backoff_cap`].
    pub connect_backoff: Duration,
    /// Upper bound the connect backoff saturates at (zero = uncapped).
    pub connect_backoff_cap: Duration,
    /// Seed of the deterministic backoff jitter; 0 derives one from the negotiated
    /// session id, so a fleet of clients decorrelates without configuration.
    pub jitter_seed: u64,
    /// Socket read timeout; a server silent for longer yields
    /// [`ProtocolError::Transport`] with [`crate::TransportErrorKind::Timeout`].
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Session id to propose; `None` lets the server assign one.
    pub session: Option<SessionId>,
    /// Transparent reconnect-resume-resend budget (default: disabled).
    pub retry: RetryPolicy,
    /// Deterministic fault injection (default: none).
    pub faults: FaultPlan,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            connect_attempts: 5,
            connect_backoff: Duration::from_millis(25),
            connect_backoff_cap: Duration::from_secs(1),
            jitter_seed: 0,
            read_timeout: Duration::from_secs(30),
            write_timeout: Duration::from_secs(30),
            session: None,
            retry: RetryPolicy::none(),
            faults: FaultPlan::none(),
        }
    }
}

impl TcpOptions {
    /// Propose an explicit session id instead of letting the server assign one.
    pub fn with_session(mut self, session: SessionId) -> Self {
        self.session = Some(session);
        self
    }

    /// Enable transparent retry under `policy`.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Inject faults on `plan`'s schedule.
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }
}

fn configure_stream(stream: &TcpStream, options: &TcpOptions) -> Result<()> {
    stream.set_nodelay(true).map_err(|e| ProtocolError::from_io("configuring socket", e))?;
    stream
        .set_read_timeout(Some(options.read_timeout))
        .map_err(|e| ProtocolError::from_io("configuring socket", e))?;
    stream
        .set_write_timeout(Some(options.write_timeout))
        .map_err(|e| ProtocolError::from_io("configuring socket", e))
}

// ====================================================================================
// Client transport
// ====================================================================================

/// Cached client-side metric handles (`tcp.client.*`).  All no-ops until
/// [`TcpTransport::set_metrics_registry`] installs an enabled registry; the
/// deterministic fault accounting ([`TcpTransport::faults_absorbed`]) is counted
/// separately and is always on.
#[derive(Clone, Debug, Default)]
struct TcpClientMetrics {
    /// Dial attempts made while recovering a dropped connection
    /// (`tcp.client.connect_attempts`).
    connect_attempts: Counter,
    /// Successful reconnect-resume recoveries (`tcp.client.reconnects`).
    reconnects: Counter,
    /// Shed (typed-overload) replies absorbed by re-submission
    /// (`tcp.client.shed_retries`).
    shed_retries: Counter,
    /// Total nanoseconds slept in recovery backoff (`tcp.client.backoff_nanos`).
    backoff_nanos: Counter,
    /// Encoded envelope bytes per logical exchange (`tcp.client.frame_bytes`).
    frame_bytes: MetricsHistogram,
}

impl TcpClientMetrics {
    fn from_registry(registry: &MetricsRegistry) -> Self {
        TcpClientMetrics {
            connect_attempts: registry.counter("tcp.client.connect_attempts"),
            reconnects: registry.counter("tcp.client.reconnects"),
            shed_retries: registry.counter("tcp.client.shed_retries"),
            backoff_nanos: registry.counter("tcp.client.backoff_nanos"),
            frame_bytes: registry.histogram("tcp.client.frame_bytes"),
        }
    }
}

/// Clamp a [`Duration`] to whole nanoseconds for counter accounting.
fn nanos_u64(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// The S1 side of one TCP connection to a [`TcpCloudServer`]: a [`Transport`] whose
/// envelopes travel length-prefix-framed over a real socket, with opt-in transparent
/// reconnect-resume-resend recovery (see the module docs).
pub struct TcpTransport {
    /// The live socket.  `RefCell` because recovery swaps it mid-exchange from the
    /// `&self` control plane (`s2_ledger` runs through the same retry path).
    stream: RefCell<TcpStream>,
    /// Resolved server addresses, kept for reconnects.
    addrs: Vec<SocketAddr>,
    peer: SocketAddr,
    session: SessionId,
    options: TcpOptions,
    /// Resolved jitter seed ([`TcpOptions::jitter_seed`], or derived from the session
    /// id when left 0).
    jitter_seed: u64,
    /// Token to present when resuming; rotated by the server on every accept.
    resume_token: Cell<u64>,
    seq: u64,
    /// Highest protocol sequence number whose reply we have seen (sent with every
    /// resume so the server can prune its replay cache).
    acked: Cell<u64>,
    /// Logical protocol frames sent, driving the [`FaultPlan`] schedule.
    frames: Cell<u64>,
    /// Successful reconnect-resume recoveries performed so far.
    reconnects: Cell<u64>,
    /// Transport faults absorbed without surfacing to the caller: reconnect-resume
    /// recoveries plus shed requests retried to success.  Always counted (independent
    /// of any metrics registry), so serving reports can split query failures from
    /// faults the retry machinery hid.
    faults_absorbed: Cell<u64>,
    /// Cached `tcp.client.*` metric handles (no-ops until a registry is installed).
    client_metrics: TcpClientMetrics,
    metrics: ChannelMetrics,
    /// Set once teardown (or an unrecoverable socket error) happened, so `Drop` does
    /// not try to disconnect twice or over a dead socket.
    disconnected: Cell<bool>,
    /// When the transport was created through [`TransportKind::Tcp`] rather than by
    /// connecting to an explicit listener, it owns a private loopback server that must
    /// live (and shut down) with it.
    private_server: Option<Box<TcpCloudServer>>,
}

impl fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpTransport")
            .field("peer", &self.peer)
            .field("session", &self.session)
            .field("reconnects", &self.reconnects.get())
            .field("metrics", &self.metrics)
            .finish()
    }
}

impl TcpTransport {
    /// Connect to a [`TcpCloudServer`] at `addr`, retrying with capped jittered
    /// exponential backoff, and run the handshake that provisions this session's S2
    /// engine.
    pub fn connect(
        addr: impl ToSocketAddrs,
        provision: EngineProvision,
        options: TcpOptions,
    ) -> Result<Self> {
        let addrs: Vec<SocketAddr> = addr
            .to_socket_addrs()
            .map_err(|e| ProtocolError::transport(format!("resolving S2 address: {e}")))?
            .collect();
        if addrs.is_empty() {
            return Err(ProtocolError::transport("S2 address resolved to nothing"));
        }
        let stream = Self::connect_with_retry(&addrs, &options)?;
        let peer =
            stream.peer_addr().map_err(|e| ProtocolError::from_io("reading peer address", e))?;
        configure_stream(&stream, &options)?;

        let hello = ClientHello {
            magic: TCP_MAGIC.into(),
            version: TCP_PROTOCOL_VERSION,
            kind: HelloKind::Fresh { session: options.session.map_or(0, |s| s.0), provision },
        };
        let (session, resume_token) = client_handshake(&stream, peer, &hello)?;
        let jitter_seed = if options.jitter_seed != 0 {
            options.jitter_seed
        } else {
            shard_seed(session, 0xBAC0FF)
        };
        Ok(TcpTransport {
            stream: RefCell::new(stream),
            addrs,
            peer,
            session: SessionId(session),
            options,
            jitter_seed,
            resume_token: Cell::new(resume_token),
            seq: 0,
            acked: Cell::new(0),
            frames: Cell::new(0),
            reconnects: Cell::new(0),
            faults_absorbed: Cell::new(0),
            client_metrics: TcpClientMetrics::default(),
            metrics: ChannelMetrics::new(),
            disconnected: Cell::new(false),
            private_server: None,
        })
    }

    /// A self-contained TCP transport: spins up a private single-worker loopback
    /// [`TcpCloudServer`] on an ephemeral port serving only this session.  This is what
    /// `SECTOPK_TRANSPORT=tcp` uses, so the whole test suite can exercise the real
    /// socket path without managing a server process.
    pub fn private(provision: EngineProvision, options: TcpOptions) -> Result<Self> {
        let server = TcpCloudServer::bind("127.0.0.1:0", 1)
            .map_err(|e| ProtocolError::transport(format!("binding loopback S2: {e}")))?;
        let mut transport = Self::connect(server.local_addr(), provision, options)?;
        transport.private_server = Some(Box::new(server));
        Ok(transport)
    }

    fn connect_with_retry(addrs: &[SocketAddr], options: &TcpOptions) -> Result<TcpStream> {
        let attempts = options.connect_attempts.max(1);
        let mut last_error = String::new();
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(backoff_delay(
                    options.connect_backoff,
                    options.connect_backoff_cap,
                    attempt - 1,
                    options.jitter_seed,
                ));
            }
            for addr in addrs {
                match TcpStream::connect(addr) {
                    Ok(stream) => return Ok(stream),
                    Err(e) => last_error = format!("{addr}: {e}"),
                }
            }
        }
        Err(ProtocolError::transport_io(format!(
            "connecting to S2 failed after {attempts} attempts: {last_error}"
        )))
    }

    /// One reconnect attempt (no inner retry — the caller's [`RetryPolicy`] is the
    /// budget): dial, resume-handshake the session, and on accept swap the live
    /// stream.
    fn resume_once(&self) -> Result<()> {
        let mut last_error = String::new();
        let stream = 'dial: {
            for addr in &self.addrs {
                self.client_metrics.connect_attempts.incr();
                match TcpStream::connect(addr) {
                    Ok(stream) => break 'dial stream,
                    Err(e) => last_error = format!("{addr}: {e}"),
                }
            }
            return Err(ProtocolError::transport_io(format!("reconnecting to S2: {last_error}")));
        };
        configure_stream(&stream, &self.options)?;
        let hello = ClientHello {
            magic: TCP_MAGIC.into(),
            version: TCP_PROTOCOL_VERSION,
            kind: HelloKind::Resume(ResumeHello {
                session: self.session.0,
                last_acked_seq: self.acked.get(),
                resume_token: self.resume_token.get(),
            }),
        };
        let (session, resume_token) = client_handshake(&stream, self.peer, &hello)?;
        if session != self.session.0 {
            return Err(ProtocolError::transport(format!(
                "resume handshake returned {session}, expected {}",
                self.session.0
            )));
        }
        self.resume_token.set(resume_token);
        *self.stream.borrow_mut() = stream;
        Ok(())
    }

    /// Burn through the retry budget until one reconnect-resume succeeds.  `attempt`
    /// is shared across the whole logical exchange, so repeated failures of the same
    /// envelope cannot retry forever.
    fn reconnect_and_resume(
        &self,
        attempt: &mut u32,
        started: Instant,
        trigger: ProtocolError,
    ) -> Result<()> {
        let policy = self.options.retry;
        let mut last = trigger;
        while *attempt < policy.attempts {
            if !policy.deadline.is_zero() && started.elapsed() >= policy.deadline {
                return Err(ProtocolError::transport_exhausted(format!(
                    "retry deadline of {:?} exceeded after {} reconnect attempts; last error: {last}",
                    policy.deadline, *attempt
                )));
            }
            let delay =
                backoff_delay(policy.backoff, policy.backoff_cap, *attempt, self.jitter_seed);
            self.client_metrics.backoff_nanos.add(nanos_u64(delay));
            std::thread::sleep(delay);
            *attempt += 1;
            match self.resume_once() {
                Ok(()) => {
                    self.reconnects.set(self.reconnects.get() + 1);
                    self.faults_absorbed.set(self.faults_absorbed.get() + 1);
                    self.client_metrics.reconnects.incr();
                    return Ok(());
                }
                Err(e) if e.is_retryable() => last = e,
                Err(e) => return Err(e),
            }
        }
        Err(ProtocolError::transport_exhausted(format!(
            "gave up after {} reconnect attempts; last error: {last}",
            policy.attempts
        )))
    }

    /// The session id negotiated at connect time.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// The server address this transport is connected to.
    pub fn peer(&self) -> SocketAddr {
        self.peer
    }

    /// Successful transparent reconnect-resume recoveries performed so far.
    pub fn reconnects(&self) -> u64 {
        self.reconnects.get()
    }

    /// Install `tcp.client.*` metric handles from `registry` (see
    /// [`sectopk_metrics::Registry`]).  A disabled registry leaves every instrument a
    /// no-op; either way the protocol bytes and [`ChannelMetrics`] are unaffected.
    pub fn set_metrics_registry(&mut self, registry: &MetricsRegistry) {
        self.client_metrics = TcpClientMetrics::from_registry(registry);
    }

    /// Sever our own socket (fault injection).
    fn sever(&self) {
        let _ = self.stream.borrow().shutdown(Shutdown::Both);
    }

    /// One attempt at shipping `encoded` and reading its reply, injecting scheduled
    /// faults when this is the first attempt of a logical protocol frame.
    fn try_exchange(&self, seq: u64, encoded: &[u8], first_attempt: bool) -> Result<Envelope> {
        let faults = self.options.faults;
        let inject = first_attempt && seq != 0 && faults.is_active();
        let nth = if inject {
            self.frames.set(self.frames.get() + 1);
            self.frames.get()
        } else if first_attempt && seq != 0 {
            self.frames.set(self.frames.get() + 1);
            0
        } else {
            0
        };
        if inject && faults.drop_before_send_every > 0 && nth % faults.drop_before_send_every == 0 {
            self.sever();
            return Err(ProtocolError::transport_io(
                "fault injection: connection severed before send",
            ));
        }
        let stream = self.stream.borrow();
        write_frame(&*stream, encoded)?;
        if inject && faults.drop_after_send_every > 0 && nth % faults.drop_after_send_every == 0 {
            // The request left, the reply is lost: sever and fail without reading (on
            // loopback the kernel may otherwise hand us the reply out of the severed
            // socket's buffer, absorbing the fault).
            let _ = stream.shutdown(Shutdown::Both);
            return Err(ProtocolError::transport_io(
                "fault injection: connection severed after send",
            ));
        }
        if inject && faults.delay_every > 0 && nth % faults.delay_every == 0 {
            std::thread::sleep(faults.delay);
        }
        loop {
            let incoming = read_frame(&*stream)?;
            let reply = Envelope::decode(&incoming)?;
            if reply.session == self.session && reply.seq < seq {
                // A stale replay of an exchange we already acknowledged (possible in
                // the reply queue right after a resume): discard, keep reading.
                continue;
            }
            if reply.session != self.session || reply.seq != seq {
                return Err(ProtocolError::transport(format!(
                    "envelope echo mismatch: sent {}#{seq}, got {}#{}",
                    self.session, reply.session, reply.seq
                )));
            }
            return Ok(reply);
        }
    }

    /// Ship one frame under sequence number `seq` and block for the reply, recovering
    /// from retryable transport failures under the configured [`RetryPolicy`]
    /// (reconnect → resume handshake → re-send this same envelope).
    fn exchange_with_seq(&self, seq: u64, frame_bytes: Vec<u8>) -> Result<Envelope> {
        let envelope = Envelope { session: self.session, seq, frame: frame_bytes };
        let encoded = envelope.encode();
        self.client_metrics.frame_bytes.observe(encoded.len() as u64);
        let started = Instant::now();
        let mut attempt: u32 = 0;
        let mut first_attempt = true;
        loop {
            match self.try_exchange(seq, &encoded, first_attempt) {
                Ok(reply) => {
                    if seq != 0 {
                        self.acked.set(seq);
                    }
                    return Ok(reply);
                }
                Err(e) => {
                    first_attempt = false;
                    if !(e.is_retryable() && self.options.retry.is_enabled()) {
                        self.disconnected.set(true);
                        return Err(e);
                    }
                    if let Err(gave_up) = self.reconnect_and_resume(&mut attempt, started, e) {
                        self.disconnected.set(true);
                        return Err(gave_up);
                    }
                }
            }
        }
    }

    /// One unmetered control-plane exchange (ledger fetch / reset) under the reserved
    /// sequence number 0.
    fn control(&self, tag: u8, expected_reply: u8) -> Result<Vec<u8>> {
        let reply = self.exchange_with_seq(0, vec![tag])?;
        match reply.frame.split_first() {
            Some((&t, payload)) if t == expected_reply => Ok(payload.to_vec()),
            _ => Err(ProtocolError::transport("unexpected control reply from S2")),
        }
    }
}

/// Run one client-side handshake over `stream`; returns the negotiated
/// `(session, resume_token)` on accept.
fn client_handshake(
    stream: &TcpStream,
    peer: SocketAddr,
    hello: &ClientHello,
) -> Result<(u64, u64)> {
    write_frame(stream, &wire::to_bytes(hello))?;
    let reply = read_frame(stream)?;
    let reply: ServerHello = wire::from_bytes(&reply)
        .map_err(|e| ProtocolError::transport(format!("undecodable server hello: {e}")))?;
    match reply {
        ServerHello::Accept { version, session, resume_token } => {
            if version != TCP_PROTOCOL_VERSION {
                return Err(ProtocolError::transport_rejected(format!(
                    "server speaks protocol v{version}, client v{TCP_PROTOCOL_VERSION}"
                )));
            }
            Ok((session, resume_token))
        }
        ServerHello::Reject { code, reason } => Err(rejection_error(peer, code, &reason)),
    }
}

impl Transport for TcpTransport {
    fn round_trip(&mut self, request: S1Request) -> Result<S2Response> {
        let out_frame = framed(frame::REQUEST, &request);
        // Metered size = wire payload only; the tag byte, the 16-byte envelope header
        // and the 4-byte length prefix are framing, keeping metrics identical across
        // all three transports.  Metered exactly once per *logical* exchange: a
        // recovery re-send is a physical retransmit, not new protocol traffic.
        self.metrics.record(Direction::S1ToS2, out_frame.len() - 1, request.ciphertext_count());
        self.seq += 1;
        let seq = self.seq;
        let mut shed_attempt: u32 = 0;
        loop {
            let reply = self.exchange_with_seq(seq, out_frame.clone())?;
            let payload = match reply.frame.split_first() {
                Some((&frame::RESPONSE, payload)) => payload,
                _ => {
                    self.disconnected.set(true);
                    return Err(ProtocolError::transport("unexpected reply frame from S2"));
                }
            };
            let response: S2Response = wire::from_bytes(payload)
                .map_err(|e| ProtocolError::transport(format!("undecodable response: {e}")))?;
            if let S2Response::Error(e) = &response {
                // A shed request (typed overload) was never executed; re-submitting
                // the same sequence number after a backoff is safe and invisible to
                // the caller, up to the retry budget.
                if e.is_retryable() && shed_attempt < self.options.retry.attempts {
                    let delay = backoff_delay(
                        self.options.retry.backoff,
                        self.options.retry.backoff_cap,
                        shed_attempt,
                        self.jitter_seed,
                    );
                    self.client_metrics.backoff_nanos.add(nanos_u64(delay));
                    std::thread::sleep(delay);
                    shed_attempt += 1;
                    self.faults_absorbed.set(self.faults_absorbed.get() + 1);
                    self.client_metrics.shed_retries.incr();
                    continue;
                }
            }
            self.metrics.record(Direction::S2ToS1, payload.len(), response.ciphertext_count());
            return response_or_error(response);
        }
    }

    fn metrics(&self) -> ChannelMetrics {
        self.metrics
    }

    fn reset_metrics(&mut self) {
        self.metrics = ChannelMetrics::new();
    }

    fn s2_ledger(&self) -> LeakageLedger {
        let payload = self
            .control(frame::FETCH_LEDGER, frame::LEDGER)
            .expect("S2 server unavailable while fetching the session ledger");
        wire::from_bytes(&payload).expect("undecodable S2 ledger snapshot")
    }

    fn reset_s2(&mut self) {
        self.control(frame::RESET, frame::RESET_DONE)
            .expect("S2 server unavailable while resetting the session");
    }

    fn kind(&self) -> TransportKind {
        TransportKind::Tcp
    }

    fn faults_absorbed(&self) -> u64 {
        self.faults_absorbed.get()
    }

    fn set_metrics_registry(&mut self, registry: &MetricsRegistry) {
        TcpTransport::set_metrics_registry(self, registry);
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        if !self.disconnected.get() {
            // Graceful teardown: ship DISCONNECT and block for the ack so the session
            // id is free for reuse the moment this drop returns; best effort if the
            // server is already gone.
            let disconnect = Envelope {
                session: self.session,
                seq: self.seq + 1,
                frame: vec![frame::DISCONNECT],
            };
            let stream = self.stream.borrow();
            if write_frame(&*stream, &disconnect.encode()).is_ok() {
                let _ = read_frame(&*stream);
            }
        }
        let _ = self.stream.borrow().shutdown(Shutdown::Both);
        // A private server (if any) drops afterwards, joining its threads.
    }
}

// ====================================================================================
// Server
// ====================================================================================

/// Admission and fault-tolerance policy of a [`TcpCloudServer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpServerConfig {
    /// Maximum concurrently held sessions (active + parked); further fresh hellos are
    /// rejected with a typed `Full`.
    pub max_sessions: usize,
    /// How long a session whose connection died dirty stays parked (engine, ledger
    /// and replay cache intact) awaiting a resume before it is reaped.
    /// `Duration::ZERO` disables parking entirely: a dirty exit reaps immediately,
    /// the pre-resumption behaviour.
    pub park_ttl: Duration,
}

impl Default for TcpServerConfig {
    fn default() -> Self {
        TcpServerConfig { max_sessions: 1024, park_ttl: Duration::from_secs(30) }
    }
}

impl TcpServerConfig {
    /// Set the park TTL (see [`TcpServerConfig::park_ttl`]).
    pub fn with_park_ttl(mut self, ttl: Duration) -> Self {
        self.park_ttl = ttl;
        self
    }

    /// Set the session capacity.
    pub fn with_max_sessions(mut self, max: usize) -> Self {
        self.max_sessions = max.max(1);
        self
    }
}

/// Mint a resume token.  `RandomState` is randomly seeded per process, so tokens are
/// unguessable enough to stop accidental cross-client resumes — the real security
/// boundary is the transport (TLS in production), not this token.
fn mint_token(session: u64, nonce: u64) -> u64 {
    use std::collections::hash_map::RandomState;
    use std::hash::{BuildHasher, Hasher};
    let mut hasher = RandomState::new().build_hasher();
    hasher.write_u64(session);
    hasher.write_u64(nonce);
    hasher.finish() | 1 // never 0, so "no token" is unambiguous
}

/// Cached server-side metric handles (`tcp.server.*`), resolved from the worker
/// pool's registry — see [`MultiplexServer::metrics_registry`].  All no-ops when the
/// pool was built without one.
#[derive(Clone, Debug, Default)]
struct TcpServerMetrics {
    /// Handshakes accepted (fresh and resume) — `tcp.server.accepts`.
    accepts: Counter,
    /// Sessions taken over by a resume handshake — `tcp.server.resumed`.
    resumed: Counter,
    /// Sessions parked after a dirty disconnect — `tcp.server.parked`.
    parked: Counter,
    /// Sessions reaped (TTL expiry, drain, dead socket) — `tcp.server.reaped`.
    reaped: Counter,
    /// Requests answered with a typed overload error — `tcp.server.sheds`.
    sheds: Counter,
    /// Rejected hellos by [`RejectCode`] — `tcp.server.rejects.{code}`.
    reject_full: Counter,
    reject_draining: Counter,
    reject_malformed: Counter,
    reject_version_mismatch: Counter,
    reject_session_in_use: Counter,
    reject_resume_denied: Counter,
}

impl TcpServerMetrics {
    fn from_registry(registry: &MetricsRegistry) -> Self {
        TcpServerMetrics {
            accepts: registry.counter("tcp.server.accepts"),
            resumed: registry.counter("tcp.server.resumed"),
            parked: registry.counter("tcp.server.parked"),
            reaped: registry.counter("tcp.server.reaped"),
            sheds: registry.counter("tcp.server.sheds"),
            reject_full: registry.counter("tcp.server.rejects.full"),
            reject_draining: registry.counter("tcp.server.rejects.draining"),
            reject_malformed: registry.counter("tcp.server.rejects.malformed"),
            reject_version_mismatch: registry.counter("tcp.server.rejects.version_mismatch"),
            reject_session_in_use: registry.counter("tcp.server.rejects.session_in_use"),
            reject_resume_denied: registry.counter("tcp.server.rejects.resume_denied"),
        }
    }

    fn reject(&self, code: RejectCode) -> &Counter {
        match code {
            RejectCode::Full => &self.reject_full,
            RejectCode::Draining => &self.reject_draining,
            RejectCode::Malformed => &self.reject_malformed,
            RejectCode::VersionMismatch => &self.reject_version_mismatch,
            RejectCode::SessionInUse => &self.reject_session_in_use,
            RejectCode::ResumeDenied => &self.reject_resume_denied,
        }
    }
}

/// Everything the accept loop, bridges and sweeper share.
struct Shared {
    pool: Arc<MultiplexServer>,
    config: TcpServerConfig,
    /// Session id → the live connection's stream (a `try_clone`), so the server can
    /// sever one session ([`TcpCloudServer::drop_session`]) or all of them on
    /// shutdown.
    streams: Mutex<HashMap<u64, TcpStream>>,
    /// Sessions whose connection died dirty, awaiting resume until the deadline.
    parked: Mutex<HashMap<u64, Instant>>,
    /// Current resume token of every held session (active or parked).
    tokens: Mutex<HashMap<u64, u64>>,
    /// Draining: reject every hello, finish in-flight work, park nothing.
    draining: AtomicBool,
    /// Hard shutdown (server drop): stops the accept loop and the sweeper.
    shutdown: AtomicBool,
    /// Sessions successfully taken over by a resume handshake.
    resumed: AtomicU64,
    /// Next server-assigned session id.
    next_session: AtomicU64,
    /// Nonce feed for token minting.
    token_nonce: AtomicU64,
    /// Cached `tcp.server.*` metric handles (no-ops when the pool has no registry).
    metrics: TcpServerMetrics,
}

impl Shared {
    fn reap(&self, session: SessionId) {
        self.tokens.plock().remove(&session.0);
        reap_session(&self.pool, session);
        self.metrics.reaped.incr();
    }
}

/// The crypto cloud S2 as a network listener: an accept loop feeding per-connection
/// bridge threads into a shared [`MultiplexServer`] worker pool, plus a background
/// sweeper reaping parked sessions past their TTL.  This is the engine of the
/// `sectopk-s2d` binary; tests bind it on a loopback ephemeral port.
pub struct TcpCloudServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    sweeper_thread: Option<JoinHandle<()>>,
    bridge_threads: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl fmt::Debug for TcpCloudServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TcpCloudServer")
            .field("local_addr", &self.local_addr)
            .field("workers", &self.shared.pool.workers())
            .field("active_sessions", &self.active_sessions())
            .field("parked_sessions", &self.parked_sessions())
            .finish()
    }
}

impl TcpCloudServer {
    /// Bind a listener at `addr` with its own `workers`-thread S2 pool and default
    /// admission policy.  `"127.0.0.1:0"` binds an ephemeral loopback port (read it
    /// back with [`Self::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs, workers: usize) -> std::io::Result<Self> {
        Self::serve_pool(addr, Arc::new(MultiplexServer::new(workers)), TcpServerConfig::default())
    }

    /// Bind a listener at `addr` feeding an existing (possibly shared) worker pool —
    /// the path `QueryServer::listen` uses so networked and in-process sessions are
    /// served by the same S2 workers.
    pub fn serve_pool(
        addr: impl ToSocketAddrs,
        pool: Arc<MultiplexServer>,
        config: TcpServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        // The listener reports into the same registry as the worker pool it feeds, so
        // one snapshot covers the whole serving stack; a pool built without a registry
        // makes every handle a no-op.
        let metrics = TcpServerMetrics::from_registry(pool.metrics_registry());
        let shared = Arc::new(Shared {
            pool,
            config,
            streams: Mutex::new(HashMap::new()),
            parked: Mutex::new(HashMap::new()),
            tokens: Mutex::new(HashMap::new()),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            resumed: AtomicU64::new(0),
            next_session: AtomicU64::new(ASSIGNED_SESSION_BASE),
            token_nonce: AtomicU64::new(1),
            metrics,
        });
        let bridge_threads = Arc::new(Mutex::new(Vec::new()));

        let accept_thread = {
            let shared = Arc::clone(&shared);
            let bridge_threads = Arc::clone(&bridge_threads);
            std::thread::Builder::new()
                .name("sectopk-s2d-accept".into())
                .spawn(move || accept_loop(&listener, &shared, &bridge_threads))
                .expect("spawn accept thread")
        };
        let sweeper_thread = if config.park_ttl.is_zero() {
            None
        } else {
            let shared = Arc::clone(&shared);
            Some(
                std::thread::Builder::new()
                    .name("sectopk-s2d-sweeper".into())
                    .spawn(move || sweeper_loop(&shared))
                    .expect("spawn sweeper thread"),
            )
        };
        Ok(TcpCloudServer {
            local_addr,
            shared,
            accept_thread: Some(accept_thread),
            sweeper_thread,
            bridge_threads,
        })
    }

    /// The bound listening address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The worker pool serving this listener's sessions.
    pub fn pool(&self) -> &Arc<MultiplexServer> {
        &self.shared.pool
    }

    /// The admission policy this listener runs under.
    pub fn config(&self) -> TcpServerConfig {
        self.shared.config
    }

    /// Number of currently connected TCP sessions.
    pub fn active_sessions(&self) -> usize {
        self.shared.streams.plock().len()
    }

    /// Number of sessions parked after a dirty disconnect, awaiting resume.
    pub fn parked_sessions(&self) -> usize {
        self.shared.parked.plock().len()
    }

    /// Number of sessions successfully taken over by a resume handshake so far.
    pub fn resumed_sessions(&self) -> u64 {
        self.shared.resumed.load(Ordering::Relaxed)
    }

    /// Whether the server is draining (rejecting every new hello).
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Failure injection: sever the socket of `session` mid-flight, as a crashed
    /// client or cut link would.  The bridge thread observes the dead socket and
    /// parks (or, with a zero [`TcpServerConfig::park_ttl`], reaps) the session;
    /// clean neighbours are unaffected.  Returns whether the session was connected.
    pub fn drop_session(&self, session: SessionId) -> bool {
        let streams = self.shared.streams.plock();
        match streams.get(&session.0) {
            Some(stream) => {
                let _ = stream.shutdown(Shutdown::Both);
                true
            }
            None => false,
        }
    }

    /// Drain-then-exit support: stop admitting hellos (fresh *and* resume), reap every
    /// parked session immediately, give in-flight connections up to `grace` to finish
    /// their current exchanges and disconnect, then sever the stragglers.  The server
    /// object stays alive (its `Drop` completes shutdown); this just quiesces it.
    pub fn drain(&self, grace: Duration) {
        self.shared.draining.store(true, Ordering::SeqCst);
        let parked: Vec<u64> = {
            let mut parked = self.shared.parked.plock();
            parked.drain().map(|(session, _)| session).collect()
        };
        for session in parked {
            self.shared.reap(SessionId(session));
        }
        let started = Instant::now();
        while started.elapsed() < grace {
            if self.shared.streams.plock().is_empty() {
                return;
            }
            std::thread::sleep(POLL_TICK);
        }
        for stream in self.shared.streams.plock().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for TcpCloudServer {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.draining.store(true, Ordering::SeqCst);
        // Reap every parked session so the pool releases their engines.
        let parked: Vec<u64> = {
            let mut parked = self.shared.parked.plock();
            parked.drain().map(|(session, _)| session).collect()
        };
        for session in parked {
            self.shared.reap(SessionId(session));
        }
        // Sever every live connection; bridges observe the dead sockets and reap
        // (draining is set, so nothing re-parks).
        for stream in self.shared.streams.plock().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
        if let Some(handle) = self.sweeper_thread.take() {
            let _ = handle.join();
        }
        let bridges: Vec<JoinHandle<()>> = std::mem::take(&mut *self.bridge_threads.plock());
        for handle in bridges {
            let _ = handle.join();
        }
        // The pool itself (if privately owned) drops afterwards, joining its workers.
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    bridge_threads: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let (stream, _) = match listener.accept() {
            Ok(accepted) => accepted,
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutdown.load(Ordering::SeqCst) {
            return; // the wake-up connection (or anything racing it)
        }
        let shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("sectopk-s2d-conn".into())
            .spawn(move || serve_connection(stream, &shared));
        match spawned {
            Ok(handle) => bridge_threads.plock().push(handle),
            // Thread exhaustion: dropping the stream resets the connection, and a
            // well-behaved client retries under its policy.  The listener survives.
            Err(_) => continue,
        }
    }
}

/// Reap parked sessions whose TTL expired, freeing their ids and engines.
fn sweeper_loop(shared: &Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(SWEEP_TICK);
        let now = Instant::now();
        let expired: Vec<u64> = shared
            .parked
            .plock()
            .iter()
            .filter(|(_, deadline)| **deadline <= now)
            .map(|(session, _)| *session)
            .collect();
        for session in expired {
            if shared.parked.plock().remove(&session).is_some() {
                shared.reap(SessionId(session));
            }
        }
    }
}

/// Run the handshake, then bridge envelopes between one socket and the worker pool.
fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) {
    if stream.set_nodelay(true).is_err() {
        return;
    }
    let reject = |code: RejectCode, reason: &str| {
        shared.metrics.reject(code).incr();
        let hello = ServerHello::Reject { code, reason: reason.into() };
        let _ = write_frame(&stream, &wire::to_bytes(&hello));
    };

    // --- Handshake -----------------------------------------------------------------
    let Ok(hello_bytes) = read_frame(&stream) else { return };
    let Ok(hello) = wire::from_bytes::<ClientHello>(&hello_bytes) else {
        reject(RejectCode::Malformed, "undecodable hello");
        return;
    };
    if hello.magic != TCP_MAGIC {
        reject(RejectCode::Malformed, "bad magic");
        return;
    }
    if hello.version != TCP_PROTOCOL_VERSION {
        reject(
            RejectCode::VersionMismatch,
            &format!(
                "protocol version mismatch: client v{}, server v{TCP_PROTOCOL_VERSION}",
                hello.version
            ),
        );
        return;
    }
    if shared.draining.load(Ordering::SeqCst) {
        reject(RejectCode::Draining, "server is draining");
        return;
    }

    let (session, conduit) = match hello.kind {
        HelloKind::Fresh { session, provision } => {
            match admit_fresh(shared, session, provision, &reject) {
                Some(admitted) => admitted,
                None => return,
            }
        }
        HelloKind::Resume(resume) => match admit_resume(shared, resume, &reject) {
            Some(admitted) => admitted,
            None => return,
        },
    };

    // Mint (or rotate) this session's resume token and register the live stream
    // before accepting, so drop_session / shutdown can always reach it.
    let token = mint_token(session.0, shared.token_nonce.fetch_add(1, Ordering::Relaxed));
    shared.tokens.plock().insert(session.0, token);
    {
        let mut streams = shared.streams.plock();
        match stream.try_clone() {
            Ok(clone) => {
                streams.insert(session.0, clone);
            }
            Err(_) => {
                drop(streams);
                shared.reap(session);
                return;
            }
        }
    }
    let accept = ServerHello::Accept {
        version: TCP_PROTOCOL_VERSION,
        session: session.0,
        resume_token: token,
    };
    if write_frame(&stream, &wire::to_bytes(&accept)).is_err() {
        shared.streams.plock().remove(&session.0);
        shared.reap(session);
        return;
    }
    shared.metrics.accepts.incr();

    bridge_loop(&stream, shared, session, &conduit);
}

/// Admit a fresh hello: capacity check, engine build, pool attach (with server-side id
/// assignment when the client proposed none).
fn admit_fresh(
    shared: &Shared,
    proposed: u64,
    provision: EngineProvision,
    reject: &dyn Fn(RejectCode, &str),
) -> Option<(SessionId, SessionConduit)> {
    let held = shared.streams.plock().len() + shared.parked.plock().len();
    if held >= shared.config.max_sessions {
        reject(RejectCode::Full, "server full");
        return None;
    }
    // The engine's intra-query worker count comes from SECTOPK_INTRA_PARALLEL in the
    // *server* process's environment (the provision wire format carries no worker
    // knob: worker count is a local resource decision, never protocol state).
    let mut engine = provision.build();
    if proposed != 0 {
        match shared.pool.attach(SessionId(proposed), engine) {
            Ok(conduit) => Some((SessionId(proposed), conduit)),
            Err(e) => {
                match e.reason {
                    AttachReason::InUse => reject(
                        RejectCode::SessionInUse,
                        &format!("session id {proposed} is already connected"),
                    ),
                    AttachReason::Full => reject(RejectCode::Full, "server full"),
                }
                None
            }
        }
    } else {
        loop {
            let candidate = SessionId(shared.next_session.fetch_add(1, Ordering::SeqCst));
            match shared.pool.attach(candidate, engine) {
                Ok(conduit) => return Some((candidate, conduit)),
                Err(e) if e.reason == AttachReason::InUse => engine = e.engine,
                Err(_) => {
                    reject(RejectCode::Full, "server full");
                    return None;
                }
            }
        }
    }
}

/// Admit a resume hello: verify the token, wait (briefly) for the dropped
/// connection's bridge to park the session, claim it, reattach to the pool and prune
/// the replay cache up to the client's acknowledged sequence number.
fn admit_resume(
    shared: &Shared,
    resume: ResumeHello,
    reject: &dyn Fn(RejectCode, &str),
) -> Option<(SessionId, SessionConduit)> {
    let session = SessionId(resume.session);
    let started = Instant::now();
    let claimed = loop {
        match shared.tokens.plock().get(&resume.session) {
            None => {
                reject(RejectCode::ResumeDenied, "unknown or expired session");
                return None;
            }
            Some(token) if *token != resume.resume_token => {
                reject(RejectCode::ResumeDenied, "resume token mismatch");
                return None;
            }
            Some(_) => {}
        }
        if shared.parked.plock().remove(&resume.session).is_some() {
            break true;
        }
        if !shared.streams.plock().contains_key(&resume.session)
            && !shared.pool.has_session(session)
        {
            // Not live, not parked, not in the pool: it was reaped between our token
            // check and now.
            reject(RejectCode::ResumeDenied, "session was reaped");
            return None;
        }
        if started.elapsed() >= RESUME_GRACE {
            break false;
        }
        // The old bridge is still on its way out (or genuinely alive): give it a tick.
        std::thread::sleep(POLL_TICK);
    };
    if !claimed {
        if shared.streams.plock().contains_key(&resume.session) {
            reject(RejectCode::SessionInUse, "session is still connected");
        } else {
            reject(RejectCode::ResumeDenied, "session was not parked");
        }
        return None;
    }
    let Some(conduit) = shared.pool.reattach(session) else {
        reject(RejectCode::ResumeDenied, "session engine is gone");
        return None;
    };
    shared.pool.prune_replay(session, resume.last_acked_seq);
    shared.resumed.fetch_add(1, Ordering::Relaxed);
    shared.metrics.resumed.incr();
    Some((session, conduit))
}

/// Bridge envelopes between one accepted socket and the worker pool until the
/// connection ends, then park or reap the session.
fn bridge_loop(
    stream: &TcpStream,
    shared: &Arc<Shared>,
    session: SessionId,
    conduit: &SessionConduit,
) {
    // Strict request/reply: at most one envelope of this connection is in the pool at
    // any time, so the session's bounded reply queue never fills and a stalled socket
    // back-pressures right here instead of buffering.
    let mut clean_exit = false;
    'serve: while let Ok(incoming) = read_frame(stream) {
        let Ok(envelope) = Envelope::decode(&incoming) else { break };
        if envelope.session != session {
            // Cross-session injection: a connection may only speak for the session it
            // negotiated.  Kill the connection rather than forward.
            break;
        }
        let seq = envelope.seq;
        if envelope.frame.first() == Some(&frame::DISCONNECT) {
            if conduit.disconnect(incoming).is_err() {
                break;
            }
            if let Ok(reply) = conduit.from_server.recv() {
                let _ = write_frame(stream, &reply);
            }
            clean_exit = true; // the pool removed the session either way
            break;
        }
        match conduit.submit(incoming) {
            Ok(()) => {}
            Err(SubmitError::QueueFull) => {
                // Load shedding: answer with a typed overload error without touching
                // the engine — the client may safely re-send this sequence number.
                let shed = Envelope {
                    session,
                    seq,
                    frame: framed(
                        frame::RESPONSE,
                        &S2Response::Error(WireError::overloaded(format!(
                            "{session} inbox full, request shed"
                        ))),
                    ),
                };
                shared.metrics.sheds.incr();
                if write_frame(stream, &shed.encode()).is_err() {
                    break;
                }
                continue;
            }
            Err(SubmitError::ServerGone) => break,
        }
        // Ship the reply for *this* sequence number; discard stale replays that a
        // resumed session's previous life may have left in flight (a worker that
        // finished after the reattach delivers into our queue).
        loop {
            let Ok(reply_bytes) = conduit.from_server.recv() else { break 'serve };
            let stale = match Envelope::decode(&reply_bytes) {
                Ok(reply) => reply.seq != seq,
                Err(_) => true,
            };
            if stale {
                continue;
            }
            if write_frame(stream, &reply_bytes).is_err() {
                break 'serve;
            }
            break;
        }
    }

    shared.streams.plock().remove(&session.0);
    if clean_exit {
        shared.tokens.plock().remove(&session.0);
    } else if !shared.config.park_ttl.is_zero()
        && !shared.draining.load(Ordering::SeqCst)
        && shared.pool.has_session(session)
    {
        // Dirty exit with parking enabled: keep the session (engine, ledger, replay
        // cache, resume token) registered until a resume claims it or the TTL
        // expires.
        let deadline = Instant::now()
            .checked_add(shared.config.park_ttl)
            .unwrap_or_else(|| Instant::now() + Duration::from_secs(365 * 24 * 3600));
        shared.parked.plock().insert(session.0, deadline);
        shared.metrics.parked.incr();
    } else {
        // The client vanished without a DISCONNECT and parking is off (or we are
        // draining): reap its session so the id frees up and the pool drops the
        // engine (ledger, pending state) with it.
        shared.reap(session);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// Disconnect `session` from the pool on behalf of a dead client.  Eviction is
/// immediate (not queued through the inbox): every caller holds the invariant that no
/// new attachment of the id can exist yet, so the registered slot is the one to reap.
fn reap_session(pool: &MultiplexServer, session: SessionId) {
    pool.evict(session);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::TransportErrorKind;
    use crate::multiplex::LinkProfile;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sectopk_crypto::keys::MasterKeys;
    use sectopk_crypto::paillier::{generate_keypair, MIN_MODULUS_BITS};

    use crate::transport::InProcessTransport;

    fn master(seed: u64) -> MasterKeys {
        let mut rng = StdRng::seed_from_u64(seed);
        MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).unwrap()
    }

    fn provision_for(master: &MasterKeys, engine_seed: u64) -> EngineProvision {
        let mut rng = StdRng::seed_from_u64(engine_seed ^ 0xABCD);
        let (own_pk, _own_sk) = generate_keypair(MIN_MODULUS_BITS, &mut rng).unwrap();
        EngineProvision::new(master.s2_view(), own_pk, engine_seed)
    }

    fn compare_request(master: &MasterKeys, value: i64, rng: &mut StdRng) -> S1Request {
        S1Request::Compare {
            blinded: vec![master.paillier_public.encrypt_i64(value, rng).unwrap()],
            context: "test".into(),
        }
    }

    /// A config whose dirty exits reap immediately (the pre-resumption behaviour).
    fn no_parking() -> TcpServerConfig {
        TcpServerConfig::default().with_park_ttl(Duration::ZERO)
    }

    /// A retry policy tuned for loopback tests: fast, bounded, deterministic.
    fn test_retry() -> RetryPolicy {
        RetryPolicy {
            attempts: 8,
            backoff: Duration::from_millis(1),
            backoff_cap: Duration::from_millis(20),
            deadline: Duration::from_secs(20),
        }
    }

    /// Raw fresh handshake, bypassing `TcpTransport` (so tests can die dirty or
    /// hand-craft resume claims).  Returns the stream, negotiated id and token.
    fn raw_fresh(
        addr: SocketAddr,
        session: u64,
        provision: EngineProvision,
    ) -> (TcpStream, u64, u64) {
        let stream = TcpStream::connect(addr).unwrap();
        let hello = ClientHello {
            magic: TCP_MAGIC.into(),
            version: TCP_PROTOCOL_VERSION,
            kind: HelloKind::Fresh { session, provision },
        };
        write_frame(&stream, &wire::to_bytes(&hello)).unwrap();
        match wire::from_bytes::<ServerHello>(&read_frame(&stream).unwrap()).unwrap() {
            ServerHello::Accept { session, resume_token, .. } => (stream, session, resume_token),
            ServerHello::Reject { reason, .. } => panic!("fresh hello rejected: {reason}"),
        }
    }

    /// Raw resume handshake; returns the server's answer (and the stream on accept).
    fn raw_resume(
        addr: SocketAddr,
        session: u64,
        last_acked_seq: u64,
        resume_token: u64,
    ) -> (TcpStream, ServerHello) {
        let stream = TcpStream::connect(addr).unwrap();
        let hello = ClientHello {
            magic: TCP_MAGIC.into(),
            version: TCP_PROTOCOL_VERSION,
            kind: HelloKind::Resume(ResumeHello { session, last_acked_seq, resume_token }),
        };
        write_frame(&stream, &wire::to_bytes(&hello)).unwrap();
        let answer = wire::from_bytes::<ServerHello>(&read_frame(&stream).unwrap()).unwrap();
        (stream, answer)
    }

    fn wait_for(mut condition: impl FnMut() -> bool) {
        for _ in 0..400 {
            if condition() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        panic!("condition not reached within 2s");
    }

    #[test]
    fn loopback_session_matches_the_in_process_transport() {
        let master = master(41);
        let server = TcpCloudServer::bind("127.0.0.1:0", 2).unwrap();
        let mut tcp = TcpTransport::connect(
            server.local_addr(),
            provision_for(&master, 99),
            TcpOptions::default(),
        )
        .unwrap();
        let mut reference = InProcessTransport::new(provision_for(&master, 99).build());

        let mut rng_a = StdRng::seed_from_u64(3);
        let mut rng_b = StdRng::seed_from_u64(3);
        let a = tcp.round_trip(compare_request(&master, -4, &mut rng_a)).unwrap();
        let b = reference.round_trip(compare_request(&master, -4, &mut rng_b)).unwrap();
        assert_eq!(a, b, "same engine seed must answer identically over TCP");
        assert_eq!(tcp.metrics(), reference.metrics(), "metering must be transport-invariant");
        assert_eq!(tcp.s2_ledger().events(), reference.s2_ledger().events());
        assert_eq!(tcp.kind(), TransportKind::Tcp);
        assert_eq!(tcp.link(), LinkProfile::ideal());
    }

    #[test]
    fn server_assigns_session_ids_and_honours_proposals() {
        let master = master(42);
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        let assigned = TcpTransport::connect(
            server.local_addr(),
            provision_for(&master, 1),
            TcpOptions::default(),
        )
        .unwrap();
        assert!(assigned.session().0 >= ASSIGNED_SESSION_BASE);

        let proposed = TcpTransport::connect(
            server.local_addr(),
            provision_for(&master, 2),
            TcpOptions::default().with_session(SessionId(7)),
        )
        .unwrap();
        assert_eq!(proposed.session(), SessionId(7));
        assert_eq!(server.active_sessions(), 2);

        // A second client proposing the same id is refused, permanently.
        let err = TcpTransport::connect(
            server.local_addr(),
            provision_for(&master, 3),
            TcpOptions::default().with_session(SessionId(7)),
        )
        .unwrap_err();
        match &err {
            ProtocolError::Transport(e) => {
                assert_eq!(e.kind, TransportErrorKind::Rejected);
                assert!(!err.is_retryable());
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn disconnect_frees_the_session_and_its_id() {
        let master = master(43);
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        {
            let mut t = TcpTransport::connect(
                server.local_addr(),
                provision_for(&master, 5),
                TcpOptions::default().with_session(SessionId(4)),
            )
            .unwrap();
            let mut rng = StdRng::seed_from_u64(1);
            t.round_trip(compare_request(&master, 3, &mut rng)).unwrap();
            assert_eq!(server.active_sessions(), 1);
        }
        // Teardown is synchronous on the client side (drop waits for the ack), so the
        // bridge has already removed the id by the time the drop returns — poll only
        // for the bridge thread's own registry cleanup.  A *clean* disconnect never
        // parks, even with parking enabled.
        wait_for(|| server.active_sessions() == 0 && server.pool().active_sessions() == 0);
        assert_eq!(server.parked_sessions(), 0);
        let _t = TcpTransport::connect(
            server.local_addr(),
            provision_for(&master, 6),
            TcpOptions::default().with_session(SessionId(4)),
        )
        .unwrap();
    }

    #[test]
    fn handshake_rejects_bad_magic_and_version() {
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        let master = master(44);

        let refusal = |hello: &ClientHello| -> ServerHello {
            let stream = TcpStream::connect(server.local_addr()).unwrap();
            write_frame(&stream, &wire::to_bytes(hello)).unwrap();
            wire::from_bytes(&read_frame(&stream).unwrap()).unwrap()
        };

        let good = ClientHello {
            magic: TCP_MAGIC.into(),
            version: TCP_PROTOCOL_VERSION,
            kind: HelloKind::Fresh { session: 0, provision: provision_for(&master, 1) },
        };
        let bad_magic = ClientHello { magic: "not-sectopk".into(), ..good.clone() };
        assert!(matches!(
            refusal(&bad_magic),
            ServerHello::Reject { code: RejectCode::Malformed, .. }
        ));
        let bad_version = ClientHello { version: TCP_PROTOCOL_VERSION + 1, ..good };
        assert!(matches!(
            refusal(&bad_version),
            ServerHello::Reject { code: RejectCode::VersionMismatch, reason }
                if reason.contains("version mismatch")
        ));
        assert_eq!(server.active_sessions(), 0);
    }

    #[test]
    fn admission_control_rejects_when_full_with_a_retryable_overload() {
        let master = master(45);
        let server = TcpCloudServer::serve_pool(
            "127.0.0.1:0",
            Arc::new(MultiplexServer::new(1)),
            TcpServerConfig::default().with_max_sessions(1),
        )
        .unwrap();
        let _first = TcpTransport::connect(
            server.local_addr(),
            provision_for(&master, 1),
            TcpOptions::default(),
        )
        .unwrap();
        let err = TcpTransport::connect(
            server.local_addr(),
            provision_for(&master, 2),
            TcpOptions::default(),
        )
        .unwrap_err();
        match &err {
            ProtocolError::Transport(e) => {
                assert_eq!(e.kind, TransportErrorKind::Overloaded);
                assert!(e.message.contains("server full"), "unexpected message {e:?}");
                assert!(err.is_retryable(), "a full server is a transient condition");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn connect_retries_with_backoff_then_fails_typed() {
        // Bind-then-drop gives an ephemeral port that is (almost surely) not listening.
        let dead = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let master = master(46);
        let options = TcpOptions {
            connect_attempts: 3,
            connect_backoff: Duration::from_millis(1),
            ..TcpOptions::default()
        };
        let err = TcpTransport::connect(dead, provision_for(&master, 1), options).unwrap_err();
        match &err {
            ProtocolError::Transport(e) => {
                assert_eq!(e.kind, TransportErrorKind::Io);
                assert!(e.message.contains("after 3 attempts"), "unexpected message {e:?}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn severed_socket_without_parking_surfaces_transport_error_and_is_reaped() {
        let master = master(47);
        let server = TcpCloudServer::serve_pool(
            "127.0.0.1:0",
            Arc::new(MultiplexServer::new(1)),
            no_parking(),
        )
        .unwrap();
        let mut t = TcpTransport::connect(
            server.local_addr(),
            provision_for(&master, 9),
            TcpOptions::default().with_session(SessionId(9)),
        )
        .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        t.round_trip(compare_request(&master, 1, &mut rng)).unwrap();

        assert!(server.drop_session(SessionId(9)));
        let err = t.round_trip(compare_request(&master, 1, &mut rng)).unwrap_err();
        assert!(err.is_retryable(), "a severed socket is transient: {err:?}");
        // Parking is off, so the bridge reaps the pool session; the id becomes
        // reusable.
        wait_for(|| server.pool().active_sessions() == 0);
        assert_eq!(server.parked_sessions(), 0);
        assert!(!server.drop_session(SessionId(9)), "already severed");
    }

    #[test]
    fn private_loopback_server_backs_a_self_contained_transport() {
        let master = master(48);
        let mut t =
            TcpTransport::private(provision_for(&master, 31), TcpOptions::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let response = t.round_trip(compare_request(&master, -2, &mut rng)).unwrap();
        assert_eq!(response, S2Response::Signs(vec![-1]));
        assert_eq!(t.metrics().rounds, 1);
        assert!(!t.s2_ledger().is_empty());
    }

    #[test]
    fn oversized_frame_is_rejected_cleanly() {
        let mut encoded = Vec::new();
        encoded.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        let err = read_frame(&encoded[..]).unwrap_err();
        assert!(matches!(&err, ProtocolError::Transport(e) if e.message.contains("oversized")));
        assert!(!err.is_retryable(), "a corrupt frame is not transient");
    }

    #[test]
    fn backoff_is_capped_and_deterministically_jittered() {
        let base = Duration::from_millis(10);
        let cap = Duration::from_millis(100);
        for attempt in 0..64 {
            let d = backoff_delay(base, cap, attempt, 7);
            assert!(d <= cap, "attempt {attempt} exceeded the cap: {d:?}");
            let uncapped_floor = base.saturating_mul(1 << attempt.min(20)).min(cap).mul_f64(0.5);
            assert!(d >= uncapped_floor, "attempt {attempt} under 50% jitter floor: {d:?}");
            assert_eq!(
                d,
                backoff_delay(base, cap, attempt, 7),
                "same seed must give the same jitter"
            );
        }
        // Huge attempt counts must not overflow.
        let _ = backoff_delay(Duration::from_secs(1), Duration::ZERO, u32::MAX, 1);
        assert_eq!(backoff_delay(Duration::ZERO, cap, 3, 7), Duration::ZERO);
    }

    #[test]
    fn uncapped_backoff_is_monotone_and_saturates_instead_of_wrapping() {
        // Regression: the doubling used to run in u32 `Duration::saturating_mul`
        // after a 20-bit shift clamp, so an uncapped policy stopped growing early,
        // and a nanosecond-domain overflow could wrap to a tiny delay.  Uncapped
        // delays must now be monotone nondecreasing across the whole attempt range.
        let base = Duration::from_millis(10);
        let mut prev = Duration::ZERO;
        for attempt in 0..=63 {
            let d = backoff_delay(base, Duration::ZERO, attempt, 7);
            assert!(
                d >= prev,
                "uncapped backoff regressed at attempt {attempt}: {d:?} after {prev:?}"
            );
            prev = d;
        }
        // Far past any representable doubling the delay pins at the saturated
        // maximum; it must never fall back below an earlier attempt's delay.
        let huge = backoff_delay(Duration::from_secs(1), Duration::ZERO, u32::MAX, 1);
        let earlier = backoff_delay(Duration::from_secs(1), Duration::ZERO, 40, 1);
        assert!(huge >= earlier, "saturated backoff wrapped: {huge:?} < {earlier:?}");
    }

    #[test]
    fn transparent_resume_recovers_a_mid_flight_drop_byte_identically() {
        let master = master(49);
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        let mut tcp = TcpTransport::connect(
            server.local_addr(),
            provision_for(&master, 77),
            TcpOptions::default().with_retry(test_retry()),
        )
        .unwrap();
        let mut reference = InProcessTransport::new(provision_for(&master, 77).build());

        let mut rng_a = StdRng::seed_from_u64(11);
        let mut rng_b = StdRng::seed_from_u64(11);
        let a1 = tcp.round_trip(compare_request(&master, 5, &mut rng_a)).unwrap();
        let b1 = reference.round_trip(compare_request(&master, 5, &mut rng_b)).unwrap();
        assert_eq!(a1, b1);

        // Sever the connection server-side, mid-session.  The next exchange hits a
        // dead socket, reconnects, resumes and re-sends — invisibly to the caller.
        assert!(server.drop_session(tcp.session()));
        let a2 = tcp.round_trip(compare_request(&master, -6, &mut rng_a)).unwrap();
        let b2 = reference.round_trip(compare_request(&master, -6, &mut rng_b)).unwrap();
        assert_eq!(a2, b2, "the resumed exchange must answer byte-identically");
        assert_eq!(tcp.reconnects(), 1);
        assert_eq!(server.resumed_sessions(), 1);
        assert_eq!(
            tcp.metrics(),
            reference.metrics(),
            "a recovery retransmit must not be re-metered"
        );
        assert_eq!(
            tcp.s2_ledger().events(),
            reference.s2_ledger().events(),
            "the resumed session's ledger must match an uninterrupted run"
        );
    }

    #[test]
    fn drop_after_send_fault_is_answered_from_the_replay_cache() {
        let master = master(50);
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        // Frame 2 is written, then the connection is severed before its reply: the
        // server executes it exactly once and the resend replays the cached reply.
        let faults = FaultPlan::none().with_drop_after_send_every(2);
        let mut tcp = TcpTransport::connect(
            server.local_addr(),
            provision_for(&master, 88),
            TcpOptions::default().with_retry(test_retry()).with_faults(faults),
        )
        .unwrap();
        let mut reference = InProcessTransport::new(provision_for(&master, 88).build());

        let mut rng_a = StdRng::seed_from_u64(21);
        let mut rng_b = StdRng::seed_from_u64(21);
        for value in [3, -9] {
            let a = tcp.round_trip(compare_request(&master, value, &mut rng_a)).unwrap();
            let b = reference.round_trip(compare_request(&master, value, &mut rng_b)).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(tcp.reconnects(), 1);
        assert_eq!(
            server.pool().replayed_replies(),
            1,
            "the faulted frame must be served from the cache, not re-executed"
        );
        assert_eq!(tcp.s2_ledger().events(), reference.s2_ledger().events());
        assert_eq!(tcp.metrics(), reference.metrics());
    }

    #[test]
    fn drop_before_send_fault_reexecutes_exactly_once() {
        let master = master(51);
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        let faults = FaultPlan::none().with_drop_before_send_every(2);
        let mut tcp = TcpTransport::connect(
            server.local_addr(),
            provision_for(&master, 89),
            TcpOptions::default().with_retry(test_retry()).with_faults(faults),
        )
        .unwrap();
        let mut reference = InProcessTransport::new(provision_for(&master, 89).build());

        let mut rng_a = StdRng::seed_from_u64(22);
        let mut rng_b = StdRng::seed_from_u64(22);
        for value in [1, 2, 3, 4] {
            let a = tcp.round_trip(compare_request(&master, value, &mut rng_a)).unwrap();
            let b = reference.round_trip(compare_request(&master, value, &mut rng_b)).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(tcp.reconnects(), 2, "frames 2 and 4 are dropped before send");
        assert_eq!(
            server.pool().replayed_replies(),
            0,
            "a never-delivered request has nothing cached to replay"
        );
        assert_eq!(tcp.s2_ledger().events(), reference.s2_ledger().events());
        assert_eq!(tcp.metrics(), reference.metrics());
    }

    #[test]
    fn resume_with_a_bad_token_is_denied() {
        let master = master(52);
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        let (stream, session, token) = raw_fresh(server.local_addr(), 0, provision_for(&master, 1));
        drop(stream); // dirty exit: no DISCONNECT
        wait_for(|| server.parked_sessions() == 1);

        let (_s, answer) = raw_resume(server.local_addr(), session, 0, token.wrapping_add(1));
        assert!(matches!(
            answer,
            ServerHello::Reject { code: RejectCode::ResumeDenied, reason }
                if reason.contains("token mismatch")
        ));
        // The denied claim leaves the session parked for the rightful owner.
        assert_eq!(server.parked_sessions(), 1);
        let (_s2, answer) = raw_resume(server.local_addr(), session, 0, token);
        assert!(matches!(answer, ServerHello::Accept { .. }));
        assert_eq!(server.resumed_sessions(), 1);
    }

    #[test]
    fn resume_of_an_unknown_session_is_denied() {
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        let (_s, answer) = raw_resume(server.local_addr(), 424242, 0, 1);
        assert!(matches!(answer, ServerHello::Reject { code: RejectCode::ResumeDenied, .. }));
    }

    #[test]
    fn two_clients_racing_to_resume_admit_exactly_one() {
        let master = master(53);
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        let (stream, session, token) = raw_fresh(server.local_addr(), 0, provision_for(&master, 1));
        drop(stream);
        wait_for(|| server.parked_sessions() == 1);

        let addr = server.local_addr();
        let racers: Vec<_> = (0..2)
            .map(|_| std::thread::spawn(move || raw_resume(addr, session, 0, token)))
            .collect();
        let answers: Vec<ServerHello> = racers.into_iter().map(|h| h.join().unwrap().1).collect();
        let accepts = answers.iter().filter(|a| matches!(a, ServerHello::Accept { .. })).count();
        assert_eq!(accepts, 1, "exactly one racer may claim the parked session: {answers:?}");
        assert_eq!(server.resumed_sessions(), 1);
    }

    #[test]
    fn park_ttl_expiry_reaps_the_session_and_frees_its_id() {
        let master = master(54);
        let server = TcpCloudServer::serve_pool(
            "127.0.0.1:0",
            Arc::new(MultiplexServer::new(1)),
            TcpServerConfig::default().with_park_ttl(Duration::from_millis(50)),
        )
        .unwrap();
        let (stream, session, token) =
            raw_fresh(server.local_addr(), 21, provision_for(&master, 1));
        drop(stream);
        wait_for(|| server.parked_sessions() == 1);
        assert_eq!(server.pool().active_sessions(), 1, "parked sessions stay in the pool");

        wait_for(|| server.parked_sessions() == 0 && server.pool().active_sessions() == 0);
        // The expired session is gone: its resume is denied and its id is reusable.
        let (_s, answer) = raw_resume(server.local_addr(), session, 0, token);
        assert!(matches!(answer, ServerHello::Reject { code: RejectCode::ResumeDenied, .. }));
        let (_s2, reused, _t) = raw_fresh(server.local_addr(), 21, provision_for(&master, 2));
        assert_eq!(reused, 21);
    }

    #[test]
    fn draining_server_rejects_hellos_with_a_typed_overload() {
        let master = master(55);
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        server.drain(Duration::ZERO);
        assert!(server.is_draining());
        let err = TcpTransport::connect(
            server.local_addr(),
            provision_for(&master, 1),
            TcpOptions::default(),
        )
        .unwrap_err();
        match &err {
            ProtocolError::Transport(e) => {
                assert_eq!(e.kind, TransportErrorKind::Overloaded);
                assert!(e.message.contains("draining"), "unexpected message {e:?}");
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn drain_reaps_parked_sessions_immediately() {
        let master = master(56);
        let server = TcpCloudServer::bind("127.0.0.1:0", 1).unwrap();
        let (stream, _session, _token) =
            raw_fresh(server.local_addr(), 0, provision_for(&master, 1));
        drop(stream);
        wait_for(|| server.parked_sessions() == 1);
        server.drain(Duration::from_millis(200));
        assert_eq!(server.parked_sessions(), 0);
        wait_for(|| server.pool().active_sessions() == 0);
    }
}
