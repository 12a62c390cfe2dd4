//! The inter-cloud message-passing transport: typed S1 ↔ S2 protocol messages, the
//! [`Transport`] trait that carries them, and its in-process implementation.
//!
//! # Architecture
//!
//! The paper's §3.2 deployment is two non-colluding parties exchanging messages over a
//! metered link.  Every sub-protocol exchange in this crate is expressed as one
//! [`S1Request`] shipped to S2 and one [`S2Response`] shipped back — there is no shared
//! state between the parties; S2's keys, randomness and ledger live exclusively inside
//! the [`crate::engine::S2Engine`] behind the transport:
//!
//! ```text
//!            primary cloud S1                      crypto cloud S2
//!   ┌────────────────────────────┐         ┌───────────────────────────────┐
//!   │ S1State                    │         │ S2Engine                      │
//!   │  public keys, rng, ledger  │         │  secret keys, rng, ledger     │
//!   │  encrypted relation        │         │  (no data)                    │
//!   └─────────────┬──────────────┘         └───────────────▲───────────────┘
//!                 │      S1Request (serialized, metered)   │
//!                 │  ────────────────────────────────────▶ │
//!                 │            Transport::round_trip       │
//!                 │  ◀──────────────────────────────────── │
//!                 │      S2Response (serialized, metered)  │
//!                 ▼                                        │
//!          ChannelMetrics: bytes measured from the wire encoding,
//!          1 round per request/response pair (Batch counts as one)
//! ```
//!
//! Three implementations:
//!
//! * [`InProcessTransport`] — the fast path: the request value is handed to the engine
//!   without copying the payload; messages are still *metered* at their exact wire size
//!   via [`crate::wire::encoded_len`].
//! * [`crate::multiplex::MultiplexTransport`] — S2 as a session-multiplexing worker
//!   pool; every message is serialized with [`crate::wire`] and travels inside a
//!   session-tagged envelope over an `mpsc` byte channel, so nothing but bytes crosses
//!   the boundary.  [`crate::multiplex::MultiplexTransport::private`] gives one session
//!   a dedicated single-worker pool.
//! * [`crate::tcp::TcpTransport`] — S2 as a real networked process: the same envelopes,
//!   length-prefix-framed over a TCP socket to a [`crate::tcp::TcpCloudServer`].
//!
//! All three produce byte-identical protocol outputs, identical leakage ledgers and
//! identical [`ChannelMetrics`] for the same seed (asserted by
//! `tests/transport_equivalence.rs`).
//!
//! Intra-query parallelism never leaks into this layer: S2 executes a request as
//! parallel compute + serial commit (see [`crate::engine`]) and S1 parallelizes only
//! pure ciphertext arithmetic after drawing its randomness serially, so transcripts,
//! metrics and ledgers are byte-identical for any `SECTOPK_INTRA_PARALLEL` worker
//! count.  Worker count is a local resource decision of each party — it is not
//! protocol state and is never carried in these messages.
//!
//! # Batching rules
//!
//! [`S1Request::Batch`] wraps any number of *independent* requests into a single round
//! trip; the engine answers with a positionally matching [`S2Response::Batch`].  Callers
//! use it to ship one message per scan depth instead of one per pair:
//!
//! * `SecDedup` ships its whole pairwise equality matrix inside one [`S1Request::Dedup`];
//!   with batching disabled it degrades to one [`S1Request::EqTest`] per pair.
//! * `EncSort` ships all comparator gates of one Batcher stage in one
//!   [`S1Request::Compare`]; unbatched, one request per gate.
//! * `SecWorst` / `SecBest` ship the equality matrices of all `m` per-depth items in one
//!   `Batch` and recover all selected scores in one [`S1Request::Recover`].
//!
//! Requests inside a `Batch` must not depend on each other's responses; sequencing
//! across rounds is the caller's job.
//!
//! # Measured vs. estimated bandwidth
//!
//! Earlier revisions *estimated* traffic as the sum of ciphertext `byte_len()`s.  The
//! transport now records the exact size of each encoded message, which adds the real
//! framing overhead (message tags, field names, length prefixes) to the Table 3 /
//! Fig. 13 numbers — a few percent on ciphertext-heavy messages.  Leakage events are
//! likewise recorded at this boundary: S2's ledger is filled exclusively by the engine
//! while handling requests, so the "S2 sees nothing but EP^d" tests check exactly what
//! crossed the wire.

use std::fmt;

use serde::{Deserialize, Serialize};

use sectopk_crypto::damgard_jurik::LayeredCiphertext;
use sectopk_crypto::paillier::Ciphertext;

use crate::channel::{ChannelMetrics, Direction};
use crate::dedup::EncryptedBlinding;
use crate::engine::S2Engine;
use crate::error::{ProtocolError, Result};
use crate::items::ScoredItem;
use crate::ledger::LeakageLedger;
use crate::multiplex::LinkProfile;
use crate::wire;
use crate::wire::WireError;

// ====================================================================================
// Message types
// ====================================================================================

/// Which aggregate bits S1 asks S2 to derive from an equality matrix.  S2 may compute
/// these because it legitimately decrypted every matrix entry (the `EP^d` leakage); the
/// encrypted aggregates travel back as `E2(·)` bits S1 cannot read.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct EqWants {
    /// Per row `i`: `E2(∨_j t_ij)` — "did row *i* match any column?".
    pub row_matched: bool,
    /// Per row `i`: `E2(¬∨_j t_ij)` — "did row *i* match no column?".
    pub row_unmatched: bool,
    /// Per column `j`: `E2(¬∨_i t_ij)` — "did no row match column *j*?".
    pub col_unmatched: bool,
    /// Per row `i`: the *plaintext* bit `∨_j t_ij`.  This is a deliberate disclosure to
    /// S1 used only by the `Qry_E` / `SecDupElim` optimisations, whose profile grants S1
    /// the per-depth uniqueness pattern `UP^d` (§10.1).
    pub row_matched_plain: bool,
}

impl EqWants {
    /// No aggregates requested.
    pub fn none() -> Self {
        Self::default()
    }

    /// True when no aggregate is requested.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }
}

/// The aggregates S2 derived from an equality matrix; vectors are empty unless the
/// corresponding [`EqWants`] flag was set.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct EqAggregates {
    /// `E2(∨_j t_ij)` per row.
    pub row_matched: Vec<LayeredCiphertext>,
    /// `E2(¬∨_j t_ij)` per row.
    pub row_unmatched: Vec<LayeredCiphertext>,
    /// `E2(¬∨_i t_ij)` per column.
    pub col_unmatched: Vec<LayeredCiphertext>,
    /// Plaintext `∨_j t_ij` per row (uniqueness-pattern disclosure, see [`EqWants`]).
    pub row_matched_plain: Vec<bool>,
}

/// The `SecDedup` / `SecDupElim` exchange payload (Algorithm 7 / §10.1): the blinded,
/// permuted items, their blinding randomness encrypted under S1's own key `pk'`, and the
/// pairwise equality matrix over the permuted positions.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DedupRequest {
    /// Blinded items in permuted order.
    pub items: Vec<ScoredItem>,
    /// `Enc_pk'(blinding)` per item, permuted consistently with `items`.
    pub blindings: Vec<EncryptedBlinding>,
    /// Permuted index pairs `(a, b)` with `a < b`, one per matrix entry.
    pub pair_indices: Vec<(usize, usize)>,
    /// The `⊖` equality ciphertexts, positionally matching `pair_indices`.  `None` means
    /// the matrix was streamed ahead via unbatched [`S1Request::EqTest`] rounds and the
    /// engine must use its accumulated bits instead.
    pub matrix: Option<Vec<Ciphertext>>,
    /// `true` ⇒ `SecDupElim` (§10.1): drop duplicates, shrinking the list.
    pub eliminate: bool,
    /// Scan depth, for the equality-pattern bookkeeping.
    pub depth: usize,
}

/// One blinded tuple of the `SecFilter` exchange (Algorithm 12).  On the way out the
/// unblinders are S1's (`Enc_pk'(r⁻¹)`, `Enc_pk'(R_l)`); on the way back they are the
/// homomorphically updated versions after S2's re-blinding.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FilterTuple {
    /// Multiplicatively blinded score `Enc(r · b · score)`.
    pub score: Ciphertext,
    /// Additively blinded carried attributes.
    pub attributes: Vec<Ciphertext>,
    /// `Enc_pk'(·)` multiplicative unblinder for the score.
    pub score_unblinder: Ciphertext,
    /// `Enc_pk'(·)` additive masks for the attributes.
    pub attribute_masks: Vec<Ciphertext>,
}

impl FilterTuple {
    fn ciphertext_count(&self) -> usize {
        2 + self.attributes.len() + self.attribute_masks.len()
    }
}

/// A typed request from the primary cloud S1 to the crypto cloud S2.  One request and
/// its [`S2Response`] form one protocol round trip.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum S1Request {
    /// One `⊖` equality ciphertext — the *unbatched* form of the equality exchange.
    /// S2 decrypts it and, depending on the flags, replies `E2(t)` and/or remembers the
    /// bit for a later aggregate / dedup request of the same protocol session.
    EqTest {
        /// The randomized `a ⊖ b` ciphertext.
        diff: Ciphertext,
        /// Calling sub-protocol (ledger context).
        context: String,
        /// Scan depth, if applicable.
        depth: Option<usize>,
        /// Append the decrypted bit to S2's session state (consumed by the next
        /// [`S1Request::EqAggregate`] or matrix-less [`S1Request::Dedup`]).
        accumulate: bool,
        /// Reply with `E2(t)`.  `false` replies a bare [`S2Response::Ack`] — used by the
        /// dedup streaming path, where S2 itself consumes the bits and an encrypted
        /// reply would be wasted bandwidth.
        reply_bit: bool,
    },
    /// A whole equality matrix in one message: `rows × cols` ciphertexts in row-major
    /// order, plus optionally derived aggregate bits.
    EqMatrix {
        /// Row-major `⊖` ciphertexts (`diffs.len()` must be a multiple of `cols`).
        diffs: Vec<Ciphertext>,
        /// Number of columns.
        cols: usize,
        /// Calling sub-protocol (ledger context).
        context: String,
        /// Scan depth, if applicable.
        depth: Option<usize>,
        /// Aggregates to derive and return.
        want: EqWants,
    },
    /// Ask S2 to derive aggregates over the last `rows × cols` bits it accumulated from
    /// unbatched [`S1Request::EqTest`] rounds (consumes them).
    EqAggregate {
        /// Number of rows of the streamed matrix.
        rows: usize,
        /// Number of columns of the streamed matrix.
        cols: usize,
        /// Aggregates to derive and return.
        want: EqWants,
    },
    /// Blinded, sign-flipped differences; S2 decrypts each and reports only its sign
    /// (the EncCompare / EncSort comparator exchange).
    Compare {
        /// `Enc(±α(a−b))` per comparison.
        blinded: Vec<Ciphertext>,
        /// Calling sub-protocol (ledger context).
        context: String,
    },
    /// `RecoverEnc` (Algorithm 5): strip the outer Damgård–Jurik layer from each blinded
    /// `E2(Enc(c + r))`, returning the inner Paillier ciphertexts.
    Recover {
        /// The blinded layered ciphertexts.
        blinded: Vec<LayeredCiphertext>,
    },
    /// The `SecDedup` / `SecDupElim` exchange (Algorithm 7 / §10.1).
    Dedup(DedupRequest),
    /// The `SecFilter` exchange (Algorithm 12): drop blinded all-zero join tuples.
    Filter {
        /// Blinded joined tuples, in S1-permuted order.
        tuples: Vec<FilterTuple>,
    },
    /// Blinded operand pairs for the SkNN baseline's secure multiplication: S2 decrypts
    /// both halves, multiplies, and returns `Enc((a+r_a)(b+r_b))`.
    MulBlinded {
        /// The blinded `(Enc(a+r_a), Enc(b+r_b))` pairs.
        pairs: Vec<(Ciphertext, Ciphertext)>,
    },
    /// Any number of independent requests shipped as a single round trip.
    Batch(Vec<S1Request>),
}

impl S1Request {
    /// Number of ciphertexts (Paillier + layered) carried by this message, for the
    /// channel's ciphertext accounting.
    pub fn ciphertext_count(&self) -> usize {
        match self {
            S1Request::EqTest { .. } => 1,
            S1Request::EqMatrix { diffs, .. } => diffs.len(),
            S1Request::EqAggregate { .. } => 0,
            S1Request::Compare { blinded, .. } => blinded.len(),
            S1Request::Recover { blinded } => blinded.len(),
            S1Request::Dedup(req) => {
                req.matrix.as_ref().map_or(0, Vec::len)
                    + req.items.iter().map(|i| i.ehl.len() + 2).sum::<usize>()
                    + req.blindings.iter().map(|b| b.alphas.len() + 2).sum::<usize>()
            }
            S1Request::Filter { tuples } => tuples.iter().map(FilterTuple::ciphertext_count).sum(),
            S1Request::MulBlinded { pairs } => pairs.len() * 2,
            S1Request::Batch(requests) => requests.iter().map(Self::ciphertext_count).sum(),
        }
    }

    /// Stable lower-snake-case name of this request kind, used as the metric and trace
    /// span label for the protocol round that ships it.
    pub fn kind_name(&self) -> &'static str {
        match self {
            S1Request::EqTest { .. } => "eq_test",
            S1Request::EqMatrix { .. } => "eq_matrix",
            S1Request::EqAggregate { .. } => "eq_aggregate",
            S1Request::Compare { .. } => "compare",
            S1Request::Recover { .. } => "recover",
            S1Request::Dedup(_) => "dedup",
            S1Request::Filter { .. } => "filter",
            S1Request::MulBlinded { .. } => "mul_blinded",
            S1Request::Batch(_) => "batch",
        }
    }
}

/// A typed response from the crypto cloud S2, positionally matching the [`S1Request`]
/// kind that solicited it.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum S2Response {
    /// Reply to [`S1Request::EqTest`]: the outer-layer encrypted bit `E2(t)`.
    EqBit(LayeredCiphertext),
    /// Bare acknowledgement — reply to an [`S1Request::EqTest`] with `reply_bit: false`.
    Ack,
    /// Reply to [`S1Request::EqMatrix`].
    EqBits {
        /// `E2(t_ij)` in row-major order.
        bits: Vec<LayeredCiphertext>,
        /// The requested aggregates (empty vectors for flags not set).
        aggregates: EqAggregates,
    },
    /// Reply to [`S1Request::EqAggregate`].
    EqAggregates(EqAggregates),
    /// Reply to [`S1Request::Compare`]: one sign per blinded difference
    /// (−1 / 0 / +1).
    Signs(Vec<i8>),
    /// Reply to [`S1Request::Recover`]: the (still blinded) inner Paillier ciphertexts.
    Recovered(Vec<Ciphertext>),
    /// Reply to [`S1Request::Dedup`]: re-blinded, re-permuted items and their updated
    /// encrypted blindings.
    Dedup {
        /// The processed items (same length for `SecDedup`, possibly shorter for
        /// `SecDupElim`).
        items: Vec<ScoredItem>,
        /// Updated `Enc_pk'(blinding)` per returned item.
        blindings: Vec<EncryptedBlinding>,
    },
    /// Reply to [`S1Request::Filter`]: the surviving (re-blinded, re-permuted) tuples.
    Filter {
        /// Tuples whose score was non-zero.
        survivors: Vec<FilterTuple>,
    },
    /// Reply to [`S1Request::MulBlinded`]: `Enc((a+r_a)(b+r_b))` per pair.
    Products(Vec<Ciphertext>),
    /// Replies to a [`S1Request::Batch`], in request order.
    Batch(Vec<S2Response>),
    /// S2 failed to process the request: a typed [`WireError`] frame.  The transport
    /// surfaces it as [`ProtocolError::Remote`]; the S2 worker keeps serving.
    Error(WireError),
}

impl S2Response {
    /// Number of ciphertexts (Paillier + layered) carried by this message.
    pub fn ciphertext_count(&self) -> usize {
        match self {
            S2Response::EqBit(_) => 1,
            S2Response::Ack => 0,
            S2Response::EqBits { bits, aggregates } => bits.len() + aggregates.ciphertext_count(),
            S2Response::EqAggregates(aggregates) => aggregates.ciphertext_count(),
            S2Response::Signs(_) => 0,
            S2Response::Recovered(inner) => inner.len(),
            S2Response::Dedup { items, blindings } => {
                items.iter().map(|i| i.ehl.len() + 2).sum::<usize>()
                    + blindings.iter().map(|b| b.alphas.len() + 2).sum::<usize>()
            }
            S2Response::Filter { survivors } => {
                survivors.iter().map(FilterTuple::ciphertext_count).sum()
            }
            S2Response::Products(products) => products.len(),
            S2Response::Batch(responses) => responses.iter().map(Self::ciphertext_count).sum(),
            S2Response::Error(_) => 0,
        }
    }
}

impl EqAggregates {
    fn ciphertext_count(&self) -> usize {
        self.row_matched.len() + self.row_unmatched.len() + self.col_unmatched.len()
    }
}

// ====================================================================================
// The transport trait
// ====================================================================================

/// Which transport implementation backs a [`crate::context::TwoClouds`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TransportKind {
    /// S2 runs in-process behind a direct call (fast path, metered wire sizes).
    InProcess,
    /// S2 is a session-multiplexing worker pool ([`crate::multiplex::MultiplexServer`]);
    /// messages travel in [`crate::multiplex::Envelope`]-framed bytes tagged with a
    /// session id.  When selected here (rather than by connecting to an explicit
    /// server), each `TwoClouds` spins up a private single-worker server, so the whole
    /// test suite can run over the multiplexed path via `SECTOPK_TRANSPORT=multiplex`.
    Multiplex,
    /// S2 is a real networked process: envelopes travel length-prefix-framed over a TCP
    /// socket to a [`crate::tcp::TcpCloudServer`] listener (the `sectopk-s2d` binary).
    /// When selected here, each `TwoClouds` spins up a private loopback listener on an
    /// ephemeral port, so the whole test suite can run over real sockets via
    /// `SECTOPK_TRANSPORT=tcp`.
    Tcp,
}

/// Environment variable selecting the default transport (`"multiplex"`/`"mux"`,
/// `"tcp"`/`"socket"`, or anything else — including unset — for in-process).
pub const TRANSPORT_ENV: &str = "SECTOPK_TRANSPORT";

impl TransportKind {
    /// The transport selected by the `SECTOPK_TRANSPORT` environment variable
    /// (`"multiplex"` / `"mux"` ⇒ [`TransportKind::Multiplex`], `"tcp"` / `"socket"` ⇒
    /// [`TransportKind::Tcp`]; anything else, including unset, ⇒
    /// [`TransportKind::InProcess`]).  Lets the CI matrix run the whole test suite over
    /// the multiplexed and socket paths without code changes.
    pub fn from_env() -> Self {
        Self::parse(std::env::var(TRANSPORT_ENV).ok().as_deref())
    }

    /// The selection rule behind [`Self::from_env`], split out so tests can exercise it
    /// without mutating the process environment (which every `TwoClouds::new` reads).
    pub fn parse(value: Option<&str>) -> Self {
        match value {
            Some(v) if v.eq_ignore_ascii_case("multiplex") || v.eq_ignore_ascii_case("mux") => {
                TransportKind::Multiplex
            }
            Some(v) if v.eq_ignore_ascii_case("tcp") || v.eq_ignore_ascii_case("socket") => {
                TransportKind::Tcp
            }
            _ => TransportKind::InProcess,
        }
    }
}

/// A bidirectional, metered message channel to the crypto cloud S2.
///
/// Implementations own the S2 party outright — its keys, randomness and leakage ledger —
/// so protocol code on the S1 side can only interact with S2 by sending a typed
/// [`S1Request`] and reading the [`S2Response`].
pub trait Transport: fmt::Debug + Send {
    /// Ship `request` to S2 and block until its response arrives.  Exactly one round
    /// trip is recorded in the metrics, with byte sizes measured from the wire encoding.
    fn round_trip(&mut self, request: S1Request) -> Result<S2Response>;

    /// Communication statistics accumulated so far.
    fn metrics(&self) -> ChannelMetrics;

    /// Reset the communication statistics.
    fn reset_metrics(&mut self);

    /// Snapshot of everything S2 observed beyond its inputs.
    fn s2_ledger(&self) -> LeakageLedger;

    /// Clear S2's ledger and per-session protocol state.
    fn reset_s2(&mut self);

    /// Which implementation this is.
    fn kind(&self) -> TransportKind;

    /// The simulated link profile the transport runs over.  Dedicated transports run on
    /// an ideal link; the multiplexed transport reports the RTT it was connected with,
    /// which is what the adaptive query planner feeds into the §11 cost model.
    fn link(&self) -> LinkProfile {
        LinkProfile::ideal()
    }

    /// Transport-level faults this connection absorbed without surfacing an error to
    /// the caller: reconnect-and-resume cycles after a dropped connection and shed
    /// requests retried to success.  Zero for transports that cannot fault (the
    /// in-process and multiplexed paths); the TCP transport counts every
    /// absorbed fault so serving reports can separate "queries that failed" from
    /// "faults that were retried away".
    fn faults_absorbed(&self) -> u64 {
        0
    }

    /// Install client-side metric handles from `registry` (see
    /// [`sectopk_metrics::Registry`]).  Default: no instrumentation — only the TCP
    /// transport currently reports client-side metrics (`tcp.client.*`).  Never
    /// affects protocol bytes, ledgers or [`ChannelMetrics`].
    fn set_metrics_registry(&mut self, _registry: &sectopk_metrics::Registry) {}
}

/// Surface an `S2Response::Error` frame as the [`ProtocolError::Remote`] every
/// transport implementation maps it to.
pub(crate) fn response_or_error(response: S2Response) -> Result<S2Response> {
    match response {
        S2Response::Error(e) => Err(ProtocolError::Remote(e)),
        other => Ok(other),
    }
}

// ====================================================================================
// In-process transport
// ====================================================================================

/// The fast path: the request value is handed to S2's engine directly — nothing is
/// serialized for transfer or deserialized on arrival.  Messages are still metered at
/// their exact wire-encoded size via [`wire::encoded_len`] so the bandwidth figures
/// match the serializing transports byte for byte; that metering does lower each message
/// into a transient value tree, a cost that is negligible next to the Paillier /
/// Damgård–Jurik arithmetic dominating every exchange.
pub struct InProcessTransport {
    engine: S2Engine,
    metrics: ChannelMetrics,
}

impl InProcessTransport {
    /// Wrap an S2 engine.
    pub fn new(engine: S2Engine) -> Self {
        InProcessTransport { engine, metrics: ChannelMetrics::new() }
    }
}

impl fmt::Debug for InProcessTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("InProcessTransport").field("metrics", &self.metrics).finish()
    }
}

impl Transport for InProcessTransport {
    fn round_trip(&mut self, request: S1Request) -> Result<S2Response> {
        self.metrics.record(
            Direction::S1ToS2,
            wire::encoded_len(&request),
            request.ciphertext_count(),
        );
        // Engine failures become an `S2Response::Error` frame exactly as on the
        // serializing transports, so the reply is metered identically on every
        // implementation and the caller sees the same `ProtocolError::Remote` either
        // way.
        let response = self.engine.handle(&request).unwrap_or_else(S2Response::Error);
        self.metrics.record(
            Direction::S2ToS1,
            wire::encoded_len(&response),
            response.ciphertext_count(),
        );
        response_or_error(response)
    }

    fn metrics(&self) -> ChannelMetrics {
        self.metrics
    }

    fn reset_metrics(&mut self) {
        self.metrics = ChannelMetrics::new();
    }

    fn s2_ledger(&self) -> LeakageLedger {
        self.engine.ledger().clone()
    }

    fn reset_s2(&mut self) {
        self.engine.reset();
    }

    fn kind(&self) -> TransportKind {
        TransportKind::InProcess
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sectopk_crypto::keys::MasterKeys;
    use sectopk_crypto::paillier::{generate_keypair, MIN_MODULUS_BITS};

    use crate::multiplex::MultiplexTransport;

    fn engine(seed: u64) -> (MasterKeys, S2Engine) {
        let mut rng = StdRng::seed_from_u64(seed);
        let master = MasterKeys::generate(MIN_MODULUS_BITS, 2, &mut rng).unwrap();
        let (own_pk, _own_sk) = generate_keypair(MIN_MODULUS_BITS, &mut rng).unwrap();
        let engine = S2Engine::new(master.s2_view(), own_pk, seed ^ 0x5252_5252_5252_5252);
        (master, engine)
    }

    fn compare_request(master: &MasterKeys, value: i64, rng: &mut StdRng) -> S1Request {
        let pk = &master.paillier_public;
        S1Request::Compare {
            blinded: vec![pk.encrypt_i64(value, rng).unwrap()],
            context: "test".into(),
        }
    }

    #[test]
    fn both_transports_answer_identically_and_meter_identically() {
        let (master, eng_a) = engine(9);
        let (_, eng_b) = engine(9);
        let mut in_process = InProcessTransport::new(eng_a);
        let mut mux = MultiplexTransport::private(eng_b, LinkProfile::ideal()).unwrap();

        let mut rng = StdRng::seed_from_u64(1);
        let req = compare_request(&master, -5, &mut rng);
        let a = in_process.round_trip(req.clone()).unwrap();
        let b = mux.round_trip(req).unwrap();
        match (&a, &b) {
            (S2Response::Signs(sa), S2Response::Signs(sb)) => {
                assert_eq!(sa, sb);
                assert_eq!(sa, &vec![-1i8]);
            }
            other => panic!("unexpected responses {other:?}"),
        }
        assert_eq!(in_process.metrics(), mux.metrics());
        assert_eq!(in_process.metrics().rounds, 1);
        assert_eq!(in_process.s2_ledger().events(), mux.s2_ledger().events());
    }

    #[test]
    fn batch_is_one_round() {
        let (master, eng) = engine(10);
        let mut transport = InProcessTransport::new(eng);
        let mut rng = StdRng::seed_from_u64(2);
        let reqs: Vec<S1Request> =
            (0..4).map(|i| compare_request(&master, i - 2, &mut rng)).collect();
        let response = transport.round_trip(S1Request::Batch(reqs)).unwrap();
        match response {
            S2Response::Batch(replies) => assert_eq!(replies.len(), 4),
            other => panic!("expected Batch, got {other:?}"),
        }
        assert_eq!(transport.metrics().rounds, 1);
    }

    #[test]
    fn control_plane_is_unmetered_and_reset_clears_the_ledger() {
        let (master, eng) = engine(11);
        let mut transport = MultiplexTransport::private(eng, LinkProfile::ideal()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        transport.round_trip(compare_request(&master, 1, &mut rng)).unwrap();
        let metered = transport.metrics();
        assert!(!transport.s2_ledger().is_empty());
        assert_eq!(transport.metrics(), metered, "ledger fetch must not count as traffic");
        transport.reset_s2();
        assert!(transport.s2_ledger().is_empty());
    }

    #[test]
    fn engine_errors_surface_as_protocol_errors() {
        let (_master, eng) = engine(12);
        let mut transport = MultiplexTransport::private(eng, LinkProfile::ideal()).unwrap();
        use crate::wire::WireErrorCode;
        // An EqAggregate with no accumulated bits is a sequencing violation.
        let err = transport
            .round_trip(S1Request::EqAggregate { rows: 2, cols: 2, want: EqWants::none() })
            .unwrap_err();
        assert!(
            matches!(&err, ProtocolError::Remote(e) if e.code == WireErrorCode::BadSequence),
            "unexpected error {err:?}"
        );
        // A zero-column matrix is structurally malformed (would divide by zero in the
        // aggregate derivation).
        let err = transport
            .round_trip(S1Request::EqAggregate { rows: 0, cols: 0, want: EqWants::none() })
            .unwrap_err();
        assert!(
            matches!(&err, ProtocolError::Remote(e) if e.code == WireErrorCode::MalformedRequest),
            "unexpected error {err:?}"
        );
        // The engine survives both rejections: the worker is still serving requests.
        assert!(transport.s2_ledger().is_empty());
    }

    #[test]
    fn transport_kind_env_parsing() {
        assert_eq!(TransportKind::parse(Some("multiplex")), TransportKind::Multiplex);
        assert_eq!(TransportKind::parse(Some("MUX")), TransportKind::Multiplex);
        assert_eq!(TransportKind::parse(Some("tcp")), TransportKind::Tcp);
        assert_eq!(TransportKind::parse(Some("Socket")), TransportKind::Tcp);
        assert_eq!(TransportKind::parse(Some("channel")), TransportKind::InProcess);
        assert_eq!(TransportKind::parse(Some("inprocess")), TransportKind::InProcess);
        assert_eq!(TransportKind::parse(Some("garbage")), TransportKind::InProcess);
        assert_eq!(TransportKind::parse(None), TransportKind::InProcess);
    }
}
