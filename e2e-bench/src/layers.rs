//! Per-layer metrics of the traced run, timed from outside around calls into each
//! layer's public functions and read from the instrumentation the program exposes:
//! `QueryStats`, the `sectopk-metrics` registry and the round trace hook.

use std::hint::black_box;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use sectopk_crypto::damgard_jurik::{DjPublicKey, DjSecretKey};
use sectopk_crypto::keys::MasterKeys;
use sectopk_ehl::EhlEncoder;
use sectopk_metrics::MetricsSnapshot;
use sectopk_storage::ObjectId;

use crate::trace::SpanRecorder;
use crate::workload::{QueryRecord, SetupTimings, Workload};
use crate::{mean, median, Metric};

/// Round kinds reported one by one; S1's sub-protocols ship these.
const ROUND_KINDS: [&str; 5] = ["batch", "eq_matrix", "compare", "recover", "dedup"];

/// Timed calls per crypto or EHL operation; the reported cost is their median.
const UNIT_REPS: usize = 15;

/// Median microseconds of `op` over [`UNIT_REPS`] calls.
fn time_us<T>(mut op: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..UNIT_REPS)
        .map(|_| {
            let started = Instant::now();
            black_box(op());
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// Unit costs of the crypto primitives and EHL operations at the workload's modulus.
fn unit_costs(keys: &MasterKeys, seed: u64) -> Vec<Metric> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pk = &keys.paillier_public;
    let sk = &keys.paillier_secret;
    let dj_pk = DjPublicKey::from_paillier(pk);
    let dj_sk = DjSecretKey::from_paillier(sk);
    let c = pk.encrypt_u64(rng.gen_range(0..1_000), &mut rng).expect("plaintext is in range");
    let layered = dj_pk.encrypt_ciphertext(&c, &mut rng).expect("a ciphertext is in range");
    let scalar = pk.n() - num_bigint::BigUint::from(12_345u32);
    let encoder = EhlEncoder::new(&keys.ehl_keys);
    let id = ObjectId(7).to_bytes();
    let ehl = encoder.encode(&id, pk, &mut rng).expect("encoding succeeds");
    let us = |name: &'static str, value: f64| Metric::new(name, "us", value).samples(UNIT_REPS);
    vec![
        us("crypto.paillier_encrypt_us", time_us(|| pk.encrypt_u64(42, &mut rng))),
        us("crypto.paillier_decrypt_us", time_us(|| sk.decrypt(&c))),
        us("crypto.paillier_scalar_mul_us", time_us(|| pk.mul_plain(&c, &scalar))),
        us("crypto.dj_encrypt_us", time_us(|| dj_pk.encrypt_ciphertext(&c, &mut rng))),
        us("crypto.dj_decrypt_us", time_us(|| dj_sk.decrypt(&layered))),
        us("ehl.encode_us", time_us(|| encoder.encode(&id, pk, &mut rng))),
        us("ehl.eq_test_us", time_us(|| ehl.eq_test(&ehl, pk, &mut rng))),
    ]
}

fn histogram_sum(snapshot: &MetricsSnapshot, matches: impl Fn(&str) -> bool) -> f64 {
    snapshot
        .histograms
        .iter()
        .filter(|(name, _)| matches(name))
        .map(|(_, h)| h.sum as f64)
        .fold(0.0, |sum, v| sum + v)
}

fn counter_sum(snapshot: &MetricsSnapshot, prefix: &str) -> f64 {
    snapshot
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, v)| *v as f64)
        .fold(0.0, |sum, v| sum + v)
}

/// Every per-layer metric of one traced pass.  Per-query values are means over the
/// pass's queries; a layer that is not on the workload's path reads 0.
pub fn per_layer(
    workload: &Workload,
    setup: SetupTimings,
    records: &[QueryRecord],
    snapshot: &MetricsSnapshot,
    recorder: &SpanRecorder,
    keys: &MasterKeys,
    seed: u64,
) -> Vec<Metric> {
    let queries = records.len().max(1) as f64;
    let per_query = |total: f64| total / queries;
    let secquery = mean(records.iter().map(|r| r.secquery_s));
    let rounds = mean(records.iter().map(|r| r.rounds as f64));
    let bytes = mean(records.iter().map(|r| r.bytes as f64));
    let round_s = per_query(histogram_sum(snapshot, |n| n.ends_with(".round_nanos")) / 1e9);
    let handle_s = per_query(histogram_sum(snapshot, |n| n == "engine.handle_nanos") / 1e9);
    let engine_seen = snapshot.histogram("engine.handle_nanos").is_some_and(|h| h.count > 0);
    let plans = |variant: &str| records.iter().filter(|r| r.variant == variant).count() as f64;
    let by_kind = recorder.rounds_by_kind();

    let mut out = vec![
        Metric::new("core.secquery_s", "s", secquery),
        Metric::new("core.depth_last_s", "s", mean(records.iter().map(|r| r.depth_last_s))),
        Metric::new(
            "core.tracked_len",
            "count",
            mean(records.iter().map(|r| r.tracked_len as f64)),
        ),
        Metric::new(
            "core.resolve_s",
            "s",
            mean(records.iter().map(|r| r.latency_s - r.secquery_s)),
        ),
        Metric::new("core.plan.qry_f", "count", plans("Qry_F")),
        Metric::new("core.plan.qry_e", "count", plans("Qry_E")),
        Metric::new("core.plan.qry_ba", "count", plans("Qry_Ba")),
        Metric::new("s1.compute_s", "s", secquery - round_s),
        Metric::new("s1.round_s", "s", round_s),
        Metric::new("s1.rounds", "count", rounds),
    ];
    for kind in ROUND_KINDS {
        let (count, seconds) = by_kind.get(kind).copied().unwrap_or_default();
        out.push(Metric::new(&format!("s1.rounds.{kind}"), "count", per_query(count as f64)));
        out.push(Metric::new(&format!("s1.round_s.{kind}"), "s", per_query(seconds)));
    }
    // The simulated link sleeps its RTT while S2 handles the request, so S2's work hides
    // under the RTT: the transport's own cost is whatever the rounds took beyond both.
    let overhead =
        if engine_seen { round_s - handle_s.max(rounds * workload.rtt_seconds()) } else { 0.0 };
    let inbox_max =
        snapshot.histogram("pool.inbox_depth").and_then(|h| h.quantile(1.0)).unwrap_or(0);
    out.extend([
        Metric::new("engine.handle_s", "s", handle_s),
        Metric::new(
            "engine.requests",
            "count",
            per_query(counter_sum(snapshot, "engine.requests.")),
        ),
        Metric::new("transport.overhead_s", "s", overhead),
        Metric::new(
            "transport.bytes_per_round",
            "bytes",
            if rounds > 0.0 { bytes / rounds } else { 0.0 },
        ),
        Metric::new(
            "pool.busy_s",
            "s",
            per_query(
                histogram_sum(snapshot, |n| {
                    n.starts_with("pool.worker.") && n.ends_with(".busy_nanos")
                }) / 1e9,
            ),
        ),
        Metric::new("pool.inbox_depth_max", "count", inbox_max as f64),
        Metric::new("pool.shed", "count", snapshot.counter("pool.shed") as f64),
        Metric::new(
            "serve.idle_refill_s",
            "s",
            per_query(histogram_sum(snapshot, |n| n == "serve.idle_refill_nanos") / 1e9),
        ),
    ]);
    let setup = [
        Metric::new("setup.keygen_s", "s", setup.keygen_s),
        Metric::new("setup.outsource_s", "s", setup.outsource_s),
        Metric::new("setup.connect_s", "s", setup.connect_s),
    ];
    let per_query = out.into_iter().map(|m| m.samples(records.len()));
    setup.into_iter().chain(per_query).chain(unit_costs(keys, seed)).collect()
}
