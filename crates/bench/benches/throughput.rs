//! Multi-session serving throughput: aggregate queries/second of the `QueryServer` as
//! the number of concurrent sessions (and S2 worker threads) grows.
//!
//! Two regimes matter:
//!
//! * **Latency-bound** (nonzero inter-cloud RTT — the paper's §11.2.5 WAN setting):
//!   each query spends most of its wall-clock waiting out round trips, so multiplexing
//!   N sessions over one S2 overlaps the waits and scales aggregate throughput toward
//!   N× until the CPU saturates.  This is the regime the committed baseline
//!   (`BENCH_throughput.json`) sweeps, because it is hardware-independent: the speedup
//!   comes from overlapping waits, not from core count.
//! * **CPU-bound** (ideal link): scaling follows the host's core count; the sweep
//!   records it for reference without asserting on it.
//!
//! `SECTOPK_RECORD_BASELINE=1 cargo bench -p sectopk-bench --bench throughput` re-runs
//! the sweep at 1/4/8/16 sessions and rewrites `BENCH_throughput.json` at the
//! workspace root, asserting the ≥3× aggregate-throughput criterion at 8 sessions.
//! The sweep also records a `tcp-loopback` column — the same workload over real
//! sockets to a loopback `TcpCloudServer` — and asserts its aggregate q/s stays
//! within a 5× sanity bound of the multiplex ideal-link rows in both directions,
//! plus a `tcp-faults-*` column pricing fault-tolerant serving: q/s and p99 query
//! latency at 0% / 1% / 5% injected connection drops, retry and resumption riding
//! out every fault (`tests/chaos_soak.rs` proves those runs byte-identical; the
//! bench prices them).
//!
//! A second sweep (`intra-*` rows) measures **intra-query** parallelism: one session,
//! one query, 1/2/4/8 `SECTOPK_INTRA_PARALLEL`-style workers threading S2's
//! parallel-compute/serial-commit pipeline and S1's data-parallel client loops.  On a
//! host with ≥4 cores, 4 workers must cut single-query latency by ≥2× on the ideal
//! link; on smaller hosts the sweep records honest numbers (plus the `cores` field)
//! without asserting.

use std::sync::Arc;
use std::time::{Duration, Instant};

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

use sectopk_core::{DataOwner, FaultPlan, Outsourced, Query, RetryPolicy, Session, VariantChoice};
use sectopk_crypto::pool::shard_seed;
use sectopk_datasets::{fig3_relation, QueryWorkload, WorkloadSpec};
use sectopk_protocols::{LinkProfile, MultiplexServer, TcpCloudServer, TcpServerConfig};
use sectopk_server::{QueryServer, ServeConfig};

/// One variant the planner chose during a sweep point, with how often.
#[derive(Clone, Debug, Serialize)]
struct VariantCount {
    variant: &'static str,
    p: Option<usize>,
    queries: usize,
}

/// One row of the recorded sweep.  `planned_variants` and `errors` make the recorded
/// baseline self-describing: every row names the variants (and `p`) the adaptive
/// planner executed and how many queries failed.
#[derive(Clone, Debug, Serialize)]
struct ThroughputPoint {
    /// Link column: `wan-20ms` / `ideal` (simulated `LinkProfile`s over the multiplex
    /// transport), `tcp-loopback` (real sockets to a loopback `TcpCloudServer`), or
    /// `intra-ideal` / `intra-wan-20ms` (single-session single-query latency swept
    /// over the intra-query worker count).
    link: String,
    sessions: usize,
    /// S2-side worker threads: the session count for the multi-session rows, the
    /// intra-query worker count for the `intra-*` rows.
    s2_workers: usize,
    queries: usize,
    rtt_ms: u64,
    wall_seconds: f64,
    qps: f64,
    /// Aggregate-throughput speedup over the 1-session run of the same link profile
    /// (for `intra-*` rows: single-query speedup over the 1-worker run; for
    /// `tcp-faults-*` rows: throughput relative to the fault-free control row, so a
    /// value below 1 is the price of the injected faults).
    speedup_vs_one_session: f64,
    /// Cores available on the recording host — ideal-link scaling (and whether the
    /// intra-query ≥2× assertion was armed) depends on it.
    cores: usize,
    rounds_total: u64,
    bytes_total: u64,
    /// The planner decisions behind the run (`variant(Auto)` serving).
    planned_variants: Vec<VariantCount>,
    /// Failed queries across all sessions (serving continues past failures).
    errors: usize,
    /// For the `tcp-faults-*` rows: the injected fault period (a connection is severed
    /// after every Nth frame send; `0` = fault-free control row).  `null` elsewhere.
    fault_drop_every: Option<u64>,
    /// For the `tcp-faults-*` rows: p99 per-query latency in seconds — the tail cost
    /// of riding out reconnect-resume-resend under the injected fault rate.  `null`
    /// elsewhere, and `null` whenever the run produced fewer than [`MIN_P99_SAMPLES`]
    /// latency samples (a 99th percentile of 16 queries is just the max, so small runs
    /// report nothing rather than a mislabeled number).
    p99_seconds: Option<f64>,
    /// Transport-level faults absorbed invisibly by retry (reconnect-resume
    /// recoveries, shed-retry successes) across all sessions.  Nonzero on the
    /// fault-injected rows, zero elsewhere — kept separate from `errors`, which counts
    /// failed *queries*.
    transport_failures: u64,
}

/// Minimum latency samples before a p99 is reported.  Below this the 99th percentile
/// degenerates to the sample maximum (for n ≤ 100, `ceil(0.99·n) == n`), which is a
/// different — and much noisier — statistic, so small runs record `null` instead.
const MIN_P99_SAMPLES: usize = 100;

fn available_cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn serving_fixture() -> (DataOwner, Outsourced, QueryWorkload) {
    let mut rng = StdRng::seed_from_u64(0x7117);
    let owner = DataOwner::new(128, 2, &mut rng).expect("keygen");
    let relation = fig3_relation();
    let (outsourced, _) = owner.outsource(&relation, &mut rng).expect("encryption");
    let spec = WorkloadSpec { queries: 16, m_range: (1, 3), k_range: (1, 3) };
    let workload = QueryWorkload::generate(&spec, 3, 0x7117);
    (owner, outsourced, workload)
}

fn measure(
    owner: &DataOwner,
    outsourced: &Outsourced,
    workload: &QueryWorkload,
    sessions: usize,
    rtt_ms: u64,
    one_session_qps: Option<f64>,
) -> ThroughputPoint {
    let server = QueryServer::new(owner.keys(), outsourced.clone(), sessions);
    let config = ServeConfig::new(sessions, 0xBEA7).with_variant(VariantChoice::Auto).with_link(
        if rtt_ms == 0 { LinkProfile::ideal() } else { LinkProfile::with_rtt_ms(rtt_ms) },
    );
    let report = server.serve(workload, &config).expect("serve");
    let qps = report.throughput_qps();
    ThroughputPoint {
        link: if rtt_ms == 0 { "ideal".into() } else { format!("wan-{rtt_ms}ms") },
        sessions,
        s2_workers: sessions,
        queries: report.queries,
        rtt_ms,
        wall_seconds: report.wall_seconds,
        qps,
        speedup_vs_one_session: one_session_qps.map_or(1.0, |base| qps / base),
        cores: available_cores(),
        rounds_total: report.sessions.iter().map(|s| s.metrics.rounds).sum(),
        bytes_total: report.sessions.iter().map(|s| s.metrics.bytes).sum(),
        planned_variants: report
            .variant_histogram()
            .into_iter()
            .map(|(variant, p, queries)| VariantCount { variant, p, queries })
            .collect(),
        errors: report.error_count(),
        fault_drop_every: None,
        p99_seconds: None,
        transport_failures: report.transport_failures(),
    }
}

/// Single-session, single-query latency at `workers` intra-query workers: S2 executes
/// its decrypt batches through the parallel-compute/serial-commit pipeline and S1
/// data-parallelizes its client loops, while the transcript stays byte-identical to
/// the serial run (see `tests/intra_parallel_equivalence.rs`).  `qps` here is simply
/// `1 / latency`.
fn measure_intra(
    owner: &DataOwner,
    outsourced: &Outsourced,
    single_query: &QueryWorkload,
    workers: usize,
    rtt_ms: u64,
    one_worker_qps: Option<f64>,
) -> ThroughputPoint {
    let server = QueryServer::new(owner.keys(), outsourced.clone(), 1);
    let config = ServeConfig::new(1, 0xBEA7)
        .with_variant(VariantChoice::Auto)
        .with_intra_workers(workers)
        .with_link(if rtt_ms == 0 {
            LinkProfile::ideal()
        } else {
            LinkProfile::with_rtt_ms(rtt_ms)
        });
    let report = server.serve(single_query, &config).expect("serve");
    let qps = report.throughput_qps();
    ThroughputPoint {
        link: if rtt_ms == 0 { "intra-ideal".into() } else { format!("intra-wan-{rtt_ms}ms") },
        sessions: 1,
        s2_workers: workers,
        queries: report.queries,
        rtt_ms,
        wall_seconds: report.wall_seconds,
        qps,
        speedup_vs_one_session: one_worker_qps.map_or(1.0, |base| qps / base),
        cores: available_cores(),
        rounds_total: report.sessions.iter().map(|s| s.metrics.rounds).sum(),
        bytes_total: report.sessions.iter().map(|s| s.metrics.bytes).sum(),
        planned_variants: report
            .variant_histogram()
            .into_iter()
            .map(|(variant, p, queries)| VariantCount { variant, p, queries })
            .collect(),
        errors: report.error_count(),
        fault_drop_every: None,
        p99_seconds: None,
        transport_failures: report.transport_failures(),
    }
}

/// Serve the workload over **real TCP sockets**: a loopback `TcpCloudServer` with a
/// `sessions`-wide worker pool, one networked `DirectSession` per session thread, the
/// same round-robin query deal as `QueryServer::serve`.  Real sockets give real-socket
/// numbers; the simulated `LinkProfile` rows stay the reproducible baseline.
fn measure_tcp(
    owner: &DataOwner,
    outsourced: &Outsourced,
    workload: &QueryWorkload,
    sessions: usize,
    one_session_qps: Option<f64>,
) -> ThroughputPoint {
    let listener = TcpCloudServer::serve_pool(
        "127.0.0.1:0",
        Arc::new(MultiplexServer::new(sessions)),
        TcpServerConfig::default(),
    )
    .expect("bind loopback listener");
    let addr = listener.local_addr().to_string();
    let parts = workload.partition(sessions);

    struct SessionTally {
        queries: usize,
        errors: usize,
        rounds: u64,
        bytes: u64,
        plans: Vec<(&'static str, Option<usize>)>,
    }

    let start = Instant::now();
    let tallies: Vec<SessionTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .iter()
            .enumerate()
            .map(|(i, queries)| {
                let addr = addr.as_str();
                scope.spawn(move || {
                    let mut session = owner
                        .connect_remote(outsourced, addr, shard_seed(0xBEA7, i as u64))
                        .expect("remote session connects");
                    let mut tally = SessionTally {
                        queries: queries.len(),
                        errors: 0,
                        rounds: 0,
                        bytes: 0,
                        plans: Vec::new(),
                    };
                    for query in queries {
                        let built =
                            Query::from_spec(query.clone()).with_variant(VariantChoice::Auto);
                        match session.execute(&built) {
                            Ok(resolved) => {
                                if let Some(plan) = resolved.plan() {
                                    tally
                                        .plans
                                        .push((plan.variant_name(), plan.batching_parameter()));
                                }
                            }
                            Err(_) => tally.errors += 1,
                        }
                    }
                    let metrics = session.metrics();
                    tally.rounds = metrics.rounds;
                    tally.bytes = metrics.bytes;
                    tally
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("session thread")).collect()
    });
    let wall_seconds = start.elapsed().as_secs_f64();

    let queries: usize = tallies.iter().map(|t| t.queries).sum();
    let qps = queries as f64 / wall_seconds;
    let mut planned_variants: Vec<VariantCount> = Vec::new();
    for (variant, p) in tallies.iter().flat_map(|t| t.plans.iter().copied()) {
        match planned_variants.iter_mut().find(|v| (v.variant, v.p) == (variant, p)) {
            Some(row) => row.queries += 1,
            None => planned_variants.push(VariantCount { variant, p, queries: 1 }),
        }
    }
    ThroughputPoint {
        link: "tcp-loopback".into(),
        sessions,
        s2_workers: sessions,
        queries,
        rtt_ms: 0,
        wall_seconds,
        qps,
        speedup_vs_one_session: one_session_qps.map_or(1.0, |base| qps / base),
        cores: available_cores(),
        rounds_total: tallies.iter().map(|t| t.rounds).sum(),
        bytes_total: tallies.iter().map(|t| t.bytes).sum(),
        planned_variants,
        errors: tallies.iter().map(|t| t.errors).sum(),
        fault_drop_every: None,
        p99_seconds: None,
        transport_failures: 0,
    }
}

/// Serve the workload through [`QueryServer::serve_tcp`] — real loopback sockets with
/// session resumption and a patient [`RetryPolicy`] — while a deterministic
/// [`FaultPlan`] severs each session's connection after every `drop_every`th frame
/// send (`0` = fault-free control).  Records aggregate q/s plus the p99 per-query
/// latency: the throughput and tail cost of riding out reconnect-resume-resend at the
/// injected fault rate.  `tests/chaos_soak.rs` proves these runs are byte-identical to
/// fault-free serving; this row prices them.
fn measure_tcp_faults(
    owner: &DataOwner,
    outsourced: &Outsourced,
    workload: &QueryWorkload,
    sessions: usize,
    drop_every: u64,
    fault_free_qps: Option<f64>,
) -> ThroughputPoint {
    let server = QueryServer::new(owner.keys(), outsourced.clone(), sessions);
    let retry = RetryPolicy {
        attempts: 12,
        backoff: Duration::from_millis(1),
        backoff_cap: Duration::from_millis(20),
        deadline: Duration::from_secs(120),
    };
    let mut config =
        ServeConfig::new(sessions, 0xBEA7).with_variant(VariantChoice::Auto).with_retry(retry);
    if drop_every > 0 {
        config = config.with_faults(FaultPlan::none().with_drop_after_send_every(drop_every));
    }
    let report = server.serve_tcp(workload, &config).expect("fault-injected TCP serve");
    let qps = report.throughput_qps();
    let mut latencies: Vec<f64> = report
        .sessions
        .iter()
        .flat_map(|s| s.outcomes.iter().map(|o| o.stats.total_seconds))
        .collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    // Below MIN_P99_SAMPLES the "p99" index degenerates to the last element — the
    // sample max, not a percentile — so report None uniformly instead of a number
    // that changes meaning with the sample count.
    let p99 = if latencies.len() >= MIN_P99_SAMPLES {
        latencies.get(((latencies.len() as f64 * 0.99).ceil() as usize).saturating_sub(1)).copied()
    } else {
        None
    };
    let drop_pct = if drop_every == 0 { 0.0 } else { 100.0 / drop_every as f64 };
    ThroughputPoint {
        link: format!("tcp-faults-{drop_pct}pct"),
        sessions,
        s2_workers: sessions,
        queries: report.queries,
        rtt_ms: 0,
        wall_seconds: report.wall_seconds,
        qps,
        speedup_vs_one_session: fault_free_qps.map_or(1.0, |base| qps / base),
        cores: available_cores(),
        rounds_total: report.sessions.iter().map(|s| s.metrics.rounds).sum(),
        bytes_total: report.sessions.iter().map(|s| s.metrics.bytes).sum(),
        planned_variants: report
            .variant_histogram()
            .into_iter()
            .map(|(variant, p, queries)| VariantCount { variant, p, queries })
            .collect(),
        errors: report.error_count(),
        fault_drop_every: Some(drop_every),
        p99_seconds: p99,
        transport_failures: report.transport_failures(),
    }
}

/// Sweep 1/4/8/16 concurrent sessions over the WAN and ideal link profiles, print the
/// comparison, record the baseline, and enforce the ≥3× criterion at 8 sessions.
fn record_throughput_baseline() {
    let (owner, outsourced, workload) = serving_fixture();
    let mut results: Vec<ThroughputPoint> = Vec::new();
    println!("\nAggregate serving throughput, 16 queries dealt round-robin:");
    println!("{:>8} {:>7} {:>9} {:>9} {:>9}", "link", "sessions", "wall(s)", "q/s", "speedup");
    for &rtt_ms in &[20u64, 0] {
        let mut one_session_qps = None;
        for &sessions in &[1usize, 4, 8, 16] {
            let point = measure(&owner, &outsourced, &workload, sessions, rtt_ms, one_session_qps);
            if sessions == 1 {
                one_session_qps = Some(point.qps);
            }
            println!(
                "{:>8} {:>7} {:>9.3} {:>9.2} {:>8.2}x",
                if rtt_ms == 0 { "ideal".to_string() } else { format!("{rtt_ms}ms") },
                point.sessions,
                point.wall_seconds,
                point.qps,
                point.speedup_vs_one_session,
            );
            results.push(point.clone());
        }
    }
    // The tcp-loopback column: the same sweep over real sockets.
    let mut one_session_qps = None;
    for &sessions in &[1usize, 4, 8, 16] {
        let point = measure_tcp(&owner, &outsourced, &workload, sessions, one_session_qps);
        if sessions == 1 {
            one_session_qps = Some(point.qps);
        }
        println!(
            "{:>8} {:>7} {:>9.3} {:>9.2} {:>8.2}x",
            "tcp", point.sessions, point.wall_seconds, point.qps, point.speedup_vs_one_session,
        );
        results.push(point.clone());
    }
    // The fault-tolerance column: the same workload through `serve_tcp` with retry and
    // resumption enabled, at 0% / 1% / 5% injected connection drops (a drop after
    // every 100th / 20th frame send).  Every row must come back clean — the retry
    // layer, not the caller, absorbs the faults — and p99 prices the recovery tail.
    println!("\nFault-tolerant TCP serving, 4 sessions, retry + resumption enabled:");
    println!(
        "{:>16} {:>7} {:>9} {:>9} {:>10} {:>9}",
        "link", "drop", "wall(s)", "q/s", "p99(ms)", "vs 0%"
    );
    let mut fault_free_qps = None;
    for &drop_every in &[0u64, 100, 20] {
        let point =
            measure_tcp_faults(&owner, &outsourced, &workload, 4, drop_every, fault_free_qps);
        if drop_every == 0 {
            fault_free_qps = Some(point.qps);
        }
        assert_eq!(
            point.errors, 0,
            "every injected fault must be absorbed by retry (drop_every={drop_every})"
        );
        if drop_every > 0 {
            assert!(
                point.transport_failures > 0,
                "faults were injected (drop_every={drop_every}) but none were absorbed — \
                 the FaultPlan is not reaching the transport"
            );
        }
        println!(
            "{:>16} {:>6}% {:>9.3} {:>9.2} {:>10} {:>8.2}x  ({} faults absorbed)",
            point.link,
            if drop_every == 0 { 0.0 } else { 100.0 / drop_every as f64 },
            point.wall_seconds,
            point.qps,
            point.p99_seconds.map_or_else(|| "n/a".to_string(), |p| format!("{:.2}", p * 1e3)),
            point.speedup_vs_one_session,
            point.transport_failures,
        );
        results.push(point.clone());
    }
    // A loose floor: on loopback, riding out a 5% drop rate costs reconnects and
    // millisecond backoffs, not order-of-magnitude collapse.  A steeper fall means the
    // retry path is rebuilding more than the severed connection.
    let worst = results
        .iter()
        .filter(|p| p.fault_drop_every.is_some_and(|d| d > 0))
        .map(|p| p.speedup_vs_one_session)
        .fold(f64::INFINITY, f64::min);
    assert!(
        worst >= 0.05,
        "faulted serving fell more than 20x below the fault-free control ({worst:.3}x)"
    );

    // Intra-query parallelism: one session, ONE query, sweeping the worker count that
    // threads S2's parallel-compute/serial-commit pipeline and S1's client loops.
    let single = QueryWorkload { queries: vec![workload.queries[0].clone()] };
    println!("\nSingle-query latency vs intra-query workers ({} cores):", available_cores());
    println!("{:>14} {:>7} {:>9} {:>9} {:>9}", "link", "workers", "wall(s)", "q/s", "speedup");
    for &rtt_ms in &[20u64, 0] {
        let mut one_worker_qps = None;
        for &workers in &[1usize, 2, 4, 8] {
            let point =
                measure_intra(&owner, &outsourced, &single, workers, rtt_ms, one_worker_qps);
            if workers == 1 {
                one_worker_qps = Some(point.qps);
            }
            println!(
                "{:>14} {:>7} {:>9.3} {:>9.2} {:>8.2}x",
                point.link,
                point.s2_workers,
                point.wall_seconds,
                point.qps,
                point.speedup_vs_one_session,
            );
            results.push(point.clone());
        }
    }
    // The intra-query criterion: on a host with ≥4 cores, 4 workers must answer a
    // single ideal-link query at least 2× faster than the serial run.  On smaller
    // hosts the rows are recorded honestly (see the `cores` field) without asserting —
    // the scaling claim is meaningless when the OS can't schedule the workers.
    let cores = available_cores();
    let one = results
        .iter()
        .find(|p| p.link == "intra-ideal" && p.s2_workers == 1)
        .expect("1-worker intra point");
    let four = results
        .iter()
        .find(|p| p.link == "intra-ideal" && p.s2_workers == 4)
        .expect("4-worker intra point");
    if cores >= 4 {
        assert!(
            four.qps >= 2.0 * one.qps,
            "4 intra-query workers must cut single-query ideal-link latency ≥2× \
             (got {:.2}× on {cores} cores)",
            four.qps / one.qps
        );
    } else {
        println!(
            "({cores} core(s) available: intra-query scaling recorded without the ≥2x assertion)"
        );
    }

    // Sanity bound on the real-socket overhead: loopback TCP serves the same workload
    // within 5× of the multiplex ideal-link aggregate throughput, in both directions
    // (a collapse or an implausible speedup both indicate a metering/transport bug).
    for &sessions in &[1usize, 4, 8, 16] {
        let ideal = results
            .iter()
            .find(|p| p.link == "ideal" && p.sessions == sessions)
            .expect("ideal point");
        let tcp = results
            .iter()
            .find(|p| p.link == "tcp-loopback" && p.sessions == sessions)
            .expect("tcp point");
        let ratio = tcp.qps / ideal.qps;
        assert!(
            (0.2..=5.0).contains(&ratio),
            "tcp-loopback vs multiplex-ideal q/s at {sessions} sessions out of sanity \
             bounds: {ratio:.2}x"
        );
    }
    // The serving criterion: 8 concurrent sessions + 8 S2 workers must deliver at
    // least 3× the aggregate throughput of the single-session baseline on the
    // latency-bound link.  (The ideal-link scaling additionally depends on core count
    // and is recorded without assertion.)
    let wan: Vec<&ThroughputPoint> = results.iter().filter(|p| p.rtt_ms > 0).collect();
    let base = wan.iter().find(|p| p.sessions == 1).expect("1-session WAN point");
    let eight = wan.iter().find(|p| p.sessions == 8).expect("8-session WAN point");
    assert!(
        eight.qps >= 3.0 * base.qps,
        "8-session serving must be ≥3× the 1-session baseline (got {:.2}×)",
        eight.qps / base.qps
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    let json = serde_json::to_string_pretty(&results).expect("serialize baseline");
    if let Err(e) = std::fs::write(path, json + "\n") {
        eprintln!("could not record BENCH_throughput.json: {e}");
    } else {
        println!("baseline recorded to BENCH_throughput.json\n");
    }
}

fn bench_throughput(c: &mut Criterion) {
    if std::env::var("SECTOPK_RECORD_BASELINE").is_ok() {
        record_throughput_baseline();
    } else {
        println!(
            "\n(set SECTOPK_RECORD_BASELINE=1 to re-run the 1/4/8/16-session serving sweep \
             and rewrite BENCH_throughput.json)"
        );
    }

    let (owner, outsourced, workload) = serving_fixture();
    let mut group = c.benchmark_group("serving_throughput");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));

    // Timed ideal-link serving at small session counts (the WAN sweep above is a
    // one-shot measurement: its wall-clock is dominated by deliberate sleeps).
    for &sessions in &[1usize, 4] {
        group.bench_with_input(
            BenchmarkId::new("serve_16_queries_ideal_link", sessions),
            &sessions,
            |b, &sessions| {
                let server = QueryServer::new(owner.keys(), outsourced.clone(), sessions);
                let config = ServeConfig::new(sessions, 0xBEA7).with_variant(VariantChoice::Auto);
                b.iter(|| black_box(server.serve(&workload, &config).expect("serve")))
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_throughput);
criterion_main!(benches);
