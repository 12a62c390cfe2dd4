//! End-to-end benchmark of the SecTopK serving stack.
//!
//! ```text
//! sectopk-e2e-bench --workload <scan-1024|resolve-n1000|serve-wan50> --seed <n>
//!                   --seconds <s> --trace <0|1>
//! ```
//!
//! Every query goes through the public front door, `Session::execute` (token → plan →
//! SecQuery → resolution), and every answer is checked against a plaintext oracle.
//! Every run sets the workload up more than once with its seed and runs the first cycle
//! of queries on each deployment; all must give identical rounds, bytes, answers and
//! storage size.  `--trace 0` measures the end-to-end metrics over three passes;
//! `--trace 1` runs two passes, the second traced, so the same comparison shows that
//! tracing changes nothing, and reports the per-layer metrics.  The last line of standard output is
//! one JSON object; the exit code is non-zero when any query errored, any answer
//! failed the oracle, or a self-check failed.  See README.md.

mod layers;
mod oracle;
mod trace;
mod workload;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sectopk_storage::{EncryptionStats, Relation, SortedLists};

use crate::trace::SpanRecorder;
use crate::workload::{
    mix, Deployment, QueryRecord, Workload, ATTRIBUTES, CYCLE, EHL_KEYS, WORKLOADS,
};

/// Each of these silently changes the transport or the worker count under every
/// `connect`, so a run with either set would not measure the named workload.
const FORBIDDEN_ENV: [&str; 2] = [sectopk_protocols::TRANSPORT_ENV, "SECTOPK_INTRA_PARALLEL"];

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Self {
        Metric { name: name.to_string(), unit, value, samples: 1 }
    }

    pub fn samples(mut self, samples: usize) -> Self {
        self.samples = samples;
        self
    }
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Mean of `values` (0 when empty).
pub fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, count) = values.fold((0.0, 0usize), |(s, c), v| (s + v, c + 1));
    if count == 0 {
        0.0
    } else {
        sum / count as f64
    }
}

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    if argv.len() != 8 {
        return Err("expected exactly --workload, --seed, --seconds and --trace".to_string());
    }
    let name = value("--workload")?;
    let workload = Workload::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
    };
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args { workload, seed: number("--seed")?, seconds: number("--seconds")?, trace })
}

fn guard_environment() -> Result<(), String> {
    for var in FORBIDDEN_ENV {
        if std::env::var_os(var).is_some() {
            return Err(format!("{var} is set; unset it so the workload runs as defined"));
        }
    }
    Ok(())
}

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The repository commit, when the benchmark runs from a git checkout.
fn commit() -> String {
    let root = bench_dir().parent().unwrap_or(bench_dir());
    if !root.join(".git").exists() {
        return "unknown (not a git checkout)".to_string();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_string(), |o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Set-ups of the workload per untraced run, all with the run's seed.  Each deployment
/// runs the first cycle of queries, so the run can check that the same seed gives the
/// same counts and answers, and the latency median pools their queries; `setup_s` is
/// the median of the set-ups.
const PASSES: usize = 3;

/// What one run measured and which checks failed.
struct Outcome {
    metrics: Vec<Metric>,
    records: Vec<QueryRecord>,
    problems: Vec<String>,
}

fn prefix(records: &[QueryRecord]) -> impl Iterator<Item = &QueryRecord> {
    records.iter().filter(|r| r.index < CYCLE)
}

fn ok_latencies(records: &[QueryRecord]) -> Vec<f64> {
    records.iter().filter(|r| r.failure.is_none()).map(|r| r.latency_s).collect()
}

/// One set-up of the workload and the queries its deployment ran.
struct Pass {
    records: Vec<QueryRecord>,
    /// Wall time of each session's query loop.
    walls: Vec<f64>,
    storage: EncryptionStats,
}

/// Two passes with the same seed must agree exactly: the first cycle's rounds, bytes and
/// answers, query by query, and the storage size.  `what` names the two passes.
fn compare_passes(a: &Pass, b: &Pass, what: (&str, &str)) -> Vec<String> {
    let mut problems = Vec::new();
    let (first_a, first_b): (Vec<_>, Vec<_>) =
        (prefix(&a.records).collect(), prefix(&b.records).collect());
    if first_a.len() != first_b.len() {
        problems.push(format!("the {} and {} passes ran different first cycles", what.0, what.1));
    }
    for (x, y) in first_a.iter().zip(&first_b) {
        if (x.session, x.index, x.rounds, x.bytes, &x.answer)
            != (y.session, y.index, y.rounds, y.bytes, &y.answer)
        {
            problems.push(format!(
                "session {} query {}: {} {} rounds / {} bytes, {} {} rounds / {} bytes, answers {}",
                x.session,
                x.index,
                what.0,
                x.rounds,
                x.bytes,
                what.1,
                y.rounds,
                y.bytes,
                if x.answer == y.answer { "equal" } else { "differ" }
            ));
        }
    }
    if a.storage != b.storage {
        problems
            .push(format!("the {} and {} set-ups gave different storage sizes", what.0, what.1));
    }
    problems
}

fn untraced(args: &Args, relation: &Relation, lists: &SortedLists) -> Result<Outcome, String> {
    let w = args.workload;
    let until = Instant::now() + Duration::from_secs(args.seconds);
    let mut setups = Vec::new();
    let mut passes = Vec::new();
    for pass in 0..PASSES {
        let mut d = Deployment::set_up(w, args.seed, relation, None)?;
        setups.push(d.timings.total());
        // Only the last pass goes on past its first cycle while `--seconds` remain.
        let deadline = (pass + 1 == PASSES).then_some(until);
        let (records, walls) = workload::run_queries(w, &mut d, args.seed, lists, deadline, None);
        passes.push(Pass { records, walls, storage: d.storage });
    }
    let mut problems = Vec::new();
    for later in &passes[1..] {
        problems.extend(compare_passes(&passes[0], later, ("first", "later")));
    }

    let records: Vec<QueryRecord> = passes.iter().flat_map(|p| p.records.clone()).collect();
    let latencies = ok_latencies(&records);
    // Sessions run side by side, so the workload's rate is the sum of theirs, each over
    // the query loops of every pass.
    let throughput: f64 = (0..w.sessions())
        .map(|s| {
            let wall: f64 = passes.iter().map(|p| p.walls[s]).sum();
            records.iter().filter(|r| r.session == s && r.failure.is_none()).count() as f64 / wall
        })
        .sum();
    let first: Vec<&QueryRecord> = prefix(&passes[0].records).collect();
    let values = (w.rows * ATTRIBUTES) as f64;
    let metrics = vec![
        Metric::new("latency_p50_s", "s", median(&latencies)).samples(latencies.len()),
        Metric::new("throughput_qps", "queries/s", throughput).samples(latencies.len()),
        Metric::new("setup_s", "s", median(&setups)).samples(setups.len()),
        Metric::new("rounds_per_query", "count", mean(first.iter().map(|r| r.rounds as f64)))
            .samples(first.len()),
        Metric::new("bytes_per_query", "bytes", mean(first.iter().map(|r| r.bytes as f64)))
            .samples(first.len()),
        Metric::new("peak_rss_mb", "MiB", peak_rss_mb()),
        Metric::new(
            "storage_bytes_per_value",
            "bytes",
            passes[0].storage.encrypted_bytes as f64 / values,
        ),
    ];
    Ok(Outcome { metrics, records, problems })
}

fn traced(args: &Args, relation: &Relation, lists: &SortedLists) -> Result<Outcome, String> {
    let w = args.workload;

    let mut d = Deployment::set_up(w, args.seed, relation, None)?;
    let (records, walls) = workload::run_queries(w, &mut d, args.seed, lists, None, None);
    let plain = Pass { records, walls, storage: d.storage };
    drop(d);

    let recorder = Arc::new(SpanRecorder::new());
    let mut d = Deployment::set_up(w, args.seed, relation, Some(&recorder))?;
    let (records, walls) =
        workload::run_queries(w, &mut d, args.seed, lists, None, Some(&recorder));
    let snapshot = d.registry.snapshot();
    let mut metrics = layers::per_layer(
        w,
        d.timings,
        &records,
        &snapshot,
        &recorder,
        d.owner.keys(),
        mix(args.seed, 5),
    );
    let traced = Pass { records, walls, storage: d.storage };
    drop(d);

    // Tracing must not change what the program computes or sends.
    let problems = compare_passes(&plain, &traced, ("untraced", "traced"));
    let overhead = median(&ok_latencies(&traced.records)) - median(&ok_latencies(&plain.records));
    metrics.push(Metric::new("trace.overhead_s", "s", overhead).samples(traced.records.len()));

    let spans = bench_dir().join("out").join(format!("spans-{}-seed{}.jsonl", w.name, args.seed));
    recorder.write_jsonl(&spans).map_err(|e| format!("writing {}: {e}", spans.display()))?;
    println!("spans: {} ({} spans)", spans.display(), recorder.spans().len());

    let mut records = plain.records;
    records.extend(traced.records);
    Ok(Outcome { metrics, records, problems })
}

fn run() -> Result<ExitCode, String> {
    let args = parse_args()?;
    guard_environment()?;
    let w = args.workload;
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "run: workload={} seed={} seconds={} trace={} nproc={nproc} N={} n={} M={ATTRIBUTES} s={EHL_KEYS} \
         depth_cap={} sessions={} commit={}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.modulus_bits,
        w.rows,
        w.depth_cap,
        w.sessions(),
        commit()
    );
    let relation = w.relation(args.seed);
    let lists = relation.sorted_lists();
    let mut outcome = if args.trace {
        traced(&args, &relation, &lists)?
    } else {
        untraced(&args, &relation, &lists)?
    };

    let attempted = outcome.records.len();
    let failed = outcome.records.iter().filter(|r| r.failure.is_some()).count();
    for r in &outcome.records {
        println!(
            "query session={} index={} variant={} latency_s={:.4} secquery_s={:.4} rounds={} \
             bytes={} results={:?}{}",
            r.session,
            r.index,
            r.variant,
            r.latency_s,
            r.secquery_s,
            r.rounds,
            r.bytes,
            r.answer.iter().map(|(id, worst, _)| (*id, *worst)).collect::<Vec<_>>(),
            r.failure.as_ref().map_or(String::new(), |f| format!(" FAILED: {f}"))
        );
    }
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            outcome.problems.push(format!("{} is not a finite number", m.name));
        }
        println!("metric {} = {} {} (samples: {})", m.name, m.value, m.unit, m.samples);
    }
    for problem in &outcome.problems {
        println!("CHECK FAILED: {problem}");
    }
    println!(
        "failed_ratio = {} ({failed} of {attempted} queries)",
        failed as f64 / attempted.max(1) as f64
    );

    let correct = failed == 0 && attempted > 0 && outcome.problems.is_empty();
    let mut json = format!("{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{");
    for (i, m) in outcome.metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            json,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
    Ok(if correct { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("sectopk-e2e-bench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pass(rounds: [u64; CYCLE], answer: Option<u64>, encrypted_bytes: usize) -> Pass {
        let records = (0..CYCLE)
            .map(|index| QueryRecord {
                session: 0,
                index,
                latency_s: 1.0,
                secquery_s: 0.5,
                depth_last_s: 0.2,
                tracked_len: 4,
                rounds: rounds[index],
                bytes: 1000,
                variant: "Qry_E",
                answer: vec![(answer, 40, 40)],
                failure: None,
            })
            .collect();
        let storage = EncryptionStats {
            num_objects: 16,
            num_attributes: ATTRIBUTES,
            paillier_encryptions: 384,
            encrypted_bytes,
        };
        Pass { records, walls: vec![3.0], storage }
    }

    #[test]
    fn passes_must_agree_on_counts_answers_and_storage() {
        let first = pass([25, 22, 21], Some(7), 98_000);
        assert!(compare_passes(&first, &pass([25, 22, 21], Some(7), 98_000), ("a", "b")).is_empty());
        assert_eq!(
            compare_passes(&first, &pass([25, 23, 21], Some(7), 98_000), ("a", "b")).len(),
            1
        );
        assert_eq!(
            compare_passes(&first, &pass([25, 22, 21], Some(8), 98_000), ("a", "b")).len(),
            3
        );
        assert_eq!(
            compare_passes(&first, &pass([25, 22, 21], Some(7), 98_001), ("a", "b")).len(),
            1
        );
    }
}
