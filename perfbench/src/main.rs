//! End-to-end and per-layer benchmark of the energy-mst workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold_sweep|warm_reuse|churn_session|service_mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the named workload runs in this process: set-up is
//! repeated (see [`repeat_setup`]; `churn_session` repeats it through
//! the run instead; median reported), the recorded-seed
//! digest probe is checked, then timed ops run in a closed loop for
//! `--seconds` of wall time, each followed by an untimed output check.
//! With `--trace 1` the run records layer spans instead (see
//! [`spans`]) over a slice of every workload, so every per-layer metric
//! is measured in every traced run. Every metric is printed with its
//! unit; the last stdout line is one JSON object. The process exits
//! non-zero when any check failed.
//!
//! The workloads, their load shapes, the recorded digests and the
//! layer-to-metric prediction table live in `perfbench/spec.json`.

mod churn;
mod cold;
mod service;
mod spans;
mod warm;

use emst_core::{EoptConfig, GhsVariant, Protocol, RankScheme, RunOutcome, RunOutput};
use emst_graph::SpanningTree;
use emst_service::json::Json;
use std::fmt::Write as _;
use std::time::Instant;

/// Set-up repetitions per untraced run: at least this many, and more
/// until [`SETUP_MIN_S`] has passed; `setup_s` is their median.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 1.0;

/// The seed the digests in `spec.json` were recorded at.
pub const RECORDED_SEED: u64 = 1;

/// The benchmark specification, embedded so the binary carries the
/// digests it checks against.
const SPEC: &str = include_str!("../spec.json");

const WORKLOADS: [&str; 4] = ["cold_sweep", "warm_reuse", "churn_session", "service_mixed"];

/// Accumulated pass/fail counts of one run's ops and checks.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one op; `problems` lists what its output checks found.
    pub fn op(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            eprintln!("FAILED {what}: {}", problems.join("; "));
        }
    }
}

/// The protocol a benchmark protocol name stands for.
pub fn protocol(name: &str) -> Protocol {
    match name {
        "ghs_original" => Protocol::Ghs(GhsVariant::Original),
        "ghs_modified" => Protocol::Ghs(GhsVariant::Modified),
        "eopt" => Protocol::Eopt(EoptConfig::default()),
        "co_nnt" => Protocol::Nnt(RankScheme::Diagonal),
        _ => unreachable!("not a benchmark protocol: {name}"),
    }
}

/// Output checks of named runs over an `n`-point instance: each must
/// complete; Co-NNT must be a valid spanning tree and every other tree
/// must equal the exact MST `oracle` edge for edge.
pub fn check_trees(
    names: &[&str],
    outs: &[RunOutcome],
    n: usize,
    oracle: &SpanningTree,
) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, outcome) in names.iter().zip(outs) {
        let RunOutcome::Complete(out) = outcome else {
            problems.push(format!("{name}: run did not complete"));
            continue;
        };
        let ok = if *name == "co_nnt" {
            out.tree.n() == n && out.tree.is_valid()
        } else {
            out.tree.same_edges(oracle)
        };
        if !ok {
            problems.push(format!("{name}: tree fails its oracle check"));
        }
    }
    problems
}

/// FNV-1a over the simulated statistics of a run: message and round
/// counts, energy bit patterns and stage marks. Host timings never enter
/// it, so it repeats exactly across runs of the same code.
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// Digest of named runs.
    pub fn of_runs(names: &[&str], outs: &[RunOutcome]) -> Self {
        let mut d = Digest::default();
        for (name, o) in names.iter().zip(outs) {
            if let Some(out) = o.output() {
                d.run(name, out);
            }
        }
        d
    }

    /// Folds in a protocol run: totals plus every stage mark.
    fn run(&mut self, name: &str, out: &RunOutput) {
        self.str(name);
        self.u64(out.stats.messages);
        self.u64(out.stats.rounds);
        self.u64(out.stats.energy.to_bits());
        self.u64(out.tree.edges().len() as u64);
        for m in &out.stages {
            self.str(m.scope);
            self.str(m.name);
            self.u64(m.messages);
            self.u64(m.rounds);
            self.u64(m.energy.to_bits());
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The parsed `spec.json`.
pub fn spec() -> Json {
    Json::parse(SPEC).expect("spec.json is valid JSON")
}

/// Field `field` of `workload`'s entry in `spec.json`.
fn spec_field(workload: &str, field: &str) -> Option<Json> {
    spec().get("workloads")?.get(workload)?.get(field).cloned()
}

/// Checks a probe digest against the one recorded in `spec.json`.
pub fn check_digest(workload: &str, digest: &Digest) -> Vec<String> {
    match spec_field(workload, "digest")
        .as_ref()
        .and_then(|d| d.as_str())
    {
        Some(r) if r == digest.hex() => Vec::new(),
        Some(r) => vec![format!(
            "digest at seed {RECORDED_SEED} is {} but spec.json records {r}",
            digest.hex()
        )],
        None => vec![format!("spec.json records no digest for {workload}")],
    }
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` and returns its value with the elapsed milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, ms_since(t))
}

/// Runs a set-up at least [`SETUP_REPS`] times and until [`SETUP_MIN_S`]
/// seconds have passed, dropping all but the last result, and returns it
/// with the median set-up time in seconds. Cheap set-ups repeat more, so
/// their median is as steady as that of expensive ones.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times: Vec<f64> = Vec::new();
    let mut last = None;
    while times.len() < SETUP_REPS || times.iter().sum::<f64>() < SETUP_MIN_S {
        drop(last.take());
        let (v, ms) = timed(&mut setup);
        times.push(ms / 1e3);
        last = Some(v);
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Median of a sample (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Nearest-rank percentile `p ∈ (0, 1]` of a sample (0 when empty).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set (`VmHWM`) of this process in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What an untraced workload run hands back for the end-to-end metrics.
pub struct E2e {
    /// Timed op latencies in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Median set-up time in seconds.
    pub setup_s: f64,
}

/// An ordered metric table: `(name, value, unit)`.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    let seconds = seconds.unwrap_or(20.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(RECORDED_SEED),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut checks = Checks::default();
    let mut metrics = Metrics::default();
    if args.trace {
        run_traced(&args, &mut checks, &mut metrics);
    } else {
        run_untraced(&args, &mut checks, &mut metrics);
    }
    let correct = checks.failed == 0;
    let mut json = String::new();
    for (name, value, unit) in &metrics.0 {
        println!("{name:<44} {value:>16.6} {unit}");
        if !json.is_empty() {
            json.push(',');
        }
        let _ = write!(json, r#""{name}":{{"value":{value},"unit":"{unit}"}}"#);
    }
    println!(
        r#"{{"correct":{correct},"attempted":{},"failed":{},"metrics":{{{json}}}}}"#,
        checks.attempted, checks.failed
    );
    if !correct {
        std::process::exit(1);
    }
}

fn run_untraced(args: &Args, checks: &mut Checks, metrics: &mut Metrics) {
    let e2e = match args.workload.as_str() {
        "cold_sweep" => cold::run(args.seed, args.seconds, checks),
        "warm_reuse" => warm::run(args.seed, args.seconds, checks),
        "churn_session" => churn::run(args.seed, args.seconds, checks),
        _ => service::run(args.seed, args.seconds, checks),
    };
    let lat = &e2e.latencies_ms;
    let busy_s: f64 = lat.iter().sum::<f64>() / 1e3;
    let tail = spec_field(&args.workload, "tail_percentile")
        .and_then(|t| t.as_f64())
        .expect("spec.json gives every workload a tail_percentile");
    let beyond = lat.len() as f64 * (1.0 - tail);
    eprintln!(
        "{}: {} timed ops, p{} has {beyond:.0} samples beyond it",
        args.workload,
        lat.len(),
        tail * 100.0
    );
    let attempted = checks.attempted.max(1) as f64;
    metrics.put("ops_per_s", lat.len() as f64 / busy_s.max(1e-9), "1/s");
    metrics.put("op_p50_ms", median(lat), "ms");
    metrics.put("op_tail_ms", percentile(lat, tail), "ms");
    metrics.put(
        "ok_frac",
        (attempted - checks.failed as f64) / attempted,
        "fraction",
    );
    metrics.put("setup_s", e2e.setup_s, "s");
    metrics.put("peak_rss_mb", peak_rss_mb(), "MiB");
}

fn run_traced(args: &Args, checks: &mut Checks, metrics: &mut Metrics) {
    let slice = args.seconds / WORKLOADS.len() as f64;
    let mut tracer = spans::Tracer::new();
    cold::trace(args.seed, slice, &mut tracer, checks, metrics);
    warm::trace(args.seed, slice, &mut tracer, checks, metrics);
    churn::trace(args.seed, slice, &mut tracer, checks, metrics);
    // Last: it pins this thread to one CPU.
    service::trace(args.seed, slice, &mut tracer, checks, metrics);
    let path = format!(".bench_out/spans-{}-{}.jsonl", args.workload, args.seed);
    if let Err(e) = tracer.write_jsonl(&path) {
        eprintln!("could not write {path}: {e}");
    } else {
        eprintln!("wrote {} spans to {path}", tracer.len());
    }
}
