//! `service_mixed`: the HTTP service under one closed-loop client.
//!
//! An in-process `serve()` on loopback; one keep-alive connection sends
//! `POST /run` requests back to back, cycling modified GHS, EOPT and
//! Co-NNT at `n` = [`N`]. Nine in ten requests hit one of
//! [`WARM_KEYS`] primed seeds; every tenth uses a fresh seed, a cache
//! miss. Each op is one request. Every response must be a 200 whose body
//! parses and matches an in-process run of the same request (energy
//! bits included), whose trees are checked against the exact-MST oracle.

use crate::spans::{Samples, Tracer};
use crate::{timed, Checks, Digest, E2e, Metrics, RECORDED_SEED};
use emst_core::{Instance, InstanceCache, InstanceKey, RunOutcome, Sim};
use emst_geom::{mix_seed, paper_phase2_radius};
use emst_graph::euclidean_mst;
use emst_service::http::{read_request, write_response, MAX_BODY_BYTES};
use emst_service::json::Json;
use emst_service::{serve, Client, Drain, ServerHandle, ServiceConfig, TrialRequest};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

pub const N: usize = 500;
pub const WARM_KEYS: u64 = 4;
/// Fresh-seed requests per thousand.
pub const COLD_PER_MILLE: u64 = 100;
const PROTOCOLS: [&str; 3] = ["ghs_modified", "eopt", "co_nnt"];
/// Requests the digest probe sends (includes one fresh-seed request).
const PROBE_REQUESTS: u64 = 12;

/// Request `i` of a run: `(body, expected cache hit)`. Cold requests are
/// spread evenly (Bresenham) at [`COLD_PER_MILLE`].
fn request(seed: u64, i: u64) -> (String, bool) {
    let cold = (i + 1) * COLD_PER_MILLE / 1000 > i * COLD_PER_MILLE / 1000;
    let s = if cold {
        mix_seed(seed, 1_000_000 + i)
    } else {
        mix_seed(seed, i % WARM_KEYS)
    };
    (body(PROTOCOLS[(i % 3) as usize], s), !cold)
}

/// The warm keys' bodies, each protocol over each warm seed: what
/// set-up primes.
fn warm_bodies(seed: u64) -> Vec<String> {
    (0..WARM_KEYS)
        .flat_map(|k| PROTOCOLS.map(|p| body(p, mix_seed(seed, k))))
        .collect()
}

fn body(protocol: &str, seed: u64) -> String {
    if protocol == "ghs_modified" {
        let r = paper_phase2_radius(N);
        format!(r#"{{"protocol":"{protocol}","n":{N},"seed":{seed},"radius":{r}}}"#)
    } else {
        format!(r#"{{"protocol":"{protocol}","n":{N},"seed":{seed}}}"#)
    }
}

/// What a response must report, from an in-process run.
#[derive(Clone)]
struct Expect {
    numbers: [(&'static str, u64); 7],
    problems: Vec<String>,
}

/// An in-process run of one request.
struct Replay {
    protocol: String,
    inst: Arc<Instance>,
    outcome: RunOutcome,
    /// Whether the cache held the instance.
    hit: bool,
}

/// Runs `body` in process exactly as the server does, over `cache`.
fn replay(cache: &InstanceCache, body: &str) -> Replay {
    let req = TrialRequest::parse(body).expect("benchmark requests are valid");
    let key = InstanceKey::new(req.seed, req.n, req.trial, req.radius.unwrap_or(0.0));
    let (inst, hit) = cache.get_or_generate(key);
    let mut sim = Sim::from_instance(&inst)
        .energy(req.energy)
        .shards(req.shards);
    if let Some(r) = req.radius {
        sim = sim.radius(r);
    }
    let outcome = sim.try_run_checked(req.protocol).expect("valid config");
    Replay {
        protocol: req.protocol_name,
        inst,
        outcome,
        hit,
    }
}

/// [`replay`] plus the oracle check of its tree: what the response to
/// `body` must report, and whether it must be a cache hit.
fn reference(cache: &InstanceCache, body: &str) -> (Expect, bool) {
    let r = replay(cache, body);
    (expect(&r), r.hit)
}

fn expect(r: &Replay) -> Expect {
    let problems = crate::check_trees(
        &[r.protocol.as_str()],
        std::slice::from_ref(&r.outcome),
        r.inst.n(),
        &euclidean_mst(r.inst.points()),
    );
    let Some(out) = r.outcome.output() else {
        return Expect {
            numbers: [("messages", u64::MAX); 7],
            problems,
        };
    };
    Expect {
        numbers: [
            ("energy_bits", out.stats.energy.to_bits()),
            ("rx_energy_bits", out.stats.rx_energy.to_bits()),
            ("idle_energy_bits", out.stats.idle_energy.to_bits()),
            ("messages", out.stats.messages),
            ("rounds", out.stats.rounds),
            ("fragments", out.fragments as u64),
            ("edges", out.tree.edges().len() as u64),
        ],
        problems,
    }
}

/// Checks one response against its expectation.
fn check(status: u16, text: &str, hit: bool, want: &Expect) -> (Vec<String>, Option<Json>) {
    let mut problems = want.problems.clone();
    if status != 200 {
        problems.push(format!("status {status}: {text}"));
        return (problems, None);
    }
    let doc = match Json::parse(text) {
        Ok(d) => d,
        Err(e) => {
            problems.push(format!("body does not parse: {e}"));
            return (problems, None);
        }
    };
    if doc.get("outcome").and_then(Json::as_str) != Some("complete") {
        problems.push("outcome is not complete".to_string());
    }
    if doc.get("cache_hit").and_then(Json::as_bool) != Some(hit) {
        problems.push(format!("cache_hit is not {hit}"));
    }
    for (field, v) in want.numbers {
        if doc.get(field).and_then(Json::as_u64) != Some(v) {
            problems.push(format!("{field} differs from the in-process run"));
        }
    }
    (problems, Some(doc))
}

struct Server {
    // Declared first so the connection closes before the server drains.
    client: Client,
    handle: ServerHandle,
}

fn post(client: &mut Client, body: &str) -> (u16, String) {
    match client.post("/run", body.as_bytes()) {
        Ok(r) => (r.status, r.text()),
        Err(e) => (0, format!("transport error: {e}")),
    }
}

/// Pins the calling thread, and every thread it starts from now on, to
/// the first CPU it may run on. The closed-loop client and the
/// connection handler never run at once, so one CPU serves both, and
/// each request's two hand-offs become same-CPU wake-ups. Across CPUs
/// each hand-off wakes an idle virtual CPU, which on a busy host took
/// milliseconds and set the tail by host load rather than by the service.
fn pin_to_one_cpu() {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is `size` bytes long, the most the call writes; pid
    // 0 names the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        eprintln!("service_mixed: cannot read the CPU mask; threads stay unpinned");
        return;
    }
    let Some(cpu) = (0..size * 8).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1) else {
        return;
    };
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is `size` bytes long, the most the call reads; pid 0
    // names the calling thread.
    if unsafe { sched_setaffinity(0, size, one.as_ptr()) } != 0 {
        eprintln!("service_mixed: cannot pin to CPU {cpu}; threads stay unpinned");
    }
}

/// Boots a server and primes every warm key once (untimed set-up).
fn boot(seed: u64, prime: bool) -> Server {
    let handle = serve(ServiceConfig::default()).expect("bind loopback");
    let mut client = Client::connect(&handle.addr().to_string()).expect("connect loopback");
    if prime {
        for body in warm_bodies(seed) {
            let (status, text) = post(&mut client, &body);
            assert_eq!(status, 200, "priming request failed: {text}");
        }
    }
    Server { client, handle }
}

fn shutdown(s: Server) -> Json {
    let Server { mut client, handle } = s;
    let stats = client
        .get("/stats")
        .ok()
        .and_then(|r| Json::parse(&r.text()).ok())
        .unwrap_or(Json::Null);
    drop(client);
    handle.shutdown(Drain::default());
    stats
}

/// Server-side failures `/stats` reports.
fn stats_problems(stats: &Json) -> Vec<String> {
    let req = stats.get("requests");
    let count = |k: &str| req.and_then(|r| r.get(k)).and_then(Json::as_u64);
    match (count("client_4xx"), count("server_5xx")) {
        (Some(0), Some(0)) => Vec::new(),
        (c, s) => vec![format!("/stats reports 4xx={c:?} 5xx={s:?}")],
    }
}

fn digest_doc(d: &mut Digest, doc: &Json) {
    for field in ["protocol", "outcome"] {
        d.str(doc.get(field).and_then(Json::as_str).unwrap_or(""));
    }
    for field in [
        "energy_bits",
        "rx_energy_bits",
        "idle_energy_bits",
        "messages",
        "rounds",
        "fragments",
        "edges",
    ] {
        d.u64(doc.get(field).and_then(Json::as_u64).unwrap_or(u64::MAX));
    }
    if let Some(Json::Obj(kinds)) = doc.get("ledger") {
        for (kind, tally) in kinds {
            d.str(kind);
            d.u64(
                tally
                    .get("messages")
                    .and_then(Json::as_u64)
                    .unwrap_or(u64::MAX),
            );
            d.u64(
                tally
                    .get("energy_bits")
                    .and_then(Json::as_u64)
                    .unwrap_or(u64::MAX),
            );
        }
    }
}

/// Digest of [`PROBE_REQUESTS`] requests at the recorded seed through an
/// unprimed server, with each response's checks.
fn probe_checked() -> (Digest, Vec<String>) {
    let mut server = boot(RECORDED_SEED, false);
    let cache = InstanceCache::new(ServiceConfig::default().cache_capacity);
    let mut d = Digest::default();
    let mut problems = Vec::new();
    for i in 0..PROBE_REQUESTS {
        let (body, _) = request(RECORDED_SEED, i);
        let (want, hit) = reference(&cache, &body);
        let (status, text) = post(&mut server.client, &body);
        let (p, doc) = check(status, &text, hit, &want);
        problems.extend(p);
        if let Some(doc) = doc {
            digest_doc(&mut d, &doc);
        }
    }
    problems.extend(stats_problems(&shutdown(server)));
    (d, problems)
}

pub fn run(seed: u64, seconds: f64, checks: &mut Checks) -> E2e {
    pin_to_one_cpu();
    let (mut server, setup_s) = crate::repeat_setup(|| boot(seed, true));
    let (d, mut problems) = probe_checked();
    problems.extend(crate::check_digest("service_mixed", &d));
    checks.op("service_mixed digest probe", &problems);

    // Expected results per request body; warm bodies repeat, so each is
    // computed once. Fresh-seed bodies are computed and dropped.
    let cache = InstanceCache::new(ServiceConfig::default().cache_capacity);
    let mut expected: HashMap<String, Expect> = HashMap::new();
    let mut latencies_ms = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let (body, hit) = request(seed, i);
        let ((status, text), ms) = timed(|| post(&mut server.client, &body));
        latencies_ms.push(ms);
        let want = match expected.get(&body) {
            Some(w) => w.clone(),
            None => {
                let (w, _) = reference(&cache, &body);
                if hit {
                    expected.insert(body.clone(), w.clone());
                }
                w
            }
        };
        let (problems, _) = check(status, &text, hit, &want);
        checks.op(&format!("service_mixed request {i}"), &problems);
        if status == 0 {
            server.client =
                Client::connect(&server.handle.addr().to_string()).expect("reconnect loopback");
        }
        i += 1;
    }
    checks.op("service_mixed /stats", &stats_problems(&shutdown(server)));
    E2e {
        latencies_ms,
        setup_s,
    }
}

/// The request bytes [`Client::post`] writes for `body`.
fn wire_request(body: &str) -> String {
    format!(
        "POST /run HTTP/1.1\r\nHost: emst\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

pub fn trace(seed: u64, seconds: f64, t: &mut Tracer, checks: &mut Checks, m: &mut Metrics) {
    pin_to_one_cpu();
    let mut server = boot(seed, true);
    // Mirror of the server's instance cache: it sees the same keys in
    // the same order (priming included), so its hits are the server's.
    let cache = InstanceCache::new(ServiceConfig::default().cache_capacity);
    for body in warm_bodies(seed) {
        let _ = reference(&cache, &body);
    }
    let mut s = Samples::default();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let (body, _) = request(seed, i);
        t.begin_op();
        let (status, text) = t.span("service_mixed.op", |_| post(&mut server.client, &body));
        let latency = t.op_wall_ms();
        // Replays of the server's layers on the same bytes.
        let wire = wire_request(&body);
        let (read, read_ms) = timed(|| read_request(&mut wire.as_bytes(), MAX_BODY_BYTES));
        let read_ok = matches!(read, Ok(Some(ref r)) if r.body == body.as_bytes());
        let (_, parse_ms) = timed(|| TrialRequest::parse(&body));
        let (_, json_ms) = timed(|| Json::parse(&body));
        let (r, sim_ms) = timed(|| replay(&cache, &body));
        let (want, hit) = (expect(&r), r.hit);
        let mut out = Vec::with_capacity(text.len() + 128);
        let (_, write_ms) =
            timed(|| write_response(&mut out, 200, "application/json", text.as_bytes()));
        s.add("service.http.read_us", read_ms * 1e3);
        s.add("service.request.parse_us", parse_ms * 1e3);
        s.add("service.json.parse_us", json_ms * 1e3);
        s.add("service.sim_ms", sim_ms);
        s.add("service.http.write_us", write_ms * 1e3);
        s.add(
            "service.residual_ms",
            latency - read_ms - parse_ms - sim_ms - write_ms,
        );
        s.add("service.latency_ms", latency);
        let (mut problems, _) = check(status, &text, hit, &want);
        if !read_ok {
            problems.push("request bytes do not read back".to_string());
        }
        checks.op(&format!("service_mixed traced request {i}"), &problems);
        i += 1;
    }
    let stats = shutdown(server);
    checks.op("service_mixed traced /stats", &stats_problems(&stats));
    for (name, unit) in [
        ("service.http.read_us", "us"),
        ("service.http.write_us", "us"),
        ("service.request.parse_us", "us"),
        ("service.json.parse_us", "us"),
        ("service.sim_ms", "ms"),
        ("service.residual_ms", "ms"),
        ("service.latency_ms", "ms"),
    ] {
        m.put(name, s.median(name), unit);
    }
    let server_rate = stats
        .get("cache")
        .and_then(|c| c.get("hit_rate"))
        .and_then(Json::as_f64)
        .unwrap_or(0.0);
    m.put("service.cache_hit_rate", server_rate, "fraction");
    m.put(
        "core.instance.hit_rate",
        cache.stats().hit_rate(),
        "fraction",
    );
}
