//! Misbehaving-client chaos harness for the trial server.
//!
//! ```text
//! service_chaos [--seed S] [--scenarios N] [--quick] [--plan-only] [--drain-load]
//! ```
//!
//! Boots an in-process server with deliberately short deadlines, then
//! runs a seeded battery of client-fault scenarios against it: stalled
//! request reads, truncated bodies, chunked request bodies (which the
//! server rejects), mid-stream disconnects during chunked NDJSON
//! responses, connect-and-hold floods past the connection cap, and
//! standing-session abandonment (lease expiry does the reclaim).
//! Well-formed probes are mixed into the battery so liveness *during*
//! chaos is exercised, not just after.
//!
//! The battery is splitmix-derived from one seed — a CI failure is a
//! reproducer, not a flake. `--plan-only` prints the scenario plan
//! without executing it (CI runs it twice and `cmp`s the output to pin
//! plan determinism). After the battery the harness asserts:
//!
//! * no panic and no 5xx anywhere (`server_5xx == 0`, `poisoned == 0`);
//! * counter conservation (`requests.total == 2xx + 4xx + 5xx`) and
//!   session-ledger conservation at reclaim (`reclaim_violations == 0`);
//! * no thread or fd leak — `/proc/self/task` and `/proc/self/fd`
//!   return to the post-boot baseline (Linux; skipped elsewhere);
//! * post-chaos liveness: `/healthz` answers 200 and a fresh `/run`
//!   completes;
//! * a clean drain: `shutdown(Drain)` reports `aborted == 0` once the
//!   battery has settled.
//!
//! `--drain-load` is a separate smoke: it shuts the server down *while*
//! clients are mid-request and checks the drain report's accounting
//! (`drained + aborted` covers every open connection) and wall-clock
//! bound. Exits non-zero on any violation.

use emst_service::json::{Json, Obj};
use emst_service::{serve, Client, Drain, ServiceConfig};
use rand::Rng;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// Server deadlines for the battery — short enough that every reclaim
/// path (request timeout, idle close, lease expiry) fires within the
/// run, long enough that well-formed probes never trip them.
const REQUEST_TIMEOUT: Duration = Duration::from_millis(400);
const IDLE_TIMEOUT: Duration = Duration::from_millis(400);
const SESSION_TTL: Duration = Duration::from_millis(500);
const MAX_CONNECTIONS: usize = 12;
const MAX_SESSIONS: usize = 4;

struct Options {
    seed: u64,
    scenarios: u64,
    plan_only: bool,
    drain_load: bool,
}

fn main() {
    if let Err(e) = run() {
        eprintln!("service_chaos: {e}");
        std::process::exit(1);
    }
}

fn parse_args() -> Result<Options, Box<dyn std::error::Error>> {
    let mut o = Options {
        seed: 0xC4A0_5EED,
        scenarios: 40,
        plan_only: false,
        drain_load: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .ok_or_else(|| format!("{what} requires a value"))
        };
        match arg.as_str() {
            "--seed" => o.seed = value("--seed")?.parse()?,
            "--scenarios" => o.scenarios = value("--scenarios")?.parse()?,
            "--quick" => o.scenarios = 12,
            "--plan-only" => o.plan_only = true,
            "--drain-load" => o.drain_load = true,
            "--help" | "-h" => {
                println!(
                    "usage: service_chaos [--seed S] [--scenarios N] [--quick] \
                     [--plan-only] [--drain-load]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (see --help)").into()),
        }
    }
    if o.scenarios == 0 {
        return Err("--scenarios must be positive".into());
    }
    Ok(o)
}

/// One client-fault scenario kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Send a partial request, then stall past the request deadline.
    StalledRead,
    /// Declare a Content-Length, deliver fewer bytes, half-close.
    TruncatedBody,
    /// Send a chunked request body (the server rejects the encoding).
    ChunkedRequest,
    /// Start a streaming `/run`, read a little, disconnect mid-stream.
    MidStreamDisconnect,
    /// Open several sockets past the cap, write nothing, hold, drop.
    HoldFlood,
    /// Create a standing session, advance a bit, never DELETE it.
    SessionAbandon,
    /// Well-formed probe: the server must stay live during chaos.
    Probe,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::StalledRead => "stalled_read",
            Kind::TruncatedBody => "truncated_body",
            Kind::ChunkedRequest => "chunked_request",
            Kind::MidStreamDisconnect => "mid_stream_disconnect",
            Kind::HoldFlood => "hold_flood",
            Kind::SessionAbandon => "session_abandon",
            Kind::Probe => "probe",
        }
    }
}

const KINDS: [Kind; 7] = [
    Kind::StalledRead,
    Kind::TruncatedBody,
    Kind::ChunkedRequest,
    Kind::MidStreamDisconnect,
    Kind::HoldFlood,
    Kind::SessionAbandon,
    Kind::Probe,
];

/// One planned scenario. `param` is a kind-specific knob (hold-flood
/// socket count, abandon advance count, …) drawn from the same stream
/// as the kind so the whole plan is a pure function of `(seed, index)`.
#[derive(Debug, Clone, Copy)]
struct Scenario {
    index: u64,
    kind: Kind,
    param: u64,
    seed: u64,
}

/// The `index`-th scenario of a chaos run. Deterministic in
/// `(seed, index)` — the plan can be printed, diffed and replayed.
fn scenario(seed: u64, index: u64) -> Scenario {
    let mut rng = emst_geom::trial_rng(emst_geom::mix_seed(seed, 0x5E12_71CE), index);
    let kind = KINDS[rng.gen_range(0..KINDS.len())];
    Scenario {
        index,
        kind,
        param: rng.gen_range(0..4u64),
        seed: emst_geom::mix_seed(seed, index),
    }
}

fn plan(seed: u64, scenarios: u64) -> Vec<Scenario> {
    (0..scenarios).map(|i| scenario(seed, i)).collect()
}

fn describe(s: &Scenario) -> String {
    format!(
        "{:03} {} param={} seed={:#018x}",
        s.index,
        s.kind.name(),
        s.param,
        s.seed
    )
}

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let o = parse_args()?;
    if o.plan_only {
        for s in plan(o.seed, o.scenarios) {
            println!("{}", describe(&s));
        }
        return Ok(());
    }
    if o.drain_load {
        return drain_under_load(o.seed);
    }
    battery(&o)
}

// ---------------------------------------------------------------------------
// The battery
// ---------------------------------------------------------------------------

fn battery(o: &Options) -> Result<(), Box<dyn std::error::Error>> {
    let server = serve(ServiceConfig {
        max_connections: MAX_CONNECTIONS,
        request_timeout: REQUEST_TIMEOUT,
        idle_timeout: IDLE_TIMEOUT,
        max_sessions: MAX_SESSIONS,
        session_ttl: SESSION_TTL,
        ..ServiceConfig::default()
    })?;
    let addr = server.addr().to_string();

    // Leak baseline: counted after boot with no client connections open,
    // so the expected steady state is exactly this (accept + reaper, the
    // listener fd, no handlers).
    settle(Duration::from_millis(100));
    let base_threads = thread_count();
    let base_fds = fd_count();

    let mut violations: Vec<String> = Vec::new();
    let mut by_kind = [0u64; KINDS.len()];
    let started = Instant::now();
    for s in plan(o.seed, o.scenarios) {
        by_kind[KINDS.iter().position(|k| *k == s.kind).unwrap()] += 1;
        if let Err(why) = execute(&addr, &s) {
            violations.push(format!("{}: {why}", describe(&s)));
        }
    }
    let battery_wall = started.elapsed();

    // Let every reclaim path finish: stalled handlers time out, dropped
    // sockets EOF, abandoned leases expire and the reaper ticks.
    settle(SESSION_TTL + REQUEST_TIMEOUT + Duration::from_millis(600));

    // Post-chaos liveness + counter conservation over one connection
    // (a fresh one would be part of the measurement otherwise).
    let mut post = Client::connect(&addr)?;
    let health = post.get("/healthz")?;
    if health.status != 200 {
        violations.push(format!("post-chaos /healthz returned {}", health.status));
    }
    let fresh = post.post("/run", br#"{"protocol": "eopt", "n": 300}"#)?;
    if fresh.status != 200 {
        violations.push(format!("post-chaos /run returned {}", fresh.status));
    }
    let stats = Json::parse(&post.get("/stats")?.text()).map_err(|e| format!("bad /stats: {e}"))?;
    drop(post);
    let counter = |section: &str, field: &str| -> u64 {
        stats
            .get(section)
            .and_then(|s| s.get(field))
            .and_then(Json::as_u64)
            .unwrap_or(u64::MAX)
    };
    let total = counter("requests", "total");
    let by_class = counter("requests", "ok_2xx")
        + counter("requests", "client_4xx")
        + counter("requests", "server_5xx");
    if total != by_class {
        violations.push(format!(
            "request counters leak: total {total} != {by_class}"
        ));
    }
    // 503 turn-aways are 5xx on the wire and counted as such (that is
    // what keeps the conservation identity honest) — but they are the
    // backpressure contract working. The invariant is that *nothing
    // else* in the battery drew a 5xx.
    let server_5xx = counter("requests", "server_5xx");
    let turnaways = counter("lifecycle", "turnaways");
    if server_5xx != turnaways {
        violations.push(format!(
            "{} unexpected 5xx (server_5xx {server_5xx} != turnaways {turnaways})",
            server_5xx.saturating_sub(turnaways)
        ));
    }
    for (section, field) in [
        ("sessions", "poisoned"),
        ("sessions", "reclaim_violations"),
        ("sessions", "open"),
    ] {
        let v = counter(section, field);
        if v != 0 {
            violations.push(format!("{section}.{field} = {v}, expected 0"));
        }
    }

    // Leak check: poll until the counts return to the baseline (handler
    // exits race the check), then call any remainder a leak.
    let leak_deadline = Instant::now() + Duration::from_secs(5);
    let (mut threads, mut fds) = (thread_count(), fd_count());
    while (above(threads, base_threads) || above(fds, base_fds)) && Instant::now() < leak_deadline {
        settle(Duration::from_millis(100));
        threads = thread_count();
        fds = fd_count();
    }
    match (threads, base_threads) {
        (Some(now), Some(base)) if now > base => {
            violations.push(format!("thread leak: {now} threads, baseline {base}"));
        }
        _ => {}
    }
    match (fds, base_fds) {
        (Some(now), Some(base)) if now > base => {
            violations.push(format!("fd leak: {now} fds, baseline {base}"));
        }
        _ => {}
    }

    // Clean drain: everything has settled, so nothing should abort.
    let report = server.shutdown(Drain::default());
    if report.aborted != 0 {
        violations.push(format!(
            "drain aborted {} connections after settle",
            report.aborted
        ));
    }

    println!(
        "service_chaos: seed {:#x}, {} scenarios in {:.2}s",
        o.seed,
        o.scenarios,
        battery_wall.as_secs_f64()
    );
    for (kind, count) in KINDS.iter().zip(by_kind) {
        println!("  {:<22} {count}", kind.name());
    }
    println!(
        "  turnaways={} idle_closed={} request_timeouts={} sessions_expired={}",
        counter("lifecycle", "turnaways"),
        counter("lifecycle", "idle_closed"),
        counter("lifecycle", "request_timeouts"),
        counter("sessions", "expired"),
    );
    match (base_threads, base_fds) {
        (Some(t), Some(f)) => {
            println!("  leak check: threads {t} -> {threads:?}, fds {f} -> {fds:?}")
        }
        _ => println!("  leak check: skipped (/proc not available)"),
    }
    println!(
        "  drain: drained={} aborted={} wall={:.0}ms",
        report.drained,
        report.aborted,
        report.wall.as_secs_f64() * 1000.0
    );
    if violations.is_empty() {
        println!("  violations: 0");
        Ok(())
    } else {
        for v in &violations {
            eprintln!("VIOLATION: {v}");
        }
        Err(format!("{} violation(s)", violations.len()).into())
    }
}

/// Runs one scenario. `Err` is a violation (server misbehaved); expected
/// rejections (4xx, turn-aways, closed connections) are `Ok`.
fn execute(addr: &str, s: &Scenario) -> Result<(), String> {
    match s.kind {
        Kind::StalledRead => stalled_read(addr),
        Kind::TruncatedBody => truncated_body(addr),
        Kind::ChunkedRequest => chunked_request(addr),
        Kind::MidStreamDisconnect => mid_stream_disconnect(addr, s),
        Kind::HoldFlood => hold_flood(addr, 4 + s.param as usize * 4),
        Kind::SessionAbandon => session_abandon(addr, s),
        Kind::Probe => probe(addr),
    }
}

/// Reads whatever the server sends until EOF (bounded), returning the
/// raw bytes. A read timeout here means the server failed to reclaim
/// the connection — that is the violation the deadline tests exist for.
fn read_to_close(stream: &mut TcpStream, patience: Duration) -> Result<String, String> {
    stream
        .set_read_timeout(Some(patience))
        .map_err(|e| e.to_string())?;
    let mut raw = String::new();
    match stream.read_to_string(&mut raw) {
        Ok(_) => Ok(raw),
        // Connection reset is a legitimate way to refuse a misbehaving
        // client; only a *timeout* (server still holding the socket
        // open past its own deadline) is a violation.
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => Ok(raw),
        Err(e)
            if e.kind() == std::io::ErrorKind::WouldBlock
                || e.kind() == std::io::ErrorKind::TimedOut =>
        {
            Err("server held the connection past its deadline".to_string())
        }
        Err(e) => Err(format!("read: {e}")),
    }
}

/// The response (if any) must not be a 5xx.
fn reject_5xx(raw: &str, what: &str) -> Result<(), String> {
    if raw.starts_with("HTTP/1.1 5") {
        return Err(format!("{what} drew a 5xx: {:?}", raw.lines().next()));
    }
    Ok(())
}

fn stalled_read(addr: &str) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    // Headers complete, body missing: the server blocks reading the
    // body and must 408 (or close) within its request deadline.
    stream
        .write_all(b"POST /run HTTP/1.1\r\nHost: emst\r\nContent-Length: 64\r\n\r\n{\"proto")
        .map_err(|e| e.to_string())?;
    let raw = read_to_close(&mut stream, REQUEST_TIMEOUT * 5)?;
    reject_5xx(&raw, "stalled read")?;
    if !raw.is_empty() && !raw.starts_with("HTTP/1.1 408") && !raw.starts_with("HTTP/1.1 503") {
        return Err(format!(
            "expected 408/503/close, got {:?}",
            raw.lines().next()
        ));
    }
    Ok(())
}

fn truncated_body(addr: &str) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .write_all(b"POST /run HTTP/1.1\r\nHost: emst\r\nContent-Length: 64\r\n\r\n{\"n\": 30")
        .map_err(|e| e.to_string())?;
    // Half-close: the server sees EOF mid-body, which can never become
    // a complete request. Anything but a 5xx (or a hang) is fine.
    stream
        .shutdown(Shutdown::Write)
        .map_err(|e| e.to_string())?;
    let raw = read_to_close(&mut stream, REQUEST_TIMEOUT * 5)?;
    reject_5xx(&raw, "truncated body")
}

fn chunked_request(addr: &str) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    // The server does not accept chunked *request* bodies — and this one
    // is truncated mid-chunk on top. Expect a typed 4xx or a close.
    stream
        .write_all(
            b"POST /run HTTP/1.1\r\nHost: emst\r\nTransfer-Encoding: chunked\r\n\r\n8\r\n{\"n\"",
        )
        .map_err(|e| e.to_string())?;
    stream
        .shutdown(Shutdown::Write)
        .map_err(|e| e.to_string())?;
    let raw = read_to_close(&mut stream, REQUEST_TIMEOUT * 5)?;
    reject_5xx(&raw, "chunked request")?;
    if !raw.is_empty() && !raw.starts_with("HTTP/1.1 4") && !raw.starts_with("HTTP/1.1 503") {
        return Err(format!("expected 4xx/close, got {:?}", raw.lines().next()));
    }
    Ok(())
}

fn mid_stream_disconnect(addr: &str, s: &Scenario) -> Result<(), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let n = 800 + s.param * 200;
    let body = Obj::new()
        .field("protocol", "ghs_modified")
        .field("n", n)
        .field("seed", s.seed)
        .field("radius", emst_geom::paper_phase2_radius(n as usize))
        .field("stream", "summary")
        .finish();
    write!(
        stream,
        "POST /run HTTP/1.1\r\nHost: emst\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .map_err(|e| e.to_string())?;
    // Read a token amount of the chunked NDJSON, then vanish. The
    // handler's next write hits a closed socket and must swallow the
    // error (no panic, no 5xx accounting).
    stream
        .set_read_timeout(Some(REQUEST_TIMEOUT * 5))
        .map_err(|e| e.to_string())?;
    let mut first = [0u8; 256];
    match stream.read(&mut first) {
        Ok(_) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Err(e) => return Err(format!("first read: {e}")),
    }
    drop(stream);
    Ok(())
}

fn hold_flood(addr: &str, sockets: usize) -> Result<(), String> {
    // Open sockets and write nothing. Some draw the accept-gate 503
    // once the cap is hit; the rest sit idle until we drop them (or the
    // idle deadline would reclaim them — both paths are exercised
    // because the hold spans a fraction of the idle timeout).
    let mut held = Vec::with_capacity(sockets);
    for _ in 0..sockets {
        match TcpStream::connect(addr) {
            Ok(s) => held.push(s),
            Err(e) => return Err(format!("connect refused during flood: {e}")),
        }
    }
    std::thread::sleep(IDLE_TIMEOUT / 2);
    for mut s in held {
        let _ = s.set_read_timeout(Some(Duration::from_millis(50)));
        let mut buf = [0u8; 256];
        let _ = s.read(&mut buf); // drain any turn-away so the close is clean
    }
    Ok(())
}

/// An I/O error talking to the server is the accept gate turning the
/// connection away mid-handshake (it writes an unprompted 503 and
/// closes) when a flood is still draining — backpressure, not a fault.
fn turned_away(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::UnexpectedEof
    )
}

fn session_abandon(addr: &str, s: &Scenario) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let body = Obj::new()
        .field("n", 40u32)
        .field("seed", s.seed % 1000)
        .field("radius", 0.5)
        .finish();
    let resp = match client.post("/session", body.as_bytes()) {
        Ok(resp) => resp,
        Err(e) if turned_away(&e) => return Ok(()),
        Err(e) => return Err(e.to_string()),
    };
    match resp.status {
        // Table full is the backpressure contract working, not a fault.
        429 => return Ok(()),
        200 => {}
        other => return Err(format!("session create returned {other}: {}", resp.text())),
    }
    let id = Json::parse(&resp.text())
        .ok()
        .and_then(|j| j.get("id").and_then(Json::as_u64))
        .ok_or("session create body missing id")?;
    for _ in 0..s.param {
        let adv = client
            .post(&format!("/session/{id}/advance"), br#"{"events": []}"#)
            .map_err(|e| e.to_string())?;
        if adv.status != 200 {
            return Err(format!("advance returned {}: {}", adv.status, adv.text()));
        }
    }
    // Abandon: no DELETE. The lease expires and the reaper reclaims it
    // under the ledger-conservation pin (checked via /stats afterwards).
    Ok(())
}

fn probe(addr: &str) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    // 503 (or a turn-away mid-handshake) here can only be the accept
    // gate with a prior hold-flood's sockets still draining; that is
    // backpressure doing its job, not a fault.
    let health = match client.get("/healthz") {
        Ok(resp) => resp,
        Err(e) if turned_away(&e) => return Ok(()),
        Err(e) => return Err(e.to_string()),
    };
    if health.status == 503 {
        return Ok(());
    }
    if health.status != 200 {
        return Err(format!("/healthz returned {}", health.status));
    }
    let run = client
        .post("/run", br#"{"protocol": "eopt", "n": 200}"#)
        .map_err(|e| e.to_string())?;
    if run.status != 200 {
        return Err(format!("/run returned {}: {}", run.status, run.text()));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Drain-under-load smoke
// ---------------------------------------------------------------------------

fn drain_under_load(seed: u64) -> Result<(), Box<dyn std::error::Error>> {
    let server = serve(ServiceConfig::default())?;
    let addr = server.addr().to_string();
    let deadline = Duration::from_secs(3);

    // Clients loop substantial /run requests; one extra connection sits
    // idle so the drain has both kinds to account for. The loop tolerates
    // errors — connections *will* break when the drain begins.
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let report = std::thread::scope(|scope| {
        for c in 0..4u64 {
            let addr = addr.clone();
            let stop = std::sync::Arc::clone(&stop);
            scope.spawn(move || {
                let Ok(mut client) = Client::connect(&addr) else {
                    return;
                };
                let mut i = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let body = Obj::new()
                        .field("protocol", "ghs_modified")
                        .field("n", 1500u32)
                        .field("seed", emst_geom::mix_seed(seed, c * 1000 + i))
                        .field("radius", emst_geom::paper_phase2_radius(1500))
                        .finish();
                    if client.post("/run", body.as_bytes()).is_err() {
                        break;
                    }
                    i += 1;
                }
            });
        }
        let _idle = Client::connect(&addr);
        std::thread::sleep(Duration::from_millis(800)); // let load build
        let report = server.shutdown(Drain { deadline });
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        report
    });

    println!(
        "service_chaos --drain-load: drained={} aborted={} wall={:.0}ms",
        report.drained,
        report.aborted,
        report.wall.as_secs_f64() * 1000.0
    );
    if report.drained + report.aborted == 0 {
        return Err("drain report accounted for no connections under load".into());
    }
    if report.drained == 0 {
        return Err("no connection drained cleanly".into());
    }
    let grace = Duration::from_secs(2);
    if report.wall > deadline + grace {
        return Err(format!(
            "drain took {:?}, past the {deadline:?} deadline",
            report.wall
        )
        .into());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Leak accounting (Linux /proc; None elsewhere — the check is skipped)
// ---------------------------------------------------------------------------

fn proc_count(dir: &str) -> Option<usize> {
    std::fs::read_dir(dir).ok().map(|d| d.count())
}

fn thread_count() -> Option<usize> {
    proc_count("/proc/self/task")
}

fn fd_count() -> Option<usize> {
    proc_count("/proc/self/fd")
}

fn above(now: Option<usize>, base: Option<usize>) -> bool {
    matches!((now, base), (Some(n), Some(b)) if n > b)
}

fn settle(d: Duration) {
    std::thread::sleep(d);
}
