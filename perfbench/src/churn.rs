//! `churn_session`: the write side — points join, move and leave.
//!
//! A standing incremental `MaintainSession` over `N` seeded points is
//! driven by `rate_timeline` at `RATE` for `EPOCHS` epochs; each op is one
//! `advance`. A run that outlasts a session bootstraps the next one
//! (untimed) on the next timeline index. After every epoch, outside the
//! timed span, the forest is checked against a Kruskal MSF of the live
//! set, and the epoch report must show a conserved ledger and a valid
//! forest.
//!
//! `advance` is one public call: its repair steps (restricted GHS
//! reconnection, the arrival fold-in and the topology it builds) have
//! no public entry points, so the traced run cannot split an op into
//! layers from outside. It times the whole `advance` and, beside it, a
//! standalone grid plus CSR rebuild of the same universe for scale.

use crate::spans::{Samples, Tracer};
use crate::{timed, Checks, Digest, E2e, Metrics, RECORDED_SEED};
use emst_bench::rate_timeline;
use emst_core::{ChurnTimeline, EpochReport, Instance, MaintainSession, MaintainStrategy};
use emst_geom::{paper_phase2_radius, BucketGrid, Point};
use emst_graph::{kruskal_forest, Edge, Graph, SpanningTree};
use emst_radio::{Membership, Topology};
use std::time::Instant;

pub const N: usize = 2_000;
pub const RATE: f64 = 0.01;
pub const EPOCHS: usize = 300;
/// Timed ops between two repeats of the set-up in an untimed run.
const SETUP_EVERY: usize = 20;
/// Epochs the digest probe advances.
const PROBE_EPOCHS: usize = 20;

fn radius() -> f64 {
    paper_phase2_radius(N)
}

struct Session {
    session: MaintainSession,
    timeline: ChurnTimeline,
    epoch: usize,
    /// Wall time of `MaintainSession::bootstrap` alone.
    bootstrap_ms: f64,
}

/// Session `index` of `seed`: the seeded points, its timeline and the
/// bootstrap.
fn session(seed: u64, index: u64) -> Session {
    let points = Instance::generate(seed, N, index).points().to_vec();
    let timeline = rate_timeline(seed, index, N, EPOCHS, RATE);
    let (session, bootstrap_ms) =
        timed(|| MaintainSession::bootstrap(&points, radius(), MaintainStrategy::Incremental));
    Session {
        session,
        timeline,
        epoch: 0,
        bootstrap_ms,
    }
}

/// MSF of the live unit-disk subgraph by Kruskal.
fn live_msf(points: &[Point], members: &Membership) -> SpanningTree {
    let n = points.len();
    let grid = BucketGrid::for_radius(points, radius());
    let mut edges = Vec::new();
    for &u in members.live_ids() {
        let u = u as usize;
        grid.for_neighbors_within(u, radius(), |v, d| {
            if v > u && members.is_live(v) {
                edges.push(Edge::new(u, v, d));
            }
        });
    }
    SpanningTree::new(n, kruskal_forest(&Graph::from_edges(n, edges)))
}

fn check(s: &MaintainSession, r: &EpochReport) -> Vec<String> {
    let mut problems = Vec::new();
    if !r.ledger_conserved {
        problems.push("ledger not conserved".to_string());
    }
    if !r.forest_valid {
        problems.push("forest invalid".to_string());
    }
    if !s.tree().same_edges(&live_msf(s.points(), s.members())) {
        problems.push("forest differs from the Kruskal MSF of the live set".to_string());
    }
    problems
}

/// Whether two epoch reports are equal, energy compared by its bits.
fn same_report(a: &EpochReport, b: &EpochReport) -> bool {
    a == b && a.energy.to_bits() == b.energy.to_bits()
}

fn digest_epoch(d: &mut Digest, r: &EpochReport) {
    for x in [
        r.epoch,
        r.live as u64,
        r.arrivals as u64,
        r.departures as u64,
        r.energy.to_bits(),
        r.messages,
        r.rounds,
        r.edges_added as u64,
        r.edges_removed as u64,
        r.fragments as u64,
    ] {
        d.u64(x);
    }
}

/// Digest of the bootstrap and the first [`PROBE_EPOCHS`] advances at
/// the recorded seed, with each epoch's checks.
fn probe_checked() -> (Digest, Vec<String>) {
    let mut s = session(RECORDED_SEED, 0);
    let mut d = Digest::default();
    let (energy, messages, rounds, _) = s.session.bootstrap_stats();
    d.u64(energy.to_bits());
    d.u64(messages);
    d.u64(rounds);
    let mut problems = Vec::new();
    for e in 0..PROBE_EPOCHS {
        let r = s.session.advance(&s.timeline.epochs()[e]);
        digest_epoch(&mut d, &r);
        problems.extend(check(&s.session, &r));
    }
    (d, problems)
}

/// The next epoch's events, moving to a fresh session once the current
/// one has run its timeline.
fn next<'a>(cur: &'a mut Session, seed: u64, index: &mut u64) -> &'a mut Session {
    if cur.epoch == EPOCHS {
        *index += 1;
        *cur = session(seed, *index);
    }
    cur
}

pub fn run(seed: u64, seconds: f64, checks: &mut Checks) -> E2e {
    // Set-up costs about one op, so it is repeated through the run, not
    // only before it: then `setup_s`, the median, spans the same host
    // load as the ops instead of one second of it.
    let (mut cur, first_ms) = timed(|| session(seed, 0));
    let mut setup_ms = vec![first_ms];
    let (d, mut problems) = probe_checked();
    problems.extend(crate::check_digest("churn_session", &d));
    checks.op("churn_session digest probe", &problems);

    let mut latencies_ms = Vec::new();
    let mut index = 0u64;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let s = next(&mut cur, seed, &mut index);
        let events = &s.timeline.epochs()[s.epoch];
        let (report, ms) = timed(|| s.session.advance(events));
        latencies_ms.push(ms);
        checks.op(
            &format!("churn_session session {index} epoch {}", s.epoch),
            &check(&s.session, &report),
        );
        s.epoch += 1;
        if latencies_ms.len() % SETUP_EVERY == 0 {
            setup_ms.push(timed(|| session(seed, 0)).1);
        }
    }
    E2e {
        latencies_ms,
        setup_s: crate::median(&setup_ms) / 1e3,
    }
}

pub fn trace(seed: u64, seconds: f64, t: &mut Tracer, checks: &mut Checks, m: &mut Metrics) {
    let mut s = Samples::default();
    let mut cur = session(seed, 0);
    s.add("core.maintain.bootstrap_ms", cur.bootstrap_ms);
    let mut index = 0u64;
    let start = Instant::now();
    let mut i = 0usize;
    while i < 3 || start.elapsed().as_secs_f64() < seconds {
        let before = cur.epoch;
        let st = next(&mut cur, seed, &mut index);
        if before == EPOCHS {
            s.add("core.maintain.bootstrap_ms", st.bootstrap_ms);
        }
        let events = &st.timeline.epochs()[st.epoch];
        // An untraced twin advances a clone of the same session; its
        // report must equal the traced one bit for bit.
        let mut twin = st.session.clone();
        t.begin_op();
        let report = t.span("core.maintain.advance", |_| st.session.advance(events));
        s.add("core.maintain.advance_ms", t.op_wall_ms());
        let twin_report = twin.advance(events);
        let mut problems = Vec::new();
        if !same_report(&report, &twin_report) {
            problems.push("traced and untraced advances report differently".to_string());
        }

        // Standalone rebuild of the epoch's topology from scratch, to
        // compare with what an advance costs.
        t.begin_op();
        t.span("churn_session.topo_rebuild", |t| {
            let grid = t.span("geom.grid", |_| {
                BucketGrid::for_radius(st.session.points(), radius())
            });
            t.span("radio.csr", |_| {
                std::hint::black_box(Topology::build(&grid, radius()))
            });
        });
        s.add("core.maintain.topo_rebuild_ms", t.op_wall_ms());

        let universe = st.session.universe() as f64;
        s.add(
            "core.maintain.rows_changed_frac",
            (report.arrivals + report.departures) as f64 / universe,
        );
        s.add("core.maintain.universe", universe);
        s.add("core.maintain.epoch_messages", report.messages as f64);
        let (found, check_ms) = timed(|| check(&st.session, &report));
        problems.extend(found);
        s.add("graph.live_msf_ms", check_ms);
        checks.op(
            &format!("churn_session traced epoch {}", st.epoch),
            &problems,
        );
        st.epoch += 1;
        i += 1;
    }
    for (name, unit) in [
        ("core.maintain.bootstrap_ms", "ms"),
        ("core.maintain.advance_ms", "ms"),
        ("core.maintain.topo_rebuild_ms", "ms"),
        ("core.maintain.rows_changed_frac", "fraction"),
        ("core.maintain.universe", "count"),
        ("core.maintain.epoch_messages", "count"),
        ("graph.live_msf_ms", "ms"),
    ] {
        m.put(name, s.median(name), unit);
    }
}
