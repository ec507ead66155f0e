//! `cold_sweep`: the cold path a researcher pays for on every sweep.
//!
//! Op `i` generates the seeded instance `(seed, N, i)` and runs modified
//! GHS, EOPT and Co-NNT over it, each cold through `Sim::new(points)`,
//! so every run builds its own bucket grid, CSR topology and sorted rows.
//! The MOE stage runs with `shards` = available parallelism. Checks,
//! outside the timed span: GHS and EOPT trees equal the `euclidean_mst`
//! oracle edge for edge; the Co-NNT tree is a valid spanning tree.

use crate::spans::{Closure, Samples, Tracer, SCAFFOLD};
use crate::{protocol, timed, Checks, Digest, E2e, Metrics, RECORDED_SEED};
use emst_core::{Instance, Protocol, RunOutcome, Sim};
use emst_geom::{paper_phase2_radius, BucketGrid};
use emst_graph::euclidean_mst;
use emst_radio::Topology;
use std::time::Instant;

pub const N: usize = 20_000;
/// Trial index of the untimed warm-up op that `setup_s` measures; far
/// from the measured indices so it never repeats one of them.
const WARMUP_TRIAL: u64 = 1 << 40;

/// The protocols of one op, each run cold.
const PROTOCOLS: [&str; 3] = ["ghs_modified", "eopt", "co_nnt"];

fn shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn sim(points: &[emst_geom::Point]) -> Sim<'_> {
    Sim::new(points)
        .radius(paper_phase2_radius(N))
        .shards(shards())
}

/// One cold op: instance generation plus the three cold runs.
fn op(seed: u64, trial: u64) -> (Instance, Vec<RunOutcome>) {
    let inst = Instance::generate(seed, N, trial);
    let outs = PROTOCOLS
        .iter()
        .map(|p| {
            sim(inst.points())
                .try_run_checked(protocol(p))
                .expect("valid config")
        })
        .collect();
    (inst, outs)
}

fn check(inst: &Instance, outs: &[RunOutcome]) -> Vec<String> {
    crate::check_trees(&PROTOCOLS, outs, inst.n(), &euclidean_mst(inst.points()))
}

pub fn run(seed: u64, seconds: f64, checks: &mut Checks) -> E2e {
    // Set-up: one untimed warm-up op, which pays first-touch page faults
    // and allocator growth before timing starts.
    let ((), setup_s) = crate::repeat_setup(|| {
        std::hint::black_box(op(seed, WARMUP_TRIAL));
    });
    let (inst, outs) = op(RECORDED_SEED, 0);
    let mut problems = check(&inst, &outs);
    problems.extend(crate::check_digest(
        "cold_sweep",
        &Digest::of_runs(&PROTOCOLS, &outs),
    ));
    checks.op("cold_sweep digest probe", &problems);

    let mut latencies_ms = Vec::new();
    let start = Instant::now();
    let mut trial = 0u64;
    while start.elapsed().as_secs_f64() < seconds {
        let ((inst, outs), ms) = timed(|| op(seed, trial));
        latencies_ms.push(ms);
        checks.op(&format!("cold_sweep trial {trial}"), &check(&inst, &outs));
        trial += 1;
    }
    E2e {
        latencies_ms,
        setup_s,
    }
}

/// Bytes of a CSR topology plus its sorted view: `u32` offsets, and per
/// directed edge a `u32` id and an `f64` distance, twice.
fn topology_bytes(t: &Topology) -> f64 {
    (4 * (t.n() + 1) + 2 * 12 * t.directed_edges()) as f64
}

/// Traced op: the same work as [`op`], split into layer calls. Each
/// tree protocol's grid, CSR and sorted rows are built standalone and
/// timed; the instance is then warmed with the same builds inside a
/// scaffold span and the protocol runs warm through `Sim::from_instance`.
/// Co-NNT builds no topology, so its cold run is one span.
fn traced_op(seed: u64, trial: u64, t: &mut Tracer) -> (Instance, Vec<RunOutcome>, f64, f64) {
    let mut edges = 0usize;
    let mut bytes = 0.0;
    let (inst, outs) = t.span("cold_sweep.op", |t| {
        let inst = t.span("geom.points", |_| Instance::generate(seed, N, trial));
        let mut outs = Vec::new();
        for name in PROTOCOLS {
            let p = protocol(name);
            // (grid radius, row radius) of every topology the cold run builds.
            let builds: Vec<(f64, f64)> = match p {
                Protocol::Ghs(_) => vec![(paper_phase2_radius(N), paper_phase2_radius(N))],
                Protocol::Eopt(cfg) => {
                    let (r1, r2) = (cfg.radius1(N), cfg.radius2(N).max(cfg.radius1(N)));
                    vec![(r2, r1), (r2, r2)]
                }
                _ => Vec::new(),
            };
            if builds.is_empty() {
                let run = format!("core.{name}.run");
                outs.push(t.span(&run, |_| {
                    sim(inst.points()).try_run_checked(p).expect("valid config")
                }));
                continue;
            }
            let grid = t.span("geom.grid", |_| {
                BucketGrid::for_radius(inst.points(), builds[0].0)
            });
            for &(_, r) in &builds {
                let topo = t.span("radio.csr", |_| Topology::build(&grid, r));
                t.span("radio.sorted", |_| {
                    std::hint::black_box(topo.sorted());
                });
                edges += topo.directed_edges();
                bytes += topology_bytes(&topo);
            }
            t.span(SCAFFOLD, |_| {
                for &(g, r) in &builds {
                    let _ = inst.topology_with_grid(g, r).sorted();
                }
            });
            let run = format!("core.{name}.run");
            let out = t.span(&run, |_| {
                Sim::from_instance(&inst)
                    .radius(paper_phase2_radius(N))
                    .shards(shards())
                    .try_run_checked(p)
                    .expect("valid config")
            });
            outs.push(out);
        }
        (inst, outs)
    });
    (inst, outs, edges as f64, bytes)
}

pub fn trace(seed: u64, seconds: f64, t: &mut Tracer, checks: &mut Checks, m: &mut Metrics) {
    let mut s = Samples::default();
    let (mut traced, mut layers, mut untraced) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    let mut trial = 0u64;
    // At least three pairs, so the closure check has a median to use.
    while trial < 3 || start.elapsed().as_secs_f64() < seconds {
        // Alternate which side runs first, so neither always finds the
        // caches the other left behind.
        let untraced_first = trial.is_multiple_of(2);
        if untraced_first {
            untraced.push(timed(|| op(seed, trial)).1);
        }
        t.begin_op();
        let (inst, outs, edges, bytes) = traced_op(seed, trial, t);
        if !untraced_first {
            untraced.push(timed(|| op(seed, trial)).1);
        }
        let selfs = t.op_self_ms();
        let layer = |prefix: &str| -> f64 {
            selfs
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(_, v)| v)
                .sum()
        };
        s.add("geom.points_ms", layer("geom.points"));
        s.add("geom.grid_ms", layer("geom.grid"));
        s.add("radio.csr_ms", layer("radio.csr"));
        s.add("radio.sorted_ms", layer("radio.sorted"));
        s.add("core.cold_run_ms", layer("core."));
        s.add("radio.csr_edges", edges);
        s.add("radio.csr_bytes", bytes);
        layers.push(layer("geom.") + layer("radio.") + layer("core."));
        traced.push(t.op_wall_ms());

        let (oracle, oracle_ms) = timed(|| euclidean_mst(inst.points()));
        s.add("graph.oracle_ms", oracle_ms);
        checks.op(
            &format!("cold_sweep traced trial {trial}"),
            &crate::check_trees(&PROTOCOLS, &outs, inst.n(), &oracle),
        );
        trial += 1;
    }
    for name in [
        "geom.points_ms",
        "geom.grid_ms",
        "radio.csr_ms",
        "radio.sorted_ms",
        "core.cold_run_ms",
    ] {
        m.put(name, s.median(name), "ms");
    }
    m.put("radio.csr_edges", s.median("radio.csr_edges"), "count");
    m.put("radio.csr_bytes", s.median("radio.csr_bytes"), "bytes");
    m.put("graph.oracle_ms", s.median("graph.oracle_ms"), "ms");
    let closure = Closure::of(&traced, &layers, &untraced);
    m.put("cold_sweep.op_ms", crate::median(&untraced), "ms");
    m.put("trace.overhead_frac", closure.overhead, "fraction");
    m.put("trace.closure_err.cold_sweep", closure.err, "fraction");
    closure.check("cold_sweep", checks);
}
