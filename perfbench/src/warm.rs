//! `warm_reuse`: the protocol kernel and the `RadioNet` ledger alone.
//!
//! Set-up builds [`INSTANCES`] seeded instances and warms every topology
//! and sorted view the four protocols read. Op `i` is one pass of
//! original GHS, modified GHS, EOPT and Co-NNT over instance
//! `i mod INSTANCES` through `Sim::from_instance`, single-threaded
//! (`shards` = 1). The topology layer does no timed work here, so a
//! topology optimisation should move `setup_s` and nothing else.

use crate::spans::{Samples, Tracer};
use crate::{protocol, timed, Checks, Digest, E2e, Metrics, RECORDED_SEED};
use emst_core::{EoptConfig, Instance, RunOutcome, Sim};
use emst_geom::{nnt_probe_radius, paper_phase2_radius};
use emst_graph::{euclidean_mst, SpanningTree};
use std::collections::BTreeMap;
use std::time::Instant;

pub const N: usize = 20_000;
pub const INSTANCES: usize = 4;

pub const PROTOCOLS: [&str; 4] = ["ghs_original", "ghs_modified", "eopt", "co_nnt"];

/// Builds instance `k` of `seed` and warms every topology a pass reads:
/// the GHS radius, EOPT's two radii off its step-2 grid, and the Co-NNT
/// probe radius `Sim::from_instance` installs.
fn build(seed: u64, k: usize) -> Instance {
    let inst = Instance::generate(seed, N, k as u64);
    let cfg = EoptConfig::default();
    let r2 = cfg.radius2(N).max(cfg.radius1(N));
    let _ = inst.topology(paper_phase2_radius(N)).sorted();
    let _ = inst.topology_with_grid(r2, cfg.radius1(N)).sorted();
    let _ = inst.topology(r2).sorted();
    let _ = inst.topology(nnt_probe_radius(2, N));
    inst
}

fn run_one(inst: &Instance, name: &str) -> RunOutcome {
    Sim::from_instance(inst)
        .radius(paper_phase2_radius(N))
        .shards(1)
        .try_run_checked(protocol(name))
        .expect("valid config")
}

fn check(inst: &Instance, outs: &[RunOutcome], oracle: &SpanningTree) -> Vec<String> {
    crate::check_trees(&PROTOCOLS, outs, inst.n(), oracle)
}

fn pass(inst: &Instance) -> Vec<RunOutcome> {
    PROTOCOLS.iter().map(|p| run_one(inst, p)).collect()
}

pub fn run(seed: u64, seconds: f64, checks: &mut Checks) -> E2e {
    let (insts, setup_s) =
        crate::repeat_setup(|| (0..INSTANCES).map(|k| build(seed, k)).collect::<Vec<_>>());
    {
        let inst = build(RECORDED_SEED, 0);
        let outs = pass(&inst);
        let mut problems = check(&inst, &outs, &euclidean_mst(inst.points()));
        problems.extend(crate::check_digest(
            "warm_reuse",
            &Digest::of_runs(&PROTOCOLS, &outs),
        ));
        checks.op("warm_reuse digest probe", &problems);
    }
    // Oracles are verification, computed once per instance, untimed.
    let oracles: Vec<SpanningTree> = insts.iter().map(|i| euclidean_mst(i.points())).collect();

    let mut latencies_ms = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    while start.elapsed().as_secs_f64() < seconds {
        let k = i % INSTANCES;
        let (outs, ms) = timed(|| pass(&insts[k]));
        latencies_ms.push(ms);
        checks.op(
            &format!("warm_reuse pass {i}"),
            &check(&insts[k], &outs, &oracles[k]),
        );
        i += 1;
    }
    E2e {
        latencies_ms,
        setup_s,
    }
}

/// Metric-name form of a stage: `eopt2/recover` + `phases` becomes
/// `eopt2.recover.phases`.
fn stage_key(scope: &str, name: &str) -> String {
    format!("{}.{}", scope.replace('/', "."), name.replace('/', "."))
}

pub fn trace(seed: u64, seconds: f64, t: &mut Tracer, checks: &mut Checks, m: &mut Metrics) {
    let insts: Vec<Instance> = (0..INSTANCES).map(|k| build(seed, k)).collect();
    let oracles: Vec<SpanningTree> = insts.iter().map(|i| euclidean_mst(i.points())).collect();
    let mut s = Samples::default();
    let topo_stats = |insts: &[Instance]| {
        insts
            .iter()
            .map(|i| i.topology_cache_stats())
            .fold((0u64, 0u64), |(h, mi), c| (h + c.hits, mi + c.misses))
    };
    let before = topo_stats(&insts);
    let start = Instant::now();
    let mut i = 0usize;
    while i < INSTANCES || start.elapsed().as_secs_f64() < seconds {
        let k = i % INSTANCES;
        t.begin_op();
        let outs: Vec<RunOutcome> = t.span("warm_reuse.op", |t| {
            PROTOCOLS
                .iter()
                .map(|p| t.span(&format!("core.{p}.run"), |_| run_one(&insts[k], p)))
                .collect()
        });
        let selfs = t.op_self_ms();
        let mut stages: BTreeMap<String, f64> = BTreeMap::new();
        for (p, o) in PROTOCOLS.iter().zip(&outs) {
            let Some(out) = o.output() else { continue };
            let ms = selfs[&format!("core.{p}.run")];
            s.add(format!("core.{p}.run_ms"), ms);
            s.add(format!("core.{p}.messages"), out.stats.messages as f64);
            s.add(format!("core.{p}.rounds"), out.stats.rounds as f64);
            s.add(
                format!("core.{p}.msgs_per_s"),
                out.stats.messages as f64 / (ms / 1e3),
            );
            for mark in &out.stages {
                let key = format!(
                    "core.{p}.stage.{}.messages",
                    stage_key(mark.scope, mark.name)
                );
                *stages.entry(key).or_default() += mark.messages as f64;
            }
        }
        for key in stages
            .keys()
            .filter(|k| !STAGE_METRICS.contains(&k.as_str()))
        {
            eprintln!("warm_reuse: stage {key} is not among the reported stage metrics");
        }
        for key in STAGE_METRICS {
            s.add(*key, stages.get(*key).copied().unwrap_or(0.0));
        }
        checks.op(
            &format!("warm_reuse traced pass {i}"),
            &check(&insts[k], &outs, &oracles[k]),
        );
        i += 1;
    }
    for p in PROTOCOLS {
        m.put(
            format!("core.{p}.run_ms"),
            s.median(&format!("core.{p}.run_ms")),
            "ms",
        );
        m.put(
            format!("core.{p}.messages"),
            s.median(&format!("core.{p}.messages")),
            "count",
        );
        m.put(
            format!("core.{p}.rounds"),
            s.median(&format!("core.{p}.rounds")),
            "count",
        );
        m.put(
            format!("core.{p}.msgs_per_s"),
            s.median(&format!("core.{p}.msgs_per_s")),
            "1/s",
        );
    }
    for key in STAGE_METRICS {
        m.put(*key, s.median(key), "count");
    }
    // Topology-cache hit rate over the timed passes only (set-up misses
    // excluded): 1 while every pass finds its topologies warm.
    let after = topo_stats(&insts);
    let (hits, misses) = (after.0 - before.0, after.1 - before.1);
    m.put(
        "core.instance.topo_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "fraction",
    );
}

/// The per-stage message metrics reported by the traced run: every stage
/// a clean run of the four protocols records. A stage an op did not run
/// counts 0 messages.
const STAGE_METRICS: &[&str] = &[
    "core.ghs_original.stage.ghs.discover.messages",
    "core.ghs_original.stage.ghs.phases.messages",
    "core.ghs_modified.stage.ghs.discover.messages",
    "core.ghs_modified.stage.ghs.phases.messages",
    "core.eopt.stage.eopt1.discover.messages",
    "core.eopt.stage.eopt1.phases.messages",
    "core.eopt.stage.eopt1.size.messages",
    "core.eopt.stage.eopt2.discover.messages",
    "core.eopt.stage.eopt2.phases.messages",
    "core.co_nnt.stage.nnt.probe.messages",
];
