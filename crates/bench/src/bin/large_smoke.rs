//! Large-n scale smoke: GHS runs at n = 50 000, time-bounded and checked
//! for exactness.
//!
//! CI runs this to catch superlinear regressions that the wall-time guard
//! (pinned at n = 5000) cannot see. Each size runs modified GHS twice
//! through a shared [`emst_core::Instance`]: the first rep pays topology
//! construction, the second must not. Original GHS and then EOPT run once
//! each on the warm instance. Every rep must finish under
//! [`TIME_BOUND_S`] seconds, and every tree must equal the exact Euclidean
//! MST edge for edge; per-rep throughput is printed so a human can eyeball
//! the curve.
//!
//! Flags: `--quick` shrinks the run to n = 10 000; `--large` extends it
//! to n = 100 000 (same per-rep bound).

use emst_bench::{sim_instance, Options};
use emst_core::{EoptConfig, GhsVariant, Protocol, Sim};
use emst_geom::paper_phase2_radius;
use emst_graph::euclidean_mst;
use std::time::Instant;

/// Wall-time budget per rep (generous: the run takes well under half of
/// this on a warm laptop core; CI runners get slack).
const TIME_BOUND_S: f64 = 120.0;

fn main() {
    let opts = Options::from_env();
    let mut sizes: Vec<usize> = vec![if opts.quick { 10_000 } else { 50_000 }];
    if opts.large {
        sizes.push(100_000);
    }
    for n in sizes {
        let inst = sim_instance(opts.seed, n, 0);
        let r = paper_phase2_radius(n);
        let mst = euclidean_mst(inst.points());
        let mut warm_msgs = None;
        for (name, protocol, rep) in [
            ("ghs_modified", Protocol::Ghs(GhsVariant::Modified), "cold"),
            ("ghs_modified", Protocol::Ghs(GhsVariant::Modified), "warm"),
            ("ghs_original", Protocol::Ghs(GhsVariant::Original), "warm"),
            ("eopt", Protocol::Eopt(EoptConfig::default()), "warm"),
        ] {
            let start = Instant::now();
            let out = Sim::from_instance(&inst).radius(r).run(protocol);
            let secs = start.elapsed().as_secs_f64();
            let phases = match (out.detail.as_ghs(), out.detail.as_eopt()) {
                (Some(g), _) => g.phases,
                (None, Some(e)) => e.phases_step1 + e.phases_step2,
                (None, None) => unreachable!("GHS and EOPT runs carry their detail"),
            };
            println!(
                "{name} n={n} ({rep}): {:.3} s, {} fragments, {} phases, {} msgs, \
                 {:.0} nodes/s",
                secs,
                out.fragments,
                phases,
                out.stats.messages,
                n as f64 / secs
            );
            assert!(out.tree.is_valid(), "{name}: invalid forest");
            assert!(
                out.tree.same_edges(&mst),
                "{name} n={n}: tree differs from the exact Euclidean MST"
            );
            if name == "ghs_modified" {
                assert_eq!(
                    *warm_msgs.get_or_insert(out.stats.messages),
                    out.stats.messages,
                    "instance reuse changed the run"
                );
            }
            assert!(
                secs < TIME_BOUND_S,
                "large-n smoke exceeded its time bound: {secs:.1} s > {TIME_BOUND_S} s"
            );
        }
    }
}
