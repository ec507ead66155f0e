//! Property-based tests across the distributed protocols: on arbitrary
//! point clouds (not just uniform ones) the protocols must keep their
//! structural guarantees.

use emst_core::{GhsVariant, Protocol, RankScheme, RepairPolicy, RunOutcome, Sim};
use emst_geom::Point;
use emst_graph::{kruskal_forest, Graph, SpanningTree, UnionFind};
use emst_radio::{FaultPlan, MetricsSink};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Clouds with distinct coordinates (dedupe very close pairs so ranking and
/// MOE tie-breaks stay unambiguous).
fn cloud(max: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(
        (0.001f64..0.999, 0.001f64..0.999).prop_map(|(x, y)| Point::new(x, y)),
        2..max,
    )
    .prop_map(|mut pts| {
        pts.sort_by(|a, b| (a.x, a.y).partial_cmp(&(b.x, b.y)).unwrap());
        pts.dedup_by(|a, b| a.dist(b) < 1e-6);
        pts
    })
    .prop_filter("need at least two distinct points", |p| p.len() >= 2)
}

/// Every soundness promise a `Repaired` outcome makes, as one checkable
/// predicate shared by the property test and the deterministic probe
/// below: the forest is valid, it spans exactly the surviving nodes, and
/// the shared ledger conserves energy across the original + repair
/// stages.
fn repaired_soundness(
    outcome: &RunOutcome,
    n: usize,
    never_crashed: &BTreeSet<usize>,
    sink: &MetricsSink,
) -> Result<(), String> {
    let RunOutcome::Repaired { output, repair } = outcome else {
        return Err("expected a Repaired outcome".into());
    };
    output
        .tree
        .validate_forest()
        .map_err(|e| format!("invalid repaired forest: {e:?}"))?;
    if repair.attempts == 0 {
        return Err("Repaired with zero repair attempts".into());
    }
    if repair.survivors + repair.crashed != n {
        return Err(format!(
            "survivors {} + crashed {} != n {n}",
            repair.survivors, repair.crashed
        ));
    }
    if repair.survivors > 0 && repair.fragments_after != 1 {
        return Err(format!(
            "repair left {} survivor fragments",
            repair.fragments_after
        ));
    }
    // Spans exactly the survivors: a node that never crashes survives
    // every run, so all such nodes must share one forest component.
    let mut uf = UnionFind::new(n);
    for e in output.tree.edges() {
        let (u, v) = e.endpoints();
        uf.union(u, v);
    }
    let mut root = None;
    for &u in never_crashed {
        let r = uf.find(u);
        if *root.get_or_insert(r) != r {
            return Err(format!("surviving node {u} is disconnected after repair"));
        }
    }
    // Ledger conservation: the external sink saw every transmission the
    // run charged, original and repair traffic alike — bitwise.
    if sink.total_energy().to_bits() != output.stats.energy.to_bits() {
        return Err(format!(
            "sink energy {} != stats energy {}",
            sink.total_energy(),
            output.stats.energy
        ));
    }
    if sink.total_messages() != output.stats.messages {
        return Err(format!(
            "sink messages {} != stats messages {}",
            sink.total_messages(),
            output.stats.messages
        ));
    }
    // The stage marks — original + repair scopes — telescope to the
    // totals, and the repair scope actually appears in the log.
    let stage_energy: f64 = output.stages.iter().map(|s| s.energy).sum();
    if (stage_energy - output.stats.energy).abs() > 1e-9 {
        return Err(format!(
            "stage energies sum to {stage_energy}, stats say {}",
            output.stats.energy
        ));
    }
    let stage_msgs: u64 = output.stages.iter().map(|s| s.messages).sum();
    if stage_msgs != output.stats.messages {
        return Err(format!(
            "stage messages sum to {stage_msgs}, stats say {}",
            output.stats.messages
        ));
    }
    if !output.stages.iter().any(|s| s.scope == "repair") {
        return Err("no repair-scope stage mark on a Repaired run".into());
    }
    // Per-kind ledger tallies agree with the totals too.
    let kind_sum: f64 = output.stats.ledger.kinds().map(|(_, t)| t.energy).sum();
    if (kind_sum - output.stats.energy).abs() > 1e-9 {
        return Err(format!(
            "ledger kinds sum to {kind_sum}, stats say {}",
            output.stats.energy
        ));
    }
    // Repair's own charge is part of — not on top of — the total.
    if !(repair.energy > 0.0 && repair.energy <= output.stats.energy) {
        return Err(format!(
            "repair energy {} outside (0, total {}]",
            repair.energy, output.stats.energy
        ));
    }
    Ok(())
}

/// Deterministic probe pinning that the repair property below is not
/// vacuous: at n = 64 and 30% link loss a plan that fragments modified
/// GHS exists in a small seed window (seed 42 at the time of writing),
/// and its `Repaired` outcome passes every soundness check.
#[test]
fn repaired_outcome_is_reachable_and_sound() {
    let pts = emst_geom::uniform_points(
        64,
        &mut emst_geom::trial_rng(emst_geom::mix_seed(0xC0DE, 64), 0),
    );
    let never_crashed: BTreeSet<usize> = (0..pts.len()).collect();
    let r = emst_geom::paper_phase2_radius(pts.len());
    for seed in 0..64u64 {
        let plan = FaultPlan::none().seed(seed).drop_probability(0.3);
        let mut sink = MetricsSink::new();
        let outcome = Sim::new(&pts)
            .radius(r)
            .with_faults(plan)
            .repair(RepairPolicy::default())
            .sink(&mut sink)
            .try_run_checked(Protocol::Ghs(GhsVariant::Modified))
            .unwrap();
        if matches!(outcome, RunOutcome::Repaired { .. }) {
            repaired_soundness(&outcome, pts.len(), &never_crashed, &sink).unwrap();
            return;
        }
    }
    panic!("no seed in 0..64 produced a Repaired run — repair became unreachable");
}

/// Original GHS twice on one instance: clean, and under a fault plan
/// whose one event never fires. That plan is not a no-op, so the second
/// run takes the private-row path with explicit reject marks; the clean
/// run's cursor-held reject state must reproduce it exactly — tree,
/// rounds, messages and every per-kind ledger entry, energy bitwise.
fn original_paths_agree(pts: &[Point], r: f64) -> Result<(), String> {
    let proto = Protocol::Ghs(GhsVariant::Original);
    let plan = FaultPlan::none().crash_at(0, u64::MAX);
    assert!(
        !plan.is_noop(),
        "the plan must route through the faulted path"
    );
    let clean = Sim::new(pts).radius(r).run(proto);
    let marked = Sim::new(pts).radius(r).with_faults(plan).run(proto);
    let n = pts.len();
    if !clean.tree.same_edges(&marked.tree) {
        return Err(format!("trees differ (n={n}, r={r})"));
    }
    let (a, b) = (&clean.stats, &marked.stats);
    if (a.rounds, a.messages) != (b.rounds, b.messages) {
        return Err(format!(
            "rounds/messages {}/{} vs {}/{} (n={n}, r={r})",
            a.rounds, a.messages, b.rounds, b.messages
        ));
    }
    let kinds = |s: &emst_radio::RunStats| -> Vec<(&'static str, u64, u64)> {
        s.ledger
            .kinds()
            .map(|(k, t)| (k, t.messages, t.energy.to_bits()))
            .collect()
    };
    if kinds(a) != kinds(b) {
        return Err(format!(
            "ledgers differ (n={n}, r={r}):\n{:?}\n{:?}",
            kinds(a),
            kinds(b)
        ));
    }
    Ok(())
}

/// The deterministic cases of the differential check: distance ties and
/// duplicate points, and a radius below connectivity.
#[test]
fn original_clean_scan_matches_explicit_marks_on_ties_and_forests() {
    let mut lattice: Vec<Point> = (0..64)
        .map(|k| Point::new((k % 8) as f64 / 8.0, (k / 8) as f64 / 8.0))
        .collect();
    lattice.extend([lattice[0], lattice[9], lattice[9], lattice[36], lattice[63]]);
    original_paths_agree(&lattice, 0.3).unwrap();
    let pts = emst_geom::uniform_points(400, &mut emst_geom::trial_rng(115, 0));
    original_paths_agree(&pts, emst_geom::paper_phase1_radius(400)).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Random clouds up to n = 1500, at radii from below to above the
    /// connectivity threshold.
    #[test]
    fn original_clean_scan_matches_explicit_marks(pts in cloud(1500), scale in 0.5f64..1.5) {
        let r = scale * emst_geom::paper_phase2_radius(pts.len());
        prop_assert_eq!(original_paths_agree(&pts, r), Ok(()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// GHS (both variants) computes the minimum spanning forest of the
    /// visible graph at any radius, on any cloud.
    #[test]
    fn ghs_equals_kruskal_forest(pts in cloud(40), r in 0.05f64..1.0) {
        let g = Graph::geometric(&pts, r);
        let reference = SpanningTree::new(pts.len(), kruskal_forest(&g));
        for variant in [GhsVariant::Modified, GhsVariant::Original] {
            let out = Sim::new(&pts).radius(r).run(Protocol::Ghs(variant));
            prop_assert!(
                out.tree.same_edges(&reference),
                "{variant:?} mismatch at r={r}"
            );
        }
    }

    /// EOPT's tree always equals the Kruskal forest of the connectivity
    /// graph — the exactness claim of Theorem 5.3, radius-restricted.
    #[test]
    fn eopt_is_exact(pts in cloud(40)) {
        let cfg = emst_core::EoptConfig::default();
        let out = Sim::new(&pts).run(Protocol::Eopt(cfg));
        let g = Graph::geometric(&pts, cfg.radius2(pts.len().max(2)));
        let reference = SpanningTree::new(pts.len(), kruskal_forest(&g));
        prop_assert!(out.tree.same_edges(&reference));
    }

    /// Co-NNT always yields a spanning tree with exactly one root, under
    /// both rankings, on any distinct-coordinate cloud.
    #[test]
    fn nnt_always_spans(pts in cloud(60)) {
        for scheme in [RankScheme::Diagonal, RankScheme::XOrder] {
            let out = Sim::new(&pts).run(Protocol::Nnt(scheme));
            prop_assert!(out.tree.is_valid(), "{scheme:?}: {:?}", out.tree.validate());
            prop_assert_eq!(out.detail.as_nnt().unwrap().unconnected, 1);
        }
    }

    /// NNT cost dominates MST cost but never by more than the trivial
    /// n·max-edge bound; and every NNT edge goes to the true nearest
    /// higher-ranked node.
    #[test]
    fn nnt_edges_are_nearest_higher_rank(pts in cloud(40)) {
        let out = Sim::new(&pts).run(Protocol::Nnt(RankScheme::Diagonal));
        let mut parent = vec![usize::MAX; pts.len()];
        for e in out.tree.edges() {
            let (u, v) = e.endpoints();
            if emst_geom::diag_rank_less(&pts[u], &pts[v]) {
                parent[u] = v;
            } else {
                parent[v] = u;
            }
        }
        for u in 0..pts.len() {
            let brute = (0..pts.len())
                .filter(|&v| v != u && emst_geom::diag_rank_less(&pts[u], &pts[v]))
                .min_by(|&a, &b| pts[u].dist(&pts[a]).total_cmp(&pts[u].dist(&pts[b])));
            match brute {
                Some(b) => prop_assert_eq!(parent[u], b),
                None => prop_assert_eq!(parent[u], usize::MAX),
            }
        }
        let mst = emst_graph::euclidean_mst(&pts);
        prop_assert!(out.tree.cost(1.0) >= mst.cost(1.0) - 1e-9);
    }

    /// Energy ledgers are internally consistent: per-kind tallies sum to
    /// the totals, and rounds/messages are nonzero whenever edges exist.
    #[test]
    fn ledger_consistency(pts in cloud(30), r in 0.2f64..0.9) {
        let out = Sim::new(&pts).radius(r).run(Protocol::Ghs(GhsVariant::Modified));
        let kind_sum: f64 = out.stats.ledger.kinds().map(|(_, t)| t.energy).sum();
        prop_assert!((kind_sum - out.stats.energy).abs() < 1e-9);
        let msg_sum: u64 = out.stats.ledger.kinds().map(|(_, t)| t.messages).sum();
        prop_assert_eq!(msg_sum, out.stats.messages);
        prop_assert!(out.stats.messages >= pts.len() as u64); // hellos
    }

    /// Random clouds under random lossy/crashy fault plans: whenever the
    /// recovery runtime reports `Repaired`, the outcome is sound — valid
    /// forest, exactly the surviving nodes spanned, energy conserved
    /// across the original + repair stages. Outcomes that finish without
    /// repair still keep the baseline ledger invariants.
    #[test]
    fn repaired_runs_are_sound(
        pts in cloud(48),
        p in 0.15f64..0.35,
        seed in any::<u64>(),
        crashes in proptest::collection::vec((any::<u32>(), 0u64..40), 0..3),
    ) {
        let n = pts.len();
        let mut plan = FaultPlan::none().seed(seed).drop_probability(p);
        let mut crashed = BTreeSet::new();
        for &(node, round) in &crashes {
            let node = node as usize % n;
            if crashed.insert(node) {
                plan = plan.crash_at(node, round);
            }
        }
        let never_crashed: BTreeSet<usize> =
            (0..n).filter(|u| !crashed.contains(u)).collect();
        let mut sink = MetricsSink::new();
        let outcome = Sim::new(&pts)
            .radius(emst_geom::paper_phase2_radius(n))
            .with_faults(plan)
            .repair(RepairPolicy::default())
            .sink(&mut sink)
            .try_run_checked(Protocol::Ghs(GhsVariant::Modified)).unwrap();
        match &outcome {
            RunOutcome::Repaired { .. } => {
                prop_assert_eq!(
                    repaired_soundness(&outcome, n, &never_crashed, &sink),
                    Ok(())
                );
            }
            RunOutcome::Complete(out) => {
                prop_assert!(out.tree.validate_forest().is_ok());
                prop_assert_eq!(
                    sink.total_energy().to_bits(),
                    out.stats.energy.to_bits()
                );
                prop_assert_eq!(sink.total_messages(), out.stats.messages);
            }
            RunOutcome::Degraded { output: out, faults } => {
                // Degraded means repair was not needed (forest already
                // spans) or genuinely could not finish; either way the
                // damage must be visible and the ledger consistent.
                prop_assert!(out.tree.validate_forest().is_ok());
                prop_assert!(faults.drops > 0 || faults.timeouts > 0);
                prop_assert_eq!(
                    sink.total_energy().to_bits(),
                    out.stats.energy.to_bits()
                );
            }
            // A crash-heavy plan may legitimately abort the run.
            RunOutcome::Failed { .. } => {}
        }
    }
}
