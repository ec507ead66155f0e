//! Single-trial experiment kernels shared by binaries and Criterion
//! benches.

use emst_core::{
    EoptConfig, GhsVariant, Instance, Protocol, RankScheme, RepairPolicy, RunOutcome, Sim,
};
use emst_geom::{mix_seed, paper_phase2_radius, trial_rng, uniform_points, Point};
use emst_graph::euclidean_mst;
use emst_percolation::giant_stats;
use emst_radio::{FaultPlan, StageMark};

/// The seeded instance for `(seed, n, trial)`. The experiment seed and
/// the instance size are combined with the SplitMix64 finaliser — a plain
/// `seed ^ (n << 20)` base is invertible under XOR, so distinct
/// `(seed, n)` pairs could alias the same point stream across sizes.
pub fn instance(seed: u64, n: usize, trial: u64) -> Vec<Point> {
    uniform_points(n, &mut trial_rng(mix_seed(seed, n as u64), trial))
}

/// The same `(seed, n, trial)` stream as [`instance`], wrapped in a
/// reusable [`Instance`] so kernels that run several protocols over one
/// point set share a single topology build per radius.
pub fn sim_instance(seed: u64, n: usize, trial: u64) -> Instance {
    Instance::generate(seed, n, trial)
}

/// Fig 3 kernel: total energy of GHS (original, §VII baseline), EOPT and
/// Co-NNT on the *same* instance. Radii follow §VII exactly.
pub fn fig3_energies(seed: u64, n: usize, trial: u64) -> [f64; 3] {
    let inst = sim_instance(seed, n, trial);
    let ghs = Sim::from_instance(&inst)
        .radius(paper_phase2_radius(n))
        .run(Protocol::Ghs(GhsVariant::Original));
    let eopt = Sim::from_instance(&inst).run(Protocol::Eopt(EoptConfig::default()));
    let nnt = Sim::from_instance(&inst).run(Protocol::Nnt(RankScheme::Diagonal));
    [ghs.stats.energy, eopt.stats.energy, nnt.stats.energy]
}

/// §VII quality kernel: `(Σ|e| NNT, Σ|e| MST, Σ|e|² NNT, Σ|e|² MST)`.
pub fn quality_row(seed: u64, n: usize, trial: u64) -> [f64; 4] {
    let inst = sim_instance(seed, n, trial);
    let nnt = Sim::from_instance(&inst).run(Protocol::Nnt(RankScheme::Diagonal));
    let mst = euclidean_mst(inst.points());
    [
        nnt.tree.cost(1.0),
        mst.cost(1.0),
        nnt.tree.cost(2.0),
        mst.cost(2.0),
    ]
}

/// Theorem 5.2 kernel at radius `√(c₁/n)`: `(giant fraction, components,
/// second-largest component, β̂)`.
pub fn giant_row(seed: u64, n: usize, c1: f64, trial: u64) -> [f64; 4] {
    let pts = instance(seed, n, trial);
    let s = giant_stats(&pts, (c1 / n as f64).sqrt());
    [
        s.giant_fraction(),
        s.components as f64,
        s.second_component_nodes as f64,
        s.beta_hat(),
    ]
}

/// Theorem 5.1 kernel: 1.0 if `G(n, m·√(ln n/n))` is connected else 0.0.
pub fn connectivity_trial(seed: u64, n: usize, multiplier: f64, trial: u64) -> f64 {
    let pts = instance(seed, n, trial);
    let r = multiplier * ((n as f64).ln() / n as f64).sqrt();
    let g = emst_graph::Graph::geometric(&pts, r);
    if emst_graph::is_connected(&g) {
        1.0
    } else {
        0.0
    }
}

/// Lemma 4.1 kernel: mean over nodes of `n·d(k)²/k`, where `d(k)` is the
/// distance to the k-th nearest neighbour — the lemma lower-bounds the
/// energy to reach `k` neighbours by `k/(b·n)`, i.e. this ratio should be
/// bounded away from 0 by `1/b`.
pub fn knn_energy_ratio(seed: u64, n: usize, k: usize, trial: u64) -> f64 {
    let pts = instance(seed, n, trial);
    let grid = emst_geom::BucketGrid::for_radius(&pts, (k as f64 / n as f64).sqrt());
    let mut sum = 0.0;
    for u in 0..n {
        let d = grid
            .kth_nearest_distance(u, k)
            .expect("k < n by construction");
        sum += n as f64 * d * d / k as f64;
    }
    sum / n as f64
}

/// EOPT ablation kernel: `(energy, fragments after step 1, giant size,
/// recovery used)` for an explicit phase-1 multiplier.
pub fn eopt_radius_row(seed: u64, n: usize, m1: f64, trial: u64) -> [f64; 4] {
    let inst = sim_instance(seed, n, trial);
    let cfg = EoptConfig {
        phase1_multiplier: m1,
        ..EoptConfig::default()
    };
    let out = Sim::from_instance(&inst).run(Protocol::Eopt(cfg));
    let d = *out.detail.as_eopt().expect("EOPT detail");
    [
        out.stats.energy,
        d.fragments_after_step1 as f64,
        d.largest_fragment as f64,
        if d.recovery_used { 1.0 } else { 0.0 },
    ]
}

/// GHS-variant ablation kernel: `(messages, energy)` for original then
/// modified on the same instance.
pub fn ghs_variant_row(seed: u64, n: usize, trial: u64) -> [f64; 4] {
    let inst = sim_instance(seed, n, trial);
    let r = paper_phase2_radius(n);
    let orig = Sim::from_instance(&inst)
        .radius(r)
        .run(Protocol::Ghs(GhsVariant::Original));
    let modi = Sim::from_instance(&inst)
        .radius(r)
        .run(Protocol::Ghs(GhsVariant::Modified));
    [
        orig.stats.messages as f64,
        orig.stats.energy,
        modi.stats.messages as f64,
        modi.stats.energy,
    ]
}

/// Ranking ablation kernel: per scheme (diagonal, x-rank, id-rank) the
/// `(max edge, energy, Σ|e| quality ratio vs MST)` on the same instance.
pub fn rank_scheme_row(seed: u64, n: usize, trial: u64) -> [f64; 9] {
    let inst = sim_instance(seed, n, trial);
    let mst_len = euclidean_mst(inst.points()).cost(1.0);
    let mut out = [0.0; 9];
    for (k, scheme) in [RankScheme::Diagonal, RankScheme::XOrder, RankScheme::NodeId]
        .into_iter()
        .enumerate()
    {
        let run = Sim::from_instance(&inst).run(Protocol::Nnt(scheme));
        out[3 * k] = run.tree.max_edge_len();
        out[3 * k + 1] = run.stats.energy;
        out[3 * k + 2] = run.tree.cost(1.0) / mst_len;
    }
    out
}

/// One fault-injected run, reduced to the sweep's observables.
#[derive(Debug, Clone, Copy)]
pub struct FaultTrial {
    /// The run produced a single spanning fragment.
    pub completed: bool,
    /// `Σ|e|` of the produced forest (partial forests included).
    pub weight: f64,
    /// `Σ|e|` of the clean Euclidean MST on the same instance.
    pub mst_weight: f64,
    /// Total energy, including retry surcharges.
    pub energy: f64,
    /// Failed deliveries.
    pub drops: u64,
    /// Retransmissions.
    pub retries: u64,
    /// Abandoned messages.
    pub timeouts: u64,
}

/// Fault-sweep kernel: runs `protocol` on the `(seed, n, trial)` instance
/// under per-link drop probability `p` (default retry budget) and reports
/// completion, weight vs the clean MST, energy, and the fault counters.
/// The fault coin seed folds in the trial index so trials draw independent
/// drop patterns while staying reproducible.
pub fn fault_trial(seed: u64, n: usize, p: f64, protocol: Protocol, trial: u64) -> FaultTrial {
    let inst = sim_instance(seed, n, trial);
    let mst_weight = euclidean_mst(inst.points()).cost(1.0);
    let plan = FaultPlan::none()
        .drop_probability(p)
        .seed(mix_seed(seed, trial));
    let outcome = Sim::from_instance(&inst)
        .radius(paper_phase2_radius(n))
        .with_faults(plan)
        .try_run_checked(protocol)
        .expect("a fault plan with a radius and nothing else is a valid config");
    let faults = outcome.faults();
    let (completed, weight, energy) = match outcome.output() {
        Some(out) => (out.fragments == 1, out.tree.cost(1.0), out.stats.energy),
        None => (false, f64::NAN, f64::NAN),
    };
    FaultTrial {
        completed,
        weight,
        mst_weight,
        energy,
        drops: faults.drops,
        retries: faults.retries,
        timeouts: faults.timeouts,
    }
}

/// One `(protocol, n, p)` trial of the post-repair fault sweep (R2):
/// the same run as [`fault_trial`] plus, for degraded runs, the stage
/// that exhausted the retry budget, and a second run with the recovery
/// runtime enabled reporting whether repair closed the forest.
pub struct RepairTrial {
    /// The repair-disabled run (R1 semantics, bit-identical to
    /// [`fault_trial`]).
    pub base: FaultTrial,
    /// `repair/*`-attributed stage label that exhausted the retry budget
    /// (most timeouts; falls back to most drops) — `None` unless the
    /// repair-disabled run classified `Degraded`.
    pub degraded_stage: Option<String>,
    /// Whether the repair-enabled run's forest spans (single fragment).
    pub repaired_completed: bool,
    /// Reconnection attempts the repair stage used (0 when it was
    /// elided or never triggered).
    pub repair_attempts: u32,
    /// Total energy of the repair-enabled run (baseline + repair
    /// traffic; equals `base.energy` when repair is elided).
    pub repaired_energy: f64,
}

/// The stage a degraded run starved in: the stage mark with the most
/// abandoned messages, falling back to the most dropped deliveries (a
/// fragmented run can degrade without ever exhausting a retry budget).
/// Ties go to the later stage — where the run finally gave up.
fn blame_stage(stages: &[StageMark]) -> Option<String> {
    let pick = |key: fn(&StageMark) -> u64| {
        stages
            .iter()
            .filter(|s| key(s) > 0)
            .max_by_key(|s| (key(s), s.index))
            .map(|s| format!("{}/{}", s.scope, s.name))
    };
    pick(|s| s.faults.timeouts).or_else(|| pick(|s| s.faults.drops))
}

/// Post-repair fault-sweep kernel: [`fault_trial`] with per-stage blame
/// and a repair-enabled rerun of the same plan. Both runs share the
/// instance and fault coins, so the delta is exactly the recovery
/// runtime's doing.
pub fn repair_trial(seed: u64, n: usize, p: f64, protocol: Protocol, trial: u64) -> RepairTrial {
    let inst = sim_instance(seed, n, trial);
    let mst_weight = euclidean_mst(inst.points()).cost(1.0);
    let plan = FaultPlan::none()
        .drop_probability(p)
        .seed(mix_seed(seed, trial));
    let radius = paper_phase2_radius(n);
    let outcome = Sim::from_instance(&inst)
        .radius(radius)
        .with_faults(plan.clone())
        .try_run_checked(protocol)
        .expect("a fault plan with a radius and nothing else is a valid config");
    let faults = outcome.faults();
    let (completed, weight, energy) = match outcome.output() {
        Some(out) => (out.fragments == 1, out.tree.cost(1.0), out.stats.energy),
        None => (false, f64::NAN, f64::NAN),
    };
    let degraded_stage = match &outcome {
        RunOutcome::Degraded { output, .. } => blame_stage(&output.stages),
        _ => None,
    };
    let fixed = Sim::from_instance(&inst)
        .radius(radius)
        .with_faults(plan)
        .repair(RepairPolicy::default())
        .try_run_checked(protocol)
        .expect("a fault plan with a radius and nothing else is a valid config");
    let repair_attempts = fixed.repair().map(|r| r.attempts).unwrap_or(0);
    // `Repaired` spans the survivors by definition (crashed nodes stay
    // isolated); for drop-only sweep plans that coincides with a single
    // fragment.
    let (repaired_completed, repaired_energy) = match fixed.output() {
        Some(out) => (fixed.is_repaired() || out.fragments == 1, out.stats.energy),
        None => (false, f64::NAN),
    };
    RepairTrial {
        base: FaultTrial {
            completed,
            weight,
            mst_weight,
            energy,
            drops: faults.drops,
            retries: faults.retries,
            timeouts: faults.timeouts,
        },
        degraded_stage,
        repaired_completed,
        repair_attempts,
        repaired_energy,
    }
}

/// EOPT exactness kernel: 1.0 when EOPT's tree equals the Euclidean MST
/// (given connectivity), else 0.0; `None` when the §VII radius leaves the
/// instance disconnected (exactness is then vacuous for the full MST).
pub fn exactness_trial(seed: u64, n: usize, trial: u64) -> Option<f64> {
    let inst = sim_instance(seed, n, trial);
    let out = Sim::from_instance(&inst).run(Protocol::Eopt(EoptConfig::default()));
    if out.fragments != 1 {
        return None;
    }
    let mst = euclidean_mst(inst.points());
    Some(if out.tree.same_edges(&mst) { 1.0 } else { 0.0 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BASE_SEED;

    #[test]
    fn instances_are_reproducible_and_distinct() {
        let a = instance(BASE_SEED, 100, 0);
        let b = instance(BASE_SEED, 100, 0);
        assert_eq!(a, b);
        assert_ne!(instance(BASE_SEED, 100, 1), a);
        assert_eq!(a.len(), 100);
    }

    #[test]
    fn fig3_energies_ordering_holds_at_moderate_n() {
        let [ghs, eopt, nnt] = fig3_energies(BASE_SEED, 1200, 0);
        assert!(ghs > eopt, "GHS {ghs} must exceed EOPT {eopt}");
        assert!(eopt > nnt, "EOPT {eopt} must exceed Co-NNT {nnt}");
    }

    #[test]
    fn quality_row_has_sane_ratios() {
        let [nl, ml, ns, ms] = quality_row(BASE_SEED, 500, 0);
        assert!(nl >= ml, "NNT length {nl} below MST {ml}");
        assert!(ns >= ms);
        assert!(nl / ml < 1.5);
    }

    #[test]
    fn connectivity_monotone_in_radius() {
        let lo = connectivity_trial(BASE_SEED, 500, 0.5, 0);
        let hi = connectivity_trial(BASE_SEED, 500, 3.0, 0);
        assert!(hi >= lo);
        assert_eq!(hi, 1.0);
    }

    #[test]
    fn knn_ratio_is_order_one() {
        let r = knn_energy_ratio(BASE_SEED, 1000, 8, 0);
        assert!(r > 0.05 && r < 5.0, "ratio {r}");
    }

    #[test]
    fn seed_mixing_avoids_cross_size_stream_collisions() {
        // Regression: the old base `seed ^ (n << 20)` is invertible under
        // XOR, so (seed, 1000) and (seed ^ (1000 << 20) ^ (2000 << 20),
        // 2000) shared one RNG base — the larger instance reproduced the
        // smaller one as its prefix. SplitMix64 mixing must break this.
        let colliding = BASE_SEED ^ (1000u64 << 20) ^ (2000u64 << 20);
        let a = instance(BASE_SEED, 1000, 0);
        let b = instance(colliding, 2000, 0);
        assert_ne!(&b[..1000], &a[..], "cross-size stream collision");
    }

    #[test]
    fn exactness_holds() {
        assert_eq!(exactness_trial(BASE_SEED, 400, 0), Some(1.0));
    }
}
