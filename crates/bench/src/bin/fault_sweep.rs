//! **R1/R2 — fault sweep:** reliability of the MST protocols under lossy
//! links, before and after the recovery runtime.
//!
//! The paper's analysis assumes every transmission is delivered; this
//! experiment measures what each protocol actually does when the radio
//! layer drops each (sender, receiver) delivery independently with
//! probability `p` and senders retry a bounded number of times
//! (acknowledgement/timeout model, default 3 retries). Each trial runs
//! twice on identical fault coins — once bare (R1) and once with the
//! repair stage enabled (R2) — so the `repaired` column isolates exactly
//! what the recovery runtime buys. Reported per `(protocol, n, p)`:
//!
//! * **completed** — fraction of bare trials whose output forest spans
//!   (a single fragment);
//! * **repaired** — same fraction with repair enabled (the tree builders
//!   recover the p = 0.2 cliff to ~1.0);
//! * **weight/MST** — `Σ|e|` of the produced forest over the clean
//!   Euclidean MST weight (partial forests weigh less, distorted trees
//!   more);
//! * **energy x** — energy inflation over the same protocol's fault-free
//!   run (retry surcharge; expected a small constant factor at small `p`);
//! * the raw drop/retry/timeout counters;
//! * **degraded stage** — for trials that degraded, the stage that
//!   exhausted its retry budget (modal label across trials, from the
//!   per-stage fault deltas on the stage marks).
//!
//! Co-NNT has no repair path (no salvageable fragment forest — its
//! partial structures are per-node parent pointers), so its `repaired`
//! column equals `completed`.
//!
//! Run: `cargo run --release -p emst-bench --bin fault_sweep [-- --trials N --quick --csv]`

use emst_analysis::json::{Arr, Fixed, Layout, Obj};
use emst_analysis::{fnum, Table};
use emst_bench::{repair_trial, run_trials, write_bench, Options, RepairTrial};
use emst_core::{EoptConfig, GhsVariant, Protocol, RankScheme};
use std::collections::BTreeMap;

fn protocols() -> Vec<(&'static str, Protocol)> {
    vec![
        ("ghs_modified", Protocol::Ghs(GhsVariant::Modified)),
        ("eopt", Protocol::Eopt(EoptConfig::default())),
        ("co_nnt", Protocol::Nnt(RankScheme::Diagonal)),
    ]
}

/// Per-`(protocol, n, p)` aggregates over the trial fan-out.
struct Row {
    completed: f64,
    repaired: f64,
    weight_ratio: f64,
    energy: f64,
    repaired_energy: f64,
    drops: f64,
    retries: f64,
    timeouts: f64,
    attempts: f64,
    /// Modal degraded-stage label, as `"scope/name (count/degraded)"`.
    degraded_stage: Option<(String, usize, usize)>,
}

fn aggregate(trials: &[RepairTrial]) -> Row {
    let n = trials.len() as f64;
    let mean = |f: &dyn Fn(&RepairTrial) -> f64| trials.iter().map(f).sum::<f64>() / n;
    let mut stages: BTreeMap<&str, usize> = BTreeMap::new();
    for t in trials {
        if let Some(stage) = &t.degraded_stage {
            *stages.entry(stage.as_str()).or_default() += 1;
        }
    }
    let degraded: usize = stages.values().sum();
    // Modal label; BTreeMap iteration makes the tie-break lexicographic
    // and therefore deterministic.
    let degraded_stage = stages
        .iter()
        .max_by_key(|&(_, &count)| count)
        .map(|(stage, &count)| (stage.to_string(), count, degraded));
    Row {
        completed: mean(&|t| f64::from(u8::from(t.base.completed))),
        repaired: mean(&|t| f64::from(u8::from(t.repaired_completed))),
        weight_ratio: mean(&|t| t.base.weight / t.base.mst_weight),
        energy: mean(&|t| t.base.energy),
        repaired_energy: mean(&|t| t.repaired_energy),
        drops: mean(&|t| t.base.drops as f64),
        retries: mean(&|t| t.base.retries as f64),
        timeouts: mean(&|t| t.base.timeouts as f64),
        attempts: mean(&|t| f64::from(t.repair_attempts)),
        degraded_stage,
    }
}

fn main() {
    let opts = Options::from_env();
    let sizes: Vec<usize> = if opts.quick {
        vec![500]
    } else {
        vec![500, 2000]
    };
    let ps = [0.0, 0.01, 0.05, 0.1, 0.2];
    eprintln!(
        "fault_sweep: link-drop reliability ± repair, p ∈ {ps:?} ({} trials per point, seed {:#x})",
        opts.trials, opts.seed
    );

    let mut json_rows = Arr::with(Layout::ROWS);
    for (name, proto) in protocols() {
        for &n in &sizes {
            let rows: Vec<(f64, Row)> = ps
                .iter()
                .map(|&p| {
                    let trials = run_trials(&opts, |t| repair_trial(opts.seed, n, p, proto, t));
                    (p, aggregate(&trials))
                })
                .collect();
            // The p = 0.0 row is the protocol's own fault-free baseline.
            let base_energy = rows[0].1.energy;
            let mut table = Table::new([
                "drop p",
                "completed",
                "repaired",
                "weight/MST",
                "energy x",
                "repair x",
                "drops",
                "retries",
                "timeouts",
                "degraded stage",
            ]);
            for (p, row) in &rows {
                let stage_cell = match &row.degraded_stage {
                    Some((stage, count, total)) => format!("{stage} ({count}/{total})"),
                    None => "-".into(),
                };
                table.row([
                    fnum(*p, 2),
                    fnum(row.completed, 2),
                    fnum(row.repaired, 2),
                    fnum(row.weight_ratio, 3),
                    fnum(row.energy / base_energy, 2),
                    fnum(row.repaired_energy / base_energy, 2),
                    fnum(row.drops, 1),
                    fnum(row.retries, 1),
                    fnum(row.timeouts, 1),
                    stage_cell.clone(),
                ]);
                json_rows = json_rows.item(
                    Obj::with(Layout::SPACED)
                        .field("protocol", name)
                        .field("n", n)
                        .field("p", *p)
                        .field("completed", Fixed(row.completed, 3))
                        .field("repaired", Fixed(row.repaired, 3))
                        .field("weight_ratio", Fixed(row.weight_ratio, 4))
                        .field("energy", Fixed(row.energy, 3))
                        .field("energy_x", Fixed(row.energy / base_energy, 3))
                        .field("repaired_energy", Fixed(row.repaired_energy, 3))
                        .field("repair_attempts", Fixed(row.attempts, 2))
                        .field("drops", Fixed(row.drops, 1))
                        .field("retries", Fixed(row.retries, 1))
                        .field("timeouts", Fixed(row.timeouts, 1))
                        .field(
                            "degraded_stage",
                            row.degraded_stage.as_ref().map(|(stage, _, _)| stage),
                        ),
                );
            }
            println!("-- {name} under link faults (n = {n}) --");
            println!("{}", table.render());
            if opts.csv {
                println!("{}", table.to_csv());
            }
        }
    }

    write_bench(
        "BENCH_faults.json",
        Obj::with(Layout::LINES)
            .field("schema", "fault_sweep/v2")
            .field("seed", opts.seed)
            .field("trials", opts.trials)
            .field("rows", json_rows),
    );
}
