//! **R4 — churn sweep:** incremental maintenance vs per-epoch
//! recomputation under sustained membership churn.
//!
//! A deployed network does not rebuild its MST from scratch every time a
//! node crashes, sleeps, wakes, joins or moves — it maintains the forest
//! it has. This experiment drives the churn-maintenance loop
//! ([`emst_core::maintain()`]) through seeded [`rate_timeline`] schedules
//! (6 epochs, `n · rate` events per epoch from the deployment mix) under
//! both strategies and compares their maintenance cost. Reported per
//! `(n, churn rate, strategy)`:
//!
//! * **energy** — total maintenance energy across the timeline (the
//!   bootstrap construction is identical under both strategies and
//!   excluded);
//! * **energy/round** — the headline metric, energy per maintained
//!   round;
//! * raw message/round counters and the forest churn (edges added and
//!   removed across all epochs);
//! * **inc/rec** — on the incremental rows, the incremental-to-recompute
//!   energy ratio for that `(n, rate)` point.
//!
//! Every trial also runs the full churn invariant battery
//! ([`churn_violations`]: epoch monotonicity, bitwise ledger
//! conservation, forest validity, strategy/Kruskal agreement, bitwise
//! determinism) and the sweep **aborts** on any violation — the sweep
//! doubles as the CI churn smoke. Results land in `BENCH_churn.json`
//! (`bench_churn/v1`, validated by `bench_summary --check`).
//!
//! Run: `cargo run --release -p emst-bench --bin churn_sweep [-- --trials N --quick --csv]`

use emst_analysis::json::{Arr, Fixed, Layout, Obj};
use emst_analysis::{fnum, Table};
use emst_bench::{churn_violations, instance, rate_timeline, write_bench, Options};
use emst_core::{maintain, MaintainReport, MaintainStrategy};
use emst_geom::{mix_seed, paper_phase2_radius};

const EPOCHS: usize = 6;

/// Per-`(n, rate, strategy)` aggregates over the trial fan-out.
#[derive(Default)]
struct Row {
    bootstrap_energy: f64,
    energy: f64,
    messages: f64,
    rounds: f64,
    energy_per_round: f64,
    edges_added: f64,
    edges_removed: f64,
}

fn accumulate(row: &mut Row, rep: &MaintainReport, trials: f64) {
    row.bootstrap_energy += rep.bootstrap_energy / trials;
    row.energy += rep.maintenance_energy() / trials;
    row.messages += rep.maintenance_messages() as f64 / trials;
    row.rounds += rep.maintenance_rounds() as f64 / trials;
    row.energy_per_round += rep.energy_per_maintained_round() / trials;
    let (added, removed) = rep.epochs.iter().fold((0usize, 0usize), |(a, r), e| {
        (a + e.edges_added, r + e.edges_removed)
    });
    row.edges_added += added as f64 / trials;
    row.edges_removed += removed as f64 / trials;
}

fn main() {
    let opts = Options::from_env();
    let sizes: Vec<usize> = if opts.quick {
        vec![300]
    } else {
        vec![500, 2000]
    };
    let rates = [0.01, 0.02, 0.05];
    eprintln!(
        "churn_sweep: incremental vs recompute maintenance, rate ∈ {rates:?}, {EPOCHS} epochs \
         ({} trials per point, seed {:#x})",
        opts.trials, opts.seed
    );

    let mut json_rows = Arr::with(Layout::ROWS);
    let mut wins: Vec<(usize, f64, f64, f64)> = Vec::new();
    let mut violation_count = 0usize;
    for &n in &sizes {
        let radius = paper_phase2_radius(n);
        let mut table = Table::new([
            "rate",
            "strategy",
            "energy",
            "energy/round",
            "messages",
            "rounds",
            "edges +",
            "edges -",
            "inc/rec",
        ]);
        for &rate in &rates {
            let trials = opts.trials as f64;
            let mut inc_row = Row::default();
            let mut rec_row = Row::default();
            for t in 0..opts.trials as u64 {
                let pts = instance(opts.seed, n, t);
                let tl = rate_timeline(mix_seed(opts.seed, n as u64), t, n, EPOCHS, rate);
                let violations = churn_violations(&pts, radius, &tl);
                assert!(
                    violations.is_empty(),
                    "churn invariants violated at n={n} rate={rate} trial={t}: {violations:?}\n\
                     repro: {}",
                    tl.to_source()
                );
                violation_count += violations.len();
                accumulate(
                    &mut inc_row,
                    &maintain(&pts, radius, &tl, MaintainStrategy::Incremental),
                    trials,
                );
                accumulate(
                    &mut rec_row,
                    &maintain(&pts, radius, &tl, MaintainStrategy::Recompute),
                    trials,
                );
            }
            let ratio = inc_row.energy / rec_row.energy;
            wins.push((n, rate, inc_row.energy, rec_row.energy));
            for (name, row, ratio_cell) in [
                ("incremental", &inc_row, fnum(ratio, 3)),
                ("recompute", &rec_row, "-".into()),
            ] {
                table.row([
                    fnum(rate, 2),
                    name.into(),
                    fnum(row.energy, 3),
                    fnum(row.energy_per_round, 4),
                    fnum(row.messages, 0),
                    fnum(row.rounds, 1),
                    fnum(row.edges_added, 1),
                    fnum(row.edges_removed, 1),
                    ratio_cell,
                ]);
                json_rows = json_rows.item(
                    Obj::with(Layout::SPACED)
                        .field("n", n)
                        .field("rate", rate)
                        .field("strategy", name)
                        .field("epochs", EPOCHS)
                        .field("bootstrap_energy", Fixed(row.bootstrap_energy, 4))
                        .field("maintenance_energy", Fixed(row.energy, 4))
                        .field("energy_per_round", Fixed(row.energy_per_round, 5))
                        .field("messages", Fixed(row.messages, 1))
                        .field("rounds", Fixed(row.rounds, 1))
                        .field("edges_added", Fixed(row.edges_added, 1))
                        .field("edges_removed", Fixed(row.edges_removed, 1))
                        .field("violations", 0u32),
                );
            }
        }
        println!("-- maintenance cost under churn (n = {n}, {EPOCHS} epochs) --");
        println!("{}", table.render());
        if opts.csv {
            println!("{}", table.to_csv());
        }
    }

    // The point of incremental maintenance: at scale it must beat
    // per-epoch recomputation on energy. Enforced at the largest
    // measured size (n = 2000 in a full run).
    let largest = *sizes.iter().max().expect("sizes is non-empty");
    let win = wins
        .iter()
        .any(|&(n, _, inc, rec)| n == largest && inc < rec);
    for &(n, rate, inc, rec) in &wins {
        eprintln!(
            "win check: n={n} rate={rate}: incremental {inc:.3} vs recompute {rec:.3} -> {}",
            if inc < rec {
                "incremental wins"
            } else {
                "recompute wins"
            }
        );
    }
    assert!(
        win,
        "incremental maintenance never beat recomputation at n={largest}"
    );

    write_bench(
        "BENCH_churn.json",
        Obj::with(Layout::LINES)
            .field("schema", "bench_churn/v1")
            .field("seed", opts.seed)
            .field("trials", opts.trials)
            .field("epochs", EPOCHS)
            .field("violations", violation_count)
            .field(
                "incremental_win",
                Obj::with(Layout::SPACED)
                    .field("n", largest)
                    .field("pass", win),
            )
            .field("rows", json_rows),
    );
}
