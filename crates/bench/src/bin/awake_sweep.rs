//! **R6 — awake sweep:** awake complexity (total and max-per-node awake
//! rounds) next to energy across the MST protocols.
//!
//! The paper's charging model bills every node for every round; the
//! awake-complexity lens (Augustine–Moses–Pandurangan) instead counts
//! only the rounds a node spends listening or transmitting, treating
//! sleep as free. This sweep runs each protocol under an installed
//! [`emst_core::Sim::awake`] schedule and reports, per `(n, protocol)`:
//!
//! * **awake total** — awake node-rounds summed over all nodes;
//! * **awake max** — the worst single node's awake rounds (the metric
//!   the low-awake literature optimises);
//! * **max/rounds** — awake max as a fraction of the run's rounds (1.0
//!   for an all-awake protocol, lower when nodes genuinely sleep);
//! * the usual energy / messages / rounds triple for context.
//!
//! `ghs_lowawake` is the modified GHS with stage-tail sleeping: identical
//! forest, messages and rounds, but members sleep once their own
//! fragment's stage work is done and exhausted fragments sleep whole
//! stages. The sweep **asserts** it beats plain `ghs_modified` on awake
//! max at the largest measured size — the same pin `bench_summary
//! --check` re-checks on the committed `BENCH_awake.json`
//! (`bench_awake/v1`).
//!
//! Run: `cargo run --release -p emst-bench --bin awake_sweep [-- --trials N --quick --csv]`

use emst_analysis::json::{Arr, Fixed, Layout, Obj};
use emst_analysis::{fnum, Table};
use emst_bench::{instance, run_trials, write_bench, Options};
use emst_core::{GhsVariant, Protocol, RankScheme, Sim};
use emst_geom::paper_phase2_radius;

/// Per-`(n, protocol)` aggregates over the trial fan-out.
#[derive(Default, Clone, Copy)]
struct Row {
    awake_total: f64,
    awake_max: f64,
    energy: f64,
    messages: f64,
    rounds: f64,
}

fn protocols() -> [(&'static str, Protocol, bool); 4] {
    [
        (
            "ghs_modified",
            Protocol::Ghs(GhsVariant::Modified),
            true, // needs a radius
        ),
        ("ghs_lowawake", Protocol::Ghs(GhsVariant::LowAwake), true),
        ("eopt", Protocol::Eopt(Default::default()), false),
        ("co_nnt", Protocol::Nnt(RankScheme::Diagonal), false),
    ]
}

fn main() {
    let opts = Options::from_env();
    let sizes: Vec<usize> = if opts.quick {
        vec![300]
    } else {
        vec![500, 2000]
    };
    eprintln!(
        "awake_sweep: awake rounds vs energy across protocols \
         ({} trials per point, seed {:#x})",
        opts.trials, opts.seed
    );

    let mut json_rows = Arr::with(Layout::ROWS);
    let mut wins: Vec<(usize, f64, f64)> = Vec::new();
    for &n in &sizes {
        let radius = paper_phase2_radius(n);
        let mut table = Table::new([
            "protocol",
            "awake total",
            "awake max",
            "max/rounds",
            "energy",
            "messages",
            "rounds",
        ]);
        let mut ghs_max = None;
        let mut low_max = None;
        for (name, protocol, needs_radius) in protocols() {
            let trials = opts.trials as f64;
            let samples = run_trials(&opts, |t| {
                let pts = instance(opts.seed, n, t);
                let mut sim = Sim::new(&pts).awake(true);
                if needs_radius {
                    sim = sim.radius(radius);
                }
                let out = sim.run(protocol);
                let awake = out.awake().expect("awake tracking was requested");
                (
                    awake.total,
                    awake.max_per_node,
                    out.stats.energy,
                    out.stats.messages,
                    out.stats.rounds,
                )
            });
            let mut row = Row::default();
            for (total, max, energy, messages, rounds) in samples {
                row.awake_total += total as f64 / trials;
                row.awake_max += max as f64 / trials;
                row.energy += energy / trials;
                row.messages += messages as f64 / trials;
                row.rounds += rounds as f64 / trials;
            }
            match name {
                "ghs_modified" => ghs_max = Some(row.awake_max),
                "ghs_lowawake" => low_max = Some(row.awake_max),
                _ => {}
            }
            table.row([
                name.into(),
                fnum(row.awake_total, 0),
                fnum(row.awake_max, 1),
                fnum(row.awake_max / row.rounds, 3),
                fnum(row.energy, 3),
                fnum(row.messages, 0),
                fnum(row.rounds, 1),
            ]);
            json_rows = json_rows.item(
                Obj::with(Layout::SPACED)
                    .field("n", n)
                    .field("protocol", name)
                    .field("awake_total", Fixed(row.awake_total, 1))
                    .field("awake_max", Fixed(row.awake_max, 1))
                    .field("energy", Fixed(row.energy, 4))
                    .field("messages", Fixed(row.messages, 1))
                    .field("rounds", Fixed(row.rounds, 1)),
            );
        }
        wins.push((
            n,
            low_max.expect("lowawake row present"),
            ghs_max.expect("ghs row present"),
        ));
        println!("-- awake complexity (n = {n}) --");
        println!("{}", table.render());
        if opts.csv {
            println!("{}", table.to_csv());
        }
    }

    // The point of the low-awake variant: at scale its worst node must be
    // awake for strictly fewer rounds than under plain GHS (whose every
    // node is up for the whole run). Enforced at the largest measured
    // size (n = 2000 in a full run).
    let largest = *sizes.iter().max().expect("sizes is non-empty");
    let win = wins.iter().any(|&(n, low, ghs)| n == largest && low < ghs);
    for &(n, low, ghs) in &wins {
        eprintln!(
            "win check: n={n}: lowawake max {low:.1} vs ghs max {ghs:.1} -> {}",
            if low < ghs {
                "lowawake wins"
            } else {
                "ghs wins"
            }
        );
    }
    assert!(
        win,
        "ghs_lowawake never beat ghs_modified on max awake rounds at n={largest}"
    );

    write_bench(
        "BENCH_awake.json",
        Obj::with(Layout::LINES)
            .field("schema", "bench_awake/v1")
            .field("seed", opts.seed)
            .field("trials", opts.trials)
            .field(
                "lowawake_win",
                Obj::with(Layout::SPACED)
                    .field("n", largest)
                    .field("pass", win),
            )
            .field("rows", json_rows),
    );
}
