//! Property-based tests for the geometry substrate.

use emst_geom::{diag_rank_less, nnt_probe_phases, nnt_probe_radius, BucketGrid, PathLoss, Point};
use proptest::prelude::*;

fn unit_point() -> impl Strategy<Value = Point> {
    (0.0f64..=1.0, 0.0f64..=1.0).prop_map(|(x, y)| Point::new(x, y))
}

fn point_cloud(max: usize) -> impl Strategy<Value = Vec<Point>> {
    proptest::collection::vec(unit_point(), 1..max)
}

/// Cell sizes whose multiples land on cell edges: exact reciprocals
/// `1/side` and decimal sizes that binary floats only approximate.
fn edge_cell() -> impl Strategy<Value = f64> {
    (0usize..16).prop_map(|k| match k {
        0..=11 => 1.0 / (k + 1) as f64,
        12 => 0.1,
        13 => 0.05,
        14 => 0.3,
        _ => 0.07,
    })
}

/// A cell size and a cloud whose coordinates all lie on its cell edges
/// `k·cell`, including 0.0 and 1.0, with coincident points.
fn edge_cloud() -> impl Strategy<Value = (f64, Vec<Point>)> {
    edge_cell().prop_flat_map(|cell| {
        let last = (1.0 / cell) as usize;
        // Index `last + 1` stands for the border coordinate 1.0.
        let coord = move |k: usize| if k > last { 1.0 } else { k as f64 * cell };
        let pt =
            (0..=last + 1, 0..=last + 1).prop_map(move |(a, b)| Point::new(coord(a), coord(b)));
        (Just(cell), proptest::collection::vec(pt, 1..60))
    })
}

/// The hits of a disk query in the order the grid yields them, distances
/// as bit patterns.
fn disk_hits(grid: &BucketGrid<'_>, center: &Point, r: f64) -> Vec<(usize, u64)> {
    let mut got = Vec::new();
    grid.for_each_in_disk(center, r, |j, d| got.push((j, d.to_bits())));
    got
}

/// Reference for [`disk_hits`]: `visit_order()` filtered by the grid's hit
/// rule `dist_sq ≤ r²`, with the distance as `sqrt(dist_sq)`.
fn filtered_visit_order(grid: &BucketGrid<'_>, center: &Point, r: f64) -> Vec<(usize, u64)> {
    let pts = grid.points();
    grid.visit_order()
        .iter()
        .map(|&i| i as usize)
        .filter_map(|i| {
            let d_sq = center.dist_sq(&pts[i]);
            (d_sq <= r * r).then(|| (i, d_sq.sqrt().to_bits()))
        })
        .collect()
}

proptest! {
    /// Metric axioms for the Euclidean distance.
    #[test]
    fn euclidean_triangle_inequality(a in unit_point(), b in unit_point(), c in unit_point()) {
        prop_assert!(a.dist(&c) <= a.dist(&b) + b.dist(&c) + 1e-12);
    }

    #[test]
    fn euclidean_symmetry(a in unit_point(), b in unit_point()) {
        prop_assert!((a.dist(&b) - b.dist(&a)).abs() < 1e-15);
    }

    /// L∞ ≤ L2 ≤ √2·L∞ in the plane.
    #[test]
    fn metric_equivalence(a in unit_point(), b in unit_point()) {
        let l2 = a.dist(&b);
        let linf = a.dist_linf(&b);
        prop_assert!(linf <= l2 + 1e-15);
        prop_assert!(l2 <= linf * std::f64::consts::SQRT_2 + 1e-15);
    }

    /// The diagonal rank is a strict total order on distinct points.
    #[test]
    fn diag_rank_total_order(a in unit_point(), b in unit_point()) {
        if a != b {
            prop_assert!(diag_rank_less(&a, &b) ^ diag_rank_less(&b, &a));
        } else {
            prop_assert!(!diag_rank_less(&a, &b));
        }
    }

    #[test]
    fn diag_rank_transitive(a in unit_point(), b in unit_point(), c in unit_point()) {
        if diag_rank_less(&a, &b) && diag_rank_less(&b, &c) {
            prop_assert!(diag_rank_less(&a, &c));
        }
    }

    /// Energy model: monotone in distance, scales as d^α.
    #[test]
    fn energy_monotone_in_distance(d1 in 0.0f64..1.0, d2 in 0.0f64..1.0,
                                   alpha in 0.5f64..4.0) {
        let m = PathLoss::new(1.0, alpha);
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        prop_assert!(m.energy_for_distance(lo) <= m.energy_for_distance(hi) + 1e-15);
    }

    /// A disk query yields exactly the brute-force scan of `visit_order()`
    /// (a permutation of all points) filtered to the disk: every hit, in
    /// order, with bit-identical distances. The cell size is drawn apart
    /// from the radius, so radii run from far below one cell to many
    /// cells, and centres need not be points of the cloud.
    #[test]
    fn grid_disk_matches_brute_force(pts in point_cloud(150), cell in 0.01f64..0.5,
                                     r in 0.0f64..0.8, c in unit_point(),
                                     qraw in 0usize..1000) {
        let grid = BucketGrid::new(&pts, cell);
        let mut all = grid.visit_order().to_vec();
        all.sort_unstable();
        prop_assert_eq!(all, (0..pts.len() as u32).collect::<Vec<_>>());
        for center in [c, pts[qraw % pts.len()]] {
            prop_assert_eq!(disk_hits(&grid, &center, r), filtered_visit_order(&grid, &center, r));
        }
    }

    /// Adversarial alignment: every coordinate on a cell edge (0.0 and 1.0
    /// included), radii exact multiples of the cell size (so hits sit
    /// exactly on the disk's rim and on the window's edges), and radii
    /// of one, two and three cells.
    #[test]
    fn disk_order_holds_on_cell_edges((cell, pts) in edge_cloud()) {
        let grid = BucketGrid::new(&pts, cell);
        for center in &pts {
            for m in [0.0, 0.5, 1.0, 2.0, 3.0] {
                let r = m * cell;
                prop_assert_eq!(disk_hits(&grid, center, r), filtered_visit_order(&grid, center, r));
            }
        }
    }

    /// Radii below the smallest cell `for_radius` will build (`1/(4⌈√n⌉)`),
    /// on clouds with coincident and nearly coincident points, so that
    /// such tiny disks still have hits.
    #[test]
    fn disk_order_holds_below_the_minimum_cell(pts in point_cloud(60), jitter in 0.0f64..1e-6) {
        let mut cloud = pts.clone();
        for p in pts.iter().step_by(2) {
            cloud.push(*p);
            cloud.push(Point::new((p.x + jitter).min(1.0), p.y));
        }
        let min_cell = 1.0 / (cloud.len() as f64).sqrt().ceil() / 4.0;
        for r in [0.0, 1e-300, 1e-12, jitter, min_cell / 2.0] {
            let grid = BucketGrid::for_radius(&cloud, r);
            prop_assert!(grid.cell_size() > r);
            for center in &cloud {
                prop_assert_eq!(disk_hits(&grid, center, r), filtered_visit_order(&grid, center, r));
            }
        }
    }

    /// Edge enumeration yields each qualifying unordered pair exactly once.
    #[test]
    fn grid_edges_match_brute_force(pts in point_cloud(80), r in 0.01f64..0.8) {
        let grid = BucketGrid::for_radius(&pts, r);
        let mut got = Vec::new();
        grid.for_each_edge_within(r, |u, v, _| got.push((u, v)));
        got.sort_unstable();
        let mut brute = Vec::new();
        for u in 0..pts.len() {
            for v in (u + 1)..pts.len() {
                if pts[u].dist(&pts[v]) <= r {
                    brute.push((u, v));
                }
            }
        }
        prop_assert_eq!(got, brute);
    }

    /// Predicate-filtered nearest neighbour agrees with brute force.
    #[test]
    fn grid_nearest_matching_is_correct(pts in point_cloud(100), qraw in 0usize..1000) {
        let q = qraw % pts.len();
        let grid = BucketGrid::for_radius(&pts, 0.05);
        let got = grid.nearest_matching(&pts[q], q, |j| diag_rank_less(&pts[q], &pts[j]));
        let brute = (0..pts.len())
            .filter(|&j| j != q && diag_rank_less(&pts[q], &pts[j]))
            .map(|j| (j, pts[q].dist(&pts[j])))
            .min_by(|a, b| a.1.total_cmp(&b.1));
        match (got, brute) {
            (Some((_, gd)), Some((_, bd))) => prop_assert!((gd - bd).abs() < 1e-12),
            (None, None) => {}
            (g, b) => prop_assert!(false, "mismatch {:?} vs {:?}", g, b),
        }
    }

    /// k-NN distances agree with brute force for all k.
    #[test]
    fn grid_k_nearest_is_correct(pts in point_cloud(60), qraw in 0usize..1000,
                                 k in 1usize..60) {
        let q = qraw % pts.len();
        let grid = BucketGrid::for_radius(&pts, 0.08);
        let got = grid.k_nearest(q, k);
        let mut brute: Vec<f64> = (0..pts.len())
            .filter(|&j| j != q)
            .map(|j| pts[q].dist(&pts[j]))
            .collect();
        brute.sort_unstable_by(|a, b| a.total_cmp(b));
        brute.truncate(k);
        prop_assert_eq!(got.len(), brute.len());
        for (g, b) in got.iter().zip(brute.iter()) {
            prop_assert!((g.1 - b).abs() < 1e-12);
        }
    }

    /// The three neighbour-query forms (visitor, `_into` scratch buffer,
    /// legacy `Vec`) agree with each other in content *and order*, and agree
    /// with the brute-force O(n²) scan as a set. The grid cell size is drawn
    /// independently of the query radius, so this exercises query radii both
    /// smaller and (much) larger than one cell.
    #[test]
    fn neighbor_query_forms_agree_with_brute_force(
        pts in point_cloud(100),
        cell in 0.01f64..0.3,
        r in 0.0f64..1.2,
        qraw in 0usize..1000,
    ) {
        let q = qraw % pts.len();
        let grid = BucketGrid::for_radius(&pts, cell);

        let legacy = grid.neighbors_within(q, r);
        let mut visited: Vec<(usize, f64)> = Vec::new();
        grid.for_neighbors_within(q, r, |j, d| visited.push((j, d)));
        let mut scratch = vec![(usize::MAX, f64::NAN)]; // must be cleared
        grid.neighbors_within_into(q, r, &mut scratch);

        // Exact agreement, including visit order and float bit patterns.
        prop_assert_eq!(legacy.len(), visited.len());
        prop_assert_eq!(legacy.len(), scratch.len());
        for ((a, b), c) in legacy.iter().zip(visited.iter()).zip(scratch.iter()) {
            prop_assert_eq!(a.0, b.0);
            prop_assert_eq!(a.0, c.0);
            prop_assert_eq!(a.1.to_bits(), b.1.to_bits());
            prop_assert_eq!(a.1.to_bits(), c.1.to_bits());
        }

        // Set agreement with the brute-force scan.
        let mut got: Vec<usize> = legacy.iter().map(|&(j, _)| j).collect();
        got.sort_unstable();
        let mut brute: Vec<usize> = (0..pts.len())
            .filter(|&j| j != q && pts[q].dist(&pts[j]) <= r)
            .collect();
        brute.sort_unstable();
        prop_assert_eq!(got, brute);
        for &(j, d) in &legacy {
            prop_assert!((d - pts[q].dist(&pts[j])).abs() < 1e-15);
        }
    }

    /// NNT probe schedule: the last probe radius always covers l, and the
    /// penultimate one does not overshoot by more than the doubling factor.
    #[test]
    fn nnt_probe_schedule_covers(l in 0.001f64..1.5, n in 2usize..100_000) {
        let m = nnt_probe_phases(l, n);
        prop_assert!(nnt_probe_radius(m, n) >= l - 1e-12);
        if m > 1 {
            prop_assert!(nnt_probe_radius(m - 1, n) < l + 1e-9);
        }
    }
}

/// Float rounding at the disk's rim: each point is a hit (`dist_sq ≤ r²`)
/// although `c ± r` rounds into the neighbouring cell, so a window taken
/// from the unpadded bounding box would skip the hit's cell.
#[test]
fn rim_hits_survive_a_rounded_window_edge() {
    let cases = [
        // `0.23 − 0.13` rounds to 0.1, in cell 1; the hit lies in cell 0.
        (
            0.1,
            Point::new(0.23, 0.5),
            0.13,
            Point::new(0.09999999999999999, 0.5),
        ),
        // `c.x + r` rounds below 1/3, in cell 0; the hit lies in cell 1.
        (
            1.0 / 3.0,
            Point::new(0.08263856768151892, 0.5),
            0.25069476565181437,
            Point::new(1.0 / 3.0, 0.5),
        ),
    ];
    for (cell, center, r, rim) in cases {
        let pts = [center, rim];
        let grid = BucketGrid::new(&pts, cell);
        assert!(center.dist_sq(&rim) <= r * r);
        assert_ne!(grid.cell_of(&rim), grid.cell_of(&center));
        let hits = disk_hits(&grid, &center, r);
        assert_eq!(hits.len(), 2, "cell {cell}: rim point dropped");
        assert_eq!(hits, filtered_visit_order(&grid, &center, r));
    }
}
