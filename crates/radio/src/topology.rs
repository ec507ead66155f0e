//! Cached unit-disk topology: the CSR adjacency of the network at a fixed
//! operating radius.
//!
//! Fixed-radius protocols (GHS, BFS flood, leader election) query the
//! same disk neighbourhoods over and over. Rebuilding each neighbour list
//! from the [`BucketGrid`] on every broadcast re-scans the cells the disk
//! touches per call — nine when the radius is at most the cell size, as
//! [`BucketGrid::for_radius`] arranges; a [`Topology`] materialises all
//! rows once per run in compressed-sparse-row form, after which every
//! query is a contiguous slice lookup.
//!
//! **Determinism contract.** Row `u` lists the ids of `u`'s neighbours
//! within the radius in ascending `(dist, id)` order: distances compared
//! by `f64::total_cmp`, ties broken by id. The distance is the grid's,
//! which is `Point::dist` of the two endpoints bit for bit, so the rows
//! store ids only and a consumer that needs a distance recomputes it.
//! That order depends on nothing but the points and the radius — not on
//! the grid's cell size, and not on how many workers built the rows — so
//! every build over the same points at the same radius is bit-identical.
//! Readers whose output depends on grid visit order (fault drop events,
//! contention slots) query the grid instead of the rows.

use emst_geom::BucketGrid;
use std::ops::Range;

/// Estimated row entries a build worker must have to be worth its
/// thread: smaller builds stay on the calling thread.
const MIN_PAIRS_PER_WORKER: usize = 1 << 16;

/// CSR adjacency of the unit-disk graph at one operating radius.
///
/// Row `u` holds the ids of the neighbours of `u` within `radius`
/// (excluding `u` itself) in ascending `(dist, id)` order, 4 B per
/// directed edge.
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    radius: f64,
    /// Row boundaries: row `u` is `ids[offsets[u]..offsets[u+1]]`.
    offsets: Vec<u32>,
    /// Neighbour ids, concatenated row-major.
    ids: Vec<u32>,
}

/// One integer sort key per row entry: distances are never negative, so
/// their bit patterns order like `total_cmp`, and the id in the low bits
/// breaks ties.
#[inline]
fn key(v: usize, d: f64) -> u128 {
    (u128::from(d.to_bits()) << 32) | v as u128
}

/// Fills `out` with `u`'s row: a grid disk scan, sorted on [`key`].
#[inline]
fn sorted_row(grid: &BucketGrid<'_>, radius: f64, u: usize, out: &mut Vec<u128>) {
    out.clear();
    grid.for_neighbors_within(u, radius, |v, d| out.push(key(v, d)));
    out.sort_unstable();
}

/// Runs `f(nodes, part)` for every part, one scoped thread per part but
/// the first, which runs on the calling thread.
fn run_parts<T: Send>(
    parts: Vec<(Range<usize>, &mut [T])>,
    f: impl Fn(Range<usize>, &mut [T]) + Sync,
) {
    let f = &f;
    std::thread::scope(|s| {
        let mut parts = parts.into_iter();
        let first = parts.next();
        for (nodes, part) in parts {
            s.spawn(move || f(nodes, part));
        }
        if let Some((nodes, part)) = first {
            f(nodes, part);
        }
    });
}

impl Topology {
    /// Builds the adjacency for every node at `radius`: one grid disk scan
    /// per row, sorted as it is appended. Rows are independent, so a large
    /// build is sharded over contiguous node blocks on every available
    /// core, each worker getting at least 2¹⁶ estimated row entries; the
    /// result is the same for any worker count.
    pub fn build(grid: &BucketGrid<'_>, radius: f64) -> Self {
        assert!(radius >= 0.0, "negative topology radius");
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        let workers = cores.min(grid.estimated_disk_pairs(radius) / MIN_PAIRS_PER_WORKER);
        Self::build_with_workers(grid, radius, workers)
    }

    /// [`Topology::build`] with an explicit worker count.
    ///
    /// One worker appends each row in a single pass. More workers first
    /// count every row's degree, then fill disjoint slices of one buffer
    /// allocated here: workers allocate nothing but a row of scratch, so
    /// no per-thread allocator arena ends up holding row memory.
    fn build_with_workers(grid: &BucketGrid<'_>, radius: f64, workers: usize) -> Self {
        let n = grid.points().len();
        if workers <= 1 {
            // Reserve the expected row total and an eighth more: grown by
            // doubling instead, the buffer is copied at every step and the
            // build touches about twice the memory its rows need.
            let expected = grid.estimated_disk_pairs(radius);
            let mut ids = Vec::with_capacity((expected + expected / 8).min(u32::MAX as usize));
            let mut offsets = Vec::with_capacity(n + 1);
            offsets.push(0u32);
            let mut row = Vec::new();
            for u in 0..n {
                sorted_row(grid, radius, u, &mut row);
                ids.extend(row.iter().map(|&k| k as u32));
                offsets
                    .push(u32::try_from(ids.len()).expect("topology larger than u32 edge space"));
            }
            return Topology {
                radius,
                offsets,
                ids,
            };
        }
        let block = n.div_ceil(workers).max(1);
        let blocks = || (0..n).step_by(block).map(move |lo| lo..(lo + block).min(n));
        // Pass 1: each worker writes its rows' degrees to `offsets[u + 1]`.
        let mut offsets = vec![0u32; n + 1];
        let parts = blocks().zip(offsets[1..].chunks_mut(block)).collect();
        run_parts(parts, |nodes, degrees| {
            for (u, slot) in nodes.zip(degrees) {
                *slot = grid.degree_within(u, radius) as u32;
            }
        });
        let mut total = 0u32;
        for slot in &mut offsets[1..] {
            total = total
                .checked_add(*slot)
                .expect("topology larger than u32 edge space");
            *slot = total;
        }
        // Pass 2: each worker fills its block's rows in place.
        let mut ids = vec![0u32; total as usize];
        let mut parts = Vec::with_capacity(workers);
        let mut rest = ids.as_mut_slice();
        for nodes in blocks() {
            let len = (offsets[nodes.end] - offsets[nodes.start]) as usize;
            let (part, tail) = rest.split_at_mut(len);
            parts.push((nodes, part));
            rest = tail;
        }
        run_parts(parts, |nodes, part| {
            let mut row = Vec::new();
            let mut at = 0;
            for u in nodes {
                sorted_row(grid, radius, u, &mut row);
                for (slot, &k) in part[at..at + row.len()].iter_mut().zip(&row) {
                    *slot = k as u32;
                }
                at += row.len();
            }
        });
        Topology {
            radius,
            offsets,
            ids,
        }
    }

    /// Every row concatenated in node order (row `u` starts where row
    /// `u - 1` ends), each in ascending `(dist, id)` order.
    #[inline]
    pub fn sorted(&self) -> &[u32] {
        &self.ids
    }

    /// Consumes the topology and hands back its rows as `(offsets, ids)`
    /// without a copy: row `u` is `ids[offsets[u]..offsets[u + 1]]`.
    pub fn into_rows(self) -> (Vec<u32>, Vec<u32>) {
        (self.offsets, self.ids)
    }

    /// Neighbour ids of `u` in ascending `(dist, id)` order.
    #[inline]
    pub fn ids(&self, u: usize) -> &[u32] {
        &self.ids[self.row(u)]
    }

    /// Number of nodes.
    #[inline]
    pub fn n(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The operating radius the adjacency was built at.
    #[inline]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Total directed edge count (sum of row lengths).
    #[inline]
    pub fn directed_edges(&self) -> usize {
        self.ids.len()
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    #[inline]
    fn row(&self, u: usize) -> Range<usize> {
        self.offsets[u] as usize..self.offsets[u + 1] as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_geom::{trial_rng, uniform_points, Point};

    /// An 8×8 lattice at spacing 1/8 (exact in binary, so neighbours tie
    /// at equal distances) plus duplicates that meet at distance 0.0.
    fn lattice() -> Vec<Point> {
        let mut pts: Vec<Point> = (0..64)
            .map(|k| Point::new((k % 8) as f64 / 8.0, (k / 8) as f64 / 8.0))
            .collect();
        pts.extend([pts[0], pts[9], pts[9], pts[36], pts[63]]);
        pts
    }

    /// Asserts every row equals the grid query sorted by
    /// `(total_cmp dist, id)`, and that `Point::dist` reproduces the
    /// grid's distance bits. Returns the (zero-distance, tied-distance)
    /// entry counts.
    fn assert_rows_match_grid(
        pts: &[Point],
        grid: &BucketGrid<'_>,
        topo: &Topology,
    ) -> (usize, usize) {
        let r = topo.radius();
        assert_eq!(topo.n(), pts.len());
        let (mut total, mut zero_ties, mut dist_ties) = (0, 0, 0);
        for u in 0..pts.len() {
            let mut want = grid.neighbors_within(u, r);
            want.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let ids: Vec<usize> = want.iter().map(|&(v, _)| v).collect();
            let got: Vec<usize> = topo.ids(u).iter().map(|&v| v as usize).collect();
            assert_eq!(got, ids, "row {u}");
            assert_eq!(topo.degree(u), want.len());
            for &(v, d) in &want {
                assert_eq!(pts[u].dist(&pts[v]).to_bits(), d.to_bits(), "{u}→{v}");
            }
            total += want.len();
            zero_ties += want.iter().filter(|e| e.1 == 0.0).count();
            dist_ties += want.windows(2).filter(|w| w[0].1 == w[1].1).count();
        }
        assert_eq!(topo.directed_edges(), total);
        assert_eq!(topo.sorted().len(), total);
        (zero_ties, dist_ties)
    }

    #[test]
    fn rows_match_grid_queries_exactly() {
        let pts = uniform_points(250, &mut trial_rng(81, 0));
        let grid = BucketGrid::for_radius(&pts, 0.08);
        let topo = Topology::build(&grid, 0.08);
        assert_eq!(topo.n(), 250);
        assert!((topo.radius() - 0.08).abs() == 0.0);
        assert_rows_match_grid(&pts, &grid, &topo);
    }

    #[test]
    fn radius_beyond_grid_cell_is_exhaustive() {
        let pts = uniform_points(120, &mut trial_rng(82, 0));
        let grid = BucketGrid::for_radius(&pts, 0.05);
        let topo = Topology::build(&grid, 0.4);
        for u in [0usize, 60, 119] {
            let brute = (0..120)
                .filter(|&v| v != u && pts[u].dist(&pts[v]) <= 0.4)
                .count();
            assert_eq!(topo.degree(u), brute);
        }
    }

    #[test]
    fn sorted_rows_match_a_total_cmp_then_id_sort_under_ties() {
        let pts = lattice();
        let grid = BucketGrid::for_radius(&pts, 0.3);
        let topo = Topology::build(&grid, 0.3);
        let (zero_ties, dist_ties) = assert_rows_match_grid(&pts, &grid, &topo);
        assert!(zero_ties >= 8, "duplicates must meet at distance 0.0");
        assert!(dist_ties > 64, "lattice rows must tie");
        // The by-value accessor hands out the same rows.
        let (off, ids) = topo.clone().into_rows();
        assert_eq!(off.len(), topo.n() + 1);
        for u in 0..topo.n() {
            assert_eq!(&ids[off[u] as usize..off[u + 1] as usize], topo.ids(u));
        }
    }

    #[test]
    fn rows_do_not_depend_on_grid_cell_size() {
        let pts = uniform_points(200, &mut trial_rng(84, 0));
        let fine = BucketGrid::for_radius(&pts, 0.1);
        let coarse = BucketGrid::for_radius(&pts, 0.25);
        assert_eq!(Topology::build(&fine, 0.1), Topology::build(&coarse, 0.1));
    }

    #[test]
    fn rows_are_bit_identical_for_any_worker_count() {
        let cloud = uniform_points(120, &mut trial_rng(85, 0));
        let cases: [(Vec<Point>, f64); 5] = [
            (cloud, 0.15),
            (lattice(), 0.3),
            (lattice(), 0.0),
            (Vec::new(), 0.2),
            (vec![Point::new(0.5, 0.5)], 0.2),
        ];
        for (pts, r) in &cases {
            let grid = BucketGrid::for_radius(pts, r.max(0.05));
            let one = Topology::build_with_workers(&grid, *r, 1);
            assert_rows_match_grid(pts, &grid, &one);
            for workers in [2, 3, 8, pts.len() + 5] {
                let many = Topology::build_with_workers(&grid, *r, workers);
                assert_eq!(many, one, "n = {}, r = {r}, {workers} workers", pts.len());
            }
        }
    }

    #[test]
    fn empty_and_isolated_rows() {
        let pts = uniform_points(10, &mut trial_rng(83, 0));
        let grid = BucketGrid::for_radius(&pts, 0.05);
        let topo = Topology::build(&grid, 0.0);
        for u in 0..10 {
            assert_eq!(topo.degree(u), 0);
            assert!(topo.ids(u).is_empty());
        }
    }
}
