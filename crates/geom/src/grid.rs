//! Bucket-grid spatial index over points in the unit square.
//!
//! Random-geometric-graph construction, nearest-neighbour queries (Co-NNT),
//! k-nearest-neighbour distances (the Lemma 4.1 lower-bound experiment) and
//! percolation cell statistics all reduce to local queries on a uniform
//! grid. With cell size `Θ(r)` and `n` uniform points, a disk query of
//! radius `r` touches `O(1)` cells — at most 3×3 when `r` is at most the
//! cell size — and `O(n r²)` points in expectation, so building the whole
//! RGG edge list costs `O(n + |E|)`.
//!
//! The grid keeps the points twice: the caller's slice, and a packed copy
//! in visit order, so every query reads the cells of one grid row as one
//! contiguous slice instead of chasing indices into the caller's slice.
//!
//! Point indices are stored as `u32` internally (the simulations run at
//! `n ≤ 10⁶`, far below `u32::MAX`), halving the index memory versus
//! `usize` — see the type-size guidance in the Rust Performance Book.

use crate::point::Point;
use std::ops::Range;

/// A uniform bucket grid over `[0,1]²`.
///
/// The grid borrows the point slice; it is cheap to rebuild whenever the
/// operating radius changes (EOPT rebuilds between its two phases).
///
/// ```
/// use emst_geom::{BucketGrid, Point};
/// let pts = vec![
///     Point::new(0.50, 0.50),
///     Point::new(0.52, 0.50),
///     Point::new(0.90, 0.90),
/// ];
/// let grid = BucketGrid::for_radius(&pts, 0.1);
/// let nb = grid.neighbors_within(0, 0.1);
/// assert_eq!(nb.len(), 1);           // only the point 0.02 away
/// assert_eq!(nb[0].0, 1);
/// assert_eq!(grid.k_nearest(0, 2).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct BucketGrid<'a> {
    points: &'a [Point],
    cell_size: f64,
    side: usize,
    /// CSR offsets: cell `c` holds positions `cell_start[c]..cell_start[c+1]`
    /// of `order` and `packed`.
    cell_start: Vec<u32>,
    /// Point indices in visit order.
    order: Vec<u32>,
    /// `packed[k] == points[order[k]]`: the coordinates in visit order.
    packed: Vec<Point>,
}

impl<'a> BucketGrid<'a> {
    /// Builds a grid with the given cell size (must be positive). Points are
    /// expected in the unit square; out-of-range coordinates are clamped to
    /// the boundary cells so queries remain correct for points *on* the
    /// border (x = 1.0 or y = 1.0).
    pub fn new(points: &'a [Point], cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell size must be positive and finite, got {cell_size}"
        );
        assert!(
            points.len() < u32::MAX as usize,
            "too many points for u32 indices"
        );
        let side = ((1.0 / cell_size).ceil() as usize).max(1);
        let ncells = side * side;
        let mut counts = vec![0u32; ncells + 1];
        let cell_idx = |p: &Point| -> usize {
            let cx = ((p.x / cell_size) as usize).min(side - 1);
            let cy = ((p.y / cell_size) as usize).min(side - 1);
            cy * side + cx
        };
        for p in points {
            counts[cell_idx(p) + 1] += 1;
        }
        for c in 0..ncells {
            counts[c + 1] += counts[c];
        }
        let cell_start = counts.clone();
        let mut cursor = counts;
        let mut order = vec![0u32; points.len()];
        for (i, p) in points.iter().enumerate() {
            let c = cell_idx(p);
            order[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        let packed = order.iter().map(|&i| points[i as usize]).collect();
        BucketGrid {
            points,
            cell_size,
            side,
            cell_start,
            order,
            packed,
        }
    }

    /// Convenience constructor sizing cells to the query radius (one ring of
    /// neighbouring cells covers a disk of that radius).
    pub fn for_radius(points: &'a [Point], radius: f64) -> Self {
        // Cap the cell count: for very small radii a cell per radius would
        // allocate quadratically many empty cells. At most 4⌈√n⌉ cells per
        // side (about 16n cells) keeps build cost O(n) while still
        // bounding points per cell.
        let n = points.len().max(1);
        let min_cell = 1.0 / (n as f64).sqrt().ceil().max(1.0) / 4.0;
        BucketGrid::new(points, radius.max(min_cell))
    }

    /// The points this grid indexes.
    #[inline]
    pub fn points(&self) -> &'a [Point] {
        self.points
    }

    /// Grid cell size.
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Cells per side.
    #[inline]
    pub fn side(&self) -> usize {
        self.side
    }

    /// The global visit order: point indices grouped by ascending
    /// row-major cell index, insertion order within each cell. Every
    /// [`BucketGrid::for_each_in_disk`] visit sequence is a subsequence
    /// of this array — consumers of cached adjacency rows rely on that
    /// to pair mutual edges with per-node cursors instead of searches.
    #[inline]
    pub fn visit_order(&self) -> &[u32] {
        &self.order
    }

    /// Number of points in grid cell `(cx, cy)`.
    pub fn cell_population(&self, cx: usize, cy: usize) -> usize {
        assert!(cx < self.side && cy < self.side, "cell out of range");
        self.span(cy, cx, cx).len()
    }

    /// Grid coordinates of the cell containing `p`.
    #[inline]
    pub fn cell_of(&self, p: &Point) -> (usize, usize) {
        (self.coord(p.x), self.coord(p.y))
    }

    /// Cell column (or row) of coordinate `v`, clamped to the grid. The
    /// map is monotone: the float division rounds monotonically, and the
    /// cast saturates negative values (and NaN) to 0.
    #[inline]
    fn coord(&self, v: f64) -> usize {
        ((v / self.cell_size) as usize).min(self.side - 1)
    }

    /// Positions in `order` and `packed` of cells `x0..=x1` of row `cy`:
    /// consecutive cells of a row are consecutive in visit order.
    #[inline]
    fn span(&self, cy: usize, x0: usize, x1: usize) -> Range<usize> {
        let row = cy * self.side;
        self.cell_start[row + x0] as usize..self.cell_start[row + x1 + 1] as usize
    }

    /// The inclusive cell window `(x0, x1, y0, y1)` of a disk query: the
    /// cells the disk's bounding box touches.
    ///
    /// A hit `p` passes `fl(dx²) ≤ fl(r²)` with `dx = fl(p.x − c.x)`, so
    /// `|p.x − c.x| ≤ r·(1 + 2⁻⁵¹)` — or at most `1.5e-154` where `r²`
    /// underflows. The box is padded past both bounds, and [`Self::coord`]
    /// is monotone, so no hit's cell falls outside the window. The pad
    /// costs one extra row or column only when a box edge lies within it
    /// of a cell edge; otherwise `r ≤ cell_size` gives at most 3×3 cells.
    fn disk_window(&self, center: &Point, radius: f64) -> (usize, usize, usize, usize) {
        let pad = (radius * (1.0 + 1e-9)).max(1e-150);
        (
            self.coord(center.x - pad),
            self.coord(center.x + pad),
            self.coord(center.y - pad),
            self.coord(center.y + pad),
        )
    }

    /// Estimated number of ordered pairs `(i, j)`, `i ≠ j`, at distance at
    /// most `radius`: the total length of the rows
    /// [`BucketGrid::for_neighbors_within`] yields over every point.
    ///
    /// The points of each cell count the other points of the cells
    /// within reach, scaled by the share of that window the disk covers.
    /// That is exact in expectation for uniform points away from the
    /// border and a slight over-estimate near it; it never exceeds the
    /// candidates a full pass of disk queries scans. Costs
    /// `O(cells + occupied cells × reach)`. Callers use it to size
    /// buffers, never for correctness.
    pub fn estimated_disk_pairs(&self, radius: f64) -> usize {
        if radius.is_nan() || radius <= 0.0 {
            return 0;
        }
        let reach = (radius / self.cell_size).ceil().min(self.side as f64) as usize;
        let disk = std::f64::consts::PI * radius * radius;
        let mut pairs = 0.0;
        for cy in 0..self.side {
            let (y0, y1) = (cy.saturating_sub(reach), (cy + reach).min(self.side - 1));
            for cx in 0..self.side {
                let pop = self.span(cy, cx, cx).len();
                if pop == 0 {
                    continue;
                }
                let (x0, x1) = (cx.saturating_sub(reach), (cx + reach).min(self.side - 1));
                let window: usize = (y0..=y1).map(|y| self.span(y, x0, x1).len()).sum();
                let area = ((x1 - x0 + 1) * (y1 - y0 + 1)) as f64 * self.cell_size * self.cell_size;
                pairs += pop as f64 * (window - 1) as f64 * (disk / area).min(1.0);
            }
        }
        pairs as usize
    }

    /// Calls `f(index, distance)` for every point within Euclidean distance
    /// `radius` of `center` (inclusive), including any point coincident with
    /// `center` itself; callers filter self-indices as needed.
    ///
    /// Scans only the cells the disk's bounding box touches, each grid
    /// row of them as one contiguous slice of the packed coordinates.
    /// Hits come row-major (`cy` outer, `cx` inner), then in insertion
    /// order within each cell: the restriction of
    /// [`BucketGrid::visit_order`] to the disk.
    pub fn for_each_in_disk<F: FnMut(usize, f64)>(&self, center: &Point, radius: f64, mut f: F) {
        if radius < 0.0 {
            return;
        }
        let (x0, x1, y0, y1) = self.disk_window(center, radius);
        let r_sq = radius * radius;
        // Branch-free filter: each candidate of a chunk is written to the
        // hit buffers and only a hit advances the cursor, so the ~1 in 3
        // hit rate costs no mispredicted branches.
        const CHUNK: usize = 64;
        let mut hit_id = [0u32; CHUNK];
        let mut hit_dsq = [0f64; CHUNK];
        for cy in y0..=y1 {
            let s = self.span(cy, x0, x1);
            for (pts, ids) in self.packed[s.clone()]
                .chunks(CHUNK)
                .zip(self.order[s].chunks(CHUNK))
            {
                let mut k = 0;
                for (p, &i) in pts.iter().zip(ids) {
                    let d_sq = center.dist_sq(p);
                    hit_id[k] = i;
                    hit_dsq[k] = d_sq;
                    k += usize::from(d_sq <= r_sq);
                }
                for (&i, &d_sq) in hit_id[..k].iter().zip(&hit_dsq[..k]) {
                    f(i as usize, d_sq.sqrt());
                }
            }
        }
    }

    /// Calls `f(j, dist)` for every point within `radius` of point `i`,
    /// excluding `i` itself — the zero-allocation form of
    /// [`BucketGrid::neighbors_within`].
    ///
    /// Visit order is deterministic and part of this type's contract:
    /// cells row-major (`cy` outer, `cx` inner), then insertion (CSR)
    /// order within each cell — identical to the order of the `Vec`
    /// returned by `neighbors_within`. Simulation layers replay this
    /// order when charging energy, so it must never change silently.
    pub fn for_neighbors_within<F: FnMut(usize, f64)>(&self, i: usize, radius: f64, mut f: F) {
        self.for_each_in_disk(&self.points[i], radius, |j, d| {
            if j != i {
                f(j, d);
            }
        });
    }

    /// Fills `out` with the neighbours of `i` within `radius` (excluding
    /// `i`), clearing it first — the scratch-buffer form of
    /// [`BucketGrid::neighbors_within`] for callers that query in a loop
    /// and want to reuse one allocation. Same deterministic visit order
    /// as [`BucketGrid::for_neighbors_within`].
    pub fn neighbors_within_into(&self, i: usize, radius: f64, out: &mut Vec<(usize, f64)>) {
        out.clear();
        self.for_neighbors_within(i, radius, |j, d| out.push((j, d)));
    }

    /// Indices and distances of all points within `radius` of point `i`,
    /// excluding `i` itself. Thin wrapper over
    /// [`BucketGrid::neighbors_within_into`] that allocates a fresh `Vec`.
    pub fn neighbors_within(&self, i: usize, radius: f64) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        self.neighbors_within_into(i, radius, &mut out);
        out
    }

    /// Number of points within `radius` of point `i`, excluding `i`.
    pub fn degree_within(&self, i: usize, radius: f64) -> usize {
        let mut deg = 0usize;
        self.for_neighbors_within(i, radius, |_, _| deg += 1);
        deg
    }

    /// Calls `f(u, v, dist)` once per unordered pair `{u, v}` (with `u < v`)
    /// at Euclidean distance ≤ `radius` — the edge set of the RGG `G(n, r)`.
    /// For each `u` in turn, the `v` come in
    /// [`BucketGrid::for_neighbors_within`] order.
    pub fn for_each_edge_within<F: FnMut(usize, usize, f64)>(&self, radius: f64, mut f: F) {
        for u in 0..self.points.len() {
            self.for_neighbors_within(u, radius, |v, d| {
                if v > u {
                    f(u, v, d);
                }
            });
        }
    }

    /// Calls `visit` with the `packed`/`order` positions of each cell at
    /// Chebyshev cell distance exactly `ring` from `(ccx, ccy)`: the top
    /// and bottom cells of each column left to right, then the left and
    /// right cells of each inner row bottom to top.
    fn for_each_ring_cell(
        &self,
        (ccx, ccy): (usize, usize),
        ring: usize,
        mut visit: impl FnMut(Range<usize>),
    ) {
        let (cx0, cy0) = (ccx as isize, ccy as isize);
        let r = ring as isize;
        let in_range = |v: isize| v >= 0 && (v as usize) < self.side;
        let mut cell = |cx: isize, cy: isize| {
            if in_range(cx) && in_range(cy) {
                visit(self.span(cy as usize, cx as usize, cx as usize));
            }
        };
        if ring == 0 {
            cell(cx0, cy0);
            return;
        }
        for cx in (cx0 - r)..=(cx0 + r) {
            cell(cx, cy0 - r);
            cell(cx, cy0 + r);
        }
        for cy in (cy0 - r + 1)..(cy0 + r) {
            cell(cx0 - r, cy);
            cell(cx0 + r, cy);
        }
    }

    /// Nearest point to `center` (excluding index `exclude`, pass
    /// `usize::MAX` to exclude nothing) among points satisfying `pred`.
    /// Expanding-ring search: after scanning all cells within Chebyshev cell
    /// distance `l`, any unscanned point is at Euclidean distance
    /// ≥ `l·cell_size`, so the current best is confirmed once it is within
    /// that bound.
    pub fn nearest_matching<P: FnMut(usize) -> bool>(
        &self,
        center: &Point,
        exclude: usize,
        mut pred: P,
    ) -> Option<(usize, f64)> {
        let home = self.cell_of(center);
        let mut best: Option<(usize, f64)> = None;
        // `side` rings cover the whole square from any cell.
        for ring in 0..=self.side {
            // Confirmed: no unscanned point can beat the current best.
            if let Some((_, d)) = best {
                if d <= (ring as f64 - 1.0).max(0.0) * self.cell_size {
                    break;
                }
            }
            self.for_each_ring_cell(home, ring, |s| {
                for (p, &i) in self.packed[s.clone()].iter().zip(&self.order[s]) {
                    let i = i as usize;
                    if i == exclude || !pred(i) {
                        continue;
                    }
                    let d = center.dist(p);
                    if best.is_none() || d < best.unwrap().1 {
                        best = Some((i, d));
                    }
                }
            });
        }
        best
    }

    /// The `k` nearest points to point `i` (excluding `i`), sorted by
    /// ascending distance. Returns fewer than `k` entries if the instance
    /// has fewer than `k + 1` points. Thin wrapper over
    /// [`BucketGrid::k_nearest_into`].
    pub fn k_nearest(&self, i: usize, k: usize) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        self.k_nearest_into(i, k, &mut out);
        out
    }

    /// [`BucketGrid::k_nearest`] into a caller-supplied scratch buffer
    /// (cleared first). The ring expansion accumulates candidates in `out`
    /// itself, so a buffer reused across calls reaches a steady-state
    /// capacity and the query becomes allocation-free — the k-NN distance
    /// experiments call this once per node.
    pub fn k_nearest_into(&self, i: usize, k: usize, out: &mut Vec<(usize, f64)>) {
        out.clear();
        if k == 0 {
            return;
        }
        let center = &self.points[i];
        let home = self.cell_of(center);
        out.reserve(k + 8);
        let found = out;
        for ring in 0..=self.side {
            // Stop once the k-th best is confirmed against unscanned rings.
            if found.len() >= k {
                found.sort_unstable_by(|a, b| a.1.total_cmp(&b.1));
                found.truncate(k.max(found.len().min(4 * k)));
                let kth = found[k - 1].1;
                if kth <= (ring as f64 - 1.0).max(0.0) * self.cell_size {
                    found.truncate(k);
                    return;
                }
            }
            self.for_each_ring_cell(home, ring, |s| {
                for (p, &j) in self.packed[s.clone()].iter().zip(&self.order[s]) {
                    let j = j as usize;
                    if j != i {
                        found.push((j, center.dist(p)));
                    }
                }
            });
        }
        found.sort_unstable_by(|a, b| a.1.total_cmp(&b.1));
        found.truncate(k);
    }

    /// Distance from point `i` to its `k`-th nearest neighbour (1-indexed:
    /// `k = 1` is the nearest). `None` if fewer than `k` other points exist.
    pub fn kth_nearest_distance(&self, i: usize, k: usize) -> Option<f64> {
        let nn = self.k_nearest(i, k);
        if nn.len() == k {
            Some(nn[k - 1].1)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{trial_rng, uniform_points};

    /// Brute-force disk query for cross-checking.
    fn brute_within(points: &[Point], center: &Point, radius: f64) -> Vec<usize> {
        let mut v: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| center.dist(p) <= radius)
            .map(|(i, _)| i)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn disk_query_matches_brute_force() {
        let mut rng = trial_rng(11, 0);
        let pts = uniform_points(400, &mut rng);
        let grid = BucketGrid::for_radius(&pts, 0.1);
        for qi in [0usize, 17, 200, 399] {
            let mut got = Vec::new();
            grid.for_each_in_disk(&pts[qi], 0.1, |j, _| got.push(j));
            got.sort_unstable();
            assert_eq!(got, brute_within(&pts, &pts[qi], 0.1), "query {qi}");
        }
    }

    #[test]
    fn disk_visits_are_subsequences_of_visit_order() {
        // The contract consumers of `visit_order` rely on: every disk
        // query visits points in the same relative order as the global
        // `visit_order` array, at any radius (including radii larger than
        // the cell size, where many rings are scanned).
        let mut rng = trial_rng(12, 0);
        let pts = uniform_points(300, &mut rng);
        let grid = BucketGrid::for_radius(&pts, 0.08);
        let rank: std::collections::HashMap<usize, usize> = grid
            .visit_order()
            .iter()
            .enumerate()
            .map(|(pos, &i)| (i as usize, pos))
            .collect();
        for qi in [0usize, 33, 150, 299] {
            for r in [0.03, 0.08, 0.4, 2.0] {
                let mut prev = None;
                grid.for_each_in_disk(&pts[qi], r, |j, _| {
                    let pos = rank[&j];
                    if let Some(p) = prev {
                        assert!(p < pos, "query {qi} radius {r}: visit order diverged");
                    }
                    prev = Some(pos);
                });
            }
        }
        // And the order itself is a permutation of all indices.
        let mut all: Vec<u32> = grid.visit_order().to_vec();
        all.sort_unstable();
        assert_eq!(all, (0..pts.len() as u32).collect::<Vec<_>>());
    }

    #[test]
    fn disks_within_one_cell_scan_at_most_3x3_cells() {
        use rand::Rng;
        let pts = uniform_points(500, &mut trial_rng(21, 0));
        let centers = uniform_points(500, &mut trial_rng(22, 0));
        let mut rng = trial_rng(23, 0);
        for cell in [0.01, 0.05, 0.0356, 0.1, 1.0 / 3.0] {
            let grid = BucketGrid::new(&pts, cell);
            for c in pts.iter().chain(&centers) {
                for r in [0.0, cell / 2.0, rng.gen::<f64>() * cell, cell] {
                    let (x0, x1, y0, y1) = grid.disk_window(c, r);
                    assert!(x1 - x0 <= 2 && y1 - y0 <= 2, "cell {cell} r {r} at {c:?}");
                }
            }
        }
    }

    #[test]
    fn crowded_cells_yield_every_hit_in_order() {
        // More candidates in one cell row than the scan's compaction
        // chunk: 150 coincident points and 150 spread over the row.
        let mut pts = vec![Point::new(0.55, 0.55); 150];
        pts.extend((0..150).map(|k| Point::new(k as f64 / 150.0, 0.5)));
        let grid = BucketGrid::new(&pts, 0.1);
        let mut got = Vec::new();
        grid.for_each_in_disk(&pts[0], 0.12, |j, _| got.push(j));
        let want: Vec<usize> = grid
            .visit_order()
            .iter()
            .map(|&i| i as usize)
            .filter(|&i| pts[0].dist_sq(&pts[i]) <= 0.12 * 0.12)
            .collect();
        assert!(want.len() > 150);
        assert_eq!(got, want);
    }

    #[test]
    fn disk_pair_estimate_tracks_the_row_total() {
        let pts = uniform_points(4000, &mut trial_rng(24, 0));
        for (cell, r) in [(0.03, 0.03), (0.05, 0.02), (0.02, 0.05), (0.1, 0.1)] {
            let grid = BucketGrid::new(&pts, cell);
            let actual: usize = (0..pts.len()).map(|i| grid.degree_within(i, r)).sum();
            let est = grid.estimated_disk_pairs(r) as f64;
            let err = est / actual as f64 - 1.0;
            assert!(err.abs() < 0.1, "cell {cell} r {r}: {est} vs {actual}");
        }
        let grid = BucketGrid::for_radius(&pts, 0.03);
        for r in [0.0, -1.0, f64::NAN] {
            assert_eq!(grid.estimated_disk_pairs(r), 0, "r {r}");
        }
        // A disk past the square covers every pair, and no more.
        let all = pts.len() * (pts.len() - 1);
        assert_eq!(grid.estimated_disk_pairs(1e300), all);
    }

    #[test]
    fn disk_query_includes_center_point() {
        let pts = vec![Point::new(0.5, 0.5), Point::new(0.9, 0.9)];
        let grid = BucketGrid::new(&pts, 0.25);
        let mut got = Vec::new();
        grid.for_each_in_disk(&pts[0], 0.01, |j, _| got.push(j));
        assert_eq!(got, vec![0]);
    }

    #[test]
    fn neighbors_within_excludes_self() {
        let pts = vec![
            Point::new(0.5, 0.5),
            Point::new(0.52, 0.5),
            Point::new(0.9, 0.9),
        ];
        let grid = BucketGrid::new(&pts, 0.1);
        let nb = grid.neighbors_within(0, 0.05);
        assert_eq!(nb.len(), 1);
        assert_eq!(nb[0].0, 1);
        assert!((nb[0].1 - 0.02).abs() < 1e-12);
        assert_eq!(grid.degree_within(0, 0.05), 1);
    }

    #[test]
    fn edge_enumeration_matches_brute_force() {
        let mut rng = trial_rng(12, 0);
        let pts = uniform_points(200, &mut rng);
        let r = 0.12;
        let grid = BucketGrid::for_radius(&pts, r);
        let mut edges = Vec::new();
        grid.for_each_edge_within(r, |u, v, d| {
            assert!(u < v);
            assert!((pts[u].dist(&pts[v]) - d).abs() < 1e-12);
            edges.push((u, v));
        });
        edges.sort_unstable();
        let mut brute = Vec::new();
        for u in 0..pts.len() {
            for v in (u + 1)..pts.len() {
                if pts[u].dist(&pts[v]) <= r {
                    brute.push((u, v));
                }
            }
        }
        assert_eq!(edges, brute);
    }

    #[test]
    fn edges_have_no_duplicates() {
        let mut rng = trial_rng(13, 0);
        let pts = uniform_points(300, &mut rng);
        let grid = BucketGrid::for_radius(&pts, 0.2);
        let mut seen = std::collections::HashSet::new();
        grid.for_each_edge_within(0.2, |u, v, _| {
            assert!(seen.insert((u, v)), "duplicate edge ({u},{v})");
        });
    }

    #[test]
    fn nearest_matching_finds_global_nearest() {
        let mut rng = trial_rng(14, 0);
        let pts = uniform_points(300, &mut rng);
        let grid = BucketGrid::for_radius(&pts, 0.05);
        for qi in [0usize, 50, 299] {
            let got = grid.nearest_matching(&pts[qi], qi, |_| true).unwrap();
            let brute = (0..pts.len())
                .filter(|&j| j != qi)
                .map(|j| (j, pts[qi].dist(&pts[j])))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .unwrap();
            assert_eq!(got.0, brute.0, "query {qi}");
            assert!((got.1 - brute.1).abs() < 1e-12);
        }
    }

    #[test]
    fn nearest_matching_respects_predicate() {
        // Nearest point with a *higher diagonal rank* — the Co-NNT query.
        let mut rng = trial_rng(15, 0);
        let pts = uniform_points(250, &mut rng);
        let grid = BucketGrid::for_radius(&pts, 0.05);
        use crate::point::diag_rank_less;
        for qi in 0..pts.len() {
            let got = grid.nearest_matching(&pts[qi], qi, |j| diag_rank_less(&pts[qi], &pts[j]));
            let brute = (0..pts.len())
                .filter(|&j| j != qi && diag_rank_less(&pts[qi], &pts[j]))
                .map(|j| (j, pts[qi].dist(&pts[j])))
                .min_by(|a, b| a.1.total_cmp(&b.1));
            match (got, brute) {
                (Some((gi, gd)), Some((bi, bd))) => {
                    assert_eq!(gi, bi, "query {qi}");
                    assert!((gd - bd).abs() < 1e-12);
                }
                (None, None) => {} // highest-ranked node has no successor
                (g, b) => panic!("mismatch at {qi}: {g:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn nearest_matching_none_when_no_match() {
        let pts = vec![Point::new(0.5, 0.5), Point::new(0.6, 0.6)];
        let grid = BucketGrid::new(&pts, 0.25);
        assert!(grid.nearest_matching(&pts[0], 0, |_| false).is_none());
    }

    #[test]
    fn k_nearest_matches_brute_force() {
        let mut rng = trial_rng(16, 0);
        let pts = uniform_points(150, &mut rng);
        let grid = BucketGrid::for_radius(&pts, 0.08);
        for qi in [3usize, 75, 149] {
            for k in [1usize, 5, 20, 149] {
                let got = grid.k_nearest(qi, k);
                let mut brute: Vec<(usize, f64)> = (0..pts.len())
                    .filter(|&j| j != qi)
                    .map(|j| (j, pts[qi].dist(&pts[j])))
                    .collect();
                brute.sort_unstable_by(|a, b| a.1.total_cmp(&b.1));
                brute.truncate(k);
                assert_eq!(got.len(), brute.len());
                for (g, b) in got.iter().zip(brute.iter()) {
                    assert!((g.1 - b.1).abs() < 1e-12, "q={qi} k={k}");
                }
            }
        }
    }

    #[test]
    fn k_nearest_handles_small_instances() {
        let pts = vec![Point::new(0.1, 0.1), Point::new(0.2, 0.2)];
        let grid = BucketGrid::new(&pts, 0.5);
        assert_eq!(grid.k_nearest(0, 0).len(), 0);
        assert_eq!(grid.k_nearest(0, 1).len(), 1);
        assert_eq!(grid.k_nearest(0, 5).len(), 1); // only one other point
        assert!(grid.kth_nearest_distance(0, 2).is_none());
        assert!(grid.kth_nearest_distance(0, 1).is_some());
    }

    #[test]
    fn k_nearest_with_k_at_least_n_returns_everyone() {
        // k ≥ n must return all n−1 other points, sorted, without the ring
        // confirmation ever firing (it can't: there is no k-th candidate).
        let pts = uniform_points(40, &mut trial_rng(18, 0));
        let grid = BucketGrid::for_radius(&pts, 0.05);
        for k in [40usize, 41, 1000] {
            let got = grid.k_nearest(7, k);
            assert_eq!(got.len(), 39, "k={k}");
            for w in got.windows(2) {
                assert!(w[0].1 <= w[1].1);
            }
        }
    }

    #[test]
    fn k_nearest_into_reuses_buffer_and_matches() {
        let pts = uniform_points(200, &mut trial_rng(19, 0));
        let grid = BucketGrid::for_radius(&pts, 0.08);
        let mut buf = Vec::new();
        for qi in 0..pts.len() {
            grid.k_nearest_into(qi, 10, &mut buf);
            let fresh = grid.k_nearest(qi, 10);
            assert_eq!(buf.len(), fresh.len(), "query {qi}");
            for (a, b) in buf.iter().zip(fresh.iter()) {
                assert_eq!(a.0, b.0);
                assert_eq!(a.1.to_bits(), b.1.to_bits());
            }
        }
        grid.k_nearest_into(0, 0, &mut buf);
        assert!(buf.is_empty());
    }

    #[test]
    fn visitor_and_into_match_vec_api_exactly() {
        // All three query forms must agree element-for-element, in the
        // same visit order (the determinism contract).
        let pts = uniform_points(300, &mut trial_rng(20, 0));
        let grid = BucketGrid::for_radius(&pts, 0.07);
        let mut buf = Vec::new();
        for qi in [0usize, 9, 150, 299] {
            for r in [0.0, 0.03, 0.07, 0.4] {
                let legacy = grid.neighbors_within(qi, r);
                let mut visited = Vec::new();
                grid.for_neighbors_within(qi, r, |j, d| visited.push((j, d)));
                grid.neighbors_within_into(qi, r, &mut buf);
                assert_eq!(legacy, visited, "q={qi} r={r}");
                assert_eq!(legacy, buf, "q={qi} r={r}");
            }
        }
    }

    #[test]
    fn boundary_points_are_indexed() {
        // x = 1.0 and y = 1.0 must clamp into the last cell, not overflow.
        let pts = vec![Point::new(1.0, 1.0), Point::new(0.99, 0.99)];
        let grid = BucketGrid::new(&pts, 0.1);
        let nb = grid.neighbors_within(0, 0.05);
        assert_eq!(nb.len(), 1);
    }

    #[test]
    fn cell_population_counts_points() {
        let pts = vec![
            Point::new(0.05, 0.05),
            Point::new(0.06, 0.07),
            Point::new(0.95, 0.95),
        ];
        let grid = BucketGrid::new(&pts, 0.1);
        assert_eq!(grid.cell_population(0, 0), 2);
        assert_eq!(grid.cell_population(grid.side() - 1, grid.side() - 1), 1);
        let total: usize = (0..grid.side())
            .flat_map(|cy| (0..grid.side()).map(move |cx| (cx, cy)))
            .map(|(cx, cy)| grid.cell_population(cx, cy))
            .sum();
        assert_eq!(total, pts.len());
    }

    #[test]
    fn for_radius_caps_cell_count() {
        let pts = uniform_points(10, &mut trial_rng(17, 0));
        // Tiny radius must not allocate a huge grid.
        let grid = BucketGrid::for_radius(&pts, 1e-9);
        assert!(grid.side() <= 4 * 4 * 10); // bounded by ~4·sqrt(n) per side
    }

    #[test]
    #[should_panic(expected = "cell size must be positive")]
    fn zero_cell_size_rejected() {
        let pts = vec![Point::new(0.5, 0.5)];
        let _ = BucketGrid::new(&pts, 0.0);
    }

    #[test]
    fn empty_point_set_is_fine() {
        let pts: Vec<Point> = vec![];
        let grid = BucketGrid::new(&pts, 0.1);
        let mut called = false;
        grid.for_each_edge_within(0.5, |_, _, _| called = true);
        assert!(!called);
    }
}
