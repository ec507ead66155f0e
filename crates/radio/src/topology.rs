//! Cached unit-disk topology: the CSR adjacency of the network at a fixed
//! operating radius.
//!
//! Fixed-radius protocols (GHS, BFS flood, discovery, leader election)
//! query the same disk neighbourhoods over and over. Rebuilding each
//! neighbour list from the [`BucketGrid`] on every broadcast allocates a
//! fresh `Vec` and re-scans the cells the disk touches per call — nine
//! when the radius is at most the cell size, as
//! [`BucketGrid::for_radius`] arranges; a [`Topology`] materialises all
//! rows once per run in compressed-sparse-row form, after which every
//! query is a contiguous slice lookup.
//!
//! **Determinism contract.** Rows are stored in *grid visit order* — the
//! exact order [`BucketGrid::for_neighbors_within`] yields neighbours
//! (cells row-major, CSR order within a cell). Every receiver list the
//! simulator hands to a protocol therefore has the same content *and
//! order* whether it came from the cached topology or a live grid query,
//! which keeps energy ledgers and golden traces bit-identical across the
//! two paths.

use crate::membership::Membership;
use emst_geom::BucketGrid;
use std::sync::OnceLock;

/// CSR adjacency of the unit-disk graph at one operating radius.
///
/// Row `u` holds the neighbours of `u` within `radius` (excluding `u`
/// itself) in grid visit order, with their exact Euclidean distances.
#[derive(Debug)]
pub struct Topology {
    radius: f64,
    /// Row boundaries: row `u` is `nbr[offsets[u]..offsets[u+1]]`.
    offsets: Vec<u32>,
    /// Neighbour ids, concatenated row-major.
    nbr: Vec<u32>,
    /// Distances, parallel to `nbr`.
    dist: Vec<f64>,
    /// Lazily-built `(dist, id)`-sorted view of the rows (see
    /// [`Topology::sorted`]). Built at most once, then shared by every
    /// run holding this topology.
    sorted: OnceLock<SortedRows>,
}

/// Distance-sorted view of a [`Topology`]: the same rows, each reordered
/// ascending by `(dist, id)`. Row boundaries are the parent topology's
/// offsets; access goes through [`Topology::sorted_ids`] /
/// [`Topology::sorted_dists`].
#[derive(Debug, Clone, PartialEq)]
pub struct SortedRows {
    ids: Vec<u32>,
    dists: Vec<f64>,
}

impl Clone for Topology {
    fn clone(&self) -> Self {
        let sorted = OnceLock::new();
        if let Some(s) = self.sorted.get() {
            let _ = sorted.set(s.clone());
        }
        Topology {
            radius: self.radius,
            offsets: self.offsets.clone(),
            nbr: self.nbr.clone(),
            dist: self.dist.clone(),
            sorted,
        }
    }
}

impl PartialEq for Topology {
    fn eq(&self, other: &Self) -> bool {
        // The sorted view is a cache derived from the base rows: two
        // topologies with equal rows are equal regardless of whether
        // either has materialised it yet.
        self.radius == other.radius
            && self.offsets == other.offsets
            && self.nbr == other.nbr
            && self.dist == other.dist
    }
}

impl Topology {
    /// Builds the adjacency for every node at `radius` by a single pass of
    /// grid disk queries. O(n + m) memory for an m-edge unit-disk graph.
    pub fn build(grid: &BucketGrid<'_>, radius: f64) -> Self {
        assert!(radius >= 0.0, "negative topology radius");
        let n = grid.points().len();
        let mut offsets = Vec::with_capacity(n + 1);
        // Reserve the expected row total and an eighth more: grown by
        // doubling instead, both buffers are copied at every step and the
        // build touches about twice the memory its rows need.
        let expected = grid.estimated_disk_pairs(radius);
        let cap = (expected + expected / 8).min(u32::MAX as usize);
        let mut nbr: Vec<u32> = Vec::with_capacity(cap);
        let mut dist: Vec<f64> = Vec::with_capacity(cap);
        offsets.push(0u32);
        for u in 0..n {
            grid.for_neighbors_within(u, radius, |v, d| {
                nbr.push(v as u32);
                dist.push(d);
            });
            let end = u32::try_from(nbr.len()).expect("topology larger than u32 edge space");
            offsets.push(end);
        }
        Topology {
            radius,
            offsets,
            nbr,
            dist,
            sorted: OnceLock::new(),
        }
    }

    /// The `(dist, id)`-sorted view of the rows, built on first use and
    /// cached for the topology's lifetime. Protocols that scan rows in
    /// ascending-weight order (modified-GHS MOE search) borrow this
    /// instead of sorting private copies per run.
    pub fn sorted(&self) -> &SortedRows {
        self.sorted.get_or_init(|| {
            let mut ids = Vec::with_capacity(self.nbr.len());
            let mut dists = Vec::with_capacity(self.nbr.len());
            // One integer key per entry: distances are never negative, so
            // their bit patterns order like `total_cmp`, and the id in the
            // low bits breaks ties.
            let mut keys: Vec<u128> = Vec::new();
            for u in 0..self.n() {
                let r = self.row(u);
                keys.clear();
                keys.extend(
                    self.nbr[r.clone()]
                        .iter()
                        .zip(&self.dist[r.clone()])
                        .map(|(&v, &d)| (u128::from(d.to_bits()) << 32) | u128::from(v)),
                );
                keys.sort_unstable();
                // Rows come in offset order, so appending fills them in place.
                ids.extend(keys.iter().map(|&key| key as u32));
                dists.extend(keys.iter().map(|&key| f64::from_bits((key >> 32) as u64)));
            }
            SortedRows { ids, dists }
        })
    }

    /// Consumes the topology and hands back the ids of its
    /// `(dist, id)`-sorted rows as `(offsets, ids)`, building the sorted
    /// view first if it is not yet built. Both buffers move out without
    /// a copy; the distances and the grid-order rows are dropped (a
    /// distance is `Point::dist` of its two endpoints, bit for bit).
    pub fn into_sorted_ids(mut self) -> (Vec<u32>, Vec<u32>) {
        self.sorted();
        let SortedRows { ids, .. } = self.sorted.take().expect("built above");
        (self.offsets, ids)
    }

    /// Neighbour ids of `u` in ascending `(dist, id)` order.
    #[inline]
    pub fn sorted_ids(&self, u: usize) -> &[u32] {
        &self.sorted().ids[self.row(u)]
    }

    /// Distances parallel to [`Topology::sorted_ids`].
    #[inline]
    pub fn sorted_dists(&self, u: usize) -> &[f64] {
        &self.sorted().dists[self.row(u)]
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
        self.nbr.len()
    }

    /// Degree of `u`.
    #[inline]
    pub fn degree(&self, u: usize) -> usize {
        (self.offsets[u + 1] - self.offsets[u]) as usize
    }

    #[inline]
    fn row(&self, u: usize) -> std::ops::Range<usize> {
        self.offsets[u] as usize..self.offsets[u + 1] as usize
    }

    /// Neighbour ids of `u`, in grid visit order.
    #[inline]
    pub fn ids(&self, u: usize) -> &[u32] {
        &self.nbr[self.row(u)]
    }

    /// Distances parallel to [`Topology::ids`].
    #[inline]
    pub fn dists(&self, u: usize) -> &[f64] {
        &self.dist[self.row(u)]
    }

    /// Iterates `(neighbour, distance)` pairs of `u` in grid visit order.
    #[inline]
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let r = self.row(u);
        self.nbr[r.clone()]
            .iter()
            .zip(&self.dist[r])
            .map(|(&v, &d)| (v as usize, d))
    }

    /// Appends `u`'s row to `out` (which the caller has cleared or wants
    /// extended) without allocating beyond `out`'s capacity growth.
    pub fn extend_row_into(&self, u: usize, out: &mut Vec<(usize, f64)>) {
        let r = self.row(u);
        out.reserve(r.len());
        for (&v, &d) in self.nbr[r.clone()].iter().zip(&self.dist[r]) {
            out.push((v as usize, d));
        }
    }

    /// Iterates the *live* `(neighbour, distance)` pairs of `u` in grid
    /// visit order — the row restricted to `members`' live set. The rows
    /// themselves are built over the full id universe (dead nodes keep
    /// their slots, so the CSR never has to be rebuilt on churn); this is
    /// the filtered view every membership-aware stage iterates.
    #[inline]
    pub fn neighbors_live<'m>(
        &'m self,
        u: usize,
        members: &'m Membership,
    ) -> impl Iterator<Item = (usize, f64)> + 'm {
        self.neighbors(u).filter(move |&(v, _)| members.is_live(v))
    }

    /// Live degree of `u` under `members` (row length minus dead entries).
    pub fn degree_live(&self, u: usize, members: &Membership) -> usize {
        self.ids(u)
            .iter()
            .filter(|&&v| members.is_live(v as usize))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use emst_geom::{trial_rng, uniform_points, Point};

    #[test]
    fn rows_match_grid_queries_exactly() {
        let pts = uniform_points(250, &mut trial_rng(81, 0));
        let grid = BucketGrid::for_radius(&pts, 0.08);
        let topo = Topology::build(&grid, 0.08);
        assert_eq!(topo.n(), 250);
        assert!((topo.radius() - 0.08).abs() == 0.0);
        let mut total = 0;
        for u in 0..250 {
            let live = grid.neighbors_within(u, 0.08);
            assert_eq!(topo.degree(u), live.len());
            let row: Vec<(usize, f64)> = topo.neighbors(u).collect();
            assert_eq!(row, live, "node {u}");
            let mut buf = vec![(usize::MAX, 0.0)];
            buf.clear();
            topo.extend_row_into(u, &mut buf);
            assert_eq!(buf, live);
            total += live.len();
        }
        assert_eq!(topo.directed_edges(), total);
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
        // An 8×8 lattice at spacing 1/8 (exact in binary, so neighbours
        // tie at equal distances) plus duplicates at distance 0.0.
        let mut pts: Vec<Point> = (0..64)
            .map(|k| Point::new((k % 8) as f64 / 8.0, (k / 8) as f64 / 8.0))
            .collect();
        pts.extend([pts[0], pts[9], pts[9], pts[36], pts[63]]);
        let grid = BucketGrid::for_radius(&pts, 0.3);
        let topo = Topology::build(&grid, 0.3);
        let (mut zero_ties, mut dist_ties) = (0, 0);
        for u in 0..topo.n() {
            let mut want: Vec<(f64, u32)> = topo
                .dists(u)
                .iter()
                .copied()
                .zip(topo.ids(u).iter().copied())
                .collect();
            want.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let got: Vec<(f64, u32)> = topo
                .sorted_dists(u)
                .iter()
                .copied()
                .zip(topo.sorted_ids(u).iter().copied())
                .collect();
            assert_eq!(got, want, "row {u}");
            zero_ties += want.iter().filter(|e| e.0 == 0.0).count();
            dist_ties += want.windows(2).filter(|w| w[0].0 == w[1].0).count();
        }
        assert!(zero_ties >= 8, "duplicates must meet at distance 0.0");
        assert!(dist_ties > 64, "lattice rows must tie");
        // The by-value accessor hands out the same rows, also when the
        // sorted view was never built.
        let fresh = Topology::build(&grid, 0.3);
        for t in [topo.clone(), fresh] {
            let (off, ids) = t.into_sorted_ids();
            assert_eq!(off.len(), topo.n() + 1);
            for u in 0..topo.n() {
                assert_eq!(
                    &ids[off[u] as usize..off[u + 1] as usize],
                    topo.sorted_ids(u)
                );
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
            assert!(topo.dists(u).is_empty());
        }
    }
}
