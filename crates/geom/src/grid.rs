//! Uniform spatial hash grid over a point set.

use std::collections::HashMap;

use crate::Point;

/// A uniform spatial hash over a fixed point set.
///
/// Points are bucketed into square cells of a caller-chosen size. The grid
/// serves two purposes in this workspace:
///
/// 1. **Range queries** during deployment generation and graph induction
///    (`neighbors_within`), replacing O(n²) scans.
/// 2. **Cell bucketing** for the `hybrid` reception kernel in `sinr-phys`,
///    which aggregates far-field interference per cell ([`HashGrid::cells`]).
///
/// The grid is immutable after construction; rebuilding is cheap (linear).
///
/// # Examples
///
/// ```
/// use sinr_geom::{HashGrid, Point};
///
/// let pts = vec![Point::new(0.0, 0.0), Point::new(0.5, 0.5), Point::new(9.0, 9.0)];
/// let grid = HashGrid::build(&pts, 1.0);
/// let near: Vec<usize> = grid.neighbors_within(&pts, Point::ORIGIN, 1.0).collect();
/// assert_eq!(near, vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct HashGrid {
    cell_size: f64,
    cells: HashMap<(i64, i64), Vec<usize>>,
}

impl HashGrid {
    /// Builds a grid over `points` with square cells of side `cell_size`.
    ///
    /// # Panics
    ///
    /// Panics if `cell_size` is not strictly positive and finite, or if any
    /// point has a non-finite coordinate: both indicate programming errors
    /// upstream rather than recoverable conditions.
    pub fn build(points: &[Point], cell_size: f64) -> Self {
        assert!(
            cell_size.is_finite() && cell_size > 0.0,
            "cell_size must be positive and finite, got {cell_size}"
        );
        let mut cells: HashMap<(i64, i64), Vec<usize>> = HashMap::new();
        for (i, p) in points.iter().enumerate() {
            assert!(p.is_finite(), "point {i} has non-finite coordinates");
            cells.entry(Self::key(*p, cell_size)).or_default().push(i);
        }
        HashGrid { cell_size, cells }
    }

    #[inline]
    fn key(p: Point, cell_size: f64) -> (i64, i64) {
        (
            (p.x / cell_size).floor() as i64,
            (p.y / cell_size).floor() as i64,
        )
    }

    /// The cell side length this grid was built with.
    #[inline]
    pub fn cell_size(&self) -> f64 {
        self.cell_size
    }

    /// Number of non-empty cells.
    #[inline]
    pub fn occupied_cells(&self) -> usize {
        self.cells.len()
    }

    /// The cell coordinates that `p` falls into.
    #[inline]
    pub fn cell_of(&self, p: Point) -> (i64, i64) {
        Self::key(p, self.cell_size)
    }

    /// Iterates over `(cell, indices)` pairs for all non-empty cells.
    pub fn cells(&self) -> impl Iterator<Item = ((i64, i64), &[usize])> {
        self.cells.iter().map(|(k, v)| (*k, v.as_slice()))
    }

    /// Point indices stored in `cell`, or an empty slice.
    pub fn cell_members(&self, cell: (i64, i64)) -> &[usize] {
        self.cells.get(&cell).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Indices of all points within Euclidean distance `r` of `p`.
    ///
    /// `points` must be the same slice the grid was built from (same order);
    /// the grid stores only indices. Results are yielded in ascending index
    /// order within each visited cell but cells are visited in an
    /// unspecified order; callers needing determinism should sort.
    pub fn neighbors_within<'a>(
        &'a self,
        points: &'a [Point],
        p: Point,
        r: f64,
    ) -> impl Iterator<Item = usize> + 'a {
        let reach = (r / self.cell_size).ceil() as i64;
        let (cx, cy) = self.cell_of(p);
        let r_sq = r * r;
        (-reach..=reach)
            .flat_map(move |dx| (-reach..=reach).map(move |dy| (cx + dx, cy + dy)))
            .filter_map(move |cell| self.cells.get(&cell))
            .flatten()
            .copied()
            .filter(move |&i| points[i].dist_sq(p) <= r_sq)
    }

    /// Like [`HashGrid::neighbors_within`] but collects into a sorted `Vec`,
    /// which is the deterministic form used throughout the simulator.
    pub fn neighbors_within_sorted(&self, points: &[Point], p: Point, r: f64) -> Vec<usize> {
        let mut v: Vec<usize> = self.neighbors_within(points, p, r).collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(0.9, 0.0),
            Point::new(5.0, 5.0),
            Point::new(-3.0, 2.0),
            Point::new(0.0, 1.1),
        ]
    }

    #[test]
    fn neighbors_within_matches_brute_force() {
        let pts = sample_points();
        let grid = HashGrid::build(&pts, 1.0);
        for &r in &[0.5, 1.0, 2.0, 10.0] {
            for &q in &pts {
                let got = grid.neighbors_within_sorted(&pts, q, r);
                let want: Vec<usize> = (0..pts.len()).filter(|&i| pts[i].dist(q) <= r).collect();
                assert_eq!(got, want, "r={r} q={q}");
            }
        }
    }

    #[test]
    fn all_points_are_indexed() {
        let pts = sample_points();
        let grid = HashGrid::build(&pts, 1.0);
        let total: usize = grid.cells().map(|(_, m)| m.len()).sum();
        assert_eq!(total, pts.len());
    }

    #[test]
    fn empty_point_set_is_fine() {
        let grid = HashGrid::build(&[], 1.0);
        assert_eq!(grid.occupied_cells(), 0);
        assert!(grid
            .neighbors_within(&[], Point::ORIGIN, 5.0)
            .next()
            .is_none());
    }

    #[test]
    fn negative_coordinates_bucket_correctly() {
        let pts = vec![Point::new(-0.1, -0.1), Point::new(0.1, 0.1)];
        let grid = HashGrid::build(&pts, 1.0);
        // Floor-based keys must place these in different cells.
        assert_ne!(grid.cell_of(pts[0]), grid.cell_of(pts[1]));
        // But a range query around the origin still finds both.
        assert_eq!(
            grid.neighbors_within_sorted(&pts, Point::ORIGIN, 0.5),
            vec![0, 1]
        );
    }

    #[test]
    #[should_panic(expected = "cell_size must be positive")]
    fn zero_cell_size_panics() {
        let _ = HashGrid::build(&[Point::ORIGIN], 0.0);
    }
}
