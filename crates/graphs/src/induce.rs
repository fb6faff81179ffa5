//! Induction of SINR connectivity graphs from node positions.

use sinr_geom::{HashGrid, Point};
use sinr_phys::SinrParams;

use crate::Graph;

/// Builds the graph `G_radius`: an edge for every pair at Euclidean
/// distance at most `radius` (§4.3 of the paper).
///
/// Uses a spatial hash, so the cost is near-linear for bounded densities.
///
/// # Examples
///
/// ```
/// let positions = sinr_geom::deploy::line(4, 2.0).unwrap();
/// let g = sinr_graphs::induce_graph(&positions, 2.5);
/// assert_eq!(g.edge_count(), 3); // consecutive pairs only
/// ```
pub fn induce_graph(positions: &[Point], radius: f64) -> Graph {
    assert!(
        radius.is_finite() && radius > 0.0,
        "radius must be positive, got {radius}"
    );
    if positions.is_empty() {
        return Graph::empty(0);
    }
    let grid = HashGrid::build(positions, radius.max(1.0));
    let mut edges = Vec::new();
    for (i, &p) in positions.iter().enumerate() {
        for j in grid.neighbors_within(positions, p, radius) {
            if i < j {
                edges.push((i, j));
            }
        }
    }
    Graph::from_edges(positions.len(), edges)
}

/// Shortest and longest edge lengths of `graph` under `positions`.
///
/// Returns `None` if the graph has no edges. The ratio of the two is the
/// graph-specific `Λ_G` of §4.3.
pub fn edge_length_extremes(positions: &[Point], graph: &Graph) -> Option<(f64, f64)> {
    let mut min = f64::INFINITY;
    let mut max: f64 = 0.0;
    let mut any = false;
    for (a, b) in graph.edges() {
        let d = positions[a].dist(positions[b]);
        min = min.min(d);
        max = max.max(d);
        any = true;
    }
    any.then_some((min, max))
}

/// The three SINR-induced graphs the paper works with, plus the metrics
/// the bounds are stated in.
///
/// * `weak` — `G₁` (communication possible but unreliable),
/// * `strong` — `G₁₋ε` (the graph local broadcast is implemented on),
/// * `approx` — `G̃ = G₁₋₂ε` (the graph approximate progress is measured
///   on; always a subgraph of `strong`).
#[derive(Debug, Clone)]
pub struct SinrGraphs {
    /// `G₁`, radius `R`.
    pub weak: Graph,
    /// `G₁₋ε`, radius `R₁₋ε`.
    pub strong: Graph,
    /// `G₁₋₂ε`, radius `R₁₋₂ε`.
    pub approx: Graph,
    /// `Λ`: ratio of `R₁₋ε` to the minimum pairwise node distance (the
    /// quantity the algorithms receive a polynomial bound on).
    pub lambda: f64,
}

impl SinrGraphs {
    /// Induces all three graphs from positions and model parameters.
    pub fn induce(params: &SinrParams, positions: &[Point]) -> Self {
        let weak = induce_graph(positions, params.range());
        let strong = induce_graph(positions, params.strong_radius());
        let approx = induce_graph(positions, params.approx_radius());
        // The minimum pairwise distance, bit for bit, without the O(n²)
        // scan: `weak` joins every pair with `dist_sq ≤ R·R`, and `dist`
        // is `dist_sq.sqrt()`, so when `weak` has an edge its shortest
        // edge is the closest pair. With no edge every pair has
        // `dist_sq > R·R`, hence `dist ≥ (R·R).sqrt() = R ≥ R₁₋ε` (a
        // rounded square root of a rounded square is exact), and Λ is 1.
        // Fewer than two nodes: fall back to the near-field minimum of 1.
        let lambda = match edge_length_extremes(positions, &weak) {
            Some((shortest, _)) => (params.strong_radius() / shortest.max(1.0)).max(1.0),
            None if positions.len() >= 2 => 1.0,
            None => params.strong_radius().max(1.0),
        };
        SinrGraphs {
            weak,
            strong,
            approx,
            lambda,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SinrParams {
        SinrParams::builder()
            .range(16.0)
            .epsilon(0.25)
            .build()
            .unwrap()
    }

    #[test]
    fn induced_graphs_nest() {
        let positions = sinr_geom::deploy::uniform(80, 60.0, 2).unwrap();
        let graphs = SinrGraphs::induce(&params(), &positions);
        // approx ⊆ strong ⊆ weak edge-wise.
        for (a, b) in graphs.approx.edges() {
            assert!(graphs.strong.has_edge(a, b));
        }
        for (a, b) in graphs.strong.edges() {
            assert!(graphs.weak.has_edge(a, b));
        }
    }

    #[test]
    fn induce_matches_brute_force() {
        let positions = sinr_geom::deploy::uniform(50, 40.0, 4).unwrap();
        let r = 7.5;
        let g = induce_graph(&positions, r);
        for i in 0..positions.len() {
            for j in (i + 1)..positions.len() {
                assert_eq!(
                    g.has_edge(i, j),
                    positions[i].dist(positions[j]) <= r,
                    "pair ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn line_graph_structure() {
        let positions = sinr_geom::deploy::line(6, 2.0).unwrap();
        // Radius 2: adjacent only to immediate neighbors.
        let g = induce_graph(&positions, 2.0);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.diameter(), Some(5));
        // Radius 4: skip connections appear.
        let g2 = induce_graph(&positions, 4.0);
        assert_eq!(g2.diameter(), Some(3));
    }

    #[test]
    fn lambda_reflects_min_distance() {
        let positions = sinr_geom::deploy::line(4, 3.0).unwrap();
        let graphs = SinrGraphs::induce(&params(), &positions);
        // strong radius = 12, min distance = 3 → Λ = 4.
        assert!((graphs.lambda - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_positions_are_fine() {
        let graphs = SinrGraphs::induce(&params(), &[]);
        assert!(graphs.strong.is_empty());
        assert_eq!(graphs.lambda, params().strong_radius().max(1.0));
    }

    #[test]
    fn edge_length_extremes_on_line() {
        let positions = sinr_geom::deploy::line(4, 2.0).unwrap();
        let g = induce_graph(&positions, 4.5);
        let (min, max) = edge_length_extremes(&positions, &g).unwrap();
        assert_eq!(min, 2.0);
        assert_eq!(max, 4.0);
        let empty = induce_graph(&positions, 1.0);
        assert!(edge_length_extremes(&positions, &empty).is_none());
    }

    /// Λ from the O(n²) minimum-distance scan: the oracle for
    /// [`SinrGraphs::induce`].
    fn lambda_by_scan(params: &SinrParams, positions: &[Point]) -> f64 {
        let measured = sinr_geom::deploy::min_pairwise_distance(positions);
        let min_dist = if measured.is_finite() {
            measured.max(1.0)
        } else {
            1.0
        };
        (params.strong_radius() / min_dist).max(1.0)
    }

    fn assert_lambda_matches(range: f64, epsilon: f64, positions: &[Point]) {
        let params = SinrParams::builder()
            .range(range)
            .epsilon(epsilon)
            .build()
            .unwrap();
        let lambda = SinrGraphs::induce(&params, positions).lambda;
        let want = lambda_by_scan(&params, positions);
        assert_eq!(lambda.to_bits(), want.to_bits(), "{lambda} vs {want}");
    }

    #[test]
    fn lambda_matches_scan_at_the_range_boundary() {
        // Pairs exactly R apart are weak edges; pairs just beyond are
        // not, even when ε is so small that R₁₋ε rounds to R.
        for range in [2.0f64, 3.0, 7.3, 16.0, 1e3 / 3.0] {
            for spacing in [range, range.next_up(), range * 1.5] {
                for epsilon in [1e-20, 0.1, 0.49] {
                    let positions = sinr_geom::deploy::lattice(3, 4, spacing).unwrap();
                    assert_lambda_matches(range, epsilon, &positions);
                    assert_lambda_matches(range, epsilon, &positions[..2]);
                }
            }
        }
        assert_lambda_matches(16.0, 0.1, &[Point::ORIGIN]);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        #[test]
        fn lambda_matches_the_pairwise_scan(
            unit in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 0..60),
            extent in 0.5f64..1500.0,
            range in 2.0f64..40.0,
            epsilon in 1e-9f64..0.499,
        ) {
            // Closer than the near-field minimum, duplicates and edgeless
            // deployments all occur.
            let positions: Vec<Point> = unit
                .iter()
                .map(|&(x, y)| Point::new(x * extent, y * extent))
                .collect();
            assert_lambda_matches(range, epsilon, &positions);
        }
    }

    #[test]
    fn two_lines_gadget_has_degree_delta() {
        let gadget = sinr_geom::deploy::two_lines(6, None).unwrap();
        let g = induce_graph(&gadget.points, gadget.strong_radius);
        for v in 0..g.len() {
            assert_eq!(g.degree(v), 6, "node {v}");
        }
    }
}
