//! Property-based tests over the core invariants of the reproduction.

use proptest::prelude::*;

use sinr_local_broadcast::graphs::{growth, mis};
use sinr_local_broadcast::mac::swmis;
use sinr_local_broadcast::phys::reception::decide_receptions;
use sinr_local_broadcast::prelude::*;

/// Random point sets with the near-field property, by snapping to a unit
/// sub-lattice (guarantees pairwise distance ≥ 1 without rejection).
fn near_field_points(max_n: usize, extent: i32) -> impl Strategy<Value = Vec<Point>> {
    prop::collection::btree_set((0..extent, 0..extent), 2..max_n).prop_map(|cells| {
        cells
            .into_iter()
            .map(|(x, y)| Point::new(x as f64 * 1.5, y as f64 * 1.5))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `G₁₋₂ε ⊆ G₁₋ε ⊆ G₁` for every deployment and parameter set.
    #[test]
    fn induced_graphs_nest(
        pts in near_field_points(40, 24),
        range in 4.0f64..40.0,
        eps in 0.05f64..0.45,
    ) {
        let sinr = SinrParams::builder().range(range).epsilon(eps).build().unwrap();
        let graphs = SinrGraphs::induce(&sinr, &pts);
        for (a, b) in graphs.approx.edges() {
            prop_assert!(graphs.strong.has_edge(a, b));
        }
        for (a, b) in graphs.strong.edges() {
            prop_assert!(graphs.weak.has_edge(a, b));
        }
    }

    /// A lone transmitter in range is always decoded; out of range never.
    #[test]
    fn lone_transmitter_decoding(
        pts in near_field_points(20, 20),
        range in 4.0f64..30.0,
    ) {
        let sinr = SinrParams::builder().range(range).build().unwrap();
        let decisions = decide_receptions(&sinr, &pts, &[0], BackendSpec::exact());
        for (u, d) in decisions.iter().enumerate().skip(1) {
            let in_range = pts[0].dist(pts[u]) <= range;
            prop_assert_eq!(d.is_some(), in_range, "listener {}", u);
        }
    }

    /// BFS distances satisfy the triangle inequality through any edge.
    #[test]
    fn bfs_triangle_inequality(
        pts in near_field_points(30, 20),
        range in 3.0f64..20.0,
    ) {
        let g = induce_graph(&pts, range);
        let dist = g.bfs(0);
        for (a, b) in g.edges() {
            if dist[a] != u32::MAX && dist[b] != u32::MAX {
                prop_assert!(dist[a].abs_diff(dist[b]) <= 1, "edge ({a},{b})");
            }
        }
    }

    /// Greedy MIS always produces a maximal independent set.
    #[test]
    fn greedy_mis_is_always_mis(
        pts in near_field_points(30, 20),
        range in 3.0f64..20.0,
    ) {
        let g = induce_graph(&pts, range);
        let set = mis::greedy_mis_all(&g);
        prop_assert!(mis::is_mis(&g, &set));
    }

    /// Every independent set in an induced graph respects the universal
    /// disc growth bound (Definition 4.1 with f(r) = (2r+1)²).
    #[test]
    fn growth_bound_holds(
        pts in near_field_points(40, 24),
        range in 3.0f64..15.0,
        r in 0u32..3,
    ) {
        let g = induce_graph(&pts, range);
        let worst = growth::max_greedy_independent_in_neighborhoods(&g, r);
        prop_assert!(worst <= growth::disc_growth_bound(r));
    }

    /// The MIS round protocol never creates two adjacent dominators —
    /// with or without label collisions, at any round budget.
    #[test]
    fn swmis_dominators_always_independent(
        edges in prop::collection::vec((0usize..12, 0usize..12), 0..30),
        labels in prop::collection::vec(1u64..6, 12),
        rounds in 0u32..8,
    ) {
        let n = 12;
        let mut adj = vec![vec![]; n];
        for (a, b) in edges {
            if a != b && !adj[a].contains(&b) {
                adj[a].push(b);
                adj[b].push(a);
            }
        }
        let states = swmis::run_centralized(&adj, &labels, rounds);
        let dom = swmis::dominators(&states);
        for (i, &a) in dom.iter().enumerate() {
            for &b in &dom[i + 1..] {
                prop_assert!(!adj[a].contains(&b), "adjacent dominators {a},{b}");
            }
        }
    }

    /// With unique labels and enough rounds, the MIS resolves completely
    /// and is maximal.
    #[test]
    fn swmis_unique_labels_converge(
        perm in Just(()).prop_flat_map(|_| {
            prop::collection::vec(1u64..1000, 8)
                .prop_filter("unique", |v| {
                    let mut s = v.clone();
                    s.sort_unstable();
                    s.dedup();
                    s.len() == v.len()
                })
        }),
    ) {
        // A path: worst case needs up to n rounds with adversarial labels.
        let n = 8;
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut v = vec![];
                if i > 0 { v.push(i - 1); }
                if i + 1 < n { v.push(i + 1); }
                v
            })
            .collect();
        let states = swmis::run_centralized(&adj, &perm, n as u32 + 1);
        prop_assert!(states.iter().all(|s| *s != sinr_local_broadcast::mac::MisState::Competitor));
        let dom = swmis::dominators(&states);
        // Maximality on the path: every node is a dominator or adjacent to one.
        for (i, neighbors) in adj.iter().enumerate() {
            let covered = dom.contains(&i)
                || neighbors.iter().any(|j| dom.contains(j));
            prop_assert!(covered, "node {i} uncovered");
        }
    }

    /// Latency statistics are internally consistent.
    #[test]
    fn latency_stats_consistency(samples in prop::collection::vec(0u64..10_000, 1..50)) {
        let stats = absmac::measure::LatencyStats::from_samples(samples.clone());
        let min = stats.min().unwrap();
        let max = stats.max().unwrap();
        let mean = stats.mean().unwrap();
        prop_assert!(min as f64 <= mean && mean <= max as f64);
        prop_assert_eq!(stats.percentile(100.0).unwrap(), max);
        let p50 = stats.percentile(50.0).unwrap();
        prop_assert!(min <= p50 && p50 <= max);
    }
}
