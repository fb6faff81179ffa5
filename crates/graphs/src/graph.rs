//! Immutable adjacency-list graphs with the queries the paper's analysis
//! needs: degrees, BFS hop distances, diameter, connectivity.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Sentinel hop distance for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// An undirected graph over nodes `0..n` with sorted adjacency lists.
///
/// Construction deduplicates edges and ignores self-loops; the structure
/// is immutable afterwards. All algorithms are deterministic.
///
/// # Examples
///
/// ```
/// use sinr_graphs::Graph;
///
/// let g = Graph::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
/// assert_eq!(g.degree(1), 2);
/// assert_eq!(g.hop_distance(0, 3), Some(3));
/// assert_eq!(g.diameter(), Some(3));
/// ```
#[derive(Clone)]
pub struct Graph {
    adj: Vec<Vec<u32>>,
    edge_count: usize,
    /// Memoized [`Graph::diameter`] — the one quadratic query. Shared
    /// through clones (an `Arc`), so the copies of a graph that one
    /// shared preparation hands out compute it at most once between them.
    diameter: Arc<OnceLock<Option<u32>>>,
}

impl PartialEq for Graph {
    fn eq(&self, other: &Self) -> bool {
        // Structural identity only; the memo is derived state.
        self.adj == other.adj
    }
}

impl Eq for Graph {}

impl Graph {
    /// Creates a graph with `n` nodes from an edge iterator.
    ///
    /// Self-loops are ignored; duplicate edges (in either orientation) are
    /// deduplicated.
    ///
    /// # Panics
    ///
    /// Panics if an endpoint is `>= n`.
    pub fn from_edges(n: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (a, b) in edges {
            assert!(a < n && b < n, "edge ({a}, {b}) out of range for n={n}");
            if a == b {
                continue;
            }
            adj[a].push(b as u32);
            adj[b].push(a as u32);
        }
        let mut edge_count = 0;
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
            edge_count += list.len();
        }
        Graph {
            adj,
            edge_count: edge_count / 2,
            diameter: Arc::new(OnceLock::new()),
        }
    }

    /// An empty graph on `n` isolated nodes.
    pub fn empty(n: usize) -> Self {
        Graph {
            adj: vec![Vec::new(); n],
            edge_count: 0,
            diameter: Arc::new(OnceLock::new()),
        }
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// Whether the graph has zero nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Sorted neighbors of `v` (excluding `v` itself).
    #[inline]
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[v]
    }

    /// Degree `δ(v)`: number of neighbors, excluding `v` (§4.1).
    #[inline]
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// Maximum degree `Δ_G`, or 0 for an empty graph.
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Whether `{a, b}` is an edge.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj[a].binary_search(&(b as u32)).is_ok()
    }

    /// Iterates over all undirected edges as `(min, max)` pairs, sorted.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.adj.iter().enumerate().flat_map(|(a, list)| {
            list.iter()
                .filter(move |&&b| a < b as usize)
                .map(move |&b| (a, b as usize))
        })
    }

    /// BFS hop distances from `src`; unreachable nodes get [`UNREACHABLE`].
    pub fn bfs(&self, src: usize) -> Vec<u32> {
        let mut dist = vec![UNREACHABLE; self.adj.len()];
        let mut queue = VecDeque::new();
        dist[src] = 0;
        queue.push_back(src);
        while let Some(v) = queue.pop_front() {
            let dv = dist[v];
            for &w in &self.adj[v] {
                let w = w as usize;
                if dist[w] == UNREACHABLE {
                    dist[w] = dv + 1;
                    queue.push_back(w);
                }
            }
        }
        dist
    }

    /// Hop distance `d_G(a, b)`, or `None` if disconnected.
    pub fn hop_distance(&self, a: usize, b: usize) -> Option<u32> {
        let d = self.bfs(a)[b];
        (d != UNREACHABLE).then_some(d)
    }

    /// The `r`-neighborhood `N_{G,r}(v)` (§4.1), including `v`, sorted.
    pub fn neighborhood(&self, v: usize, r: u32) -> Vec<usize> {
        let dist = self.bfs(v);
        (0..self.adj.len())
            .filter(|&u| dist[u] != UNREACHABLE && dist[u] <= r)
            .collect()
    }

    /// Whether the graph is connected (vacuously true for `n <= 1`).
    pub fn is_connected(&self) -> bool {
        if self.adj.len() <= 1 {
            return true;
        }
        self.bfs(0).iter().all(|&d| d != UNREACHABLE)
    }

    /// Eccentricity of `v` (max hop distance to any node), or `None` if
    /// some node is unreachable from `v`.
    pub fn eccentricity(&self, v: usize) -> Option<u32> {
        let dist = self.bfs(v);
        let mut max = 0;
        for &d in &dist {
            if d == UNREACHABLE {
                return None;
            }
            max = max.max(d);
        }
        Some(max)
    }

    /// Diameter `D_G` (max hop distance over all pairs), or `None` if the
    /// graph is disconnected or empty.
    ///
    /// Exact, by a bit-parallel multi-source BFS (Then et al., "The More
    /// the Merrier: Efficient Multi-Source Graph Traversal", PVLDB 8(4),
    /// 2014). The nodes are split into batches of 512 sources, and one
    /// traversal per batch advances all 512 BFS waves at once, one bit
    /// per source. A batch takes as many levels as the largest
    /// eccentricity among its sources, so D is the most levels any batch
    /// takes. A connectivity BFS runs first.
    ///
    /// * **Work.** Each batch is a BFS ball grown over the nodes no
    ///   earlier batch took, so its waves travel together and a node
    ///   holds frontier bits for only ℓ levels of a batch, where ℓ grows
    ///   with the ball's hop radius, not with D. Each of those levels
    ///   ORs the node's 64 bytes of bits into each neighbour's. So a
    ///   batch costs about ℓ·2m such ORs, plus O(n) to clear it and
    ///   O(n / 64) per level to find the frontier. The total is
    ///   O(n / 512 · (n + ℓ·m)) and depends on the graph alone: unlike
    ///   pruned methods (iFUB, BoundingDiameters), whose BFS count
    ///   depends on where their sweeps happen to start, there is no
    ///   lucky or unlucky deployment. On the 10⁴-node city deployment
    ///   (`uniform:10000:220`, range 16: m ≈ 6.3·10⁵, D = 23, ℓ ≈ 6)
    ///   that is 1.5·10⁸ ORs, 0.35–0.50 s (best of five) on one core of
    ///   a 2-vCPU Xeon, against ~23 s for one BFS per node.
    /// * **Memory.** 3 × n × 64 bytes of source bits (seen, frontier,
    ///   next), plus the graph relabelled into batch order as one flat
    ///   adjacency array, O(n + m). All of it is freed on return.
    ///
    /// Computed **once**: the result is memoized and shared through
    /// clones, so repeated reports over a cached deployment pay nothing
    /// after the first.
    pub fn diameter(&self) -> Option<u32> {
        *self.diameter.get_or_init(|| {
            if self.adj.is_empty() || !self.is_connected() {
                return None;
            }
            Some(multi_source_diameter(&self.adj))
        })
    }

    /// The subgraph induced by `nodes` (§4.1's `G|S`), with nodes
    /// renumbered `0..nodes.len()` in the given order.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` contains duplicates or out-of-range indices.
    pub fn induced_subgraph(&self, nodes: &[usize]) -> Graph {
        let mut map = vec![usize::MAX; self.adj.len()];
        for (new, &old) in nodes.iter().enumerate() {
            assert!(old < self.adj.len(), "node {old} out of range");
            assert!(map[old] == usize::MAX, "duplicate node {old}");
            map[old] = new;
        }
        let mut edges = Vec::new();
        for (new_a, &old_a) in nodes.iter().enumerate() {
            for &old_b in &self.adj[old_a] {
                let new_b = map[old_b as usize];
                if new_b != usize::MAX && new_a < new_b {
                    edges.push((new_a, new_b));
                }
            }
        }
        Graph::from_edges(nodes.len(), edges)
    }
}

/// Words of source bits per node in [`Graph::diameter`]'s batches.
const MSBFS_WORDS: usize = 8;

/// Sources per batch of [`Graph::diameter`]'s multi-source BFS. On the
/// 10⁴-node city deployment 256, 512 and 1,024 ran within noise of each
/// other and 128 about 1.5× slower; each 512 sources cost 3 × 64 bytes
/// per node.
const MSBFS_SOURCES: usize = MSBFS_WORDS * 64;

/// The largest eccentricity in the connected graph `adj`, by
/// [`MSBFS_SOURCES`]-wide bit-parallel BFS over ball-shaped batches.
fn multi_source_diameter(adj: &[Vec<u32>]) -> u32 {
    let n = adj.len();
    let order = ball_order(adj);
    let (offsets, targets) = relabelled_csr(adj, &order);
    drop(order);
    let mut seen = vec![[0u64; MSBFS_WORDS]; n];
    let mut frontier = vec![[0u64; MSBFS_WORDS]; n];
    let mut next = vec![[0u64; MSBFS_WORDS]; n];
    // Which nodes hold frontier bits, and which received bits this level.
    let mut active = vec![0u64; n.div_ceil(64)];
    let mut touched = vec![0u64; n.div_ceil(64)];
    let mut diameter = 0;
    for start in (0..n).step_by(MSBFS_SOURCES) {
        let end = n.min(start + MSBFS_SOURCES);
        seen.fill([0; MSBFS_WORDS]);
        for v in start..end {
            let bit = v - start;
            seen[v][bit / 64] |= 1 << (bit % 64);
            active[v / 64] |= 1 << (v % 64);
        }
        frontier[start..end].copy_from_slice(&seen[start..end]);
        let mut levels = 0;
        loop {
            // Push every frontier node's bits to its neighbours.
            for_each_set_bit(&mut active, |v| {
                let bits = std::mem::take(&mut frontier[v]);
                for &w in &targets[offsets[v]..offsets[v + 1]] {
                    let w = w as usize;
                    for (word, bit) in next[w].iter_mut().zip(&bits) {
                        *word |= bit;
                    }
                    touched[w / 64] |= 1 << (w % 64);
                }
            });
            // Keep the bits each receiver had not seen: its new frontier.
            let mut grew = false;
            for_each_set_bit(&mut touched, |w| {
                let arrived = std::mem::take(&mut next[w]);
                let known = &mut seen[w];
                let mut fresh = [0u64; MSBFS_WORDS];
                let mut any = 0;
                for k in 0..MSBFS_WORDS {
                    fresh[k] = arrived[k] & !known[k];
                    known[k] |= fresh[k];
                    any |= fresh[k];
                }
                if any != 0 {
                    frontier[w] = fresh;
                    active[w / 64] |= 1 << (w % 64);
                    grew = true;
                }
            });
            if !grew {
                break;
            }
            levels += 1;
        }
        diameter = diameter.max(levels);
    }
    diameter
}

/// Calls `f` on every set bit's index in ascending order, clearing the set.
#[inline]
fn for_each_set_bit(set: &mut [u64], mut f: impl FnMut(usize)) {
    for (i, word) in set.iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            f(i * 64 + bits.trailing_zeros() as usize);
            bits &= bits - 1;
        }
    }
}

/// All nodes of `adj`, ordered so that every [`MSBFS_SOURCES`]-wide
/// batch is a BFS ball: from the lowest id not yet ordered, grow a ball
/// over the unordered nodes until the batch is full or the ball runs
/// out, then start the next ball from the next lowest such id.
fn ball_order(adj: &[Vec<u32>]) -> Vec<u32> {
    let n = adj.len();
    let mut order: Vec<u32> = Vec::with_capacity(n);
    let mut placed = vec![false; n];
    let mut lowest = 0;
    while order.len() < n {
        let full = n.min(order.len() + MSBFS_SOURCES);
        while order.len() < full {
            while placed[lowest] {
                lowest += 1;
            }
            // `order[head..]` is the ball's BFS queue.
            let mut head = order.len();
            placed[lowest] = true;
            order.push(lowest as u32);
            while head < order.len() && order.len() < full {
                for &w in &adj[order[head] as usize] {
                    if order.len() == full {
                        break;
                    }
                    if !placed[w as usize] {
                        placed[w as usize] = true;
                        order.push(w);
                    }
                }
                head += 1;
            }
        }
    }
    order
}

/// `adj` relabelled so that node `order[i]` becomes `i`, as a flat
/// adjacency array: `targets[offsets[v]..offsets[v + 1]]` are `v`'s
/// neighbours, sorted.
fn relabelled_csr(adj: &[Vec<u32>], order: &[u32]) -> (Vec<usize>, Vec<u32>) {
    let mut rank = vec![0u32; adj.len()];
    for (new, &old) in order.iter().enumerate() {
        rank[old as usize] = new as u32;
    }
    let mut offsets = Vec::with_capacity(adj.len() + 1);
    let mut targets = Vec::with_capacity(adj.iter().map(Vec::len).sum());
    offsets.push(0);
    for &old in order {
        let row = targets.len();
        targets.extend(adj[old as usize].iter().map(|&w| rank[w as usize]));
        targets[row..].sort_unstable();
        offsets.push(targets.len());
    }
    (offsets, targets)
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.adj.len())
            .field("edges", &self.edge_count)
            .field("max_degree", &self.max_degree())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(n: usize) -> Graph {
        Graph::from_edges(n, (0..n.saturating_sub(1)).map(|i| (i, i + 1)))
    }

    #[test]
    fn from_edges_dedups_and_ignores_loops() {
        let g = Graph::from_edges(3, [(0, 1), (1, 0), (1, 1), (1, 2)]);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.neighbors(1), &[0, 2]);
        assert!(!g.has_edge(1, 1));
    }

    #[test]
    fn path_distances_and_diameter() {
        let g = path(5);
        assert_eq!(g.hop_distance(0, 4), Some(4));
        assert_eq!(g.diameter(), Some(4));
        assert_eq!(g.eccentricity(2), Some(2));
    }

    #[test]
    fn disconnected_graph_reports_none() {
        let g = Graph::from_edges(4, [(0, 1), (2, 3)]);
        assert!(!g.is_connected());
        assert_eq!(g.hop_distance(0, 3), None);
        assert_eq!(g.diameter(), None);
    }

    #[test]
    fn neighborhood_includes_self() {
        let g = path(5);
        assert_eq!(g.neighborhood(2, 0), vec![2]);
        assert_eq!(g.neighborhood(2, 1), vec![1, 2, 3]);
        assert_eq!(g.neighborhood(0, 10), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let g0 = Graph::empty(0);
        assert!(g0.is_connected());
        assert_eq!(g0.diameter(), None);
        let g1 = Graph::empty(1);
        assert!(g1.is_connected());
        assert_eq!(g1.diameter(), Some(0));
    }

    #[test]
    fn edges_iterator_is_sorted_and_complete() {
        let g = Graph::from_edges(4, [(3, 0), (1, 2), (0, 1)]);
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 3), (1, 2)]);
    }

    #[test]
    fn induced_subgraph_renumbers() {
        let g = Graph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        let sub = g.induced_subgraph(&[0, 1, 2]);
        assert_eq!(sub.len(), 3);
        let edges: Vec<_> = sub.edges().collect();
        assert_eq!(edges, vec![(0, 1), (1, 2)]);
    }

    #[test]
    #[should_panic(expected = "duplicate node")]
    fn induced_subgraph_rejects_duplicates() {
        let g = path(3);
        let _ = g.induced_subgraph(&[0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn from_edges_rejects_out_of_range() {
        let _ = Graph::from_edges(2, [(0, 2)]);
    }

    #[test]
    fn max_degree_of_star() {
        let g = Graph::from_edges(5, (1..5).map(|i| (0, i)));
        assert_eq!(g.max_degree(), 4);
        assert_eq!(g.degree(0), 4);
        assert_eq!(g.degree(1), 1);
    }

    /// The diameter by one BFS per node: the oracle for
    /// [`Graph::diameter`].
    fn naive_diameter(g: &Graph) -> Option<u32> {
        if g.is_empty() {
            return None;
        }
        let mut diam = 0;
        for v in 0..g.len() {
            diam = diam.max(g.eccentricity(v)?);
        }
        Some(diam)
    }

    /// Checks `g`'s diameter against the oracle on a fresh memo.
    fn assert_diameter_matches(g: &Graph) {
        let fresh = Graph::from_edges(g.len(), g.edges());
        assert_eq!(fresh.diameter(), naive_diameter(g), "{g:?}");
    }

    #[test]
    fn diameter_matches_oracle_on_shaped_graphs() {
        let sizes = [0, 1, 2, 3, 5, 64, 511, 512, 513, 1025];
        for &n in &sizes {
            let pairs = move || (0..n).flat_map(move |a| (a + 1..n).map(move |b| (a, b)));
            assert_diameter_matches(&path(n));
            assert_diameter_matches(&Graph::from_edges(n, (0..n).map(|i| (i, (i + 1) % n))));
            assert_diameter_matches(&Graph::from_edges(n, (1..n).map(|i| (0, i))));
            assert_diameter_matches(&Graph::empty(n));
            if n <= 64 {
                assert_diameter_matches(&Graph::from_edges(n, pairs()));
            }
            // Two paths side by side: two components for n ≥ 2.
            assert_diameter_matches(&Graph::from_edges(
                n,
                (0..n.saturating_sub(2)).map(|i| (i, i + 2)),
            ));
            // A path plus one isolated node.
            assert_diameter_matches(&Graph::from_edges(
                n + 1,
                (0..n.saturating_sub(1)).map(|i| (i, i + 1)),
            ));
        }
        for (w, h) in [(1, 1), (2, 3), (23, 23), (40, 30), (600, 2)] {
            let id = |x: usize, y: usize| y * w + x;
            let right = (0..h).flat_map(|y| (1..w).map(move |x| (id(x - 1, y), id(x, y))));
            let down = (1..h).flat_map(|y| (0..w).map(move |x| (id(x, y - 1), id(x, y))));
            let grid = Graph::from_edges(w * h, right.chain(down));
            assert_eq!(grid.diameter(), Some((w + h - 2) as u32));
            assert_diameter_matches(&grid);
        }
    }

    #[test]
    fn clones_share_the_diameter_memo() {
        let g = path(600);
        let copy = g.clone();
        assert!(g.diameter.get().is_none());
        assert_eq!(copy.diameter(), Some(599));
        assert_eq!(g.diameter.get(), Some(&Some(599)));
        assert!(Arc::ptr_eq(&g.diameter, &copy.diameter));
    }

    use proptest::prelude::*;

    /// A random graph on up to ~1,300 nodes, so the 512-source batches
    /// split unevenly: a random tree whose parent links reach back at
    /// most `depth` ids (short reaches give long paths), plus `extra`
    /// random edges, minus the tree links of the `cut` nodes, which may
    /// disconnect it.
    fn random_graph() -> impl Strategy<Value = Graph> {
        (0usize..1300, 1usize..64, 0usize..600, 0usize..3).prop_flat_map(
            |(n, depth, extra, cut)| {
                let ids = 0..n.max(1) as u64;
                let extra = if n == 0 { 0 } else { extra };
                (
                    prop::collection::vec(0..u64::MAX, n),
                    prop::collection::vec((ids.clone(), ids.clone()), extra),
                    prop::collection::vec(ids, cut),
                )
                    .prop_map(move |(reach, chords, cuts)| {
                        let tree = (1..n)
                            .filter(|i| !cuts.contains(&(*i as u64)))
                            .map(|i| (i, i - 1 - (reach[i] % depth as u64) as usize % i));
                        let chords = chords.into_iter().map(|(a, b)| (a as usize, b as usize));
                        Graph::from_edges(n, tree.chain(chords))
                    })
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn diameter_matches_oracle_on_random_graphs(g in random_graph()) {
            assert_diameter_matches(&g);
        }

        #[test]
        fn diameter_matches_oracle_on_unit_disk_graphs(
            n in 2usize..900,
            spread in 1.6f64..4.0,
            radius in 2.5f64..7.0,
            seed in 0u64..u64::MAX,
        ) {
            let side = (n as f64).sqrt() * spread;
            let positions = sinr_geom::deploy::uniform(n, side, seed).unwrap();
            assert_diameter_matches(&crate::induce_graph(&positions, radius));
        }
    }
}
