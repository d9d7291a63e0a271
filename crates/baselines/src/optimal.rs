//! Exact minimum δ-clustering by exhaustive search.
//!
//! Theorem 1 shows δ-clustering is NP-complete and inapproximable, so no
//! polynomial algorithm exists — but small instances can be solved exactly
//! by memoized search over connected, δ-compact subsets. Tests use this as
//! the quality yardstick (e.g. the Fig 3 worked example) and to measure how
//! far the heuristics are from optimal.

use elink_metric::{Feature, Metric};
use elink_topology::Topology;
use std::collections::HashMap; // simlint: allow(no-unordered-iteration): u64-keyed lookup-only memo; iteration order is never observed and nothing here reaches the wire

/// Maximum instance size; the search is exponential.
const MAX_N: usize = 20;

/// Computes the minimum number of δ-clusters for a (tiny) instance.
///
/// # Panics
/// Panics if the instance exceeds 20 nodes.
pub fn optimal_cluster_count(
    topology: &Topology,
    features: &[Feature],
    metric: &dyn Metric,
    delta: f64,
) -> usize {
    let n = topology.n();
    assert!(n <= MAX_N, "optimal search limited to {MAX_N} nodes");
    assert_eq!(features.len(), n);

    // Precompute pairwise δ-compatibility and adjacency as bitmasks.
    let mut compat = vec![0u32; n];
    let mut adj = vec![0u32; n];
    for i in 0..n {
        for j in 0..n {
            if i != j && metric.distance(&features[i], &features[j]) <= delta {
                compat[i] |= 1 << j;
            }
        }
        for &w in topology.graph().neighbors(i) {
            adj[i] |= 1 << w;
        }
    }

    let full: u32 = if n == 32 { u32::MAX } else { (1 << n) - 1 };
    // simlint: allow(no-unordered-iteration): lookup-only memo, order never observed
    let mut memo: HashMap<u32, usize> = HashMap::new();
    solve(full, &compat, &adj, &mut memo)
}

/// Minimum clusters covering `remaining` (memoized).
// simlint: allow(no-unordered-iteration): lookup-only memo parameter, order never observed
fn solve(remaining: u32, compat: &[u32], adj: &[u32], memo: &mut HashMap<u32, usize>) -> usize {
    if remaining == 0 {
        return 0;
    }
    if let Some(&v) = memo.get(&remaining) {
        return v;
    }
    let first = remaining.trailing_zeros() as usize;
    // Enumerate all connected δ-compact subsets of `remaining` containing
    // `first`, by BFS over "add one compatible adjacent node" moves.
    let mut best = usize::MAX;
    let mut stack = vec![1u32 << first];
    // simlint: allow(no-unordered-iteration): membership-only dedup set, order never observed
    let mut seen: std::collections::HashSet<u32> = stack.iter().copied().collect();
    while let Some(set) = stack.pop() {
        // Try this subset as one cluster.
        let sub = solve(remaining & !set, compat, adj, memo);
        best = best.min(1 + sub);
        // Extensions: nodes in `remaining`, adjacent to the set, compatible
        // with every member.
        let mut frontier = 0u32;
        for v in iter_bits(set) {
            frontier |= adj[v];
        }
        frontier &= remaining & !set;
        for cand in iter_bits(frontier) {
            if iter_bits(set).all(|m| compat[m] & (1 << cand) != 0) {
                let next = set | (1 << cand);
                if seen.insert(next) {
                    stack.push(next);
                }
            }
        }
    }
    memo.insert(remaining, best);
    best
}

fn iter_bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            None
        } else {
            let b = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some(b)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use elink_metric::{Absolute, DistanceMatrix, TableMetric};

    fn features(vals: &[f64]) -> Vec<Feature> {
        vals.iter().map(|&v| Feature::scalar(v)).collect()
    }

    #[test]
    fn single_cluster_when_all_compatible() {
        let topo = Topology::grid(2, 3);
        let f = features(&[1.0; 6]);
        assert_eq!(optimal_cluster_count(&topo, &f, &Absolute, 0.5), 1);
    }

    #[test]
    fn all_singletons_when_nothing_compatible() {
        let topo = Topology::grid(1, 4);
        let f = features(&[0.0, 10.0, 20.0, 30.0]);
        assert_eq!(optimal_cluster_count(&topo, &f, &Absolute, 1.0), 4);
    }

    #[test]
    fn paper_fig3_example_needs_two_clusters() {
        // Fig 3: a 5-node communication graph where c–e and c–d exceed δ=5;
        // the two minimal clusterings have exactly 2 clusters.
        // Graph: a-b, b-c, b-d, c-d, d-e, c-e (a chain into a diamond).
        let edges = [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (2, 4)];
        let g = elink_topology::CommGraph::from_edges(5, edges);
        let positions = (0..5)
            .map(|i| elink_topology::Point::new(i as f64, 0.0))
            .collect();
        let topo = Topology::from_parts(
            positions,
            g,
            elink_topology::Rect::new(-0.5, -0.5, 5.0, 0.5),
        );
        // Distance matrix: make c (node 2) incompatible with d (3), e (4).
        let mut dm = DistanceMatrix::zeros(5);
        for i in 0..5u32 {
            for j in (i + 1)..5 {
                dm.set(i as usize, j as usize, 2.0);
            }
        }
        dm.set(2, 4, 6.0);
        dm.set(2, 3, 6.0);
        let metric = TableMetric::new(dm);
        let f: Vec<Feature> = (0..5).map(|i| Feature::scalar(i as f64)).collect();
        assert_eq!(optimal_cluster_count(&topo, &f, &metric, 5.0), 2);
    }

    #[test]
    fn connectivity_forces_extra_clusters() {
        // Path 0-1-2 with compatible ends but incompatible middle: the ends
        // cannot form one cluster because the subgraph {0,2} is disconnected.
        let topo = Topology::grid(1, 3);
        let f = features(&[0.0, 100.0, 0.5]);
        assert_eq!(optimal_cluster_count(&topo, &f, &Absolute, 1.0), 3);
    }

    #[test]
    fn heuristics_never_beat_optimal() {
        use crate::hierarchical::hierarchical_clustering;
        use crate::spanning_forest::spanning_forest_clustering;
        let data = elink_datasets::TerrainDataset::generate(12, 4, 0.55, 17);
        let f = data.features();
        for delta in [200.0, 500.0, 900.0] {
            let opt = optimal_cluster_count(data.topology(), &f, &Absolute, delta);
            let sf = spanning_forest_clustering(data.topology(), &f, &Absolute, delta)
                .clustering
                .cluster_count();
            let hier = hierarchical_clustering(data.topology(), &f, &Absolute, delta)
                .clustering
                .cluster_count();
            assert!(sf >= opt, "spanning forest {sf} beat optimal {opt}");
            assert!(hier >= opt, "hierarchical {hier} beat optimal {opt}");
        }
    }

    #[test]
    #[should_panic(expected = "limited")]
    fn oversized_instance_panics() {
        let topo = Topology::grid(5, 5);
        let f = features(&[0.0; 25]);
        let _ = optimal_cluster_count(&topo, &f, &Absolute, 1.0);
    }
}
