//! The distributed M-tree over cluster trees (§7.1).
//!
//! "An index at node i maintains a routing feature `F_i^R` and a covering
//! radius `R_i` such that the feature of every node in the subtree rooted at
//! i is within distance `R_i` from `F_i^R`. A leaf propagates `F_i^R = F_i`
//! and `R_i = 0` to its parent; the parent uses its own feature and the
//! information from all its children to compute its own routing feature and
//! covering radius," recursively to the cluster root.

use elink_core::Clustering;
use elink_metric::{Feature, Metric};
use elink_netsim::CostBook;
use elink_topology::NodeId;

/// Outcome of the M-tree descent test for one child subtree (§7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DescendDecision {
    /// No subtree member can match: skip the child entirely.
    Prune,
    /// Every subtree member matches: take the whole subtree, no descent.
    IncludeAll,
    /// Undecided: descend into the child.
    Descend,
}

/// The triangle-inequality descent test of §7.1, as a pure function shared
/// by the analytic descent in [`range`](crate::range) and the distributed
/// serving protocol in `elink-workload`.
///
/// `d_node` is `d(q, F_i)` at the parent, `d_pc` is `d(F_i, F_j)` to the
/// child, `r` the query radius and `r_child` the child's covering radius:
///
/// * prune when `|d_node − d_pc| > r + r_child` (no member can match),
/// * include the whole subtree when `d_node + d_pc ≤ r − r_child`,
/// * otherwise descend.
pub fn descend_decision(d_node: f64, d_pc: f64, r: f64, r_child: f64) -> DescendDecision {
    if (d_node - d_pc).abs() > r + r_child {
        DescendDecision::Prune
    } else if d_node + d_pc <= r - r_child {
        DescendDecision::IncludeAll
    } else {
        DescendDecision::Descend
    }
}

/// Per-node M-tree state for an entire clustering.
#[derive(Debug, Clone)]
pub struct DistributedIndex {
    /// Routing feature per node (`F_i^R = F_i` in the paper's scheme).
    routing_feature: Vec<Feature>,
    /// Covering radius per node.
    covering_radius: Vec<f64>,
    /// Children lists of the cluster trees (shared with query descent).
    children: Vec<Vec<NodeId>>,
}

impl DistributedIndex {
    /// Builds the index bottom-up over every cluster tree, charging one
    /// `(feature, radius)` report per non-root node (the convergecast the
    /// paper describes).
    pub fn build(
        clustering: &Clustering,
        features: &[Feature],
        metric: &dyn Metric,
    ) -> (DistributedIndex, CostBook) {
        let n = clustering.n();
        assert_eq!(features.len(), n);
        let children = clustering.tree_children();
        let mut covering_radius = vec![0.0_f64; n];
        let mut stats = CostBook::new();
        let dim = features.first().map_or(1, Feature::scalar_cost);

        // Depths as a dense column in O(n): memoized parent-chain walks
        // (each node is labelled exactly once) instead of one
        // root-to-leaf walk per node.
        let mut depths = vec![u32::MAX; n];
        let mut chain: Vec<NodeId> = Vec::new();
        for v in 0..n {
            let mut cur = v;
            while depths[cur] == u32::MAX {
                match clustering.tree_parent[cur] {
                    Some(p) => {
                        chain.push(cur);
                        cur = p;
                    }
                    None => depths[cur] = 0,
                }
            }
            let mut d = depths[cur];
            while let Some(x) = chain.pop() {
                d += 1;
                depths[x] = d;
            }
        }

        // Process nodes deepest-first so children finish before parents
        // (ties in ascending id order, as before).
        let mut order: Vec<NodeId> = (0..n).collect();
        order.sort_unstable_by_key(|&v| (std::cmp::Reverse(depths[v]), v));
        for &v in &order {
            let mut r = 0.0_f64;
            for &c in &children[v] {
                let d = metric.distance(&features[v], &features[c]);
                r = r.max(d + covering_radius[c]);
            }
            covering_radius[v] = r;
            // Non-roots report (F^R, R) one hop up the cluster tree.
            if clustering.tree_parent[v].is_some() {
                stats.record("index_build", 1, dim + 1);
            }
        }
        (
            DistributedIndex {
                routing_feature: features.to_vec(),
                covering_radius,
                children,
            },
            stats,
        )
    }

    /// The routing feature of a node.
    pub fn routing_feature(&self, v: NodeId) -> &Feature {
        &self.routing_feature[v]
    }

    /// The covering radius of a node.
    pub fn covering_radius(&self, v: NodeId) -> f64 {
        self.covering_radius[v]
    }

    /// Children of a node in its cluster tree.
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        &self.children[v]
    }

    /// All nodes in the cluster subtree rooted at `v` (including `v`).
    pub fn subtree(&self, v: NodeId) -> Vec<NodeId> {
        let mut out = vec![v];
        let mut stack = vec![v];
        while let Some(x) = stack.pop() {
            for &c in &self.children[x] {
                out.push(c);
                stack.push(c);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elink_metric::Absolute;
    use elink_topology::Topology;

    /// Path 0-1-2-3 all in one cluster rooted at 0, features 0,1,2,3.
    fn setup() -> (Clustering, Vec<Feature>, Topology) {
        let topo = Topology::grid(1, 4);
        let features: Vec<Feature> = (0..4).map(|v| Feature::scalar(v as f64)).collect();
        let states: Vec<(NodeId, Feature)> = (0..4).map(|_| (0, Feature::scalar(0.0))).collect();
        let clustering = elink_core::Clustering::from_node_states(&states, &topo, &Absolute);
        (clustering, features, topo)
    }

    #[test]
    fn covering_radii_on_a_path() {
        let (clustering, features, _) = setup();
        let (index, _) = DistributedIndex::build(&clustering, &features, &Absolute);
        // Leaf 3: R = 0. Node 2: d(2,3)+0 = 1. Node 1: d(1,2)+1 = 2.
        // Root 0: d(0,1)+2 = 3.
        assert_eq!(index.covering_radius(3), 0.0);
        assert_eq!(index.covering_radius(2), 1.0);
        assert_eq!(index.covering_radius(1), 2.0);
        assert_eq!(index.covering_radius(0), 3.0);
    }

    #[test]
    fn invariant_every_subtree_member_within_radius() {
        // Randomized clusters from a real ELink run.
        let data = elink_datasets::TerrainDataset::generate(150, 6, 0.55, 3);
        let features = data.features();
        let net = elink_netsim::SimNetwork::new(data.topology().clone());
        let outcome = elink_core::run_implicit(
            &net,
            &features,
            std::sync::Arc::new(Absolute),
            elink_core::ElinkConfig::for_delta(300.0),
        );
        let (index, _) = DistributedIndex::build(&outcome.clustering, &features, &Absolute);
        for v in 0..features.len() {
            for m in index.subtree(v) {
                let d = Absolute.distance(index.routing_feature(v), &features[m]);
                assert!(
                    d <= index.covering_radius(v) + 1e-9,
                    "member {m} at {d} outside radius {} of {v}",
                    index.covering_radius(v)
                );
            }
        }
    }

    #[test]
    fn build_cost_one_report_per_non_root() {
        let (clustering, features, _) = setup();
        let (_, stats) = DistributedIndex::build(&clustering, &features, &Absolute);
        // 3 non-roots × (1 feature scalar + 1 radius) = 6.
        assert_eq!(stats.kind("index_build").packets, 3);
        assert_eq!(stats.kind("index_build").cost, 6);
    }

    #[test]
    fn descend_decision_trichotomy() {
        // d_node = 10, d_pc = 4 → |diff| = 6, sum = 14.
        assert_eq!(
            descend_decision(10.0, 4.0, 3.0, 2.0),
            DescendDecision::Prune
        );
        assert_eq!(
            descend_decision(10.0, 4.0, 20.0, 2.0),
            DescendDecision::IncludeAll
        );
        assert_eq!(
            descend_decision(10.0, 4.0, 7.0, 2.0),
            DescendDecision::Descend
        );
        // Boundary: |diff| exactly r + r_child is NOT pruned (inclusive
        // match convention), sum exactly r − r_child IS fully included.
        assert_eq!(
            descend_decision(6.0, 2.0, 3.0, 1.0),
            DescendDecision::Descend
        );
        assert_eq!(
            descend_decision(1.0, 1.0, 3.0, 1.0),
            DescendDecision::IncludeAll
        );
    }

    #[test]
    fn subtree_enumeration() {
        let (clustering, features, _) = setup();
        let (index, _) = DistributedIndex::build(&clustering, &features, &Absolute);
        let mut s = index.subtree(1);
        s.sort_unstable();
        assert_eq!(s, vec![1, 2, 3]);
        assert_eq!(index.subtree(3), vec![3]);
    }
}
