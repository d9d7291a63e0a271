//! Spanning-forest clustering (§8.3).
//!
//! Phase 1: every node picks, among neighbors with a *smaller id* (the
//! partial order that guarantees a forest), the one with the smallest
//! feature distance as its parent. Phase 2: heights propagate leaves-up;
//! `height(p)` upper-bounds the feature distance from `p` to any leaf of its
//! cluster subtree, and when a new child's contribution `h = height(c) +
//! d(F_c, F_p)` would let two leaves exceed δ (`h + height(p) > δ`), the
//! child with the larger contribution is detached and roots a new cluster.
//!
//! Message bill (O(N), as the paper states): one feature broadcast per node
//! (phase 1 needs neighbor features), one parent notification per non-root,
//! one `(height, feature)` report per non-root, one detach instruction per
//! detachment.

use crate::BaselineOutcome;
use elink_core::Clustering;
use elink_metric::{Feature, Metric};
use elink_netsim::CostBook;
use elink_topology::{NodeId, Topology};

/// Runs the two-phase spanning-forest clustering.
pub fn spanning_forest_clustering(
    topology: &Topology,
    features: &[Feature],
    metric: &dyn Metric,
    delta: f64,
) -> BaselineOutcome {
    let n = topology.n();
    assert_eq!(features.len(), n);
    let graph = topology.graph();
    let mut stats = CostBook::new();
    let dim = features.first().map_or(1, Feature::scalar_cost);

    // Phase 1 — feature exchange + parent selection.
    for v in 0..n {
        stats.record("sf_feature_bcast", graph.degree(v) as u64, dim);
    }
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    for v in 0..n {
        let best = graph
            .neighbors(v)
            .iter()
            .map(|&w| w as usize)
            .filter(|&w| w < v)
            .map(|w| (w, metric.distance(&features[v], &features[w])))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)));
        if let Some((w, _)) = best {
            parent[v] = Some(w);
            stats.record("sf_parent_notify", 1, 1);
        }
    }

    // Children lists, and a leaves-up (reverse topological) order. Parents
    // always have smaller ids than children, so descending id order works.
    let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for (v, p) in parent.iter().enumerate() {
        if let Some(p) = *p {
            children[p].push(v);
        }
    }

    // Phase 2 — height aggregation with detachment. `detached[v]` marks v as
    // the root of a freshly carved cluster.
    let mut height = vec![0.0_f64; n];
    let mut highest_child: Vec<Option<NodeId>> = vec![None; n];
    let mut detached = vec![false; n];
    for p in (0..n).rev() {
        // Children have larger ids than p, so their heights are final.
        let kids: Vec<NodeId> = children[p].clone();
        for c in kids {
            // Every child reports its height and feature one hop up.
            stats.record("sf_height_report", 1, 1 + dim);
            let h = height[c] + metric.distance(&features[c], &features[p]);
            if h + height[p] > delta {
                // Detach the larger contributor.
                if h >= height[p] {
                    detached[c] = true;
                    stats.record("sf_detach", 1, 1);
                } else {
                    let old = highest_child[p].expect("height > 0 implies a highest child");
                    detached[old] = true;
                    stats.record("sf_detach", 1, 1);
                    height[p] = h;
                    highest_child[p] = Some(c);
                }
            } else if h > height[p] {
                height[p] = h;
                highest_child[p] = Some(c);
            }
        }
    }

    // Resolve cluster roots: follow parents until a forest root or a
    // detached node.
    let mut root_of = vec![usize::MAX; n];
    fn resolve(
        v: usize,
        parent: &[Option<NodeId>],
        detached: &[bool],
        root_of: &mut [usize],
    ) -> usize {
        if root_of[v] != usize::MAX {
            return root_of[v];
        }
        let r = match parent[v] {
            None => v,
            Some(_) if detached[v] => v,
            Some(p) => resolve(p, parent, detached, root_of),
        };
        root_of[v] = r;
        r
    }
    for v in 0..n {
        resolve(v, &parent, &detached, &mut root_of);
    }

    let states: Vec<(NodeId, Feature)> = (0..n)
        .map(|v| (root_of[v], features[root_of[v]].clone()))
        .collect();
    let clustering = Clustering::from_node_states(&states, topology, metric);
    BaselineOutcome {
        clustering,
        costs: stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elink_core::validate_delta_clustering;
    use elink_metric::Absolute;

    fn features(vals: &[f64]) -> Vec<Feature> {
        vals.iter().map(|&v| Feature::scalar(v)).collect()
    }

    #[test]
    fn uniform_features_form_one_cluster() {
        let topo = Topology::grid(3, 3);
        let f = features(&[5.0; 9]);
        let out = spanning_forest_clustering(&topo, &f, &Absolute, 1.0);
        assert_eq!(out.clustering.cluster_count(), 1);
        validate_delta_clustering(&out.clustering, &topo, &f, &Absolute, 1.0).unwrap();
    }

    #[test]
    fn two_zones_split() {
        let topo = Topology::grid(1, 6);
        let f = features(&[0.0, 0.2, 0.1, 9.0, 9.1, 9.2]);
        let out = spanning_forest_clustering(&topo, &f, &Absolute, 1.0);
        assert_eq!(out.clustering.cluster_count(), 2);
        validate_delta_clustering(&out.clustering, &topo, &f, &Absolute, 1.0).unwrap();
    }

    #[test]
    fn chain_of_drifting_values_is_carved() {
        // Values drift by 0.4 per hop; δ = 1.0 allows ~3 nodes per cluster.
        let topo = Topology::grid(1, 10);
        let vals: Vec<f64> = (0..10).map(|i| 0.4 * i as f64).collect();
        let f = features(&vals);
        let out = spanning_forest_clustering(&topo, &f, &Absolute, 1.0);
        validate_delta_clustering(&out.clustering, &topo, &f, &Absolute, 1.0).unwrap();
        let k = out.clustering.cluster_count();
        assert!(
            (3..=6).contains(&k),
            "expected moderate fragmentation, got {k}"
        );
    }

    #[test]
    fn message_cost_is_linear_in_n() {
        let mut prev: Option<(u64, usize)> = None;
        for side in [6usize, 12, 24] {
            let topo = Topology::grid(side, side);
            let f = features(&vec![1.0; side * side]);
            let out = spanning_forest_clustering(&topo, &f, &Absolute, 1.0);
            let cost = out.costs.total_cost();
            if let Some((prev_cost, prev_n)) = prev {
                let ratio = cost as f64 / prev_cost as f64;
                let n_ratio = (side * side) as f64 / prev_n as f64;
                assert!(ratio < 1.3 * n_ratio, "superlinear growth {ratio}");
            }
            prev = Some((cost, side * side));
        }
    }

    #[test]
    fn detachment_respects_delta_strictly() {
        // Adversarial: a star where the center is between two far leaves.
        let g = elink_topology::CommGraph::from_edges(3, [(0, 1), (0, 2)]);
        let topo = Topology::from_parts(
            vec![
                elink_topology::Point::new(0.0, 0.0),
                elink_topology::Point::new(1.0, 0.0),
                elink_topology::Point::new(0.0, 1.0),
            ],
            g,
            elink_topology::Rect::new(-0.5, -0.5, 1.5, 1.5),
        );
        let f = features(&[0.0, 3.0, -3.0]);
        // Leaves are 6 apart: must not share a cluster at δ = 4.
        let out = spanning_forest_clustering(&topo, &f, &Absolute, 4.0);
        validate_delta_clustering(&out.clustering, &topo, &f, &Absolute, 4.0).unwrap();
        assert!(out.clustering.cluster_count() >= 2);
    }
}
