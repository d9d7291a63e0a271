//! Distributed hierarchical clustering (§8.3).
//!
//! Clusters start as singletons and merge bottom-up: spatially neighboring
//! clusters `C_i`, `C_j` are merge candidates when
//! `m_i + d(F_{r_i}, F_{r_j}) + m_j ≤ δ` (where `m` is the covering radius
//! around the cluster root — the triangle inequality then bounds every
//! inter-cluster pair by δ, and intra-pairs are ≤ δ by induction). The
//! *fitness* of a candidate merger is the merged radius
//! `m_ij = max(m_big, m_small + d)`; a pair merges when each is the other's
//! minimum-fitness candidate. Rounds repeat until no merger is possible.
//!
//! Message accounting follows the paper's complexity discussion ("every
//! merger decision has to be propagated to the cluster leader", O(N²)
//! total): each round, every neighboring cluster pair exchanges root
//! feature + radius between their roots (shortest-path hops each way), and
//! every executed merger notifies the absorbed cluster's members.

use crate::BaselineOutcome;
use elink_core::Clustering;
use elink_metric::{Feature, Metric};
use elink_netsim::CostBook;
use elink_topology::{NodeId, RoutingTable, Topology};
use std::collections::BTreeMap;

/// Runs distributed hierarchical merging to a fixpoint.
pub fn hierarchical_clustering(
    topology: &Topology,
    features: &[Feature],
    metric: &dyn Metric,
    delta: f64,
) -> BaselineOutcome {
    hierarchical_clustering_with_routing(topology, features, metric, delta, None)
}

/// As [`hierarchical_clustering`], reusing a prebuilt routing table:
/// building one runs a BFS wave from every node ([`RoutingTable::build`]),
/// and experiments sweep many δ values, or build query backbones, on one
/// topology.
pub fn hierarchical_clustering_with_routing(
    topology: &Topology,
    features: &[Feature],
    metric: &dyn Metric,
    delta: f64,
    routing: Option<&RoutingTable>,
) -> BaselineOutcome {
    let n = topology.n();
    assert_eq!(features.len(), n);
    let owned_routing;
    let routing = match routing {
        Some(r) => r,
        None => {
            owned_routing = RoutingTable::build(topology.graph());
            &owned_routing
        }
    };
    let graph = topology.graph();
    let mut stats = CostBook::new();
    let dim = features.first().map_or(1, Feature::scalar_cost);

    // Cluster state, keyed by representative (root) node.
    let mut cluster_of: Vec<usize> = (0..n).collect();
    let mut root: BTreeMap<usize, NodeId> = (0..n).map(|v| (v, v)).collect();
    let mut radius: BTreeMap<usize, f64> = (0..n).map(|v| (v, 0.0)).collect();
    let mut size: BTreeMap<usize, usize> = (0..n).map(|v| (v, 1)).collect();

    loop {
        // Neighboring cluster pairs (some communication edge between them).
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for v in 0..n {
            for &w in graph.neighbors(v) {
                let (a, b) = (cluster_of[v], cluster_of[w as usize]);
                if a < b {
                    pairs.push((a, b));
                }
            }
        }
        pairs.sort_unstable();
        pairs.dedup();
        if pairs.is_empty() {
            break;
        }

        // Fitness evaluation: roots exchange (feature, radius) both ways.
        let mut best: BTreeMap<usize, (f64, usize)> = BTreeMap::new();
        for &(a, b) in &pairs {
            let (ra, rb) = (root[&a], root[&b]);
            let hops = routing.hops(ra, rb).unwrap_or(0) as u64;
            stats.record("hier_candidate", 2 * hops, dim + 1);
            let d = metric.distance(&features[ra], &features[rb]);
            let (ma, mb) = (radius[&a], radius[&b]);
            if ma + d + mb > delta {
                continue; // rule each other out (§8.3)
            }
            let fitness = if ma >= mb {
                ma.max(mb + d)
            } else {
                mb.max(ma + d)
            };
            for (me, other) in [(a, b), (b, a)] {
                let entry = best.entry(me).or_insert((f64::INFINITY, usize::MAX));
                if fitness < entry.0 || (fitness == entry.0 && other < entry.1) {
                    *entry = (fitness, other);
                }
            }
        }

        // Mutual best candidates merge.
        let mut merged_any = false;
        let mut absorbed: Vec<(usize, usize)> = Vec::new(); // (winner, loser)
        for (&me, &(_, cand)) in &best {
            if cand == usize::MAX || me >= cand {
                continue;
            }
            if best.get(&cand).map(|&(_, c)| c) == Some(me) {
                absorbed.push((me, cand));
            }
        }
        for (a, b) in absorbed {
            // Both may have merged already this round via another pair id —
            // ids here are distinct cluster keys, and each cluster has one
            // best candidate, so (a, b) pairs are disjoint.
            let (ra, rb) = (root[&a], root[&b]);
            let d = metric.distance(&features[ra], &features[rb]);
            let (ma, mb) = (radius[&a], radius[&b]);
            // Keep the root of the larger-radius side (fewer re-labels).
            let (winner, loser, new_radius) = if ma >= mb {
                (a, b, ma.max(mb + d))
            } else {
                (b, a, mb.max(ma + d))
            };
            // Merge notification: the absorbed members learn their new root
            // feature (one tree edge per member, carrying the feature).
            stats.record("hier_merge", size[&loser] as u64, dim);
            for c in cluster_of.iter_mut() {
                if *c == loser {
                    *c = winner;
                }
            }
            let loser_size = size[&loser];
            *size.get_mut(&winner).unwrap() += loser_size;
            *radius.get_mut(&winner).unwrap() = new_radius;
            root.remove(&loser);
            radius.remove(&loser);
            size.remove(&loser);
            merged_any = true;
        }
        if !merged_any {
            break;
        }
    }

    let states: Vec<(NodeId, Feature)> = (0..n)
        .map(|v| {
            let r = root[&cluster_of[v]];
            (r, features[r].clone())
        })
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
    fn merges_uniform_grid_fully() {
        let topo = Topology::grid(4, 4);
        let f = features(&[2.0; 16]);
        let out = hierarchical_clustering(&topo, &f, &Absolute, 0.5);
        assert_eq!(out.clustering.cluster_count(), 1);
        validate_delta_clustering(&out.clustering, &topo, &f, &Absolute, 0.5).unwrap();
    }

    #[test]
    fn respects_delta_two_zones() {
        let topo = Topology::grid(1, 6);
        let f = features(&[0.0, 0.3, 0.1, 7.0, 7.2, 7.1]);
        let out = hierarchical_clustering(&topo, &f, &Absolute, 1.0);
        assert_eq!(out.clustering.cluster_count(), 2);
        validate_delta_clustering(&out.clustering, &topo, &f, &Absolute, 1.0).unwrap();
    }

    #[test]
    fn beats_spanning_forest_on_spatially_correlated_data() {
        // §8.4: "The Hierarchical algorithm performs better than Spanning
        // forest, as it employs the fitness function to optimize the
        // diameter." This holds on spatially correlated data (it does NOT
        // hold on a worst-case monotone 1-D gradient, where the radius
        // bound is maximally conservative).
        for seed in 0..3 {
            let data = elink_datasets::TerrainDataset::generate(200, 6, 0.55, seed);
            let f = data.features();
            for delta in [200.0, 400.0] {
                let hier = hierarchical_clustering(data.topology(), &f, &Absolute, delta)
                    .clustering
                    .cluster_count();
                let sf = crate::spanning_forest::spanning_forest_clustering(
                    data.topology(),
                    &f,
                    &Absolute,
                    delta,
                )
                .clustering
                .cluster_count();
                assert!(hier <= sf, "seed {seed} δ {delta}: hier {hier} > sf {sf}");
            }
        }
    }

    #[test]
    fn always_valid_on_random_terrain() {
        let data = elink_datasets::TerrainDataset::generate(120, 6, 0.55, 4);
        let f = data.features();
        for delta in [100.0, 300.0, 700.0] {
            let out = hierarchical_clustering(data.topology(), &f, &Absolute, delta);
            validate_delta_clustering(&out.clustering, data.topology(), &f, &Absolute, delta)
                .unwrap();
        }
    }

    #[test]
    fn cost_grows_superlinearly_on_uniform_data() {
        // O(N²)-ish messaging is the paper's stated drawback.
        let costs: Vec<u64> = [4usize, 8, 16]
            .iter()
            .map(|&side| {
                let topo = Topology::grid(side, side);
                let f = features(&vec![1.0; side * side]);
                hierarchical_clustering(&topo, &f, &Absolute, 10.0)
                    .costs
                    .total_cost()
            })
            .collect();
        let r1 = costs[1] as f64 / costs[0] as f64;
        let r2 = costs[2] as f64 / costs[1] as f64;
        // Node count quadruples per step; cost should grow clearly faster
        // than linear (≥ 6×) in this full-merge regime.
        assert!(r1 > 6.0 && r2 > 6.0, "ratios {r1} {r2}");
    }

    #[test]
    fn singletons_when_nothing_mergeable() {
        let topo = Topology::grid(1, 4);
        let f = features(&[0.0, 10.0, 20.0, 30.0]);
        let out = hierarchical_clustering(&topo, &f, &Absolute, 1.0);
        assert_eq!(out.clustering.cluster_count(), 4);
        // No merges => candidate probes only.
        assert_eq!(out.costs.kind("hier_merge").cost, 0);
    }
}
