//! Dynamic cluster maintenance with slack (§6).
//!
//! After the initial clustering (performed at reduced threshold `δ − 2Δ`),
//! feature updates are absorbed locally whenever any of the slack conditions
//!
//! ```text
//! A₁: d(F_i, F'_i) ≤ Δ
//! A₂: d(F'_i, F_{r_i}) − d(F_i, F_{r_i}) ≤ Δ
//! A₃: d(F'_i, F_{r_i}) ≤ δ − Δ
//! ```
//!
//! holds (each implies, by the triangle inequality, that δ-compactness is
//! not violated). Only when all three fail does the node fetch the fresh
//! root feature up the cluster tree and possibly detach — merging with a
//! neighboring cluster whose root is within δ, or becoming a singleton.
//! Roots whose own feature drifts by more than Δ broadcast the new feature
//! down the tree.
//!
//! Fig 10/11 measure *message costs* and *cluster counts* of this process;
//! neither depends on event timing, so the maintenance simulator is a
//! deterministic state machine with explicit message accounting rather than
//! a netsim protocol (see DESIGN.md).

use crate::clustering::Clustering;
use elink_metric::{Feature, Metric};
use elink_netsim::CostBook;
use elink_topology::{NodeId, Topology};
use std::sync::Arc;

/// What happened when a node absorbed a feature update.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOutcome {
    /// One of A₁/A₂/A₃ held — no messages at all.
    LocalOnly,
    /// The root feature was re-fetched and the node stayed in its cluster.
    RefreshedAndStayed,
    /// The node detached and merged with a neighbor's cluster.
    Merged {
        /// The root of the cluster joined.
        new_root: NodeId,
    },
    /// The node detached and became a singleton cluster.
    Singleton,
    /// The update was at a cluster root and drifted beyond Δ: the new root
    /// feature was broadcast down the tree (some members may have detached).
    RootBroadcast {
        /// How many members detached as a result.
        detached: usize,
    },
}

/// Mutable maintenance state derived from an initial clustering.
pub struct MaintenanceSim {
    topology: Arc<Topology>,
    metric: Arc<dyn Metric>,
    delta: f64,
    slack: f64,
    /// Live feature per node.
    features: Vec<Feature>,
    /// Anchor (last synchronized) feature per node — `F_i` in A₁.
    anchor: Vec<Feature>,
    /// Root node per node.
    root_of: Vec<NodeId>,
    /// Cached root feature per node — `F_{r_i}` in A₂/A₃.
    cached_root_feature: Vec<Feature>,
    /// Cluster-tree parent (None at roots).
    tree_parent: Vec<Option<NodeId>>,
    /// Nodes that have crash-failed (excluded from clustering and updates).
    failed: Vec<bool>,
    stats: CostBook,
}

impl MaintenanceSim {
    /// Starts maintenance from an initial clustering (which should have been
    /// computed at `δ − 2Δ`, per §6) and the features it was computed on.
    pub fn new(
        clustering: &Clustering,
        topology: Arc<Topology>,
        metric: Arc<dyn Metric>,
        features: Vec<Feature>,
        delta: f64,
        slack: f64,
    ) -> MaintenanceSim {
        assert!(slack >= 0.0 && 2.0 * slack < delta, "need 0 ≤ 2Δ < δ");
        let n = topology.n();
        assert_eq!(features.len(), n);
        let root_of: Vec<usize> = (0..n).map(|v| clustering.root_of(v)).collect();
        let cached_root_feature: Vec<Feature> =
            root_of.iter().map(|&root| features[root].clone()).collect();
        MaintenanceSim {
            topology,
            metric,
            delta,
            slack,
            anchor: features.clone(),
            features,
            root_of,
            cached_root_feature,
            tree_parent: clustering.tree_parent.clone(),
            failed: vec![false; n],
            stats: CostBook::new(),
        }
    }

    /// Message statistics accumulated so far.
    pub fn costs(&self) -> &CostBook {
        &self.stats
    }

    /// Current number of clusters (failed nodes excluded).
    pub fn cluster_count(&self) -> usize {
        let mut roots: Vec<NodeId> = (0..self.root_of.len())
            .filter(|&v| !self.failed[v])
            .map(|v| self.root_of[v])
            .collect();
        roots.sort_unstable();
        roots.dedup();
        roots.len()
    }

    /// Whether a node has failed.
    pub fn is_failed(&self, node: NodeId) -> bool {
        self.failed[node]
    }

    /// Current root of a node.
    pub fn root_of(&self, node: NodeId) -> NodeId {
        self.root_of[node]
    }

    /// Hop depth of `node` in its cluster tree.
    fn tree_depth(&self, node: NodeId) -> u64 {
        let mut depth = 0;
        let mut cur = node;
        while let Some(p) = self.tree_parent[cur] {
            depth += 1;
            cur = p;
            if depth as usize > self.topology.n() {
                break; // defensive: corrupted tree
            }
        }
        depth
    }

    /// Absorbs a feature update at `node`, returning what happened and
    /// charging messages per the §6 protocol.
    pub fn update(&mut self, node: NodeId, new_feature: Feature) -> UpdateOutcome {
        assert!(!self.failed[node], "update from a failed node");
        let is_root = self.root_of[node] == node;
        if is_root {
            return self.update_at_root(node, new_feature);
        }
        let d_anchor = self.metric.distance(&self.anchor[node], &new_feature);
        let d_new_root = self
            .metric
            .distance(&new_feature, &self.cached_root_feature[node]);
        let d_old_root = self
            .metric
            .distance(&self.anchor[node], &self.cached_root_feature[node]);

        let a1 = d_anchor <= self.slack;
        let a2 = d_new_root - d_old_root <= self.slack;
        let a3 = d_new_root <= self.delta - self.slack;
        if a1 || a2 || a3 {
            self.features[node] = new_feature;
            return UpdateOutcome::LocalOnly;
        }

        // All conditions violated: fetch the fresh root feature — a request
        // up the cluster tree and the feature back down.
        let depth = self.tree_depth(node);
        let root = self.root_of[node];
        let dim = self.features[root].scalar_cost();
        self.stats.record("maint_fetch", depth, 1);
        self.stats.record("maint_fetch", depth, dim);
        let fresh_root_feature = self.features[root].clone();
        self.cached_root_feature[node] = fresh_root_feature.clone();

        let d = self.metric.distance(&new_feature, &fresh_root_feature);
        self.features[node] = new_feature.clone();
        if d <= self.delta {
            self.anchor[node] = new_feature;
            return UpdateOutcome::RefreshedAndStayed;
        }

        // Detach and try to merge with a neighbor's cluster (§6: merge with
        // neighbor k if d(F'_i, F_{r_k}) ≤ δ).
        self.detach(node);
        let neighbors: Vec<NodeId> = self
            .topology
            .graph()
            .neighbors(node)
            .iter()
            .map(|&w| w as usize)
            .collect();
        // Ask each neighbor for its root feature: 1 scalar out, dim back.
        for _ in &neighbors {
            self.stats.record("maint_merge", 1, 1);
            self.stats.record("maint_merge", 1, dim);
        }
        for &k in &neighbors {
            if self.failed[k] || self.root_of[k] == node {
                continue; // failed/own-subtree neighbors are not targets
            }
            let rk = self.root_of[k];
            let d_k = self.metric.distance(&new_feature, &self.features[rk]);
            if d_k <= self.delta {
                // Join under neighbor k; register with the root (path up k's
                // tree carrying the new member's feature).
                self.root_of[node] = rk;
                self.tree_parent[node] = Some(k);
                self.cached_root_feature[node] = self.features[rk].clone();
                self.anchor[node] = new_feature;
                let reg_hops = self.tree_depth(k) + 1;
                self.stats.record("maint_merge", reg_hops, dim);
                return UpdateOutcome::Merged { new_root: rk };
            }
        }
        self.anchor[node] = new_feature;
        UpdateOutcome::Singleton
    }

    /// Root-side update: drift beyond Δ triggers a broadcast of the new
    /// root feature down the tree; members re-evaluate and may detach.
    fn update_at_root(&mut self, root: NodeId, new_feature: Feature) -> UpdateOutcome {
        let drift = self.metric.distance(&self.anchor[root], &new_feature);
        self.features[root] = new_feature.clone();
        self.cached_root_feature[root] = new_feature.clone();
        if drift <= self.slack {
            return UpdateOutcome::LocalOnly;
        }
        self.anchor[root] = new_feature.clone();

        let members: Vec<NodeId> = (0..self.topology.n())
            .filter(|&v| v != root && !self.failed[v] && self.root_of[v] == root)
            .collect();
        if members.is_empty() {
            // A singleton root has no tree to notify; apply the §6 merge
            // rule instead — join a neighbor's cluster whose root is within
            // δ of the new feature (querying each neighbor for its root
            // feature, as in the member detach path).
            let dim = new_feature.scalar_cost();
            let neighbors: Vec<NodeId> = self
                .topology
                .graph()
                .neighbors(root)
                .iter()
                .map(|&w| w as usize)
                .collect();
            for _ in &neighbors {
                self.stats.record("maint_merge", 1, 1);
                self.stats.record("maint_merge", 1, dim);
            }
            for &k in &neighbors {
                if self.failed[k] {
                    continue;
                }
                let rk = self.root_of[k];
                if rk == root {
                    continue;
                }
                let d_k = self.metric.distance(&new_feature, &self.features[rk]);
                if d_k <= self.delta {
                    self.root_of[root] = rk;
                    self.tree_parent[root] = Some(k);
                    self.cached_root_feature[root] = self.features[rk].clone();
                    let reg_hops = self.tree_depth(k) + 1;
                    self.stats.record("maint_merge", reg_hops, dim);
                    return UpdateOutcome::Merged { new_root: rk };
                }
            }
            return UpdateOutcome::Singleton;
        }
        // Broadcast down the cluster tree, top-down: one transmission per
        // traversed tree edge, carrying the feature. A member that violates
        // δ against the new root feature detaches on the spot (its children
        // re-root their subtrees) and the broadcast does not continue below
        // it — mirroring the event-driven protocol exactly.
        let dim = new_feature.scalar_cost();
        let n = self.topology.n();
        let mut children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for &v in &members {
            if let Some(p) = self.tree_parent[v] {
                children[p].push(v);
            }
        }
        let mut detached = 0;
        let mut stack: Vec<NodeId> = children[root].clone();
        while let Some(v) = stack.pop() {
            self.stats.record("maint_root_bcast", 1, dim);
            self.cached_root_feature[v] = new_feature.clone();
            let d = self.metric.distance(&self.features[v], &new_feature);
            if d > self.delta {
                self.detach(v);
                detached += 1;
            } else {
                stack.extend(children[v].iter().copied());
            }
        }
        UpdateOutcome::RootBroadcast { detached }
    }

    /// Detaches `node` into a singleton (it may merge elsewhere right
    /// after, per §6). Each direct cluster-tree child of the departing node
    /// becomes the root of its own subtree cluster — the same
    /// re-organization as node failure, so followers never end up pointing
    /// at a root that has left (the invariant the property tests check).
    /// Costs: one control message to the old parent, plus one
    /// feature-carrying announcement per re-rooted subtree edge (kind
    /// `maint_detach`), matching [`crate::maintenance_protocol`].
    fn detach(&mut self, node: NodeId) {
        let old_root = self.root_of[node];
        // Tell the old tree parent to drop this child (one control message).
        if self.tree_parent[node].is_some() {
            self.stats.record("maint_detach", 1, 1);
        }
        self.tree_parent[node] = None;
        self.root_of[node] = node;
        self.cached_root_feature[node] = self.features[node].clone();
        if old_root == node {
            return;
        }
        let n = self.topology.n();
        let children: Vec<NodeId> = (0..n)
            .filter(|&v| !self.failed[v] && self.tree_parent[v] == Some(node))
            .collect();
        for &child in &children {
            self.tree_parent[child] = None;
            let dim = self.features[child].scalar_cost();
            let mut subtree_edges = 0u64;
            for v in 0..n {
                if v == child || self.failed[v] || self.root_of[v] != old_root {
                    continue;
                }
                let mut cur = v;
                let mut hops = 0;
                let through = loop {
                    if cur == child {
                        break true;
                    }
                    match self.tree_parent[cur] {
                        Some(p) if !self.failed[p] => {
                            cur = p;
                            hops += 1;
                            if hops > n {
                                break false;
                            }
                        }
                        _ => break false,
                    }
                };
                if through {
                    self.root_of[v] = child;
                    self.cached_root_feature[v] = self.features[child].clone();
                    subtree_edges += 1;
                }
            }
            self.root_of[child] = child;
            self.cached_root_feature[child] = self.features[child].clone();
            self.stats.record("maint_detach", subtree_edges + 1, dim);
        }
    }

    /// Crash-fails `node`: it stops participating (the §1 motivation —
    /// in-network operation must survive node loss without a central point
    /// of failure). Every cluster-tree child of the failed node detects the
    /// silence (a probe message each) and becomes the root of its own
    /// subtree cluster; the subtree members learn their new root feature
    /// (one message per tree edge). Returns the number of new clusters
    /// carved out of the failed node's cluster.
    pub fn fail_node(&mut self, node: NodeId) -> usize {
        assert!(!self.failed[node], "node already failed");
        let n = self.topology.n();
        let old_root = self.root_of[node];
        // Children of the failed node in the cluster tree.
        let children: Vec<NodeId> = (0..n)
            .filter(|&v| !self.failed[v] && self.tree_parent[v] == Some(node))
            .collect();
        self.failed[node] = true;
        self.tree_parent[node] = None;
        self.root_of[node] = node;

        let mut new_clusters = 0;
        for &child in &children {
            // Silence detection probe.
            self.stats.record("maint_fail_probe", 1, 1);
            // The child roots its own subtree: every member whose tree path
            // runs through `child` follows it.
            let dim = self.features[child].scalar_cost();
            self.tree_parent[child] = None;
            let mut subtree_size = 0u64;
            for v in 0..n {
                if self.failed[v] {
                    continue;
                }
                let mut cur = v;
                let mut hops = 0;
                let through = loop {
                    if cur == child {
                        break true;
                    }
                    match self.tree_parent[cur] {
                        Some(p) if !self.failed[p] => {
                            cur = p;
                            hops += 1;
                            if hops > n {
                                break false;
                            }
                        }
                        _ => break false,
                    }
                };
                if through {
                    self.root_of[v] = child;
                    self.cached_root_feature[v] = self.features[child].clone();
                    subtree_size += 1;
                }
            }
            // New-root announcement down the subtree (size − 1 tree edges).
            self.stats
                .record("maint_fail_reroot", subtree_size.saturating_sub(1), dim);
            new_clusters += 1;
        }
        // If the failed node was an interior member (not the root), the
        // remainder of the old cluster is intact and keeps its root; if it
        // *was* the root, each child subtree is now its own cluster.
        let _ = old_root;
        new_clusters
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::Clustering;
    use elink_metric::Absolute;

    /// 1×4 path, all in one cluster rooted at node 0, features all 10.0.
    fn setup(delta: f64, slack: f64) -> MaintenanceSim {
        let topo = Topology::grid(1, 4);
        let features: Vec<Feature> = (0..4).map(|_| Feature::scalar(10.0)).collect();
        let states: Vec<(NodeId, Feature)> = (0..4).map(|_| (0, Feature::scalar(10.0))).collect();
        let clustering = Clustering::from_node_states(&states, &topo, &Absolute);
        MaintenanceSim::new(
            &clustering,
            Arc::new(topo),
            Arc::new(Absolute),
            features,
            delta,
            slack,
        )
    }

    #[test]
    fn small_update_is_free() {
        let mut sim = setup(6.0, 1.0);
        let outcome = sim.update(2, Feature::scalar(10.5));
        assert_eq!(outcome, UpdateOutcome::LocalOnly);
        assert_eq!(sim.costs().total_cost(), 0);
    }

    #[test]
    fn a3_absorbs_moderate_update_without_messages() {
        // d(F', F_r) = 3.0 ≤ δ − Δ = 5 even though A1 fails (drift 3 > 1).
        let mut sim = setup(6.0, 1.0);
        let outcome = sim.update(2, Feature::scalar(13.0));
        assert_eq!(outcome, UpdateOutcome::LocalOnly);
        assert_eq!(sim.costs().total_cost(), 0);
    }

    #[test]
    fn large_update_fetches_root_and_stays_if_within_delta() {
        let mut sim = setup(6.0, 0.5);
        // d to root = 5.8 > δ − Δ = 5.5, drift 5.8 > Δ, growth > Δ: fetch.
        let outcome = sim.update(3, Feature::scalar(15.8));
        assert_eq!(outcome, UpdateOutcome::RefreshedAndStayed);
        assert!(sim.costs().total_cost() > 0);
        assert_eq!(sim.cluster_count(), 1);
    }

    #[test]
    fn divergent_update_detaches_into_singleton() {
        let mut sim = setup(6.0, 0.5);
        let outcome = sim.update(3, Feature::scalar(50.0));
        // Neighbors all share the old cluster whose root is far: singleton.
        assert_eq!(outcome, UpdateOutcome::Singleton);
        assert_eq!(sim.cluster_count(), 2);
        assert_eq!(sim.root_of(3), 3);
    }

    #[test]
    fn detached_node_can_merge_back_later() {
        let mut sim = setup(6.0, 0.5);
        assert_eq!(
            sim.update(3, Feature::scalar(50.0)),
            UpdateOutcome::Singleton
        );
        // Coming back within δ of node 2's cluster root (10.0): merge.
        let outcome = sim.update(3, Feature::scalar(12.0));
        assert_eq!(outcome, UpdateOutcome::Merged { new_root: 0 });
        assert_eq!(sim.cluster_count(), 1);
    }

    #[test]
    fn root_drift_broadcasts_and_detaches_outliers() {
        let mut sim = setup(6.0, 0.5);
        // Move member 3 to the edge of tolerance first (absorbed by A3).
        assert_eq!(
            sim.update(3, Feature::scalar(14.0)),
            UpdateOutcome::LocalOnly
        );
        // Root jumps far: member 3 (at 14.0) is beyond δ of the new root.
        let outcome = sim.update(0, Feature::scalar(4.0));
        match outcome {
            UpdateOutcome::RootBroadcast { detached } => assert_eq!(detached, 1),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert!(sim.costs().kind("maint_root_bcast").cost > 0);
        assert_eq!(sim.cluster_count(), 2);
    }

    #[test]
    fn mid_tree_detach_reroots_child_subtrees() {
        let mut sim = setup(6.0, 0.5);
        // Node 1 is on the path 0-1-2-3. Detach it with a far value that is
        // also far from its neighbors' cluster roots.
        let outcome = sim.update(1, Feature::scalar(100.0));
        assert_eq!(outcome, UpdateOutcome::Singleton);
        // Node 1's child (2) roots its own subtree {2, 3}; the detached
        // node is a singleton free to merge elsewhere later.
        assert_eq!(sim.root_of(2), 2);
        assert_eq!(sim.root_of(3), 2);
        assert_eq!(sim.root_of(1), 1);
        assert_eq!(sim.root_of(0), 0);
    }

    #[test]
    #[should_panic(expected = "2Δ < δ")]
    fn oversized_slack_rejected() {
        let _ = setup(6.0, 3.0);
    }

    #[test]
    fn member_failure_splits_subtree() {
        // Path 0-1-2-3 rooted at 0; failing node 1 orphans {2,3}, which
        // re-root at node 2.
        let mut sim = setup(6.0, 1.0);
        let new = sim.fail_node(1);
        assert_eq!(new, 1);
        assert!(sim.is_failed(1));
        assert_eq!(sim.root_of(2), 2);
        assert_eq!(sim.root_of(3), 2);
        assert_eq!(sim.root_of(0), 0);
        assert_eq!(sim.cluster_count(), 2);
        assert!(sim.costs().kind("maint_fail_probe").cost > 0);
    }

    #[test]
    fn root_failure_promotes_children() {
        let mut sim = setup(6.0, 1.0);
        let new = sim.fail_node(0);
        assert_eq!(new, 1); // node 1 was root 0's only tree child
        assert_eq!(sim.root_of(1), 1);
        assert_eq!(sim.root_of(3), 1);
        assert_eq!(sim.cluster_count(), 1);
    }

    #[test]
    fn leaf_failure_changes_nothing_else() {
        let mut sim = setup(6.0, 1.0);
        let new = sim.fail_node(3);
        assert_eq!(new, 0);
        assert_eq!(sim.cluster_count(), 1);
        assert_eq!(sim.root_of(2), 0);
    }

    #[test]
    fn orphans_can_merge_back_via_updates() {
        let mut sim = setup(6.0, 1.0);
        sim.fail_node(1);
        assert_eq!(sim.cluster_count(), 2);
        // Node 2's next significant update merges it into... its only live
        // non-subtree neighbor is the failed node 1, so it stays put; but a
        // singleton-root drift still works without touching failed nodes.
        let out = sim.update(2, Feature::scalar(10.1));
        assert!(matches!(
            out,
            UpdateOutcome::LocalOnly | UpdateOutcome::RootBroadcast { .. }
        ));
        assert_eq!(sim.cluster_count(), 2);
    }

    #[test]
    #[should_panic(expected = "update from a failed node")]
    fn updates_from_failed_nodes_rejected() {
        let mut sim = setup(6.0, 1.0);
        sim.fail_node(2);
        let _ = sim.update(2, Feature::scalar(1.0));
    }

    #[test]
    fn update_costs_scale_with_slack() {
        // More slack => fewer triggered messages for the same stream.
        let stream: Vec<f64> = (0..200)
            .map(|i| 10.0 + 3.0 * ((i as f64) * 0.37).sin())
            .collect();
        let mut tight = setup(8.0, 0.2);
        let mut loose = setup(8.0, 2.0);
        for (i, &x) in stream.iter().enumerate() {
            let node = 1 + (i % 3); // members only
            tight.update(node, Feature::scalar(x));
            loose.update(node, Feature::scalar(x));
        }
        assert!(
            loose.costs().total_cost() <= tight.costs().total_cost(),
            "loose {} > tight {}",
            loose.costs().total_cost(),
            tight.costs().total_cost()
        );
    }
}
