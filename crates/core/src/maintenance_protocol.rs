//! Event-driven (netsim) implementation of the §6 maintenance protocol.
//!
//! [`crate::maintenance::MaintenanceSim`] models the slack-update protocol
//! as a deterministic state machine with explicit message accounting; this
//! module runs the same protocol as actual messages on the simulator —
//! fetch requests climbing the cluster tree hop by hop, the root feature
//! descending the recorded path, neighbor root queries before a merge, and
//! root-drift broadcasts down the tree. The tests drive both
//! implementations with the same sequential update stream and assert
//! **identical cluster states and identical per-kind message bills**,
//! validating the accounting behind Figs 10–13.
//!
//! Updates are injected with [`elink_netsim::Simulator::inject`] (sensing
//! is free; only protocol traffic is charged). The equivalence holds for
//! *sequential* streams (one update fully processed before the next), which
//! is also how the experiment harness replays measurements.

use crate::clustering::Clustering;
use elink_metric::{Feature, Metric};
use elink_netsim::{Ctx, FlatMap, Protocol};
use elink_topology::NodeId;
use std::sync::Arc;

/// Protocol messages.
#[derive(Debug, Clone)]
pub enum MaintMsg {
    /// Injected sensing event: the node's model produced a new feature.
    FeatureUpdate(Feature),
    /// Fetch the current root feature; climbs the cluster tree.
    FetchRequest {
        /// The node that initiated the fetch.
        origin: NodeId,
    },
    /// The root feature descending back along the recorded path.
    FetchReply {
        /// The fetch initiator.
        origin: NodeId,
        /// The root's current feature.
        feature: Feature,
    },
    /// "What is your root and its feature?" (pre-merge neighbor probe).
    RootQuery,
    /// Reply to [`MaintMsg::RootQuery`].
    RootInfo {
        /// The neighbor's cluster root.
        root: NodeId,
        /// That root's feature as cached by the neighbor.
        root_feature: Feature,
    },
    /// Join under the receiving neighbor; carries the joiner's feature,
    /// which is then registered up the tree to the root.
    Join {
        /// The joining node.
        joiner: NodeId,
        /// Its current feature.
        feature: Feature,
    },
    /// Membership registration climbing to the root.
    Register {
        /// The joining node.
        joiner: NodeId,
        /// Its feature.
        feature: Feature,
    },
    /// Root-drift broadcast descending the cluster tree.
    NewRootFeature(Feature),
    /// "Remove me from your children" — sent to the old tree parent when a
    /// node detaches, keeping children lists accurate.
    LeaveParent,
    /// The parent detached: the receiving child becomes the root of its
    /// own subtree and announces itself downward via
    /// [`MaintMsg::DetachedRoot`].
    ParentDetached,
    /// A subtree ancestor re-rooted: descends the tree carrying the new
    /// root id and feature.
    DetachedRoot {
        /// The subtree's new root.
        root: NodeId,
        /// Its feature.
        feature: Feature,
    },
}

/// The §6 triple slack condition as a pure function: returns true when an
/// update from `anchor` to `new_feature` can be absorbed locally (no
/// synchronization traffic). `root_feature` is the node's cached root
/// feature, `delta` the cluster bound δ, `slack` the tolerance Δ:
///
/// * A₁: `d(anchor, new) ≤ Δ` — the feature barely moved;
/// * A₂: `d(new, root) − d(anchor, root) ≤ Δ` — it moved towards the root;
/// * A₃: `d(new, root) ≤ δ − Δ` — it is comfortably inside the cluster.
///
/// Shared by [`MaintNode`] and by the `elink-workload` result cache, whose
/// correctness argument rests on the contrapositive: while every update a
/// node absorbs satisfies one of these, its *anchor* is unchanged, so
/// answers computed over anchors stay exact.
pub fn slack_conditions_hold(
    metric: &dyn Metric,
    delta: f64,
    slack: f64,
    anchor: &Feature,
    root_feature: &Feature,
    new_feature: &Feature,
) -> bool {
    let d_anchor = metric.distance(anchor, new_feature);
    let d_new_root = metric.distance(new_feature, root_feature);
    let d_old_root = metric.distance(anchor, root_feature);
    d_anchor <= slack || d_new_root - d_old_root <= slack || d_new_root <= delta - slack
}

/// Per-node §6 protocol state.
pub struct MaintNode {
    metric: Arc<dyn Metric>,
    delta: f64,
    slack: f64,
    /// Live feature.
    pub feature: Feature,
    /// Anchor feature (last synchronized state, `F_i` of A₁).
    anchor: Feature,
    /// Monotone counter bumped every time `anchor` changes — i.e. exactly
    /// when an update exceeded the δ-slack bound and triggered
    /// synchronization. Result caches key their validity on this: an
    /// unchanged epoch guarantees every absorbed update stayed within
    /// slack, so anchor-based answers are still exact.
    anchor_epoch: u64,
    /// Current root.
    pub root: NodeId,
    /// Cached root feature (`F_{r_i}`).
    cached_root_feature: Feature,
    /// Cluster-tree parent (None at roots).
    pub tree_parent: Option<NodeId>,
    /// Cluster-tree children.
    tree_children: Vec<NodeId>,
    /// In-flight fetch return paths: origin id → the child to reply to.
    fetch_return: FlatMap<u32, NodeId>,
    /// Pending update awaiting the fetched root feature.
    pending_update: Option<Feature>,
    /// Pending merge state: collected neighbor root info.
    pending_merge: Option<PendingMerge>,
}

struct PendingMerge {
    new_feature: Feature,
    awaiting: usize,
    candidates: Vec<(NodeId, NodeId, Feature)>, // (neighbor, root, root feature)
}

impl MaintNode {
    fn dim(&self) -> u64 {
        self.feature.scalar_cost()
    }

    fn is_root(&self, ctx: &Ctx<'_, MaintMsg>) -> bool {
        self.root == ctx.id()
    }

    /// The §6 triple-condition check; returns true when the update is
    /// absorbed locally.
    fn slack_conditions_hold(&self, new_feature: &Feature) -> bool {
        slack_conditions_hold(
            self.metric.as_ref(),
            self.delta,
            self.slack,
            &self.anchor,
            &self.cached_root_feature,
            new_feature,
        )
    }

    /// Reassigns the anchor, bumping the invalidation epoch.
    fn set_anchor(&mut self, f: Feature) {
        self.anchor = f;
        self.anchor_epoch += 1;
    }

    /// The anchor feature (last synchronized state).
    pub fn anchor(&self) -> &Feature {
        &self.anchor
    }

    /// The anchor invalidation epoch: bumped on every anchor reassignment
    /// (see the field docs). Result caches compare epochs to detect that a
    /// slack-exceeding update has passed through this node.
    pub fn anchor_epoch(&self) -> u64 {
        self.anchor_epoch
    }

    fn on_feature_update(&mut self, new_feature: Feature, ctx: &mut Ctx<'_, MaintMsg>) {
        if self.is_root(ctx) {
            self.on_root_update(new_feature, ctx);
            return;
        }
        if self.slack_conditions_hold(&new_feature) {
            self.feature = new_feature;
            return;
        }
        // All three violated: fetch the fresh root feature up the tree.
        self.pending_update = Some(new_feature);
        let Some(parent) = self.tree_parent else {
            debug_assert!(false, "non-root {} lost its parent", ctx.id());
            return;
        };
        // Metrics: fetch round-trip envelope — [first request, last reply].
        ctx.phase_enter("maint.fetch");
        ctx.send(
            parent,
            MaintMsg::FetchRequest { origin: ctx.id() },
            "maint_fetch",
            1,
        );
    }

    // simlint: hot
    fn on_root_update(&mut self, new_feature: Feature, ctx: &mut Ctx<'_, MaintMsg>) {
        let drift = self.metric.distance(&self.anchor, &new_feature);
        self.feature = new_feature.clone(); // simlint: allow(no-hot-path-alloc): Feature clone never allocates (scalar copy or Arc increment)
        self.cached_root_feature = new_feature.clone(); // simlint: allow(no-hot-path-alloc): allocation-free Feature clone
        if drift <= self.slack {
            return;
        }
        self.set_anchor(new_feature.clone()); // simlint: allow(no-hot-path-alloc): allocation-free Feature clone
        if self.tree_children.is_empty() {
            // Singleton root: §6 merge attempt via neighbor probes.
            self.start_merge(new_feature, ctx);
            return;
        }
        // Metrics: root-drift broadcast envelope — [release, last receipt].
        ctx.phase_enter("maint.root_bcast");
        let dim = self.dim();
        for &c in &self.tree_children {
            ctx.send(
                c,
                MaintMsg::NewRootFeature(new_feature.clone()), // simlint: allow(no-hot-path-alloc): allocation-free Feature clone into each child's payload
                "maint_root_bcast",
                dim,
            );
        }
    }

    fn start_merge(&mut self, new_feature: Feature, ctx: &mut Ctx<'_, MaintMsg>) {
        // Cold path: materialize the borrowed neighbor slice so we can keep
        // sending through `ctx` while iterating.
        let neighbors: Vec<usize> = ctx.neighbors().iter().map(|&w| w as usize).collect();
        if neighbors.is_empty() {
            return;
        }
        self.pending_merge = Some(PendingMerge {
            new_feature,
            awaiting: neighbors.len(),
            candidates: Vec::new(),
        });
        // Metrics: merge-round envelope — [first probe, merge decision].
        ctx.phase_enter("maint.merge");
        for w in neighbors {
            ctx.send(w, MaintMsg::RootQuery, "maint_merge", 1);
        }
    }

    fn finish_merge(&mut self, ctx: &mut Ctx<'_, MaintMsg>) {
        let Some(pending) = self.pending_merge.take() else {
            return;
        };
        ctx.phase_exit("maint.merge");
        let me = ctx.id();
        // Candidates arrive in neighbor order (sync network preserves the
        // send order); pick the first whose root is within δ, excluding our
        // own cluster.
        for (neighbor, root, root_feature) in pending.candidates {
            if root == self.root || root == me {
                continue;
            }
            let d = self.metric.distance(&pending.new_feature, &root_feature);
            if d <= self.delta {
                self.root = root;
                self.tree_parent = Some(neighbor);
                self.cached_root_feature = root_feature;
                self.set_anchor(pending.new_feature.clone());
                self.feature = pending.new_feature.clone();
                let dim = self.dim();
                ctx.send(
                    neighbor,
                    MaintMsg::Join {
                        joiner: me,
                        feature: pending.new_feature,
                    },
                    "maint_merge",
                    dim,
                );
                return;
            }
        }
        // No merge target: stay a singleton.
        self.feature = pending.new_feature.clone();
        self.set_anchor(pending.new_feature);
        self.tree_parent = None;
        self.root = me;
        self.cached_root_feature = self.feature.clone();
    }
}

impl Protocol for MaintNode {
    type Msg = MaintMsg;

    fn on_message(&mut self, from: NodeId, msg: MaintMsg, ctx: &mut Ctx<'_, MaintMsg>) {
        match msg {
            MaintMsg::FeatureUpdate(f) => self.on_feature_update(f, ctx),
            MaintMsg::FetchRequest { origin } => {
                if self.is_root(ctx) {
                    let dim = self.dim();
                    ctx.send(
                        from,
                        MaintMsg::FetchReply {
                            origin,
                            feature: self.feature.clone(),
                        },
                        "maint_fetch",
                        dim,
                    );
                } else {
                    self.fetch_return.insert(origin as u32, from);
                    let Some(parent) = self.tree_parent else {
                        debug_assert!(false, "non-root {} lost its parent", ctx.id());
                        return;
                    };
                    ctx.send(parent, MaintMsg::FetchRequest { origin }, "maint_fetch", 1);
                }
            }
            MaintMsg::FetchReply { origin, feature } => {
                if origin == ctx.id() {
                    ctx.phase_exit("maint.fetch");
                    self.cached_root_feature = feature.clone();
                    let Some(new_feature) = self.pending_update.take() else {
                        // Duplicate or stale reply: the update already
                        // resolved; ignore it.
                        return;
                    };
                    let d = self.metric.distance(&new_feature, &feature);
                    self.feature = new_feature.clone();
                    if d <= self.delta {
                        self.set_anchor(new_feature);
                        return;
                    }
                    // Detach: leave the old parent; each child roots its
                    // own subtree; then try to merge with a neighbor
                    // cluster as a singleton.
                    if let Some(p) = self.tree_parent.take() {
                        ctx.send(p, MaintMsg::LeaveParent, "maint_detach", 1);
                    }
                    self.root = ctx.id();
                    let dim = self.dim();
                    for c in std::mem::take(&mut self.tree_children) {
                        ctx.send(c, MaintMsg::ParentDetached, "maint_detach", dim);
                    }
                    self.start_merge(new_feature, ctx);
                } else {
                    let Some(child) = self.fetch_return.remove(&(origin as u32)) else {
                        debug_assert!(false, "fetch reply at {} with no recorded path", ctx.id());
                        return;
                    };
                    let dim = self.dim();
                    ctx.send(
                        child,
                        MaintMsg::FetchReply { origin, feature },
                        "maint_fetch",
                        dim,
                    );
                }
            }
            MaintMsg::RootQuery => {
                let dim = self.dim();
                ctx.send(
                    from,
                    MaintMsg::RootInfo {
                        root: self.root,
                        root_feature: self.cached_root_feature.clone(),
                    },
                    "maint_merge",
                    dim,
                );
            }
            MaintMsg::RootInfo { root, root_feature } => {
                if let Some(p) = self.pending_merge.as_mut() {
                    p.candidates.push((from, root, root_feature));
                    p.awaiting -= 1;
                    if p.awaiting == 0 {
                        self.finish_merge(ctx);
                    }
                }
            }
            MaintMsg::LeaveParent => {
                self.tree_children.retain(|&c| c != from);
            }
            MaintMsg::Join { joiner, feature } => {
                if !self.tree_children.contains(&joiner) {
                    self.tree_children.push(joiner);
                }
                // Register the new member with the root.
                if self.is_root(ctx) {
                    return;
                }
                let Some(parent) = self.tree_parent else {
                    debug_assert!(false, "non-root {} lost its parent", ctx.id());
                    return;
                };
                let dim = self.dim();
                ctx.send(
                    parent,
                    MaintMsg::Register { joiner, feature },
                    "maint_merge",
                    dim,
                );
            }
            MaintMsg::Register { joiner, feature } => {
                if self.is_root(ctx) {
                    return;
                }
                let Some(parent) = self.tree_parent else {
                    debug_assert!(false, "non-root {} lost its parent", ctx.id());
                    return;
                };
                let dim = feature.scalar_cost();
                ctx.send(
                    parent,
                    MaintMsg::Register { joiner, feature },
                    "maint_merge",
                    dim,
                );
            }
            MaintMsg::NewRootFeature(f) => {
                ctx.phase_exit("maint.root_bcast");
                self.cached_root_feature = f.clone();
                let d = self.metric.distance(&self.feature, &f);
                let dim = self.dim();
                if d > self.delta {
                    // Violator: detach (children re-root their subtrees);
                    // the broadcast does not continue below this node.
                    if let Some(p) = self.tree_parent.take() {
                        ctx.send(p, MaintMsg::LeaveParent, "maint_detach", 1);
                    }
                    self.root = ctx.id();
                    self.set_anchor(self.feature.clone());
                    self.cached_root_feature = self.feature.clone();
                    for c in std::mem::take(&mut self.tree_children) {
                        ctx.send(c, MaintMsg::ParentDetached, "maint_detach", dim);
                    }
                } else {
                    for &c in &self.tree_children {
                        ctx.send(
                            c,
                            MaintMsg::NewRootFeature(f.clone()),
                            "maint_root_bcast",
                            dim,
                        );
                    }
                }
            }
            MaintMsg::ParentDetached => {
                // Metrics: detach cascades have no single initiator-side
                // bracket; the envelope stretches at every hop.
                ctx.phase_enter("maint.detach");
                ctx.phase_exit("maint.detach");
                // Become the root of this subtree and announce downward.
                self.tree_parent = None;
                self.root = ctx.id();
                self.set_anchor(self.feature.clone());
                self.cached_root_feature = self.feature.clone();
                let dim = self.dim();
                for &c in &self.tree_children {
                    ctx.send(
                        c,
                        MaintMsg::DetachedRoot {
                            root: ctx.id(),
                            feature: self.feature.clone(),
                        },
                        "maint_detach",
                        dim,
                    );
                }
            }
            MaintMsg::DetachedRoot { root, feature } => {
                ctx.phase_exit("maint.detach");
                self.root = root;
                self.cached_root_feature = feature.clone();
                let dim = self.dim();
                for &c in &self.tree_children {
                    ctx.send(
                        c,
                        MaintMsg::DetachedRoot {
                            root,
                            feature: feature.clone(),
                        },
                        "maint_detach",
                        dim,
                    );
                }
            }
        }
    }
}

/// Builds one [`MaintNode`] per node from an initial clustering.
pub fn maintenance_nodes(
    clustering: &Clustering,
    metric: Arc<dyn Metric>,
    features: &[Feature],
    delta: f64,
    slack: f64,
) -> Vec<MaintNode> {
    assert!(slack >= 0.0 && 2.0 * slack < delta, "need 0 ≤ 2Δ < δ");
    // Fetch return paths key origin ids as `u32`.
    assert!(
        u32::try_from(clustering.n()).is_ok(),
        "fleet too large for u32 node ids"
    );
    let children = clustering.tree_children();
    (0..clustering.n())
        .map(|v| {
            let root = clustering.root_of(v);
            MaintNode {
                metric: Arc::clone(&metric),
                delta,
                slack,
                feature: features[v].clone(),
                anchor: features[v].clone(),
                anchor_epoch: 0,
                root,
                cached_root_feature: features[root].clone(),
                tree_parent: clustering.tree_parent[v],
                tree_children: children[v].clone(),
                fetch_return: FlatMap::new(),
                pending_update: None,
                pending_merge: None,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::maintenance::MaintenanceSim;
    use elink_metric::Absolute;
    use elink_netsim::{SimNetwork, Simulator, SyncLink};
    use elink_topology::Topology;

    /// Drives both implementations with the same sequential stream and
    /// compares per-kind message bills and final root assignments.
    fn run_both(
        topology: Topology,
        features: Vec<Feature>,
        delta: f64,
        slack: f64,
        stream: &[(NodeId, f64)],
    ) {
        let states: Vec<(NodeId, Feature)> = (0..topology.n())
            .map(|_| (0, features[0].clone()))
            .collect();
        let clustering = Clustering::from_node_states(&states, &topology, &Absolute);

        let metric: Arc<dyn Metric> = Arc::new(Absolute);
        let mut sim_model = MaintenanceSim::new(
            &clustering,
            Arc::new(topology.clone()),
            Arc::clone(&metric),
            features.clone(),
            delta,
            slack,
        );
        let nodes = maintenance_nodes(&clustering, Arc::clone(&metric), &features, delta, slack);
        let network = SimNetwork::new(topology);
        let mut sim_proto = Simulator::new(network, SyncLink, 0, nodes);
        sim_proto.run_to_completion(); // drain (empty) start events

        for &(node, value) in stream {
            sim_model.update(node, Feature::scalar(value));
            let now = sim_proto.now();
            sim_proto.inject(now, node, MaintMsg::FeatureUpdate(Feature::scalar(value)));
            sim_proto.run_to_completion();
        }

        for kind in [
            "maint_fetch",
            "maint_merge",
            "maint_root_bcast",
            "maint_detach",
        ] {
            assert_eq!(
                sim_proto.costs().kind(kind),
                sim_model.costs().kind(kind),
                "message bill diverges for {kind}"
            );
        }
        for v in 0..sim_proto.nodes().len() {
            assert_eq!(
                sim_proto.nodes()[v].root,
                sim_model.root_of(v),
                "root of node {v} diverges"
            );
        }
    }

    #[test]
    fn protocol_matches_state_machine_on_quiet_stream() {
        // Small drifts only: everything absorbed by A1/A3, zero messages.
        let topology = Topology::grid(1, 4);
        let features: Vec<Feature> = (0..4).map(|_| Feature::scalar(10.0)).collect();
        let stream: Vec<(NodeId, f64)> = (0..20)
            .map(|i| (1 + i % 3, 10.0 + 0.1 * (i as f64 % 3.0)))
            .collect();
        run_both(topology, features, 6.0, 1.0, &stream);
    }

    #[test]
    fn protocol_matches_state_machine_on_fetches() {
        // Values near the δ boundary trigger fetches that end in staying.
        let topology = Topology::grid(1, 4);
        let features: Vec<Feature> = (0..4).map(|_| Feature::scalar(10.0)).collect();
        let stream = vec![(3usize, 15.8), (3, 10.0), (2, 15.8), (2, 10.0)];
        run_both(topology, features, 6.0, 0.5, &stream);
    }

    #[test]
    fn protocol_matches_state_machine_on_detach_and_merge() {
        let topology = Topology::grid(1, 4);
        let features: Vec<Feature> = (0..4).map(|_| Feature::scalar(10.0)).collect();
        let stream = vec![
            (3usize, 50.0), // detach into singleton
            (3, 12.0),      // merge back via neighbor 2
            (1, 100.0),     // mid-tree detach
        ];
        run_both(topology, features, 6.0, 0.5, &stream);
    }

    #[test]
    fn protocol_matches_state_machine_on_mid_tree_broadcast_violator() {
        // Node 1 (mid-tree) drifts to the tolerance edge, then the root
        // jumps: node 1 violates δ against the new root feature, detaches,
        // and node 2's subtree re-roots — the broadcast stops below 1.
        let topology = Topology::grid(1, 5);
        let features: Vec<Feature> = (0..5).map(|_| Feature::scalar(10.0)).collect();
        let stream = vec![
            (1usize, 14.5), // absorbed by A3 (d to root = 4.5 ≤ δ − Δ)
            (0, 5.0),       // root drift of 5: node 1 at 14.5 violates δ=6
            (2, 10.2),      // quiet update in the re-rooted subtree
        ];
        run_both(topology, features, 6.0, 0.5, &stream);
    }

    /// The anchor epoch stays flat across absorbed updates and bumps
    /// exactly when a slack-exceeding update forces synchronization — the
    /// invalidation signal the workload result cache keys on.
    #[test]
    fn anchor_epoch_bumps_only_on_slack_exceeding_updates() {
        let topology = Topology::grid(1, 4);
        let features: Vec<Feature> = (0..4).map(|_| Feature::scalar(10.0)).collect();
        let states: Vec<(NodeId, Feature)> = (0..4).map(|_| (0, features[0].clone())).collect();
        let clustering = Clustering::from_node_states(&states, &topology, &Absolute);
        let metric: Arc<dyn Metric> = Arc::new(Absolute);
        let nodes = maintenance_nodes(&clustering, metric, &features, 6.0, 0.5);
        let network = SimNetwork::new(topology);
        let mut sim = Simulator::new(network, SyncLink, 0, nodes);
        sim.run_to_completion();
        assert!(sim.nodes().iter().all(|n| n.anchor_epoch() == 0));

        // Absorbed by A1 (drift 0.3 ≤ Δ): no epoch movement anywhere.
        let now = sim.now();
        sim.inject(now, 3, MaintMsg::FeatureUpdate(Feature::scalar(10.3)));
        sim.run_to_completion();
        assert!(sim.nodes().iter().all(|n| n.anchor_epoch() == 0));
        assert_eq!(sim.nodes()[3].anchor(), &Feature::scalar(10.0));

        // Slack-exceeding but within δ of the fetched root feature: node 3
        // synchronizes (fetch up, anchor reassigned) — epoch bumps at 3
        // only.
        let now = sim.now();
        sim.inject(now, 3, MaintMsg::FeatureUpdate(Feature::scalar(15.8)));
        sim.run_to_completion();
        assert_eq!(sim.nodes()[3].anchor_epoch(), 1);
        assert_eq!(sim.nodes()[3].anchor(), &Feature::scalar(15.8));
        assert!(sim.nodes()[..3].iter().all(|n| n.anchor_epoch() == 0));
    }

    #[test]
    fn protocol_matches_state_machine_on_root_broadcasts() {
        let topology = Topology::grid(1, 4);
        let features: Vec<Feature> = (0..4).map(|_| Feature::scalar(10.0)).collect();
        let stream = vec![
            (3usize, 14.0), // absorbed by A3
            (0, 4.0),       // root drift: broadcast, node 3 detaches
            (0, 4.1),       // absorbed
        ];
        run_both(topology, features, 6.0, 0.5, &stream);
    }
}
