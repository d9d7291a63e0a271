//! Event-driven (netsim) implementation of the spanning-forest clustering.
//!
//! [`crate::spanning_forest_clustering`] computes the same algorithm as a
//! deterministic state machine with explicit message accounting; this
//! module runs it as an actual message-passing protocol on the simulator —
//! feature exchange, parent notification, leaves-up height convergecast
//! with detach instructions. The test suite asserts both implementations
//! produce **identical clusters and identical message bills**, validating
//! the accounting used by the experiment harness (DESIGN.md §2).

use crate::BaselineOutcome;
use elink_core::Clustering;
use elink_metric::{Feature, Metric};
use elink_netsim::{Ctx, FlatMap, Protocol, SimNetwork, Simulator, SyncLink};
use elink_topology::NodeId;
use std::sync::Arc;

/// Protocol messages.
#[derive(Debug, Clone)]
pub enum SfMsg {
    /// Phase 1: feature exchange between neighbors.
    Feature(Feature),
    /// Phase 1: "you are my parent".
    ParentNotify,
    /// Phase 2: leaves-up height convergecast.
    HeightReport {
        /// The child's subtree height bound.
        height: f64,
        /// The child's feature.
        feature: Feature,
    },
    /// Phase 2: "detach and root your own cluster".
    Detach,
}

const TIMER_CHOOSE_PARENT: u64 = 0;
const TIMER_SETTLE: u64 = 1;

/// Per-node protocol state.
pub struct SfNode {
    feature: Feature,
    metric: Arc<dyn Metric>,
    delta: f64,
    /// Neighbor features, keyed by neighbor id.
    neighbor_features: FlatMap<u32, Feature>,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    pending_reports: usize,
    height: f64,
    highest_child: Option<NodeId>,
    /// Set by an incoming `Detach`.
    pub detached: bool,
    reported: bool,
}

impl SfNode {
    fn new(feature: Feature, metric: Arc<dyn Metric>, delta: f64) -> SfNode {
        SfNode {
            feature,
            metric,
            delta,
            neighbor_features: FlatMap::new(),
            parent: None,
            children: Vec::new(),
            pending_reports: 0,
            height: 0.0,
            highest_child: None,
            detached: false,
            reported: false,
        }
    }

    /// Final forest parent (None for forest roots).
    pub fn parent(&self) -> Option<NodeId> {
        self.parent
    }

    fn dim(&self) -> u64 {
        self.feature.scalar_cost()
    }

    fn maybe_report(&mut self, ctx: &mut Ctx<'_, SfMsg>) {
        if self.reported || self.pending_reports > 0 {
            return;
        }
        self.reported = true;
        if let Some(p) = self.parent {
            let dim = self.dim();
            ctx.send(
                p,
                SfMsg::HeightReport {
                    height: self.height,
                    feature: self.feature.clone(),
                },
                "sf_height_report",
                1 + dim,
            );
        }
    }
}

impl Protocol for SfNode {
    type Msg = SfMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, SfMsg>) {
        let dim = self.dim();
        ctx.broadcast_neighbors(
            &SfMsg::Feature(self.feature.clone()),
            "sf_feature_bcast",
            dim,
        );
        // All features arrive within one (sync) hop; choose the parent then.
        let settle = ctx.max_hop_delay() + 1;
        ctx.set_timer(settle, TIMER_CHOOSE_PARENT);
        // Parent notifications arrive within two more hops.
        ctx.set_timer(3 * settle, TIMER_SETTLE);
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Ctx<'_, SfMsg>) {
        match timer {
            TIMER_CHOOSE_PARENT => {
                // Smallest feature distance among smaller-id neighbors.
                let me = ctx.id();
                let best = self
                    .neighbor_features
                    .iter()
                    .map(|(&w, f)| (w as NodeId, f))
                    .filter(|&(w, _)| w < me)
                    .map(|(w, f)| (w, self.metric.distance(&self.feature, f)))
                    .min_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
                if let Some((w, _)) = best {
                    self.parent = Some(w);
                    ctx.send(w, SfMsg::ParentNotify, "sf_parent_notify", 1);
                }
            }
            TIMER_SETTLE => {
                // Children are now known; leaves kick off the convergecast.
                self.pending_reports = self.children.len();
                self.maybe_report(ctx);
            }
            _ => unreachable!("unknown timer"),
        }
    }

    fn on_message(&mut self, from: NodeId, msg: SfMsg, ctx: &mut Ctx<'_, SfMsg>) {
        match msg {
            SfMsg::Feature(f) => {
                self.neighbor_features.insert(from as u32, f);
            }
            SfMsg::ParentNotify => {
                self.children.push(from);
            }
            SfMsg::HeightReport { height, feature } => {
                let h = height + self.metric.distance(&feature, &self.feature);
                if h + self.height > self.delta {
                    // Detach the larger contributor (same rule as the
                    // algorithmic implementation).
                    if h >= self.height {
                        ctx.send(from, SfMsg::Detach, "sf_detach", 1);
                    } else {
                        let old = self.highest_child.expect("height > 0 has a child");
                        ctx.send(old, SfMsg::Detach, "sf_detach", 1);
                        self.height = h;
                        self.highest_child = Some(from);
                    }
                } else if h > self.height {
                    self.height = h;
                    self.highest_child = Some(from);
                }
                self.pending_reports -= 1;
                self.maybe_report(ctx);
            }
            SfMsg::Detach => {
                self.detached = true;
            }
        }
    }
}

/// Runs the spanning-forest clustering as a simulated protocol (synchronous
/// network) and extracts the clustering plus message statistics.
pub fn spanning_forest_protocol(
    network: &SimNetwork,
    features: &[Feature],
    metric: Arc<dyn Metric>,
    delta: f64,
) -> BaselineOutcome {
    let n = network.topology().n();
    assert_eq!(features.len(), n);
    // Neighbor tables key node ids as `u32`.
    assert!(u32::try_from(n).is_ok(), "fleet too large for u32 node ids");
    let nodes: Vec<SfNode> = (0..n)
        .map(|v| SfNode::new(features[v].clone(), Arc::clone(&metric), delta))
        .collect();
    let mut sim = Simulator::new(network.clone(), SyncLink, 0, nodes);
    sim.run_to_completion();

    // Resolve cluster roots exactly as the algorithmic version does.
    let mut root_of = vec![usize::MAX; n];
    fn resolve(v: usize, nodes: &[SfNode], root_of: &mut [usize]) -> usize {
        if root_of[v] != usize::MAX {
            return root_of[v];
        }
        let r = match nodes[v].parent() {
            None => v,
            Some(_) if nodes[v].detached => v,
            Some(p) => resolve(p, nodes, root_of),
        };
        root_of[v] = r;
        r
    }
    for v in 0..n {
        resolve(v, sim.nodes(), &mut root_of);
    }
    let states: Vec<(NodeId, Feature)> = (0..n)
        .map(|v| (root_of[v], features[root_of[v]].clone()))
        .collect();
    let clustering = Clustering::from_node_states(&states, network.topology(), metric.as_ref());
    BaselineOutcome {
        clustering,
        costs: sim.costs().clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spanning_forest::spanning_forest_clustering;
    use elink_metric::Absolute;
    use elink_topology::Topology;

    /// The protocol and the algorithmic simulation must agree exactly —
    /// same clusters, same per-kind message bills.
    #[test]
    fn protocol_matches_algorithmic_version() {
        for (topo, delta, seed) in [
            (Topology::grid(4, 6), 2.0, 0u64),
            (Topology::random_synthetic(80, 3), 300.0, 3),
            (Topology::random_synthetic(120, 9), 150.0, 9),
        ] {
            let features: Vec<Feature> = if seed == 0 {
                (0..topo.n())
                    .map(|v| Feature::scalar((v % 6) as f64))
                    .collect()
            } else {
                elink_datasets::TerrainDataset::generate(topo.n(), 6, 0.55, seed).features()
            };
            let network = SimNetwork::new(topo.clone());
            let proto = spanning_forest_protocol(&network, &features, Arc::new(Absolute), delta);
            let algo = spanning_forest_clustering(&topo, &features, &Absolute, delta);
            assert_eq!(
                proto.clustering.assignment, algo.clustering.assignment,
                "clusters diverge (seed {seed})"
            );
            for kind in [
                "sf_feature_bcast",
                "sf_parent_notify",
                "sf_height_report",
                "sf_detach",
            ] {
                assert_eq!(
                    proto.costs.kind(kind),
                    algo.costs.kind(kind),
                    "message bill diverges for {kind} (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn protocol_produces_valid_clustering() {
        let data = elink_datasets::TerrainDataset::generate(100, 6, 0.55, 5);
        let features = data.features();
        let network = SimNetwork::new(data.topology().clone());
        let out = spanning_forest_protocol(&network, &features, Arc::new(Absolute), 400.0);
        elink_core::validate_delta_clustering(
            &out.clustering,
            data.topology(),
            &features,
            &Absolute,
            400.0,
        )
        .unwrap();
    }
}
