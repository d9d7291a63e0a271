//! The paper's worked examples, reproduced exactly.
//!
//! * Fig 3: the 5-node communication graph whose minimal δ-clusterings have
//!   2 clusters at δ = 5 (checked against the exhaustive optimum in
//!   `elink-baselines`; here we check ELink finds a valid 2-clustering).
//! * Fig 5: sentinel D's cluster expansion at δ = 6 — D recruits B, E, F;
//!   F extends to G; B extends to A but not C (d(F_D, F_C) = 4 > δ/2 = 3).

use elink_core::protocol::{ElinkMsg, ElinkNode, SignalMode};
use elink_core::quadinfo::QuadInfo;
use elink_core::{run_implicit, validate_delta_clustering, ElinkConfig};
use elink_metric::{DistanceMatrix, Feature, Metric, TableMetric};
use elink_netsim::{Ctx, Protocol, SimNetwork, Simulator, SyncLink};
use elink_topology::{CommGraph, Point, Rect, Topology};
use std::sync::Arc;

/// Fig 5's topology: nodes A..G (0..6) arranged as in the figure, with the
/// communication edges implied by the expansion narrative:
/// D–F, D–B, D–E, F–G, B–A, B–C.
fn fig5_topology() -> Topology {
    let edges = [(3, 5), (3, 1), (3, 4), (5, 6), (1, 0), (1, 2)];
    let g = CommGraph::from_edges(7, edges);
    let positions = vec![
        Point::new(0.0, 2.0), // A
        Point::new(1.0, 2.0), // B
        Point::new(1.0, 3.0), // C
        Point::new(2.0, 2.0), // D (sentinel)
        Point::new(3.0, 2.0), // E
        Point::new(2.0, 1.0), // F
        Point::new(3.0, 1.0), // G
    ];
    Topology::from_parts(positions, g, Rect::new(-0.5, -0.5, 3.6, 3.6))
}

/// Fig 5a's distances to sentinel D: A=2, B=1, C=4, E=2, F=1, G=2 (values
/// within δ/2 = 3 except C). Distances among non-D pairs are filled in the
/// loosest metric-consistent way (they do not affect D's expansion, which
/// only compares against F_D).
fn fig5_metric() -> TableMetric {
    let to_d = [2.0, 1.0, 4.0, 0.0, 2.0, 1.0, 2.0]; // A B C D E F G
    let mut dm = DistanceMatrix::zeros(7);
    for i in 0..7 {
        for j in (i + 1)..7 {
            if i == 3 {
                dm.set(i, j, to_d[j]);
            } else if j == 3 {
                dm.set(i, j, to_d[i]);
            } else {
                // Metric-consistent filler: |d(i,D) − d(j,D)| ≤ d ≤ sum.
                dm.set(i, j, to_d[i] + to_d[j]);
            }
        }
    }
    TableMetric::new(dm)
}

/// A harness protocol that only runs the expansion of Fig 16 from one
/// designated sentinel (no quadtree scheduling), mirroring the figure.
struct SingleSentinel {
    inner: ElinkNode,
    is_sentinel: bool,
}

impl Protocol for SingleSentinel {
    type Msg = ElinkMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ElinkMsg>) {
        if self.is_sentinel {
            // Deliver a level-0 schedule tick to the sentinel only.
            ctx.set_timer(0, 0);
        }
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Ctx<'_, ElinkMsg>) {
        self.inner.on_timer(timer, ctx);
    }

    fn on_message(&mut self, from: usize, msg: ElinkMsg, ctx: &mut Ctx<'_, ElinkMsg>) {
        self.inner.on_message(from, msg, ctx);
    }
}

#[test]
fn fig5_expansion_from_sentinel_d() {
    let topology = fig5_topology();
    let metric: Arc<dyn Metric> = Arc::new(fig5_metric());
    let features: Vec<Feature> = (0..7).map(|i| Feature::scalar(i as f64)).collect();
    let quad = Arc::new(QuadInfo::build(&topology));
    let config = ElinkConfig::for_delta(6.0);
    let nodes: Vec<SingleSentinel> = (0..7)
        .map(|id| SingleSentinel {
            inner: ElinkNode::new(
                id,
                7,
                features[id].clone(),
                Arc::clone(&metric),
                config,
                SignalMode::Implicit,
                Arc::clone(&quad),
            ),
            is_sentinel: id == 3, // D
        })
        .collect();
    let network = SimNetwork::new(topology);
    let mut sim = Simulator::new(network, SyncLink, 0, nodes);
    sim.run_to_completion();

    // Fig 5d: the final cluster C1 = {A, B, D, E, F, G}; C stays out.
    let in_cluster: Vec<bool> = sim
        .nodes()
        .iter()
        .map(|n| n.inner.clustered && n.inner.root == 3)
        .collect();
    assert_eq!(
        in_cluster,
        vec![true, true, false, true, true, true, true],
        "cluster membership diverges from Fig 5d"
    );
    assert!(!sim.nodes()[2].inner.clustered, "C must remain unclustered");

    // The narrative's tree: D recruits B, E, F directly; F recruits G;
    // B recruits A.
    assert_eq!(sim.nodes()[1].inner.parent, 3); // B <- D
    assert_eq!(sim.nodes()[4].inner.parent, 3); // E <- D
    assert_eq!(sim.nodes()[5].inner.parent, 3); // F <- D
    assert_eq!(sim.nodes()[6].inner.parent, 5); // G <- F
    assert_eq!(sim.nodes()[0].inner.parent, 1); // A <- B
}

#[test]
fn fig3_elink_matches_minimal_clustering() {
    // Fig 3: 5 nodes a..e; edges a-b, b-c, b-d, c-d, d-e, c-e; c–d and c–e
    // exceed δ = 5, everything else is within. Minimal clusterings have 2
    // clusters; ELink must produce a valid clustering with ≤ 3 (it can
    // split sub-optimally but not violate validity).
    let g = CommGraph::from_edges(5, [(0, 1), (1, 2), (1, 3), (2, 3), (3, 4), (2, 4)]);
    let positions = vec![
        Point::new(0.0, 1.0),
        Point::new(1.0, 1.0),
        Point::new(2.0, 2.0),
        Point::new(2.0, 0.0),
        Point::new(3.0, 1.0),
    ];
    let topology = Topology::from_parts(positions, g, Rect::new(-0.5, -0.5, 3.6, 2.6));
    // A triangle-inequality-consistent completion of Fig 3b (the δ/2
    // admission rule presupposes a metric): c sits 4 away from a and b and
    // 6 away from d and e; all other pairs are 2 apart.
    let mut dm = DistanceMatrix::zeros(5);
    for i in 0..5 {
        for j in (i + 1)..5 {
            dm.set(i, j, 2.0);
        }
    }
    dm.set(0, 2, 4.0); // a–c
    dm.set(1, 2, 4.0); // b–c
    dm.set(2, 3, 6.0); // c–d
    dm.set(2, 4, 6.0); // c–e
    let features: Vec<Feature> = (0..5).map(|i| Feature::scalar(i as f64)).collect();
    elink_metric::check_metric_axioms(&features, &TableMetric::new(dm.clone()), 1e-9)
        .expect("Fig 3 distances must form a metric");
    let metric: Arc<dyn Metric> = Arc::new(TableMetric::new(dm));
    let network = SimNetwork::new(topology.clone());
    let outcome = run_implicit(
        &network,
        &features,
        Arc::clone(&metric),
        ElinkConfig::for_delta(5.0),
    );
    validate_delta_clustering(
        &outcome.clustering,
        &topology,
        &features,
        metric.as_ref(),
        5.0,
    )
    .unwrap();
    let k = outcome.clustering.cluster_count();
    assert!((2..=3).contains(&k), "ELink produced {k} clusters on Fig 3");
}
