//! The 1k→64k scaling bench behind `BENCH_scale.json`.
//!
//! The paper's central claim is O(N)-message clustering (Theorem 3); this
//! bench puts the reproduction's msgs/node curve next to it at fleet sizes
//! up to 64k nodes — the "Fundamentals of Large Sensor Networks" regime.
//! Each size runs once and every reported field is simulated; host time is
//! measured by the repo benchmark under `benchmark/`, whose `growth-64k`
//! workload repeats trials.
//!
//! Fleets are unit-spacing grids (`O(n)` construction) with a smooth
//! two-frequency feature field, clustered by implicit-mode ELink over a
//! synchronous link — the §4 configuration, which is broadcast-only.
//! Broadcast-only matters at this scale: the engine's routing table is
//! `O(n²)` memory (1 byte per ordered pair, 4 GiB at 64k) and is built
//! lazily; the bench asserts it was never materialized.

use crate::fields;
use crate::json::{Json, Object};
use elink_core::{run_implicit, ElinkConfig};
use elink_metric::{Absolute, Feature};
use elink_netsim::SimNetwork;
use elink_topology::Topology;
use std::sync::Arc;

/// Grid sides of the full preset: 1k, 4k, 16k and 64k nodes.
pub const FULL_SIDES: [usize; 4] = [32, 64, 128, 256];

/// One fleet size's measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Fleet size (nodes).
    pub n: usize,
    /// Clusters in the output clustering.
    pub clusters: usize,
    /// Simulated quiescence time (ticks).
    pub sim_time: u64,
    /// Total link-level transmissions.
    pub messages: u64,
    /// Total payload bytes (8 per §8.2 scalar).
    pub bytes: u64,
    /// Messages per node — the curve to hold against the paper's O(N).
    pub msgs_per_node: f64,
    /// Bytes per node.
    pub bytes_per_node: f64,
    /// High-water mark of simultaneously live scheduler events.
    pub peak_live_events: usize,
}

/// The smooth synthetic feature field: two incommensurate spatial
/// frequencies over the grid, producing region-shaped clusters at every
/// size without any O(n²) preprocessing.
fn grid_features(side: usize) -> Vec<Feature> {
    let mut out = Vec::with_capacity(side * side);
    for r in 0..side {
        for c in 0..side {
            let x = c as f64;
            let y = r as f64;
            let v = 40.0 * (x / 17.0).sin() + 40.0 * (y / 13.0).cos();
            out.push(Feature::scalar(v));
        }
    }
    out
}

/// δ for the scaling fleets: wide enough for multi-node clusters, narrow
/// enough that the field's ridges split the grid into many regions.
const SCALE_DELTA: f64 = 25.0;

/// Runs one fleet size.
///
/// # Panics
/// Panics if the broadcast-only run materialized the O(n²) routing table.
pub fn run_point(side: usize) -> ScalePoint {
    let topology = Topology::grid(side, side);
    let n = topology.n();
    let features = grid_features(side);
    let network = SimNetwork::new(topology);

    let outcome = run_implicit(
        &network,
        &features,
        Arc::new(Absolute),
        ElinkConfig::for_delta(SCALE_DELTA),
    );
    assert!(
        !network.routing_built(),
        "broadcast-only run materialized the O(n²) routing table"
    );

    let messages = outcome.costs.total_packets();
    let bytes = 8 * outcome.costs.total_cost();
    ScalePoint {
        n,
        clusters: outcome.clustering.cluster_count(),
        sim_time: outcome.elapsed,
        messages,
        bytes,
        msgs_per_node: messages as f64 / n as f64,
        bytes_per_node: bytes as f64 / n as f64,
        peak_live_events: outcome.peak_live_events,
    }
}

/// Runs the bench over the given grid sides (see [`FULL_SIDES`]).
pub fn run_scale(sides: &[usize]) -> Vec<ScalePoint> {
    sides.iter().map(|&side| run_point(side)).collect()
}

fn point_json(p: &ScalePoint) -> Object {
    fields!(Object::new(), p; n, clusters, sim_time, messages, bytes)
        .field("msgs_per_node", Json::Fixed3(p.msgs_per_node))
        .field("bytes_per_node", Json::Fixed3(p.bytes_per_node))
        .field("peak_live_events", p.peak_live_events)
}

/// The `BENCH_scale.json` document. Two same-seed runs must agree
/// byte-for-byte.
pub fn json(points: &[ScalePoint]) -> Json {
    Object::new()
        .field("schema", "elink-scale/v3")
        .field("results", Json::rows(points.iter().map(point_json)))
        .into()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The smallest fleet: messages O(N)-ish, peak events nonzero, routing
    /// lazy (asserted inside `run_point`).
    #[test]
    fn small_point_is_linear_and_broadcast_only() {
        let p = run_point(16);
        assert_eq!(p.n, 256);
        assert!(p.clusters > 1, "field should split the grid");
        assert!(p.messages > 0 && p.peak_live_events > 0);
        // O(N) claim sanity: broadcast-only ELink stays near a small
        // per-node constant (expand + switches), far below N.
        assert!(
            p.msgs_per_node < 64.0,
            "msgs/node {} blew past O(1)-per-node expectations",
            p.msgs_per_node
        );
    }

    #[test]
    fn same_sides_replay_exactly() {
        assert_eq!(run_scale(&[8, 16]), run_scale(&[8, 16]));
    }
}
