//! Sensor-network topologies for the ELink reproduction.
//!
//! Provides node placement (grid / random-uniform), the communication graph
//! (explicit edges for grids, unit-disk for random placements), hop-count
//! and greedy geographic routing over the graph, and the geometry that the
//! §3.2 quadtree in `elink_core::quadinfo` subdivides: [`Rect::quadrants`]
//! and nearest-node leader election ([`Topology::nearest_node_among`]).

// Every public item must carry a doc comment (simlint pub-doc-coverage
// enforces the same invariant pre-rustdoc).
#![warn(missing_docs)]

pub mod georoute;
/// Flat-adjacency communication graph and BFS routing.
pub mod graph;
/// 2-D points and distance helpers.
pub mod point;
/// Topology constructors: grids, random disks, synthetic deployments.
pub mod topo;

pub use georoute::{greedy_route, measure_stretch, GreedyRoute, StretchStats};
pub use graph::{CommGraph, RoutingTable};
pub use point::{Point, Rect};
pub use topo::{NodeId, Topology};
