//! Node placement and topology construction.
//!
//! Two families from §8.1: regular grids (the Tao buoy array is a 6×9 grid
//! whose communication graph is the grid itself) and random-uniform
//! placements with a unit-disk radio (the synthetic experiments use N ∈
//! [100, 800] with ≈ 4 neighbors within radio range on average).

use crate::graph::CommGraph;
use crate::point::{Point, Rect};
use rand::Rng;
use rand::SeedableRng;

/// Index of a sensor node. Nodes are densely numbered `0..n`.
pub type NodeId = usize;

/// A deployed sensor network: node positions, their communication graph, and
/// the bounding rectangle of the deployment.
#[derive(Debug, Clone)]
pub struct Topology {
    positions: Vec<Point>,
    graph: CommGraph,
    extent: Rect,
}

impl Topology {
    /// Builds a topology from explicit positions and graph.
    ///
    /// # Panics
    /// Panics if `positions.len() != graph.n()`.
    pub fn from_parts(positions: Vec<Point>, graph: CommGraph, extent: Rect) -> Self {
        assert_eq!(positions.len(), graph.n(), "positions/graph size mismatch");
        Topology {
            positions,
            graph,
            extent,
        }
    }

    /// A `rows × cols` grid with unit spacing and 4-neighborhood
    /// communication edges (the Tao layout is `grid(6, 9)`).
    ///
    /// ```
    /// let grid = elink_topology::Topology::grid(6, 9);
    /// assert_eq!(grid.n(), 54);
    /// assert!(grid.graph().is_connected());
    /// assert_eq!(grid.graph().degree(0), 2); // corner
    /// ```
    pub fn grid(rows: usize, cols: usize) -> Self {
        let n = rows * cols;
        let mut positions = Vec::with_capacity(n);
        for r in 0..rows {
            for c in 0..cols {
                positions.push(Point::new(c as f64, r as f64));
            }
        }
        // Each node's right neighbour, then the one below it.
        let edges = (0..n).flat_map(|v| {
            let right = (v % cols + 1 < cols).then_some((v, v + 1));
            let down = (v / cols + 1 < rows).then_some((v, v + cols));
            right.into_iter().chain(down)
        });
        let graph = CommGraph::from_edges(n, edges);
        // Extent is padded by half a spacing so every node is interior.
        let extent = Rect::new(
            -0.5,
            -0.5,
            cols as f64 - 0.5 + 1e-9,
            rows as f64 - 0.5 + 1e-9,
        );
        Topology {
            positions,
            graph,
            extent,
        }
    }

    /// Random uniform placement of `n` nodes in an `L × L` square with a
    /// unit-disk radio of range `radio_range`; retries with a slightly larger
    /// range until the network is connected (the paper assumes connected
    /// networks).
    ///
    /// With `L = √(n/density)` and `radio_range` chosen for ~4 expected
    /// in-range neighbors, this matches the §8.1 synthetic setup; use
    /// [`Topology::random_synthetic`] for that preset.
    pub fn random_uniform(n: usize, side: f64, mut radio_range: f64, seed: u64) -> Self {
        assert!(n > 0, "need at least one node");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let positions: Vec<Point> = (0..n)
            .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
            .collect();
        // Grow the radio range geometrically until connected. Placement is
        // kept fixed so the seed fully determines positions.
        loop {
            let graph = unit_disk_graph(&positions, radio_range);
            if graph.is_connected() {
                let extent = Rect::new(0.0, 0.0, side + 1e-9, side + 1e-9);
                return Topology {
                    positions,
                    graph,
                    extent,
                };
            }
            radio_range *= 1.25;
            assert!(
                radio_range < side * 4.0,
                "failed to obtain a connected random topology"
            );
        }
    }

    /// The paper's synthetic preset (§8.1): density ≈ 0.8 nodes per unit
    /// area, radio range sized for ~4 expected neighbors.
    pub fn random_synthetic(n: usize, seed: u64) -> Self {
        let density = 0.8;
        let side = (n as f64 / density).sqrt();
        // E[neighbors] = density * π r² = 4  =>  r = √(4 / (π * density)).
        let r = (4.0 / (std::f64::consts::PI * density)).sqrt();
        Topology::random_uniform(n, side, r, seed)
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.positions.len()
    }

    /// Node positions.
    pub fn positions(&self) -> &[Point] {
        &self.positions
    }

    /// Position of one node.
    pub fn position(&self, v: NodeId) -> Point {
        self.positions[v]
    }

    /// The communication graph.
    pub fn graph(&self) -> &CommGraph {
        &self.graph
    }

    /// Deployment bounding rectangle.
    pub fn extent(&self) -> Rect {
        self.extent
    }

    /// The node closest to a point (ties broken by lower id). Used for
    /// cell-leader election (§3.2 footnote 1) and base-station placement.
    pub fn nearest_node(&self, p: &Point) -> NodeId {
        self.nearest_node_among(p, 0..self.n())
            .expect("topology has at least one node")
    }

    /// The node closest to `p` among `candidates` (ties broken by lower
    /// id); `None` if there are none.
    pub fn nearest_node_among(
        &self,
        p: &Point,
        candidates: impl IntoIterator<Item = NodeId>,
    ) -> Option<NodeId> {
        candidates
            .into_iter()
            .map(|v| (v, self.positions[v].dist_sq(p)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)))
            .map(|(v, _)| v)
    }

    /// Average node degree of the communication graph.
    pub fn average_degree(&self) -> f64 {
        2.0 * self.graph.edge_count() as f64 / self.n() as f64
    }
}

/// Builds the unit-disk communication graph for a placement: an edge
/// between every two nodes at most `radio_range` apart, by an O(n²) scan
/// of the pairs in ascending order.
pub fn unit_disk_graph(positions: &[Point], radio_range: f64) -> CommGraph {
    let n = positions.len();
    let r2 = radio_range * radio_range;
    let edges = (0..n).flat_map(|i| {
        ((i + 1)..n)
            .filter(move |&j| positions[i].dist_sq(&positions[j]) <= r2)
            .map(move |j| (i, j))
    });
    CommGraph::from_edges(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_shape() {
        let t = Topology::grid(6, 9);
        assert_eq!(t.n(), 54);
        // Interior nodes have 4 neighbors, corners 2.
        assert_eq!(t.graph().degree(0), 2);
        let interior = 9 + 1;
        assert_eq!(t.graph().degree(interior), 4);
        assert!(t.graph().is_connected());
        // Grid edge count: r*(c-1) + c*(r-1).
        assert_eq!(t.graph().edge_count(), 6 * 8 + 9 * 5);
    }

    #[test]
    fn grid_positions_are_lattice() {
        let t = Topology::grid(2, 3);
        assert_eq!(t.position(0), Point::new(0.0, 0.0));
        assert_eq!(t.position(5), Point::new(2.0, 1.0));
    }

    #[test]
    fn random_topology_is_connected_and_deterministic() {
        let a = Topology::random_synthetic(100, 7);
        let b = Topology::random_synthetic(100, 7);
        assert!(a.graph().is_connected());
        assert_eq!(a.positions(), b.positions());
        assert_eq!(a.graph().edge_count(), b.graph().edge_count());
    }

    #[test]
    fn random_topology_seeds_differ() {
        let a = Topology::random_synthetic(50, 1);
        let b = Topology::random_synthetic(50, 2);
        assert_ne!(a.positions(), b.positions());
    }

    #[test]
    fn synthetic_average_degree_near_four() {
        // The preset aims for ~4 expected neighbors; allow generous slack
        // because connectivity enforcement may inflate the range for small n.
        let t = Topology::random_synthetic(400, 3);
        let avg = t.average_degree();
        assert!(avg > 2.0 && avg < 10.0, "average degree {avg}");
    }

    #[test]
    fn nearest_node_prefers_low_id_on_tie() {
        let t = Topology::grid(1, 3);
        // Midpoint between nodes 0 and 1.
        let p = Point::new(0.5, 0.0);
        assert_eq!(t.nearest_node(&p), 0);
    }

    #[test]
    fn nearest_among_subset() {
        let t = Topology::grid(1, 5);
        let p = Point::new(0.0, 0.0);
        assert_eq!(t.nearest_node_among(&p, [3, 4]), Some(3));
        assert_eq!(t.nearest_node_among(&p, []), None);
    }

    #[test]
    fn extent_contains_all_nodes() {
        let t = Topology::random_synthetic(60, 11);
        for p in t.positions() {
            assert!(t.extent().contains(p));
        }
        let g = Topology::grid(4, 4);
        for p in g.positions() {
            assert!(g.extent().contains(p));
        }
    }
}
