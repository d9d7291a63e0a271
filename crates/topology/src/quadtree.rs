//! Recursive quadtree decomposition with cell-leader election (§3.2).
//!
//! ELink schedules cluster growth from *sentinel sets* `S_0 … S_α`: sentinel
//! set `S_l` consists of the leaders of all quadtree cells at level `l`,
//! where a cell's leader is the node nearest the cell centroid (footnote 1 —
//! for routing purposes). Cells subdivide until they contain at most one
//! node; empty cells are pruned. Every node therefore leads some cell and
//! appears in exactly one sentinel set at its *shallowest* leading level,
//! matching the paper's accounting `Σ_l |S_l| = N`.

use crate::point::Rect;
use crate::topo::{NodeId, Topology};

/// Index of a quadtree cell.
pub type CellId = usize;

/// Hard cap on subdivision depth; only reachable with (near-)duplicate node
/// positions, in which case the deepest cell keeps multiple nodes and only
/// its leader is a sentinel.
const MAX_DEPTH: usize = 40;

/// One quadtree cell.
#[derive(Debug, Clone)]
pub struct QuadCell {
    /// Level in the quadtree (root = 0).
    pub level: usize,
    /// Spatial bounds.
    pub bounds: Rect,
    /// Parent cell (`None` for the root).
    pub parent: Option<CellId>,
    /// Non-empty child cells (up to 4).
    pub children: Vec<CellId>,
    /// The elected leader: node nearest the cell centroid.
    pub leader: NodeId,
    /// All nodes contained in the cell.
    pub nodes: Vec<NodeId>,
}

/// The full quadtree decomposition of a topology.
#[derive(Debug, Clone)]
pub struct QuadTree {
    cells: Vec<QuadCell>,
    root: CellId,
    levels: Vec<Vec<CellId>>,
    /// Per node: the shallowest level at which it leads a cell, or
    /// `usize::MAX` if it leads none (only possible with duplicate
    /// positions).
    sentinel_level: Vec<usize>,
}

impl QuadTree {
    /// Builds the quadtree for a topology.
    pub fn build(topology: &Topology) -> QuadTree {
        let all_nodes: Vec<NodeId> = (0..topology.n()).collect();
        let mut tree = QuadTree {
            cells: Vec::new(),
            root: 0,
            levels: Vec::new(),
            sentinel_level: vec![usize::MAX; topology.n()],
        };
        tree.root = tree.subdivide(topology, topology.extent(), all_nodes, 0, None);
        for (id, cell) in tree.cells.iter().enumerate() {
            while tree.levels.len() <= cell.level {
                tree.levels.push(Vec::new());
            }
            tree.levels[cell.level].push(id);
        }
        for cell in &tree.cells {
            let lvl = &mut tree.sentinel_level[cell.leader];
            *lvl = (*lvl).min(cell.level);
        }
        tree
    }

    fn subdivide(
        &mut self,
        topology: &Topology,
        bounds: Rect,
        nodes: Vec<NodeId>,
        level: usize,
        parent: Option<CellId>,
    ) -> CellId {
        debug_assert!(!nodes.is_empty(), "subdivide called with empty cell");
        let leader = topology
            .nearest_node_among(&bounds.center(), &nodes)
            .expect("non-empty cell has a leader");
        let id = self.cells.len();
        self.cells.push(QuadCell {
            level,
            bounds,
            parent,
            children: Vec::new(),
            leader,
            nodes: nodes.clone(),
        });
        if nodes.len() > 1 && level < MAX_DEPTH {
            let mut children = Vec::new();
            for quadrant in bounds.quadrants() {
                let members: Vec<NodeId> = nodes
                    .iter()
                    .copied()
                    .filter(|&v| quadrant.contains(&topology.position(v)))
                    .collect();
                if !members.is_empty() {
                    let child = self.subdivide(topology, quadrant, members, level + 1, Some(id));
                    children.push(child);
                }
            }
            self.cells[id].children = children;
        }
        id
    }

    /// The root cell id.
    pub fn root(&self) -> CellId {
        self.root
    }

    /// A cell by id.
    pub fn cell(&self, id: CellId) -> &QuadCell {
        &self.cells[id]
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The depth α (deepest level).
    pub fn depth(&self) -> usize {
        self.levels.len().saturating_sub(1)
    }

    /// Cell ids at a level (empty slice above the depth).
    pub fn cells_at_level(&self, level: usize) -> &[CellId] {
        self.levels.get(level).map_or(&[], Vec::as_slice)
    }

    /// Sentinel set `S_l`: the distinct leaders of cells at level `l`.
    pub fn sentinels_at_level(&self, level: usize) -> Vec<NodeId> {
        let mut leaders: Vec<NodeId> = self
            .cells_at_level(level)
            .iter()
            .map(|&c| self.cells[c].leader)
            .collect();
        leaders.sort_unstable();
        leaders.dedup();
        leaders
    }

    /// The shallowest level at which `node` leads a cell (its scheduling
    /// level for implicit signalling); `None` only with duplicate positions.
    pub fn sentinel_level(&self, node: NodeId) -> Option<usize> {
        let l = self.sentinel_level[node];
        (l != usize::MAX).then_some(l)
    }

    /// Iterates over all cells with their ids.
    pub fn iter_cells(&self) -> impl Iterator<Item = (CellId, &QuadCell)> {
        self.cells.iter().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn root_covers_everything() {
        let t = Topology::grid(4, 4);
        let qt = QuadTree::build(&t);
        let root = qt.cell(qt.root());
        assert_eq!(root.level, 0);
        assert_eq!(root.nodes.len(), 16);
        assert!(root.parent.is_none());
    }

    #[test]
    fn leaves_are_singletons() {
        let t = Topology::grid(4, 4);
        let qt = QuadTree::build(&t);
        for (_, cell) in qt.iter_cells() {
            if cell.children.is_empty() {
                assert_eq!(cell.nodes.len(), 1);
                assert_eq!(cell.leader, cell.nodes[0]);
            }
        }
    }

    #[test]
    fn every_node_is_a_sentinel_somewhere() {
        for topo in [Topology::grid(6, 9), Topology::random_synthetic(80, 5)] {
            let qt = QuadTree::build(&topo);
            for v in 0..topo.n() {
                assert!(
                    qt.sentinel_level(v).is_some(),
                    "node {v} never leads a cell"
                );
            }
            // Sentinel sets keyed by shallowest level partition all nodes.
            let total: usize = (0..topo.n())
                .map(|v| qt.sentinel_level(v).unwrap())
                .map(|_| 1)
                .sum();
            assert_eq!(total, topo.n());
        }
    }

    #[test]
    fn levels_partition_cells_spatially() {
        let t = Topology::grid(8, 8);
        let qt = QuadTree::build(&t);
        // Within a level, no node can appear in two cells.
        for l in 0..=qt.depth() {
            let mut seen = vec![false; t.n()];
            for &c in qt.cells_at_level(l) {
                for &v in &qt.cell(c).nodes {
                    assert!(!seen[v], "node {v} in two level-{l} cells");
                    seen[v] = true;
                }
            }
        }
    }

    #[test]
    fn children_are_subsets_of_parent() {
        let t = Topology::random_synthetic(60, 9);
        let qt = QuadTree::build(&t);
        for (_, cell) in qt.iter_cells() {
            let child_total: usize = cell.children.iter().map(|&c| qt.cell(c).nodes.len()).sum();
            if !cell.children.is_empty() {
                assert_eq!(child_total, cell.nodes.len());
                for &c in &cell.children {
                    let child = qt.cell(c);
                    assert_eq!(child.level, cell.level + 1);
                    for &v in &child.nodes {
                        assert!(cell.nodes.contains(&v));
                    }
                }
            }
        }
    }

    #[test]
    fn s0_has_single_sentinel() {
        let t = Topology::grid(6, 9);
        let qt = QuadTree::build(&t);
        assert_eq!(qt.sentinels_at_level(0).len(), 1);
    }

    #[test]
    fn depth_is_logarithmic_for_grid() {
        // For an n×n grid the quadtree depth is about log2(n) + O(1)
        // (levels halve the cell side until singleton cells).
        let t = Topology::grid(16, 16);
        let qt = QuadTree::build(&t);
        assert!(qt.depth() <= 6, "depth {} too large", qt.depth());
        assert!(qt.depth() >= 4, "depth {} too small", qt.depth());
    }

    #[test]
    fn leader_is_nearest_to_centroid() {
        let t = Topology::grid(4, 4);
        let qt = QuadTree::build(&t);
        for (_, cell) in qt.iter_cells() {
            let c = cell.bounds.center();
            let best = t.nearest_node_among(&c, &cell.nodes).unwrap();
            assert_eq!(cell.leader, best);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn quadtree_invariants_on_random_topologies(n in 2usize..120, seed in 0u64..1000) {
            let topo = Topology::random_synthetic(n, seed);
            let qt = QuadTree::build(&topo);
            // 1. Every node leads some cell.
            for v in 0..n {
                prop_assert!(qt.sentinel_level(v).is_some());
            }
            // 2. Root covers all nodes.
            prop_assert_eq!(qt.cell(qt.root()).nodes.len(), n);
            // 3. Parent pointers are consistent.
            for (id, cell) in qt.iter_cells() {
                for &ch in &cell.children {
                    prop_assert_eq!(qt.cell(ch).parent, Some(id));
                }
            }
            // 4. Leaders belong to their own cells.
            for (_, cell) in qt.iter_cells() {
                prop_assert!(cell.nodes.contains(&cell.leader));
            }
        }
    }
}
