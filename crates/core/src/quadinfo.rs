//! The §3.2 quadtree with cell-leader election, laid out flat for ELink's
//! signalling.
//!
//! ELink schedules cluster growth from *sentinel sets* `S_0 … S_α`: `S_l`
//! consists of the leaders of all quadtree cells at level `l`, where a
//! cell's leader is its member nearest the cell centroid (footnote 1 — for
//! routing purposes; ties go to the lower id). Cells split into SW, SE, NW
//! and NE quadrants until they hold one node; empty quadrants are pruned.
//! Every node therefore leads some cell and belongs to exactly one sentinel
//! set, at its *shallowest* leading level, matching the paper's accounting
//! `Σ_l |S_l| = N`. Explicit signalling (§5, Fig 18) sends `phase 1` up,
//! `phase 2` down and `start` to the children along the same cells.
//!
//! [`QuadInfo::build`](crate::quadinfo::QuadInfo::build) keeps the whole
//! tree in four flat vectors: the cells in pre-order (a cell id is a
//! pre-order index, root first, children in quadrant order), one list of
//! child ids in which each cell's children are contiguous, one node
//! permutation in which each cell's members are a range, and each node's
//! sentinel level. A node leads cell `c` exactly when `cell(c).leader()` is
//! that node, so no per-node list is needed.
//!
//! The vectors store `u32` ids and ranges and `u8` levels, so each of a
//! 64k-node grid's 87,381 cells takes 24 bytes; a cell id stays `usize` in
//! the API and in messages. The build writes this compact form directly:
//! building wide cells and narrowing them afterwards costs setup time
//! (DESIGN.md §11.4).

use elink_topology::{NodeId, Rect, Topology};
use std::ops::Range;

/// Index of a quadtree cell: its position in pre-order.
pub type CellId = usize;

/// Hard cap on subdivision depth; only reachable with (near-)duplicate node
/// positions, in which case the deepest cell keeps several nodes and only
/// its leader is a sentinel.
const MAX_DEPTH: usize = 40;

/// The root cell's id.
pub const ROOT: CellId = 0;

/// The packed parent id of the root cell.
const NO_PARENT: u32 = u32::MAX;

/// One quadtree cell, packed into 24 bytes: `u32` ids and ranges, `u8`
/// levels (levels never exceed `MAX_DEPTH`).
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    leader: u32,
    parent: u32,
    /// Where the cell's children start in the child list.
    first_child: u32,
    /// The cell's range of the node permutation.
    members: [u32; 2],
    level: u8,
    subtree_max_level: u8,
    child_count: u8,
}

impl Cell {
    /// Level in the quadtree (root = 0).
    pub fn level(&self) -> usize {
        self.level.into()
    }

    /// Parent cell (`None` for the root).
    pub fn parent(&self) -> Option<CellId> {
        (self.parent != NO_PARENT).then_some(self.parent as CellId)
    }

    /// The elected leader: the member nearest the cell centroid.
    pub fn leader(&self) -> NodeId {
        self.leader as NodeId
    }

    /// Deepest level in the cell's subtree (its own level for a leaf).
    pub fn subtree_max_level(&self) -> usize {
        self.subtree_max_level.into()
    }
}

/// The quadtree of one deployment, shared by every node.
#[derive(Debug, Clone)]
pub struct QuadInfo {
    /// Cells in pre-order.
    cells: Vec<Cell>,
    /// Child ids; each cell's children are one range, in quadrant order.
    children: Vec<u32>,
    /// Node permutation; each cell's members are one range of it.
    members: Vec<u32>,
    /// Shallowest level each node leads (its implicit-schedule level).
    sentinel_level: Vec<u8>,
}

impl QuadInfo {
    /// Subdivides a topology's extent. Panics on an empty topology.
    pub fn build(topology: &Topology) -> QuadInfo {
        let n = topology.n();
        // Each level's cells hold disjoint, non-empty member sets, so there
        // are at most n·(MAX_DEPTH + 1) cells: every id and range fits u32.
        assert!(
            n <= u32::MAX as usize / (MAX_DEPTH + 1),
            "{n} nodes overflow the quadtree's u32 ids"
        );
        let mut quad = QuadInfo {
            cells: Vec::new(),
            children: Vec::new(),
            members: (0..n as u32).collect(),
            sentinel_level: vec![u8::MAX; n],
        };
        quad.subdivide(
            topology,
            topology.extent(),
            0..n,
            0,
            NO_PARENT,
            &mut Vec::new(),
        );
        // Duplicate positions can leave a node leading no cell; treat it as
        // a deepest-level sentinel so it still gets scheduled.
        let depth = quad.cells[ROOT].subtree_max_level;
        for lvl in &mut quad.sentinel_level {
            *lvl = (*lvl).min(depth);
        }
        quad
    }

    /// Appends the cell `bounds` holding `members` and, depth first, its
    /// subtree; returns the subtree's deepest level.
    fn subdivide(
        &mut self,
        topology: &Topology,
        bounds: Rect,
        members: Range<usize>,
        level: u8,
        parent: u32,
        scratch: &mut Vec<(usize, u32)>,
    ) -> u8 {
        let id = self.cells.len();
        let candidates = self.members[members.clone()].iter().map(|&v| v as NodeId);
        let leader = topology
            .nearest_node_among(&bounds.center(), candidates)
            .expect("non-empty cell has a leader"); // simlint: allow(no-panic-in-protocol): setup, not a handler; only an empty topology has an empty cell
        self.sentinel_level[leader] = self.sentinel_level[leader].min(level);
        let first_child = self.children.len();
        self.cells.push(Cell {
            leader: leader as u32,
            parent,
            first_child: first_child as u32,
            members: [members.start as u32, members.end as u32],
            level,
            subtree_max_level: level,
            child_count: 0,
        });
        if members.len() < 2 || usize::from(level) >= MAX_DEPTH {
            return level;
        }
        // Counting sort of the members by quadrant, stable. Nodes in no
        // quadrant — only possible at the root, for positions outside the
        // extent — go last and join no child.
        let quadrants = bounds.quadrants();
        let mut next = [members.start; 5]; // where each quadrant's group starts
        scratch.clear();
        for &v in &self.members[members.clone()] {
            let p = topology.position(v as NodeId);
            let q = quadrants.iter().position(|r| r.contains(&p)).unwrap_or(4);
            scratch.push((q, v));
            for start in &mut next[q + 1..] {
                *start += 1;
            }
        }
        let starts = next;
        for &(q, v) in scratch.iter() {
            self.members[next[q]] = v;
            next[q] += 1;
        }
        let spans = [0, 1, 2, 3].map(|q| starts[q]..next[q]);
        let children = quadrants
            .into_iter()
            .zip(spans)
            .filter(|(_, span)| !span.is_empty());
        let count = children.clone().count();
        self.children.resize(first_child + count, 0);
        self.cells[id].child_count = count as u8;
        let mut deepest = level;
        for (slot, (quadrant, span)) in (first_child..).zip(children) {
            self.children[slot] = self.cells.len() as u32;
            let sub = self.subdivide(topology, quadrant, span, level + 1, id as u32, scratch);
            deepest = deepest.max(sub);
        }
        self.cells[id].subtree_max_level = deepest;
        deepest
    }

    /// A cell by id.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id]
    }

    /// Total number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// The depth α (deepest level).
    pub fn depth(&self) -> usize {
        self.cells[ROOT].subtree_max_level()
    }

    /// A cell's non-empty children, in quadrant order SW, SE, NW, NE.
    pub fn children(&self, id: CellId) -> impl ExactSizeIterator<Item = CellId> + '_ {
        let cell = &self.cells[id];
        let first = cell.first_child as usize;
        self.children[first..first + usize::from(cell.child_count)]
            .iter()
            .map(|&child| child as CellId)
    }

    /// The nodes inside a cell.
    pub fn members(&self, id: CellId) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        let [start, end] = self.cells[id].members;
        self.members[start as usize..end as usize]
            .iter()
            .map(|&v| v as NodeId)
    }

    /// Whether `node` leads cell `id`.
    pub fn leads(&self, node: NodeId, id: CellId) -> bool {
        self.cells.get(id).is_some_and(|cell| cell.leader() == node)
    }

    /// The shallowest level at which `node` leads a cell — its scheduling
    /// level for implicit signalling (the depth α if it leads none, which
    /// only duplicate positions allow).
    pub fn sentinel_level(&self, node: NodeId) -> usize {
        self.sentinel_level[node].into()
    }

    /// Number of `id`'s children whose subtree contains cells at `level` —
    /// the `phase 1` fan-in count for that level.
    pub fn phase1_fanin(&self, id: CellId, level: usize) -> usize {
        self.children(id)
            .filter(|&child| self.cells[child].subtree_max_level() >= level)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elink_topology::{CommGraph, Point};
    use proptest::prelude::*;

    /// `(level, parent, leader, sorted members)` and the children of every
    /// cell, in pre-order.
    type Cells = Vec<((usize, Option<CellId>, NodeId, Vec<NodeId>), Vec<CellId>)>;

    /// The subdivision `QuadInfo::build` must reproduce: each cell filters
    /// its parent's nodes by quadrant and recurses.
    fn oracle(t: &Topology) -> Cells {
        fn recurse(
            t: &Topology,
            bounds: Rect,
            nodes: Vec<NodeId>,
            level: usize,
            parent: Option<CellId>,
            out: &mut Cells,
        ) {
            let id = out.len();
            let leader = t
                .nearest_node_among(&bounds.center(), nodes.iter().copied())
                .unwrap();
            out.push(((level, parent, leader, nodes.clone()), vec![]));
            if nodes.len() < 2 || level >= MAX_DEPTH {
                return;
            }
            for quadrant in bounds.quadrants() {
                let inside: Vec<NodeId> = nodes
                    .iter()
                    .copied()
                    .filter(|&v| quadrant.contains(&t.position(v)))
                    .collect();
                if !inside.is_empty() {
                    let child = out.len();
                    out[id].1.push(child);
                    recurse(t, quadrant, inside, level + 1, Some(id), out);
                }
            }
        }
        let mut out = Vec::new();
        recurse(t, t.extent(), (0..t.n()).collect(), 0, None, &mut out);
        out
    }

    /// `QuadInfo::build` agrees with the oracle on every cell, on each
    /// cell's subtree depth and on every node's sentinel level.
    fn matches_oracle(t: &Topology) -> TestCaseResult {
        let q = QuadInfo::build(t);
        let expected = oracle(t);
        let built: Cells = (0..q.cell_count())
            .map(|c| {
                let (cell, mut members) = (q.cell(c), q.members(c).collect::<Vec<_>>());
                members.sort_unstable();
                (
                    (cell.level(), cell.parent(), cell.leader(), members),
                    q.children(c).collect(),
                )
            })
            .collect();
        prop_assert_eq!(built.len(), expected.len());
        for (id, (got, want)) in built.iter().zip(&expected).enumerate() {
            prop_assert_eq!(got, want, "cell {}", id);
        }
        let depth = expected
            .iter()
            .map(|((level, ..), _)| *level)
            .max()
            .unwrap();
        prop_assert_eq!(q.depth(), depth);
        let mut subtree_max = vec![0; expected.len()];
        let mut sentinel = vec![depth; t.n()];
        for (id, ((level, _, leader, _), children)) in expected.iter().enumerate().rev() {
            subtree_max[id] = children
                .iter()
                .map(|&c| subtree_max[c])
                .fold(*level, usize::max);
            prop_assert_eq!(
                q.cell(id).subtree_max_level(),
                subtree_max[id],
                "cell {}",
                id
            );
            sentinel[*leader] = sentinel[*leader].min(*level);
        }
        let levels: Vec<usize> = (0..t.n()).map(|v| q.sentinel_level(v)).collect();
        prop_assert_eq!(levels, sentinel);
        Ok(())
    }

    /// The structural invariants of any build without duplicate positions.
    fn check_invariants(t: &Topology) -> TestCaseResult {
        let q = QuadInfo::build(t);
        let root = q.cell(ROOT);
        prop_assert_eq!(
            (root.level(), root.parent(), q.members(ROOT).len()),
            (0, None, t.n())
        );
        prop_assert_eq!(q.sentinel_level(root.leader()), 0);
        let mut seen = vec![vec![false; t.n()]; q.depth() + 1];
        let mut shallowest = vec![usize::MAX; t.n()];
        for c in 0..q.cell_count() {
            let cell = q.cell(c);
            let (level, leader) = (cell.level(), cell.leader());
            let members: Vec<NodeId> = q.members(c).collect();
            let children: Vec<CellId> = q.children(c).collect();
            prop_assert_eq!(level == 0, c == ROOT);
            prop_assert!(q.leads(leader, c) && members.contains(&leader));
            shallowest[leader] = shallowest[leader].min(level);
            for &v in &members {
                let twice = std::mem::replace(&mut seen[level][v], true);
                prop_assert!(!twice, "node {} in two level-{} cells", v, level);
            }
            if children.is_empty() {
                prop_assert_eq!(&members, &[leader]);
            }
            let covered: usize = children.iter().map(|&ch| q.members(ch).len()).sum();
            prop_assert!(children.is_empty() || covered == members.len());
            for &ch in &children {
                let child = q.cell(ch);
                prop_assert_eq!((child.level(), child.parent()), (level + 1, Some(c)));
                prop_assert!(q.members(ch).all(|v| members.contains(&v)));
            }
        }
        for (v, &level) in shallowest.iter().enumerate() {
            prop_assert!(level <= q.depth(), "node {} never leads a cell", v);
            prop_assert_eq!(q.sentinel_level(v), level);
        }
        // The sentinel sets partition the nodes: Σ_l |S_l| = N.
        let set_size = |l| (0..t.n()).filter(|&v| q.sentinel_level(v) == l).count();
        prop_assert_eq!((0..=q.depth()).map(set_size).sum::<usize>(), t.n());
        let deepest = (0..q.cell_count()).map(|c| q.cell(c).level()).max();
        prop_assert_eq!(
            (Some(root.subtree_max_level()), Some(q.depth())),
            (deepest, deepest)
        );
        Ok(())
    }

    #[test]
    fn invariants_hold_on_grids_and_random_deployments() {
        for t in [
            Topology::grid(4, 4),
            Topology::grid(6, 9),
            Topology::grid(8, 8),
            Topology::random_synthetic(80, 5),
            Topology::random_synthetic(70, 3),
            Topology::random_synthetic(60, 9),
            Topology::random_synthetic(50, 9),
        ] {
            check_invariants(&t).unwrap();
        }
    }

    #[test]
    fn cells_are_packed() {
        // 87,381 cells on a 64k-node grid: their width is most of the
        // quadtree's memory (DESIGN.md §11.4).
        let size = std::mem::size_of::<Cell>();
        assert!(
            size <= 32,
            "a quadtree cell is {size} bytes, above the 32 of DESIGN.md §11.4"
        );
    }

    #[test]
    fn depth_is_logarithmic_for_grid() {
        // For an n×n grid the quadtree depth is about log2(n) + O(1)
        // (levels halve the cell side until singleton cells).
        let q = QuadInfo::build(&Topology::grid(16, 16));
        assert!(q.depth() <= 6, "depth {} too large", q.depth());
        assert!(q.depth() >= 4, "depth {} too small", q.depth());
    }

    #[test]
    fn phase1_fanin_counts_only_deep_branches() {
        let q = QuadInfo::build(&Topology::grid(4, 4));
        // At level 1, every child branch participates (all are non-empty).
        assert_eq!(q.phase1_fanin(ROOT, 1), q.children(ROOT).len());
        // Above the maximum depth nothing participates.
        assert_eq!(q.phase1_fanin(ROOT, q.depth() + 1), 0);
    }

    #[test]
    fn build_matches_oracle_on_fixed_deployments() {
        // The oracle elects each leader as the member nearest its cell's
        // centroid.
        matches_oracle(&Topology::grid(4, 4)).unwrap();
        // Three nodes share (1, 1): no split separates them, so the chain
        // stops at MAX_DEPTH with one cell holding all three, and the two
        // that lead no cell are scheduled at the depth.
        let positions = [(1.0, 1.0), (3.0, 3.0), (1.0, 1.0), (2.5, 0.5), (1.0, 1.0)];
        let positions = positions.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let graph = CommGraph::from_edges(5, []);
        let t = Topology::from_parts(positions, graph, Rect::new(0.0, 0.0, 4.0, 4.0));
        matches_oracle(&t).unwrap();
        let q = QuadInfo::build(&t);
        let deepest = (0..q.cell_count()).find(|&c| q.cell(c).level() == MAX_DEPTH);
        let deepest = deepest.unwrap();
        assert_eq!(
            (
                q.depth(),
                q.members(deepest).collect::<Vec<_>>(),
                q.cell(deepest).leader()
            ),
            (MAX_DEPTH, vec![0, 2, 4], 0)
        );
        assert_eq!(
            (q.sentinel_level(2), q.sentinel_level(4)),
            (MAX_DEPTH, MAX_DEPTH)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn quadtree_invariants_on_random_topologies(n in 2usize..120, seed in 0u64..1000) {
            check_invariants(&Topology::random_synthetic(n, seed))?;
        }

        #[test]
        fn build_matches_oracle_on_random_topologies(n in 1usize..400, seed in 0u64..1000) {
            matches_oracle(&Topology::random_synthetic(n, seed))?;
        }

        #[test]
        fn build_matches_oracle_on_grids(rows in 1usize..=32, cols in 1usize..=32) {
            matches_oracle(&Topology::grid(rows, cols))?;
        }
    }
}
