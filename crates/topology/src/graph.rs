//! Communication graph and hop-count routing.
//!
//! ELink's message-cost accounting (§8.2) charges one unit per hop, and the
//! quadtree signalling, backbone construction and centralized baselines all
//! route multi-hop over the communication graph. [`RoutingTable`] provides
//! shortest-path (BFS) next-hop routing from every node.

use std::collections::VecDeque;

/// Undirected communication graph over `n` nodes, stored as adjacency lists.
#[derive(Debug, Clone)]
pub struct CommGraph {
    adj: Vec<Vec<u32>>,
    edge_count: usize,
}

impl CommGraph {
    /// Creates a graph with `n` isolated nodes.
    pub fn new(n: usize) -> Self {
        CommGraph {
            adj: vec![Vec::new(); n],
            edge_count: 0,
        }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.adj.len()
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Adds an undirected edge. Duplicate and self edges are ignored.
    pub fn add_edge(&mut self, a: usize, b: usize) {
        assert!(a < self.n() && b < self.n(), "edge endpoint out of range");
        if a == b || self.adj[a].contains(&(b as u32)) {
            return;
        }
        self.adj[a].push(b as u32);
        self.adj[b].push(a as u32);
        self.edge_count += 1;
    }

    /// Neighbors of `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.adj[v]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        self.adj[v].len()
    }

    /// Maximum degree over all nodes (the paper's constant `d`).
    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Whether an edge exists.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj[a].contains(&(b as u32))
    }

    /// BFS hop distances from `src`; unreachable nodes get `u32::MAX`.
    pub fn bfs_hops(&self, src: usize) -> Vec<u32> {
        self.bfs(src).1
    }

    /// BFS parents from `root` (a shortest-path spanning tree); `parent[root]
    /// == root`, unreachable nodes get `u32::MAX`.
    pub fn bfs_tree(&self, root: usize) -> Vec<u32> {
        self.bfs(root).0
    }

    /// One BFS from `root` filling both [`CommGraph::bfs_tree`] and
    /// [`CommGraph::bfs_hops`]: the first discovery of a node fixes its
    /// parent and its hop count together.
    fn bfs(&self, root: usize) -> (Vec<u32>, Vec<u32>) {
        let mut parent = vec![u32::MAX; self.n()];
        let mut dist = vec![u32::MAX; self.n()];
        let mut queue = VecDeque::new();
        parent[root] = root as u32;
        dist[root] = 0;
        queue.push_back(root as u32);
        while let Some(v) = queue.pop_front() {
            let dv = dist[v as usize];
            // Deterministic order: adjacency lists are built deterministically.
            for &w in &self.adj[v as usize] {
                if parent[w as usize] == u32::MAX {
                    parent[w as usize] = v;
                    dist[w as usize] = dv + 1;
                    queue.push_back(w);
                }
            }
        }
        (parent, dist)
    }

    /// Whether the graph is connected (trivially true for n ≤ 1).
    pub fn is_connected(&self) -> bool {
        if self.n() <= 1 {
            return true;
        }
        self.bfs_hops(0).iter().all(|&d| d != u32::MAX)
    }

    /// Connected components as lists of node ids.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let mut seen = vec![false; self.n()];
        let mut comps = Vec::new();
        for start in 0..self.n() {
            if seen[start] {
                continue;
            }
            let mut comp = Vec::new();
            let mut queue = VecDeque::new();
            seen[start] = true;
            queue.push_back(start);
            while let Some(v) = queue.pop_front() {
                comp.push(v);
                for &w in &self.adj[v] {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        queue.push_back(w as usize);
                    }
                }
            }
            comps.push(comp);
        }
        comps
    }

    /// Connected components restricted to an induced subset of nodes.
    /// Used to check δ-cluster connectivity (Definition 1, condition 1).
    pub fn induced_components(&self, members: &[usize]) -> Vec<Vec<usize>> {
        let mut in_set = vec![false; self.n()];
        for &m in members {
            in_set[m] = true;
        }
        let mut seen = vec![false; self.n()];
        let mut comps = Vec::new();
        for &start in members {
            if seen[start] {
                continue;
            }
            let mut comp = Vec::new();
            let mut queue = VecDeque::new();
            seen[start] = true;
            queue.push_back(start);
            while let Some(v) = queue.pop_front() {
                comp.push(v);
                for &w in &self.adj[v] {
                    let w = w as usize;
                    if in_set[w] && !seen[w] {
                        seen[w] = true;
                        queue.push_back(w);
                    }
                }
            }
            comps.push(comp);
        }
        comps
    }
}

/// All-pairs shortest-path next-hop routing, built with one BFS per node.
///
/// `next_hop(src, dst)` gives the neighbor of `src` on a shortest path to
/// `dst`; `hops(src, dst)` gives the path length. Storage is `O(n²)` which is
/// fine for the ≤ 4096-node networks in the experiments.
///
/// Each destination's row is its own allocation. Two flat `n²` buffers are
/// large enough for glibc to map and unmap them on every build, and each
/// unmap raises its mmap threshold, so a process that builds one table per
/// deployment fragments its heap and its peak RSS creeps up run after run;
/// `n`-sized rows stay on the ordinary heap and are reused.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    /// `parent_towards[dst][v]` is the parent of `v` in the BFS tree rooted
    /// at `dst` (i.e. the next hop from `v` towards `dst`).
    parent_towards: Vec<Vec<u32>>,
    /// `hops[dst][v]` is the hop count from `v` to `dst`.
    hops: Vec<Vec<u32>>,
}

impl RoutingTable {
    /// Builds the routing table for a graph: one BFS per destination fills
    /// both of its rows.
    pub fn build(graph: &CommGraph) -> Self {
        let (parent_towards, hops) = (0..graph.n()).map(|dst| graph.bfs(dst)).unzip();
        RoutingTable {
            parent_towards,
            hops,
        }
    }

    /// Next hop from `src` towards `dst`. `None` if `src == dst` or
    /// unreachable.
    pub fn next_hop(&self, src: usize, dst: usize) -> Option<usize> {
        if src == dst {
            return None;
        }
        let p = self.parent_towards[dst][src];
        if p == u32::MAX {
            None
        } else {
            Some(p as usize)
        }
    }

    /// Hop count from `src` to `dst`; `None` if unreachable.
    pub fn hops(&self, src: usize, dst: usize) -> Option<u32> {
        let h = self.hops[dst][src];
        if h == u32::MAX {
            None
        } else {
            Some(h)
        }
    }

    /// The full node sequence of a shortest path (inclusive of endpoints).
    pub fn path(&self, src: usize, dst: usize) -> Option<Vec<usize>> {
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self.next_hop(cur, dst)?;
            path.push(cur);
            if path.len() > self.hops.len() {
                return None; // corrupted table; defensive
            }
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0-1-2-3.
    fn path4() -> CommGraph {
        let mut g = CommGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 3);
        g
    }

    #[test]
    fn add_edge_ignores_dups_and_self_loops() {
        let mut g = CommGraph::new(3);
        g.add_edge(0, 1);
        g.add_edge(1, 0);
        g.add_edge(1, 1);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    fn bfs_hops_path_graph() {
        let g = path4();
        assert_eq!(g.bfs_hops(0), vec![0, 1, 2, 3]);
        assert_eq!(g.bfs_hops(2), vec![2, 1, 0, 1]);
    }

    #[test]
    fn unreachable_is_max() {
        let mut g = CommGraph::new(3);
        g.add_edge(0, 1);
        assert_eq!(g.bfs_hops(0)[2], u32::MAX);
        assert!(!g.is_connected());
    }

    #[test]
    fn components_found() {
        let mut g = CommGraph::new(5);
        g.add_edge(0, 1);
        g.add_edge(2, 3);
        let comps = g.components();
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![0, 1]);
        assert_eq!(comps[1], vec![2, 3]);
        assert_eq!(comps[2], vec![4]);
    }

    #[test]
    fn induced_components_respect_subset() {
        let g = path4();
        // {0, 1, 3}: removing node 2 disconnects 3.
        let comps = g.induced_components(&[0, 1, 3]);
        assert_eq!(comps.len(), 2);
    }

    #[test]
    fn routing_table_next_hops() {
        let g = path4();
        let rt = RoutingTable::build(&g);
        assert_eq!(rt.next_hop(0, 3), Some(1));
        assert_eq!(rt.next_hop(3, 0), Some(2));
        assert_eq!(rt.next_hop(2, 2), None);
        assert_eq!(rt.hops(0, 3), Some(3));
        assert_eq!(rt.hops(1, 1), Some(0));
    }

    #[test]
    fn routing_path_reconstruction() {
        let g = path4();
        let rt = RoutingTable::build(&g);
        assert_eq!(rt.path(0, 3).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(rt.path(2, 2).unwrap(), vec![2]);
    }

    #[test]
    fn routing_handles_disconnection() {
        let mut g = CommGraph::new(3);
        g.add_edge(0, 1);
        let rt = RoutingTable::build(&g);
        assert_eq!(rt.next_hop(0, 2), None);
        assert_eq!(rt.hops(0, 2), None);
        assert_eq!(rt.path(0, 2), None);
    }

    #[test]
    fn max_degree() {
        let mut g = CommGraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(0, 2);
        g.add_edge(0, 3);
        assert_eq!(g.max_degree(), 3);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn random_connected_graph() -> impl Strategy<Value = CommGraph> {
        (
            2usize..30,
            proptest::collection::vec((0usize..1000, 0usize..1000), 0..60),
        )
            .prop_map(|(n, extra)| {
                let mut g = CommGraph::new(n);
                // Spanning path guarantees connectivity.
                for i in 1..n {
                    g.add_edge(i - 1, i);
                }
                for (a, b) in extra {
                    g.add_edge(a % n, b % n);
                }
                g
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn bfs_distances_satisfy_edge_relaxation(g in random_connected_graph()) {
            let d = g.bfs_hops(0);
            for v in 0..g.n() {
                for &w in g.neighbors(v) {
                    // Neighbor distances differ by at most 1.
                    let dv = d[v] as i64;
                    let dw = d[w as usize] as i64;
                    prop_assert!((dv - dw).abs() <= 1);
                }
            }
        }

        #[test]
        fn routing_paths_have_reported_length(g in random_connected_graph()) {
            let rt = RoutingTable::build(&g);
            let n = g.n();
            for src in 0..n.min(5) {
                for dst in 0..n {
                    let path = rt.path(src, dst).unwrap();
                    prop_assert_eq!(path.len() as u32 - 1, rt.hops(src, dst).unwrap());
                    // Consecutive path nodes must be graph edges.
                    for pair in path.windows(2) {
                        prop_assert!(g.has_edge(pair[0], pair[1]));
                    }
                }
            }
        }
    }
}
