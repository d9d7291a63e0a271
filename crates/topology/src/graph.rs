//! Communication graph and hop-count routing.
//!
//! ELink's message-cost accounting (§8.2) charges one unit per hop, and the
//! quadtree signalling, backbone construction and centralized baselines all
//! route multi-hop over the communication graph. [`RoutingTable`] provides
//! shortest-path (BFS) next-hop routing from every node.

use std::collections::VecDeque;

/// Undirected communication graph over `n` nodes, stored as one flat
/// (CSR) adjacency: node `v`'s neighbours are
/// `targets[first[v]..first[v + 1]]`, in the order their edges were given
/// to [`CommGraph::from_edges`]. Two `u32` arrays, `n + 1` offsets and two
/// ids per edge, so every BFS reads its lists from one block.
#[derive(Debug, Clone)]
pub struct CommGraph {
    /// `n + 1` ascending offsets into `targets`; `first[0] == 0`.
    first: Vec<u32>,
    /// Each node's neighbours, node after node.
    targets: Vec<u32>,
}

impl CommGraph {
    /// Builds the graph on nodes `0..n` from an undirected edge list.
    /// Self loops and repeated edges (in either direction) are dropped,
    /// keeping the first occurrence, so each node lists its neighbours in
    /// the order of the edges that first named them.
    ///
    /// `edges` is read twice, a counting pass and then a filling pass, so
    /// no edge list is buffered: a transient block of 8 bytes per edge
    /// raised glibc's mmap threshold and, with it, the peak RSS of a 64k
    /// growth field by 1 MiB (DESIGN.md §11.4).
    ///
    /// # Panics
    /// Panics if an endpoint is `n` or more, or if `n` or twice the number
    /// of edges does not fit a `u32`.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
        I::IntoIter: Clone,
    {
        assert!(u32::try_from(n).is_ok(), "CommGraph: {n} nodes exceed u32");
        let edges = edges.into_iter().filter(|&(a, b)| {
            assert!(
                a < n && b < n,
                "edge ({a}, {b}) has an endpoint out of range for {n} nodes"
            );
            a != b
        });
        // Degrees (repeats included) shifted by one, then their prefix sums.
        let mut first = vec![0u32; n + 1];
        let mut len = 0usize;
        for (a, b) in edges.clone() {
            first[a + 1] += 1;
            first[b + 1] += 1;
            len += 2;
        }
        let len = u32::try_from(len).expect("CommGraph: 2 × edges exceed u32");
        for v in 0..n {
            first[v + 1] += first[v];
        }
        let mut targets = vec![0u32; len as usize];
        // `first[v]` is `v`'s write cursor; afterwards it has moved to
        // where `v + 1`'s list begins.
        for (a, b) in edges {
            for (from, to) in [(a, b), (b, a)] {
                targets[first[from] as usize] = to as u32;
                first[from] += 1;
            }
        }
        first.copy_within(0..n, 1);
        first[0] = 0;
        // Drop repeats in place, keeping each neighbour's first occurrence:
        // `seen[w] == v` marks `w` as already listed for `v`.
        let mut seen = vec![u32::MAX; n];
        let (mut start, mut kept) = (0, 0);
        for v in 0..n {
            let end = first[v + 1] as usize;
            for i in start..end {
                let w = targets[i];
                if seen[w as usize] != v as u32 {
                    seen[w as usize] = v as u32;
                    targets[kept] = w;
                    kept += 1;
                }
            }
            // `kept <= end <= len`, which fits a `u32`.
            first[v + 1] = kept as u32;
            start = end;
        }
        targets.truncate(kept);
        targets.shrink_to_fit();
        CommGraph { first, targets }
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.first.len() - 1
    }

    /// Number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.targets.len() / 2
    }

    /// Neighbors of `v`.
    pub fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.first[v] as usize..self.first[v + 1] as usize]
    }

    /// Degree of `v`.
    pub fn degree(&self, v: usize) -> usize {
        (self.first[v + 1] - self.first[v]) as usize
    }

    /// Maximum degree over all nodes (the paper's constant `d`).
    pub fn max_degree(&self) -> usize {
        self.first
            .windows(2)
            .map(|w| (w[1] - w[0]) as usize)
            .max()
            .unwrap_or(0)
    }

    /// Whether an edge exists.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.neighbors(a).contains(&(b as u32))
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
            for &w in self.neighbors(v as usize) {
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
                for &w in self.neighbors(v) {
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
                for &w in self.neighbors(v) {
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

/// All-pairs shortest-path next-hop routing, built with one BFS per
/// destination.
///
/// A sensor forwarding towards `dst` only needs to know which of its own
/// radio neighbours to hand the message to, so storage is one *port row*
/// per destination: entry `v` of row `dst` is the index, in `v`'s own
/// adjacency list, of `v`'s parent in the BFS tree rooted at `dst` (the
/// next hop from `v` towards `dst`). Ports are `u8` whenever every port
/// fits below the "no route" sentinel `u8::MAX`, that is when no node has
/// more than 255 neighbours: 1 byte per ordered pair, 1 MiB at 1,024
/// nodes, 256 MiB at 16,384 and 4 GiB at 65,536. A graph with a wider
/// node gets `u16` ports (sentinel `u16::MAX`), built and read by the same
/// generic code; no node-id row is kept beside the ports. "No route"
/// covers `v == dst` and an unreachable `dst`.
///
/// A port means something only against the adjacency it indexes, so the
/// table keeps a copy of the graph it was built from (`n + 1` offsets and
/// two ids per edge, 62 KiB for the 1,024-node serving deployment):
/// no caller of [`RoutingTable::next_hop`], [`RoutingTable::hops`] or
/// [`RoutingTable::path`] needs the graph at hand. There is no hop
/// matrix: `hops` and `path` walk the route in O(route length), and
/// [`RoutingTable::diameter`] is the deepest BFS level the build reached.
///
/// Each destination's row is its own allocation. One flat `n²` buffer is
/// large enough for glibc to map and unmap it on every build, and each
/// unmap raises its mmap threshold, so a process that builds one table per
/// deployment fragments its heap and its peak RSS creeps up run after run;
/// `n`-sized rows stay on the ordinary heap and are reused.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    rows: PortRows,
    /// The adjacency the ports index into.
    graph: CommGraph,
    /// The largest finite hop count between two nodes.
    diameter: u32,
}

/// One port row per destination, at the narrowest width that names every
/// port of the graph.
#[derive(Debug, Clone)]
enum PortRows {
    /// Every node has at most 255 neighbours.
    Narrow(Vec<Vec<u8>>),
    /// Some node has 256 or more.
    Wide(Vec<Vec<u16>>),
}

/// A next-hop port: an index into the forwarding node's own adjacency
/// list, with the type's largest value meaning "no route".
trait Port: Copy + Eq + TryFrom<usize> + Into<usize> {
    const NONE: Self;

    /// The adjacency index, or `None` for [`Port::NONE`].
    fn index(self) -> Option<usize> {
        (self != Self::NONE).then(|| self.into())
    }
}

impl Port for u8 {
    const NONE: u8 = u8::MAX;
}

impl Port for u16 {
    const NONE: u16 = u16::MAX;
}

impl RoutingTable {
    /// The most nodes a table can route: a node then has at most 65,535
    /// neighbours, so a `u16` port always stays below its sentinel (and
    /// the BFS queue holds `u16` ids).
    const MAX_NODES: usize = 1 << 16;

    /// Builds the routing table for a graph: one FIFO BFS per destination,
    /// visiting neighbours in adjacency order, so a node's next hop is the
    /// neighbour through which the BFS from `dst` first reached it (the
    /// parent [`CommGraph::bfs_tree`] gives). The port width follows from
    /// [`CommGraph::max_degree`].
    ///
    /// # Panics
    /// Panics if the graph has more than 65,536 nodes.
    pub fn build(graph: &CommGraph) -> Self {
        let n = graph.n();
        assert!(
            n <= Self::MAX_NODES,
            "RoutingTable: {n} nodes exceed the 65,536 whose neighbours u16 ports can name"
        );
        let (rows, diameter) = if graph.max_degree() <= usize::from(u8::NONE) {
            let (rows, diameter) = build_port_rows(graph);
            (PortRows::Narrow(rows), diameter)
        } else {
            let (rows, diameter) = build_port_rows(graph);
            (PortRows::Wide(rows), diameter)
        };
        RoutingTable {
            rows,
            graph: graph.clone(),
            diameter,
        }
    }

    /// Next hop from `src` towards `dst`. `None` if `src == dst` or
    /// unreachable.
    pub fn next_hop(&self, src: usize, dst: usize) -> Option<usize> {
        let port = match &self.rows {
            PortRows::Narrow(rows) => rows[dst][src].index(),
            PortRows::Wide(rows) => rows[dst][src].index(),
        }?;
        Some(self.graph.neighbors(src)[port] as usize)
    }

    /// Hop count from `src` to `dst`; `None` if unreachable. Walks the
    /// route, so it costs O(hops).
    pub fn hops(&self, src: usize, dst: usize) -> Option<u32> {
        let (mut cur, mut hops) = (src, 0);
        while cur != dst {
            cur = self.next_hop(cur, dst)?;
            hops += 1;
        }
        Some(hops)
    }

    /// The full node sequence of a shortest path (inclusive of endpoints).
    pub fn path(&self, src: usize, dst: usize) -> Option<Vec<usize>> {
        let mut path = vec![src];
        let mut cur = src;
        while cur != dst {
            cur = self.next_hop(cur, dst)?;
            path.push(cur);
        }
        Some(path)
    }

    /// The network's hop diameter: the largest finite hop count between
    /// two nodes (0 when no two nodes are connected).
    pub fn diameter(&self) -> u32 {
        self.diameter
    }
}

/// The BFS passes of [`RoutingTable::build`] at port width `P`: one row
/// per destination, and the deepest BFS level reached. When `v` discovers
/// `w`, `w`'s port towards `v` is read from the reverse-port slice that
/// runs beside `v`'s neighbour slice, so the inner loop walks two slices
/// together.
fn build_port_rows<P: Port>(graph: &CommGraph) -> (Vec<Vec<P>>, u32) {
    let n = graph.n();
    // `back[e]` for the adjacency slot `e` of `v` naming `w`: the index of
    // `v` in `w`'s own list. Finding it by scanning `w`'s list costs the
    // sum of squared degrees, at most what the BFS passes cost.
    let back: Vec<P> = (0..n)
        .flat_map(|v| {
            graph.neighbors(v).iter().map(move |&w| {
                let list = graph.neighbors(w as usize);
                let at = list.iter().position(|&u| u as usize == v);
                let at = at.expect("an undirected adjacency lists each edge at both ends");
                let port = P::try_from(at).ok().filter(|&port| port != P::NONE);
                port.expect("the port width names every adjacency index")
            })
        })
        .collect();
    let mut queue: Vec<u16> = Vec::with_capacity(n);
    let mut diameter = 0;
    let rows = (0..n)
        .map(|dst| {
            let mut row = vec![P::NONE; n];
            queue.clear();
            // `dst < n ≤ 65,536`, so the cast is exact.
            queue.push(dst as u16);
            // `level` is the BFS depth of `queue[head]`; the level ends at
            // `level_end`.
            let (mut head, mut level, mut level_end) = (0, 0, 1);
            while head < queue.len() {
                if head == level_end {
                    level += 1;
                    level_end = queue.len();
                }
                let v = usize::from(queue[head]);
                head += 1;
                let slots = graph.first[v] as usize..graph.first[v + 1] as usize;
                for (&w, &port) in graph.targets[slots.clone()].iter().zip(&back[slots]) {
                    let w = w as usize;
                    if w != dst && row[w] == P::NONE {
                        row[w] = port;
                        queue.push(w as u16);
                    }
                }
            }
            diameter = diameter.max(level);
            row
        })
        .collect();
    (rows, diameter)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Path graph 0-1-2-3.
    fn path4() -> CommGraph {
        CommGraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn from_edges_drops_repeats_and_self_loops() {
        let g = CommGraph::from_edges(3, [(0, 1), (1, 0), (1, 1)]);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 1);
    }

    #[test]
    #[should_panic(expected = "edge (1, 3) has an endpoint out of range for 3 nodes")]
    fn from_edges_rejects_an_out_of_range_endpoint() {
        CommGraph::from_edges(3, [(0, 1), (1, 3)]);
    }

    #[test]
    fn bfs_hops_path_graph() {
        let g = path4();
        assert_eq!(g.bfs_hops(0), vec![0, 1, 2, 3]);
        assert_eq!(g.bfs_hops(2), vec![2, 1, 0, 1]);
    }

    #[test]
    fn unreachable_is_max() {
        let g = CommGraph::from_edges(3, [(0, 1)]);
        assert_eq!(g.bfs_hops(0)[2], u32::MAX);
        assert!(!g.is_connected());
    }

    #[test]
    fn components_found() {
        let g = CommGraph::from_edges(5, [(0, 1), (2, 3)]);
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
        let g = CommGraph::from_edges(3, [(0, 1)]);
        let rt = RoutingTable::build(&g);
        assert_eq!(rt.next_hop(0, 2), None);
        assert_eq!(rt.hops(0, 2), None);
        assert_eq!(rt.path(0, 2), None);
    }

    #[test]
    fn routing_diameter_is_the_deepest_bfs_level() {
        assert_eq!(RoutingTable::build(&path4()).diameter(), 3);
        // Two components: a path of 3 and an isolated node.
        let g = CommGraph::from_edges(4, [(0, 1), (1, 2)]);
        assert_eq!(RoutingTable::build(&g).diameter(), 2);
        let isolated = |n| CommGraph::from_edges(n, []);
        assert_eq!(RoutingTable::build(&isolated(3)).diameter(), 0);
        assert_eq!(RoutingTable::build(&isolated(0)).diameter(), 0);
    }

    #[test]
    #[should_panic(expected = "exceed the 65,536")]
    fn routing_rejects_more_nodes_than_u16_can_name() {
        // The assertion fires before any row is allocated; the 65,537
        // one-byte rows it guards against would take 4 GiB.
        RoutingTable::build(&CommGraph::from_edges((1 << 16) + 1, []));
    }

    /// A star: hub 0 with `leaves` leaves, listed in id order.
    fn star(leaves: usize) -> CommGraph {
        CommGraph::from_edges(leaves + 1, (1..=leaves).map(|leaf| (0, leaf)))
    }

    #[test]
    fn routing_rows_take_one_byte_per_pair_below_degree_256() {
        for g in [path4(), star(255)] {
            let rt = RoutingTable::build(&g);
            let PortRows::Narrow(rows) = &rt.rows else {
                panic!("max degree {} needs no u16 ports", g.max_degree());
            };
            assert_eq!(rows.len(), g.n());
            assert!(rows.iter().all(|row| row.len() == g.n()));
            assert_eq!(std::mem::size_of_val(&rows[0][0]), 1);
        }
        // The hub's last port, 254, still sits below the sentinel.
        let rt = RoutingTable::build(&star(255));
        assert_eq!(rt.next_hop(0, 255), Some(255));
        assert_eq!(rt.next_hop(255, 254), Some(0));
        assert!(matches!(
            RoutingTable::build(&star(256)).rows,
            PortRows::Wide(_)
        ));
    }

    #[test]
    fn max_degree() {
        let g = CommGraph::from_edges(4, [(0, 1), (0, 2), (0, 3)]);
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
                // Spanning path guarantees connectivity.
                let path = (1..n).map(|i| (i - 1, i));
                let extra = extra.into_iter().map(|(a, b)| (a % n, b % n));
                CommGraph::from_edges(n, path.chain(extra))
            })
    }

    /// Graphs with disconnected parts and isolated nodes: random edges
    /// only, no spanning path.
    fn random_sparse_graph() -> impl Strategy<Value = CommGraph> {
        (
            1usize..40,
            proptest::collection::vec((0usize..1000, 0usize..1000), 0..50),
        )
            .prop_map(|(n, edges)| {
                CommGraph::from_edges(n, edges.into_iter().map(|(a, b)| (a % n, b % n)))
            })
    }

    /// Edge lists that mix fresh edges, repeats, reversed repeats and self
    /// loops, on up to 40 nodes (so some stay isolated).
    fn random_edge_list() -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
        (
            1usize..40,
            proptest::collection::vec((0usize..4, 0usize..1000, 0usize..1000), 0..80),
        )
            .prop_map(|(n, ops)| {
                let mut edges: Vec<(usize, usize)> = Vec::new();
                for (kind, a, b) in ops {
                    let edge = match (kind, edges.get(b % edges.len().max(1))) {
                        (1, Some(&e)) => e,
                        (2, Some(&(x, y))) => (y, x),
                        (3, _) => (a % n, a % n),
                        _ => (a % n, b % n),
                    };
                    edges.push(edge);
                }
                (n, edges)
            })
    }

    /// The per-node-list builder `from_edges` replaced: `add_edge` pushed
    /// each new edge onto both endpoints' lists and ignored self loops and
    /// edges already present.
    struct ListOracle {
        adj: Vec<Vec<u32>>,
        edge_count: usize,
    }

    impl ListOracle {
        fn build(n: usize, edges: &[(usize, usize)]) -> Self {
            let mut oracle = ListOracle {
                adj: vec![Vec::new(); n],
                edge_count: 0,
            };
            for &(a, b) in edges {
                if a == b || oracle.adj[a].contains(&(b as u32)) {
                    continue;
                }
                oracle.adj[a].push(b as u32);
                oracle.adj[b].push(a as u32);
                oracle.edge_count += 1;
            }
            oracle
        }
    }

    /// The two-matrix table `RoutingTable` replaced: per destination, one
    /// FIFO BFS fills a `u32` parent row and a `u32` hop row, with
    /// `u32::MAX` for "unreachable".
    struct Oracle {
        parent_towards: Vec<Vec<u32>>,
        hops: Vec<Vec<u32>>,
    }

    impl Oracle {
        fn build(g: &CommGraph) -> Self {
            let mut oracle = Oracle {
                parent_towards: Vec::new(),
                hops: Vec::new(),
            };
            for dst in 0..g.n() {
                let mut parent = vec![u32::MAX; g.n()];
                let mut dist = vec![u32::MAX; g.n()];
                let mut queue = VecDeque::new();
                parent[dst] = dst as u32;
                dist[dst] = 0;
                queue.push_back(dst);
                while let Some(v) = queue.pop_front() {
                    for &w in g.neighbors(v) {
                        if parent[w as usize] == u32::MAX {
                            parent[w as usize] = v as u32;
                            dist[w as usize] = dist[v] + 1;
                            queue.push_back(w as usize);
                        }
                    }
                }
                oracle.parent_towards.push(parent);
                oracle.hops.push(dist);
            }
            oracle
        }

        fn next_hop(&self, src: usize, dst: usize) -> Option<usize> {
            let p = self.parent_towards[dst][src];
            (src != dst && p != u32::MAX).then_some(p as usize)
        }

        fn hops(&self, src: usize, dst: usize) -> Option<u32> {
            let h = self.hops[dst][src];
            (h != u32::MAX).then_some(h)
        }

        fn path(&self, src: usize, dst: usize) -> Option<Vec<usize>> {
            let mut path = vec![src];
            while *path.last()? != dst {
                path.push(self.next_hop(*path.last()?, dst)?);
            }
            Some(path)
        }

        /// The old O(n²) diameter scan.
        fn diameter(&self) -> u32 {
            self.hops
                .iter()
                .flatten()
                .filter(|&&h| h != u32::MAX)
                .max()
                .copied()
                .unwrap_or(0)
        }
    }

    /// A hub with 300 leaves, whose adjacency lists them in id order, plus
    /// a path through the leaves: routes between distant leaves cross the
    /// hub, which forwards through ports up to 299. Read as `u8`, a port of
    /// 255 or more would alias a lower leaf or the sentinel.
    #[test]
    fn wide_ports_route_like_the_two_matrix_bfs() {
        let leaves = 300;
        let star = (1..=leaves).map(|leaf| (0, leaf));
        let path = (2..=leaves).map(|leaf| (leaf - 1, leaf));
        let g = CommGraph::from_edges(leaves + 1, star.chain(path));
        let rt = RoutingTable::build(&g);
        assert!(matches!(rt.rows, PortRows::Wide(_)));
        let oracle = Oracle::build(&g);
        for src in 0..g.n() {
            for dst in 0..g.n() {
                assert_eq!(rt.next_hop(src, dst), oracle.next_hop(src, dst));
                assert_eq!(rt.hops(src, dst), oracle.hops(src, dst));
                assert_eq!(rt.path(src, dst), oracle.path(src, dst));
            }
        }
        assert_eq!(rt.diameter(), oracle.diameter());
        assert_eq!(rt.path(1, leaves), Some(vec![1, 0, leaves]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn port_rows_route_like_the_two_matrix_bfs(g in random_sparse_graph()) {
            let rt = RoutingTable::build(&g);
            let oracle = Oracle::build(&g);
            for src in 0..g.n() {
                for dst in 0..g.n() {
                    prop_assert_eq!(rt.next_hop(src, dst), oracle.next_hop(src, dst));
                    prop_assert_eq!(rt.hops(src, dst), oracle.hops(src, dst));
                    prop_assert_eq!(rt.path(src, dst), oracle.path(src, dst));
                }
            }
            prop_assert_eq!(rt.diameter(), oracle.diameter());
        }

        #[test]
        fn flat_adjacency_lists_like_the_per_node_builder(case in random_edge_list()) {
            let (n, edges) = case;
            let g = CommGraph::from_edges(n, edges.iter().copied());
            let oracle = ListOracle::build(n, &edges);
            prop_assert_eq!(g.n(), n);
            prop_assert_eq!(g.edge_count(), oracle.edge_count);
            let max_degree = oracle.adj.iter().map(Vec::len).max().unwrap_or(0);
            prop_assert_eq!(g.max_degree(), max_degree);
            for v in 0..n {
                prop_assert_eq!(g.neighbors(v), oracle.adj[v].as_slice());
                prop_assert_eq!(g.degree(v), oracle.adj[v].len());
                for w in 0..n {
                    prop_assert_eq!(g.has_edge(v, w), oracle.adj[v].contains(&(w as u32)));
                }
            }
        }

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
