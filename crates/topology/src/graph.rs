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

/// All-pairs shortest-path next-hop routing: the routes of one FIFO BFS
/// per destination, built by BFS waves from the forwarding nodes, 128 at a
/// time (see [`RoutingTable::build`]).
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
    /// neighbours, so a `u16` port always stays below its sentinel.
    const MAX_NODES: usize = 1 << 16;

    /// Builds the routing table for a graph. A node's next hop towards
    /// `dst` is the neighbour through which a FIFO BFS from `dst`, visiting
    /// neighbours in adjacency order, first reached it (the parent
    /// [`CommGraph::bfs_tree`] gives). That BFS reaches each node along the
    /// lexicographically least port sequence among the shortest paths,
    /// which can also be built greedily from the `dst` end. So the rows
    /// come from BFS waves run from the *forwarding* nodes, level by level
    /// and 128 at a time, one bit each in a `u128` per node: a node a wave
    /// reaches takes its entry from the first neighbour, in its own
    /// adjacency order, that the wave reached one level earlier. The
    /// waves of nearby nodes share their levels, so on the 1,024-node
    /// serving deployment a build visits 1.5M adjacency slots where one
    /// BFS per destination visits 15.2M, and takes about a quarter of the
    /// time. Grids from 20 × 30 to 64 × 64 build up to 17% faster than
    /// with one BFS per destination (64 × 64 about level), and paths about
    /// twice as slowly: a pass then runs a level per hop with few
    /// discoveries each (DESIGN.md §11.4 has the timings). The port width
    /// follows from [`CommGraph::max_degree`].
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

/// BFS waves per pass of [`build_port_rows`]: one bit of a `u128` each.
const WAVES: usize = 128;

/// The rows of [`RoutingTable::build`] at port width `P`, and the deepest
/// BFS level reached, built by a level-synchronous, bit-parallel
/// multi-source BFS (Then et al., "The More the Merrier", PVLDB 8(4),
/// 2014) that gives every next hop of one FIFO BFS per destination.
///
/// **Why the hops are the same.** A FIFO BFS from `dst` that visits
/// neighbours in adjacency order holds each level in the lexicographic
/// order of the port sequences that reached it, and a node is discovered
/// by the first node of the previous level that lists it. So it reaches
/// each `v` along the lexicographically least port sequence among the
/// shortest paths from `dst` to `v`, and that path can be built greedily
/// from the `dst` end: at each node, take the first port, in that node's
/// own adjacency order, that leads one hop closer to `v`. Entry `v` of row
/// `dst` is the port at `v` where that path arrives, which is the same for
/// every node on the path.
///
/// **The waves.** So the build runs one BFS wave from each *forwarding*
/// node `v`. When `v`'s wave first reaches `x`, at level `d`, the first
/// slot of `x`'s adjacency whose node the wave reached at level `d − 1`
/// names the next node `y` of that path, and entry `v` of row `x` is
/// entry `v` of row `y`; at level 1 it is the reverse port of that slot.
/// The deepest level any wave reaches is the diameter. A pass runs 128
/// waves at once, one bit each in three `u128` words per node (see
/// [`Waves`]), and fills those 128 entries of every row. Its sources are
/// gathered by a BFS from the least node that has not been a source, so
/// their waves overlap and share levels.
///
/// **Cost.** A level marks the neighbours of the last level's nodes that
/// miss one of their waves, then scans each marked node's adjacency only
/// until every wave it gained has its port, and each ordered pair costs
/// one port copy, from row `y` into row `x`. On the 1,024-node serving
/// deployment a build runs 8
/// passes and 179 levels: 1.07M marking steps and 0.43M slot scans, of
/// which 0.15M discover the 1.05M copies, where one FIFO BFS per
/// destination checks 15.2M adjacency slots (1,024 × 14,886). Graphs of
/// low degree and long hop diameter gain little or lose: a pass then runs
/// many levels of few discoveries each, so grids gain up to 17% and paths
/// take about twice as long (DESIGN.md §11.4 has timings).
fn build_port_rows<P: Port>(graph: &CommGraph) -> (Vec<Vec<P>>, u32) {
    let n = graph.n();
    // `back[e]` for the adjacency slot `e` of `v` naming `w`: the index of
    // `v` in `w`'s own list. Finding it by scanning `w`'s list costs the
    // sum of squared degrees.
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
    let mut rows: Vec<Vec<P>> = (0..n).map(|_| vec![P::NONE; n]).collect();
    let mut waves = Waves::new(n);
    let mut is_source = vec![false; n];
    // Every node below `least` has been a source.
    let (mut least, mut diameter) = (0, 0);
    loop {
        // The sources: a BFS over the nodes that have not been sources,
        // restarted from the least of them whenever it runs dry.
        let sources = &mut waves.sources;
        sources.clear();
        let mut head = 0;
        while sources.len() < WAVES {
            if head == sources.len() {
                while least < n && is_source[least] {
                    least += 1;
                }
                if least == n {
                    break;
                }
                is_source[least] = true;
                // `least < n ≤ 65,536`, so the cast is exact.
                sources.push(least as u32);
            }
            let v = sources[head] as usize;
            head += 1;
            for &w in graph.neighbors(v) {
                if sources.len() < WAVES && !is_source[w as usize] {
                    is_source[w as usize] = true;
                    sources.push(w);
                }
            }
        }
        if sources.is_empty() {
            return (rows, diameter);
        }
        diameter = diameter.max(waves.run(graph, &back, &mut rows));
    }
}

/// The scratch of one pass of [`build_port_rows`]. Wave `b` starts at
/// `sources[b]` and is bit `b` of each node's words; every word is zero
/// between passes.
struct Waves {
    /// Where each wave starts.
    sources: Vec<u32>,
    /// Per node, the waves that have reached it.
    seen: Vec<u128>,
    /// Per node, the waves that reached it at the last level.
    frontier: Vec<u128>,
    /// Per node, the waves that reach it at the level being built.
    new: Vec<u128>,
    /// The nodes the last level reached.
    level: Vec<u32>,
    /// `n + 1` slots, the first of which list the nodes the level being
    /// built reaches (see [`Waves::run`]).
    next: Vec<u32>,
}

impl Waves {
    fn new(n: usize) -> Self {
        Waves {
            sources: Vec::with_capacity(WAVES),
            seen: vec![0; n],
            frontier: vec![0; n],
            new: vec![0; n],
            level: Vec::with_capacity(n),
            next: vec![0; n + 1],
        }
    }

    /// Runs every wave of the pass to its end, writing entry `sources[b]`
    /// of each row that wave `b` reaches, and returns the deepest level
    /// reached.
    fn run<P: Port>(&mut self, graph: &CommGraph, back: &[P], rows: &mut [Vec<P>]) -> u32 {
        let Waves {
            sources,
            seen,
            frontier,
            new,
            level,
            next,
        } = self;
        for (b, &s) in sources.iter().enumerate() {
            let s = s as usize;
            seen[s] = 1 << b;
            frontier[s] = 1 << b;
            level.push(s as u32);
        }
        let mut depth = 0;
        while !level.is_empty() {
            // Mark each neighbour of the last level with the waves it
            // misses. Every neighbour is written after the list, which
            // takes it in only at its first mark of the level, so no
            // branch hangs on the marks and `marked` stays at most `n`.
            let mut marked = 0;
            for &y in level.iter() {
                let reached = frontier[y as usize];
                for &x in graph.neighbors(y as usize) {
                    let x = x as usize;
                    let had = new[x];
                    let gained = reached & !seen[x];
                    new[x] = had | gained;
                    next[marked] = x as u32;
                    marked += usize::from((had == 0) & (gained != 0));
                }
            }
            let next = &next[..marked];
            if !next.is_empty() {
                depth += 1;
            }
            // A gained wave's entry comes through the first slot of `x`'s
            // adjacency whose node that wave reached at the last level.
            for &x in next {
                let x = x as usize;
                let slots = graph.first[x] as usize..graph.first[x + 1] as usize;
                let mut missing = new[x];
                for (e, &y) in slots.clone().zip(&graph.targets[slots]) {
                    let y = y as usize;
                    let hit = frontier[y] & missing;
                    if hit == 0 {
                        continue;
                    }
                    missing ^= hit;
                    if depth == 1 {
                        // `y` is a source, so `hit` is its wave alone.
                        rows[x][y] = back[e];
                    } else {
                        for_each_wave(hit, |b| {
                            let v = sources[b] as usize;
                            rows[x][v] = rows[y][v];
                        });
                    }
                    if missing == 0 {
                        break;
                    }
                }
            }
            for &y in level.iter() {
                frontier[y as usize] = 0;
            }
            level.clear();
            for &x in next {
                let x = x as usize;
                let gained = std::mem::take(&mut new[x]);
                frontier[x] = gained;
                seen[x] |= gained;
                level.push(x as u32);
            }
        }
        seen.fill(0);
        depth
    }
}

/// Calls `f` with the index of each set bit of `waves`, lowest first, a
/// `u64` half at a time.
#[inline(always)]
fn for_each_wave(waves: u128, mut f: impl FnMut(usize)) {
    for (mut half, base) in [(waves as u64, 0), ((waves >> 64) as u64, 64)] {
        while half != 0 {
            f((base + half.trailing_zeros() as usize) % WAVES);
            half &= half - 1;
        }
    }
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
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    /// Graphs of 129–300 nodes, so a build runs two or three passes of
    /// [`WAVES`] waves and the last pass is partial. Node ids are a random
    /// permutation, so neither components nor passes follow id order. The
    /// nodes form one component larger than a pass (when `n` leaves room),
    /// components smaller than a pass and one to four isolated nodes. A
    /// component is a random spanning tree, from a path to a bushy tree and
    /// with or without a hub, plus random chords or none, so shortest paths
    /// are long or tie and a hub's list mixes nodes of every pass. The edge
    /// list is shuffled and each edge's direction drawn, so ports are not
    /// sorted by id.
    fn random_multi_pass_graph() -> impl Strategy<Value = CommGraph> {
        (129usize..301, 0u64..u64::MAX).prop_map(|(n, seed)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut ids: Vec<usize> = (0..n).collect();
            shuffle(&mut ids, &mut rng);
            let isolated = rng.gen_range(1..=4usize);
            let mut rest = &ids[..n - isolated];
            let mut edges = Vec::new();
            let mut big = rest.len() >= WAVES + 9;
            while !rest.is_empty() {
                let size = if big {
                    rng.gen_range(WAVES + 1..=rest.len() - 8)
                } else {
                    rng.gen_range(1..=rest.len().min(60))
                };
                big = false;
                let (component, tail) = rest.split_at(size);
                rest = tail;
                // Each node hangs off the component's first node with
                // probability `hub`, else off one of the `reach` nodes
                // before it.
                let hub = [0.0, 0.0, 0.25, 0.5][rng.gen_range(0..4usize)];
                let reach = rng.gen_range(1..=size);
                for i in 1..size {
                    let parent = if rng.gen_bool(hub) {
                        component[0]
                    } else {
                        component[i - 1 - rng.gen_range(0..i.min(reach))]
                    };
                    edges.push((component[i], parent));
                }
                let chords = if rng.gen_bool(0.3) {
                    0
                } else {
                    rng.gen_range(0..=size)
                };
                for _ in 0..chords {
                    let a = component[rng.gen_range(0..size)];
                    edges.push((a, component[rng.gen_range(0..size)]));
                }
            }
            shuffle(&mut edges, &mut rng);
            for edge in &mut edges {
                if rng.gen_bool(0.5) {
                    *edge = (edge.1, edge.0);
                }
            }
            CommGraph::from_edges(n, edges)
        })
    }

    /// A Fisher–Yates shuffle.
    fn shuffle<T>(items: &mut [T], rng: &mut StdRng) {
        for i in (1..items.len()).rev() {
            items.swap(i, rng.gen_range(0..=i));
        }
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

    /// Compares every pair's next hop, hop count and path, and the
    /// diameter, with the two-matrix oracle. The next hops come first: a
    /// wrong one can close a routing loop, which `hops` and `path` would
    /// walk forever.
    fn routes_like_the_oracle(g: &CommGraph, rt: &RoutingTable) -> TestCaseResult {
        let oracle = Oracle::build(g);
        let pairs = || (0..g.n()).flat_map(|src| (0..g.n()).map(move |dst| (src, dst)));
        for (src, dst) in pairs() {
            prop_assert_eq!(rt.next_hop(src, dst), oracle.next_hop(src, dst));
        }
        for (src, dst) in pairs() {
            prop_assert_eq!(rt.hops(src, dst), oracle.hops(src, dst));
            prop_assert_eq!(rt.path(src, dst), oracle.path(src, dst));
        }
        prop_assert_eq!(rt.diameter(), oracle.diameter());
        Ok(())
    }

    /// Paths of 128 and 129 nodes, listed from either end: the 129th node
    /// starts a second pass whose only wave crosses the whole path, and
    /// every node's waves arrive one level at a time.
    #[test]
    fn paths_at_the_pass_boundary_route_like_the_two_matrix_bfs() {
        for n in [WAVES, WAVES + 1] {
            let forward = CommGraph::from_edges(n, (1..n).map(|i| (i - 1, i)));
            let backward = CommGraph::from_edges(n, (1..n).rev().map(|i| (i, i - 1)));
            for g in [forward, backward] {
                let rt = RoutingTable::build(&g);
                routes_like_the_oracle(&g, &rt).unwrap();
                assert_eq!(rt.diameter() as usize, n - 1);
            }
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
        routes_like_the_oracle(&g, &rt).unwrap();
        assert_eq!(rt.path(1, leaves), Some(vec![1, 0, leaves]));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn port_rows_route_like_the_two_matrix_bfs(g in random_sparse_graph()) {
            routes_like_the_oracle(&g, &RoutingTable::build(&g))?;
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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn port_rows_route_like_the_two_matrix_bfs_across_passes(g in random_multi_pass_graph()) {
            routes_like_the_oracle(&g, &RoutingTable::build(&g))?;
        }
    }
}
