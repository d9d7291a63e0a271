//! Clustering results and δ-clustering validation (Definition 1).

use elink_metric::{Feature, Metric};
use elink_topology::{NodeId, Topology};

/// Information about one cluster.
#[derive(Debug, Clone)]
pub struct ClusterInfo {
    /// The cluster root (leader). Always a member of the cluster.
    pub root: NodeId,
    /// The root feature `F_r` that expansion compared against; every member
    /// was admitted with `d(F_r, F_i) ≤ δ/2`.
    pub root_feature: Feature,
    /// Member node ids (includes the root).
    pub members: Vec<NodeId>,
}

/// A complete clustering of a sensor network, with per-cluster trees.
#[derive(Debug, Clone)]
pub struct Clustering {
    /// Cluster id per node.
    pub assignment: Vec<usize>,
    /// Per-cluster information, indexed by cluster id.
    pub clusters: Vec<ClusterInfo>,
    /// Parent of each node in its cluster tree; `None` for cluster roots.
    /// Every parent edge is a communication-graph edge.
    pub tree_parent: Vec<Option<NodeId>>,
}

impl Clustering {
    /// Builds a clustering from raw per-node protocol state `(root id, root
    /// feature)`, repairing two artifacts the paper's protocol can leave
    /// behind after cluster switching:
    ///
    /// * a recorded root that itself switched away — the member of the
    ///   group nearest the root feature becomes the new root;
    /// * members of the same root that are no longer connected — each
    ///   connected component becomes its own cluster (Definition 1 requires
    ///   connectivity; δ-compactness is preserved because every member is
    ///   within δ/2 of the original root feature).
    ///
    /// Cluster trees are rebuilt as BFS trees from the root within each
    /// cluster, which is how queries later navigate them.
    pub fn from_node_states(
        states: &[(NodeId, Feature)],
        topology: &Topology,
        metric: &dyn Metric,
    ) -> Clustering {
        let n = topology.n();
        assert_eq!(states.len(), n);
        assert!(u32::try_from(n).is_ok(), "fleet too large for u32 node ids");
        // Group nodes by recorded root id with one counting sort: groups
        // come in ascending root order, members in ascending id order.
        // Until the sort is done, `assignment[r]` is where root `r`'s next
        // member goes in `order`, so the sort needs no offsets array of its
        // own.
        let mut order = vec![0u32; n];
        let mut assignment = vec![0usize; n];
        for &(root, _) in states {
            assert!(root < n, "recorded root {root} is not a node id");
            assignment[root] += 1;
        }
        let mut start = 0;
        for next in &mut assignment {
            (start, *next) = (start + *next, start);
        }
        for (v, &(root, _)) in states.iter().enumerate() {
            order[assignment[root]] = v as u32;
            assignment[root] += 1;
        }
        assignment.fill(usize::MAX);

        let mut clusters = Vec::new();
        let mut tree_parent = vec![None; n];
        let graph = topology.graph();
        // Struct-of-arrays scratch reused across groups and cleared by
        // touched index, so the whole build is O(n + E).
        let mut in_group = vec![false; n];
        let mut seen = vec![false; n];
        let mut queue = Vec::new();

        let mut lo = 0;
        while lo < n {
            let root_id = states[order[lo] as usize].0;
            let len = order[lo..]
                .iter()
                .take_while(|&&v| states[v as usize].0 == root_id)
                .count();
            let group = &order[lo..lo + len];
            lo += len;
            let root_feature = &states[group[0] as usize].1;
            for &v in group {
                in_group[v as usize] = true;
            }
            // Components in order of their least member; each is listed in
            // BFS order from that member.
            for &start in group {
                let start = start as usize;
                if seen[start] {
                    continue;
                }
                let mut component = vec![start];
                seen[start] = true;
                let mut head = 0;
                while let Some(&v) = component.get(head) {
                    head += 1;
                    for &w in graph.neighbors(v) {
                        let w = w as usize;
                        if in_group[w] && !seen[w] {
                            seen[w] = true;
                            component.push(w);
                        }
                    }
                }
                // Root: the recorded root if present, else the member
                // nearest the recorded root feature (ties broken by node
                // id via `total_cmp`; an explicit scan avoids any panicking
                // path here).
                let root = if component.contains(&root_id) {
                    root_id
                } else {
                    let mut best = start;
                    let mut best_d = metric.distance(&states[best].1, root_feature);
                    for &v in &component[1..] {
                        let d = metric.distance(&states[v].1, root_feature);
                        if d.total_cmp(&best_d).then(v.cmp(&best)).is_lt() {
                            best = v;
                            best_d = d;
                        }
                    }
                    best
                };
                let cluster_id = clusters.len();
                for &m in &component {
                    assignment[m] = cluster_id;
                }
                // BFS tree from the root. The group's other components are
                // not adjacent to this one, so staying inside the group
                // stays inside the component; each visit clears the
                // member's `in_group` mark.
                in_group[root] = false;
                queue.clear();
                queue.push(root);
                let mut head = 0;
                while let Some(&v) = queue.get(head) {
                    head += 1;
                    for &w in graph.neighbors(v) {
                        let w = w as usize;
                        if in_group[w] {
                            in_group[w] = false;
                            tree_parent[w] = Some(v);
                            queue.push(w);
                        }
                    }
                }
                let mut members = component;
                members.sort_unstable();
                clusters.push(ClusterInfo {
                    root,
                    root_feature: states[root].1.clone(),
                    members,
                });
            }
            // Every member was cleared from `in_group` by its component's
            // tree BFS; reset `seen` for the next group.
            for &v in group {
                seen[v as usize] = false;
            }
        }
        debug_assert!(assignment.iter().all(|&c| c != usize::MAX));
        debug_assert!(!in_group.contains(&true) && !seen.contains(&true));
        Clustering {
            assignment,
            clusters,
            tree_parent,
        }
    }

    /// Number of clusters — the paper's clustering-quality metric (§8.2).
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Number of nodes.
    pub fn n(&self) -> usize {
        self.assignment.len()
    }

    /// The cluster id of a node.
    pub fn cluster_of(&self, node: NodeId) -> usize {
        self.assignment[node]
    }

    /// The root node of the cluster containing `node`.
    pub fn root_of(&self, node: NodeId) -> NodeId {
        self.clusters[self.assignment[node]].root
    }

    /// Hop depth of `node` in its cluster tree (root = 0).
    pub fn tree_depth(&self, node: NodeId) -> usize {
        let mut depth = 0;
        let mut cur = node;
        while let Some(p) = self.tree_parent[cur] {
            depth += 1;
            cur = p;
            assert!(depth <= self.n(), "cluster tree contains a cycle");
        }
        depth
    }

    /// Cluster representatives — the roots. §1: "instead of gathering data
    /// from every node in the cluster, only a set of cluster
    /// representatives need to be sampled", cutting acquisition and
    /// transmission costs by the factor [`Clustering::acquisition_saving`].
    pub fn representatives(&self) -> Vec<NodeId> {
        self.clusters.iter().map(|c| c.root).collect()
    }

    /// Acquisition-saving factor `N / #clusters` when only representatives
    /// are sampled.
    pub fn acquisition_saving(&self) -> f64 {
        self.n() as f64 / self.cluster_count().max(1) as f64
    }

    /// Per-node representation error when every node's feature is
    /// approximated by its cluster root's feature. For an ideal ELink
    /// clustering every error is ≤ δ/2 (the admission rule), and ≤ δ for
    /// any valid δ-clustering.
    pub fn representation_errors(&self, features: &[Feature], metric: &dyn Metric) -> Vec<f64> {
        (0..self.n())
            .map(|v| {
                let root = self.root_of(v);
                metric.distance(&features[v], &features[root])
            })
            .collect()
    }

    /// The children lists of every node's cluster tree (inverse of
    /// `tree_parent`), used to walk trees top-down (index build, queries).
    pub fn tree_children(&self) -> Vec<Vec<NodeId>> {
        let mut children = vec![Vec::new(); self.n()];
        for (v, parent) in self.tree_parent.iter().enumerate() {
            if let Some(p) = parent {
                children[*p].push(v);
            }
        }
        children
    }
}

/// Why a candidate clustering is not a valid δ-clustering.
#[derive(Debug, Clone, PartialEq)]
pub enum ValidationError {
    /// A node is missing from every cluster or appears in two.
    NotAPartition {
        /// The uncovered or doubly-covered node.
        node: NodeId,
    },
    /// A cluster's induced communication subgraph is disconnected
    /// (Definition 1, condition 1).
    Disconnected {
        /// Index of the disconnected cluster.
        cluster: usize,
    },
    /// Two members of a cluster are farther than δ apart (Definition 1,
    /// condition 2).
    NotDeltaCompact {
        /// Index of the offending cluster.
        cluster: usize,
        /// First witness member.
        i: NodeId,
        /// Second witness member.
        j: NodeId,
        /// Their feature distance (`> δ`).
        distance: f64,
    },
    /// A cluster-tree parent edge is not a communication-graph edge, or a
    /// tree does not span its cluster.
    BrokenTree {
        /// The node whose tree edge is invalid or unreachable.
        node: NodeId,
    },
}

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ValidationError::NotAPartition { node } => write!(f, "node {node} not partitioned"),
            ValidationError::Disconnected { cluster } => {
                write!(f, "cluster {cluster} is disconnected")
            }
            ValidationError::NotDeltaCompact {
                cluster,
                i,
                j,
                distance,
            } => write!(
                f,
                "cluster {cluster}: d({i},{j}) = {distance} exceeds delta"
            ),
            ValidationError::BrokenTree { node } => write!(f, "broken cluster tree at {node}"),
        }
    }
}

impl std::error::Error for ValidationError {}

/// Validates Definition 1 for a [`Clustering`]: disjoint cover,
/// per-cluster connectivity, pairwise δ-compactness, and cluster-tree
/// integrity.
///
/// δ-compactness first tries a certificate: when every member lies
/// within δ/2 of its cluster's [`ClusterInfo::root_feature`] (as ELink
/// admits them), the triangle inequality that [`Metric`] requires puts
/// every pair within δ, at `O(|C|)` distance calls. Otherwise every pair
/// is compared, `O(|C|²)`, and the first pair beyond δ is reported. The
/// pairwise check allows δ + 1e-9, and that slack covers the
/// certificate's rounding: each metric here computes a distance to a few
/// ulps of its value (relative error ~10⁻¹⁵), so a pair whose two certified
/// radii are at most δ/2 each computes to at most δ(1 + ~10⁻¹⁵), far
/// inside δ + 1e-9 for any δ below 10⁵.
pub fn validate_delta_clustering(
    clustering: &Clustering,
    topology: &Topology,
    features: &[Feature],
    metric: &dyn Metric,
    delta: f64,
) -> Result<(), ValidationError> {
    let n = topology.n();
    // Partition check.
    let mut seen = vec![false; n];
    for (cid, cluster) in clustering.clusters.iter().enumerate() {
        for &m in &cluster.members {
            if seen[m] {
                return Err(ValidationError::NotAPartition { node: m });
            }
            seen[m] = true;
            if clustering.assignment[m] != cid {
                return Err(ValidationError::NotAPartition { node: m });
            }
        }
    }
    if let Some(node) = seen.iter().position(|&s| !s) {
        return Err(ValidationError::NotAPartition { node });
    }

    let graph = topology.graph();
    // Connectivity scratch shared by every cluster: the partition check
    // left every `seen` mark set, a BFS from a cluster's first member over
    // its own members clears the marks it reaches, and clusters are
    // disjoint, so no mark needs a reset.
    let mut queue = Vec::new();
    for (cid, cluster) in clustering.clusters.iter().enumerate() {
        // Connectivity.
        let Some(&first) = cluster.members.first() else {
            return Err(ValidationError::Disconnected { cluster: cid });
        };
        seen[first] = false;
        queue.clear();
        queue.push(first);
        let mut head = 0;
        while let Some(&v) = queue.get(head) {
            head += 1;
            for &w in graph.neighbors(v) {
                let w = w as usize;
                if seen[w] && clustering.assignment[w] == cid {
                    seen[w] = false;
                    queue.push(w);
                }
            }
        }
        if queue.len() != cluster.members.len() {
            return Err(ValidationError::Disconnected { cluster: cid });
        }
        // δ-compactness: the δ/2 certificate, else every pair.
        let certified = cluster
            .members
            .iter()
            .all(|&m| metric.distance(&features[m], &cluster.root_feature) <= delta / 2.0);
        if !certified {
            for (a, &i) in cluster.members.iter().enumerate() {
                for &j in &cluster.members[a + 1..] {
                    let d = metric.distance(&features[i], &features[j]);
                    if d > delta + 1e-9 {
                        return Err(ValidationError::NotDeltaCompact {
                            cluster: cid,
                            i,
                            j,
                            distance: d,
                        });
                    }
                }
            }
        }
        // Tree integrity: every non-root member must reach the root via
        // parent edges that are graph edges and stay inside the cluster.
        for &m in &cluster.members {
            if m == cluster.root {
                if clustering.tree_parent[m].is_some() {
                    return Err(ValidationError::BrokenTree { node: m });
                }
                continue;
            }
            let mut cur = m;
            let mut steps = 0;
            loop {
                let Some(p) = clustering.tree_parent[cur] else {
                    if cur != cluster.root {
                        return Err(ValidationError::BrokenTree { node: m });
                    }
                    break;
                };
                if !graph.has_edge(cur, p) || clustering.assignment[p] != cid {
                    return Err(ValidationError::BrokenTree { node: m });
                }
                cur = p;
                steps += 1;
                if steps > n {
                    return Err(ValidationError::BrokenTree { node: m });
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use elink_metric::Absolute;

    /// 1×4 path with features 0, 1, 10, 11 — natural δ=2 clustering is
    /// {0,1} and {2,3}.
    fn setup() -> (Topology, Vec<Feature>) {
        let topo = Topology::grid(1, 4);
        let features = vec![
            Feature::scalar(0.0),
            Feature::scalar(1.0),
            Feature::scalar(10.0),
            Feature::scalar(11.0),
        ];
        (topo, features)
    }

    fn states_for(roots: &[usize], features: &[Feature]) -> Vec<(NodeId, Feature)> {
        roots.iter().map(|&r| (r, features[r].clone())).collect()
    }

    #[test]
    fn builds_from_states_and_validates() {
        let (topo, features) = setup();
        let states = states_for(&[0, 0, 2, 2], &features);
        let c = Clustering::from_node_states(&states, &topo, &Absolute);
        assert_eq!(c.cluster_count(), 2);
        assert_eq!(c.cluster_of(0), c.cluster_of(1));
        assert_ne!(c.cluster_of(1), c.cluster_of(2));
        assert_eq!(c.root_of(1), 0);
        validate_delta_clustering(&c, &topo, &features, &Absolute, 2.0).unwrap();
    }

    #[test]
    fn splits_disconnected_groups() {
        let (topo, features) = setup();
        // Nodes 0 and 3 claim root 0 but are not connected through members.
        let states = vec![
            (0, features[0].clone()),
            (1, features[1].clone()),
            (2, features[2].clone()),
            (0, features[0].clone()),
        ];
        let c = Clustering::from_node_states(&states, &topo, &Absolute);
        // Groups: root0 -> {0,3} (split into {0} and {3}), root1 -> {1},
        // root2 -> {2} => 4 clusters.
        assert_eq!(c.cluster_count(), 4);
        validate_delta_clustering(&c, &topo, &features, &Absolute, 2.0).unwrap();
    }

    #[test]
    fn replaces_missing_root() {
        let (topo, features) = setup();
        // Root 2 recorded by nodes 2,3, but node 2's own state points to
        // root 0 (it "switched"): group for root 2 contains only node 3.
        let states = vec![
            (0, features[0].clone()),
            (0, features[0].clone()),
            (0, features[0].clone()), // switched away — breaks δ here, but tree logic is what we test
            (2, features[2].clone()),
        ];
        let c = Clustering::from_node_states(&states, &topo, &Absolute);
        // Node 3 forms its own cluster rooted at itself.
        let c3 = c.cluster_of(3);
        assert_eq!(c.clusters[c3].root, 3);
    }

    #[test]
    fn tree_depths_and_children() {
        let (topo, features) = setup();
        let states = states_for(&[0, 0, 0, 0], &features);
        let c = Clustering::from_node_states(&states, &topo, &Absolute);
        assert_eq!(c.cluster_count(), 1);
        assert_eq!(c.tree_depth(0), 0);
        assert_eq!(c.tree_depth(3), 3);
        let children = c.tree_children();
        assert_eq!(children[0], vec![1]);
        assert_eq!(children[1], vec![2]);
    }

    #[test]
    fn representatives_and_errors() {
        let (topo, features) = setup();
        let c =
            Clustering::from_node_states(&states_for(&[0, 0, 2, 2], &features), &topo, &Absolute);
        assert_eq!(c.representatives(), vec![0, 2]);
        assert_eq!(c.acquisition_saving(), 2.0);
        let errs = c.representation_errors(&features, &Absolute);
        assert_eq!(errs, vec![0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn validation_catches_delta_violation() {
        let (topo, features) = setup();
        let states = states_for(&[0, 0, 0, 0], &features);
        let c = Clustering::from_node_states(&states, &topo, &Absolute);
        let err = validate_delta_clustering(&c, &topo, &features, &Absolute, 2.0).unwrap_err();
        assert!(matches!(err, ValidationError::NotDeltaCompact { .. }));
    }

    #[test]
    fn validation_catches_disconnection() {
        let (topo, features) = setup();
        let mut c =
            Clustering::from_node_states(&states_for(&[0, 0, 2, 2], &features), &topo, &Absolute);
        // Corrupt: claim node 3 belongs to cluster 0.
        let c0 = c.cluster_of(0);
        let c1 = c.cluster_of(3);
        c.assignment[3] = c0;
        c.clusters[c0].members.push(3);
        c.clusters[c1].members.retain(|&m| m != 3);
        // Cluster c1 loses a member; partition check for cluster sizes may
        // trip first, so accept either error.
        let err = validate_delta_clustering(&c, &topo, &features, &Absolute, 20.0).unwrap_err();
        assert!(
            matches!(
                err,
                ValidationError::Disconnected { .. } | ValidationError::BrokenTree { .. }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn validation_catches_missing_node() {
        let (topo, features) = setup();
        let mut c =
            Clustering::from_node_states(&states_for(&[0, 0, 2, 2], &features), &topo, &Absolute);
        let cid = c.cluster_of(1);
        c.clusters[cid].members.retain(|&m| m != 1);
        let err = validate_delta_clustering(&c, &topo, &features, &Absolute, 2.0).unwrap_err();
        assert!(matches!(err, ValidationError::NotAPartition { node: 1 }));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use elink_metric::Absolute;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    /// The extraction `from_node_states` replaced: a sort by `(root, id)`
    /// groups the nodes, and `CommGraph::induced_components` splits every
    /// group with two fresh `n`-sized marks.
    fn oracle(
        states: &[(NodeId, Feature)],
        topology: &Topology,
        metric: &dyn Metric,
    ) -> Clustering {
        let n = topology.n();
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_unstable_by_key(|&v| (states[v as usize].0, v));
        let mut assignment = vec![usize::MAX; n];
        let mut clusters = Vec::new();
        let mut tree_parent = vec![None; n];
        let graph = topology.graph();
        let mut in_cluster = vec![false; n];
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        let mut lo = 0;
        while lo < n {
            let root_id = states[order[lo] as usize].0;
            let mut hi = lo;
            while hi < n && states[order[hi] as usize].0 == root_id {
                hi += 1;
            }
            let members: Vec<NodeId> = order[lo..hi].iter().map(|&v| v as usize).collect();
            lo = hi;
            let root_feature = states[members[0]].1.clone();
            for component in graph.induced_components(&members) {
                let root = if component.contains(&root_id) {
                    root_id
                } else {
                    let mut best = component[0];
                    let mut best_d = metric.distance(&states[best].1, &root_feature);
                    for &v in &component[1..] {
                        let d = metric.distance(&states[v].1, &root_feature);
                        if d.total_cmp(&best_d).then(v.cmp(&best)).is_lt() {
                            best = v;
                            best_d = d;
                        }
                    }
                    best
                };
                let cluster_id = clusters.len();
                for &m in &component {
                    assignment[m] = cluster_id;
                    in_cluster[m] = true;
                }
                seen[root] = true;
                queue.push_back(root);
                while let Some(v) = queue.pop_front() {
                    for &w in graph.neighbors(v) {
                        let w = w as usize;
                        if in_cluster[w] && !seen[w] {
                            seen[w] = true;
                            tree_parent[w] = Some(v);
                            queue.push_back(w);
                        }
                    }
                }
                for &m in &component {
                    in_cluster[m] = false;
                    seen[m] = false;
                }
                let mut members = component;
                members.sort_unstable();
                clusters.push(ClusterInfo {
                    root,
                    root_feature: states[root].1.clone(),
                    members,
                });
            }
        }
        Clustering {
            assignment,
            clusters,
            tree_parent,
        }
    }

    /// Per-node states drawn from a few candidate roots. A candidate that
    /// records another root has switched away, and a root's group is
    /// scattered over the deployment, so groups split. Integer features
    /// make distance ties, which the replacement root breaks by id.
    fn random_states(n: usize, roots: usize, mut seed: u64) -> Vec<(NodeId, Feature)> {
        let mut next = move || {
            seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let z = (seed ^ (seed >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) as usize
        };
        let candidates: Vec<NodeId> = (0..roots).map(|_| next() % n).collect();
        let features: Vec<Feature> = (0..n)
            .map(|_| Feature::scalar((next() % 8) as f64))
            .collect();
        (0..n)
            .map(|_| {
                let root = candidates[next() % roots];
                (root, features[root].clone())
            })
            .collect()
    }

    fn assert_same(got: &Clustering, want: &Clustering) -> Result<(), TestCaseError> {
        prop_assert_eq!(&got.assignment, &want.assignment);
        prop_assert_eq!(&got.tree_parent, &want.tree_parent);
        prop_assert_eq!(got.clusters.len(), want.clusters.len());
        for (g, w) in got.clusters.iter().zip(&want.clusters) {
            prop_assert_eq!(g.root, w.root);
            prop_assert_eq!(&g.members, &w.members);
            prop_assert_eq!(&g.root_feature, &w.root_feature);
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]
        #[test]
        fn extraction_matches_the_sorting_oracle_on_grids(
            rows in 1usize..12,
            cols in 1usize..12,
            roots in 1usize..10,
            seed in 0u64..1 << 32,
        ) {
            let topology = Topology::grid(rows, cols);
            let states = random_states(topology.n(), roots, seed);
            let got = Clustering::from_node_states(&states, &topology, &Absolute);
            assert_same(&got, &oracle(&states, &topology, &Absolute))?;

            // Validation: an extraction is valid at δ = ∞, and folding the
            // last cluster into the first is reported as disconnected
            // exactly when `induced_components` splits the union.
            let features: Vec<Feature> = states.iter().map(|s| s.1.clone()).collect();
            let validate = |c: &Clustering| {
                validate_delta_clustering(c, &topology, &features, &Absolute, f64::INFINITY)
            };
            prop_assert_eq!(validate(&got), Ok(()));
            if got.cluster_count() > 1 {
                let mut merged = got.clone();
                let last = merged.clusters.len() - 1;
                let moved = std::mem::take(&mut merged.clusters[last].members);
                for &m in &moved {
                    merged.assignment[m] = 0;
                }
                merged.clusters[0].members.extend(moved);
                let split = topology.graph().induced_components(&merged.clusters[0].members).len() > 1;
                let verdict = validate(&merged);
                if split {
                    prop_assert_eq!(verdict, Err(ValidationError::Disconnected { cluster: 0 }));
                } else {
                    prop_assert!(matches!(verdict, Err(ValidationError::BrokenTree { .. })));
                }
            }
        }

        #[test]
        fn extraction_matches_the_sorting_oracle_on_random_deployments(
            n in 2usize..120,
            roots in 1usize..16,
            seed in 0u64..1 << 32,
        ) {
            let topology = Topology::random_synthetic(n, seed);
            let states = random_states(n, roots, seed ^ 0x5eed);
            let got = Clustering::from_node_states(&states, &topology, &Absolute);
            assert_same(&got, &oracle(&states, &topology, &Absolute))?;
        }
    }
}
