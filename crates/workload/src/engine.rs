//! The workload harness: builds the serving deployment (clustering, M-tree
//! index, leader backbone, per-node plan) on top of a topology + feature
//! set, loads a generated [`Schedule`], and drives
//! the [`ServeNode`] fleet through the
//! discrete-event simulator.
//!
//! Two drive modes:
//!
//! - [`WorkloadSim::run_concurrent`] injects every submission and update at
//!   its scheduled tick and lets them overlap — the serving benchmark.
//! - [`WorkloadSim::run_sequential`] replays the same schedule one event at
//!   a time, quiescing between events — the correctness oracle used by the
//!   proptests (no query overlaps an invalidation, so every answer must
//!   equal the brute-force ground truth over anchors).

use crate::gen::{Schedule, ScriptEntry, WorkloadSpec};
use crate::plan::ServingPlan;
use crate::protocol::{CompletedQuery, ServeMsg, ServeNode, Shared};
use elink_core::{run_implicit, ElinkConfig};
use elink_metric::{Feature, Metric};
use elink_netsim::{
    ArqConfig, CostBook, LinkModel, Metrics, SimNetwork, SimTime, Simulator, SyncLink,
};
use elink_query::{Backbone, DistributedIndex};
use elink_topology::{NodeId, Topology};
use std::sync::Arc;

/// Serving-layer knobs independent of the workload shape.
#[derive(Debug, Clone, Copy)]
pub struct ServeOptions {
    /// Enable routing-node result caches.
    pub cache_enabled: bool,
    /// Arm the failure-recovery layer: per-query deadlines with partial
    /// answers, convergecast re-issue, and leader failover. Off by default
    /// so fault-free runs behave (and bill) exactly as before; turn it on
    /// for any run whose link model can crash or partition nodes.
    pub recovery: bool,
    /// Arm the load-admission ladder (DESIGN.md §15): queries and
    /// subscription registrations are degraded or shed once the
    /// substrate's backlog horizon passes the [`crate::qos`] thresholds.
    /// Off, every submission is admitted at full scope.
    pub load_admission: bool,
    /// Force-arm the subscription machinery (takeover announcements on
    /// failover) even when the schedule carries no subscriptions — used by
    /// harnesses that inject subscriptions manually.
    pub subscriptions: bool,
}

impl ServeOptions {
    /// Defaults for a clustering threshold δ: caches on, recovery off,
    /// load admission off. They are the same for every δ: the build derives
    /// the maintenance slack Δ = δ/4 from the deployment's own δ.
    pub fn for_delta(_delta: f64) -> ServeOptions {
        ServeOptions {
            cache_enabled: true,
            recovery: false,
            load_admission: false,
            subscriptions: false,
        }
    }
}

/// A deployed serving fleet ready to execute a schedule.
pub struct WorkloadSim {
    sim: Simulator<ServeNode>,
    schedule: Schedule,
    plan_costs: CostBook,
    n_clusters: usize,
}

/// Final state of one standing subscription, read off its client node at
/// the end of a run.
#[derive(Debug, Clone)]
pub struct SubOutcome {
    /// Subscription id.
    pub sid: u64,
    /// Subscribing client node.
    pub client: NodeId,
    /// Watched template index.
    pub template: u16,
    /// Whether the subscription was still live at the end (false after a
    /// shed, an eviction, or an unreachable-client give-up).
    pub active: bool,
    /// Termination reason ([`crate::subscribe::end_reason`]; 0 if active).
    pub end_reason: u8,
    /// Last applied push version (0 = never received a snapshot).
    pub version: u64,
    /// Pushes applied at this client.
    pub pushes: u64,
    /// Covered-node count the last applied push claimed (the client-side
    /// `coverage_milli` numerator).
    pub covered: u64,
    /// The client's final materialized view (sorted node ids).
    pub view: Vec<NodeId>,
}

/// Everything a run produced, ready for reporting.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// All completed queries, ascending by query id.
    pub completed: Vec<CompletedQuery>,
    /// Merged cost book: simulator wire costs + analytic plan distribution.
    pub costs: CostBook,
    /// The run's metrics registry.
    pub metrics: Metrics,
    /// Final simulated time.
    pub sim_ticks: SimTime,
    /// Number of clusters in the deployment.
    pub n_clusters: usize,
    /// Number of nodes.
    pub n_nodes: usize,
    /// Final client-side state of every standing subscription, ascending by
    /// sid (empty for runs without subscriptions).
    pub subscriptions: Vec<SubOutcome>,
}

impl WorkloadSim {
    /// Builds the full serving deployment: δ-clustering (implicit-signal
    /// ELink), the M-tree index and leader backbone over it, the per-node
    /// plan, and one [`ServeNode`] per node preloaded with its closed-loop
    /// script (if any). The schedule is materialized from `spec` over the
    /// initial features.
    pub fn build(
        topology: Topology,
        features: Vec<Feature>,
        metric: Arc<dyn Metric>,
        delta: f64,
        spec: &WorkloadSpec,
        opts: ServeOptions,
    ) -> WorkloadSim {
        Self::build_with_link(
            topology, features, metric, delta, spec, opts, SyncLink, None,
        )
    }

    /// [`WorkloadSim::build`] over an arbitrary serving-time link model,
    /// optionally with the engine's ARQ sublayer. Deployment (clustering,
    /// index, backbone, plan distribution) still happens on the pristine
    /// network — faults begin at serve time. This is the entry point for
    /// chaos runs: a lossy/crashy/partitioning `LossyLink` plus
    /// `Some(ArqConfig)` plus `opts.recovery = true`.
    #[allow(clippy::too_many_arguments)]
    pub fn build_with_link(
        topology: Topology,
        features: Vec<Feature>,
        metric: Arc<dyn Metric>,
        delta: f64,
        spec: &WorkloadSpec,
        opts: ServeOptions,
        link: impl Into<Box<dyn LinkModel>>,
        arq: Option<ArqConfig>,
    ) -> WorkloadSim {
        // One network for the whole deployment: the backbone, the
        // diameter and the serving simulator share its routing table,
        // which is therefore built once.
        let net = SimNetwork::new(topology);
        let outcome = run_implicit(
            &net,
            &features,
            Arc::clone(&metric),
            ElinkConfig::for_delta(delta),
        );
        let (index, _) = DistributedIndex::build(&outcome.clustering, &features, metric.as_ref());
        let routing = net.routing();
        let (backbone, _) = Backbone::build(&outcome.clustering, routing);
        let schedule = crate::gen::build_schedule(spec, &features, delta);
        let topology = Arc::clone(net.topology_arc());
        let (plan, plan_costs) = ServingPlan::build(
            &outcome.clustering,
            &index,
            &backbone,
            Arc::clone(&topology),
            &features,
            &schedule.templates,
        );
        let n = topology.n();
        let n_clusters = outcome.clustering.cluster_count();
        let leaders: Vec<NodeId> = outcome.clustering.clusters.iter().map(|c| c.root).collect();
        let cluster_of: Vec<usize> = (0..n).map(|v| outcome.clustering.cluster_of(v)).collect();
        let members_of: Vec<Vec<NodeId>> = outcome
            .clustering
            .clusters
            .iter()
            .map(|c| {
                let mut m = c.members.clone();
                m.sort_unstable();
                m
            })
            .collect();
        let tree_parent: Vec<Option<NodeId>> = outcome.clustering.tree_parent.clone();
        let mut tree_children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (v, parent) in tree_parent.iter().enumerate() {
            if let Some(p) = *parent {
                tree_children[p].push(v);
            }
        }
        let backbone_peers_of: Vec<Vec<NodeId>> = (0..n_clusters)
            .map(|ci| {
                backbone
                    .neighbors(ci)
                    .iter()
                    .map(|&(peer_ci, _)| leaders[peer_ci])
                    .collect()
            })
            .collect();
        // Adopted failover children key a node's table as `u32` ids.
        assert!(u32::try_from(n).is_ok(), "fleet too large for u32 node ids");
        let shared = Arc::new(Shared {
            templates: schedule.templates.clone(),
            metric,
            topology: Arc::clone(&topology),
            delta,
            // The §6 maintenance slack Δ = δ/4.
            slack: delta / 4.0,
            cache_enabled: opts.cache_enabled,
            recovery: opts.recovery,
            cluster_of,
            leaders,
            members_of,
            tree_parent,
            tree_children,
            backbone_peers_of,
            diameter: u64::from(routing.diameter()),
            n_clusters,
            load_admission: opts.load_admission,
            expect_subs: opts.subscriptions || !schedule.subscriptions.is_empty(),
        });
        // Each closed-loop client's script, handed out in one pass; in
        // reverse, so a node drawn by two clients keeps the first one's.
        let mut scripts: Vec<Vec<ScriptEntry>> = vec![Vec::new(); n];
        for s in schedule.scripts.iter().rev() {
            scripts[s.node].clone_from(&s.entries);
        }
        let nodes: Vec<ServeNode> = plan
            .nodes
            .into_iter()
            .zip(scripts)
            .enumerate()
            .map(|(v, (node_plan, script))| {
                let root = node_plan.cluster_root;
                ServeNode::new(
                    v,
                    node_plan,
                    Arc::clone(&shared),
                    features[v].clone(),
                    features[root].clone(),
                    script,
                )
            })
            .collect();
        let mut sim = Simulator::new(net, link, spec.seed, nodes);
        if let Some(arq_config) = arq {
            sim.enable_arq(arq_config);
        }
        // Recovery-layer counters are registered up front so every run's
        // metrics dump carries them (zero-valued when nothing failed).
        sim.metrics_mut().declare_counter("wl.query.partial");
        sim.metrics_mut().declare_counter("maint.failover");
        // Load-admission counters (§15): every submission lands in exactly
        // one bucket, so `admitted + degraded + shed` equals submissions
        // whether or not the load ladder is armed.
        for c in ["serve.admitted", "serve.degraded", "serve.shed"] {
            sim.metrics_mut().declare_counter(c);
        }
        // Subscription-engine counters likewise, so dumps are schema-stable
        // whether or not a run carries standing queries.
        for c in [
            "wl.sub.registered",
            "wl.sub.admitted",
            "wl.sub.shed",
            "wl.sub.degraded",
            "wl.sub.evicted",
            "wl.sub.gaveup",
            "wl.sub.push",
            "wl.sub.push.retry",
            "wl.sub.resync",
            "wl.sub.repair",
            "wl.sub.repair.stale",
            "wl.sub.contrib",
            "wl.sub.contrib.retry",
            "wl.sub.contrib.gaveup",
        ] {
            sim.metrics_mut().declare_counter(c);
        }
        WorkloadSim {
            sim,
            schedule,
            plan_costs,
            n_clusters: outcome.clustering.cluster_count(),
        }
    }

    /// The materialized schedule this deployment will execute.
    pub fn schedule(&self) -> &Schedule {
        &self.schedule
    }

    /// Number of clusters in the deployment.
    pub fn n_clusters(&self) -> usize {
        self.n_clusters
    }

    /// Current anchor features across the fleet (the ground-truth state
    /// queries answer over).
    pub fn anchors(&self) -> Vec<Feature> {
        self.sim
            .nodes()
            .iter()
            .map(|n| n.anchor().clone())
            .collect()
    }

    /// Direct simulator access (metrics, costs, time).
    pub fn sim(&self) -> &Simulator<ServeNode> {
        &self.sim
    }

    /// Tears the deployment apart and hands out the bare serving simulator
    /// — the model checker drives it through its own schedules instead of
    /// [`run_concurrent`](WorkloadSim::run_concurrent). The deployment
    /// (clustering, index, plans) is already installed in the node states.
    pub fn into_sim(self) -> Simulator<ServeNode> {
        self.sim
    }

    /// Injects one query submission at `at` (must be ≥ current time).
    pub fn inject_query(&mut self, at: SimTime, node: NodeId, qid: u64, template: u16) {
        self.sim
            .inject(at, node, ServeMsg::Submit { qid, template });
    }

    /// Injects one feature update at `at` (must be ≥ current time).
    pub fn inject_update(&mut self, at: SimTime, node: NodeId, feature: Feature) {
        self.sim.inject(at, node, ServeMsg::Update(feature));
    }

    /// Injects one standing-subscription registration at `at` (must be ≥
    /// current time). Only meaningful when the deployment was built with
    /// subscriptions armed ([`ServeOptions::subscriptions`] or a schedule
    /// with `n_subscribers > 0`) — otherwise leader failover will not
    /// announce takeovers to the subscription layer.
    pub fn inject_subscribe(&mut self, at: SimTime, client: NodeId, sid: u64, template: u16) {
        self.sim
            .inject(at, client, ServeMsg::Subscribe { sid, template });
    }

    /// Runs the pending event queue dry and returns the simulated time.
    pub fn quiesce(&mut self) -> SimTime {
        self.sim.run_to_completion()
    }

    /// Concurrent drive: all scheduled submissions and updates go in at
    /// their scheduled ticks (closed-loop scripts are already preloaded in
    /// the nodes), then the run proceeds to quiescence.
    pub fn run_concurrent(mut self) -> WorkloadRun {
        let submissions = std::mem::take(&mut self.schedule.submissions);
        for s in &submissions {
            self.inject_query(s.at, s.initiator, s.qid, s.template);
        }
        let updates = std::mem::take(&mut self.schedule.updates);
        for u in updates {
            self.inject_update(u.at, u.node, u.feature);
        }
        let subs = std::mem::take(&mut self.schedule.subscriptions);
        for s in &subs {
            self.inject_subscribe(s.at, s.client, s.sid, s.template);
        }
        self.sim.run_to_completion();
        self.finish()
    }

    /// Sequential drive: replays submissions and updates strictly one at a
    /// time in scheduled order (ties: update before query), quiescing the
    /// network between events. Closed-loop scripts still self-pace.
    pub fn run_sequential(mut self) -> WorkloadRun {
        enum Ev {
            Query(NodeId, u64, u16),
            Update(NodeId, Feature),
        }
        let mut events: Vec<(SimTime, u8, Ev)> = Vec::new();
        for u in std::mem::take(&mut self.schedule.updates) {
            events.push((u.at, 0, Ev::Update(u.node, u.feature)));
        }
        for s in std::mem::take(&mut self.schedule.submissions) {
            events.push((s.at, 1, Ev::Query(s.initiator, s.qid, s.template)));
        }
        events.sort_by_key(|&(at, kind, _)| (at, kind));
        for (at, _, ev) in events {
            let at = at.max(self.sim.now());
            match ev {
                Ev::Query(node, qid, template) => self.inject_query(at, node, qid, template),
                Ev::Update(node, feature) => self.inject_update(at, node, feature),
            }
            self.sim.run_to_completion();
        }
        self.sim.run_to_completion();
        self.finish()
    }

    fn finish(mut self) -> WorkloadRun {
        let sim_ticks = self.sim.now();
        // Fold the per-link utilization table into summary gauges so the
        // metrics dump carries them (no-op for per-message links).
        self.sim.record_flow_gauges();
        let mut completed: Vec<CompletedQuery> = self
            .sim
            .nodes()
            .iter()
            .flat_map(|n| n.completed().iter().cloned())
            .collect();
        completed.sort_by_key(|c| c.qid);
        let mut subscriptions: Vec<SubOutcome> = self
            .sim
            .nodes()
            .iter()
            .flat_map(|n| {
                let client = n.id();
                n.client_subs().map(move |(sid, c)| SubOutcome {
                    sid,
                    client,
                    template: c.template,
                    active: c.active,
                    end_reason: c.end_reason,
                    version: c.version,
                    pushes: c.pushes,
                    covered: c.covered,
                    view: c.view.clone(),
                })
            })
            .collect();
        subscriptions.sort_by_key(|s| s.sid);
        let mut costs = self.sim.costs().clone();
        costs.merge(&self.plan_costs);
        WorkloadRun {
            completed,
            costs,
            metrics: self.sim.take_metrics(),
            sim_ticks,
            n_clusters: self.n_clusters,
            n_nodes: self.sim.nodes().len(),
            subscriptions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::expected_matches;
    use crate::gen::Arrival;
    use elink_metric::Absolute;

    fn fixture(seed: u64) -> (Topology, Vec<Feature>, f64) {
        let data = elink_datasets::TerrainDataset::generate(96, 6, 0.55, seed);
        (data.topology().clone(), data.features(), 300.0)
    }

    fn quick_spec(seed: u64) -> WorkloadSpec {
        WorkloadSpec::quick(seed)
    }

    /// A drained fault-free run leaves no room behind in the in-flight
    /// maps: each released its storage when its last entry completed.
    /// Recovery is armed so that deadlines are armed and cancelled too.
    #[test]
    fn drained_run_holds_no_in_flight_storage() {
        let (topo, features, delta) = fixture(7);
        let mut opts = ServeOptions::for_delta(delta);
        opts.recovery = true;
        let spec = quick_spec(11);
        let mut sim = WorkloadSim::build(topo, features, Arc::new(Absolute), delta, &spec, opts);
        for s in sim.schedule().submissions.clone() {
            sim.inject_query(s.at, s.initiator, s.qid, s.template);
        }
        sim.quiesce();
        let m = sim.sim().metrics();
        assert_eq!(m.counter("wl.query.done"), spec.n_queries as u64);
        assert!(m.counter("wl.cache.miss") > 0, "no descent ran");
        for node in sim.sim().nodes() {
            assert_eq!(node.in_flight_capacities(), [0; 4], "node {}", node.id());
        }
    }

    #[test]
    fn concurrent_run_completes_every_query() {
        let (topo, features, delta) = fixture(7);
        let spec = quick_spec(11);
        let sim = WorkloadSim::build(
            topo,
            features,
            Arc::new(Absolute),
            delta,
            &spec,
            ServeOptions::for_delta(delta),
        );
        let run = sim.run_concurrent();
        assert_eq!(run.completed.len(), spec.n_queries);
        assert_eq!(run.metrics.counter("wl.query.lost"), 0);
        let qids: Vec<u64> = run.completed.iter().map(|c| c.qid).collect();
        let mut sorted = qids.clone();
        sorted.dedup();
        assert_eq!(qids, sorted, "duplicate or unsorted qids");
    }

    #[test]
    fn sequential_answers_match_ground_truth_over_anchors() {
        let (topo, features, delta) = fixture(3);
        let spec = quick_spec(5);
        let metric: Arc<dyn Metric> = Arc::new(Absolute);
        let mut sim = WorkloadSim::build(
            topo,
            features,
            Arc::clone(&metric),
            delta,
            &spec,
            ServeOptions::for_delta(delta),
        );
        // Replay manually so we can snapshot anchors before each query.
        let submissions = sim.schedule().submissions.clone();
        let templates = sim.schedule().templates.clone();
        let updates = sim.schedule().updates.clone();
        let mut upd = updates.into_iter().peekable();
        for s in submissions {
            while upd.peek().is_some_and(|u| u.at <= s.at) {
                let u = upd.next().expect("peeked");
                let at = u.at.max(sim.sim().now());
                sim.inject_update(at, u.node, u.feature);
                sim.quiesce();
            }
            let truth = expected_matches(
                &templates[s.template as usize],
                &sim.anchors(),
                metric.as_ref(),
            );
            let at = s.at.max(sim.sim().now());
            sim.inject_query(at, s.initiator, s.qid, s.template);
            sim.quiesce();
            let got = sim
                .sim()
                .nodes()
                .iter()
                .flat_map(|n| n.completed().iter())
                .find(|c| c.qid == s.qid)
                .expect("query completed")
                .matches
                .clone();
            assert_eq!(got, truth, "qid {} template {}", s.qid, s.template);
        }
    }

    #[test]
    fn cache_produces_hits_on_skewed_stream() {
        let (topo, features, delta) = fixture(2);
        let spec = quick_spec(9);
        let run = WorkloadSim::build(
            topo,
            features,
            Arc::new(Absolute),
            delta,
            &spec,
            ServeOptions::for_delta(delta),
        )
        .run_concurrent();
        assert!(
            run.metrics.counter("wl.cache.hit") > 0,
            "zipf-skewed stream should hit the cache"
        );
    }

    #[test]
    fn subscriptions_converge_to_ground_truth_after_churn() {
        let (topo, features, delta) = fixture(8);
        let mut spec = quick_spec(17);
        spec.n_subscribers = 6;
        let metric: Arc<dyn Metric> = Arc::new(Absolute);
        let mut sim = WorkloadSim::build(
            topo,
            features,
            Arc::clone(&metric),
            delta,
            &spec,
            ServeOptions::for_delta(delta),
        );
        let templates = sim.schedule().templates.clone();
        let run = {
            // Drive manually so we can snapshot final anchors.
            let subs = std::mem::take(&mut sim.schedule.subscriptions);
            for s in &subs {
                sim.inject_subscribe(s.at, s.client, s.sid, s.template);
            }
            let updates = std::mem::take(&mut sim.schedule.updates);
            for u in updates {
                sim.inject_update(u.at, u.node, u.feature);
            }
            sim.quiesce();
            let anchors = sim.anchors();
            let run = sim.finish();
            (run, anchors)
        };
        let (run, anchors) = run;
        assert_eq!(run.subscriptions.len(), spec.n_subscribers);
        let n = anchors.len() as u64;
        for s in &run.subscriptions {
            assert!(s.active, "sid {} ended with reason {}", s.sid, s.end_reason);
            assert!(s.version >= 1, "sid {} never received a push", s.sid);
            assert_eq!(
                s.covered, n,
                "fault-free subscription must reach full coverage"
            );
            let truth =
                expected_matches(&templates[s.template as usize], &anchors, metric.as_ref());
            assert_eq!(s.view, truth, "sid {} template {}", s.sid, s.template);
        }
        assert!(
            run.metrics.counter("wl.sub.repair") > 0,
            "updates must trigger incremental repairs"
        );
        assert_eq!(
            run.metrics.counter("wl.sub.push.retry"),
            0,
            "fault-free runs must not retransmit pushes"
        );
    }

    /// Every closed-loop client runs its whole script: each query
    /// completes or is counted lost, also when the clients are many for
    /// the deployment. On fixture 7's 96 nodes, nodes drawn independently
    /// put 16 clients on 15 nodes and 32 on 29, and a node runs one script.
    #[test]
    fn closed_loop_scripts_complete() {
        for (fixture_seed, spec_seed, clients) in [(4, 13, 6), (7, 42, 16), (7, 42, 32)] {
            let (topo, features, delta) = fixture(fixture_seed);
            let mut spec = quick_spec(spec_seed);
            spec.arrival = Arrival::Closed { clients, think: 4 };
            let run = WorkloadSim::build(
                topo,
                features,
                Arc::new(Absolute),
                delta,
                &spec,
                ServeOptions::for_delta(delta),
            )
            .run_concurrent();
            assert_eq!(
                run.completed.len() + run.metrics.counter("wl.query.lost") as usize,
                spec.n_queries,
                "{clients} clients: a query neither completed nor was counted lost"
            );
        }
    }
}
