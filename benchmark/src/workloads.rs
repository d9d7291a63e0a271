//! The four workloads: input generation (never timed), trials (a timed
//! setup followed by a timed run), and the deterministic [`View`] each
//! trial leaves behind.
//!
//! Every trial comes in two forms. The untimed form calls the program as a
//! user would. The traced form makes the same calls through the
//! [`probe`](crate::probe) wrappers and times each public setup function
//! on its own; its view must be byte-identical to the untimed one.

use crate::probe::{Probe, ProbeTotals, Timed, TimedLink};
use crate::stats::nearest_rank;
use elink_core::quadinfo::QuadInfo;
use elink_core::{
    build_sim, run_implicit, validate_delta_clustering, Clustering, ElinkConfig, ElinkNode,
    SignalMode,
};
use elink_datasets::TerrainDataset;
use elink_metric::{Absolute, Feature, Metric};
use elink_netsim::{
    ArqConfig, FairShareLink, LinkModel, LossyLink, Protocol, SimNetwork, Simulator, SyncLink,
    KIND_ACK,
};
use elink_query::{Backbone, DistributedIndex};
use elink_topology::{RoutingTable, Topology};
use elink_workload::gen::Submission;
use elink_workload::{
    build_schedule, expected_matches, Arrival, ClientSub, CompletedQuery, Schedule, ServeMsg,
    ServeNode, ServeOptions, ServingPlan, Template, WorkloadSim, WorkloadSpec,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Seed used when none is given.
pub const DEFAULT_SEED: u64 = 42;

/// Grid side of the growth workload (256² = 65,536 nodes).
pub const GROWTH_SIDE: usize = 256;
/// δ of the growth workload (the scaling bench's value).
pub const GROWTH_DELTA: f64 = 25.0;
/// Phase-shifted fields one growth trial clusters. A single field's
/// message count varies by about 10% (interquartile) with its phase, as
/// sentinels land on or off the field's ridges; eight fields per trial
/// keep the spread across seeds near 5%.
pub const GROWTH_FIELDS: usize = 8;

/// δ of every serving workload.
pub const SERVE_DELTA: f64 = 300.0;
/// Seed of the serving deployment's template dictionary and link RNG. The
/// dictionary is part of the deployment: drawn per seed, the few templates
/// at the head of the zipf ranking move median latency by about 20%
/// (interquartile) from seed to seed.
pub const DEPLOYMENT_SEED: u64 = 42;
/// Mean open-loop arrival gap of `serve-contended` (ticks). Flows queue
/// on the busy links and median latency is 2.6× the uncontended one, but
/// the run stays below the queueing knee: past it, tail latency moves by
/// about 80% (interquartile) between seeds.
pub const CONTENDED_GAP: u64 = 8;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Implicit ELink growth on a 256×256 grid.
    Growth64k,
    /// One-shot queries over a capacity-shared link.
    ServeContended,
    /// One-shot queries over a lossy link with ARQ and recovery.
    ServeLossy,
    /// Queries, feature updates and standing subscriptions together.
    ChurnMixed,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::Growth64k,
        Workload::ServeContended,
        Workload::ServeLossy,
        Workload::ChurnMixed,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Growth64k => "growth-64k",
            Workload::ServeContended => "serve-contended",
            Workload::ServeLossy => "serve-lossy",
            Workload::ChurnMixed => "churn-mixed",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Seconds elapsed since `t`.
fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with its duration in seconds.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let out = f();
    (out, secs(t))
}

/// A workload's generated inputs.
pub enum Input {
    /// Growth inputs.
    Growth(GrowthInput),
    /// Serving inputs.
    Serve(Box<ServeInput>),
}

impl Input {
    /// Generates the inputs of `workload` from `seed`.
    pub fn generate(workload: Workload, seed: u64) -> Input {
        match workload {
            Workload::Growth64k => {
                Input::Growth(GrowthInput::new(GROWTH_SIDE, GROWTH_FIELDS, seed))
            }
            kind => {
                let data = TerrainDataset::generate(1024, 6, 0.55, 7);
                Input::Serve(Box::new(ServeInput::new(kind, &data, seed)))
            }
        }
    }

    /// One untimed or traced trial; `full_check` runs the correctness
    /// checks that a digest comparison makes redundant on repeats.
    pub fn trial(&self, traced: bool, full_check: bool) -> Trial {
        match self {
            Input::Growth(g) => g.trial(traced, full_check),
            Input::Serve(s) => s.trial(traced, full_check),
        }
    }
}

/// Growth inputs: the grid side, the fields and the seed.
pub struct GrowthInput {
    /// Grid side.
    pub side: usize,
    /// One feature per node and field, row-major.
    pub fields: Vec<Vec<Feature>>,
    /// Seed of the phase offsets and of the link RNG.
    pub seed: u64,
}

impl GrowthInput {
    /// `fields` copies of the scaling bench's two-frequency field over a
    /// `side`² grid, each shifted by a phase offset drawn from `seed`; at
    /// seed 0 the first field is unshifted.
    pub fn new(side: usize, fields: usize, seed: u64) -> GrowthInput {
        let mut rng = StdRng::seed_from_u64(seed);
        let tau = std::f64::consts::TAU;
        let fields = (0..fields)
            .map(|j| {
                let (ox, oy) = if seed == 0 && j == 0 {
                    (0.0, 0.0)
                } else {
                    (
                        rng.gen_range(0.0..17.0 * tau),
                        rng.gen_range(0.0..13.0 * tau),
                    )
                };
                (0..side * side)
                    .map(|v| {
                        let (x, y) = ((v % side) as f64 + ox, (v / side) as f64 + oy);
                        Feature::scalar(40.0 * (x / 17.0).sin() + 40.0 * (y / 13.0).cos())
                    })
                    .collect()
            })
            .collect();
        GrowthInput { side, fields, seed }
    }

    fn config() -> ElinkConfig {
        ElinkConfig::for_delta(GROWTH_DELTA)
    }

    /// Clusters every field in turn. Per field, setup = `Topology::grid` +
    /// `build_sim` and run = `run_to_completion` +
    /// `Clustering::from_node_states`. The traced form splits `build_sim`
    /// into its public calls and wraps every node in [`Timed`].
    fn trial(&self, traced: bool, full_check: bool) -> Trial {
        let probe = Rc::new(Probe::default());
        let (mut setup_s, mut run_s) = (0.0, 0.0);
        let (mut grid_s, mut quadinfo_s, mut extract_s) = (0.0, 0.0, 0.0);
        let mut views = Vec::new();
        for features in &self.fields {
            if !traced {
                let t = Instant::now();
                let network = SimNetwork::new(Topology::grid(self.side, self.side));
                let mut sim = build_sim(
                    &network,
                    features,
                    Arc::new(Absolute),
                    Self::config(),
                    SignalMode::Implicit,
                    SyncLink,
                    self.seed,
                );
                setup_s += secs(t);
                let t = Instant::now();
                sim.run_to_completion();
                let clustering = extract(sim.nodes().iter(), network.topology());
                run_s += secs(t);
                views.push(growth_view(
                    &sim,
                    &network,
                    &clustering,
                    features,
                    full_check,
                ));
                continue;
            }
            let t0 = Instant::now();
            let (topology, g) = timed(|| Topology::grid(self.side, self.side));
            let network = SimNetwork::new(topology);
            let (quad, q) = timed(|| Arc::new(QuadInfo::build(network.topology())));
            let n = network.topology().n();
            let metric: Arc<dyn Metric> = Arc::new(Absolute);
            let nodes: Vec<Timed<ElinkNode>> = (0..n)
                .map(|id| {
                    let node = ElinkNode::new(
                        id,
                        n,
                        features[id].clone(),
                        Arc::clone(&metric),
                        Self::config(),
                        SignalMode::Implicit,
                        Arc::clone(&quad),
                    );
                    Timed::new(node, Rc::clone(&probe))
                })
                .collect();
            let link = TimedLink::new(SyncLink, Rc::clone(&probe));
            let mut sim = Simulator::new(network.clone(), link, self.seed, nodes);
            setup_s += secs(t0);
            (grid_s, quadinfo_s) = (grid_s + g, quadinfo_s + q);
            let t = Instant::now();
            sim.run_to_completion();
            let (clustering, e) =
                timed(|| extract(sim.nodes().iter().map(Timed::inner), network.topology()));
            run_s += secs(t);
            extract_s += e;
            views.push(growth_view(
                &sim,
                &network,
                &clustering,
                features,
                full_check,
            ));
        }
        Trial {
            setup_s,
            run_s,
            view: View::merge(views),
            layers: traced.then(|| Layers {
                times: probe.totals(),
                extract_s,
                setup: vec![
                    ("setup.grid_s", grid_s),
                    ("setup.quadinfo_s", quadinfo_s),
                    ("setup.residual_s", setup_s - grid_s - quadinfo_s),
                ],
            }),
        }
    }
}

/// Cluster extraction from the nodes' final states, in node order.
fn extract<'a>(nodes: impl Iterator<Item = &'a ElinkNode>, topology: &Topology) -> Clustering {
    let states: Vec<_> = nodes
        .enumerate()
        .map(|(id, node)| node.cluster_state(id))
        .collect();
    Clustering::from_node_states(&states, topology, &Absolute)
}

/// The view of one clustering. Its op fails if the clustering is not a
/// valid δ-clustering.
fn growth_view<P: Protocol>(
    sim: &Simulator<P>,
    network: &SimNetwork,
    clustering: &Clustering,
    features: &[Feature],
    full_check: bool,
) -> View {
    let mut errors = Vec::new();
    if network.routing_built() {
        errors.push("growth built the O(n²) routing table".to_string());
    }
    let mut failed = 0;
    if full_check {
        if let Err(e) = validate_delta_clustering(
            clustering,
            network.topology(),
            features,
            &Absolute,
            GROWTH_DELTA,
        ) {
            failed = 1;
            errors.push(format!("clustering is not a valid δ-clustering: {e:?}"));
        }
    }
    let mut d = Digest::new();
    d.engine(sim);
    d.words(clustering.assignment.iter().map(|&a| a as u64));
    d.words(clustering.clusters.iter().map(|c| c.root as u64));
    View {
        digest: d.0,
        counts: layer_counts(sim, clustering.cluster_count()),
        nodes: network.topology().n(),
        msgs: sim.costs().total_packets(),
        makespan: sim.now(),
        ops: Ops {
            attempted: 1,
            failed,
            latencies: vec![sim.now()],
        },
        errors,
    }
}

/// Serving inputs: the deployment, its options and link, and the stream.
pub struct ServeInput {
    /// Which serving workload.
    pub kind: Workload,
    /// Deployment topology.
    pub topology: Topology,
    /// Deployment features.
    pub features: Vec<Feature>,
    /// The deployment's spec: its seed is [`DEPLOYMENT_SEED`], which fixes
    /// the template dictionary and seeds the link RNG.
    pub spec: WorkloadSpec,
    /// Serving options.
    pub opts: ServeOptions,
    /// ARQ sublayer, if any.
    pub arq: Option<ArqConfig>,
    /// What the run injects: submissions, updates and subscriptions drawn
    /// from the benchmark seed, over the deployment's template dictionary.
    pub stream: Schedule,
}

impl ServeInput {
    /// The deployment, options and stream of `kind` over `data`.
    ///
    /// # Panics
    /// Panics if `kind` is not a serving workload.
    pub fn new(kind: Workload, data: &TerrainDataset, seed: u64) -> ServeInput {
        let mut spec = WorkloadSpec::quick(seed);
        let mut opts = ServeOptions::for_delta(SERVE_DELTA);
        let mut arq = None;
        spec.n_updates = 0;
        spec.arrival = Arrival::Open { mean_gap: 8 };
        match kind {
            Workload::ServeContended => {
                spec.n_queries = 4000;
                spec.arrival = Arrival::Open {
                    mean_gap: CONTENDED_GAP,
                };
            }
            Workload::ServeLossy => {
                spec.n_queries = 1000;
                opts.recovery = true;
                arq = Some(ArqConfig::default());
            }
            Workload::ChurnMixed => {
                spec.n_queries = 2000;
                spec.n_updates = 4000;
                spec.update_gap = 4;
                spec.drift_frac = 0.6;
                spec.n_subscribers = 32;
            }
            Workload::Growth64k => panic!("growth-64k is not a serving workload"),
        }
        let features = data.features();
        let mut stream = build_schedule(&spec, &features, SERVE_DELTA);
        spec.seed = DEPLOYMENT_SEED;
        stream.templates = build_schedule(&spec, &features, SERVE_DELTA).templates;
        ServeInput {
            kind,
            topology: data.topology().clone(),
            features,
            spec,
            opts,
            arq,
            stream,
        }
    }

    /// A fresh serving-time link (link models are consumed by the
    /// simulator).
    fn link(&self) -> Box<dyn LinkModel> {
        match self.kind {
            Workload::ServeContended => FairShareLink::new(64).into(),
            Workload::ServeLossy => LossyLink::new(1, 2).with_drop_prob(0.1).into(),
            _ => SyncLink.into(),
        }
    }

    /// Setup = `WorkloadSim::build_with_link` + forcing the serving
    /// network's lazy routing table; run = inject the stream +
    /// `run_to_completion`. The traced form also times each public setup
    /// function on its own and replays the run through [`Timed`] nodes
    /// over a [`TimedLink`].
    fn trial(&self, traced: bool, full_check: bool) -> Trial {
        let (topology, features) = (self.topology.clone(), self.features.clone());
        let t0 = Instant::now();
        let ws = WorkloadSim::build_with_link(
            topology,
            features,
            Arc::new(Absolute),
            SERVE_DELTA,
            &self.spec,
            self.opts,
            self.link(),
            self.arq,
        );
        let build_s = secs(t0);
        let (_, lazy_routing_s) = timed(|| {
            ws.sim().network().routing();
        });
        let setup_s = secs(t0);
        let mut errors = Vec::new();
        if ws.schedule().templates != self.stream.templates {
            errors.push("the deployment's template dictionary differs from the stream's".into());
        }
        let clusters = ws.n_clusters();
        let mut plain = ws.into_sim();
        if !traced {
            let t = Instant::now();
            inject(&mut plain, &self.stream);
            plain.run_to_completion();
            let run_s = secs(t);
            plain.record_flow_gauges();
            let view = self.view(&plain, plain.nodes(), clusters, full_check, errors);
            return Trial {
                setup_s,
                run_s,
                view,
                layers: None,
            };
        }
        let setup = self.split_setup(build_s, lazy_routing_s);
        // Rebuild the simulator around clones of the deployed nodes: the
        // same network (routing already built), link, seed, ARQ and
        // declared counters.
        let probe = Rc::new(Probe::default());
        let nodes: Vec<Timed<ServeNode>> = plain
            .nodes()
            .iter()
            .map(|n| Timed::new(n.clone(), Rc::clone(&probe)))
            .collect();
        let link = TimedLink::new(self.link(), Rc::clone(&probe));
        let mut sim = Simulator::new(plain.network().clone(), link, self.spec.seed, nodes);
        if let Some(arq) = plain.arq_config() {
            sim.enable_arq(arq);
        }
        for (name, _) in plain.metrics().counters() {
            sim.metrics_mut().declare_counter(name);
        }
        drop(plain);
        let t = Instant::now();
        inject(&mut sim, &self.stream);
        sim.run_to_completion();
        let run_s = secs(t);
        sim.record_flow_gauges();
        let inner: Vec<&ServeNode> = sim.nodes().iter().map(Timed::inner).collect();
        Trial {
            setup_s,
            run_s,
            view: self.view(&sim, inner, clusters, full_check, errors),
            layers: Some(Layers {
                times: probe.totals(),
                extract_s: 0.0,
                setup,
            }),
        }
    }

    /// Times each public function `build_with_link` calls, on its own;
    /// the residual is the diameter scan and node construction.
    fn split_setup(&self, build_s: f64, lazy_routing_s: f64) -> Vec<(&'static str, f64)> {
        let net = SimNetwork::new(self.topology.clone());
        let config = ElinkConfig::for_delta(SERVE_DELTA);
        let (outcome, cluster_s) =
            timed(|| run_implicit(&net, &self.features, Arc::new(Absolute), config));
        let clustering = &outcome.clustering;
        let ((index, _), index_s) =
            timed(|| DistributedIndex::build(clustering, &self.features, &Absolute));
        let (routing, routing_s) = timed(|| RoutingTable::build(self.topology.graph()));
        let ((backbone, _), backbone_s) = timed(|| Backbone::build(clustering, &routing));
        let (schedule, schedule_s) =
            timed(|| build_schedule(&self.spec, &self.features, SERVE_DELTA));
        let topology = Arc::new(self.topology.clone());
        let (_, plan_s) = timed(|| {
            ServingPlan::build(
                clustering,
                &index,
                &backbone,
                topology,
                &self.features,
                &schedule.templates,
            )
        });
        let parts = routing_s + cluster_s + index_s + backbone_s + schedule_s + plan_s;
        vec![
            ("setup.routing_s", routing_s),
            ("setup.lazy_routing_s", lazy_routing_s),
            ("setup.cluster_s", cluster_s),
            ("setup.index_s", index_s),
            ("setup.backbone_s", backbone_s),
            ("setup.schedule_s", schedule_s),
            ("setup.plan_s", plan_s),
            ("setup.residual_s", build_s - parts),
        ]
    }

    fn view<'a, P: Protocol>(
        &self,
        sim: &Simulator<P>,
        nodes: impl IntoIterator<Item = &'a ServeNode>,
        clusters: usize,
        full_check: bool,
        mut errors: Vec<String>,
    ) -> View {
        let stream = &self.stream;
        let nodes: Vec<&ServeNode> = nodes.into_iter().collect();
        let mut completed: Vec<CompletedQuery> = nodes
            .iter()
            .flat_map(|n| n.completed().iter().cloned())
            .collect();
        completed.sort_by_key(|c| c.qid);
        let mut subs: Vec<(u64, usize, &ClientSub)> = nodes
            .iter()
            .flat_map(|n| n.client_subs().map(move |(sid, c)| (sid, n.id(), c)))
            .collect();
        subs.sort_by_key(|s| s.0);
        let anchors: Vec<Feature> = nodes.iter().map(|n| n.anchor().clone()).collect();

        // A subscription is one op; it fails unless it ends active with
        // full coverage.
        let full = |s: &ClientSub| s.active && s.covered == anchors.len() as u64;
        let mut ops = account_queries(&stream.submissions, &completed);
        ops.attempted += stream.subscriptions.len() as u64;
        ops.failed += stream.subscriptions.len() as u64;
        ops.failed -= subs.iter().filter(|s| full(s.2)).count() as u64;
        if full_check {
            if stream.updates.is_empty() {
                check_answers(&completed, &stream.templates, &anchors, &mut errors);
            }
            for (sid, _, sub) in subs.iter().filter(|s| s.2.active) {
                let template = &stream.templates[sub.template as usize];
                let truth = expected_matches(template, &anchors, &Absolute);
                let sound = sub.view.iter().all(|v| truth.binary_search(v).is_ok());
                if (full(sub) && sub.view != truth) || !sound {
                    errors.push(format!(
                        "subscription {sid}: view of {} nodes at coverage {} of {} disagrees \
                         with the truth of {} at quiescence",
                        sub.view.len(),
                        sub.covered,
                        anchors.len(),
                        truth.len()
                    ));
                }
            }
        }

        let mut d = Digest::new();
        d.engine(sim);
        for c in &completed {
            d.words([c.qid, u64::from(c.template), c.submitted, c.finished]);
            d.words([u64::from(c.coverage_milli), u64::from(c.shed)]);
            d.words(c.matches.iter().map(|&v| v as u64));
            match &c.path {
                Some(p) => d.words(p.iter().map(|&v| v as u64 + 1)),
                None => d.words([0]),
            }
        }
        for (sid, client, s) in &subs {
            d.words([
                *sid,
                *client as u64,
                u64::from(s.template),
                u64::from(s.active),
            ]);
            d.words([u64::from(s.end_reason), s.version, s.pushes, s.covered]);
            d.words(s.view.iter().map(|&v| v as u64));
        }
        d.words(
            anchors
                .iter()
                .flat_map(|a| a.components().iter().map(|c| c.to_bits())),
        );
        View {
            digest: d.0,
            counts: layer_counts(sim, clusters),
            nodes: nodes.len(),
            msgs: sim.costs().total_packets(),
            makespan: completed.iter().map(|c| c.finished).max().unwrap_or(0),
            ops,
            errors,
        }
    }
}

/// Injects a stream in the order `WorkloadSim::run_concurrent` does:
/// submissions, then updates, then subscriptions.
fn inject<P: Protocol<Msg = ServeMsg>>(sim: &mut Simulator<P>, stream: &Schedule) {
    for s in &stream.submissions {
        let msg = ServeMsg::Submit {
            qid: s.qid,
            template: s.template,
        };
        sim.inject(s.at, s.initiator, msg);
    }
    for u in &stream.updates {
        sim.inject(u.at, u.node, ServeMsg::Update(u.feature.clone()));
    }
    for s in &stream.subscriptions {
        let msg = ServeMsg::Subscribe {
            sid: s.sid,
            template: s.template,
        };
        sim.inject(s.at, s.client, msg);
    }
}

/// Ops attempted and failed, with the latencies of answered ops.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ops {
    /// Ops attempted.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// Latency (simulated ticks) of every answered op, ascending.
    pub latencies: Vec<u64>,
}

/// Query accounting: every submission is one op. It fails if it was shed,
/// lost (never completed) or answered with less than full coverage.
/// Latency counts from the scheduled tick, over answered (non-shed)
/// queries only. `completed` must be ascending by query id.
pub fn account_queries(submissions: &[Submission], completed: &[CompletedQuery]) -> Ops {
    let mut ops = Ops::default();
    for s in submissions {
        ops.attempted += 1;
        match completed.binary_search_by_key(&s.qid, |c| c.qid) {
            Ok(i) if !completed[i].shed => {
                let c = &completed[i];
                ops.latencies.push(c.finished - s.at);
                if c.coverage_milli < 1000 {
                    ops.failed += 1;
                }
            }
            _ => ops.failed += 1,
        }
    }
    ops.latencies.sort_unstable();
    ops
}

/// Hard checks over static anchors: a full-coverage answer equals the
/// ground truth, a partial answer is a subset of it.
fn check_answers(
    completed: &[CompletedQuery],
    templates: &[Template],
    anchors: &[Feature],
    errors: &mut Vec<String>,
) {
    let truth: Vec<Vec<usize>> = templates
        .iter()
        .map(|t| expected_matches(t, anchors, &Absolute))
        .collect();
    for c in completed.iter().filter(|c| !c.shed) {
        let want = &truth[c.template as usize];
        if c.coverage_milli == 1000 && &c.matches != want {
            errors.push(format!(
                "query {}: full-coverage answer of {} nodes differs from the truth of {}",
                c.qid,
                c.matches.len(),
                want.len()
            ));
        } else if c.matches.iter().any(|v| want.binary_search(v).is_err()) {
            errors.push(format!(
                "query {}: partial answer is not a subset of the truth",
                c.qid
            ));
        }
    }
}

/// Deterministic per-layer counts, read from the public `Metrics` and
/// `CostBook` of a finished simulator.
fn layer_counts<P: Protocol>(sim: &Simulator<P>, clusters: usize) -> Vec<(&'static str, f64)> {
    let m = sim.metrics();
    let costs = sim.costs();
    let counter = |k: &str| m.counter(k) as f64;
    let gauge = |k: &str| m.gauge(k).unwrap_or(0) as f64;
    let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
    let flows_done = m.histogram("net.flow.sojourn").map_or(0, |h| h.count()) as f64;
    let stale = counter("net.flow.stale");
    let msgs = costs.total_packets() as f64;
    let retx = counter("net.retx");
    let acks = costs.kind(KIND_ACK).packets as f64;
    let (hits, misses) = (counter("wl.cache.hit"), counter("wl.cache.miss"));
    let repairs = counter("wl.sub.repair");
    vec![
        ("engine.events", sim.events_processed() as f64),
        ("engine.peak_live_events", sim.peak_live_events() as f64),
        ("engine.sim_ticks", sim.now() as f64),
        ("flow.done", flows_done),
        ("flow.stale", stale),
        ("flow.stale_ratio", ratio(stale, stale + flows_done)),
        ("flow.queued_ticks", counter("net.queued_ms")),
        ("flow.peak_active", gauge("net.flows.peak")),
        ("flow.link_peak_flows", gauge("net.link.peak_flows")),
        ("flow.links_used", gauge("net.links.used")),
        ("arq.retx", retx),
        ("arq.acks", acks),
        ("arq.dup", counter("net.ack.dup")),
        ("arq.timeouts", counter("net.timeout")),
        ("arq.useful_ratio", ratio(msgs - retx - acks, msgs)),
        ("net.msgs", msgs),
        ("net.scalars", costs.total_cost() as f64),
        ("clustering.clusters", clusters as f64),
        ("cache.hits", hits),
        ("cache.misses", misses),
        ("cache.hit_ratio", ratio(hits, hits + misses)),
        ("cache.evictions", counter("wl.cache.evict")),
        ("cache.invalidations", counter("wl.cache.inval")),
        ("qos.admitted", counter("serve.admitted")),
        ("qos.degraded", counter("serve.degraded")),
        ("qos.shed", counter("serve.shed")),
        ("sub.pushes", counter("wl.sub.push")),
        ("sub.repairs", repairs),
        (
            "sub.repair_stale_ratio",
            ratio(counter("wl.sub.repair.stale"), repairs),
        ),
        ("sub.contribs", counter("wl.sub.contrib")),
        ("recovery.partial", counter("wl.query.partial")),
        ("recovery.reissue", counter("wl.recover.reissue")),
    ]
}

/// Incremental FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn words(&mut self, words: impl IntoIterator<Item = u64>) {
        for w in words {
            for b in w.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    fn text(&mut self, s: &str) {
        self.words(s.bytes().map(u64::from));
        self.words([u64::MAX]);
    }

    /// Everything the engine reports: the full cost book (per kind, per
    /// node, per query), the metrics registry, events and final time.
    fn engine<P: Protocol>(&mut self, sim: &Simulator<P>) {
        let costs = sim.costs();
        for (kind, k) in costs.iter() {
            self.text(kind);
            self.words([k.packets, k.cost]);
        }
        for node in costs.nodes() {
            self.words([node.tx_packets, node.rx_packets, node.tx_cost]);
        }
        for (qid, k) in costs.queries() {
            self.words([qid, k.packets, k.cost]);
        }
        let m = sim.metrics();
        for (name, v) in m.counters() {
            self.text(name);
            self.words([v]);
        }
        for (name, v) in m.gauges() {
            self.text(name);
            self.words([v as u64]);
        }
        for (name, h) in m.histograms() {
            self.text(name);
            self.words([
                h.count(),
                h.sum(),
                h.min().unwrap_or(0),
                h.max().unwrap_or(0),
            ]);
            self.words(h.buckets().flat_map(|(b, c)| [b, c]));
        }
        for (name, p) in m.phases() {
            self.text(name);
            self.words([p.entries, p.first_enter, p.last_exit]);
        }
        self.words([
            sim.events_processed(),
            sim.peak_live_events() as u64,
            sim.now(),
        ]);
    }
}

/// What one trial leaves behind, apart from its host times. Everything
/// here is deterministic for a given seed.
#[derive(Debug, Clone)]
pub struct View {
    /// Digest over answers, the cost book, the metrics registry and
    /// events.
    pub digest: u64,
    /// Deterministic per-layer counts and ratios, by metric name.
    pub counts: Vec<(&'static str, f64)>,
    /// Nodes simulated (summed over the runs of a trial).
    pub nodes: usize,
    /// Link transmissions, retransmissions and acks included.
    pub msgs: u64,
    /// Simulated tick of the last op's completion.
    pub makespan: u64,
    /// Op accounting.
    pub ops: Ops,
    /// Hard check failures.
    pub errors: Vec<String>,
}

impl View {
    /// Merges the views of the consecutive runs of one trial: counts add
    /// up, except high-water marks and final ticks (the largest is kept)
    /// and ratios (averaged).
    fn merge(views: Vec<View>) -> View {
        let mut d = Digest::new();
        d.words(views.iter().map(|v| v.digest));
        let counts = views[0]
            .counts
            .iter()
            .enumerate()
            .map(|(i, &(name, _))| {
                let values = views.iter().map(|v| v.counts[i].1);
                let value = if name.ends_with("_ratio") {
                    values.sum::<f64>() / views.len() as f64
                } else if name.contains("peak") || name.ends_with("sim_ticks") {
                    values.fold(0.0, f64::max)
                } else {
                    values.sum()
                };
                (name, value)
            })
            .collect();
        let mut ops = Ops::default();
        for v in &views {
            ops.attempted += v.ops.attempted;
            ops.failed += v.ops.failed;
            ops.latencies.extend(&v.ops.latencies);
        }
        ops.latencies.sort_unstable();
        View {
            digest: d.0,
            counts,
            nodes: views.iter().map(|v| v.nodes).sum(),
            msgs: views.iter().map(|v| v.msgs).sum(),
            makespan: views.iter().map(|v| v.makespan).max().unwrap_or(0),
            ops,
            errors: views.into_iter().flat_map(|v| v.errors).collect(),
        }
    }

    /// Deterministic end-to-end metrics (name, value, unit). The last two
    /// are printed for reading only: `failed_milli` is zero on every
    /// workload, and a serving makespan mostly measures the arrival
    /// schedule.
    pub fn end_to_end(&self) -> Vec<(&'static str, f64, &'static str)> {
        let pct = |p| nearest_rank(&self.ops.latencies, p).unwrap_or(0) as f64;
        let attempted = self.ops.attempted as f64;
        vec![
            (
                "msgs_per_node",
                self.msgs as f64 / self.nodes as f64,
                "msgs/node",
            ),
            ("msgs_per_op", self.msgs as f64 / attempted, "msgs/op"),
            ("latency_p50_ticks", pct(50), "ticks"),
            ("latency_p99_ticks", pct(99), "ticks"),
            ("makespan_ticks", self.makespan as f64, "ticks"),
            (
                "failed_milli",
                self.ops.failed as f64 * 1000.0 / attempted,
                "permille",
            ),
        ]
    }
}

/// Host times of a traced trial, by layer.
#[derive(Debug, Clone)]
pub struct Layers {
    /// Raw probe totals.
    pub times: ProbeTotals,
    /// Cluster extraction time (growth only).
    pub extract_s: f64,
    /// Separately timed setup functions, by metric name.
    pub setup: Vec<(&'static str, f64)>,
}

/// One trial: timed setup, timed run and the deterministic view.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Setup wall time (s).
    pub setup_s: f64,
    /// Run wall time (s).
    pub run_s: f64,
    /// Deterministic outcome.
    pub view: View,
    /// Per-layer host times (traced trials only).
    pub layers: Option<Layers>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Seed 0 leaves the first field unshifted, so one field on a 64×64
    /// grid is the 4k row of `BENCH_scale.json`.
    #[test]
    fn seed_zero_growth_reproduces_the_scaling_bench() {
        let trial = Input::Growth(GrowthInput::new(64, 1, 0)).trial(false, true);
        let v = &trial.view;
        assert!(v.errors.is_empty(), "{:?}", v.errors);
        let clusters = v.counts.iter().find(|c| c.0 == "clustering.clusters");
        assert_eq!(clusters.map(|c| c.1), Some(54.0));
        assert_eq!(v.msgs, 18_483);
        assert_eq!(v.makespan, 637);
        assert_eq!((v.ops.attempted, v.ops.failed), (1, 0));
    }

    fn small_serving(kind: Workload) -> Input {
        let data = TerrainDataset::generate(96, 6, 0.55, 7);
        let mut input = ServeInput::new(kind, &data, 5);
        input.stream.submissions.truncate(60);
        input.stream.updates.truncate(80);
        input.stream.subscriptions.truncate(6);
        Input::Serve(Box::new(input))
    }

    /// The traced form of a trial is the same simulation: every view,
    /// digest included, matches the untimed one.
    #[test]
    fn timed_wrappers_are_transparent() {
        let inputs = [
            Input::Growth(GrowthInput::new(16, 2, 3)),
            small_serving(Workload::ServeContended),
            small_serving(Workload::ServeLossy),
            small_serving(Workload::ChurnMixed),
        ];
        for input in &inputs {
            let plain = input.trial(false, true);
            let traced = input.trial(true, true);
            assert!(plain.view.errors.is_empty(), "{:?}", plain.view.errors);
            assert!(traced.view.errors.is_empty(), "{:?}", traced.view.errors);
            assert_eq!(plain.view.digest, traced.view.digest);
            assert_eq!(plain.view.counts, traced.view.counts);
            assert_eq!(plain.view.ops, traced.view.ops);
            let layers = traced.layers.expect("traced trials carry layer times");
            assert!(layers.times.calls.iter().sum::<u64>() > 0);
            assert!(layers.times.hops.iter().sum::<u64>() > 0);
        }
    }

    fn completed(qid: u64, finished: u64, coverage_milli: u16, shed: bool) -> CompletedQuery {
        CompletedQuery {
            qid,
            template: 0,
            submitted: 10 * qid,
            finished,
            matches: Vec::new(),
            path: None,
            coverage_milli,
            shed,
        }
    }

    #[test]
    fn failure_accounting_excludes_shed_queries_from_latency() {
        let submissions: Vec<Submission> = (0..5)
            .map(|qid| Submission {
                qid,
                at: 10 * qid,
                initiator: 0,
                template: 0,
            })
            .collect();
        // qid 0 exact, 1 shed, 2 partial, 3 lost, 4 exact.
        let done = [
            completed(0, 7, 1000, false),
            completed(1, 10, 0, true),
            completed(2, 35, 500, false),
            completed(4, 52, 1000, false),
        ];
        let ops = account_queries(&submissions, &done);
        assert_eq!(ops.attempted, 5);
        assert_eq!(ops.failed, 3, "shed, partial and lost queries fail");
        assert_eq!(
            ops.latencies,
            vec![7, 12, 15],
            "latency from the scheduled tick"
        );
    }
}
