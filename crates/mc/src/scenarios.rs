//! Checkable scenarios: a simulator construction + external stimuli +
//! predicate catalog, packaged so exploration, counterexample compilation,
//! and replay all build the *same* system.
//!
//! The one invariant a scenario must keep is that `build` is a pure
//! function of the link it is handed: the exploration runs over a pristine
//! [`ScriptedLink`](elink_netsim::ScriptedLink) (all-ones delays) with the scenario's `delay_bound`,
//! and the replay runs over the compiled script — everything else
//! (topology, seed, protocol parameters) must be identical, or the replay
//! contract is void. Protocol timeouts computed from
//! `Ctx::max_hop_delay` see `delay_bound`, exactly as explored.
//!
//! Concrete scenario constructors for the elink growth protocol and the
//! workload serving stack live in [`elink_growth`](crate::scenarios::elink_growth) and [`serving`](crate::scenarios::serving).

use std::fmt::Debug;

use elink_netsim::{
    Canonicalize, FairShareLink, LinkModel, Protocol, ScriptedLink, SimTime, Simulator,
};

use crate::explore::{explore, ExploreReport, Strategy};
use crate::predicates::Predicate;
use crate::replay::{compile, replay, ReplayOutcome, ReplaySpec};
use crate::system::{McConfig, McSystem};

/// A named, reproducible model-checking setup.
pub struct Scenario<P: Protocol> {
    /// Scenario name (reports, gate output).
    pub name: &'static str,
    /// The link delay bound `D` the scenario is explored under.
    pub delay_bound: u64,
    /// External stimuli injected into the schedule (tick ≥ 1).
    pub externals: Vec<(SimTime, usize, P::Msg)>,
    /// When set, the scenario is explored under a contended
    /// [`FairShareLink`] of this capacity instead of the pristine scripted
    /// link: transmissions are priced through the flow table, flow
    /// completions fire as exact-class events, and the `FlowTable` snapshot
    /// joins node state in every fingerprint. Flow scenarios must be
    /// explored fault-free (see `McSystem::assert_explorable`) and have no
    /// scripted-replay path.
    pub flow_capacity: Option<u64>,
    #[allow(clippy::type_complexity)]
    build: Box<dyn Fn(Box<dyn LinkModel>) -> Simulator<P>>,
}

/// The result of checking one scenario: the exploration report, and — if a
/// violation was found — the compiled counterexample plus its replay
/// outcome.
pub struct CheckOutcome<M> {
    /// What the exploration saw.
    pub report: ExploreReport,
    /// Compiled counterexample and replay result for the violation.
    pub counterexample: Option<(ReplaySpec<M>, ReplayOutcome)>,
}

impl<P> Scenario<P>
where
    P: Protocol + Clone + Canonicalize,
    P::Msg: Clone + Debug,
{
    /// Packages a scenario. `build` must construct the identical simulator
    /// for any link handed to it (see module docs).
    pub fn new(
        name: &'static str,
        delay_bound: u64,
        externals: Vec<(SimTime, usize, P::Msg)>,
        build: impl Fn(Box<dyn LinkModel>) -> Simulator<P> + 'static,
    ) -> Self {
        Scenario {
            name,
            delay_bound,
            externals,
            flow_capacity: None,
            build: Box::new(build),
        }
    }

    /// Packages a *contended* scenario: explored under a
    /// [`FairShareLink`] of `capacity` scalars/tick (delay cap set to
    /// `delay_bound` so timeout math matches the explored envelope).
    pub fn new_flow(
        name: &'static str,
        delay_bound: u64,
        capacity: u64,
        externals: Vec<(SimTime, usize, P::Msg)>,
        build: impl Fn(Box<dyn LinkModel>) -> Simulator<P> + 'static,
    ) -> Self {
        Scenario {
            name,
            delay_bound,
            externals,
            flow_capacity: Some(capacity),
            build: Box::new(build),
        }
    }

    /// The scenario's simulator over an arbitrary link.
    pub fn build(&self, link: Box<dyn LinkModel>) -> Simulator<P> {
        (self.build)(link)
    }

    /// A fresh checker system over the capture link: pristine scripted for
    /// per-message scenarios, fair-sharing at the configured capacity for
    /// contended ones.
    pub fn system(&self) -> McSystem<P> {
        let link: Box<dyn LinkModel> = match self.flow_capacity {
            Some(capacity) => {
                Box::new(FairShareLink::new(capacity).with_delay_cap(self.delay_bound))
            }
            None => Box::new(ScriptedLink::pristine(self.delay_bound)),
        };
        let sim = self.build(link);
        McSystem::new(sim, self.externals.clone())
    }

    /// Explores the scenario; on a violation, compiles the counterexample
    /// on a fresh system and replays it under the normal engine. Contended
    /// scenarios skip the compile/replay leg — a contention schedule is not
    /// expressible as a per-message link script — and report the violation
    /// through the exploration report alone.
    pub fn check(
        &self,
        config: &McConfig,
        predicates: &[Predicate<P>],
        strategy: Strategy,
    ) -> CheckOutcome<P::Msg> {
        let mut sys = self.system();
        let report = explore(&mut sys, config, predicates, strategy);
        let counterexample = if self.flow_capacity.is_some() {
            None
        } else {
            report.violation.as_ref().map(|v| {
                let mut fresh = self.system();
                let spec = compile(&mut fresh, &v.path, config);
                let predicate = predicates
                    .iter()
                    .find(|p| p.name() == v.predicate)
                    .expect("violated predicate is in the catalog");
                let outcome = replay(&spec, |link| self.build(link), predicate);
                (spec, outcome)
            })
        };
        CheckOutcome {
            report,
            counterexample,
        }
    }
}

/// Concrete scenarios over the core elink growth protocol:
/// explicit-mode ELink growth on a 3-node path, explored to quiescence.
///
/// Fault-free, the scenario must grow two clusters ({0,1} and {2}),
/// complete every ack wave, and record no stray drops. Under a drop
/// budget (no ARQ in the explored configuration), growth can deadlock —
/// the checker finds the minimal losing schedule and replays it.
pub mod elink_growth {
    use std::sync::Arc;

    use elink_core::{build_sim, ElinkConfig, ElinkNode, SignalMode};
    use elink_metric::{Absolute, Feature, Metric};
    use elink_netsim::SimNetwork;
    use elink_topology::Topology;

    use crate::predicates::{McView, Predicate};
    use crate::scenarios::Scenario;

    /// Float slop for distance comparisons in predicates (the protocol
    /// compares exact `f64`s; the slop only forgives re-computation order).
    const EPS: f64 = 1e-9;

    fn features() -> Vec<Feature> {
        vec![
            Feature::scalar(0.0),
            Feature::scalar(4.0),
            Feature::scalar(100.0),
        ]
    }

    /// δ for the scenario: admission radius 5.0, so node 1 (feature 4)
    /// joins node 0's cluster and node 2 (feature 100) stays separate.
    pub const DELTA: f64 = 10.0;

    /// 3-node path, explicit signalling, delay bound 2.
    pub fn three_node() -> Scenario<ElinkNode> {
        Scenario::new("elink-growth-3", 2, Vec::new(), |link| {
            build_sim(
                &SimNetwork::new(Topology::grid(1, 3)),
                &features(),
                Arc::new(Absolute),
                ElinkConfig::for_delta(DELTA),
                SignalMode::Explicit,
                link,
                11,
            )
        })
    }

    /// The growth predicate catalog. `allowed_strays` names the silent-drop
    /// sites justified for the explored fault budget (empty when
    /// fault-free; [`elink_core::stray::SITE_PHASE1_AFTER_COMPLETE`] under
    /// duplicate faults).
    pub fn predicates(allowed_strays: &'static [&'static str]) -> Vec<Predicate<ElinkNode>> {
        let radius = ElinkConfig::for_delta(DELTA).admission_radius();
        vec![
            // The expansion rule only admits a node within the admission
            // radius of the advertised root feature; the stored assignment
            // must never escape that bound.
            Predicate::invariant("admission-soundness", move |view: &McView<ElinkNode>| {
                for (id, node) in view.live_nodes() {
                    if !node.clustered {
                        continue;
                    }
                    let d = Absolute.distance(&node.root_feature, node.feature());
                    if d > radius + EPS {
                        return Err(format!(
                            "node {id} assigned to root {} at distance {d} > {radius}",
                            node.root
                        ));
                    }
                }
                Ok(())
            }),
            Predicate::invariant("no-unexpected-strays", move |view: &McView<ElinkNode>| {
                for (id, node) in view.live_nodes() {
                    for site in &node.stray_drops {
                        if !allowed_strays.contains(site) {
                            return Err(format!(
                                "node {id} silently dropped an event at site '{site}'"
                            ));
                        }
                    }
                }
                Ok(())
            }),
            Predicate::goal("all-clustered", |view: &McView<ElinkNode>| {
                for (id, node) in view.live_nodes() {
                    if !node.clustered {
                        return Err(format!("node {id} unclustered at quiescence"));
                    }
                }
                Ok(())
            }),
            Predicate::goal("growth-complete", |view: &McView<ElinkNode>| {
                for (id, node) in view.live_nodes() {
                    let open = node.unsettled_subtrees();
                    if open > 0 {
                        return Err(format!(
                            "node {id} still has {open} un-acked subtree(s) at quiescence"
                        ));
                    }
                }
                Ok(())
            }),
        ]
    }
}

/// Concrete scenarios over the workload serving stack:
/// one query through the real serving deployment (clustering, M-tree,
/// backbone, plans all built by [`elink_workload::WorkloadSim`]) on a 4-node grid with
/// the recovery layer armed, explored under crash and drop faults.
pub mod serving {
    use std::sync::Arc;

    use elink_metric::{Absolute, Feature};
    use elink_topology::Topology;
    use elink_workload::protocol::ServeMsg;
    use elink_workload::{Arrival, ServeNode, ServeOptions, Truth, WorkloadSim, WorkloadSpec};

    use crate::predicates::{McView, Predicate};
    use crate::scenarios::Scenario;

    /// δ for the scenario: clusters {0} and {1,2,3}.
    pub const DELTA: f64 = 10.0;

    fn features() -> Vec<Feature> {
        vec![
            Feature::scalar(0.0),
            Feature::scalar(50.0),
            Feature::scalar(51.0),
            Feature::scalar(52.0),
        ]
    }

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            seed: 5,
            n_templates: 1,
            zipf_s: 0.0,
            path_fraction: 0.0,
            // No generated arrivals: the checker injects the one query as
            // an external stimulus and owns the schedule entirely.
            n_queries: 0,
            arrival: Arrival::Open { mean_gap: 8 },
            radius_frac: 0.8,
            n_updates: 0,
            update_gap: 1,
            drift_frac: 0.0,
            n_subscribers: 0,
        }
    }

    fn deploy(link: Box<dyn elink_netsim::LinkModel>) -> WorkloadSim {
        let mut opts = ServeOptions::for_delta(DELTA);
        opts.recovery = true;
        WorkloadSim::build_with_link(
            Topology::grid(2, 2),
            features(),
            Arc::new(Absolute),
            DELTA,
            &spec(),
            opts,
            link,
            None,
        )
    }

    /// 4-node serving deployment, one query submitted at node 0, delay
    /// bound 2.
    pub fn four_node() -> Scenario<ServeNode> {
        let externals = vec![(
            1,
            0usize,
            ServeMsg::Submit {
                qid: 1,
                template: 0,
            },
        )];
        Scenario::new("serving-4", 2, externals, |link| deploy(link).into_sim())
    }

    /// The contended variant: the same 4-node deployment explored under a
    /// [`elink_netsim::FairShareLink`] of 1 scalar/tick, with two queries
    /// submitted back-to-back so their serving traffic shares saturated
    /// links. Every transmission is priced through the flow table — the
    /// `FlowTable` snapshot (generation watermarks included) joins node
    /// state in each fingerprint, and flow completions fire as exact-class
    /// events. Fault-free by construction (see
    /// `McSystem::assert_explorable`): the cell checks that answer
    /// soundness and M-tree covering survive arbitrary contention
    /// interleavings, not crash schedules.
    pub fn four_node_contended() -> Scenario<ServeNode> {
        let externals = vec![
            (
                1,
                0usize,
                ServeMsg::Submit {
                    qid: 1,
                    template: 0,
                },
            ),
            (
                2,
                3usize,
                ServeMsg::Submit {
                    qid: 2,
                    template: 0,
                },
            ),
        ];
        Scenario::new_flow("serving-4-contended", 2, 1, externals, |link| {
            deploy(link).into_sim()
        })
    }

    /// The serving predicate catalog: the first three apply the
    /// [`elink_workload::audit`] contracts to every live node. Ground truth
    /// is computed over the initial anchors (the scenario injects no
    /// updates, so anchors never move).
    pub fn predicates() -> Vec<Predicate<ServeNode>> {
        let deployment = deploy(Box::new(elink_netsim::SyncLink));
        let truth = Arc::new(Truth::new(
            &deployment.schedule().templates,
            &features(),
            Arc::new(Absolute),
        ));
        let (t1, t2, t3) = (Arc::clone(&truth), Arc::clone(&truth), truth);
        vec![
            // coverage_milli honesty: every answer is a sound subset of
            // brute-force ground truth over anchors, and full coverage
            // (1000) certifies exact equality.
            Predicate::invariant("answer-soundness", move |view: &McView<ServeNode>| {
                for (id, node) in view.live_nodes() {
                    for cq in node.completed() {
                        t1.answer(cq).map_err(|e| format!("node {id}: {e}"))?;
                    }
                }
                Ok(())
            }),
            // Cache exactness: cached subtree answers may only contain true
            // matches (anchors are static here, so staleness is no excuse).
            Predicate::invariant("cache-exactness", move |view: &McView<ServeNode>| {
                view.live_nodes().try_for_each(|(_, node)| t2.cache(node))
            }),
            // M-tree covering invariant: every routing entry's bound stays
            // inside the node's own covering radius — the soundness
            // precondition for Prune/IncludeAll shortcuts. Failover
            // adoption must inflate the successor's radius to keep it.
            Predicate::invariant("mtree-covering", move |view: &McView<ServeNode>| {
                view.live_nodes()
                    .try_for_each(|(_, node)| t3.covering(node))
            }),
            // Liveness: with the recovery layer armed, every surviving
            // initiator gets an answer (possibly partial) by quiescence.
            Predicate::goal("query-answered", |view: &McView<ServeNode>| {
                for (id, node) in view.live_nodes() {
                    if node.unanswered() > 0 {
                        return Err(format!(
                            "node {id} still has {} unanswered quer(ies) at quiescence",
                            node.unanswered()
                        ));
                    }
                }
                Ok(())
            }),
        ]
    }
}
