//! Seeded fault campaigns over the serving layer: a deterministic grid of
//! (drop rate × crash fraction × partition window) cells, each driving the
//! full concurrent workload over a faulty
//! [`LossyLink`](elink_netsim::LossyLink) with the ARQ sublayer and the
//! recovery layer armed, and auditing the quiesced fleet against the
//! [`crate::audit`] catalog:
//!
//! * every completed answer keeps the answer contract ([`Truth::answer`]:
//!   a sound subset of the ground truth over last-known anchors, exact
//!   under full coverage, explicit when shed);
//! * every surviving node keeps cache exactness ([`Truth::cache`]) and the
//!   M-tree covering invariant ([`Truth::covering`]);
//! * every query submitted at a surviving initiator completes — partial if
//!   it must, wedged never.
//!
//! Campaign schedules are query-only (`n_updates = 0`) so the ground truth
//! is the initial anchor snapshot regardless of event interleaving. Cells
//! are pure functions of their [`FaultSpec`] and the campaign seed: the
//! `chaos_report --check` CI gate reruns the whole grid and requires
//! byte-identical reports.
//!
//! The campaign also carries **standing-subscription cells**
//! ([`run_sub_cell`]): drop faults plus one leader crash landing *mid-
//! subscription*, i.e. after the initial snapshots but while churn is
//! still being served. These cells audit the push pipeline's soundness
//! after failover: every surviving client's active view keeps the view
//! contract ([`Truth::view`]).

use crate::audit::Truth;
use crate::engine::{ServeOptions, WorkloadSim};
use crate::gen::WorkloadSpec;
use elink_metric::{Feature, Metric};
use elink_netsim::{ArqConfig, FairShareLink, LinkModel, LossyLink, SimTime};
use elink_topology::{NodeId, Topology};
use std::collections::BTreeSet;
use std::sync::Arc;

/// One cell of the fault grid. All faults are active from the start of
/// serving: deployment (clustering, index, backbone, plan distribution)
/// happens on the pristine network.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultSpec {
    /// Per-hop independent drop probability, milli-units.
    pub drop_milli: u64,
    /// Fraction of nodes crashed permanently from tick 1, milli-units.
    pub crash_milli: u64,
    /// Optional half/half network partition window `[from, until)`.
    pub partition: Option<(SimTime, SimTime)>,
    /// Optional per-link capacity (scalars per tick). `Some(c)` prices
    /// every transmission through the fair-share flow model *and* arms the
    /// load-admission ladder. With every other knob zero the cell runs the
    /// RNG-free [`FairShareLink`] (a pure load cell); combined with
    /// drop/crash/partition it runs a capacity-priced [`LossyLink`] — a
    /// *composed* cell where congestion, loss and failover interact.
    pub capacity: Option<u64>,
}

impl FaultSpec {
    /// The deterministic crash victim set: `⌊n · crash_milli / 1000⌋`
    /// distinct nodes picked by a fixed stride walk, independent of any
    /// RNG so the same cell always kills the same nodes.
    pub fn victims(&self, n: usize) -> Vec<NodeId> {
        let count = n * self.crash_milli as usize / 1000;
        let mut picked = BTreeSet::new();
        let mut v = 13 % n.max(1);
        while picked.len() < count {
            while picked.contains(&v) {
                v = (v + 1) % n;
            }
            picked.insert(v);
            v = (v + 97) % n;
        }
        picked.into_iter().collect()
    }

    fn link(&self, n: usize) -> Box<dyn LinkModel> {
        let loss_free = self.drop_milli == 0 && self.crash_milli == 0 && self.partition.is_none();
        if let Some(capacity) = self.capacity {
            if loss_free {
                // Pure load cell: the RNG-free FairShareLink, so the run is
                // byte-identical to the contention bench's transport.
                return FairShareLink::new(capacity).into();
            }
        }
        let mut link = LossyLink::new(1, 2).with_drop_prob(self.drop_milli as f64 / 1000.0);
        if let Some(capacity) = self.capacity {
            // Composed cell: every transmission is priced through the
            // fair-share flow model while `hop()` keeps rolling the
            // drop/partition dice and the crash windows stay in force.
            link = link.with_capacity(capacity);
        }
        for &victim in &self.victims(n) {
            link = link.with_crash(victim, 1, None);
        }
        if let Some((from, until)) = self.partition {
            let side: Vec<bool> = (0..n).map(|v| 2 * v < n).collect();
            link = link.with_partition(side, from, Some(until));
        }
        link.into()
    }
}

/// Aggregated outcome of one campaign cell, plus its contract audit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosCell {
    /// The faults this cell ran under.
    pub fault: FaultSpec,
    /// Nodes crashed in this cell.
    pub crashed: u64,
    /// Queries whose initiator survived (the liveness obligation).
    pub expected: u64,
    /// Queries completed (with full or partial coverage).
    pub done: u64,
    /// Completed answers with full coverage (equal to ground truth).
    pub exact: u64,
    /// Completed answers that admitted a coverage gap.
    pub partial: u64,
    /// Mean coverage over completed answers, milli-units.
    pub coverage_mean_milli: u64,
    /// Minimum coverage over completed answers, milli-units.
    pub coverage_min_milli: u64,
    /// Initiator watchdogs that resorted to an empty coverage-0 answer.
    pub gave_up: u64,
    /// ARQ retransmissions.
    pub retx: u64,
    /// ARQ transfers that exhausted their retry budget.
    pub timeouts: u64,
    /// Total excess queueing (ticks spent waiting behind other transfers);
    /// always zero for per-message cells, meaningful under `capacity`.
    pub queued_ms: u64,
    /// Queries the load ladder admitted at full scope (every submission at
    /// a live initiator, for cells without `capacity` — the ladder is
    /// disarmed there).
    pub admitted: u64,
    /// Queries the load ladder degraded to a local-cluster answer.
    pub degraded: u64,
    /// Queries the load ladder shed (immediate explicit zero-coverage
    /// answer; still counted in `done` — shedding is never silent).
    pub shed: u64,
    /// Leader failover takeovers.
    pub failovers: u64,
    /// Catalog breaches (must be zero): one per completed answer breaking
    /// [`Truth::answer`], plus one per surviving node breaking
    /// [`Truth::cache`] or [`Truth::covering`] at quiescence.
    pub violations: u64,
}

/// Fault knobs of a standing-subscription cell: a per-hop drop rate plus
/// one leader crash landing mid-subscription. Neither the victim nor the
/// crash tick is a knob — the cell always kills the coordinator of the
/// first scheduled subscription, scheduled one tick after the initial
/// snapshots quiesce (measured on a crash-free dry run of the same lossy
/// transport, which shares the dry run's RNG stream tick for tick until
/// the crash), so the failover path is exercised by construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubFaultSpec {
    /// Per-hop independent drop probability, milli-units.
    pub drop_milli: u64,
    /// Optional per-link capacity (scalars per tick): prices the whole
    /// push-repair pipeline through the fair-share flow model, so the
    /// failover and every retransmit deadline run under sustained
    /// congestion.
    pub capacity: Option<u64>,
}

/// Aggregated outcome of one standing-subscription fault cell, plus its
/// push-soundness audit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubChaosCell {
    /// The faults this cell ran under.
    pub fault: SubFaultSpec,
    /// The tick the coordinator crashed at (one past the initial-snapshot
    /// quiescence of the crash-free dry run).
    pub crash_at: SimTime,
    /// The coordinator killed at `crash_at`.
    pub crashed_leader: NodeId,
    /// Client-side subscription registrations (the schedule's plus the
    /// post-crash trigger).
    pub registered: u64,
    /// Coordinator-side admissions. Exceeds `registered` when the takeover
    /// solicited re-registrations that the successor re-admitted.
    pub admitted: u64,
    /// Surviving client subscriptions still active at quiescence.
    pub active: u64,
    /// Surviving client subscriptions ended by the engine (shed, evicted,
    /// or unreachable after push-retry exhaustion).
    pub ended: u64,
    /// Active views reporting full coverage (must equal ground truth).
    pub exact: u64,
    /// Active views admitting a coverage gap (must be sound subsets).
    pub subset: u64,
    /// Delta/snapshot pushes applied at surviving clients.
    pub pushes: u64,
    /// Incremental repair descents at watcher roots.
    pub repairs: u64,
    /// Client resync round-trips (push version gaps healed by snapshot).
    pub resyncs: u64,
    /// Contributions abandoned after retry exhaustion (traffic addressed
    /// to the dead coordinator before the takeover announcement landed).
    pub contrib_gaveup: u64,
    /// Leader failover takeovers (must be ≥ 1: the cell crashes one).
    pub failovers: u64,
    /// Total excess queueing (ticks spent behind other transfers); zero
    /// without `capacity`.
    pub queued_ms: u64,
    /// Active surviving views breaking [`Truth::view`] (must be zero).
    pub violations: u64,
}

/// A whole campaign: the grid of cells over one deployment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChaosReport {
    /// Fleet size.
    pub n_nodes: usize,
    /// Queries per cell.
    pub n_queries: usize,
    /// Campaign seed.
    pub seed: u64,
    /// One entry per grid cell, in grid order.
    pub cells: Vec<ChaosCell>,
    /// Standing-subscription fault cells (empty for query-only campaigns).
    pub sub_cells: Vec<SubChaosCell>,
}

impl ChaosReport {
    /// True when every cell upheld liveness (`done == expected`) and
    /// soundness (`violations == 0`), including the push-soundness audit
    /// of every standing-subscription cell.
    pub fn all_sound(&self) -> bool {
        self.cells
            .iter()
            .all(|c| c.done == c.expected && c.violations == 0)
            && self.sub_cells.iter().all(|c| c.violations == 0)
    }
}

/// Runs one campaign cell: deploy on the pristine network, serve the
/// query-only schedule under the cell's faults with ARQ + recovery armed,
/// quiesce, then audit every completed answer and every surviving node's
/// cache and M-tree entries against the [`crate::audit`] catalog.
pub fn run_cell(
    topology: &Topology,
    features: &[Feature],
    metric: &Arc<dyn Metric>,
    delta: f64,
    spec: &WorkloadSpec,
    fault: FaultSpec,
) -> ChaosCell {
    assert!(
        spec.n_updates == 0 && spec.n_subscribers == 0,
        "chaos cells must run query-only schedules (truth = initial anchors)"
    );
    let n = topology.n();
    let victims: BTreeSet<NodeId> = fault.victims(n).into_iter().collect();
    let mut opts = ServeOptions::for_delta(delta);
    opts.recovery = true;
    // Capacity cells arm the load-admission ladder: under congestion the
    // fleet degrades or sheds work *honestly* (explicit reduced-coverage
    // answers) instead of piling onto saturated links. The audit below
    // holds either way — shed and degraded answers are sound subsets.
    opts.load_admission = fault.capacity.is_some();
    let mut sim = WorkloadSim::build_with_link(
        topology.clone(),
        features.to_vec(),
        Arc::clone(metric),
        delta,
        spec,
        opts,
        fault.link(n),
        Some(ArqConfig::default()),
    );
    let truth = Truth::new(&sim.schedule().templates, features, Arc::clone(metric));
    let submissions = sim.schedule().submissions.clone();
    let expected = submissions
        .iter()
        .filter(|s| !victims.contains(&s.initiator))
        .count() as u64;
    for s in &submissions {
        sim.inject_query(s.at, s.initiator, s.qid, s.template);
    }
    sim.quiesce();

    let mut done = 0u64;
    let mut exact = 0u64;
    let mut partial = 0u64;
    let mut violations = 0u64;
    let mut cov_sum = 0u64;
    let mut cov_min = 1000u64;
    for node in sim.sim().nodes() {
        for c in node.completed() {
            done += 1;
            if c.coverage_milli == 1000 {
                exact += 1;
            } else {
                partial += 1;
            }
            violations += u64::from(truth.answer(c).is_err());
            cov_sum += u64::from(c.coverage_milli);
            cov_min = cov_min.min(u64::from(c.coverage_milli));
        }
        if !victims.contains(&node.id()) {
            violations += u64::from(truth.cache(node).is_err());
            violations += u64::from(truth.covering(node).is_err());
        }
    }
    let m = sim.sim().metrics();
    ChaosCell {
        fault,
        crashed: victims.len() as u64,
        expected,
        done,
        exact,
        partial,
        coverage_mean_milli: cov_sum.checked_div(done).unwrap_or(0),
        coverage_min_milli: if done == 0 { 0 } else { cov_min },
        gave_up: m.counter("wl.recover.query_gaveup"),
        retx: m.counter("net.retx"),
        timeouts: m.counter("net.timeout"),
        queued_ms: m.counter("net.queued_ms"),
        admitted: m.counter("serve.admitted"),
        degraded: m.counter("serve.degraded"),
        shed: m.counter("serve.shed"),
        failovers: m.counter("maint.failover"),
        violations,
    }
}

/// Sid of the post-crash subscription that flushes the failover out: it is
/// addressed to the dead coordinator's cluster, so routing it lands on the
/// designated successor and triggers the takeover. Far above any schedule
/// sid.
pub const SUB_CHAOS_TRIGGER_SID: u64 = 1 << 32;

/// Runs one standing-subscription fault cell.
///
/// Drive: (1) every scheduled subscription registers and takes its initial
/// snapshot on the healthy (but already lossy) network — a crash-free dry
/// run of the same transport measures when that settles, placing the crash
/// tick just past it; (2) the coordinator of the first subscription
/// crashes, and a fresh subscription from one of its clients routes to the
/// failover successor — whose `ensure_root` gate performs the takeover,
/// floods `SubTakeover` over the backbone and asks the cluster's clients
/// to re-register; (3) the schedule's churn is then driven through the
/// repair → contribution → delta-push pipeline under the drop faults.
///
/// Audit: answers are defined over last-known anchors (the dead
/// coordinator keeps matching by its frozen anchor), so every surviving
/// client's active view must keep the view contract ([`Truth::view`]).
///
/// The victim must not be a shortest-path relay between any surviving
/// pair: routing is static (built on the pristine topology), so crashing
/// a relay permanently partitions the transport between survivors and
/// conflates that with the recovery-layer contract this cell isolates —
/// the same exclusion the leader-crash failover test applies. Returns
/// `None` when no scheduled subscription has an isolatable coordinator.
pub fn run_sub_cell(
    topology: &Topology,
    features: &[Feature],
    metric: &Arc<dyn Metric>,
    delta: f64,
    seed: u64,
    fault: SubFaultSpec,
) -> Option<SubChaosCell> {
    let mut spec = WorkloadSpec::quick(seed);
    spec.n_queries = 0;
    spec.n_updates = 10;
    spec.update_gap = 16;
    spec.n_subscribers = 6;

    // Probe deployment on the pristine transport, never run: clustering and
    // plan distribution are pure functions of (topology, features, delta),
    // so the probe's per-node plans identify the crash victim — the
    // coordinator of the first scheduled subscription whose client is not
    // itself the cluster root (the client must survive to be audited).
    let probe = WorkloadSim::build(
        topology.clone(),
        features.to_vec(),
        Arc::clone(metric),
        delta,
        &spec,
        ServeOptions::for_delta(delta),
    );
    let subs = probe.schedule().subscriptions.clone();
    let updates = probe.schedule().updates.clone();
    // The probe's network built the routing table during deployment.
    let routing = probe.sim().network().routing();
    let n_all = topology.n();
    let is_relay = |leader: NodeId| {
        let alive: Vec<NodeId> = (0..n_all).filter(|&v| v != leader).collect();
        alive.iter().any(|&a| {
            alive
                .iter()
                .filter(|&&b| a < b)
                .any(|&b| routing.path(a, b).is_some_and(|p| p.contains(&leader)))
        })
    };
    let (victim, trigger_client, trigger_template) = subs.iter().find_map(|s| {
        let root = probe.sim().nodes()[s.client].plan().cluster_root;
        (root != s.client && !is_relay(root)).then_some((root, s.client, s.template))
    })?;

    let recovery_opts = || {
        let mut opts = ServeOptions::for_delta(delta);
        opts.recovery = true;
        opts.subscriptions = true;
        opts
    };
    let lossy = || {
        let mut link = LossyLink::new(1, 2).with_drop_prob(fault.drop_milli as f64 / 1000.0);
        if let Some(capacity) = fault.capacity {
            link = link.with_capacity(capacity);
        }
        link
    };

    // Dry run on the same lossy (but crash-free) transport: measures when
    // the initial snapshots quiesce (each recovery deadline they arm is
    // cancelled when its round completes, so nothing outlives them). The
    // real run replays the identical RNG stream, so the crash scheduled one
    // tick later lands strictly after every phase-1 event —
    // mid-subscription, not mid-registration.
    let crash_at = {
        let mut dry = WorkloadSim::build_with_link(
            topology.clone(),
            features.to_vec(),
            Arc::clone(metric),
            delta,
            &spec,
            recovery_opts(),
            lossy(),
            Some(ArqConfig::default()),
        );
        for s in &subs {
            dry.inject_subscribe(s.at, s.client, s.sid, s.template);
        }
        dry.quiesce() + 1
    };

    let mut sim = WorkloadSim::build_with_link(
        topology.clone(),
        features.to_vec(),
        Arc::clone(metric),
        delta,
        &spec,
        recovery_opts(),
        lossy().with_crash(victim, crash_at, None),
        Some(ArqConfig::default()),
    );

    // Phase 1: initial snapshots while every coordinator is alive.
    for s in &subs {
        sim.inject_subscribe(s.at, s.client, s.sid, s.template);
    }
    sim.quiesce();

    // Phase 2: the coordinator is dead. A fresh subscription from one of
    // its clients routes to the successor and flushes the takeover out.
    sim.inject_subscribe(
        crash_at + 1,
        trigger_client,
        SUB_CHAOS_TRIGGER_SID,
        trigger_template,
    );
    sim.quiesce();

    // Phase 3: churn against the failed-over subscription fabric, one
    // quiesced update at a time. Updates that target the crashed node are
    // skipped — a dead sensor does not sense, and its anchor stays frozen.
    for u in &updates {
        if u.node == victim {
            continue;
        }
        let at = sim.sim().now().max(crash_at) + 1;
        sim.inject_update(at, u.node, u.feature.clone());
        sim.quiesce();
    }

    // Audit: push soundness after failover, over last-known anchors.
    let truth = Truth::new(
        &sim.schedule().templates,
        &sim.anchors(),
        Arc::clone(metric),
    );
    let n = topology.n() as u64;
    let mut active = 0u64;
    let mut ended = 0u64;
    let mut exact = 0u64;
    let mut subset = 0u64;
    let mut pushes = 0u64;
    let mut violations = 0u64;
    for node in sim.sim().nodes() {
        if node.id() == victim {
            continue;
        }
        for (_sid, c) in node.client_subs() {
            if !c.active {
                ended += 1;
                continue;
            }
            active += 1;
            pushes += c.pushes;
            if c.covered == n {
                exact += 1;
            } else {
                subset += 1;
            }
            violations += u64::from(truth.view(c, n).is_err());
        }
    }
    let m = sim.sim().metrics();
    Some(SubChaosCell {
        fault,
        crash_at,
        crashed_leader: victim,
        registered: m.counter("wl.sub.registered"),
        admitted: m.counter("wl.sub.admitted"),
        active,
        ended,
        exact,
        subset,
        pushes,
        repairs: m.counter("wl.sub.repair"),
        resyncs: m.counter("wl.sub.resync"),
        contrib_gaveup: m.counter("wl.sub.contrib.gaveup"),
        failovers: m.counter("maint.failover"),
        queued_ms: m.counter("net.queued_ms"),
        violations,
    })
}

/// The default standing-subscription fault grid: a loss-free crash cell
/// (pure failover semantics), a lossy crash cell (failover under drop
/// faults, contributions and pushes riding ARQ), and a congested lossy
/// crash cell (the same pipeline with every transfer priced through the
/// fair-share flow model — failover and push repair under sustained
/// contention).
pub fn default_sub_grid() -> Vec<SubFaultSpec> {
    vec![
        SubFaultSpec {
            drop_milli: 0,
            capacity: None,
        },
        SubFaultSpec {
            drop_milli: 150,
            capacity: None,
        },
        SubFaultSpec {
            drop_milli: 150,
            capacity: Some(64),
        },
    ]
}

/// The default campaign grid: drop ∈ {0, 100, 250}‰ × crash ∈ {0, 150}‰ ×
/// partition ∈ {none, one mid-run window}, plus one composed cell running
/// capacity, loss and crash together. The partition window is short
/// relative to the ARQ retry envelope, so most cross-cut transfers ride it
/// out on retransmissions alone.
pub fn default_grid() -> Vec<FaultSpec> {
    let mut grid = Vec::new();
    for &drop_milli in &[0u64, 100, 250] {
        for &crash_milli in &[0u64, 150] {
            for &partition in &[None, Some((400, 900))] {
                grid.push(FaultSpec {
                    drop_milli,
                    crash_milli,
                    partition,
                    capacity: None,
                });
            }
        }
    }
    grid.push(FaultSpec {
        drop_milli: 100,
        crash_milli: 150,
        partition: None,
        capacity: Some(64),
    });
    grid
}

/// Runs a full campaign over a terrain deployment.
pub fn run_campaign(
    topology: &Topology,
    features: &[Feature],
    metric: &Arc<dyn Metric>,
    delta: f64,
    n_queries: usize,
    seed: u64,
    grid: &[FaultSpec],
) -> ChaosReport {
    let mut spec = WorkloadSpec::quick(seed);
    spec.n_queries = n_queries;
    spec.n_updates = 0;
    let cells = grid
        .iter()
        .map(|&fault| run_cell(topology, features, metric, delta, &spec, fault))
        .collect();
    ChaosReport {
        n_nodes: topology.n(),
        n_queries,
        seed,
        cells,
        sub_cells: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_sets_are_deterministic_distinct_and_sized() {
        let f = FaultSpec {
            drop_milli: 0,
            crash_milli: 200,
            partition: None,
            capacity: None,
        };
        let a = f.victims(96);
        let b = f.victims(96);
        assert_eq!(a, b);
        assert_eq!(a.len(), 96 * 200 / 1000);
        let set: BTreeSet<_> = a.iter().collect();
        assert_eq!(set.len(), a.len(), "victims must be distinct");
    }

    #[test]
    fn zero_crash_fraction_kills_nobody() {
        let f = FaultSpec {
            drop_milli: 250,
            crash_milli: 0,
            partition: None,
            capacity: None,
        };
        assert!(f.victims(96).is_empty());
    }

    #[test]
    fn all_sound_counts_sub_cell_violations() {
        let report = ChaosReport {
            cells: vec![ChaosCell {
                expected: 9,
                done: 9,
                ..Default::default()
            }],
            sub_cells: vec![SubChaosCell::default()],
            ..Default::default()
        };
        assert!(report.all_sound());
        let mut broken = report.clone();
        broken.sub_cells[0].violations = 1;
        assert!(
            !broken.all_sound(),
            "sub-cell violations must fail the report"
        );
    }
}
