//! The concurrent query-serving protocol.
//!
//! Every node runs a [`ServeNode`]. Queries enter at an initiator
//! ([`ServeMsg::Submit`] or a preloaded closed-loop script), route to the
//! initiator's cluster root, and fan out over the leader backbone with an
//! echo (fan-out / convergecast) wave: each cluster root answers for its own
//! cluster and aggregates its backbone subtree's answers back towards the
//! coordinator, which returns the final result to the initiator.
//!
//! Inside a cluster, a root answers with the §7 M-tree descent over its
//! cluster tree, with two serving-layer additions:
//!
//! 1. **Result caching** — every routing node keeps, per query template,
//!    the exact set of subtree matches it last computed. A cached entry is
//!    served without descending. Entries are evicted *only* when a
//!    descendant's slack bound is exceeded: the §6 maintenance rule absorbs
//!    small drifts without moving anchors, and since all answers are
//!    defined over anchor features (see DESIGN.md §9), absorbed updates
//!    cannot change any answer — the cache stays exact. A slack-exceeding
//!    update re-anchors the node and triggers an *invalidation climb* to
//!    its cluster root: each ancestor repairs its child entry (feature +
//!    covering radius), inflates its own covering radius to restore the
//!    M-tree invariant, clears its cache, and forwards upward.
//! 2. **In-network batching** — descents are single-flight per (node,
//!    template): concurrent queries for the same template share one
//!    descent as *riders*. Each `Descend`/`AggUp` packet carries its rider
//!    list; every rider is attributed the full packet in the
//!    [`CostBook`](elink_netsim::CostBook) query ledger, so the sum of
//!    per-query attributed cost minus wire cost measures the batching
//!    saving. Cluster roots additionally hold a freshly-missed template for
//!    a configurable *batch window* before launching the descent, so
//!    near-simultaneous queries coalesce.
//!
//! In-flight descents are epoch-guarded: a completion whose invalidation
//! epoch is stale still answers its riders (stale-read, bounded by the
//! in-flight window) but is not written back to the cache.
//!
//! # Failure recovery (`Shared::recovery`)
//!
//! When the recovery layer is armed (off by default — fault-free runs
//! behave and bill exactly as before), three mechanisms keep every query
//! answered under crashes and partitions (DESIGN.md §10):
//!
//! * **Deadlines + partial answers.** The initiator, echo coordinator, and
//!   every descent node arm deadlines derived from the ARQ delivery
//!   envelope; each level performs one re-issue round to alive outstanding
//!   peers, then finalizes *partial*. Every [`CompletedQuery`] carries
//!   `coverage_milli` — `1000` certifies equality with brute-force ground
//!   truth over anchors, lower values are sound subsets. Forced-partial
//!   results are never cached.
//! * **Leader failover.** The successor of a dead cluster leader is the
//!   lexicographically-least surviving member (deterministic from the
//!   shared member table + the liveness oracle; no election messages). On
//!   first contact it re-attaches the dead root's surviving children under
//!   itself ([`ServeMsg::Reattach`]/[`ServeMsg::Adopt`]), inflates its
//!   covering radius, and serves degraded: always drill, probe unspanned
//!   members, never count the dead ex-root — whose current anchor is
//!   unknowable — as covered.
//! * **Routed fallbacks.** Adopted children and failover parents are
//!   generally not topology neighbors, so those descents and replies
//!   travel as routed unicasts.

use crate::gen::{ScriptEntry, Template};
use crate::nodeset::NodeSet;
use crate::plan::{ChildEntry, NodePlan};
use crate::qos::{self, Admission, QosConfig};
use crate::subscribe::{end_reason, ClientSub, PushVerdict, SubState, TemplateView, WatchState};
use elink_core::node_table::{FlatMap, FlatSet, NodeHandle, NodeTable};
use elink_core::slack_conditions_hold;
use elink_metric::{Feature, Metric};
use elink_netsim::{
    canon_f64, Canonicalize, Ctx, Protocol, QueryId, SimTime, QID_SUB_CONTROL, QID_SUB_PUSH,
    QID_SUB_REPAIR,
};
use elink_query::{cluster_decision, descend_decision, ClusterDecision, DescendDecision};
use elink_topology::{NodeId, Topology};
use std::collections::VecDeque;
use std::sync::Arc;

/// Timer id for closed-loop script submissions (template flush timers use
/// the template index itself, far below this bit).
const SCRIPT_TIMER: u64 = 1 << 63;

/// Timer-id namespace bit: per-query echo deadline at an echo participant.
/// The payload (low bits) is the query id.
const ECHO_DEADLINE: u64 = 1 << 44;
/// Timer-id namespace bit: per-template descent deadline at the node that
/// launched the descent. The payload is the template index.
const EVAL_DEADLINE: u64 = 1 << 45;
/// Timer-id namespace bit: per-query watchdog at the initiator. The payload
/// is the query id.
const INIT_DEADLINE: u64 = 1 << 46;
/// Timer-id namespace bit: push flush at a coordinator. Payload: template.
const SUB_FLUSH: u64 = 1 << 47;
/// Timer-id namespace bit: repair flush at a watcher root. Payload:
/// template.
const SUB_REPAIR: u64 = 1 << 48;
/// Timer-id namespace bit: contribution retransmit deadline at a watcher
/// root (recovery only). Payload: template.
const SUB_CONTRIB_RETRY: u64 = 1 << 49;
/// Timer-id namespace bit: push retransmit deadline at a coordinator
/// (recovery only). Payload: subscription id.
const SUB_PUSH_RETRY: u64 = 1 << 50;
/// Mask extracting a deadline timer's payload (qid, sid or template index).
const DEADLINE_PAYLOAD: u64 = ECHO_DEADLINE - 1;

/// Tables shared by every node (read-only at run time).
pub struct Shared {
    /// The query template dictionary.
    pub templates: Vec<Template>,
    /// The feature metric.
    pub metric: Arc<dyn Metric>,
    /// The network topology (initiators path-find locally over it).
    pub topology: Arc<Topology>,
    /// Clustering threshold δ.
    pub delta: f64,
    /// Maintenance slack Δ (the §6 absorption bound).
    pub slack: f64,
    /// Whether routing-node result caches are enabled.
    pub cache_enabled: bool,
    /// Ticks a cluster root holds a missed template before descending, so
    /// near-simultaneous same-template queries share the descent. Zero
    /// still batches same-tick arrivals (the flush timer fires after all
    /// deliveries already queued for the current tick).
    pub batch_window: SimTime,
    /// Whether the failure-recovery layer is armed: deadline timers,
    /// convergecast re-issue, leader failover. Off by default so fault-free
    /// runs behave (and bill) exactly as before.
    pub recovery: bool,
    /// Cluster index of every node (plan-time snapshot).
    pub cluster_of: Vec<usize>,
    /// Original leader of every cluster (plan-time snapshot).
    pub leaders: Vec<NodeId>,
    /// Members of every cluster, ascending. The failover successor of a
    /// cluster is its lexicographically-least surviving member — a rule
    /// every detector evaluates identically, so no election messages are
    /// needed.
    pub members_of: Vec<Vec<NodeId>>,
    /// Static cluster-tree parents (plan-time snapshot).
    pub tree_parent: Vec<Option<NodeId>>,
    /// Static cluster-tree children (plan-time snapshot); a failover
    /// successor uses this to adopt the dead root's surviving children.
    pub tree_children: Vec<Vec<NodeId>>,
    /// Backbone-adjacent original leaders per cluster (plan-time snapshot);
    /// a successor inherits the dead leader's backbone seat from this.
    pub backbone_peers_of: Vec<Vec<NodeId>>,
    /// Network diameter in hops — deadline bounds scale with it.
    pub diameter: u64,
    /// Number of clusters (echo-tree depth bound for deadline sizing).
    pub n_clusters: usize,
    /// Serving-QoS knobs of the subscription engine.
    pub qos: QosConfig,
    /// Whether this deployment serves standing subscriptions — gates the
    /// takeover announcements (`SubTakeover`/`SubReregister`) so
    /// subscription-free runs bill exactly as before.
    pub expect_subs: bool,
}

/// Messages of the serving protocol.
#[derive(Debug, Clone)]
pub enum ServeMsg {
    /// A sensed feature update (injected by the harness).
    Update(Feature),
    /// Invalidation climb: the sender's anchor feature and repaired
    /// covering radius; the receiver repairs its child entry, inflates its
    /// own radius, evicts its cache, and forwards upward.
    Invalidate {
        /// The sender's current anchor.
        feature: Feature,
        /// The sender's repaired covering radius.
        radius: f64,
    },
    /// A query submission at the initiator (injected by the harness).
    Submit {
        /// Query id.
        qid: QueryId,
        /// Template index.
        template: u16,
    },
    /// Initiator → its cluster root: start coordinating this query.
    ToRoot {
        /// Query id.
        qid: QueryId,
        /// Template index.
        template: u16,
        /// The initiator's load ladder degraded this query at submission:
        /// the root answers from its own cluster only (no backbone echo)
        /// and the answer honestly reports the reduced coverage.
        degraded: bool,
    },
    /// Echo wave out over the leader backbone.
    Fanout {
        /// Query id.
        qid: QueryId,
        /// Template index.
        template: u16,
    },
    /// Echo convergecast back towards the coordinator.
    BackAgg {
        /// Query id.
        qid: QueryId,
        /// Matches from the sender's backbone subtree.
        matches: NodeSet,
        /// Nodes whose membership in the answer this subtree determined.
        covered: u64,
    },
    /// M-tree descent into a child subtree, shared by all riders.
    Descend {
        /// Template index.
        template: u16,
        /// Queries riding this descent.
        riders: Vec<QueryId>,
    },
    /// Subtree answer back up the cluster tree (also the reply format of
    /// [`ServeMsg::Probe`], with `covered == 1`).
    AggUp {
        /// Template index.
        template: u16,
        /// Matches within the sender's subtree.
        matches: NodeSet,
        /// Nodes whose membership in the answer this subtree determined.
        covered: u64,
    },
    /// Coordinator → initiator: the final match set.
    Down {
        /// Query id.
        qid: QueryId,
        /// The full match set.
        matches: NodeSet,
        /// Nodes whose membership in the answer the wave determined.
        covered: u64,
    },
    /// Degraded-mode direct evaluation request: a failover successor whose
    /// adopted index does not span the whole cluster asks a member for its
    /// own match bit. Answered with a one-node [`ServeMsg::AggUp`].
    Probe {
        /// Template index.
        template: u16,
    },
    /// Failover successor → surviving child of the dead root: re-parent
    /// yourself under me and report your M-tree entry.
    Reattach,
    /// Reply to [`ServeMsg::Reattach`]: the child's anchor, covering radius
    /// and static subtree, from which the successor builds an adopted
    /// [`ChildEntry`] and inflates its own covering radius.
    Adopt {
        /// The child's current anchor.
        feature: Feature,
        /// The child's covering radius.
        radius: f64,
        /// The child's static subtree membership.
        subtree: Vec<NodeId>,
    },
    /// Harness → client: register a standing subscription.
    Subscribe {
        /// Subscription id (unique across the run).
        sid: u64,
        /// Template index.
        template: u16,
    },
    /// Client → coordinator (its cluster root): admit this subscription.
    /// Idempotent: re-registration after a coordinator failover resets the
    /// push stream with a fresh snapshot.
    SubRegister {
        /// Subscription id.
        sid: u64,
        /// Template index.
        template: u16,
        /// The subscribing client node.
        client: NodeId,
    },
    /// Backbone flood: `coordinator` wants contributions for `template`
    /// from every cluster root.
    SubWatch {
        /// Template index.
        template: u16,
        /// Coordinator node to report to.
        coordinator: NodeId,
    },
    /// Watcher root → coordinator: this cluster's *absolute* contribution
    /// (the coordinator computes deltas itself, so a lost or reordered
    /// contribution can never corrupt the merged view).
    SubContrib {
        /// Template index.
        template: u16,
        /// Watcher's cluster index.
        cluster: usize,
        /// Per-origin contribution sequence number.
        cseq: u64,
        /// Matching members of that cluster.
        matches: NodeSet,
        /// Members whose membership the watcher determined (honesty).
        covered: u64,
        /// Dirty-mark time of the oldest repaired change (latency base).
        trigger: SimTime,
    },
    /// Coordinator → watcher root: contribution `cseq` accepted (recovery
    /// only — fault-free runs skip the ack round entirely).
    SubContribAck {
        /// Template index.
        template: u16,
        /// Acknowledged sequence number.
        cseq: u64,
    },
    /// Coordinator → client: a result push (snapshot or delta).
    SubPush {
        /// Subscription id.
        sid: u64,
        /// Version this push advances the client to.
        version: u64,
        /// The exact view version the delta was computed against.
        base_version: u64,
        /// Snapshot: `adds` is the full view, `removes` empty.
        snapshot: bool,
        /// Nodes entering the result, ascending.
        adds: Vec<NodeId>,
        /// Nodes leaving the result, ascending.
        removes: Vec<NodeId>,
        /// Covered-node count behind this view (coverage honesty).
        covered: u64,
        /// Trigger time for the push-latency histogram.
        trigger: SimTime,
    },
    /// Client → coordinator: push `version` applied (recovery only).
    SubAck {
        /// Subscription id.
        sid: u64,
        /// Applied version.
        version: u64,
    },
    /// Client → coordinator: view diverged (delta base mismatch); send a
    /// fresh snapshot.
    SubResync {
        /// Subscription id.
        sid: u64,
    },
    /// Coordinator → client: the subscription ended (shed, evicted, or the
    /// client became unreachable). See [`end_reason`].
    SubEnd {
        /// Subscription id.
        sid: u64,
        /// [`end_reason`] code.
        reason: u8,
    },
    /// Backbone flood announcing a leader-failover takeover, so
    /// coordinators drop the dead root's (now unverifiable) contributions
    /// and re-register their watches with the successor.
    SubTakeover {
        /// The cluster that failed over.
        cluster: usize,
        /// Its successor root.
        successor: NodeId,
    },
    /// Failover successor → its cluster's live members: re-register your
    /// subscriptions with me (the dead root's table died with it).
    SubReregister,
}

/// A finished query at its initiator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompletedQuery {
    /// Query id.
    pub qid: QueryId,
    /// Template index.
    pub template: u16,
    /// Submission tick.
    pub submitted: SimTime,
    /// Completion tick.
    pub finished: SimTime,
    /// Matching nodes, ascending (for path templates: the unsafe set).
    pub matches: Vec<NodeId>,
    /// For path templates: a safe source→dest path if one exists.
    pub path: Option<Vec<NodeId>>,
    /// Coverage of the answer in integer milli-units: `1000` means every
    /// node's membership in the match set was determined (the answer equals
    /// the brute-force ground truth over anchors); anything lower means the
    /// wave gave up on part of the network — crashed subtrees, an
    /// unreachable leader, or a dead ex-root whose current anchor is
    /// unknowable — and the answer is a sound *subset* of the truth.
    pub coverage_milli: u16,
    /// The load-admission ladder refused this query at submission: the
    /// answer is an immediate, explicit empty result with zero coverage.
    /// Shed queries are always *reported* — never silently dropped — so a
    /// closed-loop client keeps its cadence and the harness can audit the
    /// shed rate.
    pub shed: bool,
}

/// One single-flight M-tree descent in progress at a node.
#[derive(Debug, Clone)]
struct EvalState {
    /// Queries sharing this descent.
    riders: Vec<QueryId>,
    /// Whether the descent has been launched (cluster roots hold the eval
    /// for the batch window first).
    launched: bool,
    /// Children (and degraded-mode probe targets) whose answer is still
    /// outstanding. Answers from nodes not listed here are late duplicates
    /// and are ignored.
    outstanding: Vec<NodeId>,
    /// Matches accumulated so far: the union of this node's own match bit
    /// and every subtree answer received.
    acc: NodeSet,
    /// Nodes whose membership the descent has determined so far.
    covered: u64,
    /// Invalidation epoch at eval start — a stale epoch at completion
    /// suppresses the cache fill.
    epoch0: u64,
    /// Set when the descent gave up on somebody (dead child skipped, or a
    /// deadline forced completion): the result must not be cached.
    partial: bool,
    /// Whether the one re-issue round has been spent.
    reissued: bool,
}

impl EvalState {
    fn new(riders: Vec<QueryId>, epoch0: u64) -> EvalState {
        EvalState {
            riders,
            launched: false,
            outstanding: Vec::new(),
            acc: NodeSet::new(),
            covered: 0,
            epoch0,
            partial: false,
            reissued: false,
        }
    }
}

/// Per-query echo (fan-out/convergecast) state at a cluster root.
#[derive(Debug, Clone)]
struct EchoState {
    /// Backbone peer to reply to (`None` at the coordinator).
    parent: Option<NodeId>,
    /// The initiator (meaningful at the coordinator only).
    initiator: NodeId,
    /// Template index (kept for the re-issue round).
    template: u16,
    /// Peer *clusters* whose `BackAgg` is still outstanding. Tracking the
    /// cluster rather than the leader node lets a re-issued fanout go to a
    /// failover successor while a late answer from the original leader is
    /// still deduplicated.
    outstanding: Vec<usize>,
    /// Whether the local cluster answer is still being computed.
    local_pending: bool,
    /// Matches accumulated so far: the union of the local cluster answer
    /// and every backbone subtree answer received.
    acc: NodeSet,
    /// Nodes whose membership the wave has determined so far.
    covered: u64,
    /// Whether the one re-issue round has been spent.
    reissued: bool,
}

/// A query submitted here and not yet answered.
#[derive(Debug, Clone)]
struct PendingQuery {
    template: u16,
    submitted: SimTime,
    /// Whether the one resubmission round has been spent.
    resubmitted: bool,
    /// Load-ladder verdict at submission time — a resubmission round
    /// re-sends the same verdict so one query never widens its scope
    /// mid-flight.
    degraded: bool,
}

/// Outcome of a cluster root's local evaluation attempt.
enum LocalEval {
    /// The local cluster answer is known now: (matches, covered nodes).
    Resolved(NodeSet, u64),
    /// A descent is in flight; the query rides it.
    Pending,
}

/// The lexicographically-least surviving member of `cluster` — the
/// deterministic failover successor. Every detector evaluates this rule
/// against the same shared tables and the same liveness oracle, so all
/// nodes agree on the successor without election traffic.
fn successor(shared: &Shared, cluster: usize, ctx: &Ctx<'_, ServeMsg>) -> Option<NodeId> {
    shared.members_of[cluster]
        .iter()
        .copied()
        .find(|&m| ctx.is_alive(m))
}

/// Where cluster-root traffic for `cluster` should be addressed right now:
/// the original leader while it lives, otherwise the failover successor.
fn current_root(shared: &Shared, cluster: usize, ctx: &Ctx<'_, ServeMsg>) -> Option<NodeId> {
    let leader = shared.leaders[cluster];
    if ctx.is_alive(leader) {
        Some(leader)
    } else {
        successor(shared, cluster, ctx)
    }
}

/// Per-node serving protocol state.
#[derive(Clone)]
pub struct ServeNode {
    id: NodeId,
    plan: NodePlan,
    shared: Arc<Shared>,
    /// Last synchronized feature — all answers are defined over anchors.
    anchor: Feature,
    /// Live sensed feature (drifts within the slack without re-anchoring).
    feature: Feature,
    /// Snapshot of the cluster root's anchor from plan distribution, used
    /// by the §6 slack conditions A₂/A₃ (staleness only affects which
    /// updates absorb, never answer correctness).
    root_feature: Feature,
    /// Bumped on every slack-exceeding re-anchor.
    anchor_epoch: u64,
    /// Bumped whenever this node's subtree state changes (own re-anchor or
    /// a descendant's invalidation climb).
    inval_epoch: u64,
    /// Registry translating adopted-child ids to the dense handles keying
    /// `adopted`.
    nodes: NodeTable,
    /// Per-template cached subtree answers with their covered-node count.
    cache: FlatMap<u16, (NodeSet, u64)>,
    /// Single-flight descents, keyed by template.
    evals: FlatMap<u16, EvalState>,
    /// Echo states for queries this root participates in.
    echo: FlatMap<QueryId, EchoState>,
    /// Queries submitted here and not yet answered.
    pending: FlatMap<QueryId, PendingQuery>,
    /// `Some(dead leader)` after this node performed a failover takeover:
    /// it serves its cluster in degraded mode (always drill, probe members
    /// the adopted index does not span, and never count the dead ex-root —
    /// whose current anchor is unknowable — as covered).
    dead_root: Option<NodeId>,
    /// Children adopted through failover (`Reattach`/`Adopt`). Adopted
    /// children are generally not topology neighbors, so descents to them
    /// go as routed unicasts instead of link sends.
    adopted: FlatSet<NodeHandle>,
    /// True once this node has been re-attached under a failover successor:
    /// the new parent is generally not a neighbor, so subtree replies go as
    /// routed unicasts.
    routed_parent: bool,
    /// Closed-loop script (empty for open-loop runs).
    script: VecDeque<ScriptEntry>,
    /// Queries finished at this initiator.
    completed: Vec<CompletedQuery>,
    /// Standing-subscription state (client, coordinator and watcher roles).
    subs: SubState,
}

/// Mutation hook for the model checker's smoke test: when set, the `Adopt`
/// handler skips M-tree covering-radius inflation on failover adoption —
/// the seeded bug the checker must catch (an under-inflated radius lets a
/// degraded root claim `IncludeAll`/`Exclude` coverage over members its
/// entry no longer bounds, breaking answer soundness). Test-only; never set
/// in production code paths.
#[doc(hidden)]
pub static SKIP_ADOPT_RADIUS_INFLATION: std::sync::atomic::AtomicBool =
    std::sync::atomic::AtomicBool::new(false);

/// Node-level match predicate: strict templates (path unsafe sets) require
/// `d < r`, range templates `d ≤ r`.
fn node_matches(d: f64, r: f64, strict: bool) -> bool {
    if strict {
        d < r
    } else {
        d <= r
    }
}

/// [`cluster_decision`] with the strict-inequality demotion: a strict
/// template may only take `IncludeAll` when the bound is strictly inside
/// (`d_root + radius < r`); otherwise the boundary members must be checked
/// individually, so the decision demotes to `Drill`.
fn effective_cluster(d_root: f64, r: f64, radius: f64, strict: bool) -> ClusterDecision {
    let base = cluster_decision(d_root, r, radius);
    if strict && base == ClusterDecision::IncludeAll && d_root + radius >= r {
        ClusterDecision::Drill
    } else {
        base
    }
}

/// [`descend_decision`] with the same strict demotion (`IncludeAll` →
/// `Descend` unless the upper bound is strictly below `r`).
fn effective_descend(
    d_node: f64,
    d_pc: f64,
    r: f64,
    r_child: f64,
    strict: bool,
) -> DescendDecision {
    let base = descend_decision(d_node, d_pc, r, r_child);
    if strict && base == DescendDecision::IncludeAll && d_node + d_pc + r_child >= r {
        DescendDecision::Descend
    } else {
        base
    }
}

/// Query parameters of a template: (center, radius, strict).
fn params(t: &Template) -> (&Feature, f64, bool) {
    match t {
        Template::Range { center, r } => (center, *r, false),
        Template::Path { danger, gamma, .. } => (danger, *gamma, true),
    }
}

impl ServeNode {
    /// Creates the node's protocol instance. `feature` is the initial
    /// sensed feature (also the initial anchor), `root_feature` the cluster
    /// root's initial feature, `script` this node's closed-loop script
    /// (empty for open-loop initiators).
    pub fn new(
        id: NodeId,
        plan: NodePlan,
        shared: Arc<Shared>,
        feature: Feature,
        root_feature: Feature,
        script: Vec<ScriptEntry>,
    ) -> ServeNode {
        let nodes = NodeTable::new(shared.topology.n());
        ServeNode {
            id,
            plan,
            shared,
            anchor: feature.clone(),
            feature,
            root_feature,
            anchor_epoch: 0,
            inval_epoch: 0,
            nodes,
            cache: FlatMap::new(),
            evals: FlatMap::new(),
            echo: FlatMap::new(),
            pending: FlatMap::new(),
            dead_root: None,
            adopted: FlatSet::new(),
            routed_parent: false,
            script: script.into(),
            completed: Vec::new(),
            subs: SubState::default(),
        }
    }

    // -- recovery deadlines ----------------------------------------------
    //
    // Each bound is *sound* under the current transport: on a loss-only run
    // (ARQ absorbing every drop within its delivery envelope,
    // `Ctx::max_delivery_delay`) the guarded wave always completes before
    // its deadline, so a deadline firing against live state implies a
    // crash or partition. That is what keeps lossy answers identical to
    // loss-free ones while still bounding every fault.

    /// Worst-case one-way transit of a single routed (multi-hop) message.
    fn transit_bound(&self, ctx: &Ctx<'_, ServeMsg>) -> u64 {
        (self.shared.diameter + 1) * ctx.max_delivery_delay()
    }

    /// Descent bound: down and up a cluster tree of at most `n` edges, plus
    /// a degraded-mode probe round trip.
    fn eval_deadline_ticks(&self, ctx: &Ctx<'_, ServeMsg>) -> u64 {
        2 * (ctx.n() as u64 + 1) * ctx.max_delivery_delay() + 2 * self.transit_bound(ctx)
    }

    /// Echo bound: the backbone tree has at most `n_clusters` levels, each
    /// costing a batch window, a local descent and a fanout/convergecast
    /// round trip.
    fn echo_deadline_ticks(&self, ctx: &Ctx<'_, ServeMsg>) -> u64 {
        (self.shared.n_clusters as u64 + 1)
            * (self.eval_deadline_ticks(ctx)
                + self.shared.batch_window
                + 2 * self.transit_bound(ctx))
    }

    /// Initiator watchdog: a full echo plus its re-issue round plus routing.
    fn init_deadline_ticks(&self, ctx: &Ctx<'_, ServeMsg>) -> u64 {
        2 * self.echo_deadline_ticks(ctx) + 4 * self.transit_bound(ctx)
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Queries completed at this initiator, in completion order.
    pub fn completed(&self) -> &[CompletedQuery] {
        &self.completed
    }

    /// Current anchor feature (what queries answer over).
    pub fn anchor(&self) -> &Feature {
        &self.anchor
    }

    /// Current live (sensed) feature.
    pub fn feature(&self) -> &Feature {
        &self.feature
    }

    /// Number of slack-exceeding re-anchors at this node.
    pub fn anchor_epoch(&self) -> u64 {
        self.anchor_epoch
    }

    /// Current (possibly inflated) covering radius.
    pub fn radius(&self) -> f64 {
        self.plan.radius
    }

    /// Number of cached templates at this routing node.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// The cached subtree answer for `template`, if any: `(matches,
    /// covered-node count)`.
    pub fn cached(&self, template: u16) -> Option<&(NodeSet, u64)> {
        self.cache.get(&template)
    }

    /// The node's live serving plan (M-tree entries, covering radius,
    /// failover re-parenting) — read-only, for invariant checking.
    pub fn plan(&self) -> &NodePlan {
        &self.plan
    }

    /// Queries submitted here that have not completed.
    pub fn unanswered(&self) -> usize {
        self.pending.len()
    }

    /// Client-side subscription records of this node, by subscription id.
    pub fn client_subs(&self) -> impl Iterator<Item = (u64, &ClientSub)> {
        self.subs.client.iter().map(|(&sid, c)| (sid, c))
    }

    /// One client-side subscription record, if present.
    pub fn client_sub(&self, sid: u64) -> Option<&ClientSub> {
        self.subs.client.get(&sid)
    }

    /// Coordinator-side subscription table size at this node.
    pub fn sub_table_len(&self) -> usize {
        self.subs.table.len()
    }

    // -- submission -------------------------------------------------------

    /// The load-ladder verdict for work entering the system *now*: the
    /// contention-aware delivery envelope against the idle one. With the
    /// ladder disarmed (`qos.load == None`) everything is `Full` — exact
    /// legacy behavior.
    fn load_admission(&self, ctx: &Ctx<'_, ServeMsg>) -> Admission {
        match &self.shared.qos.load {
            Some(cfg) => {
                qos::admit_load(cfg, ctx.max_delivery_delay(), ctx.nominal_delivery_delay())
            }
            None => Admission::Full,
        }
    }

    fn submit(&mut self, qid: QueryId, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
        debug_assert!(qid < DEADLINE_PAYLOAD, "qid collides with timer namespace");
        // Load admission runs *before* any wire traffic: a shed query costs
        // zero messages, a degraded one never touches the backbone. The
        // decision is pinned here (not re-evaluated downstream) so one
        // query sees one verdict.
        let admission = self.load_admission(ctx);
        self.pending.insert(
            qid,
            PendingQuery {
                template,
                submitted: ctx.now(),
                resubmitted: false,
                degraded: admission == Admission::Degraded,
            },
        );
        ctx.metrics().inc("wl.query.submitted");
        let degraded = match admission {
            Admission::Shed => {
                ctx.metrics().inc("serve.shed");
                ctx.trace_shed(qid);
                self.deliver_answer(qid, &NodeSet::new(), 0, true, ctx);
                return;
            }
            Admission::Degraded => {
                ctx.metrics().inc("serve.degraded");
                true
            }
            Admission::Full => {
                ctx.metrics().inc("serve.admitted");
                false
            }
        };
        let root = if self.shared.recovery {
            let shared = Arc::clone(&self.shared);
            current_root(&shared, shared.cluster_of[self.id], ctx).unwrap_or(self.id)
        } else {
            self.plan.cluster_root
        };
        if root == self.id {
            self.ensure_root(ctx);
            self.start_echo(qid, template, None, self.id, degraded, ctx);
        } else if ctx.unicast_tagged(
            root,
            ServeMsg::ToRoot {
                qid,
                template,
                degraded,
            },
            "wl_route",
            2,
            qid,
        ) {
            // Routed; the root takes over as coordinator. Under recovery the
            // initiator also arms a watchdog in case the root dies on us.
            if self.shared.recovery {
                let dl = self.init_deadline_ticks(ctx);
                ctx.set_timer(dl, INIT_DEADLINE | qid);
            }
        } else {
            self.pending.remove(&qid);
            ctx.metrics().inc("wl.query.lost");
            // Keep a closed-loop client alive even when a query is lost.
            if let Some(e) = self.script.front() {
                ctx.set_timer(e.think, SCRIPT_TIMER);
            }
        }
    }

    /// Initiator watchdog: one resubmission round (re-resolved against the
    /// current leader — this is what routes around a crashed coordinator),
    /// then a guaranteed empty zero-coverage answer so closed loops never
    /// wedge.
    fn on_init_deadline(&mut self, qid: QueryId, ctx: &mut Ctx<'_, ServeMsg>) {
        let Some(p) = self.pending.get_mut(&qid) else {
            return;
        };
        let (template, degraded) = (p.template, p.degraded);
        if !p.resubmitted {
            p.resubmitted = true;
            ctx.metrics().inc("wl.recover.resubmit");
            let shared = Arc::clone(&self.shared);
            let root = current_root(&shared, shared.cluster_of[self.id], ctx).unwrap_or(self.id);
            if root == self.id {
                self.ensure_root(ctx);
                if !self.echo.contains_key(&qid) {
                    self.start_echo(qid, template, None, self.id, degraded, ctx);
                }
            } else {
                ctx.unicast_tagged(
                    root,
                    ServeMsg::ToRoot {
                        qid,
                        template,
                        degraded,
                    },
                    "wl_route",
                    2,
                    qid,
                );
                let dl = self.init_deadline_ticks(ctx);
                ctx.set_timer(dl, INIT_DEADLINE | qid);
            }
        } else {
            ctx.metrics().inc("wl.recover.query_gaveup");
            self.deliver_answer(qid, &NodeSet::new(), 0, false, ctx);
        }
    }

    // -- failover ---------------------------------------------------------

    /// Returns whether this node may act as its cluster's root, performing
    /// the failover takeover first if it is the designated successor of a
    /// dead leader. Messages addressed to a node that is neither are
    /// misrouted (stale address during a takeover) and dropped — the
    /// sender's deadline machinery recovers.
    fn ensure_root(&mut self, ctx: &mut Ctx<'_, ServeMsg>) -> bool {
        if self.plan.cluster_root == self.id {
            return true;
        }
        if !self.shared.recovery {
            return false;
        }
        let shared = Arc::clone(&self.shared);
        let cluster = shared.cluster_of[self.id];
        if current_root(&shared, cluster, ctx) == Some(self.id) {
            self.perform_takeover(ctx);
            true
        } else {
            false
        }
    }

    /// Deterministic leader failover: adopt the dead root's role. The
    /// successor inherits the membership list and backbone seat from the
    /// shared plan tables, re-parents the dead root's surviving cluster-tree
    /// children under itself ([`ServeMsg::Reattach`]), and — reusing the
    /// invalidation-climb rule — bumps its epoch and evicts its cache, since
    /// its M-tree scope is about to grow. Until the `Adopt` replies land,
    /// queries are answered by direct probes; the dead ex-root itself is
    /// permanently uncovered (its current anchor is unknowable), so every
    /// post-failover answer honestly reports partial coverage.
    fn perform_takeover(&mut self, ctx: &mut Ctx<'_, ServeMsg>) {
        ctx.metrics().inc("maint.failover");
        let shared = Arc::clone(&self.shared);
        let cluster = shared.cluster_of[self.id];
        let dead = shared.leaders[cluster];
        self.dead_root = Some(dead);
        self.plan.cluster_root = self.id;
        self.plan.parent = None;
        self.plan.members = shared.members_of[cluster].clone();
        self.plan.backbone_peers = shared.backbone_peers_of[cluster].clone();
        self.adopted.clear();
        self.inval_epoch += 1;
        ctx.metrics().inc("wl.cache.inval");
        ctx.metrics().add("wl.cache.evict", self.cache.len() as u64);
        self.cache.clear();
        // Walk up the static tree to find our own branch directly under the
        // dead root; every *other* surviving child of the dead root is
        // re-attached beneath us.
        let mut branch = self.id;
        while let Some(p) = shared.tree_parent[branch] {
            if p == dead {
                break;
            }
            branch = p;
        }
        for &child in &shared.tree_children[dead] {
            if child != branch && ctx.is_alive(child) {
                ctx.unicast(child, ServeMsg::Reattach, "wl_failover", 1);
            }
        }
        // Standing subscriptions: the dead root's subscription table and
        // watch registrations died with it. Announce the takeover on the
        // backbone (coordinators drop its unverifiable contributions and
        // re-register global watches with us) and ask our own cluster's
        // clients to re-register their subscriptions.
        if shared.expect_subs {
            self.subs.seen_takeover.insert(cluster, self.id);
            let peers = self.plan.backbone_peers.clone();
            for p in peers {
                let pc = shared.cluster_of[p];
                if let Some(addr) = current_root(&shared, pc, ctx) {
                    ctx.unicast_tagged(
                        addr,
                        ServeMsg::SubTakeover {
                            cluster,
                            successor: self.id,
                        },
                        "wl_subwatch",
                        2,
                        QID_SUB_CONTROL | cluster as u64,
                    );
                }
            }
            let members = self.plan.members.clone();
            for m in members {
                if m != self.id && ctx.is_alive(m) {
                    ctx.unicast_tagged(m, ServeMsg::SubReregister, "wl_subctl", 1, QID_SUB_CONTROL);
                }
            }
        }
    }

    // -- echo wave (cluster roots) ----------------------------------------

    fn start_echo(
        &mut self,
        qid: QueryId,
        template: u16,
        parent: Option<NodeId>,
        initiator: NodeId,
        local_only: bool,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        let shared = Arc::clone(&self.shared);
        // The echo spans the backbone tree; the parent is excluded by
        // *cluster* so a fanout from a failover successor is recognized.
        // A load-degraded query skips the backbone entirely (`local_only`):
        // it costs one cluster and its `covered` count honestly stops at
        // this cluster's members.
        let parent_cluster = parent.map(|p| shared.cluster_of[p]);
        let mut outstanding = Vec::new();
        let peers = if local_only {
            Vec::new()
        } else {
            self.plan.backbone_peers.clone()
        };
        for p in peers {
            let pc = shared.cluster_of[p];
            if Some(pc) == parent_cluster {
                continue;
            }
            // Under recovery, re-resolve the peer seat against liveness: a
            // dead leader's fanout goes straight to its successor. A fully
            // dead peer cluster is skipped and stays uncovered.
            let addr = if shared.recovery {
                current_root(&shared, pc, ctx)
            } else {
                Some(p)
            };
            let Some(addr) = addr else {
                continue;
            };
            if ctx.unicast_tagged(
                addr,
                ServeMsg::Fanout { qid, template },
                "wl_fanout",
                2,
                qid,
            ) {
                outstanding.push(pc);
            }
        }
        let mut st = EchoState {
            parent,
            initiator,
            template,
            outstanding,
            local_pending: false,
            acc: NodeSet::new(),
            covered: 0,
            reissued: false,
        };
        match self.local_cluster_eval(qid, template, ctx) {
            LocalEval::Resolved(m, covered) => {
                st.acc = m;
                st.covered += covered;
            }
            LocalEval::Pending => st.local_pending = true,
        }
        self.echo.insert(qid, st);
        if shared.recovery {
            let dl = self.echo_deadline_ticks(ctx);
            ctx.set_timer(dl, ECHO_DEADLINE | qid);
        }
        self.maybe_finish_echo(qid, ctx);
    }

    /// Echo deadline at an echo participant: one re-issue round to the
    /// outstanding peer clusters (re-resolved, so a crashed leader's seat is
    /// retried at its successor), then a forced partial convergecast so the
    /// wave always terminates.
    fn on_echo_deadline(&mut self, qid: QueryId, ctx: &mut Ctx<'_, ServeMsg>) {
        let reissue = {
            let Some(st) = self.echo.get_mut(&qid) else {
                return;
            };
            if st.reissued {
                false
            } else {
                st.reissued = true;
                true
            }
        };
        if reissue {
            let (template, outstanding) = {
                let st = self.echo.get(&qid).expect("checked above");
                (st.template, st.outstanding.clone())
            };
            ctx.metrics().inc("wl.recover.reissue");
            let shared = Arc::clone(&self.shared);
            for pc in outstanding {
                if let Some(addr) = current_root(&shared, pc, ctx) {
                    ctx.unicast_tagged(
                        addr,
                        ServeMsg::Fanout { qid, template },
                        "wl_fanout",
                        2,
                        qid,
                    );
                }
            }
            let dl = self.echo_deadline_ticks(ctx);
            ctx.set_timer(dl, ECHO_DEADLINE | qid);
        } else {
            let st = self.echo.remove(&qid).expect("checked above");
            ctx.metrics().inc("wl.recover.echo_gaveup");
            self.finish_echo(qid, st, ctx);
        }
    }

    /// Answers the local cluster (this root's subtree) for `template`,
    /// either immediately (cluster-level decision or cache hit) or by
    /// joining/launching a single-flight descent with `qid` riding.
    fn local_cluster_eval(
        &mut self,
        qid: QueryId,
        template: u16,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) -> LocalEval {
        let shared = Arc::clone(&self.shared);
        let (center, r, strict) = params(&shared.templates[template as usize]);
        let d_root = shared.metric.distance(center, &self.anchor);
        let full = self.plan.members.len() as u64;
        // A degraded (post-failover) root must always drill: its covering
        // radius and membership no longer justify the whole-cluster
        // shortcuts (the dead ex-root in particular must never be claimed).
        let decision = if self.dead_root.is_some() {
            ClusterDecision::Drill
        } else {
            effective_cluster(d_root, r, self.plan.radius, strict)
        };
        match decision {
            ClusterDecision::Exclude => {
                ctx.metrics().inc("wl.cluster.exclude");
                LocalEval::Resolved(NodeSet::new(), full)
            }
            ClusterDecision::IncludeAll => {
                ctx.metrics().inc("wl.cluster.include_all");
                LocalEval::Resolved(NodeSet::from_ids(&self.plan.members), full)
            }
            ClusterDecision::Drill => {
                if let Some((hit, covered)) = self.cache.get(&template) {
                    ctx.metrics().inc("wl.cache.hit");
                    return LocalEval::Resolved(hit.clone(), *covered);
                }
                if let Some(ev) = self.evals.get_mut(&template) {
                    ev.riders.push(qid);
                    ctx.metrics().inc("wl.batch.riders");
                } else {
                    ctx.metrics().inc("wl.cache.miss");
                    self.evals
                        .insert(template, EvalState::new(vec![qid], self.inval_epoch));
                    // Flush after the batch window; a zero window still
                    // coalesces everything already queued for this tick.
                    ctx.set_timer(shared.batch_window, u64::from(template));
                }
                LocalEval::Pending
            }
        }
    }

    fn maybe_finish_echo(&mut self, qid: QueryId, ctx: &mut Ctx<'_, ServeMsg>) {
        let done = self
            .echo
            .get(&qid)
            .is_some_and(|st| st.outstanding.is_empty() && !st.local_pending);
        if !done {
            return;
        }
        let st = self.echo.remove(&qid).expect("checked above");
        self.finish_echo(qid, st, ctx);
    }

    /// Converges the (possibly partial) echo result towards whoever asked.
    fn finish_echo(&mut self, qid: QueryId, st: EchoState, ctx: &mut Ctx<'_, ServeMsg>) {
        let scalars = st.acc.len() as u64 + 1;
        if let Some(p) = st.parent {
            ctx.unicast_tagged(
                p,
                ServeMsg::BackAgg {
                    qid,
                    matches: st.acc,
                    covered: st.covered,
                },
                "wl_backagg",
                scalars,
                qid,
            );
        } else if st.initiator == self.id {
            self.deliver_answer(qid, &st.acc, st.covered, false, ctx);
        } else {
            ctx.unicast_tagged(
                st.initiator,
                ServeMsg::Down {
                    qid,
                    matches: st.acc,
                    covered: st.covered,
                },
                "wl_down",
                scalars,
                qid,
            );
        }
    }

    // -- M-tree descent ---------------------------------------------------

    /// Launches the descent for `template` (the eval must exist and be
    /// unlaunched). Evaluates this node and each child entry, sends shared
    /// `Descend` packets where needed, and completes immediately when no
    /// child must be consulted.
    fn launch_descent(&mut self, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
        let Some(mut ev) = self.evals.remove(&template) else {
            return;
        };
        let shared = Arc::clone(&self.shared);
        let (center, r, strict) = params(&shared.templates[template as usize]);
        let d_node = shared.metric.distance(center, &self.anchor);
        ev.launched = true;
        ev.covered += 1;
        if node_matches(d_node, r, strict) {
            ev.acc.insert(self.id);
        }
        for entry in &self.plan.entries {
            let d_pc = shared.metric.distance(&self.anchor, &entry.feature);
            match effective_descend(d_node, d_pc, r, entry.radius, strict) {
                DescendDecision::Prune => {
                    ctx.metrics().inc("wl.mtree.prune");
                    ev.covered += entry.subtree.len() as u64;
                }
                DescendDecision::IncludeAll => {
                    ctx.metrics().inc("wl.mtree.include_all");
                    for &m in &entry.subtree {
                        ev.acc.insert(m);
                    }
                    ev.covered += entry.subtree.len() as u64;
                }
                DescendDecision::Descend => {
                    // A detected-dead child is skipped outright: its subtree
                    // stays uncovered and the result is marked partial.
                    if shared.recovery && !ctx.is_alive(entry.child) {
                        ctx.metrics().inc("wl.recover.dead_child");
                        ev.partial = true;
                        continue;
                    }
                    let scalars = 1 + ev.riders.len() as u64;
                    let msg = ServeMsg::Descend {
                        template,
                        riders: ev.riders.clone(),
                    };
                    if self.adopted.contains(&self.nodes.handle(entry.child)) {
                        // Adopted (failover) children are not neighbors.
                        if !ctx.unicast_tagged(
                            entry.child,
                            msg,
                            "wl_descend",
                            scalars,
                            ev.riders[0],
                        ) {
                            ev.partial = true;
                            continue;
                        }
                    } else {
                        ctx.send_tagged(entry.child, msg, "wl_descend", scalars, ev.riders[0]);
                    }
                    for &q in &ev.riders[1..] {
                        ctx.attribute_query(q, 1, scalars);
                    }
                    ev.outstanding.push(entry.child);
                }
            }
        }
        // A degraded root's (original + adopted) entries may not span the
        // whole membership yet; the stragglers are evaluated by direct
        // probes. The dead ex-root is never probed and never covered.
        if let Some(dead) = self.dead_root {
            if self.plan.parent.is_none() {
                let mut spanned: FlatSet<NodeId> = FlatSet::new();
                for e in &self.plan.entries {
                    for &m in &e.subtree {
                        spanned.insert(m);
                    }
                }
                spanned.insert(self.id);
                let members = self.plan.members.clone();
                for m in members {
                    if m == dead || spanned.contains(&m) {
                        continue;
                    }
                    if ctx.is_alive(m)
                        && ctx.unicast_tagged(
                            m,
                            ServeMsg::Probe { template },
                            "wl_probe",
                            1,
                            ev.riders[0],
                        )
                    {
                        ctx.metrics().inc("wl.recover.probe");
                        ev.outstanding.push(m);
                    } else {
                        ev.partial = true;
                    }
                }
                // The dead ex-root's current anchor is unknowable: honest
                // coverage excludes it forever (covered stays short of full).
            }
        }
        if ev.outstanding.is_empty() {
            self.complete_eval(template, ev, ctx);
        } else {
            if shared.recovery {
                let dl = self.eval_deadline_ticks(ctx);
                ctx.set_timer(dl, EVAL_DEADLINE | u64::from(template));
            }
            self.evals.insert(template, ev);
        }
    }

    /// Descent deadline: one re-issue round to the still-live outstanding
    /// children/probes (a rebooted child lost its eval state; a re-issued
    /// `Descend` restarts it), then a forced partial completion. Forced
    /// results are never cached, so the next query retries the subtree.
    fn on_eval_deadline(&mut self, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
        let Some(ev) = self.evals.get_mut(&template) else {
            return;
        };
        if !ev.launched || ev.outstanding.is_empty() {
            return;
        }
        if !ev.reissued {
            ev.reissued = true;
            ctx.metrics().inc("wl.recover.reissue");
            let riders = ev.riders.clone();
            let outstanding = std::mem::take(&mut ev.outstanding);
            let mut partial = ev.partial;
            let mut kept = Vec::new();
            for target in outstanding {
                if !ctx.is_alive(target) {
                    partial = true;
                    continue;
                }
                kept.push(target);
                let is_child = self.plan.entries.iter().any(|e| e.child == target);
                if is_child {
                    let scalars = 1 + riders.len() as u64;
                    let msg = ServeMsg::Descend {
                        template,
                        riders: riders.clone(),
                    };
                    if self.adopted.contains(&self.nodes.handle(target)) {
                        if !ctx.unicast_tagged(target, msg, "wl_descend", scalars, riders[0]) {
                            kept.pop();
                            partial = true;
                        }
                    } else {
                        ctx.send_tagged(target, msg, "wl_descend", scalars, riders[0]);
                    }
                } else {
                    ctx.unicast_tagged(
                        target,
                        ServeMsg::Probe { template },
                        "wl_probe",
                        1,
                        riders[0],
                    );
                }
            }
            let ev = self.evals.get_mut(&template).expect("still present");
            ev.outstanding = kept;
            ev.partial = partial;
            if ev.outstanding.is_empty() {
                let ev = self.evals.remove(&template).expect("still present");
                self.complete_eval(template, ev, ctx);
            } else {
                let dl = self.eval_deadline_ticks(ctx);
                ctx.set_timer(dl, EVAL_DEADLINE | u64::from(template));
            }
        } else {
            let mut ev = self.evals.remove(&template).expect("checked above");
            ctx.metrics().inc("wl.recover.eval_gaveup");
            ev.partial = true;
            ev.outstanding.clear();
            self.complete_eval(template, ev, ctx);
        }
    }

    /// A descent finished at this node: fill the cache (unless the epoch
    /// went stale mid-flight or the result is partial), then answer upward
    /// or resolve echo riders.
    fn complete_eval(&mut self, template: u16, mut ev: EvalState, ctx: &mut Ctx<'_, ServeMsg>) {
        let stale = ev.epoch0 != self.inval_epoch;
        if stale || ev.partial {
            ctx.metrics().inc("wl.cache.skip_fill");
        } else if self.shared.cache_enabled {
            ctx.metrics().inc("wl.cache.fill");
            self.cache.insert(template, (ev.acc.clone(), ev.covered));
        }
        // Subscription repair riders resolve at the cluster root only
        // (internal nodes carry them for attribution). A repair that raced
        // an epoch bump is suppressed — the climb that bumped the epoch
        // re-dirtied the watch, so a fresh repair follows.
        if self.plan.parent.is_none() && ev.riders.iter().any(|&q| q & QID_SUB_REPAIR != 0) {
            ev.riders.retain(|&q| q & QID_SUB_REPAIR == 0);
            if stale {
                self.repair_went_stale(template, ctx);
            } else {
                self.finish_repair(template, ev.acc.clone(), ev.covered, ctx);
            }
            if ev.riders.is_empty() {
                return;
            }
        }
        self.reply_subtree(template, &ev.riders, ev.acc, ev.covered, ctx);
    }

    /// Sends a subtree answer to the parent (internal nodes) or resolves
    /// each rider's echo state (cluster roots).
    // simlint: hot
    fn reply_subtree(
        &mut self,
        template: u16,
        riders: &[QueryId],
        matches: NodeSet,
        covered: u64,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        if let Some(p) = self.plan.parent {
            let Some(&first) = riders.first() else {
                return;
            };
            let scalars = matches.len() as u64 + 1;
            let msg = ServeMsg::AggUp {
                template,
                matches,
                covered,
            };
            if self.routed_parent {
                // A failover parent is not a neighbor; if it is unroutable
                // its eval deadline degrades the wave to partial.
                ctx.unicast_tagged(p, msg, "wl_aggup", scalars, first);
            } else {
                ctx.send_tagged(p, msg, "wl_aggup", scalars, first);
            }
            for &q in &riders[1..] {
                ctx.attribute_query(q, 1, scalars);
            }
            ctx.metrics()
                .add("wl.batch.riders", riders.len() as u64 - 1);
        } else {
            for &qid in riders {
                if let Some(st) = self.echo.get_mut(&qid) {
                    st.acc.union(&matches);
                    st.covered += covered;
                    st.local_pending = false;
                }
            }
            for &qid in riders {
                self.maybe_finish_echo(qid, ctx);
            }
        }
    }

    // -- maintenance ------------------------------------------------------

    fn on_update(&mut self, new_feature: Feature, ctx: &mut Ctx<'_, ServeMsg>) {
        ctx.metrics().inc("wl.update.recv");
        let shared = Arc::clone(&self.shared);
        if slack_conditions_hold(
            shared.metric.as_ref(),
            shared.delta,
            shared.slack,
            &self.anchor,
            &self.root_feature,
            &new_feature,
        ) {
            // Absorbed: the anchor — and therefore every answer — is
            // untouched, so caches network-wide stay exact.
            self.feature = new_feature;
            ctx.metrics().inc("wl.update.absorbed");
            return;
        }
        let drift = shared.metric.distance(&self.anchor, &new_feature);
        self.anchor = new_feature.clone();
        self.feature = new_feature;
        self.anchor_epoch += 1;
        // Our covering radius bounded subtree anchors from the old anchor;
        // moving the anchor by `drift` inflates every such bound by at most
        // `drift` (triangle inequality).
        self.plan.radius += drift;
        ctx.metrics().inc("wl.update.sync");
        self.invalidate_and_climb(ctx);
    }

    fn on_invalidate(
        &mut self,
        child: NodeId,
        feature: Feature,
        radius: f64,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        let required = {
            let Some(entry) = self.plan.entries.iter_mut().find(|e| e.child == child) else {
                // A failover redirect can land a climb at a node that never
                // parented the sender (the successor inherits the dead
                // root's role, not its M-tree entries). Keep climbing so
                // caches above still evict and watches still re-repair.
                if self.shared.recovery {
                    self.invalidate_and_climb(ctx);
                }
                return;
            };
            entry.feature = feature;
            entry.radius = radius;
            self.shared.metric.distance(&self.anchor, &entry.feature) + entry.radius
        };
        if required > self.plan.radius {
            self.plan.radius = required;
        }
        self.invalidate_and_climb(ctx);
    }

    /// Evicts the local cache and forwards the climb to the parent. The
    /// climb always reaches the cluster root even when no radius grows: a
    /// descendant's anchor moved, so every ancestor's cached answer may
    /// now include or exclude the wrong nodes. At the root the climb also
    /// dirties every standing-query watch — the same signal that evicts
    /// caches now *drives* incremental repair.
    fn invalidate_and_climb(&mut self, ctx: &mut Ctx<'_, ServeMsg>) {
        self.inval_epoch += 1;
        ctx.metrics().inc("wl.cache.inval");
        ctx.metrics().add("wl.cache.evict", self.cache.len() as u64);
        self.cache.clear();
        if let Some(p) = self.plan.parent {
            let scalars = self.anchor.scalar_cost() + 1;
            let msg = ServeMsg::Invalidate {
                feature: self.anchor.clone(),
                radius: self.plan.radius,
            };
            if self.shared.recovery && !ctx.is_alive(p) {
                // Dead parent: route the climb around it, straight to the
                // cluster's current (failover) root, so standing queries
                // keep repairing while the tree is broken.
                let shared = Arc::clone(&self.shared);
                let cluster = shared.cluster_of[self.id];
                if let Some(root) = current_root(&shared, cluster, ctx) {
                    if root != self.id {
                        ctx.unicast(root, msg, "wl_inval", scalars);
                        return;
                    }
                    // We *are* the acting root: fall through to the root
                    // case below.
                } else {
                    return;
                }
            } else {
                ctx.send(p, msg, "wl_inval", scalars);
                return;
            }
        }
        self.mark_all_watches_dirty(ctx);
    }

    // -- answers ----------------------------------------------------------

    /// Records the final answer at the initiator; for path templates also
    /// runs the local safe-path search over the unsafe set. `covered` is the
    /// number of nodes whose membership the wave determined; it becomes the
    /// answer's [`CompletedQuery::coverage_milli`].
    fn deliver_answer(
        &mut self,
        qid: QueryId,
        matches: &NodeSet,
        covered: u64,
        shed: bool,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        let Some(p) = self.pending.remove(&qid) else {
            return;
        };
        let (template, submitted) = (p.template, p.submitted);
        let path = match &self.shared.templates[template as usize] {
            Template::Range { .. } => None,
            Template::Path { source, dest, .. } => {
                let p = safe_path(&self.shared.topology, matches, *source, *dest);
                ctx.metrics().inc(if p.is_some() {
                    "wl.path.found"
                } else {
                    "wl.path.none"
                });
                p
            }
        };
        let finished = ctx.now();
        ctx.metrics().observe("wl.latency", finished - submitted);
        ctx.metrics().inc("wl.query.done");
        let n = ctx.n() as u64;
        let coverage_milli = (covered.min(n) * 1000 / n.max(1)) as u16;
        if coverage_milli < 1000 {
            ctx.metrics().inc("wl.query.partial");
        }
        self.completed.push(CompletedQuery {
            qid,
            template,
            submitted,
            finished,
            matches: matches.to_vec(),
            path,
            coverage_milli,
            shed,
        });
        // Closed loop: schedule the next scripted query after think time.
        if let Some(e) = self.script.front() {
            ctx.set_timer(e.think, SCRIPT_TIMER);
        }
    }

    // -- standing subscriptions -------------------------------------------

    /// Deadline for one push/contribution round trip, derived from the
    /// *current* [`Ctx::max_delivery_delay`]. Under `FairShareLink`
    /// contention that envelope stretches with the flow-table backlog, so
    /// retransmit timers sized here never fire against a transfer (or its
    /// ARQ retries) that is merely queued behind other traffic.
    fn sub_rt_deadline(&self, ctx: &Ctx<'_, ServeMsg>) -> u64 {
        2 * self.transit_bound(ctx) + 1
    }

    /// Client: harness injected a subscription — record it and register
    /// with the coordinator (the client's cluster root).
    fn on_subscribe(&mut self, sid: u64, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
        debug_assert!(sid < DEADLINE_PAYLOAD, "sid collides with timer namespace");
        self.subs.client.insert(sid, ClientSub::new(template));
        ctx.metrics().inc("wl.sub.registered");
        let shared = Arc::clone(&self.shared);
        let root = if shared.recovery {
            current_root(&shared, shared.cluster_of[self.id], ctx).unwrap_or(self.id)
        } else {
            self.plan.cluster_root
        };
        if root == self.id {
            if self.ensure_root(ctx) {
                self.on_sub_register(sid, template, self.id, ctx);
            }
        } else {
            ctx.unicast_tagged(
                root,
                ServeMsg::SubRegister {
                    sid,
                    template,
                    client: self.id,
                },
                "wl_subctl",
                3,
                QID_SUB_CONTROL | sid,
            );
        }
    }

    /// Coordinator: admit (or refuse) a subscription through the QoS
    /// ladder, register the template watch, and schedule the initial push.
    fn on_sub_register(
        &mut self,
        sid: u64,
        template: u16,
        client: NodeId,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        let now = ctx.now();
        let shared = Arc::clone(&self.shared);
        if let Some(e) = self.subs.table.get_mut(&sid) {
            // Idempotent re-registration (e.g. after a failover hand-off
            // elsewhere): restart the push stream from a snapshot.
            e.acked = None;
            e.sent = None;
            e.retries = 0;
            e.last_active = now;
            self.schedule_flush(template, ctx);
            return;
        }
        // Two independent ladders gate a registration: the table-occupancy
        // ladder (per-coordinator capacity, §14) and the load ladder over
        // the substrate's congestion signal (§15). The worse verdict wins —
        // a congested network degrades or refuses registrations even with a
        // near-empty table, and vice versa.
        let table_verdict = qos::admit(
            &shared.qos,
            self.subs.table.len(),
            self.subs.client_load(client),
        );
        match table_verdict.worst(self.load_admission(ctx)) {
            Admission::Shed => {
                ctx.metrics().inc("wl.sub.shed");
                self.send_sub_end(sid, client, end_reason::SHED, ctx);
            }
            Admission::Degraded => {
                ctx.metrics().inc("wl.sub.degraded");
                self.admit_sub(sid, template, client, true, ctx);
            }
            Admission::Full => self.admit_sub(sid, template, client, false, ctx),
        }
    }

    /// Inserts the table row (evicting the LRU/popularity victim from a
    /// full table first), registers the watches, and schedules the initial
    /// snapshot push.
    fn admit_sub(
        &mut self,
        sid: u64,
        template: u16,
        client: NodeId,
        degraded: bool,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        let shared = Arc::clone(&self.shared);
        if self.subs.table.len() >= shared.qos.max_subs {
            if let Some(victim) = qos::evict_victim(self.subs.eviction_rows()) {
                let e = self.subs.table.remove(&victim).expect("victim exists");
                ctx.metrics().inc("wl.sub.evicted");
                self.send_sub_end(victim, e.client, end_reason::EVICTED, ctx);
            }
        }
        self.subs.table.insert(
            sid,
            crate::subscribe::SubEntry::new(client, template, degraded, ctx.now()),
        );
        ctx.metrics().inc("wl.sub.admitted");
        let q = shared.qos;
        self.subs
            .views
            .or_insert_with(template, || TemplateView::new(q.window_min, q.window_max));
        // This root is always its own cluster's watcher; full admissions
        // additionally flood the watch over the backbone so every cluster
        // root reports. Degraded admissions stay local-only: O(1) clusters
        // of cost and an honestly reduced coverage.
        self.register_watch(template, self.id, ctx);
        if !degraded {
            let seen = self.subs.seen_watch.or_insert_with(template, FlatSet::new);
            if seen.insert(self.id) {
                self.flood_watch(template, self.id, None, ctx);
            }
        }
        self.schedule_flush(template, ctx);
    }

    /// Ends a subscription towards its client (local clients are told
    /// directly).
    fn send_sub_end(&mut self, sid: u64, client: NodeId, reason: u8, ctx: &mut Ctx<'_, ServeMsg>) {
        if client == self.id {
            if let Some(c) = self.subs.client.get_mut(&sid) {
                c.active = false;
                c.end_reason = reason;
            }
        } else {
            ctx.unicast_tagged(
                client,
                ServeMsg::SubEnd { sid, reason },
                "wl_subctl",
                2,
                QID_SUB_CONTROL | sid,
            );
        }
    }

    /// Forwards a `SubWatch` flood to backbone peers (minus the cluster it
    /// came from).
    fn flood_watch(
        &mut self,
        template: u16,
        coordinator: NodeId,
        from_cluster: Option<usize>,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        let shared = Arc::clone(&self.shared);
        let peers = self.plan.backbone_peers.clone();
        for p in peers {
            let pc = shared.cluster_of[p];
            if Some(pc) == from_cluster {
                continue;
            }
            let addr = if shared.recovery {
                current_root(&shared, pc, ctx)
            } else {
                Some(p)
            };
            let Some(addr) = addr else { continue };
            ctx.unicast_tagged(
                addr,
                ServeMsg::SubWatch {
                    template,
                    coordinator,
                },
                "wl_subwatch",
                2,
                QID_SUB_CONTROL | u64::from(template),
            );
        }
    }

    /// Watcher root: a `SubWatch` flood arrived — register the coordinator
    /// and forward the flood onward (deduplicated per (template,
    /// coordinator), so concurrent floods terminate).
    fn on_sub_watch(
        &mut self,
        template: u16,
        coordinator: NodeId,
        from: NodeId,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        let seen = self.subs.seen_watch.or_insert_with(template, FlatSet::new);
        if !seen.insert(coordinator) {
            return;
        }
        self.register_watch(template, coordinator, ctx);
        let from_cluster = self.shared.cluster_of[from];
        self.flood_watch(template, coordinator, Some(from_cluster), ctx);
    }

    /// Watcher: a coordinator confirmed the current contribution.
    fn on_sub_contrib_ack(&mut self, template: u16, cseq: u64, from: NodeId) {
        if let Some(w) = self.subs.watches.get_mut(&template) {
            if cseq == w.cseq {
                w.unacked.retain(|&c| c != from);
                if w.unacked.is_empty() {
                    w.retries = 0;
                }
            }
        }
    }

    /// Watcher: register a coordinator for a template. A brand-new
    /// coordinator immediately receives the last known contribution (or
    /// triggers the first repair if none exists yet).
    fn register_watch(&mut self, template: u16, coord: NodeId, ctx: &mut Ctx<'_, ServeMsg>) {
        let shared = Arc::clone(&self.shared);
        let q = shared.qos;
        let w = self
            .subs
            .watches
            .or_insert_with(template, || WatchState::new(q.window_min, q.window_max));
        if !w.add_coord(coord) {
            return;
        }
        if let Some((matches, covered)) = w.last.clone() {
            w.cseq += 1;
            let cseq = w.cseq;
            if shared.recovery && coord != self.id {
                w.unacked.push(coord);
                w.retries = 0;
            }
            let trigger = ctx.now();
            self.send_contrib(coord, template, cseq, matches, covered, trigger, ctx);
            self.arm_contrib_retry(template, ctx);
        } else {
            self.mark_watch_dirty(template, ctx);
        }
    }

    /// Watcher: the local cluster's content (possibly) changed for every
    /// watched template — schedule repairs through the adaptive window.
    fn mark_all_watches_dirty(&mut self, ctx: &mut Ctx<'_, ServeMsg>) {
        let templates: Vec<u16> = self.subs.watches.keys().copied().collect();
        for t in templates {
            self.mark_watch_dirty(t, ctx);
        }
    }

    /// Marks one watch dirty and arms its repair flush timer. The window
    /// *grows* with arrival density, so a churn storm coalesces into few
    /// repairs while sparse drift repairs at the latency floor.
    fn mark_watch_dirty(&mut self, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
        let now = ctx.now();
        let Some(w) = self.subs.watches.get_mut(&template) else {
            return;
        };
        if !w.dirty {
            w.trigger = now;
        }
        w.dirty = true;
        w.window.observe(now);
        if !w.armed && !w.repairing {
            w.armed = true;
            let delay = w.window.window();
            ctx.set_timer(delay, SUB_REPAIR | u64::from(template));
        }
    }

    /// Repair flush: start the incremental re-evaluation of this cluster's
    /// contribution, riding the ordinary descent machinery (cache,
    /// single-flight, batching, recovery deadlines all apply).
    fn on_sub_repair_timer(&mut self, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
        {
            let Some(w) = self.subs.watches.get_mut(&template) else {
                return;
            };
            w.armed = false;
            if w.repairing || !w.dirty {
                return;
            }
            w.dirty = false;
            w.repairing = true;
        }
        ctx.metrics().inc("wl.sub.repair");
        let rider = QID_SUB_REPAIR | u64::from(template);
        match self.local_cluster_eval(rider, template, ctx) {
            LocalEval::Resolved(m, covered) => self.finish_repair(template, m, covered, ctx),
            LocalEval::Pending => {}
        }
    }

    /// A repair descent completed against a state that moved mid-flight:
    /// suppress the (stale) contribution and go again — the climb that
    /// bumped the epoch already re-dirtied the watch.
    fn repair_went_stale(&mut self, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
        ctx.metrics().inc("wl.sub.repair.stale");
        let Some(w) = self.subs.watches.get_mut(&template) else {
            return;
        };
        w.repairing = false;
        w.dirty = true;
        if !w.armed {
            w.armed = true;
            let delay = w.window.window();
            ctx.set_timer(delay, SUB_REPAIR | u64::from(template));
        }
    }

    /// A repair produced this cluster's fresh contribution: report it to
    /// every coordinator *iff it changed* (steady-state traffic stays
    /// proportional to churn), then reschedule if more churn arrived
    /// mid-repair.
    fn finish_repair(
        &mut self,
        template: u16,
        matches: NodeSet,
        covered: u64,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        let shared = Arc::clone(&self.shared);
        let (coords, cseq, trigger, resched) = {
            let Some(w) = self.subs.watches.get_mut(&template) else {
                return;
            };
            w.repairing = false;
            let fresh = (matches, covered);
            let changed = w.last.as_ref() != Some(&fresh);
            let resched = w.dirty;
            if changed {
                w.cseq += 1;
                w.last = Some(fresh);
                if shared.recovery {
                    w.unacked = w.coords.iter().copied().filter(|&c| c != self.id).collect();
                    w.retries = 0;
                }
                (w.coords.clone(), w.cseq, w.trigger, resched)
            } else {
                (Vec::new(), 0, 0, resched)
            }
        };
        if cseq != 0 {
            let (m, cov) = self
                .subs
                .watches
                .get(&template)
                .and_then(|w| w.last.clone())
                .expect("just set");
            for c in coords {
                self.send_contrib(c, template, cseq, m.clone(), cov, trigger, ctx);
            }
            self.arm_contrib_retry(template, ctx);
        }
        if resched {
            if let Some(w) = self.subs.watches.get_mut(&template) {
                if !w.armed {
                    w.armed = true;
                    let delay = w.window.window();
                    ctx.set_timer(delay, SUB_REPAIR | u64::from(template));
                }
            }
        }
    }

    /// Sends one absolute contribution to a coordinator (self-delivery
    /// short-circuits the network).
    #[allow(clippy::too_many_arguments)]
    fn send_contrib(
        &mut self,
        coord: NodeId,
        template: u16,
        cseq: u64,
        matches: NodeSet,
        covered: u64,
        trigger: SimTime,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        ctx.metrics().inc("wl.sub.contrib");
        let cluster = self.shared.cluster_of[self.id];
        if coord == self.id {
            self.on_sub_contrib(
                template, cluster, cseq, matches, covered, trigger, self.id, ctx,
            );
            return;
        }
        let scalars = matches.len() as u64 + 2;
        ctx.unicast_tagged(
            coord,
            ServeMsg::SubContrib {
                template,
                cluster,
                cseq,
                matches,
                covered,
                trigger,
            },
            "wl_subcontrib",
            scalars,
            QID_SUB_REPAIR | u64::from(template),
        );
    }

    /// Arms the contribution retransmit deadline (recovery only; sized by
    /// the backlog-aware envelope, see [`ServeNode::sub_rt_deadline`]).
    fn arm_contrib_retry(&mut self, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
        if !self.shared.recovery {
            return;
        }
        let dl = self.sub_rt_deadline(ctx);
        let Some(w) = self.subs.watches.get_mut(&template) else {
            return;
        };
        if !w.retry_armed && !w.unacked.is_empty() {
            w.retry_armed = true;
            ctx.set_timer(dl, SUB_CONTRIB_RETRY | u64::from(template));
        }
    }

    /// Contribution retransmit deadline: one bounded retry round to the
    /// still-unacked coordinators, then give up (a dead coordinator's
    /// successor re-registers the watch itself).
    fn on_contrib_retry(&mut self, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
        let (targets, cseq, last, trigger) = {
            let Some(w) = self.subs.watches.get_mut(&template) else {
                return;
            };
            w.retry_armed = false;
            if w.unacked.is_empty() {
                return;
            }
            if w.retries >= 2 {
                ctx.metrics().inc("wl.sub.contrib.gaveup");
                w.unacked.clear();
                return;
            }
            w.retries += 1;
            (w.unacked.clone(), w.cseq, w.last.clone(), w.trigger)
        };
        let Some((m, cov)) = last else { return };
        ctx.metrics().inc("wl.sub.contrib.retry");
        for c in targets {
            self.send_contrib(c, template, cseq, m.clone(), cov, trigger, ctx);
        }
        self.arm_contrib_retry(template, ctx);
    }

    /// Coordinator: integrate one cluster's absolute contribution and
    /// schedule a push flush if the merged view moved.
    #[allow(clippy::too_many_arguments)]
    fn on_sub_contrib(
        &mut self,
        template: u16,
        cluster: usize,
        cseq: u64,
        matches: NodeSet,
        covered: u64,
        trigger: SimTime,
        from: NodeId,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        if self.shared.recovery && from != self.id {
            ctx.unicast_tagged(
                from,
                ServeMsg::SubContribAck { template, cseq },
                "wl_subctl",
                2,
                QID_SUB_CONTROL | u64::from(template),
            );
        }
        let changed = {
            let Some(v) = self.subs.views.get_mut(&template) else {
                return;
            };
            if v.integrate(cluster, from, cseq, matches, covered) {
                v.trigger = Some(v.trigger.map_or(trigger, |t0| t0.min(trigger)));
                true
            } else {
                false
            }
        };
        if changed {
            self.schedule_flush(template, ctx);
        }
    }

    /// Arms the push flush timer for a template through its adaptive
    /// window.
    fn schedule_flush(&mut self, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
        let now = ctx.now();
        let Some(v) = self.subs.views.get_mut(&template) else {
            return;
        };
        v.window.observe(now);
        if v.trigger.is_none() {
            v.trigger = Some(now);
        }
        if !v.flush_armed {
            v.flush_armed = true;
            let delay = v.window.window();
            ctx.set_timer(delay, SUB_FLUSH | u64::from(template));
        }
    }

    /// Push flush: compose and send the pending delta (or snapshot) for
    /// every subscription of this template.
    fn on_sub_flush(&mut self, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
        let (merged, covered, trigger) = {
            let Some(v) = self.subs.views.get_mut(&template) else {
                return;
            };
            v.flush_armed = false;
            let t = v.trigger.take().unwrap_or_else(|| ctx.now());
            (v.merged.clone(), v.covered, t)
        };
        let sids: Vec<u64> = self
            .subs
            .table
            .iter()
            .filter(|(_, e)| e.template == template)
            .map(|(&s, _)| s)
            .collect();
        for sid in sids {
            self.push_to(sid, &merged, covered, trigger, ctx);
        }
    }

    /// Composes and transmits one push (self-subscribed clients are served
    /// without touching the network).
    fn push_to(
        &mut self,
        sid: u64,
        merged: &NodeSet,
        covered: u64,
        trigger: SimTime,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        let shared = Arc::clone(&self.shared);
        let (client, push) = {
            let Some(e) = self.subs.table.get_mut(&sid) else {
                return;
            };
            let Some(push) = e.compose_push(merged, covered, trigger) else {
                return;
            };
            let client = e.client;
            if !shared.recovery {
                // Fault-free transport delivers: confirm optimistically and
                // skip the entire ack round.
                e.confirm(push.version);
            }
            (client, push)
        };
        ctx.metrics().inc("wl.sub.push");
        if client == self.id {
            let version = push.version;
            self.on_sub_push(
                sid,
                version,
                push.base_version,
                push.snapshot,
                push.adds,
                push.removes,
                push.covered,
                push.trigger,
                self.id,
                ctx,
            );
            if shared.recovery {
                if let Some(e) = self.subs.table.get_mut(&sid) {
                    e.confirm(version);
                }
            }
            return;
        }
        let scalars = push.adds.len() as u64 + push.removes.len() as u64 + 3;
        ctx.unicast_tagged(
            client,
            ServeMsg::SubPush {
                sid,
                version: push.version,
                base_version: push.base_version,
                snapshot: push.snapshot,
                adds: push.adds,
                removes: push.removes,
                covered: push.covered,
                trigger: push.trigger,
            },
            "wl_subpush",
            scalars,
            QID_SUB_PUSH | sid,
        );
        if shared.recovery {
            let dl = self.sub_rt_deadline(ctx);
            ctx.set_timer(dl, SUB_PUSH_RETRY | sid);
        }
    }

    /// Push retransmit deadline: bounded retries of the identical push,
    /// then the client is declared unreachable and the row dropped.
    fn on_push_retry(&mut self, sid: u64, ctx: &mut Ctx<'_, ServeMsg>) {
        let (client, resend) = {
            let Some(e) = self.subs.table.get_mut(&sid) else {
                return;
            };
            let Some(p) = e.sent.clone() else {
                return;
            };
            if e.retries >= 2 {
                (e.client, None)
            } else {
                e.retries += 1;
                (e.client, Some(p))
            }
        };
        match resend {
            Some(p) => {
                ctx.metrics().inc("wl.sub.push.retry");
                let scalars = p.adds.len() as u64 + p.removes.len() as u64 + 3;
                ctx.unicast_tagged(
                    client,
                    ServeMsg::SubPush {
                        sid,
                        version: p.version,
                        base_version: p.base_version,
                        snapshot: p.snapshot,
                        adds: p.adds,
                        removes: p.removes,
                        covered: p.covered,
                        trigger: p.trigger,
                    },
                    "wl_subpush",
                    scalars,
                    QID_SUB_PUSH | sid,
                );
                let dl = self.sub_rt_deadline(ctx);
                ctx.set_timer(dl, SUB_PUSH_RETRY | sid);
            }
            None => {
                self.subs.table.remove(&sid);
                ctx.metrics().inc("wl.sub.gaveup");
                self.send_sub_end(sid, client, end_reason::UNREACHABLE, ctx);
            }
        }
    }

    /// Client: apply one push under the version rules; ack under recovery,
    /// escalate to a resync on a version gap.
    #[allow(clippy::too_many_arguments)]
    fn on_sub_push(
        &mut self,
        sid: u64,
        version: u64,
        base_version: u64,
        snapshot: bool,
        adds: Vec<NodeId>,
        removes: Vec<NodeId>,
        covered: u64,
        trigger: SimTime,
        from: NodeId,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        let shared = Arc::clone(&self.shared);
        let verdict = {
            let Some(c) = self.subs.client.get_mut(&sid) else {
                return;
            };
            c.apply_push(version, base_version, snapshot, &adds, &removes, covered)
        };
        match verdict {
            PushVerdict::Applied => {
                let lat = ctx.now().saturating_sub(trigger);
                ctx.metrics().observe("wl.sub.push_latency", lat);
                if let Some(c) = self.subs.client.get_mut(&sid) {
                    c.latencies.push(lat);
                }
                if shared.recovery && from != self.id {
                    ctx.unicast_tagged(
                        from,
                        ServeMsg::SubAck { sid, version },
                        "wl_suback",
                        2,
                        QID_SUB_PUSH | sid,
                    );
                }
            }
            PushVerdict::Ignored => {}
            PushVerdict::NeedResync => {
                ctx.metrics().inc("wl.sub.resync");
                if from == self.id {
                    self.on_sub_resync(sid, ctx);
                } else {
                    ctx.unicast_tagged(
                        from,
                        ServeMsg::SubResync { sid },
                        "wl_subctl",
                        1,
                        QID_SUB_CONTROL | sid,
                    );
                }
            }
        }
    }

    /// Coordinator: a push was confirmed.
    fn on_sub_ack(&mut self, sid: u64, version: u64, ctx: &mut Ctx<'_, ServeMsg>) {
        let now = ctx.now();
        if let Some(e) = self.subs.table.get_mut(&sid) {
            e.last_active = now;
            if e.confirm(version) {
                e.retries = 0;
            }
        }
    }

    /// Coordinator: the client's view diverged — restart its stream from a
    /// snapshot.
    fn on_sub_resync(&mut self, sid: u64, ctx: &mut Ctx<'_, ServeMsg>) {
        let now = ctx.now();
        let template = {
            let Some(e) = self.subs.table.get_mut(&sid) else {
                return;
            };
            e.acked = None;
            e.sent = None;
            e.retries = 0;
            e.last_active = now;
            e.template
        };
        self.schedule_flush(template, ctx);
    }

    /// Forwards a `SubTakeover` flood and reacts in the coordinator and
    /// watcher roles: the dead root's contributions become unverifiable
    /// (drop them — honesty over completeness), its node disappears from
    /// coordinator lists, and every global watch is re-registered with the
    /// successor.
    fn on_sub_takeover(
        &mut self,
        cluster: usize,
        successor: NodeId,
        from: Option<NodeId>,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        if self.subs.seen_takeover.get(&cluster) == Some(&successor) {
            return;
        }
        self.subs.seen_takeover.insert(cluster, successor);
        // Forward the flood over the backbone.
        let shared = Arc::clone(&self.shared);
        let from_cluster = from.map(|f| shared.cluster_of[f]);
        let peers = self.plan.backbone_peers.clone();
        for p in peers {
            let pc = shared.cluster_of[p];
            if Some(pc) == from_cluster || pc == cluster {
                continue;
            }
            if let Some(addr) = current_root(&shared, pc, ctx) {
                ctx.unicast_tagged(
                    addr,
                    ServeMsg::SubTakeover { cluster, successor },
                    "wl_subwatch",
                    2,
                    QID_SUB_CONTROL | cluster as u64,
                );
            }
        }
        if successor == self.id {
            return;
        }
        // Watcher role: stop reporting to the dead coordinator. The
        // successor is spared even though it sits in the same cluster — its
        // `SubWatch` may have raced ahead of this flood, and the per-
        // coordinator `seen_watch` dedup would block it from ever
        // re-registering a watch this purge dropped.
        for (_, w) in self.subs.watches.iter_mut() {
            w.coords
                .retain(|&c| c == successor || shared.cluster_of[c] != cluster);
            w.unacked
                .retain(|&c| c == successor || shared.cluster_of[c] != cluster);
        }
        // Coordinator role: the failed cluster's claims are unverifiable
        // until its successor reports — drop them (views shrink honestly)
        // and re-register every global watch with the successor.
        let templates: Vec<u16> = self.subs.views.keys().copied().collect();
        for t in templates {
            let changed = self
                .subs
                .views
                .get_mut(&t)
                .is_some_and(|v| v.zero_cluster(cluster));
            if changed {
                self.schedule_flush(t, ctx);
            }
            if self.subs.wants_global(t) {
                ctx.unicast_tagged(
                    successor,
                    ServeMsg::SubWatch {
                        template: t,
                        coordinator: self.id,
                    },
                    "wl_subwatch",
                    2,
                    QID_SUB_CONTROL | u64::from(t),
                );
            }
        }
    }

    /// Client: the failover successor asked for re-registration — re-send
    /// every active subscription (its table died with the old root).
    fn on_sub_reregister(&mut self, from: NodeId, ctx: &mut Ctx<'_, ServeMsg>) {
        let active: Vec<(u64, u16)> = self
            .subs
            .client
            .iter()
            .filter(|(_, c)| c.active)
            .map(|(&sid, c)| (sid, c.template))
            .collect();
        for (sid, template) in active {
            ctx.unicast_tagged(
                from,
                ServeMsg::SubRegister {
                    sid,
                    template,
                    client: self.id,
                },
                "wl_subctl",
                3,
                QID_SUB_CONTROL | sid,
            );
        }
    }
}

/// Breadth-first safe path from `source` to `dest` avoiding `unsafe_set`.
/// Returns `None` when either endpoint is unsafe or the safe subgraph
/// disconnects them.
fn safe_path(
    topology: &Topology,
    unsafe_set: &NodeSet,
    source: NodeId,
    dest: NodeId,
) -> Option<Vec<NodeId>> {
    let is_unsafe = |v: NodeId| unsafe_set.contains(v);
    if is_unsafe(source) || is_unsafe(dest) {
        return None;
    }
    let n = topology.n();
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[source] = true;
    let mut queue = VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        if v == dest {
            let mut path = vec![dest];
            let mut cur = dest;
            while let Some(p) = prev[cur] {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &w in topology.graph().neighbors(v) {
            let w = w as usize;
            if !seen[w] && !is_unsafe(w) {
                seen[w] = true;
                prev[w] = Some(v);
                queue.push_back(w);
            }
        }
    }
    None
}

impl Protocol for ServeNode {
    type Msg = ServeMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ServeMsg>) {
        if let Some(e) = self.script.front() {
            ctx.set_timer(e.think, SCRIPT_TIMER);
        }
    }

    fn on_message(&mut self, from: usize, msg: ServeMsg, ctx: &mut Ctx<'_, ServeMsg>) {
        match msg {
            ServeMsg::Update(f) => self.on_update(f, ctx),
            ServeMsg::Invalidate { feature, radius } => {
                self.on_invalidate(from, feature, radius, ctx)
            }
            ServeMsg::Submit { qid, template } => self.submit(qid, template, ctx),
            ServeMsg::ToRoot {
                qid,
                template,
                degraded,
            } => {
                if self.ensure_root(ctx) {
                    // A resubmission may race the original echo: first wins.
                    if !self.echo.contains_key(&qid) {
                        self.start_echo(qid, template, None, from, degraded, ctx);
                    }
                } else {
                    ctx.metrics().inc("wl.misroute");
                }
            }
            ServeMsg::Fanout { qid, template } => {
                if self.ensure_root(ctx) {
                    // A re-issued fanout for an in-flight echo is a no-op.
                    if !self.echo.contains_key(&qid) {
                        self.start_echo(qid, template, Some(from), from, false, ctx);
                    }
                } else {
                    ctx.metrics().inc("wl.misroute");
                }
            }
            ServeMsg::BackAgg {
                qid,
                matches,
                covered,
            } => {
                if let Some(st) = self.echo.get_mut(&qid) {
                    // Deduplicate by peer *cluster*: after a re-issue both
                    // the slow original leader and its successor may answer.
                    let pc = self.shared.cluster_of[from];
                    if let Some(pos) = st.outstanding.iter().position(|&c| c == pc) {
                        st.outstanding.remove(pos);
                        st.acc.union(&matches);
                        st.covered += covered;
                    }
                }
                self.maybe_finish_echo(qid, ctx);
            }
            ServeMsg::Descend { template, riders } => {
                if let Some((hit, covered)) = self.cache.get(&template) {
                    ctx.metrics().inc("wl.cache.hit");
                    let (matches, covered) = (hit.clone(), *covered);
                    self.reply_subtree(template, &riders, matches, covered, ctx);
                } else if let Some(ev) = self.evals.get_mut(&template) {
                    // Single-flight per template: a duplicate descent (e.g.
                    // a parent's re-issue round) just merges its riders.
                    ev.riders.extend(riders);
                } else {
                    ctx.metrics().inc("wl.cache.miss");
                    self.evals
                        .insert(template, EvalState::new(riders, self.inval_epoch));
                    // Internal nodes descend immediately: their rider set
                    // is fixed by the incoming packet.
                    self.launch_descent(template, ctx);
                }
            }
            ServeMsg::AggUp {
                template,
                matches,
                covered,
            } => {
                let Some(ev) = self.evals.get_mut(&template) else {
                    return;
                };
                // Answers from nodes no longer awaited (late duplicates
                // after a re-issue or forced completion) are dropped.
                let Some(pos) = ev.outstanding.iter().position(|&c| c == from) else {
                    return;
                };
                ev.outstanding.remove(pos);
                ev.acc.union(&matches);
                ev.covered += covered;
                if ev.launched && ev.outstanding.is_empty() {
                    let ev = self.evals.remove(&template).expect("just seen");
                    self.complete_eval(template, ev, ctx);
                }
            }
            ServeMsg::Down {
                qid,
                matches,
                covered,
            } => self.deliver_answer(qid, &matches, covered, false, ctx),
            ServeMsg::Probe { template } => {
                let shared = Arc::clone(&self.shared);
                let (center, r, strict) = params(&shared.templates[template as usize]);
                let d = shared.metric.distance(center, &self.anchor);
                let mut matches = NodeSet::new();
                if node_matches(d, r, strict) {
                    matches.insert(self.id);
                }
                let scalars = matches.len() as u64 + 1;
                ctx.unicast(
                    from,
                    ServeMsg::AggUp {
                        template,
                        matches,
                        covered: 1,
                    },
                    "wl_probe",
                    scalars,
                );
            }
            ServeMsg::Reattach => {
                if !self.shared.recovery {
                    return;
                }
                self.plan.parent = Some(from);
                self.routed_parent = true;
                let mut subtree: Vec<NodeId> = self
                    .plan
                    .entries
                    .iter()
                    .flat_map(|e| e.subtree.iter().copied())
                    .collect();
                subtree.push(self.id);
                subtree.sort_unstable();
                subtree.dedup();
                let scalars = self.anchor.scalar_cost() + 1 + subtree.len() as u64;
                ctx.unicast(
                    from,
                    ServeMsg::Adopt {
                        feature: self.anchor.clone(),
                        radius: self.plan.radius,
                        subtree,
                    },
                    "wl_failover",
                    scalars,
                );
            }
            ServeMsg::Adopt {
                feature,
                radius,
                subtree,
            } => {
                if !self.shared.recovery {
                    return;
                }
                let required = self.shared.metric.distance(&self.anchor, &feature) + radius;
                self.adopted.insert(self.nodes.handle(from));
                if let Some(e) = self.plan.entries.iter_mut().find(|e| e.child == from) {
                    e.feature = feature;
                    e.radius = radius;
                    e.subtree = subtree;
                } else {
                    self.plan.entries.push(ChildEntry {
                        child: from,
                        feature,
                        radius,
                        subtree,
                    });
                }
                // M-tree covering-radius inflation plus the PR-4 climb rule
                // (epoch bump + cache eviction); as the new root the climb
                // terminates here.
                let skip = SKIP_ADOPT_RADIUS_INFLATION.load(std::sync::atomic::Ordering::Relaxed);
                if !skip && required > self.plan.radius {
                    self.plan.radius = required;
                }
                self.invalidate_and_climb(ctx);
            }
            ServeMsg::Subscribe { sid, template } => self.on_subscribe(sid, template, ctx),
            ServeMsg::SubRegister {
                sid,
                template,
                client,
            } => {
                if self.ensure_root(ctx) {
                    self.on_sub_register(sid, template, client, ctx);
                } else {
                    ctx.metrics().inc("wl.misroute");
                }
            }
            ServeMsg::SubWatch {
                template,
                coordinator,
            } => {
                if self.ensure_root(ctx) {
                    self.on_sub_watch(template, coordinator, from, ctx);
                } else {
                    ctx.metrics().inc("wl.misroute");
                }
            }
            ServeMsg::SubContrib {
                template,
                cluster,
                cseq,
                matches,
                covered,
                trigger,
            } => {
                if self.ensure_root(ctx) {
                    self.on_sub_contrib(
                        template, cluster, cseq, matches, covered, trigger, from, ctx,
                    );
                } else {
                    ctx.metrics().inc("wl.misroute");
                }
            }
            ServeMsg::SubContribAck { template, cseq } => {
                self.on_sub_contrib_ack(template, cseq, from);
            }
            ServeMsg::SubPush {
                sid,
                version,
                base_version,
                snapshot,
                adds,
                removes,
                covered,
                trigger,
            } => self.on_sub_push(
                sid,
                version,
                base_version,
                snapshot,
                adds,
                removes,
                covered,
                trigger,
                from,
                ctx,
            ),
            ServeMsg::SubAck { sid, version } => self.on_sub_ack(sid, version, ctx),
            ServeMsg::SubResync { sid } => self.on_sub_resync(sid, ctx),
            ServeMsg::SubEnd { sid, reason } => {
                if let Some(c) = self.subs.client.get_mut(&sid) {
                    c.active = false;
                    c.end_reason = reason;
                }
            }
            ServeMsg::SubTakeover { cluster, successor } => {
                self.on_sub_takeover(cluster, successor, Some(from), ctx);
            }
            ServeMsg::SubReregister => self.on_sub_reregister(from, ctx),
        }
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Ctx<'_, ServeMsg>) {
        if timer == SCRIPT_TIMER {
            if let Some(e) = self.script.pop_front() {
                self.submit(e.qid, e.template, ctx);
            }
        } else if timer & INIT_DEADLINE != 0 {
            self.on_init_deadline(timer & DEADLINE_PAYLOAD, ctx);
        } else if timer & EVAL_DEADLINE != 0 {
            self.on_eval_deadline((timer & DEADLINE_PAYLOAD) as u16, ctx);
        } else if timer & ECHO_DEADLINE != 0 {
            self.on_echo_deadline(timer & DEADLINE_PAYLOAD, ctx);
        } else if timer & SUB_PUSH_RETRY != 0 {
            self.on_push_retry(timer & DEADLINE_PAYLOAD, ctx);
        } else if timer & SUB_CONTRIB_RETRY != 0 {
            self.on_contrib_retry((timer & DEADLINE_PAYLOAD) as u16, ctx);
        } else if timer & SUB_REPAIR != 0 {
            self.on_sub_repair_timer((timer & DEADLINE_PAYLOAD) as u16, ctx);
        } else if timer & SUB_FLUSH != 0 {
            self.on_sub_flush((timer & DEADLINE_PAYLOAD) as u16, ctx);
        } else {
            // Batch-window flush for a template descent at a cluster root.
            self.launch_descent(timer as u16, ctx);
        }
    }
}

/// Canonical state for model-checker fingerprinting.
///
/// Soundness: every field a handler reads to decide future behavior is
/// rendered — the mutable plan (parent, radius, child entries), the anchor
/// / sensed / root-feature triple and both epochs, the cache, in-flight
/// descent and echo state, pending queries, the failover state
/// (`dead_root`, `adopted`, `routed_parent`), the remaining script, and
/// completed answers (predicates read them).
///
/// Deliberately excluded: `id`, `shared`, and `nodes` — all fixed at
/// construction and identical across every state of one exploration.
/// Floats are rendered as IEEE bit patterns ([`canon_f64`]), never via
/// `Display`, so distinct values can never collide.
impl Canonicalize for ServeNode {
    fn canonicalize(&self, out: &mut String) {
        use std::fmt::Write as _;
        for &w in self.anchor.components() {
            canon_f64(out, w);
        }
        out.push(';');
        for &w in self.feature.components() {
            canon_f64(out, w);
        }
        out.push(';');
        for &w in self.root_feature.components() {
            canon_f64(out, w);
        }
        let _ = write!(out, "|e{}i{}", self.anchor_epoch, self.inval_epoch);
        let _ = write!(out, "|pl:p{:?}r", self.plan.parent);
        canon_f64(out, self.plan.radius);
        for e in &self.plan.entries {
            let _ = write!(out, "[c{}f", e.child);
            for &w in e.feature.components() {
                canon_f64(out, w);
            }
            out.push('r');
            canon_f64(out, e.radius);
            let _ = write!(out, "s{:?}]", e.subtree);
        }
        out.push_str("|ca:");
        for (t, (m, cov)) in self.cache.iter() {
            let _ = write!(out, "[{t}:{m:?}:{cov}]");
        }
        out.push_str("|ev:");
        for (t, e) in self.evals.iter() {
            let _ = write!(out, "[{t}:{e:?}]");
        }
        out.push_str("|ec:");
        for (q, e) in self.echo.iter() {
            let _ = write!(out, "[{q}:{e:?}]");
        }
        out.push_str("|pq:");
        for (q, p) in self.pending.iter() {
            let _ = write!(out, "[{q}:{p:?}]");
        }
        let _ = write!(out, "|dr{:?}rp{}", self.dead_root, self.routed_parent as u8);
        out.push_str("|ad:");
        for h in self.adopted.iter() {
            let _ = write!(out, "{},", h.index());
        }
        let _ = write!(out, "|sc{:?}", self.script);
        out.push_str("|cq:");
        for c in &self.completed {
            let _ = write!(out, "{c:?}");
        }
        // Standing-subscription state: client views, the coordinator table,
        // merged template views, watcher state, and both flood dedup sets.
        // All integer-keyed FlatMaps with Debug-safe (int/Vec/NodeSet/Option)
        // fields.
        out.push_str("|su:");
        for (sid, c) in self.subs.client.iter() {
            let _ = write!(out, "[{sid}:{c:?}]");
        }
        out.push_str("|st:");
        for (sid, e) in self.subs.table.iter() {
            let _ = write!(out, "[{sid}:{e:?}]");
        }
        out.push_str("|sv:");
        for (t, v) in self.subs.views.iter() {
            let _ = write!(out, "[{t}:{v:?}]");
        }
        out.push_str("|sw:");
        for (t, w) in self.subs.watches.iter() {
            let _ = write!(out, "[{t}:{w:?}]");
        }
        out.push_str("|sf:");
        for (t, s) in self.subs.seen_watch.iter() {
            let _ = write!(out, "[{t}:{s:?}]");
        }
        out.push_str("|sk:");
        for (c, s) in self.subs.seen_takeover.iter() {
            let _ = write!(out, "[{c}:{s}]");
        }
    }
}
