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
//!    saving. Cluster roots additionally hold a freshly-missed template
//!    until every delivery already queued for the current tick has run, so
//!    same-tick queries coalesce.
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
//!   peers, then finalizes *partial*. A node keeps one armed deadline per
//!   key: re-arming a key cancels the deadline it replaces, and a round
//!   that completes cancels its own (the echo when it converges, the
//!   initiator's watchdog when the answer arrives, a descent when it
//!   completes, a push or contribution retry when it is acked), so no
//!   deadline outlives its round or fires into a later one. Every
//!   [`CompletedQuery`] carries
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
//!
//! # Layout
//!
//! [`ServeNode`] is one flat state struct; its handlers are split by role:
//!
//! * this module — the messages, [`Shared`], [`ServeNode`], the typed
//!   timers (`Timer`, and `Deadline` with the one `arm_deadline` that sizes
//!   every recovery deadline), the `on_message`/`on_timer` dispatcher and
//!   [`Canonicalize`](elink_netsim::Canonicalize);
//! * `echo` — the initiator (submission, watchdog, answers) and the echo
//!   wave over the leader backbone;
//! * `descent` — the M-tree descent with its result cache and the
//!   invalidation climb;
//! * `failover` — the successor rule, the takeover and
//!   `Reattach`/`Adopt`/`Probe`;
//! * `subs` — the client, coordinator and watcher handlers of standing
//!   subscriptions, whose state lives in [`crate::subscribe`].

mod descent;
mod echo;
mod failover;
mod subs;

use crate::gen::{ScriptEntry, Template};
use crate::nodeset::NodeSet;
use crate::plan::NodePlan;
use crate::qos::{self, Admission};
use crate::subscribe::{ClientSub, SubState};
use descent::EvalState;
use echo::{EchoState, PendingQuery};
use elink_metric::{Feature, Metric};
use elink_netsim::{
    canon_f64, Canonicalize, Ctx, FlatMap, FlatSet, Protocol, QueryId, SimTime, TimerHandle,
};
use elink_topology::{NodeId, Topology};
use std::collections::VecDeque;
use std::sync::Arc;

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
    /// Whether the load-admission ladder (§15) gates submissions and
    /// subscription registrations.
    pub load_admission: bool,
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
    /// [`ChildEntry`](crate::plan::ChildEntry) and inflates its own
    /// covering radius.
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
    /// client became unreachable). See
    /// [`end_reason`](crate::subscribe::end_reason).
    SubEnd {
        /// Subscription id.
        sid: u64,
        /// [`end_reason`](crate::subscribe::end_reason) code.
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
    adopted: FlatSet<u32>,
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
    /// The armed recovery deadlines, one per key: re-arming a key cancels
    /// the deadline it replaces, and a completed round cancels its own.
    deadlines: FlatMap<Deadline, TimerHandle>,
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

/// A [`ServeNode`] timer. [`Timer::id`] and [`Timer::from_id`] are the only
/// encoding of the `u64` that [`Ctx::set_timer`] carries: the payload sits
/// below bit [`PAYLOAD_BITS`], and every variant but `BatchFlush` sets one
/// namespace bit above it. JSONL `timer` events and model-checker
/// fingerprints print these ids raw, so the layout is pinned by a test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Timer {
    /// Closed-loop client: submit the next scripted query.
    Script,
    /// Cluster root: launch the descent held for this template once every
    /// delivery already queued for the current tick has run.
    BatchFlush(u16),
    /// Coordinator: push flush for this template.
    SubFlush(u16),
    /// Watcher root: repair flush for this template.
    SubRepair(u16),
    /// A recovery deadline.
    Deadline(Deadline),
}

/// A recovery deadline, armed only with [`Shared::recovery`] and sized by
/// `ServeNode::arm_deadline`. At most one deadline per key is armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Deadline {
    /// Echo participant: re-issue, then finish, this query's echo.
    Echo(QueryId),
    /// Descent launcher: re-issue, then finish, this template's descent.
    Eval(u16),
    /// Initiator watchdog for this query.
    Init(QueryId),
    /// Watcher root: retransmit this template's unacked contribution.
    ContribRetry(u16),
    /// Coordinator: retransmit this subscription's unacked push.
    PushRetry(u64),
}

/// Timer payloads (query id, subscription id or template) lie below this
/// bit.
const PAYLOAD_BITS: u32 = 44;

impl Timer {
    /// The timer's [`Ctx::set_timer`] id.
    fn id(self) -> u64 {
        let (namespace, payload) = match self {
            Timer::BatchFlush(template) => (0, u64::from(template)),
            Timer::Deadline(Deadline::Echo(qid)) => (1 << 44, qid),
            Timer::Deadline(Deadline::Eval(template)) => (1 << 45, u64::from(template)),
            Timer::Deadline(Deadline::Init(qid)) => (1 << 46, qid),
            Timer::SubFlush(template) => (1 << 47, u64::from(template)),
            Timer::SubRepair(template) => (1 << 48, u64::from(template)),
            Timer::Deadline(Deadline::ContribRetry(template)) => (1 << 49, u64::from(template)),
            Timer::Deadline(Deadline::PushRetry(sid)) => (1 << 50, sid),
            Timer::Script => (1 << 63, 0),
        };
        debug_assert!(
            payload >> PAYLOAD_BITS == 0,
            "timer payload {payload} collides with the namespace bits"
        );
        namespace | payload
    }

    /// Decodes an id made by [`Timer::id`].
    fn from_id(id: u64) -> Timer {
        let payload = id & ((1 << PAYLOAD_BITS) - 1);
        let template = payload as u16;
        match id >> PAYLOAD_BITS {
            0 => Timer::BatchFlush(template),
            namespace => match namespace.trailing_zeros() + PAYLOAD_BITS {
                44 => Timer::Deadline(Deadline::Echo(payload)),
                45 => Timer::Deadline(Deadline::Eval(template)),
                46 => Timer::Deadline(Deadline::Init(payload)),
                47 => Timer::SubFlush(template),
                48 => Timer::SubRepair(template),
                49 => Timer::Deadline(Deadline::ContribRetry(template)),
                50 => Timer::Deadline(Deadline::PushRetry(payload)),
                63 => Timer::Script,
                bit => unreachable!("timer id {id:#x} sets unknown namespace bit {bit}"),
            },
        }
    }

    /// Arms this timer `delay` ticks from now.
    fn arm(self, delay: SimTime, ctx: &mut Ctx<'_, ServeMsg>) -> TimerHandle {
        ctx.set_timer(delay, self.id())
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
        ServeNode {
            id,
            plan,
            shared,
            anchor: feature.clone(),
            feature,
            root_feature,
            anchor_epoch: 0,
            inval_epoch: 0,
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
            deadlines: FlatMap::new(),
        }
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

    /// The load-ladder verdict for work entering the system *now*: the
    /// contention-aware delivery envelope against the idle one. With the
    /// ladder disarmed everything is `Full`.
    fn load_admission(&self, ctx: &Ctx<'_, ServeMsg>) -> Admission {
        if self.shared.load_admission {
            qos::admit_load(ctx.max_delivery_delay(), ctx.nominal_delivery_delay())
        } else {
            Admission::Full
        }
    }

    /// Arms a recovery deadline; a no-op unless the recovery layer is armed.
    /// Re-arming a key cancels the deadline armed under it before.
    ///
    /// Every bound is read from the delivery envelope
    /// ([`Ctx::max_delivery_delay`]) at the moment the deadline is armed,
    /// after the sends it guards: under contention those sends stretch the
    /// envelope. Each bound is *sound* under the current transport: on a
    /// loss-only run (ARQ absorbing every drop within its envelope) the
    /// guarded wave always completes before its deadline, so a deadline
    /// firing against live state implies a crash or partition. That keeps
    /// lossy answers identical to loss-free ones while still bounding
    /// every fault.
    fn arm_deadline(&mut self, deadline: Deadline, ctx: &mut Ctx<'_, ServeMsg>) {
        if !self.shared.recovery {
            return;
        }
        let hop = ctx.max_delivery_delay();
        // Worst-case one-way transit of one routed (multi-hop) message.
        let transit = (self.shared.diameter + 1) * hop;
        // Descent: down and up a cluster tree of at most `n` edges, plus a
        // degraded-mode probe round trip.
        let eval = 2 * (ctx.n() as u64 + 1) * hop + 2 * transit;
        // Echo: the backbone tree has at most `n_clusters` levels, each a
        // local descent and a fanout/convergecast round trip.
        let echo = (self.shared.n_clusters as u64 + 1) * (eval + 2 * transit);
        let delay = match deadline {
            Deadline::Echo(_) => echo,
            Deadline::Eval(_) => eval,
            // A full echo plus its re-issue round plus routing.
            Deadline::Init(_) => 2 * echo + 4 * transit,
            // One push or contribution round trip.
            Deadline::ContribRetry(_) | Deadline::PushRetry(_) => 2 * transit + 1,
        };
        let timer = Timer::Deadline(deadline).arm(delay, ctx);
        if let Some(replaced) = self.deadlines.insert(deadline, timer) {
            ctx.cancel_timer(replaced);
        }
    }

    /// Cancels `deadline` if it is armed: the round it guards completed.
    fn cancel_deadline(&mut self, deadline: Deadline, ctx: &mut Ctx<'_, ServeMsg>) {
        if let Some(timer) = self.deadlines.remove(&deadline) {
            ctx.cancel_timer(timer);
        }
    }

    /// The capacities of the in-flight maps, `evals` to `deadlines`.
    #[cfg(test)]
    pub(crate) fn in_flight_capacities(&self) -> [usize; 4] {
        let (evals, echo) = (self.evals.capacity(), self.echo.capacity());
        [
            evals,
            echo,
            self.pending.capacity(),
            self.deadlines.capacity(),
        ]
    }

    /// Frees the storage of every in-flight map that holds no entries, so
    /// a node keeps no room for evaluations, echoes, queries or deadlines
    /// it no longer has. Run once per handler call: a handler that removes
    /// and re-inserts an entry reallocates nothing.
    fn release_drained(&mut self) {
        self.evals.release_if_empty();
        self.echo.release_if_empty();
        self.pending.release_if_empty();
        self.deadlines.release_if_empty();
    }
}

impl Protocol for ServeNode {
    type Msg = ServeMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ServeMsg>) {
        self.arm_next_script(ctx);
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
                if self.serve_as_root(ctx) {
                    self.join_echo(qid, template, None, from, degraded, ctx);
                }
            }
            ServeMsg::Fanout { qid, template } => {
                if self.serve_as_root(ctx) {
                    self.join_echo(qid, template, Some(from), from, false, ctx);
                }
            }
            ServeMsg::BackAgg {
                qid,
                matches,
                covered,
            } => self.on_back_agg(qid, from, &matches, covered, ctx),
            ServeMsg::Descend { template, riders } => self.on_descend(template, riders, ctx),
            ServeMsg::AggUp {
                template,
                matches,
                covered,
            } => self.on_agg_up(template, from, &matches, covered, ctx),
            ServeMsg::Down {
                qid,
                matches,
                covered,
            } => self.deliver_answer(qid, &matches, covered, false, ctx),
            ServeMsg::Probe { template } => self.on_probe(template, from, ctx),
            ServeMsg::Reattach => self.on_reattach(from, ctx),
            ServeMsg::Adopt {
                feature,
                radius,
                subtree,
            } => self.on_adopt(from, feature, radius, subtree, ctx),
            ServeMsg::Subscribe { sid, template } => self.on_subscribe(sid, template, ctx),
            ServeMsg::SubRegister {
                sid,
                template,
                client,
            } => {
                if self.serve_as_root(ctx) {
                    self.on_sub_register(sid, template, client, ctx);
                }
            }
            ServeMsg::SubWatch {
                template,
                coordinator,
            } => {
                if self.serve_as_root(ctx) {
                    self.on_sub_watch(template, coordinator, from, ctx);
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
                if self.serve_as_root(ctx) {
                    self.on_sub_contrib(
                        template, cluster, cseq, matches, covered, trigger, from, ctx,
                    );
                }
            }
            ServeMsg::SubContribAck { template, cseq } => {
                self.on_sub_contrib_ack(template, cseq, from, ctx)
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
            ServeMsg::SubEnd { sid, reason } => self.subs.end_client(sid, reason),
            ServeMsg::SubTakeover { cluster, successor } => {
                self.on_sub_takeover(cluster, successor, from, ctx)
            }
            ServeMsg::SubReregister => self.on_sub_reregister(from, ctx),
        }
        self.release_drained();
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Ctx<'_, ServeMsg>) {
        match Timer::from_id(timer) {
            Timer::Script => self.submit_next(ctx),
            Timer::BatchFlush(template) => self.launch_descent(template, ctx),
            Timer::SubFlush(template) => self.on_sub_flush(template, ctx),
            Timer::SubRepair(template) => self.on_sub_repair_timer(template, ctx),
            Timer::Deadline(deadline) => {
                // The deadline armed under this key is the one firing.
                self.deadlines.remove(&deadline);
                match deadline {
                    Deadline::Echo(qid) => self.on_echo_deadline(qid, ctx),
                    Deadline::Eval(template) => self.on_eval_deadline(template, ctx),
                    Deadline::Init(qid) => self.on_init_deadline(qid, ctx),
                    Deadline::ContribRetry(template) => self.on_contrib_retry(template, ctx),
                    Deadline::PushRetry(sid) => self.on_push_retry(sid, ctx),
                }
            }
        }
        self.release_drained();
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
/// construction and identical across every state of one exploration — and
/// the `deadlines` handles, whose armed timers the checker's pending set
/// already renders.
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
        for child in self.adopted.iter() {
            let _ = write!(out, "{child},");
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

#[cfg(test)]
mod tests {
    use super::{Deadline, Timer};

    /// Timer ids appear raw in JSONL traces and model-checker fingerprints:
    /// the layout is part of the observable output and must not drift.
    /// Payloads are tested at 0 and at their maximum: 2^44 - 1 for query
    /// and subscription ids, `u16::MAX` for templates.
    #[test]
    fn timer_ids_keep_their_bit_layout() {
        for (q, t) in [(0, 0), ((1 << 44) - 1, u16::MAX)] {
            let t64 = u64::from(t);
            for (timer, id) in [
                (Timer::BatchFlush(t), t64),
                (Timer::Deadline(Deadline::Echo(q)), 1 << 44 | q),
                (Timer::Deadline(Deadline::Eval(t)), 1 << 45 | t64),
                (Timer::Deadline(Deadline::Init(q)), 1 << 46 | q),
                (Timer::SubFlush(t), 1 << 47 | t64),
                (Timer::SubRepair(t), 1 << 48 | t64),
                (Timer::Deadline(Deadline::ContribRetry(t)), 1 << 49 | t64),
                (Timer::Deadline(Deadline::PushRetry(q)), 1 << 50 | q),
                (Timer::Script, 1 << 63),
            ] {
                assert_eq!(timer.id(), id, "{timer:?}");
                assert_eq!(Timer::from_id(id), timer, "{id:#x}");
            }
        }
    }
}
