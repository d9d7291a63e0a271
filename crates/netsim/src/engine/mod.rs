//! The discrete-event engine: the event queue, the run loop and dispatch,
//! and the one transmission path every radio copy takes.
//!
//! The engine is link-model agnostic: every transmission is routed through
//! the [`LinkModel`] in force, which decides delay,
//! loss, and node liveness. Dropped messages are charged for the hops they
//! traversed but never delivered; messages and timers addressed to a crashed
//! node are silently lost (the node's protocol state freezes while it is
//! down and resumes on recovery). A timer scheduled *before* an outage is
//! cleared even when the node is back up at the firing time — reboots lose
//! volatile state (see [`LinkModel::crashed_in_window`]).
//!
//! The engine's seams each have a module of their own: [`Ctx`], the
//! handle protocols act through, and the model checker's capture seam
//! ([`McEvent`], [`Simulator::capture_dispatch`]) are child modules; the
//! ARQ sublayer that [`Simulator::enable_arq`] runs underneath every
//! `send`/`unicast` is [`reliable`](crate::reliable), which owns its state
//! and handles every ARQ event behind one entry point. Protocols are
//! oblivious — the same protocol code runs reliably or unreliably
//! depending only on the simulator configuration.

mod capture;
mod ctx;

pub use capture::{Captured, FlowsSnapshot, McEvent};
pub use ctx::{Ctx, TimerHandle};

use crate::flow::{FlowFired, FlowResched, FlowTable, LinkUtil};
use crate::link::{HopOutcome, LinkModel};
use crate::metrics::Metrics;
use crate::reliable::{ArqEvent, ArqState};
use crate::scheduler::{EventHandle, PoppedEvent, Scheduler};
use crate::stats::CostBook;
use crate::trace::{DropReason, TraceEvent, TraceSink};
use elink_topology::{RoutingTable, Topology};
use rand::SeedableRng;
use std::borrow::Cow;
use std::collections::BTreeSet;
use std::sync::{Arc, OnceLock};

/// Simulated time in ticks. In synchronous mode one hop = one tick, matching
/// the paper's "worst-case delay over a hop is a single time unit" (§4).
pub type SimTime = u64;

/// Identifier of an in-flight query in a serving workload. Tagged sends
/// ([`Ctx::send_tagged`], [`Ctx::unicast_tagged`]) stamp this id on trace
/// events and attribute the transmission to the query's ledger in
/// [`CostBook`], threading query attribution through timer-callback sends
/// that plain `kind` strings cannot distinguish.
pub type QueryId = u64;

/// A per-node protocol state machine.
///
/// The simulator owns one instance per node. All communication and timer
/// manipulation goes through the [`Ctx`] handle; the engine guarantees
/// deterministic delivery order for a given seed.
pub trait Protocol {
    /// The protocol's message type.
    type Msg: Clone;

    /// Invoked once at time 0 for every node.
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Self::Msg>) {}

    /// Invoked when a message addressed to this node arrives.
    fn on_message(&mut self, from: usize, msg: Self::Msg, ctx: &mut Ctx<'_, Self::Msg>);

    /// Invoked when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _timer: u64, _ctx: &mut Ctx<'_, Self::Msg>) {}
}

/// A topology plus its (expensive, shareable) routing table.
///
/// Build once per topology and share across simulator runs with `clone()`
/// (both members are `Arc`s). The routing table — 1 byte per node pair,
/// built by a BFS wave from every node, 128 waves at a time — is
/// constructed lazily on first use:
/// protocols that only ever `send`/`broadcast_neighbors` (e.g.
/// implicit-mode ELink, the regime of the 64k-node scaling bench) never pay
/// for it.
#[derive(Clone)]
pub struct SimNetwork {
    topology: Arc<Topology>,
    routing: Arc<OnceLock<RoutingTable>>,
}

impl SimNetwork {
    /// Builds the network support structures for a topology.
    pub fn new(topology: Topology) -> Self {
        SimNetwork {
            topology: Arc::new(topology),
            routing: Arc::new(OnceLock::new()),
        }
    }

    /// The underlying topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The shared topology handle (cheap to clone).
    pub fn topology_arc(&self) -> &Arc<Topology> {
        &self.topology
    }

    /// The routing table, built on first call and shared across clones.
    pub fn routing(&self) -> &RoutingTable {
        self.routing
            .get_or_init(|| RoutingTable::build(self.topology.graph()))
    }

    /// Whether the routing table has been materialized — the 64k scaling
    /// bench asserts it stays `false` on broadcast-only runs.
    pub fn routing_built(&self) -> bool {
        self.routing.get().is_some()
    }
}

#[derive(Clone)]
pub(crate) enum EventKind<M> {
    /// A node's boot. [`Simulator::ensure_started`] queues the boots of all
    /// `n` nodes as one run, whose dispatch for node `v` boots `v`.
    Start,
    Deliver {
        from: usize,
        msg: M,
        query: Option<QueryId>,
    },
    /// The copies of one broadcast by `from` that all land at one tick,
    /// queued as one run (see [`Core::broadcast`]): the run's dispatch for
    /// "node" `p` delivers `msg` to `from`'s `p`-th neighbour.
    Broadcast { from: usize, msg: M },
    Timer {
        id: u64,
        /// When the timer was armed; a crash window opening after this and
        /// on or before the firing time clears the timer.
        scheduled: SimTime,
    },
    /// An ARQ data copy, ack or retransmission timeout (engine-internal),
    /// dispatched by the [`reliable`](crate::reliable) sublayer.
    Arq(ArqEvent),
    /// Tentative completion of flow slot `flow` at generation `gen` under a
    /// flow-model link (engine-internal). Fires at the completion tick
    /// predicted when it was scheduled; a generation mismatch at fire time
    /// means a later link transition invalidated the prediction and the
    /// event is ignored (the current prediction's event is still queued).
    FlowDone { flow: u32, gen: u32 },
}

/// Continuation stored with each in-flight flow under a flow-model link:
/// what the engine does when the transfer's service completes. Clonable
/// (for `M: Clone`) so the model checker can snapshot in-flight flows.
#[derive(Clone)]
enum FlowJob<M> {
    /// A copy that ends at the flow's receiver — a protocol message, a
    /// unicast's last leg, an ARQ data copy or ack: dispatch the event.
    Event(EventKind<M>),
    /// A unicast leg into a relay: carry the message on towards its
    /// destination (see [`Core::forward`]).
    Relay(Unicast<M>),
}

/// A multi-hop unicast in transit, carried leg to leg: its logical origin
/// and destination, the payload, and what every leg is billed as.
#[derive(Clone)]
struct Unicast<M> {
    src: usize,
    dst: usize,
    msg: M,
    kind: &'static str,
    scalars: u64,
    query: Option<QueryId>,
}

/// Engine internals shared between the run loop, [`Ctx`] and the ARQ
/// sublayer.
pub(crate) struct Core<M> {
    pub(crate) now: SimTime,
    queue: Scheduler<EventKind<M>>,
    pub(crate) costs: CostBook,
    pub(crate) metrics: Metrics,
    pub(crate) link: Box<dyn LinkModel>,
    trace: Option<Box<dyn TraceSink>>,
    pub(crate) rng: rand::rngs::StdRng,
    pub(crate) network: SimNetwork,
    events_processed: u64,
    pub(crate) arq: Option<ArqState<M>>,
    /// Present iff the installed link advertises
    /// [`FlowParams`](crate::link::FlowParams): every transmission is then
    /// priced through capacity sharing instead of [`LinkModel::hop`].
    flows: Option<FlowTable<FlowJob<M>>>,
    /// Reschedules the last flow-table transition appended, drained into
    /// the event queue right after it. Owned here so warmed-up transitions
    /// reuse its capacity instead of allocating.
    flow_resched: Vec<FlowResched>,
    /// When present, [`Core::push`] appends to this buffer instead of the
    /// event queue, and [`Core::cancel`] records there — the model
    /// checker's capture seam. Everything else (billing, tracing, link
    /// decisions) runs unchanged, so a captured dispatch is bit-for-bit the
    /// engine's own dispatch.
    capture: Option<Captured<M>>,
    /// Events captured so far: mints each captured event's handle, unique
    /// over the simulator's life.
    captured: u64,
    /// Nodes forced dead for liveness queries regardless of the link
    /// model. The model checker's capture link is pristine — crash state
    /// lives in the explored path, not in link crash windows — so the
    /// checker installs the explored state's crashed set here before each
    /// captured dispatch; otherwise protocol-level failure detection
    /// ([`Ctx::is_alive`]) would diverge between exploration and replay.
    /// Empty outside the capture seam.
    dead_override: BTreeSet<usize>,
}

impl<M> Core<M> {
    pub(crate) fn push(&mut self, time: SimTime, node: usize, kind: EventKind<M>) -> EventHandle {
        let Some(buf) = &mut self.capture else {
            return self.queue.push(time, node, kind);
        };
        let handle = EventHandle::captured(self.captured);
        self.captured += 1;
        buf.events.push(McEvent {
            time,
            node,
            kind,
            handle: Some(handle),
        });
        handle
    }

    /// Cancels a queued event: it is never dispatched and never counted.
    /// Under the capture seam, an event captured by this dispatch is
    /// dropped from the buffer, and an earlier one is reported to the
    /// checker in [`Captured::cancelled`].
    pub(crate) fn cancel(&mut self, handle: EventHandle) {
        let Some(buf) = &mut self.capture else {
            self.queue.cancel(handle);
            return;
        };
        match buf.events.iter().position(|e| e.handle == Some(handle)) {
            Some(i) => {
                buf.events.remove(i);
            }
            None => buf.cancelled.push(handle),
        }
    }

    pub(crate) fn trace(&mut self, event: TraceEvent) {
        if let Some(sink) = &mut self.trace {
            sink.record(event);
        }
    }

    /// Queues the tentative-completion events the last flow-table
    /// transition appended to `flow_resched` (new predictions and
    /// invalidation-driven reschedules alike), in order, leaving the
    /// buffer empty with its capacity intact.
    // simlint: hot
    fn drain_flow_resched(&mut self) {
        let mut resched = std::mem::take(&mut self.flow_resched);
        for &(flow, gen, at, node) in &resched {
            self.push(at, node, EventKind::FlowDone { flow, gen });
        }
        resched.clear();
        self.flow_resched = resched;
    }

    /// Whether `node` is up at `at`: the link model's verdict, unless the
    /// model checker forced the node dead (see
    /// [`Simulator::set_dead_override`]). The one liveness predicate of
    /// dispatch, relaying and [`Ctx::is_alive`].
    fn alive(&self, node: usize, at: SimTime) -> bool {
        !self.dead_override.contains(&node) && self.link.is_alive(node, at)
    }

    /// Bills one radio transmission by `from` under `kind`: the per-kind
    /// and per-node ledgers, plus `query`'s ledger when the copy is tagged.
    pub(crate) fn bill(
        &mut self,
        from: usize,
        kind: &'static str,
        scalars: u64,
        query: Option<QueryId>,
    ) {
        self.costs.record_tx(from, kind, 1, scalars);
        if let Some(qid) = query {
            self.costs.attribute_query(qid, 1, scalars);
        }
    }

    /// The link's verdict on one transmission `from → to` sent at tick
    /// `at`: the tick the copy lands, or `None` when the link loses it.
    /// The only caller of [`LinkModel::hop`] and the only place a loss is
    /// counted (`net.drops.loss`). A lost logical message — `traced` holds
    /// its origin, destination and query — is also traced; ARQ copies and
    /// acks pass `None`, since their losses show as retransmissions. On a
    /// flow link the verdict decides only *whether* the copy survives: the
    /// flow table prices its delay.
    pub(crate) fn fate(
        &mut self,
        from: usize,
        to: usize,
        at: SimTime,
        traced: Option<(usize, usize, Option<QueryId>)>,
    ) -> Option<SimTime> {
        match self.link.hop(from, to, at, &mut self.rng) {
            HopOutcome::Deliver { delay } => Some(at + delay),
            HopOutcome::Drop => {
                self.metrics.inc("net.drops.loss");
                if let Some((from, to, query)) = traced {
                    self.trace(TraceEvent::Drop {
                        time: at,
                        from,
                        to,
                        reason: DropReason::Loss,
                        query,
                    });
                }
                None
            }
        }
    }

    /// Hands a copy that survived its [`Core::fate`] to the network: a
    /// per-message link queues `event` at `arrive`; a flow link opens a
    /// flow `from → to` that dispatches `event` on completion. Returns the
    /// copy's delivery bound in ticks, from which ARQ sizes its RTO: the
    /// predicted sojourn under current contention on a flow link (a
    /// congested link legitimately takes longer, and a static RTO there
    /// would retransmit into the very queue that delays it), the static
    /// hop bound otherwise.
    // simlint: hot
    pub(crate) fn transmit(
        &mut self,
        from: usize,
        to: usize,
        scalars: u64,
        arrive: SimTime,
        event: EventKind<M>,
    ) -> u64 {
        if self.flows.is_none() {
            self.push(arrive, to, event);
            return self.link.max_hop_delay();
        }
        let finish = self.flow_start(from, to, scalars, FlowJob::Event(event));
        finish.saturating_sub(self.now).max(1)
    }

    /// Carries unicast `u` on from `cur`, which holds it at tick `at`: the
    /// one step for every store-and-forward leg. A relay (any `cur` but
    /// the origin) that is down swallows the message; a live one records
    /// the reception. The holder then bills the next leg and rolls its
    /// fate, and the last leg delivers through [`Core::transmit`]. A flow
    /// link carries one leg per call, and the leg's completion calls back
    /// in at the relay. A per-message link walks the rest of the route
    /// now, so the final delivery keeps its early queue position and the
    /// RNG draws keep their order.
    // simlint: hot
    fn forward(&mut self, mut cur: usize, mut at: SimTime, u: Unicast<M>) {
        loop {
            if cur != u.src {
                if !self.alive(cur, at) {
                    self.drop_node_down(at, u.src, u.dst, u.query);
                    return;
                }
                self.costs.record_rx(cur);
            }
            let Some(next) = self.network.routing().next_hop(cur, u.dst) else {
                // The sender checked that `dst` is routable, so every
                // prefix of the path is; a miss is routing-table
                // corruption, not an injected fault.
                debug_assert!(false, "unicast relay without a route to dst");
                return;
            };
            self.bill(cur, u.kind, u.scalars, u.query);
            let Some(arrive) = self.fate(cur, next, at, Some((u.src, u.dst, u.query))) else {
                return;
            };
            if next == u.dst {
                // The receiver's liveness and reception are checked when
                // the delivery is dispatched.
                let deliver = EventKind::Deliver {
                    from: u.src,
                    msg: u.msg,
                    query: u.query,
                };
                self.transmit(cur, next, u.scalars, arrive, deliver);
                return;
            }
            if self.flows.is_some() {
                self.flow_start(cur, next, u.scalars, FlowJob::Relay(u));
                return;
            }
            (cur, at) = (next, arrive);
        }
    }

    /// Whether a broadcast may be queued as one run: on a per-message link
    /// without ARQ, and outside the capture seam, whose checker explores
    /// single deliveries.
    pub(crate) fn queues_runs(&self) -> bool {
        self.arq.is_none() && self.flows.is_none() && self.capture.is_none()
    }

    /// Sends `msg` from `from` to each of its neighbours in adjacency
    /// order, where [`Core::queues_runs`] holds. Each copy is traced and
    /// rolls its own [`Core::fate`], as a [`Ctx::send`] would; the `k`
    /// copies are billed at once, which gives the cost book the same totals
    /// as `k` bills. When every copy survives and lands at one tick, the
    /// copies are queued as one run ([`Scheduler::push_run`]) that takes
    /// the `k` consecutive sequence numbers they would have taken;
    /// otherwise each surviving copy is queued on its own, in adjacency
    /// order, as the per-copy path queues them.
    pub(crate) fn broadcast(&mut self, from: usize, msg: &M, kind: &'static str, scalars: u64)
    where
        M: Clone,
    {
        let now = self.now;
        let degree = self.network.topology().graph().degree(from);
        self.costs.record_tx(from, kind, degree as u64, scalars);
        // While `run` holds, every copy so far survived and lands at `land`.
        let (mut run, mut land) = (true, None);
        for port in 0..degree {
            let to = self.network.topology().graph().neighbors(from)[port] as usize;
            self.trace(TraceEvent::Send {
                time: now,
                from,
                to,
                query: None,
                retx: false,
            });
            let arrive = self.fate(from, to, now, Some((from, to, None)));
            if run {
                if arrive.is_some() && (port == 0 || arrive == land) {
                    land = arrive;
                    continue;
                }
                // The fates differ: queue the agreeing copies so far one by
                // one, then carry on copy by copy.
                run = false;
                if let Some(at) = land {
                    for p in 0..port {
                        let to = self.network.topology().graph().neighbors(from)[p] as usize;
                        self.deliver_copy(from, to, msg, scalars, at);
                    }
                }
            }
            if let Some(at) = arrive {
                self.deliver_copy(from, to, msg, scalars, at);
            }
        }
        if let (true, Some(at)) = (run, land) {
            let copies = EventKind::Broadcast {
                from,
                msg: msg.clone(),
            };
            self.queue.push_run(at, 0, degree as u32, copies);
        }
    }

    /// Queues one surviving copy of `from`'s broadcast for `to` at `at`.
    fn deliver_copy(&mut self, from: usize, to: usize, msg: &M, scalars: u64, at: SimTime)
    where
        M: Clone,
    {
        let deliver = EventKind::Deliver {
            from,
            msg: msg.clone(),
            query: None,
        };
        self.transmit(from, to, scalars, at, deliver);
    }

    /// Counts and traces a timer, or a node's boot, that fires while its
    /// node is down (or, for a timer, after a crash window since it was
    /// armed): no message is lost, so it is not a `net.drops.node_down`.
    pub(crate) fn clear_timer(&mut self, at: SimTime, node: usize) {
        self.metrics.inc("net.timers.cleared");
        self.trace(TraceEvent::Drop {
            time: at,
            from: node,
            to: node,
            reason: DropReason::NodeDown,
            query: None,
        });
    }

    /// Counts and traces a message lost to a receiver or relay that is
    /// down when it arrives.
    pub(crate) fn drop_node_down(
        &mut self,
        at: SimTime,
        from: usize,
        to: usize,
        query: Option<QueryId>,
    ) {
        self.metrics.inc("net.drops.node_down");
        self.trace(TraceEvent::Drop {
            time: at,
            from,
            to,
            reason: DropReason::NodeDown,
            query,
        });
    }

    /// Worst-case ticks for one hop of a `scalars`-sized copy: the link's
    /// static bound, or on a flow link the solo sojourn, stretched to the
    /// current contention horizon when `contended`.
    pub(crate) fn hop_envelope(&self, scalars: u64, contended: bool) -> u64 {
        match &self.flows {
            Some(table) if contended => table
                .horizon(self.now)
                .max(table.uncontended_sojourn(scalars)),
            Some(table) => table.uncontended_sojourn(scalars),
            None => self.link.max_hop_delay(),
        }
    }

    /// Worst-case ticks for one successful neighbour delivery: the
    /// single-scalar [`Core::hop_envelope`], through the full ARQ retry
    /// envelope when reliable delivery is on. Behind both
    /// [`Ctx::max_delivery_delay`] (`contended`) and
    /// [`Ctx::nominal_delivery_delay`] (idle).
    fn delivery_envelope(&self, contended: bool) -> u64 {
        let hop = self.hop_envelope(1, contended);
        match &self.arq {
            Some(arq) => arq.config.worst_case_link_delivery(hop),
            None => hop,
        }
    }

    /// Opens a flow `from → to` carrying `job` and schedules the resulting
    /// tentative completions. Returns the new transfer's predicted finish
    /// tick under current contention (the ARQ layer sizes RTOs from it).
    // simlint: hot
    fn flow_start(&mut self, from: usize, to: usize, scalars: u64, job: FlowJob<M>) -> SimTime {
        let now = self.now;
        let Some(table) = &mut self.flows else {
            debug_assert!(false, "flow_start without a flow table");
            return now + 1;
        };
        let predicted_finish = table.start(from, to, scalars, now, job, &mut self.flow_resched);
        let active = table.active() as i64;
        let peak = table.peak_active() as i64;
        self.drain_flow_resched();
        self.metrics.set_gauge("net.flows.active", active);
        self.metrics.set_gauge("net.flows.peak", peak);
        predicted_finish
    }
}

/// The discrete-event simulator: a set of protocol instances plus the engine.
pub struct Simulator<P: Protocol> {
    nodes: Vec<P>,
    pub(crate) core: Core<P::Msg>,
    started: bool,
}

/// Safety valve: maximum events before [`Simulator::run_to_completion`]
/// aborts (protocol livelock protection).
const MAX_EVENTS: u64 = 500_000_000;

impl<P: Protocol> Simulator<P> {
    /// Creates a simulator over `network` with one protocol instance per
    /// node. `link` accepts any [`LinkModel`]; `seed` drives all link-layer
    /// randomness.
    ///
    /// # Panics
    /// Panics if `nodes.len()` differs from the topology size.
    pub fn new(
        network: SimNetwork,
        link: impl Into<Box<dyn LinkModel>>,
        seed: u64,
        nodes: Vec<P>,
    ) -> Self {
        assert_eq!(
            nodes.len(),
            network.topology().n(),
            "one protocol instance per node required"
        );
        let n = network.topology().n();
        let link: Box<dyn LinkModel> = link.into();
        let flows = link.flow_params().map(|params| FlowTable::new(params, n));
        let mut metrics = Metrics::new();
        if flows.is_some() {
            // Declare the contention surface up front so idle flow runs
            // still show the keys in metrics dumps.
            metrics.declare_counter("net.queued_ms");
            metrics.declare_counter("net.flow.stale");
            metrics.set_gauge("net.flows.active", 0);
            metrics.set_gauge("net.flows.peak", 0);
        }
        Simulator {
            nodes,
            core: Core {
                now: 0,
                queue: Scheduler::new(),
                costs: CostBook::with_nodes(n),
                metrics,
                link,
                trace: None,
                rng: rand::rngs::StdRng::seed_from_u64(seed),
                network,
                events_processed: 0,
                arq: None,
                flows,
                flow_resched: Vec::new(),
                capture: None,
                captured: 0,
                dead_override: BTreeSet::new(),
            },
            started: false,
        }
    }

    /// High-water mark of simultaneously live (queued, uncancelled) events
    /// over the run, which the scaling bench reports as `peak_live_events`.
    /// A queued run counts each dispatch it still owes, so this is the
    /// peak a queue of one entry per copy would reach. The event arena
    /// holds one slot per queue entry, so it needs at most this many
    /// slots, except that a cancelled wheel event keeps its slot until the
    /// wheel reaches its tick.
    pub fn peak_live_events(&self) -> usize {
        self.core.queue.peak_live()
    }

    /// Attaches a [`TraceSink`] observing every engine event. Wrap the sink
    /// in `Arc<Mutex<_>>` and keep a clone to inspect it after the run.
    pub fn set_trace(&mut self, sink: impl TraceSink + 'static) {
        self.core.trace = Some(Box::new(sink));
    }

    /// Runs until the event queue is empty. Returns the final time.
    ///
    /// # Panics
    /// Panics if `MAX_EVENTS` is exceeded (indicates a protocol livelock).
    pub fn run_to_completion(&mut self) -> SimTime {
        self.ensure_started();
        while self.step() {}
        self.core.now
    }

    /// Runs until simulated time exceeds `deadline` or the queue drains.
    /// A run's dispatches share one tick, so the loop never stops inside a
    /// run; one that [`Simulator::run_events`] left unfinished dispatches
    /// first.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.ensure_started();
        // An empty queue still takes the step, which ends the run there.
        while self.core.queue.next_time().is_none_or(|t| t <= deadline) && self.step() {}
        self.core.now = self.core.now.max(deadline);
        self.core.now
    }

    /// Queues the boot of every node at tick 0, in id order, as one run:
    /// it takes the place the `n` boots would take one by one, after
    /// anything injected before the run began.
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let n = self.nodes.len();
        if n > 0 {
            // Node ids fit a `u32`, as in the communication graph.
            self.core.queue.push_run(0, 0, n as u32, EventKind::Start);
        }
    }

    /// Processes one event; returns false when the queue is empty. Events
    /// addressed to a node that is down when they fire are dropped: its
    /// protocol state freezes until recovery. Timers (and ARQ sender state)
    /// armed before a crash window are cleared even if the node recovered
    /// before the firing time.
    ///
    /// Every run loop that drains the queue ends with the step that finds
    /// it empty ([`Simulator::run_to_completion`] always,
    /// [`Simulator::run_until`] and [`Simulator::run_events`] when the
    /// queue empties first); ARQ drops its dedup rows there (see
    /// [`reliable`](crate::reliable)).
    ///
    /// A queued run dispatches one event per step, in order, before
    /// anything else pops; each dispatch but the last works on a copy of
    /// the run's payload.
    fn step(&mut self) -> bool {
        let Some(PoppedEvent {
            time,
            node,
            payload,
        }) = self.core.queue.pop()
        else {
            if let Some(arq) = &mut self.core.arq {
                arq.quiesce();
            }
            return false;
        };
        match payload {
            Cow::Owned(event_kind) => self.dispatch_event(time, node, event_kind),
            Cow::Borrowed(event_kind) => {
                let event_kind = event_kind.clone();
                self.dispatch_event(time, node, event_kind);
            }
        }
        true
    }

    /// Dispatches one event exactly as [`Simulator::step`] would — the
    /// single delivery path shared by the run loop and the model checker's
    /// capture mode. Every event but a flow completion first asks whether
    /// its node is up: a message reaching a down node is a
    /// `net.drops.node_down` loss; a timer or the boot reaching one is
    /// cleared like a timer armed before a crash window
    /// (`net.timers.cleared`). Both keep a `NodeDown` drop trace record.
    fn dispatch_event(&mut self, time: SimTime, node: usize, event_kind: EventKind<P::Msg>) {
        self.core.now = time;
        self.core.events_processed += 1;
        assert!(
            self.core.events_processed <= MAX_EVENTS,
            "simulation exceeded {MAX_EVENTS} events — livelock?"
        );
        match event_kind {
            EventKind::FlowDone { flow, gen } => {
                // Link-level bookkeeping first (the flow must leave the table
                // either way); the continuation re-enters dispatch, where
                // receiver liveness is checked with per-payload semantics.
                self.flow_fire(time, node, flow, gen);
            }
            EventKind::Arq(event) => {
                let alive = self.core.alive(node, time);
                if let Some((from, msg, query)) = self.core.arq_dispatch(node, event, alive) {
                    self.deliver(time, node, from, msg, query);
                }
            }
            EventKind::Start => {
                if !self.core.alive(node, time) {
                    self.core.clear_timer(time, node);
                    return;
                }
                let mut ctx = Ctx {
                    core: &mut self.core,
                    node,
                };
                self.nodes[node].on_start(&mut ctx);
            }
            EventKind::Deliver { from, msg, query } => self.receive(time, node, from, msg, query),
            EventKind::Broadcast { from, msg } => {
                let to = self.core.network.topology().graph().neighbors(from)[node] as usize;
                self.receive(time, to, from, msg, None);
            }
            EventKind::Timer { id, scheduled } => {
                if !self.core.alive(node, time)
                    || self.core.link.crashed_in_window(node, scheduled, time)
                {
                    // The node is down, or rebooted between arming and
                    // firing: the timer died with the volatile state that
                    // armed it.
                    self.core.clear_timer(time, node);
                    return;
                }
                self.core.trace(TraceEvent::Timer { time, node, id });
                let mut ctx = Ctx {
                    core: &mut self.core,
                    node,
                };
                self.nodes[node].on_timer(id, &mut ctx);
            }
        }
    }

    /// A copy from `from` reaching `node`: lost if the node is down, else
    /// counted as a reception and delivered.
    // Inlined into both of `dispatch_event`'s message arms: as a call it
    // moves the message through memory once more, which costs every plain
    // delivery a few ns.
    #[inline(always)]
    fn receive(
        &mut self,
        time: SimTime,
        node: usize,
        from: usize,
        msg: P::Msg,
        query: Option<QueryId>,
    ) {
        if !self.core.alive(node, time) {
            self.core.drop_node_down(time, from, node, query);
            return;
        }
        self.core.costs.record_rx(node);
        self.deliver(time, node, from, msg, query);
    }

    /// Hands `msg` from logical origin `from` to `node`'s protocol: the
    /// one `Deliver` trace record, then `on_message`. Plain deliveries and
    /// ARQ copies that reach their destination both end here.
    fn deliver(
        &mut self,
        time: SimTime,
        node: usize,
        from: usize,
        msg: P::Msg,
        query: Option<QueryId>,
    ) {
        self.core.trace(TraceEvent::Deliver {
            time,
            from,
            to: node,
            query,
        });
        let mut ctx = Ctx {
            core: &mut self.core,
            node,
        };
        self.nodes[node].on_message(from, msg, &mut ctx);
    }

    /// Handles a tentative flow completion: stale generations are counted
    /// and dropped; a valid completion settles the link (freeing capacity
    /// for the survivors, whose new predictions are queued) and dispatches
    /// the stored continuation through the ordinary event path.
    // simlint: hot
    fn flow_fire(&mut self, time: SimTime, node: usize, flow: u32, gen: u32) {
        let Some(table) = &mut self.core.flows else {
            debug_assert!(false, "FlowDone without a flow table");
            return;
        };
        match table.fire(flow, gen, time, &mut self.core.flow_resched) {
            FlowFired::Stale => {
                self.core.metrics.inc("net.flow.stale");
            }
            FlowFired::Done {
                payload,
                sojourn,
                queued,
            } => {
                let active = table.active() as i64;
                self.core.drain_flow_resched();
                self.core.metrics.add("net.queued_ms", queued);
                self.core.metrics.observe("net.flow.sojourn", sojourn);
                self.core.metrics.set_gauge("net.flows.active", active);
                match payload {
                    FlowJob::Event(event) => self.dispatch_event(time, node, event),
                    FlowJob::Relay(unicast) => self.core.forward(node, time, unicast),
                }
            }
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// The full cost book: per-kind aggregates plus per-node tx/rx tallies.
    pub fn costs(&self) -> &CostBook {
        &self.core.costs
    }

    /// The run's metrics registry: phase spans, counters and histograms
    /// recorded by the engine (`net.unicast_hops`, drop counters) and by
    /// protocols through [`Ctx::metrics`]/[`Ctx::phase_enter`].
    pub fn metrics(&self) -> &Metrics {
        &self.core.metrics
    }

    /// Mutable registry access, for harness-level phases recorded between
    /// [`Simulator::run_until`] segments.
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.core.metrics
    }

    /// Extracts the registry, leaving an empty one behind — the cheap way
    /// for a runner to move metrics into its outcome struct.
    pub fn take_metrics(&mut self) -> Metrics {
        std::mem::take(&mut self.core.metrics)
    }

    /// Whether `node` is up at the current simulated time (honouring the
    /// model checker's dead-node override, see
    /// [`Simulator::set_dead_override`]).
    pub fn is_alive(&self, node: usize) -> bool {
        self.core.alive(node, self.core.now)
    }

    /// Immutable access to the protocol instances (for extracting results).
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Mutable access to the protocol instances (for injecting state between
    /// phases, e.g. streaming feature updates).
    pub fn nodes_mut(&mut self) -> &mut [P] {
        &mut self.nodes
    }

    /// The simulated network.
    pub fn network(&self) -> &SimNetwork {
        &self.core.network
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.core.events_processed
    }

    /// Injects an external event: schedules delivery of `msg` to `node` at
    /// `time` from a fictitious source (`from = node`), free of charge. Used
    /// by experiment harnesses to model sensing inputs.
    pub fn inject(&mut self, time: SimTime, node: usize, msg: P::Msg) {
        self.inject_from(time, node, node, msg);
    }

    /// Cumulative per-directed-link utilization under a flow-model link
    /// (empty otherwise), ascending by `(from, to)`: busy ticks,
    /// milli-scalars served, and peak concurrent flows per link.
    pub fn link_utilization(&self) -> Vec<((usize, usize), LinkUtil)> {
        self.core
            .flows
            .as_ref()
            .map(|t| t.link_stats())
            .unwrap_or_default()
    }

    /// Folds a summary of the per-link utilization table into the metrics
    /// registry as gauges (`net.links.used`, `net.link.busy_peak_ticks`,
    /// `net.link.busy_total_ticks`, `net.link.served_scalars`,
    /// `net.link.peak_flows`). The registry keys are `&'static str`, so the
    /// full per-link breakdown stays on [`Simulator::link_utilization`];
    /// harnesses call this once before extracting metrics so reports carry
    /// the aggregate contention picture. No-op for per-message links.
    pub fn record_flow_gauges(&mut self) {
        let Some(table) = &self.core.flows else {
            return;
        };
        let stats = table.link_stats();
        let mut busiest = 0u64;
        let mut total_busy = 0u64;
        let mut served_milli = 0u64;
        let mut peak_flows = 0u64;
        for (_, util) in &stats {
            busiest = busiest.max(util.busy_ticks);
            total_busy += util.busy_ticks;
            served_milli += util.served_milli;
            peak_flows = peak_flows.max(util.peak_flows);
        }
        let peak_active = table.peak_active() as i64;
        self.core
            .metrics
            .set_gauge("net.links.used", stats.len() as i64);
        self.core
            .metrics
            .set_gauge("net.link.busy_peak_ticks", busiest as i64);
        self.core
            .metrics
            .set_gauge("net.link.busy_total_ticks", total_busy as i64);
        self.core
            .metrics
            .set_gauge("net.link.served_scalars", (served_milli / 1000) as i64);
        self.core
            .metrics
            .set_gauge("net.link.peak_flows", peak_flows as i64);
        self.core.metrics.set_gauge("net.flows.peak", peak_active);
    }

    /// The link model's delay bound (see [`LinkModel::max_hop_delay`]).
    pub fn max_hop_delay(&self) -> u64 {
        self.core.link.max_hop_delay()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::link::{LossyLink, ScriptedLink, SyncLink};
    use crate::reliable::tests::arq_uni_sim;
    use crate::trace::tests::Collect;
    use elink_topology::Topology;
    use std::cell::Cell;
    use std::rc::Rc;
    use std::sync::{Arc, Mutex};

    /// Flooding protocol: node 0 floods a token; everyone records receipt
    /// time and forwards once.
    #[derive(Clone)]
    pub(crate) struct Flood {
        pub(crate) seen: Option<SimTime>,
    }

    impl Protocol for Flood {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.id() == 0 {
                self.seen = Some(ctx.now());
                ctx.broadcast_neighbors(&1, "flood", 1);
            }
        }

        fn on_message(&mut self, _from: usize, msg: u32, ctx: &mut Ctx<'_, u32>) {
            if self.seen.is_none() {
                self.seen = Some(ctx.now());
                ctx.broadcast_neighbors(&msg, "flood", 1);
            }
        }
    }

    fn flood_sim(link: impl Into<Box<dyn LinkModel>>, seed: u64) -> Simulator<Flood> {
        let network = SimNetwork::new(Topology::grid(4, 4));
        let nodes = (0..16).map(|_| Flood { seen: None }).collect();
        Simulator::new(network, link, seed, nodes)
    }

    #[test]
    fn flood_reaches_everyone_in_sync_time() {
        let mut sim = flood_sim(SyncLink, 0);
        sim.run_to_completion();
        for (v, node) in sim.nodes().iter().enumerate() {
            let expected = sim.network().routing().hops(0, v).unwrap() as u64;
            assert_eq!(node.seen, Some(expected), "node {v}");
        }
    }

    #[test]
    fn flood_message_count_bounded_by_degree_sum() {
        let mut sim = flood_sim(SyncLink, 0);
        sim.run_to_completion();
        // Each node broadcasts once: total packets = Σ degree = 2|E| = 48.
        assert_eq!(sim.costs().total_packets(), 48);
    }

    #[test]
    fn async_is_deterministic_per_seed() {
        let mut a = flood_sim(LossyLink::new(1, 5), 9);
        let mut b = flood_sim(LossyLink::new(1, 5), 9);
        a.run_to_completion();
        b.run_to_completion();
        let ta: Vec<_> = a.nodes().iter().map(|n| n.seen).collect();
        let tb: Vec<_> = b.nodes().iter().map(|n| n.seen).collect();
        assert_eq!(ta, tb);
        assert_eq!(a.costs().total_cost(), b.costs().total_cost());
    }

    #[test]
    fn async_seeds_change_timing() {
        let mut a = flood_sim(LossyLink::new(1, 10), 1);
        let mut b = flood_sim(LossyLink::new(1, 10), 2);
        a.run_to_completion();
        b.run_to_completion();
        let ta: Vec<_> = a.nodes().iter().map(|n| n.seen).collect();
        let tb: Vec<_> = b.nodes().iter().map(|n| n.seen).collect();
        assert_ne!(ta, tb, "different seeds should reorder deliveries");
    }

    /// Unicast protocol: node 0 unicasts to the far corner.
    struct Uni {
        got: bool,
    }

    impl Protocol for Uni {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            if ctx.id() == 0 {
                let far = ctx.n() - 1;
                assert!(ctx.unicast(far, (), "uni", 4));
            }
        }

        fn on_message(&mut self, _from: usize, _msg: (), _ctx: &mut Ctx<'_, ()>) {
            self.got = true;
        }
    }

    #[test]
    fn unicast_charges_scalars_times_hops() {
        let network = SimNetwork::new(Topology::grid(4, 4));
        let nodes = (0..16).map(|_| Uni { got: false }).collect();
        let mut sim = Simulator::new(network, SyncLink, 0, nodes);
        sim.run_to_completion();
        assert!(sim.nodes()[15].got);
        // 0 -> 15 in a 4x4 grid is 6 hops; 4 scalars per hop.
        assert_eq!(sim.costs().kind("uni").packets, 6);
        assert_eq!(sim.costs().kind("uni").cost, 24);
        assert_eq!(sim.now(), 6);
    }

    #[test]
    fn unicast_to_self_is_free() {
        struct SelfSend {
            got: bool,
        }
        impl Protocol for SelfSend {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.id() == 0 {
                    ctx.unicast(0, (), "self", 9);
                }
            }
            fn on_message(&mut self, _f: usize, _m: (), _c: &mut Ctx<'_, ()>) {
                self.got = true;
            }
        }
        let network = SimNetwork::new(Topology::grid(2, 2));
        let nodes = (0..4).map(|_| SelfSend { got: false }).collect();
        let mut sim = Simulator::new(network, SyncLink, 0, nodes);
        sim.run_to_completion();
        assert!(sim.nodes()[0].got);
        assert_eq!(sim.costs().total_cost(), 0);
    }

    /// Timer protocol: each node sets a timer = its id and records firing.
    struct Timers {
        fired_at: Option<SimTime>,
    }

    impl Protocol for Timers {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            let id = ctx.id() as u64;
            ctx.set_timer(id * 10, id);
        }
        fn on_message(&mut self, _f: usize, _m: (), _c: &mut Ctx<'_, ()>) {}
        fn on_timer(&mut self, _t: u64, ctx: &mut Ctx<'_, ()>) {
            self.fired_at = Some(ctx.now());
        }
    }

    #[test]
    fn timers_fire_at_requested_times() {
        let network = SimNetwork::new(Topology::grid(1, 3));
        let nodes = (0..3).map(|_| Timers { fired_at: None }).collect();
        let mut sim = Simulator::new(network, SyncLink, 0, nodes);
        sim.run_to_completion();
        assert_eq!(sim.nodes()[0].fired_at, Some(0));
        assert_eq!(sim.nodes()[1].fired_at, Some(10));
        assert_eq!(sim.nodes()[2].fired_at, Some(20));
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let network = SimNetwork::new(Topology::grid(1, 3));
        let nodes = (0..3).map(|_| Timers { fired_at: None }).collect();
        let mut sim = Simulator::new(network, SyncLink, 0, nodes);
        sim.run_until(10);
        assert_eq!(sim.nodes()[1].fired_at, Some(10));
        assert_eq!(sim.nodes()[2].fired_at, None);
        sim.run_to_completion();
        assert_eq!(sim.nodes()[2].fired_at, Some(20));
    }

    #[test]
    fn inject_delivers_external_event() {
        struct Sink {
            got: Vec<(SimTime, u8)>,
        }
        impl Protocol for Sink {
            type Msg = u8;
            fn on_message(&mut self, _f: usize, m: u8, ctx: &mut Ctx<'_, u8>) {
                self.got.push((ctx.now(), m));
            }
        }
        let network = SimNetwork::new(Topology::grid(1, 2));
        let nodes = (0..2).map(|_| Sink { got: vec![] }).collect();
        let mut sim = Simulator::new(network, SyncLink, 0, nodes);
        sim.inject(5, 1, 42);
        sim.inject(3, 1, 7);
        sim.run_to_completion();
        assert_eq!(sim.nodes()[1].got, vec![(3, 7), (5, 42)]);
        assert_eq!(sim.costs().total_cost(), 0);
    }

    #[test]
    fn fifo_between_same_timestamp_events() {
        // Two messages sent in one callback with equal delay must arrive in
        // send order (seq tie-break).
        struct Order {
            got: Vec<u8>,
        }
        impl Protocol for Order {
            type Msg = u8;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                if ctx.id() == 0 {
                    ctx.send(1, 1, "m", 1);
                    ctx.send(1, 2, "m", 1);
                }
            }
            fn on_message(&mut self, _f: usize, m: u8, _c: &mut Ctx<'_, u8>) {
                self.got.push(m);
            }
        }
        let network = SimNetwork::new(Topology::grid(1, 2));
        let mut sim = Simulator::new(
            network,
            SyncLink,
            0,
            vec![Order { got: vec![] }, Order { got: vec![] }],
        );
        sim.run_to_completion();
        assert_eq!(sim.nodes()[1].got, vec![1, 2]);
    }

    #[test]
    fn dropped_sends_are_charged_but_never_delivered() {
        // Drop everything: the flood dies at node 0 but its broadcasts are
        // still paid for.
        let mut sim = flood_sim(LossyLink::new(1, 1).with_drop_prob(1.0), 0);
        sim.run_to_completion();
        assert_eq!(sim.costs().kind("flood").packets, 2); // node 0's two neighbors
        for (v, node) in sim.nodes().iter().enumerate().skip(1) {
            assert_eq!(node.seen, None, "node {v} got a dropped message");
        }
    }

    #[test]
    fn crashed_node_is_skipped_and_recovers_frozen() {
        // 1x3 path; node 1 is down during [0, 15). Node 0 floods at t=0: the
        // token dies at node 1, so node 2 never hears it.
        let network = SimNetwork::new(Topology::grid(1, 3));
        let nodes = (0..3).map(|_| Flood { seen: None }).collect();
        let link = LossyLink::new(1, 1).with_crash(1, 0, Some(15));
        let mut sim = Simulator::new(network, link, 0, nodes);
        sim.run_to_completion();
        assert_eq!(sim.nodes()[0].seen, Some(0));
        assert_eq!(sim.nodes()[1].seen, None, "dead node must not receive");
        assert_eq!(
            sim.nodes()[2].seen,
            None,
            "flood must not pass the dead relay"
        );
        // The attempted transmission into the dead node was still charged.
        assert_eq!(sim.costs().kind("flood").packets, 1);
        // Node 1's boot at t=0 is cleared; only the token is a lost message.
        assert_eq!(sim.metrics().counter("net.timers.cleared"), 1);
        assert_eq!(sim.metrics().counter("net.drops.node_down"), 1);
    }

    #[test]
    fn crashed_relay_swallows_unicast_and_charges_partial_hops() {
        // 1x4 path, 0 -> 3 is 3 hops; node 2 is permanently down, so the
        // message traverses 0->1 and dies entering 2: 2 hops charged.
        let network = SimNetwork::new(Topology::grid(1, 4));
        let nodes = (0..4).map(|_| Uni { got: false }).collect();
        let link = LossyLink::new(1, 1).with_crash(2, 0, None);
        let mut sim = Simulator::new(network, link, 0, nodes);
        sim.run_to_completion();
        assert!(!sim.nodes()[3].got);
        assert_eq!(sim.costs().kind("uni").packets, 2);
        assert_eq!(sim.costs().kind("uni").cost, 8);

        // Under the model checker's capture seam the crash lives in the
        // dead-node override, not in the link: the relay must swallow the
        // unicast all the same.
        let network = SimNetwork::new(Topology::grid(1, 4));
        let nodes = (0..4).map(|_| Uni { got: false }).collect();
        let mut sim = Simulator::new(network, ScriptedLink::pristine(1), 0, nodes);
        sim.set_dead_override([2]);
        let boot = sim.capture_boot();
        assert!(
            !boot.iter().any(|ev| ev.is_message() && ev.node() == 3),
            "capture delivered through a dead relay"
        );
        assert_eq!(sim.costs().kind("uni").packets, 2);
    }

    #[test]
    fn timers_are_lost_while_down() {
        // Node 1's timer would fire at t=10 but it is down during [5, 50):
        // the timer is lost, not deferred.
        let network = SimNetwork::new(Topology::grid(1, 3));
        let nodes = (0..3).map(|_| Timers { fired_at: None }).collect();
        let link = LossyLink::new(1, 1).with_crash(1, 5, Some(50));
        let mut sim = Simulator::new(network, link, 0, nodes);
        sim.run_to_completion();
        assert_eq!(sim.nodes()[0].fired_at, Some(0));
        assert_eq!(sim.nodes()[1].fired_at, None);
        assert_eq!(sim.nodes()[2].fired_at, Some(20));
        // A timer reaching a down node is cleared, not a lost message.
        assert_eq!(sim.metrics().counter("net.timers.cleared"), 1);
        assert_eq!(sim.metrics().counter("net.drops.node_down"), 0);
    }

    #[test]
    fn per_node_tallies_cover_flood() {
        let mut sim = flood_sim(SyncLink, 0);
        sim.run_to_completion();
        let book = sim.costs();
        // Every node broadcast once: tx = its degree; rx = its degree (one
        // copy from each neighbor).
        let graph_degrees: Vec<u64> = (0..16)
            .map(|v| sim.network().topology().graph().degree(v) as u64)
            .collect();
        for (v, &deg) in graph_degrees.iter().enumerate() {
            assert_eq!(book.node(v).tx_packets, deg, "tx of {v}");
            assert_eq!(book.node(v).rx_packets, deg, "rx of {v}");
        }
        assert_eq!(
            book.nodes().iter().map(|n| n.tx_packets).sum::<u64>(),
            book.total_packets()
        );
    }

    #[test]
    fn trace_sink_observes_engine_events() {
        let shared = Arc::new(Mutex::new(Collect::default()));
        let mut sim = flood_sim(SyncLink, 0);
        sim.set_trace(Arc::clone(&shared));
        sim.run_to_completion();
        let trace = shared.lock().unwrap();
        assert_eq!(
            trace.count(|e| matches!(e, TraceEvent::Send { retx: false, .. })),
            48
        );
        assert_eq!(trace.count(|e| matches!(e, TraceEvent::Deliver { .. })), 48);
        assert_eq!(trace.count(|e| matches!(e, TraceEvent::Drop { .. })), 0);
        assert_eq!(trace.count(|e| matches!(e, TraceEvent::Timer { .. })), 0);
    }

    #[test]
    fn trace_records_drops_under_loss() {
        let shared = Arc::new(Mutex::new(Collect::default()));
        let mut sim = flood_sim(LossyLink::new(1, 1).with_drop_prob(1.0), 0);
        sim.set_trace(Arc::clone(&shared));
        sim.run_to_completion();
        let trace = shared.lock().unwrap();
        assert_eq!(
            trace.count(|e| matches!(e, TraceEvent::Send { retx: false, .. })),
            2
        );
        assert_eq!(trace.count(|e| matches!(e, TraceEvent::Drop { .. })), 2);
        assert_eq!(trace.count(|e| matches!(e, TraceEvent::Deliver { .. })), 0);
    }

    /// Regression pin for the multi-hop accounting contract (see the
    /// [`crate::trace`] and [`CostBook`] docs): on a 1×4
    /// line, a unicast 0 → 3 traverses 3 hops. The trace observes ONE
    /// `Send` (per logical message) and ONE `Deliver`; the cost book bills
    /// THREE packets (per link-level transmission: origin + two relays).
    #[test]
    fn multi_hop_contract_trace_per_message_book_per_hop() {
        let shared = Arc::new(Mutex::new(Collect::default()));
        let network = SimNetwork::new(Topology::grid(1, 4));
        let nodes = (0..4).map(|_| Uni { got: false }).collect();
        let mut sim = Simulator::new(network, SyncLink, 0, nodes);
        sim.set_trace(Arc::clone(&shared));
        sim.run_to_completion();
        assert!(sim.nodes()[3].got);
        let trace = shared.lock().unwrap();
        assert_eq!(
            trace.count(|e| matches!(e, TraceEvent::Send { retx: false, .. })),
            1,
            "trace counts logical messages"
        );
        assert_eq!(
            trace.count(|e| matches!(e, TraceEvent::Deliver { .. })),
            1,
            "relays do not re-trace delivery"
        );
        assert_eq!(
            sim.costs().kind("uni").packets,
            3,
            "cost book bills every link-level transmission"
        );
        // Per-node ledger: origin + both relays each paid one tx.
        for v in 0..3 {
            assert_eq!(sim.costs().node(v).tx_packets, 1, "tx of {v}");
        }
        assert_eq!(sim.costs().node(3).tx_packets, 0);
    }

    #[test]
    fn engine_metrics_record_unicast_hop_histogram() {
        let network = SimNetwork::new(Topology::grid(4, 4));
        let nodes = (0..16).map(|_| Uni { got: false }).collect();
        let mut sim = Simulator::new(network, SyncLink, 0, nodes);
        sim.run_to_completion();
        let h = sim.metrics().histogram("net.unicast_hops").unwrap();
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 6); // 0 -> 15 on a 4x4 grid
    }

    #[test]
    fn engine_metrics_count_drops_by_reason() {
        let mut sim = flood_sim(LossyLink::new(1, 1).with_drop_prob(1.0), 0);
        sim.run_to_completion();
        assert_eq!(sim.metrics().counter("net.drops.loss"), 2);
        assert_eq!(sim.metrics().counter("net.drops.node_down"), 0);
    }

    #[test]
    fn is_alive_reflects_link_model() {
        let network = SimNetwork::new(Topology::grid(1, 3));
        let nodes = (0..3).map(|_| Timers { fired_at: None }).collect();
        let link = LossyLink::new(1, 1).with_crash(2, 0, None);
        let sim = Simulator::new(network, link, 0, nodes);
        assert!(sim.is_alive(0));
        assert!(!sim.is_alive(2));
    }

    #[test]
    fn event_records_are_delivery_sized() {
        // A queued event costs what a delivery costs (a sender, the payload
        // and a query tag); ARQ copy metadata lives in the copy slab
        // instead. See DESIGN.md §11.4.
        fn check<M>() {
            let (event, payload) = (
                std::mem::size_of::<EventKind<M>>(),
                std::mem::size_of::<M>(),
            );
            assert!(
                event <= payload + 24,
                "EventKind over a {payload}-byte payload is {event} bytes, \
                 above the {payload} + 24 of a delivery (DESIGN.md §11.4)"
            );
        }
        check::<[u64; 7]>();
        check::<[u64; 12]>();
    }

    /// Regression for the crash-clearing rule: a timer armed before a crash
    /// window must NOT fire after the node reboots, even though the node is
    /// alive at the fire time (the volatile state that armed it is gone).
    #[test]
    fn timer_armed_before_crash_window_is_cleared_not_fired() {
        let network = SimNetwork::new(Topology::grid(1, 3));
        let nodes = (0..3).map(|_| Timers { fired_at: None }).collect();
        // Node 1 arms its timer at t=0 to fire at t=10, but reboots during
        // [5, 8) — alive again at the fire time.
        let link = LossyLink::new(1, 1).with_crash(1, 5, Some(8));
        let mut sim = Simulator::new(network, link, 0, nodes);
        sim.run_to_completion();
        assert_eq!(sim.nodes()[0].fired_at, Some(0));
        assert_eq!(
            sim.nodes()[1].fired_at,
            None,
            "timer must die with the reboot"
        );
        assert_eq!(sim.nodes()[2].fired_at, Some(20));
        assert_eq!(sim.metrics().counter("net.timers.cleared"), 1);
    }

    /// A link wrapper that counts [`LinkModel::hop`] calls.
    struct CountHops {
        inner: Box<dyn LinkModel>,
        calls: Rc<Cell<u64>>,
    }

    impl LinkModel for CountHops {
        fn max_hop_delay(&self) -> u64 {
            self.inner.max_hop_delay()
        }

        fn hop(
            &self,
            from: usize,
            to: usize,
            now: SimTime,
            rng: &mut rand::rngs::StdRng,
        ) -> HopOutcome {
            self.calls.set(self.calls.get() + 1);
            self.inner.hop(from, to, now, rng)
        }

        fn is_alive(&self, node: usize, time: SimTime) -> bool {
            self.inner.is_alive(node, time)
        }

        fn crashed_in_window(&self, node: usize, after: SimTime, upto: SimTime) -> bool {
            self.inner.crashed_in_window(node, after, upto)
        }

        fn is_deterministic(&self) -> bool {
            self.inner.is_deterministic()
        }

        fn flow_params(&self) -> Option<crate::link::FlowParams> {
            self.inner.flow_params()
        }
    }

    /// One fate per transmission: on every path — protocol sends,
    /// per-message and store-and-forward unicast legs, ARQ data copies and
    /// acks, over per-message and flow links — the link is asked exactly
    /// once for each transmission the cost book bills.
    #[test]
    fn every_billed_transmission_rolls_one_fate() {
        fn check<P: Protocol>(
            label: &str,
            link: impl Into<Box<dyn LinkModel>>,
            build: impl FnOnce(Box<dyn LinkModel>) -> Simulator<P>,
        ) {
            let calls = Rc::new(Cell::new(0));
            let inner = link.into();
            let mut sim = build(Box::new(CountHops {
                inner,
                calls: Rc::clone(&calls),
            }));
            sim.run_to_completion();
            let tx: u64 = sim.costs().nodes().iter().map(|n| n.tx_packets).sum();
            assert!(tx > 0, "{label}: nothing was transmitted");
            assert_eq!(
                calls.get(),
                tx,
                "{label}: hop calls vs billed transmissions"
            );
        }
        let flood = |link: Box<dyn LinkModel>| flood_sim(link, 0);
        let uni = |link: Box<dyn LinkModel>| {
            let nodes = (0..16).map(|_| Uni { got: false }).collect();
            Simulator::new(SimNetwork::new(Topology::grid(4, 4)), link, 3, nodes)
        };
        check("SyncLink flood", SyncLink, flood);
        check("per-message unicast", LossyLink::new(1, 3), uni);
        let lossy = LossyLink::new(1, 2).with_drop_prob(0.3);
        check("LossyLink + ARQ", lossy.clone(), |link| {
            arq_uni_sim(link, 1, 5)
        });
        check("FairShareLink unicast", FairShareLink::new(1), uni);
        check(
            "LossyLink with capacity + ARQ",
            lossy.with_capacity(1),
            |link| arq_uni_sim(link, 2, 5),
        );
    }

    // ---- flow-model (FairShareLink) integration ------------------------

    use crate::flow::FairShareLink;

    #[test]
    fn flow_unlimited_matches_sync_flood_timing() {
        // Single-flow degenerate case: with no contention every hop costs
        // exactly the one-tick service floor — identical receipt times and
        // wire bill to SyncLink.
        let mut sync = flood_sim(SyncLink, 0);
        let mut flow = flood_sim(FairShareLink::unlimited(), 0);
        sync.run_to_completion();
        flow.run_to_completion();
        let ts: Vec<_> = sync.nodes().iter().map(|n| n.seen).collect();
        let tf: Vec<_> = flow.nodes().iter().map(|n| n.seen).collect();
        assert_eq!(ts, tf, "uncontended flow timing must equal SyncLink");
        assert_eq!(sync.costs().total_cost(), flow.costs().total_cost());
        assert_eq!(flow.metrics().counter("net.queued_ms"), 0);
    }

    #[test]
    fn flow_contention_delays_flood() {
        // Capacity 1 scalar/tick and 1-scalar messages: a node receiving
        // its neighbors' floods over a shared inbound link... every link is
        // point-to-point directed here, so contention arises only when one
        // sender bursts several messages onto the same link. The flood
        // sends one message per link, so instead drive contention with a
        // burst protocol: node 0 sends k messages to node 1 back-to-back.
        struct Burst {
            k: u64,
            arrivals: Vec<SimTime>,
        }
        impl Protocol for Burst {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.id() == 0 {
                    for _ in 0..self.k {
                        ctx.send(1, (), "burst", 1);
                    }
                }
            }
            fn on_message(&mut self, _f: usize, _m: (), ctx: &mut Ctx<'_, ()>) {
                self.arrivals.push(ctx.now());
            }
        }
        let network = SimNetwork::new(Topology::grid(1, 2));
        let nodes = (0..2)
            .map(|_| Burst {
                k: 4,
                arrivals: vec![],
            })
            .collect();
        let mut sim = Simulator::new(network, FairShareLink::new(1), 0, nodes);
        sim.run_to_completion();
        // Four 1-scalar transfers sharing 1 scalar/tick: equal split means
        // all four progress together and drain at t=4 (processor sharing,
        // not FIFO) — the *last* completion is what capacity bounds.
        assert_eq!(sim.nodes()[1].arrivals, vec![4, 4, 4, 4]);
        // Each transfer alone would take 1 tick; three extra ticks of
        // queueing each.
        assert_eq!(sim.metrics().counter("net.queued_ms"), 12);
        let util = sim.link_utilization();
        assert_eq!(util.len(), 1);
        assert_eq!(util[0].0, (0, 1));
        assert_eq!(util[0].1.busy_ticks, 4);
        assert_eq!(util[0].1.served_milli, 4000);
        assert_eq!(util[0].1.peak_flows, 4);
    }

    #[test]
    fn flow_unicast_bills_like_per_message_path() {
        // Store-and-forward relaying under an uncontended flow link must
        // charge exactly what the per-message hop walk charges.
        let network = SimNetwork::new(Topology::grid(4, 4));
        let nodes = (0..16).map(|_| Uni { got: false }).collect();
        let mut sim = Simulator::new(network, FairShareLink::unlimited(), 0, nodes);
        sim.run_to_completion();
        assert!(sim.nodes()[15].got);
        assert_eq!(sim.costs().kind("uni").packets, 6);
        assert_eq!(sim.costs().kind("uni").cost, 24);
        assert_eq!(sim.now(), 6, "six store-and-forward legs of one tick");
    }

    #[test]
    fn flow_gauges_summarize_utilization() {
        let network = SimNetwork::new(Topology::grid(1, 2));
        let nodes = (0..2).map(|_| Burst2 { k: 3 }).collect();
        let mut sim = Simulator::new(network, FairShareLink::new(1), 0, nodes);
        sim.run_to_completion();
        sim.record_flow_gauges();
        let m = sim.metrics();
        assert_eq!(m.gauge("net.links.used"), Some(1));
        // Three flows at rate ⌊1000/3⌋ = 333 milli/tick drain at tick 4 —
        // the integer floor forfeits up to k−1 milli-scalars/tick.
        assert_eq!(m.gauge("net.link.busy_peak_ticks"), Some(4));
        assert_eq!(m.gauge("net.link.served_scalars"), Some(3));
        assert_eq!(m.gauge("net.link.peak_flows"), Some(3));
        assert_eq!(m.gauge("net.flows.peak"), Some(3));
        assert_eq!(m.gauge("net.flows.active"), Some(0));
    }

    struct Burst2 {
        k: u64,
    }

    impl Protocol for Burst2 {
        type Msg = ();
        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            if ctx.id() == 0 {
                for _ in 0..self.k {
                    ctx.send(1, (), "burst", 1);
                }
            }
        }
        fn on_message(&mut self, _f: usize, _m: (), _c: &mut Ctx<'_, ()>) {}
    }
}
