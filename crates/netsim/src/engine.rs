//! The discrete-event engine: event queue, run loop, and the [`Ctx`] handle
//! protocols use to interact with the network.
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
//! With [`Simulator::enable_arq`] the engine additionally runs the
//! [`reliable`](crate::reliable) ARQ sublayer underneath every
//! `send`/`unicast`: each link transmission is acknowledged, retransmitted
//! on seeded exponential-backoff timeouts, deduplicated at the receiver by
//! `(receiver, seq)`, and abandoned after a bounded retry budget. Protocols
//! are oblivious — the same protocol code runs reliably or unreliably
//! depending only on the simulator configuration.

use crate::flow::{FlowFired, FlowResched, FlowTable, LinkUtil};
use crate::link::{HopOutcome, LinkModel};
use crate::metrics::Metrics;
use crate::reliable::{ArqConfig, KIND_ACK, KIND_RETX};
use crate::scheduler::{EventHandle, PoppedEvent, Scheduler};
use crate::stats::{CostBook, MessageStats};
use crate::trace::{DropReason, TraceEvent, TraceSink};
use elink_topology::{RoutingTable, Topology};
use rand::{Rng, SeedableRng};
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
/// (both members are `Arc`s). The routing table — 2 bytes per node pair,
/// one BFS per node to build — is constructed lazily on first use:
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
enum EventKind<M> {
    Start,
    Deliver {
        from: usize,
        msg: M,
        query: Option<QueryId>,
    },
    Timer {
        id: u64,
        /// When the timer was armed; a crash window opening after this and
        /// on or before the firing time clears the timer.
        scheduled: SimTime,
    },
    /// ARQ data copy arriving at `node` over one link (engine-internal).
    /// The copy itself waits in [`ArqState`]'s copy slab, so this variant
    /// is no larger than a delivery.
    ArqData {
        /// Logical origin — what the protocol sees as `from`.
        src: usize,
        copy: CopyRef,
    },
    /// ARQ link-level acknowledgment arriving back at a link sender.
    ArqAck {
        seq: u64,
        /// Slab slot of the transfer being acknowledged (validated against
        /// `(seq, holder)` — slots are recycled, stale acks are ignored).
        xfer: u32,
    },
    /// ARQ retransmission timeout at a link sender.
    ArqRetx {
        seq: u64,
        xfer: u32,
        scheduled: SimTime,
    },
    /// Tentative completion of flow slot `flow` at generation `gen` under a
    /// flow-model link (engine-internal). Fires at the completion tick
    /// predicted when it was scheduled; a generation mismatch at fire time
    /// means a later link transition invalidated the prediction and the
    /// event is ignored (the current prediction's event is still queued).
    FlowDone {
        flow: u32,
        gen: u32,
    },
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

/// A captured engine event: what the engine *would* have enqueued, handed
/// to an external driver (the `elink-mc` model checker) instead. Opaque —
/// the payload stays engine-internal so the checker cannot construct
/// deliveries the engine itself could not produce; the only way to mint one
/// from outside is [`McEvent::external`], which mirrors
/// [`Simulator::inject`].
///
/// `time` is the *earliest* tick the event can fire (the engine's own
/// scheduling time under the capture link); a checker may dispatch a
/// message event later, within its delivery window.
pub struct McEvent<M> {
    time: SimTime,
    node: usize,
    kind: EventKind<M>,
    /// The handle the capture seam minted for the event (`None` for
    /// [`McEvent::external`]); a later [`Captured::cancelled`] entry names
    /// it.
    handle: Option<EventHandle>,
}

impl<M: Clone> Clone for McEvent<M> {
    fn clone(&self) -> Self {
        McEvent {
            time: self.time,
            node: self.node,
            kind: self.kind.clone(),
            handle: self.handle,
        }
    }
}

impl<M> McEvent<M> {
    /// Earliest tick this event can fire.
    pub fn time(&self) -> SimTime {
        self.time
    }

    /// The handle a later [`Captured::cancelled`] names this event by
    /// (`None` for [`McEvent::external`], which nothing can cancel).
    pub fn handle(&self) -> Option<EventHandle> {
        self.handle
    }

    /// The node the event is addressed to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// Whether this is a message-class event (a logical delivery or an ARQ
    /// data/ack copy) — the class with a flexible delivery window that a
    /// checker may reorder, drop or duplicate.
    pub fn is_message(&self) -> bool {
        matches!(
            self.kind,
            EventKind::Deliver { .. } | EventKind::ArqData { .. } | EventKind::ArqAck { .. }
        )
    }

    /// Whether this is a timer-class event (protocol timer or ARQ
    /// retransmission timeout) — fires at exactly [`McEvent::time`], never
    /// reordered against other timers and never dropped by the fault layer.
    pub fn is_timer(&self) -> bool {
        matches!(
            self.kind,
            EventKind::Timer { .. } | EventKind::ArqRetx { .. }
        )
    }

    /// Whether this is a flow-class event (the tentative completion of an
    /// in-flight transfer under a flow-model link). Flow events fire at
    /// exactly [`McEvent::time`] — the completion tick the flow table
    /// predicted — and are never dropped, duplicated or reordered by the
    /// fault layer: the contention schedule is physics, not an adversary.
    pub fn is_flow(&self) -> bool {
        matches!(self.kind, EventKind::FlowDone { .. })
    }

    /// Logical origin of a message-class event (`None` for timers/boot).
    pub fn origin(&self) -> Option<usize> {
        match &self.kind {
            EventKind::Deliver { from, .. } => Some(*from),
            EventKind::ArqData { src, .. } => Some(*src),
            _ => None,
        }
    }

    /// The message payload, for deliveries (`None` for timers/boot/ARQ
    /// bookkeeping). Replay harnesses clone this to re-inject duplicates.
    pub fn message(&self) -> Option<&M> {
        match &self.kind {
            EventKind::Deliver { msg, .. } => Some(msg),
            _ => None,
        }
    }

    /// Builds an external-injection event: delivery of `msg` to `node` at
    /// `time` from a fictitious source (`from = node`), exactly what
    /// [`Simulator::inject`] enqueues. The one constructor available outside
    /// the engine.
    pub fn external(time: SimTime, node: usize, msg: M) -> Self {
        McEvent {
            time,
            node,
            kind: EventKind::Deliver {
                from: node,
                msg,
                query: None,
            },
            handle: None,
        }
    }
}

/// What one dispatch under the capture seam did to the future-event set:
/// the events its handler enqueued, and the handles of events captured by
/// *earlier* dispatches that it cancelled (an event enqueued and cancelled
/// within the same dispatch never leaves the engine). A checker removes
/// each cancelled event from its pending set, exactly as the engine's
/// queue would drop it.
pub struct Captured<M> {
    /// Events the handler enqueued, in push order.
    pub events: Vec<McEvent<M>>,
    /// Earlier-captured events the handler cancelled.
    pub cancelled: Vec<EventHandle>,
}

impl<M> Default for Captured<M> {
    fn default() -> Self {
        Captured {
            events: Vec::new(),
            cancelled: Vec::new(),
        }
    }
}

/// A timer armed by [`Ctx::set_timer`], for [`Ctx::cancel_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle(EventHandle);

impl<M: std::fmt::Debug> McEvent<M> {
    /// Canonical description of the event with times expressed relative to
    /// `origin_time`, for state fingerprinting: two pending sets that differ
    /// only by a uniform time shift describe identically. Excludes
    /// scheduling-order identifiers and the `Timer::scheduled` arm time
    /// (both invisible to future protocol behaviour under a crash-free
    /// capture link).
    pub fn describe(&self, origin_time: SimTime) -> String {
        let rel = self.time as i128 - origin_time as i128;
        match &self.kind {
            EventKind::Start => format!("start n{}", self.node),
            EventKind::Deliver { from, msg, query } => format!(
                "deliver n{} t{rel} from{} q{:?} {:?}",
                self.node, from, query, msg
            ),
            EventKind::Timer { id, .. } => format!("timer n{} t{rel} id{id}", self.node),
            // The copy's payload lives in the engine's slab, so a copy is
            // named by its slot. Branching exploration refuses ARQ, so no
            // fingerprint depends on this form.
            EventKind::ArqData { src, copy } => format!(
                "arqdata n{} t{rel} src{src} copy{}.{}",
                self.node, copy.slot, copy.gen
            ),
            EventKind::ArqAck { seq, .. } => format!("arqack n{} t{rel} seq{seq}", self.node),
            EventKind::ArqRetx { seq, .. } => format!("arqretx n{} t{rel} seq{seq}", self.node),
            EventKind::FlowDone { flow, gen } => {
                format!("flowdone n{} t{rel} f{flow} g{gen}", self.node)
            }
        }
    }
}

/// A snapshot of the engine's flow table (all in-flight transfers and
/// their continuations), taken with [`Simulator::flows_snapshot`] and
/// restored with [`Simulator::flows_restore`]. Opaque — the contention
/// state stays engine-internal; the model checker stores one per explored
/// state so branching exploration can save and restore the shared link
/// state alongside node state. For per-message links the snapshot is empty
/// and restoring it is a no-op.
pub struct FlowsSnapshot<M>(Option<FlowTable<FlowJob<M>>>);

impl<M: Clone> Clone for FlowsSnapshot<M> {
    fn clone(&self) -> Self {
        FlowsSnapshot(self.0.clone())
    }
}

impl<M> FlowsSnapshot<M> {
    /// Canonical description of the snapshotted contention state with times
    /// expressed relative to `origin_time`, for state fingerprinting —
    /// generation watermarks included, so two states whose queued
    /// tentative-completion events could validate differently never merge.
    /// Empty string for per-message links.
    pub fn describe(&self, origin_time: SimTime) -> String {
        self.0
            .as_ref()
            .map(|t| t.canonical(origin_time))
            .unwrap_or_default()
    }
}

/// One in-progress stop-and-wait link transfer of the ARQ sublayer,
/// identified by `(seq, holder)` — a logical message's `seq` is constant
/// along its route, so the holder (current link sender) disambiguates
/// chained transfers. Transfers live in a free-listed slab; the identity
/// pair is stored in the slot so events addressing a recycled slot are
/// recognized as stale.
struct LinkXfer<M> {
    seq: u64,
    holder: usize,
    src: usize,
    next: usize,
    dst: usize,
    msg: M,
    kind: &'static str,
    scalars: u64,
    query: Option<QueryId>,
    attempt: u32,
    /// The armed retransmission timeout, cancelled when the ack removes
    /// the transfer.
    rto: Option<EventHandle>,
}

/// One ARQ data copy on its way over one link: what its receiver needs to
/// ack, dedup, deliver or relay it. Copies wait in [`ArqState::copies`]
/// rather than in their events, so every queued event pays only for a
/// delivery, and growth (which never enables ARQ) pays nothing.
struct ArqCopy<M> {
    seq: u64,
    /// The radio that transmitted this copy (link-level sender).
    link_from: usize,
    /// Final destination of the logical message.
    dst: usize,
    msg: M,
    kind: &'static str,
    scalars: u64,
    query: Option<QueryId>,
    /// The sender's slab slot for this transfer, echoed back in the ack so
    /// the sender can clear it without a map lookup.
    xfer: u32,
}

/// Generation-tagged address of an [`ArqCopy`] in the copy slab, carried by
/// its `ArqData` event. Taking the copy bumps the slot's generation, so an
/// event dispatched a second time (a cloned capture event) is caught
/// instead of reading the slot's next occupant.
#[derive(Debug, Clone, Copy)]
struct CopyRef {
    slot: u32,
    gen: u32,
}

/// A slot of the copy slab.
struct CopySlot<M> {
    gen: u32,
    copy: Option<ArqCopy<M>>,
}

/// Engine-side state of the ARQ sublayer (present when
/// [`Simulator::enable_arq`] was called).
struct ArqState<M> {
    config: ArqConfig,
    next_seq: u64,
    /// Active link transfers awaiting an ack: a dense slab addressed by
    /// the `xfer` slot index carried in ARQ events.
    pending: Vec<Option<LinkXfer<M>>>,
    /// Recycled `pending` slots.
    free: Vec<u32>,
    /// Data copies in flight, one per transmission that survived its
    /// fate; each is taken exactly once, when its event is dispatched.
    copies: Vec<CopySlot<M>>,
    /// Recycled `copies` slots.
    free_copies: Vec<u32>,
    /// Receiver-side dedup.
    seen: AcceptedSeqs,
}

/// Receiver-side ARQ dedup: every seq each receiver has accepted.
///
/// Each receiver keeps one ascending vector. Seqs are issued in send
/// order, so a receiver mostly accepts them in ascending order: a new seq
/// is appended at the tail, and a late or duplicate copy is found by a
/// short scan back from the tail. Nothing is ever pruned: a duplicate may
/// arrive any time after the original, and dedup must stay exact. Rows
/// hold seqs as `u32`, half the bytes of the engine's `u64` counter, so a
/// receiver accepting a seq above `u32::MAX` (a run of more than 2³² ARQ
/// transfers) panics.
struct AcceptedSeqs {
    per_node: Vec<Vec<u32>>,
}

impl AcceptedSeqs {
    fn new(nodes: usize) -> Self {
        AcceptedSeqs {
            per_node: vec![Vec::new(); nodes],
        }
    }

    /// Records `seq` as accepted at `node`; `false` if it already was.
    // simlint: hot
    fn insert(&mut self, node: usize, seq: u64) -> bool {
        let seq = u32::try_from(seq).expect("ARQ seq beyond the dedup rows' u32 range"); // simlint: allow(no-panic-in-protocol): structural capacity invariant (u32 seqs in the dedup rows), not a fault path
        let seen = &mut self.per_node[node];
        let at = seen.iter().rposition(|&s| s <= seq).map_or(0, |i| i + 1);
        if at > 0 && seen[at - 1] == seq {
            return false;
        }
        seen.insert(at, seq);
        true
    }
}

impl<M> ArqState<M> {
    fn alloc(&mut self, x: LinkXfer<M>) -> u32 {
        match self.free.pop() {
            Some(h) => {
                self.pending[h as usize] = Some(x);
                h
            }
            None => {
                let h = u32::try_from(self.pending.len()).expect("ARQ slab overflow"); // simlint: allow(no-panic-in-protocol): structural capacity invariant (u32 ids), not a fault path
                self.pending.push(Some(x));
                h
            }
        }
    }

    /// Validated lookup: `None` if the slot is empty or was recycled for a
    /// different `(seq, holder)` transfer since the event was scheduled.
    fn get(&self, h: u32, seq: u64, holder: usize) -> Option<&LinkXfer<M>> {
        self.pending
            .get(h as usize)?
            .as_ref()
            .filter(|x| x.seq == seq && x.holder == holder)
    }

    fn get_mut(&mut self, h: u32, seq: u64, holder: usize) -> Option<&mut LinkXfer<M>> {
        self.pending
            .get_mut(h as usize)?
            .as_mut()
            .filter(|x| x.seq == seq && x.holder == holder)
    }

    /// Clears and returns the transfer if the slot still holds it (stale
    /// events are no-ops, matching the old map's `remove(&(seq, holder))`).
    fn remove(&mut self, h: u32, seq: u64, holder: usize) -> Option<LinkXfer<M>> {
        self.get(h, seq, holder)?;
        self.free.push(h);
        self.pending[h as usize].take()
    }

    /// Takes the copy `r` names, freeing its slot under a new generation.
    ///
    /// # Panics
    /// Panics if the copy was already taken: each `ArqData` event is
    /// dispatched once, and a second dispatch must not deliver whatever
    /// copy reuses the slot.
    fn take_copy(&mut self, r: CopyRef) -> ArqCopy<M> {
        let s = &mut self.copies[r.slot as usize];
        let copy = if s.gen == r.gen { s.copy.take() } else { None };
        let Some(copy) = copy else {
            panic!("ARQ copy {r:?} dispatched twice"); // simlint: allow(no-panic-in-protocol): a copy event dispatches once; a second dispatch is a capture-seam caller bug (a cloned event), and delivering the slot's next copy instead would corrupt the run silently
        };
        s.gen = s.gen.wrapping_add(1);
        self.free_copies.push(r.slot);
        copy
    }
}

impl<M: Clone> ArqState<M> {
    /// Copies transfer `xfer`'s payload into the copy slab for one
    /// transmission; `None` if the transfer is gone.
    fn new_copy(&mut self, xfer: u32, seq: u64, holder: usize) -> Option<CopyRef> {
        let x = self.get(xfer, seq, holder)?;
        let copy = ArqCopy {
            seq,
            link_from: holder,
            dst: x.dst,
            msg: x.msg.clone(),
            kind: x.kind,
            scalars: x.scalars,
            query: x.query,
            xfer,
        };
        Some(match self.free_copies.pop() {
            Some(slot) => {
                let s = &mut self.copies[slot as usize];
                s.copy = Some(copy);
                CopyRef { slot, gen: s.gen }
            }
            None => {
                let slot = u32::try_from(self.copies.len()).expect("ARQ copy slab overflow"); // simlint: allow(no-panic-in-protocol): structural capacity invariant (u32 ids), not a fault path
                self.copies.push(CopySlot {
                    gen: 0,
                    copy: Some(copy),
                });
                CopyRef { slot, gen: 0 }
            }
        })
    }
}

/// Engine internals shared between the run loop and [`Ctx`].
struct Core<M> {
    now: SimTime,
    queue: Scheduler<EventKind<M>>,
    costs: CostBook,
    metrics: Metrics,
    link: Box<dyn LinkModel>,
    trace: Option<Box<dyn TraceSink>>,
    rng: rand::rngs::StdRng,
    network: SimNetwork,
    events_processed: u64,
    arq: Option<ArqState<M>>,
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
    fn push(&mut self, time: SimTime, node: usize, kind: EventKind<M>) -> EventHandle {
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
    fn cancel(&mut self, handle: EventHandle) {
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

    fn trace(&mut self, event: TraceEvent) {
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
    fn bill(&mut self, from: usize, kind: &'static str, scalars: u64, query: Option<QueryId>) {
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
    fn fate(
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
    fn transmit(
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

    /// Counts and traces a message lost to a receiver or relay that is
    /// down when it arrives.
    fn drop_node_down(&mut self, at: SimTime, from: usize, to: usize, query: Option<QueryId>) {
        self.metrics.inc("net.drops.node_down");
        self.trace(TraceEvent::Drop {
            time: at,
            from,
            to,
            reason: DropReason::NodeDown,
            query,
        });
    }

    /// Takes the ARQ copy an `ArqData` event names (see
    /// [`ArqState::take_copy`]); `None` only without ARQ, where no such
    /// event exists.
    fn take_copy(&mut self, copy: CopyRef) -> Option<ArqCopy<M>> {
        let arq = self.arq.as_mut();
        debug_assert!(arq.is_some(), "ARQ data event without ARQ enabled");
        arq.map(|a| a.take_copy(copy))
    }

    /// Worst-case ticks for one hop of a `scalars`-sized copy: the link's
    /// static bound, or on a flow link the solo sojourn, stretched to the
    /// current contention horizon when `contended`.
    fn hop_envelope(&self, scalars: u64, contended: bool) -> u64 {
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

impl<M: Clone> Core<M> {
    /// Starts a reliable logical message: allocates its `(src, seq)`
    /// identity, traces the one-per-message `Send`, and launches the first
    /// link transfer towards `first_next`.
    #[allow(clippy::too_many_arguments)]
    fn arq_send_message(
        &mut self,
        src: usize,
        first_next: usize,
        dst: usize,
        msg: M,
        kind: &'static str,
        scalars: u64,
        query: Option<QueryId>,
    ) {
        let Some(arq) = &mut self.arq else {
            debug_assert!(false, "arq_send_message without ARQ enabled");
            return;
        };
        let seq = arq.next_seq;
        arq.next_seq += 1;
        let now = self.now;
        self.trace(TraceEvent::Send {
            time: now,
            from: src,
            to: dst,
            query,
            retx: false,
        });
        self.arq_begin_link(seq, src, first_next, src, dst, msg, kind, scalars, query);
    }

    /// Creates the `(seq, holder)` link transfer in the slab and fires its
    /// first attempt.
    #[allow(clippy::too_many_arguments)]
    fn arq_begin_link(
        &mut self,
        seq: u64,
        holder: usize,
        next: usize,
        src: usize,
        dst: usize,
        msg: M,
        kind: &'static str,
        scalars: u64,
        query: Option<QueryId>,
    ) {
        let Some(arq) = &mut self.arq else { return };
        let xfer = arq.alloc(LinkXfer {
            seq,
            holder,
            src,
            next,
            dst,
            msg,
            kind,
            scalars,
            query,
            attempt: 0,
            rto: None,
        });
        self.arq_attempt(xfer, seq, holder);
    }

    /// One transmission attempt of an active link transfer: bills the radio
    /// (original kind on the first attempt, `net.retx` afterwards), rolls
    /// the link dice, and arms the next retransmission timeout with seeded
    /// backoff jitter, keeping its handle in the transfer for the ack to
    /// cancel.
    fn arq_attempt(&mut self, xfer: u32, seq: u64, holder: usize) {
        let Some(arq) = &self.arq else { return };
        let config = arq.config;
        let Some(x) = arq.get(xfer, seq, holder) else {
            return;
        };
        let (next, src, kind, scalars, query, attempt) =
            (x.next, x.src, x.kind, x.scalars, x.query, x.attempt);
        let now = self.now;
        let billing_kind = if attempt == 0 { kind } else { KIND_RETX };
        if attempt > 0 {
            self.metrics.inc("net.retx");
            self.trace(TraceEvent::Send {
                time: now,
                from: holder,
                to: next,
                query,
                retx: true,
            });
        }
        self.bill(holder, billing_kind, scalars, query);
        // RTO base: the copy's delivery bound. A copy lost before it enters
        // a flow queue is sized from the contention envelope its retry
        // will face. Only a copy that survives its fate takes a slab slot.
        let delay_estimate = match self.fate(holder, next, now, None) {
            Some(arrive) => {
                let copy = self
                    .arq
                    .as_mut()
                    .and_then(|a| a.new_copy(xfer, seq, holder));
                let Some(copy) = copy else {
                    debug_assert!(false, "transfer vanished within its own attempt");
                    return;
                };
                let data = EventKind::ArqData { src, copy };
                self.transmit(holder, next, scalars, arrive, data)
            }
            None => self.hop_envelope(scalars, true),
        };
        let mut rto = config.rto(attempt, delay_estimate);
        if config.jitter_max > 0 {
            rto += self.rng.gen_range(0..=config.jitter_max);
        }
        let timeout = self.push(
            now + rto,
            holder,
            EventKind::ArqRetx {
                seq,
                xfer,
                scheduled: now,
            },
        );
        if let Some(x) = self.arq.as_mut().and_then(|a| a.get_mut(xfer, seq, holder)) {
            x.rto = Some(timeout);
        }
    }

    /// Transmits a link-level ack `from → to` for `seq` (clearing slab slot
    /// `xfer` on arrival). Acks are billed under `net.ack` but are engine
    /// overhead, not logical messages: they are never traced and never
    /// query-attributed.
    fn arq_send_ack(&mut self, from: usize, to: usize, seq: u64, xfer: u32) {
        self.bill(from, KIND_ACK, 0, None);
        if let Some(arrive) = self.fate(from, to, self.now, None) {
            // On a flow link acks ride the shared link too (minimum
            // one-scalar demand), so reverse-path contention delays them.
            self.transmit(from, to, 0, arrive, EventKind::ArqAck { seq, xfer });
        }
    }
}

/// The per-callback handle protocols use to interact with the network.
pub struct Ctx<'a, M> {
    core: &'a mut Core<M>,
    node: usize,
}

impl<'a, M: Clone> Ctx<'a, M> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.core.now
    }

    /// This node's id.
    pub fn id(&self) -> usize {
        self.node
    }

    /// Number of nodes in the network.
    pub fn n(&self) -> usize {
        self.core.network.topology().n()
    }

    /// Neighbors of this node in the communication graph, as a borrowed
    /// slice — no allocation on this hot path.
    pub fn neighbors(&self) -> &[u32] {
        self.core.network.topology().graph().neighbors(self.node)
    }

    /// The largest possible hop delay under the link model in force;
    /// protocols use this for conservative timeouts (ELink leaf detection,
    /// §5).
    pub fn max_hop_delay(&self) -> u64 {
        self.core.link.max_hop_delay()
    }

    /// Worst-case ticks for one *successful* neighbor delivery: equal to
    /// [`Ctx::max_hop_delay`] on unreliable runs, and to the full ARQ retry
    /// envelope (every backoff round elapses, the last attempt lands) when
    /// the simulator runs reliably. Protocols that wait for a neighbor's
    /// reply must scale their timeouts by this, not by the raw hop delay —
    /// under ARQ a message may legitimately arrive after several backoff
    /// rounds.
    ///
    /// Under a flow-model link ([`crate::FairShareLink`]) the hop bound is
    /// *contention-aware*: the largest predicted remaining sojourn across
    /// all transfers currently in flight (never below the uncontended
    /// single-scalar service time). Deadline math layered on this — serving
    /// `coverage` budgets, recovery timeouts — therefore stretches honestly
    /// as the network congests instead of timing out into a queue.
    pub fn max_delivery_delay(&self) -> u64 {
        self.core.delivery_envelope(true)
    }

    /// The *uncontended* counterpart of [`Ctx::max_delivery_delay`]: the
    /// worst-case ticks for one successful neighbor delivery on an **idle**
    /// network. Under a flow-model link this is the single-scalar solo
    /// sojourn (through the full ARQ retry envelope when reliable delivery
    /// is on); for per-message links it equals [`Ctx::max_delivery_delay`].
    ///
    /// The pair forms the substrate's load signal: the integer ratio
    /// `max_delivery_delay / nominal_delivery_delay` is 1 on an idle
    /// network and grows with the queue backlog, letting admission layers
    /// compare current congestion against the idle envelope without any
    /// floating point (see `elink_workload::qos::admit_load`).
    pub fn nominal_delivery_delay(&self) -> u64 {
        self.core.delivery_envelope(false)
    }

    /// Whether `node` is up right now under the link model (and not forced
    /// dead by the model checker's override).
    pub fn is_alive(&self, node: usize) -> bool {
        self.core.alive(node, self.core.now)
    }

    /// Sends a single-hop message to a direct neighbor. Charged as one
    /// transmission of `scalars` payload scalars under `kind` — also when
    /// the link drops it (the radio transmitted either way).
    ///
    /// # Panics
    /// Panics if `to` is not a neighbor (protocol bug).
    pub fn send(&mut self, to: usize, msg: M, kind: &'static str, scalars: u64) {
        self.send_internal(to, msg, kind, scalars, None);
    }

    /// Records a load-admission shed decision for `query` in the trace: a
    /// [`DropReason::Shed`] drop with `from == to`
    /// (no transmission was ever attempted). Costs nothing on the wire and
    /// charges no ledger — the point is that a refused query leaves a mark
    /// in the event log instead of vanishing.
    pub fn trace_shed(&mut self, query: QueryId) {
        let (now, node) = (self.core.now, self.node);
        self.core.trace(TraceEvent::Drop {
            time: now,
            from: node,
            to: node,
            reason: DropReason::Shed,
            query: Some(query),
        });
    }

    /// [`Ctx::send`] stamped with the query the message serves: the trace
    /// event carries `query`, and one hop × `scalars` is attributed to the
    /// query's [`CostBook`] ledger on top of the ordinary per-kind charge.
    /// Use this for all query-serving traffic — including sends made from
    /// timer callbacks, where the callback has no delivering message to
    /// inherit a tag from.
    ///
    /// # Panics
    /// Panics if `to` is not a neighbor (protocol bug).
    pub fn send_tagged(
        &mut self,
        to: usize,
        msg: M,
        kind: &'static str,
        scalars: u64,
        query: QueryId,
    ) {
        self.send_internal(to, msg, kind, scalars, Some(query));
    }

    fn send_internal(
        &mut self,
        to: usize,
        msg: M,
        kind: &'static str,
        scalars: u64,
        query: Option<QueryId>,
    ) {
        assert!(
            self.core.network.topology().graph().has_edge(self.node, to),
            "send: node {} is not a neighbor of {}",
            to,
            self.node
        );
        self.send_to_neighbor(to, msg, kind, scalars, query);
    }

    /// [`Ctx::send_internal`] without its adjacency check, for a `to` read
    /// from this node's own adjacency list.
    // simlint: hot
    fn send_to_neighbor(
        &mut self,
        to: usize,
        msg: M,
        kind: &'static str,
        scalars: u64,
        query: Option<QueryId>,
    ) {
        let from = self.node;
        if self.core.arq.is_some() {
            self.core
                .arq_send_message(from, to, to, msg, kind, scalars, query);
            return;
        }
        let now = self.core.now;
        self.core.trace(TraceEvent::Send {
            time: now,
            from,
            to,
            query,
            retx: false,
        });
        self.core.bill(from, kind, scalars, query);
        if let Some(arrive) = self.core.fate(from, to, now, Some((from, to, query))) {
            let deliver = EventKind::Deliver { from, msg, query };
            self.core.transmit(from, to, scalars, arrive, deliver);
        }
    }

    /// Sends a message to every neighbor (clones the payload). Walks the
    /// adjacency slice by index — the hottest loop in every flood-style
    /// phase allocates nothing, and skips [`Ctx::send`]'s neighbour check,
    /// since each recipient comes from that very list.
    pub fn broadcast_neighbors(&mut self, msg: &M, kind: &'static str, scalars: u64) {
        for i in 0..self.neighbors().len() {
            let to = self.neighbors()[i] as usize;
            self.send_to_neighbor(to, msg.clone(), kind, scalars, None);
        }
    }

    /// Sends a message to an arbitrary node over shortest-path multi-hop
    /// routing, walking the route hop by hop through the link model. Charged
    /// `scalars × hops-traversed`; if the link drops the message at hop `k`,
    /// or a crashed relay swallows it, only those `k` transmissions are
    /// charged and nothing is delivered. Sending to self delivers
    /// immediately at zero cost. Returns `false` (without transmitting) only
    /// if `dst` is unreachable in the topology — a dropped message still
    /// returns `true`, since the sender cannot know the fate of a packet in
    /// flight.
    pub fn unicast(&mut self, dst: usize, msg: M, kind: &'static str, scalars: u64) -> bool {
        self.unicast_internal(dst, msg, kind, scalars, None)
    }

    /// [`Ctx::unicast`] stamped with the query the message serves: the trace
    /// events carry `query`, and every hop actually traversed is attributed
    /// to the query's [`CostBook`] ledger on top of the ordinary per-kind
    /// charge (a message dropped at hop `k` attributes those `k` hops, same
    /// as the wire charge).
    pub fn unicast_tagged(
        &mut self,
        dst: usize,
        msg: M,
        kind: &'static str,
        scalars: u64,
        query: QueryId,
    ) -> bool {
        self.unicast_internal(dst, msg, kind, scalars, Some(query))
    }

    fn unicast_internal(
        &mut self,
        dst: usize,
        msg: M,
        kind: &'static str,
        scalars: u64,
        query: Option<QueryId>,
    ) -> bool {
        let src = self.node;
        let now = self.core.now;
        if dst == src {
            self.core.push(
                now,
                dst,
                EventKind::Deliver {
                    from: src,
                    msg,
                    query,
                },
            );
            return true;
        }
        let Some(route_hops) = self.core.network.routing().hops(src, dst) else {
            return false;
        };
        self.core
            .metrics
            .observe("net.unicast_hops", route_hops as u64);
        if self.core.arq.is_some() {
            let Some(first) = self.core.network.routing().next_hop(src, dst) else {
                // hops() returned Some above; an unroutable first hop would
                // be routing-table corruption, not an injected fault.
                debug_assert!(false, "routable destination without a next hop");
                return false;
            };
            self.core
                .arq_send_message(src, first, dst, msg, kind, scalars, query);
            return true;
        }
        self.core.trace(TraceEvent::Send {
            time: now,
            from: src,
            to: dst,
            query,
            retx: false,
        });
        let unicast = Unicast {
            src,
            dst,
            msg,
            kind,
            scalars,
            query,
        };
        self.core.forward(src, now, unicast);
        true
    }

    /// Hop distance to another node (`None` if unreachable).
    pub fn hops_to(&self, dst: usize) -> Option<u32> {
        self.core.network.routing().hops(self.node, dst)
    }

    /// Schedules `on_timer(id)` for this node after `delay` ticks and
    /// returns the handle [`Ctx::cancel_timer`] takes. The timer is lost if
    /// the node is down when it would fire, and also if the node crashed at
    /// any point between now and the firing time — a reboot clears pending
    /// timers along with the rest of volatile state.
    pub fn set_timer(&mut self, delay: SimTime, id: u64) -> TimerHandle {
        let now = self.core.now;
        let node = self.node;
        TimerHandle(
            self.core
                .push(now + delay, node, EventKind::Timer { id, scheduled: now }),
        )
    }

    /// Cancels a timer armed by [`Ctx::set_timer`]: it never fires, and it
    /// is neither traced nor counted in [`Simulator::events_processed`]. A
    /// timer that already fired, was cleared by a crash or was cancelled
    /// before is left as it is. Under the model checker's capture seam the
    /// cancel reaches the checker's pending set instead (see
    /// [`Captured::cancelled`]).
    pub fn cancel_timer(&mut self, timer: TimerHandle) {
        self.core.cancel(timer.0);
    }

    /// Records an out-of-band charge against the cost book — used by
    /// higher-level harnesses that account for costs computed analytically
    /// (e.g. result aggregation sizes).
    pub fn charge(&mut self, kind: &'static str, hops: u64, scalars: u64) {
        self.core.costs.record(kind, hops, scalars);
    }

    /// Attributes `hops × scalars` to query `qid`'s ledger without touching
    /// the wire aggregates (see [`CostBook::attribute_query`]). In-network
    /// batching uses this to co-bill riders of a shared packet: the packet
    /// is sent once via [`Ctx::send_tagged`] under its primary query, and
    /// each additional rider is attributed here.
    pub fn attribute_query(&mut self, qid: QueryId, hops: u64, scalars: u64) {
        self.core.costs.attribute_query(qid, hops, scalars);
    }

    /// The run's [`Metrics`] registry, for protocol-level counters and
    /// histograms beyond the phase helpers below.
    pub fn metrics(&mut self) -> &mut Metrics {
        &mut self.core.metrics
    }

    /// Records a phase-enter event for `name` at the current simulated time
    /// (see [`Metrics::phase_enter`]). Protocols mark phase boundaries with
    /// this so per-phase spans land in the run's registry.
    pub fn phase_enter(&mut self, name: &'static str) {
        let now = self.core.now;
        self.core.metrics.phase_enter(name, now);
    }

    /// Records a phase-exit (or activity) event for `name` at the current
    /// simulated time (see [`Metrics::phase_exit`]).
    pub fn phase_exit(&mut self, name: &'static str) {
        let now = self.core.now;
        self.core.metrics.phase_exit(name, now);
    }
}

/// The discrete-event simulator: a set of protocol instances plus the engine.
pub struct Simulator<P: Protocol> {
    nodes: Vec<P>,
    core: Core<P::Msg>,
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

    /// Enables the [`reliable`](crate::reliable) ARQ sublayer: every
    /// subsequent `send`/`unicast` is delivered via per-link
    /// ack/retransmit/dedup instead of fire-and-forget. Registers the
    /// `net.retx`/`net.ack.dup`/`net.timeout` counters at zero so they
    /// appear in metrics dumps even on loss-free runs. Call before the run
    /// starts; protocols need no changes.
    pub fn enable_arq(&mut self, config: ArqConfig) {
        self.core.metrics.declare_counter("net.retx");
        self.core.metrics.declare_counter("net.ack.dup");
        self.core.metrics.declare_counter("net.timeout");
        self.core.arq = Some(ArqState {
            config,
            next_seq: 0,
            pending: Vec::new(),
            free: Vec::new(),
            copies: Vec::new(),
            free_copies: Vec::new(),
            seen: AcceptedSeqs::new(self.nodes.len()),
        });
    }

    /// High-water mark of simultaneously live (queued, uncancelled) events
    /// over the run, which the scaling bench reports as `peak_live_events`.
    /// It is the event arena's footprint, except that a cancelled wheel
    /// event keeps its slot until the wheel reaches its tick.
    pub fn peak_live_events(&self) -> usize {
        self.core.queue.peak_live()
    }

    /// The ARQ configuration in force, if reliable delivery is enabled.
    pub fn arq_config(&self) -> Option<ArqConfig> {
        self.core.arq.as_ref().map(|a| a.config)
    }

    /// ARQ data copies in the copy slab whose events are still undispatched.
    #[cfg(test)]
    fn live_arq_copies(&self) -> usize {
        self.core
            .arq
            .as_ref()
            .map_or(0, |a| a.copies.iter().filter(|s| s.copy.is_some()).count())
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
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.ensure_started();
        loop {
            match self.core.queue.next_time() {
                Some(t) if t <= deadline => {
                    self.step();
                }
                _ => break,
            }
        }
        self.core.now = self.core.now.max(deadline);
        self.core.now
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for node in 0..self.nodes.len() {
            self.core.push(0, node, EventKind::Start);
        }
    }

    /// Processes one event; returns false when the queue is empty. Events
    /// addressed to a node that is down when they fire are dropped: its
    /// protocol state freezes until recovery. Timers (and ARQ sender state)
    /// armed before a crash window are cleared even if the node recovered
    /// before the firing time.
    fn step(&mut self) -> bool {
        let Some(PoppedEvent {
            time,
            node,
            payload: event_kind,
        }) = self.core.queue.pop()
        else {
            return false;
        };
        self.dispatch_event(time, node, event_kind);
        true
    }

    /// Dispatches one event exactly as [`Simulator::step`] would — the
    /// single delivery path shared by the run loop and the model checker's
    /// capture mode.
    fn dispatch_event(&mut self, time: SimTime, node: usize, event_kind: EventKind<P::Msg>) {
        self.core.now = time;
        self.core.events_processed += 1;
        assert!(
            self.core.events_processed <= MAX_EVENTS,
            "simulation exceeded {MAX_EVENTS} events — livelock?"
        );
        if let EventKind::FlowDone { flow, gen } = event_kind {
            // Link-level bookkeeping first (the flow must leave the table
            // either way); the continuation re-enters dispatch below, where
            // receiver liveness is checked with per-payload semantics.
            self.flow_fire(time, node, flow, gen);
            return;
        }
        if !self.core.alive(node, time) {
            let (from, query) = match &event_kind {
                // Engine-internal ARQ bookkeeping is silent: the sender-side
                // state is simply lost with the crashed radio.
                EventKind::ArqRetx { seq, xfer, .. } => {
                    if let Some(arq) = &mut self.core.arq {
                        arq.remove(*xfer, *seq, node);
                    }
                    return;
                }
                EventKind::ArqAck { .. } => return,
                EventKind::ArqData { copy, .. } => match self.core.take_copy(*copy) {
                    Some(c) => (c.link_from, c.query),
                    None => return,
                },
                EventKind::Deliver { from, query, .. } => (*from, *query),
                _ => (node, None),
            };
            self.core.drop_node_down(time, from, node, query);
            return;
        }
        match event_kind {
            EventKind::Start => {
                let mut ctx = Ctx {
                    core: &mut self.core,
                    node,
                };
                self.nodes[node].on_start(&mut ctx);
            }
            EventKind::Deliver { from, msg, query } => {
                self.core.costs.record_rx(node);
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
            EventKind::Timer { id, scheduled } => {
                if self.core.link.crashed_in_window(node, scheduled, time) {
                    // The node rebooted between arming and firing: the timer
                    // died with the volatile state that armed it.
                    self.core.metrics.inc("net.timers.cleared");
                    self.core.trace(TraceEvent::Drop {
                        time,
                        from: node,
                        to: node,
                        reason: DropReason::NodeDown,
                        query: None,
                    });
                    return;
                }
                self.core.trace(TraceEvent::Timer { time, node, id });
                let mut ctx = Ctx {
                    core: &mut self.core,
                    node,
                };
                self.nodes[node].on_timer(id, &mut ctx);
            }
            EventKind::ArqData { src, copy } => {
                let Some(ArqCopy {
                    seq,
                    link_from,
                    dst,
                    msg,
                    kind,
                    scalars,
                    query,
                    xfer,
                }) = self.core.take_copy(copy)
                else {
                    return;
                };
                self.core.costs.record_rx(node);
                // Ack every copy — the sender may be retrying because a
                // previous ack was lost.
                self.core.arq_send_ack(node, link_from, seq, xfer);
                let fresh = match &mut self.core.arq {
                    Some(arq) => arq.seen.insert(node, seq),
                    None => true,
                };
                if !fresh {
                    self.core.metrics.inc("net.ack.dup");
                } else if node == dst {
                    self.core.trace(TraceEvent::Deliver {
                        time,
                        from: src,
                        to: node,
                        query,
                    });
                    let mut ctx = Ctx {
                        core: &mut self.core,
                        node,
                    };
                    self.nodes[node].on_message(src, msg, &mut ctx);
                } else {
                    // Relay: chain the next link transfer towards dst.
                    let Some(next) = self.core.network.routing().next_hop(node, dst) else {
                        debug_assert!(false, "relay without a route to dst");
                        return;
                    };
                    self.core
                        .arq_begin_link(seq, node, next, src, dst, msg, kind, scalars, query);
                }
            }
            EventKind::ArqAck { seq, xfer } => {
                let acked = self
                    .core
                    .arq
                    .as_mut()
                    .and_then(|a| a.remove(xfer, seq, node));
                if let Some(timeout) = acked.and_then(|x| x.rto) {
                    self.core.cancel(timeout);
                }
            }
            EventKind::FlowDone { .. } => {
                // Handled before the liveness gate above.
                debug_assert!(false, "FlowDone reached the post-liveness dispatch");
            }
            EventKind::ArqRetx {
                seq,
                xfer,
                scheduled,
            } => {
                if self.core.link.crashed_in_window(node, scheduled, time) {
                    // Crashed mid-transfer: the retransmission buffer is gone.
                    if let Some(arq) = &mut self.core.arq {
                        arq.remove(xfer, seq, node);
                    }
                    return;
                }
                let (give_up, retry) = match &mut self.core.arq {
                    Some(arq) => {
                        let max_retries = arq.config.max_retries;
                        match arq.get_mut(xfer, seq, node) {
                            Some(x) if x.attempt >= max_retries => (true, false),
                            Some(x) => {
                                x.attempt += 1;
                                (false, true)
                            }
                            None => (false, false),
                        }
                    }
                    None => (false, false),
                };
                if give_up {
                    if let Some(arq) = &mut self.core.arq {
                        arq.remove(xfer, seq, node);
                    }
                    self.core.metrics.inc("net.timeout");
                } else if retry {
                    self.core.arq_attempt(xfer, seq, node);
                }
            }
        }
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

    /// Per-kind message statistics so far (aggregate view of the cost book).
    pub fn stats(&self) -> &MessageStats {
        self.core.costs.stats()
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

    /// Replaces the set of nodes forced dead for liveness queries,
    /// irrespective of the link model. The model checker's capture link is
    /// pristine (crash state lives in its explored path), so the checker
    /// installs the current state's crashed set here before every captured
    /// dispatch — keeping protocol-level failure detection identical
    /// between exploration and counterexample replay (where crashes are
    /// scripted into the link instead).
    pub fn set_dead_override(&mut self, dead: impl IntoIterator<Item = usize>) {
        self.core.dead_override = dead.into_iter().collect();
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
        assert!(time >= self.core.now, "cannot inject into the past");
        self.core.push(
            time,
            node,
            EventKind::Deliver {
                from: node,
                msg,
                query: None,
            },
        );
    }

    /// Like [`Simulator::inject`], but the delivery carries an explicit
    /// logical sender, free of charge. Counterexample replay uses this to
    /// re-deliver a duplicated message with its true origin — duplication is
    /// a fault of the checker's virtual network that no [`LinkModel`] can
    /// produce on its own.
    pub fn inject_from(&mut self, time: SimTime, from: usize, node: usize, msg: P::Msg) {
        assert!(time >= self.core.now, "cannot inject into the past");
        self.core.push(
            time,
            node,
            EventKind::Deliver {
                from,
                msg,
                query: None,
            },
        );
    }

    /// Boots every node in id order under capture: each `on_start` runs
    /// through the ordinary dispatch path, but everything the handlers
    /// enqueue is returned to the caller instead of entering the event
    /// queue. First half of the model checker's drive cycle; pair with
    /// [`Simulator::capture_dispatch`].
    ///
    /// # Panics
    /// Panics if the run already started — capture and the run loop cannot
    /// share a boot.
    pub fn capture_boot(&mut self) -> Vec<McEvent<P::Msg>> {
        assert!(
            !self.started && self.core.queue.is_empty(),
            "capture_boot on an already-started simulator"
        );
        self.started = true;
        self.core.capture = Some(Captured::default());
        for node in 0..self.nodes.len() {
            self.dispatch_event(0, node, EventKind::Start);
        }
        // Boot cancels only events of its own dispatch, never reported.
        self.core.capture.take().unwrap_or_default().events
    }

    /// Dispatches one captured event at tick `at` (the checker's chosen
    /// delivery time, ≥ the event's earliest time) and returns what the
    /// handler did to the future-event set: the events it enqueued and the
    /// earlier-captured events it cancelled. Billing, tracing and link
    /// decisions run exactly as in [`Simulator::run_to_completion`] — this
    /// *is* the engine's dispatch, with only the queue swapped for the
    /// returned buffer.
    ///
    /// The caller owns scheduling: it must not dispatch into the past
    /// (`at ≥` the previous dispatch time) and is responsible for honouring
    /// delivery windows and timer exactness. State between dispatches lives
    /// in [`Simulator::nodes_mut`] — plus, under a flow-model link, in the
    /// shared flow table, which a checker saves and restores per explored
    /// state via [`Simulator::flows_snapshot`] / [`Simulator::flows_restore`]
    /// (flow events fire exactly at their predicted tick; see
    /// [`McEvent::is_flow`]). Node state plus flow snapshot is the *whole*
    /// protocol state by the determinism discipline (no RNG draws under a
    /// deterministic link without ARQ jitter).
    pub fn capture_dispatch(&mut self, at: SimTime, ev: &McEvent<P::Msg>) -> Captured<P::Msg>
    where
        P::Msg: Clone,
    {
        debug_assert!(at >= ev.time, "dispatch before the event's earliest time");
        self.started = true;
        self.core.capture = Some(Captured::default());
        self.dispatch_event(at, ev.node, ev.kind.clone());
        self.core.capture.take().unwrap_or_default()
    }

    /// Whether the link model in force is deterministic (no RNG draws), the
    /// precondition for branching exploration over captured dispatches.
    pub fn link_deterministic(&self) -> bool {
        self.core.link.is_deterministic()
    }

    /// Clones the engine's flow-table state (empty for per-message links).
    /// The model checker stores one snapshot per explored state and restores
    /// it before each branched dispatch, making the shared contention state
    /// part of the explored state exactly like node state.
    pub fn flows_snapshot(&self) -> FlowsSnapshot<P::Msg>
    where
        P::Msg: Clone,
    {
        FlowsSnapshot(self.core.flows.clone())
    }

    /// Installs a previously captured flow-table snapshot (see
    /// [`Simulator::flows_snapshot`]). Restoring an empty snapshot onto a
    /// flow-model engine (or vice versa) is a caller bug — the snapshot must
    /// come from this simulator's own seam.
    pub fn flows_restore(&mut self, snap: &FlowsSnapshot<P::Msg>)
    where
        P::Msg: Clone,
    {
        debug_assert_eq!(
            self.core.flows.is_some(),
            snap.0.is_some(),
            "flow snapshot does not match the installed link model"
        );
        self.core.flows = snap.0.clone();
    }

    /// Whether the engine prices transmissions through a flow table (the
    /// installed link advertises [`FlowParams`](crate::link::FlowParams)).
    pub fn flow_model(&self) -> bool {
        self.core.flows.is_some()
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

    /// Runs at most `k` dispatches (after booting all nodes, which counts
    /// its `n` `on_start` dispatches against `k`); returns how many ran.
    /// Counterexample replay uses this to halt the engine mid-schedule at
    /// the checker's violation point — `run_until` cannot split a tick, but
    /// a dispatch count can.
    pub fn run_events(&mut self, k: u64) -> u64 {
        self.ensure_started();
        let mut done = 0;
        while done < k && self.step() {
            done += 1;
        }
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::{LossyLink, ScriptedLink, SyncLink};
    use crate::trace::{CountingTrace, RingBufferTrace};
    use elink_topology::Topology;
    use std::cell::Cell;
    use std::rc::Rc;
    use std::sync::{Arc, Mutex};

    /// Flooding protocol: node 0 floods a token; everyone records receipt
    /// time and forwards once.
    #[derive(Clone)]
    struct Flood {
        seen: Option<SimTime>,
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
        assert_eq!(sim.stats().total_packets(), 48);
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
        assert_eq!(a.stats().total_cost(), b.stats().total_cost());
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
        assert_eq!(sim.stats().kind("uni").packets, 6);
        assert_eq!(sim.stats().kind("uni").cost, 24);
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
        assert_eq!(sim.stats().total_cost(), 0);
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
        assert_eq!(sim.stats().total_cost(), 0);
    }

    #[test]
    #[should_panic(expected = "not a neighbor")]
    fn send_to_non_neighbor_panics() {
        struct Bad;
        impl Protocol for Bad {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.id() == 0 {
                    ctx.send(2, (), "bad", 1); // 0 and 2 are not adjacent in a path
                }
            }
            fn on_message(&mut self, _f: usize, _m: (), _c: &mut Ctx<'_, ()>) {}
        }
        let network = SimNetwork::new(Topology::grid(1, 3));
        let mut sim = Simulator::new(network, SyncLink, 0, vec![Bad, Bad, Bad]);
        sim.run_to_completion();
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
    fn neighbor_slice_is_borrowed_and_matches_graph() {
        struct Check;
        impl Protocol for Check {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                let slice: &[u32] = ctx.neighbors();
                assert!(!slice.is_empty());
                assert!(slice.iter().all(|&v| (v as usize) < ctx.n()));
            }
            fn on_message(&mut self, _f: usize, _m: (), _c: &mut Ctx<'_, ()>) {}
        }
        let network = SimNetwork::new(Topology::grid(3, 3));
        let nodes = (0..9).map(|_| Check).collect();
        Simulator::new(network, SyncLink, 0, nodes).run_to_completion();
    }

    #[test]
    fn dropped_sends_are_charged_but_never_delivered() {
        // Drop everything: the flood dies at node 0 but its broadcasts are
        // still paid for.
        let mut sim = flood_sim(LossyLink::new(1, 1).with_drop_prob(1.0), 0);
        sim.run_to_completion();
        assert_eq!(sim.stats().kind("flood").packets, 2); // node 0's two neighbors
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
        assert_eq!(sim.stats().kind("flood").packets, 1);
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
        assert_eq!(sim.stats().kind("uni").packets, 2);
        assert_eq!(sim.stats().kind("uni").cost, 8);

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
        assert_eq!(sim.stats().kind("uni").packets, 2);
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
        let shared = Arc::new(Mutex::new(CountingTrace::new()));
        let mut sim = flood_sim(SyncLink, 0);
        sim.set_trace(Arc::clone(&shared));
        sim.run_to_completion();
        let trace = *shared.lock().unwrap();
        assert_eq!(trace.sends, 48);
        assert_eq!(trace.delivers, 48);
        assert_eq!(trace.drops, 0);
        assert_eq!(trace.timers, 0);
    }

    #[test]
    fn trace_records_drops_under_loss() {
        let shared = Arc::new(Mutex::new(CountingTrace::new()));
        let mut sim = flood_sim(LossyLink::new(1, 1).with_drop_prob(1.0), 0);
        sim.set_trace(Arc::clone(&shared));
        sim.run_to_completion();
        let trace = *shared.lock().unwrap();
        assert_eq!(trace.sends, 2);
        assert_eq!(trace.drops, 2);
        assert_eq!(trace.delivers, 0);
    }

    /// Regression pin for the multi-hop accounting contract (see
    /// [`crate::trace::CountingTrace`] and [`CostBook`] docs): on a 1×4
    /// line, a unicast 0 → 3 traverses 3 hops. The trace observes ONE
    /// `Send` (per logical message) and ONE `Deliver`; the cost book bills
    /// THREE packets (per link-level transmission: origin + two relays).
    #[test]
    fn multi_hop_contract_trace_per_message_book_per_hop() {
        let shared = Arc::new(Mutex::new(CountingTrace::new()));
        let network = SimNetwork::new(Topology::grid(1, 4));
        let nodes = (0..4).map(|_| Uni { got: false }).collect();
        let mut sim = Simulator::new(network, SyncLink, 0, nodes);
        sim.set_trace(Arc::clone(&shared));
        sim.run_to_completion();
        assert!(sim.nodes()[3].got);
        let trace = *shared.lock().unwrap();
        assert_eq!(trace.sends, 1, "trace counts logical messages");
        assert_eq!(trace.delivers, 1, "relays do not re-trace delivery");
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
    fn ctx_phase_marks_land_in_simulator_metrics() {
        struct Phased;
        impl Protocol for Phased {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                ctx.phase_enter("work");
                ctx.set_timer(7, 1);
            }
            fn on_message(&mut self, _f: usize, _m: (), _c: &mut Ctx<'_, ()>) {}
            fn on_timer(&mut self, _t: u64, ctx: &mut Ctx<'_, ()>) {
                ctx.phase_exit("work");
                ctx.metrics().inc("work.done");
            }
        }
        let network = SimNetwork::new(Topology::grid(1, 2));
        let mut sim = Simulator::new(network, SyncLink, 0, vec![Phased, Phased]);
        let elapsed = sim.run_to_completion();
        let p = *sim.metrics().phase("work").unwrap();
        assert_eq!(p.entries, 2);
        assert_eq!((p.first_enter, p.last_exit), (0, 7));
        assert_eq!(p.last_exit, elapsed);
        assert_eq!(sim.metrics().counter("work.done"), 2);
        // take_metrics drains the registry.
        let mut sim2 = sim;
        let taken = sim2.take_metrics();
        assert_eq!(taken.counter("work.done"), 2);
        assert!(sim2.metrics().is_empty());
    }

    /// Tagged sends thread the query id end to end: trace events carry it,
    /// the per-query ledger bills it (per hop, like the wire charge), and
    /// rider co-billing via `attribute_query` stays off the wire aggregates.
    #[test]
    fn tagged_sends_attribute_queries_and_stamp_traces() {
        struct Tagged;
        impl Protocol for Tagged {
            type Msg = u8;
            fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
                if ctx.id() == 0 {
                    // 0 -> 3 on a 1x4 line: 3 hops under query 5.
                    assert!(ctx.unicast_tagged(3, 1, "q", 2, 5));
                    ctx.set_timer(1, 0);
                }
            }
            fn on_message(&mut self, _f: usize, _m: u8, _c: &mut Ctx<'_, u8>) {}
            fn on_timer(&mut self, _t: u64, ctx: &mut Ctx<'_, u8>) {
                // Timer callbacks have no delivering message to inherit a tag
                // from; tagged sends close that attribution gap.
                ctx.send_tagged(1, 2, "q", 2, 6);
                // Co-bill query 7 as a rider on the same packet.
                ctx.attribute_query(7, 1, 2);
            }
        }
        let shared = Arc::new(Mutex::new(RingBufferTrace::new(64)));
        let network = SimNetwork::new(Topology::grid(1, 4));
        let nodes = (0..4).map(|_| Tagged).collect();
        let mut sim = Simulator::new(network, SyncLink, 0, nodes);
        sim.set_trace(Arc::clone(&shared));
        sim.run_to_completion();
        let book = sim.costs();
        assert_eq!(book.query(5).packets, 3, "unicast attributes per hop");
        assert_eq!(book.query(5).cost, 6);
        assert_eq!(book.query(6).packets, 1, "timer-callback send attributed");
        assert_eq!(book.query(7).cost, 2, "rider co-billed");
        // Rider attribution never touches wire totals: 3 + 1 packets only.
        assert_eq!(book.kind("q").packets, 4);
        let trace = shared.lock().unwrap();
        let tagged_sends: Vec<Option<u64>> = trace
            .events()
            .filter_map(|e| match e {
                TraceEvent::Send { query, .. } => Some(*query),
                _ => None,
            })
            .collect();
        assert_eq!(tagged_sends, vec![Some(5), Some(6)]);
        let tagged_delivers: Vec<Option<u64>> = trace
            .events()
            .filter_map(|e| match e {
                TraceEvent::Deliver { query, .. } => Some(*query),
                _ => None,
            })
            .collect();
        // The timer send (1 hop, fired at t=1) lands before the 3-hop unicast.
        assert_eq!(tagged_delivers, vec![Some(6), Some(5)]);
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

    /// Unicast protocol that counts deliveries — ARQ dedup must keep this
    /// at exactly one even when lost acks force duplicate data copies.
    struct UniCount {
        got: u32,
    }

    impl Protocol for UniCount {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            if ctx.id() == 0 {
                let far = ctx.n() - 1;
                assert!(ctx.unicast(far, (), "uni", 4));
            }
        }

        fn on_message(&mut self, _from: usize, _msg: (), _ctx: &mut Ctx<'_, ()>) {
            self.got += 1;
        }
    }

    fn arq_uni_sim(
        link: impl Into<Box<dyn LinkModel>>,
        seed: u64,
        n: usize,
    ) -> Simulator<UniCount> {
        let network = SimNetwork::new(Topology::grid(1, n));
        let nodes = (0..n).map(|_| UniCount { got: 0 }).collect();
        let mut sim = Simulator::new(network, link, seed, nodes);
        sim.enable_arq(ArqConfig::default());
        sim
    }

    #[test]
    fn arq_on_loss_free_links_bills_like_unreliable_plus_acks() {
        // 0 -> 3 on a 1x4 line: 3 hops, no loss. The payload bill is
        // identical to the unreliable engine (3 packets x 4 scalars) and the
        // only overhead is one 0-scalar ack per link.
        let mut sim = arq_uni_sim(SyncLink, 0, 4);
        sim.run_to_completion();
        assert_eq!(sim.nodes()[3].got, 1);
        assert_eq!(sim.stats().kind("uni").packets, 3);
        assert_eq!(sim.stats().kind("uni").cost, 12);
        assert_eq!(sim.stats().kind(crate::reliable::KIND_ACK).packets, 3);
        assert_eq!(sim.stats().kind(crate::reliable::KIND_RETX).packets, 0);
        assert_eq!(sim.metrics().counter("net.retx"), 0);
        assert_eq!(sim.metrics().counter("net.timeout"), 0);
        // declare_counter: ARQ counters are present (at 0) even untouched.
        assert!(sim.metrics().counters().any(|(k, _)| k == "net.ack.dup"));
    }

    #[test]
    fn arq_delivers_through_heavy_loss_with_bounded_retries() {
        // Half of all transmissions (data AND acks) die, yet the transfer
        // chain completes: per-link stop-and-wait with 8 retries fails with
        // probability 0.5^9 per link.
        let mut sim = arq_uni_sim(LossyLink::new(1, 1).with_drop_prob(0.5), 1, 4);
        sim.run_to_completion();
        assert_eq!(sim.nodes()[3].got, 1, "dedup must deliver exactly once");
        assert!(sim.metrics().counter("net.retx") > 0, "loss forces retries");
        assert_eq!(sim.metrics().counter("net.timeout"), 0);
        assert_eq!(
            sim.stats().kind(crate::reliable::KIND_RETX).packets,
            sim.metrics().counter("net.retx"),
            "every retransmission is billed under net.retx"
        );
        // First attempt of each of the 3 links is billed under the
        // message's own kind, exactly like an unreliable run.
        assert_eq!(sim.stats().kind("uni").packets, 3);
        assert_eq!(sim.live_arq_copies(), 0, "every copy is taken once");
    }

    #[test]
    fn arq_gives_up_after_retry_budget_and_counts_timeout() {
        // Total blackout: the first link retries max_retries times, then
        // abandons the transfer. Nothing ever crosses.
        let mut sim = arq_uni_sim(LossyLink::new(1, 1).with_drop_prob(1.0), 0, 4);
        sim.run_to_completion();
        assert_eq!(sim.nodes()[3].got, 0);
        assert_eq!(sim.metrics().counter("net.timeout"), 1);
        let retries = u64::from(ArqConfig::default().max_retries);
        assert_eq!(sim.metrics().counter("net.retx"), retries);
        assert_eq!(sim.stats().kind("uni").packets, 1, "first attempt only");
        assert_eq!(
            sim.stats().kind(crate::reliable::KIND_RETX).packets,
            retries
        );
        assert_eq!(sim.live_arq_copies(), 0, "lost copies take no slot");
    }

    #[test]
    fn arq_dedup_reacks_duplicate_data_without_redelivery() {
        // Find lost-ack scenarios: scan seeds until a run produces at least
        // one duplicate data copy (sender retried because the ack died), and
        // assert the receiver re-acked it without a second delivery.
        let mut hit = false;
        for seed in 0..64 {
            let mut sim = arq_uni_sim(LossyLink::new(1, 1).with_drop_prob(0.4), seed, 3);
            sim.run_to_completion();
            for node in sim.nodes() {
                assert!(node.got <= 1, "seed {seed}: duplicate delivery");
            }
            assert_eq!(
                sim.live_arq_copies(),
                0,
                "seed {seed}: duplicates are taken too"
            );
            if sim.metrics().counter("net.ack.dup") > 0 {
                hit = true;
                break;
            }
        }
        assert!(hit, "no seed in 0..64 exercised the lost-ack path");
    }

    #[test]
    fn accepted_seqs_match_btreeset_oracle() {
        // LCG-driven stream over 4 receivers: mostly fresh seqs in issue
        // order, plus late copies (a seq issued a while ago, possibly never
        // seen here) and duplicates (a seq this receiver already accepted).
        // Once from seq 0, once ending at `u32::MAX`, the last seq the
        // rows can hold (4,000 steps advance the seq by at most 12,000).
        let top = u64::from(u32::MAX);
        for start in [0, top - 12_000] {
            let mut flat = AcceptedSeqs::new(4);
            let mut oracle: BTreeSet<(usize, u64)> = BTreeSet::new();
            let mut accepted: Vec<(usize, u64)> = Vec::new();
            let mut next_seq = start;
            let mut x: u64 = 0x243F6A8885A308D3;
            for _ in 0..4000 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = x >> 33;
                let node = (r % 4) as usize;
                let (node, seq) = match (r >> 2) % 8 {
                    0..=3 => {
                        next_seq += 1 + (r >> 5) % 3;
                        (node, next_seq)
                    }
                    4 | 5 => (node, next_seq.saturating_sub((r >> 5) % 40)),
                    _ if accepted.is_empty() => (node, next_seq),
                    _ => accepted[(r >> 5) as usize % accepted.len()],
                };
                let fresh = oracle.insert((node, seq));
                assert_eq!(flat.insert(node, seq), fresh, "({node}, {seq})");
                if fresh {
                    accepted.push((node, seq));
                }
            }
            for (node, seq) in [(0, top), (1, top), (0, top)] {
                assert_eq!(flat.insert(node, seq), oracle.insert((node, seq)));
            }
            for (node, seen) in flat.per_node.iter().enumerate() {
                let want: Vec<u64> = oracle
                    .range((node, 0)..(node + 1, 0))
                    .map(|&(_, s)| s)
                    .collect();
                let got: Vec<u64> = seen.iter().map(|&s| u64::from(s)).collect();
                assert_eq!(got, want, "receiver {node} from seq {start}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "u32 range")]
    fn accepted_seqs_refuse_a_seq_past_u32_max() {
        let mut seen = AcceptedSeqs::new(1);
        assert!(seen.insert(0, u64::from(u32::MAX)));
        seen.insert(0, u64::from(u32::MAX) + 1);
    }

    #[test]
    fn arq_trace_contract_one_send_one_deliver_retx_flagged() {
        let shared = Arc::new(Mutex::new(CountingTrace::new()));
        let mut sim = arq_uni_sim(LossyLink::new(1, 1).with_drop_prob(0.5), 1, 4);
        sim.set_trace(Arc::clone(&shared));
        sim.run_to_completion();
        assert_eq!(sim.nodes()[3].got, 1);
        let trace = *shared.lock().unwrap();
        assert_eq!(trace.sends, 1, "one un-flagged Send per logical message");
        assert_eq!(trace.delivers, 1, "relays and dups never re-trace Deliver");
        assert_eq!(
            trace.retx,
            sim.metrics().counter("net.retx"),
            "every retransmission traces a retx-flagged Send"
        );
        assert!(trace.retx > 0);
    }

    /// Flood started by node 0's timer: every node broadcasts once.
    struct TimedFlood {
        sent: bool,
    }

    impl Protocol for TimedFlood {
        type Msg = ();

        fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
            if ctx.id() == 0 {
                ctx.set_timer(2, 0);
            }
        }

        fn on_message(&mut self, _from: usize, _msg: (), ctx: &mut Ctx<'_, ()>) {
            self.on_timer(0, ctx);
        }

        fn on_timer(&mut self, _timer: u64, ctx: &mut Ctx<'_, ()>) {
            if !std::mem::replace(&mut self.sent, true) {
                ctx.broadcast_neighbors(&(), "flood", 1);
            }
        }
    }

    #[test]
    fn loss_free_arq_dispatches_no_retransmit_timer() {
        // Every data copy is acked in time, so each ack cancels its RTO:
        // the run dispatches the 9 starts, the one protocol timer, one data
        // copy per directed edge (24 on a 3x3 grid) and one ack per copy.
        let network = SimNetwork::new(Topology::grid(3, 3));
        let nodes = (0..9).map(|_| TimedFlood { sent: false }).collect();
        let link = LossyLink::new(1, 3).with_drop_prob(0.0);
        let mut sim = Simulator::new(network, link, 5, nodes);
        sim.enable_arq(ArqConfig::default());
        let trace = Arc::new(Mutex::new(RingBufferTrace::new(1024)));
        sim.set_trace(Arc::clone(&trace));
        let end = sim.run_to_completion();
        assert_eq!(sim.stats().kind("flood").packets, 24);
        assert_eq!(sim.stats().kind(crate::reliable::KIND_ACK).packets, 24);
        assert_eq!(sim.events_processed(), 9 + 1 + 24 + 24);
        assert_eq!(sim.metrics().counter("net.retx"), 0);
        // The run ends on the last ack: after the last delivery, within
        // one hop of it, and long before the 10-tick first RTO.
        let last_delivery = trace
            .lock()
            .unwrap()
            .events()
            .filter_map(|e| match e {
                TraceEvent::Deliver { time, .. } => Some(*time),
                _ => None,
            })
            .max()
            .unwrap();
        assert!(
            last_delivery < end && end <= last_delivery + 3,
            "run ended at {end}, last delivery at {last_delivery}"
        );
    }

    #[test]
    fn arq_same_seed_runs_are_identical() {
        let run = |seed: u64| {
            let mut sim = arq_uni_sim(LossyLink::new(1, 3).with_drop_prob(0.3), seed, 6);
            sim.run_to_completion();
            (
                sim.now(),
                sim.stats().total_cost(),
                sim.metrics().counter("net.retx"),
                sim.nodes().iter().map(|n| n.got).collect::<Vec<_>>(),
            )
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0, "different seeds retime the run");
    }

    #[test]
    fn arq_rides_out_a_partition_and_delivers_after_heal() {
        // {0,1} | {2,3} split until t=30: the 1->2 link transfer keeps
        // backing off and its later retransmission lands once the partition
        // heals. No protocol code is involved in the recovery.
        let side = vec![false, false, true, true];
        let link = LossyLink::new(1, 1).with_partition(side, 0, Some(30));
        let mut sim = arq_uni_sim(link, 0, 4);
        sim.run_to_completion();
        assert_eq!(sim.nodes()[3].got, 1, "delivery must resume after heal");
        assert!(sim.metrics().counter("net.retx") > 0);
        assert_eq!(sim.metrics().counter("net.timeout"), 0);
        assert_eq!(sim.live_arq_copies(), 0);
    }

    #[test]
    fn arq_data_into_crashed_node_traces_node_down_drop() {
        // Node 1 is down forever: every attempt of link 0->1 reaches a dead
        // radio. The sender exhausts its retries; each arriving copy is a
        // NodeDown drop, and nothing passes the dead relay.
        let shared = Arc::new(Mutex::new(CountingTrace::new()));
        let link = LossyLink::new(1, 1).with_crash(1, 0, None);
        let mut sim = arq_uni_sim(link, 0, 4);
        sim.set_trace(Arc::clone(&shared));
        sim.run_to_completion();
        assert_eq!(sim.nodes()[3].got, 0);
        assert_eq!(sim.metrics().counter("net.timeout"), 1);
        // max_retries + 1 data copies die at the dead radio, plus node 1's
        // own swallowed Start event.
        let expected = u64::from(ArqConfig::default().max_retries) + 2;
        assert_eq!(sim.metrics().counter("net.drops.node_down"), expected);
        let trace = *shared.lock().unwrap();
        assert_eq!(trace.drops, expected);
        assert_eq!(
            sim.live_arq_copies(),
            0,
            "a dead radio's copies are dropped"
        );
    }

    #[test]
    fn arq_crash_mid_transfer_leaves_no_live_copy() {
        // Node 1 relays at t=1, then is down over [2, 30): the ack for its
        // relay copy and its own retransmission timeout reach a dead radio,
        // so its transfer dies with it, while node 2 carries the message on.
        let link = LossyLink::new(1, 1).with_crash(1, 2, Some(30));
        let mut sim = arq_uni_sim(link, 0, 4);
        sim.run_to_completion();
        assert_eq!(sim.nodes()[3].got, 1);
        assert_eq!(sim.live_arq_copies(), 0);
    }

    #[test]
    #[should_panic(expected = "dispatched twice")]
    fn arq_copy_event_dispatched_twice_is_caught() {
        // A captured data copy cloned and dispatched again must not deliver
        // the relay copy that took over its slab slot.
        let mut sim = arq_uni_sim(SyncLink, 0, 3);
        let boot = sim.capture_boot();
        let data = boot
            .iter()
            .find(|ev| ev.is_message() && ev.origin() != Some(ev.node()))
            .expect("node 0's first data copy")
            .clone();
        let first = sim.capture_dispatch(data.time(), &data);
        assert!(first.events.iter().any(|ev| ev.is_message()), "relayed");
        let _ = sim.capture_dispatch(data.time(), &data);
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

    #[test]
    fn max_delivery_delay_expands_to_arq_envelope() {
        struct Probe {
            seen: Option<u64>,
        }
        impl Protocol for Probe {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                self.seen = Some(ctx.max_delivery_delay());
            }
            fn on_message(&mut self, _f: usize, _m: (), _c: &mut Ctx<'_, ()>) {}
        }
        let mk = |arq: bool| {
            let network = SimNetwork::new(Topology::grid(1, 2));
            let nodes = (0..2).map(|_| Probe { seen: None }).collect();
            let mut sim = Simulator::new(network, LossyLink::new(1, 3), 0, nodes);
            if arq {
                sim.enable_arq(ArqConfig::default());
            }
            sim.run_to_completion();
            sim.nodes()[0].seen.unwrap()
        };
        assert_eq!(mk(false), 3, "unreliable: plain max hop delay");
        assert_eq!(
            mk(true),
            ArqConfig::default().worst_case_link_delivery(3),
            "reliable: full backoff envelope"
        );
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
        assert_eq!(sync.stats().total_cost(), flow.stats().total_cost());
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
        assert_eq!(sim.stats().kind("uni").packets, 6);
        assert_eq!(sim.stats().kind("uni").cost, 24);
        assert_eq!(sim.now(), 6, "six store-and-forward legs of one tick");
    }

    #[test]
    fn flow_arq_delivers_and_sizes_rto_from_contention() {
        // ARQ data and acks ride flows; the transfer completes, is acked,
        // and no spurious retransmission fires on an idle link.
        let mut sim = arq_uni_sim(FairShareLink::new(4), 0, 4);
        sim.run_to_completion();
        assert_eq!(sim.nodes()[3].got, 1);
        assert_eq!(sim.metrics().counter("net.retx"), 0);
        assert_eq!(sim.metrics().counter("net.timeout"), 0);
        assert_eq!(sim.live_arq_copies(), 0, "flow completions take copies");
    }

    #[test]
    fn flow_backlog_stretches_max_delivery_delay() {
        // Node 0 bursts 8 one-scalar messages onto a capacity-1 link, then
        // reads the delivery horizon: it must cover the queued backlog, and
        // it must shrink back to the uncontended floor once drained.
        struct Gauge {
            before: Option<u64>,
            during: Option<u64>,
            after: Option<u64>,
        }
        impl Protocol for Gauge {
            type Msg = ();
            fn on_start(&mut self, ctx: &mut Ctx<'_, ()>) {
                if ctx.id() == 0 {
                    self.before = Some(ctx.max_delivery_delay());
                    for _ in 0..8 {
                        ctx.send(1, (), "burst", 1);
                    }
                    self.during = Some(ctx.max_delivery_delay());
                    ctx.set_timer(100, 1);
                }
            }
            fn on_message(&mut self, _f: usize, _m: (), _c: &mut Ctx<'_, ()>) {}
            fn on_timer(&mut self, _t: u64, ctx: &mut Ctx<'_, ()>) {
                self.after = Some(ctx.max_delivery_delay());
            }
        }
        let network = SimNetwork::new(Topology::grid(1, 2));
        let nodes = (0..2)
            .map(|_| Gauge {
                before: None,
                during: None,
                after: None,
            })
            .collect();
        let mut sim = Simulator::new(network, FairShareLink::new(1), 0, nodes);
        sim.run_to_completion();
        let g = &sim.nodes()[0];
        assert_eq!(g.before, Some(1), "idle: uncontended single-scalar floor");
        assert_eq!(g.during, Some(8), "backlog: 8 shared scalars at 1/tick");
        assert_eq!(g.after, Some(1), "drained: back to the floor");
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

    #[test]
    fn capture_seam_supports_flow_links() {
        let network = SimNetwork::new(Topology::grid(2, 2));
        let nodes = (0..4).map(|_| Flood { seen: None }).collect();
        let mut sim: Simulator<Flood> = Simulator::new(network, FairShareLink::new(4), 0, nodes);
        let boot = sim.capture_boot();
        assert!(!boot.is_empty(), "node 0's flood must be captured");
        assert!(
            boot.iter().all(|ev| ev.is_flow()),
            "under a flow link every captured send is a tentative completion"
        );
        // Snapshot → dispatch → restore → dispatch: the harvest and the
        // contention fingerprint must replay byte-identically, which is
        // exactly the branching the model checker performs.
        let nodes_snap = sim.nodes().to_vec();
        let flows_snap = sim.flows_snapshot();
        let fp = flows_snap.describe(0);
        let first = &boot[0];
        let h1: Vec<String> = sim
            .capture_dispatch(first.time(), first)
            .events
            .iter()
            .map(|e| e.describe(0))
            .collect();
        sim.nodes_mut().clone_from_slice(&nodes_snap);
        sim.flows_restore(&flows_snap);
        assert_eq!(sim.flows_snapshot().describe(0), fp, "restore round-trips");
        let h2: Vec<String> = sim
            .capture_dispatch(first.time(), first)
            .events
            .iter()
            .map(|e| e.describe(0))
            .collect();
        assert_eq!(h1, h2, "restored flow state replays identically");
    }
}
