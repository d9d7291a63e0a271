//! The model checker's capture seam: dispatch one event at a time through
//! the engine's own dispatch path, with the event queue swapped for a
//! buffer handed back to the caller ([`Simulator::capture_boot`],
//! [`Simulator::capture_dispatch`]), plus the state a checker saves and
//! restores around it: flow-table snapshots, the dead-node override and
//! the determinism precondition.

use super::{EventKind, FlowJob, Protocol, SimTime, Simulator};
use crate::flow::FlowTable;
use crate::reliable::ArqEvent;
use crate::scheduler::EventHandle;

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
    pub(super) time: SimTime,
    pub(super) node: usize,
    pub(super) kind: EventKind<M>,
    /// The handle the capture seam minted for the event (`None` for
    /// [`McEvent::external`]); a later [`Captured::cancelled`] entry names
    /// it.
    pub(super) handle: Option<EventHandle>,
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
            EventKind::Deliver { .. }
                | EventKind::Arq(ArqEvent::Data { .. } | ArqEvent::Ack { .. })
        )
    }

    /// Whether this is a timer-class event (protocol timer or ARQ
    /// retransmission timeout) — fires at exactly [`McEvent::time`], never
    /// reordered against other timers and never dropped by the fault layer.
    pub fn is_timer(&self) -> bool {
        matches!(
            self.kind,
            EventKind::Timer { .. } | EventKind::Arq(ArqEvent::Retx { .. })
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
            EventKind::Arq(ArqEvent::Data { src, .. }) => Some(*src),
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
            EventKind::Broadcast { from, msg } => {
                format!("broadcast n{} t{rel} from{} {:?}", self.node, from, msg)
            }
            EventKind::Timer { id, .. } => format!("timer n{} t{rel} id{id}", self.node),
            EventKind::Arq(event) => event.describe(self.node, rel),
            EventKind::FlowDone { flow, gen } => {
                format!("flowdone n{} t{rel} f{flow} g{gen}", self.node)
            }
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

impl<P: Protocol> Simulator<P> {
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

    /// Like [`Simulator::inject`], but the delivery carries an explicit
    /// logical sender, free of charge. Counterexample replay uses this to
    /// re-deliver a duplicated message with its true origin — duplication is
    /// a fault of the checker's virtual network that no
    /// [`LinkModel`](crate::LinkModel) can produce on its own.
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

    /// Runs at most `k` dispatches (after booting all nodes, which counts
    /// its `n` `on_start` dispatches against `k`); returns how many ran.
    /// Counterexample replay uses this to halt the engine mid-schedule at
    /// the checker's violation point — `run_until` cannot split a tick, but
    /// a dispatch count can. Each dispatch of a queued run counts as one,
    /// so this may stop inside the boot run or a broadcast run; the next
    /// step, of any run loop, finishes that run before anything else pops.
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
    use crate::engine::tests::Flood;
    use crate::flow::FairShareLink;
    use crate::SimNetwork;
    use elink_topology::Topology;

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
