//! [`Ctx`], the handle a protocol callback acts through: sends, unicasts,
//! timers, the delivery envelopes and the run's metrics.

use super::{Core, EventKind, QueryId, SimTime, Unicast};
use crate::metrics::Metrics;
use crate::scheduler::EventHandle;
use crate::trace::{DropReason, TraceEvent};

/// A timer armed by [`Ctx::set_timer`], for [`Ctx::cancel_timer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerHandle(EventHandle);

/// The per-callback handle protocols use to interact with the network.
pub struct Ctx<'a, M> {
    pub(super) core: &'a mut Core<M>,
    pub(super) node: usize,
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
    /// query's [`CostBook`](crate::CostBook) ledger on top of the ordinary
    /// per-kind charge. Use this for all query-serving traffic — including
    /// sends made from timer callbacks, where the callback has no
    /// delivering message to inherit a tag from.
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

    /// Sends a message to every neighbour, in adjacency order: one radio
    /// transmission per neighbour, each traced, billed and fated like a
    /// [`Ctx::send`] (without its neighbour check, since each recipient
    /// comes from the adjacency itself), and each delivered, traced and
    /// counted on its own. On a per-message link without ARQ, copies that
    /// all land at one tick take one queue entry instead of one each (see
    /// [`Scheduler::push_run`](crate::Scheduler::push_run)); nothing
    /// observable depends on it.
    pub fn broadcast_neighbors(&mut self, msg: &M, kind: &'static str, scalars: u64) {
        if self.core.queues_runs() {
            self.core.broadcast(self.node, msg, kind, scalars);
            return;
        }
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
    /// to the query's [`CostBook`](crate::CostBook) ledger on top of the
    /// ordinary per-kind charge (a message dropped at hop `k` attributes
    /// those `k` hops, same as the wire charge).
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
    /// is neither traced nor counted in
    /// [`Simulator::events_processed`](crate::Simulator::events_processed).
    /// A timer that already fired, was cleared by a crash or was cancelled
    /// before is left as it is. Under the model checker's capture seam the
    /// cancel reaches the checker's pending set instead (see
    /// [`Captured::cancelled`](crate::Captured::cancelled)).
    pub fn cancel_timer(&mut self, timer: TimerHandle) {
        self.core.cancel(timer.0);
    }

    /// Attributes `hops × scalars` to query `qid`'s ledger without touching
    /// the wire aggregates (see
    /// [`CostBook::attribute_query`](crate::CostBook::attribute_query)).
    /// In-network batching uses this to co-bill riders of a shared packet:
    /// the packet is sent once via [`Ctx::send_tagged`] under its primary
    /// query, and each additional rider is attributed here.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::FairShareLink;
    use crate::link::SyncLink;
    use crate::trace::tests::Collect;
    use crate::{Protocol, SimNetwork, Simulator};
    use elink_topology::Topology;
    use std::sync::{Arc, Mutex};

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
        let shared = Arc::new(Mutex::new(Collect::default()));
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
            .0
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Send { query, .. } => Some(*query),
                _ => None,
            })
            .collect();
        assert_eq!(tagged_sends, vec![Some(5), Some(6)]);
        let tagged_delivers: Vec<Option<u64>> = trace
            .0
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Deliver { query, .. } => Some(*query),
                _ => None,
            })
            .collect();
        // The timer send (1 hop, fired at t=1) lands before the 3-hop unicast.
        assert_eq!(tagged_delivers, vec![Some(6), Some(5)]);
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
}
