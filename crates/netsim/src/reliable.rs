//! Reliable delivery: the engine's ARQ sublayer — its configuration and
//! timing policy, its per-transfer state, and the handling of every ARQ
//! event.
//!
//! With [`Simulator::enable_arq`] every
//! `send`/`unicast` becomes a chain of *per-link* stop-and-wait transfers:
//! each hop is acknowledged by the receiving radio, retransmitted on a
//! deterministic timeout with exponential backoff plus seeded jitter, and
//! abandoned after a bounded number of retries. The ack that completes a
//! transfer cancels its armed timeout, so only real retransmissions fire:
//! a loss-free run dispatches no timeout at all and ends with its last
//! ack. Receivers deduplicate by
//! `(receiver, seq)`, where `seq` names the logical message along its whole
//! route, so a data copy whose ack was lost is re-acked but delivered to
//! the protocol (or relayed onward) exactly once; the dedup rows live until
//! the event queue runs dry (see `AcceptedSeqs`). Hop-by-hop (rather than
//! end-to-end) recovery is what makes long unicast routes survive per-hop
//! loss: a route of `h` hops at drop probability `p` succeeds with
//! probability `(1 - p^(r+1))^h` instead of `((1-p)^h)`-per-attempt.
//!
//! # State and stale events
//!
//! The engine hands every ARQ event to one entry point,
//! `Core::arq_dispatch`, together with whether the event's node is up; a
//! copy that reaches its destination comes back for the engine to
//! deliver. Transfers awaiting an ack and data copies in flight live in
//! two arenas of one generation-keyed slab type. An event names its
//! transfer or copy by key, and removing an entry bumps its slot's
//! generation, so an ack or timeout that outlives its transfer finds
//! nothing even after the slot is reused, and a copy event dispatched a
//! second time (a cloned capture event) panics instead of delivering the
//! slot's next copy. Copies wait in their slab rather than in their
//! events, so a queued ARQ event is no larger than a delivery.
//!
//! # Accounting
//!
//! Reliability overhead is first-class in the [`CostBook`](crate::CostBook):
//! the *first* attempt of each link transfer is billed under the message's
//! own kind (exactly like an unreliable run), every retransmission under
//! [`KIND_RETX`], and every acknowledgment under [`KIND_ACK`]. The metrics
//! registry counts `net.retx` (retransmissions), `net.ack.dup` (duplicate
//! data deliveries that were re-acked) and `net.timeout` (link transfers
//! abandoned after the retry budget).
//!
//! # Determinism
//!
//! Every timing decision is a pure function of the [`ArqConfig`] and the
//! engine's seeded RNG (backoff jitter is drawn from the same stream as
//! link delays), so same-seed runs remain byte-identical — the
//! `chaos_report --check` contract.

use crate::engine::{Core, EventKind, Protocol, QueryId, SimTime, Simulator};
use crate::scheduler::EventHandle;
use crate::trace::TraceEvent;
use rand::Rng;

/// Cost-book kind under which ARQ retransmissions are billed.
pub const KIND_RETX: &str = "net.retx";

/// Cost-book kind under which ARQ acknowledgments are billed.
pub const KIND_ACK: &str = "net.ack";

/// Retry/timeout policy of the ARQ sublayer.
///
/// The retransmission timeout of attempt `a` (0-based) over one link is
/// `(2 · max_hop_delay + rtt_slack) · 2^a` plus a jitter tick count drawn
/// uniformly from `[0, jitter_max]` out of the seeded simulation RNG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArqConfig {
    /// Slack ticks added to the round-trip estimate `2 · max_hop_delay`
    /// before backoff doubling (covers queueing at the receiver).
    pub rtt_slack: u64,
    /// Retransmissions allowed per link transfer (total transmissions =
    /// `max_retries + 1`); on exhaustion the transfer is dropped and
    /// `net.timeout` is incremented.
    pub max_retries: u32,
    /// Maximum jitter ticks added to each timeout (uniform in
    /// `[0, jitter_max]`, drawn from the seeded sim RNG; 0 disables the
    /// draw entirely so the RNG stream is untouched).
    pub jitter_max: u64,
}

impl Default for ArqConfig {
    fn default() -> Self {
        // 9 transmissions per link: at drop 0.25 a link transfer fails with
        // probability 0.25^9 ≈ 4e-6 — negligible for test-scale runs while
        // keeping the worst-case envelope finite.
        ArqConfig {
            rtt_slack: 4,
            max_retries: 8,
            jitter_max: 3,
        }
    }
}

impl ArqConfig {
    /// Retransmission timeout (without jitter) of 0-based `attempt` over a
    /// link whose worst one-way delay is `max_hop_delay`. Exponential
    /// backoff, shift-capped so the arithmetic never overflows.
    pub fn rto(&self, attempt: u32, max_hop_delay: u64) -> u64 {
        let base = 2 * max_hop_delay + self.rtt_slack;
        base.saturating_mul(1u64 << attempt.min(20))
    }

    /// Worst-case ticks from first transmission to delivery over one link:
    /// all allowed timeouts (with maximal jitter) elapse and the final
    /// transmission still makes it, taking the maximal hop delay.
    pub fn worst_case_link_delivery(&self, max_hop_delay: u64) -> u64 {
        let mut total = 0u64;
        for attempt in 0..self.max_retries {
            total = total.saturating_add(self.rto(attempt, max_hop_delay) + self.jitter_max);
        }
        total.saturating_add(max_hop_delay)
    }
}

/// Address of an entry in a [`Slab`]: its slot, and the slot's generation
/// when the entry went in.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Key {
    slot: u32,
    gen: u32,
}

/// A free-listed arena whose keys go stale. Removing an entry bumps its
/// slot's generation, so a key kept past its entry's removal finds
/// nothing, even once the slot holds another entry. Generations wrap: a
/// key would have to stay queued across 2³² removals from its slot to
/// name an entry again.
struct Slab<T> {
    slots: Vec<SlabSlot<T>>,
    /// Empty slots, reused last-freed first.
    free: Vec<u32>,
}

struct SlabSlot<T> {
    gen: u32,
    item: Option<T>,
}

impl<T> Slab<T> {
    fn new() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    fn insert(&mut self, item: T) -> Key {
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            s.item = Some(item);
            return Key { slot, gen: s.gen };
        }
        let slot = u32::try_from(self.slots.len()).expect("ARQ slab overflow"); // simlint: allow(no-panic-in-protocol): structural capacity invariant (u32 slots), not a fault path
        self.slots.push(SlabSlot {
            gen: 0,
            item: Some(item),
        });
        Key { slot, gen: 0 }
    }

    fn get(&self, key: Key) -> Option<&T> {
        let s = self.slots.get(key.slot as usize);
        s.filter(|s| s.gen == key.gen)?.item.as_ref()
    }

    fn get_mut(&mut self, key: Key) -> Option<&mut T> {
        let s = self.slots.get_mut(key.slot as usize);
        s.filter(|s| s.gen == key.gen)?.item.as_mut()
    }

    /// Takes the entry `key` names, freeing its slot under a new generation;
    /// `None` if the key is stale.
    fn remove(&mut self, key: Key) -> Option<T> {
        let s = self.slots.get_mut(key.slot as usize);
        let s = s.filter(|s| s.gen == key.gen)?;
        let item = s.item.take()?;
        s.gen = s.gen.wrapping_add(1);
        self.free.push(key.slot);
        Some(item)
    }

    /// Whether no slot holds an entry: every slot is on the free list.
    fn is_empty(&self) -> bool {
        self.free.len() == self.slots.len()
    }
}

/// An ARQ event: what the engine queues for the sublayer and hands back to
/// [`Core::arq_dispatch`].
#[derive(Clone, Copy)]
pub(crate) enum ArqEvent {
    /// A data copy arriving at the event's node over one link. The copy
    /// itself waits in the copy slab, so this event is no larger than a
    /// delivery.
    Data {
        /// Logical origin — what the protocol sees as `from`.
        src: usize,
        copy: Key,
    },
    /// A link-level acknowledgment arriving back at the transfer's holder.
    Ack { xfer: Key },
    /// A retransmission timeout at the transfer's holder, armed at
    /// `scheduled`.
    Retx { xfer: Key, scheduled: SimTime },
}

impl ArqEvent {
    /// The event's part of [`McEvent::describe`](crate::McEvent::describe).
    /// Slots and payloads stay in the slabs, so events name them by key;
    /// branching exploration refuses ARQ, so no fingerprint depends on
    /// this form.
    pub(crate) fn describe(&self, node: usize, rel: i128) -> String {
        match self {
            ArqEvent::Data { src, copy } => format!(
                "arqdata n{node} t{rel} src{src} copy{}.{}",
                copy.slot, copy.gen
            ),
            ArqEvent::Ack { xfer } => {
                format!("arqack n{node} t{rel} xfer{}.{}", xfer.slot, xfer.gen)
            }
            ArqEvent::Retx { xfer, .. } => {
                format!("arqretx n{node} t{rel} xfer{}.{}", xfer.slot, xfer.gen)
            }
        }
    }
}

/// One in-progress stop-and-wait link transfer: `holder` (the current link
/// sender) carries logical message `seq` on to `next`.
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
    /// The sender's transfer, echoed back in the ack so the sender can
    /// clear it without a lookup.
    xfer: Key,
}

/// Engine-side state of the ARQ sublayer (present when
/// [`Simulator::enable_arq`] was called).
pub(crate) struct ArqState<M> {
    pub(crate) config: ArqConfig,
    next_seq: u64,
    /// Active link transfers awaiting an ack.
    xfers: Slab<LinkXfer<M>>,
    /// Data copies in flight, one per transmission that survived its
    /// fate; each is taken exactly once, when its event is dispatched.
    copies: Slab<ArqCopy<M>>,
    /// Receiver-side dedup.
    seen: AcceptedSeqs,
}

/// Receiver-side ARQ dedup: every seq each receiver has accepted since the
/// event queue last ran dry.
///
/// Each receiver keeps one ascending vector. Seqs are issued in send
/// order, so a receiver mostly accepts them in ascending order: a new seq
/// is appended at the tail, and a late or duplicate copy is found by a
/// short scan back from the tail. While events are queued nothing is
/// pruned: a duplicate may arrive any time after the original, and dedup
/// must stay exact. The rows are dropped at the engine step that finds the
/// queue empty ([`ArqState::quiesce`]): no copy is in flight then, no
/// transfer can send again, and every later copy carries a fresh seq. Rows
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

    /// Drops every row, returning its memory.
    fn release(&mut self) {
        for seen in &mut self.per_node {
            *seen = Vec::new();
        }
    }
}

impl<M> ArqState<M> {
    fn new(config: ArqConfig, nodes: usize) -> Self {
        ArqState {
            config,
            next_seq: 0,
            xfers: Slab::new(),
            copies: Slab::new(),
            seen: AcceptedSeqs::new(nodes),
        }
    }

    /// Takes the copy `copy` names.
    ///
    /// # Panics
    /// Panics if the copy was already taken: each `Data` event is
    /// dispatched once, and a second dispatch must not deliver whatever
    /// copy reuses the slot.
    fn take_copy(&mut self, copy: Key) -> ArqCopy<M> {
        let Some(taken) = self.copies.remove(copy) else {
            panic!("ARQ copy {copy:?} dispatched twice"); // simlint: allow(no-panic-in-protocol): a copy event dispatches once; a second dispatch is a capture-seam caller bug (a cloned event), and delivering the slot's next copy instead would corrupt the run silently
        };
        taken
    }

    /// The engine's end-of-queue step: the queue ran dry, so no copy is in
    /// flight (each waits on its `Data` event, or on a flow whose
    /// completion is queued) and no transfer is live (each keeps its
    /// retransmission timeout queued until the ack, give-up or crash that
    /// removes it). Every copy from now on belongs to a transfer started
    /// later, so it carries a seq above every seq accepted so far, and
    /// dedup stays exact without the rows.
    pub(crate) fn quiesce(&mut self) {
        debug_assert!(
            self.copies.is_empty() && self.xfers.is_empty(),
            "ARQ state outlives the event queue"
        );
        self.seen.release();
    }
}

impl<M: Clone> ArqState<M> {
    /// Copies transfer `xfer`'s payload into the copy slab for one
    /// transmission; `None` if the transfer is gone.
    fn new_copy(&mut self, xfer: Key) -> Option<Key> {
        let x = self.xfers.get(xfer)?;
        let copy = ArqCopy {
            seq: x.seq,
            link_from: x.holder,
            dst: x.dst,
            msg: x.msg.clone(),
            kind: x.kind,
            scalars: x.scalars,
            query: x.query,
            xfer,
        };
        Some(self.copies.insert(copy))
    }
}

impl<M: Clone> Core<M> {
    /// Starts a reliable logical message: allocates its `(src, seq)`
    /// identity, traces the one-per-message `Send`, and launches the first
    /// link transfer towards `first_next`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn arq_send_message(
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

    /// Creates `holder`'s link transfer of message `seq` in the slab and
    /// fires its first attempt.
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
        let xfer = arq.xfers.insert(LinkXfer {
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
        self.arq_attempt(xfer);
    }

    /// One transmission attempt of an active link transfer: bills the radio
    /// (original kind on the first attempt, `net.retx` afterwards), rolls
    /// the link dice, and arms the next retransmission timeout with seeded
    /// backoff jitter, keeping its handle in the transfer for the ack to
    /// cancel.
    fn arq_attempt(&mut self, xfer: Key) {
        let Some(arq) = &self.arq else { return };
        let config = arq.config;
        let Some(x) = arq.xfers.get(xfer) else {
            return;
        };
        let (holder, next, src, kind, scalars, query, attempt) = (
            x.holder, x.next, x.src, x.kind, x.scalars, x.query, x.attempt,
        );
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
                let copy = self.arq.as_mut().and_then(|a| a.new_copy(xfer));
                let Some(copy) = copy else {
                    debug_assert!(false, "transfer vanished within its own attempt");
                    return;
                };
                let data = EventKind::Arq(ArqEvent::Data { src, copy });
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
            EventKind::Arq(ArqEvent::Retx {
                xfer,
                scheduled: now,
            }),
        );
        if let Some(x) = self.arq.as_mut().and_then(|a| a.xfers.get_mut(xfer)) {
            x.rto = Some(timeout);
        }
    }

    /// Transmits a link-level ack `from → to` for transfer `xfer`. Acks are
    /// billed under `net.ack` but are engine overhead, not logical
    /// messages: they are never traced and never query-attributed.
    fn arq_send_ack(&mut self, from: usize, to: usize, xfer: Key) {
        self.bill(from, KIND_ACK, 0, None);
        if let Some(arrive) = self.fate(from, to, self.now, None) {
            // On a flow link acks ride the shared link too (minimum
            // one-scalar demand), so reverse-path contention delays them.
            self.transmit(from, to, 0, arrive, EventKind::Arq(ArqEvent::Ack { xfer }));
        }
    }

    /// The sublayer's one dispatch entry: handles `event` at `node` at the
    /// current tick, `alive` saying whether the node is up. Returns the
    /// logical origin, payload and query of a data copy that reached its
    /// destination for the first time, for the engine to deliver.
    ///
    /// At a down node ARQ bookkeeping is silent: a data copy is a
    /// `net.drops.node_down` loss, an ack is lost, and a timeout clears
    /// its transfer, whose retransmission buffer died with the radio — as
    /// does the timeout of a holder that crashed since arming it.
    pub(crate) fn arq_dispatch(
        &mut self,
        node: usize,
        event: ArqEvent,
        alive: bool,
    ) -> Option<(usize, M, Option<QueryId>)> {
        let now = self.now;
        let Some(arq) = &mut self.arq else {
            debug_assert!(false, "ARQ event without ARQ enabled");
            return None;
        };
        match event {
            ArqEvent::Data { src, copy } => {
                let ArqCopy {
                    seq,
                    link_from,
                    dst,
                    msg,
                    kind,
                    scalars,
                    query,
                    xfer,
                } = arq.take_copy(copy);
                if !alive {
                    self.drop_node_down(now, link_from, node, query);
                    return None;
                }
                self.costs.record_rx(node);
                // Ack every copy — the sender may be retrying because a
                // previous ack was lost.
                self.arq_send_ack(node, link_from, xfer);
                let fresh = match &mut self.arq {
                    Some(arq) => arq.seen.insert(node, seq),
                    None => true,
                };
                if !fresh {
                    self.metrics.inc("net.ack.dup");
                    return None;
                }
                if node == dst {
                    return Some((src, msg, query));
                }
                // Relay: chain the next link transfer towards dst.
                let Some(next) = self.network.routing().next_hop(node, dst) else {
                    debug_assert!(false, "relay without a route to dst");
                    return None;
                };
                self.arq_begin_link(seq, node, next, src, dst, msg, kind, scalars, query);
            }
            ArqEvent::Ack { xfer } => {
                if !alive {
                    return None;
                }
                if let Some(timeout) = arq.xfers.remove(xfer).and_then(|x| x.rto) {
                    self.cancel(timeout);
                }
            }
            ArqEvent::Retx { xfer, scheduled } => {
                if !alive || self.link.crashed_in_window(node, scheduled, now) {
                    arq.xfers.remove(xfer);
                    return None;
                }
                let max_retries = arq.config.max_retries;
                match arq.xfers.get_mut(xfer) {
                    None => {}
                    Some(x) if x.attempt >= max_retries => {
                        arq.xfers.remove(xfer);
                        self.metrics.inc("net.timeout");
                    }
                    Some(x) => {
                        x.attempt += 1;
                        self.arq_attempt(xfer);
                    }
                }
            }
        }
        None
    }
}

impl<P: Protocol> Simulator<P> {
    /// Enables the ARQ sublayer: every subsequent `send`/`unicast` is
    /// delivered via per-link ack/retransmit/dedup instead of
    /// fire-and-forget. Registers the `net.retx`/`net.ack.dup`/`net.timeout`
    /// counters at zero so they appear in metrics dumps even on loss-free
    /// runs. Call before the run starts; protocols need no changes.
    pub fn enable_arq(&mut self, config: ArqConfig) {
        let nodes = self.nodes().len();
        let core = &mut self.core;
        core.metrics.declare_counter("net.retx");
        core.metrics.declare_counter("net.ack.dup");
        core.metrics.declare_counter("net.timeout");
        core.arq = Some(ArqState::new(config, nodes));
    }

    /// The ARQ configuration in force, if reliable delivery is enabled.
    pub fn arq_config(&self) -> Option<ArqConfig> {
        self.core.arq.as_ref().map(|a| a.config)
    }

    /// ARQ data copies in the copy slab whose events are still undispatched.
    #[cfg(test)]
    fn live_arq_copies(&self) -> usize {
        self.core.arq.as_ref().map_or(0, |a| {
            a.copies.slots.iter().filter(|s| s.item.is_some()).count()
        })
    }

    /// The receivers' dedup rows (empty without ARQ).
    #[cfg(test)]
    fn dedup_rows(&self) -> &[Vec<u32>] {
        self.core.arq.as_ref().map_or(&[], |a| &a.seen.per_node)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::flow::FairShareLink;
    use crate::link::{HopOutcome, LinkModel, LossyLink, ScriptedLink, SyncLink};
    use crate::trace::tests::Collect;
    use crate::{Ctx, SimNetwork};
    use elink_topology::Topology;
    use std::collections::BTreeSet;
    use std::sync::{Arc, Mutex};

    /// Unicast protocol that counts deliveries — ARQ dedup must keep this
    /// at exactly one even when lost acks force duplicate data copies.
    pub(crate) struct UniCount {
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

    pub(crate) fn arq_uni_sim(
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
        assert_eq!(sim.costs().kind("uni").packets, 3);
        assert_eq!(sim.costs().kind("uni").cost, 12);
        assert_eq!(sim.costs().kind(KIND_ACK).packets, 3);
        assert_eq!(sim.costs().kind(KIND_RETX).packets, 0);
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
            sim.costs().kind(KIND_RETX).packets,
            sim.metrics().counter("net.retx"),
            "every retransmission is billed under net.retx"
        );
        // First attempt of each of the 3 links is billed under the
        // message's own kind, exactly like an unreliable run.
        assert_eq!(sim.costs().kind("uni").packets, 3);
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
        assert_eq!(sim.costs().kind("uni").packets, 1, "first attempt only");
        assert_eq!(sim.costs().kind(KIND_RETX).packets, retries);
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

    /// Node 0 unicasts a burst of numbered messages to the far end at boot
    /// (messages `0..BURST`) and again whenever a number `k` is injected at
    /// it (messages `k..k + BURST`); every node records what reaches it.
    struct Bursts {
        got: Vec<u32>,
    }

    const BURST: u32 = 16;

    impl Protocol for Bursts {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if ctx.id() == 0 {
                self.on_message(0, 0, ctx);
            }
        }

        fn on_message(&mut self, from: usize, msg: u32, ctx: &mut Ctx<'_, u32>) {
            if from != ctx.id() {
                self.got.push(msg);
                return;
            }
            let far = ctx.n() - 1;
            for m in msg..msg + BURST {
                assert!(ctx.unicast(far, m, "burst", 1));
            }
        }
    }

    /// Bursts over 4 hops of 30%-loss links, so lost acks force duplicate
    /// copies at every relay.
    fn burst_sim() -> Simulator<Bursts> {
        let network = SimNetwork::new(Topology::grid(1, 5));
        let nodes = (0..5).map(|_| Bursts { got: Vec::new() }).collect();
        let link = LossyLink::new(1, 2).with_drop_prob(0.3);
        let mut sim = Simulator::new(network, link, 11, nodes);
        sim.enable_arq(ArqConfig::default());
        sim
    }

    /// The far end's deliveries, sorted: exactly once means `0..upto`.
    fn delivered(sim: &Simulator<Bursts>) -> Vec<u32> {
        let mut got = sim.nodes()[4].got.clone();
        got.sort_unstable();
        got
    }

    #[test]
    fn dedup_rows_end_with_the_traffic() {
        let mut sim = burst_sim();
        sim.run_to_completion();
        assert_eq!(delivered(&sim), (0..BURST).collect::<Vec<_>>());
        let dups = sim.metrics().counter("net.ack.dup");
        assert!(dups > 0, "lost acks force duplicate copies");
        assert_eq!(sim.metrics().counter("net.timeout"), 0);
        assert!(
            sim.dedup_rows().iter().all(|row| row.capacity() == 0),
            "the drained queue releases every dedup row"
        );
        // A second burst into the same simulator: its seqs are all new, and
        // its duplicates are still re-acked, never redelivered.
        sim.inject(sim.now() + 1, 0, BURST);
        sim.run_to_completion();
        assert_eq!(delivered(&sim), (0..2 * BURST).collect::<Vec<_>>());
        assert!(sim.metrics().counter("net.ack.dup") > dups);
        assert!(sim.dedup_rows().iter().all(|row| row.capacity() == 0));
        assert_eq!(sim.live_arq_copies(), 0);
    }

    #[test]
    fn dedup_rows_outlive_a_deadline_with_traffic_queued() {
        let mut sim = burst_sim();
        sim.run_until(3);
        assert!(
            sim.nodes()[4].got.is_empty(),
            "the burst is still in flight"
        );
        assert!(
            sim.dedup_rows().iter().any(|row| !row.is_empty()),
            "relays keep the seqs they accepted"
        );
        sim.run_to_completion();
        assert_eq!(delivered(&sim), (0..BURST).collect::<Vec<_>>());
        assert!(sim.dedup_rows().iter().all(|row| row.capacity() == 0));
        // A deadline past the last event drains the queue inside
        // `run_until`, which releases the rows too.
        sim.inject(sim.now() + 1, 0, BURST);
        sim.run_until(u64::MAX);
        assert_eq!(delivered(&sim), (0..2 * BURST).collect::<Vec<_>>());
        assert!(sim.dedup_rows().iter().all(|row| row.capacity() == 0));
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
        let shared = Arc::new(Mutex::new(Collect::default()));
        let mut sim = arq_uni_sim(LossyLink::new(1, 1).with_drop_prob(0.5), 1, 4);
        sim.set_trace(Arc::clone(&shared));
        sim.run_to_completion();
        assert_eq!(sim.nodes()[3].got, 1);
        let trace = shared.lock().unwrap();
        assert_eq!(
            trace.count(|e| matches!(e, TraceEvent::Send { retx: false, .. })),
            1,
            "one un-flagged Send per logical message"
        );
        assert_eq!(
            trace.count(|e| matches!(e, TraceEvent::Deliver { .. })),
            1,
            "relays and dups never re-trace Deliver"
        );
        assert_eq!(
            trace.count(|e| matches!(e, TraceEvent::Send { retx: true, .. })),
            sim.metrics().counter("net.retx"),
            "every retransmission traces a retx-flagged Send"
        );
        assert!(trace.count(|e| matches!(e, TraceEvent::Send { retx: true, .. })) > 0);
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
        let trace = Arc::new(Mutex::new(Collect::default()));
        sim.set_trace(Arc::clone(&trace));
        let end = sim.run_to_completion();
        assert_eq!(sim.costs().kind("flood").packets, 24);
        assert_eq!(sim.costs().kind(KIND_ACK).packets, 24);
        assert_eq!(sim.events_processed(), 9 + 1 + 24 + 24);
        assert_eq!(sim.metrics().counter("net.retx"), 0);
        // The run ends on the last ack: after the last delivery, within
        // one hop of it, and long before the 10-tick first RTO.
        let last_delivery = trace
            .lock()
            .unwrap()
            .0
            .iter()
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
                sim.costs().total_cost(),
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
        let shared = Arc::new(Mutex::new(Collect::default()));
        let link = LossyLink::new(1, 1).with_crash(1, 0, None);
        let mut sim = arq_uni_sim(link, 0, 4);
        sim.set_trace(Arc::clone(&shared));
        sim.run_to_completion();
        assert_eq!(sim.nodes()[3].got, 0);
        assert_eq!(sim.metrics().counter("net.timeout"), 1);
        // max_retries + 1 data copies die at the dead radio; node 1's own
        // Start is a cleared boot, not a lost message, but is traced too.
        let copies = u64::from(ArqConfig::default().max_retries) + 1;
        assert_eq!(sim.metrics().counter("net.drops.node_down"), copies);
        assert_eq!(sim.metrics().counter("net.timers.cleared"), 1);
        let trace = shared.lock().unwrap();
        assert_eq!(
            trace.count(|e| matches!(e, TraceEvent::Drop { .. })),
            copies + 1
        );
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

    #[test]
    fn rto_doubles_per_attempt() {
        let cfg = ArqConfig {
            rtt_slack: 4,
            max_retries: 3,
            jitter_max: 0,
        };
        assert_eq!(cfg.rto(0, 3), 10);
        assert_eq!(cfg.rto(1, 3), 20);
        assert_eq!(cfg.rto(2, 3), 40);
        // Shift cap: huge attempt numbers saturate instead of overflowing.
        assert!(cfg.rto(200, 3) >= cfg.rto(20, 3));
    }

    #[test]
    fn worst_case_covers_every_backoff_round() {
        let cfg = ArqConfig {
            rtt_slack: 4,
            max_retries: 3,
            jitter_max: 1,
        };
        // 10 + 20 + 40 timeouts, +1 jitter each, + final 3-tick flight.
        assert_eq!(cfg.worst_case_link_delivery(3), 10 + 20 + 40 + 3 + 3);
    }

    #[test]
    fn default_config_is_loss_resistant() {
        let cfg = ArqConfig::default();
        assert!(cfg.max_retries >= 6, "retry budget too small for drop 0.25");
        assert!(cfg.worst_case_link_delivery(1) < 10_000);
    }

    #[test]
    fn slab_keys_go_stale_when_their_slot_is_reused() {
        let mut slab = Slab::new();
        let a = slab.insert('a');
        assert_eq!(slab.remove(a), Some('a'));
        let b = slab.insert('b');
        assert_eq!(b.slot, a.slot, "the freed slot is reused");
        assert_eq!(slab.get(a), None);
        assert_eq!(slab.get_mut(a), None);
        assert_eq!(slab.remove(a), None, "a stale key removes nothing");
        assert_eq!(slab.get(b), Some(&'b'));
        assert_eq!(slab.remove(b), Some('b'));
        assert_eq!(slab.remove(b), None, "an entry is taken once");
    }

    /// Node 0 sends message 1 to node 1 at tick 0 and message 2 from a
    /// timer at tick 3, recording what node 1 receives.
    struct TwoMessages {
        got: Vec<u8>,
    }

    impl Protocol for TwoMessages {
        type Msg = u8;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
            if ctx.id() == 0 {
                ctx.send(1, 1, "m", 1);
                ctx.set_timer(3, 0);
            }
        }

        fn on_message(&mut self, _from: usize, msg: u8, _ctx: &mut Ctx<'_, u8>) {
            self.got.push(msg);
        }

        fn on_timer(&mut self, _timer: u64, ctx: &mut Ctx<'_, u8>) {
            ctx.send(1, 2, "m", 1);
        }
    }

    /// An ack that outlives its transfer must not touch the transfer that
    /// reuses its slot. With no slack and no jitter over one-tick hops the
    /// first timeout (tick 2) fires just before the first ack lands, so
    /// message 1 is sent twice and acked twice; its second ack (tick 4)
    /// arrives after message 2's transfer took the freed slot at tick 3.
    /// Message 2's first copy is lost, so only its retransmission at tick
    /// 5 can deliver it: a stale ack that cleared the new transfer, or
    /// cancelled its timeout, would lose message 2 for good.
    #[test]
    fn stale_ack_leaves_the_transfer_reusing_its_slot_alone() {
        let mut link = ScriptedLink::pristine(1);
        link.push_hop(0, 1, HopOutcome::Deliver { delay: 1 });
        link.push_hop(0, 1, HopOutcome::Deliver { delay: 1 });
        link.push_hop(0, 1, HopOutcome::Drop);
        let network = SimNetwork::new(Topology::grid(1, 2));
        let nodes = (0..2).map(|_| TwoMessages { got: Vec::new() }).collect();
        let mut sim = Simulator::new(network, link, 0, nodes);
        sim.enable_arq(ArqConfig {
            rtt_slack: 0,
            jitter_max: 0,
            ..ArqConfig::default()
        });
        let end = sim.run_to_completion();
        assert_eq!(sim.nodes()[1].got, vec![1, 2], "each message exactly once");
        assert_eq!(sim.metrics().counter("net.retx"), 2, "one per message");
        assert_eq!(sim.metrics().counter("net.ack.dup"), 1, "message 1's copy");
        assert_eq!(sim.metrics().counter("net.timeout"), 0);
        assert_eq!(sim.costs().kind(KIND_ACK).packets, 3);
        assert_eq!(end, 7, "message 2's retransmission is acked at tick 7");
        assert_eq!(sim.live_arq_copies(), 0);
    }
}
