//! Flow-level contention-aware link model: [`FairShareLink`] and the
//! engine-side [`FlowTable`] that prices transmissions under capacity
//! sharing.
//!
//! Every other [`LinkModel`](crate::LinkModel) prices each message
//! independently: a hop costs a delay drawn once at send time, no matter
//! how much other traffic crosses the same link. That flatters exactly the
//! regime the serving benchmarks care about — heavy load never queues.
//! `FairShareLink` is the physically honest third model: each *directed
//! link* has an integer capacity (payload scalars per tick) that is shared
//! **max-min fairly** across all transfers in flight on that link. With
//! equal-weight transfers on a single resource, the max-min allocation is
//! the equal split `capacity / k`, so a transfer's service rate drops as
//! the link gets busier and recovers as competitors finish.
//!
//! # Mechanics (all integer, deterministic)
//!
//! Work is tracked in **milli-scalars**: a message of `s` payload scalars
//! carries `max(1, s) × 1000` milli-scalars of service demand, and a link
//! of capacity `c` serves `c × 1000` milli-scalars per tick, split evenly
//! (integer floor, minimum 1) among its in-flight transfers. On every
//! *transition* of a link — a flow starting or finishing — the table
//!
//! 1. **settles** elapsed progress (`rate × elapsed`, exact integer
//!    arithmetic) against each flow's remaining demand,
//! 2. **recomputes** each unfinished flow's predicted completion
//!    `now + ⌈remaining / rate⌉`, and
//! 3. **reschedules** a *tentative completion event* for every flow whose
//!    prediction moved, bumping the flow's generation counter so the
//!    previously queued event is recognized as stale and ignored when it
//!    fires.
//!
//! Between transitions rates are constant, so predictions made at a
//! transition are exact: a completion event that fires with a current
//! generation finds its flow's remaining demand at exactly zero. No floats
//! ever enter an event key, and the scheduler's `(time, seq)` order is the
//! only tiebreak — the model is byte-identical across reruns.
//!
//! A flow whose prediction *did not* move keeps its original queued event —
//! and therefore its original queue position. This is what makes the
//! degenerate cases collapse exactly onto the per-message models (see
//! [`FairShareLink::unlimited`] and the differential proptests): with
//! infinite capacity every prediction is `now + 1` forever, nothing is
//! ever invalidated, and the event stream is byte-identical to
//! [`SyncLink`](crate::SyncLink)'s.
//!
//! # Data layout
//!
//! A transition touches one link, so everything it needs is reached by
//! index rather than by search, and a warmed-up table allocates nothing:
//!
//! - **Dense link index.** A directed link gets a dense index into a `Vec`
//!   of per-link states the first time it carries a flow, and each flow
//!   stores its link's index. A per-source directory — one row of
//!   `(to, index)` pairs per node, sized at construction — maps
//!   `from → to` to that index. Rows stay sorted by `to`, so walking them
//!   in source order lists links in ascending `(from, to)` order for
//!   [`FlowTable::link_stats`] and [`FlowTable::canonical`] without a
//!   sort: index assignment follows first use and shows in no output.
//! - **Engine-owned reschedule buffer.** [`FlowTable::start`] and
//!   [`FlowTable::fire`] append their
//!   [`FlowResched`](crate::flow::FlowResched) events to a buffer
//!   the engine owns and drains straight into its event queue, so a
//!   transition never returns a fresh `Vec`.
//! - **Order-preserving removal.** A finished flow leaves its link's
//!   start-ordered member list by `remove(pos)`, so recompute — and with
//!   it the order of reschedules — always walks flows in start order.
//! - **Horizon as a slab scan.** [`FlowTable::horizon`] takes the maximum
//!   over the flow slab instead of keeping a set of active links: the slab
//!   is as long as the peak number of concurrent transfers, and only ARQ
//!   timeouts, recovery deadlines and the admission ladder ask for the
//!   horizon, so no start or finish pays to maintain an index for it.
//!
//! # What the engine does with it
//!
//! When the installed link model advertises [`FlowParams`] (via
//! [`LinkModel::flow_params`](crate::LinkModel::flow_params)), the engine
//! stops calling [`hop`](crate::LinkModel::hop) and instead opens a flow
//! per link-level transmission — protocol sends, unicast relay legs, ARQ
//! data copies and acks alike. Completion dispatches the delivery through
//! the ordinary event path. Contention is observable: `net.queued_ms`
//! counts sojourn ticks in excess of the uncontended service time,
//! `net.flow.sojourn` histograms total per-transfer latency, and
//! [`Simulator::link_utilization`](crate::Simulator::link_utilization)
//! exposes per-link busy time and bytes served. See `docs/SUBSTRATE.md`
//! for the full substrate contract.

use crate::engine::SimTime;
use crate::link::{FlowParams, HopOutcome, LinkModel};
use rand::rngs::StdRng;

/// Flow-level fair-bandwidth-sharing link model (loss-free, crash-free).
///
/// Each directed link `(from, to)` owns `capacity` payload scalars per tick
/// of bandwidth, shared max-min (= equally, for equal-weight flows) among
/// the transfers in flight on it. Messages therefore queue behind each
/// other instead of sailing through independently — under offered load
/// beyond capacity, sojourn times grow without bound, which is precisely
/// the knee the `contention_report` bench measures.
///
/// # Examples
///
/// ```
/// use elink_netsim::{FairShareLink, LinkModel};
///
/// // 8 scalars/tick per directed link; every transfer takes at least
/// // the one-tick service floor.
/// let link = FairShareLink::new(8);
/// assert!(link.flow_params().is_some());
/// assert!(link.is_deterministic());
///
/// // A solo 8-scalar message needs one tick of service; two concurrent
/// // ones share the link and each needs two ticks. (The engine computes
/// // this through its flow table — `hop()` is never consulted for
/// // flow-model links.)
/// let params = link.flow_params().unwrap();
/// assert_eq!(params.capacity_milli, 8_000);
/// ```
///
/// With [`FairShareLink::with_delay_cap`] the advertised
/// [`max_hop_delay`](LinkModel::max_hop_delay) envelope is tuned (it is a
/// *nominal* timeout envelope — queueing delay is unbounded under
/// overload, so protocols should prefer the contention-aware
/// [`Ctx::max_delivery_delay`](crate::Ctx::max_delivery_delay)).
#[derive(Debug, Clone, Copy)]
pub struct FairShareLink {
    /// Link capacity in payload scalars per tick (≥ 1).
    capacity: u64,
    /// Advertised `max_hop_delay` envelope (nominal, not a hard bound).
    delay_cap: u64,
}

impl FairShareLink {
    /// A fair-sharing link of `capacity` payload scalars per tick per
    /// directed link and the default nominal delay envelope of 1024 ticks.
    ///
    /// # Panics
    /// Panics if `capacity` is zero — a zero-capacity link can never
    /// deliver anything, so constructing one is a configuration bug, not a
    /// runtime condition.
    pub fn new(capacity: u64) -> Self {
        assert!(
            capacity >= 1,
            "FairShareLink capacity must be >= 1 scalar/tick (zero-capacity links cannot deliver)"
        );
        FairShareLink {
            capacity,
            delay_cap: 1024,
        }
    }

    /// Effectively infinite capacity: every transfer is served in the
    /// one-tick floor regardless of concurrency. Useful as the degenerate
    /// baseline — byte-identical to [`SyncLink`](crate::SyncLink), which
    /// the differential proptests pin.
    pub fn unlimited() -> Self {
        // Divided by 1000 so capacity_milli cannot overflow u64.
        FairShareLink::new(u64::MAX / 1000)
    }

    /// Overrides the nominal [`max_hop_delay`](LinkModel::max_hop_delay)
    /// envelope (at least one tick). This value feeds legacy
    /// static timeout math only; queueing delay under overload is
    /// unbounded, and contention-aware protocols should consult
    /// [`Ctx::max_delivery_delay`](crate::Ctx::max_delivery_delay).
    pub fn with_delay_cap(mut self, delay_cap: u64) -> Self {
        assert!(delay_cap >= 1, "delay cap must be at least one tick");
        self.delay_cap = delay_cap;
        self
    }

    /// Link capacity in payload scalars per tick.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }
}

impl LinkModel for FairShareLink {
    fn max_hop_delay(&self) -> u64 {
        self.delay_cap
    }

    /// Every transmission survives; the engine ignores the delay of a link
    /// that advertises [`FlowParams`] and prices the transfer through the
    /// flow table instead.
    fn hop(&self, _from: usize, _to: usize, _now: SimTime, _rng: &mut StdRng) -> HopOutcome {
        HopOutcome::Deliver { delay: 1 }
    }

    fn is_deterministic(&self) -> bool {
        true
    }

    fn flow_params(&self) -> Option<FlowParams> {
        Some(FlowParams {
            capacity_milli: self.capacity.saturating_mul(1000),
        })
    }
}

impl From<FairShareLink> for Box<dyn LinkModel> {
    fn from(link: FairShareLink) -> Self {
        Box::new(link)
    }
}

/// A tentative-completion event's address: which flow, and which
/// *generation* of that flow's prediction. The engine queues
/// `(flow, gen, at, node)` as a `FlowDone` event; when it fires, a
/// generation mismatch means the prediction was invalidated by a later
/// link transition and the event is ignored.
pub type FlowResched = (u32, u32, SimTime, usize);

/// Outcome of a tentative-completion event firing.
pub enum FlowFired<T> {
    /// The event's generation was invalidated by a later transition —
    /// ignore it; the flow's current tentative event is still queued.
    Stale,
    /// The flow completed: deliver `payload` now.
    Done {
        /// The continuation the engine stored at flow start.
        payload: T,
        /// Total ticks from flow start to delivery.
        sojourn: u64,
        /// Sojourn ticks in excess of the uncontended service time — the
        /// queueing delay this transfer suffered (`net.queued_ms`).
        queued: u64,
    },
}

/// Cumulative per-link utilization counters (see
/// [`FlowTable::link_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkUtil {
    /// Ticks during which at least one flow was in flight on the link.
    pub busy_ticks: u64,
    /// Milli-scalars of service actually delivered.
    pub served_milli: u64,
    /// Most flows ever simultaneously in flight on the link.
    pub peak_flows: u64,
}

/// One in-flight transfer.
#[derive(Clone)]
struct Flow<T> {
    /// Dense index of the directed link the flow occupies.
    link: usize,
    /// Remaining service demand (milli-scalars); 0 = service complete.
    remaining_milli: u64,
    /// Generation of the currently valid tentative-completion event.
    gen: u32,
    /// Predicted delivery tick under current contention.
    predicted_finish: SimTime,
    /// Tick the flow was started.
    enqueued: SimTime,
    /// Service ticks the transfer would take alone.
    uncontended: u64,
    /// Engine continuation delivered on completion.
    payload: T,
}

/// Per-directed-link sharing state.
#[derive(Clone)]
struct LinkState {
    /// Receiving node: every completion event on the link addresses it.
    to: u32,
    /// In-flight flow slots, in start order.
    flows: Vec<u32>,
    /// Last settle tick (progress applied up to here).
    last_settle: SimTime,
    util: LinkUtil,
}

/// Per-flow service rate when `k` flows share `capacity_milli`: the
/// integer floor of the equal split, never below 1.
fn fair_share(capacity_milli: u64, k: usize) -> u64 {
    (capacity_milli / k.max(1) as u64).max(1)
}

/// Engine-side state of the flow model: all in-flight transfers, grouped
/// by directed link, with settle/recompute/reschedule bookkeeping. Owned
/// by the `Simulator` when the installed [`LinkModel`] advertises
/// [`FlowParams`]; generic over the engine's continuation payload `T`.
///
/// Clonable (for `T: Clone`) so the model checker can snapshot the whole
/// contention state into an explored state and restore it before each
/// branched dispatch — see `Simulator::flows_snapshot`.
#[derive(Clone)]
pub struct FlowTable<T> {
    params: FlowParams,
    /// Flow slots; `None` = free. Generations survive slot reuse so a
    /// stale event addressing a recycled slot can never validate.
    flows: Vec<Option<Flow<T>>>,
    free: Vec<u32>,
    /// Per-link sharing state by dense link index (first-use order).
    /// Entries persist after draining, so end-of-run reads see the whole
    /// history.
    links: Vec<LinkState>,
    /// Per-source link directory: `link_of[from]` holds `(to, index)` for
    /// every link out of `from` that has carried a flow, sorted by `to`.
    link_of: Vec<Vec<(u32, usize)>>,
    /// Generation watermark per slot (monotone across reuse).
    slot_gen: Vec<u32>,
    active: usize,
    peak_active: usize,
}

impl<T> FlowTable<T> {
    /// An empty table for the given link parameters over a network of
    /// `nodes` nodes (every link endpoint must be below `nodes`).
    pub fn new(params: FlowParams, nodes: usize) -> Self {
        assert!(params.capacity_milli >= 1, "flow capacity must be >= 1");
        FlowTable {
            params,
            flows: Vec::new(),
            free: Vec::new(),
            links: Vec::new(),
            link_of: vec![Vec::new(); nodes],
            slot_gen: Vec::new(),
            active: 0,
            peak_active: 0,
        }
    }

    /// Dense index of the directed link `from → to`, registering the link
    /// on its first use.
    fn link_index(&mut self, from: usize, to: usize) -> usize {
        let to = to as u32;
        match self.link_of[from].binary_search_by_key(&to, |&(t, _)| t) {
            Ok(pos) => self.link_of[from][pos].1,
            Err(pos) => self.open_link(from, pos, to),
        }
    }

    /// A link's first flow: appends a fresh sharing state and inserts its
    /// directory entry at `pos`, keeping the row sorted by `to`. Runs once
    /// per link, so warmed-up transitions never allocate here.
    #[cold]
    fn open_link(&mut self, from: usize, pos: usize, to: u32) -> usize {
        let index = self.links.len();
        self.links.push(LinkState {
            to,
            flows: Vec::new(),
            last_settle: 0,
            util: LinkUtil::default(),
        });
        self.link_of[from].insert(pos, (to, index));
        index
    }

    /// Applies elapsed progress to every unfinished flow on a link.
    /// Between transitions the per-flow rate is constant, so this is exact
    /// integer arithmetic: `rate × elapsed`, capped at the remaining
    /// demand.
    fn settle(flows: &mut [Option<Flow<T>>], state: &mut LinkState, rate: u64, now: SimTime) {
        let elapsed = now.saturating_sub(state.last_settle);
        state.last_settle = now;
        if elapsed == 0 || state.flows.is_empty() {
            return;
        }
        state.util.busy_ticks += elapsed;
        let progress = (u128::from(rate) * u128::from(elapsed)).min(u128::from(u64::MAX)) as u64;
        for &slot in &state.flows {
            let Some(flow) = flows.get_mut(slot as usize).and_then(Option::as_mut) else {
                debug_assert!(false, "link membership points at a free slot");
                continue;
            };
            let applied = flow.remaining_milli.min(progress);
            flow.remaining_milli -= applied;
            state.util.served_milli += applied;
        }
    }

    /// Recomputes predicted completions for every unfinished flow on a
    /// link and appends reschedules for those whose prediction moved
    /// (bumping their generation, which invalidates the queued event).
    /// Flows whose service already completed (`remaining == 0`, their
    /// completion event due this tick) keep their prediction and their
    /// queued event untouched.
    fn recompute(
        flows: &mut [Option<Flow<T>>],
        state: &LinkState,
        rate: u64,
        now: SimTime,
        out: &mut Vec<FlowResched>,
    ) {
        let node = state.to as usize;
        for &slot in &state.flows {
            let Some(flow) = flows.get_mut(slot as usize).and_then(Option::as_mut) else {
                continue;
            };
            if flow.remaining_milli == 0 {
                continue;
            }
            let service = flow.remaining_milli.div_ceil(rate);
            let finish = now + service;
            if finish != flow.predicted_finish {
                flow.gen = flow.gen.wrapping_add(1);
                flow.predicted_finish = finish;
                out.push((slot, flow.gen, finish, node));
            }
        }
    }

    /// Opens a flow of `max(1, scalars)` payload scalars on the directed
    /// link `from → to` at tick `now`, storing `payload` as the engine
    /// continuation to hand back on completion. Appends the new flow's
    /// first tentative-completion event, plus a reschedule for every
    /// sibling whose prediction the arrival moved, to `out`, and returns
    /// the new flow's predicted completion tick under current contention.
    // simlint: hot
    pub fn start(
        &mut self,
        from: usize,
        to: usize,
        scalars: u64,
        now: SimTime,
        payload: T,
        out: &mut Vec<FlowResched>,
    ) -> SimTime {
        let link = self.link_index(from, to);
        let capacity_milli = self.params.capacity_milli;
        let size_milli = scalars.max(1).saturating_mul(1000);
        let uncontended = size_milli.div_ceil(capacity_milli).max(1);

        let state = &mut self.links[link];
        if state.flows.is_empty() {
            state.last_settle = now;
        }
        // Settle the link under the pre-arrival rate before membership
        // changes.
        let pre_rate = fair_share(capacity_milli, state.flows.len());
        Self::settle(&mut self.flows, state, pre_rate, now);

        // Allocate the slot (generation watermark survives reuse).
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = u32::try_from(self.flows.len()).expect("flow slab overflow"); // simlint: allow(no-panic-in-protocol): structural capacity invariant (u32 ids), not a fault path
                self.flows.push(None);
                self.slot_gen.push(0);
                s
            }
        };
        // Resume from the slot's watermark: the recompute below always
        // bumps past it (the placeholder finish never matches), so the new
        // flow's first event outranks every event ever issued for this slot.
        let gen = self.slot_gen[slot as usize];
        self.flows[slot as usize] = Some(Flow {
            link,
            remaining_milli: size_milli,
            gen,
            // Placeholder; recompute below assigns the real prediction and
            // emits the event (`!= finish` for any reachable finish).
            predicted_finish: SimTime::MAX,
            enqueued: now,
            uncontended,
            payload,
        });
        let state = &mut self.links[link];
        state.flows.push(slot);
        state.util.peak_flows = state.util.peak_flows.max(state.flows.len() as u64);
        self.active += 1;
        self.peak_active = self.peak_active.max(self.active);

        let rate = fair_share(capacity_milli, state.flows.len());
        Self::recompute(&mut self.flows, state, rate, now, out);
        self.flows[slot as usize]
            .as_ref()
            .map_or(now + 1, |f| f.predicted_finish)
    }

    /// Handles a tentative-completion event for `(slot, gen)` firing at
    /// `now`. A generation mismatch (the prediction was invalidated by a
    /// later transition) returns [`FlowFired::Stale`]; otherwise the flow
    /// is complete — its remaining demand has provably reached zero — its
    /// payload is returned, and reschedules for the siblings its departure
    /// sped up are appended to `out`.
    // simlint: hot
    pub fn fire(
        &mut self,
        slot: u32,
        gen: u32,
        now: SimTime,
        out: &mut Vec<FlowResched>,
    ) -> FlowFired<T> {
        let link = match self.flows.get(slot as usize) {
            Some(Some(flow)) if flow.gen == gen => flow.link,
            _ => return FlowFired::Stale,
        };
        let capacity_milli = self.params.capacity_milli;
        let state = &mut self.links[link];
        let rate = fair_share(capacity_milli, state.flows.len());
        Self::settle(&mut self.flows, state, rate, now);

        let flow = self.flows[slot as usize].take().expect("validated above"); // simlint: allow(no-panic-in-protocol): validated above, cannot fail
        debug_assert_eq!(
            flow.remaining_milli, 0,
            "a current-generation completion event implies drained demand"
        );
        // Persist the watermark so generations stay monotone across slot
        // reuse — an event queued for any earlier life of this slot can
        // never validate against a later one.
        self.slot_gen[slot as usize] = flow.gen;
        if let Some(pos) = state.flows.iter().position(|&s| s == slot) {
            state.flows.remove(pos);
        }
        self.free.push(slot);
        self.active -= 1;

        let rate = fair_share(capacity_milli, state.flows.len());
        Self::recompute(&mut self.flows, state, rate, now, out);

        let sojourn = now.saturating_sub(flow.enqueued);
        FlowFired::Done {
            payload: flow.payload,
            sojourn,
            queued: sojourn.saturating_sub(flow.uncontended),
        }
    }

    /// Largest predicted remaining sojourn (predicted finish − `now`)
    /// across all in-flight transfers — the contention-aware delivery
    /// horizon [`Ctx::max_delivery_delay`](crate::Ctx::max_delivery_delay)
    /// reports for flow links. Zero when the network is idle. A scan of
    /// the flow slab; see the module docs for why.
    pub fn horizon(&self, now: SimTime) -> u64 {
        self.flows
            .iter()
            .flatten()
            .map(|f| f.predicted_finish.saturating_sub(now))
            .max()
            .unwrap_or(0)
    }

    /// Uncontended sojourn of a `scalars`-sized transfer: its solo service
    /// time, never below one tick.
    pub fn uncontended_sojourn(&self, scalars: u64) -> u64 {
        let size_milli = scalars.max(1).saturating_mul(1000);
        size_milli.div_ceil(self.params.capacity_milli).max(1)
    }

    /// Number of transfers currently in flight.
    pub fn active(&self) -> usize {
        self.active
    }

    /// Most transfers ever simultaneously in flight.
    pub fn peak_active(&self) -> usize {
        self.peak_active
    }

    /// Every link that has carried a flow, with its sharing state,
    /// ascending by `(from, to)`: directory rows are per source and sorted
    /// by destination.
    fn links_ascending(&self) -> impl Iterator<Item = ((usize, usize), &LinkState)> + '_ {
        self.link_of
            .iter()
            .enumerate()
            .flat_map(move |(from, row)| {
                row.iter()
                    .map(move |&(to, index)| ((from, to as usize), &self.links[index]))
            })
    }

    /// Cumulative per-link utilization, ascending by `(from, to)`. Links
    /// appear once they have carried at least one flow and persist after
    /// draining, so end-of-run reads see the whole history.
    pub fn link_stats(&self) -> Vec<((usize, usize), LinkUtil)> {
        self.links_ascending()
            .map(|(link, state)| (link, state.util))
            .collect()
    }

    /// The installed link parameters.
    pub fn params(&self) -> FlowParams {
        self.params
    }

    /// Canonical description of the full table state with times expressed
    /// relative to `now`, for model-checker state fingerprinting. Covers
    /// everything that can influence future behaviour: every in-flight flow
    /// (slot, generation, link, remaining demand, relative prediction and
    /// age, uncontended envelope), the free-list *in pop order* and the
    /// per-slot generation watermarks (both feed the identity of future
    /// tentative-completion events), and the per-link settle clocks. Two
    /// states that differ only by a uniform time shift describe identically.
    pub fn canonical(&self, now: SimTime) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(out, "fl[c{}", self.params.capacity_milli);
        for ((from, to), state) in self.links_ascending() {
            if state.flows.is_empty() {
                continue;
            }
            let settle = now as i128 - state.last_settle as i128;
            let _ = write!(out, "|{from}>{to}@{settle}:");
            for &slot in &state.flows {
                let Some(flow) = self.flows.get(slot as usize).and_then(Option::as_ref) else {
                    continue;
                };
                let fin = flow.predicted_finish as i128 - now as i128;
                let age = now as i128 - flow.enqueued as i128;
                let _ = write!(
                    out,
                    "(s{slot} g{} r{} f{fin} a{age} u{})",
                    flow.gen, flow.remaining_milli, flow.uncontended
                );
            }
        }
        let _ = write!(out, "|free:");
        for &slot in &self.free {
            let _ = write!(out, "{slot}.");
        }
        let _ = write!(out, "|gen:");
        for &g in &self.slot_gen {
            let _ = write!(out, "{g}.");
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn table(capacity: u64) -> FlowTable<&'static str> {
        FlowTable::new(
            FlowParams {
                capacity_milli: capacity * 1000,
            },
            4,
        )
    }

    #[test]
    #[should_panic(expected = "capacity must be >= 1")]
    fn zero_capacity_link_is_rejected() {
        let _ = FairShareLink::new(0);
    }

    #[test]
    fn solo_flow_serves_at_full_capacity() {
        let mut t = table(4);
        let mut out = Vec::new();
        // 8 scalars at 4/tick: 2 ticks of service.
        assert_eq!(t.start(0, 1, 8, 10, "a", &mut out), 12);
        assert_eq!(out, vec![(0, 1, 12, 1)]);
        out.clear();
        match t.fire(0, 1, 12, &mut out) {
            FlowFired::Done {
                payload,
                sojourn,
                queued,
            } => {
                assert_eq!(payload, "a");
                assert_eq!(sojourn, 2);
                assert_eq!(queued, 0, "solo flow never queues");
            }
            FlowFired::Stale => panic!("current generation must not be stale"),
        }
        assert!(out.is_empty(), "no sibling to reschedule");
        assert_eq!(t.active(), 0);
    }

    #[test]
    fn two_flows_share_the_link_equally() {
        let mut t = table(2);
        let mut out = Vec::new();
        // Two 2-scalar transfers, same tick: alone each takes 1 tick;
        // sharing, each gets 1 scalar/tick and takes 2.
        assert_eq!(t.start(0, 1, 2, 0, "a", &mut out), 1);
        out.clear();
        assert_eq!(t.start(0, 1, 2, 0, "b", &mut out), 2);
        // The arrival of b invalidated a's original prediction (1 → 2).
        assert!(out.contains(&(0, 2, 2, 1)));
        assert!(out.contains(&(1, 1, 2, 1)));
        // a's original event fires stale.
        assert!(matches!(t.fire(0, 1, 1, &mut out), FlowFired::Stale));
        match t.fire(0, 2, 2, &mut out) {
            FlowFired::Done {
                payload, queued, ..
            } => {
                assert_eq!(payload, "a");
                assert_eq!(queued, 1, "one tick of queueing behind b");
            }
            FlowFired::Stale => panic!("rescheduled event must be valid"),
        }
        match t.fire(1, 1, 2, &mut out) {
            FlowFired::Done { payload, .. } => assert_eq!(payload, "b"),
            FlowFired::Stale => panic!("b finishes at its original prediction"),
        }
    }

    #[test]
    fn late_arrival_slows_only_the_remaining_work() {
        let mut t = table(2);
        let mut out = Vec::new();
        // a: 4 scalars at 2/tick = 2 ticks solo, starting at 0.
        assert_eq!(t.start(0, 1, 4, 0, "a", &mut out), 2);
        out.clear();
        // b arrives at tick 1: a has 2000 milli left, now shared at
        // 1000/tick each → a finishes at 3, b (2 scalars) at 3.
        assert_eq!(t.start(0, 1, 2, 1, "b", &mut out), 3);
        assert!(out.contains(&(0, 2, 3, 1)), "a pushed to tick 3");
        assert!(matches!(t.fire(0, 1, 2, &mut out), FlowFired::Stale));
        match t.fire(0, 2, 3, &mut out) {
            FlowFired::Done { sojourn, .. } => assert_eq!(sojourn, 3),
            FlowFired::Stale => panic!("a's rescheduled completion is valid"),
        }
    }

    #[test]
    fn departure_speeds_up_survivors() {
        let mut t = table(2);
        let mut out = Vec::new();
        // a: 2 scalars, b: 6 scalars, both at tick 0. Shared at 1/tick:
        // a done at 2; b then owns the link (4 milli-k left at 2/tick).
        t.start(0, 1, 2, 0, "a", &mut out);
        assert_eq!(
            t.start(0, 1, 6, 0, "b", &mut out),
            6,
            "b priced at the shared rate"
        );
        out.clear();
        assert!(
            matches!(t.fire(0, 2, 2, &mut out), FlowFired::Done { .. }),
            "a completes at 2"
        );
        // b: 6000 - 2×1000 = 4000 milli left at full 2000/tick → 2 more
        // ticks: finish 4, not 6.
        assert_eq!(out, vec![(1, 2, 4, 1)]);
        assert!(matches!(t.fire(1, 1, 6, &mut out), FlowFired::Stale));
        assert!(matches!(t.fire(1, 2, 4, &mut out), FlowFired::Done { .. }));
    }

    #[test]
    fn links_are_independent() {
        let mut t = table(1);
        let mut out = Vec::new();
        // Three different directed links: nobody shares, all finish in 1.
        assert_eq!(t.start(0, 1, 1, 0, "a", &mut out), 1);
        assert_eq!(t.start(0, 2, 1, 0, "b", &mut out), 1);
        assert_eq!(t.start(2, 1, 1, 0, "c", &mut out), 1);
        assert_eq!(
            out.len(),
            3,
            "one event per flow, no cross-link invalidation"
        );
    }

    #[test]
    fn unlimited_capacity_never_invalidates() {
        let mut t = FlowTable::new(FairShareLink::unlimited().flow_params().unwrap(), 2);
        let mut out = Vec::new();
        assert_eq!(
            t.start(0, 1, 50, 7, "a", &mut out),
            8,
            "service floor is one tick"
        );
        out.clear();
        assert_eq!(t.start(0, 1, 50, 7, "b", &mut out), 8);
        assert_eq!(
            out.len(),
            1,
            "arrival must not move the sibling's prediction"
        );
        assert!(matches!(t.fire(0, 1, 8, &mut out), FlowFired::Done { .. }));
        assert!(matches!(t.fire(1, 1, 8, &mut out), FlowFired::Done { .. }));
    }

    #[test]
    fn flow_arriving_and_finishing_within_one_tick_takes_the_floor() {
        let mut t = table(1000);
        let mut out = Vec::new();
        // A 1-scalar transfer on a 1000-scalar/tick link: service rounds
        // up to the one-tick floor — a flow never finishes the tick it
        // arrives in (delay ≥ 1 engine invariant).
        assert_eq!(t.start(0, 1, 1, 5, "a", &mut out), 6);
        match t.fire(0, 1, 6, &mut out) {
            FlowFired::Done { sojourn, .. } => assert_eq!(sojourn, 1),
            FlowFired::Stale => panic!("valid"),
        }
    }

    #[test]
    fn stale_generations_never_validate_across_slot_reuse() {
        let mut t = table(1);
        let mut out = Vec::new();
        t.start(0, 1, 1, 0, "a", &mut out);
        assert!(matches!(t.fire(0, 1, 1, &mut out), FlowFired::Done { .. }));
        // Slot 0 is recycled; its generation watermark advances, so the
        // old (slot 0, gen 1) event can never address the new flow.
        out.clear();
        t.start(0, 1, 1, 5, "b", &mut out);
        assert_eq!(out[0].0, 0, "slot recycled");
        assert_ne!(out[0].1, 1, "generation watermark advanced");
        assert!(matches!(t.fire(0, 1, 6, &mut out), FlowFired::Stale));
    }

    #[test]
    fn horizon_tracks_the_latest_predicted_finish() {
        let mut t = table(1);
        let mut out = Vec::new();
        assert_eq!(t.horizon(0), 0);
        t.start(0, 1, 3, 0, "a", &mut out);
        t.start(0, 1, 3, 0, "b", &mut out);
        // Two 3-scalar flows at 1 scalar/tick shared: last finishes at 6.
        assert_eq!(t.horizon(0), 6);
        assert_eq!(t.horizon(4), 2);
    }

    #[test]
    fn horizon_matches_brute_force_across_links_and_slot_reuse() {
        // A small event loop over four links with mixed sizes. After every
        // transition the horizon must equal the largest remaining sojourn
        // of a mirror built from the reschedule stream alone.
        let links = [(0, 1), (1, 2), (2, 0), (1, 0)];
        let mut t = table(2);
        let mut out = Vec::new();
        // slot → latest predicted finish, for flows still in flight.
        let mut live: BTreeMap<u32, SimTime> = BTreeMap::new();
        // (at, seq, slot, gen): the engine's `(time, seq)` event order.
        let mut queue: BTreeSet<(SimTime, u64, u32, u32)> = BTreeSet::new();
        let (mut seq, mut now, mut rng) = (0u64, 0u64, 0x2545_f491_4f6c_dd1du64);
        let (mut link_reopened, mut slot_reused) = (false, false);
        for _ in 0..500 {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            if queue.is_empty() || rng % 3 == 0 {
                let (from, to) = links[(rng >> 8) as usize % links.len()];
                slot_reused |= !t.free.is_empty();
                link_reopened |= t.link_of[from]
                    .iter()
                    .any(|&(dst, index)| dst as usize == to && t.links[index].flows.is_empty());
                t.start(from, to, 1 + (rng >> 16) % 6, now, "x", &mut out);
            } else {
                let (at, _, slot, gen) = queue.pop_first().unwrap();
                now = at;
                if let FlowFired::Done { .. } = t.fire(slot, gen, now, &mut out) {
                    live.remove(&slot);
                }
            }
            for (slot, gen, at, _) in out.drain(..) {
                live.insert(slot, at);
                queue.insert((at, seq, slot, gen));
                seq += 1;
            }
            for probe in [now, now + 2] {
                let brute = live
                    .values()
                    .map(|&finish| finish.saturating_sub(probe))
                    .max()
                    .unwrap_or(0);
                assert_eq!(t.horizon(probe), brute, "at tick {now}, probe {probe}");
            }
        }
        assert!(
            link_reopened,
            "some link drained and then carried flows again"
        );
        assert!(slot_reused, "some flow slot was recycled");
    }

    #[test]
    fn link_first_use_order_is_invisible_in_stats_and_canonical() {
        // Warm two tables up on the same two links in opposite orders, one
        // solo flow at a time: their dense link indices differ, while every
        // counter, slot and generation watermark ends up the same.
        let warm = |order: [(usize, usize); 2]| {
            let mut t = table(1);
            let mut out = Vec::new();
            for (now, (from, to)) in (0..).zip(order) {
                t.start(from, to, 1, now, "warm", &mut out);
                let (slot, gen, at, _) = out[0];
                out.clear();
                assert!(matches!(
                    t.fire(slot, gen, at, &mut out),
                    FlowFired::Done { .. }
                ));
            }
            t
        };
        let mut a = warm([(2, 1), (0, 1)]);
        let mut b = warm([(0, 1), (2, 1)]);
        assert_ne!(
            a.link_of[0], b.link_of[0],
            "the tables numbered link 0→1 differently"
        );
        // The same in-flight traffic on both, a third link included.
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        for (from, to, scalars) in [(0, 1, 3), (2, 1, 2), (0, 1, 1), (1, 0, 4)] {
            assert_eq!(
                a.start(from, to, scalars, 5, "p", &mut out_a),
                b.start(from, to, scalars, 5, "p", &mut out_b)
            );
        }
        assert_eq!(out_a, out_b, "identical reschedule streams");
        assert_eq!(a.canonical(6), b.canonical(6));
        let stats = a.link_stats();
        assert_eq!(stats, b.link_stats());
        let order: Vec<_> = stats.iter().map(|&(link, _)| link).collect();
        assert_eq!(order, vec![(0, 1), (1, 0), (2, 1)], "ascending (from, to)");
    }

    #[test]
    fn utilization_counters_accumulate() {
        let mut t = table(2);
        let mut out = Vec::new();
        t.start(0, 1, 2, 0, "a", &mut out);
        t.start(0, 1, 2, 0, "b", &mut out);
        assert!(matches!(t.fire(0, 2, 2, &mut out), FlowFired::Done { .. }));
        assert!(matches!(t.fire(1, 1, 2, &mut out), FlowFired::Done { .. }));
        let stats = t.link_stats();
        assert_eq!(stats.len(), 1);
        let ((from, to), util) = stats[0];
        assert_eq!((from, to), (0, 1));
        assert_eq!(util.busy_ticks, 2);
        assert_eq!(util.served_milli, 4000);
        assert_eq!(util.peak_flows, 2);
        assert_eq!(t.peak_active(), 2);
    }
}
