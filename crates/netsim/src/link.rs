//! Link-layer models: per-hop delay, loss, node crash/recovery, partitions.
//!
//! A [`LinkModel`] decides, for every attempted hop, whether the transmission
//! is delivered (and after what delay) or dropped, and whether a node is up
//! at a given time. All decisions are driven by the engine's seeded RNG, so a
//! run is fully deterministic per seed. [`SyncLink`] is §4's one-tick
//! network, [`LossyLink`] covers §5's bounded delays (`LossyLink::new(min,
//! max)` with no faults) and adds loss, crashes and partitions, and
//! [`ScriptedLink`] replays model-checker schedules.

use crate::engine::SimTime;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::VecDeque;

/// Outcome of one attempted link-level transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopOutcome {
    /// The hop succeeds after `delay` ticks (≥ 1).
    Deliver {
        /// Per-hop latency in ticks.
        delay: u64,
    },
    /// The transmission is lost. The sender still pays for it.
    Drop,
}

/// Parameters a flow-model link advertises to the engine (see
/// [`LinkModel::flow_params`] and [`crate::FairShareLink`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowParams {
    /// Per-directed-link capacity in **milli-scalars per tick** (≥ 1): a
    /// message of `s` payload scalars carries `max(1, s) × 1000`
    /// milli-scalars of service demand.
    pub capacity_milli: u64,
}

/// Per-hop behaviour of the network: latency, loss, and node liveness.
///
/// Implementations must be deterministic given the RNG stream: the engine
/// calls [`LinkModel::hop`] in a fixed order, so identical seeds reproduce
/// identical runs.
pub trait LinkModel {
    /// The largest possible hop delay under this model; protocols use this
    /// for conservative timeouts (e.g. ELink leaf detection, §5).
    fn max_hop_delay(&self) -> u64;

    /// Decides the fate of a transmission `from → to` started at `now`.
    /// The engine calls it exactly once per radio transmission — every
    /// protocol send, unicast leg, ARQ data copy and ack — and bills that
    /// transmission whatever the outcome.
    fn hop(&self, from: usize, to: usize, now: SimTime, rng: &mut StdRng) -> HopOutcome;

    /// Whether `node` is up at `time`. Dead nodes receive no deliveries and
    /// their timers are silently dropped while down.
    fn is_alive(&self, _node: usize, _time: SimTime) -> bool {
        true
    }

    /// Whether `node` went down at any point in the window `(after, upto]`.
    /// The engine uses this to clear timers (and ARQ sender state) that were
    /// scheduled before a crash: a reboot loses volatile state, so a timer
    /// armed before the outage must not fire after recovery. `after` is the
    /// scheduling time (the node was necessarily alive then); a crash
    /// starting exactly at `upto` is also covered, though the plain
    /// [`LinkModel::is_alive`] check catches that case first.
    fn crashed_in_window(&self, _node: usize, _after: SimTime, _upto: SimTime) -> bool {
        false
    }

    /// Whether this model never consumes the engine RNG. Branching
    /// exploration (the `elink-mc` checker) requires a deterministic link:
    /// it re-dispatches from saved node state, and an RNG-consuming link
    /// would make sibling branches observe different streams.
    fn is_deterministic(&self) -> bool {
        false
    }

    /// `Some` iff this is a flow-level (capacity-sharing) model. When a
    /// link advertises flow parameters, the engine still asks
    /// [`LinkModel::hop`] whether each transmission survives, but ignores
    /// its delay and prices the transmission through its
    /// [`FlowTable`](crate::FlowTable) instead — messages share the link's
    /// capacity and queue behind each other. Per-message models keep the
    /// default `None`.
    fn flow_params(&self) -> Option<FlowParams> {
        None
    }
}

/// Synchronous loss-free links: every hop takes exactly one tick (§4's
/// "worst-case delay over a hop is a single time unit").
///
/// # Examples
///
/// ```
/// use elink_netsim::{HopOutcome, LinkModel, SyncLink};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// // Every hop delivers after exactly one tick, for every pair and time.
/// assert_eq!(SyncLink.hop(3, 7, 42, &mut rng), HopOutcome::Deliver { delay: 1 });
/// assert_eq!(SyncLink.max_hop_delay(), 1);
/// assert!(SyncLink.is_deterministic());
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SyncLink;

impl LinkModel for SyncLink {
    fn max_hop_delay(&self) -> u64 {
        1
    }

    fn hop(&self, _from: usize, _to: usize, _now: SimTime, _rng: &mut StdRng) -> HopOutcome {
        HopOutcome::Deliver { delay: 1 }
    }

    fn is_deterministic(&self) -> bool {
        true
    }
}

/// A scheduled node outage.
#[derive(Debug, Clone, Copy)]
struct Crash {
    node: usize,
    from: SimTime,
    /// Exclusive recovery time; `None` = never recovers.
    until: Option<SimTime>,
}

/// A scheduled network partition: hops crossing between the two sides are
/// dropped during the window.
#[derive(Debug, Clone)]
struct Partition {
    /// `side[v]` = which half of the cut node `v` is on.
    side: Vec<bool>,
    from: SimTime,
    /// Exclusive healing time; `None` = never heals.
    until: Option<SimTime>,
}

/// Bounded-delay links, §5's asynchronous setting: a uniform per-hop delay
/// in `[min, max]`, plus optional independent per-hop drop probability,
/// scheduled node crashes, and a partition window. All randomness comes
/// from the engine's seeded RNG; `min == max` draws no delay.
///
/// # Examples
///
/// ```
/// use elink_netsim::{LinkModel, LossyLink};
///
/// // Delays in [1, 4], 20% independent loss, node 5 down during [10, 20).
/// let link = LossyLink::new(1, 4)
///     .with_drop_prob(0.2)
///     .with_crash(5, 10, Some(20));
/// assert_eq!(link.max_hop_delay(), 4);
/// assert!(link.is_alive(5, 9));
/// assert!(!link.is_alive(5, 15));   // down during the window
/// assert!(link.is_alive(5, 20));    // recovered (exclusive end)
/// // State armed before the outage is invalidated by it:
/// assert!(link.crashed_in_window(5, 0, 15));
/// ```
#[derive(Debug, Clone)]
pub struct LossyLink {
    delay_min: u64,
    delay_max: u64,
    drop_prob: f64,
    crashes: Vec<Crash>,
    partition: Option<Partition>,
    /// When set, the link also advertises [`FlowParams`]: transmissions are
    /// priced through fair capacity sharing while loss, crash and partition
    /// faults keep deciding *whether* each transmission survives — the
    /// composed contention × fault model of the chaos grid.
    capacity: Option<u64>,
}

impl LossyLink {
    /// Loss-free bounded-delay links; add faults with the builder methods.
    pub fn new(delay_min: u64, delay_max: u64) -> Self {
        assert!(
            delay_min >= 1 && delay_max >= delay_min,
            "need 1 <= delay_min <= delay_max"
        );
        LossyLink {
            delay_min,
            delay_max,
            drop_prob: 0.0,
            crashes: Vec::new(),
            partition: None,
            capacity: None,
        }
    }

    /// Shares each directed link's bandwidth max-min fairly at `capacity`
    /// payload scalars per tick, like [`crate::FairShareLink`], while the
    /// loss/crash/partition faults configured on this link stay in force.
    /// The engine then prices every transmission through the flow table and
    /// rolls the fault dice separately per transmission, so queueing
    /// collapse and message loss compose in one run.
    ///
    /// # Panics
    /// Panics if `capacity` is zero (a zero-capacity link cannot deliver).
    pub fn with_capacity(mut self, capacity: u64) -> Self {
        assert!(
            capacity >= 1,
            "LossyLink capacity must be >= 1 scalar/tick (zero-capacity links cannot deliver)"
        );
        self.capacity = Some(capacity);
        self
    }

    /// Independent drop probability applied to every hop.
    pub fn with_drop_prob(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "drop probability must be in [0, 1]"
        );
        self.drop_prob = p;
        self
    }

    /// Crashes `node` during `[from, until)`; `until = None` means the node
    /// never recovers.
    pub fn with_crash(mut self, node: usize, from: SimTime, until: Option<SimTime>) -> Self {
        if let Some(u) = until {
            assert!(u > from, "crash window must be non-empty");
        }
        self.crashes.push(Crash { node, from, until });
        self
    }

    /// Partitions the network during `[from, until)`: hops between a node
    /// with `side[v] = true` and one with `side[v] = false` are dropped.
    pub fn with_partition(
        mut self,
        side: Vec<bool>,
        from: SimTime,
        until: Option<SimTime>,
    ) -> Self {
        if let Some(u) = until {
            assert!(u > from, "partition window must be non-empty");
        }
        self.partition = Some(Partition { side, from, until });
        self
    }

    fn partition_separates(&self, a: usize, b: usize, time: SimTime) -> bool {
        match &self.partition {
            Some(p) if time >= p.from && p.until.is_none_or(|u| time < u) => p.side[a] != p.side[b],
            _ => false,
        }
    }
}

impl LinkModel for LossyLink {
    fn max_hop_delay(&self) -> u64 {
        self.delay_max
    }

    fn hop(&self, from: usize, to: usize, now: SimTime, rng: &mut StdRng) -> HopOutcome {
        // Always draw the delay first so loss-free and lossy runs with the
        // same seed share the delay stream.
        let delay = if self.delay_min == self.delay_max {
            self.delay_min
        } else {
            rng.gen_range(self.delay_min..=self.delay_max)
        };
        if self.partition_separates(from, to, now) {
            return HopOutcome::Drop;
        }
        if self.drop_prob > 0.0 && rng.gen_bool(self.drop_prob) {
            return HopOutcome::Drop;
        }
        HopOutcome::Deliver { delay }
    }

    fn is_alive(&self, node: usize, time: SimTime) -> bool {
        !self
            .crashes
            .iter()
            .any(|c| c.node == node && time >= c.from && c.until.is_none_or(|u| time < u))
    }

    fn crashed_in_window(&self, node: usize, after: SimTime, upto: SimTime) -> bool {
        self.crashes
            .iter()
            .any(|c| c.node == node && c.from > after && c.from <= upto)
    }

    fn flow_params(&self) -> Option<FlowParams> {
        self.capacity.map(|capacity| FlowParams {
            capacity_milli: capacity.saturating_mul(1000),
        })
    }
}

/// A fully scripted link: per-directed-pair FIFO queues of hop outcomes,
/// permanent crash points, and a configurable delay bound. The model
/// checker's two hats in one type:
///
/// * **Capture mode** ([`ScriptedLink::pristine`]): empty script — every hop
///   delivers with delay 1, but [`LinkModel::max_hop_delay`] still reports
///   the configured bound `d`, so protocol timeouts are computed for the
///   same delay envelope the checker explores (deliveries reordered within
///   `[send+1, send+d]`).
/// * **Replay mode**: a counterexample compiled into per-pair outcome queues
///   plus crash points makes the ordinary [`crate::Simulator`] reproduce the exact
///   schedule the checker found.
///
/// Unscripted hops (queue exhausted or pair absent) deliver with delay 1.
/// Deterministic: never touches the RNG.
#[derive(Debug, Clone)]
pub struct ScriptedLink {
    max_delay: u64,
    /// Interior-mutable because [`LinkModel::hop`] takes `&self`; the engine
    /// calls it single-threaded.
    script: std::cell::RefCell<std::collections::BTreeMap<(usize, usize), VecDeque<HopOutcome>>>,
    crashes: Vec<(usize, SimTime)>,
}

impl ScriptedLink {
    /// An empty script with the given delay bound (`max_delay ≥ 1`): every
    /// hop delivers with delay 1.
    pub fn pristine(max_delay: u64) -> Self {
        assert!(max_delay >= 1, "delay bound must be at least 1");
        ScriptedLink {
            max_delay,
            script: std::cell::RefCell::new(std::collections::BTreeMap::new()),
            crashes: Vec::new(),
        }
    }

    /// Appends the outcome of the next transmission `from → to`.
    pub fn push_hop(&mut self, from: usize, to: usize, outcome: HopOutcome) {
        if let HopOutcome::Deliver { delay } = outcome {
            assert!(
                delay >= 1 && delay <= self.max_delay,
                "scripted delay {delay} outside [1, {}]",
                self.max_delay
            );
        }
        self.script
            .borrow_mut()
            .entry((from, to))
            .or_default()
            .push_back(outcome);
    }

    /// Crashes `node` permanently from tick `at` onwards.
    pub fn crash(&mut self, node: usize, at: SimTime) {
        self.crashes.push((node, at));
    }
}

impl LinkModel for ScriptedLink {
    fn max_hop_delay(&self) -> u64 {
        self.max_delay
    }

    fn hop(&self, from: usize, to: usize, _now: SimTime, _rng: &mut StdRng) -> HopOutcome {
        self.script
            .borrow_mut()
            .get_mut(&(from, to))
            .and_then(|q| q.pop_front())
            .unwrap_or(HopOutcome::Deliver { delay: 1 })
    }

    fn is_alive(&self, node: usize, time: SimTime) -> bool {
        !self.crashes.iter().any(|&(v, at)| v == node && time >= at)
    }

    fn crashed_in_window(&self, node: usize, after: SimTime, upto: SimTime) -> bool {
        self.crashes
            .iter()
            .any(|&(v, at)| v == node && at > after && at <= upto)
    }

    fn is_deterministic(&self) -> bool {
        true
    }
}

impl From<ScriptedLink> for Box<dyn LinkModel> {
    fn from(link: ScriptedLink) -> Self {
        Box::new(link)
    }
}

impl From<SyncLink> for Box<dyn LinkModel> {
    fn from(link: SyncLink) -> Self {
        Box::new(link)
    }
}

impl From<LossyLink> for Box<dyn LinkModel> {
    fn from(link: LossyLink) -> Self {
        Box::new(link)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn sync_link_is_unit_delay_and_lossless() {
        let mut rng = StdRng::seed_from_u64(0);
        for t in 0..50 {
            assert_eq!(
                SyncLink.hop(0, 1, t, &mut rng),
                HopOutcome::Deliver { delay: 1 }
            );
        }
        assert_eq!(SyncLink.max_hop_delay(), 1);
        assert!(SyncLink.is_alive(3, 100));
    }

    #[test]
    fn async_link_stays_in_bounds() {
        let link = LossyLink::new(2, 7);
        let mut rng = StdRng::seed_from_u64(1);
        for t in 0..500 {
            match link.hop(0, 1, t, &mut rng) {
                HopOutcome::Deliver { delay } => assert!((2..=7).contains(&delay)),
                HopOutcome::Drop => panic!("loss-free link dropped"),
            }
        }
        assert_eq!(link.max_hop_delay(), 7);
    }

    #[test]
    fn lossy_drop_probability_is_roughly_honoured() {
        let link = LossyLink::new(1, 1).with_drop_prob(0.3);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 10_000;
        let drops = (0..n)
            .filter(|&t| link.hop(0, 1, t, &mut rng) == HopOutcome::Drop)
            .count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.03, "drop rate {rate} far from 0.3");
    }

    #[test]
    fn crash_windows_control_liveness() {
        let link = LossyLink::new(1, 1)
            .with_crash(4, 10, Some(20))
            .with_crash(5, 15, None);
        assert!(link.is_alive(4, 9));
        assert!(!link.is_alive(4, 10));
        assert!(!link.is_alive(4, 19));
        assert!(link.is_alive(4, 20));
        assert!(link.is_alive(5, 14));
        assert!(!link.is_alive(5, 1_000_000));
        assert!(link.is_alive(6, 12));
    }

    #[test]
    fn crashed_in_window_detects_outages_between_schedule_and_fire() {
        let link = LossyLink::new(1, 1).with_crash(4, 10, Some(20));
        // Window strictly before the crash opens: clean.
        assert!(!link.crashed_in_window(4, 0, 9));
        // Crash opens inside the window — even if the node is back up by the
        // end of it.
        assert!(link.crashed_in_window(4, 0, 10));
        assert!(link.crashed_in_window(4, 5, 30));
        // Scheduled while the node was already alive again: the crash at 10
        // predates the window, so state armed at 20 survives.
        assert!(!link.crashed_in_window(4, 20, 100));
        // Other nodes are unaffected.
        assert!(!link.crashed_in_window(3, 0, 100));
        // Loss-free models never crash.
        assert!(!SyncLink.crashed_in_window(0, 0, u64::MAX));
    }

    #[test]
    fn partition_drops_crossing_hops_during_window() {
        let side = vec![false, false, true, true];
        let link = LossyLink::new(1, 1).with_partition(side, 10, Some(20));
        let mut rng = StdRng::seed_from_u64(3);
        // Before and after the window, crossing hops deliver.
        assert!(matches!(
            link.hop(0, 2, 5, &mut rng),
            HopOutcome::Deliver { .. }
        ));
        assert!(matches!(
            link.hop(0, 2, 20, &mut rng),
            HopOutcome::Deliver { .. }
        ));
        // During the window, crossing hops drop but same-side hops deliver.
        assert_eq!(link.hop(1, 2, 15, &mut rng), HopOutcome::Drop);
        assert!(matches!(
            link.hop(0, 1, 15, &mut rng),
            HopOutcome::Deliver { .. }
        ));
        assert!(matches!(
            link.hop(2, 3, 15, &mut rng),
            HopOutcome::Deliver { .. }
        ));
    }

    #[test]
    fn same_seed_same_decisions() {
        let link = LossyLink::new(1, 6).with_drop_prob(0.25);
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for t in 0..200 {
            assert_eq!(link.hop(0, 1, t, &mut a), link.hop(0, 1, t, &mut b));
        }
    }
}
