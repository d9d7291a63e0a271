//! Counterexample compilation: a checker path becomes a concrete run of the
//! normal [`Simulator`](elink_netsim::Simulator).
//!
//! The explorer's [`ViolationReport`](crate::ViolationReport) is a sequence
//! of abstract transitions. [`compile`] re-executes that path against a
//! fresh [`McSystem`] with fate logging on, and turns what happened into:
//!
//! * a [`ScriptedLink`](elink_netsim::ScriptedLink) script — per-hop outcomes, in the exact order the
//!   engine will consume them (handler execution order × send order ×
//!   route order), with the slack that realizes each delivery time pushed
//!   onto the *last* hop, and a first-hop [`HopOutcome::Drop`](elink_netsim::HopOutcome::Drop) for every
//!   message the schedule lost (fault drop, crash purge, or still in
//!   flight at the violation — the engine never observes the difference in
//!   node state);
//! * crash windows (`ScriptedLink::crash`) for the checker's crash faults;
//! * the pre-run injections (external stimuli and duplicate copies, in
//!   engine pop order);
//! * an event-count cutoff `k` for [`Simulator::run_events`](elink_netsim::Simulator::run_events) — `run_until`
//!   cannot split a tick, but the violation may sit mid-tick, so the replay
//!   counts queue pops instead: boot starts, every dispatched event, and
//!   every dead-node drop the crash windows will cause before the final
//!   step.
//!
//! [`replay`](crate::replay::replay) then builds a simulator over that script, runs exactly `k`
//! events, and re-evaluates the violated predicate on the resulting node
//! states — `reproduced == true` is the contract that the abstract
//! counterexample is a real execution.

use std::collections::BTreeMap;
use std::collections::BTreeSet;
use std::fmt::Debug;
use std::sync::{Arc, Mutex};

use elink_netsim::{
    HopOutcome, JsonlTrace, LinkModel, McEvent, Protocol, ScriptedLink, SimTime, Simulator,
};

use crate::predicates::{McView, Predicate};
use crate::system::{LogEvent, McConfig, McSystem, PendingMeta, Transition};

/// How one in-flight event's story ended along the counterexample path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    /// Dispatched (its handler ran) at this tick.
    Dispatched(SimTime),
    /// Removed by a fault drop.
    FaultDropped,
    /// Purged by a crash (addressed to, or relayed through, a dead node).
    Purged,
    /// Still pending when the violation hit.
    InFlight,
}

/// One pre-run injection, in engine pop order.
struct Injection<M> {
    at: SimTime,
    /// `Some(origin)` replays a duplicate copy via
    /// [`Simulator::inject_from`]; `None` is an external stimulus.
    from: Option<usize>,
    node: usize,
    msg: M,
}

/// Everything needed to reproduce a counterexample under the normal
/// engine.
pub struct ReplaySpec<M> {
    delay_bound: u64,
    hops: Vec<(usize, usize, HopOutcome)>,
    crashes: Vec<(usize, SimTime)>,
    injections: Vec<Injection<M>>,
    /// Queue pops to execute — the violation point.
    pub run_events: u64,
    /// The checker clock at the violation.
    pub violation_now: SimTime,
    /// Crashed set at the violation (for predicate evaluation).
    pub crashed: BTreeSet<usize>,
    /// In-flight event count at the violation (for predicate evaluation).
    pub pending_at_violation: usize,
    /// Human-readable schedule, one line per transition.
    pub schedule: Vec<String>,
}

/// What [`replay`] observed.
pub struct ReplayOutcome {
    /// The violated predicate failed again on the replayed node states.
    pub reproduced: bool,
    /// The predicate's message at the replayed state (if it failed).
    pub message: Option<String>,
    /// Events the engine actually processed (equals the spec's
    /// `run_events` when the schedule aligned).
    pub events_run: u64,
    /// The engine's JSONL trace of the whole replayed run.
    pub trace_jsonl: Vec<u8>,
}

/// Re-executes `path` on a *fresh* `sys` (same scenario construction that
/// was explored) and compiles the replay spec.
///
/// # Panics
/// Panics if the path is not executable on `sys` (wrong system or a
/// checker bug): every transition must target a live pending event and
/// every realized delay must fit the delay bound.
pub fn compile<P>(
    sys: &mut McSystem<P>,
    path: &[Transition],
    config: &McConfig,
) -> ReplaySpec<P::Msg>
where
    P: Protocol + Clone,
    P::Msg: Clone + Debug,
{
    sys.assert_explorable(config);
    sys.log = Some(Vec::new());
    let mut state = sys.init_state();

    // Everything ever pending, by seq; fates refined as the log folds.
    let mut info: BTreeMap<u64, (McEvent<P::Msg>, PendingMeta)> = BTreeMap::new();
    // Creation order = engine send order: boot harvest first (init pending
    // minus externals, already in seq order), then log order.
    let mut creation: Vec<(Option<u64>, McEvent<P::Msg>)> = Vec::new();
    for p in state.pending_entries() {
        info.insert(p.meta.seq, (p.ev.clone(), p.meta));
        if !p.meta.pre_run {
            creation.push((Some(p.meta.seq), p.ev.clone()));
        }
    }

    let mut schedule = Vec::new();
    for tr in path {
        let at = sys.dispatch_time(&state, *tr);
        let ev = sys.pending_by_seq(&state, tr.seq).ev.clone();
        schedule.push(format!(
            "{:?} seq={} at t{}: {}",
            tr.kind,
            tr.seq,
            at,
            ev.describe(0)
        ));
        state = sys.apply(&state, *tr);
    }
    let log = sys.log.take().unwrap_or_default();

    let mut fates: BTreeMap<u64, Fate> = BTreeMap::new();
    let mut last_dispatch: Option<(u64, SimTime)> = None;
    let mut dispatched = 0u64;
    let mut cur_at = 0;
    for entry in &log {
        match entry {
            LogEvent::Dispatched { seq, at } => {
                fates.insert(*seq, Fate::Dispatched(*at));
                last_dispatch = Some((*seq, *at));
                dispatched += 1;
                cur_at = *at;
            }
            LogEvent::Created { ev, seq } => {
                if let Some(seq) = seq {
                    info.insert(
                        *seq,
                        (
                            ev.clone(),
                            PendingMeta {
                                seq: *seq,
                                sent_at: cur_at,
                                pre_run: false,
                                dup: false,
                            },
                        ),
                    );
                }
                creation.push((*seq, ev.clone()));
            }
            LogEvent::FaultDropped { seq } => {
                fates.insert(*seq, Fate::FaultDropped);
            }
            LogEvent::Duplicated { of_seq, new_seq } => {
                let (ev, meta) = info
                    .get(of_seq)
                    .expect("duplicate of a known event")
                    .clone();
                info.insert(
                    *new_seq,
                    (
                        ev,
                        PendingMeta {
                            seq: *new_seq,
                            sent_at: meta.sent_at,
                            pre_run: true,
                            dup: true,
                        },
                    ),
                );
            }
            LogEvent::Crashed { .. } => {}
            LogEvent::Purged { seq } => {
                fates.insert(*seq, Fate::Purged);
            }
        }
    }

    let fate_of = |seq: u64| *fates.get(&seq).unwrap_or(&Fate::InFlight);

    // Per-hop link script, in engine consumption order. Externals and
    // duplicate copies bypass the link; exact-class events are
    // engine-internal. Everything else walks its route: delivered events
    // carry their realized slack on the last hop, lost events drop on the
    // first.
    let routing = sys.sim().network().routing();
    let mut hops: Vec<(usize, usize, HopOutcome)> = Vec::new();
    for (seq, ev) in &creation {
        let Some(origin) = ev.origin() else { continue };
        let dst = ev.node();
        if origin == dst {
            continue; // self-delivery: pushed directly, no radio
        }
        let delivered_at = seq.and_then(|s| match fate_of(s) {
            Fate::Dispatched(at) => Some(at),
            _ => None,
        });
        match delivered_at {
            Some(at) => {
                assert!(
                    at >= ev.time() && at - ev.time() < config.delay_bound,
                    "realized delivery outside the delay window"
                );
                let mut cur = origin;
                loop {
                    let next = routing
                        .next_hop(cur, dst)
                        .expect("captured message on an unroutable path");
                    let delay = if next == dst { 1 + (at - ev.time()) } else { 1 };
                    hops.push((cur, next, HopOutcome::Deliver { delay }));
                    if next == dst {
                        break;
                    }
                    cur = next;
                }
            }
            None => {
                let next = routing
                    .next_hop(origin, dst)
                    .expect("captured message on an unroutable path");
                hops.push((origin, next, HopOutcome::Drop));
            }
        }
    }

    let crashes: Vec<(usize, SimTime)> = log
        .iter()
        .filter_map(|e| match e {
            LogEvent::Crashed { node, at } => Some((*node, *at)),
            _ => None,
        })
        .collect();

    // Pre-run injections: the mc-dispatched externals and duplicate
    // copies, in seq order (= engine pop order within each tick; pre-run
    // entries pop before any same-tick network arrival).
    let mut injections = Vec::new();
    for (seq, (ev, meta)) in &info {
        if !meta.pre_run {
            continue;
        }
        let Fate::Dispatched(at) = fate_of(*seq) else {
            continue; // undispatched stimuli never enter the replay queue
        };
        let msg = ev
            .message()
            .expect("pre-run injections are deliveries")
            .clone();
        injections.push(Injection {
            at,
            from: if meta.dup { ev.origin() } else { None },
            node: ev.node(),
            msg,
        });
        if !meta.dup {
            debug_assert!(at == ev.time(), "externals are exact-class");
        }
    }

    // Event-count cutoff: boot starts + every dispatched event + every
    // dead-node drop popping no later than the final dispatched step.
    // Dead-node drops are the crash-purged exact-class events (timers,
    // self-deliveries): they sit in the engine queue at their exact ticks
    // and pop inside their node's crash window. Purged *messages* never
    // enqueue (first-hop drop) and purged stimuli are never injected.
    let n = sys.sim().nodes().len() as u64;
    let mut k = n + dispatched;
    if let Some((fseq, fat)) = last_dispatch {
        let (fev, fmeta) = &info[&fseq];
        debug_assert!(fev.time() <= fat);
        let final_key = (fat, u8::from(!fmeta.pre_run), fseq);
        for (seq, (ev, meta)) in &info {
            if fate_of(*seq) != Fate::Purged {
                continue;
            }
            let exact = ev.is_timer() || ev.origin() == Some(ev.node());
            if !exact || meta.pre_run || meta.dup {
                continue; // messages first-hop-drop; stimuli are not injected
            }
            let key = (ev.time(), 1u8, *seq);
            if key <= final_key {
                k += 1;
            }
        }
    }

    ReplaySpec {
        delay_bound: config.delay_bound,
        hops,
        crashes,
        injections,
        run_events: k,
        violation_now: state.now,
        crashed: state.crashed.clone(),
        pending_at_violation: state.pending_len(),
        schedule,
    }
}

/// Builds a simulator over the compiled script (via `build`, which
/// receives the scripted link — use the same scenario construction as the
/// exploration), runs it to the violation point, and re-evaluates
/// `predicate` there. The full engine trace of the run is returned as
/// JSONL bytes.
pub fn replay<P, F>(spec: &ReplaySpec<P::Msg>, build: F, predicate: &Predicate<P>) -> ReplayOutcome
where
    P: Protocol,
    P::Msg: Clone,
    F: FnOnce(Box<dyn LinkModel>) -> Simulator<P>,
{
    let mut link = ScriptedLink::pristine(spec.delay_bound);
    for (from, to, outcome) in &spec.hops {
        link.push_hop(*from, *to, *outcome);
    }
    for (node, at) in &spec.crashes {
        link.crash(*node, *at);
    }
    let mut sim = build(Box::new(link));
    let trace = Arc::new(Mutex::new(JsonlTrace::new(Vec::new())));
    sim.set_trace(Arc::clone(&trace));
    for inj in &spec.injections {
        match inj.from {
            Some(origin) => sim.inject_from(inj.at, origin, inj.node, inj.msg.clone()),
            None => sim.inject(inj.at, inj.node, inj.msg.clone()),
        }
    }
    let events_run = sim.run_events(spec.run_events);
    let view = McView {
        nodes: sim.nodes(),
        crashed: &spec.crashed,
        now: spec.violation_now,
        pending: spec.pending_at_violation,
        quiescent: spec.pending_at_violation == 0,
    };
    let (reproduced, message) = match predicate.check(&view) {
        Ok(()) => (false, None),
        Err(m) => (true, Some(m)),
    };
    let trace_jsonl = trace.lock().map(|t| t.writer().clone()).unwrap_or_default();
    ReplayOutcome {
        reproduced,
        message,
        events_run,
        trace_jsonl,
    }
}
