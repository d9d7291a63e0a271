//! Differential test for queued runs: a broadcast whose copies all land
//! at one tick takes one queue entry, and the boots of all nodes take one,
//! yet nothing observable may tell.
//!
//! Two flood protocols differ only in how a node sends to its neighbours:
//! `Ctx::broadcast_neighbors`, which the engine may queue as a run, or a
//! loop of `Ctx::send` over `Ctx::neighbors`, which queues one event per
//! copy. Every run loop — `run_to_completion`, `run_events(k)` for every `k`
//! (which stops inside runs) and `run_until(t)` at every tick, each also
//! finished with `run_to_completion` — must leave both byte-identical:
//! the `JsonlTrace` stream, the `CostBook`, the `Metrics`, the dispatch
//! count, the live-event peak, the time and every node's state. On
//! `SyncLink` and on a crash link with one-tick hops the copies form runs
//! (a receiver that is down inside a run is a `net.drops.node_down`); on
//! jittered or lossy links they fall back to one event per copy.
//!
//! A message injected at tick 0 before the run starts must dispatch
//! before every boot: the boots are queued when the run starts.

use elink_netsim::{
    CostBook, Ctx, JsonlTrace, LinkModel, LossyLink, Metrics, Protocol, SimNetwork, SimTime,
    Simulator, SyncLink,
};
use elink_topology::Topology;
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// How a node reaches its neighbours.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fanout {
    /// `Ctx::broadcast_neighbors`.
    Broadcast,
    /// One `Ctx::send` per neighbour.
    PerCopy,
}

/// A multi-source flood. Token `s < n` starts at source `s`; a node that
/// first sees an even token also arms a zero-delay timer that floods the
/// token's echo `n + token`, so same-tick events are pushed while a run
/// is still being dispatched. Token `2n` is injected from outside.
#[derive(Debug, Clone, PartialEq)]
struct Flood {
    fanout: Fanout,
    source: bool,
    n: u32,
    seen: Vec<bool>,
    /// Every delivery: tick, sender and token.
    log: Vec<(SimTime, usize, u32)>,
    /// Boots the whole run had dispatched when the injected token arrived.
    boots_before_injection: Option<u64>,
}

impl Flood {
    fn injected(&self) -> u32 {
        2 * self.n
    }

    fn fan_out(&mut self, token: u32, ctx: &mut Ctx<'_, u32>) {
        if std::mem::replace(&mut self.seen[token as usize], true) {
            return;
        }
        let scalars = 1 + u64::from(token % 3);
        match self.fanout {
            Fanout::Broadcast => ctx.broadcast_neighbors(&token, "flood", scalars),
            Fanout::PerCopy => {
                for i in 0..ctx.neighbors().len() {
                    let to = ctx.neighbors()[i] as usize;
                    ctx.send(to, token, "flood", scalars);
                }
            }
        }
    }
}

impl Protocol for Flood {
    type Msg = u32;

    fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
        ctx.metrics().inc("test.boots");
        if self.source {
            self.fan_out(ctx.id() as u32, ctx);
        }
    }

    fn on_message(&mut self, from: usize, token: u32, ctx: &mut Ctx<'_, u32>) {
        self.log.push((ctx.now(), from, token));
        if token == self.injected() && from == ctx.id() {
            // The injection itself, not the flood it starts.
            self.boots_before_injection = Some(ctx.metrics().counter("test.boots"));
        }
        if token < self.n && token.is_multiple_of(2) && !self.seen[token as usize] {
            ctx.set_timer(0, u64::from(token));
        }
        self.fan_out(token, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, u32>) {
        self.fan_out(self.n + token as u32, ctx);
    }
}

/// One flood scenario: the graph, its sources, the link and the node the
/// tick-0 injection reaches.
struct Case {
    topology: Topology,
    sources: Vec<usize>,
    link: fn(&Case) -> Box<dyn LinkModel>,
    inject_at: usize,
    seed: u64,
}

type Sink = Arc<Mutex<JsonlTrace<Vec<u8>>>>;

fn build(case: &Case, fanout: Fanout) -> (Simulator<Flood>, Sink) {
    let n = case.topology.n();
    let nodes = (0..n)
        .map(|v| Flood {
            fanout,
            source: case.sources.contains(&v),
            n: n as u32,
            seen: vec![false; 2 * n + 1],
            log: Vec::new(),
            boots_before_injection: None,
        })
        .collect();
    let network = SimNetwork::new(case.topology.clone());
    let mut sim = Simulator::new(network, (case.link)(case), case.seed, nodes);
    let sink = Arc::new(Mutex::new(JsonlTrace::new(Vec::new())));
    sim.set_trace(Arc::clone(&sink));
    sim.inject(0, case.inject_at, 2 * n as u32);
    (sim, sink)
}

/// Everything observable about a simulator between two run-loop calls.
#[derive(Debug, PartialEq)]
struct View {
    trace: Vec<u8>,
    costs: CostBook,
    metrics: Metrics,
    events: u64,
    peak_live: usize,
    now: SimTime,
    nodes: Vec<Flood>,
}

fn view(sim: &Simulator<Flood>, sink: &Sink) -> View {
    View {
        trace: sink.lock().unwrap().writer().clone(),
        costs: sim.costs().clone(),
        metrics: sim.metrics().clone(),
        events: sim.events_processed(),
        peak_live: sim.peak_live_events(),
        now: sim.now(),
        // The fan-out mode is the one intended difference.
        nodes: sim
            .nodes()
            .iter()
            .map(|f| Flood {
                fanout: Fanout::Broadcast,
                ..f.clone()
            })
            .collect(),
    }
}

/// Drives a broadcast and a per-copy simulator of `case` through `drive`,
/// then to completion, and compares them after each.
fn agree(
    case: &Case,
    label: &str,
    drive: impl Fn(&mut Simulator<Flood>),
) -> Result<View, TestCaseError> {
    let (mut a, sa) = build(case, Fanout::Broadcast);
    let (mut b, sb) = build(case, Fanout::PerCopy);
    drive(&mut a);
    drive(&mut b);
    let (va, vb) = (view(&a, &sa), view(&b, &sb));
    prop_assert!(va == vb, "{}: broadcast and per-copy runs diverge", label);
    a.run_to_completion();
    b.run_to_completion();
    let (va, vb) = (view(&a, &sa), view(&b, &sb));
    prop_assert!(
        va == vb,
        "{}: broadcast and per-copy runs diverge once finished",
        label
    );
    Ok(va)
}

/// All three run loops at every stopping point.
fn check(case: &Case, name: &str) -> Result<View, TestCaseError> {
    let end = agree(case, name, |_| {})?;
    prop_assert!(end.events > case.topology.n() as u64, "{}: no flood", name);
    let injected = &end.nodes[case.inject_at];
    prop_assert_eq!(
        injected.boots_before_injection,
        Some(0),
        "{}: a boot dispatched before the tick-0 injection",
        name
    );
    for k in 0..=end.events {
        agree(case, &format!("{name} run_events({k})"), |sim| {
            assert!(sim.run_events(k) <= k);
        })?;
    }
    for t in 0..=end.now {
        agree(case, &format!("{name} run_until({t})"), |sim| {
            sim.run_until(t);
        })?;
    }
    Ok(end)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn broadcast_runs_are_invisible(
        n in 5usize..14,
        topo_seed in 0u64..500,
        seed in 0u64..64,
        second_source in 0usize..14,
    ) {
        let topology = Topology::random_synthetic(n, topo_seed);
        let mut sources = vec![0, second_source % n];
        sources.dedup();
        // The crash link takes down a neighbour of source 0 over ticks
        // 1..4, where source 0's boot broadcast lands.
        let crashed = topology.graph().neighbors(0).first().map_or(1, |&v| v as usize);
        let mut case = Case {
            topology,
            sources,
            link: |_| SyncLink.into(),
            inject_at: n - 1,
            seed,
        };
        check(&case, "SyncLink")?;

        case.link = |c| {
            let crashed = c.topology.graph().neighbors(0).first().map_or(1, |&v| v as usize);
            LossyLink::new(1, 1).with_crash(crashed, 1, Some(4)).into()
        };
        let end = check(&case, "crash")?;
        prop_assert!(
            end.metrics.counter("net.drops.node_down") > 0,
            "node {} was down when source 0's broadcast reached it",
            crashed
        );

        case.link = |_| LossyLink::new(1, 3).into();
        check(&case, "jitter")?;

        case.link = |_| LossyLink::new(1, 1).with_drop_prob(0.2).into();
        check(&case, "loss")?;
    }
}
