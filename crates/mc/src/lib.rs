//! Exhaustive model checking over the *real* protocol handlers.
//!
//! The crate drives unmodified [`Protocol`](elink_netsim::Protocol)
//! implementations (core elink, maintenance, workload serving) through a
//! virtual network instead of the event queue: the engine's capture seam
//! ([`Simulator::capture_dispatch`](elink_netsim::Simulator::capture_dispatch))
//! returns what a handler *would* have enqueued (and which earlier events
//! it cancelled), and [`McSystem`] owns the resulting in-flight event
//! multiset. DFS/BFS exploration then branches
//! over delivery orderings and fault-injection points (drop, duplicate,
//! crash-before/after-handler), pruning by FNV fingerprints over
//! canonicalized node + network state, under bounded depth/state budgets.
//!
//! Soundness rests on two contracts (argued in DESIGN.md §12):
//!
//! * **Shared dispatch path** — a captured dispatch is bit-for-bit the
//!   engine's own dispatch (billing, tracing, link decisions included), so
//!   the checker can never explore behaviour the [`Simulator`] could not
//!   exhibit. The FIFO schedule ([`McSystem::run_fifo`]) replays a seeded
//!   run byte-identically, and a cross-validation proptest pins that.
//! * **Realizable schedules** — messages have delivery windows
//!   `[send+1, send+D]` (with `D` the link delay bound), timers fire at
//!   exact times, and same-tick ordering follows engine insertion order, so
//!   every explored schedule is producible by a concrete per-hop delay
//!   assignment. Violations compile into a [`ScriptedLink`] script plus a
//!   replayable `JsonlTrace` that reproduces the failure under the normal
//!   `Simulator`.
//!
//! [`Simulator`]: elink_netsim::Simulator
//! [`ScriptedLink`]: elink_netsim::ScriptedLink

#![warn(missing_docs)]

pub mod explore;
/// Safety/liveness predicates evaluated at every explored state.
pub mod predicates;
/// Counterexample replay: re-drives a recorded schedule through the engine.
pub mod replay;
/// Canned model-checking scenarios (protocol + topology + predicate sets).
pub mod scenarios;
/// The explorable system: capture seam over the real protocol handlers.
pub mod system;

pub use explore::{explore, ExploreReport, Strategy, ViolationReport};
pub use predicates::{McView, Predicate};
pub use replay::{compile, replay, ReplayOutcome, ReplaySpec};
pub use scenarios::{CheckOutcome, Scenario};
pub use system::{FaultBudget, McConfig, McState, McSystem, Transition, TransitionKind};

#[cfg(test)]
mod tests {
    use std::fmt::Write as _;
    use std::sync::{Arc, Mutex};

    use elink_netsim::{
        Canonicalize, Ctx, JsonlTrace, LinkModel, LossyLink, Protocol, ScriptedLink, SimNetwork,
        Simulator, SyncLink,
    };
    use elink_topology::Topology;

    use super::*;

    /// Toy protocol on the 0–1–2 path: node 0 pings node 2 (two hops, msg
    /// 10) and node 1 (one hop, msg 20) at start, and arms a timer; node 2
    /// answers the ping with a pong (msg 11).
    #[derive(Clone, Debug)]
    struct Toy {
        id: usize,
        seen: Vec<(usize, u32, u64)>,
        timer_at: Option<u64>,
    }

    impl Toy {
        fn fresh(n: usize) -> Vec<Toy> {
            (0..n)
                .map(|id| Toy {
                    id,
                    seen: Vec::new(),
                    timer_at: None,
                })
                .collect()
        }

        fn got(&self, msg: u32) -> bool {
            self.seen.iter().any(|&(_, m, _)| m == msg)
        }
    }

    impl Protocol for Toy {
        type Msg = u32;

        fn on_start(&mut self, ctx: &mut Ctx<'_, u32>) {
            if self.id == 0 {
                ctx.unicast(2, 10, "ping", 1);
                ctx.unicast(1, 20, "ping", 1);
                ctx.set_timer(5, 7);
            }
        }

        fn on_message(&mut self, from: usize, msg: u32, ctx: &mut Ctx<'_, u32>) {
            self.seen.push((from, msg, ctx.now()));
            if msg == 10 {
                ctx.unicast(0, 11, "pong", 1);
            }
        }

        fn on_timer(&mut self, _timer: u64, ctx: &mut Ctx<'_, u32>) {
            self.timer_at = Some(ctx.now());
        }
    }

    impl Canonicalize for Toy {
        fn canonicalize(&self, out: &mut String) {
            let _ = write!(out, "{:?}{:?}", self.seen, self.timer_at);
        }
    }

    fn toy_sim(link: Box<dyn LinkModel>, seed: u64) -> Simulator<Toy> {
        Simulator::new(
            SimNetwork::new(Topology::grid(1, 3)),
            link,
            seed,
            Toy::fresh(3),
        )
    }

    fn toy_scenario(delay_bound: u64) -> Scenario<Toy> {
        Scenario::new("toy", delay_bound, vec![], move |link| toy_sim(link, 7))
    }

    /// The FIFO-sequential schedule is byte-identical to a plain engine
    /// run — same trace stream, same node states — including under a
    /// randomized-delay link, where capture must consume the RNG in
    /// exactly the engine's order.
    #[test]
    fn fifo_schedule_matches_engine_run() {
        let link = LossyLink::new(1, 3);
        let trace_a = Arc::new(Mutex::new(JsonlTrace::new(Vec::new())));
        let mut plain = toy_sim(Box::new(link.clone()), 99);
        plain.set_trace(Arc::clone(&trace_a));
        plain.run_to_completion();

        let trace_b = Arc::new(Mutex::new(JsonlTrace::new(Vec::new())));
        let mut captured = toy_sim(Box::new(link), 99);
        captured.set_trace(Arc::clone(&trace_b));
        let fifo = McSystem::new(captured, vec![]).run_fifo(1_000);

        let bytes_a = trace_a.lock().unwrap().writer().clone();
        let bytes_b = trace_b.lock().unwrap().writer().clone();
        assert_eq!(
            String::from_utf8(bytes_a).unwrap(),
            String::from_utf8(bytes_b).unwrap()
        );
        for (a, b) in plain.nodes().iter().zip(fifo.nodes()) {
            assert_eq!(a.seen, b.seen);
            assert_eq!(a.timer_at, b.timer_at);
        }
    }

    /// Externals enter the FIFO schedule exactly like injected messages.
    #[test]
    fn fifo_schedule_matches_engine_run_with_injection() {
        let mut plain = toy_sim(Box::new(SyncLink), 1);
        plain.inject(4, 1, 77);
        plain.run_to_completion();

        let captured = toy_sim(Box::new(SyncLink), 1);
        let fifo = McSystem::new(captured, vec![(4, 1, 77)]).run_fifo(1_000);
        for (a, b) in plain.nodes().iter().zip(fifo.nodes()) {
            assert_eq!(a.seen, b.seen);
        }
        assert!(fifo.nodes()[1].got(77));
    }

    /// Fault-free exploration is exhaustive, quiesces, never sticks, and
    /// is deterministic run to run.
    #[test]
    fn exploration_is_exhaustive_and_deterministic() {
        let scenario = toy_scenario(2);
        let config = McConfig::fault_free(2);
        let run = || {
            let mut sys = scenario.system();
            explore(&mut sys, &config, &[], Strategy::Bfs)
        };
        let a = run();
        let b = run();
        assert!(a.exhaustive(), "truncated: {a:?}");
        assert!(a.quiescent >= 1);
        assert!(a.explored > a.quiescent);
        assert!(a.violation.is_none());
        assert_eq!(a.explored, b.explored);
        assert_eq!(a.pruned, b.pruned);
        assert_eq!(a.quiescent, b.quiescent);
    }

    /// A schedule-dependent invariant violation — node 2 sees the two-hop
    /// ping before node 1 sees the one-hop ping, which requires stretching
    /// the one-hop delay — is found by BFS and replays to the same
    /// violation under the normal engine with the compiled link script.
    #[test]
    fn reordering_violation_found_and_replayed() {
        let scenario = toy_scenario(2);
        let config = McConfig::fault_free(2);
        let predicates = [Predicate::invariant(
            "one-hop-first",
            |view: &McView<Toy>| {
                if view.nodes[2].got(10) && !view.nodes[1].got(20) {
                    return Err("two-hop ping outran the one-hop ping".into());
                }
                Ok(())
            },
        )];
        let outcome = scenario.check(&config, &predicates, Strategy::Bfs);
        let violation = outcome.report.violation.expect("reordering is reachable");
        assert_eq!(violation.predicate, "one-hop-first");
        let (spec, replayed) = outcome.counterexample.expect("counterexample compiled");
        assert!(!spec.schedule.is_empty());
        assert!(
            replayed.reproduced,
            "replay diverged: ran {} events, schedule:\n{}",
            replayed.events_run,
            spec.schedule.join("\n")
        );
        assert_eq!(replayed.events_run, spec.run_events);
        assert!(!replayed.trace_jsonl.is_empty());
        // FIFO (all-ones delays) does NOT hit this ordering: the violation
        // needed the explorer.
        let fifo =
            McSystem::new(toy_sim(Box::new(ScriptedLink::pristine(2)), 7), vec![]).run_fifo(1_000);
        assert!(fifo.nodes()[1].got(20));
    }

    /// A goal violated only when the network drops a message: the drop
    /// fault is explored, the counterexample compiles to a first-hop
    /// `HopOutcome::Drop`, and the replayed run reproduces the failed
    /// goal at quiescence.
    #[test]
    fn drop_fault_counterexample_replays() {
        let scenario = toy_scenario(2);
        let mut config = McConfig::fault_free(2);
        config.faults.max_drops = 1;
        let predicates = [Predicate::goal("pong-arrives", |view: &McView<Toy>| {
            if !view.nodes[0].got(11) {
                return Err("node 0 never got the pong".into());
            }
            Ok(())
        })];
        let outcome = scenario.check(&config, &predicates, Strategy::Bfs);
        assert!(outcome.report.violation.is_some());
        let (_, replayed) = outcome.counterexample.expect("counterexample compiled");
        assert!(replayed.reproduced);
    }

    /// A crash fault kills the ponging node; the goal violation replays
    /// under a scripted crash window, exercising dead-node drops in the
    /// event-count cutoff.
    #[test]
    fn crash_fault_counterexample_replays() {
        let scenario = toy_scenario(2);
        let mut config = McConfig::fault_free(2);
        config.faults.max_crashes = 1;
        let predicates = [Predicate::goal("pong-arrives", |view: &McView<Toy>| {
            if !view.nodes[0].got(11) {
                return Err("node 0 never got the pong".into());
            }
            Ok(())
        })];
        let outcome = scenario.check(&config, &predicates, Strategy::Bfs);
        let violation = outcome
            .report
            .violation
            .as_ref()
            .expect("crash kills the pong");
        assert!(violation.path.iter().any(|t| matches!(
            t.kind,
            TransitionKind::CrashBefore | TransitionKind::CrashAfter
        )));
        let (_, replayed) = outcome.counterexample.expect("counterexample compiled");
        assert!(replayed.reproduced);
    }

    /// Duplicate faults re-deliver a message; the toy protocol records the
    /// second copy, violating an at-most-once invariant, and the replay
    /// reproduces it via a pre-run `inject_from`.
    #[test]
    fn duplicate_fault_counterexample_replays() {
        let scenario = toy_scenario(2);
        let mut config = McConfig::fault_free(2);
        config.faults.max_duplicates = 1;
        let predicates = [Predicate::invariant(
            "at-most-once",
            |view: &McView<Toy>| {
                for node in view.nodes {
                    for msg in [10u32, 20] {
                        if node.seen.iter().filter(|&&(_, m, _)| m == msg).count() > 1 {
                            return Err(format!("node {} saw {} twice", node.id, msg));
                        }
                    }
                }
                Ok(())
            },
        )];
        let outcome = scenario.check(&config, &predicates, Strategy::Bfs);
        assert!(outcome.report.violation.is_some());
        let (spec, replayed) = outcome.counterexample.expect("counterexample compiled");
        assert!(
            replayed.reproduced,
            "replay diverged, schedule:\n{}",
            spec.schedule.join("\n")
        );
    }

    /// Depth and state budgets mark the report as non-exhaustive instead
    /// of silently truncating.
    #[test]
    fn budgets_mark_truncation() {
        let scenario = toy_scenario(2);
        let mut config = McConfig::fault_free(2);
        config.max_depth = 2;
        let mut sys = scenario.system();
        let shallow = explore(&mut sys, &config, &[], Strategy::Bfs);
        assert!(!shallow.exhaustive());
        assert!(shallow.truncated_depth > 0);

        let mut config = McConfig::fault_free(2);
        config.max_states = 3;
        let mut sys = scenario.system();
        let tiny = explore(&mut sys, &config, &[], Strategy::Bfs);
        assert!(tiny.truncated_states);
        assert!(!tiny.exhaustive());
    }
}
