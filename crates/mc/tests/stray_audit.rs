//! The let-else silent-drop audit for `elink_core::protocol`.
//!
//! Every `let … else { return }` drop path in the growth protocol is now a
//! named [`elink_core::stray`] site. These tests pin the audited behaviour
//! of the mc-reachable ones:
//!
//! * **`phase1-after-complete`** — a Phase1 redelivered after its
//!   `(cell, level)` wave completed is *absorbed* by the `phase1_done`
//!   dedup guard: the stray is recorded, no counter re-opens, no messages
//!   emit, and the clustering stands.
//! * **`ack1-unknown-root` / `ack2-unknown-root`** — acks for a cluster
//!   the receiver never joined are recorded and dropped without emitting.
//! * **Mid-wave ack duplication** — deliberately *not* tolerated (duplicate
//!   suppression is ARQ's job): the checker proves a single duplicated
//!   message can deadlock explicit-mode growth, and the compiled
//!   counterexample reproduces under the production engine.
//!
//! The fault-free side (no site fires at all) is pinned by the scenario
//! suite's `no-unexpected-strays` invariant with an empty allow list.

use std::sync::Arc;

use elink_core::{build_sim, stray, ElinkConfig, ElinkMsg, ElinkNode, SignalMode};
use elink_mc::scenarios::elink_growth;
use elink_mc::{FaultBudget, McConfig, Strategy};
use elink_metric::{Absolute, Feature};
use elink_netsim::{McEvent, ScriptedLink, SimNetwork, Simulator};
use elink_topology::Topology;

/// Every named drop site: the allow list for fault-injected exploration
/// (faults make each of these legitimately reachable; the audit is that
/// nothing *outside* this list ever fires).
const ALL_SITES: &[&str] = &[
    stray::SITE_SENTINEL_NOT_LEADER,
    stray::SITE_PHASE1_NOT_LEADER,
    stray::SITE_PHASE2_NOT_LEADER,
    stray::SITE_START_NOT_LEADER,
    stray::SITE_PHASE1_AFTER_COMPLETE,
    stray::SITE_ACK1_UNKNOWN_ROOT,
    stray::SITE_ACK2_UNKNOWN_ROOT,
    stray::SITE_COMPLETION_UNKNOWN_ROOT,
];

/// Drives the scenario simulator through the capture seam on the engine's
/// own FIFO order, returning the completed sim, every Phase1 delivery seen,
/// and the quiescence time.
fn run_growth_collecting_phase1() -> (Simulator<ElinkNode>, Vec<McEvent<ElinkMsg>>, u64) {
    let features = vec![
        Feature::scalar(0.0),
        Feature::scalar(4.0),
        Feature::scalar(100.0),
    ];
    let mut sim = build_sim(
        &SimNetwork::new(Topology::grid(1, 3)),
        &features,
        Arc::new(Absolute),
        ElinkConfig::for_delta(elink_growth::DELTA),
        SignalMode::Explicit,
        ScriptedLink::pristine(2),
        11,
    );
    let mut queue: Vec<(u64, McEvent<ElinkMsg>)> = Vec::new();
    let mut seq = 0u64;
    for ev in sim.capture_boot() {
        queue.push((seq, ev));
        seq += 1;
    }
    let mut phase1 = Vec::new();
    let mut end = 0u64;
    while let Some(i) = (0..queue.len()).min_by_key(|&i| (queue[i].1.time(), queue[i].0)) {
        let (_, ev) = queue.remove(i);
        end = end.max(ev.time());
        if matches!(ev.message(), Some(ElinkMsg::Phase1 { .. })) {
            phase1.push(ev.clone());
        }
        for out in sim.capture_dispatch(ev.time(), &ev).events {
            queue.push((seq, out));
            seq += 1;
        }
    }
    (sim, phase1, end)
}

fn assignments(sim: &Simulator<ElinkNode>) -> Vec<(bool, usize)> {
    sim.nodes()
        .iter()
        .enumerate()
        .map(|(id, n)| (n.clustered, n.cluster_state(id).0))
        .collect()
}

#[test]
fn clean_growth_fires_no_drop_site() {
    let (sim, phase1, _) = run_growth_collecting_phase1();
    assert!(!phase1.is_empty(), "explicit growth must run phase-1 waves");
    for (id, node) in sim.nodes().iter().enumerate() {
        assert!(
            node.stray_drops.is_empty(),
            "node {id} hit drop sites on a clean run: {:?}",
            node.stray_drops
        );
    }
}

#[test]
fn duplicate_phase1_after_completion_is_absorbed() {
    let (mut sim, phase1, end) = run_growth_collecting_phase1();
    let before = assignments(&sim);
    let settled: Vec<usize> = sim
        .nodes()
        .iter()
        .map(ElinkNode::unsettled_subtrees)
        .collect();
    for ev in &phase1 {
        let harvested = sim.capture_dispatch(end + 1, ev).events;
        assert!(
            harvested.is_empty(),
            "redelivered Phase1 must be absorbed, emitted {} event(s)",
            harvested.len()
        );
        assert!(
            sim.nodes()[ev.node()]
                .stray_drops
                .contains(&stray::SITE_PHASE1_AFTER_COMPLETE),
            "phase1_done guard did not record the dedup"
        );
    }
    assert_eq!(before, assignments(&sim), "clustering changed");
    let after: Vec<usize> = sim
        .nodes()
        .iter()
        .map(ElinkNode::unsettled_subtrees)
        .collect();
    assert_eq!(settled, after, "a completed wave re-opened");
}

#[test]
fn acks_for_unknown_roots_are_recorded_and_dropped() {
    let (mut sim, _, end) = run_growth_collecting_phase1();
    let before = assignments(&sim);
    // Node 2 (feature 100) never joined cluster 0; both ack classes must
    // hit their unknown-root site without emitting anything.
    let ack1 = McEvent::external(end + 1, 2, ElinkMsg::Ack1 { root: 0 });
    assert!(sim.capture_dispatch(end + 1, &ack1).events.is_empty());
    let ack2 = McEvent::external(end + 2, 2, ElinkMsg::Ack2 { root: 0 });
    assert!(sim.capture_dispatch(end + 2, &ack2).events.is_empty());
    let strays = &sim.nodes()[2].stray_drops;
    assert!(
        strays.contains(&stray::SITE_ACK1_UNKNOWN_ROOT),
        "{strays:?}"
    );
    assert!(
        strays.contains(&stray::SITE_ACK2_UNKNOWN_ROOT),
        "{strays:?}"
    );
    assert_eq!(before, assignments(&sim), "stray acks mutated state");
}

#[test]
fn one_duplicated_message_can_deadlock_growth() {
    // The ack counters tolerate no duplicates by design — suppression is
    // the reliable transport's job. The checker must find a duplication
    // schedule that stalls growth, every stray fired along the way must be
    // a named (allowed) site, and the counterexample must replay.
    let mut config = McConfig::fault_free(2);
    config.faults = FaultBudget {
        max_duplicates: 1,
        ..FaultBudget::default()
    };
    let outcome = elink_growth::three_node().check(
        &config,
        &elink_growth::predicates(ALL_SITES),
        Strategy::Bfs,
    );
    let violation = outcome
        .report
        .violation
        .as_ref()
        .expect("a duplicated message must break unprotected growth");
    assert_ne!(
        violation.predicate, "no-unexpected-strays",
        "an unaudited drop site fired: {violation:?}"
    );
    let (_, replay) = outcome.counterexample.expect("violation compiles");
    assert!(
        replay.reproduced,
        "counterexample did not reproduce: {:?}",
        replay.message
    );
}
