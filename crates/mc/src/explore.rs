//! DFS/BFS exploration with fingerprint pruning.
//!
//! The explorer walks the schedule graph defined by
//! [`McSystem::transitions`], checking invariants after every edge and
//! goals at quiescent states, pruning states whose fingerprint was seen
//! before, and truncating paths at the depth/state budgets. BFS finds a
//! *minimal* (fewest-transitions) counterexample; DFS uses less memory on
//! deep graphs. Everything is deterministic: transition enumeration order,
//! queue discipline, and fingerprints contain no addresses or RNG.

use std::collections::{HashSet, VecDeque};
use std::fmt::Debug;

use elink_netsim::{Canonicalize, Protocol};

use crate::predicates::{McView, Predicate};
use crate::system::{McConfig, McState, McSystem, Transition};

/// Exploration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Depth-first: low memory, counterexamples not length-minimal.
    Dfs,
    /// Breadth-first: counterexamples have the fewest transitions.
    Bfs,
}

/// A predicate violation plus the schedule that reaches it.
#[derive(Debug, Clone)]
pub struct ViolationReport {
    /// Name of the violated predicate.
    pub predicate: String,
    /// The predicate's message at the violating state.
    pub message: String,
    /// Transition sequence from the initial state to the violation.
    pub path: Vec<Transition>,
    /// `path.len()`.
    pub depth: usize,
}

/// What an exploration saw.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// States expanded (transition enumeration ran).
    pub explored: u64,
    /// Successor states skipped because their fingerprint was seen.
    pub pruned: u64,
    /// Distinct quiescent states reached.
    pub quiescent: u64,
    /// Paths truncated at `max_depth` before quiescing.
    pub truncated_depth: u64,
    /// True if the `max_states` budget stopped the exploration early — the
    /// pass was *not* exhaustive.
    pub truncated_states: bool,
    /// Non-quiescent states with no enabled transition. Always zero if the
    /// schedule model is sound; reported so a gate can assert it.
    pub stuck: u64,
    /// Deepest path expanded.
    pub max_depth_seen: usize,
    /// First violation found (BFS: minimal), if any.
    pub violation: Option<ViolationReport>,
}

impl ExploreReport {
    /// Exhaustive under the budgets: every reachable state (mod
    /// fingerprint merging) within the depth bound was visited.
    pub fn exhaustive(&self) -> bool {
        !self.truncated_states && self.truncated_depth == 0 && self.stuck == 0
    }
}

fn check_state<P: Protocol>(
    s: &McState<P>,
    predicates: &[Predicate<P>],
    path: &[Transition],
) -> Option<ViolationReport> {
    let view = McView {
        nodes: &s.nodes,
        crashed: &s.crashed,
        now: s.now,
        pending: s.pending_len(),
        quiescent: s.quiescent(),
    };
    for p in predicates {
        if p.quiescent_only() && !view.quiescent {
            continue;
        }
        if let Err(message) = p.check(&view) {
            return Some(ViolationReport {
                predicate: p.name().to_string(),
                message,
                path: path.to_vec(),
                depth: path.len(),
            });
        }
    }
    None
}

/// Explores the schedule graph of `sys` under `config`, evaluating
/// `predicates`, and returns what it saw. Stops at the first violation.
///
/// # Panics
/// Panics if the system is not explorable (non-deterministic link, ARQ
/// enabled, or a delay-bound mismatch) — see
/// [`McSystem::assert_explorable`].
pub fn explore<P>(
    sys: &mut McSystem<P>,
    config: &McConfig,
    predicates: &[Predicate<P>],
    strategy: Strategy,
) -> ExploreReport
where
    P: Protocol + Clone + Canonicalize,
    P::Msg: Clone + Debug,
{
    sys.assert_explorable(config);
    let mut report = ExploreReport::default();
    let init = sys.init_state();
    if let Some(v) = check_state(&init, predicates, &[]) {
        report.violation = Some(v);
        return report;
    }
    let mut seen: HashSet<u64> = HashSet::new();
    seen.insert(sys.fingerprint(&init));
    // DFS pops from the back, BFS from the front, of one deque.
    let mut frontier: VecDeque<(McState<P>, Vec<Transition>)> = VecDeque::new();
    frontier.push_back((init, Vec::new()));

    while let Some((state, path)) = match strategy {
        Strategy::Dfs => frontier.pop_back(),
        Strategy::Bfs => frontier.pop_front(),
    } {
        if report.explored >= config.max_states {
            report.truncated_states = true;
            break;
        }
        report.explored += 1;
        report.max_depth_seen = report.max_depth_seen.max(path.len());
        if state.quiescent() {
            report.quiescent += 1;
            continue;
        }
        if path.len() >= config.max_depth {
            report.truncated_depth += 1;
            continue;
        }
        let transitions = sys.transitions(&state, config);
        if transitions.is_empty() {
            report.stuck += 1;
            continue;
        }
        for tr in transitions {
            let next = sys.apply(&state, tr);
            let mut next_path = path.clone();
            next_path.push(tr);
            if let Some(v) = check_state(&next, predicates, &next_path) {
                report.violation = Some(v);
                return report;
            }
            if seen.insert(sys.fingerprint(&next)) {
                frontier.push_back((next, next_path));
            } else {
                report.pruned += 1;
            }
        }
    }
    report
}
