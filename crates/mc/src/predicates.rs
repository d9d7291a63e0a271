//! The invariant-predicate catalog interface.
//!
//! Predicates come in two flavours:
//!
//! * **Invariants** — checked on the initial state and after every
//!   transition. They must hold in every reachable state (e.g. "every
//!   node's assignment is sound", "no stray-message counter moved").
//! * **Goals** — checked only at *quiescent* states (no events in
//!   flight). They express eventual properties under the explored fault
//!   budget (e.g. "every live node ends up clustered", "the query
//!   completed with a sound answer").
//!
//! A predicate sees an [`McView`]: the protocol node states, the crashed
//! set, the clock, and how much is still in flight. It returns
//! `Err(message)` to flag a violation; the explorer stops at the first
//! violation and compiles the path into a replayable counterexample.

use std::collections::BTreeSet;

use elink_netsim::{Protocol, SimTime};

/// A read-only snapshot of a checker state, handed to predicates.
pub struct McView<'a, P: Protocol> {
    /// Protocol state per node (crashed nodes keep their last state).
    pub nodes: &'a [P],
    /// Permanently crashed nodes.
    pub crashed: &'a BTreeSet<usize>,
    /// Time of the last dispatch.
    pub now: SimTime,
    /// Number of events still in flight.
    pub pending: usize,
    /// Whether this is a terminal (no events in flight) state.
    pub quiescent: bool,
}

impl<'a, P: Protocol> McView<'a, P> {
    /// Whether node `i` is still alive.
    pub fn alive(&self, i: usize) -> bool {
        !self.crashed.contains(&i)
    }

    /// Iterator over `(id, state)` of live nodes.
    pub fn live_nodes(&self) -> impl Iterator<Item = (usize, &'a P)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.crashed.contains(i))
    }
}

/// A named property over checker states: an invariant or a goal, with the
/// closure that checks it.
pub struct Predicate<P: Protocol> {
    name: String,
    quiescent_only: bool,
    #[allow(clippy::type_complexity)]
    f: Box<dyn Fn(&McView<'_, P>) -> Result<(), String>>,
}

impl<P: Protocol> Predicate<P> {
    /// An invariant: checked at every reachable state.
    pub fn invariant(
        name: impl Into<String>,
        f: impl Fn(&McView<'_, P>) -> Result<(), String> + 'static,
    ) -> Self {
        Predicate {
            name: name.into(),
            quiescent_only: false,
            f: Box::new(f),
        }
    }

    /// A goal: checked only at quiescent states.
    pub fn goal(
        name: impl Into<String>,
        f: impl Fn(&McView<'_, P>) -> Result<(), String> + 'static,
    ) -> Self {
        Predicate {
            name: name.into(),
            quiescent_only: true,
            f: Box::new(f),
        }
    }

    /// Stable name, used in reports and violation traces.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Goals are only evaluated at quiescent states; invariants at every
    /// state.
    pub fn quiescent_only(&self) -> bool {
        self.quiescent_only
    }

    /// `Err(message)` flags a violation at this state.
    pub fn check(&self, view: &McView<'_, P>) -> Result<(), String> {
        (self.f)(view)
    }
}
