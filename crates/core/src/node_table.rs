//! Dense node handles and flat, cache-friendly collections.
//!
//! The protocol crates originally kept per-node state in nested
//! `BTreeMap<NodeId, _>` / `BTreeSet<NodeId>` structures. Those are
//! pointer-rich: every entry is a separate heap node, lookups chase
//! cache-cold pointers, and clones on the broadcast hot path allocate per
//! message. At the fleet sizes the paper targets (§8: hundreds of nodes;
//! ROADMAP: 10⁴–10⁵) this dominates the simulator's wall-clock.
//!
//! This module provides the memory-lean replacements used across `core`,
//! `workload` and `baselines`:
//!
//! * [`NodeTable`] — the explicit registry mapping public
//!   [`NodeId`](elink_topology::NodeId)s to
//!   dense [`NodeHandle`]s (`u32`). Node ids in this codebase are already
//!   dense `0..n`, so the mapping is a checked cast; the registry makes the
//!   narrowing explicit, owns the `n ≤ u32::MAX` invariant, and gives
//!   struct-of-arrays columns ([`NodeTable::column`]) a single authority
//!   for their length.
//! * [`FlatMap`] / [`FlatSet`] — sorted-vector map/set with binary-search
//!   lookup, re-exported from [`elink_netsim::flat`] (where the cost
//!   ledgers and the metrics registry use them too). One contiguous
//!   allocation, no per-entry boxes, and iteration order identical to the
//!   `BTreeMap`/`BTreeSet` they replace (ascending by key) — which is what
//!   keeps `CostBook` and `JsonlTrace` output byte-identical across the
//!   refactor.
//!
//! # Handle lifetimes
//!
//! A [`NodeHandle`] is valid for exactly the lifetime of the [`NodeTable`]
//! that issued it (in practice: one simulation run over one topology).
//! Handles are plain indices — they carry no generation tag — so they must
//! never be stored across runs or across tables of different sizes; debug
//! builds assert bounds on every translation.

pub use elink_netsim::flat::{FlatMap, FlatSet};
use elink_topology::NodeId;

/// Dense `u32` handle for a node, issued by a [`NodeTable`].
///
/// Handles order and compare exactly like the [`NodeId`]s they stand for
/// (the registry preserves order), so `FlatMap<NodeHandle, _>` iterates in
/// the same sequence as the `BTreeMap<NodeId, _>` it replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeHandle(u32);

impl NodeHandle {
    /// The raw dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Registry translating public [`NodeId`]s to dense [`NodeHandle`]s.
///
/// Owns the fleet-size invariant (`n ≤ u32::MAX`) and is the single
/// authority for the length of struct-of-arrays columns.
#[derive(Debug, Clone)]
pub struct NodeTable {
    n: u32,
}

impl NodeTable {
    /// Builds a registry for a fleet of `n` nodes with ids `0..n`.
    ///
    /// # Panics
    /// Panics if `n` exceeds `u32::MAX`.
    pub fn new(n: usize) -> Self {
        assert!(u32::try_from(n).is_ok(), "fleet too large for u32 handles");
        NodeTable { n: n as u32 }
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.n as usize
    }

    /// Whether the fleet is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The dense handle for a node id.
    ///
    /// # Panics
    /// Debug-asserts that the id is registered (`id < n`).
    #[inline]
    pub fn handle(&self, id: NodeId) -> NodeHandle {
        debug_assert!(id < self.n as usize, "node id {id} out of table range");
        NodeHandle(id as u32)
    }

    /// The public node id behind a handle.
    #[inline]
    pub fn id(&self, h: NodeHandle) -> NodeId {
        debug_assert!(h.0 < self.n, "stale handle {h:?} for table of {}", self.n);
        h.0 as usize
    }

    /// Allocates a struct-of-arrays column: one `T` per registered node,
    /// indexable by [`NodeHandle::index`].
    pub fn column<T: Clone>(&self, fill: T) -> Vec<T> {
        vec![fill; self.len()]
    }

    /// Iterates all handles in ascending id order.
    pub fn handles(&self) -> impl Iterator<Item = NodeHandle> {
        (0..self.n).map(NodeHandle)
    }
}

/// Applies a `(adds, removes)` delta to a sorted view in place, preserving
/// sortedness. Adds and removes are set operations (idempotent), so a delta
/// applied to the exact base it was computed against reproduces the new
/// set.
pub fn apply_diff_sorted(view: &mut Vec<NodeId>, adds: &[NodeId], removes: &[NodeId]) {
    for &r in removes {
        if let Ok(i) = view.binary_search(&r) {
            view.remove(i);
        }
    }
    for &a in adds {
        if let Err(i) = view.binary_search(&a) {
            view.insert(i, a);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_table_round_trips_ids() {
        let table = NodeTable::new(5);
        assert_eq!(table.len(), 5);
        for id in 0..5 {
            assert_eq!(table.id(table.handle(id)), id);
        }
        let ids: Vec<_> = table.handles().map(|h| table.id(h)).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
        assert_eq!(table.column(0u8).len(), 5);
    }

    #[test]
    fn handles_order_like_ids() {
        let table = NodeTable::new(10);
        assert!(table.handle(3) < table.handle(7));
        assert_eq!(table.handle(4), table.handle(4));
    }
}
