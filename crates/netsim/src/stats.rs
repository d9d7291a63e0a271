//! Message accounting (§8.2): per-kind aggregates, per-node tallies, and the
//! unified [`CostBook`] handle used by both the simulator and analytic
//! cost models.

use crate::flat::FlatMap;

/// Counters for one message kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindStats {
    /// Number of link-level transmissions (one per hop).
    pub packets: u64,
    /// Scalar-weighted cost: `Σ (payload scalars × hops)` per the paper's
    /// "one coefficient or data value per message" cost model.
    pub cost: u64,
}

impl KindStats {
    /// Adds `hops` transmissions carrying `scalars` payload scalars (at
    /// least one per hop).
    fn bill(&mut self, hops: u64, scalars: u64) {
        self.packets += hops;
        self.cost += hops * scalars.max(1);
    }

    fn merge(&mut self, other: KindStats) {
        self.packets += other.packets;
        self.cost += other.cost;
    }
}

/// Per-kind and total message statistics for a simulation run.
///
/// ```
/// let mut stats = elink_netsim::MessageStats::new();
/// stats.record("expand", 3, 4); // 3 hops × 4 coefficients
/// stats.record("ack", 2, 0);    // control messages cost 1 scalar per hop
/// assert_eq!(stats.total_packets(), 5);
/// assert_eq!(stats.total_cost(), 14);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MessageStats {
    kinds: FlatMap<&'static str, KindStats>,
}

impl MessageStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a transmission of `kind` travelling `hops` hops carrying
    /// `scalars` payload scalars (clamped to at least 1: even a pure control
    /// message occupies one message slot per hop).
    // simlint: hot
    pub fn record(&mut self, kind: &'static str, hops: u64, scalars: u64) {
        if hops == 0 {
            return; // local delivery is free
        }
        self.kinds
            .or_insert_with_name(kind, KindStats::default)
            .bill(hops, scalars);
    }

    /// Statistics for one kind (zero if never recorded).
    pub fn kind(&self, kind: &str) -> KindStats {
        self.kinds.get(kind).copied().unwrap_or_default()
    }

    /// Total link-level transmissions across kinds.
    pub fn total_packets(&self) -> u64 {
        self.kinds.values().map(|k| k.packets).sum()
    }

    /// Total scalar-weighted message cost across kinds — the paper's
    /// "number of messages" metric.
    pub fn total_cost(&self) -> u64 {
        self.kinds.values().map(|k| k.cost).sum()
    }

    /// Iterates over `(kind, stats)` pairs in kind order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, KindStats)> + '_ {
        self.kinds.iter().map(|(&k, &v)| (k, v))
    }

    /// Merges another stats object into this one (used when an experiment
    /// runs several simulator instances, e.g. clustering + querying).
    pub fn merge(&mut self, other: &MessageStats) {
        for (kind, stats) in other.iter() {
            self.kinds
                .or_insert_with(kind, KindStats::default)
                .merge(stats);
        }
    }
}

/// Per-node transmission tallies and the derived energy figure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Link-level transmissions this node originated (relays included: a
    /// forwarded unicast charges each relay one transmission).
    pub tx_packets: u64,
    /// Messages this node received (as relay or final destination).
    pub rx_packets: u64,
    /// Scalar-weighted cost of this node's transmissions.
    pub tx_cost: u64,
}

impl NodeStats {
    /// Radio energy estimate in transmission units: receiving costs roughly
    /// half a transmission on mote-class hardware.
    pub fn energy(&self) -> f64 {
        self.tx_packets as f64 + 0.5 * self.rx_packets as f64
    }
}

/// The unified accounting handle: per-kind aggregates plus (optionally)
/// per-node tallies.
///
/// Both the simulator engine and the analytic cost models (query planning,
/// non-protocol baselines, §6 maintenance) record through this one API, so
/// simulated and analytic costs merge and report identically. Books created
/// with [`CostBook::new`] track aggregates only; [`CostBook::with_nodes`]
/// adds the per-node ledger the engine fills in.
///
/// # Granularity: per hop, not per message
///
/// The book bills one transmission per *hop*: a unicast relayed over three
/// links records `packets == 3` for its kind, and each relay's
/// [`NodeStats::tx_packets`] is charged — §8.2 counts every radio that
/// fires. The trace layer counts the same unicast ONCE (one logical
/// `Send`, one `Deliver`); see the [`trace`](crate::trace) module docs for
/// the full contract and the engine regression test that pins both
/// numbers.
///
/// ```
/// let mut book = elink_netsim::CostBook::new();
/// book.record("rq_route", 3, 4);
/// assert_eq!(book.total_cost(), 12);
/// assert_eq!(book.kind("rq_route").packets, 3);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CostBook {
    kinds: MessageStats,
    nodes: Vec<NodeStats>,
    queries: QueryLedger,
}

/// The per-query ledger, indexed densely by the `QID_SUB_*` namespace
/// scheme: one row per namespace (one-shot, push, repair, control),
/// indexed by payload, for payloads below [`QueryLedger::DENSE_PAYLOADS`];
/// any other `u64` id goes to a sorted map. An id is attributed exactly
/// when its entry has `packets > 0` (attribution bills at least one hop),
/// and every row ends at an attributed id, so two ledgers holding the
/// same attributions are equal field by field.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct QueryLedger {
    dense: [Vec<KindStats>; 4],
    sparse: FlatMap<u64, KindStats>,
}

impl QueryLedger {
    /// Payloads with a dense slot: far above the query, subscription and
    /// template counts the serving layer issues, and small enough that a
    /// stray large payload costs at most 16 MiB per namespace.
    const DENSE_PAYLOADS: u64 = 1 << 20;

    /// The namespace ids that have a dense row, in ascending id order: a
    /// one-shot id has no namespace bit, a standing-query id exactly one.
    const NAMESPACES: [u64; 4] = [0, QID_SUB_PUSH, QID_SUB_REPAIR, QID_SUB_CONTROL];

    /// The dense row and payload of `qid`, if it has one.
    fn slot(qid: u64) -> Option<(usize, usize)> {
        let row = match qid >> 40 {
            0 => 0,
            1 => 1,
            2 => 2,
            4 => 3,
            _ => return None,
        };
        let payload = qid & (QID_SUB_PUSH - 1);
        (payload < Self::DENSE_PAYLOADS).then_some((row, payload as usize))
    }

    /// The entry of `qid`, created zeroed if absent.
    fn entry(&mut self, qid: u64) -> &mut KindStats {
        match Self::slot(qid) {
            Some((row, payload)) => {
                let row = &mut self.dense[row];
                if row.len() <= payload {
                    row.resize(payload + 1, KindStats::default());
                }
                &mut row[payload]
            }
            None => self.sparse.or_insert_with(qid, KindStats::default),
        }
    }

    fn get(&self, qid: u64) -> KindStats {
        match Self::slot(qid) {
            Some((row, payload)) => self.dense[row].get(payload).copied(),
            None => self.sparse.get(&qid).copied(),
        }
        .unwrap_or_default()
    }

    /// Attributed ids in ascending order: the dense rows in namespace
    /// order, merged with the sorted map.
    fn iter(&self) -> impl Iterator<Item = (u64, KindStats)> + '_ {
        let mut dense = self
            .dense
            .iter()
            .zip(Self::NAMESPACES)
            .flat_map(|(row, ns)| {
                row.iter()
                    .enumerate()
                    .filter(|(_, k)| k.packets > 0)
                    .map(move |(payload, &k)| (ns | payload as u64, k))
            })
            .peekable();
        let mut sparse = self.sparse.iter().map(|(&q, &k)| (q, k)).peekable();
        std::iter::from_fn(move || match (dense.peek(), sparse.peek()) {
            (Some(d), Some(s)) if s.0 < d.0 => sparse.next(),
            (Some(_), _) => dense.next(),
            (None, _) => sparse.next(),
        })
    }
}

impl CostBook {
    /// An empty book tracking per-kind aggregates only (analytic call-sites).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty book that additionally tracks per-node tallies for `n` nodes.
    pub fn with_nodes(n: usize) -> Self {
        CostBook {
            kinds: MessageStats::new(),
            nodes: vec![NodeStats::default(); n],
            queries: QueryLedger::default(),
        }
    }

    /// Records a transmission of `kind` travelling `hops` hops carrying
    /// `scalars` payload scalars (see [`MessageStats::record`]).
    pub fn record(&mut self, kind: &'static str, hops: u64, scalars: u64) {
        self.kinds.record(kind, hops, scalars);
    }

    /// Records a transmission originated by `node`: aggregates plus the
    /// node's tx tally. No-op on the ledger if the book has no per-node
    /// tracking or `node` is out of range.
    // simlint: hot
    pub fn record_tx(&mut self, node: usize, kind: &'static str, hops: u64, scalars: u64) {
        self.kinds.record(kind, hops, scalars);
        if hops > 0 {
            if let Some(ns) = self.nodes.get_mut(node) {
                ns.tx_packets += hops;
                ns.tx_cost += hops * scalars.max(1);
            }
        }
    }

    /// Records a reception at `node` (no aggregate cost: §8.2 charges the
    /// transmitting side).
    pub fn record_rx(&mut self, node: usize) {
        if let Some(ns) = self.nodes.get_mut(node) {
            ns.rx_packets += 1;
        }
    }

    /// Attributes `hops` transmissions carrying `scalars` payload scalars to
    /// query `qid` in the per-query ledger. Attribution rides alongside the
    /// per-kind aggregates (it does NOT add to them): when an in-network
    /// batch serves several queries with one packet, each rider is co-billed
    /// the full packet here while the wire totals count it once, so
    /// `Σ attributed − wire total = batching savings`. Zero-hop attribution
    /// is free, mirroring [`MessageStats::record`].
    // simlint: hot
    pub fn attribute_query(&mut self, qid: u64, hops: u64, scalars: u64) {
        if hops == 0 {
            return;
        }
        self.queries.entry(qid).bill(hops, scalars);
    }

    /// Cost attributed to query `qid` (zero if never attributed).
    pub fn query(&self, qid: u64) -> KindStats {
        self.queries.get(qid)
    }

    /// Iterates over `(query id, stats)` pairs in id order.
    pub fn queries(&self) -> impl Iterator<Item = (u64, KindStats)> + '_ {
        self.queries.iter()
    }

    /// Total cost attributed across all queries (co-billed: batched packets
    /// count once per rider, so this can exceed the wire total).
    pub fn total_query_cost(&self) -> u64 {
        self.queries.iter().map(|(_, k)| k.cost).sum()
    }

    /// Statistics for one kind (zero if never recorded).
    pub fn kind(&self, kind: &str) -> KindStats {
        self.kinds.kind(kind)
    }

    /// Total link-level transmissions across kinds.
    pub fn total_packets(&self) -> u64 {
        self.kinds.total_packets()
    }

    /// Total scalar-weighted message cost — the paper's "number of messages"
    /// metric.
    pub fn total_cost(&self) -> u64 {
        self.kinds.total_cost()
    }

    /// Iterates over `(kind, stats)` pairs in kind order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, KindStats)> + '_ {
        self.kinds.iter()
    }

    /// The per-kind aggregates.
    pub fn stats(&self) -> &MessageStats {
        &self.kinds
    }

    /// Tallies for `node` (zero if untracked).
    pub fn node(&self, node: usize) -> NodeStats {
        self.nodes.get(node).copied().unwrap_or_default()
    }

    /// The per-node ledger (empty unless built with
    /// [`CostBook::with_nodes`]).
    pub fn nodes(&self) -> &[NodeStats] {
        &self.nodes
    }

    /// Total radio energy estimate across tracked nodes.
    pub fn total_energy(&self) -> f64 {
        self.nodes.iter().map(NodeStats::energy).sum()
    }

    /// Merges another book into this one: aggregates always, per-node
    /// tallies element-wise (this ledger first grows to the longer one's
    /// length), per-query attribution entry-wise.
    pub fn merge(&mut self, other: &CostBook) {
        self.kinds.merge(&other.kinds);
        if self.nodes.len() < other.nodes.len() {
            self.nodes.resize(other.nodes.len(), NodeStats::default());
        }
        for (mine, theirs) in self.nodes.iter_mut().zip(&other.nodes) {
            mine.tx_packets += theirs.tx_packets;
            mine.rx_packets += theirs.rx_packets;
            mine.tx_cost += theirs.tx_cost;
        }
        for (qid, stats) in other.queries() {
            self.queries.entry(qid).merge(stats);
        }
    }
}

// -- query-id attribution namespaces ----------------------------------------
//
// One-shot queries use small dense ids (0..n_queries, far below bit 40).
// Standing-query (subscription) traffic reuses the same per-query
// attribution channel — `CostBook` ledgers and trace `qid` tags — with a
// namespace bit set, so offline tooling (`trace_summary`) can split wire
// traffic by serving kind without a side table.

/// Namespace bit tagging subscription *push* traffic (coordinator →
/// subscriber delta pushes and their acks). Payload: subscription id.
pub const QID_SUB_PUSH: u64 = 1 << 40;

/// Namespace bit tagging incremental *repair* traffic (watcher-root
/// re-descents and cluster contributions). Payload: template index.
pub const QID_SUB_REPAIR: u64 = 1 << 41;

/// Namespace bit tagging subscription *control* traffic (registration,
/// watch fan-out, takeover re-announcements). Payload: subscription id or
/// template index.
pub const QID_SUB_CONTROL: u64 = 1 << 42;

/// Classifies a tagged query id into its serving kind: `"push"`,
/// `"repair"`, `"control"`, or `"oneshot"` for plain query ids.
pub fn qid_kind(qid: u64) -> &'static str {
    if qid & QID_SUB_PUSH != 0 {
        "push"
    } else if qid & QID_SUB_REPAIR != 0 {
        "repair"
    } else if qid & QID_SUB_CONTROL != 0 {
        "control"
    } else {
        "oneshot"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_accumulates() {
        let mut s = MessageStats::new();
        s.record("expand", 3, 4);
        s.record("expand", 1, 4);
        assert_eq!(
            s.kind("expand"),
            KindStats {
                packets: 4,
                cost: 16
            }
        );
        assert_eq!(s.total_packets(), 4);
        assert_eq!(s.total_cost(), 16);
    }

    #[test]
    fn control_messages_cost_one_per_hop() {
        let mut s = MessageStats::new();
        s.record("ack", 5, 0);
        assert_eq!(
            s.kind("ack"),
            KindStats {
                packets: 5,
                cost: 5
            }
        );
    }

    #[test]
    fn zero_hop_is_free() {
        let mut s = MessageStats::new();
        s.record("self", 0, 10);
        assert_eq!(s.total_packets(), 0);
        assert_eq!(s.total_cost(), 0);
    }

    #[test]
    fn unknown_kind_is_zero() {
        let s = MessageStats::new();
        assert_eq!(s.kind("nothing"), KindStats::default());
    }

    #[test]
    fn merge_combines() {
        let mut a = MessageStats::new();
        a.record("x", 1, 2);
        let mut b = MessageStats::new();
        b.record("x", 1, 3);
        b.record("y", 2, 1);
        a.merge(&b);
        assert_eq!(
            a.kind("x"),
            KindStats {
                packets: 2,
                cost: 5
            }
        );
        assert_eq!(
            a.kind("y"),
            KindStats {
                packets: 2,
                cost: 2
            }
        );
    }

    #[test]
    fn iter_in_kind_order() {
        let mut s = MessageStats::new();
        s.record("b", 1, 1);
        s.record("a", 1, 1);
        let kinds: Vec<_> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(kinds, vec!["a", "b"]);
    }

    #[test]
    fn cost_book_aggregates_match_message_stats() {
        let mut book = CostBook::new();
        book.record("x", 3, 4);
        book.record("x", 1, 4);
        assert_eq!(
            book.kind("x"),
            KindStats {
                packets: 4,
                cost: 16
            }
        );
        assert_eq!(book.total_packets(), 4);
        assert_eq!(book.total_cost(), 16);
        assert_eq!(book.stats().total_cost(), 16);
        // No ledger: node tallies read as zero, tx recording is aggregate-only.
        book.record_tx(2, "y", 1, 1);
        assert_eq!(book.node(2), NodeStats::default());
        assert_eq!(book.kind("y").packets, 1);
    }

    #[test]
    fn cost_book_tracks_per_node_tallies() {
        let mut book = CostBook::with_nodes(3);
        book.record_tx(0, "m", 2, 5);
        book.record_rx(1);
        book.record_rx(1);
        assert_eq!(
            book.node(0),
            NodeStats {
                tx_packets: 2,
                rx_packets: 0,
                tx_cost: 10
            }
        );
        assert_eq!(book.node(1).rx_packets, 2);
        assert_eq!(book.node(2), NodeStats::default());
        assert!((book.total_energy() - 3.0).abs() < 1e-12); // 2 tx + 2 rx/2
    }

    #[test]
    fn cost_book_merge_combines_ledgers() {
        let mut a = CostBook::with_nodes(2);
        a.record_tx(0, "m", 1, 1);
        let mut b = CostBook::with_nodes(3);
        b.record_tx(2, "m", 3, 2);
        b.record_rx(1);
        a.merge(&b);
        assert_eq!(
            a.kind("m"),
            KindStats {
                packets: 4,
                cost: 7
            }
        );
        assert_eq!(a.nodes().len(), 3);
        assert_eq!(a.node(0).tx_packets, 1);
        assert_eq!(a.node(1).rx_packets, 1);
        assert_eq!(a.node(2).tx_cost, 6);
    }

    #[test]
    fn query_ledger_attributes_and_merges() {
        let mut book = CostBook::new();
        book.attribute_query(7, 2, 5); // 2 hops × 5 scalars
        book.attribute_query(7, 1, 0); // control: 1 scalar minimum
        book.attribute_query(9, 3, 1);
        book.attribute_query(9, 0, 100); // zero-hop is free
        assert_eq!(
            book.query(7),
            KindStats {
                packets: 3,
                cost: 11
            }
        );
        assert_eq!(book.query(9).packets, 3);
        assert_eq!(book.query(1), KindStats::default());
        assert_eq!(book.total_query_cost(), 14);
        let ids: Vec<u64> = book.queries().map(|(q, _)| q).collect();
        assert_eq!(ids, vec![7, 9]);
        // Attribution does not leak into wire aggregates.
        assert_eq!(book.total_packets(), 0);

        let mut other = CostBook::new();
        other.attribute_query(7, 1, 2);
        other.attribute_query(11, 1, 1);
        book.merge(&other);
        assert_eq!(book.query(7).cost, 13);
        assert_eq!(book.query(11).packets, 1);
    }

    #[test]
    fn zero_scalars_still_cost_one_per_hop() {
        let mut book = CostBook::with_nodes(1);
        book.record_tx(0, "ack", 5, 0);
        assert_eq!(book.node(0).tx_cost, 5);
        assert_eq!(book.total_cost(), 5);
    }
}
