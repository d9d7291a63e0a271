//! The ELink node protocol (Figs 16–18).
//!
//! One [`ElinkNode`] instance runs at every sensor. Three signalling modes
//! share the same expansion rule (Fig 16):
//!
//! * [`SignalMode::Implicit`] (§4, Fig 17): each node arms a timer at
//!   `T = Σ_{j<l} t_j` for its (shallowest) sentinel level `l` and runs
//!   ELink when it expires. Correct on synchronous networks.
//! * [`SignalMode::Explicit`] (§5, Fig 18): `ack1` registers cluster-tree
//!   children, `ack2` waves report subtree completion, `phase 1` ascends the
//!   quadtree to the root, `phase 2` descends, and `start` triggers the next
//!   sentinel level. Correct on asynchronous networks.
//! * [`SignalMode::Unordered`] (§5, closing remark): every sentinel starts
//!   at once — the `O(√N)`-time ablation whose quality suffers from
//!   contention. The same-level switch restriction is lifted because levels
//!   are meaningless when everything runs concurrently.
//!
//! Cluster switching implements Fig 16's printed condition: a clustered
//! node switches only to a same-level sentinel with
//! `d(F_rj, F_i) < d(F_ri, F_i) + φ` (a φ-tolerance, which is what lets
//! freshly self-rooted sentinels dissolve into neighbor clusters — the
//! "fewer than five clusters" case of §3.2), at most `c` times, and never
//! back into a cluster it has left (see DESIGN.md for the rationale).

use crate::config::ElinkConfig;
use crate::quadinfo::{CellId, QuadInfo, ROOT};
use elink_metric::{Feature, Metric};
use elink_netsim::{canon_f64, Canonicalize, Ctx, FlatMap, FlatSet, Protocol};
use elink_topology::NodeId;
use std::sync::Arc;

/// Messages exchanged by ELink.
#[derive(Debug, Clone)]
pub enum ElinkMsg {
    /// Cluster expansion (Fig 16): carries the root feature, root id and the
    /// sentinel level that grew the cluster.
    Expand {
        /// Cluster root id.
        root: NodeId,
        /// Root feature `F_r` (payload: `dim` scalars).
        root_feature: Feature,
        /// Sentinel level `n` of the cluster root.
        level: usize,
    },
    /// Explicit mode: "I joined your cluster as your child" (Fig 18).
    Ack1 {
        /// Root of the cluster joined.
        root: NodeId,
    },
    /// Explicit mode: "the cluster subtree under me is fully expanded".
    Ack2 {
        /// Root of the cluster.
        root: NodeId,
    },
    /// Explicit mode: quadtree up-sweep announcing completion of level
    /// `level`. Addressed to the leader of `cell`.
    Phase1 {
        /// The receiving leader's cell.
        cell: CellId,
        /// The sentinel level that completed.
        level: usize,
    },
    /// Explicit mode: quadtree down-sweep after the root learned that level
    /// `level` completed.
    Phase2 {
        /// The receiving leader's cell.
        cell: CellId,
        /// The completed level.
        level: usize,
        /// Hop count accumulated since the root issued the wave — the
        /// bounded-delay start-alignment hint (see [`ElinkMsg::Start`]).
        elapsed: u64,
    },
    /// Explicit mode: "begin ELink for your cell" (sent to the next level's
    /// sentinels).
    ///
    /// Carries the hops accumulated since the quadtree root released the
    /// level: a sentinel delays its expansion by the residual of a fixed
    /// per-level budget so that all same-level sentinels begin (nearly)
    /// simultaneously. Without this Awerbuch-style synchronization hint
    /// (\[4\], which the paper's explicit technique builds on), early `start`
    /// arrivals give some sentinels a multi-hop head start and the output
    /// diverges from the implicit variant on irregular topologies.
    Start {
        /// The receiving leader's cell.
        cell: CellId,
        /// Accumulated hops since the wave was released.
        elapsed: u64,
    },
}

/// Signalling discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignalMode {
    /// Timer-scheduled levels (synchronous networks, §4).
    Implicit,
    /// Message-synchronized levels (asynchronous networks, §5).
    Explicit,
    /// All sentinels at once (§5 ablation).
    Unordered,
}

/// Timer ids: `SCHEDULE` starts ELink in implicit/unordered mode;
/// `START_BASE + cell` delays an aligned explicit start for one led cell;
/// `LEAF_BASE + root` is the per-cluster leaf-detection timeout. Cell ids
/// and node ids are both bounded by 2³² in practice, so the ranges are
/// disjoint.
const TIMER_SCHEDULE: u64 = 0;
const TIMER_START_BASE: u64 = 1 << 40;
const TIMER_LEAF_BASE: u64 = 1;

/// Phase names for the per-level cluster-growth spans recorded in the
/// metrics registry (keys must be `&'static str`; deep levels share one
/// bucket — quadtree depth is `O(log₄ N)`, so 8 named levels cover every
/// practical run).
const GROWTH_PHASES: [&str; 9] = [
    "growth.l0",
    "growth.l1",
    "growth.l2",
    "growth.l3",
    "growth.l4",
    "growth.l5",
    "growth.l6",
    "growth.l7",
    "growth.l8plus",
];

/// The growth-phase name for a sentinel level.
fn growth_phase(level: usize) -> &'static str {
    GROWTH_PHASES[level.min(GROWTH_PHASES.len() - 1)]
}

/// Packs a `(cell, level)` phase-1 key into one `u64`. Quadtree depth is
/// `O(log₄ N)` so levels fit 16 bits with room to spare; packed keys sort
/// exactly like the `(CellId, usize)` tuples they replace.
fn phase1_key(cell: CellId, level: usize) -> u64 {
    debug_assert!(level < (1 << 16), "quadtree level {level} out of range");
    debug_assert!((cell as u64) < (1 << 48), "cell id {cell} out of range");
    ((cell as u64) << 16) | level as u64
}

/// Per-cluster bookkeeping for the explicit completion waves.
#[derive(Debug, Clone)]
struct Subtree {
    /// Cluster-tree parent at join time (`None` when this node rooted the
    /// cluster itself).
    parent: Option<NodeId>,
    /// Outstanding `ack2`s from children recruited by this node.
    pending_children: usize,
    /// Whether the leaf-detection timeout has expired (no more `ack1`s can
    /// arrive).
    wait_done: bool,
    /// Whether completion has already been reported upward.
    acked: bool,
    /// For self-rooted clusters: the quadtree cell whose `start` triggered
    /// the expansion (drives the `phase 1` report on completion).
    sentinel_cell: Option<CellId>,
}

/// Named silent-drop sites (see [`ElinkNode::stray_drops`]).
///
/// Every guard in the protocol that discards an event instead of handling
/// it records one of these markers. The model checker's
/// `no-unexpected-strays` invariant asserts that only the sites justified
/// for the explored fault budget ever fire; anything else is a routing or
/// bookkeeping bug, not benign noise. The rationale per site:
///
/// * `SITE_SENTINEL_NOT_LEADER`, `SITE_PHASE1_NOT_LEADER`,
///   `SITE_PHASE2_NOT_LEADER`, `SITE_START_NOT_LEADER` — quadtree messages
///   are addressed by the static [`QuadInfo`] tables, so a leader mismatch
///   cannot arise from delay, loss, duplication or crash faults; these
///   remain `debug_assert`ed and are expected to stay silent under any
///   fault budget.
/// * `SITE_PHASE1_AFTER_COMPLETE` — a `phase 1` report for a `(cell,
///   level)` wave that already completed. Unreachable without duplication;
///   under duplicate faults the dedup below absorbs it (justified allow).
/// * `SITE_ACK1_UNKNOWN_ROOT`, `SITE_ACK2_UNKNOWN_ROOT`,
///   `SITE_COMPLETION_UNKNOWN_ROOT` — `ack` bookkeeping for a cluster this
///   node never joined. Unreachable without message corruption (acks flow
///   strictly child → recruiting parent).
pub mod stray {
    /// `sentinel_complete` for a cell this node does not lead.
    pub const SITE_SENTINEL_NOT_LEADER: &str = "sentinel-complete-not-leader";
    /// `phase 1` addressed to a non-leader.
    pub const SITE_PHASE1_NOT_LEADER: &str = "phase1-not-leader";
    /// `phase 2` addressed to a non-leader.
    pub const SITE_PHASE2_NOT_LEADER: &str = "phase2-not-leader";
    /// Aligned-start timer for a cell this node does not lead.
    pub const SITE_START_NOT_LEADER: &str = "start-timer-not-leader";
    /// `phase 1` for an already-completed `(cell, level)` wave.
    pub const SITE_PHASE1_AFTER_COMPLETE: &str = "phase1-after-complete";
    /// `ack1` for a cluster without local subtree state.
    pub const SITE_ACK1_UNKNOWN_ROOT: &str = "ack1-unknown-root";
    /// `ack2` for a cluster without local subtree state.
    pub const SITE_ACK2_UNKNOWN_ROOT: &str = "ack2-unknown-root";
    /// Completion check for a cluster without local subtree state.
    pub const SITE_COMPLETION_UNKNOWN_ROOT: &str = "completion-unknown-root";
}

/// What every node of one run shares: fixed at construction and never
/// written by a handler. [`build_sim`](crate::build_sim) builds one block
/// for the whole fleet, so a node carries one pointer instead of a copy.
struct Shared {
    metric: Arc<dyn Metric>,
    config: ElinkConfig,
    mode: SignalMode,
    quad: Arc<QuadInfo>,
    n: usize,
}

impl Shared {
    fn new(
        n: usize,
        metric: Arc<dyn Metric>,
        config: ElinkConfig,
        mode: SignalMode,
        quad: Arc<QuadInfo>,
    ) -> Arc<Shared> {
        // Cluster roots key the per-node tables as `u32` ids.
        assert!(u32::try_from(n).is_ok(), "fleet too large for u32 node ids");
        Arc::new(Shared {
            metric,
            config,
            mode,
            quad,
            n,
        })
    }
}

/// Explicit mode's synchronization bookkeeping (Fig 18). Boxed and
/// allocated on first use, so implicit and unordered runs never pay for it.
#[derive(Debug, Clone, Default)]
struct Explicit {
    /// Keyed by cluster root id.
    subtrees: FlatMap<u32, Subtree>,
    /// Keyed by `(cell, level)` packed into one `u64` (see
    /// [`phase1_key`]) — one contiguous allocation instead of a tree of
    /// two-word tuples.
    phase1_pending: FlatMap<u64, usize>,
    /// `(cell, level)` fan-in waves that already completed (see
    /// [`phase1_key`]). A duplicated `phase 1` arriving after its wave's
    /// counter was removed would otherwise re-open the counter at full
    /// fan-in and deadlock the synchronization.
    phase1_done: FlatSet<u64>,
}

/// Entries [`JoinedRoots`] keeps inline: a node joins at most `1 + c`
/// clusters (its own as a sentinel, then `c` switches), 5 at the paper's
/// `c = 4`.
const JOINED_INLINE: usize = 5;

/// The roots of every cluster a node has joined, as `u32` ids in ascending
/// order: inline up to [`JOINED_INLINE`] entries, on the heap
/// beyond (only for `c > 4`).
#[derive(Debug, Clone)]
enum JoinedRoots {
    Inline {
        len: u8,
        roots: [u32; JOINED_INLINE],
    },
    Spilled(Box<[u32]>),
}

impl JoinedRoots {
    const EMPTY: JoinedRoots = JoinedRoots::Inline {
        len: 0,
        roots: [0; JOINED_INLINE],
    };

    /// The roots, ascending.
    fn as_slice(&self) -> &[u32] {
        match self {
            JoinedRoots::Inline { len, roots } => &roots[..usize::from(*len)],
            JoinedRoots::Spilled(roots) => roots,
        }
    }

    fn contains(&self, root: u32) -> bool {
        self.as_slice().binary_search(&root).is_ok()
    }

    fn insert(&mut self, root: u32) {
        let Err(at) = self.as_slice().binary_search(&root) else {
            return;
        };
        match self {
            JoinedRoots::Inline { len, roots } if usize::from(*len) < JOINED_INLINE => {
                roots.copy_within(at..usize::from(*len), at + 1);
                roots[at] = root;
                *len += 1;
            }
            _ => {
                let mut all = self.as_slice().to_vec();
                all.insert(at, root);
                *self = JoinedRoots::Spilled(all.into_boxed_slice());
            }
        }
    }
}

/// The ELink protocol state at one node.
#[derive(Clone)]
pub struct ElinkNode {
    shared: Arc<Shared>,
    feature: Feature,

    /// Whether this node has been clustered (Fig 16 `clustered`).
    pub clustered: bool,
    /// Current cluster root (valid when `clustered`).
    pub root: NodeId,
    /// Current root feature `F_{r_i}`.
    pub root_feature: Feature,
    /// Level `m` of the sentinel that clustered this node.
    pub joined_level: usize,
    /// Cluster-tree parent `p` (self for roots).
    pub parent: NodeId,
    /// Remaining cluster switches (Fig 16 `counter`).
    pub switches_left: u32,

    /// Explicit mode's bookkeeping, allocated on first use.
    explicit: Option<Box<Explicit>>,
    /// Roots of every cluster this node has ever joined. A node never
    /// re-joins a cluster it left: distances to roots are fixed, so a
    /// re-join can never be a quality gain, and (in explicit mode) it would
    /// corrupt the per-cluster `ack` bookkeeping — the Fig 16 `+φ`
    /// tolerance otherwise allows A→B→A oscillation, deadlocking the
    /// completion wave.
    ever_joined: JoinedRoots,
    /// Audit trail of silently discarded events, one [`stray`] marker per
    /// drop. The model checker asserts which sites may fire under a given
    /// fault budget; the vector is part of canonical state so a stray is
    /// never confused with the clean state that ignored it.
    pub stray_drops: Vec<&'static str>,
}

impl ElinkNode {
    /// Creates the protocol instance for one node, with a per-run block of
    /// its own. [`build_sim`](crate::build_sim) shares one block across the
    /// whole fleet instead; both give the same node.
    pub fn new(
        id: NodeId,
        n: usize,
        feature: Feature,
        metric: Arc<dyn Metric>,
        config: ElinkConfig,
        mode: SignalMode,
        quad: Arc<QuadInfo>,
    ) -> ElinkNode {
        let shared = Shared::new(n, metric, config, mode, quad);
        ElinkNode::with_shared(id, feature, shared)
    }

    /// One node per feature, node `i` holding `features[i]`, all sharing
    /// one per-run block.
    pub(crate) fn fleet(
        features: &[Feature],
        metric: Arc<dyn Metric>,
        config: ElinkConfig,
        mode: SignalMode,
        quad: Arc<QuadInfo>,
    ) -> Vec<ElinkNode> {
        let shared = Shared::new(features.len(), metric, config, mode, quad);
        features
            .iter()
            .enumerate()
            .map(|(id, feature)| ElinkNode::with_shared(id, feature.clone(), Arc::clone(&shared)))
            .collect()
    }

    fn with_shared(id: NodeId, feature: Feature, shared: Arc<Shared>) -> ElinkNode {
        let root_feature = feature.clone();
        ElinkNode {
            switches_left: shared.config.max_switches,
            shared,
            feature,
            clustered: false,
            root: id,
            root_feature,
            joined_level: 0,
            parent: id,
            explicit: None,
            ever_joined: JoinedRoots::EMPTY,
            stray_drops: Vec::new(),
        }
    }

    /// This node's feature.
    pub fn feature(&self) -> &Feature {
        &self.feature
    }

    /// Number of per-cluster subtree entries whose `ack2` wave has not
    /// completed (explicit mode) — zero at a clean quiescence.
    pub fn unsettled_subtrees(&self) -> usize {
        self.explicit
            .as_ref()
            .map_or(0, |e| e.subtrees.values().filter(|s| !s.acked).count())
    }

    /// This node's explicit-mode bookkeeping, allocated on first use.
    fn explicit(&mut self) -> &mut Explicit {
        self.explicit.get_or_insert_with(Box::default)
    }

    /// The subtree entry of the cluster rooted at `root`, if any.
    fn subtree(&mut self, root: NodeId) -> Option<&mut Subtree> {
        self.explicit.as_mut()?.subtrees.get_mut(&(root as u32))
    }

    /// Extraction hook: `(root, root_feature)`; unclustered nodes (possible
    /// only if a run was truncated) report themselves as singleton roots.
    pub fn cluster_state(&self, id: NodeId) -> (NodeId, Feature) {
        if self.clustered {
            (self.root, self.root_feature.clone())
        } else {
            (id, self.feature.clone())
        }
    }

    /// Conservative leaf-detection timeout: an `ack1` takes at most two
    /// worst-case deliveries (expand out, ack back) plus slack. Under ARQ a
    /// delivery may spend several backoff rounds in flight, so this scales
    /// by [`Ctx::max_delivery_delay`], not the raw hop delay.
    fn leaf_timeout(&self, ctx: &Ctx<'_, ElinkMsg>) -> u64 {
        2 * ctx.max_delivery_delay() + 2
    }

    /// The ELink procedure of Fig 16: invoked on a sentinel when signalled.
    // simlint: hot
    fn elink_start(
        &mut self,
        level: usize,
        sentinel_cell: Option<CellId>,
        ctx: &mut Ctx<'_, ElinkMsg>,
    ) {
        if self.clustered {
            // Fig 16: "if (¬clustered)" — nothing to expand. In explicit
            // mode the synchronization must still observe this sentinel as
            // complete.
            if let Some(cell) = sentinel_cell {
                self.sentinel_complete(cell, ctx);
            }
            return;
        }
        let id = ctx.id();
        // Metrics: a sentinel actually expanding opens (or stretches) the
        // level's growth envelope — [first expansion start, last join].
        ctx.phase_enter(growth_phase(level));
        self.clustered = true;
        self.root = id;
        self.root_feature = self.feature.clone(); // simlint: allow(no-hot-path-alloc): Feature clone never allocates (scalar copy or Arc increment)
        self.joined_level = level;
        self.parent = id;
        let h = id as u32;
        self.ever_joined.insert(h);
        let explicit = self.shared.mode == SignalMode::Explicit;
        if explicit {
            // Only explicit mode's completion waves ever read the entry.
            let entry = Subtree {
                parent: None,
                pending_children: 0,
                wait_done: false,
                acked: false,
                sentinel_cell,
            };
            self.explicit().subtrees.insert(h, entry);
        }
        let msg = ElinkMsg::Expand {
            root: id,
            root_feature: self.feature.clone(), // simlint: allow(no-hot-path-alloc): allocation-free Feature clone into the broadcast payload
            level,
        };
        let scalars = self.feature.scalar_cost();
        ctx.broadcast_neighbors(&msg, "expand", scalars);
        if explicit {
            let timeout = self.leaf_timeout(ctx);
            ctx.set_timer(timeout, TIMER_LEAF_BASE + id as u64);
        }
    }

    /// Handles an incoming `expand` (the join/switch rule of Fig 16) — the
    /// hottest function in the tree: every node runs it once per neighbor
    /// expand at every level.
    // simlint: hot
    fn on_expand(
        &mut self,
        from: NodeId,
        root: NodeId,
        root_feature: Feature,
        level: usize,
        ctx: &mut Ctx<'_, ElinkMsg>,
    ) {
        let shared = &*self.shared;
        let h = root as u32;
        if (self.clustered && self.root == root) || self.ever_joined.contains(h) {
            return; // current or former member; re-joining gains nothing
        }
        let d_new = shared.metric.distance(&root_feature, &self.feature);
        if d_new > shared.config.admission_radius() {
            return;
        }
        let join = if !self.clustered {
            true
        } else {
            // Switch rule (Fig 16): same sentinel level (unless unordered),
            // `d(F_rj, F_i) < d(F_ri, F_i) + φ`, and switch budget left. The
            // `+φ` tolerance is what lets a freshly self-rooted sentinel
            // (root distance 0) dissolve into a same-level neighbor cluster
            // — the mechanism behind "this handles the case when the number
            // of clusters should be less than 5" (§3.2). The same-level
            // rule protects clusters grown from lower levels.
            let d_cur = shared.metric.distance(&self.root_feature, &self.feature);
            let level_ok = shared.mode == SignalMode::Unordered || level == self.joined_level;
            level_ok && d_new < d_cur + shared.config.phi && self.switches_left > 0
        };
        if !join {
            return;
        }
        if self.clustered {
            self.switches_left -= 1;
        }
        self.clustered = true;
        self.root = root;
        self.root_feature = root_feature.clone(); // simlint: allow(no-hot-path-alloc): Feature clone never allocates (scalar copy or Arc increment)
        self.joined_level = level;
        self.parent = from;
        self.ever_joined.insert(h);
        // Metrics: every join stretches the level's growth envelope.
        ctx.phase_exit(growth_phase(level));

        if self.shared.mode == SignalMode::Explicit {
            ctx.phase_enter("sync.acks");
            ctx.send(from, ElinkMsg::Ack1 { root }, "ack1", 1);
            let entry = Subtree {
                parent: Some(from),
                pending_children: 0,
                wait_done: false,
                acked: false,
                sentinel_cell: None,
            };
            self.explicit().subtrees.insert(h, entry);
            let timeout = self.leaf_timeout(ctx);
            ctx.set_timer(timeout, TIMER_LEAF_BASE + root as u64);
        }
        let msg = ElinkMsg::Expand {
            root,
            root_feature,
            level,
        };
        let scalars = self.root_feature.scalar_cost();
        ctx.broadcast_neighbors(&msg, "expand", scalars);
    }

    /// Completion check for the `ack2` wave of one cluster.
    fn check_completion(&mut self, root: NodeId, ctx: &mut Ctx<'_, ElinkMsg>) {
        let Some(sub) = self.subtree(root) else {
            self.stray_drops.push(stray::SITE_COMPLETION_UNKNOWN_ROOT);
            return;
        };
        if sub.acked || !sub.wait_done || sub.pending_children > 0 {
            return;
        }
        sub.acked = true;
        match sub.parent {
            Some(p) => ctx.send(p, ElinkMsg::Ack2 { root }, "ack2", 1),
            None => {
                // This node rooted the cluster: the entire expansion is
                // complete (Fig 18) — report through the quadtree.
                if let Some(cell) = sub.sentinel_cell {
                    self.sentinel_complete(cell, ctx);
                }
            }
        }
    }

    /// A sentinel's expansion for `cell` is complete: feed the quadtree
    /// synchronization (Fig 18 `phase 1`), or start the next level directly
    /// when this is the root cell.
    fn sentinel_complete(&mut self, cell: CellId, ctx: &mut Ctx<'_, ElinkMsg>) {
        // Metrics: the quadtree synchronization envelope opens at the first
        // completion report and closes at the last aligned start receipt.
        ctx.phase_enter("sync.quadtree");
        if self.leads_or_stray(cell, stray::SITE_SENTINEL_NOT_LEADER, ctx) {
            self.phase1_up(cell, self.shared.quad.cell(cell).level(), ctx);
        }
    }

    /// Whether this node leads `cell`. Quadtree messages and timers are
    /// addressed by the static cells, so a mismatch can only arise from a
    /// misrouted or stale event: it is dropped and recorded as `site`
    /// rather than aborting the simulation.
    fn leads_or_stray(
        &mut self,
        cell: CellId,
        site: &'static str,
        ctx: &Ctx<'_, ElinkMsg>,
    ) -> bool {
        let leads = self.shared.quad.leads(ctx.id(), cell);
        if !leads {
            self.stray_drops.push(site);
            debug_assert!(false, "{site}: node {} does not lead cell {cell}", ctx.id());
        }
        leads
    }

    /// Reports `level` complete below the led `cell` to the parent cell's
    /// leader (`phase 1`). At the quadtree root all of S_level finished, so
    /// `phase 2` goes down (for the root's own level 0 that starts S_1
    /// directly, and the wave's elapsed counter begins here).
    fn phase1_up(&self, cell: CellId, level: usize, ctx: &mut Ctx<'_, ElinkMsg>) {
        let quad = &self.shared.quad;
        match quad.cell(cell).parent() {
            Some(parent) => {
                let msg = ElinkMsg::Phase1 {
                    cell: parent,
                    level,
                };
                ctx.unicast(quad.cell(parent).leader(), msg, "phase1", 1);
            }
            None => self.phase2_down(cell, level, 0, ctx),
        }
    }

    /// Sends `start` to the leaders of `cell`'s children.
    fn start_children(&self, cell: CellId, elapsed: u64, ctx: &mut Ctx<'_, ElinkMsg>) {
        let quad = &self.shared.quad;
        for child_cell in quad.children(cell) {
            let child_leader = quad.cell(child_cell).leader();
            if child_leader == ctx.id() {
                // Leading both the cell and one child: handle locally.
                self.handle_start(child_cell, elapsed, ctx);
            } else {
                let hops = ctx.hops_to(child_leader).unwrap_or(0) as u64;
                ctx.unicast(
                    child_leader,
                    ElinkMsg::Start {
                        cell: child_cell,
                        elapsed: elapsed + hops,
                    },
                    "start",
                    1,
                );
            }
        }
    }

    /// Start-alignment budget: an upper bound (in hops) on the phase-2 +
    /// start cascade from the quadtree root to any sentinel — `Σ κ/2^m < 2κ`
    /// (§5's timing analysis).
    fn start_budget(&self) -> u64 {
        (4.0 * self.shared.config.kappa(self.shared.n)).ceil() as u64
    }

    /// Receives an (aligned) start for a led cell: waits out the residual
    /// per-level budget, then runs ELink. On synchronous networks every
    /// same-level sentinel therefore begins at the same tick, matching the
    /// implicit schedule (§8.4: both variants output the same clusters).
    fn handle_start(&self, cell: CellId, elapsed: u64, ctx: &mut Ctx<'_, ElinkMsg>) {
        ctx.phase_exit("sync.quadtree");
        let budget = self.start_budget();
        let wait = budget.saturating_sub(elapsed) * ctx.max_delivery_delay();
        ctx.set_timer(wait, TIMER_START_BASE + cell as u64);
    }

    /// Fan-in of `phase 1` messages at an intermediate (or root) cell.
    fn on_phase1(&mut self, cell: CellId, level: usize, ctx: &mut Ctx<'_, ElinkMsg>) {
        if !self.leads_or_stray(cell, stray::SITE_PHASE1_NOT_LEADER, ctx) {
            return;
        }
        let key = phase1_key(cell, level);
        if self.explicit().phase1_done.contains(&key) {
            // A duplicated `phase 1` after its wave completed: absorbing it
            // here keeps the (removed) fan-in counter from re-opening at
            // full fan-in and deadlocking the next wave.
            self.stray_drops.push(stray::SITE_PHASE1_AFTER_COMPLETE);
            return;
        }
        let fanin = self.shared.quad.phase1_fanin(cell, level);
        let explicit = self.explicit();
        let pending = explicit.phase1_pending.or_insert_with(key, || fanin);
        debug_assert!(*pending > 0, "phase1 overflow at cell {cell}");
        *pending -= 1;
        if *pending > 0 {
            return;
        }
        explicit.phase1_pending.remove(&key);
        explicit.phase1_done.insert(key);
        self.phase1_up(cell, level, ctx);
    }

    /// `phase 2` addressed to this node's `cell`.
    fn on_phase2(&mut self, cell: CellId, level: usize, elapsed: u64, ctx: &mut Ctx<'_, ElinkMsg>) {
        if self.leads_or_stray(cell, stray::SITE_PHASE2_NOT_LEADER, ctx) {
            self.phase2_down(cell, level, elapsed, ctx);
        }
    }

    /// `phase 2` down-sweep (Fig 18) from a led cell, threading the
    /// alignment counter.
    fn phase2_down(&self, cell: CellId, level: usize, elapsed: u64, ctx: &mut Ctx<'_, ElinkMsg>) {
        let quad = &self.shared.quad;
        if quad.cell(cell).level() == level {
            // Instruct the children (the S_{level+1} sentinels) to start.
            self.start_children(cell, elapsed, ctx);
            return;
        }
        for child_cell in quad.children(cell) {
            let child = quad.cell(child_cell);
            // Only branches that actually contain level-`level` cells
            // participate in the wave.
            if child.subtree_max_level() < level {
                continue;
            }
            if child.leader() == ctx.id() {
                self.phase2_down(child_cell, level, elapsed, ctx);
            } else {
                let hops = ctx.hops_to(child.leader()).unwrap_or(0) as u64;
                ctx.unicast(
                    child.leader(),
                    ElinkMsg::Phase2 {
                        cell: child_cell,
                        level,
                        elapsed: elapsed + hops,
                    },
                    "phase2",
                    1,
                );
            }
        }
    }
}

impl Protocol for ElinkNode {
    type Msg = ElinkMsg;

    fn on_start(&mut self, ctx: &mut Ctx<'_, ElinkMsg>) {
        let shared = &*self.shared;
        match shared.mode {
            SignalMode::Implicit => {
                let level = shared.quad.sentinel_level(ctx.id());
                let start = shared.config.schedule_start(shared.n, level).ceil() as u64;
                ctx.set_timer(start, TIMER_SCHEDULE);
            }
            SignalMode::Unordered => {
                ctx.set_timer(0, TIMER_SCHEDULE);
            }
            SignalMode::Explicit => {
                if shared.quad.leads(ctx.id(), ROOT) {
                    // The S_0 sentinel needs no alignment: it is the only
                    // member of its level.
                    self.elink_start(0, Some(ROOT), ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, timer: u64, ctx: &mut Ctx<'_, ElinkMsg>) {
        if timer >= TIMER_START_BASE {
            let cell = (timer - TIMER_START_BASE) as CellId;
            if self.leads_or_stray(cell, stray::SITE_START_NOT_LEADER, ctx) {
                self.elink_start(self.shared.quad.cell(cell).level(), Some(cell), ctx);
            }
            return;
        }
        if timer == TIMER_SCHEDULE {
            // Unordered mode flattens all levels to 0 so the same-level
            // switch rule never blocks (levels are concurrent anyway).
            let level = match self.shared.mode {
                SignalMode::Unordered => 0,
                _ => self.shared.quad.sentinel_level(ctx.id()),
            };
            self.elink_start(level, None, ctx);
        } else {
            let root = (timer - TIMER_LEAF_BASE) as NodeId;
            if let Some(sub) = self.subtree(root) {
                sub.wait_done = true;
            }
            self.check_completion(root, ctx);
        }
    }

    fn on_message(&mut self, from: NodeId, msg: ElinkMsg, ctx: &mut Ctx<'_, ElinkMsg>) {
        match msg {
            ElinkMsg::Expand {
                root,
                root_feature,
                level,
            } => self.on_expand(from, root, root_feature, level, ctx),
            ElinkMsg::Ack1 { root } => {
                // Acks flow strictly child → recruiting parent, so the
                // subtree entry must exist; a miss is a misrouted message.
                // Note a *duplicated* ack1 does hit the entry and inflates
                // `pending_children` — a protocol-level non-tolerance that
                // deadlocks completion. That is deliberate: duplicate
                // suppression is the reliable transport's job (ARQ dedups
                // by sequence number), and the regression tests +
                // checker scenarios pin the failure shape.
                if let Some(sub) = self.subtree(root) {
                    sub.pending_children += 1;
                } else {
                    self.stray_drops.push(stray::SITE_ACK1_UNKNOWN_ROOT);
                }
            }
            ElinkMsg::Ack2 { root } => {
                ctx.phase_exit("sync.acks");
                // Same contract as ack1: a duplicated ack2 double-decrements
                // and completes the wave before the real children report —
                // detected by the checker, prevented in deployment by ARQ.
                if let Some(sub) = self.subtree(root) {
                    sub.pending_children = sub.pending_children.saturating_sub(1);
                    self.check_completion(root, ctx);
                } else {
                    self.stray_drops.push(stray::SITE_ACK2_UNKNOWN_ROOT);
                }
            }
            ElinkMsg::Phase1 { cell, level } => self.on_phase1(cell, level, ctx),
            ElinkMsg::Phase2 {
                cell,
                level,
                elapsed,
            } => self.on_phase2(cell, level, elapsed, ctx),
            ElinkMsg::Start { cell, elapsed } => self.handle_start(cell, elapsed, ctx),
        }
    }
}

/// Canonical state for model-checker fingerprinting.
///
/// Soundness: the rendering must cover every field a handler *reads* to
/// decide future behavior — two states with equal canonical forms are
/// merged, so an omitted behavior-relevant field would unsoundly prune
/// genuinely distinct schedules. Covered: the Fig 16 join state
/// (`clustered`, `root`, `root_feature`, `joined_level`, `parent`,
/// `switches_left`), `ever_joined` (ascending root ids, whether
/// inline or spilled), the explicit-mode bookkeeping (`subtrees`,
/// `phase1_pending`, `phase1_done`; a node that never allocated its box
/// renders them empty, exactly like an allocated empty box), and the
/// stray-drop audit trail (part of observable state: predicates read it).
/// Only explicit mode writes `subtrees`: implicit and unordered nodes
/// render an empty `|st:` section.
///
/// Deliberately excluded, with why the exclusion is sound: `feature` and
/// the shared per-run block (`metric`, `config`, `mode`, `quad`, `n`) —
/// fixed at construction and never written by any handler;
/// identical across all states of one exploration.
impl Canonicalize for ElinkNode {
    fn canonicalize(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "c{}r{}l{}p{}s{}F",
            self.clustered as u8, self.root, self.joined_level, self.parent, self.switches_left
        );
        for &w in self.root_feature.components() {
            canon_f64(out, w);
        }
        let empty = Explicit::default();
        let explicit = self.explicit.as_deref().unwrap_or(&empty);
        out.push_str("|st:");
        for (h, sub) in explicit.subtrees.iter() {
            let _ = write!(
                out,
                "[{}>{:?}c{}w{}a{}s{:?}]",
                h,
                sub.parent,
                sub.pending_children,
                sub.wait_done as u8,
                sub.acked as u8,
                sub.sentinel_cell
            );
        }
        out.push_str("|p1:");
        for (k, pending) in explicit.phase1_pending.iter() {
            let _ = write!(out, "[{k}:{pending}]");
        }
        out.push_str("|p1d:");
        for k in explicit.phase1_done.iter() {
            let _ = write!(out, "{k},");
        }
        out.push_str("|ej:");
        for h in self.ever_joined.as_slice() {
            let _ = write!(out, "{h},");
        }
        out.push_str("|x:");
        for site in &self.stray_drops {
            out.push_str(site);
            out.push(',');
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::Clustering;
    use crate::runner::build_sim;
    use elink_metric::Absolute;
    use elink_netsim::{LinkModel, LossyLink, SimNetwork, Simulator, SyncLink};
    use elink_topology::Topology;

    /// Grids and random deployments, each with a scalar field in [0, 100).
    fn deployments() -> Vec<(Topology, Vec<Feature>)> {
        [
            Topology::grid(8, 8),
            Topology::grid(5, 13),
            Topology::random_synthetic(60, 3),
            Topology::random_synthetic(90, 11),
        ]
        .into_iter()
        .map(|t| {
            let features = (0..t.n())
                .map(|v| {
                    let p = t.position(v);
                    Feature::scalar(50.0 + 30.0 * (p.x / 3.0).sin() + 19.0 * (p.y / 2.0).cos())
                })
                .collect();
            (t, features)
        })
        .collect()
    }

    /// Builds a fresh link for one run.
    type MakeLink = fn() -> Box<dyn LinkModel>;

    /// Every mode with a link it runs correctly on: implicit needs a
    /// synchronous network; the other two also run asynchronously.
    fn modes() -> [(SignalMode, MakeLink); 4] {
        [
            (SignalMode::Implicit, || Box::new(SyncLink)),
            (SignalMode::Explicit, || Box::new(SyncLink)),
            (SignalMode::Explicit, || Box::new(LossyLink::new(1, 3))),
            (SignalMode::Unordered, || Box::new(LossyLink::new(1, 3))),
        ]
    }

    fn canonical(nodes: &[ElinkNode]) -> Vec<String> {
        nodes
            .iter()
            .map(|node| {
                let mut s = String::new();
                node.canonicalize(&mut s);
                s
            })
            .collect()
    }

    fn clustering(nodes: &[ElinkNode], t: &Topology) -> (Vec<usize>, Vec<NodeId>) {
        let states: Vec<_> = nodes
            .iter()
            .enumerate()
            .map(|(id, node)| node.cluster_state(id))
            .collect();
        let c = Clustering::from_node_states(&states, t, &Absolute);
        let roots = c.clusters.iter().map(|k| k.root).collect();
        (c.assignment, roots)
    }

    #[test]
    fn node_state_fits_its_layout_bound() {
        let size = std::mem::size_of::<ElinkNode>();
        assert!(
            size <= 128,
            "ElinkNode is {size} bytes, above the 128 of DESIGN.md §11.4"
        );
    }

    #[test]
    fn shared_fleet_runs_like_nodes_built_one_by_one() {
        // `build_sim` shares one per-run block; the benchmark's traced
        // child builds every node with `ElinkNode::new`, each with a block
        // of its own. Both must run the same protocol.
        let config = ElinkConfig::for_delta(25.0);
        for (t, features) in deployments() {
            let network = SimNetwork::new(t.clone());
            for (mode, link) in modes() {
                let mut shared = build_sim(
                    &network,
                    &features,
                    Arc::new(Absolute),
                    config,
                    mode,
                    link(),
                    9,
                );
                let quad = Arc::new(QuadInfo::build(&t));
                let metric: Arc<dyn Metric> = Arc::new(Absolute);
                let nodes = (0..t.n())
                    .map(|id| {
                        let (f, m, q) = (features[id].clone(), Arc::clone(&metric), &quad);
                        ElinkNode::new(id, t.n(), f, m, config, mode, Arc::clone(q))
                    })
                    .collect();
                let mut single = Simulator::new(network.clone(), link(), 9, nodes);
                let end = (shared.run_to_completion(), single.run_to_completion());
                let what = format!("{mode:?} on {} nodes", t.n());
                assert_eq!(end.0, end.1, "{what}: end tick");
                assert_eq!(shared.costs(), single.costs(), "{what}: cost book");
                assert_eq!(shared.metrics(), single.metrics(), "{what}: metrics");
                assert_eq!(
                    clustering(shared.nodes(), &t),
                    clustering(single.nodes(), &t),
                    "{what}: clustering"
                );
                assert_eq!(
                    canonical(shared.nodes()),
                    canonical(single.nodes()),
                    "{what}: node state"
                );
            }
        }
    }

    #[test]
    fn every_mode_quiesces_with_settled_subtrees() {
        // Only explicit mode's completion waves keep subtree entries, and
        // they all settle by quiescence.
        let config = ElinkConfig::for_delta(25.0);
        for (t, features) in deployments() {
            let network = SimNetwork::new(t.clone());
            for (mode, link) in modes() {
                let mut sim = build_sim(
                    &network,
                    &features,
                    Arc::new(Absolute),
                    config,
                    mode,
                    link(),
                    3,
                );
                sim.run_to_completion();
                let open: usize = sim.nodes().iter().map(|n| n.unsettled_subtrees()).sum();
                assert_eq!(open, 0, "{mode:?} on {} nodes", t.n());
                let with_entries = sim.nodes().iter().filter(|n| n.explicit.is_some());
                match mode {
                    SignalMode::Explicit => assert!(with_entries.count() > 0),
                    _ => assert_eq!(with_entries.count(), 0, "{mode:?} wrote explicit state"),
                }
            }
        }
    }

    #[test]
    fn implicit_run_leaves_no_node_owning_heap_memory() {
        // At the default c = 4 a node's joined roots fit inline, and
        // nothing boxes the explicit bookkeeping (DESIGN.md §11.4).
        let config = ElinkConfig::for_delta(25.0);
        assert_eq!(config.max_switches as usize + 1, JOINED_INLINE);
        for (t, features) in deployments() {
            let network = SimNetwork::new(t.clone());
            let mut sim = build_sim(
                &network,
                &features,
                Arc::new(Absolute),
                config,
                SignalMode::Implicit,
                SyncLink,
                0,
            );
            sim.run_to_completion();
            for (id, node) in sim.nodes().iter().enumerate() {
                let heap = node.explicit.is_some()
                    || matches!(node.ever_joined, JoinedRoots::Spilled(_))
                    || node.stray_drops.capacity() > 0;
                assert!(!heap, "node {id} of {} owns heap memory", t.n());
            }
        }
    }

    #[test]
    fn joined_roots_match_a_sorted_set_inline_and_spilled() {
        for stride in [1u32, 7, 13, 29] {
            let mut roots = JoinedRoots::EMPTY;
            let mut oracle = FlatSet::new();
            for i in 0..12 {
                let h = (i * stride + 5) % 64;
                // Re-inserting is a no-op, inline and spilled alike.
                for _ in 0..2 {
                    roots.insert(h);
                    oracle.insert(h);
                }
                let want: Vec<u32> = oracle.iter().copied().collect();
                assert_eq!(roots.as_slice(), &want[..], "stride {stride}");
                let spilled = matches!(roots, JoinedRoots::Spilled(_));
                assert_eq!(spilled, want.len() > JOINED_INLINE);
                for v in 0..64 {
                    assert_eq!(roots.contains(v), oracle.contains(&v));
                }
            }
        }
    }
}
