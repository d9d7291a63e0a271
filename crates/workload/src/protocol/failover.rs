//! Leader failover: the successor rule, the takeover, and the
//! `Reattach`/`Adopt`/`Probe` messages a degraded root serves with.

use super::descent::{node_matches, params};
use super::{ServeMsg, ServeNode, SKIP_ADOPT_RADIUS_INFLATION};
use crate::nodeset::NodeSet;
use crate::plan::ChildEntry;
use elink_metric::Feature;
use elink_netsim::{Ctx, QID_SUB_CONTROL};
use elink_topology::NodeId;

impl ServeNode {
    /// Where cluster-root traffic for `cluster` should be addressed right
    /// now: the original leader while it lives, otherwise the failover
    /// successor — the lexicographically-least surviving member. Every
    /// detector evaluates this rule against the same shared tables and the
    /// same liveness oracle, so all nodes agree on the successor without
    /// election traffic.
    pub(super) fn current_root(&self, cluster: usize, ctx: &Ctx<'_, ServeMsg>) -> Option<NodeId> {
        let leader = self.shared.leaders[cluster];
        if ctx.is_alive(leader) {
            Some(leader)
        } else {
            self.shared.members_of[cluster]
                .iter()
                .copied()
                .find(|&m| ctx.is_alive(m))
        }
    }

    /// This node's own cluster root: re-resolved against liveness under
    /// recovery (itself when no member answers), the plan's root otherwise.
    pub(super) fn own_root(&self, ctx: &Ctx<'_, ServeMsg>) -> NodeId {
        if self.shared.recovery {
            self.current_root(self.shared.cluster_of[self.id], ctx)
                .unwrap_or(self.id)
        } else {
            self.plan.cluster_root
        }
    }

    /// Where traffic for the backbone seat of `peer` goes: under recovery
    /// the seat is re-resolved against liveness, so a dead leader's traffic
    /// goes straight to its successor (`None` when its whole cluster is
    /// dead); otherwise the leader itself.
    pub(super) fn peer_root(&self, peer: NodeId, ctx: &Ctx<'_, ServeMsg>) -> Option<NodeId> {
        if self.shared.recovery {
            self.current_root(self.shared.cluster_of[peer], ctx)
        } else {
            Some(peer)
        }
    }

    /// Returns whether this node may act as its cluster's root, performing
    /// the failover takeover first if it is the designated successor of a
    /// dead leader.
    pub(super) fn ensure_root(&mut self, ctx: &mut Ctx<'_, ServeMsg>) -> bool {
        if self.plan.cluster_root == self.id {
            return true;
        }
        if !self.shared.recovery {
            return false;
        }
        if self.current_root(self.shared.cluster_of[self.id], ctx) == Some(self.id) {
            self.perform_takeover(ctx);
            true
        } else {
            false
        }
    }

    /// [`ServeNode::ensure_root`] for a message addressed to a cluster
    /// root. A node that is neither root nor successor got it misrouted (a
    /// stale address during a takeover): it counts the misroute and drops
    /// the message, and the sender's deadline machinery recovers.
    pub(super) fn serve_as_root(&mut self, ctx: &mut Ctx<'_, ServeMsg>) -> bool {
        let root = self.ensure_root(ctx);
        if !root {
            ctx.metrics().inc("wl.misroute");
        }
        root
    }

    /// Deterministic leader failover: adopt the dead root's role. The
    /// successor inherits the membership list and backbone seat from the
    /// shared plan tables, re-parents the dead root's surviving cluster-tree
    /// children under itself ([`ServeMsg::Reattach`]), and — reusing the
    /// invalidation-climb rule — bumps its epoch and evicts its cache, since
    /// its M-tree scope is about to grow. Until the `Adopt` replies land,
    /// queries are answered by direct probes; the dead ex-root itself is
    /// permanently uncovered (its current anchor is unknowable), so every
    /// post-failover answer honestly reports partial coverage.
    fn perform_takeover(&mut self, ctx: &mut Ctx<'_, ServeMsg>) {
        ctx.metrics().inc("maint.failover");
        let cluster = self.shared.cluster_of[self.id];
        let dead = self.shared.leaders[cluster];
        self.dead_root = Some(dead);
        self.plan.cluster_root = self.id;
        self.plan.parent = None;
        self.plan.members = self.shared.members_of[cluster].clone();
        self.plan.backbone_peers = self.shared.backbone_peers_of[cluster].clone();
        self.adopted.clear();
        self.evict_cache(ctx);
        // Walk up the static tree to find our own branch directly under the
        // dead root; every *other* surviving child of the dead root is
        // re-attached beneath us.
        let shared = &self.shared;
        let mut branch = self.id;
        while let Some(p) = shared.tree_parent[branch] {
            if p == dead {
                break;
            }
            branch = p;
        }
        for &child in &shared.tree_children[dead] {
            if child != branch && ctx.is_alive(child) {
                ctx.unicast(child, ServeMsg::Reattach, "wl_failover", 1);
            }
        }
        // Standing subscriptions: the dead root's subscription table and
        // watch registrations died with it. Announce the takeover on the
        // backbone (coordinators drop its unverifiable contributions and
        // re-register global watches with us) and ask our own cluster's
        // clients to re-register their subscriptions.
        if !shared.expect_subs {
            return;
        }
        self.subs.seen_takeover.insert(cluster, self.id);
        self.flood_takeover(cluster, self.id, None, ctx);
        for &m in &self.plan.members {
            if m != self.id && ctx.is_alive(m) {
                ctx.unicast_tagged(m, ServeMsg::SubReregister, "wl_subctl", 1, QID_SUB_CONTROL);
            }
        }
    }

    /// A degraded root asked for this node's own match bit.
    pub(super) fn on_probe(&self, template: u16, from: NodeId, ctx: &mut Ctx<'_, ServeMsg>) {
        let (center, r, strict) = params(&self.shared.templates[template as usize]);
        let d = self.shared.metric.distance(center, &self.anchor);
        let mut matches = NodeSet::new();
        if node_matches(d, r, strict) {
            matches.insert(self.id);
        }
        let scalars = matches.len() as u64 + 1;
        ctx.unicast(
            from,
            ServeMsg::AggUp {
                template,
                matches,
                covered: 1,
            },
            "wl_probe",
            scalars,
        );
    }

    /// A failover successor re-parents this surviving child of the dead
    /// root: report the M-tree entry it adopts us with.
    pub(super) fn on_reattach(&mut self, from: NodeId, ctx: &mut Ctx<'_, ServeMsg>) {
        if !self.shared.recovery {
            return;
        }
        self.plan.parent = Some(from);
        self.routed_parent = true;
        let mut subtree: Vec<NodeId> = self
            .plan
            .entries
            .iter()
            .flat_map(|e| e.subtree.iter().copied())
            .collect();
        subtree.push(self.id);
        subtree.sort_unstable();
        subtree.dedup();
        let scalars = self.anchor.scalar_cost() + 1 + subtree.len() as u64;
        ctx.unicast(
            from,
            ServeMsg::Adopt {
                feature: self.anchor.clone(),
                radius: self.plan.radius,
                subtree,
            },
            "wl_failover",
            scalars,
        );
    }

    /// A re-attached child reported its entry: adopt it, inflate the
    /// covering radius to bound it, and evict as the climb rule demands.
    pub(super) fn on_adopt(
        &mut self,
        from: NodeId,
        feature: Feature,
        radius: f64,
        subtree: Vec<NodeId>,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        if !self.shared.recovery {
            return;
        }
        let required = self.shared.metric.distance(&self.anchor, &feature) + radius;
        self.adopted.insert(from as u32);
        if let Some(e) = self.plan.entries.iter_mut().find(|e| e.child == from) {
            e.feature = feature;
            e.radius = radius;
            e.subtree = subtree;
        } else {
            self.plan.entries.push(ChildEntry {
                child: from,
                feature,
                radius,
                subtree,
            });
        }
        // M-tree covering-radius inflation plus the climb rule (epoch bump
        // + cache eviction); as the new root the climb terminates here.
        let skip = SKIP_ADOPT_RADIUS_INFLATION.load(std::sync::atomic::Ordering::Relaxed);
        if !skip && required > self.plan.radius {
            self.plan.radius = required;
        }
        self.invalidate_and_climb(ctx);
    }
}
