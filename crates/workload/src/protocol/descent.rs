//! The §7 M-tree descent at routing nodes: single-flight evaluation shared
//! by riders, the per-template result cache, and the invalidation climb
//! that keeps the cache exact under §6 re-anchoring.

use super::{Deadline, ServeMsg, ServeNode, Timer};
use crate::gen::Template;
use crate::nodeset::NodeSet;
use elink_core::slack_conditions_hold;
use elink_metric::Feature;
use elink_netsim::{Ctx, FlatSet, QueryId, QID_SUB_REPAIR};
use elink_query::{cluster_decision, descend_decision, ClusterDecision, DescendDecision};
use elink_topology::NodeId;

/// One single-flight M-tree descent in progress at a node.
#[derive(Debug, Clone)]
pub(super) struct EvalState {
    /// Queries sharing this descent.
    riders: Vec<QueryId>,
    /// Whether the descent has been launched (a cluster root holds the eval
    /// until the end of the current tick first).
    launched: bool,
    /// Children (and degraded-mode probe targets) whose answer is still
    /// outstanding. Answers from nodes not listed here are late duplicates
    /// and are ignored.
    outstanding: Vec<NodeId>,
    /// Matches accumulated so far: the union of this node's own match bit
    /// and every subtree answer received.
    acc: NodeSet,
    /// Nodes whose membership the descent has determined so far.
    covered: u64,
    /// Invalidation epoch at eval start — a stale epoch at completion
    /// suppresses the cache fill.
    epoch0: u64,
    /// Set when the descent gave up on somebody (dead child skipped, or a
    /// deadline forced completion): the result must not be cached.
    partial: bool,
    /// Whether the one re-issue round has been spent.
    reissued: bool,
}

impl EvalState {
    fn new(riders: Vec<QueryId>, epoch0: u64) -> EvalState {
        EvalState {
            riders,
            launched: false,
            outstanding: Vec::new(),
            acc: NodeSet::new(),
            covered: 0,
            epoch0,
            partial: false,
            reissued: false,
        }
    }
}

/// Outcome of a cluster root's local evaluation attempt.
pub(super) enum LocalEval {
    /// The local cluster answer is known now: (matches, covered nodes).
    Resolved(NodeSet, u64),
    /// A descent is in flight; the query rides it.
    Pending,
}

/// Node-level match predicate: strict templates (path unsafe sets) require
/// `d < r`, range templates `d ≤ r`.
pub(super) fn node_matches(d: f64, r: f64, strict: bool) -> bool {
    if strict {
        d < r
    } else {
        d <= r
    }
}

/// [`cluster_decision`] with the strict-inequality demotion: a strict
/// template may only take `IncludeAll` when the bound is strictly inside
/// (`d_root + radius < r`); otherwise the boundary members must be checked
/// individually, so the decision demotes to `Drill`.
fn effective_cluster(d_root: f64, r: f64, radius: f64, strict: bool) -> ClusterDecision {
    let base = cluster_decision(d_root, r, radius);
    if strict && base == ClusterDecision::IncludeAll && d_root + radius >= r {
        ClusterDecision::Drill
    } else {
        base
    }
}

/// [`descend_decision`] with the same strict demotion (`IncludeAll` →
/// `Descend` unless the upper bound is strictly below `r`).
fn effective_descend(
    d_node: f64,
    d_pc: f64,
    r: f64,
    r_child: f64,
    strict: bool,
) -> DescendDecision {
    let base = descend_decision(d_node, d_pc, r, r_child);
    if strict && base == DescendDecision::IncludeAll && d_node + d_pc + r_child >= r {
        DescendDecision::Descend
    } else {
        base
    }
}

/// Query parameters of a template: (center, radius, strict).
pub(super) fn params(t: &Template) -> (&Feature, f64, bool) {
    match t {
        Template::Range { center, r } => (center, *r, false),
        Template::Path { danger, gamma, .. } => (danger, *gamma, true),
    }
}

/// Asks member `m` of a degraded root's cluster for its own match bit.
/// False when no route exists.
fn send_probe(m: NodeId, template: u16, rider: QueryId, ctx: &mut Ctx<'_, ServeMsg>) -> bool {
    ctx.unicast_tagged(m, ServeMsg::Probe { template }, "wl_probe", 1, rider)
}

impl ServeNode {
    /// Answers the local cluster (this root's subtree) for `template`,
    /// either immediately (cluster-level decision or cache hit) or by
    /// joining/launching a single-flight descent with `qid` riding.
    pub(super) fn local_cluster_eval(
        &mut self,
        qid: QueryId,
        template: u16,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) -> LocalEval {
        let (center, r, strict) = params(&self.shared.templates[template as usize]);
        let d_root = self.shared.metric.distance(center, &self.anchor);
        let full = self.plan.members.len() as u64;
        // A degraded (post-failover) root must always drill: its covering
        // radius and membership no longer justify the whole-cluster
        // shortcuts (the dead ex-root in particular must never be claimed).
        let decision = if self.dead_root.is_some() {
            ClusterDecision::Drill
        } else {
            effective_cluster(d_root, r, self.plan.radius, strict)
        };
        match decision {
            ClusterDecision::Exclude => {
                ctx.metrics().inc("wl.cluster.exclude");
                LocalEval::Resolved(NodeSet::new(), full)
            }
            ClusterDecision::IncludeAll => {
                ctx.metrics().inc("wl.cluster.include_all");
                LocalEval::Resolved(NodeSet::from_ids(&self.plan.members), full)
            }
            ClusterDecision::Drill => {
                if let Some((hit, covered)) = self.cache.get(&template) {
                    ctx.metrics().inc("wl.cache.hit");
                    return LocalEval::Resolved(hit.clone(), *covered);
                }
                if let Some(ev) = self.evals.get_mut(&template) {
                    ev.riders.push(qid);
                    ctx.metrics().inc("wl.batch.riders");
                } else {
                    ctx.metrics().inc("wl.cache.miss");
                    self.evals
                        .insert(template, EvalState::new(vec![qid], self.inval_epoch));
                    // Flush at delay 0: the timer fires after every delivery
                    // already queued for this tick, so same-tick queries
                    // for the template ride one descent.
                    Timer::BatchFlush(template).arm(0, ctx);
                }
                LocalEval::Pending
            }
        }
    }

    /// Launches the descent for `template` (the eval must exist and be
    /// unlaunched). Evaluates this node and each child entry, sends shared
    /// `Descend` packets where needed, and completes immediately when no
    /// child must be consulted.
    pub(super) fn launch_descent(&mut self, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
        let Some(mut ev) = self.evals.remove(&template) else {
            return;
        };
        let shared = &self.shared;
        let (center, r, strict) = params(&shared.templates[template as usize]);
        let d_node = shared.metric.distance(center, &self.anchor);
        ev.launched = true;
        ev.covered += 1;
        if node_matches(d_node, r, strict) {
            ev.acc.insert(self.id);
        }
        for entry in &self.plan.entries {
            let d_pc = shared.metric.distance(&self.anchor, &entry.feature);
            match effective_descend(d_node, d_pc, r, entry.radius, strict) {
                DescendDecision::Prune => {
                    ctx.metrics().inc("wl.mtree.prune");
                    ev.covered += entry.subtree.len() as u64;
                }
                DescendDecision::IncludeAll => {
                    ctx.metrics().inc("wl.mtree.include_all");
                    for &m in &entry.subtree {
                        ev.acc.insert(m);
                    }
                    ev.covered += entry.subtree.len() as u64;
                }
                DescendDecision::Descend => {
                    // A detected-dead child is skipped outright: its subtree
                    // stays uncovered and the result is marked partial.
                    if shared.recovery && !ctx.is_alive(entry.child) {
                        ctx.metrics().inc("wl.recover.dead_child");
                        ev.partial = true;
                        continue;
                    }
                    if !self.send_descend(entry.child, template, &ev.riders, ctx) {
                        ev.partial = true;
                        continue;
                    }
                    let scalars = 1 + ev.riders.len() as u64;
                    for &q in &ev.riders[1..] {
                        ctx.attribute_query(q, 1, scalars);
                    }
                    ev.outstanding.push(entry.child);
                }
            }
        }
        // A degraded root's (original + adopted) entries may not span the
        // whole membership yet; the stragglers are evaluated by direct
        // probes. The dead ex-root is never probed and never covered.
        if let Some(dead) = self.dead_root {
            if self.plan.parent.is_none() {
                let mut spanned: FlatSet<NodeId> = FlatSet::new();
                for e in &self.plan.entries {
                    for &m in &e.subtree {
                        spanned.insert(m);
                    }
                }
                spanned.insert(self.id);
                for &m in &self.plan.members {
                    if m == dead || spanned.contains(&m) {
                        continue;
                    }
                    if ctx.is_alive(m) && send_probe(m, template, ev.riders[0], ctx) {
                        ctx.metrics().inc("wl.recover.probe");
                        ev.outstanding.push(m);
                    } else {
                        ev.partial = true;
                    }
                }
                // The dead ex-root's current anchor is unknowable: honest
                // coverage excludes it forever (covered stays short of full).
            }
        }
        if ev.outstanding.is_empty() {
            self.complete_eval(template, ev, ctx);
        } else {
            self.arm_deadline(Deadline::Eval(template), ctx);
            self.evals.insert(template, ev);
        }
    }

    /// Sends the shared `Descend` for `template` to `child`: a link send to
    /// a tree neighbor, a routed unicast to an adopted (failover) child,
    /// which is generally not a neighbor. False when that routed send found
    /// no path.
    fn send_descend(
        &self,
        child: NodeId,
        template: u16,
        riders: &[QueryId],
        ctx: &mut Ctx<'_, ServeMsg>,
    ) -> bool {
        let scalars = 1 + riders.len() as u64;
        let msg = ServeMsg::Descend {
            template,
            riders: riders.to_vec(),
        };
        if self.adopted.contains(&(child as u32)) {
            ctx.unicast_tagged(child, msg, "wl_descend", scalars, riders[0])
        } else {
            ctx.send_tagged(child, msg, "wl_descend", scalars, riders[0]);
            true
        }
    }

    /// Descent deadline: one re-issue round to the still-live outstanding
    /// children/probes (a rebooted child lost its eval state; a re-issued
    /// `Descend` restarts it), then a forced partial completion. Forced
    /// results are never cached, so the next query retries the subtree.
    pub(super) fn on_eval_deadline(&mut self, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
        let Some(ev) = self.evals.get(&template) else {
            return;
        };
        if !ev.launched || ev.outstanding.is_empty() {
            return;
        }
        let mut ev = self.evals.remove(&template).expect("checked above");
        if ev.reissued {
            ctx.metrics().inc("wl.recover.eval_gaveup");
            ev.partial = true;
            ev.outstanding.clear();
            self.complete_eval(template, ev, ctx);
            return;
        }
        ev.reissued = true;
        ctx.metrics().inc("wl.recover.reissue");
        for target in std::mem::take(&mut ev.outstanding) {
            let resent = ctx.is_alive(target)
                && if self.plan.entries.iter().any(|e| e.child == target) {
                    self.send_descend(target, template, &ev.riders, ctx)
                } else {
                    send_probe(target, template, ev.riders[0], ctx);
                    true
                };
            if resent {
                ev.outstanding.push(target);
            } else {
                ev.partial = true;
            }
        }
        if ev.outstanding.is_empty() {
            self.complete_eval(template, ev, ctx);
        } else {
            self.arm_deadline(Deadline::Eval(template), ctx);
            self.evals.insert(template, ev);
        }
    }

    /// A parent's descent arrived: answer from the cache, merge into the
    /// in-flight descent (single flight per template — e.g. a parent's
    /// re-issue round just adds riders), or launch one at once (an internal
    /// node's rider set is fixed by the incoming packet).
    pub(super) fn on_descend(
        &mut self,
        template: u16,
        riders: Vec<QueryId>,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        if let Some((hit, covered)) = self.cache.get(&template) {
            ctx.metrics().inc("wl.cache.hit");
            let (matches, covered) = (hit.clone(), *covered);
            self.reply_subtree(template, &riders, matches, covered, ctx);
        } else if let Some(ev) = self.evals.get_mut(&template) {
            ev.riders.extend(riders);
        } else {
            ctx.metrics().inc("wl.cache.miss");
            self.evals
                .insert(template, EvalState::new(riders, self.inval_epoch));
            self.launch_descent(template, ctx);
        }
    }

    /// A child subtree (or a probed member) answered. Answers from nodes no
    /// longer awaited — late duplicates after a re-issue or a forced
    /// completion — are dropped.
    pub(super) fn on_agg_up(
        &mut self,
        template: u16,
        from: NodeId,
        matches: &NodeSet,
        covered: u64,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        let Some(ev) = self.evals.get_mut(&template) else {
            return;
        };
        let Some(pos) = ev.outstanding.iter().position(|&c| c == from) else {
            return;
        };
        ev.outstanding.remove(pos);
        ev.acc.union(matches);
        ev.covered += covered;
        if ev.launched && ev.outstanding.is_empty() {
            let ev = self.evals.remove(&template).expect("just seen");
            self.complete_eval(template, ev, ctx);
        }
    }

    /// A descent finished at this node: fill the cache (unless the epoch
    /// went stale mid-flight or the result is partial), then answer upward
    /// or resolve echo riders.
    fn complete_eval(&mut self, template: u16, mut ev: EvalState, ctx: &mut Ctx<'_, ServeMsg>) {
        self.cancel_deadline(Deadline::Eval(template), ctx);
        let stale = ev.epoch0 != self.inval_epoch;
        if stale || ev.partial {
            ctx.metrics().inc("wl.cache.skip_fill");
        } else if self.shared.cache_enabled {
            ctx.metrics().inc("wl.cache.fill");
            self.cache.insert(template, (ev.acc.clone(), ev.covered));
        }
        // Subscription repair riders resolve at the cluster root only
        // (internal nodes carry them for attribution). A repair that raced
        // an epoch bump is suppressed — the climb that bumped the epoch
        // re-dirtied the watch, so a fresh repair follows.
        if self.plan.parent.is_none() && ev.riders.iter().any(|&q| q & QID_SUB_REPAIR != 0) {
            ev.riders.retain(|&q| q & QID_SUB_REPAIR == 0);
            if stale {
                self.repair_went_stale(template, ctx);
            } else {
                self.finish_repair(template, ev.acc.clone(), ev.covered, ctx);
            }
            if ev.riders.is_empty() {
                return;
            }
        }
        self.reply_subtree(template, &ev.riders, ev.acc, ev.covered, ctx);
    }

    /// Sends a subtree answer to the parent (internal nodes) or resolves
    /// each rider's echo state (cluster roots).
    // simlint: hot
    fn reply_subtree(
        &mut self,
        template: u16,
        riders: &[QueryId],
        matches: NodeSet,
        covered: u64,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        if let Some(p) = self.plan.parent {
            let Some(&first) = riders.first() else {
                return;
            };
            let scalars = matches.len() as u64 + 1;
            let msg = ServeMsg::AggUp {
                template,
                matches,
                covered,
            };
            if self.routed_parent {
                // A failover parent is not a neighbor; if it is unroutable
                // its eval deadline degrades the wave to partial.
                ctx.unicast_tagged(p, msg, "wl_aggup", scalars, first);
            } else {
                ctx.send_tagged(p, msg, "wl_aggup", scalars, first);
            }
            for &q in &riders[1..] {
                ctx.attribute_query(q, 1, scalars);
            }
            ctx.metrics()
                .add("wl.batch.riders", riders.len() as u64 - 1);
        } else {
            for &qid in riders {
                if let Some(st) = self.echo.get_mut(&qid) {
                    st.acc.union(&matches);
                    st.covered += covered;
                    st.local_pending = false;
                }
            }
            for &qid in riders {
                self.maybe_finish_echo(qid, ctx);
            }
        }
    }

    pub(super) fn on_update(&mut self, new_feature: Feature, ctx: &mut Ctx<'_, ServeMsg>) {
        ctx.metrics().inc("wl.update.recv");
        let shared = &self.shared;
        if slack_conditions_hold(
            shared.metric.as_ref(),
            shared.delta,
            shared.slack,
            &self.anchor,
            &self.root_feature,
            &new_feature,
        ) {
            // Absorbed: the anchor — and therefore every answer — is
            // untouched, so caches network-wide stay exact.
            self.feature = new_feature;
            ctx.metrics().inc("wl.update.absorbed");
            return;
        }
        let drift = shared.metric.distance(&self.anchor, &new_feature);
        self.anchor = new_feature.clone();
        self.feature = new_feature;
        self.anchor_epoch += 1;
        // Our covering radius bounded subtree anchors from the old anchor;
        // moving the anchor by `drift` inflates every such bound by at most
        // `drift` (triangle inequality).
        self.plan.radius += drift;
        ctx.metrics().inc("wl.update.sync");
        self.invalidate_and_climb(ctx);
    }

    pub(super) fn on_invalidate(
        &mut self,
        child: NodeId,
        feature: Feature,
        radius: f64,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        let Some(entry) = self.plan.entries.iter_mut().find(|e| e.child == child) else {
            // A failover redirect can land a climb at a node that never
            // parented the sender (the successor inherits the dead root's
            // role, not its M-tree entries). Keep climbing so caches above
            // still evict and watches still re-repair.
            if self.shared.recovery {
                self.invalidate_and_climb(ctx);
            }
            return;
        };
        entry.feature = feature;
        entry.radius = radius;
        let required = self.shared.metric.distance(&self.anchor, &entry.feature) + entry.radius;
        if required > self.plan.radius {
            self.plan.radius = required;
        }
        self.invalidate_and_climb(ctx);
    }

    /// Evicts the local cache and forwards the climb to the parent. The
    /// climb always reaches the cluster root even when no radius grows: a
    /// descendant's anchor moved, so every ancestor's cached answer may
    /// now include or exclude the wrong nodes. At the root the climb also
    /// dirties every standing-query watch — the same signal that evicts
    /// caches now *drives* incremental repair.
    pub(super) fn invalidate_and_climb(&mut self, ctx: &mut Ctx<'_, ServeMsg>) {
        self.evict_cache(ctx);
        if let Some(p) = self.plan.parent {
            let scalars = self.anchor.scalar_cost() + 1;
            let msg = ServeMsg::Invalidate {
                feature: self.anchor.clone(),
                radius: self.plan.radius,
            };
            if !self.shared.recovery || ctx.is_alive(p) {
                ctx.send(p, msg, "wl_inval", scalars);
                return;
            }
            // Dead parent: route the climb around it, straight to the
            // cluster's current (failover) root, so standing queries keep
            // repairing while the tree is broken. When we *are* the acting
            // root, fall through to the root case below.
            match self.current_root(self.shared.cluster_of[self.id], ctx) {
                Some(root) if root != self.id => {
                    ctx.unicast(root, msg, "wl_inval", scalars);
                    return;
                }
                Some(_) => {}
                None => return,
            }
        }
        self.mark_all_watches_dirty(ctx);
    }

    /// Bumps the invalidation epoch (in-flight descents then skip their
    /// cache fill) and evicts every cached answer.
    pub(super) fn evict_cache(&mut self, ctx: &mut Ctx<'_, ServeMsg>) {
        self.inval_epoch += 1;
        ctx.metrics().inc("wl.cache.inval");
        ctx.metrics().add("wl.cache.evict", self.cache.len() as u64);
        self.cache.clear();
    }
}
