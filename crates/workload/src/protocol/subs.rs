//! The handlers of standing subscriptions in their three roles: the
//! client that registers and applies pushes, the coordinator (a cluster
//! root) that admits subscriptions and pushes deltas, and the watcher root
//! that repairs its cluster's contribution. Their state and its pure
//! transitions live in [`crate::subscribe`].

use super::descent::LocalEval;
use super::{Deadline, ServeMsg, ServeNode, Timer};
use crate::nodeset::NodeSet;
use crate::qos::{self, Admission};
use crate::subscribe::{
    end_reason, ClientSub, PushVerdict, SentPush, SubEntry, TemplateView, WatchState,
};
use elink_netsim::{Ctx, FlatSet, SimTime, QID_SUB_CONTROL, QID_SUB_PUSH, QID_SUB_REPAIR};
use elink_topology::NodeId;

/// Arms a watch's repair flush through its adaptive window, unless one is
/// already armed.
fn arm_repair(w: &mut WatchState, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
    if !w.armed {
        w.armed = true;
        Timer::SubRepair(template).arm(w.window.window(), ctx);
    }
}

/// Asks watcher root `addr` to report `template` to `coordinator`.
fn send_watch(addr: NodeId, template: u16, coordinator: NodeId, ctx: &mut Ctx<'_, ServeMsg>) {
    ctx.unicast_tagged(
        addr,
        ServeMsg::SubWatch {
            template,
            coordinator,
        },
        "wl_subwatch",
        2,
        QID_SUB_CONTROL | u64::from(template),
    );
}

impl ServeNode {
    /// Client: harness injected a subscription — record it and register
    /// with the coordinator (the client's cluster root).
    pub(super) fn on_subscribe(&mut self, sid: u64, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
        self.subs.client.insert(sid, ClientSub::new(template));
        ctx.metrics().inc("wl.sub.registered");
        let root = self.own_root(ctx);
        if root != self.id {
            self.send_register(root, sid, template, ctx);
        } else if self.ensure_root(ctx) {
            self.on_sub_register(sid, template, self.id, ctx);
        }
    }

    /// Client: registers subscription `sid` with coordinator `root`.
    fn send_register(&self, root: NodeId, sid: u64, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
        ctx.unicast_tagged(
            root,
            ServeMsg::SubRegister {
                sid,
                template,
                client: self.id,
            },
            "wl_subctl",
            3,
            QID_SUB_CONTROL | sid,
        );
    }

    /// Coordinator: admit (or refuse) a subscription through the QoS
    /// ladder, register the template watch, and schedule the initial push.
    pub(super) fn on_sub_register(
        &mut self,
        sid: u64,
        template: u16,
        client: NodeId,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        if let Some(e) = self.subs.table.get_mut(&sid) {
            // Idempotent re-registration (e.g. after a failover hand-off
            // elsewhere): restart the push stream from a snapshot.
            e.restart(ctx.now());
            self.schedule_flush(template, ctx);
            return;
        }
        // Two independent ladders gate a registration: the table-occupancy
        // ladder (per-coordinator capacity, §14) and the load ladder over
        // the substrate's congestion signal (§15). The worse verdict wins —
        // a congested network degrades or refuses registrations even with a
        // near-empty table, and vice versa.
        let table_verdict = qos::admit(self.subs.table.len(), self.subs.client_load(client));
        match table_verdict.worst(self.load_admission(ctx)) {
            Admission::Shed => {
                ctx.metrics().inc("wl.sub.shed");
                self.send_sub_end(sid, client, end_reason::SHED, ctx);
            }
            Admission::Degraded => {
                ctx.metrics().inc("wl.sub.degraded");
                self.admit_sub(sid, template, client, true, ctx);
            }
            Admission::Full => self.admit_sub(sid, template, client, false, ctx),
        }
    }

    /// Inserts the table row (evicting the LRU/popularity victim from a
    /// full table first), registers the watches, and schedules the initial
    /// snapshot push.
    fn admit_sub(
        &mut self,
        sid: u64,
        template: u16,
        client: NodeId,
        degraded: bool,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        if self.subs.table.len() >= qos::MAX_SUBS {
            if let Some(victim) = qos::evict_victim(self.subs.eviction_rows()) {
                let e = self.subs.table.remove(&victim).expect("victim exists");
                ctx.metrics().inc("wl.sub.evicted");
                self.send_sub_end(victim, e.client, end_reason::EVICTED, ctx);
            }
        }
        self.subs
            .table
            .insert(sid, SubEntry::new(client, template, degraded, ctx.now()));
        ctx.metrics().inc("wl.sub.admitted");
        self.subs.views.or_insert_with(template, || {
            TemplateView::new(qos::WINDOW_MIN, qos::WINDOW_MAX)
        });
        // This root is always its own cluster's watcher; full admissions
        // additionally flood the watch over the backbone so every cluster
        // root reports. Degraded admissions stay local-only: O(1) clusters
        // of cost and an honestly reduced coverage.
        self.register_watch(template, self.id, ctx);
        if !degraded {
            let seen = self.subs.seen_watch.or_insert_with(template, FlatSet::new);
            if seen.insert(self.id) {
                self.flood_watch(template, self.id, None, ctx);
            }
        }
        self.schedule_flush(template, ctx);
    }

    /// Ends a subscription towards its client (local clients are told
    /// directly).
    fn send_sub_end(&mut self, sid: u64, client: NodeId, reason: u8, ctx: &mut Ctx<'_, ServeMsg>) {
        if client == self.id {
            self.subs.end_client(sid, reason);
        } else {
            ctx.unicast_tagged(
                client,
                ServeMsg::SubEnd { sid, reason },
                "wl_subctl",
                2,
                QID_SUB_CONTROL | sid,
            );
        }
    }

    /// Forwards a `SubWatch` flood to backbone peers (minus the cluster it
    /// came from).
    fn flood_watch(
        &self,
        template: u16,
        coordinator: NodeId,
        from_cluster: Option<usize>,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        for &p in &self.plan.backbone_peers {
            if Some(self.shared.cluster_of[p]) == from_cluster {
                continue;
            }
            if let Some(addr) = self.peer_root(p, ctx) {
                send_watch(addr, template, coordinator, ctx);
            }
        }
    }

    /// Watcher root: a `SubWatch` flood arrived — register the coordinator
    /// and forward the flood onward (deduplicated per (template,
    /// coordinator), so concurrent floods terminate).
    pub(super) fn on_sub_watch(
        &mut self,
        template: u16,
        coordinator: NodeId,
        from: NodeId,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        let seen = self.subs.seen_watch.or_insert_with(template, FlatSet::new);
        if !seen.insert(coordinator) {
            return;
        }
        self.register_watch(template, coordinator, ctx);
        let from_cluster = self.shared.cluster_of[from];
        self.flood_watch(template, coordinator, Some(from_cluster), ctx);
    }

    /// Watcher: a coordinator confirmed the current contribution; the last
    /// confirmation disarms the retry deadline.
    pub(super) fn on_sub_contrib_ack(
        &mut self,
        template: u16,
        cseq: u64,
        from: NodeId,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        let Some(w) = self.subs.watches.get_mut(&template) else {
            return;
        };
        if cseq == w.cseq {
            w.unacked.retain(|&c| c != from);
            if w.unacked.is_empty() {
                w.retries = 0;
                self.cancel_deadline(Deadline::ContribRetry(template), ctx);
            }
        }
    }

    /// Watcher: register a coordinator for a template. A brand-new
    /// coordinator immediately receives the last known contribution under
    /// the current `cseq` (one `cseq` names one content, so the other
    /// coordinators' acks of it keep counting), or triggers the first
    /// repair if none exists yet.
    fn register_watch(&mut self, template: u16, coord: NodeId, ctx: &mut Ctx<'_, ServeMsg>) {
        let w = self.subs.watches.or_insert_with(template, || {
            WatchState::new(qos::WINDOW_MIN, qos::WINDOW_MAX)
        });
        if !w.add_coord(coord) {
            return;
        }
        if let Some((matches, covered)) = w.last.clone() {
            let cseq = w.cseq;
            if self.shared.recovery && coord != self.id {
                w.unacked.push(coord);
                w.retries = 0;
            }
            let trigger = ctx.now();
            self.send_contrib(coord, template, cseq, matches, covered, trigger, ctx);
            self.arm_contrib_retry(template, ctx);
        } else {
            self.mark_watch_dirty(template, ctx);
        }
    }

    /// Watcher: the local cluster's content (possibly) changed for every
    /// watched template — schedule repairs through the adaptive window.
    pub(super) fn mark_all_watches_dirty(&mut self, ctx: &mut Ctx<'_, ServeMsg>) {
        let templates: Vec<u16> = self.subs.watches.keys().copied().collect();
        for t in templates {
            self.mark_watch_dirty(t, ctx);
        }
    }

    /// Marks one watch dirty and arms its repair flush timer. The window
    /// *grows* with arrival density, so a churn storm coalesces into few
    /// repairs while sparse drift repairs at the latency floor.
    fn mark_watch_dirty(&mut self, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
        let now = ctx.now();
        let Some(w) = self.subs.watches.get_mut(&template) else {
            return;
        };
        if !w.dirty {
            w.trigger = now;
        }
        w.dirty = true;
        w.window.observe(now);
        if !w.repairing {
            arm_repair(w, template, ctx);
        }
    }

    /// Repair flush: start the incremental re-evaluation of this cluster's
    /// contribution, riding the ordinary descent machinery (cache,
    /// single-flight, batching, recovery deadlines all apply).
    pub(super) fn on_sub_repair_timer(&mut self, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
        let Some(w) = self.subs.watches.get_mut(&template) else {
            return;
        };
        w.armed = false;
        if w.repairing || !w.dirty {
            return;
        }
        w.dirty = false;
        w.repairing = true;
        ctx.metrics().inc("wl.sub.repair");
        let rider = QID_SUB_REPAIR | u64::from(template);
        match self.local_cluster_eval(rider, template, ctx) {
            LocalEval::Resolved(m, covered) => self.finish_repair(template, m, covered, ctx),
            LocalEval::Pending => {}
        }
    }

    /// A repair descent completed against a state that moved mid-flight:
    /// suppress the (stale) contribution and go again — the climb that
    /// bumped the epoch already re-dirtied the watch.
    pub(super) fn repair_went_stale(&mut self, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
        ctx.metrics().inc("wl.sub.repair.stale");
        let Some(w) = self.subs.watches.get_mut(&template) else {
            return;
        };
        w.repairing = false;
        w.dirty = true;
        arm_repair(w, template, ctx);
    }

    /// A repair produced this cluster's fresh contribution: report it to
    /// every coordinator *iff it changed* (steady-state traffic stays
    /// proportional to churn) under the next `cseq` — the one place `cseq`
    /// moves — then reschedule if more churn arrived mid-repair.
    pub(super) fn finish_repair(
        &mut self,
        template: u16,
        matches: NodeSet,
        covered: u64,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        let recovery = self.shared.recovery;
        let Some(w) = self.subs.watches.get_mut(&template) else {
            return;
        };
        w.repairing = false;
        let resched = w.dirty;
        let fresh = (matches, covered);
        if w.last.as_ref() != Some(&fresh) {
            w.cseq += 1;
            if recovery {
                w.unacked = w.coords.iter().copied().filter(|&c| c != self.id).collect();
                w.retries = 0;
            }
            let (coords, cseq, trigger) = (w.coords.clone(), w.cseq, w.trigger);
            let (m, cov) = w.last.insert(fresh).clone();
            for c in coords {
                self.send_contrib(c, template, cseq, m.clone(), cov, trigger, ctx);
            }
            self.arm_contrib_retry(template, ctx);
        }
        if resched {
            if let Some(w) = self.subs.watches.get_mut(&template) {
                arm_repair(w, template, ctx);
            }
        }
    }

    /// Sends one absolute contribution to a coordinator (self-delivery
    /// short-circuits the network).
    #[allow(clippy::too_many_arguments)]
    fn send_contrib(
        &mut self,
        coord: NodeId,
        template: u16,
        cseq: u64,
        matches: NodeSet,
        covered: u64,
        trigger: SimTime,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        ctx.metrics().inc("wl.sub.contrib");
        let cluster = self.shared.cluster_of[self.id];
        if coord == self.id {
            self.on_sub_contrib(
                template, cluster, cseq, matches, covered, trigger, self.id, ctx,
            );
            return;
        }
        let scalars = matches.len() as u64 + 2;
        ctx.unicast_tagged(
            coord,
            ServeMsg::SubContrib {
                template,
                cluster,
                cseq,
                matches,
                covered,
                trigger,
            },
            "wl_subcontrib",
            scalars,
            QID_SUB_REPAIR | u64::from(template),
        );
    }

    /// Arms the contribution retransmit deadline while a coordinator has
    /// not acked (recovery only: without it `unacked` stays empty). Each
    /// send re-arms it, so the deadline runs from the latest contribution.
    fn arm_contrib_retry(&mut self, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
        if self
            .subs
            .watches
            .get(&template)
            .is_some_and(|w| !w.unacked.is_empty())
        {
            self.arm_deadline(Deadline::ContribRetry(template), ctx);
        }
    }

    /// Contribution retransmit deadline: one bounded retry round to the
    /// still-unacked coordinators, then give up (a dead coordinator's
    /// successor re-registers the watch itself).
    pub(super) fn on_contrib_retry(&mut self, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
        let Some(w) = self.subs.watches.get_mut(&template) else {
            return;
        };
        if w.unacked.is_empty() {
            return;
        }
        if w.retries >= 2 {
            ctx.metrics().inc("wl.sub.contrib.gaveup");
            w.unacked.clear();
            return;
        }
        w.retries += 1;
        let (targets, cseq, trigger) = (w.unacked.clone(), w.cseq, w.trigger);
        let Some((m, cov)) = w.last.clone() else {
            return;
        };
        ctx.metrics().inc("wl.sub.contrib.retry");
        for c in targets {
            self.send_contrib(c, template, cseq, m.clone(), cov, trigger, ctx);
        }
        self.arm_contrib_retry(template, ctx);
    }

    /// Coordinator: integrate one cluster's absolute contribution and
    /// schedule a push flush if the merged view moved.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_sub_contrib(
        &mut self,
        template: u16,
        cluster: usize,
        cseq: u64,
        matches: NodeSet,
        covered: u64,
        trigger: SimTime,
        from: NodeId,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        if self.shared.recovery && from != self.id {
            ctx.unicast_tagged(
                from,
                ServeMsg::SubContribAck { template, cseq },
                "wl_subctl",
                2,
                QID_SUB_CONTROL | u64::from(template),
            );
        }
        let Some(v) = self.subs.views.get_mut(&template) else {
            return;
        };
        if v.integrate(cluster, from, cseq, matches, covered) {
            v.trigger = Some(v.trigger.map_or(trigger, |t0| t0.min(trigger)));
            self.schedule_flush(template, ctx);
        }
    }

    /// Arms the push flush timer for a template through its adaptive
    /// window.
    fn schedule_flush(&mut self, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
        let now = ctx.now();
        let Some(v) = self.subs.views.get_mut(&template) else {
            return;
        };
        v.window.observe(now);
        if v.trigger.is_none() {
            v.trigger = Some(now);
        }
        if !v.flush_armed {
            v.flush_armed = true;
            Timer::SubFlush(template).arm(v.window.window(), ctx);
        }
    }

    /// Push flush: compose and send the pending delta (or snapshot) for
    /// every subscription of this template.
    pub(super) fn on_sub_flush(&mut self, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
        let Some(v) = self.subs.views.get_mut(&template) else {
            return;
        };
        v.flush_armed = false;
        let trigger = v.trigger.take().unwrap_or_else(|| ctx.now());
        let (merged, covered) = (v.merged.clone(), v.covered);
        let sids: Vec<u64> = self
            .subs
            .table
            .iter()
            .filter(|(_, e)| e.template == template)
            .map(|(&s, _)| s)
            .collect();
        for sid in sids {
            self.push_to(sid, &merged, covered, trigger, ctx);
        }
    }

    /// Composes and transmits one push (self-subscribed clients are served
    /// without touching the network).
    fn push_to(
        &mut self,
        sid: u64,
        merged: &NodeSet,
        covered: u64,
        trigger: SimTime,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        let recovery = self.shared.recovery;
        let Some(e) = self.subs.table.get_mut(&sid) else {
            return;
        };
        let Some(push) = e.compose_push(merged, covered, trigger) else {
            return;
        };
        let client = e.client;
        if !recovery {
            // Fault-free transport delivers: confirm optimistically and
            // skip the entire ack round.
            e.confirm(push.version);
        }
        ctx.metrics().inc("wl.sub.push");
        if client != self.id {
            self.send_push(sid, client, push, ctx);
            return;
        }
        let version = push.version;
        self.on_sub_push(
            sid,
            version,
            push.base_version,
            push.snapshot,
            push.adds,
            push.removes,
            push.covered,
            push.trigger,
            self.id,
            ctx,
        );
        if recovery {
            if let Some(e) = self.subs.table.get_mut(&sid) {
                e.confirm(version);
            }
        }
    }

    /// Sends one push to a remote client and, under recovery, arms its
    /// retransmit deadline (replacing the one of an earlier push).
    fn send_push(&mut self, sid: u64, client: NodeId, p: SentPush, ctx: &mut Ctx<'_, ServeMsg>) {
        let scalars = p.adds.len() as u64 + p.removes.len() as u64 + 3;
        ctx.unicast_tagged(
            client,
            ServeMsg::SubPush {
                sid,
                version: p.version,
                base_version: p.base_version,
                snapshot: p.snapshot,
                adds: p.adds,
                removes: p.removes,
                covered: p.covered,
                trigger: p.trigger,
            },
            "wl_subpush",
            scalars,
            QID_SUB_PUSH | sid,
        );
        self.arm_deadline(Deadline::PushRetry(sid), ctx);
    }

    /// Push retransmit deadline: bounded retries of the identical push,
    /// then the client is declared unreachable and the row dropped.
    pub(super) fn on_push_retry(&mut self, sid: u64, ctx: &mut Ctx<'_, ServeMsg>) {
        let Some(e) = self.subs.table.get_mut(&sid) else {
            return;
        };
        let Some(p) = e.sent.clone() else {
            return;
        };
        let client = e.client;
        if e.retries < 2 {
            e.retries += 1;
            ctx.metrics().inc("wl.sub.push.retry");
            self.send_push(sid, client, p, ctx);
        } else {
            self.subs.table.remove(&sid);
            ctx.metrics().inc("wl.sub.gaveup");
            self.send_sub_end(sid, client, end_reason::UNREACHABLE, ctx);
        }
    }

    /// Client: apply one push under the version rules; ack under recovery,
    /// escalate to a resync on a version gap.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_sub_push(
        &mut self,
        sid: u64,
        version: u64,
        base_version: u64,
        snapshot: bool,
        adds: Vec<NodeId>,
        removes: Vec<NodeId>,
        covered: u64,
        trigger: SimTime,
        from: NodeId,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        let Some(c) = self.subs.client.get_mut(&sid) else {
            return;
        };
        match c.apply_push(version, base_version, snapshot, &adds, &removes, covered) {
            PushVerdict::Applied => {
                let lat = ctx.now().saturating_sub(trigger);
                ctx.metrics().observe("wl.sub.push_latency", lat);
                c.latencies.push(lat);
                if self.shared.recovery && from != self.id {
                    ctx.unicast_tagged(
                        from,
                        ServeMsg::SubAck { sid, version },
                        "wl_suback",
                        2,
                        QID_SUB_PUSH | sid,
                    );
                }
            }
            PushVerdict::Ignored => {}
            PushVerdict::NeedResync => {
                ctx.metrics().inc("wl.sub.resync");
                if from == self.id {
                    self.on_sub_resync(sid, ctx);
                } else {
                    ctx.unicast_tagged(
                        from,
                        ServeMsg::SubResync { sid },
                        "wl_subctl",
                        1,
                        QID_SUB_CONTROL | sid,
                    );
                }
            }
        }
    }

    /// Coordinator: a push was confirmed, which disarms its retransmit
    /// deadline.
    pub(super) fn on_sub_ack(&mut self, sid: u64, version: u64, ctx: &mut Ctx<'_, ServeMsg>) {
        let now = ctx.now();
        let Some(e) = self.subs.table.get_mut(&sid) else {
            return;
        };
        e.last_active = now;
        if e.confirm(version) {
            e.retries = 0;
            self.cancel_deadline(Deadline::PushRetry(sid), ctx);
        }
    }

    /// Coordinator: the client's view diverged — restart its stream from a
    /// snapshot.
    pub(super) fn on_sub_resync(&mut self, sid: u64, ctx: &mut Ctx<'_, ServeMsg>) {
        let Some(e) = self.subs.table.get_mut(&sid) else {
            return;
        };
        e.restart(ctx.now());
        let template = e.template;
        self.schedule_flush(template, ctx);
    }

    /// Forwards a `SubTakeover` flood and reacts in the coordinator and
    /// watcher roles: the dead root's contributions become unverifiable
    /// (drop them — honesty over completeness), its node disappears from
    /// coordinator lists, and every global watch is re-registered with the
    /// successor.
    pub(super) fn on_sub_takeover(
        &mut self,
        cluster: usize,
        successor: NodeId,
        from: NodeId,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        if self.subs.seen_takeover.get(&cluster) == Some(&successor) {
            return;
        }
        self.subs.seen_takeover.insert(cluster, successor);
        let cluster_of = &self.shared.cluster_of;
        self.flood_takeover(cluster, successor, Some(cluster_of[from]), ctx);
        if successor == self.id {
            return;
        }
        // Watcher role: stop reporting to the dead coordinator. The
        // successor is spared even though it sits in the same cluster — its
        // `SubWatch` may have raced ahead of this flood, and the per-
        // coordinator `seen_watch` dedup would block it from ever
        // re-registering a watch this purge dropped.
        for (_, w) in self.subs.watches.iter_mut() {
            w.coords
                .retain(|&c| c == successor || cluster_of[c] != cluster);
            w.unacked
                .retain(|&c| c == successor || cluster_of[c] != cluster);
        }
        // Coordinator role: the failed cluster's claims are unverifiable
        // until its successor reports — drop them (views shrink honestly)
        // and re-register every global watch with the successor.
        let templates: Vec<u16> = self.subs.views.keys().copied().collect();
        for t in templates {
            let changed = self
                .subs
                .views
                .get_mut(&t)
                .is_some_and(|v| v.zero_cluster(cluster));
            if changed {
                self.schedule_flush(t, ctx);
            }
            if self.subs.wants_global(t) {
                send_watch(successor, t, self.id, ctx);
            }
        }
    }

    /// Floods a takeover of `cluster` by `successor` over the backbone,
    /// minus the cluster the flood came from and the failed cluster.
    pub(super) fn flood_takeover(
        &self,
        cluster: usize,
        successor: NodeId,
        from_cluster: Option<usize>,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        for &p in &self.plan.backbone_peers {
            let pc = self.shared.cluster_of[p];
            if Some(pc) == from_cluster || pc == cluster {
                continue;
            }
            if let Some(addr) = self.current_root(pc, ctx) {
                ctx.unicast_tagged(
                    addr,
                    ServeMsg::SubTakeover { cluster, successor },
                    "wl_subwatch",
                    2,
                    QID_SUB_CONTROL | cluster as u64,
                );
            }
        }
    }

    /// Client: the failover successor asked for re-registration — re-send
    /// every active subscription (its table died with the old root).
    pub(super) fn on_sub_reregister(&self, from: NodeId, ctx: &mut Ctx<'_, ServeMsg>) {
        for (&sid, c) in self.subs.client.iter() {
            if c.active {
                self.send_register(from, sid, c.template, ctx);
            }
        }
    }
}
