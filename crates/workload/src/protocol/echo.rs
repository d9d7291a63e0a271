//! The initiator and the echo wave: submission through the load ladder,
//! the initiator watchdog and the final answer, and the fan-out /
//! convergecast over the leader backbone at cluster roots.

use super::descent::LocalEval;
use super::{CompletedQuery, Deadline, ServeMsg, ServeNode, Timer};
use crate::gen::Template;
use crate::nodeset::NodeSet;
use crate::qos::Admission;
use elink_netsim::{Ctx, QueryId, SimTime};
use elink_topology::{NodeId, Topology};
use std::collections::VecDeque;

/// Per-query echo (fan-out/convergecast) state at a cluster root.
#[derive(Debug, Clone)]
pub(super) struct EchoState {
    /// Backbone peer to reply to (`None` at the coordinator).
    parent: Option<NodeId>,
    /// The initiator (meaningful at the coordinator only).
    initiator: NodeId,
    /// Template index (kept for the re-issue round).
    template: u16,
    /// Peer *clusters* whose `BackAgg` is still outstanding. Tracking the
    /// cluster rather than the leader node lets a re-issued fanout go to a
    /// failover successor while a late answer from the original leader is
    /// still deduplicated.
    outstanding: Vec<usize>,
    /// Whether the local cluster answer is still being computed.
    pub(super) local_pending: bool,
    /// Matches accumulated so far: the union of the local cluster answer
    /// and every backbone subtree answer received.
    pub(super) acc: NodeSet,
    /// Nodes whose membership the wave has determined so far.
    pub(super) covered: u64,
    /// Whether the one re-issue round has been spent.
    reissued: bool,
}

/// A query submitted here and not yet answered.
#[derive(Debug, Clone)]
pub(super) struct PendingQuery {
    template: u16,
    submitted: SimTime,
    /// Whether the one resubmission round has been spent.
    resubmitted: bool,
    /// Load-ladder verdict at submission time — a resubmission round
    /// re-sends the same verdict so one query never widens its scope
    /// mid-flight.
    degraded: bool,
}

impl ServeNode {
    /// Closed loop: submits the next scripted query.
    pub(super) fn submit_next(&mut self, ctx: &mut Ctx<'_, ServeMsg>) {
        if let Some(e) = self.script.pop_front() {
            self.submit(e.qid, e.template, ctx);
        }
    }

    /// Closed loop: arms the next scripted submission after its think time.
    pub(super) fn arm_next_script(&self, ctx: &mut Ctx<'_, ServeMsg>) {
        if let Some(e) = self.script.front() {
            Timer::Script.arm(e.think, ctx);
        }
    }

    pub(super) fn submit(&mut self, qid: QueryId, template: u16, ctx: &mut Ctx<'_, ServeMsg>) {
        // Load admission runs *before* any wire traffic: a shed query costs
        // zero messages, a degraded one never touches the backbone. The
        // decision is pinned here (not re-evaluated downstream) so one
        // query sees one verdict.
        let admission = self.load_admission(ctx);
        self.pending.insert(
            qid,
            PendingQuery {
                template,
                submitted: ctx.now(),
                resubmitted: false,
                degraded: admission == Admission::Degraded,
            },
        );
        ctx.metrics().inc("wl.query.submitted");
        let degraded = match admission {
            Admission::Shed => {
                ctx.metrics().inc("serve.shed");
                ctx.trace_shed(qid);
                self.deliver_answer(qid, &NodeSet::new(), 0, true, ctx);
                return;
            }
            Admission::Degraded => {
                ctx.metrics().inc("serve.degraded");
                true
            }
            Admission::Full => {
                ctx.metrics().inc("serve.admitted");
                false
            }
        };
        let root = self.own_root(ctx);
        if root == self.id {
            self.ensure_root(ctx);
            self.start_echo(qid, template, None, self.id, degraded, ctx);
        } else if send_to_root(root, qid, template, degraded, ctx) {
            // Routed; the root takes over as coordinator. Under recovery the
            // initiator also arms a watchdog in case the root dies on us.
            self.arm_deadline(Deadline::Init(qid), ctx);
        } else {
            self.pending.remove(&qid);
            ctx.metrics().inc("wl.query.lost");
            // Keep a closed-loop client alive even when a query is lost.
            self.arm_next_script(ctx);
        }
    }

    /// Initiator watchdog: one resubmission round (re-resolved against the
    /// current leader — this is what routes around a crashed coordinator),
    /// then a guaranteed empty zero-coverage answer so closed loops never
    /// wedge.
    pub(super) fn on_init_deadline(&mut self, qid: QueryId, ctx: &mut Ctx<'_, ServeMsg>) {
        let Some(p) = self.pending.get_mut(&qid) else {
            return;
        };
        if p.resubmitted {
            ctx.metrics().inc("wl.recover.query_gaveup");
            self.deliver_answer(qid, &NodeSet::new(), 0, false, ctx);
            return;
        }
        p.resubmitted = true;
        let (template, degraded) = (p.template, p.degraded);
        ctx.metrics().inc("wl.recover.resubmit");
        let root = self.own_root(ctx);
        if root == self.id {
            self.ensure_root(ctx);
            self.join_echo(qid, template, None, self.id, degraded, ctx);
        } else {
            send_to_root(root, qid, template, degraded, ctx);
            self.arm_deadline(Deadline::Init(qid), ctx);
        }
    }

    /// Starts the echo for `qid` unless one is already in flight: a
    /// resubmission or a re-issued fanout may race the original, and the
    /// first wins.
    pub(super) fn join_echo(
        &mut self,
        qid: QueryId,
        template: u16,
        parent: Option<NodeId>,
        initiator: NodeId,
        local_only: bool,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        if !self.echo.contains_key(&qid) {
            self.start_echo(qid, template, parent, initiator, local_only, ctx);
        }
    }

    fn start_echo(
        &mut self,
        qid: QueryId,
        template: u16,
        parent: Option<NodeId>,
        initiator: NodeId,
        local_only: bool,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        // The echo spans the backbone tree; the parent is excluded by
        // *cluster* so a fanout from a failover successor is recognized.
        // A load-degraded query skips the backbone entirely (`local_only`):
        // it costs one cluster and its `covered` count honestly stops at
        // this cluster's members.
        let parent_cluster = parent.map(|p| self.shared.cluster_of[p]);
        let mut outstanding = Vec::new();
        let peers: &[NodeId] = if local_only {
            &[]
        } else {
            &self.plan.backbone_peers
        };
        for &p in peers {
            let pc = self.shared.cluster_of[p];
            if Some(pc) == parent_cluster {
                continue;
            }
            // A fully dead peer cluster is skipped and stays uncovered.
            if self
                .peer_root(p, ctx)
                .is_some_and(|addr| send_fanout(addr, qid, template, ctx))
            {
                outstanding.push(pc);
            }
        }
        let mut st = EchoState {
            parent,
            initiator,
            template,
            outstanding,
            local_pending: false,
            acc: NodeSet::new(),
            covered: 0,
            reissued: false,
        };
        match self.local_cluster_eval(qid, template, ctx) {
            LocalEval::Resolved(m, covered) => {
                st.acc = m;
                st.covered += covered;
            }
            LocalEval::Pending => st.local_pending = true,
        }
        self.echo.insert(qid, st);
        self.arm_deadline(Deadline::Echo(qid), ctx);
        self.maybe_finish_echo(qid, ctx);
    }

    /// Echo deadline at an echo participant: one re-issue round to the
    /// outstanding peer clusters (re-resolved, so a crashed leader's seat is
    /// retried at its successor), then a forced partial convergecast so the
    /// wave always terminates.
    pub(super) fn on_echo_deadline(&mut self, qid: QueryId, ctx: &mut Ctx<'_, ServeMsg>) {
        let Some(st) = self.echo.get_mut(&qid) else {
            return;
        };
        if st.reissued {
            let st = self.echo.remove(&qid).expect("checked above");
            ctx.metrics().inc("wl.recover.echo_gaveup");
            self.finish_echo(qid, st, ctx);
            return;
        }
        st.reissued = true;
        ctx.metrics().inc("wl.recover.reissue");
        let st = self.echo.get(&qid).expect("checked above");
        for &pc in &st.outstanding {
            if let Some(addr) = self.current_root(pc, ctx) {
                send_fanout(addr, qid, st.template, ctx);
            }
        }
        self.arm_deadline(Deadline::Echo(qid), ctx);
    }

    /// A backbone subtree answered. Answers are deduplicated by peer
    /// *cluster*: after a re-issue both the slow original leader and its
    /// successor may answer.
    pub(super) fn on_back_agg(
        &mut self,
        qid: QueryId,
        from: NodeId,
        matches: &NodeSet,
        covered: u64,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        if let Some(st) = self.echo.get_mut(&qid) {
            let pc = self.shared.cluster_of[from];
            if let Some(pos) = st.outstanding.iter().position(|&c| c == pc) {
                st.outstanding.remove(pos);
                st.acc.union(matches);
                st.covered += covered;
            }
        }
        self.maybe_finish_echo(qid, ctx);
    }

    pub(super) fn maybe_finish_echo(&mut self, qid: QueryId, ctx: &mut Ctx<'_, ServeMsg>) {
        let done = self
            .echo
            .get(&qid)
            .is_some_and(|st| st.outstanding.is_empty() && !st.local_pending);
        if !done {
            return;
        }
        let st = self.echo.remove(&qid).expect("checked above");
        self.finish_echo(qid, st, ctx);
    }

    /// Converges the (possibly partial) echo result towards whoever asked.
    fn finish_echo(&mut self, qid: QueryId, st: EchoState, ctx: &mut Ctx<'_, ServeMsg>) {
        self.cancel_deadline(Deadline::Echo(qid), ctx);
        let scalars = st.acc.len() as u64 + 1;
        if let Some(p) = st.parent {
            ctx.unicast_tagged(
                p,
                ServeMsg::BackAgg {
                    qid,
                    matches: st.acc,
                    covered: st.covered,
                },
                "wl_backagg",
                scalars,
                qid,
            );
        } else if st.initiator == self.id {
            self.deliver_answer(qid, &st.acc, st.covered, false, ctx);
        } else {
            ctx.unicast_tagged(
                st.initiator,
                ServeMsg::Down {
                    qid,
                    matches: st.acc,
                    covered: st.covered,
                },
                "wl_down",
                scalars,
                qid,
            );
        }
    }

    /// Records the final answer at the initiator; for path templates also
    /// runs the local safe-path search over the unsafe set. `covered` is the
    /// number of nodes whose membership the wave determined; it becomes the
    /// answer's [`CompletedQuery::coverage_milli`].
    pub(super) fn deliver_answer(
        &mut self,
        qid: QueryId,
        matches: &NodeSet,
        covered: u64,
        shed: bool,
        ctx: &mut Ctx<'_, ServeMsg>,
    ) {
        let Some(p) = self.pending.remove(&qid) else {
            return;
        };
        self.cancel_deadline(Deadline::Init(qid), ctx);
        let (template, submitted) = (p.template, p.submitted);
        let path = match &self.shared.templates[template as usize] {
            Template::Range { .. } => None,
            Template::Path { source, dest, .. } => {
                let p = safe_path(&self.shared.topology, matches, *source, *dest);
                ctx.metrics().inc(if p.is_some() {
                    "wl.path.found"
                } else {
                    "wl.path.none"
                });
                p
            }
        };
        let finished = ctx.now();
        ctx.metrics().observe("wl.latency", finished - submitted);
        ctx.metrics().inc("wl.query.done");
        let n = ctx.n() as u64;
        let coverage_milli = (covered.min(n) * 1000 / n.max(1)) as u16;
        if coverage_milli < 1000 {
            ctx.metrics().inc("wl.query.partial");
        }
        self.completed.push(CompletedQuery {
            qid,
            template,
            submitted,
            finished,
            matches: matches.to_vec(),
            path,
            coverage_milli,
            shed,
        });
        // Closed loop: schedule the next scripted query after think time.
        self.arm_next_script(ctx);
    }
}

/// Routes a query from its initiator to the cluster root that coordinates
/// its echo. False when no route exists.
fn send_to_root(
    root: NodeId,
    qid: QueryId,
    template: u16,
    degraded: bool,
    ctx: &mut Ctx<'_, ServeMsg>,
) -> bool {
    ctx.unicast_tagged(
        root,
        ServeMsg::ToRoot {
            qid,
            template,
            degraded,
        },
        "wl_route",
        2,
        qid,
    )
}

/// Sends the echo wave's fanout to a backbone peer. False when no route
/// exists.
fn send_fanout(addr: NodeId, qid: QueryId, template: u16, ctx: &mut Ctx<'_, ServeMsg>) -> bool {
    ctx.unicast_tagged(
        addr,
        ServeMsg::Fanout { qid, template },
        "wl_fanout",
        2,
        qid,
    )
}

/// Breadth-first safe path from `source` to `dest` avoiding `unsafe_set`.
/// Returns `None` when either endpoint is unsafe or the safe subgraph
/// disconnects them.
fn safe_path(
    topology: &Topology,
    unsafe_set: &NodeSet,
    source: NodeId,
    dest: NodeId,
) -> Option<Vec<NodeId>> {
    let is_unsafe = |v: NodeId| unsafe_set.contains(v);
    if is_unsafe(source) || is_unsafe(dest) {
        return None;
    }
    let n = topology.n();
    let mut prev: Vec<Option<NodeId>> = vec![None; n];
    let mut seen = vec![false; n];
    seen[source] = true;
    let mut queue = VecDeque::from([source]);
    while let Some(v) = queue.pop_front() {
        if v == dest {
            let mut path = vec![dest];
            let mut cur = dest;
            while let Some(p) = prev[cur] {
                path.push(p);
                cur = p;
            }
            path.reverse();
            return Some(path);
        }
        for &w in topology.graph().neighbors(v) {
            let w = w as usize;
            if !seen[w] && !is_unsafe(w) {
                seen[w] = true;
                prev[w] = Some(v);
                queue.push_back(w);
            }
        }
    }
    None
}
