//! The standing-query serving bench behind `BENCH_sub.json` (schema
//! `elink-sub/v2`).
//!
//! Three runs share one deployment preset (same topology, features, seed
//! and update stream):
//!
//! 1. **maintenance control** — updates only, no serving. Its wire bill is
//!    the shared churn cost (invalidation climbs, absorption) that both
//!    serving strategies pay identically.
//! 2. **push** — clients register standing subscriptions once; every
//!    subsequent update is served by the incremental repair + delta-push
//!    pipeline.
//! 3. **re-query** — no subscriptions; after every update each would-be
//!    subscriber re-issues a one-shot query for its template (the strategy
//!    a standing query replaces).
//!
//! Strategy cost = total wire messages − control messages, i.e. exactly
//! the serving traffic added on top of churn maintenance. The headline
//! ratio `requery/push` (milli) is the ISSUE acceptance metric (floor
//! 2000 = "at least 2× fewer messages per update"). Push latency
//! percentiles come from the per-client samples recorded at delivery.

use crate::admission::percentile;
use crate::ext_workload::deploy;
use crate::fields;
use crate::json::{Json, Object};
use elink_metric::Absolute;
use elink_workload::{ServeOptions, Truth, WorkloadSpec};
use std::sync::Arc;

/// Everything `sub_report` prints and serializes. Every field is
/// deterministic for a fixed preset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubReport {
    /// Nodes in the deployment.
    pub n_nodes: usize,
    /// Clusters in the deployment.
    pub n_clusters: usize,
    /// Standing subscriptions registered.
    pub n_subscribers: usize,
    /// Background feature updates driven through both strategies.
    pub n_updates: usize,
    /// Subscriptions still live at the end of the push run.
    pub active_subs: usize,
    /// Pushes applied across all clients.
    pub pushes: u64,
    /// Incremental repair descents at watcher roots.
    pub repairs: u64,
    /// Per-cluster contributions reported to coordinators.
    pub contribs: u64,
    /// Push latency percentiles (ticks, nearest-rank over applied pushes).
    pub push_p50: u64,
    /// 90th percentile push latency.
    pub push_p90: u64,
    /// 99th percentile push latency.
    pub push_p99: u64,
    /// Maximum push latency.
    pub push_max: u64,
    /// Serving wire messages of the push strategy (total − control).
    pub push_msgs: u64,
    /// Serving wire messages of the re-query strategy (total − control).
    pub requery_msgs: u64,
    /// Push serving messages per update (milli).
    pub push_per_update_milli: u64,
    /// Re-query serving messages per update (milli).
    pub requery_per_update_milli: u64,
    /// `requery_msgs / push_msgs` in milli — the acceptance ratio.
    pub ratio_milli: u64,
}

/// The bench preset: a 256-node terrain deployment, 8 subscribers over the
/// zipf head, 48 slack-exceeding-prone updates. `scale=1` is the committed
/// preset; tests shrink it.
pub fn preset(scale: u32) -> (WorkloadSpec, f64, usize) {
    let mut spec = WorkloadSpec::quick(42);
    spec.n_queries = 0;
    spec.n_updates = 48 / scale as usize;
    spec.update_gap = 24;
    spec.n_subscribers = 8 / scale.min(4) as usize;
    let n_nodes = 256 / scale as usize;
    (spec, 300.0, n_nodes)
}

/// Runs the three-way comparison for one preset scale.
pub fn run_once(scale: u32) -> SubReport {
    let (spec, delta, n_nodes) = preset(scale);

    // 1. Maintenance control: churn only. Schedules are seed-deterministic,
    //    so the update stream is identical across all three runs.
    let control = {
        let mut s = spec.clone();
        s.n_subscribers = 0;
        let mut sim = deploy(n_nodes, delta, &s, ServeOptions::for_delta(delta));
        let updates = sim.schedule().updates.clone();
        for u in updates {
            sim.inject_update(u.at, u.node, u.feature);
        }
        sim.quiesce();
        sim.sim().costs().total_packets()
    };

    // 2. Push: register subscribers, then drive the same churn through the
    //    incremental repair pipeline. Each update quiesces before the next
    //    so the per-update serving cost is honest (no cross-update
    //    coalescing hides traffic the re-query strategy would also save).
    let (push_total, n_clusters, subs, report_core) = {
        let mut sim = deploy(n_nodes, delta, &spec, ServeOptions::for_delta(delta));
        let subs = sim.schedule().subscriptions.clone();
        let updates = sim.schedule().updates.clone();
        for s in &subs {
            sim.inject_subscribe(s.at, s.client, s.sid, s.template);
        }
        sim.quiesce();
        for u in updates {
            let at = u.at.max(sim.sim().now());
            sim.inject_update(at, u.node, u.feature);
            sim.quiesce();
        }
        let total = sim.sim().costs().total_packets();
        // Soundness gate: every surviving view keeps the view contract over
        // the final anchors, and a fault-free run reaches full coverage —
        // so every view equals the brute-force truth.
        let truth = Truth::new(
            &sim.schedule().templates,
            &sim.anchors(),
            Arc::new(Absolute),
        );
        let n = sim.sim().nodes().len() as u64;
        let mut active = 0usize;
        let mut lats: Vec<u64> = Vec::new();
        let mut pushes = 0u64;
        for node in sim.sim().nodes() {
            for (sid, c) in node.client_subs() {
                if !c.active {
                    continue;
                }
                active += 1;
                pushes += c.pushes;
                lats.extend_from_slice(&c.latencies);
                assert_eq!(c.covered, n, "sid {sid} missed full coverage");
                assert_eq!(truth.view(c, n), Ok(()), "push view of sid {sid}");
            }
        }
        lats.sort_unstable();
        let repairs = sim.sim().metrics().counter("wl.sub.repair");
        let contribs = sim.sim().metrics().counter("wl.sub.contrib");
        (
            total,
            sim.n_clusters(),
            subs,
            (active, pushes, lats, repairs, contribs),
        )
    };

    // 3. Re-query: the same subscriber set refreshes by one-shot queries
    //    after every update.
    let requery_total = {
        let mut s = spec.clone();
        s.n_subscribers = 0;
        let mut sim = deploy(n_nodes, delta, &s, ServeOptions::for_delta(delta));
        let updates = sim.schedule().updates.clone();
        let mut qid = 1u64 << 20;
        // Initial answers (the push run's snapshots).
        for s in &subs {
            let at = s.at.max(sim.sim().now());
            sim.inject_query(at, s.client, qid, s.template);
            qid += 1;
        }
        sim.quiesce();
        for u in updates {
            let at = u.at.max(sim.sim().now());
            sim.inject_update(at, u.node, u.feature);
            sim.quiesce();
            for s in &subs {
                let at = sim.sim().now();
                sim.inject_query(at, s.client, qid, s.template);
                qid += 1;
            }
            sim.quiesce();
        }
        sim.sim().costs().total_packets()
    };

    let (active_subs, pushes, lats, repairs, contribs) = report_core;
    let push_msgs = push_total.saturating_sub(control);
    let requery_msgs = requery_total.saturating_sub(control);
    let n_updates = spec.n_updates as u64;
    SubReport {
        n_nodes,
        n_clusters,
        n_subscribers: spec.n_subscribers,
        n_updates: spec.n_updates,
        active_subs,
        pushes,
        repairs,
        contribs,
        push_p50: percentile(&lats, 50),
        push_p90: percentile(&lats, 90),
        push_p99: percentile(&lats, 99),
        push_max: lats.last().copied().unwrap_or(0),
        push_msgs,
        requery_msgs,
        push_per_update_milli: push_msgs * 1000 / n_updates.max(1),
        requery_per_update_milli: requery_msgs * 1000 / n_updates.max(1),
        ratio_milli: requery_msgs * 1000 / push_msgs.max(1),
    }
}

/// The `BENCH_sub.json` document (schema `elink-sub/v2`).
pub fn json(r: &SubReport) -> Json {
    let push_latency = Object::new()
        .field("p50", r.push_p50)
        .field("p90", r.push_p90)
        .field("p99", r.push_p99)
        .field("max", r.push_max);
    let head = fields!(Object::new().field("schema", "elink-sub/v2"), r;
        n_nodes, n_clusters, n_subscribers, n_updates, active_subs, pushes, repairs, contribs);
    fields!(head.field("push_latency", push_latency), r;
        push_msgs, requery_msgs, push_per_update_milli, requery_per_update_milli, ratio_milli)
    .into()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mini_preset_is_deterministic_and_beats_requery() {
        let a = run_once(4);
        let b = run_once(4);
        assert_eq!(a, b);
        assert!(a.pushes > 0, "no pushes delivered");
        assert!(a.repairs > 0, "no incremental repairs ran");
        assert!(
            a.ratio_milli >= 2000,
            "push must beat re-query 2x even at mini scale: ratio_milli={}",
            a.ratio_milli
        );
    }

    #[test]
    fn report_is_schema_tagged_and_balanced() {
        let j = json(&run_once(4)).document();
        assert!(j.starts_with("{\"schema\":\"elink-sub/v2\""));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        assert!(j.ends_with('}'));
        assert!(!j.contains("wall_ms"));
    }
}
