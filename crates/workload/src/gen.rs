//! Deterministic workload generation: query templates, zipf-skewed template
//! choice, open/closed-loop arrival processes, and a background
//! feature-update stream.
//!
//! Everything is driven by a caller-supplied seed through the workspace's
//! deterministic `StdRng` — no ambient RNG, no wall clock — so the same
//! spec always produces byte-identical schedules (the same-seed determinism
//! tests rely on this).

use elink_metric::Feature;
use elink_netsim::{QueryId, SimTime};
use elink_topology::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// One reusable query template. Queries reference templates by index; the
/// skewed template distribution is what makes result caching pay off.
#[derive(Debug, Clone, PartialEq)]
pub enum Template {
    /// Range retrieval: every node whose (anchor) feature is within `r` of
    /// `center` (§7.2).
    Range {
        /// Query center feature.
        center: Feature,
        /// Query radius.
        r: f64,
    },
    /// Safe-path query around a danger feature (§7.3): retrieve the unsafe
    /// set (nodes strictly within `gamma` of `danger`), then path-find from
    /// `source` to `dest` over the safe remainder.
    Path {
        /// The danger feature.
        danger: Feature,
        /// Safety threshold γ: a node is safe iff `d ≥ gamma`.
        gamma: f64,
        /// Path start node.
        source: NodeId,
        /// Path destination node.
        dest: NodeId,
    },
}

impl Template {
    /// Payload scalars of the template's feature (for plan-distribution
    /// accounting).
    pub fn scalar_cost(&self) -> u64 {
        match self {
            Template::Range { center, .. } => center.scalar_cost() + 1,
            Template::Path { danger, .. } => danger.scalar_cost() + 3,
        }
    }
}

/// Arrival process for the query stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrival {
    /// Open loop: queries arrive on a seeded schedule regardless of
    /// completions, with the given mean inter-arrival gap in ticks.
    Open {
        /// Mean gap between consecutive submissions (ticks, ≥ 1).
        mean_gap: u64,
    },
    /// Closed loop: `clients` scripted initiators each submit their next
    /// query `think` ticks after the previous one completes.
    Closed {
        /// Number of concurrent clients, each on a node of its own, so at
        /// most the node count.
        clients: usize,
        /// Think time between a completion and the next submission.
        think: u64,
    },
}

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Master seed; every derived stream re-seeds from this.
    pub seed: u64,
    /// Number of query templates (K).
    pub n_templates: usize,
    /// Zipf skew exponent over template ranks (0 = uniform; ~1 = heavy
    /// head — the caching sweet spot).
    pub zipf_s: f64,
    /// Fraction of path-query templates in the template table (the rest are
    /// range templates).
    pub path_fraction: f64,
    /// Total queries to submit.
    pub n_queries: usize,
    /// Arrival process.
    pub arrival: Arrival,
    /// Range-template radius as a fraction of δ.
    pub radius_frac: f64,
    /// Background feature updates to interleave (0 for a static run).
    pub n_updates: usize,
    /// Mean gap between updates (ticks, open-loop style).
    pub update_gap: u64,
    /// Drift magnitude of each update relative to δ.
    pub drift_frac: f64,
    /// Standing subscriptions to register early in the run (0 disables the
    /// subscription engine for this schedule).
    pub n_subscribers: usize,
}

impl WorkloadSpec {
    /// A small default spec: open loop, mildly skewed, some updates.
    pub fn quick(seed: u64) -> Self {
        WorkloadSpec {
            seed,
            n_templates: 16,
            zipf_s: 1.0,
            path_fraction: 0.25,
            n_queries: 60,
            arrival: Arrival::Open { mean_gap: 8 },
            radius_frac: 0.8,
            n_updates: 20,
            update_gap: 24,
            drift_frac: 0.6,
            n_subscribers: 0,
        }
    }
}

/// One scheduled open-loop submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Submission {
    /// Query id (unique across the run).
    pub qid: QueryId,
    /// Submission tick.
    pub at: SimTime,
    /// Initiating node.
    pub initiator: NodeId,
    /// Template index.
    pub template: u16,
}

/// One entry of a closed-loop client script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptEntry {
    /// Query id (unique across the run).
    pub qid: QueryId,
    /// Template index.
    pub template: u16,
    /// Think time before this entry is submitted (after the previous
    /// completion; the first entry waits `think` from time 0).
    pub think: u64,
}

/// A closed-loop client: a node with a preloaded script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientScript {
    /// The initiating node.
    pub node: NodeId,
    /// Queries to run, in order.
    pub entries: Vec<ScriptEntry>,
}

/// One scheduled standing-subscription registration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscriptionStart {
    /// Subscription id (unique across the run, disjoint from query ids by
    /// namespace — sids live in their own messages/timers).
    pub sid: u64,
    /// Registration tick.
    pub at: SimTime,
    /// Subscribing client node.
    pub client: NodeId,
    /// Watched template index.
    pub template: u16,
}

/// One scheduled background feature update.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateEvent {
    /// Injection tick.
    pub at: SimTime,
    /// Updated node.
    pub node: NodeId,
    /// Its new feature.
    pub feature: Feature,
}

/// A fully materialized, deterministic run schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    /// The template table (shared network-wide in the serving plan).
    pub templates: Vec<Template>,
    /// Open-loop submissions, ascending by time (empty in closed loop).
    pub submissions: Vec<Submission>,
    /// Closed-loop client scripts (empty in open loop).
    pub scripts: Vec<ClientScript>,
    /// Background updates, ascending by time.
    pub updates: Vec<UpdateEvent>,
    /// Standing-subscription registrations, ascending by time (empty unless
    /// [`WorkloadSpec::n_subscribers`] > 0).
    pub subscriptions: Vec<SubscriptionStart>,
}

/// Draws a zipf-distributed rank in `0..n` with exponent `s` (rank 0 most
/// likely). Linear scan over the precomputed weight prefix — `n` is the
/// template count, which is small.
fn zipf_rank(weights: &[f64], total: f64, rng: &mut StdRng) -> usize {
    let u = rng.next_f64() * total;
    let mut acc = 0.0;
    for (k, w) in weights.iter().enumerate() {
        acc += w;
        if u < acc {
            return k;
        }
    }
    weights.len() - 1
}

/// Precomputes zipf weights `1/(k+1)^s` for ranks `0..n`.
fn zipf_weights(n: usize, s: f64) -> (Vec<f64>, f64) {
    let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
    let total = weights.iter().sum();
    (weights, total)
}

/// Exponential-ish inter-arrival gap with the given mean, quantized to at
/// least one tick.
fn gap(mean: u64, rng: &mut StdRng) -> u64 {
    let u = rng.next_f64().max(1e-12);
    ((-u.ln() * mean as f64).round() as u64).max(1)
}

/// Builds the full deterministic schedule for a run.
///
/// `features` are the deployed node features (template centers are drawn
/// from them and jittered), `delta` the clustering bound (scales radii and
/// drift magnitudes), `n` the node count.
pub fn build_schedule(spec: &WorkloadSpec, features: &[Feature], delta: f64) -> Schedule {
    assert!(spec.n_templates > 0, "need at least one template");
    assert!(!features.is_empty(), "need at least one node");
    let n = features.len();

    // Independent sub-streams so adding queries does not perturb updates.
    let mut rng_t = StdRng::seed_from_u64(spec.seed ^ 0x7431_0001);
    let mut rng_q = StdRng::seed_from_u64(spec.seed ^ 0x7431_0002);
    let mut rng_u = StdRng::seed_from_u64(spec.seed ^ 0x7431_0003);
    let mut rng_s = StdRng::seed_from_u64(spec.seed ^ 0x7431_0004);

    // Template table: centers are jittered node features; every template is
    // usable as both a popular and an unpopular rank.
    let mut templates = Vec::with_capacity(spec.n_templates);
    for k in 0..spec.n_templates {
        let v = rng_t.gen_range(0..n);
        let jitter = (rng_t.next_f64() - 0.5) * delta * 0.5;
        let center = offset_feature(&features[v], jitter);
        let is_path = (k as f64 + 0.5) / spec.n_templates as f64 > 1.0 - spec.path_fraction;
        if is_path {
            let source = rng_t.gen_range(0..n);
            let dest = rng_t.gen_range(0..n);
            templates.push(Template::Path {
                danger: center,
                gamma: delta * spec.radius_frac * (0.5 + rng_t.next_f64()),
                source,
                dest,
            });
        } else {
            templates.push(Template::Range {
                center,
                r: delta * spec.radius_frac * (0.5 + rng_t.next_f64()),
            });
        }
    }

    let (weights, total) = zipf_weights(spec.n_templates, spec.zipf_s);
    let mut submissions = Vec::new();
    let mut scripts = Vec::new();
    match spec.arrival {
        Arrival::Open { mean_gap } => {
            let mut t: SimTime = 1;
            for qid in 0..spec.n_queries as u64 {
                let template = zipf_rank(&weights, total, &mut rng_q) as u16;
                let initiator = rng_q.gen_range(0..n);
                submissions.push(Submission {
                    qid,
                    at: t,
                    initiator,
                    template,
                });
                t += gap(mean_gap, &mut rng_q);
            }
        }
        Arrival::Closed { clients, think } => {
            let clients = clients.max(1);
            let mut entries_per: Vec<Vec<ScriptEntry>> = vec![Vec::new(); clients];
            for i in 0..spec.n_queries {
                let template = zipf_rank(&weights, total, &mut rng_q) as u16;
                entries_per[i % clients].push(ScriptEntry {
                    qid: i as QueryId,
                    template,
                    think,
                });
            }
            // A node runs one script, so clients draw their nodes without
            // replacement (a partial Fisher–Yates shuffle of the ids).
            assert!(
                clients <= n,
                "{clients} closed-loop clients need a node each, but there are {n} nodes"
            );
            let mut ids: Vec<NodeId> = (0..n).collect();
            for (j, entries) in entries_per.into_iter().enumerate() {
                if entries.is_empty() {
                    continue;
                }
                ids.swap(j, rng_q.gen_range(j..n));
                scripts.push(ClientScript {
                    node: ids[j],
                    entries,
                });
            }
        }
    }

    let mut updates = Vec::with_capacity(spec.n_updates);
    let mut t: SimTime = 1;
    for _ in 0..spec.n_updates {
        t += gap(spec.update_gap, &mut rng_u);
        let node = rng_u.gen_range(0..n);
        let drift = (rng_u.next_f64() - 0.5) * 2.0 * delta * spec.drift_frac;
        updates.push(UpdateEvent {
            at: t,
            node,
            feature: offset_feature(&features[node], drift),
        });
    }

    // Subscriptions register early (spread over the first few ticks, zipf
    // templates like queries) so the run exercises both the initial snapshot
    // and the incremental repairs the updates trigger afterwards.
    let mut subscriptions = Vec::with_capacity(spec.n_subscribers);
    let mut t: SimTime = 1;
    for sid in 0..spec.n_subscribers as u64 {
        let template = zipf_rank(&weights, total, &mut rng_s) as u16;
        let client = rng_s.gen_range(0..n);
        subscriptions.push(SubscriptionStart {
            sid,
            at: t,
            client,
            template,
        });
        t += gap(2, &mut rng_s);
    }

    Schedule {
        templates,
        submissions,
        scripts,
        updates,
        subscriptions,
    }
}

/// Shifts every component of a feature by `off` (scalar features shift
/// their single value).
fn offset_feature(f: &Feature, off: f64) -> Feature {
    Feature::new(f.components().iter().map(|c| c + off).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(n: usize) -> Vec<Feature> {
        (0..n).map(|v| Feature::scalar(10.0 * v as f64)).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let spec = WorkloadSpec::quick(7);
        let f = features(40);
        assert_eq!(
            build_schedule(&spec, &f, 300.0),
            build_schedule(&spec, &f, 300.0)
        );
    }

    #[test]
    fn different_seeds_differ() {
        let f = features(40);
        let a = build_schedule(&WorkloadSpec::quick(1), &f, 300.0);
        let b = build_schedule(&WorkloadSpec::quick(2), &f, 300.0);
        assert_ne!(a, b);
    }

    #[test]
    fn zipf_skews_towards_low_ranks() {
        let spec = WorkloadSpec {
            n_queries: 400,
            zipf_s: 1.2,
            ..WorkloadSpec::quick(3)
        };
        let f = features(60);
        let s = build_schedule(&spec, &f, 300.0);
        let mut counts = vec![0usize; spec.n_templates];
        for sub in &s.submissions {
            counts[sub.template as usize] += 1;
        }
        let head: usize = counts[..4].iter().sum();
        assert!(
            head * 2 > spec.n_queries,
            "zipf head too light: {head}/{}",
            spec.n_queries
        );
        assert!(counts[0] >= counts[spec.n_templates - 1]);
    }

    #[test]
    fn open_loop_times_ascend_and_ids_are_unique() {
        let spec = WorkloadSpec::quick(5);
        let s = build_schedule(&spec, &features(30), 300.0);
        assert_eq!(s.submissions.len(), spec.n_queries);
        for w in s.submissions.windows(2) {
            assert!(w[0].at <= w[1].at);
            assert!(w[0].qid < w[1].qid);
        }
        assert!(s.scripts.is_empty());
    }

    #[test]
    fn closed_loop_partitions_queries_across_clients() {
        // 30 clients on 30 nodes take every node once; 8 of them get no
        // query and run no script.
        for clients in [4, 30] {
            let spec = WorkloadSpec {
                arrival: Arrival::Closed { clients, think: 5 },
                n_queries: 22,
                ..WorkloadSpec::quick(9)
            };
            let s = build_schedule(&spec, &features(30), 300.0);
            assert!(s.submissions.is_empty());
            let total: usize = s.scripts.iter().map(|c| c.entries.len()).sum();
            assert_eq!(total, 22);
            let mut qids: Vec<QueryId> = s
                .scripts
                .iter()
                .flat_map(|c| c.entries.iter().map(|e| e.qid))
                .collect();
            qids.sort_unstable();
            qids.dedup();
            assert_eq!(qids.len(), 22, "qids must be unique");
            let mut nodes: Vec<NodeId> = s.scripts.iter().map(|c| c.node).collect();
            nodes.sort_unstable();
            nodes.dedup();
            assert_eq!(nodes.len(), clients.min(22), "one client per node");
        }
    }

    #[test]
    #[should_panic(expected = "31 closed-loop clients need a node each, but there are 30 nodes")]
    fn closed_loop_refuses_more_clients_than_nodes() {
        let spec = WorkloadSpec {
            arrival: Arrival::Closed {
                clients: 31,
                think: 5,
            },
            ..WorkloadSpec::quick(42)
        };
        build_schedule(&spec, &features(30), 300.0);
    }

    #[test]
    fn template_table_mixes_range_and_path() {
        let spec = WorkloadSpec::quick(11);
        let s = build_schedule(&spec, &features(30), 300.0);
        let paths = s
            .templates
            .iter()
            .filter(|t| matches!(t, Template::Path { .. }))
            .count();
        assert!(paths > 0, "no path templates generated");
        assert!(paths < spec.n_templates, "no range templates generated");
    }
}
