//! The offered-load × capacity sweep behind `BENCH_contention.json`.
//!
//! Every per-message link model prices transfers independently, so serving
//! latency is flat in offered load — which hides exactly the regime a
//! shared radio medium cares about. This bench drives the 1k-node serving
//! benchmark (the `workload_report` deployment) over a
//! [`FairShareLink`](elink_netsim::FairShareLink) and sweeps the open-loop arrival gap across each link
//! capacity: as the offered rate approaches the bottleneck links'
//! capacity, transfers start queueing behind each other, and tail latency
//! leaves the flat region *superlinearly* — the queueing knee.
//!
//! Everything in the report is a function of (deployment seed, workload
//! seed, grid), with no wall-clock fields at all: the
//! `contention_report --check` CI gate reruns the whole sweep and
//! requires byte-identical documents.

use crate::fields;
use crate::json::{Json, Object};
use elink_datasets::TerrainDataset;
use elink_metric::{Absolute, Metric};
use elink_netsim::FairShareLink;
use elink_workload::{Arrival, ServeOptions, SloReport, Truth, WorkloadSim, WorkloadSpec};
use std::sync::Arc;

/// One (capacity, offered-load) cell of the sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContentionPoint {
    /// Per-directed-link capacity, scalars per tick.
    pub capacity: u64,
    /// Mean open-loop inter-arrival gap (ticks).
    pub mean_gap: u64,
    /// Offered load: queries per 1000 ticks (`1000 / mean_gap`).
    pub offered_milli: u64,
    /// Queries completed (must equal the submitted count — contention
    /// shifts time, never correctness).
    pub done: u64,
    /// Median query latency (ticks).
    pub p50: u64,
    /// 90th-percentile query latency (ticks).
    pub p90: u64,
    /// 99th-percentile query latency (ticks).
    pub p99: u64,
    /// Maximum query latency (ticks).
    pub max: u64,
    /// Achieved throughput, completions per 1000 ticks.
    pub throughput_milli: u64,
    /// Final simulated tick.
    pub sim_ticks: u64,
    /// Total excess queueing across all transfers (ticks spent waiting
    /// behind other flows) — the direct congestion integral.
    pub queued_ms: u64,
    /// Directed links that carried at least one flow.
    pub links_used: i64,
    /// Busy ticks on the busiest single link (the bottleneck residency).
    pub link_busy_peak: i64,
    /// Peak concurrent flows on any single link.
    pub link_peak_flows: i64,
    /// Answers breaking the answer contract ([`Truth::answer`]) over the
    /// initial anchors. Must be zero; gated by `contention_report`, not
    /// serialized.
    pub breaches: u64,
}

/// The sweep grid: each capacity is swept over every arrival gap, heaviest
/// load last. The two capacities play different roles: the *smaller* one
/// saturates the deployment's bottleneck links inside the sweep, so its
/// p99 curve bends upward (the knee); the *larger* one clears the heaviest
/// offered load with headroom, so its curve stays flat — the control that
/// shows the bend is contention, not protocol overhead.
pub const CAPACITIES: [u64; 2] = [64, 256];
/// Open-loop mean inter-arrival gaps (ticks), lightest load first.
pub const MEAN_GAPS: [u64; 4] = [48, 12, 3, 1];

/// The serving preset shared by every cell, and by the admission sweep so
/// the two reports describe the same system: the `workload_report` 1k-node
/// terrain deployment, 120 mixed queries, query-only (updates would blur
/// the latency attribution, and the ground truth stays the initial
/// anchors), recovery off so backlogged queries wait rather than give up.
pub(crate) fn preset(mean_gap: u64) -> (WorkloadSpec, f64) {
    let mut spec = WorkloadSpec::quick(42);
    spec.n_queries = 120;
    spec.n_updates = 0;
    spec.arrival = Arrival::Open { mean_gap };
    (spec, 300.0)
}

/// Runs one cell of this sweep or of `ext_contention`'s table: `spec`
/// served at δ = `delta` on `data`, every link of capacity `capacity`.
///
/// # Panics
/// Panics unless `spec` is query-only (the audit's truth is the initial
/// features) and open-loop.
pub fn run_point(
    data: &TerrainDataset,
    spec: &WorkloadSpec,
    delta: f64,
    capacity: u64,
) -> ContentionPoint {
    assert_eq!(
        spec.n_updates, 0,
        "contention cells serve query-only schedules"
    );
    let Arrival::Open { mean_gap } = spec.arrival else {
        panic!("contention cells run open-loop arrivals");
    };
    let metric: Arc<dyn Metric> = Arc::new(Absolute);
    let sim = WorkloadSim::build_with_link(
        data.topology().clone(),
        data.features(),
        Arc::clone(&metric),
        delta,
        spec,
        ServeOptions::for_delta(delta),
        FairShareLink::new(capacity),
        None,
    );
    let truth = Truth::new(&sim.schedule().templates, &data.features(), metric);
    let run = sim.run_concurrent();
    // Reuse the SLO folding for the percentile math.
    let slo = SloReport::from_run(&run);
    ContentionPoint {
        capacity,
        mean_gap,
        offered_milli: 1000 / mean_gap,
        done: slo.done,
        p50: slo.latency.p50,
        p90: slo.latency.p90,
        p99: slo.latency.p99,
        max: slo.latency.max,
        throughput_milli: slo.throughput_milli,
        sim_ticks: slo.sim_ticks,
        queued_ms: run.metrics.counter("net.queued_ms"),
        links_used: run.metrics.gauge("net.links.used").unwrap_or(0),
        link_busy_peak: run.metrics.gauge("net.link.busy_peak_ticks").unwrap_or(0),
        link_peak_flows: run.metrics.gauge("net.link.peak_flows").unwrap_or(0),
        breaches: run
            .completed
            .iter()
            .filter(|c| truth.answer(c).is_err())
            .count() as u64,
    }
}

/// Runs the full sweep (see [`CAPACITIES`] × [`MEAN_GAPS`]).
pub fn run_sweep() -> Vec<ContentionPoint> {
    let data = TerrainDataset::generate(1024, 6, 0.55, 7);
    let mut points = Vec::new();
    for &capacity in &CAPACITIES {
        for &mean_gap in &MEAN_GAPS {
            let (spec, delta) = preset(mean_gap);
            points.push(run_point(&data, &spec, delta, capacity));
        }
    }
    points
}

fn point_json(p: &ContentionPoint) -> Object {
    fields!(Object::new(), p;
        capacity, mean_gap, offered_milli, done, p50, p90, p99, max, throughput_milli,
        sim_ticks, queued_ms, links_used, link_busy_peak, link_peak_flows)
}

/// The full `BENCH_contention.json` payload. Every field is deterministic;
/// two runs of the same grid must produce byte-identical documents.
pub fn json(points: &[ContentionPoint]) -> Json {
    Object::new()
        .field("schema", "elink-contention/v1")
        .field("results", Json::rows(points.iter().map(point_json)))
        .into()
}

/// Audits the knee. Within each capacity's sweep (lightest → heaviest
/// load) p99 must be monotonically non-decreasing; on top of that the two
/// capacities must show their contrasting shapes:
///
/// * **smallest capacity** — *superlinear past saturation*: the p99-vs-
///   offered-load slope of the final segment must be at least twice the
///   slope of the first segment (the curve accelerates — a knee, not a
///   ramp), and the heaviest point must have recorded real queueing;
/// * **largest capacity** — *flat under headroom*: heaviest-load p99 stays
///   under 2× the lightest-load p99 across the whole sweep, pinning the
///   bend to contention rather than protocol overhead.
///
/// Returns a violation description, or `None` when the knee is present.
pub fn knee_violation(points: &[ContentionPoint]) -> Option<String> {
    for &capacity in &CAPACITIES {
        let sweep: Vec<&ContentionPoint> =
            points.iter().filter(|p| p.capacity == capacity).collect();
        if sweep.len() < 3 {
            return Some(format!("capacity {capacity}: fewer than 3 sweep points"));
        }
        for w in sweep.windows(2) {
            if w[1].p99 < w[0].p99 {
                return Some(format!(
                    "capacity {capacity}: p99 dropped from {} (gap {}) to {} (gap {})",
                    w[0].p99, w[0].mean_gap, w[1].p99, w[1].mean_gap
                ));
            }
        }
        let (light, heavy) = (sweep[0], sweep[sweep.len() - 1]);
        if capacity == CAPACITIES[0] {
            // Integer milli-slopes of the first and last sweep segments.
            let slope = |a: &ContentionPoint, b: &ContentionPoint| {
                (b.p99 - a.p99).saturating_mul(1000) / (b.offered_milli - a.offered_milli).max(1)
            };
            let first = slope(sweep[0], sweep[1]);
            let last = slope(sweep[sweep.len() - 2], heavy);
            if last < first.saturating_mul(2) {
                return Some(format!(
                    "capacity {capacity}: no knee — final p99 slope {last} \
                     not ≥ 2× the initial slope {first}"
                ));
            }
            if heavy.queued_ms == 0 {
                return Some(format!(
                    "capacity {capacity}: heaviest load recorded no queueing"
                ));
            }
        } else if heavy.p99 >= 2 * light.p99.max(1) {
            return Some(format!(
                "capacity {capacity}: headroom control not flat — p99 {} → {}",
                light.p99, heavy.p99
            ));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One cell of the report's preset at `mean_gap` on `data`.
    fn cell(data: &TerrainDataset, capacity: u64, mean_gap: u64) -> ContentionPoint {
        let (spec, delta) = preset(mean_gap);
        run_point(data, &spec, delta, capacity)
    }

    /// A miniature sweep (small fleet, one capacity) exercises the full
    /// point pipeline: deterministic reruns, queueing visible under load,
    /// every query completed.
    #[test]
    fn mini_sweep_is_deterministic_and_queues_under_load() {
        let data = TerrainDataset::generate(96, 6, 0.55, 7);
        let light = cell(&data, 2, 24);
        let heavy = cell(&data, 2, 1);
        let again = cell(&data, 2, 1);
        assert_eq!(heavy, again, "same-seed points must be byte-identical");
        assert_eq!(light.done, heavy.done, "load must never lose queries");
        assert_eq!(
            light.breaches + heavy.breaches,
            0,
            "an answer broke soundness"
        );
        assert!(heavy.queued_ms > light.queued_ms);
        assert!(heavy.p99 >= light.p99);
        assert!(heavy.links_used > 0 && heavy.link_peak_flows > 0);
    }

    #[test]
    fn report_is_schema_tagged_and_balanced() {
        let data = TerrainDataset::generate(96, 6, 0.55, 7);
        let doc = json(&[cell(&data, 4, 8)]).document();
        assert!(doc.contains("\"schema\":\"elink-contention/v1\""));
        assert_eq!(doc.matches('{').count(), doc.matches('}').count());
    }
}
