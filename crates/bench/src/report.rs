//! Machine-readable benchmark reports: the data behind `BENCH_elink.json`.
//!
//! [`run_benches`](crate::report::run_benches) executes quick presets of the paper experiments
//! (fig08/fig09/fig11) plus a substrate microbench, each returning a
//! [`BenchResult`](crate::report::BenchResult) with simulated time, message totals and the
//! per-phase breakdown from the [`elink_netsim::metrics`] registry.
//!
//! [`report_json`](crate::report::report_json) renders them as the
//! `BENCH_elink.json` document (schema `elink-bench/v2`). Every field is
//! simulated, so same-seed runs must produce **byte-identical** documents
//! (`bench_report --check` and a unit test both enforce this). Host time
//! is measured by the benchmark package, with repeated trials.
//!
//! Byte accounting: the §8.2 cost model counts message *scalars*; the
//! `bytes` field prices each scalar at 8 bytes (one `f64`), so
//! `bytes = 8 × total_cost`.

use elink_core::maintenance_protocol::{maintenance_nodes, MaintMsg};
use elink_core::{run_explicit, run_implicit, ElinkConfig, ElinkOutcome};
use elink_datasets::{TaoDataset, TaoParams, TerrainDataset};
use elink_metric::{DistanceMatrix, Feature, Metric};
use elink_netsim::{Ctx, Metrics, Protocol, SimNetwork, Simulator, SyncLink};
use std::sync::Arc;

/// One benchmark's measurements.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Stable benchmark name.
    pub bench: &'static str,
    /// Network size (nodes).
    pub n: usize,
    /// Simulated time at quiescence (ticks).
    pub sim_time: u64,
    /// Total link-level transmissions (§8.2 packets).
    pub messages: u64,
    /// Total payload bytes: 8 bytes per §8.2 message scalar.
    pub bytes: u64,
    /// The run's observability registry (phases, counters, histograms).
    pub metrics: Metrics,
}

/// The fig08/fig11 quick-preset Tao grid (6×9 sensors, hourly days).
fn quick_tao(days: usize) -> TaoParams {
    TaoParams {
        rows: 6,
        cols: 9,
        day_len: 24,
        days,
    }
}

/// δ at quantile `q` of the pairwise feature-distance distribution
/// (the same resolution rule the experiment harness uses).
fn delta_quantile(features: &[Feature], metric: &dyn Metric, q: f64) -> f64 {
    let dm = DistanceMatrix::from_features(features, metric);
    let n = features.len();
    let mut ds = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            ds.push(dm.get(i, j));
        }
    }
    ds.sort_by(|a, b| a.total_cmp(b));
    ds[((ds.len() - 1) as f64 * q.clamp(0.0, 1.0)) as usize].max(1e-12)
}

fn outcome_result(bench: &'static str, n: usize, outcome: ElinkOutcome) -> BenchResult {
    BenchResult {
        bench,
        n,
        sim_time: outcome.elapsed,
        messages: outcome.costs.total_packets(),
        bytes: 8 * outcome.costs.total_cost(),
        metrics: outcome.metrics,
    }
}

/// fig08 quick preset, implicit mode: Tao data, δ at the 0.6 quantile.
fn bench_fig08_implicit() -> BenchResult {
    let data = TaoDataset::generate(quick_tao(10), 7);
    let features = data.features();
    let metric: Arc<dyn Metric> = Arc::new(data.metric().clone());
    let delta = delta_quantile(&features, metric.as_ref(), 0.6);
    let network = SimNetwork::new(data.topology().clone());
    let outcome = run_implicit(&network, &features, metric, ElinkConfig::for_delta(delta));
    outcome_result("fig08_tao_implicit", features.len(), outcome)
}

/// fig08 quick preset, explicit mode (synchronization messages included).
fn bench_fig08_explicit() -> BenchResult {
    let data = TaoDataset::generate(quick_tao(10), 7);
    let features = data.features();
    let metric: Arc<dyn Metric> = Arc::new(data.metric().clone());
    let delta = delta_quantile(&features, metric.as_ref(), 0.6);
    let network = SimNetwork::new(data.topology().clone());
    let outcome = run_explicit(
        &network,
        &features,
        metric,
        ElinkConfig::for_delta(delta),
        SyncLink,
        0,
    );
    outcome_result("fig08_tao_explicit", features.len(), outcome)
}

/// fig09 quick preset: 150-sensor terrain, absolute δ = 500 m.
fn bench_fig09_implicit() -> BenchResult {
    let data = TerrainDataset::generate(150, 7, 0.55, 1);
    let features = data.features();
    let metric: Arc<dyn Metric> = Arc::new(data.metric());
    let network = SimNetwork::new(data.topology().clone());
    let outcome = run_implicit(&network, &features, metric, ElinkConfig::for_delta(500.0));
    outcome_result("fig09_terrain_implicit", features.len(), outcome)
}

/// fig11 quick preset: cluster the Tao network, then stream the evaluation
/// month through the §6 maintenance *protocol* (real messages on the
/// simulator, so the `maint.*` phases are recorded).
fn bench_fig11_maintenance() -> BenchResult {
    let data = TaoDataset::generate(quick_tao(8), 7);
    let features = data.features();
    let metric: Arc<dyn Metric> = Arc::new(data.metric().clone());
    let delta = delta_quantile(&features, metric.as_ref(), 0.6);
    let slack = 0.1 * delta;
    let network = SimNetwork::new(data.topology().clone());
    let outcome = run_implicit(
        &network,
        &features,
        Arc::clone(&metric),
        ElinkConfig::for_delta(delta),
    );
    let nodes = maintenance_nodes(
        &outcome.clustering,
        Arc::clone(&metric),
        &features,
        delta,
        slack,
    );
    let mut sim = Simulator::new(network, SyncLink, 0, nodes);
    sim.run_to_completion(); // drain (empty) start events
    let mut models = data.train_models();
    let steps = data.evaluation()[0].len();
    for t in 0..steps {
        for (node, model) in models.iter_mut().enumerate() {
            model.observe(data.evaluation()[node][t]);
            let now = sim.now();
            sim.inject(now, node, MaintMsg::FeatureUpdate(model.feature()));
            sim.run_to_completion();
        }
    }
    let n = sim.nodes().len();
    BenchResult {
        bench: "fig11_tao_maintenance",
        n,
        sim_time: sim.now(),
        messages: sim.costs().total_packets(),
        bytes: 8 * sim.costs().total_cost(),
        metrics: sim.take_metrics(),
    }
}

/// Substrate microbench: every node unicasts to its antipode on an 8×8
/// grid, exercising multi-hop routing and the engine's hop histogram.
fn bench_substrate_unicast() -> BenchResult {
    struct Storm {
        n: usize,
    }
    impl Protocol for Storm {
        type Msg = u8;
        fn on_start(&mut self, ctx: &mut Ctx<'_, u8>) {
            let dst = (ctx.id() + self.n / 2) % self.n;
            ctx.unicast(dst, 0u8, "storm", 1);
        }
        fn on_message(&mut self, _from: usize, _msg: u8, _ctx: &mut Ctx<'_, u8>) {}
    }
    let topo = elink_topology::Topology::grid(8, 8);
    let n = topo.n();
    let network = SimNetwork::new(topo);
    let nodes: Vec<Storm> = (0..n).map(|_| Storm { n }).collect();
    let mut sim = Simulator::new(network, SyncLink, 0, nodes);
    let elapsed = sim.run_to_completion();
    BenchResult {
        bench: "substrate_unicast_storm",
        n,
        sim_time: elapsed,
        messages: sim.costs().total_packets(),
        bytes: 8 * sim.costs().total_cost(),
        metrics: sim.take_metrics(),
    }
}

/// Runs every benchmark in a fixed order.
pub fn run_benches() -> Vec<BenchResult> {
    vec![
        bench_fig08_implicit(),
        bench_fig08_explicit(),
        bench_fig09_implicit(),
        bench_fig11_maintenance(),
        bench_substrate_unicast(),
    ]
}

/// JSON-escapes nothing: every key/value we emit is a known identifier or a
/// number, so plain formatting is safe. Phases render as
/// `{"entries":..,"first_enter":..,"last_exit":..,"span":..}`.
fn result_json(r: &BenchResult) -> String {
    let mut out = format!(
        "{{\"bench\":\"{}\",\"n\":{},\"sim_time\":{},\"messages\":{},\"bytes\":{}",
        r.bench, r.n, r.sim_time, r.messages, r.bytes
    );
    out.push_str(",\"phases\":{");
    let mut first = true;
    for (name, p) in r.metrics.phases() {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\"{}\":{{\"entries\":{},\"first_enter\":{},\"last_exit\":{},\"span\":{}}}",
            name,
            p.entries,
            p.first_enter,
            p.last_exit,
            p.span()
        ));
    }
    out.push_str("}}");
    out
}

/// The `BENCH_elink.json` document. Two same-seed runs must agree
/// byte-for-byte.
pub fn report_json(results: &[BenchResult]) -> String {
    let rows: Vec<String> = results.iter().map(result_json).collect();
    format!(
        "{{\"schema\":\"elink-bench/v2\",\"results\":[\n{}\n]}}\n",
        rows.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn substrate_storm_records_hop_histogram() {
        let r = bench_substrate_unicast();
        assert_eq!(r.n, 64);
        let hist = r.metrics.histogram("net.unicast_hops").unwrap();
        assert_eq!(hist.count(), 64);
        assert!(r.messages >= hist.sum());
    }

    #[test]
    fn fig08_implicit_phases_cover_growth() {
        let r = bench_fig08_implicit();
        assert!(r.metrics.phase("run").is_some());
        assert!(r
            .metrics
            .phases()
            .any(|(name, _)| name.starts_with("growth.")));
        assert!(r.sim_time > 0 && r.messages > 0 && r.bytes >= r.messages);
    }

    #[test]
    fn deterministic_view_is_byte_identical_across_same_seed_runs() {
        // Every field of the report must be reproducible bit-for-bit.
        let a = vec![bench_fig08_implicit(), bench_substrate_unicast()];
        let b = vec![bench_fig08_implicit(), bench_substrate_unicast()];
        assert_eq!(report_json(&a), report_json(&b));
    }

    #[test]
    fn json_shape_has_required_keys() {
        let r = bench_substrate_unicast();
        let json = report_json(std::slice::from_ref(&r));
        for key in [
            "\"schema\":\"elink-bench/v2\"",
            "\"bench\":\"substrate_unicast_storm\"",
            "\"n\":64",
            "\"sim_time\":",
            "\"messages\":",
            "\"bytes\":",
            "\"phases\":{",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains("wall_ms"), "host time in {json}");
    }
}
