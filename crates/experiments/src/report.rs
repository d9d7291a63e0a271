//! Machine-readable benchmark reports: the data behind `BENCH_elink.json`.
//!
//! [`run_benches`](crate::report::run_benches) executes quick presets of the paper experiments
//! (fig08/fig09/fig11) plus a substrate microbench, each returning a
//! [`BenchResult`](crate::report::BenchResult) with simulated time, message totals and the
//! per-phase breakdown from the [`elink_netsim::metrics`] registry.
//!
//! [`json`](crate::report::json) renders them as the `BENCH_elink.json`
//! document (schema `elink-bench/v2`). Every field is simulated, so
//! same-seed runs must produce **byte-identical** documents
//! (`bench_report --check` and a unit test both enforce this). Host time
//! is measured by the benchmark package, with repeated trials.
//!
//! Byte accounting: the §8.2 cost model counts message *scalars*; the
//! `bytes` field prices each scalar at 8 bytes (one `f64`), so
//! `bytes = 8 × total_cost`.

use crate::common::{Scenario, ScenarioBuilder};
use crate::fields;
use crate::json::{Json, Object};
use crate::{fig08, fig11};
use elink_core::maintenance_protocol::{maintenance_nodes, MaintMsg};
use elink_core::ElinkOutcome;
use elink_datasets::{TaoDataset, TaoParams, TerrainDataset};
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

/// A drained simulation's measurements.
fn sim_result<P: Protocol>(bench: &'static str, mut sim: Simulator<P>) -> BenchResult {
    BenchResult {
        bench,
        n: sim.nodes().len(),
        sim_time: sim.now(),
        messages: sim.costs().total_packets(),
        bytes: 8 * sim.costs().total_cost(),
        metrics: sim.take_metrics(),
    }
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

/// A quick preset's Tao data and deployment, δ at quantile `q`.
fn tao_scenario(tao: TaoParams, seed: u64, q: f64) -> (TaoDataset, Scenario) {
    let data = TaoDataset::generate(tao, seed);
    let metric = Arc::new(data.metric().clone());
    let builder = ScenarioBuilder::new(data.topology().clone(), data.features(), metric);
    let scenario = builder.delta_quantile(q).build();
    (data, scenario)
}

/// The fig08 quick preset's deployment, δ at the 0.6 quantile.
fn fig08_scenario() -> Scenario {
    let params = fig08::Params::quick();
    tao_scenario(params.tao, params.seed, 0.6).1
}

/// fig08 quick preset, implicit mode.
fn bench_fig08_implicit() -> BenchResult {
    let scenario = fig08_scenario();
    let n = scenario.features.len();
    outcome_result("fig08_tao_implicit", n, scenario.run_implicit())
}

/// fig08 quick preset, explicit mode (synchronization messages included).
fn bench_fig08_explicit() -> BenchResult {
    let scenario = fig08_scenario();
    let n = scenario.features.len();
    outcome_result("fig08_tao_explicit", n, scenario.run_explicit())
}

/// fig09 quick preset: 150-sensor terrain, absolute δ = 500 m.
fn bench_fig09_implicit() -> BenchResult {
    let data = TerrainDataset::generate(150, 7, 0.55, 1);
    let metric = Arc::new(data.metric());
    let scenario = ScenarioBuilder::new(data.topology().clone(), data.features(), metric)
        .delta(500.0)
        .build();
    let n = scenario.features.len();
    outcome_result("fig09_terrain_implicit", n, scenario.run_implicit())
}

/// fig11 quick preset: cluster the Tao network, then stream the evaluation
/// month through the §6 maintenance *protocol* (real messages on the
/// simulator, so the `maint.*` phases are recorded).
fn bench_fig11_maintenance() -> BenchResult {
    let params = fig11::Params::quick();
    let (data, scenario) = tao_scenario(params.tao, params.seed, params.delta_quantile);
    let outcome = scenario.run_implicit();
    let nodes = maintenance_nodes(
        &outcome.clustering,
        Arc::clone(&scenario.metric),
        &scenario.features,
        scenario.delta,
        0.1 * scenario.delta,
    );
    let mut sim = Simulator::new(scenario.network, SyncLink, 0, nodes);
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
    sim_result("fig11_tao_maintenance", sim)
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
    sim.run_to_completion();
    sim_result("substrate_unicast_storm", sim)
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

fn result_json(r: &BenchResult) -> Object {
    let phases = r.metrics.phases().fold(Object::new(), |phases, (name, p)| {
        let phase = fields!(Object::new(), p; entries, first_enter, last_exit);
        phases.field(name, phase.field("span", p.span()))
    });
    fields!(Object::new(), r; bench, n, sim_time, messages, bytes).field("phases", phases)
}

/// The `BENCH_elink.json` document. Two same-seed runs must agree
/// byte-for-byte.
pub fn json(results: &[BenchResult]) -> Json {
    Object::new()
        .field("schema", "elink-bench/v2")
        .field("results", Json::rows(results.iter().map(result_json)))
        .into()
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
        assert_eq!(json(&a), json(&b));
    }
}
