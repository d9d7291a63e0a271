//! Fig 13 — total message cost (clustering + a model-update stream) vs
//! network size on the uncorrelated synthetic data.
//!
//! §8.5: "all the distributed techniques confine the updates locally,
//! whereas the centralized scheme incurs a huge overhead of transmitting
//! the model coefficients to the base station. Furthermore, Hierarchical
//! clustering also incurs a huge cost since every merger decision has to be
//! propagated to the cluster leader." Expected shape: ELink (both
//! variants) and the spanning forest grow roughly linearly in N;
//! hierarchical and the centralized scheme grow super-linearly (the latter
//! like `N^{1.5}` on a 2-D field, multiplied by the update rate).

use crate::common::{fmt, ScenarioBuilder, Table};
use elink_armodel::RlsState;
use elink_baselines::{hierarchical_clustering, spanning_forest_clustering, CentralizedUpdateSim};
use elink_core::{Clustering, ElinkConfig, MaintenanceSim};
use elink_datasets::SyntheticDataset;
use elink_metric::{Euclidean, Feature};
use std::sync::Arc;

/// Parameters for the Fig 13 reproduction.
#[derive(Debug, Clone)]
pub struct Params {
    /// Network sizes (the paper sweeps 100–800).
    pub sizes: Vec<usize>,
    /// Measurements per node used to fit the initial features.
    pub steps: usize,
    /// Additional measurements per node streamed through the update
    /// protocols after clustering ("this model is updated for every
    /// measurement", §8.1).
    pub update_steps: usize,
    /// Seeds averaged per size.
    pub seeds: u64,
    /// δ in feature (AR-coefficient) units. The α_i are uniform in
    /// (0.4, 0.8); δ = 0.05 yields a non-trivial clustering.
    pub delta: f64,
    /// Update slack Δ as a fraction of δ.
    pub slack_fraction: f64,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            sizes: vec![100, 200, 400, 800],
            steps: 2000,
            update_steps: 500,
            seeds: 3,
            delta: 0.05,
            slack_fraction: 0.05,
        }
    }
}

impl Params {
    /// Seconds-scale preset.
    pub fn quick() -> Params {
        Params {
            sizes: vec![100, 200],
            steps: 400,
            update_steps: 100,
            seeds: 1,
            delta: 0.05,
            slack_fraction: 0.05,
        }
    }
}

/// Regenerates Fig 13.
pub fn run(params: Params) -> Table {
    let mut rows = Vec::new();
    for &n in &params.sizes {
        let mut sums = [0.0f64; 5];
        for seed in 0..params.seeds {
            let data = SyntheticDataset::generate(n, params.steps, seed);
            let scenario = ScenarioBuilder::new(
                data.topology().clone(),
                data.features(),
                Arc::new(Euclidean),
            )
            .delta(params.delta)
            .build();
            let features = scenario.features.clone();
            let config = ElinkConfig::for_delta(params.delta);
            let imp = scenario.run_implicit_with(config);
            let exp = scenario.run_explicit_with(config);
            let sf =
                spanning_forest_clustering(data.topology(), &features, &Euclidean, params.delta);
            let hier =
                hierarchical_clustering(data.topology(), &features, &Euclidean, params.delta);
            // Update stream: fresh measurements extend each node's series;
            // features evolve through RLS and feed every update protocol.
            let topology = Arc::clone(&scenario.topology);
            let metric = Arc::clone(&scenario.metric);
            let slack = params.slack_fraction * params.delta;
            let make_maint = |c: &Clustering| {
                MaintenanceSim::new(
                    c,
                    Arc::clone(&topology),
                    Arc::clone(&metric),
                    features.clone(),
                    params.delta,
                    slack,
                )
            };
            let mut maints = [
                make_maint(&imp.clustering),
                make_maint(&exp.clustering),
                make_maint(&sf.clustering),
                make_maint(&hier.clustering),
            ];
            let mut central_sim =
                CentralizedUpdateSim::new(data.topology(), features.clone(), slack);
            // Continue each node's AR(1) process and RLS state.
            let mut rls: Vec<RlsState> = data
                .series()
                .iter()
                .map(|xs| {
                    let mut r = RlsState::new(2, 1e6);
                    r.update(&[1.0, 0.0], 1.0);
                    for w in xs.windows(2) {
                        r.update(&[w[0], 1.0], w[1]);
                    }
                    r
                })
                .collect();
            let mut last: Vec<f64> = data.series().iter().map(|xs| *xs.last().unwrap()).collect();
            let mut noise_state = seed ^ 0xABCD_EF01;
            for _ in 0..params.update_steps {
                for node in 0..n {
                    noise_state = noise_state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let e = (noise_state >> 33) as f64 / (1u64 << 31) as f64;
                    let x = data.true_alphas()[node] * last[node] + e;
                    rls[node].update(&[last[node], 1.0], x);
                    last[node] = x;
                    let f = Feature::scalar(rls[node].coefficients()[0]);
                    for m in maints.iter_mut() {
                        m.update(node, f.clone());
                    }
                    central_sim.model_update(node, f, metric.as_ref());
                }
            }
            let central_total = central_sim.costs().kind("central_init").cost
                + central_sim.costs().kind("central_model").cost;
            for (i, v) in [
                imp.costs.total_cost() + maints[0].costs().total_cost(),
                exp.costs.total_cost() + maints[1].costs().total_cost(),
                central_total,
                hier.costs.total_cost() + maints[3].costs().total_cost(),
                sf.costs.total_cost() + maints[2].costs().total_cost(),
            ]
            .iter()
            .enumerate()
            {
                sums[i] += *v as f64;
            }
        }
        let mean = |i: usize| sums[i] / params.seeds as f64;
        rows.push(vec![
            n.to_string(),
            fmt(mean(0)),
            fmt(mean(1)),
            fmt(mean(2)),
            fmt(mean(3)),
            fmt(mean(4)),
        ]);
    }
    Table {
        id: "fig13",
        title: format!(
            "Clustering + update-stream message cost vs network size, synthetic data (delta = {}, {} update steps, mean over {} seeds)",
            params.delta, params.update_steps, params.seeds
        ),
        headers: vec![
            "n".into(),
            "elink_implicit".into(),
            "elink_explicit".into(),
            "centralized".into(),
            "hierarchical".into(),
            "spanning_forest".into(),
        ],
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elink_scales_better_than_centralized() {
        let t = run(Params::quick());
        assert_eq!(t.rows.len(), 2);
        // Growth factor of each scheme as n doubles.
        let g = |col: usize| {
            let a: f64 = t.rows[0][col].parse().unwrap();
            let b: f64 = t.rows[1][col].parse().unwrap();
            b / a
        };
        // ELink grows roughly linearly (factor ≈ 2); centralized grows
        // around 2^1.5 ≈ 2.8.
        assert!(
            g(1) < g(3) * 1.2,
            "implicit ELink should scale no worse than centralized"
        );
        // Costs are positive everywhere.
        for row in &t.rows {
            for cell in &row[1..6] {
                let v: f64 = cell.parse().unwrap();
                assert!(v > 0.0);
            }
        }
    }
}
