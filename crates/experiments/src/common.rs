//! Shared experiment infrastructure: result tables, δ grids, and the
//! clustering-algorithm suite.

use elink_baselines::{
    hierarchical_clustering_with_routing, spanning_forest_clustering, CentralizedClustering,
};
use elink_core::{run_explicit, run_implicit, run_unordered, ElinkConfig, ElinkOutcome};
use elink_metric::{DistanceMatrix, Feature, Metric};
use elink_netsim::{SimNetwork, SyncLink};
use elink_spectral::SpectralConfig;
use elink_topology::Topology;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A tabular experiment result (one per figure).
#[derive(Debug, Clone)]
pub struct Table {
    /// Stable identifier, e.g. `"fig08"` — also the CSV file stem.
    pub id: &'static str,
    /// Human-readable description of what the table reproduces.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Renders a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## {} — {}\n\n", self.id, self.title);
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }

    /// Renders CSV (headers + rows).
    pub fn to_csv(&self) -> String {
        let mut out = self.headers.join(",");
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// Writes `<dir>/<id>.csv`, creating the directory if needed.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        let mut f = std::fs::File::create(&path)?;
        f.write_all(self.to_csv().as_bytes())?;
        Ok(path)
    }
}

/// Prints a table and writes its CSV to `results/` (the binary entrypoint
/// shared by all `figNN` binaries).
pub fn emit(table: &Table) {
    println!("{}", table.to_markdown());
    match table.write_csv(Path::new("results")) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write CSV: {e}"),
    }
}

/// δ values at the given quantiles of the pairwise feature-distance
/// distribution — the portable way to "vary δ" across data sets whose
/// absolute scales differ.
pub fn delta_quantiles(features: &[Feature], metric: &dyn Metric, quantiles: &[f64]) -> Vec<f64> {
    let dm = DistanceMatrix::from_features(features, metric);
    let n = features.len();
    let mut ds = Vec::with_capacity(n * (n - 1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            ds.push(dm.get(i, j));
        }
    }
    ds.sort_by(|a, b| a.partial_cmp(b).unwrap());
    quantiles
        .iter()
        .map(|&q| ds[((ds.len() - 1) as f64 * q.clamp(0.0, 1.0)) as usize].max(1e-12))
        .collect()
}

/// How a scenario's δ is specified.
#[derive(Debug, Clone, Copy)]
enum DeltaSpec {
    /// An absolute δ value.
    Absolute(f64),
    /// A quantile of the pairwise feature-distance distribution
    /// (see [`delta_quantiles`]).
    Quantile(f64),
}

/// Builder for experiment scenarios — the one place figure binaries
/// assemble topology + features + metric + δ + link behaviour, so every
/// experiment constructs its network identically.
///
/// ```
/// use elink_experiments::common::ScenarioBuilder;
/// use elink_metric::{Absolute, Feature};
/// use elink_topology::Topology;
/// use std::sync::Arc;
///
/// let features: Vec<Feature> = (0..8)
///     .map(|v| Feature::scalar(if v < 4 { 0.0 } else { 100.0 }))
///     .collect();
/// let scenario = ScenarioBuilder::new(Topology::grid(1, 8), features, Arc::new(Absolute))
///     .delta(10.0)
///     .build();
/// assert_eq!(scenario.run_implicit().clustering.cluster_count(), 2);
/// ```
pub struct ScenarioBuilder {
    topology: Topology,
    features: Vec<Feature>,
    metric: Arc<dyn Metric>,
    delta: DeltaSpec,
}

impl ScenarioBuilder {
    /// Starts a scenario from a topology, per-node features and a metric.
    /// Defaults to δ at the median pairwise distance. Runs use synchronous
    /// links, which draw no randomness.
    pub fn new(topology: Topology, features: Vec<Feature>, metric: Arc<dyn Metric>) -> Self {
        ScenarioBuilder {
            topology,
            features,
            metric,
            delta: DeltaSpec::Quantile(0.5),
        }
    }

    /// Sets an absolute δ.
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = DeltaSpec::Absolute(delta);
        self
    }

    /// Sets δ as a quantile of the pairwise feature-distance distribution.
    pub fn delta_quantile(mut self, q: f64) -> Self {
        self.delta = DeltaSpec::Quantile(q);
        self
    }

    /// Resolves δ and builds the network (routing tables included).
    pub fn build(self) -> Scenario {
        let delta = match self.delta {
            DeltaSpec::Absolute(d) => d,
            DeltaSpec::Quantile(q) => {
                delta_quantiles(&self.features, self.metric.as_ref(), &[q])[0]
            }
        };
        let topology = Arc::new(self.topology);
        Scenario {
            network: SimNetwork::new(Topology::clone(&topology)),
            topology,
            features: self.features,
            metric: self.metric,
            delta,
        }
    }
}

/// A fully-assembled experiment scenario: network, data, metric and the
/// resolved δ. Produced by [`ScenarioBuilder::build`].
pub struct Scenario {
    /// The simulated network (topology + routing).
    pub network: SimNetwork,
    /// Shared topology handle (for maintenance sims and analytic models).
    pub topology: Arc<Topology>,
    /// Per-node features.
    pub features: Vec<Feature>,
    /// The clustering metric.
    pub metric: Arc<dyn Metric>,
    /// The resolved δ threshold.
    pub delta: f64,
}

impl Scenario {
    /// The topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// `ElinkConfig::for_delta` at the scenario δ.
    pub fn config(&self) -> ElinkConfig {
        ElinkConfig::for_delta(self.delta)
    }

    /// Implicit ELink at the scenario δ.
    pub fn run_implicit(&self) -> ElinkOutcome {
        self.run_implicit_with(self.config())
    }

    /// Implicit ELink with an explicit configuration (δ sweeps, ablations).
    pub fn run_implicit_with(&self, config: ElinkConfig) -> ElinkOutcome {
        run_implicit(
            &self.network,
            &self.features,
            Arc::clone(&self.metric),
            config,
        )
    }

    /// Explicit ELink at the scenario δ over synchronous links.
    pub fn run_explicit(&self) -> ElinkOutcome {
        self.run_explicit_with(self.config())
    }

    /// Explicit ELink with an explicit configuration.
    pub fn run_explicit_with(&self, config: ElinkConfig) -> ElinkOutcome {
        run_explicit(
            &self.network,
            &self.features,
            Arc::clone(&self.metric),
            config,
            SyncLink,
            0,
        )
    }

    /// Unordered-expansion ELink (§5 ablation) with an explicit
    /// configuration.
    pub fn run_unordered_with(&self, config: ElinkConfig) -> ElinkOutcome {
        run_unordered(
            &self.network,
            &self.features,
            Arc::clone(&self.metric),
            config,
            SyncLink,
            0,
        )
    }

    /// A [`SuiteBench`] (all-§8-algorithms harness) over this scenario.
    pub fn suite_bench(&self) -> SuiteBench {
        self.suite_bench_with(SpectralConfig::default())
    }

    /// As [`Scenario::suite_bench`] with a custom spectral configuration.
    pub fn suite_bench_with(&self, config: SpectralConfig) -> SuiteBench {
        SuiteBench::with_spectral_config(
            Topology::clone(&self.topology),
            self.features.clone(),
            Arc::clone(&self.metric),
            config,
        )
    }
}

/// One clustering algorithm's quality and cost at a given δ.
#[derive(Debug, Clone)]
pub struct SuiteRow {
    /// Algorithm name.
    pub algorithm: &'static str,
    /// Number of clusters produced (quality; smaller is better).
    pub clusters: usize,
    /// Total message cost of the clustering run (§8.2 model).
    pub cost: u64,
}

/// Precomputed per-topology state so a δ sweep does not rebuild routing
/// tables or spectral embeddings.
pub struct SuiteBench {
    /// The shared network (topology + routing table).
    pub network: SimNetwork,
    /// Node features.
    pub features: Vec<Feature>,
    /// The metric.
    pub metric: Arc<dyn Metric>,
    /// The centralized baseline's reusable spectral embedding.
    pub spectral: CentralizedClustering,
}

impl SuiteBench {
    /// Builds the bench for one topology + feature set.
    pub fn new(topology: Topology, features: Vec<Feature>, metric: Arc<dyn Metric>) -> SuiteBench {
        let spectral = CentralizedClustering::new(
            &topology,
            &features,
            Arc::clone(&metric),
            SpectralConfig::default(),
        );
        SuiteBench {
            network: SimNetwork::new(topology),
            features,
            metric,
            spectral,
        }
    }

    /// As [`SuiteBench::new`] with a custom spectral configuration (large
    /// networks shrink `max_k`).
    pub fn with_spectral_config(
        topology: Topology,
        features: Vec<Feature>,
        metric: Arc<dyn Metric>,
        config: SpectralConfig,
    ) -> SuiteBench {
        let spectral =
            CentralizedClustering::new(&topology, &features, Arc::clone(&metric), config);
        SuiteBench {
            network: SimNetwork::new(topology),
            features,
            metric,
            spectral,
        }
    }

    /// The topology.
    pub fn topology(&self) -> &Topology {
        self.network.topology()
    }

    /// Runs all four §8 clustering algorithms at one δ. The centralized
    /// cost is the feature shipping to the base station (the spectral
    /// computation itself is free, as in the paper's cost model).
    pub fn run_all(&self, delta: f64) -> Vec<SuiteRow> {
        let topo = self.topology();
        let config = ElinkConfig::for_delta(delta);
        let elink = run_implicit(
            &self.network,
            &self.features,
            Arc::clone(&self.metric),
            config,
        );
        let elink_x = run_explicit(
            &self.network,
            &self.features,
            Arc::clone(&self.metric),
            config,
            SyncLink,
            0,
        );
        let sf = spanning_forest_clustering(topo, &self.features, self.metric.as_ref(), delta);
        let hier = hierarchical_clustering_with_routing(
            topo,
            &self.features,
            self.metric.as_ref(),
            delta,
            Some(self.network.routing()),
        );
        let spectral = self.spectral.cluster_for_delta(delta);
        let central_cost: u64 = {
            // Ship every feature to the base station once.
            let base = topo.nearest_node(&topo.extent().center());
            let hops = topo.graph().bfs_hops(base);
            let dim = self.features.first().map_or(1, Feature::scalar_cost);
            (0..topo.n()).map(|v| hops[v] as u64 * dim).sum()
        };
        vec![
            SuiteRow {
                algorithm: "elink_implicit",
                clusters: elink.clustering.cluster_count(),
                cost: elink.costs.total_cost(),
            },
            SuiteRow {
                algorithm: "elink_explicit",
                clusters: elink_x.clustering.cluster_count(),
                cost: elink_x.costs.total_cost(),
            },
            SuiteRow {
                algorithm: "centralized",
                // §8.3 accepts "the smallest k such that each cluster
                // satisfies the δ-condition" — that k is the paper's
                // reported count (spatial connectivity is not part of the
                // acceptance test). When no k ≤ max_k satisfies δ, fall
                // back to the repaired valid clustering's count.
                clusters: if spectral.spectral_satisfied_delta {
                    spectral.k
                } else {
                    spectral.cluster_count
                },
                cost: central_cost,
            },
            SuiteRow {
                algorithm: "hierarchical",
                clusters: hier.clustering.cluster_count(),
                cost: hier.costs.total_cost(),
            },
            SuiteRow {
                algorithm: "spanning_forest",
                clusters: sf.clustering.cluster_count(),
                cost: sf.costs.total_cost(),
            },
        ]
    }
}

/// Formats a float compactly for tables.
pub fn fmt(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 100.0 {
        format!("{v:.0}")
    } else if v.abs() >= 1.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use elink_metric::Absolute;

    #[test]
    fn table_renders_markdown_and_csv() {
        let t = Table {
            id: "figXX",
            title: "demo".into(),
            headers: vec!["a".into(), "b".into()],
            rows: vec![vec!["1".into(), "2".into()]],
        };
        let md = t.to_markdown();
        assert!(md.contains("| a | b |"));
        assert!(md.contains("| 1 | 2 |"));
        let csv = t.to_csv();
        assert_eq!(csv, "a,b\n1,2\n");
    }

    #[test]
    fn delta_quantiles_monotone() {
        let features: Vec<Feature> = (0..10).map(|i| Feature::scalar(i as f64)).collect();
        let qs = delta_quantiles(&features, &Absolute, &[0.1, 0.5, 0.9]);
        assert!(qs[0] < qs[1] && qs[1] < qs[2]);
    }

    #[test]
    fn suite_runs_all_algorithms() {
        let data = elink_datasets::TerrainDataset::generate(60, 5, 0.55, 1);
        let features = data.features();
        let bench = SuiteBench::new(data.topology().clone(), features, Arc::new(Absolute));
        let rows = bench.run_all(400.0);
        assert_eq!(rows.len(), 5);
        for row in &rows {
            assert!(row.clusters >= 1 && row.clusters <= 60, "{row:?}");
        }
    }

    #[test]
    fn fmt_scales() {
        assert_eq!(fmt(0.0), "0");
        assert_eq!(fmt(0.12345), "0.1235");
        assert_eq!(fmt(3.75159), "3.75");
        assert_eq!(fmt(1234.5), "1234");
    }
}
