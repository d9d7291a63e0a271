//! Fig 14 — average range-query cost vs query radius on the Tao data.
//!
//! The range-query machinery runs on top of each clustering algorithm's
//! output (ELink, Hierarchical, Spanning forest), with TAG as the
//! clustering-free comparison. Expected shape: on spatially correlated
//! data the δ-compactness pruning makes clustered querying several times
//! (up to ~5×) cheaper than TAG at small radii, with the advantage
//! shrinking as the radius grows (§8.6).

use crate::common::{delta_quantiles, fmt, ScenarioBuilder, Table};
use elink_baselines::{hierarchical_clustering_with_routing, spanning_forest_clustering};
use elink_core::Clustering;
use elink_datasets::{TaoDataset, TaoParams};
use elink_metric::{Feature, Metric};
use elink_netsim::SimNetwork;
use elink_query::{
    brute_force_range, elink_range_query, tag_range_query, Backbone, DistributedIndex, TagTree,
};
use elink_topology::Topology;
use std::sync::Arc;

/// Parameters for the Fig 14 reproduction.
#[derive(Debug, Clone)]
pub struct Params {
    /// Tao generation parameters.
    pub tao: TaoParams,
    /// Data seed.
    pub seed: u64,
    /// δ as a quantile of pairwise feature distances.
    pub delta_quantile: f64,
    /// Query radii as fractions of δ ("(0.7δ, 0.9δ) for the real data").
    pub radius_fractions: Vec<f64>,
}

impl Default for Params {
    fn default() -> Self {
        Params {
            tao: TaoParams::default(),
            seed: 7,
            // §8.6 stresses that "the clustering was compact" on the real
            // data; the 0.7 quantile yields the compact (~8-cluster)
            // regime where δ-compactness pruning shines.
            delta_quantile: 0.7,
            radius_fractions: vec![0.70, 0.75, 0.80, 0.85, 0.90],
        }
    }
}

impl Params {
    /// Seconds-scale preset.
    pub fn quick() -> Params {
        Params {
            tao: TaoParams {
                rows: 6,
                cols: 9,
                day_len: 24,
                days: 8,
            },
            seed: 7,
            delta_quantile: 0.5,
            radius_fractions: vec![0.7, 0.9],
        }
    }
}

/// Query infrastructure built over one clustering.
pub(crate) struct QuerySetup {
    clustering: Clustering,
    index: DistributedIndex,
    backbone: Backbone,
}

impl QuerySetup {
    pub(crate) fn build(
        clustering: Clustering,
        network: &SimNetwork,
        features: &[Feature],
        metric: &dyn Metric,
    ) -> QuerySetup {
        let (index, _) = DistributedIndex::build(&clustering, features, metric);
        let (backbone, _) = Backbone::build(&clustering, network.routing());
        QuerySetup {
            clustering,
            index,
            backbone,
        }
    }

    /// Average per-query cost with every node as initiator querying its own
    /// feature ("which regions behave similar to node x?") at radius `r`.
    /// Panics if any query result disagrees with brute force (correctness
    /// is validated on every experiment run).
    pub(crate) fn average_query_cost(
        &self,
        features: &[Feature],
        metric: &dyn Metric,
        delta: f64,
        r: f64,
    ) -> f64 {
        let n = features.len();
        let mut total = 0u64;
        for initiator in 0..n {
            let q = features[initiator].clone();
            let result = elink_range_query(
                &self.clustering,
                &self.index,
                &self.backbone,
                features,
                metric,
                delta,
                initiator,
                &q,
                r,
            );
            assert_eq!(
                result.matches,
                brute_force_range(features, metric, &q, r),
                "range query diverged from ground truth"
            );
            total += result.costs.total_cost();
        }
        total as f64 / n as f64
    }
}

/// Shared implementation for Figs 14 and 15.
pub(crate) fn range_query_table(
    id: &'static str,
    title: String,
    topology: &Topology,
    features: Vec<Feature>,
    metric: Arc<dyn Metric>,
    delta: f64,
    radius_fractions: &[f64],
) -> Table {
    let scenario = ScenarioBuilder::new(topology.clone(), features, Arc::clone(&metric))
        .delta(delta)
        .build();
    let features = scenario.features.clone();
    let network = &scenario.network;
    let elink = scenario.run_implicit().clustering;
    // The query backbones route over `network`'s table; the baseline
    // prices its merge rounds over the same one.
    let hier = hierarchical_clustering_with_routing(
        topology,
        &features,
        metric.as_ref(),
        delta,
        Some(network.routing()),
    )
    .clustering;
    let sf = spanning_forest_clustering(topology, &features, metric.as_ref(), delta).clustering;
    let setups = [
        (
            "elink",
            QuerySetup::build(elink, network, &features, metric.as_ref()),
        ),
        (
            "hierarchical",
            QuerySetup::build(hier, network, &features, metric.as_ref()),
        ),
        (
            "spanning_forest",
            QuerySetup::build(sf, network, &features, metric.as_ref()),
        ),
    ];
    let tag_tree = TagTree::build(topology);

    let mut rows = Vec::new();
    for &frac in radius_fractions {
        let r = frac * delta;
        let mut row = vec![fmt(frac), fmt(r)];
        for (_, setup) in &setups {
            row.push(fmt(setup.average_query_cost(
                &features,
                metric.as_ref(),
                delta,
                r,
            )));
        }
        // TAG: cost is query-independent; still execute one query per node
        // for the exactness check.
        let mut tag_total = 0u64;
        for initiator in 0..features.len() {
            let q = features[initiator].clone();
            let (matches, stats) = tag_range_query(&tag_tree, &features, metric.as_ref(), &q, r);
            assert_eq!(
                matches,
                brute_force_range(&features, metric.as_ref(), &q, r)
            );
            tag_total += stats.total_cost();
        }
        row.push(fmt(tag_total as f64 / features.len() as f64));
        rows.push(row);
    }
    Table {
        id,
        title,
        headers: vec![
            "radius_fraction".into(),
            "radius".into(),
            "elink".into(),
            "hierarchical".into(),
            "spanning_forest".into(),
            "tag".into(),
        ],
        rows,
    }
}

/// Regenerates Fig 14.
pub fn run(params: Params) -> Table {
    let data = TaoDataset::generate(params.tao, params.seed);
    let features = data.features();
    let metric: Arc<dyn Metric> = Arc::new(data.metric().clone());
    let delta = delta_quantiles(&features, metric.as_ref(), &[params.delta_quantile])[0];
    range_query_table(
        "fig14",
        format!(
            "Average range-query cost vs radius, Tao data (delta = {})",
            fmt(delta)
        ),
        data.topology(),
        features,
        metric,
        delta,
        &params.radius_fractions,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elink_beats_tag_on_correlated_data() {
        let t = run(Params::quick());
        for row in &t.rows {
            let elink: f64 = row[2].parse().unwrap();
            let tag: f64 = row[5].parse().unwrap();
            assert!(elink < tag, "elink {elink} >= tag {tag}");
        }
    }

    #[test]
    fn costs_stay_in_band_across_radii() {
        // Per-query cost is not monotone in the radius (larger radii drill
        // more but also fully include more clusters); it must stay within a
        // narrow band and below TAG throughout.
        let t = run(Params::quick());
        let lo: f64 = t.rows[0][2].parse().unwrap();
        let hi: f64 = t.rows[1][2].parse().unwrap();
        let (min, max) = (lo.min(hi), lo.max(hi));
        assert!(max <= 2.0 * min, "elink costs vary wildly: {lo} vs {hi}");
    }
}
