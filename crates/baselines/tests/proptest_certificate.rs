//! Property test: the δ/2 certificate in `validate_delta_clustering` never
//! changes a verdict. The all-pairs loop that the certificate skips is kept
//! inline here as the oracle. It runs on ELink clusterings, on the
//! hierarchical and spanning-forest baselines' clusterings, and on the same
//! clusterings with every `root_feature` moved off the root. Each is checked
//! at the δ it was built for and at a smaller δ that some of its clusters
//! break, under `Absolute`, `Euclidean` and `WeightedEuclidean`.

use elink_baselines::{hierarchical_clustering, spanning_forest_clustering};
use elink_core::{
    run_implicit, validate_delta_clustering, Clustering, ElinkConfig, ValidationError,
};
use elink_metric::{Absolute, Euclidean, Feature, Metric, WeightedEuclidean};
use elink_netsim::SimNetwork;
use elink_topology::Topology;
use proptest::prelude::*;
use std::sync::Arc;

/// The all-pairs δ-compactness check, cluster by cluster: the first pair
/// beyond δ, with the validator's 1e-9 slack.
fn all_pairs(
    clustering: &Clustering,
    features: &[Feature],
    metric: &dyn Metric,
    delta: f64,
) -> Result<(), ValidationError> {
    for (cid, cluster) in clustering.clusters.iter().enumerate() {
        for (a, &i) in cluster.members.iter().enumerate() {
            for &j in &cluster.members[a + 1..] {
                let d = metric.distance(&features[i], &features[j]);
                if d > delta + 1e-9 {
                    return Err(ValidationError::NotDeltaCompact {
                        cluster: cid,
                        i,
                        j,
                        distance: d,
                    });
                }
            }
        }
    }
    Ok(())
}

/// A smooth field over the deployment plus per-node noise, so clusters
/// span several nodes. `dim` components, each of magnitude up to ~2·scale.
fn field(topology: &Topology, dim: usize, seed: u64, scale: f64) -> Vec<Feature> {
    (0..topology.n())
        .map(|v| {
            let p = topology.position(v);
            Feature::new(
                (0..dim)
                    .map(|k| {
                        let h = ((v * 8 + k) as u64)
                            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                            .wrapping_add(seed);
                        let noise = (h >> 11) as f64 / (1u64 << 53) as f64;
                        let wave = (p.x * 0.3 * (k + 1) as f64).sin() + (p.y * 0.2).cos();
                        scale * (wave + 0.3 * noise)
                    })
                    .collect(),
            )
        })
        .collect()
}

/// `clustering` with every cluster's root feature shifted by `shift` in
/// its first component.
fn moved_roots(clustering: &Clustering, shift: f64) -> Clustering {
    let mut moved = clustering.clone();
    for cluster in &mut moved.clusters {
        cluster.root_feature.components_mut()[0] += shift;
    }
    moved
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn certificate_never_changes_a_verdict(
        n in 8usize..48,
        topo_seed in 0u64..500,
        feature_seed in 0u64..1000,
        metric_kind in 0usize..3,
        scale in 0.5f64..50.0,
        delta_frac in 0.1f64..1.5,
        shrink in 0.2f64..1.0,
        shift_frac in -0.6f64..0.6,
    ) {
        let (metric, dim): (Arc<dyn Metric>, usize) = match metric_kind {
            0 => (Arc::new(Absolute), 1),
            1 => (Arc::new(Euclidean), 2),
            _ => (Arc::new(WeightedEuclidean::tao()), 4),
        };
        let topology = Topology::random_synthetic(n, topo_seed);
        let features = field(&topology, dim, feature_seed, scale);
        let delta = scale * delta_frac;
        let network = SimNetwork::new(topology.clone());
        let elink = run_implicit(
            &network,
            &features,
            Arc::clone(&metric),
            ElinkConfig::for_delta(delta),
        )
        .clustering;
        let hier = hierarchical_clustering(&topology, &features, metric.as_ref(), delta).clustering;
        let forest =
            spanning_forest_clustering(&topology, &features, metric.as_ref(), delta).clustering;
        let shift = delta * shift_frac;
        let cases = [
            ("elink", elink.clone()),
            ("hierarchical", hier.clone()),
            ("spanning forest", forest),
            ("elink, moved roots", moved_roots(&elink, shift)),
            ("hierarchical, moved roots", moved_roots(&hier, shift)),
        ];
        for (name, clustering) in &cases {
            for check_delta in [delta, delta * shrink] {
                let got = validate_delta_clustering(
                    clustering,
                    &topology,
                    &features,
                    metric.as_ref(),
                    check_delta,
                );
                let want = all_pairs(clustering, &features, metric.as_ref(), check_delta);
                prop_assert_eq!(got, want, "{} at δ = {}", name, check_delta);
            }
        }
    }
}
