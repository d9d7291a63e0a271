//! Workspace-level integration tests: full pipelines through the facade
//! crate — data generation → modelling → clustering → index → queries →
//! maintenance — on all three data-set families.

use elink::baselines::{
    hierarchical_clustering, optimal_cluster_count, spanning_forest_clustering,
    CentralizedClustering, CentralizedUpdateSim,
};
use elink::core::{run_explicit, validate_delta_clustering, MaintenanceSim};
use elink::datasets::{SyntheticDataset, TaoDataset, TaoParams, TerrainDataset};
use elink::experiments::ScenarioBuilder;
use elink::metric::{check_metric_axioms, Absolute, Euclidean, Feature, Metric};
use elink::netsim::LossyLink;
use elink::query::{
    brute_force_range, elink_path_query, elink_range_query, flooding_path_query, tag_range_query,
    Backbone, DistributedIndex, TagTree,
};
use elink::topology::Topology;
use std::sync::Arc;

fn tao_small() -> TaoDataset {
    TaoDataset::generate(
        TaoParams {
            rows: 6,
            cols: 9,
            day_len: 24,
            days: 10,
        },
        3,
    )
}

#[test]
fn tao_pipeline_cluster_index_query() {
    let data = tao_small();
    let features = data.features();
    let metric = Arc::new(data.metric().clone());
    check_metric_axioms(&features, metric.as_ref(), 1e-9).expect("metric axioms");

    let delta = 0.15;
    let scenario = ScenarioBuilder::new(
        data.topology().clone(),
        features.clone(),
        Arc::clone(&metric) as _,
    )
    .delta(delta)
    .build();
    let outcome = scenario.run_implicit();
    validate_delta_clustering(
        &outcome.clustering,
        data.topology(),
        &features,
        metric.as_ref(),
        delta,
    )
    .unwrap();

    let (index, _) = DistributedIndex::build(&outcome.clustering, &features, metric.as_ref());
    let (backbone, _) = Backbone::build(&outcome.clustering, scenario.network.routing());
    // Every node queries its own feature at several radii; results must be
    // exact everywhere.
    for initiator in [0usize, 13, 27, 53] {
        for r_frac in [0.3, 0.8] {
            let q = features[initiator].clone();
            let r = r_frac * delta;
            let result = elink_range_query(
                &outcome.clustering,
                &index,
                &backbone,
                &features,
                metric.as_ref(),
                delta,
                initiator,
                &q,
                r,
            );
            assert_eq!(
                result.matches,
                brute_force_range(&features, metric.as_ref(), &q, r)
            );
        }
    }
}

#[test]
fn terrain_pipeline_all_algorithms_valid() {
    let data = TerrainDataset::generate(200, 6, 0.55, 5);
    let features = data.features();
    let delta = 300.0;
    let scenario = ScenarioBuilder::new(
        data.topology().clone(),
        features.clone(),
        Arc::new(Absolute),
    )
    .delta(delta)
    .build();
    let elink = scenario.run_implicit();
    let sf = spanning_forest_clustering(data.topology(), &features, &Absolute, delta);
    let hier = hierarchical_clustering(data.topology(), &features, &Absolute, delta);
    for (name, clustering) in [
        ("elink", &elink.clustering),
        ("spanning_forest", &sf.clustering),
        ("hierarchical", &hier.clustering),
    ] {
        validate_delta_clustering(clustering, data.topology(), &features, &Absolute, delta)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
    // Spectral produces valid assignments too (validated via its own
    // invariants) and a cluster count in a sane band.
    let spectral = CentralizedClustering::new(
        data.topology(),
        &features,
        Arc::new(Absolute),
        Default::default(),
    );
    let result = spectral.cluster_for_delta(delta);
    assert!(result.cluster_count >= 1 && result.cluster_count <= 200);
}

#[test]
fn synthetic_pipeline_explicit_async_and_tag() {
    let data = SyntheticDataset::generate(150, 500, 11);
    let features = data.features();
    let delta = 0.05;
    let scenario = ScenarioBuilder::new(
        data.topology().clone(),
        features.clone(),
        Arc::new(Euclidean),
    )
    .delta(delta)
    .build();
    let outcome = run_explicit(
        &scenario.network,
        &features,
        Arc::new(Euclidean),
        scenario.config(),
        LossyLink::new(1, 6),
        5,
    );
    validate_delta_clustering(
        &outcome.clustering,
        data.topology(),
        &features,
        &Euclidean,
        delta,
    )
    .unwrap();

    // TAG on the same network answers the same queries with a fixed bill.
    let tag = TagTree::build(data.topology());
    let q = features[42].clone();
    let (matches, stats) = tag_range_query(&tag, &features, &Euclidean, &q, 0.5 * delta);
    assert_eq!(
        matches,
        brute_force_range(&features, &Euclidean, &q, 0.5 * delta)
    );
    assert_eq!(
        stats.total_packets(),
        2 * (data.topology().n() as u64 - 1),
        "TAG bill is twice the overlay-tree edges"
    );
}

#[test]
fn maintenance_pipeline_keeps_costs_below_centralized() {
    let data = tao_small();
    let features = data.features();
    let metric = Arc::new(data.metric().clone());
    let topology = Arc::new(data.topology().clone());
    let delta = 0.2;
    let slack = 0.05 * delta;
    let scenario = ScenarioBuilder::new(
        data.topology().clone(),
        features.clone(),
        Arc::clone(&metric) as _,
    )
    .delta(delta - 2.0 * slack)
    .build();
    let outcome = scenario.run_implicit();
    let mut maint = MaintenanceSim::new(
        &outcome.clustering,
        topology,
        Arc::clone(&metric) as _,
        features.clone(),
        delta,
        slack,
    );
    let mut central = CentralizedUpdateSim::new(data.topology(), features.clone(), slack);

    let mut models = data.train_models();
    for t in 0..data.evaluation()[0].len() {
        for (node, model) in models.iter_mut().enumerate() {
            model.observe(data.evaluation()[node][t]);
            let f = model.feature();
            maint.update(node, f.clone());
            central.model_update(node, f, metric.as_ref());
        }
    }
    assert!(
        maint.costs().total_cost() < central.costs().kind("central_model").cost,
        "maintenance {} >= centralized {}",
        maint.costs().total_cost(),
        central.costs().kind("central_model").cost
    );
}

#[test]
fn path_queries_agree_with_flooding_across_settings() {
    let data = TerrainDataset::generate(180, 6, 0.55, 8);
    let features = data.features();
    let delta = 250.0;
    let scenario = ScenarioBuilder::new(
        data.topology().clone(),
        features.clone(),
        Arc::new(Absolute),
    )
    .delta(delta)
    .build();
    let outcome = scenario.run_implicit();
    let (index, _) = DistributedIndex::build(&outcome.clustering, &features, &Absolute);
    let (backbone, _) = Backbone::build(&outcome.clustering, scenario.network.routing());
    let danger = Feature::scalar(175.0);
    for gamma in [150.0, 500.0, 900.0] {
        for (src, dst) in [(0, 179), (30, 90)] {
            let e = elink_path_query(
                &outcome.clustering,
                &index,
                &backbone,
                data.topology(),
                &features,
                &Absolute,
                delta,
                src,
                dst,
                &danger,
                gamma,
            );
            let f = flooding_path_query(
                data.topology(),
                &features,
                &Absolute,
                src,
                dst,
                &danger,
                gamma,
            );
            assert_eq!(e.path.is_some(), f.path.is_some(), "γ = {gamma}");
        }
    }
}

#[test]
fn elink_quality_close_to_optimal_on_tiny_instances() {
    // Exhaustive optimum is exponential (Theorem 1) but feasible at n ≤ 16;
    // ELink's count should stay within a small additive factor.
    for seed in 0..4 {
        let data = TerrainDataset::generate(14, 4, 0.55, seed);
        let features = data.features();
        let delta = 500.0;
        let opt = optimal_cluster_count(data.topology(), &features, &Absolute, delta);
        let scenario = ScenarioBuilder::new(
            data.topology().clone(),
            features.clone(),
            Arc::new(Absolute),
        )
        .delta(delta)
        .build();
        let outcome = scenario.run_implicit();
        let elink = outcome.clustering.cluster_count();
        assert!(
            elink >= opt,
            "seed {seed}: elink {elink} beat optimal {opt}"
        );
        assert!(
            elink <= opt + 6,
            "seed {seed}: elink {elink} far from optimal {opt}"
        );
    }
}

#[test]
fn facade_reexports_are_usable() {
    // Compile-time check that every sub-crate is reachable through the
    // facade, plus a smoke call into each.
    let topo = Topology::grid(2, 2);
    assert_eq!(topo.n(), 4);
    let f = Feature::scalar(1.0);
    assert_eq!(Absolute.distance(&f, &Feature::scalar(3.0)), 2.0);
    let m = elink::linalg::Matrix::identity(2);
    assert_eq!(m[(1, 1)], 1.0);
    let model = elink::armodel::ArModel::fit(&[1.0, 0.9, 0.81, 0.729, 0.6561], 1).unwrap();
    assert!((model.coefficients()[0] - 0.9).abs() < 1e-6);
    let table = elink::experiments::Table {
        id: "t",
        title: "t".into(),
        headers: vec!["h".into()],
        rows: vec![],
    };
    assert!(table.to_csv().starts_with('h'));
}
