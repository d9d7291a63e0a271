//! Property tests for the recovery layer: under random topologies and
//! random fault schedules (per-hop loss up to 0.25, up to 20% of nodes
//! permanently crashed), every completed answer upholds the answer
//! contract of `elink_workload::audit` — sound always, exact whenever full
//! coverage is claimed, explicit when shed — and is honestly partial
//! whenever a cluster leader died.

use elink_datasets::TerrainDataset;
use elink_metric::{Absolute, Metric};
use elink_netsim::{ArqConfig, LossyLink, SimNetwork};
use elink_workload::{ServeOptions, Truth, WorkloadSim, WorkloadSpec};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Concurrent serving over a faulty link: answers are sound subsets of
    /// the ground truth over initial anchors (query-only schedules), full
    /// coverage certifies exactness, a crashed leader forces every answer
    /// partial, and no surviving initiator's query ever wedges.
    #[test]
    fn fault_schedules_never_break_the_coverage_contract(
        topo_seed in 0u64..40,
        wl_seed in 0u64..1000,
        drop_milli in 0u64..=250,
        crash_frac_milli in 0u64..=200,
        crash_seed in 0u64..1000,
    ) {
        let data = TerrainDataset::generate(72, 5, 0.55, topo_seed);
        let topo = data.topology().clone();
        let features = data.features();
        let metric: Arc<dyn Metric> = Arc::new(Absolute);
        let delta = 300.0;
        let n = topo.n();

        // Random distinct victims, ≤ 20% of the fleet, from a stride walk
        // parameterized by the proptest-drawn seed.
        let count = n * crash_frac_milli as usize / 1000;
        let mut victims: BTreeSet<usize> = BTreeSet::new();
        let mut v = (crash_seed as usize) % n;
        while victims.len() < count {
            while victims.contains(&v) {
                v = (v + 1) % n;
            }
            victims.insert(v);
            v = (v + 89) % n;
        }

        let mut link = LossyLink::new(1, 2).with_drop_prob(drop_milli as f64 / 1000.0);
        for &c in &victims {
            link = link.with_crash(c, 1, None);
        }

        let mut spec = WorkloadSpec::quick(wl_seed);
        spec.n_queries = 12;
        spec.n_updates = 0; // truth = initial anchors under concurrency
        let mut opts = ServeOptions::for_delta(delta);
        opts.recovery = true;
        let sim = WorkloadSim::build_with_link(
            topo.clone(),
            features.clone(),
            Arc::clone(&metric),
            delta,
            &spec,
            opts,
            link,
            Some(ArqConfig::default()),
        );
        let truth = Truth::new(&sim.schedule().templates, &features, Arc::clone(&metric));
        let expected: Vec<u64> = sim
            .schedule()
            .submissions
            .iter()
            .filter(|s| !victims.contains(&s.initiator))
            .map(|s| s.qid)
            .collect();

        // Whether any crashed node leads a multi-node cluster: its current
        // anchor is then unknowable, so no answer may claim full coverage.
        let clustering = elink_core::run_implicit(
            &SimNetwork::new(topo),
            &features,
            Arc::clone(&metric),
            elink_core::ElinkConfig::for_delta(delta),
        )
        .clustering;
        let leader_died = clustering
            .clusters
            .iter()
            .any(|c| c.members.len() > 1 && victims.contains(&c.root));

        let run = sim.run_concurrent();

        // Liveness: exactly the surviving initiators' queries complete.
        let done: Vec<u64> = run.completed.iter().map(|c| c.qid).collect();
        prop_assert_eq!(&done, &expected, "completed set != surviving submissions");

        for c in &run.completed {
            prop_assert_eq!(
                truth.answer(c), Ok(()),
                "answer contract under drop={} crashes={:?}", drop_milli, victims
            );
            if leader_died {
                prop_assert!(
                    c.coverage_milli < 1000,
                    "qid {}: full coverage claimed though a cluster leader crashed", c.qid
                );
            }
        }
    }

    /// The load-admission ladder under composed load × loss × crash
    /// grids: every transfer is priced through the fair-share flow model
    /// (random per-link capacity) while drop faults and permanent crashes
    /// run alongside, with admission armed. Every completed answer's
    /// coverage stays honest — a sound subset of the brute truth, exact
    /// whenever full coverage is claimed — and shed queries are explicit
    /// zero-coverage completions, never silent drops: the completed set
    /// still equals the surviving submissions and the admission counters
    /// partition it.
    #[test]
    fn admission_under_composed_faults_stays_honest_and_explicit(
        topo_seed in 0u64..40,
        wl_seed in 0u64..1000,
        capacity in 1u64..=48,
        drop_milli in 0u64..=200,
        crash_frac_milli in 0u64..=150,
        crash_seed in 0u64..1000,
    ) {
        let data = TerrainDataset::generate(72, 5, 0.55, topo_seed);
        let topo = data.topology().clone();
        let features = data.features();
        let metric: Arc<dyn Metric> = Arc::new(Absolute);
        let delta = 300.0;
        let n = topo.n();

        let count = n * crash_frac_milli as usize / 1000;
        let mut victims: BTreeSet<usize> = BTreeSet::new();
        let mut v = (crash_seed as usize) % n;
        while victims.len() < count {
            while victims.contains(&v) {
                v = (v + 1) % n;
            }
            victims.insert(v);
            v = (v + 89) % n;
        }

        let mut link = LossyLink::new(1, 2)
            .with_drop_prob(drop_milli as f64 / 1000.0)
            .with_capacity(capacity);
        for &c in &victims {
            link = link.with_crash(c, 1, None);
        }

        let mut spec = WorkloadSpec::quick(wl_seed);
        spec.n_queries = 12;
        spec.n_updates = 0; // truth = initial anchors under concurrency
        let mut opts = ServeOptions::for_delta(delta);
        opts.recovery = true;
        opts.load_admission = true;
        let sim = WorkloadSim::build_with_link(
            topo,
            features.clone(),
            Arc::clone(&metric),
            delta,
            &spec,
            opts,
            link,
            Some(ArqConfig::default()),
        );
        let truth = Truth::new(&sim.schedule().templates, &features, Arc::clone(&metric));
        let expected: Vec<u64> = sim
            .schedule()
            .submissions
            .iter()
            .filter(|s| !victims.contains(&s.initiator))
            .map(|s| s.qid)
            .collect();

        let run = sim.run_concurrent();

        // Liveness with shedding: shed queries COMPLETE (explicitly, with
        // zero coverage) rather than vanish, so the completed set still
        // equals the surviving submissions exactly.
        let done: Vec<u64> = run.completed.iter().map(|c| c.qid).collect();
        prop_assert_eq!(&done, &expected, "completed set != surviving submissions");

        // The admission counters partition the submissions, and the shed
        // counter equals the number of flagged completions — nothing is
        // dropped between the ladder and the report.
        let shed_flagged = run.completed.iter().filter(|c| c.shed).count() as u64;
        prop_assert_eq!(run.metrics.counter("serve.shed"), shed_flagged);
        prop_assert_eq!(
            run.metrics.counter("serve.admitted")
                + run.metrics.counter("serve.degraded")
                + run.metrics.counter("serve.shed"),
            run.metrics.counter("wl.query.submitted"),
            "admission buckets must partition the submissions"
        );

        for c in &run.completed {
            prop_assert_eq!(
                truth.answer(c), Ok(()),
                "answer contract under cap={} drop={} crashes={:?}",
                capacity, drop_milli, victims
            );
        }
    }
}
