//! Cross-validation: the checker's FIFO-sequential schedule *is* the
//! production engine's schedule.
//!
//! [`McSystem::run_fifo`] always dispatches the globally least pending
//! event by engine pop order, fault-free, at its exact tick — which must be
//! byte-identical to `Simulator::run_to_completion` on the same
//! construction (same topology, features, link, seed, ARQ config). These
//! property tests diff the full `JsonlTrace` byte stream, the `CostBook`,
//! the dispatch count and the extracted clustering across random
//! topologies, signalling modes, lossy links and the ARQ reliable-delivery
//! sublayer. Any divergence means the capture seam is not the engine's own
//! dispatch — the soundness root of every other checker result. The FIFO
//! schedule dispatches every boot and broadcast copy on its own, while the
//! engine may queue them as runs, so the equal dispatch counts also pin
//! that a run dispatches exactly the events it stands for.

use std::sync::{Arc, Mutex};

use elink_core::{build_sim, Clustering, ElinkConfig, SignalMode};
use elink_mc::McSystem;
use elink_metric::{Absolute, Feature};
use elink_netsim::{
    ArqConfig, CostBook, JsonlTrace, LinkModel, LossyLink, SimNetwork, Simulator, SyncLink,
};
use elink_topology::Topology;
use proptest::prelude::*;

/// Everything observable about one run.
struct RunView {
    trace: Vec<u8>,
    costs: CostBook,
    events: u64,
    assignment: Vec<usize>,
    roots: Vec<usize>,
}

/// A byte-buffer-backed trace sink shared with the simulator.
type SharedTrace = Arc<Mutex<JsonlTrace<Vec<u8>>>>;

/// Builds the traced simulator for one case; both schedules must construct
/// identically (same seed ⇒ same RNG stream) for the diff to be meaningful.
fn build_traced(
    topology: &Topology,
    features: &[Feature],
    config: ElinkConfig,
    mode: SignalMode,
    link: Box<dyn LinkModel>,
    seed: u64,
    arq: Option<ArqConfig>,
) -> (Simulator<elink_core::ElinkNode>, SharedTrace) {
    let network = SimNetwork::new(topology.clone());
    let mut sim = build_sim(
        &network,
        features,
        Arc::new(Absolute),
        config,
        mode,
        link,
        seed,
    );
    let sink = Arc::new(Mutex::new(JsonlTrace::new(Vec::<u8>::new())));
    sim.set_trace(Arc::clone(&sink));
    if let Some(arq_config) = arq {
        sim.enable_arq(arq_config);
    }
    (sim, sink)
}

/// Extracts the observable view after a completed run.
fn view(
    sim: Simulator<elink_core::ElinkNode>,
    sink: Arc<Mutex<JsonlTrace<Vec<u8>>>>,
    topology: &Topology,
) -> RunView {
    let states: Vec<_> = sim
        .nodes()
        .iter()
        .enumerate()
        .map(|(id, node)| node.cluster_state(id))
        .collect();
    let clustering = Clustering::from_node_states(&states, topology, &Absolute);
    let costs = sim.costs().clone();
    let events = sim.events_processed();
    drop(sim);
    let trace = Arc::try_unwrap(sink)
        .expect("simulator dropped its trace handle")
        .into_inner()
        .unwrap()
        .into_inner();
    RunView {
        trace,
        costs,
        events,
        roots: clustering.clusters.iter().map(|c| c.root).collect(),
        assignment: clustering.assignment,
    }
}

#[allow(clippy::too_many_arguments)]
fn run_case(
    topology: &Topology,
    features: &[Feature],
    config: ElinkConfig,
    mode: SignalMode,
    link: impl Fn() -> Box<dyn LinkModel>,
    seed: u64,
    arq: Option<ArqConfig>,
    label: &str,
) -> Result<(), TestCaseError> {
    let (mut engine_sim, engine_sink) =
        build_traced(topology, features, config, mode, link(), seed, arq);
    engine_sim.run_to_completion();
    let engine = view(engine_sim, engine_sink, topology);

    let (fifo_sim, fifo_sink) = build_traced(topology, features, config, mode, link(), seed, arq);
    let fifo = view(
        McSystem::new(fifo_sim, Vec::new()).run_fifo(2_000_000),
        fifo_sink,
        topology,
    );

    if engine.trace != fifo.trace {
        let a = String::from_utf8_lossy(&engine.trace);
        let b = String::from_utf8_lossy(&fifo.trace);
        for (i, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
            prop_assert_eq!(la, lb, "{}: trace line {} diverges", label, i);
        }
        prop_assert_eq!(
            a.lines().count(),
            b.lines().count(),
            "{}: trace lengths diverge",
            label
        );
    }
    prop_assert_eq!(&engine.costs, &fifo.costs, "{}: cost books diverge", label);
    prop_assert_eq!(
        engine.events,
        fifo.events,
        "{}: dispatch counts diverge",
        label
    );
    prop_assert_eq!(
        &engine.assignment,
        &fifo.assignment,
        "{}: assignments diverge",
        label
    );
    prop_assert_eq!(&engine.roots, &fifo.roots, "{}: roots diverge", label);
    Ok(())
}

fn synthetic_features(n: usize, seed: u64, scale: f64) -> Vec<Feature> {
    (0..n)
        .map(|v| {
            let h = (v as u64)
                .wrapping_mul(0x9e3779b97f4a7c15)
                .wrapping_add(seed);
            let x = (h >> 11) as f64 / (1u64 << 53) as f64;
            Feature::scalar(x * scale)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Loss-free: random topology, δ, mode, sync/async delays.
    #[test]
    fn fifo_matches_engine_loss_free(
        n in 6usize..32,
        topo_seed in 0u64..200,
        delta_frac in 0.1f64..1.0,
        seed in 0u64..64,
        mode_pick in 0usize..3,
        sync in proptest::bool::weighted(0.5),
    ) {
        let topology = Topology::random_synthetic(n, topo_seed);
        let scale = 100.0;
        let features = synthetic_features(n, topo_seed, scale);
        let config = ElinkConfig::for_delta((scale * delta_frac).max(1e-6));
        let mode = [SignalMode::Implicit, SignalMode::Explicit, SignalMode::Unordered][mode_pick];
        // Implicit mode assumes a synchronous network.
        let sync = sync || mode == SignalMode::Implicit;
        let link = || -> Box<dyn LinkModel> {
            if sync {
                Box::new(SyncLink)
            } else {
                Box::new(LossyLink::new(1, 4))
            }
        };
        run_case(&topology, &features, config, mode, link, seed, None, "loss-free")?;
    }

    /// Lossy link + ARQ: retransmission timers, acks and dedup state all
    /// flow through the capture seam; the schedules must still agree on
    /// every traced event and every billed byte.
    #[test]
    fn fifo_matches_engine_under_loss_with_arq(
        n in 6usize..24,
        topo_seed in 0u64..150,
        delta_frac in 0.2f64..1.0,
        seed in 0u64..64,
        drop_centi in 5u32..25,
    ) {
        let topology = Topology::random_synthetic(n, topo_seed);
        let scale = 100.0;
        let features = synthetic_features(n, topo_seed, scale);
        let config = ElinkConfig::for_delta((scale * delta_frac).max(1e-6));
        let drop = f64::from(drop_centi) / 100.0;
        run_case(
            &topology,
            &features,
            config,
            SignalMode::Explicit,
            || Box::new(LossyLink::new(1, 3).with_drop_prob(drop)),
            seed,
            Some(ArqConfig::default()),
            "lossy+arq",
        )?;
    }
}
