//! Every metric the benchmark reports, by name and unit, in print order.
//! `BENCHMARK.json` at the repository root lists the same names and units.

/// End-to-end metrics of an untimed (`--trace 0`) run.
pub const END_TO_END: [(&str, &str); 7] = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("msgs_per_node", "msgs/node"),
    ("msgs_per_op", "msgs/op"),
    ("latency_p50_ticks", "ticks"),
    ("latency_p99_ticks", "ticks"),
];

/// Per-layer metrics of a traced (`--trace 1`) run.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("engine.events", "count"),
    ("engine.events_per_s", "1/s"),
    ("engine.ns_per_event", "ns"),
    ("engine.outside_handlers_s", "s"),
    ("engine.peak_live_events", "count"),
    ("engine.sim_ticks", "ticks"),
    ("link.hop_calls", "count"),
    ("link.hop_s", "s"),
    ("link.ns_per_hop", "ns"),
    ("flow.done", "count"),
    ("flow.stale", "count"),
    ("flow.stale_ratio", "ratio"),
    ("flow.queued_ticks", "ticks"),
    ("flow.peak_active", "count"),
    ("flow.link_peak_flows", "count"),
    ("flow.links_used", "count"),
    ("arq.retx", "count"),
    ("arq.acks", "count"),
    ("arq.dup", "count"),
    ("arq.timeouts", "count"),
    ("arq.useful_ratio", "ratio"),
    ("net.msgs", "count"),
    ("net.scalars", "count"),
    ("protocol.handler_calls", "count"),
    ("protocol.handler_s", "s"),
    ("protocol.on_message_s", "s"),
    ("protocol.on_timer_s", "s"),
    ("protocol.ns_per_call", "ns"),
    ("protocol.self_s", "s"),
    ("clustering.extract_s", "s"),
    ("clustering.clusters", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.invalidations", "count"),
    ("qos.admitted", "count"),
    ("qos.degraded", "count"),
    ("qos.shed", "count"),
    ("sub.pushes", "count"),
    ("sub.repairs", "count"),
    ("sub.repair_stale_ratio", "ratio"),
    ("sub.contribs", "count"),
    ("recovery.partial", "count"),
    ("recovery.reissue", "count"),
    ("setup.grid_s", "s"),
    ("setup.quadinfo_s", "s"),
    ("setup.routing_s", "s"),
    ("setup.lazy_routing_s", "s"),
    ("setup.cluster_s", "s"),
    ("setup.index_s", "s"),
    ("setup.backbone_s", "s"),
    ("setup.schedule_s", "s"),
    ("setup.plan_s", "s"),
    ("setup.residual_s", "s"),
    ("trace.timer_ns", "ns"),
    ("trace.overhead_ratio", "ratio"),
];

/// The unit of a catalogued metric.
pub fn unit(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` names exactly the catalogued metrics, with the
    /// same units.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let compact: String = json.split_whitespace().collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("\"unit\":").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
    }
}
