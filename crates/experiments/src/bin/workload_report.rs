//! Runs the concurrent query-serving workload preset and writes
//! `BENCH_workload.json` (schema `elink-workload/v2`).
//!
//! ```text
//! workload_report [--check] [--out PATH]
//! ```
//!
//! `--check` runs the workload twice and fails unless the documents are
//! byte-identical: the CI smoke gate for the serving layer. The command
//! line is [`elink_experiments::driver`]'s.
//!
//! The preset drives a mixed range/path stream of 120 queries against a
//! 1024-node terrain deployment with background feature updates. The run
//! fails unless at least 100 queries complete and the cache hit-rate is
//! non-zero. Its answers are not audited against ground truth
//! (`elink_workload::audit`): updates interleave with the queries, so no
//! single anchor snapshot is the truth every answer was served over.

use elink_experiments::driver::{self, Report};
use elink_experiments::ext_workload;
use elink_experiments::json::Json;
use elink_workload::{ServeOptions, SloReport, WorkloadSpec};

struct Workload(SloReport);

impl Report for Workload {
    const NAME: &'static str = "workload_report";
    const OUT: &'static str = "BENCH_workload.json";

    /// The benchmark preset: 1024 nodes, 120 mixed queries, open-loop
    /// arrivals, background updates.
    fn run() -> Self {
        let mut spec = WorkloadSpec::quick(42);
        spec.n_queries = 120;
        spec.n_updates = 40;
        let sim = ext_workload::deploy(1024, 300.0, &spec, ServeOptions::for_delta(300.0));
        Workload(SloReport::from_run(&sim.run_concurrent()))
    }

    fn print(&self) {
        let r = &self.0;
        println!(
            "workload n={} clusters={} queries={}/{} sim_ticks={}",
            r.n_nodes, r.n_clusters, r.done, r.submitted, r.sim_ticks
        );
        println!(
            "  latency p50={} p90={} p99={} max={} | throughput={}.{:03}/tick",
            r.latency.p50,
            r.latency.p90,
            r.latency.p99,
            r.latency.max,
            r.throughput_milli / 1000,
            r.throughput_milli % 1000
        );
        println!(
            "  cache hits={} misses={} hit_rate={}.{:03} evictions={} invalidations={}",
            r.cache_hits,
            r.cache_misses,
            r.hit_rate_milli / 1000,
            r.hit_rate_milli % 1000,
            r.cache_evictions,
            r.invalidations
        );
        println!(
            "  batching riders={} | msgs/query={}.{:03} total_msgs={} attributed_cost={}",
            r.batch_riders,
            r.msgs_per_query_milli / 1000,
            r.msgs_per_query_milli % 1000,
            r.total_msgs,
            r.attributed_cost
        );
    }

    fn failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.0.done < 100 {
            failures.push(format!(
                "only {} queries completed (floor: 100)",
                self.0.done
            ));
        }
        if self.0.cache_hits == 0 {
            failures.push("cache hit-rate is zero".to_string());
        }
        failures
    }

    fn json(&self) -> Json {
        ext_workload::json(&self.0)
    }
}

fn main() {
    driver::main::<Workload>();
}
