//! Runs the standing-query serving bench and writes `BENCH_sub.json`
//! (schema `elink-sub/v2`).
//!
//! ```text
//! sub_report [--check] [--out PATH]
//! ```
//!
//! `--check` runs the bench twice and fails unless the documents are
//! byte-identical: the CI smoke gate for the subscription engine. The
//! command line is [`elink_experiments::driver`]'s.
//!
//! The bench compares the incremental push pipeline against per-update
//! one-shot re-query over the same deployment and churn stream. The run
//! fails unless every subscription survives and `ratio_milli >= 2000` (at
//! least 2× fewer serving messages per update).

use elink_experiments::driver::{self, Report};
use elink_experiments::json::Json;
use elink_experiments::subbench::{self, SubReport};

struct Sub(SubReport);

impl Report for Sub {
    const NAME: &'static str = "sub_report";
    const OUT: &'static str = "BENCH_sub.json";

    fn run() -> Self {
        Sub(subbench::run_once(1))
    }

    fn print(&self) {
        let r = &self.0;
        println!(
            "sub n={} clusters={} subscribers={} updates={}",
            r.n_nodes, r.n_clusters, r.n_subscribers, r.n_updates
        );
        println!(
            "  pushes={} repairs={} contribs={} | push latency p50={} p90={} p99={} max={}",
            r.pushes, r.repairs, r.contribs, r.push_p50, r.push_p90, r.push_p99, r.push_max
        );
        println!(
            "  serving msgs: push={} requery={} | per update: push={}.{:03} requery={}.{:03} | ratio={}.{:03}x",
            r.push_msgs,
            r.requery_msgs,
            r.push_per_update_milli / 1000,
            r.push_per_update_milli % 1000,
            r.requery_per_update_milli / 1000,
            r.requery_per_update_milli % 1000,
            r.ratio_milli / 1000,
            r.ratio_milli % 1000
        );
    }

    fn failures(&self) -> Vec<String> {
        let r = &self.0;
        let mut failures = Vec::new();
        if r.active_subs < r.n_subscribers {
            failures.push(format!(
                "only {}/{} subscriptions survived a fault-free run",
                r.active_subs, r.n_subscribers
            ));
        }
        if r.ratio_milli < 2000 {
            failures.push(format!(
                "push/requery ratio {}.{:03}x below the 2x floor",
                r.ratio_milli / 1000,
                r.ratio_milli % 1000
            ));
        }
        failures
    }

    fn json(&self) -> Json {
        subbench::json(&self.0)
    }
}

fn main() {
    driver::main::<Sub>();
}
