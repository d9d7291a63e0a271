//! Runs the 1k→64k scaling bench and writes `BENCH_scale.json` (schema
//! `elink-scale/v3`).
//!
//! ```text
//! scale_report [--check] [--out PATH]
//! ```
//!
//! `--check` runs the sweep twice and fails unless the documents are
//! byte-identical. The command line is [`elink_experiments::driver`]'s.

use elink_experiments::driver::{self, Report};
use elink_experiments::json::Json;
use elink_experiments::scale::{self, run_scale, ScalePoint, FULL_SIDES};

struct Scale(Vec<ScalePoint>);

impl Report for Scale {
    const NAME: &'static str = "scale_report";
    const OUT: &'static str = "BENCH_scale.json";

    fn run() -> Self {
        Scale(run_scale(&FULL_SIDES))
    }

    fn print(&self) {
        for p in &self.0 {
            println!(
                "n={:<6} clusters={:<5} msgs/node={:<8.2} bytes/node={:<9.2} peak_events={}",
                p.n, p.clusters, p.msgs_per_node, p.bytes_per_node, p.peak_live_events
            );
        }
    }

    fn json(&self) -> Json {
        scale::json(&self.0)
    }
}

fn main() {
    driver::main::<Scale>();
}
