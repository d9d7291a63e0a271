//! Runs the quick benchmark presets and writes `BENCH_elink.json` (schema
//! `elink-bench/v2`).
//!
//! ```text
//! bench_report [--check] [--out PATH]
//! ```
//!
//! `--check` runs the suite twice and fails unless the documents are
//! byte-identical: the CI smoke gate for the observability layer. The
//! command line is [`elink_experiments::driver`]'s.

use elink_experiments::driver::{self, Report};
use elink_experiments::json::Json;
use elink_experiments::report::{self, run_benches, BenchResult};

struct Benches(Vec<BenchResult>);

impl Report for Benches {
    const NAME: &'static str = "bench_report";
    const OUT: &'static str = "BENCH_elink.json";

    fn run() -> Self {
        Benches(run_benches())
    }

    fn print(&self) {
        for r in &self.0 {
            println!(
                "{:<24} n={:<4} sim_time={} messages={} bytes={} phases={}",
                r.bench,
                r.n,
                r.sim_time,
                r.messages,
                r.bytes,
                r.metrics.phases().count()
            );
        }
    }

    fn json(&self) -> Json {
        report::json(&self.0)
    }
}

fn main() {
    driver::main::<Benches>();
}
