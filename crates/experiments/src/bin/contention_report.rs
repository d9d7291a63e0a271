//! Runs the offered-load × capacity sweep and writes
//! `BENCH_contention.json` (schema `elink-contention/v1`).
//!
//! ```text
//! contention_report [--check] [--out PATH]
//! ```
//!
//! `--check` runs the sweep twice and fails unless the documents are
//! byte-identical: a full-document determinism gate for the flow-level
//! link model, where every tentative-completion invalidation and
//! reschedule must replay exactly. The command line is
//! [`elink_experiments::driver`]'s.
//!
//! Independent of `--check`, the run fails (exit 1) if the queueing knee
//! is missing — for any capacity, p99 latency must be non-decreasing in
//! offered load and must grow superlinearly past saturation
//! (see `elink_experiments::contention::knee_violation`) — or if any answer
//! breaks the answer contract of `elink_workload::audit` over the initial
//! anchors (the schedules are query-only).

use elink_experiments::contention::{self, knee_violation, run_sweep, ContentionPoint};
use elink_experiments::driver::{self, Report};
use elink_experiments::json::Json;

struct Contention(Vec<ContentionPoint>);

impl Report for Contention {
    const NAME: &'static str = "contention_report";
    const OUT: &'static str = "BENCH_contention.json";

    fn run() -> Self {
        Contention(run_sweep())
    }

    fn print(&self) {
        for p in &self.0 {
            println!(
                "cap={:<3} gap={:<3} offered={:<5.3}/tick done={:<4} p50={:<5} p99={:<6} queued={:<8} busiest_link={}t",
                p.capacity,
                p.mean_gap,
                p.offered_milli as f64 / 1000.0,
                p.done,
                p.p50,
                p.p99,
                p.queued_ms,
                p.link_busy_peak,
            );
        }
    }

    fn failures(&self) -> Vec<String> {
        let mut failures: Vec<String> = self
            .0
            .iter()
            .filter(|p| p.breaches > 0)
            .map(|p| {
                format!(
                    "cap={} gap={}: {} answer(s) broke the answer contract",
                    p.capacity, p.mean_gap, p.breaches
                )
            })
            .collect();
        failures.extend(knee_violation(&self.0).map(|v| format!("queueing knee: {v}")));
        failures
    }

    fn json(&self) -> Json {
        contention::json(&self.0)
    }
}

fn main() {
    driver::main::<Contention>();
}
