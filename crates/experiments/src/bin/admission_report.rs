//! Runs the load-admission A/B sweep and writes `BENCH_admission.json`
//! (schema `elink-admission/v1`).
//!
//! ```text
//! admission_report [--check] [--out PATH]
//! ```
//!
//! `--check` runs the sweep twice and fails unless the documents are
//! byte-identical: the admission thresholds are pure integer arithmetic
//! over the flow-table backlog, so same-seed runs must replay exactly. The
//! command line is [`elink_experiments::driver`]'s.
//!
//! Independent of `--check`, the run fails (exit 1) unless the A/B
//! contract holds past the saturation knee of the cap-64 sweep: admission
//! on must bound the served p99 (no convex blow-up segment, strictly
//! below admission off at the heaviest load), lose no work (shed queries
//! complete explicitly), and keep exact-answer goodput at or above the
//! admission-off baseline (see
//! `elink_experiments::admission::admission_violation`). It also fails if any
//! answer on either side — shed and degraded ones included — breaks the
//! answer contract of `elink_workload::audit` over the initial anchors
//! (the schedules are query-only).

use elink_experiments::admission::{self, admission_violation, run_sweep, AdmissionPoint};
use elink_experiments::driver::{self, Report};
use elink_experiments::json::Json;

struct AdmissionSweep(Vec<AdmissionPoint>);

impl Report for AdmissionSweep {
    const NAME: &'static str = "admission_report";
    const OUT: &'static str = "BENCH_admission.json";

    fn run() -> Self {
        AdmissionSweep(run_sweep())
    }

    fn print(&self) {
        for p in &self.0 {
            println!(
                "gap={:<3} admission={:<5} done={:<4} adm={:<4} deg={:<3} shed={:<3} exact={:<4} served_p50={:<5} served_p99={:<6} goodput={:<4}/ktick queued={}",
                p.mean_gap,
                p.admission,
                p.done,
                p.admitted,
                p.degraded,
                p.shed,
                p.exact,
                p.served_p50,
                p.served_p99,
                p.goodput_milli,
                p.queued_ms,
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
                    "gap={} admission={}: {} answer(s) broke the answer contract",
                    p.mean_gap, p.admission, p.breaches
                )
            })
            .collect();
        failures.extend(admission_violation(&self.0).map(|v| format!("admission contract: {v}")));
        failures
    }

    fn json(&self) -> Json {
        admission::json(&self.0)
    }
}

fn main() {
    driver::main::<AdmissionSweep>();
}
