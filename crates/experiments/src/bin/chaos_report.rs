//! Runs the seeded fault campaign and writes `BENCH_chaos.json` (schema
//! `elink-chaos/v3`).
//!
//! ```text
//! chaos_report [--check] [--out PATH]
//! ```
//!
//! `--check` runs the campaign twice and fails unless the documents are
//! byte-identical: the CI smoke gate for the recovery layer, since
//! same-seed chaos runs must be fully deterministic. The command line is
//! [`elink_experiments::driver`]'s.
//!
//! Independent of `--check`, the run fails (exit 1) if any cell breaks
//! liveness (a surviving initiator's query wedged) or soundness (an answer
//! disagreed with ground truth), or if the pure-loss cells degraded any
//! answer — loss alone must be invisible behind the ARQ sublayer. The
//! standing-subscription cells (leader crash mid-subscription) must each
//! observe a real failover, keep at least one subscription alive, and
//! report zero push-soundness violations.

use elink_experiments::driver::{self, Report};
use elink_experiments::ext_chaos;
use elink_experiments::json::Json;
use elink_metric::{Absolute, Metric};
use elink_workload::{default_sub_grid, run_sub_cell, ChaosReport, FaultSpec};
use std::sync::Arc;

/// The benchmark campaign on `ext_chaos`'s default deployment (192-node
/// terrain, 60 queries per cell, δ = 300, seed 42), over drop ∈ {0, 250}‰ ×
/// crash ∈ {0, 150}‰ plus one partition cell and one composed capacity ×
/// loss × crash cell (congestion pricing, drop faults, crashed leaders and
/// the load-admission ladder all active at once) — the fault classes the
/// recovery layer must survive, kept to six cells so the double-run
/// `--check` stays in CI budget.
fn grid() -> Vec<FaultSpec> {
    let cell = |drop_milli, crash_milli, partition, capacity| FaultSpec {
        drop_milli,
        crash_milli,
        partition,
        capacity,
    };
    vec![
        cell(0, 0, None, None),
        cell(250, 0, None, None),
        cell(0, 150, None, None),
        cell(250, 150, None, None),
        cell(100, 0, Some((400, 900)), None),
        cell(100, 150, None, Some(64)),
    ]
}

struct Chaos(ChaosReport);

impl Report for Chaos {
    const NAME: &'static str = "chaos_report";
    const OUT: &'static str = "BENCH_chaos.json";

    fn run() -> Self {
        let params = ext_chaos::Params {
            grid: grid(),
            ..Default::default()
        };
        let mut report = ext_chaos::campaign(&params);
        let data = elink_datasets::TerrainDataset::generate(params.n_sensors, 6, 0.55, 7);
        let (features, (delta, seed)) = (data.features(), (params.delta, params.seed));
        let metric: Arc<dyn Metric> = Arc::new(Absolute);
        report.sub_cells = default_sub_grid()
            .into_iter()
            .map(|fault| {
                run_sub_cell(data.topology(), &features, &metric, delta, seed, fault)
                    .expect("campaign fixture offers no isolatable (non-relay) coordinator victim")
            })
            .collect();
        Chaos(report)
    }

    fn print(&self) {
        let report = &self.0;
        println!(
            "chaos n={} queries/cell={} seed={} cells={}",
            report.n_nodes,
            report.n_queries,
            report.seed,
            report.cells.len()
        );
        for c in &report.cells {
            println!(
                "  drop={}m crash={}m part={} cap={} | done={}/{} exact={} partial={} cov_mean={}m | adm={} deg={} shed={} queued={} | retx={} timeouts={} failovers={} violations={}",
                c.fault.drop_milli,
                c.fault.crash_milli,
                c.fault.partition.is_some(),
                c.fault.capacity.unwrap_or(0),
                c.done,
                c.expected,
                c.exact,
                c.partial,
                c.coverage_mean_milli,
                c.admitted,
                c.degraded,
                c.shed,
                c.queued_ms,
                c.retx,
                c.timeouts,
                c.failovers,
                c.violations
            );
        }
        for c in &report.sub_cells {
            println!(
                "  sub drop={}m cap={} crash_at={} leader={} | reg={} adm={} active={} ended={} exact={} subset={} | pushes={} repairs={} resyncs={} gaveup={} failovers={} queued={} violations={}",
                c.fault.drop_milli,
                c.fault.capacity.unwrap_or(0),
                c.crash_at,
                c.crashed_leader,
                c.registered,
                c.admitted,
                c.active,
                c.ended,
                c.exact,
                c.subset,
                c.pushes,
                c.repairs,
                c.resyncs,
                c.contrib_gaveup,
                c.failovers,
                c.queued_ms,
                c.violations
            );
        }
    }

    fn failures(&self) -> Vec<String> {
        let report = &self.0;
        let mut failures = Vec::new();
        if !report.all_sound() {
            failures.push("a cell broke liveness or soundness".to_string());
        }
        for c in &report.cells {
            // Capacity cells are exempt from the loss-invisibility gate: the
            // load-admission ladder *intends* to degrade/shed under congestion.
            if c.fault.crash_milli == 0
                && c.fault.partition.is_none()
                && c.fault.capacity.is_none()
                && c.partial > 0
            {
                failures.push(format!(
                    "pure loss (drop={}m) degraded {} answers — ARQ must absorb loss completely",
                    c.fault.drop_milli, c.partial
                ));
            }
            if c.fault.crash_milli > 0 && c.failovers == 0 {
                failures.push(format!(
                    "crash cell (crash={}m) performed no failover",
                    c.fault.crash_milli
                ));
            }
        }
        for c in &report.sub_cells {
            if c.failovers == 0 || c.active == 0 || c.pushes == 0 {
                failures.push(format!(
                    "sub cell (drop={}m) broke the failover serving contract (failovers={} active={} pushes={})",
                    c.fault.drop_milli, c.failovers, c.active, c.pushes
                ));
            }
        }
        failures
    }

    fn json(&self) -> Json {
        ext_chaos::json(&self.0)
    }
}

fn main() {
    driver::main::<Chaos>();
}
