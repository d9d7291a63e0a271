//! Runs the model-checking gate suite and writes `BENCH_mc.json` (schema
//! `elink-mc/v1`).
//!
//! ```text
//! mc_report [--check] [--out PATH]
//! ```
//!
//! `--check` runs the whole suite twice and fails unless the documents
//! are byte-identical: exploration must visit the same states in the same
//! order on every run. The command line is [`elink_experiments::driver`]'s.
//!
//! Independent of `--check`, the run fails (exit 1) when any cell:
//!
//! * finds a predicate violation it did not expect, or misses one it did —
//!   and for every expected violation, when the compiled counterexample
//!   does not reproduce under the production engine;
//! * fails to explore exhaustively within its budgets;
//! * breaches the hard explored-state ceiling (a state-space regression:
//!   canonicalization got weaker or the protocols grew nondeterminism);
//! * collectively breaches the wall-time ceiling (checked per pass).
//!
//! The suite is the small-topology catalog from `elink-mc`: 3-node
//! explicit-mode growth (fault-free, then one message drop — expected to
//! deadlock without ARQ and to replay) and the 4-node serving query
//! (fault-free; one crash; one crash plus one drop; contended over a
//! capacity-1 fair-share link, with the flow table in the fingerprint).

use std::time::Instant;

use elink_experiments::driver::{self, Report};
use elink_experiments::fields;
use elink_experiments::json::{Json, Object};
use elink_mc::scenarios::{elink_growth, serving};
use elink_mc::{CheckOutcome, ExploreReport, FaultBudget, McConfig, Strategy};

/// Hard ceiling on explored states per cell. The whole suite currently
/// explores well under 1k states per cell; a breach means fingerprint
/// merging regressed or a protocol grew schedule-visible nondeterminism.
const STATE_CEILING: u64 = 50_000;

/// Hard ceiling on suite wall time, seconds (per pass; `--check` runs two
/// passes). Generous: one pass is sub-second in release builds.
const WALL_CEILING_SECS: u64 = 120;

struct CellResult {
    name: &'static str,
    explored: u64,
    pruned: u64,
    quiescent: u64,
    max_depth: usize,
    exhaustive: bool,
    /// Name of the violated predicate, if any.
    violation: Option<String>,
    /// Whether this cell is *supposed* to violate (known-bad config).
    expect_violation: bool,
    /// For violating cells: did the counterexample replay reproduce?
    replay_reproduced: Option<bool>,
}

impl CellResult {
    fn from_outcome<M>(
        name: &'static str,
        expect_violation: bool,
        outcome: &CheckOutcome<M>,
    ) -> CellResult {
        let r: &ExploreReport = &outcome.report;
        CellResult {
            name,
            explored: r.explored,
            pruned: r.pruned,
            quiescent: r.quiescent,
            max_depth: r.max_depth_seen,
            exhaustive: r.exhaustive(),
            violation: r.violation.as_ref().map(|v| v.predicate.to_string()),
            expect_violation,
            replay_reproduced: outcome.counterexample.as_ref().map(|(_, rp)| rp.reproduced),
        }
    }
}

fn budget(drops: u32, dups: u32, crashes: u32) -> McConfig {
    let mut config = McConfig::fault_free(2);
    config.faults = FaultBudget {
        max_drops: drops,
        max_duplicates: dups,
        max_crashes: crashes,
    };
    config.max_depth = 512;
    config.max_states = 1_000_000;
    config
}

fn run_suite() -> Vec<CellResult> {
    let mut cells = Vec::new();

    let growth_preds = elink_growth::predicates(&[]);
    let out = elink_growth::three_node().check(&budget(0, 0, 0), &growth_preds, Strategy::Bfs);
    cells.push(CellResult::from_outcome("growth-3/fault-free", false, &out));

    // One lost message with no ARQ deadlocks the explicit ack waves — the
    // cell pins both the finding and the counterexample replay machinery.
    let out = elink_growth::three_node().check(&budget(1, 0, 0), &growth_preds, Strategy::Bfs);
    cells.push(CellResult::from_outcome("growth-3/1-drop", true, &out));

    let serving_preds = serving::predicates();
    let out = serving::four_node().check(&budget(0, 0, 0), &serving_preds, Strategy::Bfs);
    cells.push(CellResult::from_outcome(
        "serving-4/fault-free",
        false,
        &out,
    ));

    let out = serving::four_node().check(&budget(0, 0, 1), &serving_preds, Strategy::Bfs);
    cells.push(CellResult::from_outcome("serving-4/1-crash", false, &out));

    let out = serving::four_node().check(&budget(1, 0, 1), &serving_preds, Strategy::Bfs);
    cells.push(CellResult::from_outcome(
        "serving-4/1-crash+1-drop",
        false,
        &out,
    ));

    // Contended serving over a capacity-1 fair-share link: the flow table
    // is part of the explored state (snapshotted into fingerprints), so
    // this cell exhausts every interleaving of queued transfers and pins
    // that coverage honesty survives link-level backlog reordering.
    let out = serving::four_node_contended().check(&budget(0, 0, 0), &serving_preds, Strategy::Bfs);
    cells.push(CellResult::from_outcome(
        "serving-4/contended-cap1",
        false,
        &out,
    ));

    cells
}

/// One pass of the suite: its cells and how long the pass took.
struct McReport {
    cells: Vec<CellResult>,
    elapsed_secs: u64,
}

impl Report for McReport {
    const NAME: &'static str = "mc_report";
    const OUT: &'static str = "BENCH_mc.json";

    fn run() -> Self {
        let started = Instant::now();
        let cells = run_suite();
        McReport {
            cells,
            elapsed_secs: started.elapsed().as_secs(),
        }
    }

    fn print(&self) {
        for c in &self.cells {
            println!(
                "  {:<26} explored={:<6} pruned={:<5} quiescent={:<4} depth={:<3} exhaustive={} violation={}{}",
                c.name,
                c.explored,
                c.pruned,
                c.quiescent,
                c.max_depth,
                c.exhaustive,
                c.violation.as_deref().unwrap_or("none"),
                match c.replay_reproduced {
                    Some(true) => " (replayed)",
                    Some(false) => " (REPLAY FAILED)",
                    None => "",
                },
            );
        }
    }

    /// The gate of this pass.
    fn failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        for c in &self.cells {
            if !c.exhaustive {
                failures.push(format!("{}: exploration was not exhaustive", c.name));
            }
            if c.explored > STATE_CEILING {
                failures.push(format!(
                    "{}: explored {} states, ceiling is {STATE_CEILING}",
                    c.name, c.explored
                ));
            }
            match (&c.violation, c.expect_violation) {
                (Some(p), false) => {
                    failures.push(format!("{}: unexpected violation of '{p}'", c.name));
                }
                (None, true) => {
                    failures.push(format!(
                        "{}: expected a violation (known-bad config) but found none",
                        c.name
                    ));
                }
                (Some(_), true) => {
                    if c.replay_reproduced != Some(true) {
                        failures.push(format!(
                            "{}: counterexample did not reproduce under the engine",
                            c.name
                        ));
                    }
                }
                (None, false) => {}
            }
        }
        if self.elapsed_secs > WALL_CEILING_SECS {
            failures.push(format!(
                "suite took {}s, wall ceiling is {WALL_CEILING_SECS}s",
                self.elapsed_secs
            ));
        }
        failures
    }

    /// Stable key order, no floats, no timing.
    fn json(&self) -> Json {
        let cells = self.cells.iter().map(|c| {
            let counts = fields!(Object::new(), c;
                name, explored, pruned, quiescent, max_depth, exhaustive);
            fields!(counts.field("violation", c.violation.as_deref()), c;
                expect_violation, replay_reproduced)
        });
        Object::new()
            .field("schema", "elink-mc/v1")
            .field("cells", Json::array(cells))
            .into()
    }
}

fn main() {
    driver::main::<McReport>();
}
