//! Experiment and report harness: one module per figure of the paper's
//! evaluation (§8), the extensions listed in DESIGN.md, and the
//! machine-readable reports behind the committed `BENCH_*.json` files.
//!
//! Every figure module exposes a `Params` struct with two presets —
//! `Default` (paper scale) and `quick()` (seconds-scale, used by the unit
//! tests) — and a `run(params) -> Table` function that regenerates the
//! figure's data. Binaries (`cargo run -p elink-experiments --release
//! --bin figNN`) print the table as markdown and write `results/figNN.csv`;
//! `--bin all` regenerates everything.
//!
//! | binary | paper result |
//! |--------|--------------|
//! | `fig08` | clustering quality vs δ, Tao data |
//! | `fig09` | clustering quality vs δ, Death Valley terrain |
//! | `fig10` | update cost vs slack (ELink vs centralized) |
//! | `fig11` | clustering quality vs slack |
//! | `fig12` | cumulative message cost over time, Tao stream |
//! | `fig13` | clustering cost vs network size, synthetic |
//! | `fig14` | range-query cost vs radius, Tao |
//! | `fig15` | range-query cost vs radius, synthetic |
//! | `ext_path` | path-query cost (deferred to \[21\] in the paper) |
//! | `ext_theory` | Theorem 2/3 growth empirics |
//! | `ext_ablation` | switching budget c and threshold φ ablations |
//! | `ext_repr` | representative sampling: acquisition saving vs error |
//! | `ext_stretch` | greedy geographic routing stretch (the §4 γ band) |
//! | `ext_kmedoids` | §9's distributed k-medoids communication argument |
//! | `ext_failure` | node-failure robustness during maintenance (§1) |
//! | `ext_workload` | serving-layer SLOs vs template skew (concurrent queries) |
//! | `ext_chaos` | seeded fault campaign: drop × crash × partition grid |
//! | `ext_contention` | load × capacity sweep over the contention-aware link |
//!
//! The `*_report` binaries (`bench_report`, `workload_report`,
//! `chaos_report`, `contention_report`, `admission_report`, `scale_report`,
//! `mc_report`, `sub_report`) each write one `BENCH_*.json` document through
//! [`driver`] (`[--check] [--out PATH]`, an acceptance gate, a determinism
//! rerun) and the [`json`] writer. No document carries host time, which the
//! standalone benchmark in `benchmark/` measures; this crate is outside
//! simlint's protocol-crate set only for `mc_report`'s wall-time ceiling.
//! `trace_summary` renders a [`elink_netsim::JsonlTrace`] log as per-node
//! tables.

// Every public item must carry a doc comment (simlint pub-doc-coverage
// enforces the same invariant pre-rustdoc).
#![warn(missing_docs)]

/// The load-admission A/B sweep behind `BENCH_admission.json`.
pub mod admission;
/// Shared experiment infrastructure: result tables, δ grids, scenarios.
pub mod common;
/// The offered-load × capacity contention sweep behind `BENCH_contention.json`.
pub mod contention;
/// CSV reading/writing for the results directory.
pub mod csv_io;
/// The shared command line, gate, determinism rerun and writer of every
/// `*_report` binary.
pub mod driver;
/// Ext — switching budget c and threshold φ ablations.
pub mod ext_ablation;
/// Ext — seeded fault campaign over the serving layer.
pub mod ext_chaos;
/// Ext — offered-load × capacity sweep over the contention-aware link.
pub mod ext_contention;
/// Ext — node-failure robustness during maintenance.
pub mod ext_failure;
/// Ext — distributed k-medoids communication argument (§9).
pub mod ext_kmedoids;
/// Ext — path-query cost (deferred to \[21\] in the paper).
pub mod ext_path;
/// Ext — representative sampling: acquisition saving vs error.
pub mod ext_repr;
/// Ext — greedy geographic routing stretch (the §4 γ band).
pub mod ext_stretch;
/// Ext — Theorem 2/3 growth empirics.
pub mod ext_theory;
/// Ext — serving-layer SLOs vs template skew.
pub mod ext_workload;
/// Fig. 8 — clustering quality vs δ, Tao data.
pub mod fig08;
/// Fig. 9 — clustering quality vs δ, Death Valley terrain.
pub mod fig09;
/// Fig. 10 — update cost vs slack (ELink vs centralized).
pub mod fig10;
/// Fig. 11 — clustering quality vs slack.
pub mod fig11;
/// Fig. 12 — cumulative message cost over time, Tao stream.
pub mod fig12;
/// Fig. 13 — clustering cost vs network size, synthetic.
pub mod fig13;
/// Fig. 14 — range-query cost vs radius, Tao.
pub mod fig14;
/// Fig. 15 — range-query cost vs radius, synthetic.
pub mod fig15;
/// The one JSON writer behind every `BENCH_*` document.
pub mod json;
/// Quick experiment presets behind `BENCH_elink.json`.
pub mod report;
/// The 1k→64k fleet-size scaling bench behind `BENCH_scale.json`.
pub mod scale;
/// The standing-query push-vs-requery bench behind `BENCH_sub.json`.
pub mod subbench;
/// Minimal SVG plotting for the results directory.
pub mod svg;

pub use common::{Scenario, ScenarioBuilder, Table};

/// Runs every experiment at paper scale, returning the tables in figure
/// order. Used by the `all` binary.
pub fn run_all() -> Vec<Table> {
    vec![
        fig08::run(Default::default()),
        fig09::run(Default::default()),
        fig10::run(Default::default()),
        fig11::run(Default::default()),
        fig12::run(Default::default()),
        fig13::run(Default::default()),
        fig14::run(Default::default()),
        fig15::run(Default::default()),
        ext_path::run(Default::default()),
        ext_theory::run(Default::default()),
        ext_ablation::run(Default::default()),
        ext_repr::run(Default::default()),
        ext_stretch::run(Default::default()),
        ext_kmedoids::run(Default::default()),
        ext_failure::run(Default::default()),
        ext_workload::run(Default::default()),
        ext_chaos::run(Default::default()),
        ext_contention::run(Default::default()),
    ]
}
