//! The one command line of every `*_report` binary:
//!
//! ```text
//! <report> [--check] [--out PATH]
//! ```
//!
//! [`main`](crate::driver::main) runs the report once and prints its
//! summary. It exits 1 when an acceptance gate of
//! [`Report::failures`](crate::driver::Report::failures) fails or the
//! document's braces do not balance. With `--check` it runs the report
//! again and exits 1 unless the two documents are byte-identical: every
//! field is deterministic, so same-seed runs must replay exactly. It then
//! writes the document to `PATH` (default
//! [`Report::OUT`](crate::driver::Report::OUT)). A bad argument exits 2.

use crate::json::Json;
use std::process::exit;

/// One report binary: what it runs, prints, gates and writes.
pub trait Report: Sized {
    /// The binary's name, for the usage line and messages.
    const NAME: &'static str;
    /// The default output path.
    const OUT: &'static str;
    /// Runs the report once.
    fn run() -> Self;
    /// Prints the human-readable summary to stdout.
    fn print(&self);
    /// One message per broken acceptance gate; empty when every gate holds.
    fn failures(&self) -> Vec<String> {
        Vec::new()
    }
    /// The JSON document, rendered by [`Json::document`].
    fn json(&self) -> Json;
}

/// Runs report `R` under the shared command line (see the module docs).
pub fn main<R: Report>() {
    let mut check = false;
    let mut out = String::from(R::OUT);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--out" => match args.next() {
                Some(path) => out = path,
                None => usage::<R>("--out requires a path"),
            },
            other => usage::<R>(&format!("unknown argument: {other}")),
        }
    }

    let report = R::run();
    report.print();
    let json = report.json().document();
    let mut failures = report.failures();
    if json.matches('{').count() != json.matches('}').count() {
        failures.push(format!("unbalanced braces in {json}"));
    }
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("ACCEPTANCE FAILURE: {f}");
        }
        exit(1);
    }

    if check {
        let name = R::NAME;
        eprintln!("--check: running {name} again to verify determinism...");
        let again = R::run().json().document();
        if again != json {
            eprintln!("DETERMINISM FAILURE: {name} documents differ across runs");
            for (a, b) in json.lines().zip(again.lines()).filter(|(a, b)| a != b) {
                eprintln!("  run 1: {a}");
                eprintln!("  run 2: {b}");
            }
            exit(1);
        }
        eprintln!("--check: documents byte-identical across two runs");
    }

    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("could not write {out}: {e}");
        exit(1);
    }
    eprintln!("wrote {out}");
}

fn usage<R: Report>(problem: &str) -> ! {
    eprintln!("{problem}");
    eprintln!("usage: {} [--check] [--out PATH]", R::NAME);
    exit(2);
}
